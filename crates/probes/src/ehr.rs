//! The paper's analytic cache model (Eqs. 2–4) and its inversion.
//!
//! For the Fig. 4 benchmark sampling indices i.i.d. from a distribution
//! with mass function `f`, the steady-state Expected Hit Rate on a fully
//! associative cache of capacity `C` is (paper Eq. 4):
//!
//! ```text
//! EHR = C · Σᵢ f(i)²
//! ```
//!
//! We evaluate the sum at **cache-line granularity**: the unit that
//! occupies the cache is a line, and a line's access mass is the sum of
//! its elements' masses — this is precisely how the paper's σ-dependent
//! "spatial locality" enters the model. The sum is computed exactly from
//! CDF differences, no sampling involved.
//!
//! Inverting the formula converts a *measured* miss rate into the
//! *effective* cache capacity the benchmark enjoyed — the instrument the
//! paper uses in §III-C3 to quantify how much storage each CSThr level
//! steals (Fig. 6):
//!
//! ```text
//! C_eff = (1 − miss_rate) / Σ g(ℓ)²
//! ```
//!
//! Like the paper's, the model assumes (a) the buffer exceeds the cache,
//! (b) steady state, and (c) full associativity. Assumption (c) makes it
//! under-predict hit rates for small buffers — visible on the left edge of
//! Fig. 5 — which is faithfully reproduced here. [`expected_hit_rate_clamped`]
//! is our extension that bounds per-line presence probability at 1.

use crate::dist::AccessDist;

/// The truncated CDF of `dist` at the lower edge of line `l` of a
/// `buffer_bytes` buffer in `line_bytes` lines (`l` = line count gives
/// the upper edge of the last, possibly partial, line). Line `l`'s mass
/// is `edge(l + 1) − edge(l)`, the same floats however the edges are
/// visited.
pub(crate) fn line_edge_cdf(
    dist: &AccessDist,
    buffer_bytes: u64,
    line_bytes: u64,
) -> impl Fn(u64) -> f64 {
    let cdf = dist.truncated();
    let total = buffer_bytes as f64;
    move |l| cdf.cdf((l * line_bytes).min(buffer_bytes) as f64 / total)
}

/// Per-line access masses `g(ℓ)` for a buffer of `buffer_bytes` holding
/// `elem_bytes`-sized elements packed into `line_bytes` lines, in line
/// order: a line's upper edge is the next one's lower edge, so each line
/// costs one CDF evaluation.
fn line_mass_iter(
    dist: &AccessDist,
    buffer_bytes: u64,
    elem_bytes: u64,
    line_bytes: u64,
) -> impl Iterator<Item = f64> {
    assert!(elem_bytes > 0 && line_bytes >= elem_bytes);
    let edge = line_edge_cdf(dist, buffer_bytes, line_bytes);
    let mut below = edge(0);
    (1..=buffer_bytes.div_ceil(line_bytes)).map(move |l| {
        let upto = edge(l);
        let mass = upto - below;
        below = upto;
        mass
    })
}

/// Per-line access masses `g(ℓ)` of `dist` over a buffer of
/// `buffer_bytes` holding `elem_bytes`-sized elements in `line_bytes`
/// lines, in line order (they sum to 1).
pub fn line_masses(
    dist: &AccessDist,
    buffer_bytes: u64,
    elem_bytes: u64,
    line_bytes: u64,
) -> Vec<f64> {
    line_mass_iter(dist, buffer_bytes, elem_bytes, line_bytes).collect()
}

/// `Σ g(ℓ)²` — the distribution-dependent constant of Eq. 4.
pub fn sum_sq_line_mass(
    dist: &AccessDist,
    buffer_bytes: u64,
    elem_bytes: u64,
    line_bytes: u64,
) -> f64 {
    line_mass_iter(dist, buffer_bytes, elem_bytes, line_bytes)
        .map(|g| g * g)
        .sum()
}

/// Paper Eq. 4: expected hit rate for `cache_lines` of capacity.
/// Clamped to [0, 1] only for numerical hygiene (the paper's assumptions
/// keep it below 1).
pub fn expected_hit_rate(cache_lines: u64, ssq: f64) -> f64 {
    (cache_lines as f64 * ssq).clamp(0.0, 1.0)
}

/// `1 − EHR`.
pub fn expected_miss_rate(cache_lines: u64, ssq: f64) -> f64 {
    1.0 - expected_hit_rate(cache_lines, ssq)
}

/// Extension: per-line presence probability bounded at 1
/// (`EHR = Σ g·min(1, C·g)`), which fixes the over-prediction Eq. 4
/// suffers for strongly concentrated distributions. Not used by the
/// paper-faithful figures.
pub fn expected_hit_rate_clamped(cache_lines: u64, masses: &[f64]) -> f64 {
    let c = cache_lines as f64;
    // The capacity used by saturated lines (presence = 1) is unavailable
    // to the rest; a two-pass waterfill keeps the budget honest.
    let mut saturated = 0.0f64;
    let mut free_mass_sq = 0.0f64;
    // One refinement pass is enough in practice for these distributions.
    for _ in 0..8 {
        let budget = (c - saturated).max(0.0);
        let mut new_sat = 0.0;
        let mut fms = 0.0;
        for &g in masses {
            if budget * g >= 1.0 {
                new_sat += 1.0;
            } else {
                fms += g * g;
            }
        }
        if (new_sat - saturated).abs() < 0.5 {
            saturated = new_sat;
            free_mass_sq = fms;
            break;
        }
        saturated = new_sat;
        free_mass_sq = fms;
    }
    let budget = (c - saturated).max(0.0);
    let sat_mass: f64 = masses.iter().filter(|&&g| budget * g >= 1.0).sum();
    (sat_mass + budget * free_mass_sq).clamp(0.0, 1.0)
}

/// Invert Eq. 4: effective cache capacity (in lines) that explains a
/// measured miss rate.
pub fn effective_cache_lines(measured_miss_rate: f64, ssq: f64) -> f64 {
    assert!(ssq > 0.0);
    ((1.0 - measured_miss_rate) / ssq).max(0.0)
}

/// Same, in bytes.
pub fn effective_cache_bytes(measured_miss_rate: f64, ssq: f64, line_bytes: u64) -> f64 {
    effective_cache_lines(measured_miss_rate, ssq) * line_bytes as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::table2;

    const MB: u64 = 1 << 20;

    #[test]
    fn masses_sum_to_one() {
        for nd in table2() {
            let m = line_masses(&nd.dist, 32 * MB, 4, 64);
            let s: f64 = m.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "{}: Σg = {s}", nd.name);
        }
    }

    #[test]
    fn uniform_closed_form() {
        // Uniform over L lines: Σ g² = L · (1/L)² = 1/L, so
        // EHR = C/L — the classic "cache fraction of buffer" result.
        let buffer = 40 * MB;
        let lines = buffer / 64;
        let ssq = sum_sq_line_mass(&crate::dist::AccessDist::Uniform, buffer, 4, 64);
        assert!((ssq - 1.0 / lines as f64).abs() < 1e-12);
        let cache_lines = 20 * MB / 64;
        let ehr = expected_hit_rate(cache_lines, ssq);
        assert!((ehr - 0.5).abs() < 1e-9, "20MB cache / 40MB buffer = 0.5");
    }

    #[test]
    fn concentration_raises_hit_rate() {
        // Narrower distributions have larger Σg² hence higher EHR.
        let buffer = 48 * MB;
        let cache_lines = 20 * MB / 64;
        let t = table2();
        let ehr_of =
            |i: usize| expected_hit_rate(cache_lines, sum_sq_line_mass(&t[i].dist, buffer, 4, 64));
        let norm4 = ehr_of(0);
        let norm8 = ehr_of(2);
        let uni = ehr_of(9);
        assert!(norm8 > norm4, "σ=n/8 beats σ=n/4");
        assert!(norm4 > uni, "any concentration beats uniform");
    }

    #[test]
    fn miss_rate_rises_with_buffer_size() {
        // The paper: "cache miss rates rise as the buffer size increases".
        let d = table2()[3].dist; // Exp_4
        let cache_lines = 20 * MB / 64;
        let mr30 = expected_miss_rate(cache_lines, sum_sq_line_mass(&d, 30 * MB, 4, 64));
        let mr74 = expected_miss_rate(cache_lines, sum_sq_line_mass(&d, 74 * MB, 4, 64));
        assert!(mr74 > mr30);
    }

    #[test]
    fn inversion_roundtrip() {
        for nd in table2() {
            let ssq = sum_sq_line_mass(&nd.dist, 60 * MB, 4, 64);
            let cache_lines = 12 * MB / 64;
            let mr = expected_miss_rate(cache_lines, ssq);
            let back = effective_cache_lines(mr, ssq);
            assert!(
                (back - cache_lines as f64).abs() < 1.0,
                "{}: {back} vs {cache_lines}",
                nd.name
            );
        }
    }

    #[test]
    fn clamped_model_bounded_and_uniform_exact() {
        // The clamped variant must stay a probability, agree with Eq. 4
        // exactly when no line saturates (uniform), and grow with cache
        // capacity.
        let buffer = 64 * MB;
        let cache_lines = 10 * MB / 64;
        for nd in table2() {
            let masses = line_masses(&nd.dist, buffer, 4, 64);
            let small = expected_hit_rate_clamped(cache_lines / 4, &masses);
            let big = expected_hit_rate_clamped(cache_lines, &masses);
            assert!((0.0..=1.0).contains(&small), "{}", nd.name);
            assert!((0.0..=1.0).contains(&big), "{}", nd.name);
            assert!(big >= small - 1e-9, "{}: not monotone in C", nd.name);
        }
        let masses = line_masses(&crate::dist::AccessDist::Uniform, buffer, 4, 64);
        let ssq: f64 = masses.iter().map(|g| g * g).sum();
        let paper = expected_hit_rate(cache_lines, ssq);
        let clamped = expected_hit_rate_clamped(cache_lines, &masses);
        assert!((paper - clamped).abs() < 1e-9);
    }

    #[test]
    fn masses_are_bit_equal_to_per_line_cdf_differences() {
        // One CDF evaluation per line, carried, must be the same floats
        // as evaluating both ends of every line — including a buffer
        // whose last line is partial.
        use crate::dist::extensions;
        for nd in table2().into_iter().chain(extensions()) {
            for buffer in [2 * MB, 3 * MB + 512 * 1024, 1000 * 1000 + 36] {
                let total = buffer as f64;
                let masses = line_masses(&nd.dist, buffer, 4, 64);
                assert_eq!(masses.len() as u64, buffer.div_ceil(64));
                for (l, g) in masses.iter().enumerate() {
                    let lo = (l as u64 * 64) as f64 / total;
                    let hi = ((l as u64 + 1) * 64).min(buffer) as f64 / total;
                    let want = nd.dist.cdf(hi) - nd.dist.cdf(lo);
                    assert_eq!(g.to_bits(), want.to_bits(), "{} line {l}", nd.name);
                }
                let ssq: f64 = masses.iter().map(|g| g * g).sum();
                let folded = sum_sq_line_mass(&nd.dist, buffer, 4, 64);
                assert_eq!(folded.to_bits(), ssq.to_bits(), "{}", nd.name);
            }
        }
    }

    #[test]
    fn partial_last_line_handled() {
        // Buffer not a multiple of the line size: masses still sum to 1.
        let m = line_masses(&crate::dist::AccessDist::Uniform, 1000, 4, 64);
        assert_eq!(m.len(), 16);
        let s: f64 = m.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
        // The last (40-byte) line has less mass than a full one.
        assert!(m[15] < m[0]);
    }
}
