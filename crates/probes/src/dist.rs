//! The access-pattern distributions of Table II.
//!
//! Each distribution describes how the Fig. 4 benchmark picks buffer
//! indices. Parameters are stored as *fractions of the buffer length* `n`
//! (the paper writes them the same way: µ = n/2, σ = n/4, λ = 4/n, ...),
//! so one preset drives any buffer size.
//!
//! The continuous CDF — truncated to the buffer, because sampling rejects
//! out-of-range draws — serves double duty: it drives inverse/rejection
//! sampling in the benchmark *and* supplies the probability masses `f(i)`
//! for the analytic model of Eq. 4. Using the same object for both is what
//! makes the validation in Fig. 5 meaningful.

use amem_sim::rng::Xoshiro256;
use serde::{Deserialize, Serialize};

/// A probability distribution over buffer positions, on the unit interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AccessDist {
    /// Normal(µ, σ), truncated to [0, 1). Paper rows: Norm_4/6/8 with
    /// µ = 1/2 and σ = 1/4, 1/6, 1/8.
    Normal { mu: f64, sigma: f64 },
    /// Exponential with rate `k` per buffer length (λ = k/n), truncated to
    /// [0, 1). Paper rows: Exp_4/6/8 with k = 4, 6, 8.
    Exponential { rate: f64 },
    /// Triangular on [0, 1) with the given mode. Paper rows: Tri_1/2/3
    /// with modes 0.4, 0.6, 0.8.
    Triangular { mode: f64 },
    /// Uniform over the whole buffer. Paper row: Uni.
    Uniform,
    /// Bounded Pareto (continuous Zipf-like heavy tail) on [x_min, 1):
    /// density ∝ x^(-alpha-1). An *extension* beyond Table II covering
    /// the skewed-popularity patterns of key-value and graph workloads.
    Pareto { alpha: f64, x_min: f64 },
    /// Two-component Gaussian mixture (equal weights) — an extension for
    /// workloads with two distinct hot regions.
    Bimodal { mu1: f64, mu2: f64, sigma: f64 },
}

/// erf via Abramowitz & Stegun 7.1.26 (max abs error ≈ 1.5e-7).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal CDF.
fn phi(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

impl AccessDist {
    /// Raw (untruncated) CDF of the underlying continuous distribution.
    fn raw_cdf(&self, x: f64) -> f64 {
        match *self {
            AccessDist::Normal { mu, sigma } => phi((x - mu) / sigma),
            AccessDist::Exponential { rate } => {
                if x <= 0.0 {
                    0.0
                } else {
                    1.0 - (-rate * x).exp()
                }
            }
            AccessDist::Triangular { mode } => {
                if x <= 0.0 {
                    0.0
                } else if x >= 1.0 {
                    1.0
                } else if x <= mode {
                    x * x / mode
                } else {
                    1.0 - (1.0 - x) * (1.0 - x) / (1.0 - mode)
                }
            }
            AccessDist::Uniform => x.clamp(0.0, 1.0),
            AccessDist::Pareto { alpha, x_min } => {
                if x <= x_min {
                    0.0
                } else {
                    // CDF of Pareto(alpha, x_min), un-truncated.
                    1.0 - (x_min / x).powf(alpha)
                }
            }
            AccessDist::Bimodal { mu1, mu2, sigma } => {
                0.5 * phi((x - mu1) / sigma) + 0.5 * phi((x - mu2) / sigma)
            }
        }
    }

    /// CDF truncated (re-normalized) to [0, 1]: `cdf(0) = 0`, `cdf(1) = 1`.
    /// This is the distribution the benchmark actually samples from.
    pub fn cdf(&self, x: f64) -> f64 {
        self.truncated().cdf(x)
    }

    /// The truncated CDF with its two normalisation constants evaluated
    /// once, for callers that evaluate it at many points.
    pub(crate) fn truncated(&self) -> TruncatedCdf {
        let lo = self.raw_cdf(0.0);
        TruncatedCdf {
            dist: *self,
            lo,
            span: self.raw_cdf(1.0) - lo,
        }
    }

    /// Sample a position in [0, 1).
    pub fn sample_frac(&self, rng: &mut Xoshiro256) -> f64 {
        self.sampler().sample_frac(rng)
    }

    /// Sample a buffer index in `[0, n)`.
    pub fn sample_index(&self, rng: &mut Xoshiro256, n: u64) -> u64 {
        self.sampler().sample_index(rng, n)
    }

    /// The sampler with this distribution's inverse-CDF constants
    /// evaluated once, for a stream that draws many times.
    pub(crate) fn sampler(&self) -> Sampler {
        let (span, inv_alpha) = match *self {
            AccessDist::Exponential { rate } => (1.0 - (-rate).exp(), 0.0),
            AccessDist::Pareto { alpha, x_min } => (1.0 - x_min.powf(alpha), 1.0 / alpha),
            _ => (0.0, 0.0),
        };
        Sampler {
            dist: *self,
            span,
            inv_alpha,
        }
    }

    /// Standard deviation of the *untruncated* distribution, as a fraction
    /// of the buffer length (the "Standard Deviation" column of Table II).
    pub fn std_dev_frac(&self) -> f64 {
        match *self {
            AccessDist::Normal { sigma, .. } => sigma,
            AccessDist::Exponential { rate } => 1.0 / rate,
            AccessDist::Triangular { mode } => {
                // Var of Tri(0, m, 1) = (1 - m + m²) / 18.
                ((1.0 - mode + mode * mode) / 18.0).sqrt()
            }
            AccessDist::Uniform => (1.0f64 / 12.0).sqrt(),
            AccessDist::Pareto { alpha, x_min } => {
                // Untruncated Pareto variance (finite for alpha > 2);
                // report the buffer width otherwise.
                if alpha > 2.0 {
                    let m = alpha * x_min / (alpha - 1.0);
                    let v = x_min * x_min * alpha / ((alpha - 1.0) * (alpha - 1.0) * (alpha - 2.0));
                    let _ = m;
                    v.sqrt()
                } else {
                    1.0
                }
            }
            AccessDist::Bimodal { mu1, mu2, sigma } => {
                // Mixture variance: E[var] + var of means.
                let mean = 0.5 * (mu1 + mu2);
                let between = 0.5 * ((mu1 - mean).powi(2) + (mu2 - mean).powi(2));
                (sigma * sigma + between).sqrt()
            }
        }
    }
}

/// [`AccessDist::sample_frac`] with the constants of the inverse CDFs
/// held: the Exponential's `1 − e^(−rate)` and the Pareto's `1 − x_min^α`
/// and `1/α` (an Exponential draw: 19–22 → 12–14 ns). Each is the float
/// the per-draw derivation gives, so every draw is bit-identical.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sampler {
    dist: AccessDist,
    /// Raw CDF mass on [0, 1): `1 − e^(−rate)` or `1 − x_min^α`.
    span: f64,
    /// Pareto `1/α`.
    inv_alpha: f64,
}

impl Sampler {
    /// Sample a position in [0, 1).
    #[inline]
    pub(crate) fn sample_frac(&self, rng: &mut Xoshiro256) -> f64 {
        match self.dist {
            AccessDist::Normal { mu, sigma } => loop {
                let x = mu + sigma * rng.next_normal();
                if (0.0..1.0).contains(&x) {
                    return x;
                }
            },
            AccessDist::Exponential { rate } => {
                // Direct inverse of the truncated CDF.
                let u = rng.next_f64();
                (-(1.0 - u * self.span).ln() / rate).min(1.0 - f64::EPSILON)
            }
            AccessDist::Triangular { mode } => {
                let u = rng.next_f64();
                if u <= mode {
                    (u * mode).sqrt()
                } else {
                    1.0 - ((1.0 - u) * (1.0 - mode)).sqrt()
                }
            }
            AccessDist::Uniform => rng.next_f64(),
            AccessDist::Pareto { x_min, .. } => {
                // Inverse CDF of the [x_min, 1)-truncated bounded Pareto
                // (`span` is raw_cdf(1.0)).
                let u = rng.next_f64();
                let x = x_min / (1.0 - u * self.span).powf(self.inv_alpha);
                x.min(1.0 - f64::EPSILON)
            }
            AccessDist::Bimodal { mu1, mu2, sigma } => loop {
                let mu = if rng.next_f64() < 0.5 { mu1 } else { mu2 };
                let x = mu + sigma * rng.next_normal();
                if (0.0..1.0).contains(&x) {
                    return x;
                }
            },
        }
    }

    /// Sample a buffer index in `[0, n)`.
    #[inline]
    pub(crate) fn sample_index(&self, rng: &mut Xoshiro256, n: u64) -> u64 {
        frac_index(self.sample_frac(rng), n)
    }
}

/// The buffer index in `[0, n)` of a position drawn in `[0, 1)`: the
/// one map from a draw to an element, whether the draw is fresh or read
/// back from a shared buffer.
#[inline]
pub(crate) fn frac_index(frac: f64, n: u64) -> u64 {
    ((frac * n as f64) as u64).min(n - 1)
}

/// [`AccessDist::cdf`] with `raw_cdf(0)` and `raw_cdf(1) − raw_cdf(0)`
/// held, so each evaluation costs one `raw_cdf`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TruncatedCdf {
    dist: AccessDist,
    lo: f64,
    span: f64,
}

impl TruncatedCdf {
    pub(crate) fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        if x >= 1.0 {
            return 1.0;
        }
        ((self.dist.raw_cdf(x) - self.lo) / self.span).clamp(0.0, 1.0)
    }
}

/// A Table II row.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct NamedDist {
    pub name: &'static str,
    pub dist: AccessDist,
}

/// Extension presets beyond Table II: heavy-tail and bimodal patterns.
pub fn extensions() -> Vec<NamedDist> {
    vec![
        NamedDist {
            name: "Zipf_1.2",
            dist: AccessDist::Pareto {
                alpha: 1.2,
                x_min: 1e-4,
            },
        },
        NamedDist {
            name: "Zipf_2.5",
            dist: AccessDist::Pareto {
                alpha: 2.5,
                x_min: 1e-3,
            },
        },
        NamedDist {
            name: "Bimodal",
            dist: AccessDist::Bimodal {
                mu1: 0.25,
                mu2: 0.75,
                sigma: 0.08,
            },
        },
    ]
}

/// The ten distributions of Table II.
pub fn table2() -> Vec<NamedDist> {
    vec![
        NamedDist {
            name: "Norm_4",
            dist: AccessDist::Normal {
                mu: 0.5,
                sigma: 0.25,
            },
        },
        NamedDist {
            name: "Norm_6",
            dist: AccessDist::Normal {
                mu: 0.5,
                sigma: 1.0 / 6.0,
            },
        },
        NamedDist {
            name: "Norm_8",
            dist: AccessDist::Normal {
                mu: 0.5,
                sigma: 0.125,
            },
        },
        NamedDist {
            name: "Exp_4",
            dist: AccessDist::Exponential { rate: 4.0 },
        },
        NamedDist {
            name: "Exp_6",
            dist: AccessDist::Exponential { rate: 6.0 },
        },
        NamedDist {
            name: "Exp_8",
            dist: AccessDist::Exponential { rate: 8.0 },
        },
        NamedDist {
            name: "Tri_1",
            dist: AccessDist::Triangular { mode: 0.4 },
        },
        NamedDist {
            name: "Tri_2",
            dist: AccessDist::Triangular { mode: 0.6 },
        },
        NamedDist {
            name: "Tri_3",
            dist: AccessDist::Triangular { mode: 0.8 },
        },
        NamedDist {
            name: "Uni",
            dist: AccessDist::Uniform,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256 {
        Xoshiro256::seed_from_u64(12345)
    }

    #[test]
    fn erf_reference_points() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(2.0) - 0.9953222650).abs() < 1e-6);
    }

    #[test]
    fn cdfs_are_proper() {
        for nd in table2() {
            let d = nd.dist;
            assert_eq!(d.cdf(0.0), 0.0, "{}", nd.name);
            assert_eq!(d.cdf(1.0), 1.0, "{}", nd.name);
            let mut prev = 0.0;
            for i in 0..=100 {
                let x = i as f64 / 100.0;
                let c = d.cdf(x);
                assert!(c >= prev - 1e-12, "{} not monotone at {x}", nd.name);
                prev = c;
            }
        }
    }

    #[test]
    fn held_truncation_constants_do_not_move_a_bit() {
        // `truncated()` evaluates raw_cdf(0) and raw_cdf(1) once; every
        // value must be the float the per-call derivation gives.
        for nd in table2().into_iter().chain(extensions()) {
            let d = nd.dist;
            let held = d.truncated();
            for i in 1..4096 {
                let x = i as f64 / 4096.0;
                let (lo, hi) = (d.raw_cdf(0.0), d.raw_cdf(1.0));
                let want = ((d.raw_cdf(x) - lo) / (hi - lo)).clamp(0.0, 1.0);
                assert_eq!(held.cdf(x).to_bits(), want.to_bits(), "{} at {x}", nd.name);
                assert_eq!(d.cdf(x).to_bits(), want.to_bits(), "{} at {x}", nd.name);
            }
        }
    }

    #[test]
    fn held_sampler_constants_do_not_move_a_bit() {
        // The per-draw derivation the sampler replaced, for the two
        // distributions whose constants it holds.
        let per_draw = |d: AccessDist, rng: &mut Xoshiro256| match d {
            AccessDist::Exponential { rate } => {
                let u = rng.next_f64();
                let z = 1.0 - (-rate).exp();
                (-(1.0 - u * z).ln() / rate).min(1.0 - f64::EPSILON)
            }
            AccessDist::Pareto { alpha, x_min } => {
                let u = rng.next_f64();
                let fmax = 1.0 - x_min.powf(alpha);
                (x_min / (1.0 - u * fmax).powf(1.0 / alpha)).min(1.0 - f64::EPSILON)
            }
            _ => unreachable!(),
        };
        let held = table2()
            .into_iter()
            .chain(extensions())
            .map(|nd| nd.dist)
            .filter(|d| {
                matches!(
                    d,
                    AccessDist::Exponential { .. } | AccessDist::Pareto { .. }
                )
            });
        for d in held {
            let (mut a, mut b) = (rng(), rng());
            let s = d.sampler();
            for _ in 0..50_000 {
                let want = per_draw(d, &mut b);
                assert_eq!(s.sample_frac(&mut a).to_bits(), want.to_bits(), "{d:?}");
            }
        }
    }

    #[test]
    fn samples_match_cdf() {
        // Empirical CDF vs analytic CDF at several quantiles, for every
        // Table II distribution (Kolmogorov-style check).
        let mut r = rng();
        for nd in table2() {
            let n = 40_000;
            let mut xs: Vec<f64> = (0..n).map(|_| nd.dist.sample_frac(&mut r)).collect();
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
                let x = xs[(q * n as f64) as usize];
                let c = nd.dist.cdf(x);
                assert!(
                    (c - q).abs() < 0.02,
                    "{}: cdf({x:.4}) = {c:.4}, expected ≈ {q}",
                    nd.name
                );
            }
        }
    }

    #[test]
    fn sample_index_in_range() {
        let mut r = rng();
        for nd in table2() {
            for _ in 0..1000 {
                let i = nd.dist.sample_index(&mut r, 1000);
                assert!(i < 1000, "{}", nd.name);
            }
        }
    }

    #[test]
    fn table2_has_ten_rows_with_decreasing_normal_spread() {
        let t = table2();
        assert_eq!(t.len(), 10);
        assert!(t[0].dist.std_dev_frac() > t[1].dist.std_dev_frac());
        assert!(t[1].dist.std_dev_frac() > t[2].dist.std_dev_frac());
    }

    #[test]
    fn concentration_orders_by_sigma() {
        // Smaller σ ⇒ more mass near the center ⇒ larger CDF increase
        // around µ.
        let wide = AccessDist::Normal {
            mu: 0.5,
            sigma: 0.25,
        };
        let narrow = AccessDist::Normal {
            mu: 0.5,
            sigma: 0.125,
        };
        let mass_wide = wide.cdf(0.6) - wide.cdf(0.4);
        let mass_narrow = narrow.cdf(0.6) - narrow.cdf(0.4);
        assert!(mass_narrow > mass_wide);
    }

    #[test]
    fn exponential_mass_concentrated_at_origin() {
        let d = AccessDist::Exponential { rate: 8.0 };
        assert!(d.cdf(0.125) > 0.6, "first 1/8 should hold most mass");
    }

    #[test]
    fn pareto_is_heavy_headed() {
        let d = AccessDist::Pareto {
            alpha: 1.2,
            x_min: 1e-4,
        };
        // Most of the truncated mass sits in a tiny prefix.
        assert!(d.cdf(0.01) > 0.5, "cdf(0.01) = {}", d.cdf(0.01));
        assert_eq!(d.cdf(0.0), 0.0);
        assert_eq!(d.cdf(1.0), 1.0);
    }

    #[test]
    fn extension_samples_match_cdf() {
        let mut r = rng();
        for nd in extensions() {
            let n = 40_000;
            let mut xs: Vec<f64> = (0..n).map(|_| nd.dist.sample_frac(&mut r)).collect();
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for q in [0.25, 0.5, 0.75] {
                let x = xs[(q * n as f64) as usize];
                let c = nd.dist.cdf(x);
                assert!(
                    (c - q).abs() < 0.02,
                    "{}: cdf({x:.4}) = {c:.4}, expected ≈ {q}",
                    nd.name
                );
            }
        }
    }

    #[test]
    fn bimodal_has_two_hot_regions() {
        let d = AccessDist::Bimodal {
            mu1: 0.25,
            mu2: 0.75,
            sigma: 0.08,
        };
        let mass = |a: f64, b: f64| d.cdf(b) - d.cdf(a);
        assert!(mass(0.15, 0.35) > 0.3);
        assert!(mass(0.65, 0.85) > 0.3);
        assert!(mass(0.45, 0.55) < 0.1, "valley between modes");
    }

    #[test]
    fn triangular_mode_position() {
        // Density peaks at the mode: CDF slope is maximal there.
        let d = AccessDist::Triangular { mode: 0.8 };
        let slope_at = |x: f64| (d.cdf(x + 0.01) - d.cdf(x - 0.01)) / 0.02;
        assert!(slope_at(0.8) > slope_at(0.2));
        assert!(slope_at(0.8) > slope_at(0.99));
    }
}
