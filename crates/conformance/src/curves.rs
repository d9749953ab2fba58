//! Lockstep conformance of the single-pass curve engine.
//!
//! The miss-rate-curve fast path ([`amem_sim::stackdist`]) claims that
//! one stack-distance traversal reproduces, at every capacity at once,
//! what the reference cache would measure point by point. This module
//! holds it to that claim the same way [`crate::fuzz`] holds the SoA
//! cache to the reference cache: seeded deterministic traces, replayed
//! through both implementations, compared exactly.
//!
//! The per-point side is [`RefCache`] with a single set of `C` ways under
//! true-LRU replacement and MRU insertion — a fully-associative LRU
//! cache, the exact structure the Mattson inclusion argument is about.
//! For every capacity on the sweep, its measured-phase miss count must
//! equal the histogram's to within floating-point rounding; any gap is a
//! real defect in one of the two implementations, never tolerance slack.

use amem_sim::cache::{InsertPolicy, Replacement};
use amem_sim::rng::Xoshiro256;
use amem_sim::stackdist::{LineTrace, StackDistHistogram};

use crate::reference::RefCache;

/// A capacity point where the single-pass curve and the per-point
/// reference cache disagree.
#[derive(Debug, Clone)]
pub struct CurveDivergence {
    pub seed: u64,
    pub capacity_lines: u64,
    pub single_pass: f64,
    pub reference: f64,
}

impl CurveDivergence {
    pub fn describe(&self) -> String {
        format!(
            "seed {} capacity {} lines: single-pass {:.9} vs reference {:.9}",
            self.seed, self.capacity_lines, self.single_pass, self.reference
        )
    }
}

/// Measured-phase miss rate of the reference fully-associative LRU cache
/// at `capacity_lines`: warm accesses fill the stack uncounted, then
/// every post-mark access is a lookup (miss ⇒ fill), exactly the
/// protocol the probe measurement uses.
pub fn reference_miss_rate(trace: &LineTrace, capacity_lines: u32) -> f64 {
    let mut cache = RefCache::with_geometry(
        1,
        capacity_lines,
        Replacement::Lru,
        InsertPolicy::Mru,
        false,
    )
    .without_ownership();
    let mut misses = 0u64;
    let mut measured = 0u64;
    for (i, &line) in trace.lines.iter().enumerate() {
        let in_measure = i >= trace.mark;
        if in_measure {
            measured += 1;
        }
        if !cache.lookup(line, false) {
            if in_measure {
                misses += 1;
            }
            cache.fill(line, false);
        }
    }
    if measured == 0 {
        1.0
    } else {
        misses as f64 / measured as f64
    }
}

/// Line universe of a seeded case (kept small so the full capacity sweep
/// is cheap: the geometries of interest are the ones where the stack
/// actually churns).
fn universe(seed: u64) -> u64 {
    16 + (seed * 7) % 96
}

/// Generate a deterministic adversarial trace: a mix of uniform churn,
/// sequential sweeps longer than the universe (the LRU worst case) and a
/// hot set revisited often (the deep-reuse best case), with the
/// warm/measure mark placed at 30%.
pub fn gen_curve_case(seed: u64, accesses: usize) -> LineTrace {
    gen_case_over(seed, accesses, universe(seed))
}

fn gen_case_over(seed: u64, accesses: usize, u: u64) -> LineTrace {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xC0_FFEE);
    let mut lines = Vec::with_capacity(accesses);
    while lines.len() < accesses {
        match rng.below(3) {
            0 => {
                // Uniform churn.
                for _ in 0..rng.below(40) + 5 {
                    lines.push(rng.below(u));
                }
            }
            1 => {
                // Sequential sweep, wrapping past the universe edge.
                let start = rng.below(u);
                for i in 0..rng.below(2 * u) + 2 {
                    lines.push((start + i) % u);
                }
            }
            _ => {
                // Hot-set hammering over a handful of lines.
                let base = rng.below(u);
                let width = rng.below(6) + 2;
                for _ in 0..rng.below(50) + 5 {
                    lines.push((base + rng.below(width)) % u);
                }
            }
        }
    }
    lines.truncate(accesses);
    let mark = accesses * 3 / 10;
    LineTrace { lines, mark }
}

/// Run one case: single-pass histogram vs the reference cache at every
/// capacity from 0 through past the footprint. Returns the first
/// divergent point.
pub fn check_curve_case(seed: u64, trace: &LineTrace) -> Result<(), CurveDivergence> {
    let hist = StackDistHistogram::compute(trace, 1.0);
    check_capacities(seed, trace, &hist, 0..=hist.distinct_lines + 4)
}

/// The one wide case: a universe past the engine's first table page and
/// first slot window (both 4096), so page allocation, window growth and
/// compaction are all on the locked-step path. The reference cache costs
/// `O(capacity)` an access, so it is held at the capacities around the
/// engine's block, page and footprint edges instead of at every one.
pub fn check_wide_curve_case(seed: u64) -> Result<(), CurveDivergence> {
    let trace = gen_case_over(seed, 30_000, 5000);
    let hist = StackDistHistogram::compute(&trace, 1.0);
    let d = hist.distinct_lines;
    assert!(d > 4096, "the wide case must leave the first page: {d}");
    let edges = [0, 1, 64, 512, 513, 4096, 4097, d - 1, d, d + 1];
    check_capacities(seed, &trace, &hist, edges)
}

fn check_capacities(
    seed: u64,
    trace: &LineTrace,
    hist: &StackDistHistogram,
    capacities: impl IntoIterator<Item = u64>,
) -> Result<(), CurveDivergence> {
    for cap in capacities {
        let fast = hist.miss_rate_at_lines(cap);
        let slow = reference_miss_rate(trace, cap as u32);
        if (fast - slow).abs() > 1e-12 {
            return Err(CurveDivergence {
                seed,
                capacity_lines: cap,
                single_pass: fast,
                reference: slow,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_pass_locksteps_the_reference_cache() {
        for seed in 0..25 {
            let t = gen_curve_case(seed, 800);
            check_curve_case(seed, &t).unwrap_or_else(|d| panic!("{}", d.describe()));
        }
    }

    #[test]
    fn wide_case_locksteps_past_one_page_and_one_window() {
        check_wide_curve_case(1).unwrap_or_else(|d| panic!("{}", d.describe()));
    }

    #[test]
    fn a_planted_off_by_one_is_caught() {
        // Sanity that the check has teeth: evaluating the histogram one
        // capacity off must diverge somewhere on the sweep.
        let t = gen_curve_case(1, 800);
        let hist = StackDistHistogram::compute(&t, 1.0);
        let caught = (1..=hist.distinct_lines).any(|cap| {
            (hist.miss_rate_at_lines(cap - 1) - reference_miss_rate(&t, cap as u32)).abs() > 1e-12
        });
        assert!(caught, "shifted curve should not lockstep the reference");
    }

    #[test]
    fn empty_measurement_phase_agrees_pessimistically() {
        let t = LineTrace {
            lines: vec![1, 2, 3],
            mark: 3,
        };
        assert_eq!(reference_miss_rate(&t, 8), 1.0);
        assert_eq!(
            StackDistHistogram::compute(&t, 1.0).miss_rate_at_lines(8),
            1.0
        );
    }
}
