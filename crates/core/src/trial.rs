//! Noise-aware trial statistics and retry policy for the run path.
//!
//! Active Measurement infers resource consumption from *small*
//! performance deltas (a few percent of degradation separates "fits in
//! cache" from "doesn't"), so a single noisy, stalled, or NaN-poisoned
//! run corrupts the knee detection and the Eq. 4 inversion. This module
//! supplies the screening layer the executor wraps around every platform
//! run:
//!
//! * [`TrialPolicy`] — how many repeated trials to run per measurement,
//!   how many times to retry a transiently failing run, and the per-run
//!   wall-clock budget.
//! * [`robust_summary`] — the aggregation itself: sort (total order, NaN
//!   screened), median, MAD outlier rejection, mean/std/CI of the
//!   surviving samples. Deterministic and permutation-invariant — the
//!   property tests shuffle inputs and demand bit-identical summaries.
//! * [`TrialQuality`] — the per-measurement quality record (trial count,
//!   CI width, rejected outliers, retries) carried on
//!   [`crate::platform::Measurement`] and surfaced in sweep CSVs
//!   (`--ci`) and run manifests.
//! * [`QualityStats`] — executor-wide counters for the `[quality]`
//!   summary line and the manifest.
//!
//! The default policy is a strict pass-through (one trial, no retries,
//! no timeout): the executor's trial loop then runs the platform once and
//! attaches no quality record, so outputs and cache keys are those of a
//! plain platform run.

use serde::{Deserialize, Serialize};

/// How a measurement's trials, retries, and timeouts are governed.
///
/// `Default` is pass-through: 1 trial, 0 retries, no timeout — the
/// executor then calls the platform exactly once and attaches no quality
/// record, so default outputs are those of a plain platform run. The
/// policy deliberately never enters the measurement cache key: on a
/// deterministic platform repeated trials are bit-identical, so entries
/// recorded under any policy are quality-equivalent, and
/// nondeterministic platforms are never cached at all.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrialPolicy {
    /// Trials per measurement (at least 1).
    pub trials: usize,
    /// Retries per trial on a *transient* error
    /// ([`crate::AmemError::is_transient`]); structural errors are never
    /// retried.
    pub retries: usize,
    /// Post-hoc wall-clock budget per platform run, in milliseconds. A
    /// run that comes back after the budget is classified
    /// [`crate::AmemError::Timeout`] and its sample discarded. (The run
    /// is not preempted — platforms are synchronous — so this screens
    /// stalled samples rather than bounding total wall time.)
    pub timeout_ms: Option<u64>,
}

impl Default for TrialPolicy {
    fn default() -> Self {
        Self::fixed(1)
    }
}

impl TrialPolicy {
    /// A fixed-count policy: exactly `n` trials (at least 1), no retries,
    /// no timeout.
    pub fn fixed(n: usize) -> Self {
        Self {
            trials: n.max(1),
            retries: 0,
            timeout_ms: None,
        }
    }

    /// Set the per-trial transient-error retry budget.
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Set the per-run wall-clock budget.
    pub fn with_timeout_ms(mut self, ms: u64) -> Self {
        self.timeout_ms = Some(ms);
        self
    }

    /// Whether this policy is the do-nothing default: one trial, no
    /// retries, no timeout. A measurement under it carries no
    /// [`TrialQuality`] and counts no trials.
    pub fn is_passthrough(&self) -> bool {
        self.trials <= 1 && self.retries == 0 && self.timeout_ms.is_none()
    }
}

/// Robust aggregate of one measurement's trial samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TrialSummary {
    /// Finite samples supplied.
    pub n: usize,
    /// Samples surviving MAD rejection (always ≥ 1).
    pub used: usize,
    /// Samples rejected as outliers.
    pub rejected: usize,
    /// Median of the finite samples (lower-of-two for even counts, so
    /// the median is always an actually-observed sample).
    pub median: f64,
    /// Mean of the surviving samples.
    pub mean: f64,
    /// Sample standard deviation of the surviving samples (0 for 1).
    pub std: f64,
    /// 95% confidence half-width of the mean (normal approximation).
    pub ci95_half: f64,
}

impl TrialSummary {
    /// CI half-width relative to the mean (0 when the mean is 0).
    pub fn rel_ci(&self) -> f64 {
        if self.mean.abs() <= f64::MIN_POSITIVE {
            0.0
        } else {
            self.ci95_half / self.mean.abs()
        }
    }
}

/// Aggregate trial samples: screen non-finite values, reject MAD
/// outliers, and summarize the survivors. Returns `None` when no sample
/// is finite. For any finite input set every summary statistic is
/// finite, and the result is invariant under permutation of `xs` (the
/// samples are sorted with a total order before any arithmetic).
pub fn robust_summary(xs: &[f64], mad_k: f64) -> Option<TrialSummary> {
    let mut finite: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if finite.is_empty() {
        return None;
    }
    finite.sort_unstable_by(f64::total_cmp);
    let n = finite.len();
    let median = finite[(n - 1) / 2];

    // MAD with a relative floor: a degenerate spread (every sample
    // identical, as on a deterministic simulator) must not reject
    // samples that differ from the median only by rounding.
    let mut dev: Vec<f64> = finite.iter().map(|x| (x - median).abs()).collect();
    dev.sort_unstable_by(f64::total_cmp);
    let mad = dev[(n - 1) / 2];
    let floor = median.abs() * 1e-9;
    let threshold = mad_k.max(1.0) * mad.max(floor) + floor;

    let inliers: Vec<f64> = finite
        .iter()
        .copied()
        .filter(|x| (x - median).abs() <= threshold)
        .collect();
    // The median always survives its own threshold, so `used >= 1`.
    let used = inliers.len();
    let mean = inliers.iter().sum::<f64>() / used as f64;
    let std = if used > 1 {
        let var = inliers.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (used - 1) as f64;
        var.sqrt()
    } else {
        0.0
    };
    let ci95_half = if used > 1 {
        1.96 * std / (used as f64).sqrt()
    } else {
        0.0
    };
    Some(TrialSummary {
        n,
        used,
        rejected: n - used,
        median,
        mean,
        std,
        ci95_half,
    })
}

/// The quality record one measurement carries when it ran under a
/// non-pass-through policy: how many trials it took, what was rejected,
/// and how tight the result is. Absent (`None` on
/// [`crate::platform::Measurement`]) for default single-trial runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialQuality {
    /// Valid (finite, in-budget) trial samples collected.
    pub trials: usize,
    /// Samples rejected by MAD screening.
    pub rejected_outliers: usize,
    /// Attempts repeated after a transient failure.
    pub retries: usize,
    /// Attempts that exceeded the wall-clock budget.
    pub timeouts: usize,
    /// Samples discarded for NaN/inf headline statistics.
    pub non_finite: usize,
    /// Mean seconds over the surviving samples.
    pub mean_seconds: f64,
    /// Sample standard deviation of the surviving samples.
    pub std_seconds: f64,
    /// 95% CI half-width relative to the mean (0 for a single trial).
    pub ci95_rel: f64,
    /// True when at least one whole trial was lost after exhausting its
    /// retries — the measurement stands on fewer samples than asked.
    pub degraded: bool,
}

/// Executor-wide robustness counters: everything the retry/trial layer
/// did across a run, for the `[quality]` harness line and the manifest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QualityStats {
    /// Platform runs executed as repeated trials (0 under pass-through).
    pub trials: u64,
    /// Attempts repeated after a transient failure.
    pub retries: u64,
    /// Attempts that exceeded the wall-clock budget.
    pub timeouts: u64,
    /// Degradable typed errors observed other than timeouts and
    /// non-finite results: injected faults, cache I/O, platform panics.
    /// Structural errors (an impossible mapping) are not faults.
    pub faults: u64,
    /// Samples discarded for non-finite headline statistics.
    pub non_finite: u64,
    /// Samples rejected by MAD outlier screening.
    pub outliers_rejected: u64,
    /// Sweep points abandoned after exhausting retries (degraded, not
    /// aborted).
    pub degraded_points: u64,
}

impl QualityStats {
    /// Whether anything at all happened (nothing to report otherwise).
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Accumulate another run's counters (manifest aggregation).
    pub fn merge(&mut self, o: &QualityStats) {
        self.trials += o.trials;
        self.retries += o.retries;
        self.timeouts += o.timeouts;
        self.faults += o.faults;
        self.non_finite += o.non_finite;
        self.outliers_rejected += o.outliers_rejected;
        self.degraded_points += o.degraded_points;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_passthrough() {
        let p = TrialPolicy::default();
        assert!(p.is_passthrough());
        assert!(!TrialPolicy::fixed(3).is_passthrough());
        assert!(!TrialPolicy::default().with_retries(2).is_passthrough());
        assert!(!TrialPolicy::default().with_timeout_ms(100).is_passthrough());
        assert!(TrialPolicy::fixed(0).is_passthrough(), "clamped to 1");
    }

    #[test]
    fn summary_of_identical_samples_rejects_nothing() {
        let s = robust_summary(&[2.0, 2.0, 2.0, 2.0], 3.5).unwrap();
        assert_eq!(s.used, 4);
        assert_eq!(s.rejected, 0);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.rel_ci(), 0.0);
    }

    #[test]
    fn summary_rejects_gross_outliers() {
        // Nine tight samples and one stall: the stall must be rejected.
        let mut xs = vec![1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0];
        xs.push(50.0);
        let s = robust_summary(&xs, 3.5).unwrap();
        assert_eq!(s.rejected, 1, "{s:?}");
        assert!(s.mean < 1.05, "{s:?}");
        assert!((s.median - 1.0).abs() < 0.02);
    }

    #[test]
    fn summary_screens_non_finite() {
        let s = robust_summary(&[1.0, f64::NAN, 1.0, f64::INFINITY], 3.5).unwrap();
        assert_eq!(s.n, 2, "only the finite samples count");
        assert_eq!(s.mean, 1.0);
        assert!(robust_summary(&[f64::NAN], 3.5).is_none());
    }

    #[test]
    fn summary_is_permutation_invariant() {
        let a = robust_summary(&[3.0, 1.0, 2.0, 9.0, 2.5], 3.5).unwrap();
        let b = robust_summary(&[9.0, 2.5, 1.0, 3.0, 2.0], 3.5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn quality_stats_merge_and_emptiness() {
        let mut a = QualityStats::default();
        assert!(a.is_empty());
        let b = QualityStats {
            trials: 3,
            retries: 1,
            degraded_points: 2,
            ..Default::default()
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.trials, 6);
        assert_eq!(a.degraded_points, 4);
        assert!(!a.is_empty());
        let back: QualityStats = serde_json::from_str(&serde_json::to_string(&a).unwrap()).unwrap();
        assert_eq!(back, a);
    }
}
