//! Order statistics for round timings and latency samples.
//!
//! Two definitions, each where its consumer needs it: quartiles follow
//! Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
//! method), because that is what the spread between runs is judged by;
//! latency percentiles are nearest-rank, so a reported p95 is always a
//! latency some request actually saw.

/// Quartiles and median of a set of per-round values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// The quartile on the good side of the distribution: the first for
    /// a time, the third for a rate. Interference from other tenants of
    /// the host only ever makes a round slower, and it comes in bursts
    /// that outlast a run, so the median of a run's rounds moves with the
    /// neighbours (measured: 25% between back-to-back runs of unchanged
    /// code) while the good quartile — what a round costs when the host
    /// is quiet — moves a third as much. A change to the program shifts
    /// every round, so it shifts this quartile too.
    pub fn steady(&self, higher_is_better: bool) -> f64 {
        if higher_is_better {
            self.q3
        } else {
            self.q1
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one round.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles by the exclusive method: the i-th cut point of n sorted
/// values sits at position `i * (n + 1) / 4`, interpolated linearly and
/// clamped to the data. One value is its own quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of no values");
    let v = sorted(values);
    let n = v.len();
    let cut = |i: usize| -> f64 {
        if n == 1 {
            return v[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n,
        min: v[0],
        q1: cut(1),
        median: median(&v),
        q3: cut(3),
        max: v[n - 1],
    }
}

/// Nearest-rank percentile of an already sorted slice (`p` in 0..=100).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no values");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 3.0, 1.0, 4.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([2, 4, 6], n=4) == [2.0, 4.0, 6.0]
        let s = summarize(&[2.0, 4.0, 6.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 6.0));
    }

    #[test]
    fn steady_value_is_the_quartile_on_the_good_side() {
        let s = summarize(&[5.0, 3.0, 1.0, 4.0, 2.0]);
        assert_eq!((s.min, s.max), (1.0, 5.0));
        assert_eq!(s.steady(false), 1.5);
        assert_eq!(s.steady(true), 4.5);
        // Three repetitions: the good quartile is the best of them.
        assert_eq!(summarize(&[0.9, 0.7, 0.8]).steady(false), 0.7);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 95.0), 95.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[4.0, 8.0], 50.0), 4.0);
        assert_eq!(percentile_sorted(&[4.0, 8.0], 51.0), 8.0);
    }
}
