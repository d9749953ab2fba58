//! What every workload shares: a clean environment, seeded inputs,
//! failure accounting, exact simulator counts, and process memory.

use std::path::{Path, PathBuf};

use amem_sim::rng::SplitMix64;
use amem_sim::{MachineConfig, RunReport};

/// Settings of the measured program that a stray environment variable
/// could change: engine lane threads, worker counts, the default cache
/// directory, progress logging, the metrics gate and the fast-lane
/// horizon. The harness removes them all, so every run measures the
/// program's defaults.
pub const SCRUBBED_ENV: [&str; 7] = [
    "AMEM_LANES",
    "RAYON_NUM_THREADS",
    "AMEM_JOBS",
    "AMEM_CACHE_DIR",
    "AMEM_PROGRESS",
    "AMEM_METRICS",
    "AMEM_HORIZON",
];

/// Remove [`SCRUBBED_ENV`] from this process. Call before any thread
/// starts.
pub fn scrub_env() {
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
}

/// The machine every workload simulates: the scale `perfbase` and the
/// repo's golden files use.
pub fn machine() -> MachineConfig {
    MachineConfig::xeon20mb().scaled(0.0625)
}

/// Independent sub-seeds of the run's `--seed`, one per named purpose,
/// so adding a consumer never shifts the others' inputs.
pub fn sub_seed(seed: u64, purpose: &str) -> u64 {
    let tag = amem_sim::fingerprint::fnv1a(purpose.as_bytes());
    SplitMix64::new(seed ^ tag).next_u64()
}

/// Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// Operations attempted and failed. An operation is one request, sweep
/// point, curve or invariant; it fails when it errors, is refused, or
/// its output check does not hold.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    const MAX_NOTES: usize = 8;

    /// Count one operation; `what` describes it if it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < Self::MAX_NOTES {
                self.notes.push(what());
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = Self::MAX_NOTES.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }
}

/// Exact simulated-work counts summed over run reports. Deterministic:
/// they repeat exactly between rounds, runs and hosts, and move only
/// when the model or the inputs change.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimCounts {
    pub runs: u64,
    pub cycles: u64,
    /// Loads + stores retired by every job, interference threads included.
    pub accesses: u64,
    /// Hierarchy events per the reports: L1/L2/L3 hits and misses, DRAM
    /// demand lines, prefetches issued and back-invalidations.
    pub level_lookups: u64,
    pub l3_hits: u64,
    pub l3_misses: u64,
    pub dram_bytes: u64,
}

impl SimCounts {
    pub fn add_report(&mut self, report: &RunReport, line_bytes: u32) {
        self.runs += 1;
        self.cycles += report.wall_cycles;
        for job in &report.jobs {
            let c = &job.counters;
            self.accesses += c.accesses();
            self.level_lookups += c.l1_hits
                + c.l1_misses
                + c.l2_hits
                + c.l2_misses
                + c.l3_hits
                + c.l3_misses
                + c.dram_demand_lines
                + c.prefetches_issued
                + c.back_invalidations;
            self.l3_hits += c.l3_hits;
            self.l3_misses += c.l3_misses;
        }
        for socket in &report.sockets {
            self.dram_bytes += socket.dram.total_bytes(line_bytes);
        }
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A directory of this run's own under the benchmark's output directory,
/// removed again when dropped.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create(out: &Path, label: &str) -> std::io::Result<Self> {
        let dir = out.join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// A fresh, empty sub-directory.
    pub fn subdir(&self, name: &str) -> PathBuf {
        let dir = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch sub-directory");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrubbing_removes_every_listed_variable() {
        for var in SCRUBBED_ENV {
            std::env::set_var(var, "7");
        }
        std::env::set_var("AMEM_BENCH_UNRELATED", "kept");
        scrub_env();
        for var in SCRUBBED_ENV {
            assert!(std::env::var_os(var).is_none(), "{var} survived");
        }
        for named in [
            "AMEM_LANES",
            "RAYON_NUM_THREADS",
            "AMEM_JOBS",
            "AMEM_CACHE_DIR",
            "AMEM_PROGRESS",
        ] {
            assert!(SCRUBBED_ENV.contains(&named));
        }
        assert_eq!(std::env::var("AMEM_BENCH_UNRELATED").unwrap(), "kept");
    }

    #[test]
    fn sub_seeds_depend_on_seed_and_purpose() {
        assert_eq!(sub_seed(1, "probe"), sub_seed(1, "probe"));
        assert_ne!(sub_seed(1, "probe"), sub_seed(2, "probe"));
        assert_ne!(sub_seed(1, "probe"), sub_seed(1, "order"));
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(9, &mut SplitMix64::new(3));
        let b = permutation(9, &mut SplitMix64::new(3));
        let c = permutation(9, &mut SplitMix64::new(4));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn tally_counts_failures_and_keeps_a_few_notes() {
        let mut t = Tally::default();
        t.op(true, || unreachable!());
        for i in 0..20 {
            t.op(false, || format!("bad {i}"));
        }
        assert_eq!((t.attempted, t.failed), (21, 20));
        assert_eq!(t.notes.len(), 8);
        let mut u = Tally::default();
        u.op(false, || "other".into());
        t.merge(u);
        assert_eq!((t.attempted, t.failed, t.notes.len()), (22, 21, 8));
    }
}
