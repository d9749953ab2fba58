//! The four workloads. Each is a fixed list of work per *round*: a round
//! is sized by operation counts, never by time, so two builds of the
//! program do identical work and only the time differs.
//!
//! | workload          | exercises                                  | bypasses                    |
//! |-------------------|--------------------------------------------|-----------------------------|
//! | `cold_sweep`      | `amem-sim` engine + substrate, QoS loop    | disk cache, daemon, wire    |
//! | `curve_calibrate` | stream generation + stack-distance passes  | the simulated `Machine`     |
//! | `served_warm`     | executor hit paths, daemon, wire protocol  | the simulator (0 runs)      |
//! | `served_cold`     | store/dedup/journal paths over simulation  | nothing: the write-side mix |

use std::collections::BTreeMap;
use std::path::PathBuf;

use amem_core::CacheStats;

use crate::harness::{SimCounts, Tally};
use crate::spans::Recorder;

pub mod cold_sweep;
pub mod curve_calibrate;
pub mod served;

pub const NAMES: [&str; 4] = [
    "cold_sweep",
    "curve_calibrate",
    "served_warm",
    "served_cold",
];

/// What a workload is built from.
pub struct Ctx {
    pub seed: u64,
    /// Directory for cache and journal files; inside the checkout.
    pub scratch: PathBuf,
    /// Tiny operation counts: checks only, timings meaningless.
    pub quick: bool,
}

/// One timed round.
#[derive(Default)]
pub struct Round {
    /// Host seconds of the timed section.
    pub wall_s: f64,
    pub tally: Tally,
    /// Timings specific to this workload, by metric name (median across
    /// rounds is reported).
    pub timings: BTreeMap<&'static str, f64>,
    /// Exact simulated work done in the round.
    pub sim: SimCounts,
    /// How the executors satisfied the round's requests.
    pub cache: CacheStats,
    /// Digest of every result the round produced. Rounds do the same
    /// work on a deterministic program, so digests must all be equal.
    pub digest: String,
}

pub trait Workload: Sized {
    /// Everything before the first timed round: input generation,
    /// reference results, cache population, first daemon start. Its
    /// duration is `setup_s`. Checks made here land in the tally.
    fn setup(ctx: &Ctx, tally: &mut Tally) -> Self;

    /// Run round `index` and check its outputs (outside the timed calls).
    fn round(&mut self, ctx: &Ctx, rec: &mut Recorder, index: usize) -> Round;

    /// Error of the model against the paper figures this workload
    /// reproduces, in percent; `None` when it reproduces none.
    fn model_err_pct(&self) -> Option<f64> {
        None
    }
}

/// Fold the executor's curve counters into the per-request counters:
/// a curve pass is a fresh computation just as a simulation is.
pub fn fold_curves(stats: &CacheStats) -> CacheStats {
    let c = stats.curves();
    CacheStats {
        sim_runs: stats.sim_runs + c.runs,
        mem_hits: stats.mem_hits + c.mem_hits,
        disk_hits: stats.disk_hits + c.disk_hits,
        dedup_hits: stats.dedup_hits + c.dedup_hits,
        stores: stats.stores + c.stores,
        curves: None,
    }
}
