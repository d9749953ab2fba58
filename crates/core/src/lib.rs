#![forbid(unsafe_code)]
//! # amem-core — the Active Measurement methodology
//!
//! The paper's central idea (*Casas & Bronevetsky, IPDPS 2014*): an
//! application "uses" an amount of a memory resource if taking that amount
//! away degrades its performance. This crate turns that definition into an
//! instrument:
//!
//! 1. [`platform`] — run a workload (MCB, Lulesh, a probe, or any custom
//!    [`platform::Workload`]) under a chosen MPI-style mapping with `k`
//!    interference threads per socket.
//! 2. [`sweep`] — repeat over `k = 0..max`, recording execution time and
//!    counters at each level (the curves of Figs. 7–9 and 11).
//! 3. [`knee`] — find where degradation begins.
//! 4. [`capacity`] / [`bandwidth`] — calibrate what each interference
//!    level leaves available: effective L3 capacity via the probe
//!    inversion of Eq. 4 (Fig. 6), bandwidth via STREAM and Eq. 1.
//! 5. [`estimate`] — combine 3 and 4 into per-process resource-use
//!    intervals (Figs. 10 and 12).
//! 6. [`predict`] — interpolate the degradation-vs-resource curve to
//!    predict performance on machines with less cache or bandwidth (the
//!    paper's Exascale motivation).
//! 7. [`report`] — ASCII tables, CSV and JSON for every result.
//!
//! Measurements execute through the [`executor`]: a content-addressed
//! measurement cache (in-memory + on-disk, schema-versioned) with
//! in-flight deduplication, sitting on top of the [`platform::Platform`]
//! trait ([`platform::SimPlatform`], the simulator). Failures come
//! back as typed [`error::AmemError`]s. A robustness layer wraps every
//! run: [`trial::TrialPolicy`] governs repeated trials (MAD outlier
//! rejection), retries and wall-clock budgets; [`fault::FaultyPlatform`] deterministically
//! injects timeouts/NaNs/noise/errors to prove the pipeline degrades
//! gracefully instead of panicking.
//!
//! Extensions beyond the paper: [`mrc`] measures full miss-ratio curves
//! (and tests Hartstein's √2 rule, the paper's ref \[9\]) and [`noise`]
//! quantifies barrier amplification of interference-induced jitter (refs
//! \[11\]\[18\]).

pub mod advisor;
pub mod bandwidth;
mod cache;
pub mod capacity;
pub mod cli;
pub mod curve;
pub mod error;
pub mod estimate;
pub mod executor;
pub mod fault;
pub mod figures;
pub mod knee;
pub mod manifest;
pub mod mrc;
pub mod multinode;
pub mod noise;
pub mod platform;
pub mod predict;
pub mod report;
pub mod sweep;
pub mod trial;

pub use bandwidth::BandwidthMap;
pub use cache::{sweep_stale_tmp, write_atomic, Resident, STALE_TMP_AGE};
pub use capacity::CapacityMap;
pub use curve::{CurveMode, CurveOpts, CurveQuality, CurveRequest, CURVE_SCHEMA_VERSION};
pub use error::AmemError;
pub use estimate::ResourceInterval;
pub use executor::{CacheStats, CurveCacheStats, Executor, CACHE_SCHEMA_VERSION};
pub use fault::{FaultSpec, FaultyPlatform};
pub use knee::Knee;
pub use manifest::{RunManifest, SCHEMA_VERSION};
pub use mrc::MissRatioCurve;
pub use platform::{Measurement, Platform, SimPlatform, Workload};
pub use predict::DegradationModel;
pub use sweep::{Sweep, SweepPoint, SweepRequest};
pub use trial::{QualityStats, TrialPolicy, TrialQuality};

/// `f` over every item, fanned out over `std::thread::scope` workers;
/// results in input order.
///
/// The one fan-out behind every grid of independent runs: sweep points,
/// capacity-grid batches, multi-node runs, conformance seeds. Items are
/// coarse (a simulation or a curve pass each), so one mutex-guarded
/// queue is the whole scheduler. The
/// worker count is `$RAYON_NUM_THREADS` when it parses as a positive
/// integer, otherwise the available cores, and never more than the
/// items; one worker runs the items inline, in order. Several workers
/// claim items from the back of the queue. A panic in `f` reaches the
/// caller once every worker has stopped.
pub fn par_map<I: Send, R: Send>(
    items: impl IntoIterator<Item = I>,
    f: impl Fn(I) -> R + Sync,
) -> Vec<R> {
    let items: Vec<I> = items.into_iter().collect();
    let workers = worker_count(
        items.len(),
        std::env::var("RAYON_NUM_THREADS").ok().as_deref(),
    );
    par_map_on(workers, items, &f)
}

/// [`par_map`] on exactly `workers` threads.
fn par_map_on<I: Send, R: Send>(
    workers: usize,
    items: Vec<I>,
    f: &(impl Fn(I) -> R + Sync),
) -> Vec<R> {
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    const UNPOISONED: &str = "no lock is held while `f` runs";
    let n = items.len();
    let queue = std::sync::Mutex::new(items.into_iter().enumerate().collect::<Vec<_>>());
    let results = std::sync::Mutex::new((0..n).map(|_| None).collect::<Vec<Option<R>>>());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                // Its own statement, so the queue guard drops before `f`.
                let next = queue.lock().expect(UNPOISONED).pop();
                let Some((i, item)) = next else { break };
                let r = f(item);
                results.lock().expect(UNPOISONED)[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .expect(UNPOISONED)
        .into_iter()
        .map(|r| r.expect("a worker ran every queued item"))
        .collect()
}

/// Workers for `n` items: `requested` (`$RAYON_NUM_THREADS`) when it is
/// a positive integer, otherwise the available cores; never more than
/// `n`.
fn worker_count(n: usize, requested: Option<&str>) -> usize {
    requested
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&w| w > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .min(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn map_collect_preserves_order() {
        let input: Vec<u64> = (0..1000).collect();
        let out = par_map(&input, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn range_into_par_iter() {
        let out = par_map(0..17usize, |i| i * i);
        assert_eq!(out.len(), 17);
        assert_eq!(out[16], 256);
    }

    #[test]
    fn empty_input() {
        let out = par_map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    /// On the pure function: setting the variable here would race with
    /// the multi-thread test below, which runs in this same process.
    #[test]
    fn rayon_num_threads_sets_the_worker_count() {
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        assert_eq!(worker_count(64, Some("1")), 1);
        assert_eq!(worker_count(64, Some(" 3 ")), 3);
        assert_eq!(worker_count(2, Some("8")), 2, "never more than the items");
        for unset in [None, Some("0"), Some("many"), Some("")] {
            assert_eq!(worker_count(64, unset), cores.min(64), "{unset:?}");
        }
    }

    #[test]
    fn actually_runs_on_multiple_threads_when_available() {
        let seen = Mutex::new(HashSet::new());
        par_map(0..64usize, |_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        let n = seen.lock().unwrap().len();
        let workers = worker_count(64, std::env::var("RAYON_NUM_THREADS").ok().as_deref());
        assert!(n >= 1 && n <= workers.max(1));
        if workers > 1 {
            assert!(
                n > 1,
                "expected multi-threaded execution, saw {n} thread(s)"
            );
        }
    }

    #[test]
    fn a_panicking_item_panics_the_caller() {
        let run = std::panic::catch_unwind(|| {
            par_map_on(2, (0..8u32).collect(), &|x| {
                assert_ne!(x, 5, "item 5 fails");
                x
            })
        });
        assert!(run.is_err(), "the panic must reach the caller");
    }

    /// Workers pop the queue, so the two workers' first claims are the
    /// last two items; which of the two starts first is a race.
    #[test]
    fn two_workers_claim_from_the_back() {
        let started = Mutex::new(Vec::new());
        // The first two items wait for each other, so neither worker
        // claims again before both first claims are recorded.
        let both = std::sync::Barrier::new(2);
        let out = par_map_on(2, (0..10usize).collect(), &|i| {
            let nth = {
                let mut s = started.lock().unwrap();
                s.push(i);
                s.len()
            };
            if nth <= 2 {
                both.wait();
            }
            i
        });
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        let mut first = started.into_inner().unwrap()[..2].to_vec();
        first.sort_unstable();
        assert_eq!(first, [8, 9]);
    }
}
