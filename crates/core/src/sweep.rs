//! Interference sweeps: the x-axes of Figs. 7–9 and 11.
//!
//! A sweep runs a workload at interference levels `0..=max` (skipping
//! physically impossible combinations) and records time, miss rate and
//! bandwidth at each level. All points — across *all* sweeps of a batch
//! ([`run_sweeps`]) — are flattened into one [`par_map`] fan-out, and
//! each point goes through the [`Executor`], so shared points (most
//! obviously the zero-interference baselines) are simulated once and
//! served from cache everywhere else. Points the executor already holds
//! in memory skip the fan-out and are answered on the calling thread:
//! re-running a warm sweep spawns nothing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use amem_interfere::{InterferenceKind, InterferenceMix};
use serde::{Deserialize, Serialize};

use crate::cache::Resident;
use crate::error::AmemError;
use crate::executor::Executor;
use crate::par_map;
use crate::platform::{Measurement, Workload};
use crate::trial::TrialQuality;

/// Whether sweep progress lines should be printed to stderr. Off by
/// default so test output stays clean; set `AMEM_PROGRESS=1` to watch
/// long Fig. 9-style sweeps advance level by level.
fn progress_enabled() -> bool {
    std::env::var("AMEM_PROGRESS")
        .map(|v| v != "0" && !v.is_empty())
        .unwrap_or(false)
}

/// Estimated seconds left after `done` of `done + remaining` points took
/// `elapsed` seconds: the rolling mean per-point wall time times the
/// remaining count. Throughput-based, so parallel execution is accounted
/// for automatically (N workers finish points N times faster).
fn eta_secs(elapsed: f64, done: usize, remaining: usize) -> f64 {
    if done == 0 {
        return f64::NAN;
    }
    elapsed / done as f64 * remaining as f64
}

/// One sweep point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Interference threads per socket at this point.
    pub count: usize,
    pub seconds: f64,
    /// Degradation vs the zero-interference baseline, in percent.
    pub degradation_pct: f64,
    pub l3_miss_rate: f64,
    pub app_bandwidth_gbs: f64,
    /// Trial statistics when this point ran under a non-default
    /// [`crate::TrialPolicy`] (`None` for plain single-trial points).
    pub quality: Option<TrialQuality>,
}

/// A level that could not be measured: it kept failing transiently until
/// its retries ran out. Recorded instead of aborting the whole sweep —
/// "graceful degradation" in the run manifest's sense.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DegradedPoint {
    /// Interference threads per socket at the failed level.
    pub count: usize,
    /// Display form of the final error.
    pub error: String,
}

/// A full sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sweep {
    pub workload: String,
    pub kind: InterferenceKind,
    pub per_processor: usize,
    pub points: Vec<SweepPoint>,
    /// Levels that exhausted their retries and were dropped. Empty on a
    /// healthy run; a non-empty list marks the sweep *degraded* — usable,
    /// but standing on fewer points than requested.
    pub degraded: Vec<DegradedPoint>,
}

impl Sweep {
    /// The zero-interference baseline time.
    pub fn baseline_seconds(&self) -> Result<f64, AmemError> {
        self.points
            .first()
            .map(|p| p.seconds)
            .ok_or_else(|| AmemError::EmptySweep {
                workload: self.workload.clone(),
            })
    }

    /// Degradation at a given interference count, if measured.
    pub fn degradation_at(&self, count: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.count == count)
            .map(|p| p.degradation_pct)
    }

    /// Highest interference level that was physically placeable.
    pub fn max_count(&self) -> usize {
        self.points.last().map(|p| p.count).unwrap_or(0)
    }

    /// Whether any requested level was dropped after exhausting retries.
    pub fn is_degraded(&self) -> bool {
        !self.degraded.is_empty()
    }
}

/// One sweep a batch should measure: `workload` at `per_processor` ranks
/// per socket, under `kind` interference from 0 to `max_count` threads.
pub struct SweepRequest<'a> {
    pub workload: &'a dyn Workload,
    pub per_processor: usize,
    pub kind: InterferenceKind,
    pub max_count: usize,
}

/// Sweep `workload` under `kind` interference from 0 to `max_count`
/// threads per socket (inclusive), at the given mapping.
pub fn run_sweep(
    exec: &Executor,
    workload: &dyn Workload,
    per_processor: usize,
    kind: InterferenceKind,
    max_count: usize,
) -> Result<Sweep, AmemError> {
    let mut sweeps = run_sweeps(
        exec,
        &[SweepRequest {
            workload,
            per_processor,
            kind,
            max_count,
        }],
    )?;
    Ok(sweeps.remove(0))
}

/// Run a *batch* of sweeps through one parallel pool.
///
/// Every feasible `(sweep, level)` pair becomes one task; the executor
/// deduplicates identical points across sweeps (two sweeps of the same
/// workload and mapping share a single baseline simulation, even when
/// they target different resources, because the zero mix is
/// kind-independent). Points come back in order within each sweep.
pub fn run_sweeps(exec: &Executor, requests: &[SweepRequest]) -> Result<Vec<Sweep>, AmemError> {
    // Flatten all feasible points of all sweeps into one task list.
    let mut tasks: Vec<(usize, usize)> = Vec::new(); // (request index, level)
    for (ri, req) in requests.iter().enumerate() {
        tasks.extend(feasible_levels(exec, req)?.into_iter().map(|k| (ri, k)));
    }
    let batch = Batch::start(requests, tasks.len());
    // A point already in the executor's memory tier needs no worker: it
    // is taken here, on the calling thread, from the lookup that found
    // it, and only the rest fan out. A fully cached batch spawns no
    // thread at all.
    let mut results = Vec::with_capacity(tasks.len());
    let mut cold = Vec::new();
    for (ri, k) in tasks {
        let req = &requests[ri];
        let mix = InterferenceMix::of_kind(req.kind, k);
        match exec.resident(req.workload, req.per_processor, &[mix]) {
            Some(hit) => results.push(batch.point(ri, k, || Ok(hit.take().remove(0)))),
            None => cold.push((ri, k)),
        }
    }
    results.extend(par_map(cold, |(ri, k)| {
        let req = &requests[ri];
        let mix = InterferenceMix::of_kind(req.kind, k);
        batch.point(ri, k, || exec.run(req.workload, req.per_processor, mix))
    }));
    batch.finish();
    requests
        .iter()
        .enumerate()
        .map(|(ri, req)| assemble(exec, req, results.iter().filter(|(i, ..)| *i == ri)))
        .collect()
}

/// A sweep whose every feasible level is in the executor's memory tier,
/// fetched by [`resident_sweep`] and not yet counted.
pub struct ResidentSweep<'a> {
    exec: &'a Executor,
    req: &'a SweepRequest<'a>,
    levels: Vec<usize>,
    points: Resident<'a, Measurement>,
}

/// `req` answered from the executor's memory tier alone: every feasible
/// level's measurement, fetched in one lookup of one key a level, or
/// `None` when any level is missing (or the mapping has none). Nothing is
/// counted until [`ResidentSweep::take`], so a caller may still decline
/// it — the serve daemon's frontends do when the tenant's quota refuses.
pub fn resident_sweep<'a>(
    exec: &'a Executor,
    req: &'a SweepRequest<'a>,
) -> Option<ResidentSweep<'a>> {
    let levels = feasible_levels(exec, req).ok()?;
    let mixes: Vec<InterferenceMix> = levels
        .iter()
        .map(|&k| InterferenceMix::of_kind(req.kind, k))
        .collect();
    let points = exec.resident(req.workload, req.per_processor, &mixes)?;
    Some(ResidentSweep {
        exec,
        req,
        levels,
        points,
    })
}

impl ResidentSweep<'_> {
    /// The sweep [`run_sweep`] returns for the same request, built by the
    /// same per-point bookkeeping and assembly: one memory hit a level.
    pub fn take(self) -> Sweep {
        let batch = Batch::start(std::slice::from_ref(self.req), self.levels.len());
        let results: Vec<_> = self
            .levels
            .into_iter()
            .zip(self.points.take())
            .map(|(k, m)| batch.point(0, k, || Ok(m)))
            .collect();
        batch.finish();
        assemble(self.exec, self.req, results.iter()).expect("every level is a measurement")
    }
}

/// The placeable interference levels of one sweep; a sweep whose k=0 is
/// already rejected has an invalid mapping and is refused.
fn feasible_levels(exec: &Executor, req: &SweepRequest) -> Result<Vec<usize>, AmemError> {
    let feasible: Vec<usize> = (0..=req.max_count)
        .filter(|&k| exec.feasible(req.workload, req.per_processor, k))
        .collect();
    if feasible.is_empty() {
        return Err(AmemError::EmptySweep {
            workload: req.workload.name(),
        });
    }
    Ok(feasible)
}

type PointResult = (usize, usize, Result<Arc<Measurement>, AmemError>);

/// The per-point bookkeeping of one batch — metrics and progress lines —
/// wherever its points come from.
struct Batch<'a> {
    requests: &'a [SweepRequest<'a>],
    total: usize,
    done: AtomicUsize,
    progress: bool,
    metrics_on: bool,
    started: std::time::Instant,
}

impl<'a> Batch<'a> {
    fn start(requests: &'a [SweepRequest<'a>], total: usize) -> Self {
        let metrics_on = amem_metrics::enabled();
        if metrics_on {
            let reg = amem_metrics::global();
            reg.counter("amem_sweep_batches_total", &[]).inc();
            reg.gauge("amem_sweep_queue_depth", &[]).set(total as i64);
        }
        Self {
            requests,
            total,
            done: AtomicUsize::new(0),
            progress: progress_enabled(),
            metrics_on,
            started: std::time::Instant::now(),
        }
    }

    /// Measure level `k` of request `ri` with `measure`, recording it.
    fn point(
        &self,
        ri: usize,
        k: usize,
        measure: impl FnOnce() -> Result<Arc<Measurement>, AmemError>,
    ) -> PointResult {
        let req = &self.requests[ri];
        let point_started = std::time::Instant::now();
        let res = if self.metrics_on {
            // Grid-namespace phase: which sweep level this wall time
            // belongs to (overlaps the leaf phases inside the run).
            let _cell = amem_metrics::phase(&format!("grid/sweep/{:?} k={}", req.kind, k));
            let inflight = amem_metrics::global().gauge("amem_sweep_points_inflight", &[]);
            inflight.inc();
            let res = measure();
            inflight.dec();
            res
        } else {
            measure()
        };
        let n = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let remaining = self.total - n;
        if self.metrics_on {
            let reg = amem_metrics::global();
            reg.gauge("amem_sweep_queue_depth", &[])
                .set(remaining as i64);
            reg.histogram("amem_sweep_point_ns", &[])
                .record(u64::try_from(point_started.elapsed().as_nanos()).unwrap_or(u64::MAX));
            let outcome = if res.is_ok() { "ok" } else { "error" };
            reg.counter("amem_sweep_points_total", &[("result", outcome)])
                .inc();
        }
        if self.progress {
            // Points-remaining and a rolling-throughput ETA ride on
            // every line, so a 120 s Fig. 6-style wait is legible.
            let eta = eta_secs(self.started.elapsed().as_secs_f64(), n, remaining);
            match &res {
                Ok(m) => eprintln!(
                    "[sweep {}/{}] {} {:?} k={} -> {:.4}s ({} left, ETA {:.1}s)",
                    n,
                    self.total,
                    req.workload.name(),
                    req.kind,
                    k,
                    m.seconds,
                    remaining,
                    eta
                ),
                Err(e) => eprintln!(
                    "[sweep {}/{}] {} {:?} k={} -> error: {e} ({} left, ETA {:.1}s)",
                    n,
                    self.total,
                    req.workload.name(),
                    req.kind,
                    k,
                    remaining,
                    eta
                ),
            }
        }
        (ri, k, res)
    }

    fn finish(self) {
        if self.metrics_on {
            amem_metrics::global()
                .counter("amem_sweep_batch_ns_total", &[])
                .add(u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

/// One request's sweep from its points' results, turning measurements
/// into degradation points. A level whose error is *degradable*
/// (transient, or flaky past its retry budget) is recorded as a degraded
/// point and the sweep carries on; a structural error is returned.
fn assemble<'r>(
    exec: &Executor,
    req: &SweepRequest,
    results: impl Iterator<Item = &'r PointResult>,
) -> Result<Sweep, AmemError> {
    let mut measured: Vec<(usize, &Arc<Measurement>)> = Vec::new();
    let mut degraded: Vec<DegradedPoint> = Vec::new();
    for (_, k, res) in results {
        match res {
            Ok(m) => measured.push((*k, m)),
            Err(e) if e.is_degradable() => degraded.push(DegradedPoint {
                count: *k,
                error: e.to_string(),
            }),
            Err(e) => return Err(e.clone()),
        }
    }
    exec.count_degraded(degraded.len() as u64);
    measured.sort_by_key(|(k, _)| *k);
    degraded.sort_by_key(|d| d.count);
    // Baseline = the smallest *measured* level. When every level was
    // lost the sweep comes back complete-but-empty: callers decide
    // whether an empty degraded sweep is fatal for their figure.
    let baseline = measured.first().map(|(_, m)| m.seconds).unwrap_or(f64::NAN);
    let points = measured
        .into_iter()
        .map(|(k, m)| SweepPoint {
            count: k,
            seconds: m.seconds,
            degradation_pct: (m.seconds / baseline - 1.0) * 100.0,
            l3_miss_rate: m.l3_miss_rate,
            app_bandwidth_gbs: m.app_bandwidth_gbs,
            quality: m.quality.clone(),
        })
        .collect();
    Ok(Sweep {
        workload: req.workload.name(),
        kind: req.kind,
        per_processor: req.per_processor,
        points,
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::SimPlatform;
    use amem_miniapps::McbCfg;
    use amem_sim::config::MachineConfig;

    fn exec() -> Executor {
        Executor::memory_only(SimPlatform::new(MachineConfig::xeon20mb().scaled(0.0625)))
    }

    fn w() -> crate::platform::McbWorkload {
        crate::platform::McbWorkload(McbCfg {
            ranks: 4,
            steps: 2,
            ..McbCfg::new(&MachineConfig::xeon20mb().scaled(0.0625), 6000)
        })
    }

    #[test]
    fn eta_is_rolling_throughput_times_remaining() {
        // 4 points in 10 s -> 2.5 s/point; 6 left -> 15 s.
        assert!((eta_secs(10.0, 4, 6) - 15.0).abs() < 1e-12);
        // Nothing left: ETA is zero regardless of history.
        assert_eq!(eta_secs(42.0, 7, 0), 0.0);
        // No completed points yet: no basis for an estimate.
        assert!(eta_secs(1.0, 0, 5).is_nan());
    }

    #[test]
    fn sweep_has_baseline_and_monotone_counts() {
        let s = run_sweep(&exec(), &w(), 2, InterferenceKind::Storage, 5).unwrap();
        assert_eq!(s.points[0].count, 0);
        assert_eq!(s.points[0].degradation_pct, 0.0);
        assert!(s.points.windows(2).all(|ab| ab[0].count < ab[1].count));
        assert_eq!(s.max_count(), 5);
        assert_eq!(s.baseline_seconds().unwrap(), s.points[0].seconds);
    }

    #[test]
    fn infeasible_levels_are_skipped() {
        // Mapping 4 ranks/socket leaves 4 free cores: counts 5+ skipped.
        let s = run_sweep(&exec(), &w(), 4, InterferenceKind::Storage, 8).unwrap();
        assert_eq!(s.max_count(), 4);
    }

    #[test]
    fn heavy_storage_interference_shows_degradation() {
        let s = run_sweep(&exec(), &w(), 2, InterferenceKind::Storage, 6).unwrap();
        let high = s.degradation_at(6).unwrap();
        assert!(high > 0.0, "6 CSThrs should degrade MCB, got {high:.2}%");
    }

    #[test]
    fn degradation_at_missing_count_is_none() {
        let s = run_sweep(&exec(), &w(), 4, InterferenceKind::Bandwidth, 2).unwrap();
        assert!(s.degradation_at(3).is_none());
        assert!(s.degradation_at(1).is_some());
    }

    #[test]
    fn invalid_mapping_is_an_error_not_an_expect() {
        let err = run_sweep(&exec(), &w(), 99, InterferenceKind::Storage, 2).unwrap_err();
        assert!(matches!(err, AmemError::EmptySweep { .. }), "{err}");
    }

    #[test]
    fn empty_sweep_baseline_is_an_error() {
        let s = Sweep {
            workload: "ghost".into(),
            kind: InterferenceKind::Storage,
            per_processor: 1,
            points: Vec::new(),
            degraded: Vec::new(),
        };
        let err = s.baseline_seconds().unwrap_err();
        assert!(matches!(err, AmemError::EmptySweep { .. }), "{err}");
        assert!(!s.is_degraded());
    }

    #[test]
    fn flaky_levels_degrade_instead_of_aborting() {
        use crate::fault::{FaultSpec, FaultyPlatform};
        // Sticky faults at p=0.35: some levels always fail, the rest
        // always pass — deterministic per request signature.
        let platform = FaultyPlatform::new(
            SimPlatform::new(MachineConfig::xeon20mb().scaled(0.0625)),
            FaultSpec::parse("seed=11,error=0.35,sticky").unwrap(),
        );
        let exec = Executor::uncached(platform);
        let s = run_sweep(&exec, &w(), 2, InterferenceKind::Storage, 6).unwrap();
        assert!(s.is_degraded(), "p=0.35 over 7 levels must lose some");
        assert!(!s.points.is_empty(), "and keep the rest");
        assert_eq!(s.points.len() + s.degraded.len(), 7);
        for d in &s.degraded {
            assert!(d.error.contains("injected"), "{}", d.error);
        }
        assert_eq!(exec.robust_stats().degraded_points, s.degraded.len() as u64);
        // Surviving points are internally consistent.
        for pt in &s.points {
            assert!(pt.seconds.is_finite());
            assert!(pt.degradation_pct.is_finite());
        }
    }

    /// Levels already in memory are answered on the calling thread and
    /// the rest in the pool; which is which must not show in the sweep.
    #[test]
    fn partly_resident_sweep_equals_the_cold_one() {
        let sweep = |exec: &Executor| {
            let s = run_sweep(exec, &w(), 2, InterferenceKind::Storage, 4).unwrap();
            serde_json::to_string(&s).unwrap()
        };
        let cold = sweep(&exec());

        let exec = exec();
        for k in [0, 2, 3] {
            exec.run(&w(), 2, InterferenceMix::storage(k)).unwrap();
        }
        let before = exec.stats();
        assert_eq!((before.sim_runs, before.mem_hits), (3, 0));
        assert_eq!(sweep(&exec), cold, "field for field, in order");
        let s = exec.stats();
        assert_eq!(s.sim_runs - before.sim_runs, 2, "the cold levels: {s:?}");
        assert_eq!(s.mem_hits, 3, "the resident ones: {s:?}");

        // Fully resident now: five more memory hits and nothing else.
        assert_eq!(sweep(&exec), cold);
        let again = exec.stats();
        assert_eq!(again.mem_hits, 8, "{again:?}");
        assert_eq!(again.lookups(), s.lookups() + 5);
    }

    /// A sweep fetched whole from memory is the sweep `run_sweep`
    /// returns, byte for byte. Taking it counts one memory hit a level,
    /// dropping it counts nothing, and one missing level means no fetch.
    #[test]
    fn a_resident_sweep_is_what_run_sweep_returns() {
        let exec = exec();
        let workload = w();
        let req = SweepRequest {
            workload: &workload,
            per_processor: 2,
            kind: InterferenceKind::Storage,
            max_count: 4,
        };
        assert!(resident_sweep(&exec, &req).is_none());
        exec.run(&workload, 2, InterferenceMix::storage(1)).unwrap();
        assert!(resident_sweep(&exec, &req).is_none(), "partly resident");
        let invalid = SweepRequest {
            per_processor: 99,
            ..req
        };
        assert!(resident_sweep(&exec, &invalid).is_none());

        let cold = run_sweep(&exec, &workload, 2, InterferenceKind::Storage, 4).unwrap();
        let before = exec.stats();
        drop(resident_sweep(&exec, &req).expect("every level resident"));
        assert_eq!(exec.stats(), before, "dropped: nothing counted");
        let hit = resident_sweep(&exec, &req).unwrap().take();
        assert_eq!(
            serde_json::to_string(&hit).unwrap(),
            serde_json::to_string(&cold).unwrap()
        );
        let after = exec.stats();
        assert_eq!(after.mem_hits, before.mem_hits + 5, "{after:?}");
        assert_eq!(after.lookups(), before.lookups() + 5);
    }

    #[test]
    fn batched_sweeps_share_their_baseline() {
        let exec = exec();
        let workload = w();
        let sweeps = run_sweeps(
            &exec,
            &[
                SweepRequest {
                    workload: &workload,
                    per_processor: 2,
                    kind: InterferenceKind::Storage,
                    max_count: 2,
                },
                SweepRequest {
                    workload: &workload,
                    per_processor: 2,
                    kind: InterferenceKind::Bandwidth,
                    max_count: 2,
                },
            ],
        )
        .unwrap();
        assert_eq!(sweeps.len(), 2);
        assert_eq!(
            sweeps[0].baseline_seconds().unwrap(),
            sweeps[1].baseline_seconds().unwrap(),
            "the k=0 point is kind-independent"
        );
        let s = exec.stats();
        // 6 requested points, but the two baselines are one measurement.
        assert_eq!(s.lookups(), 6);
        assert_eq!(s.sim_runs, 5, "{s:?}");
        assert_eq!(s.hits(), 1, "{s:?}");
    }
}
