//! The measurement executor: content-addressed caching, in-flight
//! deduplication, retry/trial robustness, and batch scheduling on top of
//! any [`Platform`].
//!
//! Every figure of the paper re-measures points other figures already
//! ran — most obviously the zero-interference baselines. The executor
//! makes those measurements *content-addressed*: a run's identity is the
//! canonical JSON of `(schema, machine, run limits, workload config,
//! ranks-per-processor, interference mix)`, and a cache entry is only
//! ever returned for an exact key match, so a hit is byte-identical to
//! the simulation it replaced (wall cycles, counters, report and all).
//!
//! Three layers, written once in the crate-private `cache` module
//! (`TieredCache`) and instantiated twice — for [`Measurement`]s and
//! for whole [`MissRatioCurve`]s — while key construction, the
//! cacheability gate and the trial policy live here:
//!
//! 1. **In-memory cache** — `Arc<Measurement>` per key, shared freely.
//! 2. **On-disk cache** — one JSON file per key under
//!    `$AMEM_CACHE_DIR` (default `target/amem-cache`), written atomically
//!    (temp file + rename) so concurrent processes never see a torn
//!    entry. Entries embed [`CACHE_SCHEMA_VERSION`] and their full key;
//!    a version bump, corrupt file or key mismatch is silently a miss and
//!    the entry is re-simulated and overwritten.
//! 3. **In-flight deduplication** — when two threads (e.g. a storage
//!    sweep and a bandwidth sweep sharing a baseline) ask for the same
//!    key concurrently, one simulates and the rest block on a condvar for
//!    the same result. The owning runner can *never* leave its waiters
//!    wedged: the platform call is wrapped in `catch_unwind` (a panic
//!    becomes [`AmemError::Flaky`]) and the shared cell is resolved by
//!    the drop of the runner's claim, so it happens even if the runner
//!    unwinds.
//!
//! Caching is *gated on determinism*: a workload without a
//! [`Workload::cache_key`] or a platform whose
//! [`Platform::deterministic`] is `false`
//! (a [`crate::fault::FaultyPlatform`]) always simulates fresh.
//!
//! Every fresh measurement runs the executor's one trial loop under its
//! [`TrialPolicy`]. The default policy is a pass-through — one trial,
//! no retries, no timeout — whose outputs are byte-identical to a plain
//! `platform.run` (apart from screening NaN headline statistics into
//! typed [`AmemError::NonFinite`] errors, which healthy platforms never
//! produce). Non-default policies repeat each measurement, reject MAD
//! outliers, retry transient failures, enforce a wall-clock budget, and
//! attach a [`TrialQuality`] record to the returned measurement. The
//! policy is deliberately *not* part of the cache key: only
//! deterministic platforms are cached, repeated trials there are
//! bit-identical, so entries measured under any policy are
//! quality-equivalent (see DESIGN.md §10).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use amem_interfere::InterferenceMix;
use amem_probes::dist::AccessDist;
use amem_probes::ehr;
use serde::{Deserialize, Serialize};

use crate::cache::{sweep_stale_tmp, Outcomes, Payload, Resident, TieredCache, STALE_TMP_AGE};
use crate::curve::{CurveRequest, CURVE_SCHEMA_VERSION};
use crate::error::AmemError;
use crate::mrc::MissRatioCurve;
use crate::platform::{Measurement, Platform, Workload};
use crate::trial::{robust_summary, QualityStats, TrialPolicy, TrialQuality};

/// MAD outlier rejection threshold of the trial aggregation: a sample is
/// rejected when `|x - median| > MAD_K * MAD`, which only rejects grossly
/// implausible samples.
const MAD_K: f64 = 3.5;

/// Version of the cache entry format *and* of the measurement semantics.
/// Bump whenever the simulator, the aggregation in `Platform::run`, or
/// the entry layout changes meaning: every existing entry then reads as
/// a miss and is re-simulated. (Additive, `Option`-typed fields like
/// `Measurement::quality` do *not* need a bump — old entries simply
/// deserialize them as `None`.)
///
/// History: 2 — the engine's barrier-release order was specified and
/// every result downstream of a barrier moved (DESIGN.md §14).
pub const CACHE_SCHEMA_VERSION: u32 = 2;

impl Payload for Measurement {
    const SCHEMA: u32 = CACHE_SCHEMA_VERSION;
    const FIELD: &'static str = "measurement";
    const OUTCOMES: Outcomes = Outcomes {
        mem_hit: "mem_hit",
        dedup_join: "dedup_join",
        disk_hit: "disk_hit",
        computed: "sim",
        uncached: "uncached_sim",
    };
}

/// Versioned by [`CURVE_SCHEMA_VERSION`] independently of measurement
/// entries, so curve-format changes never orphan per-point entries (or
/// vice versa).
impl Payload for MissRatioCurve {
    const SCHEMA: u32 = CURVE_SCHEMA_VERSION;
    const FIELD: &'static str = "curve";
    const OUTCOMES: Outcomes = Outcomes {
        mem_hit: "curve_mem_hit",
        dedup_join: "curve_dedup_join",
        disk_hit: "curve_disk_hit",
        computed: "curve_pass",
        uncached: "curve_uncached",
    };
}

/// Counters describing how an executor satisfied its requests. Snapshot
/// with [`Executor::stats`]; recorded into run manifests so a
/// reproduction documents how much of it was served from cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Fresh measurements actually executed (one per request, however
    /// many trials the [`TrialPolicy`] spent on it).
    pub sim_runs: u64,
    /// Requests served from the in-memory cache.
    pub mem_hits: u64,
    /// Requests served from the on-disk cache.
    pub disk_hits: u64,
    /// Requests that joined an identical in-flight run.
    pub dedup_hits: u64,
    /// Entries written to disk.
    pub stores: u64,
    /// Curve-request counters (`Executor::run_curve`). `Option`-typed so
    /// manifests from pre-curve builds still deserialize (as `None`).
    pub curves: Option<CurveCacheStats>,
}

/// Counters for whole-curve requests, kept separate from the per-point
/// measurement counters so the `[cache]` line and its CI assertions keep
/// their pre-curve meaning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CurveCacheStats {
    /// Fresh single-pass curve computations.
    pub runs: u64,
    /// Curve requests served from the in-memory cache.
    pub mem_hits: u64,
    /// Curve requests served from the on-disk cache.
    pub disk_hits: u64,
    /// Curve requests that joined an identical in-flight pass.
    pub dedup_hits: u64,
    /// Curve entries written to disk.
    pub stores: u64,
}

impl CurveCacheStats {
    /// Curve requests satisfied without a fresh pass.
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits + self.dedup_hits
    }

    /// Total curve requests seen.
    pub fn lookups(&self) -> u64 {
        self.hits() + self.runs
    }
}

impl CacheStats {
    /// Measurement requests satisfied without a fresh simulation.
    /// (Measurement-only on purpose: the `[cache]` line and its CI
    /// assertions predate curves and must not change meaning.)
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits + self.dedup_hits
    }

    /// Total measurement requests seen.
    pub fn lookups(&self) -> u64 {
        self.hits() + self.sim_runs
    }

    /// Curve counters, zeros when absent.
    pub fn curves(&self) -> CurveCacheStats {
        self.curves.unwrap_or_default()
    }

    /// Fraction of requests served from cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits() as f64 / self.lookups() as f64
        }
    }

    /// Accumulate another executor's or run's counters. Curve counters
    /// stay `None` only while neither side has any.
    pub fn merge(&mut self, o: &CacheStats) {
        self.sim_runs += o.sim_runs;
        self.mem_hits += o.mem_hits;
        self.disk_hits += o.disk_hits;
        self.dedup_hits += o.dedup_hits;
        self.stores += o.stores;
        if let Some(oc) = o.curves {
            let c = self.curves.get_or_insert_with(Default::default);
            c.runs += oc.runs;
            c.mem_hits += oc.mem_hits;
            c.disk_hits += oc.disk_hits;
            c.dedup_hits += oc.dedup_hits;
            c.stores += oc.stores;
        }
    }
}

/// How aggressively the executor caches.
enum CacheMode {
    /// Memory + disk + dedup (the default).
    Disk(PathBuf),
    /// Memory + dedup only — nothing persists across processes.
    Memory,
    /// No reuse at all: every request simulates (`--no-cache`).
    Off,
}

/// The measurement executor. Cheap to share (`Arc<Executor>`) and safe to
/// call from many threads — sweeps fan their points out with
/// [`crate::par_map`] and every point goes through [`Executor::run`].
pub struct Executor {
    platform: Box<dyn Platform>,
    /// `false` under `--no-cache`: no request gets a key.
    caching: bool,
    /// `{"schema":…,"machine":…,"limit":…` — the head of every
    /// measurement key, the same for the executor's whole life. `None`
    /// when nothing it measures is cacheable.
    key_prefix: Option<String>,
    policy: TrialPolicy,
    measurements: TieredCache<Measurement>,
    curves: TieredCache<MissRatioCurve>,
    /// Eq. 4's `Σ g²` per (distribution, buffer bytes, line bytes); see
    /// [`Executor::sum_sq_line_mass`].
    sum_sq: Mutex<HashMap<String, f64>>,
    // Robustness counters (the `[quality]` line and manifest).
    trials: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    faults: AtomicU64,
    non_finite: AtomicU64,
    outliers_rejected: AtomicU64,
    degraded_points: AtomicU64,
}

impl Executor {
    /// Full caching (memory + disk + dedup). The disk directory comes
    /// from `$AMEM_CACHE_DIR`, defaulting to `target/amem-cache`.
    pub fn new(platform: impl Platform + 'static) -> Self {
        let dir = std::env::var_os("AMEM_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target/amem-cache"));
        Self::with_cache_dir(platform, dir)
    }

    /// Full caching with an explicit disk directory.
    pub fn with_cache_dir(platform: impl Platform + 'static, dir: impl Into<PathBuf>) -> Self {
        Self::build(platform, CacheMode::Disk(dir.into()))
    }

    /// Memory-only caching: dedup and reuse within this process, nothing
    /// persisted.
    pub fn memory_only(platform: impl Platform + 'static) -> Self {
        Self::build(platform, CacheMode::Memory)
    }

    /// No caching at all: every request runs a fresh simulation
    /// (`--no-cache`).
    pub fn uncached(platform: impl Platform + 'static) -> Self {
        Self::build(platform, CacheMode::Off)
    }

    fn build(platform: impl Platform + 'static, mode: CacheMode) -> Self {
        let (caching, dir) = match mode {
            CacheMode::Disk(dir) => {
                sweep_stale_tmp(&dir, STALE_TMP_AGE);
                (true, Some(dir))
            }
            CacheMode::Memory => (true, None),
            CacheMode::Off => (false, None),
        };
        let key_prefix = (caching && platform.deterministic()).then(|| {
            format!(
                "{{\"schema\":{CACHE_SCHEMA_VERSION},\"machine\":{},\"limit\":{}",
                amem_sim::canonical_json(platform.cfg()),
                amem_sim::canonical_json(platform.limit()),
            )
        });
        Self {
            platform: Box::new(platform),
            caching,
            key_prefix,
            policy: TrialPolicy::default(),
            measurements: TieredCache::new(dir.clone()),
            curves: TieredCache::new(dir),
            sum_sq: Mutex::default(),
            trials: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            non_finite: AtomicU64::new(0),
            outliers_rejected: AtomicU64::new(0),
            degraded_points: AtomicU64::new(0),
        }
    }

    /// Set the trial/retry/timeout policy every fresh measurement runs
    /// under. The default is a pass-through (1 trial, no retries, no
    /// timeout) whose output is byte-identical to a plain platform run.
    pub fn with_policy(mut self, policy: TrialPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The trial policy in force.
    pub fn policy(&self) -> &TrialPolicy {
        &self.policy
    }

    /// The platform measurements execute on.
    pub fn platform(&self) -> &dyn Platform {
        self.platform.as_ref()
    }

    /// The on-disk cache directory, when disk caching is enabled.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.measurements.dir()
    }

    /// Snapshot of the hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        let (m, c) = (self.measurements.counters(), self.curves.counters());
        CacheStats {
            sim_runs: m.computed,
            mem_hits: m.mem_hits,
            disk_hits: m.disk_hits,
            dedup_hits: m.dedup_hits,
            stores: m.stores,
            curves: Some(CurveCacheStats {
                runs: c.computed,
                mem_hits: c.mem_hits,
                disk_hits: c.disk_hits,
                dedup_hits: c.dedup_hits,
                stores: c.stores,
            }),
        }
    }

    /// Snapshot of the robustness counters: trials run, retries spent,
    /// timeouts/faults observed, outliers rejected, sweep points
    /// degraded. All-zero (`is_empty`) under the default pass-through
    /// policy on healthy platforms.
    pub fn robust_stats(&self) -> QualityStats {
        QualityStats {
            trials: self.trials.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            faults: self.faults.load(Ordering::Relaxed),
            non_finite: self.non_finite.load(Ordering::Relaxed),
            outliers_rejected: self.outliers_rejected.load(Ordering::Relaxed),
            degraded_points: self.degraded_points.load(Ordering::Relaxed),
        }
    }

    /// Record sweep points abandoned after exhausting their retries
    /// (called by `sweep::run_sweeps` when it degrades instead of
    /// aborting).
    pub(crate) fn count_degraded(&self, n: u64) {
        self.degraded_points.fetch_add(n, Ordering::Relaxed);
        amem_metrics::add("amem_executor_degraded_points_total", &[], n);
    }

    /// Whether an interference level is placeable (delegates to the
    /// platform; never simulates).
    pub fn feasible(
        &self,
        workload: &dyn Workload,
        per_processor: usize,
        threads_per_socket: usize,
    ) -> bool {
        self.platform
            .feasible(workload, per_processor, threads_per_socket)
    }

    /// Measure `workload` under `mix`, serving from cache when the
    /// identical measurement already exists. Uncacheable requests — no
    /// workload key, a nondeterministic platform, or caching switched
    /// off — have no key and always measure fresh.
    pub fn run(
        &self,
        workload: &dyn Workload,
        per_processor: usize,
        mix: InterferenceMix,
    ) -> Result<Arc<Measurement>, AmemError> {
        self.measurements
            .get_or_compute(self.request_key(workload, per_processor, mix), || {
                self.measure(workload, per_processor, mix)
            })
    }

    /// The measurements [`Executor::run`] would return for the workload
    /// whose [`Workload::cache_key`] is `workload_key`, at `per_processor`
    /// under each of `mixes`, when every one is already in this
    /// executor's memory tier: one key and one map probe a point,
    /// all under one lock; `None` when any point is missing or
    /// uncacheable. Nothing is counted until the caller takes them
    /// ([`Resident::take`]: one memory hit a point), so a caller that
    /// decides *where* to run a request by whether it needs any work —
    /// sweeps, the serve daemon's frontends — may still decline it, and
    /// [`Executor::stats`] never moved.
    pub fn resident(
        &self,
        workload_key: &str,
        per_processor: usize,
        mixes: &[InterferenceMix],
    ) -> Option<Resident<'_, Measurement>> {
        let prefix = self.key_prefix.as_ref()?;
        let keys: Vec<String> = mixes
            .iter()
            .map(|&mix| self.point_key(prefix, workload_key, per_processor, mix))
            .collect();
        self.measurements.resident(&keys)
    }

    /// [`Executor::resident`] for [`Executor::run_curve`].
    pub fn curve_resident(&self, req: &CurveRequest) -> Option<Resident<'_, MissRatioCurve>> {
        self.curves.resident(&[self.curve_request_key(req)?])
    }

    /// Compute (or fetch) a whole miss-ratio curve: the single-pass
    /// stack-distance engine behind one cache entry *per curve* instead
    /// of one per grid point.
    ///
    /// Goes through the same tiered cache as [`Executor::run`] — memory,
    /// in-flight dedup, disk — but is *not* gated on
    /// [`Platform::deterministic`]: the curve pass is a pure function of
    /// the request (no simulator machine is built), so it is cacheable
    /// even on platforms whose timing measurements are not. Only
    /// `--no-cache` disables reuse. The one-request case of
    /// [`Executor::run_curves`].
    pub fn run_curve(&self, req: &CurveRequest) -> Result<Arc<MissRatioCurve>, AmemError> {
        self.run_curves(std::slice::from_ref(req))
            .pop()
            .expect("one result per request")
    }

    /// [`Executor::run_curve`] for each request, results in request
    /// order. Every key is claimed, computed, stored and counted once,
    /// as one `run_curve` each would; the requests this call computes go
    /// to one `CurveRequest::compute_batch`, which draws the positions
    /// of exact requests differing only in buffer size and capacities
    /// once. A calibration submits one such group per distribution.
    pub fn run_curves(&self, reqs: &[CurveRequest]) -> Vec<Result<Arc<MissRatioCurve>, AmemError>> {
        let keys = reqs.iter().map(|r| self.curve_request_key(r)).collect();
        self.curves.get_or_compute_many(keys, |fresh| {
            let fresh: Vec<&CurveRequest> = fresh.iter().map(|&i| &reqs[i]).collect();
            compute_curves_caught(&fresh)
        })
    }

    /// The canonical cache key `run_curve` would use, or `None` when
    /// caching is off. The `curve/v{N}/` prefix partitions curve entries
    /// structurally from measurement keys (which are canonical-JSON
    /// objects, i.e. start with `{`) — the two key spaces can never
    /// collide, and old disk caches stay valid untouched. No platform
    /// salt is appended: the pass never consults the platform, so every
    /// model identity shares one curve entry.
    pub fn curve_request_key(&self, req: &CurveRequest) -> Option<String> {
        self.caching.then(|| {
            format!(
                "curve/v{CURVE_SCHEMA_VERSION}/{}",
                amem_sim::canonical_json(req)
            )
        })
    }

    /// Eq. 4's `Σ g(ℓ)²` for a probe drawing 4-byte elements from `dist`
    /// over `buffer_bytes` in `line_bytes` lines: [`ehr::sum_sq_line_mass`],
    /// evaluated once per executor. It walks the CDF at every line of the
    /// buffer, so a calibration whose curves are all memory hits would
    /// otherwise still pay one walk per cell. Keyed by the canonical JSON
    /// of the triple, as curve keys key the same fields, and kept in
    /// memory under every cache mode: it is a pure function of the key,
    /// not a measurement.
    pub fn sum_sq_line_mass(&self, dist: &AccessDist, buffer_bytes: u64, line_bytes: u64) -> f64 {
        let key = amem_sim::canonical_json(&(dist, buffer_bytes, line_bytes));
        let memo = || self.sum_sq.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(&ssq) = memo().get(&key) {
            return ssq;
        }
        // Computed outside the lock: cells of one grid run in parallel.
        let _walk = amem_metrics::phase("eq4_line_mass");
        let ssq = ehr::sum_sq_line_mass(dist, buffer_bytes, 4, line_bytes);
        memo().insert(key, ssq);
        ssq
    }

    /// One fresh measurement under the executor's [`TrialPolicy`]: run
    /// its trials with retries and timeout classification, then return
    /// the inlier trial nearest the robust median. The pass-through
    /// policy is the same loop at one trial; only a non-pass-through
    /// result carries a [`TrialQuality`] record and counts its trials.
    fn measure(
        &self,
        workload: &dyn Workload,
        per_processor: usize,
        mix: InterferenceMix,
    ) -> Result<Measurement, AmemError> {
        let p = &self.policy;
        let mut samples: Vec<Measurement> = Vec::new();
        let mut retries = 0usize;
        let mut timeouts = 0usize;
        let mut non_finite = 0usize;
        let mut attempts_total = 0usize;
        let mut lost_trials = 0usize;
        let mut last_typed: Option<AmemError> = None;

        for _trial in 0..p.trials {
            match self.one_trial(
                workload,
                per_processor,
                mix,
                &mut retries,
                &mut timeouts,
                &mut non_finite,
                &mut attempts_total,
            ) {
                Ok(m) => samples.push(m),
                Err(e) => {
                    if !e.is_degradable() {
                        // Structural (impossible mapping etc.): no number
                        // of repetitions will change the answer.
                        return Err(e);
                    }
                    lost_trials += 1;
                    last_typed = Some(e);
                }
            }
        }

        self.retries.fetch_add(retries as u64, Ordering::Relaxed);
        self.timeouts.fetch_add(timeouts as u64, Ordering::Relaxed);
        self.non_finite
            .fetch_add(non_finite as u64, Ordering::Relaxed);
        amem_metrics::add("amem_executor_retries_total", &[], retries as u64);
        amem_metrics::add("amem_executor_timeouts_total", &[], timeouts as u64);
        amem_metrics::add("amem_executor_non_finite_total", &[], non_finite as u64);

        if samples.is_empty() {
            let last = last_typed.expect("trials >= 1, so at least one trial ran");
            // A single failed attempt keeps its precise type (Timeout,
            // Injected, ...); only genuinely repeated failure is Flaky.
            if attempts_total <= 1 {
                return Err(last);
            }
            let cause = match last {
                // one_trial already wrapped its own retries — keep the
                // underlying cause, count attempts across all trials.
                AmemError::Flaky { last, .. } => last,
                other => other.to_string(),
            };
            return Err(AmemError::Flaky {
                attempts: attempts_total,
                last: cause,
            });
        }
        let passthrough = p.is_passthrough();
        if !passthrough {
            self.trials
                .fetch_add(samples.len() as u64, Ordering::Relaxed);
            amem_metrics::add("amem_executor_trials_total", &[], samples.len() as u64);
        }

        let times: Vec<f64> = samples.iter().map(|m| m.seconds).collect();
        let _p = amem_metrics::phase("aggregation");
        let summary = robust_summary(&times, MAD_K).expect("trial samples are screened finite");
        self.outliers_rejected
            .fetch_add(summary.rejected as u64, Ordering::Relaxed);
        amem_metrics::add(
            "amem_executor_outliers_rejected_total",
            &[],
            summary.rejected as u64,
        );

        // The returned measurement is the *inlier trial nearest the
        // robust median* — an actually-observed run, so its counters,
        // report and timing stay mutually coherent. The robust mean/std
        // ride along in `quality`.
        let rep_idx = times
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                (*a - summary.median)
                    .abs()
                    .total_cmp(&(*b - summary.median).abs())
            })
            .map(|(i, _)| i)
            .expect("samples is non-empty");
        let mut rep = samples.swap_remove(rep_idx);
        if !passthrough {
            rep.quality = Some(TrialQuality {
                trials: summary.n,
                rejected_outliers: summary.rejected,
                retries,
                timeouts,
                non_finite,
                mean_seconds: summary.mean,
                std_seconds: summary.std,
                ci95_rel: summary.rel_ci(),
                degraded: lost_trials > 0,
            });
        }
        Ok(rep)
    }

    /// One trial: run the platform, classify over-budget completions as
    /// [`AmemError::Timeout`] and NaN results as
    /// [`AmemError::NonFinite`], and retry transient failures up to the
    /// policy's budget.
    #[allow(clippy::too_many_arguments)]
    fn one_trial(
        &self,
        workload: &dyn Workload,
        per_processor: usize,
        mix: InterferenceMix,
        retries: &mut usize,
        timeouts: &mut usize,
        non_finite: &mut usize,
        attempts_total: &mut usize,
    ) -> Result<Measurement, AmemError> {
        let p = &self.policy;
        let mut attempt = 0usize;
        loop {
            attempt += 1;
            *attempts_total += 1;
            let started = std::time::Instant::now();
            let res = self
                .run_platform_caught(workload, per_processor, mix)
                .and_then(|m| {
                    if let Some(budget) = p.timeout_ms {
                        // Post-hoc budget: platforms are synchronous, so a
                        // stalled run is detected (and its sample dropped)
                        // when it finally comes back. A zero budget means
                        // "no wall time allowed" and always trips — the
                        // deterministic hook the test suite uses to drive
                        // this path without racing the clock (a fast run
                        // can measure 0 elapsed ms, so `elapsed > 0` was
                        // a flake).
                        if budget == 0 || started.elapsed().as_millis() as u64 > budget {
                            return Err(AmemError::Timeout { limit_ms: budget });
                        }
                    }
                    screen_finite(m)
                });
            let e = match res {
                Ok(m) => return Ok(m),
                Err(e) => e,
            };
            match &e {
                AmemError::Timeout { .. } => *timeouts += 1,
                AmemError::NonFinite { .. } => *non_finite += 1,
                // A structural error (an impossible mapping) is the
                // request's fault, not the platform's.
                e if e.is_degradable() => {
                    self.faults.fetch_add(1, Ordering::Relaxed);
                    amem_metrics::add("amem_executor_faults_total", &[], 1);
                }
                _ => {}
            }
            if e.is_transient() && attempt <= p.retries {
                *retries += 1;
                continue;
            }
            return Err(if attempt > 1 {
                AmemError::Flaky {
                    attempts: attempt,
                    last: e.to_string(),
                }
            } else {
                e
            });
        }
    }

    /// Run the platform with panics converted into typed
    /// [`AmemError::Flaky`] errors, so a panicking platform can neither
    /// tear down a sweep's fan-out nor wedge deduplicated waiters.
    fn run_platform_caught(
        &self,
        workload: &dyn Workload,
        per_processor: usize,
        mix: InterferenceMix,
    ) -> Result<Measurement, AmemError> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.platform.run(workload, per_processor, mix)
        }))
        .unwrap_or_else(|payload| {
            Err(AmemError::Flaky {
                attempts: 1,
                last: format!("platform panicked: {}", panic_message(&payload)),
            })
        })
    }

    /// The canonical cache key `run` uses for this request, or `None`
    /// when the request must not be cached: the canonical JSON of a
    /// `CacheKey`, written as the constant prefix plus the three fields
    /// that vary. Public so tests can assert that key construction
    /// ignores execution-only knobs ([`TrialPolicy`] above all): two
    /// configurations that must share cache entries must produce equal
    /// strings here.
    pub fn request_key(
        &self,
        workload: &dyn Workload,
        per_processor: usize,
        mix: InterferenceMix,
    ) -> Option<String> {
        let prefix = self.key_prefix.as_ref()?;
        let workload_key = workload.cache_key()?;
        Some(self.point_key(prefix, &workload_key, per_processor, mix))
    }

    /// [`Executor::request_key`] from its parts: the constant prefix, the
    /// workload's own key, and the two fields that vary per point.
    fn point_key(
        &self,
        prefix: &str,
        workload_key: &str,
        per_processor: usize,
        mix: InterferenceMix,
    ) -> String {
        let mut key = String::with_capacity(prefix.len() + workload_key.len() + 128);
        key.push_str(prefix);
        key.push_str(",\"workload\":");
        serde_json::append(&mut key, workload_key);
        key.push_str(",\"per_processor\":");
        serde_json::append(&mut key, &per_processor);
        key.push_str(",\"mix\":");
        serde_json::append(&mut key, &mix);
        key.push('}');
        // Appended as a suffix, not a `CacheKey` field, so every key from
        // an unsalted (production) platform stays byte-identical to what
        // it was before salts existed — old disk caches remain valid.
        if let Some(salt) = self.platform.cache_salt() {
            key.push_str("#salt=");
            key.push_str(&salt);
        }
        key
    }
}

/// Run the curve passes. A malformed request is refused typed by
/// [`CurveRequest::compute_batch`] itself; a panic past that check is a
/// bug, converted here — for every request of the batch — so it can
/// never wedge deduplicated waiters.
fn compute_curves_caught(reqs: &[&CurveRequest]) -> Vec<Result<MissRatioCurve, AmemError>> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        CurveRequest::compute_batch(reqs)
    }))
    .unwrap_or_else(|payload| {
        let last = format!("curve pass panicked: {}", panic_message(&payload));
        reqs.iter()
            .map(|_| {
                Err(AmemError::Flaky {
                    attempts: 1,
                    last: last.clone(),
                })
            })
            .collect()
    })
}

/// Reject a measurement whose headline statistic (execution time, the
/// input to every knee/inversion downstream) is NaN or infinite.
fn screen_finite(m: Measurement) -> Result<Measurement, AmemError> {
    if !m.seconds.is_finite() {
        return Err(AmemError::NonFinite {
            what: "execution time".into(),
        });
    }
    Ok(m)
}

/// Best-effort human form of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{read_entry, unique_tmp_path};
    use crate::fault::{FaultSpec, FaultyPlatform};
    use crate::platform::{McbWorkload, SimPlatform};
    use amem_miniapps::McbCfg;
    use amem_sim::config::MachineConfig;
    use amem_sim::engine::RunLimit;
    use std::sync::atomic::AtomicBool;

    fn plat() -> SimPlatform {
        SimPlatform::new(MachineConfig::xeon20mb().scaled(0.0625))
    }

    fn tiny_mcb() -> McbWorkload {
        McbWorkload(McbCfg {
            ranks: 4,
            steps: 2,
            ..McbCfg::new(&MachineConfig::xeon20mb().scaled(0.0625), 4000)
        })
    }

    #[test]
    fn memory_cache_hits_are_the_same_measurement() {
        let exec = Executor::memory_only(plat());
        let a = exec.run(&tiny_mcb(), 2, InterferenceMix::none()).unwrap();
        let b = exec.run(&tiny_mcb(), 2, InterferenceMix::none()).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "memory hit shares the Arc");
        let s = exec.stats();
        assert_eq!(s.sim_runs, 1);
        assert_eq!(s.mem_hits, 1);
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn different_requests_do_not_collide() {
        let exec = Executor::memory_only(plat());
        let base = exec.run(&tiny_mcb(), 2, InterferenceMix::none()).unwrap();
        let loaded = exec
            .run(&tiny_mcb(), 2, InterferenceMix::storage(3))
            .unwrap();
        let remapped = exec.run(&tiny_mcb(), 4, InterferenceMix::none()).unwrap();
        assert!(loaded.seconds > base.seconds);
        assert_ne!(
            base.report.wall_cycles, remapped.report.wall_cycles,
            "different mapping is a different measurement"
        );
        assert_eq!(exec.stats().sim_runs, 3);
        assert_eq!(exec.stats().hits(), 0);
    }

    #[test]
    fn uncached_mode_always_simulates() {
        let exec = Executor::uncached(plat());
        exec.run(&tiny_mcb(), 2, InterferenceMix::none()).unwrap();
        exec.run(&tiny_mcb(), 2, InterferenceMix::none()).unwrap();
        let s = exec.stats();
        assert_eq!(s.sim_runs, 2);
        assert_eq!(s.hits(), 0);
        assert!(exec.cache_dir().is_none());
    }

    #[test]
    fn errors_pass_through_typed() {
        let exec = Executor::memory_only(plat());
        let err = exec
            .run(&tiny_mcb(), 2, InterferenceMix::storage(7))
            .unwrap_err();
        assert!(matches!(err, AmemError::InfeasibleMapping { .. }), "{err}");
        // Errors are not cached as measurements.
        assert!(exec.measurements.is_empty());
    }

    #[test]
    fn stats_snapshot_is_serializable() {
        let s = CacheStats {
            sim_runs: 2,
            mem_hits: 5,
            disk_hits: 1,
            dedup_hits: 3,
            stores: 2,
            curves: Some(CurveCacheStats {
                runs: 1,
                mem_hits: 2,
                ..Default::default()
            }),
        };
        assert_eq!(s.hits(), 9);
        assert_eq!(s.lookups(), 11);
        assert_eq!(s.curves().hits(), 2);
        assert_eq!(s.curves().lookups(), 3);
        let back: CacheStats = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
        // A pre-curve manifest (no `curves` field) still deserializes.
        let legacy = r#"{"sim_runs":1,"mem_hits":0,"disk_hits":0,"dedup_hits":0,"stores":1}"#;
        let old: CacheStats = serde_json::from_str(legacy).unwrap();
        assert!(old.curves.is_none());
        assert_eq!(old.curves().lookups(), 0);
    }

    #[test]
    fn merge_adds_every_counter_and_keeps_absent_curves_absent() {
        let with_curves = CacheStats {
            sim_runs: 1,
            mem_hits: 2,
            disk_hits: 3,
            dedup_hits: 4,
            stores: 5,
            curves: Some(CurveCacheStats {
                runs: 6,
                mem_hits: 7,
                disk_hits: 8,
                dedup_hits: 9,
                stores: 10,
            }),
        };
        let pre_curve = CacheStats {
            curves: None,
            ..with_curves
        };
        let mut total = CacheStats::default();
        total.merge(&pre_curve);
        assert_eq!(total, pre_curve, "no curve counters appear from nowhere");
        total.merge(&with_curves);
        total.merge(&with_curves);
        assert_eq!((total.sim_runs, total.stores), (3, 15));
        assert_eq!(total.hits(), 27);
        let c = total.curves.expect("curve counters survive the fold");
        assert_eq!((c.runs, c.stores, c.hits()), (12, 20, 48));
    }

    #[test]
    fn default_policy_runs_exactly_one_trial_with_no_quality() {
        let exec = Executor::memory_only(plat());
        let m = exec.run(&tiny_mcb(), 2, InterferenceMix::none()).unwrap();
        assert!(m.quality.is_none(), "pass-through attaches no quality");
        assert!(exec.robust_stats().is_empty());
    }

    #[test]
    fn fixed_trials_attach_quality_and_count() {
        let exec = Executor::uncached(plat()).with_policy(TrialPolicy::fixed(3));
        let m = exec.run(&tiny_mcb(), 2, InterferenceMix::none()).unwrap();
        let q = m.quality.as_ref().expect("trial run records quality");
        assert_eq!(q.trials, 3);
        assert_eq!(q.rejected_outliers, 0, "deterministic trials agree");
        assert_eq!(q.ci95_rel, 0.0, "identical samples have zero spread");
        assert!(!q.degraded);
        assert!(m.seconds.is_finite());
        let rs = exec.robust_stats();
        assert_eq!(rs.trials, 3);
        assert_eq!(rs.retries, 0);
        assert_eq!(exec.stats().sim_runs, 1, "one measurement, three trials");
    }

    #[test]
    fn a_structural_error_is_not_a_fault() {
        // 99 ranks on one socket is an impossible mapping: the request is
        // wrong, the platform is fine, so no trial counter moves.
        let exec = Executor::uncached(plat()).with_policy(TrialPolicy::fixed(3));
        let err = exec
            .run(&tiny_mcb(), 99, InterferenceMix::none())
            .unwrap_err();
        assert!(matches!(err, AmemError::InvalidMapping { .. }), "{err}");
        assert!(exec.robust_stats().is_empty(), "{:?}", exec.robust_stats());
    }

    #[test]
    fn passthrough_counts_faults() {
        let faulty =
            FaultyPlatform::new(plat(), FaultSpec::parse("seed=1,error=1.0,sticky").unwrap());
        let exec = Executor::uncached(faulty);
        assert!(exec.policy().is_passthrough());
        let err = exec
            .run(&tiny_mcb(), 2, InterferenceMix::none())
            .unwrap_err();
        assert!(
            matches!(err, AmemError::Injected(_)),
            "one attempt keeps its type: {err}"
        );
        let rs = exec.robust_stats();
        assert_eq!(rs.faults, 1);
        assert_eq!(rs.trials, 0, "pass-through counts no trials");
    }

    #[test]
    fn retries_recover_transient_faults() {
        let faulty = FaultyPlatform::new(plat(), FaultSpec::parse("seed=1,timeout=0.5").unwrap());
        let exec = Executor::uncached(faulty).with_policy(TrialPolicy::fixed(4).with_retries(20));
        let m = exec.run(&tiny_mcb(), 2, InterferenceMix::none()).unwrap();
        let q = m.quality.clone().unwrap();
        assert_eq!(q.trials, 4, "all trials eventually land");
        assert!(q.retries > 0, "p=0.5 timeouts must force retries: {q:?}");
        assert_eq!(q.retries, q.timeouts, "every timeout here was retried");
        let rs = exec.robust_stats();
        assert!(rs.timeouts > 0);
        assert!(!rs.is_empty());
    }

    #[test]
    fn exhausted_retries_become_flaky() {
        // sticky => the same request fails identically on every attempt.
        let faulty =
            FaultyPlatform::new(plat(), FaultSpec::parse("seed=1,error=1.0,sticky").unwrap());
        let exec = Executor::uncached(faulty).with_policy(TrialPolicy::fixed(2).with_retries(2));
        let err = exec
            .run(&tiny_mcb(), 2, InterferenceMix::none())
            .unwrap_err();
        match &err {
            AmemError::Flaky { attempts, last } => {
                // 2 trials x (1 try + 2 retries) = 6 attempts, none landed.
                assert_eq!(*attempts, 6, "{err}");
                assert!(last.contains("injected"), "{err}");
            }
            other => panic!("want Flaky, got {other}"),
        }
        assert!(err.is_degradable(), "sweeps degrade this point, not abort");
        assert_eq!(exec.robust_stats().faults, 6);
    }

    #[test]
    fn nan_results_are_screened_even_in_passthrough() {
        let faulty = FaultyPlatform::new(plat(), FaultSpec::parse("seed=3,nan=1.0").unwrap());
        let exec = Executor::uncached(faulty);
        let err = exec
            .run(&tiny_mcb(), 2, InterferenceMix::none())
            .unwrap_err();
        assert!(matches!(err, AmemError::NonFinite { .. }), "{err}");
        assert_eq!(exec.robust_stats().non_finite, 1);
    }

    #[test]
    fn noise_is_suppressed_by_trial_aggregation() {
        let clean = plat()
            .run(&tiny_mcb(), 2, InterferenceMix::none())
            .unwrap()
            .seconds;
        let faulty = FaultyPlatform::new(plat(), FaultSpec::parse("seed=9,noise=0.04").unwrap());
        let exec = Executor::uncached(faulty).with_policy(TrialPolicy::fixed(9));
        let m = exec.run(&tiny_mcb(), 2, InterferenceMix::none()).unwrap();
        // The representative (nearest-median) trial of 9 noisy samples
        // sits closer to the truth than the worst-case single draw.
        assert!(
            (m.seconds / clean - 1.0).abs() < 0.04,
            "median-of-9 beats the noise bound: {} vs {clean}",
            m.seconds
        );
        let q = m.quality.clone().unwrap();
        assert!(q.std_seconds > 0.0, "noise is visible in the spread");
        assert!(q.ci95_rel > 0.0);
    }

    #[test]
    fn policy_does_not_change_cache_keys() {
        let a = Executor::memory_only(plat());
        let b = Executor::memory_only(plat()).with_policy(TrialPolicy::fixed(5).with_retries(3));
        let w = tiny_mcb();
        assert_eq!(
            a.request_key(&w, 2, InterferenceMix::none()),
            b.request_key(&w, 2, InterferenceMix::none()),
            "TrialPolicy is execution-only: cached entries are shared"
        );
    }

    fn tiny_curve_req() -> CurveRequest {
        use amem_probes::dist::AccessDist;
        CurveRequest {
            dist: AccessDist::Uniform,
            buffer_bytes: 1 << 16,
            warm_accesses: 2000,
            measure_accesses: 2000,
            seed: 3,
            line_bytes: 64,
            capacities_lines: vec![64, 256, 1024],
            mode: crate::curve::CurveMode::Exact,
        }
    }

    #[test]
    fn curve_memory_hits_share_the_arc() {
        let exec = Executor::memory_only(plat());
        let a = exec.run_curve(&tiny_curve_req()).unwrap();
        let b = exec.run_curve(&tiny_curve_req()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = exec.stats();
        assert_eq!(s.curves().runs, 1);
        assert_eq!(s.curves().mem_hits, 1);
        assert_eq!(s.sim_runs, 0, "curves never touch measurement counters");
    }

    #[test]
    fn a_curve_batch_computes_each_missing_key_once() {
        use crate::curve::CurveMode;
        // Two groups (Uniform, Exponential), a sampled request, a key
        // already in memory (a member of the first group) and a
        // duplicate key, in one batch over a disk-backed executor.
        let at = |dist, buffer_bytes| CurveRequest {
            dist,
            buffer_bytes,
            ..tiny_curve_req()
        };
        let exp = AccessDist::Exponential { rate: 6.0 };
        let resident = at(AccessDist::Uniform, 3 << 15);
        let sampled = CurveRequest {
            mode: CurveMode::Sampled { rate: 0.25 },
            ..at(exp, 1 << 17)
        };
        let batch = vec![
            at(AccessDist::Uniform, 1 << 16),
            at(exp, 1 << 16),
            resident.clone(),
            sampled,
            at(AccessDist::Uniform, 5 << 15),
            at(exp, 3 << 16),
            at(AccessDist::Uniform, 1 << 16),
        ];
        let dir = std::env::temp_dir().join(format!("amem_curve_batch_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let exec = Executor::with_cache_dir(plat(), &dir);
        let first = exec.run_curve(&resident).unwrap();
        let got: Vec<Arc<MissRatioCurve>> = exec
            .run_curves(&batch)
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        let c = exec.stats().curves();
        assert_eq!(
            (c.runs, c.stores),
            (6, 6),
            "5 missing keys + the resident one: {c:?}"
        );
        assert_eq!((c.mem_hits, c.dedup_hits, c.disk_hits), (1, 1, 0), "{c:?}");
        assert!(
            Arc::ptr_eq(&got[2], &first),
            "the memory hit is its own Arc"
        );
        assert!(
            Arc::ptr_eq(&got[6], &got[0]),
            "a duplicate key shares its claim"
        );
        let lone = Executor::uncached(plat());
        for (i, (req, curve)) in batch.iter().zip(&got).enumerate() {
            assert_eq!(**curve, *lone.run_curve(req).unwrap(), "request {i}");
        }
        // A second executor over the same directory: every key is a disk
        // hit, nothing computes.
        let again = Executor::with_cache_dir(plat(), &dir);
        for (req, result) in batch.iter().zip(again.run_curves(&batch)) {
            assert_eq!(*result.unwrap(), *lone.run_curve(req).unwrap());
        }
        let c = again.stats().curves();
        assert_eq!((c.runs, c.disk_hits, c.dedup_hits), (0, 6, 1), "{c:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memoised_sum_sq_is_the_model_bit_for_bit_and_keyed_by_every_field() {
        // Each triple differs from the first in one field: a key that
        // dropped a field would hand back the first triple's value.
        let exp = AccessDist::Exponential { rate: 4.0 };
        let triples = [
            (exp, 1 << 20, 64),
            (AccessDist::Exponential { rate: 6.0 }, 1 << 20, 64),
            (exp, 3 << 19, 64),
            (exp, 1 << 20, 128),
        ];
        for exec in [Executor::memory_only(plat()), Executor::uncached(plat())] {
            for _ in 0..2 {
                for (dist, buffer, line) in triples {
                    let want = ehr::sum_sq_line_mass(&dist, buffer, 4, line);
                    let got = exec.sum_sq_line_mass(&dist, buffer, line);
                    assert_eq!(got.to_bits(), want.to_bits(), "{dist:?} {buffer} {line}");
                }
            }
            assert_eq!(exec.sum_sq.lock().unwrap().len(), triples.len());
        }
    }

    #[test]
    fn resident_fetches_count_only_when_taken() {
        let dir = std::env::temp_dir().join(format!("amem_resident_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let exec = Executor::with_cache_dir(plat(), dir.clone());
        let (w, mix) = (tiny_mcb(), InterferenceMix::storage(1));
        let key = w.cache_key().unwrap();
        assert!(exec.resident(&key, 2, &[mix]).is_none());
        assert!(exec.curve_resident(&tiny_curve_req()).is_none());
        let m = exec.run(&w, 2, mix).unwrap();
        let c = exec.run_curve(&tiny_curve_req()).unwrap();
        let before = exec.stats();
        for _ in 0..100 {
            assert!(exec.resident(&key, 2, &[mix]).is_some());
            assert!(exec.curve_resident(&tiny_curve_req()).is_some());
            // All or nothing: one missing point and none is fetched.
            let other = InterferenceMix::storage(2);
            assert!(exec.resident(&key, 2, &[mix, other]).is_none());
        }
        assert_eq!(exec.stats(), before, "a fetch dropped is not a request");

        // Taken, each value is one memory hit and the executor's own Arc.
        let taken = exec.resident(&key, 2, &[mix, mix]).unwrap().take();
        assert!(taken.iter().all(|t| Arc::ptr_eq(t, &m)));
        let curve = exec.curve_resident(&tiny_curve_req()).unwrap().take();
        assert!(Arc::ptr_eq(&curve[0], &c));
        let after = exec.stats();
        assert_eq!(after.mem_hits, before.mem_hits + 2);
        assert_eq!(after.curves().mem_hits, before.curves().mem_hits + 1);
        assert_eq!(after.lookups(), before.lookups() + 2);

        // On disk is not in memory: a fresh executor over the same
        // directory fetches nothing until its first (disk-hit) request.
        let reopened = Executor::with_cache_dir(plat(), dir.clone());
        assert!(reopened.resident(&key, 2, &[mix]).is_none());
        reopened.run(&w, 2, mix).unwrap();
        assert_eq!(reopened.stats().disk_hits, 1);
        assert!(reopened.resident(&key, 2, &[mix]).is_some());

        // Nothing is resident where nothing is cached.
        let uncached = Executor::uncached(plat());
        uncached.run(&w, 2, mix).unwrap();
        assert!(uncached.resident(&key, 2, &[mix]).is_none());
        assert!(uncached.curve_resident(&tiny_curve_req()).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn curve_keys_partition_from_measurement_keys() {
        let exec = Executor::memory_only(plat());
        let ck = exec.curve_request_key(&tiny_curve_req()).unwrap();
        let mk = exec
            .request_key(&tiny_mcb(), 2, InterferenceMix::none())
            .unwrap();
        // Measurement keys are canonical-JSON objects; curve keys carry a
        // structural prefix. The two spaces cannot collide.
        assert!(mk.starts_with('{'), "{mk}");
        assert!(
            ck.starts_with(&format!("curve/v{CURVE_SCHEMA_VERSION}/")),
            "{ck}"
        );
    }

    #[test]
    fn curve_mode_partitions_curve_keys() {
        let exec = Executor::memory_only(plat());
        let exact = exec.curve_request_key(&tiny_curve_req()).unwrap();
        let mut req = tiny_curve_req();
        req.mode = crate::curve::CurveMode::Sampled { rate: 0.01 };
        let sampled = exec.curve_request_key(&req).unwrap();
        assert_ne!(exact, sampled, "sampled curves are separate entries");
    }

    #[test]
    fn uncached_mode_recomputes_curves() {
        let exec = Executor::uncached(plat());
        assert!(exec.curve_request_key(&tiny_curve_req()).is_none());
        let a = exec.run_curve(&tiny_curve_req()).unwrap();
        let b = exec.run_curve(&tiny_curve_req()).unwrap();
        assert_eq!(*a, *b, "recomputation is deterministic");
        assert_eq!(exec.stats().curves().runs, 2);
        assert_eq!(exec.stats().curves().hits(), 0);
    }

    /// Wraps a platform to claim a different model identity via
    /// [`Platform::cache_salt`].
    struct SaltedPlatform(SimPlatform);

    impl Platform for SaltedPlatform {
        fn cfg(&self) -> &MachineConfig {
            self.0.cfg()
        }
        fn limit(&self) -> &RunLimit {
            self.0.limit()
        }
        fn run(
            &self,
            workload: &dyn Workload,
            per_processor: usize,
            mix: InterferenceMix,
        ) -> Result<Measurement, AmemError> {
            self.0.run(workload, per_processor, mix)
        }
        fn cache_salt(&self) -> Option<String> {
            Some("test-model-v1".into())
        }
    }

    #[test]
    fn cache_salt_partitions_the_key_space() {
        let plain = Executor::memory_only(plat());
        let salted = Executor::memory_only(SaltedPlatform(plat()));
        let w = tiny_mcb();
        let pk = plain.request_key(&w, 2, InterferenceMix::none()).unwrap();
        let sk = salted.request_key(&w, 2, InterferenceMix::none()).unwrap();
        // Unsalted keys are byte-identical to the pre-salt format, so
        // existing disk caches stay valid; salted keys can never collide.
        assert!(!pk.contains("#salt="), "production keys must be unchanged");
        assert_eq!(sk, format!("{pk}#salt=test-model-v1"));
    }

    /// The full content-addressed identity of one measurement.
    #[derive(Serialize)]
    struct CacheKey {
        schema: u32,
        machine: MachineConfig,
        limit: RunLimit,
        workload: String,
        per_processor: usize,
        mix: InterferenceMix,
    }

    /// What `cache_key` must print: the struct, serialized whole.
    fn oracle_key(exec: &Executor, w: &dyn Workload, pp: usize, mix: InterferenceMix) -> String {
        let p = exec.platform();
        let mut key = amem_sim::canonical_json(&CacheKey {
            schema: CACHE_SCHEMA_VERSION,
            machine: p.cfg().clone(),
            limit: p.limit().clone(),
            workload: w.cache_key().expect("cacheable workload"),
            per_processor: pp,
            mix,
        });
        if let Some(salt) = p.cache_salt() {
            key.push_str("#salt=");
            key.push_str(&salt);
        }
        key
    }

    #[test]
    fn keys_built_from_the_cached_prefix_equal_the_struct_oracle() {
        let w = tiny_mcb();
        assert!(
            w.cache_key().unwrap().contains('"'),
            "the workload key needs escaping inside the request key"
        );
        let plain = Executor::memory_only(plat());
        let salted = Executor::memory_only(SaltedPlatform(plat()));
        let mixes = [
            InterferenceMix::none(),
            InterferenceMix::storage(2),
            InterferenceMix::bandwidth(3),
        ];
        for exec in [&plain, &salted] {
            for pp in [1, 2, 4] {
                for mix in mixes {
                    assert_eq!(
                        exec.request_key(&w, pp, mix).expect("cacheable"),
                        oracle_key(exec, &w, pp, mix)
                    );
                }
            }
        }

        // And both are the keys old cache directories were filed under
        // (the snapshot's workload is `tiny_mcb`).
        let snapshot = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/data/request_keys_pre_qos.json");
        let golden: std::collections::BTreeMap<String, String> =
            serde_json::from_str(&std::fs::read_to_string(snapshot).unwrap()).unwrap();
        for (name, mix) in [
            ("mcb_pp2_none", InterferenceMix::none()),
            ("mcb_pp2_cs2", InterferenceMix::storage(2)),
        ] {
            assert_eq!(plain.request_key(&w, 2, mix).as_ref(), Some(&golden[name]));
            assert_eq!(oracle_key(&plain, &w, 2, mix), golden[name]);
        }
    }

    #[test]
    fn faulty_platform_is_never_cached() {
        let faulty = FaultyPlatform::new(plat(), FaultSpec::parse("seed=2,noise=0.01").unwrap());
        let exec = Executor::memory_only(faulty);
        assert!(exec
            .request_key(&tiny_mcb(), 2, InterferenceMix::none())
            .is_none());
        exec.run(&tiny_mcb(), 2, InterferenceMix::none()).unwrap();
        exec.run(&tiny_mcb(), 2, InterferenceMix::none()).unwrap();
        assert_eq!(exec.stats().sim_runs, 2, "no reuse of injected results");
        assert_eq!(exec.stats().hits(), 0);
    }

    /// A platform that signals when a run starts, blocks until released,
    /// then panics — the worst-case runner for deduplicated waiters.
    struct WedgePlatform {
        cfg: MachineConfig,
        limit: RunLimit,
        entered: Arc<AtomicBool>,
        release: Arc<AtomicBool>,
    }

    impl Platform for WedgePlatform {
        fn cfg(&self) -> &MachineConfig {
            &self.cfg
        }
        fn limit(&self) -> &RunLimit {
            &self.limit
        }
        fn run(
            &self,
            _workload: &dyn Workload,
            _per_processor: usize,
            _mix: InterferenceMix,
        ) -> Result<Measurement, AmemError> {
            self.entered.store(true, Ordering::SeqCst);
            while !self.release.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            panic!("wedge platform always panics");
        }
    }

    #[test]
    fn panicking_runner_releases_deduped_waiters_with_typed_errors() {
        let entered = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let exec = Arc::new(Executor::memory_only(WedgePlatform {
            cfg: MachineConfig::xeon20mb().scaled(0.0625),
            limit: RunLimit::default(),
            entered: Arc::clone(&entered),
            release: Arc::clone(&release),
        }));

        let spawn_run = |exec: Arc<Executor>| {
            std::thread::spawn(move || exec.run(&tiny_mcb(), 2, InterferenceMix::none()))
        };
        let runner = spawn_run(Arc::clone(&exec));
        // Wait until the runner owns the in-flight key and is inside the
        // platform, so the second request is guaranteed to dedup onto it.
        while !entered.load(Ordering::SeqCst) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let waiter = spawn_run(Arc::clone(&exec));
        while exec.stats().dedup_hits < 1 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        release.store(true, Ordering::SeqCst);

        for handle in [runner, waiter] {
            let res = handle.join().expect("threads terminate, never wedge");
            let err = res.expect_err("the platform panicked");
            match err {
                AmemError::Flaky { last, .. } => {
                    assert!(last.contains("panic"), "{last}")
                }
                other => panic!("want Flaky, got {other}"),
            }
        }
        assert!(
            exec.measurements.is_empty(),
            "no wedged in-flight cells remain"
        );
        // A later identical request does not hang on stale state either
        // (it fails again, because the platform still panics — but it
        // *returns*).
        release.store(true, Ordering::SeqCst);
        let err = exec
            .run(&tiny_mcb(), 2, InterferenceMix::none())
            .unwrap_err();
        assert!(matches!(err, AmemError::Flaky { .. }), "{err}");
    }

    #[test]
    fn tmp_paths_are_unique_per_call() {
        // Regression for the tmp-file collision: both store paths used to
        // name the scratch file `<entry>.tmp.<pid>`, so two concurrent
        // writers of the same key in one process shared one tmp path and
        // could rename each other's half-written bytes into the cache.
        let entry = Path::new("/cache/0011223344556677.json");
        let a = unique_tmp_path(entry);
        let b = unique_tmp_path(entry);
        assert_ne!(a, b, "every in-flight write gets its own scratch file");
        let pid = format!(".tmp.{}.", std::process::id());
        for p in [&a, &b] {
            let name = p.file_name().unwrap().to_str().unwrap();
            assert!(name.contains(&pid), "{name} carries pid + nonce");
            assert!(
                p.parent() == entry.parent(),
                "same dir, so rename is atomic"
            );
        }
    }

    #[test]
    fn concurrent_same_key_stores_never_tear_the_entry() {
        let dir = std::env::temp_dir().join("amem_exec_tmp_race_test");
        let _ = std::fs::remove_dir_all(&dir);
        // Two dedup-bypassing executors over one cache dir persist the same
        // key concurrently, repeatedly. With a shared tmp path this renamed
        // torn/foreign writes; with per-write nonces every published entry
        // must parse and no scratch files may leak.
        for _ in 0..4 {
            let a = Executor::with_cache_dir(plat(), dir.clone());
            let b = Executor::with_cache_dir(plat(), dir.clone());
            std::thread::scope(|s| {
                s.spawn(|| a.run(&tiny_mcb(), 2, InterferenceMix::none()).unwrap());
                s.spawn(|| b.run(&tiny_mcb(), 2, InterferenceMix::none()).unwrap());
            });
            for e in std::fs::read_dir(&dir).unwrap().flatten() {
                let name = e.file_name().to_str().unwrap().to_string();
                assert!(!name.contains(".tmp."), "leaked scratch file {name}");
                let json = std::fs::read_to_string(e.path()).unwrap();
                let (schema, ..) = read_entry::<Measurement>(&json)
                    .unwrap_or_else(|err| panic!("torn cache entry {name}: {err}"));
                assert_eq!(schema, CACHE_SCHEMA_VERSION);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_sweep_reclaims_planted_orphans() {
        let dir = std::env::temp_dir().join("amem_exec_tmp_sweep_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A crash between write and rename leaves exactly this debris.
        let orphan = dir.join("00deadbeef00.tmp.12345.7");
        std::fs::write(&orphan, "{\"half\":").unwrap();
        let entry = dir.join("00deadbeef00.json");
        std::fs::write(&entry, "{}").unwrap();

        // Young tmp files survive a conservative sweep: they may belong to
        // a live writer in another process.
        assert_eq!(sweep_stale_tmp(&dir, STALE_TMP_AGE), 0);
        assert!(orphan.exists());

        // Once past the age threshold (zero here, since tests cannot set
        // mtimes portably) the orphan is reclaimed; real entries are not.
        assert_eq!(sweep_stale_tmp(&dir, std::time::Duration::ZERO), 1);
        assert!(!orphan.exists(), "orphan reclaimed");
        assert!(entry.exists(), "published entries are never touched");
        assert_eq!(sweep_stale_tmp(&dir, std::time::Duration::ZERO), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
