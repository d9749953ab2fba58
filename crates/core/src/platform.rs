//! Platforms and workloads: what gets measured, and where.
//!
//! A [`Workload`] knows how to instantiate itself as a set of rank streams
//! on a simulated node given an MPI-style mapping; a [`Platform`] runs it
//! with a chosen [`InterferenceMix`] on the cores the mapping leaves free
//! — the physical setup of every experiment in the paper. [`SimPlatform`]
//! (the deterministic simulator) is the one production platform;
//! [`crate::fault::FaultyPlatform`] wraps it for fault injection. Most
//! callers should go through [`crate::executor::Executor`], which adds
//! content-addressed caching and in-flight deduplication on top of any
//! platform.

use amem_interfere::InterferenceMix;
use amem_miniapps::{lulesh, mcb, LuleshCfg, McbCfg};
use amem_probes::probe::{ProbeCfg, ProbeStream};
use amem_sim::cluster::RankMap;
use amem_sim::config::MachineConfig;
use amem_sim::engine::{Engine, Job, RunLimit, RunReport};
use amem_sim::machine::Machine;
use serde::{Deserialize, Serialize};

use crate::error::AmemError;
use crate::trial::TrialQuality;

/// A measurable application.
pub trait Workload: Sync {
    /// Total MPI ranks the workload wants.
    fn ranks(&self) -> usize;

    /// Instantiate the local ranks as placed jobs.
    fn build(&self, machine: &mut Machine, map: &RankMap) -> Vec<Job>;

    /// Display name.
    fn name(&self) -> String;

    /// Stable identity of this workload's *configuration* for the
    /// measurement cache: two workloads with equal keys must produce
    /// identical simulations. `None` (the default) marks the workload
    /// uncacheable — the executor then simulates it fresh every time.
    /// Implementations conventionally return
    /// `"{kind}/{canonical_json(cfg)}"`.
    fn cache_key(&self) -> Option<String> {
        None
    }
}

/// MCB as a workload.
#[derive(Debug, Clone)]
pub struct McbWorkload(pub McbCfg);

impl Workload for McbWorkload {
    fn ranks(&self) -> usize {
        self.0.ranks
    }
    fn build(&self, machine: &mut Machine, map: &RankMap) -> Vec<Job> {
        mcb::build_jobs(machine, &self.0, map)
    }
    fn name(&self) -> String {
        format!("MCB({} particles)", self.0.total_particles)
    }
    fn cache_key(&self) -> Option<String> {
        Some(format!("mcb/{}", amem_sim::canonical_json(&self.0)))
    }
}

/// Lulesh as a workload.
#[derive(Debug, Clone)]
pub struct LuleshWorkload(pub LuleshCfg);

impl Workload for LuleshWorkload {
    fn ranks(&self) -> usize {
        self.0.ranks
    }
    fn build(&self, machine: &mut Machine, map: &RankMap) -> Vec<Job> {
        lulesh::build_jobs(machine, &self.0, map)
    }
    fn name(&self) -> String {
        format!("Lulesh({0}x{0}x{0})", self.0.edge)
    }
    fn cache_key(&self) -> Option<String> {
        Some(format!("lulesh/{}", amem_sim::canonical_json(&self.0)))
    }
}

/// A single-rank synthetic probe as a workload (used by the calibration
/// experiments of §III).
#[derive(Debug, Clone)]
pub struct ProbeWorkload(pub ProbeCfg);

impl Workload for ProbeWorkload {
    fn ranks(&self) -> usize {
        1
    }
    fn build(&self, machine: &mut Machine, map: &RankMap) -> Vec<Job> {
        let core = map.core_of(0).expect("rank 0 is local");
        vec![Job::primary(
            Box::new(ProbeStream::new(machine, &self.0)),
            core,
        )]
    }
    fn name(&self) -> String {
        "probe".to_string()
    }
    fn cache_key(&self) -> Option<String> {
        Some(format!("probe/{}", amem_sim::canonical_json(&self.0)))
    }
}

/// One measured run. Carries the *actual* interference mix applied —
/// including true mixed (CSThr + BWThr) runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measurement {
    /// Interference applied.
    pub mix: InterferenceMix,
    /// Execution time (max over primary ranks).
    pub seconds: f64,
    /// Aggregate L3 miss rate over primary ranks.
    pub l3_miss_rate: f64,
    /// Aggregate Eq. 1 bandwidth over primary ranks, GB/s.
    pub app_bandwidth_gbs: f64,
    /// Full run report (counters for every job).
    pub report: RunReport,
    /// Trial statistics when this measurement was aggregated from
    /// repeated trials under a non-default [`crate::TrialPolicy`].
    /// `None` for plain single-trial runs — and for cache entries
    /// written before this field existed, which still deserialize.
    pub quality: Option<TrialQuality>,
}

/// Somewhere a measurement can execute.
///
/// `run` takes an [`InterferenceMix`] — an `InterferenceSpec` is just a
/// one-kind mix (`spec.into()`), and the zero mix is the baseline. All
/// user-reachable failure conditions (impossible mapping, infeasible
/// interference level, empty workload) come back as [`AmemError`]s, never
/// panics.
pub trait Platform: Send + Sync {
    /// The machine this platform measures on.
    fn cfg(&self) -> &MachineConfig;

    /// The run controls every measurement uses.
    fn limit(&self) -> &RunLimit;

    /// Run `workload` mapped at `per_processor` ranks per socket, with
    /// `mix` interference threads on the free cores of each occupied
    /// socket.
    fn run(
        &self,
        workload: &dyn Workload,
        per_processor: usize,
        mix: InterferenceMix,
    ) -> Result<Measurement, AmemError>;

    /// Whether `threads_per_socket` interference threads are placeable
    /// under this mapping (the paper's "not all combinations of mapping
    /// and interference can be executed").
    fn feasible(
        &self,
        workload: &dyn Workload,
        per_processor: usize,
        threads_per_socket: usize,
    ) -> bool {
        validate_mapping(self.cfg(), workload, per_processor)
            .and_then(|map| check_feasible(&map, threads_per_socket))
            .is_ok()
    }

    /// Whether identical requests produce identical measurements. The
    /// executor only caches measurements from deterministic platforms;
    /// a platform whose results vary run to run must return `false`.
    fn deterministic(&self) -> bool {
        true
    }

    /// Extra discriminator appended to the executor's cache key. `None`
    /// (the default, and every production platform) leaves keys exactly
    /// as they were; platforms that run the same configuration through a
    /// *different model* — e.g. the conformance `ReferencePlatform` —
    /// must return a stable salt so their measurements can never collide
    /// with (or be served from) the production cache.
    fn cache_salt(&self) -> Option<String> {
        None
    }
}

/// Build the rank mapping, reporting invalid geometry as an error instead
/// of panicking like [`RankMap::new`].
pub(crate) fn validate_mapping(
    cfg: &MachineConfig,
    workload: &dyn Workload,
    per_processor: usize,
) -> Result<RankMap, AmemError> {
    if per_processor < 1 || per_processor > cfg.cores_per_socket as usize {
        return Err(AmemError::InvalidMapping {
            per_processor,
            cores_per_socket: cfg.cores_per_socket as usize,
        });
    }
    Ok(RankMap::new(cfg, workload.ranks(), per_processor))
}

/// Check that every occupied socket can host `needed` interference
/// threads on its free cores.
pub(crate) fn check_feasible(map: &RankMap, needed: usize) -> Result<(), AmemError> {
    if needed == 0 {
        return Ok(());
    }
    let free = map.free_cores();
    let mut sockets: Vec<u32> = free.iter().map(|c| c.socket).collect();
    sockets.sort_unstable();
    sockets.dedup();
    if sockets.is_empty() {
        return Err(AmemError::InfeasibleMapping {
            socket: 0,
            free_cores: 0,
            needed,
        });
    }
    for &s in &sockets {
        let n = free.iter().filter(|c| c.socket == s).count();
        if n < needed {
            return Err(AmemError::InfeasibleMapping {
                socket: s,
                free_cores: n,
                needed,
            });
        }
    }
    Ok(())
}

/// The simulated-node platform.
#[derive(Debug, Clone)]
pub struct SimPlatform {
    cfg: MachineConfig,
    limit: RunLimit,
}

impl SimPlatform {
    pub fn new(cfg: MachineConfig) -> Self {
        Self {
            cfg,
            limit: RunLimit::default(),
        }
    }

    pub fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The run controls every measurement uses.
    pub fn limit(&self) -> &RunLimit {
        &self.limit
    }

    /// Replace the run controls wholesale.
    pub fn with_limit(mut self, limit: RunLimit) -> Self {
        self.limit = limit;
        self
    }

    /// Enable per-core counter sampling every `interval` cycles on all
    /// measurements. Observation-only: counters and timing are unchanged.
    pub fn with_sampling(mut self, interval: u64) -> Self {
        self.limit = self.limit.clone().with_sampling(interval);
        self
    }

    /// Enable span/instant tracing with a ring of `capacity` events.
    pub fn with_tracing(mut self, capacity: usize) -> Self {
        self.limit = self.limit.clone().with_tracing(capacity);
        self
    }

    /// Run a workload through `simulate`, the function that executes the
    /// placed jobs over a cold hierarchy. This is the whole body of
    /// [`Platform::run`], which passes the production [`Engine`]; the
    /// conformance layer passes its reference machine, so identical
    /// measurements run through both.
    pub fn measure_with(
        &self,
        workload: &dyn Workload,
        per_processor: usize,
        mix: InterferenceMix,
        simulate: fn(&MachineConfig, Vec<Job>, &RunLimit) -> RunReport,
    ) -> Result<Measurement, AmemError> {
        let map = validate_mapping(&self.cfg, workload, per_processor)?;
        check_feasible(&map, mix.threads())?;
        let mut machine = Machine::new(self.cfg.clone());
        // Leaf attribution phases (DESIGN.md §12): op_generation covers
        // instantiating the workload's rank streams and the interference
        // threads; simulation is the engine itself; aggregation folds the
        // report into the headline statistics.
        let jobs = {
            let _p = amem_metrics::phase("op_generation");
            let mut jobs = workload.build(&mut machine, &map);
            if jobs.is_empty() {
                return Err(AmemError::EmptyWorkload {
                    workload: workload.name(),
                });
            }
            jobs.extend(mix.build_jobs(&mut machine, &map.free_cores()));
            jobs
        };
        let report = {
            let _p = amem_metrics::phase("simulation");
            simulate(&self.cfg, jobs, &self.limit)
        };
        let _p = amem_metrics::phase("aggregation");
        // Measure the steady-state (post-Mark) phase: warm-up transients
        // are excluded exactly as the paper's long runs amortize them.
        let mut agg = amem_sim::CoreCounters::default();
        let mut seconds = 0.0f64;
        let mut bw = 0.0;
        for j in report.jobs.iter().filter(|j| j.primary) {
            let c = j.after_last_mark();
            agg.merge(&c);
            seconds = seconds.max(self.cfg.seconds(c.cycles));
            bw += c.bandwidth_gbs(self.cfg.l3.line_bytes, self.cfg.freq_ghz);
        }
        Ok(Measurement {
            mix,
            seconds,
            l3_miss_rate: agg.l3_miss_rate(),
            app_bandwidth_gbs: bw,
            report,
            quality: None,
        })
    }
}

impl Platform for SimPlatform {
    fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }

    fn limit(&self) -> &RunLimit {
        &self.limit
    }

    fn run(
        &self,
        workload: &dyn Workload,
        per_processor: usize,
        mix: InterferenceMix,
    ) -> Result<Measurement, AmemError> {
        self.measure_with(workload, per_processor, mix, |cfg, jobs, limit| {
            Engine::new(cfg, jobs).run(limit)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amem_interfere::InterferenceSpec;

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
    fn baseline_run_produces_time_and_counters() {
        let p = plat();
        let m = p.run(&tiny_mcb(), 2, InterferenceMix::none()).unwrap();
        assert!(m.seconds > 0.0);
        assert!(m.l3_miss_rate >= 0.0 && m.l3_miss_rate <= 1.0);
        assert!(m.report.jobs.iter().filter(|j| j.primary).count() == 4);
        assert!(m.mix.is_baseline());
    }

    #[test]
    fn storage_interference_slows_the_workload() {
        let p = plat();
        let base = p.run(&tiny_mcb(), 2, InterferenceMix::none()).unwrap();
        let loaded = p.run(&tiny_mcb(), 2, InterferenceMix::storage(5)).unwrap();
        assert!(
            loaded.seconds > base.seconds,
            "5 CSThrs must cost something: {} vs {}",
            loaded.seconds,
            base.seconds
        );
    }

    #[test]
    fn feasibility_mirrors_free_cores() {
        let p = plat();
        let w = tiny_mcb();
        assert!(p.feasible(&w, 2, 6), "8-2 cores free");
        assert!(!p.feasible(&w, 2, 7));
        assert!(!p.feasible(&w, 4, 5));
    }

    #[test]
    fn infeasible_mix_is_a_typed_error_not_a_panic() {
        let p = plat();
        let err = p
            .run(&tiny_mcb(), 2, InterferenceMix::storage(7))
            .unwrap_err();
        assert!(
            matches!(
                err,
                AmemError::InfeasibleMapping {
                    free_cores: 6,
                    needed: 7,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn invalid_mapping_is_a_typed_error_not_a_panic() {
        let p = plat();
        let err = p.run(&tiny_mcb(), 99, InterferenceMix::none()).unwrap_err();
        assert!(matches!(err, AmemError::InvalidMapping { .. }), "{err}");
        let err = p.run(&tiny_mcb(), 0, InterferenceMix::none()).unwrap_err();
        assert!(matches!(err, AmemError::InvalidMapping { .. }), "{err}");
        assert!(!p.feasible(&tiny_mcb(), 99, 0));
    }

    #[test]
    fn mixed_run_carries_its_actual_mix() {
        // Regression: `run_mixed` used to return `InterferenceSpec::none()`
        // as the measurement's interference description.
        let p = plat();
        let mix = InterferenceMix::new(2, 1);
        let m = p.run(&tiny_mcb(), 2, mix).unwrap();
        assert_eq!(m.mix, mix);
        assert_eq!(m.mix.describe(), "2 CSThr + 1 BWThr");
        let backgrounds = m.report.jobs.iter().filter(|j| !j.primary).count();
        assert_eq!(backgrounds, 6, "3 threads per socket x 2 sockets");
    }

    #[test]
    fn probe_workload_runs() {
        let p = plat();
        let probe = ProbeWorkload(ProbeCfg::for_machine(
            p.cfg(),
            amem_probes::dist::AccessDist::Uniform,
            2.0,
            1,
        ));
        let m = p
            .run(&probe, 1, InterferenceSpec::storage(2).into())
            .unwrap();
        assert!(m.seconds > 0.0);
        assert!(m.report.jobs.len() == 3, "1 probe + 2 CSThr");
    }

    #[test]
    fn deterministic_measurements() {
        let p = plat();
        assert!(p.deterministic());
        let a = p.run(&tiny_mcb(), 2, InterferenceMix::storage(1)).unwrap();
        let b = p.run(&tiny_mcb(), 2, InterferenceMix::storage(1)).unwrap();
        assert_eq!(a.report.wall_cycles, b.report.wall_cycles);
    }

    #[test]
    fn builtin_workloads_have_cache_keys() {
        let w = tiny_mcb();
        let k = w.cache_key().unwrap();
        assert!(k.starts_with("mcb/"), "{k}");
        // The key is the workload *config*: a different particle count
        // must produce a different key.
        let other = McbWorkload(McbCfg {
            ranks: 4,
            steps: 2,
            ..McbCfg::new(&MachineConfig::xeon20mb().scaled(0.0625), 8000)
        });
        assert_ne!(k, other.cache_key().unwrap());
        assert_eq!(k, tiny_mcb().cache_key().unwrap());
    }

    #[test]
    fn measurement_round_trips_through_json() {
        let p = plat();
        let m = p.run(&tiny_mcb(), 2, InterferenceMix::storage(1)).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: Measurement = serde_json::from_str(&json).unwrap();
        assert_eq!(back.mix, m.mix);
        assert_eq!(back.seconds.to_bits(), m.seconds.to_bits());
        assert_eq!(back.report.wall_cycles, m.report.wall_cycles);
        assert_eq!(back.report.jobs.len(), m.report.jobs.len());
    }
}
