//! The sharded executor pool.
//!
//! Each shard owns the `Executor`s for the request keys routed to it
//! (`fnv1a(route_key) % shards`, the same content hash the cache layer
//! uses). Routing by request content — not by connection — is what
//! generalizes the executor's in-flight dedup across the whole service:
//! two clients on different connections submitting the same sweep hash
//! to the same shard, reach the *same* `Executor` instance, and the
//! second joins the first's in-flight simulation instead of repeating it.
//!
//! Within a shard, executors are keyed by platform identity (machine
//! config, compared by value, + fault spec): the executor's own cache
//! keys already encode machine and workload, so sharing one executor
//! across workloads is safe, but a fault-injected platform must never
//! serve clean requests.
//! All executors share the daemon's one cache directory, making every
//! disk entry visible fleet-wide.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use amem_core::fault::{FaultSpec, FaultyPlatform};
use amem_core::platform::SimPlatform;
use amem_core::{AmemError, CacheStats, Executor};
use amem_sim::config::MachineConfig;
use amem_sim::fingerprint::fnv1a;

use crate::protocol::JobSpec;

/// One executor per platform identity: the machine, compared by value,
/// and the fault spec as the request wrote it.
type Identity = (MachineConfig, Option<String>, Arc<Executor>);

struct Shard {
    executors: Mutex<Vec<Identity>>,
}

impl Shard {
    fn lock(&self) -> MutexGuard<'_, Vec<Identity>> {
        // Poison-tolerant, like every lock in the daemon: a job that
        // panicked while touching this map must not take the shard down.
        self.executors.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// All shards plus the cache directory their executors share.
pub struct ShardPool {
    shards: Vec<Shard>,
    cache_dir: Option<PathBuf>,
    /// The platform identity of curve jobs, which carry no machine.
    curve_machine: MachineConfig,
}

impl ShardPool {
    /// `cache_dir = None` builds memory-only executors (tests; nothing
    /// persists, dedup still spans connections).
    pub fn new(shards: usize, cache_dir: Option<PathBuf>) -> Self {
        let n = shards.max(1);
        Self {
            shards: (0..n)
                .map(|_| Shard {
                    executors: Mutex::new(Vec::new()),
                })
                .collect(),
            cache_dir,
            curve_machine: MachineConfig::xeon20mb(),
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a job's request key routes to.
    pub fn route(&self, spec: &JobSpec) -> usize {
        self.shard_of(&spec.route_key())
    }

    fn shard_of(&self, route_key: &str) -> usize {
        (fnv1a(route_key.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// The shard-owned executor for this job, created on first use, on
    /// the shard `route_key` — `spec.route_key()`, passed in so a caller
    /// that built it from a workload key it holds prints nothing twice —
    /// routes to. Identical (machine, fault) requests on one shard always
    /// get the same instance — that identity is the cross-connection
    /// dedup.
    pub fn executor(
        &self,
        spec: &JobSpec,
        route_key: &str,
        fault: Option<&str>,
    ) -> Result<Arc<Executor>, AmemError> {
        // Curve jobs carry no machine: the traversal is a pure function
        // of the request. Any platform identity works; keep them all on
        // one so curve dedup spans connections too.
        let machine = spec.machine().unwrap_or(&self.curve_machine);
        let fault_spec = fault.map(FaultSpec::parse).transpose()?;
        let mut executors = self.shards[self.shard_of(route_key)].lock();
        let same = |(m, f, _): &&Identity| m == machine && f.as_deref() == fault;
        if let Some((.., exec)) = executors.iter().find(same) {
            return Ok(Arc::clone(exec));
        }
        let platform = SimPlatform::new(machine.clone());
        let exec = match fault_spec {
            // Fault-injected platforms report non-deterministic, so the
            // executor never caches (or cross-caches) injected results.
            Some(fs) => self.build(FaultyPlatform::new(platform, fs)),
            None => self.build(platform),
        };
        let exec = Arc::new(exec);
        executors.push((machine.clone(), fault.map(str::to_owned), Arc::clone(&exec)));
        Ok(exec)
    }

    fn build(&self, platform: impl amem_core::Platform + 'static) -> Executor {
        match &self.cache_dir {
            Some(dir) => Executor::with_cache_dir(platform, dir.clone()),
            None => Executor::memory_only(platform),
        }
    }

    /// Aggregate cache stats across every executor on every shard, plus
    /// the executor count. This is the service-wide hit rate the daemon
    /// exports.
    pub fn aggregate_stats(&self) -> (CacheStats, usize) {
        let mut total = CacheStats::default();
        let mut count = 0usize;
        for shard in &self.shards {
            for (.., exec) in shard.lock().iter() {
                total.merge(&exec.stats());
                count += 1;
            }
        }
        (total, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WorkloadSpec;
    use amem_interfere::{InterferenceKind, InterferenceMix};

    fn cfg() -> MachineConfig {
        MachineConfig::xeon20mb().scaled(0.0625)
    }

    /// The executor `spec` routes to, as the daemon's run path finds it.
    fn executor(
        pool: &ShardPool,
        spec: &JobSpec,
        fault: Option<&str>,
    ) -> Result<Arc<Executor>, AmemError> {
        pool.executor(spec, &spec.route_key(), fault)
    }

    fn sweep_spec(max_count: usize) -> JobSpec {
        JobSpec::Sweep {
            machine: cfg(),
            workload: WorkloadSpec::Probe(amem_core::figures::fig1_probe(&cfg())),
            per_processor: 1,
            kind: InterferenceKind::Storage,
            max_count,
        }
    }

    #[test]
    fn identical_requests_share_one_executor_instance() {
        let pool = ShardPool::new(4, None);
        let a = executor(&pool, &sweep_spec(5), None).unwrap();
        let b = executor(&pool, &sweep_spec(5), None).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "same request key, same shard, same executor — that IS the dedup"
        );
        // A sweep over the same workload at a different extent still
        // routes to the same executor (extent is not in the route key).
        let c = executor(&pool, &sweep_spec(3), None).unwrap();
        assert!(Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn fault_injected_requests_get_a_separate_executor() {
        let pool = ShardPool::new(4, None);
        let clean = executor(&pool, &sweep_spec(5), None).unwrap();
        let faulty = executor(&pool, &sweep_spec(5), Some("seed=1,error=1.0")).unwrap();
        assert!(
            !Arc::ptr_eq(&clean, &faulty),
            "a fault-injected platform must never serve clean requests"
        );
        assert!(executor(&pool, &sweep_spec(5), Some("bogus=1")).is_err());
    }

    #[test]
    fn measure_points_route_to_their_sweeps_executor() {
        let pool = ShardPool::new(8, None);
        let point = JobSpec::Measure {
            machine: cfg(),
            workload: WorkloadSpec::Probe(amem_core::figures::fig1_probe(&cfg())),
            per_processor: 1,
            mix: InterferenceMix::storage(2),
        };
        assert_eq!(pool.route(&point), pool.route(&sweep_spec(5)));
        let a = executor(&pool, &point, None).unwrap();
        let b = executor(&pool, &sweep_spec(5), None).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    /// The route leaves the machine out, so jobs for two machines can
    /// share a shard; the shard still keeps one executor per machine,
    /// compared by value.
    #[test]
    fn a_shard_keeps_one_executor_per_machine() {
        let pool = ShardPool::new(4, None);
        let calibrate = |machine| JobSpec::Calibrate { machine, max_cs: 2 };
        let small = calibrate(cfg());
        let large = calibrate(MachineConfig::xeon20mb().scaled(0.125));
        assert_eq!(pool.route(&small), pool.route(&large));
        let a = executor(&pool, &small, None).unwrap();
        let b = executor(&pool, &large, None).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.platform().cfg(), &cfg());
        assert_eq!(b.platform().cfg(), &MachineConfig::xeon20mb().scaled(0.125));
        let again = executor(&pool, &calibrate(cfg()), None).unwrap();
        assert!(
            Arc::ptr_eq(&a, &again),
            "an equal machine, the same executor"
        );
        assert_eq!(pool.aggregate_stats().1, 2);
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let pool = ShardPool::new(2, None);
        // No executor yet: all zeros and — on the wire — `"curves":null`.
        assert_eq!(pool.aggregate_stats(), (CacheStats::default(), 0));
        let exec = executor(&pool, &sweep_spec(2), None).unwrap();
        let w = WorkloadSpec::Probe(amem_core::figures::fig1_probe(&cfg())).build();
        exec.run(w.as_ref(), 1, InterferenceMix::none()).unwrap();
        exec.run(w.as_ref(), 1, InterferenceMix::none()).unwrap();
        let (stats, execs) = pool.aggregate_stats();
        assert_eq!(execs, 1);
        assert_eq!(stats.sim_runs, 1);
        assert_eq!(stats.mem_hits, 1);
        assert_eq!(stats.curves, Some(Default::default()));
    }
}
