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
//! config + fault spec): the executor's own cache keys already encode
//! machine and workload, so sharing one executor across workloads is
//! safe, but a fault-injected platform must never serve clean requests.
//! All executors share the daemon's one cache directory, making every
//! disk entry visible fleet-wide.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use amem_core::fault::{FaultSpec, FaultyPlatform};
use amem_core::platform::SimPlatform;
use amem_core::{AmemError, CacheStats, Executor};
use amem_sim::config::MachineConfig;
use amem_sim::fingerprint::fnv1a;

use crate::protocol::JobSpec;

struct Shard {
    executors: Mutex<HashMap<String, Arc<Executor>>>,
}

impl Shard {
    fn lock(&self) -> MutexGuard<'_, HashMap<String, Arc<Executor>>> {
        // Poison-tolerant, like every lock in the daemon: a job that
        // panicked while touching this map must not take the shard down.
        self.executors.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// All shards plus the cache directory their executors share.
pub struct ShardPool {
    shards: Vec<Shard>,
    cache_dir: Option<PathBuf>,
}

impl ShardPool {
    /// `cache_dir = None` builds memory-only executors (tests; nothing
    /// persists, dedup still spans connections).
    pub fn new(shards: usize, cache_dir: Option<PathBuf>) -> Self {
        let n = shards.max(1);
        Self {
            shards: (0..n)
                .map(|_| Shard {
                    executors: Mutex::new(HashMap::new()),
                })
                .collect(),
            cache_dir,
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

    /// The shard-owned executor for this job, created on first use.
    /// Identical (machine, fault) requests on one shard always get the
    /// same instance — that identity is the cross-connection dedup.
    pub fn executor(
        &self,
        spec: &JobSpec,
        fault: Option<&str>,
    ) -> Result<Arc<Executor>, AmemError> {
        // Curve jobs carry no machine: the traversal is a pure function
        // of the request. Any platform identity works; keep them all on
        // one so curve dedup spans connections too.
        let curve_machine;
        let machine = match spec.machine() {
            Some(machine) => machine,
            None => {
                curve_machine = MachineConfig::xeon20mb();
                &curve_machine
            }
        };
        let fault_spec = fault.map(FaultSpec::parse).transpose()?;
        // The machine's JSON is most of both keys: print it once.
        let machine_json = amem_sim::canonical_json(machine);
        let shard = &self.shards[self.shard_of(&spec.route_key_with(&machine_json))];
        let identity = format!("{machine_json}|fault={}", fault.unwrap_or("-"));
        let mut executors = shard.lock();
        if let Some(exec) = executors.get(&identity) {
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
        executors.insert(identity, Arc::clone(&exec));
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
            for exec in shard.lock().values() {
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
        let a = pool.executor(&sweep_spec(5), None).unwrap();
        let b = pool.executor(&sweep_spec(5), None).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "same request key, same shard, same executor — that IS the dedup"
        );
        // A sweep over the same workload at a different extent still
        // routes to the same executor (extent is not in the route key).
        let c = pool.executor(&sweep_spec(3), None).unwrap();
        assert!(Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn fault_injected_requests_get_a_separate_executor() {
        let pool = ShardPool::new(4, None);
        let clean = pool.executor(&sweep_spec(5), None).unwrap();
        let faulty = pool
            .executor(&sweep_spec(5), Some("seed=1,error=1.0"))
            .unwrap();
        assert!(
            !Arc::ptr_eq(&clean, &faulty),
            "a fault-injected platform must never serve clean requests"
        );
        assert!(pool.executor(&sweep_spec(5), Some("bogus=1")).is_err());
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
        let a = pool.executor(&point, None).unwrap();
        let b = pool.executor(&sweep_spec(5), None).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let pool = ShardPool::new(2, None);
        // No executor yet: all zeros and — on the wire — `"curves":null`.
        assert_eq!(pool.aggregate_stats(), (CacheStats::default(), 0));
        let exec = pool.executor(&sweep_spec(2), None).unwrap();
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
