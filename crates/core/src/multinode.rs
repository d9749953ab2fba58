//! Multi-node scale-out: estimate whole-job behaviour from per-node
//! simulations.
//!
//! The paper's jobs span 2–32 nodes; this crate's engine simulates one
//! node in full architectural detail. For bulk-synchronous jobs the
//! whole-job completion time is governed by the *slowest* node — so we
//! simulate every node (same workload shard, per-node seed salts so
//! interference and Monte Carlo streams differ) and combine: job time =
//! max over nodes, plus the spread statistics that quantify how much the
//! max exceeds the mean (the scale-out cost the noise-amplification
//! analysis predicts).
//!
//! This is a deliberate approximation: inter-node coupling *within* a
//! step is already charged to each rank via `RemoteXfer`; what the
//! composition adds is the cross-node straggler effect at job
//! granularity. DESIGN.md discusses the fidelity boundary.

use amem_sim::config::MachineConfig;
use amem_sim::engine::{Job, RunLimit, RunReport};
use amem_sim::machine::Machine;
use serde::Serialize;

use crate::par_map;

/// Per-node outcome plus the combined estimate.
#[derive(Debug, Clone, Serialize)]
pub struct MultiNodeReport {
    /// Seconds per node, in node order.
    pub node_seconds: Vec<f64>,
    /// The job estimate: slowest node.
    pub job_seconds: f64,
    pub mean_seconds: f64,
    /// max/mean — 1: the straggler overhead.
    pub imbalance: f64,
}

/// Run `nodes` instances of a node-level job set. `build` receives the
/// node index and a fresh machine, and returns that node's jobs (use the
/// index to salt seeds).
pub fn run_nodes<F>(cfg: &MachineConfig, nodes: usize, build: F) -> MultiNodeReport
where
    F: Fn(usize, &mut Machine) -> Vec<Job> + Sync,
{
    assert!(nodes >= 1);
    let reports: Vec<RunReport> = par_map(0..nodes, |n| {
        let mut m = Machine::new(cfg.clone());
        let jobs = build(n, &mut m);
        m.run(jobs, RunLimit::default())
    });
    let node_seconds: Vec<f64> = reports.iter().map(|r| r.primary_seconds(cfg)).collect();
    let job_seconds = node_seconds.iter().cloned().fold(0.0, f64::max);
    let mean = node_seconds.iter().sum::<f64>() / nodes as f64;
    MultiNodeReport {
        job_seconds,
        mean_seconds: mean,
        imbalance: if mean > 0.0 {
            job_seconds / mean - 1.0
        } else {
            0.0
        },
        node_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::{NoiseCfg, NoisyStream};
    use amem_sim::config::CoreId;
    use amem_sim::stream::{Op, ScriptStream};

    fn cfg() -> MachineConfig {
        MachineConfig::xeon20mb().scaled(0.0625)
    }

    fn work(n_ops: usize) -> ScriptStream {
        ScriptStream::new(vec![Op::Compute(50); n_ops])
    }

    #[test]
    fn identical_nodes_have_zero_imbalance() {
        let r = run_nodes(&cfg(), 4, |_, _m| {
            vec![Job::primary(Box::new(work(1000)), CoreId::new(0, 0))]
        });
        assert_eq!(r.node_seconds.len(), 4);
        assert!(r.imbalance.abs() < 1e-12);
        assert_eq!(r.job_seconds, r.mean_seconds);
    }

    #[test]
    fn job_time_is_the_slowest_node() {
        let r = run_nodes(&cfg(), 3, |n, _m| {
            vec![Job::primary(
                Box::new(work(1000 * (n + 1))),
                CoreId::new(0, 0),
            )]
        });
        assert_eq!(r.job_seconds, r.node_seconds[2]);
        assert!(r.imbalance > 0.3);
    }

    #[test]
    fn noisy_nodes_straggle_more_with_scale() {
        let noise = NoiseCfg {
            rate: 2e-3,
            mean_cycles: 20_000.0,
            seed: 3,
        };
        let run = |nodes: usize| {
            run_nodes(&cfg(), nodes, |n, _m| {
                vec![Job::primary(
                    Box::new(NoisyStream::new(work(4000), noise, n as u64 + 1)),
                    CoreId::new(0, 0),
                )]
            })
        };
        let small = run(2);
        let large = run(12);
        // More nodes -> the max of more noise draws -> worse straggling.
        assert!(
            large.job_seconds >= small.job_seconds,
            "{} vs {}",
            large.job_seconds,
            small.job_seconds
        );
        assert!(large.imbalance >= 0.0);
    }

    #[test]
    fn per_node_seeds_differentiate_interference() {
        use amem_interfere::{CsThread, CsThreadCfg};
        // Different node salts must produce different (but deterministic)
        // node times when workloads are seed-sensitive.
        let mk = |salt: u64| {
            run_nodes(&cfg(), 2, |n, m| {
                let cs = CsThread::new(
                    m,
                    &CsThreadCfg {
                        rounds: Some(50_000),
                        ..CsThreadCfg::for_machine(&cfg()).with_seed(salt + n as u64)
                    },
                );
                vec![Job::primary(Box::new(cs), CoreId::new(0, 0))]
            })
        };
        let a = mk(1);
        let b = mk(1);
        assert_eq!(a.node_seconds, b.node_seconds, "deterministic");
    }
}
