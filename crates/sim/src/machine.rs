//! High-level machine handle: allocation + runs.
//!
//! A [`Machine`] owns a configuration and a simulated physical address
//! space. Workload constructors call [`Machine::alloc`] to obtain buffers,
//! then [`Machine::run`] executes a set of placed jobs over a *fresh* (cold)
//! cache hierarchy — exactly like launching processes on a quiesced node.
//! Warm-up is the workload's responsibility, as it is in the paper (probes
//! run `N_ACCESS >> buffer size` and measurements skip the warm phase).

use crate::alloc::AddrAlloc;
use crate::config::MachineConfig;
use crate::engine::{Engine, Job, RunLimit, RunReport};

/// A simulated node.
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: MachineConfig,
    alloc: AddrAlloc,
}

impl Machine {
    pub fn new(cfg: MachineConfig) -> Self {
        Self {
            cfg,
            alloc: AddrAlloc::new(),
        }
    }

    /// The machine's configuration.
    pub fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Allocate a page-aligned buffer of `bytes`, returning its base
    /// address. Buffers persist across runs (the address space is the
    /// machine's, not the run's).
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        self.alloc.alloc(bytes)
    }

    /// Total bytes allocated so far.
    pub fn allocated(&self) -> u64 {
        self.alloc.allocated()
    }

    /// Run jobs to completion over a cold hierarchy.
    pub fn run(&mut self, jobs: Vec<Job>, limit: RunLimit) -> RunReport {
        Engine::new(&self.cfg, jobs).run(&limit)
    }

    /// Like [`Machine::run`], with an epoch-boundary resource controller
    /// attached (see [`crate::control`]). The controller is borrowed
    /// mutably for the run, so its accumulated state — slowdown estimates,
    /// decision logs — is available to the caller afterwards.
    pub fn run_controlled(
        &mut self,
        jobs: Vec<Job>,
        limit: RunLimit,
        controller: &mut dyn crate::control::EpochController,
    ) -> RunReport {
        Engine::new(&self.cfg, jobs)
            .with_controller(controller)
            .run(&limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreId;
    use crate::stream::{Op, ScriptStream};

    #[test]
    fn machine_allocates_and_runs() {
        let mut m = Machine::new(MachineConfig::xeon20mb().scaled(0.125));
        let a = m.alloc(4096);
        let b = m.alloc(4096);
        assert_ne!(a, b);
        let ops = vec![Op::Load(a), Op::Load(b), Op::Compute(0)];
        let r = m.run(
            vec![Job::primary(
                Box::new(ScriptStream::new(ops)),
                CoreId::new(0, 0),
            )],
            RunLimit::default(),
        );
        assert!(r.jobs[0].done);
        assert_eq!(r.jobs[0].counters.loads, 2);
    }

    #[test]
    fn runs_start_cold() {
        let mut m = Machine::new(MachineConfig::xeon20mb().scaled(0.125));
        let a = m.alloc(4096);
        let mk = || vec![Op::Load(a), Op::Compute(0)];
        let r1 = m.run(
            vec![Job::primary(
                Box::new(ScriptStream::new(mk())),
                CoreId::new(0, 0),
            )],
            RunLimit::default(),
        );
        let r2 = m.run(
            vec![Job::primary(
                Box::new(ScriptStream::new(mk())),
                CoreId::new(0, 0),
            )],
            RunLimit::default(),
        );
        // Identical cold-start behaviour: the second run misses again.
        assert_eq!(r1.jobs[0].counters.l3_misses, 1);
        assert_eq!(r2.jobs[0].counters.l3_misses, 1);
    }
}
