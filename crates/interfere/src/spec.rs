//! Abstract interference levels and their placement on free cores.
//!
//! The paper's experiments are parameterized by "k CSThrs" or "k BWThrs"
//! *per processor*: the interference threads run on the cores of each
//! socket that the application leaves free, so that they compete only for
//! the shared resources (L3 storage, memory channel) and not for the
//! application's own cores.

use amem_sim::config::CoreId;
use amem_sim::engine::Job;
use amem_sim::machine::Machine;
use serde::{Deserialize, Serialize};

use crate::bw::{BwThread, BwThreadCfg};
use crate::cs::{CsThread, CsThreadCfg};

/// Which resource the interference targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InterferenceKind {
    /// CSThr: shared-cache storage capacity.
    Storage,
    /// BWThr: LLC↔DRAM bandwidth.
    Bandwidth,
}

/// "k interference threads of one kind on every occupied socket."
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterferenceSpec {
    pub kind: InterferenceKind,
    /// Threads per socket (the x-axis of the paper's figures).
    pub count: usize,
}

impl InterferenceSpec {
    /// No interference at all (the baseline run).
    pub fn none() -> Self {
        Self {
            kind: InterferenceKind::Storage,
            count: 0,
        }
    }

    /// `k` CSThrs per socket.
    pub fn storage(k: usize) -> Self {
        Self {
            kind: InterferenceKind::Storage,
            count: k,
        }
    }

    /// `k` BWThrs per socket.
    pub fn bandwidth(k: usize) -> Self {
        Self {
            kind: InterferenceKind::Bandwidth,
            count: k,
        }
    }

    /// Build background jobs on `free_cores`, taking the first `count`
    /// free cores *of each socket* present in the list.
    ///
    /// Panics if any socket in the list has fewer than `count` free cores
    /// — the same physical impossibility that makes some mapping ×
    /// interference combinations in the paper's Fig. 9 inexecutable.
    pub fn build_jobs(&self, machine: &mut Machine, free_cores: &[CoreId]) -> Vec<Job> {
        if self.count == 0 {
            return Vec::new();
        }
        let mut sockets: Vec<u32> = free_cores.iter().map(|c| c.socket).collect();
        sockets.sort_unstable();
        sockets.dedup();
        let mut jobs = Vec::new();
        let mut seed = 0x1F_EED0u64;
        for &s in &sockets {
            let on_socket: Vec<CoreId> = free_cores
                .iter()
                .copied()
                .filter(|c| c.socket == s)
                .collect();
            assert!(
                on_socket.len() >= self.count,
                "socket {s} has only {} free cores for {} interference threads",
                on_socket.len(),
                self.count
            );
            for &core in on_socket.iter().take(self.count) {
                seed = seed
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(core.core as u64);
                let stream: Box<dyn amem_sim::AccessStream> = match self.kind {
                    InterferenceKind::Storage => {
                        let cfg = CsThreadCfg::for_machine(machine.cfg()).with_seed(seed);
                        Box::new(CsThread::new(machine, &cfg))
                    }
                    InterferenceKind::Bandwidth => {
                        let cfg = BwThreadCfg::for_machine(machine.cfg());
                        Box::new(BwThread::new(machine, &cfg))
                    }
                };
                jobs.push(Job::background(stream, core));
            }
        }
        jobs
    }

    /// Human-readable level, e.g. `"3 CSThr"`.
    pub fn describe(&self) -> String {
        match self.kind {
            InterferenceKind::Storage => format!("{} CSThr", self.count),
            InterferenceKind::Bandwidth => format!("{} BWThr", self.count),
        }
    }
}

/// Simultaneous storage *and* bandwidth interference: `storage` CSThrs
/// plus `bandwidth` BWThrs per socket. The paper measures one resource at
/// a time and composes degradations; a mixed run tests that composition
/// directly (see `repro combined` in amem-bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterferenceMix {
    pub storage: usize,
    pub bandwidth: usize,
}

impl InterferenceMix {
    pub fn new(storage: usize, bandwidth: usize) -> Self {
        Self { storage, bandwidth }
    }

    /// No interference at all (the baseline run). All baselines are the
    /// same mix regardless of which resource a sweep targets — which is
    /// what lets the measurement cache share one baseline simulation
    /// between a storage sweep and a bandwidth sweep.
    pub fn none() -> Self {
        Self::new(0, 0)
    }

    /// `k` CSThrs per socket, no BWThrs.
    pub fn storage(k: usize) -> Self {
        Self::new(k, 0)
    }

    /// `k` BWThrs per socket, no CSThrs.
    pub fn bandwidth(k: usize) -> Self {
        Self::new(0, k)
    }

    /// `k` threads of one kind per socket (how sweeps build their levels).
    pub fn of_kind(kind: InterferenceKind, k: usize) -> Self {
        match kind {
            InterferenceKind::Storage => Self::storage(k),
            InterferenceKind::Bandwidth => Self::bandwidth(k),
        }
    }

    /// Whether this is the zero-interference baseline.
    pub fn is_baseline(&self) -> bool {
        self.threads() == 0
    }

    /// Total threads required per socket.
    pub fn threads(&self) -> usize {
        self.storage + self.bandwidth
    }

    /// Build background jobs: CSThrs take the first free cores of each
    /// socket, BWThrs the next ones. Panics if a socket lacks
    /// `threads()` free cores.
    pub fn build_jobs(&self, machine: &mut Machine, free_cores: &[CoreId]) -> Vec<Job> {
        if self.threads() == 0 {
            return Vec::new();
        }
        let mut sockets: Vec<u32> = free_cores.iter().map(|c| c.socket).collect();
        sockets.sort_unstable();
        sockets.dedup();
        let mut jobs = Vec::new();
        let mut seed = 0x4D31_5ED0u64;
        for &s in &sockets {
            let on_socket: Vec<CoreId> = free_cores
                .iter()
                .copied()
                .filter(|c| c.socket == s)
                .collect();
            assert!(
                on_socket.len() >= self.threads(),
                "socket {s} has only {} free cores for {} mixed threads",
                on_socket.len(),
                self.threads()
            );
            for (i, &core) in on_socket.iter().take(self.threads()).enumerate() {
                seed = seed
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(core.core as u64);
                let stream: Box<dyn amem_sim::AccessStream> = if i < self.storage {
                    let cfg = CsThreadCfg::for_machine(machine.cfg()).with_seed(seed);
                    Box::new(CsThread::new(machine, &cfg))
                } else {
                    let cfg = BwThreadCfg::for_machine(machine.cfg());
                    Box::new(BwThread::new(machine, &cfg))
                };
                jobs.push(Job::background(stream, core));
            }
        }
        jobs
    }

    /// Human-readable level: single-kind mixes render like an
    /// [`InterferenceSpec`] (`"3 CSThr"`), true mixes spell out both.
    pub fn describe(&self) -> String {
        match (self.storage, self.bandwidth) {
            (s, 0) => format!("{s} CSThr"),
            (0, b) => format!("{b} BWThr"),
            (s, b) => format!("{s} CSThr + {b} BWThr"),
        }
    }
}

/// An [`InterferenceSpec`] is just a one-kind mix.
impl From<InterferenceSpec> for InterferenceMix {
    fn from(spec: InterferenceSpec) -> Self {
        Self::of_kind(spec.kind, spec.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amem_sim::prelude::*;

    #[test]
    fn zero_count_builds_nothing() {
        let mut m = Machine::new(MachineConfig::xeon20mb().scaled(0.125));
        let jobs = InterferenceSpec::none().build_jobs(&mut m, &[CoreId::new(0, 1)]);
        assert!(jobs.is_empty());
    }

    #[test]
    fn per_socket_placement() {
        let mut m = Machine::new(MachineConfig::xeon20mb().scaled(0.125));
        let free: Vec<CoreId> = (2..8)
            .map(|c| CoreId::new(0, c))
            .chain((2..8).map(|c| CoreId::new(1, c)))
            .collect();
        let jobs = InterferenceSpec::storage(3).build_jobs(&mut m, &free);
        assert_eq!(jobs.len(), 6, "3 per socket × 2 sockets");
        assert!(jobs.iter().all(|j| !j.primary));
        let s0 = jobs.iter().filter(|j| j.core.socket == 0).count();
        assert_eq!(s0, 3);
    }

    #[test]
    #[should_panic]
    fn too_few_free_cores_panics() {
        let mut m = Machine::new(MachineConfig::xeon20mb().scaled(0.125));
        let free = vec![CoreId::new(0, 6), CoreId::new(0, 7)];
        let _ = InterferenceSpec::bandwidth(3).build_jobs(&mut m, &free);
    }

    #[test]
    fn describe_strings() {
        assert_eq!(InterferenceSpec::storage(4).describe(), "4 CSThr");
        assert_eq!(InterferenceSpec::bandwidth(2).describe(), "2 BWThr");
        assert_eq!(InterferenceMix::new(3, 2).describe(), "3 CSThr + 2 BWThr");
        assert_eq!(InterferenceMix::storage(3).describe(), "3 CSThr");
        assert_eq!(InterferenceMix::bandwidth(2).describe(), "2 BWThr");
    }

    #[test]
    fn spec_converts_to_single_kind_mix() {
        let m: InterferenceMix = InterferenceSpec::storage(4).into();
        assert_eq!(m, InterferenceMix::new(4, 0));
        let m: InterferenceMix = InterferenceSpec::bandwidth(2).into();
        assert_eq!(m, InterferenceMix::new(0, 2));
        let m: InterferenceMix = InterferenceSpec::none().into();
        assert!(m.is_baseline());
        assert_eq!(m, InterferenceMix::none());
    }

    #[test]
    fn baselines_of_both_kinds_are_identical() {
        // The cache relies on this: a storage sweep's k=0 and a bandwidth
        // sweep's k=0 must be the *same* measurement.
        assert_eq!(
            InterferenceMix::of_kind(InterferenceKind::Storage, 0),
            InterferenceMix::of_kind(InterferenceKind::Bandwidth, 0),
        );
        assert!(InterferenceMix::none().is_baseline());
        assert!(!InterferenceMix::storage(1).is_baseline());
    }

    #[test]
    fn mix_places_both_kinds() {
        let mut m = Machine::new(MachineConfig::xeon20mb().scaled(0.125));
        let free: Vec<CoreId> = (1..8).map(|c| CoreId::new(0, c)).collect();
        let jobs = InterferenceMix::new(2, 3).build_jobs(&mut m, &free);
        assert_eq!(jobs.len(), 5);
        let labels: Vec<&str> = jobs.iter().map(|j| j.stream.label()).collect();
        assert_eq!(labels.iter().filter(|l| **l == "CSThr").count(), 2);
        assert_eq!(labels.iter().filter(|l| **l == "BWThr").count(), 3);
    }

    #[test]
    fn empty_mix_builds_nothing() {
        let mut m = Machine::new(MachineConfig::xeon20mb().scaled(0.125));
        let jobs = InterferenceMix::new(0, 0).build_jobs(&mut m, &[CoreId::new(0, 1)]);
        assert!(jobs.is_empty());
    }
}
