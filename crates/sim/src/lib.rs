//! # amem-sim — deterministic multicore memory-hierarchy simulator
//!
//! This crate is the hardware substrate for the `active-mem` workspace, a
//! reproduction of *Casas & Bronevetsky, "Active Measurement of Memory
//! Resource Consumption", IPDPS 2014*. The paper ran on real 2-socket Intel
//! Xeon E5-2670 nodes ("Xeon20MB"); this crate replaces that silicon with a
//! deterministic, cycle-approximate simulator so every experiment in the
//! paper can be regenerated bit-for-bit on any machine.
//!
//! The simulator models exactly the mechanisms the paper's methodology
//! exercises:
//!
//! * **Set-associative caches** with configurable replacement and insertion
//!   policies ([`cache`]): private L1/L2 per core, one shared L3 per socket,
//!   inclusive with back-invalidation (how a cache-storage interference
//!   thread really evicts a victim's private-cache lines on Xeon).
//! * **A finite-bandwidth DRAM channel** per socket ([`dram`]) whose queueing
//!   delay *is* the bandwidth-contention mechanism that BWThr exploits.
//! * **A stride prefetcher** per core ([`prefetch`]) so streaming workloads
//!   (STREAM, Lulesh sweeps, BWThr's constant stride) use up extra bandwidth
//!   exactly as the paper describes.
//! * **An MLP-aware execution engine** ([`engine`]) interleaving per-core
//!   instruction streams with support for data-dependency barriers
//!   (`Compute`), BSP barriers (`Barrier`) and cross-node transfers
//!   (`RemoteXfer`).
//! * **Hardware-counter equivalents** ([`counters`]): per-core hit/miss/byte
//!   counts sampled exactly like the PMU reads the paper relies on (Eq. 1).
//!
//! Workloads implement [`stream::AccessStream`] and are placed on cores via
//! [`machine::Machine::run`]. Everything is single-threaded and seeded: two
//! runs with identical inputs produce identical counters.
//!
//! ```
//! use amem_sim::prelude::*;
//!
//! // A toy stream: walk 1 MiB sequentially, twice.
//! struct Walk { base: u64, i: u64, n: u64 }
//! impl AccessStream for Walk {
//!     fn next_op(&mut self) -> Op {
//!         if self.i == 2 * self.n { return Op::Done; }
//!         let a = self.base + (self.i % self.n) * 8;
//!         self.i += 1;
//!         Op::Load(a)
//!     }
//! }
//!
//! let mut m = Machine::new(MachineConfig::xeon20mb().scaled(0.125));
//! let base = m.alloc(1 << 20);
//! let jobs = vec![Job::primary(Box::new(Walk { base, i: 0, n: 1 << 17 }), CoreId::new(0, 0))];
//! let report = m.run(jobs, RunLimit::default());
//! assert!(report.jobs[0].done);
//! assert!(report.jobs[0].counters.loads == 1 << 18);
//! ```

pub mod alloc;
pub mod cache;
pub mod cluster;
pub mod config;
pub mod control;
pub mod counters;
pub mod dram;
pub mod energy;
pub mod engine;
pub mod fingerprint;
pub mod machine;
pub mod prefetch;
pub mod rng;
mod setscan;
pub mod stackdist;
pub mod stream;
pub mod telemetry;
pub mod tlb;
pub mod trace;

/// Convenient glob-import of the types almost every user needs.
pub mod prelude {
    pub use crate::config::{CacheConfig, CoreId, MachineConfig};
    pub use crate::counters::CoreCounters;
    pub use crate::engine::{Job, RunLimit, RunReport};
    pub use crate::machine::Machine;
    pub use crate::rng::Xoshiro256;
    pub use crate::stream::{AccessStream, Op, OpQueue};
    pub use crate::telemetry::{Sample, SpanEvent, Telemetry};
}

pub use config::{CacheConfig, CoreId, MachineConfig};
pub use control::{Actuation, CoreView, EpochController, Knob, NullController};
pub use counters::CoreCounters;
pub use dram::{LineThrottle, ThrottleCfg};
pub use engine::{EventSignature, Job, JobReport, RunLimit, RunReport, SocketReport};
pub use fingerprint::{canonical_json, fingerprint, fingerprint_hex};
pub use machine::Machine;
pub use stream::{AccessStream, Op, OpQueue};
pub use telemetry::{Sample, SpanEvent, Telemetry};
