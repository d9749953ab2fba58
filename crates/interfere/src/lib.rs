#![forbid(unsafe_code)]
//! # amem-interfere — the paper's interference threads
//!
//! Implements the two interference workloads of *Casas & Bronevetsky,
//! IPDPS 2014*:
//!
//! * [`bw::BwThread`] — **BWThr** (paper Fig. 2): saturates the bandwidth
//!   between the shared L3 and main memory by walking many buffers with a
//!   large-prime stride, so that (nearly) every access misses the whole
//!   hierarchy. One BWThr consumes ≈2.8 GB/s on the Xeon20MB machine;
//!   seven saturate its ≈17 GB/s.
//! * [`cs::CsThread`] — **CSThr** (paper Fig. 3): occupies a fixed fraction
//!   of shared-cache storage by randomly re-touching a buffer of a chosen
//!   size, denying that capacity to co-running applications while using
//!   almost no memory bandwidth.
//!
//! Both are deterministic simulator streams ([`amem_sim::AccessStream`]),
//! used by every reproduction experiment; `examples/native_interference.rs`
//! runs the same two loop bodies as real host threads.
//!
//! [`spec::InterferenceSpec`] describes "k storage threads" / "k bandwidth
//! threads" abstractly and places them on free cores; [`calibrate`]
//! measures what each level of interference actually consumes (Eq. 1 for
//! bandwidth, resident-line occupancy for storage).

pub mod bw;
pub mod calibrate;
pub mod cs;
pub mod latency;
pub mod spec;

pub use bw::{BwThread, BwThreadCfg};
pub use cs::{CsThread, CsThreadCfg};
pub use spec::{InterferenceKind, InterferenceMix, InterferenceSpec};
