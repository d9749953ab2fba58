#![forbid(unsafe_code)]
//! # amem-probes — synthetic benchmarks with analytically known hit rates
//!
//! Implements §III-C of *Casas & Bronevetsky, IPDPS 2014*:
//!
//! * [`dist`] — the probabilistic access distributions of Table II
//!   (Normal, Exponential, Triangular, Uniform at several spreads), with
//!   exact CDFs so the same object both drives the benchmark and feeds the
//!   analytic model.
//! * [`probe`] — the Fig. 4 benchmark skeleton: `N_ACCESS` random reads
//!   from a buffer, each followed by 1/10/100 integer additions.
//! * [`ehr`] — the paper's Eq. 4: `EHR = C · Σᵢ f(i)²` for a fully
//!   associative cache of capacity `C`, and its inverse, which converts a
//!   *measured* miss rate into an *effective cache capacity* — the tool
//!   that calibrates how much storage CSThr interference really steals.
//! * [`trace`] — machine-free line traces of the probe (exact replay and
//!   spatially-sampled direct generation) feeding the single-pass
//!   miss-ratio-curve engine in `amem_sim::stackdist`.
//! * [`stream`] — a STREAM-style triad used to measure the machine's peak
//!   memory bandwidth (the paper's quoted 17 GB/s for Xeon20MB).
//! * [`xray`] — automatic measurement of hierarchy parameters via
//!   dependent pointer chases (the paper's related work \[23\]\[24\]),
//!   doubling as a simulator self-check.

pub mod dist;
pub mod ehr;
pub mod probe;
pub mod stream;
pub mod trace;
pub mod xray;

pub use dist::{table2, AccessDist, NamedDist};
pub use ehr::{effective_cache_bytes, expected_hit_rate, expected_miss_rate, sum_sq_line_mass};
pub use probe::{ProbeCfg, ProbeStream};
pub use stream::{measure_stream, StreamCfg};
pub use trace::{line_trace, sampled_line_trace};
