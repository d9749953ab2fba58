#![forbid(unsafe_code)]
//! # amem-conformance — does the fast simulator still implement the model?
//!
//! The simulator's hot paths have accumulated layers of performance
//! machinery: in the caches ([`amem_sim::cache::Cache`] and friends)
//! structure-of-arrays layouts, movemask set scans, lookup→fill miss
//! memos and probation flags folded into recency stamps; in the engine an
//! inlined dispatch loop, up-links between levels and inclusion-derived
//! probe skips.
//! Each was justified by an unchanged figure CSV at the time — but CSVs
//! rot, and behavioural equivalence deserves a *living* proof. This crate
//! supplies one, in four parts:
//!
//! 1. **A reference machine** ([`refmachine`]): the whole simulated node
//!    — scheduler, caches, coherence, prefetching, DRAM timing — written
//!    plainly from the model's description, one op at a time, over
//!    array-of-structs, scalar, memo-free re-implementations of the
//!    cache, TLB and stride prefetcher ([`mod@reference`]). It shares
//!    only the op and report types and the leaf DRAM channel with the
//!    production [`amem_sim::engine::Engine`], which must agree with it
//!    **event for event** — counters, writebacks, invalidations, even
//!    wall cycles. Planted [`RefFault`]s prove the check sees faults in
//!    the engine's scheduler and coherence, not only in its caches.
//! 2. **A differential trace fuzzer** ([`fuzz`]): seeded, deterministic
//!    generation of adversarial access streams (set-conflict churn,
//!    probation storms, dirty writeback pressure, cross-core sharing,
//!    barrier-separated ping-pong) replayed through both machines over a
//!    panel of cache geometries (power-of-two and not, up to >64-way
//!    fully-associative). Any divergence is shrunk to a minimal
//!    reproducer and written to `target/conformance/` for replay.
//! 3. **Analytic oracles** ([`oracle`]): the paper's Eq. 4
//!    (`EHR = C · Σᵢ f(i)²`) evaluated in closed form for the Table II
//!    distribution families and compared against the simulated hit rate
//!    with a CI95-derived tolerance, plus the orthogonality cross-checks
//!    (CSThr must not move measured bandwidth; BWThr must not move
//!    measured storage).
//! 4. **A curve lockstep check** ([`curves`]): the single-pass
//!    stack-distance engine behind [`amem_core::Executor::run_curve`]
//!    replayed against a naive per-point [`RefCache`] sweep (one
//!    fully-associative LRU simulation per capacity) on seeded
//!    adversarial traces — exact agreement at every capacity, no
//!    tolerance.
//!
//! [`platform::ReferencePlatform`] packages the reference machine
//! behind the ordinary [`amem_core::platform::Platform`] trait so whole
//! measurements (workload + interference mix + aggregation) can be
//! cross-checked; its [`cache_salt`](amem_core::platform::Platform::cache_salt)
//! keeps its results from ever colliding with the production measurement
//! cache.

pub mod curves;
pub mod fuzz;
pub mod oracle;
pub mod platform;
pub mod qos;
pub mod reference;
pub mod refmachine;

pub use curves::{check_curve_case, gen_curve_case, reference_miss_rate, CurveDivergence};
pub use fuzz::{configs, fuzz_config, minimize, replay_file, write_reproducer, Divergence};
pub use oracle::{ehr_oracle, ehr_oracle_pack, orthogonality_pack, EhrOracle, OrthoCheck};
pub use platform::ReferencePlatform;
pub use qos::{
    check_qos_case, check_qos_sabotage_caught, gen_qos_case, qos_seed_sweep, QosDivergence,
};
pub use reference::{RefCache, RefPrefetcher, RefTlb};
pub use refmachine::RefFault;
