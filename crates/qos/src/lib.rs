#![forbid(unsafe_code)]
//! # amem-qos — online slowdown estimation and QoS enforcement
//!
//! The paper's measurement basis (shared-cache storage, memory
//! bandwidth) answers *offline* questions. This crate closes the loop
//! the Subramanian line of work describes (MISE / ASM, see PAPERS.md):
//!
//! 1. [`estimate`] — a MISE-style online slowdown estimator: periodic
//!    "alone epochs" silence co-runners with a hard bandwidth throttle
//!    and sample the app's alone request-service-rate; slowdown =
//!    EWMA(alone rate) / EWMA(shared rate), CI-tracked with the
//!    measurement runtime's robust statistics.
//! 2. [`policy`] — per-app `max_slowdown` targets.
//! 3. [`controller`] — an [`amem_sim::control::EpochController`] that
//!    interleaves probing with enforcement: violations tighten the
//!    noisiest best-effort app one *notch* (halving its simulated CAT
//!    way allocation and its DRAM token-bucket line rate), comfortable
//!    margins relax one. Every boundary appends to a serializable
//!    decision log the conformance `qos` lane byte-compares.
//! 4. [`scenario`] / [`figures`] — adversarial co-schedules with exact
//!    ground truth (solo vs shared service rate) and the "with
//!    enforcement" twins of the paper's degradation figures.
//!
//! Controller and throttle are execution-time knobs, excluded from every
//! content-addressed cache key by construction (they ride on the engine
//! builder, never on `RunLimit`).

pub mod controller;
pub mod estimate;
pub mod figures;
pub mod policy;
pub mod scenario;

pub use controller::{CtlApp, Decision, EstimateSnapshot, QosController, QosCtlCfg};
pub use estimate::SlowdownEstimator;
pub use figures::{enforced_sweep, enforcement_table, AppOutcomeRow, EnforcedPoint};
pub use policy::QosPolicy;
pub use scenario::{App, AppKind, AppRate, RunOutcome, Scenario};
