#![forbid(unsafe_code)]
//! # active-mem — Active Measurement of Memory Resource Consumption
//!
//! Facade crate re-exporting the whole workspace: a reproduction of
//! *Casas & Bronevetsky, "Active Measurement of Memory Resource
//! Consumption", IPDPS 2014*.
//!
//! The paper's idea: measure how much shared-cache **storage** and memory
//! **bandwidth** an application *effectively* uses by running calibrated
//! interference threads (`CSThr`, `BWThr`) on spare cores and finding the
//! interference level at which the application starts to slow down.
//!
//! Start with [`amem_core::platform::SimPlatform`] and the `examples/`
//! directory; regenerate the paper's tables and figures with the binaries
//! in `crates/bench`.

pub use amem_conformance as conformance;
pub use amem_core as core;
pub use amem_interfere as interfere;
pub use amem_metrics as metrics;
pub use amem_miniapps as miniapps;
pub use amem_probes as probes;
pub use amem_qos as qos;
pub use amem_serve as serve;
pub use amem_sim as sim;
