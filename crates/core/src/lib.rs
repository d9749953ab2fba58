#![forbid(unsafe_code)]
//! # amem-core — the Active Measurement methodology
//!
//! The paper's central idea (*Casas & Bronevetsky, IPDPS 2014*): an
//! application "uses" an amount of a memory resource if taking that amount
//! away degrades its performance. This crate turns that definition into an
//! instrument:
//!
//! 1. [`platform`] — run a workload (MCB, Lulesh, a probe, or any custom
//!    [`platform::Workload`]) under a chosen MPI-style mapping with `k`
//!    interference threads per socket.
//! 2. [`sweep`] — repeat over `k = 0..max`, recording execution time and
//!    counters at each level (the curves of Figs. 7–9 and 11).
//! 3. [`knee`] — find where degradation begins.
//! 4. [`capacity`] / [`bandwidth`] — calibrate what each interference
//!    level leaves available: effective L3 capacity via the probe
//!    inversion of Eq. 4 (Fig. 6), bandwidth via STREAM and Eq. 1.
//! 5. [`estimate`] — combine 3 and 4 into per-process resource-use
//!    intervals (Figs. 10 and 12).
//! 6. [`predict`] — interpolate the degradation-vs-resource curve to
//!    predict performance on machines with less cache or bandwidth (the
//!    paper's Exascale motivation).
//! 7. [`report`] — ASCII tables, CSV and JSON for every result.
//!
//! Measurements execute through the [`executor`]: a content-addressed
//! measurement cache (in-memory + on-disk, schema-versioned) with
//! in-flight deduplication, sitting on top of the [`platform::Platform`]
//! trait ([`platform::SimPlatform`], the simulator). Failures come
//! back as typed [`error::AmemError`]s. A robustness layer wraps every
//! run: [`trial::TrialPolicy`] governs repeated trials (MAD outlier
//! rejection, CI-driven adaptive stopping), retries with backoff, and
//! wall-clock budgets; [`fault::FaultyPlatform`] deterministically
//! injects timeouts/NaNs/noise/errors to prove the pipeline degrades
//! gracefully instead of panicking.
//!
//! Extensions beyond the paper: [`mrc`] measures full miss-ratio curves
//! (and tests Hartstein's √2 rule, the paper's ref \[9\]) and [`noise`]
//! quantifies barrier amplification of interference-induced jitter (refs
//! \[11\]\[18\]).

pub mod advisor;
pub mod bandwidth;
mod cache;
pub mod capacity;
pub mod curve;
pub mod error;
pub mod estimate;
pub mod executor;
pub mod fault;
pub mod figures;
pub mod knee;
pub mod manifest;
pub mod mrc;
pub mod multinode;
pub mod noise;
pub mod platform;
pub mod predict;
pub mod report;
pub mod sweep;
pub mod trial;

pub use bandwidth::BandwidthMap;
pub use cache::{sweep_stale_tmp, write_atomic, STALE_TMP_AGE};
pub use capacity::CapacityMap;
pub use curve::{CurveMode, CurveOpts, CurveQuality, CurveRequest, CURVE_SCHEMA_VERSION};
pub use error::AmemError;
pub use estimate::ResourceInterval;
pub use executor::{CacheStats, CurveCacheStats, Executor, CACHE_SCHEMA_VERSION};
pub use fault::{FaultSpec, FaultyPlatform};
pub use knee::Knee;
pub use manifest::{RunManifest, SCHEMA_VERSION};
pub use mrc::MissRatioCurve;
pub use platform::{Measurement, Platform, SimPlatform, Workload};
pub use predict::DegradationModel;
pub use sweep::{Sweep, SweepPoint, SweepRequest};
pub use trial::{QualityStats, TrialPolicy, TrialQuality};
