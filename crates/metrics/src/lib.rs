#![forbid(unsafe_code)]
//! # amem-metrics — gated, label-aware metrics for the active-mem workspace
//!
//! The measurement methodology (Casas & Bronevetsky, IPDPS 2014) is itself a
//! measurement system, so its own cost structure must be observable: which
//! cache layer served a point, how long a probe-grid cell took, how busy the
//! simulated DRAM channel was. This crate is the substrate for that — a
//! process-wide registry of [`Counter`]s, [`Gauge`]s and exponential-bucket
//! [`Histogram`]s keyed by metric name plus sorted `(key, value)` labels,
//! with a phase-attribution profiler ([`mod@phase`]) layered on top.
//!
//! Three properties drive the design:
//!
//! * **Zero cost when disabled.** An instrumentation site is one call to
//!   [`add`], [`set`] or [`record`], which checks [`enabled()`] — a single
//!   relaxed atomic load — before anything else; a site that reads a clock
//!   checks the gate itself first. With the gate off (the default) no
//!   allocation, no lock, no clock read and no atomic RMW happens, so
//!   figure CSVs and executor cache keys stay byte-identical (asserted by
//!   the workspace's zero-perturbation test).
//! * **Lock-free updates.** Mutating a resolved series is plain atomics:
//!   one saturating cell per counter, four cells plus the buckets per
//!   histogram. Series *resolution* takes a short `RwLock` (read-locked
//!   after first use); a loop should resolve once and reuse the `Arc`
//!   handle.
//! * **Bounded cardinality.** Each metric name caps its label sets
//!   (default [`DEFAULT_SERIES_CAP`]); past the cap, new label sets collapse
//!   into a single `overflow="true"` series so totals remain correct while
//!   memory stays bounded.
//!
//! Snapshots ([`snapshot`]) are plain serde values: they attach to run
//! manifests as an additive schema field, merge across runs
//! ([`Snapshot::merge`]), and export as Prometheus text
//! ([`export::prometheus_text`]). A tiny parser
//! ([`export::parse_prometheus_text`]) lets a test assert the export is
//! well-formed without any network or external scraper.
//!
//! ```
//! use amem_metrics::registry::Registry;
//!
//! let r = Registry::new();
//! r.counter("amem_requests_total", &[("outcome", "mem_hit")]).add(3);
//! r.histogram("amem_wait_ns", &[]).record(1024);
//! let snap = r.snapshot();
//! assert_eq!(snap.counter("amem_requests_total", &[("outcome", "mem_hit")]), Some(3));
//! let text = amem_metrics::export::prometheus_text(&snap);
//! assert!(text.contains("amem_requests_total{outcome=\"mem_hit\"} 3"));
//! ```

pub mod export;
pub mod phase;
pub mod registry;

pub use phase::{phase, PhaseCost, PhaseGuard, PHASE_CALLS, PHASE_NS};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, SeriesSnapshot, Snapshot,
    DEFAULT_SERIES_CAP,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Process-wide gate. Off by default; every instrumentation site in the
/// workspace checks this before touching the registry.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is metrics collection enabled? A single relaxed load — cheap enough to
/// leave on the hottest paths.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on or off. Flipping the gate does not clear previously
/// recorded series; use [`reset`] for that.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// The process-wide registry all workspace instrumentation records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Add `v` to the global counter `name{labels}` when the gate is on. A
/// zero add resolves nothing, so a counter's series appears with its first
/// count.
#[inline]
pub fn add(name: &str, labels: &[(&str, &str)], v: u64) {
    if enabled() && v > 0 {
        global().counter(name, labels).add(v);
    }
}

/// Set the global gauge `name{labels}` to `v` when the gate is on.
#[inline]
pub fn set(name: &str, labels: &[(&str, &str)], v: i64) {
    if enabled() {
        global().gauge(name, labels).set(v);
    }
}

/// Record `v` into the global histogram `name{labels}` when the gate is on.
#[inline]
pub fn record(name: &str, labels: &[(&str, &str)], v: u64) {
    if enabled() {
        global().histogram(name, labels).record(v);
    }
}

/// Snapshot the global registry (deterministically ordered by name, then
/// labels).
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Drop every series in the global registry. Handles resolved before the
/// reset keep working but stop being exported; workspace instrumentation
/// re-resolves on each use, so this is safe between test runs.
pub fn reset() {
    global().reset();
}
