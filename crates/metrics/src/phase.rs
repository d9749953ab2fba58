//! Phase-attribution profiler: name a region of wall time, get per-phase
//! cost totals out of the same registry as every other metric.
//!
//! A [`phase`] guard records, on drop, elapsed nanoseconds into
//! [`PHASE_NS`] and a call count into [`PHASE_CALLS`], labelled
//! `phase="<name>"`. When the gate is off the guard is a true no-op: no
//! clock read, no allocation.
//!
//! Two namespaces coexist by convention (see DESIGN.md §12):
//!
//! * **Leaf phases** (`executor/...`, `sim/...`) partition wall time — on a
//!   single-threaded run their sum approaches the run's wall clock, which
//!   is how `amem-stats` computes attribution coverage.
//! * **Grid phases** (`grid/...`) are *views*: a probe-grid cell's phase
//!   overlaps the leaf phases running inside it, so grid totals answer
//!   "which CSThr level costs the most" but must not be added to leaf
//!   totals.

use std::time::Instant;

use crate::registry::Snapshot;

/// Counter: nanoseconds spent inside each named phase.
pub const PHASE_NS: &str = "amem_phase_ns_total";
/// Counter: times each named phase was entered.
pub const PHASE_CALLS: &str = "amem_phase_calls_total";

/// RAII guard from [`phase`]; records on drop.
#[must_use = "a phase guard records on drop; binding it to _ ends the phase immediately"]
pub struct PhaseGuard {
    active: Option<(String, Instant)>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((name, start)) = self.active.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let reg = crate::global();
            reg.counter(PHASE_NS, &[("phase", &name)]).add(ns);
            reg.counter(PHASE_CALLS, &[("phase", &name)]).inc();
        }
    }
}

/// Open a named phase; it closes (and records into the global registry)
/// when the returned guard drops. Free when the gate is off.
pub fn phase(name: &str) -> PhaseGuard {
    if !crate::enabled() {
        return PhaseGuard { active: None };
    }
    PhaseGuard {
        active: Some((name.to_string(), Instant::now())),
    }
}

/// One row of a phase-attribution report.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCost {
    pub name: String,
    pub calls: u64,
    pub seconds: f64,
}

impl Snapshot {
    /// Join [`PHASE_NS`] and [`PHASE_CALLS`] by phase name, most expensive
    /// first.
    pub fn phase_report(&self) -> Vec<PhaseCost> {
        let mut out: Vec<PhaseCost> = self
            .series
            .iter()
            .filter(|s| s.name == PHASE_NS)
            .filter_map(|s| {
                let phase = s
                    .labels
                    .iter()
                    .find(|(k, _)| k == "phase")
                    .map(|(_, v)| v.clone())?;
                let ns = s.counter?;
                let calls = self
                    .counter(
                        PHASE_CALLS,
                        &s.labels
                            .iter()
                            .map(|(k, v)| (k.as_str(), v.as_str()))
                            .collect::<Vec<_>>(),
                    )
                    .unwrap_or(0);
                Some(PhaseCost {
                    name: phase,
                    calls,
                    seconds: ns as f64 / 1e9,
                })
            })
            .collect();
        out.sort_by(|a, b| {
            b.seconds
                .partial_cmp(&a.seconds)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn phase_report_joins_time_and_calls() {
        // Build the snapshot shape by hand against a local registry so the
        // test neither toggles the global gate nor races other tests.
        let r = Registry::new();
        r.counter(PHASE_NS, &[("phase", "sim/engine")])
            .add(3_000_000_000);
        r.counter(PHASE_CALLS, &[("phase", "sim/engine")]).add(6);
        r.counter(PHASE_NS, &[("phase", "executor/cache_lookup")])
            .add(500_000_000);
        r.counter(PHASE_CALLS, &[("phase", "executor/cache_lookup")])
            .add(12);
        let report = r.snapshot().phase_report();
        assert_eq!(report.len(), 2);
        assert_eq!(report[0].name, "sim/engine");
        assert_eq!(report[0].calls, 6);
        assert!((report[0].seconds - 3.0).abs() < 1e-12);
        assert_eq!(report[1].name, "executor/cache_lookup");
        assert!((report[1].seconds - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disabled_guard_is_inert() {
        crate::set_enabled(false);
        let g = phase("never");
        drop(g);
        // The global registry may hold series from other tests; the inert
        // guard must simply not add a "never" phase.
        assert!(crate::snapshot()
            .phase_report()
            .iter()
            .all(|p| p.name != "never"));
    }
}
