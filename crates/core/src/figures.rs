//! Shared figure-shaped request definitions.
//!
//! Fig. 1's workload and table rendering used to live only inside the
//! `fig1` experiment of amem-bench. The serve path must reproduce the
//! same CSV byte for byte (`amem-client sweep --csv` vs a library run, asserted in
//! CI's serve-smoke job), so the shape lives here and both callers use
//! it — they cannot drift.

use amem_probes::dist::AccessDist;
use amem_probes::probe::ProbeCfg;
use amem_sim::config::MachineConfig;

use crate::capacity::CapacityMap;
use crate::report::Table;
use crate::sweep::Sweep;

/// Interference levels fig. 1 sweeps (`k = 0..=FIG1_MAX_COUNT` storage
/// threads per socket).
pub const FIG1_MAX_COUNT: usize = 5;

/// MPI-style processes per processor in the fig. 1 run.
pub const FIG1_PER_PROCESSOR: usize = 1;

/// The fig. 1 reference workload: a concentrated probe whose hot set is
/// ≈ half the L3, so a known appetite meets increasing interference.
pub fn fig1_probe(cfg: &MachineConfig) -> ProbeCfg {
    ProbeCfg::for_machine(
        cfg,
        AccessDist::Normal {
            mu: 0.5,
            sigma: 0.125,
        },
        2.0,
        1,
    )
}

/// Render a fig. 1 sweep as the paper's concept table: how much of the
/// resource was taken away, what was left, and whether performance cared.
pub fn fig1_table(cfg: &MachineConfig, sweep: &Sweep) -> Table {
    let cmap = CapacityMap::paper_xeon20mb(cfg);
    let mut t = Table::new(
        "Fig. 1 — increasing interference until performance degrades",
        &[
            "Resource interfered with",
            "Left for the app (MB)",
            "Degradation",
            "Verdict",
        ],
    );
    let tol = 3.0;
    for p in &sweep.points {
        let left = cmap.available_bytes(p.count) / (1 << 20) as f64;
        let frac = 100.0 * (1.0 - cmap.available_bytes(p.count) / cmap.available_bytes(0));
        t.row(vec![
            format!("{:.0}%", frac),
            format!("{left:.2}"),
            format!("{:+.1}%", p.degradation_pct),
            if p.degradation_pct < tol {
                "no degradation".into()
            } else {
                "degradation -> resource was in use".into()
            },
        ]);
    }
    t
}
