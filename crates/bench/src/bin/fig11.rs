#![forbid(unsafe_code)]
//! Fig. 11 — Lulesh performance degradation.
//!
//! Top panels: 64-rank Lulesh on the 22³ per-rank domain under mappings
//! p ∈ {1, 2, 4}, against CSThrs and BWThrs. At p = 4 the combined
//! footprint (4 × 3.4 MB) rides the L3 edge, so any CSThr causes
//! overflow.
//!
//! Bottom panels: 1 rank per processor, domain edges 22–36. Small cubes
//! (≤32³) degrade <5% under 1–2 CSThrs but >10% at 5; 34³+ overflow under
//! any storage interference. Bandwidth interference costs >10% for 32³
//! and 36³ (the working set no longer fits, so the memory bus is hot).

use amem_bench::Harness;
use amem_core::platform::LuleshWorkload;
use amem_core::report::Table;
use amem_core::sweep::run_sweeps;
use amem_core::SweepRequest;
use amem_interfere::InterferenceKind;
use amem_miniapps::LuleshCfg;

fn main() {
    let mut h = Harness::new("fig11");
    let m = h.machine();
    let exec = h.executor();
    let edge_of = |full: u32| LuleshCfg::scaled_edge(&m, full);

    // ---- Top: mapping sweep at 22^3 ----------------------------------
    for (kind, max, tag) in [
        (InterferenceKind::Storage, 7usize, "storage"),
        (InterferenceKind::Bandwidth, 2usize, "bandwidth"),
    ] {
        let mut t = Table::new(
            format!("Fig. 11 (top, {tag}) — Lulesh 64 ranks, 22^3 domain, mapping sweep"),
            &[
                "Ranks/processor",
                "Interference",
                "Time (ms)",
                "Degradation (%)",
            ],
        );
        let w = LuleshWorkload(LuleshCfg::new(edge_of(22)));
        let ps = [1usize, 2, 4];
        let requests: Vec<SweepRequest> = ps
            .iter()
            .map(|&p| SweepRequest {
                workload: &w,
                per_processor: p,
                kind,
                max_count: max,
            })
            .collect();
        let sweeps = run_sweeps(&exec, &requests).expect("fig11 top sweeps");
        for (&p, sweep) in ps.iter().zip(&sweeps) {
            for pt in &sweep.points {
                t.row(vec![
                    p.to_string(),
                    pt.count.to_string(),
                    format!("{:.3}", pt.seconds * 1e3),
                    format!("{:.1}", pt.degradation_pct),
                ]);
            }
        }
        h.emit(&format!("fig11_top_{tag}"), &t);
    }

    // ---- Bottom: domain-size sweep at 1 rank/processor ----------------
    let edges_full: Vec<u32> = if h.full {
        vec![22, 24, 26, 28, 30, 32, 34, 36]
    } else {
        vec![22, 26, 30, 32, 36]
    };
    for (kind, max, tag) in [
        (InterferenceKind::Storage, 5usize, "storage"),
        (InterferenceKind::Bandwidth, 2usize, "bandwidth"),
    ] {
        let mut t = Table::new(
            format!("Fig. 11 (bottom, {tag}) — Lulesh 64 ranks, 1 rank/processor, size sweep"),
            &[
                "Domain edge (full-scale)",
                "Interference",
                "Time (ms)",
                "Degradation (%)",
            ],
        );
        let workloads: Vec<LuleshWorkload> = edges_full
            .iter()
            .map(|&e| LuleshWorkload(LuleshCfg::new(edge_of(e))))
            .collect();
        let requests: Vec<SweepRequest> = workloads
            .iter()
            .map(|w| SweepRequest {
                workload: w,
                per_processor: 1,
                kind,
                max_count: max,
            })
            .collect();
        let sweeps = run_sweeps(&exec, &requests).expect("fig11 bottom sweeps");
        for (&e, sweep) in edges_full.iter().zip(&sweeps) {
            for pt in &sweep.points {
                t.row(vec![
                    e.to_string(),
                    pt.count.to_string(),
                    format!("{:.3}", pt.seconds * 1e3),
                    format!("{:.1}", pt.degradation_pct),
                ]);
            }
        }
        h.emit(&format!("fig11_bottom_{tag}"), &t);
    }
    h.finish();
}
