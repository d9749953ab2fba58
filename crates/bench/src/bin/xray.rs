#![forbid(unsafe_code)]
//! Hierarchy parameter discovery (the paper's related work \[23\]\[24\]):
//! dependent pointer chases sweep the working set and report each level's
//! capacity and latency — doubling as a simulator self-check.

use amem_bench::Harness;
use amem_core::report::Table;
use amem_probes::xray::{detect_levels, latency_curve};

fn main() {
    let mut h = Harness::new("xray");
    let m = h.machine();
    eprintln!("chasing pointers across working-set sizes...");
    let curve = latency_curve(&m, 1 << 10, 3 * m.l3.size_bytes, 15_000);
    let mut t = Table::new(
        "Latency curve (dependent pointer chase)",
        &["Working set (KB)", "Cycles/load"],
    );
    for p in &curve {
        t.row(vec![
            format!("{:.1}", p.working_set_bytes as f64 / 1024.0),
            format!("{:.1}", p.cycles_per_load),
        ]);
    }
    h.emit("xray_curve", &t);

    let levels = detect_levels(&curve, 1.6);
    let mut t = Table::new(
        "Detected hierarchy levels vs ground truth",
        &[
            "Level",
            "Detected capacity (KB)",
            "Detected latency (cyc)",
            "Configured",
        ],
    );
    let truth = [
        format!("L1 {}KB @{}cyc", m.l1.size_bytes >> 10, m.l1.latency),
        format!("L2 {}KB @{}cyc", m.l2.size_bytes >> 10, m.l2.latency),
        format!("L3 {}KB @{}cyc", m.l3.size_bytes >> 10, m.l3.latency),
        format!("DRAM @{}cyc", m.l3.latency + m.dram_latency),
    ];
    for (i, l) in levels.iter().enumerate() {
        t.row(vec![
            format!("{}", i + 1),
            format!("{:.1}", l.capacity_bytes as f64 / 1024.0),
            format!("{:.1}", l.latency_cycles),
            truth.get(i).cloned().unwrap_or_else(|| "-".into()),
        ]);
    }
    h.emit("xray_levels", &t);
    h.finish();
}
