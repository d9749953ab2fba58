#![forbid(unsafe_code)]
//! Fig. 10 — MCB per-process resource consumption vs mapping.
//!
//! Derived from the Fig. 9 (top) sweeps: the degradation knee at each
//! mapping, divided by ranks-per-processor through the capacity and
//! bandwidth calibration maps. Paper: storage use is flat (≈3.5–7 MB per
//! process across mappings) while bandwidth use per process *rises* as
//! processes spread out (3.5–4.25 GB/s at p=4 up to 11.4–14.2 at p=1) —
//! spread-out processes push all communication through the memory bus.

use amem_bench::Harness;
use amem_core::estimate::{bandwidth_use_per_process, storage_use_per_process};
use amem_core::platform::McbWorkload;
use amem_core::report::{fmt_mb, Table};
use amem_core::sweep::run_sweeps;
use amem_core::{BandwidthMap, CapacityMap, SweepRequest};
use amem_interfere::InterferenceKind;
use amem_miniapps::McbCfg;

const TOL_PCT: f64 = 3.0;

fn main() {
    let mut h = Harness::new("fig10");
    let m = h.machine();
    let exec = h.executor();
    // Calibration: effective capacity per CSThr level (measured, like the
    // paper's §III-C3) and bandwidth per BWThr.
    eprintln!("calibrating capacity and bandwidth maps...");
    let cmap = CapacityMap::calibrate(&exec, &Default::default()).expect("capacity calibration");
    let bmap = BandwidthMap::calibrate(&m);

    let mut t = Table::new(
        "Fig. 10 — MCB per-process resource use (20k particles) vs mapping",
        &[
            "Ranks/processor",
            "Storage lo (MB)",
            "Storage hi (MB)",
            "BW lo (GB/s)",
            "BW hi (GB/s)",
        ],
    );
    // All ten sweeps (five mappings x two resources) go through the
    // executor as one batch: their points share a rayon pool and every
    // mapping's storage and bandwidth sweeps share one baseline run.
    let w = McbWorkload(McbCfg::new(&m, 20_000));
    let ps = [1usize, 2, 3, 4, 6];
    let requests: Vec<SweepRequest> = ps
        .iter()
        .flat_map(|&p| {
            [
                SweepRequest {
                    workload: &w,
                    per_processor: p,
                    kind: InterferenceKind::Storage,
                    max_count: 7,
                },
                SweepRequest {
                    workload: &w,
                    per_processor: p,
                    kind: InterferenceKind::Bandwidth,
                    max_count: 2,
                },
            ]
        })
        .collect();
    let sweeps = run_sweeps(&exec, &requests).expect("fig10 sweeps");
    for (i, &p) in ps.iter().enumerate() {
        let cs = &sweeps[2 * i];
        let bw = &sweeps[2 * i + 1];
        let s_iv = storage_use_per_process(cs, &cmap, p, TOL_PCT)
            .expect("fig10 storage sweep has too few usable points");
        let b_iv = bandwidth_use_per_process(bw, &bmap, p, TOL_PCT)
            .expect("fig10 bandwidth sweep has too few usable points");
        t.row(vec![
            p.to_string(),
            fmt_mb(s_iv.lo),
            fmt_mb(s_iv.hi),
            format!("{:.2}{}", b_iv.lo, if b_iv.bracketed { "" } else { "*" }),
            format!("{:.2}", b_iv.hi),
        ]);
    }
    h.emit("fig10", &t);
    println!("* = never degraded within the sweep (true use may be lower).");
    println!(
        "Paper (full scale): storage ≈3.5-7 MB/process, flat across mappings; \
         bandwidth/process grows as processes spread out."
    );
    h.finish();
}
