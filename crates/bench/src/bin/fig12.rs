#![forbid(unsafe_code)]
//! Fig. 12 — Lulesh per-process resource consumption vs mapping.
//!
//! Like Fig. 10 but for Lulesh on the 22³ and 36³ domains. Paper: the
//! 22³ process needs 3.5–7 MB and the 36³ process 7–20 MB; both storage
//! *and* bandwidth use per process rise as processes spread out (spread
//! processes keep MPI buffers in cache longer and push communication
//! through the memory bus).

use amem_bench::Harness;
use amem_core::estimate::{bandwidth_use_per_process, storage_use_per_process};
use amem_core::platform::LuleshWorkload;
use amem_core::report::{fmt_mb, Table};
use amem_core::sweep::run_sweeps;
use amem_core::{BandwidthMap, CapacityMap, SweepRequest};
use amem_interfere::InterferenceKind;
use amem_miniapps::LuleshCfg;

const TOL_PCT: f64 = 3.0;

fn main() {
    let mut h = Harness::new("fig12");
    let m = h.machine();
    let exec = h.executor();
    eprintln!("calibrating capacity and bandwidth maps...");
    let cmap = CapacityMap::calibrate(&exec, &Default::default()).expect("capacity calibration");
    let bmap = BandwidthMap::calibrate(&m);

    for full_edge in [22u32, 36] {
        let edge = LuleshCfg::scaled_edge(&m, full_edge);
        let mut t = Table::new(
            format!("Fig. 12 — Lulesh per-process resource use, {full_edge}^3 domain"),
            &[
                "Ranks/processor",
                "Storage lo (MB)",
                "Storage hi (MB)",
                "BW lo (GB/s)",
                "BW hi (GB/s)",
                "Bracketed",
            ],
        );
        // One batch per domain size: six sweeps sharing baselines and a
        // rayon pool through the executor.
        let w = LuleshWorkload(LuleshCfg::new(edge));
        let ps = [1usize, 2, 4];
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
        let sweeps = run_sweeps(&exec, &requests).expect("fig12 sweeps");
        for (i, &p) in ps.iter().enumerate() {
            let cs = &sweeps[2 * i];
            let bw = &sweeps[2 * i + 1];
            let s_iv = storage_use_per_process(cs, &cmap, p, TOL_PCT)
                .expect("fig12 storage sweep has too few usable points");
            let b_iv = bandwidth_use_per_process(bw, &bmap, p, TOL_PCT)
                .expect("fig12 bandwidth sweep has too few usable points");
            t.row(vec![
                p.to_string(),
                fmt_mb(s_iv.lo),
                fmt_mb(s_iv.hi),
                format!("{:.2}", b_iv.lo),
                format!("{:.2}", b_iv.hi),
                format!(
                    "storage:{} bw:{}",
                    if s_iv.bracketed { "y" } else { "n" },
                    if b_iv.bracketed { "y" } else { "n" }
                ),
            ]);
        }
        h.emit(&format!("fig12_{full_edge}"), &t);
    }
    println!(
        "Paper (full scale): 22^3 needs 3.5-7 MB/process, 36^3 needs 7-20 MB; \
         storage and bandwidth use rise as processes spread out."
    );
    h.finish();
}
