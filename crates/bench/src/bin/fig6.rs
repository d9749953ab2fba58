#![forbid(unsafe_code)]
//! Fig. 6 — effective cache capacity under CSThr interference.
//!
//! The 660-configuration experiment of §III-C3: probes over 10
//! distributions × buffer sizes × 3 compute intensities, against 0–5
//! CSThrs (4 MB buffers). The measured L3 miss rate of each probe is
//! inverted through Eq. 4 into the capacity effectively available. The
//! paper's ladder: 20, 15, 12, 7, 5(4), 2.5(3) MB — and the dispersion
//! across distributions grows with access frequency and interference.
//!
//! Since the single-pass curve engine this runs one stack-distance pass
//! per (distribution, ratio) cell — [`amem_core::Executor::run_curve`]
//! reads the miss rate at every CSThr level's effective capacity off one
//! [`amem_core::MissRatioCurve`] — instead of re-simulating each
//! (intensity, level, cell) grid point. The probe's line-address trace
//! does not depend on the compute intensity, so the adds/load rows are
//! identical by construction. `--curve-mode sampled[:rate]` switches the
//! pass to SHARDS-style spatial sampling and reports the curve error
//! bound.

use amem_bench::Harness;
use amem_core::report::Table;
use amem_core::{CapacityMap, CurveRequest};
use amem_probes::dist::table2;
use amem_probes::ehr;
use amem_probes::probe::ProbeCfg;
use rayon::prelude::*;

fn main() {
    let mut h = Harness::new("fig6");
    let m = h.machine();
    let exec = h.executor();
    let (ratios, dist_step): (Vec<f64>, usize) = if h.full {
        ((0..22).map(|i| 1.5 + 0.1 * i as f64).collect(), 1)
    } else {
        (vec![1.8, 2.5, 3.2], 3)
    };
    let dists: Vec<_> = table2().into_iter().step_by(dist_step).collect();
    let intensities = [1u32, 10, 100];
    let max_cs = 5usize;

    let line_bytes = m.l3.line_bytes as u64;
    let ladder = CapacityMap::level_ladder(&m, max_cs);
    let cells: Vec<(usize, usize)> = (0..ratios.len())
        .flat_map(|ri| (0..dists.len()).map(move |di| (ri, di)))
        .collect();
    eprintln!(
        "fig6: {} curve passes (replacing {} grid simulations)",
        cells.len(),
        cells.len() * intensities.len() * (max_cs + 1)
    );
    let per_cell: Vec<(usize, Vec<f64>, f64)> = cells
        .par_iter()
        .map(|&(ri, di)| {
            let _cell = amem_metrics::phase("grid/fig6 curve");
            let dist = dists[di].dist;
            // The line trace is intensity-independent: one probe cfg
            // (adds/load = 1) covers all three intensity rows.
            let p = ProbeCfg::for_machine(&m, dist, ratios[ri], 1);
            let req = CurveRequest::from_probe(&p, line_bytes, ladder.clone(), h.curve_mode);
            let curve = exec
                .run_curve(&req)
                .expect("curve pass over the probe trace");
            let ci = curve.quality.map(|q| q.max_ci95).unwrap_or(0.0);
            let ssq = exec.sum_sq_line_mass(&dist, p.buffer_bytes, line_bytes);
            let level_caps = ladder
                .iter()
                .map(|&c| {
                    let mr = curve.miss_rate_at((c * line_bytes) as f64);
                    ehr::effective_cache_bytes(mr, ssq, line_bytes)
                })
                .collect();
            (ri * dists.len() + di, level_caps, ci)
        })
        .collect();
    // caps[(adds, k, cell)] -> effective capacity in bytes.
    let mut caps: Vec<((u32, usize, usize), f64)> = Vec::new();
    let mut worst_ci95 = 0.0f64;
    for (cell, level_caps, ci) in per_cell {
        worst_ci95 = worst_ci95.max(ci);
        for (k, cap) in level_caps.into_iter().enumerate() {
            for &adds in &intensities {
                caps.push(((adds, k, cell), cap));
            }
        }
    }

    let l3_mb = m.l3.size_bytes as f64 / (1 << 20) as f64;
    let mut t = Table::new(
        format!(
            "Fig. 6 — effective L3 capacity (MB) under CSThr interference (L3 = {l3_mb:.1} MB)"
        ),
        &[
            "Adds/load",
            "CSThrs",
            "Mean cap (MB)",
            "Sigma (MB)",
            "% of L3",
        ],
    );
    for &adds in &intensities {
        for k in 0..=max_cs {
            let vals: Vec<f64> = caps
                .iter()
                .filter(|((a, kk, _), _)| *a == adds && *kk == k)
                .map(|(_, c)| *c / (1 << 20) as f64)
                .collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            let sd = (vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
                / vals.len() as f64)
                .sqrt();
            t.row(vec![
                adds.to_string(),
                k.to_string(),
                format!("{mean:.2}"),
                format!("{sd:.2}"),
                format!("{:.0}%", 100.0 * mean / l3_mb),
            ]);
        }
    }
    h.emit("fig6", &t);
    if worst_ci95 > 0.0 {
        println!(
            "[sampled] spatial sampling in force: worst per-point miss-rate CI95 ±{worst_ci95:.4}"
        );
        h.note(format!("sampled curve mode, worst CI95 {worst_ci95:.4}"));
    }
    println!(
        "Paper ladder at full scale: 0->20, 1->15, 2->12, 3->7, 4->5, 5->2.5 MB \
         (100/75/60/35/25/12.5% of L3)."
    );
    h.finish();
}
