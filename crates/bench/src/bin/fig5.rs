#![forbid(unsafe_code)]
//! Fig. 5 — validation of the analytic model (Eq. 4).
//!
//! For every Table II distribution and a sweep of buffer sizes
//! (1.5×–3.7× the L3, the paper's 30–74 MB), run the probe with no
//! interference, measure the L3 miss rate, and compare with the model's
//! prediction. The paper reports mean absolute error < 10% with mean+σ
//! ≤ 15%, shrinking as buffers grow (the fully-associative assumption
//! matters less once most accesses miss).

use amem_bench::Harness;
use amem_core::report::Table;
use amem_probes::dist::table2;
use amem_probes::ehr;
use amem_probes::probe::{run_probe, ProbeCfg};
use rayon::prelude::*;

fn main() {
    let mut h = Harness::new("fig5");
    let m = h.machine();
    let ratios: Vec<f64> = if h.full {
        // The paper's 22 sizes: 30..74 MB of a 20 MB L3 → 1.5..3.7.
        (0..22).map(|i| 1.5 + 0.1 * i as f64).collect()
    } else {
        (0..8).map(|i| 1.5 + 0.3 * i as f64).collect()
    };
    let dists = table2();
    let grid: Vec<(usize, usize)> = (0..ratios.len())
        .flat_map(|r| (0..dists.len()).map(move |d| (r, d)))
        .collect();
    let errs: Vec<(usize, f64)> = grid
        .par_iter()
        .map(|&(ri, di)| {
            let p = ProbeCfg::for_machine(&m, dists[di].dist, ratios[ri], 1);
            let r = run_probe(&m, &p, |_| Vec::new());
            let ssq = ehr::sum_sq_line_mass(&dists[di].dist, p.buffer_bytes, 4, 64);
            let predicted = ehr::expected_miss_rate(m.l3.lines(), ssq);
            (ri, (r.l3_miss_rate - predicted).abs() * 100.0)
        })
        .collect();
    let mut t = Table::new(
        "Fig. 5 — |measured - predicted| L3 miss rate, averaged over the 10 distributions",
        &[
            "Buffer (MB)",
            "Buffer/L3",
            "Mean abs error (%)",
            "Mean + sigma (%)",
        ],
    );
    for (ri, ratio) in ratios.iter().enumerate() {
        let vals: Vec<f64> = errs
            .iter()
            .filter(|(r, _)| *r == ri)
            .map(|(_, e)| *e)
            .collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let sd =
            (vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64).sqrt();
        let buffer_mb = m.l3.size_bytes as f64 * ratio / (1 << 20) as f64;
        t.row(vec![
            format!("{buffer_mb:.1}"),
            format!("{ratio:.1}"),
            format!("{mean:.1}"),
            format!("{:.1}", mean + sd),
        ]);
    }
    h.emit("fig5", &t);
    h.finish();
}
