//! The method itself: the concept figure, the analytic model's
//! validation, the CSThr capacity ladder and the two halves of the
//! orthogonality test.

use amem_core::capacity::{capacity_grid, GridCell};
use amem_core::figures::{fig1_probe, fig1_table, FIG1_MAX_COUNT, FIG1_PER_PROCESSOR};
use amem_core::platform::ProbeWorkload;
use amem_core::report::Table;
use amem_core::sweep::run_sweep;
use amem_core::{par_map, CapacityMap};
use amem_interfere::{
    BwThread, BwThreadCfg, CsThread, CsThreadCfg, InterferenceKind, InterferenceSpec,
};
use amem_probes::dist::{table2, AccessDist};
use amem_probes::ehr;
use amem_probes::probe::{run_probe, ProbeCfg};
use amem_sim::prelude::*;

use crate::Harness;

/// Fig. 1 — the paper's concept figure, reenacted with real measurements:
/// interfere with increasing fractions of a resource until the
/// application's performance degrades; the knee reveals its use.
///
/// The workload and table live in [`amem_core::figures`] so the serve
/// path (`amem-client sweep --csv`) renders byte-identical output.
pub fn fig1(h: &mut Harness) {
    let m = h.machine();
    let w = ProbeWorkload(fig1_probe(&m));
    let sweep = run_sweep(
        &h.executor(),
        &w,
        FIG1_PER_PROCESSOR,
        InterferenceKind::Storage,
        FIG1_MAX_COUNT,
    )
    .expect("fig1 sweep");
    h.emit("fig1", &fig1_table(&m, &sweep));
}

/// Mean and population standard deviation.
fn mean_sd(vals: &[f64]) -> (f64, f64) {
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
    (mean, var.sqrt())
}

/// Fig. 5 — validation of the analytic model (Eq. 4).
///
/// For every Table II distribution and a sweep of buffer sizes
/// (1.5×–3.7× the L3, the paper's 30–74 MB), run the probe with no
/// interference, measure the L3 miss rate, and compare with the model's
/// prediction. The paper reports mean absolute error < 10% with mean+σ
/// ≤ 15%, shrinking as buffers grow (the fully-associative assumption
/// matters less once most accesses miss).
pub fn fig5(h: &mut Harness) {
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
    let errs: Vec<(usize, f64)> = par_map(&grid, |&(ri, di)| {
        let p = ProbeCfg::for_machine(&m, dists[di].dist, ratios[ri], 1);
        let r = run_probe(&m, &p, |_| Vec::new());
        let ssq = ehr::sum_sq_line_mass(&dists[di].dist, p.buffer_bytes, 4, 64);
        let predicted = ehr::expected_miss_rate(m.l3.lines(), ssq);
        (ri, (r.l3_miss_rate - predicted).abs() * 100.0)
    });
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
        let (mean, sd) = mean_sd(&vals);
        let buffer_mb = m.l3.size_bytes as f64 * ratio / (1 << 20) as f64;
        t.row(vec![
            format!("{buffer_mb:.1}"),
            format!("{ratio:.1}"),
            format!("{mean:.1}"),
            format!("{:.1}", mean + sd),
        ]);
    }
    h.emit("fig5", &t);
}

/// Fig. 6 — effective cache capacity under CSThr interference.
///
/// The 660-configuration experiment of §III-C3: probes over 10
/// distributions × buffer sizes × 3 compute intensities, against 0–5
/// CSThrs (4 MB buffers). The measured L3 miss rate of each probe is
/// inverted through Eq. 4 into the capacity effectively available. The
/// paper's ladder: 20, 15, 12, 7, 5(4), 2.5(3) MB — and the dispersion
/// across distributions grows with access frequency and interference.
///
/// Since the single-pass curve engine this runs one stack-distance pass
/// per (distribution, ratio) cell — [`amem_core::capacity::capacity_grid`],
/// the grid [`CapacityMap::calibrate`] reads too, takes the miss rate at
/// every CSThr level's effective capacity off one
/// [`amem_core::MissRatioCurve`] — instead of re-simulating each
/// (intensity, level, cell) grid point; in exact mode a distribution's
/// cells share one draw sequence. The probe's line-address trace does not depend on the
/// compute intensity, so the adds/load rows are identical by
/// construction. `--curve-mode sampled[:rate]` switches the pass to
/// SHARDS-style spatial sampling and reports the curve error bound.
pub fn fig6(h: &mut Harness) {
    let m = h.machine();
    let exec = h.executor();
    let (ratios, dist_step): (Vec<f64>, usize) = if h.full {
        ((0..22).map(|i| 1.5 + 0.1 * i as f64).collect(), 1)
    } else {
        (vec![1.8, 2.5, 3.2], 3)
    };
    let dists: Vec<AccessDist> = table2()
        .into_iter()
        .step_by(dist_step)
        .map(|nd| nd.dist)
        .collect();
    let intensities = [1u32, 10, 100];
    let max_cs = 5usize;

    let ladder = CapacityMap::level_ladder(&m, max_cs);
    let cells = ratios.len() * dists.len();
    eprintln!(
        "fig6: {cells} curve passes (replacing {} grid simulations)",
        cells * intensities.len() * (max_cs + 1)
    );
    let grid = capacity_grid(&exec, &dists, &ratios, &ladder, h.curve_mode)
        .expect("curve pass over the probe trace");
    // Ratio-major, the order the rows' float sums have always read.
    let per_cell: Vec<&GridCell> = (0..ratios.len())
        .flat_map(|ri| grid.iter().skip(ri).step_by(ratios.len()))
        .collect();
    let worst_ci95 = per_cell.iter().map(|c| c.max_ci95).fold(0.0, f64::max);

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
            let vals: Vec<f64> = per_cell
                .iter()
                .map(|cell| cell.caps[k] / (1 << 20) as f64)
                .collect();
            let (mean, sd) = mean_sd(&vals);
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
}

/// The orthogonality test of Figs. 7 and 8: the `subject` thread on
/// core 0 of socket 0, alone and then against 1–5 threads of the other
/// kind (`interference(k)`) on the socket's next cores. A row per level:
/// the level, then the `cells` of the subject's counters.
fn orthogonality(
    h: &mut Harness,
    name: &str,
    title: String,
    headers: &[&str],
    subject: impl Fn(&mut Machine) -> Box<dyn AccessStream>,
    interference: fn(usize) -> InterferenceSpec,
    cells: impl Fn(&CoreCounters) -> [String; 3],
) {
    let m = h.machine();
    let mut t = Table::new(title, headers);
    for k in 0..=5usize {
        let c = interference(k).co_run(&m, &subject);
        t.row([k.to_string()].into_iter().chain(cells(&c)).collect());
    }
    h.emit(name, &t);
}

/// Fig. 7 — orthogonality, part 1: BWThr is unaffected by CSThrs.
///
/// One BWThr runs a fixed number of main-loop iterations (the paper uses
/// 10⁷) while 0–5 CSThrs run on other cores of the same socket. The
/// paper's result: bandwidth use, L3 miss rate and completion time of the
/// BWThr stay flat — CSThrs do not consume measurable bandwidth.
pub fn fig7(h: &mut Harness) {
    let m = h.machine();
    let iters = 6_000u64;
    let cfg = BwThreadCfg {
        iterations: Some(iters),
        ..BwThreadCfg::for_machine(&m)
    };
    orthogonality(
        h,
        "fig7",
        format!("Fig. 7 — one BWThr ({iters} iterations) vs 0-5 concurrent CSThrs"),
        &[
            "CSThrs",
            "BWThr GB/s (Eq.1)",
            "BWThr L3 miss rate",
            "Time (ms)",
        ],
        |machine| Box::new(BwThread::new(machine, &cfg)),
        InterferenceSpec::storage,
        |c| {
            [
                format!("{:.2}", c.bandwidth_gbs(m.l3.line_bytes, m.freq_ghz)),
                format!("{:.3}", c.l3_miss_rate()),
                format!("{:.3}", m.seconds(c.cycles) * 1e3),
            ]
        },
    );
    println!("Paper: all three columns flat across 0-5 CSThrs.");
}

/// Fig. 8 — orthogonality, part 2: CSThr vs 0–5 BWThrs.
///
/// One CSThr performs a fixed number of read+add+write rounds while 0–5
/// BWThrs stream on other cores. The paper's result: 1–2 BWThrs leave the
/// CSThr unaffected (so up to 32% of bandwidth can be stolen "cleanly"),
/// but 3+ BWThrs displace enough cache to slow the CSThr and raise its
/// bandwidth use — the boundary of the methods' independence.
pub fn fig8(h: &mut Harness) {
    let m = h.machine();
    let rounds = 400_000u64;
    let cfg = CsThreadCfg {
        rounds: Some(rounds),
        ..CsThreadCfg::for_machine(&m)
    };
    orthogonality(
        h,
        "fig8",
        format!("Fig. 8 — one CSThr ({rounds} rounds) vs 0-5 concurrent BWThrs"),
        &[
            "BWThrs",
            "CSThr GB/s (Eq.1)",
            "CSThr L3 miss rate",
            "ns per read+add+write",
        ],
        |machine| Box::new(CsThread::new(machine, &cfg)),
        InterferenceSpec::bandwidth,
        |c| {
            [
                format!("{:.3}", c.bandwidth_gbs(m.l3.line_bytes, m.freq_ghz)),
                format!("{:.3}", c.l3_miss_rate()),
                format!("{:.2}", m.seconds(c.cycles) * 1e9 / rounds as f64),
            ]
        },
    );
    println!(
        "Paper: flat for 0-2 BWThrs; visible slowdown and extra bandwidth \
         use from 3 BWThrs on (they start stealing cache storage)."
    );
}
