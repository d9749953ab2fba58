//! The method applied to the mini-apps: the degradation sweeps of
//! Figs. 9 and 11, the per-process use Figs. 10 and 12 read off them,
//! and the prediction they pay for. Each pair is one method run twice,
//! so each renders through one function here.

use amem_core::estimate::{bandwidth_use_per_process, storage_use_per_process};
use amem_core::platform::{LuleshWorkload, McbWorkload, Workload};
use amem_core::predict::{predict_combined, DegradationModel, HypotheticalMachine};
use amem_core::report::{fmt_mb, trial_cells, Table};
use amem_core::sweep::run_sweeps;
use amem_core::{BandwidthMap, CapacityMap, Sweep, SweepRequest};
use amem_interfere::InterferenceKind::{self, Bandwidth, Storage};
use amem_interfere::InterferenceMix;
use amem_miniapps::{LuleshCfg, McbCfg};

use crate::Harness;

/// Knee tolerance (percent degradation) of the per-process estimates.
const TOL_PCT: f64 = 3.0;

/// One executor batch of sweeps, one per `(workload, ranks per processor,
/// interference kind, max count)`. The batch's points share one fan-out,
/// and the sweeps of one workload and mapping share their baseline run.
fn sweep_batch<'a>(
    h: &Harness,
    grid: impl IntoIterator<Item = (&'a dyn Workload, usize, InterferenceKind, usize)>,
) -> Vec<Sweep> {
    let requests: Vec<SweepRequest> = grid
        .into_iter()
        .map(|(workload, per_processor, kind, max_count)| SweepRequest {
            workload,
            per_processor,
            kind,
            max_count,
        })
        .collect();
    run_sweeps(&h.executor(), &requests).expect("sweep batch")
}

/// One degradation panel of Fig. 9 or 11: a row per interference level
/// of each `(label, sweep)` series — time and degradation, plus the
/// trial-count and CI columns when `ci` is set (`--ci`).
pub fn degradation_panel<'a>(
    title: String,
    label_column: &str,
    series: impl IntoIterator<Item = (&'a str, &'a Sweep)>,
    ci: bool,
) -> Table {
    let mut headers = vec![label_column, "Interference", "Time (ms)", "Degradation (%)"];
    if ci {
        headers.extend(["Trials", "CI95 (%)"]);
    }
    let mut t = Table::new(title, &headers);
    for (label, sweep) in series {
        for pt in &sweep.points {
            let mut row = vec![
                label.to_string(),
                pt.count.to_string(),
                format!("{:.3}", pt.seconds * 1e3),
                format!("{:.1}", pt.degradation_pct),
            ];
            if ci {
                row.extend(trial_cells(pt.quality.as_ref()));
            }
            t.row(row);
        }
    }
    t
}

/// Figs. 9 and 11, the same method run on two apps. The top panels sweep
/// `base` under each mapping of `mappings` (ranks per processor) against
/// CSThrs up to 7; the bottom panels sweep each `(label, workload)` of
/// `sizes` at one rank per processor against CSThrs up to 5. Both halves
/// also sweep BWThrs up to 2, one executor batch per panel, emitted as
/// `fig<N>_<top|bottom>_<storage|bandwidth>`. `titles` are the two
/// halves' captions after the dash; `size_column` labels the bottom rows.
fn degradation_figure(
    h: &mut Harness,
    fig: u32,
    titles: [&str; 2],
    (base, mappings): (&dyn Workload, &[usize]),
    (size_column, sizes): (&str, &[(String, &dyn Workload)]),
) {
    let top: Vec<_> = mappings.iter().map(|&p| (p.to_string(), base, p)).collect();
    let bottom: Vec<_> = sizes.iter().map(|(l, w)| (l.clone(), *w, 1)).collect();
    let halves = [
        ("top", "Ranks/processor", 7, top),
        ("bottom", size_column, 5, bottom),
    ];
    for ((half, label_column, storage_max, rows), title) in halves.into_iter().zip(titles) {
        for (kind, max_count, tag) in [
            (Storage, storage_max, "storage"),
            (Bandwidth, 2, "bandwidth"),
        ] {
            let sweeps = sweep_batch(h, rows.iter().map(|&(_, w, p)| (w, p, kind, max_count)));
            let labels = rows.iter().map(|r| r.0.as_str());
            let t = degradation_panel(
                format!("Fig. {fig} ({half}, {tag}) — {title}"),
                label_column,
                labels.zip(&sweeps),
                h.ci,
            );
            h.emit(&format!("fig{fig}_{half}_{tag}"), &t);
        }
    }
}

/// Fig. 9 — MCB performance degradation.
///
/// Top panels: 24-rank MCB at 20 000 particles under several mappings
/// (p = 1, 2, 3, 4, 6 ranks per processor), swept against CSThrs (left)
/// and BWThrs (right). More ranks per processor ⇒ less L3 per rank ⇒ the
/// same degradation arrives at fewer CSThrs.
///
/// Bottom panels: 1 rank per processor, particle counts 20 k – 260 k.
/// Storage: little degradation through 3 CSThrs, 20–25% at 4–5. Bandwidth:
/// impact grows to ≈90 k particles, then declines as compute dominates.
pub fn fig9(h: &mut Harness) {
    let m = h.machine();
    let particles: Vec<u64> = if h.full {
        (0..=12).map(|i| 20_000 + 20_000 * i).collect()
    } else {
        vec![20_000, 60_000, 90_000, 140_000, 200_000, 260_000]
    };
    let mcb = |n| McbWorkload(McbCfg::new(&m, n));
    let workloads: Vec<McbWorkload> = particles.iter().map(|&n| mcb(n)).collect();
    let sizes: Vec<(String, &dyn Workload)> = particles
        .iter()
        .zip(&workloads)
        .map(|(n, w)| (n.to_string(), w as &dyn Workload))
        .collect();
    let w20k = mcb(20_000);
    degradation_figure(
        h,
        9,
        [
            "MCB 24 ranks, 20k particles, mapping sweep",
            "MCB 24 ranks, 1 rank/processor, particle sweep",
        ],
        (&w20k, &[1, 2, 3, 4, 6]),
        ("Particles", &sizes),
    );

    // ---- Telemetry capture (--sample / --trace / --profile) -----------
    // One representative point of the sweep, instrumented: per-core
    // time-series JSONL plus a Perfetto-loadable Chrome trace, the
    // manifest's headline counters and (with --profile) the cycle
    // breakdown.
    if h.telemetry_enabled() || h.profile {
        let meas = h
            .executor()
            .run(&w20k, 1, InterferenceMix::storage(3))
            .expect("fig9 telemetry run");
        h.record_measurement(&meas);
        h.export_telemetry("fig9_mcb", &meas.report);
    }
}

/// Fig. 11 — Lulesh performance degradation.
///
/// Top panels: 64-rank Lulesh on the 22³ per-rank domain under mappings
/// p ∈ {1, 2, 4}, against CSThrs and BWThrs. At p = 4 the combined
/// footprint (4 × 3.4 MB) rides the L3 edge, so any CSThr causes
/// overflow.
///
/// Bottom panels: 1 rank per processor, domain edges 22–36. Small cubes
/// (≤32³) degrade <5% under 1–2 CSThrs but >10% at 5; 34³+ overflow under
/// any storage interference. Bandwidth interference costs >10% for 32³
/// and 36³ (the working set no longer fits, so the memory bus is hot).
pub fn fig11(h: &mut Harness) {
    let m = h.machine();
    let edges_full: Vec<u32> = if h.full {
        vec![22, 24, 26, 28, 30, 32, 34, 36]
    } else {
        vec![22, 26, 30, 32, 36]
    };
    let lulesh = |e| LuleshWorkload(LuleshCfg::new(LuleshCfg::scaled_edge(&m, e)));
    let workloads: Vec<LuleshWorkload> = edges_full.iter().map(|&e| lulesh(e)).collect();
    let sizes: Vec<(String, &dyn Workload)> = edges_full
        .iter()
        .zip(&workloads)
        .map(|(e, w)| (e.to_string(), w as &dyn Workload))
        .collect();
    degradation_figure(
        h,
        11,
        [
            "Lulesh 64 ranks, 22^3 domain, mapping sweep",
            "Lulesh 64 ranks, 1 rank/processor, size sweep",
        ],
        (&lulesh(22), &[1, 2, 4]),
        ("Domain edge (full-scale)", &sizes),
    );
}

/// Effective capacity per CSThr level, measured the way the paper's
/// §III-C3 does, and bandwidth per BWThr.
fn calibrated_maps(h: &Harness) -> (CapacityMap, BandwidthMap) {
    eprintln!("calibrating capacity and bandwidth maps...");
    let cmap =
        CapacityMap::calibrate(&h.executor(), &Default::default()).expect("capacity calibration");
    (cmap, BandwidthMap::calibrate(&h.machine()))
}

/// Figs. 10 and 12: for each mapping `p`, sweep `w` against CSThrs (to 7)
/// and BWThrs (to 2) in one batch, read each knee and invert it through
/// the calibration maps into one process's storage (MB) and bandwidth
/// (GB/s) use. Fig. 12 states which intervals are bracketed in a last
/// column (`bracketed_column`); Fig. 10 marks an unbracketed bandwidth
/// low bound with `*` instead.
fn per_process_table(
    h: &Harness,
    (cmap, bmap): &(CapacityMap, BandwidthMap),
    title: String,
    w: &dyn Workload,
    ps: &[usize],
    bracketed_column: bool,
) -> Table {
    let mut headers = vec![
        "Ranks/processor",
        "Storage lo (MB)",
        "Storage hi (MB)",
        "BW lo (GB/s)",
        "BW hi (GB/s)",
    ];
    if bracketed_column {
        headers.push("Bracketed");
    }
    let mut t = Table::new(title, &headers);
    let grid = ps
        .iter()
        .flat_map(|&p| [(w, p, Storage, 7), (w, p, Bandwidth, 2)]);
    let sweeps = sweep_batch(h, grid);
    let yn = |b: bool| if b { "y" } else { "n" };
    for (&p, pair) in ps.iter().zip(sweeps.chunks(2)) {
        let s_iv = storage_use_per_process(&pair[0], cmap, p, TOL_PCT)
            .expect("storage sweep has too few usable points");
        let b_iv = bandwidth_use_per_process(&pair[1], bmap, p, TOL_PCT)
            .expect("bandwidth sweep has too few usable points");
        let star = if bracketed_column || b_iv.bracketed {
            ""
        } else {
            "*"
        };
        let mut row = vec![
            p.to_string(),
            fmt_mb(s_iv.lo),
            fmt_mb(s_iv.hi),
            format!("{:.2}{star}", b_iv.lo),
            format!("{:.2}", b_iv.hi),
        ];
        if bracketed_column {
            row.push(format!(
                "storage:{} bw:{}",
                yn(s_iv.bracketed),
                yn(b_iv.bracketed)
            ));
        }
        t.row(row);
    }
    t
}

/// Fig. 10 — MCB per-process resource consumption vs mapping.
///
/// Derived from the Fig. 9 (top) sweeps: the degradation knee at each
/// mapping, divided by ranks-per-processor through the capacity and
/// bandwidth calibration maps. Paper: storage use is flat (≈3.5–7 MB per
/// process across mappings) while bandwidth use per process *rises* as
/// processes spread out (3.5–4.25 GB/s at p=4 up to 11.4–14.2 at p=1) —
/// spread-out processes push all communication through the memory bus.
pub fn fig10(h: &mut Harness) {
    let maps = calibrated_maps(h);
    let w = McbWorkload(McbCfg::new(&h.machine(), 20_000));
    let t = per_process_table(
        h,
        &maps,
        "Fig. 10 — MCB per-process resource use (20k particles) vs mapping".into(),
        &w,
        &[1, 2, 3, 4, 6],
        false,
    );
    h.emit("fig10", &t);
    println!("* = never degraded within the sweep (true use may be lower).");
    println!(
        "Paper (full scale): storage ≈3.5-7 MB/process, flat across mappings; \
         bandwidth/process grows as processes spread out."
    );
}

/// Fig. 12 — Lulesh per-process resource consumption vs mapping.
///
/// Like Fig. 10 but for Lulesh on the 22³ and 36³ domains. Paper: the
/// 22³ process needs 3.5–7 MB and the 36³ process 7–20 MB; both storage
/// *and* bandwidth use per process rise as processes spread out (spread
/// processes keep MPI buffers in cache longer and push communication
/// through the memory bus).
pub fn fig12(h: &mut Harness) {
    let (m, maps) = (h.machine(), calibrated_maps(h));
    for full_edge in [22u32, 36] {
        let w = LuleshWorkload(LuleshCfg::new(LuleshCfg::scaled_edge(&m, full_edge)));
        let t = per_process_table(
            h,
            &maps,
            format!("Fig. 12 — Lulesh per-process resource use, {full_edge}^3 domain"),
            &w,
            &[1, 2, 4],
            true,
        );
        h.emit(&format!("fig12_{full_edge}"), &t);
    }
    println!(
        "Paper (full scale): 22^3 needs 3.5-7 MB/process, 36^3 needs 7-20 MB; \
         storage and bandwidth use rise as processes spread out."
    );
}

/// Performance prediction for memory-constrained machines (§I, §VI).
///
/// The payoff of Active Measurement: having swept MCB against storage and
/// bandwidth interference, interpolate the degradation curves to predict
/// its runtime on hypothetical nodes with a fraction of today's L3 and
/// memory bandwidth — the Exascale "1-2 orders of magnitude less memory
/// per core" scenario the paper motivates with.
pub fn predict(h: &mut Harness) {
    let m = h.machine();
    let (cmap, bmap) = calibrated_maps(h);
    // One batch: the storage and bandwidth sweeps share the
    // zero-interference baseline simulation.
    let w: &dyn Workload = &McbWorkload(McbCfg::new(&m, 60_000));
    let sweeps = sweep_batch(h, [(w, 2, Storage, 6), (w, 2, Bandwidth, 2)]);
    let [cs, bw]: [_; 2] = sweeps.try_into().expect("two requests, two sweeps");
    let smodel = DegradationModel::from_storage_sweep(&cs, &cmap);
    let bmodel = DegradationModel::from_bandwidth_sweep(&bw, &bmap);
    let baseline = cs.baseline_seconds().expect("storage sweep has a baseline");

    let l3 = m.l3.size_bytes as f64;
    let total_bw = bmap.total_gbs;
    let mut t = Table::new(
        format!(
            "Predicted MCB (60k particles, 2 ranks/processor) on constrained machines \
             (baseline {:.3} ms)",
            baseline * 1e3
        ),
        &[
            "L3 fraction",
            "BW fraction",
            "Predicted time (ms)",
            "Predicted slowdown",
        ],
    );
    for &(fl3, fbw) in &[
        (1.0, 1.0),
        (0.5, 1.0),
        (0.25, 1.0),
        (1.0, 0.75),
        (1.0, 0.5),
        (0.5, 0.5),
        (0.25, 0.5),
    ] {
        let hyp = HypotheticalMachine {
            l3_bytes: l3 * fl3,
            bw_gbs: total_bw * fbw,
        };
        let pred = predict_combined(&smodel, &bmodel, &hyp, baseline);
        t.row(vec![
            format!("{fl3:.2}"),
            format!("{fbw:.2}"),
            format!("{:.3}", pred * 1e3),
            format!("{:.2}x", pred / baseline),
        ]);
    }
    h.emit("predict", &t);
    println!(
        "Predictions interpolate measured degradation; below the most \
         constrained measured point they are lower bounds."
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use amem_core::SweepPoint;

    #[test]
    fn degradation_panel_rows_and_ci_columns() {
        let point = |count, seconds, degradation_pct| SweepPoint {
            count,
            seconds,
            degradation_pct,
            l3_miss_rate: 0.1,
            app_bandwidth_gbs: 1.0,
            quality: None,
        };
        let sweep = Sweep {
            workload: "hand-built".into(),
            kind: Storage,
            per_processor: 2,
            points: vec![point(0, 0.002, 0.0), point(1, 0.00225, 12.5)],
            degraded: Vec::new(),
        };
        let t = degradation_panel("t".into(), "Ranks/processor", [("2", &sweep)], false);
        assert_eq!(
            t.to_csv(),
            "Ranks/processor,Interference,Time (ms),Degradation (%)\n\
             2,0,2.000,0.0\n2,1,2.250,12.5\n"
        );
        let series = [("1", &sweep), ("4", &sweep)];
        let t = degradation_panel("t".into(), "Particles", series, true);
        assert_eq!(
            t.to_csv(),
            "Particles,Interference,Time (ms),Degradation (%),Trials,CI95 (%)\n\
             1,0,2.000,0.0,1,-\n1,1,2.250,12.5,1,-\n4,0,2.000,0.0,1,-\n4,1,2.250,12.5,1,-\n"
        );
    }
}
