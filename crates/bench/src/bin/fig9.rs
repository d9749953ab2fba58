#![forbid(unsafe_code)]
//! Fig. 9 — MCB performance degradation.
//!
//! Top panels: 24-rank MCB at 20 000 particles under several mappings
//! (p = 1, 2, 3, 4, 6 ranks per processor), swept against CSThrs (left)
//! and BWThrs (right). More ranks per processor ⇒ less L3 per rank ⇒ the
//! same degradation arrives at fewer CSThrs.
//!
//! Bottom panels: 1 rank per processor, particle counts 20 k – 260 k.
//! Storage: little degradation through 3 CSThrs, 20–25% at 4–5. Bandwidth:
//! impact grows to ≈90 k particles, then declines as compute dominates.

use amem_bench::Harness;
use amem_core::platform::McbWorkload;
use amem_core::report::{trial_cells, Table};
use amem_core::sweep::run_sweeps;
use amem_core::SweepRequest;
use amem_interfere::{InterferenceKind, InterferenceMix};
use amem_miniapps::McbCfg;

fn main() {
    let mut h = Harness::new("fig9");
    let m = h.machine();
    let exec = h.executor();

    // ---- Top: mapping sweep at 20k particles --------------------------
    let w20k = McbWorkload(McbCfg::new(&m, 20_000));
    for (kind, max, tag) in [
        (InterferenceKind::Storage, 7usize, "storage"),
        (InterferenceKind::Bandwidth, 2usize, "bandwidth"),
    ] {
        let mut headers = vec![
            "Ranks/processor",
            "Interference",
            "Time (ms)",
            "Degradation (%)",
        ];
        if h.ci {
            headers.extend(["Trials", "CI95 (%)"]);
        }
        let mut t = Table::new(
            format!("Fig. 9 (top, {tag}) — MCB 24 ranks, 20k particles, mapping sweep"),
            &headers,
        );
        let ps = [1usize, 2, 3, 4, 6];
        let requests: Vec<SweepRequest> = ps
            .iter()
            .map(|&p| SweepRequest {
                workload: &w20k,
                per_processor: p,
                kind,
                max_count: max,
            })
            .collect();
        let sweeps = run_sweeps(&exec, &requests).expect("fig9 top sweeps");
        for (&p, sweep) in ps.iter().zip(&sweeps) {
            for pt in &sweep.points {
                let mut row = vec![
                    p.to_string(),
                    pt.count.to_string(),
                    format!("{:.3}", pt.seconds * 1e3),
                    format!("{:.1}", pt.degradation_pct),
                ];
                if h.ci {
                    row.extend(trial_cells(pt.quality.as_ref()));
                }
                t.row(row);
            }
        }
        h.emit(&format!("fig9_top_{tag}"), &t);
    }

    // ---- Bottom: particle sweep at 1 rank/processor -------------------
    let particles: Vec<u64> = if h.full {
        (0..=12).map(|i| 20_000 + 20_000 * i).collect()
    } else {
        vec![20_000, 60_000, 90_000, 140_000, 200_000, 260_000]
    };
    for (kind, max, tag) in [
        (InterferenceKind::Storage, 5usize, "storage"),
        (InterferenceKind::Bandwidth, 2usize, "bandwidth"),
    ] {
        let mut headers = vec!["Particles", "Interference", "Time (ms)", "Degradation (%)"];
        if h.ci {
            headers.extend(["Trials", "CI95 (%)"]);
        }
        let mut t = Table::new(
            format!("Fig. 9 (bottom, {tag}) — MCB 24 ranks, 1 rank/processor, particle sweep"),
            &headers,
        );
        let workloads: Vec<McbWorkload> = particles
            .iter()
            .map(|&n| McbWorkload(McbCfg::new(&m, n)))
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
        let sweeps = run_sweeps(&exec, &requests).expect("fig9 bottom sweeps");
        for (&n, sweep) in particles.iter().zip(&sweeps) {
            for pt in &sweep.points {
                let mut row = vec![
                    n.to_string(),
                    pt.count.to_string(),
                    format!("{:.3}", pt.seconds * 1e3),
                    format!("{:.1}", pt.degradation_pct),
                ];
                if h.ci {
                    row.extend(trial_cells(pt.quality.as_ref()));
                }
                t.row(row);
            }
        }
        h.emit(&format!("fig9_bottom_{tag}"), &t);
    }

    // ---- Telemetry capture (--sample / --trace / --profile) -----------
    // One representative point of the sweep, instrumented: per-core
    // time-series JSONL plus a Perfetto-loadable Chrome trace, the
    // manifest's headline counters and (with --profile) the cycle
    // breakdown.
    if h.telemetry_enabled() || h.args().profile {
        let meas = exec
            .run(&w20k, 1, InterferenceMix::storage(3))
            .expect("fig9 telemetry run");
        h.record_measurement(&meas);
        h.export_telemetry("fig9_mcb", &meas.report);
    }
    h.finish();
}
