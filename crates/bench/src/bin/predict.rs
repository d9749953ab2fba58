#![forbid(unsafe_code)]
//! Performance prediction for memory-constrained machines (§I, §VI).
//!
//! The payoff of Active Measurement: having swept MCB against storage and
//! bandwidth interference, interpolate the degradation curves to predict
//! its runtime on hypothetical nodes with a fraction of today's L3 and
//! memory bandwidth — the Exascale "1-2 orders of magnitude less memory
//! per core" scenario the paper motivates with.

use amem_bench::Harness;
use amem_core::platform::McbWorkload;
use amem_core::predict::{predict_combined, DegradationModel, HypotheticalMachine};
use amem_core::report::Table;
use amem_core::sweep::run_sweeps;
use amem_core::{BandwidthMap, CapacityMap, SweepRequest};
use amem_interfere::InterferenceKind;
use amem_miniapps::McbCfg;

fn main() {
    let mut h = Harness::new("predict");
    let m = h.machine();
    let exec = h.executor();
    eprintln!("calibrating and sweeping...");
    let cmap = CapacityMap::calibrate(&exec, &Default::default()).expect("capacity calibration");
    let bmap = BandwidthMap::calibrate(&m);
    let w = McbWorkload(McbCfg::new(&m, 60_000));
    // One executor batch: the storage and bandwidth sweeps share the
    // zero-interference baseline simulation.
    let sweeps = run_sweeps(
        &exec,
        &[
            SweepRequest {
                workload: &w,
                per_processor: 2,
                kind: InterferenceKind::Storage,
                max_count: 6,
            },
            SweepRequest {
                workload: &w,
                per_processor: 2,
                kind: InterferenceKind::Bandwidth,
                max_count: 2,
            },
        ],
    )
    .expect("predict sweeps");
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
    h.finish();
}
