//! End-to-end integration: the whole Active Measurement pipeline — sweep,
//! knee, calibration, estimation, prediction — on small MCB/Lulesh runs.

use active_mem::core::estimate::{bandwidth_use_per_process, storage_use_per_process};
use active_mem::core::knee::find_knee;
use active_mem::core::platform::{LuleshWorkload, McbWorkload, SimPlatform};
use active_mem::core::predict::DegradationModel;
use active_mem::core::sweep::{run_sweep, Sweep};
use active_mem::core::Executor;
use active_mem::core::{BandwidthMap, CapacityMap};
use active_mem::interfere::InterferenceKind;
use active_mem::miniapps::{LuleshCfg, McbCfg};
use active_mem::sim::MachineConfig;

fn machine() -> MachineConfig {
    MachineConfig::xeon20mb().scaled(0.0625)
}

#[test]
fn mcb_pipeline_brackets_the_mesh_footprint() {
    let m = machine();
    let exec = Executor::memory_only(SimPlatform::new(m.clone()));
    let cfg = McbCfg::new(&m, 20_000);
    let w = McbWorkload(cfg);
    let sweep = run_sweep(&exec, &w, 2, InterferenceKind::Storage, 6).expect("sweep");
    assert_eq!(sweep.points[0].degradation_pct, 0.0);

    let cmap = CapacityMap::paper_xeon20mb(&m);
    let iv = storage_use_per_process(&sweep, &cmap, 2, 3.0).expect("estimate");
    assert!(iv.lo <= iv.hi);
    // The known ground truth: each rank's resident set is its mesh
    // (27% of L3) plus small particle/comm arrays. The measured interval
    // must overlap [0.5x, 3x] of the mesh bytes.
    let mesh = cfg.mesh_bytes(&m) as f64;
    assert!(
        iv.hi >= 0.5 * mesh && iv.lo <= 3.0 * mesh,
        "interval [{:.0}, {:.0}] vs mesh {:.0}",
        iv.lo,
        iv.hi,
        mesh
    );
}

/// Fig. 9 top-left at test scale: 20 k particles, `p` ranks per
/// processor, 0–4 CSThrs.
fn mcb_storage_sweep(p: usize) -> Sweep {
    let m = machine();
    let exec = Executor::memory_only(SimPlatform::new(m.clone()));
    let w = McbWorkload(McbCfg::new(&m, 20_000));
    run_sweep(&exec, &w, p, InterferenceKind::Storage, 4).expect("sweep")
}

#[test]
fn mcb_mapping_staircase_holds() {
    // The scoreboard's "MCB storage degradation" and Fig. 9 staircase
    // rows: one rank per processor shrugs off three CSThrs and pays at
    // four, and packing more ranks onto a processor can only bring the
    // first degraded level forward.
    let sweeps: Vec<Sweep> = [1usize, 2, 3].into_iter().map(mcb_storage_sweep).collect();
    let p1: Vec<f64> = sweeps[0].points.iter().map(|p| p.degradation_pct).collect();
    assert!(p1[..=3].iter().all(|&d| d <= 1.0), "p=1 k<=3: {p1:?}");
    assert!(p1[4] >= 15.0, "p=1 k=4: {p1:?}");
    let first: Vec<usize> = sweeps
        .iter()
        .map(|s| {
            let knee = find_knee(s, 3.0).expect("5-point sweep is not degenerate");
            knee.first_degraded.expect("every mapping degrades by k=4")
        })
        .collect();
    assert!(
        first.windows(2).all(|w| w[1] <= w[0]),
        "first degraded level must not move right as ranks pack in: {first:?}"
    );
}

/// A multi-rank barrier *figure*, pinned byte for byte: two MCB ranks per
/// processor meet at a barrier every step, so any change to the
/// barrier-release order (DESIGN.md §14) shows up here as a CSV diff.
/// Regenerate intentionally with `AMEM_UPDATE_GOLDEN=1 cargo test --test
/// methodology`.
#[test]
fn fig9_p2_storage_rows_match_golden() {
    let mut csv = String::from("ranks_per_processor,csthrs,time_ms,degradation_pct\n");
    for pt in &mcb_storage_sweep(2).points {
        csv.push_str(&format!(
            "2,{},{:.3},{:.1}\n",
            pt.count,
            pt.seconds * 1e3,
            pt.degradation_pct
        ));
    }
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data/fig9_p2_storage_s0625.csv");
    if std::env::var("AMEM_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &csv).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run AMEM_UPDATE_GOLDEN=1 cargo test --test methodology",
            path.display()
        )
    });
    assert!(
        csv == expected,
        "fig9 p=2 storage rows drifted from {}; if intended, regenerate with AMEM_UPDATE_GOLDEN=1\n{csv}",
        path.display()
    );
}

#[test]
fn mcb_bandwidth_use_rises_as_processes_spread_out() {
    // The paper's Fig. 10 trend: fewer ranks per processor => more
    // bandwidth consumed per process (communication through the bus).
    let m = machine();
    let exec = Executor::memory_only(SimPlatform::new(m.clone()));
    let bmap = BandwidthMap::calibrate(&m);
    let mut mids = Vec::new();
    for p in [1usize, 4] {
        let w = McbWorkload(McbCfg::new(&m, 20_000));
        let sweep = run_sweep(&exec, &w, p, InterferenceKind::Bandwidth, 2).expect("sweep");
        let iv = bandwidth_use_per_process(&sweep, &bmap, p, 3.0).expect("estimate");
        mids.push(iv.midpoint());
    }
    assert!(
        mids[0] > mids[1],
        "per-process BW at p=1 ({:.2}) must exceed p=4 ({:.2})",
        mids[0],
        mids[1]
    );
}

#[test]
fn lulesh_overflow_scales_with_domain_size() {
    // Small cubes resist storage interference; big cubes overflow at low
    // interference — the knee must move left as the domain grows.
    let m = machine();
    let exec = Executor::memory_only(SimPlatform::new(m.clone()));
    let mut knees = Vec::new();
    for full_edge in [22u32, 36] {
        let edge = LuleshCfg::scaled_edge(&m, full_edge);
        let w = LuleshWorkload(LuleshCfg::new(edge));
        let sweep = run_sweep(&exec, &w, 1, InterferenceKind::Storage, 6).expect("sweep");
        let knee = find_knee(&sweep, 3.0).expect("7-point sweep is not degenerate");
        knees.push(knee.first_degraded.unwrap_or(usize::MAX));
    }
    assert!(
        knees[1] < knees[0],
        "36^3 must degrade earlier than 22^3: knees {knees:?}"
    );
}

#[test]
fn degradation_models_interpolate_and_clamp() {
    let m = machine();
    let exec = Executor::memory_only(SimPlatform::new(m.clone()));
    let w = McbWorkload(McbCfg::new(&m, 20_000));
    let sweep = run_sweep(&exec, &w, 2, InterferenceKind::Storage, 5).expect("sweep");
    let cmap = CapacityMap::paper_xeon20mb(&m);
    let model = DegradationModel::from_storage_sweep(&sweep, &cmap);
    // More cache can never predict worse performance than less cache at
    // the model's sampled points (monotone data in, monotone out).
    let lo = model.predict_pct(cmap.available_bytes(5));
    let hi = model.predict_pct(cmap.available_bytes(0));
    assert!(lo >= hi, "lo={lo} hi={hi}");
    // Clamping: predictions outside the measured range are finite.
    assert!(model.predict_pct(0.0).is_finite());
    assert!(model.predict_pct(f64::MAX / 2.0).is_finite());
}

#[test]
fn measurements_are_reproducible_end_to_end() {
    // Two *independent* executors, so the second sweep re-simulates
    // rather than hitting the first one's cache.
    let m = machine();
    let exec_a = Executor::memory_only(SimPlatform::new(m.clone()));
    let exec_b = Executor::memory_only(SimPlatform::new(m.clone()));
    let w = McbWorkload(McbCfg::new(&m, 10_000));
    let a = run_sweep(&exec_a, &w, 2, InterferenceKind::Storage, 3).expect("sweep");
    let b = run_sweep(&exec_b, &w, 2, InterferenceKind::Storage, 3).expect("sweep");
    for (x, y) in a.points.iter().zip(&b.points) {
        assert_eq!(x.seconds, y.seconds);
        assert_eq!(x.l3_miss_rate, y.l3_miss_rate);
    }
}
