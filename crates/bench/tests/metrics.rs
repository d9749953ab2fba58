//! An instrumented figure run, as the binary: `repro fig1 --metrics`
//! exports Prometheus text the bundled parser reads, its manifest carries
//! the same counters, and the run's deterministic counts hold.

use std::process::Command;

use amem_core::manifest::RunManifest;
use amem_metrics::export::parse_prometheus_text;

#[test]
fn an_instrumented_fig1_run_exports_prom_text_that_matches_its_manifest() {
    let out = std::env::temp_dir().join(format!("amem_metrics_fig1_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "fig1",
            "--scale",
            "0.0625",
            "--no-cache",
            "--metrics",
            "--out",
        ])
        .arg(&out)
        .env("AMEM_PROGRESS", "0")
        .output()
        .unwrap();
    let printed = String::from_utf8_lossy(&run.stdout);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "{printed}\n{stderr}");
    assert!(
        printed.lines().any(|l| l.starts_with("[metrics] ")),
        "{printed}"
    );

    let text = std::fs::read_to_string(out.join("fig1.metrics.prom")).unwrap();
    let samples = parse_prometheus_text(&text).unwrap();
    let manifest = RunManifest::load(out.join("fig1.manifest.json")).unwrap();
    let _ = std::fs::remove_dir_all(&out);
    let snap = manifest
        .metrics
        .expect("a --metrics run's manifest carries the snapshot");

    let mut counters = 0;
    for s in snap.series.iter().filter(|s| s.kind == "counter") {
        let prom = samples
            .iter()
            .find(|p| p.name == s.name && p.labels == s.labels)
            .unwrap_or_else(|| panic!("{} {:?} is not in the prom text", s.name, s.labels));
        assert_eq!(
            Some(prom.value as u64),
            s.counter,
            "{} {:?}",
            s.name,
            s.labels
        );
        counters += 1;
    }
    assert!(counters > 0, "no counter series in {snap:?}");

    // What fig1 at 1/16 does: six points in one sweep batch, each one
    // fresh simulation, aggregated once by the platform and once by the
    // executor.
    for (name, labels, want) in [
        (
            "amem_executor_requests_total",
            [("outcome", "uncached_sim")],
            6,
        ),
        ("amem_sweep_points_total", [("result", "ok")], 6),
        ("amem_phase_calls_total", [("phase", "op_generation")], 6),
        ("amem_phase_calls_total", [("phase", "simulation")], 6),
        ("amem_phase_calls_total", [("phase", "aggregation")], 12),
    ] {
        assert_eq!(snap.counter(name, &labels), Some(want), "{name} {labels:?}");
    }
    assert_eq!(snap.counter("amem_sim_runs_total", &[]), Some(6));
    assert_eq!(snap.counter("amem_sweep_batches_total", &[]), Some(1));
}
