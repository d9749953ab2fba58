//! Integration tests for the metrics subsystem: registry exactness under
//! contention, histogram bucket law, cardinality bounding, and — the load-
//! bearing property — zero perturbation: enabling the gate must not change
//! a single output byte of the measurement pipeline.

use std::sync::Arc;

use active_mem::core::platform::{McbWorkload, SimPlatform};
use active_mem::core::report::Table;
use active_mem::core::sweep::run_sweep;
use active_mem::core::Executor;
use active_mem::interfere::{InterferenceKind, InterferenceMix};
use active_mem::metrics::Registry;
use active_mem::miniapps::McbCfg;
use active_mem::sim::MachineConfig;

fn machine() -> MachineConfig {
    MachineConfig::xeon20mb().scaled(0.0625)
}

fn workload(m: &MachineConfig) -> McbWorkload {
    McbWorkload(McbCfg {
        ranks: 4,
        steps: 2,
        ..McbCfg::new(m, 4000)
    })
}

#[test]
fn eight_threads_of_increments_sum_exactly() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 100_000;
    let reg = Arc::new(Registry::new());
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let reg = Arc::clone(&reg);
            s.spawn(move || {
                // Resolve once, hammer the handle: the one-cell counter
                // must still produce an exact total, not a sampled one.
                let c = reg.counter("amem_test_contended_total", &[]);
                let g = reg.gauge("amem_test_gauge", &[]);
                let h = reg.histogram("amem_test_hist", &[]);
                for i in 0..PER_THREAD {
                    c.inc();
                    g.inc();
                    h.record(i % 1024);
                }
            });
        }
    });
    let snap = reg.snapshot();
    let n = THREADS as u64 * PER_THREAD;
    assert_eq!(snap.counter("amem_test_contended_total", &[]), Some(n));
    assert_eq!(snap.gauge("amem_test_gauge", &[]), Some(n as i64));
    let h = snap.histogram("amem_test_hist", &[]).unwrap();
    assert_eq!(h.count, n);
}

#[test]
fn histogram_buckets_follow_the_power_of_two_law() {
    let reg = Registry::new();
    let h = reg.histogram("amem_test_buckets", &[]);
    // bucket 0 holds zeros; bucket i holds [2^(i-1), 2^i).
    for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
        h.record(v);
    }
    let snap = reg.snapshot().histogram("amem_test_buckets", &[]).cloned();
    let s = snap.unwrap();
    assert_eq!(s.count, 10);
    assert_eq!(s.max, u64::MAX);
    assert_eq!(s.buckets[0], 1, "one zero");
    assert_eq!(s.buckets[1], 1, "value 1 -> [1,2)");
    assert_eq!(s.buckets[2], 2, "values 2,3 -> [2,4)");
    assert_eq!(s.buckets[3], 2, "values 4,7 -> [4,8)");
    assert_eq!(s.buckets[4], 1, "value 8 -> [8,16)");
    assert_eq!(s.buckets[10], 1, "value 1023 -> [512,1024)");
    assert_eq!(s.buckets[11], 1, "value 1024 -> [1024,2048)");
    assert_eq!(s.buckets[64], 1, "u64::MAX lands in the top bucket");
}

#[test]
fn label_cardinality_is_capped_per_family() {
    let reg = Registry::with_series_cap(8);
    for i in 0..100 {
        reg.counter("amem_test_capped_total", &[("id", &i.to_string())])
            .inc();
    }
    assert!(
        reg.series_count("amem_test_capped_total") <= 9,
        "8 real series plus the overflow collector"
    );
    let snap = reg.snapshot();
    assert_eq!(
        snap.counter_total("amem_test_capped_total"),
        100,
        "collapsing into overflow must not lose counts"
    );
    assert!(
        snap.counter("amem_test_capped_total", &[("overflow", "true")])
            .unwrap_or(0)
            >= 91,
        "past the cap, new label sets share the overflow series"
    );
}

/// Run the fig1-style measurement pipeline and return every byte an
/// experiment would publish: the cache key and the rendered CSV.
fn measure_once(m: &MachineConfig) -> (Option<String>, String) {
    let w = workload(m);
    let exec = Executor::memory_only(SimPlatform::new(m.clone()));
    let key = exec.request_key(&w, 2, InterferenceMix::storage(1));
    let sweep = run_sweep(&exec, &w, 2, InterferenceKind::Storage, 3).expect("sweep");
    let mut t = Table::new("zp", &["count", "seconds", "degradation"]);
    for p in &sweep.points {
        t.row(vec![
            p.count.to_string(),
            format!("{:.12}", p.seconds),
            format!("{:.12}", p.degradation_pct),
        ]);
    }
    (key, t.to_csv())
}

/// The tentpole guarantee: flipping the metrics gate on changes nothing
/// about what the pipeline computes — figure CSV bytes and executor cache
/// keys are identical — while the registry demonstrably records.
///
/// One test fn (not several) because it mutates the process-global gate:
/// every other test in this binary must stay gate-free.
#[test]
fn enabling_metrics_perturbs_no_output_bytes() {
    let m = machine();
    assert!(
        !active_mem::metrics::enabled(),
        "the gate defaults to off in a fresh process"
    );
    let (key_off, csv_off) = measure_once(&m);

    active_mem::metrics::set_enabled(true);
    active_mem::metrics::reset();
    let (key_on, csv_on) = measure_once(&m);
    let snap = active_mem::metrics::snapshot();
    active_mem::metrics::set_enabled(false);

    assert_eq!(key_off, key_on, "cache keys must ignore the metrics gate");
    assert!(key_on.is_some(), "the request is cacheable in both worlds");
    assert_eq!(csv_off, csv_on, "figure CSV bytes must be identical");

    // ...and with the gate on, the run actually recorded.
    assert!(
        snap.counter_total("amem_executor_requests_total") >= 4,
        "baseline + 3 interfered points flow through the executor: {snap:?}"
    );
    assert!(
        snap.counter_total("amem_sim_runs_total") >= 1,
        "the engine published per-run counters"
    );
    assert!(
        snap.counter_total("amem_phase_calls_total") > 0,
        "phase attribution recorded"
    );
    assert!(
        snap.counter_total("amem_sim_accesses_total") > 0,
        "per-level access counters flowed from the sim"
    );
}
