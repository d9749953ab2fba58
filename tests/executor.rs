//! Integration tests for the measurement executor: on-disk cache
//! round-trips, invalidation, and in-flight deduplication — each case
//! once, run over both of the executor's namespaces (measurements and
//! curves).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use active_mem::core::platform::{McbWorkload, SimPlatform};
use active_mem::core::sweep::run_sweep;
use active_mem::core::{CapacityMap, CurveMode, CurveRequest, Executor};
use active_mem::interfere::{InterferenceKind, InterferenceMix};
use active_mem::miniapps::McbCfg;
use active_mem::probes::dist::AccessDist;
use active_mem::probes::probe::ProbeCfg;
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

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amem_executor_test_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn entry_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

/// The executor's two cache namespaces. Every disk and dedup behaviour
/// below is checked through this one handle, so the curve path is held
/// to exactly what the measurement path is held to.
#[derive(Debug, Clone, Copy)]
enum Namespace {
    Measurement,
    Curve,
}

/// What one namespace's counters say.
struct Seen {
    computed: u64,
    disk_hits: u64,
    hits: u64,
    stores: u64,
}

impl Namespace {
    /// Issue the namespace's one fixed request; the result as JSON.
    fn request(self, exec: &Executor) -> String {
        let m = machine();
        match self {
            Namespace::Measurement => {
                let meas = exec.run(&workload(&m), 2, InterferenceMix::storage(2));
                serde_json::to_string(&*meas.unwrap()).unwrap()
            }
            Namespace::Curve => {
                let probe = ProbeCfg::for_machine(&m, AccessDist::Uniform, 2.5, 1);
                let ladder = CapacityMap::level_ladder(&m, 3);
                let req = CurveRequest::from_probe(
                    &probe,
                    m.l3.line_bytes as u64,
                    ladder,
                    CurveMode::Exact,
                );
                serde_json::to_string(&*exec.run_curve(&req).unwrap()).unwrap()
            }
        }
    }

    fn seen(self, exec: &Executor) -> Seen {
        let s = exec.stats();
        match self {
            Namespace::Measurement => Seen {
                computed: s.sim_runs,
                disk_hits: s.disk_hits,
                hits: s.hits(),
                stores: s.stores,
            },
            Namespace::Curve => Seen {
                computed: s.curves().runs,
                disk_hits: s.curves().disk_hits,
                hits: s.curves().hits(),
                stores: s.curves().stores,
            },
        }
    }

    fn schema_version(self) -> u32 {
        match self {
            Namespace::Measurement => active_mem::core::CACHE_SCHEMA_VERSION,
            Namespace::Curve => active_mem::core::CURVE_SCHEMA_VERSION,
        }
    }
}

fn executor(dir: &Path) -> Executor {
    Executor::with_cache_dir(SimPlatform::new(machine()), dir)
}

fn disk_hit_is_byte_identical_to_the_fresh_result(ns: Namespace) {
    let dir = temp_cache(&format!("roundtrip_{ns:?}"));
    let fresh = {
        let exec = executor(&dir);
        let fresh = ns.request(&exec);
        assert_eq!(ns.seen(&exec).computed, 1);
        assert_eq!(ns.seen(&exec).stores, 1);
        fresh
    };

    // A brand-new executor (fresh process, in effect) over the same disk
    // cache must serve the identical result without computing it.
    let exec = executor(&dir);
    let hit = ns.request(&exec);
    assert_eq!(ns.seen(&exec).computed, 0, "{:?}", exec.stats());
    assert_eq!(ns.seen(&exec).disk_hits, 1, "{:?}", exec.stats());
    assert_eq!(
        fresh, hit,
        "cache hit must be byte-identical to the run it replaced"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn corrupt_entry_forces_a_recomputation(ns: Namespace) {
    let dir = temp_cache(&format!("corrupt_{ns:?}"));
    let fresh = ns.request(&executor(&dir));
    let files = entry_files(&dir);
    assert_eq!(files.len(), 1, "one request, one entry");
    std::fs::write(&files[0], "{ not json").unwrap();

    let exec = executor(&dir);
    let again = ns.request(&exec);
    let s = exec.stats();
    assert_eq!(
        ns.seen(&exec).computed,
        1,
        "corrupt entry reads as a miss: {s:?}"
    );
    assert_eq!(ns.seen(&exec).disk_hits, 0);
    assert_eq!(again, fresh, "recomputation is deterministic");
    // The corrupt entry was overwritten with a good one.
    let json = std::fs::read_to_string(&files[0]).unwrap();
    assert!(json.contains("schema_version"));
    let _ = std::fs::remove_dir_all(&dir);
}

fn version_bumped_entry_forces_a_recomputation(ns: Namespace) {
    let dir = temp_cache(&format!("version_{ns:?}"));
    ns.request(&executor(&dir));
    let files = entry_files(&dir);
    assert_eq!(files.len(), 1);
    // Pretend the entry was written by a different (newer) schema.
    let json = std::fs::read_to_string(&files[0]).unwrap();
    let cur = format!("\"schema_version\":{}", ns.schema_version());
    let bumped = format!("\"schema_version\":{}", ns.schema_version() + 1);
    assert!(json.contains(&cur), "{json}");
    std::fs::write(&files[0], json.replace(&cur, &bumped)).unwrap();

    let exec = executor(&dir);
    ns.request(&exec);
    let s = exec.stats();
    assert_eq!(
        ns.seen(&exec).computed,
        1,
        "version mismatch reads as a miss: {s:?}"
    );
    assert_eq!(ns.seen(&exec).disk_hits, 0);
    // And the entry is rewritten at the current version.
    let json = std::fs::read_to_string(&files[0]).unwrap();
    assert!(json.contains(&cur), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

fn concurrent_identical_requests_compute_once(ns: Namespace) {
    const THREADS: u64 = 4;
    let exec = Executor::memory_only(SimPlatform::new(machine()));
    let results: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| s.spawn(|| ns.request(&exec)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(results.iter().all(|r| *r == results[0]));
    // One thread computes; the rest join it in flight (or hit memory, if
    // timing staggers them).
    let s = exec.stats();
    assert_eq!(ns.seen(&exec).computed, 1, "{s:?}");
    assert_eq!(ns.seen(&exec).hits, THREADS - 1, "{s:?}");
}

#[test]
fn disk_cache_hit_is_byte_identical_to_the_fresh_run() {
    disk_hit_is_byte_identical_to_the_fresh_result(Namespace::Measurement);
}

#[test]
fn corrupt_entries_force_a_resimulation() {
    corrupt_entry_forces_a_recomputation(Namespace::Measurement);
}

#[test]
fn version_bumped_entries_force_a_resimulation() {
    version_bumped_entry_forces_a_recomputation(Namespace::Measurement);
}

#[test]
fn concurrent_identical_measurements_simulate_once() {
    concurrent_identical_requests_compute_once(Namespace::Measurement);
}

// (The curve round trip is `tests/curve.rs::
// curve_disk_cache_round_trips_across_executors`.)

#[test]
fn corrupt_curve_entries_force_a_fresh_pass() {
    corrupt_entry_forces_a_recomputation(Namespace::Curve);
}

#[test]
fn version_bumped_curve_entries_force_a_fresh_pass() {
    version_bumped_entry_forces_a_recomputation(Namespace::Curve);
}

#[test]
fn concurrent_identical_curve_requests_share_one_pass() {
    concurrent_identical_requests_compute_once(Namespace::Curve);
}

#[test]
fn concurrent_sweeps_share_one_baseline_simulation() {
    // Two threads sweep different resources against the same workload and
    // mapping. Their k=0 baselines are the same content-addressed
    // measurement, so one thread simulates it and the other joins the
    // in-flight run (or hits the cache, if timing staggers them).
    let m = machine();
    let w = workload(&m);
    let exec = Arc::new(Executor::memory_only(SimPlatform::new(m.clone())));

    let (storage, bandwidth) = std::thread::scope(|s| {
        let cs = s.spawn(|| run_sweep(&exec, &w, 2, InterferenceKind::Storage, 3).unwrap());
        let bw = s.spawn(|| run_sweep(&exec, &w, 2, InterferenceKind::Bandwidth, 2).unwrap());
        (cs.join().unwrap(), bw.join().unwrap())
    });
    assert_eq!(storage.points.len(), 4);
    assert_eq!(bandwidth.points.len(), 3);
    assert_eq!(
        storage.points[0].seconds, bandwidth.points[0].seconds,
        "both sweeps start from the same baseline"
    );

    let s = exec.stats();
    // 7 points requested, 6 distinct measurements: the shared baseline
    // simulates exactly once.
    assert_eq!(s.lookups(), 7, "{s:?}");
    assert_eq!(s.sim_runs, 6, "the baseline must be simulated once: {s:?}");
    assert_eq!(s.hits(), 1, "{s:?}");
}
