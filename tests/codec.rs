//! Byte identity of the JSON codec with the files under
//! `tests/data/codec/`, which the commit before the streaming codec
//! wrote with its value-tree codec: every message the daemon puts on the
//! wire, every entry the executor puts on disk and every record the
//! journal keeps must still encode to the same bytes, and decoding those
//! bytes and encoding the result must give them back.

use std::path::{Path, PathBuf};

use active_mem::core::figures::fig1_probe;
use active_mem::core::platform::{ProbeWorkload, SimPlatform};
use active_mem::core::report::Table;
use active_mem::core::sweep::run_sweep;
use active_mem::core::{
    CacheStats, CapacityMap, CurveMode, CurveRequest, Executor, MissRatioCurve, RunManifest,
};
use active_mem::interfere::{InterferenceKind, InterferenceMix};
use active_mem::probes::probe::ProbeCfg;
use active_mem::serve::protocol::{
    Command, JobResult, JobSpec, Priority, Request, Response, WorkloadSpec, PROTOCOL_VERSION,
};
use active_mem::serve::{JobRecord, JobStatus, JOB_SCHEMA_VERSION};
use active_mem::sim::MachineConfig;

fn machine() -> MachineConfig {
    MachineConfig::xeon20mb().scaled(0.0625)
}

/// A probe short enough that simulating it costs milliseconds.
fn probe(m: &MachineConfig) -> ProbeCfg {
    let accesses = m.l3.lines() / 16;
    ProbeCfg {
        warm_accesses: accesses,
        measure_accesses: accesses,
        ..fig1_probe(m)
    }
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data/codec")
        .join(name)
}

fn golden(name: &str) -> String {
    let path = golden_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `encoded` is the golden text, and the golden text decodes (as `T`)
/// and re-encodes (with `encode`) to itself.
fn check<T: serde::Deserialize>(name: &str, encoded: &str, encode: fn(&T) -> String) {
    let want = golden(name);
    assert_eq!(encoded, want, "{name}: encoding changed");
    let back: T = serde_json::from_str(&want).unwrap_or_else(|e| panic!("{name}: decode: {e}"));
    assert_eq!(
        encode(&back),
        want,
        "{name}: decode then encode is not a fixed point"
    );
}

fn compact<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).unwrap()
}

fn pretty<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string_pretty(v).unwrap()
}

fn sweep_job(m: &MachineConfig) -> JobSpec {
    JobSpec::Sweep {
        machine: m.clone(),
        workload: WorkloadSpec::Probe(probe(m)),
        per_processor: 1,
        kind: InterferenceKind::Storage,
        max_count: 3,
    }
}

fn curve_request(m: &MachineConfig) -> CurveRequest {
    CurveRequest::from_probe(
        &probe(m),
        m.l3.line_bytes as u64,
        vec![64, 512, 4096, m.l3.lines()],
        CurveMode::Exact,
    )
}

#[test]
fn wire_messages_match_the_parent_commits_bytes() {
    let m = machine();
    let exec = Executor::memory_only(SimPlatform::new(m.clone()));
    let w = ProbeWorkload(probe(&m));

    let request = Request {
        v: PROTOCOL_VERSION,
        tenant: "tenant \"β\"\t1".into(),
        priority: Priority::High,
        fault: None,
        command: Command::Submit(Box::new(sweep_job(&m))),
    };
    check::<Request>("request_sweep.json", &compact(&request), compact);

    let measurement = exec.run(&w, 1, InterferenceMix::storage(1)).unwrap();
    let reply = Response::ok(7, JobResult::Measurement((*measurement).clone()));
    check::<Response>("response_measurement.json", &compact(&reply), compact);

    let sweep = run_sweep(&exec, &w, 1, InterferenceKind::Storage, 3).unwrap();
    let reply = Response::ok(8, JobResult::Sweep(sweep));
    check::<Response>("response_sweep.json", &compact(&reply), compact);

    let map = CapacityMap::paper_xeon20mb(&m);
    check::<CapacityMap>("capacity_map.json", &compact(&map), compact);

    let curve = exec.run_curve(&curve_request(&m)).unwrap();
    check::<MissRatioCurve>("miss_ratio_curve.json", &compact(&*curve), compact);
}

#[test]
fn durable_records_match_the_parent_commits_bytes() {
    let m = machine();

    let record = JobRecord {
        schema_version: JOB_SCHEMA_VERSION,
        id: 42,
        tenant: "t0".into(),
        priority: Priority::Low,
        status: JobStatus::Failed,
        error: Some("injected: line 1\nline 2 \\ \u{1}".into()),
        spec: sweep_job(&m),
    };
    check::<JobRecord>("job_record.pretty.json", &pretty(&record), pretty);

    let mut manifest = RunManifest::new("codec_golden", m.clone());
    manifest.scale = 0.0625;
    manifest.seed = Some(u64::MAX);
    manifest.wall_seconds = 1.5;
    manifest.sim_seconds = Some(1e-7);
    let mut table = Table::new("empty and not", &["a", "b"]);
    table.rows.push(vec!["1".into(), "é".into()]);
    manifest.tables = vec![table, Table::new("no rows", &[])];
    manifest.notes = vec!["one note".into()];
    manifest.cache = Some(CacheStats::default());
    check::<RunManifest>("run_manifest.pretty.json", &pretty(&manifest), pretty);
}

/// Store `request`'s result through a fresh executor and compare the one
/// file it leaves with the parent's; then plant the parent's file under
/// the name this build derives for the key and expect a disk hit that
/// computes nothing. `request` returns the result's JSON and the
/// namespace's (disk hits, fresh computations).
fn check_disk_entry(name: &str, request: impl Fn(&Executor) -> (String, u64, u64)) {
    let dir = std::env::temp_dir().join(format!("amem_codec_golden_{name}"));
    let _ = std::fs::remove_dir_all(&dir);

    let exec = Executor::with_cache_dir(SimPlatform::new(machine()), dir.clone());
    let (fresh, ..) = request(&exec);
    let file = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("one stored entry");
    let want = golden(name);
    assert_eq!(
        std::fs::read_to_string(&file).unwrap(),
        want,
        "{name}: disk entry encoding changed"
    );

    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(file.file_name().unwrap()), &want).unwrap();
    let exec = Executor::with_cache_dir(SimPlatform::new(machine()), dir.clone());
    let (hit, disk_hits, computed) = request(&exec);
    assert_eq!((disk_hits, computed), (1, 0), "{name}: {:?}", exec.stats());
    assert_eq!(hit, fresh);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The executor's disk entries are private: their bytes are what a
/// store leaves in the cache directory, and decoding them is a disk hit.
/// (`disk_entry.json` embeds `CACHE_SCHEMA_VERSION` twice, in the entry
/// and in its key; a schema bump edits those two digits and nothing else.)
#[test]
fn disk_entries_match_the_parent_commits_bytes_and_serve_as_hits() {
    let m = machine();
    check_disk_entry("disk_entry.json", |exec| {
        let w = ProbeWorkload(probe(&m));
        let meas = exec.run(&w, 1, InterferenceMix::storage(1)).unwrap();
        let s = exec.stats();
        (compact(&*meas), s.disk_hits, s.sim_runs)
    });
    check_disk_entry("curve_disk_entry.json", |exec| {
        let curve = exec.run_curve(&curve_request(&m)).unwrap();
        let s = exec.stats().curves();
        (compact(&*curve), s.disk_hits, s.runs)
    });
}
