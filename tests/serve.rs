//! Integration tests for the measurement service: byte identity with
//! library calls, cross-connection dedup, fault containment, drain
//! semantics, crash-debris reclamation — plus a multi-process stress
//! test of the shared on-disk cache.

use std::path::{Path, PathBuf};

use active_mem::core::capacity::CalibrateOpts;
use active_mem::core::figures::{fig1_probe, FIG1_MAX_COUNT, FIG1_PER_PROCESSOR};
use active_mem::core::platform::{ProbeWorkload, SimPlatform};
use active_mem::core::sweep::run_sweep;
use active_mem::core::{CacheStats, CapacityMap, Executor};
use active_mem::interfere::{InterferenceKind, InterferenceMix};
use active_mem::serve::protocol::{JobSpec, WorkloadSpec};
use active_mem::serve::quota::QuotaConfig;
use active_mem::serve::server::{ServeConfig, Server};
use active_mem::serve::store::StorePolicy;
use active_mem::serve::{Client, JobRecord, JobStatus};
use active_mem::sim::MachineConfig;

fn machine() -> MachineConfig {
    MachineConfig::xeon20mb().scaled(0.0625)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amem_serve_test_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn measure_spec(m: &MachineConfig, mix: InterferenceMix) -> JobSpec {
    JobSpec::Measure {
        machine: m.clone(),
        workload: WorkloadSpec::Probe(fig1_probe(m)),
        per_processor: FIG1_PER_PROCESSOR,
        mix,
    }
}

fn sweep_spec(m: &MachineConfig) -> JobSpec {
    JobSpec::Sweep {
        machine: m.clone(),
        workload: WorkloadSpec::Probe(fig1_probe(m)),
        per_processor: FIG1_PER_PROCESSOR,
        kind: InterferenceKind::Storage,
        max_count: FIG1_MAX_COUNT,
    }
}

fn start(cfg: ServeConfig) -> Server {
    Server::start(cfg).expect("start in-process daemon")
}

#[test]
fn served_results_are_byte_identical_to_library_calls() {
    let m = machine();
    let server = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(server.addr()).unwrap();

    let served = c
        .measure(measure_spec(&m, InterferenceMix::storage(2)))
        .unwrap();
    let lib_exec = Executor::memory_only(SimPlatform::new(m.clone()));
    let local = lib_exec
        .run(
            &ProbeWorkload(fig1_probe(&m)),
            FIG1_PER_PROCESSOR,
            InterferenceMix::storage(2),
        )
        .unwrap();
    assert_eq!(
        serde_json::to_string(&served).unwrap(),
        serde_json::to_string(&*local).unwrap(),
        "daemon measurement must match the library byte for byte"
    );

    let served_sweep = c.sweep(sweep_spec(&m)).unwrap();
    let local_sweep = run_sweep(
        &lib_exec,
        &ProbeWorkload(fig1_probe(&m)),
        FIG1_PER_PROCESSOR,
        InterferenceKind::Storage,
        FIG1_MAX_COUNT,
    )
    .unwrap();
    assert_eq!(
        serde_json::to_string(&served_sweep).unwrap(),
        serde_json::to_string(&local_sweep).unwrap(),
        "daemon sweep must match the library byte for byte"
    );

    c.shutdown().unwrap();
    server.wait();
}

#[test]
fn overlapping_requests_across_connections_share_simulations() {
    let m = machine();
    let server = start(ServeConfig {
        workers: 2,
        shards: 4,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    std::thread::scope(|s| {
        for i in 0..4 {
            let spec = sweep_spec(&m);
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.tenant = format!("tenant-{i}");
                c.sweep(spec).unwrap();
            });
        }
    });

    let stats = server.stats();
    let points = (FIG1_MAX_COUNT + 1) as u64;
    assert_eq!(
        stats.cache.sim_runs, points,
        "4 identical sweeps must cost one simulation per unique point: {:?}",
        stats.cache
    );
    assert_eq!(stats.cache.lookups(), points * 4);
    assert_eq!(stats.jobs_completed, 4);

    let mut c = Client::connect(addr).unwrap();
    c.shutdown().unwrap();
    server.wait();
}

/// The poison-tolerance satellite, end to end: a fault-injected job that
/// panics mid-run returns a typed error to its own submitter, while an
/// identical clean request from a second client completes normally and
/// the daemon stays fully responsive.
#[test]
fn panicking_job_is_contained_and_clean_requests_still_complete() {
    let m = machine();
    let server = start(ServeConfig {
        workers: 2,
        allow_fault: true,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let mut faulty = Client::connect(addr).unwrap();
    faulty.tenant = "chaos".into();
    faulty.fault = Some("seed=1,panic=1.0".into());
    let err = faulty
        .measure(measure_spec(&m, InterferenceMix::none()))
        .expect_err("a job that always panics must fail");
    assert!(
        err.to_string().contains("panic"),
        "the submitter sees a typed panic error, got: {err}"
    );

    // Identical spec, clean client: routes to a *different* executor
    // (fault is part of platform identity) and completes.
    let mut clean = Client::connect(addr).unwrap();
    clean
        .measure(measure_spec(&m, InterferenceMix::none()))
        .expect("clean request must complete after another job panicked");
    clean.ping().expect("daemon is still responsive");

    let stats = server.stats();
    assert_eq!(stats.jobs_failed, 1, "{stats:?}");
    assert_eq!(stats.jobs_completed, 1, "{stats:?}");

    clean.shutdown().unwrap();
    server.wait();
}

#[test]
fn fault_specs_are_refused_unless_enabled() {
    let m = machine();
    let server = start(ServeConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();
    c.fault = Some("seed=1,error=1.0".into());
    let err = c
        .measure(measure_spec(&m, InterferenceMix::none()))
        .expect_err("fault injection is off by default");
    assert!(err.to_string().contains("not enabled"), "{err}");
    c.fault = None;
    c.shutdown().unwrap();
    server.wait();
}

#[test]
fn calibrate_jobs_match_the_library_and_degenerate_ones_are_refused() {
    let m = machine();
    let server = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(server.addr()).unwrap();

    // A level count no socket can host is a typed refusal — before the
    // ladder would ask for an allocation no `catch_unwind` survives —
    // and the daemon keeps serving.
    let err = c
        .calibrate(JobSpec::Calibrate {
            machine: m.clone(),
            max_cs: usize::MAX,
        })
        .expect_err("max_cs beyond the socket is refused");
    assert!(err.to_string().contains("max_cs"), "{err}");
    c.ping().expect("the daemon still answers");

    let served = c
        .calibrate(JobSpec::Calibrate {
            machine: m.clone(),
            max_cs: 5,
        })
        .unwrap();
    let lib_exec = Executor::memory_only(SimPlatform::new(m.clone()));
    let local =
        CapacityMap::calibrate(&lib_exec, &CalibrateOpts::default().with_max_cs(5)).unwrap();
    assert_eq!(
        serde_json::to_string(&served).unwrap(),
        serde_json::to_string(&local).unwrap(),
        "daemon calibration must match the library byte for byte"
    );

    c.shutdown().unwrap();
    let stats = server.wait();
    assert_eq!(
        (stats.jobs_failed, stats.jobs_completed),
        (1, 1),
        "{stats:?}"
    );
}

#[test]
fn shutdown_drains_completed_work_then_refuses_new_jobs() {
    let m = machine();
    let server = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // A connection opened before the drain: its frontend outlives the
    // accept loop, so it observes the closed queue directly.
    let mut late = Client::connect(addr).unwrap();

    let mut c = Client::connect(addr).unwrap();
    c.measure(measure_spec(&m, InterferenceMix::none()))
        .unwrap();
    let drained = c.shutdown().unwrap();
    assert_eq!(drained, 1, "drain reports the lifetime completion count");

    // The point is resident by now, and still nobody runs it: a frontend
    // takes no job once the drain has begun.
    let err = late
        .measure(measure_spec(&m, InterferenceMix::none()))
        .expect_err("submissions after the drain are refused");
    assert!(err.to_string().contains("shutting down"), "{err}");
    let stats = server.wait();
    assert_eq!((stats.frontend_jobs, stats.jobs_completed), (0, 1));
}

/// With both workers inside seconds of simulation, a request for a
/// resident point is answered by the connection thread that parsed it —
/// before either worker is free to take anything.
#[test]
fn a_resident_hit_does_not_wait_for_busy_workers() {
    let m = machine();
    let server = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let point = measure_spec(&m, InterferenceMix::storage(2));
    let mut c = Client::connect(addr).unwrap();
    let cold = c.measure(point.clone()).unwrap();

    std::thread::scope(|s| {
        // Two sweeps of five cold levels each, one per worker.
        let mut bandwidth = sweep_spec(&m);
        if let JobSpec::Sweep { kind, .. } = &mut bandwidth {
            *kind = InterferenceKind::Bandwidth;
        }
        for spec in [sweep_spec(&m), bandwidth] {
            s.spawn(move || Client::connect(addr).unwrap().sweep(spec).unwrap());
        }
        loop {
            let stats = server.stats();
            if stats.jobs_submitted == 3 && stats.queue_depth == 0 {
                break; // both popped: both workers are busy
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }

        let hit = c.measure(point).unwrap();
        let stats = server.stats();
        assert_eq!(stats.jobs_completed, 2, "neither sweep is done: {stats:?}");
        assert_eq!(stats.frontend_jobs, 1);
        assert_eq!(
            serde_json::to_string(&hit).unwrap(),
            serde_json::to_string(&cold).unwrap()
        );
    });

    let stats = server.stats();
    assert_eq!((stats.jobs_completed, stats.frontend_jobs), (4, 1));
    c.shutdown().unwrap();
    server.wait();
}

/// A sweep with some levels in memory is not the frontend's: it is
/// queued, and the worker's `run_sweeps` counts its resident levels as
/// memory hits and simulates the rest. Once every level is resident the
/// frontend answers it: one memory hit a level, one frontend job, and
/// the bytes the worker's sweep had.
#[test]
fn a_sweep_is_the_frontends_only_when_every_level_is_resident() {
    let m = machine();
    let server = start(ServeConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();
    for k in [1, 2, 3] {
        c.measure(measure_spec(&m, InterferenceMix::storage(k)))
            .unwrap();
    }
    let levels = (FIG1_MAX_COUNT + 1) as u64;

    let partly = c.sweep(sweep_spec(&m)).unwrap();
    let s = server.stats();
    assert_eq!(s.frontend_jobs, 0, "queued: {s:?}");
    assert_eq!(s.cache.mem_hits, 3, "the worker's resident levels: {s:?}");
    assert_eq!(s.cache.sim_runs, levels, "and the rest simulated: {s:?}");

    let resident = c.sweep(sweep_spec(&m)).unwrap();
    let t = server.stats();
    assert_eq!(t.frontend_jobs, 1, "{t:?}");
    assert_eq!(t.cache.mem_hits, 3 + levels, "one a level: {t:?}");
    assert_eq!(t.cache.lookups(), s.cache.lookups() + levels);
    assert_eq!((t.jobs_completed, t.cache.sim_runs), (5, levels));
    assert_eq!(
        serde_json::to_string(&resident).unwrap(),
        serde_json::to_string(&partly).unwrap()
    );
    c.shutdown().unwrap();
    server.wait();
}

/// A store with a size bound is held to it while the daemon serves, not
/// only at open and at `Shutdown`: every 32nd job runs an eviction pass.
#[test]
fn a_bounded_store_stays_within_its_bound_while_serving() {
    const BOUND: u64 = 6_000;
    let m = machine();
    let dir = temp_dir("bounded_store");
    let server = start(ServeConfig {
        cache_dir: Some(dir.clone()),
        store: StorePolicy {
            max_bytes: Some(BOUND),
            ..StorePolicy::default()
        },
        quota: QuotaConfig::unlimited(),
        ..ServeConfig::default()
    });
    let bytes = || -> Vec<u64> {
        entry_files(&dir)
            .iter()
            .map(|p| std::fs::metadata(p).unwrap().len())
            .collect()
    };
    let mut c = Client::connect(server.addr()).unwrap();
    for k in [1, 2, 3] {
        c.measure(measure_spec(&m, InterferenceMix::storage(k)))
            .unwrap();
    }
    let stored = bytes();
    assert_eq!(stored.len(), 3);
    assert!(stored.iter().sum::<u64>() > BOUND, "{stored:?}");
    assert!(stored.iter().all(|&b| b <= BOUND), "{stored:?}");

    // 29 hits make 32 jobs, and the 32nd job executed runs the pass. A
    // worker counts its job after it replies, so the 32nd to be counted
    // may come a little later: allow up to a second period of hits.
    let mut jobs = 3;
    while bytes().iter().sum::<u64>() > BOUND {
        assert!(jobs < 64, "no eviction pass in {jobs} jobs: {:?}", bytes());
        c.measure(measure_spec(&m, InterferenceMix::storage(1)))
            .unwrap();
        jobs += 1;
    }
    assert!(jobs >= 32, "evicted after only {jobs} jobs");
    let left = bytes();
    let stats = server.stats();
    assert_eq!(stats.evictions_size, 3 - left.len() as u64, "{stats:?}");
    assert!(stats.store_bytes <= BOUND, "{stats:?}");

    c.shutdown().unwrap();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Drained` counts every job that got an `Ok` reply: a resident hit a
/// frontend let through before the drain is counted before the drain
/// acknowledges, and one it did not is refused. Two clients hammer a
/// resident point while a third connection sends `Shutdown`, twenty
/// times over.
#[test]
fn drained_counts_every_hit_answered_before_the_drain() {
    let m = machine();
    let dir = temp_dir("drain_race");
    let spec = || measure_spec(&m, InterferenceMix::storage(1));
    for round in 0..20 {
        let server = start(ServeConfig {
            cache_dir: Some(dir.clone()),
            quota: QuotaConfig::unlimited(),
            ..ServeConfig::default()
        });
        let addr = server.addr();
        // Set-up: the first round simulates the point, later rounds read
        // it from disk; either way it is resident afterwards.
        Client::connect(addr).unwrap().measure(spec()).unwrap();
        const SETUP: u64 = 1;

        let (ok, drained) = std::thread::scope(|s| {
            let hammers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut c = Client::connect(addr).unwrap();
                        let mut ok = 0u64;
                        while c.measure(spec()).is_ok() {
                            ok += 1;
                        }
                        ok
                    })
                })
                .collect();
            let mut control = Client::connect(addr).unwrap();
            while server.stats().jobs_completed < SETUP + 10 * (round % 4 + 1) {
                std::thread::yield_now();
            }
            let drained = control.shutdown().unwrap();
            let ok: u64 = hammers.into_iter().map(|h| h.join().unwrap()).sum();
            (ok, drained)
        });
        assert_eq!(ok, drained - SETUP, "round {round}");
        server.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job the frontend ran is a job: it has an id, a record that ends
/// `Done`, and a place in every counter.
#[test]
fn an_inline_hit_is_journaled_and_counted_like_any_job() {
    let m = machine();
    let state = temp_dir("journal_inline");
    let server = start(ServeConfig {
        state_dir: Some(state.clone()),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(server.addr()).unwrap();
    c.tenant = "again".into();
    let spec = || measure_spec(&m, InterferenceMix::storage(1));
    let cold = c.measure(spec()).unwrap();
    let hit = c.measure(spec()).unwrap();
    assert_eq!(
        serde_json::to_string(&hit).unwrap(),
        serde_json::to_string(&cold).unwrap()
    );

    let stats = server.stats();
    assert_eq!(stats.frontend_jobs, 1);
    assert_eq!((stats.jobs_submitted, stats.jobs_completed), (2, 2));
    assert_eq!(
        entry_files(&state.join("jobs")).len(),
        2,
        "one record a job"
    );
    let record: JobRecord =
        serde_json::from_str(&std::fs::read_to_string(state.join("jobs/job-2.json")).unwrap())
            .unwrap();
    assert_eq!(
        (record.id, record.tenant.as_str(), record.status),
        (2, "again", JobStatus::Done)
    );
    assert_eq!(record.error, None);

    c.shutdown().unwrap();
    server.wait();
    let _ = std::fs::remove_dir_all(&state);
}

/// On disk is not in memory: after a restart the first touch of a key
/// reads a file, which is a worker's job; only the touch after that is
/// the frontend's.
#[test]
fn first_touch_after_restart_goes_through_a_worker() {
    let m = machine();
    let dir = temp_dir("restart_touch");
    let cfg = || ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let spec = || measure_spec(&m, InterferenceMix::storage(1));

    let first_life = start(cfg());
    let mut c = Client::connect(first_life.addr()).unwrap();
    c.measure(spec()).unwrap();
    c.shutdown().unwrap();
    first_life.wait();

    let server = start(cfg());
    let mut c = Client::connect(server.addr()).unwrap();
    c.measure(spec()).unwrap();
    let stats = server.stats();
    assert_eq!(stats.frontend_jobs, 0, "{stats:?}");
    assert_eq!((stats.cache.disk_hits, stats.cache.sim_runs), (1, 0));
    c.measure(spec()).unwrap();
    let stats = server.stats();
    assert_eq!(stats.frontend_jobs, 1, "{stats:?}");
    assert_eq!((stats.cache.mem_hits, stats.cache.disk_hits), (1, 1));

    c.shutdown().unwrap();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Poll one journal record until it reaches a final status, returning
/// each distinct status seen on the way. Records are renamed into place,
/// so a read never sees a torn one.
fn watch_record(path: PathBuf) -> Vec<JobStatus> {
    let mut seen = Vec::new();
    let started = std::time::Instant::now();
    loop {
        assert!(
            started.elapsed().as_secs() < 120,
            "{} stuck at {seen:?}",
            path.display()
        );
        let record = std::fs::read_to_string(&path)
            .ok()
            .map(|json| serde_json::from_str::<JobRecord>(&json).expect("a whole record"));
        if let Some(record) = record {
            if seen.last() != Some(&record.status) {
                seen.push(record.status);
            }
            if matches!(record.status, JobStatus::Done | JobStatus::Failed) {
                return seen;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// The journal is invisible on the wire and complete on disk: a daemon
/// with a state directory answers the bytes a daemon without one does,
/// and its records pass through Queued, Running and Done in that order.
/// One worker, so the second job is still queued while the first (a
/// second-long sweep) runs.
#[test]
fn journal_records_every_stage_and_changes_no_reply() {
    let m = machine();
    let state = temp_dir("journal_stages");
    let plain = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let journaled = start(ServeConfig {
        workers: 1,
        state_dir: Some(state.clone()),
        ..ServeConfig::default()
    });
    let submit = |server: &Server, tenant: &str, spec: JobSpec| {
        let mut c = Client::connect(server.addr()).unwrap();
        c.tenant = tenant.into();
        serde_json::to_string(&c.submit(spec).unwrap()).unwrap()
    };

    let job = |id: u64| state.join(format!("jobs/job-{id}.json"));
    let (sweep_stages, measure_stages, sweep_reply, measure_reply) = std::thread::scope(|s| {
        let sweep_stages = s.spawn(|| watch_record(job(1)));
        let measure_stages = s.spawn(|| watch_record(job(2)));
        let sweep_reply = s.spawn(|| submit(&journaled, "first", sweep_spec(&m)));
        // Job ids follow submission order: wait for the sweep's record.
        while !job(1).exists() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let measure_reply = submit(
            &journaled,
            "second",
            measure_spec(&m, InterferenceMix::storage(1)),
        );
        (
            sweep_stages.join().unwrap(),
            measure_stages.join().unwrap(),
            sweep_reply.join().unwrap(),
            measure_reply,
        )
    });

    use JobStatus::{Done, Queued, Running};
    for stages in [&sweep_stages, &measure_stages] {
        let mut order = [Queued, Running, Done].iter();
        assert!(
            stages.iter().all(|s| order.any(|o| o == s)) && stages.last() == Some(&Done),
            "stages out of order: {stages:?}"
        );
    }
    assert!(sweep_stages.contains(&Running), "{sweep_stages:?}");
    assert!(measure_stages.contains(&Queued), "{measure_stages:?}");
    let record: JobRecord =
        serde_json::from_str(&std::fs::read_to_string(job(2)).unwrap()).unwrap();
    assert_eq!(
        (record.id, record.tenant.as_str(), record.spec.kind()),
        (2, "second", "measure")
    );
    assert_eq!(record.error, None);

    assert_eq!(sweep_reply, submit(&plain, "first", sweep_spec(&m)));
    assert_eq!(
        measure_reply,
        submit(
            &plain,
            "second",
            measure_spec(&m, InterferenceMix::storage(1))
        )
    );
    for server in [plain, journaled] {
        Client::connect(server.addr()).unwrap().shutdown().unwrap();
        server.wait();
    }
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn daemon_startup_reclaims_orphaned_tmp_scratch() {
    let dir = temp_dir("tmp_reclaim");
    // A crashed writer's debris next to a healthy-looking entry.
    std::fs::write(dir.join("00deadbeef00.tmp.4242.7"), b"{ torn").unwrap();

    let server = start(ServeConfig {
        cache_dir: Some(dir.clone()),
        store: StorePolicy {
            tmp_max_age_secs: Some(0),
            ..StorePolicy::default()
        },
        ..ServeConfig::default()
    });
    let stats = server.stats();
    assert_eq!(stats.tmp_reclaimed, 1, "{stats:?}");
    assert!(!dir.join("00deadbeef00.tmp.4242.7").exists());

    let mut c = Client::connect(server.addr()).unwrap();
    c.shutdown().unwrap();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Multi-process shared-cache stress: two independent processes hammer
// overlapping keys in one cache directory.
// ---------------------------------------------------------------------

const STRESS_DIR_VAR: &str = "AMEM_STRESS_CACHE_DIR";
const STRESS_STATS_VAR: &str = "AMEM_STRESS_STATS_PATH";
const STRESS_ROUNDS: usize = 3;

fn stress_points() -> Vec<InterferenceMix> {
    let mut mixes = vec![InterferenceMix::none()];
    mixes.extend((1..=FIG1_MAX_COUNT).map(InterferenceMix::storage));
    mixes
}

/// Child body (run via `--ignored --exact` in a subprocess): hammer every
/// point `STRESS_ROUNDS` times against the shared dir, verify its own
/// accounting, dump its `CacheStats` for the parent to cross-check.
#[test]
#[ignore = "subprocess body of multi_process_shared_cache_stress"]
fn child_process_cache_hammer() {
    let Ok(dir) = std::env::var(STRESS_DIR_VAR) else {
        eprintln!("{STRESS_DIR_VAR} unset; nothing to do");
        return;
    };
    let stats_path = std::env::var(STRESS_STATS_VAR).expect("stats path");
    active_mem::metrics::set_enabled(true);

    let m = machine();
    let exec = Executor::with_cache_dir(SimPlatform::new(m.clone()), PathBuf::from(dir));
    let w = ProbeWorkload(fig1_probe(&m));
    for _round in 0..STRESS_ROUNDS {
        for mix in stress_points() {
            exec.run(&w, FIG1_PER_PROCESSOR, mix).expect("stress point");
        }
    }

    let stats = exec.stats();
    let expected = (stress_points().len() * STRESS_ROUNDS) as u64;
    assert_eq!(stats.lookups(), expected, "child accounting: {stats:?}");
    assert_eq!(
        active_mem::metrics::snapshot().counter_total("amem_executor_cache_verify_failures_total"),
        0,
        "no torn JSON, no embedded-key mismatch, in this child's view"
    );
    std::fs::write(stats_path, serde_json::to_string(&stats).unwrap()).unwrap();
}

fn entry_files(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .map(|rd| rd.flatten().map(|e| e.path()).collect::<Vec<_>>())
        .unwrap_or_default()
}

#[test]
fn multi_process_shared_cache_stress() {
    let dir = temp_dir("multiproc");
    let exe = std::env::current_exe().unwrap();

    let children: Vec<_> = (0..2)
        .map(|i| {
            std::process::Command::new(&exe)
                .args(["--ignored", "--exact", "child_process_cache_hammer"])
                .env(STRESS_DIR_VAR, &dir)
                .env(STRESS_STATS_VAR, dir.join(format!("stats-{i}.out")))
                .spawn()
                .expect("spawn hammer child")
        })
        .collect();
    for mut child in children {
        let status = child.wait().expect("child exit");
        assert!(status.success(), "hammer child failed: {status}");
    }

    // Cross-check the children's accounting: every lookup either
    // simulated or hit; between them, each unique point simulated at
    // least once and at most once *per process*.
    let m = machine();
    let points = stress_points().len() as u64;
    let mut total = CacheStats::default();
    for i in 0..2 {
        let json = std::fs::read_to_string(dir.join(format!("stats-{i}.out"))).unwrap();
        let s: CacheStats = serde_json::from_str(&json).unwrap();
        total.sim_runs += s.sim_runs;
        total.mem_hits += s.mem_hits;
        total.disk_hits += s.disk_hits;
        total.dedup_hits += s.dedup_hits;
        total.stores += s.stores;
    }
    assert_eq!(
        total.lookups(),
        points * STRESS_ROUNDS as u64 * 2,
        "hit rates add up: every lookup is a sim or a hit ({total:?})"
    );
    assert!(
        (points..=points * 2).contains(&total.sim_runs),
        "each point simulated 1..=2 times across both processes ({total:?})"
    );

    // The directory holds exactly the unique entries (both processes
    // wrote the same filenames) and no leaked tmp scratch.
    let files = entry_files(&dir);
    let tmp_leaks: Vec<_> = files
        .iter()
        .filter(|p| p.to_string_lossy().contains(".tmp."))
        .collect();
    assert!(tmp_leaks.is_empty(), "leaked tmp scratch: {tmp_leaks:?}");
    let entries = files
        .iter()
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .count() as u64;
    assert_eq!(entries, points, "one disk entry per unique point");

    // Every entry survives full verification (parse + schema + embedded
    // key): a fresh executor re-reads all points without one simulation.
    active_mem::metrics::set_enabled(true);
    let before =
        active_mem::metrics::snapshot().counter_total("amem_executor_cache_verify_failures_total");
    let exec = Executor::with_cache_dir(SimPlatform::new(m.clone()), dir.clone());
    let w = ProbeWorkload(fig1_probe(&m));
    for mix in stress_points() {
        exec.run(&w, FIG1_PER_PROCESSOR, mix).unwrap();
    }
    let s = exec.stats();
    assert_eq!(s.sim_runs, 0, "no torn/corrupt entries: {s:?}");
    assert_eq!(s.disk_hits, points, "{s:?}");
    let after =
        active_mem::metrics::snapshot().counter_total("amem_executor_cache_verify_failures_total");
    assert_eq!(after, before, "no verification failures during the re-read");

    let _ = std::fs::remove_dir_all(&dir);
}
