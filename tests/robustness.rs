//! Robustness integration suite: fault injection, retries, trial
//! statistics and graceful sweep degradation, end-to-end through the
//! `active_mem` facade.
//!
//! Everything here runs against the deterministic [`FaultyPlatform`]
//! wrapper, so each scenario — timeouts, spurious errors, NaN results,
//! timing noise — replays identically on every run.

use std::sync::Arc;

use active_mem::core::error::AmemError;
use active_mem::core::fault::{FaultSpec, FaultyPlatform};
use active_mem::core::platform::{McbWorkload, Platform, SimPlatform};
use active_mem::core::sweep::run_sweep;
use active_mem::core::trial::TrialPolicy;
use active_mem::core::Executor;
use active_mem::interfere::{InterferenceKind, InterferenceMix};
use active_mem::miniapps::McbCfg;
use active_mem::sim::MachineConfig;

fn machine() -> MachineConfig {
    MachineConfig::xeon20mb().scaled(0.0625)
}

fn tiny_mcb(m: &MachineConfig) -> McbWorkload {
    McbWorkload(McbCfg {
        ranks: 4,
        steps: 2,
        ..McbCfg::new(m, 4000)
    })
}

#[test]
fn injected_faults_degrade_sweeps_without_aborting() {
    let m = machine();
    let faulty = FaultyPlatform::new(
        SimPlatform::new(m.clone()),
        FaultSpec::parse("seed=11,error=0.35,sticky").unwrap(),
    );
    let exec = Executor::uncached(faulty);
    let w = tiny_mcb(&m);
    let sweep = run_sweep(&exec, &w, 2, InterferenceKind::Storage, 6)
        .expect("a flaky platform degrades the sweep, it does not abort it");
    assert_eq!(
        sweep.points.len() + sweep.degraded.len(),
        7,
        "every requested level is accounted for"
    );
    assert!(sweep.is_degraded(), "p=0.35 sticky must lose some levels");
    assert!(
        !sweep.points.is_empty(),
        "p=0.35 sticky must keep some levels"
    );
    for d in &sweep.degraded {
        assert!(
            d.error.contains("injected"),
            "typed error text: {}",
            d.error
        );
    }
    for p in &sweep.points {
        assert!(p.seconds.is_finite());
        assert!(p.degradation_pct.is_finite());
    }
    assert_eq!(
        exec.robust_stats().degraded_points,
        sweep.degraded.len() as u64
    );
}

#[test]
fn retries_and_trials_ride_out_timeouts_and_noise() {
    let m = machine();
    let w = tiny_mcb(&m);
    let clean = SimPlatform::new(m.clone())
        .run(&w, 2, InterferenceMix::none())
        .unwrap()
        .seconds;
    // 30% injected timeouts plus 3% multiplicative timing noise.
    let faulty = FaultyPlatform::new(
        SimPlatform::new(m.clone()),
        FaultSpec::parse("seed=5,timeout=0.3,noise=0.03").unwrap(),
    );
    let exec = Executor::uncached(faulty).with_policy(TrialPolicy::fixed(7).with_retries(15));
    let meas = exec
        .run(&w, 2, InterferenceMix::none())
        .expect("retries absorb transient timeouts");
    let q = meas
        .quality
        .clone()
        .expect("multi-trial runs carry quality");
    assert_eq!(q.trials, 7);
    assert!(q.timeouts > 0, "p=0.3 must time out somewhere: {q:?}");
    assert!(!q.degraded, "every trial eventually landed");
    // The nearest-median representative of 7 noisy trials stays within
    // the injected ±3% noise band of the clean measurement.
    assert!(
        (meas.seconds / clean - 1.0).abs() <= 0.03,
        "representative {} vs clean {clean}",
        meas.seconds
    );
    let rs = exec.robust_stats();
    assert_eq!(rs.trials, 7);
    assert_eq!(rs.retries, rs.timeouts, "only timeouts forced retries");
}

#[test]
fn multi_trial_on_a_deterministic_platform_changes_nothing_but_quality() {
    // The cache-quality-equivalence contract: trials only tighten
    // statistics, they never change a deterministic platform's answer.
    let m = machine();
    let w = tiny_mcb(&m);
    let plain = Executor::uncached(SimPlatform::new(m.clone()));
    let robust = Executor::uncached(SimPlatform::new(m.clone())).with_policy(TrialPolicy::fixed(3));
    let a = plain.run(&w, 2, InterferenceMix::none()).unwrap();
    let b = robust.run(&w, 2, InterferenceMix::none()).unwrap();
    assert_eq!(a.seconds, b.seconds, "same platform, same answer");
    assert!(a.quality.is_none(), "pass-through carries no quality");
    let q = b.quality.clone().expect("three trials carry quality");
    assert_eq!(q.trials, 3);
    assert_eq!(q.ci95_rel, 0.0, "identical trials have zero CI width");
    assert!(!q.degraded);
}

#[test]
fn wall_clock_timeouts_are_typed_and_degradable() {
    let m = machine();
    // A zero budget is the executor's deterministic always-timeout hook:
    // it trips regardless of how fast the run completes, so this test
    // never races the wall clock (flaky-hygiene audit, ISSUE 5).
    let exec = Executor::uncached(SimPlatform::new(m.clone()))
        .with_policy(TrialPolicy::fixed(1).with_timeout_ms(0));
    let err = exec
        .run(&tiny_mcb(&m), 2, InterferenceMix::none())
        .unwrap_err();
    match &err {
        AmemError::Timeout { limit_ms } => assert_eq!(*limit_ms, 0),
        other => panic!("want Timeout, got {other}"),
    }
    assert!(err.is_transient(), "a timeout is worth retrying");
    assert!(err.is_degradable(), "a sweep drops the point, not the run");
    assert_eq!(exec.robust_stats().timeouts, 1);
}

#[test]
fn exhausted_retries_surface_as_flaky_with_the_last_cause() {
    let m = machine();
    let faulty = FaultyPlatform::new(
        SimPlatform::new(m.clone()),
        FaultSpec::parse("seed=2,error=1.0,sticky").unwrap(),
    );
    let exec = Executor::uncached(faulty).with_policy(TrialPolicy::fixed(1).with_retries(3));
    let err = exec
        .run(&tiny_mcb(&m), 2, InterferenceMix::none())
        .unwrap_err();
    match &err {
        AmemError::Flaky { attempts, last } => {
            assert_eq!(*attempts, 4, "1 try + 3 retries");
            assert!(last.contains("injected"), "{err}");
        }
        other => panic!("want Flaky, got {other}"),
    }
}

#[test]
fn concurrent_waiters_on_a_failing_point_all_get_typed_errors() {
    // Dedup must never hang or poison: when the running thread's
    // measurement fails, every thread waiting on the same in-flight key
    // receives the error — typed, promptly.
    let m = machine();
    let faulty = FaultyPlatform::new(
        SimPlatform::new(m.clone()),
        FaultSpec::parse("seed=3,error=1.0,sticky").unwrap(),
    )
    .with_deterministic(true); // cacheable => dedup engages
    let exec = Arc::new(Executor::memory_only(faulty));
    let errors: Vec<AmemError> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let exec = Arc::clone(&exec);
                let m = m.clone();
                s.spawn(move || {
                    exec.run(&tiny_mcb(&m), 2, InterferenceMix::none())
                        .unwrap_err()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(errors.len(), 4);
    for e in &errors {
        assert!(
            matches!(e, AmemError::Injected(_) | AmemError::Flaky { .. }),
            "typed error, not a hang or a poison panic: {e}"
        );
    }
    // The executor stays usable afterwards: the in-flight entry is gone.
    let again = exec.run(&tiny_mcb(&m), 2, InterferenceMix::none());
    assert!(again.is_err(), "sticky failure still reported cleanly");
}

#[test]
fn nan_results_never_reach_the_caller() {
    let m = machine();
    let faulty = FaultyPlatform::new(
        SimPlatform::new(m.clone()),
        FaultSpec::parse("seed=4,nan=1.0").unwrap(),
    );
    let exec = Executor::uncached(faulty);
    let err = exec
        .run(&tiny_mcb(&m), 2, InterferenceMix::none())
        .unwrap_err();
    assert!(
        matches!(err, AmemError::NonFinite { .. }),
        "NaN is screened into a typed error: {err}"
    );
}

#[test]
fn fault_injection_replays_identically() {
    // The whole point of a *deterministic* fault injector: the same
    // seed and request produce the same outcome stream, so failures
    // found in CI reproduce locally.
    let m = machine();
    let run_once = || {
        let faulty = FaultyPlatform::new(
            SimPlatform::new(m.clone()),
            FaultSpec::parse("seed=11,error=0.35,sticky").unwrap(),
        );
        let exec = Executor::uncached(faulty);
        let sweep = run_sweep(&exec, &tiny_mcb(&m), 2, InterferenceKind::Storage, 6).unwrap();
        (
            sweep.points.iter().map(|p| p.count).collect::<Vec<_>>(),
            sweep.degraded.iter().map(|d| d.count).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run_once(), run_once());
}

/// Files are input from outside the program too. A cache entry or a
/// journal record that nests arrays 100,000 deep — whole, or under a key
/// the reader skips, or where the payload belongs — used to recurse the
/// parser off the stack; it must read as a miss (and be overwritten) or
/// be skipped by recovery.
#[test]
fn deeply_nested_garbage_files_are_a_miss_or_a_skip_never_a_crash() {
    let m = machine();
    let w = tiny_mcb(&m);
    let dir = std::env::temp_dir().join("amem_robustness_nested_garbage");
    let _ = std::fs::remove_dir_all(&dir);

    let exec = Executor::with_cache_dir(SimPlatform::new(m.clone()), dir.join("cache"));
    let fresh = exec.run(&w, 2, InterferenceMix::none()).unwrap();
    let key = exec.request_key(&w, 2, InterferenceMix::none()).unwrap();
    let entry = std::fs::read_dir(dir.join("cache"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("one stored entry");

    let nest = "[".repeat(100_000);
    let key_json = serde_json::to_string(&key).unwrap();
    let garbage = [
        nest.clone(),
        format!("{{\"junk\":{nest}"),
        format!("{{\"schema_version\":1,\"key\":{key_json},\"measurement\":{nest}"),
        "{\"a\":".repeat(100_000),
    ];
    for text in &garbage {
        std::fs::write(&entry, text).unwrap();
        let exec = Executor::with_cache_dir(SimPlatform::new(m.clone()), dir.join("cache"));
        let again = exec.run(&w, 2, InterferenceMix::none()).unwrap();
        let s = exec.stats();
        assert_eq!((s.disk_hits, s.sim_runs, s.stores), (0, 1, 1), "{s:?}");
        assert_eq!(again.seconds, fresh.seconds);
    }

    let jobs = dir.join("jobs");
    std::fs::create_dir_all(&jobs).unwrap();
    for (i, text) in garbage.iter().enumerate() {
        std::fs::write(jobs.join(format!("job-{i}.json")), text).unwrap();
    }
    let store = active_mem::serve::JobStore::open(Some(jobs));
    assert_eq!(store.recovered(), 0, "garbage records are skipped");
    assert!(store.load(0).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cache directory that cannot be created — its path is a regular
/// file — costs the entries, never the results: both namespaces answer
/// from memory, nothing is stored, no scratch file is left, and each
/// lost store is counted by the step that failed.
#[test]
fn an_unwritable_cache_dir_degrades_to_memory_with_counted_failures() {
    let m = machine();
    let w = tiny_mcb(&m);
    let blocker = std::env::temp_dir().join("amem_robustness_cache_dir_is_a_file");
    let _ = std::fs::remove_dir_all(&blocker);
    std::fs::write(&blocker, "not a directory").unwrap();
    let failures = || {
        active_mem::metrics::snapshot().counter(
            "amem_executor_disk_store_failures_total",
            &[("reason", "mkdir")],
        )
    };

    active_mem::metrics::set_enabled(true);
    let before = failures().unwrap_or(0);
    let exec = Executor::with_cache_dir(SimPlatform::new(m.clone()), blocker.clone());
    let meas = exec.run(&w, 2, InterferenceMix::none()).unwrap();
    let curve = exec
        .run_curve(&active_mem::core::CurveRequest::from_probe(
            &active_mem::core::figures::fig1_probe(&m),
            m.l3.line_bytes as u64,
            vec![64, 4096],
            active_mem::core::CurveMode::Exact,
        ))
        .unwrap();
    let after = failures().unwrap_or(0);
    active_mem::metrics::set_enabled(false);

    assert!(meas.seconds > 0.0 && curve.points.len() == 2);
    let s = exec.stats();
    assert_eq!((s.sim_runs, s.stores), (1, 0), "{s:?}");
    assert_eq!((s.curves().runs, s.curves().stores), (1, 0), "{s:?}");
    assert_eq!(after - before, 2, "one lost store per namespace");
    // Still served from memory afterwards.
    exec.run(&w, 2, InterferenceMix::none()).unwrap();
    assert_eq!(exec.stats().mem_hits, 1);
    // The path is still the file it was: no entry and no `*.tmp.*`
    // scratch file could have been left under it.
    assert_eq!(
        std::fs::read_to_string(&blocker).unwrap(),
        "not a directory"
    );
    let _ = std::fs::remove_file(&blocker);
}
