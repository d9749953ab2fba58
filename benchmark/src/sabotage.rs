//! `--sabotage-check`: a checker that cannot fail checks nothing.
//!
//! Each output check the workloads rely on is fed one intact input,
//! which it must pass, and one deliberately corrupted input, which it
//! must count in `ops_failed`.

use std::path::Path;

use amem_conformance::fuzz;
use amem_core::platform::{Platform, ProbeWorkload, SimPlatform};
use amem_core::{CapacityMap, CurveMode, Executor};
use amem_interfere::InterferenceMix;
use amem_serve::protocol::{JobResult, JobSpec, Priority, WorkloadSpec};
use amem_serve::{JobRecord, JobStatus, JobStore, JOB_SCHEMA_VERSION};

use crate::harness::{machine, Scratch, SimCounts, Tally};
use crate::run::rounds_agree;
use crate::workloads::curve_calibrate::{
    curve_matches_oracle, curve_requests, ladder_is_non_increasing, mattson_oracle,
    sampled_tracks_exact,
};
use crate::workloads::served::{journal_done, leftover_tmp_files, reply_matches};

/// Run `check` on the intact and on the corrupted input; it is proven
/// when it fails exactly the second.
fn prove(name: &str, check: impl Fn(bool, &mut Tally)) -> bool {
    let (mut intact, mut corrupted) = (Tally::default(), Tally::default());
    check(false, &mut intact);
    check(true, &mut corrupted);
    let proven = intact.attempted > 0 && intact.failed == 0 && corrupted.failed > 0;
    println!(
        "  {name:<44} intact {}/{} failed, corrupted {}/{} failed  {}",
        intact.failed,
        intact.attempted,
        corrupted.failed,
        corrupted.attempted,
        if proven { "ok" } else { "NOT PROVEN" }
    );
    proven
}

pub fn run(out: &Path) -> bool {
    let scratch = Scratch::create(out, "sabotage").expect("create scratch directory");
    let m = machine();
    let mut ok = true;
    println!("sabotage-check: every checker must fail its corrupted input");

    // served_*: a reply must be byte-identical to the library's result.
    let probe = ProbeWorkload(crate::workloads::cold_sweep::short_fig1_probe(&m, 7, 8));
    let meas = SimPlatform::new(m.clone())
        .run(&probe, 1, InterferenceMix::storage(1))
        .expect("simulate a reply");
    let expected =
        serde_json::to_string(&JobResult::Measurement(meas.clone())).expect("serialize reply");
    ok &= prove("served: reply == library result", |corrupt, tally| {
        let mut reply = meas.clone();
        if corrupt {
            // One unit in the last place of one field of one reply.
            reply.seconds = f64::from_bits(reply.seconds.to_bits() + 1);
        }
        tally.op(
            reply_matches(&expected, &JobResult::Measurement(reply)),
            || "corrupted reply".into(),
        );
    });

    // curve_calibrate: exact curve vs the Mattson oracle, sampled vs
    // exact, and the calibrated ladder.
    let exec = Executor::memory_only(SimPlatform::new(m.clone()));
    let requests = curve_requests(&m, 7, 2);
    let exact = exec.run_curve(&requests[0]).expect("exact curve");
    let sampled = exec.run_curve(&requests[1]).expect("sampled curve");
    assert!(matches!(requests[1].mode, CurveMode::Sampled { .. }));
    let oracle = mattson_oracle(&m, &requests[0], &requests[0].capacities_lines);
    let line = m.l3.line_bytes as u64;
    ok &= prove("curve: exact == Mattson oracle", |corrupt, tally| {
        let mut curve = (*exact).clone();
        if corrupt {
            curve.points[0].miss_rate += 1e-9;
        }
        tally.op(curve_matches_oracle(&curve, &oracle, line), || {
            "corrupted curve".into()
        });
    });
    ok &= prove(
        "curve: sampled within tolerance of exact",
        |corrupt, tally| {
            let mut curve = (*sampled).clone();
            if corrupt {
                curve.points[0].miss_rate += 0.5;
            }
            tally.op(sampled_tracks_exact(&exact, &curve), || {
                "corrupted sampled curve".into()
            });
        },
    );
    ok &= prove(
        "curve: calibrated ladder non-increasing",
        |corrupt, tally| {
            let mut map = CapacityMap::paper_xeon20mb(&m);
            if corrupt {
                map.points.swap(1, 2);
            }
            tally.op(ladder_is_non_increasing(&map), || "corrupted ladder".into());
        },
    );

    // Every workload: rounds must produce the same results from the same
    // simulated work.
    ok &= prove("rounds: identical results and counts", |corrupt, tally| {
        let counts = SimCounts {
            accesses: 10,
            ..SimCounts::default()
        };
        let mut rounds = vec![("a".to_string(), counts); 3];
        if corrupt {
            rounds[2].0 = "b".into();
            rounds[1].1.accesses += 1;
        }
        rounds_agree(&rounds, tally);
    });

    // cold_sweep: production substrate vs reference. The conformance
    // crate's planted off-by-one must trip the same comparison.
    let configs = fuzz::configs();
    ok &= prove(
        "fuzz: production == reference substrate",
        |corrupt, tally| {
            for seed in 0..4u64 {
                let case = fuzz::gen_case(&configs[0], seed, 1500);
                let res = if corrupt {
                    fuzz::sabotage::check_case_sabotaged(&case)
                } else {
                    fuzz::check_case(&case)
                };
                tally.op(res.is_ok(), || format!("fuzz seed {seed} diverges"));
            }
        },
    );

    // served_cold: no scratch files left, one completed record per job.
    let dir = scratch.subdir("cache");
    ok &= prove("store: no *.tmp.* left behind", |corrupt, tally| {
        let entry = dir.join("0123456789abcdef.json");
        std::fs::write(&entry, b"{}").expect("write entry");
        let tmp = dir.join("0123456789abcdef.tmp.1.0");
        if corrupt {
            std::fs::write(&tmp, b"{").expect("write tmp");
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
        tally.op(leftover_tmp_files(&dir) == 0, || "tmp file left".into());
    });
    let state = scratch.subdir("state");
    ok &= prove("journal: one completed record per job", |corrupt, tally| {
        let journal = JobStore::open(Some(state.join("jobs")));
        for id in 1..=2 {
            journal.write(&JobRecord {
                schema_version: JOB_SCHEMA_VERSION,
                id,
                tenant: "t".into(),
                priority: Priority::Normal,
                status: if corrupt && id == 2 {
                    JobStatus::Running
                } else {
                    JobStatus::Done
                },
                error: None,
                spec: JobSpec::Measure {
                    machine: m.clone(),
                    workload: WorkloadSpec::Probe(probe.0),
                    per_processor: 1,
                    mix: InterferenceMix::none(),
                },
            });
        }
        tally.op(journal_done(&state) == (2, 2), || {
            "journal holds an unfinished record".into()
        });
    });

    println!("sabotage-check {}", if ok { "passed" } else { "FAILED" });
    ok
}
