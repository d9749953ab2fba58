//! Fast-lane determinism: the engine may run the lead core in inline
//! bursts (`with_run_ahead` ops between clock checks), but the burst
//! budget is a pure execution detail — every simulated number must be
//! byte-identical at any budget, from per-op lockstep (1) to far past
//! the default (4096), and the executor's content-addressed cache key
//! must not encode it (see DESIGN.md §14).

use active_mem::core::platform::{McbWorkload, Platform, SimPlatform, Workload};
use active_mem::core::Executor;
use active_mem::interfere::InterferenceMix;
use active_mem::miniapps::McbCfg;
use active_mem::sim::cluster::RankMap;
use active_mem::sim::config::CoreId;
use active_mem::sim::engine::{Engine, EventSignature, Job, RunLimit, DEFAULT_RUN_AHEAD};
use active_mem::sim::machine::Machine;
use active_mem::sim::stream::{Op, ScriptStream};
use active_mem::sim::MachineConfig;

fn machine() -> MachineConfig {
    MachineConfig::xeon20mb().scaled(0.0625)
}

/// A coherence-heavy two-socket script: both cores ping-pong loads and
/// stores on one shared line (invalidation broadcasts), stream over
/// private buffers (fast-lane fodder), and meet at barriers with PMU
/// marks — every op class whose interleaving the horizon could corrupt.
fn jobs() -> Vec<Job> {
    let shared = 0x4000_0000u64;
    let mk = |core: u32, base: u64| {
        let mut ops = Vec::new();
        for i in 0..600u64 {
            ops.push(Op::Load(base + (i % 200) * 64));
            if i % 7 == 0 {
                ops.push(Op::Store(shared));
            } else if i % 3 == 0 {
                ops.push(Op::Load(shared));
            }
            if i % 150 == 0 {
                ops.push(Op::Barrier);
                ops.push(Op::Mark);
            }
            if i % 11 == 0 {
                ops.push(Op::Compute(5 + (core + i as u32) % 9));
            }
        }
        ops.push(Op::Barrier);
        ops
    };
    vec![
        Job::primary(
            Box::new(ScriptStream::new(mk(0, 0x1000_0000))),
            CoreId::new(0, 0),
        ),
        Job::primary(
            Box::new(ScriptStream::new(mk(1, 0x2000_0000))),
            CoreId::new(1, 0),
        ),
        Job::background(
            Box::new(ScriptStream::new(mk(2, 0x3000_0000))),
            CoreId::new(0, 1),
        ),
    ]
}

fn signature_at(cfg: &MachineConfig, run_ahead: u32) -> EventSignature {
    Engine::new(cfg, jobs())
        .with_run_ahead(run_ahead)
        .run(&RunLimit::default())
        .event_signature()
}

#[test]
fn results_and_cache_keys_are_horizon_invariant() {
    let m = machine();

    // Engine-level: event signatures (every counter, mark, and socket
    // traffic figure) across budgets.
    let base = signature_at(&m, 1);
    for budget in [2, 64, DEFAULT_RUN_AHEAD, 4096] {
        assert_eq!(
            base,
            signature_at(&m, budget),
            "event signature diverged at run-ahead budget {budget}"
        );
    }

    // Platform-level: the platform's own run (default budget) against
    // the same job set — built through the same public calls — at each
    // budget. Every other `Measurement` field is a function of the
    // report and the mix, so equal report bytes are equal measurements.
    let w = McbWorkload(McbCfg {
        ranks: 4,
        steps: 2,
        ..McbCfg::new(&m, 4000)
    });
    let mix = InterferenceMix::storage(2);
    let plat = SimPlatform::new(m.clone());
    let meas = plat.run(&w, 2, mix).expect("run succeeds");
    let expected = serde_json::to_string(&meas.report).expect("serializable");
    for budget in [1, DEFAULT_RUN_AHEAD, 4096] {
        let mut machine = Machine::new(m.clone());
        let map = RankMap::new(&m, w.ranks(), 2);
        let mut jobs = w.build(&mut machine, &map);
        jobs.extend(mix.build_jobs(&mut machine, &map.free_cores()));
        let report = Engine::new(&m, jobs)
            .with_run_ahead(budget)
            .run(plat.limit());
        assert_eq!(
            serde_json::to_string(&report).expect("serializable"),
            expected,
            "Measurement bytes diverged at run-ahead budget {budget}"
        );
    }

    // The budget rides on the engine builder, never on `RunLimit`, so
    // the request whose bytes were just swept still files under the
    // snapshotted key.
    let golden: std::collections::BTreeMap<String, String> = serde_json::from_str(
        &std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("tests/data/request_keys_pre_qos.json"),
        )
        .expect("key snapshot is checked in"),
    )
    .expect("key snapshot parses");
    let key = Executor::memory_only(plat)
        .request_key(&w, 2, mix)
        .expect("request is cacheable");
    assert_eq!(key, golden["mcb_pp2_cs2"], "cache key moved");
}
