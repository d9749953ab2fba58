//! The quantum horizon: the engine runs the selected core through one
//! inlined dispatch loop until its clock reaches the runner-up's clock
//! plus the quantum. On a script built to expose any leak across that
//! horizon, every simulated number must equal the reference machine's,
//! which runs one op at a time; and the executor's content-addressed
//! cache key must stay where the snapshot put it (see DESIGN.md §14).

mod common;

use active_mem::conformance::refmachine;
use active_mem::core::platform::{McbWorkload, SimPlatform};
use active_mem::core::Executor;
use active_mem::interfere::InterferenceMix;
use active_mem::miniapps::McbCfg;
use active_mem::sim::engine::{Engine, RunLimit};
use active_mem::sim::MachineConfig;

use common::horizon_script_jobs;

#[test]
fn horizon_script_matches_the_reference_and_the_cache_key_holds() {
    let m = MachineConfig::xeon20mb().scaled(0.0625);
    let limit = RunLimit::default();

    // Every counter, mark and socket traffic figure of every job.
    let engine = Engine::new(&m, horizon_script_jobs()).run(&limit);
    let reference = refmachine::run(&m, horizon_script_jobs(), &limit);
    assert_eq!(
        engine.event_signature(),
        reference.event_signature(),
        "the engine diverged from the reference machine"
    );

    // Execution-time state rides on the engine builder, never on
    // `RunLimit`, so this request still files under the snapshotted key.
    let golden: std::collections::BTreeMap<String, String> = serde_json::from_str(
        &std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("tests/data/request_keys_pre_qos.json"),
        )
        .expect("key snapshot is checked in"),
    )
    .expect("key snapshot parses");
    let w = McbWorkload(McbCfg {
        ranks: 4,
        steps: 2,
        ..McbCfg::new(&m, 4000)
    });
    let key = Executor::memory_only(SimPlatform::new(m))
        .request_key(&w, 2, InterferenceMix::storage(2))
        .expect("request is cacheable");
    assert_eq!(key, golden["mcb_pp2_cs2"], "cache key moved");
}
