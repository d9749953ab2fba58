//! Integration surface of the conformance subsystem (ISSUE 5).
//!
//! Three layers of assurance, in increasing externality:
//! 1. differential — production SoA substrate vs the naive reference
//!    interpreter, event for event, over fuzzed adversarial traces;
//! 2. self-test — a deliberately planted off-by-one must be *caught* by
//!    the same harness and minimized to a tiny reproducer;
//! 3. analytic — Eq. 4 closed forms and the §III-D orthogonality
//!    property, checked against full simulator runs.
//!
//! Plus golden-trace snapshots: three canonical fuzz cases whose full
//! [`EventSignature`] is committed under `tests/data/`. Any engine or
//! cache change that moves a counter shows up as a diff here, reviewed
//! like any other. Regenerate intentionally with:
//!
//! ```text
//! AMEM_UPDATE_GOLDEN=1 cargo test --test conformance
//! ```

use std::path::PathBuf;

use active_mem::conformance::fuzz::{
    check_case, configs, fuzz_config, gen_case, gen_pingpong_case, gen_xeon20way_case, minimize,
    noninclusive_config, run_case, sabotage, write_reproducer,
};
use active_mem::conformance::{ehr_oracle_pack, orthogonality_pack, replay_file};
use active_mem::sim::engine::EventSignature;

// ---------------------------------------------------------------- fuzzing

#[test]
fn differential_fuzz_smoke() {
    // A short sweep over every geometry; the deep sweep (1,000 seeds) is
    // the bench binary's job (`--bin conformance -- --seeds 1000`).
    for cfg in configs() {
        let out = fuzz_config(&cfg, 0..5, 1200);
        assert_eq!(out.seeds_run, 5);
        assert!(
            out.divergences.is_empty(),
            "substrates diverged on {}: {}",
            cfg.name,
            out.divergences[0].describe()
        );
    }
}

#[test]
fn xeon20way_lane_agrees_under_masks_and_probation() {
    // The shipped L3 shape: the only width whose set kernels split
    // unevenly (8|8|4), with CAT masks that cut across those seams.
    let mut masks = std::collections::BTreeSet::new();
    for seed in 0..16 {
        let case = gen_xeon20way_case(seed, 1200);
        assert_eq!(case.machine.l3.ways, 20);
        assert!(case.machine.l3.hash_sets);
        assert!(case.lanes.iter().any(|l| l.probation_hint));
        masks.extend(case.lanes.iter().map(|l| l.l3_way_mask));
        if let Err(d) = check_case(&case) {
            panic!("substrates diverged: {}", d.describe());
        }
    }
    assert_eq!(masks.len(), 4, "every mask shape must be drawn: {masks:x?}");
}

#[test]
fn noninclusive_l3_lane_agrees_while_up_links_go_stale() {
    // The one setting where an L2 entry's up-link outlives the L3 entry
    // it names: the L3 (128 lines) is no larger than the two L2s above
    // it and does not back-invalidate, so lines hot in a private cache
    // age out underneath it. Counted once on this lane (EXPERIMENTS.md):
    // 29 % of hinted calls meet a stale link, none on any inclusive lane.
    let cfg = noninclusive_config();
    assert!(!cfg.machine.inclusive_l3);
    assert!(
        cfg.machine.l3.lines() <= 2 * cfg.machine.l2.lines(),
        "the L3 must turn over under live L2 copies"
    );
    assert!(
        configs().iter().all(|c| c.name != cfg.name),
        "a lane of its own: the benchmark iterates configs()"
    );
    let out = fuzz_config(&cfg, 0..50, 1200);
    assert_eq!(out.seeds_run, 50);
    assert!(
        out.divergences.is_empty(),
        "substrates diverged: {}",
        out.divergences[0].describe()
    );
}

#[test]
fn fuzzer_exercises_required_geometries() {
    // The acceptance criteria name non-pow2 set counts and a >64-way
    // config; pin them so a future edit can't silently drop coverage.
    let cfgs = configs();
    assert!(cfgs.len() >= 6, "need at least 6 fuzz geometries");
    assert!(
        cfgs.iter().any(|c| !c.machine.l3.sets().is_power_of_two()),
        "need a non-power-of-two set count"
    );
    assert!(
        cfgs.iter().any(|c| c.machine.l3.ways > 64),
        "need a >64-way geometry"
    );
    assert!(
        cfgs.iter().any(|c| c.machine.sockets > 1),
        "need a multi-socket geometry"
    );
}

#[test]
fn planted_off_by_one_is_caught_and_minimized() {
    let cfg = &configs()[0];
    let case = gen_case(cfg, 0, 1500);
    assert!(
        sabotage::check_case_sabotaged(&case).is_err(),
        "harness failed to detect the planted way-scan off-by-one"
    );
    let min = minimize(&case, |c| sabotage::check_case_sabotaged(c).is_err());
    assert!(
        min.total_accesses() <= 50,
        "reproducer must shrink to <= 50 accesses, got {}",
        min.total_accesses()
    );
    // The written reproducer round-trips and still replays clean against
    // the honest reference (the bug is in the sabotaged scan, not the
    // trace).
    let dir = std::env::temp_dir().join("amem-conformance-it");
    let path = write_reproducer(&min, &dir).expect("write reproducer");
    assert!(replay_file(&path).expect("read reproducer").is_ok());
    std::fs::remove_file(path).ok();
}

// ---------------------------------------------------------------- oracles

#[test]
fn eq4_oracles_hold_for_all_four_families() {
    let pack = ehr_oracle_pack();
    assert_eq!(pack.len(), 4);
    for o in &pack {
        assert!(o.holds(), "{}", o.describe());
        assert!(o.ci95_half > 0.0 && o.ci95_half < 0.02, "{}", o.describe());
    }
    // One representative per family.
    let names: Vec<&str> = pack.iter().map(|o| o.name.as_str()).collect();
    assert_eq!(names, ["Norm_6", "Exp_6", "Tri_2", "Uni"]);
}

#[test]
fn interference_axes_stay_orthogonal() {
    for c in orthogonality_pack() {
        assert!(c.holds(), "{}", c.describe());
    }
}

// ---------------------------------------------------------- golden traces

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

/// The three canonical snapshot cases: plain pow2 geometry, non-pow2
/// sets with BIP inserts, and a two-socket run with coherence traffic.
fn golden_cases() -> Vec<(&'static str, u64)> {
    vec![("pow2-mru", 42), ("nonpow2-bip", 7), ("two-socket", 1)]
}

#[test]
fn golden_trace_signatures_are_stable() {
    let update = std::env::var("AMEM_UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let cfgs = configs();
    for (name, seed) in golden_cases() {
        let cfg = cfgs.iter().find(|c| c.name == name).expect("known config");
        let case = gen_case(cfg, seed, 800);
        let sig = run_case(&case);
        let path = golden_dir().join(format!("golden_{name}_seed{seed}.json"));
        if update {
            std::fs::create_dir_all(golden_dir()).unwrap();
            std::fs::write(&path, serde_json::to_string_pretty(&sig).unwrap()).unwrap();
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run AMEM_UPDATE_GOLDEN=1 cargo test --test conformance",
                path.display()
            )
        });
        let expected: EventSignature = serde_json::from_str(&text).expect("parse golden");
        assert_eq!(
            sig, expected,
            "{name} seed {seed}: counters moved vs committed golden {}; if intended, regenerate with AMEM_UPDATE_GOLDEN=1",
            path.display()
        );
        // And the reference machine agrees with the golden too.
        assert!(
            check_case(&case).is_ok(),
            "{name} seed {seed}: reference diverges on a golden trace"
        );
    }
}

/// Barrier-heavy snapshot. The ping-pong script parks cores at
/// barriers constantly, so this golden pins the barrier-release order
/// DESIGN.md §14 specifies: every waiting primary resumes at the latest
/// arrival plus `barrier_overhead`, ties at that instant go to the
/// lowest core index, and the core that released the barrier gets no
/// second turn. Any change to who runs first after a release moves the
/// shared-DRAM interleaving and with it this signature.
#[test]
fn golden_pingpong_signature_is_stable() {
    let update = std::env::var("AMEM_UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let seed = 1u64;
    let case = gen_pingpong_case(seed, 1200);
    let sig = run_case(&case);
    let path = golden_dir().join(format!("golden_pingpong-2s_seed{seed}.json"));
    if update {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, serde_json::to_string_pretty(&sig).unwrap()).unwrap();
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run AMEM_UPDATE_GOLDEN=1 cargo test --test conformance",
            path.display()
        )
    });
    let expected: EventSignature = serde_json::from_str(&text).expect("parse golden");
    assert_eq!(
        sig, expected,
        "pingpong-2s seed {seed}: barrier scheduling moved vs committed golden {}; if intended, regenerate with AMEM_UPDATE_GOLDEN=1",
        path.display()
    );
    assert!(
        check_case(&case).is_ok(),
        "pingpong-2s seed {seed}: reference diverges on a golden trace"
    );
}
