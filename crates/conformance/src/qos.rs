//! Controller-determinism conformance lane: the QoS loop must be a
//! deterministic function of `(seed, mix, policy)`.
//!
//! A controller is exactly the kind of code that silently lies: a single
//! nondeterministic decision (an unstable sort in victim selection, an
//! uninitialized EWMA, an epoch boundary that drifts with float error)
//! corrupts every estimate downstream while every individual run still
//! *looks* plausible. The lane holds the loop to byte-level honesty:
//!
//! * **Determinism** — running one generated co-schedule twice with an
//!   identically-configured [`QosController`] must produce byte-identical
//!   canonical-JSON decision logs *and* equal engine
//!   [`EventSignature`]s.
//! * **Sabotage self-test** — the engine's planted epoch off-by-one
//!   ([`Engine::with_epoch_off_by_one`]) shifts every boundary one
//!   epoch late; the lane must catch the resulting decision-log drift,
//!   proving it *fails when it should* (as [`crate::fuzz`]'s planted
//!   faults do).
//!
//! The reference machine ([`crate::refmachine`]) has no controller, so
//! this lane compares the engine with itself; the controller-free
//! engine is the fuzz lanes' subject.
//!
//! Case generation is seeded and deterministic: victim kind, aggressor
//! count and kinds, and the policy target all derive from the seed. The
//! `conformance` binary sweeps `--seeds` seeds as its `qos-determinism`
//! lane.

use amem_qos::scenario::App;
use amem_qos::{QosController, QosCtlCfg, QosPolicy, Scenario};
use amem_sim::config::CoreId;
use amem_sim::engine::{Engine, EventSignature};
use amem_sim::machine::Machine;
use amem_sim::{MachineConfig, RunLimit};

/// One generated controller-determinism case.
pub struct QosCase {
    pub seed: u64,
    pub scenario: Scenario,
    pub policy: QosPolicy,
    pub cfg: QosCtlCfg,
}

/// A detected mismatch between two runs of the same case.
#[derive(Debug, Clone)]
pub struct QosDivergence {
    pub seed: u64,
    /// What differed: `"decision-log"` or `"event-signature"`.
    pub field: &'static str,
}

/// Deterministically generate the co-schedule and policy for `seed`:
/// a victim (DRAM-bound or cache-resident), one to three aggressors
/// (streaming or thrashing), and either estimation-only or an enforcing
/// target between 1.1 and 1.4.
pub fn gen_qos_case(seed: u64) -> QosCase {
    let m = MachineConfig::xeon20mb().scaled(0.0625);
    let c = |i: u32| CoreId::new(0, i);
    let victim = if seed.is_multiple_of(2) {
        App::dram_bound("victim", &m, c(0), 7 + seed)
    } else {
        App::resident("victim", &m, c(0), 7 + seed)
    };
    let mut apps = vec![victim];
    let hogs = 1 + (seed % 3) as u32;
    for i in 0..hogs {
        if (seed >> (i + 1)) & 1 == 0 {
            apps.push(App::stream(&format!("bw{i}"), &m, c(1 + i)));
        } else {
            apps.push(App::resident(
                &format!("cs{i}"),
                &m,
                c(1 + i),
                0x5EED + seed + i as u64,
            ));
        }
    }
    let policy = if seed.is_multiple_of(3) {
        QosPolicy::none()
    } else {
        QosPolicy::none().with_target("victim", 1.1 + 0.1 * (seed % 4) as f64)
    };
    let mut cfg = QosCtlCfg::for_machine(&m);
    // Short epochs so a 300k-cycle case still crosses several probe
    // rounds.
    cfg.epoch_cycles = 10_000;
    QosCase {
        seed,
        scenario: Scenario::new(m, apps, 300_000),
        policy,
        cfg,
    }
}

/// Run one case once, returning the canonical decision log and the
/// engine event signature.
fn run_once(case: &QosCase, off_by_one: bool) -> (String, EventSignature) {
    let mut machine = Machine::new(case.scenario.machine.clone());
    let jobs = case.scenario.jobs(&mut machine);
    let mut ctl = QosController::new(case.scenario.ctl_apps(), &case.policy, case.cfg.clone());
    let limit = RunLimit {
        max_cycles: Some(case.scenario.max_cycles),
        ..RunLimit::default()
    };
    let mut engine = Engine::new(&case.scenario.machine, jobs).with_controller(&mut ctl);
    if off_by_one {
        engine = engine.with_epoch_off_by_one();
    }
    let sig = engine.run(&limit).event_signature();
    (ctl.decision_log_json(), sig)
}

/// Determinism check: two identical runs must agree byte-for-byte on the
/// decision log and exactly on the event signature.
pub fn check_qos_case(case: &QosCase) -> Result<(), QosDivergence> {
    let (log_a, sig_a) = run_once(case, false);
    let (log_b, sig_b) = run_once(case, false);
    if log_a != log_b {
        return Err(QosDivergence {
            seed: case.seed,
            field: "decision-log",
        });
    }
    if sig_a != sig_b {
        return Err(QosDivergence {
            seed: case.seed,
            field: "event-signature",
        });
    }
    Ok(())
}

/// Sabotage self-test: the same case run through the planted epoch
/// off-by-one must produce a *different* decision log (boundaries fire
/// one epoch late, so every `now` and every rate sample shifts). Returns
/// `Err` when the sabotage goes *undetected* — i.e. the lane is blind.
pub fn check_qos_sabotage_caught(case: &QosCase) -> Result<(), QosDivergence> {
    let (honest, _) = run_once(case, false);
    let (shifted, _) = run_once(case, true);
    if honest == shifted {
        Err(QosDivergence {
            seed: case.seed,
            field: "decision-log",
        })
    } else {
        Ok(())
    }
}

/// Sweep a seed range; returns every divergence found. Deterministic:
/// the same range always replays the same cases.
pub fn qos_seed_sweep(seeds: std::ops::Range<u64>) -> Vec<QosDivergence> {
    seeds
        .filter_map(|seed| check_qos_case(&gen_qos_case(seed)).err())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = gen_qos_case(5);
        let b = gen_qos_case(5);
        assert_eq!(a.scenario.apps.len(), b.scenario.apps.len());
        for (x, y) in a.scenario.apps.iter().zip(&b.scenario.apps) {
            assert_eq!(x.name, y.name);
        }
        // Different seeds vary the mix shape somewhere in a small range.
        assert!((0..6).any(|s| gen_qos_case(s).scenario.apps.len() != a.scenario.apps.len()));
    }

    #[test]
    fn controller_is_deterministic_over_a_seed_sweep() {
        let div = qos_seed_sweep(0..6);
        assert!(div.is_empty(), "divergences: {div:?}");
    }

    #[test]
    fn epoch_off_by_one_is_caught_on_every_seed() {
        for seed in 0..6 {
            let case = gen_qos_case(seed);
            assert!(
                check_qos_sabotage_caught(&case).is_ok(),
                "seed {seed}: epoch off-by-one went undetected"
            );
        }
    }
}
