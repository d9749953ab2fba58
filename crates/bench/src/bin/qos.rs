#![forbid(unsafe_code)]
//! QoS enforcement experiment: the closed-loop answer to the open-loop
//! problem the paper measures.
//!
//! Fig. 9 plots degradation with no recourse — the victim takes whatever
//! the co-schedule does to it. This binary renders the "with enforcement"
//! twin: the same bandwidth-interference sweep with the MISE-style
//! estimator + notch controller holding the victim to a slowdown target,
//! plus a fig12-style per-app outcome table for one adversarial
//! co-schedule ("who pays for whose QoS").
//!
//! `$AMEM_QOS_SEEDS=<n>` additionally sweeps n seeds through the
//! conformance controller-determinism lane (byte-identical decision logs
//! and event signatures across repeated runs) — the CI `qos-smoke` job
//! runs 200.

use amem_bench::Harness;
use amem_conformance::qos_seed_sweep;
use amem_core::report::Table;
use amem_interfere::InterferenceKind;
use amem_qos::figures::{enforced_sweep, enforced_sweep_rows, enforcement_table};
use amem_qos::scenario::App;
use amem_qos::{QosPolicy, Scenario};
use amem_sim::config::CoreId;

const TARGET: f64 = 1.3;
const MAX_CYCLES: u64 = 4_000_000;

fn main() {
    let mut h = Harness::new("qos");
    let m = h.machine();

    // ---- Fig. 9 twin: bandwidth sweep, naive vs enforced --------------
    let counts: Vec<usize> = (1..=7).collect();
    let pts = enforced_sweep(&m, InterferenceKind::Bandwidth, &counts, TARGET, MAX_CYCLES);
    let mut t = Table::new(
        format!("Fig. 9 twin — DRAM-bound victim vs BWThrs, slowdown target {TARGET}"),
        &[
            "BWThrs",
            "Naive slowdown",
            "Enforced slowdown",
            "Estimate",
            "Target",
        ],
    );
    for row in enforced_sweep_rows(&pts) {
        t.row(row);
    }
    h.emit("qos_fig9_twin", &t);

    // ---- Fig. 12-style outcome table: who pays for whose QoS ----------
    let mut apps = vec![App::dram_bound("victim", &m, CoreId::new(0, 0), 11)];
    for i in 0..6u32 {
        apps.push(App::stream(&format!("bw{i}"), &m, CoreId::new(0, 1 + i)));
    }
    let sc = Scenario::new(m, apps, MAX_CYCLES);
    let policy = QosPolicy::none().with_target("victim", TARGET);
    let mut t = Table::new(
        format!("Enforcement outcomes — victim target {TARGET}, 6 BWThr aggressors"),
        &[
            "App", "Target", "Naive", "Enforced", "Estimate", "CI95", "Notch",
        ],
    );
    for r in enforcement_table(&sc, &policy) {
        t.row(vec![
            r.app,
            r.target
                .map(|x| format!("{x:.2}"))
                .unwrap_or_else(|| "-".into()),
            format!("{:.4}", r.naive_slowdown),
            format!("{:.4}", r.enforced_slowdown),
            r.estimate
                .map(|x| format!("{x:.4}"))
                .unwrap_or_else(|| "-".into()),
            r.ci95_half
                .map(|x| format!("±{x:.4}"))
                .unwrap_or_else(|| "-".into()),
            r.final_notch.to_string(),
        ]);
    }
    h.emit("qos_outcomes", &t);
    println!(
        "The loop holds the victim at its target by notching the noisiest \
         best-effort apps (each notch halves their L3 ways and DRAM line \
         rate); the aggressors absorb the slowdown the naive schedule put \
         on the victim."
    );

    // ---- Optional: controller-determinism seed sweep ------------------
    if let Ok(n) = std::env::var("AMEM_QOS_SEEDS") {
        let n: u64 = n.parse().expect("AMEM_QOS_SEEDS must be an integer");
        let divergences = qos_seed_sweep(0..n);
        assert!(
            divergences.is_empty(),
            "controller nondeterminism: {divergences:?}"
        );
        println!("[qos] determinism sweep: {n} seeds, byte-identical decision logs");
    }

    h.finish();
}
