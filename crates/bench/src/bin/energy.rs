#![forbid(unsafe_code)]
//! Energy cost of interference (the paper's §I power motivation, closed
//! numerically): the same MCB run under rising interference, accounted
//! with the event-energy model — slowdowns are also joules.

use amem_bench::Harness;
use amem_core::platform::McbWorkload;
use amem_core::report::Table;
use amem_interfere::{InterferenceKind, InterferenceMix};
use amem_miniapps::McbCfg;
use amem_sim::energy::EnergyModel;

fn main() {
    let mut h = Harness::new("energy");
    let m = h.machine();
    let exec = h.executor();
    let w = McbWorkload(McbCfg::new(&m, 60_000));
    let model = EnergyModel::default();
    let mut t = Table::new(
        "Energy under interference (MCB 60k, 2 ranks/processor)",
        &[
            "Interference",
            "Time (ms)",
            "Dynamic (mJ)",
            "Static (mJ)",
            "Total (mJ)",
            "vs baseline",
        ],
    );
    let mut baseline_total = 0.0;
    for (kind, counts) in [
        (InterferenceKind::Storage, vec![0usize, 2, 4, 6]),
        (InterferenceKind::Bandwidth, vec![1usize, 2]),
    ] {
        for k in counts {
            let mix = InterferenceMix::of_kind(kind, k);
            let meas = exec.run(&w, 2, mix).expect("energy run");
            let mut dyn_j = 0.0;
            let mut stat_j = 0.0;
            for j in meas.report.jobs.iter().filter(|j| j.primary) {
                let e = model.account(&j.after_last_mark(), &m);
                dyn_j += e.dynamic_j;
                stat_j += e.static_j;
            }
            let total = dyn_j + stat_j;
            if k == 0 {
                baseline_total = total;
            }
            t.row(vec![
                mix.describe(),
                format!("{:.3}", meas.seconds * 1e3),
                format!("{:.3}", dyn_j * 1e3),
                format!("{:.3}", stat_j * 1e3),
                format!("{:.3}", total * 1e3),
                format!("{:.2}x", total / baseline_total),
            ]);
        }
    }
    h.emit("energy", &t);
    println!(
        "Interference costs energy twice: extra DRAM events (dynamic) and \
         longer runtime under constant leakage (static) — the flat-power \
         arithmetic behind the paper's shrinking memory-per-core premise."
    );
    h.finish();
}
