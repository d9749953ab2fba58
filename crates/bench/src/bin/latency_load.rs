#![forbid(unsafe_code)]
//! Loaded memory latency vs interference level: the latency-under-load
//! companion to Eq. 1's bandwidth view ("cache misses take longer to
//! complete" — paper §IV).

use amem_bench::Harness;
use amem_core::report::Table;
use amem_interfere::latency::loaded_latency;
use amem_interfere::InterferenceSpec;

fn main() {
    let mut h = Harness::new("latency_load");
    let m = h.machine();
    let mut t = Table::new(
        "Loaded DRAM latency (dependent chase over 4x the LLC)",
        &["Interference", "Cycles per miss", "ns per miss"],
    );
    let base = loaded_latency(&m, InterferenceSpec::none());
    t.row(vec![
        "none".into(),
        format!("{base:.0}"),
        format!("{:.1}", base / m.freq_ghz),
    ]);
    for k in 1..=6usize {
        let l = loaded_latency(&m, InterferenceSpec::bandwidth(k));
        t.row(vec![
            format!("{k} BWThr"),
            format!("{l:.0}"),
            format!("{:.1}", l / m.freq_ghz),
        ]);
    }
    for k in [2usize, 4] {
        let l = loaded_latency(&m, InterferenceSpec::storage(k));
        t.row(vec![
            format!("{k} CSThr"),
            format!("{l:.0}"),
            format!("{:.1}", l / m.freq_ghz),
        ]);
    }
    h.emit("latency_load", &t);
    println!(
        "Bandwidth interference queues the probe's misses; storage \
         interference barely moves them — the same orthogonality as Figs. 7-8, \
         seen from the latency side."
    );
    h.finish();
}
