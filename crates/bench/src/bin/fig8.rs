#![forbid(unsafe_code)]
//! Fig. 8 — orthogonality, part 2: CSThr vs 0–5 BWThrs.
//!
//! One CSThr performs a fixed number of read+add+write rounds while 0–5
//! BWThrs stream on other cores. The paper's result: 1–2 BWThrs leave the
//! CSThr unaffected (so up to 32% of bandwidth can be stolen "cleanly"),
//! but 3+ BWThrs displace enough cache to slow the CSThr and raise its
//! bandwidth use — the boundary of the methods' independence.

use amem_bench::Harness;
use amem_core::report::Table;
use amem_interfere::{CsThread, CsThreadCfg, InterferenceSpec};
use amem_sim::config::CoreId;
use amem_sim::engine::{Job, RunLimit};
use amem_sim::machine::Machine;

fn main() {
    let mut h = Harness::new("fig8");
    let m = h.machine();
    let rounds = 400_000u64;
    let mut t = Table::new(
        format!("Fig. 8 — one CSThr ({rounds} rounds) vs 0-5 concurrent BWThrs"),
        &[
            "BWThrs",
            "CSThr GB/s (Eq.1)",
            "CSThr L3 miss rate",
            "ns per read+add+write",
        ],
    );
    for k in 0..=5usize {
        let mut machine = Machine::new(m.clone());
        let cs_cfg = CsThreadCfg {
            rounds: Some(rounds),
            ..CsThreadCfg::for_machine(&m)
        };
        let cs = CsThread::new(&mut machine, &cs_cfg);
        let mut jobs = vec![Job::primary(Box::new(cs), CoreId::new(0, 0))];
        if k > 0 {
            let free: Vec<CoreId> = (1..=k as u32).map(|c| CoreId::new(0, c)).collect();
            jobs.extend(InterferenceSpec::bandwidth(k).build_jobs(&mut machine, &free));
        }
        let r = machine.run(jobs, RunLimit::default());
        let c = &r.jobs[0].counters;
        t.row(vec![
            k.to_string(),
            format!("{:.3}", c.bandwidth_gbs(m.l3.line_bytes, m.freq_ghz)),
            format!("{:.3}", c.l3_miss_rate()),
            format!("{:.2}", m.seconds(c.cycles) * 1e9 / rounds as f64),
        ]);
    }
    h.emit("fig8", &t);
    println!(
        "Paper: flat for 0-2 BWThrs; visible slowdown and extra bandwidth \
         use from 3 BWThrs on (they start stealing cache storage)."
    );
    h.finish();
}
