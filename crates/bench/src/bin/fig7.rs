#![forbid(unsafe_code)]
//! Fig. 7 — orthogonality, part 1: BWThr is unaffected by CSThrs.
//!
//! One BWThr runs a fixed number of main-loop iterations (the paper uses
//! 10⁷) while 0–5 CSThrs run on other cores of the same socket. The
//! paper's result: bandwidth use, L3 miss rate and completion time of the
//! BWThr stay flat — CSThrs do not consume measurable bandwidth.

use amem_bench::Harness;
use amem_core::report::Table;
use amem_interfere::{BwThread, BwThreadCfg, InterferenceSpec};
use amem_sim::config::CoreId;
use amem_sim::engine::{Job, RunLimit};
use amem_sim::machine::Machine;

fn main() {
    let mut h = Harness::new("fig7");
    let m = h.machine();
    let iters = 6_000u64;
    let mut t = Table::new(
        format!("Fig. 7 — one BWThr ({iters} iterations) vs 0-5 concurrent CSThrs"),
        &[
            "CSThrs",
            "BWThr GB/s (Eq.1)",
            "BWThr L3 miss rate",
            "Time (ms)",
        ],
    );
    for k in 0..=5usize {
        let mut machine = Machine::new(m.clone());
        let bw_cfg = BwThreadCfg {
            iterations: Some(iters),
            ..BwThreadCfg::for_machine(&m)
        };
        let bw = BwThread::new(&mut machine, &bw_cfg);
        let mut jobs = vec![Job::primary(Box::new(bw), CoreId::new(0, 0))];
        if k > 0 {
            let free: Vec<CoreId> = (1..=k as u32).map(|c| CoreId::new(0, c)).collect();
            jobs.extend(InterferenceSpec::storage(k).build_jobs(&mut machine, &free));
        }
        let r = machine.run(jobs, RunLimit::default());
        let c = &r.jobs[0].counters;
        t.row(vec![
            k.to_string(),
            format!("{:.2}", c.bandwidth_gbs(m.l3.line_bytes, m.freq_ghz)),
            format!("{:.3}", c.l3_miss_rate()),
            format!("{:.3}", m.seconds(c.cycles) * 1e3),
        ]);
    }
    h.emit("fig7", &t);
    println!("Paper: all three columns flat across 0-5 CSThrs.");
    h.finish();
}
