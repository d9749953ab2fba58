#![forbid(unsafe_code)]
//! Noise amplification (paper §IV, refs \[11\]\[18\]): interference-induced
//! jitter is amplified by BSP barriers as ranks multiply.

use amem_bench::Harness;
use amem_core::noise::{measure_amplification, NoiseCfg};
use amem_core::report::Table;

fn main() {
    let mut h = Harness::new("noise_amp");
    let m = h.machine();
    let noise = NoiseCfg {
        rate: 5e-3,
        mean_cycles: 5_000.0,
        seed: 7,
    };
    h.set_seed(noise.seed);
    let mut t = Table::new(
        "Barrier amplification of stochastic slowdown",
        &[
            "Ranks",
            "Measured slowdown",
            "Serial expectation",
            "Amplification",
        ],
    );
    for ranks in [1usize, 2, 4, 8, 12, 16] {
        if ranks > m.total_cores() {
            break;
        }
        let a = measure_amplification(&m, ranks, noise);
        t.row(vec![
            ranks.to_string(),
            format!("{:.3}x", a.measured_slowdown),
            format!("{:.3}x", a.serial_slowdown),
            format!("{:.2}x", a.amplification()),
        ]);
    }
    h.emit("noise_amp", &t);
    println!(
        "The max over per-rank noise grows with the rank count while the \
         mean stays put — why the paper's parallel runs feel interference \
         harder than single-process ones."
    );
    h.finish();
}
