#![forbid(unsafe_code)]
//! Fig. 1 — the paper's concept figure, reenacted with real measurements:
//! interfere with increasing fractions of a resource until the
//! application's performance degrades; the knee reveals its use.
//!
//! The workload and table live in [`amem_core::figures`] so the serve
//! path (`amem-client sweep --csv`) renders byte-identical output.

use amem_bench::Harness;
use amem_core::figures::{fig1_probe, fig1_table, FIG1_MAX_COUNT, FIG1_PER_PROCESSOR};
use amem_core::platform::ProbeWorkload;
use amem_core::sweep::run_sweep;
use amem_interfere::InterferenceKind;

fn main() {
    let mut h = Harness::new("fig1");
    let m = h.machine();
    let exec = h.executor();
    let w = ProbeWorkload(fig1_probe(&m));
    let sweep = run_sweep(
        &exec,
        &w,
        FIG1_PER_PROCESSOR,
        InterferenceKind::Storage,
        FIG1_MAX_COUNT,
    )
    .expect("fig1 sweep");
    let t = fig1_table(&m, &sweep);
    h.emit("fig1", &t);
    h.finish();
}
