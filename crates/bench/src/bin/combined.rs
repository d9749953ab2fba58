#![forbid(unsafe_code)]
//! Combined interference vs multiplicative composition.
//!
//! The prediction machinery (§I/§VI) assumes storage and bandwidth
//! degradations compose multiplicatively — justified by their
//! orthogonality (§III-D). This experiment checks the assumption
//! directly: run MCB under *simultaneous* CSThr+BWThr interference and
//! compare against the product of the individually-measured slowdowns.

use amem_bench::Harness;
use amem_core::platform::McbWorkload;
use amem_core::report::Table;
use amem_interfere::InterferenceMix;
use amem_miniapps::McbCfg;

fn main() {
    let mut h = Harness::new("combined");
    let m = h.machine();
    let exec = h.executor();
    let w = McbWorkload(McbCfg::new(&m, 60_000));
    let per = 2;

    let baseline = exec
        .run(&w, per, InterferenceMix::none())
        .expect("baseline run")
        .seconds;
    let mut t = Table::new(
        "Combined interference vs multiplicative composition (MCB, 60k particles)",
        &[
            "Mix",
            "Measured slowdown",
            "Composed (storage x bandwidth)",
            "Composition error",
        ],
    );
    for (cs, bw) in [(1usize, 1usize), (2, 1), (3, 1), (2, 2), (4, 1), (4, 2)] {
        if cs + bw > 8 - per {
            continue;
        }
        let s_only = exec
            .run(&w, per, InterferenceMix::storage(cs))
            .expect("storage run")
            .seconds
            / baseline;
        let b_only = exec
            .run(&w, per, InterferenceMix::bandwidth(bw))
            .expect("bandwidth run")
            .seconds
            / baseline;
        let mixed = exec
            .run(&w, per, InterferenceMix::new(cs, bw))
            .expect("mixed run")
            .seconds
            / baseline;
        let composed = s_only * b_only;
        t.row(vec![
            InterferenceMix::new(cs, bw).describe(),
            format!("{mixed:.3}x"),
            format!("{composed:.3}x"),
            format!("{:+.1}%", (composed / mixed - 1.0) * 100.0),
        ]);
    }
    h.emit("combined", &t);
    println!(
        "Small errors validate treating the two resources as an orthogonal \
         basis (the paper's 2-D projection, §III-D); positive errors mean \
         composition over-predicts (the resources overlap slightly)."
    );
    h.finish();
}
