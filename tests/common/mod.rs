//! Inputs shared by more than one integration test.

use active_mem::sim::config::CoreId;
use active_mem::sim::engine::Job;
use active_mem::sim::stream::{Op, ScriptStream};

/// A coherence-heavy two-socket script: two primaries and a background
/// core ping-pong loads and stores on one shared line (invalidation
/// broadcasts), stream over private buffers, and meet at barriers with
/// PMU marks — every op class whose interleaving the quantum horizon
/// could corrupt.
pub fn horizon_script_jobs() -> Vec<Job> {
    let shared = 0x4000_0000u64;
    let mk = |core: u32, base: u64| {
        let mut ops = Vec::new();
        for i in 0..600u64 {
            ops.push(Op::Load(base + (i % 200) * 64));
            if i % 7 == 0 {
                ops.push(Op::Store(shared));
            } else if i % 3 == 0 {
                ops.push(Op::Load(shared));
            }
            if i % 150 == 0 {
                ops.push(Op::Barrier);
                ops.push(Op::Mark);
            }
            if i % 11 == 0 {
                ops.push(Op::Compute(5 + (core + i as u32) % 9));
            }
        }
        ops.push(Op::Barrier);
        ops
    };
    vec![
        Job::primary(
            Box::new(ScriptStream::new(mk(0, 0x1000_0000))),
            CoreId::new(0, 0),
        ),
        Job::primary(
            Box::new(ScriptStream::new(mk(1, 0x2000_0000))),
            CoreId::new(1, 0),
        ),
        Job::background(
            Box::new(ScriptStream::new(mk(2, 0x3000_0000))),
            CoreId::new(0, 1),
        ),
    ]
}
