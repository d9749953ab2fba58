//! Run the paper's interference threads on the *host* machine — the
//! deployable form of the tool. This hammers real memory for about a
//! second; on a shared machine expect noisy numbers.
//!
//! ```sh
//! cargo run --release --example native_interference
//! ```
//!
//! Std only: the loop bodies follow the paper's pseudo-code (Figs. 2 and
//! 3) at the default `BwThreadCfg` / `CsThreadCfg` sizes. Without a PMU,
//! bandwidth is `bytes_touched / elapsed` — BWThr misses by construction.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What one interference thread did before it was stopped.
struct Stats {
    rounds: u64,
    secs: f64,
}

const BW_BUFFERS: usize = 44;
/// BWThr (paper Fig. 2): 44 buffers of 520 KB, each touched once per
/// round at a large-prime-strided index so (nearly) every access misses.
fn bwthr(stop: &AtomicBool) -> Stats {
    const LARGE_PRIME: u64 = 104_729;
    let elems = (520usize << 10) / 8;
    let mut bufs = vec![vec![0u64; elems]; BW_BUFFERS];
    let start = Instant::now();
    let mut rounds = 0u64;
    while !(rounds.is_multiple_of(1024) && stop.load(Ordering::Relaxed)) {
        let idx = (LARGE_PRIME.wrapping_mul(rounds) % elems as u64) as usize;
        for buf in &mut bufs {
            // black_box so the optimizer cannot collapse the loop.
            let e = black_box(&mut buf[idx]);
            *e = e.wrapping_add(1);
        }
        rounds += 1;
    }
    Stats {
        rounds,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// CSThr (paper Fig. 3): random read+add+write keeps a 4 MB buffer resident.
fn csthr(seed: u64, stop: &AtomicBool) -> Stats {
    let elems = (4usize << 20) / 4;
    let mut buf = vec![0u32; elems];
    let mut x = seed; // xorshift64 state: must be non-zero
    let start = Instant::now();
    let mut rounds = 0u64;
    while !(rounds.is_multiple_of(4096) && stop.load(Ordering::Relaxed)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let e = black_box(&mut buf[(x % elems as u64) as usize]);
        *e = e.wrapping_add(1);
        rounds += 1;
    }
    Stats {
        rounds,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// Run `n` copies of `body` for half a second, then raise the stop flag.
fn run(n: u64, body: impl Fn(u64, &AtomicBool) -> Stats + Sync) -> Vec<Stats> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (body, stop) = (&body, &stop);
        let threads: Vec<_> = (0..n).map(|i| s.spawn(move || body(i, stop))).collect();
        std::thread::sleep(Duration::from_millis(500));
        stop.store(true, Ordering::Relaxed);
        threads
            .into_iter()
            .map(|t| t.join().expect("interference thread panicked"))
            .collect()
    })
}

fn main() {
    println!("spawning 1 native BWThr (44 x 520 KB buffers, prime stride)...");
    for s in run(1, |_, stop| bwthr(stop)) {
        // One 64-byte line per buffer per round.
        let gbs = (s.rounds * BW_BUFFERS as u64 * 64) as f64 / s.secs / 1e9;
        println!(
            "  BWThr: {} loop iterations in {:.3}s -> ~{gbs:.2} GB/s of line traffic",
            s.rounds, s.secs
        );
    }

    println!("spawning 2 native CSThrs (4 MB random-touch buffers)...");
    let stats = run(2, |i, stop| csthr(0xC5_7412 + i, stop));
    for (i, s) in stats.iter().enumerate() {
        println!(
            "  CSThr[{i}]: {} read+add+write rounds in {:.3}s ({:.1} ns/round)",
            s.rounds,
            s.secs,
            s.secs * 1e9 / s.rounds as f64
        );
    }
    println!(
        "\nTo measure a real application: start it, pin these threads to\n\
         spare cores of the same socket (e.g. with taskset), and record the\n\
         application's slowdown at each interference level — the simulator\n\
         drivers in amem-core show the full analysis pipeline."
    );
}
