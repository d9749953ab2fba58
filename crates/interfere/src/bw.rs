//! BWThr: the memory-bandwidth interference thread (paper Fig. 2).
//!
//! The paper's C skeleton:
//!
//! ```c
//! long long int* buf_0 = malloc(sizeof(long long int) * bufSize);
//! ...
//! long long int* buf_numBufs = malloc(sizeof(long long int) * bufSize);
//! for (int i = 0; 1; i++) {
//!     buf_0[identity(largePrime * i) % bufSize]++;
//!     ...
//!     buf_numBufs[identity(largePrime * i) % bufSize]++;
//! }
//! ```
//!
//! Design points carried over faithfully:
//!
//! * **Large-prime stride** — successive accesses to one buffer are
//!   `largePrime mod bufSize` elements apart, so the revisit interval of
//!   any location is maximal (no short-term reuse) while the stride stays
//!   constant (prefetchable, per §II-A).
//! * **Many buffers (44)** — the paper interleaves accesses across many
//!   buffers so the hardware can keep several misses in flight despite the
//!   `identity()` call blocking compiler-level unrolling. In the simulator
//!   this shows up as the stream's MLP budget.
//! * **Total footprint slightly exceeding the L3** — 44 × 520 KB ≈ 22.9 MB
//!   against a 20 MB L3, so accesses cannot settle into the cache.
//!
//! The increment (`++`) is a load followed by a store to the same line.

use amem_sim::machine::Machine;
use amem_sim::stream::{AccessStream, Op};
use serde::{Deserialize, Serialize};

/// The large prime of the paper's stride. Any prime much larger than the
/// buffer length works; this one is `primes.utm.edu`'s 10000th prime.
pub const LARGE_PRIME: u64 = 104_729;

/// Configuration of one BWThr.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BwThreadCfg {
    /// Number of buffers walked round-robin (paper: 44).
    pub n_buffers: usize,
    /// Bytes per buffer (paper: 520 KB of `long long int`s).
    pub buffer_bytes: u64,
    /// In-flight miss budget (models the multi-buffer overlap).
    pub mlp: u8,
    /// If set, the thread finishes after this many passes over all
    /// buffers ("iterations over its main loop", used as the primary
    /// workload in the paper's Fig. 7).
    pub iterations: Option<u64>,
}

impl Default for BwThreadCfg {
    fn default() -> Self {
        Self {
            n_buffers: 44,
            buffer_bytes: 520 << 10,
            mlp: 4,
            iterations: None,
        }
    }
}

impl BwThreadCfg {
    /// Scale the 520 KB-per-buffer footprint to a machine whose caches
    /// were shrunk with [`amem_sim::MachineConfig::scaled`]: the total
    /// footprint keeps the same ratio to the L3 (≈1.15×), which is the
    /// property that makes every access miss.
    pub fn for_machine(cfg: &amem_sim::MachineConfig) -> Self {
        let d = Self::default();
        let full_l3 = 20u64 << 20;
        let ratio = cfg.l3.size_bytes as f64 / full_l3 as f64;
        Self {
            buffer_bytes: ((d.buffer_bytes as f64 * ratio) as u64).max(4096),
            ..d
        }
    }

    /// Total bytes touched by one thread.
    pub fn footprint(&self) -> u64 {
        self.n_buffers as u64 * self.buffer_bytes
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// One bandwidth interference thread, as a simulator stream.
///
/// The stride walks whole cache lines (the paper strides 8-byte elements;
/// at line granularity the walk is purely cyclic with a period of the
/// entire footprint, so under LRU *every* revisit distance exceeds the
/// cache — the property the prime stride is there to provide).
pub struct BwThread {
    bases: Vec<u64>,
    /// Lines per buffer.
    lines: u64,
    /// Stride in lines, reduced mod `lines` and forced coprime so the
    /// walk covers every line before repeating.
    stride: u64,
    /// Current line offset (equals `largePrime * i % lines`).
    offset: u64,
    /// Next buffer to touch this round.
    buf: usize,
    /// Whether the pending op is the store half of the `++`.
    store_pending: bool,
    iterations_left: Option<u64>,
    mlp: u8,
}

impl BwThread {
    /// Allocate the thread's buffers on `machine` and build the stream.
    pub fn new(machine: &mut Machine, cfg: &BwThreadCfg) -> Self {
        assert!(cfg.n_buffers > 0 && cfg.buffer_bytes >= 64);
        let bases = (0..cfg.n_buffers)
            .map(|_| machine.alloc(cfg.buffer_bytes))
            .collect();
        let lines = cfg.buffer_bytes / 64;
        let mut stride = LARGE_PRIME % lines;
        while stride == 0 || gcd(stride, lines) != 1 {
            stride = (stride + 1) % lines.max(2);
        }
        Self {
            bases,
            lines,
            stride,
            offset: 0,
            buf: 0,
            store_pending: false,
            iterations_left: cfg.iterations,
            mlp: cfg.mlp,
        }
    }

    #[inline]
    fn addr(&self) -> u64 {
        self.bases[self.buf] + self.offset * 64
    }

    /// Advance to the next buffer; after the last, bump `i` (one full
    /// round-robin pass = one paper-loop iteration).
    #[inline]
    fn advance(&mut self) {
        self.buf += 1;
        if self.buf == self.bases.len() {
            self.buf = 0;
            self.offset += self.stride;
            if self.offset >= self.lines {
                self.offset -= self.lines;
            }
            if let Some(left) = &mut self.iterations_left {
                *left -= 1;
            }
        }
    }
}

impl AccessStream for BwThread {
    fn next_op(&mut self) -> Op {
        if self.store_pending {
            // Second half of `buf[idx]++`.
            self.store_pending = false;
            let a = self.addr();
            self.advance();
            return Op::Store(a);
        }
        if self.iterations_left == Some(0) {
            return Op::Done;
        }
        self.store_pending = true;
        Op::Load(self.addr())
    }

    /// Batch generation emitting whole `++` (load/store) pairs per loop
    /// turn; sequence-identical to repeated [`Self::next_op`].
    fn next_batch(&mut self, out: &mut Vec<Op>, max: usize) {
        let mut n = 0;
        while n < max {
            if self.store_pending {
                self.store_pending = false;
                let a = self.addr();
                self.advance();
                out.push(Op::Store(a));
                n += 1;
                continue;
            }
            if self.iterations_left == Some(0) {
                out.push(Op::Done);
                return;
            }
            let a = self.addr();
            out.push(Op::Load(a));
            n += 1;
            if n < max {
                self.advance();
                out.push(Op::Store(a));
                n += 1;
            } else {
                self.store_pending = true;
            }
        }
    }

    fn mlp(&self) -> u8 {
        self.mlp
    }

    fn label(&self) -> &str {
        "BWThr"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amem_sim::prelude::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig::xeon20mb().scaled(0.125))
    }

    #[test]
    fn emits_load_store_pairs_with_prime_stride() {
        let mut m = machine();
        let cfg = BwThreadCfg {
            n_buffers: 2,
            buffer_bytes: 4096,
            mlp: 4,
            iterations: Some(3),
        };
        let mut t = BwThread::new(&mut m, &cfg);
        let lines = 4096 / 64;
        let stride = LARGE_PRIME % lines;
        // Round 0: buffer 0 then buffer 1 at offset 0.
        let l0 = t.next_op();
        let s0 = t.next_op();
        match (l0, s0) {
            (Op::Load(a), Op::Store(b)) => assert_eq!(a, b),
            other => panic!("expected load/store pair, got {other:?}"),
        }
        let l1 = t.next_op();
        let _s1 = t.next_op();
        // Round 1: offset advanced by the reduced prime stride (64 lines
        // is a power of two and the prime is odd, so no coprime fixup).
        let l2 = t.next_op();
        if let (Op::Load(a0), Op::Load(a2)) = (l0, l2) {
            assert_eq!(a2 - a0, stride * 64);
        } else {
            panic!("unexpected ops {l0:?} {l1:?}");
        }
    }

    #[test]
    fn next_batch_matches_next_op() {
        let cfg = BwThreadCfg {
            n_buffers: 3,
            buffer_bytes: 4096,
            mlp: 4,
            iterations: Some(5),
        };
        let mut serial_src = BwThread::new(&mut machine(), &cfg);
        let mut serial = Vec::new();
        loop {
            let op = serial_src.next_op();
            serial.push(op);
            if op == Op::Done {
                break;
            }
        }
        for batch_size in [1, 3, 7, 256] {
            let mut t = BwThread::new(&mut machine(), &cfg);
            let mut ops = Vec::new();
            while ops.last() != Some(&Op::Done) {
                let before = ops.len();
                t.next_batch(&mut ops, batch_size);
                assert!(ops.len() - before <= batch_size);
            }
            assert_eq!(ops, serial, "batch_size={batch_size}");
        }
    }

    #[test]
    fn finite_thread_terminates_after_iterations() {
        let mut m = machine();
        let cfg = BwThreadCfg {
            n_buffers: 4,
            buffer_bytes: 4096,
            mlp: 2,
            iterations: Some(10),
        };
        let t = BwThread::new(&mut m, &cfg);
        let r = m.run(
            vec![Job::primary(Box::new(t), CoreId::new(0, 0))],
            RunLimit::default(),
        );
        let c = &r.jobs[0].counters;
        assert!(r.jobs[0].done);
        // 10 iterations × 4 buffers = 40 load/store pairs.
        assert_eq!(c.loads, 40);
        assert_eq!(c.stores, 40);
    }

    #[test]
    fn nearly_every_access_misses_the_l3() {
        // Footprint ≈ 1.15× L3: after warm-up, accesses must miss the L3
        // almost always (that is BWThr's defining property).
        let mut m = machine();
        let cfg = BwThreadCfg {
            iterations: Some(4000),
            ..BwThreadCfg::for_machine(m.cfg())
        };
        let t = BwThread::new(&mut m, &cfg);
        let r = m.run(
            vec![Job::primary(Box::new(t), CoreId::new(0, 0))],
            RunLimit::default(),
        );
        let c = &r.jobs[0].counters;
        // Alone, BWThr's 1.15×L3 footprint misses on roughly half its
        // accesses (the L3 inserts its fills at MRU, and its own lines
        // are their only competition); under any co-runner the rate
        // rises sharply (see calibrate::bwthrs_saturate_the_channel).
        assert!(
            c.l3_miss_rate() > 0.45,
            "BWThr L3 miss rate {:.3} too low",
            c.l3_miss_rate()
        );
        // Every L2 access misses: the prime stride never revisits a line
        // within the private caches' reach.
        assert!(c.l2_miss_rate() > 0.95, "l2 mr {:.3}", c.l2_miss_rate());
    }

    #[test]
    fn footprint_scales_with_machine() {
        let full = BwThreadCfg::for_machine(&MachineConfig::xeon20mb());
        let eighth = BwThreadCfg::for_machine(&MachineConfig::xeon20mb().scaled(0.125));
        assert_eq!(full.buffer_bytes, 520 << 10);
        assert!(eighth.footprint() < full.footprint() / 6);
        // Still exceeds the scaled L3.
        let l3 = MachineConfig::xeon20mb().scaled(0.125).l3.size_bytes;
        assert!(eighth.footprint() as f64 > 1.05 * l3 as f64);
    }
}
