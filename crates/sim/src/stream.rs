//! Instruction streams: the interface between workloads and the engine.
//!
//! A workload is anything implementing [`AccessStream`]: it is asked for one
//! [`Op`] at a time and is free to keep arbitrary internal state (RNGs,
//! phase machines, queues). The engine never looks at data values — only at
//! addresses and compute durations — which is all the paper's measurements
//! depend on.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Batch size used by the engine's per-lane op buffers: large enough to
/// amortize the per-batch virtual dispatch and channel hop, small enough
/// that the buffered lookahead stays cache-resident.
pub const OP_BATCH: usize = 256;

/// One operation of a simulated instruction stream.
///
/// Serde participates in the conformance tooling: fuzzer reproducers and
/// golden traces are JSON arrays of ops, replayable across sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Load from a byte address. May overlap with other loads up to the
    /// stream's MLP budget.
    Load(u64),
    /// Store to a byte address. Retires through a store buffer: the cache
    /// and channel see it, the core does not stall.
    Store(u64),
    /// Pure computation for the given number of cycles. Acts as a data
    /// dependency: all outstanding loads must complete first.
    Compute(u32),
    /// Cross-node transfer of `bytes` (MPI-style message). Costs network
    /// latency + wire time and charges DMA traffic to the local socket's
    /// memory channel.
    RemoteXfer(u32),
    /// BSP barrier: park until every other primary stream reaches its
    /// barrier, then all resume together at the maximum arrival time.
    Barrier,
    /// Snapshot this core's counters (like resetting a PMU between a
    /// warm-up and a measurement phase). Snapshots appear in the job's
    /// report in emission order; subtract to get per-phase counts.
    Mark,
    /// The stream is finished.
    Done,
}

/// A workload that runs on one simulated core.
///
/// Streams must be `Send` so experiment drivers can run independent
/// simulations on a thread pool (the simulator itself is single-threaded).
pub trait AccessStream: Send {
    /// Produce the next operation.
    fn next_op(&mut self) -> Op;

    /// Append up to `max` operations to `out`, stopping early after a
    /// [`Op::Done`]. This is the engine's hot-path entry point: one
    /// (possibly virtual) call per batch instead of per op, with the
    /// generator's state machine running in a tight monomorphized loop.
    ///
    /// The default implementation delegates to [`AccessStream::next_op`]
    /// and MUST produce the identical op sequence to repeated `next_op`
    /// calls — overrides must preserve that equivalence, since measurement
    /// identity (executor cache keys, figure CSVs) depends on it.
    fn next_batch(&mut self, out: &mut Vec<Op>, max: usize) {
        for _ in 0..max {
            let op = self.next_op();
            out.push(op);
            if matches!(op, Op::Done) {
                break;
            }
        }
    }

    /// Memory-level parallelism: how many loads this stream may have in
    /// flight at once. Models the out-of-order window / the multi-buffer
    /// trick BWThr uses (Fig. 2 issues accesses to 44 buffers so the
    /// hardware can overlap misses).
    fn mlp(&self) -> u8 {
        1
    }

    /// Display label for reports.
    fn label(&self) -> &str {
        "stream"
    }

    /// Insertion-policy hint for lines this stream fills into the shared
    /// LLC. `None` uses the cache's configured policy. No shipped stream
    /// returns anything else: BWThr and STREAM fill the Xeon20MB L3 at
    /// its configured MRU position like every other stream, so their
    /// fills do displace reused working sets. Only the conformance
    /// fuzzer's probation lanes return `Some(InsertPolicy::Lru)`.
    fn llc_insert_hint(&self) -> Option<crate::cache::InsertPolicy> {
        None
    }
}

impl AccessStream for Box<dyn AccessStream> {
    fn next_op(&mut self) -> Op {
        (**self).next_op()
    }
    fn next_batch(&mut self, out: &mut Vec<Op>, max: usize) {
        (**self).next_batch(out, max)
    }
    fn mlp(&self) -> u8 {
        (**self).mlp()
    }
    fn label(&self) -> &str {
        (**self).label()
    }
    fn llc_insert_hint(&self) -> Option<crate::cache::InsertPolicy> {
        (**self).llc_insert_hint()
    }
}

/// Helper for phase-structured workloads (the mini-apps): generate a batch
/// of ops per phase into a queue, pop them one at a time.
#[derive(Debug, Default)]
pub struct OpQueue {
    q: VecDeque<Op>,
}

impl OpQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued ops.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    pub fn push(&mut self, op: Op) {
        self.q.push_back(op);
    }

    pub fn pop(&mut self) -> Option<Op> {
        self.q.pop_front()
    }

    /// Emit loads covering `bytes` starting at `base`, one per cache line,
    /// in ascending address order (a streaming read).
    pub fn stream_read(&mut self, base: u64, bytes: u64, line: u32) {
        let mut a = base;
        let end = base + bytes;
        while a < end {
            self.q.push_back(Op::Load(a));
            a += line as u64;
        }
    }

    /// Emit a memcpy: per line, a load from `src` and a store to `dst`.
    /// This is how same-socket MPI communication appears to the memory
    /// system (the message body moves through the shared L3).
    pub fn memcpy(&mut self, dst: u64, src: u64, bytes: u64, line: u32) {
        let n = bytes.div_ceil(line as u64);
        for i in 0..n {
            self.q.push_back(Op::Load(src + i * line as u64));
            self.q.push_back(Op::Store(dst + i * line as u64));
        }
    }
}

/// A trivial finite stream for tests: performs a fixed list of ops.
pub struct ScriptStream {
    ops: std::vec::IntoIter<Op>,
    mlp: u8,
    label: String,
}

impl ScriptStream {
    pub fn new(ops: Vec<Op>) -> Self {
        Self {
            ops: ops.into_iter(),
            mlp: 1,
            label: "script".to_string(),
        }
    }

    pub fn with_mlp(mut self, mlp: u8) -> Self {
        self.mlp = mlp;
        self
    }

    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

impl AccessStream for ScriptStream {
    fn next_op(&mut self) -> Op {
        self.ops.next().unwrap_or(Op::Done)
    }
    fn next_batch(&mut self, out: &mut Vec<Op>, max: usize) {
        for _ in 0..max {
            let op = self.ops.next().unwrap_or(Op::Done);
            out.push(op);
            if matches!(op, Op::Done) {
                break;
            }
        }
    }
    fn mlp(&self) -> u8 {
        self.mlp
    }
    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_stream_replays_then_done() {
        let mut s = ScriptStream::new(vec![Op::Load(64), Op::Compute(3)]);
        assert_eq!(s.next_op(), Op::Load(64));
        assert_eq!(s.next_op(), Op::Compute(3));
        assert_eq!(s.next_op(), Op::Done);
        assert_eq!(s.next_op(), Op::Done);
    }

    #[test]
    fn opqueue_stream_read_covers_lines() {
        let mut q = OpQueue::new();
        q.stream_read(0, 256, 64);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some(Op::Load(0)));
        assert_eq!(q.pop(), Some(Op::Load(64)));
    }

    #[test]
    fn opqueue_memcpy_interleaves() {
        let mut q = OpQueue::new();
        q.memcpy(1000, 2000, 100, 64); // 2 lines
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some(Op::Load(2000)));
        assert_eq!(q.pop(), Some(Op::Store(1000)));
        assert_eq!(q.pop(), Some(Op::Load(2064)));
        assert_eq!(q.pop(), Some(Op::Store(1064)));
    }

    #[test]
    fn next_batch_matches_next_op_sequence() {
        let ops = vec![
            Op::Load(0),
            Op::Compute(2),
            Op::Store(64),
            Op::Mark,
            Op::Load(128),
        ];
        let mut a = ScriptStream::new(ops.clone());
        let mut b = ScriptStream::new(ops);
        let mut batched = Vec::new();
        while batched.last() != Some(&Op::Done) {
            b.next_batch(&mut batched, 2);
        }
        let mut serial = Vec::new();
        loop {
            let op = a.next_op();
            serial.push(op);
            if op == Op::Done {
                break;
            }
        }
        assert_eq!(batched, serial);
    }

    #[test]
    fn next_batch_stops_at_done() {
        let mut s = ScriptStream::new(vec![Op::Load(0)]);
        let mut out = Vec::new();
        s.next_batch(&mut out, 100);
        assert_eq!(out, vec![Op::Load(0), Op::Done]);
    }

    #[test]
    fn boxed_stream_delegates() {
        let s: Box<dyn AccessStream> = Box::new(
            ScriptStream::new(vec![Op::Done])
                .with_mlp(7)
                .with_label("x"),
        );
        let mut b = s;
        assert_eq!(b.mlp(), 7);
        assert_eq!(b.label(), "x");
        assert_eq!(b.next_op(), Op::Done);
    }
}
