//! Finite-bandwidth DRAM channel with queueing.
//!
//! Each socket owns one channel. Every line transferred between the L3 and
//! memory — demand fills, prefetches, write-backs, NIC DMA — occupies the
//! channel for `line_bytes / bytes_per_cycle` cycles. Requests that arrive
//! while the channel is busy queue behind it; the resulting extra latency is
//! the *bandwidth contention* that the paper's BWThr manufactures and that
//! its Eq. 1 measures. Nothing else in the simulator throttles bandwidth,
//! so measured GB/s emerges purely from this serialization.

use amem_metrics::HistogramSnapshot;
use serde::{Deserialize, Serialize};

/// Per-channel transfer statistics (the "uncore counters").
#[derive(Debug, Default, Clone, Copy, Serialize, Deserialize)]
pub struct DramStats {
    /// Demand lines read from DRAM (L3 misses).
    pub demand_lines: u64,
    /// Prefetched lines read from DRAM.
    pub prefetch_lines: u64,
    /// Dirty lines written back to DRAM.
    pub writeback_lines: u64,
    /// NIC DMA bytes (cross-node communication through this socket).
    pub dma_bytes: u64,
    /// Total cycles the channel spent busy.
    pub busy_cycles: u64,
}

impl DramStats {
    /// All bytes moved over the channel.
    pub fn total_bytes(&self, line_bytes: u32) -> u64 {
        (self.demand_lines + self.prefetch_lines + self.writeback_lines) * line_bytes as u64
            + self.dma_bytes
    }
}

/// One memory channel.
#[derive(Debug, Clone)]
pub struct DramChannel {
    /// Channel service rate.
    bytes_per_cycle: f64,
    /// Cycles to move one cache line.
    service_per_line: f64,
    line_bytes: u32,
    /// Time at which the channel next becomes free.
    next_free: f64,
    stats: DramStats,
    /// Histogram of per-demand queue+transfer delay; `None` (the default)
    /// costs one branch per demand and records nothing.
    queue_hist: Option<HistogramSnapshot>,
}

impl DramChannel {
    pub fn new(bytes_per_cycle: f64, line_bytes: u32) -> Self {
        assert!(bytes_per_cycle > 0.0);
        Self {
            bytes_per_cycle,
            service_per_line: line_bytes as f64 / bytes_per_cycle,
            line_bytes,
            next_free: 0.0,
            stats: DramStats::default(),
            queue_hist: None,
        }
    }

    /// Start recording the queue+transfer delay of every demand read into
    /// a [`HistogramSnapshot`]. Observation-only: timing is unaffected.
    pub fn enable_queue_histogram(&mut self) {
        self.queue_hist = Some(HistogramSnapshot::default());
    }

    /// The demand queue-delay histogram, if enabled.
    pub fn queue_histogram(&self) -> Option<&HistogramSnapshot> {
        self.queue_hist.as_ref()
    }

    /// Occupy the channel for `bytes` starting no earlier than `at`.
    /// Returns the delay (cycles beyond `at`) until the transfer completes.
    #[inline]
    fn occupy(&mut self, at: u64, bytes: u64) -> u64 {
        let service = bytes as f64 / self.bytes_per_cycle;
        let start = self.next_free.max(at as f64);
        self.next_free = start + service;
        self.stats.busy_cycles += service as u64;
        (self.next_free - at as f64).ceil() as u64
    }

    /// A demand line read (an L3 miss). Returns the queue+transfer delay;
    /// the caller adds the fixed DRAM latency.
    #[inline]
    pub fn demand(&mut self, at: u64) -> u64 {
        self.stats.demand_lines += 1;
        let delay = self.occupy(at, self.line_bytes as u64);
        if let Some(h) = self.queue_hist.as_mut() {
            h.record(delay);
        }
        delay
    }

    /// A prefetch line read. Occupies the channel; the core never stalls.
    #[inline]
    pub fn prefetch_fetch(&mut self, at: u64) {
        self.stats.prefetch_lines += 1;
        self.occupy(at, self.line_bytes as u64);
    }

    /// A dirty write-back. Occupies the channel; the core never stalls.
    #[inline]
    pub fn writeback(&mut self, at: u64) {
        self.stats.writeback_lines += 1;
        self.occupy(at, self.line_bytes as u64);
    }

    /// NIC DMA traffic for cross-node communication: both the sending and
    /// receiving socket pay memory bandwidth for the message body.
    #[inline]
    pub fn dma(&mut self, at: u64, bytes: u64) -> u64 {
        self.stats.dma_bytes += bytes;
        self.occupy(at, bytes)
    }

    /// How far ahead of `now` the channel is booked, in cycles. The
    /// prefetcher uses this to throttle itself when the channel saturates
    /// (real prefetchers do the same).
    #[inline]
    pub fn backlog(&self, now: u64) -> f64 {
        (self.next_free - now as f64).max(0.0)
    }

    /// Cycles to transfer a single line on an idle channel.
    #[inline]
    pub fn service_per_line(&self) -> f64 {
        self.service_per_line
    }

    pub fn stats(&self) -> DramStats {
        self.stats
    }

    #[inline]
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }
}

/// Bandwidth-throttle setting for one core: a token bucket on DRAM lines.
///
/// `lines_per_kilocycle` is the sustained refill rate; `burst_lines` is
/// the bucket depth. Like the engine's resource controller, the throttle
/// is an execution-time knob only — it never appears in [`crate::canonical_json`]
/// cache keys, because results obtained under a throttle are not
/// substitutable for unthrottled ones and the executor is never asked to
/// cache them (QoS runs go through [`crate::machine::Machine`] directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThrottleCfg {
    /// Sustained rate: DRAM lines this core may fetch per 1000 cycles.
    pub lines_per_kilocycle: u32,
    /// Bucket depth: lines that may be issued back-to-back from a full
    /// bucket before the sustained rate binds.
    pub burst_lines: u32,
}

impl ThrottleCfg {
    /// The hardest setting the controller uses: ~1 line per 4000 cycles.
    /// Used to silence co-runners during an estimator "alone epoch".
    pub fn stall() -> Self {
        Self {
            lines_per_kilocycle: 1,
            burst_lines: 1,
        }
    }
}

/// Token-bucket rate limiter on DRAM line fetches, in pure integer
/// arithmetic so identical schedules always yield identical waits.
///
/// Internally one line costs `LINE_COST` credit units and the bucket
/// gains `lines_per_kilocycle` units per cycle (= `lines_per_kilocycle`
/// lines per kilocycle), capped at `burst_lines * LINE_COST`.
#[derive(Debug, Clone)]
pub struct LineThrottle {
    cfg: ThrottleCfg,
    /// Credit units per cycle.
    rate: u64,
    /// Credit cap in units.
    cap: u64,
    credit: u64,
    last: u64,
}

/// Credit units per line (the kilocycle scale).
const LINE_COST: u64 = 1000;

impl LineThrottle {
    pub fn new(cfg: ThrottleCfg) -> Self {
        assert!(cfg.lines_per_kilocycle > 0, "rate must be positive");
        assert!(cfg.burst_lines > 0, "burst must be positive");
        let cap = cfg.burst_lines as u64 * LINE_COST;
        Self {
            cfg,
            rate: cfg.lines_per_kilocycle as u64,
            cap,
            credit: cap, // a fresh bucket starts full
            last: 0,
        }
    }

    /// The setting this throttle was built from (so actuators can skip
    /// rebuilding — and thus refilling — an unchanged bucket).
    pub fn cfg(&self) -> ThrottleCfg {
        self.cfg
    }

    #[inline]
    fn refill(&mut self, now: u64) {
        if now > self.last {
            let gained = (now - self.last).saturating_mul(self.rate);
            self.credit = self.cap.min(self.credit.saturating_add(gained));
            self.last = now;
        }
    }

    /// Acquire one line of credit at time `now`, waiting if the bucket is
    /// empty. Returns the wait in cycles before the fetch may issue.
    #[inline]
    pub fn acquire(&mut self, now: u64) -> u64 {
        self.refill(now);
        if self.credit >= LINE_COST {
            self.credit -= LINE_COST;
            return 0;
        }
        let deficit = LINE_COST - self.credit;
        let wait = deficit.div_ceil(self.rate);
        // Credit state as of `now + wait`, minus the line just granted.
        self.credit = self
            .cap
            .min(self.credit + wait * self.rate)
            .saturating_sub(LINE_COST);
        self.last = now + wait;
        wait
    }

    /// Take one line of credit at `now` only if immediately available.
    /// Used for prefetches, which are dropped rather than delayed.
    #[inline]
    pub fn try_acquire(&mut self, now: u64) -> bool {
        self.refill(now);
        if self.credit >= LINE_COST {
            self.credit -= LINE_COST;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_channel_delay_is_service_time() {
        let mut ch = DramChannel::new(8.0, 64);
        // 64 bytes at 8 B/cyc = 8 cycles.
        assert_eq!(ch.demand(100), 8);
        assert_eq!(ch.stats().demand_lines, 1);
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut ch = DramChannel::new(8.0, 64);
        assert_eq!(ch.demand(0), 8);
        // Second request at t=0 queues behind the first: 16 cycles total.
        assert_eq!(ch.demand(0), 16);
        assert_eq!(ch.demand(0), 24);
    }

    #[test]
    fn spaced_requests_do_not_queue() {
        let mut ch = DramChannel::new(8.0, 64);
        assert_eq!(ch.demand(0), 8);
        assert_eq!(ch.demand(1000), 8);
    }

    #[test]
    fn writeback_and_prefetch_occupy_channel() {
        let mut ch = DramChannel::new(8.0, 64);
        ch.writeback(0);
        ch.prefetch_fetch(0);
        // A demand read at t=0 now waits behind 16 cycles of traffic.
        assert_eq!(ch.demand(0), 24);
        let s = ch.stats();
        assert_eq!(s.writeback_lines, 1);
        assert_eq!(s.prefetch_lines, 1);
        assert_eq!(s.total_bytes(64), 3 * 64);
    }

    #[test]
    fn dma_charges_bytes() {
        let mut ch = DramChannel::new(8.0, 64);
        let d = ch.dma(0, 800);
        assert_eq!(d, 100);
        assert_eq!(ch.stats().dma_bytes, 800);
    }

    #[test]
    fn backlog_reflects_booking() {
        let mut ch = DramChannel::new(8.0, 64);
        assert_eq!(ch.backlog(0), 0.0);
        ch.demand(0);
        assert!(ch.backlog(0) >= 8.0);
        assert_eq!(ch.backlog(1_000_000), 0.0);
    }

    #[test]
    fn queue_histogram_records_demand_delays_only_when_enabled() {
        let mut ch = DramChannel::new(8.0, 64);
        ch.demand(0);
        assert!(ch.queue_histogram().is_none());
        ch.enable_queue_histogram();
        ch.demand(1000); // idle: 8 cycles
        ch.demand(1000); // queued: 16 cycles
        let h = ch.queue_histogram().unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 24);
        assert_eq!(h.max, 16);
    }

    #[test]
    fn histogram_does_not_change_timing() {
        let mut plain = DramChannel::new(8.0, 64);
        let mut instrumented = DramChannel::new(8.0, 64);
        instrumented.enable_queue_histogram();
        for t in [0u64, 0, 3, 500, 501, 502] {
            assert_eq!(plain.demand(t), instrumented.demand(t));
        }
    }

    #[test]
    fn sustained_throughput_matches_rate() {
        // Saturate the channel: n requests all arriving at t=0 queue up;
        // the last one completes after exactly n * 64 / 7 cycles (modulo
        // the final ceil), so the effective rate equals the configured one.
        let mut ch = DramChannel::new(7.0, 64);
        let n = 10_000u64;
        let mut last = 0;
        for _ in 0..n {
            last = ch.demand(0);
        }
        let eff = (n * 64) as f64 / last as f64;
        assert!((eff - 7.0).abs() < 0.01, "effective rate {eff}");
    }

    #[test]
    fn throttle_burst_then_sustained_rate() {
        let mut th = LineThrottle::new(ThrottleCfg {
            lines_per_kilocycle: 100, // one line per 10 cycles
            burst_lines: 4,
        });
        // The full bucket covers the first four lines for free.
        for _ in 0..4 {
            assert_eq!(th.acquire(0), 0);
        }
        // Then each line waits 10 cycles of refill.
        assert_eq!(th.acquire(0), 10);
        assert_eq!(th.acquire(10), 10);
    }

    #[test]
    fn throttle_idle_time_refills_up_to_burst() {
        let mut th = LineThrottle::new(ThrottleCfg {
            lines_per_kilocycle: 100,
            burst_lines: 2,
        });
        assert_eq!(th.acquire(0), 0);
        assert_eq!(th.acquire(0), 0);
        assert_eq!(th.acquire(0), 10);
        // A long idle gap refills to the cap, never beyond it.
        for _ in 0..2 {
            assert_eq!(th.acquire(1_000_000), 0);
        }
        assert_eq!(th.acquire(1_000_000), 10);
    }

    #[test]
    fn throttle_try_acquire_never_waits() {
        let mut th = LineThrottle::new(ThrottleCfg {
            lines_per_kilocycle: 1,
            burst_lines: 1,
        });
        assert!(th.try_acquire(0));
        assert!(!th.try_acquire(0));
        assert!(!th.try_acquire(500));
        assert!(th.try_acquire(1000));
    }

    #[test]
    fn throttle_never_exceeds_budget() {
        // Over any horizon [0, T], the granted lines are bounded by
        // burst + T * rate / 1000 (+1 for the partial refill interval).
        let cfg = ThrottleCfg {
            lines_per_kilocycle: 37,
            burst_lines: 5,
        };
        let mut th = LineThrottle::new(cfg);
        let mut issued: Vec<u64> = Vec::new();
        let mut now = 0u64;
        for i in 0..5000u64 {
            // An adversarial mixed schedule with idle gaps.
            if i % 97 == 0 {
                now += 4000;
            }
            let w = th.acquire(now);
            issued.push(now + w);
            now += w;
        }
        for (k, &t) in issued.iter().enumerate() {
            let budget = cfg.burst_lines as u64 + (t * cfg.lines_per_kilocycle as u64) / 1000 + 1;
            assert!(
                (k as u64) < budget,
                "line {k} issued at {t} exceeds budget {budget}"
            );
        }
    }
}
