//! The execution engine: interleaves per-core instruction streams over the
//! shared memory hierarchy.
//!
//! Single-threaded and deterministic. Each core has its own clock; the
//! engine always advances the core with the smallest clock (a linear
//! two-min scan over a per-core clock array, one ready slot per runnable
//! core, ties to the lowest index — core counts are ≤32, where a
//! branch-predictable scan beats a priority queue), in batches bounded
//! by a small quantum so cross-core interleaving through the shared L3
//! and DRAM channel stays causally accurate. A batch is one call of the
//! dispatch loop, which retires the core's ops until its clock reaches
//! the horizon: loads, stores and compute in the loop itself, buffer
//! refills and the rare ops out of line (see DESIGN.md §14). The engine
//! spawns no threads and reads no environment: each core's ops are
//! generated inline, on the thread that calls `run` (DESIGN.md §9).
//!
//! ## Timing model
//!
//! * A `Load` issues in 1 cycle and completes after the hit latency of the
//!   level that serves it (L1 4, L2 12, L3 38, DRAM 170 + channel queueing
//!   by default). Up to `mlp()` loads may be in flight per stream — this is
//!   how BWThr's 44-buffer trick (many independent accesses in the loop
//!   body) is expressed.
//! * A `Store` retires through a store buffer: caches and the channel see
//!   it, the core does not stall.
//! * `Compute(c)` is a data dependency: it waits for all outstanding loads,
//!   then burns `c` cycles.
//! * `Barrier` parks the core until every unfinished *primary* stream
//!   arrives, then all resume at the max arrival time plus a configurable
//!   overhead (this reproduces the noise amplification of bulk-synchronous
//!   parallel codes the paper discusses in §IV).
//! * `RemoteXfer(b)` models an off-node MPI message: network latency + wire
//!   time, with the body DMA'd through the local socket's memory channel.
//!
//! ## Hierarchy invariants
//!
//! The L3 is inclusive (configurable): an L3 eviction back-invalidates the
//! line from every private cache on the socket, and merged dirtiness is
//! written back. L1 ⊆ L2 is maintained the same way. Dirty evictions charge
//! write-back occupancy on the channel.

use amem_metrics::HistogramSnapshot;

use crate::cache::{Cache, Eviction, NO_LINK};
use crate::config::{CoreId, MachineConfig};
use crate::control::{Actuation, CoreView, EpochController, Knob};
use crate::counters::CoreCounters;
use crate::dram::{DramChannel, DramStats, LineThrottle};
use crate::prefetch::Prefetcher;
use crate::stream::{AccessStream, Op, OP_BATCH};
use crate::telemetry::{EventRing, Sampler, SpanEvent, Telemetry};
use crate::tlb::Tlb;

/// One core's buffered window of upcoming ops.
struct OpBuf {
    ops: Vec<Op>,
    pos: usize,
}

/// A stream placed on a core.
pub struct Job {
    pub stream: Box<dyn AccessStream>,
    pub core: CoreId,
    /// Primary jobs drive termination and participate in barriers;
    /// background jobs (interference threads) are stopped when the last
    /// primary finishes.
    pub primary: bool,
    /// Intel CAT-style allocation mask: this core's L3 fills may only
    /// allocate into ways whose bit is set. `u32::MAX` (default) means
    /// unrestricted. Lookups hit in any way regardless.
    pub l3_way_mask: u32,
}

impl Job {
    pub fn primary(stream: Box<dyn AccessStream>, core: CoreId) -> Self {
        Self {
            stream,
            core,
            primary: true,
            l3_way_mask: u32::MAX,
        }
    }

    pub fn background(stream: Box<dyn AccessStream>, core: CoreId) -> Self {
        Self {
            stream,
            core,
            primary: false,
            l3_way_mask: u32::MAX,
        }
    }

    /// Restrict this job's L3 allocations to the given ways (CAT). The
    /// mask must select at least one way of the machine's L3;
    /// [`Engine::new`] checks that against the config.
    pub fn with_l3_ways(mut self, mask: u32) -> Self {
        assert!(mask != 0, "way mask must allow at least one way");
        self.l3_way_mask = mask;
        self
    }
}

/// Run controls.
///
/// `Serialize` participates in the executor's content-addressed cache
/// key: any change to the run controls changes the measurement identity.
#[derive(Debug, Clone, Serialize)]
pub struct RunLimit {
    /// Hard stop: cores reaching this cycle count are halted.
    pub max_cycles: Option<u64>,
    /// Scheduling quantum in cycles (smaller = finer interleaving).
    pub quantum: u64,
    /// Extra cycles added when a barrier releases (collective overhead).
    pub barrier_overhead: u32,
    /// Line-number ranges `[lo, hi)` whose final L3 occupancy to report
    /// per socket (for validation: "how many of CSThr's lines are
    /// resident?"). Convert byte addresses to lines with `addr >> 6`.
    pub watch_ranges: Vec<(u64, u64)>,
    /// Sample every core's counters each time its clock crosses a multiple
    /// of this many cycles (`None` disables sampling). Sampling is
    /// observation-only: it never changes counters or timing.
    pub sample_interval: Option<u64>,
    /// Capacity of the span/instant event ring buffer (0 disables
    /// tracing). When full, the oldest events are dropped and counted.
    pub trace_capacity: usize,
}

impl Default for RunLimit {
    fn default() -> Self {
        Self {
            max_cycles: None,
            quantum: 200,
            barrier_overhead: 400,
            watch_ranges: Vec::new(),
            sample_interval: None,
            trace_capacity: 0,
        }
    }
}

impl RunLimit {
    pub fn cycles(max: u64) -> Self {
        Self {
            max_cycles: Some(max),
            ..Self::default()
        }
    }

    /// Enable periodic counter sampling every `interval` cycles.
    pub fn with_sampling(mut self, interval: u64) -> Self {
        assert!(interval > 0, "sampling interval must be positive");
        self.sample_interval = Some(interval);
        self
    }

    /// Enable span/instant tracing with a ring buffer of `capacity` events.
    pub fn with_tracing(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        self.trace_capacity = capacity;
        self
    }

    /// Whether any telemetry (sampling, tracing) is requested.
    pub fn telemetry_enabled(&self) -> bool {
        self.sample_interval.is_some() || self.trace_capacity > 0
    }
}

/// Outcome for one job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobReport {
    pub label: String,
    pub core: CoreId,
    pub primary: bool,
    /// Whether the stream returned `Done` (vs being stopped).
    pub done: bool,
    pub counters: CoreCounters,
    /// Counter snapshots taken at each `Op::Mark`, in emission order.
    pub marks: Vec<CoreCounters>,
}

impl JobReport {
    /// Counters accumulated *after* the last `Op::Mark` (the measurement
    /// phase of a warm-up/measure stream). Falls back to the full-run
    /// counters when no mark was emitted.
    pub fn after_last_mark(&self) -> CoreCounters {
        match self.marks.last() {
            Some(m) => self.counters.delta_since(m),
            None => self.counters,
        }
    }
}

use serde::{Deserialize, Serialize};

/// Outcome for one socket.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SocketReport {
    pub dram: DramStats,
    /// Final L3 occupancy in lines.
    pub l3_occupancy: u64,
    /// Final L3 occupancy restricted to each watched range.
    pub watched_occupancy: Vec<u64>,
}

/// Outcome of a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Cycle at which the last primary finished (or the stop limit).
    pub wall_cycles: u64,
    /// `wall_cycles` in seconds at the configured frequency.
    pub seconds: f64,
    pub jobs: Vec<JobReport>,
    pub sockets: Vec<SocketReport>,
    /// Samples, spans and histograms; present only when the run's
    /// [`RunLimit`] enabled sampling or tracing.
    pub telemetry: Option<Telemetry>,
}

impl RunReport {
    /// Report of the first primary job (convenience for single-workload
    /// experiments).
    pub fn primary(&self) -> &JobReport {
        self.jobs
            .iter()
            .find(|j| j.primary)
            .expect("run had no primary job")
    }

    /// Maximum finish time across primary jobs, in seconds.
    pub fn primary_seconds(&self, cfg: &MachineConfig) -> f64 {
        let c = self
            .jobs
            .iter()
            .filter(|j| j.primary)
            .map(|j| j.counters.cycles)
            .max()
            .unwrap_or(self.wall_cycles);
        cfg.seconds(c)
    }

    /// Aggregate counters over all primary jobs.
    pub fn primary_counters(&self) -> CoreCounters {
        let mut agg = CoreCounters::default();
        for j in self.jobs.iter().filter(|j| j.primary) {
            agg.merge(&j.counters);
        }
        agg
    }

    /// Flatten this run into its comparable event identity. The engine
    /// and the conformance crate's reference machine must produce equal
    /// signatures for the same jobs — the property its differential
    /// fuzzer asserts.
    pub fn event_signature(&self) -> EventSignature {
        EventSignature {
            wall_cycles: self.wall_cycles,
            jobs: self
                .jobs
                .iter()
                .map(|j| JobEvents {
                    label: j.label.clone(),
                    done: j.done,
                    counters: j.counters,
                    marks: j.marks.clone(),
                })
                .collect(),
            sockets: self
                .sockets
                .iter()
                .map(|s| SocketEvents {
                    demand_lines: s.dram.demand_lines,
                    prefetch_lines: s.dram.prefetch_lines,
                    writeback_lines: s.dram.writeback_lines,
                    dma_bytes: s.dram.dma_bytes,
                    l3_occupancy: s.l3_occupancy,
                })
                .collect(),
        }
    }
}

/// Per-job slice of an [`EventSignature`]: every counter the engine
/// maintains, including cycle counts (timing is a pure function of the
/// hit/miss/eviction decisions, so it must match too).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobEvents {
    pub label: String,
    pub done: bool,
    pub counters: CoreCounters,
    pub marks: Vec<CoreCounters>,
}

/// Per-socket slice of an [`EventSignature`]: memory-channel traffic and
/// final L3 occupancy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SocketEvents {
    pub demand_lines: u64,
    pub prefetch_lines: u64,
    pub writeback_lines: u64,
    pub dma_bytes: u64,
    pub l3_occupancy: u64,
}

/// The event-for-event identity of a run: wall cycles, every job's
/// counters and mark snapshots, and every socket's channel traffic.
/// `PartialEq` + serde make it both the fuzzer's comparison object and
/// the payload of golden-trace snapshot files.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventSignature {
    pub wall_cycles: u64,
    pub jobs: Vec<JobEvents>,
    pub sockets: Vec<SocketEvents>,
}

/// In-flight load completion times for one core (bounded by MLP).
#[derive(Debug, Clone)]
struct Outstanding {
    slots: [u64; 32],
    len: usize,
}

impl Outstanding {
    fn new() -> Self {
        Self {
            slots: [0; 32],
            len: 0,
        }
    }

    #[inline]
    fn push(&mut self, t: u64) {
        debug_assert!(self.len < 32);
        self.slots[self.len] = t;
        self.len += 1;
    }

    /// Remove and return the earliest completion.
    #[inline]
    fn pop_min(&mut self) -> u64 {
        debug_assert!(self.len > 0);
        let mut mi = 0;
        for i in 1..self.len {
            if self.slots[i] < self.slots[mi] {
                mi = i;
            }
        }
        let v = self.slots[mi];
        self.len -= 1;
        self.slots[mi] = self.slots[self.len];
        v
    }

    #[inline]
    fn max(&self) -> u64 {
        let mut m = 0;
        for i in 0..self.len {
            m = m.max(self.slots[i]);
        }
        m
    }

    #[inline]
    fn clear(&mut self) {
        self.len = 0;
    }
}

struct CoreState {
    time: u64,
    out: Outstanding,
    mlp: usize,
    /// Hoisted `cfg.socket_of(core)` — the access path would otherwise
    /// divide by `cores_per_socket` several times per op.
    sock: usize,
    /// This core's index within its socket (its sharer/presence bit).
    me: u32,
    job: Option<usize>,
    primary: bool,
    done: bool,
    /// True only when the stream itself returned `Done` (vs being stopped).
    finished: bool,
    parked: bool,
    barrier_arrival: u64,
    /// Start cycle of the current BSP phase (for span tracing).
    phase_start: u64,
    counters: CoreCounters,
    marks: Vec<CoreCounters>,
    llc_hint: Option<crate::cache::InsertPolicy>,
    l3_way_mask: u32,
    /// Mid-run bandwidth throttle, installed only by an [`EpochController`]
    /// actuation; `None` (the default and the only state reachable without
    /// a controller) adds a single branch on the demand-miss path.
    throttle: Option<LineThrottle>,
    tlb: Tlb,
    l1: Cache,
    l2: Cache,
    pf: Prefetcher,
}

struct SocketState {
    l3: Cache,
    dram: DramChannel,
}

/// One run of a set of jobs over a fresh (cold) memory hierarchy.
pub struct Engine<'a> {
    cfg: &'a MachineConfig,
    cores: Vec<CoreState>,
    sockets: Vec<SocketState>,
    streams: Vec<Option<Box<dyn AccessStream>>>,
    bufs: Vec<OpBuf>,
    /// Hoisted `cfg.tlb.is_enabled()`: skips the per-access translation
    /// call entirely on the (default) disabled configuration.
    tlb_on: bool,
    /// Cycles a dispatch is (wrongly) allowed past the quantum
    /// horizon. Always `0` in production; the conformance self-test
    /// plants `1` to prove the differential fuzzer catches exactly this
    /// class of bug (a shared access leaking across the horizon).
    horizon_leak: u64,
    /// Epoch-boundary resource controller (QoS). `None` — the default —
    /// leaves the scheduler loop structurally untouched.
    controller: Option<&'a mut dyn EpochController>,
    /// Sabotage for the conformance qos lane: when true, the first epoch
    /// boundary lands one whole epoch late (the classic `epoch` vs
    /// `epoch + 1` indexing slip). Always `false` in production.
    epoch_off_by_one: bool,

    labels: Vec<String>,
    job_meta: Vec<(CoreId, bool)>,

    // Observation-only telemetry; all None/empty unless the RunLimit asks.
    sampler: Option<Sampler>,
    ring: Option<EventRing>,
    /// Per-socket demand-miss latency histograms (with sampling enabled).
    demand_hist: Vec<HistogramSnapshot>,
}

/// Reject a CAT mask that selects none of the L3's ways where it first
/// meets the machine config — a full set would otherwise have no victim
/// to offer, many cycles into the run. A `u32` mask names ways 0..32 only,
/// so on a wider L3 the one mask accepted is the full `u32::MAX`.
fn check_l3_way_mask(cfg: &MachineConfig, core: usize, mask: u32) {
    let ways = cfg.l3.ways;
    assert!(
        mask & (u32::MAX >> 32u32.saturating_sub(ways)) != 0,
        "core {core}: L3 way mask {mask:#x} allows none of the {ways} ways"
    );
    assert!(
        ways <= 32 || mask == u32::MAX,
        "core {core}: L3 way mask {mask:#x} is partial on {ways} ways; a partial mask needs at most 32"
    );
}

impl<'a> Engine<'a> {
    pub fn new(cfg: &'a MachineConfig, jobs: Vec<Job>) -> Self {
        let n = cfg.total_cores();
        assert!(
            cfg.cores_per_socket <= 32,
            "sharer/presence masks hold at most 32 cores per socket"
        );
        // The engine and the reference machine take `addr >> 6` as the
        // line; any other line size would silently change the set count.
        for (level, c) in [("L1", &cfg.l1), ("L2", &cfg.l2), ("L3", &cfg.l3)] {
            assert!(
                c.line_bytes == 64,
                "{level}: {}-byte lines; the engine simulates 64-byte lines only",
                c.line_bytes
            );
        }
        for (what, bw) in [
            ("DRAM", cfg.dram_bytes_per_cycle),
            ("network", cfg.net.bytes_per_cycle),
        ] {
            assert!(
                bw.is_finite() && bw > 0.0,
                "{what} bandwidth must be finite and positive, got {bw} bytes/cycle"
            );
        }
        let mut cores: Vec<CoreState> = (0..n)
            .map(|i| CoreState {
                time: 0,
                out: Outstanding::new(),
                mlp: 1,
                sock: cfg.socket_of(i),
                me: (i % cfg.cores_per_socket as usize) as u32,
                job: None,
                primary: false,
                done: true, // idle cores are "done"
                finished: false,
                parked: false,
                barrier_arrival: 0,
                phase_start: 0,
                counters: CoreCounters::default(),
                marks: Vec::new(),
                llc_hint: None,
                l3_way_mask: u32::MAX,
                throttle: None,
                tlb: Tlb::new(cfg.tlb),
                l1: Cache::new(&cfg.l1).without_ownership(),
                l2: Cache::new(&cfg.l2).without_ownership(),
                pf: Prefetcher::new(cfg.prefetch, cfg.prefetch_degree),
            })
            .collect();
        let sockets: Vec<SocketState> = (0..cfg.sockets)
            .map(|_| SocketState {
                l3: Cache::new(&cfg.l3),
                dram: DramChannel::new(cfg.dram_bytes_per_cycle, cfg.l3.line_bytes),
            })
            .collect();
        let mut streams: Vec<Option<Box<dyn AccessStream>>> = (0..n).map(|_| None).collect();
        let mut labels = Vec::with_capacity(jobs.len());
        let mut job_meta = Vec::with_capacity(jobs.len());
        for (ji, job) in jobs.into_iter().enumerate() {
            let fc = job.core.flat(cfg);
            assert!(fc < n, "core {:?} out of range", job.core);
            assert!(
                streams[fc].is_none(),
                "two jobs placed on core {:?}",
                job.core
            );
            labels.push(job.stream.label().to_string());
            job_meta.push((job.core, job.primary));
            cores[fc].mlp = (job.stream.mlp() as usize).clamp(1, 32);
            cores[fc].llc_hint = job.stream.llc_insert_hint();
            check_l3_way_mask(cfg, fc, job.l3_way_mask);
            cores[fc].l3_way_mask = job.l3_way_mask;
            cores[fc].done = false;
            cores[fc].primary = job.primary;
            cores[fc].job = Some(ji);
            streams[fc] = Some(job.stream);
        }
        Self {
            cfg,
            cores,
            sockets,
            streams,
            bufs: (0..n)
                .map(|_| OpBuf {
                    ops: Vec::new(),
                    pos: 0,
                })
                .collect(),
            tlb_on: cfg.tlb.is_enabled(),
            horizon_leak: 0,
            controller: None,
            epoch_off_by_one: false,

            labels,
            job_meta,

            sampler: None,
            ring: None,
            demand_hist: Vec::new(),
        }
    }

    /// Sabotage for the conformance self-test: let every dispatch overrun
    /// the quantum horizon by one cycle — the off-by-one that
    /// would leak a shared access past the conservative boundary. The
    /// differential fuzzer must detect the resulting interleaving drift.
    #[doc(hidden)]
    pub fn with_horizon_leak(mut self) -> Self {
        self.horizon_leak = 1;
        self
    }

    /// Attach an epoch-boundary resource controller. The engine calls
    /// [`EpochController::on_epoch`] at deterministic points of the
    /// scheduler's pop order and applies the returned actuations before
    /// the next dispatch; the caller keeps the (mutably borrowed)
    /// controller, so estimator state and decision logs survive the run.
    ///
    /// The controller is execution-time state only: it is not part of
    /// [`RunLimit`] and never enters a cache key.
    pub fn with_controller(mut self, controller: &'a mut dyn EpochController) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Sabotage for the conformance qos self-test: plant the classic
    /// off-by-one in the epoch-boundary computation, so the first boundary
    /// fires one whole epoch late and every later boundary shifts with it.
    /// The controller-determinism lane must catch the resulting drift in
    /// decision logs and event signatures.
    #[doc(hidden)]
    pub fn with_epoch_off_by_one(mut self) -> Self {
        self.epoch_off_by_one = true;
        self
    }

    /// Execute until every primary stream is done (or limits trip).
    pub fn run(mut self, limit: &RunLimit) -> RunReport {
        if let Some(iv) = limit.sample_interval {
            self.sampler = Some(Sampler::new(
                iv,
                self.cores.len(),
                self.cfg.l3.line_bytes,
                self.cfg.freq_ghz,
            ));
            for s in &mut self.sockets {
                s.dram.enable_queue_histogram();
            }
            self.demand_hist = vec![HistogramSnapshot::default(); self.sockets.len()];
        }
        if limit.trace_capacity > 0 {
            self.ring = Some(EventRing::new(limit.trace_capacity));
        }
        let mut primaries_left = self.cores.iter().filter(|c| c.primary && !c.done).count();
        let had_primaries = primaries_left > 0;
        assert!(
            had_primaries || limit.max_cycles.is_some(),
            "a run with no primary jobs must set max_cycles"
        );
        // One ready slot per runnable core, holding that core's current
        // clock; `u64::MAX` for cores with nothing queued (done, parked,
        // or currently dispatched). Each round a linear two-min scan
        // picks the next core and the quantum horizon; with strict `<`
        // ties go to the lowest core index.
        let mut clock: Vec<u64> = self
            .cores
            .iter()
            .map(|c| if c.done { u64::MAX } else { 0 })
            .collect();
        let max_cycles = limit.max_cycles.unwrap_or(u64::MAX);
        // Epoch boundaries for the (optional) resource controller. The
        // first boundary is one epoch in; the sabotage hook shifts it one
        // epoch further to emulate the indexing off-by-one.
        let epoch_len = self.controller.as_ref().map(|c| c.epoch_cycles().max(1));
        let mut epoch_idx: u64 = 0;
        let mut next_epoch = match epoch_len {
            Some(e) => e.saturating_mul(1 + self.epoch_off_by_one as u64),
            None => u64::MAX,
        };
        loop {
            if had_primaries && primaries_left == 0 {
                // The finalize pass below stops the remaining
                // (background) cores where they stand.
                break;
            }
            // `t` is the selected core's clock, `t_next` the runner-up's.
            let (mut t, mut t_next, mut ci) = (u64::MAX, u64::MAX, usize::MAX);
            for (i, &c) in clock.iter().enumerate() {
                if c < t {
                    t_next = t;
                    t = c;
                    ci = i;
                } else if c < t_next {
                    t_next = c;
                }
            }
            if ci == usize::MAX {
                break; // every core done (or parked past the stop limit)
            }
            clock[ci] = u64::MAX;
            debug_assert_eq!(t, self.cores[ci].time);
            debug_assert!(!self.cores[ci].done && !self.cores[ci].parked);
            // Fire every epoch boundary the popped timestamp has crossed,
            // *before* dispatching the core — the snapshot/actuation point
            // is then a pure function of the (deterministic) pop order.
            if let Some(e) = epoch_len {
                while t >= next_epoch {
                    self.fire_epoch(epoch_idx, next_epoch);
                    epoch_idx += 1;
                    next_epoch = next_epoch.saturating_add(e);
                }
            }
            if t >= max_cycles {
                // All runnable cores are at or past the stop limit; halt
                // them where they stand (the popped core at its popped
                // timestamp, slotted cores at theirs).
                self.stop_core(ci, t);
                if self.cores[ci].primary && primaries_left > 0 {
                    primaries_left -= 1;
                }
                for (i, slot) in clock.iter_mut().enumerate() {
                    if *slot != u64::MAX {
                        self.stop_core(i, *slot);
                        if self.cores[i].primary && primaries_left > 0 {
                            primaries_left -= 1;
                        }
                        *slot = u64::MAX;
                    }
                }
                break;
            }
            // With a controller attached the dispatch horizon also stops
            // at the next epoch boundary, so epochs fire on time even when
            // a single runnable core would otherwise burst to the end of
            // the run (`next_epoch` is u64::MAX without a controller, so
            // the default path is untouched).
            let horizon = t_next.saturating_add(limit.quantum).min(next_epoch);
            let cap = horizon.min(max_cycles).saturating_add(self.horizon_leak);
            match self.dispatch(ci, cap, horizon) {
                StepOutcome::Running => {}
                StepOutcome::Finished => {
                    if self.cores[ci].primary {
                        primaries_left -= 1;
                    }
                    self.try_release_barrier(&mut clock, limit);
                }
                StepOutcome::Parked => self.try_release_barrier(&mut clock, limit),
            }
            // Re-arm the core at its new clock. This also covers a core
            // that released the barrier it just parked at: its clock is
            // the resume time `try_release_barrier` already wrote.
            let c = &self.cores[ci];
            if !c.done && !c.parked {
                clock[ci] = c.time;
            }
        }
        // Finalize any cores still running (e.g. stopped backgrounds).
        for i in 0..self.cores.len() {
            if !self.cores[i].done {
                let t = self.cores[i].time;
                self.stop_core(i, t);
            }
        }
        self.report(limit, max_cycles, had_primaries)
    }

    /// Snapshot every core, hand the snapshot to the controller, and apply
    /// the actuations it returns.
    fn fire_epoch(&mut self, epoch: u64, now: u64) {
        let views: Vec<CoreView> = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| CoreView {
                core: i,
                socket: c.sock,
                job: c.job,
                primary: c.primary,
                done: c.done,
                time: c.time,
                counters: c.counters,
                l3_way_mask: c.l3_way_mask,
                throttle: c.throttle.as_ref().map(|t| t.cfg()),
            })
            .collect();
        let ctl = self
            .controller
            .as_mut()
            .expect("epoch fired without a controller");
        let actions = ctl.on_epoch(epoch, now, &views);
        for Actuation { core, knob } in actions {
            assert!(core < self.cores.len(), "actuation on core {core}");
            let c = &mut self.cores[core];
            match knob {
                Knob::L3WayMask(mask) => {
                    check_l3_way_mask(self.cfg, core, mask);
                    c.l3_way_mask = mask;
                }
                // Retuning to the *same* setting keeps the bucket (and its
                // accumulated credit) rather than refilling it.
                Knob::Throttle(cfg) => match &c.throttle {
                    Some(t) if t.cfg() == cfg => {}
                    _ => c.throttle = Some(LineThrottle::new(cfg)),
                },
                Knob::Unthrottle => c.throttle = None,
            }
        }
    }

    fn stop_core(&mut self, ci: usize, t: u64) {
        let c = &mut self.cores[ci];
        if !c.done {
            c.time = c.time.max(t);
            c.counters.cycles = c.time;
            c.done = true;
        }
    }

    /// If every unfinished primary is parked at the barrier, release them:
    /// all resume at the latest arrival plus `barrier_overhead`, each
    /// re-armed in its (free, since parking vacated it) ready slot.
    fn try_release_barrier(&mut self, clock: &mut [u64], limit: &RunLimit) {
        let mut latest = None;
        for c in self.cores.iter().filter(|c| c.primary && !c.done) {
            if !c.parked {
                return; // someone is still computing
            }
            latest = latest.max(Some(c.barrier_arrival));
        }
        let Some(tmax) = latest else {
            return; // no primary left to release
        };
        let resume = tmax + limit.barrier_overhead as u64;
        let waiting = self.cores.iter_mut().enumerate();
        for (i, c) in waiting.filter(|(_, c)| c.primary && !c.done) {
            c.counters.barrier_cycles += resume - c.barrier_arrival;
            c.time = resume;
            c.parked = false;
            let arrival = c.barrier_arrival;
            c.phase_start = resume;
            if let Some(r) = self.ring.as_mut() {
                r.push(SpanEvent::span("barrier-wait", i, arrival, resume));
            }
            clock[i] = resume;
        }
    }

    /// Run core `ci` until its clock reaches `cap`, it parks at a
    /// barrier, or its stream ends. Loads, stores and compute — nearly
    /// every op of the paper's `buf[i]++` threads — are arms of the loop:
    /// a load probes the L1 here and walks a miss through the one
    /// out-of-line [`Self::mem_access_after_l1`]; a store goes through
    /// [`Self::retire_store`]. Buffer refills and the rare ops go through
    /// [`Self::slow_op`]. The sampler is checked after every op only when
    /// sampling is on.
    ///
    /// With a controller attached, a load whose MLP stall jumps the clock
    /// past `horizon` stays at the buffer cursor and issues in a later
    /// dispatch: issuing it now would book the shared DRAM channel at a
    /// future time and convoy cores whose clocks are still behind the
    /// booking. The jump is past `cap` too, so the turn ends there.
    fn dispatch(&mut self, ci: usize, cap: u64, horizon: u64) -> StepOutcome {
        let controlled = self.controller.is_some();
        let sampling = self.sampler.is_some();
        loop {
            let buf = &self.bufs[ci];
            match buf.ops.get(buf.pos) {
                Some(&Op::Load(addr)) => {
                    let c = &mut self.cores[ci];
                    if c.out.len >= c.mlp {
                        let free_at = c.out.pop_min();
                        if free_at > c.time {
                            c.counters.stall_cycles += free_at - c.time;
                            c.time = free_at;
                        }
                    }
                    if !(controlled && c.time > horizon) {
                        let now = c.time;
                        let line = addr >> 6;
                        let walk = if self.tlb_on {
                            self.tlb_access(ci, addr)
                        } else {
                            0
                        };
                        let lat = if self.cores[ci].l1.lookup(line, false) {
                            self.cores[ci].counters.l1_hits += 1;
                            self.cfg.l1.latency
                        } else {
                            self.cores[ci].counters.l1_misses += 1;
                            self.mem_access_after_l1(ci, line, false, now)
                        };
                        let c = &mut self.cores[ci];
                        c.out.push(now + walk as u64 + lat as u64);
                        c.time += 1;
                        c.counters.loads += 1;
                        self.bufs[ci].pos += 1;
                    }
                }
                Some(&Op::Store(addr)) => {
                    self.retire_store(ci, addr);
                    self.bufs[ci].pos += 1;
                }
                Some(&Op::Compute(cy)) => {
                    self.drain(ci);
                    let c = &mut self.cores[ci];
                    c.time += cy as u64;
                    c.counters.compute_cycles += cy as u64;
                    self.bufs[ci].pos += 1;
                }
                _ => match self.slow_op(ci) {
                    None => continue,
                    Some(StepOutcome::Running) => {}
                    Some(end) => {
                        if sampling {
                            self.sample_if_due(ci);
                        }
                        return end;
                    }
                },
            }
            if sampling {
                self.sample_if_due(ci);
            }
            if self.cores[ci].time >= cap {
                return StepOutcome::Running;
            }
        }
    }

    /// A store retires through the store buffer: the hierarchy and the
    /// channel see it (with the coherence it triggers), the core moves
    /// on after one issue cycle. Kept out of line: the dispatch loop with
    /// the store's L1 probe and coherence inlined ran slower (DESIGN.md
    /// §14).
    #[inline(never)]
    fn retire_store(&mut self, ci: usize, addr: u64) {
        let now = self.cores[ci].time;
        let line = addr >> 6;
        if self.tlb_on {
            self.tlb_access(ci, addr);
        }
        if self.cores[ci].l1.lookup(line, true) {
            self.cores[ci].counters.l1_hits += 1;
            // The hit left the L1's memo on the line: follow its up-links
            // L1 → L2 → L3 to the sharer word.
            let c = &self.cores[ci];
            let at = c.l2.up_link(c.l1.up_link(c.l1.memo(), line), line);
            self.coherence_store(ci, c.sock, line, at);
        } else {
            self.cores[ci].counters.l1_misses += 1;
            self.mem_access_after_l1(ci, line, true, now);
        }
        let c = &mut self.cores[ci];
        c.time += 1;
        c.counters.stores += 1;
    }

    /// The rare half of [`Self::dispatch`]: refill an exhausted op buffer
    /// from the core's own stream (`None`: it holds ops again; an empty
    /// refill ends the stream), or retire the remote transfer, mark,
    /// barrier or end at the cursor.
    #[inline(never)]
    fn slow_op(&mut self, ci: usize) -> Option<StepOutcome> {
        let buf = &mut self.bufs[ci];
        let op = match buf.ops.get(buf.pos) {
            Some(&op) => {
                buf.pos += 1;
                op
            }
            None => {
                buf.pos = 0;
                buf.ops.clear();
                self.streams[ci]
                    .as_mut()
                    .expect("active core must have a stream")
                    .next_batch(&mut buf.ops, OP_BATCH);
                if !buf.ops.is_empty() {
                    return None;
                }
                Op::Done
            }
        };
        self.drain(ci);
        let c = &mut self.cores[ci];
        match op {
            Op::RemoteXfer(bytes) => {
                let (now, s) = (c.time, c.sock);
                // NIC DMA occupies the local memory channel.
                let dma = self.sockets[s].dram.dma(now, bytes as u64);
                let wire = (bytes as f64 / self.cfg.net.bytes_per_cycle) as u64;
                let d = self.cfg.net.latency_cycles as u64 + wire.max(dma);
                let c = &mut self.cores[ci];
                c.time += d;
                c.counters.net_cycles += d;
            }
            Op::Mark => {
                let mut snap = c.counters;
                snap.cycles = c.time;
                c.marks.push(snap);
                if let Some(r) = self.ring.as_mut() {
                    r.push(SpanEvent::instant("mark", ci, snap.cycles));
                }
            }
            // Background streams must not barrier; treat as no-op to
            // keep runs deadlock-free.
            Op::Barrier if !c.primary => {}
            Op::Barrier => {
                c.parked = true;
                c.barrier_arrival = c.time;
                if let Some(r) = self.ring.as_mut() {
                    r.push(SpanEvent::span("phase", ci, c.phase_start, c.time));
                }
                return Some(StepOutcome::Parked);
            }
            Op::Done => {
                c.done = true;
                c.finished = true;
                c.counters.cycles = c.time;
                let (start, end) = (c.phase_start, c.time);
                if let Some(r) = self.ring.as_mut() {
                    if end > start {
                        r.push(SpanEvent::span("phase", ci, start, end));
                    }
                    r.push(SpanEvent::instant("done", ci, end));
                }
                return Some(StepOutcome::Finished);
            }
            Op::Load(_) | Op::Store(_) | Op::Compute(_) => unreachable!("dispatched inline"),
        }
        Some(StepOutcome::Running)
    }

    /// Take core `ci`'s next counter sample if its clock crossed an
    /// interval boundary.
    fn sample_if_due(&mut self, ci: usize) {
        if let Some(sm) = self.sampler.as_mut() {
            let c = &self.cores[ci];
            if sm.due(ci, c.time) {
                sm.sample(ci, c.time, &c.counters);
            }
        }
    }

    /// Translate through the core's TLB; returns page-walk cycles. Only
    /// reached under the hoisted `tlb_on`, so a zero walk is a hit.
    #[inline]
    fn tlb_access(&mut self, ci: usize, addr: u64) -> u32 {
        debug_assert!(self.tlb_on);
        let c = &mut self.cores[ci];
        let walk = c.tlb.access(addr);
        if walk > 0 {
            c.counters.tlb_misses += 1;
        } else {
            c.counters.tlb_hits += 1;
        }
        walk
    }

    /// Wait for all outstanding loads.
    fn drain(&mut self, ci: usize) {
        let c = &mut self.cores[ci];
        let m = c.out.max();
        if m > c.time {
            c.counters.stall_cycles += m - c.time;
            c.time = m;
        }
        c.out.clear();
    }

    /// MESI-style within-socket coherence on a store: invalidate every
    /// other sharer's private copies and claim exclusive ownership. The
    /// inclusive L3's sharer mask makes this a single lookup instead of a
    /// broadcast snoop. `at` is where the caller last saw the line in the
    /// L3 (an up-link or the L3's own memo; advisory). Returns extra
    /// latency (ownership upgrade).
    #[inline(always)]
    fn coherence_store(&mut self, ci: usize, s: usize, line: u64, at: u32) -> u32 {
        let me = self.cores[ci].me;
        let mask = self.sockets[s].l3.sharers_at(at, line);
        let others = mask & !(1u32 << me);
        if others == 0 {
            self.sockets[s].l3.set_exclusive_at(at, line, me);
            return 0;
        }
        let lo = s * self.cfg.cores_per_socket as usize;
        for c2 in 0..self.cfg.cores_per_socket as usize {
            if others & (1 << c2) != 0 {
                let idx = lo + c2;
                if let Some(d) = self.cores[idx].l2.invalidate(line) {
                    if d {
                        self.sockets[s].l3.mark_dirty(line);
                    }
                }
                if let Some(d) = self.cores[idx].l1.invalidate(line) {
                    if d {
                        self.sockets[s].l3.mark_dirty(line);
                    }
                }
                self.cores[idx].counters.coherence_invalidations += 1;
            }
        }
        self.sockets[s].l3.set_exclusive_at(at, line, me);
        self.cores[ci].counters.coherence_upgrades += 1;
        // Cross-core ownership transfer costs roughly an L3 round trip.
        self.cfg.l3.latency
    }

    /// A load's or store's walk of the hierarchy past a recorded L1 miss
    /// (the dispatch loop probes the L1 inline); updates caches,
    /// counters and the channel, and returns the latency. It is the one
    /// compiled body of the miss walk: the helpers below and the cache
    /// calls of the walk are `#[inline(always)]` into it, and it is
    /// deliberately not, so loads and stores share one copy (DESIGN.md
    /// §9, "One compiled demand walk").
    fn mem_access_after_l1(&mut self, ci: usize, line: u64, store: bool, now: u64) -> u32 {
        let s = self.cores[ci].sock;
        // L2
        if self.cores[ci].l2.lookup(line, false) {
            self.cores[ci].counters.l2_hits += 1;
            self.fill_l1(ci, line, store, now);
            return self.cfg.l2.latency;
        }
        self.cores[ci].counters.l2_misses += 1;
        // Train the prefetcher on demand L2 misses.
        let reqs = self.cores[ci].pf.observe(line);
        // L3
        let result = if self.sockets[s].l3.lookup(line, false) {
            self.cores[ci].counters.l3_hits += 1;
            self.fill_l2(ci, s, line, now);
            self.fill_l1(ci, line, store, now);
            let me = self.cores[ci].me;
            let mut lat = self.cfg.l3.latency;
            if store {
                // The L3's own memo is still on the line it just matched.
                lat += self.coherence_store(ci, s, line, NO_LINK);
            } else {
                self.sockets[s].l3.add_sharer(line, me);
            }
            lat
        } else {
            self.cores[ci].counters.l3_misses += 1;
            self.cores[ci].counters.dram_demand_lines += 1;
            let miss_at = now + self.cfg.l3.latency as u64;
            // A controller-installed token bucket gates this core's issue
            // rate; the wait is charged to this core's latency alone.
            let gate = match self.cores[ci].throttle.as_mut() {
                Some(th) => th.acquire(miss_at),
                None => 0,
            };
            // Book the channel at the ungated time: the gate stalls this
            // core's pipeline, not the channel, so a throttled core must
            // not push `next_free` into the future and convoy everyone
            // else behind its wait.
            let delay = self.sockets[s].dram.demand(miss_at);
            let hint = self.cores[ci].llc_hint;
            let mask = self.cores[ci].l3_way_mask;
            self.fill_l3_demand(ci, s, line, now, store, hint, mask);
            self.fill_l2_quiet(ci, s, line, now);
            self.fill_l1(ci, line, store, now);
            // Row access overlaps with queue drain: an uncontended miss
            // costs the fixed DRAM latency; under contention the channel
            // backlog dominates. Summing both would convoy bursty traffic
            // and cap throughput far below the channel rate.
            let lat = self.cfg.l3.latency
                + gate.min(u32::MAX as u64) as u32
                + self.cfg.dram_latency.max(delay as u32);
            if let Some(h) = self.demand_hist.get_mut(s) {
                h.record(lat as u64);
            }
            lat
        };
        for i in 0..reqs.n {
            self.issue_prefetch(ci, s, reqs.lines[i], now);
        }
        result
    }

    /// Install `line` in the L1, linked to its L2 entry (every caller has
    /// just matched or installed it there, so the L2's memo is on it). A
    /// dirty victim is marked in the L2 at the victim's own link.
    #[inline(always)]
    fn fill_l1(&mut self, ci: usize, line: u64, store: bool, now: u64) {
        let c = &mut self.cores[ci];
        let up = c.l2.memo();
        if let Some(ev) = c.l1.fill_linked(line, store, up) {
            if ev.dirty && !c.l2.mark_dirty_at(ev.link, ev.line) {
                let s = c.sock;
                if !self.sockets[s].l3.mark_dirty(ev.line) {
                    self.sockets[s].dram.writeback(now);
                }
            }
        }
    }

    #[inline(always)]
    fn fill_l2(&mut self, ci: usize, s: usize, line: u64, now: u64) {
        // Record which core pulled the line into its private hierarchy so
        // inclusive back-invalidation can probe only cores that ever held
        // it. Must cover every private fill, including prefetch fills that
        // bypass `add_sharer`.
        let me = self.cores[ci].me;
        self.sockets[s].l3.note_present(line, me);
        self.fill_l2_quiet(ci, s, line, now);
    }

    /// [`Self::fill_l2`] without the presence update: the demand path's
    /// fused L3 fill already recorded the requester's presence bit.
    ///
    /// Every caller has just matched or installed `line` in the L3, so
    /// the L3's memo is the line's up-link; a dirty victim is marked in
    /// the L3 at the victim's own link (stale under a non-inclusive L3
    /// once the L3 copy is replaced — then the compare fails, the scan
    /// finds nothing, and the line is written back, as before).
    #[inline(always)]
    fn fill_l2_quiet(&mut self, ci: usize, s: usize, line: u64, now: u64) {
        let up = self.sockets[s].l3.memo();
        if let Some(ev) = self.cores[ci].l2.fill_linked(line, false, up) {
            // Maintain L1 ⊆ L2.
            let d1 = self.cores[ci].l1.invalidate(ev.line);
            let dirty = ev.dirty || d1 == Some(true);
            if dirty && !self.sockets[s].l3.mark_dirty_at(ev.link, ev.line) {
                self.sockets[s].dram.writeback(now);
            }
        }
    }

    fn fill_l3(
        &mut self,
        s: usize,
        line: u64,
        now: u64,
        hint: Option<crate::cache::InsertPolicy>,
        way_mask: u32,
    ) {
        if let Some(ev) = self.sockets[s].l3.fill_masked(line, false, hint, way_mask) {
            self.l3_evicted(s, ev, now);
        }
    }

    /// Demand-miss L3 install: one fused cache call writes the line,
    /// the requester's presence bit and its sharer (load) or exclusive
    /// (store) bit at the entry the fill just placed; inclusive
    /// back-invalidation then runs off the returned eviction, exactly as
    /// in [`Self::fill_l3`].
    ///
    /// Equivalent to the legacy `fill_l3` + `note_present` (inside
    /// `fill_l2`) + trailing `add_sharer`/`set_exclusive` sequence: no
    /// operation between the fill and those old call sites reads or
    /// writes the *filled* line's L3 ownership state (back-invalidation
    /// and private-eviction handling only touch other lines), and a
    /// fresh fill clears the sharer mask, so `add_sharer`'s OR and
    /// `set_exclusive`'s overwrite land on the same value.
    #[allow(clippy::too_many_arguments)]
    fn fill_l3_demand(
        &mut self,
        ci: usize,
        s: usize,
        line: u64,
        now: u64,
        store: bool,
        hint: Option<crate::cache::InsertPolicy>,
        way_mask: u32,
    ) {
        let me = self.cores[ci].me;
        if let Some(ev) = self.sockets[s]
            .l3
            .fill_demand(line, store, hint, way_mask, me)
        {
            self.l3_evicted(s, ev, now);
        }
    }

    /// An L3 fill replaced `ev`: under inclusion, remove the line from the
    /// private caches below and write merged dirtiness back.
    #[inline(always)]
    fn l3_evicted(&mut self, s: usize, ev: Eviction, now: u64) {
        let mut dirty = ev.dirty;
        if self.cfg.inclusive_l3 {
            // Probe only cores whose presence bit is set: the mask is a
            // superset of current private holders (bits are only cleared
            // when the L3 slot turns over, and under inclusion the
            // private copies are removed right here when that happens),
            // so skipped cores provably hold nothing. Ascending core
            // order keeps counter/dirty updates byte-identical to a
            // full-socket scan.
            let lo = (s as u32 * self.cfg.cores_per_socket) as usize;
            let mut m = ev.present;
            while m != 0 {
                let c = &mut self.cores[lo + m.trailing_zeros() as usize];
                m &= m - 1;
                // L1 ⊆ L2 (every L1 fill follows an L2 match or fill of
                // the same line; every L2 removal takes the L1 copy with
                // it): only an L2 hit can have an L1 copy under it.
                if let Some(d) = c.l2.invalidate(ev.line) {
                    dirty |= d;
                    c.counters.back_invalidations += 1;
                    if let Some(d) = c.l1.invalidate(ev.line) {
                        dirty |= d;
                    }
                } else {
                    debug_assert!(!c.l1.contains(ev.line), "L1 copy without an L2 copy");
                }
            }
        }
        if dirty {
            self.sockets[s].dram.writeback(now);
        }
    }

    fn issue_prefetch(&mut self, ci: usize, s: usize, line: u64, now: u64) {
        self.cores[ci].counters.prefetches_issued += 1;
        if self.cores[ci].l2.contains(line) {
            return;
        }
        // A hit both answers the presence question and performs the
        // recency touch; a miss leaves only the (non-observable) miss
        // memo behind, which the `fill_l3` below consumes.
        if self.sockets[s].l3.lookup(line, false) {
            self.fill_l2(ci, s, line, now);
            return;
        }
        // Throttle under channel saturation (as hardware does).
        let backlog = self.sockets[s].dram.backlog(now);
        if backlog > 16.0 * self.sockets[s].dram.service_per_line() {
            self.cores[ci].counters.prefetches_dropped += 1;
            return;
        }
        // A token-bucket-limited core spends credit on prefetches too;
        // when the bucket is empty the prefetch is dropped, not delayed.
        if let Some(th) = self.cores[ci].throttle.as_mut() {
            if !th.try_acquire(now) {
                self.cores[ci].counters.prefetches_dropped += 1;
                return;
            }
        }
        self.sockets[s].dram.prefetch_fetch(now);
        self.cores[ci].counters.dram_prefetch_lines += 1;
        let hint = self.cores[ci].llc_hint;
        let mask = self.cores[ci].l3_way_mask;
        self.fill_l3(s, line, now, hint, mask);
        self.fill_l2(ci, s, line, now);
    }

    fn report(mut self, limit: &RunLimit, max_cycles: u64, had_primaries: bool) -> RunReport {
        // Close out each active core's final partial sample so per-slice
        // deltas sum exactly to the end-of-run counters.
        if let Some(mut sm) = self.sampler.take() {
            for (ci, c) in self.cores.iter().enumerate() {
                if c.job.is_some() {
                    sm.finalize(ci, c.counters.cycles, &c.counters);
                }
            }
            self.sampler = Some(sm);
        }
        let telemetry = if self.sampler.is_some() || self.ring.is_some() {
            let (events, dropped_events) = match self.ring.take() {
                Some(r) => r.into_parts(),
                None => (Vec::new(), 0),
            };
            let (sample_interval, samples) = match self.sampler.take() {
                Some(sm) => (sm.interval(), sm.into_samples()),
                None => (0, Vec::new()),
            };
            Some(Telemetry {
                sample_interval,
                samples,
                events,
                dropped_events,
                dram_queue_delay: self
                    .sockets
                    .iter()
                    .map(|s| s.dram.queue_histogram().cloned().unwrap_or_default())
                    .collect(),
                demand_latency: std::mem::take(&mut self.demand_hist),
            })
        } else {
            None
        };
        let wall = if had_primaries {
            self.cores
                .iter()
                .filter(|c| c.primary)
                .map(|c| c.counters.cycles)
                .max()
                .unwrap_or(0)
        } else {
            max_cycles
        };
        let mut jobs = Vec::with_capacity(self.labels.len());
        for (ji, label) in self.labels.iter().enumerate() {
            let (core, primary) = self.job_meta[ji];
            let fc = core.flat(self.cfg);
            let st = &self.cores[fc];
            jobs.push(JobReport {
                label: label.clone(),
                core,
                primary,
                done: st.job == Some(ji) && st.finished,
                counters: st.counters,
                marks: st.marks.clone(),
            });
        }
        let sockets = self
            .sockets
            .iter()
            .map(|s| SocketReport {
                dram: s.dram.stats(),
                l3_occupancy: s.l3.occupancy(),
                watched_occupancy: limit
                    .watch_ranges
                    .iter()
                    .map(|&(lo, hi)| s.l3.occupancy_in(lo, hi))
                    .collect(),
            })
            .collect();
        let report = RunReport {
            wall_cycles: wall,
            seconds: self.cfg.seconds(wall),
            jobs,
            sockets,
            telemetry,
        };
        // One flush per run, gated inside: the hot loop above carries no
        // instrumentation and the report itself is unchanged either way.
        crate::telemetry::publish_run_metrics(&report);
        report
    }
}

enum StepOutcome {
    Running,
    Finished,
    Parked,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::stream::{Op, ScriptStream};

    fn cfg() -> MachineConfig {
        MachineConfig::xeon20mb().scaled(0.125)
    }

    fn run_script(ops: Vec<Op>, mlp: u8) -> RunReport {
        let c = cfg();
        let jobs = vec![Job::primary(
            Box::new(ScriptStream::new(ops).with_mlp(mlp)),
            CoreId::new(0, 0),
        )];
        Engine::new(&c, jobs).run(&RunLimit::default())
    }

    #[test]
    fn single_load_costs_full_miss_path() {
        let r = run_script(vec![Op::Load(0x1000_0000), Op::Compute(0)], 1);
        let c = &r.jobs[0].counters;
        assert_eq!(c.loads, 1);
        assert_eq!(c.l1_misses, 1);
        assert_eq!(c.l2_misses, 1);
        assert_eq!(c.l3_misses, 1);
        assert_eq!(c.dram_demand_lines, 1);
        // latency = l3(38) + dram(170) + transfer(~10) plus 1 issue cycle.
        let m = cfg();
        let expected_min = (m.l3.latency + m.dram_latency) as u64;
        assert!(r.wall_cycles >= expected_min, "wall={}", r.wall_cycles);
        assert!(r.wall_cycles < expected_min + 40);
    }

    #[test]
    fn second_access_hits_l1() {
        let a = 0x1000_0000u64;
        let r = run_script(
            vec![Op::Load(a), Op::Compute(0), Op::Load(a), Op::Compute(0)],
            1,
        );
        let c = &r.jobs[0].counters;
        assert_eq!(c.l1_hits, 1);
        assert_eq!(c.l1_misses, 1);
    }

    #[test]
    fn same_line_different_word_hits() {
        let a = 0x1000_0000u64;
        let r = run_script(
            vec![Op::Load(a), Op::Compute(0), Op::Load(a + 8), Op::Compute(0)],
            1,
        );
        assert_eq!(r.jobs[0].counters.l1_hits, 1);
    }

    #[test]
    fn mlp_overlaps_misses() {
        // 8 loads to distinct lines far apart (no prefetch help), then a
        // dependency. With MLP 8 the total time must be far below 8 serial
        // misses.
        let mk = |mlp: u8| {
            let ops: Vec<Op> = (0..8)
                .map(|i| Op::Load(0x1000_0000 + i * 8192))
                .chain(std::iter::once(Op::Compute(1)))
                .collect();
            run_script(ops, mlp).wall_cycles
        };
        let serial = mk(1);
        let overlapped = mk(8);
        assert!(
            (overlapped as f64) < serial as f64 * 0.45,
            "serial={serial} overlapped={overlapped}"
        );
    }

    #[test]
    fn stores_do_not_stall() {
        // 100 store misses to distinct lines: wall time ~100 issue cycles,
        // not 100 miss latencies.
        let ops: Vec<Op> = (0..100)
            .map(|i| Op::Store(0x1000_0000 + i * 4096))
            .collect();
        let r = run_script(ops, 1);
        assert!(r.wall_cycles < 2000, "wall={}", r.wall_cycles);
        assert_eq!(r.jobs[0].counters.stores, 100);
        assert_eq!(r.jobs[0].counters.l3_misses, 100);
    }

    #[test]
    fn compute_waits_for_loads() {
        let r = run_script(vec![Op::Load(0x1000_0000), Op::Compute(5)], 4);
        let c = &r.jobs[0].counters;
        assert!(c.stall_cycles > 100, "compute must wait for the miss");
        assert_eq!(c.compute_cycles, 5);
    }

    #[test]
    fn dirty_writeback_reaches_dram() {
        // Store a line, then evict it by filling its L1/L2/L3 sets... use
        // small scaled machine; stream enough distinct lines to force the
        // dirty line out of the entire hierarchy.
        let m = cfg();
        let l3_lines = m.l3.lines();
        let victim = 0x1000_0000u64;
        let mut ops = vec![Op::Store(victim)];
        // Fill with 3x the L3 to guarantee eviction even with Mid insert.
        for i in 1..(3 * l3_lines) {
            ops.push(Op::Load(victim + i * 64));
        }
        ops.push(Op::Compute(0));
        let jobs = vec![Job::primary(
            Box::new(ScriptStream::new(ops).with_mlp(8)),
            CoreId::new(0, 0),
        )];
        let r = Engine::new(&m, jobs).run(&RunLimit::default());
        assert!(
            r.sockets[0].dram.writeback_lines >= 1,
            "dirty line must be written back"
        );
    }

    #[test]
    fn two_cores_interleave_on_shared_l3() {
        // Two cores each loop over a small buffer; both finish, and the
        // socket L3 ends up holding both working sets.
        let m = cfg();
        let mk = |base: u64| {
            let ops: Vec<Op> = (0..4096u64)
                .map(|i| Op::Load(base + (i % 512) * 64))
                .collect();
            ScriptStream::new(ops).with_mlp(2)
        };
        let jobs = vec![
            Job::primary(Box::new(mk(0x1000_0000)), CoreId::new(0, 0)),
            Job::primary(Box::new(mk(0x2000_0000)), CoreId::new(0, 1)),
        ];
        let r = Engine::new(&m, jobs).run(&RunLimit::default());
        assert!(r.jobs[0].done && r.jobs[1].done);
        assert!(r.sockets[0].l3_occupancy >= 1024);
        assert_eq!(r.sockets[1].l3_occupancy, 0, "other socket untouched");
    }

    #[test]
    fn background_jobs_stop_with_primaries() {
        struct Forever(u64);
        impl crate::stream::AccessStream for Forever {
            fn next_op(&mut self) -> Op {
                self.0 = self.0.wrapping_add(64);
                Op::Load(0x4000_0000 + (self.0 % (1 << 20)))
            }
        }
        let m = cfg();
        let ops: Vec<Op> = (0..1000u64)
            .map(|i| Op::Load(0x1000_0000 + i * 64))
            .collect();
        let jobs = vec![
            Job::primary(Box::new(ScriptStream::new(ops)), CoreId::new(0, 0)),
            Job::background(Box::new(Forever(0)), CoreId::new(0, 1)),
        ];
        let r = Engine::new(&m, jobs).run(&RunLimit::default());
        assert!(r.jobs[0].done);
        let bg = &r.jobs[1];
        assert!(bg.counters.loads > 0, "background ran");
        // Background time is close to the primary's finish time.
        assert!(bg.counters.cycles <= r.wall_cycles + RunLimit::default().quantum * 2);
    }

    #[test]
    fn max_cycles_stops_everything() {
        struct Forever;
        impl crate::stream::AccessStream for Forever {
            fn next_op(&mut self) -> Op {
                Op::Compute(10)
            }
        }
        let m = cfg();
        let jobs = vec![Job::background(Box::new(Forever), CoreId::new(0, 0))];
        let r = Engine::new(&m, jobs).run(&RunLimit::cycles(10_000));
        assert!(r.jobs[0].counters.cycles >= 10_000);
        assert!(r.jobs[0].counters.cycles < 11_000);
    }

    #[test]
    fn barrier_synchronizes_primaries() {
        // Core 0 computes 100 cycles, core 1 computes 10_000; after the
        // barrier both do one load. Their finish times must be near-equal.
        let mk = |work: u32| {
            ScriptStream::new(vec![
                Op::Compute(work),
                Op::Barrier,
                Op::Load(0x1000_0000),
                Op::Compute(0),
            ])
        };
        let m = cfg();
        let jobs = vec![
            Job::primary(Box::new(mk(100)), CoreId::new(0, 0)),
            Job::primary(Box::new(mk(10_000)), CoreId::new(0, 1)),
        ];
        let r = Engine::new(&m, jobs).run(&RunLimit::default());
        let c0 = r.jobs[0].counters.cycles;
        let c1 = r.jobs[1].counters.cycles;
        assert!(c0.abs_diff(c1) < 500, "c0={c0} c1={c1}");
        assert!(r.jobs[0].counters.barrier_cycles > 9000);
        assert!(r.jobs[1].counters.barrier_cycles < 1000);
    }

    #[test]
    fn barrier_releaser_gets_no_turn_past_the_horizon() {
        // Core 0 arrives last and releases the barrier; both cores then
        // stream DRAM misses at one load a cycle. Ties at the resume time
        // go to core 0, which may issue exactly the `quantum` loads that
        // fit below `resume + quantum` before core 1 runs — so core 1's
        // first load queues on the channel behind `quantum` lines and its
        // own transfer, not one more.
        let mut m = cfg();
        m.prefetch = false; // keep the channel to demand lines only
        let limit = RunLimit {
            quantum: 32,
            ..RunLimit::default()
        };
        // `probe` marks right after the first load, timing it alone.
        let mk = |work: u32, base: u64, probe: bool| {
            let mut ops = vec![Op::Compute(work), Op::Barrier, Op::Mark, Op::Load(base)];
            if probe {
                ops.push(Op::Mark);
            }
            ops.extend((1..128).map(|i| Op::Load(base + i * 8192)));
            ops.push(Op::Mark);
            ScriptStream::new(ops).with_mlp(64)
        };
        let jobs = vec![
            Job::primary(Box::new(mk(10_000, 0x1000_0000, false)), CoreId::new(0, 0)),
            Job::primary(Box::new(mk(100, 0x2000_0000, true)), CoreId::new(0, 1)),
        ];
        let r = Engine::new(&m, jobs).run(&limit);
        let resume = 10_000 + limit.barrier_overhead as u64;
        assert_eq!(r.jobs[0].marks[0].cycles, resume);
        assert_eq!(r.jobs[1].marks[0].cycles, resume);
        let line_cycles = m.l3.line_bytes as f64 / m.dram_bytes_per_cycle;
        let queued = ((limit.quantum + 1) as f64 * line_cycles).ceil() as u64;
        assert!(queued > m.dram_latency as u64, "backlog must be visible");
        assert_eq!(
            r.jobs[1].marks[1].cycles - resume,
            m.l3.latency as u64 + queued,
            "core 1's first load waited behind the wrong number of lines"
        );
    }

    #[test]
    fn barrier_in_background_is_noop() {
        let m = cfg();
        let prim = ScriptStream::new(vec![Op::Compute(1000)]);
        let bg = ScriptStream::new(vec![
            Op::Barrier,
            Op::Compute(50),
            Op::Barrier,
            Op::Compute(50),
        ]);
        let jobs = vec![
            Job::primary(Box::new(prim), CoreId::new(0, 0)),
            Job::background(Box::new(bg), CoreId::new(0, 1)),
        ];
        // Must terminate (background barrier doesn't deadlock the run).
        let r = Engine::new(&m, jobs).run(&RunLimit::default());
        assert!(r.jobs[0].done);
    }

    #[test]
    fn remote_xfer_charges_network_and_dma() {
        let m = cfg();
        let ops = vec![Op::RemoteXfer(64 * 1024), Op::Compute(0)];
        let jobs = vec![Job::primary(
            Box::new(ScriptStream::new(ops)),
            CoreId::new(0, 0),
        )];
        let r = Engine::new(&m, jobs).run(&RunLimit::default());
        let c = &r.jobs[0].counters;
        assert!(c.net_cycles as f64 >= m.net.latency_cycles as f64);
        assert_eq!(r.sockets[0].dram.dma_bytes, 64 * 1024);
    }

    #[test]
    fn watch_ranges_report_occupancy() {
        let m = cfg();
        let base = 0x1000_0000u64;
        let ops: Vec<Op> = (0..256u64).map(|i| Op::Load(base + i * 64)).collect();
        let jobs = vec![Job::primary(
            Box::new(ScriptStream::new(ops)),
            CoreId::new(0, 0),
        )];
        let mut lim = RunLimit::default();
        lim.watch_ranges.push((base >> 6, (base >> 6) + 256));
        let r = Engine::new(&m, jobs).run(&lim);
        assert_eq!(r.sockets[0].watched_occupancy[0], 256);
    }

    #[test]
    fn mark_snapshots_counters() {
        let a = 0x1000_0000u64;
        let ops = vec![
            Op::Load(a),
            Op::Compute(0),
            Op::Mark,
            Op::Load(a),        // warm: hits L1
            Op::Load(a + 8192), // new line: misses
            Op::Compute(0),
        ];
        let r = run_script(ops, 1);
        let j = &r.jobs[0];
        assert_eq!(j.marks.len(), 1);
        assert_eq!(j.marks[0].loads, 1);
        let phase = j.after_last_mark();
        assert_eq!(phase.loads, 2);
        assert_eq!(phase.l1_hits, 1);
        assert_eq!(phase.l3_misses, 1);
        assert!(phase.cycles > 0 && phase.cycles < j.counters.cycles);
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            let m = cfg();
            let mut rng = crate::rng::Xoshiro256::seed_from_u64(11);
            let ops: Vec<Op> = (0..20_000)
                .map(|_| Op::Load(0x1000_0000 + rng.below(1 << 22) * 64))
                .collect();
            let jobs = vec![Job::primary(
                Box::new(ScriptStream::new(ops).with_mlp(4)),
                CoreId::new(0, 0),
            )];
            Engine::new(&m, jobs).run(&RunLimit::default())
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.wall_cycles, b.wall_cycles);
        assert_eq!(a.jobs[0].counters.l3_misses, b.jobs[0].counters.l3_misses);
    }

    #[test]
    fn ops_are_generated_on_the_calling_thread() {
        use std::sync::{Arc, Mutex};
        struct Recording(ScriptStream, Arc<Mutex<Vec<std::thread::ThreadId>>>);
        impl crate::stream::AccessStream for Recording {
            fn next_op(&mut self) -> Op {
                self.0.next_op()
            }
            fn next_batch(&mut self, out: &mut Vec<Op>, max: usize) {
                self.1.lock().unwrap().push(std::thread::current().id());
                self.0.next_batch(out, max)
            }
        }
        let m = cfg();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let jobs = (0..4u64)
            .map(|core| {
                let ops = (0..3 * OP_BATCH as u64)
                    .map(|i| Op::Load(((core + 1) << 28) + i * 64))
                    .collect();
                let stream = Recording(ScriptStream::new(ops), Arc::clone(&seen));
                Job::primary(Box::new(stream), CoreId::new(0, core as u32))
            })
            .collect();
        let r = Engine::new(&m, jobs).run(&RunLimit::default());
        assert!(r.jobs.iter().all(|j| j.done));
        let seen = seen.lock().unwrap();
        assert!(seen.len() >= 12, "every core refilled: {}", seen.len());
        let me = std::thread::current().id();
        assert!(seen.iter().all(|&id| id == me), "a batch came off-thread");
    }

    #[test]
    #[should_panic]
    fn duplicate_core_placement_panics() {
        let m = cfg();
        let jobs = vec![
            Job::primary(Box::new(ScriptStream::new(vec![])), CoreId::new(0, 0)),
            Job::primary(Box::new(ScriptStream::new(vec![])), CoreId::new(0, 0)),
        ];
        let _ = Engine::new(&m, jobs);
    }

    #[test]
    #[should_panic(expected = "core 1: L3 way mask 0xfff00000 allows none of the 20 ways")]
    fn job_way_mask_outside_the_l3_is_rejected_at_construction() {
        let m = cfg();
        let job = Job::primary(Box::new(ScriptStream::new(vec![])), CoreId::new(0, 1))
            .with_l3_ways(0xfff0_0000);
        let _ = Engine::new(&m, vec![job]);
    }

    /// The test machine with a 48-way L3 (same set count).
    fn wide_l3() -> MachineConfig {
        let mut m = cfg();
        m.l3.size_bytes = m.l3.size_bytes / u64::from(m.l3.ways) * 48;
        m.l3.ways = 48;
        m
    }

    #[test]
    #[should_panic(
        expected = "core 1: L3 way mask 0xf is partial on 48 ways; a partial mask needs at most 32"
    )]
    fn partial_way_mask_on_a_wide_l3_is_rejected_at_construction() {
        let m = wide_l3();
        let job =
            Job::primary(Box::new(ScriptStream::new(vec![])), CoreId::new(0, 1)).with_l3_ways(0x0F);
        let _ = Engine::new(&m, vec![job]);
    }

    #[test]
    fn full_way_mask_on_a_wide_l3_is_accepted() {
        let m = wide_l3();
        let job = Job::primary(Box::new(ScriptStream::new(vec![])), CoreId::new(0, 1))
            .with_l3_ways(u32::MAX);
        let _ = Engine::new(&m, vec![job]);
    }

    #[test]
    #[should_panic(expected = "L3: 128-byte lines; the engine simulates 64-byte lines only")]
    fn non_64_byte_lines_are_rejected_at_construction() {
        let mut m = cfg();
        m.l3.line_bytes = 128;
        let _ = Engine::new(&m, vec![]);
    }

    #[test]
    #[should_panic(expected = "network bandwidth must be finite and positive, got 0 bytes/cycle")]
    fn zero_network_bandwidth_is_rejected_at_construction() {
        let mut m = cfg();
        m.net.bytes_per_cycle = 0.0;
        let _ = Engine::new(&m, vec![]);
    }

    #[test]
    #[should_panic(expected = "DRAM bandwidth must be finite and positive, got NaN bytes/cycle")]
    fn nan_dram_bandwidth_is_rejected_at_construction() {
        let mut m = cfg();
        m.dram_bytes_per_cycle = f64::NAN;
        let _ = Engine::new(&m, vec![]);
    }

    #[test]
    #[should_panic(expected = "core 0: L3 way mask 0x100000 allows none of the 20 ways")]
    fn actuated_way_mask_outside_the_l3_is_rejected_when_it_fires() {
        struct BadMask;
        impl EpochController for BadMask {
            fn epoch_cycles(&self) -> u64 {
                50
            }
            fn on_epoch(&mut self, _: u64, _: u64, _: &[CoreView]) -> Vec<Actuation> {
                vec![Actuation {
                    core: 0,
                    knob: Knob::L3WayMask(1 << 20),
                }]
            }
        }
        let m = cfg();
        let job = Job::primary(
            Box::new(ScriptStream::new(vec![Op::Compute(500)])),
            CoreId::new(0, 0),
        );
        let mut ctl = BadMask;
        let _ = Engine::new(&m, vec![job])
            .with_controller(&mut ctl)
            .run(&RunLimit::default());
    }

    #[test]
    #[should_panic(
        expected = "core 0: L3 way mask 0xffff is partial on 48 ways; a partial mask needs at most 32"
    )]
    fn actuated_partial_way_mask_on_a_wide_l3_is_rejected_when_it_fires() {
        struct HalfMask;
        impl EpochController for HalfMask {
            fn epoch_cycles(&self) -> u64 {
                50
            }
            fn on_epoch(&mut self, _: u64, _: u64, _: &[CoreView]) -> Vec<Actuation> {
                vec![Actuation {
                    core: 0,
                    knob: Knob::L3WayMask(0xFFFF),
                }]
            }
        }
        let m = wide_l3();
        let job = Job::primary(
            Box::new(ScriptStream::new(vec![Op::Compute(500)])),
            CoreId::new(0, 0),
        );
        let mut ctl = HalfMask;
        let _ = Engine::new(&m, vec![job])
            .with_controller(&mut ctl)
            .run(&RunLimit::default());
    }

    #[test]
    #[should_panic]
    fn no_primary_no_limit_panics() {
        struct Forever;
        impl crate::stream::AccessStream for Forever {
            fn next_op(&mut self) -> Op {
                Op::Compute(1)
            }
        }
        let m = cfg();
        let jobs = vec![Job::background(Box::new(Forever), CoreId::new(0, 0))];
        let _ = Engine::new(&m, jobs).run(&RunLimit::default());
    }
}

#[cfg(test)]
mod coherence_tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::stream::{Op, ScriptStream};

    fn cfg() -> MachineConfig {
        MachineConfig::xeon20mb().scaled(0.125)
    }

    #[test]
    fn store_invalidates_other_sharers() {
        // Core 1 reads a line (becomes a sharer); core 0 then stores to
        // it: core 1's private copies must be invalidated, so its next
        // read goes back to the L3, and the counters record the event.
        let a = 0x1000_0000u64;
        let reader = ScriptStream::new(vec![
            Op::Load(a),
            Op::Compute(0),
            Op::Barrier, // writer stores during this window
            Op::Load(a), // must re-fetch from L3 (invalidated)
            Op::Compute(0),
        ]);
        let writer = ScriptStream::new(vec![
            Op::Load(a),
            Op::Compute(200), // let the reader get its first load in
            Op::Store(a),
            Op::Barrier,
            Op::Compute(0),
        ]);
        let m = cfg();
        let jobs = vec![
            Job::primary(Box::new(writer), CoreId::new(0, 0)),
            Job::primary(Box::new(reader), CoreId::new(0, 1)),
        ];
        let r = Engine::new(&m, jobs).run(&RunLimit::default());
        let reader_c = &r.jobs[1].counters;
        let writer_c = &r.jobs[0].counters;
        assert!(
            reader_c.coherence_invalidations >= 1,
            "reader must lose its copy: {reader_c:?}"
        );
        assert!(writer_c.coherence_upgrades >= 1);
        // The reader's second load cannot be an L1 hit.
        assert!(
            reader_c.l1_hits == 0,
            "second load must miss L1 after invalidation, got {} hits",
            reader_c.l1_hits
        );
    }

    #[test]
    fn private_lines_pay_no_coherence() {
        // Two cores hammering disjoint lines: zero coherence traffic.
        let mk = |base: u64| {
            let ops: Vec<Op> = (0..2000u64)
                .flat_map(|i| {
                    [
                        Op::Load(base + (i % 64) * 64),
                        Op::Store(base + (i % 64) * 64),
                    ]
                })
                .collect();
            ScriptStream::new(ops)
        };
        let m = cfg();
        let jobs = vec![
            Job::primary(Box::new(mk(0x1000_0000)), CoreId::new(0, 0)),
            Job::primary(Box::new(mk(0x2000_0000)), CoreId::new(0, 1)),
        ];
        let r = Engine::new(&m, jobs).run(&RunLimit::default());
        for j in &r.jobs {
            assert_eq!(j.counters.coherence_invalidations, 0);
            assert_eq!(j.counters.coherence_upgrades, 0);
        }
    }

    #[test]
    fn store_that_hits_in_l2_claims_no_ownership_and_invalidates_no_sharer() {
        // Pins a known gap, it does not endorse it (DESIGN.md §6, ROADMAP
        // item 5): `mem_access_after_l1`'s L2-hit arm fills the L1
        // dirty and returns without `coherence_store`, so a store whose
        // line has left the L1 but not the L2 neither claims exclusivity
        // in the L3 nor invalidates the other sharer, whose stale copy
        // keeps hitting. Fixing it moves goldens; this test moves with it.
        let a = 0x1000_0000u64;
        let mut m = cfg();
        m.prefetch = false; // keep the L2 hit count to the one store
        let l1_sets = m.l1.sets() as u64;
        assert!(m.l2.sets() as u64 > l1_sets);
        let run = |evict_from_l1: bool| {
            let mut writer = vec![Op::Load(a), Op::Compute(0)];
            if evict_from_l1 {
                // `ways` more lines in the line's L1 set, spread over
                // other L2 sets: the line leaves the L1, not the L2.
                writer.extend((1..=m.l1.ways as u64).map(|k| Op::Load(a + k * l1_sets * 64)));
                writer.push(Op::Compute(0));
            }
            writer.extend([Op::Barrier, Op::Store(a), Op::Barrier]);
            let reader = vec![
                Op::Load(a),
                Op::Compute(0),
                Op::Barrier, // the writer stores between the barriers
                Op::Barrier,
                Op::Load(a),
                Op::Compute(0),
            ];
            let jobs = vec![
                Job::primary(Box::new(ScriptStream::new(writer)), CoreId::new(0, 0)),
                Job::primary(Box::new(ScriptStream::new(reader)), CoreId::new(0, 1)),
            ];
            let r = Engine::new(&m, jobs).run(&RunLimit::default());
            (r.jobs[0].counters, r.jobs[1].counters)
        };
        // Control: the store hits the L1 and the protocol runs.
        let (w, r) = run(false);
        assert_eq!((w.l2_hits, w.coherence_upgrades), (0, 1));
        assert_eq!((r.coherence_invalidations, r.l1_hits), (1, 0));
        // The gap: the same store through the L2 is silent.
        let (w, r) = run(true);
        assert_eq!(w.l2_hits, 1, "the store must be served by the L2");
        assert_eq!(w.coherence_upgrades, 0);
        assert_eq!(r.coherence_invalidations, 0);
        assert_eq!(r.l1_hits, 1, "the reader's stale copy still hits");
    }

    #[test]
    fn stale_up_link_under_a_noninclusive_l3_still_writes_the_line_back() {
        // One L3 way (CAT) and no back-invalidation: `b` replaces `a` in
        // the L3 while `a` stays dirty in the L2, whose up-link now names
        // the entry holding `b`. When the L2 lets `a` go, the link's tag
        // compare must fail and the line go to DRAM — marking `b` dirty
        // instead would lose `a`'s writeback and add one for `b` later.
        let mut m = cfg();
        m.inclusive_l3 = false;
        m.prefetch = false;
        m.l3.hash_sets = false; // same L3 set <=> same line mod `l3_sets`
        let (l2_sets, l3_sets) = (m.l2.sets() as u64, m.l3.sets() as u64);
        let pushers = 2 * m.l2.ways as u64;
        assert!(l3_sets % l2_sets == 0 && l3_sets / l2_sets > pushers);
        let a = 0x1000_0000u64;
        let b = a + l3_sets * 64;
        let mut ops = vec![Op::Store(a), Op::Load(b)];
        // Push `a` out of the L2 through its L2 set, in other L3 sets.
        ops.extend((1..=pushers).map(|k| Op::Load(a + k * l2_sets * 64)));
        ops.push(Op::Compute(0));
        let job = Job::primary(Box::new(ScriptStream::new(ops)), CoreId::new(0, 0)).with_l3_ways(1);
        let r = Engine::new(&m, vec![job]).run(&RunLimit::default());
        assert_eq!(r.sockets[0].dram.writeback_lines, 1, "a's dirty data");
    }

    #[test]
    fn repeated_stores_by_owner_upgrade_once() {
        // After the first ownership upgrade the writer stays exclusive:
        // subsequent stores are free.
        let a = 0x1000_0000u64;
        let reader = ScriptStream::new(vec![Op::Load(a), Op::Compute(0), Op::Barrier]);
        let writer = ScriptStream::new(vec![
            Op::Load(a),
            Op::Compute(300),
            Op::Store(a),
            Op::Store(a),
            Op::Store(a),
            Op::Barrier,
        ]);
        let m = cfg();
        let jobs = vec![
            Job::primary(Box::new(writer), CoreId::new(0, 0)),
            Job::primary(Box::new(reader), CoreId::new(0, 1)),
        ];
        let r = Engine::new(&m, jobs).run(&RunLimit::default());
        assert_eq!(r.jobs[0].counters.coherence_upgrades, 1);
    }
}
