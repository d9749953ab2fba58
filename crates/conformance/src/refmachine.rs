//! The reference machine: the whole simulated node, written plainly.
//!
//! [`run`] executes placed jobs over a cold hierarchy exactly as
//! DESIGN.md §6 and §14 describe the model, one op at a time:
//!
//! * **Dispatch.** Among the cores that can run, the one with the
//!   smallest clock goes next, ties to the lowest core index. It runs
//!   until its clock reaches the runner-up's clock plus
//!   [`RunLimit::quantum`], or until it parks at a barrier or finishes.
//!   A barrier releases when every unfinished primary waits at it: all of
//!   them resume at the latest arrival plus the barrier overhead, and the
//!   core whose arrival released it ends its turn like any other parker.
//! * **Hierarchy.** Loads and stores probe L1 → L2 → L3 → DRAM. Every
//!   miss fills every level below it; L1 ⊆ L2 and, when the L3 is
//!   inclusive, L2 ⊆ L3, kept by invalidating the lower copies of an
//!   evicted line. Dirty victims are marked in the level above, or
//!   written back to DRAM when no level above holds them.
//! * **Coherence.** A store that hits the L1 or fills from the L3 claims
//!   its line in the L3's sharer word, invalidating every other sharer's
//!   private copies first. A store served by the L2 does not; see
//!   `l2_hit_store` below.
//!
//! The production [`Engine`](amem_sim::engine::Engine) must produce the
//! same [`EventSignature`](amem_sim::EventSignature) for the same jobs.
//! Every shortcut the engine takes — its inlined dispatch loop, the
//! cache memos and up-links, fused demand fills, the presence-bit
//! probe skip, the inclusion-derived L1 skip — is therefore checked by
//! equality against code that takes none of them. The machine holds the
//! naive [`RefCache`], [`RefTlb`] and [`RefPrefetcher`] and reuses only
//! the leaf [`DramChannel`]. It has no resource controller and no
//! telemetry: a report's `telemetry` is always `None`.
//!
//! [`RefFault`] plants one engine-class defect each. Because the check is
//! an equality, a fault planted here diverges on exactly the cases where
//! the same fault in the engine would; `conformance --sabotage` proves
//! the fuzzer sees every one of them.

use amem_sim::cache::{Eviction, InsertPolicy};
use amem_sim::config::{CacheConfig, CoreId, MachineConfig};
use amem_sim::counters::CoreCounters;
use amem_sim::dram::DramChannel;
use amem_sim::engine::{Job, JobReport, RunLimit, RunReport, SocketReport};
use amem_sim::stream::{AccessStream, Op};

use crate::reference::{RefCache, RefPrefetcher, RefTlb};

/// A defect the reference machine can be built with, to prove the
/// differential fuzzer catches that class of fault in the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefFault {
    /// Every cache lookup scans one way fewer than its set holds, so a
    /// line in the last way reads as a miss.
    WayScanOffByOne,
    /// An L3 eviction back-invalidates the L2 copies of the victim but
    /// leaves the L1 copies in place.
    L1BackInvalidateSkipped,
    /// The core whose arrival releases a barrier keeps running in the
    /// same dispatch, past the horizon its peers were promised.
    BarrierReleaserRunsOn,
    /// A store served by the L2 claims its line and invalidates the other
    /// sharers — the coherence the model does not run today.
    L2HitStoreCoherent,
}

impl RefFault {
    pub const ALL: [RefFault; 4] = [
        RefFault::WayScanOffByOne,
        RefFault::L1BackInvalidateSkipped,
        RefFault::BarrierReleaserRunsOn,
        RefFault::L2HitStoreCoherent,
    ];

    pub fn name(self) -> &'static str {
        match self {
            RefFault::WayScanOffByOne => "way-scan-off-by-one",
            RefFault::L1BackInvalidateSkipped => "l1-back-invalidate-skipped",
            RefFault::BarrierReleaserRunsOn => "barrier-releaser-runs-on",
            RefFault::L2HitStoreCoherent => "l2-hit-store-coherent",
        }
    }
}

/// Run `jobs` to completion over a cold hierarchy.
pub fn run(cfg: &MachineConfig, jobs: Vec<Job>, limit: &RunLimit) -> RunReport {
    run_faulted(cfg, jobs, limit, &[])
}

/// [`run`] with `faults` planted.
pub(crate) fn run_faulted(
    cfg: &MachineConfig,
    jobs: Vec<Job>,
    limit: &RunLimit,
    faults: &[RefFault],
) -> RunReport {
    RefMachine::new(cfg, jobs, faults).run(limit)
}

struct Core {
    stream: Option<Box<dyn AccessStream>>,
    primary: bool,
    socket: usize,
    /// This core's bit in its socket's sharer and presence words.
    me: u32,
    mlp: usize,
    llc_hint: Option<InsertPolicy>,
    l3_way_mask: u32,
    time: u64,
    /// Completion times of the loads in flight.
    in_flight: Vec<u64>,
    done: bool,
    /// The stream returned `Done` (rather than being stopped).
    finished: bool,
    parked: bool,
    barrier_arrival: u64,
    counters: CoreCounters,
    marks: Vec<CoreCounters>,
    tlb: RefTlb,
    l1: RefCache,
    l2: RefCache,
    pf: RefPrefetcher,
}

struct Socket {
    l3: RefCache,
    dram: DramChannel,
}

enum Turn {
    Running,
    Parked,
    Finished,
}

struct RefMachine<'a> {
    cfg: &'a MachineConfig,
    cores: Vec<Core>,
    sockets: Vec<Socket>,
    /// Each job's label, core and primary flag, in job order.
    placed: Vec<(String, CoreId, bool)>,
    faults: &'a [RefFault],
}

impl<'a> RefMachine<'a> {
    fn new(cfg: &'a MachineConfig, jobs: Vec<Job>, faults: &'a [RefFault]) -> Self {
        assert!(
            cfg.cores_per_socket <= 32,
            "sharer/presence masks hold at most 32 cores per socket"
        );
        let cache = |c: &CacheConfig| {
            let scan = if faults.contains(&RefFault::WayScanOffByOne) {
                c.ways - 1
            } else {
                c.ways
            };
            RefCache::new(c).with_scan_ways(scan)
        };
        let mut cores: Vec<Core> = (0..cfg.total_cores())
            .map(|i| Core {
                stream: None,
                primary: false,
                socket: cfg.socket_of(i),
                me: i as u32 % cfg.cores_per_socket,
                mlp: 1,
                llc_hint: None,
                l3_way_mask: u32::MAX,
                time: 0,
                in_flight: Vec::new(),
                done: true,
                finished: false,
                parked: false,
                barrier_arrival: 0,
                counters: CoreCounters::default(),
                marks: Vec::new(),
                tlb: RefTlb::new(cfg.tlb),
                l1: cache(&cfg.l1).without_ownership(),
                l2: cache(&cfg.l2).without_ownership(),
                pf: RefPrefetcher::new(cfg.prefetch, cfg.prefetch_degree),
            })
            .collect();
        let sockets = (0..cfg.sockets)
            .map(|_| Socket {
                l3: cache(&cfg.l3),
                dram: DramChannel::new(cfg.dram_bytes_per_cycle, cfg.l3.line_bytes),
            })
            .collect();
        let mut placed = Vec::with_capacity(jobs.len());
        for job in jobs {
            let Job {
                stream,
                core,
                primary,
                l3_way_mask,
            } = job;
            let ci = core.flat(cfg);
            assert!(ci < cores.len(), "core {core:?} out of range");
            assert!(
                cores[ci].stream.is_none(),
                "two jobs placed on core {core:?}"
            );
            let ways = cfg.l3.ways;
            assert!(
                l3_way_mask & (u32::MAX >> 32u32.saturating_sub(ways)) != 0,
                "core {ci}: L3 way mask {l3_way_mask:#x} allows none of the {ways} ways"
            );
            assert!(
                ways <= 32 || l3_way_mask == u32::MAX,
                "core {ci}: L3 way mask {l3_way_mask:#x} is partial on {ways} ways; a partial mask needs at most 32"
            );
            placed.push((stream.label().to_string(), core, primary));
            let c = &mut cores[ci];
            c.mlp = (stream.mlp() as usize).clamp(1, 32);
            c.llc_hint = stream.llc_insert_hint();
            c.l3_way_mask = l3_way_mask;
            c.primary = primary;
            c.done = false;
            c.stream = Some(stream);
        }
        Self {
            cfg,
            cores,
            sockets,
            placed,
            faults,
        }
    }

    fn has(&self, fault: RefFault) -> bool {
        self.faults.contains(&fault)
    }

    fn run(mut self, limit: &RunLimit) -> RunReport {
        let max_cycles = limit.max_cycles.unwrap_or(u64::MAX);
        let had_primaries = self.cores.iter().any(|c| c.primary && !c.done);
        assert!(
            had_primaries || limit.max_cycles.is_some(),
            "a run with no primary jobs must set max_cycles"
        );
        loop {
            if had_primaries && self.cores.iter().all(|c| !c.primary || c.done) {
                break;
            }
            let cores = &self.cores;
            let runnable = || (0..cores.len()).filter(|&i| !cores[i].done && !cores[i].parked);
            let Some(ci) = runnable().min_by_key(|&i| (cores[i].time, i)) else {
                break;
            };
            if cores[ci].time >= max_cycles {
                break;
            }
            let t_next = runnable().filter(|&i| i != ci).map(|i| cores[i].time).min();
            let horizon = t_next.unwrap_or(u64::MAX).saturating_add(limit.quantum);
            loop {
                match self.step(ci) {
                    Turn::Running => {
                        let now = self.cores[ci].time;
                        if now >= horizon || now >= max_cycles {
                            break;
                        }
                    }
                    Turn::Finished => {
                        self.release_barrier(limit);
                        break;
                    }
                    Turn::Parked => {
                        self.release_barrier(limit);
                        let released = !self.cores[ci].parked;
                        if !(released && self.has(RefFault::BarrierReleaserRunsOn)) {
                            break;
                        }
                    }
                }
            }
        }
        // Stop the cores still running (backgrounds, or everyone at the
        // cycle limit) where they stand.
        for c in self.cores.iter_mut().filter(|c| !c.done) {
            c.counters.cycles = c.time;
            c.done = true;
        }
        self.report(limit, max_cycles, had_primaries)
    }

    /// Release the barrier if every unfinished primary waits at it.
    fn release_barrier(&mut self, limit: &RunLimit) {
        let waiting = || self.cores.iter().filter(|c| c.primary && !c.done);
        if waiting().any(|c| !c.parked) {
            return;
        }
        let Some(latest) = waiting().map(|c| c.barrier_arrival).max() else {
            return;
        };
        let resume = latest + limit.barrier_overhead as u64;
        for c in self.cores.iter_mut().filter(|c| c.primary && !c.done) {
            c.counters.barrier_cycles += resume - c.barrier_arrival;
            c.time = resume;
            c.parked = false;
        }
    }

    /// Execute the next op of core `ci`.
    fn step(&mut self, ci: usize) -> Turn {
        let c = &mut self.cores[ci];
        let op = c
            .stream
            .as_mut()
            .expect("a running core has a stream")
            .next_op();
        match op {
            Op::Load(addr) => {
                if c.in_flight.len() >= c.mlp {
                    let (k, &free_at) = c
                        .in_flight
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &t)| t)
                        .expect("mlp is at least 1");
                    c.in_flight.swap_remove(k);
                    c.counters.stall_cycles += free_at.saturating_sub(c.time);
                    c.time = c.time.max(free_at);
                }
                let now = c.time;
                let walk = self.translate(ci, addr);
                let latency = self.access(ci, addr >> 6, false, now);
                let c = &mut self.cores[ci];
                c.in_flight.push(now + walk as u64 + latency as u64);
                c.time += 1;
                c.counters.loads += 1;
            }
            Op::Store(addr) => {
                // Through the store buffer: the hierarchy sees the store,
                // the core moves on after one issue cycle.
                let now = c.time;
                self.translate(ci, addr);
                self.access(ci, addr >> 6, true, now);
                let c = &mut self.cores[ci];
                c.time += 1;
                c.counters.stores += 1;
            }
            Op::Compute(cycles) => {
                self.drain(ci);
                let c = &mut self.cores[ci];
                c.time += cycles as u64;
                c.counters.compute_cycles += cycles as u64;
            }
            Op::RemoteXfer(bytes) => {
                self.drain(ci);
                let c = &mut self.cores[ci];
                // The NIC's DMA of the body occupies the local channel.
                let dma = self.sockets[c.socket].dram.dma(c.time, bytes as u64);
                let wire = (bytes as f64 / self.cfg.net.bytes_per_cycle) as u64;
                let d = self.cfg.net.latency_cycles as u64 + wire.max(dma);
                c.time += d;
                c.counters.net_cycles += d;
            }
            Op::Mark => {
                self.drain(ci);
                let c = &mut self.cores[ci];
                let mut snap = c.counters;
                snap.cycles = c.time;
                c.marks.push(snap);
            }
            Op::Barrier => {
                self.drain(ci);
                let c = &mut self.cores[ci];
                // A background stream's barrier is a no-op, so it cannot
                // deadlock the run.
                if c.primary {
                    c.parked = true;
                    c.barrier_arrival = c.time;
                    return Turn::Parked;
                }
            }
            Op::Done => {
                self.drain(ci);
                let c = &mut self.cores[ci];
                c.done = true;
                c.finished = true;
                c.counters.cycles = c.time;
                return Turn::Finished;
            }
        }
        Turn::Running
    }

    /// Wait for every load in flight.
    fn drain(&mut self, ci: usize) {
        let c = &mut self.cores[ci];
        let last = c.in_flight.drain(..).max().unwrap_or(0);
        c.counters.stall_cycles += last.saturating_sub(c.time);
        c.time = c.time.max(last);
    }

    /// Translate through the core's TLB; returns the page-walk cycles.
    fn translate(&mut self, ci: usize, addr: u64) -> u32 {
        if !self.cfg.tlb.is_enabled() {
            return 0;
        }
        let c = &mut self.cores[ci];
        let walk = c.tlb.access(addr);
        if walk > 0 {
            c.counters.tlb_misses += 1;
        } else {
            c.counters.tlb_hits += 1;
        }
        walk
    }

    /// Probe the hierarchy for `line`, filling and counting on the way;
    /// returns the access latency.
    fn access(&mut self, ci: usize, line: u64, store: bool, now: u64) -> u32 {
        let cfg = self.cfg;
        let c = &mut self.cores[ci];
        if c.l1.lookup(line, store) {
            c.counters.l1_hits += 1;
            let claim = if store {
                self.coherence_store(ci, line)
            } else {
                0
            };
            return cfg.l1.latency + claim;
        }
        c.counters.l1_misses += 1;
        if c.l2.lookup(line, false) {
            c.counters.l2_hits += 1;
            self.fill_l1(ci, line, store, now);
            return cfg.l2.latency + self.l2_hit_store(ci, line, store);
        }
        c.counters.l2_misses += 1;
        // The prefetcher trains on demand L2 misses and issues after the
        // demand access.
        let prefetches = c.pf.observe(line);
        let s = c.socket;
        let mut latency = if self.sockets[s].l3.lookup(line, false) {
            self.cores[ci].counters.l3_hits += 1;
            cfg.l3.latency
        } else {
            let c = &mut self.cores[ci];
            c.counters.l3_misses += 1;
            c.counters.dram_demand_lines += 1;
            let delay = self.sockets[s].dram.demand(now + cfg.l3.latency as u64);
            self.fill_l3(ci, line, now);
            // Row access overlaps the queue drain: the miss costs the
            // larger of the two.
            cfg.l3.latency + cfg.dram_latency.max(delay as u32)
        };
        self.fill_l2(ci, line, now);
        self.fill_l1(ci, line, store, now);
        if store {
            latency += self.coherence_store(ci, line);
        } else {
            let me = self.cores[ci].me;
            self.sockets[s].l3.add_sharer(line, me);
        }
        for &target in &prefetches.lines[..prefetches.n] {
            self.prefetch(ci, target, now);
        }
        latency
    }

    /// A store served by the L2 today: the L1 fill took the line dirty,
    /// and that is all — the store neither claims the line in the L3's
    /// sharer word nor invalidates the other sharers' copies. This is a
    /// known gap of the model (DESIGN.md §6), reproduced here so the
    /// engine is checked against the behaviour it has; fixing it is a
    /// re-baseline of every figure. [`RefFault::L2HitStoreCoherent`] runs
    /// the protocol instead.
    fn l2_hit_store(&mut self, ci: usize, line: u64, store: bool) -> u32 {
        if store && self.has(RefFault::L2HitStoreCoherent) {
            self.coherence_store(ci, line)
        } else {
            0
        }
    }

    /// MESI-style ownership for a store by core `ci`: invalidate every
    /// other sharer's private copies (merging their dirtiness into the
    /// L3) and make `ci` the line's only sharer. Returns the extra
    /// latency: an L3 round trip when another core had to give the line
    /// up.
    fn coherence_store(&mut self, ci: usize, line: u64) -> u32 {
        let (s, me) = (self.cores[ci].socket, self.cores[ci].me);
        let others = self.sockets[s].l3.sharers(line) & !(1 << me);
        let first = s * self.cfg.cores_per_socket as usize;
        for k in 0..self.cfg.cores_per_socket as usize {
            if others & (1 << k) == 0 {
                continue;
            }
            let other = &mut self.cores[first + k];
            for d in [other.l2.invalidate(line), other.l1.invalidate(line)] {
                if d == Some(true) {
                    self.sockets[s].l3.mark_dirty(line);
                }
            }
            other.counters.coherence_invalidations += 1;
        }
        self.sockets[s].l3.set_exclusive(line, me);
        if others == 0 {
            return 0;
        }
        self.cores[ci].counters.coherence_upgrades += 1;
        self.cfg.l3.latency
    }

    /// A prefetch of `line` for core `ci`, into its L2 (and the L3).
    fn prefetch(&mut self, ci: usize, line: u64, now: u64) {
        let s = self.cores[ci].socket;
        self.cores[ci].counters.prefetches_issued += 1;
        if self.cores[ci].l2.contains(line) {
            return;
        }
        if self.sockets[s].l3.lookup(line, false) {
            self.fill_l2(ci, line, now);
            return;
        }
        // Dropped while the channel is saturated, as hardware does.
        let dram = &mut self.sockets[s].dram;
        if dram.backlog(now) > 16.0 * dram.service_per_line() {
            self.cores[ci].counters.prefetches_dropped += 1;
            return;
        }
        dram.prefetch_fetch(now);
        self.cores[ci].counters.dram_prefetch_lines += 1;
        self.fill_l3(ci, line, now);
        self.fill_l2(ci, line, now);
    }

    /// Install `line` in the L1; a dirty victim goes to the first level
    /// above that holds it, else to DRAM.
    fn fill_l1(&mut self, ci: usize, line: u64, store: bool, now: u64) {
        let c = &mut self.cores[ci];
        let Some(ev) = c.l1.fill(line, store) else {
            return;
        };
        let l3 = &mut self.sockets[c.socket];
        if ev.dirty && !c.l2.mark_dirty(ev.line) && !l3.l3.mark_dirty(ev.line) {
            l3.dram.writeback(now);
        }
    }

    /// Install `line` in the L2, recording in the L3 that core `ci`
    /// holds it. The victim leaves the L1 too (L1 ⊆ L2); its merged
    /// dirtiness goes to the L3, else to DRAM.
    fn fill_l2(&mut self, ci: usize, line: u64, now: u64) {
        let c = &mut self.cores[ci];
        let socket = &mut self.sockets[c.socket];
        socket.l3.note_present(line, c.me);
        let Some(ev) = c.l2.fill(line, false) else {
            return;
        };
        let dirty_in_l1 = c.l1.invalidate(ev.line) == Some(true);
        if (ev.dirty || dirty_in_l1) && !socket.l3.mark_dirty(ev.line) {
            socket.dram.writeback(now);
        }
    }

    /// Install `line` in the L3 under core `ci`'s insertion hint and way
    /// mask, back-invalidating the victim.
    fn fill_l3(&mut self, ci: usize, line: u64, now: u64) {
        let c = &self.cores[ci];
        let (s, hint, mask) = (c.socket, c.llc_hint, c.l3_way_mask);
        if let Some(ev) = self.sockets[s].l3.fill_masked(line, false, hint, mask) {
            self.l3_evicted(s, ev, now);
        }
    }

    /// The L3 of socket `s` evicted `ev`: under inclusion every private
    /// copy on the socket goes too, and the merged dirtiness is written
    /// back.
    fn l3_evicted(&mut self, s: usize, ev: Eviction, now: u64) {
        let mut dirty = ev.dirty;
        if self.cfg.inclusive_l3 {
            let skip_l1 = self.has(RefFault::L1BackInvalidateSkipped);
            for c in self.cores.iter_mut().filter(|c| c.socket == s) {
                let in_l2 = c.l2.invalidate(ev.line);
                let in_l1 = if skip_l1 {
                    None
                } else {
                    c.l1.invalidate(ev.line)
                };
                if in_l2.is_some() {
                    c.counters.back_invalidations += 1;
                }
                dirty |= in_l2 == Some(true) || in_l1 == Some(true);
            }
        }
        if dirty {
            self.sockets[s].dram.writeback(now);
        }
    }

    fn report(self, limit: &RunLimit, max_cycles: u64, had_primaries: bool) -> RunReport {
        let wall = if had_primaries {
            let primaries = self.cores.iter().filter(|c| c.primary);
            primaries.map(|c| c.counters.cycles).max().unwrap_or(0)
        } else {
            max_cycles
        };
        let jobs = self
            .placed
            .iter()
            .map(|(label, core, primary)| {
                let c = &self.cores[core.flat(self.cfg)];
                JobReport {
                    label: label.clone(),
                    core: *core,
                    primary: *primary,
                    done: c.finished,
                    counters: c.counters,
                    marks: c.marks.clone(),
                }
            })
            .collect();
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
        RunReport {
            wall_cycles: wall,
            seconds: self.cfg.seconds(wall),
            jobs,
            sockets,
            telemetry: None,
        }
    }
}
