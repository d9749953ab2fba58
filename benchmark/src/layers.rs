//! The per-layer pass: one row per layer boundary, each measured from
//! outside by timing calls into public functions. Layer = module path.
//!
//! A timed row repeats its batch until a sample holds at least
//! [`MIN_SAMPLE`] of measured time, takes `samples` such samples and
//! reports their median, with the sample count and the time measured.
//! Only the calls into the layer are inside the timer; building inputs
//! (op lists, streams, caches to replay against, executors) is outside.
//! Each row is also a span, so a traced run's Chrome trace shows the
//! pass next to the workload.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amem_core::platform::{
    LuleshWorkload, McbWorkload, Measurement, Platform, ProbeWorkload, SimPlatform, Workload,
};
use amem_core::sweep::run_sweep;
use amem_core::{AmemError, CapacityMap, CurveOpts, CurveRequest, Executor};
use amem_interfere::{
    BwThread, BwThreadCfg, CsThread, CsThreadCfg, InterferenceKind, InterferenceMix,
};
use amem_probes::probe::ProbeStream;
use amem_serve::protocol::{
    read_line, write_line, Command, JobResult, JobSpec, Priority, Response, WorkloadSpec,
};
use amem_serve::quota::TenantQuotas;
use amem_serve::scheduler::{JobQueue, QueuedJob, ResultCell};
use amem_serve::{
    CacheStore, Client, JobRecord, JobStatus, JobStore, QuotaConfig, ShardPool, StorePolicy,
};
use amem_sim::cache::Cache;
use amem_sim::cluster::RankMap;
use amem_sim::config::CoreId;
use amem_sim::dram::{DramChannel, LineThrottle, ThrottleCfg};
use amem_sim::engine::RunLimit;
use amem_sim::prefetch::Prefetcher;
use amem_sim::rng::Xoshiro256;
use amem_sim::stackdist::{spatial_sample, LineTrace, StackDistHistogram};
use amem_sim::stream::{ScriptStream, OP_BATCH};
use amem_sim::tlb::{Tlb, TlbConfig};
use amem_sim::trace::{TraceEvent, TraceRecorder};
use amem_sim::{AccessStream, Job, Machine, MachineConfig, NullController, Op};

use crate::harness::machine;
use crate::spans::Recorder;
use crate::stats::{median, percentile_sorted};
use crate::workloads::cold_sweep::{
    lulesh_cfg, mcb_cfg, probe_shrink, qos_scenario, short_fig1_probe,
};
use crate::workloads::curve_calibrate::{curve_requests, probe_of, record_probe};
use crate::workloads::served::{
    curve_job, drive, request_list, spec, start_daemon, stop_daemon, sweep_job, Spec,
};

/// Least measured time in one sample of a timed row.
pub const MIN_SAMPLE: Duration = Duration::from_millis(100);

/// One per-layer metric.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (0 for an exact count).
    pub samples: usize,
    /// Measured time per sample, ms (0 for an exact count).
    pub sample_ms: f64,
}

/// How a timed row turns (seconds, operations) into its value.
#[derive(Clone, Copy)]
enum Per {
    /// Time per operation, in units of `1 / scale` seconds.
    Op { scale: f64 },
    /// Millions of operations per second.
    MegaRate,
}

pub struct Pass<'r, 't> {
    rec: &'r mut Recorder<'t>,
    samples: usize,
    /// Smaller inputs: the pass checks that every row runs, not its value.
    quick: bool,
    scratch: std::path::PathBuf,
    pub rows: Vec<Row>,
}

const NS: Per = Per::Op { scale: 1e9 };
const US: Per = Per::Op { scale: 1e6 };
const MS: Per = Per::Op { scale: 1e3 };
const S: Per = Per::Op { scale: 1.0 };

impl<'r, 't> Pass<'r, 't> {
    pub fn new(
        rec: &'r mut Recorder<'t>,
        samples: usize,
        quick: bool,
        scratch: std::path::PathBuf,
    ) -> Self {
        Self {
            rec,
            samples,
            quick,
            scratch,
            rows: Vec::new(),
        }
    }

    /// An exact count or a simulated quantity: no timing behind it.
    pub fn exact(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.rows.push(Row {
            name,
            unit,
            value,
            samples: 0,
            sample_ms: 0.0,
        });
    }

    /// A timed row. `batch` makes some calls into the layer and returns
    /// the time spent inside them and how many operations that was; it is
    /// repeated until a sample holds [`MIN_SAMPLE`] of measured time.
    fn timed(
        &mut self,
        name: &'static str,
        unit: &'static str,
        per: Per,
        batch: impl FnMut() -> (Duration, u64),
    ) {
        let floor = if self.quick {
            Duration::from_millis(2)
        } else {
            MIN_SAMPLE
        };
        self.sampled(name, unit, per, floor, batch);
    }

    /// A timed row whose batch fixes its own length: one batch a sample.
    /// For calls that come with untimed waiting (a second thread, a
    /// sleep), where filling [`MIN_SAMPLE`] with measured time alone
    /// would take many times longer than the sample is worth.
    fn timed_once(
        &mut self,
        name: &'static str,
        unit: &'static str,
        per: Per,
        batch: impl FnMut() -> (Duration, u64),
    ) {
        self.sampled(name, unit, per, Duration::ZERO, batch);
    }

    fn sampled(
        &mut self,
        name: &'static str,
        unit: &'static str,
        per: Per,
        floor: Duration,
        mut batch: impl FnMut() -> (Duration, u64),
    ) {
        let samples = self.samples;
        let mut values = Vec::with_capacity(samples);
        let mut measured = Duration::ZERO;
        self.rec.span(name, 0, |_| {
            for _ in 0..samples {
                let (mut time, mut ops) = batch();
                while time < floor {
                    let (t, n) = batch();
                    time += t;
                    ops += n;
                }
                measured += time;
                let secs = time.as_secs_f64();
                values.push(match per {
                    Per::Op { scale } => secs * scale / ops as f64,
                    Per::MegaRate => ops as f64 / secs / 1e6,
                });
            }
        });
        self.rows.push(Row {
            name,
            unit,
            value: median(&values),
            samples,
            sample_ms: measured.as_secs_f64() * 1e3 / samples as f64,
        });
    }

    fn scale(&self, full: u64) -> u64 {
        if self.quick {
            (full / 20).max(1)
        } else {
            full
        }
    }

    /// Every row that needs no workload: run them all.
    pub fn run_all(&mut self) {
        let m = machine();
        // One curve request (and its probe) serves every row that needs
        // a recorded address stream or a curve to ask for.
        let req = curve_requests(&m, 7, 1).remove(0);
        self.streams(&m);
        self.substrate(&m, &req);
        self.engine(&m);
        self.stackdist(&m, &req);
        self.curves(&m, &req);
        let reply = self.points(&m);
        self.executor(&m, &reply);
        self.protocol(&m, &reply);
        self.serve_parts(&m);
        self.server(&m, req);
        self.qos(&m);
    }

    // -- sim::stream --------------------------------------------------------

    fn streams(&mut self, m: &MachineConfig) {
        let cap = self.scale(300_000);
        let probe = short_fig1_probe(m, 7, 1);
        self.timed("sim.stream.probe_ns_per_op", "ns", NS, || {
            let mut machine = Machine::new(m.clone());
            drain(&mut ProbeStream::new(&mut machine, &probe), cap)
        });
        let bw = BwThreadCfg::for_machine(m);
        self.timed("sim.stream.bwthr_ns_per_op", "ns", NS, || {
            let mut machine = Machine::new(m.clone());
            drain(&mut BwThread::new(&mut machine, &bw), cap)
        });
        let cs = CsThreadCfg::for_machine(m);
        self.timed("sim.stream.csthr_ns_per_op", "ns", NS, || {
            let mut machine = Machine::new(m.clone());
            drain(&mut CsThread::new(&mut machine, &cs), cap)
        });
        self.timed("sim.stream.mcb_ns_per_op", "ns", NS, || {
            drain(mcb_rank_stream(m).as_mut(), cap)
        });
    }

    // -- sim::cache, tlb, prefetch, dram ------------------------------------

    fn substrate(&mut self, m: &MachineConfig, req: &CurveRequest) {
        // Recorded address streams: a probe's lines, and one MCB rank's
        // loads and stores.
        let probe_lines: Vec<u64> = record_probe(m, req).lines().collect();
        let mut mcb = TraceRecorder::new(mcb_rank_stream(m));
        let cap = self.scale(400_000) as usize;
        while mcb.trace().events.len() < cap && mcb.next_op() != Op::Done {}
        let mcb_addrs: Vec<u64> = mcb
            .into_trace()
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Load(a) | TraceEvent::Store(a) => Some(*a),
                _ => None,
            })
            .collect();
        // Far above anything the streams touch: lookups here always miss.
        const ELSEWHERE: u64 = 1 << 40;
        let warmed_l3 = || {
            let mut c = Cache::new(&m.l3);
            for &l in &probe_lines {
                if !c.lookup(l, false) {
                    c.fill(l, false);
                }
            }
            c
        };

        let l1_lines = m.l1.lines() / 2;
        let mut l1 = Cache::new(&m.l1).without_ownership();
        for l in 0..l1_lines {
            l1.fill(l, false);
        }
        self.timed("sim.cache.l1_hit_ns", "ns", NS, || {
            let n = 1_000_000u64;
            let t0 = Instant::now();
            let mut hits = 0u64;
            for i in 0..n {
                hits += u64::from(l1.lookup(i % l1_lines, false));
            }
            let t = t0.elapsed();
            assert_eq!(black_box(hits), n, "resident lines must hit");
            (t, n)
        });

        let mut l3 = warmed_l3();
        self.timed("sim.cache.l3_lookup_miss_ns", "ns", NS, || {
            let t0 = Instant::now();
            let mut hits = 0u64;
            for &l in &probe_lines {
                hits += u64::from(l3.lookup(l + ELSEWHERE, false));
            }
            let t = t0.elapsed();
            assert_eq!(black_box(hits), 0, "unfilled lines must miss");
            (t, probe_lines.len() as u64)
        });

        // Fills into a full cache: every access misses and evicts.
        let mut next = ELSEWHERE;
        let mut l3 = warmed_l3();
        self.timed("sim.cache.l3_fill_ns", "ns", NS, || {
            let n = 200_000u64;
            let t0 = Instant::now();
            for l in next..next + n {
                if !l3.lookup(l, false) {
                    black_box(l3.fill(l, false));
                }
            }
            next += n;
            (t0.elapsed(), n)
        });
        let mut l3 = warmed_l3();
        self.timed("sim.cache.fill_demand_ns", "ns", NS, || {
            let n = 200_000u64;
            let t0 = Instant::now();
            for l in next..next + n {
                if !l3.lookup(l, false) {
                    black_box(l3.fill_demand(l, false, None, u32::MAX, 0));
                }
            }
            next += n;
            (t0.elapsed(), n)
        });

        let mut l3 = warmed_l3();
        let resident = m.l3.lines() / 2;
        self.timed("sim.cache.invalidate_ns", "ns", NS, || {
            for l in 0..resident {
                l3.fill(ELSEWHERE + l, false);
            }
            let t0 = Instant::now();
            let mut found = 0u64;
            for l in 0..resident {
                found += u64::from(l3.invalidate(ELSEWHERE + l).is_some());
            }
            let t = t0.elapsed();
            black_box(found);
            (t, resident)
        });

        // 30% stores: `lookup(_, true)` on hits, dirty fills on misses.
        let mut l3 = warmed_l3();
        self.timed("sim.cache.l3_store_mix_ns", "ns", NS, || {
            let t0 = Instant::now();
            for (i, &l) in probe_lines.iter().enumerate() {
                let store = i % 10 < 3;
                if !l3.lookup(l, store) {
                    black_box(l3.fill(l, store));
                }
            }
            (t0.elapsed(), probe_lines.len() as u64)
        });

        let mut tlb = Tlb::new(TlbConfig::xeon_dtlb());
        self.timed("sim.tlb.access_ns", "ns", NS, || {
            let t0 = Instant::now();
            let mut walk = 0u64;
            for &a in &mcb_addrs {
                walk += u64::from(tlb.access(a));
            }
            let t = t0.elapsed();
            black_box(walk);
            (t, mcb_addrs.len() as u64)
        });

        let mut pf = Prefetcher::new(true, m.prefetch_degree.min(4));
        self.timed("sim.prefetch.observe_ns", "ns", NS, || {
            let t0 = Instant::now();
            let mut issued = 0usize;
            for &a in &mcb_addrs {
                issued += pf.observe(a >> 6).n;
            }
            let t = t0.elapsed();
            black_box(issued);
            (t, mcb_addrs.len() as u64)
        });

        let line = m.l3.line_bytes;
        let mut dram = DramChannel::new(m.dram_bytes_per_cycle, line);
        let mut now = 0u64;
        self.timed("sim.dram.demand_ns", "ns", NS, || {
            let n = 1_000_000u64;
            let t0 = Instant::now();
            let mut delay = 0u64;
            for _ in 0..n {
                now += 40;
                delay += dram.demand(now);
            }
            let t = t0.elapsed();
            black_box(delay);
            (t, n)
        });
        self.timed("sim.dram.writeback_ns", "ns", NS, || {
            let n = 1_000_000u64;
            let t0 = Instant::now();
            for _ in 0..n {
                now += 40;
                dram.writeback(now);
            }
            (t0.elapsed(), n)
        });
        black_box(dram.stats());
        let mut throttle = LineThrottle::new(ThrottleCfg {
            lines_per_kilocycle: 50,
            burst_lines: 8,
        });
        self.timed("sim.dram.throttle_acquire_ns", "ns", NS, || {
            let n = 1_000_000u64;
            let t0 = Instant::now();
            let mut wait = 0u64;
            for _ in 0..n {
                now += 10;
                wait += throttle.acquire(now);
            }
            let t = t0.elapsed();
            black_box(wait);
            (t, n)
        });
    }

    // -- sim::engine ----------------------------------------------------------

    fn engine(&mut self, m: &MachineConfig) {
        let n = self.scale(400_000);
        let base = 0x1000_0000u64;
        let one = |ops: Vec<Op>| {
            vec![Job::primary(
                Box::new(ScriptStream::new(ops).with_mlp(4)),
                CoreId::new(0, 0),
            )]
        };
        let random = |seed: u64, store: bool| -> Vec<Op> {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            (0..n)
                .map(|_| {
                    let a = base + rng.below(1 << 16) * 64;
                    if store {
                        Op::Store(a)
                    } else {
                        Op::Load(a)
                    }
                })
                .collect()
        };
        // Eight cores on one socket, each walking its own region; with
        // `barrier_every`, a BSP barrier after every that-many ops.
        let eight = |barrier_every: Option<u64>| -> Vec<Job> {
            (0..8u32)
                .map(|core| {
                    let mut rng = Xoshiro256::seed_from_u64(u64::from(core));
                    let mut ops = Vec::with_capacity(n as usize / 8 + 200);
                    for i in 0..n / 8 {
                        ops.push(Op::Load(
                            base + u64::from(core) * (1 << 26) + rng.below(1 << 15) * 64,
                        ));
                        if barrier_every.is_some_and(|b| (i + 1) % b == 0) {
                            ops.push(Op::Barrier);
                        }
                    }
                    Job::primary(
                        Box::new(ScriptStream::new(ops).with_mlp(4)),
                        CoreId::new(0, core),
                    )
                })
                .collect()
        };
        let run = |jobs: Vec<Job>| {
            let mut machine = Machine::new(m.clone());
            let t0 = Instant::now();
            let report = machine.run(jobs, RunLimit::default());
            let t = t0.elapsed();
            black_box(report);
            (t, n)
        };

        self.timed("sim.engine.seq_load_ns_per_op", "ns", NS, || {
            run(one((0..n)
                .map(|i| Op::Load(base + (i % (1 << 14)) * 64))
                .collect()))
        });
        self.timed("sim.engine.rand_load_ns_per_op", "ns", NS, || {
            run(one(random(7, false)))
        });
        self.timed("sim.engine.rand_store_ns_per_op", "ns", NS, || {
            run(one(random(8, true)))
        });
        self.timed("sim.engine.contention8_ns_per_op", "ns", NS, || {
            run(eight(None))
        });
        self.timed("sim.engine.barrier_ns_per_op", "ns", NS, || {
            run(eight(Some(1000)))
        });
        self.timed("sim.engine.controlled_ns_per_op", "ns", NS, || {
            let jobs = eight(None);
            let mut machine = Machine::new(m.clone());
            let mut ctl = NullController::new(20_000);
            let t0 = Instant::now();
            let report = machine.run_controlled(jobs, RunLimit::default(), &mut ctl);
            let t = t0.elapsed();
            black_box(report);
            (t, n)
        });
    }

    // -- sim::stackdist, sim::trace -----------------------------------------

    fn stackdist(&mut self, m: &MachineConfig, req: &CurveRequest) {
        let probe = probe_of(req);
        let line = m.l3.line_bytes as u64;
        self.timed(
            "sim.stackdist.trace_build_maccess_per_s",
            "M/s",
            Per::MegaRate,
            || {
                let mut machine = Machine::new(m.clone());
                let mut stream = ProbeStream::new(&mut machine, &probe);
                let t0 = Instant::now();
                let trace = LineTrace::from_stream(&mut stream, line);
                (t0.elapsed(), black_box(trace).lines.len() as u64)
            },
        );
        let trace = amem_probes::trace::line_trace(&probe, line);
        self.timed(
            "sim.stackdist.exact_maccess_per_s",
            "M/s",
            Per::MegaRate,
            || {
                let t0 = Instant::now();
                black_box(StackDistHistogram::compute(&trace, 1.0));
                (t0.elapsed(), trace.lines.len() as u64)
            },
        );
        let (sampled, rate) = spatial_sample(&trace, 0.1);
        self.timed(
            "sim.stackdist.sampled_maccess_per_s",
            "M/s",
            Per::MegaRate,
            || {
                let t0 = Instant::now();
                black_box(StackDistHistogram::compute(&sampled, rate));
                (t0.elapsed(), sampled.lines.len() as u64)
            },
        );
        let recorded = record_probe(m, req);
        let refs = recorded.references() as u64;
        self.timed(
            "sim.trace.mattson_maccess_per_s",
            "M/s",
            Per::MegaRate,
            || {
                let t0 = Instant::now();
                black_box(recorded.mrc(&req.capacities_lines));
                (t0.elapsed(), refs)
            },
        );
    }

    // -- core::curve, core::capacity ------------------------------------------

    fn curves(&mut self, m: &MachineConfig, req: &CurveRequest) {
        let fresh = || Executor::memory_only(SimPlatform::new(m.clone()));
        self.timed("core.curve.run_curve_cold_ms", "ms", MS, || {
            let exec = fresh();
            let t0 = Instant::now();
            black_box(exec.run_curve(req).expect("cold curve"));
            (t0.elapsed(), 1)
        });
        let exec = fresh();
        exec.run_curve(req).expect("cold curve");
        self.timed("core.curve.mem_hit_us", "us", US, || {
            let n = 2_000u64;
            let t0 = Instant::now();
            for _ in 0..n {
                black_box(exec.run_curve(req).expect("curve hit"));
            }
            (t0.elapsed(), n)
        });
        let opts = CurveOpts::default();
        self.timed("core.capacity.calibrate_ms", "ms", MS, || {
            let exec = fresh();
            let t0 = Instant::now();
            black_box(CapacityMap::calibrate(&exec, &opts).expect("calibrate"));
            (t0.elapsed(), 1)
        });
    }

    // -- miniapps, probes, interfere: one point each ----------------------------

    /// Times one `SimPlatform::run` per workload kind and hands back the
    /// probe point's `Measurement`, a real reply for the rows below.
    fn points(&mut self, m: &MachineConfig) -> Measurement {
        let platform = SimPlatform::new(m.clone());
        let point = |w: &dyn Workload, pp: usize, mix: InterferenceMix| {
            let t0 = Instant::now();
            let meas = platform.run(w, pp, mix).expect("simulated point");
            (t0.elapsed(), meas)
        };
        let mcb = McbWorkload(mcb_cfg(m, 7));
        self.timed("miniapps.mcb_point_s", "s", S, || {
            let (t, meas) = point(&mcb, 2, InterferenceMix::bandwidth(2));
            black_box(meas);
            (t, 1)
        });
        let lulesh = LuleshWorkload(lulesh_cfg(m, 7));
        self.timed("miniapps.lulesh_point_s", "s", S, || {
            let (t, meas) = point(&lulesh, 2, InterferenceMix::storage(3));
            black_box(meas);
            (t, 1)
        });
        let probe = ProbeWorkload(short_fig1_probe(m, 7, probe_shrink(self.quick)));
        let mut reply = None;
        self.timed("probes.probe_point_s", "s", S, || {
            let (t, meas) = point(&probe, 1, InterferenceMix::storage(2));
            reply = Some(meas);
            (t, 1)
        });
        self.exact(
            "interfere.bwthr_sim_gbs",
            "GB/s",
            amem_interfere::calibrate::bw_thread_gbs(m),
        );
        reply.expect("the probe row ran at least once")
    }

    // -- core::executor plumbing over a canned platform --------------------------

    fn executor(&mut self, m: &MachineConfig, reply: &Measurement) {
        let canned = |delay: Duration| Canned {
            cfg: m.clone(),
            limit: RunLimit::default(),
            reply: reply.clone(),
            delay,
            origin: Instant::now(),
            returned_ns: Arc::new(AtomicU64::new(0)),
        };
        let instant = || canned(Duration::ZERO);
        let probe = |seed: u64| ProbeWorkload(short_fig1_probe(m, seed, 1));
        let mix = InterferenceMix::storage(2);
        let w = probe(1);

        let exec = Executor::memory_only(instant());
        self.timed("core.executor.request_key_us", "us", US, || {
            let n = 2_000u64;
            let t0 = Instant::now();
            for _ in 0..n {
                black_box(exec.request_key(&w, 1, mix));
            }
            (t0.elapsed(), n)
        });
        exec.run(&w, 1, mix).expect("canned run");
        self.timed("core.executor.mem_hit_us", "us", US, || {
            let n = 2_000u64;
            let t0 = Instant::now();
            for _ in 0..n {
                black_box(exec.run(&w, 1, mix).expect("memory hit"));
            }
            (t0.elapsed(), n)
        });

        let dir = self.scratch.join("layer-executor-cache");
        let _ = std::fs::remove_dir_all(&dir);
        Executor::with_cache_dir(instant(), dir.clone())
            .run(&w, 1, mix)
            .expect("populate disk entry");
        self.timed("core.executor.disk_hit_us", "us", US, || {
            // A fresh executor has an empty memory layer: the run is a
            // disk hit.
            let exec = Executor::with_cache_dir(instant(), dir.clone());
            let t0 = Instant::now();
            black_box(exec.run(&w, 1, mix).expect("disk hit"));
            let t = t0.elapsed();
            assert_eq!(exec.stats().disk_hits, 1, "expected a disk hit");
            (t, 1)
        });

        let exec = Executor::with_cache_dir(instant(), dir.clone());
        let mut seed = 1_000u64;
        self.timed("core.executor.miss_store_us", "us", US, || {
            // A key never seen: the canned platform answers at once and
            // the entry goes to disk (tmp file + rename).
            seed += 1;
            let w = probe(seed);
            let t0 = Instant::now();
            black_box(exec.run(&w, 1, mix).expect("miss + store"));
            (t0.elapsed(), 1)
        });
        let _ = std::fs::remove_dir_all(&dir);

        // Two threads on one key: the owner sits in the platform for
        // 2 ms, the second thread arrives meanwhile and joins its
        // in-flight run. Measured: from the platform returning to the
        // waiter having its result.
        let slow = canned(Duration::from_millis(2));
        let (origin, returned_ns) = (slow.origin, Arc::clone(&slow.returned_ns));
        let exec = Executor::memory_only(slow);
        let pairs = self.scale(40);
        self.timed_once("core.executor.dedup_wait_us", "us", US, || {
            let (mut waited, mut joins) = (Duration::ZERO, 0u64);
            for _ in 0..pairs {
                seed += 1;
                let w = probe(seed);
                let joined_before = exec.stats().dedup_hits;
                let got_ns = std::thread::scope(|s| {
                    let owner = s.spawn(|| exec.run(&w, 1, mix).map(|_| ()));
                    std::thread::sleep(Duration::from_micros(500));
                    exec.run(&w, 1, mix).expect("joined run");
                    let got = origin.elapsed().as_nanos() as u64;
                    owner.join().expect("owner thread").expect("owning run");
                    got
                });
                // A waiter that arrived after the owner finished was a
                // memory hit, not a wait.
                if exec.stats().dedup_hits > joined_before {
                    let returned = returned_ns.load(Ordering::SeqCst);
                    waited += Duration::from_nanos(got_ns.saturating_sub(returned));
                    joins += 1;
                }
            }
            assert!(joins > 0, "no waiter ever joined an in-flight run");
            (waited, joins)
        });
    }

    // -- serve::protocol ------------------------------------------------------------

    fn protocol(&mut self, m: &MachineConfig, reply: &Measurement) {
        let measure = Response::ok(7, JobResult::Measurement(reply.clone()));
        let mut buf = Vec::with_capacity(8192);
        self.timed("serve.protocol.encode_measure_us", "us", US, || {
            let n = 500u64;
            let t0 = Instant::now();
            for _ in 0..n {
                buf.clear();
                write_line(&mut buf, &measure).expect("encode");
            }
            (t0.elapsed(), n)
        });
        self.exact(
            "serve.protocol.response_bytes_measure",
            "bytes",
            buf.len() as f64,
        );
        self.timed("serve.protocol.decode_measure_us", "us", US, || {
            let n = 500u64;
            let t0 = Instant::now();
            for _ in 0..n {
                let resp: Option<Response> = read_line(&mut &buf[..]).expect("decode");
                black_box(resp);
            }
            (t0.elapsed(), n)
        });
        let exec = Executor::memory_only(SimPlatform::new(m.clone()));
        let probe = ProbeWorkload(short_fig1_probe(m, 7, 16));
        let sweep = run_sweep(&exec, &probe, 1, InterferenceKind::Storage, 5).expect("sweep");
        let sweep = Response::ok(8, JobResult::Sweep(sweep));
        self.timed("serve.protocol.encode_sweep_us", "us", US, || {
            let n = 500u64;
            let t0 = Instant::now();
            for _ in 0..n {
                buf.clear();
                write_line(&mut buf, &sweep).expect("encode");
            }
            (t0.elapsed(), n)
        });
    }

    // -- serve::scheduler, quota, shard, job, store --------------------------------------

    fn serve_parts(&mut self, m: &MachineConfig) {
        let job = JobSpec::Measure {
            machine: m.clone(),
            workload: WorkloadSpec::Probe(short_fig1_probe(m, 7, 16)),
            per_processor: 1,
            mix: InterferenceMix::storage(2),
        };

        let queue = JobQueue::new(QuotaConfig::unlimited());
        self.timed("serve.scheduler.push_pop_ns", "ns", NS, || {
            let n = 2_000u64;
            let jobs: Vec<QueuedJob> = (0..n)
                .map(|id| QueuedJob {
                    id,
                    tenant: "t".into(),
                    priority: Priority::Normal,
                    spec: Box::new(job.clone()),
                    fault: None,
                    enqueued: Instant::now(),
                    cell: ResultCell::new(),
                })
                .collect();
            let t0 = Instant::now();
            for j in jobs {
                queue.push(j).expect("open queue");
                black_box(queue.pop());
            }
            (t0.elapsed(), n)
        });

        let quotas = TenantQuotas::new(QuotaConfig::default());
        let mut now = 0.0f64;
        self.timed("serve.quota.admit_ns", "ns", NS, || {
            let n = 200_000u64;
            let t0 = Instant::now();
            let mut admitted = 0u64;
            for _ in 0..n {
                now += 0.001;
                admitted += u64::from(quotas.admit_at("tenant", now));
            }
            let t = t0.elapsed();
            black_box(admitted);
            (t, n)
        });

        let pool = ShardPool::new(4, None);
        self.timed("serve.shard.route_us", "us", US, || {
            let n = 2_000u64;
            let t0 = Instant::now();
            for _ in 0..n {
                black_box(pool.route(&job));
            }
            (t0.elapsed(), n)
        });

        let state = self.scratch.join("layer-journal");
        let _ = std::fs::remove_dir_all(&state);
        let journal = JobStore::open(Some(state.clone()));
        let mut id = 0u64;
        self.timed("serve.job.journal_write_us", "us", US, || {
            let n = 100u64;
            let t0 = Instant::now();
            for _ in 0..n {
                id = (id + 1) % 64;
                journal.write(&JobRecord {
                    schema_version: amem_serve::JOB_SCHEMA_VERSION,
                    id,
                    tenant: "t".into(),
                    priority: Priority::Normal,
                    status: JobStatus::Running,
                    error: None,
                    spec: job.clone(),
                });
            }
            (t0.elapsed(), n)
        });
        let _ = std::fs::remove_dir_all(&state);

        let dir = self.scratch.join("layer-store");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create store directory");
        let files = self.scale(1_000);
        for i in 0..files {
            std::fs::write(dir.join(format!("{i:016x}.json")), b"{}").expect("write entry");
        }
        // A size bound nothing reaches: the pass scans and sorts every
        // entry and removes none.
        let store = CacheStore::open(
            dir.clone(),
            StorePolicy {
                max_bytes: Some(u64::MAX),
                ..StorePolicy::default()
            },
        );
        let per_1k = Per::Op {
            scale: 1e3 * 1_000.0 / files as f64,
        };
        self.timed("serve.store.usage_ms_per_1k", "ms", per_1k, || {
            let t0 = Instant::now();
            let usage = store.usage();
            let t = t0.elapsed();
            assert_eq!(usage.entries, files);
            (t, 1)
        });
        self.timed("serve.store.evict_ms_per_1k", "ms", per_1k, || {
            let t0 = Instant::now();
            let usage = store.evict();
            let t = t0.elapsed();
            assert_eq!(usage.entries, files);
            (t, 1)
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -- serve::server over loopback ----------------------------------------------------------

    fn server(&mut self, m: &MachineConfig, req: CurveRequest) {
        let exec = Executor::memory_only(SimPlatform::new(m.clone()));
        let probe = short_fig1_probe(m, 7, 16);
        let mut jobs: Vec<JobSpec> = (0..=5)
            .map(|k| JobSpec::Measure {
                machine: m.clone(),
                workload: WorkloadSpec::Probe(probe),
                per_processor: 1,
                mix: InterferenceMix::storage(k),
            })
            .collect();
        jobs.push(sweep_job(
            m,
            WorkloadSpec::Probe(probe),
            1,
            InterferenceKind::Storage,
            5,
        ));
        jobs.push(curve_job(req));
        let specs: Vec<Spec> = jobs.into_iter().map(|j| spec(&exec, j)).collect();
        let kinds = [0..6, 6..7, 7..8];
        let everything: Vec<usize> = (0..specs.len()).collect();

        let server = start_daemon(None, None, QuotaConfig::unlimited());
        let addr = server.addr();
        // Warm every key: the rows below are hits.
        let (_, _, warm) = drive(addr, &specs, &[everything], self.rec, 0);
        assert_eq!(warm.failed, 0, "warming the layer daemon: {:?}", warm.notes);

        let mut client = Client::connect(addr).expect("connect");
        self.timed("serve.server.ping_rtt_us", "us", US, || {
            let n = 200u64;
            let t0 = Instant::now();
            for _ in 0..n {
                client.ping().expect("ping");
            }
            (t0.elapsed(), n)
        });
        for (name, i) in [
            ("serve.server.measure_hit_rtt_us", 2usize),
            ("serve.server.sweep_hit_rtt_us", 6),
            ("serve.server.curve_hit_rtt_us", 7),
        ] {
            self.timed(name, "us", US, || {
                let n = 100u64;
                let commands: Vec<Command> = (0..n)
                    .map(|_| Command::Submit(Box::new(specs[i].job.clone())))
                    .collect();
                let t0 = Instant::now();
                for c in commands {
                    let resp = client.request(c).expect("hit");
                    assert!(resp.error.is_none(), "daemon refused a hit");
                }
                (t0.elapsed(), n)
            });
        }
        drop(client);

        // A two-client mixed run for the tail and the queue's depth, the
        // depth sampled from a third thread every millisecond.
        let per_client = self.scale(600) as usize;
        let orders: Vec<Vec<usize>> = (0..2)
            .map(|c| request_list(70 + c, per_client, &kinds))
            .collect();
        let done = AtomicBool::new(false);
        let (latencies, depth_max) = std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let mut max = 0u64;
                while !done.load(Ordering::SeqCst) {
                    max = max.max(server.stats().queue_depth);
                    std::thread::sleep(Duration::from_millis(1));
                }
                max
            });
            let (_, latencies, tally) = drive(addr, &specs, &orders, self.rec, 1);
            done.store(true, Ordering::SeqCst);
            assert_eq!(tally.failed, 0, "layer daemon run: {:?}", tally.notes);
            (latencies, sampler.join().expect("sampler thread"))
        });
        self.exact(
            "serve.server.lat_p99_ms",
            "ms",
            percentile_sorted(&latencies, 99.0),
        );
        self.exact("serve.server.queue_depth_max", "count", depth_max as f64);

        // Is the metrics gate free? The same mixed run with the gate off
        // and on, interleaved; the gate is process-wide, so this is the
        // last thing the pass does with a daemon, and it ends switched off.
        let (mut gate_off, mut gate_on) = (Vec::new(), Vec::new());
        for pair in 0..2 {
            for on in [false, true] {
                amem_metrics::set_enabled(on);
                let (wall, _, tally) = drive(addr, &specs, &orders, self.rec, 2 + pair);
                assert_eq!(tally.failed, 0, "metrics-gate run: {:?}", tally.notes);
                if on { &mut gate_on } else { &mut gate_off }.push(wall);
            }
        }
        amem_metrics::set_enabled(false);
        amem_metrics::reset();
        self.exact(
            "metrics.enabled_overhead_frac",
            "frac",
            median(&gate_on) / median(&gate_off) - 1.0,
        );
        stop_daemon(server, addr);

        // What the default quota (200 tokens/s per tenant, burst 400)
        // does to one eager client: deferrals, not throughput.
        let server = start_daemon(None, None, QuotaConfig::default());
        let addr = server.addr();
        let order: Vec<usize> = (0..self.scale(600) as usize).map(|i| i % 6).collect();
        let (_, _, tally) = drive(addr, &specs, &[order], self.rec, 9);
        assert_eq!(tally.failed, 0, "default-quota run: {:?}", tally.notes);
        let stats = stop_daemon(server, addr);
        self.exact(
            "serve.server.default_quota_deferrals",
            "count",
            stats.quota_deferrals as f64,
        );
    }

    // -- qos ---------------------------------------------------------------------------------------

    fn qos(&mut self, m: &MachineConfig) {
        let (scenario, policy) = qos_scenario(m, 7, self.scale(10_000_000));
        let accesses = |report: &amem_sim::RunReport| -> u64 {
            report.jobs.iter().map(|j| j.counters.accesses()).sum()
        };
        self.timed("qos.scenario.naive_ns_per_access", "ns", NS, || {
            let t0 = Instant::now();
            let out = scenario.run_naive();
            (t0.elapsed(), accesses(&out.report))
        });
        let mut controller = None;
        self.timed("qos.scenario.controlled_ns_per_access", "ns", NS, || {
            let t0 = Instant::now();
            let out = scenario.run_controlled(&policy, scenario.default_cfg());
            let t = t0.elapsed();
            let n = accesses(&out.report);
            controller = out.controller;
            (t, n)
        });
        let ctl = controller.expect("a controlled run has a controller");
        self.exact(
            "qos.controller.epochs",
            "count",
            ctl.decisions().len() as f64,
        );
        self.exact(
            "qos.controller.decision_log_bytes",
            "bytes",
            ctl.decision_log_json().len() as f64,
        );
    }
}

/// Pull batches out of a stream until it ends or `cap` ops came out.
fn drain(stream: &mut dyn AccessStream, cap: u64) -> (Duration, u64) {
    let mut buf: Vec<Op> = Vec::with_capacity(OP_BATCH);
    let mut n = 0u64;
    let t0 = Instant::now();
    loop {
        buf.clear();
        stream.next_batch(&mut buf, OP_BATCH);
        n += buf.len() as u64;
        let ended = buf.last().is_none_or(|op| *op == Op::Done);
        black_box(&buf);
        if ended || n >= cap {
            return (t0.elapsed(), n);
        }
    }
}

/// The op stream of MCB's first local rank.
fn mcb_rank_stream(m: &MachineConfig) -> Box<dyn AccessStream> {
    let cfg = mcb_cfg(m, 7);
    let mut machine = Machine::new(m.clone());
    let map = RankMap::new(m, cfg.ranks, 2);
    amem_miniapps::mcb::build_jobs(&mut machine, &cfg, &map)
        .remove(0)
        .stream
}

/// A platform that answers every request with one pre-built measurement,
/// so that only the executor's own plumbing is timed.
struct Canned {
    cfg: MachineConfig,
    limit: RunLimit,
    reply: Measurement,
    /// How long `run` pretends to work.
    delay: Duration,
    origin: Instant,
    /// When `run` last returned, in ns since `origin`.
    returned_ns: Arc<AtomicU64>,
}

impl Platform for Canned {
    fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }

    fn limit(&self) -> &RunLimit {
        &self.limit
    }

    fn run(
        &self,
        _workload: &dyn Workload,
        _per_processor: usize,
        mix: InterferenceMix,
    ) -> Result<Measurement, AmemError> {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        let reply = Measurement {
            mix,
            ..self.reply.clone()
        };
        self.returned_ns
            .store(self.origin.elapsed().as_nanos() as u64, Ordering::SeqCst);
        Ok(reply)
    }
}
