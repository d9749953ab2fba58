//! Differential trace fuzzing: the production engine vs the reference
//! machine, event for event.
//!
//! Each fuzz case is a seeded, fully deterministic bundle of per-core op
//! lists (a [`TraceCase`]) generated to be adversarial for cache
//! metadata: same-set conflict storms deeper than the associativity,
//! streaming runs that train the prefetcher, dirty-store storms that
//! force writebacks, random churn over a shared region larger than the
//! L3 (cross-core sharing and back-invalidation), CAT way-masked lanes,
//! and BIP-probation lanes (`llc_insert_hint`). The case runs through the
//! production [`Engine`] and through [`refmachine::run`], a second,
//! plainly written machine, and the two [`EventSignature`]s must be
//! equal: every counter of every job, every mark snapshot, every
//! socket's demand/prefetch/writeback/DMA traffic, and the wall-cycle
//! count. So a fault anywhere in the engine — caches, scheduler,
//! dispatch loop, coherence — shows up as a divergence.
//!
//! A failing case can be [`minimize`]d (greedy lane- then chunk-removal,
//! ddmin style) and written to `target/conformance/` as a JSON
//! reproducer that [`replay_file`] re-executes verbatim.
//!
//! [`check_case_with`] plants [`RefFault`]s in the reference machine;
//! the test suite and `conformance --sabotage` use them to prove the
//! harness *fails when it should* and that minimization shrinks the
//! witness to a handful of accesses.

// A `Divergence` deliberately carries the whole failing case plus both
// event signatures: it *is* the reproducer payload, and the Err path is
// the exceptional one by construction.
#![allow(clippy::result_large_err)]

use std::path::{Path, PathBuf};

use amem_sim::cache::InsertPolicy;
use amem_sim::config::{CacheConfig, CoreId, MachineConfig};
use amem_sim::engine::{Engine, EventSignature, Job, RunLimit};
use amem_sim::rng::Xoshiro256;
use amem_sim::stream::{AccessStream, Op};
use amem_sim::tlb::TlbConfig;
use serde::{Deserialize, Serialize};

use crate::refmachine::{self, RefFault};

/// One named cache geometry the fuzzer sweeps.
#[derive(Debug, Clone)]
pub struct FuzzCfg {
    pub name: &'static str,
    pub machine: MachineConfig,
}

/// One core's slice of a fuzz case.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lane {
    pub socket: u32,
    pub core: u32,
    /// Memory-level parallelism of this lane's stream.
    pub mlp: u8,
    /// Whether the lane fills the LLC with a BIP-probation hint
    /// (`llc_insert_hint() == Some(InsertPolicy::Lru)`), exercising the
    /// per-fill insertion override.
    pub probation_hint: bool,
    /// CAT allocation mask for this lane's L3 fills.
    pub l3_way_mask: u32,
    pub ops: Vec<Op>,
}

/// A self-contained, replayable fuzz case: machine geometry plus one op
/// list per core. Serialized verbatim as the reproducer format.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceCase {
    pub config: String,
    pub seed: u64,
    pub machine: MachineConfig,
    pub lanes: Vec<Lane>,
}

impl TraceCase {
    /// Total memory accesses (loads + stores) across all lanes — the
    /// size metric minimization drives down.
    pub fn total_accesses(&self) -> usize {
        self.lanes
            .iter()
            .flat_map(|l| l.ops.iter())
            .filter(|o| matches!(o, Op::Load(_) | Op::Store(_)))
            .count()
    }
}

/// A detected behavioural divergence between the engine and the
/// reference machine.
#[derive(Debug, Clone)]
pub struct Divergence {
    pub case: TraceCase,
    /// Signature from the production engine.
    pub production: EventSignature,
    /// Signature from the reference machine.
    pub reference: EventSignature,
}

impl Divergence {
    /// One-line description of the first differing field, for reports.
    pub fn describe(&self) -> String {
        let (p, r) = (&self.production, &self.reference);
        if p.wall_cycles != r.wall_cycles {
            return format!(
                "{}: wall_cycles {} vs {}",
                self.case.config, p.wall_cycles, r.wall_cycles
            );
        }
        for (i, (pj, rj)) in p.jobs.iter().zip(&r.jobs).enumerate() {
            if pj != rj {
                return format!(
                    "{}: job {i} ({}) counters differ",
                    self.case.config, pj.label
                );
            }
        }
        for (i, (ps, rs)) in p.sockets.iter().zip(&r.sockets).enumerate() {
            if ps != rs {
                return format!("{}: socket {i} traffic differs", self.case.config);
            }
        }
        format!("{}: signatures differ", self.case.config)
    }
}

/// Replay stream for one lane.
struct LaneStream {
    ops: std::vec::IntoIter<Op>,
    mlp: u8,
    hint: bool,
    label: String,
}

impl LaneStream {
    fn new(lane: &Lane) -> Self {
        Self {
            ops: lane.ops.clone().into_iter(),
            mlp: lane.mlp,
            hint: lane.probation_hint,
            label: format!("lane-s{}c{}", lane.socket, lane.core),
        }
    }
}

impl AccessStream for LaneStream {
    fn next_op(&mut self) -> Op {
        self.ops.next().unwrap_or(Op::Done)
    }
    fn mlp(&self) -> u8 {
        self.mlp
    }
    fn label(&self) -> &str {
        &self.label
    }
    fn llc_insert_hint(&self) -> Option<InsertPolicy> {
        self.hint.then_some(InsertPolicy::Lru)
    }
}

fn l3(
    sets: u64,
    ways: u32,
    repl: amem_sim::cache::Replacement,
    ins: InsertPolicy,
    hash: bool,
) -> CacheConfig {
    CacheConfig {
        size_bytes: sets * ways as u64 * 64,
        line_bytes: 64,
        ways,
        latency: 38,
        replacement: repl,
        insert: ins,
        hash_sets: hash,
    }
}

fn tiny_machine(name: &str, l3: CacheConfig) -> MachineConfig {
    // 1/64-scale private caches keep eviction pressure high everywhere.
    let mut m = MachineConfig::xeon20mb().scaled(1.0 / 64.0);
    m.name = name.to_string();
    m.sockets = 1;
    m.cores_per_socket = 2;
    m.l3 = l3;
    m
}

/// The geometry panel the fuzzer sweeps: power-of-two and non-power-of-
/// two set counts, direct-mapped through >64-way fully-associative, all
/// three replacement policies, both insertion extremes, hashed and plain
/// indexing, TLB on and off, one and two sockets.
pub fn configs() -> Vec<FuzzCfg> {
    use amem_sim::cache::Replacement::{BitPlru, Lru, Random};
    let mut v = vec![
        FuzzCfg {
            name: "pow2-mru",
            machine: tiny_machine("pow2-mru", l3(64, 8, Lru, InsertPolicy::Mru, true)),
        },
        FuzzCfg {
            name: "nonpow2-bip",
            machine: tiny_machine("nonpow2-bip", l3(48, 8, Lru, InsertPolicy::Lru, false)),
        },
        FuzzCfg {
            name: "fullassoc-128way",
            machine: tiny_machine(
                "fullassoc-128way",
                l3(1, 128, Lru, InsertPolicy::Mru, false),
            ),
        },
        FuzzCfg {
            name: "bitplru-mid",
            machine: tiny_machine("bitplru-mid", l3(32, 16, BitPlru, InsertPolicy::Mid, true)),
        },
        FuzzCfg {
            name: "random-repl",
            machine: tiny_machine("random-repl", l3(32, 8, Random, InsertPolicy::Mru, false)),
        },
        FuzzCfg {
            name: "directmap-tlb",
            machine: {
                let mut m =
                    tiny_machine("directmap-tlb", l3(128, 1, Lru, InsertPolicy::Mru, false));
                m.tlb = TlbConfig::xeon_dtlb();
                m
            },
        },
        FuzzCfg {
            name: "two-socket",
            machine: {
                let mut m = tiny_machine("two-socket", l3(64, 8, Lru, InsertPolicy::Mru, true));
                m.sockets = 2;
                m
            },
        },
    ];
    // Names double as reproducer file stems; keep them unique.
    v.dedup_by(|a, b| a.name == b.name);
    v
}

/// The shipped Xeon20MB L3 shape at fuzz scale: 20-way LRU over hashed
/// sets. Twenty ways is the one width whose set kernels split unevenly
/// (two 8-lane stamp vectors and a 4-lane remainder), and the only one
/// the paper's figures run on. Kept out of [`configs`]: that panel's
/// length is part of the benchmark's fixed work.
pub fn xeon20way_config() -> FuzzCfg {
    use amem_sim::cache::Replacement::Lru;
    FuzzCfg {
        name: "xeon-20way",
        machine: tiny_machine("xeon-20way", l3(64, 20, Lru, InsertPolicy::Mru, true)),
    }
}

/// [`gen_case`] on [`xeon20way_config`] with a CAT mask on every lane,
/// drawn per seed from masks that end on and cut across the 8|8|4 lane
/// seams (the odd lane also carries the BIP probation hint, as in every
/// case).
pub fn gen_xeon20way_case(seed: u64, ops_per_lane: usize) -> TraceCase {
    const MASKS: [u32; 4] = [u32::MAX, 0x0_0FFF, 0xF_F000, 0xA_5A5A];
    let mut case = gen_case(&xeon20way_config(), seed, ops_per_lane);
    for (i, lane) in case.lanes.iter_mut().enumerate() {
        lane.l3_way_mask = MASKS[(seed >> (2 * i)) as usize % MASKS.len()];
    }
    case
}

/// A non-inclusive L3 no larger than the two L2s it sits over
/// (`inclusive_l3: false`, 16 × 8 lines against 2 × 64): lines that stay
/// hot in a private cache age out of the L3 underneath it, so an L2
/// entry's up-link goes stale while the L2 copy lives — the one setting
/// where the engine's hinted `mark_dirty_at` must fail its tag compare
/// and fall back (DESIGN.md §9). Kept out of [`configs`] like
/// [`xeon20way_config`]: that panel's length is benchmark work.
pub fn noninclusive_config() -> FuzzCfg {
    use amem_sim::cache::Replacement::Lru;
    let mut m = tiny_machine("noninclusive-l3", l3(16, 8, Lru, InsertPolicy::Mru, false));
    m.inclusive_l3 = false;
    FuzzCfg {
        name: "noninclusive-l3",
        machine: m,
    }
}

/// Generate one lane's adversarial op list.
fn gen_lane(rng: &mut Xoshiro256, m: &MachineConfig, flat: usize, len: usize) -> Vec<Op> {
    let l3cfg = &m.l3;
    let set_stride = l3cfg.sets() as u64 * l3cfg.line_bytes as u64;
    let shared = 1u64 << 22;
    let shared_bytes = (l3cfg.size_bytes * 3).max(16 << 10);
    let private = (1u64 << 24) + (flat as u64) * (1u64 << 22);
    let mut ops = Vec::with_capacity(len + 64);
    let mark_at = len * 2 / 5;
    let mut marked = false;
    let mut cursor = private;
    while ops.len() < len {
        if !marked && ops.len() >= mark_at {
            ops.push(Op::Mark);
            marked = true;
        }
        match rng.below(12) {
            // Same-set conflict storm: ~3× associativity distinct lines
            // hammering one set (probation churn, victim-scan stress).
            0 | 1 => {
                let span = (l3cfg.ways as u64) * 3;
                for _ in 0..8 + rng.below(24) {
                    let addr = shared + rng.below(span) * set_stride;
                    if rng.below(4) == 0 {
                        ops.push(Op::Store(addr));
                    } else {
                        ops.push(Op::Load(addr));
                    }
                }
            }
            // Sequential read run: trains the stride prefetcher.
            2 | 3 => {
                for _ in 0..16 + rng.below(96) {
                    ops.push(Op::Load(cursor));
                    cursor += 64;
                }
            }
            // Streaming stores: dirty lines everywhere, writeback storms
            // on eviction.
            4 => {
                for _ in 0..16 + rng.below(64) {
                    ops.push(Op::Store(cursor));
                    cursor += 64;
                }
            }
            // Strided run (3 lines): prefetcher stride retraining and
            // page-boundary clipping.
            5 => {
                for _ in 0..8 + rng.below(40) {
                    ops.push(Op::Load(cursor));
                    cursor += 192;
                }
            }
            // Random churn over a shared region ~3× the L3: capacity
            // evictions, cross-core sharing, coherence invalidations.
            6..=8 => {
                for _ in 0..8 + rng.below(32) {
                    let addr = shared + rng.below(shared_bytes / 8) * 8;
                    if rng.below(3) == 0 {
                        ops.push(Op::Store(addr));
                    } else {
                        ops.push(Op::Load(addr));
                    }
                }
            }
            9 => ops.push(Op::Compute(1 + rng.below(40) as u32)),
            10 => ops.push(Op::RemoteXfer(64 + rng.below(2048) as u32)),
            // Dependent single loads at word granularity.
            _ => {
                let addr = private + (rng.below(1 << 13) * 8);
                ops.push(Op::Load(addr));
            }
        }
    }
    if !marked {
        ops.push(Op::Mark);
    }
    ops
}

/// Generate the full deterministic fuzz case for (config, seed).
pub fn gen_case(cfg: &FuzzCfg, seed: u64, ops_per_lane: usize) -> TraceCase {
    let m = &cfg.machine;
    let mut lanes = Vec::new();
    for s in 0..m.sockets {
        for c in 0..m.cores_per_socket {
            let flat = (s * m.cores_per_socket + c) as usize;
            let mut rng = Xoshiro256::seed_from_u64(seed ^ ((flat as u64 + 1) << 48) ^ 0xC0F0_0000);
            // A partial CAT mask names ways below 32 only; the engine
            // refuses one on a wider L3, so those geometries draw and
            // discard (every lane's ops stay the same) and run unmasked.
            let partial = rng.below(4) == 0 && m.l3.ways <= 32;
            let mask = if partial { 0x0F } else { u32::MAX };
            lanes.push(Lane {
                socket: s,
                core: c,
                mlp: 1 + rng.below(3) as u8,
                probation_hint: flat % 2 == 1,
                l3_way_mask: mask,
                ops: gen_lane(&mut rng, m, flat, ops_per_lane),
            });
        }
    }
    TraceCase {
        config: cfg.name.to_string(),
        seed,
        machine: m.clone(),
        lanes,
    }
}

fn case_jobs(case: &TraceCase) -> Vec<Job> {
    case.lanes
        .iter()
        .map(|l| {
            Job::primary(Box::new(LaneStream::new(l)), CoreId::new(l.socket, l.core))
                .with_l3_ways(l.l3_way_mask)
        })
        .collect()
}

/// Execute a case through the production engine and flatten it to its
/// signature.
pub fn run_case(case: &TraceCase) -> EventSignature {
    Engine::new(&case.machine, case_jobs(case))
        .run(&RunLimit::default())
        .event_signature()
}

/// Execute a case through the reference machine with `faults` planted.
fn run_reference(case: &TraceCase, faults: &[RefFault]) -> EventSignature {
    refmachine::run_faulted(&case.machine, case_jobs(case), &RunLimit::default(), faults)
        .event_signature()
}

fn compare(
    case: &TraceCase,
    production: EventSignature,
    reference: &EventSignature,
) -> Result<(), Divergence> {
    if production == *reference {
        Ok(())
    } else {
        Err(Divergence {
            case: case.clone(),
            production,
            reference: reference.clone(),
        })
    }
}

/// The engine vs the reference machine with `faults` planted, demanding
/// event-for-event equality.
pub fn check_case_with(case: &TraceCase, faults: &[RefFault]) -> Result<(), Divergence> {
    compare(case, run_case(case), &run_reference(case, faults))
}

/// The engine vs the honest reference machine.
pub fn check_case(case: &TraceCase) -> Result<(), Divergence> {
    check_case_with(case, &[])
}

/// Geometry for the ping-pong lane: two sockets × two cores, a small
/// hashed L3 per socket — the maximum-coupling topology (cross-socket
/// sharing, per-socket back-invalidation, four barrier participants).
pub fn pingpong_config() -> FuzzCfg {
    let mut m = tiny_machine(
        PINGPONG,
        l3(
            64,
            8,
            amem_sim::cache::Replacement::Lru,
            InsertPolicy::Mru,
            true,
        ),
    );
    m.sockets = 2;
    FuzzCfg {
        name: PINGPONG,
        machine: m,
    }
}

const PINGPONG: &str = "pingpong-2s";

/// Generate a shared-line ping-pong / barrier-heavy case: every lane
/// hammers the same handful of hot lines (loads and invalidating
/// stores), interleaved with short private runs and compute jitter, in
/// barrier-separated rounds. This is the trace family whose event order
/// is most sensitive to a scheduler that lets a core run past its
/// quantum horizon — the dispatch loop's one failure mode (DESIGN.md
/// §14).
pub fn gen_pingpong_case(seed: u64, ops_per_lane: usize) -> TraceCase {
    let cfg = pingpong_config();
    let m = &cfg.machine;
    // A few lines in one L3 set plus a few spread out: coherence churn
    // both with and without same-set replacement pressure.
    let set_stride = m.l3.sets() as u64 * m.l3.line_bytes as u64;
    let hot: Vec<u64> = (0..4)
        .map(|i| (1u64 << 22) + i * set_stride)
        .chain((0..4).map(|i| (1u64 << 23) + i * 4096))
        .collect();
    let rounds = 6usize;
    let per_round = (ops_per_lane / rounds).max(8);
    let mut lanes = Vec::new();
    for s in 0..m.sockets {
        for c in 0..m.cores_per_socket {
            let flat = (s * m.cores_per_socket + c) as u64;
            let mut rng = Xoshiro256::seed_from_u64(seed ^ ((flat + 1) << 40) ^ 0x9190_9060);
            let private = (1u64 << 26) + flat * (1u64 << 22);
            let mut cursor = private;
            let mut ops = Vec::with_capacity(ops_per_lane + rounds * 2);
            for round in 0..rounds {
                let mut emitted = 0usize;
                while emitted < per_round {
                    match rng.below(8) {
                        // The ping-pong itself: hot-line loads with
                        // invalidating stores mixed in.
                        0..=4 => {
                            for _ in 0..2 + rng.below(6) {
                                let addr = hot[rng.below(hot.len() as u64) as usize];
                                if rng.below(3) == 0 {
                                    ops.push(Op::Store(addr));
                                } else {
                                    ops.push(Op::Load(addr));
                                }
                                emitted += 1;
                            }
                        }
                        // Short private run: keeps the dispatch loop busy
                        // and the prefetcher trained between exchanges.
                        5 | 6 => {
                            for _ in 0..4 + rng.below(12) {
                                ops.push(Op::Load(cursor));
                                cursor += 64;
                                emitted += 1;
                            }
                        }
                        // Compute jitter: desynchronizes arrival times
                        // so barrier release orders vary per seed.
                        _ => {
                            ops.push(Op::Compute(1 + rng.below(30) as u32));
                            emitted += 1;
                        }
                    }
                }
                if round % 2 == 0 {
                    ops.push(Op::Mark);
                }
                ops.push(Op::Barrier);
            }
            lanes.push(Lane {
                socket: s,
                core: c,
                mlp: 1 + rng.below(4) as u8,
                probation_hint: flat % 2 == 1,
                l3_way_mask: u32::MAX,
                ops,
            });
        }
    }
    TraceCase {
        config: cfg.name.to_string(),
        seed,
        machine: m.clone(),
        lanes,
    }
}

/// A named fuzz lane: a seeded case generator.
pub struct FuzzLane {
    pub name: &'static str,
    pub gen: Box<dyn Fn(u64) -> TraceCase + Sync>,
}

/// Every lane `conformance` fuzzes, at `ops_per_lane` ops per core: the
/// [`configs`] panel, `xeon-20way`, `noninclusive-l3` and `pingpong-2s`.
pub fn lanes(ops_per_lane: usize) -> Vec<FuzzLane> {
    let mut v: Vec<FuzzLane> = configs()
        .into_iter()
        .map(|cfg| FuzzLane {
            name: cfg.name,
            gen: Box::new(move |seed| gen_case(&cfg, seed, ops_per_lane)),
        })
        .collect();
    let noninclusive = noninclusive_config();
    v.extend([
        FuzzLane {
            name: "xeon-20way",
            gen: Box::new(move |seed| gen_xeon20way_case(seed, ops_per_lane)),
        },
        FuzzLane {
            name: noninclusive.name,
            gen: Box::new(move |seed| gen_case(&noninclusive, seed, ops_per_lane)),
        },
        FuzzLane {
            name: PINGPONG,
            gen: Box::new(move |seed| gen_pingpong_case(seed, ops_per_lane)),
        },
    ]);
    v
}

/// Outcome of a seed sweep on one config.
#[derive(Debug)]
pub struct FuzzOutcome {
    pub config: String,
    pub seeds_run: u64,
    pub divergences: Vec<Divergence>,
}

/// Fuzz one config across a seed range. Deterministic: the same range
/// always replays the same cases.
pub fn fuzz_config(cfg: &FuzzCfg, seeds: std::ops::Range<u64>, ops_per_lane: usize) -> FuzzOutcome {
    let mut divergences = Vec::new();
    let n = seeds.end - seeds.start;
    for seed in seeds {
        let case = gen_case(cfg, seed, ops_per_lane);
        if let Err(d) = check_case(&case) {
            divergences.push(d);
        }
    }
    FuzzOutcome {
        config: cfg.name.to_string(),
        seeds_run: n,
        divergences,
    }
}

/// Shrink a failing case while `still_fails` holds: drop whole lanes,
/// then remove op chunks per lane at halving granularity (ddmin-style),
/// iterating to a fixpoint. Deterministic given a deterministic checker.
pub fn minimize(case: &TraceCase, still_fails: impl Fn(&TraceCase) -> bool) -> TraceCase {
    assert!(still_fails(case), "minimize requires a failing case");
    let mut cur = case.clone();
    loop {
        let mut progress = false;
        // Whole lanes first: the cheapest big win.
        let mut i = 0;
        while cur.lanes.len() > 1 && i < cur.lanes.len() {
            let mut t = cur.clone();
            t.lanes.remove(i);
            if still_fails(&t) {
                cur = t;
                progress = true;
            } else {
                i += 1;
            }
        }
        // Chunk removal inside each lane.
        for li in 0..cur.lanes.len() {
            let mut chunk = (cur.lanes[li].ops.len() / 2).max(1);
            loop {
                let mut start = 0;
                while start < cur.lanes[li].ops.len() {
                    let end = (start + chunk).min(cur.lanes[li].ops.len());
                    let mut t = cur.clone();
                    t.lanes[li].ops.drain(start..end);
                    if still_fails(&t) {
                        cur = t;
                        progress = true;
                    } else {
                        start += chunk;
                    }
                }
                if chunk == 1 {
                    break;
                }
                chunk /= 2;
            }
        }
        if !progress {
            return cur;
        }
    }
}

/// Default reproducer directory.
pub fn reproducer_dir() -> PathBuf {
    PathBuf::from("target/conformance")
}

/// Serialize a (usually minimized) case for later replay. Returns the
/// file path.
pub fn write_reproducer(case: &TraceCase, dir: impl AsRef<Path>) -> std::io::Result<PathBuf> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-seed{}.json", case.config, case.seed));
    let json = serde_json::to_string(case)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Load a reproducer file and re-check it against the honest reference
/// machine.
pub fn replay_file(path: impl AsRef<Path>) -> std::io::Result<Result<(), Divergence>> {
    let json = std::fs::read_to_string(path)?;
    let case: TraceCase = serde_json::from_str(&json)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(check_case(&case))
}

/// Planted faults, to prove the harness detects and minimizes real
/// defects. Not part of the conformance claim itself.
#[doc(hidden)]
pub mod sabotage {
    use amem_sim::engine::{Engine, RunLimit};

    use super::{Divergence, TraceCase};
    use crate::refmachine::RefFault;

    /// Check a case against the reference machine with the way-scan
    /// off-by-one planted (expected to fail for any trace that ever hits
    /// a last way).
    pub fn check_case_sabotaged(case: &TraceCase) -> Result<(), Divergence> {
        super::check_case_with(case, &[RefFault::WayScanOffByOne])
    }

    /// Planted scheduler bug in the engine itself: every dispatch may run
    /// one cycle past the quantum horizon (`Engine::with_horizon_leak`).
    /// Compared against the reference machine, an access leaking across
    /// the horizon shifts the interleaving on the shared L3, channel and
    /// sharer words, so the fuzz lanes must flag it.
    pub fn check_case_horizon_leaky(case: &TraceCase) -> Result<(), Divergence> {
        let leaky = Engine::new(&case.machine, super::case_jobs(case))
            .with_horizon_leak()
            .run(&RunLimit::default())
            .event_signature();
        super::compare(case, leaky, &super::run_reference(case, &[]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_config_agrees_on_a_seed_sweep() {
        for cfg in configs() {
            let out = fuzz_config(&cfg, 0..3, 1500);
            assert!(
                out.divergences.is_empty(),
                "{}: {}",
                cfg.name,
                out.divergences[0].describe()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = &configs()[0];
        let a = gen_case(cfg, 7, 800);
        let b = gen_case(cfg, 7, 800);
        assert_eq!(a.lanes.len(), b.lanes.len());
        for (la, lb) in a.lanes.iter().zip(&b.lanes) {
            assert_eq!(la.ops, lb.ops);
            assert_eq!(la.mlp, lb.mlp);
        }
        // And a different seed produces different work.
        let c = gen_case(cfg, 8, 800);
        assert!(a.lanes.iter().zip(&c.lanes).any(|(x, y)| x.ops != y.ops));
    }

    #[test]
    fn sabotage_is_caught_and_minimizes_small() {
        // The injected off-by-one must be detected on the very first
        // seed and shrink to a tiny witness.
        let cfg = &configs()[0];
        let case = gen_case(cfg, 0, 1500);
        let d = sabotage::check_case_sabotaged(&case).expect_err("off-by-one must diverge");
        assert_eq!(d.case.config, "pow2-mru");
        let min = minimize(&case, |c| sabotage::check_case_sabotaged(c).is_err());
        assert!(
            min.total_accesses() <= 50,
            "minimized witness too large: {} accesses",
            min.total_accesses()
        );
        // The minimized case still reproduces.
        assert!(sabotage::check_case_sabotaged(&min).is_err());
    }

    /// Seeds of `lane` run, in order from seed 0, until `check` first
    /// diverges (`None`: not within `max` seeds).
    fn seeds_to_detection(
        lane: &FuzzLane,
        max: u64,
        check: impl Fn(&TraceCase) -> Result<(), Divergence>,
    ) -> Option<(u64, Divergence)> {
        (0..max).find_map(|seed| check(&(lane.gen)(seed)).err().map(|d| (seed + 1, d)))
    }

    #[test]
    fn engine_class_faults_are_caught_on_their_lanes_and_minimize_small() {
        // Faults the old same-engine differential could not see (it ran
        // both substrates through one engine): each planted in the
        // reference machine must diverge on its lane after exactly the
        // recorded number of seeds (EXPERIMENTS.md has the whole
        // fault × lane table) and shrink to a small witness.
        let table = [
            (RefFault::L1BackInvalidateSkipped, "two-socket", 1),
            (RefFault::BarrierReleaserRunsOn, "pingpong-2s", 1),
            (RefFault::L2HitStoreCoherent, "two-socket", 3),
        ];
        let lanes = lanes(1500);
        for (fault, name, expected) in table {
            let lane = lanes.iter().find(|l| l.name == name).expect("known lane");
            let check = |c: &TraceCase| check_case_with(c, &[fault]);
            let (seeds, d) = seeds_to_detection(lane, 16, check)
                .unwrap_or_else(|| panic!("{} not caught on {name}", fault.name()));
            assert_eq!(seeds, expected, "{} on {name}", fault.name());
            assert_eq!(d.case.config, name);
            let min = minimize(&d.case, |c| check(c).is_err());
            assert!(
                min.total_accesses() <= 50,
                "{}: minimized witness too large: {} accesses",
                fault.name(),
                min.total_accesses()
            );
        }
    }

    #[test]
    fn pingpong_lane_agrees() {
        for seed in 0..3 {
            let case = gen_pingpong_case(seed, 1200);
            assert!(check_case(&case).is_ok(), "pingpong seed {seed} diverged");
        }
    }

    #[test]
    fn horizon_leak_is_caught_and_minimizes_small() {
        // The planted one-cycle horizon overrun only bites on seeds
        // where a dispatch straddles a quantum boundary mid-exchange;
        // it must be caught within a small deterministic sweep.
        let caught = (0..32u64).find_map(|seed| {
            let case = gen_pingpong_case(seed, 1200);
            sabotage::check_case_horizon_leaky(&case).err()
        });
        let d = caught.expect("horizon leak must diverge within 32 seeds");
        let min = minimize(&d.case, |c| sabotage::check_case_horizon_leaky(c).is_err());
        assert!(
            sabotage::check_case_horizon_leaky(&min).is_err(),
            "minimized witness must still reproduce"
        );
        assert!(
            min.total_accesses() <= d.case.total_accesses(),
            "minimization must not grow the witness"
        );
    }

    #[test]
    fn reproducers_round_trip() {
        let dir = std::env::temp_dir().join("amem-conformance-test");
        for case in [gen_case(&configs()[1], 3, 400), gen_pingpong_case(5, 600)] {
            let path = write_reproducer(&case, &dir).unwrap();
            assert!(
                replay_file(&path).unwrap().is_ok(),
                "honest replay must pass"
            );
            std::fs::remove_file(path).ok();
        }
    }
}
