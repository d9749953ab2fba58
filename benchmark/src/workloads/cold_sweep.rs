//! `cold_sweep` — the cold reproduction path a paper reader waits on.
//!
//! Per round, through a fresh memory-only `Executor` (every point is a
//! miss, so every point simulates): the fig. 1 probe's storage sweep
//! (6 points), the MCB bandwidth sweep k = 0..3 at 2 ranks per
//! processor, Lulesh at 4 ranks per processor under `bandwidth(2)` and
//! `storage(3)`, and one 7-app QoS co-schedule run naive and controlled.
//! At least 95% of the time is the `amem-sim` engine and its cache, TLB,
//! prefetch and DRAM models: loads and stores, up to 8 busy cores,
//! inclusive-LLC back-invalidation, BSP barriers, and the controlled
//! dispatch path with `LineThrottle`. Executor, disk and wire do ≈ 0, so
//! a change to those must show nothing here.
//!
//! The executor is memory-only rather than uncached so that, after the
//! timed section, every point can be fetched again as a memory hit: that
//! is where the full `Measurement`s (exact access counts, fingerprints)
//! come from, without a second simulation and without timing the fetch.

use std::sync::Arc;
use std::time::Instant;

use amem_conformance::fuzz;
use amem_core::platform::{LuleshWorkload, McbWorkload, ProbeWorkload, SimPlatform};
use amem_core::sweep::{run_sweeps, SweepRequest};
use amem_core::{Executor, Measurement};
use amem_interfere::{InterferenceKind, InterferenceMix};
use amem_miniapps::{LuleshCfg, McbCfg};
use amem_probes::probe::ProbeCfg;
use amem_qos::scenario::App;
use amem_qos::{QosPolicy, Scenario};
use amem_sim::config::CoreId;
use amem_sim::rng::SplitMix64;
use amem_sim::{fingerprint_hex, MachineConfig};

use super::{Ctx, Round, Workload};
use crate::harness::{machine, permutation, sub_seed, SimCounts, Tally};
use crate::spans::Recorder;

/// The paper's Eq. 1 bandwidth of one BWThr on Xeon20MB (§III-A), GB/s.
pub const PAPER_BWTHR_GBS: f64 = 2.8;

const FIG1_MAX: usize = 5;
const MCB_MAX: usize = 3;
const MCB_PER_PROCESSOR: usize = 2;
const LULESH_PER_PROCESSOR: usize = 4;
const QOS_TARGET: f64 = 1.3;

/// How far `--quick` shrinks the workloads' fig. 1 probe.
pub fn probe_shrink(quick: bool) -> u64 {
    if quick {
        8
    } else {
        1
    }
}

/// A sweep the round runs as one `run_sweeps` call.
struct SweepPlan<W> {
    workload: W,
    per_processor: usize,
    kind: InterferenceKind,
    max_count: usize,
}

pub struct ColdSweep {
    machine: MachineConfig,
    fig1: SweepPlan<ProbeWorkload>,
    mcb: SweepPlan<McbWorkload>,
    lulesh: LuleshWorkload,
    lulesh_mixes: [InterferenceMix; 2],
    scenario: Scenario,
    policy: QosPolicy,
    order_seed: u64,
    bwthr_gbs: f64,
    /// Per-result fingerprints of round 0; later rounds must match.
    reference: Option<Vec<String>>,
}

/// The fig. 1 probe, shortened: warm-up and measurement of one L3's worth
/// of lines each (the figure uses three), divided further by `shrink`.
/// The same engine paths per access; at `shrink` 1 short enough that a
/// run holds several rounds, at 16 a simulation of tens of milliseconds
/// for callers that only need the key to exist.
pub fn short_fig1_probe(m: &MachineConfig, seed: u64, shrink: u64) -> ProbeCfg {
    let accesses = m.l3.lines() / shrink;
    ProbeCfg {
        warm_accesses: accesses,
        measure_accesses: accesses,
        seed,
        ..amem_core::figures::fig1_probe(m)
    }
}

pub fn mcb_cfg(m: &MachineConfig, seed: u64) -> McbCfg {
    McbCfg {
        seed,
        ..McbCfg::new(m, 20_000)
    }
}

pub fn lulesh_cfg(m: &MachineConfig, seed: u64) -> LuleshCfg {
    LuleshCfg {
        seed,
        ..LuleshCfg::new(LuleshCfg::scaled_edge(m, 22))
    }
}

/// A DRAM-bound victim with six streaming aggressors on one socket.
pub fn qos_scenario(m: &MachineConfig, seed: u64, max_cycles: u64) -> (Scenario, QosPolicy) {
    let mut apps = vec![App::dram_bound("victim", m, CoreId::new(0, 0), seed)];
    for i in 0..6u32 {
        apps.push(App::stream(&format!("bw{i}"), m, CoreId::new(0, 1 + i)));
    }
    (
        Scenario::new(m.clone(), apps, max_cycles),
        QosPolicy::none().with_target("victim", QOS_TARGET),
    )
}

impl Workload for ColdSweep {
    fn setup(ctx: &Ctx, tally: &mut Tally) -> Self {
        let m = machine();
        let (scenario, policy) = qos_scenario(
            &m,
            sub_seed(ctx.seed, "qos"),
            if ctx.quick { 1_000_000 } else { 10_000_000 },
        );

        // The simulator under the timings must be the model the repo
        // validates: production substrate vs the reference, event for
        // event, on seeded fuzz cases.
        let configs = fuzz::configs();
        let cases = if ctx.quick { 7 } else { 100 };
        let fuzz_seed = sub_seed(ctx.seed, "fuzz");
        for i in 0..cases {
            let cfg = &configs[i % configs.len()];
            let case = fuzz::gen_case(cfg, fuzz_seed.wrapping_add(i as u64), 1500);
            let res = fuzz::check_case(&case);
            tally.op(res.is_ok(), || {
                format!("fuzz case {} seed {} diverges", cfg.name, case.seed)
            });
        }

        Self {
            fig1: SweepPlan {
                workload: ProbeWorkload(short_fig1_probe(
                    &m,
                    sub_seed(ctx.seed, "probe"),
                    probe_shrink(ctx.quick),
                )),
                per_processor: 1,
                kind: InterferenceKind::Storage,
                max_count: FIG1_MAX,
            },
            mcb: SweepPlan {
                workload: McbWorkload(mcb_cfg(&m, sub_seed(ctx.seed, "mcb"))),
                per_processor: MCB_PER_PROCESSOR,
                kind: InterferenceKind::Bandwidth,
                max_count: MCB_MAX,
            },
            lulesh: LuleshWorkload(lulesh_cfg(&m, sub_seed(ctx.seed, "lulesh"))),
            lulesh_mixes: [InterferenceMix::bandwidth(2), InterferenceMix::storage(3)],
            scenario,
            policy,
            order_seed: sub_seed(ctx.seed, "order"),
            bwthr_gbs: amem_interfere::calibrate::bw_thread_gbs(&m),
            reference: None,
            machine: m,
        }
    }

    fn round(&mut self, _ctx: &Ctx, rec: &mut Recorder, index: usize) -> Round {
        let exec = Executor::memory_only(SimPlatform::new(self.machine.clone()));
        let order = permutation(
            4,
            &mut SplitMix64::new(self.order_seed.wrapping_add(index as u64)),
        );
        let request = |phase: usize| (index * 10 + phase) as u64;

        let mut fig1 = None;
        let mut mcb = None;
        let mut lulesh = Vec::new();
        let mut qos = None;
        let started = Instant::now();
        for phase in order {
            match phase {
                0 => fig1 = Some(run_plan(&exec, &self.fig1, rec, request(0))),
                1 => mcb = Some(run_plan(&exec, &self.mcb, rec, request(1))),
                2 => {
                    for mix in self.lulesh_mixes {
                        lulesh.push(rec.span("core.executor.run", request(2), |_| {
                            exec.run(&self.lulesh, LULESH_PER_PROCESSOR, mix)
                        }));
                    }
                }
                _ => {
                    let naive = rec.span("qos.scenario.run_naive", request(3), |_| {
                        self.scenario.run_naive()
                    });
                    let controlled = rec.span("qos.scenario.run_controlled", request(3), |_| {
                        self.scenario
                            .run_controlled(&self.policy, self.scenario.default_cfg())
                    });
                    qos = Some((naive, controlled));
                }
            }
        }
        let wall_s = started.elapsed().as_secs_f64();
        let cache = exec.stats();

        // Untimed from here: fetch every point back as a memory hit and
        // compare it with round 0.
        let mut results: Vec<Result<String, String>> = Vec::new();
        let mut sim = SimCounts::default();
        let line = self.machine.l3.line_bytes;
        let mut take = |m: Result<Arc<Measurement>, String>| {
            results.push(m.map(|m| {
                sim.add_report(&m.report, line);
                fingerprint_hex(&*m)
            }))
        };
        collect_plan(&exec, &self.fig1, fig1.expect("phase 0 ran"), &mut take);
        collect_plan(&exec, &self.mcb, mcb.expect("phase 1 ran"), &mut take);
        for m in lulesh {
            take(m.map_err(|e| e.to_string()));
        }
        let (naive, controlled) = qos.expect("phase 3 ran");
        let decisions = controlled
            .controller
            .as_ref()
            .map(|c| c.decision_log_json())
            .unwrap_or_default();
        for outcome in [&naive, &controlled] {
            sim.add_report(&outcome.report, line);
            results.push(Ok(fingerprint_hex(&outcome.report)));
        }
        // The controller's decision log is an output in its own right.
        results.push(Ok(fingerprint_hex(&decisions)));

        let mut tally = Tally::default();
        for (i, res) in results.iter().enumerate() {
            let same = match (&self.reference, res) {
                (Some(first), Ok(fp)) => first.get(i) == Some(fp),
                _ => true,
            };
            tally.op(res.is_ok() && same, || match res {
                Err(e) => format!("cold_sweep result {i} failed: {e}"),
                Ok(_) => format!("cold_sweep result {i} differs from round 0"),
            });
        }
        let fingerprints: Vec<String> =
            results.into_iter().map(|r| r.unwrap_or_default()).collect();
        let digest = fingerprint_hex(&fingerprints);
        if self.reference.is_none() {
            self.reference = Some(fingerprints);
        }

        let mut round = Round {
            wall_s,
            tally,
            sim,
            cache,
            digest,
            ..Round::default()
        };
        round
            .timings
            .insert("sim_maccess_per_s", sim.accesses as f64 / 1e6 / wall_s);
        round
    }

    fn model_err_pct(&self) -> Option<f64> {
        Some((self.bwthr_gbs - PAPER_BWTHR_GBS).abs() / PAPER_BWTHR_GBS * 100.0)
    }
}

fn run_plan<W: amem_core::platform::Workload>(
    exec: &Executor,
    plan: &SweepPlan<W>,
    rec: &mut Recorder,
    request: u64,
) -> Result<(), String> {
    rec.span("core.sweep.run_sweeps", request, |_| {
        run_sweeps(
            exec,
            &[SweepRequest {
                workload: &plan.workload,
                per_processor: plan.per_processor,
                kind: plan.kind,
                max_count: plan.max_count,
            }],
        )
    })
    .map_err(|e| e.to_string())
    .and_then(|sweeps| {
        let s = &sweeps[0];
        if s.points.len() == plan.max_count + 1 && !s.is_degraded() {
            Ok(())
        } else {
            Err(format!(
                "{} sweep returned {} of {} points",
                plan.workload.name(),
                s.points.len(),
                plan.max_count + 1
            ))
        }
    })
}

/// Hand every point of a finished sweep to `take`, as the memory hit the
/// executor now serves it from.
fn collect_plan<W: amem_core::platform::Workload>(
    exec: &Executor,
    plan: &SweepPlan<W>,
    ran: Result<(), String>,
    take: &mut impl FnMut(Result<Arc<Measurement>, String>),
) {
    for k in 0..=plan.max_count {
        take(ran.clone().and_then(|()| {
            exec.run(
                &plan.workload,
                plan.per_processor,
                InterferenceMix::of_kind(plan.kind, k),
            )
            .map_err(|e| e.to_string())
        }));
    }
}
