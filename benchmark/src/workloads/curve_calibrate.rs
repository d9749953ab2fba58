//! `curve_calibrate` — the single-pass path that replaced the probe grid.
//!
//! Per round, on a fresh memory-only `Executor`: `CapacityMap::calibrate`
//! over all ten Table II distributions × eight buffer ratios, once exact
//! and once `Sampled { rate: 0.1 }`, then seeded direct
//! `Executor::run_curve` requests, each once cold and once more as a
//! memory hit. All the time is `sim::stream` generation, `sim::stackdist`
//! and `probes::ehr`; **no `Machine` is built**, so engine and substrate
//! work must show nothing here, and work on the stack-distance engines
//! must show here first.

use std::sync::Arc;
use std::time::Instant;

use amem_core::platform::SimPlatform;
use amem_core::{CapacityMap, CurveMode, CurveOpts, CurveRequest, Executor, MissRatioCurve};
use amem_probes::dist::table2;
use amem_probes::probe::{ProbeCfg, ProbeStream};
use amem_sim::rng::SplitMix64;
use amem_sim::trace::{Trace, TraceRecorder};
use amem_sim::{fingerprint_hex, AccessStream, Machine, MachineConfig, Op};

use super::{Ctx, Round, Workload};
use crate::harness::{machine, permutation, sub_seed, Tally};
use crate::spans::Recorder;

/// Buffer sizes of the calibration grid, as ratios of the L3.
const RATIOS: [f64; 8] = [1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0, 3.5];
const MAX_CS: usize = 5;
const SAMPLE_RATE: f64 = 0.1;

pub struct CurveCalibrate {
    machine: MachineConfig,
    opts: CurveOpts,
    /// Direct requests. `[0]` is exact, `[1]` its sampled twin; the rest
    /// are exact with seeded distribution, size and probe seed.
    requests: Vec<CurveRequest>,
    /// Per request: its miss ratio at the lowest, middle and highest
    /// capacity, from the independent Mattson oracle.
    oracles: Vec<Vec<(u64, f64)>>,
    model_err_pct: Option<f64>,
    reference: Option<Vec<String>>,
}

/// Curve requests over the Table II distributions. The cells — which
/// distribution at which buffer size — are the same for every seed, so
/// every seed costs the same; the seed sets each probe's RNG seed and
/// the order of the requests. `[0]` is exact and `[1]` its sampled twin.
pub fn curve_requests(m: &MachineConfig, seed: u64, n: usize) -> Vec<CurveRequest> {
    let dists = table2();
    let ladder = CapacityMap::level_ladder(m, MAX_CS);
    let line = m.l3.line_bytes as u64;
    let mut rng = SplitMix64::new(seed);
    // One slot of `n` goes to the sampled twin, when there is room for it.
    let exact = if n > 1 { n - 1 } else { n };
    let mut out: Vec<CurveRequest> = permutation(exact, &mut rng)
        .into_iter()
        .map(|cell| {
            let probe = ProbeCfg {
                seed: rng.next_u64(),
                ..ProbeCfg::for_machine(
                    m,
                    dists[cell % dists.len()].dist,
                    RATIOS[cell * 3 % RATIOS.len()],
                    1,
                )
            };
            CurveRequest::from_probe(&probe, line, ladder.clone(), CurveMode::Exact)
        })
        .collect();
    if n > 1 {
        let mut twin = out[0].clone();
        twin.mode = CurveMode::Sampled { rate: SAMPLE_RATE };
        out.insert(1, twin);
    }
    out
}

/// The probe whose line trace `req` names (the timing-only knobs a
/// request drops are put back at the values `CurveRequest` itself uses).
pub fn probe_of(req: &CurveRequest) -> ProbeCfg {
    ProbeCfg {
        dist: req.dist,
        buffer_bytes: req.buffer_bytes,
        adds_per_load: 1,
        warm_accesses: req.warm_accesses,
        measure_accesses: req.measure_accesses,
        mlp: 2,
        seed: req.seed,
    }
}

/// The request's probe as a recorded op trace, for the legacy oracle.
pub fn record_probe(m: &MachineConfig, req: &CurveRequest) -> Trace {
    let mut machine = Machine::new(m.clone());
    let mut rec = TraceRecorder::new(ProbeStream::new(&mut machine, &probe_of(req)));
    while rec.next_op() != Op::Done {}
    rec.into_trace()
}

/// Miss ratios of the request's measured phase at `capacities`, by the
/// legacy Mattson stack algorithm over the recorded op trace: nothing in
/// common with the single-pass engine but the probe's address stream.
pub fn mattson_oracle(
    m: &MachineConfig,
    req: &CurveRequest,
    capacities: &[u64],
) -> Vec<(u64, f64)> {
    let distances = record_probe(m, req).reuse_distances();
    let measured = &distances[req.warm_accesses as usize..];
    capacities
        .iter()
        .map(|&c| {
            let misses = measured.iter().filter(|d| d.is_none_or(|d| d >= c)).count();
            (c, misses as f64 / measured.len() as f64)
        })
        .collect()
}

/// Does `curve` agree with independently computed miss ratios?
pub fn curve_matches_oracle(curve: &MissRatioCurve, oracle: &[(u64, f64)], line: u64) -> bool {
    oracle.iter().all(|&(capacity_lines, want)| {
        let got = curve.miss_rate_at((capacity_lines * line) as f64);
        (got - want).abs() <= 1e-12
    })
}

/// Is the sampled curve within the tolerance the repo's own accuracy
/// test (`tests/curve.rs`) grants: four times its reported CI95, and at
/// least 0.06, at every capacity?
pub fn sampled_tracks_exact(exact: &MissRatioCurve, sampled: &MissRatioCurve) -> bool {
    let Some(q) = sampled.quality else {
        return false;
    };
    let tol = (4.0 * q.max_ci95).max(0.06);
    exact.points.len() == sampled.points.len()
        && exact.points.iter().zip(&sampled.points).all(|(e, s)| {
            e.capacity_bytes == s.capacity_bytes && (e.miss_rate - s.miss_rate).abs() <= tol
        })
}

/// More CSThrs never leave more cache.
pub fn ladder_is_non_increasing(map: &CapacityMap) -> bool {
    map.points
        .windows(2)
        .all(|w| w[1].mean_bytes <= w[0].mean_bytes)
}

/// Mean over k of |calibrated − paper| as a share of the L3, in percent.
fn capacity_err_pct(m: &MachineConfig, map: &CapacityMap) -> f64 {
    let paper = CapacityMap::paper_xeon20mb(m);
    let l3 = m.l3.size_bytes as f64;
    let sum: f64 = (0..=MAX_CS)
        .map(|k| (map.available_bytes(k) - paper.available_bytes(k)).abs() / l3)
        .sum();
    sum / (MAX_CS + 1) as f64 * 100.0
}

impl Workload for CurveCalibrate {
    fn setup(ctx: &Ctx, _tally: &mut Tally) -> Self {
        let m = machine();
        let n = if ctx.quick { 4 } else { 16 };
        let requests = curve_requests(&m, sub_seed(ctx.seed, "curves"), n);
        let opts = if ctx.quick {
            CurveOpts::default().with_max_cs(MAX_CS)
        } else {
            CurveOpts::default()
                .with_dist_step(1)
                .with_ratios(RATIOS.to_vec())
                .with_max_cs(MAX_CS)
        };

        let oracles = requests
            .iter()
            .map(|req| {
                let caps = &req.capacities_lines;
                mattson_oracle(
                    &m,
                    req,
                    &[caps[caps.len() - 1], caps[caps.len() / 2], caps[0]],
                )
            })
            .collect();

        Self {
            machine: m,
            opts,
            requests,
            oracles,
            model_err_pct: None,
            reference: None,
        }
    }

    fn round(&mut self, _ctx: &Ctx, rec: &mut Recorder, index: usize) -> Round {
        let exec = Executor::memory_only(SimPlatform::new(self.machine.clone()));
        let request = |i: usize| (index * 100 + i) as u64;

        let started = Instant::now();
        let exact = rec.span("core.capacity.calibrate", request(0), |_| {
            CapacityMap::calibrate(&exec, &self.opts)
        });
        let sampled_opts = self
            .opts
            .clone()
            .with_mode(CurveMode::Sampled { rate: SAMPLE_RATE });
        let sampled = rec.span("core.capacity.calibrate", request(1), |_| {
            CapacityMap::calibrate(&exec, &sampled_opts)
        });
        let mut cold: Vec<Result<Arc<MissRatioCurve>, String>> = Vec::new();
        let mut cold_s = 0.0;
        for (i, req) in self.requests.iter().enumerate() {
            let t0 = Instant::now();
            let curve = rec.span("core.executor.run_curve", request(2 + i), |_| {
                exec.run_curve(req)
            });
            cold_s += t0.elapsed().as_secs_f64();
            cold.push(curve.map_err(|e| e.to_string()));
        }
        let hits: Vec<_> = self
            .requests
            .iter()
            .enumerate()
            .map(|(i, req)| {
                rec.span("core.executor.run_curve", request(2 + i), |_| {
                    exec.run_curve(req)
                })
            })
            .collect();
        let wall_s = started.elapsed().as_secs_f64();
        let cache = exec.stats();

        // Untimed checks.
        let line = self.machine.l3.line_bytes as u64;
        let mut tally = Tally::default();
        let mut prints: Vec<String> = Vec::new();
        for (what, map) in [("exact", &exact), ("sampled", &sampled)] {
            tally.op(
                map.as_ref().is_ok_and(ladder_is_non_increasing),
                || match map {
                    Err(e) => format!("{what} calibration failed: {e}"),
                    Ok(_) => format!("{what} calibrated ladder increases with k"),
                },
            );
            prints.push(map.as_ref().map(fingerprint_hex).unwrap_or_default());
        }
        for (i, curve) in cold.iter().enumerate() {
            let ok = match (curve, i) {
                (Err(_), _) => false,
                (Ok(c), 1) => cold[0]
                    .as_ref()
                    .is_ok_and(|exact| sampled_tracks_exact(exact, c)),
                (Ok(c), _) => curve_matches_oracle(c, &self.oracles[i], line),
            };
            tally.op(ok, || match curve {
                Err(e) => format!("curve {i} failed: {e}"),
                Ok(_) if i == 1 => "sampled curve is outside its tolerance of the exact one".into(),
                Ok(_) => format!("exact curve {i} disagrees with the Mattson oracle"),
            });
            prints.push(
                curve
                    .as_ref()
                    .map(|c| fingerprint_hex(&**c))
                    .unwrap_or_default(),
            );
        }
        for (i, hit) in hits.iter().enumerate() {
            // A hit hands back the very curve the cold request computed.
            let same = match (hit, &cold[i]) {
                (Ok(h), Ok(c)) => Arc::ptr_eq(h, c),
                _ => false,
            };
            tally.op(same, || {
                format!("curve {i}: memory hit is not the cold result")
            });
        }
        let same_as_first = self.reference.as_ref().is_none_or(|first| *first == prints);
        tally.op(same_as_first, || {
            "curve_calibrate results differ from round 0".into()
        });
        let digest = fingerprint_hex(&prints);
        if self.reference.is_none() {
            self.reference = Some(prints);
        }
        if let Ok(map) = &exact {
            self.model_err_pct = Some(capacity_err_pct(&self.machine, map));
        }

        let accesses: u64 = self
            .requests
            .iter()
            .map(|r| r.warm_accesses + r.measure_accesses)
            .sum();
        let mut round = Round {
            wall_s,
            tally,
            cache,
            digest,
            ..Round::default()
        };
        round
            .timings
            .insert("trace_maccess_per_s", accesses as f64 / 1e6 / cold_s);
        round
    }

    fn model_err_pct(&self) -> Option<f64> {
        self.model_err_pct
    }
}
