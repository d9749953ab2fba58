//! `served_warm` and `served_cold` — the same daemon from both sides.
//!
//! Both start an in-process `Server` (its defaults: `workers: 2`,
//! `shards: 4`; quotas unlimited) per round and drive it with two closed-loop
//! `Client`s over loopback TCP: every real caller (the figure binaries,
//! `amem-client`) waits for its reply before sending the next request.
//! Quotas are unlimited because the default (200 tokens/s per tenant)
//! caps a warm daemon at exactly the bucket rate — that would benchmark
//! the token bucket, not the daemon.
//!
//! `served_warm` points the daemon at a cache directory a *library*
//! executor filled during set-up, and sends seeded requests (70%
//! `Measure`, 15% `Sweep`, 15% `Curve`) over keys that are all present:
//! the first touch of a key is a disk hit, every later one a memory hit,
//! and nothing simulates. The time is key construction and lookup in
//! `core::executor`, the daemon's queue, routing and worker hand-off,
//! and JSON both ways. `amem-sim` does nothing.
//!
//! `served_cold` gives the daemon an empty cache directory and a journal,
//! and has both clients submit the same job list in opposite orders, so
//! every point is simulated once, stored once and waited for once: disk
//! stores with atomic renames, in-flight dedup waits, job journaling and
//! long jobs holding workers, over real simulation. A faster hit path
//! bought with a slower miss or store path shows here.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use amem_core::platform::{Measurement, SimPlatform};
use amem_core::sweep::run_sweep;
use amem_core::{AmemError, CurveRequest, Executor};
use amem_interfere::{InterferenceKind, InterferenceMix};
use amem_probes::dist::table2;
use amem_probes::probe::ProbeCfg;
use amem_serve::protocol::{Command, JobResult, JobSpec, ServeStats, WorkloadSpec};
use amem_serve::{Client, JobRecord, JobStatus, QuotaConfig, ServeConfig, Server};
use amem_sim::rng::SplitMix64;
use amem_sim::{fingerprint_hex, MachineConfig};

use super::cold_sweep::{lulesh_cfg, mcb_cfg, probe_shrink, short_fig1_probe};
use super::curve_calibrate::curve_requests;
use super::{Ctx, Round, Workload};
use crate::harness::{machine, permutation, sub_seed, SimCounts, Tally};
use crate::spans::Recorder;
use crate::stats::percentile_sorted;

/// Closed-loop clients; at most the host's core count (2 here).
pub const CLIENTS: usize = 2;
const WARM_PROBES: usize = 8;
const WARM_LEVELS: usize = 5;
const WARM_CURVES: usize = 16;

/// One request the clients may send, with the reply a library call gives.
pub struct Spec {
    pub job: JobSpec,
    /// `serde_json` text of the `JobResult` the daemon must return.
    pub expected: String,
}

/// What a library caller gets for `job`: the same entry points the
/// daemon's workers call, on an executor of the benchmark's own.
fn library_result(exec: &Executor, job: &JobSpec) -> Result<JobResult, AmemError> {
    Ok(match job {
        JobSpec::Measure {
            workload,
            per_processor,
            mix,
            ..
        } => {
            let w = workload.build();
            JobResult::Measurement((*exec.run(w.as_ref(), *per_processor, *mix)?).clone())
        }
        JobSpec::Sweep {
            workload,
            per_processor,
            kind,
            max_count,
            ..
        } => {
            let w = workload.build();
            JobResult::Sweep(run_sweep(
                exec,
                w.as_ref(),
                *per_processor,
                *kind,
                *max_count,
            )?)
        }
        JobSpec::Curve { request } => JobResult::Curve((*exec.run_curve(request)?).clone()),
        JobSpec::Calibrate { .. } => unreachable!("the benchmark sends no Calibrate jobs"),
    })
}

pub fn spec(exec: &Executor, job: JobSpec) -> Spec {
    let result = library_result(exec, &job).expect("library reference result");
    Spec {
        expected: serde_json::to_string(&result).expect("serialize reference result"),
        job,
    }
}

/// Is `reply` byte-for-byte the library's result?
pub fn reply_matches(expected: &str, reply: &JobResult) -> bool {
    serde_json::to_string(reply).is_ok_and(|got| got == expected)
}

pub fn sweep_job(
    m: &MachineConfig,
    workload: WorkloadSpec,
    pp: usize,
    kind: InterferenceKind,
    max: usize,
) -> JobSpec {
    JobSpec::Sweep {
        machine: m.clone(),
        workload,
        per_processor: pp,
        kind,
        max_count: max,
    }
}

pub fn curve_job(request: CurveRequest) -> JobSpec {
    JobSpec::Curve { request }
}

/// The daemon at its defaults (`workers: 2`, `shards: 4`), in process.
pub fn start_daemon(
    cache_dir: Option<PathBuf>,
    state_dir: Option<PathBuf>,
    quota: QuotaConfig,
) -> Server {
    Server::start(ServeConfig {
        cache_dir,
        state_dir,
        quota,
        ..ServeConfig::default()
    })
    .expect("start in-process daemon")
}

/// Drain the daemon and join its threads.
pub fn stop_daemon(server: Server, addr: SocketAddr) -> ServeStats {
    Client::connect(addr)
        .and_then(|mut c| c.shutdown())
        .expect("drain daemon");
    server.wait()
}

/// One client's share of a round.
struct ClientRun {
    latencies_ms: Vec<f64>,
    tally: Tally,
}

/// Send `order` (indices into `specs`) one at a time, each after the
/// previous reply. The latency timer covers `Client::request` only; the
/// reply check runs between requests, outside it.
fn client_loop(
    addr: SocketAddr,
    tenant: String,
    specs: &[Spec],
    order: &[usize],
    start: &Barrier,
    rec: &mut Recorder,
    first_request: u64,
) -> ClientRun {
    let mut client = Client::connect(addr).expect("connect to daemon");
    client.tenant = tenant;
    let mut run = ClientRun {
        latencies_ms: Vec::with_capacity(order.len()),
        tally: Tally::default(),
    };
    start.wait();
    for (n, &i) in order.iter().enumerate() {
        let command = Command::Submit(Box::new(specs[i].job.clone()));
        let t0 = Instant::now();
        let reply = rec.span("serve.client.request", first_request + n as u64, |_| {
            client.request(command)
        });
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let ok = match &reply {
            Ok(resp) => resp
                .result
                .as_ref()
                .is_some_and(|r| reply_matches(&specs[i].expected, r)),
            Err(_) => false,
        };
        if ok {
            run.latencies_ms.push(latency_ms);
        }
        run.tally.op(ok, || match &reply {
            Err(e) => format!("request {i}: {e}"),
            Ok(resp) => match &resp.error {
                Some(e) => format!("request {i} refused: {e}"),
                None => format!("request {i}: reply differs from the library result"),
            },
        });
    }
    run
}

/// Run every client's order against the daemon at `addr`; returns the
/// timed wall, all latencies (sorted) and the merged tally.
pub fn drive(
    addr: SocketAddr,
    specs: &[Spec],
    orders: &[Vec<usize>],
    rec: &mut Recorder,
    round: usize,
) -> (f64, Vec<f64>, Tally) {
    let start = Barrier::new(orders.len() + 1);
    let (wall_s, runs) = rec.span("bench.round.clients", round as u64, |rec| {
        std::thread::scope(|s| {
            let handles: Vec<_> = orders
                .iter()
                .enumerate()
                .map(|(c, order)| {
                    let mut rec = rec.fork(c as u32 + 1);
                    let start = &start;
                    let first = ((round * orders.len() + c) * 1_000_000) as u64;
                    s.spawn(move || {
                        client_loop(
                            addr,
                            format!("client-{c}"),
                            specs,
                            order,
                            start,
                            &mut rec,
                            first,
                        )
                    })
                })
                .collect();
            start.wait();
            let t0 = Instant::now();
            let runs: Vec<ClientRun> = handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect();
            (t0.elapsed().as_secs_f64(), runs)
        })
    });
    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    for run in runs {
        latencies.extend(run.latencies_ms);
        tally.merge(run.tally);
    }
    latencies.sort_by(f64::total_cmp);
    (wall_s, latencies, tally)
}

fn latency_timings(round: &mut Round, latencies: &[f64], requests: usize) {
    round
        .timings
        .insert("req_per_s", latencies.len() as f64 / round.wall_s);
    // A percentile needs ten samples beyond it to mean anything.
    if requests >= 200 && !latencies.is_empty() {
        round
            .timings
            .insert("lat_p50_ms", percentile_sorted(latencies, 50.0));
        round
            .timings
            .insert("lat_p95_ms", percentile_sorted(latencies, 95.0));
    }
    if requests >= 1000 && !latencies.is_empty() {
        round
            .timings
            .insert("lat_p99_ms", percentile_sorted(latencies, 99.0));
    }
}

// ---------------------------------------------------------------------------
// served_warm
// ---------------------------------------------------------------------------

pub struct ServedWarm {
    cache_dir: PathBuf,
    specs: Vec<Spec>,
    /// Per client: the seeded request list, as indices into `specs`.
    orders: Vec<Vec<usize>>,
}

/// The request list of one client: 70% `Measure`, 15% `Sweep`, 15%
/// `Curve`, spread evenly over the keys of each kind, in seeded order.
/// The composition is the same for every seed, so every seed costs the
/// same; the seed decides which request meets which state of the cache.
/// `kinds` holds the `specs` index range of each kind, in that order.
pub fn request_list(seed: u64, n: usize, kinds: &[std::ops::Range<usize>; 3]) -> Vec<usize> {
    let share = [n * 70 / 100, n * 15 / 100];
    let counts = [share[0], share[1], n - share[0] - share[1]];
    let list: Vec<usize> = kinds
        .iter()
        .zip(counts)
        .flat_map(|(kind, count)| (0..count).map(move |i| kind.start + i % kind.len()))
        .collect();
    permutation(n, &mut SplitMix64::new(seed))
        .into_iter()
        .map(|i| list[i])
        .collect()
}

impl Workload for ServedWarm {
    fn setup(ctx: &Ctx, _tally: &mut Tally) -> Self {
        let m = machine();
        let cache_dir = ctx.scratch.join("warm-cache");
        let _ = std::fs::remove_dir_all(&cache_dir);
        let exec = Executor::with_cache_dir(SimPlatform::new(m.clone()), cache_dir.clone());

        // Small probes: the benchmark is of the hit path, so set-up only
        // needs each key to exist, not to be a long simulation.
        let dists = table2();
        let mut rng = SplitMix64::new(sub_seed(ctx.seed, "warm-probes"));
        let probes: Vec<ProbeCfg> = (0..WARM_PROBES)
            .map(|i| {
                let accesses = m.l3.lines() / 16;
                ProbeCfg {
                    warm_accesses: accesses,
                    measure_accesses: accesses,
                    seed: rng.next_u64(),
                    ..ProbeCfg::for_machine(&m, dists[i].dist, 2.0, 1)
                }
            })
            .collect();

        let mut jobs: Vec<JobSpec> = Vec::new();
        for p in &probes {
            for k in 0..=WARM_LEVELS {
                jobs.push(JobSpec::Measure {
                    machine: m.clone(),
                    workload: WorkloadSpec::Probe(*p),
                    per_processor: 1,
                    mix: InterferenceMix::storage(k),
                });
            }
        }
        let measures = 0..jobs.len();
        for p in &probes {
            jobs.push(sweep_job(
                &m,
                WorkloadSpec::Probe(*p),
                1,
                InterferenceKind::Storage,
                WARM_LEVELS,
            ));
        }
        let sweeps = measures.end..jobs.len();
        let n_curves = if ctx.quick { 4 } else { WARM_CURVES };
        jobs.extend(
            curve_requests(&m, sub_seed(ctx.seed, "warm-curves"), n_curves)
                .into_iter()
                .map(curve_job),
        );
        let kinds = [measures, sweeps.clone(), sweeps.end..jobs.len()];
        let specs: Vec<Spec> = jobs.into_iter().map(|job| spec(&exec, job)).collect();

        let per_client = if ctx.quick { 150 } else { 2500 };
        let orders = (0..CLIENTS)
            .map(|c| {
                request_list(
                    sub_seed(ctx.seed, &format!("warm-requests-{c}")),
                    per_client,
                    &kinds,
                )
            })
            .collect();

        // The first daemon start over this directory belongs to set-up.
        let server = start_daemon(Some(cache_dir.clone()), None, QuotaConfig::unlimited());
        let addr = server.addr();
        Client::connect(addr)
            .and_then(|mut c| c.ping())
            .expect("ping fresh daemon");
        stop_daemon(server, addr);

        Self {
            cache_dir,
            specs,
            orders,
        }
    }

    fn round(&mut self, _ctx: &Ctx, rec: &mut Recorder, index: usize) -> Round {
        let server = rec.span("serve.server.start", index as u64, |_| {
            start_daemon(Some(self.cache_dir.clone()), None, QuotaConfig::unlimited())
        });
        let addr = server.addr();
        let (wall_s, latencies, mut tally) = drive(addr, &self.specs, &self.orders, rec, index);
        let stats = rec.span("serve.server.drain", index as u64, |_| {
            stop_daemon(server, addr)
        });

        let requests: usize = self.orders.iter().map(Vec::len).sum();
        tally.op(
            stats.cache.sim_runs == 0 && stats.cache.curves().runs == 0,
            || format!("warm daemon simulated: {:?}", stats.cache),
        );
        tally.op(stats.quota_deferrals == 0, || {
            format!(
                "{} quota deferrals under unlimited quotas",
                stats.quota_deferrals
            )
        });
        tally.op(
            stats.jobs_failed == 0 && stats.jobs_completed == requests as u64,
            || {
                format!(
                    "daemon completed {} and failed {} of {requests} jobs",
                    stats.jobs_completed, stats.jobs_failed
                )
            },
        );

        let mut round = Round {
            wall_s,
            tally,
            cache: stats.cache,
            // Replies are compared byte for byte with fixed references,
            // so the digest of what was sent is the digest of the round.
            digest: fingerprint_hex(&self.orders),
            ..Round::default()
        };
        latency_timings(&mut round, &latencies, requests);
        round
    }
}

// ---------------------------------------------------------------------------
// served_cold
// ---------------------------------------------------------------------------

pub struct ServedCold {
    scratch: PathBuf,
    specs: Vec<Spec>,
    /// Distinct measurement points and curves the job list contains.
    unique_points: u64,
    unique_curves: u64,
    /// Simulated work behind the job list, from the library references.
    sim: SimCounts,
}

/// `*.tmp.*` scratch files left in a cache directory.
pub fn leftover_tmp_files(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
                .count()
        })
        .unwrap_or(0)
}

/// Journal records under `state_dir` that reached `Done`, and all records.
pub fn journal_done(state_dir: &Path) -> (usize, usize) {
    let Ok(rd) = std::fs::read_dir(state_dir.join("jobs")) else {
        return (0, 0);
    };
    let mut done = 0;
    let mut all = 0;
    for entry in rd.flatten() {
        let Ok(json) = std::fs::read_to_string(entry.path()) else {
            continue;
        };
        all += 1;
        if serde_json::from_str::<JobRecord>(&json).is_ok_and(|r| r.status == JobStatus::Done) {
            done += 1;
        }
    }
    (done, all)
}

impl Workload for ServedCold {
    fn setup(ctx: &Ctx, _tally: &mut Tally) -> Self {
        let m = machine();
        let exec = Executor::memory_only(SimPlatform::new(m.clone()));
        let fig1 = short_fig1_probe(&m, sub_seed(ctx.seed, "probe"), probe_shrink(ctx.quick));
        let mut jobs = vec![
            sweep_job(
                &m,
                WorkloadSpec::Probe(fig1),
                1,
                InterferenceKind::Storage,
                5,
            ),
            sweep_job(
                &m,
                WorkloadSpec::Mcb(mcb_cfg(&m, sub_seed(ctx.seed, "mcb"))),
                2,
                InterferenceKind::Bandwidth,
                3,
            ),
            JobSpec::Measure {
                machine: m.clone(),
                workload: WorkloadSpec::Lulesh(lulesh_cfg(&m, sub_seed(ctx.seed, "lulesh"))),
                per_processor: 4,
                mix: InterferenceMix::storage(3),
            },
        ];
        // Four exact curves (index 1 of the generator is a sampled twin).
        jobs.extend(
            curve_requests(&m, sub_seed(ctx.seed, "cold-curves"), 6)
                .into_iter()
                .filter(|r| r.mode == amem_core::CurveMode::Exact)
                .take(4)
                .map(curve_job),
        );
        let specs: Vec<Spec> = jobs.into_iter().map(|job| spec(&exec, job)).collect();

        // The exact simulated work behind the list: fetch each point
        // back from the reference executor (memory hits).
        let mut sim = SimCounts::default();
        let line = m.l3.line_bytes;
        let mut count = |meas: &Measurement| sim.add_report(&meas.report, line);
        for s in &specs {
            match &s.job {
                JobSpec::Sweep {
                    workload,
                    per_processor,
                    kind,
                    max_count,
                    ..
                } => {
                    let w = workload.build();
                    for k in 0..=*max_count {
                        let mix = InterferenceMix::of_kind(*kind, k);
                        count(
                            &exec
                                .run(w.as_ref(), *per_processor, mix)
                                .expect("memory hit"),
                        );
                    }
                }
                JobSpec::Measure {
                    workload,
                    per_processor,
                    mix,
                    ..
                } => {
                    let w = workload.build();
                    count(
                        &exec
                            .run(w.as_ref(), *per_processor, *mix)
                            .expect("memory hit"),
                    );
                }
                _ => {}
            }
        }
        let stats = exec.stats();
        Self {
            scratch: ctx.scratch.clone(),
            specs,
            unique_points: stats.sim_runs,
            unique_curves: stats.curves().runs,
            sim,
        }
    }

    fn round(&mut self, _ctx: &Ctx, rec: &mut Recorder, index: usize) -> Round {
        let cache_dir = self.scratch.join(format!("cold-cache-{index}"));
        let state_dir = self.scratch.join(format!("cold-state-{index}"));
        for dir in [&cache_dir, &state_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
        let server = rec.span("serve.server.start", index as u64, |_| {
            start_daemon(
                Some(cache_dir.clone()),
                Some(state_dir.clone()),
                QuotaConfig::unlimited(),
            )
        });
        let addr = server.addr();

        // Same list, opposite orders: each point has one owner and one
        // waiter, whichever client gets there first.
        let forward: Vec<usize> = (0..self.specs.len()).collect();
        let backward: Vec<usize> = forward.iter().rev().copied().collect();
        let orders = [forward, backward];
        let (wall_s, latencies, mut tally) = drive(addr, &self.specs, &orders, rec, index);
        let stats = rec.span("serve.server.drain", index as u64, |_| {
            stop_daemon(server, addr)
        });

        let jobs = (orders.len() * self.specs.len()) as u64;
        let curves = stats.cache.curves();
        tally.op(
            stats.cache.sim_runs == self.unique_points && curves.runs == self.unique_curves,
            || {
                format!(
                    "exactly-once broken: {} simulations for {} points, {} passes for {} curves",
                    stats.cache.sim_runs, self.unique_points, curves.runs, self.unique_curves
                )
            },
        );
        tally.op(
            stats.cache.stores == self.unique_points && curves.stores == self.unique_curves,
            || {
                format!(
                    "{} + {} entries stored for {} + {} keys",
                    stats.cache.stores, curves.stores, self.unique_points, self.unique_curves
                )
            },
        );
        let tmp = leftover_tmp_files(&cache_dir);
        tally.op(tmp == 0, || format!("{tmp} tmp files left in the cache"));
        let (done, all) = journal_done(&state_dir);
        tally.op(done as u64 == jobs && all as u64 == jobs, || {
            format!("journal holds {done} completed of {all} records for {jobs} jobs")
        });
        tally.op(stats.jobs_failed == 0, || {
            format!("daemon failed {} jobs", stats.jobs_failed)
        });
        for dir in [&cache_dir, &state_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }

        let mut round = Round {
            wall_s,
            tally,
            sim: self.sim,
            cache: stats.cache,
            digest: fingerprint_hex(
                &self
                    .specs
                    .iter()
                    .map(|s| s.expected.as_str())
                    .collect::<Vec<_>>(),
            ),
            ..Round::default()
        };
        round
            .timings
            .insert("sim_maccess_per_s", self.sim.accesses as f64 / 1e6 / wall_s);
        latency_timings(&mut round, &latencies, jobs as usize);
        round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lists_are_a_function_of_the_seed() {
        let kinds = [0..48, 48..56, 56..72];
        let a = request_list(11, 4000, &kinds);
        let b = request_list(11, 4000, &kinds);
        let c = request_list(12, 4000, &kinds);
        assert_eq!(
            fingerprint_hex(&a),
            fingerprint_hex(&b),
            "same seed, byte-identical list"
        );
        assert_ne!(a, c, "another seed, another order");

        // The same requests whatever the seed: 70/15/15 over the kinds,
        // spread evenly over each kind's keys.
        let (mut sorted_a, mut sorted_c) = (a.clone(), c);
        sorted_a.sort_unstable();
        sorted_c.sort_unstable();
        assert_eq!(sorted_a, sorted_c);
        let count = |r: &std::ops::Range<usize>| a.iter().filter(|i| r.contains(i)).count();
        assert_eq!(
            (count(&kinds[0]), count(&kinds[1]), count(&kinds[2])),
            (2800, 600, 600)
        );
        let of_key_0 = a.iter().filter(|&&i| i == 0).count();
        assert!((58..=59).contains(&of_key_0), "2800 over 48 keys");
    }

    #[test]
    fn generated_inputs_are_a_function_of_the_seed() {
        let m = machine();
        let json = |seed| amem_sim::canonical_json(&curve_requests(&m, seed, 6));
        assert_eq!(json(5), json(5));
        assert_ne!(json(5), json(6));
        let probe = |seed| amem_sim::canonical_json(&short_fig1_probe(&m, seed, 1));
        assert_eq!(probe(5), probe(5));
        assert_ne!(probe(5), probe(6));
    }

    #[test]
    fn journal_and_tmp_scans_see_what_is_there() {
        // Under the benchmark's own (git-ignored) output directory.
        let dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("jobs")).unwrap();
        assert_eq!(leftover_tmp_files(&dir), 0);
        assert_eq!(journal_done(&dir), (0, 0));
        std::fs::write(dir.join("00ff.tmp.1.2"), b"{").unwrap();
        std::fs::write(dir.join("jobs/job-1.json"), b"not a record").unwrap();
        assert_eq!(leftover_tmp_files(&dir), 1);
        assert_eq!(journal_done(&dir), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
