//! The daemon: accept loop, stateless frontends, worker pool, drain.
//!
//! Architecture (DESIGN.md §15, after the worker/shard split in the
//! Golem lineage): connection handlers are *stateless frontends* — they
//! parse lines, journal a durable job record, enqueue, and block on the
//! job's result cell. All state lives behind them: the priority queue,
//! the shard-owned executors, and the shared store. A job whose every
//! result is already in its executor's memory tier needs no worker: the
//! frontend runs it itself, through the same `Inner::execute` a worker
//! calls, so a warm request never leaves the thread that parsed it and
//! the `workers` cap still bounds every computation. Shutdown is a
//! drain: the queue closes (new submissions are refused with a typed
//! error), workers finish everything queued, and only then is the
//! shutdown acknowledged.
//!
//! Nothing polls. The accept loop blocks in `accept` and hands each
//! connection its frontend thread at once. The frontend that writes the
//! `Drained` reply then connects to the listener itself, and that wake
//! is what returns the loop and closes the listener.
//!
//! Every mutex in the daemon follows the executor's poison-tolerance
//! discipline, and workers run jobs under `catch_unwind`, so one
//! panicking job (see `FaultSpec` `panic=`) costs exactly its own
//! submitter a typed error — never the queue.

use std::io::BufReader;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use amem_core::capacity::CalibrateOpts;
use amem_core::sweep::{resident_sweep, run_sweep, SweepRequest};
use amem_core::{AmemError, Executor};

use crate::job::{JobRecord, JobStatus, JobStore, JOB_SCHEMA_VERSION};
use crate::protocol::{
    point_route_key, read_line_within, write_line_via, Command, JobOutput, JobReply, JobResult,
    JobSpec, Request, Response, ServeStats, MAX_REQUEST_LINE, PROTOCOL_VERSION,
};
use crate::quota::QuotaConfig;
use crate::scheduler::{JobQueue, QueuedJob, ResolveOnDrop, ResultCell};
use crate::shard::ShardPool;
use crate::store::{CacheStore, StorePolicy};

/// Everything `Server::start` needs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see [`Server::addr`]).
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Shards the request-key space is partitioned over.
    pub shards: usize,
    /// Shared measurement store; `None` = memory-only executors.
    pub cache_dir: Option<PathBuf>,
    /// Durable job-record directory; `None` = no journaling.
    pub state_dir: Option<PathBuf>,
    pub quota: QuotaConfig,
    pub store: StorePolicy,
    /// Turn the metrics registry on for this process.
    pub metrics: bool,
    /// Honor per-request `fault` specs (test/CI servers only).
    pub allow_fault: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            shards: 4,
            cache_dir: None,
            state_dir: None,
            quota: QuotaConfig::default(),
            store: StorePolicy::default(),
            metrics: false,
            allow_fault: false,
        }
    }
}

struct Inner {
    cfg: ServeConfig,
    queue: JobQueue,
    shards: ShardPool,
    store: Option<CacheStore>,
    jobs: JobStore,
    next_id: AtomicU64,
    requests: AtomicU64,
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    /// Jobs a connection thread executed itself (memory hits).
    frontend_jobs: AtomicU64,
    /// Jobs executed, on any thread, counted toward the next
    /// `store.evict()` of a bounded store: every 32nd runs it.
    since_evict: AtomicU64,
    shutting_down: AtomicBool,
    /// Frontends between registering a job and counting it (or handing
    /// it to the queue); `Shutdown` waits for zero.
    inline_jobs: AtomicUsize,
    workers_alive: AtomicUsize,
    drained: Mutex<bool>,
    drained_cv: Condvar,
    started: Instant,
    /// Set once a `Drained` reply is written; the accept loop returns
    /// at the next connection, the wake that follows it.
    drain_acked: AtomicBool,
    /// Where that wake connects: the bound address, with loopback
    /// standing in for an unspecified IP.
    wake_addr: SocketAddr,
}

impl Inner {
    fn stats(&self) -> ServeStats {
        let (cache, executors) = self.shards.aggregate_stats();
        let usage = self.store.as_ref().map(|s| s.usage()).unwrap_or_default();
        let (evictions_size, evictions_age) =
            self.store.as_ref().map(|s| s.evictions()).unwrap_or((0, 0));
        let stats = ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            frontend_jobs: self.frontend_jobs.load(Ordering::Relaxed),
            queue_depth: self.queue.depth() as u64,
            quota_deferrals: self.queue.deferrals(),
            shards: self.shards.shard_count(),
            executors,
            cache,
            store_entries: usage.entries,
            store_bytes: usage.bytes,
            evictions_size,
            evictions_age,
            tmp_reclaimed: self.store.as_ref().map(|s| s.tmp_reclaimed()).unwrap_or(0),
            uptime_secs: self.started.elapsed().as_secs_f64(),
        };
        amem_metrics::set(
            "amem_serve_cache_hit_rate_percent",
            &[],
            stats.hit_rate_percent() as i64,
        );
        stats
    }

    /// The job's output, when every result it needs is already in its
    /// executor's memory tier and `admit` lets the caller have it —
    /// running the job is then lookups only, and a frontend may do that
    /// itself. Measure: the point; Sweep: every feasible level; Curve:
    /// the curve; Calibrate: never (it searches, and what it asks for
    /// depends on what it finds). A measure or sweep prints its
    /// workload's cache key once, and routes and looks up with it. Each
    /// result is found by one lookup, and counted as a memory hit only
    /// once `admit` (called only for a job that is resident) says yes: a
    /// refusal spends no token and moves no counter. The output is what [`Inner::run_job`]
    /// would return — the executor's own `Arc`s, and a sweep assembled by
    /// the code `run_sweep` assembles it with.
    fn resolve(&self, spec: &JobSpec, admit: impl FnOnce() -> bool) -> Option<JobOutput> {
        let executor = |route_key: &str| self.shards.executor(spec, route_key, None).ok();
        match spec {
            JobSpec::Measure {
                workload,
                per_processor,
                mix,
                ..
            } => {
                let key = workload.build().cache_key()?;
                let exec = executor(&point_route_key(&key, *per_processor))?;
                let hit = exec.resident(&key, *per_processor, &[*mix])?;
                admit().then(|| JobOutput::Measurement(hit.take().remove(0)))
            }
            JobSpec::Sweep {
                workload,
                per_processor,
                kind,
                max_count,
                ..
            } => {
                let w = workload.build();
                let key = w.cache_key()?;
                let exec = executor(&point_route_key(&key, *per_processor))?;
                let req = SweepRequest {
                    workload: w.as_ref(),
                    per_processor: *per_processor,
                    kind: *kind,
                    max_count: *max_count,
                };
                let hit = resident_sweep(&exec, &req, &key)?;
                admit().then(|| JobOutput::Sweep(hit.take()))
            }
            JobSpec::Curve { request } => {
                let exec = executor(&spec.route_key())?;
                let hit = exec.curve_resident(request)?;
                admit().then(|| JobOutput::Curve(hit.take().remove(0)))
            }
            JobSpec::Calibrate { .. } => None,
        }
    }

    /// Execute one job spec against its shard-owned executor. The result
    /// payloads are the library's own structs — the executor's own `Arc`
    /// where it returns one — so what the frontend serializes is
    /// byte-identical to a local call.
    fn run_job(exec: &Executor, spec: &JobSpec) -> Result<JobOutput, AmemError> {
        match spec {
            JobSpec::Measure {
                workload,
                per_processor,
                mix,
                ..
            } => {
                let w = workload.build();
                Ok(JobOutput::Measurement(exec.run(
                    w.as_ref(),
                    *per_processor,
                    *mix,
                )?))
            }
            JobSpec::Sweep {
                workload,
                per_processor,
                kind,
                max_count,
                ..
            } => {
                let w = workload.build();
                let sweep = run_sweep(exec, w.as_ref(), *per_processor, *kind, *max_count)?;
                Ok(JobOutput::Sweep(sweep))
            }
            JobSpec::Calibrate { max_cs, .. } => {
                let opts = CalibrateOpts {
                    max_cs: *max_cs,
                    ..CalibrateOpts::default()
                };
                let map = amem_core::CapacityMap::calibrate(exec, &opts)?;
                Ok(JobOutput::Capacity(map))
            }
            JobSpec::Curve { request } => Ok(JobOutput::Curve(exec.run_curve(request)?)),
        }
    }

    /// Return the accept loop from its blocking `accept` once the drain
    /// is acknowledged, so it closes the listener. A failed connect means
    /// the listener is already gone.
    fn wake_accept_loop(&self) {
        self.drain_acked.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.wake_addr);
    }

    fn write_record(&self, job: &QueuedJob, status: JobStatus, error: Option<String>) {
        if !self.jobs.is_journaling() {
            return;
        }
        self.jobs.write(&JobRecord {
            schema_version: JOB_SCHEMA_VERSION,
            id: job.id,
            tenant: job.tenant.clone(),
            priority: job.priority,
            status,
            error,
            spec: (*job.spec).clone(),
        });
    }

    /// Run one job to its resolved result cell: journal, panic
    /// containment, counters, store maintenance. The one execution path —
    /// a worker calls it for each job it pops, and a frontend for a job
    /// [`Inner::resolve`] answered, passing that output (`None`: route
    /// and run the job here, where a bad fault spec fails it).
    fn execute(&self, job: &QueuedJob, resolved: Option<JobOutput>) {
        let wait = job.enqueued.elapsed();
        let kind = job.spec.kind();
        self.write_record(job, JobStatus::Running, None);
        // If anything below unwinds past the catch (or the thread dies
        // between here and resolve), the guard still unblocks the waiter.
        let guard = ResolveOnDrop::new(Arc::clone(&job.cell));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(output) = resolved {
                return Ok(output);
            }
            let route_key = job.spec.route_key();
            let exec = self
                .shards
                .executor(&job.spec, &route_key, job.fault.as_deref())?;
            Self::run_job(&exec, &job.spec)
        }));
        let result: Result<JobOutput, String> = match outcome {
            Ok(Ok(r)) => Ok(r),
            Ok(Err(e)) => Err(e.to_string()),
            Err(payload) => Err(format!("job panicked: {}", panic_message(&*payload))),
        };
        let outcome = match &result {
            Ok(_) => {
                self.jobs_completed.fetch_add(1, Ordering::Relaxed);
                self.write_record(job, JobStatus::Done, None);
                "completed"
            }
            Err(e) => {
                self.jobs_failed.fetch_add(1, Ordering::Relaxed);
                self.write_record(job, JobStatus::Failed, Some(e.clone()));
                "failed"
            }
        };
        amem_metrics::add(
            "amem_serve_jobs_total",
            &[("outcome", outcome), ("kind", kind)],
            1,
        );
        amem_metrics::record("amem_serve_job_wait_ns", &[], wait.as_nanos() as u64);
        job.cell.resolve(result);
        drop(guard); // already resolved; the guard's write is a no-op

        // Periodic store maintenance, amortized across every thread that
        // executes jobs — when the policy has a bound to enforce. An
        // unbounded store would be read and stat'ed whole to evict nothing.
        if let Some(store) = self.store.as_ref().filter(|s| s.is_bounded()) {
            if self.since_evict.fetch_add(1, Ordering::Relaxed) % 32 == 31 {
                store.evict();
            }
        }
    }
}

/// A frontend's registration in `Inner::inline_jobs`, held from before
/// it reads the drain flag until its job is counted or queued. Dropping
/// it — unwinding included — deregisters, and the last one out wakes a
/// drain that is waiting.
struct InlineJob<'a>(&'a Inner);

impl<'a> InlineJob<'a> {
    fn register(inner: &'a Inner) -> Self {
        inner.inline_jobs.fetch_add(1, Ordering::SeqCst);
        Self(inner)
    }
}

impl Drop for InlineJob<'_> {
    fn drop(&mut self) {
        let inner = self.0;
        if inner.inline_jobs.fetch_sub(1, Ordering::SeqCst) == 1
            && inner.shutting_down.load(Ordering::SeqCst)
        {
            let _drained = inner.drained.lock().unwrap_or_else(|p| p.into_inner());
            inner.drained_cv.notify_all();
        }
    }
}

fn worker_loop(inner: &Inner) {
    while let Some(job) = inner.queue.pop() {
        inner.execute(&job, None);
    }
    // Last worker out signals the drain.
    if inner.workers_alive.fetch_sub(1, Ordering::SeqCst) == 1 {
        let mut drained = inner.drained.lock().unwrap_or_else(|p| p.into_inner());
        *drained = true;
        inner.drained_cv.notify_all();
    }
}

/// One connection = one stateless frontend. Its two line buffers live
/// as long as the connection, so a request costs no allocation for I/O.
fn handle_conn(inner: &Arc<Inner>, stream: TcpStream) {
    // A reply is one write of a whole line; without this, the second
    // segment of a reply larger than one waits out Nagle + delayed ACK.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let (mut line_in, mut line_out) = (String::new(), String::new());
    loop {
        let req: Request = match read_line_within(&mut reader, MAX_REQUEST_LINE, &mut line_in) {
            Ok(Some(r)) => r,
            Ok(None) => return, // clean EOF
            Err(e) => {
                let refusal = Response::err(0, format!("bad request: {e}"));
                let _ = write_line_via(&mut writer, &refusal, &mut line_out);
                // The tail of an over-long line is still unread: close
                // rather than parse it as further requests.
                if e.kind() == std::io::ErrorKind::InvalidInput {
                    return;
                }
                continue;
            }
        };
        inner.requests.fetch_add(1, Ordering::Relaxed);
        amem_metrics::add("amem_serve_requests_total", &[], 1);
        let (written, shutdown_acked) = match handle_request(inner, req) {
            Reply::Control(resp) => (
                write_line_via(&mut writer, &resp, &mut line_out),
                matches!(resp.result, Some(JobResult::Drained { .. })),
            ),
            Reply::Job(reply) => (write_line_via(&mut writer, &reply, &mut line_out), false),
        };
        // Woken only once the reply is written: a daemon process exits
        // as soon as `Server::wait` returns, and must not cut it off.
        if shutdown_acked {
            inner.wake_accept_loop();
        }
        if written.is_err() || shutdown_acked {
            return;
        }
    }
}

/// One response line: a control command's, or a finished job's.
enum Reply {
    Control(Response),
    Job(JobReply),
}

fn handle_request(inner: &Arc<Inner>, req: Request) -> Reply {
    if req.v != PROTOCOL_VERSION {
        return Reply::Control(Response::err(
            0,
            format!(
                "protocol version mismatch: client v{}, server v{PROTOCOL_VERSION}",
                req.v
            ),
        ));
    }
    Reply::Control(match req.command {
        Command::Ping => Response::ok(0, JobResult::Pong),
        Command::Stats => Response::ok(0, JobResult::Stats(inner.stats())),
        Command::Metrics => {
            // Refresh the derived gauges before exporting.
            let _ = inner.stats();
            let text = amem_metrics::export::prometheus_text(&amem_metrics::snapshot());
            Response::ok(0, JobResult::Metrics { text })
        }
        Command::Shutdown => {
            inner.shutting_down.store(true, Ordering::SeqCst);
            inner.queue.close();
            // Every queued job is done once the last worker leaves; every
            // hit a frontend let through before the flag is done once
            // `inline_jobs` falls to zero.
            let mut drained = inner.drained.lock().unwrap_or_else(|p| p.into_inner());
            while !*drained || inner.inline_jobs.load(Ordering::SeqCst) > 0 {
                drained = inner
                    .drained_cv
                    .wait(drained)
                    .unwrap_or_else(|p| p.into_inner());
            }
            if let Some(store) = &inner.store {
                store.evict();
            }
            Response::ok(
                0,
                JobResult::Drained {
                    jobs_completed: inner.jobs_completed.load(Ordering::Relaxed),
                },
            )
        }
        Command::Submit(spec) => {
            if req.fault.is_some() && !inner.cfg.allow_fault {
                return Reply::Control(Response::err(
                    0,
                    "fault injection is not enabled on this server",
                ));
            }
            if req.tenant.is_empty() {
                return Reply::Control(Response::err(0, "tenant must be non-empty"));
            }
            let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
            let cell = ResultCell::new();
            let job = QueuedJob {
                id,
                tenant: req.tenant,
                priority: req.priority,
                spec,
                fault: req.fault,
                enqueued: Instant::now(),
                cell: Arc::clone(&cell),
            };
            inner.write_record(&job, JobStatus::Queued, None);
            // A memory hit is lookups only: run it here and skip the two
            // hand-offs through the queue. Quota is charged as a worker's
            // pop would charge it, last, so a refusal spends no token. The
            // job is registered before the drain flag is read and
            // deregistered once it is counted, so a `Shutdown` that sets
            // the flag either keeps it off this path or waits for it.
            let inline = InlineJob::register(inner);
            let resolved = if job.fault.is_none() && !inner.shutting_down.load(Ordering::SeqCst) {
                inner.resolve(&job.spec, || inner.queue.admit(&job.tenant))
            } else {
                None
            };
            let queued = match resolved {
                Some(output) => {
                    inner.frontend_jobs.fetch_add(1, Ordering::Relaxed);
                    inner.execute(&job, Some(output));
                    Ok(())
                }
                None => inner.queue.push(job),
            };
            drop(inline);
            let outcome = match queued {
                Ok(()) => {
                    inner.jobs_submitted.fetch_add(1, Ordering::Relaxed);
                    cell.wait()
                }
                Err(job) => {
                    inner.write_record(&job, JobStatus::Failed, Some("server is draining".into()));
                    Err("server is shutting down; job refused".into())
                }
            };
            return Reply::Job(JobReply::new(id, outcome));
        }
    })
}

/// Best-effort human form of a panic payload (the executor's helper,
/// duplicated because it is three lines and not exported).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// A running daemon. Dropping the handle does *not* stop it; send a
/// `Shutdown` command (or exit the process).
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn workers and the accept loop, and return immediately.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        if cfg.metrics {
            amem_metrics::set_enabled(true);
        }
        let store = cfg
            .cache_dir
            .as_ref()
            .map(|dir| CacheStore::open(dir.clone(), cfg.store));
        let jobs = JobStore::open(cfg.state_dir.as_ref().map(|d| d.join("jobs")));
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let mut wake_addr = addr;
        if addr.ip().is_unspecified() {
            wake_addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }

        let workers_n = cfg.workers.max(1);
        let inner = Arc::new(Inner {
            queue: JobQueue::new(cfg.quota),
            shards: ShardPool::new(cfg.shards, cfg.cache_dir.clone()),
            store,
            jobs,
            next_id: AtomicU64::new(1),
            requests: AtomicU64::new(0),
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            frontend_jobs: AtomicU64::new(0),
            since_evict: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            inline_jobs: AtomicUsize::new(0),
            workers_alive: AtomicUsize::new(workers_n),
            drained: Mutex::new(false),
            drained_cv: Condvar::new(),
            started: Instant::now(),
            drain_acked: AtomicBool::new(false),
            wake_addr,
            cfg,
        });

        let workers = (0..workers_n)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("amem-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();

        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("amem-serve-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    // A connection after the acknowledged drain is the
                    // wake, or a client too late to be served: drop it
                    // and the listener.
                    if accept_inner.drain_acked.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(stream) = stream else { return };
                    let inner = Arc::clone(&accept_inner);
                    let _ = std::thread::Builder::new()
                        .name("amem-serve-conn".into())
                        .spawn(move || handle_conn(&inner, stream));
                }
            })
            .expect("spawn accept loop");

        Ok(Server {
            inner,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Durable job records orphaned by a previous life and marked failed
    /// at startup.
    pub fn recovered_jobs(&self) -> usize {
        self.inner.jobs.recovered()
    }

    /// Service stats snapshot (same data the `Stats` command returns).
    pub fn stats(&self) -> ServeStats {
        self.inner.stats()
    }

    /// Block until a `Shutdown` command drains the daemon, then join
    /// every thread. Returns the final stats.
    pub fn wait(mut self) -> ServeStats {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::{read_line, WorkloadSpec};
    use amem_interfere::InterferenceMix;
    use amem_sim::config::MachineConfig;
    use std::io::Write;
    use std::time::Duration;

    /// One fig1 probe point: a fraction of a second cold, a lookup warm.
    fn point(k: usize) -> JobSpec {
        let machine = MachineConfig::xeon20mb().scaled(0.0625);
        JobSpec::Measure {
            workload: WorkloadSpec::Probe(amem_core::figures::fig1_probe(&machine)),
            machine,
            per_processor: 1,
            mix: InterferenceMix::storage(k),
        }
    }

    fn client(server: &Server, tenant: &str) -> Client {
        let mut c = Client::connect(server.addr()).expect("connect");
        c.tenant = tenant.into();
        c
    }

    /// The frontend charges the tenant's bucket before it runs a hit, and
    /// a tenant over quota gets no shortcut: its hit waits in the queue
    /// for the refill like any other job. (Half a token a second: the
    /// test takes two seconds, and only a two-second stall between its
    /// two requests could let the second one in.)
    #[test]
    fn an_over_quota_hit_queues_like_any_other_job() {
        let server = Server::start(ServeConfig {
            quota: QuotaConfig {
                rate_per_sec: 0.5,
                burst: 1.0,
            },
            ..ServeConfig::default()
        })
        .expect("start");
        client(&server, "warm")
            .submit(point(1))
            .expect("cold: a worker simulates it");
        assert_eq!(server.stats().frontend_jobs, 0);

        let mut c = client(&server, "t");
        c.submit(point(1)).expect("resident, and t's one token");
        assert_eq!(server.stats().frontend_jobs, 1);
        c.submit(point(1))
            .expect("resident, but the bucket is empty");
        let stats = server.stats();
        assert_eq!(stats.frontend_jobs, 1, "the second hit was a worker's");
        assert!(stats.quota_deferrals > 0, "{stats:?}");
        assert_eq!((stats.jobs_submitted, stats.jobs_completed), (3, 3));
        // One hit each for the frontend and the worker: the refused
        // fetch in between counted nothing.
        assert_eq!((stats.cache.mem_hits, stats.cache.sim_runs), (2, 1));

        c.shutdown().expect("drain");
        server.wait();
    }

    /// `resolve` asks for a token only for a job that is resident, and
    /// counts the job's memory hits only when the token is granted: a
    /// refusal leaves every executor counter where it was.
    #[test]
    fn resolve_counts_only_what_it_hands_over() {
        let server = Server::start(ServeConfig::default()).expect("start");
        let mut c = client(&server, "t");
        let cold = c.submit(point(1)).expect("cold: a worker simulates it");
        let inner = &server.inner;
        let counters = || inner.shards.aggregate_stats().0;
        let before = counters();

        let no_token = || panic!("a job that is not resident asks for no token");
        assert!(inner.resolve(&point(2), no_token).is_none());
        for _ in 0..3 {
            assert!(inner.resolve(&point(1), || false).is_none());
        }
        assert_eq!(counters(), before, "refused: nothing counted");

        let hit = inner.resolve(&point(1), || true).expect("resident");
        assert!(matches!(hit, JobOutput::Measurement(_)));
        assert_eq!(
            serde_json::to_string(&hit).unwrap(),
            serde_json::to_string(&cold).unwrap()
        );
        let after = counters();
        assert_eq!(after.mem_hits, before.mem_hits + 1);
        assert_eq!(after.lookups(), before.lookups() + 1);

        c.shutdown().expect("drain");
        server.wait();
    }

    /// A fault spec names another executor — one that caches nothing —
    /// so what the clean executor holds in memory says nothing about the
    /// job: it goes to a worker, and a bad spec fails it there.
    #[test]
    fn a_fault_injected_request_never_runs_on_the_frontend() {
        let server = Server::start(ServeConfig {
            allow_fault: true,
            ..ServeConfig::default()
        })
        .expect("start");
        let mut clean = client(&server, "clean");
        clean.submit(point(1)).expect("cold");
        clean.submit(point(1)).expect("resident");
        assert_eq!(server.stats().frontend_jobs, 1);

        let mut faulty = client(&server, "chaos");
        faulty.fault = Some("seed=1,panic=1.0".into());
        let err = faulty.submit(point(1)).expect_err("always panics");
        assert!(err.to_string().contains("panic"), "{err}");
        faulty.fault = Some("bogus=1".into());
        faulty.submit(point(1)).expect_err("a bad fault spec");
        let stats = server.stats();
        assert_eq!(stats.frontend_jobs, 1, "neither ran inline");
        assert_eq!((stats.jobs_completed, stats.jobs_failed), (2, 2));

        clean.shutdown().expect("drain");
        server.wait();
    }

    /// The accept loop blocks in `accept`, so a new connection's first
    /// request is read as it arrives, not after a polling sleep; and the
    /// drain's wake closes the listener as soon as the drain is done.
    #[test]
    fn a_fresh_connection_is_answered_at_once() {
        let server = Server::start(ServeConfig::default()).expect("start");
        let mut pings: Vec<Duration> = (0..8)
            .map(|_| {
                let mut c = client(&server, "t");
                let t0 = Instant::now();
                c.ping().expect("pong");
                t0.elapsed()
            })
            .collect();
        pings.sort();
        let median = pings[pings.len() / 2];
        assert!(median < Duration::from_millis(10), "{pings:?}");

        let addr = server.addr();
        client(&server, "t").shutdown().expect("drain");
        server.wait();
        assert!(
            TcpStream::connect(addr).is_err(),
            "the listener closes with the drain"
        );
    }

    #[test]
    fn oversized_request_line_is_refused_and_the_daemon_keeps_serving() {
        let server = Server::start(ServeConfig::default()).expect("start");

        let hostile = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(hostile.try_clone().expect("clone"));
        let sender = std::thread::spawn(move || {
            let mut hostile = hostile;
            // The server stops reading at the limit and closes, so the
            // tail of this write may fail with a reset: that is the point.
            let _ = hostile.write_all(&vec![b'x'; 2 * MAX_REQUEST_LINE]);
            let _ = hostile.write_all(b"\n");
        });
        let reply: Response = read_line(&mut reader)
            .expect("an error reply, not a dropped connection")
            .expect("a reply before EOF");
        let error = reply.error.expect("a refusal");
        assert!(error.contains("exceeds"), "{error}");
        let after: std::io::Result<Option<Response>> = read_line(&mut reader);
        assert!(
            matches!(after, Ok(None) | Err(_)),
            "the connection closes after the refusal"
        );
        sender.join().expect("sender does not panic");

        let mut c = Client::connect(server.addr()).expect("connect");
        c.ping().expect("another client is served");
        c.shutdown().expect("drain");
        server.wait();
    }

    /// 100 KB of `[` used to recurse the parser off the end of the
    /// connection thread's stack and abort the whole daemon. A typed
    /// decode refuses it at the first byte; under a key the request type
    /// does not know, where the decoder does follow the nesting, it is
    /// refused at the depth cap.
    #[test]
    fn deeply_nested_request_is_refused_and_the_daemon_keeps_serving() {
        let server = Server::start(ServeConfig::default()).expect("start");

        let mut hostile = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(hostile.try_clone().expect("clone"));
        let nest = "[".repeat(100_000);
        for (line, complaint) in [
            (format!("{nest}\n"), "expected object"),
            (format!("{{\"v\":1,\"junk\":{nest}\n"), "nesting"),
        ] {
            hostile.write_all(line.as_bytes()).expect("send");
            let reply: Response = read_line(&mut reader)
                .expect("a reply, not a dead daemon")
                .expect("a reply before EOF");
            let error = reply.error.expect("a refusal");
            assert!(
                error.starts_with("bad request: ") && error.contains(complaint),
                "{error}"
            );
        }

        // Each line was read whole, so the same connection is still good,
        // and so is everybody else's.
        crate::protocol::write_line(&mut hostile, &Request::new(Command::Ping)).expect("send");
        let pong: Response = read_line(&mut reader).expect("reply").expect("pong");
        assert!(matches!(pong.result, Some(JobResult::Pong)));
        let mut c = Client::connect(server.addr()).expect("connect");
        c.ping().expect("a second client is served");
        c.shutdown().expect("drain");
        server.wait();
    }
}
