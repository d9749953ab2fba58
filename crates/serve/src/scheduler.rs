//! The priority scheduler between frontends and the worker pool.
//!
//! Three FIFO lanes (high/normal/low). A worker popping work scans lanes
//! highest-first and takes the first job whose tenant passes the
//! token-bucket quota; throttled tenants' jobs are *skipped in place*
//! (never reordered), preserving FIFO within both priority and tenant.
//! When nothing is admissible the worker parks on a condvar: with no job
//! queued until a push or close wakes it, and with every queued tenant
//! throttled until the first of their buckets refills to a whole token.
//!
//! That order holds among *queued* jobs. A frontend runs a job that is
//! memory hits only without queueing it (`server.rs`), charging the same
//! bucket through [`JobQueue::admit`]: such a job overtakes whatever its
//! tenant has queued, and a tenant over quota gets no such shortcut.
//!
//! Every lock is poison-tolerant (`unwrap_or_else(|p| p.into_inner())`,
//! the executor's discipline): one panicking job must never wedge the
//! queue for every other connection.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::protocol::{JobOutput, JobSpec, Priority};
use crate::quota::{QuotaConfig, TenantQuotas};

/// One enqueued job, carrying everything a worker needs plus the cell
/// the submitting frontend is blocked on.
#[derive(Debug)]
pub struct QueuedJob {
    pub id: u64,
    pub tenant: String,
    pub priority: Priority,
    /// Boxed so the queue (and `push`'s closed-queue `Err`) stay small.
    pub spec: Box<JobSpec>,
    /// Per-job fault injection (test-only; see [`crate::protocol::Request`]).
    pub fault: Option<String>,
    pub enqueued: Instant,
    pub cell: Arc<ResultCell>,
}

/// A one-shot rendezvous between the frontend that submitted a job and
/// the worker that ran it. The first write wins; a later one is ignored
/// while the first is unclaimed (mirrors the executor's in-flight
/// cells). The one waiter takes the result out.
#[derive(Debug)]
pub struct ResultCell {
    done: Mutex<Option<Result<JobOutput, String>>>,
    cv: Condvar,
}

impl ResultCell {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            done: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    /// Publish the result (first writer wins) and wake the waiter.
    pub fn resolve(&self, result: Result<JobOutput, String>) {
        let mut done = self.done.lock().unwrap_or_else(|p| p.into_inner());
        if done.is_none() {
            *done = Some(result);
        }
        self.cv.notify_all();
    }

    /// Block until the result is published, and move it out: a payload
    /// is never copied under the lock. (A write that lands after the
    /// take — the worker's drop guard — stays in the cell unread.)
    pub fn wait(&self) -> Result<JobOutput, String> {
        let mut done = self.done.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(result) = done.take() {
                return result;
            }
            done = self
                .cv
                .wait(done)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// Guard dropped by workers around job execution: if the job (or the
/// worker around it) unwinds without resolving, the waiter still gets a
/// typed error instead of hanging forever.
pub struct ResolveOnDrop {
    cell: Arc<ResultCell>,
}

impl ResolveOnDrop {
    pub fn new(cell: Arc<ResultCell>) -> Self {
        Self { cell }
    }
}

impl Drop for ResolveOnDrop {
    fn drop(&mut self) {
        // No-op if the worker already resolved (first write wins).
        self.cell
            .resolve(Err("job abandoned: worker unwound mid-run".into()));
    }
}

struct Lanes {
    lanes: [VecDeque<QueuedJob>; 3],
    closed: bool,
}

impl Lanes {
    fn depth(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }
}

/// The shared queue: push from any frontend, pop from any worker.
pub struct JobQueue {
    state: Mutex<Lanes>,
    cv: Condvar,
    quotas: TenantQuotas,
    deferrals: AtomicU64,
}

impl JobQueue {
    pub fn new(quota: QuotaConfig) -> Self {
        Self {
            state: Mutex::new(Lanes {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                closed: false,
            }),
            cv: Condvar::new(),
            quotas: TenantQuotas::new(quota),
            deferrals: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Lanes> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Enqueue; fails once the queue is closed (drain in progress).
    pub fn push(&self, job: QueuedJob) -> Result<(), QueuedJob> {
        let mut state = self.lock();
        if state.closed {
            return Err(job);
        }
        state.lanes[job.priority.lane()].push_back(job);
        let depth = state.depth();
        drop(state);
        amem_metrics::set("amem_serve_queue_depth", &[], depth as i64);
        self.cv.notify_one();
        Ok(())
    }

    /// Charge `tenant`'s token bucket for one job, now — what [`pop`]
    /// does before handing a job to a worker, for a frontend about to run
    /// a memory hit itself. `false`: over quota; queue the job instead.
    ///
    /// [`pop`]: JobQueue::pop
    pub fn admit(&self, tenant: &str) -> bool {
        self.quotas.admit(tenant)
    }

    /// Dequeue the next admissible job, blocking while the queue is open
    /// and empty (or every queued tenant is throttled). `None` means
    /// closed *and* fully drained — the worker should exit.
    pub fn pop(&self) -> Option<QueuedJob> {
        let mut state = self.lock();
        loop {
            let now = self.quotas.now_secs();
            // The earliest instant a tenant skipped below is admissible.
            let mut ready: Option<f64> = None;
            for lane in 0..state.lanes.len() {
                let jobs = &state.lanes[lane];
                let mut admitted = None;
                for (i, job) in jobs.iter().enumerate() {
                    // Skip jobs whose tenant already had a job skipped
                    // this scan: taking a later job of the same tenant
                    // would reorder its FIFO.
                    if jobs.iter().take(i).any(|j| j.tenant == job.tenant) {
                        continue;
                    }
                    if self.quotas.admit_at(&job.tenant, now) {
                        admitted = Some(i);
                        break;
                    }
                    // Counted at skip time: a scan that admits a later
                    // job returns early and would miss batched counting.
                    self.deferrals.fetch_add(1, Ordering::Relaxed);
                    amem_metrics::add("amem_serve_quota_deferrals_total", &[], 1);
                    if let Some(t) = self.quotas.ready_at(&job.tenant) {
                        ready = Some(ready.map_or(t, |r| r.min(t)));
                    }
                }
                if let Some(i) = admitted {
                    let job = state.lanes[lane].remove(i).expect("index in bounds");
                    let depth = state.depth();
                    drop(state);
                    amem_metrics::set("amem_serve_queue_depth", &[], depth as i64);
                    return Some(job);
                }
            }
            if state.closed && state.depth() == 0 {
                return None;
            }
            // Park until a push or close, or until the first skipped
            // tenant's refill; a refill too far off to time is waited
            // for like a push.
            let refill = ready.and_then(|t| {
                Duration::try_from_secs_f64((t - self.quotas.now_secs()).max(0.0)).ok()
            });
            state = match refill {
                Some(timeout) => {
                    self.cv
                        .wait_timeout(state, timeout)
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .0
                }
                None => self
                    .cv
                    .wait(state)
                    .unwrap_or_else(|poisoned| poisoned.into_inner()),
            };
        }
    }

    /// Stop accepting work; wakes every parked worker so the drain
    /// completes even on an empty queue.
    pub fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }

    pub fn depth(&self) -> usize {
        self.lock().depth()
    }

    pub fn deferrals(&self) -> u64 {
        self.deferrals.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amem_core::curve::{CurveMode, CurveRequest};
    use amem_probes::dist::AccessDist;

    fn job(id: u64, tenant: &str, priority: Priority) -> QueuedJob {
        // The spec is irrelevant to scheduling; use the cheapest one.
        QueuedJob {
            id,
            tenant: tenant.into(),
            priority,
            spec: Box::new(JobSpec::Curve {
                request: CurveRequest {
                    dist: AccessDist::Uniform,
                    buffer_bytes: 1 << 16,
                    warm_accesses: 8,
                    measure_accesses: 8,
                    seed: id,
                    line_bytes: 64,
                    capacities_lines: vec![16],
                    mode: CurveMode::Exact,
                },
            }),
            fault: None,
            enqueued: Instant::now(),
            cell: ResultCell::new(),
        }
    }

    #[test]
    fn priority_lanes_run_highest_first_fifo_within() {
        let q = JobQueue::new(QuotaConfig::unlimited());
        q.push(job(1, "a", Priority::Low)).unwrap();
        q.push(job(2, "a", Priority::Normal)).unwrap();
        q.push(job(3, "a", Priority::High)).unwrap();
        q.push(job(4, "a", Priority::High)).unwrap();
        let order: Vec<u64> = (0..4).map(|_| q.pop().unwrap().id).collect();
        assert_eq!(order, vec![3, 4, 2, 1]);
    }

    #[test]
    fn throttled_tenant_defers_without_starving_others() {
        // Burst of 1, no refill to speak of: tenant a's second job must
        // wait while tenant b proceeds.
        let q = JobQueue::new(QuotaConfig {
            rate_per_sec: 1e-9,
            burst: 1.0,
        });
        q.push(job(1, "a", Priority::Normal)).unwrap();
        q.push(job(2, "a", Priority::Normal)).unwrap();
        q.push(job(3, "b", Priority::Normal)).unwrap();
        assert_eq!(q.pop().unwrap().id, 1, "a's first job spends its token");
        assert_eq!(q.pop().unwrap().id, 3, "b is not starved by a's backlog");
        assert!(q.deferrals() > 0, "the skip was counted");
        assert_eq!(q.depth(), 1, "a's second job is still queued");
    }

    #[test]
    fn frontend_admission_spends_the_bucket_pop_draws_on() {
        let q = JobQueue::new(QuotaConfig {
            rate_per_sec: 1e-9,
            burst: 1.0,
        });
        assert!(q.admit("a"), "a's one token");
        assert!(!q.admit("a"), "spent: the frontend must queue the job");
        q.push(job(1, "a", Priority::Normal)).unwrap();
        q.push(job(2, "b", Priority::Normal)).unwrap();
        assert_eq!(q.pop().unwrap().id, 2, "a worker finds a's bucket empty");
        assert!(q.deferrals() > 0);
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = Arc::new(JobQueue::new(QuotaConfig::unlimited()));
        q.push(job(1, "a", Priority::Normal)).unwrap();
        q.close();
        assert!(
            q.push(job(2, "a", Priority::Normal)).is_err(),
            "closed queue refuses new work"
        );
        assert_eq!(q.pop().unwrap().id, 1, "queued work still drains");
        assert!(q.pop().is_none(), "then workers are told to exit");
    }

    fn curve() -> Arc<amem_core::MissRatioCurve> {
        Arc::new(amem_core::MissRatioCurve {
            schema_version: amem_core::CURVE_SCHEMA_VERSION,
            points: vec![],
            quality: None,
        })
    }

    fn output() -> JobOutput {
        JobOutput::Curve(curve())
    }

    #[test]
    fn result_cells_resolve_first_writer_wins_and_survive_poison() {
        let cell = ResultCell::new();
        cell.resolve(Ok(output()));
        cell.resolve(Err("late loser".into()));
        assert!(matches!(cell.wait(), Ok(JobOutput::Curve(_))));

        // A panicking waiter poisons the cell's mutex; resolve/wait from
        // other threads must shrug it off.
        let cell = ResultCell::new();
        let c2 = Arc::clone(&cell);
        let _ = std::thread::spawn(move || {
            let _guard = c2.done.lock().unwrap();
            panic!("poison the cell");
        })
        .join();
        cell.resolve(Ok(output()));
        assert!(matches!(cell.wait(), Ok(JobOutput::Curve(_))));
    }

    #[test]
    fn waiting_moves_the_result_out_of_the_cell() {
        let curve = curve();
        let cell = ResultCell::new();
        cell.resolve(Ok(JobOutput::Curve(Arc::clone(&curve))));
        assert_eq!(Arc::strong_count(&curve), 2, "ours and the cell's");
        let got = cell.wait().expect("resolved");
        assert_eq!(
            Arc::strong_count(&curve),
            2,
            "ours and the waiter's: the cell kept no copy and made none"
        );
        let JobOutput::Curve(got) = got else {
            panic!("wrong payload {got:?}");
        };
        assert!(Arc::ptr_eq(&got, &curve));
    }

    #[test]
    fn abandoned_jobs_resolve_with_a_typed_error() {
        let cell = ResultCell::new();
        {
            let _guard = ResolveOnDrop::new(Arc::clone(&cell));
            // Simulated worker unwind: guard drops without a resolve.
        }
        let err = cell.wait().expect_err("abandoned");
        assert!(err.contains("abandoned"), "{err}");
    }
}
