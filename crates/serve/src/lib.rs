#![forbid(unsafe_code)]
//! `amem-serve` — a sharded measurement service over the executor.
//!
//! The paper's workflow (Casas & Bronevetsky, IPDPS 2014) assumes one
//! process owning one cache. This crate turns that into a long-running
//! daemon shared by many clients, without changing a single result byte:
//!
//! - **Stateless frontends** ([`server`]): one thread per TCP connection,
//!   speaking JSON lines (see [`protocol`]). Frontends parse, journal a
//!   durable [`job::JobRecord`], enqueue, and block on the result — or,
//!   when every result the job needs is already in memory, run it
//!   themselves: a warm request never leaves the thread that parsed it.
//! - **Priority scheduler** ([`scheduler`] + [`quota`]): three FIFO
//!   lanes with per-tenant token buckets; throttled tenants defer in
//!   place, and queued jobs are never reordered and never starve others
//!   (a memory hit is not queued, so it waits behind nothing).
//! - **Sharded executors** ([`shard`]): request keys route by content
//!   hash to a shard-owned [`amem_core::Executor`], so the executor's
//!   in-flight dedup holds across *all* connections — two clients
//!   submitting the same sweep share one simulation.
//! - **Shared store** ([`store`]): one disk-cache directory for every
//!   executor, with crash-debris reclamation, size/age eviction and
//!   hit-rate telemetry through `amem-metrics`.
//!
//! Results are byte-identical to library calls: the daemon runs the same
//! `Executor` code against the same cache keys and serializes the very
//! structs it returns, and the vendored JSON writer reprints parsed
//! floats exactly. `repro serve` (amem-bench) and the CI
//! serve-smoke job both assert this end to end.
//!
//! Everything here is std-only networking — `TcpListener`, threads,
//! condvars — because the container has no async runtime. At this
//! problem's scale (seconds-long simulations, tens of connections) a
//! thread per connection is the simpler and equally correct choice.

pub mod client;
pub mod job;
pub mod protocol;
pub mod quota;
pub mod scheduler;
pub mod server;
pub mod shard;
pub mod store;

pub use client::Client;
pub use job::{JobRecord, JobStatus, JobStore, JOB_SCHEMA_VERSION};
pub use protocol::{
    Command, JobResult, JobSpec, Priority, Request, Response, ServeStats, WorkloadSpec,
    PROTOCOL_VERSION,
};
pub use quota::QuotaConfig;
pub use server::{ServeConfig, Server};
pub use shard::ShardPool;
pub use store::{CacheStore, StorePolicy, StoreUsage};
