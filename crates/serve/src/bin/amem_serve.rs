#![forbid(unsafe_code)]
//! The measurement daemon.
//!
//! ```text
//! amem-serve [--addr H:P] [--port-file PATH] [--workers N] [--shards N]
//!            [--cache-dir DIR] [--state-dir DIR]
//!            [--max-cache-mb N] [--max-cache-age-secs N]
//!            [--quota-rate R] [--quota-burst B]
//!            [--metrics] [--allow-fault]
//! ```
//!
//! Binds, prints `[serve] listening on <addr>` (and optionally writes the
//! resolved address to `--port-file`, for scripts binding port 0), then
//! serves until a client sends `Shutdown` — which drains every queued job
//! before the acknowledgment goes out.

use std::path::PathBuf;

use amem_serve::server::{ServeConfig, Server};

fn main() {
    let mut cfg = ServeConfig::default();
    let mut port_file: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |what: &str| it.next().unwrap_or_else(|| panic!("{a} needs {what}"));
        match a.as_str() {
            "--addr" => cfg.addr = val("host:port"),
            "--port-file" => port_file = Some(PathBuf::from(val("a path"))),
            "--workers" => cfg.workers = val("a count").parse().expect("--workers: integer"),
            "--shards" => cfg.shards = val("a count").parse().expect("--shards: integer"),
            "--cache-dir" => cfg.cache_dir = Some(PathBuf::from(val("a dir"))),
            "--state-dir" => cfg.state_dir = Some(PathBuf::from(val("a dir"))),
            "--max-cache-mb" => {
                let mb: u64 = val("megabytes").parse().expect("--max-cache-mb: integer");
                cfg.store.max_bytes = Some(mb * (1 << 20));
            }
            "--max-cache-age-secs" => {
                cfg.store.max_age_secs = Some(
                    val("seconds")
                        .parse()
                        .expect("--max-cache-age-secs: integer"),
                );
            }
            "--quota-rate" => {
                cfg.quota.rate_per_sec = val("jobs/sec").parse().expect("--quota-rate: float");
            }
            "--quota-burst" => {
                cfg.quota.burst = val("a burst size").parse().expect("--quota-burst: float");
            }
            "--metrics" => cfg.metrics = true,
            "--allow-fault" => cfg.allow_fault = true,
            other => {
                eprintln!(
                    "unknown argument: {other} (expected --addr/--port-file/--workers/--shards/\
                     --cache-dir/--state-dir/--max-cache-mb/--max-cache-age-secs/--quota-rate/\
                     --quota-burst/--metrics/--allow-fault)"
                );
                std::process::exit(2);
            }
        }
    }
    // No cache dir on the command line: fall back to the library's
    // environment convention so daemon and library share entries.
    if cfg.cache_dir.is_none() {
        if let Ok(dir) = std::env::var("AMEM_CACHE_DIR") {
            if !dir.is_empty() {
                cfg.cache_dir = Some(PathBuf::from(dir));
            }
        }
    }
    if cfg.store.max_bytes.is_none() && cfg.store.max_age_secs.is_none() && cfg.cache_dir.is_some()
    {
        eprintln!(
            "[serve] note: shared store is unbounded (no --max-cache-mb/--max-cache-age-secs)"
        );
    }

    let server = Server::start(cfg).expect("bind and start the daemon");
    let addr = server.addr();
    println!("[serve] listening on {addr}");
    if server.recovered_jobs() > 0 {
        println!(
            "[serve] recovered {} job record(s) orphaned by a previous run",
            server.recovered_jobs()
        );
    }
    if let Some(path) = port_file {
        std::fs::write(&path, addr.to_string()).expect("write --port-file");
    }
    let stats = server.wait();
    println!(
        "[serve] drained: {} jobs completed, {} failed, cache hit rate {:.1}%",
        stats.jobs_completed,
        stats.jobs_failed,
        stats.hit_rate_percent()
    );
}
