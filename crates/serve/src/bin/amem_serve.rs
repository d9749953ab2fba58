#![forbid(unsafe_code)]
//! The measurement daemon (synopsis: `USAGE`).
//!
//! Binds, prints `[serve] listening on <addr>` (and optionally writes the
//! resolved address to `--port-file`, for scripts binding port 0), then
//! serves until a client sends `Shutdown` — which drains every queued job
//! before the acknowledgment goes out. Without `--cache-dir` the shared
//! store is `$AMEM_CACHE_DIR`, if set; `--max-cache-mb` and
//! `--max-cache-age-secs` bound it, and `--quota-rate`/`--quota-burst`
//! set each tenant's token bucket for queued jobs.

use std::path::PathBuf;

use amem_core::cli::{self, CliError, FlagReader};
use amem_serve::server::{ServeConfig, Server};

const USAGE: &str = "\
usage: amem-serve [--addr H:P] [--port-file PATH] [--workers N] [--shards N]
                  [--cache-dir DIR] [--state-dir DIR] [--max-cache-mb N]
                  [--max-cache-age-secs N] [--quota-rate R] [--quota-burst B]
                  [--metrics] [--allow-fault]
(R and B finite; R <= 0 turns quotas off, else B >= 1)";

/// The daemon's configuration and `--port-file`.
fn parse(
    args: impl IntoIterator<Item = String>,
) -> Result<(ServeConfig, Option<PathBuf>), CliError> {
    let mut cfg = ServeConfig::default();
    let mut port_file = None;
    let mut r = FlagReader::new(args);
    while let Some(a) = r.next_arg() {
        match a.as_str() {
            "--addr" => cfg.addr = r.value()?,
            "--port-file" => port_file = Some(r.value()?.into()),
            "--workers" => cfg.workers = r.parse_in(..)?,
            "--shards" => cfg.shards = r.parse_in(..)?,
            "--cache-dir" => cfg.cache_dir = Some(r.value()?.into()),
            "--state-dir" => cfg.state_dir = Some(r.value()?.into()),
            "--max-cache-mb" => cfg.store.max_bytes = Some(r.value_with(mib_to_bytes)?),
            "--max-cache-age-secs" => cfg.store.max_age_secs = Some(r.parse_in(..)?),
            "--quota-rate" => cfg.quota.rate_per_sec = r.parse_in(f64::MIN..=f64::MAX)?,
            "--quota-burst" => cfg.quota.burst = r.parse_in(f64::MIN..=f64::MAX)?,
            "--metrics" => cfg.metrics = true,
            "--allow-fault" => cfg.allow_fault = true,
            _ => return Err(r.unknown()),
        }
    }
    // A bucket that never holds a whole token never admits a queued job.
    if cfg.quota.rate_per_sec > 0.0 && cfg.quota.burst < 1.0 {
        let burst = cfg.quota.burst;
        return Err(CliError(format!(
            "--quota-burst \"{burst}\": below 1 under a positive --quota-rate"
        )));
    }
    Ok((cfg, port_file))
}

/// `--max-cache-mb`'s MiB in bytes, refusing a count whose bytes overflow.
fn mib_to_bytes(v: &str) -> Result<u64, String> {
    let mb: u64 = v.parse().map_err(|e| format!("{e}"))?;
    mb.checked_mul(1 << 20)
        .ok_or_else(|| "more bytes than a u64 holds".into())
}

fn main() {
    let (mut cfg, port_file) =
        parse(std::env::args().skip(1)).unwrap_or_else(|e| cli::exit_usage(&e, USAGE));
    // No cache dir on the command line: fall back to the library's
    // environment convention so daemon and library share entries.
    let env_dir = || std::env::var_os("AMEM_CACHE_DIR").filter(|d| !d.is_empty());
    cfg.cache_dir = cfg.cache_dir.or_else(|| env_dir().map(PathBuf::from));
    if cfg.store.max_bytes.is_none() && cfg.store.max_age_secs.is_none() && cfg.cache_dir.is_some()
    {
        eprintln!(
            "[serve] note: shared store is unbounded (no --max-cache-mb/--max-cache-age-secs)"
        );
    }

    let server = Server::start(cfg).unwrap_or_else(|e| {
        eprintln!("error: cannot start the daemon: {e}");
        std::process::exit(1)
    });
    let addr = server.addr();
    println!("[serve] listening on {addr}");
    if server.recovered_jobs() > 0 {
        println!(
            "[serve] recovered {} job record(s) orphaned by a previous run",
            server.recovered_jobs()
        );
    }
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, addr.to_string()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1)
        }
    }
    let stats = server.wait();
    println!(
        "[serve] drained: {} jobs completed, {} failed, cache hit rate {:.1}%",
        stats.jobs_completed,
        stats.jobs_failed,
        stats.hit_rate_percent()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<(ServeConfig, Option<PathBuf>), CliError> {
        parse(line.split_whitespace().map(String::from))
    }

    /// Every flag, as CI and the README pass them, reads to the values
    /// the command line names.
    #[test]
    fn a_full_command_line_reads_every_flag() {
        let (cfg, port_file) = parse_line(
            "--addr 127.0.0.1:4774 --port-file /tmp/p --workers 4 --shards 8 \
             --cache-dir target/amem-cache --state-dir /tmp/s --max-cache-mb 512 \
             --max-cache-age-secs 3600 --quota-rate 2.5 --quota-burst 3 --metrics --allow-fault",
        )
        .unwrap();
        let mut expected = ServeConfig {
            addr: "127.0.0.1:4774".into(),
            workers: 4,
            shards: 8,
            cache_dir: Some("target/amem-cache".into()),
            state_dir: Some("/tmp/s".into()),
            metrics: true,
            allow_fault: true,
            ..ServeConfig::default()
        };
        expected.store.max_bytes = Some(512 << 20);
        expected.store.max_age_secs = Some(3600);
        expected.quota.rate_per_sec = 2.5;
        expected.quota.burst = 3.0;
        assert_eq!(format!("{cfg:?}"), format!("{expected:?}"));
        assert_eq!(port_file, Some(PathBuf::from("/tmp/p")));
        let (cfg, port_file) = parse_line("").unwrap();
        assert_eq!(format!("{cfg:?}"), format!("{:?}", ServeConfig::default()));
        assert_eq!(port_file, None);
    }

    #[test]
    fn a_cache_size_whose_bytes_overflow_is_refused() {
        let largest = u64::MAX >> 20;
        let (cfg, _) = parse_line(&format!("--max-cache-mb {largest}")).unwrap();
        assert_eq!(cfg.store.max_bytes, Some(largest << 20));
        let err = parse_line(&format!("--max-cache-mb {}", largest + 1)).unwrap_err();
        assert_eq!(
            err.0,
            "--max-cache-mb \"17592186044416\": more bytes than a u64 holds"
        );
    }

    #[test]
    fn a_quota_that_never_admits_is_refused() {
        for line in [
            "--quota-burst 0.5",
            "--quota-rate 1 --quota-burst 0",
            "--quota-rate nan",
            "--quota-burst inf",
        ] {
            let err = parse_line(line).unwrap_err().0;
            assert!(err.starts_with("--quota-"), "{line}: {err}");
        }
        // A rate of zero or below is the documented "no quota": any finite burst.
        for line in [
            "--quota-rate -1 --quota-burst 0.5",
            "--quota-rate 0 --quota-burst 0",
        ] {
            assert!(parse_line(line).is_ok(), "{line}");
        }
    }
}
