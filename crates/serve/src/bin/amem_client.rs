#![forbid(unsafe_code)]
//! CLI client for the measurement daemon (synopsis: `USAGE`).
//!
//! `ping` checks liveness; `stats` prints the service counters, and
//! with `--assert-dedup` fails unless some job was a cache or dedup
//! hit; `metrics` dumps the daemon's Prometheus text; `shutdown` drains
//! the daemon and reports the jobs done. `sweep` runs the fig1-shaped
//! sweep and renders the paper's table, byte-identical to `repro fig1`;
//! `measure` runs one fig1 probe point without interference. With
//! `--local` either runs the library path in-process instead of talking
//! to a daemon, so the two CSVs can be diffed for byte identity.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use amem_core::cli::{self, CliError, FlagReader};
use amem_core::figures::{fig1_probe, fig1_table, FIG1_MAX_COUNT, FIG1_PER_PROCESSOR};
use amem_core::platform::{ProbeWorkload, SimPlatform};
use amem_core::sweep::run_sweep;
use amem_core::Executor;
use amem_interfere::{InterferenceKind, InterferenceMix};
use amem_serve::protocol::{JobSpec, Priority, WorkloadSpec};
use amem_serve::Client;
use amem_sim::config::MachineConfig;

const USAGE: &str = "\
usage: amem-client [--addr H:P] [--tenant T] [--priority high|normal|low]
                   [--fault SPEC] <command> [command flags]
commands: ping | stats [--assert-dedup] | metrics | shutdown
        | sweep [--scale F in (0,1]] [--csv PATH] [--local]
        | measure [--scale F in (0,1]] [--local]";

#[derive(Debug, Default)]
struct Cli {
    addr: String,
    tenant: String,
    priority: Priority,
    fault: Option<String>,
    scale: f64,
    csv: Option<PathBuf>,
    local: bool,
    assert_dedup: bool,
    command: String,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, CliError> {
    let mut c = Cli {
        addr: "127.0.0.1:4774".into(),
        tenant: "default".into(),
        scale: 0.125,
        ..Cli::default()
    };
    let mut r = FlagReader::new(args);
    while let Some(a) = r.next_arg() {
        match a.as_str() {
            "--addr" => c.addr = r.value()?,
            "--tenant" => c.tenant = r.value()?,
            "--priority" => c.priority = r.value_with(Priority::parse)?,
            "--fault" => c.fault = Some(r.value()?),
            "--scale" => c.scale = r.parse_in(cli::SCALE)?,
            "--csv" => c.csv = Some(r.value()?.into()),
            "--local" => c.local = true,
            "--assert-dedup" => c.assert_dedup = true,
            // The command; `run` refuses a name it does not know.
            _ if c.command.is_empty() && !a.starts_with("--") => c.command = a,
            _ => return Err(r.unknown()),
        }
    }
    match c.command.as_str() {
        "" => Err(CliError("no command".into())),
        _ => Ok(c),
    }
}

fn main() -> ExitCode {
    let c = parse(std::env::args().skip(1)).unwrap_or_else(|e| cli::exit_usage(&e, USAGE));
    if let Err(e) = run(&c) {
        eprintln!("amem-client: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Run the command `c` names.
fn run(c: &Cli) -> Result<(), String> {
    let machine = MachineConfig::xeon20mb().scaled(c.scale);
    let connect = || -> Result<Client, String> {
        let mut client =
            Client::connect(&c.addr).map_err(|e| format!("cannot connect to {}: {e}", c.addr))?;
        client.tenant = c.tenant.clone();
        client.priority = c.priority;
        client.fault = c.fault.clone();
        Ok(client)
    };

    match c.command.as_str() {
        "ping" => {
            connect()?.ping().map_err(|e| format!("ping failed: {e}"))?;
            println!("pong");
        }
        "stats" => {
            let stats = connect()?
                .stats()
                .map_err(|e| format!("stats failed: {e}"))?;
            let json = serde_json::to_string_pretty(&stats).expect("stats serialize");
            println!("{json}");
            if c.assert_dedup {
                let sims = stats.cache.sim_runs;
                let done = stats.jobs_completed;
                if stats.cache.dedup_hits + stats.cache.mem_hits + stats.cache.disk_hits == 0 {
                    return Err(format!(
                        "dedup assertion failed: no cache/dedup hits at all \
                         ({sims} sims for {done} jobs)"
                    ));
                }
                println!("[assert-dedup] ok: {sims} unique sims across {done} completed jobs");
            }
        }
        "metrics" => {
            let text = connect()?
                .metrics()
                .map_err(|e| format!("metrics failed: {e}"))?;
            print!("{text}");
            let _ = std::io::stdout().flush();
        }
        "shutdown" => {
            let done = connect()?
                .shutdown()
                .map_err(|e| format!("shutdown failed: {e}"))?;
            println!("[shutdown] drained; {done} jobs completed over the daemon's lifetime");
        }
        "sweep" => {
            let sweep = if c.local {
                // The library path, for parity diffs: same executor code,
                // same cache-dir convention ($AMEM_CACHE_DIR), no daemon.
                let exec = Executor::new(SimPlatform::new(machine.clone()));
                run_sweep(
                    &exec,
                    &ProbeWorkload(fig1_probe(&machine)),
                    FIG1_PER_PROCESSOR,
                    InterferenceKind::Storage,
                    FIG1_MAX_COUNT,
                )
                .map_err(|e| format!("local sweep failed: {e}"))?
            } else {
                connect()?
                    .sweep(JobSpec::Sweep {
                        machine: machine.clone(),
                        workload: WorkloadSpec::Probe(fig1_probe(&machine)),
                        per_processor: FIG1_PER_PROCESSOR,
                        kind: InterferenceKind::Storage,
                        max_count: FIG1_MAX_COUNT,
                    })
                    .map_err(|e| format!("sweep failed: {e}"))?
            };
            let table = fig1_table(&machine, &sweep);
            println!("{}", table.render());
            if let Some(path) = &c.csv {
                table
                    .write_csv(path)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                println!("[csv] {}", path.display());
            }
        }
        "measure" => {
            let m = if c.local {
                let exec = Executor::new(SimPlatform::new(machine.clone()));
                let m = exec
                    .run(
                        &ProbeWorkload(fig1_probe(&machine)),
                        FIG1_PER_PROCESSOR,
                        InterferenceMix::none(),
                    )
                    .map_err(|e| format!("local measure failed: {e}"))?;
                (*m).clone()
            } else {
                connect()?
                    .measure(JobSpec::Measure {
                        machine: machine.clone(),
                        workload: WorkloadSpec::Probe(fig1_probe(&machine)),
                        per_processor: FIG1_PER_PROCESSOR,
                        mix: InterferenceMix::none(),
                    })
                    .map_err(|e| format!("measure failed: {e}"))?
            };
            println!(
                "{}",
                serde_json::to_string(&m).expect("measurement serialize")
            );
        }
        cmd => cli::exit_usage(&CliError(format!("unknown command: {cmd}")), USAGE),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Cli, CliError> {
        parse(line.split_whitespace().map(String::from))
    }

    /// The command lines of CI and the README read to the values they name.
    #[test]
    fn ci_and_readme_command_lines_read_their_values() {
        let c = parse_line(
            "--addr 127.0.0.1:9 --tenant ci-1 --priority high --fault seed=1 sweep \
             --scale 0.0625 --csv /tmp/s.csv --local",
        )
        .unwrap();
        assert_eq!(
            (c.addr.as_str(), c.tenant.as_str()),
            ("127.0.0.1:9", "ci-1")
        );
        assert_eq!(
            (c.priority, c.fault.as_deref()),
            (Priority::High, Some("seed=1"))
        );
        assert_eq!(
            (c.command.as_str(), c.scale, c.local),
            ("sweep", 0.0625, true)
        );
        assert_eq!(c.csv, Some(PathBuf::from("/tmp/s.csv")));
        let c = parse_line("stats --assert-dedup").unwrap();
        assert_eq!((c.command.as_str(), c.assert_dedup), ("stats", true));
        assert_eq!(
            (c.addr.as_str(), c.tenant.as_str(), c.scale),
            ("127.0.0.1:4774", "default", 0.125)
        );
        assert_eq!(
            (c.priority, c.fault, c.csv, c.local),
            (Priority::Normal, None, None, false)
        );
    }

    #[test]
    fn a_bad_or_missing_command_is_refused() {
        assert_eq!(parse_line("--addr x").unwrap_err().0, "no command");
        assert_eq!(
            parse_line("ping ping").unwrap_err().0,
            "unknown argument: ping"
        );
        assert!(parse_line("--scale 0 sweep --local")
            .unwrap_err()
            .0
            .starts_with("--scale \"0\""));
    }
}
