#![forbid(unsafe_code)]
//! CLI client for the measurement daemon.
//!
//! ```text
//! amem-client [--addr H:P] [--tenant T] [--priority high|normal|low]
//!             [--fault SPEC] <command> [command flags]
//!
//! commands:
//!   ping                         liveness check
//!   stats [--assert-dedup]      service counters; optionally require
//!                                unique simulations < jobs completed
//!   metrics                      dump the daemon's Prometheus text
//!   shutdown                     drain the daemon and report jobs done
//!   sweep [--scale F] [--csv P] [--local]
//!                                run the fig1-shaped sweep and render
//!                                the paper's table (byte-identical to
//!                                `cargo run --bin fig1`)
//!   measure [--scale F]          one fig1 probe point, no interference
//! ```
//!
//! `sweep --local` runs the library path in-process instead of talking
//! to a daemon — CI diffs the two CSVs to prove byte identity.

use std::io::Write as _;

use amem_core::figures::{fig1_probe, fig1_table, FIG1_MAX_COUNT, FIG1_PER_PROCESSOR};
use amem_core::platform::{ProbeWorkload, SimPlatform};
use amem_core::sweep::run_sweep;
use amem_core::Executor;
use amem_interfere::{InterferenceKind, InterferenceMix};
use amem_serve::protocol::{JobSpec, Priority, WorkloadSpec};
use amem_serve::Client;
use amem_sim::config::MachineConfig;

fn die(msg: &str) -> ! {
    eprintln!("amem-client: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut addr = std::env::var("AMEM_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:4774".into());
    let mut tenant = "default".to_string();
    let mut priority = Priority::Normal;
    let mut fault: Option<String> = None;
    let mut scale = 0.125f64;
    let mut csv: Option<std::path::PathBuf> = None;
    let mut local = false;
    let mut assert_dedup = false;
    let mut command: Option<String> = None;

    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |what: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{a} needs {what}")))
        };
        match a.as_str() {
            "--addr" => addr = val("host:port"),
            "--tenant" => tenant = val("a name"),
            "--priority" => {
                priority = Priority::parse(&val("high|normal|low")).unwrap_or_else(|e| die(&e));
            }
            "--fault" => fault = Some(val("a FaultSpec")),
            "--scale" => {
                scale = val("a float")
                    .parse()
                    .unwrap_or_else(|_| die("--scale must be a float"));
            }
            "--csv" => csv = Some(std::path::PathBuf::from(val("a path"))),
            "--local" => local = true,
            "--assert-dedup" => assert_dedup = true,
            cmd if command.is_none() && !cmd.starts_with("--") => command = Some(cmd.to_string()),
            other => die(&format!("unknown argument: {other}")),
        }
    }
    let command = command
        .unwrap_or_else(|| die("no command (want ping/stats/metrics/shutdown/sweep/measure)"));

    let machine = MachineConfig::xeon20mb().scaled(scale);
    let connect = |tenant: &str, priority, fault: &Option<String>| -> Client {
        let mut c = Client::connect(&addr)
            .unwrap_or_else(|e| die(&format!("cannot connect to {addr}: {e}")));
        c.tenant = tenant.into();
        c.priority = priority;
        c.fault = fault.clone();
        c
    };

    match command.as_str() {
        "ping" => {
            connect(&tenant, priority, &fault)
                .ping()
                .unwrap_or_else(|e| die(&format!("ping failed: {e}")));
            println!("pong");
        }
        "stats" => {
            let stats = connect(&tenant, priority, &fault)
                .stats()
                .unwrap_or_else(|e| die(&format!("stats failed: {e}")));
            let json = serde_json::to_string_pretty(&stats).expect("stats serialize");
            println!("{json}");
            if assert_dedup {
                let sims = stats.cache.sim_runs;
                let done = stats.jobs_completed;
                if stats.cache.dedup_hits + stats.cache.mem_hits + stats.cache.disk_hits == 0 {
                    die(&format!(
                        "dedup assertion failed: no cache/dedup hits at all \
                         ({sims} sims for {done} jobs)"
                    ));
                }
                println!("[assert-dedup] ok: {sims} unique sims across {done} completed jobs");
            }
        }
        "metrics" => {
            let text = connect(&tenant, priority, &fault)
                .metrics()
                .unwrap_or_else(|e| die(&format!("metrics failed: {e}")));
            print!("{text}");
            let _ = std::io::stdout().flush();
        }
        "shutdown" => {
            let done = connect(&tenant, priority, &fault)
                .shutdown()
                .unwrap_or_else(|e| die(&format!("shutdown failed: {e}")));
            println!("[shutdown] drained; {done} jobs completed over the daemon's lifetime");
        }
        "sweep" => {
            let sweep = if local {
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
                .unwrap_or_else(|e| die(&format!("local sweep failed: {e}")))
            } else {
                connect(&tenant, priority, &fault)
                    .sweep(JobSpec::Sweep {
                        machine: machine.clone(),
                        workload: WorkloadSpec::Probe(fig1_probe(&machine)),
                        per_processor: FIG1_PER_PROCESSOR,
                        kind: InterferenceKind::Storage,
                        max_count: FIG1_MAX_COUNT,
                    })
                    .unwrap_or_else(|e| die(&format!("sweep failed: {e}")))
            };
            let table = fig1_table(&machine, &sweep);
            println!("{}", table.render());
            if let Some(path) = csv {
                table
                    .write_csv(&path)
                    .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
                println!("[csv] {}", path.display());
            }
        }
        "measure" => {
            let m = if local {
                let exec = Executor::new(SimPlatform::new(machine.clone()));
                let m = exec
                    .run(
                        &ProbeWorkload(fig1_probe(&machine)),
                        FIG1_PER_PROCESSOR,
                        InterferenceMix::none(),
                    )
                    .unwrap_or_else(|e| die(&format!("local measure failed: {e}")));
                (*m).clone()
            } else {
                connect(&tenant, priority, &fault)
                    .measure(JobSpec::Measure {
                        machine: machine.clone(),
                        workload: WorkloadSpec::Probe(fig1_probe(&machine)),
                        per_processor: FIG1_PER_PROCESSOR,
                        mix: InterferenceMix::none(),
                    })
                    .unwrap_or_else(|e| die(&format!("measure failed: {e}")))
            };
            println!(
                "{}",
                serde_json::to_string(&m).expect("measurement serialize")
            );
        }
        other => die(&format!(
            "unknown command '{other}' (want ping/stats/metrics/shutdown/sweep/measure)"
        )),
    }
}
