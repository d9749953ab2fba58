//! `--selfcheck`: does the benchmark agree with itself?
//!
//! Runs every workload twice in sequence — two *sets*, each workload in
//! a process of its own, same seed — and compares, per end-to-end
//! metric, the two medians against the bound `BENCHMARK.json` fixes for
//! it. The same code measured twice must land within the bound it will
//! later be held to; a metric that cannot is to be made steadier (longer
//! rounds) before its bound is widened. Results, exact counts and the
//! model error must be identical between the sets, not merely close.

use std::process::Command;

use serde_json::Value;

use crate::run::Options;
use crate::workloads::NAMES;

/// Counts of the `detail` line that the inputs alone determine. (How the
/// hits divide into memory, disk and dedup depends on which of two
/// clients reaches a key first, so those are left out.)
const EXACT: [&str; 9] = [
    "sim_runs",
    "sim_cycles",
    "sim_accesses",
    "level_lookups",
    "l3_hits",
    "l3_misses",
    "dram_bytes",
    "executor_fresh",
    "executor_stores",
];

struct Bound {
    name: String,
    bound: f64,
}

struct Outcome {
    result: Value,
    detail: Value,
}

fn bounds() -> Vec<Bound> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .expect("read BENCHMARK.json (run --selfcheck from the repository root)");
    let manifest: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    manifest
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("BENCHMARK.json lists end_to_end metrics")
        .iter()
        .map(|m| Bound {
            name: m.get("name").and_then(Value::as_str).expect("name").into(),
            bound: m.get("bound").and_then(Value::as_f64).expect("bound"),
        })
        .collect()
}

fn run_child(opts: &Options, workload: &str) -> Outcome {
    let exe = std::env::current_exe().expect("path of this executable");
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .arg("--out")
        .arg(&opts.out)
        .args(opts.quick.then_some("--quick"))
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("start a workload process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let last = lines.last().copied().unwrap_or_default();
    let detail = lines
        .iter()
        .rev()
        .find_map(|l| l.strip_prefix("detail "))
        .unwrap_or("null");
    Outcome {
        result: serde_json::from_str(last)
            .unwrap_or_else(|e| panic!("{workload} printed no result line ({e}):\n{stdout}")),
        detail: serde_json::from_str(detail).expect("detail line is JSON"),
    }
}

fn metric(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

pub fn run(opts: &Options) -> bool {
    let bounds = bounds();
    let sets: Vec<Vec<Outcome>> = (1..=2)
        .map(|set| {
            NAMES
                .iter()
                .map(|w| {
                    eprintln!("[selfcheck] set {set}: {w}");
                    run_child(opts, w)
                })
                .collect()
        })
        .collect();

    let mut ok = true;
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "set 1", "set 2", "diff", "bound"
    );
    for (i, workload) in NAMES.iter().enumerate() {
        let (a, b) = (&sets[0][i], &sets[1][i]);
        for bound in &bounds {
            let (x, y) = (metric(a, &bound.name), metric(b, &bound.name));
            let diff = (y - x) / x;
            // NaN (a missing metric) must fail too.
            let within = diff.abs() <= bound.bound;
            ok &= within;
            println!(
                "{workload:<16} {:<12} {x:>12.4} {y:>12.4} {:>7.1}% {:>6.0}%{}",
                bound.name,
                diff * 100.0,
                bound.bound * 100.0,
                if within { "" } else { "  EXCEEDS BOUND" }
            );
        }
        for outcome in [a, b] {
            let failed = outcome.result.get("failed").and_then(Value::as_u64);
            if failed != Some(0) {
                ok = false;
                println!("{workload:<16} ops_failed = {failed:?}");
            }
        }
        let same = |key: &str| a.detail.get(key) == b.detail.get(key);
        let exact = |key: &str| {
            a.detail.get("exact").and_then(|e| e.get(key))
                == b.detail.get("exact").and_then(|e| e.get(key))
        };
        let mut differing: Vec<&str> = EXACT.iter().copied().filter(|k| !exact(k)).collect();
        differing.extend(["digest", "model_err_pct"].into_iter().filter(|k| !same(k)));
        if differing.is_empty() {
            println!("{workload:<16} results, exact counts and model error identical");
        } else {
            ok = false;
            println!("{workload:<16} DIFFER between the sets: {differing:?}");
        }
    }
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    ok
}
