//! The repo's benchmark: four workloads end to end, and every layer of
//! the stack from outside, one workload per process.
//!
//! ```text
//! amem-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! amem-benchmark --layers            # the per-layer pass on its own
//! amem-benchmark --selfcheck         # two sets of runs must agree
//! amem-benchmark --sabotage-check    # every output check can fail
//! ```
//!
//! `--trace 0` prints the end-to-end metrics (tracing off); `--trace 1`
//! repeats the workload with spans on, runs the per-layer pass, writes a
//! Chrome trace under `--out`, and prints the per-layer metrics. Either
//! way the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`, and the exit code is
//! non-zero if any output check failed. See `benchmark/README.md`.

mod harness;
mod layers;
mod run;
mod sabotage;
mod selfcheck;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use run::Options;

const USAGE: &str = "usage: amem-benchmark --workload <cold_sweep|curve_calibrate|served_warm|served_cold> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick] [--out <dir>]\n       \
                     amem-benchmark --layers [--quick] | --selfcheck [--seconds <s>] | --sabotage-check";

enum Mode {
    Workload,
    Layers,
    Selfcheck,
    SabotageCheck,
}

fn main() -> ExitCode {
    // Before any thread exists: a stray setting must not change what is
    // measured.
    harness::scrub_env();

    let mut mode = Mode::Workload;
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
        // Inside the checkout, and ignored by git. Run from the repo root.
        out: PathBuf::from("benchmark/out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{arg} needs {what}\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => opts.workload = value("a workload name"),
            "--seed" => opts.seed = value("an integer").parse().expect("--seed: an integer"),
            "--seconds" => {
                opts.seconds = value("a number").parse().expect("--seconds: a number");
            }
            "--trace" => {
                opts.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    other => panic!("--trace takes 0 or 1, not '{other}'"),
                }
            }
            "--out" => opts.out = PathBuf::from(value("a directory")),
            "--quick" => opts.quick = true,
            "--layers" => mode = Mode::Layers,
            "--selfcheck" => mode = Mode::Selfcheck,
            "--sabotage-check" => mode = Mode::SabotageCheck,
            other => panic!("unknown argument '{other}'\n{USAGE}"),
        }
    }
    std::fs::create_dir_all(&opts.out).expect("create the output directory");

    let ok = match mode {
        Mode::Workload => {
            assert!(!opts.workload.is_empty(), "no --workload given\n{USAGE}");
            let report = run::run(&opts);
            println!(
                "detail {}",
                serde_json::to_string(&report.detail).expect("serialize detail")
            );
            println!("{}", run::result_line(&report));
            report.tally.failed == 0
        }
        Mode::Layers => {
            run::layers_only(&opts.out, opts.quick);
            true
        }
        Mode::Selfcheck => selfcheck::run(&opts),
        Mode::SabotageCheck => sabotage::run(&opts.out),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
