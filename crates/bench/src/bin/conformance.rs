#![forbid(unsafe_code)]
//! Conformance driver: differential fuzzing + analytic oracles from the
//! command line (synopsis: `USAGE`).
//!
//! Default run: fuzz every lane of [`amem_conformance::fuzz::lanes`] —
//! the geometries of [`amem_conformance::configs`], the 20-way
//! `xeon-20way` lane (the shipped L3 shape, CAT-masked), the
//! `noninclusive-l3` lane (up-links going stale under live L2 copies) and
//! the two-socket ping-pong/barrier lane — for `--seeds` seeds each
//! (parallel over seeds), holding the production engine to the reference
//! machine event for event. Then, unless `--config` names one lane to
//! run alone, lockstep the single-pass curve engine against the
//! per-point reference-cache sweep and run the QoS controller-determinism
//! lane over the same seeds. Last, evaluate the Eq. 4 oracle pack. Any divergence is written (optionally
//! `--minimize`d first) to `target/conformance/` and the run exits 1.
//!
//! `--sabotage` is the harness's self-test: it runs the lanes once per
//! planted fault (every [`RefFault`], then an engine whose dispatch
//! overruns the quantum horizon by one cycle) and succeeds only if every
//! fault diverges on some lane, so in that mode the exit code inverts.

// A `Divergence` carries the whole failing case: it is the reproducer
// payload (see `amem_conformance::fuzz`).
#![allow(clippy::result_large_err)]

use std::process::ExitCode;

use amem_conformance::curves::{
    check_curve_case, check_long_warmup_curve_case, check_wide_curve_case, gen_curve_case,
    CurveDivergence,
};
use amem_conformance::fuzz::{
    check_case, check_case_with, lanes, minimize, reproducer_dir, sabotage, write_reproducer,
    Divergence, FuzzLane, TraceCase,
};
use amem_conformance::{ehr_oracle_pack, qos_seed_sweep, replay_file, RefFault};
use amem_core::cli::{self, CliError, FlagReader};
use amem_core::par_map;

/// Ops per generated fuzz trace.
const OPS: usize = 1500;

const USAGE: &str = "\
usage: conformance [--seeds N > 0, default 200] [--config LANE] [--minimize]
                   [--sabotage] [--replay FILE] [--no-oracles]";

#[derive(Debug, Default)]
struct Args {
    seeds: u64,
    config: Option<String>,
    minimize: bool,
    sabotage: bool,
    replay: Option<String>,
    oracles: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, CliError> {
    let mut a = Args {
        seeds: 200,
        oracles: true,
        ..Args::default()
    };
    let names: Vec<&str> = lanes(0).iter().map(|l| l.name).collect();
    let lane = |v: &str| match names.contains(&v) {
        true => Ok(v.to_string()),
        false => Err(format!("no such lane (lanes: {})", names.join(", "))),
    };
    let mut r = FlagReader::new(args);
    while let Some(arg) = r.next_arg() {
        match arg.as_str() {
            "--seeds" => a.seeds = r.parse_in(1..)?,
            "--config" => a.config = Some(r.value_with(lane)?),
            "--minimize" => a.minimize = true,
            "--sabotage" => a.sabotage = true,
            "--replay" => a.replay = Some(r.value()?),
            "--no-oracles" => a.oracles = false,
            _ => return Err(r.unknown()),
        }
    }
    Ok(a)
}

type Check = dyn Fn(&TraceCase) -> Result<(), Divergence> + Sync;

/// Fuzz one lane over the seed budget (parallel over seeds), report it,
/// and return its first divergence.
fn run_lane(lane: &FuzzLane, seeds: u64, check: &Check) -> Option<Divergence> {
    let divergences: Vec<Divergence> = par_map(0..seeds, |seed| check(&(lane.gen)(seed)).err())
        .into_iter()
        .flatten()
        .collect();
    let first = match divergences.first() {
        Some(d) => format!(", first at seed {}", d.case.seed),
        None => String::new(),
    };
    println!(
        "{:<20} {seeds} seeds, {} divergence(s){first}",
        lane.name,
        divergences.len()
    );
    divergences.into_iter().next()
}

/// Write a witness — `--minimize`d if asked — as a reproducer.
fn write_witness(d: Divergence, args: &Args, check: &Check) {
    let case = if args.minimize {
        let m = minimize(&d.case, |c| check(c).is_err());
        println!(
            "  minimized seed {} to {} accesses",
            d.case.seed,
            m.total_accesses()
        );
        m
    } else {
        d.case
    };
    match write_reproducer(&case, reproducer_dir()) {
        Ok(p) => println!("  reproducer: {}", p.display()),
        Err(e) => eprintln!("  failed to write reproducer: {e}"),
    }
}

/// Run every lane under each planted fault; true iff every fault
/// diverged somewhere. One witness per fault is written.
fn sabotage(args: &Args, lanes: &[FuzzLane]) -> bool {
    let mut faults: Vec<(&str, Box<Check>)> = RefFault::ALL
        .iter()
        .map(|&f| {
            let check = move |c: &TraceCase| check_case_with(c, &[f]);
            (f.name(), Box::new(check) as Box<Check>)
        })
        .collect();
    faults.push(("horizon-leak", Box::new(sabotage::check_case_horizon_leaky)));
    let mut all_caught = true;
    for (name, check) in &faults {
        println!("\n{name}:");
        let mut witness = None;
        for lane in lanes {
            let d = run_lane(lane, args.seeds, check.as_ref());
            witness = witness.or(d);
        }
        match witness {
            Some(d) => write_witness(d, args, check.as_ref()),
            None => {
                println!("  NOT detected");
                all_caught = false;
            }
        }
    }
    all_caught
}

fn main() -> ExitCode {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| cli::exit_usage(&e, USAGE));

    if let Some(path) = &args.replay {
        return match replay_file(path) {
            Ok(Ok(())) => {
                println!("replay {path}: engine and reference agree");
                ExitCode::SUCCESS
            }
            Ok(Err(d)) => {
                println!("replay {path}: DIVERGED — {}", d.describe());
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("replay {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut lanes = lanes(OPS);
    lanes.retain(|l| args.config.as_deref().is_none_or(|only| only == l.name));

    if args.sabotage {
        return if sabotage(&args, &lanes) {
            println!("\nsabotage detected as expected: every planted fault diverged");
            ExitCode::SUCCESS
        } else {
            println!("\nsabotage NOT detected — harness is blind");
            ExitCode::FAILURE
        };
    }

    let mut total_div = 0usize;
    for lane in &lanes {
        if let Some(d) = run_lane(lane, args.seeds, &check_case) {
            total_div += 1;
            // One witness per lane is plenty; minimizing hundreds is noise.
            write_witness(d, &args, &check_case);
        }
    }

    // Curve lockstep: the single-pass stack-distance engine vs a naive
    // per-point reference-cache sweep, and QoS controller determinism:
    // each case run twice must give byte-identical decision logs and
    // equal event signatures. Both over the same seed budget as the lanes
    // (skipped under --config, which scopes the run to one lane).
    let (mut curve_div, mut qos_div) = (0usize, 0usize);
    if args.config.is_none() {
        let divergences: Vec<CurveDivergence> = par_map(0..args.seeds, |seed| {
            check_curve_case(seed, &gen_curve_case(seed, OPS)).err()
        })
        .into_iter()
        // Plus the one case wider than a table page and a slot window,
        // and the one whose warm-up outgrows the window.
        .chain([
            check_wide_curve_case(args.seeds).err(),
            check_long_warmup_curve_case(args.seeds).err(),
        ])
        .flatten()
        .collect();
        println!(
            "{:<20} {} seeds, {} divergence(s)",
            "curve-lockstep",
            args.seeds,
            divergences.len()
        );
        curve_div = divergences.len();
        if let Some(d) = divergences.first() {
            println!("  first: {}", d.describe());
        }

        let divergences = qos_seed_sweep(0..args.seeds);
        println!(
            "{:<20} {} seeds, {} divergence(s)",
            "qos-determinism",
            args.seeds,
            divergences.len()
        );
        qos_div = divergences.len();
        if let Some(d) = divergences.first() {
            println!("  first: seed {} ({})", d.seed, d.field);
        }
    }

    let mut oracle_fail = false;
    if args.oracles {
        println!("\nEq. 4 oracles (fully-associative, Table II families):");
        for o in ehr_oracle_pack() {
            println!("  {}", o.describe());
            oracle_fail |= !o.holds();
        }
    }

    if total_div > 0 || curve_div > 0 || qos_div > 0 || oracle_fail {
        ExitCode::FAILURE
    } else {
        let oracles = if args.oracles { "; oracles hold" } else { "" };
        println!("\nengine and reference machine agree{oracles}");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, CliError> {
        parse_args(line.split_whitespace().map(String::from))
    }

    /// The command lines of CI and the README read to the values they name.
    #[test]
    fn ci_and_readme_command_lines_read_their_values() {
        let a = parse("--seeds 200 --config noninclusive-l3 --no-oracles --minimize --sabotage")
            .unwrap();
        assert_eq!(
            (
                a.seeds,
                a.config.as_deref(),
                a.oracles,
                a.minimize,
                a.sabotage
            ),
            (200, Some("noninclusive-l3"), false, true, true)
        );
        let a = parse("--replay target/conformance/x.json").unwrap();
        assert_eq!(
            (a.seeds, a.replay.as_deref()),
            (200, Some("target/conformance/x.json"))
        );
        assert!(a.config.is_none() && a.oracles && !a.minimize && !a.sabotage);
        for lane in lanes(0) {
            assert_eq!(
                parse(&format!("--config {}", lane.name))
                    .unwrap()
                    .config
                    .as_deref(),
                Some(lane.name)
            );
        }
    }

    #[test]
    fn a_name_that_is_no_lane_is_refused_with_the_lanes() {
        let err = parse("--config pingpong").unwrap_err().0;
        assert!(
            err.starts_with("--config \"pingpong\": no such lane (lanes: "),
            "{err}"
        );
        assert!(lanes(0).iter().all(|l| err.contains(l.name)), "{err}");
        assert_eq!(
            parse("--seeds 0").unwrap_err().0,
            "--seeds \"0\": out of range"
        );
    }
}
