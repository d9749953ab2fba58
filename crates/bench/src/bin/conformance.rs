#![forbid(unsafe_code)]
//! Conformance driver: differential fuzzing + analytic oracles from the
//! command line.
//!
//! ```text
//! cargo run --release -p amem-bench --bin conformance                 # 200 seeds/config
//! cargo run --release -p amem-bench --bin conformance -- --seeds 1000
//! cargo run --release -p amem-bench --bin conformance -- --config nonpow2-bip
//! cargo run --release -p amem-bench --bin conformance -- --config xeon-20way
//! cargo run --release -p amem-bench --bin conformance -- --config noninclusive-l3
//! cargo run --release -p amem-bench --bin conformance -- --sabotage --minimize
//! cargo run --release -p amem-bench --bin conformance -- --replay target/conformance/x.json
//! ```
//!
//! Default run: fuzz every geometry in [`amem_conformance::configs`] for
//! `--seeds` seeds each (parallel over seeds), the 20-way `xeon-20way`
//! lane (the shipped L3 shape, CAT-masked), the `noninclusive-l3` lane
//! (up-links going stale under live L2 copies), run the two-socket
//! ping-pong/barrier lane (substrate differential + fast-lane budget
//! invariance), lockstep the single-pass curve engine against the
//! per-point reference-cache sweep over the same seed budget, then
//! evaluate the Eq. 4 oracle pack. Any divergence is written (optionally
//! `--minimize`d first) to `target/conformance/` and the process exits
//! non-zero.
//!
//! `--sabotage` swaps in the deliberately broken off-by-one reference
//! (and, on the ping-pong lane, an engine whose fast lane overruns the
//! quantum horizon by one cycle) — a self-test that the harness detects
//! and shrinks real defects; in that mode divergences are *expected*
//! and the exit code inverts.

use std::process::ExitCode;

use amem_conformance::curves::{
    check_curve_case, check_wide_curve_case, gen_curve_case, CurveDivergence,
};
use amem_conformance::fuzz::{
    check_case, check_pingpong_case, gen_case, gen_pingpong_case, gen_xeon20way_case, minimize,
    noninclusive_config, reproducer_dir, sabotage, write_reproducer, Divergence, TraceCase,
};
use amem_conformance::{configs, ehr_oracle_pack, replay_file};
use rayon::prelude::*;

struct Args {
    seeds: u64,
    ops: usize,
    config: Option<String>,
    minimize: bool,
    sabotage: bool,
    replay: Option<String>,
    oracles: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        seeds: 200,
        ops: 1500,
        config: None,
        minimize: false,
        sabotage: false,
        replay: None,
        oracles: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => a.seeds = it.next().expect("--seeds N").parse().expect("seed count"),
            "--ops" => a.ops = it.next().expect("--ops N").parse().expect("ops per lane"),
            "--config" => a.config = Some(it.next().expect("--config NAME")),
            "--minimize" => a.minimize = true,
            "--sabotage" => a.sabotage = true,
            "--replay" => a.replay = Some(it.next().expect("--replay FILE")),
            "--no-oracles" => a.oracles = false,
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    a
}

type Check = fn(&TraceCase) -> Result<(), Divergence>;

/// Fuzz one lane over the seed budget (parallel over seeds), report it,
/// and write the first witness — `--minimize`d if asked — as a
/// reproducer. Returns whether the lane diverged.
fn run_lane(name: &str, args: &Args, gen: impl Fn(u64) -> TraceCase + Sync, check: Check) -> bool {
    let divergences: Vec<Divergence> = (0..args.seeds)
        .into_par_iter()
        .map(|seed| check(&gen(seed)).err())
        .collect::<Vec<Option<Divergence>>, _>()
        .into_iter()
        .flatten()
        .collect();
    println!(
        "{:<20} {} seeds, {} divergence(s)",
        name,
        args.seeds,
        divergences.len()
    );
    // One witness per lane is plenty; minimizing hundreds is noise.
    let Some(d) = divergences.into_iter().next() else {
        return false;
    };
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
    true
}

fn main() -> ExitCode {
    let args = parse_args();

    if let Some(path) = &args.replay {
        return match replay_file(path) {
            Ok(Ok(())) => {
                println!("replay {path}: substrates agree");
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

    let check: Check = if args.sabotage {
        sabotage::check_case_sabotaged
    } else {
        check_case
    };
    let wanted = |name: &str| args.config.as_deref().is_none_or(|only| only == name);

    let mut total_div = 0usize;
    for cfg in configs() {
        if wanted(cfg.name) {
            let gen = |seed| gen_case(&cfg, seed, args.ops);
            total_div += run_lane(cfg.name, &args, gen, check) as usize;
        }
    }

    // The shipped L3 shape (20-way, hashed, CAT masks across the set
    // kernels' 8|8|4 seams) — a lane of its own, outside `configs()`.
    if wanted("xeon-20way") {
        let gen = |seed| gen_xeon20way_case(seed, args.ops);
        total_div += run_lane("xeon-20way", &args, gen, check) as usize;
    }

    // The non-inclusive L3: the one setting where an L2 entry's up-link
    // goes stale while the L2 copy lives. Also outside `configs()`.
    if wanted("noninclusive-l3") {
        let cfg = noninclusive_config();
        let gen = |seed| gen_case(&cfg, seed, args.ops);
        total_div += run_lane(cfg.name, &args, gen, check) as usize;
    }

    // Ping-pong lane: shared-line / barrier-heavy traces across two
    // sockets, checked both against the reference substrate and for
    // fast-lane budget invariance (lockstep vs default vs seed-varied).
    // Under --sabotage it instead runs the engine with a planted
    // one-cycle horizon overrun and must see it diverge.
    if wanted("pingpong-2s") {
        let pp_check: Check = if args.sabotage {
            sabotage::check_case_horizon_leaky
        } else {
            check_pingpong_case
        };
        let gen = |seed| gen_pingpong_case(seed, args.ops);
        total_div += run_lane("pingpong-2s", &args, gen, pp_check) as usize;
    }

    // Curve lockstep: the single-pass stack-distance engine vs a naive
    // per-point reference-cache sweep, over the same seed budget as the
    // substrate fuzzing (skipped under --sabotage and --config, which
    // scope the run to the substrate geometries).
    let mut curve_div = 0usize;
    if !args.sabotage && args.config.is_none() {
        let divergences: Vec<CurveDivergence> = (0..args.seeds)
            .into_par_iter()
            .map(|seed| check_curve_case(seed, &gen_curve_case(seed, args.ops)).err())
            .collect::<Vec<Option<CurveDivergence>>, _>()
            .into_iter()
            // Plus the one case wider than a table page and a slot window.
            .chain([check_wide_curve_case(args.seeds).err()])
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
    }

    let mut oracle_fail = false;
    if args.oracles && !args.sabotage {
        println!("\nEq. 4 oracles (fully-associative, Table II families):");
        for o in ehr_oracle_pack() {
            println!("  {}", o.describe());
            oracle_fail |= !o.holds();
        }
    }

    if args.sabotage {
        // Self-test mode: the harness must have caught the planted bug.
        if total_div > 0 {
            println!("\nsabotage detected as expected");
            ExitCode::SUCCESS
        } else {
            println!("\nsabotage NOT detected — harness is blind");
            ExitCode::FAILURE
        }
    } else if total_div > 0 || curve_div > 0 || oracle_fail {
        ExitCode::FAILURE
    } else {
        println!("\nall substrates agree; oracles hold");
        ExitCode::SUCCESS
    }
}
