#![forbid(unsafe_code)]
//! `amem-stats` — cost attribution for the reproduction harness itself.
//!
//! * `--attribution <fig1|fig6>` runs the named experiment cold through
//!   the sibling `repro` binary (`--no-cache --metrics`, progress
//!   silenced, `RAYON_NUM_THREADS=1` so every `par_map` fan-out runs
//!   inline and phase time sums to wall time), then renders where the
//!   wall clock went: the leaf phases (op generation, cache lookup,
//!   simulation, aggregation, curve passes, Eq. 4 line-mass walks) that
//!   partition the run, and the `grid/...` phases that split the same
//!   time by probe-grid level — the evidence for which CSThr levels
//!   dominate the cold fig6 wall. It exits non-zero when the leaf phases
//!   cover less than 95% or more than 100.5% of the wall.
//! * `--overhead <fig>` times a figure with the metrics gate off and on
//!   (both cold, on one `par_map` worker) and prints the relative
//!   cost of instrumentation.
//!
//! Flags: `--scale <f>` (default 0.0625), `--out <dir>` for the child's
//! CSV/manifest output (default a temp dir), `--report <file>` to mirror
//! the rendered report (CI uploads it as an artifact).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use amem_core::manifest::RunManifest;
use amem_core::report::Table;
use amem_metrics::Snapshot;

/// Leaf phases partition a run's wall time; everything else (the
/// `grid/...` namespace) is an overlapping by-level view of the same time
/// and must not be added to the leaf total.
fn is_leaf(name: &str) -> bool {
    !name.starts_with("grid/")
}

struct Cli {
    attribution: Option<String>,
    overhead: Option<String>,
    scale: f64,
    out: Option<PathBuf>,
    report: Option<PathBuf>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        attribution: None,
        overhead: None,
        scale: 0.0625,
        out: None,
        report: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| panic!("{a} needs a value"));
        match a.as_str() {
            "--attribution" => cli.attribution = Some(value()),
            "--overhead" => cli.overhead = Some(value()),
            "--scale" => {
                cli.scale = value().parse().expect("--scale must be a float");
                assert!(cli.scale > 0.0 && cli.scale <= 1.0, "scale in (0,1]");
            }
            "--out" => cli.out = Some(PathBuf::from(value())),
            "--report" => cli.report = Some(PathBuf::from(value())),
            other => panic!(
                "unknown argument: {other} (expected --attribution/--overhead/\
                 --scale/--out/--report)"
            ),
        }
    }
    if cli.attribution.is_none() && cli.overhead.is_none() {
        panic!("nothing to do: pass --attribution <fig> or --overhead <fig>");
    }
    cli
}

/// Leaf-phase coverage of the wall, in percent, that a single-worker run
/// must reach: phases partition the run, so anything outside this band
/// is unattributed time or double counting.
const COVERAGE_PCT: std::ops::RangeInclusive<f64> = 95.0..=100.5;

/// Run `repro <fig>` cold and return its manifest. `metrics` turns the
/// child's gate on.
fn run_child(fig: &str, cli: &Cli, out_dir: &PathBuf, metrics: bool) -> RunManifest {
    let repro = std::env::current_exe()
        .expect("current_exe")
        .with_file_name(format!("repro{}", std::env::consts::EXE_SUFFIX));
    let _ = std::fs::create_dir_all(out_dir);
    let mut cmd = std::process::Command::new(&repro);
    cmd.arg(fig)
        .args(["--scale", &cli.scale.to_string(), "--no-cache", "--out"])
        .arg(out_dir)
        .env("AMEM_PROGRESS", "0")
        // One `par_map` worker: leaf phase time then sums to wall time,
        // so the coverage check below is meaningful.
        .env("RAYON_NUM_THREADS", "1")
        .stdout(std::process::Stdio::null());
    if metrics {
        cmd.arg("--metrics");
    }
    let status = cmd
        .status()
        .unwrap_or_else(|e| panic!("failed to spawn {}: {e}", repro.display()));
    assert!(status.success(), "{fig} failed with {status}");
    RunManifest::load(out_dir.join(format!("{fig}.manifest.json")))
        .unwrap_or_else(|e| panic!("cannot load {fig} manifest: {e}"))
}

/// Render the attribution report into `doc`; returns the leaf phases'
/// coverage of the wall in percent.
fn attribution_report(fig: &str, cli: &Cli, doc: &mut String) -> f64 {
    let out_dir = cli
        .out
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join(format!("amem_stats_{fig}")));
    let manifest = run_child(fig, cli, &out_dir, true);
    let snap = manifest
        .metrics
        .as_ref()
        .expect("child ran with --metrics, manifest must carry a snapshot");
    let wall = manifest.wall_seconds;
    let phases = snap.phase_report();
    let leaf_total: f64 = phases
        .iter()
        .filter(|p| is_leaf(&p.name))
        .map(|p| p.seconds)
        .sum();

    let mut t = Table::new(
        format!("amem-stats — {fig} leaf-phase cost (wall {wall:.2}s)"),
        &["Phase", "Calls", "Seconds", "% of wall"],
    );
    for p in phases.iter().filter(|p| is_leaf(&p.name)) {
        t.row(vec![
            p.name.clone(),
            p.calls.to_string(),
            format!("{:.3}", p.seconds),
            format!("{:.1}%", 100.0 * p.seconds / wall.max(1e-9)),
        ]);
    }
    writeln!(doc, "{}", t.render()).unwrap();
    let coverage = 100.0 * leaf_total / wall.max(1e-9);
    writeln!(
        doc,
        "[attribution] leaf phases cover {coverage:.1}% of the {wall:.2}s wall \
         (target 95-100.5%)"
    )
    .unwrap();

    let grid: Vec<_> = phases.iter().filter(|p| !is_leaf(&p.name)).collect();
    if !grid.is_empty() {
        let mut g = Table::new(
            format!("amem-stats — {fig} probe-grid levels (overlapping view of the same wall)"),
            &["Grid cell", "Points", "Seconds", "% of wall"],
        );
        for p in &grid {
            g.row(vec![
                p.name.clone(),
                p.calls.to_string(),
                format!("{:.3}", p.seconds),
                format!("{:.1}%", 100.0 * p.seconds / wall.max(1e-9)),
            ]);
        }
        writeln!(doc, "{}", g.render()).unwrap();
        if let Some(top) = grid.first() {
            writeln!(
                doc,
                "[attribution] dominant grid cell: {} ({:.3}s, {:.1}% of wall)",
                top.name,
                top.seconds,
                100.0 * top.seconds / wall.max(1e-9)
            )
            .unwrap();
        }
    }
    writeln!(
        doc,
        "[attribution] {} measurement requests, {} fresh simulations",
        snap.counter_total("amem_executor_requests_total"),
        requests_with(snap, "sim") + requests_with(snap, "uncached_sim"),
    )
    .unwrap();
    coverage
}

fn requests_with(snap: &Snapshot, outcome: &str) -> u64 {
    snap.counter("amem_executor_requests_total", &[("outcome", outcome)])
        .unwrap_or(0)
}

fn overhead_report(fig: &str, cli: &Cli, doc: &mut String) {
    // Best-of-N on each side: a single cold run's wall clock is noisier
    // than the effect being measured, while minima converge to the
    // machine's actual best case. The children's own wall clocks
    // (manifest-stamped) exclude process start-up, so the ratio isolates
    // the instrumentation itself.
    const REPS: usize = 3;
    let base_dir = std::env::temp_dir().join(format!("amem_stats_{fig}_plain"));
    let inst_dir = std::env::temp_dir().join(format!("amem_stats_{fig}_metrics"));
    // Interleaved (off, on, off, on, ...) rather than batched, so slow
    // host drift lands on both sides instead of masquerading as overhead.
    let (mut off, mut on) = (f64::MAX, f64::MAX);
    for _ in 0..REPS {
        off = off.min(run_child(fig, cli, &base_dir, false).wall_seconds);
        on = on.min(run_child(fig, cli, &inst_dir, true).wall_seconds);
    }
    let pct = 100.0 * (on - off) / off.max(1e-9);
    writeln!(
        doc,
        "[overhead] {fig} cold: {off:.2}s plain, {on:.2}s with --metrics \
         ({pct:+.1}%, best of {REPS}, budget <3%)"
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&inst_dir);
}

fn main() -> ExitCode {
    let cli = parse_cli();
    let mut doc = String::new();
    let mut ok = true;
    if let Some(fig) = &cli.attribution {
        let coverage = attribution_report(fig, &cli, &mut doc);
        ok = COVERAGE_PCT.contains(&coverage);
    }
    if let Some(fig) = &cli.overhead {
        overhead_report(fig, &cli, &mut doc);
    }
    print!("{doc}");
    if let Some(path) = &cli.report {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(path, &doc) {
            Ok(()) => println!("[report] {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: leaf phases fall outside {}-{}% of the wall",
            COVERAGE_PCT.start(),
            COVERAGE_PCT.end()
        );
        ExitCode::FAILURE
    }
}
