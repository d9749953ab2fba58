#![forbid(unsafe_code)]
//! `amem-stats` — cost attribution for the reproduction harness itself.
//!
//! Synopsis: `USAGE`. `--attribution <fig>` runs the experiment cold
//! through the sibling `repro` binary (`--no-cache --metrics`,
//! `RAYON_NUM_THREADS=1` so every `par_map` fan-out runs inline and phase
//! time sums to wall time), then renders the leaf phases that partition
//! the run and the `grid/...` phases that split the same time by
//! probe-grid level. It exits 1 when the leaf phases cover less than 95%
//! or more than 100.5% of the wall. `--overhead <fig>` times the figure
//! cold with the metrics gate off and on, in alternating-order pairs,
//! and prints the per-pair change of the children's wall and of their
//! CPU time (Linux only; the budget is read on the CPU line).
//! `--out` holds the child's CSV and manifest (default a temp dir);
//! `--report` mirrors the rendered report to a file. A `repro` child that
//! fails exits 1 too.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use amem_bench::repro::EXPERIMENTS;
use amem_core::cli::{self, CliError, FlagReader};
use amem_core::manifest::RunManifest;
use amem_core::report::Table;
use amem_metrics::{PhaseCost, Snapshot};

/// Leaf phases partition a run's wall time; everything else (the
/// `grid/...` namespace) is an overlapping by-level view of the same time
/// and must not be added to the leaf total.
fn is_leaf(name: &str) -> bool {
    !name.starts_with("grid/")
}

const USAGE: &str = "\
usage: amem-stats (--attribution FIG | --overhead FIG) [--scale F in (0,1], default 0.0625]
                  [--out DIR] [--report FILE]";

#[derive(Debug, Default)]
struct Cli {
    attribution: Option<&'static str>,
    overhead: Option<&'static str>,
    scale: f64,
    out: Option<PathBuf>,
    report: Option<PathBuf>,
}

fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<Cli, CliError> {
    let mut cli = Cli {
        scale: 0.0625,
        ..Cli::default()
    };
    let fig = |v: &str| {
        EXPERIMENTS
            .iter()
            .find(|e| e.0 == v)
            .map(|e| e.0)
            .ok_or("no such experiment")
    };
    let mut r = FlagReader::new(args);
    while let Some(a) = r.next_arg() {
        match a.as_str() {
            "--attribution" => cli.attribution = Some(r.value_with(fig)?),
            "--overhead" => cli.overhead = Some(r.value_with(fig)?),
            "--scale" => cli.scale = r.parse_in(cli::SCALE)?,
            "--out" => cli.out = Some(r.value()?.into()),
            "--report" => cli.report = Some(r.value()?.into()),
            _ => return Err(r.unknown()),
        }
    }
    match (cli.attribution, cli.overhead) {
        (None, None) => Err(CliError(
            "nothing to do: pass --attribution <fig> or --overhead <fig>".into(),
        )),
        _ => Ok(cli),
    }
}

/// Leaf-phase coverage of the wall, in percent, that a single-worker run
/// must reach: phases partition the run, so anything outside this band
/// is unattributed time or double counting.
const COVERAGE_PCT: std::ops::RangeInclusive<f64> = 95.0..=100.5;

/// Run `repro <fig>` cold and return its manifest. `metrics` turns the
/// child's gate on.
fn run_child(
    fig: &str,
    cli: &Cli,
    out_dir: &PathBuf,
    metrics: bool,
) -> Result<RunManifest, String> {
    let repro = std::env::current_exe()
        .map_err(|e| format!("current_exe: {e}"))?
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
        .map_err(|e| format!("failed to spawn {}: {e}", repro.display()))?;
    if !status.success() {
        return Err(format!("repro {fig} failed with {status}"));
    }
    RunManifest::load(out_dir.join(format!("{fig}.manifest.json")))
        .map_err(|e| format!("cannot load {fig} manifest: {e}"))
}

/// Render the attribution report into `doc`; returns the leaf phases'
/// coverage of the wall in percent.
fn attribution_report(fig: &str, cli: &Cli, doc: &mut String) -> Result<f64, String> {
    let out_dir = cli
        .out
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join(format!("amem_stats_{fig}")));
    let manifest = run_child(fig, cli, &out_dir, true)?;
    let snap = manifest.metrics.as_ref().ok_or(format!(
        "{fig} ran with --metrics, but its manifest has no snapshot"
    ))?;
    let wall = manifest.wall_seconds;
    let pct = |seconds: f64| 100.0 * seconds / wall.max(1e-9);
    let (leaf, grid): (Vec<_>, Vec<_>) = snap
        .phase_report()
        .into_iter()
        .partition(|p| is_leaf(&p.name));
    let table = |title: String, name: &str, calls: &str, phases: &[PhaseCost]| {
        let mut t = Table::new(title, &[name, calls, "Seconds", "% of wall"]);
        for p in phases {
            t.row(vec![
                p.name.clone(),
                p.calls.to_string(),
                format!("{:.3}", p.seconds),
                format!("{:.1}%", pct(p.seconds)),
            ]);
        }
        t.render()
    };

    let title = format!("amem-stats — {fig} leaf-phase cost (wall {wall:.2}s)");
    writeln!(doc, "{}", table(title, "Phase", "Calls", &leaf)).unwrap();
    let coverage = pct(leaf.iter().map(|p| p.seconds).sum());
    writeln!(
        doc,
        "[attribution] leaf phases cover {coverage:.1}% of the {wall:.2}s wall \
         (target 95-100.5%)"
    )
    .unwrap();
    if let Some(top) = grid.first() {
        let title =
            format!("amem-stats — {fig} probe-grid levels (overlapping view of the same wall)");
        writeln!(doc, "{}", table(title, "Grid cell", "Points", &grid)).unwrap();
        writeln!(
            doc,
            "[attribution] dominant grid cell: {} ({:.3}s, {:.1}% of wall)",
            top.name,
            top.seconds,
            pct(top.seconds)
        )
        .unwrap();
    }
    writeln!(
        doc,
        "[attribution] {} measurement requests, {} fresh simulations",
        snap.counter_total("amem_executor_requests_total"),
        requests_with(snap, "sim") + requests_with(snap, "uncached_sim"),
    )
    .unwrap();
    Ok(coverage)
}

fn requests_with(snap: &Snapshot, outcome: &str) -> u64 {
    snap.counter("amem_executor_requests_total", &[("outcome", outcome)])
        .unwrap_or(0)
}

/// Cold runs per side of `--overhead`, one plain and one with
/// `--metrics` per pair.
const PAIRS: usize = 8;

fn overhead_report(fig: &str, cli: &Cli, doc: &mut String) -> Result<(), String> {
    let base_dir = std::env::temp_dir().join(format!("amem_stats_{fig}_plain"));
    let inst_dir = std::env::temp_dir().join(format!("amem_stats_{fig}_metrics"));
    // The children's own wall clocks (manifest-stamped) exclude process
    // start-up; their CPU time is this process's change in reaped
    // children's time across the wait. The pairs run in ABBA order
    // (plain first, then metrics first, ...): a run's wall depends on its
    // place in the pair and on host drift, and alternating puts both on
    // each side equally.
    let run = |metrics: bool| {
        let dir = if metrics { &inst_dir } else { &base_dir };
        let before = children_cpu_ticks();
        let wall = run_child(fig, cli, dir, metrics)?.wall_seconds;
        let cpu = before
            .zip(children_cpu_ticks())
            .map(|(b, a)| (a - b) as f64);
        Ok::<_, String>((wall, cpu))
    };
    let (mut walls, mut cpus) = (Vec::with_capacity(PAIRS), Vec::with_capacity(PAIRS));
    for i in 0..PAIRS {
        let ((off, off_cpu), (on, on_cpu)) = if i % 2 == 0 {
            let off = run(false)?;
            (off, run(true)?)
        } else {
            let on = run(true)?;
            (run(false)?, on)
        };
        walls.push((off, on));
        cpus.push(off_cpu.zip(on_cpu));
    }
    writeln!(doc, "{}", overhead_line(fig, &walls)).unwrap();
    let cpus: Option<Vec<_>> = cpus.into_iter().collect();
    writeln!(doc, "{}", cpu_overhead_line(fig, cpus.as_deref())).unwrap();
    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&inst_dir);
    Ok(())
}

/// Median, lowest and highest per-pair change, in percent, of
/// `(plain, metrics)` pairs. A ratio within a pair cancels the drift
/// between pairs, which minima taken per side do not.
fn pair_changes(pairs: &[(f64, f64)]) -> (f64, f64, f64) {
    let pcts: Vec<f64> = pairs
        .iter()
        .map(|&(off, on)| 100.0 * (on - off) / off.max(1e-9))
        .collect();
    let (lo, hi) = pcts
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &p| (lo.min(p), hi.max(p)));
    (median(pcts), lo, hi)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    (xs[(n - 1) / 2] + xs[n / 2]) / 2.0
}

/// The `--overhead` wall line from `(plain, metrics)` wall pairs: each
/// side's median wall, the median of the per-pair ratios and their range.
fn overhead_line(fig: &str, pairs: &[(f64, f64)]) -> String {
    let (mid, lo, hi) = pair_changes(pairs);
    format!(
        "[overhead] {fig} cold: {:.2}s plain, {:.2}s with --metrics (median {mid:+.1}% \
         over {} ABBA pairs, pairs {lo:+.1}% to {hi:+.1}%)",
        median(pairs.iter().map(|p| p.0).collect()),
        median(pairs.iter().map(|p| p.1).collect()),
        pairs.len(),
    )
}

/// The `--overhead` verdict line from `(plain, metrics)` pairs of the
/// children's CPU time, or "n/a" where it cannot be read. The budget is
/// read here: time a child waits for a CPU stretches its wall, not its
/// user and system time.
fn cpu_overhead_line(fig: &str, pairs: Option<&[(f64, f64)]>) -> String {
    match pairs {
        Some(pairs) => {
            let (mid, lo, hi) = pair_changes(pairs);
            format!(
                "[overhead] {fig} children's CPU (user+system): median {mid:+.1}%, \
                 pairs {lo:+.1}% to {hi:+.1}% (budget <3%)"
            )
        }
        None => format!("[overhead] {fig} children's CPU (user+system): n/a"),
    }
}

/// User plus system clock ticks of this process's reaped children, on
/// Linux; `None` elsewhere.
fn children_cpu_ticks() -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    children_ticks(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// `cutime + cstime` (fields 16 and 17) of a `/proc/<pid>/stat` line.
/// The fields are counted after the last `)`: the command name before it
/// may hold spaces and parentheses.
fn children_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // The first field after the name is field 3 (the state).
    let mut fields = after_comm.split_whitespace().skip(16 - 3);
    let cutime: u64 = fields.next()?.parse().ok()?;
    let cstime: u64 = fields.next()?.parse().ok()?;
    Some(cutime + cstime)
}

fn main() -> ExitCode {
    let cli = parse_cli(std::env::args().skip(1)).unwrap_or_else(|e| cli::exit_usage(&e, USAGE));
    let mut doc = String::new();
    let mut ok = true;
    let mut run = || -> Result<(), String> {
        if let Some(fig) = &cli.attribution {
            ok = COVERAGE_PCT.contains(&attribution_report(fig, &cli, &mut doc)?);
        }
        if let Some(fig) = &cli.overhead {
            overhead_report(fig, &cli, &mut doc)?;
        }
        Ok(())
    };
    if let Err(e) = run() {
        eprintln!("amem-stats: {e}");
        return ExitCode::FAILURE;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Cli, CliError> {
        parse_cli(line.split_whitespace().map(String::from))
    }

    /// The command lines of CI and the README read to the values they name.
    #[test]
    fn ci_and_readme_command_lines_read_their_values() {
        let c = parse("--attribution fig6 --report /tmp/r.txt --scale 0.125 --out /tmp/o").unwrap();
        assert_eq!(c.attribution, Some("fig6"));
        assert_eq!(c.report, Some(PathBuf::from("/tmp/r.txt")));
        assert_eq!((c.scale, c.out), (0.125, Some(PathBuf::from("/tmp/o"))));
        let c = parse("--overhead fig1").unwrap();
        assert_eq!(
            (c.overhead, c.attribution, c.scale),
            (Some("fig1"), None, 0.0625)
        );
    }

    #[test]
    fn overhead_reads_the_median_pair_ratio_not_the_minima() {
        // Each ratio is taken within its pair; the line reports their
        // median and range, and each side's median wall.
        let pairs = [(2.0, 2.02), (3.0, 2.97), (2.6, 2.6), (2.2, 2.24)];
        let line = overhead_line("fig1", &pairs);
        assert_eq!(
            line,
            "[overhead] fig1 cold: 2.40s plain, 2.42s with --metrics (median +0.5% \
             over 4 ABBA pairs, pairs -1.0% to +1.8%)"
        );
        let cpu = [(200.0, 204.0), (300.0, 303.0)];
        assert_eq!(
            cpu_overhead_line("fig1", Some(&cpu)),
            "[overhead] fig1 children's CPU (user+system): median +1.5%, \
             pairs +1.0% to +2.0% (budget <3%)"
        );
        assert_eq!(
            cpu_overhead_line("fig1", None),
            "[overhead] fig1 children's CPU (user+system): n/a"
        );
    }

    #[test]
    fn children_cpu_time_is_read_after_the_last_parenthesis() {
        // A command name with spaces and parentheses; cutime 250 and
        // cstime 17 are fields 16 and 17.
        let stat = "4242 (amem (x) stats) S 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    31 5 250 17 20 0 1 0 123 4096 200 18446744073709551615";
        assert_eq!(children_ticks(stat), Some(267));
        assert_eq!(children_ticks("4242 (cut) S 1"), None);
        assert_eq!(children_ticks("no name"), None);
        if cfg!(target_os = "linux") {
            assert!(children_cpu_ticks().is_some());
        }
    }

    #[test]
    fn nothing_to_do_or_no_such_figure_is_refused() {
        assert!(parse("").unwrap_err().0.starts_with("nothing to do"));
        let err = parse("--attribution fig99").unwrap_err().0;
        assert_eq!(err, "--attribution \"fig99\": no such experiment");
    }
}
