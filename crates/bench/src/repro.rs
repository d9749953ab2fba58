//! `repro`: every experiment of the reproduction, by name.
//!
//! [`EXPERIMENTS`] is the one list of them. `repro <name> [flags]` runs
//! one entry under a [`Harness`] built from the flags; `repro all
//! [flags]` runs every entry, each in a child `repro <name> [flags]`,
//! then aggregates every run's manifest into a cross-experiment
//! comparison report.
//!
//! `all` runs `--jobs <n>` children at a time (default: half the cores,
//! capped at 4 — each child fans its grids out over every core with
//! `amem_core::par_map`, and the value is always clamped to the
//! available cores). At one job each child streams its output live;
//! otherwise outputs are replayed in table order. The children share one
//! on-disk measurement cache, so the many points the figures have in
//! common — baselines above all — are simulated once across the whole
//! suite, and a second back-to-back invocation is served almost entirely
//! from cache. Sweep progress
//! logging is on for the children (set `AMEM_PROGRESS=0` to silence it).

use std::io::{self, Write};
use std::path::Path;
use std::process::{Command, ExitCode, Output};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use amem_core::cli::{exit_usage, CliError};
use amem_core::manifest;
use amem_core::{CacheStats, QualityStats};

use crate::{resolve_jobs, Args, Harness, USAGE};

mod apps;
mod extensions;
mod method;
mod serve;
mod tables;

/// One experiment: its name on the command line, a one-line description
/// and the function that runs it.
pub type Experiment = (&'static str, &'static str, fn(&mut Harness));

/// Every experiment, in the order `repro all` runs them.
#[rustfmt::skip]
pub static EXPERIMENTS: &[Experiment] = &[
    ("table1", "Table I — Xeon20MB memory hierarchy", tables::table1),
    ("table2", "Table II — the ten access distributions", tables::table2),
    ("stream_cal", "§II/§III — STREAM bandwidth (the 17 GB/s figure)", tables::stream_cal),
    ("bw_cal", "§III-A — per-BWThr bandwidth and channel saturation", tables::bw_cal),
    ("fig1", "Fig. 1 — the concept figure, reenacted with real data", method::fig1),
    ("fig5", "Fig. 5 — analytic model vs measured miss rates", method::fig5),
    ("fig6", "Fig. 6 — effective capacity under 0–5 CSThrs", method::fig6),
    ("fig7", "Fig. 7 — BWThr is immune to CSThrs", method::fig7),
    ("fig8", "Fig. 8 — CSThr vs 0–5 BWThrs (orthogonality limit)", method::fig8),
    ("fig9", "Fig. 9 — MCB degradation (mappings & particle sweep)", apps::fig9),
    ("fig10", "Fig. 10 — MCB per-process resource use", apps::fig10),
    ("fig11", "Fig. 11 — Lulesh degradation (mappings & size sweep)", apps::fig11),
    ("fig12", "Fig. 12 — Lulesh per-process resource use", apps::fig12),
    ("predict", "§I/§VI — constrained-machine performance prediction", apps::predict),
    ("xray", "ext: hierarchy discovery by pointer chase (refs [23][24])", extensions::xray),
    ("mrc", "ext: miss-ratio curves + Hartstein's power law (ref [9])", extensions::mrc),
    ("noise_amp", "ext: barrier amplification of jitter (refs [11][18])", extensions::noise_amp),
    ("latency_load", "ext: loaded memory latency vs interference level", extensions::latency_load),
    ("combined", "ext: combined interference vs multiplicative composition", extensions::combined),
    ("cat", "ext: CAT way partitioning removes the degradation knee", extensions::cat),
    ("energy", "ext: energy cost of interference (MCB)", extensions::energy),
    ("qos", "ext: QoS enforcement — Fig. 9 with a slowdown target held", extensions::qos),
    ("serve", "ext: daemon vs library byte identity and cross-client dedup", serve::serve),
];

/// What `repro` was asked to run.
#[derive(Debug)]
pub(crate) enum Selection {
    /// `repro all`: every entry of [`EXPERIMENTS`].
    All,
    /// `repro <name>`: one entry.
    One(&'static Experiment),
}

/// [`USAGE`] and every entry of the table: what a refused name prints.
pub(crate) fn usage() -> String {
    let all = ("all", "every experiment above, each in its own process");
    let entries = EXPERIMENTS.iter().map(|e| (e.0, e.1)).chain([all]);
    entries.fold(format!("{USAGE}\nexperiments:"), |u, (name, about)| {
        u + &format!("\n  {name:<14}{about}")
    })
}

/// Resolve the experiment name `repro` was given.
pub(crate) fn select(name: Option<&str>) -> Result<Selection, CliError> {
    match name {
        Some("all") => Ok(Selection::All),
        Some(name) => EXPERIMENTS
            .iter()
            .find(|e| e.0 == name)
            .map(Selection::One)
            .ok_or_else(|| CliError(format!("unknown experiment `{name}`"))),
        None => Err(CliError("no experiment named".into())),
    }
}

/// The `repro` binary: `repro <name|all> [flags]`.
pub fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let name = argv.next();
    let flags: Vec<String> = argv.collect();
    let selection = select(name.as_deref()).unwrap_or_else(|e| exit_usage(&e, &usage()));
    let args = Args::parse_from(flags.iter().cloned()).unwrap_or_else(|e| exit_usage(&e, USAGE));
    match selection {
        Selection::All => all(&args, &flags),
        Selection::One(&(name, _, run)) => {
            let mut h = Harness::with_args(name, args);
            run(&mut h);
            h.finish();
            ExitCode::SUCCESS
        }
    }
}

/// `repro all`: every experiment in a child process of this executable,
/// then the suite report over their manifests. A failed child does not
/// stop the others; the exit status names each one that failed.
fn all(args: &Args, flags: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("current_exe");
    let progress = std::env::var("AMEM_PROGRESS").unwrap_or_else(|_| "1".into());
    let jobs = resolve_jobs(args.jobs);
    println!(
        "running {} experiments, {jobs} at a time",
        EXPERIMENTS.len()
    );
    // The children inherit the flags, environment and working directory,
    // so they resolve one disk cache and common points cross-pollinate.
    let failed = run_all(jobs, flags, |name, capture| {
        let mut cmd = Command::new(&exe);
        cmd.arg(name).args(flags).env("AMEM_PROGRESS", &progress);
        // A spawned child inherits stdout/stderr: its output is live and
        // `wait_with_output` returns only the status.
        if capture {
            cmd.output()
        } else {
            cmd.spawn().and_then(|c| c.wait_with_output())
        }
    });
    report_suite(&args.out);
    if failed.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("error: failed experiments: {}", failed.join(", "));
    ExitCode::FAILURE
}

/// Run every entry of [`EXPERIMENTS`] through `child(name, capture)`,
/// `jobs` at a time, announcing each in table order. With one job a
/// child's output streams live (`capture` is false); otherwise it is
/// captured and replayed in table order. Returns each failed child as
/// `name (reason)`.
fn run_all<F>(jobs: usize, flags: &[String], child: F) -> Vec<String>
where
    F: Fn(&str, bool) -> io::Result<Output> + Sync,
{
    let n = EXPERIMENTS.len();
    let announce = |i: usize| {
        let name = EXPERIMENTS[i].0;
        println!("=== [{}/{n}] {name} {} ===", i + 1, flags.join(" "));
    };
    let slots: Mutex<Vec<Option<io::Result<Output>>>> = Mutex::new((0..n).map(|_| None).collect());
    let (done, next) = (Condvar::new(), AtomicUsize::new(0));
    let mut failed = Vec::new();
    std::thread::scope(|s| {
        for _ in 0..jobs.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if jobs == 1 {
                    announce(i);
                }
                let output = child(EXPERIMENTS[i].0, jobs > 1);
                slots.lock().unwrap()[i] = Some(output);
                done.notify_all();
            });
        }
        for i in 0..n {
            let mut slot = slots.lock().unwrap();
            while slot[i].is_none() {
                slot = done.wait(slot).unwrap();
            }
            let output = slot[i].take().unwrap();
            drop(slot);
            if jobs > 1 {
                announce(i);
            }
            let name = EXPERIMENTS[i].0;
            match output {
                Ok(o) => {
                    io::stdout().write_all(&o.stdout).ok();
                    io::stderr().write_all(&o.stderr).ok();
                    if !o.status.success() {
                        failed.push(format!("{name} ({})", o.status));
                    }
                }
                Err(e) => failed.push(format!("{name} (failed to spawn: {e})")),
            }
        }
    });
    failed
}

/// Aggregate the manifests the children just wrote under `out`: the
/// comparison table (`repro_all.csv`), suite-wide cache, curve and
/// quality totals, and the merged metrics snapshot.
fn report_suite(out: &Path) {
    let (manifests, errors) = manifest::load_dir(out);
    for e in &errors {
        eprintln!("warning: {e}");
    }
    let table = manifest::comparison_table(&manifests);
    println!("{}", table.render());
    let csv = out.join("repro_all.csv");
    if let Err(e) = table.write_csv(&csv) {
        eprintln!("warning: could not write {}: {e}", csv.display());
    }
    let (mut cache, mut quality) = (CacheStats::default(), QualityStats::default());
    for m in &manifests {
        m.cache.iter().for_each(|c| cache.merge(c));
        m.quality.iter().for_each(|q| quality.merge(q));
    }
    crate::print_counters("suite total: ", &cache, &quality);
    // Metrics snapshots (present when children ran with `--metrics`)
    // merge into one suite-wide view: counters and histograms add
    // saturating, gauges keep their maximum.
    let merged = manifests.iter().filter_map(|m| m.metrics.clone());
    let merged = merged.reduce(|mut acc, s| {
        acc.merge(&s);
        acc
    });
    if let Some(snap) = merged.filter(|s| !s.is_empty()) {
        let prom = out.join("repro_all.metrics.prom");
        match std::fs::write(&prom, amem_metrics::export::prometheus_text(&snap)) {
            Ok(()) => println!(
                "[metrics] suite total: {} series ({} measurement requests) -> {}",
                snap.series.len(),
                snap.counter_total("amem_executor_requests_total"),
                prom.display()
            ),
            Err(e) => eprintln!("warning: could not write {}: {e}", prom.display()),
        }
    }
    let total_wall: f64 = manifests.iter().map(|m| m.wall_seconds).sum();
    println!(
        "{} experiments run ({} manifests, {total_wall:.1}s total child wall time); \
         outputs in {}.",
        EXPERIMENTS.len(),
        manifests.len(),
        out.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::ExitStatus;

    /// A child that "ran" `name` successfully, recording it in `ran`.
    fn ok(ran: &Mutex<Vec<String>>, name: &str) -> io::Result<Output> {
        ran.lock().unwrap().push(name.to_string());
        let (stdout, stderr) = (Vec::new(), Vec::new());
        Ok(Output {
            status: ExitStatus::default(),
            stdout,
            stderr,
        })
    }

    #[test]
    fn table_names_are_unique_and_each_selects_its_entry() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|f| f.0 != e.0), "{} twice", e.0);
            assert!(matches!(select(Some(e.0)), Ok(Selection::One(f)) if std::ptr::eq(f, e)));
        }
        assert!(matches!(select(Some("all")), Ok(Selection::All)));
    }

    #[test]
    fn all_runs_exactly_the_table_entries() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        for jobs in [1, 3] {
            let ran = Mutex::new(Vec::new());
            let failed = run_all(jobs, &[], |name, capture| {
                assert_eq!(capture, jobs > 1, "one job streams live");
                ok(&ran, name)
            });
            assert!(failed.is_empty(), "{failed:?}");
            let mut ran = ran.into_inner().unwrap();
            ran.sort_unstable();
            let mut expected = names.clone();
            expected.sort_unstable();
            assert_eq!(ran, expected, "--jobs {jobs}");
        }
        let ran = Mutex::new(Vec::new());
        let failed = run_all(2, &[], |name, _| match name {
            "fig7" => Err(io::Error::new(io::ErrorKind::NotFound, "gone")),
            _ => ok(&ran, name),
        });
        assert_eq!(failed, ["fig7 (failed to spawn: gone)"]);
        assert_eq!(
            ran.into_inner().unwrap().len(),
            names.len() - 1,
            "the rest ran"
        );
    }

    /// Run the entry `name` with `flags` at scale 1/16 into `out`: its
    /// `<name>.csv` and its executor's counters.
    fn repro(name: &str, out: &Path, flags: &[&str]) -> (String, CacheStats) {
        let Ok(Selection::One(&(name, _, run))) = select(Some(name)) else {
            panic!("{name} is an entry");
        };
        let common = ["--out", out.to_str().unwrap(), "--scale", "0.0625"];
        let args = Args::parse_from(common.iter().chain(flags).map(|s| s.to_string())).unwrap();
        let mut h = Harness::with_args(name, args);
        run(&mut h);
        let stats = h.executor().stats();
        h.finish();
        (
            std::fs::read_to_string(out.join(format!("{name}.csv"))).unwrap(),
            stats,
        )
    }

    /// The committed fig6 CSV of `variant` at scale 1/16.
    fn golden(variant: &str) -> String {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data");
        std::fs::read_to_string(dir.join(format!("fig6_{variant}_s0625.csv"))).unwrap()
    }

    #[test]
    fn fig6_matches_its_goldens() {
        let root = std::env::temp_dir().join(format!("amem_fig6_goldens_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        // Cold: each variant prints its golden byte for byte, runs one
        // curve pass per (distribution, buffer size) cell and simulates
        // nothing; only the sampled one notes its (nonzero) error bound
        // in its manifest.
        let variants: [(&str, &[&str], u64); 3] = [
            ("exact", &[], 12),
            ("full", &["--full"], 220),
            ("sampled", &["--curve-mode", "sampled"], 12),
        ];
        for (variant, flags, cells) in variants {
            let flags = [flags, &["--no-cache"]].concat();
            let out = root.join(variant);
            let (csv, stats) = repro("fig6", &out, &flags);
            assert!(
                csv == golden(variant),
                "fig6 {variant} differs from its golden:\n{csv}"
            );
            let c = stats.curves();
            assert_eq!((c.hits(), c.runs), (0, cells), "{variant}: {c:?}");
            assert_eq!(stats.lookups(), 0, "{variant}: fig6 simulates nothing");
            let notes = manifest::RunManifest::load(out.join("fig6.manifest.json"))
                .unwrap()
                .notes;
            let ci95: Vec<f64> = notes
                .iter()
                .filter_map(|n| {
                    n.strip_prefix("sampled curve mode, worst CI95 ")?
                        .parse()
                        .ok()
                })
                .collect();
            match variant {
                "sampled" => assert!(matches!(ci95[..], [x] if x > 0.0), "{notes:?}"),
                _ => assert!(ci95.is_empty(), "{variant}: {notes:?}"),
            }
        }
        // Twice over one cache directory: the second run serves every
        // curve from disk, runs no pass, and still prints the golden.
        let cache = root.join("cache");
        let flags = ["--cache-dir", cache.to_str().unwrap()];
        let (cold, _) = repro("fig6", &root.join("cold"), &flags);
        let (warm, stats) = repro("fig6", &root.join("warm"), &flags);
        assert!(
            cold == golden("exact") && warm == cold,
            "cached fig6:\n{warm}"
        );
        let c = stats.curves();
        assert_eq!((c.disk_hits, c.runs), (12, 0), "{c:?}");
        assert_eq!(c.lookups(), 12);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Twice over one cache directory: the second fig1 run reads its six
    /// points from disk, simulates nothing and prints the same CSV. (A
    /// key that dropped a field the points differ in would answer five of
    /// them from the sixth's entry.) The second run is a child process
    /// that, like a plain `repro fig1`, finds the directory through
    /// `$AMEM_CACHE_DIR`; what it prints is the run's `[cache]` line.
    #[test]
    fn a_second_fig1_run_reads_every_point_from_disk() {
        let root = std::env::temp_dir().join(format!("amem_fig1_cache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = root.join("cache");
        let flags = ["--cache-dir", cache.to_str().unwrap()];
        let (cold, stats) = repro("fig1", &root.join("cold"), &flags);
        assert_eq!(
            (stats.sim_runs, stats.stores, stats.lookups()),
            (6, 6, 6),
            "{stats:?}"
        );
        let child = Command::new(std::env::current_exe().unwrap())
            .args(["--ignored", "--exact", "--nocapture"])
            .arg("repro::tests::warm_fig1_from_the_cache_dir_variable")
            .env("AMEM_CACHE_DIR", &cache)
            .output()
            .unwrap();
        let printed = String::from_utf8_lossy(&child.stdout);
        assert!(child.status.success(), "{printed}");
        assert!(
            printed
                .lines()
                .any(|l| l == "[cache] 6/6 from cache (0 sim, 0 mem, 6 disk, 0 dedup)"),
            "{printed}"
        );
        let warm = std::fs::read_to_string(root.join("warm/fig1.csv")).unwrap();
        assert!(warm == cold, "cached fig1:\n{warm}\ncold:\n{cold}");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The second run of [`a_second_fig1_run_reads_every_point_from_disk`]:
    /// `repro fig1` without `--cache-dir`, writing beside its cache.
    #[test]
    #[ignore = "run by a_second_fig1_run_reads_every_point_from_disk"]
    fn warm_fig1_from_the_cache_dir_variable() {
        let Some(cache) = std::env::var_os("AMEM_CACHE_DIR") else {
            return;
        };
        repro("fig1", &Path::new(&cache).with_file_name("warm"), &[]);
    }

    /// `repro table1` with `--out` a regular file: nothing can be written
    /// under it, so the run names each file it could not write and exits
    /// 1. The run is a child process, because the exit is the point.
    #[test]
    fn a_run_that_cannot_write_its_outputs_exits_1() {
        let out = unwritable_out(std::process::id());
        std::fs::write(&out, b"").unwrap();
        let child = Command::new(std::env::current_exe().unwrap())
            .args(["--ignored", "--exact", "--nocapture"])
            .arg("repro::tests::table1_into_a_regular_file")
            .output()
            .unwrap();
        let _ = std::fs::remove_file(&out);
        let stderr = String::from_utf8_lossy(&child.stderr);
        assert_eq!(child.status.code(), Some(1), "{stderr}");
        for file in ["table1.csv", "table1.manifest.json"] {
            let named = format!("could not write {}", out.join(file).display());
            assert!(stderr.contains(&named), "{stderr}");
        }
    }

    /// Where [`a_run_that_cannot_write_its_outputs_exits_1`], running as
    /// process `pid`, puts the file it passes as `--out`.
    fn unwritable_out(pid: u32) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("amem_out_is_a_file_{pid}"))
    }

    /// The child of [`a_run_that_cannot_write_its_outputs_exits_1`]; run
    /// any other way, it finds no such file and does nothing.
    #[test]
    #[ignore = "run by a_run_that_cannot_write_its_outputs_exits_1"]
    fn table1_into_a_regular_file() {
        let out = unwritable_out(std::os::unix::process::parent_id());
        if out.is_file() {
            repro("table1", &out, &[]);
        }
    }

    /// `repro serve`: four clients of one daemon get the library's bytes
    /// and share six simulations, and a daemon over a library-written
    /// cache simulates nothing. The entry asserts each before it prints
    /// its line; the run is a child process, so the lines are read as a
    /// user reads them.
    #[test]
    fn repro_serve_prints_identity_dedup_and_key_parity() {
        let out = serve_out(std::process::id());
        let _ = std::fs::remove_dir_all(&out);
        std::fs::create_dir_all(&out).unwrap();
        let child = Command::new(std::env::current_exe().unwrap())
            .args(["--ignored", "--exact", "--nocapture"])
            .arg("repro::tests::serve_into_the_parents_dir")
            .output()
            .unwrap();
        let _ = std::fs::remove_dir_all(&out);
        let printed = String::from_utf8_lossy(&child.stdout);
        let stderr = String::from_utf8_lossy(&child.stderr);
        assert!(child.status.success(), "{printed}\n{stderr}");
        for line in [
            "[serve] byte-identity: OK",
            "[serve] dedup: 6 unique sims across 24 lookups",
            "[serve] key-parity: 6 disk hits, 0 sims",
        ] {
            assert!(printed.lines().any(|l| l.starts_with(line)), "{printed}");
        }
    }

    /// Where [`repro_serve_prints_identity_dedup_and_key_parity`], running
    /// as process `pid`, has its child write.
    fn serve_out(pid: u32) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("amem_repro_serve_{pid}"))
    }

    /// The child of [`repro_serve_prints_identity_dedup_and_key_parity`];
    /// run any other way, it finds no such directory and does nothing.
    #[test]
    #[ignore = "run by repro_serve_prints_identity_dedup_and_key_parity"]
    fn serve_into_the_parents_dir() {
        let out = serve_out(std::os::unix::process::parent_id());
        if out.is_dir() {
            repro("serve", &out, &[]);
        }
    }

    #[test]
    fn an_unknown_or_missing_name_is_refused_with_the_table() {
        assert_eq!(select(None).unwrap_err().0, "no experiment named");
        let unknown = select(Some("nope")).unwrap_err();
        assert_eq!(unknown.0, "unknown experiment `nope`");
        let usage = usage();
        assert!(usage.starts_with(USAGE), "{usage}");
        for (name, about, _) in EXPERIMENTS {
            assert!(
                usage.contains(&format!("\n  {name:<14}{about}\n")),
                "{usage}"
            );
        }
        assert!(
            usage.ends_with("\n  all           every experiment above, each in its own process")
        );
    }
}
