#![forbid(unsafe_code)]
//! Run the entire reproduction suite, then aggregate every run's manifest
//! into a cross-experiment comparison report.
//!
//! Equivalent to running every table/figure binary with the same
//! arguments; CSVs, manifests (and, with `--sample`/`--trace`, telemetry
//! files) land in `target/repro/`. Sweep progress logging is enabled for
//! the children (set `AMEM_PROGRESS=0` to silence it).
//!
//! Children run `--jobs <n>` at a time (or `$AMEM_JOBS`; default: half
//! the cores, capped at 4 — each child saturates its own rayon pool,
//! and the value is always clamped to the available cores) and share one on-disk
//! measurement cache, so the many points the figures have in common —
//! baselines above all — are simulated once across the whole suite. A
//! second back-to-back invocation is served almost entirely from cache.

use std::io::Write;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use amem_core::manifest::{self, RunManifest};
use amem_core::{CacheStats, QualityStats};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--jobs` is consumed here: it bounds the child-process pool, while
    // each child parallelises its own sweep points internally. The value
    // resolves through CLI > $AMEM_JOBS > default, clamped to the cores
    // actually available (see `amem_bench::resolve_jobs`).
    let cli_jobs = match args.iter().position(|a| a == "--jobs") {
        Some(i) => {
            let v = args
                .get(i + 1)
                .unwrap_or_else(|| panic!("--jobs needs a count"))
                .clone();
            args.drain(i..=i + 1);
            let n: usize = v.parse().expect("--jobs must be an integer");
            assert!(n > 0, "--jobs must be positive");
            Some(n)
        }
        None => None,
    };
    let jobs = amem_bench::resolve_jobs(cli_jobs);
    let out: PathBuf = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/repro"));
    // Every child shares one disk cache (respecting an explicit
    // `--cache-dir`/`$AMEM_CACHE_DIR`), so common points cross-pollinate.
    let cache_dir: PathBuf = args
        .iter()
        .position(|a| a == "--cache-dir")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .or_else(|| std::env::var_os("AMEM_CACHE_DIR").map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("target/amem-cache"));
    let bins = [
        "table1",
        "table2",
        "stream_cal",
        "bw_cal",
        "fig1",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "predict",
        "xray",
        "mrc",
        "noise_amp",
        "latency_load",
        "combined",
        "cat",
        "energy",
        "serve",
    ];
    let exe_dir = std::env::current_exe()
        .expect("current_exe")
        .parent()
        .expect("exe dir")
        .to_path_buf();
    let progress = std::env::var("AMEM_PROGRESS").unwrap_or_else(|_| "1".into());
    println!(
        "running {} experiments, {jobs} at a time (shared cache: {})",
        bins.len(),
        cache_dir.display()
    );

    if jobs == 1 {
        // Sequential: stream each child's output live.
        for (i, bin) in bins.iter().enumerate() {
            println!(
                "=== [{}/{}] {bin} {} ===",
                i + 1,
                bins.len(),
                args.join(" ")
            );
            let status = Command::new(exe_dir.join(bin))
                .args(&args)
                .env("AMEM_PROGRESS", &progress)
                .env("AMEM_CACHE_DIR", &cache_dir)
                .status()
                .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
            assert!(status.success(), "{bin} failed with {status}");
        }
    } else {
        // Bounded pool: capture each child's output, replay in suite order.
        let slots: Vec<Option<std::io::Result<std::process::Output>>> =
            bins.iter().map(|_| None).collect();
        let state = (Mutex::new(slots), Condvar::new());
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..jobs.min(bins.len()) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= bins.len() {
                        break;
                    }
                    let output = Command::new(exe_dir.join(bins[i]))
                        .args(&args)
                        .env("AMEM_PROGRESS", &progress)
                        .env("AMEM_CACHE_DIR", &cache_dir)
                        .output();
                    let (lock, cv) = &state;
                    lock.lock().unwrap()[i] = Some(output);
                    cv.notify_all();
                });
            }
            for (i, bin) in bins.iter().enumerate() {
                let (lock, cv) = &state;
                let mut done = lock.lock().unwrap();
                while done[i].is_none() {
                    done = cv.wait(done).unwrap();
                }
                let output = done[i].take().unwrap();
                drop(done);
                println!(
                    "=== [{}/{}] {bin} {} ===",
                    i + 1,
                    bins.len(),
                    args.join(" ")
                );
                let output = output.unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
                std::io::stdout().write_all(&output.stdout).ok();
                std::io::stderr().write_all(&output.stderr).ok();
                assert!(
                    output.status.success(),
                    "{bin} failed with {}",
                    output.status
                );
            }
        });
    }

    // ---- Aggregate the manifests every binary just wrote --------------
    let (manifests, errors) = manifest::load_dir(&out);
    for e in &errors {
        eprintln!("warning: {e}");
    }
    let table = manifest::comparison_table(&manifests);
    println!("{}", table.render());
    let csv = out.join("repro_all.csv");
    if let Err(e) = table.write_csv(&csv) {
        eprintln!("warning: could not write {}: {e}", csv.display());
    }
    let mut agg = CacheStats::default();
    for c in manifests.iter().filter_map(|m| m.cache.as_ref()) {
        agg.merge(c);
    }
    if agg.lookups() > 0 {
        println!(
            "[cache] suite total: {}/{} measurements served from cache ({:.0}% hit rate)",
            agg.hits(),
            agg.lookups(),
            agg.hit_rate() * 100.0
        );
    }
    let curves = agg.curves();
    if curves.lookups() > 0 {
        println!(
            "[curve] suite total: {}/{} curves served from cache ({} passes)",
            curves.hits(),
            curves.lookups(),
            curves.runs
        );
    }
    let quality = manifests.iter().filter_map(|m| m.quality.as_ref()).fold(
        QualityStats::default(),
        |mut a, q| {
            a.merge(q);
            a
        },
    );
    if !quality.is_empty() {
        println!(
            "[quality] suite total: {} trials, {} retries, {} timeouts, {} faults, \
             {} non-finite, {} outliers rejected, {} degraded points",
            quality.trials,
            quality.retries,
            quality.timeouts,
            quality.faults,
            quality.non_finite,
            quality.outliers_rejected,
            quality.degraded_points
        );
    }
    // Metrics snapshots (present when children ran with `--metrics` or
    // `$AMEM_METRICS`) merge into one suite-wide view: counters and
    // histograms add saturating, gauges keep their maximum.
    let mut merged: Option<amem_metrics::Snapshot> = None;
    for m in &manifests {
        if let Some(s) = &m.metrics {
            match &mut merged {
                Some(acc) => acc.merge(s),
                None => merged = Some(s.clone()),
            }
        }
    }
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
    let total_wall: f64 = manifests.iter().map(|m: &RunManifest| m.wall_seconds).sum();
    println!(
        "All {} reproduction binaries completed ({} manifests, {:.1}s total child wall time); \
         outputs in {}.",
        bins.len(),
        manifests.len(),
        total_wall,
        out.display()
    );
}
