#![forbid(unsafe_code)]
//! # amem-bench — the reproduction harness
//!
//! Every table and figure of the paper, and the extensions that make its
//! related work runnable, is one entry of [`repro::EXPERIMENTS`], the
//! only list of them. Run one with
//! `cargo run --release -p amem-bench --bin repro -- <name>`, or all of
//! them with `repro all`; a bare `repro` prints the table. The crate's
//! other binaries are tools: `conformance` (the differential fuzzer)
//! and `amem-stats` (cost attribution of a `repro` run).
//!
//! Every experiment takes the flags of [`USAGE`]. `--scale` shrinks the
//! machine and every working set together, keeping the figures' shapes;
//! `--full` widens fig5/fig6 to the paper's complete grid. Tables print
//! to stdout and are mirrored as CSV under `--out`.
//!
//! Measurements flow through the [`amem_core::Executor`]: identical
//! points are simulated once and served from a content-addressed cache
//! afterwards. `--cache-dir` (else `$AMEM_CACHE_DIR`) relocates the
//! on-disk cache and `--no-cache` disables reuse.
//!
//! The robustness flags are off by default, leaving output
//! byte-identical to a plain run: `--trials` repeats each measurement
//! and reports the MAD-screened representative, `--retries` retries
//! transient failures, `--timeout` bounds each platform run, `--ci`
//! adds trial/CI columns to Figs. 9 and 11, and `--fault` wraps the
//! platform in a deterministic fault injector. `--metrics` turns the
//! metrics registry on.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use amem_core::cli::{self, CliError, FlagReader};
use amem_core::manifest::RunManifest;
use amem_core::platform::{Measurement, Platform, SimPlatform};
use amem_core::{CacheStats, Executor, FaultSpec, FaultyPlatform, QualityStats, TrialPolicy};
use amem_sim::config::MachineConfig;
use amem_sim::engine::RunReport;
use amem_sim::CoreCounters;

pub mod repro;

/// Parsed common CLI arguments (the flags of [`USAGE`]).
#[derive(Debug, Clone)]
pub struct Args {
    /// Machine scale factor in (0, 1].
    pub scale: f64,
    /// Run the paper's full experiment grid (fig5/fig6).
    pub full: bool,
    /// Output directory for CSV mirrors.
    pub out: PathBuf,
    /// Counter-sampling interval in cycles (`--sample`), off by default.
    pub sample: Option<u64>,
    /// Span-trace ring capacity in events (`--trace`), off by default.
    pub trace: Option<usize>,
    /// Disable the measurement cache (`--no-cache`).
    pub no_cache: bool,
    /// Explicit on-disk cache directory (`--cache-dir`); defaults to
    /// `$AMEM_CACHE_DIR` or `target/amem-cache`.
    pub cache_dir: Option<PathBuf>,
    /// Concurrent child experiments for `repro all` (`--jobs`).
    pub jobs: Option<usize>,
    /// Print a per-component cycle/time breakdown for every recorded
    /// measurement (`--profile`).
    pub profile: bool,
    /// Repeated trials per measurement point (`--trials`, default 1).
    pub trials: usize,
    /// Transient-failure retries per trial (`--retries`, default 0).
    pub retries: usize,
    /// Wall-clock budget per platform run in seconds (`--timeout`).
    pub timeout_secs: Option<f64>,
    /// Append per-point trial-count/CI columns to the degradation tables
    /// of Figs. 9 and 11 (`--ci`).
    pub ci: bool,
    /// Fault injection (`--fault`, read by [`FaultSpec::parse`]).
    pub fault: Option<FaultSpec>,
    /// Enable the metrics registry (`--metrics`).
    pub metrics: bool,
    /// Explicit path for the Prometheus export (`--metrics-out`);
    /// defaults to `<out>/<name>.metrics.prom`.
    pub metrics_out: Option<PathBuf>,
    /// Miss-rate-curve mode (`--curve-mode exact|sampled[:rate]`).
    pub curve_mode: amem_core::CurveMode,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            scale: 0.125,
            full: false,
            out: PathBuf::from("target/repro"),
            sample: None,
            trace: None,
            no_cache: false,
            cache_dir: None,
            jobs: None,
            profile: false,
            trials: 1,
            retries: 0,
            timeout_secs: None,
            ci: false,
            fault: None,
            metrics: false,
            metrics_out: None,
            curve_mode: amem_core::CurveMode::Exact,
        }
    }
}

/// The `repro` command line; every refusal of it prints this.
pub const USAGE: &str = "\
usage: repro <name|all> [--scale F in (0,1], default 0.125] [--full] [--out DIR]
         [--sample CYCLES > 0] [--trace EVENTS > 0] [--no-cache] [--cache-dir DIR]
         [--jobs N > 0] [--profile] [--trials N > 0] [--retries N] [--timeout SECS > 0]
         [--ci] [--fault SPEC] [--metrics] [--metrics-out PATH]
         [--curve-mode exact|sampled[:RATE]]
(`repro` alone lists the experiments)";

impl Args {
    /// The flags of [`USAGE`] (those after the experiment name).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, CliError> {
        let mut out = Self::default();
        let mut r = FlagReader::new(args);
        while let Some(a) = r.next_arg() {
            match a.as_str() {
                "--scale" => out.scale = r.parse_in(cli::SCALE)?,
                "--full" => out.full = true,
                "--out" => out.out = r.value()?.into(),
                "--sample" => out.sample = Some(r.parse_in(1..)?),
                "--trace" => out.trace = Some(r.parse_in(1..)?),
                "--no-cache" => out.no_cache = true,
                "--cache-dir" => out.cache_dir = Some(r.value()?.into()),
                "--jobs" => out.jobs = Some(r.parse_in(1..)?),
                "--profile" => out.profile = true,
                "--trials" => out.trials = r.parse_in(1..)?,
                "--retries" => out.retries = r.parse_in(..)?,
                "--timeout" => out.timeout_secs = Some(r.parse_in(cli::POSITIVE)?),
                "--ci" => out.ci = true,
                "--fault" => out.fault = Some(r.value_with(FaultSpec::parse)?),
                "--metrics" => out.metrics = true,
                "--metrics-out" => out.metrics_out = Some(r.value()?.into()),
                "--curve-mode" => out.curve_mode = r.value_with(amem_core::CurveMode::parse)?,
                _ => return Err(r.unknown()),
            }
        }
        Ok(out)
    }

    /// The machine under test.
    pub fn machine(&self) -> MachineConfig {
        MachineConfig::xeon20mb().scaled(self.scale)
    }

    /// CSV path for a named experiment.
    pub fn csv(&self, name: &str) -> PathBuf {
        self.out.join(format!("{name}.csv"))
    }

    /// A platform with this invocation's sampling/tracing knobs applied.
    pub fn platform(&self) -> SimPlatform {
        let mut p = SimPlatform::new(self.machine());
        if let Some(iv) = self.sample {
            p = p.with_sampling(iv);
        }
        if let Some(cap) = self.trace {
            p = p.with_tracing(cap);
        }
        p
    }

    /// The trial/retry/timeout policy this invocation asked for. The
    /// default flags give the pass-through policy (one trial, no retry,
    /// no timeout), whose output is that of a plain platform run.
    pub fn trial_policy(&self) -> TrialPolicy {
        let mut p = TrialPolicy::fixed(self.trials).with_retries(self.retries);
        if let Some(secs) = self.timeout_secs {
            p = p.with_timeout_ms((secs * 1e3).ceil() as u64);
        }
        p
    }

    /// An executor over [`Args::platform`] honouring `--no-cache` and
    /// `--cache-dir` (falling back to `$AMEM_CACHE_DIR`, then
    /// `target/amem-cache`), running under [`Args::trial_policy`]. With a
    /// fault spec in force the platform is wrapped in a deterministic
    /// [`FaultyPlatform`] — which reports itself nondeterministic, so
    /// injected results never reach the cache.
    pub fn executor(&self) -> Arc<Executor> {
        let exec = match &self.fault {
            Some(spec) => {
                eprintln!("[fault] injecting: {spec:?}");
                self.build_executor(FaultyPlatform::new(self.platform(), spec.clone()))
            }
            None => self.build_executor(self.platform()),
        };
        Arc::new(exec.with_policy(self.trial_policy()))
    }

    fn build_executor(&self, plat: impl Platform + 'static) -> Executor {
        if self.no_cache {
            Executor::uncached(plat)
        } else if let Some(dir) = &self.cache_dir {
            Executor::with_cache_dir(plat, dir.clone())
        } else {
            Executor::new(plat)
        }
    }
}

/// Resolve the child-process parallelism of `repro all`: the `--jobs`
/// value, or by default half the available cores capped at 4 (each
/// child's `amem_core::par_map` fan-outs use every core, so more children
/// than that oversubscribe the machine). Either way the result is
/// clamped to `1..=available_parallelism` — asking for 64 jobs on a
/// 4-core box gets 4.
pub fn resolve_jobs(cli: Option<usize>) -> usize {
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    cli.unwrap_or((avail / 2).clamp(1, 4)).clamp(1, avail)
}

/// The shared experiment harness: wraps [`Args`], times the run, records
/// every emitted table, and writes a schema-versioned
/// [`RunManifest`] to `<out>/<name>.manifest.json` on [`Harness::finish`].
/// When `--sample`/`--trace` are given, [`Harness::export_telemetry`]
/// additionally writes per-core sample JSONL and a Chrome trace-event file
/// (loadable in Perfetto / `chrome://tracing`).
pub struct Harness {
    args: Args,
    exec: Arc<Executor>,
    manifest: RunManifest,
    start: Instant,
    /// Outputs that could not be written; `finish` fails the run on any.
    failed_writes: Vec<PathBuf>,
}

impl std::ops::Deref for Harness {
    type Target = Args;
    fn deref(&self) -> &Args {
        &self.args
    }
}

impl Harness {
    /// Open a manifest for experiment `name` run with `args`.
    pub fn with_args(name: &str, args: Args) -> Self {
        // Without `--metrics` the gate stays off and every
        // instrumentation site stays a single relaxed load.
        if args.metrics {
            amem_metrics::set_enabled(true);
        }
        let mut manifest = RunManifest::new(name, args.machine());
        manifest.scale = args.scale;
        let exec = args.executor();
        Self {
            args,
            exec,
            manifest,
            start: Instant::now(),
            failed_writes: Vec::new(),
        }
    }

    /// The measurement executor every experiment point goes through.
    /// Cloning the `Arc` lets sweeps fan points out across threads.
    pub fn executor(&self) -> Arc<Executor> {
        Arc::clone(&self.exec)
    }

    /// Whether this invocation asked for sampling or tracing.
    pub fn telemetry_enabled(&self) -> bool {
        self.args.sample.is_some() || self.args.trace.is_some()
    }

    /// Print a table, mirror it to CSV, and record it in the manifest.
    pub fn emit(&mut self, name: &str, table: &amem_core::report::Table) {
        println!("{}", table.render());
        let path = self.args.csv(name);
        if self.wrote(&path, table.write_csv(&path)) {
            println!("[csv] {}\n", path.display());
        }
        self.manifest.tables.push(table.clone());
    }

    /// Whether an output write succeeded; a failure is reported and
    /// remembered so [`Harness::finish`] can fail the run.
    fn wrote(&mut self, path: &Path, result: std::io::Result<()>) -> bool {
        if let Err(e) = &result {
            eprintln!("error: could not write {}: {e}", path.display());
            self.failed_writes.push(path.to_path_buf());
        }
        result.is_ok()
    }

    /// Record the RNG seed the experiment used.
    pub fn set_seed(&mut self, seed: u64) {
        self.manifest.seed = Some(seed);
    }

    /// Append a free-form note to the manifest.
    pub fn note(&mut self, note: impl Into<String>) {
        self.manifest.notes.push(note.into());
    }

    /// Record a headline measurement: simulated seconds plus the merged
    /// end-of-run counters of its primary ranks. With `--profile`, also
    /// print a per-component cycle/time breakdown of the measurement.
    pub fn record_measurement(&mut self, m: &Measurement) {
        self.manifest.sim_seconds = Some(m.seconds);
        let mut agg = CoreCounters::default();
        for j in m.report.jobs.iter().filter(|j| j.primary) {
            agg.merge(&j.counters);
        }
        if self.args.profile {
            print_profile(&self.args.machine(), &agg);
        }
        self.manifest.final_counters = Some(agg);
        self.manifest.interference = Some(m.mix.describe());
    }

    /// Export a run's telemetry (when captured) as `<out>/<name>.samples.jsonl`
    /// and `<out>/<name>.trace.json`. No-op if the run carried no telemetry.
    pub fn export_telemetry(&mut self, name: &str, report: &RunReport) {
        let Some(tel) = report.telemetry.as_ref() else {
            return;
        };
        let freq = self.args.machine().freq_ghz;
        let jsonl = self.args.out.join(format!("{name}.samples.jsonl"));
        let trace = self.args.out.join(format!("{name}.trace.json"));
        if let Some(dir) = jsonl.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if self.wrote(&jsonl, std::fs::write(&jsonl, tel.samples_jsonl())) {
            println!(
                "[telemetry] {} ({} samples)",
                jsonl.display(),
                tel.samples.len()
            );
            self.note(format!("telemetry samples: {}", jsonl.display()));
        }
        if self.wrote(&trace, std::fs::write(&trace, tel.chrome_trace(freq))) {
            println!(
                "[telemetry] {} ({} spans, {} dropped)",
                trace.display(),
                tel.events.len(),
                tel.dropped_events
            );
            self.note(format!("chrome trace: {}", trace.display()));
        }
    }

    /// Stamp the wall time, record the cache counters and write the
    /// manifest. Returns its path. Exits non-zero if any output of the run
    /// (CSV, telemetry, metrics, manifest) could not be written — each is
    /// named as it fails, and every remaining write is still attempted.
    pub fn finish(self) -> PathBuf {
        let (path, failed) = self.write_outputs();
        if !failed.is_empty() {
            eprintln!("error: {} output file(s) not written", failed.len());
            std::process::exit(1);
        }
        path
    }

    /// [`Harness::finish`] up to the exit decision: the manifest path and
    /// every output path whose write failed.
    fn write_outputs(mut self) -> (PathBuf, Vec<PathBuf>) {
        self.manifest.wall_seconds = self.start.elapsed().as_secs_f64();
        let stats = self.exec.stats();
        let rs = self.exec.robust_stats();
        print_counters("", &stats, &rs);
        self.manifest.cache = Some(stats);
        if !rs.is_empty() {
            self.manifest.quality = Some(rs);
        }
        if amem_metrics::enabled() {
            let snap = amem_metrics::snapshot();
            let prom = self.args.metrics_out.clone().unwrap_or_else(|| {
                self.args
                    .out
                    .join(format!("{}.metrics.prom", self.manifest.name))
            });
            if let Some(dir) = prom.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            let text = amem_metrics::export::prometheus_text(&snap);
            if self.wrote(&prom, std::fs::write(&prom, text)) {
                println!(
                    "[metrics] {} ({} series)",
                    prom.display(),
                    snap.series.len()
                );
            }
            self.manifest.metrics = Some(snap);
        }
        let path = self
            .args
            .out
            .join(format!("{}.manifest.json", self.manifest.name));
        if self.wrote(&path, self.manifest.write(&path)) {
            println!("[manifest] {}", path.display());
        }
        (path, self.failed_writes)
    }
}

/// Print the `[cache]`, `[curve]` and `[quality]` lines of one run
/// (`scope` empty) or of a whole suite (`scope` "suite total: "),
/// leaving out a line with nothing to count.
fn print_counters(scope: &str, stats: &CacheStats, rs: &QualityStats) {
    if stats.lookups() > 0 {
        println!(
            "[cache] {scope}{}/{} from cache ({} sim, {} mem, {} disk, {} dedup)",
            stats.hits(),
            stats.lookups(),
            stats.sim_runs,
            stats.mem_hits,
            stats.disk_hits,
            stats.dedup_hits
        );
    }
    let cs = stats.curves();
    if cs.lookups() > 0 {
        println!(
            "[curve] {scope}{}/{} from cache ({} passes, {} mem, {} disk, {} dedup)",
            cs.hits(),
            cs.lookups(),
            cs.runs,
            cs.mem_hits,
            cs.disk_hits,
            cs.dedup_hits
        );
    }
    if !rs.is_empty() {
        println!(
            "[quality] {scope}{} trials, {} retries, {} timeouts, {} faults, {} non-finite, \
             {} outliers rejected, {} degraded points",
            rs.trials,
            rs.retries,
            rs.timeouts,
            rs.faults,
            rs.non_finite,
            rs.outliers_rejected,
            rs.degraded_points
        );
    }
}

/// Print where a measurement's cycles went (the `--profile` view): the
/// core-time split the counters record directly, then the memory-level
/// service attribution estimated from hit counts × configured latencies.
fn print_profile(cfg: &MachineConfig, c: &CoreCounters) {
    let hz = cfg.freq_ghz * 1e9;
    let secs = |cyc: u64| cyc as f64 / hz;
    // Components are summed across the primary ranks (while the merged
    // `cycles` is the max clock), so percentages are of the summed
    // attributed time — what fraction of all core-time went where.
    let known = c.compute_cycles + c.stall_cycles + c.net_cycles + c.barrier_cycles;
    let pct = |cyc: u64| 100.0 * cyc as f64 / known.max(1) as f64;
    println!(
        "[profile] wall clock {} cycles ({:.6}s); attributed core time summed over ranks:",
        c.cycles,
        secs(c.cycles)
    );
    for (name, cyc) in [
        ("compute", c.compute_cycles),
        ("memory stall", c.stall_cycles),
        ("network", c.net_cycles),
        ("barrier", c.barrier_cycles),
    ] {
        println!(
            "[profile]   {name:<13} {cyc:>14} cyc  {:>6.2}%  {:.6}s",
            pct(cyc),
            secs(cyc)
        );
    }
    // Service-time attribution: hits at each level × that level's latency.
    // An estimate (overlap under MLP is not deducted), but it shows which
    // level dominates the stall time above.
    let l1 = c.l1_hits * cfg.l1.latency as u64;
    let l2 = c.l2_hits * cfg.l2.latency as u64;
    let l3 = c.l3_hits * cfg.l3.latency as u64;
    let dram = c.l3_misses * (cfg.l3.latency + cfg.dram_latency) as u64;
    println!("[profile] memory service estimate (hits x latency, overlap not deducted):");
    for (name, hits, cyc) in [
        ("L1", c.l1_hits, l1),
        ("L2", c.l2_hits, l2),
        ("L3", c.l3_hits, l3),
        ("DRAM", c.l3_misses, dram),
    ] {
        println!(
            "[profile]   {name:<5} {hits:>12} hits {cyc:>14} cyc  {:.6}s",
            secs(cyc)
        );
    }
    if c.tlb_hits + c.tlb_misses > 0 {
        println!(
            "[profile]   TLB   {:>12} hits {:>14} misses",
            c.tlb_hits, c.tlb_misses
        );
    }
    println!(
        "[profile] dram lines: {} demand, {} prefetch ({} prefetches dropped)",
        c.dram_demand_lines, c.dram_prefetch_lines, c.prefetches_dropped
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let a = Args::default();
        assert_eq!(a.scale, 0.125);
        assert!(!a.full);
        let m = a.machine();
        assert_eq!(m.l3.size_bytes, 5 << 20 >> 1);
    }

    #[test]
    fn csv_paths() {
        let a = Args::default();
        assert!(a.csv("fig5").ends_with("target/repro/fig5.csv"));
    }

    #[test]
    fn platform_carries_sampling_knobs() {
        let a = Args {
            sample: Some(10_000),
            trace: Some(256),
            ..Default::default()
        };
        let p = a.platform();
        assert_eq!(p.limit().sample_interval, Some(10_000));
        assert_eq!(p.limit().trace_capacity, 256);
        assert!(p.limit().telemetry_enabled());
        assert!(!Args::default().platform().limit().telemetry_enabled());
    }

    #[test]
    fn harness_writes_schema_versioned_manifest() {
        let dir = std::env::temp_dir().join("amem_harness_test");
        let _ = std::fs::remove_dir_all(&dir);
        let args = Args {
            out: dir.clone(),
            ..Default::default()
        };
        let mut h = Harness::with_args("unit", args);
        let mut t = amem_core::report::Table::new("t", &["a"]);
        t.row(vec!["1".into()]);
        h.emit("unit_t", &t);
        h.set_seed(7);
        h.note("from the unit test");
        let path = h.finish();
        let m = RunManifest::load(&path).unwrap();
        assert_eq!(m.schema_version, amem_core::manifest::SCHEMA_VERSION);
        assert_eq!(m.name, "unit");
        assert_eq!(m.seed, Some(7));
        assert_eq!(m.tables.len(), 1);
        assert!(m.wall_seconds >= 0.0);
        assert!(m.cache.is_some(), "manifests record cache counters");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_out_names_every_failed_output() {
        // `--out` is a regular file, so nothing can be created under it.
        let out = std::env::temp_dir().join("amem_harness_out_is_a_file");
        std::fs::write(&out, b"").unwrap();
        let args = Args {
            out: out.clone(),
            ..Default::default()
        };
        let mut h = Harness::with_args("unit_unwritable", args);
        h.emit("unit_t", &amem_core::report::Table::new("t", &["a"]));
        let (manifest, failed) = h.write_outputs();
        // (Plus a `.metrics.prom` when a sibling test turned the gate on.)
        assert!(failed.contains(&out.join("unit_t.csv")), "{failed:?}");
        assert!(failed.contains(&manifest), "{failed:?}");
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn harness_with_metrics_exports_prom_and_manifest_snapshot() {
        let dir = std::env::temp_dir().join("amem_harness_metrics_test");
        let _ = std::fs::remove_dir_all(&dir);
        let args = Args {
            out: dir.clone(),
            metrics: true,
            ..Default::default()
        };
        let h = Harness::with_args("unit_metrics", args);
        assert!(amem_metrics::enabled(), "--metrics turns the gate on");
        amem_metrics::global()
            .counter("amem_bench_unit_total", &[])
            .inc();
        let path = h.finish();
        let m = RunManifest::load(&path).unwrap();
        let snap = m.metrics.expect("manifest carries the snapshot");
        assert!(snap.counter_total("amem_bench_unit_total") >= 1);
        let prom = dir.join("unit_metrics.metrics.prom");
        let text = std::fs::read_to_string(&prom).unwrap();
        let samples = amem_metrics::export::parse_prometheus_text(&text).unwrap();
        assert!(
            samples.iter().any(|s| s.name == "amem_bench_unit_total"),
            "export round-trips through the bundled parser"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolve_jobs_priority_and_clamping() {
        let avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // An explicit value wins over the default...
        assert_eq!(resolve_jobs(Some(2)), 2.min(avail));
        assert_eq!(resolve_jobs(Some(1)), 1);
        // ...but is still clamped to the machine.
        assert_eq!(resolve_jobs(Some(1000)), avail);
        // No value: half the cores, capped at 4.
        assert_eq!(resolve_jobs(None), (avail / 2).clamp(1, 4).min(avail));
    }

    #[test]
    fn curve_mode_defaults_to_exact() {
        let a = Args::default();
        assert_eq!(a.curve_mode, amem_core::CurveMode::Exact);
        assert_eq!(
            amem_core::CurveMode::parse("sampled:0.02").unwrap().rate(),
            0.02
        );
    }

    #[test]
    fn trial_policy_maps_the_flags() {
        let a = Args::default();
        assert!(a.trial_policy().is_passthrough(), "defaults change nothing");
        let a = Args {
            trials: 5,
            retries: 2,
            timeout_secs: Some(1.5),
            ..Default::default()
        };
        let p = a.trial_policy();
        assert_eq!(p.trials, 5);
        assert_eq!(p.retries, 2);
        assert_eq!(p.timeout_ms, Some(1500));
        assert!(!p.is_passthrough());
    }

    #[test]
    fn fault_spec_prefers_flag_over_env() {
        // The flag is the only source: the environment injects nothing.
        std::env::set_var("AMEM_FAULT_INJECT", "seed=7,noise=0.01");
        let a = Args::default();
        assert!(a.fault.is_none(), "no flag, no injection");
        std::env::remove_var("AMEM_FAULT_INJECT");
        let flagged = Args::parse_from(["--fault".to_string(), "seed=9,error=0.5".to_string()]);
        assert_eq!(flagged.unwrap().fault.unwrap().seed, 9);
    }

    /// Every flag at once, as CI and the README pass them, reads to the
    /// values the command line names.
    #[test]
    fn a_full_command_line_reads_every_flag() {
        let line = "--scale 0.0625 --full --out /tmp/o --sample 50000 --trace 4096 --no-cache \
                    --cache-dir /tmp/c --jobs 2 --profile --trials 3 --retries 3 --timeout 30 \
                    --ci --fault seed=42,timeout=0.1,error=0.1,nan=0.1,noise=0.03 --metrics \
                    --metrics-out /tmp/m.prom --curve-mode sampled";
        let a = Args::parse_from(line.split_whitespace().map(String::from)).unwrap();
        let expected = Args {
            scale: 0.0625,
            full: true,
            out: "/tmp/o".into(),
            sample: Some(50_000),
            trace: Some(4096),
            no_cache: true,
            cache_dir: Some("/tmp/c".into()),
            jobs: Some(2),
            profile: true,
            trials: 3,
            retries: 3,
            timeout_secs: Some(30.0),
            ci: true,
            fault: FaultSpec::parse("seed=42,timeout=0.1,error=0.1,nan=0.1,noise=0.03").ok(),
            metrics: true,
            metrics_out: Some("/tmp/m.prom".into()),
            curve_mode: amem_core::CurveMode::parse("sampled").unwrap(),
        };
        assert_eq!(format!("{a:?}"), format!("{expected:?}"));
        let none: [String; 0] = [];
        assert_eq!(
            format!("{:?}", Args::parse_from(none).unwrap()),
            format!("{:?}", Args::default())
        );
    }

    #[test]
    fn a_bad_flag_is_refused_naming_it() {
        for (line, named) in [
            ("--scale 0", "--scale \"0\""),
            ("--scale 5", "--scale \"5\""),
            ("--jobs 0", "--jobs \"0\""),
            ("--trials 0", "--trials \"0\""),
            ("--timeout inf", "--timeout \"inf\""),
            ("--sample x", "--sample \"x\""),
            ("--fault bogus=1", "--fault \"bogus=1\""),
            ("--curve-mode fast", "--curve-mode \"fast\""),
            ("--out", "--out needs a value"),
            ("--bogus", "unknown argument: --bogus"),
        ] {
            let err = Args::parse_from(line.split(' ').map(String::from)).unwrap_err();
            assert!(err.0.starts_with(named), "{line}: {}", err.0);
        }
    }

    #[test]
    fn executor_honours_cache_flags() {
        let a = Args {
            no_cache: true,
            ..Default::default()
        };
        assert!(
            a.executor().cache_dir().is_none(),
            "--no-cache disables disk"
        );
        let dir = std::env::temp_dir().join("amem_bench_cache_flag_test");
        let a = Args {
            cache_dir: Some(dir.clone()),
            ..Default::default()
        };
        assert_eq!(a.executor().cache_dir(), Some(dir.as_path()));
    }
}
