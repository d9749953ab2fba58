//! Running one workload: repeated set-up, timed rounds, round medians,
//! the traced pass, and the report.
//!
//! Host time only. A run's timed section is a sequence of *rounds* of
//! fixed work, and every timing is summarised across rounds: minimum,
//! quartiles, median, maximum and the round count are all printed. The
//! value a run *reports* for a timing is the quartile on its good side
//! ([`Summary::steady`]): on this shared host that is what repeats from
//! run to run, where the median follows the neighbours. `--seconds`
//! decides how many rounds fit, never how much work a round does.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use amem_core::CacheStats;
use serde_json::Value;

use crate::harness::{peak_rss_mb, Scratch, SimCounts, Tally};
use crate::layers::{Pass, Row};
use crate::spans::{chrome_trace_json, self_time_by_name, Tracer};
use crate::stats::{median, summarize, Summary};
use crate::workloads::cold_sweep::ColdSweep;
use crate::workloads::curve_calibrate::CurveCalibrate;
use crate::workloads::served::{ServedCold, ServedWarm};
use crate::workloads::{fold_curves, Ctx, Round, Workload};

/// Fewest timed rounds in a run, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Set-up is repeated at least this often and its median reported.
const MIN_SETUPS: usize = 3;
/// Cheap set-ups are repeated further, until they add up to this long
/// (or [`MAX_SETUPS`]), so that a 100 ms set-up is not judged on 3 samples.
const SETUP_BUDGET_S: f64 = 2.0;
const MAX_SETUPS: usize = 9;
/// Samples per row of the per-layer pass inside a traced run (the
/// standalone `--layers` pass takes 5).
const TRACED_LAYER_SAMPLES: usize = 3;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: PathBuf,
}

/// A metric of the final JSON line.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Everything else worth keeping, as one JSON object (the `detail`
    /// line): summaries with quartiles, exact counts, the result digest.
    pub detail: Value,
}

/// Workload timings that are reported, traced runs only, as per-layer
/// metrics named `e2e.*`: user-visible numbers that exist on some
/// workloads only (a contract metric must exist on all of them).
/// (timing, metric, unit, higher is better)
const E2E_TIMINGS: [(&str, &str, &str, bool); 6] = [
    ("req_per_s", "e2e.req_per_s", "1/s", true),
    ("lat_p50_ms", "e2e.lat_p50_ms", "ms", false),
    ("lat_p95_ms", "e2e.lat_p95_ms", "ms", false),
    ("lat_p99_ms", "e2e.lat_p99_ms", "ms", false),
    ("sim_maccess_per_s", "e2e.sim_maccess_per_s", "M/s", true),
    (
        "trace_maccess_per_s",
        "e2e.trace_maccess_per_s",
        "M/s",
        true,
    ),
];

pub fn run(opts: &Options) -> Report {
    match opts.workload.as_str() {
        "cold_sweep" => run_as::<ColdSweep>(opts),
        "curve_calibrate" => run_as::<CurveCalibrate>(opts),
        "served_warm" => run_as::<ServedWarm>(opts),
        "served_cold" => run_as::<ServedCold>(opts),
        other => panic!(
            "unknown workload '{other}' (expected one of {:?})",
            crate::workloads::NAMES
        ),
    }
}

fn run_as<W: Workload>(opts: &Options) -> Report {
    let scratch = Scratch::create(&opts.out, &opts.workload).expect("create scratch directory");
    let ctx = Ctx {
        seed: opts.seed,
        scratch: scratch.path().to_path_buf(),
        quick: opts.quick,
    };
    if opts.trace {
        traced::<W>(opts, &ctx)
    } else {
        untraced::<W>(opts, &ctx)
    }
}

/// Set the workload up, repeatedly; returns the last instance, each
/// repetition's duration, and the last repetition's checks.
fn set_up<W: Workload>(ctx: &Ctx, repeat: bool) -> (W, Vec<f64>, Tally) {
    let mut times = Vec::new();
    loop {
        let mut tally = Tally::default();
        let t0 = Instant::now();
        let workload = W::setup(ctx, &mut tally);
        times.push(t0.elapsed().as_secs_f64());
        let enough = times.len() >= MIN_SETUPS
            && (times.iter().sum::<f64>() >= SETUP_BUDGET_S || times.len() >= MAX_SETUPS);
        if !repeat || enough {
            return (workload, times, tally);
        }
    }
}

/// Rounds must agree with each other: same digest of results, same exact
/// simulated work. Counted as one operation each.
pub fn rounds_agree(rounds: &[(String, SimCounts)], tally: &mut Tally) {
    let Some((digest, sim)) = rounds.first() else {
        return;
    };
    tally.op(rounds.iter().all(|(d, _)| d == digest), || {
        "rounds produced different results".into()
    });
    tally.op(rounds.iter().all(|(_, s)| s == sim), || {
        "rounds did different simulated work".into()
    });
}

fn untraced<W: Workload>(opts: &Options, ctx: &Ctx) -> Report {
    let (mut workload, setups, mut tally) = set_up::<W>(ctx, !opts.quick);
    let setup = summarize(&setups);

    let tracer = Tracer::new(false);
    let mut rec = tracer.recorder(0);
    // Quick mode checks outputs only: one round, whatever `--seconds` says.
    let (min_rounds, seconds) = if opts.quick {
        (1, 0.0)
    } else {
        (MIN_ROUNDS, opts.seconds)
    };
    let mut rounds: Vec<Round> = Vec::new();
    let started = Instant::now();
    while rounds.len() < min_rounds || started.elapsed().as_secs_f64() < seconds {
        rounds.push(workload.round(ctx, &mut rec, rounds.len()));
    }
    let timed_s = started.elapsed().as_secs_f64();

    let identity: Vec<_> = rounds.iter().map(|r| (r.digest.clone(), r.sim)).collect();
    rounds_agree(&identity, &mut tally);
    let mut timings: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for round in &mut rounds {
        tally.merge(std::mem::take(&mut round.tally));
        timings.entry("wall_s").or_default().push(round.wall_s);
        for (name, v) in &round.timings {
            timings.entry(name).or_default().push(*v);
        }
    }
    let summaries: BTreeMap<&'static str, Summary> =
        timings.iter().map(|(k, v)| (*k, summarize(v))).collect();
    let wall = summaries["wall_s"];
    let rss = peak_rss_mb();
    let first = &rounds[0];

    println!(
        "workload {}  seed {}  rounds {} in {timed_s:.1} s  set-ups {}",
        opts.workload,
        opts.seed,
        rounds.len(),
        setups.len()
    );
    println!(
        "  {:<20} {:>10} {:<4}    {:>10} {:>10} {:>10} {:>10} {:>10}   n",
        "timing", "reported", "", "min", "q1", "median", "q3", "max"
    );
    print_summary("setup_s", setup.median, &setup);
    for (name, s) in &summaries {
        print_summary(name, s.steady(unit_and_direction(name).1), s);
    }
    println!("  {:<24} {rss:>12.2} MB", "peak_rss_mb");
    if let Some(err) = workload.model_err_pct() {
        println!("  {:<24} {err:>12.4} %   (deterministic)", "model_err_pct");
    }
    print_counts(&first.sim, &first.cache);
    println!("  digest {}", first.digest);
    print_tally(&tally);

    let mut detail = vec![
        ("workload".to_string(), Value::Str(opts.workload.clone())),
        ("seed".into(), Value::U64(opts.seed)),
        ("rounds".into(), Value::U64(rounds.len() as u64)),
        ("setup_s".into(), summary_value(&setup)),
        ("peak_rss_mb".into(), Value::F64(rss)),
        ("digest".into(), Value::Str(first.digest.clone())),
        ("exact".into(), counts_value(&first.sim, &first.cache)),
    ];
    for (name, s) in &summaries {
        detail.push((name.to_string(), summary_value(s)));
    }
    detail.push((
        "round_wall_s".into(),
        Value::Array(timings["wall_s"].iter().map(|v| Value::F64(*v)).collect()),
    ));
    detail.push((
        "setups_s".into(),
        Value::Array(setups.iter().map(|v| Value::F64(*v)).collect()),
    ));
    if let Some(err) = workload.model_err_pct() {
        detail.push(("model_err_pct".into(), Value::F64(err)));
    }

    Report {
        tally,
        metrics: vec![
            // Few repetitions, and no bursts to dodge inside 2 s: the
            // median is the steadier summary of set-ups (measured).
            metric("setup_s", "s", setup.median),
            metric("wall_s", "s", wall.steady(false)),
            metric("peak_rss_mb", "MB", rss),
        ],
        detail: Value::Object(detail),
    }
}

fn traced<W: Workload>(opts: &Options, ctx: &Ctx) -> Report {
    let (mut workload, _, mut tally) = set_up::<W>(ctx, false);
    let off = Tracer::new(false);
    let on = Tracer::new(true);

    // Untraced and traced rounds in alternation: the untraced ones give
    // the workload's own numbers (always taken with tracing off), the
    // ratio of the two is what tracing costs.
    let budget = if opts.quick { 0.0 } else { opts.seconds / 4.0 };
    let (mut plain, mut spanned): (Vec<Round>, Vec<Round>) = (Vec::new(), Vec::new());
    let started = Instant::now();
    {
        let mut rec_off = off.recorder(0);
        let mut rec_on = on.recorder(0);
        while plain.is_empty() || started.elapsed().as_secs_f64() < budget {
            let index = plain.len() + spanned.len();
            plain.push(workload.round(ctx, &mut rec_off, index));
            spanned.push(rec_on.span("bench.round", index as u64 + 1, |rec| {
                workload.round(ctx, rec, index + 1)
            }));
        }
    }
    let identity: Vec<_> = plain
        .iter()
        .chain(&spanned)
        .map(|r| (r.digest.clone(), r.sim))
        .collect();
    rounds_agree(&identity, &mut tally);
    let walls = |rs: &[Round]| rs.iter().map(|r| r.wall_s).collect::<Vec<_>>();
    let overhead = median(&walls(&spanned)) / median(&walls(&plain)) - 1.0;

    let mut rows: Vec<Row> = {
        let mut rec = on.recorder(0);
        let mut pass = Pass::new(
            &mut rec,
            if opts.quick { 1 } else { TRACED_LAYER_SAMPLES },
            opts.quick,
            ctx.scratch.clone(),
        );
        pass.run_all();
        workload_rows(&mut pass, &plain, workload.model_err_pct());
        pass.exact("bench.trace_overhead_frac", "frac", overhead);
        pass.rows
    };
    for round in plain.iter_mut().chain(&mut spanned) {
        tally.merge(std::mem::take(&mut round.tally));
    }
    rows.sort_by_key(|r| r.name);

    let spans = on.spans();
    let trace_file = opts.out.join(format!("trace-{}.json", opts.workload));
    std::fs::write(&trace_file, chrome_trace_json(&spans)).expect("write Chrome trace");

    println!(
        "workload {}  seed {}  traced: {} untraced + {} traced rounds, then the per-layer pass",
        opts.workload,
        opts.seed,
        plain.len(),
        spanned.len()
    );
    print_rows(&rows);
    println!(
        "  self time by span ({} spans, written to {}):",
        spans.len(),
        trace_file.display()
    );
    for (name, ns, count) in self_time_by_name(&spans).into_iter().take(12) {
        println!("    {name:<36} {:>10.3} ms  x{count}", ns as f64 / 1e6);
    }
    print_tally(&tally);

    Report {
        tally,
        metrics: rows
            .iter()
            .map(|r| metric(r.name, r.unit, r.value))
            .collect(),
        detail: Value::Object(vec![
            ("workload".into(), Value::Str(opts.workload.clone())),
            ("seed".into(), Value::U64(opts.seed)),
            ("traced".into(), Value::Bool(true)),
            (
                "trace_file".into(),
                Value::Str(trace_file.display().to_string()),
            ),
            ("spans".into(), Value::U64(spans.len() as u64)),
        ]),
    }
}

/// Rows taken from the workload's own (untraced) rounds: exact counts of
/// simulated work, how the executors served the requests, and the
/// user-visible timings that only some workloads have.
fn workload_rows(pass: &mut Pass, rounds: &[Round], model_err_pct: Option<f64>) {
    let first = &rounds[0];
    let sim = first.sim;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    pass.exact("sim.engine.sim_cycles", "cycles", sim.cycles as f64);
    pass.exact("sim.engine.sim_accesses", "count", sim.accesses as f64);
    pass.exact(
        "sim.engine.level_lookups_per_access",
        "ratio",
        ratio(sim.level_lookups, sim.accesses),
    );
    pass.exact(
        "sim.cache.l3_miss_ratio",
        "ratio",
        ratio(sim.l3_misses, sim.l3_hits + sim.l3_misses),
    );
    pass.exact("sim.dram.bytes", "bytes", sim.dram_bytes as f64);

    let cache = fold_curves(&first.cache);
    pass.exact("core.executor.sim_runs", "count", cache.sim_runs as f64);
    pass.exact("core.executor.mem_hits", "count", cache.mem_hits as f64);
    pass.exact("core.executor.disk_hits", "count", cache.disk_hits as f64);
    pass.exact("core.executor.dedup_hits", "count", cache.dedup_hits as f64);
    pass.exact("core.executor.stores", "count", cache.stores as f64);
    pass.exact(
        "core.executor.dedup_ratio",
        "ratio",
        ratio(cache.dedup_hits, cache.lookups()),
    );

    for (key, name, unit, higher) in E2E_TIMINGS {
        let values: Vec<f64> = rounds
            .iter()
            .filter_map(|r| r.timings.get(key).copied())
            .collect();
        let value = if values.is_empty() {
            0.0
        } else {
            summarize(&values).steady(higher)
        };
        pass.exact(name, unit, value);
    }
    pass.exact("e2e.model_err_pct", "%", model_err_pct.unwrap_or(0.0));
}

/// The standalone per-layer pass (`--layers`): every row that needs no
/// workload, five samples each.
pub fn layers_only(out: &Path, quick: bool) -> Vec<Row> {
    let scratch = Scratch::create(out, "layers").expect("create scratch directory");
    let tracer = Tracer::new(false);
    let mut rec = tracer.recorder(0);
    let mut pass = Pass::new(
        &mut rec,
        if quick { 1 } else { 5 },
        quick,
        scratch.path().to_path_buf(),
    );
    pass.run_all();
    let mut rows = pass.rows;
    rows.sort_by_key(|r| r.name);
    print_rows(&rows);
    rows
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// Unit of a round timing, and whether higher is better (`wall_s` and
/// `setup_s` are not in the table: seconds, lower).
fn unit_and_direction(timing: &str) -> (&'static str, bool) {
    E2E_TIMINGS
        .iter()
        .find(|(key, ..)| *key == timing)
        .map_or(("s", false), |(_, _, unit, higher)| (*unit, *higher))
}

/// One timing across rounds (or set-ups): the value reported, then the
/// whole distribution.
fn print_summary(name: &str, reported: f64, s: &Summary) {
    let unit = unit_and_direction(name).0;
    println!(
        "  {name:<20} {reported:>10.4} {unit:<4}    {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}  {:>2}",
        s.min,
        s.q1,
        s.median,
        s.q3,
        s.max,
        s.n
    );
}

fn print_counts(sim: &SimCounts, cache: &CacheStats) {
    let c = fold_curves(cache);
    println!(
        "  exact per round: {} runs, {} cycles, {} accesses, {} level lookups, {} DRAM bytes",
        sim.runs, sim.cycles, sim.accesses, sim.level_lookups, sim.dram_bytes
    );
    println!(
        "  executor per round: {} fresh, {} memory hits, {} disk hits, {} dedup joins, {} stores",
        c.sim_runs, c.mem_hits, c.disk_hits, c.dedup_hits, c.stores
    );
}

fn print_rows(rows: &[Row]) {
    for r in rows {
        if r.samples == 0 {
            println!("  {:<42} {:>16.4} {:<6} exact", r.name, r.value, r.unit);
        } else {
            println!(
                "  {:<42} {:>16.4} {:<6} median of {} x {:.0} ms",
                r.name, r.value, r.unit, r.samples, r.sample_ms
            );
        }
    }
}

fn print_tally(tally: &Tally) {
    println!(
        "  ops_attempted {}  ops_failed {}",
        tally.attempted, tally.failed
    );
    for note in &tally.notes {
        println!("    FAILED: {note}");
    }
}

fn summary_value(s: &Summary) -> Value {
    Value::Object(vec![
        ("min".into(), Value::F64(s.min)),
        ("q1".into(), Value::F64(s.q1)),
        ("median".into(), Value::F64(s.median)),
        ("q3".into(), Value::F64(s.q3)),
        ("max".into(), Value::F64(s.max)),
        ("n".into(), Value::U64(s.n as u64)),
    ])
}

fn counts_value(sim: &SimCounts, cache: &CacheStats) -> Value {
    let c = fold_curves(cache);
    let pairs = [
        ("sim_runs", sim.runs),
        ("sim_cycles", sim.cycles),
        ("sim_accesses", sim.accesses),
        ("level_lookups", sim.level_lookups),
        ("l3_hits", sim.l3_hits),
        ("l3_misses", sim.l3_misses),
        ("dram_bytes", sim.dram_bytes),
        ("executor_fresh", c.sim_runs),
        ("executor_mem_hits", c.mem_hits),
        ("executor_disk_hits", c.disk_hits),
        ("executor_dedup_hits", c.dedup_hits),
        ("executor_stores", c.stores),
    ];
    Value::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), Value::U64(v)))
            .collect(),
    )
}

/// The contract's last line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(report: &Report) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Value::Object(vec![
                    ("value".into(), Value::F64(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(report.tally.failed == 0)),
        ("attempted".into(), Value::U64(report.tally.attempted)),
        ("failed".into(), Value::U64(report.tally.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("a Value tree always serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists the metrics by hand; the program decides
    /// what it prints. They must not drift apart.
    #[test]
    fn manifest_lists_exactly_the_metrics_the_program_reports() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(root.join("../BENCHMARK.json")).expect("BENCHMARK.json");
        let manifest: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            let mut names: Vec<_> = manifest
                .get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            names.sort();
            names
        };
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);

        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = run(&Options {
                workload: "curve_calibrate".into(),
                seed: 1,
                seconds: 0.0,
                trace,
                quick: true,
                out: root.join(format!("out/test-manifest-{}", std::process::id())),
            });
            assert_eq!(report.tally.failed, 0, "{:?}", report.tally.notes);
            let mut reported: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            reported.sort();
            assert_eq!(reported, listed(key), "{key} of BENCHMARK.json");
        }
        let _ =
            std::fs::remove_dir_all(root.join(format!("out/test-manifest-{}", std::process::id())));
    }
}
