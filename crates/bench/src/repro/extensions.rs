//! Extensions beyond the paper: the related work it cites, and the
//! consequences it argues from, made runnable.

use amem_core::mrc::MissRatioCurve;
use amem_core::noise::{measure_amplification, NoiseCfg};
use amem_core::platform::{McbWorkload, ProbeWorkload, Workload};
use amem_core::report::Table;
use amem_core::sweep::run_sweep;
use amem_core::{CapacityMap, CurveRequest};
use amem_interfere::latency::loaded_latency;
use amem_interfere::{CsThread, CsThreadCfg, InterferenceKind, InterferenceMix, InterferenceSpec};
use amem_miniapps::McbCfg;
use amem_probes::dist::AccessDist;
use amem_probes::ehr;
use amem_probes::probe::{ProbeCfg, ProbeStream};
use amem_probes::xray::{detect_levels, latency_curve};
use amem_qos::figures::{enforced_sweep, enforced_sweep_rows, enforcement_table};
use amem_qos::scenario::App;
use amem_qos::{QosPolicy, Scenario};
use amem_sim::energy::EnergyModel;
use amem_sim::prelude::*;

use crate::Harness;

/// Hierarchy parameter discovery (the paper's related work \[23\]\[24\]):
/// dependent pointer chases sweep the working set and report each level's
/// capacity and latency — doubling as a simulator self-check.
pub fn xray(h: &mut Harness) {
    let m = h.machine();
    eprintln!("chasing pointers across working-set sizes...");
    let curve = latency_curve(&m, 1 << 10, 3 * m.l3.size_bytes, 15_000);
    let mut t = Table::new(
        "Latency curve (dependent pointer chase)",
        &["Working set (KB)", "Cycles/load"],
    );
    for p in &curve {
        t.row(vec![
            format!("{:.1}", p.working_set_bytes as f64 / 1024.0),
            format!("{:.1}", p.cycles_per_load),
        ]);
    }
    h.emit("xray_curve", &t);

    let levels = detect_levels(&curve, 1.6);
    let mut t = Table::new(
        "Detected hierarchy levels vs ground truth",
        &[
            "Level",
            "Detected capacity (KB)",
            "Detected latency (cyc)",
            "Configured",
        ],
    );
    let truth = [
        format!("L1 {}KB @{}cyc", m.l1.size_bytes >> 10, m.l1.latency),
        format!("L2 {}KB @{}cyc", m.l2.size_bytes >> 10, m.l2.latency),
        format!("L3 {}KB @{}cyc", m.l3.size_bytes >> 10, m.l3.latency),
        format!("DRAM @{}cyc", m.l3.latency + m.dram_latency),
    ];
    for (i, l) in levels.iter().enumerate() {
        t.row(vec![
            format!("{}", i + 1),
            format!("{:.1}", l.capacity_bytes as f64 / 1024.0),
            format!("{:.1}", l.latency_cycles),
            truth.get(i).cloned().unwrap_or_else(|| "-".into()),
        ]);
    }
    h.emit("xray_levels", &t);
}

/// Miss-ratio curves via active measurement, and Hartstein's "is it √2?"
/// power law (the paper's ref \[9\]) tested on several workloads.
///
/// Two instruments side by side: the paper's coarse sweep (miss rate at
/// each CSThr level's effective capacity, one co-running simulation per
/// level) and the single-pass curve engine, which reads the whole dense
/// curve off one stack-distance traversal of the probe's line trace.
pub fn mrc(h: &mut Harness) {
    let m = h.machine();
    let exec = h.executor();
    let cmap = CapacityMap::paper_xeon20mb(&m);
    let uniform = AccessDist::Uniform;
    let zipf = AccessDist::Pareto {
        alpha: 1.2,
        x_min: 1e-4,
    };
    let probe = |dist| ProbeCfg::for_machine(&m, dist, 2.5, 1);

    let workloads: Vec<(&str, Box<dyn Workload>)> = vec![
        ("probe-uniform", Box::new(ProbeWorkload(probe(uniform)))),
        ("probe-zipf", Box::new(ProbeWorkload(probe(zipf)))),
        ("mcb-20k", Box::new(McbWorkload(McbCfg::new(&m, 20_000)))),
    ];

    let mut t = Table::new(
        "Miss-ratio curves by active measurement (power-law fit per workload)",
        &["Workload", "Capacity (MB)", "L3 miss rate", "alpha", "R^2"],
    );
    for (name, w) in workloads {
        let sweep =
            run_sweep(&exec, w.as_ref(), 1, InterferenceKind::Storage, 5).expect("mrc sweep");
        let mrc = MissRatioCurve::from_sweep(&sweep, &cmap);
        let fit = mrc.fit_power_law();
        for (i, p) in mrc.points.iter().enumerate() {
            let (a, r2) = match (&fit, i) {
                (Some(f), 0) => (format!("{:.2}", f.alpha), format!("{:.3}", f.r_squared)),
                _ => ("".into(), "".into()),
            };
            t.row(vec![
                if i == 0 { name.to_string() } else { "".into() },
                format!("{:.2}", p.capacity_bytes / (1 << 20) as f64),
                format!("{:.3}", p.miss_rate),
                a,
                r2,
            ]);
        }
    }
    h.emit("mrc", &t);
    println!(
        "Hartstein et al. (paper ref [9]) report alpha ≈ 0.5 for typical \
         workloads; uniform random access is the analytic alpha = 1 corner."
    );

    // The same probes through the single-pass engine: a 16-point dense
    // curve per workload from one stack-distance pass each (the sweep
    // above needed one co-running simulation per point).
    let line_bytes = m.l3.line_bytes as u64;
    let l3_lines = m.l3.lines();
    let capacities: Vec<u64> = (1..=16).map(|i| (l3_lines * i / 16).max(1)).collect();
    let mut dense = Table::new(
        "Dense miss-ratio curves (single stack-distance pass per workload)",
        &["Workload", "Capacity (MB)", "L3 miss rate", "CI95"],
    );
    for (name, dist) in [("probe-uniform", uniform), ("probe-zipf", zipf)] {
        let req =
            CurveRequest::from_probe(&probe(dist), line_bytes, capacities.clone(), h.curve_mode);
        let curve = exec.run_curve(&req).expect("curve pass");
        let ci = curve.quality.map(|q| q.max_ci95).unwrap_or(0.0);
        for (i, pt) in curve.points.iter().enumerate() {
            dense.row(vec![
                if i == 0 { name.to_string() } else { "".into() },
                format!("{:.2}", pt.capacity_bytes / (1 << 20) as f64),
                format!("{:.3}", pt.miss_rate),
                if i == 0 {
                    format!("±{ci:.3}")
                } else {
                    "".into()
                },
            ]);
        }
    }
    h.emit("mrc_dense", &dense);
}

/// Noise amplification (paper §IV, refs \[11\]\[18\]): interference-induced
/// jitter is amplified by BSP barriers as ranks multiply.
pub fn noise_amp(h: &mut Harness) {
    let m = h.machine();
    let noise = NoiseCfg {
        rate: 5e-3,
        mean_cycles: 5_000.0,
        seed: 7,
    };
    h.set_seed(noise.seed);
    let mut t = Table::new(
        "Barrier amplification of stochastic slowdown",
        &[
            "Ranks",
            "Measured slowdown",
            "Serial expectation",
            "Amplification",
        ],
    );
    for ranks in [1usize, 2, 4, 8, 12, 16] {
        if ranks > m.total_cores() {
            break;
        }
        let a = measure_amplification(&m, ranks, noise);
        t.row(vec![
            ranks.to_string(),
            format!("{:.3}x", a.measured_slowdown),
            format!("{:.3}x", a.serial_slowdown),
            format!("{:.2}x", a.amplification()),
        ]);
    }
    h.emit("noise_amp", &t);
    println!(
        "The max over per-rank noise grows with the rank count while the \
         mean stays put — why the paper's parallel runs feel interference \
         harder than single-process ones."
    );
}

/// Loaded memory latency vs interference level: the latency-under-load
/// companion to Eq. 1's bandwidth view ("cache misses take longer to
/// complete" — paper §IV).
pub fn latency_load(h: &mut Harness) {
    let m = h.machine();
    let mut t = Table::new(
        "Loaded DRAM latency (dependent chase over 4x the LLC)",
        &["Interference", "Cycles per miss", "ns per miss"],
    );
    let levels = std::iter::once(("none".to_string(), InterferenceSpec::none()))
        .chain((1..=6usize).map(|k| (format!("{k} BWThr"), InterferenceSpec::bandwidth(k))))
        .chain([2usize, 4].map(|k| (format!("{k} CSThr"), InterferenceSpec::storage(k))));
    for (name, spec) in levels {
        let l = loaded_latency(&m, spec);
        t.row(vec![
            name,
            format!("{l:.0}"),
            format!("{:.1}", l / m.freq_ghz),
        ]);
    }
    h.emit("latency_load", &t);
    println!(
        "Bandwidth interference queues the probe's misses; storage \
         interference barely moves them — the same orthogonality as Figs. 7-8, \
         seen from the latency side."
    );
}

/// Combined interference vs multiplicative composition.
///
/// The prediction machinery (§I/§VI) assumes storage and bandwidth
/// degradations compose multiplicatively — justified by their
/// orthogonality (§III-D). This experiment checks the assumption
/// directly: run MCB under *simultaneous* CSThr+BWThr interference and
/// compare against the product of the individually-measured slowdowns.
pub fn combined(h: &mut Harness) {
    let m = h.machine();
    let exec = h.executor();
    let w = McbWorkload(McbCfg::new(&m, 60_000));
    let per = 2;
    let seconds = |mix: InterferenceMix| exec.run(&w, per, mix).expect("combined run").seconds;

    let baseline = seconds(InterferenceMix::none());
    let mut t = Table::new(
        "Combined interference vs multiplicative composition (MCB, 60k particles)",
        &[
            "Mix",
            "Measured slowdown",
            "Composed (storage x bandwidth)",
            "Composition error",
        ],
    );
    for (cs, bw) in [(1usize, 1usize), (2, 1), (3, 1), (2, 2), (4, 1), (4, 2)] {
        if cs + bw > 8 - per {
            continue;
        }
        let s_only = seconds(InterferenceMix::storage(cs)) / baseline;
        let b_only = seconds(InterferenceMix::bandwidth(bw)) / baseline;
        let mixed = seconds(InterferenceMix::new(cs, bw)) / baseline;
        let composed = s_only * b_only;
        t.row(vec![
            InterferenceMix::new(cs, bw).describe(),
            format!("{mixed:.3}x"),
            format!("{composed:.3}x"),
            format!("{:+.1}%", (composed / mixed - 1.0) * 100.0),
        ]);
    }
    h.emit("combined", &t);
    println!(
        "Small errors validate treating the two resources as an orthogonal \
         basis (the paper's 2-D projection, §III-D); positive errors mean \
         composition over-predicts (the resources overlap slightly)."
    );
}

/// One CAT run: the uniform probe on core 0 against `k` CSThrs, each
/// confined to the L3 ways of `cat_mask` when given. Returns the probe's
/// seconds and L3 miss rate after its warm-up mark.
fn cat_run(m_cfg: &MachineConfig, k: usize, cat_mask: Option<u32>) -> (f64, f64) {
    let mut m = Machine::new(m_cfg.clone());
    let pcfg = ProbeCfg::for_machine(m_cfg, AccessDist::Uniform, 2.0, 1);
    let probe = ProbeStream::new(&mut m, &pcfg);
    let mut jobs = vec![Job::primary(Box::new(probe), CoreId::new(0, 0))];
    for i in 0..k {
        let cfg = CsThreadCfg::for_machine(m_cfg).with_seed(1000 + i as u64);
        let cs = CsThread::new(&mut m, &cfg);
        let mut job = Job::background(Box::new(cs), CoreId::new(0, 1 + i as u32));
        if let Some(mask) = cat_mask {
            job = job.with_l3_ways(mask);
        }
        jobs.push(job);
    }
    let r = m.run(jobs, RunLimit::default());
    let c = r.jobs[0].after_last_mark();
    (m_cfg.seconds(c.cycles), c.l3_miss_rate())
}

/// Cache-allocation-technology (CAT) experiment: the modern fix for the
/// problem the paper measures, validated *with* the paper's instrument.
///
/// A probe with a cache-friendly hot set is swept against CSThr
/// interference twice: once unrestricted (the paper's world) and once
/// with the interference threads confined to a quarter of the L3's ways.
/// If way partitioning works, the degradation knee disappears — the
/// probe's effective capacity stays at the protected share.
pub fn cat(h: &mut Harness) {
    let m = h.machine();
    // Confine interference to the low quarter of the L3's ways.
    let quarter: u32 = (1u32 << (m.l3.ways / 4).max(1)) - 1;
    let pcfg = ProbeCfg::for_machine(&m, AccessDist::Uniform, 2.0, 1);
    let ssq = ehr::sum_sq_line_mass(&AccessDist::Uniform, pcfg.buffer_bytes, 4, 64);
    let mut t = Table::new(
        format!(
            "CAT way-partitioning: CSThrs unrestricted vs confined to {} of {} ways",
            m.l3.ways / 4,
            m.l3.ways
        ),
        &[
            "CSThrs",
            "Time (ms)",
            "Eff. cap (MB)",
            "CAT time (ms)",
            "CAT eff. cap (MB)",
        ],
    );
    for k in [0usize, 2, 4, 5] {
        let (t_plain, mr_plain) = cat_run(&m, k, None);
        let (t_cat, mr_cat) = cat_run(&m, k, Some(quarter));
        let cap = |mr: f64| ehr::effective_cache_bytes(mr, ssq, 64) / (1 << 20) as f64;
        t.row(vec![
            k.to_string(),
            format!("{:.3}", t_plain * 1e3),
            format!("{:.2}", cap(mr_plain)),
            format!("{:.3}", t_cat * 1e3),
            format!("{:.2}", cap(mr_cat)),
        ]);
    }
    h.emit("cat", &t);
    println!(
        "With CAT, the probe's effective capacity floors at the protected \
         3/4 share no matter how many CSThrs run — the degradation knee the \
         paper uses as its measurement signal is engineered away."
    );
}

/// Energy cost of interference (the paper's §I power motivation, closed
/// numerically): the same MCB run under rising interference, accounted
/// with the event-energy model — slowdowns are also joules.
pub fn energy(h: &mut Harness) {
    let m = h.machine();
    let exec = h.executor();
    let w = McbWorkload(McbCfg::new(&m, 60_000));
    let model = EnergyModel::default();
    let mut t = Table::new(
        "Energy under interference (MCB 60k, 2 ranks/processor)",
        &[
            "Interference",
            "Time (ms)",
            "Dynamic (mJ)",
            "Static (mJ)",
            "Total (mJ)",
            "vs baseline",
        ],
    );
    let mixes = [0, 2, 4, 6].map(InterferenceMix::storage);
    let mut baseline_total = None;
    for mix in mixes
        .into_iter()
        .chain([1, 2].map(InterferenceMix::bandwidth))
    {
        let meas = exec.run(&w, 2, mix).expect("energy run");
        let (mut dyn_j, mut stat_j) = (0.0, 0.0);
        for j in meas.report.jobs.iter().filter(|j| j.primary) {
            let e = model.account(&j.after_last_mark(), &m);
            dyn_j += e.dynamic_j;
            stat_j += e.static_j;
        }
        let total = dyn_j + stat_j;
        let baseline = *baseline_total.get_or_insert(total);
        t.row(vec![
            mix.describe(),
            format!("{:.3}", meas.seconds * 1e3),
            format!("{:.3}", dyn_j * 1e3),
            format!("{:.3}", stat_j * 1e3),
            format!("{:.3}", total * 1e3),
            format!("{:.2}x", total / baseline),
        ]);
    }
    h.emit("energy", &t);
    println!(
        "Interference costs energy twice: extra DRAM events (dynamic) and \
         longer runtime under constant leakage (static) — the flat-power \
         arithmetic behind the paper's shrinking memory-per-core premise."
    );
}

/// QoS enforcement, the closed-loop answer to the open-loop problem the
/// paper measures. Fig. 9 plots degradation with no recourse — the victim
/// takes whatever the co-schedule does to it. This renders the "with
/// enforcement" twin: the same bandwidth-interference sweep with the
/// MISE-style estimator + notch controller holding the victim to a
/// slowdown target, plus a fig12-style per-app outcome table for one
/// adversarial co-schedule ("who pays for whose QoS").
pub fn qos(h: &mut Harness) {
    const TARGET: f64 = 1.3;
    const MAX_CYCLES: u64 = 4_000_000;
    let m = h.machine();

    // ---- Fig. 9 twin: bandwidth sweep, naive vs enforced --------------
    let counts: Vec<usize> = (1..=7).collect();
    let pts = enforced_sweep(&m, InterferenceKind::Bandwidth, &counts, TARGET, MAX_CYCLES);
    let mut t = Table::new(
        format!("Fig. 9 twin — DRAM-bound victim vs BWThrs, slowdown target {TARGET}"),
        &[
            "BWThrs",
            "Naive slowdown",
            "Enforced slowdown",
            "Estimate",
            "Target",
        ],
    );
    for row in enforced_sweep_rows(&pts) {
        t.row(row);
    }
    h.emit("qos_fig9_twin", &t);

    // ---- Fig. 12-style outcome table: who pays for whose QoS ----------
    let mut apps = vec![App::dram_bound("victim", &m, CoreId::new(0, 0), 11)];
    for i in 0..6u32 {
        apps.push(App::stream(&format!("bw{i}"), &m, CoreId::new(0, 1 + i)));
    }
    let sc = Scenario::new(m, apps, MAX_CYCLES);
    let policy = QosPolicy::none().with_target("victim", TARGET);
    let mut t = Table::new(
        format!("Enforcement outcomes — victim target {TARGET}, 6 BWThr aggressors"),
        &[
            "App", "Target", "Naive", "Enforced", "Estimate", "CI95", "Notch",
        ],
    );
    for r in enforcement_table(&sc, &policy) {
        t.row(vec![
            r.app,
            r.target
                .map(|x| format!("{x:.2}"))
                .unwrap_or_else(|| "-".into()),
            format!("{:.4}", r.naive_slowdown),
            format!("{:.4}", r.enforced_slowdown),
            r.estimate
                .map(|x| format!("{x:.4}"))
                .unwrap_or_else(|| "-".into()),
            r.ci95_half
                .map(|x| format!("±{x:.4}"))
                .unwrap_or_else(|| "-".into()),
            r.final_notch.to_string(),
        ]);
    }
    h.emit("qos_outcomes", &t);
    println!(
        "The loop holds the victim at its target by notching the noisiest \
         best-effort apps (each notch halves their L3 ways and DRAM line \
         rate); the aggressors absorb the slowdown the naive schedule put \
         on the victim."
    );
}
