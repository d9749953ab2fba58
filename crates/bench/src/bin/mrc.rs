#![forbid(unsafe_code)]
//! Miss-ratio curves via active measurement, and Hartstein's "is it √2?"
//! power law (the paper's ref \[9\]) tested on several workloads.
//!
//! Two instruments side by side: the paper's coarse sweep (miss rate at
//! each CSThr level's effective capacity, one co-running simulation per
//! level) and the single-pass curve engine, which reads the whole dense
//! curve off one stack-distance traversal of the probe's line trace.

use amem_bench::Harness;
use amem_core::mrc::MissRatioCurve;
use amem_core::platform::{McbWorkload, ProbeWorkload, Workload};
use amem_core::report::Table;
use amem_core::sweep::run_sweep;
use amem_core::{CapacityMap, CurveRequest};
use amem_interfere::InterferenceKind;
use amem_miniapps::McbCfg;
use amem_probes::dist::AccessDist;
use amem_probes::probe::ProbeCfg;

fn main() {
    let mut h = Harness::new("mrc");
    let m = h.machine();
    let exec = h.executor();
    let cmap = CapacityMap::paper_xeon20mb(&m);

    let workloads: Vec<(&str, Box<dyn Workload>)> = vec![
        (
            "probe-uniform",
            Box::new(ProbeWorkload(ProbeCfg::for_machine(
                &m,
                AccessDist::Uniform,
                2.5,
                1,
            ))),
        ),
        (
            "probe-zipf",
            Box::new(ProbeWorkload(ProbeCfg::for_machine(
                &m,
                AccessDist::Pareto {
                    alpha: 1.2,
                    x_min: 1e-4,
                },
                2.5,
                1,
            ))),
        ),
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
    let probes = [
        ("probe-uniform", AccessDist::Uniform),
        (
            "probe-zipf",
            AccessDist::Pareto {
                alpha: 1.2,
                x_min: 1e-4,
            },
        ),
    ];
    let mut dense = Table::new(
        "Dense miss-ratio curves (single stack-distance pass per workload)",
        &["Workload", "Capacity (MB)", "L3 miss rate", "CI95"],
    );
    for (name, dist) in probes {
        let p = ProbeCfg::for_machine(&m, dist, 2.5, 1);
        let req = CurveRequest::from_probe(&p, line_bytes, capacities.clone(), h.curve_mode);
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
    h.finish();
}
