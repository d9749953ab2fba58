#![forbid(unsafe_code)]
//! Table II: the ten memory access distributions, plus the model constant
//! Σ g(ℓ)² and the Eq. 4 miss-rate prediction at a reference buffer size.

use amem_bench::Harness;
use amem_core::report::Table;
use amem_probes::dist::{table2, AccessDist};
use amem_probes::ehr;

fn describe(d: &AccessDist) -> (String, String) {
    match *d {
        AccessDist::Normal { mu, sigma } => {
            ("Normal".into(), format!("mu={mu}n sigma={:.3}n", sigma))
        }
        AccessDist::Exponential { rate } => ("Exponential".into(), format!("lambda={rate}/n")),
        AccessDist::Triangular { mode } => ("Triangular".into(), format!("a=0 b={mode}n c=n")),
        AccessDist::Uniform => ("Uniform".into(), "a=0 b=n".into()),
        AccessDist::Pareto { alpha, x_min } => (
            "Pareto (ext)".into(),
            format!("alpha={alpha} x_min={x_min}n"),
        ),
        AccessDist::Bimodal { mu1, mu2, sigma } => (
            "Bimodal (ext)".into(),
            format!("mu={mu1}n,{mu2}n sigma={sigma}n"),
        ),
    }
}

fn main() {
    let mut h = Harness::new("table2");
    let m = h.machine();
    // Reference: a buffer 2.5x the L3, the middle of the paper's sweep.
    let buffer = (m.l3.size_bytes as f64 * 2.5) as u64;
    let cache_lines = m.l3.lines();
    let mut t = Table::new(
        format!(
            "Table II — access patterns (reference buffer {:.1} MB vs {:.1} MB L3)",
            buffer as f64 / (1 << 20) as f64,
            m.l3.size_bytes as f64 / (1 << 20) as f64
        ),
        &[
            "Pattern",
            "Distribution",
            "Parameters",
            "Std Dev (xn)",
            "Sum g^2",
            "Predicted L3 miss rate",
        ],
    );
    for nd in table2() {
        let (kind, params) = describe(&nd.dist);
        let ssq = ehr::sum_sq_line_mass(&nd.dist, buffer, 4, 64);
        let mr = ehr::expected_miss_rate(cache_lines, ssq);
        t.row(vec![
            nd.name.into(),
            kind,
            params,
            format!("{:.4}", nd.dist.std_dev_frac()),
            format!("{ssq:.3e}"),
            format!("{:.1}%", mr * 100.0),
        ]);
    }
    h.emit("table2", &t);
    h.finish();
}
