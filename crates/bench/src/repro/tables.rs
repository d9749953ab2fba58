//! The machine and its calibration: Tables I and II, STREAM and the
//! per-BWThr bandwidth.

use amem_core::report::Table;
use amem_interfere::calibrate::bw_threads_gbs;
use amem_probes::dist::{table2 as table2_dists, AccessDist};
use amem_probes::ehr;
use amem_probes::stream::measure_stream;

use crate::Harness;

/// Table I: the Xeon20MB memory hierarchy (as simulated).
pub fn table1(h: &mut Harness) {
    let m = h.machine();
    let mut t = Table::new(
        format!(
            "Table I — {} memory hierarchy ({} sockets x {} cores @ {} GHz, scale {})",
            m.name, m.sockets, m.cores_per_socket, m.freq_ghz, h.scale
        ),
        &[
            "Cache",
            "Scope",
            "Capacity",
            "Line Size",
            "Associativity",
            "Latency (cyc)",
        ],
    );
    let kb = |b: u64| {
        if b >= 1 << 20 {
            format!("{}MB", b >> 20)
        } else {
            format!("{}KB", b >> 10)
        }
    };
    for (name, scope, c) in [
        ("L1 D", "Private", &m.l1),
        ("L2", "Private", &m.l2),
        ("L3", "Shared", &m.l3),
    ] {
        t.row(vec![
            name.into(),
            scope.into(),
            kb(c.size_bytes),
            format!("{} bytes", c.line_bytes),
            format!("{}-way", c.ways),
            c.latency.to_string(),
        ]);
    }
    t.row(vec![
        "DRAM".into(),
        "Per socket".into(),
        format!("{:.1} GB/s raw", m.raw_dram_gbs()),
        "-".into(),
        "-".into(),
        m.dram_latency.to_string(),
    ]);
    h.emit("table1", &t);
}

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

/// Table II: the ten memory access distributions, plus the model constant
/// Σ g(ℓ)² and the Eq. 4 miss-rate prediction at a reference buffer size.
pub fn table2(h: &mut Harness) {
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
    for nd in table2_dists() {
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
}

/// STREAM calibration: the paper's "17 GB/s between the L3 cache and
/// memory according to the STREAM benchmark".
pub fn stream_cal(h: &mut Harness) {
    let m = h.machine();
    let mut t = Table::new(
        format!(
            "STREAM triad on {} (raw channel {:.1} GB/s per socket)",
            m.name,
            m.raw_dram_gbs()
        ),
        &["Cores", "Total GB/s", "Read-only GB/s", "% of raw"],
    );
    for cores in [1usize, 2, 4, 6, 8] {
        let r = measure_stream(&m, cores);
        t.row(vec![
            cores.to_string(),
            format!("{:.2}", r.total_gbs),
            format!("{:.2}", r.read_gbs),
            format!("{:.0}%", 100.0 * r.total_gbs / m.raw_dram_gbs()),
        ]);
    }
    h.emit("stream_cal", &t);
    let full = measure_stream(&m, m.cores_per_socket as usize);
    println!(
        "Machine bandwidth (the paper's '17 GB/s'): {:.2} GB/s",
        full.total_gbs
    );
}

/// §III-A calibration: bandwidth consumed per BWThr (Eq. 1) and channel
/// saturation as threads are added. Paper: ≈2.8 GB/s per thread; seven
/// threads ≈ 100% of the machine's 17 GB/s.
pub fn bw_cal(h: &mut Harness) {
    let m = h.machine();
    let stream = measure_stream(&m, m.cores_per_socket as usize).total_gbs;
    let mut t = Table::new(
        format!(
            "BWThr calibration on {} (STREAM total {:.2} GB/s)",
            m.name, stream
        ),
        &[
            "BWThrs",
            "Eq.1 GB/s per thread",
            "Eq.1 aggregate GB/s",
            "Total channel GB/s",
            "% of STREAM",
        ],
    );
    for k in 1..=m.cores_per_socket as usize {
        let c = bw_threads_gbs(&m, k);
        t.row(vec![
            k.to_string(),
            format!("{:.2}", c.per_thread_gbs),
            format!("{:.2}", c.aggregate_gbs),
            format!("{:.2}", c.total_channel_gbs),
            format!("{:.0}%", 100.0 * c.total_channel_gbs / stream),
        ]);
    }
    h.emit("bw_cal", &t);
    let one = bw_threads_gbs(&m, 1);
    println!(
        "One BWThr uses {:.2} GB/s by Eq. 1 (paper: 2.8 GB/s at full scale); \
         nominal saturation at {:.0} threads.",
        one.per_thread_gbs,
        stream / one.per_thread_gbs
    );
}
