#![forbid(unsafe_code)]
//! Table I: the Xeon20MB memory hierarchy (as simulated).

use amem_bench::Harness;
use amem_core::report::Table;

fn main() {
    let mut h = Harness::new("table1");
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
    t.row(vec![
        "L1 D".into(),
        "Private".into(),
        kb(m.l1.size_bytes),
        format!("{} bytes", m.l1.line_bytes),
        format!("{}-way", m.l1.ways),
        m.l1.latency.to_string(),
    ]);
    t.row(vec![
        "L2".into(),
        "Private".into(),
        kb(m.l2.size_bytes),
        format!("{} bytes", m.l2.line_bytes),
        format!("{}-way", m.l2.ways),
        m.l2.latency.to_string(),
    ]);
    t.row(vec![
        "L3".into(),
        "Shared".into(),
        kb(m.l3.size_bytes),
        format!("{} bytes", m.l3.line_bytes),
        format!("{}-way", m.l3.ways),
        m.l3.latency.to_string(),
    ]);
    t.row(vec![
        "DRAM".into(),
        "Per socket".into(),
        format!("{:.1} GB/s raw", m.raw_dram_gbs()),
        "-".into(),
        "-".into(),
        m.dram_latency.to_string(),
    ]);
    h.emit("table1", &t);
    h.finish();
}
