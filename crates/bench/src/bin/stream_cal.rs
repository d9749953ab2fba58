#![forbid(unsafe_code)]
//! STREAM calibration: the paper's "17 GB/s between the L3 cache and
//! memory according to the STREAM benchmark".

use amem_bench::Harness;
use amem_core::report::Table;
use amem_probes::stream::measure_stream;

fn main() {
    let mut h = Harness::new("stream_cal");
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
    h.finish();
}
