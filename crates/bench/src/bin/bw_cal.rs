#![forbid(unsafe_code)]
//! §III-A calibration: bandwidth consumed per BWThr (Eq. 1) and channel
//! saturation as threads are added. Paper: ≈2.8 GB/s per thread; seven
//! threads ≈ 100% of the machine's 17 GB/s.

use amem_bench::Harness;
use amem_core::report::Table;
use amem_interfere::calibrate::bw_threads_gbs;
use amem_probes::stream::measure_stream;

fn main() {
    let mut h = Harness::new("bw_cal");
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
    h.finish();
}
