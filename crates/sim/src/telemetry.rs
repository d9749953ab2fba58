//! Run-time observability: counter sampling, latency histograms, spans.
//!
//! The paper's methodology reads PMU counters *once per run* (Eq. 1 needs
//! only end-to-end misses and time). This module adds the infrastructure a
//! production measurement system layers on top: periodic counter sampling
//! (time-sliced [`Sample`]s per core), power-of-two latency histograms
//! (`amem_metrics::HistogramSnapshot`) for DRAM queue delay and
//! demand-miss latency, and
//! span/instant events ([`SpanEvent`]) for BSP phases, barrier waits and
//! user marks, held in a bounded [`EventRing`].
//!
//! Everything here is *read-only* with respect to the simulation: enabling
//! sampling or tracing never changes a single counter or cycle, which the
//! integration tests assert by comparing byte-identical counter JSON with
//! telemetry on and off.
//!
//! Exports: [`Telemetry::samples_jsonl`] (one JSON object per line, easy to
//! load from pandas/jq) and [`Telemetry::chrome_trace`] (Chrome trace-event
//! JSON, loadable in Perfetto / `chrome://tracing`).

use std::collections::VecDeque;

use amem_metrics::HistogramSnapshot;
use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::counters::CoreCounters;

/// One time slice of one core's counters.
///
/// Slices partition a core's timeline: `delta` is `delta_since` between the
/// snapshot at `start_cycle` and the one at `end_cycle`, so summing any
/// field across a core's samples reproduces that core's end-of-run counter
/// exactly (asserted in the integration tests).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Sample {
    /// Flat core index.
    pub core: u32,
    pub start_cycle: u64,
    pub end_cycle: u64,
    /// Counter deltas over this slice (`delta.cycles` = slice length).
    pub delta: CoreCounters,
    /// L3 miss rate within the slice.
    pub l3_miss_rate: f64,
    /// DRAM bytes (demand + prefetch) moved by this core in the slice.
    pub dram_bytes: u64,
    /// Eq. 1 bandwidth over the slice, GB/s.
    pub bandwidth_gbs: f64,
}

/// Periodic per-core counter sampler driven by the engine.
#[derive(Debug, Clone)]
pub struct Sampler {
    interval: u64,
    line_bytes: u32,
    freq_ghz: f64,
    last: Vec<CoreCounters>,
    next: Vec<u64>,
    samples: Vec<Sample>,
}

impl Sampler {
    pub fn new(interval: u64, n_cores: usize, line_bytes: u32, freq_ghz: f64) -> Self {
        assert!(interval > 0, "sampling interval must be positive");
        Self {
            interval,
            line_bytes,
            freq_ghz,
            last: vec![CoreCounters::default(); n_cores],
            next: vec![interval; n_cores],
            samples: Vec::new(),
        }
    }

    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Has `core`'s clock crossed its next sampling boundary?
    #[inline]
    pub fn due(&self, core: usize, time: u64) -> bool {
        time >= self.next[core]
    }

    /// Emit a slice `[last snapshot, time]` for `core` and rearm.
    pub fn sample(&mut self, core: usize, time: u64, counters: &CoreCounters) {
        let mut now = *counters;
        now.cycles = time;
        let prev = self.last[core];
        let delta = now.delta_since(&prev);
        self.samples.push(Sample {
            core: core as u32,
            start_cycle: prev.cycles,
            end_cycle: time,
            delta,
            l3_miss_rate: delta.l3_miss_rate(),
            dram_bytes: delta.dram_bytes(self.line_bytes),
            bandwidth_gbs: delta.bandwidth_gbs(self.line_bytes, self.freq_ghz),
        });
        self.last[core] = now;
        self.next[core] = (time / self.interval + 1) * self.interval;
    }

    /// Emit the final partial slice for `core`, if any time has elapsed
    /// since its last snapshot.
    pub fn finalize(&mut self, core: usize, time: u64, counters: &CoreCounters) {
        if time > self.last[core].cycles {
            self.sample(core, time, counters);
        }
    }

    pub fn into_samples(self) -> Vec<Sample> {
        self.samples
    }
}

/// A traced span (or instant, when `start_cycle == end_cycle`) on a core's
/// timeline: BSP compute phases, barrier waits, user `Op::Mark`s.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpanEvent {
    pub name: String,
    /// Flat core index.
    pub core: u32,
    pub start_cycle: u64,
    pub end_cycle: u64,
}

impl SpanEvent {
    pub fn span(name: impl Into<String>, core: usize, start: u64, end: u64) -> Self {
        Self {
            name: name.into(),
            core: core as u32,
            start_cycle: start,
            end_cycle: end.max(start),
        }
    }

    pub fn instant(name: impl Into<String>, core: usize, at: u64) -> Self {
        Self::span(name, core, at, at)
    }

    pub fn is_instant(&self) -> bool {
        self.start_cycle == self.end_cycle
    }
}

/// Bounded event buffer: keeps the most recent `capacity` events and counts
/// how many older ones were dropped, so long runs cannot grow memory
/// without bound.
#[derive(Debug, Clone)]
pub struct EventRing {
    capacity: usize,
    buf: VecDeque<SpanEvent>,
    dropped: u64,
}

impl EventRing {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "event ring capacity must be positive");
        Self {
            capacity,
            buf: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
        }
    }

    #[inline]
    pub fn push(&mut self, ev: SpanEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn into_parts(self) -> (Vec<SpanEvent>, u64) {
        (self.buf.into_iter().collect(), self.dropped)
    }
}

/// Everything the engine observed during one run with telemetry enabled.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Telemetry {
    /// Sampling interval in cycles (0 when sampling was disabled).
    pub sample_interval: u64,
    /// Per-core time slices, in emission order (interleaved across cores;
    /// within one core, strictly increasing `start_cycle`).
    pub samples: Vec<Sample>,
    /// Traced spans/instants that survived the ring buffer.
    pub events: Vec<SpanEvent>,
    /// Events dropped by the ring buffer (oldest first).
    pub dropped_events: u64,
    /// Per-socket histogram of DRAM channel queue+transfer delay, cycles.
    pub dram_queue_delay: Vec<HistogramSnapshot>,
    /// Per-socket histogram of total demand-miss latency, cycles.
    pub demand_latency: Vec<HistogramSnapshot>,
}

impl Telemetry {
    /// Samples for one core, in time order.
    pub fn core_samples(&self, core: u32) -> Vec<&Sample> {
        self.samples.iter().filter(|s| s.core == core).collect()
    }

    /// One JSON object per line, one line per sample (JSONL).
    pub fn samples_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&serde_json::to_string(s).expect("sample serializes"));
            out.push('\n');
        }
        out
    }

    /// Chrome trace-event JSON (the `{"traceEvents": [...]}` envelope),
    /// loadable in Perfetto or `chrome://tracing`.
    ///
    /// Spans become `ph:"X"` complete events, instants `ph:"i"`, and each
    /// sample adds `ph:"C"` counter tracks (bandwidth and L3 miss rate)
    /// per core. Timestamps are microseconds at `freq_ghz`.
    pub fn chrome_trace(&self, freq_ghz: f64) -> String {
        let us = |cycles: u64| cycles as f64 / (freq_ghz * 1e3);
        let mut events: Vec<Value> = Vec::new();
        for ev in &self.events {
            let mut obj = vec![
                ("name".to_string(), Value::Str(ev.name.clone())),
                ("pid".to_string(), Value::U64(0)),
                ("tid".to_string(), Value::U64(ev.core as u64)),
                ("ts".to_string(), Value::F64(us(ev.start_cycle))),
            ];
            if ev.is_instant() {
                obj.push(("ph".to_string(), Value::Str("i".to_string())));
                obj.push(("s".to_string(), Value::Str("t".to_string())));
            } else {
                obj.push(("ph".to_string(), Value::Str("X".to_string())));
                obj.push((
                    "dur".to_string(),
                    Value::F64(us(ev.end_cycle - ev.start_cycle)),
                ));
            }
            events.push(Value::Object(obj));
        }
        for s in &self.samples {
            events.push(Value::Object(vec![
                (
                    "name".to_string(),
                    Value::Str(format!("core{} memory", s.core)),
                ),
                ("ph".to_string(), Value::Str("C".to_string())),
                ("pid".to_string(), Value::U64(0)),
                ("tid".to_string(), Value::U64(s.core as u64)),
                ("ts".to_string(), Value::F64(us(s.end_cycle))),
                (
                    "args".to_string(),
                    Value::Object(vec![
                        ("bandwidth_gbs".to_string(), Value::F64(s.bandwidth_gbs)),
                        ("l3_miss_rate".to_string(), Value::F64(s.l3_miss_rate)),
                    ]),
                ),
            ]));
        }
        let root = Value::Object(vec![
            ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
            ("traceEvents".to_string(), Value::Array(events)),
        ]);
        serde_json::to_string(&root).expect("trace serializes")
    }
}

/// Flush one finished run's counters into the global `amem_metrics`
/// registry. A no-op unless the metrics gate is on, and called exactly once
/// per run (at report construction), so the engine's hot loop carries zero
/// instrumentation cost either way.
///
/// Exported families (see DESIGN.md §12): per-level access/miss counters,
/// eviction and prefetch outcomes, per-kind DRAM line traffic, DRAM
/// busy-vs-wall cycles (their ratio is channel occupancy), and — when the
/// run had telemetry enabled — the DRAM queue-delay and demand-latency
/// histograms, folded bucket-for-bucket.
pub fn publish_run_metrics(report: &crate::engine::RunReport) {
    if !amem_metrics::enabled() {
        return;
    }
    let reg = amem_metrics::global();
    // Through the registry, not `amem_metrics::add`: a zero count still
    // makes its series, so every run exports the same families.
    let add = |name: &str, labels: &[(&str, &str)], v: u64| reg.counter(name, labels).add(v);
    let mut agg = CoreCounters::default();
    for j in &report.jobs {
        agg.merge(&j.counters);
    }
    for (level, hits, misses) in [
        ("l1", agg.l1_hits, agg.l1_misses),
        ("l2", agg.l2_hits, agg.l2_misses),
        ("l3", agg.l3_hits, agg.l3_misses),
        ("tlb", agg.tlb_hits, agg.tlb_misses),
    ] {
        let (level, accesses) = ([("level", level)], hits.saturating_add(misses));
        add("amem_sim_accesses_total", &level, accesses);
        add("amem_sim_misses_total", &level, misses);
    }
    for (kind, v) in [("load", agg.loads), ("store", agg.stores)] {
        add("amem_sim_ops_total", &[("kind", kind)], v);
    }
    for (kind, v) in [
        ("back_invalidation", agg.back_invalidations),
        ("coherence_invalidation", agg.coherence_invalidations),
    ] {
        add("amem_sim_evictions_total", &[("kind", kind)], v);
    }
    for (outcome, v) in [
        ("issued", agg.prefetches_issued),
        ("dropped", agg.prefetches_dropped),
    ] {
        add("amem_sim_prefetches_total", &[("outcome", outcome)], v);
    }
    for s in &report.sockets {
        let d = &s.dram;
        for (kind, v) in [
            ("demand", d.demand_lines),
            ("prefetch", d.prefetch_lines),
            ("writeback", d.writeback_lines),
        ] {
            add("amem_sim_dram_lines_total", &[("kind", kind)], v);
        }
        add("amem_sim_dram_dma_bytes_total", &[], d.dma_bytes);
        add("amem_sim_dram_busy_cycles_total", &[], d.busy_cycles);
        add("amem_sim_wall_cycles_total", &[], report.wall_cycles);
    }
    add("amem_sim_runs_total", &[], 1);
    if let Some(t) = &report.telemetry {
        let qh = reg.histogram("amem_sim_dram_queue_delay_cycles", &[]);
        t.dram_queue_delay.iter().for_each(|h| qh.merge(h));
        let dh = reg.histogram("amem_sim_demand_latency_cycles", &[]);
        t.demand_latency.iter().for_each(|h| dh.merge(h));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = HistogramSnapshot::default();
        for v in [0, 1, 2, 3, 1024] {
            h.record(v);
        }
        assert_eq!(h.buckets[0], 1); // the zero
        assert_eq!(h.buckets[1], 1); // [1,2)
        assert_eq!(h.buckets[2], 2); // [2,4)
        assert_eq!(h.buckets[11], 1); // [1024,2048)
        assert_eq!(h.buckets.len(), 12, "no bucket past the largest sample");
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1030);
        assert_eq!(h.max, 1024);
    }

    /// Fold per-socket histograms into a registry histogram the way
    /// [`publish_run_metrics`] does.
    fn fold(hists: &[HistogramSnapshot]) -> HistogramSnapshot {
        let reg = amem_metrics::Registry::new();
        let h = reg.histogram("h", &[]);
        hists.iter().for_each(|s| h.merge(s));
        reg.snapshot().histogram("h", &[]).cloned().unwrap()
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = HistogramSnapshot::default();
        let mut b = HistogramSnapshot::default();
        a.record(5);
        b.record(7);
        b.record(100);
        let m = fold(&[a, b, HistogramSnapshot::default()]);
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 112);
        assert_eq!(m.max, 100);
        assert_eq!(m.buckets[3], 2, "5 and 7 share [4,8)");
    }

    #[test]
    fn histogram_sum_saturates_instead_of_overflowing() {
        let mut a = HistogramSnapshot::default();
        a.record(u64::MAX);
        a.record(u64::MAX); // would overflow-panic with plain +=
        assert_eq!(a.sum, u64::MAX);
        let mut b = HistogramSnapshot::default();
        b.record(u64::MAX);
        let m = fold(&[a, b]);
        assert_eq!(m.sum, u64::MAX);
        assert_eq!(m.count, 3);
    }

    #[test]
    fn histogram_merge_saturates_at_u64_max_boundaries() {
        // A histogram whose counts sit exactly at the u64::MAX boundary:
        // folding more must pin at MAX, not wrap past it.
        let a = HistogramSnapshot {
            count: u64::MAX - 1,
            sum: u64::MAX - 1,
            max: 0,
            buckets: vec![0, 0, 0, u64::MAX - 1],
        };
        let b = HistogramSnapshot {
            count: 2, // crosses the boundary: MAX-1 + 2 > MAX
            sum: 2,
            max: 9,
            buckets: vec![0, 0, 0, 2],
        };
        let m = fold(&[a, b.clone(), b]);
        assert_eq!(m.buckets[3], u64::MAX);
        assert_eq!(m.count, u64::MAX);
        assert_eq!(m.sum, u64::MAX);
        assert_eq!(m.max, 9);
        // And record() at the boundary saturates count bookkeeping too.
        let mut c = HistogramSnapshot {
            count: u64::MAX,
            buckets: vec![u64::MAX],
            ..Default::default()
        };
        c.record(0);
        assert_eq!(c.buckets[0], u64::MAX);
        assert_eq!(c.count, u64::MAX);
    }

    #[test]
    fn a_telemetry_entry_with_the_old_histogram_shape_fails_to_read() {
        // `{counts, total, sum, max}` was the histogram shape before
        // `HistogramSnapshot`; such an entry must fail to parse (and be
        // recomputed), not read as empty histograms.
        let old = r#"{"sample_interval":10,"samples":[],"events":[],"dropped_events":0,
            "dram_queue_delay":[{"counts":[0,1],"total":1,"sum":1,"max":1}],
            "demand_latency":[]}"#;
        assert!(serde_json::from_str::<Telemetry>(old).is_err());
        let new = old.replace(
            r#""counts":[0,1],"total":1"#,
            r#""count":1,"buckets":[0,1]"#,
        );
        let t: Telemetry = serde_json::from_str(&new).unwrap();
        assert_eq!(t.dram_queue_delay[0].buckets, [0, 1]);
    }

    #[test]
    fn sampler_slices_partition_the_timeline() {
        let mut s = Sampler::new(100, 1, 64, 2.6);
        let mut c = CoreCounters {
            loads: 10,
            dram_demand_lines: 4,
            ..Default::default()
        };
        assert!(s.due(0, 120));
        s.sample(0, 120, &c);
        c.loads = 25;
        c.dram_demand_lines = 9;
        assert!(!s.due(0, 150));
        assert!(s.due(0, 210));
        s.sample(0, 210, &c);
        c.loads = 30;
        c.dram_demand_lines = 11;
        s.finalize(0, 250, &c);
        let samples = s.into_samples();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].start_cycle, 0);
        assert_eq!(samples[0].end_cycle, 120);
        assert_eq!(samples[1].start_cycle, 120);
        assert_eq!(samples[2].end_cycle, 250);
        let loads: u64 = samples.iter().map(|s| s.delta.loads).sum();
        assert_eq!(loads, 30);
        let bytes: u64 = samples.iter().map(|s| s.dram_bytes).sum();
        assert_eq!(bytes, 11 * 64);
    }

    #[test]
    fn finalize_without_progress_emits_nothing() {
        let mut s = Sampler::new(100, 2, 64, 2.6);
        let c = CoreCounters::default();
        s.finalize(1, 0, &c);
        assert!(s.into_samples().is_empty());
    }

    #[test]
    fn ring_drops_oldest() {
        let mut r = EventRing::new(2);
        r.push(SpanEvent::instant("a", 0, 1));
        r.push(SpanEvent::instant("b", 0, 2));
        r.push(SpanEvent::instant("c", 0, 3));
        assert_eq!(r.dropped(), 1);
        let (evs, dropped) = r.into_parts();
        assert_eq!(dropped, 1);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "b");
        assert_eq!(evs[1].name, "c");
    }

    #[test]
    fn jsonl_one_line_per_sample() {
        let mut s = Sampler::new(10, 1, 64, 2.6);
        let mut c = CoreCounters {
            loads: 1,
            ..Default::default()
        };
        s.sample(0, 10, &c);
        c.loads = 2;
        s.sample(0, 20, &c);
        let t = Telemetry {
            sample_interval: 10,
            samples: s.into_samples(),
            ..Default::default()
        };
        let jsonl = t.samples_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            let v: Value = serde_json::from_str(line).unwrap();
            assert!(v.get("core").is_some());
            assert!(v.get("delta").is_some());
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_phases() {
        let mut t = Telemetry::default();
        t.events.push(SpanEvent::span("phase", 0, 0, 500));
        t.events.push(SpanEvent::instant("mark", 1, 250));
        let mut s = Sampler::new(100, 2, 64, 2.6);
        let c = CoreCounters {
            dram_demand_lines: 3,
            ..Default::default()
        };
        s.sample(0, 100, &c);
        t.samples = s.into_samples();
        let text = t.chrome_trace(2.6);
        let v: Value = serde_json::from_str(&text).unwrap();
        let events = v.get("traceEvents").unwrap();
        let phases: Vec<&str> = (0..3)
            .map(|i| events.idx(i).unwrap().get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phases, ["X", "i", "C"]);
        // The span's duration: 500 cycles at 2.6 GHz = 500/2600 us.
        let dur = events.idx(0).unwrap().get("dur").unwrap().as_f64().unwrap();
        assert!((dur - 500.0 / 2600.0).abs() < 1e-12);
    }
}
