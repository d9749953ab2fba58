//! The metric primitives and the label-aware registry.
//!
//! Three metric kinds, all mutated with plain atomics once resolved:
//!
//! * [`Counter`] — monotonic `u64` in one atomic cell. `add` saturates
//!   at `u64::MAX` instead of wrapping.
//! * [`Gauge`] — a point-in-time `i64`.
//! * [`Histogram`] — power-of-two buckets ([`bucket_index`]): bucket 0
//!   holds zeros, bucket `i >= 1` holds `[2^(i-1), 2^i)`, 65 buckets cover
//!   all of `u64`. The running `sum` saturates instead of wrapping. Its
//!   plain-value twin [`HistogramSnapshot`] is also what the simulator
//!   records into during a run, so there is one bucket law.
//!
//! Series are keyed by metric name plus *sorted* `(key, value)` label pairs,
//! so `[("a","1"),("b","2")]` and `[("b","2"),("a","1")]` resolve to the
//! same series. Per name, at most `series_cap` distinct label sets are kept;
//! further label sets collapse into one `overflow="true"` series so a
//! runaway label (say, a per-point id) cannot grow memory without bound
//! while per-name totals stay correct.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use serde::{Deserialize, Serialize};

/// Bucket count: zeros + one bucket per power-of-two up to `2^64`.
pub const HIST_BUCKETS: usize = 65;

/// Default per-name cap on distinct label sets.
pub const DEFAULT_SERIES_CAP: usize = 256;

/// Label key/value marking the collapsed past-the-cap series.
pub const OVERFLOW_LABEL: (&str, &str) = ("overflow", "true");

/// CAS loop because `fetch_add` wraps: a saturated sum must stay pinned at
/// `u64::MAX`, not roll over.
fn saturating_fetch_add(cell: &AtomicU64, v: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(v);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Monotonic counter: one atomic cell, saturating at `u64::MAX`.
pub struct Counter(AtomicU64);

impl Counter {
    fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    #[inline]
    pub fn add(&self, v: u64) {
        saturating_fetch_add(&self.0, v);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Point-in-time value.
pub struct Gauge(AtomicI64);

impl Gauge {
    fn new() -> Self {
        Self(AtomicI64::new(0))
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, v: i64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Which power-of-two bucket holds `v`: the one bucket law (0 for zero,
/// the bit length of `v` otherwise).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Upper inclusive bound of bucket `i`: `2^i - 1` (0 for the zeros bucket).
pub fn bucket_upper_bound(i: usize) -> u64 {
    ((1u128 << i) - 1) as u64
}

/// Exponential-bucket histogram of `u64` samples (cycle counts,
/// nanoseconds, queue depths — anything non-negative).
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        saturating_fetch_add(&self.sum, v);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Fold in a histogram recorded off-registry (the simulator's
    /// per-socket histograms): per-bucket counts and `sum` add, saturating,
    /// and `max` takes the max.
    pub fn merge(&self, h: &HistogramSnapshot) {
        let mut total = 0u64;
        for (bucket, &c) in self.buckets.iter().zip(&h.buckets) {
            if c > 0 {
                saturating_fetch_add(bucket, c);
                total = total.saturating_add(c);
            }
        }
        if total > 0 {
            saturating_fetch_add(&self.count, total);
            saturating_fetch_add(&self.sum, h.sum);
            self.max.fetch_max(h.max, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> Kind {
        match self {
            Metric::Counter(_) => Kind::Counter,
            Metric::Gauge(_) => Kind::Gauge,
            Metric::Histogram(_) => Kind::Histogram,
        }
    }
}

struct Family {
    kind: Kind,
    series: BTreeMap<Vec<(String, String)>, Metric>,
}

/// The registry: metric families keyed by name, series keyed by sorted
/// labels. Mutation of resolved series is lock-free; resolution itself
/// takes a read lock (write lock only the first time a series is seen).
pub struct Registry {
    families: RwLock<BTreeMap<String, Family>>,
    series_cap: usize,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

fn canonical_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = labels
        .iter()
        .map(|(k, val)| (k.to_string(), val.to_string()))
        .collect();
    v.sort();
    v
}

impl Registry {
    pub fn new() -> Self {
        Self::with_series_cap(DEFAULT_SERIES_CAP)
    }

    pub fn with_series_cap(series_cap: usize) -> Self {
        assert!(series_cap >= 1, "series cap must admit at least one series");
        Self {
            families: RwLock::new(BTreeMap::new()),
            series_cap,
        }
    }

    fn resolve(&self, name: &str, labels: &[(&str, &str)], kind: Kind) -> Metric {
        let key = canonical_labels(labels);
        {
            let fams = self.families.read().expect("metrics registry poisoned");
            if let Some(f) = fams.get(name) {
                assert_eq!(
                    f.kind,
                    kind,
                    "metric {name:?} resolved as {} but registered as {}",
                    kind.as_str(),
                    f.kind.as_str()
                );
                if let Some(m) = f.series.get(&key) {
                    return m.clone();
                }
            }
        }
        let mut fams = self.families.write().expect("metrics registry poisoned");
        let f = fams.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            series: BTreeMap::new(),
        });
        assert_eq!(
            f.kind,
            kind,
            "metric {name:?} resolved as {} but registered as {}",
            kind.as_str(),
            f.kind.as_str()
        );
        // Past the cap, unseen label sets share one overflow series so the
        // family's total stays right while its memory stays bounded.
        let key = if f.series.len() >= self.series_cap && !f.series.contains_key(&key) {
            canonical_labels(&[OVERFLOW_LABEL])
        } else {
            key
        };
        f.series
            .entry(key)
            .or_insert_with(|| match kind {
                Kind::Counter => Metric::Counter(Arc::new(Counter::new())),
                Kind::Gauge => Metric::Gauge(Arc::new(Gauge::new())),
                Kind::Histogram => Metric::Histogram(Arc::new(Histogram::new())),
            })
            .clone()
    }

    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.resolve(name, labels, Kind::Counter) {
            Metric::Counter(c) => c,
            _ => unreachable!("resolve enforces kind"),
        }
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.resolve(name, labels, Kind::Gauge) {
            Metric::Gauge(g) => g,
            _ => unreachable!("resolve enforces kind"),
        }
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.resolve(name, labels, Kind::Histogram) {
            Metric::Histogram(h) => h,
            _ => unreachable!("resolve enforces kind"),
        }
    }

    /// How many series exist under `name` (testing / cap introspection).
    pub fn series_count(&self, name: &str) -> usize {
        self.families
            .read()
            .expect("metrics registry poisoned")
            .get(name)
            .map(|f| f.series.len())
            .unwrap_or(0)
    }

    /// Deterministically ordered snapshot (by name, then sorted labels).
    pub fn snapshot(&self) -> Snapshot {
        let fams = self.families.read().expect("metrics registry poisoned");
        let mut series = Vec::new();
        for (name, f) in fams.iter() {
            for (labels, m) in f.series.iter() {
                let mut s = SeriesSnapshot {
                    name: name.clone(),
                    labels: labels.clone(),
                    kind: m.kind().as_str().to_string(),
                    counter: None,
                    gauge: None,
                    histogram: None,
                };
                match m {
                    Metric::Counter(c) => s.counter = Some(c.get()),
                    Metric::Gauge(g) => s.gauge = Some(g.get()),
                    Metric::Histogram(h) => s.histogram = Some(h.snapshot()),
                }
                series.push(s);
            }
        }
        Snapshot { series }
    }

    /// Drop all families. Outstanding handles keep working but are no
    /// longer exported.
    pub fn reset(&self) {
        self.families
            .write()
            .expect("metrics registry poisoned")
            .clear();
    }
}

/// A histogram as plain values: a point-in-time copy of a registry
/// [`Histogram`], or one recorded directly with [`HistogramSnapshot::record`].
/// `buckets[i]` follows [`bucket_index`]; trailing zero buckets are absent.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Record one sample. Every field saturates, so a run that records
    /// `u64`-scale values degrades its stats instead of wrapping.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = bucket_index(v);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] = self.buckets[b].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    fn merge(&mut self, o: &HistogramSnapshot) {
        if self.buckets.len() < o.buckets.len() {
            self.buckets.resize(o.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(o.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(o.count);
        self.sum = self.sum.saturating_add(o.sum);
        self.max = self.max.max(o.max);
    }
}

/// One exported series: exactly one of `counter` / `gauge` / `histogram`
/// is populated, matching `kind`. Options rather than an enum payload keep
/// the serialized shape additive-friendly for the manifest schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesSnapshot {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub kind: String,
    pub counter: Option<u64>,
    pub gauge: Option<i64>,
    pub histogram: Option<HistogramSnapshot>,
}

/// A full registry snapshot: deterministically ordered, serializable,
/// mergeable across runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    pub series: Vec<SeriesSnapshot>,
}

impl Snapshot {
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SeriesSnapshot> {
        let key = canonical_labels(labels);
        self.series
            .iter()
            .find(|s| s.name == name && s.labels == key)
    }

    /// Value of one counter series, if present.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.find(name, labels).and_then(|s| s.counter)
    }

    /// Sum of a counter family across all its label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.series
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.counter)
            .fold(0u64, |a, v| a.saturating_add(v))
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        self.find(name, labels).and_then(|s| s.gauge)
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        self.find(name, labels).and_then(|s| s.histogram.as_ref())
    }

    /// Merge another snapshot into this one: counters and histogram moments
    /// add (saturating), gauges keep the max (a merged queue-depth gauge
    /// reads as the suite's high-water mark), unseen series are adopted.
    pub fn merge(&mut self, other: &Snapshot) {
        for o in &other.series {
            match self
                .series
                .iter_mut()
                .find(|s| s.name == o.name && s.labels == o.labels && s.kind == o.kind)
            {
                Some(s) => {
                    if let (Some(a), Some(b)) = (s.counter, o.counter) {
                        s.counter = Some(a.saturating_add(b));
                    }
                    if let (Some(a), Some(b)) = (s.gauge, o.gauge) {
                        s.gauge = Some(a.max(b));
                    }
                    if let (Some(a), Some(b)) = (s.histogram.as_mut(), o.histogram.as_ref()) {
                        a.merge(b);
                    }
                }
                None => self.series.push(o.clone()),
            }
        }
        self.series
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_exactly() {
        let r = Registry::new();
        let c = r.counter("c_total", &[]);
        for _ in 0..1000 {
            c.inc();
        }
        c.add(24);
        assert_eq!(c.get(), 1024);
        assert_eq!(r.snapshot().counter("c_total", &[]), Some(1024));
    }

    #[test]
    fn counter_add_saturates_instead_of_wrapping() {
        let r = Registry::new();
        let c = r.counter("c_total", &[]);
        c.add(u64::MAX);
        c.add(1);
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(r.snapshot().counter("c_total", &[]), Some(u64::MAX));
    }

    #[test]
    fn labels_are_order_insensitive() {
        let r = Registry::new();
        r.counter("x", &[("a", "1"), ("b", "2")]).inc();
        r.counter("x", &[("b", "2"), ("a", "1")]).inc();
        assert_eq!(r.series_count("x"), 1);
        assert_eq!(
            r.snapshot().counter("x", &[("a", "1"), ("b", "2")]),
            Some(2)
        );
    }

    #[test]
    fn gauge_set_add() {
        let r = Registry::new();
        let g = r.gauge("depth", &[]);
        g.set(7);
        g.dec();
        g.add(-2);
        assert_eq!(g.get(), 4);
        assert_eq!(r.snapshot().gauge("depth", &[]), Some(4));
    }

    #[test]
    fn histogram_bucket_law_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_sum_saturates() {
        let r = Registry::new();
        let h = r.histogram("h", &[]);
        h.record(u64::MAX);
        h.record(u64::MAX);
        let s = r.snapshot();
        let hs = s.histogram("h", &[]).unwrap();
        assert_eq!(hs.sum, u64::MAX);
        assert_eq!(hs.count, 2);
        assert_eq!(hs.max, u64::MAX);
        assert_eq!(hs.buckets.len(), HIST_BUCKETS);
        assert_eq!(hs.buckets[64], 2);
    }

    #[test]
    fn snapshot_trims_trailing_zero_buckets() {
        let r = Registry::new();
        r.histogram("h", &[]).record(5); // bucket 3
        let s = r.snapshot();
        assert_eq!(s.histogram("h", &[]).unwrap().buckets, vec![0, 0, 0, 1]);
    }

    #[test]
    fn series_cap_collapses_into_overflow() {
        let r = Registry::with_series_cap(4);
        for i in 0..10 {
            r.counter("capped", &[("id", &i.to_string())]).inc();
        }
        // 4 real series + 1 overflow.
        assert_eq!(r.series_count("capped"), 5);
        let s = r.snapshot();
        assert_eq!(s.counter("capped", &[OVERFLOW_LABEL]), Some(6));
        assert_eq!(s.counter_total("capped"), 10);
        // An already-admitted series keeps resolving to itself.
        r.counter("capped", &[("id", "0")]).inc();
        assert_eq!(r.snapshot().counter("capped", &[("id", "0")]), Some(2));
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("same_name", &[]).inc();
        let _ = r.gauge("same_name", &[]);
    }

    #[test]
    fn merge_adds_counters_and_adopts_unseen() {
        let ra = Registry::new();
        ra.counter("c", &[("k", "a")]).add(3);
        ra.gauge("g", &[]).set(5);
        ra.histogram("h", &[]).record(8);
        let rb = Registry::new();
        rb.counter("c", &[("k", "a")]).add(4);
        rb.counter("c", &[("k", "b")]).add(1);
        rb.gauge("g", &[]).set(2);
        rb.histogram("h", &[]).record(16);
        let mut a = ra.snapshot();
        a.merge(&rb.snapshot());
        assert_eq!(a.counter("c", &[("k", "a")]), Some(7));
        assert_eq!(a.counter("c", &[("k", "b")]), Some(1));
        assert_eq!(a.gauge("g", &[]), Some(5)); // max
        let h = a.histogram("h", &[]).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 24);
    }

    #[test]
    fn merge_saturates_counters_and_histograms() {
        let ra = Registry::new();
        ra.counter("c", &[]).add(u64::MAX);
        ra.histogram("h", &[]).record(u64::MAX);
        let rb = Registry::new();
        rb.counter("c", &[]).add(2);
        rb.histogram("h", &[]).record(u64::MAX);
        let mut a = ra.snapshot();
        a.merge(&rb.snapshot());
        assert_eq!(a.counter("c", &[]), Some(u64::MAX));
        assert_eq!(a.histogram("h", &[]).unwrap().sum, u64::MAX);
    }

    #[test]
    fn snapshot_roundtrips_through_serde() {
        let r = Registry::new();
        r.counter("c", &[("k", "v")]).add(9);
        r.gauge("g", &[]).set(-3);
        r.histogram("h", &[]).record(100);
        let snap = r.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn reset_clears_export() {
        let r = Registry::new();
        r.counter("c", &[]).inc();
        r.reset();
        assert!(r.snapshot().is_empty());
    }
}
