//! In-memory spans around the harness's calls into each layer.
//!
//! A span is (name, start, end, parent id, request id). Spans are opened
//! by the benchmark's own code only — around `run_sweeps`, each
//! `Executor::run`/`run_curve`, each `Client::request`, daemon start and
//! drain, and each per-layer row — never from inside the measured crates.
//! They stay in memory until the run ends and are then written as Chrome
//! trace-event JSON. With the tracer disabled `Recorder::span` is one
//! branch and a call, so traced and untraced runs execute the same
//! harness code; the difference in round time between them is the
//! tracing overhead the traced run reports.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde_json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Identifier shared by every span of one request (0 = none).
    pub request: u64,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Owner of a run's spans. Threads record through their own [`Recorder`]
/// and hand their spans over when it drops, so the hot path takes no lock.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recorder for the calling thread with no enclosing span.
    pub fn recorder(&self, thread: u32) -> Recorder<'_> {
        Recorder {
            tracer: self,
            thread,
            root: None,
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, ordered by id (= order of opening).
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// One thread's view of the tracer.
pub struct Recorder<'t> {
    tracer: &'t Tracer,
    thread: u32,
    /// Parent of this recorder's outermost spans (a span open on the
    /// thread that created it).
    root: Option<u32>,
    open: Vec<u32>,
    done: Vec<Span>,
}

impl<'t> Recorder<'t> {
    /// A recorder for another thread whose spans are children of the
    /// span currently open here.
    pub fn fork(&self, thread: u32) -> Recorder<'t> {
        Recorder {
            tracer: self.tracer,
            thread,
            root: self.open.last().copied().or(self.root),
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Run `f` inside a span. Spans opened by `f` through the recorder it
    /// is handed become children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.tracer.enabled {
            return f(self);
        }
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.open.last().copied().or(self.root);
        let start_ns = self.tracer.now_ns();
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.done.push(Span {
            id,
            parent,
            name,
            request,
            thread: self.thread,
            start_ns,
            end_ns: self.tracer.now_ns(),
        });
        out
    }
}

impl Drop for Recorder<'_> {
    fn drop(&mut self) {
        if self.done.is_empty() {
            return;
        }
        // A poisoned store only loses trace output; never panic in drop.
        if let Ok(mut all) = self.tracer.spans.lock() {
            all.append(&mut self.done);
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap one another
/// (client threads under one round), so the covered part is the length
/// of the union of their intervals, clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, largest first: where a traced run's
/// time went, by layer boundary.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, usize)> {
    let mut by_name: std::collections::BTreeMap<&'static str, (u64, usize)> = Default::default();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let e = by_name.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    let mut rows: Vec<_> = by_name.into_iter().map(|(n, (t, c))| (n, t, c)).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    rows
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, times in microseconds.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let us = |ns: u64| Value::F64(ns as f64 / 1e3);
    let events = spans
        .iter()
        .zip(self_times_ns(spans))
        .map(|(s, own)| {
            Value::Object(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), us(s.start_ns)),
                ("dur".into(), us(s.end_ns - s.start_ns)),
                ("pid".into(), Value::U64(1)),
                ("tid".into(), Value::U64(s.thread.into())),
                (
                    "args".into(),
                    Value::Object(vec![
                        ("id".into(), Value::U64(s.id.into())),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::U64(p.into())),
                        ),
                        ("request".into(), Value::U64(s.request)),
                        ("self_us".into(), us(own)),
                    ]),
                ),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("displayTimeUnit".into(), Value::Str("ms".into())),
        ("traceEvents".into(), Value::Array(events)),
    ]);
    serde_json::to_string(&doc).expect("a Value tree always serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            request: 0,
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // parent 0..100, child 10..60, grandchild 20..30: the grandchild
        // is the child's business, not the parent's.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(1), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_by_their_union() {
        // Two client threads under one round: 10..50 and 30..80 cover
        // 10..80 = 70, not 40 + 50 = 90.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 80),
            span(3, Some(0), 35, 45),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn self_time_clips_children_to_the_parent_and_never_underflows() {
        let spans = [span(0, None, 10, 20), span(1, Some(0), 0, 100)];
        assert_eq!(self_times_ns(&spans), vec![0, 100]);
    }

    #[test]
    fn recorder_nests_forks_and_skips_when_disabled() {
        let tracer = Tracer::new(true);
        {
            let mut rec = tracer.recorder(0);
            rec.span("round", 0, |rec| {
                rec.span("call", 7, |_| ());
                let mut client = rec.fork(1);
                client.span("request", 8, |_| ());
            });
        }
        let spans = tracer.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("round", None), ("call", Some(0)), ("request", Some(0))]
        );
        assert_eq!(spans[2].thread, 1);
        assert_eq!(spans[1].request, 7);
        let json = chrome_trace_json(&spans);
        let doc: Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 3);

        let off = Tracer::new(false);
        let mut rec = off.recorder(0);
        assert_eq!(rec.span("round", 0, |_| 5), 5);
        drop(rec);
        assert!(off.spans().is_empty());
    }
}
