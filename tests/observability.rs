//! Integration tests for the observability subsystem: time-sliced counter
//! sampling, span tracing, and the zero-perturbation guarantee (enabling
//! telemetry must not change a single counter or cycle).

mod common;

use amem_sim::engine::Engine;
use amem_sim::prelude::*;
use amem_sim::stream::ScriptStream;

use common::horizon_script_jobs;

/// A two-phase streaming workload: warm-up, Mark, then `rounds` BSP
/// supersteps of a strided read over `lines` cache lines.
fn walker(base: u64, lines: u64, rounds: u64) -> ScriptStream {
    let mut q = OpQueue::new();
    q.stream_read(base, lines * 64, 64);
    q.push(Op::Mark);
    for _ in 0..rounds {
        q.stream_read(base, lines * 64, 64);
        q.push(Op::Compute(200));
        q.push(Op::Barrier);
    }
    q.push(Op::Done);
    let mut ops = Vec::with_capacity(q.len());
    while let Some(op) = q.pop() {
        ops.push(op);
    }
    ScriptStream::new(ops)
}

fn two_core_jobs(m: &mut Machine) -> Vec<Job> {
    // Working sets far beyond the scaled L3 so DRAM traffic is guaranteed.
    let a = m.alloc(1 << 22);
    let b = m.alloc(1 << 22);
    vec![
        Job::primary(Box::new(walker(a, 1 << 14, 3)), CoreId::new(0, 0)),
        Job::primary(Box::new(walker(b, 1 << 14, 3)), CoreId::new(0, 1)),
    ]
}

fn machine() -> Machine {
    Machine::new(MachineConfig::xeon20mb().scaled(0.0625))
}

#[test]
fn per_slice_bandwidth_series_sums_to_final_counters() {
    let mut m = machine();
    let jobs = two_core_jobs(&mut m);
    let report = m.run(jobs, RunLimit::default().with_sampling(20_000));
    let tel = report.telemetry.as_ref().expect("sampling was enabled");
    assert!(
        !tel.samples.is_empty(),
        "a multi-million-cycle run must sample"
    );

    for (ci, job) in report.jobs.iter().enumerate() {
        let slices: Vec<&Sample> = tel.core_samples(ci as u32);
        assert!(!slices.is_empty(), "core {ci} produced no samples");
        // Slices partition the core's timeline: contiguous, gap-free...
        for w in slices.windows(2) {
            assert_eq!(w[0].end_cycle, w[1].start_cycle, "gap in core {ci} slices");
        }
        assert_eq!(slices[0].start_cycle, 0);
        assert_eq!(slices.last().unwrap().end_cycle, job.counters.cycles);
        // ...and their deltas telescope to the end-of-run totals.
        let dram: u64 = slices.iter().map(|s| s.dram_bytes).sum();
        assert_eq!(dram, job.counters.dram_bytes(64), "core {ci} DRAM bytes");
        let loads: u64 = slices.iter().map(|s| s.delta.loads).sum();
        assert_eq!(loads, job.counters.loads, "core {ci} loads");
        let cycles: u64 = slices.iter().map(|s| s.delta.cycles).sum();
        assert_eq!(cycles, job.counters.cycles, "core {ci} cycles");
        assert!(
            dram > 0,
            "the working set cannot fit: DRAM traffic expected"
        );
    }
}

#[test]
fn chrome_trace_round_trips_through_serde_json() {
    let mut m = machine();
    let jobs = two_core_jobs(&mut m);
    let report = m.run(
        jobs,
        RunLimit::default().with_sampling(50_000).with_tracing(1024),
    );
    let tel = report.telemetry.as_ref().unwrap();
    assert!(tel.events.iter().any(|e| e.name == "phase"));
    assert!(tel.events.iter().any(|e| e.name == "barrier-wait"));
    assert!(tel
        .events
        .iter()
        .any(|e| e.name == "mark" && e.is_instant()));

    let trace = tel.chrome_trace(2.6);
    let v: serde_json::Value = serde_json::from_str(&trace).expect("trace is valid JSON");
    assert_eq!(
        v.get("displayTimeUnit").and_then(|d| d.as_str()),
        Some("ms")
    );
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    // Spans + instants + one counter event per sample.
    assert_eq!(events.len(), tel.events.len() + tel.samples.len());
    for e in events {
        let ph = e.get("ph").and_then(|p| p.as_str()).expect("phase field");
        assert!(matches!(ph, "X" | "i" | "C"), "unexpected phase {ph}");
        assert!(e.get("ts").is_some());
        if ph == "X" {
            assert!(e.get("dur").is_some(), "complete spans carry a duration");
        }
    }

    // The JSONL export emits exactly one parseable object per sample.
    let jsonl = tel.samples_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), tel.samples.len());
    for line in lines {
        let s: serde_json::Value = serde_json::from_str(line).expect("JSONL line parses");
        assert!(s.get("bandwidth_gbs").is_some());
        assert!(s.get("delta").is_some());
    }
}

#[test]
fn telemetry_is_zero_perturbation() {
    // Same jobs, run plain and fully instrumented: the whole event
    // signature — every counter and mark of every job, every socket's
    // traffic, the wall clock — must be identical. Telemetry runs its
    // per-op checks inside the one dispatch loop, so both inputs go
    // through the same code with and without them: the streaming
    // walkers, and the horizon script's barriers, marks, background job
    // and shared-line stores.
    let instrumented = RunLimit::default().with_sampling(10_000).with_tracing(4096);
    let cfg = MachineConfig::xeon20mb().scaled(0.0625);
    let walkers = |limit: &RunLimit| {
        let mut m = machine();
        let jobs = two_core_jobs(&mut m);
        m.run(jobs, limit.clone())
    };
    let script = |limit: &RunLimit| Engine::new(&cfg, horizon_script_jobs()).run(limit);
    for (name, run) in [
        ("walkers", &walkers as &dyn Fn(&RunLimit) -> RunReport),
        ("horizon script", &script),
    ] {
        let plain = run(&RunLimit::default());
        let traced = run(&instrumented);
        assert!(plain.telemetry.is_none());
        let tel = traced.telemetry.as_ref().expect("telemetry was enabled");
        assert!(!tel.samples.is_empty(), "{name}: no samples taken");
        assert!(
            tel.events.iter().any(|e| e.name == "mark"),
            "{name}: no marks traced"
        );
        assert_eq!(
            plain.event_signature(),
            traced.event_signature(),
            "{name}: telemetry perturbed the run"
        );
    }
}
