#![forbid(unsafe_code)]
//! Serve-vs-library round trip: prove the daemon changes *nothing* about
//! the results while deduplicating work across connections.
//!
//! Phase A — four concurrent clients submit the identical fig1 sweep to
//! an in-process daemon. Asserts: every response is byte-identical to a
//! local library run of the same sweep (same JSON, same fig1 CSV), and
//! the executor simulated each unique point exactly once (the other 18
//! lookups were cache/dedup hits).
//!
//! Phase B — a *library* executor populates a cache directory, then a
//! fresh daemon is pointed at it. The daemon's sweep must be served
//! entirely from disk (0 simulations): daemon and library compute the
//! same content-addressed keys, byte for byte.

use std::sync::Arc;

use amem_bench::Harness;
use amem_core::figures::{fig1_probe, fig1_table, FIG1_MAX_COUNT, FIG1_PER_PROCESSOR};
use amem_core::platform::{ProbeWorkload, SimPlatform};
use amem_core::report::Table;
use amem_core::sweep::run_sweep;
use amem_core::Executor;
use amem_interfere::InterferenceKind;
use amem_serve::protocol::{JobSpec, WorkloadSpec};
use amem_serve::server::{ServeConfig, Server};
use amem_serve::Client;

const CLIENTS: usize = 4;

fn main() {
    let mut h = Harness::new("serve");
    let machine = h.machine();
    let sweep_spec = || JobSpec::Sweep {
        machine: machine.clone(),
        workload: WorkloadSpec::Probe(fig1_probe(&machine)),
        per_processor: FIG1_PER_PROCESSOR,
        kind: InterferenceKind::Storage,
        max_count: FIG1_MAX_COUNT,
    };

    // The library reference: same sweep, straight through an executor.
    let lib_exec = Arc::new(Executor::memory_only(SimPlatform::new(machine.clone())));
    let lib_sweep = run_sweep(
        &lib_exec,
        &ProbeWorkload(fig1_probe(&machine)),
        FIG1_PER_PROCESSOR,
        InterferenceKind::Storage,
        FIG1_MAX_COUNT,
    )
    .expect("library sweep");
    let lib_json = serde_json::to_string(&lib_sweep).expect("serialize library sweep");
    let lib_csv = fig1_table(&machine, &lib_sweep).to_csv();

    // ---- Phase A: concurrent clients, one simulation ------------------
    let server = Server::start(ServeConfig {
        workers: 2,
        shards: 4,
        ..ServeConfig::default()
    })
    .expect("start in-process daemon");
    let addr = server.addr();
    println!("[serve] phase A: {CLIENTS} clients -> {addr}");

    let sweeps: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let spec = sweep_spec();
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    c.tenant = format!("client-{i}");
                    let sweep = c.sweep(spec).expect("served sweep");
                    serde_json::to_string(&sweep).expect("serialize served sweep")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let stats_a = server.stats();
    let mut shutdown_client = Client::connect(addr).expect("connect for shutdown");
    let drained = shutdown_client.shutdown().expect("drain");
    server.wait();

    for (i, json) in sweeps.iter().enumerate() {
        assert_eq!(
            json, &lib_json,
            "client {i}'s sweep differs from the library run"
        );
    }
    // Re-parse a served response the way a remote client would, then
    // render: the CSV a client writes matches the fig1 binary's bytes.
    let served_sweep: amem_core::Sweep =
        serde_json::from_str(&sweeps[0]).expect("parse served sweep");
    let served_csv = fig1_table(&machine, &served_sweep).to_csv();
    assert_eq!(served_csv, lib_csv, "fig1 CSV differs between paths");
    println!("[serve] byte-identity: OK ({CLIENTS} responses == library bytes)");

    let points = (FIG1_MAX_COUNT + 1) as u64; // baseline + each level
    let lookups = stats_a.cache.lookups();
    assert_eq!(
        stats_a.cache.sim_runs, points,
        "every unique point simulates exactly once"
    );
    assert_eq!(
        lookups,
        points * CLIENTS as u64,
        "all clients' points counted"
    );
    assert_eq!(
        stats_a.cache.hits(),
        lookups - points,
        "everything after the first client is a cache/dedup hit"
    );
    assert_eq!(drained, CLIENTS as u64, "drain reports every job");
    println!(
        "[serve] dedup: {} unique sims across {} lookups from {CLIENTS} connections",
        stats_a.cache.sim_runs, lookups
    );

    // ---- Phase B: library-written cache, daemon-read ------------------
    let cache_dir = h.args().out.join("serve_cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let lib_disk = Executor::with_cache_dir(SimPlatform::new(machine.clone()), cache_dir.clone());
    run_sweep(
        &lib_disk,
        &ProbeWorkload(fig1_probe(&machine)),
        FIG1_PER_PROCESSOR,
        InterferenceKind::Storage,
        FIG1_MAX_COUNT,
    )
    .expect("library sweep populating the shared cache");

    let server = Server::start(ServeConfig {
        workers: 1,
        shards: 2,
        cache_dir: Some(cache_dir.clone()),
        ..ServeConfig::default()
    })
    .expect("start cache-sharing daemon");
    let mut c = Client::connect(server.addr()).expect("connect");
    let served = c
        .sweep(sweep_spec())
        .expect("served sweep from shared cache");
    let stats_b = server.stats();
    c.shutdown().expect("drain");
    server.wait();

    assert_eq!(
        serde_json::to_string(&served).expect("serialize"),
        lib_json,
        "cache-served sweep differs from the library run"
    );
    assert_eq!(
        stats_b.cache.sim_runs, 0,
        "daemon re-simulated a point the library already cached — key mismatch"
    );
    assert_eq!(
        stats_b.cache.disk_hits, points,
        "every point came from disk"
    );
    println!(
        "[serve] key-parity: {} disk hits, 0 sims against a library-written cache",
        stats_b.cache.disk_hits
    );
    let _ = std::fs::remove_dir_all(&cache_dir);

    let mut t = Table::new("serve round-trip", &["check", "result"]);
    t.row(vec![
        "byte identity (4 clients vs library)".into(),
        "identical".into(),
    ]);
    t.row(vec![
        "cross-connection dedup".into(),
        format!("{}/{} sims", stats_a.cache.sim_runs, lookups),
    ]);
    t.row(vec![
        "cache-key parity (library-written disk)".into(),
        format!("{}/{points} disk hits, 0 sims", stats_b.cache.disk_hits),
    ]);
    t.row(vec![
        "drain on shutdown".into(),
        format!("{drained} jobs completed"),
    ]);
    h.emit("serve", &t);
    h.finish();
}
