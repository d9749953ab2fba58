//! Integration tests for §III-D: the interference threads' orthogonality
//! (paper Figs. 7 and 8) on the simulated Xeon20MB.

use active_mem::interfere::{BwThread, BwThreadCfg, CsThread, CsThreadCfg, InterferenceSpec};
use active_mem::sim::prelude::*;

fn machine_cfg() -> MachineConfig {
    MachineConfig::xeon20mb().scaled(0.0625)
}

/// Time a finite BWThr against k CSThrs.
fn bwthr_vs_cs(k: usize) -> (f64, f64) {
    let cfg = machine_cfg();
    let bw = BwThreadCfg {
        iterations: Some(3_000),
        ..BwThreadCfg::for_machine(&cfg)
    };
    let c = InterferenceSpec::storage(k).co_run(&cfg, |m| Box::new(BwThread::new(m, &bw)));
    (cfg.seconds(c.cycles), c.l3_miss_rate())
}

/// Time (ns/round) and miss rate of a finite CSThr against k BWThrs.
fn csthr_vs_bw(k: usize) -> (f64, f64) {
    let cfg = machine_cfg();
    let rounds = 200_000u64;
    let cs = CsThreadCfg {
        rounds: Some(rounds),
        ..CsThreadCfg::for_machine(&cfg)
    };
    let c = InterferenceSpec::bandwidth(k).co_run(&cfg, |m| Box::new(CsThread::new(m, &cs)));
    (
        cfg.seconds(c.cycles) * 1e9 / rounds as f64,
        c.l3_miss_rate(),
    )
}

#[test]
fn fig7_bwthr_unaffected_by_csthrs() {
    let (t0, mr0) = bwthr_vs_cs(0);
    let (t5, mr5) = bwthr_vs_cs(5);
    // The paper: BWThr behaves the same regardless of CSThr count.
    assert!(
        (t5 / t0 - 1.0).abs() < 0.10,
        "BWThr time must stay flat: {t0:.6} -> {t5:.6}"
    );
    assert!(mr0 > 0.95, "BWThr misses ~always: {mr0:.3}");
    assert!(mr5 > 0.95, "still ~always under CSThrs: {mr5:.3}");
}

#[test]
fn fig8_csthr_flat_until_three_bwthrs() {
    let (t0, mr0) = csthr_vs_bw(0);
    let (t2, _) = csthr_vs_bw(2);
    let (t5, mr5) = csthr_vs_bw(5);
    // <= 2 BWThrs: small effect (the paper calls 2 "a small effect").
    assert!(
        t2 / t0 < 1.15,
        "2 BWThrs must barely affect CSThr: {t0:.2} -> {t2:.2} ns/round"
    );
    // 5 BWThrs: significant slowdown and induced misses.
    assert!(
        t5 / t0 > 1.3,
        "5 BWThrs must hurt CSThr: {t0:.2} -> {t5:.2} ns/round"
    );
    assert!(
        mr5 > mr0 * 2.0,
        "BWThr flood must induce CSThr misses: {mr0:.3} -> {mr5:.3}"
    );
}

#[test]
fn csthr_uses_negligible_bandwidth() {
    // The basis-vector property: CSThr's own traffic stays tiny compared
    // to one BWThr's ~2.8 GB/s.
    let cfg = machine_cfg();
    let cs = CsThreadCfg {
        rounds: Some(200_000),
        ..CsThreadCfg::for_machine(&cfg)
    };
    let gbs = InterferenceSpec::none()
        .co_run(&cfg, |m| Box::new(CsThread::new(m, &cs)))
        .bandwidth_gbs(cfg.l3.line_bytes, cfg.freq_ghz);
    assert!(
        gbs < 0.8,
        "CSThr bandwidth must be negligible: {gbs:.2} GB/s"
    );
}

#[test]
fn interference_specs_scale_with_count() {
    // More CSThrs must strictly reduce what a cache-hungry probe gets.
    use active_mem::probes::dist::AccessDist;
    use active_mem::probes::probe::{run_probe, ProbeCfg};
    let cfg = machine_cfg();
    let mr_at = |k: usize| {
        let p = ProbeCfg::for_machine(&cfg, AccessDist::Uniform, 2.0, 1);
        run_probe(&cfg, &p, |mach| {
            if k == 0 {
                return Vec::new();
            }
            let free: Vec<CoreId> = (1..=k as u32).map(|c| CoreId::new(0, c)).collect();
            InterferenceSpec::storage(k).build_jobs(mach, &free)
        })
        .l3_miss_rate
    };
    let m0 = mr_at(0);
    let m2 = mr_at(2);
    let m5 = mr_at(5);
    assert!(m2 > m0, "2 CSThrs must raise the probe's miss rate");
    assert!(m5 > m2, "5 CSThrs must raise it further");
}
