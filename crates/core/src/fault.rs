//! Deterministic fault injection for the measurement run path.
//!
//! [`FaultyPlatform`] wraps any [`Platform`] and — from a seeded,
//! per-request RNG — injects the failure modes a real measurement
//! campaign sees: stalled runs (timeouts), spurious errors, NaN-poisoned
//! statistics, and multiplicative timing noise. `tests/robustness.rs`
//! and the CI robustness-smoke job use it to prove the executor, sweeps,
//! knee detection, and figure binaries degrade gracefully instead of
//! panicking; the harness wires it up from `--fault`.
//!
//! Determinism contract: the injected outcome is a pure function of
//! `(seed, request identity, attempt number)`. The same request always
//! fails the same way on its first attempt, and — when `transient` is
//! set (the default) — re-rolls on each retry, so the retry layer can
//! actually recover. With `transient: false` a doomed request stays
//! doomed, which is how the degraded-sweep paths are exercised.

use std::collections::HashMap;
use std::sync::Mutex;

use amem_interfere::InterferenceMix;
use amem_sim::config::MachineConfig;
use amem_sim::engine::RunLimit;
use amem_sim::fingerprint::fnv1a;
use amem_sim::rng::Xoshiro256;

use crate::error::AmemError;
use crate::platform::{Measurement, Platform, Workload};

/// What to inject, with what probability. Probabilities are evaluated in
/// order — timeout, then error, then (on a successful inner run) NaN —
/// so `timeout_prob + error_prob` should stay well below 1 for anything
/// to get through.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// RNG seed; same seed + same requests = same injected faults.
    pub seed: u64,
    /// Probability a run is reported as [`AmemError::Timeout`].
    pub timeout_prob: f64,
    /// Probability a run fails with [`AmemError::Injected`].
    pub error_prob: f64,
    /// Probability a run panics outright instead of returning. Exercises
    /// the unwind paths: the executor's in-flight guards, and the serve
    /// daemon's poison-tolerant shared state.
    pub panic_prob: f64,
    /// Probability a successful run's `seconds` is poisoned to NaN.
    pub nan_prob: f64,
    /// Relative amplitude of multiplicative timing noise applied to
    /// surviving runs: `seconds *= 1 + noise_rel * u`, `u ∈ [-1, 1)`.
    pub noise_rel: f64,
    /// Whether faults re-roll per attempt (retries can recover) or are
    /// pinned to the request (retries always see the same outcome).
    pub transient: bool,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            seed: 42,
            timeout_prob: 0.0,
            error_prob: 0.0,
            panic_prob: 0.0,
            nan_prob: 0.0,
            noise_rel: 0.0,
            transient: true,
        }
    }
}

impl FaultSpec {
    /// Parse a comma-separated spec, e.g.
    /// `"seed=42,timeout=0.1,error=0.1,nan=0.1,noise=0.03,sticky"`.
    /// Unknown keys are rejected so a typo can't silently disable
    /// injection in CI.
    pub fn parse(s: &str) -> Result<Self, AmemError> {
        let mut spec = Self::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if part == "sticky" {
                spec.transient = false;
                continue;
            }
            let (key, val) = part.split_once('=').ok_or_else(|| {
                AmemError::Unsupported(format!("fault spec '{part}': want key=value"))
            })?;
            let bad =
                |what: &str| AmemError::Unsupported(format!("fault spec {key}={val}: {what}"));
            match key {
                "seed" => spec.seed = val.parse().map_err(|_| bad("not a u64"))?,
                "timeout" | "error" | "panic" | "nan" | "noise" => {
                    let p: f64 = val.parse().map_err(|_| bad("not a number"))?;
                    if !p.is_finite() || p < 0.0 || (key != "noise" && p > 1.0) {
                        return Err(bad("out of range"));
                    }
                    match key {
                        "timeout" => spec.timeout_prob = p,
                        "error" => spec.error_prob = p,
                        "panic" => spec.panic_prob = p,
                        "nan" => spec.nan_prob = p,
                        _ => spec.noise_rel = p,
                    }
                }
                _ => {
                    return Err(AmemError::Unsupported(format!(
                        "fault spec: unknown key '{key}' \
                         (want seed/timeout/error/panic/nan/noise/sticky)"
                    )))
                }
            }
        }
        Ok(spec)
    }

    /// Whether this spec injects anything at all.
    pub fn is_active(&self) -> bool {
        self.timeout_prob > 0.0
            || self.error_prob > 0.0
            || self.panic_prob > 0.0
            || self.nan_prob > 0.0
            || self.noise_rel > 0.0
    }
}

/// A [`Platform`] wrapper that injects [`FaultSpec`]-governed faults.
///
/// Reports itself non-deterministic by default so the executor never
/// caches (or cross-request dedups) injected results; tests that
/// exercise the dedup path can override with
/// [`FaultyPlatform::with_deterministic`].
pub struct FaultyPlatform<P: Platform> {
    inner: P,
    spec: FaultSpec,
    /// Per-request attempt counters, keyed by request fingerprint, so
    /// transient faults re-roll on retry.
    attempts: Mutex<HashMap<u64, u64>>,
    deterministic: bool,
}

impl<P: Platform> FaultyPlatform<P> {
    pub fn new(inner: P, spec: FaultSpec) -> Self {
        Self {
            inner,
            spec,
            attempts: Mutex::new(HashMap::new()),
            deterministic: false,
        }
    }

    /// Claim determinism (test-only escape hatch: lets the executor
    /// cache/dedup through the wrapper).
    pub fn with_deterministic(mut self, yes: bool) -> Self {
        self.deterministic = yes;
        self
    }

    /// The wrapped platform.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn request_sig(workload: &dyn Workload, per_processor: usize, mix: InterferenceMix) -> u64 {
        let identity = workload.cache_key().unwrap_or_else(|| workload.name());
        let tag = format!("{identity}|pp={per_processor}|mix={}", mix.describe());
        fnv1a(tag.as_bytes())
    }
}

impl<P: Platform> Platform for FaultyPlatform<P> {
    fn cfg(&self) -> &MachineConfig {
        self.inner.cfg()
    }

    fn limit(&self) -> &RunLimit {
        self.inner.limit()
    }

    fn run(
        &self,
        workload: &dyn Workload,
        per_processor: usize,
        mix: InterferenceMix,
    ) -> Result<Measurement, AmemError> {
        let sig = Self::request_sig(workload, per_processor, mix);
        let attempt = {
            let mut attempts = self
                .attempts
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            let n = attempts.entry(sig).or_insert(0);
            *n += 1;
            *n
        };
        let salt = if self.spec.transient { attempt } else { 0 };
        let mut rng = Xoshiro256::seed_from_u64(
            self.spec.seed ^ sig ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );

        let roll = rng.next_f64();
        if roll < self.spec.timeout_prob {
            return Err(AmemError::Timeout { limit_ms: 0 });
        }
        if roll < self.spec.timeout_prob + self.spec.error_prob {
            return Err(AmemError::Injected(format!(
                "spurious failure on attempt {attempt} of '{}'",
                workload.name()
            )));
        }
        if roll < self.spec.timeout_prob + self.spec.error_prob + self.spec.panic_prob {
            panic!(
                "injected panic on attempt {attempt} of '{}'",
                workload.name()
            );
        }
        let mut m = self.inner.run(workload, per_processor, mix)?;
        if rng.next_f64() < self.spec.nan_prob {
            m.seconds = f64::NAN;
            return Ok(m);
        }
        if self.spec.noise_rel > 0.0 {
            let u = 2.0 * rng.next_f64() - 1.0;
            m.seconds *= 1.0 + self.spec.noise_rel * u;
        }
        Ok(m)
    }

    fn feasible(
        &self,
        workload: &dyn Workload,
        per_processor: usize,
        threads_per_socket: usize,
    ) -> bool {
        self.inner
            .feasible(workload, per_processor, threads_per_socket)
    }

    fn deterministic(&self) -> bool {
        self.deterministic
    }

    fn cache_salt(&self) -> Option<String> {
        // Forwarded so a salted inner platform (e.g. the conformance
        // reference) keeps its distinct cache identity under injection.
        self.inner.cache_salt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{McbWorkload, SimPlatform};
    use amem_miniapps::McbCfg;

    fn tiny() -> (SimPlatform, McbWorkload) {
        let cfg = MachineConfig::xeon20mb().scaled(0.0625);
        let w = McbWorkload(McbCfg {
            ranks: 4,
            steps: 2,
            ..McbCfg::new(&cfg, 4000)
        });
        (SimPlatform::new(cfg), w)
    }

    #[test]
    fn parse_full_spec() {
        let s = FaultSpec::parse("seed=7, timeout=0.25,error=0.1,nan=0.05,noise=0.03").unwrap();
        assert_eq!(s.seed, 7);
        assert_eq!(s.timeout_prob, 0.25);
        assert_eq!(s.error_prob, 0.1);
        assert_eq!(s.nan_prob, 0.05);
        assert_eq!(s.noise_rel, 0.03);
        assert!(s.transient);
        assert!(s.is_active());
        assert!(!FaultSpec::parse("seed=9").unwrap().is_active());
        assert!(!FaultSpec::parse("sticky").unwrap().transient);
        let p = FaultSpec::parse("panic=0.5").unwrap();
        assert_eq!(p.panic_prob, 0.5);
        assert!(p.is_active());
    }

    #[test]
    fn panic_injection_unwinds_without_wedging_the_wrapper() {
        let (p, w) = tiny();
        let fp = FaultyPlatform::new(p, FaultSpec::parse("seed=2,panic=1.0,sticky").unwrap());
        for _ in 0..2 {
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = fp.run(&w, 2, InterferenceMix::none());
            }));
            let payload = res.expect_err("panic=1.0 must panic");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains("injected panic"), "{msg}");
            // The attempt-counter lock is not held across the unwind, so
            // the second iteration panics again instead of deadlocking on
            // (or crashing over) a poisoned mutex.
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultSpec::parse("bogus=1").is_err());
        assert!(FaultSpec::parse("timeout=1.5").is_err());
        assert!(FaultSpec::parse("timeout=-0.1").is_err());
        assert!(FaultSpec::parse("seed=notanumber").is_err());
        assert!(FaultSpec::parse("timeout").is_err());
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let (p, w) = tiny();
        let spec = FaultSpec::parse("seed=42,timeout=0.3,error=0.3,nan=0.2,noise=0.05").unwrap();
        let run_outcomes = |seed: u64| {
            let fp = FaultyPlatform::new(
                p.clone(),
                FaultSpec {
                    seed,
                    ..spec.clone()
                },
            );
            (0..8)
                .map(|_| match fp.run(&w, 2, InterferenceMix::none()) {
                    Ok(m) => format!("ok:{:.17e}", m.seconds),
                    Err(e) => format!("err:{e}"),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run_outcomes(42), run_outcomes(42), "same seed, same faults");
        assert_ne!(run_outcomes(42), run_outcomes(43), "different seed differs");
    }

    #[test]
    fn transient_faults_reroll_but_sticky_faults_pin() {
        let (p, w) = tiny();
        // A certain first-attempt failure that re-rolls: with timeout=0.5
        // some retry eventually succeeds.
        let fp = FaultyPlatform::new(p.clone(), FaultSpec::parse("seed=1,timeout=0.5").unwrap());
        let outcomes: Vec<bool> = (0..16)
            .map(|_| fp.run(&w, 2, InterferenceMix::none()).is_ok())
            .collect();
        assert!(
            outcomes.iter().any(|&ok| ok),
            "transient faults must pass sometimes"
        );
        assert!(
            outcomes.iter().any(|&ok| !ok),
            "p=0.5 must also fail sometimes"
        );

        // Sticky: every attempt of the same request rolls identically.
        let fp = FaultyPlatform::new(p, FaultSpec::parse("seed=1,timeout=0.5,sticky").unwrap());
        let first = fp.run(&w, 2, InterferenceMix::none()).is_ok();
        for _ in 0..4 {
            assert_eq!(fp.run(&w, 2, InterferenceMix::none()).is_ok(), first);
        }
    }

    #[test]
    fn nan_injection_poisons_seconds_only() {
        let (p, w) = tiny();
        let fp = FaultyPlatform::new(p, FaultSpec::parse("seed=3,nan=1.0").unwrap());
        let m = fp.run(&w, 2, InterferenceMix::none()).unwrap();
        assert!(m.seconds.is_nan());
        assert!(
            m.l3_miss_rate.is_finite(),
            "only the headline stat is poisoned"
        );
    }

    #[test]
    fn noise_perturbs_but_stays_close() {
        let (p, w) = tiny();
        let clean = p.run(&w, 2, InterferenceMix::none()).unwrap().seconds;
        let fp = FaultyPlatform::new(p, FaultSpec::parse("seed=5,noise=0.05").unwrap());
        let noisy = fp.run(&w, 2, InterferenceMix::none()).unwrap().seconds;
        assert!(
            (noisy / clean - 1.0).abs() <= 0.05 + 1e-12,
            "{noisy} vs {clean}"
        );
        assert!(noisy != clean, "noise must actually perturb");
    }

    #[test]
    fn wrapper_is_nondeterministic_by_default() {
        let (p, _) = tiny();
        let fp = FaultyPlatform::new(p, FaultSpec::default());
        assert!(!fp.deterministic(), "injected results must never be cached");
        assert!(fp.inner().deterministic());
        let fp = fp.with_deterministic(true);
        assert!(fp.deterministic());
    }
}
