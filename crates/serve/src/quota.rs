//! Per-tenant token-bucket admission.
//!
//! Each tenant owns a bucket holding up to `burst` tokens, refilled at
//! `rate_per_sec`. Dispatching one job costs one token; a tenant with an
//! empty bucket is *deferred* — its jobs stay queued (in order) while
//! other tenants' work proceeds, so a chatty client cannot starve the
//! fleet. Time is passed in as `f64` seconds so tests drive a manual
//! clock deterministically.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Refill rate and burst capacity applied to every tenant.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct QuotaConfig {
    /// Tokens per second. Zero or negative disables quotas (always admit).
    pub rate_per_sec: f64,
    /// Bucket capacity (maximum burst).
    pub burst: f64,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        // Generous: enough that single-host test fleets never throttle
        // unless a test asks for it.
        Self {
            rate_per_sec: 200.0,
            burst: 400.0,
        }
    }
}

impl QuotaConfig {
    /// No throttling at all.
    pub fn unlimited() -> Self {
        Self {
            rate_per_sec: 0.0,
            burst: 0.0,
        }
    }

    fn enabled(&self) -> bool {
        self.rate_per_sec > 0.0
    }
}

#[derive(Debug)]
struct TokenBucket {
    tokens: f64,
    last_secs: f64,
}

impl TokenBucket {
    fn new(cfg: &QuotaConfig, now_secs: f64) -> Self {
        Self {
            tokens: cfg.burst,
            last_secs: now_secs,
        }
    }

    /// When the bucket next holds a whole token, on the quota clock:
    /// `None` if it never will (a burst below one token).
    fn ready_at(&self, cfg: &QuotaConfig) -> Option<f64> {
        if cfg.burst < 1.0 {
            return None;
        }
        Some(self.last_secs + (1.0 - self.tokens).max(0.0) / cfg.rate_per_sec)
    }

    /// Refill for elapsed time, then try to spend one token.
    fn try_take(&mut self, cfg: &QuotaConfig, now_secs: f64) -> bool {
        let dt = (now_secs - self.last_secs).max(0.0);
        self.tokens = (self.tokens + dt * cfg.rate_per_sec).min(cfg.burst);
        self.last_secs = now_secs;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// All tenants' buckets. Poison-tolerant: a panicking worker thread must
/// never wedge admission for everyone else.
pub struct TenantQuotas {
    cfg: QuotaConfig,
    epoch: Instant,
    buckets: Mutex<HashMap<String, TokenBucket>>,
}

impl TenantQuotas {
    pub fn new(cfg: QuotaConfig) -> Self {
        Self {
            cfg,
            epoch: Instant::now(),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Wall-clock seconds since the quota epoch.
    pub fn now_secs(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Admit one job for `tenant` at the current time.
    pub fn admit(&self, tenant: &str) -> bool {
        self.admit_at(tenant, self.now_secs())
    }

    /// Admit one job for `tenant` at an explicit clock (tests).
    pub fn admit_at(&self, tenant: &str, now_secs: f64) -> bool {
        if !self.cfg.enabled() {
            return true;
        }
        let mut buckets = self.buckets.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(bucket) = buckets.get_mut(tenant) {
            return bucket.try_take(&self.cfg, now_secs);
        }
        let mut bucket = TokenBucket::new(&self.cfg, now_secs);
        let admitted = bucket.try_take(&self.cfg, now_secs);
        buckets.insert(tenant.to_string(), bucket);
        admitted
    }

    /// The instant, on the [`now_secs`] clock, from which `tenant` can be
    /// admitted again, if no one spends its tokens first. `None`: never
    /// (quotas are off, so it is never refused, or the burst is below
    /// one token). A tenant without a bucket yet is admissible now.
    ///
    /// [`now_secs`]: TenantQuotas::now_secs
    pub(crate) fn ready_at(&self, tenant: &str) -> Option<f64> {
        if !self.cfg.enabled() {
            return None;
        }
        let buckets = self.buckets.lock().unwrap_or_else(|p| p.into_inner());
        match buckets.get(tenant) {
            Some(bucket) => bucket.ready_at(&self.cfg),
            None => (self.cfg.burst >= 1.0).then_some(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quotas(rate: f64, burst: f64) -> TenantQuotas {
        TenantQuotas::new(QuotaConfig {
            rate_per_sec: rate,
            burst,
        })
    }

    #[test]
    fn burst_then_refill() {
        let q = quotas(1.0, 2.0);
        // Full bucket: two immediate admissions, then empty.
        assert!(q.admit_at("a", 0.0));
        assert!(q.admit_at("a", 0.0));
        assert!(!q.admit_at("a", 0.0));
        // Half a token after 0.5s is still not one token.
        assert!(!q.admit_at("a", 0.5));
        // 1 token/s refills past one by t=1.6 (0.5 + 1.1 elapsed).
        assert!(q.admit_at("a", 1.6));
        assert!(!q.admit_at("a", 1.6));
    }

    #[test]
    fn tenants_are_isolated() {
        let q = quotas(1.0, 1.0);
        assert!(q.admit_at("a", 0.0));
        assert!(!q.admit_at("a", 0.0), "a exhausted its bucket");
        assert!(q.admit_at("b", 0.0), "b is unaffected by a's burst");
    }

    #[test]
    fn refill_caps_at_burst() {
        let q = quotas(100.0, 2.0);
        assert!(q.admit_at("a", 0.0));
        assert!(q.admit_at("a", 0.0));
        // A long idle period refills to burst (2), not rate × dt (100k).
        for _ in 0..2 {
            assert!(q.admit_at("a", 1000.0));
        }
        assert!(!q.admit_at("a", 1000.0));
    }

    #[test]
    fn ready_at_is_when_the_refill_makes_a_whole_token() {
        let q = quotas(4.0, 2.0);
        assert_eq!(q.ready_at("a"), Some(0.0), "no bucket yet: admissible now");
        assert!(q.admit_at("a", 10.0));
        assert!(q.admit_at("a", 10.0));
        // Empty at t = 10; 4 tokens/s make one by t = 10.25.
        assert_eq!(q.ready_at("a"), Some(10.25));
        assert!(!q.admit_at("a", 10.125), "half a token");
        assert_eq!(q.ready_at("a"), Some(10.25), "the failed try moves nothing");
        assert!(q.admit_at("a", 10.25));
        // Refilled to its burst of 2 by t = 11, it spends one and keeps
        // one: ready from its last use.
        assert!(!q.admit_at("a", 10.25));
        assert!(q.admit_at("a", 11.0));
        assert_eq!(q.ready_at("a"), Some(11.0), "a token left over");

        assert_eq!(quotas(4.0, 0.5).ready_at("a"), None, "never a whole token");
        assert_eq!(
            TenantQuotas::new(QuotaConfig::unlimited()).ready_at("a"),
            None
        );
    }

    #[test]
    fn zero_rate_disables_quotas() {
        let q = TenantQuotas::new(QuotaConfig::unlimited());
        for _ in 0..10_000 {
            assert!(q.admit_at("a", 0.0));
        }
    }

    #[test]
    fn poisoned_bucket_map_recovers() {
        let q = std::sync::Arc::new(quotas(1.0, 1.0));
        assert!(q.admit_at("a", 0.0));
        let q2 = std::sync::Arc::clone(&q);
        // Poison the mutex by panicking while holding it.
        let _ = std::thread::spawn(move || {
            let _guard = q2.buckets.lock().unwrap();
            panic!("poison");
        })
        .join();
        // Admission still works: the poison is shrugged off.
        assert!(q.admit_at("b", 0.0));
    }
}
