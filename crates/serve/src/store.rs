//! The shared measurement store: the executor's content-addressed disk
//! cache promoted to a managed, bounded resource.
//!
//! The daemon's shards all point their executors at one directory, so
//! every entry any job persists is visible to every later job on any
//! connection. This module adds what a long-running shared store needs
//! that a per-run cache does not: startup reclamation of crash debris
//! (orphaned `*.tmp.*` scratch files), size- and age-based eviction, and
//! footprint/eviction telemetry through `amem-metrics`.
//!
//! Eviction is safe by construction: executors treat a missing entry as
//! an ordinary miss and re-simulate, so removing a file can never break
//! correctness — only cost one repeat simulation.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

use amem_core::{sweep_stale_tmp, STALE_TMP_AGE};
use serde::{Deserialize, Serialize};

/// Bounds applied by [`CacheStore::evict`]. `None` disables a bound.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct StorePolicy {
    /// Evict oldest-first once the store exceeds this many bytes.
    pub max_bytes: Option<u64>,
    /// Evict entries older than this many seconds.
    pub max_age_secs: Option<u64>,
    /// Age below which an orphaned tmp file is presumed to be a live
    /// writer's (startup sweep threshold). `None` = the library default.
    pub tmp_max_age_secs: Option<u64>,
}

/// Counters one eviction pass (or the lifetime of the store) produces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreUsage {
    pub entries: u64,
    pub bytes: u64,
}

/// The managed store directory.
pub struct CacheStore {
    dir: PathBuf,
    policy: StorePolicy,
    evicted_size: AtomicU64,
    evicted_age: AtomicU64,
    tmp_reclaimed: u64,
}

impl CacheStore {
    /// Open (creating the directory), reclaim stale tmp scratch files,
    /// and run one initial eviction pass.
    pub fn open(dir: impl Into<PathBuf>, policy: StorePolicy) -> Self {
        let dir = dir.into();
        let _ = std::fs::create_dir_all(&dir);
        let tmp_age = policy
            .tmp_max_age_secs
            .map(Duration::from_secs)
            .unwrap_or(STALE_TMP_AGE);
        let tmp_reclaimed = sweep_stale_tmp(&dir, tmp_age) as u64;
        let store = Self {
            dir,
            policy,
            evicted_size: AtomicU64::new(0),
            evicted_age: AtomicU64::new(0),
            tmp_reclaimed,
        };
        store.evict();
        store
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Orphaned tmp files reclaimed at open.
    pub fn tmp_reclaimed(&self) -> u64 {
        self.tmp_reclaimed
    }

    /// Entries evicted so far, `(for size, for age)`.
    pub fn evictions(&self) -> (u64, u64) {
        (
            self.evicted_size.load(Ordering::Relaxed),
            self.evicted_age.load(Ordering::Relaxed),
        )
    }

    /// Whether the policy bounds the store at all: an unbounded one has
    /// nothing for [`CacheStore::evict`] to do but count.
    pub(crate) fn is_bounded(&self) -> bool {
        self.policy.max_bytes.is_some() || self.policy.max_age_secs.is_some()
    }

    /// Scan current footprint (entries and bytes of `*.json` entries),
    /// mirrored into the footprint gauges.
    pub fn usage(&self) -> StoreUsage {
        let mut usage = StoreUsage::default();
        for (_, _, len) in self.entries() {
            usage.entries += 1;
            usage.bytes += len;
        }
        publish(usage)
    }

    /// `(path, mtime, len)` of every cache entry.
    fn entries(&self) -> Vec<(PathBuf, SystemTime, u64)> {
        let Ok(rd) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        rd.flatten()
            .filter_map(|e| {
                let path = e.path();
                if path.extension().is_none_or(|x| x != "json") {
                    return None;
                }
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().ok()?;
                Some((path, mtime, meta.len()))
            })
            .collect()
    }

    /// Apply the policy: age pass first, then oldest-first size pass.
    /// Returns the post-eviction usage and mirrors it into the gauges.
    pub fn evict(&self) -> StoreUsage {
        let now = SystemTime::now();
        let mut entries = self.entries();

        if let Some(max_age) = self.policy.max_age_secs.map(Duration::from_secs) {
            entries.retain(|(path, mtime, _)| {
                let expired = now.duration_since(*mtime).is_ok_and(|age| age >= max_age);
                if expired && std::fs::remove_file(path).is_ok() {
                    self.evicted_age.fetch_add(1, Ordering::Relaxed);
                    self.metric_eviction("age");
                    return false;
                }
                true
            });
        }

        if let Some(max_bytes) = self.policy.max_bytes {
            let mut total: u64 = entries.iter().map(|(_, _, len)| len).sum();
            // Oldest first; tie-break on the name so the order is stable
            // when a burst of writes lands within one mtime granule.
            entries.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
            let mut idx = 0;
            while total > max_bytes && idx < entries.len() {
                let (path, _, len) = &entries[idx];
                if std::fs::remove_file(path).is_ok() {
                    total -= len;
                    self.evicted_size.fetch_add(1, Ordering::Relaxed);
                    self.metric_eviction("size");
                }
                idx += 1;
            }
            entries.drain(..idx);
        }

        publish(StoreUsage {
            entries: entries.len() as u64,
            bytes: entries.iter().map(|(_, _, len)| len).sum(),
        })
    }

    fn metric_eviction(&self, reason: &'static str) {
        if amem_metrics::enabled() {
            amem_metrics::global()
                .counter("amem_store_evictions_total", &[("reason", reason)])
                .inc();
        }
    }
}

/// Mirror a footprint into the `amem_store_{entries,bytes}` gauges.
fn publish(usage: StoreUsage) -> StoreUsage {
    if amem_metrics::enabled() {
        let reg = amem_metrics::global();
        reg.gauge("amem_store_entries", &[])
            .set(usage.entries as i64);
        reg.gauge("amem_store_bytes", &[]).set(usage.bytes as i64);
    }
    usage
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("amem_serve_store_test_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn plant(dir: &Path, name: &str, bytes: usize) {
        std::fs::write(dir.join(name), vec![b'x'; bytes]).unwrap();
    }

    #[test]
    fn size_cap_evicts_oldest_first() {
        let dir = fresh("size");
        // Same mtime granule: the name tie-break makes order deterministic.
        plant(&dir, "a.json", 100);
        plant(&dir, "b.json", 100);
        plant(&dir, "c.json", 100);
        let store = CacheStore::open(
            dir.clone(),
            StorePolicy {
                max_bytes: Some(250),
                ..Default::default()
            },
        );
        let usage = store.usage();
        assert_eq!(usage.entries, 2, "one entry evicted to fit 250 bytes");
        assert_eq!(usage.bytes, 200);
        assert_eq!(store.evictions(), (1, 0));
        assert!(!dir.join("a.json").exists(), "oldest (tie-break: a) went");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn age_cap_expires_entries() {
        let dir = fresh("age");
        plant(&dir, "a.json", 10);
        let store = CacheStore::open(
            dir.clone(),
            StorePolicy {
                max_age_secs: Some(0),
                ..Default::default()
            },
        );
        // max_age 0: anything with a positive age is expired by the
        // open-time eviction pass.
        assert_eq!(store.usage().entries, 0);
        assert_eq!(store.evictions().1, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unbounded_policy_keeps_everything() {
        let dir = fresh("unbounded");
        plant(&dir, "a.json", 10);
        plant(&dir, "b.json", 10);
        let store = CacheStore::open(dir.clone(), StorePolicy::default());
        assert_eq!(store.usage().entries, 2);
        assert_eq!(store.evictions(), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_reclaims_planted_tmp_orphans() {
        let dir = fresh("tmp");
        plant(&dir, "entry.json", 10);
        plant(&dir, "entry.tmp.999.3", 10);
        let store = CacheStore::open(
            dir.clone(),
            StorePolicy {
                tmp_max_age_secs: Some(0),
                ..Default::default()
            },
        );
        assert_eq!(store.tmp_reclaimed(), 1);
        assert!(!dir.join("entry.tmp.999.3").exists());
        assert!(dir.join("entry.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
