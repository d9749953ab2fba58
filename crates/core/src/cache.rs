//! One tiered, content-addressed cache: memory → in-flight → disk.
//!
//! [`TieredCache<T>`] is the whole reuse path of the
//! [`Executor`](crate::executor::Executor), written once for every
//! payload it caches. A request for a key is answered by, in order:
//!
//! 1. the **memory map** — an `Arc<T>` per key, shared freely;
//! 2. an **in-flight cell** — when another thread already owns the key,
//!    the request blocks on its condvar for the same result. The owner
//!    can never leave its waiters wedged: publishing is the drop of its
//!    [`Claim`], so an owner that unwinds hands every waiter a typed
//!    [`AmemError::Flaky`];
//! 3. the **disk tier** — one JSON file per key, named by the key's
//!    FNV-1a fingerprint and published atomically ([`write_atomic`]).
//!    An entry embeds its schema version and its full key; a version
//!    bump, corrupt file or key mismatch is a miss, and the entry is
//!    recomputed and overwritten;
//! 4. the caller's `compute` closure, whose `Ok` result is stored to
//!    disk and memory. Errors are never cached.
//!
//! What differs between payloads — schema constant, the disk entry's
//! field name, the metric outcome labels — comes from [`Payload`]. Key
//! construction and the decision whether a request is cacheable at all
//! stay with the caller, which passes `None` for "compute fresh".

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant, SystemTime};

use amem_sim::fingerprint::fnv1a;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::error::AmemError;

/// What a cached type supplies to the cache that holds it.
pub(crate) trait Payload: Serialize + Deserialize {
    /// Version embedded in every disk entry; a mismatch is a miss.
    const SCHEMA: u32;
    /// Name of the payload's field in the disk entry.
    const FIELD: &'static str;
    /// `outcome` label values of `amem_executor_requests_total`.
    const OUTCOMES: Outcomes;
}

/// One `outcome` label per way a request can be satisfied.
pub(crate) struct Outcomes {
    pub mem_hit: &'static str,
    pub dedup_join: &'static str,
    pub disk_hit: &'static str,
    pub computed: &'static str,
    /// Computed fresh because the request had no key.
    pub uncached: &'static str,
}

/// Snapshot of a cache's five outcome counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Counters {
    /// Fresh computations, keyed or not.
    pub computed: u64,
    pub mem_hits: u64,
    pub disk_hits: u64,
    pub dedup_hits: u64,
    /// Entries written to disk.
    pub stores: u64,
}

type Shared<T> = Result<Arc<T>, AmemError>;

/// A result slot the key's owner fills and any number of waiters read.
/// All locking is poison-tolerant: a panicking owner must never convert
/// into a `PoisonError` panic in an innocent waiter.
struct Inflight<T> {
    done: Mutex<Option<Shared<T>>>,
    cv: Condvar,
}

impl<T> Inflight<T> {
    fn lock_done(&self) -> MutexGuard<'_, Option<Shared<T>>> {
        self.done.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn resolve(&self, result: Shared<T>) {
        *self.lock_done() = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Shared<T> {
        let mut done = self.lock_done();
        loop {
            if let Some(result) = done.as_ref() {
                return result.clone();
            }
            done = self.cv.wait(done).unwrap_or_else(|p| p.into_inner());
        }
    }
}

struct State<T> {
    mem: HashMap<String, Arc<T>>,
    inflight: HashMap<String, Arc<Inflight<T>>>,
}

/// See the module docs. Cheap to share and safe to call from many
/// threads; the one lock is held for map operations only, never across
/// a disk access, a computation or a wait.
pub(crate) struct TieredCache<T> {
    dir: Option<PathBuf>,
    state: Mutex<State<T>>,
    computed: AtomicU64,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    dedup_hits: AtomicU64,
    stores: AtomicU64,
}

/// Ownership of an in-flight key. Dropping it publishes `result` — into
/// memory when `Ok`, and to every waiter — and releases the key. If the
/// owner unwinds before setting a result, the waiters get a typed
/// [`AmemError::Flaky`] instead: the dedup queue can never wedge.
struct Claim<'a, T: Payload> {
    cache: &'a TieredCache<T>,
    key: &'a str,
    cell: Arc<Inflight<T>>,
    result: Option<Shared<T>>,
}

impl<T: Payload> Drop for Claim<'_, T> {
    fn drop(&mut self) {
        let result = self.result.take().unwrap_or_else(|| {
            Err(AmemError::Flaky {
                attempts: 1,
                last: format!("{} computation unwound before resolving", T::FIELD),
            })
        });
        let mut state = self.cache.lock_state();
        if let (Some((key, _)), Ok(value)) = (state.inflight.remove_entry(self.key), &result) {
            state.mem.insert(key, Arc::clone(value));
        }
        drop(state);
        self.cell.resolve(result);
    }
}

/// Values found in a cache's memory tier (`TieredCache::resident`),
/// not yet counted. [`Resident::take`] counts one memory hit per value,
/// as a request for each would; dropping it counts nothing.
pub struct Resident<'a, T> {
    values: Vec<Arc<T>>,
    mem_hits: &'a AtomicU64,
    outcome: &'static str,
}

impl<T> Resident<'_, T> {
    /// The values, in the order of the keys asked for, each counted as a
    /// memory hit.
    pub fn take(self) -> Vec<Arc<T>> {
        for _ in &self.values {
            count(self.mem_hits, self.outcome);
        }
        self.values
    }
}

impl<T: Payload> TieredCache<T> {
    /// A cache persisting under `dir`, or memory-only when `None`.
    pub fn new(dir: Option<PathBuf>) -> Self {
        Self {
            dir,
            state: Mutex::new(State {
                mem: HashMap::new(),
                inflight: HashMap::new(),
            }),
            computed: AtomicU64::new(0),
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        }
    }

    /// The directory of the disk tier, if there is one.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    pub fn counters(&self) -> Counters {
        Counters {
            computed: self.computed.load(Ordering::Relaxed),
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The values of `keys` when every one is in the memory map right
    /// now, fetched under one lock; `None` when any is not. Nothing is
    /// counted and nothing in flight is joined until the caller takes
    /// them ([`Resident::take`]): a caller that decides not to use them
    /// drops the fetch, and it was never a request.
    pub fn resident(&self, keys: &[String]) -> Option<Resident<'_, T>> {
        let state = self.lock_state();
        let values = keys
            .iter()
            .map(|key| state.mem.get(key).map(Arc::clone))
            .collect::<Option<Vec<_>>>()?;
        Some(Resident {
            values,
            mem_hits: &self.mem_hits,
            outcome: T::OUTCOMES.mem_hit,
        })
    }

    /// The value for `key`: from memory, from the thread already
    /// computing it, from disk, or from `compute` — which then runs
    /// exactly once however many threads ask. `None` is a request that
    /// must not be cached: it always computes. The one-key case of
    /// [`TieredCache::get_or_compute_many`].
    pub fn get_or_compute(
        &self,
        key: Option<String>,
        compute: impl FnOnce() -> Result<T, AmemError>,
    ) -> Shared<T> {
        self.get_or_compute_many(vec![key], |fresh| {
            debug_assert_eq!(fresh.len(), 1);
            vec![compute()]
        })
        .pop()
        .expect("one result per key")
    }

    /// The value for each of `keys`, in order, each key answered as
    /// [`TieredCache::get_or_compute`] answers it. The keys this call
    /// must compute — its own claims that missed the disk, and every
    /// `None` — go to one `compute(fresh)` call, `fresh` being their
    /// indices into `keys` in order; it returns one result per index.
    /// So a caller can share work across a batch while every key is
    /// still claimed, computed, stored and counted once. A key repeated
    /// in `keys` joins its own first claim. No claim is held while
    /// waiting on another thread's: joins are waited on after this
    /// call's claims are published, so two overlapping batches cannot
    /// wait on each other.
    pub fn get_or_compute_many(
        &self,
        keys: Vec<Option<String>>,
        compute: impl FnOnce(&[usize]) -> Vec<Result<T, AmemError>>,
    ) -> Vec<Shared<T>> {
        let mut results: Vec<Option<Shared<T>>> = (0..keys.len()).map(|_| None).collect();
        let mut claims: Vec<(usize, Claim<'_, T>)> = Vec::new();
        let mut joins: Vec<(usize, Arc<Inflight<T>>)> = Vec::new();
        let mut fresh: Vec<usize> = Vec::new();

        // Memory hits, joins and claims under one lock.
        {
            let mut state = self.lock_state();
            for (i, key) in keys.iter().enumerate() {
                let Some(key) = key else {
                    count(&self.computed, T::OUTCOMES.uncached);
                    fresh.push(i);
                    continue;
                };
                if let Some(value) = state.mem.get(key) {
                    count(&self.mem_hits, T::OUTCOMES.mem_hit);
                    results[i] = Some(Ok(Arc::clone(value)));
                } else if let Some(cell) = state.inflight.get(key) {
                    count(&self.dedup_hits, T::OUTCOMES.dedup_join);
                    joins.push((i, Arc::clone(cell)));
                } else {
                    let cell = Arc::new(Inflight {
                        done: Mutex::new(None),
                        cv: Condvar::new(),
                    });
                    state.inflight.insert(key.clone(), Arc::clone(&cell));
                    let claim = Claim {
                        cache: self,
                        key,
                        cell,
                        result: None,
                    };
                    claims.push((i, claim));
                }
            }
        }

        // We own the claimed keys: disk lookups, then one fresh
        // computation for every key still missing.
        for (i, claim) in &mut claims {
            if let Some(value) = self.load(claim.key) {
                count(&self.disk_hits, T::OUTCOMES.disk_hit);
                let value = Ok(Arc::new(value));
                claim.result = Some(value.clone());
                results[*i] = Some(value);
            } else {
                count(&self.computed, T::OUTCOMES.computed);
                fresh.push(*i);
            }
        }
        if !fresh.is_empty() {
            fresh.sort_unstable();
            let computed = compute(&fresh);
            assert_eq!(computed.len(), fresh.len(), "one result per fresh key");
            for (&i, result) in fresh.iter().zip(computed) {
                let result = result.map(Arc::new);
                if let (Some(key), Ok(value)) = (&keys[i], &result) {
                    self.store(key, value);
                }
                if let Some((_, claim)) = claims.iter_mut().find(|(c, _)| *c == i) {
                    claim.result = Some(result.clone());
                }
                results[i] = Some(result);
            }
        }
        // Publish before waiting on anyone: a batch that waited while
        // holding claims could wait on a batch that waits on it.
        drop(claims);

        for (i, cell) in joins {
            results[i] = Some(wait_timed(&cell));
        }
        results
            .into_iter()
            .map(|r| r.expect("every key is answered"))
            .collect()
    }

    /// On-disk path of a key: the FNV-1a fingerprint names the file.
    fn entry_path(&self, key: &str) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        Some(dir.join(format!("{:016x}.json", fnv1a(key.as_bytes()))))
    }

    /// Load a disk entry, treating *any* problem — missing file, parse
    /// error, schema mismatch, key mismatch — as a miss. The last three
    /// are the cache's verification failures and are counted by reason;
    /// a missing file is an ordinary miss and is not.
    fn load(&self, key: &str) -> Option<T> {
        let path = self.entry_path(key)?;
        let _p = amem_metrics::phase("cache_lookup");
        let json = std::fs::read_to_string(path).ok()?;
        let reason = match read_entry::<T>(&json) {
            Err(_) => "parse",
            Ok((schema, ..)) if schema != T::SCHEMA => "schema",
            // The embedded key is compared so an FNV filename collision
            // degrades to a miss, never a wrong value.
            Ok((_, stored, _)) if stored != key => "key",
            Ok((.., value)) => return Some(value),
        };
        amem_metrics::add(
            "amem_executor_cache_verify_failures_total",
            &[("reason", reason)],
            1,
        );
        None
    }

    /// Persist an entry atomically. A failure costs the entry, not the
    /// request — the cache is an accelerator, not a correctness layer —
    /// but is counted by the step that failed.
    fn store(&self, key: &str, value: &T) {
        let (Some(dir), Some(path)) = (self.dir(), self.entry_path(key)) else {
            return;
        };
        let mut json = String::new();
        let mut ser = Serializer::compact(&mut json);
        let mut entry = ser.map();
        entry.field("schema_version", &T::SCHEMA);
        entry.field("key", key);
        entry.field(T::FIELD, value);
        entry.end();
        let written = std::fs::create_dir_all(dir)
            .map_err(|_| "mkdir")
            .and_then(|()| write_atomic(&path, &json));
        match written {
            Ok(()) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
                amem_metrics::add("amem_executor_disk_stores_total", &[], 1);
            }
            Err(reason) => amem_metrics::add(
                "amem_executor_disk_store_failures_total",
                &[("reason", reason)],
                1,
            ),
        }
    }

    /// Nothing cached and nothing in flight (test probe).
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        let state = self.lock_state();
        state.mem.is_empty() && state.inflight.is_empty()
    }
}

/// Wait on another claim's result, timing the wait when metrics are on.
fn wait_timed<T>(cell: &Inflight<T>) -> Shared<T> {
    if !amem_metrics::enabled() {
        return cell.wait();
    }
    // Time spent blocked on the owner.
    let waited = Instant::now();
    let result = cell.wait();
    amem_metrics::record(
        "amem_executor_dedup_wait_ns",
        &[],
        u64::try_from(waited.elapsed().as_nanos()).unwrap_or(u64::MAX),
    );
    result
}

/// Count one request outcome, mirrored into the metrics registry.
fn count(counter: &AtomicU64, outcome: &'static str) {
    counter.fetch_add(1, Ordering::Relaxed);
    amem_metrics::add("amem_executor_requests_total", &[("outcome", outcome)], 1);
}

/// Read `{"schema_version":…,"key":…,"<T::FIELD>":…}` with the derive's
/// rules: keys in any order, unknown keys skipped, the first occurrence
/// of a repeated key wins, all three fields required. (Written by hand
/// because the vendored derive cannot take type parameters.)
pub(crate) fn read_entry<T: Payload>(json: &str) -> Result<(u32, String, T), serde::Error> {
    let mut d = Deserializer::new(json);
    let mut map = d.map()?;
    let (mut schema, mut key, mut value) = (None, None, None);
    while let Some((name, d)) = map.next_key()? {
        match &*name {
            "schema_version" if schema.is_none() => schema = Some(serde::field(d, &name)?),
            "key" if key.is_none() => key = Some(serde::field(d, &name)?),
            f if f == T::FIELD && value.is_none() => value = Some(serde::field(d, f)?),
            _ => d.skip()?,
        }
    }
    d.end()?;
    match (schema, key, value) {
        (Some(schema), Some(key), Some(value)) => Ok((schema, key, value)),
        (None, ..) => Err(serde::Error::missing_field("schema_version")),
        (_, None, _) => Err(serde::Error::missing_field("key")),
        _ => Err(serde::Error::missing_field(T::FIELD)),
    }
}

/// Publish `contents` at `path` atomically — scratch file, then rename —
/// so a concurrent reader or a crash never observes a torn file. On
/// failure the scratch file is removed and the failing step is named
/// (`"write"` or `"rename"`). `path`'s directory must exist.
pub fn write_atomic(path: &Path, contents: &str) -> Result<(), &'static str> {
    let tmp = unique_tmp_path(path);
    let published = std::fs::write(&tmp, contents)
        .map_err(|_| "write")
        .and_then(|()| std::fs::rename(&tmp, path).map_err(|_| "rename"));
    if published.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    published
}

/// Unique scratch path for one atomic write: `<entry>.tmp.<pid>.<nonce>`.
///
/// The pid alone is not enough — two threads in one process persisting
/// the same key (dedup-bypassing `--no-cache` writers, or two executors
/// sharing a cache dir) would race on a single tmp path and could rename
/// a torn or foreign write over the entry. A per-process atomic counter
/// makes every in-flight write its own file; the rename then keeps the
/// publish atomic.
pub(crate) fn unique_tmp_path(path: &Path) -> PathBuf {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let n = NONCE.fetch_add(1, Ordering::Relaxed);
    path.with_extension(format!("tmp.{}.{n}", std::process::id()))
}

/// Remove orphaned `*.tmp.*` scratch files older than `max_age` from a
/// cache directory, returning how many were reclaimed.
///
/// A crash between the write and the rename of [`write_atomic`] leaks
/// the tmp file forever; nothing ever reads it, so it is pure disk-space
/// debt. The age threshold is conservative on purpose: a *young* tmp
/// file may belong to a concurrent writer in another live process, and
/// deleting it mid-write would break that writer's rename. Callers run
/// this at startup (the executor for disk caches, and the serve daemon's
/// shared store) where "older than an hour" cannot be in flight.
pub fn sweep_stale_tmp(dir: &Path, max_age: Duration) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let now = SystemTime::now();
    let mut reclaimed = 0usize;
    for entry in entries.flatten() {
        let path = entry.path();
        let is_tmp = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.contains(".tmp."));
        if !is_tmp {
            continue;
        }
        let stale = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| now.duration_since(mtime).ok())
            .is_some_and(|age| age >= max_age);
        if stale && std::fs::remove_file(&path).is_ok() {
            reclaimed += 1;
        }
    }
    reclaimed
}

/// Age above which an orphaned tmp file cannot plausibly still be an
/// in-flight write (writes are milliseconds; an hour is crash debris).
pub const STALE_TMP_AGE: Duration = Duration::from_secs(3600);

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Toy {
        n: u64,
    }

    impl Payload for Toy {
        const SCHEMA: u32 = 7;
        const FIELD: &'static str = "toy";
        const OUTCOMES: Outcomes = Outcomes {
            mem_hit: "toy_mem_hit",
            dedup_join: "toy_dedup_join",
            disk_hit: "toy_disk_hit",
            computed: "toy_computed",
            uncached: "toy_uncached",
        };
    }

    fn key() -> Option<String> {
        Some("k".into())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("amem_tiered_cache_test_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn counters(computed: u64, mem: u64, disk: u64, dedup: u64, stores: u64) -> Counters {
        Counters {
            computed,
            mem_hits: mem,
            disk_hits: disk,
            dedup_hits: dedup,
            stores,
        }
    }

    #[test]
    fn memory_hit_shares_the_arc() {
        let cache = TieredCache::<Toy>::new(None);
        let a = cache.get_or_compute(key(), || Ok(Toy { n: 1 })).unwrap();
        let b = cache
            .get_or_compute(key(), || panic!("a hit never computes"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.counters(), counters(1, 1, 0, 0, 0));
    }

    #[test]
    fn keyless_requests_always_compute_and_cache_nothing() {
        let cache = TieredCache::<Toy>::new(None);
        for n in 0..2 {
            assert_eq!(cache.get_or_compute(None, || Ok(Toy { n })).unwrap().n, n);
        }
        assert_eq!(cache.counters(), counters(2, 0, 0, 0, 0));
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_requests_for_one_key_compute_once() {
        const N: u64 = 4;
        let cache = TieredCache::<Toy>::new(None);
        let computes = AtomicUsize::new(0);
        let results: Vec<Arc<Toy>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    s.spawn(|| {
                        cache.get_or_compute(key(), || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            // Hold the key until every other thread joined.
                            while cache.counters().dedup_hits < N - 1 {
                                std::thread::yield_now();
                            }
                            Ok(Toy { n: 9 })
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap().unwrap())
                .collect()
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1);
        assert_eq!(cache.counters(), counters(1, 0, 0, N - 1, 0));
        assert!(results.iter().all(|r| Arc::ptr_eq(r, &results[0])));
    }

    #[test]
    fn crossed_batches_publish_before_they_wait() {
        // Two batches claim the same two keys in opposite orders. Each
        // compute starts only once both keys have an owner and a joiner —
        // the state in which holding a claim while waiting would
        // deadlock — and every key is still computed once.
        let keys = |order: [&str; 2]| order.map(|k| Some(k.to_string())).to_vec();
        for _ in 0..50 {
            let cache = TieredCache::<Toy>::new(None);
            let batch = |order: [&str; 2]| {
                cache.get_or_compute_many(keys(order), |fresh| {
                    while cache.counters().dedup_hits < 2 {
                        std::thread::yield_now();
                    }
                    let n = |i: usize| if order[i] == "a" { 1 } else { 2 };
                    fresh.iter().map(|&i| Ok(Toy { n: n(i) })).collect()
                })
            };
            let (ab, ba) = std::thread::scope(|s| {
                let ab = s.spawn(|| batch(["a", "b"]));
                let ba = s.spawn(|| batch(["b", "a"]));
                (ab.join().unwrap(), ba.join().unwrap())
            });
            let [a, b] = [&ab[0], &ab[1]].map(|r| Arc::clone(r.as_ref().unwrap()));
            assert_eq!((a.n, b.n), (1, 2));
            assert!(Arc::ptr_eq(&a, ba[1].as_ref().unwrap()));
            assert!(Arc::ptr_eq(&b, ba[0].as_ref().unwrap()));
            assert_eq!(cache.counters(), counters(2, 0, 0, 2, 0));
        }
    }

    #[test]
    fn a_fresh_instance_hits_the_disk_entry() {
        let dir = temp_dir("disk_hit");
        let first = TieredCache::<Toy>::new(Some(dir.clone()));
        first.get_or_compute(key(), || Ok(Toy { n: 3 })).unwrap();
        assert_eq!(first.counters(), counters(1, 0, 0, 0, 1));
        let path = dir.join(format!("{:016x}.json", fnv1a(b"k")));
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            r#"{"schema_version":7,"key":"k","toy":{"n":3}}"#
        );

        let second = TieredCache::<Toy>::new(Some(dir.clone()));
        let hit = second
            .get_or_compute(key(), || panic!("a disk hit never computes"))
            .unwrap();
        assert_eq!(*hit, Toy { n: 3 });
        assert_eq!(second.counters(), counters(0, 0, 1, 0, 0));
        // Promoted to memory: the next request does not touch the disk.
        std::fs::remove_file(&path).unwrap();
        second.get_or_compute(key(), || panic!("mem hit")).unwrap();
        assert_eq!(second.counters(), counters(0, 1, 1, 0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_verify_failure_is_a_miss_that_recomputes_and_overwrites() {
        let dir = temp_dir("verify");
        let good = r#"{"schema_version":7,"key":"k","toy":{"n":3}}"#;
        let path = dir.join(format!("{:016x}.json", fnv1a(b"k")));
        for (reason, bad) in [
            ("parse", r#"{"schema_version":7,"key":"k","toy":{"n":"#),
            ("parse", r#"{"schema_version":7,"key":"k"}"#),
            ("schema", r#"{"schema_version":8,"key":"k","toy":{"n":3}}"#),
            ("key", r#"{"schema_version":7,"key":"other","toy":{"n":3}}"#),
        ] {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, bad).unwrap();
            let cache = TieredCache::<Toy>::new(Some(dir.clone()));
            let got = cache.get_or_compute(key(), || Ok(Toy { n: 3 })).unwrap();
            assert_eq!(*got, Toy { n: 3 }, "{reason}");
            assert_eq!(cache.counters(), counters(1, 0, 0, 0, 1), "{reason}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), good, "{reason}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_read_like_a_derived_struct() {
        // Any key order, unknown keys skipped, first duplicate wins.
        let (schema, key, toy) = read_entry::<Toy>(
            r#" {"toy":{"n":1,"later":[1,{"x":null}]},"extra":{"a":[]},"key":"k","schema_version":7,"key":"dup"} "#,
        )
        .unwrap();
        assert_eq!((schema, key.as_str(), toy), (7, "k", Toy { n: 1 }));
        for bad in [
            r#"{"key":"k","toy":{"n":1}}"#,
            r#"{"schema_version":7,"toy":{"n":1}}"#,
            r#"{"schema_version":7,"key":"k","measurement":{"n":1}}"#,
            r#"{"schema_version":7,"key":"k","toy":{"n":1}} x"#,
            r#"[7,"k",{"n":1}]"#,
        ] {
            assert!(read_entry::<Toy>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn an_owner_that_unwinds_releases_its_waiters_with_a_typed_error() {
        const WAITERS: u64 = 2;
        let cache = TieredCache::<Toy>::new(None);
        std::thread::scope(|s| {
            let owner = s.spawn(|| {
                cache.get_or_compute(key(), || {
                    while cache.counters().dedup_hits < WAITERS {
                        std::thread::yield_now();
                    }
                    panic!("past any catch_unwind");
                })
            });
            while cache.counters().computed < 1 {
                std::thread::yield_now();
            }
            let waiters: Vec<_> = (0..WAITERS)
                .map(|_| s.spawn(|| cache.get_or_compute(key(), || Ok(Toy { n: 0 }))))
                .collect();
            for w in waiters {
                match w.join().expect("waiters return, never wedge") {
                    Err(AmemError::Flaky { attempts: 1, last }) => {
                        assert!(last.contains("unwound"), "{last}")
                    }
                    other => panic!("want Flaky, got {other:?}"),
                }
            }
            assert!(owner.join().is_err(), "the owner's panic propagates");
        });
        assert!(cache.is_empty(), "no wedged in-flight cell, nothing cached");
        // The key is free again.
        let v = cache.get_or_compute(key(), || Ok(Toy { n: 5 })).unwrap();
        assert_eq!(v.n, 5);
    }

    #[test]
    fn errors_are_never_cached() {
        let dir = temp_dir("errors");
        let cache = TieredCache::<Toy>::new(Some(dir.clone()));
        let fail = || Err(AmemError::NonFinite { what: "toy".into() });
        for _ in 0..2 {
            let err = cache.get_or_compute(key(), fail).unwrap_err();
            assert!(matches!(err, AmemError::NonFinite { .. }), "{err}");
        }
        assert_eq!(cache.counters(), counters(2, 0, 0, 0, 0));
        assert!(cache.is_empty());
        assert!(!dir.exists(), "nothing was stored");
    }

    #[test]
    fn a_failed_write_names_its_step_and_leaves_no_scratch_file() {
        let dir = temp_dir("write_atomic");
        assert_eq!(write_atomic(&dir.join("a.json"), "{}"), Err("write"));
        std::fs::create_dir_all(dir.join("taken.json/occupied")).unwrap();
        assert_eq!(write_atomic(&dir.join("taken.json"), "{}"), Err("rename"));
        assert_eq!(write_atomic(&dir.join("a.json"), "{}"), Ok(()));
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(names.iter().all(|n| !n.contains(".tmp.")), "{names:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
