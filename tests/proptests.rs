//! Property-based tests over the core data structures and invariants.
//!
//! Cases are generated with the simulator's own deterministic
//! [`Xoshiro256`] generator instead of an external property-testing
//! framework, so every run explores the same case set and failures
//! reproduce exactly (the failing case index is in the panic message).

use active_mem::probes::dist::AccessDist;
use active_mem::probes::ehr;
use active_mem::sim::cache::{Cache, InsertPolicy, Replacement};
use active_mem::sim::cluster::RankMap;
use active_mem::sim::config::{CacheConfig, MachineConfig};
use active_mem::sim::rng::Xoshiro256;

const CASES: u64 = 64;

fn f64_in(rng: &mut Xoshiro256, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

fn any_dist(rng: &mut Xoshiro256) -> AccessDist {
    match rng.below(4) {
        0 => AccessDist::Normal {
            mu: f64_in(rng, 0.3, 0.7),
            sigma: f64_in(rng, 0.05, 0.4),
        },
        1 => AccessDist::Exponential {
            rate: f64_in(rng, 1.0, 12.0),
        },
        2 => AccessDist::Triangular {
            mode: f64_in(rng, 0.05, 0.95),
        },
        _ => AccessDist::Uniform,
    }
}

fn any_cache_cfg(rng: &mut Xoshiro256) -> CacheConfig {
    let ways_pow = 1 + rng.below(5) as u32; // 1..6
    let sets_pow = 1 + rng.below(8) as u32; // 1..9
    CacheConfig {
        size_bytes: 64u64 << (ways_pow + sets_pow),
        line_bytes: 64,
        ways: 1 << ways_pow,
        latency: 1,
        replacement: Replacement::Lru,
        insert: InsertPolicy::Mru,
        hash_sets: rng.below(2) == 0,
    }
}

#[test]
fn cdf_is_monotone_and_proper() {
    let mut rng = Xoshiro256::seed_from_u64(0xC0FFEE);
    for case in 0..CASES {
        let dist = any_dist(&mut rng);
        assert_eq!(dist.cdf(0.0), 0.0, "case {case}");
        assert_eq!(dist.cdf(1.0), 1.0, "case {case}");
        let n = 2 + rng.below(18) as usize;
        let mut xs: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for x in xs {
            let c = dist.cdf(x);
            assert!((0.0..=1.0).contains(&c), "case {case}: cdf({x}) = {c}");
            assert!(c >= prev - 1e-12, "case {case}: cdf not monotone at {x}");
            prev = c;
        }
    }
}

#[test]
fn samples_lie_in_range() {
    let mut rng = Xoshiro256::seed_from_u64(0xBEEF);
    for case in 0..CASES {
        let dist = any_dist(&mut rng);
        let n = 1 + rng.below(9_999);
        let mut sampler = Xoshiro256::seed_from_u64(rng.next_u64());
        for _ in 0..50 {
            let i = dist.sample_index(&mut sampler, n);
            assert!(i < n, "case {case}: sample {i} out of range 0..{n}");
        }
    }
}

#[test]
fn line_masses_sum_to_one() {
    let mut rng = Xoshiro256::seed_from_u64(0xD15C);
    for case in 0..CASES {
        let dist = any_dist(&mut rng);
        let kb = 64 + rng.below(4032);
        let masses = ehr::line_masses(&dist, kb * 1024, 4, 64);
        let sum: f64 = masses.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "case {case}: sum = {sum}");
        assert!(masses.iter().all(|&g| g >= 0.0), "case {case}");
    }
}

#[test]
fn ehr_inversion_roundtrips() {
    let mut rng = Xoshiro256::seed_from_u64(0xE44);
    for case in 0..CASES {
        let dist = any_dist(&mut rng);
        let cache_kb = 64 + rng.below(960);
        let buffer_mult = 2 + rng.below(4);
        let buffer = cache_kb * 1024 * buffer_mult;
        let cache_lines = cache_kb * 1024 / 64;
        let ssq = ehr::sum_sq_line_mass(&dist, buffer, 4, 64);
        if ssq <= 0.0 {
            continue;
        }
        let mr = ehr::expected_miss_rate(cache_lines, ssq);
        // Only invertible while the model is in its linear (unclamped)
        // regime, i.e. EHR < 1.
        if mr <= 1e-9 {
            continue;
        }
        let back = ehr::effective_cache_lines(mr, ssq);
        assert!(
            (back - cache_lines as f64).abs() < 1.0,
            "case {case}: {back} vs {cache_lines}"
        );
    }
}

#[test]
fn cache_occupancy_never_exceeds_capacity() {
    let mut rng = Xoshiro256::seed_from_u64(0x0CC);
    for case in 0..CASES {
        let cfg = any_cache_cfg(&mut rng);
        let mut c = Cache::new(&cfg);
        let n_ops = 1 + rng.below(399);
        for _ in 0..n_ops {
            let line = rng.below(100_000);
            let store = rng.below(2) == 0;
            if !c.lookup(line, store) {
                c.fill(line, store);
            }
            assert!(
                c.occupancy() <= c.capacity_lines(),
                "case {case}: occupancy exceeds capacity"
            );
        }
    }
}

#[test]
fn cache_fill_then_lookup_hits() {
    let mut rng = Xoshiro256::seed_from_u64(0xF111);
    for case in 0..CASES {
        let cfg = any_cache_cfg(&mut rng);
        let line = rng.below(1_000_000);
        let mut c = Cache::new(&cfg);
        c.fill(line, false);
        assert!(c.lookup(line, false), "case {case}: miss after fill");
        assert!(c.contains(line), "case {case}");
    }
}

#[test]
fn cache_invalidate_removes() {
    let mut rng = Xoshiro256::seed_from_u64(0x1214);
    for case in 0..CASES {
        let cfg = any_cache_cfg(&mut rng);
        let n = 1 + rng.below(49) as usize;
        let lines: Vec<u64> = (0..n).map(|_| rng.below(10_000)).collect();
        let mut c = Cache::new(&cfg);
        for &l in &lines {
            c.fill(l, true);
        }
        for &l in &lines {
            c.invalidate(l);
            assert!(!c.contains(l), "case {case}: line {l} survived invalidate");
        }
        assert_eq!(c.occupancy(), 0, "case {case}");
    }
}

/// Up-links are advisory (DESIGN.md §9): every hinted call must equal the
/// unhinted one whatever link it is handed.
mod up_links {
    use super::*;
    use active_mem::sim::cache::NO_LINK;
    use std::collections::BTreeMap;

    /// The cache widths with a fixed-width set kernel on the hot path:
    /// L1/L2 (8) and the Xeon20MB L3 (20).
    fn cache_of(ways: u32, sets: u64, hash_sets: bool) -> Cache {
        Cache::new(&CacheConfig {
            size_bytes: sets * ways as u64 * 64,
            line_bytes: 64,
            ways,
            latency: 1,
            replacement: Replacement::Lru,
            insert: InsertPolicy::Mru,
            hash_sets,
        })
    }

    /// A link for `line`: where it is, where it was (stale once the slot
    /// is replaced), a neighbouring way, another line's slot, no link,
    /// or an index past the array.
    fn any_link(rng: &mut Xoshiro256, seen: &BTreeMap<u64, u32>, line: u64, cap: u32) -> u32 {
        let known = seen.get(&line).copied().unwrap_or(NO_LINK);
        match rng.below(7) {
            0 | 1 => known,
            2 => known.wrapping_add(1),
            3 => known.wrapping_sub(1),
            4 => seen
                .values()
                .nth(rng.below(seen.len().max(1) as u64) as usize)
                .copied()
                .unwrap_or(0),
            5 => NO_LINK,
            _ => cap + rng.below(1 << 20) as u32,
        }
    }

    #[test]
    fn hinted_ownership_calls_equal_unhinted_for_any_link() {
        let mut rng = Xoshiro256::seed_from_u64(0x11_4B5);
        for case in 0..CASES {
            let ways = if case % 2 == 0 { 8 } else { 20 };
            let sets = 1 << rng.below(4);
            let hash = rng.below(2) == 0;
            // `a` takes every call with a link, `b` the plain call.
            let (mut a, mut b) = (cache_of(ways, sets, hash), cache_of(ways, sets, hash));
            let cap = a.capacity_lines() as u32;
            let span = 3 * cap as u64;
            // Every slot a line was ever seen in — deliberately never
            // pruned, so old entries are the stale links.
            let mut seen: BTreeMap<u64, u32> = BTreeMap::new();
            let mut valid = 0u32;
            for op in 0..600 {
                let line = rng.below(span);
                let at = any_link(&mut rng, &seen, line, cap);
                let core = rng.below(8) as u32;
                let ctx = format!("case {case} op {op} line {line} link {at:#x}");
                match rng.below(8) {
                    0..=2 => {
                        let dirty = rng.below(3) == 0;
                        assert_eq!(a.fill(line, dirty), b.fill(line, dirty), "{ctx}");
                        seen.insert(line, a.memo());
                        a.add_sharer(line, core);
                        b.add_sharer(line, core);
                    }
                    3 => assert_eq!(a.invalidate(line), b.invalidate(line), "{ctx}"),
                    4 => assert_eq!(a.sharers_at(at, line), b.sharers(line), "{ctx}"),
                    5 => {
                        a.set_exclusive_at(at, line, core);
                        b.set_exclusive(line, core);
                    }
                    6 => assert_eq!(a.mark_dirty_at(at, line), b.mark_dirty(line), "{ctx}"),
                    _ => assert_eq!(a.lookup(line, false), b.lookup(line, false), "{ctx}"),
                }
                valid += (a.contains(line) && seen.get(&line) == Some(&at)) as u32;
                assert_eq!(a.sharers(line), b.sharers(line), "{ctx}");
            }
            assert!(valid > 20, "case {case}: only {valid} correct links drawn");
            // Same contents, same dirtiness, same ownership at the end.
            for line in 0..span {
                assert_eq!(a.sharers(line), b.sharers(line), "case {case} line {line}");
                assert_eq!(
                    a.invalidate(line),
                    b.invalidate(line),
                    "case {case} line {line}"
                );
            }
        }
    }

    #[test]
    fn linked_fills_equal_plain_fills_and_links_ride_out_in_evictions() {
        let mut rng = Xoshiro256::seed_from_u64(0x11_4B6);
        for case in 0..CASES {
            let ways = if case % 2 == 0 { 8 } else { 20 };
            let sets = 1 << rng.below(4);
            let mut a = cache_of(ways, sets, false).without_ownership();
            let mut b = cache_of(ways, sets, false).without_ownership();
            let span = 3 * a.capacity_lines();
            let mut given: BTreeMap<u64, u32> = BTreeMap::new();
            for op in 0..600 {
                let line = rng.below(span);
                let ctx = format!("case {case} op {op} line {line}");
                if rng.below(4) == 0 {
                    assert_eq!(a.invalidate(line), b.invalidate(line), "{ctx}");
                    given.remove(&line);
                    continue;
                }
                let dirty = rng.below(3) == 0;
                let up = match rng.below(3) {
                    0 => NO_LINK,
                    _ => rng.below(1 << 24) as u32,
                };
                let (ea, eb) = (a.fill_linked(line, dirty, up), b.fill(line, dirty));
                given.insert(line, up);
                // The victim is the plain fill's victim, carrying the
                // link its own fill was given.
                assert_eq!(
                    ea.map(|e| (e.line, e.dirty, e.present)),
                    eb.map(|e| (e.line, e.dirty, e.present)),
                    "{ctx}"
                );
                if let Some(e) = ea {
                    assert_eq!(
                        Some(e.link),
                        given.remove(&e.line),
                        "{ctx}: evicted {}",
                        e.line
                    );
                }
                // The link reads back only through the entry that holds
                // the line.
                let at = a.memo();
                assert_eq!(a.up_link(at, line), up, "{ctx}");
                assert_eq!(a.up_link(at, line + span), NO_LINK, "{ctx}");
                assert_eq!(a.up_link(at.wrapping_add(1), line), NO_LINK, "{ctx}");
                assert_eq!(a.up_link(NO_LINK, line), NO_LINK, "{ctx}");
                assert_eq!(a.up_link(a.capacity_lines() as u32, line), NO_LINK, "{ctx}");
            }
        }
    }
}

/// The demand walk's substrate shortcuts (DESIGN.md §9, "One compiled
/// demand walk") are unobservable: a store `lookup` that answers from the
/// index memo equals the plain calls whatever state the memos are in, and
/// a CAT-masked fill picks the reference's victim.
mod demand_walk {
    use super::*;
    use active_mem::conformance::RefCache;
    use active_mem::sim::cache::{Eviction, NO_LINK};
    use std::collections::BTreeMap;

    fn cache_of(ways: u32, sets: u64, private: bool) -> Cache {
        let c = Cache::new(&CacheConfig {
            size_bytes: sets * ways as u64 * 64,
            line_bytes: 64,
            ways,
            latency: 1,
            replacement: Replacement::Lru,
            insert: InsertPolicy::Mru,
            hash_sets: false,
        });
        if private {
            c.without_ownership()
        } else {
            c
        }
    }

    /// Every set's contents in LRU order with dirtiness, read off by
    /// filling `ways` fresh lines into each set of a copy: equal drains
    /// mean equal tags, recency order and dirty bits.
    fn drain(c: &Cache, ways: u32, sets: u64) -> Vec<Option<Eviction>> {
        let mut c = c.clone();
        let fresh = 1 << 40;
        (0..sets)
            .flat_map(|s| (0..ways as u64).map(move |k| fresh + s + k * sets))
            .map(|line| c.fill(line, false))
            .collect()
    }

    /// Where `a`'s index memo sits relative to `line`: not set yet, on
    /// the line, on an invalidated (`EMPTY`) entry, on another line of
    /// the same set, or in another set.
    fn memo_kind(a: &Cache, at: &BTreeMap<u32, u64>, line: u64, ways: u32, sets: u64) -> usize {
        let m = a.memo();
        match at.get(&m) {
            _ if m == NO_LINK => 0,
            Some(&l) if l == line => 1,
            None => 2,
            Some(_) if (m / ways) as u64 == line % sets => 3,
            Some(_) => 4,
        }
    }

    #[test]
    fn memo_first_store_lookup_equals_load_lookup_then_mark_dirty() {
        let mut rng = Xoshiro256::seed_from_u64(0x5_70E);
        let mut kinds = [0u32; 5];
        for case in 0..CASES {
            let ways = if case % 2 == 0 { 8 } else { 20 };
            let sets = 1 << rng.below(3);
            let private = rng.below(2) == 0;
            // `a` stores with `lookup(_, true)`, `b` with a load lookup
            // and `mark_dirty` on a hit — the plain, scanning path.
            let (mut a, mut b) = (cache_of(ways, sets, private), cache_of(ways, sets, private));
            let span = 2 * ways as u64 * sets;
            // Line per entry, as far as the test knows (memo after fills,
            // dropped on invalidation).
            let mut at: BTreeMap<u32, u64> = BTreeMap::new();
            for op in 0..400 {
                let line = rng.below(span);
                let ctx = format!("case {case} op {op} line {line}");
                match rng.below(8) {
                    0 | 1 => {
                        let dirty = rng.below(3) == 0;
                        assert_eq!(a.fill(line, dirty), b.fill(line, dirty), "{ctx}");
                        at.insert(a.memo(), line);
                    }
                    2 => {
                        // Half the time the memo's own line: the memo is
                        // left on an `EMPTY` entry.
                        let line = match at.get(&a.memo()) {
                            Some(&l) if rng.below(2) == 0 => l,
                            _ => line,
                        };
                        assert_eq!(a.invalidate(line), b.invalidate(line), "{ctx}");
                        at.retain(|_, l| *l != line);
                    }
                    3 => assert_eq!(a.lookup(line, false), b.lookup(line, false), "{ctx}"),
                    4 if !private => {
                        // Moves the memo without a recency touch.
                        a.add_sharer(line, 1);
                        b.add_sharer(line, 1);
                    }
                    _ => {
                        // A store, half the time right after a load of
                        // the same line (the `buf[i]++` shape).
                        if rng.below(2) == 0 {
                            assert_eq!(a.lookup(line, false), b.lookup(line, false), "{ctx}");
                        }
                        kinds[memo_kind(&a, &at, line, ways, sets)] += 1;
                        let hit = b.lookup(line, false);
                        if hit {
                            assert!(b.mark_dirty(line), "{ctx}");
                        }
                        assert_eq!(a.lookup(line, true), hit, "{ctx}");
                    }
                }
                // The miss memos, too: the next fill of a missing line
                // must pick the same way (and victim) in both.
                if op % 16 == 0 {
                    assert_eq!(drain(&a, ways, sets), drain(&b, ways, sets), "{ctx}");
                }
            }
            assert_eq!(drain(&a, ways, sets), drain(&b, ways, sets), "case {case}");
        }
        assert!(
            kinds.iter().all(|&k| k > 20),
            "memo states drawn: {kinds:?}"
        );
    }

    /// CAT-masked victims through the public API against the reference's
    /// strict-`<` scan, at every width the kernels serve and past them,
    /// with random masks and BIP / mid-stack insertions (mid-stack stamps
    /// tie). The `u32::MAX`-key fallback needs stamps a public call
    /// sequence cannot reach in a test's time (2^31 ticks); `setscan`'s
    /// `masked_first_min_equals_the_scalar_scan_at_every_width` pins it.
    #[test]
    fn masked_victims_equal_the_reference_at_widths_1_to_64() {
        let mut rng = Xoshiro256::seed_from_u64(0xCA7_0064);
        for ways in 1..=64u32 {
            let sets = 1 + rng.below(2);
            let cfg = CacheConfig {
                size_bytes: sets * ways as u64 * 64,
                line_bytes: 64,
                ways,
                latency: 1,
                replacement: Replacement::Lru,
                insert: InsertPolicy::Mru,
                hash_sets: false,
            };
            let (mut a, mut r) = (Cache::new(&cfg), RefCache::new(&cfg));
            let span = 3 * ways as u64 * sets;
            let narrow = u32::MAX >> 32u32.saturating_sub(ways);
            for op in 0..600 {
                let line = rng.below(span);
                let ctx = format!("{ways} ways op {op} line {line}");
                if rng.below(3) == 0 {
                    assert_eq!(a.lookup(line, false), r.lookup(line, false), "{ctx}");
                    continue;
                }
                let mut mask = match rng.below(4) {
                    0 => u32::MAX,
                    1 => 1u32 << rng.below(ways.min(32) as u64),
                    _ => rng.next_u64() as u32 & narrow,
                };
                if mask & narrow == 0 {
                    mask |= 1;
                }
                // A partial mask names ways 0..32 only; a wider cache
                // takes the full mask.
                if ways > 32 {
                    mask = u32::MAX;
                }
                let hint = match rng.below(3) {
                    0 => Some(InsertPolicy::Mid),
                    1 => Some(InsertPolicy::Lru),
                    _ => None,
                };
                assert_eq!(
                    a.fill_masked(line, false, hint, mask),
                    r.fill_masked(line, false, hint, mask),
                    "{ctx} mask {mask:#x}"
                );
            }
        }
    }
}

#[test]
fn rankmap_places_every_local_rank_uniquely() {
    let mut rng = Xoshiro256::seed_from_u64(0x4A4B);
    for case in 0..CASES {
        let ranks = 1 + rng.below(64) as usize;
        let per = 1 + rng.below(8) as usize;
        let m = MachineConfig::xeon20mb();
        let map = RankMap::new(&m, ranks, per);
        let mut cores = std::collections::HashSet::new();
        for r in map.local_ranks() {
            let core = map.core_of(r).expect("local rank has a core");
            assert!(
                cores.insert((core.socket, core.core)),
                "case {case}: core reused"
            );
            assert!((core.core as usize) < per, "case {case}");
        }
        // Free cores never collide with rank cores.
        for f in map.free_cores() {
            assert!(!cores.contains(&(f.socket, f.core)), "case {case}");
        }
    }
}

#[test]
fn rankmap_locality_is_symmetric() {
    let mut rng = Xoshiro256::seed_from_u64(0x5777);
    for case in 0..CASES {
        let ranks = 2 + rng.below(63) as usize;
        let per = 1 + rng.below(8) as usize;
        let a = rng.below(ranks as u64) as usize;
        let b = rng.below(ranks as u64) as usize;
        let m = MachineConfig::xeon20mb();
        let map = RankMap::new(&m, ranks, per);
        assert_eq!(
            map.locality(a, b),
            map.locality(b, a),
            "case {case}: locality({a},{b}) asymmetric"
        );
    }
}

#[test]
fn xoshiro_below_is_always_in_range() {
    let mut rng = Xoshiro256::seed_from_u64(0xB310);
    for case in 0..CASES {
        let seed = rng.next_u64();
        let n = 1 + rng.below(u64::MAX - 1);
        let mut r = Xoshiro256::seed_from_u64(seed);
        for _ in 0..20 {
            let x = r.below(n);
            assert!(x < n, "case {case}: {x} >= {n}");
        }
    }
}

#[test]
fn scaled_machines_keep_valid_geometry() {
    for denom in 1u32..6 {
        let f = 1.0 / (1u64 << denom) as f64;
        let m = MachineConfig::xeon20mb().scaled(f);
        assert!(m.l1.sets() >= 1);
        assert!(m.l2.sets() >= 1);
        assert!(m.l3.sets() >= 1);
        // Hierarchy ordering is preserved.
        assert!(m.l1.size_bytes <= m.l2.size_bytes);
        assert!(m.l2.size_bytes <= m.l3.size_bytes);
    }
}

/// Trial-statistics invariants: robust aggregation must not depend on
/// sample order and must stay finite for any finite input set.
mod trial_statistics {
    use active_mem::core::trial::robust_summary;
    use active_mem::sim::rng::Xoshiro256;

    const CASES: u64 = 64;

    fn shuffle(rng: &mut Xoshiro256, xs: &mut [f64]) {
        for i in (1..xs.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    #[test]
    fn robust_summary_is_permutation_invariant() {
        let mut rng = Xoshiro256::seed_from_u64(0x7121A1);
        for case in 0..CASES {
            let n = 1 + rng.below(20) as usize;
            let xs: Vec<f64> = (0..n).map(|_| 1e-3 + rng.next_f64() * 10.0).collect();
            let mad_k = 1.0 + rng.next_f64() * 5.0;
            let base = robust_summary(&xs, mad_k).expect("finite samples summarize");
            for round in 0..4 {
                let mut p = xs.clone();
                shuffle(&mut rng, &mut p);
                let s = robust_summary(&p, mad_k).expect("finite samples summarize");
                assert_eq!(s, base, "case {case}.{round}: order changed the summary");
            }
        }
    }

    #[test]
    fn robust_summary_of_finite_inputs_is_finite() {
        let mut rng = Xoshiro256::seed_from_u64(0xF1417E);
        for case in 0..CASES {
            let n = 1 + rng.below(20) as usize;
            // Adversarial magnitudes: zeros, denormal-scale, huge, ties.
            let xs: Vec<f64> = (0..n)
                .map(|_| match rng.below(4) {
                    0 => 0.0,
                    1 => rng.next_f64() * 1e-12,
                    2 => rng.next_f64() * 1e12,
                    _ => 1.0,
                })
                .collect();
            let s = robust_summary(&xs, 3.5).expect("finite input summarizes");
            for (name, v) in [
                ("median", s.median),
                ("mean", s.mean),
                ("std", s.std),
                ("ci95_half", s.ci95_half),
                ("rel_ci", s.rel_ci()),
            ] {
                assert!(v.is_finite(), "case {case}: {name} = {v} not finite");
            }
            assert!(s.used >= 1, "case {case}: the median always survives");
            assert_eq!(s.used + s.rejected, s.n, "case {case}");
            assert!(
                xs.contains(&s.median),
                "case {case}: median must be an observed sample"
            );
        }
    }

    #[test]
    fn non_finite_samples_are_screened_not_propagated() {
        let mut rng = Xoshiro256::seed_from_u64(0x5C12EE);
        for case in 0..CASES {
            let n = 1 + rng.below(10) as usize;
            let mut xs: Vec<f64> = (0..n).map(|_| 1.0 + rng.next_f64()).collect();
            let clean = robust_summary(&xs, 3.5).expect("summary");
            let mut sorted = xs.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            let lower_median = sorted[(n - 1) / 2];
            for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                xs.push(poison);
            }
            shuffle(&mut rng, &mut xs);
            let s = robust_summary(&xs, 3.5).expect("summary");
            assert_eq!(s, clean, "case {case}: poison changed the summary");
            assert_eq!(
                s.median, lower_median,
                "case {case}: median is the lower median of the finite inputs"
            );
            assert!(robust_summary(&[f64::NAN; 3], 3.5).is_none(), "case {case}");
        }
    }
}

/// Engine-level invariants over random instruction scripts.
mod engine_invariants {
    use active_mem::sim::engine::RunLimit;
    use active_mem::sim::prelude::*;
    use active_mem::sim::rng::Xoshiro256;
    use active_mem::sim::stream::ScriptStream;

    const CASES: u64 = 48;

    fn arb_ops(rng: &mut Xoshiro256) -> Vec<Op> {
        let n = 1 + rng.below(299) as usize;
        (0..n)
            .map(|_| match rng.below(3) {
                0 => Op::Load(0x1000_0000 + rng.below(1 << 22)),
                1 => Op::Store(0x1000_0000 + rng.below(1 << 22)),
                _ => Op::Compute(rng.below(200) as u32),
            })
            .collect()
    }

    #[test]
    fn counters_are_hierarchy_consistent() {
        let mut rng = Xoshiro256::seed_from_u64(0xC082);
        for case in 0..CASES {
            let ops = arb_ops(&mut rng);
            let mlp = 1 + rng.below(8) as u8;
            let cfg = MachineConfig::xeon20mb().scaled(0.0625);
            let mut m = Machine::new(cfg);
            let jobs = vec![Job::primary(
                Box::new(ScriptStream::new(ops.clone()).with_mlp(mlp)),
                CoreId::new(0, 0),
            )];
            let r = m.run(jobs, RunLimit::default());
            let c = &r.jobs[0].counters;
            // Every access resolves at exactly one level.
            assert_eq!(c.l1_hits + c.l1_misses, c.loads + c.stores, "case {case}");
            assert_eq!(c.l2_hits + c.l2_misses, c.l1_misses, "case {case}");
            assert_eq!(c.l3_hits + c.l3_misses, c.l2_misses, "case {case}");
            assert_eq!(c.dram_demand_lines, c.l3_misses, "case {case}");
            // Op counts match the script.
            let loads = ops.iter().filter(|o| matches!(o, Op::Load(_))).count() as u64;
            let stores = ops.iter().filter(|o| matches!(o, Op::Store(_))).count() as u64;
            assert_eq!(c.loads, loads, "case {case}");
            assert_eq!(c.stores, stores, "case {case}");
            // Time accounting: the job finished, wall time covers it.
            assert!(r.jobs[0].done, "case {case}");
            assert_eq!(r.wall_cycles, c.cycles, "case {case}");
            // Compute cycles accumulate exactly.
            let compute: u64 = ops
                .iter()
                .filter_map(|o| match o {
                    Op::Compute(x) => Some(*x as u64),
                    _ => None,
                })
                .sum();
            assert_eq!(c.compute_cycles, compute, "case {case}");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let mut rng = Xoshiro256::seed_from_u64(0xDE7E);
        for case in 0..CASES {
            let ops = arb_ops(&mut rng);
            let run = || {
                let cfg = MachineConfig::xeon20mb().scaled(0.0625);
                let mut m = Machine::new(cfg);
                let jobs = vec![Job::primary(
                    Box::new(ScriptStream::new(ops.clone()).with_mlp(4)),
                    CoreId::new(0, 0),
                )];
                m.run(jobs, RunLimit::default())
            };
            let a = run();
            let b = run();
            assert_eq!(a.wall_cycles, b.wall_cycles, "case {case}");
            assert_eq!(
                a.jobs[0].counters.l3_misses, b.jobs[0].counters.l3_misses,
                "case {case}"
            );
            assert_eq!(
                a.sockets[0].dram.writeback_lines, b.sockets[0].dram.writeback_lines,
                "case {case}"
            );
        }
    }

    #[test]
    fn two_core_runs_conserve_events() {
        let mut rng = Xoshiro256::seed_from_u64(0x2C02);
        for case in 0..CASES {
            let ops_a = arb_ops(&mut rng);
            let ops_b = arb_ops(&mut rng);
            let cfg = MachineConfig::xeon20mb().scaled(0.0625);
            let mut m = Machine::new(cfg.clone());
            let jobs = vec![
                Job::primary(Box::new(ScriptStream::new(ops_a)), CoreId::new(0, 0)),
                Job::primary(Box::new(ScriptStream::new(ops_b)), CoreId::new(0, 1)),
            ];
            let r = m.run(jobs, RunLimit::default());
            // Socket demand = sum of the cores' demand lines.
            let demand: u64 = r.jobs.iter().map(|j| j.counters.dram_demand_lines).sum();
            assert_eq!(r.sockets[0].dram.demand_lines, demand, "case {case}");
            // Wall is the max of the two finish times.
            let max_cyc = r.jobs.iter().map(|j| j.counters.cycles).max().unwrap();
            assert_eq!(r.wall_cycles, max_cyc, "case {case}");
            assert!(r.jobs.iter().all(|j| j.done), "case {case}");
        }
    }
}

/// Properties of the single-pass stack-distance engine behind
/// `Executor::run_curve`: random traces against a naive VecDeque
/// LRU-stack simulator, plus the structural invariants (permutation
/// invariance of duplicate-free traces, capacity monotonicity) that hold
/// for any trace.
mod stack_distance {
    use active_mem::sim::rng::Xoshiro256;
    use active_mem::sim::stackdist::{LineTrace, StackDistHistogram};
    use std::collections::VecDeque;

    const CASES: u64 = 48;

    fn arb_trace(rng: &mut Xoshiro256) -> LineTrace {
        let n = 50 + rng.below(450) as usize;
        let span = 4 + rng.below(60);
        let lines = (0..n).map(|_| rng.below(span)).collect();
        let mark = rng.below(n as u64 / 2) as usize;
        LineTrace { lines, mark }
    }

    /// The oracle: an explicit LRU stack of `capacity` lines, counting
    /// measured-phase misses.
    fn deque_miss_rate(trace: &LineTrace, capacity: usize) -> f64 {
        let mut stack: VecDeque<u64> = VecDeque::new();
        let (mut misses, mut total) = (0u64, 0u64);
        for (i, &l) in trace.lines.iter().enumerate() {
            let measured = i >= trace.mark;
            if measured {
                total += 1;
            }
            if let Some(p) = stack.iter().position(|&x| x == l) {
                stack.remove(p);
            } else {
                if measured {
                    misses += 1;
                }
                if capacity == 0 {
                    continue;
                }
                if stack.len() == capacity {
                    stack.pop_back();
                }
            }
            if capacity > 0 {
                stack.push_front(l);
            }
        }
        if total == 0 {
            1.0
        } else {
            misses as f64 / total as f64
        }
    }

    fn shuffle(rng: &mut Xoshiro256, xs: &mut [u64]) {
        for i in (1..xs.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    #[test]
    fn histogram_matches_the_deque_simulator() {
        let mut rng = Xoshiro256::seed_from_u64(0x57D1);
        for case in 0..CASES {
            let t = arb_trace(&mut rng);
            let h = StackDistHistogram::compute(&t, 1.0);
            for cap in 0..=(h.distinct_lines + 3) {
                let fast = h.miss_rate_at_lines(cap);
                let slow = deque_miss_rate(&t, cap as usize);
                assert!(
                    (fast - slow).abs() < 1e-12,
                    "case {case} cap {cap}: {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn miss_rate_is_monotone_non_increasing_in_capacity() {
        let mut rng = Xoshiro256::seed_from_u64(0x57D2);
        for case in 0..CASES {
            let t = arb_trace(&mut rng);
            let h = StackDistHistogram::compute(&t, 1.0);
            let mut prev = 1.0 + 1e-15;
            for cap in 0..=(h.distinct_lines + 3) {
                let mr = h.miss_rate_at_lines(cap);
                assert!((0.0..=1.0).contains(&mr), "case {case} cap {cap}: {mr}");
                assert!(
                    mr <= prev + 1e-15,
                    "case {case}: rate rose at cap {cap} ({prev} -> {mr})"
                );
                prev = mr;
            }
            assert_eq!(h.miss_rate_at_lines(0), 1.0, "case {case}");
        }
    }

    #[test]
    fn duplicate_free_traces_are_permutation_invariant() {
        // With no reuse, every access is a cold miss: the histogram —
        // and hence the curve — cannot depend on access order.
        let mut rng = Xoshiro256::seed_from_u64(0x57D3);
        for case in 0..CASES {
            let n = 10 + rng.below(190);
            let mut lines: Vec<u64> = (0..n).map(|i| i * 17 + 3).collect();
            let base = StackDistHistogram::compute(
                &LineTrace {
                    lines: lines.clone(),
                    mark: 0,
                },
                1.0,
            );
            assert_eq!(base.cold, n, "case {case}: every first touch is cold");
            for round in 0..4 {
                shuffle(&mut rng, &mut lines);
                let h = StackDistHistogram::compute(
                    &LineTrace {
                        lines: lines.clone(),
                        mark: 0,
                    },
                    1.0,
                );
                assert_eq!(h, base, "case {case}.{round}: order changed the histogram");
                assert_eq!(h.miss_rate_at_lines(n + 10), 1.0, "case {case}.{round}");
            }
        }
    }
}

/// QoS-layer invariants: the MISE slowdown estimator as a pure function
/// of its rate samples, and the DRAM token bucket the enforcement loop
/// actuates.
mod qos {
    use active_mem::qos::SlowdownEstimator;
    use active_mem::sim::rng::Xoshiro256;
    use active_mem::sim::{LineThrottle, ThrottleCfg};

    const CASES: u64 = 64;

    /// A random interleaving of shared/alone rate samples, returned as
    /// `(is_alone, rate)` pairs with rates in a benign positive range.
    fn arb_samples(rng: &mut Xoshiro256) -> Vec<(bool, f64)> {
        let n = 8 + rng.below(56) as usize;
        (0..n)
            .map(|_| (rng.below(3) == 0, 1e-4 + rng.next_f64() * 0.02))
            .collect()
    }

    fn feed(samples: &[(bool, f64)], scale: f64) -> SlowdownEstimator {
        let mut e = SlowdownEstimator::new(0.3, 32);
        for &(alone, r) in samples {
            if alone {
                e.observe_alone(r * scale);
            } else {
                e.observe_shared(r * scale);
            }
        }
        e
    }

    /// Slowdown is a *ratio* of rates: multiplying every sample by one
    /// constant (a faster machine, a different rate unit) must not move
    /// the estimate or its confidence interval.
    #[test]
    fn estimator_is_scale_invariant() {
        let mut rng = Xoshiro256::seed_from_u64(0x5CA1E);
        for case in 0..CASES {
            let samples = arb_samples(&mut rng);
            let scale = 10f64.powi(rng.below(7) as i32 - 3); // 1e-3..1e3
            let base = feed(&samples, 1.0);
            let scaled = feed(&samples, scale);
            match (base.estimate(), scaled.estimate()) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert!(
                        (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                        "case {case}: estimate moved under scale {scale}: {a} vs {b}"
                    );
                    let (ca, cb) = (base.ci95_half().unwrap(), scaled.ci95_half().unwrap());
                    assert!(
                        (ca - cb).abs() <= 1e-9 * ca.max(1.0),
                        "case {case}: CI moved under scale {scale}: {ca} vs {cb}"
                    );
                }
                (a, b) => panic!("case {case}: scaling changed definedness: {a:?} vs {b:?}"),
            }
        }
    }

    /// More co-runner pressure can only lower the shared rate; a
    /// pointwise-lower shared-rate history must never yield a *smaller*
    /// slowdown estimate.
    #[test]
    fn estimator_is_monotone_in_contention() {
        let mut rng = Xoshiro256::seed_from_u64(0x40109);
        for case in 0..CASES {
            let samples = arb_samples(&mut rng);
            let squeeze = 0.3 + rng.next_f64() * 0.6; // (0.3, 0.9)
            let mild = feed(&samples, 1.0);
            let mut harsh = SlowdownEstimator::new(0.3, 32);
            for &(alone, r) in &samples {
                if alone {
                    harsh.observe_alone(r);
                } else {
                    harsh.observe_shared(r * squeeze);
                }
            }
            if let (Some(m), Some(h)) = (mild.estimate(), harsh.estimate()) {
                assert!(
                    h >= m - 1e-12,
                    "case {case}: harsher contention lowered the estimate ({m} -> {h})"
                );
            }
        }
    }

    /// An app whose alone rate equals its shared rate is not slowed down:
    /// the estimate must be exactly 1 and the CI must be the systematic
    /// floor (statistical scatter is zero).
    #[test]
    fn estimator_reads_unity_when_unimpeded() {
        let mut rng = Xoshiro256::seed_from_u64(0x0A10E);
        for case in 0..CASES {
            let rate = 1e-4 + rng.next_f64() * 0.02;
            let mut e = SlowdownEstimator::new(0.3, 32);
            for _ in 0..(4 + rng.below(28)) {
                e.observe_shared(rate);
                e.observe_alone(rate);
            }
            let est = e.estimate().unwrap();
            assert!((est - 1.0).abs() < 1e-12, "case {case}: {est}");
            let ci = e.ci95_half().unwrap();
            let floor = SlowdownEstimator::SYS_ERR_FRAC * est;
            assert!(
                (ci - floor).abs() <= 1e-12,
                "case {case}: CI {ci} should sit at the systematic floor {floor}"
            );
        }
    }

    /// The token bucket's defining contract: by any grant time `T`, the
    /// lines granted never exceed the initial burst plus the sustained
    /// rate integrated over `[0, T]` — no schedule of blocking fetches
    /// and opportunistic prefetches can beat the configured bandwidth.
    #[test]
    fn throttle_never_exceeds_its_line_budget() {
        let mut rng = Xoshiro256::seed_from_u64(0x7B0CE7);
        for case in 0..CASES {
            let cfg = ThrottleCfg {
                lines_per_kilocycle: 1 + rng.below(50) as u32,
                burst_lines: 1 + rng.below(16) as u32,
            };
            let mut th = LineThrottle::new(cfg);
            let mut now = 0u64;
            let mut granted = 0u64;
            let mut last_grant = 0u64;
            for _ in 0..(50 + rng.below(250)) {
                now += rng.below(200);
                if rng.below(4) == 0 {
                    if th.try_acquire(now) {
                        granted += 1;
                        last_grant = last_grant.max(now);
                    }
                } else {
                    let wait = th.acquire(now);
                    granted += 1;
                    last_grant = last_grant.max(now + wait);
                    // The core stalls for the wait; time cannot run
                    // backwards past the grant.
                    now += wait;
                }
                // Credit available by `last_grant`: the full initial
                // bucket plus rate × elapsed, 1000 units per line.
                let budget_units =
                    cfg.burst_lines as u64 * 1000 + last_grant * cfg.lines_per_kilocycle as u64;
                assert!(
                    granted * 1000 <= budget_units,
                    "case {case}: {granted} lines by cycle {last_grant} exceeds budget \
                     ({} lines/kcyc, burst {})",
                    cfg.lines_per_kilocycle,
                    cfg.burst_lines
                );
            }
        }
    }
}

/// Properties of the conformance reference interpreter that hold by
/// construction of an ideal cache, independent of the production
/// implementation — so they check the *reference itself* is sane before
/// it is trusted as a differential oracle.
mod reference_cache {
    use super::*;
    use active_mem::conformance::RefCache;
    use std::collections::VecDeque;

    fn arb_lines(rng: &mut Xoshiro256, n: usize, span: u64) -> Vec<u64> {
        (0..n).map(|_| rng.below(span)).collect()
    }

    fn count_hits(cache: &mut RefCache, trace: &[u64]) -> u64 {
        let mut hits = 0;
        for &line in trace {
            if cache.lookup(line, false) {
                hits += 1;
            } else {
                cache.fill(line, false);
            }
        }
        hits
    }

    #[test]
    fn shrinking_associativity_never_increases_hits() {
        // The LRU inclusion (stack) property: with the same set mapping,
        // a w-way LRU cache's contents are a superset of the (w-1)-way
        // cache's at every step, so total hits are monotone in ways.
        let mut rng = Xoshiro256::seed_from_u64(0x57AC);
        for case in 0..CASES {
            let sets = 1 + rng.below(7) as u32; // non-pow2 welcome
            let span = (sets as u64) * 16;
            let trace = arb_lines(&mut rng, 600, span);
            let mut prev = None;
            for ways in 1..=8u32 {
                let mut c =
                    RefCache::with_geometry(sets, ways, Replacement::Lru, InsertPolicy::Mru, false);
                let hits = count_hits(&mut c, &trace);
                if let Some(p) = prev {
                    assert!(
                        hits >= p,
                        "case {case}: {ways} ways got {hits} hits, {} ways got {p}",
                        ways - 1
                    );
                }
                prev = Some(hits);
            }
        }
    }

    #[test]
    fn zero_capacity_means_all_misses() {
        let mut rng = Xoshiro256::seed_from_u64(0x0CAB);
        for case in 0..CASES {
            let sets = 1 + rng.below(8) as u32;
            let mut c =
                RefCache::with_geometry(sets, 0, Replacement::Lru, InsertPolicy::Mru, false);
            let trace = arb_lines(&mut rng, 200, 64);
            assert_eq!(count_hits(&mut c, &trace), 0, "case {case}");
            assert_eq!(c.occupancy(), 0, "case {case}");
        }
    }

    #[test]
    fn single_set_lru_matches_deque_oracle() {
        // A fully-associative LRU/MRU-insert cache is exactly a
        // recency-ordered list: hit iff present (move to front), miss
        // inserts at front and evicts the back when full.
        let mut rng = Xoshiro256::seed_from_u64(0xDE90);
        for case in 0..CASES {
            let ways = 1 + rng.below(24) as u32;
            let mut c =
                RefCache::with_geometry(1, ways, Replacement::Lru, InsertPolicy::Mru, false);
            let mut oracle: VecDeque<u64> = VecDeque::new();
            let trace = arb_lines(&mut rng, 500, ways as u64 * 3);
            for (i, &line) in trace.iter().enumerate() {
                let hit = c.lookup(line, false);
                let oracle_hit = oracle.contains(&line);
                assert_eq!(hit, oracle_hit, "case {case} access {i} line {line}");
                if hit {
                    let pos = oracle.iter().position(|&l| l == line).unwrap();
                    oracle.remove(pos);
                } else {
                    c.fill(line, false);
                    if oracle.len() == ways as usize {
                        oracle.pop_back();
                    }
                }
                oracle.push_front(line);
                assert_eq!(c.occupancy(), oracle.len() as u64, "case {case} access {i}");
            }
        }
    }
}
