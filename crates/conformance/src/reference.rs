//! The reference hierarchy: obviously-correct twins of the SoA models,
//! and the parts the reference machine ([`crate::refmachine`]) is built
//! from.
//!
//! Everything here is written the way one would explain the hardware on a
//! whiteboard: one struct per cache way, linear scans, no memos, no
//! bitmask tricks, no prefetch hints kept between calls. What it *does*
//! keep, deliberately and exactly, is the **replacement contract** of
//! [`amem_sim::cache::Cache`]: the same tick renormalization (by rank), the same
//! probation-bit stamp encoding, the same insertion-policy stamps, the
//! same RNG draw order (Random-victim draw before the BIP ε draw), the
//! same first-minimum tie-breaks, and the same CAT way masks (a partial
//! mask only ever meets an L3 of at most 32 ways; the engine refuses it
//! on a wider one). Matching the contract is the point: the fuzzer
//! asserts *event-for-event equality*, so the reference must be a second
//! implementation of the same specification, not a different
//! specification.
//!
//! The `stamp` encoding is shared with the SoA cache: real recency ticks
//! live below bit 31 and the probation bit (bit 31) marks BIP-probation
//! lines, so a single `stamp ^ PROB_BIT` min-scan picks victims in both
//! worlds.

use std::collections::{BTreeMap, BTreeSet};

use amem_sim::cache::{Eviction, InsertPolicy, Replacement, NO_LINK};
use amem_sim::config::CacheConfig;
use amem_sim::prefetch::PrefetchRequests;
use amem_sim::rng::SplitMix64;
use amem_sim::tlb::TlbConfig;

const EMPTY: u64 = u64::MAX;
const PROB_BIT: u32 = 1 << 31;
const BIP_EPSILON_INV: u64 = 16;
/// Lines per 4 KiB page with 64-byte lines (prefetcher page granularity).
const LINES_PER_PAGE_SHIFT: u32 = 6;
/// Stride-detector table entries, matching the production prefetcher.
const PF_TABLE: usize = 16;

/// Whether CAT mask `way_mask` lets a fill allocate into way `w`. A
/// partial mask only meets an L3 of at most 32 ways, so `w < 32` there.
fn way_allowed(way_mask: u32, w: usize) -> bool {
    way_mask == u32::MAX || way_mask & (1 << w) != 0
}

/// One cache way: everything the model tracks about a resident line.
#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    /// Recency stamp (LRU tick or MRU bit) with [`PROB_BIT`] on top.
    stamp: u32,
    dirty: bool,
    sharers: u32,
    present: u32,
}

impl Way {
    fn empty() -> Self {
        Self {
            tag: EMPTY,
            stamp: 0,
            dirty: false,
            sharers: 0,
            present: 0,
        }
    }
}

/// The reference set-associative cache: array-of-structs, scalar scans.
#[derive(Debug, Clone)]
pub struct RefCache {
    sets: u32,
    ways: u32,
    /// Ways a lookup scans: `ways`, or fewer with
    /// [`RefFault::WayScanOffByOne`](crate::refmachine::RefFault) planted.
    scan_ways: u32,
    hash_sets: bool,
    replacement: Replacement,
    insert: InsertPolicy,
    entries: Vec<Way>,
    track_ownership: bool,
    tick: u32,
    rng: SplitMix64,
    filled: u64,
}

impl RefCache {
    pub fn new(cfg: &CacheConfig) -> Self {
        assert!(cfg.sets() > 0, "cache must have at least one set");
        assert!(cfg.ways > 0, "cache must have at least one way");
        Self::with_geometry(
            cfg.sets(),
            cfg.ways,
            cfg.replacement,
            cfg.insert,
            cfg.hash_sets,
        )
    }

    /// Build from raw geometry. Unlike the production cache this accepts
    /// `ways == 0` — a capacity-zero cache where every lookup misses and
    /// every fill is dropped — which the property tests use as the
    /// degenerate end of the associativity-monotonicity ladder.
    pub fn with_geometry(
        sets: u32,
        ways: u32,
        replacement: Replacement,
        insert: InsertPolicy,
        hash_sets: bool,
    ) -> Self {
        assert!(sets > 0, "cache must have at least one set");
        Self {
            sets,
            ways,
            scan_ways: ways,
            hash_sets,
            replacement,
            insert,
            entries: vec![Way::empty(); sets as usize * ways as usize],
            track_ownership: true,
            tick: 1,
            // Same embedded generator and seed as the production cache:
            // Random replacement and the BIP ε draw must consume the
            // identical stream for event equality to hold.
            rng: SplitMix64::new(0x5EED_CAFE),
            filled: 0,
        }
    }

    pub fn without_ownership(mut self) -> Self {
        self.track_ownership = false;
        self
    }

    /// Make lookups scan only the first `ways` ways of a set — the
    /// classic way-scan off-by-one when `ways` is one short. Fills,
    /// invalidations and presence checks still see the whole set.
    pub(crate) fn with_scan_ways(mut self, ways: u32) -> Self {
        self.scan_ways = ways;
        self
    }

    pub fn capacity_lines(&self) -> u64 {
        self.sets as u64 * self.ways as u64
    }

    fn set_of(&self, line: u64) -> usize {
        let line = if self.hash_sets {
            line ^ (line >> 11) ^ (line >> 23)
        } else {
            line
        };
        // Plain modulo everywhere: for power-of-two set counts this is
        // bit-identical to the production mask path.
        (line % self.sets as u64) as usize
    }

    fn base(&self, set: usize) -> usize {
        set * self.ways as usize
    }

    fn set(&self, line: u64) -> std::ops::Range<usize> {
        let b = self.base(self.set_of(line));
        b..b + self.ways as usize
    }

    fn bump_tick(&mut self) -> u32 {
        if self.tick == PROB_BIT - 1 {
            // Out of recency bits: every stamp's recency becomes its rank
            // among the distinct recencies in the cache (order and ties
            // kept), its probation bit stays, and the tick resumes above
            // the highest rank.
            let distinct: BTreeSet<u32> =
                self.entries.iter().map(|w| w.stamp & !PROB_BIT).collect();
            let rank: BTreeMap<u32, u32> = distinct.into_iter().zip(0..).collect();
            for w in self.entries.iter_mut() {
                w.stamp = (w.stamp & PROB_BIT) | rank[&(w.stamp & !PROB_BIT)];
            }
            self.tick = rank.len() as u32 - 1;
        }
        self.tick += 1;
        self.tick
    }

    /// Index of a present line, or `None`. A plain two-level search — the
    /// production cache's one-entry memo is precisely the kind of state
    /// this implementation refuses to carry.
    fn find(&self, line: u64) -> Option<usize> {
        if self.ways == 0 {
            return None;
        }
        self.set(line).find(|&i| self.entries[i].tag == line)
    }

    fn touch_entry(&mut self, base: usize, w: usize) {
        match self.replacement {
            Replacement::Lru => {
                let t = self.bump_tick();
                self.entries[base + w].stamp = t;
            }
            Replacement::BitPlru => {
                self.entries[base + w].stamp = 1;
                let ways = self.ways as usize;
                let all_set = (0..ways).all(|i| self.entries[base + i].stamp & !PROB_BIT == 1);
                if all_set {
                    for i in 0..ways {
                        self.entries[base + i].stamp &= PROB_BIT;
                    }
                    self.entries[base + w].stamp = 1;
                }
            }
            Replacement::Random => {
                self.entries[base + w].stamp &= !PROB_BIT;
            }
        }
    }

    pub fn lookup(&mut self, line: u64, store: bool) -> bool {
        if self.ways == 0 {
            return false;
        }
        let base = self.base(self.set_of(line));
        let hit = (0..self.scan_ways as usize).find(|&w| self.entries[base + w].tag == line);
        match hit {
            Some(w) => {
                self.touch_entry(base, w);
                if store {
                    self.entries[base + w].dirty = true;
                }
                true
            }
            None => false,
        }
    }

    pub fn fill(&mut self, line: u64, dirty: bool) -> Option<Eviction> {
        self.fill_masked(line, dirty, None, u32::MAX)
    }

    pub fn fill_masked(
        &mut self,
        line: u64,
        dirty: bool,
        insert_override: Option<InsertPolicy>,
        way_mask: u32,
    ) -> Option<Eviction> {
        if self.ways == 0 {
            return None;
        }
        let ways = self.ways as usize;
        let base = self.base(self.set_of(line));

        let mut hit = None;
        let mut free = None;
        for w in 0..ways {
            let tag = self.entries[base + w].tag;
            if tag == line {
                hit = Some(w);
                break;
            }
            if tag == EMPTY && free.is_none() && way_allowed(way_mask, w) {
                free = Some(w);
            }
        }
        if let Some(w) = hit {
            // A fill of a present line degenerates to a recency touch.
            self.touch_entry(base, w);
            self.entries[base + w].dirty |= dirty;
            return None;
        }

        let (w, evicted) = match free {
            Some(w) => (w, None),
            None => {
                let w = self.pick_victim_masked(base, way_mask);
                let e = &self.entries[base + w];
                let ev = Eviction {
                    line: e.tag,
                    dirty: e.dirty,
                    present: if self.track_ownership { e.present } else { 0 },
                    // The reference keeps no up-links.
                    link: NO_LINK,
                };
                (w, Some(ev))
            }
        };
        if evicted.is_none() {
            self.filled += 1;
        }
        self.entries[base + w].tag = line;
        self.entries[base + w].dirty = dirty;
        if self.track_ownership {
            self.entries[base + w].sharers = 0;
            self.entries[base + w].present = 0;
        }
        let mut policy = insert_override.unwrap_or(self.insert);
        // BIP ε-promotion. This draw must come AFTER any Random-victim
        // draw (both share the cache's RNG stream).
        if policy == InsertPolicy::Lru && self.rng.below(BIP_EPSILON_INV) == 0 {
            policy = InsertPolicy::Mru;
        }
        let mut st = self.insert_stamp(base, w, policy);
        if policy == InsertPolicy::Lru {
            st |= PROB_BIT;
        }
        self.entries[base + w].stamp = st;
        evicted
    }

    /// Recency stamp for a fresh insertion (the new tag is already in
    /// place at way `w`; mid-stack insertion scans the *other* ways).
    fn insert_stamp(&mut self, base: usize, w: usize, insert: InsertPolicy) -> u32 {
        match self.replacement {
            Replacement::Lru => {
                let t = self.bump_tick();
                match insert {
                    InsertPolicy::Mru | InsertPolicy::Lru => t,
                    InsertPolicy::Mid => {
                        let mut oldest = t;
                        for i in 0..self.ways as usize {
                            if i != w && self.entries[base + i].tag != EMPTY {
                                oldest = oldest.min(self.entries[base + i].stamp & !PROB_BIT);
                            }
                        }
                        oldest / 2 + t / 2
                    }
                }
            }
            Replacement::BitPlru => match insert {
                InsertPolicy::Mru | InsertPolicy::Mid => 1,
                InsertPolicy::Lru => 0,
            },
            Replacement::Random => 0,
        }
    }

    fn pick_victim_masked(&mut self, base: usize, way_mask: u32) -> usize {
        let ways = self.ways as usize;
        let allowed = |w: usize| way_allowed(way_mask, w);
        match self.replacement {
            Replacement::Lru => {
                // First strict minimum of `stamp ^ PROB_BIT`: oldest
                // probation line first, then plain LRU.
                let mut pick = None;
                for w in 0..ways {
                    if !allowed(w) {
                        continue;
                    }
                    let key = self.entries[base + w].stamp ^ PROB_BIT;
                    if pick.is_none_or(|(_, bk)| key < bk) {
                        pick = Some((w, key));
                    }
                }
                pick.expect("mask allows at least one way").0
            }
            Replacement::BitPlru => {
                for w in 0..ways {
                    if allowed(w) && self.entries[base + w].stamp & !PROB_BIT == 0 {
                        return w;
                    }
                }
                (0..ways).find(|&w| allowed(w)).unwrap_or(0)
            }
            Replacement::Random => loop {
                let w = self.rng.below(ways as u64) as usize;
                if allowed(w) {
                    return w;
                }
            },
        }
    }

    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let i = self.find(line)?;
        let d = self.entries[i].dirty;
        self.entries[i] = Way::empty();
        self.filled -= 1;
        Some(d)
    }

    pub fn mark_dirty(&mut self, line: u64) -> bool {
        match self.find(line) {
            Some(i) => {
                self.entries[i].dirty = true;
                true
            }
            None => false,
        }
    }

    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    pub fn add_sharer(&mut self, line: u64, core: u32) {
        if let Some(i) = self.find(line) {
            self.entries[i].sharers |= 1 << core;
        }
    }

    pub fn sharers(&self, line: u64) -> u32 {
        self.find(line)
            .map(|i| self.entries[i].sharers)
            .unwrap_or(0)
    }

    pub fn set_exclusive(&mut self, line: u64, core: u32) {
        if let Some(i) = self.find(line) {
            self.entries[i].sharers = 1 << core;
        }
    }

    pub fn note_present(&mut self, line: u64, core: u32) {
        if let Some(i) = self.find(line) {
            self.entries[i].present |= 1 << core;
        }
    }

    pub fn occupancy(&self) -> u64 {
        self.filled
    }

    pub fn occupancy_in(&self, lo: u64, hi: u64) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.tag != EMPTY && e.tag >= lo && e.tag < hi)
            .count() as u64
    }
}

/// The reference TLB: fully associative, true LRU, a vector of
/// (page, last-use) pairs.
#[derive(Debug, Clone)]
pub struct RefTlb {
    cfg: TlbConfig,
    page_shift: u32,
    entries: Vec<(u64, u64)>,
    tick: u64,
}

impl RefTlb {
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(cfg.page_bytes.is_power_of_two());
        Self {
            cfg,
            page_shift: cfg.page_bytes.trailing_zeros(),
            entries: Vec::new(),
            tick: 0,
        }
    }

    pub fn access(&mut self, addr: u64) -> u32 {
        if !self.cfg.is_enabled() {
            return 0;
        }
        let page = addr >> self.page_shift;
        self.tick += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == page) {
            e.1 = self.tick;
            return 0;
        }
        if self.entries.len() < self.cfg.entries as usize {
            self.entries.push((page, self.tick));
        } else {
            // First strict-minimum stamp, matching the production
            // tie-break.
            let mut idx = 0;
            for (i, e) in self.entries.iter().enumerate().skip(1) {
                if e.1 < self.entries[idx].1 {
                    idx = i;
                }
            }
            self.entries[idx] = (page, self.tick);
        }
        self.cfg.walk_cycles
    }
}

/// One stride-detector entry of the reference prefetcher.
#[derive(Debug, Clone, Copy)]
struct PfEntry {
    /// Page number (line >> 6); 0 doubles as "empty" exactly as in the
    /// production table (the allocator never hands out page 0).
    page: u64,
    last_line: u64,
    stride: i64,
    confidence: u8,
    lru: u64,
}

impl PfEntry {
    fn empty() -> Self {
        Self {
            page: 0,
            last_line: 0,
            stride: 0,
            confidence: 0,
            lru: 0,
        }
    }
}

/// The reference stride prefetcher: an array of whole entries, stamped
/// by a tick that never wraps. (The production table's `u32` tick
/// rank-compresses its stamps before it would wrap; the fuzzer holds it
/// to this.)
#[derive(Debug, Clone)]
pub struct RefPrefetcher {
    table: [PfEntry; PF_TABLE],
    tick: u64,
    degree: u32,
    enabled: bool,
}

impl RefPrefetcher {
    pub fn new(enabled: bool, degree: u32) -> Self {
        assert!(degree <= 4, "PrefetchRequests holds at most 4");
        Self {
            table: [PfEntry::empty(); PF_TABLE],
            tick: 0,
            degree,
            enabled,
        }
    }

    pub fn observe(&mut self, line: u64) -> PrefetchRequests {
        let mut out = PrefetchRequests::default();
        if !self.enabled {
            return out;
        }
        self.tick += 1;
        let page = line >> LINES_PER_PAGE_SHIFT;
        match self.table.iter().position(|e| e.page == page) {
            Some(i) => {
                // Recency first, then training — same order as production
                // (a zero stride still refreshes the entry's LRU stamp).
                self.table[i].lru = self.tick;
                let stride = line as i64 - self.table[i].last_line as i64;
                if stride == 0 {
                    return out;
                }
                if stride == self.table[i].stride {
                    self.table[i].confidence = self.table[i].confidence.saturating_add(1);
                } else {
                    self.table[i].stride = stride;
                    self.table[i].confidence = 0;
                }
                self.table[i].last_line = line;
                if self.table[i].confidence >= 1 {
                    for k in 1..=self.degree as i64 {
                        let target = line as i64 + stride * k;
                        if target < 0 {
                            break;
                        }
                        let target = target as u64;
                        if target >> LINES_PER_PAGE_SHIFT != page {
                            break;
                        }
                        out.lines[out.n] = target;
                        out.n += 1;
                    }
                }
            }
            None => {
                // First empty slot, else the first strict-minimum LRU
                // stamp among occupied entries.
                let victim = match self.table.iter().position(|e| e.page == 0) {
                    Some(e) => e,
                    None => {
                        let mut victim = 0;
                        let mut oldest = u64::MAX;
                        for (i, e) in self.table.iter().enumerate() {
                            if e.lru < oldest {
                                oldest = e.lru;
                                victim = i;
                            }
                        }
                        victim
                    }
                };
                self.table[victim] = PfEntry {
                    page,
                    last_line: line,
                    stride: 0,
                    confidence: 0,
                    lru: self.tick,
                };
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amem_sim::cache::Cache;

    fn cfg(ways: u32, total_lines: u64, repl: Replacement, ins: InsertPolicy) -> CacheConfig {
        CacheConfig {
            size_bytes: total_lines * 64,
            line_bytes: 64,
            ways,
            latency: 1,
            replacement: repl,
            insert: ins,
            hash_sets: false,
        }
    }

    /// Drive the SoA cache and the reference through an identical random
    /// call sequence and compare every observable return value. This is a
    /// unit-level dry run of what the fuzzer does through the engine.
    fn lockstep(c: CacheConfig, seed: u64, calls: usize, footprint: u64) {
        let mut soa = Cache::new(&c);
        let mut r = RefCache::new(&c);
        let mut rng = amem_sim::rng::Xoshiro256::seed_from_u64(seed);
        for step in 0..calls {
            let line = 1 + rng.below(footprint);
            match rng.below(6) {
                0 | 1 => {
                    let store = rng.below(3) == 0;
                    assert_eq!(
                        soa.lookup(line, store),
                        r.lookup(line, store),
                        "lookup({line}) diverged at step {step}"
                    );
                }
                2 | 3 => {
                    let dirty = rng.below(4) == 0;
                    let hint = match rng.below(4) {
                        0 => Some(InsertPolicy::Lru),
                        1 => Some(InsertPolicy::Mid),
                        _ => None,
                    };
                    assert_eq!(
                        soa.fill_masked(line, dirty, hint, u32::MAX),
                        r.fill_masked(line, dirty, hint, u32::MAX),
                        "fill({line}) diverged at step {step}"
                    );
                }
                4 => {
                    assert_eq!(
                        soa.invalidate(line),
                        r.invalidate(line),
                        "invalidate({line}) diverged at step {step}"
                    );
                }
                _ => {
                    assert_eq!(soa.contains(line), r.contains(line), "step {step}");
                    assert_eq!(soa.mark_dirty(line), r.mark_dirty(line), "step {step}");
                }
            }
            assert_eq!(soa.occupancy(), r.occupancy(), "occupancy at step {step}");
        }
        assert_eq!(
            soa.occupancy_in(0, footprint + 1),
            r.occupancy_in(0, footprint + 1)
        );
    }

    #[test]
    fn lockstep_lru_mru_pow2() {
        lockstep(
            cfg(4, 64, Replacement::Lru, InsertPolicy::Mru),
            1,
            6000,
            200,
        );
    }

    #[test]
    fn lockstep_lru_bip_nonpow2_sets() {
        // 3 sets of 4 ways: the modulo path, with probation churn.
        lockstep(cfg(4, 12, Replacement::Lru, InsertPolicy::Lru), 2, 6000, 64);
    }

    #[test]
    fn lockstep_bitplru_mid() {
        lockstep(
            cfg(8, 64, Replacement::BitPlru, InsertPolicy::Mid),
            3,
            6000,
            160,
        );
    }

    #[test]
    fn lockstep_random_replacement_shares_rng_stream() {
        lockstep(
            cfg(4, 32, Replacement::Random, InsertPolicy::Mru),
            4,
            6000,
            96,
        );
    }

    #[test]
    fn lockstep_wide_fully_associative() {
        // 1 set × 96 ways: the >64-way scalar path on the SoA side.
        lockstep(
            cfg(96, 96, Replacement::Lru, InsertPolicy::Mru),
            5,
            4000,
            300,
        );
    }

    #[test]
    fn lockstep_hashed_sets() {
        let mut c = cfg(4, 256, Replacement::Lru, InsertPolicy::Mru);
        c.hash_sets = true;
        lockstep(c, 6, 6000, 4096);
    }

    #[test]
    fn lockstep_masked_fills() {
        // CAT partitions: compare fills restricted to way subsets.
        let c = cfg(8, 64, Replacement::Lru, InsertPolicy::Mru);
        let mut soa = Cache::new(&c);
        let mut r = RefCache::new(&c);
        let mut rng = amem_sim::rng::Xoshiro256::seed_from_u64(9);
        for step in 0..4000 {
            let line = 1 + rng.below(160);
            let mask = match rng.below(3) {
                0 => 0x0F,
                1 => 0xF0,
                _ => u32::MAX,
            };
            assert_eq!(
                soa.fill_masked(line, false, None, mask),
                r.fill_masked(line, false, None, mask),
                "masked fill({line}, {mask:#x}) diverged at step {step}"
            );
        }
    }

    #[test]
    fn zero_way_cache_never_hits() {
        let mut c = RefCache::with_geometry(4, 0, Replacement::Lru, InsertPolicy::Mru, false);
        for l in 0..64u64 {
            assert!(!c.lookup(l, false));
            assert!(c.fill(l, false).is_none());
            assert!(!c.contains(l));
        }
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn truncated_scan_misses_last_way() {
        // The way-scan fault: a (ways-1)-wide lookup scan must miss a
        // line that lives in the last way.
        let c = cfg(4, 4, Replacement::Lru, InsertPolicy::Mru);
        let mut r = RefCache::new(&c);
        let mut short = RefCache::new(&c).with_scan_ways(3);
        for l in 0..4u64 {
            r.fill(l, false);
            short.fill(l, false);
        }
        // Line 3 landed in way 3 (fills walk free ways in order).
        assert!(r.lookup(3, false));
        assert!(!short.lookup(3, false), "truncated scan must miss way 3");
        assert!(short.lookup(2, false) && short.contains(3));
    }

    #[test]
    fn ref_lru_order_survives_the_tick_renormalisation() {
        // The production cache's `lru_order_survives_the_tick_
        // renormalisation`, on the reference: line 2 stays the LRU line
        // of set 0 when the tick runs out of bits after line 0's touch.
        for start in [1, PROB_BIT - 4] {
            let mut r = RefCache::new(&cfg(2, 4, Replacement::Lru, InsertPolicy::Mru));
            r.tick = start;
            r.fill(0, false);
            r.fill(2, false);
            assert!(r.lookup(0, false));
            r.fill(1, false);
            let ev = r.fill(4, false).expect("set 0 is full");
            assert_eq!(ev.line, 2, "tick started at {start:#x}");
        }
    }

    #[test]
    fn ref_prefetcher_lru_survives_the_u32_boundary() {
        // The production prefetcher's boundary case: sixteen pages
        // allocated across tick 2^32, page 1 re-touched; the next two
        // allocations replace pages 2 and 3.
        let mut r = RefPrefetcher::new(true, 2);
        r.tick = u32::MAX as u64 - 8;
        let page = |p: u64| p << LINES_PER_PAGE_SHIFT;
        for p in 1..=16 {
            r.observe(page(p));
        }
        r.observe(page(1) + 1);
        r.observe(page(17));
        r.observe(page(18));
        let mut pages: Vec<u64> = r.table.iter().map(|e| e.page).collect();
        pages.sort_unstable();
        let want: Vec<u64> = [1].into_iter().chain(4..=18).collect();
        assert_eq!(pages, want);
    }

    #[test]
    fn ref_tlb_matches_production() {
        let cfg = TlbConfig::xeon_dtlb();
        let mut a = amem_sim::tlb::Tlb::new(cfg);
        let mut b = RefTlb::new(cfg);
        let mut rng = amem_sim::rng::Xoshiro256::seed_from_u64(11);
        for i in 0..20_000 {
            let addr = 0x4000_0000 + rng.below(200) * 4096 + rng.below(4096);
            assert_eq!(a.access(addr), b.access(addr), "tlb diverged at {i}");
        }
    }

    #[test]
    fn ref_prefetcher_matches_production() {
        let mut a = amem_sim::prefetch::Prefetcher::new(true, 4);
        let mut b = RefPrefetcher::new(true, 4);
        let mut rng = amem_sim::rng::Xoshiro256::seed_from_u64(13);
        let mut cursor = 1u64 << 20;
        for i in 0..20_000 {
            // Mix of runs (trains strides) and jumps (allocates entries).
            let line = if rng.below(4) == 0 {
                cursor = (1 << 20) + rng.below(1 << 16);
                cursor
            } else {
                let delta: i64 = [1, 1, 2, -1][rng.below(4) as usize];
                cursor = cursor.wrapping_add(delta as u64).max(1 << 19);
                cursor
            };
            let ra = a.observe(line);
            let rb = b.observe(line);
            assert_eq!(ra.n, rb.n, "prefetch count diverged at {i}");
            assert_eq!(
                ra.lines[..ra.n],
                rb.lines[..rb.n],
                "prefetch lines diverged at {i}"
            );
        }
    }
}
