//! Set-associative cache model with pluggable replacement and insertion.
//!
//! Tags are full line numbers (byte address >> line shift); the cache never
//! stores data, only presence, recency and dirtiness, which is all the
//! memory-resource experiments observe.
//!
//! Replacement policies:
//!
//! * [`Replacement::Lru`] — true LRU via per-entry stamps (the default, and
//!   the policy the paper's analytic model effectively assumes).
//! * [`Replacement::BitPlru`] — MRU-bit pseudo-LRU, a common hardware
//!   approximation that works for any associativity (the 20-way L3 has no
//!   clean binary tree). Exercised by the conformance fuzz geometries.
//! * [`Replacement::Random`] — random victim, the worst-case baseline.
//!
//! Insertion policies model where a *newly filled* line lands in the
//! recency order. The shipped Xeon20MB preset uses classic MRU insertion:
//! combined with hashed set-indexing, the rate competition between a
//! frequently re-touched working set and a streamer already reproduces the
//! paper's orthogonality result (Fig. 8). [`InsertPolicy::Mid`] (mid-stack)
//! and [`InsertPolicy::Lru`] (BIP-style probation with ε-promotion) are
//! alternative LLC policies exercised by the conformance fuzz geometries.
//!
//! Fills can additionally be restricted to a subset of ways
//! ([`Cache::fill_masked`]) — Intel CAT-style way partitioning.
//!
//! ## Hot-path layout
//!
//! This structure is the simulator's innermost data structure: every
//! simulated access scans one set in up to three cache instances. All
//! metadata lives in parallel structure-of-arrays slices (`tags`,
//! `stamp`, `dirty`, `sharers`, `present`) indexed by
//! `set * ways + way`, so a set scan walks one contiguous `ways`-wide
//! window per array. Every tag scan (`lookup`, `fill_masked`, `find`)
//! is one call to `setscan::set_masks` and the LRU victim one call to
//! `setscan::first_min_way`: fixed-width AVX2 kernels at 8, 16 and 20
//! ways, the scalar loops they are tested against everywhere else (see
//! that module; sets wider than 64 ways keep an early-exit scan here).
//! The probation flag lives in the stamp's high bit (`PROB_BIT`):
//! probation lines sort below promoted ones under `stamp ^ PROB_BIT`, so
//! LRU victim selection is a single first-minimum over the stamp window
//! with no second flag array. The power-of-two/modulo
//! choice for set indexing is made once at construction (all shipped
//! configs are powers of two and take the mask path); a per-set valid
//! count lets probe-style calls (`contains`, `invalidate`, `mark_dirty`)
//! skip empty sets; a one-entry index memo short-circuits the repeated
//! lookup→fill→sharer sequences the engine performs on the same line;
//! a miss memo carries the set scan a missing `lookup` already did
//! into the `fill` that follows it, so the engine's
//! lookup-miss-then-fill sequence scans each set once; and private
//! caches carry one advisory up-link per entry (`up`: where the same
//! line sat one level up when it was filled), so the probe calls the
//! engine makes *about a line it has already located* (`sharers_at`,
//! `set_exclusive_at`, `mark_dirty_at`) are one tag compare at the link
//! instead of a set scan. A link is only ever trusted after
//! `tags[link] == line` — tags are full line numbers, so that compare
//! IS the line — and every hinted call falls back to `find` otherwise:
//! a stale, wrong or out-of-range link costs a scan, never an answer.
//! The same compare lets a store `lookup` answer from the index memo
//! (the load of a `buf[i]++` left it on the line).
//!
//! The methods the engine calls once or more per simulated access are
//! `#[inline(always)]`: without it LLVM keeps them out of line, and the
//! calls cost more than the bodies (DESIGN.md §9, "One compiled demand
//! walk").

use serde::{Deserialize, Serialize};

use crate::config::CacheConfig;
use crate::rng::SplitMix64;
use crate::setscan::{first_min_way, first_min_way_masked, set_masks};

/// Victim-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Replacement {
    /// True least-recently-used.
    Lru,
    /// MRU-bit pseudo-LRU (set bit on touch; victim = first clear bit;
    /// clear all other bits when the last one sets).
    BitPlru,
    /// Uniformly random victim.
    Random,
}

/// Recency position given to a newly inserted line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InsertPolicy {
    /// Insert at most-recently-used (classic LRU insertion).
    Mru,
    /// Insert mid-stack; promoted to MRU only on re-reference.
    Mid,
    /// Insert **on probation** (BIP-like): the line is marked as a
    /// streaming candidate and victim selection prefers the oldest
    /// probation line over everything else. A set full of re-referenced
    /// (promoted) data loses at most its leftover ways to a streamer; a
    /// streamer alone churns the whole set FIFO and hits nothing. This is
    /// how real LLC adaptive insertion (DIP/BIP) lets BWThr miss 100%
    /// while co-running working sets stay resident.
    Lru,
}

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line number of the evicted line.
    pub line: u64,
    /// Whether the evicted copy was dirty at this level.
    pub dirty: bool,
    /// Engine-maintained presence mask of the evicted entry (see
    /// [`Cache::note_present`]): a superset of the cores whose private
    /// caches may still hold the line. Always 0 for private caches.
    pub present: u32,
    /// The evicted entry's up-link (see [`Cache::fill_linked`]): where
    /// the line sat one level up when it was filled here. Advisory —
    /// only meaningful to the `*_at` calls, which validate it.
    /// [`NO_LINK`] for caches that keep none.
    pub link: u32,
}

/// "No link": an entry index no cache has, so every hinted call given it
/// takes the unhinted path.
pub const NO_LINK: u32 = u32::MAX;

const EMPTY: u64 = u64::MAX;

/// Probation flag, folded into the stamp's high bit. Real recency stamps
/// stay below this (the tick renormalizes, by rank, at 31 bits), and
/// `stamp ^ PROB_BIT` yields a victim-selection key where every probation
/// line sorts below every promoted line, oldest first within each group.
const PROB_BIT: u32 = 1 << 31;

/// "No free way" sentinel for the miss memo.
const NO_WAY: u32 = u32::MAX;

/// 1/ε of BIP: one in this many probation fills is promoted to a regular
/// (MRU) insertion.
const BIP_EPSILON_INV: u64 = 16;

/// One set-associative cache instance.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: u32,
    ways: u32,
    hash_sets: bool,
    /// Checked once at construction: shipped configs always have
    /// power-of-two set counts, so `set_of` takes the mask path instead
    /// of re-testing `is_power_of_two` on every access.
    pow2_sets: bool,
    set_mask: u64,
    replacement: Replacement,
    insert: InsertPolicy,
    /// `sets * ways` tag entries; `EMPTY` marks an invalid way.
    tags: Box<[u64]>,
    /// LRU stamps (for `Lru`) or MRU bits (0/1, for `BitPlru`), with the
    /// probation flag in [`PROB_BIT`].
    stamp: Box<[u32]>,
    dirty: Box<[bool]>,
    /// Per-entry sharer bitmask (bit = core index within the socket).
    /// Maintained by the engine for the inclusive shared L3 to drive
    /// MESI-style invalidations; unused for private caches.
    sharers: Box<[u32]>,
    /// Per-entry presence bitmask, maintained by the engine via
    /// [`Cache::note_present`]: which cores filled this line into their
    /// private hierarchy while this entry was live. Unlike `sharers`
    /// (which coherence updates precisely), this is a monotone superset —
    /// bits are only cleared when the entry is replaced — which is
    /// exactly what back-invalidation needs to skip cores that never saw
    /// the line.
    present: Box<[u32]>,
    /// Whether `sharers`/`present` are maintained (empty slices when
    /// not). Private caches never receive ownership updates, so their
    /// fill/invalidate paths skip those arrays entirely.
    track_ownership: bool,
    /// Per-entry up-link, written by [`Cache::fill_linked`]: the entry
    /// index the same line had one level up at fill time. Private caches
    /// only (empty on ownership-tracking instances — the shared L3 is
    /// the top of the chain and the largest array set).
    up: Box<[u32]>,
    /// Valid-way count per set: probe calls early-exit on empty sets.
    valid: Box<[u16]>,
    /// Index memo: last entry installed or matched. The engine touches
    /// the same line several times in a row (lookup → fill → sharer
    /// update); the memo turns the repeats into one tag compare.
    last: usize,
    /// Miss memo: the line a missing `lookup` scanned for (`EMPTY` when
    /// stale), its set base, and the first free way it saw (`NO_WAY` if
    /// the set was full). The following `fill` of the same line reuses
    /// the scan. Invalidated by any content mutation.
    miss_line: u64,
    miss_base: u32,
    miss_free: u32,
    tick: u32,
    rng: SplitMix64,
    filled: u64,
}

/// Hint the CPU to pull the cache line holding `p` toward L1. A no-op on
/// non-x86 targets; purely a latency hint everywhere (no semantic effect).
#[inline(always)]
fn prefetch_read<T>(p: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint; it cannot fault and never
    // reads or writes the referenced memory architecturally.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
            p as *const T as *const i8,
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Scan one set's tag slice: the way holding `line` (`usize::MAX` if
/// absent) and the first empty way `way_mask` allows (`usize::MAX` if
/// none; meaningful only when the line is absent).
///
/// Sets up to 64 ways wide go through the shared [`set_masks`] kernel and
/// `trailing_zeros` recovers the first match; wider sets (huge
/// fully-associative validation caches) take an early-exit scan.
#[inline(always)]
fn scan_set(tags: &[u64], line: u64, way_mask: u32) -> (usize, usize) {
    let first = |bits: u64| match bits {
        0 => usize::MAX,
        b => b.trailing_zeros() as usize,
    };
    if tags.len() <= 64 {
        let (eq, emp) = set_masks(tags, line, EMPTY);
        let allowed = if way_mask == u32::MAX {
            u64::MAX
        } else {
            u64::from(way_mask)
        };
        (first(eq), first(emp & allowed))
    } else {
        let mut free = usize::MAX;
        for (w, &t) in tags.iter().enumerate() {
            if t == line {
                return (w, free);
            }
            // Past 32 ways the mask is always full (see `fill_masked`),
            // so the `& 31` never wraps a partial mask.
            if t == EMPTY && free == usize::MAX && way_mask & (1u32 << (w as u32 & 31)) != 0 {
                free = w;
            }
        }
        (usize::MAX, free)
    }
}

/// Order-preserving renormalisation of recency stamps, for a tick about
/// to run out of bits: the bits of each stamp outside `keep` become their
/// dense rank among all the stamps' (equal stays equal, older stays
/// older), the `keep` bits stay as they are. Returns the largest rank —
/// the tick to continue from. `stamps` must be non-empty.
///
/// Ranks rather than halving: halving merges adjacent stamps into ties,
/// and a first-minimum victim could then be the lower way instead of the
/// older line.
pub(crate) fn rank_compress(stamps: &mut [u32], keep: u32) -> u32 {
    let mut order: Vec<u32> = stamps.iter().map(|&s| s & !keep).collect();
    order.sort_unstable();
    order.dedup();
    for s in stamps.iter_mut() {
        let rank = order.partition_point(|&v| v < *s & !keep) as u32;
        *s = (*s & keep) | rank;
    }
    order.len() as u32 - 1
}

impl Cache {
    /// Build a cache from a [`CacheConfig`].
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets > 0, "cache must have at least one set");
        assert!(cfg.ways > 0, "cache must have at least one way");
        let n = (sets as usize) * (cfg.ways as usize);
        let pow2_sets = sets.is_power_of_two();
        Self {
            sets,
            ways: cfg.ways,
            hash_sets: cfg.hash_sets,
            pow2_sets,
            set_mask: if pow2_sets { sets as u64 - 1 } else { 0 },
            replacement: cfg.replacement,
            insert: cfg.insert,
            tags: vec![EMPTY; n].into_boxed_slice(),
            stamp: vec![0; n].into_boxed_slice(),
            dirty: vec![false; n].into_boxed_slice(),
            sharers: vec![0; n].into_boxed_slice(),
            present: vec![0; n].into_boxed_slice(),
            track_ownership: true,
            up: Box::new([]),
            valid: vec![0; sets as usize].into_boxed_slice(),
            last: usize::MAX,
            miss_line: EMPTY,
            miss_base: 0,
            miss_free: NO_WAY,
            tick: 1,
            rng: SplitMix64::new(0x5EED_CAFE),
            filled: 0,
        }
    }

    /// Drop sharer/presence tracking (for private caches, which the
    /// engine never queries for ownership): their fill and invalidate
    /// paths stop touching two metadata arrays per access. A private
    /// cache has a level above it, so it carries the up-link array.
    pub fn without_ownership(mut self) -> Self {
        self.track_ownership = false;
        self.sharers = Box::new([]);
        self.present = Box::new([]);
        self.up = vec![NO_LINK; self.tags.len()].into_boxed_slice();
        self
    }

    #[inline(always)]
    fn set_of(&self, line: u64) -> usize {
        // Complex addressing: fold high address bits into the index so
        // page-aligned buffers spread over all sets (as on real LLCs).
        let line = if self.hash_sets {
            line ^ (line >> 11) ^ (line >> 23)
        } else {
            line
        };
        // The power-of-two test happened once, in `new`; shipped configs
        // all take the mask path. The modulo fallback keeps odd set
        // counts (e.g. a 45 MB, 20-way L3) correct.
        if self.pow2_sets {
            (line & self.set_mask) as usize
        } else {
            (line % self.sets as u64) as usize
        }
    }

    #[inline(always)]
    fn base(&self, set: usize) -> usize {
        set * self.ways as usize
    }

    #[inline(always)]
    fn bump_tick(&mut self) -> u32 {
        // Wrapping into PROB_BIT would corrupt both LRU order and the
        // probation flags; renormalize rarely, preserving the flag bits.
        if self.tick == PROB_BIT - 1 {
            self.renormalize();
        }
        self.tick += 1;
        self.tick
    }

    #[cold]
    #[inline(never)]
    fn renormalize(&mut self) {
        self.tick = rank_compress(&mut self.stamp, PROB_BIT);
    }

    /// Look up a line; on hit, update recency (and dirtiness if `store`).
    /// Returns whether it hit.
    #[inline(always)]
    pub fn lookup(&mut self, line: u64, store: bool) -> bool {
        // A store nearly always follows a load of the same line, which
        // left the index memo on it. Tags are full line numbers and a
        // line is resident at most once, so a memo tag match is the
        // entry the scan below would find. (Loads keep the scan: a memo
        // check there measured nothing — DESIGN.md §9.)
        if store && self.tags.get(self.last) == Some(&line) {
            let i = self.last;
            self.touch_entry(i);
            self.dirty[i] = true;
            return true;
        }
        let set = self.set_of(line);
        let base = self.base(set);
        if self.valid[set] == 0 {
            // Whole set free: remember way 0 for the fill that follows.
            self.miss_line = line;
            self.miss_base = base as u32;
            self.miss_free = 0;
            return false;
        }
        let ways = self.ways as usize;
        // Pull the set's stamp window in while the tag scan runs: both a
        // hit (recency touch) and a miss (the fill's victim scan) read it
        // next, and on large caches it is as cold as the tags themselves.
        prefetch_read(&self.stamp[base]);
        // One bounds check for the whole set scan; find both the line and
        // the first free way so a following fill need not rescan.
        let tags = &self.tags[base..base + ways];
        let (hit, free) = scan_set(tags, line, u32::MAX);
        if hit == usize::MAX {
            self.miss_line = line;
            self.miss_base = base as u32;
            // `usize::MAX` (set full) truncates to `NO_WAY`.
            self.miss_free = free as u32;
            return false;
        }
        self.last = base + hit;
        self.touch_entry(base + hit);
        if store {
            self.dirty[base + hit] = true;
        }
        true
    }

    /// Recency update for the hit entry `i`. A re-reference ends
    /// probation (the line has proven reuse): every arm clears
    /// [`PROB_BIT`].
    #[inline(always)]
    fn touch_entry(&mut self, i: usize) {
        match self.replacement {
            Replacement::Lru => {
                let t = self.bump_tick();
                self.stamp[i] = t;
            }
            Replacement::BitPlru => {
                self.stamp[i] = 1;
                let ways = self.ways as usize;
                let (base, w) = (i - i % ways, i % ways);
                let bits = &mut self.stamp[base..base + ways];
                if bits.iter().all(|&b| b & !PROB_BIT == 1) {
                    // Reset round: clear every MRU bit but keep the
                    // other lines' probation flags.
                    for b in bits.iter_mut() {
                        *b &= PROB_BIT;
                    }
                    bits[w] = 1;
                }
            }
            Replacement::Random => {
                self.stamp[i] &= !PROB_BIT;
            }
        }
    }

    /// Install a line (assumed missing), returning any eviction.
    ///
    /// Filling a line that is already present is a logic error upstream but
    /// is tolerated: it degenerates to a recency touch.
    #[inline(always)]
    pub fn fill(&mut self, line: u64, dirty: bool) -> Option<Eviction> {
        self.fill_with(line, dirty, None)
    }

    /// Like [`Cache::fill`], but overriding the insertion policy for this
    /// one fill. Models per-request insertion hints: real LLCs (DIP/RRIP)
    /// insert detected-streaming lines near LRU so they flow through
    /// without displacing reused data.
    #[inline(always)]
    pub fn fill_with(
        &mut self,
        line: u64,
        dirty: bool,
        insert_override: Option<InsertPolicy>,
    ) -> Option<Eviction> {
        self.fill_masked(line, dirty, insert_override, u32::MAX)
    }

    /// Like [`Cache::fill_with`], but the fill may only allocate into ways
    /// whose bit is set in `way_mask` — Intel CAT-style way partitioning.
    /// Lookups still hit in any way (CAT restricts allocation, not
    /// presence). At least one way must be allowed, and a mask that is not
    /// the full `u32::MAX` needs a cache of at most 32 ways: a `u32` names
    /// ways 0..32 only (`Engine` refuses such a mask on a wider L3). Way
    /// tests below take the way index `& 31`, which past way 31 only ever
    /// meets the full mask.
    #[inline(always)]
    pub fn fill_masked(
        &mut self,
        line: u64,
        dirty: bool,
        insert_override: Option<InsertPolicy>,
        way_mask: u32,
    ) -> Option<Eviction> {
        let ways = self.ways as usize;
        debug_assert!(
            (0..ways).any(|w| way_mask & (1u32 << (w as u32 & 31)) != 0),
            "way mask allows no way"
        );
        debug_assert!(
            ways <= 32 || way_mask == u32::MAX,
            "a partial way mask needs at most 32 ways"
        );
        let mut hit = usize::MAX;
        let mut free = usize::MAX;
        let base;
        if line == self.miss_line && way_mask == u32::MAX {
            // The miss memo already scanned this set: the line is absent
            // and the first free way is known. (Only trusted for an
            // unmasked fill — the memo's free way ignores CAT masks.)
            base = self.miss_base as usize;
            if self.miss_free != NO_WAY {
                free = self.miss_free as usize;
            }
        } else {
            let set = self.set_of(line);
            base = self.base(set);
            // One scan finds both a present copy and the first free
            // allowed way (the present check wins: a hit degenerates to
            // a touch).
            (hit, free) = scan_set(&self.tags[base..base + ways], line, way_mask);
        }
        if hit != usize::MAX {
            self.last = base + hit;
            self.touch_entry(base + hit);
            self.dirty[base + hit] |= dirty;
            return None;
        }
        // This set's contents are about to change; a miss memo for the
        // same set is stale. Memos for other sets stay valid: a fill
        // neither adds the memo'd (absent) line elsewhere nor frees or
        // claims a way outside its own set.
        if self.miss_base as usize == base {
            self.miss_line = EMPTY;
        }
        let (w, evicted) = if free != usize::MAX {
            (free, None)
        } else {
            let w = self.pick_victim_masked(base, way_mask);
            let (present, link) = if self.track_ownership {
                (self.present[base + w], NO_LINK)
            } else {
                (0, self.up[base + w])
            };
            let ev = Eviction {
                line: self.tags[base + w],
                dirty: self.dirty[base + w],
                present,
                link,
            };
            (w, Some(ev))
        };
        if evicted.is_none() {
            self.filled += 1;
            self.valid[base / ways] += 1;
        }
        self.tags[base + w] = line;
        self.dirty[base + w] = dirty;
        if self.track_ownership {
            self.sharers[base + w] = 0;
            self.present[base + w] = 0;
        }
        self.last = base + w;
        let mut policy = insert_override.unwrap_or(self.insert);
        // BIP's epsilon: a streaming (probation) fill is occasionally
        // inserted as regular data. This is why heavy streaming pressure
        // (3+ BWThrs in the paper's Fig. 8) *does* erode a co-runner's
        // cache share even under adaptive insertion, while light pressure
        // does not.
        if policy == InsertPolicy::Lru && self.rng.below(BIP_EPSILON_INV) == 0 {
            policy = InsertPolicy::Mru;
        }
        let mut st = self.insert_stamp(base, w, policy);
        if policy == InsertPolicy::Lru {
            st |= PROB_BIT;
        }
        self.stamp[base + w] = st;
        evicted
    }

    /// Fused demand-miss install: [`Cache::fill_masked`] (clean) plus the
    /// requester's presence and sharer bits, written directly to the entry
    /// the fill just placed (or touched) instead of re-probing the set.
    ///
    /// Equivalent to `fill_masked` + `note_present` + (`set_exclusive` on
    /// store | `add_sharer` on load): `fill_masked` leaves `Cache::last`
    /// at the line's entry on both its fresh-insert and degenerate-touch
    /// paths, and a fresh insert clears `sharers`, making `add_sharer`'s
    /// OR and `set_exclusive`'s overwrite coincide there.
    #[inline(always)]
    pub fn fill_demand(
        &mut self,
        line: u64,
        store: bool,
        insert_override: Option<InsertPolicy>,
        way_mask: u32,
        core: u32,
    ) -> Option<Eviction> {
        let ev = self.fill_masked(line, false, insert_override, way_mask);
        if self.track_ownership {
            let i = self.last;
            self.present[i] |= 1 << core;
            if store {
                self.sharers[i] = 1 << core;
            } else {
                self.sharers[i] |= 1 << core;
            }
        }
        ev
    }

    /// [`Cache::fill`] on a private cache, recording `up` — the entry
    /// index `line` has one level up, i.e. that cache's [`Cache::memo`]
    /// right after it matched or installed the line — on the entry the
    /// fill placed or touched. The link rides out in [`Eviction::link`]
    /// when the entry is replaced.
    #[inline(always)]
    pub fn fill_linked(&mut self, line: u64, dirty: bool, up: u32) -> Option<Eviction> {
        let ev = self.fill(line, dirty);
        if !self.track_ownership {
            self.up[self.last] = up;
        }
        ev
    }

    /// Entry index of the line last installed or matched ([`NO_LINK`]
    /// on a cache nothing has touched yet).
    #[inline(always)]
    pub fn memo(&self) -> u32 {
        self.last as u32
    }

    /// The up-link recorded at entry `at`, if `at` holds `line`;
    /// [`NO_LINK`] otherwise (including on caches that keep no links).
    #[inline(always)]
    pub fn up_link(&self, at: u32, line: u64) -> u32 {
        match self.up.get(at as usize) {
            Some(&up) if self.tags[at as usize] == line => up,
            _ => NO_LINK,
        }
    }

    /// Recency stamp for a fresh insertion, honouring the insert policy.
    #[inline(always)]
    fn insert_stamp(&mut self, base: usize, w: usize, insert: InsertPolicy) -> u32 {
        match self.replacement {
            Replacement::Lru => {
                let t = self.bump_tick();
                match insert {
                    // Probation lines keep a real timestamp so the oldest
                    // probation line (FIFO) can be identified.
                    InsertPolicy::Mru | InsertPolicy::Lru => t,
                    // Mid-stack: appear "half as recent" as a fresh touch.
                    // Using the midpoint between the set's oldest live stamp
                    // and now keeps the line older than recently-hit lines
                    // but younger than stale ones.
                    InsertPolicy::Mid => {
                        let ways = self.ways as usize;
                        let mut oldest = t;
                        for i in 0..ways {
                            if i != w && self.tags[base + i] != EMPTY {
                                oldest = oldest.min(self.stamp[base + i] & !PROB_BIT);
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

    /// Choose a victim among the ways allowed by `way_mask` in a full set
    /// (partial masks only on ≤32 ways; see [`Cache::fill_masked`]).
    #[inline(always)]
    fn pick_victim_masked(&mut self, base: usize, way_mask: u32) -> usize {
        let ways = self.ways as usize;
        let allowed = |w: usize| way_mask & (1u32 << (w as u32 & 31)) != 0;
        match self.replacement {
            Replacement::Lru => {
                // Oldest probation line first (streaming data churns in
                // the leftover ways); otherwise plain LRU. Flipping the
                // probation bit ([`PROB_BIT`]) sorts every probation line
                // below every promoted one and oldest-first within each
                // group, so the first minimum in way order is the victim.
                let stamps = &self.stamp[base..base + ways];
                if way_mask == u32::MAX {
                    first_min_way(stamps, PROB_BIT)
                } else {
                    first_min_way_masked(stamps, PROB_BIT, way_mask)
                }
            }
            Replacement::BitPlru => {
                for w in 0..ways {
                    if allowed(w) && self.stamp[base + w] & !PROB_BIT == 0 {
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

    /// Entry index of a present line, checking the memo first.
    #[inline(always)]
    fn find(&self, line: u64) -> Option<usize> {
        // Tags are full line numbers, so a memo tag match IS the line —
        // no set recomputation needed.
        if self.last < self.tags.len() && self.tags[self.last] == line {
            return Some(self.last);
        }
        let set = self.set_of(line);
        if self.valid[set] == 0 {
            return None;
        }
        let base = self.base(set);
        let ways = self.ways as usize;
        let (hit, _) = scan_set(&self.tags[base..base + ways], line, u32::MAX);
        (hit != usize::MAX).then(|| base + hit)
    }

    /// [`Cache::find`] with a hint: `at` is where the caller believes
    /// `line` sits. One tag compare validates it; anything else — stale,
    /// off by a way, [`NO_LINK`], past the array — takes the plain path.
    #[inline(always)]
    fn find_at(&self, at: u32, line: u64) -> Option<usize> {
        let at = at as usize;
        if at < self.tags.len() && self.tags[at] == line {
            return Some(at);
        }
        self.find(line)
    }

    /// Record `core` as a sharer of a present line (no-op when absent).
    #[inline]
    pub fn add_sharer(&mut self, line: u64, core: u32) {
        if let Some(i) = self.find(line) {
            self.sharers[i] |= 1 << core;
            self.last = i;
        }
    }

    /// Current sharer mask of a line (0 when absent or untracked).
    #[inline]
    pub fn sharers(&self, line: u64) -> u32 {
        self.sharers_at(NO_LINK, line)
    }

    /// [`Cache::sharers`], looking at entry `at` first.
    #[inline]
    pub fn sharers_at(&self, at: u32, line: u64) -> u32 {
        self.find_at(at, line).map(|i| self.sharers[i]).unwrap_or(0)
    }

    /// Replace the sharer set of a present line with just `core` (the
    /// exclusive owner after a write).
    #[inline]
    pub fn set_exclusive(&mut self, line: u64, core: u32) {
        self.set_exclusive_at(NO_LINK, line, core)
    }

    /// [`Cache::set_exclusive`], looking at entry `at` first.
    #[inline]
    pub fn set_exclusive_at(&mut self, at: u32, line: u64, core: u32) {
        if let Some(i) = self.find_at(at, line) {
            self.sharers[i] = 1 << core;
            self.last = i;
        }
    }

    /// Record that `core` pulled a present line into its private
    /// hierarchy. The engine calls this on every private-cache fill from
    /// an inclusive L3; the accumulated mask rides along in
    /// [`Eviction::present`] so back-invalidation only probes cores that
    /// ever held the line.
    #[inline]
    pub fn note_present(&mut self, line: u64, core: u32) {
        if let Some(i) = self.find(line) {
            self.present[i] |= 1 << core;
            self.last = i;
        }
    }

    /// Remove a line if present; returns `Some(dirty)` when it was there.
    #[inline]
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let i = self.find(line)?;
        self.tags[i] = EMPTY;
        let d = self.dirty[i];
        self.dirty[i] = false;
        if self.track_ownership {
            self.sharers[i] = 0;
            self.present[i] = 0;
        }
        self.stamp[i] = 0;
        self.filled -= 1;
        let set = i / self.ways as usize;
        self.valid[set] -= 1;
        // A freed way invalidates a first-free-way memo — but only for
        // this set; other sets' tags and free ways are untouched (and the
        // memo'd line itself is absent by construction, so it cannot be
        // the one removed here).
        if self.miss_base as usize == set * self.ways as usize {
            self.miss_line = EMPTY;
        }
        Some(d)
    }

    /// Mark a present line dirty; returns whether the line was found.
    #[inline]
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        self.mark_dirty_at(NO_LINK, line)
    }

    /// [`Cache::mark_dirty`], looking at entry `at` first.
    #[inline]
    pub fn mark_dirty_at(&mut self, at: u32, line: u64) -> bool {
        match self.find_at(at, line) {
            Some(i) => {
                self.dirty[i] = true;
                true
            }
            None => false,
        }
    }

    /// Read-only presence check (no recency update).
    #[inline]
    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> u64 {
        self.filled
    }

    /// Count resident lines whose line number falls within `[lo, hi)`.
    ///
    /// Used by validation tests and the occupancy instrumentation in the
    /// orthogonality experiments ("how much L3 does BWThr actually hold?").
    pub fn occupancy_in(&self, lo: u64, hi: u64) -> u64 {
        self.tags
            .iter()
            .filter(|&&t| t != EMPTY && t >= lo && t < hi)
            .count() as u64
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> u64 {
        self.sets as u64 * self.ways as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: u32, sets_times_ways_lines: u64, repl: Replacement, ins: InsertPolicy) -> Cache {
        let cfg = CacheConfig {
            size_bytes: sets_times_ways_lines * 64,
            line_bytes: 64,
            ways,
            latency: 1,
            replacement: repl,
            insert: ins,
            hash_sets: false,
        };
        Cache::new(&cfg)
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny(4, 16, Replacement::Lru, InsertPolicy::Mru);
        assert!(!c.lookup(5, false));
        assert!(c.fill(5, false).is_none());
        assert!(c.lookup(5, false));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set, 4 ways: lines 0,4,8,12 all map to set 0 with 4 sets...
        // use a 4-line cache: 1 set of 4 ways.
        let mut c = tiny(4, 4, Replacement::Lru, InsertPolicy::Mru);
        for l in [0u64, 1, 2, 3] {
            assert!(c.fill(l, false).is_none());
        }
        // Touch 0 so 1 becomes LRU.
        assert!(c.lookup(0, false));
        let ev = c.fill(100, false).expect("must evict");
        assert_eq!(ev.line, 1);
    }

    #[test]
    fn dirty_propagates_through_eviction() {
        let mut c = tiny(2, 2, Replacement::Lru, InsertPolicy::Mru);
        c.fill(0, false);
        c.fill(1, false);
        assert!(c.lookup(0, true)); // store -> dirty
        c.lookup(1, false); // 0 is now LRU
        let ev = c.fill(2, false).unwrap();
        assert_eq!(ev.line, 0);
        assert!(ev.dirty);
    }

    #[test]
    fn invalidate_removes_and_reports_dirty() {
        let mut c = tiny(4, 16, Replacement::Lru, InsertPolicy::Mru);
        c.fill(7, true);
        assert_eq!(c.invalidate(7), Some(true));
        assert_eq!(c.invalidate(7), None);
        assert!(!c.contains(7));
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn mark_dirty_only_when_present() {
        let mut c = tiny(4, 16, Replacement::Lru, InsertPolicy::Mru);
        assert!(!c.mark_dirty(3));
        c.fill(3, false);
        assert!(c.mark_dirty(3));
        assert_eq!(c.invalidate(3), Some(true));
    }

    #[test]
    fn mid_insertion_protects_reused_lines_from_streaming() {
        // 1 set, 4 ways. Lines 0..4 are "hot" (re-touched); a stream of
        // fresh lines flows through. With Mid insertion the hot lines must
        // survive far better than the stream.
        let mut c = tiny(4, 4, Replacement::Lru, InsertPolicy::Mid);
        for l in 0..3u64 {
            c.fill(l, false);
            c.lookup(l, false); // promote to MRU
        }
        let mut hot_evicted = 0;
        for s in 0..100u64 {
            let stream_line = 1000 + s;
            // Re-touch hot lines between stream fills (a reuse-heavy app).
            for l in 0..3u64 {
                if c.contains(l) {
                    c.lookup(l, false);
                }
            }
            if let Some(ev) = c.fill(stream_line, false) {
                if ev.line < 3 {
                    hot_evicted += 1;
                }
            }
        }
        assert_eq!(
            hot_evicted, 0,
            "mid-insertion must let streams flow through without evicting hot lines"
        );
    }

    #[test]
    fn mru_insertion_lets_stream_displace() {
        // Contrast case: with MRU insertion and no re-touching, a long
        // stream evicts everything.
        let mut c = tiny(4, 4, Replacement::Lru, InsertPolicy::Mru);
        for l in 0..4u64 {
            c.fill(l, false);
        }
        for s in 0..8u64 {
            c.fill(1000 + s, false);
        }
        for l in 0..4u64 {
            assert!(!c.contains(l));
        }
    }

    #[test]
    fn bitplru_cycles_through_ways() {
        let mut c = tiny(4, 4, Replacement::BitPlru, InsertPolicy::Mru);
        for l in 0..4u64 {
            c.fill(l, false);
        }
        // All MRU bits set by inserts -> normalized; victims must still be
        // chosen and never panic across many fills.
        for s in 0..64u64 {
            c.fill(100 + s, false);
        }
        assert_eq!(c.occupancy(), 4);
    }

    #[test]
    fn random_replacement_stays_valid() {
        let mut c = tiny(4, 8, Replacement::Random, InsertPolicy::Mru);
        for l in 0..1000u64 {
            c.fill(l, l % 3 == 0);
        }
        assert_eq!(c.occupancy(), 8);
    }

    #[test]
    fn occupancy_in_ranges() {
        let mut c = tiny(4, 64, Replacement::Lru, InsertPolicy::Mru);
        for l in 0..10u64 {
            c.fill(l, false);
        }
        for l in 100..105u64 {
            c.fill(l, false);
        }
        assert_eq!(c.occupancy_in(0, 10), 10);
        assert_eq!(c.occupancy_in(100, 200), 5);
        assert_eq!(c.occupancy_in(50, 90), 0);
    }

    #[test]
    fn fill_of_present_line_is_touch() {
        let mut c = tiny(2, 2, Replacement::Lru, InsertPolicy::Mru);
        c.fill(0, false);
        c.fill(1, false);
        assert!(c.fill(0, true).is_none()); // refill = touch + dirty merge
        let ev = c.fill(2, false).unwrap();
        assert_eq!(ev.line, 1, "0 was refreshed, so 1 is the victim");
        assert_eq!(c.invalidate(0), Some(true), "dirtiness merged on refill");
    }

    #[test]
    fn probation_streamer_churns_one_slot() {
        // A hot set of 3 promoted lines + a probation streamer: the
        // streamer's fills must evict only each other, never the hot set.
        let mut c = tiny(4, 4, Replacement::Lru, InsertPolicy::Mru);
        for l in 0..3u64 {
            c.fill(l, false);
            c.lookup(l, false); // promote
        }
        let mut hot_evictions = 0;
        for s in 0..200u64 {
            // The hot set keeps getting re-referenced, as a real working
            // set would.
            for l in 0..3u64 {
                if c.contains(l) {
                    c.lookup(l, false);
                }
            }
            if let Some(ev) = c.fill_with(1000 + s, false, Some(InsertPolicy::Lru)) {
                if ev.line < 3 {
                    hot_evictions += 1;
                }
            }
        }
        // BIP's epsilon allows the odd promoted streaming line, but the
        // re-referenced hot set must essentially always survive.
        assert!(hot_evictions <= 1, "{hot_evictions} hot evictions");
        for l in 0..3u64 {
            assert!(c.contains(l), "hot line {l} must survive");
        }
    }

    #[test]
    fn probation_bip_retains_subset_of_thrashing_set() {
        // BIP's defining property: a cyclic walk larger than the set
        // still gets *some* hits, because epsilon-promoted lines get
        // pinned while the probation way churns. (Contrast with plain
        // MRU insertion, where LRU's cyclic pathology yields zero hits —
        // see mru_insertion_lets_stream_displace.)
        let mut c = tiny(4, 4, Replacement::Lru, InsertPolicy::Mru);
        let mut hits = 0u32;
        let accesses = 300u32;
        for _round in 0..50u64 {
            for l in 0..6u64 {
                if c.lookup(l, false) {
                    hits += 1;
                } else {
                    c.fill_with(l, false, Some(InsertPolicy::Lru));
                }
            }
        }
        assert!(hits > 0, "BIP must retain part of the thrashing set");
        assert!(
            hits < accesses * 3 / 4,
            "the probation way must keep churning: {hits}/{accesses}"
        );
    }

    #[test]
    fn probation_cleared_on_rereference() {
        let mut c = tiny(4, 4, Replacement::Lru, InsertPolicy::Mru);
        c.fill_with(1, false, Some(InsertPolicy::Lru));
        assert!(c.lookup(1, false)); // promoted off probation
                                     // Fill the set; line 1 must now be treated as regular LRU data --
                                     // a later probation fill is the victim, not line 1.
        for l in [2u64, 3, 4] {
            c.fill(l, false);
        }
        assert!(c.lookup(1, false), "line 1 still resident");
        let ev = c.fill_with(100, false, Some(InsertPolicy::Lru)).unwrap();
        assert_ne!(ev.line, 1, "promoted line must not be the victim");
        let ev2 = c.fill_with(101, false, Some(InsertPolicy::Lru));
        assert!(c.contains(1));
        // The second probation fill evicts the first (oldest probation).
        assert_eq!(ev2.map(|e| e.line), Some(100), "evicted {ev:?} {ev2:?}");
    }

    #[test]
    fn set_mapping_disjoint() {
        // Lines that differ in set index never conflict.
        let mut c = tiny(1, 16, Replacement::Lru, InsertPolicy::Mru);
        for l in 0..16u64 {
            assert!(c.fill(l, false).is_none());
        }
        assert_eq!(c.occupancy(), 16);
        // 17th line conflicts with line 1 (16 sets, direct mapped).
        let ev = c.fill(17, false).unwrap();
        assert_eq!(ev.line, 1);
    }

    #[test]
    fn non_power_of_two_sets_stay_correct() {
        // 3 sets of 2 ways: the modulo fallback path. Lines l and l+3
        // conflict; l and l+1 never do.
        let mut c = tiny(2, 6, Replacement::Lru, InsertPolicy::Mru);
        for l in 0..6u64 {
            assert!(c.fill(l, false).is_none());
        }
        assert_eq!(c.occupancy(), 6);
        for l in 0..6u64 {
            assert!(c.contains(l));
        }
        // Set 0 holds {0, 3}; filling 6 evicts the older of them.
        let ev = c.fill(6, false).unwrap();
        assert_eq!(ev.line, 0);
        assert!(c.contains(3));
    }

    #[test]
    fn present_mask_accumulates_and_rides_eviction() {
        let mut c = tiny(2, 2, Replacement::Lru, InsertPolicy::Mru);
        c.fill(10, false);
        c.note_present(10, 1);
        c.note_present(10, 3);
        c.note_present(99, 5); // absent line: no-op
        c.fill(11, false);
        // Evict line 10 (LRU) and observe its accumulated mask.
        c.lookup(11, false);
        let ev = c.fill(12, false).unwrap();
        assert_eq!(ev.line, 10);
        assert_eq!(ev.present, (1 << 1) | (1 << 3));
        // The slot was recycled: the new entry starts with a clean mask.
        let ev2 = c.fill(13, false).unwrap();
        assert_eq!(ev2.line, 11);
        assert_eq!(ev2.present, 0);
    }

    #[test]
    fn present_mask_cleared_by_invalidate() {
        let mut c = tiny(2, 2, Replacement::Lru, InsertPolicy::Mru);
        c.fill(10, false);
        c.note_present(10, 2);
        c.invalidate(10);
        c.fill(10, false);
        c.fill(11, false);
        c.lookup(11, false);
        let ev = c.fill(12, false).unwrap();
        assert_eq!(ev.line, 10);
        assert_eq!(ev.present, 0, "refilled entry must not inherit the mask");
    }

    #[test]
    fn lru_order_survives_the_tick_renormalisation() {
        // 2 sets × 2 ways. Line 0 is touched after line 2 fills, so 2 is
        // the LRU line of set 0 — also when the tick runs out of bits
        // (at the fill of line 1, in the other set) in between. Halving
        // every stamp there tied 0 and 2, and the first minimum evicted
        // line 0 from the lower way.
        for start in [1, PROB_BIT - 4] {
            let mut c = tiny(2, 4, Replacement::Lru, InsertPolicy::Mru);
            c.tick = start;
            c.fill(0, false);
            c.fill(2, false);
            assert!(c.lookup(0, false));
            c.fill(1, false);
            let ev = c.fill(4, false).expect("set 0 is full");
            assert_eq!(ev.line, 2, "tick started at {start:#x}");
            assert!(c.tick < PROB_BIT - 4, "renormalised");
        }
    }

    #[test]
    fn rank_compression_keeps_order_ties_and_flags() {
        let p = PROB_BIT;
        let mut s = [5 | p, 9, 5, 0, 9 | p, 7];
        assert_eq!(rank_compress(&mut s, p), 3);
        assert_eq!(s, [1 | p, 3, 1, 0, 3 | p, 2]);
    }

    #[test]
    fn valid_counts_track_fills_and_invalidates() {
        let mut c = tiny(4, 16, Replacement::Lru, InsertPolicy::Mru);
        // Probes of untouched sets take the early exit and stay correct.
        assert!(!c.contains(12));
        assert!(!c.mark_dirty(12));
        assert_eq!(c.invalidate(12), None);
        for l in 0..8u64 {
            c.fill(l, false);
        }
        assert_eq!(c.occupancy(), 8);
        for l in 0..8u64 {
            c.invalidate(l);
        }
        assert_eq!(c.occupancy(), 0);
        for l in 0..8u64 {
            assert!(!c.contains(l));
        }
    }
}

#[cfg(test)]
mod cat_tests {
    use super::*;
    use crate::config::CacheConfig;

    fn cache(ways: u32, total_lines: u64) -> Cache {
        Cache::new(&CacheConfig {
            size_bytes: total_lines * 64,
            line_bytes: 64,
            ways,
            latency: 1,
            replacement: Replacement::Lru,
            insert: InsertPolicy::Mru,
            hash_sets: false,
        })
    }

    #[test]
    fn masked_fills_stay_in_their_ways() {
        // 1 set of 8 ways; stream A owns ways 0-3, stream B ways 4-7.
        let mut c = cache(8, 8);
        for l in 0..4u64 {
            assert!(c.fill_masked(l, false, None, 0x0F).is_none());
        }
        for l in 100..104u64 {
            assert!(c.fill_masked(l, false, None, 0xF0).is_none());
        }
        // A churns through many more (disjoint) lines: B's lines must
        // all survive.
        for l in 1000..1200u64 {
            if let Some(ev) = c.fill_masked(l, false, None, 0x0F) {
                assert!(
                    !(100..104).contains(&ev.line),
                    "B's line {} evicted by A",
                    ev.line
                );
            }
        }
        for l in 100..104u64 {
            assert!(c.contains(l), "partitioned line {l} must survive");
        }
    }

    #[test]
    fn lookups_hit_across_partitions() {
        // CAT restricts allocation, not presence: a line filled in B's
        // partition still hits for anyone who looks it up.
        let mut c = cache(8, 8);
        c.fill_masked(42, false, None, 0xF0);
        assert!(c.lookup(42, false));
    }

    #[test]
    fn unrestricted_mask_behaves_like_plain_fill() {
        let mut a = cache(4, 16);
        let mut b = cache(4, 16);
        for l in 0..64u64 {
            let ea = a.fill_masked(l, l % 3 == 0, None, u32::MAX);
            let eb = b.fill(l, l % 3 == 0);
            assert_eq!(ea, eb);
        }
    }

    #[test]
    fn single_way_partition_is_direct_mapped() {
        let mut c = cache(8, 8);
        // Confined to way 2: every conflicting fill evicts the previous.
        c.fill_masked(1, false, None, 0b100);
        let ev = c.fill_masked(2, false, None, 0b100).unwrap();
        assert_eq!(ev.line, 1);
        let ev = c.fill_masked(3, false, None, 0b100).unwrap();
        assert_eq!(ev.line, 2);
    }
}
