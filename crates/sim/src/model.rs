//! Pluggable hierarchy substrates: the conformance seam of the engine.
//!
//! The engine's timing, scheduling, DRAM channel and coherence protocol
//! are shared code, but the stateful per-structure models — caches, TLB,
//! stride prefetcher — are exactly the components the performance work
//! optimised (SoA layout, movemask scans, memos, probation folding). To
//! validate those optimisations *as behaviours* rather than trusting
//! yesterday's figure CSVs, the engine is generic over a [`Substrate`]:
//! a bundle of model types implementing [`CacheModel`], [`TlbModel`] and
//! [`PrefetchModel`]. The shipped [`SoaSubstrate`] is the production
//! implementation; `amem-conformance` supplies a deliberately naive
//! reference substrate and runs both in lockstep over the same traces.
//!
//! Because the substrate only answers hit/miss/eviction questions while
//! all timing is derived from those answers by shared engine code, two
//! substrates implementing the same replacement contract must produce
//! **identical** counters, wall cycles and writeback traffic — making
//! event-for-event differential testing meaningful.

use crate::cache::{Cache, Eviction, InsertPolicy, NO_LINK};
use crate::config::CacheConfig;
use crate::prefetch::{PrefetchRequests, Prefetcher};
use crate::tlb::{Tlb, TlbConfig};

/// One set-associative cache instance, as the engine observes it.
///
/// The contract is exactly [`Cache`]'s documented behaviour: LRU /
/// BitPLRU / Random replacement with MRU / mid-stack / BIP-probation
/// insertion, CAT-style way masking on fills, engine-maintained sharer
/// and presence masks on ownership-tracking (shared) instances.
pub trait CacheModel {
    /// Build a cold cache from its configuration.
    fn build(cfg: &CacheConfig) -> Self;

    /// Drop sharer/presence tracking (private caches).
    fn without_ownership(self) -> Self;

    /// Look up a line; on hit, update recency (and dirtiness if `store`).
    fn lookup(&mut self, line: u64, store: bool) -> bool;

    /// Install a line (touch if already present), returning any eviction.
    fn fill(&mut self, line: u64, dirty: bool) -> Option<Eviction>;

    /// [`CacheModel::fill`] with a per-fill insertion-policy override and
    /// a CAT way mask restricting which ways may be allocated.
    fn fill_masked(
        &mut self,
        line: u64,
        dirty: bool,
        insert_override: Option<InsertPolicy>,
        way_mask: u32,
    ) -> Option<Eviction>;

    /// Remove a line if present; returns `Some(dirty)` when it was there.
    fn invalidate(&mut self, line: u64) -> Option<bool>;

    /// Mark a present line dirty; returns whether the line was found.
    fn mark_dirty(&mut self, line: u64) -> bool;

    /// Read-only presence check (no recency update).
    fn contains(&self, line: u64) -> bool;

    /// Record `core` as a sharer of a present line (no-op when absent).
    fn add_sharer(&mut self, line: u64, core: u32);

    /// Current sharer mask of a line (0 when absent or untracked).
    fn sharers(&self, line: u64) -> u32;

    /// Replace the sharer set of a present line with just `core`.
    fn set_exclusive(&mut self, line: u64, core: u32);

    /// Record that `core` pulled a present line into its private caches.
    fn note_present(&mut self, line: u64, core: u32);

    /// Fused demand-miss install: [`CacheModel::fill_masked`] (clean)
    /// followed by [`CacheModel::note_present`] and — because the
    /// requester always ends up a sharer of the line it just fetched —
    /// [`CacheModel::set_exclusive`] for a store or
    /// [`CacheModel::add_sharer`] for a load. The default is exactly that
    /// call sequence; implementations may fold the ownership writes into
    /// the fill to avoid re-probing a line whose entry they just touched.
    fn fill_demand(
        &mut self,
        line: u64,
        store: bool,
        insert_override: Option<InsertPolicy>,
        way_mask: u32,
        core: u32,
    ) -> Option<Eviction> {
        let ev = self.fill_masked(line, false, insert_override, way_mask);
        self.note_present(line, core);
        if store {
            self.set_exclusive(line, core);
        } else {
            self.add_sharer(line, core);
        }
        ev
    }

    /// Number of valid lines currently resident.
    fn occupancy(&self) -> u64;

    /// Count resident lines whose line number falls within `[lo, hi)`.
    fn occupancy_in(&self, lo: u64, hi: u64) -> u64;

    // ---- Up-links: where the engine already located a line ----------
    //
    // The engine finds a line at one level and then asks the level above
    // about the same line (sharers on a store hit, `mark_dirty` on a
    // dirty eviction). A model may remember, per entry, the index the
    // line had one level up and answer those calls with one compare.
    // Links are advisory: every default below ignores them and is the
    // plain call, so a model that implements none of this — the
    // reference substrate — defines what a linked model must equal.

    /// Entry index of the line last matched or installed ([`NO_LINK`]
    /// when the model keeps no such memo).
    fn memo(&self) -> u32 {
        NO_LINK
    }

    /// [`CacheModel::fill`], recording `up` (the level above's
    /// [`CacheModel::memo`] for this line) on the installed entry; it
    /// comes back in [`Eviction::link`].
    fn fill_linked(&mut self, line: u64, dirty: bool, _up: u32) -> Option<Eviction> {
        self.fill(line, dirty)
    }

    /// The up-link recorded at entry `at` if `at` holds `line`, else
    /// [`NO_LINK`].
    fn up_link(&self, _at: u32, _line: u64) -> u32 {
        NO_LINK
    }

    /// [`CacheModel::sharers`], given where the line probably is.
    fn sharers_at(&self, _at: u32, line: u64) -> u32 {
        self.sharers(line)
    }

    /// [`CacheModel::set_exclusive`], given where the line probably is.
    fn set_exclusive_at(&mut self, _at: u32, line: u64, core: u32) {
        self.set_exclusive(line, core)
    }

    /// [`CacheModel::mark_dirty`], given where the line probably is.
    fn mark_dirty_at(&mut self, _at: u32, line: u64) -> bool {
        self.mark_dirty(line)
    }
}

/// A per-core TLB, as the engine observes it: translate an address,
/// return the page-walk cycles charged (0 on hit or when disabled).
pub trait TlbModel {
    fn build(cfg: TlbConfig) -> Self;
    fn access(&mut self, addr: u64) -> u32;
}

/// A per-core stride prefetcher: observe a demand L2 miss, return lines
/// to fetch ahead.
pub trait PrefetchModel {
    fn build(enabled: bool, degree: u32) -> Self;
    fn observe(&mut self, line: u64) -> PrefetchRequests;
}

/// A bundle of hierarchy models the engine instantiates per core/socket.
pub trait Substrate {
    type Cache: CacheModel;
    type Tlb: TlbModel;
    type Pf: PrefetchModel;
}

/// The production substrate: the SoA [`Cache`], [`Tlb`] and
/// [`Prefetcher`] with all their hot-path machinery.
#[derive(Debug, Clone, Copy)]
pub struct SoaSubstrate;

impl Substrate for SoaSubstrate {
    type Cache = Cache;
    type Tlb = Tlb;
    type Pf = Prefetcher;
}

// Every forwarder the engine calls on its demand walk is
// `#[inline(always)]`: a plain forwarder stays an out-of-line call
// (DESIGN.md §9, "One compiled demand walk").
impl CacheModel for Cache {
    fn build(cfg: &CacheConfig) -> Self {
        Cache::new(cfg)
    }
    fn without_ownership(self) -> Self {
        Cache::without_ownership(self)
    }
    #[inline(always)]
    fn lookup(&mut self, line: u64, store: bool) -> bool {
        Cache::lookup(self, line, store)
    }
    #[inline(always)]
    fn fill(&mut self, line: u64, dirty: bool) -> Option<Eviction> {
        Cache::fill(self, line, dirty)
    }
    #[inline(always)]
    fn fill_masked(
        &mut self,
        line: u64,
        dirty: bool,
        insert_override: Option<InsertPolicy>,
        way_mask: u32,
    ) -> Option<Eviction> {
        Cache::fill_masked(self, line, dirty, insert_override, way_mask)
    }
    #[inline(always)]
    fn invalidate(&mut self, line: u64) -> Option<bool> {
        Cache::invalidate(self, line)
    }
    #[inline(always)]
    fn mark_dirty(&mut self, line: u64) -> bool {
        Cache::mark_dirty(self, line)
    }
    #[inline(always)]
    fn contains(&self, line: u64) -> bool {
        Cache::contains(self, line)
    }
    #[inline(always)]
    fn add_sharer(&mut self, line: u64, core: u32) {
        Cache::add_sharer(self, line, core)
    }
    fn sharers(&self, line: u64) -> u32 {
        Cache::sharers(self, line)
    }
    fn set_exclusive(&mut self, line: u64, core: u32) {
        Cache::set_exclusive(self, line, core)
    }
    #[inline(always)]
    fn note_present(&mut self, line: u64, core: u32) {
        Cache::note_present(self, line, core)
    }
    #[inline(always)]
    fn fill_demand(
        &mut self,
        line: u64,
        store: bool,
        insert_override: Option<InsertPolicy>,
        way_mask: u32,
        core: u32,
    ) -> Option<Eviction> {
        Cache::fill_demand(self, line, store, insert_override, way_mask, core)
    }
    fn occupancy(&self) -> u64 {
        Cache::occupancy(self)
    }
    fn occupancy_in(&self, lo: u64, hi: u64) -> u64 {
        Cache::occupancy_in(self, lo, hi)
    }
    #[inline(always)]
    fn memo(&self) -> u32 {
        Cache::memo(self)
    }
    #[inline(always)]
    fn fill_linked(&mut self, line: u64, dirty: bool, up: u32) -> Option<Eviction> {
        Cache::fill_linked(self, line, dirty, up)
    }
    #[inline(always)]
    fn up_link(&self, at: u32, line: u64) -> u32 {
        Cache::up_link(self, at, line)
    }
    #[inline(always)]
    fn sharers_at(&self, at: u32, line: u64) -> u32 {
        Cache::sharers_at(self, at, line)
    }
    #[inline(always)]
    fn set_exclusive_at(&mut self, at: u32, line: u64, core: u32) {
        Cache::set_exclusive_at(self, at, line, core)
    }
    #[inline(always)]
    fn mark_dirty_at(&mut self, at: u32, line: u64) -> bool {
        Cache::mark_dirty_at(self, at, line)
    }
}

impl TlbModel for Tlb {
    fn build(cfg: TlbConfig) -> Self {
        Tlb::new(cfg)
    }
    fn access(&mut self, addr: u64) -> u32 {
        Tlb::access(self, addr)
    }
}

impl PrefetchModel for Prefetcher {
    fn build(enabled: bool, degree: u32) -> Self {
        Prefetcher::new(enabled, degree)
    }
    #[inline(always)]
    fn observe(&mut self, line: u64) -> PrefetchRequests {
        Prefetcher::observe(self, line)
    }
}
