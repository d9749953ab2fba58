//! Single-pass stack-distance analysis: the whole miss-ratio curve from
//! one traversal of an access trace.
//!
//! The Mattson inclusion property of LRU says a reference hits a
//! fully-associative LRU cache of `C` lines iff its *stack distance* —
//! the number of distinct other lines touched since the previous access
//! to the same line — is below `C`. One pass that records the histogram
//! of stack distances therefore yields the miss rate at **every**
//! capacity at once, where re-simulating would cost one full run per
//! capacity point.
//!
//! The pass is [`StackDist`], a streaming engine fed one line id at a
//! time. Every line seen so far owns exactly one *slot* — the position of
//! its most recent access in a window of slots handed out in access
//! order — so the stack distance of a re-access is the number of live
//! slots above the line's own. Two structures answer that:
//!
//! * **line → last slot**: 4096-line pages of `u32` slots, indexed
//!   directly inside the page, found through a small open-addressed
//!   directory of page numbers. The directory stays cache-resident
//!   whatever the footprint, so a lookup is one data miss; a page is
//!   allocated out of line, on a line's first touch. (A hashed per-line
//!   table pays the hash, a probe sequence and a wider entry on every
//!   access: 62 ns against 29 ns per access on the benchmark grid.) The
//!   cost is 16 KB per *touched page*: ids are expected clustered, as
//!   relative probe lines and real address traces are.
//! * **recency**: one bit per slot, with a live count per 512-slot block
//!   and per 32768-slot super-block. A distance is a masked `count_ones`
//!   plus three short sums; moving a marker is two bit flips and four
//!   count updates. (A `u32` Fenwick tree over the same window keeps the
//!   same bound but walks `log n` nodes four times per access: 105 ns.)
//!
//! Only a measured access reads a distance, so the warm-up before the
//! first one writes its line's last slot and nothing else. The recency
//! is built from the table — a bit per live slot, then the counts — at
//! the first measured access, or at `finish` if none comes; from there
//! every access, warm or measured, moves its marker.
//!
//! Slots are never reused in place. When the window fills it is compacted
//! by rank — a marker's new slot is the number of markers below it, so the
//! table is rewritten from the bitmap alone, with no slot → line map — and
//! doubled until half its slots are free again and it is no shorter than
//! the table. A warm-up window first grows, without compaction, to twice
//! the table's length; past that, a full one has its bitmap built from
//! the table and is compacted by the same rule. Memory is therefore
//! `O(touched pages)` and never depends on the trace length; the
//! amortized cost per access is constant.
//!
//! Two sampling hooks support an approximate mode. It is cheaper by less
//! than `1/rate` end to end, because choosing the sampled lines and
//! Eq. 4's `Σg²` still visit every line of the buffer (DESIGN.md §13).
//!
//! * [`spatial_sample`] filters an existing trace to the lines selected
//!   by a fixed-rate address hash (SHARDS-style spatial sampling). Every
//!   line survives with probability `rate` independent of how hot it is,
//!   so distinct-line counts — and hence stack distances — shrink by the
//!   factor `rate` in expectation.
//! * [`StackDist::finish`] (and [`StackDistHistogram::compute`] over a
//!   materialised trace) accepts the line-sampling `rate` the stream was
//!   built with and un-scales distances at evaluation time: a raw
//!   distance `d` among sampled lines estimates a true distance
//!   `d / rate`, so capacity `C` is compared against `C·rate`.
//!
//! Exact mode is `rate = 1.0` and is bit-deterministic: the same trace
//! always produces the same histogram, with no dependence on thread
//! count or iteration order.

use crate::stream::{AccessStream, Op, OP_BATCH};

/// A drained access trace at cache-line granularity: the line id of every
/// load/store, plus the index where the measurement phase begins (the
/// position of the last [`Op::Mark`], mirroring `after_last_mark`).
/// Accesses before `mark` warm the stack but are not counted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineTrace {
    /// Line ids in access order (byte address `>> log2(line_bytes)`).
    pub lines: Vec<u64>,
    /// Index of the first measured access (0 = everything measured).
    pub mark: usize,
}

impl LineTrace {
    /// Drain a stream to completion, keeping only its memory accesses.
    /// `Compute`/`RemoteXfer`/`Barrier` ops are skipped — they never
    /// touch the cache — so one trace serves every compute intensity
    /// that interleaves the same loads.
    pub fn from_stream(stream: &mut dyn AccessStream, line_bytes: u64) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let shift = line_bytes.trailing_zeros();
        let mut lines = Vec::new();
        let mut mark = 0usize;
        let mut buf: Vec<Op> = Vec::with_capacity(OP_BATCH);
        'outer: loop {
            buf.clear();
            stream.next_batch(&mut buf, OP_BATCH);
            if buf.is_empty() {
                break; // defensive: a conforming stream ends with Done
            }
            for op in &buf {
                match *op {
                    Op::Load(a) | Op::Store(a) => lines.push(a >> shift),
                    Op::Mark => mark = lines.len(),
                    Op::Done => break 'outer,
                    _ => {}
                }
            }
        }
        Self { lines, mark }
    }

    /// The measured (post-mark) portion of the trace.
    pub fn measured(&self) -> &[u64] {
        &self.lines[self.mark..]
    }
}

/// Stateless 64-bit mixing hash (the SplitMix64 finalizer) used for
/// spatial sampling: whether a *line* is sampled depends only on its id,
/// never on when it is accessed, which is what makes distinct-line
/// counts scale linearly with the rate.
pub fn spatial_hash(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Whether `line` falls in the sampled subset at `rate` (in (0, 1]).
pub fn line_sampled(line: u64, rate: f64) -> bool {
    if rate >= 1.0 {
        return true;
    }
    spatial_hash(line) <= (rate * u64::MAX as f64) as u64
}

/// SHARDS-style spatial sampling of a trace: keep only accesses to lines
/// whose hash falls under `rate`. Returns the filtered trace plus the
/// *actual* fraction of distinct lines retained (the unbiased scaling
/// factor — more accurate than the nominal rate on small universes).
pub fn spatial_sample(trace: &LineTrace, rate: f64) -> (LineTrace, f64) {
    assert!(rate > 0.0 && rate <= 1.0, "sample rate must be in (0, 1]");
    if rate >= 1.0 {
        return (trace.clone(), 1.0);
    }
    let mut lines = Vec::new();
    let mut mark = 0usize;
    for (i, &l) in trace.lines.iter().enumerate() {
        if i == trace.mark {
            mark = lines.len();
        }
        if line_sampled(l, rate) {
            lines.push(l);
        }
    }
    if trace.mark == trace.lines.len() {
        mark = lines.len();
    }
    let distinct = |it: &[u64]| {
        let mut v: Vec<u64> = it.to_vec();
        v.sort_unstable();
        v.dedup();
        v.len()
    };
    let total = distinct(&trace.lines);
    let kept = distinct(&lines);
    let actual = if total == 0 {
        rate
    } else {
        (kept as f64 / total as f64).max(f64::MIN_POSITIVE)
    };
    (LineTrace { lines, mark }, actual)
}

/// Lines per page of the last-slot table.
const PAGE_LINES: usize = 1 << 12;
/// "Never seen" in the last-slot table, "vacant" in its directory.
const NONE: u32 = u32::MAX;
/// Slots per block / per super-block of the recency window.
const BLOCK_SLOTS: usize = 512;
const SUPER_SLOTS: usize = 32768;
/// Slots in a fresh window: enough that compacting one page pays.
const INITIAL_WINDOW: usize = PAGE_LINES;

/// The streaming stack-distance engine (see the module docs for the
/// structure): feed every access in order, then [`finish`](Self::finish).
#[derive(Debug)]
pub struct StackDist {
    /// Last slot of every line of every touched page, `NONE` if unseen;
    /// page `i` is `table[i * PAGE_LINES..][..PAGE_LINES]`.
    table: Vec<u32>,
    /// Open-addressed `(page number, page index)` directory, a power of
    /// two long and at most half full; vacant entries hold `NONE`.
    dir: Vec<(u64, u32)>,
    /// Slots in the window.
    slots: usize,
    /// Whether the recency structures below are not built yet: true
    /// until the first measured access (or `finish`). Until then an
    /// access only writes its line's last slot.
    lazy: bool,
    /// One bit per slot: set iff the slot is some line's last access.
    bits: Vec<u64>,
    /// Set bits per block and per super-block. `bits` and `blocks` are
    /// zero-padded to whole super-blocks.
    blocks: Vec<u16>,
    supers: Vec<u32>,
    /// The next slot to hand out; every set bit sits below it.
    next: usize,
    /// `counts[d]` = measured re-accesses at distance `d`; one entry per
    /// distinct line plus one, so `counts.len() - 1` lines are live
    /// (sized from the table when the recency is built).
    counts: Vec<u64>,
    measured: u64,
    cold: u64,
}

impl Default for StackDist {
    fn default() -> Self {
        Self::new()
    }
}

impl StackDist {
    pub fn new() -> Self {
        Self {
            table: Vec::new(),
            dir: vec![(0, NONE); 16],
            slots: INITIAL_WINDOW,
            lazy: true,
            bits: Vec::new(),
            blocks: Vec::new(),
            supers: Vec::new(),
            next: 0,
            counts: vec![0],
            measured: 0,
            cold: 0,
        }
    }

    /// Record one access to `line`; `measured` is false for warm-up
    /// accesses, which move the stack but are not counted.
    #[inline]
    pub fn access(&mut self, line: u64, measured: bool) {
        if self.lazy {
            if !measured {
                return self.warm(line);
            }
            self.build_recency();
        }
        if self.next == self.slots {
            self.compact();
        }
        let slot = self.next;
        let prev = std::mem::replace(self.last_slot(line), slot as u32);
        self.measured += measured as u64;
        if prev == NONE {
            self.cold += measured as u64;
            self.counts.push(0);
        } else {
            let p = prev as usize;
            if measured {
                let d = self.live_above(p);
                self.counts[d] += 1;
            }
            self.bits[p / 64] &= !(1 << (p % 64));
            self.blocks[p / BLOCK_SLOTS] -= 1;
            self.supers[p / SUPER_SLOTS] -= 1;
        }
        self.bits[slot / 64] |= 1 << (slot % 64);
        self.blocks[slot / BLOCK_SLOTS] += 1;
        self.supers[slot / SUPER_SLOTS] += 1;
        self.next = slot + 1;
    }

    /// A warm-up access before the recency is built: the line's last slot
    /// is all it moves.
    #[inline]
    fn warm(&mut self, line: u64) {
        if self.next == self.slots {
            self.make_room_lazily();
        }
        let slot = self.next as u32;
        *self.last_slot(line) = slot;
        self.next += 1;
    }

    /// Close the pass. `rate` is the line-sampling rate the stream was
    /// built with; pass 1.0 for an unsampled stream.
    pub fn finish(mut self, rate: f64) -> StackDistHistogram {
        assert!(rate > 0.0 && rate <= 1.0, "sample rate must be in (0, 1]");
        if self.lazy {
            self.build_recency();
        }
        // Suffix-accumulate: suffix[c] = Σ_{d ≥ c} counts[d].
        let mut suffix = self.counts;
        for c in (0..suffix.len() - 1).rev() {
            suffix[c] += suffix[c + 1];
        }
        StackDistHistogram {
            sample_rate: rate,
            measured: self.measured,
            cold: self.cold,
            distinct_lines: suffix.len() as u64 - 1,
            suffix,
        }
    }

    /// The table entry of `line`, allocating its page on first touch.
    #[inline(always)]
    fn last_slot(&mut self, line: u64) -> &mut u32 {
        let key = line / PAGE_LINES as u64;
        let mut page = self.dir[self.dir_index(key)].1;
        if page == NONE {
            page = self.add_page(key);
        }
        &mut self.table[page as usize * PAGE_LINES + line as usize % PAGE_LINES]
    }

    /// Allocate the table page of page number `key` and enter it in the
    /// directory, doubling the directory past half full. Returns the
    /// page's index.
    #[cold]
    #[inline(never)]
    fn add_page(&mut self, key: u64) -> u32 {
        let page = (self.table.len() / PAGE_LINES) as u32;
        self.table.resize(self.table.len() + PAGE_LINES, NONE);
        if (page as usize + 1) * 2 > self.dir.len() {
            let doubled = vec![(0, NONE); self.dir.len() * 2];
            for old in std::mem::replace(&mut self.dir, doubled) {
                if old.1 != NONE {
                    let i = self.dir_index(old.0);
                    self.dir[i] = old;
                }
            }
        }
        let i = self.dir_index(key);
        self.dir[i] = (key, page);
        page
    }

    /// Where page number `key` is in the directory, or the vacant entry
    /// where it belongs: linear probing from a Fibonacci hash, which
    /// sends consecutive page numbers far apart.
    #[inline(always)]
    fn dir_index(&self, key: u64) -> usize {
        let mask = self.dir.len() - 1;
        let home =
            key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - self.dir.len().trailing_zeros());
        let mut i = home as usize;
        while self.dir[i].1 != NONE && self.dir[i].0 != key {
            i = (i + 1) & mask;
        }
        i
    }

    /// Live slots strictly above `p` — the distinct lines touched since
    /// the access that holds slot `p`. Fixed-width and branch-free inside
    /// the block and the super-block (both arrays are padded to whole
    /// units, and counts beyond `next` are zero).
    fn live_above(&self, p: usize) -> usize {
        const WORDS: usize = BLOCK_SLOTS / 64;
        const BLOCKS: usize = SUPER_SLOTS / BLOCK_SLOTS;
        let (w, block, sup) = (p / 64 % WORDS, p / BLOCK_SLOTS, p / SUPER_SLOTS);
        let words: &[u64; WORDS] = self.bits[block * WORDS..][..WORDS]
            .try_into()
            .expect("a whole block");
        // The keep-mask is built from the comparisons as all-ones/zero
        // words, not chosen by a `match`: `w` is random, so a branch per
        // lane mispredicts (30 → 24 ns per access on the benchmark grid).
        let partial = (u64::MAX << (p % 64)) << 1;
        let in_block: u32 = (0..WORDS)
            .map(|i| {
                let keep =
                    ((i > w) as u64).wrapping_neg() | (((i == w) as u64).wrapping_neg() & partial);
                (words[i] & keep).count_ones()
            })
            .sum();
        let blocks: &[u16; BLOCKS] = self.blocks[sup * BLOCKS..][..BLOCKS]
            .try_into()
            .expect("a whole super-block");
        // At most SUPER_SLOTS - BLOCK_SLOTS: no u16 overflow.
        let in_super: u16 = (0..BLOCKS)
            .map(|i| if i > block % BLOCKS { blocks[i] } else { 0 })
            .sum();
        let super_end = (self.next - 1) / SUPER_SLOTS + 1;
        let above: u32 = self.supers[sup + 1..super_end].iter().sum();
        (in_block + in_super as u32 + above) as usize
    }

    /// Build the recency of the current window from the table: one bit
    /// per line's last slot, then the block and super-block counts, and
    /// one histogram entry per distinct line. Leaves the pass eager.
    fn build_recency(&mut self) {
        let supers = self.slots.div_ceil(SUPER_SLOTS);
        self.bits.clear();
        self.bits.resize(supers * SUPER_SLOTS / 64, 0);
        for &e in self.table.iter().filter(|e| **e != NONE) {
            self.bits[e as usize / 64] |= 1 << (e % 64);
        }
        self.blocks.clear();
        self.blocks.extend(
            self.bits
                .chunks(BLOCK_SLOTS / 64)
                .map(|ws| ws.iter().map(|w| w.count_ones() as u16).sum::<u16>()),
        );
        self.supers.clear();
        self.supers.extend(
            self.blocks
                .chunks(SUPER_SLOTS / BLOCK_SLOTS)
                .map(|bs| bs.iter().map(|&b| b as u32).sum::<u32>()),
        );
        let live: u32 = self.supers.iter().sum();
        self.counts.resize(live as usize + 1, 0);
        self.lazy = false;
    }

    /// The window is full during the lazy warm-up. Below twice the
    /// table's length it simply grows (no slot moves); past that it is
    /// rebuilt from the table and compacted as an eager window is, and
    /// the warm-up stays lazy.
    fn make_room_lazily(&mut self) {
        if self.slots < 2 * self.table.len() {
            self.slots = 2 * self.table.len();
            assert!(
                self.slots < NONE as usize,
                "too many distinct lines for u32 slots"
            );
        } else {
            self.build_recency();
            self.compact();
            self.lazy = true;
        }
    }

    /// The window is full: renumber every live slot to its rank, so the
    /// `live` markers occupy slots `0..live` in the same order, and double
    /// the window until half of it is free again and it is no shorter
    /// than the table — the two things this walk costs, so compaction
    /// stays O(1) per access however sparse the ids.
    fn compact(&mut self) {
        let mut below = Vec::with_capacity(self.bits.len());
        let mut live = 0u32;
        for w in &self.bits {
            below.push(live);
            live += w.count_ones();
        }
        for e in self.table.iter_mut().filter(|e| **e != NONE) {
            let p = *e as usize;
            *e = below[p / 64] + (self.bits[p / 64] & ((1 << (p % 64)) - 1)).count_ones();
        }
        let live = live as usize;
        let mut slots = self.slots;
        while live * 2 > slots || self.table.len() > slots {
            slots *= 2;
            assert!(
                slots < NONE as usize,
                "too many distinct lines for u32 slots"
            );
        }
        self.reset_window(slots, live);
    }

    /// A window of `slots` slots whose first `live` are set.
    fn reset_window(&mut self, slots: usize, live: usize) {
        let supers = slots.div_ceil(SUPER_SLOTS);
        let filled = |unit: usize, i: usize| live.saturating_sub(i * unit).min(unit);
        self.bits.clear();
        self.bits
            .extend((0..supers * SUPER_SLOTS / 64).map(|i| match filled(64, i) {
                64 => u64::MAX,
                n => (1 << n) - 1,
            }));
        self.blocks.clear();
        self.blocks
            .extend((0..supers * SUPER_SLOTS / BLOCK_SLOTS).map(|i| filled(BLOCK_SLOTS, i) as u16));
        self.supers.clear();
        self.supers
            .extend((0..supers).map(|i| filled(SUPER_SLOTS, i) as u32));
        self.slots = slots;
        self.next = live;
    }
}

/// The product of one pass: enough to evaluate the miss rate at *any*
/// capacity. Distances are stored as a suffix-cumulative histogram so
/// each evaluation is O(1).
#[derive(Debug, Clone, PartialEq)]
pub struct StackDistHistogram {
    /// Line-sampling rate of the trace this was computed from (1.0 =
    /// exact). Distances estimate `raw / rate`.
    pub sample_rate: f64,
    /// Measured accesses seen (raw count, in the sampled trace).
    pub measured: u64,
    /// Of which first-touch (infinite-distance) misses.
    pub cold: u64,
    /// Distinct lines in the whole (sampled) trace.
    pub distinct_lines: u64,
    /// `suffix[c]` = measured accesses with raw stack distance ≥ `c`,
    /// for `c` in `0..=distinct_lines` (cold accesses excluded — they
    /// miss at every capacity).
    suffix: Vec<u64>,
}

impl StackDistHistogram {
    /// One [`StackDist`] pass over a materialised trace. `rate` is the
    /// line-sampling rate the trace was built with (see
    /// [`spatial_sample`]); pass 1.0 for an unsampled trace.
    pub fn compute(trace: &LineTrace, rate: f64) -> Self {
        let mut pass = StackDist::new();
        let (warm, measured) = trace.lines.split_at(trace.mark);
        for &line in warm {
            pass.access(line, false);
        }
        for &line in measured {
            pass.access(line, true);
        }
        pass.finish(rate)
    }

    /// Miss rate of a fully-associative LRU cache of `capacity_lines`
    /// over the measured phase. A hit needs estimated distance
    /// `d / rate < C`, i.e. raw distance `d < C·rate`. An empty
    /// measurement phase pessimistically reports 1.0.
    pub fn miss_rate_at_lines(&self, capacity_lines: u64) -> f64 {
        if self.measured == 0 {
            return 1.0;
        }
        // Smallest raw distance that still misses: d ≥ C·rate.
        let cutoff = if self.sample_rate >= 1.0 {
            capacity_lines
        } else {
            (capacity_lines as f64 * self.sample_rate).ceil() as u64
        };
        let far = if (cutoff as usize) < self.suffix.len() {
            self.suffix[cutoff as usize]
        } else {
            0
        };
        (self.cold + far) as f64 / self.measured as f64
    }

    /// Distribution-free 95% half-width of the sampling error on any
    /// point of the curve: `1.96·√(p(1−p)/n) ≤ 1.96·√(0.25/n)` over the
    /// `n` sampled measured accesses. Zero in exact mode — the pass is
    /// then an exact count, not an estimate. (Distance re-scaling adds
    /// error of the same order; treat this as the scale of the bound,
    /// not a hard guarantee.)
    pub fn max_ci95(&self) -> f64 {
        if self.sample_rate >= 1.0 || self.measured == 0 {
            return 0.0;
        }
        1.96 * (0.25 / self.measured as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    /// Naive oracle: one fully-associative LRU simulation per capacity.
    fn naive_miss_rate(trace: &LineTrace, capacity: usize) -> f64 {
        use std::collections::VecDeque;
        let mut stack: VecDeque<u64> = VecDeque::new();
        let mut misses = 0u64;
        let mut total = 0u64;
        for (i, &l) in trace.lines.iter().enumerate() {
            let hit = stack.iter().position(|&x| x == l);
            let measured = i >= trace.mark;
            if measured {
                total += 1;
            }
            match hit {
                Some(p) => {
                    stack.remove(p);
                }
                None => {
                    if measured {
                        misses += 1;
                    }
                    if capacity == 0 {
                        continue; // nothing ever fits
                    }
                    if stack.len() == capacity {
                        stack.pop_back();
                    }
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

    fn random_trace(seed: u64, n: usize, universe: u64, mark_frac: f64) -> LineTrace {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let lines = (0..n).map(|_| 7000 + rng.below(universe)).collect();
        LineTrace {
            lines,
            mark: (n as f64 * mark_frac) as usize,
        }
    }

    #[test]
    fn matches_naive_lru_at_every_capacity() {
        for seed in 0..10 {
            let t = random_trace(seed, 600, 40, 0.3);
            let h = StackDistHistogram::compute(&t, 1.0);
            for cap in 0..=45u64 {
                let fast = h.miss_rate_at_lines(cap);
                let slow = naive_miss_rate(&t, cap as usize);
                assert!(
                    (fast - slow).abs() < 1e-12,
                    "seed {seed} cap {cap}: {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn monotone_non_increasing_in_capacity() {
        let t = random_trace(3, 2000, 120, 0.5);
        let h = StackDistHistogram::compute(&t, 1.0);
        let mut prev = f64::INFINITY;
        for cap in 0..130 {
            let mr = h.miss_rate_at_lines(cap);
            assert!(mr <= prev + 1e-15, "cap {cap}");
            prev = mr;
        }
        assert_eq!(h.miss_rate_at_lines(0), 1.0, "nothing fits in 0 lines");
        assert_eq!(
            h.miss_rate_at_lines(10_000),
            h.cold as f64 / h.measured as f64,
            "beyond the footprint only cold misses remain"
        );
    }

    #[test]
    fn duplicate_free_trace_is_all_cold_under_any_permutation() {
        let lines: Vec<u64> = (0..200u64).map(|i| i * 3 + 1).collect();
        let t = LineTrace {
            lines: lines.clone(),
            mark: 0,
        };
        let mut rev = lines;
        rev.reverse();
        let t2 = LineTrace {
            lines: rev,
            mark: 0,
        };
        let (h, h2) = (
            StackDistHistogram::compute(&t, 1.0),
            StackDistHistogram::compute(&t2, 1.0),
        );
        assert_eq!(h.cold, 200);
        assert_eq!(h, h2, "no reuse ⇒ order cannot matter");
        for cap in [0u64, 1, 100, 1000] {
            assert_eq!(h.miss_rate_at_lines(cap), 1.0);
        }
    }

    #[test]
    fn spatial_sampling_estimates_the_exact_curve() {
        // Large random trace over a modest universe: the sampled
        // estimate must track the exact curve closely.
        let t = random_trace(11, 60_000, 4000, 0.5);
        let exact = StackDistHistogram::compute(&t, 1.0);
        let (st, actual) = spatial_sample(&t, 0.1);
        let approx = StackDistHistogram::compute(&st, actual);
        assert!(approx.max_ci95() > 0.0);
        for cap in [100u64, 500, 1000, 2000, 3000, 4000] {
            let (e, a) = (
                exact.miss_rate_at_lines(cap),
                approx.miss_rate_at_lines(cap),
            );
            assert!(
                (e - a).abs() < 0.05,
                "cap {cap}: exact {e:.4} vs sampled {a:.4}"
            );
        }
    }

    #[test]
    fn rate_one_sampling_is_identity() {
        let t = random_trace(5, 500, 64, 0.4);
        let (st, r) = spatial_sample(&t, 1.0);
        assert_eq!(st, t);
        assert_eq!(r, 1.0);
        assert_eq!(
            StackDistHistogram::compute(&t, 1.0),
            StackDistHistogram::compute(&st, r)
        );
    }

    /// A seeded trace over `universe` logical lines — uniform churn, a
    /// 64-line hot set and a wrapping sequential cursor, interleaved.
    fn churn_trace(seed: u64, n: usize, universe: u64) -> Vec<u64> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut cursor = 0;
        (0..n)
            .map(|_| match rng.below(4) {
                0 => rng.below(64) * (universe / 64),
                1 => {
                    cursor = (cursor + 1) % universe;
                    cursor
                }
                _ => rng.below(universe),
            })
            .collect()
    }

    /// The histogram of `ids[mark..]` by an algorithm that shares nothing
    /// with [`StackDist`]: `Trace::reuse_distances` (a `HashMap` and its
    /// own Fenwick tree over access timestamps).
    fn oracle_histogram(ids: &[u64], mark: usize) -> StackDistHistogram {
        use crate::trace::{Trace, TraceEvent};
        let events = ids.iter().map(|&l| TraceEvent::Load(l << 6)).collect();
        let distances = Trace { events }.reuse_distances();
        let distinct = distances.iter().filter(|d| d.is_none()).count();
        let mut suffix = vec![0u64; distinct + 1];
        let mut cold = 0;
        for d in &distances[mark..] {
            match d {
                Some(d) => suffix[*d as usize] += 1,
                None => cold += 1,
            }
        }
        for c in (0..distinct).rev() {
            suffix[c] += suffix[c + 1];
        }
        StackDistHistogram {
            sample_rate: 1.0,
            measured: (ids.len() - mark) as u64,
            cold,
            distinct_lines: distinct as u64,
            suffix,
        }
    }

    #[test]
    fn matches_the_mattson_oracle_across_compactions_growth_and_id_layouts() {
        const N: usize = 1_200_000;
        const HALF: usize = 400_000;
        // The first part churns over a quarter of the lines the rest
        // does, so a pass that turns eager there still grows.
        let mut logical = churn_trace(0x5D15_7A9C, HALF, 22_500);
        logical.extend(churn_trace(0x5D15_7A9D, N - HALF, 90_000));
        // Injective relabelings: one cluster, every fifth line of ~110
        // pages, and the top of the id space. Distances cannot tell.
        type Relabel = fn(u64) -> u64;
        let layouts: [(&str, Relabel); 3] = [
            ("clustered", |l| 7000 + l),
            ("strided over pages", |l| l * 5),
            ("near u64::MAX", |l| u64::MAX - l),
        ];
        for mark in [0, HALF, N] {
            let want = oracle_histogram(&logical, mark);
            assert!(want.distinct_lines >= 80_000, "{}", want.distinct_lines);
            for (name, relabel) in layouts {
                let mut pass = StackDist::new();
                // Compactions of the lazy warm-up (rebuilt from the
                // table), and eager ones that grew or stayed in place.
                let (mut rebuilds, mut growths, mut in_place) = (0, 0, 0);
                for (t, &l) in logical.iter().enumerate() {
                    let (next, slots, lazy) = (pass.next, pass.slots, pass.lazy);
                    pass.access(relabel(l), t >= mark);
                    if pass.next <= next {
                        match (lazy && t < mark, pass.slots > slots) {
                            (true, _) => rebuilds += 1,
                            (false, true) => growths += 1,
                            (false, false) => in_place += 1,
                        }
                    }
                }
                let what = format!(
                    "{name}, mark {mark}: {rebuilds} lazy rebuilds, \
                     {growths} eager growths, {in_place} in place"
                );
                assert!(mark == 0 || rebuilds >= 1, "{what}");
                assert!(mark == N || (growths >= 1 && in_place >= 1), "{what}");
                assert_eq!(pass.finish(1.0), want, "{what}");
            }
        }
    }

    #[test]
    fn a_long_warm_up_keeps_its_window_within_the_eager_bound_or_twice_the_table() {
        // 50 warm-up accesses per distinct line: the lazy window grows
        // to twice the table, then compacts from the table, and is never
        // longer than the eager pass's window over the same accesses or
        // twice the table, whichever is longer.
        const LINES: u64 = 6000;
        type Relabel = fn(u64) -> u64;
        let layouts: [(&str, Relabel); 2] = [("clustered", |l| l), ("strided", |l| l * 5)];
        for (name, relabel) in layouts {
            let mut rng = Xoshiro256::seed_from_u64(0x1A2E);
            let (mut lazy, mut eager) = (StackDist::new(), StackDist::new());
            let mut longest = 0;
            for _ in 0..50 * LINES {
                let line = relabel(rng.below(LINES));
                lazy.access(line, false);
                eager.access(line, true);
                longest = longest.max(lazy.slots);
            }
            assert!(lazy.lazy, "{name}: nothing was measured");
            let bound = eager.slots.max(2 * lazy.table.len());
            assert!(longest <= bound, "{name}: window {longest} > {bound}");
            let (lazy, eager) = (lazy.finish(1.0), eager.finish(1.0));
            assert_eq!(lazy.distinct_lines, LINES, "{name}");
            assert_eq!(lazy.distinct_lines, eager.distinct_lines, "{name}");
        }
    }

    /// `live_above(p)` against a bit-by-bit count of the window, at every
    /// slot below `next`: every `p % 64`, and the 511/512 and 32767/32768
    /// block and super-block seams.
    fn assert_rank_equals_naive_count(pass: &StackDist, what: &str) {
        assert!(
            pass.next > SUPER_SLOTS + BLOCK_SLOTS,
            "{what}: {}",
            pass.next
        );
        let mut above = 0;
        for p in (0..pass.next).rev() {
            assert_eq!(pass.live_above(p), above, "{what}: slot {p}");
            above += (pass.bits[p / 64] >> (p % 64) & 1) as usize;
        }
        assert!(above < pass.next, "{what}: the window has no holes");
    }

    #[test]
    fn live_above_equals_a_naive_count_after_growth_and_after_compaction() {
        // Uniform churn over 36k lines: the first compaction grows the
        // window to two super-blocks, a later one compacts it in place.
        // Each state is checked once 20k further accesses have punched
        // holes and `next` is past the first super-block.
        const LINES: u64 = 36_000;
        let mut rng = Xoshiro256::seed_from_u64(0x5EA4);
        let mut pass = StackDist::new();
        let mut checked = [false; 2]; // [after growth, after compaction]
        for _ in 0..1_000_000 {
            let (next, slots) = (pass.next, pass.slots);
            pass.access(rng.below(LINES), true);
            if pass.next > next || pass.slots < 2 * SUPER_SLOTS {
                continue;
            }
            let in_place = pass.slots == slots;
            let mut n = 0;
            while n < 20_000 || pass.next < SUPER_SLOTS + 4 * BLOCK_SLOTS {
                let next = pass.next;
                pass.access(rng.below(LINES), true);
                assert!(pass.next > next, "a compaction before the check");
                n += 1;
            }
            let what = ["after growth", "after compaction"][in_place as usize];
            assert_rank_equals_naive_count(&pass, what);
            checked[in_place as usize] = true;
            if checked == [true; 2] {
                return;
            }
        }
        panic!("checked {checked:?}: the churn never reached both states");
    }

    #[test]
    fn feeding_the_engine_equals_compute_on_the_collected_trace() {
        let t = random_trace(17, 20_000, 6000, 0.25);
        let mut pass = StackDist::new();
        for (i, &l) in t.lines.iter().enumerate() {
            pass.access(l, i >= t.mark);
        }
        assert_eq!(pass.finish(1.0), StackDistHistogram::compute(&t, 1.0));
    }

    #[test]
    fn mark_splits_warm_from_measured() {
        // 3 distinct lines, each accessed twice; mark after the first
        // round: measured accesses all have distance 2.
        let t = LineTrace {
            lines: vec![1, 2, 3, 1, 2, 3],
            mark: 3,
        };
        let h = StackDistHistogram::compute(&t, 1.0);
        assert_eq!(h.measured, 3);
        assert_eq!(h.cold, 0, "warm-up absorbed the cold misses");
        assert_eq!(h.miss_rate_at_lines(3), 0.0);
        assert_eq!(h.miss_rate_at_lines(2), 1.0);
    }
}
