//! Per-core stride prefetcher.
//!
//! Models the L2 streamer/stride prefetchers of the paper's Xeon: it
//! observes demand L2 misses, detects constant strides within a 4 KiB page,
//! and fetches ahead. Two properties matter for the paper's experiments:
//!
//! * Constant-stride traffic (STREAM, Lulesh field sweeps, BWThr's prime
//!   stride *within* a page) gets latency hidden and pulls in extra
//!   bandwidth — "the constant stride makes it possible for the hardware
//!   prefetcher to help use up more bandwidth" (§II-A).
//! * Random traffic (CSThr, the probabilistic probes) trains nothing, so
//!   the prefetcher "will not fetch in additional addresses outside the
//!   target buffer" (§II-B).
//!
//! Prefetches never block the core; they occupy the memory channel and fill
//! the L3/L2 like demand fills. When the channel backlog grows past a
//! threshold the prefetcher throttles (drops requests), as real hardware
//! does under saturation.

use crate::cache::rank_compress;
use crate::setscan::{first_min_way, set_masks};

/// Lines per 4 KiB page with 64-byte lines.
const LINES_PER_PAGE_SHIFT: u32 = 6; // 4096 / 64 = 64 lines

/// Table entries (fully associative, hardware-typical size).
const TABLE: usize = 16;

/// Prefetch requests produced by one observation.
#[derive(Debug, Default)]
pub struct PrefetchRequests {
    /// Line numbers to fetch.
    pub lines: [u64; 4],
    pub n: usize,
}

/// A small fully-associative table of stride detectors.
///
/// Stored as parallel arrays rather than an array of structs: the tag
/// match walks only the 128-byte `pages` array and the LRU victim scan on
/// allocation only the 64-byte `lru` array, both through the shared
/// `setscan` kernels; the per-entry training state is touched
/// for at most one index per observation.
#[derive(Debug, Clone)]
pub struct Prefetcher {
    /// Page number per entry (line >> 6). 0 is a valid page in theory but
    /// the allocator never hands out page 0, so 0 doubles as "empty".
    pages: [u64; TABLE],
    last_line: [u64; TABLE],
    stride: [i64; TABLE],
    confidence: [u8; TABLE],
    lru: [u32; TABLE],
    tick: u32,
    degree: u32,
    enabled: bool,
}

impl Prefetcher {
    /// `degree` = lines fetched ahead per trained miss (hardware uses 2-8).
    pub fn new(enabled: bool, degree: u32) -> Self {
        assert!(degree <= 4, "PrefetchRequests holds at most 4");
        Self {
            pages: [0; TABLE],
            last_line: [0; TABLE],
            stride: [0; TABLE],
            confidence: [0; TABLE],
            lru: [0; TABLE],
            tick: 0,
            degree,
            enabled,
        }
    }

    /// Observe a demand L2 miss for `line`; return lines to prefetch.
    /// Inlined into the engine's demand walk, which calls it on every L2
    /// miss (DESIGN.md §9).
    #[inline(always)]
    pub fn observe(&mut self, line: u64) -> PrefetchRequests {
        let mut out = PrefetchRequests::default();
        if !self.enabled {
            return out;
        }
        if self.tick == u32::MAX {
            self.renormalize();
        }
        self.tick += 1;
        let page = line >> LINES_PER_PAGE_SHIFT;
        // One pass over the 128-byte page array yields the match and
        // empty bitmaps together. Random traffic takes the allocation
        // path on essentially every observation, so the untrained miss —
        // not the trained hit — is the hot case.
        let (eqm, empm) = set_masks(&self.pages, page, 0);
        match (eqm != 0).then(|| eqm.trailing_zeros() as usize) {
            Some(i) => {
                self.lru[i] = self.tick;
                let stride = line as i64 - self.last_line[i] as i64;
                if stride == 0 {
                    return out;
                }
                if stride == self.stride[i] {
                    self.confidence[i] = self.confidence[i].saturating_add(1);
                } else {
                    self.stride[i] = stride;
                    self.confidence[i] = 0;
                }
                self.last_line[i] = line;
                if self.confidence[i] >= 1 {
                    // Trained: prefetch `degree` lines ahead, staying within
                    // the page (hardware prefetchers do not cross pages).
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
                // Allocate: first empty slot, else the LRU entry
                // (lowest tick, ties to the lowest index).
                let victim = if empm != 0 {
                    empm.trailing_zeros() as usize
                } else {
                    first_min_way(&self.lru, 0)
                };
                self.pages[victim] = page;
                self.last_line[victim] = line;
                self.stride[victim] = 0;
                self.confidence[victim] = 0;
                self.lru[victim] = self.tick;
            }
        }
        out
    }

    /// Rank-compress the LRU stamps before the tick wraps: a wrapped
    /// tick would stamp fresh entries below old ones, and the LRU victim
    /// would be the newest entry.
    #[cold]
    #[inline(never)]
    fn renormalize(&mut self) {
        self.tick = rank_compress(&mut self.lru, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_stream_trains_and_prefetches() {
        let mut pf = Prefetcher::new(true, 2);
        let base = 64 * 100; // page 100 at line granularity... line 6400
        assert_eq!(pf.observe(base).n, 0); // allocate
        assert_eq!(pf.observe(base + 1).n, 0); // first stride sample
        let r = pf.observe(base + 2); // confirmed
        assert!(r.n >= 1);
        assert_eq!(r.lines[0], base + 3);
    }

    #[test]
    fn prefetch_stops_at_page_boundary() {
        let mut pf = Prefetcher::new(true, 4);
        // Lines 61, 62, 63 of page 0 region: next prefetches would cross.
        let page_base = 64u64; // page 1, lines 64..127
        pf.observe(page_base + 61);
        pf.observe(page_base + 62);
        let r = pf.observe(page_base + 63);
        assert_eq!(r.n, 0, "must not cross the page");
    }

    #[test]
    fn random_traffic_never_trains() {
        let mut pf = Prefetcher::new(true, 2);
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(3);
        let mut total = 0;
        for _ in 0..10_000 {
            let line = 1_000_000 + rng.below(1 << 20);
            total += pf.observe(line).n;
        }
        // A random walk over a 64Ki-page footprint essentially never
        // produces two identical consecutive strides within one page.
        assert!(total < 20, "spurious prefetches: {total}");
    }

    #[test]
    fn disabled_prefetcher_is_silent() {
        let mut pf = Prefetcher::new(false, 2);
        for i in 0..100u64 {
            assert_eq!(pf.observe(6400 + i).n, 0);
        }
    }

    #[test]
    fn negative_stride_trains_too() {
        let mut pf = Prefetcher::new(true, 2);
        let base = 64 * 50 + 60;
        pf.observe(base);
        pf.observe(base - 1);
        let r = pf.observe(base - 2);
        assert!(r.n >= 1);
        assert_eq!(r.lines[0], base - 3);
    }

    #[test]
    fn many_pages_evict_lru_entry() {
        let mut pf = Prefetcher::new(true, 2);
        // Touch 32 distinct pages (table holds 16): must not panic and
        // must keep detecting on the most recent page.
        for p in 1..33u64 {
            pf.observe(p << LINES_PER_PAGE_SHIFT);
        }
        let base = 40u64 << LINES_PER_PAGE_SHIFT;
        pf.observe(base);
        pf.observe(base + 1);
        assert!(pf.observe(base + 2).n > 0);
    }

    #[test]
    fn lru_order_survives_the_tick_boundary() {
        // Sixteen pages allocated across the point where the tick runs
        // out of bits, page 1 re-touched after it: the next two
        // allocations must replace the two oldest entries, pages 2 and 3,
        // exactly as they do far from the boundary. (A wrapping tick
        // stamps the post-boundary entries lowest and evicts them.)
        for start in [0, u32::MAX - 8] {
            let mut pf = Prefetcher::new(true, 2);
            pf.tick = start;
            for p in 1..=16u64 {
                pf.observe(p << LINES_PER_PAGE_SHIFT);
            }
            pf.observe((1 << LINES_PER_PAGE_SHIFT) + 1);
            pf.observe(17 << LINES_PER_PAGE_SHIFT);
            pf.observe(18 << LINES_PER_PAGE_SHIFT);
            let mut pages = pf.pages.to_vec();
            pages.sort_unstable();
            let want: Vec<u64> = [1].into_iter().chain(4..=18).collect();
            assert_eq!(pages, want, "tick started at {start:#x}");
        }
    }
}
