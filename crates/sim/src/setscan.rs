//! Fixed-width set kernels: the one tag scan and the one first-minimum
//! scan every set-associative structure in the substrate goes through
//! ([`crate::cache::Cache`]'s ways, [`crate::prefetch::Prefetcher`]'s
//! table), plus the CAT-masked first minimum built on the latter.
//!
//! Both entry points take a slice and dispatch on its length once per
//! call: widths 8, 16 and 20 (the shipped L1/L2, the prefetcher table and
//! the Xeon20MB L3) reach an AVX2 kernel whose width is a compile-time
//! constant, so the chunk loop unrolls into straight-line
//! load/compare/movemask code; every other width — and every build
//! without AVX2 — takes the scalar loops, which are the specification the
//! kernels are tested against. The split is made at compile time by
//! `cfg(target_feature = "avx2")` (the repo builds `target-cpu=native`);
//! there is no runtime detection and no second SIMD flavour.
//!
//! All `unsafe` in the substrate's scans lives here, behind safe wrappers
//! over `&[u64; 4]` / `&[u32; 8]` / `&[u32; 4]` chunk references (no
//! pointer arithmetic): the only unsafe operations are unaligned vector
//! loads of exactly those arrays and calls to AVX2 intrinsics in a module
//! that only exists when AVX2 is statically enabled.

/// Per-way match bitmaps of one set: bit `w` of the first word is set
/// where `tags[w] == line`, of the second where `tags[w] == empty`.
/// `tags.len()` must not exceed 64.
#[inline(always)]
pub(crate) fn set_masks(tags: &[u64], line: u64, empty: u64) -> (u64, u64) {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    {
        if let Ok(t) = <&[u64; 8]>::try_from(tags) {
            return avx2::set_masks(t, line, empty);
        }
        if let Ok(t) = <&[u64; 16]>::try_from(tags) {
            return avx2::set_masks(t, line, empty);
        }
        if let Ok(t) = <&[u64; 20]>::try_from(tags) {
            return avx2::set_masks(t, line, empty);
        }
    }
    set_masks_scalar(tags, line, empty)
}

/// Index of the first minimum of `stamp ^ flip` (unsigned) in way order —
/// what a strict-`<` sequential scan picks. `flip` folds a flag bit into
/// the order (the cache's probation bit); pass 0 for a plain minimum.
/// `stamps` must be non-empty.
#[inline(always)]
pub(crate) fn first_min_way(stamps: &[u32], flip: u32) -> usize {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    {
        if let Ok(s) = <&[u32; 8]>::try_from(stamps) {
            return avx2::first_min_way(s, flip);
        }
        if let Ok(s) = <&[u32; 16]>::try_from(stamps) {
            return avx2::first_min_way(s, flip);
        }
        if let Ok(s) = <&[u32; 20]>::try_from(stamps) {
            return avx2::first_min_way(s, flip);
        }
    }
    first_min_way_scalar(stamps, flip)
}

/// [`first_min_way`] over the ways `allowed` selects — bit `w & 31` for
/// way `w`, the cache's CAT-mask convention. At least one way must be
/// allowed.
///
/// At the kernel widths it runs the kernel on a copy of the keys with
/// every disallowed lane forced to `u32::MAX`, which no allowed key can
/// lose to: when the minimum is below `u32::MAX` its first lane is the
/// answer. Only when every allowed key is `u32::MAX` itself — the lane
/// could then be a disallowed one — and at every other width does it take
/// the strict-`<` scan over the allowed ways. (A CAT-masked 20-way fill
/// costs what an unmasked one does, 16 ns; the scan took 26.)
#[inline(always)]
pub(crate) fn first_min_way_masked(stamps: &[u32], flip: u32, allowed: u32) -> usize {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    {
        let hit = if let Ok(s) = <&[u32; 8]>::try_from(stamps) {
            masked_min_fixed(s, flip, allowed)
        } else if let Ok(s) = <&[u32; 16]>::try_from(stamps) {
            masked_min_fixed(s, flip, allowed)
        } else if let Ok(s) = <&[u32; 20]>::try_from(stamps) {
            masked_min_fixed(s, flip, allowed)
        } else {
            None
        };
        if let Some(w) = hit {
            return w;
        }
    }
    first_min_way_masked_scalar(stamps, flip, allowed)
}

/// The kernel half of [`first_min_way_masked`] at a fixed width: `None`
/// when the minimum key is `u32::MAX`.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
#[inline(always)]
fn masked_min_fixed<const N: usize>(stamps: &[u32; N], flip: u32, allowed: u32) -> Option<usize> {
    // Branch-free: a disallowed lane ORs in all ones.
    let keys: [u32; N] = std::array::from_fn(|w| {
        let off = ((allowed >> (w & 31)) & 1).wrapping_sub(1);
        (stamps[w] ^ flip) | off
    });
    let w = avx2::first_min_way(&keys, 0);
    (keys[w] != u32::MAX).then_some(w)
}

/// Portable [`first_min_way_masked`]: strict-`<` scan over the allowed
/// ways, first minimum wins.
fn first_min_way_masked_scalar(stamps: &[u32], flip: u32, allowed: u32) -> usize {
    let mut pick = None;
    for (w, &st) in stamps.iter().enumerate() {
        if allowed & (1 << (w & 31)) == 0 {
            continue;
        }
        let key = st ^ flip;
        if pick.is_none_or(|(_, bk)| key < bk) {
            pick = Some((w, key));
        }
    }
    pick.expect("mask allows at least one way").0
}

/// Portable [`set_masks`]: the movemask idiom, one compare pair per way.
#[inline(always)]
fn set_masks_scalar(tags: &[u64], line: u64, empty: u64) -> (u64, u64) {
    debug_assert!(tags.len() <= 64);
    let (mut eq, mut emp) = (0u64, 0u64);
    for (w, &t) in tags.iter().enumerate() {
        eq |= u64::from(t == line) << w;
        emp |= u64::from(t == empty) << w;
    }
    (eq, emp)
}

/// Portable [`first_min_way`]: strict-`<` scan, first minimum wins.
#[inline(always)]
fn first_min_way_scalar(stamps: &[u32], flip: u32) -> usize {
    let (mut best, mut best_key) = (0, u32::MAX);
    for (w, &st) in stamps.iter().enumerate() {
        let key = st ^ flip;
        if key < best_key {
            (best, best_key) = (w, key);
        }
    }
    best
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
mod avx2 {
    use std::arch::x86_64::*;

    // SAFETY (every block below): this module is compiled only under
    // `cfg(target_feature = "avx2")`, so the AVX2 intrinsics run on a CPU
    // the whole build already assumes, and the register-only ones have no
    // other precondition. Each load reads exactly the bytes of the array
    // its `&[_; N]` argument borrows, and `loadu` needs no alignment.

    /// 4-bit mask of the tags in `c` equal to `needle`.
    #[inline(always)]
    fn eq_bits_4x64(c: &[u64; 4], needle: u64) -> u64 {
        // SAFETY: see the module note; the load covers the 32 bytes of `*c`.
        unsafe {
            let v = _mm256_loadu_si256(c.as_ptr().cast());
            let eq = _mm256_cmpeq_epi64(v, _mm256_set1_epi64x(needle as i64));
            _mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u64
        }
    }

    pub(super) fn set_masks<const N: usize>(tags: &[u64; N], line: u64, empty: u64) -> (u64, u64) {
        const { assert!(N.is_multiple_of(4) && N <= 64) };
        let (chunks, _) = tags.as_chunks::<4>();
        let (mut eq, mut emp) = (0u64, 0u64);
        for (i, c) in chunks.iter().enumerate() {
            eq |= eq_bits_4x64(c, line) << (4 * i);
            emp |= eq_bits_4x64(c, empty) << (4 * i);
        }
        (eq, emp)
    }

    /// Eight `u32::MAX` keys: the identity of the minimum below.
    #[inline(always)]
    fn max_keys() -> __m256i {
        // SAFETY: see the module note; register-only.
        unsafe { _mm256_set1_epi32(-1) }
    }

    /// The keys `stamp ^ flip` of eight ways.
    #[inline(always)]
    fn keys_8(c: &[u32; 8], flip: u32) -> __m256i {
        // SAFETY: see the module note; the load covers the 32 bytes of `*c`.
        unsafe {
            let v = _mm256_loadu_si256(c.as_ptr().cast());
            _mm256_xor_si256(v, _mm256_set1_epi32(flip as i32))
        }
    }

    /// The keys of four ways in the low lanes, `u32::MAX` in the high
    /// four: the last vector of the 8|8|4 split of 20 ways. The padding
    /// can tie with the minimum but never beat it, and sits in lanes past
    /// the set's width, which the caller masks off.
    #[inline(always)]
    fn keys_4_padded(c: &[u32; 4], flip: u32) -> __m256i {
        // SAFETY: see the module note; the load covers the 16 bytes of `*c`.
        unsafe {
            let v = _mm_loadu_si128(c.as_ptr().cast());
            let keys = _mm_xor_si128(v, _mm_set1_epi32(flip as i32));
            _mm256_inserti128_si256::<0>(max_keys(), keys)
        }
    }

    /// The unsigned minimum over all 24 lanes of `k`, in every lane.
    #[inline(always)]
    fn broadcast_min(k: [__m256i; 3]) -> __m256i {
        // SAFETY: see the module note; register-only.
        unsafe {
            let mut m = _mm256_min_epu32(_mm256_min_epu32(k[0], k[1]), k[2]);
            m = _mm256_min_epu32(m, _mm256_permute2x128_si256::<0x01>(m, m));
            m = _mm256_min_epu32(m, _mm256_shuffle_epi32::<0b01_00_11_10>(m));
            _mm256_min_epu32(m, _mm256_shuffle_epi32::<0b10_11_00_01>(m))
        }
    }

    /// 8-bit mask of the lanes of `v` equal to the same lane of `m`.
    #[inline(always)]
    fn eq_bits_8x32(v: __m256i, m: __m256i) -> u32 {
        // SAFETY: see the module note; register-only.
        unsafe { _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, m))) as u32 }
    }

    pub(super) fn first_min_way<const N: usize>(stamps: &[u32; N], flip: u32) -> usize {
        const { assert!(N.is_multiple_of(4) && N > 0 && N <= 24) };
        let (full, tail) = stamps.as_chunks::<8>();
        let mut k = [max_keys(); 3];
        for (slot, c) in k.iter_mut().zip(full) {
            *slot = keys_8(c, flip);
        }
        if let Ok(t) = <&[u32; 4]>::try_from(tail) {
            k[full.len()] = keys_4_padded(t, flip);
        }
        // The ways holding the minimum key, in way order: the lowest set
        // bit is the first minimum by construction.
        let m = broadcast_min(k);
        let mut bits = 0u32;
        for (i, &v) in k[..N.div_ceil(8)].iter().enumerate() {
            bits |= eq_bits_8x32(v, m) << (8 * i);
        }
        (bits & (u32::MAX >> (32 - N))).trailing_zeros() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    const EMPTY: u64 = u64::MAX;
    const PROB_BIT: u32 = 1 << 31;

    /// Independent oracles, deliberately not loop-shaped like the code
    /// under test.
    fn spec_masks(tags: &[u64], line: u64, empty: u64) -> (u64, u64) {
        let bits = |x: u64| {
            (0..tags.len())
                .filter(|&w| tags[w] == x)
                .fold(0, |m, w| m | 1 << w)
        };
        (bits(line), bits(empty))
    }

    fn spec_first_min(stamps: &[u32], flip: u32) -> usize {
        (0..stamps.len())
            .min_by_key(|&w| (stamps[w] ^ flip, w))
            .expect("non-empty")
    }

    fn check_masks(tags: &[u64], line: u64, empty: u64) {
        let want = spec_masks(tags, line, empty);
        assert_eq!(set_masks(tags, line, empty), want, "{tags:?} line {line}");
        assert_eq!(set_masks_scalar(tags, line, empty), want);
    }

    fn check_min(stamps: &[u32], flip: u32) {
        let want = spec_first_min(stamps, flip);
        assert_eq!(first_min_way(stamps, flip), want, "{stamps:x?} ^ {flip:x}");
        assert_eq!(first_min_way_scalar(stamps, flip), want);
    }

    /// Ways worth pinning a hit or a minimum to: first, last, and both
    /// sides of every 4- and 8-lane seam (the 20-way split is 8|8|4).
    fn seam_ways(n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = [0, 3, 4, 7, 8, 15, 16, 19, n / 2, n - 1]
            .into_iter()
            .filter(|&w| w < n)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn set_masks_equals_the_scalar_scan_at_every_width() {
        let mut rng = Xoshiro256::seed_from_u64(0x5E75_CA11);
        for n in 1..=64usize {
            for round in 0..40 {
                // Small tag alphabet: duplicates and misses both common.
                let empty = if round % 2 == 0 { EMPTY } else { 0 };
                let mut tags: Vec<u64> = (0..n)
                    .map(|_| match rng.below(4) {
                        0 => empty,
                        _ => 1 + rng.below(2 * n as u64),
                    })
                    .collect();
                check_masks(&tags, 1 + rng.below(2 * n as u64), empty); // likely present
                check_masks(&tags, 1 << 40, empty); // absent
                check_masks(&tags, empty, empty); // the sentinel itself
                for w in seam_ways(n) {
                    // A unique line at a seam, then duplicated at way 0.
                    let line = (1 << 41) + w as u64;
                    tags[w] = line;
                    check_masks(&tags, line, empty);
                    tags[0] = line;
                    check_masks(&tags, line, empty);
                    tags[w] = empty;
                    check_masks(&tags, line, empty);
                }
            }
            check_masks(&vec![EMPTY; n], 7, EMPTY);
            check_masks(&vec![7; n], 7, EMPTY);
        }
    }

    #[test]
    fn first_min_way_equals_the_strict_less_scan_at_every_width() {
        let mut rng = Xoshiro256::seed_from_u64(0xF125_7A11);
        for n in 1..=64usize {
            for round in 0..40 {
                let flip = if round % 2 == 0 { PROB_BIT } else { 0 };
                // Few distinct stamps (repeated minima), some on probation.
                let mut stamps: Vec<u32> = (0..n)
                    .map(|_| {
                        let prob = if rng.below(3) == 0 { PROB_BIT } else { 0 };
                        (100 + rng.below(6) as u32) | prob
                    })
                    .collect();
                check_min(&stamps, flip);
                for w in seam_ways(n) {
                    // A strict minimum at a seam, then a tie further on.
                    let lowest = if flip == 0 { 1 } else { PROB_BIT | 1 };
                    stamps[w] = lowest;
                    check_min(&stamps, flip);
                    stamps[n - 1] = lowest;
                    check_min(&stamps, flip);
                    stamps[w] = 200;
                    check_min(&stamps, flip);
                }
            }
            // Extreme keys: all-equal windows at both ends of the order,
            // where the kernel's padding lanes tie with real ways.
            for fill in [0, 1, PROB_BIT - 1, PROB_BIT, u32::MAX] {
                check_min(&vec![fill; n], 0);
                check_min(&vec![fill; n], PROB_BIT);
            }
        }
    }

    #[test]
    fn masked_first_min_equals_the_scalar_scan_at_every_width() {
        let allowed = |mask: u32, w: usize| mask & (1 << (w & 31)) != 0;
        let spec = |stamps: &[u32], flip: u32, mask: u32| {
            (0..stamps.len())
                .filter(|&w| allowed(mask, w))
                .min_by_key(|&w| (stamps[w] ^ flip, w))
                .expect("mask allows a way")
        };
        let mut rng = Xoshiro256::seed_from_u64(0xCA7_3A5C);
        let mut checked_max_min = 0;
        for n in 1..=64usize {
            for round in 0..60 {
                let flip = if round % 2 == 0 { PROB_BIT } else { 0 };
                // Sparse, dense, single-way and full masks; always at
                // least one way of the first min(n, 32) allowed.
                let mut mask = match round % 4 {
                    0 => rng.next_u64() as u32,
                    1 => (rng.next_u64() & rng.next_u64()) as u32,
                    2 => 1u32 << rng.below(n.min(32) as u64),
                    _ => u32::MAX,
                };
                if (0..n).all(|w| !allowed(mask, w)) {
                    mask |= 1u32 << rng.below(n.min(32) as u64);
                }
                // Few distinct keys (ties), some on probation, some
                // u32::MAX.
                let stamps: Vec<u32> = (0..n)
                    .map(|_| match rng.below(6) {
                        0 => !flip,
                        1 => PROB_BIT | 100,
                        k => 100 + k as u32,
                    })
                    .collect();
                let want = spec(&stamps, flip, mask);
                checked_max_min += (stamps[want] ^ flip == u32::MAX) as u32;
                let ctx = format!("{stamps:x?} ^ {flip:x} under {mask:#x}");
                assert_eq!(first_min_way_masked(&stamps, flip, mask), want, "{ctx}");
                assert_eq!(first_min_way_masked_scalar(&stamps, flip, mask), want);
                // Every allowed key u32::MAX: the fallback must still
                // pick an allowed way, the first one.
                let all_max = vec![!flip; n];
                let want = spec(&all_max, flip, mask);
                assert_eq!(first_min_way_masked(&all_max, flip, mask), want, "{ctx}");
            }
        }
        assert!(checked_max_min > 20, "{checked_max_min} u32::MAX minima");
    }
}
