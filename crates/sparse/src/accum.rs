//! Row accumulators for Gustavson-style SpGEMM and merging (§III-C).
//!
//! The paper selects between two accumulators:
//!
//! * [`Spa`] — the classic *sparse accumulator*: a dense value array of the
//!   output-row width, kept at the semiring zero between rows, plus a
//!   touched bitmap of one bit per column. For tall-and-skinny outputs
//!   (`d ≤ 1024`) the value array fits in L1 (the bitmap is at most 16
//!   words) and SPA wins.
//! * [`HashAccum`] — open-addressing hash accumulator, preferred for wide
//!   rows (`d > 1024`) where a dense SPA would spill out of cache.
//!
//! Both implement [`Accumulator`], so kernels can pick per-multiply.
//!
//! The SPA's ⊕ has no branch: every slot starts at `S::zero()`, so a first
//! contribution is `zero ⊕ v`, which the semiring identity law (see
//! [`Semiring`]) makes bit-identical to `v`. Draining walks the bitmap's set
//! bits in ascending order, so output columns come out sorted without a
//! sort, and resets each visited slot back to zero. Draining or resetting
//! costs O(width / 64 + touched). [`HashAccum`] stores a fresh key's value
//! as `zero ⊕ v` too, so the two drain identical bits on every stream (a
//! NaN's sign and payload aside, which Rust leaves unspecified).
//!
//! A drain can take one row of a [`BitRows`](crate::bits::BitRows) mask and
//! drop the columns set in it (a structural complement mask): the SPA clears
//! them a word at a time, the hash accumulator tests one bit per key.
//!
//! Under the boolean semiring ([`Semiring::BIT_ONE`]) a [`BitAccum`] holds
//! a row as bits alone: a whole `B` row is ORed in a word at a time
//! ([`BitAccum::or_row`]) instead of one slot per product, and the drain
//! emits the same entries a [`Spa`] would.

use crate::bits::{bit_set, or_words};
use crate::semiring::Semiring;
use crate::Idx;

/// A reusable accumulator for one output row at a time.
pub trait Accumulator<S: Semiring> {
    /// ⊕-accumulates `val` into position `idx`.
    fn accumulate(&mut self, idx: Idx, val: S::T);

    /// Number of distinct positions touched since the last drain/reset.
    fn touched(&self) -> usize;

    /// Appends the accumulated `(index, value)` pairs in increasing index
    /// order to the output vectors, dropping semiring zeros and every index
    /// whose bit is set in `mask` (one bit-row's words; an empty slice masks
    /// nothing), and resets the accumulator for the next row.
    fn drain_sorted(&mut self, mask: &[u64], idx_out: &mut Vec<Idx>, val_out: &mut Vec<S::T>);

    /// Discards accumulated state without emitting it.
    fn reset(&mut self);
}

/// Dense sparse accumulator (SPA) of a fixed width: `vals[i]` is the ⊕ of
/// everything accumulated into column `i` (the semiring zero when nothing
/// was), and bit `i` of `touched` records whether anything was.
pub struct Spa<S: Semiring> {
    vals: Vec<S::T>,
    touched: Vec<u64>,
}

impl<S: Semiring> Spa<S> {
    /// An accumulator for rows of `width` columns.
    pub fn new(width: usize) -> Self {
        Self {
            vals: vec![S::zero(); width],
            touched: vec![0; width.div_ceil(64)],
        }
    }

    pub fn width(&self) -> usize {
        self.vals.len()
    }
}

impl<S: Semiring> Accumulator<S> for Spa<S> {
    #[inline]
    fn accumulate(&mut self, idx: Idx, val: S::T) {
        let i = idx as usize;
        debug_assert!(i < self.vals.len(), "SPA index {i} out of width");
        self.touched[i / 64] |= 1 << (i % 64);
        self.vals[i] = S::add(self.vals[i], val);
    }

    fn touched(&self) -> usize {
        self.touched.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn drain_sorted(&mut self, mask: &[u64], idx_out: &mut Vec<Idx>, val_out: &mut Vec<S::T>) {
        for (k, word) in self.touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            // Masked slots go back to zero unread.
            let mut masked = bits & mask.get(k).copied().unwrap_or(0);
            bits ^= masked;
            while masked != 0 {
                self.vals[k * 64 + masked.trailing_zeros() as usize] = S::zero();
                masked &= masked - 1;
            }
            while bits != 0 {
                let i = k * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let v = std::mem::replace(&mut self.vals[i], S::zero());
                if !S::is_zero(&v) {
                    idx_out.push(i as Idx);
                    val_out.push(v);
                }
            }
        }
    }

    fn reset(&mut self) {
        for (k, word) in self.touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                self.vals[k * 64 + bits.trailing_zeros() as usize] = S::zero();
                bits &= bits - 1;
            }
        }
    }
}

/// The row accumulator of a boolean semiring: one bit per column, set
/// where the row holds `S`'s one. Nothing else is stored, since a boolean
/// `⊕` of values that are not all zero is always one.
#[derive(Clone)]
pub struct BitAccum<S: Semiring> {
    words: Vec<u64>,
    one: S::T,
}

impl<S: Semiring> BitAccum<S> {
    /// An accumulator for rows of `width` columns, or `None` when `S` is
    /// not boolean ([`Semiring::BIT_ONE`]).
    pub fn new(width: usize) -> Option<Self> {
        S::BIT_ONE.map(|one| Self {
            words: vec![0; width.div_ceil(64)],
            one,
        })
    }

    /// ⊕-accumulates a whole row given as value bits: `∨` word by word.
    #[inline]
    pub fn or_row(&mut self, row: &[u64]) {
        or_words(&mut self.words, row);
    }
}

impl<S: Semiring> Accumulator<S> for BitAccum<S> {
    #[inline]
    fn accumulate(&mut self, idx: Idx, val: S::T) {
        let i = idx as usize;
        debug_assert!(i < self.words.len() * 64, "bit index {i} out of width");
        if !S::is_zero(&val) {
            self.words[i / 64] |= 1 << (i % 64);
        }
    }

    /// Columns holding one (an accumulated zero touches nothing).
    fn touched(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn drain_sorted(&mut self, mask: &[u64], idx_out: &mut Vec<Idx>, val_out: &mut Vec<S::T>) {
        for (k, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word) & !mask.get(k).copied().unwrap_or(0);
            while bits != 0 {
                idx_out.push((k * 64 + bits.trailing_zeros() as usize) as Idx);
                val_out.push(self.one);
                bits &= bits - 1;
            }
        }
    }

    fn reset(&mut self) {
        self.words.fill(0);
    }
}

const EMPTY_KEY: Idx = Idx::MAX;

/// Open-addressing (linear probing) hash accumulator.
pub struct HashAccum<S: Semiring> {
    keys: Vec<Idx>,
    vals: Vec<S::T>,
    mask: usize,
    len: usize,
    /// Drain buffer, kept across rows so draining allocates nothing.
    pairs: Vec<(Idx, S::T)>,
}

impl<S: Semiring> HashAccum<S> {
    /// An accumulator expecting roughly `expected` distinct indices per row.
    pub fn with_capacity(expected: usize) -> Self {
        let cap = (expected.max(8) * 2).next_power_of_two();
        Self {
            keys: vec![EMPTY_KEY; cap],
            vals: vec![S::zero(); cap],
            mask: cap - 1,
            len: 0,
            pairs: Vec::new(),
        }
    }

    #[inline]
    fn slot(&self, key: Idx) -> usize {
        // Fibonacci hashing: good spread for sequential column ids.
        ((key as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 32) as usize & self.mask
    }

    fn grow(&mut self) {
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; (self.mask + 1) * 2]);
        let old_vals = std::mem::replace(&mut self.vals, vec![S::zero(); (self.mask + 1) * 2]);
        self.mask = self.keys.len() - 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY_KEY {
                self.insert_fresh(k, v);
            }
        }
    }

    fn insert_fresh(&mut self, key: Idx, val: S::T) {
        let mut i = self.slot(key);
        loop {
            if self.keys[i] == EMPTY_KEY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }
}

impl<S: Semiring> Accumulator<S> for HashAccum<S> {
    fn accumulate(&mut self, idx: Idx, val: S::T) {
        debug_assert_ne!(idx, EMPTY_KEY, "Idx::MAX is reserved");
        if (self.len + 1) * 4 > (self.mask + 1) * 3 {
            self.grow();
        }
        let mut i = self.slot(idx);
        loop {
            if self.keys[i] == idx {
                self.vals[i] = S::add(self.vals[i], val);
                return;
            }
            if self.keys[i] == EMPTY_KEY {
                self.keys[i] = idx;
                self.vals[i] = S::add(S::zero(), val);
                self.len += 1;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn touched(&self) -> usize {
        self.len
    }

    fn drain_sorted(&mut self, mask: &[u64], idx_out: &mut Vec<Idx>, val_out: &mut Vec<S::T>) {
        if self.len == 0 {
            return;
        }
        self.pairs.clear();
        for i in 0..self.keys.len() {
            let key = self.keys[i];
            if key != EMPTY_KEY {
                if !S::is_zero(&self.vals[i]) && !bit_set(mask, key) {
                    self.pairs.push((key, self.vals[i]));
                }
                self.keys[i] = EMPTY_KEY;
            }
        }
        self.len = 0;
        self.pairs.sort_unstable_by_key(|&(k, _)| k);
        idx_out.extend(self.pairs.iter().map(|&(k, _)| k));
        val_out.extend(self.pairs.iter().map(|&(_, v)| v));
    }

    fn reset(&mut self) {
        self.keys.fill(EMPTY_KEY);
        self.len = 0;
    }
}

/// Pattern-only SPA for symbolic SpGEMM: counts distinct indices without
/// storing values. Used by the tile-mode selection step (§III-D), which only
/// needs `nnz(C_partial)` counts.
pub struct PatternSpa {
    stamps: Vec<u32>,
    generation: u32,
    count: usize,
}

impl PatternSpa {
    pub fn new(width: usize) -> Self {
        Self {
            stamps: vec![0; width],
            generation: 1,
            count: 0,
        }
    }

    /// Marks `idx`; returns true when it was new for this row.
    #[inline]
    pub fn mark(&mut self, idx: Idx) -> bool {
        let i = idx as usize;
        if self.stamps[i] == self.generation {
            false
        } else {
            self.stamps[i] = self.generation;
            self.count += 1;
            true
        }
    }

    /// Distinct indices marked since the last reset.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Clears for the next row in O(1).
    pub fn reset(&mut self) -> usize {
        let c = self.count;
        self.count = 0;
        if self.generation == u32::MAX {
            self.stamps.fill(0);
            self.generation = 1;
        } else {
            self.generation += 1;
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{BoolAndOr, PlusTimesF64};

    fn drain<S: Semiring, A: Accumulator<S>>(acc: &mut A) -> (Vec<Idx>, Vec<S::T>) {
        drain_masked(acc, &[])
    }

    fn drain_masked<S: Semiring, A: Accumulator<S>>(
        acc: &mut A,
        mask: &[u64],
    ) -> (Vec<Idx>, Vec<S::T>) {
        let (mut i, mut v) = (Vec::new(), Vec::new());
        acc.drain_sorted(mask, &mut i, &mut v);
        (i, v)
    }

    #[test]
    fn spa_accumulates_and_sorts() {
        let mut spa = Spa::<PlusTimesF64>::new(16);
        spa.accumulate(7, 1.0);
        spa.accumulate(3, 2.0);
        spa.accumulate(7, 4.0);
        assert_eq!(spa.touched(), 2);
        let (idx, val) = drain(&mut spa);
        assert_eq!(idx, vec![3, 7]);
        assert_eq!(val, vec![2.0, 5.0]);
    }

    #[test]
    fn spa_reusable_across_rows() {
        let mut spa = Spa::<PlusTimesF64>::new(8);
        spa.accumulate(1, 1.0);
        let _ = drain(&mut spa);
        spa.accumulate(2, 3.0);
        let (idx, val) = drain(&mut spa);
        assert_eq!(idx, vec![2]);
        assert_eq!(val, vec![3.0]);
    }

    #[test]
    fn spa_drops_cancelled_entries() {
        let mut spa = Spa::<PlusTimesF64>::new(4);
        spa.accumulate(0, 2.0);
        spa.accumulate(0, -2.0);
        spa.accumulate(1, 1.0);
        let (idx, _) = drain(&mut spa);
        assert_eq!(idx, vec![1]);
    }

    #[test]
    fn spa_full_row_drains_in_order() {
        let mut spa = Spa::<PlusTimesF64>::new(8);
        for i in (0..8).rev() {
            spa.accumulate(i, i as f64 + 1.0);
        }
        let (idx, val) = drain(&mut spa);
        assert_eq!(idx, (0..8).collect::<Vec<_>>());
        assert_eq!(val[0], 1.0);
        assert_eq!(val[7], 8.0);
    }

    #[test]
    fn spa_reset_discards() {
        let mut spa = Spa::<BoolAndOr>::new(4);
        spa.accumulate(2, true);
        spa.reset();
        let (idx, _) = drain(&mut spa);
        assert!(idx.is_empty());
    }

    #[test]
    fn hash_accumulates_and_sorts() {
        let mut h = HashAccum::<PlusTimesF64>::with_capacity(4);
        h.accumulate(100, 1.0);
        h.accumulate(5, 2.0);
        h.accumulate(100, 1.5);
        assert_eq!(h.touched(), 2);
        let (idx, val) = drain(&mut h);
        assert_eq!(idx, vec![5, 100]);
        assert_eq!(val, vec![2.0, 2.5]);
    }

    #[test]
    fn hash_grows_under_load() {
        let mut h = HashAccum::<PlusTimesF64>::with_capacity(2);
        for i in 0..1000 {
            h.accumulate(i * 3, 1.0);
        }
        assert_eq!(h.touched(), 1000);
        let (idx, _) = drain(&mut h);
        assert_eq!(idx.len(), 1000);
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn hash_reusable_after_drain() {
        let mut h = HashAccum::<PlusTimesF64>::with_capacity(8);
        h.accumulate(1, 1.0);
        let _ = drain(&mut h);
        h.accumulate(2, 5.0);
        let (idx, val) = drain(&mut h);
        assert_eq!(idx, vec![2]);
        assert_eq!(val, vec![5.0]);
    }

    #[test]
    fn spa_and_hash_agree_on_random_stream() {
        let stream: Vec<(Idx, f64)> = (0..500)
            .map(|i| (((i * 37) % 256) as Idx, (i % 11) as f64 - 5.0))
            .collect();
        let mut spa = Spa::<PlusTimesF64>::new(256);
        let mut h = HashAccum::<PlusTimesF64>::with_capacity(16);
        for &(i, v) in &stream {
            spa.accumulate(i, v);
            h.accumulate(i, v);
        }
        let (si, sv) = drain(&mut spa);
        let (hi, hv) = drain(&mut h);
        assert_eq!(si, hi);
        for (a, b) in sv.iter().zip(&hv) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn masked_drain_drops_the_set_columns_and_nothing_else() {
        fn check<A: Accumulator<PlusTimesF64>>(mut acc: A) {
            let fill = |acc: &mut A| {
                for (i, v) in [(9, 1.0), (2, 2.0), (70, 3.0), (9, 4.0), (64, 5.0)] {
                    acc.accumulate(i, v);
                }
            };
            // Touched columns 9 and 70 and untouched columns 5 and 127 are
            // masked; 2 and 64 survive.
            let mask = [1 << 9 | 1 << 5, 1 << (70 - 64) | 1 << 63];
            fill(&mut acc);
            assert_eq!(drain_masked(&mut acc, &mask), (vec![2, 64], vec![2.0, 5.0]));
            // The next row starts clean, the masked columns included.
            acc.accumulate(70, 1.5);
            assert_eq!(drain(&mut acc), (vec![70], vec![1.5]));
            // A full mask drains nothing, and leaves nothing behind.
            fill(&mut acc);
            assert_eq!(drain_masked(&mut acc, &[!0, !0]), (vec![], vec![]));
            assert_eq!(acc.touched(), 0);
            acc.accumulate(9, 0.5);
            assert_eq!(drain(&mut acc), (vec![9], vec![0.5]));
        }
        check(Spa::new(128));
        check(HashAccum::with_capacity(2));
    }

    #[test]
    fn bit_accum_drains_what_the_spa_drains() {
        assert!(BitAccum::<PlusTimesF64>::new(8).is_none());
        for width in [1, 63, 64, 65, 130] {
            let mut spa = Spa::<BoolAndOr>::new(width);
            let mut bits = BitAccum::<BoolAndOr>::new(width).unwrap();
            // Explicit false contributions, repeats and a whole row ORed in.
            let stream: Vec<(Idx, bool)> = (0..3 * width as Idx)
                .map(|i| ((i * 7 + 3) % width as Idx, i % 3 == 0))
                .collect();
            let row = crate::BitRows::from_pattern(&crate::Csr::from_parts(
                1,
                width,
                vec![0, 1],
                vec![width as Idx - 1],
                vec![true],
            ));
            let mask: Vec<u64> = (0..width.div_ceil(64)).map(|k| 0x5555 << k).collect();
            for mask in [&[][..], &mask] {
                for &(i, v) in &stream {
                    spa.accumulate(i, v);
                    bits.accumulate(i, v);
                }
                spa.accumulate(width as Idx - 1, true);
                bits.or_row(row.row(0));
                let ones: std::collections::BTreeSet<Idx> = stream
                    .iter()
                    .filter(|e| e.1)
                    .map(|e| e.0)
                    .chain([width as Idx - 1])
                    .collect();
                assert_eq!(bits.touched(), ones.len(), "width {width}");
                assert_eq!(
                    drain_masked(&mut bits, mask),
                    drain_masked(&mut spa, mask),
                    "width {width}"
                );
                assert_eq!(bits.touched(), 0, "width {width}: the drain clears the row");
            }
        }
    }

    #[test]
    fn pattern_spa_counts_distinct() {
        let mut p = PatternSpa::new(10);
        assert!(p.mark(3));
        assert!(!p.mark(3));
        assert!(p.mark(7));
        assert_eq!(p.count(), 2);
        assert_eq!(p.reset(), 2);
        assert_eq!(p.count(), 0);
        assert!(p.mark(3)); // fresh after reset
    }
}
