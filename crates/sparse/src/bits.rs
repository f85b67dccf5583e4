//! Bit rows: a boolean `nrows × ncols` matrix stored as one bit per entry.
//!
//! Row `r` is `⌈ncols/64⌉` consecutive `u64` words; bit `c % 64` of word
//! `c / 64` is column `c`, and the bits past `ncols` in a row's last word
//! stay clear. This is the visited set of a multi-source BFS, one bit per
//! (vertex, source) as in "The more the merrier" (the paper's \[11\]): a
//! masked multiply reads a row's words directly (see
//! [`Accumulator::drain_sorted`](crate::accum::Accumulator::drain_sorted)),
//! and a new frontier is ORed in place.
//!
//! Under the boolean semiring a product row is the OR of the bit rows of the
//! `B` rows its `A` entries select, so the tile owner keeps its `B` rows as
//! value bits ([`BitRows::from_values`], [`BitRowIndex`]) and ORs them a
//! word at a time ([`or_words`]); the symbolic pass counts an output
//! pattern the same way on pattern bits ([`BitRows::from_pattern`]).

use crate::csr::Csr;
use crate::semiring::Semiring;
use crate::Idx;

/// A structural boolean matrix, one bit per coordinate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitRows {
    nrows: usize,
    ncols: usize,
    /// Words per row.
    stride: usize,
    words: Vec<u64>,
}

/// Whether bit `c` of a row's `words` is set; an empty row holds no bits.
#[inline]
pub(crate) fn bit_set(words: &[u64], c: Idx) -> bool {
    let c = c as usize;
    words.get(c / 64).is_some_and(|w| w >> (c % 64) & 1 != 0)
}

/// ORs the row `src` into the row `dst`, word by word; an empty `src` (a
/// row with no words) ORs nothing.
#[inline]
pub fn or_words(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

impl BitRows {
    /// An `nrows × ncols` matrix with no bit set.
    pub(crate) fn new(nrows: usize, ncols: usize) -> Self {
        let stride = ncols.div_ceil(64);
        Self {
            nrows,
            ncols,
            stride,
            words: vec![0; nrows * stride],
        }
    }

    /// The stored coordinates of `m`, whatever their values.
    pub fn from_pattern<T: Copy>(m: &Csr<T>) -> Self {
        let mut bits = Self::new(m.nrows(), m.ncols());
        bits.or_pattern(m);
        bits
    }

    /// The coordinates of `m` whose stored value is not `S`'s zero: under
    /// the boolean semiring, the entries that are `true`.
    pub fn from_values<S: Semiring>(m: &Csr<S::T>) -> Self {
        let mut bits = Self::new(m.nrows(), m.ncols());
        for (r, cols, vals) in m.iter_rows() {
            for (&c, v) in cols.iter().zip(vals) {
                if !S::is_zero(v) {
                    bits.set(r, c);
                }
            }
        }
        bits
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Row `r`'s words.
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.stride..(r + 1) * self.stride]
    }

    /// Sets bit `(r, c)`.
    #[inline]
    pub(crate) fn set(&mut self, r: usize, c: Idx) {
        let c = c as usize;
        debug_assert!(c < self.ncols, "column {c} out of {}", self.ncols);
        self.words[r * self.stride + c / 64] |= 1 << (c % 64);
    }

    /// Number of bits set in row `r`.
    #[inline]
    pub fn row_count(&self, r: usize) -> usize {
        self.row(r).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether every column of row `r` is set.
    #[inline]
    pub fn row_full(&self, r: usize) -> bool {
        self.row_count(r) == self.ncols
    }

    /// Sets the bit of every stored coordinate of `m` (`self ∨ m`, in place).
    ///
    /// # Panics
    /// Panics if `m` has a different shape.
    pub fn or_pattern<T: Copy>(&mut self, m: &Csr<T>) {
        assert_eq!((m.nrows(), m.ncols()), (self.nrows, self.ncols));
        for (r, cols, _) in m.iter_rows() {
            for &c in cols {
                self.set(r, c);
            }
        }
    }

    /// The entries of `m` whose bit is clear: `m \ self`, structurally.
    ///
    /// # Panics
    /// Panics if `m` has a different shape.
    pub fn clear_part<T: Copy>(&self, m: &Csr<T>) -> Csr<T> {
        assert_eq!((m.nrows(), m.ncols()), (self.nrows, self.ncols));
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for (r, cols, vals) in m.iter_rows() {
            let words = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if !bit_set(words, c) {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Csr::from_parts(self.nrows, self.ncols, indptr, indices, values)
    }

    /// The set bits as a CSR matrix storing `val` at each.
    pub fn to_csr<T: Copy>(&self, val: T) -> Csr<T> {
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        for r in 0..self.nrows {
            for (k, &w) in self.row(r).iter().enumerate() {
                let mut bits = w;
                while bits != 0 {
                    indices.push((k * 64 + bits.trailing_zeros() as usize) as Idx);
                    bits &= bits - 1;
                }
            }
            indptr.push(indices.len());
        }
        let values = vec![val; indices.len()];
        Csr::from_parts(self.nrows, self.ncols, indptr, indices, values)
    }
}

/// Slot of a row that has not arrived.
const NO_SLOT: u32 = u32::MAX;

/// Sparse rows received as `(row, col, value)` entries, kept as bit rows of
/// their value bits (a bit per value that is not the semiring zero) with
/// each row's stored entry count. Only rows that arrive take words: a row
/// gets the next slot at its first entry. Reused across fills, a refill
/// clears only the rows the previous one set, so it costs O(entries
/// received), not O(rows in the range).
pub struct BitRowIndex {
    /// Words per row.
    stride: usize,
    /// Each row's slot, or [`NO_SLOT`].
    slot: Vec<u32>,
    /// The rows holding a slot, in slot order.
    rows: Vec<u32>,
    /// Slot `s`'s words are `words[s * stride..(s + 1) * stride]`.
    words: Vec<u64>,
    /// Slot `s`'s stored entries, whatever their values.
    lens: Vec<usize>,
}

impl Default for BitRowIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl BitRowIndex {
    pub fn new() -> Self {
        Self {
            stride: 0,
            slot: Vec::new(),
            rows: Vec::new(),
            words: Vec::new(),
            lens: Vec::new(),
        }
    }

    /// Re-indexes rows `0..nrows` of `ncols` columns from `entries`, given
    /// as `(row, col, value)` in any order.
    pub fn fill<S: Semiring>(
        &mut self,
        nrows: usize,
        ncols: usize,
        entries: impl IntoIterator<Item = (usize, Idx, S::T)>,
    ) {
        for &r in &self.rows {
            self.slot[r as usize] = NO_SLOT;
        }
        self.rows.clear();
        self.words.clear();
        self.lens.clear();
        if self.slot.len() < nrows {
            self.slot.resize(nrows, NO_SLOT);
        }
        self.stride = ncols.div_ceil(64);
        for (r, c, v) in entries {
            debug_assert!(r < nrows && (c as usize) < ncols, "({r}, {c}) out of range");
            let mut s = self.slot[r];
            if s == NO_SLOT {
                s = self.rows.len() as u32;
                self.slot[r] = s;
                self.rows.push(r as u32);
                self.words.resize(self.words.len() + self.stride, 0);
                self.lens.push(0);
            }
            let s = s as usize;
            self.lens[s] += 1;
            if !S::is_zero(&v) {
                let c = c as usize;
                self.words[s * self.stride + c / 64] |= 1 << (c % 64);
            }
        }
    }

    /// Row `r`'s words and stored entry count; a row that did not arrive
    /// has neither.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u64], usize) {
        match self.slot[r] {
            NO_SLOT => (&[], 0),
            s => {
                let s = s as usize;
                (
                    &self.words[s * self.stride..(s + 1) * self.stride],
                    self.lens[s],
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::BoolAndOr;
    use crate::Coo;

    #[test]
    fn set_and_row_count() {
        let mut b = BitRows::new(3, 130);
        assert_eq!(b.row(1).len(), 3);
        for c in [0, 63, 64, 65, 129, 64] {
            b.set(1, c);
        }
        assert_eq!(b.row_count(1), 5);
        assert_eq!(b.row_count(0) + b.row_count(2), 0);
        assert!(bit_set(b.row(1), 64) && !bit_set(b.row(1), 66) && !bit_set(b.row(0), 64));
        assert_eq!(b.row(1), &[1 | 1 << 63, 0b11, 1 << 1]);
        assert!(bit_set(b.row(1), 129) && !bit_set(&[], 0));
    }

    #[test]
    fn a_full_row_sets_no_bit_past_ncols() {
        for d in [1, 63, 64, 65, 130] {
            let mut b = BitRows::new(2, d);
            for c in 0..d as Idx {
                assert!(!b.row_full(0), "d={d}");
                b.set(0, c);
            }
            assert!(b.row_full(0) && !b.row_full(1), "d={d}");
            assert_eq!(b.row_count(0), d, "d={d}");
            let last = b.row(0)[b.row(0).len() - 1];
            assert_eq!(last.count_ones() as usize, (d - 1) % 64 + 1, "d={d}");
        }
        // A matrix with no columns has no words, and every row is full.
        let b = BitRows::new(2, 0);
        assert!(b.row(1).is_empty() && b.row_full(1));
    }

    #[test]
    fn csr_round_trip_and_clear_part() {
        let coo = Coo::from_entries(
            4,
            130,
            [(0, 5), (0, 64), (2, 0), (2, 63), (2, 129), (3, 65)]
                .map(|(r, c)| (r, c, true))
                .to_vec(),
        );
        let m = coo.to_csr::<BoolAndOr>();
        let b = BitRows::from_pattern(&m);
        assert_eq!(b.to_csr(true), m);
        assert_eq!(b.row_count(2), 3);
        // OR-ing a disjoint pattern in place gives the union.
        let extra = Coo::from_entries(4, 130, vec![(1, 7, true), (2, 64, true)]);
        let mut u = b.clone();
        u.or_pattern(&extra.to_csr::<BoolAndOr>());
        let mut both = coo.clone();
        both.push(1, 7, true);
        both.push(2, 64, true);
        assert_eq!(u.to_csr(true), both.to_csr::<BoolAndOr>());
        // Masking `both` by `b` leaves exactly `extra`, values kept.
        let vals = both.map_values(|_| 2.5).to_csr::<crate::PlusTimesF64>();
        let left = b.clear_part(&vals);
        assert_eq!(left.nnz(), 2);
        assert_eq!((left.get(1, 7), left.get(2, 64)), (Some(2.5), Some(2.5)));
    }

    /// A `4 × d` boolean matrix with explicit `false` entries: row 0 holds
    /// columns 0, d/2 and d-1 as true, false, true; row 1 is empty; row 2
    /// holds every column, true at even ones; row 3 holds one false entry.
    fn with_false_entries(d: usize) -> Csr<bool> {
        let row0 = vec![(0, true), (d as Idx / 2, false), (d as Idx - 1, true)];
        let row2: Vec<(Idx, bool)> = (0..d as Idx).map(|c| (c, c % 2 == 0)).collect();
        let rows = [row0, vec![], row2, vec![(d as Idx - 1, false)]];
        let mut indptr = vec![0];
        let (mut indices, mut values) = (Vec::new(), Vec::new());
        for row in &rows {
            indices.extend(row.iter().map(|e| e.0));
            values.extend(row.iter().map(|e| e.1));
            indptr.push(indices.len());
        }
        Csr::from_parts(4, d, indptr, indices, values)
    }

    #[test]
    fn value_bits_skip_false_entries_and_pattern_bits_keep_them() {
        for d in [63, 64, 65, 130] {
            let m = with_false_entries(d);
            let (values, pattern) = (
                BitRows::from_values::<BoolAndOr>(&m),
                BitRows::from_pattern(&m),
            );
            let trues = m
                .iter_rows()
                .map(|(_, _, v)| v.iter().filter(|&&t| t).count());
            for (r, t) in trues.enumerate() {
                assert_eq!(values.row_count(r), t, "d={d} row {r}: value bits");
                assert_eq!(
                    pattern.row_count(r),
                    m.row_nnz(r),
                    "d={d} row {r}: pattern bits"
                );
            }
            // The value bits are the CSR with its false entries dropped.
            assert_eq!(
                values.to_csr(true),
                m.to_coo().to_csr::<BoolAndOr>(),
                "d={d}"
            );
            assert!(bit_set(pattern.row(3), d as Idx - 1) && values.row_count(3) == 0);
        }
    }

    #[test]
    fn or_words_is_the_row_union() {
        for d in [63, 64, 65, 130] {
            let m = with_false_entries(d);
            let pattern = BitRows::from_pattern(&m);
            let mut w = vec![0; d.div_ceil(64)];
            for r in [0, 1, 3] {
                or_words(&mut w, pattern.row(r));
            }
            // Rows 0 and 3 hold columns 0, d/2 and d-1.
            let ones: Vec<Idx> = (0..d as Idx).filter(|&c| bit_set(&w, c)).collect();
            assert_eq!(ones, [0, d as Idx / 2, d as Idx - 1], "d={d}");
            // The whole of row 2 sets every column and nothing past `d`.
            or_words(&mut w, pattern.row(2));
            assert_eq!(w.iter().map(|x| x.count_ones() as usize).sum::<usize>(), d);
            // A row with no words ORs nothing.
            let before = w.clone();
            or_words(&mut w, &[]);
            assert_eq!(w, before);
        }
    }

    #[test]
    fn bit_row_index_fills_from_entry_rows() {
        for d in [63, 64, 65, 130] {
            let m = with_false_entries(d);
            let want = BitRows::from_values::<BoolAndOr>(&m);
            // Rows 0..4 of `m` arrive as rows 5..9 of a 12-row range, in
            // the order a sender packs them; no entry arrives for row 6.
            let entries = |m: &Csr<bool>| -> Vec<(usize, Idx, bool)> {
                m.iter_rows()
                    .flat_map(|(r, cols, vals)| {
                        cols.iter().zip(vals).map(move |(&c, &v)| (r + 5, c, v))
                    })
                    .collect()
            };
            let mut ix = BitRowIndex::new();
            ix.fill::<BoolAndOr>(12, d, entries(&m));
            for r in 0..12 {
                let (words, len) = ix.row(r);
                match r {
                    5 | 7 | 8 => {
                        assert_eq!(words, want.row(r - 5), "d={d} row {r}");
                        assert_eq!(len, m.row_nnz(r - 5), "d={d} row {r}");
                    }
                    _ => assert_eq!((words, len), (&[][..], 0), "d={d} row {r}"),
                }
            }
            // Row 8 holds one false entry: no bit, one stored entry.
            assert_eq!(ix.row(8), (&vec![0; d.div_ceil(64)][..], 1));
            // A refill forgets every row the last one set.
            let one = Csr::from_parts(1, d, vec![0, 1], vec![d as Idx - 1], vec![true]);
            ix.fill::<BoolAndOr>(12, d, entries(&one));
            assert_eq!(ix.row(5).1, 1);
            assert!(
                bit_set(ix.row(5).0, d as Idx - 1)
                    && ix.row(5).0.iter().map(|w| w.count_ones()).sum::<u32>() == 1
            );
            for r in [6, 7, 8] {
                assert_eq!(ix.row(r), (&[][..], 0), "d={d} row {r} after refill");
            }
        }
    }
}
