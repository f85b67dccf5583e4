//! Bit rows: a boolean `nrows × ncols` matrix stored as one bit per entry.
//!
//! Row `r` is `⌈ncols/64⌉` consecutive `u64` words; bit `c % 64` of word
//! `c / 64` is column `c`, and the bits past `ncols` in a row's last word
//! stay clear. This is the visited set of a multi-source BFS, one bit per
//! (vertex, source) as in "The more the merrier" (the paper's \[11\]): a
//! masked multiply reads a row's words directly (see
//! [`Accumulator::drain_sorted`](crate::accum::Accumulator::drain_sorted)),
//! and a new frontier is ORed in place.

use crate::csr::Csr;
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
}
