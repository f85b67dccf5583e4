//! Coordinate-format (triplet) sparse matrices.
//!
//! COO is the interchange format: generators emit it, MatrixMarket I/O reads
//! and writes it, and the distributed scatter/gather plumbing ships triplet
//! lists between ranks. Compute kernels convert to [`Csr`] first.

use crate::semiring::Semiring;
use crate::{Csr, Idx};

/// A sparse matrix as an unordered list of `(row, col, value)` triplets.
///
/// Duplicates are allowed and are combined with the semiring's ⊕ when
/// converting to CSR, mirroring how partial results accumulate.
#[derive(Clone, Debug, PartialEq)]
pub struct Coo<T> {
    nrows: usize,
    ncols: usize,
    entries: Vec<(Idx, Idx, T)>,
}

impl<T: Copy> Coo<T> {
    /// An empty `nrows × ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Builds from an existing triplet list.
    ///
    /// # Panics
    /// Panics if any coordinate is out of bounds.
    pub fn from_entries(nrows: usize, ncols: usize, entries: Vec<(Idx, Idx, T)>) -> Self {
        for &(r, c, _) in &entries {
            assert!(
                (r as usize) < nrows && (c as usize) < ncols,
                "entry ({r},{c}) out of bounds for {nrows}x{ncols}"
            );
        }
        Self {
            nrows,
            ncols,
            entries,
        }
    }

    /// Appends one entry.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    pub fn push(&mut self, r: Idx, c: Idx, v: T) {
        assert!(
            (r as usize) < self.nrows && (c as usize) < self.ncols,
            "entry ({r},{c}) out of bounds for {}x{}",
            self.nrows,
            self.ncols
        );
        self.entries.push((r, c, v));
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored triplets (duplicates counted separately).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    pub fn entries(&self) -> &[(Idx, Idx, T)] {
        &self.entries
    }

    pub fn into_entries(self) -> Vec<(Idx, Idx, T)> {
        self.entries
    }

    /// Applies `f` to every stored value.
    pub fn map_values<U: Copy>(&self, mut f: impl FnMut(T) -> U) -> Coo<U> {
        Coo {
            nrows: self.nrows,
            ncols: self.ncols,
            entries: self.entries.iter().map(|&(r, c, v)| (r, c, f(v))).collect(),
        }
    }

    /// Converts to CSR, combining duplicate coordinates with `S::add` and
    /// dropping entries that combine to semiring zero.
    pub fn to_csr<S: Semiring<T = T>>(&self) -> Csr<T> {
        self.clone().into_csr::<S>()
    }

    /// Consuming [`Coo::to_csr`]: sorts the triplet list in place instead of
    /// sorting a copy.
    pub fn into_csr<S: Semiring<T = T>>(self) -> Csr<T> {
        let Coo {
            nrows,
            ncols,
            mut entries,
        } = self;
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut indptr = Vec::with_capacity(nrows + 1);
        let mut indices: Vec<Idx> = Vec::with_capacity(entries.len());
        let mut values: Vec<T> = Vec::with_capacity(entries.len());
        indptr.push(0);

        let mut row = 0usize;
        let mut i = 0usize;
        while i < entries.len() {
            let (r, c, mut v) = entries[i];
            i += 1;
            while i < entries.len() && entries[i].0 == r && entries[i].1 == c {
                v = S::add(v, entries[i].2);
                i += 1;
            }
            while row < r as usize {
                indptr.push(indices.len());
                row += 1;
            }
            if !S::is_zero(&v) {
                indices.push(c);
                values.push(v);
            }
        }
        while row < nrows {
            indptr.push(indices.len());
            row += 1;
        }

        Csr::from_parts(nrows, ncols, indptr, indices, values)
    }

    /// The transpose as a new COO (swaps coordinates).
    pub fn transpose(&self) -> Coo<T> {
        Coo {
            nrows: self.ncols,
            ncols: self.nrows,
            entries: self.entries.iter().map(|&(r, c, v)| (c, r, v)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{BoolAndOr, PlusTimesF64};

    #[test]
    fn empty_to_csr() {
        let coo: Coo<f64> = Coo::new(3, 4);
        let csr = coo.to_csr::<PlusTimesF64>();
        assert_eq!(csr.nrows(), 3);
        assert_eq!(csr.ncols(), 4);
        assert_eq!(csr.nnz(), 0);
    }

    #[test]
    fn duplicates_combine_with_add() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 1, 2.0);
        coo.push(0, 1, 3.0);
        coo.push(1, 0, 1.0);
        let csr = coo.to_csr::<PlusTimesF64>();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 1), Some(5.0));
        assert_eq!(csr.get(1, 0), Some(1.0));
    }

    #[test]
    fn entries_cancelling_to_zero_are_dropped() {
        let mut coo = Coo::new(1, 2);
        coo.push(0, 0, 4.0);
        coo.push(0, 0, -4.0);
        coo.push(0, 1, 1.0);
        let csr = coo.to_csr::<PlusTimesF64>();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(0, 0), None);
    }

    #[test]
    fn into_csr_equals_to_csr() {
        let mut coo = Coo::new(3, 3);
        coo.push(2, 1, 1.5);
        coo.push(0, 2, 2.0);
        coo.push(2, 1, -1.5);
        coo.push(0, 0, 4.0);
        assert_eq!(
            coo.clone().into_csr::<PlusTimesF64>(),
            coo.to_csr::<PlusTimesF64>()
        );
    }

    #[test]
    fn bool_duplicates_or_together() {
        let mut coo = Coo::new(1, 1);
        coo.push(0, 0, true);
        coo.push(0, 0, true);
        let csr = coo.to_csr::<BoolAndOr>();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(0, 0), Some(true));
    }

    #[test]
    fn false_values_dropped_in_bool_semiring() {
        let mut coo = Coo::new(1, 2);
        coo.push(0, 0, false);
        coo.push(0, 1, true);
        let csr = coo.to_csr::<BoolAndOr>();
        assert_eq!(csr.nnz(), 1);
    }

    #[test]
    fn rows_past_last_entry_are_empty() {
        let mut coo = Coo::new(5, 5);
        coo.push(1, 1, 1.0);
        let csr = coo.to_csr::<PlusTimesF64>();
        assert_eq!(csr.row(4).0.len(), 0);
        assert_eq!(csr.row(1).0, &[1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_panics() {
        let mut coo: Coo<f64> = Coo::new(2, 2);
        coo.push(2, 0, 1.0);
    }

    #[test]
    fn transpose_swaps_coords() {
        let mut coo = Coo::new(2, 3);
        coo.push(0, 2, 7.0);
        let t = coo.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.entries()[0], (2, 0, 7.0));
    }

    #[test]
    fn map_values_converts_type() {
        let mut coo = Coo::new(1, 1);
        coo.push(0, 0, 3.5f64);
        let b = coo.map_values(|v| v > 1.0);
        assert_eq!(b.entries()[0], (0, 0, true));
    }
}
