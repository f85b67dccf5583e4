//! Compressed Sparse Column storage.
//!
//! The column-partitioned copy `A^c` that the TS-SpGEMM algorithm maintains
//! (§III-A, "Eliminating communication needed to send requests") needs fast
//! per-column access: the owner of a block of columns must find, for every
//! tile, which of its local `B` rows other processes need. CSC gives that
//! directly.

use crate::semiring::Semiring;
use crate::{Coo, Csr, Idx};

/// A CSC sparse matrix: `indptr` over columns, row indices inside.
#[derive(Clone, Debug, PartialEq)]
pub struct Csc<T> {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<Idx>, // row ids, strictly increasing within a column
    values: Vec<T>,
}

impl<T: Copy> Csc<T> {
    /// An empty `nrows × ncols` matrix.
    pub fn new_empty(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            indptr: vec![0; ncols + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a CSC matrix from a CSR one (counting-sort transpose of the
    /// index structure; the logical matrix is unchanged).
    pub fn from_csr(csr: &Csr<T>) -> Self {
        let (indptr, indices, values) = csr.transpose().into_parts(); // CSR of Aᵀ ≡ CSC of A
        Self {
            nrows: csr.nrows(),
            ncols: csr.ncols(),
            indptr,
            indices,
            values,
        }
    }

    /// Builds from triplets, combining duplicates with `S::add`.
    pub fn from_coo<S: Semiring<T = T>>(coo: &Coo<T>) -> Self {
        Self::from_csr(&coo.to_csr::<S>())
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row indices and values of column `c`.
    #[inline]
    pub fn col(&self, c: usize) -> (&[Idx], &[T]) {
        let (lo, hi) = (self.indptr[c], self.indptr[c + 1]);
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in column `c`.
    #[inline]
    pub fn col_nnz(&self, c: usize) -> usize {
        self.indptr[c + 1] - self.indptr[c]
    }

    /// Iterator over `(col, rows, vals)` for all columns.
    pub fn iter_cols(&self) -> impl Iterator<Item = (usize, &[Idx], &[T])> {
        (0..self.ncols).map(move |c| {
            let (r, v) = self.col(c);
            (c, r, v)
        })
    }

    /// The logical matrix as CSR (inverse of [`Csc::from_csr`]).
    pub fn to_csr(&self) -> Csr<T> {
        // Our arrays are exactly a CSR of the transpose; transposing that
        // CSR yields the original orientation.
        Csr::from_parts(
            self.ncols,
            self.nrows,
            self.indptr.clone(),
            self.indices.clone(),
            self.values.clone(),
        )
        .transpose()
    }

    /// Extracts the submatrix of rows `rlo..rhi` across columns `clo..chi`,
    /// keeping **global** row coordinates but reindexing columns to
    /// `0..chi-clo`. This is exactly a tile of `A` viewed from the `A^c`
    /// side (Fig. 2b).
    pub fn slice(&self, rlo: Idx, rhi: Idx, clo: usize, chi: usize) -> Csc<T> {
        assert!(clo <= chi && chi <= self.ncols);
        let mut indptr = Vec::with_capacity(chi - clo + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for c in clo..chi {
            let (rows, vals) = self.col(c);
            let start = rows.partition_point(|&r| r < rlo);
            let end = rows.partition_point(|&r| r < rhi);
            indices.extend_from_slice(&rows[start..end]);
            values.extend_from_slice(&vals[start..end]);
            indptr.push(indices.len());
        }
        Csc {
            nrows: self.nrows,
            ncols: chi - clo,
            indptr,
            indices,
            values,
        }
    }

    /// Sorted list of rows with at least one nonzero in columns `clo..chi`
    /// intersected with rows `rlo..rhi` — which local `B` rows a tile needs,
    /// computed without any communication (the point of keeping `A^c`).
    pub fn nonzero_rows_in(&self, rlo: Idx, rhi: Idx, clo: usize, chi: usize) -> Vec<Idx> {
        let mut seen = vec![false; (rhi - rlo) as usize];
        for c in clo..chi {
            let (rows, _) = self.col(c);
            let start = rows.partition_point(|&r| r < rlo);
            for &r in &rows[start..] {
                if r >= rhi {
                    break;
                }
                seen[(r - rlo) as usize] = true;
            }
        }
        seen.iter()
            .enumerate()
            .filter_map(|(i, &s)| s.then_some(rlo + i as Idx))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::PlusTimesF64;

    fn sample() -> Csc<f64> {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(2, 0, 3.0);
        coo.push(2, 1, 4.0);
        Csc::from_coo::<PlusTimesF64>(&coo)
    }

    #[test]
    fn column_access() {
        let m = sample();
        assert_eq!(m.col(0).0, &[0, 2]);
        assert_eq!(m.col(0).1, &[1.0, 3.0]);
        assert_eq!(m.col(1).0, &[2]);
        assert_eq!(m.col(2).0, &[0]);
        assert_eq!(m.col_nnz(0), 2);
    }

    #[test]
    fn csr_roundtrip() {
        let mut coo = Coo::new(4, 3);
        coo.push(0, 1, 1.0);
        coo.push(3, 2, 2.0);
        coo.push(2, 0, -1.0);
        let csr = coo.to_csr::<PlusTimesF64>();
        let csc = Csc::from_csr(&csr);
        assert_eq!(csc.to_csr(), csr);
        assert_eq!(csc.nnz(), 3);
        assert_eq!(csc.nrows(), 4);
        assert_eq!(csc.ncols(), 3);
    }

    #[test]
    fn slice_keeps_global_rows() {
        let m = sample();
        // Tile: rows 1..3, cols 1..3.
        let t = m.slice(1, 3, 1, 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.col(0).0, &[2]); // global row 2 kept
        assert_eq!(t.col(0).1, &[4.0]);
        assert_eq!(t.col(1).0.len(), 0); // (0,2) excluded: row 0 < rlo
    }

    #[test]
    fn nonzero_rows_matches_tile_needs() {
        let m = sample();
        assert_eq!(m.nonzero_rows_in(0, 3, 0, 3), vec![0, 2]);
        assert_eq!(m.nonzero_rows_in(0, 3, 1, 2), vec![2]);
        assert_eq!(m.nonzero_rows_in(0, 1, 0, 1), vec![0]);
        assert!(m.nonzero_rows_in(1, 2, 0, 3).is_empty());
    }

    #[test]
    fn empty_matrix() {
        let m: Csc<f64> = Csc::new_empty(5, 4);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.col(3).0.len(), 0);
        assert!(m.nonzero_rows_in(0, 5, 0, 4).is_empty());
    }
}
