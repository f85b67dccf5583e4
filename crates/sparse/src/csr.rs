//! Compressed Sparse Row storage — the workhorse format.
//!
//! Every matrix the distributed algorithms touch (local row blocks of `A`,
//! `B`, `C`, received tile slices, partial results) lives in CSR, matching
//! the paper's implementation (§IV-B: "stored in each process in CSR
//! format"). Rows are always sorted by column index; kernels rely on it.

use crate::{Coo, Idx};

/// A CSR sparse matrix with `u32` column indices and scalar values `T`.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr<T> {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<Idx>,
    values: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// An empty `nrows × ncols` matrix.
    pub fn new_empty(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds from raw CSR arrays.
    ///
    /// # Panics
    /// Panics (in all builds) if the arrays are inconsistent: wrong `indptr`
    /// length, non-monotone `indptr`, index out of range, or unsorted /
    /// duplicate columns within a row.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<Idx>,
        values: Vec<T>,
    ) -> Self {
        let m = Self {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        };
        m.validate().expect("invalid CSR arrays");
        m
    }

    /// Checks the CSR invariants; `Ok(())` when the structure is well-formed.
    pub fn validate(&self) -> Result<(), String> {
        if self.indptr.len() != self.nrows + 1 {
            return Err(format!(
                "indptr length {} != nrows+1 = {}",
                self.indptr.len(),
                self.nrows + 1
            ));
        }
        if self.indptr[0] != 0 {
            return Err("indptr[0] != 0".into());
        }
        if *self.indptr.last().unwrap() != self.indices.len() {
            return Err("indptr[last] != nnz".into());
        }
        if self.indices.len() != self.values.len() {
            return Err("indices and values lengths differ".into());
        }
        for r in 0..self.nrows {
            let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
            if lo > hi {
                return Err(format!("indptr not monotone at row {r}"));
            }
            let row = &self.indices[lo..hi];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row {r} columns not strictly increasing"));
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= self.ncols {
                    return Err(format!("row {r} column {last} out of range {}", self.ncols));
                }
            }
        }
        Ok(())
    }

    /// The raw `(indptr, indices, values)` arrays, without copying.
    pub(crate) fn into_parts(self) -> (Vec<usize>, Vec<Idx>, Vec<T>) {
        (self.indptr, self.indices, self.values)
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

    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    pub fn indices(&self) -> &[Idx] {
        &self.indices
    }

    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[Idx], &[T]) {
        let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Value at `(r, c)` if stored (binary search within the row).
    pub fn get(&self, r: usize, c: Idx) -> Option<T> {
        let (cols, vals) = self.row(r);
        cols.binary_search(&c).ok().map(|i| vals[i])
    }

    /// Iterator over `(row, cols, vals)` for all rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = (usize, &[Idx], &[T])> {
        (0..self.nrows).map(move |r| {
            let (c, v) = self.row(r);
            (r, c, v)
        })
    }

    /// Converts back to triplets.
    pub fn to_coo(&self) -> Coo<T> {
        let mut entries = Vec::with_capacity(self.nnz());
        for (r, cols, vals) in self.iter_rows() {
            for (&c, &v) in cols.iter().zip(vals) {
                entries.push((r as Idx, c, v));
            }
        }
        Coo::from_entries(self.nrows, self.ncols, entries)
    }

    /// Transpose via counting sort — O(nnz + nrows + ncols).
    pub fn transpose(&self) -> Csr<T> {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut indices = vec![0 as Idx; self.nnz()];
        let mut values: Vec<T> = Vec::with_capacity(self.nnz());
        // Safety-free approach: fill with placeholders from existing data.
        values.extend(self.values.iter().copied());
        let mut cursor = counts;
        for (r, cols, vals) in self.iter_rows() {
            for (&c, &v) in cols.iter().zip(vals) {
                let dst = cursor[c as usize];
                indices[dst] = r as Idx;
                values[dst] = v;
                cursor[c as usize] += 1;
            }
        }
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            indptr,
            indices,
            values,
        }
    }

    /// Sorted, de-duplicated list of columns that contain at least one
    /// nonzero — the `nzc` vector of Alg. 1.
    pub fn nonzero_cols(&self) -> Vec<Idx> {
        let mut seen = vec![false; self.ncols];
        for &c in &self.indices {
            seen[c as usize] = true;
        }
        seen.iter()
            .enumerate()
            .filter_map(|(c, &s)| s.then_some(c as Idx))
            .collect()
    }

    /// Like [`Csr::nonzero_cols`] but restricted to `lo..hi` (global column
    /// coordinates preserved) — the per-tile `nzc` used by tiling.
    pub fn nonzero_cols_in_range(&self, lo: Idx, hi: Idx) -> Vec<Idx> {
        let mut seen = vec![false; (hi - lo) as usize];
        for (_, cols, _) in self.iter_rows() {
            let start = cols.partition_point(|&c| c < lo);
            for &c in &cols[start..] {
                if c >= hi {
                    break;
                }
                seen[(c - lo) as usize] = true;
            }
        }
        seen.iter()
            .enumerate()
            .filter_map(|(i, &s)| s.then_some(lo + i as Idx))
            .collect()
    }

    /// Per-column nonzero counts.
    pub fn col_nnz(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.ncols];
        for &c in &self.indices {
            counts[c as usize] += 1;
        }
        counts
    }

    /// New matrix containing rows `lo..hi` (row indices shift to `0..hi-lo`).
    pub fn slice_rows(&self, lo: usize, hi: usize) -> Csr<T> {
        assert!(lo <= hi && hi <= self.nrows);
        let base = self.indptr[lo];
        let indptr = self.indptr[lo..=hi].iter().map(|&p| p - base).collect();
        Csr {
            nrows: hi - lo,
            ncols: self.ncols,
            indptr,
            indices: self.indices[base..self.indptr[hi]].to_vec(),
            values: self.values[base..self.indptr[hi]].to_vec(),
        }
    }

    /// New matrix containing columns `lo..hi`, reindexed to `0..hi-lo`.
    pub fn slice_cols(&self, lo: Idx, hi: Idx) -> Csr<T> {
        assert!(lo <= hi && (hi as usize) <= self.ncols);
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for (_, cols, vals) in self.iter_rows() {
            let start = cols.partition_point(|&c| c < lo);
            let end = cols.partition_point(|&c| c < hi);
            for i in start..end {
                indices.push(cols[i] - lo);
                values.push(vals[i]);
            }
            indptr.push(indices.len());
        }
        Csr {
            nrows: self.nrows,
            ncols: (hi - lo) as usize,
            indptr,
            indices,
            values,
        }
    }

    /// Gathers the given rows (in the given order) into a new matrix with
    /// `rows.len()` rows; column space is unchanged.
    pub fn select_rows(&self, rows: &[Idx]) -> Csr<T> {
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for &r in rows {
            let (cols, vals) = self.row(r as usize);
            indices.extend_from_slice(cols);
            values.extend_from_slice(vals);
            indptr.push(indices.len());
        }
        Csr {
            nrows: rows.len(),
            ncols: self.ncols,
            indptr,
            indices,
            values,
        }
    }

    /// Applies `f` to every value, keeping the structure.
    pub fn map_values<U: Copy>(&self, mut f: impl FnMut(T) -> U) -> Csr<U> {
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Drops stored entries for which `keep` returns false, preserving order.
    pub fn filter(&self, mut keep: impl FnMut(usize, Idx, T) -> bool) -> Csr<T> {
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (r, cols, vals) in self.iter_rows() {
            for (&c, &v) in cols.iter().zip(vals) {
                if keep(r, c, v) {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr,
            indices,
            values,
        }
    }

    /// Stacks matrices with identical `ncols` on top of each other.
    pub fn vstack(blocks: &[&Csr<T>]) -> Csr<T> {
        assert!(!blocks.is_empty());
        let ncols = blocks[0].ncols;
        let nrows = blocks.iter().map(|b| b.nrows).sum();
        let nnz = blocks.iter().map(|b| b.nnz()).sum();
        let mut indptr = Vec::with_capacity(nrows + 1);
        indptr.push(0);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for b in blocks {
            assert_eq!(b.ncols, ncols, "vstack requires equal column counts");
            let base = indices.len();
            indices.extend_from_slice(&b.indices);
            values.extend_from_slice(&b.values);
            indptr.extend(b.indptr[1..].iter().map(|&p| p + base));
        }
        Csr {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        }
    }

    /// Dense `nrows × ncols` representation (test/debug helper); absent
    /// entries take `zero`.
    pub fn to_dense_with(&self, zero: T) -> Vec<Vec<T>> {
        let mut out = vec![vec![zero; self.ncols]; self.nrows];
        for (r, cols, vals) in self.iter_rows() {
            for (&c, &v) in cols.iter().zip(vals) {
                out[r][c as usize] = v;
            }
        }
        out
    }
}

impl Csr<f64> {
    /// Approximate equality for float-valued matrices: identical patterns and
    /// values within `tol`.
    pub fn approx_eq(&self, other: &Csr<f64>, tol: f64) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.indptr == other.indptr
            && self.indices == other.indices
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(a, b)| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::PlusTimesF64;

    fn sample() -> Csr<f64> {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(2, 0, 3.0);
        coo.push(2, 1, 4.0);
        coo.to_csr::<PlusTimesF64>()
    }

    #[test]
    fn row_access() {
        let m = sample();
        assert_eq!(m.row(0).0, &[0, 2]);
        assert_eq!(m.row(1).0.len(), 0);
        assert_eq!(m.row(2).1, &[3.0, 4.0]);
        assert_eq!(m.row_nnz(2), 2);
    }

    #[test]
    fn get_hits_and_misses() {
        let m = sample();
        assert_eq!(m.get(0, 2), Some(2.0));
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.get(1, 0), None);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.get(0, 2), Some(3.0));
        assert_eq!(t.get(1, 2), Some(4.0));
        assert_eq!(t.get(2, 0), Some(2.0));
        let tt = t.transpose();
        assert_eq!(tt, m);
    }

    #[test]
    fn transpose_validates() {
        let m = sample();
        m.transpose().validate().unwrap();
    }

    #[test]
    fn nonzero_cols_full_and_range() {
        let m = sample();
        assert_eq!(m.nonzero_cols(), vec![0, 1, 2]);
        assert_eq!(m.nonzero_cols_in_range(1, 3), vec![1, 2]);
        assert_eq!(m.nonzero_cols_in_range(1, 2), vec![1]);
        let empty = Csr::<f64>::new_empty(2, 5);
        assert!(empty.nonzero_cols().is_empty());
    }

    #[test]
    fn col_nnz_counts() {
        let m = sample();
        assert_eq!(m.col_nnz(), vec![2, 1, 1]);
    }

    #[test]
    fn slice_rows_shifts() {
        let m = sample();
        let s = m.slice_rows(1, 3);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.row(1).0, &[0, 1]);
        s.validate().unwrap();
    }

    #[test]
    fn slice_cols_reindexes() {
        let m = sample();
        let s = m.slice_cols(1, 3);
        assert_eq!(s.ncols(), 2);
        assert_eq!(s.get(0, 1), Some(2.0)); // global col 2 -> local 1
        assert_eq!(s.get(2, 0), Some(4.0)); // global col 1 -> local 0
        s.validate().unwrap();
    }

    #[test]
    fn select_rows_gathers_in_order() {
        let m = sample();
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.row(0).1, &[3.0, 4.0]);
        assert_eq!(s.row(1).1, &[1.0, 2.0]);
    }

    #[test]
    fn vstack_concatenates() {
        let m = sample();
        let v = Csr::vstack(&[&m, &m]);
        assert_eq!(v.nrows(), 6);
        assert_eq!(v.nnz(), 8);
        assert_eq!(v.row(3).0, m.row(0).0);
        v.validate().unwrap();
    }

    #[test]
    fn filter_drops_entries() {
        let m = sample();
        let f = m.filter(|_, _, v| v > 2.5);
        assert_eq!(f.nnz(), 2);
        assert_eq!(f.get(2, 0), Some(3.0));
        f.validate().unwrap();
    }

    #[test]
    fn coo_roundtrip() {
        let m = sample();
        let back = m.to_coo().to_csr::<PlusTimesF64>();
        assert_eq!(back, m);
    }

    #[test]
    fn validate_rejects_unsorted_rows() {
        let m = Csr {
            nrows: 1,
            ncols: 3,
            indptr: vec![0, 2],
            indices: vec![2, 1],
            values: vec![1.0, 2.0],
        };
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_rejects_out_of_range_column() {
        let m = Csr {
            nrows: 1,
            ncols: 2,
            indptr: vec![0, 1],
            indices: vec![5],
            values: vec![1.0],
        };
        assert!(m.validate().is_err());
    }

    #[test]
    fn approx_eq_tolerates_small_differences() {
        let a = sample();
        let mut b = sample();
        b.values[0] += 1e-12;
        assert!(a.approx_eq(&b, 1e-9));
        b.values[0] += 1.0;
        assert!(!a.approx_eq(&b, 1e-9));
    }
}
