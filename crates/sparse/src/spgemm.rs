//! Local (shared-memory) row-wise Gustavson SpGEMM.
//!
//! Computes `C = A ⊗ B` under a semiring, constructing the output row by row
//! (Eq. 1 of the paper): for every nonzero `A(r,c)`, row `B(c,:)` is scaled
//! and merged into an accumulator for `C(r,:)`.
//!
//! The accumulator is chosen per §III-C: a dense [`Spa`] when the output
//! width is at most [`SPA_WIDTH_THRESHOLD`] (= 1024, Table IV policy), a
//! [`HashAccum`] otherwise. A symbolic pass ([`spgemm_symbolic`]) computes
//! output-row sizes and flops without touching values; the tile-mode
//! selection step builds on it.

use crate::accum::{Accumulator, HashAccum, PatternSpa, Spa};
use crate::semiring::Semiring;
use crate::{Csr, Idx};
use tsgemm_pool::{nnz_chunks, ThreadPool};

/// Output width above which the SPA spills out of cache and the hash
/// accumulator takes over (paper: "For d > 1024, we opt for a hash-based
/// SpGEMM").
pub const SPA_WIDTH_THRESHOLD: usize = 1024;

/// Which accumulator the numeric phase uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AccumChoice {
    /// SPA for widths ≤ [`SPA_WIDTH_THRESHOLD`], hash above.
    #[default]
    Auto,
    /// Force the dense sparse accumulator.
    Spa,
    /// Force the hash accumulator.
    Hash,
}

impl AccumChoice {
    /// Resolves `Auto` against an output width.
    pub fn resolve(self, width: usize) -> AccumChoice {
        match self {
            AccumChoice::Auto => {
                if width <= SPA_WIDTH_THRESHOLD {
                    AccumChoice::Spa
                } else {
                    AccumChoice::Hash
                }
            }
            other => other,
        }
    }
}

/// Result of the symbolic phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Symbolic {
    /// nnz of each output row.
    pub row_nnz: Vec<usize>,
    /// Total multiplications (`flops` in the paper's terminology).
    pub flops: u64,
}

impl Symbolic {
    /// Total output nonzeros.
    pub fn nnz(&self) -> usize {
        self.row_nnz.iter().sum()
    }

    /// Compression ratio `flops / nnz(C)`; 1.0 when no merging happens.
    pub fn compression_ratio(&self) -> f64 {
        let nnz = self.nnz();
        if nnz == 0 {
            0.0
        } else {
            self.flops as f64 / nnz as f64
        }
    }
}

/// Symbolic SpGEMM: per-row output nnz and flop count, value-type agnostic.
///
/// # Panics
/// Panics if `a.ncols() != b.nrows()`.
pub fn spgemm_symbolic<TA: Copy, TB: Copy>(a: &Csr<TA>, b: &Csr<TB>) -> Symbolic {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    let mut pattern = PatternSpa::new(b.ncols());
    let mut row_nnz = Vec::with_capacity(a.nrows());
    let mut flops = 0u64;
    for (_, cols, _) in a.iter_rows() {
        for &c in cols {
            let (bcols, _) = b.row(c as usize);
            flops += bcols.len() as u64;
            for &bc in bcols {
                pattern.mark(bc);
            }
        }
        row_nnz.push(pattern.reset());
    }
    Symbolic { row_nnz, flops }
}

/// Number of multiplications `A·B` would perform, without forming a pattern.
pub fn spgemm_flops<TA: Copy, TB: Copy>(a: &Csr<TA>, b: &Csr<TB>) -> u64 {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    let mut flops = 0u64;
    for (_, cols, _) in a.iter_rows() {
        for &c in cols {
            flops += b.row_nnz(c as usize) as u64;
        }
    }
    flops
}

fn spgemm_rows_into<S: Semiring, A: Accumulator<S>>(
    a: &Csr<S::T>,
    b: &Csr<S::T>,
    rows: std::ops::Range<usize>,
    acc: &mut A,
    indptr: &mut Vec<usize>,
    indices: &mut Vec<Idx>,
    values: &mut Vec<S::T>,
) {
    for r in rows {
        let (acols, avals) = a.row(r);
        for (&c, &va) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(c as usize);
            for (&bc, &vb) in bcols.iter().zip(bvals) {
                acc.accumulate(bc, S::mul(va, vb));
            }
        }
        acc.drain_sorted(&[], indices, values);
        indptr.push(indices.len());
    }
}

/// Sequential numeric SpGEMM.
///
/// # Panics
/// Panics if `a.ncols() != b.nrows()`.
pub fn spgemm<S: Semiring>(a: &Csr<S::T>, b: &Csr<S::T>, choice: AccumChoice) -> Csr<S::T> {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    let mut indptr = Vec::with_capacity(a.nrows() + 1);
    indptr.push(0);
    let mut indices = Vec::new();
    let mut values = Vec::new();
    match choice.resolve(b.ncols()) {
        AccumChoice::Hash => {
            let mut acc = HashAccum::<S>::with_capacity(64);
            spgemm_rows_into(
                a,
                b,
                0..a.nrows(),
                &mut acc,
                &mut indptr,
                &mut indices,
                &mut values,
            );
        }
        _ => {
            let mut acc = Spa::<S>::new(b.ncols());
            spgemm_rows_into(
                a,
                b,
                0..a.nrows(),
                &mut acc,
                &mut indptr,
                &mut indices,
                &mut values,
            );
        }
    }
    Csr::from_parts(a.nrows(), b.ncols(), indptr, indices, values)
}

/// Pool-parallel numeric SpGEMM on the globally configured thread count
/// (`TSGEMM_THREADS`). See [`spgemm_par_with`].
pub fn spgemm_par<S: Semiring>(a: &Csr<S::T>, b: &Csr<S::T>, choice: AccumChoice) -> Csr<S::T> {
    spgemm_par_with::<S>(&ThreadPool::global(), a, b, choice)
}

/// Pool-parallel numeric SpGEMM: output rows are split into one
/// nnz-balanced chunk per thread (prefix-sum over `A`'s `indptr`), each
/// chunk built with a *private* accumulator (the paper's in-node OpenMP
/// scheme, where "each of the t threads maintain their private SPA"), and
/// the per-chunk CSR pieces concatenated in row order.
///
/// Byte-identical to [`spgemm`] for any thread count: each output row
/// depends only on its own accumulate/drain sequence (drains are sorted and
/// accumulator capacity never leaks into the output), chunk boundaries are
/// a pure function of `indptr`, and the ordered concatenation reproduces
/// the sequential left-to-right push order exactly.
pub fn spgemm_par_with<S: Semiring>(
    pool: &ThreadPool,
    a: &Csr<S::T>,
    b: &Csr<S::T>,
    choice: AccumChoice,
) -> Csr<S::T> {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    if pool.nthreads() == 1 {
        return spgemm::<S>(a, b, choice);
    }
    let chunks = nnz_chunks(a.indptr(), pool.nthreads());
    type Piece<T> = (Vec<usize>, Vec<Idx>, Vec<T>);
    let pieces: Vec<Piece<S::T>> = pool.run(chunks.len(), |k| {
        let rows = chunks[k].clone();
        let mut indptr = Vec::with_capacity(rows.len());
        let mut indices = Vec::new();
        let mut values = Vec::new();
        match choice.resolve(b.ncols()) {
            AccumChoice::Hash => {
                let mut acc = HashAccum::<S>::with_capacity(64);
                spgemm_rows_into(a, b, rows, &mut acc, &mut indptr, &mut indices, &mut values);
            }
            _ => {
                let mut acc = Spa::<S>::new(b.ncols());
                spgemm_rows_into(a, b, rows, &mut acc, &mut indptr, &mut indices, &mut values);
            }
        }
        (indptr, indices, values)
    });

    let mut indptr = Vec::with_capacity(a.nrows() + 1);
    indptr.push(0usize);
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for (p, i, v) in pieces {
        let base = indices.len();
        indptr.extend(p.iter().map(|&x| x + base));
        indices.extend(i);
        values.extend(v);
    }
    Csr::from_parts(a.nrows(), b.ncols(), indptr, indices, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{BoolAndOr, MinPlusF64, PlusTimesF64};
    use crate::Coo;

    #[allow(clippy::needless_range_loop)]
    fn dense_mm(a: &Csr<f64>, b: &Csr<f64>) -> Vec<Vec<f64>> {
        let da = a.to_dense_with(0.0);
        let db = b.to_dense_with(0.0);
        let mut c = vec![vec![0.0; b.ncols()]; a.nrows()];
        for r in 0..a.nrows() {
            for k in 0..a.ncols() {
                for j in 0..b.ncols() {
                    c[r][j] += da[r][k] * db[k][j];
                }
            }
        }
        c
    }

    fn mk(n: usize, m: usize, entries: &[(Idx, Idx, f64)]) -> Csr<f64> {
        Coo::from_entries(n, m, entries.to_vec()).to_csr::<PlusTimesF64>()
    }

    #[test]
    fn small_known_product() {
        let a = mk(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
        let b = mk(3, 2, &[(0, 0, 4.0), (1, 1, 5.0), (2, 0, 6.0)]);
        let c = spgemm::<PlusTimesF64>(&a, &b, AccumChoice::Auto);
        assert_eq!(c.get(0, 0), Some(16.0)); // 1*4 + 2*6
        assert_eq!(c.get(1, 1), Some(15.0));
        assert_eq!(c.nnz(), 2);
    }

    #[test]
    fn spa_and_hash_give_identical_results() {
        let a = mk(
            4,
            4,
            &[
                (0, 1, 1.0),
                (0, 3, 2.0),
                (1, 0, 3.0),
                (2, 2, 4.0),
                (3, 0, 5.0),
                (3, 3, 6.0),
            ],
        );
        let b = mk(
            4,
            3,
            &[
                (0, 0, 1.0),
                (1, 2, 2.0),
                (2, 1, 3.0),
                (3, 0, 4.0),
                (3, 2, 5.0),
            ],
        );
        let c1 = spgemm::<PlusTimesF64>(&a, &b, AccumChoice::Spa);
        let c2 = spgemm::<PlusTimesF64>(&a, &b, AccumChoice::Hash);
        assert_eq!(c1, c2);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn matches_dense_reference() {
        // Deterministic pseudo-random pattern.
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        for i in 0..40u32 {
            ea.push(((i * 7) % 12, (i * 13) % 15, (i % 5) as f64 - 2.0));
            eb.push(((i * 11) % 15, (i * 3) % 6, (i % 7) as f64 - 3.0));
        }
        let a = mk(12, 15, &ea);
        let b = mk(15, 6, &eb);
        let c = spgemm::<PlusTimesF64>(&a, &b, AccumChoice::Auto);
        let dc = dense_mm(&a, &b);
        for r in 0..12 {
            for j in 0..6 {
                let got = c.get(r, j as Idx).unwrap_or(0.0);
                assert!((got - dc[r][j]).abs() < 1e-9, "mismatch at ({r},{j})");
            }
        }
    }

    #[test]
    fn symbolic_matches_numeric_nnz_without_cancellation() {
        let a = mk(
            5,
            5,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (4, 0, 1.0),
                (4, 4, 1.0),
            ],
        );
        let b = mk(
            5,
            4,
            &[
                (0, 0, 1.0),
                (1, 1, 1.0),
                (2, 2, 1.0),
                (3, 3, 1.0),
                (4, 0, 1.0),
            ],
        );
        let sym = spgemm_symbolic(&a, &b);
        let c = spgemm::<PlusTimesF64>(&a, &b, AccumChoice::Auto);
        assert_eq!(sym.nnz(), c.nnz());
        for r in 0..5 {
            assert_eq!(sym.row_nnz[r], c.row_nnz(r));
        }
        assert_eq!(sym.flops, spgemm_flops(&a, &b));
    }

    #[test]
    fn flops_counts_multiplications() {
        // A has one nonzero in col 0; B row 0 has 3 entries -> 3 flops.
        let a = mk(1, 2, &[(0, 0, 1.0)]);
        let b = mk(2, 5, &[(0, 0, 1.0), (0, 2, 1.0), (0, 4, 1.0), (1, 1, 1.0)]);
        assert_eq!(spgemm_flops(&a, &b), 3);
        let sym = spgemm_symbolic(&a, &b);
        assert_eq!(sym.flops, 3);
        assert_eq!(sym.nnz(), 3);
        assert!((sym.compression_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bool_semiring_reachability() {
        // Path graph 0 -> 1 -> 2; frontier at column 0 selects vertex 0.
        let adj = Coo::from_entries(3, 3, vec![(1, 0, true), (2, 1, true)]).to_csr::<BoolAndOr>();
        let frontier = Coo::from_entries(3, 1, vec![(0, 0, true)]).to_csr::<BoolAndOr>();
        let next = spgemm::<BoolAndOr>(&adj, &frontier, AccumChoice::Auto);
        assert_eq!(next.get(1, 0), Some(true));
        assert_eq!(next.nnz(), 1);
    }

    #[test]
    fn min_plus_shortest_hop() {
        // Two paths 0->2: direct cost 5, via 1 cost 2+2=4.
        let a = Coo::from_entries(1, 3, vec![(0, 1, 2.0), (0, 2, 5.0)]).to_csr::<MinPlusF64>();
        let b = Coo::from_entries(3, 1, vec![(1, 0, 2.0), (2, 0, 0.0)]).to_csr::<MinPlusF64>();
        let c = spgemm::<MinPlusF64>(&a, &b, AccumChoice::Auto);
        assert_eq!(c.get(0, 0), Some(4.0));
    }

    #[test]
    fn empty_operands() {
        let a: Csr<f64> = Csr::new_empty(3, 4);
        let b: Csr<f64> = Csr::new_empty(4, 2);
        let c = spgemm::<PlusTimesF64>(&a, &b, AccumChoice::Auto);
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.nrows(), 3);
        assert_eq!(c.ncols(), 2);
        assert_eq!(spgemm_symbolic(&a, &b).nnz(), 0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut ea = Vec::new();
        for i in 0..300u32 {
            ea.push(((i * 17) % 64, (i * 29) % 64, 1.0 + (i % 3) as f64));
        }
        let a = mk(64, 64, &ea);
        let b = mk(
            64,
            8,
            &(0..64u32)
                .map(|i| (i, i % 8, 0.5 * i as f64))
                .collect::<Vec<_>>(),
        );
        let seq = spgemm::<PlusTimesF64>(&a, &b, AccumChoice::Auto);
        let par = spgemm_par::<PlusTimesF64>(&a, &b, AccumChoice::Auto);
        assert!(seq.approx_eq(&par, 1e-12));
    }

    #[test]
    fn auto_resolves_by_width() {
        assert_eq!(AccumChoice::Auto.resolve(128), AccumChoice::Spa);
        assert_eq!(AccumChoice::Auto.resolve(1024), AccumChoice::Spa);
        assert_eq!(AccumChoice::Auto.resolve(1025), AccumChoice::Hash);
        assert_eq!(AccumChoice::Hash.resolve(4), AccumChoice::Hash);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a: Csr<f64> = Csr::new_empty(2, 3);
        let b: Csr<f64> = Csr::new_empty(4, 2);
        let _ = spgemm::<PlusTimesF64>(&a, &b, AccumChoice::Auto);
    }
}
