//! Row-distributed sparse matrices.
//!
//! A [`DistCsr`] is one rank's row block of a globally `nrows × ncols`
//! matrix: local rows `0..local_len` map to global rows `lo..hi`, column
//! indices stay global. Both the square operand `A` (`ncols = n`) and the
//! tall-and-skinny operands `B`, `C` (`ncols = d`) use this layout.

use crate::part::BlockDist;
use tsgemm_net::Comm;
use tsgemm_sparse::semiring::Semiring;
use tsgemm_sparse::{Coo, Csr, Idx};

/// One rank's row block of a distributed CSR matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct DistCsr<T> {
    /// Distribution of the global rows.
    pub dist: BlockDist,
    /// This rank's id in the distribution.
    pub rank: usize,
    /// Local rows (global rows `dist.range(rank)`), global column indices.
    pub local: Csr<T>,
}

impl<T: Copy + Send + 'static> DistCsr<T> {
    /// Builds the local block by filtering a (replicated) global triplet
    /// list. Generators are deterministic, so every rank can materialise the
    /// global COO and keep only its rows — no scatter communication needed.
    pub fn from_global_coo<S: Semiring<T = T>>(
        coo: &Coo<T>,
        dist: BlockDist,
        rank: usize,
        ncols: usize,
    ) -> Self {
        assert_eq!(coo.nrows(), dist.n(), "row count must match distribution");
        assert_eq!(coo.ncols(), ncols);
        let (lo, hi) = dist.range(rank);
        let entries: Vec<(Idx, Idx, T)> = coo
            .entries()
            .iter()
            .filter(|&&(r, _, _)| r >= lo && r < hi)
            .map(|&(r, c, v)| (r - lo, c, v))
            .collect();
        let local = Coo::from_entries((hi - lo) as usize, ncols, entries).into_csr::<S>();
        Self { dist, rank, local }
    }

    /// Builds the local block from pre-partitioned triplets already in
    /// **local** row coordinates (see [`partition_coo`]). Faster than
    /// [`DistCsr::from_global_coo`] when many ranks share one replicated
    /// input: the bucketing pass runs once instead of `p` times.
    pub fn from_local_triplets<S: Semiring<T = T>>(
        dist: BlockDist,
        rank: usize,
        ncols: usize,
        trips: Vec<(Idx, Idx, T)>,
    ) -> Self {
        let local = Coo::from_entries(dist.local_len(rank), ncols, trips).into_csr::<S>();
        Self { dist, rank, local }
    }

    /// Global row range `[lo, hi)` of this block.
    pub fn row_range(&self) -> (Idx, Idx) {
        self.dist.range(self.rank)
    }

    /// Number of local rows.
    pub fn local_rows(&self) -> usize {
        self.local.nrows()
    }

    /// Global column count.
    pub fn ncols(&self) -> usize {
        self.local.ncols()
    }

    /// Local nonzeros.
    pub fn local_nnz(&self) -> usize {
        self.local.nnz()
    }

    /// Row accessor by **global** row id (must be owned by this rank).
    pub fn global_row(&self, g: Idx) -> (&[Idx], &[T]) {
        let l = self.dist.to_local(self.rank, g);
        self.local.row(l as usize)
    }

    /// Gathers the full matrix on every rank (test/verification plumbing;
    /// uses an untimed tag so it can be excluded from experiment stats).
    pub fn gather_global<S: Semiring<T = T>>(&self, comm: &mut Comm) -> Csr<T> {
        let (lo, _) = self.row_range();
        let mut trips: Vec<(Idx, Idx, T)> = Vec::with_capacity(self.local.nnz());
        for (r, cols, vals) in self.local.iter_rows() {
            for (&c, &v) in cols.iter().zip(vals) {
                trips.push((lo + r as Idx, c, v));
            }
        }
        let all = comm.allgatherv(trips, "gather:verify");
        let entries: Vec<(Idx, Idx, T)> = all.into_iter().flatten().collect();
        Coo::from_entries(self.dist.n(), self.ncols(), entries).into_csr::<S>()
    }
}

/// Buckets a replicated global COO by owning rank in one pass, shifting row
/// ids to block-local coordinates. `out[r]` feeds
/// [`DistCsr::from_local_triplets`] on rank `r`.
pub fn partition_coo<T: Copy>(coo: &Coo<T>, dist: BlockDist) -> Vec<Vec<(Idx, Idx, T)>> {
    let mut out: Vec<Vec<(Idx, Idx, T)>> = (0..dist.p()).map(|_| Vec::new()).collect();
    for &(r, c, v) in coo.entries() {
        let owner = dist.owner(r);
        let (lo, _) = dist.range(owner);
        out[owner].push((r - lo, c, v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgemm_net::World;
    use tsgemm_sparse::gen::erdos_renyi;
    use tsgemm_sparse::PlusTimesF64;

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn partitioned_construction_matches_filtering() {
        let coo = erdos_renyi(45, 4.0, 19);
        let dist = BlockDist::new(45, 4);
        let parts = partition_coo(&coo, dist);
        for rank in 0..4 {
            let fast =
                DistCsr::from_local_triplets::<PlusTimesF64>(dist, rank, 45, parts[rank].clone());
            let slow = DistCsr::from_global_coo::<PlusTimesF64>(&coo, dist, rank, 45);
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn blocks_partition_the_matrix() {
        let coo = erdos_renyi(100, 5.0, 1);
        let global = coo.to_csr::<PlusTimesF64>();
        let p = 4;
        let dist = BlockDist::new(100, p);
        let mut total = 0usize;
        for rank in 0..p {
            let blk = DistCsr::from_global_coo::<PlusTimesF64>(&coo, dist, rank, 100);
            total += blk.local_nnz();
            let (lo, hi) = blk.row_range();
            assert_eq!(blk.local_rows(), (hi - lo) as usize);
            for (r, cols, vals) in blk.local.iter_rows() {
                let (gc, gv) = global.row(lo as usize + r);
                assert_eq!(cols, gc);
                assert_eq!(vals, gv);
            }
        }
        assert_eq!(total, global.nnz());
    }

    #[test]
    fn gather_reconstructs_global() {
        let coo = erdos_renyi(60, 4.0, 7);
        let global = coo.to_csr::<PlusTimesF64>();
        let out = World::run(3, |comm| {
            let dist = BlockDist::new(60, 3);
            let blk = DistCsr::from_global_coo::<PlusTimesF64>(&coo, dist, comm.rank(), 60);
            blk.gather_global::<PlusTimesF64>(comm)
        });
        for g in out.results {
            assert_eq!(g, global);
        }
    }

    #[test]
    fn global_row_access() {
        let coo = erdos_renyi(20, 3.0, 3);
        let dist = BlockDist::new(20, 4);
        let blk = DistCsr::from_global_coo::<PlusTimesF64>(&coo, dist, 1, 20);
        let (lo, hi) = blk.row_range();
        let global = coo.to_csr::<PlusTimesF64>();
        for g in lo..hi {
            assert_eq!(blk.global_row(g).0, global.row(g as usize).0);
        }
    }

    #[test]
    fn empty_rank_block() {
        let coo = Coo::<f64>::new(3, 3);
        let dist = BlockDist::new(3, 5);
        let blk = DistCsr::from_global_coo::<PlusTimesF64>(&coo, dist, 4, 3);
        assert_eq!(blk.local_rows(), 0);
        assert_eq!(blk.local_nnz(), 0);
    }
}
