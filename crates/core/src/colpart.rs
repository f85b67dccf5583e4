//! The column-partitioned copy `A^c`.
//!
//! §III-A: keeping a second, column-partitioned copy of `A` lets every
//! process determine — without any communication — exactly which of its `B`
//! rows each other process needs, eliminating the index-request round of
//! naive distributed Gustavson, at the cost of doubling the memory for `A`.
//! This module builds `A^c` from the row-distributed `A` with one setup
//! AllToAllv (each entry is shipped to the owner of its column).

use crate::dist::DistCsr;
use crate::part::BlockDist;
use tsgemm_net::Comm;
use tsgemm_sparse::semiring::Semiring;
use tsgemm_sparse::{Coo, Csc, Idx};

/// Wire format for one sparse entry in global coordinates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Trip<T> {
    pub row: Idx,
    pub col: Idx,
    pub val: T,
}

/// One rank's column block of `A` (`A_i^c` in the paper), stored CSC with
/// **global** row ids and **local** column ids.
#[derive(Clone, Debug)]
pub struct ColBlocks<T> {
    /// Distribution of the global columns (same block distribution as rows).
    pub dist: BlockDist,
    pub rank: usize,
    /// `n × local_cols` CSC block; column `k` is global column `lo + k`.
    pub local: Csc<T>,
}

impl<T: Copy + Send + 'static> ColBlocks<T> {
    /// Builds `A^c` from the row-distributed `A` (one AllToAllv, tagged
    /// `setup:colpart` so experiments can separate setup from multiply).
    pub fn build<S: Semiring<T = T>>(comm: &mut Comm, a: &DistCsr<T>) -> Self {
        let dist = a.dist;
        let p = comm.size();
        assert_eq!(dist.p(), p, "distribution must match communicator size");
        let (lo, _) = a.row_range();

        let mut sends: Vec<Vec<Trip<T>>> = (0..p).map(|_| Vec::new()).collect();
        for (r, cols, vals) in a.local.iter_rows() {
            let g_row = lo + r as Idx;
            for (&c, &v) in cols.iter().zip(vals) {
                sends[dist.owner(c)].push(Trip {
                    row: g_row,
                    col: c,
                    val: v,
                });
            }
        }
        let received = comm.alltoallv(sends, "setup:colpart");

        let (clo, chi) = dist.range(comm.rank());
        let width = (chi - clo) as usize;
        let entries: Vec<(Idx, Idx, T)> = received
            .into_iter()
            .flatten()
            .map(|t| (t.row, t.col - clo, t.val))
            .collect();
        let csr = Coo::from_entries(dist.n(), width, entries).into_csr::<S>();
        ColBlocks {
            dist,
            rank: comm.rank(),
            local: Csc::from_csr(&csr),
        }
    }
}

impl<T: Copy> ColBlocks<T> {
    /// Global column range `[lo, hi)` of this block.
    pub fn col_range(&self) -> (Idx, Idx) {
        self.dist.range(self.rank)
    }

    /// Number of local columns.
    pub fn local_cols(&self) -> usize {
        self.local.ncols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgemm_net::World;
    use tsgemm_sparse::gen::erdos_renyi;
    use tsgemm_sparse::{Csr, PlusTimesF64};

    #[test]
    fn colpart_matches_global_columns() {
        let n = 50;
        let p = 4;
        let coo = erdos_renyi(n, 4.0, 11);
        let global = coo.to_csr::<PlusTimesF64>();
        let out = World::run(p, |comm| {
            let dist = BlockDist::new(n, p);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(&coo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
            (ac.col_range(), ac.local.to_csr())
        });
        // Reassemble columns and compare against the global matrix.
        let gt: Csr<f64> = global.transpose();
        for ((clo, chi), block_csr) in out.results {
            // block_csr is n x width; its column k is global column clo + k.
            let bt = block_csr.transpose(); // width x n : row k = global col clo+k
            for k in 0..(chi - clo) {
                let (rows, vals) = bt.row(k as usize);
                let (grows, gvals) = gt.row((clo + k) as usize);
                assert_eq!(rows, grows, "col {} mismatch", clo + k);
                assert_eq!(vals, gvals);
            }
        }
    }

    #[test]
    fn colpart_conserves_nnz() {
        let n = 40;
        let p = 5;
        let coo = erdos_renyi(n, 6.0, 5);
        let total = coo.to_csr::<PlusTimesF64>().nnz();
        let out = World::run(p, |comm| {
            let dist = BlockDist::new(n, p);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(&coo, dist, comm.rank(), n);
            ColBlocks::build::<PlusTimesF64>(comm, &a).local.nnz()
        });
        assert_eq!(out.results.iter().sum::<usize>(), total);
    }

    #[test]
    fn setup_comm_is_tagged() {
        let n = 30;
        let coo = erdos_renyi(n, 5.0, 2);
        let out = World::run(3, |comm| {
            let dist = BlockDist::new(n, 3);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(&coo, dist, comm.rank(), n);
            let _ = ColBlocks::build::<PlusTimesF64>(comm, &a);
        });
        let setup: u64 = out
            .profiles
            .iter()
            .map(|p| p.bytes_sent_tagged("setup:colpart"))
            .sum();
        assert!(setup > 0, "off-rank columns must move during setup");
    }
}
