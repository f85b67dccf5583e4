//! Distributed SpMM: the same tiled communication pattern as TS-SpGEMM but
//! with a **dense** tall-and-skinny operand (§V-C).
//!
//! The paper implements this contender to locate the sparsity threshold at
//! which TS-SpGEMM starts winning: SpMM ships values only (`d` scalars per
//! needed `B` row, no column indices), while TS-SpGEMM ships index+value
//! pairs for the stored entries only. At `f64`/`u32` sizes the volumes cross
//! at ~50% sparsity — the threshold Fig. 7 reports.
//!
//! Only the local mode exists here: a remote partial `C` row would itself be
//! a dense `d`-vector, so returning it can never move fewer bytes than
//! fetching the `B` row (they are the same size, and the tile owner may need
//! that `B` row for several tiles).

use crate::colpart::ColBlocks;
use crate::dist::DistCsr;
use crate::tiling::{kernel_lanes, needed_rows, RowIndex, TileBuckets, Tiling};
use tsgemm_net::Comm;
use tsgemm_pool::{nnz_chunks_range, ThreadPool};
use tsgemm_sparse::semiring::Semiring;
use tsgemm_sparse::{DenseMat, Idx};

/// Dense kernels stream contiguously instead of chasing indices; their
/// effective flop rate is several times the sparse kernels'. The cost model
/// has a single flop channel, so SpMM credits flops discounted by this
/// factor (documented in DESIGN.md; the Fig. 7 runtime shape depends on it
/// only mildly because communication dominates at the evaluated scale).
pub const DENSE_FLOP_DISCOUNT: u64 = 3;

tsgemm_net::stats_struct! {
    /// Per-rank statistics of one distributed SpMM.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct SpmmLocalStats {
        /// Raw multiply-adds performed (undiscounted).
        pub flops: u64 => sum,
        /// Dense `B` rows this rank shipped to others.
        pub rows_shipped: u64 => sum,
        /// Tile steps executed.
        pub steps: u64 => max,
    }
}

/// Configuration: tile geometry and stat tag.
#[derive(Clone, Debug)]
pub struct SpmmConfig {
    pub tile_height: Option<usize>,
    pub tile_width: Option<usize>,
    pub tag: String,
}

impl Default for SpmmConfig {
    fn default() -> Self {
        Self {
            tile_height: None,
            tile_width: None,
            tag: "spmm".to_string(),
        }
    }
}

/// Distributed SpMM over the tiled schedule. `b_dense` holds this rank's
/// rows of the dense operand; returns this rank's dense `C` rows.
pub fn dist_spmm<S: Semiring>(
    comm: &mut Comm,
    a: &DistCsr<S::T>,
    ac: &ColBlocks<S::T>,
    b_dense: &DenseMat<S::T>,
    cfg: &SpmmConfig,
) -> (DenseMat<S::T>, SpmmLocalStats) {
    let me = comm.rank();
    let p = comm.size();
    let dist = a.dist;
    assert_eq!(ac.dist, dist, "A^c must follow A's distribution");
    assert_eq!(
        b_dense.nrows(),
        dist.local_len(me),
        "B block must hold this rank's rows"
    );
    let d = b_dense.ncols();
    let (my_lo, _) = dist.range(me);

    let tiling = Tiling::sized(dist, cfg.tile_height, cfg.tile_width);
    let buckets = TileBuckets::build(ac, &tiling);

    let mut c = DenseMat::filled(dist.local_len(me), d, S::zero());
    let mut stats = SpmmLocalStats {
        steps: tiling.steps() as u64,
        ..SpmmLocalStats::default()
    };
    let (bcol_lo, _) = ac.col_range();
    // Received dense B rows, indexed over the column band.
    let mut brows = RowIndex::new();
    let mut flops = 0u64;
    let pool = ThreadPool::global();

    for rb in 0..tiling.n_row_bands {
        for cb in 0..tiling.n_col_bands {
            // Server role: ship the dense B rows each sub-tile needs.
            let mut id_send: Vec<Vec<Idx>> = (0..p).map(|_| Vec::new()).collect();
            let mut val_send: Vec<Vec<S::T>> = (0..p).map(|_| Vec::new()).collect();
            for (i, bucket) in buckets.step(rb, cb).filter(|&(i, _)| i != me) {
                for k in needed_rows(bucket) {
                    id_send[i].push(bcol_lo + k);
                    val_send[i].extend_from_slice(b_dense.row(k as usize));
                    stats.rows_shipped += 1;
                }
            }
            let id_recv = comm.alltoallv(id_send, format!("{}:ids", cfg.tag));
            let val_recv = comm.alltoallv(val_send, format!("{}:vals", cfg.tag));

            // Tile-owner role: dense accumulate (streaming-friendly).
            let recv_bytes: u64 = val_recv
                .iter()
                .map(|v| (v.len() * std::mem::size_of::<S::T>()) as u64)
                .sum();
            comm.note_working_set(recv_bytes);
            let (cb_lo, cb_hi) = tiling.col_band_range(cb);
            brows.fill_dense(&id_recv, &val_recv, cb_lo, (cb_hi - cb_lo) as usize, d);
            let (band_lo, band_hi) = tiling.band_range(me, rb);
            let lo_l = (band_lo - my_lo) as usize;
            let hi_l = (band_hi - my_lo) as usize;
            // Rows are independent, so each nnz-balanced chunk of the band
            // owns a disjoint slice of C (split_at_mut) and writes it
            // directly; every row is the same left-to-right fold as the
            // sequential kernel, so the result is thread-count independent.
            let chunks = nnz_chunks_range(a.local.indptr(), lo_l, hi_l, pool.nthreads());
            let mut jobs = Vec::with_capacity(chunks.len());
            let mut rest: &mut [S::T] = &mut c.data_mut()[lo_l * d..hi_l * d];
            let mut done = lo_l;
            for rows in chunks {
                let (band, tail) = rest.split_at_mut((rows.end - done) * d);
                rest = tail;
                done = rows.end;
                let (a_local, brows) = (&a.local, &brows);
                jobs.push(move || {
                    let mut f = 0u64;
                    for r_local in rows.clone() {
                        let at = (r_local - rows.start) * d;
                        let crow = &mut band[at..at + d];
                        let (cols, vals) = a_local.row(r_local);
                        let start = cols.partition_point(|&c| c < cb_lo);
                        let end = cols.partition_point(|&c| c < cb_hi);
                        for (&col, &va) in cols[start..end].iter().zip(&vals[start..end]) {
                            let brow: &[S::T] = if dist.owner(col) == me {
                                b_dense.row((col - my_lo) as usize)
                            } else {
                                brows.row((col - cb_lo) as usize)
                            };
                            assert_eq!(brow.len(), d, "needed dense B row must have been shipped");
                            for (cj, &bj) in crow.iter_mut().zip(brow) {
                                *cj = S::add(*cj, S::mul(va, bj));
                            }
                            f += d as u64;
                        }
                    }
                    f
                });
            }
            flops += kernel_lanes(comm, &pool, &cfg.tag, jobs)
                .into_iter()
                .sum::<u64>();
        }
    }

    stats.flops = flops;
    comm.add_flops(flops / DENSE_FLOP_DISCOUNT.max(1));
    if comm.trace_on() {
        use tsgemm_net::Metrics;
        comm.metrics(|m| m.merge(&stats.registry(&cfg.tag)));
    }
    (c, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::part::BlockDist;
    use tsgemm_net::World;
    use tsgemm_sparse::gen::{erdos_renyi, random_tall};
    use tsgemm_sparse::spmm::spmm as local_spmm;
    use tsgemm_sparse::{Coo, PlusTimesF64};

    fn run_dist_spmm(
        n: usize,
        d: usize,
        p: usize,
        acoo: &Coo<f64>,
        bcoo: &Coo<f64>,
        cfg: SpmmConfig,
    ) -> (Vec<DenseMat<f64>>, Vec<SpmmLocalStats>, u64) {
        let out = World::run(p, |comm| {
            let dist = BlockDist::new(n, p);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(acoo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
            let bblk = DistCsr::from_global_coo::<PlusTimesF64>(bcoo, dist, comm.rank(), d);
            let b_dense = DenseMat::from_csr::<PlusTimesF64>(&bblk.local);
            dist_spmm::<PlusTimesF64>(comm, &a, &ac, &b_dense, &cfg)
        });
        let bytes: u64 = out
            .profiles
            .iter()
            .map(|pr| pr.bytes_sent_tagged("spmm:"))
            .sum();
        let (mats, stats): (Vec<_>, Vec<_>) = out.results.into_iter().unzip();
        (mats, stats, bytes)
    }

    #[test]
    fn matches_sequential_spmm() {
        let n = 48;
        let d = 6;
        let acoo = erdos_renyi(n, 5.0, 23);
        let bcoo = random_tall(n, d, 0.4, 24);
        let a = acoo.to_csr::<PlusTimesF64>();
        let b = DenseMat::from_csr::<PlusTimesF64>(&bcoo.to_csr::<PlusTimesF64>());
        let expected = local_spmm::<PlusTimesF64>(&a, &b);
        let (mats, _, _) = run_dist_spmm(n, d, 4, &acoo, &bcoo, SpmmConfig::default());
        let dist = BlockDist::new(n, 4);
        for (rank, m) in mats.iter().enumerate() {
            let (lo, hi) = dist.range(rank);
            for g in lo..hi {
                let want = expected.row(g as usize);
                let got = m.row((g - lo) as usize);
                for (x, y) in want.iter().zip(got) {
                    assert!((x - y).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn matches_with_small_tiles() {
        let n = 36;
        let d = 4;
        let acoo = erdos_renyi(n, 6.0, 25);
        let bcoo = random_tall(n, d, 0.0, 26);
        let a = acoo.to_csr::<PlusTimesF64>();
        let b = DenseMat::from_csr::<PlusTimesF64>(&bcoo.to_csr::<PlusTimesF64>());
        let expected = local_spmm::<PlusTimesF64>(&a, &b);
        let cfg = SpmmConfig {
            tile_height: Some(4),
            tile_width: Some(9),
            ..SpmmConfig::default()
        };
        let (mats, stats, _) = run_dist_spmm(n, d, 3, &acoo, &bcoo, cfg);
        assert!(stats[0].steps > 1);
        let dist = BlockDist::new(n, 3);
        for (rank, m) in mats.iter().enumerate() {
            let (lo, hi) = dist.range(rank);
            for g in lo..hi {
                for (x, y) in expected
                    .row(g as usize)
                    .iter()
                    .zip(m.row((g - lo) as usize))
                {
                    assert!((x - y).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn volume_is_independent_of_b_sparsity() {
        // Dense shipping moves d values per needed row regardless of how
        // sparse the logical B is — the defining contrast with TS-SpGEMM.
        let n = 64;
        let d = 8;
        let acoo = erdos_renyi(n, 6.0, 27);
        let b_sparse = random_tall(n, d, 0.9, 28);
        let b_dense = random_tall(n, d, 0.0, 28);
        let (_, _, bytes_sparse) = run_dist_spmm(n, d, 4, &acoo, &b_sparse, SpmmConfig::default());
        let (_, _, bytes_dense) = run_dist_spmm(n, d, 4, &acoo, &b_dense, SpmmConfig::default());
        assert_eq!(bytes_sparse, bytes_dense);
        assert!(bytes_sparse > 0);
    }

    #[test]
    fn flops_count_dense_work() {
        let n = 30;
        let d = 4;
        let acoo = erdos_renyi(n, 3.0, 29);
        let bcoo = random_tall(n, d, 0.5, 30);
        let (_, stats, _) = run_dist_spmm(n, d, 3, &acoo, &bcoo, SpmmConfig::default());
        let total: u64 = stats.iter().map(|s| s.flops).sum();
        let nnz = acoo.to_csr::<PlusTimesF64>().nnz() as u64;
        assert_eq!(total, nnz * d as u64);
    }
}
