//! Distributed SDDMM: sampled dense-dense (here sparse-sparse) matrix
//! multiplication over the TS-SpGEMM communication pattern.
//!
//! `O(r,c) = f(S(r,c), ⟨Z_r, Z_c⟩)` for every stored entry of the sampling
//! pattern `S` — the kernel FusedMM (the paper's ref \[53\]) pairs with SpMM
//! to build attention-/embedding-style models: an SDDMM computes the
//! per-edge coefficients, a following SpGEMM applies them. Communication is
//! identical to TS-SpGEMM's local mode: the owner of `Z` rows matching a
//! tile's nonzero columns ships them to the tile owner (remote mode cannot
//! apply — the dot needs the tile owner's own `Z_r` rows too).

use crate::colpart::{ColBlocks, Trip};
use crate::dist::DistCsr;
use crate::tiling::{
    csr_from_unique_triplets, kernel_lanes, needed_rows, pack_rows, RowIndex, TileBuckets, Tiling,
};
use tsgemm_net::Comm;
use tsgemm_pool::{nnz_chunks_range, ThreadPool};
use tsgemm_sparse::{Csr, Idx};

tsgemm_net::stats_struct! {
    /// Per-rank statistics of one SDDMM.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct SddmmLocalStats {
        /// Merge-join work performed (entries of both rows touched per dot).
        pub flops: u64 => sum,
        /// Tile steps executed.
        pub steps: u64 => max,
    }
}

/// Configuration: tile geometry and stat tag.
#[derive(Clone, Debug)]
pub struct SddmmConfig {
    pub tile_height: Option<usize>,
    pub tile_width: Option<usize>,
    pub tag: String,
}

impl Default for SddmmConfig {
    fn default() -> Self {
        Self {
            tile_height: None,
            tile_width: None,
            tag: "sddmm".to_string(),
        }
    }
}

/// `⟨x, y⟩` of two rows sorted by column, and its merge-join work: the
/// entries of both rows.
fn sparse_dot(
    (xc, xv): (&[Idx], &[f64]),
    y: impl ExactSizeIterator<Item = (Idx, f64)>,
) -> (f64, u64) {
    let work = (xc.len() + y.len()) as u64;
    let (mut i, mut s) = (0, 0.0);
    for (c, v) in y {
        while i < xc.len() && xc[i] < c {
            i += 1;
        }
        if i < xc.len() && xc[i] == c {
            s += xv[i] * v;
            i += 1;
        }
    }
    (s, work)
}

/// Distributed SDDMM: returns this rank's rows of `O`, which has exactly
/// the pattern of `s.local`, with values `f(S(r,c), ⟨Z_r, Z_c⟩)`.
///
/// `s` is the row-distributed sampling pattern (square, `ncols = n`), `sc`
/// its column-partitioned copy, and `z` the row-distributed `n × d` factor.
pub fn dist_sddmm(
    comm: &mut Comm,
    s: &DistCsr<f64>,
    sc: &ColBlocks<f64>,
    z: &DistCsr<f64>,
    cfg: &SddmmConfig,
    f: impl Fn(f64, f64) -> f64 + Sync,
) -> (Csr<f64>, SddmmLocalStats) {
    let me = comm.rank();
    let p = comm.size();
    let dist = s.dist;
    assert_eq!(z.dist, dist, "Z rows must follow S's distribution");
    assert_eq!(sc.dist, dist, "S^c must follow S's distribution");
    let (my_lo, _) = dist.range(me);

    let tiling = Tiling::sized(dist, cfg.tile_height, cfg.tile_width);
    let buckets = TileBuckets::build(sc, &tiling);
    let (zcol_lo, _) = sc.col_range();

    let mut out_trips: Vec<(Idx, Idx, f64)> = Vec::new();
    let mut flops = 0u64;
    let mut stats = SddmmLocalStats {
        steps: tiling.steps() as u64,
        ..SddmmLocalStats::default()
    };
    // Received Z rows, indexed over the column band.
    let mut zrows = RowIndex::new();
    let pool = ThreadPool::global();

    for rb in 0..tiling.n_row_bands {
        for cb in 0..tiling.n_col_bands {
            // Server role: ship the Z rows each sub-tile's columns need.
            let mut zsend: Vec<Vec<Trip<f64>>> = (0..p).map(|_| Vec::new()).collect();
            for (i, bucket) in buckets.step(rb, cb).filter(|&(i, _)| i != me) {
                pack_rows(needed_rows(bucket), &z.local, zcol_lo, &mut zsend[i]);
            }
            let zrecv = comm.alltoallv(zsend, format!("{}:zfetch", cfg.tag));
            let received: usize = zrecv.iter().map(Vec::len).sum();
            comm.note_working_set((received * std::mem::size_of::<Trip<f64>>()) as u64);
            let (cb_lo, cb_hi) = tiling.col_band_range(cb);
            zrows.fill(&zrecv, cb_lo, (cb_hi - cb_lo) as usize, 0.0);

            // Owner role: per stored S entry in this tile, the sparse dot.
            // Every output entry is a pure function of its own S entry and
            // the two Z rows, so nnz-balanced chunks of the band (with
            // job-local scratch) concatenated in row order reproduce the
            // sequential triplet sequence exactly.
            let (band_lo, band_hi) = tiling.band_range(me, rb);
            let lo_l = (band_lo - my_lo) as usize;
            let hi_l = (band_hi - my_lo) as usize;
            let chunks = nnz_chunks_range(s.local.indptr(), lo_l, hi_l, pool.nthreads());
            let (f, zrows) = (&f, &zrows);
            let jobs = chunks.into_iter().map(|rows| {
                move || {
                    let mut trips: Vec<(Idx, Idx, f64)> = Vec::new();
                    let mut w = 0u64;
                    for r_local in rows {
                        let (scols, svals) = s.local.row(r_local);
                        let zr = z.local.row(r_local);
                        let start = scols.partition_point(|&c| c < cb_lo);
                        let end = scols.partition_point(|&c| c < cb_hi);
                        for (&c, &sv) in scols[start..end].iter().zip(&svals[start..end]) {
                            let (dot, work) = if dist.owner(c) == me {
                                let (cc, cv) = z.local.row((c - my_lo) as usize);
                                sparse_dot(zr, cc.iter().copied().zip(cv.iter().copied()))
                            } else {
                                match zrows.row((c - cb_lo) as usize) {
                                    // A Z row empty everywhere never
                                    // arrives: a zero dot at no work.
                                    [] => (0.0, 0),
                                    zc => sparse_dot(zr, zc.iter().copied()),
                                }
                            };
                            w += work;
                            trips.push((r_local as Idx, c, f(sv, dot)));
                        }
                    }
                    (trips, w)
                }
            });
            for (trips, w) in kernel_lanes(comm, &pool, &cfg.tag, jobs) {
                out_trips.extend(trips);
                flops += w;
            }
        }
    }

    comm.add_flops(flops);
    stats.flops = flops;
    if comm.trace_on() {
        use tsgemm_net::Metrics;
        comm.metrics(|m| m.merge(&stats.registry(&cfg.tag)));
    }
    let o = csr_from_unique_triplets(s.local_rows(), dist.n(), out_trips);
    (o, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::part::BlockDist;
    use tsgemm_net::World;
    use tsgemm_sparse::gen::{erdos_renyi, random_tall};
    use tsgemm_sparse::{Coo, PlusTimesF64};

    /// Scatters `Z_r` into a dense row and gathers each `⟨Z_r, Z_c⟩`
    /// through it, independently of the kernel's merge-join dot.
    fn reference_sddmm(s: &Csr<f64>, z: &Csr<f64>, f: impl Fn(f64, f64) -> f64) -> Csr<f64> {
        let mut trips = Vec::new();
        let mut dense = vec![0.0; z.ncols()];
        for (r, cols, vals) in s.iter_rows() {
            let (rc, rv) = z.row(r);
            for (&k, &v) in rc.iter().zip(rv) {
                dense[k as usize] = v;
            }
            for (&c, &sv) in cols.iter().zip(vals) {
                let (cc, cv) = z.row(c as usize);
                let dot: f64 = cc
                    .iter()
                    .zip(cv)
                    .map(|(&k, &v)| dense[k as usize] * v)
                    .sum();
                trips.push((r as Idx, c, f(sv, dot)));
            }
            for &k in rc {
                dense[k as usize] = 0.0;
            }
        }
        csr_from_unique_triplets(s.nrows(), s.ncols(), trips)
    }

    fn check(
        n: usize,
        d: usize,
        p: usize,
        h: Option<usize>,
        f: impl Fn(f64, f64) -> f64 + Copy + Send + Sync,
    ) {
        let scoo = erdos_renyi(n, 5.0, 501);
        let zcoo = random_tall(n, d, 0.5, 502);
        let s_global = scoo.to_csr::<PlusTimesF64>();
        let z_global = zcoo.to_csr::<PlusTimesF64>();
        // The verification gather rebuilds via the (+,×) semiring, which
        // drops exact zeros; normalise the reference the same way.
        let expected = reference_sddmm(&s_global, &z_global, f).filter(|_, _, v| v != 0.0);
        let out = World::run(p, |comm| {
            let dist = BlockDist::new(n, p);
            let s = DistCsr::from_global_coo::<PlusTimesF64>(&scoo, dist, comm.rank(), n);
            let sc = ColBlocks::build::<PlusTimesF64>(comm, &s);
            let z = DistCsr::from_global_coo::<PlusTimesF64>(&zcoo, dist, comm.rank(), d);
            let cfg = SddmmConfig {
                tile_height: h,
                ..SddmmConfig::default()
            };
            let (o, _) = dist_sddmm(comm, &s, &sc, &z, &cfg, f);
            // Re-express rows globally for comparison.
            let (lo, _) = dist.range(comm.rank());
            let mut trips = Vec::new();
            for (r, cols, vals) in o.iter_rows() {
                for (&c, &v) in cols.iter().zip(vals) {
                    trips.push((lo + r as Idx, c, v));
                }
            }
            let all = comm.allgatherv(trips, "gather:verify");
            Coo::from_entries(n, n, all.into_iter().flatten().collect()).to_csr::<PlusTimesF64>()
        });
        for got in out.results {
            assert!(
                got.approx_eq(&expected, 1e-9),
                "distributed SDDMM differs from reference"
            );
        }
    }

    #[test]
    fn matches_reference_plain_dot() {
        check(48, 8, 4, None, |sv, dot| sv * dot);
    }

    #[test]
    fn matches_reference_sigmoid() {
        check(40, 6, 3, None, |sv, dot| sv / (1.0 + (-dot).exp()));
    }

    #[test]
    fn matches_reference_short_tiles() {
        check(36, 4, 4, Some(3), |_, dot| dot);
    }

    #[test]
    fn pattern_is_preserved_exactly() {
        let n = 30;
        let scoo = erdos_renyi(n, 4.0, 503);
        let zcoo = random_tall(n, 5, 0.5, 504);
        let out = World::run(3, |comm| {
            let dist = BlockDist::new(n, 3);
            let s = DistCsr::from_global_coo::<PlusTimesF64>(&scoo, dist, comm.rank(), n);
            let sc = ColBlocks::build::<PlusTimesF64>(comm, &s);
            let z = DistCsr::from_global_coo::<PlusTimesF64>(&zcoo, dist, comm.rank(), 5);
            let (o, _) = dist_sddmm(comm, &s, &sc, &z, &SddmmConfig::default(), |_, d| d + 1.0);
            (
                o.indptr().to_vec(),
                o.indices().to_vec(),
                s.local.indptr().to_vec(),
                s.local.indices().to_vec(),
            )
        });
        for (oip, oix, sip, six) in out.results {
            assert_eq!(oip, sip, "SDDMM output must keep S's row structure");
            assert_eq!(oix, six, "SDDMM output must keep S's columns");
        }
    }

    #[test]
    fn empty_z_gives_all_zero_dots() {
        let n = 20;
        let scoo = erdos_renyi(n, 3.0, 505);
        let zcoo = Coo::new(n, 4);
        let out = World::run(2, |comm| {
            let dist = BlockDist::new(n, 2);
            let s = DistCsr::from_global_coo::<PlusTimesF64>(&scoo, dist, comm.rank(), n);
            let sc = ColBlocks::build::<PlusTimesF64>(comm, &s);
            let z = DistCsr::from_global_coo::<PlusTimesF64>(&zcoo, dist, comm.rank(), 4);
            let (o, _) = dist_sddmm(comm, &s, &sc, &z, &SddmmConfig::default(), |_, d| d);
            o.values().iter().all(|&v| v == 0.0)
        });
        assert!(out.results.into_iter().all(|b| b));
    }
}
