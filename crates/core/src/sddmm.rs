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
use crate::tiling::{csr_from_unique_triplets, TileBuckets, Tiling};
use std::collections::HashMap;
use std::time::Instant;
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

fn sparse_dot(ac: &[Idx], av: &[f64], bc: &[Idx], bv: &[f64]) -> (f64, u64) {
    let (mut i, mut j, mut s) = (0usize, 0usize, 0.0);
    while i < ac.len() && j < bc.len() {
        match ac[i].cmp(&bc[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                s += av[i] * bv[j];
                i += 1;
                j += 1;
            }
        }
    }
    (s, (ac.len() + bc.len()) as u64)
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

    let block = dist.block().max(1);
    let h = cfg.tile_height.unwrap_or(block).max(1);
    let w = cfg
        .tile_width
        .unwrap_or_else(|| (16 * block).min(dist.n().max(1)))
        .max(1);
    let tiling = Tiling::new(dist, h, w);
    let buckets = TileBuckets::build(sc, &tiling);
    let (zcol_lo, _) = sc.col_range();

    let mut out_trips: Vec<(Idx, Idx, f64)> = Vec::new();
    let mut flops = 0u64;
    let mut stats = SddmmLocalStats {
        steps: tiling.steps() as u64,
        ..SddmmLocalStats::default()
    };
    let trace = comm.trace_on();
    let pool = ThreadPool::global();

    for rb in 0..tiling.n_row_bands {
        for cb in 0..tiling.n_col_bands {
            // Server role: ship the Z rows each sub-tile's columns need.
            let mut zsend: Vec<Vec<Trip<f64>>> = (0..p).map(|_| Vec::new()).collect();
            for (i, send) in zsend.iter_mut().enumerate() {
                if i == me {
                    continue;
                }
                let Some(bucket) = buckets.get(&(i, rb as u32, cb as u32)) else {
                    continue;
                };
                let mut last_k: Option<Idx> = None;
                for &(_, k, _) in bucket {
                    if last_k == Some(k) {
                        continue;
                    }
                    last_k = Some(k);
                    let g_row = zcol_lo + k;
                    let (cols, vals) = z.local.row(k as usize);
                    for (&c, &v) in cols.iter().zip(vals) {
                        send.push(Trip {
                            row: g_row,
                            col: c,
                            val: v,
                        });
                    }
                }
            }
            let zrecv = comm.alltoallv(zsend, format!("{}:zfetch", cfg.tag));

            // Index received Z rows.
            let mut entries: Vec<(Idx, f64)> = Vec::new();
            let mut index: HashMap<Idx, (u32, u32)> = HashMap::new();
            for msg in &zrecv {
                let mut run_start = entries.len();
                let mut run_row: Option<Idx> = None;
                for t in msg {
                    if run_row != Some(t.row) {
                        if let Some(rr) = run_row {
                            index.insert(rr, (run_start as u32, entries.len() as u32));
                        }
                        run_row = Some(t.row);
                        run_start = entries.len();
                    }
                    entries.push((t.col, t.val));
                }
                if let Some(rr) = run_row {
                    index.insert(rr, (run_start as u32, entries.len() as u32));
                }
            }
            comm.note_working_set((entries.len() * std::mem::size_of::<Trip<f64>>()) as u64);

            // Owner role: per stored S entry in this tile, the sparse dot.
            // Every output entry is a pure function of its own S entry and
            // the two Z rows, so nnz-balanced chunks of the band (with
            // job-local scratch) concatenated in row order reproduce the
            // sequential triplet sequence exactly.
            let (band_lo, band_hi) = tiling.band_range(me, rb);
            let (cb_lo, cb_hi) = tiling.col_band_range(cb);
            let lo_l = (band_lo - my_lo) as usize;
            let hi_l = (band_hi - my_lo) as usize;
            let chunks = nnz_chunks_range(s.local.indptr(), lo_l, hi_l, pool.nthreads());
            let f = &f;
            let index = &index;
            let entries = &entries;
            let parts = pool.run(chunks.len(), |ci| {
                let t0 = trace.then(Instant::now);
                let mut trips: Vec<(Idx, Idx, f64)> = Vec::new();
                let mut w = 0u64;
                let mut zc_cols: Vec<Idx> = Vec::new();
                let mut zc_vals: Vec<f64> = Vec::new();
                for r_local in chunks[ci].clone() {
                    let (scols, svals) = s.local.row(r_local);
                    let (zr_cols, zr_vals) = z.local.row(r_local);
                    let start = scols.partition_point(|&c| c < cb_lo);
                    let end = scols.partition_point(|&c| c < cb_hi);
                    for idx in start..end {
                        let c = scols[idx];
                        let sv = svals[idx];
                        let dot;
                        if dist.owner(c) == me {
                            let (cc, cv) = z.local.row((c - my_lo) as usize);
                            let (d0, w0) = sparse_dot(zr_cols, zr_vals, cc, cv);
                            dot = d0;
                            w += w0;
                        } else if let Some(&(lo_e, hi_e)) = index.get(&c) {
                            zc_cols.clear();
                            zc_vals.clear();
                            for &(col, val) in &entries[lo_e as usize..hi_e as usize] {
                                zc_cols.push(col);
                                zc_vals.push(val);
                            }
                            let (d0, w0) = sparse_dot(zr_cols, zr_vals, &zc_cols, &zc_vals);
                            dot = d0;
                            w += w0;
                        } else {
                            // The Z row is empty everywhere: dot is zero.
                            dot = 0.0;
                        }
                        trips.push((r_local as Idx, c, f(sv, dot)));
                    }
                }
                (trips, w, t0.map(|t| (t, Instant::now())))
            });
            for (k, (trips, w, span)) in parts.into_iter().enumerate() {
                out_trips.extend(trips);
                flops += w;
                if let Some((s0, e0)) = span {
                    comm.record_span_between(format!("{}:kernel:t{k}", cfg.tag), s0, e0);
                }
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

    fn reference_sddmm(s: &Csr<f64>, z: &Csr<f64>, f: impl Fn(f64, f64) -> f64) -> Csr<f64> {
        let mut trips = Vec::new();
        for (r, cols, vals) in s.iter_rows() {
            for (&c, &sv) in cols.iter().zip(vals) {
                let (rc, rv) = z.row(r);
                let (cc, cv) = z.row(c as usize);
                let (dot, _) = sparse_dot(rc, rv, cc, cv);
                trips.push((r as Idx, c, f(sv, dot)));
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
