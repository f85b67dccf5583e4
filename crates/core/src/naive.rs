//! TS-SpGEMM-NAIVE (Alg. 1) — the request-based 1-D distributed Gustavson
//! used by PETSc and Trilinos.
//!
//! Each process scans its local `A_i` for nonzero columns (`nzc`), requests
//! the matching rows of `B` from their owners (first AllToAll), receives
//! them (second AllToAll), and runs one local SpGEMM. No `A^c` copy, no
//! tiling, no remote mode — the entire needed slice of `B` is resident at
//! once, which is exactly the memory bottleneck §III-A describes.

use crate::colpart::Trip;
use crate::dist::DistCsr;
use crate::tiling::csr_from_unique_triplets;
use std::collections::HashMap;
use tsgemm_net::Comm;
use tsgemm_sparse::semiring::Semiring;
use tsgemm_sparse::spgemm::{spgemm_flops, spgemm_par, AccumChoice};
use tsgemm_sparse::{Csr, Idx};

tsgemm_net::stats_struct! {
    /// Per-rank statistics of a naive multiply.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct NaiveLocalStats {
        /// Multiplications performed locally.
        pub flops: u64 => sum,
        /// Number of `B` row indices this rank requested from others.
        pub requested_rows: u64 => sum,
        /// Bytes of `B` data resident at once for the local multiply (the
        /// memory bottleneck the tiled algorithm removes).
        pub resident_b_bytes: u64 => max,
    }
}

/// Runs Alg. 1. Tags: `{tag}:req` for the index request round and
/// `{tag}:bfetch` for the data round.
pub fn naive_spgemm<S: Semiring>(
    comm: &mut Comm,
    a: &DistCsr<S::T>,
    b: &DistCsr<S::T>,
    accum: AccumChoice,
    tag: &str,
) -> (Csr<S::T>, NaiveLocalStats) {
    let me = comm.rank();
    let p = comm.size();
    let dist = a.dist;
    assert_eq!(b.dist, dist, "B rows must follow A's distribution");
    let d = b.ncols();

    // Line 2: nonzero columns of A_i (global ids, sorted).
    let nzc = a.local.nonzero_cols();

    // Line 3: request the needed B rows from their owners.
    let mut requests: Vec<Vec<Idx>> = (0..p).map(|_| Vec::new()).collect();
    let mut requested_rows = 0u64;
    for &c in &nzc {
        let owner = dist.owner(c);
        if owner != me {
            requests[owner].push(c);
            requested_rows += 1;
        }
    }
    let incoming = comm.alltoallv(requests, format!("{tag}:req"));

    // Line 4: serve the requests with B row data.
    let mut replies: Vec<Vec<Trip<S::T>>> = (0..p).map(|_| Vec::new()).collect();
    for (j, reqs) in incoming.iter().enumerate() {
        for &g in reqs {
            let (cols, vals) = b.global_row(g);
            for (&c, &v) in cols.iter().zip(vals) {
                replies[j].push(Trip {
                    row: g,
                    col: c,
                    val: v,
                });
            }
        }
    }
    let received = comm.alltoallv(replies, format!("{tag}:bfetch"));

    // Build the compact B operand: row k corresponds to global column
    // nzc[k] of A. Remote rows come from the received triplets, own rows
    // from the local block.
    let mut remote: HashMap<Idx, Vec<(Idx, S::T)>> = HashMap::new();
    let mut resident_b_bytes = 0u64;
    for msg in received {
        resident_b_bytes += (msg.len() * std::mem::size_of::<Trip<S::T>>()) as u64;
        for t in msg {
            remote.entry(t.row).or_default().push((t.col, t.val));
        }
    }
    let mut btrips: Vec<(Idx, Idx, S::T)> = Vec::new();
    for (k, &g) in nzc.iter().enumerate() {
        if dist.owner(g) == me {
            let (cols, vals) = b.global_row(g);
            for (&c, &v) in cols.iter().zip(vals) {
                btrips.push((k as Idx, c, v));
            }
        } else if let Some(entries) = remote.get(&g) {
            for &(c, v) in entries {
                btrips.push((k as Idx, c, v));
            }
        }
    }
    let b_compact = csr_from_unique_triplets(nzc.len(), d, btrips);

    // Remap A_i's columns onto the compact row space (monotone, so rows
    // stay sorted) and multiply.
    let mut col_map: HashMap<Idx, Idx> = HashMap::with_capacity(nzc.len());
    for (k, &g) in nzc.iter().enumerate() {
        col_map.insert(g, k as Idx);
    }
    let a_compact = a.local.map_values(|v| v); // clone structure
    let a_compact = {
        let mut indices = a_compact.indices().to_vec();
        for c in &mut indices {
            *c = col_map[c];
        }
        Csr::from_parts(
            a.local.nrows(),
            nzc.len(),
            a.local.indptr().to_vec(),
            indices,
            a.local.values().to_vec(),
        )
    };

    let flops = spgemm_flops(&a_compact, &b_compact);
    // The whole fetched B slice is live during this one multiply — the
    // working set the tiled algorithm caps and this baseline does not.
    comm.note_working_set(
        resident_b_bytes + (b_compact.nnz() * std::mem::size_of::<Trip<S::T>>()) as u64,
    );
    comm.add_flops(flops);
    // Pool-parallel local multiply; byte-identical to the sequential kernel
    // for any thread count (nnz-balanced chunks, ordered concatenation).
    let c = spgemm_par::<S>(&a_compact, &b_compact, accum);

    let stats = NaiveLocalStats {
        flops,
        requested_rows,
        resident_b_bytes,
    };
    if comm.trace_on() {
        use tsgemm_net::Metrics;
        comm.metrics(|m| m.merge(&stats.registry(tag)));
    }
    (c, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::part::BlockDist;
    use tsgemm_net::World;
    use tsgemm_sparse::gen::{erdos_renyi, random_tall};
    use tsgemm_sparse::spgemm::spgemm;
    use tsgemm_sparse::{Coo, PlusTimesF64};

    fn run_naive(n: usize, d: usize, p: usize, acoo: &Coo<f64>, bcoo: &Coo<f64>) -> Csr<f64> {
        let out = World::run(p, |comm| {
            let dist = BlockDist::new(n, p);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(acoo, dist, comm.rank(), n);
            let b = DistCsr::from_global_coo::<PlusTimesF64>(bcoo, dist, comm.rank(), d);
            let (c, _) = naive_spgemm::<PlusTimesF64>(comm, &a, &b, AccumChoice::Auto, "naive");
            DistCsr {
                dist,
                rank: comm.rank(),
                local: c,
            }
            .gather_global::<PlusTimesF64>(comm)
        });
        out.results.into_iter().next().unwrap()
    }

    #[test]
    fn matches_sequential() {
        let n = 60;
        let d = 8;
        let acoo = erdos_renyi(n, 5.0, 13);
        let bcoo = random_tall(n, d, 0.5, 14);
        let expected = spgemm::<PlusTimesF64>(
            &acoo.to_csr::<PlusTimesF64>(),
            &bcoo.to_csr::<PlusTimesF64>(),
            AccumChoice::Auto,
        );
        let got = run_naive(n, d, 4, &acoo, &bcoo);
        assert!(got.approx_eq(&expected, 1e-9));
    }

    #[test]
    fn request_round_carries_indices() {
        let n = 40;
        let d = 4;
        let acoo = erdos_renyi(n, 6.0, 15);
        let bcoo = random_tall(n, d, 0.25, 16);
        let out = World::run(4, |comm| {
            let dist = BlockDist::new(n, 4);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(&acoo, dist, comm.rank(), n);
            let b = DistCsr::from_global_coo::<PlusTimesF64>(&bcoo, dist, comm.rank(), d);
            let (_, stats) = naive_spgemm::<PlusTimesF64>(comm, &a, &b, AccumChoice::Auto, "naive");
            stats
        });
        let req_bytes: u64 = out
            .profiles
            .iter()
            .map(|p| p.bytes_sent_tagged("naive:req"))
            .sum();
        let requested: u64 = out.results.iter().map(|s| s.requested_rows).sum();
        // Each requested row id costs exactly one Idx on the wire.
        assert_eq!(req_bytes, requested * std::mem::size_of::<Idx>() as u64);
        assert!(requested > 0, "ER matrix must reference remote columns");
    }

    #[test]
    fn single_rank_needs_no_requests() {
        let n = 20;
        let d = 4;
        let acoo = erdos_renyi(n, 4.0, 17);
        let bcoo = random_tall(n, d, 0.5, 18);
        let out = World::run(1, |comm| {
            let dist = BlockDist::new(n, 1);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(&acoo, dist, comm.rank(), n);
            let b = DistCsr::from_global_coo::<PlusTimesF64>(&bcoo, dist, comm.rank(), d);
            naive_spgemm::<PlusTimesF64>(comm, &a, &b, AccumChoice::Auto, "naive").1
        });
        assert_eq!(out.results[0].requested_rows, 0);
        assert_eq!(out.results[0].resident_b_bytes, 0);
    }

    #[test]
    fn empty_a_yields_empty_c() {
        let n = 12;
        let d = 3;
        let acoo = Coo::new(n, n);
        let bcoo = random_tall(n, d, 0.0, 19);
        let got = run_naive(n, d, 3, &acoo, &bcoo);
        assert_eq!(got.nnz(), 0);
    }
}
