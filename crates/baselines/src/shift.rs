//! 1.5-D dense-shifting SpMM (Selvitopi et al., ICS '21, with c = 1).
//!
//! `B` (dense) is row-distributed; in `p` ring stages every rank multiplies
//! the `A` columns matching the currently-held `B` block and then passes the
//! block to its ring neighbour. The paper uses this algorithm as the sanity
//! check for its own tile-based SpMM ("performs comparably or better than
//! the 1.5D dense shifting algorithm").

use tsgemm_core::dist::DistCsr;
use tsgemm_net::{Comm, Metrics};
use tsgemm_pool::{nnz_chunks, Job, ThreadPool};
use tsgemm_sparse::semiring::Semiring;
use tsgemm_sparse::DenseMat;

tsgemm_net::stats_struct! {
    /// Per-rank statistics of a shifting SpMM run.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct ShiftStats {
        pub flops: u64 => sum,
        pub stages: u64 => max,
    }
}

/// Runs the ring-shift SpMM; returns this rank's dense `C` rows.
pub fn shift_spmm<S: Semiring>(
    comm: &mut Comm,
    a: &DistCsr<S::T>,
    b_dense: &DenseMat<S::T>,
    tag: &str,
) -> (DenseMat<S::T>, ShiftStats) {
    let me = comm.rank();
    let p = comm.size();
    let dist = a.dist;
    assert_eq!(
        b_dense.nrows(),
        dist.local_len(me),
        "B block must hold this rank's rows"
    );
    let d = b_dense.ncols();
    let (my_lo, _) = dist.range(me);

    let mut c = DenseMat::filled(dist.local_len(me), d, S::zero());
    let mut held: Vec<S::T> = b_dense.data().to_vec();
    let mut flops = 0u64;
    let pool = ThreadPool::global();

    for s in 0..p {
        // After s shifts towards rank+1, we hold the block of rank me - s.
        let q = (me + p - s) % p;
        let (qlo, qhi) = dist.range(q);

        // Multiply A columns in [qlo, qhi) against the held block. Output
        // rows are independent, so nnz-balanced chunks of A's rows each own
        // a disjoint slice of C (split_at_mut); every row keeps the
        // sequential fold order, so results are thread-count independent.
        let chunks = nnz_chunks(a.local.indptr(), pool.nthreads());
        let mut jobs: Vec<Job<u64>> = Vec::with_capacity(chunks.len());
        let mut rest: &mut [S::T] = c.data_mut();
        let mut done = 0usize;
        let held_ref = &held;
        let a_local = &a.local;
        for rows in chunks {
            let (band, tail) = rest.split_at_mut((rows.end - done) * d);
            rest = tail;
            done = rows.end;
            jobs.push(Box::new(move || {
                let mut f = 0u64;
                for r in rows.clone() {
                    let crow = &mut band[(r - rows.start) * d..(r - rows.start + 1) * d];
                    let (cols, vals) = a_local.row(r);
                    let start = cols.partition_point(|&cc| cc < qlo);
                    let end = cols.partition_point(|&cc| cc < qhi);
                    for idx in start..end {
                        let col = cols[idx];
                        let va = vals[idx];
                        let ofs = (col - qlo) as usize * d;
                        let brow = &held_ref[ofs..ofs + d];
                        for j in 0..d {
                            crow[j] = S::add(crow[j], S::mul(va, brow[j]));
                        }
                        f += d as u64;
                    }
                }
                f
            }));
        }
        flops += pool.run_jobs(jobs).into_iter().sum::<u64>();
        let _ = my_lo;

        // Ring shift (skipped after the last multiply).
        if s + 1 < p {
            let mut sends: Vec<Vec<S::T>> = (0..p).map(|_| Vec::new()).collect();
            sends[(me + 1) % p] = std::mem::take(&mut held);
            let mut recvs = comm.alltoallv(sends, format!("{tag}:shift"));
            held = std::mem::take(&mut recvs[(me + p - 1) % p]);
        }
    }

    // Charge flops at the dense-kernel rate (same convention as dist_spmm).
    comm.add_flops(flops / tsgemm_core::spmm::DENSE_FLOP_DISCOUNT.max(1));
    let stats = ShiftStats {
        flops,
        stages: p as u64,
    };
    if comm.trace_on() {
        comm.metrics(|m| m.merge(&stats.registry(tag)));
    }
    (c, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgemm_core::part::BlockDist;
    use tsgemm_net::World;
    use tsgemm_sparse::gen::{erdos_renyi, random_tall};
    use tsgemm_sparse::spmm::spmm as local_spmm;
    use tsgemm_sparse::{Coo, PlusTimesF64};

    fn check(n: usize, d: usize, p: usize, acoo: &Coo<f64>, bcoo: &Coo<f64>) -> u64 {
        let a = acoo.to_csr::<PlusTimesF64>();
        let b = DenseMat::from_csr::<PlusTimesF64>(&bcoo.to_csr::<PlusTimesF64>());
        let expected = local_spmm::<PlusTimesF64>(&a, &b);
        let out = World::run(p, |comm| {
            let dist = BlockDist::new(n, p);
            let ablk = DistCsr::from_global_coo::<PlusTimesF64>(acoo, dist, comm.rank(), n);
            let bblk = DistCsr::from_global_coo::<PlusTimesF64>(bcoo, dist, comm.rank(), d);
            let b_dense = DenseMat::from_csr::<PlusTimesF64>(&bblk.local);
            shift_spmm::<PlusTimesF64>(comm, &ablk, &b_dense, "shift").0
        });
        let dist = BlockDist::new(n, p);
        for (rank, m) in out.results.iter().enumerate() {
            let (lo, hi) = dist.range(rank);
            for g in lo..hi {
                for (x, y) in expected
                    .row(g as usize)
                    .iter()
                    .zip(m.row((g - lo) as usize))
                {
                    assert!((x - y).abs() < 1e-9, "mismatch at global row {g}");
                }
            }
        }
        out.profiles
            .iter()
            .map(|pr| pr.bytes_sent_tagged("shift:"))
            .sum()
    }

    #[test]
    fn matches_sequential() {
        let n = 40;
        let d = 6;
        let bytes = check(
            n,
            d,
            4,
            &erdos_renyi(n, 5.0, 57),
            &random_tall(n, d, 0.0, 58),
        );
        assert!(bytes > 0);
    }

    #[test]
    fn works_with_uneven_blocks() {
        let n = 37; // not divisible by 5
        let d = 4;
        check(
            n,
            d,
            5,
            &erdos_renyi(n, 4.0, 59),
            &random_tall(n, d, 0.3, 60),
        );
    }

    #[test]
    fn single_rank_no_shifts() {
        let n = 15;
        let d = 4;
        let bytes = check(
            n,
            d,
            1,
            &erdos_renyi(n, 3.0, 61),
            &random_tall(n, d, 0.0, 62),
        );
        assert_eq!(bytes, 0);
    }

    #[test]
    fn shift_volume_is_full_b_per_round() {
        // Each non-final stage moves the whole dense B once around the ring.
        let n = 24;
        let d = 4;
        let p = 3;
        let acoo = erdos_renyi(n, 4.0, 63);
        let bcoo = random_tall(n, d, 0.0, 64);
        let bytes = check(n, d, p, &acoo, &bcoo);
        let expect = ((p - 1) * n * d * std::mem::size_of::<f64>()) as u64;
        assert_eq!(bytes, expect);
    }
}
