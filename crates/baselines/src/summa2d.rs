//! 2-D Sparse SUMMA (Buluç & Gilbert; CombBLAS).
//!
//! `A` lives in `n/√p × n/√p` blocks on a `√p × √p` grid; `B` and `C` in
//! `n/√p × d/√p` blocks. Stage `k` broadcasts `A_{i,k}` along grid row `i`
//! and `B_{k,j}` along grid column `j`; every rank multiplies the pair and
//! merges into its `C_{i,j}`. The structural weakness the paper exploits is
//! visible directly in the code: *both* operands are broadcast every stage,
//! and for `d ≪ n` the `B`/`C` column blocks degenerate (with `d < √p` some
//! ranks own no `B` columns at all yet still pay every `A` broadcast).

use std::ops::Range;
use tsgemm_core::part::BlockDist;
use tsgemm_core::tiling::csr_from_unique_triplets;
use tsgemm_net::{Comm, Metrics};
use tsgemm_sparse::semiring::Semiring;
use tsgemm_sparse::spgemm::{spgemm_flops, spgemm_par, AccumChoice};
use tsgemm_sparse::{Coo, Csr, Idx};

use crate::grid::Grid2d;

tsgemm_net::stats_struct! {
    /// Per-rank statistics of a SUMMA run.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct SummaStats {
        pub flops: u64 => sum,
        pub stages: u64 => max,
    }
}

/// One rank's result: its `C` block plus the global coordinates it covers.
pub struct Summa2dOut<T> {
    /// `C_{i,j}` with block-local indices.
    pub c_block: Csr<T>,
    /// Global row range of the block.
    pub rows: Range<Idx>,
    /// Global column range of the block (within `0..d`).
    pub cols: Range<Idx>,
    pub stats: SummaStats,
}

/// Extracts a 2-D block of a global COO as a block-local CSR.
pub fn extract_block<S: Semiring>(
    coo: &Coo<S::T>,
    rows: Range<Idx>,
    cols: Range<Idx>,
) -> Csr<S::T> {
    let trips: Vec<(Idx, Idx, S::T)> = coo
        .entries()
        .iter()
        .filter(|&&(r, c, _)| rows.contains(&r) && cols.contains(&c))
        .map(|&(r, c, v)| (r - rows.start, c - cols.start, v))
        .collect();
    Coo::from_entries(
        (rows.end - rows.start) as usize,
        (cols.end - cols.start) as usize,
        trips,
    )
    .to_csr::<S>()
}

/// Wire triplet for block broadcasts.
#[derive(Clone, Copy)]
pub struct BTrip<T> {
    pub r: Idx,
    pub c: Idx,
    pub v: T,
}

pub fn block_to_trips<T: Copy>(m: &Csr<T>) -> Vec<BTrip<T>> {
    let mut out = Vec::with_capacity(m.nnz());
    for (r, cols, vals) in m.iter_rows() {
        for (&c, &v) in cols.iter().zip(vals) {
            out.push(BTrip { r: r as Idx, c, v });
        }
    }
    out
}

pub fn trips_to_block<T: Copy>(trips: Vec<BTrip<T>>, nrows: usize, ncols: usize) -> Csr<T> {
    csr_from_unique_triplets(
        nrows,
        ncols,
        trips.into_iter().map(|t| (t.r, t.c, t.v)).collect(),
    )
}

/// The SUMMA stage loop, shared by the 2-D and (per-layer) 3-D algorithms.
///
/// `kdist` partitions the inner dimension into `stages` pieces; stage `k`
/// multiplies `A_{i,k} · B_{k,j}`. Returns accumulated `C` triplets
/// (block-local coordinates) and the flop count.
#[allow(clippy::too_many_arguments)]
pub fn summa_stages<S: Semiring>(
    grid: &mut Grid2d,
    a_block: &Csr<S::T>,
    b_block: &Csr<S::T>,
    kdist: BlockDist,
    my_rows: usize,
    my_dcols: usize,
    accum: AccumChoice,
    tag: &str,
) -> (Vec<(Idx, Idx, S::T)>, u64) {
    let stages = kdist.p();
    let mut c_trips: Vec<(Idx, Idx, S::T)> = Vec::new();
    let mut flops = 0u64;
    for k in 0..stages {
        let kw = kdist.local_len(k);
        // A_{i,k} moves along the grid row; root is grid column k.
        let a_trips = if grid.col == k {
            block_to_trips(a_block)
        } else {
            Vec::new()
        };
        let a_k = trips_to_block(
            grid.row_comm.bcast_vec(k, a_trips, format!("{tag}:abcast")),
            my_rows,
            kw,
        );
        // B_{k,j} moves along the grid column; root is grid row k.
        let b_trips = if grid.row == k {
            block_to_trips(b_block)
        } else {
            Vec::new()
        };
        let b_k = trips_to_block(
            grid.col_comm.bcast_vec(k, b_trips, format!("{tag}:bbcast")),
            kw,
            my_dcols,
        );
        flops += spgemm_flops(&a_k, &b_k);
        grid.row_comm
            .note_working_set(((a_k.nnz() + b_k.nnz()) * 16) as u64);
        // Pool-parallel local multiply (byte-identical to `spgemm` for any
        // thread count); shared by the 2-D and 3-D SUMMA baselines.
        let c_part = spgemm_par::<S>(&a_k, &b_k, accum);
        for (r, cols, vals) in c_part.iter_rows() {
            for (&c, &v) in cols.iter().zip(vals) {
                c_trips.push((r as Idx, c, v));
            }
        }
    }
    (c_trips, flops)
}

/// Runs 2-D Sparse SUMMA on a replicated global input (each rank extracts
/// its blocks locally — layout setup is not part of the timed multiply).
///
/// # Panics
/// Panics unless `comm.size()` is a perfect square.
pub fn summa2d<S: Semiring>(
    comm: &mut Comm,
    acoo: &Coo<S::T>,
    bcoo: &Coo<S::T>,
    accum: AccumChoice,
    tag: &str,
) -> Summa2dOut<S::T> {
    let n = acoo.nrows();
    assert_eq!(acoo.ncols(), n, "A must be square");
    assert_eq!(bcoo.nrows(), n, "inner dimensions must agree");
    let d = bcoo.ncols();

    let mut grid = Grid2d::square(comm);
    let g = grid.pr;
    let ndist = BlockDist::new(n, g);
    let ddist = BlockDist::new(d, g);

    let (rlo, rhi) = ndist.range(grid.row);
    let (clo, chi) = ndist.range(grid.col);
    let (dlo, dhi) = ddist.range(grid.col);

    let a_block = extract_block::<S>(acoo, rlo..rhi, clo..chi);
    let b_block = extract_block::<S>(bcoo, rlo..rhi, dlo..dhi);

    let stages = comm.span(|| format!("{tag}:stages"));
    let (c_trips, flops) = summa_stages::<S>(
        &mut grid,
        &a_block,
        &b_block,
        ndist,
        (rhi - rlo) as usize,
        (dhi - dlo) as usize,
        accum,
        tag,
    );
    stages.end();
    comm.add_flops(flops);

    let stats = SummaStats {
        flops,
        stages: g as u64,
    };
    if comm.trace_on() {
        comm.metrics(|m| m.merge(&stats.registry(tag)));
    }

    let c_block =
        Coo::from_entries((rhi - rlo) as usize, (dhi - dlo) as usize, c_trips).to_csr::<S>();
    Summa2dOut {
        c_block,
        rows: rlo..rhi,
        cols: dlo..dhi,
        stats,
    }
}

/// Gathers a block-distributed result to a full matrix on every rank
/// (verification plumbing, untimed tag).
pub fn gather_blocks<S: Semiring>(
    comm: &mut Comm,
    out: &Summa2dOut<S::T>,
    n: usize,
    d: usize,
) -> Csr<S::T> {
    let mut trips: Vec<(Idx, Idx, S::T)> = Vec::new();
    for (r, cols, vals) in out.c_block.iter_rows() {
        for (&c, &v) in cols.iter().zip(vals) {
            trips.push((out.rows.start + r as Idx, out.cols.start + c, v));
        }
    }
    let all = comm.allgatherv(trips, "gather:verify");
    Coo::from_entries(n, d, all.into_iter().flatten().collect()).to_csr::<S>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgemm_net::World;
    use tsgemm_sparse::gen::{erdos_renyi, random_tall};
    use tsgemm_sparse::spgemm::spgemm;
    use tsgemm_sparse::PlusTimesF64;

    fn check(n: usize, d: usize, p: usize, acoo: &Coo<f64>, bcoo: &Coo<f64>) {
        let expected = spgemm::<PlusTimesF64>(
            &acoo.to_csr::<PlusTimesF64>(),
            &bcoo.to_csr::<PlusTimesF64>(),
            AccumChoice::Auto,
        );
        let out = World::run(p, |comm| {
            let res = summa2d::<PlusTimesF64>(comm, acoo, bcoo, AccumChoice::Auto, "summa2d");
            gather_blocks::<PlusTimesF64>(comm, &res, n, d)
        });
        for c in out.results {
            assert!(c.approx_eq(&expected, 1e-9), "SUMMA2D != sequential");
        }
    }

    #[test]
    fn matches_sequential_4_ranks() {
        let n = 40;
        let d = 8;
        check(
            n,
            d,
            4,
            &erdos_renyi(n, 5.0, 33),
            &random_tall(n, d, 0.5, 34),
        );
    }

    #[test]
    fn matches_sequential_9_ranks() {
        let n = 54;
        let d = 6;
        check(
            n,
            d,
            9,
            &erdos_renyi(n, 4.0, 35),
            &random_tall(n, d, 0.25, 36),
        );
    }

    #[test]
    fn tiny_d_leaves_empty_column_blocks() {
        // d=2 on a 3x3 grid: grid column 2 owns zero B columns but the
        // algorithm must still be correct.
        let n = 30;
        let d = 2;
        check(
            n,
            d,
            9,
            &erdos_renyi(n, 5.0, 37),
            &random_tall(n, d, 0.0, 38),
        );
    }

    #[test]
    fn broadcasts_are_tagged_per_operand() {
        let n = 32;
        let d = 4;
        let acoo = erdos_renyi(n, 5.0, 39);
        let bcoo = random_tall(n, d, 0.5, 40);
        let out = World::run(4, |comm| {
            let _ = summa2d::<PlusTimesF64>(comm, &acoo, &bcoo, AccumChoice::Auto, "s2");
        });
        let a_bytes: u64 = out
            .profiles
            .iter()
            .map(|p| p.bytes_sent_tagged("s2:abcast"))
            .sum();
        let b_bytes: u64 = out
            .profiles
            .iter()
            .map(|p| p.bytes_sent_tagged("s2:bbcast"))
            .sum();
        assert!(a_bytes > 0, "SUMMA must move A");
        assert!(b_bytes > 0, "SUMMA must move B");
        // The structural cost the paper exploits: with d << n, moving A
        // dominates the traffic.
        assert!(a_bytes > b_bytes);
    }

    #[test]
    fn single_rank_grid() {
        let n = 12;
        let d = 3;
        check(
            n,
            d,
            1,
            &erdos_renyi(n, 3.0, 41),
            &random_tall(n, d, 0.5, 42),
        );
    }
}
