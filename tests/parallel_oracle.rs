//! Differential oracle for intra-rank parallelism: the pool-parallel
//! kernels must produce output **byte-identical** to the sequential path —
//! same `indptr`, same `indices`, bit-equal `values` — for every semiring
//! the repo uses, both accumulators, and any thread count.
//!
//! Why byte-identity is achievable (DESIGN.md §8): each output row depends
//! only on its own accumulate/drain sequence (drains are sorted and
//! accumulator capacity never leaks into the output), chunk boundaries are
//! a pure function of `indptr`, and per-chunk pieces are concatenated in
//! row order — so the parallel output reproduces the sequential push order
//! exactly, floating point included.

use proptest::prelude::*;
use tsgemm::core::{ts_spgemm, BlockDist, ColBlocks, DistCsr, TsConfig};
use tsgemm::net::World;
use tsgemm::pool::{set_threads, ThreadPool};
use tsgemm::sparse::gen::{erdos_renyi, random_tall, rmat, web_like, RMAT_WEB};
use tsgemm::sparse::spgemm::{spgemm, spgemm_par_with, AccumChoice};
use tsgemm::sparse::spmm::{spmm, spmm_par_with};
use tsgemm::sparse::{BoolAndOr, Coo, Csr, DenseMat, Idx, PlusTimesF64, Sel2ndMinF64};

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Asserts two CSRs are byte-identical under a per-value bit predicate.
fn assert_csr_bytes<T: Copy + std::fmt::Debug>(
    seq: &Csr<T>,
    par: &Csr<T>,
    bit_eq: impl Fn(T, T) -> bool,
    label: &str,
) {
    assert_eq!(seq.nrows(), par.nrows(), "{label}: nrows differ");
    assert_eq!(seq.ncols(), par.ncols(), "{label}: ncols differ");
    assert_eq!(seq.indptr(), par.indptr(), "{label}: indptr differs");
    assert_eq!(seq.indices(), par.indices(), "{label}: indices differ");
    assert_eq!(
        seq.values().len(),
        par.values().len(),
        "{label}: value count differs"
    );
    for (i, (&x, &y)) in seq.values().iter().zip(par.values()).enumerate() {
        assert!(
            bit_eq(x, y),
            "{label}: value {i} not bit-equal: {x:?} vs {y:?}"
        );
    }
}

fn f64_bits(x: f64, y: f64) -> bool {
    x.to_bits() == y.to_bits()
}

/// Splitmix-style deterministic stream for the custom shape generators.
struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// The three shape families the satellite mandates: empty, skewed (mass
/// concentrated on a few rows), and dense-row (one fully dense row among a
/// sparse remainder).
fn gen_a(kind: usize, n: usize, seed: u64) -> Coo<f64> {
    let mut rng = Lcg(seed | 1);
    let mut coo = Coo::new(n, n);
    match kind {
        0 => {} // empty: zero entries, all rows empty
        1 => {
            // Skewed: quadratic row mapping concentrates entries on low rows.
            for _ in 0..4 * n {
                let u = rng.next() as usize % n;
                let r = u * u / n.max(1);
                let c = rng.next() as usize % n;
                let v = (rng.next() % 9) as f64 - 4.0;
                coo.push(r.min(n - 1) as Idx, c as Idx, v);
            }
        }
        _ => {
            // Dense row: one full row, light uniform sprinkle elsewhere.
            let hot = (rng.next() as usize % n) as Idx;
            for c in 0..n {
                coo.push(hot, c as Idx, (c % 7) as f64 - 3.0);
            }
            for _ in 0..2 * n {
                let r = rng.next() as usize % n;
                let c = rng.next() as usize % n;
                coo.push(r as Idx, c as Idx, (rng.next() % 5) as f64 - 2.0);
            }
        }
    }
    coo
}

/// Runs the full parallel≡sequential matrix for one operand pair:
/// three semirings × both accumulators × all thread counts.
fn check_all(acoo: &Coo<f64>, bcoo: &Coo<f64>) {
    let a = acoo.to_csr::<PlusTimesF64>();
    let b = bcoo.to_csr::<PlusTimesF64>();
    let ab = acoo.map_values(|_| true).to_csr::<BoolAndOr>();
    let bb = bcoo.map_values(|_| true).to_csr::<BoolAndOr>();
    let asel = acoo.to_csr::<Sel2ndMinF64>();
    let bsel = bcoo.to_csr::<Sel2ndMinF64>();
    for accum in [AccumChoice::Spa, AccumChoice::Hash] {
        let seq_pt = spgemm::<PlusTimesF64>(&a, &b, accum);
        let seq_bool = spgemm::<BoolAndOr>(&ab, &bb, accum);
        let seq_sel = spgemm::<Sel2ndMinF64>(&asel, &bsel, accum);
        for t in THREAD_COUNTS {
            let pool = ThreadPool::new(t);
            assert_eq!(pool.nthreads(), t);
            let par_pt = spgemm_par_with::<PlusTimesF64>(&pool, &a, &b, accum);
            assert_csr_bytes(
                &seq_pt,
                &par_pt,
                f64_bits,
                &format!("(+,x) {accum:?} t={t}"),
            );
            let par_bool = spgemm_par_with::<BoolAndOr>(&pool, &ab, &bb, accum);
            assert_csr_bytes(
                &seq_bool,
                &par_bool,
                |x, y| x == y,
                &format!("(and,or) {accum:?} t={t}"),
            );
            let par_sel = spgemm_par_with::<Sel2ndMinF64>(&pool, &asel, &bsel, accum);
            assert_csr_bytes(
                &seq_sel,
                &par_sel,
                f64_bits,
                &format!("(sel2nd,min) {accum:?} t={t}"),
            );
        }
    }
    // SpMM rides along: dense output, same chunking, bit-equal rows.
    let bd = DenseMat::from_csr::<PlusTimesF64>(&b);
    let seq_mm = spmm::<PlusTimesF64>(&a, &bd);
    for t in THREAD_COUNTS {
        let par_mm = spmm_par_with::<PlusTimesF64>(&ThreadPool::new(t), &a, &bd);
        for (i, (&x, &y)) in seq_mm.data().iter().zip(par_mm.data()).enumerate() {
            assert!(
                f64_bits(x, y),
                "spmm t={t}: cell {i} not bit-equal: {x} vs {y}"
            );
        }
    }
}

#[test]
fn parallel_matches_sequential_on_named_generators() {
    for kind in 0..3 {
        for (n, d) in [(1usize, 1usize), (17, 3), (64, 8), (97, 5)] {
            let acoo = gen_a(kind, n, 0x5EED ^ (kind as u64) << 8 ^ n as u64);
            let bcoo = random_tall(n, d, 0.6, 0xB0B ^ n as u64);
            check_all(&acoo, &bcoo);
        }
    }
    // The figure harnesses' web-crawl shapes: a crawl-ordered graph with
    // host-local blocks (the uk/arabic stand-ins) and a power-law R-MAT.
    for acoo in [web_like(10, 16.0, 0x901), rmat(10, 8.0, RMAT_WEB, 0xD15)] {
        let bcoo = random_tall(acoo.nrows(), 64, 0.5, 0xF05);
        check_all(&acoo, &bcoo);
    }
}

#[test]
fn parallel_matches_sequential_empty_b() {
    // Empty B: every output row drains empty; chunk concat must still tile.
    let acoo = gen_a(2, 40, 7);
    let bcoo = Coo::new(40, 6);
    check_all(&acoo, &bcoo);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn parallel_matches_sequential_random(
        n in 4usize..=80,
        d in 1usize..10,
        deg in 0.5f64..8.0,
        sparsity in 0.0f64..0.95,
        kind in 0usize..3,
        seed in 0u64..10_000,
    ) {
        // Mix the mandated shape families with plain Erdős–Rényi operands.
        let acoo = if seed % 2 == 0 {
            gen_a(kind, n, seed)
        } else {
            erdos_renyi(n, deg, seed)
        };
        let bcoo = random_tall(n, d, sparsity, seed ^ 0x9E37);
        check_all(&acoo, &bcoo);
    }
}

/// Distributed stress: the full `ts_spgemm` pipeline must be byte-identical
/// between a 1-thread and an 8-thread pool under a fault-free `World`. This
/// exercises the chunked tile-owner kernel across ranks and would surface
/// any accidental shared-state race (corrupted triplets, wrong concat
/// order) as a hard mismatch.
#[test]
fn distributed_ts_spgemm_byte_identical_at_8_threads() {
    let n = 96;
    let d = 9;
    let acoo = erdos_renyi(n, 6.0, 0xD15);
    let bcoo = random_tall(n, d, 0.5, 0xD16);
    let run = |threads: usize, accum: AccumChoice| {
        set_threads(threads);
        let cfg = TsConfig {
            accum,
            tile_height: Some(7),
            tile_width: Some(20),
            ..TsConfig::default()
        };
        let out = World::run(4, |comm| {
            let dist = BlockDist::new(n, 4);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(&acoo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
            let b = DistCsr::from_global_coo::<PlusTimesF64>(&bcoo, dist, comm.rank(), d);
            let (c, _) = ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, &cfg);
            DistCsr {
                dist,
                rank: comm.rank(),
                local: c,
            }
            .gather_global::<PlusTimesF64>(comm)
        });
        out.results.into_iter().next().unwrap()
    };
    for accum in [AccumChoice::Spa, AccumChoice::Hash] {
        let c1 = run(1, accum);
        let c8 = run(8, accum);
        assert_csr_bytes(&c1, &c8, f64_bits, &format!("distributed {accum:?}"));
    }
    set_threads(1);
}
