//! Property-based tests for the sparse substrate: structural invariants and
//! algebraic equivalences on arbitrary inputs.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use tsgemm_sparse::accum::{Accumulator, HashAccum, Spa};
use tsgemm_sparse::ewise::{andnot, intersect, union};
use tsgemm_sparse::perm::{permute_symmetric, random_permutation, rcm_order};
use tsgemm_sparse::semiring::{MinPlusF64, Sel2ndMinF64, Semiring};
use tsgemm_sparse::sparsify::{sparsity, topk_per_row};
use tsgemm_sparse::spgemm::{spgemm, spgemm_par, spgemm_symbolic, AccumChoice};
use tsgemm_sparse::spmm::spmm;
use tsgemm_sparse::{BoolAndOr, Coo, Csr, DenseMat, Idx, PlusTimesF64};

/// Strategy: a random COO matrix with the given bounds.
fn coo_strategy(max_n: usize, max_m: usize, max_nnz: usize) -> impl Strategy<Value = Coo<f64>> {
    (1..=max_n, 1..=max_m).prop_flat_map(move |(n, m)| {
        proptest::collection::vec((0..n as Idx, 0..m as Idx, -4.0f64..4.0), 0..=max_nnz)
            .prop_map(move |entries| Coo::from_entries(n, m, entries))
    })
}

/// Pair of composable matrices (a.ncols == b.nrows).
fn mm_pair() -> impl Strategy<Value = (Coo<f64>, Coo<f64>)> {
    (1..=24usize, 1..=24usize, 1..=12usize).prop_flat_map(|(n, k, m)| {
        let a = proptest::collection::vec((0..n as Idx, 0..k as Idx, -4.0f64..4.0), 0..=80)
            .prop_map(move |e| Coo::from_entries(n, k, e));
        let b = proptest::collection::vec((0..k as Idx, 0..m as Idx, -4.0f64..4.0), 0..=80)
            .prop_map(move |e| Coo::from_entries(k, m, e));
        (a, b)
    })
}

fn dense_ref_mm(a: &Csr<f64>, b: &Csr<f64>) -> Vec<Vec<f64>> {
    let da = a.to_dense_with(0.0);
    let db = b.to_dense_with(0.0);
    let mut c = vec![vec![0.0; b.ncols()]; a.nrows()];
    for (r, row) in da.iter().enumerate() {
        for (k, &av) in row.iter().enumerate() {
            if av != 0.0 {
                for (j, &bv) in db[k].iter().enumerate() {
                    c[r][j] += av * bv;
                }
            }
        }
    }
    c
}

/// Accumulator widths: a single column, either side of one and two bitmap
/// words, and the SPA's `d ≤ 1024` limit.
const ACC_WIDTHS: [usize; 7] = [1, 63, 64, 65, 128, 1000, 1024];

/// Accumulator inputs: signed zeros, infinities, NaN, and small integers
/// whose sums cancel to zero exactly, besides arbitrary finite values.
fn special_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        (-3i32..=3).prop_map(f64::from),
        (-3i32..=3).prop_map(f64::from),
        -4.0f64..4.0,
    ]
}

fn drain<S: Semiring, A: Accumulator<S>>(acc: &mut A, bits: fn(S::T) -> u64) -> Vec<(Idx, u64)> {
    let (mut idx, mut val) = (Vec::new(), Vec::new());
    acc.drain_sorted(&[], &mut idx, &mut val);
    idx.into_iter().zip(val.into_iter().map(bits)).collect()
}

/// Accumulates `stream[..split]` and resets, then the whole stream twice
/// with a drain after each pass. `Spa` and `HashAccum` must count the same
/// touched columns and drain the same `(column, bits(value))` as the fold
/// `zero ⊕ v₁ ⊕ v₂ ⊕ …` per column with zeros dropped.
fn check_accumulators<S: Semiring>(
    width: usize,
    stream: &[(Idx, S::T)],
    split: usize,
    bits: fn(S::T) -> u64,
) {
    let mut fold = BTreeMap::new();
    for &(i, v) in stream {
        let slot = fold.entry(i).or_insert_with(S::zero);
        *slot = S::add(*slot, v);
    }
    let want: Vec<(Idx, u64)> = fold
        .into_iter()
        .filter(|(_, v)| !S::is_zero(v))
        .map(|(i, v)| (i, bits(v)))
        .collect();

    let mut spa = Spa::<S>::new(width);
    let mut hash = HashAccum::<S>::with_capacity(4);
    let prefix = &stream[..split.min(stream.len())];
    for &(i, v) in prefix {
        spa.accumulate(i, v);
        hash.accumulate(i, v);
    }
    let distinct = prefix
        .iter()
        .map(|&(i, _)| i)
        .collect::<BTreeSet<_>>()
        .len();
    assert_eq!(spa.touched(), distinct, "width {width}: SPA touched count");
    assert_eq!(
        hash.touched(),
        distinct,
        "width {width}: hash touched count"
    );
    spa.reset();
    hash.reset();
    assert_eq!(
        (spa.touched(), hash.touched()),
        (0, 0),
        "width {width}: after reset"
    );
    for _ in 0..2 {
        for &(i, v) in stream {
            spa.accumulate(i, v);
            hash.accumulate(i, v);
        }
        assert_eq!(drain(&mut spa, bits), want, "width {width}: SPA drain");
        assert_eq!(drain(&mut hash, bits), want, "width {width}: hash drain");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coo_csr_roundtrip_preserves_combined_entries(coo in coo_strategy(20, 20, 60)) {
        let csr = coo.to_csr::<PlusTimesF64>();
        csr.validate().unwrap();
        let back = csr.to_coo().to_csr::<PlusTimesF64>();
        prop_assert_eq!(back, csr);
    }

    #[test]
    fn transpose_is_an_involution(coo in coo_strategy(16, 20, 50)) {
        let m = coo.to_csr::<PlusTimesF64>();
        let tt = m.transpose().transpose();
        prop_assert_eq!(tt, m);
    }

    #[test]
    fn spgemm_matches_dense_reference((a, b) in mm_pair()) {
        let ca = a.to_csr::<PlusTimesF64>();
        let cb = b.to_csr::<PlusTimesF64>();
        let c = spgemm::<PlusTimesF64>(&ca, &cb, AccumChoice::Auto);
        let dc = dense_ref_mm(&ca, &cb);
        // `dc` is `ca.nrows() x cb.ncols()`, so this visits every cell.
        for (r, row) in dc.iter().enumerate() {
            for (j, &want) in row.iter().enumerate() {
                let got = c.get(r, j as Idx).unwrap_or(0.0);
                prop_assert!((got - want).abs() < 1e-9,
                    "mismatch at ({}, {}): {} vs {}", r, j, got, want);
            }
        }
    }

    #[test]
    fn spgemm_accumulators_and_parallel_agree((a, b) in mm_pair()) {
        let ca = a.to_csr::<PlusTimesF64>();
        let cb = b.to_csr::<PlusTimesF64>();
        let c_spa = spgemm::<PlusTimesF64>(&ca, &cb, AccumChoice::Spa);
        let c_hash = spgemm::<PlusTimesF64>(&ca, &cb, AccumChoice::Hash);
        let c_par = spgemm_par::<PlusTimesF64>(&ca, &cb, AccumChoice::Auto);
        prop_assert!(c_spa.approx_eq(&c_hash, 1e-12));
        prop_assert!(c_spa.approx_eq(&c_par, 1e-12));
    }

    #[test]
    fn symbolic_bounds_numeric((a, b) in mm_pair()) {
        let ca = a.to_csr::<PlusTimesF64>();
        let cb = b.to_csr::<PlusTimesF64>();
        let sym = spgemm_symbolic(&ca, &cb);
        let c = spgemm::<PlusTimesF64>(&ca, &cb, AccumChoice::Auto);
        // Numeric can only lose entries to exact cancellation.
        prop_assert!(c.nnz() <= sym.nnz());
        for r in 0..ca.nrows() {
            prop_assert!(c.row_nnz(r) <= sym.row_nnz[r]);
        }
    }

    #[test]
    fn spmm_agrees_with_spgemm_on_densified_b((a, b) in mm_pair()) {
        let ca = a.to_csr::<PlusTimesF64>();
        let cb = b.to_csr::<PlusTimesF64>();
        let bd = DenseMat::from_csr::<PlusTimesF64>(&cb);
        let c1 = spmm::<PlusTimesF64>(&ca, &bd);
        let c2 = spgemm::<PlusTimesF64>(&ca, &cb, AccumChoice::Auto);
        for r in 0..ca.nrows() {
            for j in 0..cb.ncols() {
                prop_assert!((c1.get(r, j) - c2.get(r, j as Idx).unwrap_or(0.0)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn ewise_set_algebra(
        a in coo_strategy(12, 12, 40),
        b_entries in proptest::collection::vec((0..12 as Idx, 0..12 as Idx, -4.0f64..4.0), 0..=40),
    ) {
        let na = Coo::from_entries(12, 12,
            a.entries().iter().filter(|&&(r, c, _)| (r as usize) < 12 && (c as usize) < 12).copied().collect())
            .to_csr::<PlusTimesF64>();
        let nb = Coo::from_entries(12, 12, b_entries).to_csr::<PlusTimesF64>();
        // (A \ B) and (A ∩ B) partition A's pattern.
        let diff = andnot(&na, &nb);
        let both = intersect::<PlusTimesF64>(&na, &nb);
        // Pattern partition: every A coordinate is in exactly one of the two
        // (intersect may drop exact-zero products, so compare via counts of
        // surviving coordinates against a direct scan).
        let mut in_b = 0usize;
        for (r, cols, _) in na.iter_rows() {
            for &c in cols {
                if nb.get(r, c).is_some() {
                    in_b += 1;
                }
            }
        }
        prop_assert_eq!(diff.nnz() + in_b, na.nnz());
        let _ = both;
        // Union is commutative on patterns.
        let u1 = union::<PlusTimesF64>(&na, &nb);
        let u2 = union::<PlusTimesF64>(&nb, &na);
        prop_assert_eq!(u1.indices(), u2.indices());
        prop_assert_eq!(u1.indptr(), u2.indptr());
    }

    #[test]
    fn topk_keeps_the_largest(m in coo_strategy(10, 16, 60), k in 1usize..8) {
        let csr = m.to_csr::<PlusTimesF64>();
        let t = topk_per_row(&csr, k);
        t.validate().unwrap();
        for r in 0..csr.nrows() {
            prop_assert!(t.row_nnz(r) <= k.min(csr.row_nnz(r)));
            // Kept entries dominate dropped entries in magnitude.
            let (kc, kv) = t.row(r);
            let min_kept = kv.iter().map(|v| v.abs()).fold(f64::INFINITY, f64::min);
            let (oc, ov) = csr.row(r);
            for (&c, &v) in oc.iter().zip(ov) {
                if !kc.contains(&c) {
                    prop_assert!(v.abs() <= min_kept + 1e-12);
                }
            }
        }
        prop_assert!(sparsity(&t) >= sparsity(&csr) - 1e-12);
    }

    #[test]
    fn accumulators_drain_identical_bits(
        stream in proptest::collection::vec((any::<u32>(), special_f64()), 0..300),
        split in 0usize..300,
    ) {
        // Rust leaves a NaN result's sign and payload unspecified (the
        // optimiser may commute `NaN + NaN`), so NaNs compare as one value.
        let bits = |v: f64| if v.is_nan() { f64::NAN } else { v }.to_bits();
        for width in ACC_WIDTHS {
            let s: Vec<(Idx, f64)> = stream.iter().map(|&(i, v)| (i % width as u32, v)).collect();
            let b: Vec<(Idx, bool)> = s.iter().map(|&(i, v)| (i, v > 0.0)).collect();
            check_accumulators::<PlusTimesF64>(width, &s, split, bits);
            check_accumulators::<MinPlusF64>(width, &s, split, bits);
            check_accumulators::<Sel2ndMinF64>(width, &s, split, bits);
            check_accumulators::<BoolAndOr>(width, &b, split, |v| v as u64);
        }
    }

    #[test]
    fn symmetric_permutation_preserves_spectrum_proxy(
        m in coo_strategy(14, 14, 50),
        seed in 0u64..100,
    ) {
        // Relabeling cannot change nnz, row-nnz multiset, or value multiset.
        let sq = Coo::from_entries(14, 14,
            m.entries().iter().filter(|&&(r, c, _)| (r as usize) < 14 && (c as usize) < 14).copied().collect())
            .to_csr::<PlusTimesF64>();
        let p = random_permutation(14, seed);
        let pm = permute_symmetric(&sq, &p);
        prop_assert_eq!(pm.nnz(), sq.nnz());
        let mut d1: Vec<usize> = (0..14).map(|r| sq.row_nnz(r)).collect();
        let mut d2: Vec<usize> = (0..14).map(|r| pm.row_nnz(r)).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        prop_assert_eq!(d1, d2);
        let mut v1 = sq.values().to_vec();
        let mut v2 = pm.values().to_vec();
        v1.sort_by(f64::total_cmp);
        v2.sort_by(f64::total_cmp);
        prop_assert_eq!(v1, v2);
    }

    #[test]
    fn rcm_never_worsens_total_profile_much(
        m in coo_strategy(20, 20, 80),
    ) {
        // RCM is a heuristic, but applying it must always yield a valid
        // permutation whose reordered matrix validates.
        let sq_entries: Vec<_> = m.entries().iter()
            .filter(|&&(r, c, _)| (r as usize) < 20 && (c as usize) < 20)
            .flat_map(|&(r, c, v)| [(r, c, v), (c, r, v)])
            .collect();
        let sq = Coo::from_entries(20, 20, sq_entries).to_csr::<PlusTimesF64>();
        let order = rcm_order(&sq);
        let mut check = order.clone();
        check.sort_unstable();
        prop_assert!(check.iter().enumerate().all(|(i, &v)| i as Idx == v));
        permute_symmetric(&sq, &order).validate().unwrap();
    }
}
