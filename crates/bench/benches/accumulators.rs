//! SPA vs hash accumulator micro-benchmark — the empirical basis of the
//! §III-C policy (SPA for `d ≤ 1024`, hash above): the dense SPA (a value
//! array kept at the semiring zero, ⊕ without a branch, and a touched bitmap
//! walked in column order on drain) wins while its value array fits in
//! cache, the hash accumulator wins for very wide rows.
//!
//! The `(and,or)` group measures the boolean tile-owner row: one SPA slot
//! per product (`Spa<BoolAndOr>`) against ORing each selected `B` row's
//! `⌈d/64⌉` value-bit words (`BitAccum`), at the two widths of the SPA
//! regime the BFS runs at.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tsgemm_sparse::accum::{Accumulator, BitAccum, HashAccum, Spa};
use tsgemm_sparse::{BitRows, BoolAndOr, Csr, Idx, PlusTimesF64, Semiring};

/// Simulates accumulating `updates` scattered entries into rows of width
/// `d`, then draining — the inner loop of row-wise SpGEMM.
fn drive<A: Accumulator<PlusTimesF64>>(acc: &mut A, d: usize, updates: usize) -> usize {
    let mut idx = Vec::new();
    let mut val = Vec::new();
    let mut emitted = 0;
    for row in 0..64u64 {
        for k in 0..updates as u64 {
            let col = ((row * 2654435761 + k * 40503) % d as u64) as Idx;
            acc.accumulate(col, k as f64 * 0.5);
        }
        idx.clear();
        val.clear();
        acc.drain_sorted(&[], &mut idx, &mut val);
        emitted += idx.len();
    }
    emitted
}

fn bench_accumulators(c: &mut Criterion) {
    let mut group = c.benchmark_group("accumulators");
    group.sample_size(20);
    for d in [32usize, 128, 1024, 16384] {
        let updates = (d / 2).max(8);
        group.bench_with_input(BenchmarkId::new("spa", d), &d, |b, &d| {
            let mut spa = Spa::<PlusTimesF64>::new(d);
            b.iter(|| black_box(drive(&mut spa, d, updates)));
        });
        group.bench_with_input(BenchmarkId::new("hash", d), &d, |b, &d| {
            let mut hash = HashAccum::<PlusTimesF64>::with_capacity(updates);
            b.iter(|| black_box(drive(&mut hash, d, updates)));
        });
    }
    group.finish();
}

/// 256 `B` rows of width `d` with `d/4` scattered columns each.
fn bool_b_rows(d: usize) -> Csr<bool> {
    let (per_row, nrows) = (d / 4, 256u64);
    let mut indptr = vec![0];
    let mut indices = Vec::new();
    for r in 0..nrows {
        let mut cols: Vec<Idx> = (0..per_row as u64)
            .map(|k| ((r * 2654435761 + k * 40503) % d as u64) as Idx)
            .collect();
        cols.sort_unstable();
        cols.dedup();
        indices.extend(cols);
        indptr.push(indices.len());
    }
    let values = vec![true; indices.len()];
    Csr::from_parts(nrows as usize, d, indptr, indices, values)
}

/// 64 output rows, each the ⊕ of the 16 `B` rows an `A` row of degree 16
/// selects, drained in order: `add_row(acc, k)` folds `B` row `k` in.
fn drive_bool<A: Accumulator<BoolAndOr>>(
    acc: &mut A,
    mut add_row: impl FnMut(&mut A, usize),
) -> usize {
    let mut idx = Vec::new();
    let mut val = Vec::new();
    let mut emitted = 0;
    for row in 0..64usize {
        for k in 0..16usize {
            add_row(acc, (row * 97 + k * 13) % 256);
        }
        idx.clear();
        val.clear();
        acc.drain_sorted(&[], &mut idx, &mut val);
        emitted += idx.len();
    }
    emitted
}

fn bench_bool_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("(and,or)");
    group.sample_size(20);
    for d in [128usize, 1024] {
        let b = bool_b_rows(d);
        let bits = BitRows::from_values::<BoolAndOr>(&b);
        group.bench_with_input(BenchmarkId::new("spa_entries", d), &d, |bench, &d| {
            let mut spa = Spa::<BoolAndOr>::new(d);
            bench.iter(|| {
                black_box(drive_bool(&mut spa, |spa, k| {
                    let (cols, vals) = b.row(k);
                    for (&c, &v) in cols.iter().zip(vals) {
                        spa.accumulate(c, BoolAndOr::mul(true, v));
                    }
                }))
            });
        });
        group.bench_with_input(BenchmarkId::new("bit_rows", d), &d, |bench, &d| {
            let mut acc = BitAccum::<BoolAndOr>::new(d).expect("(and,or) is boolean");
            bench.iter(|| black_box(drive_bool(&mut acc, |acc, k| acc.or_row(bits.row(k)))));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_accumulators, bench_bool_rows);
criterion_main!(benches);
