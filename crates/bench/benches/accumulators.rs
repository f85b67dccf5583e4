//! SPA vs hash accumulator micro-benchmark — the empirical basis of the
//! §III-C policy (SPA for `d ≤ 1024`, hash above): the dense SPA (a value
//! array kept at the semiring zero, ⊕ without a branch, and a touched bitmap
//! walked in column order on drain) wins while its value array fits in
//! cache, the hash accumulator wins for very wide rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tsgemm_sparse::accum::{Accumulator, HashAccum, Spa};
use tsgemm_sparse::{Idx, PlusTimesF64};

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

criterion_group!(benches, bench_accumulators);
criterion_main!(benches);
