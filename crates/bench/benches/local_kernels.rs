//! Local-kernel micro-benchmarks: row-wise Gustavson SpGEMM (SPA vs hash vs
//! auto), the symbolic pass and CSR×dense SpMM — the building blocks whose
//! relative costs drive the algorithm-level crossovers (Figs. 7, 8).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tsgemm_sparse::gen::{erdos_renyi, random_tall};
use tsgemm_sparse::spgemm::{spgemm, spgemm_symbolic, AccumChoice};
use tsgemm_sparse::spmm::spmm;
use tsgemm_sparse::{Csr, DenseMat, PlusTimesF64};

fn operands(n: usize, d: usize, sparsity: f64) -> (Csr<f64>, Csr<f64>) {
    let a = erdos_renyi(n, 8.0, 1).to_csr::<PlusTimesF64>();
    let b = random_tall(n, d, sparsity, 2).to_csr::<PlusTimesF64>();
    (a, b)
}

fn bench_spgemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_spgemm");
    group.sample_size(15);
    let n = 4096;
    for d in [32usize, 128, 512] {
        let (a, b) = operands(n, d, 0.8);
        group.bench_with_input(BenchmarkId::new("spa", d), &d, |bench, _| {
            bench.iter(|| black_box(spgemm::<PlusTimesF64>(&a, &b, AccumChoice::Spa)));
        });
        group.bench_with_input(BenchmarkId::new("hash", d), &d, |bench, _| {
            bench.iter(|| black_box(spgemm::<PlusTimesF64>(&a, &b, AccumChoice::Hash)));
        });
        group.bench_with_input(BenchmarkId::new("symbolic", d), &d, |bench, _| {
            bench.iter(|| black_box(spgemm_symbolic(&a, &b)));
        });
    }
    group.finish();
}

fn bench_spmm_vs_spgemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmm_vs_spgemm");
    group.sample_size(15);
    let n = 4096;
    let d = 128;
    for s_pct in [0u32, 50, 90] {
        let (a, bs) = operands(n, d, s_pct as f64 / 100.0);
        let bd = DenseMat::from_csr::<PlusTimesF64>(&bs);
        group.bench_with_input(BenchmarkId::new("spgemm", s_pct), &s_pct, |bench, _| {
            bench.iter(|| black_box(spgemm::<PlusTimesF64>(&a, &bs, AccumChoice::Auto)));
        });
        group.bench_with_input(BenchmarkId::new("spmm", s_pct), &s_pct, |bench, _| {
            bench.iter(|| black_box(spmm::<PlusTimesF64>(&a, &bd)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_spgemm, bench_spmm_vs_spgemm);
criterion_main!(benches);
