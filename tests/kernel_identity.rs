//! Kernel identity: the exact facts of `ts_spgemm` on a small uk-like
//! problem, pinned as constants.
//!
//! The owner kernel (accumulator, row loop, output assembly) may change how
//! fast a multiply runs, never what it computes or what it costs in the
//! model. For each semiring, rank count and tiling this test runs every
//! accumulator and pool thread count and asserts the same facts:
//!
//! * output nnz and a checksum over the exact bits of every entry;
//! * flops summed over ranks (the cost model's compute term);
//! * payload bytes summed over ranks and rank 0's collective count;
//! * the α–β modeled seconds of the run, compared exactly.
//!
//! Nothing here reads host time. The constants were captured before the
//! bitmap SPA replaced the stamped one, so a kernel change that moves any
//! fact fails here.

use std::sync::Mutex;
use tsgemm::core::{ts_spgemm, BlockDist, ColBlocks, DistCsr, TsConfig};
use tsgemm::net::{CostModel, World};
use tsgemm::sparse::gen::{random_tall, web_like};
use tsgemm::sparse::spgemm::AccumChoice;
use tsgemm::sparse::{BoolAndOr, Coo, Csr, PlusTimesF64, Semiring};

/// The pool size is process-wide, so runs must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

/// uk-like `A` with `2^SCALE` vertices and a `D`-column `B`, the shape of
/// the `ts-kernel` benchmark workload at 1/64 of its size.
const SCALE: u32 = 10;
const D: usize = 128;
const DEGREE: f64 = 16.0;
const B_SPARSITY: f64 = 0.8;

#[derive(Clone, Copy, Debug, PartialEq)]
struct Facts {
    nnz: u64,
    checksum: u64,
    flops: u64,
    bytes: u64,
    collectives: u64,
    modeled_s: f64,
}

/// FNV-1a over `(global row, column)` and the value bits of every entry,
/// row blocks in rank order.
fn checksum<T: Copy>(blocks: &[Csr<T>], bits: impl Fn(T) -> u64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        for byte in x.to_le_bytes() {
            hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut g = 0u64;
    for block in blocks {
        for (_, cols, vals) in block.iter_rows() {
            for (&c, &v) in cols.iter().zip(vals) {
                mix((g << 32) | c as u64);
                mix(bits(v));
            }
            g += 1;
        }
    }
    hash
}

/// Operands laid out on `p` ranks: `(A block, A^c block, B block)` per rank.
type Layout<T> = Vec<(DistCsr<T>, ColBlocks<T>, DistCsr<T>)>;

fn lay_out<S: Semiring>(acoo: &Coo<S::T>, bcoo: &Coo<S::T>, p: usize) -> Layout<S::T> {
    let n = acoo.nrows();
    World::run(p, |comm| {
        let dist = BlockDist::new(n, p);
        let a = DistCsr::from_global_coo::<S>(acoo, dist, comm.rank(), n);
        let ac = ColBlocks::build::<S>(comm, &a);
        let b = DistCsr::from_global_coo::<S>(bcoo, dist, comm.rank(), D);
        (a, ac, b)
    })
    .results
}

/// Runs one multiply on the laid-out operands with `threads` pool workers.
/// The set-up runs in its own `World`, so the profiles hold the multiply
/// alone.
fn facts<S: Semiring>(
    lay: &Layout<S::T>,
    cfg: &TsConfig,
    threads: usize,
    bits: impl Fn(S::T) -> u64,
) -> Facts {
    let out = World::run_with_threads(lay.len(), threads, |comm| {
        let (a, ac, b) = &lay[comm.rank()];
        let (c, stats) = ts_spgemm::<S>(comm, a, ac, b, cfg);
        (c, stats.flops)
    });
    let blocks: Vec<Csr<S::T>> = out.results.iter().map(|r| r.0.clone()).collect();
    Facts {
        nnz: blocks.iter().map(|c| c.nnz() as u64).sum(),
        checksum: checksum(&blocks, bits),
        flops: out.results.iter().map(|r| r.1).sum(),
        bytes: out.profiles.iter().map(|p| p.total_bytes_sent()).sum(),
        collectives: out.profiles[0]
            .segments
            .iter()
            .filter(|s| s.coll.is_some())
            .count() as u64,
        modeled_s: CostModel::default().model_run(&out.profiles).total(),
    }
}

/// Table IV tiles (one column band), or `w = n/p` (p column bands).
fn config(narrow: bool, p: usize, accum: AccumChoice) -> TsConfig {
    let n = 1usize << SCALE;
    let cfg = TsConfig {
        accum,
        ..TsConfig::default()
    };
    if narrow {
        cfg.with_width_factor(1, BlockDist::new(n, p))
    } else {
        cfg
    }
}

/// Asserts every accumulator and thread count reproduces `want[(p, narrow)]`.
fn check_all<S: Semiring>(
    label: &str,
    acoo: &Coo<S::T>,
    bcoo: &Coo<S::T>,
    want: &[(usize, bool, Facts)],
    bits: impl Fn(S::T) -> u64 + Copy,
) {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let configured = tsgemm::pool::configured_threads();
    for &(p, narrow, expected) in want {
        let lay = lay_out::<S>(acoo, bcoo, p);
        for accum in [AccumChoice::Spa, AccumChoice::Hash] {
            for threads in [1, 4] {
                let cfg = config(narrow, p, accum);
                let got = facts::<S>(&lay, &cfg, threads, bits);
                assert_eq!(
                    got, expected,
                    "{label} p={p} narrow={narrow} {accum:?} threads={threads}"
                );
            }
        }
    }
    tsgemm::pool::set_threads(configured);
}

fn operands() -> (Coo<f64>, Coo<f64>) {
    let n = 1usize << SCALE;
    (
        web_like(SCALE, DEGREE, 0x901),
        random_tall(n, D, B_SPARSITY, 0xF05),
    )
}

#[test]
fn plus_times_facts_are_pinned() {
    let (a, b) = operands();
    let want = [
        (2, false, PT_P2_WIDE),
        (2, true, PT_P2_NARROW),
        (4, false, PT_P4_WIDE),
        (4, true, PT_P4_NARROW),
    ];
    check_all::<PlusTimesF64>("(+,×)", &a, &b, &want, f64::to_bits);
}

#[test]
fn bool_facts_are_pinned() {
    let (a, b) = operands();
    let (a, b) = (a.map_values(|_| true), b.map_values(|_| true));
    let want = [
        (2, false, BOOL_P2_WIDE),
        (2, true, BOOL_P2_NARROW),
        (4, false, BOOL_P4_WIDE),
        (4, true, BOOL_P4_NARROW),
    ];
    check_all::<BoolAndOr>("(∧,∨)", &a, &b, &want, |v| v as u64);
}

// Captured with the stamped SPA (generation stamps and a sorted touched
// list) and the per-flop accumulator dispatch, before the bitmap kernel.
const PT_P2_WIDE: Facts = Facts {
    nnz: 124597,
    checksum: 0xfcaa25527ddb240c,
    flops: 411892,
    bytes: 222584,
    collectives: 3,
    modeled_s: 0.0001534205866666667,
};
const PT_P2_NARROW: Facts = Facts {
    nnz: 124597,
    checksum: 0xf0a0a28c6574e188,
    flops: 411892,
    bytes: 222584,
    collectives: 5,
    modeled_s: 0.00015569210666666668,
};
const PT_P4_WIDE: Facts = Facts {
    nnz: 124597,
    checksum: 0xfcaa25527ddb240c,
    flops: 411892,
    bytes: 433616,
    collectives: 3,
    modeled_s: 8.434581333333333e-5,
};
const PT_P4_NARROW: Facts = Facts {
    nnz: 124597,
    checksum: 0x94033f8bcc7634f3,
    flops: 411892,
    bytes: 433616,
    collectives: 9,
    modeled_s: 9.040349333333333e-5,
};
const BOOL_P2_WIDE: Facts = Facts {
    nnz: 124597,
    checksum: 0xd2f0f38e3b8797f4,
    flops: 411892,
    bytes: 166944,
    collectives: 3,
    modeled_s: 0.0001528506666666667,
};
const BOOL_P2_NARROW: Facts = Facts {
    nnz: 124597,
    checksum: 0xd2f0f38e3b8797f4,
    flops: 411892,
    bytes: 166944,
    collectives: 5,
    modeled_s: 0.00015457930666666668,
};
const BOOL_P4_WIDE: Facts = Facts {
    nnz: 124597,
    checksum: 0xd2f0f38e3b8797f4,
    flops: 411892,
    bytes: 325248,
    collectives: 3,
    modeled_s: 8.358037333333333e-5,
};
const BOOL_P4_NARROW: Facts = Facts {
    nnz: 124597,
    checksum: 0xd2f0f38e3b8797f4,
    flops: 411892,
    bytes: 325248,
    collectives: 9,
    modeled_s: 8.823613333333333e-5,
};
