//! Kernel identity: the exact facts of `ts_spgemm`, and of the kernels
//! that share its tile schedule (`dist_spmm`, `dist_sddmm` and the
//! multi-source BFS variants), on small uk-like problems, pinned as
//! constants.
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
use tsgemm::apps::msbfs::{msbfs_parents, msbfs_summa2d, msbfs_ts, BfsConfig, BfsIterStats};
use tsgemm::apps::msbfs_levels;
use tsgemm::core::sddmm::{dist_sddmm, SddmmConfig, SddmmLocalStats};
use tsgemm::core::spmm::{dist_spmm, SpmmConfig, SpmmLocalStats};
use tsgemm::core::{ts_spgemm, BlockDist, ColBlocks, DistCsr, TsConfig};
use tsgemm::net::{CollectiveRecord, Comm, CostModel, Metrics, RankProfile, World};
use tsgemm::sparse::gen::{init_frontier, random_tall, symmetrize, web_like};
use tsgemm::sparse::spgemm::AccumChoice;
use tsgemm::sparse::{BoolAndOr, Coo, Csr, DenseMat, Idx, PlusTimesF64, Semiring};

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

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for x in words {
        for byte in x.to_le_bytes() {
            hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// FNV-1a over `(global row, column)` and the value bits of every entry,
/// row blocks in rank order.
fn checksum<T: Copy>(blocks: &[Csr<T>], bits: impl Fn(T) -> u64) -> u64 {
    let rows = blocks
        .iter()
        .flat_map(|block| block.iter_rows())
        .enumerate();
    fnv(rows.flat_map(|(g, (_, cols, vals))| {
        let bits = &bits;
        cols.iter()
            .zip(vals)
            .flat_map(move |(&c, &v)| [((g as u64) << 32) | c as u64, bits(v)])
    }))
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

// ---- SpMM, SDDMM and the multi-source BFS variants --------------------
//
// The same facts for the kernels that share `ts_spgemm`'s tile schedule:
// the output bits, the merged stats, the payload bytes of each tag kind
// (the tag's last `:` component, summed over ranks and iterations), a hash
// of every rank's collective tags and bytes in order, rank 0's collective
// count and the modeled seconds. Each input runs at pool sizes 1 and 4.

/// Expected facts of one run; `bytes` lists `(tag kind, payload bytes)`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Pin<St> {
    checksum: u64,
    stats: St,
    bytes: &'static [(&'static str, u64)],
    order: u64,
    collectives: u64,
    modeled_s: f64,
}

fn records(profiles: &[RankProfile]) -> impl Iterator<Item = &CollectiveRecord> {
    profiles
        .iter()
        .flat_map(|p| p.segments.iter().filter_map(|s| s.coll.as_ref()))
}

/// Payload bytes of the collectives whose tag ends in `:{kind}`.
fn kind_bytes(profiles: &[RankProfile], kind: &str) -> u64 {
    records(profiles)
        .filter(|c| c.tag.rsplit(':').next() == Some(kind))
        .map(|c| c.bytes_sent())
        .sum()
}

/// Asserts a run's facts, given its output checksum and merged stats.
fn assert_pinned<St: PartialEq + std::fmt::Debug>(
    label: &str,
    profiles: &[RankProfile],
    checksum: u64,
    stats: St,
    want: &Pin<St>,
) {
    let order = fnv(records(profiles).flat_map(|c| {
        c.tag
            .bytes()
            .map(u64::from)
            .chain([u64::MAX, c.bytes_sent()])
            .collect::<Vec<_>>()
    }));
    let got = Pin {
        checksum,
        stats,
        bytes: want.bytes,
        order,
        collectives: profiles[0]
            .segments
            .iter()
            .filter(|s| s.coll.is_some())
            .count() as u64,
        modeled_s: CostModel::default().model_run(profiles).total(),
    };
    assert_eq!(&got, want, "{label}");
    for &(kind, bytes) in want.bytes {
        assert_eq!(
            kind_bytes(profiles, kind),
            bytes,
            "{label}: bytes of :{kind}"
        );
    }
    let total: u64 = records(profiles).map(|c| c.bytes_sent()).sum();
    let listed: u64 = want.bytes.iter().map(|&(_, b)| b).sum();
    assert_eq!(total, listed, "{label}: bytes under unlisted tags");
}

/// Runs `body` at pool sizes 1 and 4 and checks each against `want`.
fn at_pool_sizes<R, St>(
    label: &str,
    p: usize,
    body: impl Fn(&mut Comm) -> R + Sync,
    facts: impl Fn(&[R]) -> (u64, St),
    want: Pin<St>,
) where
    R: Send,
    St: PartialEq + std::fmt::Debug,
{
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let configured = tsgemm::pool::configured_threads();
    for threads in [1, 4] {
        let out = World::run_with_threads(p, threads, &body);
        let (checksum, stats) = facts(&out.results);
        assert_pinned(
            &format!("{label} threads={threads}"),
            &out.profiles,
            checksum,
            stats,
            &want,
        );
    }
    tsgemm::pool::set_threads(configured);
}

fn merged<St: Metrics + Default>(stats: impl IntoIterator<Item = St>) -> St {
    stats.into_iter().fold(St::default(), |mut acc, s| {
        acc.merge(&s);
        acc
    })
}

/// Table IV tiles, or `w = n/p`.
fn tile_width(narrow: bool, p: usize) -> Option<usize> {
    narrow.then(|| BlockDist::new(1usize << SCALE, p).block())
}

#[test]
fn spmm_facts_are_pinned() {
    let (a, b) = operands();
    let want = [
        (2, false, SPMM_P2_WIDE),
        (2, true, SPMM_P2_NARROW),
        (4, false, SPMM_P4_WIDE),
        (4, true, SPMM_P4_NARROW),
    ];
    for (p, narrow, want) in want {
        let lay = lay_out::<PlusTimesF64>(&a, &b, p);
        let cfg = SpmmConfig {
            tile_width: tile_width(narrow, p),
            ..SpmmConfig::default()
        };
        at_pool_sizes(
            &format!("spmm p={p} narrow={narrow}"),
            p,
            |comm| {
                let (a, ac, b) = &lay[comm.rank()];
                let b_dense = DenseMat::from_csr::<PlusTimesF64>(&b.local);
                dist_spmm::<PlusTimesF64>(comm, a, ac, &b_dense, &cfg)
            },
            |results| {
                let bits = results
                    .iter()
                    .flat_map(|(c, _)| c.data().iter().map(|v| v.to_bits()));
                (fnv(bits), merged(results.iter().map(|r| r.1)))
            },
            want,
        );
    }
}

#[test]
fn sddmm_facts_are_pinned() {
    let (a, b) = operands();
    // A factor whose every third row is empty: a fetched row that never
    // arrives is a zero dot at zero work.
    let n = 1usize << SCALE;
    let holes = Coo::from_entries(
        n,
        D,
        b.entries()
            .iter()
            .copied()
            .filter(|&(r, _, _)| r % 3 != 0)
            .collect(),
    );
    let want = [
        (2, false, &b, SDDMM_P2_WIDE),
        (2, true, &b, SDDMM_P2_NARROW),
        (4, false, &b, SDDMM_P4_WIDE),
        (4, true, &b, SDDMM_P4_NARROW),
        (4, true, &holes, SDDMM_P4_HOLES),
    ];
    for (p, narrow, z, want) in want {
        let lay = lay_out::<PlusTimesF64>(&a, z, p);
        let cfg = SddmmConfig {
            tile_width: tile_width(narrow, p),
            ..SddmmConfig::default()
        };
        at_pool_sizes(
            &format!("sddmm p={p} narrow={narrow}"),
            p,
            |comm| {
                let (s, sc, z) = &lay[comm.rank()];
                dist_sddmm(comm, s, sc, z, &cfg, |sv, dot| sv * dot)
            },
            |results| {
                let blocks: Vec<Csr<f64>> = results.iter().map(|r| r.0.clone()).collect();
                (
                    checksum(&blocks, f64::to_bits),
                    merged(results.iter().map(|r| r.1)),
                )
            },
            want,
        );
    }
}

/// Rank count of the BFS runs (a 2 × 2 grid for SUMMA).
const BFS_P: usize = 4;
const BFS_SCALE: u32 = 9;
const BFS_SOURCES: usize = 16;

/// A symmetric uk-like graph and its sources.
fn bfs_graph() -> (Coo<f64>, Vec<Idx>) {
    let g = symmetrize(&web_like(BFS_SCALE, 8.0, 0xB05));
    let (_, sources) = init_frontier(g.nrows(), BFS_SOURCES, 0xB06);
    (g, sources)
}

/// A square `A` laid out on `p` ranks: `(A block, A^c block)` per rank.
type SquareLayout<T> = Vec<(DistCsr<T>, ColBlocks<T>)>;

fn lay_out_square<S: Semiring>(acoo: &Coo<S::T>, p: usize) -> SquareLayout<S::T> {
    let n = acoo.nrows();
    World::run(p, |comm| {
        let a = DistCsr::from_global_coo::<S>(acoo, BlockDist::new(n, p), comm.rank(), n);
        let ac = ColBlocks::build::<S>(comm, &a);
        (a, ac)
    })
    .results
}

/// Every rank reports the same global per-iteration stats.
fn bfs_stats(per_rank: impl Iterator<Item = Vec<BfsIterStats>>) -> Vec<BfsIterStats> {
    let all: Vec<_> = per_rank.collect();
    assert!(all.windows(2).all(|w| w[0] == w[1]));
    all[0].clone()
}

/// The BFS runs check their stats against a `&'static` list.
fn bfs_pin(want: Pin<&'static [BfsIterStats]>) -> Pin<Vec<BfsIterStats>> {
    Pin {
        checksum: want.checksum,
        stats: want.stats.to_vec(),
        bytes: want.bytes,
        order: want.order,
        collectives: want.collectives,
        modeled_s: want.modeled_s,
    }
}

#[test]
fn msbfs_levels_facts_are_pinned() {
    let (g, sources) = bfs_graph();
    let g = g.map_values(|_| true);
    let lay = lay_out_square::<BoolAndOr>(&g, BFS_P);
    at_pool_sizes(
        "msbfs_levels",
        BFS_P,
        |comm| {
            let (a, ac) = &lay[comm.rank()];
            msbfs_levels(comm, a, ac, &sources, 1000, "lv")
        },
        |results| {
            let blocks: Vec<Csr<f64>> = results.iter().map(|r| r.0.clone()).collect();
            (
                checksum(&blocks, f64::to_bits),
                bfs_stats(results.iter().map(|r| r.1.clone())),
            )
        },
        bfs_pin(LEVELS),
    );
}

#[test]
fn msbfs_parents_facts_are_pinned() {
    let (g, sources) = bfs_graph();
    let lay = lay_out_square::<PlusTimesF64>(&g, BFS_P);
    at_pool_sizes(
        "msbfs_parents",
        BFS_P,
        |comm| {
            let (a, ac) = &lay[comm.rank()];
            msbfs_parents(comm, a, ac, &sources, 1000, "pa")
        },
        |results| {
            let blocks: Vec<Csr<f64>> = results.iter().map(|r| r.0.clone()).collect();
            (
                checksum(&blocks, f64::to_bits),
                bfs_stats(results.iter().map(|r| r.1.clone())),
            )
        },
        bfs_pin(PARENTS),
    );
}

#[test]
fn msbfs_summa2d_facts_are_pinned() {
    let (g, sources) = bfs_graph();
    let g = g.map_values(|_| true);
    at_pool_sizes(
        "msbfs_summa2d",
        BFS_P,
        |comm| msbfs_summa2d(comm, &g, &sources, 1000, "sb"),
        |results| {
            let blocks: Vec<Csr<bool>> = results.iter().map(|r| r.0.clone()).collect();
            let ranges = results
                .iter()
                .flat_map(|r| [r.1 .0, r.1 .1, r.2 .0, r.2 .1].map(u64::from));
            (
                fnv([checksum(&blocks, |v| v as u64)].into_iter().chain(ranges)),
                bfs_stats(results.iter().map(|r| r.3.clone())),
            )
        },
        bfs_pin(SUMMA2D),
    );
}

#[test]
fn msbfs_ts_with_spmm_switch_facts_are_pinned() {
    let (g, sources) = bfs_graph();
    let g = g.map_values(|_| true);
    let lay = lay_out_square::<BoolAndOr>(&g, BFS_P);
    let cfg = BfsConfig {
        spmm_switch: true,
        ..BfsConfig::default()
    };
    at_pool_sizes(
        "msbfs_ts spmm_switch",
        BFS_P,
        |comm| {
            let (a, ac) = &lay[comm.rank()];
            msbfs_ts(comm, a, ac, &sources, &cfg)
        },
        |results| {
            let blocks: Vec<Csr<bool>> = results.iter().map(|r| r.0.clone()).collect();
            (
                checksum(&blocks, |v| v as u64),
                bfs_stats(results.iter().map(|r| r.1.clone())),
            )
        },
        bfs_pin(TS_SWITCH),
    );
}

// Captured before SpMM, SDDMM and the BFS variants moved onto the shared
// tile-step pieces and frontier loop.
const SPMM_P2_WIDE: Pin<SpmmLocalStats> = Pin {
    checksum: 0x2ca590c2cd4a89d8,
    stats: SpmmLocalStats {
        flops: 2027776,
        rows_shipped: 535,
        steps: 1,
    },
    bytes: &[("ids", 2140), ("vals", 547840)],
    order: 0xa79517ec1f89abf5,
    collectives: 2,
    modeled_s: 0.00025225481900963375,
};
const SPMM_P2_NARROW: Pin<SpmmLocalStats> = Pin {
    checksum: 0x2ca590c2cd4a89d8,
    stats: SpmmLocalStats {
        flops: 2027776,
        rows_shipped: 535,
        steps: 2,
    },
    bytes: &[("ids", 2140), ("vals", 547840)],
    order: 0xd9802f3d2543e35,
    collectives: 4,
    modeled_s: 0.00024361394271910154,
};
const SPMM_P4_WIDE: Pin<SpmmLocalStats> = Pin {
    checksum: 0x2ca590c2cd4a89d8,
    stats: SpmmLocalStats {
        flops: 2027776,
        rows_shipped: 1042,
        steps: 1,
    },
    bytes: &[("ids", 4168), ("vals", 1067008)],
    order: 0xf3b25bd20c46aaf9,
    collectives: 2,
    modeled_s: 0.00018414681623677898,
};
const SPMM_P4_NARROW: Pin<SpmmLocalStats> = Pin {
    checksum: 0x2ca590c2cd4a89d8,
    stats: SpmmLocalStats {
        flops: 2027776,
        rows_shipped: 1042,
        steps: 4,
    },
    bytes: &[("ids", 4168), ("vals", 1067008)],
    order: 0x4415341135304379,
    collectives: 8,
    modeled_s: 0.00013830485333333334,
};
const SDDMM_P2_WIDE: Pin<SddmmLocalStats> = Pin {
    checksum: 0x677f42779d31b9db,
    stats: SddmmLocalStats {
        flops: 823784,
        steps: 1,
    },
    bytes: &[("zfetch", 222560)],
    order: 0xc16f79e9a685e626,
    collectives: 1,
    modeled_s: 0.00027789501333333336,
};
const SDDMM_P2_NARROW: Pin<SddmmLocalStats> = Pin {
    checksum: 0x677f42779d31b9db,
    stats: SddmmLocalStats {
        flops: 823784,
        steps: 2,
    },
    bytes: &[("zfetch", 222560)],
    order: 0x155860b288f642e6,
    collectives: 2,
    modeled_s: 0.00028011653333333335,
};
const SDDMM_P4_WIDE: Pin<SddmmLocalStats> = Pin {
    checksum: 0x677f42779d31b9db,
    stats: SddmmLocalStats {
        flops: 823784,
        steps: 1,
    },
    bytes: &[("zfetch", 433472)],
    order: 0x9c8b9dc744d08ddd,
    collectives: 1,
    modeled_s: 0.00014463642666666667,
};
const SDDMM_P4_NARROW: Pin<SddmmLocalStats> = Pin {
    checksum: 0x677f42779d31b9db,
    stats: SddmmLocalStats {
        flops: 823784,
        steps: 4,
    },
    bytes: &[("zfetch", 433472)],
    order: 0x36e8ec84e5408f5d,
    collectives: 4,
    modeled_s: 0.00015054410666666667,
};
const SDDMM_P4_HOLES: Pin<SddmmLocalStats> = Pin {
    checksum: 0x10fcdc9e55c1f47d,
    stats: SddmmLocalStats {
        flops: 525174,
        steps: 4,
    },
    bytes: &[("zfetch", 291616)],
    order: 0x3cc881d3c2ed9e88,
    collectives: 4,
    modeled_s: 9.499632e-5,
};
/// One BFS iteration's stats.
const fn it(iter: usize, frontier_nnz: u64, discovered_nnz: u64, used_spmm: bool) -> BfsIterStats {
    BfsIterStats {
        iter,
        frontier_nnz,
        discovered_nnz,
        used_spmm,
    }
}

/// The per-iteration stats every TS-SpGEMM and SUMMA BFS reports.
const BFS_ITERS: &[BfsIterStats] = &[
    it(0, 16, 225, false),
    it(1, 225, 2836, false),
    it(2, 2836, 4831, false),
    it(3, 4831, 284, false),
    it(4, 284, 0, false),
];
const LEVELS: Pin<&[BfsIterStats]> = Pin {
    checksum: 0xdebe3894ed1c58e0,
    stats: BFS_ITERS,
    bytes: &[
        ("count", 576),
        ("modes", 720),
        ("bfetch", 136848),
        ("cret", 35724),
        ("disc", 480),
    ],
    order: 0x4e8c68cc29e70b8e,
    collectives: 26,
    modeled_s: 3.9829599999999996e-5,
};
const PARENTS: Pin<&[BfsIterStats]> = Pin {
    checksum: 0xed694f64efeabf82,
    stats: BFS_ITERS,
    bytes: &[
        ("count", 576),
        ("modes", 720),
        ("bfetch", 182464),
        ("cret", 47632),
        ("disc", 480),
    ],
    order: 0x8519695c51321aea,
    collectives: 26,
    modeled_s: 4.0255919999999997e-5,
};
const SUMMA2D: Pin<&[BfsIterStats]> = Pin {
    checksum: 0x44878abd03a85174,
    stats: BFS_ITERS,
    bytes: &[
        ("split", 576),
        ("count", 576),
        ("abcast", 473520),
        ("bbcast", 98304),
        ("disc", 480),
    ],
    order: 0xaa1fb425cbce4038,
    collectives: 33,
    modeled_s: 3.679818666666667e-5,
};
const TS_SWITCH: Pin<&[BfsIterStats]> = Pin {
    checksum: 0x33a74ac2a07c8325,
    stats: &[
        it(0, 16, 225, false),
        it(1, 225, 2836, false),
        it(2, 2836, 4831, false),
        it(3, 4831, 284, true),
        it(4, 284, 0, false),
    ],
    bytes: &[
        ("count", 576),
        ("modes", 576),
        ("bfetch", 64452),
        ("cret", 9084),
        ("disc", 480),
        ("ids", 3788),
        ("vals", 15152),
    ],
    order: 0x361d5bbef8757869,
    collectives: 25,
    modeled_s: 2.7470293333333334e-5,
};

#[test]
fn msbfs_ts_facts_are_pinned() {
    let (g, sources) = bfs_graph();
    let g = g.map_values(|_| true);
    let lay = lay_out_square::<BoolAndOr>(&g, BFS_P);
    let narrow = BfsConfig {
        ts: TsConfig {
            tile_width: tile_width(true, BFS_P),
            ..BfsConfig::default().ts
        },
        ..BfsConfig::default()
    };
    for (label, cfg, want) in [
        ("msbfs_ts", BfsConfig::default(), TS_WIDE),
        ("msbfs_ts narrow", narrow, TS_NARROW),
    ] {
        at_pool_sizes(
            label,
            BFS_P,
            |comm| {
                let (a, ac) = &lay[comm.rank()];
                msbfs_ts(comm, a, ac, &sources, &cfg)
            },
            |results| {
                let blocks: Vec<Csr<bool>> = results.iter().map(|r| r.0.clone()).collect();
                (
                    checksum(&blocks, |v| v as u64),
                    bfs_stats(results.iter().map(|r| r.1.clone())),
                )
            },
            bfs_pin(want),
        );
    }
}

// Captured before the BFS multiplies moved onto one tile plan per
// traversal with the visited set as a complement mask.
const TS_WIDE: Pin<&[BfsIterStats]> = Pin {
    checksum: 0x33a74ac2a07c8325,
    stats: BFS_ITERS,
    bytes: &[
        ("count", 576),
        ("modes", 720),
        ("bfetch", 136848),
        ("cret", 35724),
        ("disc", 480),
    ],
    order: 0xeb7597618db8a1a2,
    collectives: 26,
    modeled_s: 3.9829599999999996e-5,
};
const TS_NARROW: Pin<&[BfsIterStats]> = Pin {
    checksum: 0x33a74ac2a07c8325,
    stats: BFS_ITERS,
    bytes: &[
        ("count", 576),
        ("modes", 720),
        ("bfetch", 136848),
        ("cret", 35724),
        ("disc", 480),
    ],
    order: 0x47d045b37780d7ee,
    collectives: 36,
    modeled_s: 4.140504e-5,
};
