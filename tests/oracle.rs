//! Semantic oracle for the distributed TS-SpGEMM: the full pipeline
//! (partition → symbolic → tile loop → merge) must agree with a trivially
//! correct dense reference on random inputs, for every semiring the repo's
//! applications use and both accumulator implementations.
//!
//! The reference iterates stored entries only (implicit zeros annihilate,
//! which the dense `mul` of selection semirings like `(sel2nd, min)` would
//! not honour), merges with `⊕`, and drops `⊕`-zero results exactly like
//! the kernels' sorted drains do.
//!
//! Two more oracles are the plain multiply itself: a complement-masked
//! multiply through a [`TsPlan`] must equal `andnot(A ⊗ B, M)` bit for bit
//! at the same cost, and one plan reused for several multiplies must equal
//! as many fresh `ts_spgemm` calls.
//!
//! The last oracle is the per-entry (∧,∨) multiply: with the SPA picked,
//! the tile owner runs on bit rows, and it must give what the hash
//! accumulator's per-entry path gives, at the same cost, on operands that
//! store explicit `false` entries.

use proptest::prelude::*;
use tsgemm::core::{ts_spgemm, BlockDist, ColBlocks, DistCsr, TsConfig, TsLocalStats, TsPlan};
use tsgemm::net::{CollKind, CostModel, RankProfile, World};
use tsgemm::sparse::ewise::andnot;
use tsgemm::sparse::gen::{erdos_renyi, random_tall};
use tsgemm::sparse::spgemm::AccumChoice;
use tsgemm::sparse::{BitRows, Csc};
use tsgemm::sparse::{BoolAndOr, Coo, Csr, Idx, PlusTimesF64, Sel2ndMinF64, Semiring};

/// Dense reference product over stored entries: `C[i][j] = ⊕_k A[i][k] ⊗
/// B[k][j]`, present only where at least one stored pair contributes.
fn dense_ref<S: Semiring>(a: &Csr<S::T>, b: &Csr<S::T>, d: usize) -> Vec<Option<S::T>> {
    let n = a.nrows();
    let mut c: Vec<Option<S::T>> = vec![None; n * d];
    for i in 0..n {
        let (acols, avals) = a.row(i);
        for (&k, &va) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(k as usize);
            for (&j, &vb) in bcols.iter().zip(bvals) {
                let cell = &mut c[i * d + j as usize];
                let prod = S::mul(va, vb);
                *cell = Some(match *cell {
                    Some(old) => S::add(old, prod),
                    None => prod,
                });
            }
        }
    }
    for cell in c.iter_mut() {
        if matches!(cell, Some(v) if S::is_zero(v)) {
            *cell = None;
        }
    }
    c
}

/// Runs the distributed multiply on `p` ranks and gathers the global `C`.
fn run_distributed<S: Semiring>(
    acoo: &Coo<S::T>,
    bcoo: &Coo<S::T>,
    p: usize,
    accum: AccumChoice,
) -> Csr<S::T> {
    let n = acoo.nrows();
    let d = bcoo.ncols();
    let cfg = TsConfig {
        accum,
        ..TsConfig::default()
    };
    let out = World::run(p, |comm| {
        let dist = BlockDist::new(n, p);
        let a = DistCsr::from_global_coo::<S>(acoo, dist, comm.rank(), n);
        let ac = ColBlocks::build::<S>(comm, &a);
        let b = DistCsr::from_global_coo::<S>(bcoo, dist, comm.rank(), d);
        let (c, _) = ts_spgemm::<S>(comm, &a, &ac, &b, &cfg);
        DistCsr {
            dist,
            rank: comm.rank(),
            local: c,
        }
        .gather_global::<S>(comm)
    });
    out.results.into_iter().next().unwrap()
}

/// Asserts the distributed product matches the dense reference cell-wise.
fn oracle_check<S: Semiring>(
    acoo: &Coo<S::T>,
    bcoo: &Coo<S::T>,
    p: usize,
    accum: AccumChoice,
    eq: impl Fn(S::T, S::T) -> bool,
    label: &str,
) {
    let d = bcoo.ncols();
    let expected = dense_ref::<S>(&acoo.to_csr::<S>(), &bcoo.to_csr::<S>(), d);
    let c = run_distributed::<S>(acoo, bcoo, p, accum);
    assert_eq!(c.nrows(), acoo.nrows());
    for i in 0..c.nrows() {
        let (cols, vals) = c.row(i);
        let mut got: Vec<Option<S::T>> = vec![None; d];
        for (&j, &v) in cols.iter().zip(vals) {
            if !S::is_zero(&v) {
                got[j as usize] = Some(v);
            }
        }
        for j in 0..d {
            match (got[j], expected[i * d + j]) {
                (None, None) => {}
                (Some(x), Some(y)) => assert!(
                    eq(x, y),
                    "{label} {accum:?} p={p}: value mismatch at ({i},{j}): {x:?} vs {y:?}"
                ),
                (g, e) => panic!(
                    "{label} {accum:?} p={p}: presence mismatch at ({i},{j}): \
                     got {g:?}, expected {e:?}"
                ),
            }
        }
    }
}

/// Relative closeness for `(+,×)`, whose merge order differs between the
/// tiled distributed fold and the reference loop.
fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ts_spgemm_matches_dense_reference(
        n in 8usize..=96,
        d in 1usize..12,
        p in 1usize..8,
        deg in 1.0f64..8.0,
        sparsity in 0.0f64..0.95,
        seed in 0u64..10_000,
    ) {
        let acoo = erdos_renyi(n, deg, seed);
        let bcoo = random_tall(n, d, sparsity, seed ^ 0x9E37);
        for accum in [AccumChoice::Spa, AccumChoice::Hash] {
            oracle_check::<PlusTimesF64>(&acoo, &bcoo, p, accum, close, "(+,x)");
            // min is order-independent and sel2nd copies its operand, so
            // the selection semirings must match the reference exactly.
            oracle_check::<Sel2ndMinF64>(&acoo, &bcoo, p, accum, |x, y| x == y, "(sel2nd,min)");
            let ab = acoo.map_values(|_| true);
            let bb = bcoo.map_values(|_| true);
            oracle_check::<BoolAndOr>(&ab, &bb, p, accum, |x, y| x == y, "(and,or)");
        }
    }
}

/// What a rank's collective moved, without its host timings.
type CollFacts = (CollKind, String, Vec<(usize, u64)>, u64, u32, u64);

/// Every rank's collectives in order, as [`CollFacts`].
fn coll_facts(profiles: &[RankProfile]) -> Vec<Vec<CollFacts>> {
    profiles
        .iter()
        .map(|pr| {
            pr.segments
                .iter()
                .filter_map(|s| s.coll.as_ref())
                .map(|c| {
                    (
                        c.kind,
                        c.tag.clone(),
                        c.bytes_to.clone(),
                        c.bytes_received,
                        c.recv_msgs,
                        c.uniform_bytes,
                    )
                })
                .collect()
        })
        .collect()
}

/// A CSR block's structure and value bits.
fn csr_bits<T: Copy>(c: &Csr<T>, bits: impl Fn(T) -> u64) -> (Vec<usize>, Vec<Idx>, Vec<u64>) {
    let vals = c.values().iter().map(|&v| bits(v)).collect();
    (c.indptr().to_vec(), c.indices().to_vec(), vals)
}

/// Each rank's `C` block and stats, every rank's collectives and the
/// modeled seconds of one run.
type MaskedRun<T> = (Vec<(Csr<T>, TsLocalStats)>, Vec<Vec<CollFacts>>, f64);

/// One multiply on `p` ranks with `threads` pool workers: `ts_spgemm`, or
/// a plan's multiply less `mask` when one is given.
fn masked_run<S: Semiring>(
    acoo: &Coo<S::T>,
    bcoo: &Coo<S::T>,
    mask: Option<&Coo<S::T>>,
    p: usize,
    threads: usize,
    cfg: &TsConfig,
) -> MaskedRun<S::T> {
    let (n, d) = (acoo.nrows(), bcoo.ncols());
    let out = World::run_with_threads(p, threads, |comm| {
        let dist = BlockDist::new(n, p);
        let a = DistCsr::from_global_coo::<S>(acoo, dist, comm.rank(), n);
        let ac = ColBlocks::build::<S>(comm, &a);
        let b = DistCsr::from_global_coo::<S>(bcoo, dist, comm.rank(), d);
        match mask {
            None => ts_spgemm::<S>(comm, &a, &ac, &b, cfg),
            Some(m) => {
                let m = DistCsr::from_global_coo::<S>(m, dist, comm.rank(), d).local;
                let m = tsgemm::sparse::BitRows::from_pattern(&m);
                TsPlan::new(comm, &a, &ac, cfg).multiply::<S>(comm, &b, Some(&m), &cfg.tag)
            }
        }
    });
    let modeled = CostModel::default().model_run(&out.profiles).total();
    (out.results, coll_facts(&out.profiles), modeled)
}

/// Asserts the masked multiply equals `andnot` of the unmasked one on every
/// rank, bit for bit, with the same stats, collectives and modeled time.
fn check_masked<S: Semiring>(
    acoo: &Coo<S::T>,
    bcoo: &Coo<S::T>,
    masks: &[Coo<S::T>],
    bits: impl Fn(S::T) -> u64 + Copy,
    label: &str,
) {
    let n = acoo.nrows();
    for p in [1, 2, 4, 7] {
        for narrow in [false, true] {
            for accum in [AccumChoice::Spa, AccumChoice::Hash] {
                let mut cfg = TsConfig {
                    accum,
                    ..TsConfig::default()
                };
                if narrow {
                    cfg = cfg.with_width_factor(1, BlockDist::new(n, p));
                }
                for threads in [1, 4] {
                    let at = format!("{label} p={p} narrow={narrow} {accum:?} threads={threads}");
                    let (plain, colls, modeled) =
                        masked_run::<S>(acoo, bcoo, None, p, threads, &cfg);
                    for (k, mcoo) in masks.iter().enumerate() {
                        let got = masked_run::<S>(acoo, bcoo, Some(mcoo), p, threads, &cfg);
                        let dist = BlockDist::new(n, p);
                        for (r, ((c, stats), (mc, mstats))) in plain.iter().zip(&got.0).enumerate()
                        {
                            let m = DistCsr::from_global_coo::<S>(mcoo, dist, r, mcoo.ncols());
                            assert_eq!(
                                csr_bits(mc, bits),
                                csr_bits(&andnot(c, &m.local), bits),
                                "{at} mask {k} rank {r}: output"
                            );
                            assert_eq!(mstats, stats, "{at} mask {k} rank {r}: stats");
                        }
                        assert_eq!(got.1, colls, "{at} mask {k}: collectives");
                        assert_eq!(got.2, modeled, "{at} mask {k}: modeled seconds");
                    }
                }
            }
        }
    }
}

/// The masks every configuration runs: none stored, and a random one
/// that also covers every fifth row whole.
fn masks(n: usize, d: usize, seed: u64) -> Vec<Coo<f64>> {
    let mut dense_rows = random_tall(n, d, 0.7, seed);
    for r in (0..n as Idx).step_by(5) {
        for c in 0..d as Idx {
            dense_rows.push(r, c, 1.0);
        }
    }
    let dense_rows = dense_rows.to_csr::<PlusTimesF64>().to_coo();
    vec![Coo::new(n, d), dense_rows]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn masked_multiply_is_andnot_of_the_product(
        n in 24usize..=64,
        d in 2usize..10,
        seed in 0u64..10_000,
    ) {
        let configured = tsgemm::pool::configured_threads();
        let acoo = erdos_renyi(n, 4.0, seed);
        let bcoo = random_tall(n, d, 0.5, seed ^ 0x9E37);
        let ms = masks(n, d, seed ^ 0x51);
        check_masked::<PlusTimesF64>(&acoo, &bcoo, &ms, f64::to_bits, "(+,x)");
        check_masked::<Sel2ndMinF64>(&acoo, &bcoo, &ms, f64::to_bits, "(sel2nd,min)");
        let bool_masks: Vec<_> = ms.iter().map(|m| m.map_values(|_| true)).collect();
        let (ab, bb) = (acoo.map_values(|_| true), bcoo.map_values(|_| true));
        check_masked::<BoolAndOr>(&ab, &bb, &bool_masks, |v| v as u64, "(and,or)");
        tsgemm::pool::set_threads(configured);
    }
}

#[test]
fn one_plan_serves_many_multiplies() {
    let (n, p) = (60, 4);
    let acoo = erdos_renyi(n, 5.0, 0x71);
    let bs: Vec<Coo<f64>> = (0..3)
        .map(|k| random_tall(n, 4 + 3 * k, 0.3 * k as f64, 0x72 + k as u64))
        .collect();
    let cfgs: Vec<TsConfig> = (0..3)
        .map(|k| TsConfig {
            tag: format!("mul{k}"),
            tile_width: Some(10),
            ..TsConfig::default()
        })
        .collect();
    let run = |reuse: bool| {
        World::run(p, |comm| {
            let dist = BlockDist::new(n, p);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(&acoo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
            let plan = reuse.then(|| TsPlan::new(comm, &a, &ac, &cfgs[0]));
            bs.iter()
                .zip(&cfgs)
                .map(|(bcoo, cfg)| {
                    let d = bcoo.ncols();
                    let b = DistCsr::from_global_coo::<PlusTimesF64>(bcoo, dist, comm.rank(), d);
                    let (c, stats) = match &plan {
                        Some(plan) => plan.multiply::<PlusTimesF64>(comm, &b, None, &cfg.tag),
                        None => ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, cfg),
                    };
                    (csr_bits(&c, f64::to_bits), stats)
                })
                .collect::<Vec<_>>()
        })
    };
    let (fresh, reused) = (run(false), run(true));
    assert_eq!(reused.results, fresh.results, "outputs and stats");
    let (fc, rc) = (coll_facts(&fresh.profiles), coll_facts(&reused.profiles));
    for cfg in &cfgs {
        let prefix = format!("{}:", cfg.tag);
        let tagged = |rank: &Vec<CollFacts>| rank.iter().any(|c| c.1.starts_with(&prefix));
        assert!(fc.iter().all(tagged), "{}: no records", cfg.tag);
    }
    // Equal in order on every rank, so equal per tag.
    assert_eq!(rc, fc, "collective records");
}

/// A boolean matrix with the pattern of `m` whose stored values are
/// `false` about one time in three, built with `Csr::from_parts` so that
/// the `false` entries stay stored (a kernel's drain never makes one).
fn with_false_entries(m: &Coo<f64>, seed: u64) -> Csr<bool> {
    let m = m.to_csr::<PlusTimesF64>();
    let vals = (0..m.nnz() as u64)
        .map(|k| !(k.wrapping_mul(0x9E37_79B9) ^ seed).is_multiple_of(3))
        .collect();
    let (indptr, indices) = (m.indptr().to_vec(), m.indices().to_vec());
    Csr::from_parts(m.nrows(), m.ncols(), indptr, indices, vals)
}

/// One (∧,∨) multiply of the global `a` and `b` through a [`TsPlan`] on
/// `p` ranks with `threads` pool workers, less `mask` when one is given.
/// Every block is cut straight from the global matrices, so it keeps their
/// `false` entries (`ColBlocks::build` would drop them from `A^c`).
fn bool_plan_run(
    a: &Csr<bool>,
    b: &Csr<bool>,
    mask: Option<&Csr<bool>>,
    p: usize,
    threads: usize,
    cfg: &TsConfig,
) -> MaskedRun<bool> {
    let n = a.nrows();
    let out = World::run_with_threads(p, threads, |comm| {
        let (dist, rank) = (BlockDist::new(n, p), comm.rank());
        let (lo, hi) = dist.range(rank);
        let rows = |m: &Csr<bool>| m.slice_rows(lo as usize, hi as usize);
        let a_rows = DistCsr {
            dist,
            rank,
            local: rows(a),
        };
        let local = Csc::from_csr(&a.slice_cols(lo, hi));
        let ac = ColBlocks { dist, rank, local };
        let b_rows = DistCsr {
            dist,
            rank,
            local: rows(b),
        };
        let m = mask.map(|m| BitRows::from_pattern(&rows(m)));
        TsPlan::new(comm, &a_rows, &ac, cfg).multiply::<BoolAndOr>(
            comm,
            &b_rows,
            m.as_ref(),
            &cfg.tag,
        )
    });
    let modeled = CostModel::default().model_run(&out.profiles).total();
    (out.results, coll_facts(&out.profiles), modeled)
}

#[test]
fn bool_bit_rows_match_the_per_entry_path() {
    let configured = tsgemm::pool::configured_threads();
    let n = 40;
    let a = with_false_entries(&erdos_renyi(n, 4.0, 0xB17), 0x5EED);
    let mut nonempty = 0;
    for d in [1, 63, 64, 65, 130, 1024] {
        let b = with_false_entries(&random_tall(n, d, 0.6, 0xB18 + d as u64), 0xF00D);
        let mask = masks(n, d, 0xB19)[1]
            .map_values(|_| true)
            .to_csr::<BoolAndOr>();
        for p in [1, 2, 4, 7] {
            for narrow in [false, true] {
                for threads in [1, 4] {
                    for mask in [None, Some(&mask)] {
                        let run = |accum| {
                            let mut cfg = TsConfig {
                                accum,
                                ..TsConfig::default()
                            };
                            if narrow {
                                cfg = cfg.with_width_factor(1, BlockDist::new(n, p));
                            }
                            bool_plan_run(&a, &b, mask, p, threads, &cfg)
                        };
                        let (bits, entries) = (run(AccumChoice::Spa), run(AccumChoice::Hash));
                        let at = format!(
                            "d={d} p={p} narrow={narrow} threads={threads} mask={}",
                            mask.is_some()
                        );
                        for (r, ((bc, bs), (ec, es))) in bits.0.iter().zip(&entries.0).enumerate() {
                            let as_bits = |c| csr_bits(c, |v: bool| v as u64);
                            assert_eq!(as_bits(bc), as_bits(ec), "{at} rank {r}: output");
                            assert_eq!(bs, es, "{at} rank {r}: stats");
                            nonempty += bc.nnz();
                        }
                        assert_eq!(bits.1, entries.1, "{at}: collectives");
                        assert_eq!(bits.2, entries.2, "{at}: modeled seconds");
                    }
                }
            }
        }
    }
    assert!(nonempty > 0, "every product was empty");
    tsgemm::pool::set_threads(configured);
}
