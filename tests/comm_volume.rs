//! Communication-volume invariant (the tentpole's headline check): the bytes
//! the metrics registry records for the multiply-phase collectives
//! (`ts:bfetch`, `ts:cret`) must EXACTLY equal the symbolic step's
//! predictions — not approximately, byte for byte, per rank.
//!
//! Why this holds: the symbolic step (mode.rs) counts, per served sub-tile,
//! either the nnz of the distinct `B` rows it will pack (local mode) or the
//! nnz of the partial `C` a symbolic SpGEMM says the numeric kernel will
//! produce (remote mode), times `size_of::<Trip<T>>()`. The exec phase then
//! packs exactly those triplets, and the simulated-MPI byte accounting is
//! `len · size_of::<T>()`. The generators used here produce strictly
//! positive values, so no ⊕-cancellation can shrink the numeric result
//! below the symbolic count.
//!
//! Every workload runs at `d` = 8 (6 under short tiles), 65 and 1025: up
//! to 1024 columns the symbolic step counts output patterns on bit rows (65
//! ends in a partial word), above it a symbolic SpGEMM does.

use tsgemm::core::{ts_spgemm, BlockDist, ColBlocks, DistCsr, ModePolicy, TsConfig};
use tsgemm::net::{MetricsRegistry, TraceConfig, World};
use tsgemm::sparse::gen::{erdos_renyi, random_tall, rmat, web_like, RMAT_WEB};
use tsgemm::sparse::{Coo, PlusTimesF64};

/// The output widths every workload runs at.
const WIDTHS: [usize; 3] = [8, 65, 1025];

/// Runs TS-SpGEMM with tracing on and asserts, for every rank, that the
/// measured collective bytes equal the registry's symbolic predictions.
fn assert_volume_matches(acoo: &Coo<f64>, d: usize, p: usize, policy: ModePolicy, label: &str) {
    let n = acoo.nrows();
    let bcoo = random_tall(n, d, 0.4, 0xC0DE);
    let cfg = TsConfig {
        policy,
        ..TsConfig::default()
    };
    let out = World::run_traced(p, TraceConfig::enabled(), |comm| {
        let dist = BlockDist::new(n, p);
        let a = DistCsr::from_global_coo::<PlusTimesF64>(acoo, dist, comm.rank(), n);
        let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
        let b = DistCsr::from_global_coo::<PlusTimesF64>(&bcoo, dist, comm.rank(), d);
        ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, &cfg).1
    });
    let mut any_traffic = false;
    for (rank, (profile, registry)) in out.profiles.iter().zip(&out.metrics).enumerate() {
        let measured = MetricsRegistry::from_profile(profile);
        for coll in ["ts:bfetch", "ts:cret"] {
            let sent = measured.counter(coll, "bytes_sent");
            let predicted = registry.counter(coll, "predicted_bytes");
            assert_eq!(
                sent, predicted,
                "{label} d={d} p={p} {policy:?} rank {rank} {coll}: \
                 measured {sent} != predicted {predicted}"
            );
            // The registry lowering agrees with the raw profile accounting.
            assert_eq!(sent, profile.bytes_sent_tagged(coll));
            any_traffic |= sent > 0;
        }
    }
    // Sanity: on multi-rank runs the invariant must not hold vacuously.
    if p > 1 {
        assert!(
            any_traffic,
            "{label} d={d} p={p} {policy:?} moved no bytes at all"
        );
    }
}

#[test]
fn predictions_exact_erdos_renyi() {
    let acoo = erdos_renyi(96, 6.0, 0xE5);
    for d in WIDTHS {
        for p in [1, 2, 4, 7] {
            for policy in [
                ModePolicy::Hybrid,
                ModePolicy::LocalOnly,
                ModePolicy::RemoteOnly,
            ] {
                assert_volume_matches(&acoo, d, p, policy, "er");
            }
        }
    }
}

#[test]
fn predictions_exact_rmat() {
    let acoo = rmat(7, 8.0, RMAT_WEB, 0xA7);
    for d in WIDTHS {
        for p in [1, 2, 4, 7] {
            for policy in [
                ModePolicy::Hybrid,
                ModePolicy::LocalOnly,
                ModePolicy::RemoteOnly,
            ] {
                assert_volume_matches(&acoo, d, p, policy, "rmat");
            }
        }
    }
}

#[test]
fn predictions_exact_web_like() {
    let acoo = web_like(7, 6.0, 0x3EB);
    for d in WIDTHS {
        for p in [1, 2, 4, 7] {
            for policy in [
                ModePolicy::Hybrid,
                ModePolicy::LocalOnly,
                ModePolicy::RemoteOnly,
            ] {
                assert_volume_matches(&acoo, d, p, policy, "web");
            }
        }
    }
}

#[test]
fn predictions_exact_under_short_tiles() {
    // The minibatch regime (short tiles, many steps) exercises per-step
    // packing; predictions accumulate across every step and must still
    // match exactly.
    let acoo = erdos_renyi(80, 5.0, 0x51);
    let cfg = TsConfig {
        tile_height: Some(4),
        tile_width: Some(20),
        ..TsConfig::default()
    };
    for d in [6, 65, 1025] {
        let bcoo = random_tall(80, d, 0.5, 0x52);
        let out = World::run_traced(4, TraceConfig::enabled(), |comm| {
            let dist = BlockDist::new(80, 4);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(&acoo, dist, comm.rank(), 80);
            let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
            let b = DistCsr::from_global_coo::<PlusTimesF64>(&bcoo, dist, comm.rank(), d);
            ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, &cfg).1
        });
        for (profile, registry) in out.profiles.iter().zip(&out.metrics) {
            for coll in ["ts:bfetch", "ts:cret"] {
                assert_eq!(
                    profile.bytes_sent_tagged(coll),
                    registry.counter(coll, "predicted_bytes"),
                    "d={d} {coll}"
                );
            }
        }
    }
}

#[test]
fn tracing_disabled_records_no_predictions() {
    // The whole subsystem must be zero-cost when off: nothing reaches the
    // registry without a TraceConfig.
    let acoo = erdos_renyi(64, 5.0, 0x0FF);
    let bcoo = random_tall(64, 8, 0.4, 0x100);
    let out = World::run(4, |comm| {
        let dist = BlockDist::new(64, 4);
        let a = DistCsr::from_global_coo::<PlusTimesF64>(&acoo, dist, comm.rank(), 64);
        let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
        let b = DistCsr::from_global_coo::<PlusTimesF64>(&bcoo, dist, comm.rank(), 8);
        ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, &TsConfig::default()).1
    });
    for registry in &out.metrics {
        assert!(registry.is_empty(), "disabled trace must record nothing");
    }
}
