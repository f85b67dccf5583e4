//! Memory-accounting invariants, measured with the instrumented allocator.
//!
//! This binary registers [`CountingAlloc`] as its `#[global_allocator]`, so
//! every heap allocation in the process is visible to the accounting layer
//! when it is enabled. Two families of checks:
//!
//! 1. **Tiling bounds the resident slice.** TS-SpGEMM's defining memory
//!    property (paper §4) is that a step only materialises the B rows and
//!    remote C partials of the *current* column band, never a full
//!    replicated operand. Per rank, per step:
//!
//!    `peak_transient_bytes  ≤  2 · max_window_nnz(B, w) · sizeof(Trip)`
//!
//!    where `max_window_nnz(B, w)` is the largest B nnz count over any `w`
//!    consecutive rows (received B rows ≤ the band's nnz; received C
//!    partials are only chosen remotely when `produced < needed`, and the
//!    `needed` sets of distinct serving ranks partition the band). An
//!    implementation that broadcast B or skipped tiling fails this at small
//!    `w`. Checked across tile widths for both SPA and Hash accumulators.
//!
//! 2. **Accounted bytes stay inside the formula envelope.** A barrier-fenced
//!    [`MemScope`] over the multiply (all ranks' allocations; the counters
//!    are process-global) must stay under
//!    `96·nnz(C) + p · 8 · max_window_nnz(B, w) · sizeof(Trip) + slack`:
//!    output assembly at a generous bytes/nnz constant, p ranks' transient
//!    slices with pack/exchange/index copies, and a fixed few MiB for
//!    accumulators, hash maps and runtime noise.
//!
//! Plus the flight-recorder no-allocation guarantee: recording into a
//! pre-sized ring performs zero heap allocations per event, verified by
//! the allocation *counter* (not wall-clock or capacity proxies). And the
//! exchange's: an all-empty `alltoallv` allocates the same per rank at
//! p = 4 as at p = 32.

use std::sync::Mutex;
use tsgemm::core::trace::{alloc, CountingAlloc, MemScope};
use tsgemm::core::{ts_spgemm, BlockDist, ColBlocks, DistCsr, TsConfig};
use tsgemm::net::{CollKind, FlightEventKind, FlightRecorder, World};
use tsgemm::sparse::gen::{erdos_renyi, random_tall};
use tsgemm::sparse::spgemm::{spgemm, AccumChoice};
use tsgemm::sparse::{Csr, PlusTimesF64};

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// The counters (and the enable switch) are process-global, so tests that
/// measure must not interleave. Poisoning is irrelevant for a `()` guard.
static SERIAL: Mutex<()> = Mutex::new(());

/// `size_of::<Trip<f64>>()`: `{row: u32, col: u32, val: f64}` — the unit of
/// `peak_transient_bytes` accounting in the executor.
const TRIP_BYTES: u64 = 16;

/// Largest B nnz over any `w` consecutive rows. Sliding (not band-aligned)
/// windows upper-bound whatever alignment the tiling picks.
fn max_window_nnz(b: &Csr<f64>, w: usize) -> u64 {
    let ip = b.indptr();
    let n = b.nrows();
    let mut best = 0;
    for lo in 0..n {
        best = best.max(ip[(lo + w).min(n)] - ip[lo]);
    }
    best as u64
}

fn resident_slice_case(accum: AccumChoice) {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    alloc::set_enabled(false);
    alloc::reset();

    resident_slice(accum, 1024, 32, 4.0, 0x3E31, &[1024 / 16, 1024 / 4, 1024]);
    // Large enough that the fixed 4 MiB slack no longer hides how many
    // bytes the multiply spends per output nonzero.
    resident_slice(accum, 4096, 64, 8.0, 0x3E33, &[4096 / 16]);
}

/// Both checks on `A = erdos_renyi(n, deg)`, `B = random_tall(n, d, 0.5)`
/// at p = 4, for each tile width in `widths`.
fn resident_slice(accum: AccumChoice, n: usize, d: usize, deg: f64, seed: u64, widths: &[usize]) {
    let p = 4;
    let acoo = erdos_renyi(n, deg, seed);
    let bcoo = random_tall(n, d, 0.5, seed + 1);
    let bcsr = bcoo.to_csr::<PlusTimesF64>();
    // Sequential reference outside the measured window, for the C-size term.
    let c_nnz = spgemm::<PlusTimesF64>(&acoo.to_csr::<PlusTimesF64>(), &bcsr, AccumChoice::Auto)
        .nnz() as u64;
    assert!(c_nnz > 0, "degenerate problem");

    for &w in widths {
        let window = max_window_nnz(&bcsr, w);
        let out = World::run(p, |comm| {
            let dist = BlockDist::new(n, p);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(&acoo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
            let b = DistCsr::from_global_coo::<PlusTimesF64>(&bcoo, dist, comm.rank(), d);
            // Fence the scope with barriers so it covers exactly the
            // multiply (all ranks are past setup before it starts, and
            // still inside it when it ends).
            comm.barrier("mem:setup");
            let scope = (comm.rank() == 0).then(|| {
                alloc::set_enabled(true);
                MemScope::begin()
            });
            comm.barrier("mem:start");
            let cfg = TsConfig {
                tile_width: Some(w),
                accum,
                ..TsConfig::default()
            };
            let (_c, stats) = ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, &cfg);
            comm.barrier("mem:end");
            let measured = scope.map(|s| {
                let u = s.finish();
                alloc::set_enabled(false);
                u
            });
            (stats, measured)
        });

        // (1) The sharp tiling invariant, per rank.
        let sharp = 2 * window * TRIP_BYTES;
        let mut any_transient = false;
        for (rank, (stats, _)) in out.results.iter().enumerate() {
            any_transient |= stats.peak_transient_bytes > 0;
            assert!(
                stats.peak_transient_bytes <= sharp,
                "rank {rank}, w={w}: peak transient {} B exceeds resident-slice \
                 bound 2*{window}*{TRIP_BYTES} = {sharp} B",
                stats.peak_transient_bytes,
            );
        }
        assert!(
            any_transient,
            "w={w}: no step received anything — dead test"
        );

        // (2) The accounted-bytes envelope (process-wide, measured on rank 0).
        let mem = out.results[0].1.expect("rank 0 measured the scope");
        assert!(
            mem.allocs > 0,
            "counting allocator saw no allocations — not registered?"
        );
        let envelope = 96 * c_nnz + (p as u64) * 8 * window * TRIP_BYTES + (4 << 20);
        assert!(
            mem.peak_delta <= envelope,
            "n={n}, w={w}: accounted peak {} B exceeds envelope {} B \
             (c_nnz={c_nnz}, window={window})",
            mem.peak_delta,
            envelope,
        );
    }
}

#[test]
fn spa_peak_bounded_by_resident_slice() {
    resident_slice_case(AccumChoice::Spa);
}

#[test]
fn hash_peak_bounded_by_resident_slice() {
    resident_slice_case(AccumChoice::Hash);
}

/// Heap allocations per rank per call over `calls` all-empty `alltoallv`s
/// at `p` ranks, counted process-wide between two fencing barriers.
fn empty_alltoallv_allocs_per_rank_call(p: usize, calls: usize) -> f64 {
    let out = World::run(p, |comm| {
        // Warm up: slot length vectors and profile logs reach their
        // steady capacity before the window opens.
        for _ in 0..4 {
            comm.alltoallv::<u64>(vec![Vec::new(); p], "mem:warm");
        }
        comm.barrier("mem:setup");
        let scope = (comm.rank() == 0).then(|| {
            alloc::set_enabled(true);
            MemScope::begin()
        });
        comm.barrier("mem:start");
        for _ in 0..calls {
            let recv = comm.alltoallv::<u64>(vec![Vec::new(); p], "mem:empty");
            assert!(recv.iter().all(Vec::is_empty));
        }
        comm.barrier("mem:end");
        scope.map(|s| {
            let u = s.finish();
            alloc::set_enabled(false);
            u.allocs
        })
    });
    let allocs = out.results[0].expect("rank 0 measured the window");
    allocs as f64 / (p * calls) as f64
}

/// An empty send costs nothing but its slot: the heap allocations a rank
/// makes per `alltoallv` do not grow with the group size. (A transport
/// that boxes one message per peer allocates about `p` times per call.)
/// The window also counts each call's `vec![Vec::new(); p]`, which is one
/// allocation at any `p`.
#[test]
fn empty_alltoallv_allocations_do_not_grow_with_p() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    alloc::set_enabled(false);
    alloc::reset();

    let calls = 50;
    let small = empty_alltoallv_allocs_per_rank_call(4, calls);
    let large = empty_alltoallv_allocs_per_rank_call(32, calls);
    assert!(small > 0.0, "counting allocator saw no allocations");
    // The fencing barriers add a few allocations per rank to the window,
    // which is well under half an allocation per call over 50 calls.
    assert!(
        (large - small).abs() < 0.5,
        "allocations per rank per empty alltoallv grow with p: \
         {small:.2} at p=4, {large:.2} at p=32"
    );
}

/// Telemetry's zero-cost-when-off contract: with `TSGEMM_TELEMETRY_ADDR`
/// unset, [`telemetry::global`] constructs nothing — no aggregator, no
/// thread, no socket — and steady-state calls (one per `World::run`) are
/// allocation-free, pinned by the counting allocator. This test must live
/// in this binary (its environment never sets the variable), because the
/// global is a process-wide `OnceLock` decided at first touch. It counts
/// the calling thread's allocations only: building the aggregator or
/// spawning a thread would allocate on this thread, while the test
/// harness starting or retiring other test threads must not count.
#[test]
fn telemetry_disabled_constructs_nothing_and_never_allocates() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    std::env::remove_var(tsgemm::net::TELEMETRY_ADDR_ENV);
    alloc::set_enabled(false);
    alloc::reset();

    alloc::set_enabled(true);
    let before = alloc::thread_alloc_count();
    // Includes the very first call (the OnceLock init path reads the env
    // into a stack buffer and stores `None` inline).
    for _ in 0..10_000 {
        assert!(tsgemm::core::trace::telemetry::global().is_none());
    }
    let delta = alloc::thread_alloc_count() - before;
    alloc::set_enabled(false);

    assert!(
        delta < 8,
        "disabled telemetry allocated ({delta} allocation calls for 10k \
         global() probes) — the off path must construct nothing"
    );
}

/// The ring pre-reserves its backing store, tags are inline fixed-size
/// arrays, and payloads are scalars — so steady-state recording must not
/// touch the heap at all. A per-event allocation would show up as ≥ 10 000
/// counter increments here. Only the recording thread's allocations are
/// counted, so test-harness threads allocating meanwhile cannot fail it.
#[test]
fn flight_recording_allocates_nothing_per_event() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    alloc::set_enabled(false);
    alloc::reset();

    let mut rec = FlightRecorder::with_capacity(0, 256);
    alloc::set_enabled(true);
    let before = alloc::thread_alloc_count();
    for i in 0..10_000u64 {
        rec.record(
            "ts:bfetch",
            FlightEventKind::CollPosted {
                seq: i,
                kind: CollKind::AllToAllV,
            },
        );
        rec.record(
            "ts:bfetch",
            FlightEventKind::CollDone {
                seq: i,
                kind: CollKind::AllToAllV,
                sent: 64,
                recv: 64,
            },
        );
    }
    let delta = alloc::thread_alloc_count() - before;
    alloc::set_enabled(false);

    assert_eq!(rec.total_recorded(), 20_000);
    assert!(
        delta < 16,
        "flight recording allocated ({delta} allocation calls for 20k events)"
    );
    // The ring still holds the newest events, oldest overwritten.
    let tail = rec.tail_strings(4);
    assert!(tail.iter().all(|s| s.contains("ts:bfetch")), "{tail:?}");
}
