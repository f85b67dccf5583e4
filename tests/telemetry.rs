//! Live-telemetry acceptance tests (ISSUE 5).
//!
//! The global telemetry handle is a process-wide `OnceLock` keyed off
//! `TSGEMM_TELEMETRY_ADDR` at first touch, so this binary pins the
//! environment before anything calls [`telemetry::global`] and serialises
//! every test behind one mutex (the aggregator state is shared, and each
//! `World` run resets it via `begin_run`).
//!
//! What is checked, end to end:
//!
//! 1. **Conservation.** The live rank×rank comm matrix is the aggregator's
//!    fold over each rank's profile segments (sender-side `bytes_to`, keyed
//!    by world rank) — so row `r` must sum to exactly the bytes rank `r`'s
//!    profile says it sent, and column `r` to the bytes rank `r` received,
//!    for every collective kind at once, and over split communicators too.
//! 2. **Byte-exact symbolic match.** Summed over ranks, the matrix's
//!    `local` slice equals the symbolic step's `ts:bfetch` predictions and
//!    the `remote` slice its `ts:cret` predictions — the same invariant
//!    `tests/comm_volume.rs` pins per rank, observed through the telemetry
//!    fold and its tag classification instead of the metrics registries.
//! 3. **Scrapability.** `/metrics` passes the `inspect lint-prom` grammar,
//!    `/snapshot.json` parses and renders through `inspect top`, and
//!    `/stacks.folded` is non-empty and renders through `inspect flame`.
//! 4. **Crash forensics.** A rank killed by a fault plan leaves its last
//!    phase in the final snapshot, and it matches the tail of the rank's
//!    flight ring (telemetry sees the `CollPosted` before the fault fires).

use std::sync::{Mutex, Once};
use tsgemm::core::{ts_spgemm, BlockDist, ColBlocks, DistCsr, ModePolicy, TsConfig};
use tsgemm::net::telemetry::{self, Telemetry, TelemetrySnapshot};
use tsgemm::net::{FaultPlan, RankProfile, TraceConfig, World, TELEMETRY_ADDR_ENV};
use tsgemm::sparse::gen::{erdos_renyi, random_tall};
use tsgemm::sparse::{Coo, PlusTimesF64};
use tsgemm_inspect::{flame, prom, top, Json};

/// Aggregator state is process-global; tests must not interleave runs.
static SERIAL: Mutex<()> = Mutex::new(());

fn tel() -> &'static Telemetry {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        // An externally exported address wins; otherwise bind an ephemeral
        // port. Must happen before the first `global()` anywhere.
        if std::env::var_os(TELEMETRY_ADDR_ENV).is_none() {
            std::env::set_var(TELEMETRY_ADDR_ENV, "127.0.0.1:0");
        }
        std::env::set_var("TSGEMM_TELEMETRY_SAMPLE_MS", "1");
    });
    telemetry::global().expect("telemetry must bind on 127.0.0.1:0")
}

fn profile_sent(p: &RankProfile) -> u64 {
    p.segments
        .iter()
        .filter_map(|s| s.coll.as_ref())
        .map(|c| c.bytes_sent())
        .sum()
}

fn profile_recv(p: &RankProfile) -> u64 {
    p.segments
        .iter()
        .filter_map(|s| s.coll.as_ref())
        .map(|c| c.bytes_received)
        .sum()
}

/// Runs a traced 4-rank TS-SpGEMM and returns (run output, final snapshot).
fn traced_ts_run(
    acoo: &Coo<f64>,
    policy: ModePolicy,
) -> (
    Vec<RankProfile>,
    Vec<tsgemm::net::MetricsRegistry>,
    TelemetrySnapshot,
) {
    let t = tel();
    let n = acoo.nrows();
    let d = 8;
    let p = 4;
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
    let snap = t.snapshot();
    (out.profiles, out.metrics, snap)
}

#[test]
fn matrix_conserves_bytes_against_rank_profiles() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let acoo = erdos_renyi(96, 6.0, 0xE5);
    let (profiles, _metrics, snap) = traced_ts_run(&acoo, ModePolicy::Hybrid);

    assert!(!snap.running, "end_run must seal the run");
    assert_eq!(snap.p, 4);

    let mut any = false;
    for (rank, profile) in profiles.iter().enumerate() {
        let sent = profile_sent(profile);
        let recv = profile_recv(profile);
        let row: u64 = snap.matrix.iter().map(|s| s.row_sum(rank)).sum();
        let col: u64 = snap.matrix.iter().map(|s| s.col_sum(rank)).sum();
        assert_eq!(
            row, sent,
            "rank {rank}: matrix row sum {row} != profile bytes sent {sent}"
        );
        assert_eq!(
            col, recv,
            "rank {rank}: matrix column sum {col} != profile bytes received {recv}"
        );
        // The per-rank live counters agree with the same ground truth.
        assert_eq!(snap.ranks[rank].bytes_sent, sent);
        assert_eq!(snap.ranks[rank].bytes_recv, recv);
        assert_eq!(
            snap.ranks[rank].queue_depth(),
            0,
            "rank {rank} still queued"
        );
        any |= sent > 0;
    }
    assert!(any, "4-rank run moved no bytes — vacuous test");
}

#[test]
fn matrix_conserves_bytes_over_split_communicators() {
    use tsgemm::baselines::summa2d;
    use tsgemm::sparse::spgemm::AccumChoice;
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let t = tel();
    let (n, d, p) = (96, 8, 4);
    let acoo = erdos_renyi(n, 6.0, 0xE5);
    let bcoo = random_tall(n, d, 0.4, 0xC0DE);
    let out = World::run_traced(p, TraceConfig::enabled(), |comm| {
        let _ = summa2d::<PlusTimesF64>(comm, &acoo, &bcoo, AccumChoice::Auto, "s2");
    });
    let snap = t.snapshot();
    assert!(!snap.running, "end_run must seal the run");
    assert_eq!(snap.p, p);
    // SUMMA-2D talks over the row and column groups of a 2×2 grid.
    for profile in &out.profiles {
        let in_subgroups = profile
            .segments
            .iter()
            .filter_map(|s| s.coll.as_ref())
            .filter(|c| c.group.world_ranks.len() == 2 && c.bytes_sent() > 0)
            .count();
        assert!(
            in_subgroups > 0,
            "rank {} sent nothing over a split group",
            profile.world_rank
        );
    }
    let mut any = false;
    for (rank, profile) in out.profiles.iter().enumerate() {
        let sent = profile_sent(profile);
        let recv = profile_recv(profile);
        let row: u64 = snap.matrix.iter().map(|s| s.row_sum(rank)).sum();
        let col: u64 = snap.matrix.iter().map(|s| s.col_sum(rank)).sum();
        assert_eq!(row, sent, "rank {rank}: matrix row sum != bytes sent");
        assert_eq!(
            col, recv,
            "rank {rank}: matrix column sum != bytes received"
        );
        any |= sent > 0;
    }
    assert!(any, "4-rank SUMMA-2D moved no bytes — vacuous test");
}

#[test]
fn matrix_mode_slices_match_symbolic_predictions_byte_exactly() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let acoo = erdos_renyi(96, 6.0, 0xE5);
    for policy in [
        ModePolicy::Hybrid,
        ModePolicy::LocalOnly,
        ModePolicy::RemoteOnly,
    ] {
        let (_profiles, metrics, snap) = traced_ts_run(&acoo, policy);
        let predicted_local: u64 = metrics
            .iter()
            .map(|m| m.counter("ts:bfetch", "predicted_bytes"))
            .sum();
        let predicted_remote: u64 = metrics
            .iter()
            .map(|m| m.counter("ts:cret", "predicted_bytes"))
            .sum();
        assert_eq!(
            snap.matrix_bytes(None, Some("local")),
            predicted_local,
            "{policy:?}: live local slice != symbolic bfetch prediction"
        );
        assert_eq!(
            snap.matrix_bytes(None, Some("remote")),
            predicted_remote,
            "{policy:?}: live remote slice != symbolic cret prediction"
        );
        assert!(
            predicted_local + predicted_remote > 0,
            "{policy:?}: no predicted traffic — vacuous"
        );
    }
}

#[test]
fn endpoint_serves_lintable_metrics_snapshot_and_stacks() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let t = tel();
    // A run that holds a span open long enough for the 1 ms sampler to see
    // it, so /stacks.folded is guaranteed non-empty.
    let out = World::run_traced(4, TraceConfig::enabled(), |comm| {
        let _span = comm.span(|| "test:hold".to_string());
        std::thread::sleep(std::time::Duration::from_millis(25));
        comm.allreduce(comm.rank() as u64, |a, b| a + b, "test:sum")
    });
    assert_eq!(out.results.len(), 4);
    let addr = t.addr().to_string();

    // /metrics parses under the Prometheus grammar lint.
    let metrics_body = top::http_get(&addr, "/metrics").expect("scrape /metrics");
    let rep = prom::lint(&metrics_body);
    assert!(rep.ok(), "lint-prom errors: {:?}", rep.errors);
    assert!(
        rep.warnings.is_empty(),
        "undeclared families: {:?}",
        rep.warnings
    );
    assert!(metrics_body.contains("tsgemm_up 1"));
    assert!(metrics_body.contains("tsgemm_ranks 4"));

    // /snapshot.json parses and renders through `inspect top`.
    let snap_body = top::http_get(&addr, "/snapshot.json").expect("scrape /snapshot.json");
    let doc = tsgemm_inspect::parse(&snap_body).expect("snapshot.json must parse");
    assert_eq!(doc.get("p").and_then(Json::as_f64), Some(4.0));
    let screen = top::render(&doc);
    assert!(screen.contains("ranks: 4"), "{screen}");

    // /stacks.folded is non-empty and renders through `inspect flame`.
    let folded = top::http_get(&addr, "/stacks.folded").expect("scrape /stacks.folded");
    assert!(
        !folded.trim().is_empty(),
        "sampler saw no span stacks during a 25 ms held span"
    );
    let stacks = flame::parse_folded(&folded).expect("folded stacks must parse");
    assert!(stacks
        .iter()
        .any(|(frames, _)| frames.iter().any(|f| f.contains("test:hold"))));
    let svg = flame::svg(&stacks, "telemetry test");
    assert!(svg.starts_with("<svg") && svg.contains("test:hold"));

    // Unknown routes 404 without killing the endpoint.
    assert!(top::http_get(&addr, "/nope").is_err());
    assert!(top::http_get(&addr, "/metrics").is_ok());
}

#[test]
fn crashed_rank_final_phase_matches_flight_ring_tail() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let t = tel();
    let crash_rank = 2;
    let plan = FaultPlan::none().crash_at_op(crash_rank, 3);
    let out = World::try_run_traced(4, &plan, TraceConfig::enabled(), |comm| {
        for i in 0..6 {
            comm.allreduce(1u64, |a, b| a + b, format!("phase{i}"));
        }
        comm.rank()
    });
    assert!(out.results[crash_rank].is_err(), "fault plan did not fire");

    let snap = t.snapshot();
    let tail_tag = out.flights[crash_rank]
        .in_order()
        .last()
        .expect("crashed rank recorded flight events")
        .tag
        .as_str()
        .to_string();
    assert_eq!(
        snap.ranks[crash_rank].phase, tail_tag,
        "telemetry's last phase for the crashed rank must match its flight \
         ring tail (the CollPosted of the fatal collective)"
    );
    assert_eq!(tail_tag, "phase3", "crash_at_op(_, 3) dies posting phase3");
    // The dead rank entered the collective but never completed it.
    assert_eq!(snap.ranks[crash_rank].queue_depth(), 1);
}

#[test]
fn panicking_world_run_seals_telemetry() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let t = tel();
    let run = std::panic::catch_unwind(|| {
        World::run(4, |comm| {
            if comm.rank() == 2 {
                panic!("rank 2 fails on purpose");
            }
            comm.allreduce(1u64, |a, b| a + b, "test:never")
        })
    });
    assert!(run.is_err(), "the rank panic must propagate");

    assert!(
        !t.snapshot().running,
        "a World::run that re-raised a rank panic left its run open"
    );
    let body = top::http_get(&t.addr().to_string(), "/metrics").expect("scrape /metrics");
    assert!(body.contains("tsgemm_run_active 0"), "{body}");
}

#[test]
fn live_counters_equal_flight_ring_counts_under_a_retry() {
    use tsgemm::net::FlightEventKind;
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let t = tel();
    let (n, d, p) = (96, 8, 4);
    let acoo = erdos_renyi(n, 6.0, 0xE5);
    let bcoo = random_tall(n, d, 0.4, 0xC0DE);
    let plan = FaultPlan::none().transient_at_tag(1, "ts:bfetch", 1);
    let out = World::try_run_traced(p, &plan, TraceConfig::enabled(), |comm| {
        let dist = BlockDist::new(n, p);
        let a = DistCsr::from_global_coo::<PlusTimesF64>(&acoo, dist, comm.rank(), n);
        let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
        let b = DistCsr::from_global_coo::<PlusTimesF64>(&bcoo, dist, comm.rank(), d);
        ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, &TsConfig::default()).1
    });
    assert!(
        out.all_ok(),
        "one transient fault must be absorbed by a retry"
    );
    let snap = t.snapshot();

    let mut retries = 0;
    for (rank, flight) in out.flights.iter().enumerate() {
        assert!(
            flight.total_recorded() <= flight.capacity() as u64,
            "rank {rank}: the flight ring wrapped, so its counts are partial"
        );
        let count = |pick: fn(&FlightEventKind) -> bool| -> u64 {
            flight.in_order().filter(|e| pick(&e.kind)).count() as u64
        };
        let live = &snap.ranks[rank];
        let pairs = [
            (
                "posted",
                live.posted,
                count(|k| matches!(k, FlightEventKind::CollPosted { .. })),
            ),
            (
                "done",
                live.done,
                count(|k| matches!(k, FlightEventKind::CollDone { .. })),
            ),
            (
                "retries",
                live.retries,
                count(|k| matches!(k, FlightEventKind::Retry { .. })),
            ),
            (
                "steps_started",
                live.steps_started,
                count(|k| matches!(k, FlightEventKind::StepStart { .. })),
            ),
            (
                "steps_done",
                live.steps_done,
                count(|k| matches!(k, FlightEventKind::StepEnd { .. })),
            ),
            (
                "modes_local",
                live.modes_local,
                count(|k| matches!(k, FlightEventKind::TileMode { remote: false, .. })),
            ),
            (
                "modes_remote",
                live.modes_remote,
                count(|k| matches!(k, FlightEventKind::TileMode { remote: true, .. })),
            ),
        ];
        for (name, live, ring) in pairs {
            assert_eq!(live, ring, "rank {rank}: telemetry {name} != flight ring");
        }
        assert!(live.steps_done > 0, "rank {rank} ran no tile steps");
        retries += live.retries;
    }
    assert_eq!(retries, 1, "the plan injects exactly one transient fault");
}
