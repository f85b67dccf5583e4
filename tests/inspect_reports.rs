//! End-to-end `tsgemm-inspect` acceptance: a fault-free traced run written
//! to disk must round-trip through every report —
//!
//! * the imbalance report lists a per-rank critical path for all p ranks;
//! * the cost-model drift report shows 0% drift (the symbolic phase's
//!   `predicted_bytes` are byte-exact against measured traffic);
//! * lint finds no errors;
//! * the HTML report is self-contained.

use tsgemm::core::{ts_spgemm, BlockDist, ColBlocks, DistCsr, TsConfig};
use tsgemm::net::{write_flight_jsonl, write_trace_files, TraceConfig, World};
use tsgemm::sparse::gen::{erdos_renyi, random_tall};
use tsgemm::sparse::PlusTimesF64;
use tsgemm_inspect::{drift, imbalance, lint, load_metrics_jsonl, load_trace};

#[test]
fn fault_free_run_round_trips_through_all_reports() {
    let n = 96;
    let d = 16;
    let p = 4;
    let acoo = erdos_renyi(n, 6.0, 0x1B1);
    let bcoo = random_tall(n, d, 0.5, 0x1B2);
    let out = World::run_traced(p, TraceConfig::enabled(), |comm| {
        let dist = BlockDist::new(n, p);
        let a = DistCsr::from_global_coo::<PlusTimesF64>(&acoo, dist, comm.rank(), n);
        let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
        let b = DistCsr::from_global_coo::<PlusTimesF64>(&bcoo, dist, comm.rank(), d);
        ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, &TsConfig::default()).1
    });

    let dir = std::env::temp_dir().join(format!("tsgemm-inspect-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (trace_path, metrics_path) = write_trace_files(&dir, &out.profiles, &out.metrics).unwrap();
    write_flight_jsonl(&dir, &out.flights).unwrap();

    let ranks = load_metrics_jsonl(&metrics_path).unwrap();
    let events = load_trace(&trace_path).unwrap();
    assert_eq!(ranks.len(), p);
    assert!(!events.is_empty());

    // Imbalance: a critical path per rank, and a named straggler.
    let imb = imbalance::analyze(&events);
    assert_eq!(imb.ranks.len(), p, "one critical path per rank");
    for path in &imb.ranks {
        assert!(
            path.total_s() > 0.0,
            "rank {} has an empty critical path",
            path.rank
        );
    }
    let crit = imb.critical_rank().expect("straggler identified");
    let rendered = imbalance::render(&imb);
    assert!(
        rendered.contains(&format!("critical rank: {}", crit.rank)),
        "{rendered}"
    );

    // Drift: predicted_bytes vs measured is byte-exact on a fault-free run.
    let dr = drift::analyze(&ranks, 0.0);
    assert!(!dr.rows.is_empty(), "bfetch/cret phases must be scored");
    assert!(
        dr.ok(),
        "fault-free run must show 0%% drift:\n{}",
        drift::render(&dr)
    );

    // Lint: every metrics phase is anchored in the timeline.
    let lr = lint::lint(&ranks, &events);
    assert!(lr.ok(), "{}", lint::render(&lr));

    // HTML: self-contained (no external fetches), carries the rank table.
    let html = tsgemm_inspect::html::report("e2e", &ranks, &imb, &dr);
    assert!(html.contains("<!doctype html>"));
    assert!(!html.contains("http://") && !html.contains("https://"));
    let _ = std::fs::remove_dir_all(&dir);
}
