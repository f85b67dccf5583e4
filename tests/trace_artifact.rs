//! CI artifact smoke test (`--features trace`): runs a small traced
//! TS-SpGEMM and writes `results/ci-trace/trace.json` + `metrics.jsonl` +
//! `flight.jsonl`, which the CI workflow uploads (and lints with
//! `inspect lint-trace`). Asserts the trace is structurally sound Chrome
//! `trace_event` JSON (one pid per rank, phase-tagged slices).
#![cfg(feature = "trace")]

use tsgemm::core::trace::{write_flight_jsonl, write_trace_files};
use tsgemm::core::{ts_spgemm, BlockDist, ColBlocks, DistCsr, TsConfig};
use tsgemm::net::{TraceConfig, World};
use tsgemm::sparse::gen::{erdos_renyi, random_tall};
use tsgemm::sparse::PlusTimesF64;

#[test]
fn writes_ci_trace_artifact() {
    let n = 96;
    let d = 16;
    let p = 4;
    let acoo = erdos_renyi(n, 6.0, 0xC1);
    let bcoo = random_tall(n, d, 0.5, 0xC2);
    let out = World::run_traced(p, TraceConfig::enabled(), |comm| {
        let dist = BlockDist::new(n, p);
        let a = DistCsr::from_global_coo::<PlusTimesF64>(&acoo, dist, comm.rank(), n);
        let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
        let b = DistCsr::from_global_coo::<PlusTimesF64>(&bcoo, dist, comm.rank(), d);
        ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, &TsConfig::default()).1
    });

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join("ci-trace");
    let (trace_path, metrics_path) = write_trace_files(&dir, &out.profiles, &out.metrics).unwrap();
    let flight_path = write_flight_jsonl(&dir, &out.flights).unwrap();

    let json = std::fs::read_to_string(&trace_path).unwrap();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.trim_end().ends_with("]}"));
    for rank in 0..p {
        assert!(
            json.contains(&format!("\"rank {rank}\"")),
            "missing pid for rank {rank}"
        );
    }
    for phase in [
        "ts:bfetch",
        "ts:cret",
        "ts:symbolic",
        "ts:kernel",
        "ts:buckets",
    ] {
        assert!(json.contains(phase), "missing phase slice {phase}");
    }
    // Balanced braces/brackets — a cheap structural check without a JSON
    // parser dependency (no string in the trace contains brackets).
    let opens = json.matches('{').count() + json.matches('[').count();
    let closes = json.matches('}').count() + json.matches(']').count();
    assert_eq!(opens, closes, "unbalanced trace JSON");

    let jsonl = std::fs::read_to_string(&metrics_path).unwrap();
    assert_eq!(jsonl.lines().count(), p, "one metrics object per rank");
    assert!(jsonl.contains("predicted_bytes"));

    let flight = std::fs::read_to_string(&flight_path).unwrap();
    assert!(flight.contains("\"coll_posted\""));
    assert!(flight.contains("\"coll_done\""));
    assert!(flight.contains("ts:bfetch"));
    for rank in 0..p {
        assert!(
            flight.contains(&format!("{{\"rank\":{rank},")),
            "missing flight events for rank {rank}"
        );
    }
    println!(
        "wrote {}, {} and {}",
        trace_path.display(),
        metrics_path.display(),
        flight_path.display()
    );
}
