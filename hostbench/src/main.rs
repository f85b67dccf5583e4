//! End-to-end host-cost benchmark of the tsgemm library.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <ts-exchange|ts-kernel|msbfs> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A closed loop: one client thread issues one op at a time (one full
//! multiply or BFS on freshly spawned rank threads) and verifies every
//! output. `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer split. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `README.md` for the workloads and the layer → metric table.

mod clock;
mod layers;
mod work;

use layers::{median, Metric, END_TO_END, LAYERS};
use std::time::Instant;
use work::{run_op, set_up, Tally, Val, Workload, POOL_THREADS};

/// Fewest measured ops per run, however short `--seconds` is.
const MIN_OPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (expected one of {names:?})")
                })?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e: std::num::ParseIntError| bad(e.to_string()))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad("must be between 0 and 3600".to_string()));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The untraced run: set-up and a warm-up op, then set-up and op in turn
/// until `seconds` pass. Only one set-up is resident at a time.
fn end_to_end<T: Val>(args: &Args, tally: &mut Tally) -> Vec<(&'static str, f64)> {
    let (w, seed) = (args.workload, args.seed);
    let (first, inp, prob) = set_up::<T>(w, seed);
    let reference = T::reference(&inp);
    drop(inp);
    tally.record(run_op(&prob, false).facts(&reference));
    drop(prob);

    let (mut setup, mut wall, mut cpu) = (vec![first.secs], Vec::new(), Vec::new());
    let t0 = Instant::now();
    while wall.len() < MIN_OPS || t0.elapsed().as_secs_f64() < args.seconds {
        let (t, _, prob) = set_up::<T>(w, seed);
        setup.push(t.secs);
        let op = run_op(&prob, false);
        tally.record(op.facts(&reference));
        wall.push(op.wall);
        cpu.push(op.cpu);
    }
    eprintln!("wall_s samples: {wall:?}\ncpu_s samples: {cpu:?}\nsetup_s samples: {setup:?}");
    vec![
        ("wall_s", median(&wall)),
        ("cpu_s", median(&cpu)),
        ("setup_s", median(&setup)),
        ("peak_rss_mb", clock::peak_rss_mb()),
    ]
}

fn run<T: Val>(args: &Args, tally: &mut Tally) -> Vec<(&'static str, f64)> {
    if args.trace {
        layers::measure::<T>(args.workload, args.seed, args.seconds, MIN_OPS, tally)
    } else {
        end_to_end::<T>(args, tally)
    }
}

/// A metric's entry in the tables.
fn spec(name: &str) -> &'static Metric {
    END_TO_END
        .iter()
        .chain(LAYERS)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the metric tables"))
}

/// The result line. A value that is not a finite number is printed as 0
/// and makes the run incorrect.
fn result_json(tally: &Tally, metrics: &[(&str, f64)]) -> String {
    let finite = metrics.iter().all(|(_, v)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, v)| {
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                spec(name).unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        finite && tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// The checkout's git revision, when it is a git checkout.
fn git_revision() -> String {
    std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        })
        .flatten()
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let mut tally = Tally::default();
    let metrics = match w {
        Workload::Msbfs => run::<bool>(&args, &mut tally),
        Workload::TsExchange | Workload::TsKernel => run::<f64>(&args, &mut tally),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let f = tally.expected.unwrap_or_default();
    println!(
        "# workload={} seed={} trace={} p={} nproc={nproc} pool_threads={POOL_THREADS} rev={} ops={} \
         nnz={} checksum={:#018x} net.bytes={} net.collectives={} modeled_s={} bfs_iters={}",
        w.name(),
        args.seed,
        args.trace as u8,
        w.ranks(),
        git_revision(),
        tally.attempted,
        f.nnz,
        f.checksum,
        f.bytes,
        f.collectives,
        f.modeled_s,
        f.bfs_iters,
    );
    for &(name, v) in &metrics {
        let m = spec(name);
        let moves: Vec<String> = m.moves.iter().map(|(e, w)| format!("{e}@{w}")).collect();
        let line = format!(
            "# {name:<28} {v:>16.6} {:<8} {:<6} {}",
            m.unit,
            m.better,
            moves.join(" ")
        );
        println!("{}", line.trim_end());
    }
    println!("{}", result_json(&tally, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgemm_inspect::json::{parse, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn names(j: &Json, key: &str) -> Vec<String> {
        j.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn metric_names_are_plain() {
        let all = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(LAYERS.iter().map(|m| m.name));
        for name in all {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "metric name {name:?} must match [A-Za-z0-9_.-]+"
            );
        }
    }

    #[test]
    fn result_line_parses_with_the_inspector() {
        let mut tally = Tally {
            attempted: 3,
            ..Tally::default()
        };
        let metrics: Vec<(&str, f64)> = LAYERS.iter().map(|m| (m.name, 0.125)).collect();
        let j = parse(&result_json(&tally, &metrics)).expect("result line is JSON");
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("attempted").and_then(Json::as_f64), Some(3.0));
        let m = j.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(m.len(), LAYERS.len());
        for (layer, (name, v)) in LAYERS.iter().zip(m) {
            assert_eq!(name, layer.name);
            assert_eq!(v.get("value").and_then(Json::as_f64), Some(0.125));
            assert_eq!(v.get("unit").and_then(Json::as_str), Some(layer.unit));
        }

        // A failed op, or a value JSON cannot hold, makes the run incorrect.
        tally.failed = 1;
        let j = parse(&result_json(&tally, &metrics)).unwrap();
        assert_eq!(j.get("correct").and_then(Json::as_bool), Some(false));
        tally.failed = 0;
        let j = parse(&result_json(&tally, &[("wall_s", f64::NAN)])).unwrap();
        assert_eq!(j.get("correct").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let j = benchmark_json();
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names(&j, "workloads"), workloads);
        for (key, table) in [
            (
                "end_to_end",
                END_TO_END
                    .iter()
                    .map(|m| (m.name, m.unit, m.better))
                    .collect::<Vec<_>>(),
            ),
            (
                "per_layer",
                LAYERS.iter().map(|m| (m.name, m.unit, m.better)).collect(),
            ),
        ] {
            let listed = j.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(listed.len(), table.len(), "{key} differs from the table");
            for (m, (name, unit, better)) in listed.iter().zip(table) {
                assert_eq!(m.get("name").and_then(Json::as_str), Some(name));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit), "{name}");
                assert_eq!(
                    m.get("better").and_then(Json::as_str),
                    Some(better),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn every_layer_metric_names_an_end_to_end_metric_and_workload() {
        let j = benchmark_json();
        let e2e = names(&j, "end_to_end");
        let workloads = names(&j, "workloads");
        for layer in LAYERS {
            assert!(!layer.moves.is_empty(), "{} moves nothing", layer.name);
            for &(metric, workload) in layer.moves {
                assert!(
                    e2e.iter().any(|m| m == metric),
                    "{}: no metric {metric}",
                    layer.name
                );
                assert!(
                    workloads.iter().any(|w| w == workload),
                    "{}: no workload {workload}",
                    layer.name
                );
            }
        }
    }

    #[test]
    fn readme_documents_every_metric_and_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
        let doc = std::fs::read_to_string(path).expect("README.md");
        let all = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(LAYERS.iter().map(|m| m.name));
        for name in all.chain(Workload::ALL.iter().map(|w| w.name())) {
            assert!(
                doc.contains(&format!("`{name}`")),
                "README.md does not mention `{name}`"
            );
        }
    }

    #[test]
    fn arguments_parse() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload ts-kernel --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::TsKernel, 7, 2.5, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 3").is_err());
        assert!(args("--workload msbfs --trace 2").is_err());
        assert!(args("--workload msbfs --seconds inf").is_err());
        assert!(args("--workload msbfs --seconds -1").is_err());
    }
}
