//! `inspect` — turn tsgemm run artifacts into diagnosis.
//!
//! ```text
//! inspect imbalance <trace-dir>                 per-rank critical path + stragglers
//! inspect drift <trace-dir> [--tol 0%]          predicted vs measured bytes
//! inspect html <trace-dir> [--out report.html] [--title T]
//! inspect lint-trace <trace-dir>                metrics/trace phase consistency
//! inspect lint-prom <file>                      Prometheus exposition lint
//! inspect top <addr> [--once] [--interval MS]   live view of a running job
//! inspect flame <folded-file> [--out F] [--title T]
//! inspect flame --addr HOST:PORT [--out F]      fetch /stacks.folded live
//! ```
//!
//! `<trace-dir>` is a directory holding `trace.json` + `metrics.jsonl` as
//! written by `write_trace_files` (and optionally `flight.jsonl`). `<addr>`
//! is the `TSGEMM_TELEMETRY_ADDR` endpoint of a running job.
//!
//! Exit codes: 0 ok; 1 gate failed (drift over tolerance, lint error); 2
//! usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tsgemm_inspect::{
    drift, flame, html, imbalance, lint, load_metrics_jsonl, load_trace, prom, top,
};

const USAGE: &str = "usage:
  inspect imbalance <trace-dir>
  inspect drift <trace-dir> [--tol PCT]
  inspect html <trace-dir> [--out FILE] [--title TITLE]
  inspect lint-trace <trace-dir>
  inspect lint-prom FILE
  inspect top ADDR [--once] [--interval MS]
  inspect flame FILE|--addr ADDR [--out FILE] [--title TITLE]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("inspect: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Pulls `--flag value` out of `args`, returning the remainder.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => {
            if i + 1 >= args.len() {
                return Err(format!("{flag} needs a value"));
            }
            let v = args.remove(i + 1);
            args.remove(i);
            Ok(Some(v))
        }
    }
}

fn trace_dir(args: &[String]) -> Result<&Path, String> {
    args.first()
        .map(|s| Path::new(s.as_str()))
        .ok_or_else(|| format!("missing <trace-dir>\n{USAGE}"))
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(USAGE.to_string());
    };
    let mut args: Vec<String> = rest.to_vec();
    match cmd.as_str() {
        "imbalance" => {
            let dir = trace_dir(&args)?;
            let events = load_trace(&dir.join("trace.json"))?;
            let rep = imbalance::analyze(&events);
            print!("{}", imbalance::render(&rep));
            Ok(ExitCode::SUCCESS)
        }
        "drift" => {
            let tol = match take_flag(&mut args, "--tol")? {
                Some(t) => drift::parse_tol(&t)?,
                None => 0.0, // the model is byte-exact by contract
            };
            let dir = trace_dir(&args)?;
            let ranks = load_metrics_jsonl(&dir.join("metrics.jsonl"))?;
            let rep = drift::analyze(&ranks, tol);
            print!("{}", drift::render(&rep));
            Ok(if rep.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "html" => {
            let out = take_flag(&mut args, "--out")?
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("report.html"));
            let title =
                take_flag(&mut args, "--title")?.unwrap_or_else(|| "tsgemm run report".to_string());
            let dir = trace_dir(&args)?;
            let events = load_trace(&dir.join("trace.json"))?;
            let ranks = load_metrics_jsonl(&dir.join("metrics.jsonl"))?;
            let imb = imbalance::analyze(&events);
            let dr = drift::analyze(&ranks, 0.0);
            let doc = html::report(&title, &ranks, &imb, &dr);
            std::fs::write(&out, doc)
                .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
            println!("wrote {}", out.display());
            Ok(ExitCode::SUCCESS)
        }
        "lint-trace" => {
            let dir = trace_dir(&args)?;
            let events = load_trace(&dir.join("trace.json"))?;
            let ranks = load_metrics_jsonl(&dir.join("metrics.jsonl"))?;
            let mut rep = lint::lint(&ranks, &events);
            // flight.jsonl is optional; when present, flag truncated tags that
            // may collide in the 23-byte inline buffer.
            let flight = dir.join("flight.jsonl");
            if let Ok(body) = std::fs::read_to_string(&flight) {
                rep.warnings.extend(lint::lint_flight_jsonl(&body));
            }
            print!("{}", lint::render(&rep));
            Ok(if rep.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "lint-prom" => {
            let file = args
                .first()
                .ok_or_else(|| format!("missing FILE\n{USAGE}"))?;
            let body =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
            let rep = prom::lint(&body);
            print!("{}", prom::render(&rep));
            Ok(if rep.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "top" => {
            let once = match args.iter().position(|a| a == "--once") {
                Some(i) => {
                    args.remove(i);
                    true
                }
                None => false,
            };
            let interval_ms: u64 = match take_flag(&mut args, "--interval")? {
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("--interval wants milliseconds, got {v:?}"))?,
                None => 1000,
            };
            let addr = args
                .first()
                .ok_or_else(|| format!("missing ADDR\n{USAGE}"))?;
            loop {
                let snap = top::fetch_snapshot(addr)?;
                let screen = top::render(&snap);
                if once {
                    print!("{screen}");
                    return Ok(ExitCode::SUCCESS);
                }
                // ANSI clear + home so the view updates in place.
                print!("\x1b[2J\x1b[H{screen}");
                use std::io::Write as _;
                std::io::stdout().flush().ok();
                std::thread::sleep(std::time::Duration::from_millis(interval_ms));
            }
        }
        "flame" => {
            let out = take_flag(&mut args, "--out")?
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("flame.svg"));
            let title =
                take_flag(&mut args, "--title")?.unwrap_or_else(|| "tsgemm spans".to_string());
            let addr = take_flag(&mut args, "--addr")?;
            let body = match (&addr, args.first()) {
                (Some(a), _) => top::http_get(a, "/stacks.folded")?,
                (None, Some(file)) => {
                    std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?
                }
                (None, None) => return Err(format!("missing FILE or --addr\n{USAGE}")),
            };
            let stacks = flame::parse_folded(&body)?;
            let doc = flame::svg(&stacks, &title);
            std::fs::write(&out, doc)
                .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
            println!("wrote {} ({} stack(s))", out.display(), stacks.len());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}
