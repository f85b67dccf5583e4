//! `tsgemm-inspect`: offline diagnosis of tsgemm run artifacts.
//!
//! The runtime writes three artifact kinds — `trace.json` (Chrome trace),
//! `metrics.jsonl` (per-rank `(phase, metric)` registries) and
//! `flight.jsonl` (per-rank flight-recorder rings).
//! This crate turns them into answers:
//!
//! * [`imbalance`] — per-rank critical paths and per-phase load imbalance
//!   (who is the straggler, and in which phase);
//! * [`drift`] — does the symbolic cost model's `predicted_bytes` match the
//!   bytes the collectives actually moved;
//! * [`lint`] — cross-artifact consistency (every metrics phase must appear
//!   in the trace, truncated flight tags are flagged);
//! * [`html`] — a self-contained HTML report of all of the above;
//! * [`prom`] — Prometheus text-exposition lint for the live telemetry
//!   endpoint (the CI scrape gate);
//! * [`flame`] — folded span stacks → self-contained SVG flamegraph;
//! * [`top`] — a live terminal view polling `/snapshot.json` (straggler
//!   rank, phases, rates, rank×rank comm-matrix heatmap).
//!
//! No dependencies by design: the binary must build anywhere the toolchain
//! exists, and it parses JSON with its own [`json`] module.

pub mod drift;
pub mod flame;
pub mod html;
pub mod imbalance;
pub mod json;
pub mod lint;
pub mod prom;
pub mod top;

pub use json::{parse, Json, JsonError};

use std::collections::BTreeMap;
use std::path::Path;

/// One rank's line of `metrics.jsonl`: phase → metric → raw JSON value
/// (counter/gauge/histogram object).
#[derive(Clone, Debug)]
pub struct RankMetrics {
    pub rank: u64,
    pub phases: BTreeMap<String, BTreeMap<String, Json>>,
}

impl RankMetrics {
    /// Numeric value of a counter or gauge; `None` when absent or not
    /// value-shaped.
    pub fn value(&self, phase: &str, metric: &str) -> Option<f64> {
        self.phases.get(phase)?.get(metric)?.get("value")?.as_f64()
    }
}

/// Loads `metrics.jsonl` (one `{"rank":N,"metrics":{...}}` object per line).
pub fn load_metrics_jsonl(path: &Path) -> Result<Vec<RankMetrics>, String> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (i, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let rank = v
            .get("rank")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{}:{}: missing rank", path.display(), i + 1))?
            as u64;
        let mut phases = BTreeMap::new();
        if let Some(metrics) = v.get("metrics").and_then(Json::as_obj) {
            for (phase, entries) in metrics {
                let mut by_name = BTreeMap::new();
                if let Some(fields) = entries.as_obj() {
                    for (name, val) in fields {
                        by_name.insert(name.clone(), val.clone());
                    }
                }
                phases.insert(phase.clone(), by_name);
            }
        }
        out.push(RankMetrics { rank, phases });
    }
    Ok(out)
}

/// One `"X"` (complete) slice from the Chrome trace. Metadata (`"M"`)
/// events are dropped at load time.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Phase tag, or `"compute"` for compute slices.
    pub name: String,
    /// Rank (the trace writer assigns one pid per rank).
    pub pid: u64,
    /// Start, seconds (the file stores microseconds).
    pub ts_s: f64,
    /// Duration, seconds.
    pub dur_s: f64,
    /// Collective kind from `args.kind`; `None` for compute and span slices.
    pub kind: Option<String>,
}

/// Loads the `"X"` events of `trace.json`.
pub fn load_trace(path: &Path) -> Result<Vec<TraceEvent>, String> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = parse(&body).map_err(|e| format!("{}: {e}", path.display()))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no traceEvents array", path.display()))?;
    let mut out = Vec::new();
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let pid = ev.get("pid").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let ts = ev.get("ts").and_then(Json::as_f64).unwrap_or(0.0);
        let dur = ev.get("dur").and_then(Json::as_f64).unwrap_or(0.0);
        let kind = ev
            .get("args")
            .and_then(|a| a.get("kind"))
            .and_then(Json::as_str)
            .map(str::to_string);
        out.push(TraceEvent {
            name,
            pid,
            ts_s: ts / 1e6,
            dur_s: dur / 1e6,
            kind,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmpfile(name: &str, body: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("tsgemm-inspect-{}-{name}", std::process::id()));
        let mut f = std::fs::File::create(&p).unwrap();
        f.write_all(body.as_bytes()).unwrap();
        p
    }

    #[test]
    fn loads_metrics_lines() {
        let p = tmpfile(
            "m.jsonl",
            concat!(
                r#"{"rank":0,"metrics":{"ts:bfetch":{"bytes_sent":{"type":"counter","value":96},"predicted_bytes":{"type":"counter","value":96}}}}"#,
                "\n",
                r#"{"rank":1,"metrics":{"ts:bfetch":{"bytes_sent":{"type":"counter","value":4}}}}"#,
                "\n"
            ),
        );
        let ranks = load_metrics_jsonl(&p).unwrap();
        assert_eq!(ranks.len(), 2);
        assert_eq!(ranks[0].value("ts:bfetch", "bytes_sent"), Some(96.0));
        assert_eq!(ranks[1].value("ts:bfetch", "predicted_bytes"), None);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn loads_trace_events_and_drops_meta() {
        let p = tmpfile(
            "t.json",
            r#"{"traceEvents":[
                {"name":"process_name","ph":"M","pid":0,"args":{"name":"rank 0"}},
                {"name":"compute","ph":"X","pid":0,"tid":0,"ts":0,"dur":1e6},
                {"name":"ts:bfetch","ph":"X","pid":0,"tid":0,"ts":1e6,"dur":5e5,"args":{"kind":"AllToAllV","bytes_sent":"96"}}
            ]}"#,
        );
        let evs = load_trace(&p).unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "compute");
        assert_eq!(evs[0].dur_s, 1.0);
        assert_eq!(evs[1].kind.as_deref(), Some("AllToAllV"));
        std::fs::remove_file(&p).ok();
    }
}
