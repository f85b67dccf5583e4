//! Cost-model drift: predicted vs measured communication bytes.
//!
//! `decide_modes` records `predicted_bytes` counters under the multiply
//! phases (`…:bfetch`, `…:cret`) during its symbolic pass; the runtime
//! records `bytes_sent` for the same phases from the collectives that
//! actually ran. In a fault-free run the two are byte-exact (the
//! `tests/comm_volume.rs` invariant), so any drift means the symbolic cost
//! model and the execution have diverged — the report makes that a gate.

use crate::RankMetrics;
use std::collections::BTreeMap;

/// One phase's predicted-vs-measured comparison, summed over ranks.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftRow {
    pub phase: String,
    pub predicted_bytes: f64,
    pub measured_bytes: f64,
    /// `|measured − predicted| / max(predicted, 1)`.
    pub drift: f64,
}

/// All phases that carry a prediction, with the gate tolerance.
#[derive(Clone, Debug)]
pub struct DriftReport {
    pub rows: Vec<DriftRow>,
    /// Relative tolerance the gate applies (0.0 = byte-exact).
    pub tol: f64,
}

impl DriftReport {
    /// True when every phase is within tolerance.
    pub fn ok(&self) -> bool {
        self.rows.iter().all(|r| r.drift <= self.tol)
    }

    /// Largest drift across phases (0 when there are no rows).
    pub fn max_drift(&self) -> f64 {
        self.rows.iter().map(|r| r.drift).fold(0.0, f64::max)
    }
}

/// Builds the drift report from loaded per-rank metrics. Phases without a
/// `predicted_bytes` counter are not scored (nothing was predicted).
pub fn analyze(ranks: &[RankMetrics], tol: f64) -> DriftReport {
    let mut predicted: BTreeMap<String, f64> = BTreeMap::new();
    let mut measured: BTreeMap<String, f64> = BTreeMap::new();
    for rm in ranks {
        for phase in rm.phases.keys() {
            if let Some(p) = rm.value(phase, "predicted_bytes") {
                *predicted.entry(phase.clone()).or_insert(0.0) += p;
            }
            if let Some(b) = rm.value(phase, "bytes_sent") {
                *measured.entry(phase.clone()).or_insert(0.0) += b;
            }
        }
    }
    let rows = predicted
        .into_iter()
        .map(|(phase, p)| {
            let m = measured.get(&phase).copied().unwrap_or(0.0);
            DriftRow {
                drift: (m - p).abs() / p.max(1.0),
                phase,
                predicted_bytes: p,
                measured_bytes: m,
            }
        })
        .collect();
    DriftReport { rows, tol }
}

/// Parses a tolerance argument: `"10%"` → 0.10, `"0.1"` → 0.1.
pub fn parse_tol(s: &str) -> Result<f64, String> {
    let (body, scale) = match s.strip_suffix('%') {
        Some(b) => (b, 0.01),
        None => (s, 1.0),
    };
    let v: f64 = body
        .trim()
        .parse()
        .map_err(|_| format!("cannot parse tolerance {s:?} (want e.g. \"10%\" or \"0.1\")"))?;
    if !(v * scale).is_finite() || v * scale < 0.0 {
        return Err(format!(
            "tolerance {s:?} must be a finite non-negative value"
        ));
    }
    Ok(v * scale)
}

/// Renders the report as an aligned text table.
pub fn render(report: &DriftReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>14} {:>14} {:>9}  gate\n",
        "phase", "predicted(B)", "measured(B)", "drift"
    ));
    for r in &report.rows {
        out.push_str(&format!(
            "{:<20} {:>14} {:>14} {:>8.2}%  {}\n",
            r.phase,
            r.predicted_bytes as u64,
            r.measured_bytes as u64,
            r.drift * 100.0,
            if r.drift <= report.tol { "ok" } else { "FAIL" }
        ));
    }
    if report.rows.is_empty() {
        out.push_str("(no phases carry predicted_bytes — was the run traced?)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load_metrics_jsonl;
    use std::io::Write;

    fn ranks_from(lines: &str) -> Vec<RankMetrics> {
        // Tests run in parallel: one file per call, not one per process.
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let p =
            std::env::temp_dir().join(format!("tsgemm-drift-{}-{call}.jsonl", std::process::id()));
        let mut f = std::fs::File::create(&p).unwrap();
        f.write_all(lines.as_bytes()).unwrap();
        let r = load_metrics_jsonl(&p).unwrap();
        std::fs::remove_file(&p).ok();
        r
    }

    #[test]
    fn tolerance_parses_percent_and_fraction() {
        assert_eq!(parse_tol("10%").unwrap(), 0.10);
        assert_eq!(parse_tol("0.25").unwrap(), 0.25);
        assert!(parse_tol("fast").is_err());
        assert!(parse_tol("-1%").is_err());
    }

    #[test]
    fn exact_match_has_zero_drift() {
        let ranks = ranks_from(concat!(
            r#"{"rank":0,"metrics":{"ts:bfetch":{"bytes_sent":{"type":"counter","value":100},"predicted_bytes":{"type":"counter","value":60}}}}"#,
            "\n",
            r#"{"rank":1,"metrics":{"ts:bfetch":{"bytes_sent":{"type":"counter","value":20},"predicted_bytes":{"type":"counter","value":60}}}}"#,
            "\n",
        ));
        let rep = analyze(&ranks, 0.0);
        assert_eq!(rep.rows.len(), 1);
        assert_eq!(rep.rows[0].drift, 0.0);
        assert!(rep.ok());
    }

    #[test]
    fn divergence_fails_the_gate() {
        let ranks = ranks_from(
            r#"{"rank":0,"metrics":{"ts:cret":{"bytes_sent":{"type":"counter","value":150},"predicted_bytes":{"type":"counter","value":100}}}}"#,
        );
        let rep = analyze(&ranks, 0.05);
        assert!((rep.max_drift() - 0.5).abs() < 1e-12);
        assert!(!rep.ok());
        assert!(render(&rep).contains("FAIL"));
    }

    #[test]
    fn unpredicted_phases_are_not_scored() {
        let ranks = ranks_from(
            r#"{"rank":0,"metrics":{"ts:modes":{"bytes_sent":{"type":"counter","value":12}}}}"#,
        );
        let rep = analyze(&ranks, 0.0);
        assert!(rep.rows.is_empty());
        assert!(rep.ok());
    }
}
