//! Timeline recorder: lowers [`RankProfile`] streams into Chrome
//! `trace_event` JSON and a per-phase roll-up table.
//!
//! The profile already contains everything a timeline needs — alternating
//! compute segments and collective records with absolute entry times, plus
//! optional [`PhaseSpan`]s recorded by instrumented algorithms — so the
//! export is entirely post-hoc: it runs after [`crate::World::run`] returns
//! and costs nothing during the run.
//!
//! Output format is the Chrome Trace Event JSON Array format (loadable in
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)): one *pid*
//! per rank, one *tid* per phase tag, `"X"` (complete) slices for compute,
//! collectives and spans, and `"M"` metadata events naming each lane.

use crate::metrics::{json_f64, json_string, Metrics, MetricsRegistry};
use crate::stats::RankProfile;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Gate for algorithm-level trace instrumentation (phase spans and registry
/// counters). Disabled by default; every instrumented site checks a single
/// `bool` and does nothing else when it is off, so benches are unaffected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record phase spans and algorithm metrics during the run.
    pub enabled: bool,
}

impl TraceConfig {
    /// Tracing on.
    pub fn enabled() -> Self {
        Self { enabled: true }
    }

    /// Tracing off (the default).
    pub fn disabled() -> Self {
        Self { enabled: false }
    }

    /// Whether instrumented sites should record.
    #[inline]
    pub fn on(&self) -> bool {
        self.enabled
    }
}

/// Phase lane for collective-free compute: the trailing segment after the
/// last collective and any segment whose collective carries an empty tag.
const TAIL_PHASE: &str = "(compute)";

fn push_event(
    out: &mut String,
    name: &str,
    pid: usize,
    tid: usize,
    start_secs: f64,
    dur_secs: f64,
    args: &[(&str, String)],
) {
    // Chrome trace timestamps are microseconds.
    out.push_str(&format!(
        "{{\"name\":{},\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{}",
        json_string(name),
        pid,
        tid,
        json_f64(start_secs * 1e6),
        json_f64((dur_secs * 1e6).max(0.0)),
    ));
    if !args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_string(k), v));
        }
        out.push('}');
    }
    out.push_str("},");
}

fn push_meta(out: &mut String, meta: &str, pid: usize, tid: Option<usize>, name: &str) {
    match tid {
        Some(tid) => out.push_str(&format!(
            "{{\"name\":\"{meta}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":{}}}}},",
            json_string(name)
        )),
        None => out.push_str(&format!(
            "{{\"name\":\"{meta}\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":{}}}}},",
            json_string(name)
        )),
    }
}

/// Lowers per-rank profiles into a Chrome `trace_event` JSON document:
/// pid = rank, tid = phase tag. Compute leading into a collective is plotted
/// on that collective's phase lane; recorded [`crate::stats::PhaseSpan`]s
/// get their own lanes.
pub fn chrome_trace_json(profiles: &[RankProfile]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for profile in profiles {
        let pid = profile.world_rank;
        // One tid per distinct phase tag, allocated in first-seen order so
        // lanes roughly follow execution order top-to-bottom.
        let mut lanes: Vec<String> = Vec::new();
        let lane_of = |tag: &str, lanes: &mut Vec<String>| -> usize {
            match lanes.iter().position(|t| t == tag) {
                Some(i) => i,
                None => {
                    lanes.push(tag.to_string());
                    lanes.len() - 1
                }
            }
        };

        push_meta(&mut out, "process_name", pid, None, &format!("rank {pid}"));

        let mut cursor = 0.0f64;
        for seg in &profile.segments {
            match &seg.coll {
                Some(c) => {
                    let phase = if c.tag.is_empty() { TAIL_PHASE } else { &c.tag };
                    let tid = lane_of(phase, &mut lanes);
                    let compute_dur = (c.entered_secs - cursor).max(0.0);
                    if seg.flops > 0 || compute_dur > 0.0 {
                        push_event(
                            &mut out,
                            "compute",
                            pid,
                            tid,
                            cursor,
                            compute_dur,
                            &[
                                ("flops", seg.flops.to_string()),
                                ("ws_bytes", seg.ws_bytes.to_string()),
                            ],
                        );
                    }
                    push_event(
                        &mut out,
                        phase,
                        pid,
                        tid,
                        c.entered_secs,
                        c.wait_secs,
                        &[
                            ("kind", json_string(&format!("{:?}", c.kind))),
                            ("bytes_sent", c.bytes_sent().to_string()),
                            ("bytes_recv", c.bytes_received.to_string()),
                            ("recv_msgs", c.recv_msgs.to_string()),
                        ],
                    );
                    cursor = c.entered_secs + c.wait_secs;
                }
                None => {
                    let tid = lane_of(TAIL_PHASE, &mut lanes);
                    if seg.flops > 0 || seg.compute_secs > 0.0 {
                        push_event(
                            &mut out,
                            "compute",
                            pid,
                            tid,
                            cursor,
                            seg.compute_secs,
                            &[("flops", seg.flops.to_string())],
                        );
                        cursor += seg.compute_secs;
                    }
                }
            }
        }
        for span in &profile.spans {
            let tid = lane_of(&span.tag, &mut lanes);
            push_event(
                &mut out,
                &span.tag,
                pid,
                tid,
                span.start_secs,
                span.end_secs - span.start_secs,
                &[],
            );
        }
        for (tid, tag) in lanes.iter().enumerate() {
            push_meta(&mut out, "thread_name", pid, Some(tid), tag);
        }
    }
    if out.ends_with(',') {
        out.pop();
    }
    out.push_str("]}");
    out
}

/// One row of the per-phase roll-up: everything the run did under one phase
/// tag, summed over ranks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseRollup {
    /// Phase tag (collective tag namespace).
    pub phase: String,
    /// Seconds spent inside this phase's collectives, summed over ranks.
    pub wait_secs: f64,
    /// Measured compute seconds leading into this phase's collectives.
    pub compute_secs: f64,
    /// Payload bytes sent under this tag (all ranks).
    pub bytes_sent: u64,
    /// Payload bytes received under this tag (all ranks).
    pub bytes_received: u64,
    /// Collective invocations under this tag (all ranks).
    pub collectives: u64,
    /// Collectives retried after an injected transient fault, read from the
    /// metrics registries (counter `retries`); zero in fault-free runs.
    pub retries: u64,
}

/// Builds the per-phase roll-up table from profiles plus the per-rank
/// metrics registries (the registries contribute retry counts and any
/// phase the profiles never saw).
///
/// Rows come back sorted by phase name — a guarantee, not an accident of
/// the accumulator: trace artifacts (and the rendered roll-up) must diff
/// cleanly across runs, so ordering can't depend on segment arrival order.
pub fn phase_rollup(profiles: &[RankProfile], metrics: &[MetricsRegistry]) -> Vec<PhaseRollup> {
    let mut rows: BTreeMap<String, PhaseRollup> = BTreeMap::new();
    for profile in profiles {
        for seg in &profile.segments {
            let Some(c) = &seg.coll else { continue };
            let row = rows.entry(c.tag.clone()).or_insert_with(|| PhaseRollup {
                phase: c.tag.clone(),
                ..PhaseRollup::default()
            });
            row.wait_secs += c.wait_secs;
            row.compute_secs += seg.compute_secs;
            row.bytes_sent += c.bytes_sent();
            row.bytes_received += c.bytes_received;
            row.collectives += 1;
        }
    }
    for m in metrics {
        for ((phase, name), _) in m.iter() {
            if name == "retries" {
                let row = rows.entry(phase.clone()).or_insert_with(|| PhaseRollup {
                    phase: phase.clone(),
                    ..PhaseRollup::default()
                });
                row.retries += m.counter(phase, "retries");
            }
        }
    }
    rows.into_values().collect()
}

/// Renders the roll-up as an aligned text table.
pub fn render_rollup(rows: &[PhaseRollup]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:>10} {:>10} {:>12} {:>12} {:>6} {:>7}\n",
        "phase", "comp(ms)", "wait(ms)", "sent(B)", "recv(B)", "colls", "retries"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>10.3} {:>10.3} {:>12} {:>12} {:>6} {:>7}\n",
            r.phase,
            r.compute_secs * 1e3,
            r.wait_secs * 1e3,
            r.bytes_sent,
            r.bytes_received,
            r.collectives,
            r.retries
        ));
    }
    out
}

/// Writes `trace.json` (Chrome trace) and `metrics.jsonl` (one JSON object
/// per rank: profile-derived metrics merged with the rank's registry) into
/// `dir`, creating it if needed. Returns the two paths.
pub fn write_trace_files(
    dir: &Path,
    profiles: &[RankProfile],
    metrics: &[MetricsRegistry],
) -> std::io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let trace_path = dir.join("trace.json");
    std::fs::write(&trace_path, chrome_trace_json(profiles))?;

    let jsonl_path = dir.join("metrics.jsonl");
    let mut f = std::fs::File::create(&jsonl_path)?;
    for (i, profile) in profiles.iter().enumerate() {
        let mut m = MetricsRegistry::from_profile(profile);
        if let Some(reg) = metrics.get(i) {
            m.merge(reg);
        }
        writeln!(
            f,
            "{{\"rank\":{},\"metrics\":{}}}",
            profile.world_rank,
            m.render_json()
        )?;
    }
    Ok((trace_path, jsonl_path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    fn sample_run() -> (Vec<RankProfile>, Vec<MetricsRegistry>) {
        let out = World::run_traced(3, TraceConfig::enabled(), |comm| {
            comm.add_flops(100);
            comm.span(|| "phase:a".to_string()).end();
            let sends: Vec<Vec<u64>> = (0..3).map(|d| vec![d as u64; comm.rank() + 1]).collect();
            comm.alltoallv(sends, "phase:x");
            comm.metrics(|m| m.counter_add("phase:x", "retries", comm.rank() as u64));
            comm.barrier("phase:y");
        });
        (out.profiles, out.metrics)
    }

    #[test]
    fn trace_has_one_pid_per_rank_and_named_lanes() {
        let (profiles, _) = sample_run();
        let json = chrome_trace_json(&profiles);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        for pid in 0..3 {
            assert!(json.contains(&format!("\"args\":{{\"name\":\"rank {pid}\"}}")));
        }
        assert!(json.contains("\"name\":\"phase:x\""));
        assert!(json.contains("\"name\":\"phase:a\""));
        // Lane metadata names the phase tags.
        assert!(json.contains("\"name\":\"thread_name\""));
    }

    #[test]
    fn trace_events_are_well_formed_json_fragments() {
        let (profiles, _) = sample_run();
        let json = chrome_trace_json(&profiles);
        // Balanced braces/brackets and no trailing comma before the close.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert!(!json.contains(",]"));
        assert!(!json.contains(",}"));
    }

    #[test]
    fn rollup_aggregates_by_phase() {
        let (profiles, metrics) = sample_run();
        let rows = phase_rollup(&profiles, &metrics);
        let x = rows.iter().find(|r| r.phase == "phase:x").unwrap();
        assert_eq!(x.collectives, 3);
        assert!(x.bytes_sent > 0);
        assert_eq!(x.bytes_sent, x.bytes_received);
        assert_eq!(x.retries, 3); // ranks recorded 0 + 1 + 2
        let y = rows.iter().find(|r| r.phase == "phase:y").unwrap();
        assert_eq!(y.collectives, 3);
        assert_eq!(y.bytes_sent, 0);
        let table = render_rollup(&rows);
        assert!(table.contains("phase:x"));
        assert!(table.contains("retries"));
    }

    #[test]
    fn write_trace_files_roundtrip() {
        let (profiles, metrics) = sample_run();
        let dir = std::env::temp_dir().join(format!("tsgemm-trace-test-{}", std::process::id()));
        let (trace, jsonl) = write_trace_files(&dir, &profiles, &metrics).unwrap();
        let trace_body = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_body.contains("traceEvents"));
        let jsonl_body = std::fs::read_to_string(&jsonl).unwrap();
        assert_eq!(jsonl_body.lines().count(), 3);
        assert!(jsonl_body.lines().all(|l| l.starts_with("{\"rank\":")));
        // Registry counters recorded during the run surface in the jsonl.
        assert!(jsonl_body.contains("\"retries\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn span_guard_closes_on_early_return() {
        use crate::comm::Comm;
        fn body(comm: &mut Comm) -> Result<(), ()> {
            let _g = comm.span(|| "guarded:a".to_string());
            comm.barrier("b");
            Err(()) // early exit: the guard must still close the span
        }
        let out = World::run_traced(2, TraceConfig::enabled(), |comm| {
            let _ = body(comm);
        });
        for p in &out.profiles {
            let spans: Vec<_> = p.spans.iter().filter(|s| s.tag == "guarded:a").collect();
            assert_eq!(spans.len(), 1, "exactly one closed span");
            assert!(spans[0].end_secs >= spans[0].start_secs);
        }
    }

    #[test]
    fn span_guard_is_free_when_trace_off() {
        let out = World::run(2, |comm| {
            let g = comm.span(|| unreachable!("tag closure must not run with tracing off"));
            assert!(!g.is_active());
            g.end();
            comm.barrier("b");
        });
        assert!(out.profiles.iter().all(|p| p.spans.is_empty()));
    }

    #[test]
    fn collectives_land_in_flight_recorder() {
        use crate::flight::FlightEventKind;
        let out = World::run(2, |comm| {
            comm.barrier("fl:sync");
            comm.allreduce(1u64, |a, b| a + b, "fl:sum")
        });
        for fl in &out.flights {
            // Two collectives → two posted + two done events.
            assert_eq!(fl.total_recorded(), 4);
            let kinds: Vec<_> = fl.in_order().map(|e| e.kind).collect();
            assert!(matches!(
                kinds[0],
                FlightEventKind::CollPosted { seq: 0, .. }
            ));
            assert!(matches!(kinds[1], FlightEventKind::CollDone { seq: 0, .. }));
            assert!(matches!(
                kinds[2],
                FlightEventKind::CollPosted { seq: 1, .. }
            ));
            let tags: Vec<&str> = fl.in_order().map(|e| e.tag.as_str()).collect();
            assert_eq!(tags, vec!["fl:sync", "fl:sync", "fl:sum", "fl:sum"]);
        }
    }

    #[test]
    fn split_shares_parent_flight_recorder() {
        let out = World::run(4, |comm| {
            let mut sub = comm.split(comm.rank() % 2, comm.rank());
            sub.barrier("sub:b");
        });
        for fl in &out.flights {
            let tags: Vec<&str> = fl.in_order().map(|e| e.tag.as_str()).collect();
            assert!(tags.contains(&"comm:split"), "{tags:?}");
            assert!(tags.contains(&"sub:b"), "{tags:?}");
        }
    }

    #[test]
    fn spans_only_recorded_when_traced() {
        let out = World::run(2, |comm| {
            comm.span(|| "never".to_string()).end();
            comm.barrier("b");
        });
        assert!(out.profiles.iter().all(|p| p.spans.is_empty()));
        assert!(out.metrics.iter().all(|m| m.is_empty()));
    }

    #[test]
    fn phase_rollup_rows_sorted_by_phase_name() {
        // Phases are entered in non-alphabetical order; the roll-up (and
        // therefore the rendered artifact) must come back sorted regardless,
        // so trace artifacts diff cleanly across runs.
        let out = World::run(2, |comm| {
            comm.barrier("z:last");
            comm.barrier("a:first");
            comm.barrier("m:middle");
        });
        let rows = phase_rollup(&out.profiles, &out.metrics);
        let phases: Vec<&str> = rows.iter().map(|r| r.phase.as_str()).collect();
        assert_eq!(phases, vec!["a:first", "m:middle", "z:last"]);
        let mut sorted = phases.clone();
        sorted.sort_unstable();
        assert_eq!(phases, sorted);
        // The rendered table preserves that order.
        let text = render_rollup(&rows);
        let a = text.find("a:first").unwrap();
        let m = text.find("m:middle").unwrap();
        let z = text.find("z:last").unwrap();
        assert!(a < m && m < z);
    }
}
