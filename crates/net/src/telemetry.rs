//! Live telemetry: a streaming aggregator that reads the per-rank logs, and
//! a zero-dependency scrape endpoint.
//!
//! Everything else in the observability stack (metrics registries, Chrome
//! traces, the flight recorder) is post-mortem: it answers questions after
//! [`crate::World::run`] returns. This module answers them *while* the run
//! is in flight, which is what an operator of a long embedding/MCL job
//! actually needs — per the paper's own framing, per-process communication
//! volume and the local/remote mode split are *the* scaling signals, so they
//! should be watchable live, not reconstructed afterwards.
//!
//! Design, hot path outwards:
//!
//! * **The rank log is the source.** Telemetry has no event stream of its
//!   own. Each rank's log already keeps a `Copy` tally of live counts
//!   (posted, done, retries, steps, mode picks, bytes), updated in the same
//!   call that writes the flight ring, and, while telemetry is attached, the
//!   stack of open span tags (see `rank_log.rs`). Nothing is dropped, and the
//!   counts stay exact after the flight ring wraps.
//! * **Aggregator** — one background thread visits every rank log at a
//!   fixed cadence (`TSGEMM_TELEMETRY_SAMPLE_MS`, default 1 ms). Under the
//!   log's lock it copies the tally and the span stack, and folds the
//!   `bytes_to` of every profile segment added since its last visit into a
//!   full rank×rank byte matrix split by collective kind *and* by symbolic
//!   mode pick (`:bfetch` traffic is the local mode shipping B rows, `:cret`
//!   is the remote mode returning partial C). Outside the lock it keeps
//!   counter rates over a sliding window, live/peak memory from
//!   [`crate::alloc`] when the counting allocator is active, and per-rank
//!   collective queue depth (posted − completed).
//! * **Sampling profiler** — the same tick turns each rank's copied
//!   [`crate::SpanGuard`] stack into folded-stack form, i.e. flamegraph
//!   input. A rank pays one push and one pop per span.
//! * **Scrape endpoint** — a `std::net::TcpListener` HTTP server (no
//!   dependencies) serving Prometheus text exposition at `/metrics`, a JSON
//!   snapshot at `/snapshot.json` and folded stacks at `/stacks.folded`.
//!
//! The whole subsystem is gated on `TSGEMM_TELEMETRY_ADDR`: when the
//! variable is unset, [`global`] returns `None` without constructing
//! anything, so an untelemetered run pays exactly one `OnceLock` load per
//! [`crate::World::run`] (pinned allocation-free in
//! `tests/memory_invariant.rs`). Bind to port 0 (`127.0.0.1:0`) to let the
//! OS pick a free port; [`Telemetry::addr`] reports the actual one.

use crate::alloc;
use crate::flight::FlightTag;
use crate::metrics::{json_f64, json_string};
use crate::rank_log::{lock, RankLog, Tally};
use crate::stats::CollKind;
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Environment variable that switches telemetry on and names the bind
/// address (e.g. `127.0.0.1:9187`, or `127.0.0.1:0` for an ephemeral port).
pub const TELEMETRY_ADDR_ENV: &str = "TSGEMM_TELEMETRY_ADDR";

/// Environment variable overriding the aggregator sample cadence in
/// milliseconds (default 1).
pub const TELEMETRY_SAMPLE_ENV: &str = "TSGEMM_TELEMETRY_SAMPLE_MS";

/// Width of the sliding window the aggregator computes rates over.
const RATE_WINDOW: Duration = Duration::from_secs(5);

// ---------------------------------------------------------------------------
// Mode / kind classification
// ---------------------------------------------------------------------------

/// The symbolic-mode class of a phase tag: `:bfetch` collectives carry the
/// local mode's shipped B rows, `:cret` the remote mode's returned partial
/// C; everything else (setup, broadcasts, barriers) is `other`.
pub const MODE_NAMES: [&str; 3] = ["local", "remote", "other"];

fn mode_index(tag: &str) -> usize {
    if tag.ends_with(":bfetch") {
        0
    } else if tag.ends_with(":cret") {
        1
    } else {
        2
    }
}

/// Collective kinds in a fixed order (matrix slices index into this).
pub const KIND_NAMES: [&str; 7] = [
    "AllToAllV",
    "AllGatherV",
    "Bcast",
    "AllReduce",
    "GatherV",
    "Barrier",
    "Split",
];

fn kind_index(kind: CollKind) -> usize {
    match kind {
        CollKind::AllToAllV => 0,
        CollKind::AllGatherV => 1,
        CollKind::Bcast => 2,
        CollKind::AllReduce => 3,
        CollKind::GatherV => 4,
        CollKind::Barrier => 5,
        CollKind::Split => 6,
    }
}

// ---------------------------------------------------------------------------
// Aggregator state
// ---------------------------------------------------------------------------

/// What the aggregator knows about one rank.
#[derive(Clone, Debug, Default)]
struct RankState {
    /// The log's tally at the last visit.
    tally: Tally,
    /// The log's open span tags at the last visit, outermost first.
    stack: Vec<FlightTag>,
    /// Profile segments already folded into the matrix.
    segments: usize,
    /// Aggregator ticks spent with each span (or `(no span)`) on top.
    occupancy: BTreeMap<String, u64>,
    /// `(t, cumulative bytes_sent)` samples inside [`RATE_WINDOW`].
    window: VecDeque<(Instant, u64)>,
}

struct AggState {
    p: usize,
    run_id: u64,
    running: bool,
    epoch: Instant,
    /// The rank logs of the current run, in world-rank order (empty once
    /// the run is sealed).
    logs: Vec<Arc<Mutex<RankLog>>>,
    ranks: Vec<RankState>,
    /// `(kind index, mode index)` → row-major `p×p` byte matrix
    /// (`cells[src * p + dst]`).
    matrix: BTreeMap<(usize, usize), Vec<u64>>,
    /// Folded span stacks: `"rank N;outer;inner" → samples`.
    folded: BTreeMap<String, u64>,
    ticks: u64,
    window: VecDeque<(Instant, u64)>,
    mem_live: u64,
    mem_peak: u64,
}

impl AggState {
    fn new() -> Self {
        Self {
            p: 0,
            run_id: 0,
            running: false,
            epoch: Instant::now(),
            logs: Vec::new(),
            ranks: Vec::new(),
            matrix: BTreeMap::new(),
            folded: BTreeMap::new(),
            ticks: 0,
            window: VecDeque::new(),
            mem_live: 0,
            mem_peak: 0,
        }
    }

    /// Visits every rank log: copies its tally and span stack, and folds
    /// each profile segment added since the last visit into the matrix.
    /// `bytes_to` is keyed by world rank, which is what the matrix indexes,
    /// so split communicators land in the right cells. Lock order: the
    /// state lock, then one rank log at a time; ranks never take
    /// the state lock.
    fn read(&mut self) {
        let p = self.p;
        for (src, (log, rs)) in self.logs.iter().zip(&mut self.ranks).enumerate() {
            let log = lock(log);
            rs.tally = log.tally;
            rs.stack.clone_from(&log.spans);
            let segments = &log.profile.segments;
            for rec in segments[rs.segments..]
                .iter()
                .filter_map(|s| s.coll.as_ref())
            {
                // A collective that sent nothing opens no all-zero slice.
                if rec.bytes_to.is_empty() {
                    continue;
                }
                let key = (kind_index(rec.kind), mode_index(&rec.tag));
                let cells = self.matrix.entry(key).or_insert_with(|| vec![0; p * p]);
                for &(dst, bytes) in &rec.bytes_to {
                    cells[src * p + dst] += bytes;
                }
            }
            rs.segments = segments.len();
        }
    }

    fn total_bytes_sent(&self) -> u64 {
        self.ranks.iter().map(|rs| rs.tally.bytes_sent).sum()
    }

    /// One sampling tick: span stacks → folded counts + occupancy, memory
    /// gauges, rate-window samples.
    fn sample(&mut self, now: Instant) {
        self.ticks += 1;
        for (rank, rs) in self.ranks.iter_mut().enumerate() {
            let top = rs.stack.last().map_or("(no span)", FlightTag::as_str);
            *rs.occupancy.entry(top.to_string()).or_insert(0) += 1;
            if !rs.stack.is_empty() {
                let mut key = format!("rank {rank}");
                for frame in &rs.stack {
                    key.push(';');
                    key.push_str(frame.as_str());
                }
                *self.folded.entry(key).or_insert(0) += 1;
            }
            rs.window.push_back((now, rs.tally.bytes_sent));
            while rs
                .window
                .front()
                .is_some_and(|&(t, _)| now.duration_since(t) > RATE_WINDOW)
            {
                rs.window.pop_front();
            }
        }
        let total = self.total_bytes_sent();
        self.window.push_back((now, total));
        while self
            .window
            .front()
            .is_some_and(|&(t, _)| now.duration_since(t) > RATE_WINDOW)
        {
            self.window.pop_front();
        }
        if alloc::counting_active() {
            self.mem_live = alloc::live_bytes();
            self.mem_peak = self.mem_peak.max(alloc::peak_bytes());
        }
    }

    fn snapshot(&self) -> TelemetrySnapshot {
        let rate = |w: &VecDeque<(Instant, u64)>| -> f64 {
            match (w.front(), w.back()) {
                (Some(&(t0, b0)), Some(&(t1, b1))) if t1 > t0 => {
                    (b1 - b0) as f64 / t1.duration_since(t0).as_secs_f64()
                }
                _ => 0.0,
            }
        };
        TelemetrySnapshot {
            p: self.p,
            run_id: self.run_id,
            running: self.running,
            uptime_secs: self.epoch.elapsed().as_secs_f64(),
            mem_live_bytes: self.mem_live,
            mem_peak_bytes: self.mem_peak,
            total_bytes_sent: self.total_bytes_sent(),
            send_rate_bps: rate(&self.window),
            ticks: self.ticks,
            ranks: self
                .ranks
                .iter()
                .enumerate()
                .map(|(rank, rs)| {
                    let t = &rs.tally;
                    RankSnapshot {
                        rank,
                        phase: t.phase.as_str().to_string(),
                        posted: t.posted,
                        done: t.done,
                        retries: t.retries,
                        steps_started: t.steps_started,
                        steps_done: t.steps_done,
                        modes_local: t.modes_local,
                        modes_remote: t.modes_remote,
                        bytes_sent: t.bytes_sent,
                        bytes_recv: t.bytes_recv,
                        send_rate_bps: rate(&rs.window),
                        stack: rs.stack.iter().map(|f| f.as_str().to_string()).collect(),
                        occupancy: rs
                            .occupancy
                            .iter()
                            .map(|(tag, &n)| (tag.clone(), n as f64 / self.ticks.max(1) as f64))
                            .collect(),
                    }
                })
                .collect(),
            matrix: self
                .matrix
                .iter()
                .map(|(&(ki, mi), cells)| MatrixSlice {
                    kind: KIND_NAMES[ki].to_string(),
                    mode: MODE_NAMES[mi].to_string(),
                    p: self.p,
                    cells: cells.clone(),
                })
                .collect(),
            folded: self.folded.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot (the read model)
// ---------------------------------------------------------------------------

/// One rank's live state.
#[derive(Clone, Debug)]
pub struct RankSnapshot {
    pub rank: usize,
    /// Tag of the most recent flight event — the phase the rank is in (or
    /// died in).
    pub phase: String,
    pub posted: u64,
    pub done: u64,
    pub retries: u64,
    pub steps_started: u64,
    pub steps_done: u64,
    pub modes_local: u64,
    pub modes_remote: u64,
    pub bytes_sent: u64,
    pub bytes_recv: u64,
    /// Sent-byte rate over the sliding window.
    pub send_rate_bps: f64,
    /// Live span stack at snapshot time (outermost first).
    pub stack: Vec<String>,
    /// Fraction of aggregator ticks each span tag spent on top of the
    /// stack (`(no span)` counts idle/unspanned time).
    pub occupancy: Vec<(String, f64)>,
}

impl RankSnapshot {
    /// Collectives entered but not yet completed.
    pub fn queue_depth(&self) -> u64 {
        self.posted.saturating_sub(self.done)
    }
}

/// One `(collective kind, mode class)` slice of the rank×rank byte matrix.
#[derive(Clone, Debug)]
pub struct MatrixSlice {
    /// Name from [`KIND_NAMES`].
    pub kind: String,
    /// Name from [`MODE_NAMES`].
    pub mode: String,
    pub p: usize,
    /// Row-major `p×p`: `cells[src * p + dst]` = bytes src sent to dst.
    pub cells: Vec<u64>,
}

impl MatrixSlice {
    pub fn at(&self, src: usize, dst: usize) -> u64 {
        self.cells[src * self.p + dst]
    }

    /// Bytes `src` sent under this slice (row sum).
    pub fn row_sum(&self, src: usize) -> u64 {
        (0..self.p).map(|d| self.at(src, d)).sum()
    }

    /// Bytes `dst` received under this slice (column sum).
    pub fn col_sum(&self, dst: usize) -> u64 {
        (0..self.p).map(|s| self.at(s, dst)).sum()
    }

    pub fn total(&self) -> u64 {
        self.cells.iter().sum()
    }
}

/// A consistent view of everything the aggregator knows.
#[derive(Clone, Debug)]
pub struct TelemetrySnapshot {
    /// Rank count of the current (or last) run; 0 before any run began.
    pub p: usize,
    /// Monotone run counter (increments at every [`crate::World`] run).
    pub run_id: u64,
    /// False once the run's `World` call sealed it.
    pub running: bool,
    pub uptime_secs: f64,
    pub mem_live_bytes: u64,
    pub mem_peak_bytes: u64,
    pub total_bytes_sent: u64,
    pub send_rate_bps: f64,
    /// Aggregator sampling ticks so far.
    pub ticks: u64,
    pub ranks: Vec<RankSnapshot>,
    pub matrix: Vec<MatrixSlice>,
    /// Folded stacks: `"rank N;outer;inner" → samples`.
    pub folded: BTreeMap<String, u64>,
}

impl TelemetrySnapshot {
    /// Sums matrix bytes over slices selected by kind and/or mode name
    /// (`None` = all).
    pub fn matrix_bytes(&self, kind: Option<&str>, mode: Option<&str>) -> u64 {
        self.matrix
            .iter()
            .filter(|s| kind.is_none_or(|k| s.kind == k))
            .filter(|s| mode.is_none_or(|m| s.mode == m))
            .map(MatrixSlice::total)
            .sum()
    }

    /// Prometheus text exposition (version 0.0.4).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut scalar = |name: &str, ty: &str, help: &str, value: String| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {ty}\n{name} {value}\n"
            ));
        };
        scalar(
            "tsgemm_up",
            "gauge",
            "1 while the endpoint is alive",
            "1".into(),
        );
        scalar(
            "tsgemm_run_active",
            "gauge",
            "1 while a World::run is in flight",
            u64::from(self.running).to_string(),
        );
        scalar(
            "tsgemm_run_id",
            "counter",
            "runs begun",
            self.run_id.to_string(),
        );
        scalar(
            "tsgemm_ranks",
            "gauge",
            "ranks in the current run",
            self.p.to_string(),
        );
        scalar(
            "tsgemm_uptime_seconds",
            "gauge",
            "seconds since the run began",
            format!("{:.6}", self.uptime_secs),
        );
        scalar(
            "tsgemm_telemetry_samples_total",
            "counter",
            "aggregator sampling ticks",
            self.ticks.to_string(),
        );
        scalar(
            "tsgemm_mem_live_bytes",
            "gauge",
            "live heap bytes (CountingAlloc; 0 when not registered)",
            self.mem_live_bytes.to_string(),
        );
        scalar(
            "tsgemm_mem_peak_bytes",
            "gauge",
            "peak heap bytes (CountingAlloc; 0 when not registered)",
            self.mem_peak_bytes.to_string(),
        );
        scalar(
            "tsgemm_bytes_sent_total",
            "counter",
            "payload bytes sent, all ranks",
            self.total_bytes_sent.to_string(),
        );
        scalar(
            "tsgemm_send_rate_bytes_per_second",
            "gauge",
            "sent-byte rate over the sliding window",
            format!("{:.3}", self.send_rate_bps),
        );

        let family = |out: &mut String, name: &str, ty: &str, help: &str| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {ty}\n"));
        };
        macro_rules! per_rank {
            ($name:expr, $ty:expr, $help:expr, $val:expr) => {
                family(&mut out, $name, $ty, $help);
                for r in &self.ranks {
                    out.push_str(&format!("{}{{rank=\"{}\"}} {}\n", $name, r.rank, $val(r)));
                }
            };
        }
        per_rank!(
            "tsgemm_rank_collectives_posted_total",
            "counter",
            "collectives entered",
            |r: &RankSnapshot| r.posted
        );
        per_rank!(
            "tsgemm_rank_collectives_done_total",
            "counter",
            "collectives completed",
            |r: &RankSnapshot| r.done
        );
        per_rank!(
            "tsgemm_rank_queue_depth",
            "gauge",
            "collectives entered but not completed",
            |r: &RankSnapshot| r.queue_depth()
        );
        per_rank!(
            "tsgemm_rank_retries_total",
            "counter",
            "collective retries after transient faults",
            |r: &RankSnapshot| r.retries
        );
        per_rank!(
            "tsgemm_rank_steps_done_total",
            "counter",
            "tile steps completed",
            |r: &RankSnapshot| r.steps_done
        );
        per_rank!(
            "tsgemm_rank_bytes_sent_total",
            "counter",
            "payload bytes sent",
            |r: &RankSnapshot| r.bytes_sent
        );
        per_rank!(
            "tsgemm_rank_bytes_recv_total",
            "counter",
            "payload bytes received",
            |r: &RankSnapshot| r.bytes_recv
        );
        per_rank!(
            "tsgemm_rank_send_rate_bytes_per_second",
            "gauge",
            "sent-byte rate over the sliding window",
            |r: &RankSnapshot| format!("{:.3}", r.send_rate_bps)
        );
        family(
            &mut out,
            "tsgemm_rank_mode_picks_total",
            "counter",
            "symbolic sub-tile mode decisions",
        );
        for r in &self.ranks {
            out.push_str(&format!(
                "tsgemm_rank_mode_picks_total{{rank=\"{}\",mode=\"local\"}} {}\n",
                r.rank, r.modes_local
            ));
            out.push_str(&format!(
                "tsgemm_rank_mode_picks_total{{rank=\"{}\",mode=\"remote\"}} {}\n",
                r.rank, r.modes_remote
            ));
        }
        family(
            &mut out,
            "tsgemm_rank_phase_info",
            "gauge",
            "most recent phase tag per rank (value is constant 1)",
        );
        for r in &self.ranks {
            out.push_str(&format!(
                "tsgemm_rank_phase_info{{rank=\"{}\",phase={}}} 1\n",
                r.rank,
                prom_label_value(&r.phase)
            ));
        }
        family(
            &mut out,
            "tsgemm_phase_occupancy_ratio",
            "gauge",
            "fraction of samples each span spent on top of a rank's stack",
        );
        for r in &self.ranks {
            for (tag, frac) in &r.occupancy {
                out.push_str(&format!(
                    "tsgemm_phase_occupancy_ratio{{rank=\"{}\",phase={}}} {:.6}\n",
                    r.rank,
                    prom_label_value(tag),
                    frac
                ));
            }
        }
        family(
            &mut out,
            "tsgemm_comm_bytes_total",
            "counter",
            "rank-to-rank payload bytes by collective kind and symbolic mode",
        );
        for s in &self.matrix {
            for src in 0..s.p {
                for dst in 0..s.p {
                    let v = s.at(src, dst);
                    if v > 0 {
                        out.push_str(&format!(
                            "tsgemm_comm_bytes_total{{src=\"{src}\",dst=\"{dst}\",\
                             kind=\"{}\",mode=\"{}\"}} {v}\n",
                            s.kind, s.mode
                        ));
                    }
                }
            }
        }
        out
    }

    /// JSON document (the `/snapshot.json` schema; see DESIGN §11).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"p\":{},\"run_id\":{},\"running\":{},\"uptime_secs\":{},\
             \"ticks\":{},\
             \"mem\":{{\"live_bytes\":{},\"peak_bytes\":{}}},\
             \"bytes_sent_total\":{},\"send_rate_bps\":{}",
            self.p,
            self.run_id,
            self.running,
            json_f64(self.uptime_secs),
            self.ticks,
            self.mem_live_bytes,
            self.mem_peak_bytes,
            self.total_bytes_sent,
            json_f64(self.send_rate_bps),
        ));
        out.push_str(",\"ranks\":[");
        for (i, r) in self.ranks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rank\":{},\"phase\":{},\"posted\":{},\"done\":{},\
                 \"queue_depth\":{},\"retries\":{},\"steps_started\":{},\
                 \"steps_done\":{},\"modes_local\":{},\"modes_remote\":{},\
                 \"bytes_sent\":{},\"bytes_recv\":{},\"send_rate_bps\":{},\
                 \"stack\":[{}],\"occupancy\":{{{}}}}}",
                r.rank,
                json_string(&r.phase),
                r.posted,
                r.done,
                r.queue_depth(),
                r.retries,
                r.steps_started,
                r.steps_done,
                r.modes_local,
                r.modes_remote,
                r.bytes_sent,
                r.bytes_recv,
                json_f64(r.send_rate_bps),
                r.stack
                    .iter()
                    .map(|s| json_string(s))
                    .collect::<Vec<_>>()
                    .join(","),
                r.occupancy
                    .iter()
                    .map(|(tag, frac)| format!("{}:{}", json_string(tag), json_f64(*frac)))
                    .collect::<Vec<_>>()
                    .join(","),
            ));
        }
        out.push_str("],\"matrix\":[");
        for (i, s) in self.matrix.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"kind\":{},\"mode\":{},\"p\":{},\"cells\":[{}]}}",
                json_string(&s.kind),
                json_string(&s.mode),
                s.p,
                s.cells
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
            ));
        }
        out.push_str("],\"folded\":{");
        for (i, (stack, n)) in self.folded.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{n}", json_string(stack)));
        }
        out.push_str("}}");
        out
    }

    /// Folded-stack text (`stack;frames count` per line) — flamegraph input.
    pub fn folded_text(&self) -> String {
        let mut out = String::new();
        for (stack, n) in &self.folded {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&n.to_string());
            out.push('\n');
        }
        out
    }
}

/// Quotes and escapes a Prometheus label value.
fn prom_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// The telemetry service
// ---------------------------------------------------------------------------

struct Shared {
    addr: SocketAddr,
    sample_every: Duration,
    state: Mutex<AggState>,
}

/// Handle to the process-wide telemetry service (aggregator + endpoint).
pub struct Telemetry {
    shared: Arc<Shared>,
}

impl Telemetry {
    /// Binds the endpoint and starts the aggregator and server threads.
    /// `addr` may use port 0 for an OS-assigned port.
    pub fn bind(addr: &str, sample_every: Duration) -> std::io::Result<Telemetry> {
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared {
            addr: listener.local_addr()?,
            sample_every: sample_every.max(Duration::from_micros(100)),
            state: Mutex::new(AggState::new()),
        });
        let agg = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("tsgemm-telemetry-agg".into())
            .spawn(move || aggregator_loop(&agg))
            .expect("spawn telemetry aggregator");
        let srv = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("tsgemm-telemetry-http".into())
            .spawn(move || serve_loop(&srv, listener))
            .expect("spawn telemetry server");
        Ok(Telemetry { shared })
    }

    /// The actually-bound endpoint address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Starts a run over `logs`, one per rank in world-rank order: resets
    /// the aggregate state, and the aggregator reads these logs until
    /// [`Telemetry::end_run`].
    pub(crate) fn begin_run(&self, logs: &[Arc<Mutex<RankLog>>]) {
        let mut st = lock(&self.shared.state);
        let run_id = st.run_id + 1;
        *st = AggState::new();
        st.p = logs.len();
        st.run_id = run_id;
        st.running = true;
        st.logs = logs.to_vec();
        st.ranks = vec![RankState::default(); logs.len()];
    }

    /// Seals the current run: reads every rank log one last time, lets go
    /// of the logs and marks the run finished. The endpoint keeps serving
    /// this final state until the next run begins.
    pub(crate) fn end_run(&self) {
        let mut st = lock(&self.shared.state);
        st.read();
        st.logs.clear();
        st.running = false;
    }

    /// A point-in-time view of the aggregate state.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        lock(&self.shared.state).snapshot()
    }
}

fn aggregator_loop(shared: &Shared) {
    loop {
        {
            let mut st = lock(&shared.state);
            if st.running {
                st.read();
                st.sample(Instant::now());
            }
        }
        std::thread::sleep(shared.sample_every);
    }
}

// ---------------------------------------------------------------------------
// HTTP endpoint
// ---------------------------------------------------------------------------

fn serve_loop(shared: &Shared, listener: TcpListener) {
    for conn in listener.incoming() {
        let Ok(stream) = conn else { continue };
        // Serve inline: scrapes are tiny and rare relative to the run, and
        // a single-threaded server cannot be wedged into unbounded threads.
        let _ = handle_conn(shared, stream);
    }
}

fn handle_conn(shared: &Shared, mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = [0u8; 2048];
    let mut used = 0;
    // Read until the end of the request head (we ignore any body).
    while used < buf.len() {
        let n = stream.read(&mut buf[used..])?;
        if n == 0 {
            break;
        }
        used += n;
        if buf[..used].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf[..used]);
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("/");
    let path = path.split('?').next().unwrap_or("/");

    let snap = lock(&shared.state).snapshot();
    let (status, ctype, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            "GET only\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                snap.to_prometheus(),
            ),
            "/snapshot.json" => ("200 OK", "application/json", snap.to_json()),
            "/stacks.folded" => ("200 OK", "text/plain; charset=utf-8", snap.folded_text()),
            "/" => (
                "200 OK",
                "text/plain; charset=utf-8",
                "tsgemm telemetry endpoint\n\
                 /metrics        Prometheus text exposition\n\
                 /snapshot.json  full JSON snapshot\n\
                 /stacks.folded  folded span stacks (flamegraph input)\n"
                    .to_string(),
            ),
            _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
        }
    };
    let resp = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(resp.as_bytes())
}

// ---------------------------------------------------------------------------
// Global (env-gated) instance
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Option<Telemetry>> = OnceLock::new();

/// The process-wide telemetry service, constructed lazily from
/// `TSGEMM_TELEMETRY_ADDR` on first call. Returns `None` — allocating
/// nothing, constructing no channel — when the variable is unset or the
/// bind fails (a bind failure warns on stderr rather than killing the run).
pub fn global() -> Option<&'static Telemetry> {
    GLOBAL
        .get_or_init(|| {
            let addr = std::env::var_os(TELEMETRY_ADDR_ENV)?;
            let addr = addr.to_string_lossy().into_owned();
            if addr.is_empty() {
                return None;
            }
            let sample_ms = std::env::var(TELEMETRY_SAMPLE_ENV)
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(1)
                .max(1);
            match Telemetry::bind(&addr, Duration::from_millis(sample_ms)) {
                Ok(t) => {
                    eprintln!("tsgemm telemetry: serving on http://{}/", t.addr());
                    Some(t)
                }
                Err(e) => {
                    eprintln!("tsgemm telemetry: cannot bind {addr}: {e}");
                    None
                }
            }
        })
        .as_ref()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{FlightEventKind, DEFAULT_FLIGHT_CAPACITY};
    use crate::stats::{CollectiveRecord, GroupInfo};

    fn tel() -> Telemetry {
        Telemetry::bind("127.0.0.1:0", Duration::from_micros(200)).unwrap()
    }

    /// `p` rank logs, as `World` builds them.
    fn logs(p: usize) -> Vec<Arc<Mutex<RankLog>>> {
        (0..p)
            .map(|rank| Arc::new(Mutex::new(RankLog::new(rank))))
            .collect()
    }

    /// A completed collective in which the log's rank sent `bytes` to
    /// world rank `dst`.
    fn send(log: &Mutex<RankLog>, tag: &str, dst: usize, bytes: u64) {
        let rec = CollectiveRecord {
            kind: CollKind::AllToAllV,
            tag: tag.to_string(),
            group: Arc::new(GroupInfo {
                world_ranks: Vec::new(),
            }),
            bytes_to: vec![(dst, bytes)],
            bytes_received: 0,
            recv_msgs: 0,
            uniform_bytes: 0,
            wait_secs: 0.0,
            injected_delay_secs: 0.0,
            entered_secs: 0.0,
        };
        lock(log).coll_done(0, rec, Instant::now());
    }

    /// One aggregator tick on the calling thread.
    fn tick(t: &Telemetry) {
        let mut st = lock(&t.shared.state);
        st.read();
        st.sample(Instant::now());
    }

    #[test]
    fn aggregator_builds_matrix_and_stacks() {
        let t = tel();
        let logs = logs(2);
        t.begin_run(&logs);
        let posted = FlightEventKind::CollPosted {
            seq: 0,
            kind: CollKind::AllToAllV,
        };
        lock(&logs[0]).event("ts:bfetch", posted);
        send(&logs[0], "ts:bfetch", 1, 96);
        send(&logs[1], "ts:cret", 0, 32);
        lock(&logs[0]).event("ts", posted);
        // Spans are sampled while open: tick once, then close.
        lock(&logs[0]).span_open("ts:kernel");
        tick(&t);
        lock(&logs[0]).span_close("ts:kernel".into(), Instant::now(), false);
        t.end_run();
        let snap = t.snapshot();
        assert_eq!(snap.p, 2);
        assert!(!snap.running);
        assert_eq!(snap.matrix_bytes(None, Some("local")), 96);
        assert_eq!(snap.matrix_bytes(None, Some("remote")), 32);
        assert_eq!(snap.matrix_bytes(Some("AllToAllV"), None), 128);
        let local = snap
            .matrix
            .iter()
            .find(|s| s.mode == "local")
            .expect("local slice");
        assert_eq!(local.at(0, 1), 96);
        assert_eq!(local.row_sum(0), 96);
        assert_eq!(local.col_sum(1), 96);
        assert_eq!(snap.ranks[0].phase, "ts");
        assert_eq!(snap.ranks[0].queue_depth(), 1);
        assert!(snap.ranks[0].stack.is_empty());
        // The open span was sampled at least once into the folded stacks.
        assert!(
            snap.folded.keys().any(|k| k == "rank 0;ts:kernel"),
            "folded: {:?}",
            snap.folded
        );
    }

    #[test]
    fn begin_run_resets_state_and_bumps_run_id() {
        let t = tel();
        let first = logs(1);
        t.begin_run(&first);
        send(&first[0], "x", 0, 7);
        t.end_run();
        let snap = t.snapshot();
        assert_eq!(snap.run_id, 1);
        assert_eq!(snap.matrix_bytes(None, None), 7);
        t.begin_run(&logs(3));
        let snap = t.snapshot();
        assert_eq!(snap.run_id, 2);
        assert_eq!(snap.p, 3);
        assert!(snap.running);
        assert_eq!(snap.matrix_bytes(None, None), 0);
    }

    #[test]
    fn counts_stay_exact_after_the_flight_ring_wraps() {
        let t = tel();
        let logs = logs(1);
        t.begin_run(&logs);
        let n = 3 * DEFAULT_FLIGHT_CAPACITY as u64;
        for i in 0..n {
            let mode = FlightEventKind::TileMode {
                rb: 0,
                cb: i as u32,
                peer: 0,
                remote: i % 3 == 0,
            };
            lock(&logs[0]).event("ts:modes", mode);
        }
        t.end_run();
        let ring = &lock(&logs[0]).flight;
        assert_eq!(ring.total_recorded(), n);
        assert_eq!(ring.in_order().count(), DEFAULT_FLIGHT_CAPACITY);
        let live = &t.snapshot().ranks[0];
        assert_eq!(live.modes_remote, n / 3);
        assert_eq!(live.modes_local, n - n / 3);
        assert_eq!(
            Arc::strong_count(&logs[0]),
            1,
            "end_run must let go of the rank logs"
        );
    }

    #[test]
    fn http_endpoint_serves_all_routes() {
        let t = tel();
        let logs = logs(2);
        t.begin_run(&logs);
        send(&logs[0], "ts:bfetch", 1, 64);
        lock(&logs[0]).span_open("ts:pack");
        tick(&t);

        let get = |path: &str| -> (String, String) {
            let mut s = TcpStream::connect(t.addr()).unwrap();
            s.write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
                .unwrap();
            let mut resp = String::new();
            s.read_to_string(&mut resp).unwrap();
            let (head, body) = resp.split_once("\r\n\r\n").unwrap();
            (head.to_string(), body.to_string())
        };

        let (head, body) = get("/metrics");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(body.contains("tsgemm_up 1"));
        assert!(body.contains("# TYPE tsgemm_comm_bytes_total counter"));
        assert!(body.contains(
            "tsgemm_comm_bytes_total{src=\"0\",dst=\"1\",kind=\"AllToAllV\",mode=\"local\"} 64"
        ));

        let (head, body) = get("/snapshot.json");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(body.starts_with('{') && body.ends_with('}'));
        assert!(body.contains("\"bytes_sent_total\""));
        assert!(body.contains("\"kind\":\"AllToAllV\""));

        let (head, body) = get("/stacks.folded");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(body.contains("rank 0;ts:pack "), "{body}");

        let (head, _) = get("/nope");
        assert!(head.starts_with("HTTP/1.0 404"));
        t.end_run();
    }

    #[test]
    fn prometheus_families_are_declared_before_samples() {
        let t = tel();
        t.begin_run(&logs(2));
        let text = t.snapshot().to_prometheus();
        let mut declared = std::collections::BTreeSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                declared.insert(rest.split(' ').next().unwrap().to_string());
            } else if !line.starts_with('#') && !line.is_empty() {
                let name = line.split(['{', ' ']).next().unwrap();
                assert!(declared.contains(name), "sample before TYPE: {line}");
            }
        }
        t.end_run();
    }

    #[test]
    fn mode_classification_follows_tag_suffix() {
        assert_eq!(mode_index("ts:bfetch"), 0);
        assert_eq!(mode_index("bfs:i3:bfetch"), 0);
        assert_eq!(mode_index("ts:cret"), 1);
        assert_eq!(mode_index("ts:modes"), 2);
        assert_eq!(mode_index("comm:split"), 2);
    }

    #[test]
    fn snapshot_json_is_parseable_shape() {
        let t = tel();
        let logs = logs(1);
        t.begin_run(&logs);
        lock(&logs[0]).event("a\"b", FlightEventKind::StepStart { rb: 0, cb: 0 });
        t.end_run();
        let json = t.snapshot().to_json();
        // Escaped quote survives, braces balance.
        assert!(json.contains("a\\\"b"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
