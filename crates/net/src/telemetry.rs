//! Live telemetry: per-rank lock-free event rings, a streaming aggregator,
//! and a zero-dependency scrape endpoint.
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
//! * **Per-rank SPSC ring** ([`EventRing`]) — a bounded Lamport queue of
//!   `Copy` [`TelEvent`]s. The producer is the rank thread (all of a rank's
//!   communicators, including [`crate::Comm::split`] children, share one
//!   ring and live on one OS thread, so single-producer holds); the consumer
//!   is the aggregator. A full ring drops the event and counts the drop —
//!   recording never blocks and never allocates.
//! * **Aggregator** — one background thread drains every ring at a fixed
//!   cadence (`TSGEMM_TELEMETRY_SAMPLE_MS`, default 1 ms) and folds events
//!   into rolling state: counter rates over a sliding window, live/peak
//!   memory from [`crate::alloc`] when the counting allocator is active,
//!   per-rank collective queue depth (posted − completed), and a full
//!   rank×rank byte matrix split by collective kind *and* by symbolic mode
//!   pick (`:bfetch` traffic is the local mode shipping B rows, `:cret` is
//!   the remote mode returning partial C).
//! * **Sampling profiler** — the same aggregator tick snapshots each rank's
//!   live [`crate::SpanGuard`] stack (reconstructed from push/pop events)
//!   into folded-stack form, i.e. flamegraph input, with zero per-sample
//!   cost on the rank threads.
//! * **Scrape endpoint** — a `std::net::TcpListener` HTTP server (no
//!   dependencies) serving Prometheus text exposition at `/metrics`, a JSON
//!   snapshot at `/snapshot.json` and folded stacks at `/stacks.folded`.
//!
//! The whole subsystem is gated on `TSGEMM_TELEMETRY_ADDR`: when the
//! variable is unset, [`global`] returns `None` without constructing
//! anything — not even the rings — so an untelemetered run pays exactly one
//! `OnceLock` load per [`crate::World::run`] (pinned allocation-free in
//! `tests/memory_invariant.rs`). Bind to port 0 (`127.0.0.1:0`) to let the
//! OS pick a free port; [`Telemetry::addr`] reports the actual one.

use crate::alloc;
use crate::flight::{FlightEventKind, FlightTag};
use crate::metrics::{json_f64, json_string};
use crate::rank_log::lock;
use crate::stats::CollKind;
use std::cell::UnsafeCell;
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::mem::MaybeUninit;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Environment variable that switches telemetry on and names the bind
/// address (e.g. `127.0.0.1:9187`, or `127.0.0.1:0` for an ephemeral port).
pub const TELEMETRY_ADDR_ENV: &str = "TSGEMM_TELEMETRY_ADDR";

/// Environment variable overriding the aggregator drain/sample cadence in
/// milliseconds (default 1).
pub const TELEMETRY_SAMPLE_ENV: &str = "TSGEMM_TELEMETRY_SAMPLE_MS";

/// Events each rank's ring can hold before it starts dropping (a power of
/// two; ~8k events absorb several full tile steps between 1 ms drains).
pub const RING_CAPACITY: usize = 1 << 13;

/// Width of the sliding window the aggregator computes rates over.
const RATE_WINDOW: Duration = Duration::from_secs(5);

/// How long [`Telemetry::sync`] is willing to wait for the aggregator.
const SYNC_TIMEOUT: Duration = Duration::from_secs(5);

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// What a rank reports to the aggregator. All payloads are `Copy`.
#[derive(Clone, Copy, Debug)]
pub enum TelEventKind {
    /// A flight-recorder event, forwarded verbatim (collective posted /
    /// completed, retries, mode picks, tile-step markers).
    Flight(FlightEventKind),
    /// Sender-side bytes for one destination of one collective: this rank
    /// moved `bytes` payload bytes to world rank `dst`. These populate the
    /// rank×rank matrix.
    Edge {
        dst: u32,
        kind: CollKind,
        bytes: u64,
    },
    /// A [`crate::SpanGuard`] opened on this rank.
    SpanPush,
    /// The most recently opened live span on this rank closed.
    SpanPop,
}

/// One ring entry.
#[derive(Clone, Copy, Debug)]
pub struct TelEvent {
    /// World rank of the producer.
    pub rank: u32,
    /// Phase tag (inline, truncated like flight tags).
    pub tag: FlightTag,
    pub kind: TelEventKind,
}

// ---------------------------------------------------------------------------
// SPSC ring
// ---------------------------------------------------------------------------

/// Bounded single-producer single-consumer ring of [`TelEvent`]s (Lamport
/// queue). `push` runs on the rank thread and never blocks, allocates or
/// spins; `pop` runs on the aggregator thread. Overflow drops the event and
/// bumps a counter rather than stalling the run.
pub struct EventRing {
    slots: Box<[UnsafeCell<MaybeUninit<TelEvent>>]>,
    /// Consumer position (only advanced by `pop`).
    head: AtomicUsize,
    /// Producer position (only advanced by `push`).
    tail: AtomicUsize,
    dropped: AtomicU64,
}

// Safety: `head`/`tail` ordering (release on publish, acquire on observe)
// ensures a slot is only read after its write completed and only reused
// after its read completed; the SPSC contract (one pushing thread, one
// popping thread) is upheld by construction — each rank thread owns its
// ring's producer side, the aggregator owns every consumer side.
unsafe impl Sync for EventRing {}
unsafe impl Send for EventRing {}

impl EventRing {
    fn new(capacity: usize) -> Self {
        let slots = (0..capacity.max(2))
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            slots,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Producer side. Returns `false` (and counts a drop) when full.
    #[inline]
    pub fn push(&self, ev: TelEvent) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let slot = &self.slots[tail % self.slots.len()];
        // Safety: the slot is ours — the consumer will not read it until the
        // tail store below publishes it, and cannot lap us (capacity check).
        unsafe { (*slot.get()).write(ev) };
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        true
    }

    /// Consumer side.
    #[inline]
    pub fn pop(&self) -> Option<TelEvent> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = &self.slots[head % self.slots.len()];
        // Safety: tail's release store made this slot's write visible;
        // TelEvent is Copy, so reading it out needs no drop bookkeeping.
        let ev = unsafe { (*slot.get()).assume_init_read() };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(ev)
    }

    /// Events discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// A rank's producer handle: clones share the same ring, so a rank's split
/// sub-communicators and its span guards all feed one channel.
#[derive(Clone)]
pub struct RankTelemetry {
    rank: u32,
    ring: Arc<EventRing>,
}

impl RankTelemetry {
    /// Emits one event (non-blocking; drops on overflow).
    #[inline]
    pub fn emit(&self, tag: &str, kind: TelEventKind) {
        self.ring.push(TelEvent {
            rank: self.rank,
            tag: FlightTag::new(tag),
            kind,
        });
    }
}

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

#[derive(Clone, Debug, Default)]
struct RankState {
    last_phase: String,
    posted: u64,
    done: u64,
    retries: u64,
    steps_started: u64,
    steps_done: u64,
    modes_local: u64,
    modes_remote: u64,
    bytes_sent: u64,
    bytes_recv: u64,
    /// Live span stack, reconstructed from push/pop events.
    stack: Vec<String>,
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
    rings: Vec<Arc<EventRing>>,
    ranks: Vec<RankState>,
    /// `(kind index, mode index)` → row-major `p×p` byte matrix
    /// (`cells[src * p + dst]`).
    matrix: BTreeMap<(usize, usize), Vec<u64>>,
    /// Folded span stacks: `"rank N;outer;inner" → samples`.
    folded: BTreeMap<String, u64>,
    ticks: u64,
    total_bytes_sent: u64,
    window: VecDeque<(Instant, u64)>,
    mem_live: u64,
    mem_peak: u64,
    dropped_drained: u64,
}

impl AggState {
    fn new() -> Self {
        Self {
            p: 0,
            run_id: 0,
            running: false,
            epoch: Instant::now(),
            rings: Vec::new(),
            ranks: Vec::new(),
            matrix: BTreeMap::new(),
            folded: BTreeMap::new(),
            ticks: 0,
            total_bytes_sent: 0,
            window: VecDeque::new(),
            mem_live: 0,
            mem_peak: 0,
            dropped_drained: 0,
        }
    }

    fn apply(&mut self, ev: TelEvent) {
        let p = self.p;
        let Some(rs) = self.ranks.get_mut(ev.rank as usize) else {
            return; // stale handle from a previous run
        };
        let tag = ev.tag.as_str();
        match ev.kind {
            TelEventKind::Flight(f) => {
                rs.last_phase = tag.to_string();
                match f {
                    FlightEventKind::CollPosted { .. } => rs.posted += 1,
                    FlightEventKind::CollDone { sent, recv, .. } => {
                        rs.done += 1;
                        rs.bytes_sent += sent;
                        rs.bytes_recv += recv;
                        self.total_bytes_sent += sent;
                    }
                    FlightEventKind::Retry { .. } => rs.retries += 1,
                    FlightEventKind::TileMode { remote, .. } => {
                        if remote {
                            rs.modes_remote += 1;
                        } else {
                            rs.modes_local += 1;
                        }
                    }
                    FlightEventKind::StepStart { .. } => rs.steps_started += 1,
                    FlightEventKind::StepEnd { .. } => rs.steps_done += 1,
                }
            }
            TelEventKind::Edge { dst, kind, bytes } => {
                let (src, dst) = (ev.rank as usize, dst as usize);
                if src < p && dst < p {
                    let key = (kind_index(kind), mode_index(tag));
                    let cells = self.matrix.entry(key).or_insert_with(|| vec![0; p * p]);
                    cells[src * p + dst] += bytes;
                }
            }
            TelEventKind::SpanPush => rs.stack.push(tag.to_string()),
            TelEventKind::SpanPop => {
                rs.stack.pop();
            }
        }
    }

    /// One sampling tick: span stacks → folded counts + occupancy, memory
    /// gauges, rate-window samples.
    fn sample(&mut self, now: Instant) {
        self.ticks += 1;
        for (rank, rs) in self.ranks.iter_mut().enumerate() {
            let top = rs.stack.last().map(String::as_str).unwrap_or("(no span)");
            *rs.occupancy.entry(top.to_string()).or_insert(0) += 1;
            if !rs.stack.is_empty() {
                let mut key = format!("rank {rank}");
                for frame in &rs.stack {
                    key.push(';');
                    key.push_str(frame);
                }
                *self.folded.entry(key).or_insert(0) += 1;
            }
            rs.window.push_back((now, rs.bytes_sent));
            while rs
                .window
                .front()
                .is_some_and(|&(t, _)| now.duration_since(t) > RATE_WINDOW)
            {
                rs.window.pop_front();
            }
        }
        self.window.push_back((now, self.total_bytes_sent));
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
        self.dropped_drained = self.rings.iter().map(|r| r.dropped()).sum();
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
            dropped_events: self.dropped_drained,
            mem_live_bytes: self.mem_live,
            mem_peak_bytes: self.mem_peak,
            total_bytes_sent: self.total_bytes_sent,
            send_rate_bps: rate(&self.window),
            ticks: self.ticks,
            ranks: self
                .ranks
                .iter()
                .enumerate()
                .map(|(rank, rs)| RankSnapshot {
                    rank,
                    phase: rs.last_phase.clone(),
                    posted: rs.posted,
                    done: rs.done,
                    retries: rs.retries,
                    steps_started: rs.steps_started,
                    steps_done: rs.steps_done,
                    modes_local: rs.modes_local,
                    modes_remote: rs.modes_remote,
                    bytes_sent: rs.bytes_sent,
                    bytes_recv: rs.bytes_recv,
                    send_rate_bps: rate(&rs.window),
                    stack: rs.stack.clone(),
                    occupancy: rs
                        .occupancy
                        .iter()
                        .map(|(tag, &n)| (tag.clone(), n as f64 / self.ticks.max(1) as f64))
                        .collect(),
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
    /// Tag of the most recent flight-derived event — the phase the rank is
    /// in (or died in).
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
    /// Monotone run counter (increments at every [`Telemetry::begin_run`]).
    pub run_id: u64,
    /// False once [`Telemetry::end_run`] sealed the run.
    pub running: bool,
    pub uptime_secs: f64,
    /// Events lost to ring overflow (0 in a healthy run).
    pub dropped_events: u64,
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

    /// The kind/mode-summed `p×p` matrix.
    pub fn total_matrix(&self) -> Vec<u64> {
        let mut cells = vec![0u64; self.p * self.p];
        for s in &self.matrix {
            for (c, v) in cells.iter_mut().zip(&s.cells) {
                *c += v;
            }
        }
        cells
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
            "tsgemm_telemetry_dropped_events_total",
            "counter",
            "events lost to ring overflow",
            self.dropped_events.to_string(),
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
             \"dropped_events\":{},\"ticks\":{},\
             \"mem\":{{\"live_bytes\":{},\"peak_bytes\":{}}},\
             \"bytes_sent_total\":{},\"send_rate_bps\":{}",
            self.p,
            self.run_id,
            self.running,
            json_f64(self.uptime_secs),
            self.dropped_events,
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
    /// Incremented by the aggregator after each complete drain+sample pass;
    /// [`Telemetry::sync`] waits on it.
    drain_gen: AtomicU64,
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
            drain_gen: AtomicU64::new(0),
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

    /// Starts a run of `p` ranks: resets the aggregate state and hands out
    /// one fresh producer ring per rank. Handles from earlier runs keep
    /// working (their ring is simply no longer drained) but feed nothing.
    pub fn begin_run(&self, p: usize) -> Vec<RankTelemetry> {
        let mut st = lock(&self.shared.state);
        let run_id = st.run_id + 1;
        *st = AggState::new();
        st.p = p;
        st.run_id = run_id;
        st.running = true;
        st.rings = (0..p)
            .map(|_| Arc::new(EventRing::new(RING_CAPACITY)))
            .collect();
        st.ranks = vec![RankState::default(); p];
        st.rings
            .iter()
            .enumerate()
            .map(|(rank, ring)| RankTelemetry {
                rank: rank as u32,
                ring: Arc::clone(ring),
            })
            .collect()
    }

    /// Seals the current run: waits for the aggregator to drain everything
    /// the ranks emitted, marks the run finished, and returns the final
    /// snapshot. The endpoint keeps serving this state until the next
    /// [`Telemetry::begin_run`].
    pub fn end_run(&self) -> TelemetrySnapshot {
        self.sync();
        let mut st = lock(&self.shared.state);
        st.running = false;
        st.snapshot()
    }

    /// Blocks until the aggregator has completed two full passes (so every
    /// event pushed before this call has been folded in), or [`SYNC_TIMEOUT`].
    pub fn sync(&self) {
        let start_gen = self.shared.drain_gen.load(Ordering::Acquire);
        let deadline = Instant::now() + SYNC_TIMEOUT;
        while self.shared.drain_gen.load(Ordering::Acquire) < start_gen + 2 {
            if Instant::now() > deadline {
                return;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
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
            // Drain all rings, then take one sample tick. Bounded per ring
            // per pass so a pathological producer cannot starve sampling.
            let rings: Vec<Arc<EventRing>> = st.rings.clone();
            for ring in &rings {
                let mut budget = RING_CAPACITY;
                while budget > 0 {
                    match ring.pop() {
                        Some(ev) => st.apply(ev),
                        None => break,
                    }
                    budget -= 1;
                }
            }
            if st.running {
                st.sample(Instant::now());
            }
        }
        shared.drain_gen.fetch_add(1, Ordering::Release);
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

    fn tel() -> Telemetry {
        Telemetry::bind("127.0.0.1:0", Duration::from_micros(200)).unwrap()
    }

    fn ev(rank: u32, tag: &str, kind: TelEventKind) -> TelEvent {
        TelEvent {
            rank,
            tag: FlightTag::new(tag),
            kind,
        }
    }

    #[test]
    fn ring_is_fifo_and_bounded() {
        let r = EventRing::new(4);
        for i in 0..6u64 {
            r.push(ev(
                0,
                "t",
                TelEventKind::Edge {
                    dst: 0,
                    kind: CollKind::Barrier,
                    bytes: i,
                },
            ));
        }
        // Capacity 4: two pushes dropped.
        assert_eq!(r.dropped(), 2);
        let mut got = Vec::new();
        while let Some(e) = r.pop() {
            match e.kind {
                TelEventKind::Edge { bytes, .. } => got.push(bytes),
                _ => unreachable!(),
            }
        }
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert!(r.pop().is_none());
    }

    #[test]
    fn ring_cross_thread_stress_preserves_order() {
        let r = Arc::new(EventRing::new(256));
        let n = 20_000u64;
        let prod = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                for i in 0..n {
                    while !r.push(ev(
                        0,
                        "s",
                        TelEventKind::Edge {
                            dst: 0,
                            kind: CollKind::Barrier,
                            bytes: i,
                        },
                    )) {
                        std::hint::spin_loop();
                    }
                }
            })
        };
        let mut expected = 0u64;
        while expected < n {
            if let Some(e) = r.pop() {
                match e.kind {
                    TelEventKind::Edge { bytes, .. } => {
                        assert_eq!(bytes, expected);
                        expected += 1;
                    }
                    _ => unreachable!(),
                }
            } else {
                std::hint::spin_loop();
            }
        }
        prod.join().unwrap();
        // Note: `dropped` is not asserted — the producer's retry loop counts
        // every full-ring attempt, which real (no-retry) emitters never do.
    }

    #[test]
    fn aggregator_builds_matrix_and_stacks() {
        let t = tel();
        let handles = t.begin_run(2);
        handles[0].emit(
            "ts:bfetch",
            TelEventKind::Edge {
                dst: 1,
                kind: CollKind::AllToAllV,
                bytes: 96,
            },
        );
        handles[1].emit(
            "ts:cret",
            TelEventKind::Edge {
                dst: 0,
                kind: CollKind::AllToAllV,
                bytes: 32,
            },
        );
        handles[0].emit(
            "ts",
            TelEventKind::Flight(FlightEventKind::CollPosted {
                seq: 0,
                kind: CollKind::Barrier,
            }),
        );
        handles[0].emit("ts:kernel", TelEventKind::SpanPush);
        t.sync();
        // Spans are sampled while open: wait a couple of ticks, then close.
        t.sync();
        handles[0].emit("ts:kernel", TelEventKind::SpanPop);
        let snap = t.end_run();
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
        // The open span was sampled at least once into the folded stacks.
        assert!(
            snap.folded.keys().any(|k| k == "rank 0;ts:kernel"),
            "folded: {:?}",
            snap.folded
        );
        assert_eq!(snap.dropped_events, 0);
    }

    #[test]
    fn begin_run_resets_state_and_bumps_run_id() {
        let t = tel();
        let h = t.begin_run(1);
        h[0].emit(
            "x",
            TelEventKind::Edge {
                dst: 0,
                kind: CollKind::Bcast,
                bytes: 7,
            },
        );
        let first = t.end_run();
        assert_eq!(first.run_id, 1);
        assert_eq!(first.matrix_bytes(None, None), 7);
        let _h2 = t.begin_run(3);
        let snap = t.snapshot();
        assert_eq!(snap.run_id, 2);
        assert_eq!(snap.p, 3);
        assert!(snap.running);
        assert_eq!(snap.matrix_bytes(None, None), 0);
    }

    #[test]
    fn stale_handles_from_previous_runs_are_harmless() {
        let t = tel();
        let old = t.begin_run(2);
        let _new = t.begin_run(1);
        // Old handle's ring is orphaned; rank 1 is also out of range now.
        old[1].emit(
            "x",
            TelEventKind::Edge {
                dst: 0,
                kind: CollKind::Bcast,
                bytes: 100,
            },
        );
        let snap = t.end_run();
        assert_eq!(snap.matrix_bytes(None, None), 0);
    }

    #[test]
    fn http_endpoint_serves_all_routes() {
        let t = tel();
        let h = t.begin_run(2);
        h[0].emit(
            "ts:bfetch",
            TelEventKind::Edge {
                dst: 1,
                kind: CollKind::AllToAllV,
                bytes: 64,
            },
        );
        h[0].emit("ts:pack", TelEventKind::SpanPush);
        t.sync();
        t.sync();

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
        let _ = t.end_run();
    }

    #[test]
    fn prometheus_families_are_declared_before_samples() {
        let t = tel();
        let _h = t.begin_run(2);
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
        let _ = t.end_run();
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
        let h = t.begin_run(1);
        h[0].emit(
            "a\"b",
            TelEventKind::Flight(FlightEventKind::StepStart { rb: 0, cb: 0 }),
        );
        let snap = t.end_run();
        let json = snap.to_json();
        // Escaped quote survives, braces balance.
        assert!(json.contains("a\\\"b"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
