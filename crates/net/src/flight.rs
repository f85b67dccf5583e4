//! Always-on flight recorder: a fixed-capacity per-rank ring buffer of
//! typed runtime events.
//!
//! The metrics registry and the Chrome trace answer "what did the run do,
//! in aggregate" — but only when tracing was switched on *before* the run.
//! The flight recorder answers the postmortem question "what were the last
//! things this rank did before it died", and it must answer it for runs
//! nobody expected to fail, so it is always on. That forces the design:
//!
//! * **fixed capacity** — a ring of [`FlightEvent`]s allocated once at rank
//!   start; recording an event never allocates (events are `Copy`, tags are
//!   truncated into an inline byte array). `tests/memory_invariant.rs`
//!   pins the no-allocation property with the instrumented allocator.
//! * **typed events** — collective posted/completed (with seq, kind and
//!   byte counts), retries, per-sub-tile mode decisions, and tile-step
//!   start/end markers; enough to reconstruct the last few bulk-synchronous
//!   steps of a rank without any other instrumentation.
//! * **wired into failure paths** — [`crate::World::try_run`] copies each
//!   rank's recent events into the [`crate::HangReport`], and trace dumps
//!   write the full rings as `flight.jsonl` next to `trace.json` via
//!   [`write_flight_jsonl`].

use crate::stats::CollKind;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Default ring capacity (events per rank). 256 events cover several full
/// tile steps (a step is ~2 collectives + 2 markers + a handful of mode
/// decisions) while keeping the ring at a few tens of KiB per rank.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// Longest tag preserved verbatim in a flight event; longer tags are
/// truncated (at a char boundary). Inline storage keeps events `Copy` and
/// recording allocation-free.
pub const FLIGHT_TAG_MAX: usize = 23;

/// A phase tag stored inline (truncated UTF-8), so events never allocate.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightTag {
    len: u8,
    truncated: bool,
    buf: [u8; FLIGHT_TAG_MAX],
}

impl FlightTag {
    pub fn new(tag: &str) -> Self {
        let mut n = tag.len().min(FLIGHT_TAG_MAX);
        while !tag.is_char_boundary(n) {
            n -= 1;
        }
        let mut buf = [0u8; FLIGHT_TAG_MAX];
        buf[..n].copy_from_slice(&tag.as_bytes()[..n]);
        Self {
            len: n as u8,
            truncated: n < tag.len(),
            buf,
        }
    }

    pub fn as_str(&self) -> &str {
        // Construction only ever copies up to a char boundary of valid UTF-8.
        std::str::from_utf8(&self.buf[..self.len as usize]).unwrap_or("")
    }

    /// True when the original tag exceeded [`FLIGHT_TAG_MAX`] bytes and was
    /// cut. Truncated tags can collide — `inspect lint-trace` warns on them.
    pub fn truncated(&self) -> bool {
        self.truncated
    }
}

impl std::fmt::Debug for FlightTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

/// What happened. All payloads are plain scalars so the event is `Copy`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlightEventKind {
    /// A collective was entered (recorded *before* any fault can fire, so a
    /// crashed rank's ring always ends with the collective that killed it).
    CollPosted { seq: u64, kind: CollKind },
    /// A collective completed, with the bytes it moved.
    CollDone {
        seq: u64,
        kind: CollKind,
        sent: u64,
        recv: u64,
    },
    /// A transiently-failed collective is being retried.
    Retry { attempt: u32 },
    /// The symbolic phase chose a fetch mode for sub-tile `(rb, cb)` owned
    /// by group rank `peer`.
    TileMode {
        rb: u32,
        cb: u32,
        peer: u32,
        remote: bool,
    },
    /// A tile step `(rb, cb)` began on this rank.
    StepStart { rb: u32, cb: u32 },
    /// A tile step `(rb, cb)` finished on this rank.
    StepEnd { rb: u32, cb: u32 },
}

/// One ring entry: when, in which phase, what.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlightEvent {
    /// Seconds since the recorder's epoch (rank start).
    pub t_secs: f64,
    pub tag: FlightTag,
    pub kind: FlightEventKind,
}

/// Fixed-capacity ring of [`FlightEvent`]s for one rank.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    world_rank: usize,
    capacity: usize,
    /// Backing store; grows (within the pre-reserved capacity) until full,
    /// then old events are overwritten in place.
    events: Vec<FlightEvent>,
    /// Total events ever recorded; `total % capacity` is the write position.
    total: u64,
    epoch: Instant,
}

impl FlightRecorder {
    pub fn new(world_rank: usize) -> Self {
        Self::with_capacity(world_rank, DEFAULT_FLIGHT_CAPACITY)
    }

    pub fn with_capacity(world_rank: usize, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            world_rank,
            capacity,
            events: Vec::with_capacity(capacity),
            total: 0,
            epoch: Instant::now(),
        }
    }

    pub fn world_rank(&self) -> usize {
        self.world_rank
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (may exceed [`FlightRecorder::capacity`];
    /// the ring keeps the most recent `capacity` of them).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Records one event and returns its inline tag. Never allocates: the
    /// backing store was reserved at construction, so this is a
    /// bounds-checked write plus a clock read.
    #[inline]
    pub fn record(&mut self, tag: &str, kind: FlightEventKind) -> FlightTag {
        // Runtime tags are designed to fit inline; a longer one silently
        // collides after truncation, so catch it in debug builds. (Postmortem
        // tooling also warns: truncated events carry `"truncated":true` in
        // flight.jsonl and `inspect lint-trace` flags collisions.)
        debug_assert!(
            tag.len() <= FLIGHT_TAG_MAX,
            "flight tag {tag:?} exceeds FLIGHT_TAG_MAX ({FLIGHT_TAG_MAX} bytes) and will be truncated"
        );
        let tag = FlightTag::new(tag);
        let ev = FlightEvent {
            t_secs: self.epoch.elapsed().as_secs_f64(),
            tag,
            kind,
        };
        let pos = (self.total % self.capacity as u64) as usize;
        if self.events.len() < self.capacity {
            debug_assert_eq!(pos, self.events.len());
            self.events.push(ev);
        } else {
            self.events[pos] = ev;
        }
        self.total += 1;
        tag
    }

    /// Retained events, oldest first.
    pub fn in_order(&self) -> impl Iterator<Item = &FlightEvent> {
        let split = if self.total as usize > self.capacity {
            (self.total % self.capacity as u64) as usize
        } else {
            0
        };
        self.events[split..]
            .iter()
            .chain(self.events[..split].iter())
    }

    /// The most recent `n` events, oldest first, rendered for humans
    /// (hang reports embed these).
    pub fn tail_strings(&self, n: usize) -> Vec<String> {
        let kept = self.events.len();
        self.in_order()
            .skip(kept.saturating_sub(n))
            .map(render_event)
            .collect()
    }

    /// One `flight.jsonl` line per retained event. `i` is the event's index
    /// in the rank's full stream (so readers can see how much the ring
    /// dropped).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let first = self.total - self.events.len() as u64;
        for (off, ev) in self.in_order().enumerate() {
            out.push_str(&event_json(self.world_rank, first + off as u64, ev));
            out.push('\n');
        }
        out
    }
}

fn render_event(ev: &FlightEvent) -> String {
    let tag = ev.tag.as_str();
    match ev.kind {
        FlightEventKind::CollPosted { seq, kind } => {
            format!("[{:>9.6}s] {tag}: posted {kind:?} #{seq}", ev.t_secs)
        }
        FlightEventKind::CollDone {
            seq,
            kind,
            sent,
            recv,
        } => format!(
            "[{:>9.6}s] {tag}: done {kind:?} #{seq} sent={sent}B recv={recv}B",
            ev.t_secs
        ),
        FlightEventKind::Retry { attempt } => {
            format!("[{:>9.6}s] {tag}: retry attempt {attempt}", ev.t_secs)
        }
        FlightEventKind::TileMode {
            rb,
            cb,
            peer,
            remote,
        } => format!(
            "[{:>9.6}s] {tag}: tile ({rb},{cb}) peer {peer} mode {}",
            ev.t_secs,
            if remote { "remote" } else { "local" }
        ),
        FlightEventKind::StepStart { rb, cb } => {
            format!("[{:>9.6}s] {tag}: step ({rb},{cb}) start", ev.t_secs)
        }
        FlightEventKind::StepEnd { rb, cb } => {
            format!("[{:>9.6}s] {tag}: step ({rb},{cb}) end", ev.t_secs)
        }
    }
}

fn event_json(rank: usize, i: u64, ev: &FlightEvent) -> String {
    use crate::metrics::json_string;
    let head = format!(
        "{{\"rank\":{rank},\"i\":{i},\"t\":{:.9},\"tag\":{}{}",
        ev.t_secs,
        json_string(ev.tag.as_str()),
        if ev.tag.truncated() {
            ",\"truncated\":true"
        } else {
            ""
        }
    );
    let body = match ev.kind {
        FlightEventKind::CollPosted { seq, kind } => {
            format!("\"event\":\"coll_posted\",\"seq\":{seq},\"kind\":\"{kind:?}\"")
        }
        FlightEventKind::CollDone {
            seq,
            kind,
            sent,
            recv,
        } => format!(
            "\"event\":\"coll_done\",\"seq\":{seq},\"kind\":\"{kind:?}\",\
             \"bytes_sent\":{sent},\"bytes_recv\":{recv}"
        ),
        FlightEventKind::Retry { attempt } => {
            format!("\"event\":\"retry\",\"attempt\":{attempt}")
        }
        FlightEventKind::TileMode {
            rb,
            cb,
            peer,
            remote,
        } => format!(
            "\"event\":\"tile_mode\",\"rb\":{rb},\"cb\":{cb},\"peer\":{peer},\
             \"mode\":\"{}\"",
            if remote { "remote" } else { "local" }
        ),
        FlightEventKind::StepStart { rb, cb } => {
            format!("\"event\":\"step_start\",\"rb\":{rb},\"cb\":{cb}")
        }
        FlightEventKind::StepEnd { rb, cb } => {
            format!("\"event\":\"step_end\",\"rb\":{rb},\"cb\":{cb}")
        }
    };
    format!("{head},{body}}}")
}

/// Writes every rank's ring into `dir/flight.jsonl` (one JSON object per
/// line, ranks concatenated in order). Returns the path.
pub fn write_flight_jsonl(dir: &Path, flights: &[FlightRecorder]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("flight.jsonl");
    let mut body = String::new();
    for f in flights {
        body.push_str(&f.to_jsonl());
    }
    std::fs::write(&path, body)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_truncates_at_char_boundary() {
        let t = FlightTag::new("short");
        assert_eq!(t.as_str(), "short");
        assert!(!t.truncated());
        let long = "x".repeat(40);
        let cut = FlightTag::new(&long);
        assert_eq!(cut.as_str().len(), FLIGHT_TAG_MAX);
        assert!(cut.truncated());
        // Multi-byte char straddling the cut must not split.
        let uni = format!("{}é", "a".repeat(FLIGHT_TAG_MAX - 1));
        let cut = FlightTag::new(&uni);
        assert_eq!(cut.as_str(), "a".repeat(FLIGHT_TAG_MAX - 1));
        assert!(cut.truncated());
    }

    #[test]
    fn truncated_tags_are_flagged_in_jsonl() {
        let ev = FlightEvent {
            t_secs: 0.0,
            tag: FlightTag::new(&"y".repeat(40)),
            kind: FlightEventKind::Retry { attempt: 1 },
        };
        let line = event_json(0, 0, &ev);
        assert!(line.contains("\"truncated\":true"), "{line}");
        let short = FlightEvent {
            t_secs: 0.0,
            tag: FlightTag::new("ok"),
            kind: FlightEventKind::Retry { attempt: 1 },
        };
        assert!(!event_json(0, 0, &short).contains("truncated"));
    }

    #[test]
    #[should_panic(expected = "exceeds FLIGHT_TAG_MAX")]
    #[cfg(debug_assertions)]
    fn record_asserts_on_oversized_tag() {
        let mut r = FlightRecorder::with_capacity(0, 4);
        r.record(&"z".repeat(40), FlightEventKind::Retry { attempt: 1 });
    }

    #[test]
    fn ring_keeps_most_recent_events_in_order() {
        let mut r = FlightRecorder::with_capacity(0, 4);
        for i in 0..10u64 {
            r.record(
                "t",
                FlightEventKind::CollPosted {
                    seq: i,
                    kind: CollKind::Barrier,
                },
            );
        }
        assert_eq!(r.total_recorded(), 10);
        let seqs: Vec<u64> = r
            .in_order()
            .map(|e| match e.kind {
                FlightEventKind::CollPosted { seq, .. } => seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        // Timestamps are monotone in ring order.
        let ts: Vec<f64> = r.in_order().map(|e| e.t_secs).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn partial_ring_iterates_from_start() {
        let mut r = FlightRecorder::with_capacity(2, 8);
        r.record("a", FlightEventKind::StepStart { rb: 0, cb: 1 });
        r.record("a", FlightEventKind::StepEnd { rb: 0, cb: 1 });
        assert_eq!(r.in_order().count(), 2);
        assert_eq!(r.tail_strings(1).len(), 1);
        assert!(r.tail_strings(1)[0].contains("end"));
    }

    #[test]
    fn jsonl_lines_carry_rank_index_and_fields() {
        let mut r = FlightRecorder::with_capacity(3, 2);
        for i in 0..3u64 {
            r.record(
                "ts:bfetch",
                FlightEventKind::CollDone {
                    seq: i,
                    kind: CollKind::AllToAllV,
                    sent: 10 * i,
                    recv: 20 * i,
                },
            );
        }
        let body = r.to_jsonl();
        let lines: Vec<&str> = body.lines().collect();
        // Capacity 2, 3 recorded: indices 1 and 2 survive.
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"i\":1"));
        assert!(lines[1].contains("\"i\":2"));
        assert!(lines[0].contains("\"rank\":3"));
        assert!(lines[0].contains("\"event\":\"coll_done\""));
        assert!(lines[0].contains("\"kind\":\"AllToAllV\""));
        assert!(lines[1].contains("\"bytes_sent\":20"));
    }

    #[test]
    fn recording_does_not_grow_backing_store() {
        let mut r = FlightRecorder::with_capacity(0, 16);
        let cap_before = r.events.capacity();
        for _ in 0..1000 {
            r.record("x", FlightEventKind::Retry { attempt: 1 });
        }
        assert_eq!(r.events.capacity(), cap_before);
        assert_eq!(r.in_order().count(), 16);
    }

    #[test]
    fn write_flight_jsonl_concatenates_ranks() {
        let mut a = FlightRecorder::with_capacity(0, 4);
        let mut b = FlightRecorder::with_capacity(1, 4);
        a.record("p", FlightEventKind::StepStart { rb: 0, cb: 0 });
        b.record("p", FlightEventKind::StepStart { rb: 0, cb: 0 });
        let dir = std::env::temp_dir().join(format!("tsgemm-flight-test-{}", std::process::id()));
        let path = write_flight_jsonl(&dir, &[a, b]).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 2);
        assert!(body.contains("\"rank\":0"));
        assert!(body.contains("\"rank\":1"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
