//! The per-rank log: the one place a rank's runtime events are recorded.
//!
//! A rank owns three sinks: its [`RankProfile`] (segments and phase spans),
//! its [`MetricsRegistry`] and its always-on [`FlightRecorder`] ring. Beside
//! them the log keeps a [`Tally`] of live counts and, while live telemetry
//! is attached, the stack of open span tags. Each event site in
//! [`crate::Comm`] calls the log once, and the log routes the event:
//!
//! | event                                | flight ring | tally        | profile          | span stack |
//! |--------------------------------------|-------------|--------------|------------------|------------|
//! | collective posted, retry, mode, step | the event   | counts it    | —                | —          |
//! | collective done                      | `CollDone`  | counts bytes | closes a segment | —          |
//! | span open / close                    | —           | —            | only when traced | push / pop |
//!
//! The span stack is kept only while telemetry is attached.
//!
//! The registry has no routed events: algorithms write it directly through
//! [`crate::Comm::metrics`]. Live telemetry adds no stream of its own: its
//! aggregator locks the log, copies the tally and the span stack, and folds
//! the profile segments added since its last visit into its byte matrix
//! (see [`crate::telemetry`]). A rank's communicators (its
//! [`crate::Comm::split`] children too), its open span guards and, during a
//! telemetered run, the aggregator share one `Arc<Mutex<RankLog>>`.

use crate::flight::{FlightEventKind, FlightRecorder, FlightTag};
use crate::metrics::MetricsRegistry;
use crate::stats::{CollectiveRecord, RankProfile};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Locks `m`, recovering the data when a panicking rank poisoned it: a rank
/// that panics while holding a lock must not make its peers, or `World`'s
/// join, panic a second time.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A rank's live counts, updated with every flight event, so they stay
/// exact after the flight ring wraps.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Tally {
    /// Tag of the most recent event: the phase the rank is in (or died in).
    pub(crate) phase: FlightTag,
    pub(crate) posted: u64,
    pub(crate) done: u64,
    pub(crate) retries: u64,
    pub(crate) steps_started: u64,
    pub(crate) steps_done: u64,
    pub(crate) modes_local: u64,
    pub(crate) modes_remote: u64,
    pub(crate) bytes_sent: u64,
    pub(crate) bytes_recv: u64,
}

impl Tally {
    fn note(&mut self, phase: FlightTag, kind: FlightEventKind) {
        self.phase = phase;
        match kind {
            FlightEventKind::CollPosted { .. } => self.posted += 1,
            FlightEventKind::CollDone { sent, recv, .. } => {
                self.done += 1;
                self.bytes_sent += sent;
                self.bytes_recv += recv;
            }
            FlightEventKind::Retry { .. } => self.retries += 1,
            FlightEventKind::TileMode { remote: false, .. } => self.modes_local += 1,
            FlightEventKind::TileMode { remote: true, .. } => self.modes_remote += 1,
            FlightEventKind::StepStart { .. } => self.steps_started += 1,
            FlightEventKind::StepEnd { .. } => self.steps_done += 1,
        }
    }
}

/// One rank's sinks (see the module docs for which event reaches which).
pub(crate) struct RankLog {
    pub(crate) profile: RankProfile,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) flight: FlightRecorder,
    pub(crate) tally: Tally,
    /// Open span tags, outermost first (pushed only while telemetry is
    /// attached).
    pub(crate) spans: Vec<FlightTag>,
}

impl RankLog {
    pub(crate) fn new(world_rank: usize) -> Self {
        Self {
            profile: RankProfile::new(world_rank),
            metrics: MetricsRegistry::new(),
            flight: FlightRecorder::new(world_rank),
            tally: Tally::default(),
            spans: Vec::new(),
        }
    }

    /// A posted collective, a retry, a mode pick or a step marker: into the
    /// flight ring and the tally under one tag, so the live counts and the
    /// postmortem ring never disagree.
    pub(crate) fn event(&mut self, tag: &str, kind: FlightEventKind) {
        let tag = self.flight.record(tag, kind);
        self.tally.note(tag, kind);
    }

    /// Collective `seq` completed as `rec` after the rank entered it at
    /// `entered`.
    pub(crate) fn coll_done(&mut self, seq: u64, rec: CollectiveRecord, entered: Instant) {
        let done = FlightEventKind::CollDone {
            seq,
            kind: rec.kind,
            sent: rec.bytes_sent(),
            recv: rec.bytes_received,
        };
        self.event(&rec.tag, done);
        self.profile.end_segment(rec, entered);
    }

    /// Opens a span on the live stack (called only while telemetry is
    /// attached).
    pub(crate) fn span_open(&mut self, tag: &str) {
        self.spans.push(FlightTag::new(tag));
    }

    /// Closes the span opened as `tag` at `started`; `traced` spans also
    /// land in the profile.
    pub(crate) fn span_close(&mut self, tag: String, started: Instant, traced: bool) {
        self.spans.pop();
        if traced {
            self.profile.record_span(tag, started);
        }
    }

    /// Splits a finished rank's log into the sinks a run returns. Copies
    /// them out when a communicator outlived the rank function (a `Comm`
    /// returned as the rank's result still holds the handle).
    pub(crate) fn into_parts(
        log: Arc<Mutex<RankLog>>,
    ) -> (RankProfile, MetricsRegistry, FlightRecorder) {
        match Arc::try_unwrap(log) {
            Ok(m) => {
                let log = m.into_inner().unwrap_or_else(PoisonError::into_inner);
                (log.profile, log.metrics, log.flight)
            }
            Err(shared) => {
                let log = lock(&shared);
                (
                    log.profile.snapshot(),
                    log.metrics.clone(),
                    log.flight.clone(),
                )
            }
        }
    }
}
