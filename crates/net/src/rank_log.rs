//! The per-rank log: the one place a rank's runtime events are recorded.
//!
//! A rank owns four sinks: its [`RankProfile`] (segments and phase spans),
//! its [`MetricsRegistry`], its always-on [`FlightRecorder`] ring and, when
//! live telemetry is on, its [`RankTelemetry`] producer. Each event site in
//! [`crate::Comm`] calls the log once, and the log routes the event:
//!
//! | event                                  | flight ring | telemetry          | profile          |
//! |----------------------------------------|-------------|--------------------|------------------|
//! | collective posted, retry, mode, step   | the event   | the same event     | —                |
//! | collective done                        | `CollDone`  | `CollDone` + edges | closes a segment |
//! | span open / close                      | —           | span push / pop    | only when traced |
//!
//! The registry has no routed events: algorithms write it directly through
//! [`crate::Comm::metrics`]. A rank's communicators (its
//! [`crate::Comm::split`] children too) and its open span guards share one
//! `Arc<Mutex<RankLog>>`, and all of them live on the rank thread, which
//! keeps the telemetry ring single-producer.

use crate::flight::{FlightEventKind, FlightRecorder};
use crate::metrics::MetricsRegistry;
use crate::stats::{CollectiveRecord, RankProfile};
use crate::telemetry::{RankTelemetry, TelEventKind};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Locks `m`, recovering the data when a panicking rank poisoned it: a rank
/// that panics while holding a lock must not make its peers, or `World`'s
/// join, panic a second time.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One rank's sinks (see the module docs for which event reaches which).
pub(crate) struct RankLog {
    pub(crate) profile: RankProfile,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) flight: FlightRecorder,
    telemetry: Option<RankTelemetry>,
}

impl RankLog {
    pub(crate) fn new(world_rank: usize, telemetry: Option<RankTelemetry>) -> Self {
        Self {
            profile: RankProfile::new(world_rank),
            metrics: MetricsRegistry::new(),
            flight: FlightRecorder::new(world_rank),
            telemetry,
        }
    }

    /// True when span events feed a live telemetry stack.
    pub(crate) fn telemetry_on(&self) -> bool {
        self.telemetry.is_some()
    }

    fn emit(&self, tag: &str, kind: TelEventKind) {
        if let Some(t) = &self.telemetry {
            t.emit(tag, kind);
        }
    }

    /// A posted collective, a retry, a mode pick or a step marker: into the
    /// flight ring, then to telemetry, so the live view and the postmortem
    /// ring never disagree.
    pub(crate) fn event(&mut self, tag: &str, kind: FlightEventKind) {
        self.flight.record(tag, kind);
        self.emit(tag, TelEventKind::Flight(kind));
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
        // One matrix edge per destination; `bytes_to` is already keyed by
        // world rank, which is what the rank×rank matrix indexes.
        for &(dst, bytes) in &rec.bytes_to {
            self.emit(
                &rec.tag,
                TelEventKind::Edge {
                    dst: dst as u32,
                    kind: rec.kind,
                    bytes,
                },
            );
        }
        self.profile.end_segment(rec, entered);
    }

    pub(crate) fn span_open(&mut self, tag: &str) {
        self.emit(tag, TelEventKind::SpanPush);
    }

    /// Closes the span opened as `tag` at `started`; `traced` spans also
    /// land in the profile.
    pub(crate) fn span_close(&mut self, tag: String, started: Instant, traced: bool) {
        self.emit(&tag, TelEventKind::SpanPop);
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
