//! The communicator: lock-step collectives over a per-group exchange slab.
//!
//! Every rank of a group holds a [`Comm`]. Collectives must be invoked by
//! all group members in the same order (the usual MPI contract). Each one
//! runs the same three steps on the group's exchange slab (`slab.rs`):
//!
//! 1. **Post.** The rank writes its whole send side into its own slot once,
//!    stamped with `(sequence, kind)` and the declared element counts. An
//!    alltoallv posts its `Vec<Vec<T>>`; a bcast root posts its value; a
//!    barrier posts only the stamp.
//! 2. **Release.** The rank arrives at the group's generation barrier. The
//!    last arriver releases everyone.
//! 3. **Read.** The rank checks every member's stamp, so a mismatched
//!    collective fails loudly with [`CommError::CollectiveMismatch`]
//!    instead of deadlocking or mixing data. Then it takes its column of
//!    each peer's alltoallv by move, or clones a shared value (allgatherv,
//!    bcast, allreduce). The last reader of a posting takes it by move.
//!
//! Payloads are moved, not serialized. An empty alltoallv column costs
//! nothing: the receiver sees its declared count of zero and never touches
//! the sender's slot. Byte accounting uses `len * size_of::<T>()`, which
//! corresponds to the dense wire size an MPI implementation would transfer
//! for the same typed buffer.
//!
//! Every collective exists in two forms: a fallible `try_*` variant that
//! returns a typed [`CommError`] (the form fault-tolerant callers use, and
//! the only form that can observe injected faults), and the classic
//! infallible wrapper that delegates and panics on error — preserving the
//! fail-fast MPI behaviour for callers that want it. Under
//! [`crate::World::run`] a panicking rank poisons the groups, and the peers
//! parked on them unwind. When every unfinished rank is parked, the
//! scheduler reports a stall to each of them: under
//! [`crate::World::try_run`] with a non-empty [`crate::FaultPlan`], a wait
//! whose missing peer the shared [`crate::fault::FailureBoard`] marks
//! failed or done ends in [`CommError::PeerExited`]; any other stall panics,
//! naming the collective each rank was parked on, instead of hanging.

use crate::fault::{CommError, FailureInfo, FaultCtx, FaultKind, ParkedPosition};
use crate::flight::{FlightEventKind, FlightRecorder};
use crate::metrics::MetricsRegistry;
use crate::rank_log::{lock, RankLog};
use crate::sched::Sched;
use crate::slab::{Declare, Payload, Slab, Wake};
use crate::stats::{CollKind, CollectiveRecord, GroupInfo};
use crate::trace::TraceConfig;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Marker payload substituted by [`FaultKind::Corrupt`]; receivers fail the
/// typed downcast and report [`CommError::PayloadTypeMismatch`].
struct CorruptPayload;

/// Injection effects computed at collective entry.
struct EntryFx {
    /// Index of this collective in the rank's global stream (0 without an
    /// active fault context).
    op: u64,
    /// Modeled straggler delay to attach to this collective's record.
    delay_secs: f64,
    /// Payload tampering to apply to the posted payload.
    tamper: Option<FaultKind>,
}

impl EntryFx {
    fn clean() -> Self {
        Self {
            op: 0,
            delay_secs: 0.0,
            tamper: None,
        }
    }
}

/// The payload bytes one rank moved in one collective, as
/// [`CollectiveRecord`] stores them; a call site names only its non-zero
/// fields.
#[derive(Default)]
struct Traffic {
    bytes_to: Vec<(usize, u64)>,
    bytes_received: u64,
    recv_msgs: u32,
    uniform_bytes: u64,
}

/// The collective a rank is inside: what errors and park reports name.
struct Coll<'t> {
    seq: u64,
    kind: CollKind,
    tag: &'t str,
    /// Index in the rank's global collective stream (see [`EntryFx::op`]).
    op: u64,
}

impl Coll<'_> {
    fn parked(&self) -> ParkedPosition {
        ParkedPosition {
            op_index: self.op,
            seq: self.seq,
            kind: self.kind,
            tag: self.tag.to_string(),
        }
    }
}

/// Applies vector-payload tampering to one buffer: truncation keeps the
/// floor of `keep` of its elements.
fn truncate<T>(v: &mut Vec<T>, tamper: &Option<FaultKind>) {
    if let Some(FaultKind::Truncate { keep }) = tamper {
        let keep_n = ((v.len() as f64) * keep.clamp(0.0, 1.0)).floor() as usize;
        v.truncate(keep_n);
    }
}

/// Boxes `value` for posting, or substitutes garbage under corruption.
fn boxed<V: Send + 'static>(value: V, tamper: &Option<FaultKind>) -> Payload {
    match tamper {
        Some(FaultKind::Corrupt) => Box::new(CorruptPayload),
        _ => Box::new(value),
    }
}

/// Takes a posted value by move; `None` when it is not a `V`.
fn take_posted<V: 'static>(payload: &mut Option<Payload>) -> Option<V> {
    payload.take()?.downcast::<V>().ok().map(|b| *b)
}

/// Clones a posted value, or moves it out when this is the last reader.
fn share_posted<V: Clone + 'static>(payload: &mut Option<Payload>, last: bool) -> Option<V> {
    if last {
        take_posted(payload)
    } else {
        payload.as_deref()?.downcast_ref::<V>().cloned()
    }
}

/// Shared state of one communicator group.
pub(crate) struct GroupShared {
    info: Arc<GroupInfo>,
    slab: Slab,
    /// Sub-groups created by `split`, keyed by (split generation, color).
    splits: Mutex<HashMap<(u64, usize), Arc<GroupShared>>>,
}

impl GroupShared {
    pub(crate) fn new(world_ranks: Vec<usize>, sched: Arc<Sched>) -> Arc<Self> {
        Arc::new(Self {
            slab: Slab::new(&world_ranks, sched),
            info: Arc::new(GroupInfo { world_ranks }),
            splits: Mutex::new(HashMap::new()),
        })
    }

    /// Aborts this group and every group split from it: current and future
    /// barrier waiters unwind instead of waiting for a rank that panicked.
    pub(crate) fn poison(&self) {
        self.slab.poison();
        for sub in lock(&self.splits).values() {
            sub.poison();
        }
    }
}

/// A communicator handle held by one rank of one group.
pub struct Comm {
    group: Arc<GroupShared>,
    rank: usize,
    seq: u64,
    split_gen: u64,
    /// The rank's log (shared with sub-communicators and open span guards):
    /// every runtime event this rank records goes through it once.
    log: Arc<Mutex<RankLog>>,
    /// Gate for algorithm-level trace instrumentation.
    trace: TraceConfig,
    /// True when live telemetry reads the log (set by `World` for the
    /// whole run), so [`Comm::span`] knows without taking the lock.
    live: bool,
    /// Fault-injection context; `None` outside `World::try_run` (and for
    /// empty fault plans), which keeps every hot path exactly as fast and
    /// as deterministic as an uninstrumented run.
    fault: Option<FaultCtx>,
}

impl Comm {
    pub(crate) fn new(
        group: Arc<GroupShared>,
        rank: usize,
        log: Arc<Mutex<RankLog>>,
        trace: TraceConfig,
        live: bool,
    ) -> Self {
        Self {
            group,
            rank,
            seq: 0,
            split_gen: 0,
            log,
            trace,
            live,
            fault: None,
        }
    }

    pub(crate) fn set_fault(&mut self, ctx: FaultCtx) {
        self.fault = Some(ctx);
    }

    /// True when this communicator runs under an active fault plan. Callers
    /// use this to decide whether defensive copies for retries are worth
    /// making (they never are in a fault-free run).
    pub fn fault_active(&self) -> bool {
        self.fault.is_some()
    }

    /// This rank's index within the group.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the group.
    pub fn size(&self) -> usize {
        self.group.info.world_ranks.len()
    }

    /// This rank's index in the world communicator.
    pub fn world_rank(&self) -> usize {
        self.group.info.world_ranks[self.rank]
    }

    /// World ranks of all group members (`group rank -> world rank`).
    pub fn group_world_ranks(&self) -> &[usize] {
        &self.group.info.world_ranks
    }

    /// Credits useful work to the current compute segment (the simulated
    /// equivalent of time spent in OpenMP kernels).
    pub fn add_flops(&self, flops: u64) {
        lock(&self.log).profile.add_flops(flops);
    }

    /// Notes the compute working set of the kernel whose flops are being
    /// credited (see
    /// [`RankProfile::note_working_set`](crate::stats::RankProfile::note_working_set)).
    pub fn note_working_set(&self, bytes: u64) {
        lock(&self.log).profile.note_working_set(bytes);
    }

    /// True when trace instrumentation is enabled for this run. Algorithm
    /// layers guard their span/metric recording behind this single `bool`,
    /// so a disabled trace costs exactly one branch per instrumented site.
    #[inline]
    pub fn trace_on(&self) -> bool {
        self.trace.on()
    }

    /// Mutable access to this rank's metrics registry. Sub-communicators
    /// created by [`Comm::split`] share the parent's registry, mirroring how
    /// they share the profile.
    pub fn metrics<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> R {
        f(&mut lock(&self.log).metrics)
    }

    /// Records a phase span with explicit endpoints, for intervals timed on
    /// worker threads and logged by the rank after the pool join (one
    /// Chrome-trace lane per distinct tag, e.g. `ts:kernel:t3`).
    pub fn record_span_between(&self, tag: impl Into<String>, started: Instant, ended: Instant) {
        let tag = tag.into();
        lock(&self.log)
            .profile
            .record_span_between(tag, started, ended);
    }

    /// Opens a drop-guard span: the span is recorded when the guard drops,
    /// so early returns (`?` on a [`CommError`]) and unwinds close it
    /// instead of leaking an open span out of the trace. The span feeds
    /// live telemetry's stack while telemetry is attached, and reaches the
    /// profile only when tracing is on; each end takes the log lock at most
    /// once. With both off the tag closure never runs, so the span costs no
    /// formatting, allocation or lock.
    ///
    /// The guard holds the log handle, not `&self`, so `&mut self`
    /// collectives can run while it is open.
    pub fn span(&self, tag: impl FnOnce() -> String) -> SpanGuard {
        let traced = self.trace.on();
        if !traced && !self.live {
            return SpanGuard::inactive();
        }
        let tag = tag();
        if self.live {
            lock(&self.log).span_open(&tag);
        }
        SpanGuard {
            open: Some(OpenSpan {
                log: Arc::clone(&self.log),
                tag,
                started: Instant::now(),
                traced,
            }),
        }
    }

    /// Read access to this rank's flight recorder. Sub-communicators share
    /// the parent's recorder. Always available — the recorder is on even
    /// when tracing is off. Events are recorded through
    /// [`Comm::flight_record`].
    pub fn flight<R>(&self, f: impl FnOnce(&FlightRecorder) -> R) -> R {
        f(&lock(&self.log).flight)
    }

    /// Records an algorithm-level event (retry, mode decision, step marker)
    /// into the flight ring and the log's live counts, so the live view and
    /// the postmortem ring never disagree.
    #[inline]
    pub fn flight_record(&self, tag: &str, kind: FlightEventKind) {
        lock(&self.log).event(tag, kind);
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Consults the fault plan at collective entry. Must run **before**
    /// [`Comm::next_seq`]: a transient failure returns without bumping the
    /// sequence number or sending anything, so an immediate retry re-enters
    /// in lock-step with the group.
    fn fault_entry(&mut self, kind: CollKind, tag: &str) -> Result<EntryFx, CommError> {
        // Record the posting *before* consulting the fault plan, so a
        // crashed rank's flight ring and live snapshot both end with exactly
        // the collective (seq, kind, tag) that killed it.
        self.flight_record(
            tag,
            FlightEventKind::CollPosted {
                seq: self.seq,
                kind,
            },
        );
        let Some(ctx) = &self.fault else {
            return Ok(EntryFx::clean());
        };
        let (op, fault) = ctx.enter_collective(tag);
        match fault {
            None => Ok(EntryFx {
                op,
                delay_secs: 0.0,
                tamper: None,
            }),
            Some(FaultKind::Crash) => {
                let at = ParkedPosition {
                    op_index: op,
                    seq: self.seq,
                    kind,
                    tag: tag.to_string(),
                };
                ctx.board.mark_failed(FailureInfo {
                    world_rank: ctx.world_rank,
                    parked: Some(at.clone()),
                    cause: "injected rank crash".into(),
                });
                panic!("injected rank crash: world rank {} at {at}", ctx.world_rank);
            }
            Some(FaultKind::Transient) => Err(CommError::Injected {
                rank: self.rank,
                op_index: op,
                kind,
                tag: tag.to_string(),
            }),
            Some(FaultKind::Delay { secs }) => Ok(EntryFx {
                op,
                delay_secs: secs,
                tamper: None,
            }),
            Some(t @ (FaultKind::Truncate { .. } | FaultKind::Corrupt)) => Ok(EntryFx {
                op,
                delay_secs: 0.0,
                tamper: Some(t),
            }),
        }
    }

    /// Publishes a fatal (non-retryable) error on the failure board so
    /// peers waiting on this rank cascade into `PeerExited` instead of
    /// hanging, then hands the error back.
    fn fatal(&self, err: CommError, c: &Coll) -> CommError {
        if let Some(ctx) = &self.fault {
            ctx.board.mark_failed(FailureInfo {
                world_rank: ctx.world_rank,
                parked: Some(c.parked()),
                cause: err.to_string(),
            });
        }
        err
    }

    /// Enters a collective: consults the fault plan, then takes the next
    /// sequence number.
    fn begin<'t>(
        &mut self,
        kind: CollKind,
        tag: &'t str,
    ) -> Result<(Coll<'t>, EntryFx), CommError> {
        let fx = self.fault_entry(kind, tag)?;
        let coll = Coll {
            seq: self.next_seq(),
            kind,
            tag,
            op: fx.op,
        };
        Ok((coll, fx))
    }

    /// Posts this rank's side of `c` for `readers` peers (see
    /// [`Slab::post`]), waits until the whole group has posted, and checks
    /// that every member posted the same `(seq, kind)`.
    fn exchange(
        &self,
        c: &Coll,
        readers: usize,
        fill: impl FnOnce(&Declare) -> Option<Payload>,
    ) -> Result<(), CommError> {
        let slab = &self.group.slab;
        slab.post(self.rank, c.seq, c.kind, readers, fill);
        if let Some(ctx) = &self.fault {
            ctx.board.set_parked(ctx.world_rank, c.parked());
        }
        match slab.barrier(self.rank, || self.exited_peer(c)) {
            Ok(Wake::Released) => {}
            Ok(Wake::Poisoned) => panic!(
                "collective aborted: a peer rank panicked while rank {} \
                 waited on {:?} #{} (tag '{}')",
                self.rank, c.kind, c.seq, c.tag
            ),
            Ok(Wake::Stalled) => panic!(
                "collective stalled: rank {} waited on {:?} #{} (tag '{}') \
                 while every unfinished rank was parked",
                self.rank, c.kind, c.seq, c.tag
            ),
            Err(err) => return Err(self.fatal(err, c)),
        }
        for src in 0..self.size() {
            let got = slab.stamp(c.seq, src);
            if got != Some((c.seq, c.kind)) {
                let (got_seq, got_kind) = got.unwrap_or((u64::MAX, c.kind));
                let err = CommError::CollectiveMismatch {
                    rank: self.rank,
                    src,
                    expected_kind: c.kind,
                    expected_seq: c.seq,
                    got_kind,
                    got_seq,
                    tag: c.tag.to_string(),
                };
                return Err(self.fatal(err, c));
            }
        }
        Ok(())
    }

    /// The lowest-ranked member that has not posted `c` and that the
    /// failure board marks failed or done, as a [`CommError::PeerExited`].
    fn exited_peer(&self, c: &Coll) -> Option<CommError> {
        let board = &self.fault.as_ref()?.board;
        (0..self.size())
            .filter(|&m| !self.group.slab.posted(c.seq, m))
            .find_map(|m| {
                let world = self.group.info.world_ranks[m];
                let cause = match board.failure_of(world) {
                    Some(info) => info.cause,
                    None if board.is_done(world) => {
                        "completed without a matching collective".to_string()
                    }
                    None => return None,
                };
                Some(CommError::PeerExited {
                    rank: self.rank,
                    peer_world: world,
                    seq: c.seq,
                    kind: c.kind,
                    tag: c.tag.to_string(),
                    peer_cause: cause,
                })
            })
    }

    /// Count `i` that `src` declared for `c` (see [`Slab::declared`]).
    fn declared(&self, c: &Coll, src: usize, i: usize) -> u64 {
        self.group.slab.declared(c.seq, src, i)
    }

    /// Reads `src`'s posting of `c` with `f` (see [`Slab::read`]); `None`
    /// from `f` means the payload had the wrong type.
    fn read<R>(
        &self,
        c: &Coll,
        src: usize,
        f: impl FnOnce(&mut Option<Payload>, bool) -> Option<R>,
    ) -> Result<R, CommError> {
        self.group.slab.read(c.seq, src, f).ok_or_else(|| {
            let err = CommError::PayloadTypeMismatch {
                rank: self.rank,
                src,
                kind: c.kind,
                tag: c.tag.to_string(),
            };
            self.fatal(err, c)
        })
    }

    /// Reads a single-buffer posting (cloned, or moved by the last reader)
    /// and checks it against its declared length.
    fn read_vec<T: Clone + Send + 'static>(
        &self,
        c: &Coll,
        src: usize,
    ) -> Result<Vec<T>, CommError> {
        let v = self.read(c, src, |payload, last| {
            share_posted::<Vec<T>>(payload, last)
        })?;
        self.check_len(c, src, v, self.declared(c, src, 0))
    }

    /// Verifies that a received buffer has the length its sender declared.
    fn check_len<T>(
        &self,
        c: &Coll,
        src: usize,
        v: Vec<T>,
        declared: u64,
    ) -> Result<Vec<T>, CommError> {
        if v.len() as u64 == declared {
            return Ok(v);
        }
        let err = CommError::TruncatedPayload {
            rank: self.rank,
            src,
            kind: c.kind,
            tag: c.tag.to_string(),
            declared,
            got: v.len() as u64,
        };
        Err(self.fatal(err, c))
    }

    /// World ranks of the other group members, in group-rank order.
    fn peers(&self) -> impl Iterator<Item = usize> + '_ {
        let me = self.world_rank();
        self.group
            .info
            .world_ranks
            .iter()
            .copied()
            .filter(move |&w| w != me)
    }

    fn record(&self, kind: CollKind, tag: String, t: Traffic, fx: &EntryFx, entered: Instant) {
        let rec = CollectiveRecord {
            kind,
            tag,
            group: Arc::clone(&self.group.info),
            bytes_to: t.bytes_to,
            bytes_received: t.bytes_received,
            recv_msgs: t.recv_msgs,
            uniform_bytes: t.uniform_bytes,
            wait_secs: entered.elapsed().as_secs_f64(),
            injected_delay_secs: fx.delay_secs,
            entered_secs: 0.0, // set by end_segment from the profile epoch
        };
        // `record` runs after `next_seq`, so the completed collective's
        // sequence number is the previous one.
        lock(&self.log).coll_done(self.seq.wrapping_sub(1), rec, entered);
    }

    /// Personalised all-to-all: `sends[j]` goes to group rank `j`; returns
    /// the vector received from each rank (own data passes through by move).
    ///
    /// # Panics
    /// Panics if `sends.len() != self.size()` or on any [`CommError`].
    pub fn alltoallv<T: Send + 'static>(
        &mut self,
        sends: Vec<Vec<T>>,
        tag: impl Into<String>,
    ) -> Vec<Vec<T>> {
        self.try_alltoallv(sends, tag)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::alltoallv`]. On [`CommError::Injected`] no
    /// communication happened and the collective may be retried with the
    /// same buffers (callers must keep a copy; the originals are consumed).
    ///
    /// As in MPI, a zero-count column carries no payload: a receiver whose
    /// column is declared empty never reads the sender's slot. Injected
    /// [`FaultKind::Truncate`] and [`FaultKind::Corrupt`] faults therefore
    /// surface only on columns that carry data.
    pub fn try_alltoallv<T: Send + 'static>(
        &mut self,
        mut sends: Vec<Vec<T>>,
        tag: impl Into<String>,
    ) -> Result<Vec<Vec<T>>, CommError> {
        let tag = tag.into();
        assert_eq!(sends.len(), self.size(), "one send buffer per rank");
        let entered = Instant::now();
        let (c, fx) = self.begin(CollKind::AllToAllV, &tag)?;
        let me = self.rank;
        let elem = std::mem::size_of::<T>() as u64;
        let mut own = Some(std::mem::take(&mut sends[me]));
        // Sized exactly, so an all-empty exchange allocates nothing here.
        let mut bytes_to = Vec::with_capacity(sends.iter().filter(|v| !v.is_empty()).count());
        bytes_to.extend(
            sends
                .iter()
                .enumerate()
                .filter(|(_, v)| !v.is_empty())
                .map(|(dst, v)| (self.group.info.world_ranks[dst], v.len() as u64 * elem)),
        );
        // Only the peers with a non-empty column read this posting.
        let readers = bytes_to.len();
        self.exchange(&c, readers, |lens| {
            lens.set(sends.iter().map(|v| v.len() as u64));
            for v in &mut sends {
                truncate(v, &fx.tamper);
            }
            (readers > 0).then(|| boxed(sends, &fx.tamper))
        })?;
        let mut received = 0u64;
        let mut recv_msgs = 0u32;
        let mut recvs: Vec<Vec<T>> = Vec::with_capacity(self.size());
        for src in 0..self.size() {
            if src == me {
                recvs.extend(own.take());
                continue;
            }
            let declared = self.declared(&c, src, me);
            if declared == 0 {
                recvs.push(Vec::new());
                continue;
            }
            let data = self.read(&c, src, |payload, _| {
                let rows = payload.as_deref_mut()?.downcast_mut::<Vec<Vec<T>>>()?;
                Some(std::mem::take(&mut rows[me]))
            })?;
            let data = self.check_len(&c, src, data, declared)?;
            recv_msgs += 1;
            received += data.len() as u64 * elem;
            recvs.push(data);
        }
        self.record(
            CollKind::AllToAllV,
            tag,
            Traffic {
                bytes_to,
                bytes_received: received,
                recv_msgs,
                ..Traffic::default()
            },
            &fx,
            entered,
        );
        Ok(recvs)
    }

    /// All-gather with variable contribution sizes; returns one vector per
    /// source rank (including this one), indexed by group rank.
    pub fn allgatherv<T: Clone + Send + 'static>(
        &mut self,
        data: Vec<T>,
        tag: impl Into<String>,
    ) -> Vec<Vec<T>> {
        self.try_allgatherv(data, tag)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::allgatherv`].
    pub fn try_allgatherv<T: Clone + Send + 'static>(
        &mut self,
        data: Vec<T>,
        tag: impl Into<String>,
    ) -> Result<Vec<Vec<T>>, CommError> {
        let tag = tag.into();
        let entered = Instant::now();
        let (c, fx) = self.begin(CollKind::AllGatherV, &tag)?;
        let elem = std::mem::size_of::<T>() as u64;
        let own_bytes = data.len() as u64 * elem;
        let bytes_to: Vec<(usize, u64)> = if own_bytes > 0 {
            self.peers().map(|w| (w, own_bytes)).collect()
        } else {
            Vec::new()
        };
        let mut own = Some(data.clone());
        self.exchange(&c, self.size() - 1, |lens| {
            lens.set([data.len() as u64]);
            let mut data = data;
            truncate(&mut data, &fx.tamper);
            Some(boxed(data, &fx.tamper))
        })?;
        let mut received = 0u64;
        let mut out = Vec::with_capacity(self.size());
        for src in 0..self.size() {
            if src == self.rank {
                out.extend(own.take());
            } else {
                let v = self.read_vec::<T>(&c, src)?;
                received += v.len() as u64 * elem;
                out.push(v);
            }
        }
        self.record(
            CollKind::AllGatherV,
            tag,
            Traffic {
                bytes_to,
                bytes_received: received,
                uniform_bytes: own_bytes,
                ..Traffic::default()
            },
            &fx,
            entered,
        );
        Ok(out)
    }

    /// Broadcast from `root`. The root passes `Some(value)`, others `None`.
    pub fn bcast<T: Clone + Send + 'static>(
        &mut self,
        root: usize,
        value: Option<T>,
        tag: impl Into<String>,
    ) -> T {
        self.try_bcast(root, value, tag)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::bcast`].
    pub fn try_bcast<T: Clone + Send + 'static>(
        &mut self,
        root: usize,
        value: Option<T>,
        tag: impl Into<String>,
    ) -> Result<T, CommError> {
        let tag = tag.into();
        assert!(root < self.size(), "root out of range");
        let entered = Instant::now();
        let (c, fx) = self.begin(CollKind::Bcast, &tag)?;
        let elem = std::mem::size_of::<T>() as u64;
        let (v, bytes_to, bytes_received) = if self.rank == root {
            let v = value.expect("root must supply the broadcast value");
            let posted = v.clone();
            self.exchange(&c, self.size() - 1, |_| Some(boxed(posted, &fx.tamper)))?;
            (v, self.peers().map(|w| (w, elem)).collect(), 0)
        } else {
            assert!(value.is_none(), "non-root must pass None");
            self.exchange(&c, 0, |_| None)?;
            let v = self.read(&c, root, |payload, last| share_posted::<T>(payload, last))?;
            (v, Vec::new(), elem)
        };
        let t = Traffic {
            bytes_to,
            bytes_received,
            uniform_bytes: elem,
            ..Traffic::default()
        };
        self.record(CollKind::Bcast, tag, t, &fx, entered);
        Ok(v)
    }

    /// Broadcast of a variable-length buffer from `root`; non-roots pass an
    /// empty vector. Accounted as `len · size_of::<T>()` payload bytes
    /// (unlike [`Comm::bcast`], whose payload is a single fixed-size value).
    pub fn bcast_vec<T: Clone + Send + 'static>(
        &mut self,
        root: usize,
        data: Vec<T>,
        tag: impl Into<String>,
    ) -> Vec<T> {
        self.try_bcast_vec(root, data, tag)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::bcast_vec`].
    pub fn try_bcast_vec<T: Clone + Send + 'static>(
        &mut self,
        root: usize,
        data: Vec<T>,
        tag: impl Into<String>,
    ) -> Result<Vec<T>, CommError> {
        let tag = tag.into();
        assert!(root < self.size(), "root out of range");
        let entered = Instant::now();
        let (c, fx) = self.begin(CollKind::Bcast, &tag)?;
        let elem = std::mem::size_of::<T>() as u64;
        let (v, bytes_to, bytes_received, uniform_bytes) = if self.rank == root {
            let bytes = data.len() as u64 * elem;
            let mut posted = data.clone();
            self.exchange(&c, self.size() - 1, |lens| {
                lens.set([posted.len() as u64]);
                truncate(&mut posted, &fx.tamper);
                Some(boxed(posted, &fx.tamper))
            })?;
            let bytes_to = if bytes > 0 {
                self.peers().map(|w| (w, bytes)).collect()
            } else {
                Vec::new()
            };
            (data, bytes_to, 0, bytes)
        } else {
            self.exchange(&c, 0, |_| None)?;
            let v = self.read_vec::<T>(&c, root)?;
            let bytes = v.len() as u64 * elem;
            (v, Vec::new(), bytes, bytes)
        };
        let t = Traffic {
            bytes_to,
            bytes_received,
            uniform_bytes,
            ..Traffic::default()
        };
        self.record(CollKind::Bcast, tag, t, &fx, entered);
        Ok(v)
    }

    /// All-reduce with a user-supplied associative, commutative `op`.
    ///
    /// Implemented as gather-to-all followed by a local fold in group-rank
    /// order (so results are bit-identical across ranks); the cost model
    /// prices it as a tree reduce-broadcast.
    pub fn allreduce<T: Clone + Send + 'static>(
        &mut self,
        value: T,
        op: impl Fn(T, T) -> T,
        tag: impl Into<String>,
    ) -> T {
        self.try_allreduce(value, op, tag)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::allreduce`].
    pub fn try_allreduce<T: Clone + Send + 'static>(
        &mut self,
        value: T,
        op: impl Fn(T, T) -> T,
        tag: impl Into<String>,
    ) -> Result<T, CommError> {
        let tag = tag.into();
        let entered = Instant::now();
        let (c, fx) = self.begin(CollKind::AllReduce, &tag)?;
        let elem = std::mem::size_of::<T>() as u64;
        let posted = value.clone();
        self.exchange(&c, self.size() - 1, |_| Some(boxed(posted, &fx.tamper)))?;
        let mut own = Some(value);
        let mut acc: Option<T> = None;
        for src in 0..self.size() {
            let v = if src == self.rank {
                own.take().expect("own value is folded once")
            } else {
                self.read(&c, src, |payload, last| share_posted::<T>(payload, last))?
            };
            acc = Some(match acc {
                None => v,
                Some(a) => op(a, v),
            });
        }
        let bytes_to = self.peers().map(|w| (w, elem)).collect();
        self.record(
            CollKind::AllReduce,
            tag,
            Traffic {
                bytes_to,
                bytes_received: elem * (self.size() as u64 - 1),
                uniform_bytes: elem,
                ..Traffic::default()
            },
            &fx,
            entered,
        );
        Ok(acc.unwrap())
    }

    /// Gather variable-size contributions at `root`; returns `Some(vec of
    /// per-rank data)` at the root and `None` elsewhere.
    pub fn gatherv<T: Send + 'static>(
        &mut self,
        data: Vec<T>,
        root: usize,
        tag: impl Into<String>,
    ) -> Option<Vec<Vec<T>>> {
        self.try_gatherv(data, root, tag)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::gatherv`].
    pub fn try_gatherv<T: Send + 'static>(
        &mut self,
        data: Vec<T>,
        root: usize,
        tag: impl Into<String>,
    ) -> Result<Option<Vec<Vec<T>>>, CommError> {
        let tag = tag.into();
        assert!(root < self.size(), "root out of range");
        let entered = Instant::now();
        let (c, fx) = self.begin(CollKind::GatherV, &tag)?;
        let elem = std::mem::size_of::<T>() as u64;
        if self.rank == root {
            self.exchange(&c, 0, |_| None)?;
            let mut own = Some(data);
            let mut out = Vec::with_capacity(self.size());
            let mut received = 0u64;
            for src in 0..self.size() {
                if src == root {
                    out.extend(own.take());
                    continue;
                }
                let v = self.read(&c, src, |payload, _| take_posted::<Vec<T>>(payload))?;
                let v = self.check_len(&c, src, v, self.declared(&c, src, 0))?;
                received += v.len() as u64 * elem;
                out.push(v);
            }
            let t = Traffic {
                bytes_received: received,
                ..Traffic::default()
            };
            self.record(CollKind::GatherV, tag, t, &fx, entered);
            Ok(Some(out))
        } else {
            let bytes = data.len() as u64 * elem;
            let bytes_to = if bytes > 0 {
                vec![(self.group.info.world_ranks[root], bytes)]
            } else {
                Vec::new()
            };
            self.exchange(&c, 1, |lens| {
                lens.set([data.len() as u64]);
                let mut data = data;
                truncate(&mut data, &fx.tamper);
                Some(boxed(data, &fx.tamper))
            })?;
            let t = Traffic {
                bytes_to,
                ..Traffic::default()
            };
            self.record(CollKind::GatherV, tag, t, &fx, entered);
            Ok(None)
        }
    }

    /// Synchronises all group members.
    pub fn barrier(&mut self, tag: impl Into<String>) {
        self.try_barrier(tag).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Comm::barrier`]: a stamp-only post on the slab, so it
    /// detects mismatches and dead peers like every other collective.
    pub fn try_barrier(&mut self, tag: impl Into<String>) -> Result<(), CommError> {
        let tag = tag.into();
        let entered = Instant::now();
        let (c, fx) = self.begin(CollKind::Barrier, &tag)?;
        self.exchange(&c, 0, |_| None)?;
        self.record(CollKind::Barrier, tag, Traffic::default(), &fx, entered);
        Ok(())
    }

    /// Splits the communicator into sub-communicators: members with equal
    /// `color` form a group, ordered by `(key, parent rank)`. Mirrors
    /// `MPI_Comm_split`; used to build the SUMMA row/column/layer grids.
    ///
    /// Key collisions are legal (MPI semantics): ties are broken by parent
    /// rank, so the result is always a total order. A rank may be the sole
    /// member of its color (a singleton group of size 1).
    pub fn split(&mut self, color: usize, key: usize) -> Comm {
        // Exchange (color, key) so every member can compute all groups.
        let info = self.allgatherv(vec![(color, key, self.rank)], "comm:split");
        let gen = self.split_gen;
        self.split_gen += 1;

        let mut members: Vec<(usize, usize)> = info
            .iter()
            .flatten()
            .filter(|&&(c, _, _)| c == color)
            .map(|&(_, k, r)| (k, r))
            .collect();
        members.sort_unstable();
        let my_new_rank = members
            .iter()
            .position(|&(_, r)| r == self.rank)
            .expect("splitting rank must be in its own color group");
        let world_ranks: Vec<usize> = members
            .iter()
            .map(|&(_, r)| self.group.info.world_ranks[r])
            .collect();

        let shared = {
            let mut splits = lock(&self.group.splits);
            let sub = splits.entry((gen, color)).or_insert_with(|| {
                GroupShared::new(world_ranks, Arc::clone(self.group.slab.sched()))
            });
            // Checked under the lock `GroupShared::poison` walks the splits
            // with, so a group split off a poisoned parent is never missed.
            if self.group.slab.is_poisoned() {
                sub.poison();
            }
            Arc::clone(sub)
        };
        Comm {
            group: shared,
            rank: my_new_rank,
            seq: 0,
            split_gen: 0,
            log: Arc::clone(&self.log),
            trace: self.trace,
            live: self.live,
            // A rank's splits share its fault context: the collective counter
            // keeps running across communicators, so "crash at collective #k"
            // means the k-th collective the rank enters anywhere.
            fault: self.fault.clone(),
        }
    }
}

/// A phase span that records itself when dropped (see [`Comm::span`]).
///
/// Binding matters: `let _guard = comm.span(...)` lives to the end of the
/// scope; `let _ = comm.span(...)` drops — and records — immediately.
#[must_use = "the span closes when the guard drops; bind it to a named variable"]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

/// What an active [`SpanGuard`] hands back to the rank's log on drop.
struct OpenSpan {
    log: Arc<Mutex<RankLog>>,
    tag: String,
    started: Instant,
    traced: bool,
}

impl SpanGuard {
    /// A guard that records nothing (what [`Comm::span`] returns with
    /// tracing and telemetry off).
    pub fn inactive() -> Self {
        Self { open: None }
    }

    /// True when dropping this guard will record a span.
    pub fn is_active(&self) -> bool {
        self.open.is_some()
    }

    /// Closes the span now (equivalent to dropping the guard).
    pub fn end(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(s) = self.open.take() {
            lock(&s.log).span_close(s.tag, s.started, s.traced);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::world::World;

    #[test]
    fn alltoallv_exchanges_personalised_data() {
        let out = World::run(4, |comm| {
            let sends: Vec<Vec<u64>> = (0..4)
                .map(|dst| vec![(comm.rank() * 10 + dst) as u64])
                .collect();
            let recv = comm.alltoallv(sends, "t");
            recv.iter().map(|v| v[0]).collect::<Vec<_>>()
        });
        for (rank, got) in out.results.iter().enumerate() {
            let expect: Vec<u64> = (0..4).map(|src| (src * 10 + rank) as u64).collect();
            assert_eq!(got, &expect);
        }
    }

    #[test]
    fn alltoallv_handles_empty_buffers() {
        let out = World::run(3, |comm| {
            let mut sends: Vec<Vec<u8>> = vec![Vec::new(); 3];
            if comm.rank() == 0 {
                sends[2] = vec![9, 9];
            }
            let recv = comm.alltoallv(sends, "t");
            recv.iter().map(|v| v.len()).sum::<usize>()
        });
        assert_eq!(out.results, vec![0, 0, 2]);
    }

    #[test]
    fn allgatherv_collects_everything() {
        let out = World::run(3, |comm| {
            let data = vec![comm.rank() as u32; comm.rank() + 1];
            comm.allgatherv(data, "t")
        });
        for res in &out.results {
            assert_eq!(res.len(), 3);
            for (src, v) in res.iter().enumerate() {
                assert_eq!(v, &vec![src as u32; src + 1]);
            }
        }
    }

    #[test]
    fn bcast_distributes_root_value() {
        let out = World::run(4, |comm| {
            let v = if comm.rank() == 2 { Some(99u64) } else { None };
            comm.bcast(2, v, "t")
        });
        assert_eq!(out.results, vec![99, 99, 99, 99]);
    }

    #[test]
    fn bcast_vec_moves_buffers_and_accounts_bytes() {
        let out = World::run(3, |comm| {
            let data = if comm.rank() == 0 {
                vec![1u64, 2, 3]
            } else {
                Vec::new()
            };
            comm.bcast_vec(0, data, "blk")
        });
        assert!(out.results.iter().all(|v| v == &vec![1, 2, 3]));
        // Root sent 3 u64 to each of 2 peers.
        assert_eq!(out.profiles[0].bytes_sent_tagged("blk"), 2 * 24);
        assert_eq!(out.profiles[1].bytes_sent_tagged("blk"), 0);
    }

    #[test]
    fn allreduce_folds_commutatively() {
        let out = World::run(5, |comm| {
            comm.allreduce(comm.rank() as u64 + 1, |a, b| a + b, "t")
        });
        assert_eq!(out.results, vec![15; 5]);
    }

    #[test]
    fn gatherv_collects_at_root() {
        let out = World::run(3, |comm| {
            let data = vec![comm.rank() as u8 * 2];
            comm.gatherv(data, 1, "t")
        });
        assert!(out.results[0].is_none());
        assert!(out.results[2].is_none());
        let at_root = out.results[1].as_ref().unwrap();
        assert_eq!(at_root, &vec![vec![0u8], vec![2u8], vec![4u8]]);
    }

    #[test]
    fn barrier_and_sequencing() {
        let out = World::run(4, |comm| {
            comm.barrier("sync");
            comm.allreduce(1u32, |a, b| a + b, "count")
        });
        assert_eq!(out.results, vec![4; 4]);
    }

    #[test]
    fn split_forms_row_groups() {
        // 2x2 grid: color = row, key = col.
        let out = World::run(4, |comm| {
            let row = comm.rank() / 2;
            let col = comm.rank() % 2;
            let mut row_comm = comm.split(row, col);
            let ids = row_comm.allgatherv(vec![comm.rank()], "rowids");
            (
                row_comm.rank(),
                row_comm.size(),
                ids.into_iter().flatten().collect::<Vec<_>>(),
            )
        });
        assert_eq!(out.results[0], (0, 2, vec![0, 1]));
        assert_eq!(out.results[1], (1, 2, vec![0, 1]));
        assert_eq!(out.results[2], (0, 2, vec![2, 3]));
        assert_eq!(out.results[3], (1, 2, vec![2, 3]));
    }

    #[test]
    fn nested_split_of_split() {
        // Split 8 ranks into two halves, then each half into pairs.
        let out = World::run(8, |comm| {
            let mut half = comm.split(comm.rank() / 4, comm.rank() % 4);
            let mut pair = half.split(half.rank() / 2, half.rank() % 2);
            pair.allreduce(comm.world_rank() as u64, |a, b| a + b, "t")
        });
        assert_eq!(out.results, vec![1, 1, 5, 5, 9, 9, 13, 13]);
    }

    #[test]
    fn split_world_ranks_are_consistent() {
        let out = World::run(4, |comm| {
            let color = comm.rank() % 2;
            let sub = comm.split(color, comm.rank());
            sub.group_world_ranks().to_vec()
        });
        assert_eq!(out.results[0], vec![0, 2]);
        assert_eq!(out.results[1], vec![1, 3]);
        assert_eq!(out.results[2], vec![0, 2]);
    }

    #[test]
    fn split_with_key_collisions_breaks_ties_by_parent_rank() {
        // All four ranks pick the same color AND the same key: MPI resolves
        // the tie by parent rank, so the group order must equal parent order.
        let out = World::run(4, |comm| {
            let sub = comm.split(0, 7);
            (sub.rank(), sub.size(), sub.group_world_ranks().to_vec())
        });
        for (parent_rank, &(sub_rank, sub_size, ref worlds)) in out.results.iter().enumerate() {
            assert_eq!(sub_rank, parent_rank, "tie broken by parent rank");
            assert_eq!(sub_size, 4);
            assert_eq!(worlds, &vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn split_partial_key_collisions_keep_total_order() {
        // Ranks 0..4 use keys [5, 5, 0, 0]: collided pairs order by parent
        // rank within the same key, and lower keys come first.
        let out = World::run(4, |comm| {
            let key = if comm.rank() < 2 { 5 } else { 0 };
            let sub = comm.split(0, key);
            (sub.rank(), sub.group_world_ranks().to_vec())
        });
        let expect_order = vec![2, 3, 0, 1]; // keys (0,r2), (0,r3), (5,r0), (5,r1)
        for (parent_rank, &(sub_rank, ref worlds)) in out.results.iter().enumerate() {
            assert_eq!(worlds, &expect_order);
            assert_eq!(expect_order[sub_rank], parent_rank);
        }
    }

    #[test]
    fn split_singleton_color_groups() {
        // Every rank takes a unique color: each becomes rank 0 of a
        // size-1 group, and collectives on that group degenerate correctly.
        let out = World::run(3, |comm| {
            let mut solo = comm.split(comm.rank(), 0);
            let sum = solo.allreduce(comm.rank() as u64 + 10, |a, b| a + b, "solo");
            (
                solo.rank(),
                solo.size(),
                sum,
                solo.group_world_ranks().to_vec(),
            )
        });
        for (rank, &(sub_rank, sub_size, sum, ref worlds)) in out.results.iter().enumerate() {
            assert_eq!(sub_rank, 0);
            assert_eq!(sub_size, 1);
            assert_eq!(sum, rank as u64 + 10, "singleton allreduce is identity");
            assert_eq!(worlds, &vec![rank]);
        }
    }

    #[test]
    fn byte_accounting_matches_payloads() {
        let out = World::run(2, |comm| {
            let sends: Vec<Vec<u64>> = if comm.rank() == 0 {
                vec![vec![], vec![1, 2, 3]]
            } else {
                vec![vec![7], vec![]]
            };
            comm.alltoallv(sends, "payload");
        });
        // Rank 0 sent 3 u64 = 24 bytes; rank 1 sent 8.
        assert_eq!(out.profiles[0].total_bytes_sent(), 24);
        assert_eq!(out.profiles[1].total_bytes_sent(), 8);
        assert_eq!(out.profiles[0].bytes_sent_tagged("payload"), 24);
    }

    #[test]
    fn conservation_sent_equals_received() {
        let out = World::run(4, |comm| {
            let sends: Vec<Vec<u32>> = (0..4).map(|d| vec![d as u32; comm.rank() + d]).collect();
            comm.alltoallv(sends, "t");
        });
        let sent: u64 = out.profiles.iter().map(|p| p.total_bytes_sent()).sum();
        let received: u64 = out
            .profiles
            .iter()
            .flat_map(|p| p.segments.iter())
            .filter_map(|s| s.coll.as_ref())
            .map(|c| c.bytes_received)
            .sum();
        assert_eq!(sent, received);
        assert!(sent > 0);
    }

    #[test]
    fn flops_attributed_to_segments() {
        let out = World::run(2, |comm| {
            comm.add_flops(100);
            comm.barrier("s1");
            comm.add_flops(50);
        });
        for p in &out.profiles {
            assert_eq!(p.total_flops(), 150);
            assert_eq!(p.segments[0].flops, 100);
        }
    }

    #[test]
    fn single_rank_world_works() {
        let out = World::run(1, |comm| {
            let r = comm.alltoallv(vec![vec![5u8]], "self");
            let g = comm.allgatherv(vec![1u16], "g");
            let b = comm.bcast(0, Some(3u32), "b");
            (r[0][0], g[0][0], b)
        });
        assert_eq!(out.results, vec![(5, 1, 3)]);
        assert_eq!(out.profiles[0].total_bytes_sent(), 0);
    }
}
