//! Fault injection and fault diagnosis for the simulated runtime.
//!
//! At the extreme scales the paper targets, rank failures and stragglers are
//! the norm, not the exception. This module provides:
//!
//! * [`FaultPlan`] — a deterministic, seed-driven schedule of injected
//!   faults: rank crashes at a given collective index, transient collective
//!   failures (recoverable, for retry logic), payload truncation/corruption
//!   (wire-integrity checks), and straggler delays that feed straight into
//!   the α–β cost model;
//! * [`CommError`] — the typed error taxonomy returned by the fallible
//!   `try_*` collectives on [`crate::Comm`], replacing `panic!`/`expect`
//!   in the collective internals;
//! * [`RankFailure`] and [`HangReport`] — the per-rank outcome of
//!   [`crate::World::try_run`] plus a diagnosis of which collective sequence
//!   number and phase tag every surviving rank was parked on when the run
//!   went down (information the old "peer rank hung up mid-collective"
//!   panic destroyed).
//!
//! Injection is pay-for-what-you-use: a plan with zero faults leaves every
//! hot path byte-identical to a run without the injector (no extra stats
//! fields set, no polling barrier waits).

use crate::rank_log::lock;
use crate::stats::CollKind;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

/// Typed failure of a collective, carrying enough attribution (rank, source,
/// phase tag, sequence number) that a failed run can be diagnosed without a
/// debugger.
#[derive(Clone, Debug, PartialEq)]
pub enum CommError {
    /// A peer exited (crashed or returned) while this rank was waiting for
    /// its contribution to a collective.
    PeerExited {
        /// Group rank reporting the error.
        rank: usize,
        /// World rank of the peer that went away.
        peer_world: usize,
        /// Collective sequence number this rank was parked on.
        seq: u64,
        kind: CollKind,
        /// Phase tag of the collective this rank was parked on.
        tag: String,
        /// What happened to the peer, if known.
        peer_cause: String,
    },
    /// A peer invoked a different collective (or a different sequence
    /// number) than this rank — the MPI protocol contract was violated.
    CollectiveMismatch {
        rank: usize,
        src: usize,
        expected_kind: CollKind,
        expected_seq: u64,
        got_kind: CollKind,
        got_seq: u64,
        tag: String,
    },
    /// The payload received from `src` failed to downcast to the expected
    /// element type (corrupted or mistyped wire data).
    PayloadTypeMismatch {
        rank: usize,
        src: usize,
        kind: CollKind,
        tag: String,
    },
    /// The payload received from `src` carried fewer elements than its
    /// envelope declared (lost or truncated wire data).
    TruncatedPayload {
        rank: usize,
        src: usize,
        kind: CollKind,
        tag: String,
        declared: u64,
        got: u64,
    },
    /// A transient failure injected by the active [`FaultPlan`]; the
    /// collective performed no communication and may simply be retried.
    Injected {
        rank: usize,
        op_index: u64,
        kind: CollKind,
        tag: String,
    },
}

impl CommError {
    /// True for errors that are safe to retry (the collective had no effect).
    pub fn is_transient(&self) -> bool {
        matches!(self, CommError::Injected { .. })
    }

    /// The phase tag of the collective the error occurred in.
    pub fn tag(&self) -> &str {
        match self {
            CommError::PeerExited { tag, .. }
            | CommError::CollectiveMismatch { tag, .. }
            | CommError::PayloadTypeMismatch { tag, .. }
            | CommError::TruncatedPayload { tag, .. }
            | CommError::Injected { tag, .. } => tag,
        }
    }
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::PeerExited {
                rank,
                peer_world,
                seq,
                kind,
                tag,
                peer_cause,
            } => write!(
                f,
                "peer exited: rank {rank} parked on {kind:?} #{seq} (tag '{tag}') \
                 but world rank {peer_world} went away ({peer_cause})"
            ),
            CommError::CollectiveMismatch {
                rank,
                src,
                expected_kind,
                expected_seq,
                got_kind,
                got_seq,
                tag,
            } => write!(
                f,
                "collective mismatch: rank {rank} expected {expected_kind:?} \
                 #{expected_seq} (tag '{tag}') from {src} but peer sent {got_kind:?} #{got_seq}"
            ),
            CommError::PayloadTypeMismatch {
                rank,
                src,
                kind,
                tag,
            } => write!(
                f,
                "payload type mismatch in {kind:?}: rank {rank} received a payload \
                 from rank {src} with the wrong element type (tag '{tag}')"
            ),
            CommError::TruncatedPayload {
                rank,
                src,
                kind,
                tag,
                declared,
                got,
            } => write!(
                f,
                "truncated payload in {kind:?}: rank {rank} received {got} of \
                 {declared} declared elements from rank {src} (tag '{tag}')"
            ),
            CommError::Injected {
                rank,
                op_index,
                kind,
                tag,
            } => write!(
                f,
                "injected transient fault: rank {rank} at collective #{op_index} \
                 ({kind:?}, tag '{tag}')"
            ),
        }
    }
}

impl std::error::Error for CommError {}

// ---------------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------------

/// What a fault does when its trigger fires.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// The rank dies at the collective entry (before communicating), as a
    /// hardware failure would kill an MPI rank.
    Crash,
    /// The collective fails once with [`CommError::Injected`] before any
    /// communication; an immediate retry proceeds normally.
    Transient,
    /// Outgoing payloads are cut to `keep` of their declared length;
    /// receivers detect the shortfall via the envelope.
    Truncate {
        /// Fraction of elements to actually deliver, in `[0, 1)`.
        keep: f64,
    },
    /// Outgoing payloads are replaced by garbage of the wrong type;
    /// receivers fail the typed downcast.
    Corrupt,
    /// This rank straggles: the collective completes but `secs` of modeled
    /// delay are attached to its record and priced by the cost model.
    Delay { secs: f64 },
}

/// When a fault fires, relative to one rank's stream of collectives.
#[derive(Clone, Debug, PartialEq)]
pub enum Trigger {
    /// The `k`-th collective this rank enters (counting from 0 across all
    /// communicators, splits included).
    AtOp(u64),
    /// The `occurrence`-th collective (1-based) whose phase tag starts with
    /// `prefix`.
    TagPrefix { prefix: String, occurrence: u64 },
}

/// One scheduled fault: what happens, to whom, and when.
#[derive(Clone, Debug, PartialEq)]
pub struct Fault {
    /// World rank the fault is injected on.
    pub rank: usize,
    pub trigger: Trigger,
    pub kind: FaultKind,
}

/// A deterministic schedule of injected faults.
///
/// Plans are built either explicitly (`crash_at_op`, `transient_at_tag`, …)
/// or derived from a seed with [`FaultPlan::random`]; either way the same
/// plan injects the same faults at the same points on every run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan with no faults (the injector becomes a no-op).
    pub fn none() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    pub fn push(&mut self, fault: Fault) -> &mut Self {
        self.faults.push(fault);
        self
    }

    /// Rank `rank` crashes at its `k`-th collective.
    pub fn crash_at_op(mut self, rank: usize, k: u64) -> Self {
        self.faults.push(Fault {
            rank,
            trigger: Trigger::AtOp(k),
            kind: FaultKind::Crash,
        });
        self
    }

    /// Rank `rank` sees one transient failure at the `occurrence`-th
    /// collective tagged with `prefix`.
    pub fn transient_at_tag(
        mut self,
        rank: usize,
        prefix: impl Into<String>,
        occurrence: u64,
    ) -> Self {
        self.faults.push(Fault {
            rank,
            trigger: Trigger::TagPrefix {
                prefix: prefix.into(),
                occurrence,
            },
            kind: FaultKind::Transient,
        });
        self
    }

    /// Rank `rank`'s payloads are truncated at its `k`-th collective.
    pub fn truncate_at_op(mut self, rank: usize, k: u64, keep: f64) -> Self {
        self.faults.push(Fault {
            rank,
            trigger: Trigger::AtOp(k),
            kind: FaultKind::Truncate { keep },
        });
        self
    }

    /// Rank `rank`'s payloads are corrupted at its `k`-th collective.
    pub fn corrupt_at_op(mut self, rank: usize, k: u64) -> Self {
        self.faults.push(Fault {
            rank,
            trigger: Trigger::AtOp(k),
            kind: FaultKind::Corrupt,
        });
        self
    }

    /// Rank `rank` straggles by `secs` (modeled) at every collective tagged
    /// with `prefix`, starting from the `occurrence`-th (use 1 for all).
    pub fn delay_at_tag(
        mut self,
        rank: usize,
        prefix: impl Into<String>,
        occurrence: u64,
        secs: f64,
    ) -> Self {
        self.faults.push(Fault {
            rank,
            trigger: Trigger::TagPrefix {
                prefix: prefix.into(),
                occurrence,
            },
            kind: FaultKind::Delay { secs },
        });
        self
    }

    /// Derives `n_faults` faults deterministically from `seed`: each fault
    /// picks a rank in `0..p`, a collective index in `0..max_op`, and a kind
    /// (transient faults and stragglers — the survivable kinds — so random
    /// plans compose with retry logic; crashes are opt-in via the explicit
    /// builders).
    pub fn random(seed: u64, p: usize, max_op: u64, n_faults: usize) -> Self {
        assert!(p > 0 && max_op > 0);
        let mut state = seed ^ 0x6A09_E667_F3BC_C908;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut plan = Self::default();
        for _ in 0..n_faults {
            let rank = (next() % p as u64) as usize;
            let op = next() % max_op;
            let kind = if next() % 2 == 0 {
                FaultKind::Transient
            } else {
                FaultKind::Delay {
                    secs: 1.0e-6 * (1 + next() % 100) as f64,
                }
            };
            plan.faults.push(Fault {
                rank,
                trigger: Trigger::AtOp(op),
                kind,
            });
        }
        plan
    }
}

// ---------------------------------------------------------------------------
// Shared runtime state for fault-aware runs
// ---------------------------------------------------------------------------

/// Where a rank is (or was last) blocked inside a collective.
#[derive(Clone, Debug, PartialEq)]
pub struct ParkedPosition {
    /// Index of the collective in the rank's global stream (0-based).
    pub op_index: u64,
    /// Sequence number within the communicator the rank is parked on.
    pub seq: u64,
    pub kind: CollKind,
    pub tag: String,
}

impl fmt::Display for ParkedPosition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "collective #{} (seq {}, {:?}, tag '{}')",
            self.op_index, self.seq, self.kind, self.tag
        )
    }
}

/// Structured description of why a rank failed.
#[derive(Clone, Debug)]
pub struct FailureInfo {
    pub world_rank: usize,
    /// Position in the rank's collective stream where it failed, if known.
    pub parked: Option<ParkedPosition>,
    pub cause: String,
}

/// Cross-rank blackboard for fault-aware runs: who failed, who completed,
/// and where every rank last blocked. Ranks poll it to turn "waiting forever
/// on a dead peer" into a typed [`CommError::PeerExited`].
#[derive(Default)]
pub struct FailureBoard {
    failed: Mutex<HashMap<usize, FailureInfo>>,
    done: Mutex<HashMap<usize, ()>>,
    parked: Mutex<HashMap<usize, ParkedPosition>>,
}

impl FailureBoard {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records that `world_rank` failed; first cause wins.
    pub fn mark_failed(&self, info: FailureInfo) {
        lock(&self.failed).entry(info.world_rank).or_insert(info);
    }

    /// Records that `world_rank` returned from its rank function normally.
    pub fn mark_done(&self, world_rank: usize) {
        lock(&self.done).insert(world_rank, ());
    }

    pub fn failure_of(&self, world_rank: usize) -> Option<FailureInfo> {
        lock(&self.failed).get(&world_rank).cloned()
    }

    pub fn is_done(&self, world_rank: usize) -> bool {
        lock(&self.done).contains_key(&world_rank)
    }

    pub fn any_failed(&self) -> bool {
        !lock(&self.failed).is_empty()
    }

    /// Notes where `world_rank` is currently blocked (overwrites).
    pub fn set_parked(&self, world_rank: usize, at: ParkedPosition) {
        lock(&self.parked).insert(world_rank, at);
    }

    pub fn parked_of(&self, world_rank: usize) -> Option<ParkedPosition> {
        lock(&self.parked).get(&world_rank).cloned()
    }
}

/// Per-rank fault context threaded through a rank's communicators (the world
/// `Comm` and every split derived from it share one context via `Arc`s).
#[derive(Clone)]
pub struct FaultCtx {
    pub(crate) plan: Arc<FaultPlan>,
    pub(crate) board: Arc<FailureBoard>,
    /// This rank's global collective counter (shared across its splits).
    pub(crate) op_counter: Arc<AtomicU64>,
    /// Per-fault match counters for occurrence-based triggers.
    fired: Arc<Mutex<Vec<u64>>>,
    pub(crate) world_rank: usize,
}

impl FaultCtx {
    pub(crate) fn new(plan: Arc<FaultPlan>, board: Arc<FailureBoard>, world_rank: usize) -> Self {
        let n = plan.faults.len();
        Self {
            plan,
            board,
            op_counter: Arc::new(AtomicU64::new(0)),
            fired: Arc::new(Mutex::new(vec![0; n])),
            world_rank,
        }
    }

    /// Advances this rank's collective counter and returns the index of the
    /// collective being entered plus the fault scheduled for it, if any.
    pub(crate) fn enter_collective(&self, tag: &str) -> (u64, Option<FaultKind>) {
        let op = self.op_counter.fetch_add(1, Ordering::Relaxed);
        let mut fired = lock(&self.fired);
        for (i, fault) in self.plan.faults.iter().enumerate() {
            if fault.rank != self.world_rank {
                continue;
            }
            let hit = match &fault.trigger {
                Trigger::AtOp(k) => op == *k,
                Trigger::TagPrefix { prefix, occurrence } => {
                    if tag.starts_with(prefix.as_str()) {
                        fired[i] += 1;
                        if matches!(fault.kind, FaultKind::Delay { .. }) {
                            // A straggler stays slow: fire from the
                            // occurrence-th match onwards.
                            fired[i] >= *occurrence
                        } else {
                            // One-shot faults fire exactly once — crucially,
                            // the *retry* of a transiently-failed collective
                            // (same tag, next match) must succeed.
                            fired[i] == *occurrence
                        }
                    } else {
                        false
                    }
                }
            };
            if hit {
                return (op, Some(fault.kind.clone()));
            }
        }
        (op, None)
    }
}

// ---------------------------------------------------------------------------
// Run-level failure reporting
// ---------------------------------------------------------------------------

/// Why a rank did not produce a result under [`crate::World::try_run`].
#[derive(Clone, Debug)]
pub struct RankFailure {
    pub world_rank: usize,
    /// Stream position of the collective the failure is attributed to.
    pub parked: Option<ParkedPosition>,
    pub cause: String,
}

impl RankFailure {
    /// Collective index the failure is attributed to, if known.
    pub fn op_index(&self) -> Option<u64> {
        self.parked.as_ref().map(|p| p.op_index)
    }

    /// Phase tag the failure is attributed to, if known.
    pub fn tag(&self) -> Option<&str> {
        self.parked.as_ref().map(|p| p.tag.as_str())
    }
}

impl fmt::Display for RankFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.parked {
            Some(at) => write!(
                f,
                "rank {} failed at {}: {}",
                self.world_rank, at, self.cause
            ),
            None => write!(f, "rank {} failed: {}", self.world_rank, self.cause),
        }
    }
}

/// Per-rank entry of a [`HangReport`].
#[derive(Clone, Debug)]
pub struct HangEntry {
    pub world_rank: usize,
    /// `None` when the rank completed normally; otherwise the failure cause.
    pub failure: Option<String>,
    /// Where the rank was parked when the run went down (survivors that
    /// errored out while waiting report the collective they were blocked on).
    pub parked: Option<ParkedPosition>,
    /// The rank's last flight-recorder events (rendered, oldest first) —
    /// the black box of what it was doing right before the failure. Empty
    /// for ranks that completed normally.
    pub flight_tail: Vec<String>,
}

/// Diagnosis of a failed run: for every rank, whether it completed, where it
/// was parked, and why it failed. Produced by [`crate::World::try_run`]
/// whenever at least one rank fails.
#[derive(Clone, Debug, Default)]
pub struct HangReport {
    pub entries: Vec<HangEntry>,
}

impl HangReport {
    pub fn entry(&self, world_rank: usize) -> Option<&HangEntry> {
        self.entries.iter().find(|e| e.world_rank == world_rank)
    }
}

impl fmt::Display for HangReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "hang report ({} rank(s)):", self.entries.len())?;
        for e in &self.entries {
            match (&e.failure, &e.parked) {
                (None, _) => writeln!(f, "  rank {}: completed", e.world_rank)?,
                (Some(cause), Some(at)) => {
                    writeln!(f, "  rank {}: parked on {} — {}", e.world_rank, at, cause)?
                }
                (Some(cause), None) => writeln!(f, "  rank {}: {}", e.world_rank, cause)?,
            }
            if !e.flight_tail.is_empty() {
                writeln!(f, "    last {} flight events:", e.flight_tail.len())?;
                for line in &e.flight_tail {
                    writeln!(f, "      {line}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_matches_nothing() {
        let ctx = FaultCtx::new(Arc::new(FaultPlan::none()), FailureBoard::new(), 0);
        for tag in ["a", "b", "c"] {
            let (_, fault) = ctx.enter_collective(tag);
            assert!(fault.is_none());
        }
        assert_eq!(ctx.op_counter.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn at_op_trigger_fires_exactly_once() {
        let plan = FaultPlan::none().crash_at_op(3, 2);
        let ctx = FaultCtx::new(Arc::new(plan.clone()), FailureBoard::new(), 3);
        assert!(ctx.enter_collective("x").1.is_none()); // op 0
        assert!(ctx.enter_collective("x").1.is_none()); // op 1
        let (op, fault) = ctx.enter_collective("x"); // op 2
        assert_eq!(op, 2);
        assert_eq!(fault, Some(FaultKind::Crash));
        assert!(ctx.enter_collective("x").1.is_none()); // op 3

        // A different rank never fires.
        let other = FaultCtx::new(Arc::new(plan), FailureBoard::new(), 1);
        for _ in 0..5 {
            assert!(other.enter_collective("x").1.is_none());
        }
    }

    #[test]
    fn tag_trigger_counts_occurrences() {
        let plan = FaultPlan::none().transient_at_tag(0, "ts:", 2);
        let ctx = FaultCtx::new(Arc::new(plan), FailureBoard::new(), 0);
        assert!(ctx.enter_collective("other").1.is_none());
        assert!(ctx.enter_collective("ts:bfetch").1.is_none()); // 1st match
        let (_, f) = ctx.enter_collective("ts:cret"); // 2nd match
        assert_eq!(f, Some(FaultKind::Transient));
        // One-shot: the retry of the failed collective must not re-fire.
        assert!(ctx.enter_collective("ts:cret").1.is_none());
    }

    #[test]
    fn delay_trigger_persists_after_first_firing() {
        let plan = FaultPlan::none().delay_at_tag(0, "ts:", 1, 0.25);
        let ctx = FaultCtx::new(Arc::new(plan), FailureBoard::new(), 0);
        for _ in 0..3 {
            let (_, f) = ctx.enter_collective("ts:bfetch");
            assert_eq!(f, Some(FaultKind::Delay { secs: 0.25 }));
        }
        assert!(ctx.enter_collective("other").1.is_none());
    }

    #[test]
    fn random_plans_are_deterministic_per_seed() {
        let a = FaultPlan::random(7, 4, 100, 5);
        let b = FaultPlan::random(7, 4, 100, 5);
        let c = FaultPlan::random(8, 4, 100, 5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.faults().len(), 5);
        for f in a.faults() {
            assert!(f.rank < 4);
            assert!(matches!(
                f.kind,
                FaultKind::Transient | FaultKind::Delay { .. }
            ));
        }
    }

    #[test]
    fn board_tracks_failed_done_parked() {
        let board = FailureBoard::new();
        assert!(!board.any_failed());
        board.set_parked(
            1,
            ParkedPosition {
                op_index: 4,
                seq: 4,
                kind: CollKind::AllToAllV,
                tag: "t".into(),
            },
        );
        board.mark_failed(FailureInfo {
            world_rank: 0,
            parked: None,
            cause: "injected crash".into(),
        });
        board.mark_done(2);
        assert!(board.any_failed());
        assert!(board.failure_of(0).is_some());
        assert!(board.failure_of(1).is_none());
        assert!(board.is_done(2));
        assert_eq!(board.parked_of(1).unwrap().op_index, 4);
        // First failure cause wins.
        board.mark_failed(FailureInfo {
            world_rank: 0,
            parked: None,
            cause: "second".into(),
        });
        assert_eq!(board.failure_of(0).unwrap().cause, "injected crash");
    }

    #[test]
    fn error_display_is_attributable() {
        let e = CommError::PayloadTypeMismatch {
            rank: 3,
            src: 1,
            kind: CollKind::AllToAllV,
            tag: "ts:bfetch".into(),
        };
        let s = e.to_string();
        assert!(s.contains("rank 3"), "{s}");
        assert!(s.contains("rank 1"), "{s}");
        assert!(s.contains("ts:bfetch"), "{s}");

        let m = CommError::CollectiveMismatch {
            rank: 0,
            src: 2,
            expected_kind: CollKind::Bcast,
            expected_seq: 5,
            got_kind: CollKind::AllToAllV,
            got_seq: 5,
            tag: "x".into(),
        };
        assert!(m.to_string().starts_with("collective mismatch"));
        assert!(!m.is_transient());
        assert!(CommError::Injected {
            rank: 0,
            op_index: 1,
            kind: CollKind::Barrier,
            tag: "t".into()
        }
        .is_transient());
    }
}
