//! Per-rank execution profiles: compute segments and collective records.
//!
//! Ranks execute bulk-synchronously: stretches of local compute separated by
//! collectives. Each rank logs that alternation as a sequence of
//! [`Segment`]s. Because all group members invoke collectives in lock-step,
//! the k-th segment of every rank describes the same global step, which is
//! what lets [`crate::cost`] assemble a modeled global timeline.

use std::sync::Arc;
use std::time::Instant;

/// Which collective a record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollKind {
    AllToAllV,
    AllGatherV,
    Bcast,
    AllReduce,
    GatherV,
    Barrier,
    Split,
}

/// Static description of a communicator group (world ranks of its members).
#[derive(Debug)]
pub struct GroupInfo {
    /// `group rank -> world rank`.
    pub world_ranks: Vec<usize>,
}

/// One collective as observed by one rank.
#[derive(Clone, Debug)]
pub struct CollectiveRecord {
    pub kind: CollKind,
    /// Phase label chosen by the caller (e.g. `"ts:bfetch"`), used to
    /// attribute communication volume to algorithm phases.
    pub tag: String,
    /// The group the collective ran on.
    pub group: Arc<GroupInfo>,
    /// Payload bytes this rank sent to each *world* rank (excluding itself).
    pub bytes_to: Vec<(usize, u64)>,
    /// Payload bytes this rank received (excluding its own contribution).
    pub bytes_received: u64,
    /// Number of peers this rank received a non-empty payload from
    /// (AllToAllv only; the latency term of a sparse point-to-point
    /// exchange scales with actual messages, not with `p`).
    pub recv_msgs: u32,
    /// Per-message payload for rooted/uniform collectives (bcast/allreduce):
    /// the size of the broadcast value. Zero for alltoallv.
    pub uniform_bytes: u64,
    /// Wall-clock seconds this rank spent inside the collective (includes
    /// waiting for peers; meaningful only relative to other measured times).
    pub wait_secs: f64,
    /// Modeled straggler delay injected by an active fault plan (zero in
    /// fault-free runs); priced by [`crate::CostModel::collective_cost`].
    pub injected_delay_secs: f64,
    /// Seconds since the rank's profile epoch at which the rank entered the
    /// collective. Gives every record an absolute position on the rank's
    /// timeline, which is what the Chrome-trace export plots.
    pub entered_secs: f64,
}

impl CollectiveRecord {
    /// Total payload bytes this rank sent to other ranks.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_to.iter().map(|&(_, b)| b).sum()
    }
}

/// One bulk-synchronous step of one rank: the compute preceding a
/// collective, then the collective itself (`None` for the trailing segment
/// after the last collective).
#[derive(Clone, Debug)]
pub struct Segment {
    /// Useful work reported by kernels via [`RankProfile::add_flops`].
    pub flops: u64,
    /// Largest compute working set noted in this segment (bytes) via
    /// [`RankProfile::note_working_set`]; the cost model slows flops down
    /// when it exceeds the modeled cache (the §III-A locality effect).
    pub ws_bytes: u64,
    /// Measured wall-clock compute seconds in this segment.
    pub compute_secs: f64,
    pub coll: Option<CollectiveRecord>,
}

/// A named compute interval recorded by an algorithm (tile-loop phases like
/// `"ts:kernel"`), positioned on the rank's timeline by seconds since the
/// profile epoch. Spans are pure annotation: byte accounting and the cost
/// model ignore them; the Chrome-trace export plots them as slices.
#[derive(Clone, Debug)]
pub struct PhaseSpan {
    /// Phase tag (same namespace as collective tags).
    pub tag: String,
    /// Seconds since the profile epoch at which the span started.
    pub start_secs: f64,
    /// Seconds since the profile epoch at which the span ended.
    pub end_secs: f64,
}

/// The full log of one rank's run.
#[derive(Debug)]
pub struct RankProfile {
    pub world_rank: usize,
    pub segments: Vec<Segment>,
    /// Algorithm-recorded phase spans (empty unless tracing is enabled).
    pub spans: Vec<PhaseSpan>,
    pending_flops: u64,
    pending_ws: u64,
    mark: Instant,
    /// Profile epoch: every timestamp in this profile is relative to it.
    epoch: Instant,
}

impl RankProfile {
    pub fn new(world_rank: usize) -> Self {
        let now = Instant::now();
        Self {
            world_rank,
            segments: Vec::new(),
            spans: Vec::new(),
            pending_flops: 0,
            pending_ws: 0,
            mark: now,
            epoch: now,
        }
    }

    /// Credits `flops` of useful work to the current compute segment.
    pub fn add_flops(&mut self, flops: u64) {
        self.pending_flops += flops;
    }

    /// Notes the working set a kernel streamed over (max-merged into the
    /// current segment). Pair with [`RankProfile::add_flops`]: the cost
    /// model charges those flops at a reduced rate once the working set
    /// spills out of the modeled cache.
    pub fn note_working_set(&mut self, bytes: u64) {
        self.pending_ws = self.pending_ws.max(bytes);
    }

    /// Records a phase span that started at `started` and ends now.
    pub fn record_span(&mut self, tag: String, started: Instant) {
        self.record_span_between(tag, started, Instant::now());
    }

    /// Records a phase span with both endpoints supplied by the caller.
    /// Lets worker threads time their own chunks and the owning rank log
    /// them after the join (per-thread kernel lanes in the Chrome trace).
    pub fn record_span_between(&mut self, tag: String, started: Instant, ended: Instant) {
        self.spans.push(PhaseSpan {
            tag,
            start_secs: started.duration_since(self.epoch).as_secs_f64(),
            end_secs: ended.duration_since(self.epoch).as_secs_f64(),
        });
    }

    /// Closes the current compute segment with `coll` attached.
    /// Called by `Comm` right after a collective completes; `entered` is the
    /// instant the rank entered the collective.
    pub(crate) fn end_segment(&mut self, mut coll: CollectiveRecord, entered: Instant) {
        let compute_secs = entered.duration_since(self.mark).as_secs_f64();
        coll.entered_secs = entered.duration_since(self.epoch).as_secs_f64();
        self.segments.push(Segment {
            flops: std::mem::take(&mut self.pending_flops),
            ws_bytes: std::mem::take(&mut self.pending_ws),
            compute_secs,
            coll: Some(coll),
        });
        self.mark = Instant::now();
    }

    /// Flushes the trailing compute-only segment. Called once when the rank
    /// function returns.
    pub(crate) fn finish(&mut self) {
        let compute_secs = self.mark.elapsed().as_secs_f64();
        if self.pending_flops > 0 || compute_secs > 0.0 {
            self.segments.push(Segment {
                flops: std::mem::take(&mut self.pending_flops),
                ws_bytes: std::mem::take(&mut self.pending_ws),
                compute_secs,
                coll: None,
            });
        }
    }

    /// Copy of the recorded data (used when a live handle still exists).
    pub(crate) fn snapshot(&self) -> RankProfile {
        RankProfile {
            world_rank: self.world_rank,
            segments: self.segments.clone(),
            spans: self.spans.clone(),
            pending_flops: 0,
            pending_ws: 0,
            mark: Instant::now(),
            epoch: self.epoch,
        }
    }

    /// Total payload bytes this rank sent across all collectives.
    pub fn total_bytes_sent(&self) -> u64 {
        self.segments
            .iter()
            .filter_map(|s| s.coll.as_ref())
            .map(|c| c.bytes_sent())
            .sum()
    }

    /// Total payload bytes sent in collectives whose tag starts with `prefix`.
    pub fn bytes_sent_tagged(&self, prefix: &str) -> u64 {
        self.segments
            .iter()
            .filter_map(|s| s.coll.as_ref())
            .filter(|c| c.tag.starts_with(prefix))
            .map(|c| c.bytes_sent())
            .sum()
    }

    /// Total flops this rank performed.
    pub fn total_flops(&self) -> u64 {
        self.segments.iter().map(|s| s.flops).sum()
    }
}

/// Aggregates across a whole run (all ranks).
pub fn total_bytes_sent(profiles: &[RankProfile]) -> u64 {
    profiles.iter().map(|p| p.total_bytes_sent()).sum()
}

/// Aggregate bytes for collectives whose tag starts with `prefix`.
pub fn bytes_sent_tagged(profiles: &[RankProfile], prefix: &str) -> u64 {
    profiles.iter().map(|p| p.bytes_sent_tagged(prefix)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(tag: &str, bytes: &[(usize, u64)]) -> CollectiveRecord {
        CollectiveRecord {
            kind: CollKind::AllToAllV,
            tag: tag.to_string(),
            group: Arc::new(GroupInfo {
                world_ranks: vec![0, 1],
            }),
            bytes_to: bytes.to_vec(),
            bytes_received: 0,
            recv_msgs: 0,
            uniform_bytes: 0,
            wait_secs: 0.0,
            injected_delay_secs: 0.0,
            entered_secs: 0.0,
        }
    }

    #[test]
    fn segments_accumulate_flops() {
        let mut p = RankProfile::new(0);
        p.add_flops(100);
        p.end_segment(record("a", &[(1, 10)]), Instant::now());
        p.add_flops(50);
        p.finish();
        assert_eq!(p.segments.len(), 2);
        assert_eq!(p.segments[0].flops, 100);
        assert_eq!(p.segments[1].flops, 50);
        assert_eq!(p.total_flops(), 150);
    }

    #[test]
    fn byte_accounting_by_tag() {
        let mut p = RankProfile::new(0);
        p.end_segment(record("phase:b", &[(1, 10), (2, 5)]), Instant::now());
        p.end_segment(record("phase:c", &[(1, 7)]), Instant::now());
        p.finish();
        assert_eq!(p.total_bytes_sent(), 22);
        assert_eq!(p.bytes_sent_tagged("phase:b"), 15);
        assert_eq!(p.bytes_sent_tagged("phase:c"), 7);
        assert_eq!(p.bytes_sent_tagged("phase:"), 22);
        assert_eq!(p.bytes_sent_tagged("other"), 0);
    }

    #[test]
    fn finish_without_activity_records_time_only_segment() {
        let mut p = RankProfile::new(3);
        p.finish();
        // Either empty or a single compute-only segment; never a collective.
        assert!(p.segments.iter().all(|s| s.coll.is_none()));
    }
}
