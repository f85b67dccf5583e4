//! The exchange slab: the one transport under every simulated collective.
//!
//! A communicator group owns one [`Slab`]: two banks of one [`Slot`] per
//! member, and a generation-counted barrier. Collective number `seq` uses
//! bank `seq & 1`. A rank posts its whole send side into its own slot once
//! (an alltoallv posts its `Vec<Vec<T>>`, a bcast root its value), arrives
//! at the barrier, and once the group is released reads the peers' slots
//! it needs: it takes its column by move, or clones a shared value. Every
//! posting counts its readers, and the last reader takes (or drops) what is
//! left, so a slot never holds a payload past its collective.
//!
//! Two banks are enough. A rank can post into bank `b` again only at
//! `seq + 2`, which means it passed the barrier of `seq + 1`, which every
//! member reaches only after it finished reading collective `seq`.
//!
//! Declared element counts live in per-slot atomics next to the stamp, so
//! a released reader can see what a peer sent it without taking the peer's
//! slot lock. An alltoallv poster counts as readers only the peers whose
//! column is non-empty, and a receiver whose column is declared empty
//! skips the slot entirely: an exchange in which few (src, dst) pairs carry
//! data costs a few locks, not p² of them.
//!
//! The barrier parks its waiters on the rank scheduler (`sched.rs`). A
//! waiter arrives, publishes a park ticket in its waiter cell, re-checks
//! the generation and the poison flag, and parks. The last arriver bumps
//! the generation and presents every member's ticket; [`Slab::poison`]
//! sets the flag and does the same. Both sides write first and read second
//! (`SeqCst`), so either the waiter sees the release or the releaser sees
//! the ticket, and no wake-up is lost. A waiter woken by neither was woken
//! by a stall: every unfinished rank of the run is parked.

use crate::rank_log::lock;
use crate::sched::Sched;
use crate::stats::CollKind;
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A type-erased posted payload.
pub(crate) type Payload = Box<dyn Any + Send>;

/// Stamp of a slot nobody has posted into yet.
const UNPOSTED: u64 = u64::MAX;

/// `CollKind` by its `as u8` code, for decoding stamps.
const KINDS: [CollKind; 7] = [
    CollKind::AllToAllV,
    CollKind::AllGatherV,
    CollKind::Bcast,
    CollKind::AllReduce,
    CollKind::GatherV,
    CollKind::Barrier,
    CollKind::Split,
];

fn stamp_of(seq: u64, kind: CollKind) -> u64 {
    (seq << 8) | kind as u64
}

/// What one rank posted for one collective.
#[derive(Default)]
struct Posting {
    payload: Option<Payload>,
    /// Peers that have yet to read this posting.
    readers: usize,
}

struct Slot {
    /// `seq << 8 | kind` of the latest posting, or [`UNPOSTED`].
    stamp: AtomicU64,
    /// Declared element counts of the latest posting: one per destination
    /// for an alltoallv, one for a single-buffer payload, none for scalars.
    /// Written before the poster arrives, read after the release.
    lens: Box<[AtomicU64]>,
    posting: Mutex<Posting>,
}

/// Where a poster declares its element counts (see [`Slab::post`]).
pub(crate) struct Declare<'a>(&'a [AtomicU64]);

impl Declare<'_> {
    /// Declares `counts[i]` as the count of entry `i`.
    pub(crate) fn set(&self, counts: impl IntoIterator<Item = u64>) {
        for (cell, n) in self.0.iter().zip(counts) {
            cell.store(n, Ordering::Relaxed);
        }
    }
}

/// How a barrier wait ended.
#[derive(Debug)]
pub(crate) enum Wake {
    /// Every member arrived.
    Released,
    /// The group was poisoned: a member panicked and will never arrive.
    Poisoned,
    /// A hard stall: every unfinished rank is parked, and nothing changed
    /// since the last stall.
    Stalled,
}

/// Per-group exchange slots plus the generation barrier that releases them.
pub(crate) struct Slab {
    banks: [Box<[Slot]>; 2],
    arrived: AtomicUsize,
    generation: AtomicU64,
    poisoned: AtomicBool,
    sched: Arc<Sched>,
    /// World rank of each member: its index in the scheduler.
    world: Box<[usize]>,
    /// Each member's latest park ticket (see [`Slab::wait`]).
    waiting: Box<[AtomicU64]>,
}

impl Slab {
    pub(crate) fn new(world_ranks: &[usize], sched: Arc<Sched>) -> Self {
        let size = world_ranks.len();
        let bank = || -> Box<[Slot]> {
            (0..size)
                .map(|_| Slot {
                    stamp: AtomicU64::new(UNPOSTED),
                    lens: (0..size).map(|_| AtomicU64::new(0)).collect(),
                    posting: Mutex::new(Posting::default()),
                })
                .collect()
        };
        Self {
            banks: [bank(), bank()],
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            sched,
            world: world_ranks.into(),
            waiting: (0..size).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The scheduler this group's ranks park on.
    pub(crate) fn sched(&self) -> &Arc<Sched> {
        &self.sched
    }

    fn slot(&self, seq: u64, rank: usize) -> &Slot {
        &self.banks[(seq & 1) as usize][rank]
    }

    /// Posts `rank`'s side of collective `seq`. `fill` declares the element
    /// counts and returns the payload, which `readers` peers will read.
    pub(crate) fn post(
        &self,
        rank: usize,
        seq: u64,
        kind: CollKind,
        readers: usize,
        fill: impl FnOnce(&Declare) -> Option<Payload>,
    ) {
        let slot = self.slot(seq, rank);
        let payload = fill(&Declare(&slot.lens)).filter(|_| readers > 0);
        let stale = {
            let mut posting = lock(&slot.posting);
            posting.readers = readers;
            std::mem::replace(&mut posting.payload, payload)
        };
        slot.stamp.store(stamp_of(seq, kind), Ordering::Release);
        // A reader that failed early can leave a payload from `seq - 2`.
        drop(stale);
    }

    /// The `(seq, kind)` that `rank` last posted into `seq`'s bank.
    pub(crate) fn stamp(&self, seq: u64, rank: usize) -> Option<(u64, CollKind)> {
        let s = self.slot(seq, rank).stamp.load(Ordering::Acquire);
        (s != UNPOSTED).then(|| (s >> 8, KINDS[(s & 0xff) as usize]))
    }

    /// True when `rank` has posted into collective `seq`.
    pub(crate) fn posted(&self, seq: u64, rank: usize) -> bool {
        self.stamp(seq, rank).is_some_and(|(s, _)| s == seq)
    }

    /// Count `i` that `src` declared for collective `seq`. Valid once the
    /// group is released: `src` stored it before its arrival, and the
    /// release hands every arrival on to the waiters (see [`Slab::arrive`]),
    /// so `Relaxed` stores and loads suffice.
    pub(crate) fn declared(&self, seq: u64, src: usize, i: usize) -> u64 {
        self.slot(seq, src).lens[i].load(Ordering::Relaxed)
    }

    /// Reads `src`'s posting for `seq` as one of its readers. `f` gets the
    /// payload plus whether this is the last reader, which should take the
    /// payload by move rather than clone it. Whatever the last reader leaves
    /// behind is dropped after the lock.
    pub(crate) fn read<R>(
        &self,
        seq: u64,
        src: usize,
        f: impl FnOnce(&mut Option<Payload>, bool) -> R,
    ) -> R {
        let mut guard = lock(&self.slot(seq, src).posting);
        let posting = &mut *guard;
        posting.readers = posting.readers.saturating_sub(1);
        let last = posting.readers == 0;
        let out = f(&mut posting.payload, last);
        let rest = if last { posting.payload.take() } else { None };
        drop(guard);
        drop(rest);
        out
    }

    /// Arrives at the barrier as `member` and waits for the release.
    ///
    /// A soft stall (see `sched.rs`) asks `on_stall` whether the wait can
    /// end in an error, for example because a peer exited; if not, the
    /// member parks again. A hard stall returns [`Wake::Stalled`]. Panics,
    /// before arriving, unless called on the member's own thread.
    pub(crate) fn barrier<E>(
        &self,
        member: usize,
        mut on_stall: impl FnMut() -> Option<E>,
    ) -> Result<Wake, E> {
        self.sched.check_thread(self.world[member]);
        let Some(gen) = self.arrive() else {
            return Ok(Wake::Released);
        };
        loop {
            match self.wait(member, gen) {
                Wake::Stalled if !self.sched.stall_is_hard() => {
                    if let Some(err) = on_stall() {
                        self.sched.progressed();
                        return Err(err);
                    }
                }
                wake => return Ok(wake),
            }
        }
    }

    /// Arrives at the barrier. Returns the generation to wait on, or `None`
    /// when this arrival was the last one and released the group.
    ///
    /// Ordering: each arrival's `AcqRel` increment releases the rank's
    /// posting, and the last arriver's increment acquires all of them (the
    /// increments form one release sequence). Its store of the generation
    /// then hands them on to every waiter's load.
    fn arrive(&self) -> Option<u64> {
        // The generation cannot move before this rank arrives.
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 < self.banks[0].len() {
            return Some(gen);
        }
        // `Relaxed` is enough: nobody arrives for `gen + 1` before it has
        // acquired the generation bump below, which this store precedes.
        self.arrived.store(0, Ordering::Relaxed);
        self.generation.store(gen + 1, Ordering::SeqCst);
        self.wake_all();
        None
    }

    /// Presents every member's latest ticket. Stale ones (the releaser's
    /// own, or one left by a wait that ended in a stall) wake nobody.
    fn wake_all(&self) {
        for (&rank, cell) in self.world.iter().zip(self.waiting.iter()) {
            let t = cell.load(Ordering::SeqCst);
            if t & 1 == 1 {
                self.sched.wake(rank, t);
            }
        }
    }

    fn released(&self, gen: u64) -> bool {
        self.generation.load(Ordering::SeqCst) != gen
    }

    /// Parks `member` until generation `gen` ends, the group is poisoned,
    /// or the run stalls.
    fn wait(&self, member: usize, gen: u64) -> Wake {
        let rank = self.world[member];
        let ticket = self.sched.ticket(rank);
        self.waiting[member].store(ticket, Ordering::SeqCst);
        // A release or poison before the store above could not see the
        // ticket, so check for one after it.
        let done = self.released(gen) || self.is_poisoned();
        if !done || !self.sched.cancel(rank, ticket) {
            self.sched.park(rank, ticket);
        }
        if self.released(gen) {
            Wake::Released
        } else if self.is_poisoned() {
            Wake::Poisoned
        } else {
            Wake::Stalled
        }
    }

    /// Marks the group dead and wakes every parked member.
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world_slab(p: usize, workers: usize) -> (Arc<Sched>, Slab) {
        let sched = Sched::with_workers(p, workers);
        let world: Vec<usize> = (0..p).collect();
        let slab = Slab::new(&world, Arc::clone(&sched));
        (sched, slab)
    }

    #[test]
    fn stamps_round_trip_every_kind() {
        let (_, slab) = world_slab(1, 1);
        assert_eq!(slab.stamp(0, 0), None);
        for (seq, &kind) in KINDS.iter().enumerate() {
            let seq = seq as u64 + (1 << 40);
            slab.post(0, seq, kind, 0, |_| None);
            assert_eq!(slab.stamp(seq, 0), Some((seq, kind)));
            assert!(slab.posted(seq, 0));
            assert!(!slab.posted(seq + 2, 0));
        }
    }

    #[test]
    fn last_reader_takes_the_payload() {
        let (_, slab) = world_slab(3, 1);
        slab.post(0, 4, CollKind::Bcast, 2, |lens| {
            lens.set([2]);
            Some(Box::new(vec![1u8, 2]))
        });
        assert_eq!(slab.declared(4, 0, 0), 2);
        let first = slab.read(4, 0, |p, last| {
            assert!(!last);
            p.is_some()
        });
        let second = slab.read(4, 0, |p, last| {
            assert!(last);
            p.take().is_some()
        });
        assert!(first && second);
        assert!(slab.read(4, 0, |p, _| p.is_none()));
    }

    #[test]
    fn a_posting_without_readers_keeps_no_payload() {
        let (_, slab) = world_slab(2, 1);
        slab.post(1, 6, CollKind::AllToAllV, 0, |lens| {
            lens.set([0, 0]);
            Some(Box::new(vec![Vec::<u8>::new(), Vec::new()]))
        });
        assert!(slab.posted(6, 1));
        assert!(slab.read(6, 1, |p, _| p.is_none()));
    }

    #[test]
    fn barrier_releases_each_generation_once() {
        // On coroutines (one and two workers) and on threads (six).
        for workers in [1, 2, 6] {
            let p = 6;
            let (sched, slab) = world_slab(p, workers);
            let out = sched.run(|rank| {
                for g in 0..200u64 {
                    let wake = slab.barrier(rank, || None::<()>);
                    assert!(matches!(wake, Ok(Wake::Released)), "{wake:?}");
                    // Nobody can start generation g + 1 without this rank,
                    // so the release seen is exactly g's.
                    assert_eq!(slab.generation.load(Ordering::SeqCst), g + 1);
                }
            });
            assert!(out.iter().all(|r| r.is_ok()), "workers={workers}");
            assert_eq!(slab.generation.load(Ordering::SeqCst), 200);
        }
    }

    #[test]
    fn poison_wakes_parked_waiters() {
        // One worker runs the ranks in order, so ranks 0 and 1 are parked
        // when rank 2 poisons the group.
        let (sched, slab) = world_slab(3, 1);
        let out = sched.run(|rank| {
            if rank == 2 {
                assert_eq!(sched.parked(), 2);
                slab.poison();
                return true;
            }
            matches!(slab.barrier(rank, || None::<()>), Ok(Wake::Poisoned))
        });
        assert!(out.into_iter().all(|r| r.unwrap()));
        assert!(slab.is_poisoned());
        assert_eq!(sched.parked(), 0);
    }

    #[test]
    fn a_stall_asks_each_waiter_then_turns_hard() {
        // Rank 2 returns without arriving. The first stall asks ranks 0
        // and 1 for an error; rank 0 gives one, rank 1 parks again, and the
        // stall after that (no progress since) is hard.
        for workers in [1, 3] {
            let (sched, slab) = world_slab(3, workers);
            let out = sched.run(|rank| match rank {
                2 => Ok(Wake::Released),
                0 => slab.barrier(rank, || Some("peer gone")),
                _ => slab.barrier(rank, || None),
            });
            let out: Vec<_> = out.into_iter().map(|r| r.unwrap()).collect();
            assert!(matches!(out[0], Err("peer gone")), "{:?}", out[0]);
            assert!(matches!(out[1], Ok(Wake::Stalled)), "{:?}", out[1]);
            assert!(sched.stall_is_hard());
        }
    }
}
