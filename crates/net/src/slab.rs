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
//! The barrier spins briefly, then sleeps on one 32-bit wake word
//! (`futex.rs`). A waiter loads the word, re-checks the generation and the
//! poison flag, and sleeps only while the word still holds what it loaded.
//! The last arriver bumps the generation, then the word, and wakes every
//! sleeper with one call; a release that lands between a waiter's check and
//! its sleep changes the word, so the sleep returns at once and no wake-up
//! is lost. [`Slab::poison`] bumps the word the same way and makes every
//! waiter report [`Wake::Poisoned`].

use crate::futex;
use crate::rank_log::lock;
use crate::stats::CollKind;
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A type-erased posted payload.
pub(crate) type Payload = Box<dyn Any + Send>;

/// Generation checks a waiter makes before it sleeps. Ranks outnumber host
/// cores, so a long spin only steals the time the last arriver needs.
const SPIN: u32 = 16;

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
pub(crate) enum Wake {
    /// Every member arrived.
    Released,
    /// The group was poisoned: a member panicked and will never arrive.
    Poisoned,
    /// The poll interval passed without a release.
    TimedOut,
}

/// Per-group exchange slots plus the generation barrier that releases them.
pub(crate) struct Slab {
    banks: [Box<[Slot]>; 2],
    arrived: AtomicUsize,
    generation: AtomicU64,
    /// The futex word: bumped by every release and by [`Slab::poison`].
    wake: AtomicU32,
    /// Waiters that are asleep on `wake` or about to sleep on it. A count
    /// for tests and diagnosis; it orders nothing.
    parked: AtomicUsize,
    poisoned: AtomicBool,
}

impl Slab {
    pub(crate) fn new(size: usize) -> Self {
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
            wake: AtomicU32::new(0),
            parked: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
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

    /// Arrives at the barrier. Returns the generation to wait on, or `None`
    /// when this arrival was the last one and released the group.
    ///
    /// Ordering: each arrival's `AcqRel` increment releases the rank's
    /// posting, and the last arriver's increment acquires all of them (the
    /// increments form one release sequence). Its `Release` store of the
    /// generation then hands them on to every waiter's `Acquire` load.
    pub(crate) fn arrive(&self) -> Option<u64> {
        // The generation cannot move before this rank arrives.
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 < self.banks[0].len() {
            return Some(gen);
        }
        // `Relaxed` is enough: nobody arrives for `gen + 1` before it has
        // acquired the generation bump below, which this store precedes.
        self.arrived.store(0, Ordering::Relaxed);
        self.generation.store(gen + 1, Ordering::Release);
        self.wake_all();
        None
    }

    /// Changes the wake word, then wakes every sleeper on it.
    fn wake_all(&self) {
        self.wake.fetch_add(1, Ordering::Release);
        futex::wake_all(&self.wake);
    }

    fn released(&self, gen: u64) -> bool {
        self.generation.load(Ordering::Acquire) != gen
    }

    /// Waits for generation `gen` to end. Without `poll` it sleeps until
    /// released or poisoned; with `poll` it returns [`Wake::TimedOut`]
    /// after at most that long so the caller can check on its peers.
    pub(crate) fn wait(&self, gen: u64, poll: Option<Duration>) -> Wake {
        for _ in 0..SPIN {
            if self.released(gen) {
                return Wake::Released;
            }
            std::hint::spin_loop();
        }
        loop {
            // Load the word before the checks: a release or poison after
            // them changes it, and the sleep below then returns at once.
            let word = self.wake.load(Ordering::Acquire);
            if self.released(gen) {
                return Wake::Released;
            }
            if self.poisoned.load(Ordering::Acquire) {
                return Wake::Poisoned;
            }
            self.parked.fetch_add(1, Ordering::Relaxed);
            futex::wait(&self.wake, word, poll);
            self.parked.fetch_sub(1, Ordering::Relaxed);
            if self.released(gen) {
                return Wake::Released;
            }
            if poll.is_some() {
                return Wake::TimedOut;
            }
        }
    }

    /// Marks the group dead and wakes every sleeping waiter.
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.wake_all();
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn stamps_round_trip_every_kind() {
        let slab = Slab::new(1);
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
        let slab = Slab::new(3);
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
        let slab = Slab::new(2);
        slab.post(1, 6, CollKind::AllToAllV, 0, |lens| {
            lens.set([0, 0]);
            Some(Box::new(vec![Vec::<u8>::new(), Vec::new()]))
        });
        assert!(slab.posted(6, 1));
        assert!(slab.read(6, 1, |p, _| p.is_none()));
    }

    #[test]
    fn barrier_releases_each_generation_once() {
        let p = 6;
        let slab = Arc::new(Slab::new(p));
        std::thread::scope(|s| {
            for _ in 0..p {
                let slab = Arc::clone(&slab);
                s.spawn(move || {
                    for _ in 0..200 {
                        if let Some(gen) = slab.arrive() {
                            assert!(matches!(slab.wait(gen, None), Wake::Released));
                        }
                    }
                });
            }
        });
        assert_eq!(slab.generation.load(Ordering::Acquire), 200);
    }

    #[test]
    fn futex_barrier_survives_poll_timeouts() {
        // Rank 0 arrives last in every generation: after the others have
        // arrived and one of their 1 ms polls has timed out. Each waiter
        // must still see exactly one `Released` per generation, for that
        // generation.
        let (p, gens) = (4, 20u64);
        let slab = Slab::new(p);
        let timeouts = AtomicU64::new(0);
        let poll = Some(Duration::from_millis(1));
        let released: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..p)
                .map(|rank| {
                    let (slab, timeouts) = (&slab, &timeouts);
                    s.spawn(move || {
                        let mut released = 0u64;
                        for g in 0..gens {
                            if rank == 0 {
                                let before = timeouts.load(Ordering::Acquire);
                                while slab.arrived.load(Ordering::Acquire) < p - 1
                                    || timeouts.load(Ordering::Acquire) == before
                                {
                                    std::thread::yield_now();
                                }
                            }
                            let Some(gen) = slab.arrive() else {
                                assert_eq!(rank, 0, "rank 0 arrives last");
                                assert_eq!(slab.generation.load(Ordering::Acquire), g + 1);
                                continue;
                            };
                            assert_eq!(gen, g, "rank {rank} arrived in the wrong generation");
                            loop {
                                match slab.wait(gen, poll) {
                                    Wake::Released => break,
                                    Wake::TimedOut => {
                                        timeouts.fetch_add(1, Ordering::AcqRel);
                                    }
                                    Wake::Poisoned => panic!("nobody poisons this slab"),
                                }
                            }
                            released += 1;
                            // Nobody can start generation g + 1 without this
                            // rank, so the release seen is exactly g's.
                            assert_eq!(slab.generation.load(Ordering::Acquire), g + 1);
                        }
                        released
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Every generation has one last arriver (rank 0) and p - 1 waiters.
        assert_eq!(released[0], 0);
        assert!(released[1..].iter().all(|&r| r == gens));
        assert!(timeouts.load(Ordering::Acquire) >= gens);
        assert_eq!(slab.generation.load(Ordering::Acquire), gens);
        assert_eq!(slab.parked.load(Ordering::Acquire), 0);
    }

    #[test]
    fn poison_wakes_parked_waiters() {
        let slab = Arc::new(Slab::new(3));
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    let slab = Arc::clone(&slab);
                    s.spawn(move || {
                        let gen = slab.arrive().expect("rank 2 never arrives");
                        matches!(slab.wait(gen, None), Wake::Poisoned)
                    })
                })
                .collect();
            // Poison only once both waiters have passed their checks and
            // committed to sleeping.
            while slab.parked.load(Ordering::Acquire) < 2 {
                std::thread::yield_now();
            }
            slab.poison();
            assert!(waiters.into_iter().all(|h| h.join().unwrap()));
        });
        assert!(slab.is_poisoned());
        assert_eq!(slab.parked.load(Ordering::Acquire), 0);
    }
}
