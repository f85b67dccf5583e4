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
//! The barrier spins briefly, then parks. The last arriver bumps the
//! generation under the wait-list lock and unparks every registered waiter,
//! so a waiter that checks the generation under the same lock before
//! parking cannot miss its wake-up. [`Slab::poison`] wakes every waiter the
//! same way and makes it report [`Wake::Poisoned`].

use crate::stats::CollKind;
use parking_lot::Mutex;
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::thread::{self, Thread};
use std::time::Duration;

/// A type-erased posted payload.
pub(crate) type Payload = Box<dyn Any + Send>;

/// Generation checks a waiter makes before it parks. Ranks outnumber host
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
    /// Declared element counts: one per destination for an alltoallv, one
    /// for a single-buffer payload, none for scalars. Readers compare them
    /// against what arrived to detect truncation.
    lens: Vec<u64>,
    payload: Option<Payload>,
    /// Peers that have yet to read this posting.
    readers: usize,
}

struct Slot {
    /// `seq << 8 | kind` of the latest posting, or [`UNPOSTED`].
    stamp: AtomicU64,
    posting: Mutex<Posting>,
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
    poisoned: AtomicBool,
    /// Parked waiters, indexed by group rank (re-registering is idempotent).
    waiters: Mutex<Vec<Option<Thread>>>,
}

impl Slab {
    pub(crate) fn new(size: usize) -> Self {
        let bank = || -> Box<[Slot]> {
            (0..size)
                .map(|_| Slot {
                    stamp: AtomicU64::new(UNPOSTED),
                    posting: Mutex::new(Posting::default()),
                })
                .collect()
        };
        Self {
            banks: [bank(), bank()],
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            waiters: Mutex::new(vec![None; size]),
        }
    }

    fn slot(&self, seq: u64, rank: usize) -> &Slot {
        &self.banks[(seq & 1) as usize][rank]
    }

    /// Posts `rank`'s side of collective `seq`. `fill` runs under the slot
    /// lock: it writes the declared lengths into the cleared vector it is
    /// handed and returns the payload, which `readers` peers will read.
    pub(crate) fn post(
        &self,
        rank: usize,
        seq: u64,
        kind: CollKind,
        readers: usize,
        fill: impl FnOnce(&mut Vec<u64>) -> Option<Payload>,
    ) {
        let slot = self.slot(seq, rank);
        let stale = {
            let mut posting = slot.posting.lock();
            posting.lens.clear();
            let payload = fill(&mut posting.lens).filter(|_| readers > 0);
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

    /// Reads `src`'s posting for `seq` as one of its readers. `f` gets the
    /// payload and the declared lengths, plus whether this is the last
    /// reader, which should take the payload by move rather than clone it.
    /// Whatever the last reader leaves behind is dropped after the lock.
    pub(crate) fn read<R>(
        &self,
        seq: u64,
        src: usize,
        f: impl FnOnce(&mut Option<Payload>, &[u64], bool) -> R,
    ) -> R {
        let mut guard = self.slot(seq, src).posting.lock();
        let posting = &mut *guard;
        posting.readers = posting.readers.saturating_sub(1);
        let last = posting.readers == 0;
        let out = f(&mut posting.payload, &posting.lens, last);
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
        let mut waiters = self.waiters.lock();
        self.generation.store(gen + 1, Ordering::Release);
        for t in waiters.iter_mut().filter_map(Option::take) {
            t.unpark();
        }
        None
    }

    fn released(&self, gen: u64) -> bool {
        self.generation.load(Ordering::Acquire) != gen
    }

    /// Waits for generation `gen` to end. Without `poll` it parks until
    /// released or poisoned; with `poll` it returns [`Wake::TimedOut`]
    /// after at most that long so the caller can check on its peers.
    pub(crate) fn wait(&self, rank: usize, gen: u64, poll: Option<Duration>) -> Wake {
        for _ in 0..SPIN {
            if self.released(gen) {
                return Wake::Released;
            }
            std::hint::spin_loop();
        }
        loop {
            {
                let mut waiters = self.waiters.lock();
                if self.released(gen) {
                    return Wake::Released;
                }
                if self.poisoned.load(Ordering::Acquire) {
                    return Wake::Poisoned;
                }
                waiters[rank] = Some(thread::current());
            }
            match poll {
                Some(d) => thread::park_timeout(d),
                None => thread::park(),
            }
            if self.released(gen) {
                return Wake::Released;
            }
            if poll.is_some() {
                return Wake::TimedOut;
            }
        }
    }

    /// Marks the group dead and wakes every parked waiter.
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        let mut waiters = self.waiters.lock();
        for t in waiters.iter_mut().filter_map(Option::take) {
            t.unpark();
        }
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
            lens.push(2);
            Some(Box::new(vec![1u8, 2]))
        });
        let first = slab.read(4, 0, |p, lens, last| {
            assert_eq!(lens, &[2]);
            assert!(!last);
            p.is_some()
        });
        let second = slab.read(4, 0, |p, _, last| {
            assert!(last);
            p.take().is_some()
        });
        assert!(first && second);
        assert!(slab.read(4, 0, |p, _, _| p.is_none()));
    }

    #[test]
    fn barrier_releases_each_generation_once() {
        let p = 6;
        let slab = Arc::new(Slab::new(p));
        std::thread::scope(|s| {
            for rank in 0..p {
                let slab = Arc::clone(&slab);
                s.spawn(move || {
                    for _ in 0..200 {
                        if let Some(gen) = slab.arrive() {
                            assert!(matches!(slab.wait(rank, gen, None), Wake::Released));
                        }
                    }
                });
            }
        });
        assert_eq!(slab.generation.load(Ordering::Acquire), 200);
    }

    #[test]
    fn poison_wakes_parked_waiters() {
        let slab = Arc::new(Slab::new(3));
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..2)
                .map(|rank| {
                    let slab = Arc::clone(&slab);
                    s.spawn(move || {
                        let gen = slab.arrive().expect("rank 2 never arrives");
                        matches!(slab.wait(rank, gen, None), Wake::Poisoned)
                    })
                })
                .collect();
            // Poison only once both waiters have registered to park.
            while !slab.waiters.lock()[..2].iter().all(Option::is_some) {
                std::thread::yield_now();
            }
            slab.poison();
            assert!(waiters.into_iter().all(|h| h.join().unwrap()));
        });
        assert!(slab.is_poisoned());
    }
}
