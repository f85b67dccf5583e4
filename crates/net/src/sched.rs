//! The rank scheduler: `p` ranks on `W = min(p, nproc)` worker threads.
//!
//! Rank `r` is pinned to worker `r mod W` for its whole run, so thread-local
//! addresses it computed stay valid across a switch. When `p > W` each rank
//! runs as a stackful coroutine (`coro.rs`) and a worker loops over its run
//! queue: it switches into the next runnable rank and gets control back
//! when that rank parks or finishes. When every rank has a worker to itself
//! (`p ≤ nproc`, or a target without coroutines) the rank runs on the
//! worker's own stack and parking blocks the thread.
//!
//! **Parking.** A rank that must wait takes a *ticket* ([`Sched::ticket`]),
//! publishes it where its wakers look (the slab's waiter cells), re-checks
//! its condition, and then [`Sched::park`]s, or [`Sched::cancel`]s the ticket
//! if the condition already holds. A waker presents the ticket
//! ([`Sched::wake`]); only the first presentation of a ticket wakes, so a
//! stale ticket left in a waiter cell never wakes a rank parked elsewhere.
//! A woken coroutine goes on its worker's run queue; an idle worker polls
//! briefly, then sleeps until a waker calls `std::thread::unpark`. Parking
//! and waking do not allocate: a run queue is sized for every rank of its
//! worker up front.
//!
//! **Threads.** Only a rank's own worker may wait for it: parking on any
//! other thread would switch that thread onto the worker's stack (or wait
//! for an unpark sent to the worker). [`Sched::check_thread`] turns such a
//! call, say a collective issued from a thread the rank spawned, into a
//! panic.
//!
//! **Stalls.** `active` counts the ranks that are running or runnable. A
//! rank that blocks its worker (inside `tsgemm-pool`, say) is running, not
//! parked. When `active` drops to zero while ranks are unfinished, every
//! one of them is parked and none can be woken by a peer: a stall. The
//! rank that saw the count drop wakes every parked rank; each sees neither
//! a release nor a poison and reports the stall to its caller. A stall with
//! no progress since the previous one (no rank finished, and no stalled
//! rank gave up its wait) is *hard*: nothing will ever change.

use crate::coro::{self, Stack};
use crate::rank_log::lock;
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// How long an idle worker polls for a wake before it sleeps. A wake
/// comes when the ranks running on the other workers reach their next
/// collective, often within one tile step; a worker that slept must wait
/// for a futex wake and for the OS to run it again, which on a loaded host
/// costs more than the poll. Bounded, so a worker does not compete long
/// with a rank that blocks its own worker in a thread pool.
const IDLE_SPIN: Duration = Duration::from_millis(1);

thread_local! {
    /// The [`Worker`] this thread runs, by address; 0 on other threads.
    static WORKER: Cell<usize> = const { Cell::new(0) };
}

/// Hardware threads of this host, read once.
fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

struct Rank {
    /// Even while the rank runs or is runnable; odd (the ticket) while it
    /// is parked or about to park. A wake moves it to the next even value.
    ticket: AtomicU64,
    /// Set by the rank's coroutine just before its last switch out.
    done: AtomicBool,
    /// The rank's stack pointer while its coroutine is switched out.
    sp: UnsafeCell<*mut u8>,
}

struct Worker {
    /// Runnable ranks pinned to this worker; never holds more than those.
    queue: Mutex<VecDeque<usize>>,
    /// True while the worker has found its queue empty and may sleep.
    idle: AtomicBool,
    thread: OnceLock<Thread>,
    /// The run loop's stack pointer while a rank runs in its place.
    sp: UnsafeCell<*mut u8>,
}

/// Scheduler state of one `World` run.
pub(crate) struct Sched {
    ranks: Box<[Rank]>,
    workers: Box<[Worker]>,
    /// Ranks run as coroutines (`p > W`), not on worker stacks.
    coroutines: bool,
    /// Ranks running or runnable.
    active: AtomicUsize,
    unfinished: AtomicUsize,
    /// Finished ranks plus stalled waits given up; see [`Sched::progressed`].
    progress: AtomicU64,
    /// `progress` at the last stall, `u64::MAX` before the first.
    stall_progress: AtomicU64,
    hard: AtomicBool,
}

// SAFETY: the `UnsafeCell` stack pointers of a rank and of its worker are
// only touched on that worker's thread: a rank is pinned to one worker, only
// that worker's run loop and the rank itself switch between the two, and
// `park` (the only switch a rank makes before it finishes) checks that it
// runs on the rank's worker. Every other field is atomic, behind a lock, or
// never written after `new`.
unsafe impl Sync for Sched {}
// SAFETY: as above; the raw pointers are stack addresses owned by the run,
// not by the thread that happens to hold the `Sched`.
unsafe impl Send for Sched {}

/// What a coroutine needs to start: its rank and what to run.
struct Start<'a> {
    sched: &'a Sched,
    rank: usize,
    entry: &'a (dyn Fn(usize) + Sync),
}

extern "C" fn coroutine_main(start: *const u8) -> ! {
    // SAFETY: `start` points at the `Start` its worker laid out; the worker
    // keeps it alive until this coroutine has finished.
    let start = unsafe { &*(start as *const Start) };
    (start.entry)(start.rank);
    let sched = start.sched;
    sched.finish(start.rank);
    sched.ranks[start.rank].done.store(true, SeqCst);
    sched.switch_out(start.rank);
    unreachable!("a finished rank was resumed")
}

impl Sched {
    /// A scheduler for `p` ranks on `min(p, nproc)` workers.
    pub(crate) fn new(p: usize) -> Arc<Self> {
        Self::with_workers(p, nproc())
    }

    /// A scheduler for `p` ranks on at most `workers` workers (all `p`
    /// where coroutines are unsupported).
    pub(crate) fn with_workers(p: usize, workers: usize) -> Arc<Self> {
        assert!(p > 0, "need at least one rank");
        let w = if coro::SUPPORTED {
            workers.clamp(1, p)
        } else {
            p
        };
        Arc::new(Self {
            ranks: (0..p)
                .map(|_| Rank {
                    ticket: AtomicU64::new(0),
                    done: AtomicBool::new(false),
                    sp: UnsafeCell::new(std::ptr::null_mut()),
                })
                .collect(),
            workers: (0..w)
                .map(|i| Worker {
                    queue: Mutex::new(VecDeque::with_capacity((p - i).div_ceil(w))),
                    idle: AtomicBool::new(false),
                    thread: OnceLock::new(),
                    sp: UnsafeCell::new(std::ptr::null_mut()),
                })
                .collect(),
            coroutines: w < p,
            active: AtomicUsize::new(p),
            unfinished: AtomicUsize::new(p),
            progress: AtomicU64::new(0),
            stall_progress: AtomicU64::new(u64::MAX),
            hard: AtomicBool::new(false),
        })
    }

    /// Runs `body(rank)` for every rank and returns each outcome in rank
    /// order; a rank's panic is caught at its entry and returned. A
    /// scheduler runs its ranks once.
    pub(crate) fn run<T: Send>(
        &self,
        body: impl Fn(usize) -> T + Sync,
    ) -> Vec<std::thread::Result<T>> {
        let slots: Vec<Mutex<Option<std::thread::Result<T>>>> =
            self.ranks.iter().map(|_| Mutex::new(None)).collect();
        let entry = |rank: usize| {
            let out = catch_unwind(AssertUnwindSafe(|| body(rank)));
            *lock(&slots[rank]) = Some(out);
        };
        // Every coroutine stack is in hand before any rank starts.
        let (p, w) = (self.ranks.len(), self.workers.len());
        let stacks: Vec<Vec<Stack>> = (0..w)
            .map(|i| match self.coroutines {
                true => (i..p).step_by(w).map(|_| Stack::new()).collect(),
                false => Vec::new(),
            })
            .collect();
        std::thread::scope(|s| {
            for (i, stacks) in stacks.into_iter().enumerate() {
                let entry = &entry;
                s.spawn(move || self.work(i, stacks, entry));
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .expect("every rank ran to its end")
            })
            .collect()
    }

    /// Worker `w`'s thread: runs its ranks until all of them finished, on
    /// `stacks` (one per rank) when they are coroutines. The stacks are
    /// unmapped when it returns, after every one of its ranks finished.
    fn work(&self, w: usize, mut stacks: Vec<Stack>, entry: &(dyn Fn(usize) + Sync)) {
        let worker = &self.workers[w];
        let _ = worker.thread.set(std::thread::current());
        WORKER.set(worker as *const Worker as usize);
        if !self.coroutines {
            entry(w);
            self.finish(w);
            return;
        }
        let mine: Vec<usize> = (w..self.ranks.len()).step_by(self.workers.len()).collect();
        let starts: Vec<Start> = mine
            .iter()
            .map(|&rank| Start {
                sched: self,
                rank,
                entry,
            })
            .collect();
        for (start, stack) in starts.iter().zip(&mut stacks) {
            // SAFETY: no context runs on the stack; `starts` and `stacks`
            // outlive every coroutine of this worker, since this function
            // returns only when all of them finished.
            let sp = unsafe { stack.start(coroutine_main, start as *const Start as *const u8) };
            // SAFETY: rank `start.rank` has not started; only this thread
            // touches its stack pointer.
            unsafe { *self.ranks[start.rank].sp.get() = sp };
        }
        lock(&worker.queue).extend(mine.iter().copied());
        let mut left = mine.len();
        while left > 0 {
            let Some(rank) = self.next(w) else {
                continue;
            };
            // SAFETY: `rank` is pinned to this worker and was queued, so it
            // is suspended (or not yet started) on its own live stack.
            unsafe { coro::switch(worker.sp.get(), *self.ranks[rank].sp.get()) };
            if self.ranks[rank].done.load(SeqCst) {
                left -= 1;
            }
        }
    }

    /// Pops worker `w`'s next runnable rank, or sleeps until one may have
    /// been queued and returns `None`.
    fn next(&self, w: usize) -> Option<usize> {
        let worker = &self.workers[w];
        if let Some(rank) = lock(&worker.queue).pop_front() {
            return Some(rank);
        }
        // Announce the sleep, then look once more: a waker that queued a
        // rank before reading `idle` is seen here; one after it unparks.
        worker.idle.store(true, SeqCst);
        if let Some(rank) = lock(&worker.queue).pop_front() {
            worker.idle.store(false, SeqCst);
            return Some(rank);
        }
        // A waker clears `idle`. Peers usually queue a rank within
        // microseconds, sooner than a sleeping thread can be woken.
        let until = Instant::now() + IDLE_SPIN;
        while worker.idle.load(SeqCst) && Instant::now() < until {
            std::hint::spin_loop();
        }
        if worker.idle.load(SeqCst) {
            std::thread::park();
        }
        worker.idle.store(false, SeqCst);
        None
    }

    /// Switches from coroutine `rank` back to its worker's run loop.
    fn switch_out(&self, rank: usize) {
        let worker = &self.workers[rank % self.workers.len()];
        // SAFETY: `rank` runs on its worker's thread, whose run loop
        // switched into it and is suspended at `worker.sp`.
        unsafe { coro::switch(self.ranks[rank].sp.get(), *worker.sp.get()) };
    }

    /// Panics unless this thread is `rank`'s worker, the only thread that
    /// may wait on the rank's behalf (see the module docs).
    pub(crate) fn check_thread(&self, rank: usize) {
        let worker = &self.workers[rank % self.workers.len()];
        assert!(
            WORKER.get() == worker as *const Worker as usize,
            "rank {rank} waited in a collective on a thread other than its own; \
             a rank must call `Comm` from the thread it was started on"
        );
    }

    /// Takes a park ticket for `rank`, which is running. The rank must
    /// either [`Sched::park`] with it or [`Sched::cancel`] it.
    pub(crate) fn ticket(&self, rank: usize) -> u64 {
        let cell = &self.ranks[rank].ticket;
        let t = cell.load(SeqCst) + 1;
        debug_assert!(t & 1 == 1, "rank {rank} took a second ticket");
        cell.store(t, SeqCst);
        t
    }

    /// Withdraws `rank`'s ticket `t`; false when a waker presented it
    /// first, in which case the rank must still [`Sched::park`] (it returns
    /// at once) so that its queued wake is consumed.
    pub(crate) fn cancel(&self, rank: usize, t: u64) -> bool {
        self.ranks[rank]
            .ticket
            .compare_exchange(t, t + 1, SeqCst, SeqCst)
            .is_ok()
    }

    /// Parks `rank` until ticket `t` is presented to [`Sched::wake`].
    pub(crate) fn park(&self, rank: usize, t: u64) {
        self.check_thread(rank);
        debug_assert!(
            !std::thread::panicking(),
            "rank {rank} parked while unwinding; its worker's other ranks would see the panic"
        );
        if self.active.fetch_sub(1, SeqCst) == 1 {
            self.stall();
        }
        let cell = &self.ranks[rank].ticket;
        if self.coroutines {
            self.switch_out(rank);
        } else {
            while cell.load(SeqCst) == t {
                std::thread::park();
            }
        }
        debug_assert_ne!(cell.load(SeqCst), t, "rank {rank} resumed unwoken");
    }

    /// Wakes `rank` if it still holds ticket `t`; true when it did.
    pub(crate) fn wake(&self, rank: usize, t: u64) -> bool {
        let cell = &self.ranks[rank].ticket;
        if cell.load(SeqCst) != t {
            return false;
        }
        // Count the rank as active before it can run: it may park again at
        // once, and must not drop the count to a false zero.
        self.active.fetch_add(1, SeqCst);
        if cell.compare_exchange(t, t + 1, SeqCst, SeqCst).is_err() {
            // Every waker is itself counted, so this cannot reach zero.
            self.active.fetch_sub(1, SeqCst);
            return false;
        }
        let worker = &self.workers[rank % self.workers.len()];
        if self.coroutines {
            lock(&worker.queue).push_back(rank);
            if worker.idle.load(SeqCst) && worker.idle.swap(false, SeqCst) {
                Self::unpark(worker);
            }
        } else {
            Self::unpark(worker);
        }
        true
    }

    fn unpark(worker: &Worker) {
        if let Some(thread) = worker.thread.get() {
            thread.unpark();
        }
    }

    /// Accounts for `rank` having returned.
    fn finish(&self, rank: usize) {
        debug_assert!(self.ranks[rank].ticket.load(SeqCst) & 1 == 0);
        self.progress.fetch_add(1, SeqCst);
        self.unfinished.fetch_sub(1, SeqCst);
        if self.active.fetch_sub(1, SeqCst) == 1 && self.unfinished.load(SeqCst) > 0 {
            self.stall();
        }
    }

    /// Records that a rank woken by a stall gave up its wait, so the next
    /// stall is not hard.
    pub(crate) fn progressed(&self) {
        self.progress.fetch_add(1, SeqCst);
    }

    /// Ranks parked now (exact only while no rank changes state).
    #[cfg(test)]
    pub(crate) fn parked(&self) -> usize {
        self.unfinished.load(SeqCst) - self.active.load(SeqCst)
    }

    /// True when the last stall was hard.
    pub(crate) fn stall_is_hard(&self) -> bool {
        self.hard.load(SeqCst)
    }

    /// Wakes every parked rank. Called by the rank that dropped `active`
    /// to zero while ranks were unfinished.
    fn stall(&self) {
        loop {
            // Hold a count while waking: a woken rank that parks again
            // before the others are woken must not start a second stall.
            self.active.fetch_add(1, SeqCst);
            let progress = self.progress.load(SeqCst);
            if self.stall_progress.swap(progress, SeqCst) == progress {
                self.hard.store(true, SeqCst);
            }
            for (rank, cell) in self.ranks.iter().enumerate() {
                let t = cell.ticket.load(SeqCst);
                if t & 1 == 1 {
                    self.wake(rank, t);
                }
            }
            if self.active.fetch_sub(1, SeqCst) != 1 || self.unfinished.load(SeqCst) == 0 {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rank_runs_once_in_order_of_results() {
        for workers in [1, 2, 3, 8] {
            let sched = Sched::with_workers(8, workers);
            let out = sched.run(|rank| rank * 10);
            let got: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(got, (0..8).map(|r| r * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_panic_is_returned_for_its_rank_only() {
        let sched = Sched::with_workers(5, 2);
        let out = sched.run(|rank| {
            if rank == 3 {
                panic!("rank three");
            }
            rank
        });
        for (rank, r) in out.iter().enumerate() {
            assert_eq!(r.is_err(), rank == 3);
        }
    }

    #[test]
    fn ranks_stay_on_their_worker() {
        if !coro::SUPPORTED {
            return;
        }
        let sched = Sched::with_workers(9, 3);
        let out = sched.run(|_| std::thread::current().id());
        let ids: Vec<_> = out.into_iter().map(|r| r.unwrap()).collect();
        for (rank, id) in ids.iter().enumerate() {
            assert_eq!(*id, ids[rank % 3], "rank {rank} left worker {}", rank % 3);
        }
    }
}
