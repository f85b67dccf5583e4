//! The run harness: runs `p` ranks on the scheduler and collects profiles.

use crate::comm::{Comm, GroupShared};
use crate::fault::{
    FailureBoard, FailureInfo, FaultCtx, FaultPlan, HangEntry, HangReport, RankFailure,
};
use crate::flight::FlightRecorder;
use crate::metrics::MetricsRegistry;
use crate::rank_log::{lock, RankLog};
use crate::sched::Sched;
use crate::stats::RankProfile;
use crate::trace::TraceConfig;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::Result as RankOutcome;

/// Result of a distributed run: the per-rank return values plus the per-rank
/// execution profiles (compute segments and communication records).
pub struct RunOutput<R> {
    /// `results[i]` is what rank `i` returned.
    pub results: Vec<R>,
    /// `profiles[i]` is rank `i`'s execution log.
    pub profiles: Vec<RankProfile>,
    /// `metrics[i]` is rank `i`'s metrics registry (empty unless the run was
    /// traced and the algorithm recorded into it).
    pub metrics: Vec<MetricsRegistry>,
    /// `flights[i]` is rank `i`'s flight-recorder ring (always populated —
    /// the recorder is on regardless of tracing).
    pub flights: Vec<FlightRecorder>,
}

/// Result of a fault-aware run ([`World::try_run`]): per-rank outcomes
/// instead of an all-or-nothing panic, plus a hang diagnosis when anything
/// went wrong.
pub struct TryRunOutput<R> {
    /// `results[i]` is what rank `i` returned, or why it failed.
    pub results: Vec<Result<R, RankFailure>>,
    /// `profiles[i]` is rank `i`'s execution log (present even for failed
    /// ranks, up to the point of failure).
    pub profiles: Vec<RankProfile>,
    /// `metrics[i]` is rank `i`'s metrics registry (present even for failed
    /// ranks, up to the point of failure).
    pub metrics: Vec<MetricsRegistry>,
    /// `flights[i]` is rank `i`'s flight-recorder ring (present even for
    /// failed ranks — its tail is the failure's black box).
    pub flights: Vec<FlightRecorder>,
    /// Per-rank diagnosis — which collective sequence number and phase tag
    /// each rank was parked on — whenever at least one rank failed.
    pub hang_report: Option<HangReport>,
}

impl<R> TryRunOutput<R> {
    /// True when every rank returned a result.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(|r| r.is_ok())
    }
}

fn panic_cause(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "rank panicked".to_string()
    }
}

/// How many flight-recorder events a failed rank's [`HangEntry`] embeds.
const HANG_TAIL_EVENTS: usize = 8;

/// What one launch of `p` ranks leaves behind, in rank order.
struct Launched<R> {
    /// Each rank's return value, or its panic payload.
    outcomes: Vec<RankOutcome<R>>,
    profiles: Vec<RankProfile>,
    metrics: Vec<MetricsRegistry>,
    flights: Vec<FlightRecorder>,
}

/// Entry point to the simulated cluster.
///
/// A run's ranks are pinned to `min(p, nproc)` worker threads; when they
/// outnumber the workers they run as coroutines, and a rank waiting in a
/// collective yields its worker to the next runnable rank. Ranks may
/// therefore synchronise only through [`Comm`]: a rank that waits on a peer
/// any other way (spinning on an atomic, a `std::sync::Barrier`, a channel)
/// blocks its worker and every rank pinned to it, and can deadlock the run.
/// A rank must also call its collectives on the thread it was started on:
/// one issued from a thread the rank spawned panics.
///
/// A thread CPU clock read inside a rank reads its worker's clock, so a
/// region that spans a collective also counts the other ranks that worker
/// ran meanwhile.
pub struct World;

impl World {
    /// Runs `f` on `p` ranks; blocks until all complete.
    ///
    /// Each rank receives a mutable [`Comm`] for the world group. Panics in
    /// any rank propagate (the run aborts with the first rank's panic),
    /// matching the fail-fast behaviour of an MPI job: the panicking rank
    /// poisons every group, so peers parked in a collective unwind instead
    /// of waiting for it.
    pub fn run<R, F>(p: usize, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        Self::run_traced(p, TraceConfig::disabled(), f)
    }

    /// [`World::run`] with the intra-rank kernel thread count pinned first:
    /// sets the process-wide `tsgemm-pool` size (overriding
    /// `TSGEMM_THREADS`), so every rank's pool-parallel kernels run on
    /// `threads` workers. Kernel outputs are thread-count independent by
    /// construction; this only changes intra-rank scheduling.
    pub fn run_with_threads<R, F>(p: usize, threads: usize, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        tsgemm_pool::set_threads(threads);
        Self::run(p, f)
    }

    /// [`World::run`] with algorithm-level trace instrumentation switched by
    /// `trace`: when enabled, instrumented algorithms record phase spans
    /// into the profiles and counters into the per-rank metrics registries.
    pub fn run_traced<R, F>(p: usize, trace: TraceConfig, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        // The rank whose panic aborted the run, when one did.
        let first_panic = OnceLock::new();
        let Launched {
            mut outcomes,
            profiles,
            metrics,
            flights,
        } = Self::launch(
            p,
            trace,
            f,
            |_| {},
            |rank, out, group| {
                if out.is_err() {
                    // Fail fast, like an MPI abort: peers parked in any
                    // group unwind instead of waiting.
                    let _ = first_panic.set(rank);
                    group.poison();
                }
            },
        );
        if let Some(&rank) = first_panic.get() {
            if let Err(payload) = outcomes.swap_remove(rank) {
                resume_unwind(payload);
            }
        }
        let results = outcomes
            .into_iter()
            .map(|o| o.unwrap_or_else(|e| resume_unwind(e)))
            .collect();
        RunOutput {
            results,
            profiles,
            metrics,
            flights,
        }
    }

    /// Fault-aware variant of [`World::run`]: runs `f` on `p` ranks under
    /// `plan` and reports per-rank outcomes instead of panicking.
    ///
    /// With a non-empty plan every rank gets a fault context: when every
    /// unfinished rank is parked, a wait whose missing peer the shared
    /// [`FailureBoard`] marks failed or done ends in a typed
    /// [`crate::CommError::PeerExited`] rather than a hang. With an empty
    /// plan the communication paths are *exactly* those of [`World::run`]
    /// — no extra state — so results and profiles are identical to an
    /// uninstrumented run.
    ///
    /// A rank that panics (including injected crashes) is caught per-rank;
    /// its failure, and the parked positions of every rank that was waiting
    /// on it, are collected into the [`HangReport`].
    pub fn try_run<R, F>(p: usize, plan: &FaultPlan, f: F) -> TryRunOutput<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        Self::try_run_traced(p, plan, TraceConfig::disabled(), f)
    }

    /// [`World::try_run`] with trace instrumentation (see
    /// [`World::run_traced`]).
    pub fn try_run_traced<R, F>(
        p: usize,
        plan: &FaultPlan,
        trace: TraceConfig,
        f: F,
    ) -> TryRunOutput<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        let inject = !plan.is_empty();
        let plan = Arc::new(plan.clone());
        let board = FailureBoard::new();
        let Launched {
            outcomes,
            profiles,
            metrics,
            flights,
        } = Self::launch(
            p,
            trace,
            f,
            |comm| {
                if inject {
                    let ctx = FaultCtx::new(Arc::clone(&plan), Arc::clone(&board), comm.rank());
                    comm.set_fault(ctx);
                }
            },
            |rank, out, _| match out {
                Ok(_) if inject => board.mark_done(rank),
                // Injected crashes already marked the board (first cause
                // wins); this covers user panics.
                Err(payload) if inject => board.mark_failed(FailureInfo {
                    world_rank: rank,
                    parked: board.parked_of(rank),
                    cause: panic_cause(payload.as_ref()),
                }),
                _ => {}
            },
        );

        let results: Vec<Result<R, RankFailure>> = outcomes
            .into_iter()
            .enumerate()
            .map(|(rank, out)| {
                out.map_err(|payload| match board.failure_of(rank) {
                    Some(info) => RankFailure {
                        world_rank: rank,
                        parked: info.parked,
                        cause: info.cause,
                    },
                    None => RankFailure {
                        world_rank: rank,
                        parked: None,
                        cause: panic_cause(payload.as_ref()),
                    },
                })
            })
            .collect();

        let hang_report = if results.iter().any(|r| r.is_err()) {
            // Failed ranks get their flight-recorder tail embedded: the
            // last few events before death, straight from the ring.
            Some(HangReport {
                entries: (0..p)
                    .map(|rank| match &results[rank] {
                        Ok(_) => HangEntry {
                            world_rank: rank,
                            failure: None,
                            parked: None,
                            flight_tail: Vec::new(),
                        },
                        Err(fail) => HangEntry {
                            world_rank: rank,
                            failure: Some(fail.cause.clone()),
                            parked: fail.parked.clone().or_else(|| board.parked_of(rank)),
                            flight_tail: flights[rank].tail_strings(HANG_TAIL_EVENTS),
                        },
                    })
                    .collect(),
            })
        } else {
            None
        };

        TryRunOutput {
            results,
            profiles,
            metrics,
            flights,
            hang_report,
        }
    }

    /// Runs `f` on `p` ranks over one world group. `enter` prepares each
    /// rank's communicator before `f` runs; `exit` sees each rank's
    /// outcome on the rank, before the rank's trailing segment is
    /// closed. Every rank has finished and the telemetry run is sealed before
    /// this returns, so a caller that re-raises a rank's panic leaves the
    /// endpoint reporting a finished run.
    fn launch<R, F>(
        p: usize,
        trace: TraceConfig,
        f: F,
        enter: impl Fn(&mut Comm) + Sync,
        exit: impl Fn(usize, &RankOutcome<R>, &GroupShared) + Sync,
    ) -> Launched<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        assert!(p > 0, "need at least one rank");
        let sched = Sched::new(p);
        let group = GroupShared::new((0..p).collect(), Arc::clone(&sched));
        let telemetry = crate::telemetry::global();
        let live = telemetry.is_some();
        let logs: Vec<Arc<Mutex<RankLog>>> = (0..p)
            .map(|rank| Arc::new(Mutex::new(RankLog::new(rank))))
            .collect();
        if let Some(t) = telemetry {
            t.begin_run(&logs);
        }

        let outcomes: Vec<RankOutcome<R>> = sched
            .run(|rank| {
                let log = &logs[rank];
                let mut comm = Comm::new(Arc::clone(&group), rank, Arc::clone(log), trace, live);
                enter(&mut comm);
                let out = catch_unwind(AssertUnwindSafe(|| f(&mut comm)));
                exit(rank, &out, &group);
                lock(log).profile.finish();
                out
            })
            .into_iter()
            // An outer error is only reachable if the bookkeeping above
            // panicked; it is reported like a rank panic.
            .map(|out| out.unwrap_or_else(Err))
            .collect();

        if let Some(t) = telemetry {
            // Seal the run, failed or not: the endpoint keeps serving this
            // final state, read after every rank stopped, and the logs are
            // released before they are split below.
            t.end_run();
        }
        let mut launched = Launched {
            outcomes,
            profiles: Vec::with_capacity(p),
            metrics: Vec::with_capacity(p),
            flights: Vec::with_capacity(p),
        };
        for log in logs {
            let (profile, metrics, flight) = RankLog::into_parts(log);
            launched.profiles.push(profile);
            launched.metrics.push(metrics);
            launched.flights.push(flight);
        }
        launched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_their_ids() {
        let out = World::run(6, |comm| (comm.rank(), comm.size()));
        for (i, &(r, s)) in out.results.iter().enumerate() {
            assert_eq!(r, i);
            assert_eq!(s, 6);
        }
        assert_eq!(out.profiles.len(), 6);
        assert_eq!(out.metrics.len(), 6);
    }

    #[test]
    fn profiles_returned_in_rank_order() {
        let out = World::run(3, |comm| {
            comm.add_flops(comm.rank() as u64 * 7);
        });
        for (i, p) in out.profiles.iter().enumerate() {
            assert_eq!(p.world_rank, i);
            assert_eq!(p.total_flops(), i as u64 * 7);
        }
    }

    #[test]
    #[should_panic(expected = "rank 2 says no")]
    fn rank_panic_propagates() {
        let _ = World::run(4, |comm| {
            if comm.rank() == 2 {
                panic!("rank 2 says no");
            }
        });
    }

    #[test]
    #[should_panic(expected = "rank 2 says no")]
    fn rank_panic_during_collective_propagates() {
        // Ranks 0, 1 and 3 wait in an allreduce that rank 2 never joins:
        // its panic must wake them and abort the run with rank 2's message.
        let _ = World::run(4, |comm| {
            if comm.rank() == 2 {
                panic!("rank 2 says no");
            }
            comm.allreduce(1u64, |a, b| a + b, "never")
        });
    }

    #[test]
    fn many_ranks_scale() {
        // Far more ranks than host cores: they run as coroutines on
        // `nproc` worker threads.
        let out = World::run(64, |comm| comm.allreduce(1u64, |a, b| a + b, "n"));
        assert!(out.results.iter().all(|&v| v == 64));
    }

    #[test]
    fn ranks_far_beyond_workers_keep_lock_step() {
        // 1 000 rounds at p = 256, alternating an allreduce with an
        // alltoallv in which rank r sends `round + r` to rank r + 1.
        let p = 256;
        let out = World::run(p, |comm| {
            let me = comm.rank();
            let mut got = 0u64;
            for round in 0..1000u64 {
                if round % 2 == 0 {
                    let sum = comm.allreduce(me as u64 + round, |a, b| a + b, "mix:sum");
                    assert_eq!(sum, (p * (p - 1) / 2) as u64 + p as u64 * round);
                } else {
                    let mut sends = vec![Vec::new(); p];
                    sends[(me + 1) % p].push(round + me as u64);
                    let recv = comm.alltoallv(sends, "mix:a2a");
                    let from = (me + p - 1) % p;
                    assert_eq!(recv[from], [round + from as u64]);
                    got += recv.iter().map(Vec::len).sum::<usize>() as u64;
                }
            }
            got
        });
        assert!(out.results.iter().all(|&n| n == 500));
    }

    /// Rank counts that run on worker stacks and, on coroutine targets with
    /// fewer cores, as coroutines.
    fn both_launch_modes() -> [usize; 2] {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        [2, 2 * nproc + 1]
    }

    #[test]
    fn a_stall_panics_naming_the_parked_collective() {
        // The last rank returns before the barrier its peers wait in; no
        // rank can ever arrive, and the run must say where it stuck.
        for p in both_launch_modes() {
            let out = catch_unwind(|| {
                World::run(p, |comm| {
                    if comm.rank() + 1 < comm.size() {
                        comm.barrier("never");
                    }
                })
            });
            let payload = out.err().expect("a stalled run must panic");
            let msg = panic_cause(payload.as_ref());
            assert!(msg.contains("stalled"), "p={p}: {msg}");
            assert!(msg.contains("Barrier #0 (tag 'never')"), "p={p}: {msg}");
        }
    }

    #[test]
    fn a_collective_from_a_foreign_thread_panics() {
        // Rank 0 issues its barrier from a thread of its own. Waiting there
        // would run the rank's context on the wrong thread, so the call must
        // panic, and the run must end with that panic rather than hang.
        for p in both_launch_modes() {
            let out = catch_unwind(|| {
                World::run(p, |comm| {
                    if comm.rank() == 0 {
                        let joined = std::thread::scope(|s| s.spawn(|| comm.barrier("x")).join());
                        if let Err(payload) = joined {
                            resume_unwind(payload);
                        }
                    } else {
                        comm.barrier("x");
                    }
                })
            });
            let payload = out.err().expect("a foreign-thread collective must panic");
            let msg = panic_cause(payload.as_ref());
            assert!(
                msg.contains("rank 0 waited in a collective on a thread other than its own"),
                "p={p}: {msg}"
            );
        }
    }

    #[test]
    fn untraced_runs_have_empty_registries_and_trace_off() {
        let out = World::run(3, |comm| {
            assert!(!comm.trace_on());
            comm.barrier("b");
        });
        assert!(out.metrics.iter().all(|m| m.is_empty()));
    }

    #[test]
    fn traced_runs_collect_per_rank_registries() {
        use crate::trace::TraceConfig;
        let out = World::run_traced(4, TraceConfig::enabled(), |comm| {
            assert!(comm.trace_on());
            comm.metrics(|m| m.counter_add("app", "work", comm.rank() as u64));
            comm.barrier("b");
        });
        for (rank, m) in out.metrics.iter().enumerate() {
            assert_eq!(m.counter("app", "work"), rank as u64);
        }
    }

    #[test]
    fn split_shares_parent_registry() {
        use crate::trace::TraceConfig;
        let out = World::run_traced(4, TraceConfig::enabled(), |comm| {
            let mut sub = comm.split(comm.rank() % 2, comm.rank());
            assert!(sub.trace_on());
            sub.metrics(|m| m.counter_add("sub", "hits", 1));
            sub.barrier("sb");
            comm.metrics(|m| m.counter("sub", "hits"))
        });
        assert!(out.results.iter().all(|&c| c == 1));
    }
}
