//! The per-layer metrics: what each one is, which end-to-end metric it
//! should move on which workload, and the traced run that measures them.
//!
//! Every number comes from outside the library: calls into each layer's
//! public functions timed here, plus the spans and collective records that
//! `World::run_traced` already returns in `RankProfile::{spans, segments}`.

use crate::clock::Stopwatch;
use crate::work::{
    lay_out, run_op, set_up, Inputs, Op, Problem, Tally, Val, Workload, BENCH_TAG, POOL_THREADS,
};
use std::hint::black_box;
use std::time::Instant;
use tsgemm_apps::msbfs::BfsConfig;
use tsgemm_core::mode::decide_modes;
use tsgemm_core::tiling::TileBuckets;
use tsgemm_core::{DistCsr, ModePolicy, TsLocalStats};
use tsgemm_net::{CollKind, Comm, Metrics, RankProfile, World};
use tsgemm_sparse::spgemm::{spgemm, spgemm_flops, AccumChoice};
use tsgemm_sparse::{Coo, Idx};

/// A metric, and the `(end-to-end metric, workload)` pairs it should move
/// (empty for the end-to-end metrics themselves).
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static [(&'static str, &'static str)],
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
    }
}

/// The `--trace 0` metrics.
pub const END_TO_END: &[Metric] = &[
    metric("wall_s", "s", "lower", &[]),
    metric("cpu_s", "s", "lower", &[]),
    metric("setup_s", "s", "lower", &[]),
    metric("peak_rss_mb", "MiB", "lower", &[]),
];

const EXCH_WALL: &[(&str, &str)] = &[("wall_s", "ts-exchange")];
const KERNEL_WALL: &[(&str, &str)] = &[("wall_s", "ts-kernel")];
const SYMBOLIC: &[(&str, &str)] = &[("wall_s", "ts-kernel"), ("wall_s", "msbfs")];
const BFS_WALL: &[(&str, &str)] = &[("wall_s", "msbfs")];
const SETUP: &[(&str, &str)] = &[
    ("setup_s", "ts-exchange"),
    ("setup_s", "ts-kernel"),
    ("setup_s", "msbfs"),
];
const ALL_WALL: &[(&str, &str)] = &[
    ("wall_s", "ts-exchange"),
    ("wall_s", "ts-kernel"),
    ("wall_s", "msbfs"),
];

/// The `--trace 1` metrics.
pub const LAYERS: &[Metric] = &[
    metric(
        "net.a2a_empty_s",
        "s",
        "lower",
        &[
            ("wall_s", "ts-exchange"),
            ("cpu_s", "ts-exchange"),
            ("wall_s", "msbfs"),
            ("cpu_s", "msbfs"),
        ],
    ),
    metric("net.a2a_replay_s", "s", "lower", EXCH_WALL),
    metric("net.allreduce_s", "s", "lower", BFS_WALL),
    metric("net.spawn_s", "s", "lower", EXCH_WALL),
    metric("net.sys_s", "s", "lower", &[("cpu_s", "ts-exchange")]),
    metric(
        "net.wait_s",
        "s",
        "lower",
        &[("wall_s", "ts-exchange"), ("wall_s", "msbfs")],
    ),
    metric("net.collectives", "count", "lower", EXCH_WALL),
    metric("net.bytes", "bytes", "lower", EXCH_WALL),
    metric("colpart.build_s", "s", "lower", SETUP),
    metric("colpart.build_cpu_s", "s", "lower", SETUP),
    metric("tiling.buckets_s", "s", "lower", SYMBOLIC),
    metric("tiling.buckets_cpu_s", "s", "lower", SYMBOLIC),
    metric("mode.decide_s", "s", "lower", SYMBOLIC),
    metric("mode.decide_cpu_s", "s", "lower", SYMBOLIC),
    metric("mode.local", "count", "lower", SYMBOLIC),
    metric("mode.remote", "count", "lower", SYMBOLIC),
    metric("mode.diag", "count", "lower", SYMBOLIC),
    metric("exec.call_s", "s", "lower", ALL_WALL),
    metric(
        "exec.call_cpu_s",
        "s",
        "lower",
        &[
            ("cpu_s", "ts-exchange"),
            ("cpu_s", "ts-kernel"),
            ("cpu_s", "msbfs"),
        ],
    ),
    metric("exec.pack_s", "s", "lower", KERNEL_WALL),
    metric("exec.kernel_s", "s", "lower", KERNEL_WALL),
    metric("exec.merge_s", "s", "lower", KERNEL_WALL),
    metric("exec.wait_s", "s", "lower", EXCH_WALL),
    metric("exec.unspanned_s", "s", "lower", KERNEL_WALL),
    metric("exec.flops", "count", "lower", KERNEL_WALL),
    metric(
        "exec.peak_transient_bytes",
        "bytes",
        "lower",
        &[("peak_rss_mb", "ts-kernel")],
    ),
    metric("sparse.spgemm_s", "s", "lower", KERNEL_WALL),
    metric("sparse.spgemm_gflops", "Gflop/s", "higher", KERNEL_WALL),
    metric(
        "sparse.assemble_s",
        "s",
        "lower",
        &[("wall_s", "ts-kernel"), ("peak_rss_mb", "ts-kernel")],
    ),
    metric("msbfs.iters", "count", "lower", BFS_WALL),
    metric("msbfs.frontier_nnz_max", "count", "lower", BFS_WALL),
    metric("msbfs.iter_s", "s", "lower", BFS_WALL),
    metric("trace.overhead_s", "s", "lower", ALL_WALL),
];

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

fn max_of(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(0.0, f64::max)
}

/// Call counts of the probes, chosen so each probe stays well under a second at
/// p=64 on 2 cores.
const COLL_CALLS: u32 = 100;
const REPLAY_CALLS: u32 = 20;
const SPAWN_CALLS: u32 = 20;
const PROBE_REPS: usize = 3;
/// The multiply workloads measure the msbfs layer with a BFS capped at
/// this many iterations on their own graph and rank count.
const BFS_PROBE_ITERS: usize = 2;

/// How one traced op splits on its slowest rank. By construction
/// `pack + kernel + merge + waits + unspanned == call`.
struct Split {
    call: f64,
    call_cpu: f64,
    pack: f64,
    kernel: f64,
    merge: f64,
    waits: f64,
    wait_mean: f64,
}

fn span_secs(pr: &RankProfile, suffix: &str) -> f64 {
    pr.spans
        .iter()
        .filter(|s| s.tag.ends_with(suffix))
        .map(|s| s.end_secs - s.start_secs)
        .sum()
}

fn wait_secs(pr: &RankProfile) -> f64 {
    pr.segments
        .iter()
        .filter_map(|s| s.coll.as_ref())
        .map(|c| c.wait_secs)
        .sum()
}

fn split<T>(op: &Op<T>) -> Split {
    let crit = (0..op.call.len())
        .max_by(|&i, &j| op.call[i].0.total_cmp(&op.call[j].0))
        .expect("at least one rank");
    let pr = &op.profiles[crit];
    let waits: Vec<f64> = op.profiles.iter().map(wait_secs).collect();
    Split {
        call: op.call[crit].0,
        call_cpu: max_of(op.call.iter().map(|c| c.1)),
        pack: span_secs(pr, ":pack"),
        kernel: span_secs(pr, ":kernel"),
        merge: span_secs(pr, ":merge"),
        waits: waits[crit],
        wait_mean: waits.iter().sum::<f64>() / waits.len() as f64,
    }
}

/// `(iterations, largest frontier nnz, seconds per iteration)` of a traced
/// BFS op. An iteration's time is read from the segments tagged
/// `{base}:i{k}:` (compute before each collective plus the collective),
/// summed per rank, slowest rank.
fn bfs_levels<T>(op: &Op<T>, base: &str) -> (f64, f64, f64) {
    let iters = &op.ranks[0].2;
    let frontier = iters.iter().map(|s| s.frontier_nnz).max().unwrap_or(0);
    let per_iter: Vec<f64> = (0..iters.len())
        .map(|k| {
            let prefix = format!("{base}:i{k}:");
            max_of(op.profiles.iter().map(|pr| {
                pr.segments
                    .iter()
                    .filter_map(|s| s.coll.as_ref().map(|c| (s, c)))
                    .filter(|(_, c)| c.tag.starts_with(&prefix))
                    .map(|(s, c)| s.compute_secs + c.wait_secs)
                    .sum::<f64>()
            }))
        })
        .collect();
    let mean = per_iter.iter().sum::<f64>() / per_iter.len().max(1) as f64;
    (iters.len() as f64, frontier as f64, mean)
}

/// Seconds per call of `f` on the slowest rank, timed from a barrier.
fn per_call(p: usize, calls: u32, f: impl Fn(&mut Comm) + Sync) -> f64 {
    let out = World::run_with_threads(p, POOL_THREADS, |comm| {
        comm.barrier(format!("{BENCH_TAG}sync"));
        let t = Instant::now();
        for _ in 0..calls {
            f(comm);
        }
        t.elapsed().as_secs_f64() / calls as f64
    });
    max_of(out.results)
}

/// Per-destination byte counts `[rank][dst]` of the op's heaviest
/// AllToAllv step (collectives line up by index across ranks).
fn heaviest_exchange(profiles: &[RankProfile]) -> Vec<Vec<u64>> {
    let p = profiles.len();
    let steps = profiles[0].segments.len();
    let step_bytes = |k: usize| -> u64 {
        profiles
            .iter()
            .filter_map(|pr| pr.segments.get(k)?.coll.as_ref())
            .filter(|c| c.kind == CollKind::AllToAllV)
            .map(|c| c.bytes_sent())
            .sum()
    };
    let k = (0..steps).max_by_key(|&k| step_bytes(k)).unwrap_or(0);
    profiles
        .iter()
        .map(|pr| {
            let mut to = vec![0u64; p];
            if let Some(c) = pr.segments.get(k).and_then(|s| s.coll.as_ref()) {
                for &(dst, b) in &c.bytes_to {
                    to[dst] = b;
                }
            }
            to
        })
        .collect()
}

fn replay_per_call(p: usize, plan: &[Vec<u64>]) -> f64 {
    let out = World::run_with_threads(p, POOL_THREADS, |comm| {
        let r = comm.rank();
        comm.barrier(format!("{BENCH_TAG}sync"));
        let mut secs = 0.0;
        for _ in 0..REPLAY_CALLS {
            let sends: Vec<Vec<u8>> = plan[r].iter().map(|&b| vec![0u8; b as usize]).collect();
            let t = Instant::now();
            black_box(comm.alltoallv(sends, format!("{BENCH_TAG}replay")));
            secs += t.elapsed().as_secs_f64();
        }
        secs / REPLAY_CALLS as f64
    });
    max_of(out.results)
}

/// `TileBuckets::build` and `decide_modes` per rank from a barrier, on the
/// workload's `A^c` and `probe_b`: `[(wall, cpu)]` for each, median over
/// repetitions of the slowest rank.
fn symbolic_probe<T: Val>(w: Workload, prob: &Problem<T>, probe_b: &Coo<T>) -> [(f64, f64); 2] {
    let dist = prob.lay.dist;
    let out = World::run_with_threads(dist.p(), POOL_THREADS, |comm| {
        let r = comm.rank();
        let b = DistCsr::from_global_coo::<T::S>(probe_b, dist, r, probe_b.ncols());
        let tiling = w.tiling(dist);
        (0..PROBE_REPS)
            .map(|_| {
                comm.barrier(format!("{BENCH_TAG}sync"));
                let sw = Stopwatch::start();
                let buckets = TileBuckets::build(&prob.lay.ac[r], &tiling);
                let tb = sw.stop();
                comm.barrier(format!("{BENCH_TAG}sync"));
                let sw = Stopwatch::start();
                let tag = format!("{BENCH_TAG}probe");
                black_box(decide_modes::<T::S>(
                    comm,
                    &tiling,
                    &buckets,
                    &b,
                    ModePolicy::Hybrid,
                    &tag,
                ));
                [tb, sw.stop()]
            })
            .collect::<Vec<_>>()
    });
    let pick = |which: usize, f: fn((f64, f64)) -> f64| {
        let per_rep: Vec<f64> = (0..PROBE_REPS)
            .map(|k| max_of(out.results.iter().map(|reps| f(reps[k][which]))))
            .collect();
        median(&per_rep)
    };
    [0, 1].map(|which| (pick(which, |t| t.0), pick(which, |t| t.1)))
}

/// `spgemm` on rank 0's `A` block × `probe_b`, and the assembly of rank
/// 0's output triplets emitted band by band as the real run emits them:
/// `(spgemm_s, gflops, assemble_s)`.
fn sparse_probe<T: Val>(w: Workload, prob: &Problem<T>, probe_b: &Coo<T>) -> (f64, f64, f64) {
    let a0 = &prob.lay.a[0].local;
    let b = probe_b.to_csr::<T::S>();
    let spgemm_s = median(
        &(0..PROBE_REPS)
            .map(|_| {
                let t = Instant::now();
                black_box(spgemm::<T::S>(a0, &b, AccumChoice::Auto));
                t.elapsed().as_secs_f64()
            })
            .collect::<Vec<_>>(),
    );
    let gflops = spgemm_flops(a0, &b) as f64 / spgemm_s / 1e9;

    let tiling = w.tiling(prob.lay.dist);
    let mut trips: Vec<(Idx, Idx, T)> = Vec::new();
    for cb in 0..tiling.n_col_bands {
        let (lo, hi) = tiling.col_band_range(cb);
        let part = spgemm::<T::S>(
            &a0.slice_cols(lo, hi),
            &b.slice_rows(lo as usize, hi as usize),
            AccumChoice::Auto,
        );
        for (r, cols, vals) in part.iter_rows() {
            trips.extend(cols.iter().zip(vals).map(|(&c, &v)| (r as Idx, c, v)));
        }
    }
    let assemble_s = median(
        &(0..PROBE_REPS)
            .map(|_| {
                let input = trips.clone();
                let t = Instant::now();
                black_box(Coo::from_entries(a0.nrows(), b.ncols(), input).to_csr::<T::S>());
                t.elapsed().as_secs_f64()
            })
            .collect::<Vec<_>>(),
    );
    (spgemm_s, gflops, assemble_s)
}

/// The traced run: set-up and a warm-up op, then a set-up, an untraced op
/// and a traced op in turn until `seconds` pass, then the layer probes.
/// Every op is verified into `tally`.
pub fn measure<T: Val>(
    w: Workload,
    seed: u64,
    seconds: f64,
    min_ops: usize,
    tally: &mut Tally,
) -> Vec<(&'static str, f64)> {
    let (first_setup, inp, mut prob) = set_up::<T>(w, seed);
    let reference = T::reference(&inp);
    let probe_b = T::probe_b(&inp);
    drop(inp);
    let p = w.ranks();

    let warm = run_op(&prob, false);
    tally.record(warm.facts(&reference));
    let replay_plan = heaviest_exchange(&warm.profiles);
    drop(warm);

    let (mut plain, mut traced, mut sys, mut splits) = (vec![], vec![], vec![], vec![]);
    // Exact counts and BFS levels of the first traced op.
    let mut first = None;
    let mut bfs_iter_s = vec![];
    let mut colpart = vec![first_setup.colpart];
    let t0 = Instant::now();
    while plain.len() < min_ops || t0.elapsed().as_secs_f64() < seconds {
        drop(prob);
        let (t, _, next) = set_up::<T>(w, seed);
        colpart.push(t.colpart);
        prob = next;

        let op = run_op(&prob, false);
        tally.record(op.facts(&reference));
        plain.push(op.wall);
        sys.push(op.sys);
        drop(op);

        let op = run_op(&prob, true);
        tally.record(op.facts(&reference));
        traced.push(op.wall);
        splits.push(split(&op));
        let levels = bfs_levels(&op, &prob.bfs.ts.tag);
        bfs_iter_s.push(levels.2);
        first.get_or_insert_with(|| {
            let mut stats = TsLocalStats::default();
            for r in &op.ranks {
                stats.merge(&r.1);
            }
            (stats, levels)
        });
    }
    let (stats, levels) = first.expect("at least one traced op");
    let med = |f: fn(&Split) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
    let facts = tally.expected.unwrap_or_default();
    let (iters, frontier_max, iter_s) = if w == Workload::Msbfs {
        (levels.0, levels.1, median(&bfs_iter_s))
    } else {
        bfs_probe(w, seed)
    };

    let [buckets, decide] = symbolic_probe(w, &prob, &probe_b);
    let (spgemm_s, gflops, assemble_s) = sparse_probe(w, &prob, &probe_b);
    let empty = per_call(p, COLL_CALLS, |comm| {
        black_box(comm.alltoallv::<u8>(vec![Vec::new(); p], format!("{BENCH_TAG}a2a")));
    });
    let allreduce = per_call(p, COLL_CALLS, |comm| {
        black_box(comm.allreduce(1u64, |a, b| a + b, format!("{BENCH_TAG}allreduce")));
    });
    let spawn = {
        let t = Instant::now();
        for _ in 0..SPAWN_CALLS {
            black_box(World::run_with_threads(p, POOL_THREADS, |comm| comm.rank()));
        }
        t.elapsed().as_secs_f64() / SPAWN_CALLS as f64
    };

    let call = med(|s| s.call);
    // Medians of the parts, so that the five parts add up to `call` exactly.
    let spanned = med(|s| s.pack) + med(|s| s.kernel) + med(|s| s.merge) + med(|s| s.waits);
    vec![
        ("net.a2a_empty_s", empty),
        ("net.a2a_replay_s", replay_per_call(p, &replay_plan)),
        ("net.allreduce_s", allreduce),
        ("net.spawn_s", spawn),
        ("net.sys_s", median(&sys)),
        ("net.wait_s", med(|s| s.wait_mean)),
        ("net.collectives", facts.collectives as f64),
        ("net.bytes", facts.bytes as f64),
        (
            "colpart.build_s",
            median(&colpart.iter().map(|c| c.0).collect::<Vec<_>>()),
        ),
        (
            "colpart.build_cpu_s",
            median(&colpart.iter().map(|c| c.1).collect::<Vec<_>>()),
        ),
        ("tiling.buckets_s", buckets.0),
        ("tiling.buckets_cpu_s", buckets.1),
        ("mode.decide_s", decide.0),
        ("mode.decide_cpu_s", decide.1),
        ("mode.local", stats.local_subtiles as f64),
        ("mode.remote", stats.remote_subtiles as f64),
        ("mode.diag", stats.diag_subtiles as f64),
        ("exec.call_s", call),
        ("exec.call_cpu_s", med(|s| s.call_cpu)),
        ("exec.pack_s", med(|s| s.pack)),
        ("exec.kernel_s", med(|s| s.kernel)),
        ("exec.merge_s", med(|s| s.merge)),
        ("exec.wait_s", med(|s| s.waits)),
        ("exec.unspanned_s", call - spanned),
        ("exec.flops", stats.flops as f64),
        (
            "exec.peak_transient_bytes",
            stats.peak_transient_bytes as f64,
        ),
        ("sparse.spgemm_s", spgemm_s),
        ("sparse.spgemm_gflops", gflops),
        ("sparse.assemble_s", assemble_s),
        ("msbfs.iters", iters),
        ("msbfs.frontier_nnz_max", frontier_max),
        ("msbfs.iter_s", iter_s),
        ("trace.overhead_s", median(&traced) - median(&plain)),
    ]
}

/// The msbfs layer on a multiply workload's graph and rank count: a BFS
/// capped at [`BFS_PROBE_ITERS`] iterations, traced.
fn bfs_probe(w: Workload, seed: u64) -> (f64, f64, f64) {
    let inp: Inputs<bool> = <bool as Val>::inputs(w, seed);
    let prob = Problem {
        lay: lay_out(w.ranks(), &inp),
        sources: inp.sources.clone(),
        ts: Default::default(),
        bfs: BfsConfig {
            max_iters: BFS_PROBE_ITERS,
            ..BfsConfig::default()
        },
    };
    bfs_levels(&run_op(&prob, true), &prob.bfs.ts.tag)
}
