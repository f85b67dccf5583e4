//! The three workloads: operands from a seed, their layout across ranks,
//! one timed op, and the checks every op's output must pass.

use crate::clock::{self, Stopwatch};
use std::sync::Mutex;
use std::time::Instant;
use tsgemm_apps::msbfs::{msbfs_ts, sequential_msbfs, BfsConfig, BfsIterStats};
use tsgemm_core::dist::partition_coo;
use tsgemm_core::tiling::Tiling;
use tsgemm_core::{ts_spgemm, BlockDist, ColBlocks, DistCsr, ModePolicy, TsConfig, TsLocalStats};
use tsgemm_net::{Comm, CostModel, MetricValue, MetricsRegistry, RankProfile, TraceConfig, World};
use tsgemm_sparse::ewise::{andnot, union};
use tsgemm_sparse::gen::{init_frontier, random_tall, web_like};
use tsgemm_sparse::spgemm::{spgemm, AccumChoice};
use tsgemm_sparse::{BoolAndOr, Coo, Csr, Idx, PlusTimesF64, Semiring};

/// Width of the tall-and-skinny operand and its sparsity (as in fig05).
const D: usize = 128;
const B_SPARSITY: f64 = 0.8;
/// Average degree of the uk-2002 stand-in (Table V).
const UK_DEGREE: f64 = 16.0;
/// BFS sources (as in fig12).
const SOURCES: usize = 128;
/// Generator seeds of the figure harnesses; `--seed 0` reproduces them.
const A_SEED: u64 = 0x901;
const B_SEED: u64 = 0xF05;
const SRC_SEED: u64 = 0xF12;

/// Intra-rank kernel threads. Pinned to 1 so `ts-kernel` runs exactly
/// `nproc` = 2 busy rank threads and the pool takes its inline path.
pub const POOL_THREADS: usize = 1;

/// Tag prefix of the collectives the benchmark itself issues; they are
/// stripped from every profile before anything is counted.
pub const BENCH_TAG: &str = "bench:";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// uk, n=2^14, p=64, w=n/p: 64 column bands, 128 tile-step exchanges
    /// per op, so the fixed cost of each collective dominates.
    TsExchange,
    /// uk, n=2^16, p=2, Table IV tiles: one column band, a handful of
    /// collectives, and the kernel, symbolic and assembly work dominate.
    TsKernel,
    /// msbfs_ts on uk, n=2^14, 128 sources, p=16: many small multiplies
    /// with a frontier that swings from sparse to dense and back.
    Msbfs,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::TsExchange, Workload::TsKernel, Workload::Msbfs];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::TsExchange => "ts-exchange",
            Workload::TsKernel => "ts-kernel",
            Workload::Msbfs => "msbfs",
        }
    }

    /// log2 of the vertex count.
    pub fn scale(self) -> u32 {
        match self {
            Workload::TsKernel => 16,
            _ => 14,
        }
    }

    /// Rank count. `ts-exchange` and `msbfs` oversubscribe the 2-core host
    /// on purpose: p=64 is where the exchange-slab success criterion is
    /// stated, and the fig12 BFS runs at p >= 16.
    pub fn ranks(self) -> usize {
        match self {
            Workload::TsExchange => 64,
            Workload::TsKernel => 2,
            Workload::Msbfs => 16,
        }
    }

    /// The tile grid the workload's multiplies use.
    pub fn tiling(self, dist: BlockDist) -> Tiling {
        match self {
            Workload::TsExchange => Tiling::with_width_factor(dist, 1),
            _ => Tiling::default_for(dist),
        }
    }

    fn ts_config(self, dist: BlockDist) -> TsConfig {
        let cfg = TsConfig {
            policy: ModePolicy::Hybrid,
            ..TsConfig::default()
        };
        match self {
            Workload::TsExchange => cfg.with_width_factor(1, dist),
            _ => cfg,
        }
    }
}

fn derive(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Operands generated from the seed. The library receives only these.
pub struct Inputs<T> {
    pub a: Coo<T>,
    /// `B` for a multiply; the initial frontier for a BFS.
    pub b: Coo<T>,
    /// BFS source vertices (empty for a multiply).
    pub sources: Vec<Idx>,
}

/// Operands laid out across ranks: `a[r]`, `ac[r]`, `b[r]` belong to rank r.
pub struct Layout<T> {
    pub dist: BlockDist,
    pub a: Vec<DistCsr<T>>,
    pub ac: Vec<ColBlocks<T>>,
    pub b: Vec<DistCsr<T>>,
    /// Per-rank `(wall, thread-CPU)` seconds of `ColBlocks::build`.
    pub colpart: Vec<(f64, f64)>,
}

/// Everything one op needs.
pub struct Problem<T> {
    pub lay: Layout<T>,
    pub sources: Vec<Idx>,
    pub ts: TsConfig,
    pub bfs: BfsConfig,
}

/// What one rank returns from one op: its rows of the output, the
/// multiply counters, and the BFS iterations (empty for a multiply).
pub type RankRet<T> = (Csr<T>, TsLocalStats, Vec<BfsIterStats>);

/// A value type of the benchmark. It picks the op: `f64` operands run one
/// TS-SpGEMM under (+,×), `bool` operands run a multi-source BFS under (∧,∨).
pub trait Val: Copy + Send + Sync + 'static {
    type S: Semiring<T = Self>;
    /// Exact bit pattern, for the checksum.
    fn bits(self) -> u64;
    /// Equality up to floating-point reassociation.
    fn close(self, other: Self) -> bool;
    fn inputs(w: Workload, seed: u64) -> Inputs<Self>;
    /// Sequential result of the whole op.
    fn reference(inp: &Inputs<Self>) -> Csr<Self>;
    fn rank_op(comm: &mut Comm, prob: &Problem<Self>) -> RankRet<Self>;
    /// The `B` operand the per-layer probes multiply by.
    fn probe_b(inp: &Inputs<Self>) -> Coo<Self>;
}

impl Val for f64 {
    type S = PlusTimesF64;

    fn bits(self) -> u64 {
        self.to_bits()
    }

    fn close(self, other: f64) -> bool {
        (self - other).abs() <= 1e-9 * self.abs().max(other.abs()).max(1.0)
    }

    fn inputs(w: Workload, seed: u64) -> Inputs<f64> {
        let n = 1usize << w.scale();
        Inputs {
            a: web_like(w.scale(), UK_DEGREE, derive(A_SEED, seed)),
            b: random_tall(n, D, B_SPARSITY, derive(B_SEED, seed)),
            sources: Vec::new(),
        }
    }

    fn reference(inp: &Inputs<f64>) -> Csr<f64> {
        spgemm::<PlusTimesF64>(
            &inp.a.to_csr::<PlusTimesF64>(),
            &inp.b.to_csr::<PlusTimesF64>(),
            AccumChoice::Auto,
        )
    }

    fn rank_op(comm: &mut Comm, prob: &Problem<f64>) -> RankRet<f64> {
        let (r, lay) = (comm.rank(), &prob.lay);
        let (c, stats) =
            ts_spgemm::<PlusTimesF64>(comm, &lay.a[r], &lay.ac[r], &lay.b[r], &prob.ts);
        (c, stats, Vec::new())
    }

    fn probe_b(inp: &Inputs<f64>) -> Coo<f64> {
        inp.b.clone()
    }
}

impl Val for bool {
    type S = BoolAndOr;

    fn bits(self) -> u64 {
        self as u64
    }

    fn close(self, other: bool) -> bool {
        self == other
    }

    fn inputs(w: Workload, seed: u64) -> Inputs<bool> {
        let n = 1usize << w.scale();
        let (b, sources) = init_frontier(n, SOURCES, derive(SRC_SEED, seed));
        Inputs {
            a: web_like(w.scale(), UK_DEGREE, derive(A_SEED, seed)).map_values(|_| true),
            b,
            sources,
        }
    }

    fn reference(inp: &Inputs<bool>) -> Csr<bool> {
        sequential_msbfs(&inp.a.to_csr::<BoolAndOr>(), &inp.sources)
    }

    fn rank_op(comm: &mut Comm, prob: &Problem<bool>) -> RankRet<bool> {
        let (r, lay) = (comm.rank(), &prob.lay);
        let (s, iters) = msbfs_ts(comm, &lay.a[r], &lay.ac[r], &prob.sources, &prob.bfs);
        // msbfs_ts keeps its per-multiply counters in the trace registry only.
        let stats = if comm.trace_on() {
            comm.metrics(|m| bfs_multiply_stats(m, &prob.bfs.ts.tag))
        } else {
            TsLocalStats::default()
        };
        (s, stats, iters)
    }

    /// The densest BFS frontier, found level by level.
    fn probe_b(inp: &Inputs<bool>) -> Coo<bool> {
        let a = inp.a.to_csr::<BoolAndOr>();
        let mut f = inp.b.to_csr::<BoolAndOr>();
        let mut seen = f.clone();
        let mut densest = f.clone();
        while f.nnz() > 0 {
            let next = andnot(&spgemm::<BoolAndOr>(&a, &f, AccumChoice::Auto), &seen);
            seen = union::<BoolAndOr>(&seen, &next);
            if next.nnz() > densest.nnz() {
                densest = next.clone();
            }
            f = next;
        }
        densest.to_coo()
    }
}

/// Sums the per-iteration TS-SpGEMM counters msbfs_ts records under
/// `{base}:i{k}`.
fn bfs_multiply_stats(m: &MetricsRegistry, base: &str) -> TsLocalStats {
    let prefix = format!("{base}:i");
    let peak = m
        .iter()
        .filter(|((phase, name), _)| phase.starts_with(&prefix) && name == "peak_transient_bytes")
        .filter_map(|(_, v)| match v {
            MetricValue::Gauge(g) => Some(*g as u64),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    TsLocalStats {
        flops: m.counter_sum_prefixed(&prefix, "flops"),
        peak_transient_bytes: peak,
        local_subtiles: m.counter_sum_prefixed(&prefix, "local_subtiles"),
        remote_subtiles: m.counter_sum_prefixed(&prefix, "remote_subtiles"),
        diag_subtiles: m.counter_sum_prefixed(&prefix, "diag_subtiles"),
        ..TsLocalStats::default()
    }
}

/// Lays the operands out on `p` ranks: `partition_coo`, the `DistCsr`
/// blocks and `ColBlocks::build` (timed per rank from a barrier).
pub fn lay_out<T: Val>(p: usize, inp: &Inputs<T>) -> Layout<T> {
    let n = inp.a.nrows();
    let d = inp.b.ncols();
    let dist = BlockDist::new(n, p);
    let a_parts = Mutex::new(partition_coo(&inp.a, dist));
    let b_parts = Mutex::new(partition_coo(&inp.b, dist));
    let out = World::run_with_threads(p, POOL_THREADS, |comm| {
        let r = comm.rank();
        let a_trips = std::mem::take(&mut a_parts.lock().expect("a set-up rank panicked")[r]);
        let b_trips = std::mem::take(&mut b_parts.lock().expect("a set-up rank panicked")[r]);
        let a = DistCsr::from_local_triplets::<T::S>(dist, r, n, a_trips);
        let b = DistCsr::from_local_triplets::<T::S>(dist, r, d, b_trips);
        comm.barrier(format!("{BENCH_TAG}sync"));
        let sw = Stopwatch::start();
        let ac = ColBlocks::build::<T::S>(comm, &a);
        (a, ac, b, sw.stop())
    });
    let mut lay = Layout {
        dist,
        a: Vec::with_capacity(p),
        ac: Vec::with_capacity(p),
        b: Vec::with_capacity(p),
        colpart: Vec::with_capacity(p),
    };
    for (a, ac, b, t) in out.results {
        lay.a.push(a);
        lay.ac.push(ac);
        lay.b.push(b);
        lay.colpart.push(t);
    }
    lay
}

/// One set-up as timed: wall seconds, and the slowest rank's `(wall,
/// thread-CPU)` seconds of `ColBlocks::build`.
pub struct SetupTime {
    pub secs: f64,
    pub colpart: (f64, f64),
}

/// The benchmark's set-up: generate the operands and lay them out.
///
/// Runs set up once before every op rather than a few times up front, so
/// that `setup_s` is a median over the whole run. Host speed on a shared
/// 2-core guest shifts over seconds; a burst of set-ups would sample one
/// such phase only.
pub fn set_up<T: Val>(w: Workload, seed: u64) -> (SetupTime, Inputs<T>, Problem<T>) {
    let t = Instant::now();
    let inp = T::inputs(w, seed);
    let lay = lay_out(w.ranks(), &inp);
    let secs = t.elapsed().as_secs_f64();
    let slowest = |f: fn(&(f64, f64)) -> f64| lay.colpart.iter().map(f).fold(0.0, f64::max);
    let time = SetupTime {
        secs,
        colpart: (slowest(|c| c.0), slowest(|c| c.1)),
    };
    let prob = Problem {
        ts: w.ts_config(lay.dist),
        lay,
        sources: inp.sources.clone(),
        bfs: BfsConfig::default(),
    };
    (time, inp, prob)
}

/// One op as the host saw it.
pub struct Op<T> {
    /// Host wall seconds, `World` spawn and join included.
    pub wall: f64,
    /// Process CPU seconds (user + sys).
    pub cpu: f64,
    /// Process sys CPU seconds.
    pub sys: f64,
    pub ranks: Vec<RankRet<T>>,
    /// Per-rank `(wall, thread-CPU)` of the op body, from a barrier when
    /// traced, from rank start otherwise.
    pub call: Vec<(f64, f64)>,
    /// Per-rank profiles with the benchmark's own collectives stripped.
    pub profiles: Vec<RankProfile>,
}

/// Runs one op on `p` ranks. Traced ops enable the library's spans and
/// start each rank's body from a barrier.
pub fn run_op<T: Val>(prob: &Problem<T>, traced: bool) -> Op<T> {
    let p = prob.lay.dist.p();
    let body = |comm: &mut Comm| {
        if traced {
            comm.barrier(format!("{BENCH_TAG}sync"));
        }
        let sw = Stopwatch::start();
        let ret = T::rank_op(comm, prob);
        (ret, sw.stop())
    };
    let (cpu0, sys0) = (clock::process_cpu(), clock::process_sys());
    let t0 = Instant::now();
    let out = if traced {
        World::run_traced(p, TraceConfig::enabled(), body)
    } else {
        World::run_with_threads(p, POOL_THREADS, body)
    };
    let wall = t0.elapsed().as_secs_f64();
    let (cpu, sys) = (clock::process_cpu() - cpu0, clock::process_sys() - sys0);
    let mut profiles = out.profiles;
    for pr in &mut profiles {
        pr.segments.retain(|s| {
            !s.coll
                .as_ref()
                .is_some_and(|c| c.tag.starts_with(BENCH_TAG))
        });
    }
    let (ranks, call) = out.results.into_iter().unzip();
    Op {
        wall,
        cpu,
        sys,
        ranks,
        call,
        profiles,
    }
}

/// The exact facts of an op, which every op of a run must repeat.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Facts {
    pub nnz: u64,
    pub checksum: u64,
    /// Payload bytes all ranks sent.
    pub bytes: u64,
    /// Collectives rank 0 took part in.
    pub collectives: u64,
    /// α–β modeled seconds of the op.
    pub modeled_s: f64,
    pub bfs_iters: u64,
}

/// Checks row blocks `blocks` (rank order) against the sequential
/// `reference`: identical structure, values equal up to reassociation.
/// Returns `(nnz, checksum)`; the checksum hashes exact bits.
pub fn check_output<T: Val>(blocks: &[&Csr<T>], reference: &Csr<T>) -> Result<(u64, u64), String> {
    let rows: usize = blocks.iter().map(|b| b.nrows()).sum();
    if rows != reference.nrows() {
        return Err(format!(
            "{rows} output rows, expected {}",
            reference.nrows()
        ));
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        for byte in x.to_le_bytes() {
            hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut g = 0usize;
    let mut nnz = 0u64;
    for block in blocks {
        for (_, cols, vals) in block.iter_rows() {
            let (rc, rv) = reference.row(g);
            if cols != rc {
                return Err(format!(
                    "row {g}: column pattern differs from the reference"
                ));
            }
            if let Some(k) = (0..vals.len()).find(|&k| !vals[k].close(rv[k])) {
                return Err(format!(
                    "row {g}, column {}: value differs from the reference",
                    cols[k]
                ));
            }
            for (&c, &v) in cols.iter().zip(vals) {
                mix(((g as u64) << 32) | c as u64);
                mix(v.bits());
            }
            nnz += cols.len() as u64;
            g += 1;
        }
    }
    Ok((nnz, hash))
}

impl<T: Val> Op<T> {
    /// Verifies the output against `reference` and reads the exact facts.
    pub fn facts(&self, reference: &Csr<T>) -> Result<Facts, String> {
        let blocks: Vec<&Csr<T>> = self.ranks.iter().map(|r| &r.0).collect();
        let (nnz, checksum) = check_output(&blocks, reference)?;
        Ok(Facts {
            nnz,
            checksum,
            bytes: self.profiles.iter().map(|p| p.total_bytes_sent()).sum(),
            collectives: self.profiles[0]
                .segments
                .iter()
                .filter(|s| s.coll.is_some())
                .count() as u64,
            modeled_s: CostModel::default().model_run(&self.profiles).total(),
            bfs_iters: self.ranks[0].2.len() as u64,
        })
    }
}

/// Attempted and failed ops of a run. An op fails when its output differs
/// from the reference or any fact differs from the run's first op.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub expected: Option<Facts>,
}

impl Tally {
    /// Judges one op; returns whether it passed.
    pub fn record(&mut self, facts: Result<Facts, String>) -> bool {
        self.attempted += 1;
        let ok = match facts {
            Ok(f) => *self.expected.get_or_insert(f) == f,
            Err(e) => {
                eprintln!("op {} failed: {e}", self.attempted);
                false
            }
        };
        if !ok {
            self.failed += 1;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Csr<f64>, Vec<Csr<f64>>) {
        let a = tsgemm_sparse::gen::erdos_renyi(40, 4.0, 7).to_csr::<PlusTimesF64>();
        let b = random_tall(40, 6, 0.5, 8).to_csr::<PlusTimesF64>();
        let c = spgemm::<PlusTimesF64>(&a, &b, AccumChoice::Auto);
        let blocks = vec![c.slice_rows(0, 13), c.slice_rows(13, 40)];
        (c, blocks)
    }

    fn facts_of(blocks: &[Csr<f64>], reference: &Csr<f64>) -> Result<Facts, String> {
        let refs: Vec<&Csr<f64>> = blocks.iter().collect();
        check_output(&refs, reference).map(|(nnz, checksum)| Facts {
            nnz,
            checksum,
            bytes: 1,
            collectives: 1,
            modeled_s: 1.0,
            bfs_iters: 0,
        })
    }

    #[test]
    fn correct_output_passes_and_repeats() {
        let (c, blocks) = small();
        let mut tally = Tally::default();
        assert!(tally.record(facts_of(&blocks, &c)));
        assert!(tally.record(facts_of(&blocks, &c)));
        assert_eq!((tally.attempted, tally.failed), (2, 0));
        assert_eq!(tally.expected.unwrap().nnz, c.nnz() as u64);
    }

    #[test]
    fn corrupted_output_counts_as_failed_op() {
        let (c, blocks) = small();
        let mut tally = Tally::default();
        assert!(tally.record(facts_of(&blocks, &c)));

        // A wrong value.
        let bad = blocks[1].map_values(|v| v + 1.0);
        assert!(!tally.record(facts_of(&[blocks[0].clone(), bad], &c)));
        // A dropped entry.
        let mut first = true;
        let sparser = blocks[0].filter(|_, _, _| !std::mem::take(&mut first));
        assert!(!tally.record(facts_of(&[sparser, blocks[1].clone()], &c)));
        // Right output, but a fact that drifted from the first op.
        let mut drifted = facts_of(&blocks, &c).unwrap();
        drifted.bytes += 1;
        assert!(!tally.record(Ok(drifted)));

        assert_eq!((tally.attempted, tally.failed), (4, 3));
    }

    #[test]
    fn values_may_differ_only_by_reassociation() {
        assert!(1.0f64.close(1.0 + 1e-12));
        assert!(!1.0f64.close(1.0 + 1e-6));
        assert!(!true.close(false));
    }
}
