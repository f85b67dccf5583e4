//! Uniform run wrappers around every contender.
//!
//! Each wrapper executes one distributed multiply on `p` thread-ranks and
//! distils the run into [`RunMetrics`]: exact communication volume (from the
//! runtime's byte accounting, multiply phase only), modeled communication
//! and compute time (α–β + flops model, DESIGN.md §2), and algorithm
//! counters. Setup communication (building `A^c`, block layout) is tagged
//! separately and excluded from the multiply volume, mirroring how the
//! paper times the multiply after operands are laid out.

use std::sync::{Mutex, PoisonError};
use tsgemm_baselines::shift::shift_spmm;
use tsgemm_baselines::summa2d::summa2d;
use tsgemm_baselines::summa3d::summa3d;
use tsgemm_core::colpart::ColBlocks;
use tsgemm_core::dist::{partition_coo, DistCsr};
use tsgemm_core::exec::{ts_spgemm, TsConfig, TsLocalStats};
use tsgemm_core::mode::ModePolicy;
use tsgemm_core::naive::naive_spgemm;
use tsgemm_core::part::BlockDist;
use tsgemm_core::spmm::{dist_spmm, SpmmConfig};
use tsgemm_net::{CostModel, FlightRecorder, MetricsRegistry, RankProfile, TraceConfig, World};
use tsgemm_sparse::semiring::PlusTimesF64;
use tsgemm_sparse::spgemm::AccumChoice;
use tsgemm_sparse::{Coo, DenseMat};

/// Which algorithm to run.
#[derive(Clone, Debug)]
pub enum Algo {
    /// The paper's algorithm with the given policy and tile geometry
    /// (`None` = Table IV defaults).
    Ts {
        policy: ModePolicy,
        tile_width_factor: Option<usize>,
        tile_height: Option<usize>,
    },
    /// PETSc/Trilinos-style 1-D Gustavson (Alg. 1).
    Petsc1d,
    /// 2-D Sparse SUMMA (requires square `p`).
    Summa2d,
    /// 3-D Sparse SUMMA with the given layer count.
    Summa3d { layers: usize },
    /// Tiled distributed SpMM (dense B, same communication pattern).
    SpmmTiled,
    /// 1.5-D dense-shifting SpMM.
    Shift,
}

impl Algo {
    /// Default TS-SpGEMM (hybrid policy, Table IV tiles).
    pub fn ts() -> Self {
        Algo::Ts {
            policy: ModePolicy::Hybrid,
            tile_width_factor: None,
            tile_height: None,
        }
    }

    /// Short display name used in report tables.
    pub fn name(&self) -> String {
        match self {
            Algo::Ts { policy, .. } => match policy {
                ModePolicy::Hybrid => "TS-SpGEMM".to_string(),
                ModePolicy::LocalOnly => "TS-SpGEMM(local)".to_string(),
                ModePolicy::RemoteOnly => "TS-SpGEMM(remote)".to_string(),
            },
            Algo::Petsc1d => "PETSc-1D".to_string(),
            Algo::Summa2d => "SUMMA-2D".to_string(),
            Algo::Summa3d { layers } => format!("SUMMA-3D(l={layers})"),
            Algo::SpmmTiled => "SpMM(tiled)".to_string(),
            Algo::Shift => "SpMM(1.5D shift)".to_string(),
        }
    }
}

/// Distilled result of one distributed run.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// Exact payload bytes moved by the multiply phase (all ranks).
    pub comm_bytes: u64,
    /// Modeled communication seconds of the multiply phase.
    pub comm_secs: f64,
    /// Modeled compute seconds (all flops in the run).
    pub compute_secs: f64,
    /// Total flops performed.
    pub flops: u64,
    /// Peak per-rank transient received bytes (TS-SpGEMM only).
    pub peak_transient_bytes: u64,
    /// Sub-tile mode counts (TS-SpGEMM only): (local, remote, diagonal).
    pub subtiles: (u64, u64, u64),
    /// Output nonzeros (global).
    pub c_nnz: u64,
}

impl RunMetrics {
    /// Modeled multiply runtime: compute + multiply-phase communication.
    pub fn total_secs(&self) -> f64 {
        self.comm_secs + self.compute_secs
    }
}

/// The raw observability record of one traced run: the per-rank execution
/// profiles (for the Chrome-trace export), metrics registries, and flight
/// recorders (always populated — the flight ring runs trace switch or not).
pub struct RunTrace {
    pub profiles: Vec<RankProfile>,
    pub metrics: Vec<MetricsRegistry>,
    pub flights: Vec<FlightRecorder>,
}

/// Runs `algo` on `p` ranks multiplying `acoo · bcoo` and distils metrics.
/// `cm` is the machine model used to convert volumes into modeled time.
pub fn run_algo(
    algo: &Algo,
    p: usize,
    acoo: &Coo<f64>,
    bcoo: &Coo<f64>,
    cm: &CostModel,
) -> RunMetrics {
    run_algo_traced(algo, p, acoo, bcoo, cm, TraceConfig::disabled()).0
}

/// [`run_algo`] with the trace switch exposed: when `trace` is enabled the
/// returned [`RunTrace`] carries phase spans and algorithm counters suitable
/// for [`tsgemm_net::write_trace_files`].
pub fn run_algo_traced(
    algo: &Algo,
    p: usize,
    acoo: &Coo<f64>,
    bcoo: &Coo<f64>,
    cm: &CostModel,
    trace: TraceConfig,
) -> (RunMetrics, RunTrace) {
    let n = acoo.nrows();
    let d = bcoo.ncols();
    let tag = "alg";

    // Bucket the replicated operands once; ranks take their slice by clone
    // (the SUMMAs extract 2-D blocks themselves).
    let dist0 = BlockDist::new(n, p);
    let a_parts = Mutex::new(partition_coo(acoo, dist0));
    let b_parts = Mutex::new(partition_coo(bcoo, dist0));
    let take_a = |rank: usize| {
        std::mem::take(&mut a_parts.lock().unwrap_or_else(PoisonError::into_inner)[rank])
    };
    let take_b = |rank: usize| {
        std::mem::take(&mut b_parts.lock().unwrap_or_else(PoisonError::into_inner)[rank])
    };

    let out = World::run_traced(p, trace, |comm| {
        let dist = BlockDist::new(n, p);
        match algo {
            Algo::Ts {
                policy,
                tile_width_factor,
                tile_height,
            } => {
                let a = DistCsr::from_local_triplets::<PlusTimesF64>(
                    dist,
                    comm.rank(),
                    n,
                    take_a(comm.rank()),
                );
                let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
                let b = DistCsr::from_local_triplets::<PlusTimesF64>(
                    dist,
                    comm.rank(),
                    d,
                    take_b(comm.rank()),
                );
                let mut cfg = TsConfig {
                    policy: *policy,
                    tile_height: *tile_height,
                    tag: tag.to_string(),
                    ..TsConfig::default()
                };
                if let Some(f) = tile_width_factor {
                    cfg = cfg.with_width_factor(*f, dist);
                }
                let (c, stats) = ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, &cfg);
                (c.nnz() as u64, stats)
            }
            Algo::Petsc1d => {
                let a = DistCsr::from_local_triplets::<PlusTimesF64>(
                    dist,
                    comm.rank(),
                    n,
                    take_a(comm.rank()),
                );
                let b = DistCsr::from_local_triplets::<PlusTimesF64>(
                    dist,
                    comm.rank(),
                    d,
                    take_b(comm.rank()),
                );
                let (c, ns) = naive_spgemm::<PlusTimesF64>(comm, &a, &b, AccumChoice::Auto, tag);
                (
                    c.nnz() as u64,
                    TsLocalStats {
                        flops: ns.flops,
                        peak_transient_bytes: ns.resident_b_bytes,
                        ..TsLocalStats::default()
                    },
                )
            }
            Algo::Summa2d => {
                let res = summa2d::<PlusTimesF64>(comm, acoo, bcoo, AccumChoice::Auto, tag);
                (
                    res.c_block.nnz() as u64,
                    TsLocalStats {
                        flops: res.stats.flops,
                        ..TsLocalStats::default()
                    },
                )
            }
            Algo::Summa3d { layers } => {
                let res =
                    summa3d::<PlusTimesF64>(comm, acoo, bcoo, *layers, AccumChoice::Auto, tag);
                // Fiber members hold disjoint row chunks of the block.
                (
                    res.c_block.nnz() as u64,
                    TsLocalStats {
                        flops: res.stats.flops,
                        ..TsLocalStats::default()
                    },
                )
            }
            Algo::SpmmTiled => {
                let a = DistCsr::from_local_triplets::<PlusTimesF64>(
                    dist,
                    comm.rank(),
                    n,
                    take_a(comm.rank()),
                );
                let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
                let bblk = DistCsr::from_local_triplets::<PlusTimesF64>(
                    dist,
                    comm.rank(),
                    d,
                    take_b(comm.rank()),
                );
                let b_dense = DenseMat::from_csr::<PlusTimesF64>(&bblk.local);
                let cfg = SpmmConfig {
                    tag: tag.to_string(),
                    ..SpmmConfig::default()
                };
                let (c, st) = dist_spmm::<PlusTimesF64>(comm, &a, &ac, &b_dense, &cfg);
                let nnz = c.data().iter().filter(|&&v| v != 0.0).count() as u64;
                (
                    nnz,
                    TsLocalStats {
                        flops: st.flops,
                        ..TsLocalStats::default()
                    },
                )
            }
            Algo::Shift => {
                let a = DistCsr::from_local_triplets::<PlusTimesF64>(
                    dist,
                    comm.rank(),
                    n,
                    take_a(comm.rank()),
                );
                let bblk = DistCsr::from_local_triplets::<PlusTimesF64>(
                    dist,
                    comm.rank(),
                    d,
                    take_b(comm.rank()),
                );
                let b_dense = DenseMat::from_csr::<PlusTimesF64>(&bblk.local);
                let (c, st) = shift_spmm::<PlusTimesF64>(comm, &a, &b_dense, tag);
                let nnz = c.data().iter().filter(|&&v| v != 0.0).count() as u64;
                (
                    nnz,
                    TsLocalStats {
                        flops: st.flops,
                        ..TsLocalStats::default()
                    },
                )
            }
        }
    });

    let comm_bytes: u64 = out
        .profiles
        .iter()
        .map(|pr| pr.bytes_sent_tagged("alg"))
        .sum();
    let comm_secs = cm.comm_secs_tagged(&out.profiles, "alg");
    let modeled = cm.model_run(&out.profiles);

    let mut m = RunMetrics {
        comm_bytes,
        comm_secs,
        compute_secs: modeled.compute_secs,
        ..RunMetrics::default()
    };
    for (nnz, st) in &out.results {
        m.c_nnz += nnz;
        m.flops += st.flops;
        m.peak_transient_bytes = m.peak_transient_bytes.max(st.peak_transient_bytes);
        m.subtiles.0 += st.local_subtiles;
        m.subtiles.1 += st.remote_subtiles;
        m.subtiles.2 += st.diag_subtiles;
    }
    (
        m,
        RunTrace {
            profiles: out.profiles,
            metrics: out.metrics,
            flights: out.flights,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgemm_sparse::gen::{erdos_renyi, random_tall};

    #[test]
    fn all_algorithms_agree_on_output_nnz() {
        let n = 64;
        let d = 8;
        let acoo = erdos_renyi(n, 5.0, 401);
        let bcoo = random_tall(n, d, 0.5, 402);
        let cm = CostModel::default();
        let algos = [
            Algo::ts(),
            Algo::Petsc1d,
            Algo::Summa2d,
            Algo::Summa3d { layers: 2 },
        ];
        let nnzs: Vec<u64> = algos
            .iter()
            .map(|a| {
                let p = match a {
                    Algo::Summa3d { .. } => 8, // 2x2 grid x 2 layers
                    _ => 4,
                };
                run_algo(a, p, &acoo, &bcoo, &cm).c_nnz
            })
            .collect();
        assert!(
            nnzs.windows(2).all(|w| w[0] == w[1]),
            "output nnz differs across algorithms: {nnzs:?}"
        );
        // Dense contenders compute the same values; their nonzero count can
        // only differ by exact numerical cancellation.
        let spmm = run_algo(&Algo::SpmmTiled, 4, &acoo, &bcoo, &cm).c_nnz;
        assert_eq!(spmm, nnzs[0]);
    }

    #[test]
    fn metrics_are_populated() {
        let n = 64;
        let d = 8;
        let acoo = erdos_renyi(n, 6.0, 403);
        let bcoo = random_tall(n, d, 0.5, 404);
        let cm = CostModel::default();
        let m = run_algo(&Algo::ts(), 4, &acoo, &bcoo, &cm);
        assert!(m.comm_bytes > 0);
        assert!(m.comm_secs > 0.0);
        assert!(m.compute_secs > 0.0);
        assert!(m.flops > 0);
        assert!(m.total_secs() > 0.0);
        assert!(m.subtiles.0 + m.subtiles.1 + m.subtiles.2 > 0);
    }

    #[test]
    fn setup_bytes_are_excluded_from_multiply_volume() {
        let n = 48;
        let d = 4;
        let acoo = erdos_renyi(n, 5.0, 405);
        let bcoo = random_tall(n, d, 0.5, 406);
        let cm = CostModel::default();
        // PETSc has no setup phase; TS builds A^c. Multiply volume of TS
        // must not include the colpart shuffle (which moves all of A).
        let ts = run_algo(&Algo::ts(), 4, &acoo, &bcoo, &cm);
        let a_bytes = (acoo.nnz() * 16) as u64;
        assert!(
            ts.comm_bytes < a_bytes * 4,
            "multiply volume should not contain repeated A shuffles"
        );
    }
}
