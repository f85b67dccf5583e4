//! Distributed multi-source BFS (Alg. 3).
//!
//! `d` concurrent BFS traversals over one graph: the frontier matrix
//! `F ∈ B^{n×d}` holds one column per source; each iteration discovers
//! `N = A ⊗ F` under the `(∧,∨)` semiring, removes already-visited vertices
//! (`F ← N \ S`), and extends the visited set (`S ← S ∨ N`). Frontier
//! sparsity swings over iterations — dense in the middle, sparse at both
//! ends — which is exactly the regime TS-SpGEMM's adaptive schedule targets
//! (Fig. 12). Following §V-F, when the frontier is less than 50% sparse the
//! multiply can switch to the SpMM form of the same schedule.

use tsgemm_baselines::grid::Grid2d;
use tsgemm_baselines::summa2d::{extract_block, summa_stages};
use tsgemm_core::colpart::ColBlocks;
use tsgemm_core::dist::DistCsr;
use tsgemm_core::exec::{ts_spgemm, TsConfig};
use tsgemm_core::part::BlockDist;
use tsgemm_core::spmm::dist_spmm;
use tsgemm_net::Comm;
use tsgemm_sparse::ewise::{andnot, union};
use tsgemm_sparse::semiring::{BoolAndOr, Semiring};
use tsgemm_sparse::spgemm::AccumChoice;
use tsgemm_sparse::{Coo, Csr, DenseMat, Idx};

/// Configuration of a multi-source BFS run.
#[derive(Clone, Debug)]
pub struct BfsConfig {
    /// Base TS-SpGEMM configuration (tag is extended per iteration).
    pub ts: TsConfig,
    /// Switch to the SpMM form when frontier density exceeds 50% (§V-F).
    pub spmm_switch: bool,
    /// Safety cap on iterations.
    pub max_iters: usize,
}

impl Default for BfsConfig {
    fn default() -> Self {
        Self {
            ts: TsConfig {
                tag: "bfs".to_string(),
                ..TsConfig::default()
            },
            spmm_switch: false,
            max_iters: 1000,
        }
    }
}

tsgemm_net::stats_struct! {
    /// Per-iteration statistics (Fig. 12's per-iteration series), recorded
    /// under `{phase}:i{iter}`. Every field is a globally agreed value
    /// (the nnz counts are AllReduced), so a cross-rank merge of the same
    /// iteration takes the max, which is the shared value.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct BfsIterStats {
        pub iter: usize => key("i"),
        /// Global nnz of the frontier entering this iteration (Fig. 12a).
        pub frontier_nnz: u64 => max,
        /// Global newly discovered (unvisited) entries this iteration.
        pub discovered_nnz: u64 => max,
        /// Whether the SpMM form was used.
        pub used_spmm: bool => max,
    }
}

/// Builds the initial frontier block for this rank: one `true` per column
/// at the source vertex (Alg. 3 line 2).
pub fn init_frontier_block(dist: BlockDist, rank: usize, sources: &[Idx]) -> DistCsr<bool> {
    let d = sources.len();
    let coo = Coo::from_entries(
        dist.n(),
        d,
        sources
            .iter()
            .enumerate()
            .map(|(j, &v)| (v, j as Idx, true))
            .collect(),
    );
    DistCsr::from_global_coo::<BoolAndOr>(&coo, dist, rank, d)
}

/// Alg. 3's frontier loop, shared by every multi-source BFS here. `f` is
/// this rank's part of the initial frontier, which also starts the visited
/// set `S`. While the global frontier is non-empty, for at most `max_iters`
/// iterations `k`:
///
/// * `N ← multiply(comm, k, F, global nnz of F)`, which also says whether
///   it used the SpMM form;
/// * `F ← N \ S`, `S ← S ⊕ F`, then `fresh(k, F)`;
/// * two AllReduces agree on the next frontier's size and the discovered
///   count (tags `{tag}:i{k}:count` and `{tag}:i{k}:disc`; the first
///   frontier is counted under `{tag}:i0:count`).
///
/// Returns `S` and the per-iteration statistics.
pub(crate) fn frontier_loop<S: Semiring>(
    comm: &mut Comm,
    mut f: Csr<S::T>,
    max_iters: usize,
    tag: &str,
    mut multiply: impl FnMut(&mut Comm, usize, Csr<S::T>, u64) -> (Csr<S::T>, bool),
    mut fresh: impl FnMut(usize, &Csr<S::T>),
) -> (Csr<S::T>, Vec<BfsIterStats>) {
    let mut s = f.clone();
    let mut stats = Vec::new();
    let count = |comm: &mut Comm, x: u64, tag: String| comm.allreduce(x, |a, b| a + b, tag);
    let mut frontier_nnz = count(comm, f.nnz() as u64, format!("{tag}:i0:count"));
    for iter in 0..max_iters {
        if frontier_nnz == 0 {
            break;
        }
        let (next, used_spmm) = multiply(comm, iter, f, frontier_nnz);
        // F ← N \ S ; S ← S ⊕ N (lines 7-8).
        f = andnot(&next, &s);
        s = union::<S>(&s, &f);
        fresh(iter, &f);
        // One end-of-iteration reduction doubles as the next loop guard.
        let next_frontier = count(comm, f.nnz() as u64, format!("{tag}:i{iter}:count"));
        let discovered_nnz = count(comm, f.nnz() as u64, format!("{tag}:i{iter}:disc"));
        stats.push(BfsIterStats {
            iter,
            frontier_nnz,
            discovered_nnz,
            used_spmm,
        });
        frontier_nnz = next_frontier;
    }
    (s, stats)
}

/// Runs multi-source BFS with the TS-SpGEMM backend. Returns this rank's
/// rows of the visited matrix `S` and the per-iteration statistics.
///
/// Iteration `k`'s communication is tagged `{base}:i{k}:…`, so harnesses can
/// attribute volume and modeled time per iteration.
pub fn msbfs_ts(
    comm: &mut Comm,
    a: &DistCsr<bool>,
    ac: &ColBlocks<bool>,
    sources: &[Idx],
    cfg: &BfsConfig,
) -> (Csr<bool>, Vec<BfsIterStats>) {
    let dist = a.dist;
    let cells = dist.n() as f64 * sources.len() as f64;
    let base = &cfg.ts.tag;
    let f0 = init_frontier_block(dist, comm.rank(), sources).local;
    let multiply = |comm: &mut Comm, iter: usize, f: Csr<bool>, frontier_nnz: u64| {
        let f = DistCsr {
            dist,
            rank: comm.rank(),
            local: f,
        };
        // The SpMM form pays off past 50% global frontier density (§V-F).
        if cfg.spmm_switch && frontier_nnz as f64 / cells > 0.5 {
            let fd = DenseMat::from_csr::<BoolAndOr>(&f.local);
            let scfg = cfg.ts.tile_config(format!("{base}:i{iter}:spmm"));
            let (cd, _) = dist_spmm::<BoolAndOr>(comm, a, ac, &fd, &scfg);
            (cd.to_csr::<BoolAndOr>(), true)
        } else {
            let tcfg = TsConfig {
                tag: format!("{base}:i{iter}"),
                ..cfg.ts.clone()
            };
            (ts_spgemm::<BoolAndOr>(comm, a, ac, &f, &tcfg).0, false)
        }
    };
    let (s, stats) = frontier_loop::<BoolAndOr>(comm, f0, cfg.max_iters, base, multiply, |_, _| {});
    if comm.trace_on() {
        use tsgemm_net::Metrics;
        comm.metrics(|m| stats.iter().for_each(|st| m.merge(&st.registry(base))));
    }
    (s, stats)
}

/// Result of the SUMMA-backend BFS: this rank's `S` block, its global row
/// and source-column ranges, and the per-iteration statistics.
pub type Summa2dBfsOut = (Csr<bool>, (Idx, Idx), (Idx, Idx), Vec<BfsIterStats>);

/// Multi-source BFS with the 2-D SUMMA backend (the CombBLAS formulation
/// Fig. 12d compares against). State stays in SUMMA's native 2-D block
/// distribution across iterations. Returns this rank's `C` block of `S`
/// with its global ranges, plus per-iteration stats.
pub fn msbfs_summa2d(
    comm: &mut Comm,
    acoo: &Coo<bool>,
    sources: &[Idx],
    max_iters: usize,
    tag: &str,
) -> Summa2dBfsOut {
    let n = acoo.nrows();
    let d = sources.len();
    let mut grid = Grid2d::square(comm);
    let g = grid.pr;
    let ndist = BlockDist::new(n, g);
    let ddist = BlockDist::new(d, g);
    let (rlo, rhi) = ndist.range(grid.row);
    let (clo, chi) = ndist.range(grid.col);
    let (dlo, dhi) = ddist.range(grid.col);
    let my_rows = (rhi - rlo) as usize;
    let my_dcols = (dhi - dlo) as usize;

    let a_block = extract_block::<BoolAndOr>(acoo, rlo..rhi, clo..chi);
    let f0 = Coo::from_entries(
        n,
        d,
        sources
            .iter()
            .enumerate()
            .map(|(j, &v)| (v, j as Idx, true))
            .collect(),
    );
    let f_block = extract_block::<BoolAndOr>(&f0, rlo..rhi, dlo..dhi);
    let multiply = |comm: &mut Comm, iter: usize, f_block: Csr<bool>, _| {
        let (c_trips, flops) = summa_stages::<BoolAndOr>(
            &mut grid,
            &a_block,
            &f_block,
            ndist,
            my_rows,
            my_dcols,
            AccumChoice::Auto,
            &format!("{tag}:i{iter}"),
        );
        comm.add_flops(flops);
        let next = Coo::from_entries(my_rows, my_dcols, c_trips).to_csr::<BoolAndOr>();
        (next, false)
    };
    let (s_block, stats) =
        frontier_loop::<BoolAndOr>(comm, f_block, max_iters, tag, multiply, |_, _| {});
    (s_block, (rlo, rhi), (dlo, dhi), stats)
}

/// Multi-source BFS that also reconstructs the BFS forest, using the
/// `(min, sel2nd)` semiring the paper mentions for tree reconstruction
/// (§IV-A): frontier entries carry `parent id + 1` as their value; the
/// multiply propagates the candidate parent along each edge and `min`
/// resolves races deterministically.
///
/// Returns, per local row (vertex) and source column: the parent vertex id
/// on the BFS tree (the source's own entry carries itself as parent).
pub fn msbfs_parents(
    comm: &mut Comm,
    a_num: &DistCsr<f64>,
    ac_num: &ColBlocks<f64>,
    sources: &[Idx],
    max_iters: usize,
    tag: &str,
) -> (Csr<f64>, Vec<BfsIterStats>) {
    use tsgemm_sparse::semiring::Sel2ndMinF64;
    let dist = a_num.dist;
    let me = comm.rank();
    let d = sources.len();
    let (lo, _) = dist.range(me);

    // Frontier values encode the discovering parent as (parent + 1);
    // sources are their own parents.
    let f0 = Coo::from_entries(
        dist.n(),
        d,
        sources
            .iter()
            .enumerate()
            .map(|(j, &v)| (v, j as Idx, v as f64 + 1.0))
            .collect(),
    );
    let f0 = DistCsr::from_global_coo::<Sel2ndMinF64>(&f0, dist, me, d).local;
    // N(r, j) = min over frontier neighbours of (their id + 1): the sel2nd
    // ⊗ carries the frontier value (the candidate parent) and min ⊕
    // resolves ties. The A value is ignored by sel2nd.
    let multiply = |comm: &mut Comm, iter: usize, f: Csr<f64>, _| {
        // Frontier must carry the *discoverer's* id, so re-stamp each
        // frontier row's values with its own vertex id before expanding.
        let stamps = f
            .iter_rows()
            .flat_map(|(r, cols, _)| std::iter::repeat_n((lo + r as Idx) as f64 + 1.0, cols.len()))
            .collect();
        let (indptr, indices) = (f.indptr().to_vec(), f.indices().to_vec());
        let fd = DistCsr {
            dist,
            rank: me,
            local: Csr::from_parts(f.nrows(), f.ncols(), indptr, indices, stamps),
        };
        let tcfg = TsConfig {
            tag: format!("{tag}:i{iter}"),
            ..TsConfig::default()
        };
        (
            ts_spgemm::<Sel2ndMinF64>(comm, a_num, ac_num, &fd, &tcfg).0,
            false,
        )
    };
    let (parents, stats) =
        frontier_loop::<Sel2ndMinF64>(comm, f0, max_iters, tag, multiply, |_, _| {});
    // Stored values are parent + 1; shift back to parent ids.
    (parents.map_values(|v| v - 1.0), stats)
}

/// Sequential queue-based multi-source BFS reference: returns the visited
/// matrix `S` (vertex × source) for verification.
pub fn sequential_msbfs(adj: &Csr<bool>, sources: &[Idx]) -> Csr<bool> {
    let n = adj.nrows();
    // Work on the transpose orientation used by the matrix formulation:
    // N = A·F discovers r when A(r, c) and F(c). Edge c -> r.
    let at = adj.transpose();
    let mut trips: Vec<(Idx, Idx, bool)> = Vec::new();
    for (j, &src) in sources.iter().enumerate() {
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        visited[src as usize] = true;
        queue.push_back(src);
        while let Some(v) = queue.pop_front() {
            // Neighbours r with A(r, v): column v of A = row v of Aᵀ.
            let (rows, _) = at.row(v as usize);
            for &r in rows {
                if !visited[r as usize] {
                    visited[r as usize] = true;
                    queue.push_back(r);
                }
            }
        }
        for (v, &vis) in visited.iter().enumerate() {
            if vis {
                trips.push((v as Idx, j as Idx, true));
            }
        }
    }
    Coo::from_entries(n, sources.len(), trips).to_csr::<BoolAndOr>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgemm_net::World;
    use tsgemm_sparse::gen::{erdos_renyi, init_frontier, symmetrize};

    fn bool_graph(n: usize, deg: f64, seed: u64) -> Coo<bool> {
        symmetrize(&erdos_renyi(n, deg, seed)).map_values(|_| true)
    }

    #[test]
    fn registry_keys_and_types_are_stable() {
        use tsgemm_net::MetricValue::Gauge;
        let s = BfsIterStats {
            iter: 3,
            frontier_nnz: 40,
            discovered_nnz: 12,
            used_spmm: true,
        };
        let got: Vec<_> = s
            .registry("bfs")
            .iter()
            .map(|((phase, name), v)| (phase.clone(), name.clone(), v.clone()))
            .collect();
        let want = [
            ("discovered_nnz", Gauge(12.0)),
            ("frontier_nnz", Gauge(40.0)),
            ("used_spmm", Gauge(1.0)),
        ]
        .map(|(name, v)| ("bfs:i3".to_string(), name.to_string(), v));
        assert_eq!(got, want);
    }

    #[test]
    fn ts_backend_matches_sequential_reference() {
        let n = 80;
        let acoo = bool_graph(n, 3.0, 101);
        let (_, sources) = init_frontier(n, 8, 102);
        let expected = sequential_msbfs(&acoo.to_csr::<BoolAndOr>(), &sources);
        let out = World::run(4, |comm| {
            let dist = BlockDist::new(n, 4);
            let a = DistCsr::from_global_coo::<BoolAndOr>(&acoo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<BoolAndOr>(comm, &a);
            let (s, stats) = msbfs_ts(comm, &a, &ac, &sources, &BfsConfig::default());
            let sd = DistCsr {
                dist,
                rank: comm.rank(),
                local: s,
            };
            (sd.gather_global::<BoolAndOr>(comm), stats)
        });
        for (s, _) in &out.results {
            assert_eq!(s, &expected, "distributed BFS must match queue BFS");
        }
    }

    #[test]
    fn summa_backend_matches_sequential_reference() {
        let n = 60;
        let acoo = bool_graph(n, 3.0, 103);
        let (_, sources) = init_frontier(n, 6, 104);
        let expected = sequential_msbfs(&acoo.to_csr::<BoolAndOr>(), &sources);
        let out = World::run(4, |comm| {
            let (s_block, rows, cols, _) = msbfs_summa2d(comm, &acoo, &sources, 1000, "bfs2d");
            // Gather blocks.
            let mut trips: Vec<(Idx, Idx, bool)> = Vec::new();
            for (r, cs, vs) in s_block.iter_rows() {
                for (&c, &v) in cs.iter().zip(vs) {
                    trips.push((rows.0 + r as Idx, cols.0 + c, v));
                }
            }
            let all = comm.allgatherv(trips, "gather:verify");
            Coo::from_entries(n, sources.len(), all.into_iter().flatten().collect())
                .to_csr::<BoolAndOr>()
        });
        for s in out.results {
            assert_eq!(s, expected);
        }
    }

    #[test]
    fn spmm_switch_gives_same_answer() {
        // Dense small graph: the middle BFS wave discovers most vertices for
        // every source at once, pushing frontier density past 50%.
        let n = 32;
        let acoo = bool_graph(n, 6.0, 105);
        let (_, sources) = init_frontier(n, 16, 106);
        let expected = sequential_msbfs(&acoo.to_csr::<BoolAndOr>(), &sources);
        let out = World::run(4, |comm| {
            let dist = BlockDist::new(n, 4);
            let a = DistCsr::from_global_coo::<BoolAndOr>(&acoo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<BoolAndOr>(comm, &a);
            let cfg = BfsConfig {
                spmm_switch: true,
                ..BfsConfig::default()
            };
            let (s, stats) = msbfs_ts(comm, &a, &ac, &sources, &cfg);
            let sd = DistCsr {
                dist,
                rank: comm.rank(),
                local: s,
            };
            (sd.gather_global::<BoolAndOr>(comm), stats)
        });
        for (s, _) in &out.results {
            assert_eq!(s, &expected);
        }
        // With d = n/4 sources the mid-BFS frontier is dense enough that at
        // least one iteration should have taken the SpMM path on this graph.
        let stats = &out.results[0].1;
        assert!(
            stats.iter().any(|s| s.used_spmm),
            "expected an SpMM iteration; densities: {:?}",
            stats.iter().map(|s| s.frontier_nnz).collect::<Vec<_>>()
        );
    }

    #[test]
    fn frontier_rises_then_falls() {
        let n = 200;
        let acoo = bool_graph(n, 2.5, 107);
        let (_, sources) = init_frontier(n, 4, 108);
        let out = World::run(4, |comm| {
            let dist = BlockDist::new(n, 4);
            let a = DistCsr::from_global_coo::<BoolAndOr>(&acoo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<BoolAndOr>(comm, &a);
            msbfs_ts(comm, &a, &ac, &sources, &BfsConfig::default()).1
        });
        let series: Vec<u64> = out.results[0].iter().map(|s| s.frontier_nnz).collect();
        assert!(series.len() >= 3, "BFS should take several iterations");
        let peak = series.iter().copied().max().unwrap();
        assert!(peak > series[0], "frontier must grow from the sources");
        assert!(
            *series.last().unwrap() < peak,
            "frontier must shrink at the end"
        );
    }

    #[test]
    fn parent_bfs_builds_a_valid_forest() {
        use tsgemm_sparse::PlusTimesF64;
        let n = 60;
        let gcoo = symmetrize(&erdos_renyi(n, 3.0, 111));
        let (_, sources) = init_frontier(n, 5, 112);
        let bool_adj = gcoo.map_values(|_| true).to_csr::<BoolAndOr>();
        let expected_visits = sequential_msbfs(&bool_adj, &sources);

        let out = World::run(4, |comm| {
            let dist = BlockDist::new(n, 4);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(&gcoo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
            let (parents, _) = msbfs_parents(comm, &a, &ac, &sources, 1000, "pbfs");
            // Gather under (min,+): its zero is +inf, so a legitimate
            // parent id of 0 is not dropped as a structural zero.
            DistCsr {
                dist,
                rank: comm.rank(),
                local: parents,
            }
            .gather_global::<tsgemm_sparse::MinPlusF64>(comm)
        });
        let parents = &out.results[0];

        // Same coverage as the boolean BFS.
        assert_eq!(parents.indptr(), expected_visits.indptr());
        assert_eq!(parents.indices(), expected_visits.indices());

        // Every parent is a real neighbour (or self for the source), and is
        // itself visited from the same source.
        let adj = gcoo.to_csr::<PlusTimesF64>();
        for (v, cols, vals) in parents.iter_rows() {
            for (&j, &pv) in cols.iter().zip(vals) {
                let parent = pv as usize;
                if v as Idx == sources[j as usize] {
                    assert_eq!(parent, v, "source must be its own parent");
                } else {
                    assert!(
                        adj.get(v, parent as Idx).is_some(),
                        "parent {parent} of {v} must be adjacent"
                    );
                    assert!(
                        parents.get(parent, j).is_some(),
                        "parent {parent} must be visited from source {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn disconnected_sources_terminate() {
        // Graph with no edges: BFS ends after one multiply with empty result.
        let n = 10;
        let acoo = Coo::<bool>::new(n, n);
        let sources = vec![1 as Idx, 5];
        let out = World::run(2, |comm| {
            let dist = BlockDist::new(n, 2);
            let a = DistCsr::from_global_coo::<BoolAndOr>(&acoo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<BoolAndOr>(comm, &a);
            let (s, stats) = msbfs_ts(comm, &a, &ac, &sources, &BfsConfig::default());
            (s.nnz(), stats.len())
        });
        let total: usize = out.results.iter().map(|r| r.0).sum();
        assert_eq!(total, 2, "only the sources are visited");
        assert_eq!(out.results[0].1, 1, "one iteration discovering nothing");
    }

    #[test]
    fn per_iteration_tags_are_recorded() {
        let n = 60;
        let acoo = bool_graph(n, 3.0, 109);
        let (_, sources) = init_frontier(n, 4, 110);
        let out = World::run(4, |comm| {
            let dist = BlockDist::new(n, 4);
            let a = DistCsr::from_global_coo::<BoolAndOr>(&acoo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<BoolAndOr>(comm, &a);
            msbfs_ts(comm, &a, &ac, &sources, &BfsConfig::default()).1
        });
        let iters = out.results[0].len();
        assert!(iters >= 2);
        let vol_i1: u64 = out
            .profiles
            .iter()
            .map(|p| p.bytes_sent_tagged("bfs:i1:"))
            .sum();
        assert!(vol_i1 > 0, "iteration 1 must have communicated");
    }
}
