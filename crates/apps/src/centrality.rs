//! Closeness centrality via multi-source BFS.
//!
//! One of the paper's motivating applications (§I, citing "The more the
//! merrier" \[11\]): closeness centrality needs the BFS distance from every
//! vertex to a set of sources, which is exactly the level structure the
//! TS-SpGEMM multi-source BFS produces one wave at a time.
//!
//! `msbfs_levels` runs the (∧,∨)-semiring BFS and records, per `(vertex,
//! source)` pair, the iteration at which the vertex was discovered — its
//! distance. `closeness` then folds each source's distance column into
//! `(reached − 1) / Σ distances` (the standard definition restricted to the
//! reachable set).

use crate::msbfs::{frontier_loop, init_frontier_block, BfsIterStats};
use tsgemm_core::colpart::ColBlocks;
use tsgemm_core::dist::DistCsr;
use tsgemm_core::exec::{TsConfig, TsPlan};
use tsgemm_net::Comm;
use tsgemm_sparse::semiring::BoolAndOr;
use tsgemm_sparse::{BitRows, Coo, Csr, Idx, MinPlusF64};

/// Runs multi-source BFS and returns this rank's rows of the **level
/// matrix**: entry `(v, j)` is the BFS distance from `sources[j]` to `v`
/// (`0.0` for the source itself). Unreached pairs are absent.
pub fn msbfs_levels(
    comm: &mut Comm,
    a: &DistCsr<bool>,
    ac: &ColBlocks<bool>,
    sources: &[Idx],
    max_iters: usize,
    tag: &str,
) -> (Csr<f64>, Vec<BfsIterStats>) {
    let dist = a.dist;
    let f0 = init_frontier_block(dist, comm.rank(), sources).local;
    // Level triplets in local coordinates: iteration k discovers level k + 1.
    let mut level_trips: Vec<(Idx, Idx, f64)> = Vec::new();
    let mut add_level = |level: usize, f: &Csr<bool>| {
        for (r, cols, _) in f.iter_rows() {
            level_trips.extend(cols.iter().map(|&c| (r as Idx, c, level as f64)));
        }
    };
    add_level(0, &f0);
    let cfg = TsConfig {
        tag: tag.to_string(),
        ..TsConfig::default()
    };
    let plan = TsPlan::new(comm, a, ac, &cfg);
    let multiply = |comm: &mut Comm, iter: usize, f: Csr<bool>, s: &BitRows, _| {
        let f = DistCsr {
            dist,
            rank: comm.rank(),
            local: f,
        };
        let tag = format!("{tag}:i{iter}");
        (plan.multiply::<BoolAndOr>(comm, &f, Some(s), &tag).0, false)
    };
    let (_, stats) = frontier_loop::<BoolAndOr>(comm, f0, max_iters, tag, multiply, |iter, f| {
        add_level(iter + 1, f)
    });
    let levels =
        Coo::from_entries(a.local_rows(), sources.len(), level_trips).to_csr::<MinPlusF64>();
    (levels, stats)
}

/// Closeness centrality of each source: `(reached − 1) / Σ_v dist(v, src)`,
/// computed from distributed level columns with one reduction. Sources that
/// reach nothing get 0.
pub fn closeness(comm: &mut Comm, levels: &Csr<f64>, d: usize, tag: &str) -> Vec<f64> {
    // Per-source (Σ distances, #reached) from the local rows.
    let mut acc = vec![(0.0f64, 0u64); d];
    for (_, cols, vals) in levels.iter_rows() {
        for (&c, &v) in cols.iter().zip(vals) {
            acc[c as usize].0 += v;
            acc[c as usize].1 += 1;
        }
    }
    let global = comm.allreduce(
        acc,
        |mut x, y| {
            for (a, b) in x.iter_mut().zip(y) {
                a.0 += b.0;
                a.1 += b.1;
            }
            x
        },
        format!("{tag}:reduce"),
    );
    global
        .into_iter()
        .map(|(sum, reached)| {
            if reached > 1 && sum > 0.0 {
                (reached - 1) as f64 / sum
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgemm_core::part::BlockDist;
    use tsgemm_net::World;
    use tsgemm_sparse::gen::{erdos_renyi, init_frontier, symmetrize};
    use tsgemm_sparse::Coo;

    fn bool_graph(n: usize, deg: f64, seed: u64) -> Coo<bool> {
        symmetrize(&erdos_renyi(n, deg, seed)).map_values(|_| true)
    }

    /// Dijkstra-free reference: BFS distances per source.
    fn reference_levels(adj: &Csr<bool>, sources: &[Idx]) -> Vec<Vec<Option<u32>>> {
        let n = adj.nrows();
        let at = adj.transpose();
        sources
            .iter()
            .map(|&s| {
                let mut dist = vec![None; n];
                let mut q = std::collections::VecDeque::new();
                dist[s as usize] = Some(0);
                q.push_back(s);
                while let Some(v) = q.pop_front() {
                    let (rows, _) = at.row(v as usize);
                    for &r in rows {
                        if dist[r as usize].is_none() {
                            dist[r as usize] = Some(dist[v as usize].unwrap() + 1);
                            q.push_back(r);
                        }
                    }
                }
                dist
            })
            .collect()
    }

    #[test]
    fn levels_match_queue_bfs_distances() {
        let n = 70;
        let acoo = bool_graph(n, 3.0, 301);
        let (_, sources) = init_frontier(n, 6, 302);
        let expected = reference_levels(&acoo.to_csr::<BoolAndOr>(), &sources);
        let out = World::run(4, |comm| {
            let dist = BlockDist::new(n, 4);
            let a = DistCsr::from_global_coo::<BoolAndOr>(&acoo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<BoolAndOr>(comm, &a);
            let (lv, _) = msbfs_levels(comm, &a, &ac, &sources, 1000, "lv");
            DistCsr {
                dist,
                rank: comm.rank(),
                local: lv,
            }
            .gather_global::<tsgemm_sparse::MinPlusF64>(comm)
        });
        let levels = &out.results[0];
        for v in 0..n {
            for (j, exp) in expected.iter().enumerate() {
                let got = levels.get(v, j as Idx).map(|x| x as u32);
                assert_eq!(got, exp[v], "distance mismatch at vertex {v}, source {j}");
            }
        }
    }

    #[test]
    fn closeness_matches_direct_computation() {
        let n = 50;
        let acoo = bool_graph(n, 4.0, 303);
        let (_, sources) = init_frontier(n, 4, 304);
        let expected_levels = reference_levels(&acoo.to_csr::<BoolAndOr>(), &sources);
        let expected: Vec<f64> = expected_levels
            .iter()
            .map(|dist| {
                let reached = dist.iter().flatten().count() as f64;
                let sum: f64 = dist.iter().flatten().map(|&x| x as f64).sum();
                if reached > 1.0 && sum > 0.0 {
                    (reached - 1.0) / sum
                } else {
                    0.0
                }
            })
            .collect();
        let out = World::run(5, |comm| {
            let dist = BlockDist::new(n, 5);
            let a = DistCsr::from_global_coo::<BoolAndOr>(&acoo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<BoolAndOr>(comm, &a);
            let (lv, _) = msbfs_levels(comm, &a, &ac, &sources, 1000, "lv");
            closeness(comm, &lv, sources.len(), "cl")
        });
        for got in &out.results {
            for (g, e) in got.iter().zip(&expected) {
                assert!((g - e).abs() < 1e-12, "closeness mismatch: {g} vs {e}");
            }
        }
    }

    #[test]
    fn star_center_has_highest_closeness() {
        // Star graph: center 0 at distance 1 from all; leaves at distance 2
        // from each other.
        let n = 10;
        let mut coo = Coo::new(n, n);
        for v in 1..n as Idx {
            coo.push(0, v, true);
            coo.push(v, 0, true);
        }
        let sources: Vec<Idx> = (0..4).collect();
        let out = World::run(2, |comm| {
            let dist = BlockDist::new(n, 2);
            let a = DistCsr::from_global_coo::<BoolAndOr>(&coo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<BoolAndOr>(comm, &a);
            let (lv, _) = msbfs_levels(comm, &a, &ac, &sources, 100, "lv");
            closeness(comm, &lv, sources.len(), "cl")
        });
        let c = &out.results[0];
        assert!(
            c[0] > c[1] && c[0] > c[2] && c[0] > c[3],
            "center must be most central: {c:?}"
        );
        assert!(
            (c[0] - 1.0).abs() < 1e-12,
            "center reaches all at distance 1"
        );
    }
}
