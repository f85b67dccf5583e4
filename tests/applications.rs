//! Application-level integration properties: the matrix-algebra BFS agrees
//! with a classic queue BFS under every backend, and the embedding pipeline
//! maintains its invariants end to end.

use proptest::prelude::*;
use tsgemm::apps::msbfs::{msbfs_parents, msbfs_summa2d, msbfs_ts, sequential_msbfs, BfsConfig};
use tsgemm::apps::msbfs_levels;
use tsgemm::core::{BlockDist, ColBlocks, DistCsr};
use tsgemm::net::World;
use tsgemm::sparse::gen::{erdos_renyi, init_frontier, symmetrize};
use tsgemm::sparse::semiring::BoolAndOr;
use tsgemm::sparse::{Coo, Csr, Idx, MinPlusF64};

fn graph(n: usize, deg: f64, seed: u64) -> Coo<bool> {
    symmetrize(&erdos_renyi(n, deg, seed)).map_values(|_| true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn distributed_bfs_equals_queue_bfs(
        n in 16usize..150,
        p in 1usize..7,
        d in 1usize..12,
        deg in 0.5f64..5.0,
        spmm_switch in any::<bool>(),
        seed in 0u64..500,
    ) {
        let acoo = graph(n, deg, seed);
        let (_, sources) = init_frontier(n, d.min(n), seed + 1);
        let expected = sequential_msbfs(&acoo.to_csr::<BoolAndOr>(), &sources);
        let out = World::run(p, |comm| {
            let dist = BlockDist::new(n, p);
            let a = DistCsr::from_global_coo::<BoolAndOr>(&acoo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<BoolAndOr>(comm, &a);
            let cfg = BfsConfig { spmm_switch, ..BfsConfig::default() };
            let (s, _) = msbfs_ts(comm, &a, &ac, &sources, &cfg);
            DistCsr { dist, rank: comm.rank(), local: s }
                .gather_global::<BoolAndOr>(comm)
        });
        for s in out.results {
            prop_assert_eq!(&s, &expected);
        }
    }

    #[test]
    fn summa_bfs_equals_queue_bfs(
        n in 16usize..100,
        g in 1usize..4,
        d in 1usize..10,
        deg in 0.5f64..4.0,
        seed in 0u64..500,
    ) {
        let acoo = graph(n, deg, seed);
        let (_, sources) = init_frontier(n, d.min(n), seed + 1);
        let expected = sequential_msbfs(&acoo.to_csr::<BoolAndOr>(), &sources);
        let out = World::run(g * g, |comm| {
            let (s_block, rows, cols, _) = msbfs_summa2d(comm, &acoo, &sources, 1000, "b2");
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
            prop_assert_eq!(&s, &expected);
        }
    }
}

#[test]
fn bfs_visits_exactly_the_reachable_sets() {
    // Deterministic structure: two disjoint cliques; sources in each only
    // reach their own clique.
    let n = 20;
    let mut coo = Coo::new(n, n);
    for a in 0..10u32 {
        for b in 0..10u32 {
            if a != b {
                coo.push(a, b, true);
                coo.push(a + 10, b + 10, true);
            }
        }
    }
    let sources = vec![0 as Idx, 15];
    let out = World::run(4, |comm| {
        let dist = BlockDist::new(n, 4);
        let a = DistCsr::from_global_coo::<BoolAndOr>(&coo, dist, comm.rank(), n);
        let ac = ColBlocks::build::<BoolAndOr>(comm, &a);
        let (s, stats) = msbfs_ts(comm, &a, &ac, &sources, &BfsConfig::default());
        let sg = DistCsr {
            dist,
            rank: comm.rank(),
            local: s,
        }
        .gather_global::<BoolAndOr>(comm);
        (sg, stats)
    });
    let (s, stats) = &out.results[0];
    // Column 0 = clique 1 (rows 0..10); column 1 = clique 2 (rows 10..20).
    for v in 0..10 {
        assert_eq!(s.get(v, 0), Some(true));
        assert_eq!(s.get(v + 10, 0), None);
        assert_eq!(s.get(v + 10, 1), Some(true));
    }
    assert_eq!(s.nnz(), 20);
    // Cliques have diameter 1: the whole clique is discovered in one
    // iteration, one more confirms an empty frontier.
    assert_eq!(stats.len(), 2);
    assert_eq!(stats[1].discovered_nnz, 0);
}

/// A 240-vertex graph in two components: an Erdős–Rényi graph plus a ring
/// over vertices `0..220`, and a path over `220..240`.
fn two_component_graph() -> Coo<f64> {
    let (n, main) = (240, 220);
    let mut g = Coo::new(n, n);
    for &(r, c, _) in erdos_renyi(main, 2.0, 0xB17).entries() {
        g.push(r, c, 1.0);
    }
    for v in 0..main as Idx {
        g.push(v, (v + 1) % main as Idx, 1.0);
    }
    for v in main as Idx..n as Idx - 1 {
        g.push(v, v + 1, 1.0);
    }
    symmetrize(&g)
}

/// BFS distances from each source (`None` where unreached).
fn queue_levels(adj: &Csr<bool>, sources: &[Idx]) -> Vec<Vec<Option<u32>>> {
    let at = adj.transpose();
    sources
        .iter()
        .map(|&s| {
            let mut dist = vec![None; adj.nrows()];
            let mut queue = std::collections::VecDeque::from([s]);
            dist[s as usize] = Some(0);
            while let Some(v) = queue.pop_front() {
                for &r in at.row(v as usize).0 {
                    if dist[r as usize].is_none() {
                        dist[r as usize] = Some(dist[v as usize].unwrap() + 1);
                        queue.push_back(r);
                    }
                }
            }
            dist
        })
        .collect()
}

#[test]
fn bfs_across_word_boundaries() {
    // Source counts on both sides of each 64-bit word boundary of the
    // visited set. With d <= 65 every source lies in the big component, so
    // its rows end up full (every source reached them); with d = 130 two
    // sources lie on the path, so no row is ever full.
    let g = two_component_graph();
    let n = g.nrows();
    let gb = g.map_values(|_| true);
    let adj = gb.to_csr::<BoolAndOr>();
    for d in [1usize, 63, 64, 65, 130] {
        let sources: Vec<Idx> = (0..d as Idx)
            .map(|j| match j % 64 {
                63 if d > 65 => 220 + j % 20,
                _ => (j * 7) % 220,
            })
            .collect();
        let expected = sequential_msbfs(&adj, &sources);
        let levels = queue_levels(&adj, &sources);
        for p in [1, 3, 4] {
            let at = format!("d={d} p={p}");
            let out = World::run(p, |comm| {
                let dist = BlockDist::new(n, p);
                let a = DistCsr::from_global_coo::<BoolAndOr>(&gb, dist, comm.rank(), n);
                let ac = ColBlocks::build::<BoolAndOr>(comm, &a);
                let visited = [false, true].map(|spmm_switch| {
                    let cfg = BfsConfig {
                        spmm_switch,
                        ..BfsConfig::default()
                    };
                    let (s, _) = msbfs_ts(comm, &a, &ac, &sources, &cfg);
                    DistCsr {
                        dist,
                        rank: comm.rank(),
                        local: s,
                    }
                    .gather_global::<BoolAndOr>(comm)
                });
                let (lv, _) = msbfs_levels(comm, &a, &ac, &sources, 1000, "lv");
                use tsgemm::sparse::PlusTimesF64;
                let an = DistCsr::from_global_coo::<PlusTimesF64>(&g, dist, comm.rank(), n);
                let acn = ColBlocks::build::<PlusTimesF64>(comm, &an);
                let (pa, _) = msbfs_parents(comm, &an, &acn, &sources, 1000, "pa");
                // Gathered under (min,+), whose zero is +inf, so a level or
                // parent of 0 is kept.
                let [lv, pa] = [lv, pa].map(|local| {
                    DistCsr {
                        dist,
                        rank: comm.rank(),
                        local,
                    }
                    .gather_global::<MinPlusF64>(comm)
                });
                (visited, lv, pa)
            });
            let (visited, lv, pa) = &out.results[0];
            assert_eq!(visited[0], expected, "{at}: msbfs_ts");
            assert_eq!(visited[1], expected, "{at}: msbfs_ts with spmm_switch");
            for v in 0..n {
                for (j, want) in levels.iter().enumerate() {
                    let got = lv.get(v, j as Idx).map(|x| x as u32);
                    assert_eq!(got, want[v], "{at}: level of {v} from source {j}");
                }
            }
            // A BFS forest: the visited sets, each source its own parent,
            // and every other vertex's parent an adjacent vertex one level
            // nearer its source.
            assert_eq!(pa.indptr(), expected.indptr(), "{at}: parents");
            assert_eq!(pa.indices(), expected.indices(), "{at}: parents");
            for (v, cols, vals) in pa.iter_rows() {
                for (&j, &parent) in cols.iter().zip(vals) {
                    let (j, parent) = (j as usize, parent as usize);
                    if v as Idx == sources[j] {
                        assert_eq!(parent, v, "{at}: source {j}");
                    } else {
                        assert!(adj.get(v, parent as Idx).is_some(), "{at}: {v}'s parent");
                        let level = |u: usize| levels[j][u].unwrap();
                        assert_eq!(level(parent) + 1, level(v), "{at}: {v}'s parent");
                    }
                }
            }
        }
        // 2-D SUMMA needs a square rank count.
        for side in [1, 2] {
            let out = World::run(side * side, |comm| {
                let (s_block, rows, cols, _) = msbfs_summa2d(comm, &gb, &sources, 1000, "b2");
                let mut trips: Vec<(Idx, Idx, bool)> = Vec::new();
                for (r, cs, vs) in s_block.iter_rows() {
                    for (&c, &v) in cs.iter().zip(vs) {
                        trips.push((rows.0 + r as Idx, cols.0 + c, v));
                    }
                }
                let all = comm.allgatherv(trips, "gather:verify");
                Coo::from_entries(n, d, all.into_iter().flatten().collect()).to_csr::<BoolAndOr>()
            });
            for s in out.results {
                assert_eq!(s, expected, "d={d} p={}: msbfs_summa2d", side * side);
            }
        }
    }
}

#[test]
fn embedding_end_to_end_beats_random_on_communities() {
    use tsgemm::apps::embed::{sparse_embed, EmbedConfig};
    use tsgemm::apps::linkpred::{link_prediction_auc, split_edges};
    use tsgemm::sparse::gen::sbm;
    use tsgemm::sparse::PlusTimesF64;

    let n = 400;
    let (g, _) = sbm(n, 4, 10.0, 0.5, 91);
    let g = symmetrize(&g);
    let (train, test) = split_edges(&g, 0.15, 92);
    let full = g.to_csr::<PlusTimesF64>();
    let out = World::run(4, |comm| {
        let dist = BlockDist::new(n, 4);
        let a = DistCsr::from_global_coo::<PlusTimesF64>(&train, dist, comm.rank(), n);
        let cfg = EmbedConfig {
            d: 16,
            target_sparsity: 0.5,
            epochs: 12,
            lr: 0.1,
            neg_samples: 3,
            ..EmbedConfig::default()
        };
        let (z, _) = sparse_embed(comm, &a, &cfg);
        DistCsr {
            dist,
            rank: comm.rank(),
            local: z,
        }
        .gather_global::<PlusTimesF64>(comm)
    });
    let auc = link_prediction_auc(&out.results[0], &full, &test, 93);
    assert!(
        auc > 0.6,
        "trained embedding must beat chance clearly, got {auc}"
    );
}
