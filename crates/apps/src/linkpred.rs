//! Link-prediction evaluation for embeddings (Fig. 13a's metric).
//!
//! Held-out edges are scored by the dot product of their endpoint
//! embeddings and compared against an equal number of random non-edges;
//! the reported number is the AUC — the probability that a true edge
//! outranks a non-edge.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use tsgemm_sparse::{Coo, Csr, Idx};

/// Splits a symmetric graph into a training graph and a held-out edge list.
/// A `frac` share of the undirected edges is removed (both directions). The
/// held-out list is sorted, so callers that pair it with further random
/// draws get the same pairs on every run.
pub fn split_edges(g: &Coo<f64>, frac: f64, seed: u64) -> (Coo<f64>, Vec<(Idx, Idx)>) {
    assert!((0.0..1.0).contains(&frac), "held-out fraction in [0,1)");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut held: HashSet<(Idx, Idx)> = HashSet::new();
    for &(r, c, _) in g.entries() {
        if r < c && rng.random::<f64>() < frac {
            held.insert((r, c));
        }
    }
    let train: Vec<(Idx, Idx, f64)> = g
        .entries()
        .iter()
        .filter(|&&(r, c, _)| {
            let key = if r < c { (r, c) } else { (c, r) };
            !held.contains(&key)
        })
        .copied()
        .collect();
    let mut held: Vec<(Idx, Idx)> = held.into_iter().collect();
    held.sort_unstable();
    (Coo::from_entries(g.nrows(), g.ncols(), train), held)
}

/// Dot product of two sparse embedding rows.
pub fn row_dot(z: &Csr<f64>, u: Idx, v: Idx) -> f64 {
    let (cu, vu) = z.row(u as usize);
    let (cv, vv) = z.row(v as usize);
    let (mut i, mut j, mut s) = (0usize, 0usize, 0.0);
    while i < cu.len() && j < cv.len() {
        match cu[i].cmp(&cv[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                s += vu[i] * vv[j];
                i += 1;
                j += 1;
            }
        }
    }
    s
}

/// AUC of edge-vs-non-edge ranking: samples one random non-adjacent pair per
/// held-out edge and reports `P(score_edge > score_nonedge)` with ties at ½.
pub fn link_prediction_auc(
    z: &Csr<f64>,
    graph: &Csr<f64>,
    test_edges: &[(Idx, Idx)],
    seed: u64,
) -> f64 {
    if test_edges.is_empty() {
        return 0.5;
    }
    let n = z.nrows();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wins = 0.0f64;
    for &(u, v) in test_edges {
        let pos = row_dot(z, u, v);
        // Rejection-sample a non-edge.
        let neg = loop {
            let a = rng.random_range(0..n) as Idx;
            let b = rng.random_range(0..n) as Idx;
            if a != b && graph.get(a as usize, b).is_none() {
                break row_dot(z, a, b);
            }
        };
        if pos > neg {
            wins += 1.0;
        } else if pos == neg {
            wins += 0.5;
        }
    }
    wins / test_edges.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgemm_sparse::gen::{erdos_renyi, sbm, symmetrize};
    use tsgemm_sparse::PlusTimesF64;

    #[test]
    fn split_removes_both_directions() {
        let g = symmetrize(&erdos_renyi(100, 4.0, 301));
        let (train, test) = split_edges(&g, 0.3, 302);
        assert!(!test.is_empty());
        let tm = train.to_csr::<PlusTimesF64>();
        for &(u, v) in &test {
            assert!(tm.get(u as usize, v).is_none(), "({u},{v}) still in train");
            assert!(tm.get(v as usize, u).is_none(), "({v},{u}) still in train");
        }
        assert!(train.nnz() < g.nnz());
    }

    #[test]
    fn split_returns_the_same_held_out_list_every_call() {
        let g = symmetrize(&erdos_renyi(200, 6.0, 305));
        let (_, first) = split_edges(&g, 0.4, 306);
        let (_, second) = split_edges(&g, 0.4, 306);
        assert!(first.len() > 10);
        assert_eq!(first, second);
    }

    #[test]
    fn split_zero_frac_keeps_everything() {
        let g = symmetrize(&erdos_renyi(50, 3.0, 303));
        let (train, test) = split_edges(&g, 0.0, 304);
        assert_eq!(train.nnz(), g.nnz());
        assert!(test.is_empty());
    }

    #[test]
    fn row_dot_matches_dense() {
        let z = Coo::from_entries(
            3,
            4,
            vec![(0, 0, 1.0), (0, 2, 2.0), (1, 2, 3.0), (1, 3, 4.0)],
        )
        .to_csr::<PlusTimesF64>();
        assert_eq!(row_dot(&z, 0, 1), 6.0); // only col 2 overlaps: 2*3
        assert_eq!(row_dot(&z, 0, 2), 0.0);
    }

    #[test]
    fn perfect_embedding_scores_high_auc() {
        // Embed an SBM graph by its ground-truth community indicator: edges
        // are mostly within communities, so AUC must be well above chance.
        let n = 150;
        let (g, labels) = sbm(n, 3, 8.0, 0.5, 305);
        let z = Coo::from_entries(n, 3, (0..n).map(|v| (v as Idx, labels[v], 1.0)).collect())
            .to_csr::<PlusTimesF64>();
        let gm = g.to_csr::<PlusTimesF64>();
        let (_, test) = split_edges(&g, 0.2, 306);
        let auc = link_prediction_auc(&z, &gm, &test, 307);
        assert!(auc > 0.75, "ground-truth embedding AUC too low: {auc}");
    }

    #[test]
    fn random_embedding_scores_near_chance() {
        let n = 100;
        let g = symmetrize(&erdos_renyi(n, 4.0, 308));
        let z = tsgemm_sparse::gen::random_tall(n, 8, 0.5, 309).to_csr::<PlusTimesF64>();
        let gm = g.to_csr::<PlusTimesF64>();
        let (_, test) = split_edges(&g, 0.3, 310);
        let auc = link_prediction_auc(&z, &gm, &test, 311);
        assert!(
            (auc - 0.5).abs() < 0.15,
            "random AUC should be ~0.5, got {auc}"
        );
    }

    #[test]
    fn empty_test_set_is_chance() {
        let z = Csr::<f64>::new_empty(5, 4);
        let g = Csr::<f64>::new_empty(5, 5);
        assert_eq!(link_prediction_auc(&z, &g, &[], 0), 0.5);
    }
}
