//! Distributed Markov clustering (MCL), HipMCL-style.
//!
//! The paper's intro motivates SpGEMM with Markov clustering (§I, citing
//! HipMCL \[4\]): MCL alternates **expansion** (squaring the column-stochastic
//! flow matrix — a square×square SpGEMM, the `AA` case the TS-SpGEMM
//! schedule also covers since `B`'s width is unconstrained), **inflation**
//! (entry-wise power + column re-normalisation, which sharpens strong flows)
//! and **pruning** (dropping tiny entries to keep the iterate sparse), until
//! the flow matrix converges to cluster attractors.
//!
//! This implementation keeps the flow matrix 1-D row-distributed and runs
//! expansion through [`ts_spgemm`]; inflation needs column sums, which is
//! one AllReduce per iteration.

use crate::checkpoint::Checkpointer;
use crate::msbfs::sequential_msbfs;
use tsgemm_core::colpart::ColBlocks;
use tsgemm_core::dist::DistCsr;
use tsgemm_core::exec::{ts_spgemm, TsConfig};
use tsgemm_net::Comm;

use tsgemm_sparse::{Coo, Csr, Idx, PlusTimesF64};

/// Configuration of an MCL run.
#[derive(Clone, Debug)]
pub struct MclConfig {
    /// Inflation exponent (classic default 2.0; larger → finer clusters).
    pub inflation: f64,
    /// Entries below this (after normalisation) are pruned.
    pub prune_threshold: f64,
    /// Convergence: stop when the iterate changes less than this (max
    /// absolute entry difference), or after `max_iters`.
    pub tolerance: f64,
    pub max_iters: usize,
    pub tag: String,
    /// Persist the flow matrix at every expansion-iteration boundary and
    /// resume from the last iteration all ranks completed. Restarted runs
    /// produce bit-identical labels (MCL draws no randomness). Converged
    /// iterates are not saved, so restarting a finished run re-executes
    /// only its final iteration.
    pub checkpoint: Option<Checkpointer>,
}

impl Default for MclConfig {
    fn default() -> Self {
        Self {
            inflation: 2.0,
            prune_threshold: 1e-4,
            tolerance: 1e-6,
            max_iters: 50,
            tag: "mcl".to_string(),
            checkpoint: None,
        }
    }
}

/// Column-normalises the distributed matrix (makes it column-stochastic):
/// one AllReduce of the `n` column sums per call.
fn column_normalize(comm: &mut Comm, m: &Csr<f64>, n: usize, tag: &str) -> Csr<f64> {
    let mut sums = vec![0.0f64; n];
    for (_, cols, vals) in m.iter_rows() {
        for (&c, &v) in cols.iter().zip(vals) {
            sums[c as usize] += v;
        }
    }
    let sums = comm.allreduce(
        sums,
        |mut x, y| {
            for (a, b) in x.iter_mut().zip(y) {
                *a += b;
            }
            x
        },
        format!("{tag}:colsum"),
    );
    let indptr = m.indptr().to_vec();
    let indices = m.indices().to_vec();
    let mut values = m.values().to_vec();
    for (k, &c) in indices.iter().enumerate() {
        if sums[c as usize] > 0.0 {
            values[k] /= sums[c as usize];
        }
    }
    Csr::from_parts(m.nrows(), m.ncols(), indptr, indices, values)
}

/// Runs distributed MCL on a symmetric graph (self-loops are added, as the
/// classic algorithm prescribes). Returns the per-vertex cluster labels for
/// this rank's rows (labels are global attractor ids, consistent across
/// ranks) and the number of expansion iterations executed.
pub fn mcl(comm: &mut Comm, a: &DistCsr<f64>, cfg: &MclConfig) -> (Vec<Idx>, usize) {
    let dist = a.dist;
    let me = comm.rank();
    let n = dist.n();
    let (my_lo, _) = dist.range(me);

    // M0 = column-normalised (A + I).
    let mut trips: Vec<(Idx, Idx, f64)> = Vec::new();
    for (r, cols, vals) in a.local.iter_rows() {
        for (&c, &v) in cols.iter().zip(vals) {
            trips.push((r as Idx, c, v.abs()));
        }
        trips.push((r as Idx, my_lo + r as Idx, 1.0));
    }
    let mut m = column_normalize(
        comm,
        &Coo::from_entries(a.local_rows(), n, trips).to_csr::<PlusTimesF64>(),
        n,
        &cfg.tag,
    );

    // Resume from the last expansion iteration every rank completed.
    let start_it = match &cfg.checkpoint {
        Some(ck) => match ck.resume_epoch(comm, cfg.max_iters, &format!("{}:ckpt", cfg.tag)) {
            Some(done) => {
                m = ck
                    .load(me, done)
                    .expect("agreed checkpoint iteration must be loadable");
                done + 1
            }
            None => 0,
        },
        None => 0,
    };

    let mut iters = start_it;
    for it in start_it..cfg.max_iters {
        iters = it + 1;
        let m_dist = DistCsr {
            dist,
            rank: me,
            local: m.clone(),
        };
        // Expansion: M ← M·M (square×square through the same schedule).
        let ac = ColBlocks::build::<PlusTimesF64>(comm, &m_dist);
        let tcfg = TsConfig {
            tag: format!("{}:i{it}", cfg.tag),
            ..TsConfig::default()
        };
        let (expanded, _) = ts_spgemm::<PlusTimesF64>(comm, &m_dist, &ac, &m_dist, &tcfg);

        // Inflation + prune + re-normalise.
        let inflate = comm.span(|| format!("{}:i{it}:inflate", cfg.tag));
        let inflated = expanded.map_values(|v| v.powf(cfg.inflation));
        let pruned = inflated.filter(|_, _, v| v >= cfg.prune_threshold);
        inflate.end();
        if comm.trace_on() {
            let dropped = (inflated.nnz() - pruned.nnz()) as u64;
            comm.metrics(|mr| {
                let phase = format!("{}:i{it}", cfg.tag);
                mr.counter_add(&phase, "pruned_nnz", dropped);
                mr.counter_add(&phase, "iterate_nnz", pruned.nnz() as u64);
            });
        }
        let next = column_normalize(comm, &pruned, n, &cfg.tag);

        // Convergence: max |Δ| over the union pattern.
        let mut delta = 0.0f64;
        for r in 0..next.nrows() {
            let (c1, v1) = next.row(r);
            let (c2, v2) = m.row(r);
            let (mut i, mut j) = (0usize, 0usize);
            while i < c1.len() || j < c2.len() {
                if j >= c2.len() || (i < c1.len() && c1[i] < c2[j]) {
                    delta = delta.max(v1[i].abs());
                    i += 1;
                } else if i >= c1.len() || c2[j] < c1[i] {
                    delta = delta.max(v2[j].abs());
                    j += 1;
                } else {
                    delta = delta.max((v1[i] - v2[j]).abs());
                    i += 1;
                    j += 1;
                }
            }
        }
        let global_delta = comm.allreduce(delta, f64::max, format!("{}:delta", cfg.tag));
        m = next;
        if global_delta < cfg.tolerance {
            break;
        }
        // Saved only while unconverged: a restart of a *finished* run then
        // redoes just the final iteration instead of running past it.
        if let Some(ck) = &cfg.checkpoint {
            ck.save(me, it, &m)
                .unwrap_or_else(|e| panic!("rank {me}: checkpoint write failed: {e}"));
        }
    }

    // Interpretation: vertex v belongs to the attractor row with the largest
    // flow into column v. Columns live across ranks, so each rank proposes
    // (weight, attractor) for the columns its rows flow into and an
    // AllReduce takes the max per column.
    let mut best: Vec<(f64, Idx)> = vec![(0.0, Idx::MAX); n];
    for (r, cols, vals) in m.iter_rows() {
        let attractor = my_lo + r as Idx;
        for (&c, &v) in cols.iter().zip(vals) {
            if v > best[c as usize].0 {
                best[c as usize] = (v, attractor);
            }
        }
    }
    let best = comm.allreduce(
        best,
        |mut x, y| {
            for (a, b) in x.iter_mut().zip(y) {
                // Deterministic: larger weight wins, ties to lower id.
                if b.0 > a.0 || (b.0 == a.0 && b.1 < a.1) {
                    *a = b;
                }
            }
            x
        },
        format!("{}:assign", cfg.tag),
    );

    let (lo, hi) = dist.range(me);
    let labels = (lo..hi)
        .map(|v| {
            let (w, att) = best[v as usize];
            if w > 0.0 {
                att
            } else {
                v // isolated vertex: its own cluster
            }
        })
        .collect();
    (labels, iters)
}

/// Reference check helper: do two vertices end in the same cluster?
pub fn same_cluster(labels: &[Idx], u: usize, v: usize) -> bool {
    labels[u] == labels[v]
}

/// Test helper: connected components of a symmetric graph via BFS (each
/// component should map to one or more MCL clusters, never across).
pub fn components(adj: &Csr<bool>) -> Vec<usize> {
    let n = adj.nrows();
    let mut comp = vec![usize::MAX; n];
    let mut next = 0usize;
    for s in 0..n {
        if comp[s] != usize::MAX {
            continue;
        }
        let reach = sequential_msbfs(adj, &[s as Idx]);
        for (v, cv) in comp.iter_mut().enumerate() {
            if reach.get(v, 0).is_some() && *cv == usize::MAX {
                *cv = next;
            }
        }
        next += 1;
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgemm_core::part::BlockDist;
    use tsgemm_net::World;
    use tsgemm_sparse::gen::{erdos_renyi, sbm, symmetrize};
    use tsgemm_sparse::semiring::BoolAndOr;

    fn run_mcl(g: &Coo<f64>, p: usize, cfg: MclConfig) -> (Vec<Idx>, usize) {
        let n = g.nrows();
        let out = World::run(p, |comm| {
            let dist = BlockDist::new(n, p);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(g, dist, comm.rank(), n);
            mcl(comm, &a, &cfg)
        });
        // Concatenate per-rank labels in rank order.
        let mut labels = Vec::with_capacity(n);
        for (l, _) in &out.results {
            labels.extend_from_slice(l);
        }
        (labels, out.results[0].1)
    }

    #[test]
    fn two_cliques_form_two_clusters() {
        let n = 16;
        let mut coo = Coo::new(n, n);
        for a in 0..8u32 {
            for b in 0..8u32 {
                if a != b {
                    coo.push(a, b, 1.0);
                    coo.push(a + 8, b + 8, 1.0);
                }
            }
        }
        let (labels, iters) = run_mcl(&coo, 4, MclConfig::default());
        assert!(iters < 50, "must converge");
        for v in 1..8 {
            assert_eq!(labels[v], labels[0], "clique 1 must be one cluster");
            assert_eq!(labels[v + 8], labels[8], "clique 2 must be one cluster");
        }
        assert_ne!(labels[0], labels[8], "cliques must be separate clusters");
    }

    #[test]
    fn sbm_clusters_align_with_planted_communities() {
        let n = 90;
        let (g, planted) = sbm(n, 3, 12.0, 0.3, 601);
        let g = symmetrize(&g);
        let (labels, _) = run_mcl(&g, 3, MclConfig::default());
        // Majority label per planted community must differ across
        // communities, and most members must carry it.
        let mut agree = 0usize;
        let mut total = 0usize;
        for comm_id in 0..3u32 {
            let members: Vec<usize> = (0..n).filter(|&v| planted[v] == comm_id).collect();
            let mut counts = std::collections::HashMap::new();
            for &v in &members {
                *counts.entry(labels[v]).or_insert(0usize) += 1;
            }
            let (_, &majority) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
            agree += majority;
            total += members.len();
        }
        assert!(
            agree as f64 > 0.8 * total as f64,
            "MCL should recover planted communities ({agree}/{total})"
        );
    }

    #[test]
    fn clusters_never_span_components() {
        // Random graph with several components.
        let n = 60;
        let g = symmetrize(&erdos_renyi(n, 1.2, 602));
        let (labels, _) = run_mcl(&g, 4, MclConfig::default());
        let comp = components(&g.map_values(|_| true).to_csr::<BoolAndOr>());
        // Same MCL cluster => same connected component.
        for u in 0..n {
            for v in (u + 1)..n {
                if labels[u] == labels[v] {
                    assert_eq!(comp[u], comp[v], "cluster spans components at ({u},{v})");
                }
            }
        }
    }

    #[test]
    fn deterministic_across_rank_counts() {
        let n = 40;
        let (g, _) = sbm(n, 2, 10.0, 0.5, 603);
        let g = symmetrize(&g);
        let (l2, _) = run_mcl(&g, 2, MclConfig::default());
        let (l5, _) = run_mcl(&g, 5, MclConfig::default());
        assert_eq!(l2, l5, "clustering must not depend on rank count");
    }
}
