//! Sparse force-directed node embedding (sparse Force2Vec, §IV-B).
//!
//! Each vertex gets a `d`-dimensional **sparse** embedding row of `Z`.
//! Training is synchronous minibatch SGD: for every batch of vertices, the
//! attractive pull of neighbours and the repulsive push of negative-sampled
//! non-neighbours are combined in one force matrix `Ā` (+1 edges, −1
//! negatives, Fig. 4b) and the whole batch gradient is a single TS-SpGEMM
//! `G = Ā · Z` with tile height = batch size (Fig. 4c). After the update,
//! each row is re-sparsified to the target sparsity by keeping its
//! largest-magnitude entries, and normalised.
//!
//! Simplification vs Force2Vec (documented in DESIGN.md §2): the per-edge
//! sigmoid coefficients are folded into constant ±1 spring forces, which
//! keeps the force computation expressible as one semiring SpGEMM (the paper
//! maps the computation the same way) while preserving the experiment's
//! subject: communication volume, remote-tile utilisation, and the
//! accuracy-vs-sparsity trade-off of keeping `Z` sparse.

use crate::checkpoint::Checkpointer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsgemm_core::colpart::ColBlocks;
use tsgemm_core::dist::DistCsr;
use tsgemm_core::exec::{ts_spgemm, TsConfig};
use tsgemm_core::mode::ModePolicy;
use tsgemm_core::sddmm::{dist_sddmm, SddmmConfig};
use tsgemm_net::Comm;
use tsgemm_sparse::ewise::union;
use tsgemm_sparse::gen::random_tall;
use tsgemm_sparse::sparsify::sparsify_to;
use tsgemm_sparse::{Coo, Csr, Idx, PlusTimesF64};

/// How per-edge force coefficients are computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ForceModel {
    /// Constant ±1 spring forces: one TS-SpGEMM per batch (the fast,
    /// simplified model; DESIGN.md §2).
    #[default]
    Spring,
    /// Force2Vec's sigmoid-scaled forces, computed exactly with a
    /// distributed SDDMM (σ(∓⟨z_r, z_c⟩) per edge/negative) followed by the
    /// TS-SpGEMM — the FusedMM decomposition (paper ref \[53\]).
    Sigmoid,
}

/// Configuration of a sparse-embedding run.
#[derive(Clone, Debug)]
pub struct EmbedConfig {
    /// Embedding dimension (Table IV default: 128).
    pub d: usize,
    /// Target sparsity of `Z` (fraction of zeros per row; Fig. 13 sweeps it).
    pub target_sparsity: f64,
    pub epochs: usize,
    /// Minibatch size; `None` = `0.5 · n/p` (§V-G).
    pub batch: Option<usize>,
    /// Learning rate (Table IV default: 0.02).
    pub lr: f64,
    /// Negative samples per batch vertex.
    pub neg_samples: usize,
    /// Local/remote tile policy for the batch multiplies.
    pub policy: ModePolicy,
    /// Per-edge coefficient model.
    pub force: ForceModel,
    pub seed: u64,
    pub tag: String,
    /// Persist `Z` at every epoch boundary and resume from the last epoch
    /// all ranks completed. Restarted runs are bit-identical to
    /// uninterrupted ones (the RNG is reseeded per epoch).
    pub checkpoint: Option<Checkpointer>,
}

impl Default for EmbedConfig {
    fn default() -> Self {
        Self {
            d: 128,
            target_sparsity: 0.8,
            epochs: 5,
            batch: None,
            lr: 0.02,
            neg_samples: 4,
            policy: ModePolicy::Hybrid,
            force: ForceModel::Spring,
            seed: 7,
            tag: "embed".to_string(),
            checkpoint: None,
        }
    }
}

/// Decorrelated per-(seed, rank, epoch) RNG seed. Seeding per epoch — not
/// once per run — is what makes checkpoint restarts bit-identical: epoch `e`
/// draws the same negative samples whether or not epochs `0..e` ran in this
/// process.
fn epoch_seed(seed: u64, rank: usize, epoch: usize) -> u64 {
    let mut z = seed
        ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (epoch as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

tsgemm_net::stats_struct! {
    /// Per-epoch statistics (this rank; aggregate across ranks in the
    /// harness), recorded under `{phase}:e{epoch}`. A cross-rank merge of
    /// the same epoch sums the sub-tile counts and block nnz to their
    /// global totals.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct EmbedEpochStats {
        pub epoch: usize => key("e"),
        /// Sub-tiles this rank served in local mode across the epoch's batches.
        pub local_subtiles: u64 => sum,
        /// Sub-tiles served in remote mode (Fig. 13d numerator).
        pub remote_subtiles: u64 => sum,
        /// nnz of the local `Z` block at epoch end.
        pub z_nnz: u64 => sum,
    }
}

fn normalize_rows(z: &Csr<f64>) -> Csr<f64> {
    let mut scale = vec![1.0f64; z.nrows()];
    for (r, _, vals) in z.iter_rows() {
        let norm = vals.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 1e-12 {
            scale[r] = 1.0 / norm;
        }
    }
    let indptr = z.indptr().to_vec();
    let mut values = z.values().to_vec();
    for r in 0..z.nrows() {
        for v in &mut values[indptr[r]..indptr[r + 1]] {
            *v *= scale[r];
        }
    }
    Csr::from_parts(z.nrows(), z.ncols(), indptr, z.indices().to_vec(), values)
}

/// Trains a sparse embedding; returns this rank's rows of `Z` and per-epoch
/// statistics. `a` should be a symmetric graph with positive edge values.
pub fn sparse_embed(
    comm: &mut Comm,
    a: &DistCsr<f64>,
    cfg: &EmbedConfig,
) -> (Csr<f64>, Vec<EmbedEpochStats>) {
    let me = comm.rank();
    let dist = a.dist;
    let n = dist.n();
    let (my_lo, my_hi) = dist.range(me);
    let my_rows = (my_hi - my_lo) as usize;
    let block = dist.block().max(1);
    let batch = cfg.batch.unwrap_or((block / 2).max(1)).max(1);
    let n_batches = block.div_ceil(batch);

    // Initial sparse embedding for the local rows: zero-mean values (the
    // generator emits (0.5, 1.5]; centering stops every pair of vertices
    // from starting with the same large positive similarity).
    let mut z = normalize_rows(
        &random_tall(
            my_rows,
            cfg.d,
            cfg.target_sparsity,
            cfg.seed ^ (me as u64 + 1),
        )
        .map_values(|v| v - 1.0)
        .to_csr::<PlusTimesF64>(),
    );

    // Resume from the last epoch every rank completed (a collective: all
    // ranks must agree on the restart point).
    let start_epoch = match &cfg.checkpoint {
        Some(ck) => match ck.resume_epoch(comm, cfg.epochs, &format!("{}:ckpt", cfg.tag)) {
            Some(done) => {
                z = ck
                    .load(me, done)
                    .expect("agreed checkpoint epoch must be loadable");
                done + 1
            }
            None => 0,
        },
        None => 0,
    };

    let mut stats = Vec::with_capacity(cfg.epochs);
    for epoch in start_epoch..cfg.epochs {
        let mut rng = StdRng::seed_from_u64(epoch_seed(cfg.seed, me, epoch));
        let mut ep = EmbedEpochStats {
            epoch,
            ..EmbedEpochStats::default()
        };
        for t in 0..n_batches {
            // Batch rows (global), clamped to this rank's block.
            let blo = (my_lo as usize + t * batch).min(my_hi as usize) as Idx;
            let bhi = (my_lo as usize + (t + 1) * batch).min(my_hi as usize) as Idx;

            // Force matrix Ā: +1 neighbour edges of the batch rows, −1
            // negative samples (Fig. 4b), rows outside the batch empty.
            let mut trips: Vec<(Idx, Idx, f64)> = Vec::new();
            for g in blo..bhi {
                let (cols, _) = a.global_row(g);
                let l = (g - my_lo) as Idx;
                for &c in cols {
                    trips.push((l, c, 1.0));
                }
                let repulse = if cols.is_empty() { 0 } else { cfg.neg_samples };
                // Repulsion balances attraction in aggregate (Force2Vec's
                // sigmoid saturation has the same effect): each of the `ns`
                // negatives carries deg/ns of negative weight, so the net
                // pull towards the global mean is bounded and embeddings
                // cannot collapse to one direction.
                let neg_weight = -(cols.len() as f64) / repulse.max(1) as f64;
                for _ in 0..repulse {
                    let u = rng.random_range(0..n) as Idx;
                    trips.push((l, u, neg_weight));
                }
            }
            let mut force = DistCsr {
                dist,
                rank: me,
                local: Coo::from_entries(my_rows, n, trips).to_csr::<PlusTimesF64>(),
            };

            // Negatives change per batch, so the column copy is rebuilt —
            // this is the batch's setup AllToAllv.
            let mut ac = ColBlocks::build::<PlusTimesF64>(comm, &force);
            let zdist = DistCsr {
                dist,
                rank: me,
                local: z.clone(),
            };

            if cfg.force == ForceModel::Sigmoid {
                // Exact Force2Vec coefficients: an SDDMM evaluates
                // σ(∓⟨z_r, z_c⟩) on every edge/negative, scaled by the
                // weight already stored in the force pattern.
                let scfg = SddmmConfig {
                    tile_height: Some(batch),
                    tag: format!("{}:e{epoch}:sddmm", cfg.tag),
                    ..SddmmConfig::default()
                };
                let (coeffs, _) = dist_sddmm(comm, &force, &ac, &zdist, &scfg, |sv, dot| {
                    if sv > 0.0 {
                        sv / (1.0 + dot.exp()) // attraction: σ(−dot)
                    } else {
                        sv / (1.0 + (-dot).exp()) // repulsion: −w·σ(dot)
                    }
                });
                force = DistCsr {
                    dist,
                    rank: me,
                    local: coeffs,
                };
                // The remote-mode multiply reads coefficient values from
                // the column copy, so it must be rebuilt.
                ac = ColBlocks::build::<PlusTimesF64>(comm, &force);
            }

            let tcfg = TsConfig {
                tile_height: Some(batch),
                policy: cfg.policy,
                tag: format!("{}:e{epoch}", cfg.tag),
                ..TsConfig::default()
            };
            let (grad, tstats) = ts_spgemm::<PlusTimesF64>(comm, &force, &ac, &zdist, &tcfg);
            ep.local_subtiles += tstats.local_subtiles;
            ep.remote_subtiles += tstats.remote_subtiles;

            // SGD step on the batch rows, then re-sparsify and normalise.
            let step = grad.map_values(|v| v * cfg.lr);
            z = union::<PlusTimesF64>(&z, &step);
            z = normalize_rows(&sparsify_to(&z, cfg.target_sparsity));
        }
        ep.z_nnz = z.nnz() as u64;
        if comm.trace_on() {
            use tsgemm_net::Metrics;
            comm.metrics(|m| m.merge(&ep.registry(&cfg.tag)));
        }
        if let Some(ck) = &cfg.checkpoint {
            ck.save(me, epoch, &z)
                .unwrap_or_else(|e| panic!("rank {me}: checkpoint write failed: {e}"));
        }
        stats.push(ep);
    }
    (z, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgemm_core::part::BlockDist;
    use tsgemm_net::World;
    use tsgemm_sparse::gen::{erdos_renyi, sbm, symmetrize};
    use tsgemm_sparse::sparsify::sparsity;

    #[test]
    fn normalize_rows_unit_norm() {
        let z = Coo::from_entries(2, 3, vec![(0, 0, 3.0), (0, 2, 4.0), (1, 1, 0.5)])
            .to_csr::<PlusTimesF64>();
        let nz = normalize_rows(&z);
        let (_, v0) = nz.row(0);
        let norm0: f64 = v0.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm0 - 1.0).abs() < 1e-12);
        assert_eq!(nz.get(1, 1), Some(1.0));
    }

    #[test]
    fn embedding_respects_target_sparsity() {
        let n = 64;
        let d = 16;
        let g = symmetrize(&erdos_renyi(n, 4.0, 201));
        let out = World::run(4, |comm| {
            let dist = BlockDist::new(n, 4);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(&g, dist, comm.rank(), n);
            let cfg = EmbedConfig {
                d,
                target_sparsity: 0.75,
                epochs: 2,
                neg_samples: 2,
                ..EmbedConfig::default()
            };
            let (z, stats) = sparse_embed(comm, &a, &cfg);
            (sparsity(&z), z.nrows(), stats)
        });
        for (s, rows, stats) in &out.results {
            if *rows > 0 {
                assert!(*s >= 0.74, "Z must stay near target sparsity, got {s}");
            }
            assert_eq!(stats.len(), 2);
        }
    }

    #[test]
    fn embedding_is_deterministic_given_seed() {
        let n = 32;
        let g = symmetrize(&erdos_renyi(n, 3.0, 202));
        let run = || {
            let out = World::run(2, |comm| {
                let dist = BlockDist::new(n, 2);
                let a = DistCsr::from_global_coo::<PlusTimesF64>(&g, dist, comm.rank(), n);
                let cfg = EmbedConfig {
                    d: 8,
                    epochs: 1,
                    ..EmbedConfig::default()
                };
                sparse_embed(comm, &a, &cfg).0
            });
            out.results
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn neighbours_end_up_closer_than_strangers() {
        // SBM with strong communities: average dot product between adjacent
        // pairs should exceed that of random cross-community pairs.
        let n = 120;
        let (g, labels) = sbm(n, 3, 10.0, 0.5, 203);
        let out = World::run(4, |comm| {
            let dist = BlockDist::new(n, 4);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(&g, dist, comm.rank(), n);
            let cfg = EmbedConfig {
                d: 16,
                target_sparsity: 0.5,
                epochs: 6,
                lr: 0.05,
                neg_samples: 3,
                ..EmbedConfig::default()
            };
            let (z, _) = sparse_embed(comm, &a, &cfg);
            let zd = DistCsr {
                dist,
                rank: comm.rank(),
                local: z,
            };
            zd.gather_global::<PlusTimesF64>(comm)
        });
        let z = &out.results[0];
        let dot = |u: usize, v: usize| -> f64 {
            let (cu, vu) = z.row(u);
            let (cv, vv) = z.row(v);
            let (mut i, mut j, mut s) = (0usize, 0usize, 0.0);
            while i < cu.len() && j < cv.len() {
                if cu[i] < cv[j] {
                    i += 1;
                } else if cv[j] < cu[i] {
                    j += 1;
                } else {
                    s += vu[i] * vv[j];
                    i += 1;
                    j += 1;
                }
            }
            s
        };
        let gm = g.to_csr::<PlusTimesF64>();
        let mut same = 0.0;
        let mut same_n = 0;
        let mut cross = 0.0;
        let mut cross_n = 0;
        for (r, cols, _) in gm.iter_rows() {
            for &c in cols.iter().take(2) {
                same += dot(r, c as usize);
                same_n += 1;
            }
        }
        for v in 0..n {
            let u = (v + n / 3 + 1) % n;
            if labels[v] != labels[u] {
                cross += dot(v, u);
                cross_n += 1;
            }
        }
        let same_avg = same / same_n.max(1) as f64;
        let cross_avg = cross / cross_n.max(1) as f64;
        assert!(
            same_avg > cross_avg,
            "neighbours ({same_avg:.4}) must score above strangers ({cross_avg:.4})"
        );
    }

    #[test]
    fn sigmoid_forces_train_and_separate_communities() {
        let n = 150;
        let (g, labels) = sbm(n, 3, 10.0, 0.5, 205);
        let g = symmetrize(&g);
        let out = World::run(3, |comm| {
            let dist = BlockDist::new(n, 3);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(&g, dist, comm.rank(), n);
            let cfg = EmbedConfig {
                d: 16,
                target_sparsity: 0.5,
                epochs: 8,
                lr: 0.2,
                neg_samples: 3,
                force: ForceModel::Sigmoid,
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
        let z = &out.results[0];
        assert_eq!(z.nrows(), n);
        assert!(z.nnz() > 0, "sigmoid training must produce a nonempty Z");
        // Same-community pairs should score above cross-community pairs.
        let dot = |u: usize, v: usize| crate::linkpred::row_dot(z, u as Idx, v as Idx);
        let (mut same, mut cross, mut ns, mut nc) = (0.0, 0.0, 0, 0);
        for v in 0..n {
            let u = (v + 3) % n; // same community (labels repeat mod 3)
            let w = (v + 4) % n; // different community
            if labels[v] == labels[u] {
                same += dot(v, u);
                ns += 1;
            }
            if labels[v] != labels[w] {
                cross += dot(v, w);
                nc += 1;
            }
        }
        assert!(
            same / ns.max(1) as f64 > cross / nc.max(1) as f64,
            "sigmoid forces must separate communities"
        );
    }

    #[test]
    fn sigmoid_and_spring_produce_same_sparsity_structure() {
        let n = 48;
        let g = symmetrize(&erdos_renyi(n, 4.0, 206));
        let run = |force: ForceModel| {
            World::run(2, |comm| {
                let dist = BlockDist::new(n, 2);
                let a = DistCsr::from_global_coo::<PlusTimesF64>(&g, dist, comm.rank(), n);
                let cfg = EmbedConfig {
                    d: 8,
                    target_sparsity: 0.5,
                    epochs: 2,
                    force,
                    ..EmbedConfig::default()
                };
                sparse_embed(comm, &a, &cfg).0.nnz()
            })
            .results
        };
        // Both models keep Z at the same target sparsity.
        assert_eq!(run(ForceModel::Spring), run(ForceModel::Sigmoid));
    }

    #[test]
    fn remote_tiles_appear_in_minibatch_setting() {
        // Small tile height (= batch) is the regime where remote compute
        // pays off (Fig. 4c discussion / Fig. 13d).
        let n = 96;
        let g = symmetrize(&erdos_renyi(n, 8.0, 204));
        let out = World::run(4, |comm| {
            let dist = BlockDist::new(n, 4);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(&g, dist, comm.rank(), n);
            let cfg = EmbedConfig {
                d: 16,
                target_sparsity: 0.9,
                epochs: 1,
                batch: Some(4),
                ..EmbedConfig::default()
            };
            sparse_embed(comm, &a, &cfg).1
        });
        let remote: u64 = out
            .results
            .iter()
            .flat_map(|s| s.iter())
            .map(|e| e.remote_subtiles)
            .sum();
        let local: u64 = out
            .results
            .iter()
            .flat_map(|s| s.iter())
            .map(|e| e.local_subtiles)
            .sum();
        assert!(local + remote > 0);
        assert!(remote > 0, "minibatch tiling should trigger remote tiles");
    }
}
