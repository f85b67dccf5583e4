//! Tile-mode selection (§III-D): the communication-free symbolic step.
//!
//! For every sub-tile, the rank that owns the matching `B` rows (it also
//! holds the sub-tile inside its `A^c` block) compares the two ways the
//! sub-tile's contribution could be realised:
//!
//! * **local** mode — ship the needed `B` rows to the tile owner, who
//!   multiplies (cost ∝ `nnz(B needed)`);
//! * **remote** mode — multiply here and ship the partial `C` rows back
//!   (cost ∝ `nnz(C partial)`, counted by a symbolic SpGEMM).
//!
//! Whichever moves fewer nonzeros wins (remote only when strictly fewer,
//! matching the paper's "only works when the number of output nonzeros ...
//! is less than the number of nonzeros required from B"). Diagonal
//! sub-tiles (tile owner == B owner) never communicate. The decisions are
//! then shared with tile owners in one tiny AllToAll of flags.
//!
//! While `d ≤ 1024` (the SPA regime) the symbolic count runs on bit rows:
//! each band row ORs the pattern bits of the `B` rows it selects, and a
//! popcount gives its output nonzeros. Wider outputs materialise the
//! sub-tile and run a symbolic SpGEMM.

use crate::colpart::Trip;
use crate::dist::DistCsr;
use crate::tiling::{needed_rows, subtile_csr, TileBuckets, Tiling};
use tsgemm_net::{Comm, FlightEventKind};
use tsgemm_sparse::bits::or_words;
use tsgemm_sparse::semiring::Semiring;
use tsgemm_sparse::spgemm::{spgemm_symbolic, SPA_WIDTH_THRESHOLD};
use tsgemm_sparse::{BitRows, Csr, Idx};

/// How a sub-tile's contribution is computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TileMode {
    /// `B` rows move to the tile owner; multiply happens there.
    Local,
    /// Multiply happens at the `B` owner; partial `C` rows move back.
    Remote,
}

/// Mode-selection policy (`X` in Alg. 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ModePolicy {
    /// Per-sub-tile cost comparison — the paper's algorithm.
    #[default]
    Hybrid,
    /// Every sub-tile local (the Fig. 6 "local mode" ablation).
    LocalOnly,
    /// Every sub-tile remote (ablation).
    RemoteOnly,
}

/// Outcome of the symbolic step on one rank.
pub struct Modes {
    /// Modes of the sub-tiles this rank serves: one row of `p` entries per
    /// tile step (`rb · n_col_bands + cb`), indexed by tile owner. `None`
    /// where this rank serves no sub-tile of that owner (always for itself).
    serve: Vec<Option<TileMode>>,
    /// Modes of this rank's own sub-tiles, laid out like `serve` but indexed
    /// by serving rank. `None` where that rank serves no sub-tile of the
    /// step (always on the diagonal).
    own: Vec<Option<TileMode>>,
    n_col_bands: usize,
    p: usize,
    /// Count of sub-tiles this rank serves in local mode.
    pub n_local: u64,
    /// Count served in remote mode.
    pub n_remote: u64,
    /// Count of this rank's diagonal sub-tiles (no communication).
    pub n_diag: u64,
}

impl Modes {
    fn row<'a>(
        &self,
        modes: &'a [Option<TileMode>],
        rb: usize,
        cb: usize,
    ) -> &'a [Option<TileMode>] {
        let step = rb * self.n_col_bands + cb;
        &modes[step * self.p..(step + 1) * self.p]
    }

    /// Modes of this rank's sub-tiles in step `(rb, cb)`, indexed by the
    /// serving rank.
    pub fn own(&self, rb: usize, cb: usize) -> &[Option<TileMode>] {
        self.row(&self.own, rb, cb)
    }

    /// Modes of the sub-tiles this rank serves in step `(rb, cb)`, indexed
    /// by the tile owner.
    pub fn serve(&self, rb: usize, cb: usize) -> &[Option<TileMode>] {
        self.row(&self.serve, rb, cb)
    }
}

/// Total `nnz` of the local `B` rows a sub-tile needs.
fn needed_b_nnz<T: Copy, U: Copy>(
    bucket: &[(Idx, Idx, T)],
    b_local: &tsgemm_sparse::Csr<U>,
) -> u64 {
    needed_rows(bucket)
        .map(|k| b_local.row_nnz(k as usize) as u64)
        .sum()
}

/// Counts what a sub-tile times the local `B` block produces: its output
/// nonzeros (the partial-C entries a remote-mode sub-tile ships) and its
/// products. Both counts are those of [`spgemm_symbolic`].
///
/// Up to [`SPA_WIDTH_THRESHOLD`] columns it ORs pattern bits; above, it
/// runs [`spgemm_symbolic`] on the sub-tile. The fallback bounds memory,
/// not time: the pattern bits take `⌈d/64⌉` words for every `B` row and
/// band row however sparse they are, which grows without limit with `d`.
/// The cutoff is the SPA's, so the regime matches the owner's bit path; it
/// was not measured as the speed crossover of the two counts.
struct ProducedCount<'a, T> {
    b: &'a Csr<T>,
    /// With at most [`SPA_WIDTH_THRESHOLD`] columns: `B`'s pattern bits,
    /// built at the first count, and one row of words per band row.
    bits: Option<(BitRows, Vec<u64>)>,
}

impl<'a, T: Copy> ProducedCount<'a, T> {
    fn new(b: &'a Csr<T>) -> Self {
        Self { b, bits: None }
    }

    /// `(nnz, products)` of the sub-tile `bucket` (rows of the band that
    /// starts at global row `band_lo` and holds `band_rows` rows).
    fn count(&mut self, bucket: &[(Idx, Idx, T)], band_lo: Idx, band_rows: usize) -> (u64, u64) {
        let b = self.b;
        if b.ncols() > SPA_WIDTH_THRESHOLD {
            let tile = subtile_csr(bucket, band_lo, band_rows, b.nrows());
            let produced = spgemm_symbolic(&tile, b);
            return (produced.nnz() as u64, produced.flops);
        }
        let (pattern, rows) = self
            .bits
            .get_or_insert_with(|| (BitRows::from_pattern(b), Vec::new()));
        let stride = b.ncols().div_ceil(64);
        if rows.len() < band_rows * stride {
            rows.resize(band_rows * stride, 0);
        }
        let row = |r: Idx| (r - band_lo) as usize * stride..(r - band_lo + 1) as usize * stride;
        let mut flops = 0;
        // Bucket entries come in runs of one column, i.e. one `B` row.
        for run in bucket.chunk_by(|x, y| x.1 == y.1) {
            let k = run[0].1 as usize;
            flops += (b.row_nnz(k) * run.len()) as u64;
            for &(r, _, _) in run {
                or_words(&mut rows[row(r)], pattern.row(k));
            }
        }
        // A row's first visit takes its count and clears it for the next
        // sub-tile; any later visit finds it empty.
        let mut nnz = 0;
        for &(r, _, _) in bucket {
            for w in &mut rows[row(r)] {
                nnz += std::mem::take(w).count_ones() as u64;
            }
        }
        (nnz, flops)
    }
}

/// Runs the symbolic step and the mode-exchange AllToAll.
///
/// `buckets` is the per-sub-tile view of this rank's `A^c` block; `b` is the
/// local `B` row block (its rows are exactly the `B` rows this rank serves).
/// Sub-tiles are decided in (step, owner) order, so the flight events and
/// the `:modes` messages are the same on every run.
pub fn decide_modes<S: Semiring>(
    comm: &mut Comm,
    tiling: &Tiling,
    buckets: &TileBuckets<S::T>,
    b: &DistCsr<S::T>,
    policy: ModePolicy,
    tag_prefix: &str,
) -> Modes {
    let p = comm.size();
    let (mut modes, sends) = decide::<S>(comm, tiling, buckets, b, policy, tag_prefix);
    let received = comm.alltoallv(sends, format!("{tag_prefix}:modes"));
    let own = &mut modes.own;
    own.resize(tiling.steps() * p, None);
    for (j, msgs) in received.into_iter().enumerate() {
        for (rb, cb, m) in msgs {
            let mode = if m == TileMode::Remote as u8 {
                TileMode::Remote
            } else {
                TileMode::Local
            };
            let step = rb as usize * tiling.n_col_bands + cb as usize;
            own[step * p + j] = Some(mode);
        }
    }
    modes
}

/// `(rb, cb, mode)` messages for each tile owner: the `:modes` payload.
type ModeMsgs = Vec<Vec<(u32, u32, u8)>>;

/// The symbolic pass of [`decide_modes`]: decides every non-empty sub-tile
/// this rank serves, in (step, owner) order. Returns the modes without
/// `own`, which the exchange fills, and the messages to post.
fn decide<S: Semiring>(
    comm: &mut Comm,
    tiling: &Tiling,
    buckets: &TileBuckets<S::T>,
    b: &DistCsr<S::T>,
    policy: ModePolicy,
    tag_prefix: &str,
) -> (Modes, ModeMsgs) {
    let me = comm.rank();
    let p = comm.size();
    let trace = comm.trace_on();
    let trip_bytes = std::mem::size_of::<Trip<S::T>>() as u64;
    let mut serve = vec![None; tiling.steps() * p];
    let mut n_local = 0u64;
    let mut n_remote = 0u64;
    let mut n_diag = 0u64;
    // Bytes this rank's serving decisions predict it will send on the
    // multiply-phase collectives (the `tests/comm_volume.rs` invariant:
    // both counts are exact, not estimates).
    let mut predicted_bfetch = 0u64;
    let mut predicted_cret = 0u64;
    let mut sends: ModeMsgs = (0..p).map(|_| Vec::new()).collect();
    // Drop-guard: the span closes even if a future edit adds an early return
    // from the symbolic loop. The closure only runs when tracing is on.
    let symbolic_span = comm.span(|| format!("{tag_prefix}:symbolic"));
    let mut produced = ProducedCount::new(&b.local);

    for ((i, rb, cb), bucket) in buckets.iter() {
        if i == me {
            n_diag += 1;
            continue;
        }
        // nnz the exec phase will pack as partial-C triplets if this
        // sub-tile goes remote. Exact because the numeric kernel never
        // produces explicit zeros here (⊕-cancellation would require them).
        let mut produced_nnz = |comm: &mut Comm| {
            let (band_lo, band_hi) = tiling.band_range(i, rb as usize);
            let (nnz, flops) = produced.count(bucket, band_lo, (band_hi - band_lo) as usize);
            comm.add_flops(flops);
            nnz
        };
        let mode = match policy {
            ModePolicy::LocalOnly => {
                if trace {
                    predicted_bfetch += needed_b_nnz(bucket, &b.local) * trip_bytes;
                }
                TileMode::Local
            }
            ModePolicy::RemoteOnly => {
                if trace {
                    predicted_cret += produced_nnz(comm) * trip_bytes;
                }
                TileMode::Remote
            }
            ModePolicy::Hybrid => {
                let needed = needed_b_nnz(bucket, &b.local);
                if needed == 0 {
                    // Nothing would move either way; keep it local (no-op).
                    TileMode::Local
                } else {
                    let produced = produced_nnz(comm);
                    if produced < needed {
                        predicted_cret += produced * trip_bytes;
                        TileMode::Remote
                    } else {
                        predicted_bfetch += needed * trip_bytes;
                        TileMode::Local
                    }
                }
            }
        };
        match mode {
            TileMode::Local => n_local += 1,
            TileMode::Remote => n_remote += 1,
        }
        comm.flight_record(
            tag_prefix,
            FlightEventKind::TileMode {
                rb,
                cb,
                peer: i as u32,
                remote: mode == TileMode::Remote,
            },
        );
        let step = rb as usize * tiling.n_col_bands + cb as usize;
        serve[step * p + i] = Some(mode);
        sends[i].push((rb, cb, mode as u8));
    }
    symbolic_span.end();

    if trace {
        comm.metrics(|m| {
            m.counter_add(
                &format!("{tag_prefix}:bfetch"),
                "predicted_bytes",
                predicted_bfetch,
            );
            m.counter_add(
                &format!("{tag_prefix}:cret"),
                "predicted_bytes",
                predicted_cret,
            );
        });
    }

    let modes = Modes {
        serve,
        own: Vec::new(),
        n_col_bands: tiling.n_col_bands,
        p,
        n_local,
        n_remote,
        n_diag,
    };
    (modes, sends)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colpart::ColBlocks;
    use crate::part::BlockDist;
    use tsgemm_net::World;
    use tsgemm_sparse::gen::{erdos_renyi, random_tall};
    use tsgemm_sparse::{Coo, PlusTimesF64};

    fn setup(
        comm: &mut Comm,
        n: usize,
        acoo: &Coo<f64>,
        bcoo: &Coo<f64>,
        d: usize,
        tiling_of: impl Fn(BlockDist) -> Tiling,
    ) -> (Tiling, TileBuckets<f64>, DistCsr<f64>) {
        let p = comm.size();
        let dist = BlockDist::new(n, p);
        let a = DistCsr::from_global_coo::<PlusTimesF64>(acoo, dist, comm.rank(), n);
        let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
        let b = DistCsr::from_global_coo::<PlusTimesF64>(bcoo, dist, comm.rank(), d);
        let tiling = tiling_of(dist);
        let buckets = TileBuckets::build(&ac, &tiling);
        (tiling, buckets, b)
    }

    #[test]
    fn serve_and_own_are_mirror_images() {
        let n = 48;
        let d = 8;
        let acoo = erdos_renyi(n, 4.0, 3);
        let bcoo = random_tall(n, d, 0.5, 4);
        let short_narrow = |dist| Tiling::new(dist, 5, 12);
        let out = World::run(4, |comm| {
            let (tiling, buckets, b) = setup(comm, n, &acoo, &bcoo, d, short_narrow);
            let modes =
                decide_modes::<PlusTimesF64>(comm, &tiling, &buckets, &b, ModePolicy::Hybrid, "t");
            (tiling, modes)
        });
        let tiling = out.results[0].0;
        assert!(tiling.steps() > 1, "the mirror must hold across steps");
        // Rank j serves (i, rb, cb) exactly when i receives (rb, cb) from j,
        // with the same mode.
        for rb in 0..tiling.n_row_bands {
            for cb in 0..tiling.n_col_bands {
                for (j, (_, server)) in out.results.iter().enumerate() {
                    for (i, (_, owner)) in out.results.iter().enumerate() {
                        assert_eq!(
                            server.serve(rb, cb)[i],
                            owner.own(rb, cb)[j],
                            "({rb},{cb}) owned by {i}, served by {j}"
                        );
                    }
                }
            }
        }
        let total_serve: usize = out
            .results
            .iter()
            .map(|(_, m)| m.serve.iter().flatten().count())
            .sum();
        assert!(total_serve > 0);
    }

    #[test]
    fn policies_force_modes() {
        let n = 32;
        let d = 4;
        let acoo = erdos_renyi(n, 5.0, 8);
        let bcoo = random_tall(n, d, 0.5, 9);
        for (policy, expect_local, expect_remote) in [
            (ModePolicy::LocalOnly, true, false),
            (ModePolicy::RemoteOnly, false, true),
        ] {
            let out = World::run(4, |comm| {
                let (tiling, buckets, b) = setup(comm, n, &acoo, &bcoo, d, Tiling::default_for);
                let modes = decide_modes::<PlusTimesF64>(comm, &tiling, &buckets, &b, policy, "t");
                (modes.n_local, modes.n_remote)
            });
            let local: u64 = out.results.iter().map(|r| r.0).sum();
            let remote: u64 = out.results.iter().map(|r| r.1).sum();
            assert_eq!(local > 0, expect_local, "{policy:?}");
            assert_eq!(remote > 0, expect_remote, "{policy:?}");
        }
    }

    #[test]
    fn hybrid_picks_remote_for_dense_tile_sparse_output() {
        // One very dense A row on rank 1's tile needing many B rows from
        // rank 0, but producing few C nonzeros (B nearly empty): remote wins.
        let n = 16;
        let d = 4;
        let mut acoo = Coo::new(n, n);
        // Rank 1 (rows 8..16) row 8 is dense across rank 0's columns 0..8.
        for c in 0..8 {
            acoo.push(8, c, 1.0);
        }
        // B rows 0..8 (owned by rank 0) each hold the full row of d entries
        // in the SAME columns -> output row has only d distinct nonzeros but
        // needs 8*d B nonzeros: produced (4) < needed (32) => Remote.
        let mut bcoo = Coo::new(n, d);
        for r in 0..8 {
            for c in 0..d {
                bcoo.push(r, c as Idx, 1.0);
            }
        }
        let out = World::run(2, |comm| {
            let (tiling, buckets, b) = setup(comm, n, &acoo, &bcoo, d, Tiling::default_for);
            let modes =
                decide_modes::<PlusTimesF64>(comm, &tiling, &buckets, &b, ModePolicy::Hybrid, "t");
            (comm.rank(), modes.n_remote, modes.n_local)
        });
        // Rank 0 serves the sub-tile and must have marked it remote.
        assert_eq!(out.results[0].1, 1, "dense-row sub-tile must go remote");
    }

    #[test]
    fn hybrid_picks_local_for_sparse_tile_dense_output() {
        // A single A entry fans one B row of d entries out to one C row:
        // needed (d nnz of one B row) vs produced (d) -> not strictly fewer,
        // stays local. With 2 tile entries in distinct rows sharing one B
        // row, produced (2d) > needed (d): local clearly wins.
        let n = 8;
        let d = 4;
        let mut acoo = Coo::new(n, n);
        acoo.push(4, 0, 1.0);
        acoo.push(5, 0, 1.0);
        let mut bcoo = Coo::new(n, d);
        for c in 0..d {
            bcoo.push(0, c as Idx, 1.0);
        }
        let out = World::run(2, |comm| {
            let (tiling, buckets, b) = setup(comm, n, &acoo, &bcoo, d, Tiling::default_for);
            let modes =
                decide_modes::<PlusTimesF64>(comm, &tiling, &buckets, &b, ModePolicy::Hybrid, "t");
            (modes.n_remote, modes.n_local)
        });
        assert_eq!(out.results[0], (0, 1), "fan-out sub-tile must stay local");
    }

    #[test]
    fn diagonal_subtiles_are_counted_not_exchanged() {
        let n = 24;
        let d = 4;
        let acoo = erdos_renyi(n, 6.0, 5);
        let bcoo = random_tall(n, d, 0.25, 6);
        let out = World::run(3, |comm| {
            let (tiling, buckets, b) = setup(comm, n, &acoo, &bcoo, d, Tiling::default_for);
            let modes =
                decide_modes::<PlusTimesF64>(comm, &tiling, &buckets, &b, ModePolicy::Hybrid, "t");
            let me = comm.rank();
            let has_self_serve = modes.serve.chunks(modes.p).any(|step| step[me].is_some());
            let has_self_own = modes.own.chunks(modes.p).any(|step| step[me].is_some());
            (modes.n_diag, has_self_serve, has_self_own)
        });
        for (n_diag, self_serve, self_own) in out.results {
            assert!(n_diag > 0, "ER diagonal blocks are dense enough");
            assert!(!self_serve && !self_own, "diagonal must not be exchanged");
        }
    }

    #[test]
    fn bit_row_counts_equal_the_symbolic_spgemm() {
        // Each sub-tile of a short, narrow tiling, counted on bit rows
        // (d ≤ 1024, word boundaries included) and by a symbolic SpGEMM
        // (d > 1024) against that SpGEMM itself.
        let n = 48;
        let acoo = erdos_renyi(n, 6.0, 21);
        for d in [1, 63, 64, 65, 130, 1024, 1025] {
            let bcoo = random_tall(n, d, if d < 8 { 0.0 } else { 0.9 }, 22 + d as u64);
            World::run(3, |comm| {
                let (tiling, buckets, b) =
                    setup(comm, n, &acoo, &bcoo, d, |dist| Tiling::new(dist, 5, 12));
                let mut produced = ProducedCount::new(&b.local);
                let mut counted = 0;
                for ((i, rb, _), bucket) in buckets.iter() {
                    let (lo, hi) = tiling.band_range(i, rb as usize);
                    let tile = subtile_csr(bucket, lo, (hi - lo) as usize, b.local.nrows());
                    let want = spgemm_symbolic(&tile, &b.local);
                    let got = produced.count(bucket, lo, (hi - lo) as usize);
                    assert_eq!(
                        got,
                        (want.nnz() as u64, want.flops),
                        "d={d} sub-tile ({i}, {rb})"
                    );
                    counted += got.0;
                }
                assert!(counted > 0, "d={d}: every sub-tile was empty");
            });
        }
    }

    #[test]
    fn symbolic_order_is_the_same_on_every_run() {
        // Narrow, short tiles give every rank many sub-tiles per owner. Two
        // symbolic passes must record the same `TileMode` events and post
        // the same `:modes` messages.
        let n = 96;
        let d = 6;
        let acoo = erdos_renyi(n, 6.0, 13);
        let bcoo = random_tall(n, d, 0.5, 14);
        let out = World::run(4, |comm| {
            let runs: Vec<_> = ["a", "b"]
                .into_iter()
                .map(|tag| {
                    let (tiling, buckets, b) =
                        setup(comm, n, &acoo, &bcoo, d, |dist| Tiling::new(dist, 4, 8));
                    let (_, sends) = decide::<PlusTimesF64>(
                        comm,
                        &tiling,
                        &buckets,
                        &b,
                        ModePolicy::Hybrid,
                        tag,
                    );
                    let events: Vec<_> = comm.flight(|f| {
                        f.in_order()
                            .filter(|e| {
                                e.tag.as_str() == tag
                                    && matches!(e.kind, FlightEventKind::TileMode { .. })
                            })
                            .map(|e| e.kind)
                            .collect()
                    });
                    (events, sends)
                })
                .collect();
            (runs[0].clone(), runs[1].clone())
        });
        for (rank, (first, second)) in out.results.iter().enumerate() {
            assert!(first.0.len() > 8, "rank {rank} decided too few sub-tiles");
            assert_eq!(first.0, second.0, "rank {rank}: TileMode events differ");
            assert_eq!(first.1, second.1, "rank {rank}: :modes payloads differ");
        }
    }
}
