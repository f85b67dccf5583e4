//! Sparsity-aware tiling of the virtual 2-D layout (§III-B), and the
//! tile-step pieces every kernel on that schedule shares.
//!
//! Each rank's row block `A_i` is processed in `h × w` tiles: `h ≤ n/p` rows
//! of the block by `w ≤ n` global columns (Table IV defaults: `h = n/p`,
//! `w = 16·n/p`). A *sub-tile* is the intersection of a tile with one
//! serving rank's column range — the unit for which the local/remote mode
//! decision is made, since one rank owns all the `B` rows a sub-tile needs.
//!
//! The `A^c` side pre-buckets its entries by sub-tile once, in tile-step
//! order; the symbolic mode pass and every kernel's server role then work
//! from the buckets without rescanning the CSC. TS-SpGEMM, SpMM and SDDMM
//! run the same step: [`TileBuckets::step`] lists the sub-tiles a rank
//! serves, `needed_rows` the rows each one needs (`pack_rows` ships sparse
//! rows as [`Trip`]s), `RowIndex` indexes what arrives, and `kernel_lanes`
//! runs the tile owner's pool jobs.

use crate::colpart::{ColBlocks, Trip};
use crate::part::BlockDist;
use std::time::Instant;
use tsgemm_net::Comm;
use tsgemm_pool::{Job, ThreadPool};
use tsgemm_sparse::{Csr, Idx};

/// Tile sizes and record tag of one SpMM or SDDMM call.
#[derive(Clone, Debug, Default)]
pub struct TileConfig {
    /// Tile height; `None` = the full row block (`n/p`, Table IV default).
    pub tile_height: Option<usize>,
    /// Tile width in global columns; `None` = `16·n/p` (Table IV default).
    pub tile_width: Option<usize>,
    /// Tag prefix for communication records; empty means the kernel's own
    /// name (`spmm`, `sddmm`).
    pub tag: String,
}

impl TileConfig {
    /// The record tag: [`TileConfig::tag`], or `kernel` when that is empty.
    pub(crate) fn tag_or<'a>(&'a self, kernel: &'a str) -> &'a str {
        if self.tag.is_empty() {
            kernel
        } else {
            &self.tag
        }
    }
}

/// Tile grid geometry, uniform across ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tiling {
    pub dist: BlockDist,
    /// Tile height in rows (within a rank's row block).
    pub h: usize,
    /// Tile width in global columns.
    pub w: usize,
    /// Row bands per rank (computed from the largest block so every rank
    /// executes the same number of steps; trailing bands may be empty).
    pub n_row_bands: usize,
    /// Column bands over the global column space.
    pub n_col_bands: usize,
}

impl Tiling {
    pub fn new(dist: BlockDist, h: usize, w: usize) -> Self {
        assert!(h >= 1, "tile height must be positive");
        assert!(w >= 1, "tile width must be positive");
        let block = dist.block().max(1);
        Self {
            dist,
            h,
            w,
            n_row_bands: block.div_ceil(h),
            n_col_bands: dist.n().max(1).div_ceil(w),
        }
    }

    /// `h × w` tiles, each size defaulting to the paper's (Table IV):
    /// `h = n/p`, `w = 16·n/p` (clamped to n).
    pub(crate) fn sized(dist: BlockDist, h: Option<usize>, w: Option<usize>) -> Self {
        let block = dist.block().max(1);
        let h = h.unwrap_or(block).max(1);
        let w = w.unwrap_or_else(|| (16 * block).min(dist.n().max(1)));
        Self::new(dist, h, w.max(1))
    }

    /// The paper's defaults (Table IV).
    pub fn default_for(dist: BlockDist) -> Self {
        Self::sized(dist, None, None)
    }

    /// Like [`Tiling::default_for`] but with `w = factor·n/p` (Fig. 5 sweep).
    pub fn with_width_factor(dist: BlockDist, factor: usize) -> Self {
        let block = dist.block().max(1);
        Self::new(dist, block, (factor * block).min(dist.n().max(1)).max(1))
    }

    /// Global row range of `rank`'s band `rb` (may be empty).
    pub fn band_range(&self, rank: usize, rb: usize) -> (Idx, Idx) {
        let (lo, hi) = self.dist.range(rank);
        let blo = (lo as usize + rb * self.h).min(hi as usize) as Idx;
        let bhi = (lo as usize + (rb + 1) * self.h).min(hi as usize) as Idx;
        (blo, bhi)
    }

    /// Which band of its owner's block a global row falls into.
    pub fn band_of(&self, owner: usize, g: Idx) -> usize {
        let (lo, _) = self.dist.range(owner);
        (g - lo) as usize / self.h
    }

    /// Global column range of column band `cb` (clamped to `n`).
    pub fn col_band_range(&self, cb: usize) -> (Idx, Idx) {
        let lo = (cb * self.w).min(self.dist.n()) as Idx;
        let hi = ((cb + 1) * self.w).min(self.dist.n()) as Idx;
        (lo, hi)
    }

    /// Column band of a global column.
    pub fn col_band_of(&self, c: Idx) -> usize {
        c as usize / self.w
    }

    /// Total tile steps each rank executes.
    pub fn steps(&self) -> usize {
        self.n_row_bands * self.n_col_bands
    }
}

/// Key of a sub-tile: (tile-owning rank `i`, row band, column band).
pub type SubTileKey = (usize, u32, u32);

/// `A^c` entries bucketed per sub-tile: `(global row, local column, value)`.
///
/// One entry buffer ordered by sub-tile, tile step (`rb · n_col_bands + cb`)
/// major and tile owner minor, plus one offset per sub-tile. A stable
/// counting pass over the columns builds it, so the entries of a sub-tile
/// keep column order: a run of equal local columns is one needed `B` row.
/// Memory is O(nnz + steps · p).
pub struct TileBuckets<T> {
    entries: Vec<(Idx, Idx, T)>,
    /// Sub-tile `(step, i)` holds `entries[offsets[s]..offsets[s + 1]]` with
    /// `s = step · p + i`.
    offsets: Vec<u32>,
    n_row_bands: usize,
    n_col_bands: usize,
    p: usize,
}

impl<T: Copy> TileBuckets<T> {
    /// Two passes over the local column block: count the entries of every
    /// sub-tile, then place each entry after its sub-tile's earlier ones.
    pub fn build(ac: &ColBlocks<T>, tiling: &Tiling) -> Self {
        let p = tiling.dist.p();
        let n_col_bands = tiling.n_col_bands;
        let (clo, _) = ac.col_range();
        // Sub-tile index of an entry in row `r` of a column in band `cb`.
        let slot = |cb: usize, r: Idx| {
            let i = tiling.dist.owner(r);
            (tiling.band_of(i, r) * n_col_bands + cb) * p + i
        };
        let cols = || {
            ac.local
                .iter_cols()
                .map(|(k, rows, vals)| (k, tiling.col_band_of(clo + k as Idx), rows, vals))
        };
        let nnz = ac.local.nnz();
        assert!(
            u32::try_from(nnz).is_ok(),
            "A^c block of {nnz} entries overflows the u32 offsets"
        );
        let mut offsets = vec![0u32; tiling.steps() * p + 1];
        for (_, cb, rows, _) in cols() {
            for &r in rows {
                offsets[slot(cb, r) + 1] += 1;
            }
        }
        for s in 1..offsets.len() {
            offsets[s] += offsets[s - 1];
        }
        let mut next = offsets.clone();
        // Any value pads the buffer; the scatter overwrites every entry.
        let mut entries = match cols().find_map(|(_, _, _, vals)| vals.first().copied()) {
            Some(pad) => vec![(0, 0, pad); nnz],
            None => Vec::new(),
        };
        for (k, cb, rows, vals) in cols() {
            for (&r, &v) in rows.iter().zip(vals) {
                let at = &mut next[slot(cb, r)];
                entries[*at as usize] = (r, k as Idx, v);
                *at += 1;
            }
        }
        Self {
            entries,
            offsets,
            n_row_bands: tiling.n_row_bands,
            n_col_bands,
            p,
        }
    }

    fn span(&self, s: usize) -> &[(Idx, Idx, T)] {
        &self.entries[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    /// The non-empty sub-tiles of step `(rb, cb)` as `(owner, entries)`, in
    /// owner order.
    pub fn step(&self, rb: usize, cb: usize) -> impl Iterator<Item = (usize, &[(Idx, Idx, T)])> {
        let base = (rb * self.n_col_bands + cb) * self.p;
        (0..self.p).filter_map(move |i| {
            let bucket = self.span(base + i);
            (!bucket.is_empty()).then_some((i, bucket))
        })
    }

    /// Every non-empty sub-tile in (step, owner) order.
    pub fn iter(&self) -> impl Iterator<Item = (SubTileKey, &[(Idx, Idx, T)])> {
        (0..self.n_row_bands).flat_map(move |rb| {
            (0..self.n_col_bands).flat_map(move |cb| {
                self.step(rb, cb)
                    .map(move |(i, bucket)| ((i, rb as u32, cb as u32), bucket))
            })
        })
    }
}

/// The local `B` rows a sub-tile needs, each once, in column order. Bucket
/// entries are grouped by local column, so each run of equal columns is one
/// needed row.
pub(crate) fn needed_rows<T>(bucket: &[(Idx, Idx, T)]) -> impl Iterator<Item = Idx> + '_ {
    bucket.chunk_by(|x, y| x.1 == y.1).map(|run| run[0].1)
}

/// Appends rows `ks` of `m` to `out` as [`Trip`]s in global coordinates
/// (local row `k` is global row `lo + k`): the wire format of every
/// sparse row a tile step ships.
pub(crate) fn pack_rows<T: Copy>(
    ks: impl Iterator<Item = Idx>,
    m: &Csr<T>,
    lo: Idx,
    out: &mut Vec<Trip<T>>,
) {
    for k in ks {
        let (cols, vals) = m.row(k as usize);
        out.extend(cols.iter().zip(vals).map(|(&col, &val)| Trip {
            row: lo + k,
            col,
            val,
        }));
    }
}

/// Received rows over a contiguous row range `lo..`: a `(start, end)` span
/// per row into one entry buffer; a row that did not arrive is empty.
/// Reused across steps: a refill clears only the rows the previous step
/// set, so it costs O(entries received), not O(rows in the range).
pub(crate) struct RowIndex<E> {
    span: Vec<(usize, usize)>,
    /// Rows with entries, in the order they were first seen.
    rows: Vec<usize>,
    entries: Vec<E>,
}

impl<E: Copy> RowIndex<E> {
    pub(crate) fn new() -> Self {
        Self {
            span: Vec::new(),
            rows: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Empties the rows the previous fill set and covers `nrows` rows.
    fn reset(&mut self, nrows: usize) {
        for &r in &self.rows {
            self.span[r] = (0, 0);
        }
        self.rows.clear();
        if self.span.len() < nrows {
            self.span.resize(nrows, (0, 0));
        }
    }

    pub(crate) fn row(&self, r: usize) -> &[E] {
        let (start, end) = self.span[r];
        &self.entries[start..end]
    }
}

impl<T: Copy> RowIndex<(Idx, T)> {
    /// Re-indexes the rows `lo..lo + nrows` from sparse rows sent as
    /// [`Trip`]s, each row's entries as `(col, val)` in message
    /// (source-rank) order. A stable counting pass builds it; `pad` only
    /// fills the entry buffer before the scatter overwrites it.
    pub(crate) fn fill(&mut self, msgs: &[Vec<Trip<T>>], lo: Idx, nrows: usize, pad: T) {
        self.reset(nrows);
        // Count each row's entries in `end`.
        for t in msgs.iter().flatten() {
            let r = (t.row - lo) as usize;
            if self.span[r].1 == 0 {
                self.rows.push(r);
            }
            self.span[r].1 += 1;
        }
        // Lay the rows out in first-seen order; `end` becomes the cursor.
        let mut next = 0;
        for &r in &self.rows {
            let count = self.span[r].1;
            self.span[r] = (next, next);
            next += count;
        }
        self.entries.clear();
        self.entries.resize(next, (0, pad));
        for t in msgs.iter().flatten() {
            let span = &mut self.span[(t.row - lo) as usize];
            self.entries[span.1] = (t.col, t.val);
            span.1 += 1;
        }
    }
}

impl<T: Copy> RowIndex<T> {
    /// Re-indexes the rows `lo..lo + nrows` from dense rows of `d` values:
    /// `vals[src]` holds one row per global row id in `ids[src]`.
    pub(crate) fn fill_dense(
        &mut self,
        ids: &[Vec<Idx>],
        vals: &[Vec<T>],
        lo: Idx,
        nrows: usize,
        d: usize,
    ) {
        self.reset(nrows);
        self.entries.clear();
        for (ids, vals) in ids.iter().zip(vals) {
            for (k, &g) in ids.iter().enumerate() {
                let r = (g - lo) as usize;
                let start = self.entries.len();
                self.entries.extend_from_slice(&vals[k * d..(k + 1) * d]);
                self.span[r] = (start, start + d);
                self.rows.push(r);
            }
        }
    }
}

/// Runs one pool job per lane and returns the results in lane order. When
/// tracing, lane `k`'s wall interval is recorded after the join as span
/// `{tag}:kernel:t{k}` (one Chrome-trace lane per worker).
pub(crate) fn kernel_lanes<'env, R: Send + 'env>(
    comm: &Comm,
    pool: &ThreadPool,
    tag: &str,
    jobs: impl IntoIterator<Item = impl FnOnce() -> R + Send + 'env>,
) -> Vec<R> {
    let trace = comm.trace_on();
    let timed: Vec<Job<'env, _>> = jobs
        .into_iter()
        .map(|job| {
            Box::new(move || {
                let t0 = trace.then(Instant::now);
                let out = job();
                (out, t0.map(|t| (t, Instant::now())))
            }) as Job<'env, _>
        })
        .collect();
    pool.run_jobs(timed)
        .into_iter()
        .enumerate()
        .map(|(k, (out, span))| {
            if let Some((s0, e0)) = span {
                comm.record_span_between(format!("{tag}:kernel:t{k}"), s0, e0);
            }
            out
        })
        .collect()
}

/// Builds a CSR from triplets with unique coordinates (no semiring needed;
/// sub-tile entries come from a matrix, so duplicates cannot occur).
pub fn csr_from_unique_triplets<T: Copy>(
    nrows: usize,
    ncols: usize,
    mut trips: Vec<(Idx, Idx, T)>,
) -> Csr<T> {
    trips.sort_unstable_by_key(|&(r, c, _)| (r, c));
    let mut indptr = Vec::with_capacity(nrows + 1);
    indptr.push(0);
    let mut indices = Vec::with_capacity(trips.len());
    let mut values = Vec::with_capacity(trips.len());
    let mut row = 0usize;
    for (r, c, v) in trips {
        while row < r as usize {
            indptr.push(indices.len());
            row += 1;
        }
        indices.push(c);
        values.push(v);
    }
    while row < nrows {
        indptr.push(indices.len());
        row += 1;
    }
    Csr::from_parts(nrows, ncols, indptr, indices, values)
}

/// Materialises a sub-tile as a CSR with band-local rows (`0..band_height`)
/// and block-local columns (`0..width`), ready to multiply against the
/// serving rank's local `B` block.
pub fn subtile_csr<T: Copy>(
    bucket: &[(Idx, Idx, T)],
    band_lo: Idx,
    band_rows: usize,
    width: usize,
) -> Csr<T> {
    let trips: Vec<(Idx, Idx, T)> = bucket
        .iter()
        .map(|&(r, k, v)| (r - band_lo, k, v))
        .collect();
    csr_from_unique_triplets(band_rows, width, trips)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DistCsr;
    use std::collections::BTreeSet;
    use tsgemm_net::World;
    use tsgemm_sparse::gen::erdos_renyi;
    use tsgemm_sparse::PlusTimesF64;

    #[test]
    fn default_tiling_matches_table_iv() {
        let dist = BlockDist::new(160, 10); // block = 16
        let t = Tiling::default_for(dist);
        assert_eq!(t.h, 16);
        assert_eq!(t.w, 160);
        assert_eq!(t.n_row_bands, 1);
        assert_eq!(t.n_col_bands, 1);
    }

    #[test]
    fn width_factor_sweep() {
        let dist = BlockDist::new(64, 8); // block = 8
        for f in [1, 2, 4, 8] {
            let t = Tiling::with_width_factor(dist, f);
            assert_eq!(t.w, (f * 8).min(64));
            assert_eq!(t.n_col_bands, 64usize.div_ceil(t.w));
        }
    }

    #[test]
    fn band_ranges_cover_block() {
        let dist = BlockDist::new(50, 4); // blocks 13,13,12,12
        let t = Tiling::new(dist, 5, 10);
        assert_eq!(t.n_row_bands, 3); // ceil(13/5)
        for rank in 0..4 {
            let (lo, hi) = dist.range(rank);
            let mut covered = 0;
            for rb in 0..t.n_row_bands {
                let (blo, bhi) = t.band_range(rank, rb);
                assert!(blo >= lo && bhi <= hi);
                covered += (bhi - blo) as usize;
            }
            assert_eq!(covered, (hi - lo) as usize);
        }
        // Last band of a short block is empty.
        let (blo, bhi) = t.band_range(2, 2);
        assert_eq!(bhi - blo, 2); // 12 rows = 5+5+2
    }

    #[test]
    fn col_bands_cover_n() {
        let dist = BlockDist::new(23, 3);
        let t = Tiling::new(dist, 8, 7);
        assert_eq!(t.n_col_bands, 4);
        let mut covered = 0;
        for cb in 0..t.n_col_bands {
            let (lo, hi) = t.col_band_range(cb);
            covered += (hi - lo) as usize;
            for c in lo..hi {
                assert_eq!(t.col_band_of(c), cb);
            }
        }
        assert_eq!(covered, 23);
    }

    #[test]
    fn buckets_partition_the_col_block() {
        let n = 60;
        let p = 3;
        let coo = erdos_renyi(n, 5.0, 17);
        let out = World::run(p, |comm| {
            let dist = BlockDist::new(n, p);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(&coo, dist, comm.rank(), n);
            let ac = crate::colpart::ColBlocks::build::<PlusTimesF64>(comm, &a);
            let t = Tiling::new(dist, 10, 15);
            let buckets = TileBuckets::build(&ac, &t);
            let mut total = 0;
            let mut keys = Vec::new();
            for ((i, rb, cb), bucket) in buckets.iter() {
                for &(r, k, _) in bucket {
                    // Each entry sits in its own sub-tile, in column order.
                    assert_eq!(dist.owner(r), i);
                    assert_eq!(t.band_of(i, r), rb as usize);
                    assert_eq!(t.col_band_of(ac.col_range().0 + k), cb as usize);
                }
                assert!(bucket.windows(2).all(|w| w[0].1 <= w[1].1));
                // Each distinct column is one needed row, once, in order.
                let distinct: BTreeSet<Idx> = bucket.iter().map(|&(_, k, _)| k).collect();
                assert!(needed_rows(bucket).eq(distinct));
                total += bucket.len();
                keys.push((rb, cb, i));
            }
            // (step, owner) order, each sub-tile once.
            assert!(keys.windows(2).all(|w| w[0] < w[1]));
            (total, ac.local.nnz(), keys.len())
        });
        for (bucketed, nnz, groups) in out.results {
            assert_eq!(bucketed, nnz, "every entry lands in exactly one bucket");
            assert!(groups > 0);
        }
    }

    #[test]
    fn subtile_matches_dense_extraction() {
        // Build a small known matrix and extract a subtile by hand.
        let bucket = vec![(10 as Idx, 0 as Idx, 1.0), (11, 2, 2.0), (10, 2, 3.0)];
        let t = subtile_csr(&bucket, 10, 3, 4);
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 4);
        assert_eq!(t.get(0, 0), Some(1.0));
        assert_eq!(t.get(0, 2), Some(3.0));
        assert_eq!(t.get(1, 2), Some(2.0));
        assert_eq!(t.row(2).0.len(), 0);
        t.validate().unwrap();
    }

    #[test]
    fn csr_from_unique_triplets_sorts() {
        let m = csr_from_unique_triplets(2, 3, vec![(1, 2, 5.0), (0, 1, 1.0), (1, 0, 2.0)]);
        assert_eq!(m.row(1).0, &[0, 2]);
        m.validate().unwrap();
    }

    #[test]
    fn steps_are_uniform() {
        let dist = BlockDist::new(100, 7);
        let t = Tiling::new(dist, 4, 30);
        assert_eq!(t.steps(), t.n_row_bands * t.n_col_bands);
        assert_eq!(t.n_row_bands, 15usize.div_ceil(4));
    }
}
