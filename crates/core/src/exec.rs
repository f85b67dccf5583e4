//! The distributed TS-SpGEMM driver (Alg. 2).
//!
//! Executes `C = A ⊗ B` with 1-D partitioned `A`, `B`, `C`, the
//! column-partitioned copy `A^c`, and sparsity-aware tiling. Per tile step
//! `(row band, column band)` every rank plays two roles:
//!
//! * **server** (owner of the `B` rows a sub-tile needs): for local-mode
//!   sub-tiles it packs the needed `B` rows; for remote-mode sub-tiles it
//!   multiplies the sub-tile (taken from its `A^c` block, no communication)
//!   against its local `B` and packs the partial `C` rows;
//! * **tile owner**: multiplies its own tile columns against local `B`
//!   (diagonal), received `B` rows (local mode), and merges received partial
//!   `C` rows (remote mode).
//!
//! Communication per step is consolidated into two AllToAllv's — `B` rows
//! (tag `…:bfetch`, Alg. 2 line 27) and returned partials (tag `…:cret`,
//! line 17) — matching the paper's "consolidated communication".

use crate::colpart::{ColBlocks, Trip};
use crate::dist::DistCsr;
use crate::mode::{decide_modes, ModePolicy, TileMode};
use crate::part::BlockDist;
use crate::tiling::{
    kernel_lanes, needed_rows, pack_rows, subtile_csr, RowIndex, TileBuckets, TileConfig, Tiling,
};
use tsgemm_net::{alloc, Comm, CommError, FlightEventKind, Metrics};
use tsgemm_pool::{nnz_chunks_range, ThreadPool};
use tsgemm_sparse::accum::{Accumulator, HashAccum, Spa};
use tsgemm_sparse::semiring::Semiring;
use tsgemm_sparse::spgemm::{spgemm, spgemm_flops, AccumChoice};
use tsgemm_sparse::{Csr, Idx};

/// Configuration of one TS-SpGEMM invocation.
#[derive(Clone, Debug)]
pub struct TsConfig {
    /// Tile height; `None` = the full row block (`n/p`, Table IV default).
    pub tile_height: Option<usize>,
    /// Tile width in global columns; `None` = `16·n/p` (Table IV default).
    pub tile_width: Option<usize>,
    /// Local/remote selection policy.
    pub policy: ModePolicy,
    /// Accumulator selection for multiplies and merges.
    pub accum: AccumChoice,
    /// Tag prefix for communication records (phase attribution).
    pub tag: String,
}

impl Default for TsConfig {
    fn default() -> Self {
        Self {
            tile_height: None,
            tile_width: None,
            policy: ModePolicy::Hybrid,
            accum: AccumChoice::Auto,
            tag: "ts".to_string(),
        }
    }
}

impl TsConfig {
    /// The same tile sizes as a SpMM or SDDMM config, tagged `tag`.
    pub fn tile_config(&self, tag: String) -> TileConfig {
        TileConfig {
            tile_height: self.tile_height,
            tile_width: self.tile_width,
            tag,
        }
    }

    /// Tile width as a multiple of the block size (the Fig. 5 sweep axis).
    pub fn with_width_factor(mut self, factor: usize, dist: BlockDist) -> Self {
        self.tile_width = Some(Tiling::with_width_factor(dist, factor).w);
        self
    }
}

tsgemm_net::stats_struct! {
    /// Per-rank statistics of one invocation. Merging across ranks sums the
    /// counts and keeps the high-water marks.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct TsLocalStats {
        /// Multiplications performed by this rank (server + owner roles).
        pub flops: u64 => sum,
        /// Peak bytes of transient received data (B rows + C partials) held
        /// simultaneously during any single tile step (the Fig. 5a metric).
        pub peak_transient_bytes: u64 => max,
        /// Sub-tiles this rank served in local mode.
        pub local_subtiles: u64 => sum,
        /// Sub-tiles this rank served in remote mode.
        pub remote_subtiles: u64 => sum,
        /// Diagonal sub-tiles (no communication).
        pub diag_subtiles: u64 => sum,
        /// Tile steps executed.
        pub steps: u64 => max,
        /// Tile-step collectives retried after an injected transient failure
        /// (always zero without an active fault plan).
        pub retries: u64 => sum,
    }
}

/// Attempts a tile-step AllToAllv up to this many times when the active
/// fault plan injects transient failures (a transient error performs no
/// communication, so a retry re-enters the collective in lock-step).
pub const MAX_COLLECTIVE_ATTEMPTS: u32 = 3;

/// AllToAllv with bounded retry on [`CommError::Injected`]. The defensive
/// copy of the send buffers is made only under an active fault plan;
/// fault-free runs pay nothing.
fn alltoallv_retry<T: Clone + Send + 'static>(
    comm: &mut Comm,
    sends: Vec<Vec<T>>,
    tag: String,
    retries: &mut u64,
) -> Result<Vec<Vec<T>>, CommError> {
    if !comm.fault_active() {
        return comm.try_alltoallv(sends, tag);
    }
    let mut bufs = sends;
    let mut attempt = 1u32;
    loop {
        let backup = (attempt < MAX_COLLECTIVE_ATTEMPTS).then(|| bufs.clone());
        match comm.try_alltoallv(bufs, tag.clone()) {
            Ok(r) => return Ok(r),
            Err(e) if e.is_transient() && backup.is_some() => {
                *retries += 1;
                attempt += 1;
                comm.flight_record(&tag, FlightEventKind::Retry { attempt });
                bufs = backup.unwrap();
            }
            Err(e) => return Err(e),
        }
    }
}

/// Distributed TS-SpGEMM: returns this rank's row block of `C` (local rows,
/// `d` columns) and its local statistics.
///
/// Transient injected faults on the tile-step collectives are retried
/// internally (see [`try_ts_spgemm`]); any other [`CommError`] panics.
///
/// # Panics
/// Panics if `b`'s row distribution differs from `a`'s, or if the column
/// block `ac` was built from a different matrix shape.
pub fn ts_spgemm<S: Semiring>(
    comm: &mut Comm,
    a: &DistCsr<S::T>,
    ac: &ColBlocks<S::T>,
    b: &DistCsr<S::T>,
    cfg: &TsConfig,
) -> (Csr<S::T>, TsLocalStats) {
    try_ts_spgemm::<S>(comm, a, ac, b, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`ts_spgemm`]: tile-step collectives that fail with a transient
/// injected error are retried up to [`MAX_COLLECTIVE_ATTEMPTS`] times
/// (`stats.retries` counts them); non-transient errors are returned.
///
/// `C_i` is assembled directly in CSR, row band by row band. Each output
/// row is ⊕-merged (Alg. 2's MERGE) through one accumulator in a fixed
/// order: the owner's own contributions in `A`-column order, then the
/// remote partials in source-rank order, then the column bands in `cb`
/// order.
///
/// With several column bands a step visits only the band's rows that hold
/// `A` entries in its column band (the only rows a remote partial can
/// reach), and drains each into one band buffer tagged with its row. At the
/// band's end a stable counting pass groups those segments by row in `cb`
/// order: a row with one segment is copied as drained, a row with more is
/// ⊕-merged through the accumulator, so every output bit is what merging
/// one drained row per column band would give.
pub fn try_ts_spgemm<S: Semiring>(
    comm: &mut Comm,
    a: &DistCsr<S::T>,
    ac: &ColBlocks<S::T>,
    b: &DistCsr<S::T>,
    cfg: &TsConfig,
) -> Result<(Csr<S::T>, TsLocalStats), CommError> {
    // Whole-invocation span under the config tag (the same phase the stats
    // registry uses). A drop guard, so it also closes when a collective
    // fails and the `?` below returns early — the timeline never leaks an
    // open span on the error path.
    let run_span = comm.span(|| cfg.tag.clone());
    let me = comm.rank();
    let p = comm.size();
    let dist = a.dist;
    assert_eq!(b.dist, dist, "B rows must follow A's distribution");
    assert_eq!(ac.dist, dist, "A^c columns must follow A's distribution");
    assert_eq!(
        a.ncols(),
        dist.n(),
        "A must be square over the distribution"
    );
    let d = b.ncols();
    let (my_lo, _) = dist.range(me);

    let tiling = Tiling::sized(dist, cfg.tile_height, cfg.tile_width);
    let buckets_span = comm.span(|| format!("{}:buckets", cfg.tag));
    let buckets = TileBuckets::build(ac, &tiling);
    buckets_span.end();
    let modes = decide_modes::<S>(comm, &tiling, &buckets, b, cfg.policy, &cfg.tag);

    let mut stats = TsLocalStats {
        local_subtiles: modes.n_local,
        remote_subtiles: modes.n_remote,
        diag_subtiles: modes.n_diag,
        steps: tiling.steps() as u64,
        ..TsLocalStats::default()
    };

    let use_spa = matches!(cfg.accum.resolve(d), AccumChoice::Spa);
    let mut acc = RowAccum::<S>::new(use_spa, d);
    let multi_band = tiling.n_col_bands > 1;
    // The output, one row band at a time. With a single column band a
    // step's rows are final and go straight here; otherwise each step's
    // row segments go to `band`, which is merged after the band's last
    // step.
    let mut c_out = RowBlock::new();
    let mut band = BandSegments::new();
    // The rows each step visits, rebuilt at the first step of a row band.
    let mut active = ActiveRows::new();
    let mut seg_nnz = Vec::new();
    // Received B rows indexed over the column band, remote partials over
    // the row band; both reused across steps.
    let mut brows = RowIndex::new();
    let mut cparts = RowIndex::new();

    let trip_bytes = std::mem::size_of::<Trip<S::T>>() as u64;
    let mut flops = 0u64;
    let trace = comm.trace_on();
    let pool = ThreadPool::global();

    for rb in 0..tiling.n_row_bands {
        let (band_lo, band_hi) = tiling.band_range(me, rb);
        let lo_l = (band_lo - my_lo) as usize;
        let hi_l = (band_hi - my_lo) as usize;
        for cb in 0..tiling.n_col_bands {
            comm.flight_record(
                &cfg.tag,
                FlightEventKind::StepStart {
                    rb: rb as u32,
                    cb: cb as u32,
                },
            );
            // ---- server role: pack B rows / compute partial C ------------
            let pack_span = comm.span(|| format!("{}:pack", cfg.tag));
            let mut bsend: Vec<Vec<Trip<S::T>>> = (0..p).map(|_| Vec::new()).collect();
            let mut csend: Vec<Vec<Trip<S::T>>> = (0..p).map(|_| Vec::new()).collect();
            let (bcol_lo, _) = ac.col_range();
            let serve = modes.serve(rb, cb);
            for (i, bucket) in buckets.step(rb, cb) {
                if i == me {
                    continue;
                }
                match serve[i].expect("every non-empty served sub-tile has a mode") {
                    TileMode::Local => {
                        pack_rows(needed_rows(bucket), &b.local, bcol_lo, &mut bsend[i])
                    }
                    TileMode::Remote => {
                        let (band_lo, band_hi) = tiling.band_range(i, rb);
                        let tile = subtile_csr(
                            bucket,
                            band_lo,
                            (band_hi - band_lo) as usize,
                            b.local.nrows(),
                        );
                        flops += spgemm_flops(&tile, &b.local);
                        let part = spgemm::<S>(&tile, &b.local, cfg.accum);
                        let rows = 0..part.nrows() as Idx;
                        pack_rows(rows, &part, band_lo, &mut csend[i]);
                    }
                }
            }

            pack_span.end();

            // ---- consolidated communication ------------------------------
            let brecv = alltoallv_retry(
                comm,
                bsend,
                format!("{}:bfetch", cfg.tag),
                &mut stats.retries,
            )?;
            let crecv =
                alltoallv_retry(comm, csend, format!("{}:cret", cfg.tag), &mut stats.retries)?;

            let transient: u64 = brecv
                .iter()
                .chain(crecv.iter())
                .map(|v| v.len() as u64 * trip_bytes)
                .sum();
            stats.peak_transient_bytes = stats.peak_transient_bytes.max(transient);
            // Tiling bounds the multiply's working set to this step's slice.
            comm.note_working_set(transient);

            // ---- tile-owner role: multiply and merge partials per row ----
            let kernel_span = comm.span(|| format!("{}:kernel", cfg.tag));
            if cb == 0 {
                active.fill(&a.local, lo_l..hi_l, &tiling);
            }
            let (cb_lo, cb_hi) = tiling.col_band_range(cb);
            brows.fill(&brecv, cb_lo, (cb_hi - cb_lo) as usize, S::zero());
            cparts.fill(&crecv, band_lo, hi_l - lo_l, S::zero());
            // The indexes hold their own copies; free the received buffers
            // before the output grows.
            drop((brecv, crecv));
            let ctx = OwnerCtx::<S> {
                my_lo,
                band_lo: lo_l,
                cb_lo,
                me,
                dist,
                a_local: &a.local,
                b_local: &b.local,
                own: modes.own(rb, cb),
                brows: &brows,
                cparts: &cparts,
                d,
            };
            let segs = active.step(cb);
            let step_out = if multi_band {
                band.ids.extend(segs.iter().map(|s| s.row));
                &mut band.rows
            } else {
                &mut c_out
            };
            if pool.nthreads() == 1 {
                flops += acc.owner_rows(&ctx, segs, step_out);
            } else {
                // nnz-balanced chunks over this step's rows; one private
                // accumulator per chunk (the paper's per-thread SPA),
                // per-chunk row blocks appended in row order so the output
                // is byte-identical to the sequential pass.
                let mut total = 0;
                seg_nnz.clear();
                seg_nnz.push(0);
                seg_nnz.extend(segs.iter().map(|s| {
                    total += (s.hi - s.lo) as usize;
                    total
                }));
                let chunks = nnz_chunks_range(&seg_nnz, 0, segs.len(), pool.nthreads());
                let ctx = &ctx;
                let jobs = chunks.into_iter().map(|chunk| {
                    move || {
                        let mut rows = RowBlock::new();
                        let f =
                            RowAccum::<S>::new(use_spa, d).owner_rows(ctx, &segs[chunk], &mut rows);
                        (rows, f)
                    }
                });
                let parts = kernel_lanes(comm, &pool, &cfg.tag, jobs);
                let entries = parts.iter().map(|(rows, _)| rows.indices.len()).sum();
                step_out.reserve(segs.len(), entries);
                for (rows, f) in parts {
                    step_out.append(&rows);
                    flops += f;
                }
            }
            kernel_span.end();
            comm.flight_record(
                &cfg.tag,
                FlightEventKind::StepEnd {
                    rb: rb as u32,
                    cb: cb as u32,
                },
            );
        }

        // ---- MERGE: ⊕ the band's column-band segments row by row --------
        if multi_band {
            let merge_span = comm.span(|| format!("{}:merge", cfg.tag));
            acc.merge_band(&mut band, hi_l - lo_l, &mut c_out);
            merge_span.end();
        }
    }

    comm.add_flops(flops);
    stats.flops = flops;
    if trace {
        comm.metrics(|m| m.merge(&stats.registry(&cfg.tag)));
        if alloc::counting_active() {
            // Process-wide accounted bytes (the counting allocator is
            // global): the peak is the whole job's high-water mark since the
            // last reset, recorded as gauges so rank merges take the max.
            comm.metrics(|m| {
                m.gauge_max(&cfg.tag, "mem_live_bytes", alloc::live_bytes() as f64);
                m.gauge_max(&cfg.tag, "mem_peak_bytes", alloc::peak_bytes() as f64);
            });
        }
    }

    let c = c_out.into_csr(d);
    run_span.end();
    Ok((c, stats))
}

/// Rows of a CSR matrix under construction: `indptr` starts at `[0]` and
/// gains one entry per finished row.
struct RowBlock<T> {
    indptr: Vec<usize>,
    indices: Vec<Idx>,
    values: Vec<T>,
}

impl<T: Copy> RowBlock<T> {
    fn new() -> Self {
        Self {
            indptr: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    fn row(&self, r: usize) -> (&[Idx], &[T]) {
        let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Makes room for `rows` more rows holding `entries` entries in all.
    fn reserve(&mut self, rows: usize, entries: usize) {
        self.indptr.reserve(rows);
        self.indices.reserve(entries);
        self.values.reserve(entries);
    }

    fn clear(&mut self) {
        self.indptr.truncate(1);
        self.indices.clear();
        self.values.clear();
    }

    /// Appends `other`'s rows after this block's (its `indptr` rebased).
    fn append(&mut self, other: &RowBlock<T>) {
        let base = self.indices.len();
        self.indices.extend_from_slice(&other.indices);
        self.values.extend_from_slice(&other.values);
        self.indptr
            .extend(other.indptr[1..].iter().map(|&q| q + base));
    }

    fn into_csr(self, ncols: usize) -> Csr<T> {
        let nrows = self.indptr.len() - 1;
        Csr::from_parts(nrows, ncols, self.indptr, self.indices, self.values)
    }
}

/// The row accumulator of one invocation (picked once from the config).
/// Each pass matches on it once and then runs a loop monomorphised for the
/// concrete accumulator, so the per-flop ⊕ is never dispatched.
enum RowAccum<S: Semiring> {
    Spa(Spa<S>),
    Hash(HashAccum<S>),
}

impl<S: Semiring> RowAccum<S> {
    fn new(use_spa: bool, width: usize) -> Self {
        if use_spa {
            Self::Spa(Spa::new(width))
        } else {
            Self::Hash(HashAccum::with_capacity(64))
        }
    }

    /// [`owner_rows`] with the concrete accumulator.
    fn owner_rows(
        &mut self,
        ctx: &OwnerCtx<'_, S>,
        segs: &[Segment],
        out: &mut RowBlock<S::T>,
    ) -> u64 {
        match self {
            Self::Spa(a) => owner_rows(ctx, segs, a, out),
            Self::Hash(a) => owner_rows(ctx, segs, a, out),
        }
    }

    /// [`BandSegments::merge_into`] with the concrete accumulator.
    fn merge_band(
        &mut self,
        band: &mut BandSegments<S::T>,
        nrows: usize,
        out: &mut RowBlock<S::T>,
    ) {
        match self {
            Self::Spa(a) => band.merge_into(nrows, a, out),
            Self::Hash(a) => band.merge_into(nrows, a, out),
        }
    }
}

/// Drains the accumulated row (sorted, semiring zeros dropped) as the next
/// row of `out`.
fn drain_row<S: Semiring, A: Accumulator<S>>(acc: &mut A, out: &mut RowBlock<S::T>) {
    acc.drain_sorted(&mut out.indices, &mut out.values);
    out.indptr.push(out.indices.len());
}

/// The entries `lo..hi` of band row `row` that fall in one column band.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Segment {
    row: u32,
    lo: u32,
    hi: u32,
}

/// The rows of one row band that each of its steps visits. With one column
/// band that is every row of the band, whole. With several, column band
/// `cb` lists only the rows holding `A` entries in it, with where those
/// entries start and end in the row, so no step searches a row for its
/// slice. One pass over the band's entries finds the segments, and a stable
/// counting pass groups them by column band, keeping row order.
struct ActiveRows {
    /// Column band `cb`'s segments are `segs[offsets[cb]..offsets[cb + 1]]`.
    offsets: Vec<usize>,
    segs: Vec<Segment>,
    /// The band's segments in row order, tagged with their column band.
    found: Vec<(u32, Segment)>,
}

impl ActiveRows {
    fn new() -> Self {
        Self {
            offsets: Vec::new(),
            segs: Vec::new(),
            found: Vec::new(),
        }
    }

    /// Re-indexes the local rows `rows` of `a` for `tiling`'s column bands.
    fn fill<T: Copy>(&mut self, a: &Csr<T>, rows: std::ops::Range<usize>, tiling: &Tiling) {
        let first = rows.start;
        self.segs.clear();
        self.offsets.clear();
        if tiling.n_col_bands == 1 {
            self.segs.extend(rows.map(|r| Segment {
                row: (r - first) as u32,
                lo: 0,
                hi: a.row_nnz(r) as u32,
            }));
            self.offsets.extend([0, self.segs.len()]);
            return;
        }
        self.found.clear();
        self.offsets.resize(tiling.n_col_bands + 1, 0);
        for r in rows {
            let cols = a.row(r).0;
            let mut lo = 0;
            while lo < cols.len() {
                let cb = tiling.col_band_of(cols[lo]);
                let cb_hi = tiling.col_band_range(cb).1;
                let mut hi = lo + 1;
                while hi < cols.len() && cols[hi] < cb_hi {
                    hi += 1;
                }
                let seg = Segment {
                    row: (r - first) as u32,
                    lo: lo as u32,
                    hi: hi as u32,
                };
                self.found.push((cb as u32, seg));
                self.offsets[cb + 1] += 1;
                lo = hi;
            }
        }
        for cb in 1..self.offsets.len() {
            self.offsets[cb] += self.offsets[cb - 1];
        }
        self.segs.resize(self.found.len(), Segment::default());
        // `offsets[cb]` is the fill cursor of column band `cb`; each ends at
        // the start of the next, and shifting them back restores the starts.
        for &(cb, seg) in &self.found {
            let at = &mut self.offsets[cb as usize];
            self.segs[*at] = seg;
            *at += 1;
        }
        self.offsets.rotate_right(1);
        self.offsets[0] = 0;
    }

    /// The segments step `cb` of the band visits, in row order.
    fn step(&self, cb: usize) -> &[Segment] {
        &self.segs[self.offsets[cb]..self.offsets[cb + 1]]
    }
}

/// One row band's drained row segments across its column-band steps, each
/// tagged with its band row, and the buffers that merge them per row.
struct BandSegments<T> {
    rows: RowBlock<T>,
    ids: Vec<u32>,
    /// Row `r`'s segments are `order[start[r]..start[r + 1]]`.
    start: Vec<usize>,
    order: Vec<u32>,
}

impl<T: Copy> BandSegments<T> {
    fn new() -> Self {
        Self {
            rows: RowBlock::new(),
            ids: Vec::new(),
            start: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Appends the band's `nrows` rows to `out` and empties the buffer. A
    /// stable counting pass groups the segments by row, keeping `cb` order.
    /// A row without segments is empty, one segment is copied as drained
    /// (a drained row is sorted and holds no zeros, so accumulating and
    /// draining it again would give the same bits), and several are
    /// ⊕-merged through `acc` in `cb` order.
    fn merge_into<S: Semiring<T = T>, A: Accumulator<S>>(
        &mut self,
        nrows: usize,
        acc: &mut A,
        out: &mut RowBlock<T>,
    ) {
        self.start.clear();
        self.start.resize(nrows + 1, 0);
        for &r in &self.ids {
            self.start[r as usize + 1] += 1;
        }
        for r in 1..=nrows {
            self.start[r] += self.start[r - 1];
        }
        self.order.resize(self.ids.len(), 0);
        for (k, &r) in self.ids.iter().enumerate() {
            let at = &mut self.start[r as usize];
            self.order[*at] = k as u32;
            *at += 1;
        }
        // Each cursor now ends where the next row starts.
        let mut lo = 0;
        for r in 0..nrows {
            let hi = self.start[r];
            match &self.order[lo..hi] {
                [] => out.indptr.push(out.indices.len()),
                &[k] => {
                    let (cols, vals) = self.rows.row(k as usize);
                    out.indices.extend_from_slice(cols);
                    out.values.extend_from_slice(vals);
                    out.indptr.push(out.indices.len());
                }
                segs => {
                    for &k in segs {
                        let (cols, vals) = self.rows.row(k as usize);
                        for (&c, &v) in cols.iter().zip(vals) {
                            acc.accumulate(c, v);
                        }
                    }
                    drain_row(acc, out);
                }
            }
            lo = hi;
        }
        self.rows.clear();
        self.ids.clear();
    }
}

/// Shared-read context for the tile-owner multiply over one `(rb, cb)`
/// step: everything a worker needs to process a run of the step's rows.
struct OwnerCtx<'a, S: Semiring> {
    my_lo: Idx,
    /// First local row of the band (row 0 of `cparts`).
    band_lo: usize,
    cb_lo: Idx,
    me: usize,
    dist: BlockDist,
    a_local: &'a Csr<S::T>,
    b_local: &'a Csr<S::T>,
    /// Sub-tile modes of this step, indexed by serving rank.
    own: &'a [Option<TileMode>],
    /// Received B rows over the column band.
    brows: &'a RowIndex<(Idx, S::T)>,
    /// Received partial C rows over the row band.
    cparts: &'a RowIndex<(Idx, S::T)>,
    /// Output columns.
    d: usize,
}

/// A `B` row the tile owner multiplies: a row of its own `B` block
/// (diagonal) or one received for a local-mode sub-tile.
enum BRow<'a, T> {
    Own(&'a [Idx], &'a [T]),
    Fetched(&'a [(Idx, T)]),
}

impl<T> BRow<'_, T> {
    fn len(&self) -> usize {
        match self {
            BRow::Own(cols, _) => cols.len(),
            BRow::Fetched(entries) => entries.len(),
        }
    }
}

impl<'a, S: Semiring> OwnerCtx<'a, S> {
    /// The `A` values of `seg` paired with the `B` rows they multiply, in
    /// column order. Columns of remote-mode sub-tiles are skipped: their
    /// products arrive as partials.
    fn b_rows(&self, seg: &Segment) -> impl Iterator<Item = (S::T, BRow<'a, S::T>)> + '_ {
        let (cols, vals) = self.a_local.row(self.band_lo + seg.row as usize);
        // Serving rank of the current column and the end of its range;
        // columns are sorted, so the owner only changes at range ends.
        let (mut j, mut j_hi) = (0usize, 0 as Idx);
        (seg.lo as usize..seg.hi as usize).filter_map(move |idx| {
            let c = cols[idx];
            if c >= j_hi {
                j = self.dist.owner(c);
                j_hi = self.dist.range(j).1;
            }
            let brow = if j == self.me {
                let (bc, bv) = self.b_local.row((c - self.my_lo) as usize);
                BRow::Own(bc, bv)
            } else {
                match self.own[j] {
                    Some(TileMode::Local) => {
                        BRow::Fetched(self.brows.row((c - self.cb_lo) as usize))
                    }
                    Some(TileMode::Remote) => return None,
                    // The serving rank saw no entries for this sub-tile,
                    // yet we hold one: A and A^c have diverged — a bug.
                    None => unreachable!("sub-tile of column {c} served by {j} has no mode"),
                }
            };
            Some((vals[idx], brow))
        })
    }

    /// At most this many entries drain from `seg`'s row: one per product
    /// and per received partial, and never more than the `d` columns.
    fn row_bound(&self, seg: &Segment) -> usize {
        let products: usize = self.b_rows(seg).map(|(_, brow)| brow.len()).sum();
        (products + self.cparts.row(seg.row as usize).len()).min(self.d)
    }
}

/// The tile-owner multiply for a run of a step's row segments: Gustavson
/// over each row's entries in the tile's column slice plus the row's remote
/// partials, each row drained once into `out`. A row's output depends only
/// on that row's accumulate/drain sequence, so any partition of the step's
/// segments into runs, appended in order, reproduces the full pass exactly.
///
/// `out` is first sized for the run's [`OwnerCtx::row_bound`]s, so the
/// pass writes its rows without growing a buffer.
fn owner_rows<S: Semiring, A: Accumulator<S>>(
    ctx: &OwnerCtx<'_, S>,
    segs: &[Segment],
    acc: &mut A,
    out: &mut RowBlock<S::T>,
) -> u64 {
    out.reserve(segs.len(), segs.iter().map(|seg| ctx.row_bound(seg)).sum());
    let mut flops = 0u64;
    for seg in segs {
        for (va, brow) in ctx.b_rows(seg) {
            flops += brow.len() as u64;
            match brow {
                BRow::Own(bc, bv) => {
                    for (&bcol, &bval) in bc.iter().zip(bv) {
                        acc.accumulate(bcol, S::mul(va, bval));
                    }
                }
                BRow::Fetched(entries) => {
                    for &(bcol, bval) in entries {
                        acc.accumulate(bcol, S::mul(va, bval));
                    }
                }
            }
        }
        for &(col, val) in ctx.cparts.row(seg.row as usize) {
            acc.accumulate(col, val);
        }
        let start = out.indices.len();
        drain_row(acc, out);
        debug_assert!(
            out.indices.len() - start <= ctx.row_bound(seg),
            "row {} drained past its reserved bound",
            seg.row
        );
    }
    flops
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgemm_net::World;
    use tsgemm_sparse::gen::{erdos_renyi, random_tall, rmat, RMAT_WEB};
    use tsgemm_sparse::spgemm::spgemm as local_spgemm;
    use tsgemm_sparse::{BoolAndOr, Coo, PlusTimesF64};

    /// Runs distributed TS-SpGEMM and checks the gathered result against a
    /// sequential multiply of the same operands.
    fn check(
        n: usize,
        d: usize,
        p: usize,
        acoo: &Coo<f64>,
        bcoo: &Coo<f64>,
        cfg: TsConfig,
    ) -> Vec<TsLocalStats> {
        let expected = local_spgemm::<PlusTimesF64>(
            &acoo.to_csr::<PlusTimesF64>(),
            &bcoo.to_csr::<PlusTimesF64>(),
            AccumChoice::Auto,
        );
        let out = World::run(p, |comm| {
            let dist = BlockDist::new(n, p);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(acoo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
            let b = DistCsr::from_global_coo::<PlusTimesF64>(bcoo, dist, comm.rank(), d);
            let (c_local, stats) = ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, &cfg);
            let c = DistCsr {
                dist,
                rank: comm.rank(),
                local: c_local,
            };
            (c.gather_global::<PlusTimesF64>(comm), stats)
        });
        for (c, _) in &out.results {
            assert!(
                c.approx_eq(&expected, 1e-9),
                "distributed result differs from sequential"
            );
        }
        out.results.into_iter().map(|(_, s)| s).collect()
    }

    #[test]
    fn stats_merge_is_total_over_every_field() {
        // Regression: an earlier fold-based merge silently dropped fields
        // (retry counts) added after it was written. The destructuring merge
        // makes that a compile error; this pins the runtime semantics.
        let a = TsLocalStats {
            flops: 1,
            peak_transient_bytes: 10,
            local_subtiles: 2,
            remote_subtiles: 3,
            diag_subtiles: 4,
            steps: 5,
            retries: 6,
        };
        let b = TsLocalStats {
            flops: 10,
            peak_transient_bytes: 7,
            local_subtiles: 20,
            remote_subtiles: 30,
            diag_subtiles: 40,
            steps: 3,
            retries: 60,
        };
        let mut ab = a;
        ab.merge(&b);
        assert_eq!(
            ab,
            TsLocalStats {
                flops: 11,
                peak_transient_bytes: 10,
                local_subtiles: 22,
                remote_subtiles: 33,
                diag_subtiles: 44,
                steps: 5,
                retries: 66,
            }
        );
        // Commutative: fold order across ranks must not matter.
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        // The registry lowering agrees with the struct merge laws.
        let mut ra = a.registry("ts");
        ra.merge(&b.registry("ts"));
        assert_eq!(ra, ab.registry("ts"));
    }

    #[test]
    fn registry_keys_and_types_are_stable() {
        use tsgemm_net::MetricValue::{Counter, Gauge};
        let s = TsLocalStats {
            flops: 1,
            peak_transient_bytes: 2,
            local_subtiles: 3,
            remote_subtiles: 4,
            diag_subtiles: 5,
            steps: 6,
            retries: 7,
        };
        let got: Vec<_> = s
            .registry("ts")
            .iter()
            .map(|((phase, name), v)| (phase.clone(), name.clone(), v.clone()))
            .collect();
        let want = [
            ("diag_subtiles", Counter(5)),
            ("flops", Counter(1)),
            ("local_subtiles", Counter(3)),
            ("peak_transient_bytes", Gauge(2.0)),
            ("remote_subtiles", Counter(4)),
            ("retries", Counter(7)),
            ("steps", Gauge(6.0)),
        ]
        .map(|(name, v)| ("ts".to_string(), name.to_string(), v));
        assert_eq!(got, want);
    }

    #[test]
    fn matches_sequential_default_config() {
        let n = 64;
        let d = 8;
        let acoo = erdos_renyi(n, 5.0, 21);
        let bcoo = random_tall(n, d, 0.5, 22);
        let stats = check(n, d, 4, &acoo, &bcoo, TsConfig::default());
        let total: u64 = stats.iter().map(|s| s.flops).sum();
        assert!(total > 0);
    }

    #[test]
    fn matches_sequential_all_policies() {
        let n = 48;
        let d = 6;
        let acoo = erdos_renyi(n, 6.0, 31);
        let bcoo = random_tall(n, d, 0.7, 32);
        for policy in [
            ModePolicy::Hybrid,
            ModePolicy::LocalOnly,
            ModePolicy::RemoteOnly,
        ] {
            let cfg = TsConfig {
                policy,
                ..TsConfig::default()
            };
            check(n, d, 3, &acoo, &bcoo, cfg);
        }
    }

    #[test]
    fn matches_sequential_small_tiles() {
        let n = 40;
        let d = 5;
        let acoo = erdos_renyi(n, 4.0, 41);
        let bcoo = random_tall(n, d, 0.4, 42);
        // Narrow tiles (w = n/p) and short tiles (h = 3) exercise multi-step.
        let cfg = TsConfig {
            tile_height: Some(3),
            tile_width: Some(10),
            ..TsConfig::default()
        };
        let stats = check(n, d, 4, &acoo, &bcoo, cfg);
        assert!(stats[0].steps > 1, "config must produce multiple steps");
    }

    #[test]
    fn matches_sequential_wide_tile_single_step() {
        let n = 30;
        let d = 4;
        let acoo = erdos_renyi(n, 5.0, 51);
        let bcoo = random_tall(n, d, 0.2, 52);
        let cfg = TsConfig {
            tile_width: Some(n),
            ..TsConfig::default()
        };
        let stats = check(n, d, 3, &acoo, &bcoo, cfg);
        assert_eq!(stats[0].steps, 1);
    }

    #[test]
    fn matches_sequential_hash_accumulator() {
        let n = 32;
        let d = 8;
        let acoo = erdos_renyi(n, 5.0, 61);
        let bcoo = random_tall(n, d, 0.5, 62);
        let cfg = TsConfig {
            accum: AccumChoice::Hash,
            ..TsConfig::default()
        };
        check(n, d, 4, &acoo, &bcoo, cfg);
    }

    #[test]
    fn matches_sequential_scale_free() {
        let n = 128;
        let d = 16;
        let acoo = rmat(7, 8.0, RMAT_WEB, 71);
        let bcoo = random_tall(n, d, 0.8, 72);
        let stats = check(n, d, 8, &acoo, &bcoo, TsConfig::default());
        let remote: u64 = stats.iter().map(|s| s.remote_subtiles).sum();
        let local: u64 = stats.iter().map(|s| s.local_subtiles).sum();
        assert!(remote + local > 0);
    }

    #[test]
    fn bool_semiring_multi_frontier() {
        let n = 40;
        let d = 4;
        let acoo = erdos_renyi(n, 4.0, 81).map_values(|_| true);
        let (fcoo, _) = tsgemm_sparse::gen::init_frontier(n, d, 82);
        let expected = local_spgemm::<BoolAndOr>(
            &acoo.to_csr::<BoolAndOr>(),
            &fcoo.to_csr::<BoolAndOr>(),
            AccumChoice::Auto,
        );
        let out = World::run(4, |comm| {
            let dist = BlockDist::new(n, 4);
            let a = DistCsr::from_global_coo::<BoolAndOr>(&acoo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<BoolAndOr>(comm, &a);
            let b = DistCsr::from_global_coo::<BoolAndOr>(&fcoo, dist, comm.rank(), d);
            let (c_local, _) = ts_spgemm::<BoolAndOr>(comm, &a, &ac, &b, &TsConfig::default());
            DistCsr {
                dist,
                rank: comm.rank(),
                local: c_local,
            }
            .gather_global::<BoolAndOr>(comm)
        });
        for c in out.results {
            assert_eq!(c, expected);
        }
    }

    /// Short, narrow tiles with every off-diagonal sub-tile remote, so each
    /// output row merges owner contributions, partials from several source
    /// ranks and several column bands.
    fn remote_only_small_tiles(accum: AccumChoice) -> TsConfig {
        TsConfig {
            tile_height: Some(3),
            tile_width: Some(10),
            policy: ModePolicy::RemoteOnly,
            accum,
            ..TsConfig::default()
        }
    }

    /// Runs distributed TS-SpGEMM under `cfg`, checks every rank's block is
    /// well-formed CSR, and returns the gathered product on each rank plus
    /// the number of remote sub-tiles served.
    fn gathered<S: Semiring>(
        n: usize,
        d: usize,
        p: usize,
        acoo: &Coo<S::T>,
        bcoo: &Coo<S::T>,
        cfg: &TsConfig,
    ) -> (Vec<Csr<S::T>>, u64) {
        let out = World::run(p, |comm| {
            let dist = BlockDist::new(n, p);
            let a = DistCsr::from_global_coo::<S>(acoo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<S>(comm, &a);
            let b = DistCsr::from_global_coo::<S>(bcoo, dist, comm.rank(), d);
            let (c_local, stats) = ts_spgemm::<S>(comm, &a, &ac, &b, cfg);
            c_local.validate().expect("rank output must be valid CSR");
            let c = DistCsr {
                dist,
                rank: comm.rank(),
                local: c_local,
            };
            (c.gather_global::<S>(comm), stats.remote_subtiles)
        });
        let remote = out.results.iter().map(|r| r.1).sum();
        (out.results.into_iter().map(|r| r.0).collect(), remote)
    }

    #[test]
    fn bool_semiring_remote_merge_is_byte_exact() {
        let n = 40;
        let d = 4;
        let acoo = erdos_renyi(n, 4.0, 81).map_values(|_| true);
        let (fcoo, _) = tsgemm_sparse::gen::init_frontier(n, d, 82);
        let expected = local_spgemm::<BoolAndOr>(
            &acoo.to_csr::<BoolAndOr>(),
            &fcoo.to_csr::<BoolAndOr>(),
            AccumChoice::Auto,
        );
        for accum in [AccumChoice::Spa, AccumChoice::Hash] {
            let cfg = remote_only_small_tiles(accum);
            let (results, remote) = gathered::<BoolAndOr>(n, d, 4, &acoo, &fcoo, &cfg);
            assert!(remote > 0, "{accum:?}: no remote sub-tiles exercised");
            for c in results {
                assert_eq!(c, expected, "{accum:?}");
            }
        }
    }

    #[test]
    fn merge_drops_entries_that_cancel_to_zero() {
        // p = 4, n = 20: blocks of 5 rows, column bands 0..10 and 10..20.
        let (n, d, p) = (20, 2, 4);
        let mut acoo = Coo::new(n, n);
        // Row 0: diagonal 2 against a remote partial -2 from rank 1 (same
        // column band), and two remote partials 3 / -3 from ranks 2 and 3.
        acoo.push(0, 0, 2.0);
        acoo.push(0, 5, -2.0);
        acoo.push(0, 12, 3.0);
        acoo.push(0, 15, -3.0);
        // Row 1: diagonal 1 in column band 0 against a remote partial -1 in
        // column band 1, cancelled by the cross-band merge.
        acoo.push(1, 1, 1.0);
        acoo.push(1, 11, -1.0);
        // Row 1 also keeps one entry that survives, in column 1.
        acoo.push(1, 6, 4.0);
        let mut bcoo = Coo::new(n, d);
        for r in [0, 1, 5, 11, 12, 15] {
            bcoo.push(r, 0, 1.0);
        }
        bcoo.push(6, 1, 1.0);
        let expected = local_spgemm::<PlusTimesF64>(
            &acoo.to_csr::<PlusTimesF64>(),
            &bcoo.to_csr::<PlusTimesF64>(),
            AccumChoice::Auto,
        );
        assert_eq!(expected.get(0, 0), None);
        assert_eq!(expected.get(1, 0), None);
        assert_eq!(expected.get(1, 1), Some(4.0));
        for accum in [AccumChoice::Spa, AccumChoice::Hash] {
            let cfg = remote_only_small_tiles(accum);
            let (results, remote) = gathered::<PlusTimesF64>(n, d, p, &acoo, &bcoo, &cfg);
            assert!(remote > 0, "{accum:?}: no remote sub-tiles exercised");
            for c in results {
                assert_eq!(c, expected, "{accum:?}: cancelled entries must be dropped");
                assert_eq!(c.nnz(), 1, "{accum:?}");
            }
        }
    }

    #[test]
    fn narrow_tiles_merge_row_segments_exactly() {
        // p = 4, n = 40, w = n/p: four column bands. Rows cycle through no
        // entries, entries in one column band, in two, and in all four, so
        // the band merge sees rows with 0, 1 and several segments. Small
        // integer values make every sum exact in any order, so the result
        // must equal the sequential product bit for bit.
        let (n, d, p) = (40, 6, 4);
        let mut acoo = Coo::new(n, n);
        for r in 0..n as Idx {
            let bands = match r % 4 {
                0 => vec![],
                1 => vec![(r / 4) % 4],
                2 => vec![0, 3],
                _ => vec![0, 1, 2, 3],
            };
            for band in bands {
                acoo.push(r, 10 * band + r % 10, 1.0);
                acoo.push(r, 10 * band + (r * 7 + 3) % 10, 2.0);
            }
        }
        let bcoo = random_tall(n, d, 0.5, 17).map_values(|v| (v * 8.0).floor() + 1.0);
        let expected = local_spgemm::<PlusTimesF64>(
            &acoo.to_csr::<PlusTimesF64>(),
            &bcoo.to_csr::<PlusTimesF64>(),
            AccumChoice::Auto,
        );
        let configured = tsgemm_pool::configured_threads();
        for h in [1, 3] {
            for policy in [ModePolicy::Hybrid, ModePolicy::RemoteOnly] {
                for accum in [AccumChoice::Spa, AccumChoice::Hash] {
                    let cfg = TsConfig {
                        tile_height: Some(h),
                        tile_width: Some(n / p),
                        policy,
                        accum,
                        ..TsConfig::default()
                    };
                    for threads in [1, 4] {
                        tsgemm_pool::set_threads(threads);
                        let (results, _) = gathered::<PlusTimesF64>(n, d, p, &acoo, &bcoo, &cfg);
                        for c in results {
                            assert_eq!(c, expected, "h={h} {policy:?} {accum:?} threads={threads}");
                        }
                    }
                }
            }
        }
        tsgemm_pool::set_threads(configured);
    }

    #[test]
    fn owner_row_bound_covers_every_drained_row() {
        // Rank 0 of p = 4 (blocks of 4 rows) owns band rows 0..4; w = 8
        // gives two column bands. Band 0 holds diagonal columns and rank
        // 1's local-mode sub-tile, band 1 rank 2's local-mode and rank 3's
        // remote-mode sub-tiles, so every kind of owner work is bounded.
        let (n, d, me) = (16, 6, 0);
        let dist = BlockDist::new(n, 4);
        let tiling = Tiling::new(dist, 4, 8);
        // Row 0 reaches all d columns from 9 products (the cap binds), row
        // 1 cancels, row 2 is empty and row 3 holds only a remote column.
        let a = Coo::from_entries(
            4,
            n,
            vec![
                (0, 0, 1.0),
                (0, 1, 2.0),
                (0, 4, 1.0),
                (0, 9, 1.0),
                (0, 13, 1.0),
                (1, 2, 1.0),
                (1, 6, -1.0),
                (1, 10, 2.0),
                (3, 14, 1.0),
            ],
        )
        .to_csr::<PlusTimesF64>();
        // B row k holds columns k, k+1, k+3 (mod d) with value 1: B rows 2
        // and 6 share column 3, where row 1's products cancel.
        let brow = |k: Idx| [k, k + 1, k + 3].map(|c| (c % d as Idx, 1.0));
        let b_local = Coo::from_entries(
            4,
            d,
            (0..4)
                .flat_map(|k| brow(k).map(|(c, v)| (k, c, v)))
                .collect(),
        )
        .to_csr::<PlusTimesF64>();
        let trips = |rows: std::ops::Range<Idx>| -> Vec<Trip<f64>> {
            rows.flat_map(|k| brow(k).map(|(col, val)| Trip { row: k, col, val }))
                .collect()
        };
        // Rank 3's partials for band rows 0 and 3; the first cancels B row
        // 9's product in column 3.
        let partials = vec![
            Trip {
                row: 0,
                col: 3,
                val: -1.0,
            },
            Trip {
                row: 0,
                col: 5,
                val: 1.0,
            },
            Trip {
                row: 3,
                col: 2,
                val: 1.0,
            },
        ];
        let steps = [
            (
                trips(4..8),
                vec![],
                [None, Some(TileMode::Local), None, None],
            ),
            (
                trips(8..12),
                partials,
                [None, None, Some(TileMode::Local), Some(TileMode::Remote)],
            ),
        ];
        let mut active = ActiveRows::new();
        active.fill(&a, 0..4, &tiling);
        let (mut brows, mut cparts) = (RowIndex::new(), RowIndex::new());
        let mut seen = [Vec::new(), Vec::new()];
        for (cb, (bmsg, cmsg, own)) in steps.into_iter().enumerate() {
            let (cb_lo, cb_hi) = tiling.col_band_range(cb);
            let mut bmsgs = vec![Vec::new(); 4];
            bmsgs[own
                .iter()
                .position(|m| *m == Some(TileMode::Local))
                .unwrap()] = bmsg;
            brows.fill(&bmsgs, cb_lo, (cb_hi - cb_lo) as usize, 0.0);
            cparts.fill(&[vec![], vec![], vec![], cmsg], 0, 4, 0.0);
            let ctx = OwnerCtx::<PlusTimesF64> {
                my_lo: 0,
                band_lo: 0,
                cb_lo,
                me,
                dist,
                a_local: &a,
                b_local: &b_local,
                own: &own,
                brows: &brows,
                cparts: &cparts,
                d,
            };
            let segs = active.step(cb);
            for (use_spa, seen) in [true, false].into_iter().zip(&mut seen) {
                let mut out = RowBlock::new();
                RowAccum::<PlusTimesF64>::new(use_spa, d).owner_rows(&ctx, segs, &mut out);
                for (k, seg) in segs.iter().enumerate() {
                    let drained = out.indptr[k + 1] - out.indptr[k];
                    let bound = ctx.row_bound(seg);
                    assert!(
                        drained <= bound && bound <= d,
                        "cb {cb} row {}: drained {drained}, bound {bound}",
                        seg.row
                    );
                    seen.push((cb, seg.row, drained, bound));
                }
            }
        }
        // (column band, row, drained, bound): row 0 hits the cap in band 0
        // and counts partials in band 1, cancellation leaves rows below
        // their bound, and row 3 is bounded by partials alone.
        let want = [
            (0, 0, 6, 6),
            (0, 1, 4, 6),
            (1, 0, 3, 5),
            (1, 1, 3, 3),
            (1, 3, 1, 1),
        ];
        assert_eq!(seen, [want, want]);
    }

    #[test]
    fn every_rank_output_is_valid_csr() {
        let n = 64;
        let d = 8;
        let acoo = rmat(6, 6.0, RMAT_WEB, 83);
        let bcoo = random_tall(n, d, 0.5, 84);
        let expected = local_spgemm::<PlusTimesF64>(
            &acoo.to_csr::<PlusTimesF64>(),
            &bcoo.to_csr::<PlusTimesF64>(),
            AccumChoice::Auto,
        );
        for accum in [AccumChoice::Spa, AccumChoice::Hash] {
            let cfg = remote_only_small_tiles(accum);
            let (results, _) = gathered::<PlusTimesF64>(n, d, 4, &acoo, &bcoo, &cfg);
            for c in results {
                assert!(c.approx_eq(&expected, 1e-9), "{accum:?}");
            }
        }
    }

    #[test]
    fn empty_b_gives_empty_c() {
        let n = 24;
        let d = 4;
        let acoo = erdos_renyi(n, 5.0, 91);
        let bcoo = Coo::new(n, d);
        let out = World::run(3, |comm| {
            let dist = BlockDist::new(n, 3);
            let a = DistCsr::from_global_coo::<PlusTimesF64>(&acoo, dist, comm.rank(), n);
            let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
            let b = DistCsr::from_global_coo::<PlusTimesF64>(&bcoo, dist, comm.rank(), d);
            let (c, _) = ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, &TsConfig::default());
            c.nnz()
        });
        assert!(out.results.iter().all(|&nnz| nnz == 0));
    }

    #[test]
    fn more_ranks_than_rows() {
        let n = 5;
        let d = 3;
        let acoo = erdos_renyi(n, 2.0, 95);
        let bcoo = random_tall(n, d, 0.0, 96);
        check(n, d, 8, &acoo, &bcoo, TsConfig::default());
    }

    #[test]
    fn hybrid_moves_no_more_than_local_only() {
        // The mode decision minimises moved nonzeros per sub-tile, so total
        // multiply-phase traffic under Hybrid must be <= LocalOnly.
        let n = 128;
        let d = 8;
        let acoo = rmat(7, 12.0, RMAT_WEB, 97);
        let bcoo = random_tall(n, d, 0.3, 98);
        let volume = |policy: ModePolicy| {
            let out = World::run(4, |comm| {
                let dist = BlockDist::new(n, 4);
                let a = DistCsr::from_global_coo::<PlusTimesF64>(&acoo, dist, comm.rank(), n);
                let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
                let b = DistCsr::from_global_coo::<PlusTimesF64>(&bcoo, dist, comm.rank(), d);
                let cfg = TsConfig {
                    policy,
                    ..TsConfig::default()
                };
                let _ = ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, &cfg);
            });
            out.profiles
                .iter()
                .map(|p| p.bytes_sent_tagged("ts:bfetch") + p.bytes_sent_tagged("ts:cret"))
                .sum::<u64>()
        };
        let hybrid = volume(ModePolicy::Hybrid);
        let local = volume(ModePolicy::LocalOnly);
        assert!(
            hybrid <= local,
            "hybrid ({hybrid}) must not exceed local-only ({local})"
        );
    }

    #[test]
    fn peak_transient_memory_grows_with_width() {
        let n = 256;
        let d = 16;
        let acoo = erdos_renyi(n, 8.0, 99);
        let bcoo = random_tall(n, d, 0.2, 100);
        let peak = |factor: usize| {
            let out = World::run(8, |comm| {
                let dist = BlockDist::new(n, 8);
                let a = DistCsr::from_global_coo::<PlusTimesF64>(&acoo, dist, comm.rank(), n);
                let ac = ColBlocks::build::<PlusTimesF64>(comm, &a);
                let b = DistCsr::from_global_coo::<PlusTimesF64>(&bcoo, dist, comm.rank(), d);
                let cfg = TsConfig::default().with_width_factor(factor, dist);
                let (_, stats) = ts_spgemm::<PlusTimesF64>(comm, &a, &ac, &b, &cfg);
                stats.peak_transient_bytes
            });
            out.results.into_iter().max().unwrap()
        };
        assert!(
            peak(8) >= peak(1),
            "wider tiles must not shrink peak transient memory"
        );
    }
}
