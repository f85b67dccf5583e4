//! Distributed TS-SpGEMM — the paper's primary contribution.
//!
//! `C = A ⊗ B` with `A ∈ R^{n×n}` sparse and `B ∈ R^{n×d}` sparse
//! tall-and-skinny, on `p` ranks:
//!
//! * [`part`] — 1-D block distribution shared by `A`(rows), `A^c`(columns),
//!   `B`, `C`(rows);
//! * [`dist`] — row-distributed CSR blocks;
//! * [`colpart`] — the extra column-partitioned copy `A^c` (§III-A);
//! * [`tiling`] — the `h × w` virtual-2-D tile grid and per-sub-tile entry
//!   buckets (§III-B);
//! * [`mode`] — the symbolic local/remote selection step (§III-D);
//! * [`exec`] — the tile-by-tile driver with consolidated AllToAll
//!   communication (Alg. 2), and [`TsPlan`], its `A`-only part kept for
//!   repeated multiplies by the same `A`;
//! * [`naive`] — Alg. 1, the request-based 1-D Gustavson baseline as
//!   implemented by PETSc/Trilinos;
//! * [`spmm`] — the distributed SpMM contender with the same communication
//!   pattern but a dense `B` (§V-C);
//! * [`sddmm`] — distributed SDDMM over the same schedule (the FusedMM
//!   companion kernel, ref \[53\]), used for sigmoid-exact embedding forces.
//!
//! The high-level entry point is [`multiply`], which builds `A^c` and runs
//! the tiled algorithm in one call.

pub mod colpart;
pub mod dist;
pub mod exec;
pub mod mode;
pub mod naive;
pub mod part;
pub mod sddmm;
pub mod spmm;
pub mod tiling;

pub use colpart::ColBlocks;
pub use dist::DistCsr;
pub use exec::{try_ts_spgemm, ts_spgemm, TsConfig, TsLocalStats, TsPlan};
pub use mode::{ModePolicy, TileMode};
pub use part::BlockDist;
pub use tiling::{TileConfig, Tiling};

/// The `tsgemm-trace` observability facade: unified metrics registry,
/// Chrome-trace timeline export, and the run-level trace switch. Implemented
/// in [`tsgemm_net`], re-exported here so algorithm and application crates
/// only depend on the core facade.
pub mod trace {
    pub use tsgemm_net::alloc::{self, CountingAlloc, MemScope, MemUse};
    pub use tsgemm_net::flight::{
        write_flight_jsonl, FlightEvent, FlightEventKind, FlightRecorder,
    };
    pub use tsgemm_net::metrics::{Histogram, MetricValue, Metrics, MetricsRegistry};
    pub use tsgemm_net::stats::PhaseSpan;
    pub use tsgemm_net::telemetry::{
        self, MatrixSlice, RankSnapshot, Telemetry, TelemetrySnapshot, TELEMETRY_ADDR_ENV,
    };
    pub use tsgemm_net::trace::{
        chrome_trace_json, phase_rollup, render_rollup, write_trace_files, PhaseRollup, TraceConfig,
    };
}

use tsgemm_net::Comm;
use tsgemm_sparse::semiring::Semiring;
use tsgemm_sparse::Csr;

/// One-call TS-SpGEMM: builds the column-partitioned copy of `A` (setup,
/// tagged `setup:colpart`) and multiplies. Returns this rank's `C` block and
/// local statistics. For repeated multiplies against the same `A` (BFS,
/// embedding epochs), build [`ColBlocks`] once and call [`ts_spgemm`]
/// directly, or multiply through one [`TsPlan`].
pub fn multiply<S: Semiring>(
    comm: &mut Comm,
    a: &DistCsr<S::T>,
    b: &DistCsr<S::T>,
    cfg: &TsConfig,
) -> (Csr<S::T>, TsLocalStats) {
    let ac = ColBlocks::build::<S>(comm, a);
    ts_spgemm::<S>(comm, a, &ac, b, cfg)
}
