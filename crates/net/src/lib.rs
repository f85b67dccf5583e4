//! Simulated MPI runtime for the TS-SpGEMM reproduction.
//!
//! The paper runs on NERSC Perlmutter with Cray-MPICH; this crate replaces
//! that substrate with an in-process runtime that executes the *same
//! distributed algorithms* faithfully:
//!
//! * [`world::World::run`] launches `p` ranks as OS threads;
//! * [`comm::Comm`] provides lock-step collectives — `alltoallv`,
//!   `allgatherv`, `bcast`, `allreduce`, `gatherv`, `barrier` and
//!   `split` (sub-communicators for the SUMMA grids) — over one exchange
//!   slab per group: per-rank slots plus a generation barrier;
//! * every collective records exactly how many payload bytes moved between
//!   which ranks ([`stats`]), so communication *volumes* are measured, not
//!   modeled;
//! * [`cost::CostModel`] converts those volumes into modeled elapsed time
//!   with the same α–β machine model the paper uses for its complexity
//!   analysis (§III-E), with distinct intra-/inter-node bandwidths and a
//!   flops-based compute term.
//!
//! The separation matters on this host (a single core): measured wall-clock
//! across oversubscribed thread-ranks is meaningless, but volumes are exact
//! and the α–β model turns them into defensible scaling shapes. Harnesses
//! report both measured and modeled numbers.
//!
//! The [`fault`] module adds a deterministic fault-injection layer on top:
//! [`world::World::try_run`] executes a rank function under a [`FaultPlan`]
//! (crashes, transient failures, payload tampering, stragglers) and returns
//! per-rank `Result`s plus a [`HangReport`] diagnosing where every rank was
//! parked when a run went down. Fallible `try_*` variants of every
//! collective return typed [`CommError`]s instead of panicking.

pub mod alloc;
pub mod comm;
pub mod cost;
pub mod fault;
pub mod flight;
mod futex;
pub mod metrics;
mod rank_log;
mod slab;
pub mod stats;
pub mod telemetry;
pub mod trace;
pub mod world;

pub use comm::{Comm, SpanGuard};
pub use cost::{CostModel, ModeledTime};
pub use fault::{
    CommError, Fault, FaultKind, FaultPlan, HangEntry, HangReport, ParkedPosition, RankFailure,
    Trigger,
};
pub use flight::{
    write_flight_jsonl, FlightEvent, FlightEventKind, FlightRecorder, FlightTag,
    DEFAULT_FLIGHT_CAPACITY,
};
pub use metrics::{Histogram, MetricValue, Metrics, MetricsRegistry};
pub use stats::{CollKind, CollectiveRecord, PhaseSpan, RankProfile, Segment};
pub use telemetry::{MatrixSlice, RankSnapshot, Telemetry, TelemetrySnapshot, TELEMETRY_ADDR_ENV};
pub use trace::{
    chrome_trace_json, phase_rollup, render_rollup, write_trace_files, PhaseRollup, TraceConfig,
};
pub use world::{RunOutput, TryRunOutput, World};
