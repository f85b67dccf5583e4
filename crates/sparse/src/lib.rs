//! Sparse-matrix substrate for the TS-SpGEMM reproduction.
//!
//! This crate provides everything the distributed algorithms are built from:
//!
//! * storage formats: [`coo::Coo`], [`csr::Csr`], [`csc::Csc`], [`dense::DenseMat`];
//! * algebra: the [`semiring::Semiring`] trait with the instances used in the
//!   paper (`(+,×)`, `(∧,∨)`, `(min,+)`, `(sel2nd,min)`);
//! * accumulators: dense [`accum::Spa`] and open-addressing [`accum::HashAccum`]
//!   (§III-C of the paper);
//! * local kernels: row-wise Gustavson SpGEMM ([`spgemm`]), CSR×dense SpMM
//!   ([`spmm`]), semiring merge of partial results ([`merge`]), element-wise
//!   set ops ([`ewise`]) and top-k sparsification ([`sparsify`]);
//! * workload generators matching Table V ([`gen`]), MatrixMarket I/O
//!   ([`io`]), and bandwidth-reducing reordering ([`perm`], RCM) — the
//!   preprocessing that restores the crawl-order locality the 1-D
//!   algorithms exploit.
//!
//! All matrices use `u32` global indices ([`Idx`]) and are generic over the
//! stored scalar, so the same containers carry `f64` values for numeric
//! semirings and `bool` for the BFS semiring.

pub mod accum;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod ewise;
pub mod gen;
pub mod io;
pub mod merge;
pub mod perm;
pub mod semiring;
pub mod sparsify;
pub mod spgemm;
pub mod spmm;

/// Global row/column index type. `u32` is sufficient for every workload in
/// the paper's evaluation scaled to a single machine and halves index
/// bandwidth relative to `usize`, which matters because index bytes are part
/// of the communication volumes the experiments measure.
pub type Idx = u32;

pub use coo::Coo;
pub use csc::Csc;
pub use csr::Csr;
pub use dense::DenseMat;
pub use semiring::{BoolAndOr, MinPlusF64, PlusTimesF64, Sel2ndMinF64, Semiring};

/// Number of bytes a sparse entry (index + value) occupies on the wire, used
/// consistently by the communication accounting.
pub const fn entry_bytes<T>() -> usize {
    std::mem::size_of::<Idx>() + std::mem::size_of::<T>()
}
