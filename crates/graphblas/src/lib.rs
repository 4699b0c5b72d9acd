//! # graphblas — a pure-Rust GraphBLAS
//!
//! An implementation of the GraphBLAS as specified by the C API the LAGraph
//! paper builds on: opaque sparse [`Matrix`]/[`Vector`] objects over
//! arbitrary scalar domains, the full Table I operation set (`mxm`, `mxv`,
//! `vxm`, element-wise add/multiply, `reduce`, `apply`, `transpose`,
//! `extract`, `assign`) plus `select` and `kronecker`, all under
//! mask/accumulator/descriptor control, with:
//!
//! * CSR, CSC, hypersparse-CSR and hypersparse-CSC storage, selected
//!   automatically;
//! * non-blocking incremental updates via pending tuples and zombies;
//! * Gustavson, dot-product, and heap `mxm` kernels with masked variants;
//! * push/pull (direction-optimized) matrix-vector products over dual
//!   sparse/dense vector representations;
//! * early-exit (terminal) monoids;
//! * O(1) import/export of raw CSR/CSC arrays;
//! * a dense reference *mimic* of every operation for conformance testing.
//!
//! The semiring structure is generic: any [`Monoid`] paired with any
//! [`BinaryOp`] is a semiring, and closures are accepted as user-defined
//! operators throughout.
//!
//! # Module map (paper section → module)
//!
//! | paper section | what it describes | module |
//! |---|---|---|
//! | §II.A objects & non-blocking mode | opaque objects, pending tuples, zombies | [`Matrix`], [`Vector`] (`matrix`/`vector`) |
//! | §II.A storage forms | CSR/CSC/hypersparse, automatic selection | `sparse` (internal), [`Format`] |
//! | §II.A semiring census | the 960 built-in semirings | [`registry`], [`semiring`], [`monoid`], [`binaryop`], [`unaryop`] |
//! | Table I operation set | `mxm`, `mxv`, `eWiseAdd`, … under mask/accum/desc | [`ops`], [`descriptor`] |
//! | §II.E direction optimization | push/pull choice, measured cost model | [`cost`], `ops::mxv` |
//! | §IV O(1) data movement | import/export of raw arrays | [`import`] |
//! | §III testing methodology | the dense "MATLAB mimic" reference | [`mimic`] |
//! | (SuiteSparse "burble") | the event pipeline: spans and instants fanned out to the ring, the burble, and the registry; profiles, Chrome traces | [`trace`] |
//! | (serving telemetry) | live counters/gauges/histograms, Prometheus `/metrics` — one sink of `trace` | [`metrics`] |
//! | (configuration) | the one reader of `GRAPHBLAS_*` / `LAGRAPH_*` environment knobs | [`mod@env`] |
//! | (execution substrate) | the chunked worker pool every kernel uses | [`parallel`] |
//! | (C API `GrB_Info`) | typed error codes | [`error`] |
//!
//! Concurrency contract: reading a matrix takes `&self` and resolves
//! deferred updates lazily behind an internal lock; the `*_sync` entry
//! points ([`Matrix::set_element_sync`], [`Matrix::remove_element_sync`])
//! extend the same lock discipline to concurrent writers, which is what
//! the `lagraph::service` layer builds its update log on.

#![warn(missing_docs)]

pub mod binaryop;
pub mod compressed;
pub mod cost;
pub mod descriptor;
pub mod env;
pub mod error;
pub mod metrics;
pub mod monoid;
pub mod parallel;
pub mod semiring;
pub mod trace;
pub mod types;
pub mod unaryop;

mod layered;
mod matrix;
mod sparse;
mod vector;

pub mod import;
pub mod mimic;
pub mod ops;
pub mod registry;

pub use binaryop::BinaryOp;
pub use compressed::CompressedMat;
pub use descriptor::{Descriptor, Direction, MxmMethod};
pub use error::{Error, Result};
pub use matrix::{net_edits, Edit, Format, Layers, Matrix, MemoryUsage, Rows};
pub use monoid::Monoid;
pub use semiring::Semiring;
pub use types::{All, Index, Num, Scalar};
pub use unaryop::{IndexUnaryOp, UnaryOp};
pub use vector::{Vector, VectorFormat};

/// Always `true`. Every product runs the inner loop its monoid picks, and
/// no switch turns that off; the function stays only for callers that
/// still record it.
pub fn specialization_enabled() -> bool {
    true
}

/// Everything needed to write GraphBLAS-style algorithms.
pub mod prelude {
    pub use crate::binaryop::{self, BinaryOp};
    pub use crate::descriptor::{Descriptor, Direction, MxmMethod, DESC_TRAN_COMP_REPLACE};
    pub use crate::error::{Error, Result};
    pub use crate::matrix::{Format, Matrix};
    pub use crate::monoid::{Any, Monoid};
    pub use crate::ops::*;
    pub use crate::semiring::{self, Semiring};
    pub use crate::types::{All, Index, Num, Scalar};
    pub use crate::unaryop::{self, IndexUnaryOp, UnaryOp};
    pub use crate::vector::{Vector, VectorFormat};
}
