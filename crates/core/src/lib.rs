//! # lagraph — graph algorithms built on top of the GraphBLAS
//!
//! The Rust realization of the library the LAGraph position paper calls
//! for: a [`Graph`] object with cached derived properties,
//! and a collection of graph algorithms (§V) written exclusively against
//! the GraphBLAS API of the [`graphblas`] crate — BFS (level, parent, and
//! direction-optimized), single-source and all-pairs shortest paths,
//! betweenness centrality, triangle counting, k-truss, connected
//! components, PageRank, graph coloring, maximal independent set,
//! bipartite matching, Markov and peer-pressure clustering, local graph
//! clustering, sparse deep-neural-network inference, and A* search.
//!
//! Beyond the algorithm suite, [`service`] turns the library into a
//! *serving* layer: a [`service::GraphService`] multiplexes concurrent
//! read queries over epoch-tagged immutable snapshots while a background
//! drainer batches streaming edge updates through the GraphBLAS
//! pending-tuple/zombie machinery. The [`gen`] module generates the
//! seeded Graph500-style synthetic workloads the repo benchmark
//! (`benchmark/`) and any reproducible experiment measure against.

#![warn(missing_docs)]

pub mod algorithms;
pub mod gen;
pub mod graph;
pub mod harness;
pub mod service;
pub mod utils;

pub use algorithms::*;
pub use graph::{Graph, GraphKind};
/// Runtime tracing & profiling (re-exported from the GraphBLAS layer):
/// algorithms open [`trace::algo_span`]/[`trace::iter_span`] spans so a
/// drained trace shows per-iteration frontier sizes, residuals, and the
/// kernels each iteration chose.
pub use graphblas::trace;
