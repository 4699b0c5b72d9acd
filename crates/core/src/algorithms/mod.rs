//! The LAGraph algorithm collection (§V of the paper), each built purely
//! on the public GraphBLAS API. `docs/ALGORITHMS.md` is the user-facing
//! catalog: semirings, complexity, provenance, and service availability
//! for every module below.
//!
//! A few algorithms additionally expose *incremental* (`*_delta` /
//! `*_warm`) entry points that repair a previous answer from a batch of
//! edge changes instead of recomputing — the engine behind
//! [`crate::service::views`], and behind the component labels
//! [`Graph::advance`](crate::Graph::advance) carries from one graph to
//! the next. Like every other entry point they take a
//! [`Graph`](crate::Graph) — the one before the batch or the one after
//! it, as each documents — and read just the rows the repair visits
//! through [`graphblas::Matrix::rows`], so a caller needs no copy of the
//! graph beside the snapshots it already holds.

pub use crate::graph::EdgeEvent;

pub mod apsp;
pub mod astar;
pub mod bc;
pub mod bfs;
pub mod cc;
pub mod cdlp;
pub mod coloring;
pub mod dnn;
pub mod gnn;
pub mod kcore;
pub mod ktruss;
pub mod local_cluster;
pub mod matching;
pub mod mcl;
pub mod mis;
pub mod msf;
pub mod pagerank;
pub mod peer_pressure;
pub mod scc;
pub mod sssp;
pub mod subgraph;
pub mod triangle_centrality;
pub mod tricount;

pub use apsp::apsp;
pub use astar::astar;
pub use bc::betweenness_centrality;
pub use bfs::{
    bfs_level, bfs_level_batch, bfs_level_batch_matrix, bfs_level_direction, bfs_level_matrix,
    bfs_parent,
};
pub use cc::{component_count, connected_components, connected_components_delta};
pub use cdlp::cdlp;
pub use coloring::{greedy_color, verify_coloring};
pub use dnn::{dnn_categorize, dnn_inference, DnnLayer};
pub use gnn::{gcn_inference, node_classification, normalized_adjacency, GcnLayer};
pub use kcore::{core_numbers, core_numbers_insert, kcore};
pub use ktruss::{ktruss, max_truss};
pub use local_cluster::{approximate_ppr, conductance, local_cluster, LocalClusterOptions};
pub use matching::{bipartite_matching, verify_matching};
pub use mcl::{markov_cluster, MclOptions};
pub use mis::{maximal_independent_set, verify_mis};
pub use msf::{forest_weight, minimum_spanning_forest};
pub use pagerank::{pagerank, pagerank_warm, PageRankOptions};
pub use peer_pressure::peer_pressure;
pub use scc::{scc_count, strongly_connected_components};
pub use sssp::{sssp_bellman_ford, sssp_delta_stepping};
pub use subgraph::{subgraph_counts, SubgraphCounts};
pub use triangle_centrality::triangle_centrality;
pub use tricount::{
    triangle_count, triangle_count_delta, triangle_count_per_vertex, TriCountMethod,
};
