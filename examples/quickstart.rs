//! Quickstart: build a graph, run the Fig. 2 BFS, shortest paths,
//! PageRank, triangle counting, and connected components — the core menu
//! of the LAGraph collection — on a small scale-free graph.
//!
//! Run with: `cargo run --release --example quickstart`

use lagraph_suite::lagraph::gen::{self, RmatConfig};
use lagraph_suite::prelude::*;

fn main() -> graphblas::Result<()> {
    // A scale-free RMAT graph with unit weights, the Graph500 workload shape.
    let g = gen::rmat_graph(&RmatConfig { scale: 10, edge_factor: 8, ..Default::default() })?;
    println!("graph: {} vertices, {} edges", g.nvertices(), g.nedges() / 2);

    // Level BFS from vertex 0 (the paper's Fig. 2 algorithm).
    let levels = bfs_level(&g, 0)?;
    let reached = levels.nvals();
    let depth = levels.iter().map(|(_, d)| d).max().unwrap_or(0);
    println!("bfs: reached {reached} vertices, {depth} levels");

    // Parent BFS gives the tree.
    let parents = bfs_parent(&g, 0)?;
    println!("bfs tree: {} parent pointers", parents.nvals());

    // Single-source shortest paths (unit weights here).
    let dist = sssp_bellman_ford(&g, 0)?;
    let far = dist.iter().map(|(_, d)| d).fold(0.0f64, f64::max);
    println!("sssp: eccentricity of vertex 0 = {far}");

    // PageRank.
    let (ranks, iters) = pagerank(&g, &PageRankOptions::default())?;
    let (top, score) = lagraph::utils::argmax(&ranks).expect("nonempty");
    println!("pagerank: converged in {iters} iterations; top vertex {top} ({score:.5})");

    // Triangle counting, three ways — they must agree.
    let t1 = triangle_count(&g, TriCountMethod::Burkhardt)?;
    let t2 = triangle_count(&g, TriCountMethod::Cohen)?;
    let t3 = triangle_count(&g, TriCountMethod::Sandia)?;
    assert_eq!(t1, t2);
    assert_eq!(t2, t3);
    println!("triangles: {t1}");

    // Connected components.
    let ncomp = component_count(&g)?;
    println!("components: {ncomp}");
    Ok(())
}
