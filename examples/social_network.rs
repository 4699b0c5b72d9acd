//! Social-network analytics scenario: centrality, community structure,
//! and cohesion on a synthetic social graph — the data-science pipeline
//! the paper's introduction motivates (graphs flowing through a sequence
//! of analyses).
//!
//! Run with: `cargo run --release --example social_network`

use lagraph_suite::lagraph::gen::{self, RmatConfig};
use lagraph_suite::prelude::*;

fn main() -> graphblas::Result<()> {
    // Synthetic "social" graph: scale-free, heavy-tailed degrees.
    let cfg = RmatConfig { scale: 9, edge_factor: 10, seed: 7, ..Default::default() };
    let g = gen::rmat_graph(&cfg)?;
    let n = g.nvertices();
    println!("social graph: {} users, {} ties", g.nvertices(), g.nedges() / 2);

    // Influencers: PageRank + betweenness (sampled sources).
    let (ranks, _) = pagerank(&g, &PageRankOptions::default())?;
    let mut top: Vec<(Index, f64)> = ranks.iter().collect();
    top.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN"));
    println!("top-5 by pagerank:");
    for (v, r) in top.iter().take(5) {
        println!("  user {v:4}  rank {r:.5}");
    }
    let sample: Vec<Index> = (0..32).map(|k| (k * 17) % n).collect();
    let bc = betweenness_centrality(&g, &sample)?;
    let (broker, score) = lagraph::utils::argmax(&bc).expect("nonempty");
    println!("top broker (sampled betweenness): user {broker} ({score:.1})");

    // Community structure: peer-pressure clustering, and a local cluster
    // around the top influencer.
    let communities = peer_pressure(&g, 16)?;
    let mut labels: Vec<u64> = communities.iter().map(|(_, c)| c).collect();
    labels.sort_unstable();
    labels.dedup();
    println!("peer-pressure communities: {}", labels.len());

    let seed = top[0].0;
    let (members, phi) = local_cluster(&g, seed, &LocalClusterOptions::default())?;
    println!("local cluster around user {seed}: {} members, conductance {phi:.4}", members.len());

    // Cohesion: triangles and the strongest truss.
    let triangles = triangle_count(&g, TriCountMethod::Sandia)?;
    let truss = max_truss(&g)?;
    println!("cohesion: {triangles} triangles; densest subgroup is a {truss}-truss");

    // Independent "panel" selection: no two panelists know each other.
    let panel = maximal_independent_set(&g, 2024)?;
    assert!(verify_mis(&g, &panel)?);
    println!("independent panel: {} users", panel.nvals());
    Ok(())
}
