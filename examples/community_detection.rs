//! Community detection: Markov clustering vs peer-pressure clustering vs
//! connected components on a planted-partition graph, with agreement
//! statistics — exercising the clustering algorithms of §V side by side.
//!
//! Run with: `cargo run --release --example community_detection`

use lagraph_suite::lagraph::gen;
use lagraph_suite::prelude::*;

/// Planted-partition graph: `k` blocks of `size` vertices, each block an
/// Erdős–Rényi draw of `m_in` edges (dense inside), plus one draw of
/// `m_out` edges over all `k · size` vertices (sparse, mostly across).
fn planted_partition(
    k: usize,
    size: usize,
    m_in: usize,
    m_out: usize,
    seed: u64,
) -> graphblas::Result<(Graph, Vec<usize>)> {
    let n = k * size;
    let mut edges = Vec::new();
    for b in 0..k {
        let block = gen::erdos_renyi(size, m_in, seed + b as u64)?;
        edges.extend(block.iter().map(|(i, j, _)| (b * size + i, b * size + j)));
    }
    let across = gen::erdos_renyi(n, m_out, seed + k as u64)?;
    edges.extend(across.iter().map(|(i, j, _)| (i, j)));
    let truth: Vec<usize> = (0..n).map(|v| v / size).collect();
    Ok((Graph::from_edges(n, &edges, GraphKind::Undirected)?, truth))
}

/// Fraction of vertex pairs on which two labelings agree (same/different
/// cluster) — the Rand index.
fn rand_index(a: &[u64], b: &[usize]) -> f64 {
    let n = a.len();
    let mut agree = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            let same_a = a[i] == a[j];
            let same_b = b[i] == b[j];
            if same_a == same_b {
                agree += 1;
            }
            total += 1;
        }
    }
    agree as f64 / total as f64
}

fn labels_of(v: &Vector<u64>, n: usize) -> Vec<u64> {
    let mut out = vec![0u64; n];
    for (i, c) in v.iter() {
        out[i] = c;
    }
    out
}

fn main() -> graphblas::Result<()> {
    // Duplicate draws collapse: about 45 % of the pairs inside a block
    // are edges, and about 2 % of those across blocks.
    let (g, truth) = planted_partition(4, 24, 165, 90, 11)?;
    let n = g.nvertices();
    println!("planted partition: {} vertices in 4 blocks, {} edges", n, g.nedges() / 2);

    let mcl = markov_cluster(&g, &MclOptions::default())?;
    let mcl_labels = labels_of(&mcl, n);
    println!("markov clustering:   rand index {:.3}", rand_index(&mcl_labels, &truth));

    let pp = peer_pressure(&g, 20)?;
    let pp_labels = labels_of(&pp, n);
    println!("peer pressure:       rand index {:.3}", rand_index(&pp_labels, &truth));

    // Connected components as the (weak) baseline: everything is one
    // component here, so its Rand index is the chance level.
    let cc = connected_components(&g)?;
    let cc_labels = labels_of(&cc, n);
    println!("connected components: rand index {:.3} (baseline)", rand_index(&cc_labels, &truth));

    // The real clusterings should beat the baseline comfortably.
    let mcl_ri = rand_index(&mcl_labels, &truth);
    let cc_ri = rand_index(&cc_labels, &truth);
    assert!(mcl_ri > cc_ri, "MCL ({mcl_ri:.3}) should beat components ({cc_ri:.3})");
    println!("ok: clustering recovers the planted structure");
    Ok(())
}
