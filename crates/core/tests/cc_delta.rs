//! Differential test for the connected-components repair: after a
//! netted batch of inserts and deletes, `connected_components_delta`
//! must give exactly the labels `connected_components` computes from
//! scratch on the graph after the batch.
//!
//! Small random graphs carry one planted shape each, cut by the batch's
//! first deletes: a star whose leaves are cut off, a cycle cut once or
//! twice, and a chain P1–P2–P3 whose two bridges are cut in that order,
//! so that the short middle part runs dry first and both outer parts
//! are left behind under the old label.

use std::collections::{BTreeMap, BTreeSet};

use lagraph::{connected_components, connected_components_delta, Graph, GraphKind};
use proptest::prelude::*;

/// A shape on vertices `0..size`: its edges, and the deletes that cut
/// it, in batch order.
#[derive(Debug, Clone)]
struct Planted {
    size: usize,
    edges: Vec<(usize, usize)>,
    cuts: Vec<(usize, usize)>,
}

fn path(from: usize, to: usize) -> impl Iterator<Item = (usize, usize)> {
    (from..to.saturating_sub(1)).map(|i| (i, i + 1))
}

/// A star on `leaves` leaves with the first `cut` leaf edges cut.
fn star(leaves: usize, cut: usize) -> Planted {
    let edges: Vec<_> = (1..=leaves).map(|l| (0, l)).collect();
    Planted { size: leaves + 1, cuts: edges[..cut].to_vec(), edges }
}

/// A cycle of `len` vertices cut at the edges `at` (mod `len`).
fn cycle(len: usize, at: &[usize]) -> Planted {
    let edges: Vec<_> = (0..len).map(|i| (i, (i + 1) % len)).collect();
    Planted { size: len, cuts: at.iter().map(|&k| edges[k % len]).collect(), edges }
}

/// Paths P1 (`a` vertices), P2 (`b`) and P3 (`c`) joined by two bridges,
/// cut in that order.
fn chain(a: usize, b: usize, c: usize) -> Planted {
    let (p2, p3, size) = (a, a + b, a + b + c);
    let bridges = [(p2 - 1, p2), (p3 - 1, p3)];
    let edges = path(0, p2).chain(path(p2, p3)).chain(path(p3, size)).chain(bridges).collect();
    Planted { size, edges, cuts: bridges.to_vec() }
}

/// A permutation of `0..n` drawn from `seed` (Fisher–Yates over
/// xorshift64*).
fn shuffled(n: usize, mut seed: u64) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..n).collect();
    for k in (1..n).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        let r = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) % (k as u64 + 1);
        ids.swap(k, r as usize);
    }
    ids
}

fn dense_labels(g: &Graph) -> Vec<u64> {
    connected_components(g).expect("cc").iter().map(|(_, c)| c).collect()
}

fn canon(u: usize, v: usize) -> (usize, usize) {
    (u.min(v), u.max(v))
}

/// Apply `batch` (`(u, v, insert?)`, last write per edge wins) to the
/// undirected graph `edges` on `n` vertices, and check the repaired
/// labels against the from-scratch ones.
fn check(n: usize, edges: &[(usize, usize)], batch: &[(usize, usize, bool)]) {
    let before_set: BTreeSet<_> = edges.iter().map(|&(u, v)| canon(u, v)).collect();
    let before_edges: Vec<_> = before_set.iter().copied().collect();
    let before = Graph::from_edges(n, &before_edges, GraphKind::Undirected).expect("before");
    let mut last = BTreeMap::new();
    for (pos, &(u, v, insert)) in batch.iter().enumerate() {
        last.insert(canon(u, v), (pos, insert, (u, v)));
    }
    let mut writes: Vec<_> = last.into_values().collect();
    writes.sort_unstable();
    let (mut inserts, mut deletes, mut after_set) = (Vec::new(), Vec::new(), before_set.clone());
    for (_, insert, (u, v)) in writes {
        match (insert, before_set.contains(&canon(u, v))) {
            (true, false) => inserts.push((u, v)),
            (false, true) => deletes.push((u, v)),
            _ => continue,
        }
        if insert {
            after_set.insert(canon(u, v));
        } else {
            after_set.remove(&canon(u, v));
        }
    }
    let after_edges: Vec<_> = after_set.into_iter().collect();
    let after = Graph::from_edges(n, &after_edges, GraphKind::Undirected).expect("after");
    let got = connected_components_delta(&after, &dense_labels(&before), &inserts, &deletes);
    assert_eq!(got, dense_labels(&after), "inserts {inserts:?}, deletes {deletes:?}");
}

#[test]
fn a_chain_cut_at_both_bridges_relabels_both_outer_parts() {
    // P1 = 0..5, P2 = {5}, P3 = 6..11: the first cut leaves {5} dry and
    // 4 pending; the second finds 5 fixed and queues 6. Only the pending
    // pass tells P1 from P3.
    let c = chain(5, 1, 6);
    let batch: Vec<_> = c.cuts.iter().map(|&(u, v)| (u, v, false)).collect();
    check(c.size, &c.edges, &batch);
    // The same chain with the old label's own vertex in the middle part.
    let mid = |v: usize| match v {
        0 => 5,
        5 => 0,
        v => v,
    };
    let edges: Vec<_> = c.edges.iter().map(|&(u, v)| (mid(u), mid(v))).collect();
    let batch: Vec<_> = batch.iter().map(|&(u, v, x)| (mid(u), mid(v), x)).collect();
    check(c.size, &edges, &batch);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A planted shape, shuffled among up to eight more vertices with
    /// random edges of their own, cut by its deletes and then a random
    /// batch over every vertex.
    #[test]
    fn repaired_labels_equal_the_from_scratch_labels(
        shape in 0usize..3,
        sizes in (2usize..10, 1usize..10, 5usize..9, 1usize..4, 5usize..9),
        more in 0usize..9,
        seed in any::<u64>(),
        extra in proptest::collection::vec((0usize..64, 0usize..64), 0..24),
        ops in proptest::collection::vec((0usize..64, 0usize..64, any::<bool>()), 0..24),
    ) {
        let (k, m, a, b, c) = sizes;
        let planted = match shape {
            0 => star(k, m.min(k)),
            1 => cycle(k + 1, &[m, m * 7 + a]),
            _ => chain(a, b, c),
        };
        let n = planted.size + more;
        let ids = shuffled(n, seed | 1);
        let id = |(u, v): (usize, usize)| (ids[u], ids[v]);
        let edges: Vec<_> = planted
            .edges
            .iter()
            .map(|&e| id(e))
            .chain(extra.iter().map(|&(u, v)| (u % n, v % n)))
            .collect();
        let batch: Vec<_> = planted
            .cuts
            .iter()
            .map(|&e| {
                let (u, v) = id(e);
                (u, v, false)
            })
            .chain(ops.iter().map(|&(u, v, x)| (u % n, v % n, x)))
            .collect();
        check(n, &edges, &batch);
    }
}
