//! k-core decomposition: the maximal subgraph in which every vertex has
//! degree ≥ k, and the full core-number labeling — a standard LAGraph
//! algorithm, computed by repeated peeling with masked degree updates.

use std::collections::HashMap;

use graphblas::prelude::*;
use graphblas::semiring::PLUS_SECOND;

use crate::graph::Graph;

/// The k-core of an undirected graph: returns the Boolean membership
/// vector of vertices in the k-core (possibly empty).
pub fn kcore(graph: &Graph, k: i64) -> Result<Vector<bool>> {
    let s = graph.structure()?;
    let a: &Matrix<bool> = &s;
    let n = a.nrows();
    // alive: current candidate set; degrees restricted to alive vertices.
    let mut alive = Vector::<bool>::new(n)?;
    assign_scalar(&mut alive, None, NOACC, true, &IndexSel::All, &Descriptor::default())?;
    loop {
        // deg(v) = |N(v) ∩ alive| for alive v.
        let ones = {
            let mut o = Vector::<f64>::new(n)?;
            apply(&mut o, None, NOACC, |_: bool| 1.0, &alive, &Descriptor::default())?;
            o
        };
        let mut deg = Vector::<f64>::new(n)?;
        mxv(
            &mut deg,
            Some(&alive),
            NOACC,
            &PLUS_SECOND,
            a,
            &ones,
            &Descriptor::new().structural(),
        )?;
        // Peel vertices with degree < k (including alive vertices with no
        // alive neighbors at all).
        let mut peeled = Vec::new();
        for (v, _) in alive.iter() {
            if deg.get(v).unwrap_or(0.0) < k as f64 {
                peeled.push(v);
            }
        }
        if peeled.is_empty() {
            return Ok(alive);
        }
        for v in peeled {
            alive.remove_element(v)?;
        }
        if alive.nvals() == 0 {
            return Ok(alive);
        }
    }
}

/// Core numbers: `core(v)` = the largest k such that `v` belongs to the
/// k-core. Computed by successive peeling.
pub fn core_numbers(graph: &Graph) -> Result<Vector<i64>> {
    let n = graph.nvertices();
    let mut core = Vector::<i64>::new(n)?;
    assign_scalar(&mut core, None, NOACC, 0, &IndexSel::All, &Descriptor::default())?;
    let mut k = 1;
    loop {
        let members = kcore(graph, k)?;
        if members.nvals() == 0 {
            return Ok(core);
        }
        assign_scalar(
            &mut core,
            Some(&members),
            NOACC,
            k,
            &IndexSel::All,
            &Descriptor::new().structural(),
        )?;
        k += 1;
    }
}

/// Incrementally repair core numbers after a batch of edge *insertions*
/// — the traversal insertion algorithm of Sarıyüce et al. (streaming
/// k-core decomposition). Deletions have no comparably local repair
/// rule here; [`Graph::advance`] drops the core numbers for them, and
/// [`Graph::cores`] recomputes them by [`core_numbers`].
///
/// * `before` — the graph **before** the batch (undirected); its rows
///   are read under one lock for the whole call.
/// * `core` — dense core numbers on `before`, updated in place.
/// * `inserts` — the real structural insertions, in application order.
///
/// Each insertion of `(u, v)` can raise core numbers by at most one,
/// and only inside the *subcore*: the vertices with core exactly
/// `k = min(core(u), core(v))` reachable from the endpoint(s) at `k`
/// through core-`k` vertices. The repair collects that subcore, counts
/// each member's neighbors with core ≥ k, peels members supported by ≤ k
/// of them (cascading), and promotes the survivors to `k + 1` — exact,
/// matching [`core_numbers`] on the patched graph bit for bit.
/// Self-loop inserts are ignored.
pub fn core_numbers_insert(before: &Graph, core: &mut [i64], inserts: &[(Index, Index)]) {
    let n = core.len();
    let base = before.a().rows();
    // Insert-only patch over `base`: per-vertex added neighbor lists.
    let mut added: HashMap<Index, Vec<Index>> = HashMap::new();
    let neighbors = |added: &HashMap<Index, Vec<Index>>, u: Index, f: &mut dyn FnMut(Index)| {
        base.for_each(u, &mut *f);
        if let Some(extra) = added.get(&u) {
            for &w in extra {
                f(w);
            }
        }
    };
    // Scratch reused across insertions; `stamp` marks subcore membership
    // for the current insertion without an O(n) clear.
    let mut stamp = vec![0u32; n];
    let mut support: Vec<i64> = vec![0; n];
    let mut peeled = vec![false; n];
    let mut generation = 0u32;
    for &(u, v) in inserts {
        if u == v || u >= n || v >= n {
            continue;
        }
        // The new edge is part of the graph the subcore is computed on.
        let dup = base.contains(u, v) || added.get(&u).is_some_and(|s| s.contains(&v));
        if !dup {
            added.entry(u).or_default().push(v);
            added.entry(v).or_default().push(u);
        }
        generation += 1;
        let gen = generation;
        let k = core[u].min(core[v]);
        // Subcore: BFS from the endpoint(s) sitting at k, through
        // vertices with core exactly k. Any core-k neighbor of a member
        // is itself a member (closure), so "neighbors with core ≥ k"
        // splits cleanly into members and permanently-higher vertices.
        let mut members: Vec<Index> = Vec::new();
        let mut queue: Vec<Index> = Vec::new();
        for w in [u, v] {
            if core[w] == k && stamp[w] != gen {
                stamp[w] = gen;
                members.push(w);
                queue.push(w);
            }
        }
        while let Some(w) = queue.pop() {
            neighbors(&added, w, &mut |x| {
                if core[x] == k && stamp[x] != gen {
                    stamp[x] = gen;
                    members.push(x);
                    queue.push(x);
                }
            });
        }
        // support(w) = |{x ∈ N(w) : core(x) ≥ k}| on the patched graph.
        for &w in &members {
            let mut s = 0i64;
            neighbors(&added, w, &mut |x| {
                if core[x] >= k {
                    s += 1;
                }
            });
            support[w] = s;
            peeled[w] = false;
        }
        // Peel members that cannot reach degree k+1 within the
        // candidate set; survivors are promoted.
        let mut worklist: Vec<Index> =
            members.iter().copied().filter(|&w| support[w] <= k).collect();
        for &w in &worklist {
            peeled[w] = true;
        }
        while let Some(w) = worklist.pop() {
            neighbors(&added, w, &mut |x| {
                if stamp[x] == gen && !peeled[x] {
                    support[x] -= 1;
                    if support[x] <= k {
                        peeled[x] = true;
                        worklist.push(x);
                    }
                }
            });
        }
        for &w in &members {
            if !peeled[w] {
                core[w] = k + 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphKind;

    /// K4 with a pendant path 3-4-5.
    fn k4_tail() -> Graph {
        Graph::from_edges(
            6,
            &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)],
            GraphKind::Undirected,
        )
        .expect("graph")
    }

    #[test]
    fn three_core_is_the_k4() {
        let g = k4_tail();
        let c3 = kcore(&g, 3).expect("kcore");
        assert_eq!(c3.nvals(), 4);
        for v in 0..4 {
            assert_eq!(c3.get(v), Some(true));
        }
        assert_eq!(c3.get(4), None);
    }

    #[test]
    fn one_core_drops_isolates_only() {
        let g = Graph::from_edges(4, &[(0, 1)], GraphKind::Undirected).expect("graph");
        let c1 = kcore(&g, 1).expect("kcore");
        assert_eq!(c1.nvals(), 2);
        assert_eq!(c1.get(2), None);
    }

    #[test]
    fn peeling_cascades() {
        // Path graph: the 2-core is empty (endpoints peel, then inward).
        let edges: Vec<(Index, Index)> = (0..5).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(6, &edges, GraphKind::Undirected).expect("graph");
        assert_eq!(kcore(&g, 2).expect("kcore").nvals(), 0);
        // A cycle's 2-core is the whole cycle.
        let mut edges: Vec<(Index, Index)> = (0..5).map(|i| (i, i + 1)).collect();
        edges.push((5, 0));
        let g = Graph::from_edges(6, &edges, GraphKind::Undirected).expect("graph");
        assert_eq!(kcore(&g, 2).expect("kcore").nvals(), 6);
    }

    #[test]
    fn core_numbers_on_k4_tail() {
        let g = k4_tail();
        let core = core_numbers(&g).expect("cores");
        for v in 0..4 {
            assert_eq!(core.get(v), Some(3), "K4 member {v}");
        }
        assert_eq!(core.get(4), Some(1));
        assert_eq!(core.get(5), Some(1));
    }

    fn dense_cores(g: &Graph) -> Vec<i64> {
        core_numbers(g).expect("cores").iter().map(|(_, c)| c).collect()
    }

    #[test]
    fn insert_repair_matches_full_recompute() {
        // Grow K4-with-tail into K5-with-tail one edge at a time; every
        // prefix must match the from-scratch oracle.
        let start: Vec<(Index, Index)> =
            vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)];
        let inserts: Vec<(Index, Index)> = vec![(4, 0), (4, 1), (4, 2), (5, 0), (2, 5)];
        let g0 = Graph::from_edges(6, &start, GraphKind::Undirected).expect("graph");
        let mut core = dense_cores(&g0);
        for upto in 1..=inserts.len() {
            let mut core_step = dense_cores(&g0);
            core_numbers_insert(&g0, &mut core_step, &inserts[..upto]);
            let mut edges = start.clone();
            edges.extend_from_slice(&inserts[..upto]);
            let oracle =
                dense_cores(&Graph::from_edges(6, &edges, GraphKind::Undirected).expect("graph"));
            assert_eq!(core_step, oracle, "after {upto} inserts");
        }
        core_numbers_insert(&g0, &mut core, &inserts);
        let mut edges = start;
        edges.extend_from_slice(&inserts);
        let oracle =
            dense_cores(&Graph::from_edges(6, &edges, GraphKind::Undirected).expect("graph"));
        assert_eq!(core, oracle);
    }

    #[test]
    fn insert_repair_promotes_a_closing_cycle() {
        // A path's cores are all 1 (ends) / 1; closing it into a cycle
        // lifts every vertex to 2 in one subcore cascade.
        let path: Vec<(Index, Index)> = (0..5).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(6, &path, GraphKind::Undirected).expect("graph");
        let mut core = dense_cores(&g);
        core_numbers_insert(&g, &mut core, &[(5, 0)]);
        assert_eq!(core, vec![2; 6]);
    }

    #[test]
    fn core_numbers_monotone_under_k() {
        let g = k4_tail();
        let core = core_numbers(&g).expect("cores");
        for k in 1..=3 {
            let members = kcore(&g, k).expect("kcore");
            for (v, _) in members.iter() {
                assert!(core.get(v).expect("labeled") >= k);
            }
        }
    }
}
