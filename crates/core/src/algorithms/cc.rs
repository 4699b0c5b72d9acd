//! Connected components via FastSV (Zhang, Azad, Buluç), the
//! linear-algebraic successor of LACC cited by the paper: min-label
//! hooking through `mxv` over the `MIN_SECOND` semiring plus pointer
//! shortcutting with `extract`. Connected components is GAP benchmark
//! kernel #5.
//!
//! Each round costs O(n + e); label trees halve in height per round, so
//! the round count is O(log n) — in practice a handful even at large
//! scale.

use graphblas::prelude::*;
use graphblas::semiring::MIN_SECOND;
use graphblas::trace;

use crate::graph::Graph;

/// Connected components of an undirected graph: returns `comp(v)` = the
/// smallest vertex id in `v`'s component.
pub fn connected_components(graph: &Graph) -> Result<Vector<u64>> {
    let s = graph.structure()?;
    let a: &Matrix<bool> = &s;
    let n = a.nrows();
    // f(v) starts as v itself.
    let mut f = Vector::<u64>::new(n)?;
    assign_scalar(&mut f, None, NOACC, 0u64, &IndexSel::All, &Descriptor::default())?;
    let mut init = Vector::<u64>::new(n)?;
    apply_indexed(
        &mut init,
        None,
        NOACC,
        |i: Index, _: Index, _: u64| i as u64,
        &f,
        &Descriptor::default(),
    )?;
    f = init;

    let mut algo = trace::algo_span("cc.fastsv");
    algo.arg("n", n);
    // Labels only ever decrease, so their sum (at most n² < 2⁶⁴) drops in
    // every round that changes anything: the fixpoint test is one reduce.
    let mut label_sum = reduce_vector_scalar(&binaryop::Plus, &f);
    let mut gp = Vector::<u64>::new(n)?;
    let mut round: u64 = 0;
    loop {
        round += 1;
        let _iter = trace::iter_span("cc.iter", round);
        // Grandparents: gp(v) = f(f(v)).
        let fv: Vec<Index> = f.iter().map(|(_, p)| p as Index).collect();
        extract(&mut gp, None, NOACC, &f, &IndexSel::List(fv), &Descriptor::default())?;
        // Hooking: f(v) min= the smallest gp(u) over neighbors u.
        mxv(&mut f, None, Some(binaryop::Min), &MIN_SECOND, a, &gp, &Descriptor::default())?;
        // Shortcutting: f min= gp.
        apply(&mut f, None, Some(binaryop::Min), unaryop::Identity, &gp, &Descriptor::default())?;
        let sum = reduce_vector_scalar(&binaryop::Plus, &f);
        if sum == label_sum {
            break;
        }
        label_sum = sum;
    }
    algo.arg("iters", round);
    Ok(f)
}

/// Incrementally repair a connected-components labeling after one batch
/// of structural edge changes, reading only the rows the repair visits.
///
/// * `after` — the graph **after** the batch is applied (undirected);
///   its rows are read under one lock for the whole call.
/// * `prev` — dense labels of the graph before the batch, one per
///   vertex, each equal to its component's minimum vertex id (the
///   invariant [`connected_components`] establishes).
/// * `inserts` / `deletes` — the real structural changes (an insert of a
///   present edge or delete of an absent one must be filtered out).
///
/// Inserts are pure label algebra: a min-wins union-find over the old
/// labels merges components in O(Δ α). Deletes get a *targeted re-run*:
/// a BFS from each deleted edge's endpoints on the new adjacency either
/// proves the component stayed connected (early exit on meeting the
/// other endpoint) or exhaustively discovers the split-off part, which
/// is then exactly relabeled with its minimum. Every split part of a
/// component contains at least one deleted-edge endpoint, so the sweep
/// over endpoints covers all of them — the result is exact, never an
/// approximation, and matches [`connected_components`] bit for bit.
pub fn connected_components_delta(
    after: &Graph,
    prev: &[u64],
    inserts: &[(Index, Index)],
    deletes: &[(Index, Index)],
) -> Vec<u64> {
    let n = prev.len();
    // Min-wins union-find seeded from the old labels: every old label is
    // its component's minimum vertex id, so it is its own root.
    let mut parent: Vec<Index> = prev.iter().map(|&c| c as Index).collect();
    fn find(parent: &mut [Index], mut v: Index) -> Index {
        while parent[v] != v {
            parent[v] = parent[parent[v]]; // path halving
            v = parent[v];
        }
        v
    }
    for &(u, v) in inserts {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            // Min root wins, preserving the labels-are-minima invariant.
            let (lo, hi) = if ru < rv { (ru, rv) } else { (rv, ru) };
            parent[hi] = lo;
        }
    }
    let mut labels: Vec<u64> = (0..n).map(|v| find(&mut parent, v) as u64).collect();

    // Targeted re-runs for deletes, on the new adjacency. `fixed[v]`
    // marks vertices already exactly relabeled by an exhaustive BFS.
    let adj = after.a().rows();
    let mut fixed = vec![false; n];
    let mut visited = vec![false; n];
    let mut queue: Vec<Index> = Vec::new();
    // BFS from `start`; stops early (returning None) on reaching
    // `target`, otherwise returns the full component of `start`.
    let mut component = |start: Index, target: Option<Index>, visited: &mut Vec<bool>| {
        queue.clear();
        queue.push(start);
        let mut reached = vec![start];
        visited[start] = true;
        let mut hit_target = false;
        while let Some(w) = queue.pop() {
            adj.for_each(w, |x| {
                if !visited[x] {
                    visited[x] = true;
                    reached.push(x);
                    queue.push(x);
                }
                if Some(x) == target {
                    hit_target = true;
                }
            });
            if hit_target {
                break;
            }
        }
        for &v in &reached {
            visited[v] = false;
        }
        if hit_target {
            None
        } else {
            Some(reached)
        }
    };
    let relabel = |part: Vec<Index>, labels: &mut Vec<u64>, fixed: &mut Vec<bool>| {
        let min = part.iter().copied().min().unwrap_or(0) as u64;
        for &v in &part {
            labels[v] = min;
            fixed[v] = true;
        }
    };
    for &(u, v) in deletes {
        let mut split = fixed[u]; // a fixed endpoint's component excludes the other
        if !fixed[u] {
            match component(u, Some(v), &mut visited) {
                None => continue, // still connected: labels already exact
                Some(part) => {
                    relabel(part, &mut labels, &mut fixed);
                    split = true;
                }
            }
        }
        if split && !fixed[v] {
            if let Some(part) = component(v, None, &mut visited) {
                relabel(part, &mut labels, &mut fixed);
            }
        }
    }
    labels
}

/// The number of connected components.
pub fn component_count(graph: &Graph) -> Result<usize> {
    let comp = connected_components(graph)?;
    let mut labels: Vec<u64> = comp.iter().map(|(_, c)| c).collect();
    labels.sort_unstable();
    labels.dedup();
    Ok(labels.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphKind;

    #[test]
    fn two_components_and_an_isolate() {
        // {0,1,2} path, {3,4} edge, {5} isolated.
        let g =
            Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)], GraphKind::Undirected).expect("graph");
        let comp = connected_components(&g).expect("cc");
        assert_eq!(comp.get(0), Some(0));
        assert_eq!(comp.get(1), Some(0));
        assert_eq!(comp.get(2), Some(0));
        assert_eq!(comp.get(3), Some(3));
        assert_eq!(comp.get(4), Some(3));
        assert_eq!(comp.get(5), Some(5));
        assert_eq!(component_count(&g).expect("count"), 3);
    }

    #[test]
    fn fully_connected_is_one_component() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)], GraphKind::Undirected)
            .expect("graph");
        assert_eq!(component_count(&g).expect("count"), 1);
        let comp = connected_components(&g).expect("cc");
        for v in 0..4 {
            assert_eq!(comp.get(v), Some(0));
        }
    }

    #[test]
    fn no_edges_every_vertex_its_own() {
        let g = Graph::from_edges(5, &[], GraphKind::Undirected).expect("graph");
        assert_eq!(component_count(&g).expect("count"), 5);
    }

    #[test]
    fn long_path_converges() {
        // A long path exercises the shortcutting (doubling) behaviour.
        let edges: Vec<(Index, Index)> = (0..99).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(100, &edges, GraphKind::Undirected).expect("graph");
        let comp = connected_components(&g).expect("cc");
        for v in 0..100 {
            assert_eq!(comp.get(v), Some(0), "vertex {v}");
        }
    }

    fn dense_labels(g: &Graph) -> Vec<u64> {
        connected_components(g).expect("cc").iter().map(|(_, c)| c).collect()
    }

    #[test]
    fn delta_insert_merges_components() {
        // {0,1,2} and {3,4} merge through (2,3); {5} stays alone.
        let before =
            Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)], GraphKind::Undirected).expect("graph");
        let prev = dense_labels(&before);
        let after = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (2, 3)], GraphKind::Undirected)
            .expect("graph");
        let got = connected_components_delta(&after, &prev, &[(2, 3)], &[]);
        assert_eq!(got, dense_labels(&after));
    }

    #[test]
    fn delta_delete_splits_exactly() {
        // Path 0-1-2-3-4: cutting (1,2) splits {0,1} from {2,3,4}.
        let before = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)], GraphKind::Undirected)
            .expect("graph");
        let prev = dense_labels(&before);
        let after =
            Graph::from_edges(5, &[(0, 1), (2, 3), (3, 4)], GraphKind::Undirected).expect("graph");
        let got = connected_components_delta(&after, &prev, &[], &[(1, 2)]);
        assert_eq!(got, vec![0, 0, 2, 2, 2]);
    }

    #[test]
    fn delta_delete_on_cycle_keeps_component() {
        // Cycle: deleting one edge leaves it connected (early-exit path).
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0)];
        let before = Graph::from_edges(4, &edges, GraphKind::Undirected).expect("graph");
        let prev = dense_labels(&before);
        let after =
            Graph::from_edges(4, &[(1, 2), (2, 3), (3, 0)], GraphKind::Undirected).expect("graph");
        let got = connected_components_delta(&after, &prev, &[], &[(0, 1)]);
        assert_eq!(got, vec![0, 0, 0, 0]);
    }

    #[test]
    fn delta_mixed_batch_matches_oracle() {
        // Merge {0..2} with {3,4}, then cut (0,1) off the merged blob.
        let before =
            Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)], GraphKind::Undirected).expect("graph");
        let prev = dense_labels(&before);
        let final_edges = [(1, 2), (3, 4), (2, 3)];
        let after = Graph::from_edges(6, &final_edges, GraphKind::Undirected).expect("graph");
        let got = connected_components_delta(&after, &prev, &[(2, 3)], &[(0, 1)]);
        assert_eq!(got, dense_labels(&after));
    }

    #[test]
    fn labels_are_component_minima() {
        let g =
            Graph::from_edges(7, &[(6, 5), (5, 4), (2, 3)], GraphKind::Undirected).expect("graph");
        let comp = connected_components(&g).expect("cc");
        assert_eq!(comp.get(6), Some(4));
        assert_eq!(comp.get(3), Some(2));
        assert_eq!(comp.get(0), Some(0));
    }
}
