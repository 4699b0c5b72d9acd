//! Connected components via FastSV (Zhang, Azad, Buluç), the
//! linear-algebraic successor of LACC cited by the paper: min-label
//! hooking through `mxv` over the `MIN_SECOND` semiring plus pointer
//! shortcutting with `extract`. Connected components is GAP benchmark
//! kernel #5.
//!
//! Each round costs O(n + e); label trees halve in height per round, so
//! the round count is O(log n) — in practice a handful even at large
//! scale.

use std::collections::HashMap;

use graphblas::prelude::*;
use graphblas::semiring::MIN_SECOND;
use graphblas::trace;
use graphblas::Rows;

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
/// Inserts are pure label algebra: every old label is its component's
/// minimum, so it is its own root, and a min-wins union-find over the
/// labels the inserts touch merges components in O(Δ α); one pass over
/// the labels relabels the components that lost. Every vertex set
/// sharing a label then was connected before the deletes, so a delete
/// can only split it, and each part of a split set holds an endpoint of a
/// delete into another of its parts. A delete runs a *bidirectional
/// search* on the new adjacency from its two endpoints, one vertex at a
/// time from whichever side would have scanned fewer row entries after
/// the step. Either the sides meet (the edge separated nothing), or one
/// side runs dry: it is a complete component, relabeled with its minimum
/// and marked fixed, and the other endpoint goes on a pending list — as
/// does the unfixed endpoint of a delete whose other endpoint is already
/// fixed. A second pass searches each label's unfixed pending endpoints
/// against one survivor and fixes whichever side runs dry, which leaves
/// at most one unfixed part per label. That part keeps the label unless
/// the label's own vertex was fixed; then one O(n) scan over the unfixed
/// vertices finds its new minimum. A search reads at most about twice
/// the entries of its smaller side, so the large surviving side of a
/// split is never traversed, and the result matches
/// [`connected_components`] bit for bit.
///
/// The `cc.delta` algorithm span carries `deletes`, `searches` (the
/// bidirectional searches run) and `scanned` (the row entries they read).
/// [`Graph::advance`] runs the same repair in place on the labels an
/// undirected graph carries.
pub fn connected_components_delta(
    after: &Graph,
    prev: &[u64],
    inserts: &[(Index, Index)],
    deletes: &[(Index, Index)],
) -> Vec<u64> {
    let mut labels = prev.to_vec();
    repair_components(after, &mut labels, inserts, deletes);
    labels
}

/// [`connected_components_delta`] in place: `labels` goes in as the
/// graph's before the batch and comes out as `after`'s. Beyond the
/// searches, its O(n) work is a pass over the labels when an insert
/// merges two components, and the `fixed` and search marks when there is
/// a delete.
pub(crate) fn repair_components(
    after: &Graph,
    labels: &mut [u64],
    inserts: &[(Index, Index)],
    deletes: &[(Index, Index)],
) {
    let mut algo = trace::algo_span("cc.delta");
    algo.arg("deletes", deletes.len());
    let rows = after.a().rows();
    merge(labels, inserts);
    let (searches, scanned) =
        if deletes.is_empty() { (0, 0) } else { split(&rows, labels, deletes) };
    algo.arg("searches", searches);
    algo.arg("scanned", scanned);
}

/// Merge the components `inserts` join, the smaller label winning: a
/// union-find over the labels the inserts touch, each its own root, then
/// one pass over the labels relabels every losing component.
fn merge(labels: &mut [u64], inserts: &[(Index, Index)]) {
    // `lost[r]`: the root `r` was merged under; a root has no entry.
    let mut lost: HashMap<u64, u64> = HashMap::new();
    fn find(lost: &mut HashMap<u64, u64>, mut r: u64) -> u64 {
        while let Some(&p) = lost.get(&r) {
            match lost.get(&p) {
                Some(&gp) => {
                    lost.insert(r, gp); // path halving
                    r = gp;
                }
                None => return p,
            }
        }
        r
    }
    for &(u, v) in inserts {
        let (ru, rv) = (find(&mut lost, labels[u]), find(&mut lost, labels[v]));
        if ru != rv {
            // Min root wins, preserving the labels-are-minima invariant.
            lost.insert(ru.max(rv), ru.min(rv));
        }
    }
    if lost.is_empty() {
        return;
    }
    let losers: Vec<u64> = lost.keys().copied().collect();
    let mut marked = vec![0u64; labels.len().div_ceil(64)];
    for r in losers {
        let root = find(&mut lost, r);
        lost.insert(r, root);
        marked[r as usize / 64] |= 1 << (r % 64);
    }
    for l in labels.iter_mut() {
        if marked[*l as usize / 64] >> (*l % 64) & 1 == 1 {
            *l = lost[&*l];
        }
    }
}

/// Split the labels along the `deletes`, by the searches described at
/// [`connected_components_delta`]. Returns the searches run and the row
/// entries they read.
fn split<T: Scalar>(
    rows: &Rows<'_, T>,
    labels: &mut [u64],
    deletes: &[(Index, Index)],
) -> (usize, usize) {
    let n = labels.len();
    // `fixed[v]`: `v`'s component was found whole and relabeled exactly.
    let mut fixed = vec![false; n];
    let mut search = Bidirectional::new(n);
    let mut pending: Vec<Index> = Vec::new();
    for &(u, v) in deletes {
        match (fixed[u], fixed[v]) {
            _ if u == v => {} // a self-loop connects nothing
            (true, true) => {}
            (true, false) => pending.push(v),
            (false, true) => pending.push(u),
            (false, false) => {
                // `None`: still connected, labels already exact.
                if let Some(dry) = search.split(rows, [u, v], labels, &mut fixed) {
                    pending.push([u, v][1 - dry]);
                }
            }
        }
    }

    // Every unfixed part of a split label holds a pending endpoint:
    // search them against one survivor per label until one part is left.
    let mut pending: Vec<(u64, Index)> =
        pending.into_iter().filter(|&v| !fixed[v]).map(|v| (labels[v], v)).collect();
    pending.sort_unstable();
    pending.dedup();
    let mut stale = false;
    for group in pending.chunk_by(|a, b| a.0 == b.0) {
        let mut survivor = group[0].1;
        for &(_, p) in &group[1..] {
            if fixed[p] {
                continue;
            }
            if search.split(rows, [survivor, p], labels, &mut fixed) == Some(0) {
                survivor = p;
            }
        }
        // The survivor's part keeps the label unless the label's vertex
        // was fixed elsewhere.
        stale |= fixed[group[0].0 as Index];
    }
    if stale {
        // Ascending, so the first unfixed vertex seen under a fixed label
        // is its remainder's minimum.
        let mut remainder_min: HashMap<u64, u64> = HashMap::new();
        for v in 0..n {
            if !fixed[v] && fixed[labels[v] as Index] {
                labels[v] = *remainder_min.entry(labels[v]).or_insert(v as u64);
            }
        }
    }
    (search.searches, search.scanned)
}

/// The state of one repair's bidirectional searches, reused across them:
/// which side reached each vertex, and each side's reached vertices in
/// the order found (those past a side's cursor are not yet expanded).
struct Bidirectional {
    side: Vec<u8>,
    reached: [Vec<Index>; 2],
    searches: usize,
    scanned: usize,
}

impl Bidirectional {
    fn new(n: usize) -> Self {
        Bidirectional {
            side: vec![0; n],
            reached: [Vec::new(), Vec::new()],
            searches: 0,
            scanned: 0,
        }
    }

    /// Search from both `ends` at once, expanding one vertex at a time on
    /// the side whose scanned entries plus its next row's length is the
    /// smaller. Returns `None` when the sides meet. Otherwise one side ran
    /// dry: its vertices are a whole component, relabeled with their
    /// minimum and marked fixed, and the side's index into `ends` is
    /// returned.
    fn split<T: Scalar>(
        &mut self,
        rows: &Rows<'_, T>,
        ends: [Index; 2],
        labels: &mut [u64],
        fixed: &mut [bool],
    ) -> Option<usize> {
        self.searches += 1;
        let Bidirectional { side, reached, .. } = self;
        for s in 0..2 {
            reached[s].clear();
            reached[s].push(ends[s]);
            side[ends[s]] = s as u8 + 1;
        }
        let (mut head, mut cost) = ([0usize; 2], [0usize; 2]);
        let outcome = loop {
            if let Some(s) = (0..2).find(|&s| head[s] == reached[s].len()) {
                break Some(s);
            }
            let next = |s: usize| cost[s] + rows.len(reached[s][head[s]]);
            let s = usize::from(next(1) < next(0));
            let w = reached[s][head[s]];
            head[s] += 1;
            let mine = s as u8 + 1;
            let mut met = false;
            rows.for_each(w, |x| {
                cost[s] += 1;
                match side[x] {
                    0 => {
                        side[x] = mine;
                        reached[s].push(x);
                    }
                    m => met |= m != mine,
                }
            });
            if met {
                break None;
            }
        };
        for &v in reached.iter().flatten() {
            side[v] = 0;
        }
        if let Some(s) = outcome {
            let min = reached[s].iter().copied().min().unwrap_or(0) as u64;
            for &v in &reached[s] {
                labels[v] = min;
                fixed[v] = true;
            }
        }
        self.scanned += cost[0] + cost[1];
        outcome
    }
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
    fn delta_merge_into_a_component_a_delete_cuts() {
        // Path 1-2-3 joins the isolated 0 twice while (2, 3) goes: the
        // merge relabels all of 1's old component, 3 included, which 0
        // still reaches through (0, 3), so the split finds nothing cut.
        let before = Graph::from_edges(4, &[(1, 2), (2, 3)], GraphKind::Undirected).expect("graph");
        let prev = dense_labels(&before);
        let after =
            Graph::from_edges(4, &[(1, 2), (0, 1), (0, 3)], GraphKind::Undirected).expect("graph");
        let got = connected_components_delta(&after, &prev, &[(0, 1), (0, 3)], &[(2, 3)]);
        assert_eq!(got, vec![0; 4]);
    }

    #[test]
    fn delta_merge_relabels_through_a_chain_of_merges() {
        // Each insert merges the previous winner under a smaller label,
        // 3 under 2 under 1 under 0: every loser takes the final root.
        let before = Graph::from_edges(5, &[], GraphKind::Undirected).expect("graph");
        let prev = dense_labels(&before);
        let inserts = [(2, 3), (1, 2), (0, 1)];
        let after = Graph::from_edges(5, &inserts, GraphKind::Undirected).expect("graph");
        let got = connected_components_delta(&after, &prev, &inserts, &[]);
        assert_eq!(got, vec![0, 0, 0, 0, 4]);
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
