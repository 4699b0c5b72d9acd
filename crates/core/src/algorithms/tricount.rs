//! Triangle counting (Azad/Buluç/Gilbert; Wolf et al.), in the three
//! masked-mxm formulations SuiteSparse popularized. All use the
//! structural `PLUS_PAIR` semiring, the masked `mxm` kernels, and the
//! `tril`/`triu` selects. The graph must be undirected with no
//! self-loops. Triangle counting is GAP benchmark kernel #6 (and the
//! GraphChallenge kernel).
//!
//! The masked product only computes entries where the mask is present,
//! so the cost is O(Σ_edges min(deg(u), deg(v))) wedge checks rather
//! than a full e² sparse product — the Sandia lower-triangular form has
//! the smallest constant of the three.

use std::collections::{HashMap, HashSet};

use graphblas::prelude::*;
use graphblas::semiring::PLUS_PAIR;
use graphblas::trace;

use super::EdgeEvent;
use crate::graph::Graph;

/// Which formulation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriCountMethod {
    /// Burkhardt: `sum(sum((A²) .* A)) / 6`.
    Burkhardt,
    /// Cohen: `sum(sum((L * U) .* A)) / 2`.
    Cohen,
    /// Sandia: `sum(sum((L * Lᵀ) .* L))` — the fastest masked-dot form.
    Sandia,
}

/// Count the triangles of an undirected graph.
pub fn triangle_count(graph: &Graph, method: TriCountMethod) -> Result<u64> {
    let s = graph.structure()?;
    let a: &Matrix<bool> = &s;
    let n = a.nrows();
    let mut algo = trace::algo_span("tricount");
    algo.arg("n", n);
    algo.arg("nnz", a.nvals());
    algo.arg(
        "method",
        match method {
            TriCountMethod::Burkhardt => "burkhardt",
            TriCountMethod::Cohen => "cohen",
            TriCountMethod::Sandia => "sandia",
        },
    );
    // Each formulation reduces the masked product straight to a scalar;
    // the fused kernel never materializes C = A*B.
    match method {
        TriCountMethod::Burkhardt => {
            // count = sum(A ⊕.pair A over mask A) / 6
            let wedges: u64 = fused_mxm_reduce_scalar(
                &binaryop::Plus,
                a,
                &PLUS_PAIR,
                a,
                a,
                &Descriptor::new().structural(),
            )?;
            Ok(wedges / 6)
        }
        TriCountMethod::Cohen => {
            let l = tril(a)?;
            let u = triu(a)?;
            let wedges: u64 = fused_mxm_reduce_scalar(
                &binaryop::Plus,
                a,
                &PLUS_PAIR,
                &l,
                &u,
                &Descriptor::new().structural(),
            )?;
            Ok(wedges / 2)
        }
        TriCountMethod::Sandia => {
            // sum(L ⊕.pair Lᵀ over mask L), the masked dot-product form.
            let l = tril(a)?;
            fused_mxm_reduce_scalar(
                &binaryop::Plus,
                &l,
                &PLUS_PAIR,
                &l,
                &l,
                &Descriptor::new().structural().transpose_b().method(MxmMethod::Dot),
            )
        }
    }
}

/// Incrementally repair a global triangle count after one batch of
/// structural edge changes: the delta of each changed edge `(u, v)` is
/// `±|N(u) ∩ N(v)|` at the moment it applies, so the whole batch costs
/// O(Σ min(deg u, deg v)) intersections instead of a masked `mxm` over
/// the full graph.
///
/// * `before` — the graph **before** the batch (same precondition as
///   [`triangle_count`]: undirected, no self-loops among the counted
///   edges); its rows are read under one lock for the whole call.
/// * `prev` — the exact count on `before`.
/// * `events` — the real structural changes, in application order.
///
/// Events apply sequentially against an internal patch over `before`, so
/// a triangle formed by two edges inserted in the same batch is counted
/// exactly once; the final value equals [`triangle_count`] on the
/// patched graph bit for bit, at any interleaving of the same per-edge
/// event sequence. Self-loop events are ignored (they form no triangle).
pub fn triangle_count_delta(before: &Graph, prev: u64, events: &[EdgeEvent]) -> u64 {
    let base = before.a().rows();
    // Patch over `base`: per-vertex inserted and removed neighbor sets.
    let mut added: HashMap<Index, HashSet<Index>> = HashMap::new();
    let mut removed: HashMap<Index, HashSet<Index>> = HashMap::new();
    let has = |added: &HashMap<Index, HashSet<Index>>,
               removed: &HashMap<Index, HashSet<Index>>,
               u: Index,
               v: Index| {
        if added.get(&u).is_some_and(|s| s.contains(&v)) {
            return true;
        }
        base.contains(u, v) && !removed.get(&u).is_some_and(|s| s.contains(&v))
    };
    // |N(u) ∩ N(v)| on the patched graph: iterate the cheaper endpoint's
    // current neighborhood, membership-test against the other.
    let common = |added: &HashMap<Index, HashSet<Index>>,
                  removed: &HashMap<Index, HashSet<Index>>,
                  u: Index,
                  v: Index| {
        let (a, b) = if base.len(u) + added.get(&u).map_or(0, HashSet::len)
            <= base.len(v) + added.get(&v).map_or(0, HashSet::len)
        {
            (u, v)
        } else {
            (v, u)
        };
        let mut count = 0i64;
        let rem_a = removed.get(&a);
        base.for_each(a, |w| {
            if w != a
                && w != b
                && !rem_a.is_some_and(|s| s.contains(&w))
                && has(added, removed, b, w)
            {
                count += 1;
            }
        });
        if let Some(extra) = added.get(&a) {
            for &w in extra {
                if w != a && w != b && has(added, removed, b, w) {
                    count += 1;
                }
            }
        }
        count
    };
    let patch = |added: &mut HashMap<Index, HashSet<Index>>,
                 removed: &mut HashMap<Index, HashSet<Index>>,
                 u: Index,
                 v: Index,
                 present: bool| {
        for (x, y) in [(u, v), (v, u)] {
            if present {
                removed.entry(x).or_default().remove(&y);
                if !base.contains(x, y) {
                    added.entry(x).or_default().insert(y);
                }
            } else {
                added.entry(x).or_default().remove(&y);
                if base.contains(x, y) {
                    removed.entry(x).or_default().insert(y);
                }
            }
        }
    };
    let mut delta = 0i64;
    for &ev in events {
        match ev {
            EdgeEvent::Insert(u, v) => {
                if u != v {
                    delta += common(&added, &removed, u, v);
                    patch(&mut added, &mut removed, u, v, true);
                }
            }
            EdgeEvent::Delete(u, v) => {
                if u != v {
                    delta -= common(&added, &removed, u, v);
                    patch(&mut added, &mut removed, u, v, false);
                }
            }
        }
    }
    (prev as i64 + delta).max(0) as u64
}

/// Per-vertex triangle counts: `t(v)` = number of triangles through `v`
/// (the diagonal of `A³ / 2`, computed as row sums of `(A ⊕.pair A) .* A`).
pub fn triangle_count_per_vertex(graph: &Graph) -> Result<Vector<u64>> {
    let s = graph.structure()?;
    let a: &Matrix<bool> = &s;
    let n = a.nrows();
    // Row sums of the masked wedge product, fused so the wedge matrix is
    // never materialized.
    let t: Vector<u64> = fused_mxm_row_reduce(
        &binaryop::Plus,
        a,
        &PLUS_PAIR,
        a,
        a,
        &Descriptor::new().structural(),
    )?;
    // Each triangle through v is counted twice in the wedge sum.
    let mut halved = Vector::<u64>::new(n)?;
    apply(&mut halved, None, NOACC, |x: u64| x / 2, &t, &Descriptor::default())?;
    Ok(halved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphKind;

    fn two_triangles() -> Graph {
        // Triangles 0-1-2 and 2-3-4, bridge at 2.
        Graph::from_edges(
            5,
            &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)],
            GraphKind::Undirected,
        )
        .expect("graph")
    }

    #[test]
    fn all_methods_count_two() {
        let g = two_triangles();
        for m in [TriCountMethod::Burkhardt, TriCountMethod::Cohen, TriCountMethod::Sandia] {
            assert_eq!(triangle_count(&g, m).expect("tc"), 2, "{m:?}");
        }
    }

    #[test]
    fn triangle_free_graph_counts_zero() {
        let g =
            Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)], GraphKind::Undirected).expect("graph");
        for m in [TriCountMethod::Burkhardt, TriCountMethod::Cohen, TriCountMethod::Sandia] {
            assert_eq!(triangle_count(&g, m).expect("tc"), 0, "{m:?}");
        }
    }

    #[test]
    fn complete_graph_k5() {
        // K5 has C(5,3) = 10 triangles.
        let mut edges = Vec::new();
        for i in 0..5 {
            for j in (i + 1)..5 {
                edges.push((i, j));
            }
        }
        let g = Graph::from_edges(5, &edges, GraphKind::Undirected).expect("graph");
        for m in [TriCountMethod::Burkhardt, TriCountMethod::Cohen, TriCountMethod::Sandia] {
            assert_eq!(triangle_count(&g, m).expect("tc"), 10, "{m:?}");
        }
    }

    #[test]
    fn delta_insert_and_delete_track_the_oracle() {
        // Start with one triangle plus a dangling path.
        let start = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)];
        let g0 = Graph::from_edges(5, &start, GraphKind::Undirected).expect("graph");
        let prev = triangle_count(&g0, TriCountMethod::Sandia).expect("tc");
        assert_eq!(prev, 1);
        // Close 2-3-4 into a triangle, then break the original one.
        let events = [EdgeEvent::Insert(2, 4), EdgeEvent::Delete(0, 1)];
        let got = triangle_count_delta(&g0, prev, &events);
        let g1 =
            Graph::from_edges(5, &[(1, 2), (0, 2), (2, 3), (3, 4), (2, 4)], GraphKind::Undirected)
                .expect("graph");
        assert_eq!(got, triangle_count(&g1, TriCountMethod::Sandia).expect("tc"));
        assert_eq!(got, 1);
    }

    #[test]
    fn delta_counts_triangles_formed_within_one_batch() {
        // Empty triangle closed by three same-batch inserts: exactly 1.
        let base = Graph::from_edges(3, &[], GraphKind::Undirected).expect("graph");
        let events = [EdgeEvent::Insert(0, 1), EdgeEvent::Insert(1, 2), EdgeEvent::Insert(0, 2)];
        assert_eq!(triangle_count_delta(&base, 0, &events), 1);
        // Insert-then-delete of the same edge is a net no-op.
        let events = [
            EdgeEvent::Insert(0, 1),
            EdgeEvent::Insert(1, 2),
            EdgeEvent::Insert(0, 2),
            EdgeEvent::Delete(1, 2),
        ];
        assert_eq!(triangle_count_delta(&base, 0, &events), 0);
    }

    #[test]
    fn per_vertex_counts() {
        let g = two_triangles();
        let t = triangle_count_per_vertex(&g).expect("tc");
        assert_eq!(t.get(0), Some(1));
        assert_eq!(t.get(2), Some(2), "bridge vertex is in both triangles");
        assert_eq!(t.get(3), Some(1));
        // Sum over vertices = 3 × number of triangles.
        let total = reduce_vector_scalar(&binaryop::Plus, &t);
        assert_eq!(total, 6);
    }
}
