//! Single-source shortest paths over the min-plus (tropical) semiring
//! `MIN_PLUS`: a Bellman-Ford iteration, and the delta-stepping
//! formulation of Sridhar et al. (IPDPSW 2019) that the paper cites for
//! SSSP. Delta-stepping is GAP benchmark kernel #3.
//!
//! Bellman-Ford costs O(e) per round for up to n rounds (far fewer on
//! small-diameter graphs — the iteration stops at fixpoint).
//! Delta-stepping processes vertices in distance buckets of width Δ,
//! relaxing light edges to fixpoint inside each bucket; with Δ tuned to
//! the weight range it approaches O(n + e) on random weights.

use graphblas::prelude::*;
use graphblas::semiring::MIN_PLUS;
use graphblas::trace;

use crate::graph::Graph;

/// Bellman-Ford SSSP: `dist ← min(dist, dist min.+ A)` until fixpoint.
/// Edge weights must be non-negative for the distances to be shortest
/// paths (negative edges converge too, absent negative cycles). Returns
/// the distance vector; unreachable vertices have no entry.
pub fn sssp_bellman_ford(graph: &Graph, source: Index) -> Result<Vector<f64>> {
    let a = graph.a();
    let n = a.nrows();
    if source >= n {
        return Err(Error::oob(source, n));
    }
    let mut algo = trace::algo_span("sssp.bellman_ford");
    algo.arg("n", n);
    algo.arg("source", source);
    let mut dist = Vector::<f64>::new(n)?;
    dist.set_element(source, 0.0)?;
    for round in 0..n {
        let mut iter = trace::iter_span("sssp.iter", round as u64);
        iter.arg("reached_nnz", dist.nvals());
        // relaxed = dist min.+ A, of which only strict improvements matter.
        let mut relaxed = Vector::<f64>::new(n)?;
        vxm(&mut relaxed, None, NOACC, &MIN_PLUS, &dist, a, &Descriptor::default())?;
        let improved = improvements(&relaxed, &dist, |_| true)?;
        if improved.nvals() == 0 {
            break;
        }
        // dist = min(dist, relaxed)
        accumulate_min(&mut dist, &improved)?;
    }
    Ok(dist)
}

/// The entries of `req` that strictly improve on `cur` (smaller, or at a
/// position `cur` has no entry) and satisfy `keep` — at the cost of
/// `req`'s entries, not of `cur`'s.
fn improvements(
    req: &Vector<f64>,
    cur: &Vector<f64>,
    keep: impl Fn(f64) -> bool + Copy + Send + Sync,
) -> Result<Vector<f64>> {
    let n = req.size();
    // stale(i) = req(i) >= cur(i), where both have an entry.
    let mut stale = Vector::<bool>::new(n)?;
    ewise_mult(&mut stale, None, NOACC, |r: f64, c: f64| r >= c, req, cur, &Descriptor::default())?;
    // improved<¬stale> = select(req, keep): the value mask lets through
    // what is not stale, including positions `cur` never reached.
    let mut improved = Vector::<f64>::new(n)?;
    select(
        &mut improved,
        Some(&stale),
        NOACC,
        move |_: Index, _: Index, d: f64| keep(d),
        req,
        &Descriptor::new().complement(),
    )?;
    Ok(improved)
}

/// `t = min(t, req)` over the union pattern, in place: `t min= req`.
fn accumulate_min(t: &mut Vector<f64>, req: &Vector<f64>) -> Result<()> {
    apply(t, None, Some(binaryop::Min), unaryop::Identity, req, &Descriptor::default())
}

/// Delta-stepping SSSP (Sridhar et al., "Delta-stepping SSSP: from
/// vertices and edges to GraphBLAS implementations"). Vertices are
/// processed in buckets of width `delta`; light edges (≤ delta) are
/// relaxed repeatedly inside a bucket, heavy edges once per bucket.
/// Requires non-negative weights.
///
/// Each light relaxation costs what its wave touches: the requests
/// `treq = wave min.+ light`, their comparison against `t`, the next wave
/// (the strict improvements that land in the bucket) and `t min= treq`
/// all walk `treq`'s entries. Only the bucket scans read all of `t`.
pub fn sssp_delta_stepping(graph: &Graph, source: Index, delta: f64) -> Result<Vector<f64>> {
    let a = graph.a();
    let n = a.nrows();
    if source >= n {
        return Err(Error::oob(source, n));
    }
    // "not greater than zero" on purpose: NaN must be rejected as well.
    if delta.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(Error::invalid("delta must be positive"));
    }
    let mut algo = trace::algo_span("sssp.delta_stepping");
    algo.arg("n", n);
    algo.arg("source", source);
    algo.arg("delta", delta);
    // Split the graph into light (w ≤ delta) and heavy (w > delta) edges.
    // Neither gets dual storage: every product below is a `vxm` from a
    // wave far smaller than the graph, which pushes; building the two
    // transposes per call costs more than the pulls they would allow.
    let mut light = Matrix::<f64>::new(n, n)?;
    select_matrix(
        &mut light,
        None,
        NOACC,
        |_: Index, _: Index, w: f64| w <= delta,
        a,
        &Descriptor::default(),
    )?;
    let mut heavy = Matrix::<f64>::new(n, n)?;
    select_matrix(
        &mut heavy,
        None,
        NOACC,
        |_: Index, _: Index, w: f64| w > delta,
        a,
        &Descriptor::default(),
    )?;

    let mut t = Vector::<f64>::new(n)?;
    t.set_element(source, 0.0)?;
    let mut bucket = 0usize;
    loop {
        let mut iter = trace::iter_span("sssp.bucket", bucket as u64);
        iter.arg("reached_nnz", t.nvals());
        let lo = bucket as f64 * delta;
        let hi = lo + delta;
        let in_bucket = move |d: f64| d >= lo && d < hi;
        let scan_bucket = move |_: Index, _: Index, d: f64| in_bucket(d);
        // wave: the distances currently falling in this bucket.
        let mut wave = Vector::<f64>::new(n)?;
        select(&mut wave, None, NOACC, scan_bucket, &t, &Descriptor::default())?;
        if wave.nvals() == 0 {
            // Find whether any vertex remains in a later bucket.
            let mut rest = Vector::<f64>::new(n)?;
            select(
                &mut rest,
                None,
                NOACC,
                |_: Index, _: Index, d: f64| d >= hi,
                &t,
                &Descriptor::default(),
            )?;
            if rest.nvals() == 0 {
                break;
            }
            // Jump straight to the next occupied bucket.
            let next_min = reduce_vector_scalar(&binaryop::Min, &rest);
            bucket = (next_min / delta).floor() as usize;
            continue;
        }
        // Settle the bucket: repeat light-edge relaxations until no
        // distance in it improves.
        while wave.nvals() > 0 {
            let mut treq = Vector::<f64>::new(n)?;
            vxm(&mut treq, None, NOACC, &MIN_PLUS, &wave, &light, &Descriptor::default())?;
            // Next wave: vertices that enter the bucket or improve inside it.
            wave = improvements(&treq, &t, in_bucket)?;
            // t = min(t, treq)
            accumulate_min(&mut t, &treq)?;
        }
        // One heavy-edge relaxation from everything the bucket settled:
        // t min= settled min.+ heavy.
        let mut settled = Vector::<f64>::new(n)?;
        select(&mut settled, None, NOACC, scan_bucket, &t, &Descriptor::default())?;
        vxm(
            &mut t,
            None,
            Some(binaryop::Min),
            &MIN_PLUS,
            &settled,
            &heavy,
            &Descriptor::default(),
        )?;
        bucket += 1;
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphKind;

    fn weighted() -> Graph {
        // 0 →1 (1), 0 →2 (4), 1 →2 (2), 1 →3 (7), 2 →3 (3)
        Graph::from_weighted_edges(
            5,
            &[(0, 1, 1.0), (0, 2, 4.0), (1, 2, 2.0), (1, 3, 7.0), (2, 3, 3.0)],
            GraphKind::Directed,
        )
        .expect("graph")
    }

    #[test]
    fn bellman_ford_known_distances() {
        let g = weighted();
        let d = sssp_bellman_ford(&g, 0).expect("sssp");
        assert_eq!(d.extract_tuples(), vec![(0, 0.0), (1, 1.0), (2, 3.0), (3, 6.0)]);
        assert_eq!(d.get(4), None, "unreachable");
    }

    #[test]
    fn delta_stepping_matches_bellman_ford() {
        let g = weighted();
        let bf = sssp_bellman_ford(&g, 0).expect("bf");
        for delta in [0.5, 1.0, 2.0, 10.0] {
            let ds = sssp_delta_stepping(&g, 0, delta).expect("ds");
            assert_eq!(ds.extract_tuples(), bf.extract_tuples(), "delta={delta}");
        }
    }

    #[test]
    fn undirected_distances_are_symmetric_in_usage() {
        let g = Graph::from_weighted_edges(
            4,
            &[(0, 1, 2.0), (1, 2, 2.0), (0, 3, 10.0), (2, 3, 1.0)],
            GraphKind::Undirected,
        )
        .expect("graph");
        let d = sssp_bellman_ford(&g, 3).expect("sssp");
        assert_eq!(d.get(0), Some(5.0)); // 3→2→1→0 = 1+2+2
        let ds = sssp_delta_stepping(&g, 3, 2.0).expect("ds");
        assert_eq!(ds.extract_tuples(), d.extract_tuples());
    }

    #[test]
    fn invalid_inputs() {
        let g = weighted();
        assert!(sssp_bellman_ford(&g, 99).is_err());
        assert!(sssp_delta_stepping(&g, 0, 0.0).is_err());
    }

    #[test]
    fn integer_weights_near_max_saturate_instead_of_wrapping() {
        // Bellman-Ford over an i64 adjacency, the same MIN_PLUS vxm loop
        // as the f64 path. The 0→1 edge is within 5 of i64::MAX, so the
        // relaxation 0→1→2 overflows a wrapping add into a huge negative
        // "distance" that would beat every honest path; the saturating
        // MIN_PLUS pins it at i64::MAX and the direct 0→2 edge wins.
        let big = i64::MAX - 5;
        let a = Matrix::from_tuples(3, 3, vec![(0, 1, big), (1, 2, 10), (0, 2, 100)], |_, b| b)
            .expect("a");
        let mut dist = Vector::<i64>::new(3).expect("dist");
        dist.set_element(0, 0).expect("source");
        for _ in 0..3 {
            let d = dist.clone();
            vxm(&mut dist, None, Some(binaryop::Min), &MIN_PLUS, &d, &a, &Descriptor::default())
                .expect("vxm");
        }
        assert_eq!(dist.get(0), Some(0));
        assert_eq!(dist.get(1), Some(big));
        assert_eq!(dist.get(2), Some(100), "saturated path must not undercut the real one");
    }

    #[test]
    fn zero_weight_edges() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 0.0), (1, 2, 5.0)], GraphKind::Directed)
            .expect("graph");
        let d = sssp_bellman_ford(&g, 0).expect("sssp");
        assert_eq!(d.extract_tuples(), vec![(0, 0.0), (1, 0.0), (2, 5.0)]);
    }
}
