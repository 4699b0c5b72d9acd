//! PageRank, in the GAP-benchmark formulation LAGraph adopted (GAP
//! kernel #4): structure only (weights ignored), damping, explicit
//! handling of dangling (sink) vertices, iterating to an L1 tolerance.
//!
//! Each iteration is one `mxv` over the `PLUS_SECOND` semiring on the
//! transposed structure — O(e) per iteration, O(e · iters) total, with
//! the iteration count set by the damping factor and tolerance rather
//! than the graph size.

use graphblas::prelude::*;
use graphblas::semiring::PLUS_SECOND;
use graphblas::trace;

use crate::graph::Graph;

/// Options for [`pagerank`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankOptions {
    /// Damping factor (the canonical 0.85).
    pub damping: f64,
    /// Stop when the L1 change falls below this.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
}

impl Default for PageRankOptions {
    fn default() -> Self {
        PageRankOptions { damping: 0.85, tolerance: 1e-9, max_iters: 100 }
    }
}

/// PageRank scores (summing to 1), plus the number of iterations run.
pub fn pagerank(graph: &Graph, opts: &PageRankOptions) -> Result<(Vector<f64>, usize)> {
    pagerank_core(graph, opts, None)
}

/// PageRank warm-restarted from a previous rank vector — the rule by
/// which [`Graph::ranks`] repairs the ranks a predecessor carried.
///
/// The iteration is identical to [`pagerank`] (same damping, sink-mass
/// redistribution, and L1 stopping rule); only the starting point
/// differs, so after a small structural delta the residual is already
/// near the tolerance and convergence takes a handful of iterations
/// instead of a cold start's dozens. The fixed point is unique, so the
/// result agrees with a cold run to within the tolerance (not bit for
/// bit: the float operation order differs).
///
/// `warm` must be a dense length-`n` vector (any previous epoch's ranks;
/// the power iteration renormalizes drifted mass on its own).
pub fn pagerank_warm(
    graph: &Graph,
    opts: &PageRankOptions,
    warm: &Vector<f64>,
) -> Result<(Vector<f64>, usize)> {
    if warm.size() != graph.nvertices() {
        return Err(Error::invalid(format!(
            "pagerank_warm: warm-start vector has size {} but the graph has {} vertices",
            warm.size(),
            graph.nvertices()
        )));
    }
    pagerank_core(graph, opts, Some(warm))
}

fn pagerank_core(
    graph: &Graph,
    opts: &PageRankOptions,
    warm: Option<&Vector<f64>>,
) -> Result<(Vector<f64>, usize)> {
    let at = graph.at()?; // pull ranks along in-edges: r' = Aᵀ (r/d)
    let n = graph.nvertices();
    let nf = n as f64;
    let damping = opts.damping;

    // Out-degrees as f64; dangling vertices have no entry.
    let degree = graph.out_degree()?;
    let mut dinv = Vector::<f64>::new(n)?;
    apply(&mut dinv, None, NOACC, |d: i64| 1.0 / d as f64, &degree, &Descriptor::default())?;
    // The dangling vertices, as a selector for their rank: fixed for the
    // whole run, so built once.
    let mut dangling = Vector::<bool>::new(n)?;
    assign_scalar(
        &mut dangling,
        Some(&degree.pattern()),
        NOACC,
        true,
        &IndexSel::All,
        &Descriptor::new().complement().structural(),
    )?;

    let mut algo = trace::algo_span("pagerank");
    algo.arg("n", n);
    algo.arg("damping", damping);
    algo.arg("warm", if warm.is_some() { "yes" } else { "no" });
    let mut r = match warm {
        Some(w) => w.clone(),
        None => Vector::dense(n, 1.0 / nf)?,
    };
    let teleport = (1.0 - damping) / nf;
    // Per-iteration temporaries, reused so each op writes into storage
    // that is already in the form its result takes.
    let mut w = Vector::<f64>::new(n)?;
    let mut sunk = Vector::<f64>::new(n)?;
    let mut diff = Vector::<f64>::new(n)?;
    let mut iters = 0;
    for _ in 0..opts.max_iters {
        iters += 1;
        let mut iter = trace::iter_span("pagerank.iter", iters as u64);
        // w = r ./ d on non-dangling vertices.
        ewise_mult(&mut w, None, NOACC, binaryop::Times, &r, &dinv, &Descriptor::default())?;
        // Sink mass: rank held by dangling vertices, redistributed evenly.
        ewise_mult(&mut sunk, None, NOACC, binaryop::First, &r, &dangling, &Descriptor::default())?;
        let sink_mass = reduce_vector_scalar(&binaryop::Plus, &sunk);
        // r_new = teleport + damping * (Aᵀ w + sink_mass / n): the pull
        // accumulates into a vector holding the constant term.
        let base = teleport + damping * sink_mass / nf;
        let mut r_new = Vector::dense(n, base)?;
        mxv(
            &mut r_new,
            None,
            Some(|a: f64, b: f64| a + damping * b),
            &PLUS_SECOND,
            &at,
            &w,
            &Descriptor::default(),
        )?;
        // L1 delta.
        ewise_add(
            &mut diff,
            None,
            NOACC,
            |a: f64, b: f64| (a - b).abs(),
            &r,
            &r_new,
            &Descriptor::default(),
        )?;
        let delta = reduce_vector_scalar(&binaryop::Plus, &diff);
        iter.arg("residual", delta);
        r = r_new;
        if delta < opts.tolerance {
            break;
        }
    }
    algo.arg("iters", iters);
    Ok((r, iters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphKind;

    fn ranks(g: &Graph) -> Vector<f64> {
        pagerank(g, &PageRankOptions::default()).expect("pagerank").0
    }

    #[test]
    fn ranks_sum_to_one() {
        let g =
            Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 2), (4, 3)], GraphKind::Directed)
                .expect("graph");
        let r = ranks(&g);
        let total = reduce_vector_scalar(&binaryop::Plus, &r);
        assert!((total - 1.0).abs() < 1e-6, "sum = {total}");
    }

    #[test]
    fn symmetric_ring_is_uniform() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)], GraphKind::Undirected)
            .expect("graph");
        let r = ranks(&g);
        for v in 0..4 {
            assert!((r.get(v).expect("rank") - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn hub_collects_rank() {
        // Star: everyone points at 0.
        let g = Graph::from_edges(5, &[(1, 0), (2, 0), (3, 0), (4, 0)], GraphKind::Directed)
            .expect("graph");
        let r = ranks(&g);
        let hub = r.get(0).expect("hub");
        for v in 1..5 {
            assert!(hub > r.get(v).expect("leaf") * 2.0);
        }
    }

    #[test]
    fn dangling_mass_is_redistributed() {
        // 0 → 1 and 1 is a sink: without sink handling, mass drains.
        let g = Graph::from_edges(2, &[(0, 1)], GraphKind::Directed).expect("graph");
        let r = ranks(&g);
        let total = reduce_vector_scalar(&binaryop::Plus, &r);
        assert!((total - 1.0).abs() < 1e-6, "sum = {total}");
        assert!(r.get(1).expect("sink target") > r.get(0).expect("source"));
    }

    #[test]
    fn warm_restart_matches_cold_within_tolerance() {
        let g = Graph::from_edges(
            8,
            &[(0, 1), (1, 2), (2, 0), (3, 2), (4, 3), (5, 6), (6, 7), (7, 5), (2, 5)],
            GraphKind::Directed,
        )
        .expect("graph");
        let opts = PageRankOptions::default();
        let (cold, cold_iters) = pagerank(&g, &opts).expect("cold");
        // Warm-start from the converged vector: it should agree with the
        // cold run within tolerance and take far fewer iterations.
        let (hot, hot_iters) = pagerank_warm(&g, &opts, &cold).expect("warm");
        assert!(hot_iters <= cold_iters, "warm {hot_iters} vs cold {cold_iters}");
        for v in 0..8 {
            let (a, b) = (cold.get(v).expect("cold"), hot.get(v).expect("hot"));
            assert!((a - b).abs() < 1e-6, "vertex {v}: cold {a} vs warm {b}");
        }
    }

    #[test]
    fn warm_restart_rejects_size_mismatch() {
        let g = Graph::from_edges(4, &[(0, 1)], GraphKind::Directed).expect("graph");
        let bad = Vector::dense(3, 0.25).expect("vector");
        assert!(pagerank_warm(&g, &PageRankOptions::default(), &bad).is_err());
    }

    #[test]
    fn tolerance_controls_iterations() {
        // Asymmetric: a chain with a shortcut, so convergence is gradual.
        let g = Graph::from_edges(
            6,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (2, 0)],
            GraphKind::Directed,
        )
        .expect("graph");
        let (_, fast) =
            pagerank(&g, &PageRankOptions { tolerance: 1e-2, ..Default::default() }).expect("pr");
        let (_, slow) =
            pagerank(&g, &PageRankOptions { tolerance: 1e-12, ..Default::default() }).expect("pr");
        assert!(fast < slow);
    }
}
