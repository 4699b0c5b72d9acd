//! Betweenness centrality — the batched Brandes algorithm in linear
//! algebra (Buluç & Gilbert's Combinatorial BLAS formulation, cited in
//! §V), computing the contribution of a batch of source vertices with a
//! forward sweep of masked `mxm`s and a backward dependency accumulation.

use graphblas::prelude::*;
use graphblas::semiring::PLUS_FIRST;
use graphblas::trace;

use crate::graph::Graph;

/// Batch betweenness centrality: the centrality contribution of shortest
/// paths that start at the given `sources`. Passing all vertices yields
/// exact BC (up to the constant factor conventions of Brandes).
pub fn betweenness_centrality(graph: &Graph, sources: &[Index]) -> Result<Vector<f64>> {
    let s = graph.structure()?;
    let n = s.nrows();
    for &src in sources {
        if src >= n {
            return Err(Error::oob(src, n));
        }
    }
    let ns = sources.len();
    if ns == 0 {
        return Vector::new(n);
    }
    let mut algo = trace::algo_span("bc.batch");
    algo.arg("n", n);
    algo.arg("sources", ns);
    // Both sweeps multiply by the adjacency *pattern*, so they run over
    // the Boolean structure with a FIRST multiply (`x ⊗ true = x`, what
    // `x × 1.0` gives bit for bit) instead of an f64 copy of the graph
    // held for the whole call.
    // numsp: ns × n path counts; starts with 1 at each source.
    let mut numsp = Matrix::<f64>::new(ns, n)?;
    for (k, &src) in sources.iter().enumerate() {
        numsp.set_element(k, src, 1.0)?;
    }
    // frontier: paths discovered this level.
    let mut frontier = numsp.clone();
    // Stack of per-level frontiers for the backward sweep.
    let mut stack: Vec<Matrix<f64>> = Vec::new();
    loop {
        let mut iter = trace::iter_span("bc.forward", stack.len() as u64);
        iter.arg("frontier_nnz", frontier.nvals());
        // next<¬numsp,replace> = frontier ⊕.⊗ A
        let visited = numsp.pattern();
        let mut next = Matrix::<f64>::new(ns, n)?;
        mxm(
            &mut next,
            Some(&visited),
            NOACC,
            &PLUS_FIRST,
            &frontier,
            &*s,
            &Descriptor::new().complement().structural().replace(),
        )?;
        if next.nvals() == 0 {
            break;
        }
        // numsp += next
        let nsnap = numsp.clone();
        ewise_add_matrix(
            &mut numsp,
            None,
            NOACC,
            binaryop::Plus,
            &nsnap,
            &next,
            &Descriptor::default(),
        )?;
        stack.push(next.clone());
        frontier = next;
    }

    // Backward: dependency accumulation.
    // bcu starts as all-ones dense ns × n (the +1 term of Brandes).
    let mut bcu = Matrix::<f64>::new(ns, n)?;
    assign_matrix_scalar(
        &mut bcu,
        None,
        NOACC,
        1.0,
        &IndexSel::All,
        &IndexSel::All,
        &Descriptor::default(),
    )?;
    // Write levels `stack.len()-1 .. 1`; the source level (0) is excluded,
    // as Brandes' dependency accumulation never assigns δ to the source.
    for d in (1..stack.len()).rev() {
        let _iter = trace::iter_span("bc.backward", d as u64);
        // w<S_d> = bcu ./ numsp
        let sd = stack[d].pattern();
        let mut w = Matrix::<f64>::new(ns, n)?;
        ewise_mult_matrix(
            &mut w,
            Some(&sd),
            NOACC,
            |b: f64, p: f64| b / p,
            &bcu,
            &numsp,
            &Descriptor::new().structural().replace(),
        )?;
        // back-propagate along reversed edges: t<S_{d-1}> = w ⊕.⊗ Aᵀ
        let mask_prev = stack[d - 1].pattern();
        let mut t = Matrix::<f64>::new(ns, n)?;
        mxm(
            &mut t,
            Some(&mask_prev),
            NOACC,
            &PLUS_FIRST,
            &w,
            &*s,
            &Descriptor::new().structural().replace().transpose_b(),
        )?;
        // bcu += t .* numsp
        let mut contrib = Matrix::<f64>::new(ns, n)?;
        ewise_mult_matrix(
            &mut contrib,
            None,
            NOACC,
            binaryop::Times,
            &t,
            &numsp,
            &Descriptor::default(),
        )?;
        let bsnap = bcu.clone();
        ewise_add_matrix(
            &mut bcu,
            None,
            NOACC,
            binaryop::Plus,
            &bsnap,
            &contrib,
            &Descriptor::default(),
        )?;
    }
    // centrality(v) = sum over sources of bcu(:, v) minus ns (the +1s).
    let mut bc = Vector::<f64>::new(n)?;
    reduce_matrix(&mut bc, None, NOACC, &binaryop::Plus, &bcu, &Descriptor::new().transpose_a())?;
    let snapshot = bc.clone();
    let ns_f = ns as f64;
    apply(&mut bc, None, NOACC, move |x: f64| x - ns_f, &snapshot, &Descriptor::default())?;
    Ok(bc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphKind;

    fn assert_close(v: &Vector<f64>, i: Index, want: f64) {
        let got = v.get(i).unwrap_or(f64::NAN);
        assert!((got - want).abs() < 1e-9, "bc({i}) = {got}, want {want}");
    }

    #[test]
    fn path_centrality() {
        // Path 0-1-2-3-4: exact BC (all sources, undirected convention
        // counting both directions) of middle vertex 2 is 8:
        // pairs (0,3),(0,4),(1,3),(1,4) and reverses pass through 2.
        let edges: Vec<(Index, Index)> = (0..4).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(5, &edges, GraphKind::Undirected).expect("graph");
        let all: Vec<Index> = (0..5).collect();
        let bc = betweenness_centrality(&g, &all).expect("bc");
        assert_close(&bc, 0, 0.0);
        assert_close(&bc, 1, 6.0); // (0,2),(0,3),(0,4) ×2 directions
        assert_close(&bc, 2, 8.0);
        assert_close(&bc, 3, 6.0);
        assert_close(&bc, 4, 0.0);
    }

    #[test]
    fn star_center_dominates() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)], GraphKind::Undirected)
            .expect("graph");
        let all: Vec<Index> = (0..5).collect();
        let bc = betweenness_centrality(&g, &all).expect("bc");
        // Center lies on all 4×3 = 12 ordered leaf pairs.
        assert_close(&bc, 0, 12.0);
        for leaf in 1..5 {
            assert_close(&bc, leaf, 0.0);
        }
    }

    #[test]
    fn split_paths_share_centrality() {
        // Diamond: 0-1-3, 0-2-3: two shortest paths 0→3; each middle
        // vertex gets half per direction.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)], GraphKind::Undirected)
            .expect("graph");
        let all: Vec<Index> = (0..4).collect();
        let bc = betweenness_centrality(&g, &all).expect("bc");
        assert_close(&bc, 1, 1.0); // 0.5 each direction
        assert_close(&bc, 2, 1.0);
        // 0 and 3 likewise lie on the two shortest 1 ↔ 2 paths.
        assert_close(&bc, 0, 1.0);
        assert_close(&bc, 3, 1.0);
    }

    #[test]
    fn batch_subset_is_partial_sum() {
        let edges: Vec<(Index, Index)> = (0..4).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(5, &edges, GraphKind::Undirected).expect("graph");
        let from0 = betweenness_centrality(&g, &[0]).expect("bc0");
        let from4 = betweenness_centrality(&g, &[4]).expect("bc4");
        let both = betweenness_centrality(&g, &[0, 4]).expect("bc04");
        for v in 0..5 {
            let a = from0.get(v).unwrap_or(0.0) + from4.get(v).unwrap_or(0.0);
            let b = both.get(v).unwrap_or(0.0);
            assert!((a - b).abs() < 1e-9, "v={v}: {a} vs {b}");
        }
    }

    #[test]
    fn empty_sources_empty_result() {
        let g = Graph::from_edges(3, &[(0, 1)], GraphKind::Undirected).expect("graph");
        let bc = betweenness_centrality(&g, &[]).expect("bc");
        assert_eq!(bc.nvals(), 0);
    }
}
