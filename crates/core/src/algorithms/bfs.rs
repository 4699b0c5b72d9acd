//! Breadth-first search.
//!
//! Three variants, all built only on the public GraphBLAS API:
//!
//! * [`bfs_level`] — a line-for-line transcription of the paper's Fig. 2
//!   pseudocode (`frontier⟨¬levels, replace⟩ = graphᵀ ⊕.⊗ frontier` over
//!   the logical semiring).
//! * [`bfs_parent`] — parent-pointer BFS using the `ANY_SECOND` semiring.
//! * [`bfs_level_batch`] — multi-source BFS: k searches advance together
//!   as one masked `mxm` over a k×n frontier *matrix* per level
//!   (GraphBLAST's batched-traversal trick); the serving layer's query
//!   admission folds concurrent BFS queries into this kernel.
//! * [`bfs_level_direction`] — the direction-optimized (push/pull) BFS of
//!   Beamer et al. that §II.A and §II.E describe, with an explicit
//!   [`Direction`] override for the benchmark harness.
//!
//! All variants run in O(n + e) work over the visited component
//! (direction optimization lowers the constant on scale-free graphs, not
//! the bound) using the `LOR_LAND` logical semiring for levels and
//! `ANY_SECOND` for parents. BFS is GAP benchmark kernel #1; the
//! `lagraph-bench` harness times [`bfs_level_matrix`] with `Auto`
//! direction from multiple sources, GAP-style.

use graphblas::prelude::*;
use graphblas::semiring::{ANY_SECOND, LOR_LAND};
use graphblas::trace;

use crate::graph::Graph;

/// Level BFS, exactly as in Fig. 2 of the paper. Returns the level vector:
/// `levels(v) = depth` with the source at depth 1; unreached vertices have
/// no entry.
pub fn bfs_level(graph: &Graph, source: Index) -> Result<Vector<i32>> {
    let a = graph.structure()?;
    bfs_level_matrix(&a, source, Direction::Auto)
}

/// Level BFS with explicit direction control (Push / Pull / Auto). When
/// the matrix has dual storage, `Auto` switches per iteration between the
/// scatter and dot kernels by comparing flops estimates under the
/// measured `graphblas::cost` model — the direction-optimized traversal
/// GraphBLAST popularized, with the crossover calibrated to the host
/// instead of a fixed frontier-density ratio.
pub fn bfs_level_direction(
    graph: &Graph,
    source: Index,
    direction: Direction,
) -> Result<Vector<i32>> {
    let a = graph.structure()?;
    bfs_level_matrix(&a, source, direction)
}

/// The Fig. 2 kernel over any Boolean adjacency matrix.
pub fn bfs_level_matrix(
    a: &Matrix<bool>,
    source: Index,
    direction: Direction,
) -> Result<Vector<i32>> {
    let n = a.nrows();
    if source >= n {
        return Err(Error::oob(source, n));
    }
    let mut algo = trace::algo_span("bfs.level");
    algo.arg("n", n);
    algo.arg("source", source);
    let mut levels = Vector::<i32>::new(n)?;
    // The mask of the traversal step, kept beside `levels` and updated by
    // the same masked assign: each level costs what its frontier touches,
    // not a rebuild of `levels`' pattern.
    let mut visited = Vector::<bool>::new(n)?;
    let mut frontier = Vector::<bool>::new(n)?;
    frontier.set_element(source, true)?;
    let by_frontier = Descriptor::new().structural();
    let mut depth = 0;
    while frontier.nvals() > 0 {
        depth += 1;
        let mut iter = trace::iter_span("bfs.iter", depth as u64);
        iter.arg("frontier_nnz", frontier.nvals());
        // levels[frontier] = depth
        assign_scalar(&mut levels, Some(&frontier), NOACC, depth, &IndexSel::All, &by_frontier)?;
        assign_scalar(&mut visited, Some(&frontier), NOACC, true, &IndexSel::All, &by_frontier)?;
        // frontier<¬levels,replace> = graphᵀ ⊕.⊗ frontier
        let q = std::mem::replace(&mut frontier, Vector::new(n)?);
        mxv(
            &mut frontier,
            Some(&visited),
            NOACC,
            &LOR_LAND,
            a,
            &q,
            &Descriptor::new()
                .transpose_a()
                .complement()
                .structural()
                .replace()
                .direction(direction),
        )?;
    }
    algo.arg("depth", depth as u64);
    Ok(levels)
}

/// Multi-source level BFS: one traversal for a whole batch of sources.
///
/// The k frontiers ride in one k×n Boolean *frontier matrix* (row k is
/// source k's frontier), so every level of every search advances with a
/// **single masked `mxm`** — GraphBLAST's batched-traversal formulation,
/// and the kernel the service admission layer folds k concurrent BFS
/// queries into. Row `k` of the result is bit-identical to
/// `bfs_level(graph, sources[k])`: levels are depths, which no kernel
/// schedule can perturb.
///
/// Duplicate sources are allowed (their rows are computed independently
/// and come out equal); an out-of-bounds source fails the whole batch.
pub fn bfs_level_batch(graph: &Graph, sources: &[Index]) -> Result<Vec<Vector<i32>>> {
    let a = graph.structure()?;
    bfs_level_batch_matrix(&a, sources)
}

/// [`bfs_level_batch`] over any Boolean adjacency matrix.
pub fn bfs_level_batch_matrix(a: &Matrix<bool>, sources: &[Index]) -> Result<Vec<Vector<i32>>> {
    let n = a.nrows();
    for &s in sources {
        if s >= n {
            return Err(Error::oob(s, n));
        }
    }
    let k = sources.len();
    if k == 0 {
        return Ok(Vec::new());
    }
    let mut algo = trace::algo_span("bfs.batch");
    algo.arg("n", n);
    algo.arg("sources", k);
    // levels: k×n, row k holds source k's depth labeling.
    let mut levels = Matrix::<i32>::new(k, n)?;
    let mut frontier = Matrix::<bool>::new(k, n)?;
    for (row, &s) in sources.iter().enumerate() {
        frontier.set_element(row, s, true)?;
    }
    let mut depth = 0;
    while frontier.nvals() > 0 {
        depth += 1;
        let mut iter = trace::iter_span("bfs.iter", depth as u64);
        iter.arg("frontier_nnz", frontier.nvals());
        // levels<frontier> = depth, for every search at once.
        assign_matrix_scalar(
            &mut levels,
            Some(&frontier),
            NOACC,
            depth,
            &IndexSel::All,
            &IndexSel::All,
            &Descriptor::new().structural(),
        )?;
        // frontier<¬levels,replace> = frontier ⊕.⊗ graph — one mxm
        // advances all k frontiers (A is applied on the right, so no
        // transpose is needed: row k stays search k).
        let visited = levels.pattern();
        let q = std::mem::replace(&mut frontier, Matrix::new(k, n)?);
        mxm(
            &mut frontier,
            Some(&visited),
            NOACC,
            &LOR_LAND,
            &q,
            a,
            &Descriptor::new().complement().structural().replace(),
        )?;
    }
    algo.arg("depth", depth as u64);
    // Unbundle the rows into per-source level vectors.
    let mut rows: Vec<Vec<(Index, i32)>> = vec![Vec::new(); k];
    for (row, v, l) in levels.iter() {
        rows[row].push((v, l));
    }
    rows.into_iter().map(|tuples| Vector::from_tuples(n, tuples, |_, b| b)).collect()
}

/// Parent BFS: returns `parents(v) = u` where `u` is the vertex that
/// discovered `v` (the source is its own parent). Uses the `ANY_SECOND`
/// semiring so any discovering neighbor may win — with deterministic
/// tie-breaking in this implementation (the first in row order).
pub fn bfs_parent(graph: &Graph, source: Index) -> Result<Vector<u64>> {
    let a = graph.structure()?;
    let n = a.nrows();
    if source >= n {
        return Err(Error::oob(source, n));
    }
    let mut algo = trace::algo_span("bfs.parent");
    algo.arg("n", n);
    algo.arg("source", source);
    let mut parents = Vector::<u64>::new(n)?;
    parents.set_element(source, source as u64)?;
    // The frontier carries the *id of the discovering vertex* as value.
    let mut frontier = Vector::<u64>::new(n)?;
    frontier.set_element(source, source as u64)?;
    let mut depth: u64 = 0;
    while frontier.nvals() > 0 {
        depth += 1;
        let mut iter = trace::iter_span("bfs.iter", depth);
        iter.arg("frontier_nnz", frontier.nvals());
        // q(v) = v for the next wave: each frontier vertex offers itself.
        let mut q = Vector::<u64>::new(n)?;
        apply_indexed(
            &mut q,
            None,
            NOACC,
            |i: Index, _: Index, _: u64| i as u64,
            &frontier,
            &Descriptor::default(),
        )?;
        // next<¬parents,replace> = Aᵀ any.second q
        let visited = parents.pattern();
        let mut next = Vector::<u64>::new(n)?;
        mxv(
            &mut next,
            Some(&visited),
            NOACC,
            &ANY_SECOND,
            &a,
            &q,
            &Descriptor::new().transpose_a().complement().structural().replace(),
        )?;
        // parents<next,structural> = next
        assign(
            &mut parents,
            Some(&next.pattern()),
            NOACC,
            &next,
            &IndexSel::All,
            &Descriptor::new().structural(),
        )?;
        frontier = next;
    }
    Ok(parents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphKind;

    /// 0 — 1 — 2 — 3, plus 1 — 4; vertex 5 isolated.
    fn path_graph() -> Graph {
        Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (1, 4)], GraphKind::Undirected)
            .expect("graph")
    }

    #[test]
    fn levels_on_a_path() {
        let g = path_graph();
        let levels = bfs_level(&g, 0).expect("bfs");
        assert_eq!(levels.extract_tuples(), vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 3)]);
        assert_eq!(levels.get(5), None, "isolated vertex unreached");
    }

    #[test]
    fn levels_from_interior_source() {
        let g = path_graph();
        let levels = bfs_level(&g, 2).expect("bfs");
        assert_eq!(levels.get(2), Some(1));
        assert_eq!(levels.get(1), Some(2));
        assert_eq!(levels.get(3), Some(2));
        assert_eq!(levels.get(0), Some(3));
        assert_eq!(levels.get(4), Some(3));
    }

    #[test]
    fn directions_agree() {
        let g = path_graph();
        let auto = bfs_level_direction(&g, 0, Direction::Auto).expect("auto");
        let push = bfs_level_direction(&g, 0, Direction::Push).expect("push");
        let pull = bfs_level_direction(&g, 0, Direction::Pull).expect("pull");
        assert_eq!(auto.extract_tuples(), push.extract_tuples());
        assert_eq!(auto.extract_tuples(), pull.extract_tuples());
    }

    #[test]
    fn parents_form_a_bfs_tree() {
        let g = path_graph();
        let parents = bfs_parent(&g, 0).expect("bfs");
        let levels = bfs_level(&g, 0).expect("levels");
        assert_eq!(parents.get(0), Some(0), "source is its own parent");
        for (v, p) in parents.iter() {
            if v == 0 {
                continue;
            }
            let lv = levels.get(v).expect("reached");
            let lp = levels.get(p as Index).expect("parent reached");
            assert_eq!(lv, lp + 1, "parent of {v} is one level up");
            assert!(g.a().get(p as Index, v).is_some(), "parent edge exists");
        }
        assert_eq!(parents.get(5), None);
    }

    #[test]
    fn batch_rows_match_single_source_runs() {
        let g = path_graph();
        let sources = [0, 2, 4, 5, 0]; // includes an isolated vertex + a duplicate
        let batch = bfs_level_batch(&g, &sources).expect("batch");
        assert_eq!(batch.len(), sources.len());
        for (row, &s) in sources.iter().enumerate() {
            let single = bfs_level(&g, s).expect("single");
            assert_eq!(
                batch[row].extract_tuples(),
                single.extract_tuples(),
                "source {s} diverged from the single-source oracle"
            );
        }
    }

    #[test]
    fn batch_on_directed_graph() {
        let g =
            Graph::from_edges(4, &[(0, 1), (1, 2), (3, 0)], GraphKind::Directed).expect("graph");
        let batch = bfs_level_batch(&g, &[0, 3]).expect("batch");
        assert_eq!(batch[0].extract_tuples(), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(batch[1].extract_tuples(), vec![(0, 2), (1, 3), (2, 4), (3, 1)]);
    }

    #[test]
    fn batch_edge_cases() {
        let g = path_graph();
        assert!(bfs_level_batch(&g, &[]).expect("empty").is_empty());
        assert!(bfs_level_batch(&g, &[0, 6]).is_err(), "oob source fails the batch");
    }

    #[test]
    fn directed_bfs_follows_arcs() {
        let g =
            Graph::from_edges(4, &[(0, 1), (1, 2), (3, 0)], GraphKind::Directed).expect("graph");
        let levels = bfs_level(&g, 0).expect("bfs");
        assert_eq!(levels.extract_tuples(), vec![(0, 1), (1, 2), (2, 3)]);
        // 3 → 0 is not reachable from 0.
        assert_eq!(levels.get(3), None);
    }

    #[test]
    fn source_out_of_bounds() {
        let g = path_graph();
        assert!(bfs_level(&g, 6).is_err());
    }

    #[test]
    fn bfs_on_single_vertex() {
        let g = Graph::from_edges(1, &[], GraphKind::Undirected).expect("graph");
        let levels = bfs_level(&g, 0).expect("bfs");
        assert_eq!(levels.extract_tuples(), vec![(0, 1)]);
    }
}
