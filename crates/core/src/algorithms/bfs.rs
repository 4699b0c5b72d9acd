//! Breadth-first search.
//!
//! Three variants, all built only on the public GraphBLAS API:
//!
//! * [`bfs_level`] — a line-for-line transcription of the paper's Fig. 2
//!   pseudocode (`frontier⟨¬levels, replace⟩ = graphᵀ ⊕.⊗ frontier` over
//!   the logical semiring).
//! * [`bfs_parent`] — parent-pointer BFS using the `ANY_SECOND` semiring.
//! * [`bfs_level_batch`] — multi-source BFS, bit-parallel: one `u64` of
//!   source bits per vertex, so up to 64 searches advance together as one
//!   masked `mxv` over `BOR_SECOND` per level (the MS-BFS of Then et al.)
//!   and a batch costs one traversal, push/pull and early exit included;
//!   the serving layer's query admission folds concurrent BFS queries into
//!   this kernel.
//! * [`bfs_level_direction`] — the direction-optimized (push/pull) BFS of
//!   Beamer et al. that §II.A and §II.E describe, with an explicit
//!   [`Direction`] override for benchmarks and tests.
//!
//! All variants run in O(n + e) work over the visited component
//! (direction optimization lowers the constant on scale-free graphs, not
//! the bound) using the `LOR_LAND` logical semiring for levels (`BOR_SECOND`
//! for a batch of them) and `ANY_SECOND` for parents. BFS is GAP benchmark
//! kernel #1, one of the six the repo benchmark (`benchmark/`) times.

use graphblas::prelude::*;
use graphblas::semiring::{ANY_SECOND, BOR_SECOND, LOR_LAND};
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
/// Bit-parallel (the MS-BFS of Then et al., VLDB 2014): every vertex
/// carries one `u64` whose bit `b` belongs to `sources[b]`, so the frontier
/// and the visited set of up to 64 searches are two `Vector<u64>`s and
/// every level of every search advances with a **single `mxv`** over
/// [`BOR_SECOND`] — push or pull by the cost model, stopping a pull at the
/// monoid's all-ones terminal, exactly as [`bfs_level`] does over
/// `LOR_LAND`. Five vector ops a level whatever the width; more than 64
/// sources run as further words, one traversal each. This is the kernel the
/// service admission layer folds k concurrent BFS queries into. Row `k` of
/// the result is bit-identical to `bfs_level(graph, sources[k])`: levels are
/// depths, which no kernel schedule can perturb.
///
/// Duplicate sources are allowed (their rows are computed independently
/// and come out equal); an out-of-bounds source fails the whole batch.
pub fn bfs_level_batch(graph: &Graph, sources: &[Index]) -> Result<Vec<Vector<i32>>> {
    let a = graph.structure()?;
    bfs_level_batch_matrix(&a, sources)
}

/// Searches one traversal carries: the bits of the per-vertex word.
const WORD: usize = u64::BITS as usize;

/// [`bfs_level_batch`] over any Boolean adjacency matrix.
pub fn bfs_level_batch_matrix(a: &Matrix<bool>, sources: &[Index]) -> Result<Vec<Vector<i32>>> {
    let n = a.nrows();
    for &s in sources {
        if s >= n {
            return Err(Error::oob(s, n));
        }
    }
    if sources.is_empty() {
        return Ok(Vec::new());
    }
    // The traversal keeps a word per vertex; a hypersparse graph too long
    // for any full-length vector is searched source by source.
    if n > Vector::<u64>::FULL_LENGTH_LIMIT {
        return sources.iter().map(|&s| bfs_level_matrix(a, s, Direction::Auto)).collect();
    }
    let mut algo = trace::algo_span("bfs.batch");
    algo.arg("n", n);
    algo.arg("sources", sources.len());
    algo.arg("words", sources.len().div_ceil(WORD));
    let mut levels = Vec::with_capacity(sources.len());
    let mut depth = 0;
    for word in sources.chunks(WORD) {
        depth = depth.max(bfs_level_word(a, word, &mut levels)?);
    }
    algo.arg("depth", depth as u64);
    Ok(levels)
}

/// One bit-parallel traversal from at most [`WORD`] sources: appends their
/// level vectors to `levels` and returns the deepest level reached.
fn bfs_level_word(
    a: &Matrix<bool>,
    sources: &[Index],
    levels: &mut Vec<Vector<i32>>,
) -> Result<i32> {
    let n = a.nrows();
    let k = sources.len();
    // Bits k..64 stand for no search. Held set in `seen` and in every
    // frontier word they never reach a level row, and they let BOR's stock
    // terminal fire: a vertex all k searches reach at once ORs to all-ones.
    let spare = if k == WORD { 0 } else { u64::MAX << k };
    let by_default = Descriptor::default();
    // rows[b][v]: the depth search b reached v at, 0 while it has not.
    let mut rows: Vec<Vec<i32>> = (0..k).map(|_| vec![0; n]).collect();
    // seen(v): the searches that have reached v. done(v): all of them have.
    let mut seen = Vector::dense(n, spare)?;
    let mut done = Vector::dense(n, false)?;
    let starts = sources.iter().enumerate().map(|(b, &s)| (s, 1u64 << b | spare)).collect();
    let mut frontier = Vector::from_tuples(n, starts, |x, y| x | y)?;
    let mut depth = 0;
    while frontier.nvals() > 0 {
        depth += 1;
        let mut iter = trace::iter_span("bfs.iter", depth as u64);
        iter.arg("frontier_nnz", frontier.nvals());
        for (v, word) in frontier.iter() {
            let mut arrived = word & !spare;
            while arrived != 0 {
                rows[arrived.trailing_zeros() as usize][v] = depth;
                arrived &= arrived - 1;
            }
        }
        // seen |= frontier, then done ∨= (seen is all-ones) where it changed.
        apply(&mut seen, None, Some(binaryop::Bor), unaryop::Identity, &frontier, &by_default)?;
        let all = |_: u64, s: u64| s == u64::MAX;
        ewise_mult(&mut done, None, Some(binaryop::Lor), all, &frontier, &seen, &by_default)?;
        // reach<¬done,replace> = graphᵀ bor.second frontier
        let mut reach = Vector::new(n)?;
        mxv(
            &mut reach,
            Some(&done),
            NOACC,
            &BOR_SECOND,
            a,
            &frontier,
            &Descriptor::new().transpose_a().complement().replace(),
        )?;
        // frontier = the searches new to each reached vertex, where any are.
        let new = move |r: u64, s: u64| if r & !s == 0 { 0 } else { r & !s | spare };
        let mut fresh = Vector::new(n)?;
        ewise_mult(&mut fresh, None, NOACC, new, &reach, &seen, &by_default)?;
        frontier = Vector::new(n)?;
        select(&mut frontier, None, NOACC, unaryop::ValueNe(0), &fresh, &by_default)?;
    }
    for row in rows {
        let present = |c: &[i32]| c.iter().rev().fold(0u64, |w, &d| w << 1 | u64::from(d != 0));
        let bits = row.chunks(WORD).map(present).collect();
        levels.push(Vector::import_bitmap(row, bits)?);
    }
    Ok(depth)
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

    /// Every row of the batch against the single-source run it stands for.
    fn assert_rows_match(g: &Graph, sources: &[Index], what: &str) {
        let batch = bfs_level_batch(g, sources).expect("batch");
        assert_eq!(batch.len(), sources.len(), "{what}");
        for (row, &s) in batch.iter().zip(sources) {
            let single = bfs_level(g, s).expect("single");
            assert_eq!(row.extract_tuples(), single.extract_tuples(), "{what}: source {s}");
        }
    }

    #[test]
    fn batch_rows_match_at_every_width() {
        // An RMAT (hubs, isolated vertices, small components beside the big
        // one), a long path (one vertex a level, two components), and a
        // directed graph whose arcs mostly have no reverse.
        let rmat = crate::gen::Workload::Rmat.graph(10, 16, 7, 255).expect("rmat");
        let n = rmat.nvertices();
        let degrees = rmat.out_degree().expect("degrees");
        let isolated = (0..n).find(|&v| degrees.get(v).is_none()).expect("an isolated vertex");
        let chain: Vec<(Index, Index)> =
            (0..199).filter(|&v| v != 120).map(|v| (v, v + 1)).collect();
        let path = Graph::from_edges(200, &chain, GraphKind::Undirected).expect("path");
        let arcs: Vec<(Index, Index)> =
            (0..1500).map(|t| (t * 7919 % 300, (t * 104_729 + t / 300 + 1) % 300)).collect();
        let directed = Graph::from_edges(300, &arcs, GraphKind::Directed).expect("directed");
        assert!(
            arcs.iter().any(|&(i, j)| directed.a().get(j, i).is_none()),
            "the directed graph must have one-way arcs"
        );
        for k in [1usize, 2, 63, 64, 65, 130] {
            // A stride that wraps: k = 130 repeats sources across words.
            let spread = |m: usize| (0..k).map(|j| (j * 37 + 5) % m).collect::<Vec<Index>>();
            let mut on_rmat = spread(n.min(97));
            on_rmat[k / 2] = isolated;
            assert_rows_match(&rmat, &on_rmat, &format!("rmat, k = {k}"));
            assert_rows_match(&path, &spread(200), &format!("path, k = {k}"));
            assert_rows_match(&directed, &spread(300), &format!("directed, k = {k}"));
        }
        // The same source under several bits of one word, and in two words.
        let mut repeated = vec![3; 70];
        repeated[1] = 150;
        assert_rows_match(&path, &repeated, "duplicates");
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
