//! The LAGraph `Graph` object: an adjacency matrix plus cached derived
//! properties (transpose, structure, degrees, connected components,
//! triangle count, core numbers, PageRank), so algorithms don't
//! recompute them — the design the LAGraph project
//! adopted so a graph can flow through a processing pipeline (§IV of the
//! paper).

use graphblas::prelude::*;
use graphblas::{net_edits, Edit};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use crate::algorithms::cc::{connected_components, repair_components};
use crate::algorithms::{
    core_numbers, core_numbers_insert, pagerank, pagerank_warm, triangle_count,
    triangle_count_delta, PageRankOptions, TriCountMethod,
};

/// Whether the adjacency matrix is to be interpreted as directed (an edge
/// `(i, j)` is the arc `i → j`) or undirected (the matrix is symmetric by
/// construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// Adjacency of a directed graph.
    Directed,
    /// Adjacency of an undirected graph; `A` must be structurally
    /// symmetric (checked by [`Graph::check`]).
    Undirected,
}

/// One structural edge change: what [`Graph::advance`] reports of a
/// netted delta (weight overwrites and redundant deletes are filtered
/// out), and what the incremental algorithms take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeEvent {
    /// The edge `(u, v)` was absent and is now present.
    Insert(Index, Index),
    /// The edge `(u, v)` was present and is now absent.
    Delete(Index, Index),
}

/// One event per changed edge: every arc on a directed graph, the
/// `i ≤ j` half on an undirected one, whose delta carries both arcs of
/// every edge it writes.
pub(crate) fn edges_of(kind: GraphKind, arcs: &[EdgeEvent]) -> Vec<EdgeEvent> {
    arcs.iter().copied().filter(|e| is_edge(kind, e)).collect()
}

/// Whether the arc event `e` is one of [`edges_of`].
fn is_edge(kind: GraphKind, e: &EdgeEvent) -> bool {
    let (EdgeEvent::Insert(u, v) | EdgeEvent::Delete(u, v)) = *e;
    kind == GraphKind::Directed || u <= v
}

#[derive(Default, Clone)]
struct Cached {
    at: Option<Arc<Matrix<f64>>>,
    structure: Option<Arc<Matrix<bool>>>,
    out_degree: Option<Arc<Vector<i64>>>,
    in_degree: Option<Arc<Vector<i64>>>,
    components: Option<Arc<Vector<u64>>>,
    nself_edges: Option<usize>,
    triangles: Option<Carry<u64>>,
    cores: Option<Carry<Arc<Vector<i64>>>>,
    ranks: Option<Carry<Ranks>>,
    /// The epoch the seeds are repaired across; dropped with the last one.
    step: Option<Arc<Step>>,
}

impl Cached {
    fn seeded(&self) -> bool {
        matches!(self.triangles, Some(Carry::Seed(_)))
            || matches!(self.cores, Some(Carry::Seed(_)))
            || matches!(self.ranks, Some(Carry::Seed(_)))
    }
}

/// An answer a graph holds, or its predecessor's, seeded by
/// [`Graph::advance`] for its repair rule to bring across the epoch on
/// the first read.
#[derive(Clone)]
enum Carry<T> {
    Held(T),
    Seed(T),
}

impl<T> Carry<T> {
    fn value(&self) -> &T {
        match self {
            Carry::Held(v) | Carry::Seed(v) => v,
        }
    }

    /// The value, if held: a seed nobody read is not carried further.
    fn held(self) -> Option<T> {
        match self {
            Carry::Held(v) => Some(v),
            Carry::Seed(_) => None,
        }
    }
}

/// An answer carried on `quiet` epochs (no structural change) as it is,
/// and otherwise as the seed of its repair.
fn carry<T>(held: Option<T>, quiet: bool) -> Option<Carry<T>> {
    held.map(|v| if quiet { Carry::Held(v) } else { Carry::Seed(v) })
}

/// PageRank ranks at `opts`, and the iterations they took.
#[derive(Clone)]
struct Ranks {
    opts: PageRankOptions,
    ranks: Arc<Vector<f64>>,
    iterations: usize,
}

/// The epoch a seeded answer is repaired across: the graph before it, a
/// bare graph over the predecessor's adjacency, and its structural edge
/// changes ([`edges_of`]).
struct Step {
    before: Graph,
    edges: Vec<EdgeEvent>,
}

/// A cached answer that [`Graph::advance_within`] carries forward.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Property {
    Components,
    OutDegree,
    Triangles,
    Cores,
    Ranks(PageRankOptions),
}

/// A graph: adjacency matrix, kind, and lazily cached properties.
///
/// # Cached properties
///
/// The transpose, Boolean structure, degree vectors, connected-component
/// labels, triangle count, core numbers, PageRank ranks and self-edge
/// count are computed on first use and memoized behind a lock, so a graph
/// can flow through a pipeline of algorithms without recomputing them:
///
/// ```
/// use lagraph::{Graph, GraphKind};
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)], GraphKind::Directed)?;
/// let at = g.at()?;                       // computes Aᵀ, caches it
/// assert!(std::sync::Arc::ptr_eq(&at, &g.at()?)); // second call: cache hit
/// assert_eq!(g.out_degree()?.get(0), Some(1));
/// assert_eq!(g.in_degree()?.get(0), None); // vertex 0 has no in-edges
/// # Ok::<(), graphblas::Error>(())
/// ```
///
/// The getters are fallible: a cache miss runs real GraphBLAS operations
/// (transpose, reduce), and any error propagates to the caller instead of
/// panicking while the cache lock is held.
///
/// [`Graph::advance`] carries what a graph has materialised into the graph
/// an edge delta turns it into. The component labels of an undirected
/// graph follow by a repair that reads only the rows its searches visit;
/// the triangle count, core numbers and ranks by their incremental rules,
/// applied on the successor's first read:
///
/// ```
/// use graphblas::Edit;
/// use lagraph::{connected_components, Graph, GraphKind};
///
/// let g = Graph::from_edges(4, &[(0, 1), (2, 3)], GraphKind::Undirected)?;
/// assert_eq!(g.components()?.extract_tuples(), [(0, 0), (1, 0), (2, 2), (3, 2)]);
/// // Join the two components by the edge (1, 2), both arcs of it.
/// let delta: Vec<Edit<f64>> = vec![(1, 2, Some(1.0)), (2, 1, Some(1.0))];
/// let (next, events) = g.advance(g.a().with_edits(&delta)?, &delta)?;
/// assert_eq!(events.len(), 2); // two arcs inserted
/// let labels = next.components()?; // carried: no FastSV run on `next`
/// assert_eq!(labels.extract_tuples(), connected_components(&next)?.extract_tuples());
/// assert!(labels.iter().all(|(_, c)| c == 0));
/// # Ok::<(), graphblas::Error>(())
/// ```
pub struct Graph {
    /// The adjacency matrix; `A(i, j)` is the weight of edge `i → j`.
    /// Shared, because an undirected graph's cached `Aᵀ` is this matrix.
    a: Arc<Matrix<f64>>,
    kind: GraphKind,
    cache: Mutex<Cached>,
    /// Monotone modification tag: bumped whenever the adjacency (and so
    /// every cached property) changes. The service layer stamps each
    /// published snapshot with its epoch.
    epoch: u64,
}

impl Graph {
    /// Wrap an adjacency matrix. The matrix must be square.
    pub fn new(a: Matrix<f64>, kind: GraphKind) -> Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(Error::dim(format!(
                "adjacency matrix must be square, got {}x{}",
                a.nrows(),
                a.ncols()
            )));
        }
        Ok(Graph::bare(Arc::new(a), kind, 0))
    }

    /// A graph over `a` with nothing cached.
    fn bare(a: Arc<Matrix<f64>>, kind: GraphKind, epoch: u64) -> Self {
        Graph { a, kind, cache: Mutex::new(Cached::default()), epoch }
    }

    /// Build an unweighted graph from an edge list (weights set to 1).
    /// For [`GraphKind::Undirected`], each edge is mirrored.
    pub fn from_edges(n: Index, edges: &[(Index, Index)], kind: GraphKind) -> Result<Self> {
        let mut tuples = Vec::with_capacity(edges.len() * 2);
        for &(i, j) in edges {
            tuples.push((i, j, 1.0));
            if kind == GraphKind::Undirected && i != j {
                tuples.push((j, i, 1.0));
            }
        }
        let a = Matrix::from_tuples(n, n, tuples, |_, b| b)?;
        Graph::new(a, kind)
    }

    /// Build a weighted graph from an edge list.
    pub fn from_weighted_edges(
        n: Index,
        edges: &[(Index, Index, f64)],
        kind: GraphKind,
    ) -> Result<Self> {
        let mut tuples = Vec::with_capacity(edges.len() * 2);
        for &(i, j, w) in edges {
            tuples.push((i, j, w));
            if kind == GraphKind::Undirected && i != j {
                tuples.push((j, i, w));
            }
        }
        let a = Matrix::from_tuples(n, n, tuples, |_, b| b)?;
        Graph::new(a, kind)
    }

    /// Load an adjacency matrix from a `.lagc` compressed container
    /// (see `lagraph_io::binary`): the heavy sections are memory-mapped,
    /// so the graph is queryable in O(1) without a parse or an assembly
    /// pass, and it stays in the compressed storage form.
    pub fn from_lagc(path: &std::path::Path, kind: GraphKind) -> Result<Self> {
        let a = Matrix::read_lagc(path, false)
            .map_err(|e| Error::invalid(format!("lagc load: {e}")))?;
        Graph::new(a, kind)
    }

    /// Opt the adjacency matrix into (or out of) compressed storage.
    /// Cached properties are untouched — they re-encode on their own
    /// next rebuild if the process-wide policy asks for it.
    pub fn set_compressed(&mut self, enabled: bool) {
        // An `Aᵀ` that is the adjacency itself stood for the uncompressed
        // form; the next `at()` decides again.
        let a = &self.a;
        self.cache.get_mut().at.take_if(|at| Arc::ptr_eq(at, a));
        Arc::make_mut(&mut self.a).set_compressed(enabled);
    }

    /// The adjacency matrix.
    pub fn a(&self) -> &Matrix<f64> {
        &self.a
    }

    /// The graph kind.
    pub fn kind(&self) -> GraphKind {
        self.kind
    }

    /// Number of vertices.
    pub fn nvertices(&self) -> Index {
        self.a.nrows()
    }

    /// Number of stored edges (each undirected edge counts twice).
    pub fn nedges(&self) -> usize {
        self.a.nvals()
    }

    /// Resident heap bytes of the graph: the adjacency matrix plus every
    /// cached property currently materialized (transpose, structure,
    /// degrees, component labels, core numbers, ranks), a seeded answer
    /// included. An undirected graph's `Aᵀ` that is the adjacency itself
    /// is counted once, and the predecessor's adjacency a seed reads is
    /// the predecessor's. Polling it does not populate any cache, so it is
    /// safe to call from a metrics gauge on the serving path.
    pub fn resident_bytes(&self) -> usize {
        let mut total = self.a.memory_usage().total();
        let c = self.cache.lock();
        if let Some(at) = c.at.as_ref().filter(|at| !Arc::ptr_eq(at, &self.a)) {
            total += at.memory_usage().total();
        }
        if let Some(st) = &c.structure {
            total += st.memory_usage().total();
        }
        if let Some(d) = &c.out_degree {
            total += d.memory_usage().total();
        }
        if let Some(d) = &c.in_degree {
            total += d.memory_usage().total();
        }
        if let Some(labels) = &c.components {
            total += labels.memory_usage().total();
        }
        if let Some(cores) = &c.cores {
            total += cores.value().memory_usage().total();
        }
        if let Some(r) = &c.ranks {
            total += r.value().ranks.memory_usage().total();
        }
        total
    }

    /// The cached transpose `Aᵀ`. An undirected graph whose adjacency is
    /// CSR (plain or layered) and passes the one-pass symmetry walk
    /// ([`Matrix::is_symmetric`]) *is* its transpose, pattern and values,
    /// and gets the adjacency back (as LAGraph uses `G->A` for `G->AT`);
    /// a directed graph, a compressed or hypersparse adjacency, or an
    /// "undirected" one that is not in fact symmetric materialises `Aᵀ`.
    /// Errors from the underlying transpose propagate instead of
    /// panicking under the cache lock.
    pub fn at(&self) -> Result<Arc<Matrix<f64>>> {
        let mut c = self.cache.lock();
        if let Some(at) = &c.at {
            return Ok(at.clone());
        }
        let at = if self.kind == GraphKind::Undirected && self.a.is_symmetric() == Some(true) {
            self.a.clone()
        } else {
            Arc::new(transpose_new(&self.a)?)
        };
        c.at = Some(at.clone());
        Ok(at)
    }

    /// The cached Boolean structure of `A`, with dual (push/pull) storage
    /// enabled so traversals can choose direction freely.
    pub fn structure(&self) -> Result<Arc<Matrix<bool>>> {
        let mut c = self.cache.lock();
        if let Some(st) = &c.structure {
            return Ok(st.clone());
        }
        let mut st = self.a.pattern();
        st.set_dual_storage(true);
        // A compressed adjacency serves a compressed structure: derived
        // matrices don't inherit the storage opt-in on their own, and the
        // structural kernels (tricount, BFS frontiers) are exactly where
        // the compressed form earns its footprint.
        if self.a.is_compressed() {
            st.set_compressed(true);
        }
        let st = Arc::new(st);
        c.structure = Some(st.clone());
        Ok(st)
    }

    /// Cached out-degrees (row degrees) as an `i64` vector; vertices with
    /// no out-edges have no entry. Read off the adjacency's row pointers.
    pub fn out_degree(&self) -> Result<Arc<Vector<i64>>> {
        let mut c = self.cache.lock();
        if let Some(d) = &c.out_degree {
            return Ok(d.clone());
        }
        let d = Arc::new(self.a.row_degrees());
        c.out_degree = Some(d.clone());
        Ok(d)
    }

    /// Cached in-degrees (column degrees). An undirected graph's are its
    /// out-degrees; a directed graph reads them off `Aᵀ` when that is
    /// already cached, and otherwise counts down the columns of `A`.
    pub fn in_degree(&self) -> Result<Arc<Vector<i64>>> {
        if self.kind == GraphKind::Undirected {
            return self.out_degree();
        }
        let mut c = self.cache.lock();
        if let Some(d) = &c.in_degree {
            return Ok(d.clone());
        }
        let d = match &c.at {
            Some(at) => at.row_degrees(),
            None => {
                let n = self.nvertices();
                let mut ones = Matrix::<i64>::new(n, n)?;
                apply_matrix(
                    &mut ones,
                    None,
                    NOACC,
                    unaryop::One,
                    &self.a,
                    &Descriptor::default(),
                )?;
                let mut d = Vector::<i64>::new(n)?;
                let desc = Descriptor::new().transpose_a();
                reduce_matrix(&mut d, None, NOACC, &binaryop::Plus, &ones, &desc)?;
                d
            }
        };
        let d = Arc::new(d);
        c.in_degree = Some(d.clone());
        Ok(d)
    }

    /// Cached connected-component labels ([`connected_components`]: each
    /// vertex's label is the smallest vertex id of its component), one
    /// FastSV run per graph. An undirected graph that [`advance`]s with
    /// them hands its successor labels repaired by the delta instead.
    ///
    /// [`advance`]: Graph::advance
    pub fn components(&self) -> Result<Arc<Vector<u64>>> {
        if let Some(labels) = &self.cache.lock().components {
            return Ok(labels.clone());
        }
        // Outside the lock: FastSV takes `structure()`, which locks it too.
        let labels = Arc::new(connected_components(self)?);
        Ok(self.cache.lock().components.get_or_insert(labels).clone())
    }

    /// The cached triangle count of an undirected graph
    /// ([`triangle_count`], Sandia). A graph that [`advance`]s with it
    /// seeds its successor, whose first read repairs it by
    /// [`triangle_count_delta`]: exact either way.
    ///
    /// [`advance`]: Graph::advance
    pub fn triangles(&self) -> Result<u64> {
        self.carried(
            |c| &mut c.triangles,
            |_| true,
            |t, step| Ok(triangle_count_delta(&step.before, t, &step.edges)),
            || triangle_count(self, TriCountMethod::Sandia),
        )
    }

    /// The cached core numbers of an undirected graph ([`core_numbers`]).
    /// A graph that [`advance`]s with them over inserts only seeds its
    /// successor, whose first read repairs them by
    /// [`core_numbers_insert`]; a delete has no local rule, so they are
    /// dropped and recomputed. Exact either way.
    ///
    /// [`advance`]: Graph::advance
    pub fn cores(&self) -> Result<Arc<Vector<i64>>> {
        self.carried(
            |c| &mut c.cores,
            |_| true,
            |prev, step| {
                let Some(mut cores) = prev.to_full() else {
                    return core_numbers(self).map(Arc::new);
                };
                let inserts: Vec<(Index, Index)> = step
                    .edges
                    .iter()
                    .filter_map(|e| match *e {
                        EdgeEvent::Insert(u, v) => Some((u, v)),
                        EdgeEvent::Delete(..) => None,
                    })
                    .collect();
                core_numbers_insert(&step.before, &mut cores, &inserts);
                Ok(Arc::new(Vector::import_full(cores)?))
            },
            || core_numbers(self).map(Arc::new),
        )
    }

    /// The cached PageRank ranks at `opts` (one options set is kept; other
    /// options replace it), with their iteration count. Ranks this graph
    /// computed are [`pagerank()`]`(self, opts)` bit for bit. Ranks a
    /// predecessor held are *carried*: [`advance`] seeds them, and the
    /// first read warm-restarts from them ([`pagerank_warm`]), which
    /// agrees with a cold run to within `opts.tolerance`, not bit for
    /// bit. A graph advanced past its change budget (at a zero budget,
    /// every epoch) carries none, so its ranks are the cold ones.
    ///
    /// [`advance`]: Graph::advance
    pub fn ranks(&self, opts: &PageRankOptions) -> Result<(Arc<Vector<f64>>, usize)> {
        let r = self.carried(
            |c| &mut c.ranks,
            |r| r.opts == *opts,
            |prev, _| {
                let (ranks, iterations) = pagerank_warm(self, opts, &prev.ranks)?;
                Ok(Ranks { opts: *opts, ranks: Arc::new(ranks), iterations })
            },
            || {
                let (ranks, iterations) = pagerank(self, opts)?;
                Ok(Ranks { opts: *opts, ranks: Arc::new(ranks), iterations })
            },
        )?;
        Ok((r.ranks, r.iterations))
    }

    /// Read one carried answer: a held one that `fits` as it is, a seed
    /// that fits repaired across the step, anything else computed `cold`.
    /// Both run outside the lock (they read other cached properties); two
    /// readers that race compute the same answer from the same inputs.
    fn carried<T: Clone>(
        &self,
        slot: impl Fn(&mut Cached) -> &mut Option<Carry<T>>,
        fits: impl Fn(&T) -> bool,
        repair: impl FnOnce(T, &Step) -> Result<T>,
        cold: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let (carry, step) = {
            let mut c = self.cache.lock();
            let carry = slot(&mut c).clone().filter(|k| fits(k.value()));
            (carry, c.step.clone())
        };
        let value = match (carry, step) {
            (Some(Carry::Held(v)), _) => return Ok(v),
            (Some(Carry::Seed(v)), Some(step)) => repair(v, &step)?,
            _ => cold()?,
        };
        let mut c = self.cache.lock();
        *slot(&mut c) = Some(Carry::Held(value.clone()));
        if !c.seeded() {
            c.step = None;
        }
        Ok(value)
    }

    /// Whether this graph holds `property`, or the seed it is repaired
    /// from: whether a read costs a repair rather than a computation.
    pub(crate) fn holds(&self, property: Property) -> bool {
        let c = self.cache.lock();
        match property {
            Property::Components => c.components.is_some(),
            Property::OutDegree => c.out_degree.is_some(),
            Property::Triangles => c.triangles.is_some(),
            Property::Cores => c.cores.is_some(),
            Property::Ranks(opts) => c.ranks.as_ref().is_some_and(|r| r.value().opts == opts),
        }
    }

    /// Number of self-loops, cached.
    pub fn nself_edges(&self) -> Result<usize> {
        let mut c = self.cache.lock();
        if let Some(n) = c.nself_edges {
            return Ok(n);
        }
        let mut d = Matrix::<f64>::new(self.nvertices(), self.nvertices())?;
        select_matrix(&mut d, None, NOACC, unaryop::Diag, &self.a, &Descriptor::default())?;
        let n = d.nvals();
        c.nself_edges = Some(n);
        Ok(n)
    }

    /// Remove self-loops, invalidating caches.
    pub fn delete_self_edges(&mut self) -> Result<()> {
        let mut cleaned = Matrix::<f64>::new(self.nvertices(), self.nvertices())?;
        select_matrix(
            &mut cleaned,
            None,
            NOACC,
            unaryop::Offdiag,
            &self.a,
            &Descriptor::default(),
        )?;
        self.a = Arc::new(cleaned);
        self.invalidate_caches();
        Ok(())
    }

    /// Drop every cached property and bump the [`Graph::epoch`]. Called
    /// after any mutation of the adjacency; public so owners that mutate
    /// the matrix through its interior-mutability entry points (or replace
    /// it wholesale) can keep the caches coherent.
    pub fn invalidate_caches(&mut self) {
        *self.cache.get_mut() = Cached::default();
        self.epoch += 1;
    }

    /// The graph's modification epoch: 0 at construction, bumped by every
    /// cache invalidation. Two reads of the same `Graph` value with equal
    /// epochs observed the same adjacency and the same cached properties.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Stamp the epoch explicitly (the service layer tags each published
    /// snapshot with the epoch of the update batch that produced it).
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The structural changes a netted `delta` makes to this graph: the
    /// arcs whose write changes its pattern — a `Some` over an absent arc
    /// is an insert, a `None` over a present one a delete, and anything
    /// else (a reweight, a delete of an absent arc) no event. A netted
    /// delta holds one write per arc, so the events of distinct arcs
    /// commute. One row reader serves every lookup.
    pub(crate) fn classify(&self, delta: &[Edit<f64>]) -> Vec<EdgeEvent> {
        let rows = self.a.rows();
        delta
            .iter()
            .filter_map(|&(i, j, x)| match (x.is_some(), rows.contains(i, j)) {
                (true, false) => Some(EdgeEvent::Insert(i, j)),
                (false, true) => Some(EdgeEvent::Delete(i, j)),
                _ => None,
            })
            .collect()
    }

    /// The graph that follows this one, and the structural changes
    /// between them: `a_next` is this adjacency with the netted `delta`
    /// (mirror arcs included) applied, and each arc whose write changes
    /// the pattern is one event — a `Some` over an absent arc an insert,
    /// a `None` over a present one a delete, in `delta`'s order.
    /// Whatever this graph had materialised is carried forward by the same
    /// delta, and whatever it had not stays lazy:
    /// - the structure (dual and all) and a materialised `Aᵀ` by one
    ///   [`Matrix::with_edits`] each, which shares their base arrays and
    ///   rewrites only the touched rows; an `Aᵀ` that is the adjacency
    ///   itself as the same alias of `a_next`;
    /// - the degrees by patching the rows the events touch;
    /// - an undirected graph's component labels by
    ///   [`connected_components_delta`]'s repair on `a_next` (the same
    ///   labels when no event joins two vertices); a directed graph's are
    ///   recomputed on demand;
    /// - the triangle count and core numbers of an undirected graph, and
    ///   the ranks, as seeds that the successor's first read repairs
    ///   ([`Graph::triangles`], [`Graph::cores`], [`Graph::ranks`]); held
    ///   as they are when no event changed the pattern. A seed nobody
    ///   read is not carried further.
    ///
    /// [`Graph::new`] on `a_next` is the from-scratch oracle.
    ///
    /// On an undirected graph `delta` must write both arcs of every edge
    /// it touches, so that `a_next` stays symmetric: the label repair
    /// reads only the `i ≤ j` half of the events. Debug builds assert
    /// that the structural events come in mirror pairs.
    ///
    /// [`connected_components_delta`]: crate::connected_components_delta
    pub fn advance(
        &self,
        a_next: Matrix<f64>,
        delta: &[Edit<f64>],
    ) -> Result<(Graph, Vec<EdgeEvent>)> {
        self.advance_within(a_next, delta, usize::MAX)
    }

    /// [`Graph::advance`], carrying the answers (degrees, labels, triangle
    /// count, core numbers, ranks) only across at most `budget` structural
    /// edge changes ([`edges_of`]): past it a repair would cost more than
    /// recomputing, so they stay lazy. The structure and `Aᵀ` always
    /// follow.
    pub(crate) fn advance_within(
        &self,
        a_next: Matrix<f64>,
        delta: &[Edit<f64>],
        budget: usize,
    ) -> Result<(Graph, Vec<EdgeEvent>)> {
        let events = self.classify(delta);
        let a_next = Arc::new(a_next);
        let prev = self.cache.lock().clone();
        let mut next = Cached::default();
        if let Some(st) = prev.structure {
            let pattern: Vec<Edit<bool>> =
                delta.iter().map(|&(i, j, x)| (i, j, x.map(|_| true))).collect();
            next.structure = Some(Arc::new(st.with_edits(&pattern)?));
        }
        if let Some(at) = prev.at {
            if !Arc::ptr_eq(&at, &self.a) {
                let flipped: Vec<Edit<f64>> = delta.iter().map(|&(i, j, x)| (j, i, x)).collect();
                next.at = Some(Arc::new(at.with_edits(&flipped)?));
            } else if a_next.format() == Format::Csr && self_transposed(delta) {
                // The rule `with_edits` keeps a symmetric matrix's dual by:
                // a delta equal to its own transpose keeps it symmetric.
                // Otherwise `at` stays lazy and the next call decides.
                next.at = Some(a_next.clone());
            }
        }
        let changes = events.iter().filter(|e| is_edge(self.kind, e)).count();
        let within = changes <= budget;
        if within && (prev.out_degree.is_some() || prev.in_degree.is_some()) {
            // Net change per row and per column: +1 for an arc inserted,
            // -1 for one deleted.
            let (mut rows, mut cols) = (BTreeMap::new(), BTreeMap::new());
            for e in &events {
                let (i, j, change) = match *e {
                    EdgeEvent::Insert(i, j) => (i, j, 1),
                    EdgeEvent::Delete(i, j) => (i, j, -1),
                };
                *rows.entry(i).or_insert(0) += change;
                *cols.entry(j).or_insert(0) += change;
            }
            next.out_degree = prev.out_degree.map(|d| patch_degrees(&d, &rows)).transpose()?;
            next.in_degree = prev.in_degree.map(|d| patch_degrees(&d, &cols)).transpose()?;
        }
        let undirected = self.kind == GraphKind::Undirected;
        if within {
            let quiet = changes == 0;
            next.ranks = carry(prev.ranks.and_then(Carry::held), quiet);
            if undirected {
                next.triangles = carry(prev.triangles.and_then(Carry::held), quiet);
                if events.iter().all(|e| matches!(e, EdgeEvent::Insert(..))) {
                    next.cores = carry(prev.cores.and_then(Carry::held), quiet);
                }
            }
        }
        if next.seeded() {
            let before = Graph::bare(self.a.clone(), self.kind, self.epoch);
            let edges = edges_of(self.kind, &events);
            next.step = Some(Arc::new(Step { before, edges }));
        }
        let mut graph = Graph::bare(a_next, self.kind, self.epoch);
        *graph.cache.get_mut() = next;
        if let Some(labels) = prev.components.filter(|_| within && undirected) {
            graph.cache.get_mut().components = graph.carry_components(labels, &events);
        }
        Ok((graph, events))
    }

    /// The component labels `prev` of the graph before `events`, repaired
    /// on this graph, the one after them; `prev` itself when no event
    /// joins two distinct vertices. `None` leaves them lazy, if `prev` is
    /// not full-length.
    fn carry_components(
        &self,
        prev: Arc<Vector<u64>>,
        events: &[EdgeEvent],
    ) -> Option<Arc<Vector<u64>>> {
        debug_assert!(
            {
                let arc = |e: &EdgeEvent| match *e {
                    EdgeEvent::Insert(u, v) => (true, u, v),
                    EdgeEvent::Delete(u, v) => (false, u, v),
                };
                let arcs: HashSet<_> = events.iter().map(arc).collect();
                arcs.iter().all(|&(insert, u, v)| arcs.contains(&(insert, v, u)))
            },
            "an undirected graph's delta must write both arcs of every edge"
        );
        let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
        for e in edges_of(GraphKind::Undirected, events) {
            match e {
                EdgeEvent::Insert(u, v) if u != v => inserts.push((u, v)),
                EdgeEvent::Delete(u, v) if u != v => deletes.push((u, v)),
                _ => {} // a self-loop connects nothing
            }
        }
        if inserts.is_empty() && deletes.is_empty() {
            return Some(prev);
        }
        let mut labels = prev.to_full()?;
        repair_components(self, &mut labels, &inserts, &deletes);
        Vector::import_full(labels).ok().map(Arc::new)
    }

    /// Structural checks: squareness always; symmetry for undirected
    /// graphs (pattern and values must match the transpose).
    pub fn check(&self) -> Result<()> {
        if self.kind == GraphKind::Undirected {
            let at = transpose_new(&self.a)?;
            if at.extract_tuples() != self.a.extract_tuples() {
                return Err(Error::invalid("undirected graph adjacency must be symmetric"));
            }
        }
        Ok(())
    }
}

/// Whether `delta`, netted, equals its own transpose bit for bit
/// ([`Scalar::same_bits`]): the last write to `(i, j)` and the last write
/// to `(j, i)` are the same. Under such a delta a symmetric matrix stays
/// symmetric, so an alias of it to its transpose may stay.
fn self_transposed(delta: &[Edit<f64>]) -> bool {
    let netted = |flip: bool| {
        let mut d: Vec<Edit<f64>> =
            delta.iter().map(|&(i, j, x)| if flip { (j, i, x) } else { (i, j, x) }).collect();
        net_edits(&mut d);
        d
    };
    let (fwd, rev) = (netted(false), netted(true));
    fwd.iter().zip(&rev).all(|(&(i, j, x), &(k, l, y))| {
        (i, j) == (k, l)
            && match (x, y) {
                (Some(x), Some(y)) => x.same_bits(y),
                (x, y) => x.is_none() && y.is_none(),
            }
    })
}

/// A copy of the degree vector `d` with each vertex's net `changes`
/// applied; a degree that falls to 0 loses its entry.
fn patch_degrees(d: &Vector<i64>, changes: &BTreeMap<Index, i64>) -> Result<Arc<Vector<i64>>> {
    let mut next = d.clone();
    let patched = changes.iter().map(|(&v, &change)| (v, d.get(v).unwrap_or(0) + change));
    // Removals first: a vector removal scans whatever insertions are pending.
    for (v, _) in patched.clone().filter(|&(_, degree)| degree == 0) {
        next.remove_element(v)?;
    }
    for (v, degree) in patched.filter(|&(_, degree)| degree != 0) {
        next.set_element(v, degree)?;
    }
    next.wait();
    Ok(Arc::new(next))
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("nvertices", &self.nvertices())
            .field("nedges", &self.nedges())
            .field("kind", &self.kind)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)], GraphKind::Undirected).expect("graph")
    }

    #[test]
    fn undirected_edges_are_mirrored() {
        let g = triangle();
        assert_eq!(g.nvertices(), 3);
        assert_eq!(g.nedges(), 6);
        g.check().expect("symmetric");
    }

    #[test]
    fn directed_edges_are_not() {
        let g = Graph::from_edges(3, &[(0, 1)], GraphKind::Directed).expect("graph");
        assert_eq!(g.nedges(), 1);
        assert!(g.a().get(1, 0).is_none());
    }

    #[test]
    fn degrees() {
        let g =
            Graph::from_edges(4, &[(0, 1), (0, 2), (3, 0)], GraphKind::Directed).expect("graph");
        let out = g.out_degree().expect("out degrees");
        assert_eq!(out.get(0), Some(2));
        assert_eq!(out.get(3), Some(1));
        assert_eq!(out.get(1), None);
        let inn = g.in_degree().expect("in degrees");
        assert_eq!(inn.get(0), Some(1));
        assert_eq!(inn.get(1), Some(1));
        assert_eq!(inn.get(3), None);
    }

    #[test]
    fn transpose_cache_reflects_reverse_edges() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)], GraphKind::Directed).expect("graph");
        let at = g.at().expect("transpose");
        assert_eq!(at.get(1, 0), Some(1.0));
        assert_eq!(at.get(2, 1), Some(1.0));
        // Cached: same Arc returned.
        assert!(Arc::ptr_eq(&at, &g.at().expect("transpose")));
    }

    #[test]
    fn undirected_transpose_is_the_adjacency_itself() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 2.5), (1, 2, 1.5)], GraphKind::Undirected)
            .expect("graph");
        let before = g.resident_bytes();
        let at = g.at().expect("transpose");
        assert!(std::ptr::eq(&*at, g.a()), "a symmetric adjacency must not be copied");
        assert_eq!(g.resident_bytes(), before, "the alias is counted once");
        assert_eq!(at.extract_tuples(), g.a().extract_tuples());
    }

    #[test]
    fn unsymmetric_or_compressed_undirected_graphs_materialise_the_transpose() {
        // Declared undirected, but (0, 1) has no mirror and (1, 2) / (2, 1)
        // disagree on the weight: neither may alias.
        for tuples in [vec![(0, 1, 1.0)], vec![(1, 2, 1.0), (2, 1, 2.0)]] {
            let a = Matrix::from_tuples(3, 3, tuples, |_, b| b).expect("a");
            let g = Graph::new(a, GraphKind::Undirected).expect("construct");
            let at = g.at().expect("transpose");
            assert!(!std::ptr::eq(&*at, g.a()));
            assert_eq!(at.extract_tuples(), transpose_new(g.a()).expect("oracle").extract_tuples());
        }
        let mut g = triangle();
        assert!(std::ptr::eq(&*g.at().expect("alias"), g.a()));
        g.set_compressed(true);
        let at = g.at().expect("transpose of the compressed form");
        assert!(!std::ptr::eq(&*at, g.a()));
        assert_eq!(at.extract_tuples(), g.a().extract_tuples());
    }

    #[test]
    fn signed_zero_mirrors_are_not_symmetric_so_at_is_materialised() {
        // `0.0 == -0.0`, but the transpose holds the other bits at each.
        let a = Matrix::from_tuples(2, 2, vec![(0, 1, 0.0), (1, 0, -0.0)], |_, b| b).expect("a");
        let g = Graph::new(a, GraphKind::Undirected).expect("construct");
        let at = g.at().expect("transpose");
        assert!(!std::ptr::eq(&*at, g.a()));
        let oracle = transpose_new(g.a()).expect("oracle");
        for (i, j) in [(0, 1), (1, 0)] {
            assert_eq!(at.get(i, j).map(f64::to_bits), oracle.get(i, j).map(f64::to_bits));
        }
        assert_eq!(at.get(1, 0).map(f64::to_bits), Some(0));
    }

    #[test]
    fn a_delta_is_self_transposed_by_its_last_writes_bit_for_bit() {
        assert!(self_transposed(&[]));
        assert!(self_transposed(&[(0, 1, Some(2.0)), (1, 0, Some(2.0)), (3, 3, None)]));
        assert!(!self_transposed(&[(0, 1, Some(2.0))]));
        assert!(!self_transposed(&[(0, 1, Some(0.0)), (1, 0, Some(-0.0))]));
        assert!(!self_transposed(&[(0, 1, None), (1, 0, Some(1.0))]));
        // Last write wins on each side: (0, 1) ends at 3, (1, 0) at 3.
        let rewritten = [(0, 1, Some(1.0)), (1, 0, Some(3.0)), (0, 1, Some(3.0))];
        assert!(self_transposed(&rewritten));
        let diverged = [(0, 1, Some(1.0)), (1, 0, Some(1.0)), (0, 1, Some(3.0))];
        assert!(!self_transposed(&diverged));
    }

    #[test]
    fn advance_repairs_undirected_components_and_shares_them_without_an_event() {
        // {0, 1} and {2, 3}; a self-loop and a re-weight join nothing.
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)], GraphKind::Undirected).expect("graph");
        let labels = g.components().expect("components");
        let quiet: Vec<Edit<f64>> = vec![(0, 1, Some(2.0)), (1, 0, Some(2.0)), (3, 3, Some(1.0))];
        let (next, events) = g.advance(g.a().with_edits(&quiet).expect("a"), &quiet).expect("next");
        assert_eq!(events, [EdgeEvent::Insert(3, 3)]);
        assert!(Arc::ptr_eq(&next.components().expect("carried"), &labels));
        // Cut (0, 1) and join 1 to 2: {0} and {1, 2, 3}.
        let delta: Vec<Edit<f64>> =
            vec![(0, 1, None), (1, 0, None), (1, 2, Some(1.0)), (2, 1, Some(1.0))];
        let (last, _) = next.advance(next.a().with_edits(&delta).expect("a"), &delta).expect("g");
        let bytes = last.resident_bytes();
        let carried = last.components().expect("carried");
        assert_eq!(last.resident_bytes(), bytes, "the labels were derived, not carried");
        assert_eq!(carried.extract_tuples(), [(0, 0), (1, 1), (2, 1), (3, 1)]);
    }

    #[test]
    fn advance_leaves_directed_components_lazy() {
        let g = Graph::from_edges(3, &[(0, 1)], GraphKind::Directed).expect("graph");
        g.components().expect("components");
        let delta: Vec<Edit<f64>> = vec![(1, 2, Some(1.0))];
        let (next, _) = g.advance(g.a().with_edits(&delta).expect("a"), &delta).expect("next");
        // FastSV's structure is carried, its labels are not.
        let bytes = next.resident_bytes();
        let labels = next.components().expect("recomputed");
        assert!(next.resident_bytes() > bytes, "a directed graph carried its labels");
        let oracle = Graph::new(next.a().clone(), GraphKind::Directed).expect("oracle");
        assert_eq!(
            labels.extract_tuples(),
            connected_components(&oracle).expect("fastsv").extract_tuples()
        );
    }

    /// A small undirected graph holding its triangle count, core numbers
    /// and ranks, and a delta that inserts `(1, 3)` (and, with `delete`,
    /// deletes `(0, 2)`).
    fn with_answers(delete: bool) -> (Graph, Vec<Edit<f64>>) {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)], GraphKind::Undirected)
            .expect("graph");
        g.triangles().expect("triangles");
        g.cores().expect("cores");
        g.ranks(&PageRankOptions::default()).expect("ranks");
        let mut delta: Vec<Edit<f64>> = vec![(1, 3, Some(1.0)), (3, 1, Some(1.0))];
        if delete {
            delta.extend([(0, 2, None), (2, 0, None)]);
        }
        (g, delta)
    }

    #[test]
    fn advance_seeds_the_answers_a_graph_held_and_the_first_read_repairs_them() {
        for delete in [false, true] {
            let (g, delta) = with_answers(delete);
            let (next, _) = g.advance(g.a().with_edits(&delta).expect("a"), &delta).expect("g");
            assert!(next.holds(Property::Triangles));
            assert_eq!(next.holds(Property::Cores), !delete, "a delete drops the core numbers");
            let opts = PageRankOptions::default();
            assert!(next.holds(Property::Ranks(opts)));
            assert!(!next.holds(Property::Ranks(PageRankOptions { damping: 0.5, ..opts })));
            let oracle = Graph::new(next.a().clone(), GraphKind::Undirected).expect("oracle");
            let want = triangle_count(&oracle, TriCountMethod::Sandia).expect("tricount");
            assert_eq!(next.triangles().expect("repaired"), want);
            assert_eq!(
                next.cores().expect("cores").extract_tuples(),
                core_numbers(&oracle).expect("peel").extract_tuples()
            );
            let (ranks, _) = next.ranks(&opts).expect("warm");
            let (cold, _) = pagerank(&oracle, &opts).expect("cold");
            for v in 0..4 {
                let (a, b) = (ranks.get(v).unwrap_or(0.0), cold.get(v).unwrap_or(0.0));
                assert!((a - b).abs() < 1e-6, "vertex {v}: {a} vs {b}");
            }
            // Every seed read: the predecessor's adjacency is let go.
            assert!(next.cache.lock().step.is_none());
        }
    }

    #[test]
    fn past_its_budget_or_unread_an_answer_is_not_carried() {
        let (g, delta) = with_answers(false);
        let a_next = g.a().with_edits(&delta).expect("a");
        let (next, _) = g.advance_within(a_next, &delta, 0).expect("g");
        let opts = PageRankOptions::default();
        for p in [Property::Triangles, Property::Cores, Property::Ranks(opts)] {
            assert!(!next.holds(p), "{p:?} carried past the budget");
        }
        // A seed nobody read does not reach the graph after.
        let (next, _) = g.advance(g.a().with_edits(&delta).expect("a"), &delta).expect("g");
        let back: Vec<Edit<f64>> = vec![(1, 3, None), (3, 1, None)];
        let (last, _) = next.advance(next.a().with_edits(&back).expect("a"), &back).expect("g");
        assert!(!last.holds(Property::Triangles) && !last.holds(Property::Ranks(opts)));
        // With no structural change the answers hold as they were.
        let quiet: Vec<Edit<f64>> = vec![(0, 1, Some(5.0)), (1, 0, Some(5.0))];
        let (same, _) = g.advance(g.a().with_edits(&quiet).expect("a"), &quiet).expect("g");
        assert!(Arc::ptr_eq(&same.cores().expect("held"), &g.cores().expect("held")));
        assert!(same.cache.lock().step.is_none());
    }

    #[test]
    fn a_graph_advanced_without_answers_holds_none() {
        let g =
            Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2)], GraphKind::Undirected).expect("graph");
        g.out_degree().expect("out_degree");
        let delta: Vec<Edit<f64>> = vec![(2, 3, Some(1.0)), (3, 2, Some(1.0))];
        let (next, _) = g.advance(g.a().with_edits(&delta).expect("a"), &delta).expect("g");
        let opts = PageRankOptions::default();
        for p in [Property::Triangles, Property::Cores, Property::Ranks(opts)] {
            assert!(!next.holds(p), "{p:?} appeared without being held");
        }
        let degrees = next.out_degree().expect("carried").memory_usage().total();
        assert_eq!(next.resident_bytes(), next.a().memory_usage().total() + degrees);
    }

    #[test]
    fn structure_has_dual_storage() {
        let g = triangle();
        let s = g.structure().expect("structure");
        assert!(s.dual_storage());
        assert_eq!(s.nvals(), 6);
    }

    #[test]
    fn self_edges_counted_and_removed() {
        let mut g =
            Graph::from_edges(3, &[(0, 0), (0, 1), (2, 2)], GraphKind::Directed).expect("graph");
        assert_eq!(g.nself_edges().expect("loops"), 2);
        g.delete_self_edges().expect("clean");
        assert_eq!(g.nself_edges().expect("loops"), 0);
        assert_eq!(g.nedges(), 1);
    }

    #[test]
    fn weighted_edges() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 2.5), (1, 2, 1.5)], GraphKind::Undirected)
            .expect("graph");
        assert_eq!(g.a().get(0, 1), Some(2.5));
        assert_eq!(g.a().get(1, 0), Some(2.5));
    }

    #[test]
    fn rejects_rectangular() {
        let m = Matrix::<f64>::new(2, 3).expect("m");
        assert!(Graph::new(m, GraphKind::Directed).is_err());
    }

    #[test]
    fn asymmetric_undirected_fails_check() {
        let a = Matrix::from_tuples(2, 2, vec![(0, 1, 1.0)], |_, b| b).expect("a");
        let g = Graph::new(a, GraphKind::Undirected).expect("construct");
        assert!(g.check().is_err());
    }
}
