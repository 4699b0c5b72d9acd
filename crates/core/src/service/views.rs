//! Materialized analytic views, incrementally repaired per epoch.
//!
//! A view is a precomputed whole-graph answer — connected components,
//! PageRank, out-degrees, the global triangle count, core numbers —
//! kept *current* against the served snapshot. Instead of recomputing
//! from scratch every epoch, the engine is handed what the epoch
//! coordinator (`drainer.rs`) already holds — the graph before the
//! epoch, the graph after it, and the real structural changes between
//! them (`Graph::classify` of the netted delta: weight overwrites and
//! redundant deletes drop out) — and applies each view's algebraic
//! update rule, reading the snapshots' own rows
//! ([`graphblas::Matrix::rows`]) wherever a rule needs adjacency. The
//! engine keeps no copy of the graph: its state is one O(n) answer array
//! per view, and none for components or degrees.
//!
//! * **Connected components** — the snapshot's own labels
//!   ([`Graph::components`]). Registration materialises them on the
//!   engine's graph, and from then on every snapshot inherits them
//!   repaired by its epoch's changes ([`Graph::advance`], which runs
//!   [`connected_components_delta`](crate::connected_components_delta)'s
//!   repair). The view publishes that
//!   one array; it runs no repair of its own.
//! * **PageRank** — warm-restart from the previous rank vector
//!   ([`pagerank_warm`]): the same iteration, a much closer starting
//!   point, so the residual is already near tolerance.
//! * **Degree counts** — the snapshot's own out-degrees
//!   ([`Graph::out_degree`]), materialised at registration like the
//!   components and patched by each epoch's changes in
//!   [`Graph::advance`]; the view publishes that vector.
//! * **Triangle count** — per-edge common-neighbor deltas over a patch
//!   on the pre-epoch graph ([`triangle_count_delta`]), exact by
//!   telescoping.
//! * **Core numbers** — the traversal insertion rule
//!   ([`core_numbers_insert`], on the pre-epoch graph) for insert-only
//!   epochs; any delete falls back to a full peel (deletion has no
//!   comparably local rule).
//!
//! When an epoch's structural-change count exceeds the staleness budget
//! ([`ViewsConfig::staleness`], env `LAGRAPH_VIEWS_STALENESS`), repair
//! would cost more than recomputation and the engine rebuilds from the
//! published graph instead — counted separately, so operators can see
//! the repair/rebuild ratio in
//! `lagraph_service_view_refresh_total{view,mode}` and repair latency
//! in `lagraph_service_view_repair_seconds{view}`.
//!
//! Views are epoch-tagged and published as one atomic table *before*
//! the snapshot swap, so a [`flush`](super::GraphService::flush) that
//! returns epoch `e` implies the views are current at `e`. The
//! admission layer consults the view table first: a hit bypasses
//! batching, caching, and the query kernel entirely. A failed epoch
//! never corrupts a view — the engine only advances on epochs whose
//! netting and publish succeeded, so after a failure the views keep
//! answering at the last good epoch, exactly like the snapshot. The core
//! numbers are imported from their working array as they are
//! ([`Vector::import_full`]), not sorted from tuples.
//!
//! An epoch's view work runs under one `service.views` span (`events`,
//! `inserts`, `deletes`) with a `service.view` child (`view`, `mode`) per
//! view repaired or rebuilt, so its trace splits write-to-visible into
//! the publish, the views and the swap.
//!
//! The differential suite (`tests/service_views.rs`) replays hundreds of
//! mixed insert/delete updates at S∈{1,2,4} shards (and over compressed
//! snapshots at S∈{1,2}) and compares every epoch's view against a
//! from-scratch oracle — bit-for-bit for the discrete views, within
//! tolerance for warm-restarted PageRank (and bit-for-bit for PageRank
//! too when `staleness = 0` forces cold rebuilds).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use graphblas::metrics;
use graphblas::trace;
use graphblas::{Error as GrbError, Index, Vector};
use parking_lot::RwLock;

use super::admission::{canon_bits, QueryKind, QueryResult};
use super::{env_parse, ServiceError};
use crate::algorithms::{
    core_numbers, core_numbers_insert, pagerank, pagerank_warm, triangle_count,
    triangle_count_delta, PageRankOptions, TriCountMethod,
};
use crate::graph::{edges_of, EdgeEvent, Graph, GraphKind};

/// The analytic views the service can materialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViewKind {
    /// Connected-component labels (undirected graphs only).
    ConnectedComponents,
    /// PageRank scores at the engine's configured options.
    PageRank,
    /// Out-degree counts (equals degree on undirected graphs).
    DegreeCounts,
    /// The global triangle count (undirected graphs only).
    TriangleCount,
    /// k-core numbers (undirected graphs only).
    CoreNumbers,
}

impl ViewKind {
    /// Every view, in registration order.
    pub const ALL: [ViewKind; 5] = [
        ViewKind::ConnectedComponents,
        ViewKind::PageRank,
        ViewKind::DegreeCounts,
        ViewKind::TriangleCount,
        ViewKind::CoreNumbers,
    ];

    /// The short name used in `LAGRAPH_VIEWS` and the `view=` metric
    /// label.
    pub fn name(self) -> &'static str {
        match self {
            ViewKind::ConnectedComponents => "cc",
            ViewKind::PageRank => "pagerank",
            ViewKind::DegreeCounts => "degree",
            ViewKind::TriangleCount => "tricount",
            ViewKind::CoreNumbers => "kcore",
        }
    }

    /// Parse one `LAGRAPH_VIEWS` list entry.
    pub fn parse(s: &str) -> Option<ViewKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "cc" => Some(ViewKind::ConnectedComponents),
            "pagerank" | "pr" => Some(ViewKind::PageRank),
            "degree" => Some(ViewKind::DegreeCounts),
            "tricount" => Some(ViewKind::TriangleCount),
            "kcore" => Some(ViewKind::CoreNumbers),
            _ => None,
        }
    }

    /// Whether the view is only defined on undirected graphs.
    pub fn needs_undirected(self) -> bool {
        matches!(
            self,
            ViewKind::ConnectedComponents | ViewKind::TriangleCount | ViewKind::CoreNumbers
        )
    }

    fn idx(self) -> usize {
        match self {
            ViewKind::ConnectedComponents => 0,
            ViewKind::PageRank => 1,
            ViewKind::DegreeCounts => 2,
            ViewKind::TriangleCount => 3,
            ViewKind::CoreNumbers => 4,
        }
    }
}

/// Configuration for the view engine, normally set through
/// [`super::ServiceConfig::views`] or the environment
/// ([`ViewsConfig::from_env`]).
#[derive(Debug, Clone)]
pub struct ViewsConfig {
    /// The views to register at service start. Views inapplicable to
    /// the graph's kind (the undirected-only ones on a directed graph)
    /// are skipped with a warning.
    pub views: Vec<ViewKind>,
    /// Staleness budget: the most structural changes one epoch may
    /// carry and still be *repaired* incrementally. A larger delta
    /// rebuilds every view from the published graph instead (counted as
    /// `mode="rebuild"`). `0` forces a rebuild every epoch — the
    /// bit-for-bit-reproducible mode.
    pub staleness: usize,
    /// Options for the PageRank view; a PageRank query is served from
    /// the view only when its canonicalized options match these.
    pub pagerank: PageRankOptions,
}

impl Default for ViewsConfig {
    fn default() -> Self {
        ViewsConfig {
            views: ViewKind::ALL.to_vec(),
            staleness: 4096,
            pagerank: PageRankOptions::default(),
        }
    }
}

impl ViewsConfig {
    /// Read `LAGRAPH_VIEWS` (unset or off → no views; on or `all` →
    /// every view; otherwise a comma-separated list of view names) and
    /// `LAGRAPH_VIEWS_STALENESS` (the repair budget). A list naming an
    /// unknown view warns once and registers no views.
    pub fn from_env() -> Option<Self> {
        let views = graphblas::env::var(
            "LAGRAPH_VIEWS",
            "off, on, all, or a comma-separated list of cc, pagerank, degree, tricount, kcore",
            |t| match graphblas::env::boolean(t) {
                Some(false) => Some(Vec::new()),
                Some(true) => Some(ViewKind::ALL.to_vec()),
                None if t.eq_ignore_ascii_case("all") => Some(ViewKind::ALL.to_vec()),
                None => {
                    let mut v = Vec::new();
                    for part in t.split(',') {
                        let k = ViewKind::parse(part)?;
                        if !v.contains(&k) {
                            v.push(k);
                        }
                    }
                    Some(v)
                }
            },
        )?;
        if views.is_empty() {
            return None;
        }
        let mut c = ViewsConfig { views, ..ViewsConfig::default() };
        if let Some(s) = env_parse::<usize>("LAGRAPH_VIEWS_STALENESS") {
            c.staleness = s;
        }
        Some(c)
    }
}

/// Per-view counters from [`super::GraphService::view_stats`] —
/// per-service (unlike the process-global metrics), so tests can assert
/// the repair/rebuild split in isolation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewStat {
    /// Which view.
    pub view: ViewKind,
    /// Epochs absorbed by incremental repair.
    pub repairs: u64,
    /// Epochs that fell back to a full recompute (staleness budget
    /// exceeded, or a rule with no local repair — e.g. core numbers
    /// under deletes).
    pub rebuilds: u64,
    /// Queries answered from this view.
    pub served: u64,
}

/// The atomically published answer table: readers clone `Arc`s, never
/// blocking behind an in-progress repair.
struct ViewTable {
    epoch: u64,
    cc: Option<Arc<Vector<u64>>>,
    degree: Option<Arc<Vector<i64>>>,
    tricount: Option<u64>,
    cores: Option<Arc<Vector<i64>>>,
    ranks: Option<(Arc<Vector<f64>>, usize)>,
}

impl ViewTable {
    fn empty(epoch: u64) -> Self {
        ViewTable { epoch, cc: None, degree: None, tricount: None, cores: None, ranks: None }
    }
}

/// Mutable engine state, guarded by one mutex (taken by the epoch
/// coordinator, registration, and stats — never by the serve path).
struct EngineState {
    epoch: u64,
    /// The graph of `epoch` — registration materializes from this, not
    /// the service snapshot, so a view registered while an epoch is in
    /// flight starts from the graph that epoch's repair reads as its
    /// "before".
    latest: Arc<Graph>,
    /// Whether the cc and degree views are registered. They hold no
    /// arrays of their own: they publish `latest`'s labels and
    /// out-degrees, which its successors carry.
    cc: bool,
    degree: bool,
    tricount: Option<u64>,
    cores: Option<Vec<i64>>,
    ranks: Option<(Arc<Vector<f64>>, usize)>,
}

impl EngineState {
    fn any_registered(&self) -> bool {
        self.cc
            || self.degree
            || self.tricount.is_some()
            || self.cores.is_some()
            || self.ranks.is_some()
    }
}

/// One view's counters and metric handles.
struct KindSlot {
    repairs: AtomicU64,
    rebuilds: AtomicU64,
    served: AtomicU64,
    m_repair: metrics::Counter,
    m_rebuild: metrics::Counter,
    m_served: metrics::Counter,
    m_repair_seconds: metrics::Histogram,
}

fn kind_slot(kind: ViewKind) -> KindSlot {
    let name = kind.name();
    let refresh = |mode: &str| {
        metrics::counter_with(
            "lagraph_service_view_refresh_total",
            "Materialized-view refreshes by view and mode (incremental repair vs full rebuild).",
            &[("view", name), ("mode", mode)],
        )
    };
    KindSlot {
        repairs: AtomicU64::new(0),
        rebuilds: AtomicU64::new(0),
        served: AtomicU64::new(0),
        m_repair: refresh("repair"),
        m_rebuild: refresh("rebuild"),
        m_served: metrics::counter_with(
            "lagraph_service_view_served_total",
            "Queries answered directly from a materialized view.",
            &[("view", name)],
        ),
        m_repair_seconds: metrics::histogram_scaled(
            "lagraph_service_view_repair_seconds",
            "Incremental view-repair latency per epoch (seconds).",
            &[("view", name)],
            1e-9,
        ),
    }
}

/// The engine: owned by [`super::Shared`], advanced by the epoch
/// coordinator, consulted lock-free(ish) by the admission layer.
pub(crate) struct ViewEngine {
    kind: GraphKind,
    staleness: usize,
    pr_opts: PageRankOptions,
    /// Whether any view has ever been registered — the serve path's
    /// cheap "is there anything to look up" check.
    active: AtomicBool,
    state: Mutex<EngineState>,
    published: RwLock<Arc<ViewTable>>,
    slots: [KindSlot; 5],
}

impl ViewEngine {
    pub(crate) fn new(kind: GraphKind, latest: Arc<Graph>, config: &ViewsConfig) -> Self {
        let epoch = latest.epoch();
        ViewEngine {
            kind,
            staleness: config.staleness,
            pr_opts: config.pagerank,
            active: AtomicBool::new(false),
            state: Mutex::new(EngineState {
                epoch,
                latest,
                cc: false,
                degree: false,
                tricount: None,
                cores: None,
                ranks: None,
            }),
            published: RwLock::new(Arc::new(ViewTable::empty(epoch))),
            slots: ViewKind::ALL.map(kind_slot),
        }
    }

    /// Register (and materialize) one view at the engine's current
    /// epoch. Errors if the view is undefined for the graph's kind;
    /// re-registering is a no-op.
    pub(crate) fn register(&self, kind: ViewKind) -> Result<(), ServiceError> {
        if kind.needs_undirected() && self.kind != GraphKind::Undirected {
            return Err(ServiceError::Graph(GrbError::invalid(format!(
                "view {:?} is only defined on undirected graphs",
                kind.name()
            ))));
        }
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let graph = st.latest.clone();
        let n = graph.nvertices();
        match kind {
            ViewKind::ConnectedComponents if !st.cc => {
                graph.components()?;
                st.cc = true;
            }
            ViewKind::DegreeCounts if !st.degree => {
                graph.out_degree()?;
                st.degree = true;
            }
            ViewKind::TriangleCount if st.tricount.is_none() => {
                st.tricount = Some(triangle_count(&graph, TriCountMethod::Sandia)?);
            }
            ViewKind::CoreNumbers if st.cores.is_none() => {
                st.cores = Some(dense(&core_numbers(&graph)?, n));
            }
            ViewKind::PageRank if st.ranks.is_none() => {
                st.ranks = Some(self.cold_ranks(&graph)?);
            }
            _ => return Ok(()), // already registered
        }
        self.republish(&st);
        self.active.store(true, Relaxed);
        Ok(())
    }

    /// Advance every registered view from `before`, the graph of the
    /// engine's current epoch, to `after`, the graph the coordinator
    /// built from it ([`Graph::advance`]), given `arcs`, the structural
    /// changes between the two (mirror arcs included).
    /// Called after the publish and *before* the snapshot swap — a
    /// failed epoch never reaches here, so views only ever reflect
    /// successfully published graphs.
    pub(crate) fn on_epoch(&self, before: &Graph, after: &Arc<Graph>, arcs: &[EdgeEvent]) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(std::ptr::eq(before, &*st.latest), "views advance from their own epoch");
        let registered = st.any_registered();
        let mut span = registered.then(|| trace::service_span("service.views"));
        if registered {
            let edges = edges_of(self.kind, arcs);
            if let Some(span) = span.as_mut().filter(|s| s.on()) {
                let inserts = edges.iter().filter(|e| matches!(e, EdgeEvent::Insert(..))).count();
                span.arg("events", edges.len());
                span.arg("inserts", inserts);
                span.arg("deletes", edges.len() - inserts);
            }
            if edges.len() > self.staleness {
                // Repair would cost more than recomputing: rebuild every
                // registered view from the published graph.
                self.rebuild_registered(&mut st, after);
            } else if !arcs.is_empty() {
                self.repair_registered(&mut st, before, after, &edges);
            }
            // No event at all — a delta of reweights and redundant
            // deletes — changes nothing any view (all structure-only)
            // can observe: every answer stands.
        }
        st.epoch = after.epoch();
        st.latest = after.clone();
        if registered {
            self.republish(&st);
        }
    }

    /// Incremental path: apply each view's update rule to the epoch's
    /// structural changes, `edges` (one event per edge).
    fn repair_registered(
        &self,
        st: &mut EngineState,
        before: &Graph,
        after: &Arc<Graph>,
        edges: &[EdgeEvent],
    ) {
        let n = after.nvertices();
        let mut inserts: Vec<(Index, Index)> = Vec::new();
        let mut deletes: Vec<(Index, Index)> = Vec::new();
        for e in edges {
            match *e {
                EdgeEvent::Insert(u, v) => inserts.push((u, v)),
                EdgeEvent::Delete(u, v) => deletes.push((u, v)),
            }
        }
        let EngineState { cc, degree, tricount, cores, ranks, .. } = st;
        // Triangle count and core numbers read the graph *before* the
        // epoch (they patch the events over it internally). Each final
        // value is order-independent across distinct edges.
        if let Some(prev) = *tricount {
            let _span = view_span(ViewKind::TriangleCount, "repair");
            let t0 = Instant::now();
            *tricount = Some(triangle_count_delta(before, prev, edges));
            self.refreshed(ViewKind::TriangleCount, true, t0.elapsed());
        }
        if deletes.is_empty() {
            if let Some(c) = cores.as_mut() {
                let _span = view_span(ViewKind::CoreNumbers, "repair");
                let t0 = Instant::now();
                core_numbers_insert(before, c, &inserts);
                self.refreshed(ViewKind::CoreNumbers, true, t0.elapsed());
            }
        } else {
            // Deletion has no local repair rule for core numbers;
            // recompute this one view (the others still repair).
            self.refresh(ViewKind::CoreNumbers, false, cores, || {
                Ok(dense(&core_numbers(after)?, n))
            });
        }
        self.refresh_carried(ViewKind::ConnectedComponents, true, cc, || {
            after.components().map(drop)
        });
        self.refresh_carried(ViewKind::DegreeCounts, true, degree, || after.out_degree().map(drop));
        if let Some((warm, _)) = ranks.clone() {
            let _span = view_span(ViewKind::PageRank, "repair");
            let t0 = Instant::now();
            match pagerank_warm(after, &self.pr_opts, &warm) {
                Ok((r, iters)) => {
                    *ranks = Some((Arc::new(r), iters));
                    self.refreshed(ViewKind::PageRank, true, t0.elapsed());
                }
                Err(_) => self.refresh(ViewKind::PageRank, false, ranks, || self.cold_ranks(after)),
            }
        }
    }

    /// Recompute every registered view from the published graph.
    fn rebuild_registered(&self, st: &mut EngineState, graph: &Arc<Graph>) {
        let n = graph.nvertices();
        self.refresh_carried(ViewKind::ConnectedComponents, false, &mut st.cc, || {
            graph.components().map(drop)
        });
        self.refresh_carried(ViewKind::DegreeCounts, false, &mut st.degree, || {
            graph.out_degree().map(drop)
        });
        self.refresh(ViewKind::TriangleCount, false, &mut st.tricount, || {
            triangle_count(graph, TriCountMethod::Sandia)
        });
        self.refresh(ViewKind::CoreNumbers, false, &mut st.cores, || {
            Ok(dense(&core_numbers(graph)?, n))
        });
        self.refresh(ViewKind::PageRank, false, &mut st.ranks, || self.cold_ranks(graph));
    }

    /// Replace one view, if registered, with what `compute` gives,
    /// counted as a repair or a rebuild. A view whose `compute` fails is
    /// dropped (served queries fall back to the normal execution path)
    /// rather than left stale.
    fn refresh<T>(
        &self,
        kind: ViewKind,
        repair: bool,
        view: &mut Option<T>,
        compute: impl FnOnce() -> Result<T, GrbError>,
    ) {
        if view.is_none() {
            return;
        }
        let mode = if repair { "repair" } else { "rebuild" };
        let _span = view_span(kind, mode);
        let t0 = Instant::now();
        *view = compute()
            .map_err(|e| {
                let msg = format!("{} view {mode} failed: {e}", kind.name());
                trace::warn_once("service.views", &msg);
            })
            .ok();
        self.refreshed(kind, repair, t0.elapsed());
    }

    /// [`Self::refresh`] for a view the snapshot carries itself (cc,
    /// degree), if `registered`: the graph holds the answer, already
    /// repaired whatever the epoch's size, so the view only has it
    /// `materialise`d.
    fn refresh_carried(
        &self,
        kind: ViewKind,
        repair: bool,
        registered: &mut bool,
        materialise: impl FnOnce() -> Result<(), GrbError>,
    ) {
        let mut view = registered.then_some(());
        self.refresh(kind, repair, &mut view, materialise);
        *registered = view.is_some();
    }

    fn cold_ranks(&self, graph: &Graph) -> Result<(Arc<Vector<f64>>, usize), GrbError> {
        pagerank(graph, &self.pr_opts).map(|(r, iters)| (Arc::new(r), iters))
    }

    fn refreshed(&self, kind: ViewKind, repair: bool, dt: Duration) {
        let s = &self.slots[kind.idx()];
        if repair {
            s.repairs.fetch_add(1, Relaxed);
            s.m_repair.inc();
            s.m_repair_seconds.observe(dt.as_nanos() as u64);
        } else {
            s.rebuilds.fetch_add(1, Relaxed);
            s.m_rebuild.inc();
        }
    }

    /// Swap in a fresh answer table for the engine's current state.
    fn republish(&self, st: &EngineState) {
        let table = ViewTable {
            epoch: st.epoch,
            cc: st.cc.then(|| st.latest.components().ok()).flatten(),
            degree: st.degree.then(|| st.latest.out_degree().ok()).flatten(),
            tricount: st.tricount,
            cores: st.cores.clone().and_then(|c| Vector::import_full(c).ok().map(Arc::new)),
            ranks: st.ranks.clone(),
        };
        *self.published.write() = Arc::new(table);
    }

    /// Answer a query from the published table, iff the table is at
    /// exactly the requested epoch. PageRank only matches when the
    /// query's canonicalized options equal the view's.
    pub(crate) fn serve(&self, epoch: u64, q: &QueryKind) -> Option<QueryResult> {
        if !self.active.load(Relaxed) {
            return None;
        }
        let t = self.published.read().clone();
        if t.epoch != epoch {
            return None;
        }
        let (kind, result) = match *q {
            QueryKind::ConnectedComponents => {
                (ViewKind::ConnectedComponents, t.cc.clone().map(QueryResult::Components))
            }
            QueryKind::Degrees => {
                (ViewKind::DegreeCounts, t.degree.clone().map(QueryResult::Degrees))
            }
            QueryKind::CoreNumbers => {
                (ViewKind::CoreNumbers, t.cores.clone().map(QueryResult::Cores))
            }
            QueryKind::TriangleCount => {
                (ViewKind::TriangleCount, t.tricount.map(QueryResult::Count))
            }
            QueryKind::PageRank { damping_bits, tolerance_bits, max_iters } => {
                let o = &self.pr_opts;
                let matches = damping_bits == canon_bits(o.damping)
                    && tolerance_bits == canon_bits(o.tolerance)
                    && max_iters == o.max_iters;
                let r = if matches {
                    t.ranks
                        .clone()
                        .map(|(ranks, iterations)| QueryResult::Ranks { ranks, iterations })
                } else {
                    None
                };
                (ViewKind::PageRank, r)
            }
            QueryKind::BfsLevel { .. } => return None,
        };
        if result.is_some() {
            let s = &self.slots[kind.idx()];
            s.served.fetch_add(1, Relaxed);
            s.m_served.inc();
        }
        result
    }

    /// Per-view counters for every registered view.
    pub(crate) fn stats(&self) -> Vec<ViewStat> {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let registered = |k: ViewKind| match k {
            ViewKind::ConnectedComponents => st.cc,
            ViewKind::PageRank => st.ranks.is_some(),
            ViewKind::DegreeCounts => st.degree,
            ViewKind::TriangleCount => st.tricount.is_some(),
            ViewKind::CoreNumbers => st.cores.is_some(),
        };
        ViewKind::ALL
            .into_iter()
            .filter(|&k| registered(k))
            .map(|k| {
                let s = &self.slots[k.idx()];
                ViewStat {
                    view: k,
                    repairs: s.repairs.load(Relaxed),
                    rebuilds: s.rebuilds.load(Relaxed),
                    served: s.served.load(Relaxed),
                }
            })
            .collect()
    }

    /// The epoch of the published answer table (tests).
    #[cfg(test)]
    pub(crate) fn table_epoch(&self) -> u64 {
        self.published.read().epoch
    }
}

/// The span one view's repair or rebuild runs under, a child of the
/// epoch's `service.views`.
fn view_span(kind: ViewKind, mode: &'static str) -> trace::Span {
    let mut span = trace::service_span("service.view");
    span.arg("view", kind.name());
    span.arg("mode", mode);
    span
}

/// A vector as a dense working array, absent entries 0.
fn dense<T: graphblas::Scalar>(v: &Vector<T>, n: Index) -> Vec<T> {
    let mut out = vec![T::zero(); n];
    for (i, x) in v.iter() {
        out[i] = x;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Update;
    use graphblas::Edit;

    /// The netted delta the coordinator builds for `batch` on a graph of
    /// `kind`: both arcs of an undirected edge, the last write per arc.
    fn netted(batch: &[Update], kind: GraphKind) -> Vec<Edit<f64>> {
        super::super::drainer::shard_delta(batch, kind)
    }

    #[test]
    fn view_names_round_trip() {
        for k in ViewKind::ALL {
            assert_eq!(ViewKind::parse(k.name()), Some(k));
        }
        assert_eq!(ViewKind::parse("no-such-view"), None);
    }

    #[test]
    fn classify_keeps_the_writes_that_change_the_pattern() {
        let before =
            Graph::from_edges(5, &[(0, 1), (0, 3), (4, 4)], GraphKind::Undirected).expect("graph");
        let batch = [
            Update::Insert(0, 1, 9.0), // present: reweight, no event
            Update::Delete(2, 3),      // absent: redundant delete, no event
            Update::Insert(1, 2, 1.0), // absent: real insert
            Update::Delete(0, 3),      // present: real delete
            Update::Insert(2, 2, 1.0), // a self-loop: one arc
            Update::Delete(4, 4),      // a present self-loop goes
        ];
        let arcs = before.classify(&netted(&batch, GraphKind::Undirected));
        assert_eq!(
            arcs,
            vec![
                EdgeEvent::Delete(0, 3),
                EdgeEvent::Insert(1, 2),
                EdgeEvent::Insert(2, 1),
                EdgeEvent::Insert(2, 2),
                EdgeEvent::Delete(3, 0),
                EdgeEvent::Delete(4, 4),
            ]
        );
        // The two arcs of one undirected edge are one event.
        assert_eq!(
            edges_of(GraphKind::Undirected, &arcs),
            vec![
                EdgeEvent::Delete(0, 3),
                EdgeEvent::Insert(1, 2),
                EdgeEvent::Insert(2, 2),
                EdgeEvent::Delete(4, 4),
            ]
        );
    }

    #[test]
    fn classify_sees_only_the_last_write_to_each_arc() {
        let before = Graph::from_edges(4, &[(2, 3)], GraphKind::Undirected).expect("graph");
        let batch = [
            Update::Insert(0, 1, 1.0),
            Update::Delete(0, 1), // inserted and deleted again: nets to no event
            Update::Insert(1, 2, 1.0),
            Update::Insert(1, 2, 2.0), // a reweight of the queued insert: one insert
            Update::Delete(2, 3),
            Update::Insert(2, 3, 5.0), // deleted and put back: a reweight, no event
        ];
        let arcs = before.classify(&netted(&batch, GraphKind::Undirected));
        assert_eq!(arcs, vec![EdgeEvent::Insert(1, 2), EdgeEvent::Insert(2, 1)]);
        assert_eq!(edges_of(GraphKind::Undirected, &arcs), vec![EdgeEvent::Insert(1, 2)]);
        // On a directed graph every arc is an edge of its own.
        let before = Graph::from_edges(4, &[(1, 0)], GraphKind::Directed).expect("graph");
        let batch = [Update::Insert(0, 1, 1.0), Update::Insert(1, 0, 1.0)];
        let arcs = before.classify(&netted(&batch, GraphKind::Directed));
        assert_eq!(arcs, vec![EdgeEvent::Insert(0, 1)]);
        assert_eq!(edges_of(GraphKind::Directed, &arcs), arcs);
    }

    #[test]
    fn engine_rejects_undirected_only_views_on_directed_graphs() {
        let g = Graph::from_edges(4, &[(0, 1)], GraphKind::Directed).expect("graph");
        let engine = ViewEngine::new(GraphKind::Directed, Arc::new(g), &ViewsConfig::default());
        for k in [ViewKind::ConnectedComponents, ViewKind::TriangleCount, ViewKind::CoreNumbers] {
            assert!(engine.register(k).is_err(), "{k:?} must be rejected on a directed graph");
        }
        engine.register(ViewKind::PageRank).expect("pagerank works on directed graphs");
        engine.register(ViewKind::DegreeCounts).expect("degree works on directed graphs");
    }

    #[test]
    fn registration_is_idempotent_and_serves_at_the_current_epoch() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)], GraphKind::Undirected).expect("graph");
        let engine = ViewEngine::new(GraphKind::Undirected, Arc::new(g), &ViewsConfig::default());
        engine.register(ViewKind::TriangleCount).expect("register");
        engine.register(ViewKind::TriangleCount).expect("re-register");
        assert_eq!(engine.table_epoch(), 0);
        let r = engine.serve(0, &QueryKind::TriangleCount).expect("served");
        assert_eq!(r.count(), Some(0));
        // Wrong epoch: never served.
        assert!(engine.serve(1, &QueryKind::TriangleCount).is_none());
        // Unregistered view: not served.
        assert!(engine.serve(0, &QueryKind::ConnectedComponents).is_none());
    }

    #[test]
    fn views_config_default_covers_all_views() {
        let c = ViewsConfig::default();
        assert_eq!(c.views.len(), ViewKind::ALL.len());
        assert!(c.staleness > 0);
    }
}
