//! Materialized analytic views, incrementally repaired per epoch.
//!
//! A view is a precomputed whole-graph answer — connected components,
//! PageRank, out-degrees, the global triangle count, core numbers —
//! kept *current* against the served snapshot. Instead of recomputing
//! from scratch every epoch, the engine is handed what the epoch
//! coordinator (`drainer.rs`) already holds — the snapshot before the
//! epoch, the graph after it, and the real structural changes between
//! them (`Graph::classify` of the netted delta: weight overwrites and
//! redundant deletes drop out) — and applies each view's algebraic
//! update rule to the answer pinned on the snapshot before, reading the
//! snapshots' own rows ([`graphblas::Matrix::rows`]) wherever a rule
//! needs adjacency. The engine keeps no copy of the graph and no answer:
//! each answer is pinned in the answer table of the snapshot it
//! describes, under the [`Query`] it answers.
//!
//! * **Connected components** — the snapshot's own labels
//!   ([`Graph::components`]). Registration materialises them on the
//!   served graph, and from then on every snapshot inherits them
//!   repaired by its epoch's changes ([`Graph::advance`], which runs
//!   [`connected_components_delta`](crate::connected_components_delta)'s
//!   repair). The view pins that one array; it runs no repair of its
//!   own.
//! * **PageRank** — warm-restart from the previous rank vector
//!   ([`pagerank_warm`]): the same iteration, a much closer starting
//!   point, so the residual is already near tolerance.
//! * **Degree counts** — the snapshot's own out-degrees
//!   ([`Graph::out_degree`]), materialised at registration like the
//!   components and patched by each epoch's changes in
//!   [`Graph::advance`]; the view pins that vector.
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
//! A snapshot is published with its views' answers already pinned, so a
//! [`flush`](super::GraphService::flush) that returns epoch `e` sees the
//! views at `e`, and no answer is ever looked up at another epoch. The
//! admission layer answers a pinned query first: a hit bypasses
//! batching and the query kernel entirely. A registered view with no
//! answer on the snapshot before (its last compute failed) rebuilds
//! cold. A failed epoch is never
//! published, so after a failure the views keep answering at the last
//! good epoch, pinned on the snapshot the service keeps serving. The
//! core numbers repair in a copy of their array
//! ([`Vector::to_full`]) and are imported from it as they are
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

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use graphblas::metrics;
use graphblas::trace;
use graphblas::{Error as GrbError, Index, Vector};
use parking_lot::{Mutex, RwLock};

use super::admission::{run_query, Query, QueryResult};
use super::{env_parse, ServiceError, Snapshot};
use crate::algorithms::{
    core_numbers_insert, pagerank_warm, triangle_count_delta, PageRankOptions,
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
    /// the view only when its canonicalized options match these (the
    /// options are part of the pinned answer's key).
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
    /// exceeded, a rule with no local repair — e.g. core numbers under
    /// deletes — or no answer on the snapshot before to repair from).
    pub rebuilds: u64,
    /// Queries answered from this view.
    pub served: u64,
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
/// coordinator. It holds no answers: those are pinned on the snapshots.
pub(crate) struct ViewEngine {
    kind: GraphKind,
    staleness: usize,
    pr_opts: PageRankOptions,
    /// Which views are registered, by [`ViewKind::idx`]. Held by the
    /// coordinator from reading a snapshot's answers to publishing the
    /// next, and by registration, so a view registers on the snapshot
    /// the next epoch repairs from.
    registered: Mutex<[bool; 5]>,
    slots: [KindSlot; 5],
}

impl ViewEngine {
    pub(crate) fn new(kind: GraphKind, config: &ViewsConfig) -> Self {
        ViewEngine {
            kind,
            staleness: config.staleness,
            pr_opts: config.pagerank,
            registered: Mutex::new([false; 5]),
            slots: ViewKind::ALL.map(kind_slot),
        }
    }

    /// The query a view answers: the key of its pinned entry.
    fn query(&self, kind: ViewKind) -> Query {
        match kind {
            ViewKind::ConnectedComponents => Query::connected_components(),
            ViewKind::PageRank => Query::pagerank(&self.pr_opts),
            ViewKind::DegreeCounts => Query::degrees(),
            ViewKind::TriangleCount => Query::triangle_count(),
            ViewKind::CoreNumbers => Query::core_numbers(),
        }
    }

    /// Register one view: compute its answer on the `published` snapshot
    /// and pin it there. Errors if the view is undefined for the graph's
    /// kind; re-registering is a no-op.
    pub(crate) fn register(
        &self,
        kind: ViewKind,
        published: &RwLock<Arc<Snapshot>>,
    ) -> Result<(), ServiceError> {
        if kind.needs_undirected() && self.kind != GraphKind::Undirected {
            return Err(ServiceError::Graph(GrbError::invalid(format!(
                "view {:?} is only defined on undirected graphs",
                kind.name()
            ))));
        }
        let mut registered = self.registered.lock();
        if registered[kind.idx()] {
            return Ok(());
        }
        let snap = published.read().clone();
        let q = self.query(kind);
        snap.answers.pin(q, run_query(&q, snap.graph())?);
        registered[kind.idx()] = true;
        Ok(())
    }

    /// Advance every registered view from `prev`, the served snapshot,
    /// to `after`, the graph the coordinator built from it
    /// ([`Graph::advance`]), given `arcs`, the structural changes between
    /// the two (mirror arcs included), and hand the answers to `publish`,
    /// which swaps in the snapshot that pins them. Runs after the
    /// adjacency publish, so a failed epoch never reaches here.
    pub(crate) fn on_epoch(
        &self,
        prev: &Snapshot,
        after: &Graph,
        arcs: &[EdgeEvent],
        publish: impl FnOnce(Vec<(Query, QueryResult)>),
    ) {
        let registered = self.registered.lock();
        let kinds: Vec<ViewKind> =
            ViewKind::ALL.into_iter().filter(|k| registered[k.idx()]).collect();
        if kinds.is_empty() {
            publish(Vec::new());
            return;
        }
        let mut span = trace::service_span("service.views");
        let edges = edges_of(self.kind, arcs);
        let inserts: Vec<(Index, Index)> = edges
            .iter()
            .filter_map(|e| match *e {
                EdgeEvent::Insert(u, v) => Some((u, v)),
                EdgeEvent::Delete(..) => None,
            })
            .collect();
        span.arg("events", edges.len());
        span.arg("inserts", inserts.len());
        span.arg("deletes", edges.len() - inserts.len());
        // Past the staleness budget, repair would cost more than
        // recomputing: rebuild every view from the published graph. An
        // epoch with no event — reweights and redundant deletes only —
        // changes nothing a view (all structure-only) can observe.
        let rebuild = edges.len() > self.staleness;
        let pinned = kinds
            .into_iter()
            .filter_map(|kind| {
                let q = self.query(kind);
                let answer = match prev.answers.pinned(&q) {
                    Some(r) if !rebuild && edges.is_empty() => Some(r),
                    Some(r) if !rebuild => {
                        self.repair(kind, r, prev.graph(), after, &edges, &inserts)
                    }
                    // No answer to repair from: the view starts cold.
                    _ => self.rebuild(kind, after),
                };
                answer.map(|r| (q, r))
            })
            .collect();
        drop(span);
        publish(pinned);
    }

    /// One view's incremental step from its answer on `before`. The
    /// triangle count and the core numbers read the graph *before* the
    /// epoch (they patch the events over it); components and degrees are
    /// the `after` graph's own, which [`Graph::advance`] repaired.
    fn repair(
        &self,
        kind: ViewKind,
        prev: QueryResult,
        before: &Graph,
        after: &Graph,
        edges: &[EdgeEvent],
        inserts: &[(Index, Index)],
    ) -> Option<QueryResult> {
        let insert_only = inserts.len() == edges.len();
        let repaired = match (kind, prev) {
            (ViewKind::TriangleCount, QueryResult::Count(t)) => self.refresh(kind, true, || {
                Ok(QueryResult::Count(triangle_count_delta(before, t, edges)))
            }),
            // Deletion has no local repair rule for core numbers.
            (ViewKind::CoreNumbers, QueryResult::Cores(c)) if insert_only => {
                c.to_full().and_then(|mut c| {
                    self.refresh(kind, true, move || {
                        core_numbers_insert(before, &mut c, inserts);
                        Ok(QueryResult::Cores(Arc::new(Vector::import_full(c)?)))
                    })
                })
            }
            (ViewKind::PageRank, QueryResult::Ranks { ranks, .. }) => {
                self.refresh(kind, true, || {
                    let (ranks, iterations) = pagerank_warm(after, &self.pr_opts, &ranks)?;
                    Ok(QueryResult::Ranks { ranks: Arc::new(ranks), iterations })
                })
            }
            (ViewKind::ConnectedComponents | ViewKind::DegreeCounts, _) => {
                self.refresh(kind, true, || run_query(&self.query(kind), after))
            }
            _ => None,
        };
        repaired.or_else(|| self.rebuild(kind, after))
    }

    /// One view recomputed from scratch on `graph`.
    fn rebuild(&self, kind: ViewKind, graph: &Graph) -> Option<QueryResult> {
        self.refresh(kind, false, || run_query(&self.query(kind), graph))
    }

    /// Run one view's repair or rebuild under its span and count it. A
    /// failed compute leaves the view without an answer (its queries
    /// execute, and the next epoch rebuilds it) rather than a stale one.
    fn refresh(
        &self,
        kind: ViewKind,
        repair: bool,
        compute: impl FnOnce() -> Result<QueryResult, ServiceError>,
    ) -> Option<QueryResult> {
        let mode = if repair { "repair" } else { "rebuild" };
        let _span = view_span(kind, mode);
        let t0 = Instant::now();
        let r = compute()
            .map_err(|e| {
                let msg = format!("{} view {mode} failed: {e}", kind.name());
                trace::warn_once("service.views", &msg);
            })
            .ok()?;
        let s = &self.slots[kind.idx()];
        if repair {
            s.repairs.fetch_add(1, Relaxed);
            s.m_repair.inc();
            s.m_repair_seconds.observe(t0.elapsed().as_nanos() as u64);
        } else {
            s.rebuilds.fetch_add(1, Relaxed);
            s.m_rebuild.inc();
        }
        Some(r)
    }

    /// Count one query answered by a pinned entry.
    pub(crate) fn served(&self, q: &Query) {
        if let Some(kind) = ViewKind::ALL.into_iter().find(|&k| self.query(k) == *q) {
            let s = &self.slots[kind.idx()];
            s.served.fetch_add(1, Relaxed);
            s.m_served.inc();
        }
    }

    /// Per-view counters for every registered view.
    pub(crate) fn stats(&self) -> Vec<ViewStat> {
        let registered = *self.registered.lock();
        ViewKind::ALL
            .into_iter()
            .filter(|k| registered[k.idx()])
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
}

/// The span one view's repair or rebuild runs under, a child of the
/// epoch's `service.views`.
fn view_span(kind: ViewKind, mode: &'static str) -> trace::Span {
    let mut span = trace::service_span("service.view");
    span.arg("view", kind.name());
    span.arg("mode", mode);
    span
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

    fn published(g: Graph) -> RwLock<Arc<Snapshot>> {
        RwLock::new(Arc::new(Snapshot::new(Arc::new(g), Vec::new())))
    }

    #[test]
    fn engine_rejects_undirected_only_views_on_directed_graphs() {
        let g = Graph::from_edges(4, &[(0, 1)], GraphKind::Directed).expect("graph");
        let published = published(g);
        let engine = ViewEngine::new(GraphKind::Directed, &ViewsConfig::default());
        for k in [ViewKind::ConnectedComponents, ViewKind::TriangleCount, ViewKind::CoreNumbers] {
            assert!(
                engine.register(k, &published).is_err(),
                "{k:?} must be rejected on a directed graph"
            );
        }
        engine.register(ViewKind::PageRank, &published).expect("pagerank works on directed graphs");
        engine
            .register(ViewKind::DegreeCounts, &published)
            .expect("degree works on directed graphs");
    }

    #[test]
    fn registration_is_idempotent_and_pins_on_the_published_snapshot() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)], GraphKind::Undirected).expect("graph");
        let published = published(g);
        let engine = ViewEngine::new(GraphKind::Undirected, &ViewsConfig::default());
        engine.register(ViewKind::TriangleCount, &published).expect("register");
        engine.register(ViewKind::TriangleCount, &published).expect("re-register");
        let snap = published.read().clone();
        let r = snap.answers.pinned(&Query::triangle_count()).expect("pinned");
        assert_eq!(r.count(), Some(0));
        // A later snapshot holds only what its publish pins on it.
        let next = Snapshot::new(snap.graph_arc(), Vec::new());
        assert!(next.answers.get(&Query::triangle_count()).is_none());
        // Unregistered view: nothing pinned.
        assert!(snap.answers.get(&Query::connected_components()).is_none());
    }

    #[test]
    fn views_config_default_covers_all_views() {
        let c = ViewsConfig::default();
        assert_eq!(c.views.len(), ViewKind::ALL.len());
        assert!(c.staleness > 0);
    }
}
