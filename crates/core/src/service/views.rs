//! Materialized analytic views: a whole-graph answer kept current on
//! every served snapshot.
//!
//! A view is a cached [`Graph`] property: the component labels, the
//! out-degrees, the triangle count, the core numbers, or PageRank at the
//! view's options ([`Graph::components`], [`Graph::out_degree`],
//! [`Graph::triangles`], [`Graph::cores`], [`Graph::ranks`]).
//! Registering one sets its flag and materialises the property on the
//! served graph. [`Graph::advance`] carries each property a graph held
//! into the next one by the property's repair rule, within the staleness
//! budget ([`ViewsConfig::staleness`], env `LAGRAPH_VIEWS_STALENESS`);
//! past the budget they stay lazy.
//!
//! At each publish the epoch coordinator (`drainer.rs`) reads every
//! registered property off the new graph before readers can see it, so a
//! [`flush`](super::GraphService::flush) that returns epoch `e` sees the
//! views at `e`. The reads run under one `service.views` span (`events`,
//! `inserts`, `deletes`) with a `service.view` child (`view`, `mode`) per
//! view: `mode="repair"` when the graph carried the property, `"rebuild"`
//! when it did not, counted in
//! `lagraph_service_view_refresh_total{view,mode}`, with repair latency in
//! `lagraph_service_view_repair_seconds{view}`. A failed read leaves the
//! property lazy for its next read. The admission layer answers a
//! registered view's query from the graph's accessor, before the failure
//! check: a failed epoch is never published, so the views keep answering
//! at the last good epoch.
//!
//! `tests/service_views.rs` checks every epoch's views against a
//! from-scratch oracle at S ∈ {1, 2, 4} shards: bit for bit, except
//! warm-restarted PageRank, which is within tolerance (and bit for bit at
//! `staleness = 0`, where it is computed cold).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use graphblas::metrics;
use graphblas::trace;
use graphblas::Error as GrbError;

use super::admission::{Query, QueryResult};
use super::{env_parse, ServiceError};
use crate::algorithms::PageRankOptions;
use crate::graph::{edges_of, EdgeEvent, Graph, GraphKind, Property};

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
    /// Every view, in registration order, which is declaration order:
    /// `kind as usize` indexes the engine's per-view arrays.
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
    /// carry and still have the served graph's answers *repaired*
    /// incrementally by [`Graph::advance`] — the views' properties, and
    /// the labels and degrees a query left. A larger delta leaves them to
    /// be recomputed from the published graph (a view counts that as
    /// `mode="rebuild"`). `0` forces a rebuild every epoch — the
    /// bit-for-bit-reproducible mode. A service without views keeps the
    /// default budget.
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
    /// Epochs that fell back to a full recompute: the published graph
    /// carried no answer to repair (staleness budget exceeded, a rule
    /// with no local repair — e.g. core numbers under deletes — or a
    /// failed read before).
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

/// The engine: owned by [`super::Shared`], read by the epoch coordinator
/// at each publish. It holds no answers: those are the graphs' own.
pub(crate) struct ViewEngine {
    kind: GraphKind,
    /// The budget [`Graph::advance_within`] repairs within.
    pub(crate) staleness: usize,
    pr_opts: PageRankOptions,
    /// Which views are registered, by [`ViewKind`] discriminant. Relaxed:
    /// a flag publishes no data — the properties live behind the graph's
    /// lock, and a read finds them there or computes them.
    registered: [AtomicBool; 5],
    slots: [KindSlot; 5],
}

impl ViewEngine {
    pub(crate) fn new(kind: GraphKind, config: &ViewsConfig) -> Self {
        ViewEngine {
            kind,
            staleness: config.staleness,
            pr_opts: config.pagerank,
            registered: Default::default(),
            slots: ViewKind::ALL.map(kind_slot),
        }
    }

    fn is_registered(&self, kind: ViewKind) -> bool {
        self.registered[kind as usize].load(Relaxed)
    }

    /// The query a view answers.
    fn query(&self, kind: ViewKind) -> Query {
        match kind {
            ViewKind::ConnectedComponents => Query::connected_components(),
            ViewKind::PageRank => Query::pagerank(&self.pr_opts),
            ViewKind::DegreeCounts => Query::degrees(),
            ViewKind::TriangleCount => Query::triangle_count(),
            ViewKind::CoreNumbers => Query::core_numbers(),
        }
    }

    /// The registered view that answers `q`, if any.
    pub(crate) fn view_of(&self, q: &Query) -> Option<ViewKind> {
        ViewKind::ALL.into_iter().find(|&k| self.is_registered(k) && self.query(k) == *q)
    }

    /// The graph property a view reads.
    fn property(&self, kind: ViewKind) -> Property {
        match kind {
            ViewKind::ConnectedComponents => Property::Components,
            ViewKind::PageRank => Property::Ranks(self.pr_opts),
            ViewKind::DegreeCounts => Property::OutDegree,
            ViewKind::TriangleCount => Property::Triangles,
            ViewKind::CoreNumbers => Property::Cores,
        }
    }

    /// A view's answer on `g`, read off its cached property (computed or
    /// repaired by this read if `g` does not hold it yet).
    pub(crate) fn answer(&self, kind: ViewKind, g: &Graph) -> Result<QueryResult, ServiceError> {
        Ok(match kind {
            ViewKind::ConnectedComponents => QueryResult::Components(g.components()?),
            ViewKind::PageRank => {
                let (ranks, iterations) = g.ranks(&self.pr_opts)?;
                QueryResult::Ranks { ranks, iterations }
            }
            ViewKind::DegreeCounts => QueryResult::Degrees(g.out_degree()?),
            ViewKind::TriangleCount => QueryResult::Count(g.triangles()?),
            ViewKind::CoreNumbers => QueryResult::Cores(g.cores()?),
        })
    }

    /// Register one view: materialise its property on `served`, the
    /// served graph, and set its flag. Errors if the view is undefined for
    /// the graph's kind; re-registering is a no-op.
    pub(crate) fn register(&self, kind: ViewKind, served: &Graph) -> Result<(), ServiceError> {
        if kind.needs_undirected() && self.kind != GraphKind::Undirected {
            return Err(ServiceError::Graph(GrbError::invalid(format!(
                "view {:?} is only defined on undirected graphs",
                kind.name()
            ))));
        }
        if !self.is_registered(kind) {
            self.answer(kind, served)?;
            self.registered[kind as usize].store(true, Relaxed);
        }
        Ok(())
    }

    /// Read every registered view's property off `g`, the graph about to
    /// be published, `arcs` being the structural changes that produced it
    /// (mirror arcs included): a repair when `g` carried the property, a
    /// rebuild when it did not, each under its span and counted. What `g`
    /// carried is taken before any read, since one view's read may
    /// materialise another's property (PageRank reads the out-degrees).
    pub(crate) fn read_at_publish(&self, g: &Graph, arcs: &[EdgeEvent]) {
        let kinds: Vec<(ViewKind, bool)> = ViewKind::ALL
            .into_iter()
            .filter(|&k| self.is_registered(k))
            .map(|k| (k, g.holds(self.property(k))))
            .collect();
        if kinds.is_empty() {
            return;
        }
        let mut span = trace::service_span("service.views");
        let edges = edges_of(self.kind, arcs);
        let inserts = edges.iter().filter(|e| matches!(e, EdgeEvent::Insert(..))).count();
        span.arg("events", edges.len());
        span.arg("inserts", inserts);
        span.arg("deletes", edges.len() - inserts);
        for (kind, repair) in kinds {
            if repair && edges.is_empty() {
                // No event (reweights and redundant deletes only): the
                // answer holds as it was, with nothing to refresh.
                continue;
            }
            let mode = if repair { "repair" } else { "rebuild" };
            let _span = view_span(kind, mode);
            let t0 = Instant::now();
            if let Err(e) = self.answer(kind, g) {
                let msg = format!("{} view {mode} failed: {e}", kind.name());
                trace::warn_once("service.views", &msg);
                continue;
            }
            let s = &self.slots[kind as usize];
            if repair {
                s.repairs.fetch_add(1, Relaxed);
                s.m_repair.inc();
                s.m_repair_seconds.observe(t0.elapsed().as_nanos() as u64);
            } else {
                s.rebuilds.fetch_add(1, Relaxed);
                s.m_rebuild.inc();
            }
        }
    }

    /// Count one query a view answered.
    pub(crate) fn served(&self, kind: ViewKind) {
        let s = &self.slots[kind as usize];
        s.served.fetch_add(1, Relaxed);
        s.m_served.inc();
    }

    /// Per-view counters for every registered view.
    pub(crate) fn stats(&self) -> Vec<ViewStat> {
        ViewKind::ALL
            .into_iter()
            .filter(|&k| self.is_registered(k))
            .map(|k| {
                let s = &self.slots[k as usize];
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

    #[test]
    fn view_names_round_trip() {
        for k in ViewKind::ALL {
            assert_eq!(ViewKind::parse(k.name()), Some(k));
        }
        assert_eq!(ViewKind::parse("no-such-view"), None);
    }

    #[test]
    fn engine_rejects_undirected_only_views_on_directed_graphs() {
        let g = Graph::from_edges(4, &[(0, 1)], GraphKind::Directed).expect("graph");
        let engine = ViewEngine::new(GraphKind::Directed, &ViewsConfig::default());
        for k in [ViewKind::ConnectedComponents, ViewKind::TriangleCount, ViewKind::CoreNumbers] {
            assert!(engine.register(k, &g).is_err(), "{k:?} must be rejected on a directed graph");
            assert_eq!(engine.view_of(&engine.query(k)), None, "{k:?} was registered");
        }
        engine.register(ViewKind::PageRank, &g).expect("pagerank works on directed graphs");
        engine.register(ViewKind::DegreeCounts, &g).expect("degree works on directed graphs");
        let registered: Vec<ViewKind> = engine.stats().iter().map(|s| s.view).collect();
        assert_eq!(registered, [ViewKind::PageRank, ViewKind::DegreeCounts]);
    }

    #[test]
    fn registration_is_idempotent_and_materialises_on_the_served_graph() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)], GraphKind::Undirected).expect("graph");
        let engine = ViewEngine::new(GraphKind::Undirected, &ViewsConfig::default());
        assert!(!g.holds(Property::Triangles));
        engine.register(ViewKind::TriangleCount, &g).expect("register");
        engine.register(ViewKind::TriangleCount, &g).expect("re-register");
        assert!(g.holds(Property::Triangles), "registration materialises the property");
        assert_eq!(engine.view_of(&Query::triangle_count()), Some(ViewKind::TriangleCount));
        let r = engine.answer(ViewKind::TriangleCount, &g).expect("answer");
        assert_eq!(r.count(), Some(0));
        // A graph the view was not registered on holds nothing of it.
        let other = Graph::new(g.a().clone(), GraphKind::Undirected).expect("graph");
        assert!(!other.holds(Property::Triangles));
        // Unregistered view: nothing materialised, no query answered.
        assert!(!g.holds(Property::Components));
        assert_eq!(engine.view_of(&Query::connected_components()), None);
    }

    #[test]
    fn views_config_default_covers_all_views() {
        let c = ViewsConfig::default();
        assert_eq!(c.views.len(), ViewKind::ALL.len());
        assert!(c.staleness > 0);
    }
}
