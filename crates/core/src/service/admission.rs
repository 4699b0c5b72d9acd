//! Query admission: batching, caching, and deduplication in front of
//! the snapshot read path.
//!
//! Every read goes through [`GraphService::query`]; admission decides
//! *how* it executes:
//!
//! * **Batching** — concurrent BFS-level queries are folded into one
//!   multi-source traversal: the first arrival becomes the *leader*,
//!   waits for the other BFS queries in flight to queue behind it — at
//!   most one `batch_window`, and not at all when it is alone — then runs
//!   all k collected sources as a single bit-parallel BFS
//!   ([`crate::algorithms::bfs_level_batch`]): one `u64` of source bits
//!   per vertex and one masked `mxv` per level advance every search at
//!   once, so k queries cost one traversal of the shared structure
//!   instead of k.
//! * **Views** — a registered view's query is answered from the snapshot
//!   graph's cached property ([`super::views`]), which the epoch
//!   coordinator read when it published the snapshot: no batching, no
//!   query kernel, no answer table.
//! * **Caching** — an executed result is kept in the answer table of
//!   the snapshot it was computed against (first in, first out at
//!   `cache_capacity`), so a repeat of a canonicalized [`Query`] within
//!   the epoch is a clone. The next epoch's snapshot starts empty;
//!   nothing is looked up by epoch.
//! * **Deduplication** — identical in-flight queries (same canonical
//!   key) share one execution and one result, for the non-batchable
//!   algorithms too.
//! * **Load shedding** — a full admission queue applies the service's
//!   [`BackpressurePolicy`]: `Reject` fails
//!   fast with [`ServiceError::Backpressure`], the blocking policies
//!   wait for the current batch to clear.
//!
//! Queries run on *caller* threads against immutable snapshots — a
//! panicking algorithm is caught and surfaced as an error to every
//! waiter sharing the batch, never a hang.
//!
//! [`GraphService::query`]: super::GraphService::query

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use graphblas::metrics;
use graphblas::trace;
use graphblas::{Error as GrbError, Index, Vector};

use super::{panic_message, BackpressurePolicy, ServiceError, Shared, Snapshot};
use crate::algorithms::{
    bfs_level, bfs_level_batch, core_numbers, pagerank, triangle_count, PageRankOptions,
    TriCountMethod,
};
use crate::graph::Graph;

/// Tuning knobs for the admission layer. Defaults suit tests and modest
/// concurrency; serving deployments mostly tune `cache_capacity`, and
/// `batch_window` only as the most latency a leader may give up to widen
/// a batch — a single client never pays it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// The longest a batch leader waits for the other BFS queries in
    /// flight to queue behind it before executing; a leader that is alone
    /// does not wait. Zero disables the wait (batches still form from
    /// queries that arrive while an earlier batch is executing).
    pub batch_window: Duration,
    /// Widest multi-source BFS one execution runs; a wider collection is
    /// split into consecutive batches of at most this many sources.
    pub max_batch_width: usize,
    /// Executed results a snapshot keeps for repeats (0 keeps none; the
    /// views still answer).
    pub cache_capacity: usize,
    /// Queries queued for batching before the service's backpressure
    /// policy applies to *reads* as well.
    pub max_pending: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            batch_window: Duration::from_micros(500),
            max_batch_width: 64,
            cache_capacity: 256,
            max_pending: 1024,
        }
    }
}

impl AdmissionConfig {
    /// Defaults overridden by the `LAGRAPH_SERVICE_BATCH_WINDOW_US` and
    /// `LAGRAPH_SERVICE_CACHE` environment variables. Malformed values
    /// warn once (via [`graphblas::trace::warn_once`]) and fall back to
    /// the default.
    pub fn from_env() -> Self {
        let mut c = AdmissionConfig::default();
        if let Some(us) = super::env_parse::<u64>("LAGRAPH_SERVICE_BATCH_WINDOW_US") {
            c.batch_window = Duration::from_micros(us);
        }
        if let Some(n) = super::env_parse::<usize>("LAGRAPH_SERVICE_CACHE") {
            c.cache_capacity = n;
        }
        c
    }
}

/// A canonicalized read query. Construct through the named constructors
/// — they normalize parameters (e.g. float options to bit patterns, so
/// `-0.0` and `+0.0` damping are one cache key) and keep the set of
/// admissible algorithms closed.
///
/// # Examples
///
/// Submitting a batch of queries against one snapshot — concurrent
/// BFS-level queries collapse into a single multi-source traversal:
///
/// ```
/// use lagraph::service::{GraphService, Query, ServiceConfig};
/// use lagraph::{Graph, GraphKind};
///
/// let g = Graph::from_edges(8, &[(0, 1), (1, 2), (2, 3)], GraphKind::Undirected)?;
/// let service = GraphService::new(g, ServiceConfig::default())?;
///
/// // Three sources, one traversal: the admission layer runs them as a
/// // single bit-parallel multi-source BFS.
/// let queries = [Query::bfs_level(0), Query::bfs_level(1), Query::bfs_level(2)];
/// let results = service.query_many(&queries)?;
/// assert_eq!(results.len(), 3);
/// let levels = results[0].levels().expect("a BFS result");
/// assert_eq!(levels.get(3), Some(4)); // 0→1→2→3, source at depth 1
/// # Ok::<(), lagraph::service::ServiceError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Query(pub(crate) QueryKind);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum QueryKind {
    BfsLevel { source: Index },
    PageRank { damping_bits: u64, tolerance_bits: u64, max_iters: usize },
    TriangleCount,
    ConnectedComponents,
    Degrees,
    CoreNumbers,
}

/// Normalize a float for use in a hashable cache key: `-0.0` folds to
/// `+0.0`, everything else keeps its exact bit pattern.
fn canon_bits(x: f64) -> u64 {
    (x + 0.0).to_bits()
}

impl Query {
    /// A single-source BFS level query (the batchable one).
    pub fn bfs_level(source: Index) -> Self {
        Query(QueryKind::BfsLevel { source })
    }

    /// A PageRank query with the given options, canonicalized so that
    /// bit-identical option sets share one cache key.
    pub fn pagerank(opts: &PageRankOptions) -> Self {
        Query(QueryKind::PageRank {
            damping_bits: canon_bits(opts.damping),
            tolerance_bits: canon_bits(opts.tolerance),
            max_iters: opts.max_iters,
        })
    }

    /// A global triangle-count query.
    pub fn triangle_count() -> Self {
        Query(QueryKind::TriangleCount)
    }

    /// A connected-components labeling query (undirected graphs).
    /// Served directly from the materialized view when one is
    /// registered and current.
    pub fn connected_components() -> Self {
        Query(QueryKind::ConnectedComponents)
    }

    /// An out-degree-counts query (sparse: vertices with no arcs have
    /// no entry). Served from the degree view when registered.
    pub fn degrees() -> Self {
        Query(QueryKind::Degrees)
    }

    /// A k-core-numbers query (undirected graphs). Served from the
    /// core-numbers view when registered.
    pub fn core_numbers() -> Self {
        Query(QueryKind::CoreNumbers)
    }

    /// The algorithm label, as used in traces and the
    /// `lagraph_service_queries_total{algo=…}` metric.
    pub fn algorithm(&self) -> &'static str {
        match self.0 {
            QueryKind::BfsLevel { .. } => "bfs_level",
            QueryKind::PageRank { .. } => "pagerank",
            QueryKind::TriangleCount => "triangle_count",
            QueryKind::ConnectedComponents => "connected_components",
            QueryKind::Degrees => "degree",
            QueryKind::CoreNumbers => "core_numbers",
        }
    }
}

/// The result of a [`Query`], shared behind `Arc`s so cache hits and
/// deduplicated waiters clone handles, not data.
#[derive(Debug, Clone)]
pub enum QueryResult {
    /// BFS levels: `levels(v) = depth`, source at depth 1, unreachable
    /// vertices absent.
    Levels(Arc<Vector<i32>>),
    /// PageRank ranks plus the iteration count at convergence.
    Ranks {
        /// The rank vector (sums to ≈ 1).
        ranks: Arc<Vector<f64>>,
        /// Iterations PageRank ran before meeting its tolerance.
        iterations: usize,
    },
    /// A global triangle count.
    Count(u64),
    /// Connected-component labels: `components(v)` = the smallest vertex
    /// id in `v`'s component.
    Components(Arc<Vector<u64>>),
    /// Out-degree counts; vertices with no arcs are absent.
    Degrees(Arc<Vector<i64>>),
    /// k-core numbers: `cores(v)` = the largest k with `v` in the
    /// k-core.
    Cores(Arc<Vector<i64>>),
}

impl QueryResult {
    /// The BFS level vector, if this is a [`QueryResult::Levels`].
    pub fn levels(&self) -> Option<&Vector<i32>> {
        match self {
            QueryResult::Levels(v) => Some(v),
            _ => None,
        }
    }

    /// The rank vector and iteration count, if this is
    /// [`QueryResult::Ranks`].
    pub fn ranks(&self) -> Option<(&Vector<f64>, usize)> {
        match self {
            QueryResult::Ranks { ranks, iterations } => Some((ranks, *iterations)),
            _ => None,
        }
    }

    /// The triangle count, if this is a [`QueryResult::Count`].
    pub fn count(&self) -> Option<u64> {
        match self {
            QueryResult::Count(n) => Some(*n),
            _ => None,
        }
    }

    /// The component labels, if this is a [`QueryResult::Components`].
    pub fn components(&self) -> Option<&Vector<u64>> {
        match self {
            QueryResult::Components(v) => Some(v),
            _ => None,
        }
    }

    /// The degree counts, if this is a [`QueryResult::Degrees`].
    pub fn degrees(&self) -> Option<&Vector<i64>> {
        match self {
            QueryResult::Degrees(v) => Some(v),
            _ => None,
        }
    }

    /// The core numbers, if this is a [`QueryResult::Cores`].
    pub fn cores(&self) -> Option<&Vector<i64>> {
        match self {
            QueryResult::Cores(v) => Some(v),
            _ => None,
        }
    }
}

/// A point-in-time sample of the admission layer's counters, from
/// [`GraphService::admission_stats`](super::GraphService::admission_stats).
/// Per-service (unlike the process-global metrics registry), so tests
/// can assert on them in isolation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Queries admitted (including cache hits).
    pub queries: u64,
    /// Batch executions (a batch of width 1 still counts).
    pub batches: u64,
    /// Queries answered by a batch of width ≥ 2 — the traversals saved
    /// by batching is `batched_queries − (their batches)`.
    pub batched_queries: u64,
    /// Queries answered from a result the snapshot kept.
    pub cache_hits: u64,
    /// Queries that missed the cache and executed.
    pub cache_misses: u64,
    /// Queries answered by a registered view, from the snapshot graph's
    /// cached property (bypassing batching and the answer table).
    pub view_hits: u64,
}

#[derive(Default)]
struct StatsInner {
    queries: AtomicU64,
    batches: AtomicU64,
    batched_queries: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    view_hits: AtomicU64,
}

/// One waiter slot: the leader (or direct executor) fills it exactly
/// once; any number of followers block on it.
struct Slot {
    state: Mutex<Option<Result<QueryResult, ServiceError>>>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Self {
        Slot { state: Mutex::new(None), cv: Condvar::new() }
    }

    fn fill(&self, r: Result<QueryResult, ServiceError>) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *s = Some(r);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<QueryResult, ServiceError> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(r) = s.as_ref() {
                return r.clone();
            }
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }
}

struct AdmState {
    /// BFS sources awaiting the current batch leader (unique sources;
    /// duplicate arrivals share the queued slot).
    pending: Vec<(Index, Arc<Slot>)>,
    /// Whether a leader is collecting `pending` right now. Invariant:
    /// `pending` non-empty ⟹ a leader is active and will take it all.
    leader_active: bool,
    /// BFS queries inside `bfs_batched`, from admission to their answer.
    bfs_in_flight: usize,
    /// Those of them queued on `pending` (duplicates of a source count
    /// each): what the leader will answer. The rest are waiting on an
    /// earlier batch and may come back with a query of their own.
    bfs_queued: usize,
    /// Non-batchable queries currently executing, for dedup.
    inflight: HashMap<Query, Arc<Slot>>,
}

struct AdmissionMetrics {
    batch_width: metrics::Histogram,
    cache_hit: metrics::Counter,
    cache_miss: metrics::Counter,
    queries_bfs: metrics::Counter,
    queries_pagerank: metrics::Counter,
    queries_tricount: metrics::Counter,
    queries_cc: metrics::Counter,
    queries_degree: metrics::Counter,
    queries_kcore: metrics::Counter,
    query_seconds: metrics::Histogram,
}

impl AdmissionMetrics {
    fn new() -> Self {
        let cache = |result: &str| {
            metrics::counter_with(
                "lagraph_service_query_cache_total",
                "Query-cache lookups by result.",
                &[("result", result)],
            )
        };
        let queries = |algo: &str| {
            metrics::counter_with(
                "lagraph_service_queries_total",
                "Queries admitted, by algorithm.",
                &[("algo", algo)],
            )
        };
        AdmissionMetrics {
            batch_width: metrics::histogram(
                "lagraph_service_batch_width",
                "Sources per batched query execution.",
            ),
            cache_hit: cache("hit"),
            cache_miss: cache("miss"),
            queries_bfs: queries("bfs_level"),
            queries_pagerank: queries("pagerank"),
            queries_tricount: queries("triangle_count"),
            queries_cc: queries("connected_components"),
            queries_degree: queries("degree"),
            queries_kcore: queries("core_numbers"),
            query_seconds: metrics::histogram_scaled(
                "lagraph_service_query_seconds",
                "End-to-end query latency through admission (seconds).",
                &[],
                1e-9,
            ),
        }
    }

    fn queries(&self, q: &Query) -> &metrics::Counter {
        match q.0 {
            QueryKind::BfsLevel { .. } => &self.queries_bfs,
            QueryKind::PageRank { .. } => &self.queries_pagerank,
            QueryKind::TriangleCount => &self.queries_tricount,
            QueryKind::ConnectedComponents => &self.queries_cc,
            QueryKind::Degrees => &self.queries_degree,
            QueryKind::CoreNumbers => &self.queries_kcore,
        }
    }
}

/// The admission layer: one per [`GraphService`](super::GraphService).
pub(crate) struct Admission {
    config: AdmissionConfig,
    state: Mutex<AdmState>,
    /// Signals `pending` shrinking (for `max_pending` backpressure) and
    /// the BFS counts moving (for the leader's wait).
    state_cv: Condvar,
    stats: StatsInner,
    metrics: AdmissionMetrics,
}

impl Admission {
    pub(crate) fn new(config: AdmissionConfig) -> Self {
        Admission {
            config,
            state: Mutex::new(AdmState {
                pending: Vec::new(),
                leader_active: false,
                bfs_in_flight: 0,
                bfs_queued: 0,
                inflight: HashMap::new(),
            }),
            state_cv: Condvar::new(),
            stats: StatsInner::default(),
            metrics: AdmissionMetrics::new(),
        }
    }

    pub(crate) fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            queries: self.stats.queries.load(Relaxed),
            batches: self.stats.batches.load(Relaxed),
            batched_queries: self.stats.batched_queries.load(Relaxed),
            cache_hits: self.stats.cache_hits.load(Relaxed),
            cache_misses: self.stats.cache_misses.load(Relaxed),
            view_hits: self.stats.view_hits.load(Relaxed),
        }
    }

    /// Admit one query: answer-table lookup, then either the BFS
    /// batching path or direct (deduplicated) execution.
    pub(crate) fn query(&self, shared: &Shared, q: Query) -> Result<QueryResult, ServiceError> {
        let t0 = Instant::now();
        self.stats.queries.fetch_add(1, Relaxed);
        self.metrics.queries(&q).inc();
        let snap = shared.current();
        // A view answer comes first, bypassing batching and the query
        // kernel, and *before* the failure check on purpose: a
        // failed epoch is never published, so — like raw `snapshot()`
        // reads — the views keep answering at the last good epoch.
        if let Some(hit) = self.lookup(shared, &snap, &q)? {
            self.metrics.query_seconds.observe(t0.elapsed().as_nanos() as u64);
            return Ok(hit);
        }
        let result = match q.0 {
            QueryKind::BfsLevel { source } => self.bfs_batched(shared, source),
            _ => self.execute_dedup(q, &snap),
        };
        self.metrics.query_seconds.observe(t0.elapsed().as_nanos() as u64);
        result
    }

    /// Admit `queries` as one deterministic batch against a single
    /// snapshot: all BFS-level queries run as one multi-source
    /// traversal (chunked at `max_batch_width`), everything else
    /// executes directly. Results come back in input order, all
    /// answered at the same epoch. As in [`Admission::query`], a current
    /// view answers before the failure check, so a slice of view-served
    /// queries keeps answering after an epoch fails; the call's
    /// latency is observed once, on the same terms as a single query's.
    pub(crate) fn query_many(
        &self,
        shared: &Shared,
        queries: &[Query],
    ) -> Result<Vec<QueryResult>, ServiceError> {
        let t0 = Instant::now();
        self.stats.queries.fetch_add(queries.len() as u64, Relaxed);
        let snap = shared.current();
        let mut out: Vec<Option<QueryResult>> = vec![None; queries.len()];
        // What the answer table leaves to execute: each unique query with
        // the output positions it answers.
        let mut misses: Vec<(Query, Vec<usize>)> = Vec::new();
        for (idx, q) in queries.iter().enumerate() {
            self.metrics.queries(q).inc();
            if let Some(hit) = self.lookup(shared, &snap, q)? {
                out[idx] = Some(hit);
            } else if let Some((_, targets)) = misses.iter_mut().find(|(m, _)| m == q) {
                targets.push(idx);
            } else {
                misses.push((*q, vec![idx]));
            }
        }
        let mut sources: Vec<(Index, Vec<usize>)> = Vec::new();
        let mut direct: Vec<(Query, Vec<usize>)> = Vec::new();
        for (q, targets) in misses {
            match q.0 {
                QueryKind::BfsLevel { source } => sources.push((source, targets)),
                _ => direct.push((q, targets)),
            }
        }
        let execute = || -> Result<(), ServiceError> {
            for (q, targets) in direct {
                let r = self.execute_dedup(q, &snap)?;
                for idx in targets {
                    out[idx] = Some(r.clone());
                }
            }
            for chunk in sources.chunks(self.config.max_batch_width.max(1)) {
                let batch: Vec<Index> = chunk.iter().map(|(src, _)| *src).collect();
                let levels = self.run_bfs_chunk(&snap, &batch)?;
                for ((src, targets), lv) in chunk.iter().zip(levels) {
                    let r = QueryResult::Levels(Arc::new(lv));
                    snap.answers.insert(
                        Query::bfs_level(*src),
                        r.clone(),
                        self.config.cache_capacity,
                    );
                    for &idx in targets {
                        out[idx] = Some(r.clone());
                    }
                }
            }
            Ok(())
        };
        let executed = execute();
        self.metrics.query_seconds.observe(t0.elapsed().as_nanos() as u64);
        executed?;
        Ok(out.into_iter().map(|r| r.expect("every query answered")).collect())
    }

    /// Answer `q` from a registered view or the snapshot's answer table,
    /// and count the outcome. A view answers before the failure check; a
    /// failed service errors before a kept result or a miss.
    fn lookup(
        &self,
        shared: &Shared,
        snap: &Snapshot,
        q: &Query,
    ) -> Result<Option<QueryResult>, ServiceError> {
        if let Some(kind) = shared.views.view_of(q) {
            let r = caught(|| shared.views.answer(kind, snap.graph()))?;
            self.stats.view_hits.fetch_add(1, Relaxed);
            shared.views.served(kind);
            return Ok(Some(r));
        }
        if let Some(err) = shared.failure() {
            return Err(err);
        }
        let cached = snap.answers.get(q);
        if cached.is_some() {
            self.stats.cache_hits.fetch_add(1, Relaxed);
            self.metrics.cache_hit.inc();
        } else {
            self.stats.cache_misses.fetch_add(1, Relaxed);
            self.metrics.cache_miss.inc();
        }
        Ok(cached)
    }

    /// The leader/follower BFS batching protocol (see module docs).
    fn bfs_batched(&self, shared: &Shared, source: Index) -> Result<QueryResult, ServiceError> {
        if source >= shared.nvertices {
            return Err(ServiceError::Graph(GrbError::oob(source, shared.nvertices)));
        }
        /// Counts its query out of `bfs_in_flight` however it leaves.
        struct InFlight<'a>(&'a Admission);
        impl Drop for InFlight<'_> {
            fn drop(&mut self) {
                self.0.state.lock().unwrap_or_else(|e| e.into_inner()).bfs_in_flight -= 1;
                self.0.state_cv.notify_all();
            }
        }
        let (slot, leader) = {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            while st.pending.len() >= self.config.max_pending.max(1) {
                if shared.policy == BackpressurePolicy::Reject {
                    return Err(ServiceError::Backpressure { depth: st.pending.len() as u64 });
                }
                let (guard, _) = self
                    .state_cv
                    .wait_timeout(st, Duration::from_millis(1))
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
                if let Some(err) = shared.failure() {
                    return Err(err);
                }
            }
            st.bfs_in_flight += 1;
            st.bfs_queued += 1;
            if let Some((_, s)) = st.pending.iter().find(|(s0, _)| *s0 == source) {
                (s.clone(), false)
            } else {
                let s = Arc::new(Slot::new());
                st.pending.push((source, s.clone()));
                let lead = !st.leader_active;
                if lead {
                    st.leader_active = true;
                }
                (s, lead)
            }
        };
        let _in_flight = InFlight(self);
        if leader {
            // Wait for someone, not for nobody: only a query in flight and
            // not yet queued — one still waiting on the batch before this
            // — can come back as a follower before the window closes.
            let deadline = Instant::now() + self.config.batch_window;
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            while st.bfs_queued < st.bfs_in_flight {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                st = self.state_cv.wait_timeout(st, left).unwrap_or_else(|e| e.into_inner()).0;
            }
            st.leader_active = false;
            st.bfs_queued = 0;
            let taken = std::mem::take(&mut st.pending);
            drop(st);
            self.state_cv.notify_all();
            self.execute_bfs_batch(shared, taken);
        } else {
            self.state_cv.notify_all();
        }
        slot.wait()
    }

    /// Run one collected batch, chunked at `max_batch_width`, and fill
    /// every slot — on success, error, or panic alike.
    fn execute_bfs_batch(&self, shared: &Shared, taken: Vec<(Index, Arc<Slot>)>) {
        if taken.is_empty() {
            return;
        }
        let snap = shared.snapshot.read().clone();
        for chunk in taken.chunks(self.config.max_batch_width.max(1)) {
            let sources: Vec<Index> = chunk.iter().map(|(s, _)| *s).collect();
            match self.run_bfs_chunk(&snap, &sources) {
                Ok(levels) => {
                    for ((src, slot), lv) in chunk.iter().zip(levels) {
                        let r = QueryResult::Levels(Arc::new(lv));
                        snap.answers.insert(
                            Query::bfs_level(*src),
                            r.clone(),
                            self.config.cache_capacity,
                        );
                        slot.fill(Ok(r));
                    }
                }
                Err(err) => {
                    for (_, slot) in chunk {
                        slot.fill(Err(err.clone()));
                    }
                }
            }
        }
    }

    /// One multi-source (or single-source, width 1) BFS execution with
    /// batch accounting; panics are caught and surfaced as errors.
    fn run_bfs_chunk(
        &self,
        snap: &Snapshot,
        sources: &[Index],
    ) -> Result<Vec<Vector<i32>>, ServiceError> {
        let width = sources.len();
        let mut span = trace::service_span("service.batch");
        span.arg("algo", "bfs_level");
        span.arg("width", width);
        span.arg("epoch", snap.epoch());
        self.metrics.batch_width.observe(width as u64);
        self.stats.batches.fetch_add(1, Relaxed);
        if width >= 2 {
            self.stats.batched_queries.fetch_add(width as u64, Relaxed);
        }
        caught(|| {
            Ok(if width == 1 {
                vec![bfs_level(snap.graph(), sources[0])?]
            } else {
                bfs_level_batch(snap.graph(), sources)?
            })
        })
    }

    /// Direct execution for the non-batchable algorithms, deduplicating
    /// identical in-flight queries onto one execution.
    fn execute_dedup(&self, q: Query, snap: &Snapshot) -> Result<QueryResult, ServiceError> {
        let slot = {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(s) = st.inflight.get(&q) {
                let s = s.clone();
                drop(st);
                return s.wait();
            }
            let s = Arc::new(Slot::new());
            st.inflight.insert(q, s.clone());
            s
        };
        let mut span = trace::service_span("service.query");
        span.arg("algo", q.algorithm());
        span.arg("epoch", snap.epoch());
        let result = caught(|| run_query(&q, snap.graph()));
        if let Ok(r) = &result {
            snap.answers.insert(q, r.clone(), self.config.cache_capacity);
        }
        slot.fill(result.clone());
        self.state.lock().unwrap_or_else(|e| e.into_inner()).inflight.remove(&q);
        result
    }
}

/// Run `f`, surfacing a panic as an error.
fn caught<T>(f: impl FnOnce() -> Result<T, ServiceError>) -> Result<T, ServiceError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        Err(ServiceError::Graph(GrbError::invalid(format!(
            "query execution panicked: {}",
            panic_message(&*p)
        ))))
    })
}

/// Execute a query against one graph (no caching, no batching): the
/// algorithm entry points, except the components and degrees the graph
/// caches anyway.
fn run_query(q: &Query, g: &Graph) -> Result<QueryResult, ServiceError> {
    match q.0 {
        QueryKind::BfsLevel { source } => {
            let v = bfs_level(g, source)?;
            Ok(QueryResult::Levels(Arc::new(v)))
        }
        QueryKind::PageRank { damping_bits, tolerance_bits, max_iters } => {
            let opts = PageRankOptions {
                damping: f64::from_bits(damping_bits),
                tolerance: f64::from_bits(tolerance_bits),
                max_iters,
            };
            let (ranks, iterations) = pagerank(g, &opts)?;
            Ok(QueryResult::Ranks { ranks: Arc::new(ranks), iterations })
        }
        QueryKind::TriangleCount => {
            let n = triangle_count(g, TriCountMethod::Sandia)?;
            Ok(QueryResult::Count(n))
        }
        // The graph's own labels: carried from the epoch before when
        // that one had them, else one FastSV run kept for the next query.
        QueryKind::ConnectedComponents => Ok(QueryResult::Components(g.components()?)),
        QueryKind::Degrees => Ok(QueryResult::Degrees(g.out_degree()?)),
        QueryKind::CoreNumbers => {
            let v = core_numbers(g)?;
            Ok(QueryResult::Cores(Arc::new(v)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pagerank_queries_canonicalize_zero_sign() {
        let a = Query::pagerank(&PageRankOptions { damping: 0.85, tolerance: 0.0, max_iters: 50 });
        let b = Query::pagerank(&PageRankOptions { damping: 0.85, tolerance: -0.0, max_iters: 50 });
        assert_eq!(a, b, "-0.0 and +0.0 tolerance must share one cache key");
    }

    #[test]
    fn algorithm_labels_are_stable() {
        assert_eq!(Query::bfs_level(3).algorithm(), "bfs_level");
        assert_eq!(Query::triangle_count().algorithm(), "triangle_count");
        assert_eq!(Query::pagerank(&PageRankOptions::default()).algorithm(), "pagerank");
    }

    #[test]
    fn admission_config_defaults() {
        let c = AdmissionConfig::default();
        assert_eq!(c.max_batch_width, 64);
        assert!(c.cache_capacity > 0);
    }
}
