//! Concurrent graph serving: snapshot-isolated queries over a live
//! stream of edge updates, scaled out across shards.
//!
//! The paper's incremental-update machinery (§II.A pending tuples and
//! zombies) makes a stream of `e` `set_element` calls cost one assembly
//! — but only if something *batches* the stream.
//! [`GraphService`] is that something, shaped for the serving workload the
//! ROADMAP targets: many readers running the algorithm suite concurrently
//! with many writers mutating the graph.
//!
//! # Architecture
//!
//! ```text
//!  queries ──▶ admission layer ──────────────┐
//!              answers · batch · dedup · shed│ k queued BFS sources →
//!                                            │ one bit-parallel k-source BFS
//!                                            ▼
//!  readers ◀── Arc-swapped epoch snapshot ◀── publish Graph(epoch e) + its
//!                                            ▲  answer table (views pinned)
//!                                            │  caches inherited from e-1
//!          epoch e-1's base, shared + Δ's rows in a new overlay segment
//!                                            │ Δ = Δ₀ ‖ Δ₁ ‖ … ‖ Δ_{S-1}
//!  epoch coordinator (one thread): net each shard's slice in shard
//!                                  order (sorted, last write wins)
//!                                            ▲ cut: every queue at once
//!  writers ──▶ per-shard bounded queues, routed by [`Partitioner`]
//!              (block / coalesce / reject)
//! ```
//!
//! * **Writers** call [`GraphService::insert_edge`] / [`delete_edge`]
//!   (or [`submit`] with an explicit [`Update`]). A [`Partitioner`] —
//!   row-block by default, 2D/hypersparse or hashed on request — routes
//!   each update to the shard owning its (canonicalized) edge key; when
//!   that shard's bounded queue is full the configured
//!   [`BackpressurePolicy`] decides whether the writer blocks, coalesces
//!   against a queued update to the same edge, or is rejected.
//! * **The epoch coordinator**, the service's one drain thread, cuts a
//!   consistent batch across *all* shard queues at once and nets each
//!   shard's slice, in shard order, into a small sorted delta (the last
//!   write to an arc wins; undirected edges carry both arcs). A shard is
//!   one slice of the update log — a queue and its lock — not a thread,
//!   and holds no copy of the graph. The coordinator then writes the
//!   next snapshot over the *published* one
//!   ([`graphblas::Matrix::with_edits`]): it shares the published base
//!   arrays and writes only the rows the disjoint deltas touch, folding
//!   its overlay into a fresh base every few dozen epochs, and carries
//!   the previous snapshot's materialised caches (structure and its
//!   dual, transpose, degrees, component labels) forward by the same
//!   delta. One coordinated drain = one **epoch**; a snapshot never
//!   mixes shards from different epochs. An undirected graph holds two
//!   matrices: the adjacency, which is its own transpose, and the
//!   structure, whose rows are its own dual.
//! * **Readers** call [`GraphService::snapshot`] for raw access, or
//!   better, [`GraphService::query`]: the admission layer batches
//!   concurrent same-algorithm queries (k queued BFS sources run as one
//!   bit-parallel multi-source traversal), answers from the snapshot's
//!   own answer table — the registered views' answers pinned at publish,
//!   and the results executed against it kept beside them — deduplicates
//!   identical in-flight queries, and sheds load under the service's
//!   backpressure policy. Queries never block behind assembly and never
//!   observe a torn batch.
//!
//! [`submit`]: GraphService::submit
//! [`delete_edge`]: GraphService::delete_edge
//!
//! # Failure semantics
//!
//! An epoch that fails — a panic or an error while the coordinator nets
//! the shards' slices, builds the next snapshot, or advances the views —
//! *fails the service* instead of hanging it: all three run under one
//! guard, the coordinator stops publishing, and every subsequent
//! [`submit`], [`flush`](GraphService::flush), or
//! [`query`](GraphService::query) returns
//! [`ServiceError::DrainerFailed`] carrying the shard and the message.
//! The last successfully published snapshot remains available through
//! [`snapshot`](GraphService::snapshot) for draining reads. See
//! `docs/SERVING.md` for the operational playbook.
//!
//! # Observability
//!
//! Every epoch opens a `service.epoch` span ([`graphblas::trace`],
//! category `service`) tagged with the epoch number, batch size, shard
//! count, and the netted delta the publish applied, plus the adjacency's
//! overlay (`overlay_rows`, `overlay_entries`) and whether the publish
//! `folded` it into a fresh base; each batched query execution opens a
//! `service.batch` span tagged with its width and epoch.
//! `GRAPHBLAS_TRACE=burble` narrates the serving loop live.
//!
//! For *live* visibility the service also feeds [`graphblas::metrics`]:
//! per-shard queue-depth gauges and processed counters, update counters
//! by outcome, backpressure events by policy, batch-size and
//! batch-width histograms, query counters by algorithm, cache hit/miss
//! counters, query latency, epoch counters, epoch lag, and
//! resident-bytes gauges. Set
//! `GRAPHBLAS_METRICS_ADDR` to scrape them from a running replica
//! (`examples/metrics_service.rs` shows the whole loop).
//!
//! # Example
//!
//! ```
//! use lagraph::service::{GraphService, Query, ServiceConfig};
//! use lagraph::{bfs_level, Graph, GraphKind};
//!
//! let g = Graph::from_edges(64, &[(0, 1), (1, 2)], GraphKind::Undirected)?;
//! let service = GraphService::new(g, ServiceConfig::default())?;
//!
//! // Writer side: stream updates; they are invisible until an epoch turns.
//! service.insert_edge(2, 3, 1.0)?;
//! service.insert_edge(3, 4, 1.0)?;
//!
//! // Force the pending batch into a new epoch (tests / checkpoints).
//! let snap = service.flush()?;
//! assert!(snap.epoch() >= 1);
//!
//! // Reader side, raw: queries run against the immutable snapshot.
//! let levels = bfs_level(snap.graph(), 0)?;
//! assert_eq!(levels.get(4), Some(5)); // 0-1-2-3-4 after the flush
//!
//! // Reader side, admitted: batched, cached, deduplicated.
//! let result = service.query(Query::bfs_level(0))?;
//! assert_eq!(result.levels().unwrap().get(4), Some(5));
//! # Ok::<(), lagraph::service::ServiceError>(())
//! ```

pub mod admission;
pub mod partition;
pub mod views;

mod drainer;

pub use admission::{AdmissionConfig, AdmissionStats, Query, QueryResult};
pub use partition::{EdgeHash, Grid2D, Partitioner, RowBlock};
pub use views::{ViewKind, ViewStat, ViewsConfig};

use crate::graph::{Graph, GraphKind};
use admission::Admission;
use graphblas::metrics;
use graphblas::trace::{self, ArgValue};
use graphblas::{Error as GrbError, Index};
use parking_lot::RwLock;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// One edge mutation submitted to the service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Update {
    /// Insert the edge `row → col` with the given weight, or overwrite
    /// its weight if it already exists.
    Insert(Index, Index, f64),
    /// Delete the edge `row → col`; deleting an absent edge is a no-op.
    Delete(Index, Index),
}

impl Update {
    fn key(&self) -> (Index, Index) {
        match *self {
            Update::Insert(i, j, _) => (i, j),
            Update::Delete(i, j) => (i, j),
        }
    }
}

/// What [`GraphService::submit`] does when the target shard's queue is
/// full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Block the writer until the drainer frees space. Never loses an
    /// update; converts overload into writer latency.
    #[default]
    Block,
    /// Scan the shard for a queued update to the same edge and replace it
    /// in place (last write wins — exactly the pending-tuple dedup rule
    /// one layer down). Falls back to blocking when nothing coalesces.
    /// Right for high-churn workloads that repeatedly touch hot edges.
    Coalesce,
    /// Fail fast: return [`ServiceError::Backpressure`] and let the
    /// caller retry, shed load, or route elsewhere.
    Reject,
}

/// Tuning knobs for [`GraphService`]. `Default` is sized for tests and
/// moderate churn; serving deployments mostly tune `shards`,
/// `queue_capacity`, and the [`BackpressurePolicy`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shards: slices of the update log, each a bounded queue
    /// with its own lock, so writers to different shards do not contend.
    /// The one drain thread nets every shard's slice at each epoch.
    /// Routing defaults to a [`RowBlock`] partitioner over this many
    /// shards; ignored when `partitioner` is set (the partitioner's own
    /// shard count wins). Clamped to ≥ 1.
    pub shards: usize,
    /// Per-shard queue bound. A full shard triggers the backpressure
    /// policy, so `shards × queue_capacity` bounds service memory.
    pub queue_capacity: usize,
    /// The full-queue policy.
    pub policy: BackpressurePolicy,
    /// Upper bound on updates replayed per epoch (summed across
    /// shards); a deeper backlog is split across consecutive epochs so
    /// snapshot latency stays bounded.
    pub max_batch: usize,
    /// Keep every published snapshot in the compressed storage form:
    /// each epoch's assembly decodes, merges and re-encodes it on the
    /// parallel pool. Cuts resident bytes roughly
    /// in half on power-law graphs for a modest re-encode cost per
    /// epoch. Implied when the initial graph was loaded from `.lagc`.
    pub compressed: bool,
    /// The edge-to-shard routing policy. `None` (the default) builds a
    /// [`RowBlock`] over `shards`; set to a [`Grid2D`] for the
    /// 2D/hypersparse decomposition or [`EdgeHash`] for skew-proof
    /// hashing.
    pub partitioner: Option<Arc<dyn Partitioner>>,
    /// Query-admission tuning (batch window, batch width, cache size).
    pub admission: AdmissionConfig,
    /// Materialized analytic views to register at startup
    /// ([`views::ViewsConfig`]); `None` (the default) starts no views —
    /// they can still be added later with
    /// [`GraphService::register_view`]. Views inapplicable to the
    /// graph's kind are skipped with a warning.
    pub views: Option<ViewsConfig>,
    /// Test failpoint: the coordinator panics publishing this epoch,
    /// after building its snapshot and before advancing the views,
    /// exercising the failure path end to end (reported as shard 0).
    #[doc(hidden)]
    pub fail_epoch: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            queue_capacity: 1 << 14,
            policy: BackpressurePolicy::Block,
            max_batch: 1 << 20,
            compressed: false,
            partitioner: None,
            admission: AdmissionConfig::default(),
            views: None,
            fail_epoch: None,
        }
    }
}

impl ServiceConfig {
    /// Defaults overridden from the environment:
    /// `LAGRAPH_SERVICE_SHARDS` sets the shard count, the admission
    /// knobs come from [`AdmissionConfig::from_env`], and
    /// `LAGRAPH_VIEWS` / `LAGRAPH_VIEWS_STALENESS` configure the
    /// materialized views ([`ViewsConfig::from_env`]). Malformed values
    /// warn once and fall back to the default.
    pub fn from_env() -> Self {
        let mut c = ServiceConfig::default();
        if let Some(s) = env_parse::<usize>("LAGRAPH_SERVICE_SHARDS") {
            c.shards = s.max(1);
        }
        c.admission = AdmissionConfig::from_env();
        c.views = ViewsConfig::from_env();
        c
    }
}

/// Errors surfaced by the service layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The update queue is full and the policy is
    /// [`BackpressurePolicy::Reject`]; `depth` is the queued-update count
    /// at rejection time.
    Backpressure {
        /// Updates queued (submitted but not yet applied) when the
        /// submission was refused.
        depth: u64,
    },
    /// The service is shutting down and no longer accepts updates.
    ShutDown,
    /// An epoch failed: the drain thread panicked or hit an error while
    /// netting, publishing, or advancing the views. The service stops
    /// ingesting (writes and queries error instead of hanging on an epoch
    /// that will never arrive); the last published snapshot keeps serving
    /// raw reads.
    DrainerFailed {
        /// The shard whose slice of the update log was being netted when
        /// the epoch failed; 0 for a failure past the netting (building
        /// the snapshot or advancing the views), which spans every shard.
        shard: usize,
        /// The panic or error message, for the post-mortem.
        message: String,
    },
    /// An underlying GraphBLAS operation failed (bad index, bad
    /// dimensions); carries the typed [`graphblas::Error`].
    Graph(GrbError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Backpressure { depth } => {
                write!(f, "update queue full ({depth} queued): submission rejected")
            }
            ServiceError::ShutDown => write!(f, "graph service is shut down"),
            ServiceError::DrainerFailed { shard, message } => {
                write!(f, "epoch failed at shard {shard}: {message}")
            }
            ServiceError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<GrbError> for ServiceError {
    fn from(e: GrbError) -> Self {
        ServiceError::Graph(e)
    }
}

/// An immutable, epoch-tagged view of the served graph. Cheap to clone
/// (it is handed out as an `Arc`); holding one pins that epoch's fully
/// assembled matrix, cached properties and query answers in memory,
/// unaffected by any concurrent updates or later epochs.
#[derive(Debug)]
pub struct Snapshot {
    pub(crate) epoch: u64,
    pub(crate) nedges: usize,
    pub(crate) graph: Arc<Graph>,
    /// The only place a query answer for this epoch lives.
    pub(crate) answers: Answers,
}

impl Snapshot {
    /// A snapshot of `graph` at its own epoch, holding the views'
    /// `pinned` answers.
    pub(crate) fn new(graph: Arc<Graph>, pinned: Vec<(Query, QueryResult)>) -> Self {
        let answers =
            Answers(parking_lot::Mutex::new(AnswerTable { pinned, ..AnswerTable::default() }));
        Snapshot { epoch: graph.epoch(), nedges: graph.nedges(), graph, answers }
    }

    /// The epoch that produced this snapshot (0 = the initial graph).
    /// Equals [`Graph::epoch`] of [`Snapshot::graph`] — a reader that
    /// sees them disagree has found a torn publish, which the regression
    /// suite asserts never happens.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Stored edge count at publish time. Constant for the lifetime of
    /// the snapshot: the underlying matrix is fully assembled and never
    /// mutated after publication.
    pub fn nedges(&self) -> usize {
        self.nedges
    }

    /// The graph to run queries against.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The graph as a shared handle, for queries that outlive the
    /// snapshot borrow (e.g. spawned onto another thread).
    pub fn graph_arc(&self) -> Arc<Graph> {
        self.graph.clone()
    }
}

/// A snapshot's answer table. Pinned entries are the registered views'
/// answers, set when the snapshot is published or a view registered on
/// it; evictable entries are results the admission layer computed
/// against this snapshot, kept first in, first out up to
/// [`AdmissionConfig::cache_capacity`]. Every entry dies with its
/// snapshot, so no answer is ever looked up at an epoch but its own.
#[derive(Debug)]
pub(crate) struct Answers(parking_lot::Mutex<AnswerTable>);

#[derive(Debug, Default)]
struct AnswerTable {
    pinned: Vec<(Query, QueryResult)>,
    evictable: HashMap<Query, QueryResult>,
    /// The evictable keys, oldest first.
    order: VecDeque<Query>,
}

/// Which kind of entry answered a lookup.
pub(crate) enum Answer {
    Pinned(QueryResult),
    Evictable(QueryResult),
}

impl Answers {
    /// The answer to `q`, and which kind of entry held it.
    pub(crate) fn get(&self, q: &Query) -> Option<Answer> {
        let t = self.0.lock();
        if let Some((_, r)) = t.pinned.iter().find(|(k, _)| k == q) {
            return Some(Answer::Pinned(r.clone()));
        }
        t.evictable.get(q).cloned().map(Answer::Evictable)
    }

    /// The pinned answer to `q`, if a view holds one.
    pub(crate) fn pinned(&self, q: &Query) -> Option<QueryResult> {
        self.0.lock().pinned.iter().find(|(k, _)| k == q).map(|(_, r)| r.clone())
    }

    /// Pin a view's answer, replacing any evictable entry for `q`.
    pub(crate) fn pin(&self, q: Query, r: QueryResult) {
        let mut t = self.0.lock();
        if t.evictable.remove(&q).is_some() {
            t.order.retain(|k| *k != q);
        }
        t.pinned.push((q, r));
    }

    /// Keep an admitted result, evicting the oldest past `capacity`
    /// (0 keeps nothing). A pinned answer is never shadowed.
    pub(crate) fn insert(&self, q: Query, r: QueryResult, capacity: usize) {
        let mut t = self.0.lock();
        if capacity == 0 || t.pinned.iter().any(|(k, _)| *k == q) {
            return;
        }
        if t.evictable.insert(q, r).is_none() {
            t.order.push_back(q);
            while t.order.len() > capacity {
                if let Some(old) = t.order.pop_front() {
                    t.evictable.remove(&old);
                }
            }
        }
    }
}

/// One update-log shard: a bounded queue plus the condvar writers block
/// on when it is full.
pub(crate) struct Shard {
    pub(crate) queue: Mutex<VecDeque<Update>>,
    pub(crate) not_full: Condvar,
}

/// Distinct per-shard metric series are capped here; shards beyond the
/// cap share one `shard="other"` series (cardinality budget).
const SHARD_GAUGE_CAP: usize = 64;

pub(crate) fn now_unix_ns() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0)
}

fn policy_label(p: BackpressurePolicy) -> &'static str {
    match p {
        BackpressurePolicy::Block => "block",
        BackpressurePolicy::Coalesce => "coalesce",
        BackpressurePolicy::Reject => "reject",
    }
}

/// Parse an environment knob through [`graphblas::env::var`]: unset is
/// the default, a malformed value warns once and is the default too.
pub(crate) fn env_parse<T: std::str::FromStr>(name: &'static str) -> Option<T> {
    graphblas::env::var(name, std::any::type_name::<T>(), |v| v.parse().ok())
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = p.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.as_str()
    } else {
        "opaque panic payload"
    }
}

/// The service's live-metric handles ([`graphblas::metrics`]). The
/// registry is process-global, so two services in one process share
/// these series: counters merge, gauges show the last writer. That is
/// the intended deployment shape (one service per serving process);
/// tests that need isolation read [`GraphService::stats`] instead.
pub(crate) struct ServiceMetrics {
    /// Per-shard queue depth, `lagraph_service_queue_depth{shard=…}`;
    /// indexed by shard, entries past [`SHARD_GAUGE_CAP`] share a series.
    pub(crate) queue_depth: Vec<metrics::Gauge>,
    /// Per-shard published updates,
    /// `lagraph_service_shard_processed_total{shard=…}`; same capping.
    pub(crate) shard_processed: Vec<metrics::Counter>,
    pub(crate) submitted: metrics::Counter,
    pub(crate) processed: metrics::Counter,
    pub(crate) coalesced: metrics::Counter,
    pub(crate) rejected: metrics::Counter,
    /// Full-queue events by the service's configured policy (counted
    /// once per affected submission, however it resolved).
    pub(crate) backpressure: metrics::Counter,
    /// Updates replayed per epoch.
    pub(crate) batch_updates: metrics::Histogram,
    pub(crate) epochs: metrics::Counter,
    pub(crate) epoch: metrics::Gauge,
    pub(crate) last_publish: metrics::Gauge,
    /// Wall clock of the last snapshot publish, in unix nanoseconds —
    /// the `lagraph_service_epoch_lag_seconds` callback reads it at
    /// scrape time, so lag is current even when no epoch is turning.
    pub(crate) publish_unix_ns: Arc<AtomicU64>,
}

impl ServiceMetrics {
    fn new(shards: usize, policy: BackpressurePolicy) -> Self {
        let counters = |result: &str| {
            metrics::counter_with(
                "lagraph_service_updates_total",
                "Service updates by outcome.",
                &[("result", result)],
            )
        };
        let depth_overflow = metrics::gauge_with(
            "lagraph_service_queue_depth",
            "Queued updates per shard.",
            &[("shard", "other")],
        );
        let queue_depth = (0..shards)
            .map(|k| {
                if k < SHARD_GAUGE_CAP {
                    metrics::gauge_with(
                        "lagraph_service_queue_depth",
                        "Queued updates per shard.",
                        &[("shard", &k.to_string())],
                    )
                } else {
                    depth_overflow.clone()
                }
            })
            .collect();
        let processed_overflow = metrics::counter_with(
            "lagraph_service_shard_processed_total",
            "Updates cut from this shard's queue.",
            &[("shard", "other")],
        );
        let shard_processed = (0..shards)
            .map(|k| {
                if k < SHARD_GAUGE_CAP {
                    metrics::counter_with(
                        "lagraph_service_shard_processed_total",
                        "Updates cut from this shard's queue.",
                        &[("shard", &k.to_string())],
                    )
                } else {
                    processed_overflow.clone()
                }
            })
            .collect();
        let publish_unix_ns = Arc::new(AtomicU64::new(now_unix_ns()));
        {
            let at = publish_unix_ns.clone();
            metrics::gauge_fn(
                "lagraph_service_epoch_lag_seconds",
                "Seconds since the served snapshot was published (staleness of reads).",
                &[],
                move || Some(now_unix_ns().saturating_sub(at.load(Relaxed)) as f64 / 1e9),
            );
        }
        ServiceMetrics {
            queue_depth,
            shard_processed,
            submitted: counters("submitted"),
            processed: counters("processed"),
            coalesced: counters("coalesced"),
            rejected: counters("rejected"),
            backpressure: metrics::counter_with(
                "lagraph_service_backpressure_total",
                "Submissions that hit a full shard queue, by configured policy.",
                &[("policy", policy_label(policy))],
            ),
            batch_updates: metrics::histogram(
                "lagraph_service_batch_updates",
                "Updates replayed per epoch batch.",
            ),
            epochs: metrics::counter(
                "lagraph_service_epochs_total",
                "Epochs published since process start.",
            ),
            epoch: metrics::gauge("lagraph_service_epoch", "Epoch of the served snapshot."),
            last_publish: metrics::gauge(
                "lagraph_service_last_publish_unixtime_seconds",
                "Wall-clock time of the last snapshot publish.",
            ),
            publish_unix_ns,
        }
    }
}

/// Drain coordination: counts are monotone, so `submitted == processed`
/// means the log is empty and every accepted update is visible in the
/// published snapshot.
#[derive(Default)]
pub(crate) struct DrainState {
    pub(crate) shutdown: bool,
}

pub(crate) struct Shared {
    pub(crate) shards: Vec<Shard>,
    pub(crate) capacity: usize,
    pub(crate) policy: BackpressurePolicy,
    pub(crate) kind: GraphKind,
    pub(crate) nvertices: Index,
    pub(crate) partitioner: Arc<dyn Partitioner>,
    /// The currently served snapshot; swapped wholesale per epoch.
    pub(crate) snapshot: RwLock<Arc<Snapshot>>,
    /// Accepted updates (after coalescing: a coalesced write replaces a
    /// queued one and does not bump this).
    pub(crate) submitted: AtomicU64,
    /// Updates replayed into a *published* epoch.
    pub(crate) processed: AtomicU64,
    pub(crate) coalesced: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) shutting_down: AtomicBool,
    /// Fast check for a failed epoch; details live in `failed`.
    pub(crate) failed_flag: AtomicBool,
    /// `(shard, message)` of the failed epoch.
    pub(crate) failed: Mutex<Option<(usize, String)>>,
    /// Wakes the coordinator (new work or shutdown) and flushers
    /// (publish).
    pub(crate) state: Mutex<DrainState>,
    pub(crate) work: Condvar,
    pub(crate) published: Condvar,
    /// Live-metric handles (no-ops while `graphblas::metrics` is off).
    pub(crate) metrics: ServiceMetrics,
    /// The materialized-view engine; inert until a view is registered.
    pub(crate) views: Arc<views::ViewEngine>,
    /// The snapshot the last publish replaced, until an admitted query
    /// releases it ([`Shared::current`]).
    pub(crate) retired: parking_lot::Mutex<Option<Arc<Snapshot>>>,
}

impl Shared {
    /// The published snapshot, for an admitted query, after releasing
    /// the one the last publish replaced. The answers a snapshot keeps
    /// were allocated by query threads, and a query thread frees them
    /// here, just before it allocates the next ones. While the
    /// coordinator freed them, ahead of building its next epoch, the
    /// peak resident set of one workload varied from run to run by
    /// whole adjacency arrays (EXPERIMENTS.md §P34).
    pub(crate) fn current(&self) -> Arc<Snapshot> {
        let replaced = self.retired.lock().take();
        drop(replaced);
        self.snapshot.read().clone()
    }

    pub(crate) fn depth(&self) -> u64 {
        self.submitted.load(SeqCst).saturating_sub(self.processed.load(SeqCst))
    }

    /// The failed-epoch error, if an epoch has failed.
    pub(crate) fn failure(&self) -> Option<ServiceError> {
        if !self.failed_flag.load(SeqCst) {
            return None;
        }
        let g = self.failed.lock().unwrap_or_else(|e| e.into_inner());
        g.as_ref().map(|(shard, message)| ServiceError::DrainerFailed {
            shard: *shard,
            message: message.clone(),
        })
    }
}

/// A concurrent graph-serving handle: snapshot-isolated reads (raw or
/// through batched query admission) multiplexed with a sharded,
/// streamed, batched write path. See the [module docs](self) for the
/// architecture and an end-to-end example.
pub struct GraphService {
    shared: Arc<Shared>,
    admission: Arc<Admission>,
    coordinator: Option<JoinHandle<()>>,
}

/// A point-in-time counter sample from [`GraphService::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Epoch of the currently served snapshot.
    pub epoch: u64,
    /// Updates accepted but not yet visible in a published snapshot.
    pub queue_depth: u64,
    /// Total updates accepted since construction.
    pub submitted: u64,
    /// Total updates replayed into published epochs.
    pub processed: u64,
    /// Writes that replaced a queued update to the same edge
    /// ([`BackpressurePolicy::Coalesce`]).
    pub coalesced: u64,
    /// Writes refused with [`ServiceError::Backpressure`]
    /// ([`BackpressurePolicy::Reject`]).
    pub rejected: u64,
}

impl GraphService {
    /// Start serving `initial` as epoch 0: set up one update queue per
    /// shard of the partitioner, spawn the epoch coordinator (the one
    /// drain thread, at any shard count), and stand up the admission
    /// layer. Errors if the partitioner routes across 0 shards. The
    /// graph's kind governs update semantics: on an undirected graph
    /// every insert/delete is applied to both arcs atomically within one
    /// epoch.
    pub fn new(initial: Graph, config: ServiceConfig) -> Result<Self, ServiceError> {
        let capacity = config.queue_capacity.max(2);
        let max_batch = config.max_batch.max(1);
        let kind = initial.kind();
        let nvertices = initial.nvertices();
        let partitioner: Arc<dyn Partitioner> = match &config.partitioner {
            Some(p) => p.clone(),
            None => Arc::new(RowBlock::new(nvertices, config.shards.max(1))),
        };
        let shards = partitioner.shards();
        if shards == 0 {
            return Err(ServiceError::Graph(GrbError::invalid(format!(
                "partitioner {} routes across 0 shards",
                partitioner.name()
            ))));
        }
        let compressed = config.compressed;
        let views_cfg = config.views.clone().unwrap_or_default();
        let shared = Arc::new(Shared {
            shards: (0..shards)
                .map(|_| Shard { queue: Mutex::new(VecDeque::new()), not_full: Condvar::new() })
                .collect(),
            capacity,
            policy: config.policy,
            kind,
            nvertices,
            partitioner,
            snapshot: RwLock::new(Arc::new(Snapshot::new(Arc::new(initial), Vec::new()))),
            submitted: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            failed_flag: AtomicBool::new(false),
            failed: Mutex::new(None),
            state: Mutex::new(DrainState::default()),
            work: Condvar::new(),
            published: Condvar::new(),
            metrics: ServiceMetrics::new(shards, config.policy),
            views: Arc::new(views::ViewEngine::new(kind, &views_cfg)),
            retired: parking_lot::Mutex::new(None),
        });
        // Resident bytes of the *served* snapshot, sampled at scrape
        // time through a weak handle so a dropped service stops
        // reporting instead of keeping itself alive.
        {
            let weak = Arc::downgrade(&shared);
            metrics::gauge_fn(
                "lagraph_service_resident_bytes",
                "Resident bytes of service-owned graph objects.",
                &[("object", "snapshot")],
                move || weak.upgrade().map(|s| s.snapshot.read().graph.resident_bytes() as f64),
            );
        }
        let coordinator = {
            let shared = shared.clone();
            let fail_epoch = config.fail_epoch;
            std::thread::Builder::new()
                .name("lagraph-service-drain".into())
                .spawn(move || {
                    drainer::coordinator_loop(&shared, max_batch, compressed, fail_epoch)
                })
                .map_err(|e| {
                    ServiceError::Graph(GrbError::invalid(format!(
                        "failed to spawn service thread: {e}"
                    )))
                })?
        };
        let admission = Arc::new(Admission::new(config.admission));
        let service = GraphService { shared, admission, coordinator: Some(coordinator) };
        if let Some(vcfg) = &config.views {
            for &k in &vcfg.views {
                if let Err(e) = service.register_view(k) {
                    trace::warn_once(
                        "service.views",
                        &format!("skipping configured view {}: {e}", k.name()),
                    );
                }
            }
        }
        Ok(service)
    }

    /// The currently served snapshot. Lock-light: one read-lock
    /// acquisition and an `Arc` clone; the returned snapshot stays valid
    /// (and unchanged) however long the query runs.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared.snapshot.read().clone()
    }

    /// Run one query through the admission layer: cache lookup, batch
    /// formation for batchable algorithms (concurrent BFS-level queries
    /// fold into one multi-source traversal), in-flight deduplication
    /// for the rest. Errors with [`ServiceError::DrainerFailed`] once
    /// the service has failed — never hangs.
    pub fn query(&self, query: Query) -> Result<QueryResult, ServiceError> {
        self.admission.query(&self.shared, query)
    }

    /// Run a batch of queries as one deterministic admission batch
    /// against a single snapshot: all BFS-level queries execute as one
    /// multi-source traversal, and every result is answered at the same
    /// epoch. Results come back in input order. See [`Query`] for an
    /// example.
    pub fn query_many(&self, queries: &[Query]) -> Result<Vec<QueryResult>, ServiceError> {
        self.admission.query_many(&self.shared, queries)
    }

    /// Counters from the admission layer (batches formed, cache
    /// hits/misses). Per-service, unlike the process-global metrics.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    /// Register one analytic view: compute its answer on the served
    /// snapshot and pin it there, so matching [`query`](GraphService::query)
    /// calls are answered from it at once; every later snapshot is
    /// published with the answer repaired from its predecessor's. Errors if the view is undefined for the graph's kind
    /// (e.g. [`ViewKind::TriangleCount`] on a directed graph);
    /// re-registering is a no-op. See [`views`] for the machinery.
    pub fn register_view(&self, kind: ViewKind) -> Result<(), ServiceError> {
        self.shared.views.register(kind, &self.shared.snapshot)
    }

    /// Per-view repair/rebuild/served counters for every registered
    /// view. Per-service, unlike the process-global
    /// `lagraph_service_view_*` metric series.
    pub fn view_stats(&self) -> Vec<ViewStat> {
        self.shared.views.stats()
    }

    /// Submit one update. Visibility is *eventual*: the update is
    /// queued on its shard and published in a subsequent epoch ([`flush`]
    /// forces that and waits). On undirected graphs the update is stored
    /// once in canonical arc order and the coordinator writes *both* arcs
    /// inside the same epoch, so a snapshot never shows half an
    /// undirected edge. Errors with [`ServiceError::Graph`] if an
    /// endpoint is out of range or the partitioner routes the edge past
    /// its last shard.
    ///
    /// [`flush`]: GraphService::flush
    pub fn submit(&self, update: Update) -> Result<(), ServiceError> {
        if let Some(err) = self.shared.failure() {
            return Err(err);
        }
        if self.shared.shutting_down.load(SeqCst) {
            return Err(ServiceError::ShutDown);
        }
        let (i, j) = update.key();
        let n = self.shared.nvertices;
        if i >= n || j >= n {
            return Err(ServiceError::Graph(GrbError::oob(i.max(j), n)));
        }
        // Undirected graphs store one canonical arc per edge; the
        // coordinator mirrors it when it nets the shard's slice. This makes
        // pair atomicity structural: there is no second queue entry a batch
        // boundary could split off.
        let update = if self.shared.kind == GraphKind::Undirected && i > j {
            match update {
                Update::Insert(i, j, w) => Update::Insert(j, i, w),
                Update::Delete(i, j) => Update::Delete(j, i),
            }
        } else {
            update
        };
        let key = update.key();
        // Pure-function routing: every update to one edge goes through
        // one shard, so per-edge order is preserved at any shard count.
        let si = self.shared.partitioner.shard_of(key.0, key.1);
        let Some(shard) = self.shared.shards.get(si) else {
            return Err(ServiceError::Graph(GrbError::invalid(format!(
                "partitioner {} routed edge ({}, {}) to shard {si} of {}",
                self.shared.partitioner.name(),
                key.0,
                key.1,
                self.shared.shards.len()
            ))));
        };
        let mut q = shard.queue.lock().expect("shard lock");
        let mut hit_backpressure = false;
        while q.len() >= self.shared.capacity {
            if !hit_backpressure {
                hit_backpressure = true;
                self.shared.metrics.backpressure.inc();
            }
            match self.shared.policy {
                BackpressurePolicy::Reject => {
                    self.shared.rejected.fetch_add(1, SeqCst);
                    self.shared.metrics.rejected.inc();
                    let depth = self.shared.depth();
                    trace::service_instant("service.reject", vec![("depth", ArgValue::U64(depth))]);
                    return Err(ServiceError::Backpressure { depth });
                }
                BackpressurePolicy::Coalesce => {
                    if let Some(slot) = q.iter_mut().find(|u| u.key() == key) {
                        *slot = update;
                        self.shared.coalesced.fetch_add(1, SeqCst);
                        self.shared.metrics.coalesced.inc();
                        return Ok(());
                    }
                    q = self.block_until_room(shard, q);
                }
                BackpressurePolicy::Block => q = self.block_until_room(shard, q),
            }
            if let Some(err) = self.shared.failure() {
                return Err(err);
            }
            if self.shared.shutting_down.load(SeqCst) {
                return Err(ServiceError::ShutDown);
            }
        }
        q.push_back(update);
        self.shared.metrics.queue_depth[si].set(q.len() as f64);
        drop(q);
        self.shared.submitted.fetch_add(1, SeqCst);
        self.shared.metrics.submitted.inc();
        self.shared.work.notify_one();
        Ok(())
    }

    /// Wait (with a wakeup-loss-proof timeout loop) for the drainer to
    /// free room in the shard's queue. Returns with the lock held; the
    /// caller re-checks capacity and shutdown.
    fn block_until_room<'a>(
        &self,
        shard: &'a Shard,
        mut q: std::sync::MutexGuard<'a, VecDeque<Update>>,
    ) -> std::sync::MutexGuard<'a, VecDeque<Update>> {
        self.shared.work.notify_one();
        while q.len() >= self.shared.capacity && !self.shared.shutting_down.load(SeqCst) {
            let (guard, _) =
                shard.not_full.wait_timeout(q, Duration::from_millis(5)).expect("shard lock");
            q = guard;
        }
        q
    }

    /// Insert (or re-weight) an edge. Undirected graphs mirror it.
    pub fn insert_edge(&self, i: Index, j: Index, weight: f64) -> Result<(), ServiceError> {
        self.submit(Update::Insert(i, j, weight))
    }

    /// Delete an edge (no-op if absent). Undirected graphs mirror it.
    pub fn delete_edge(&self, i: Index, j: Index) -> Result<(), ServiceError> {
        self.submit(Update::Delete(i, j))
    }

    /// Block until every update accepted before this call is visible in
    /// the served snapshot, and return that snapshot. Errors instead of
    /// hanging if the service shuts down or an epoch fails while
    /// waiting.
    pub fn flush(&self) -> Result<Arc<Snapshot>, ServiceError> {
        if let Some(err) = self.shared.failure() {
            return Err(err);
        }
        if self.shared.shutting_down.load(SeqCst) {
            return Err(ServiceError::ShutDown);
        }
        let target = self.shared.submitted.load(SeqCst);
        let mut state = self.shared.state.lock().expect("state lock");
        while self.shared.processed.load(SeqCst) < target {
            if let Some(err) = self.shared.failure() {
                return Err(err);
            }
            if state.shutdown {
                return Err(ServiceError::ShutDown);
            }
            self.shared.work.notify_one();
            let (guard, _) = self
                .shared
                .published
                .wait_timeout(state, Duration::from_millis(5))
                .expect("state lock");
            state = guard;
        }
        drop(state);
        Ok(self.snapshot())
    }

    /// Current counters. All values are monotone except `queue_depth`
    /// (`submitted − processed`).
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            epoch: self.snapshot().epoch(),
            queue_depth: self.shared.depth(),
            submitted: self.shared.submitted.load(SeqCst),
            processed: self.shared.processed.load(SeqCst),
            coalesced: self.shared.coalesced.load(SeqCst),
            rejected: self.shared.rejected.load(SeqCst),
        }
    }

    /// Stop accepting updates, drain what was already accepted into a
    /// final epoch, and join the coordinator, the one drain thread.
    /// Called automatically on drop; explicit calls get the final
    /// snapshot back.
    pub fn shutdown(&mut self) -> Arc<Snapshot> {
        self.shared.shutting_down.store(true, SeqCst);
        {
            let mut state = self.shared.state.lock().expect("state lock");
            state.shutdown = true;
        }
        self.shared.work.notify_one();
        for s in &self.shared.shards {
            s.not_full.notify_all();
        }
        if let Some(h) = self.coordinator.take() {
            let _ = h.join();
        }
        self.shared.published.notify_all();
        self.snapshot()
    }
}

impl Drop for GraphService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for GraphService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("GraphService")
            .field("epoch", &s.epoch)
            .field("queue_depth", &s.queue_depth)
            .field("nvertices", &self.shared.nvertices)
            .field("shards", &self.shared.shards.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service_with(policy: BackpressurePolicy, capacity: usize, kind: GraphKind) -> GraphService {
        let g = Graph::from_edges(32, &[(0, 1), (1, 2)], kind).expect("graph");
        GraphService::new(
            g,
            ServiceConfig {
                shards: 2,
                queue_capacity: capacity,
                policy,
                max_batch: 1 << 20,
                ..ServiceConfig::default()
            },
        )
        .expect("service")
    }

    #[test]
    fn initial_snapshot_is_epoch_zero() {
        let s = service_with(BackpressurePolicy::Block, 64, GraphKind::Directed);
        let snap = s.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.nedges(), 2);
        assert_eq!(snap.graph().epoch(), 0);
    }

    #[test]
    fn flush_publishes_updates_in_one_epoch() {
        let s = service_with(BackpressurePolicy::Block, 64, GraphKind::Directed);
        s.insert_edge(5, 6, 2.0).expect("insert");
        s.insert_edge(6, 7, 3.0).expect("insert");
        s.delete_edge(0, 1).expect("delete");
        let snap = s.flush().expect("flush");
        assert!(snap.epoch() >= 1);
        assert_eq!(snap.graph().epoch(), snap.epoch());
        assert_eq!(snap.graph().a().get(5, 6), Some(2.0));
        assert_eq!(snap.graph().a().get(6, 7), Some(3.0));
        assert_eq!(snap.graph().a().get(0, 1), None);
        assert_eq!(snap.nedges(), snap.graph().a().nvals());
    }

    #[test]
    fn old_snapshot_is_isolated_from_later_epochs() {
        let s = service_with(BackpressurePolicy::Block, 64, GraphKind::Directed);
        let before = s.snapshot();
        s.insert_edge(9, 9, 1.0).expect("insert");
        let after = s.flush().expect("flush");
        assert_eq!(before.graph().a().get(9, 9), None); // frozen at epoch 0
        assert_eq!(after.graph().a().get(9, 9), Some(1.0));
        assert!(after.epoch() > before.epoch());
    }

    #[test]
    fn the_next_query_releases_the_replaced_snapshot() {
        let s = service_with(BackpressurePolicy::Block, 64, GraphKind::Directed);
        let before = Arc::downgrade(&s.snapshot());
        s.query(Query::degrees()).expect("degrees");
        s.insert_edge(9, 9, 1.0).expect("insert");
        s.flush().expect("flush");
        assert!(before.upgrade().is_some(), "held until a query releases it");
        s.query(Query::degrees()).expect("degrees");
        assert!(before.upgrade().is_none(), "released by the query");
    }

    #[test]
    fn undirected_inserts_are_mirrored_atomically() {
        let s = service_with(BackpressurePolicy::Block, 64, GraphKind::Undirected);
        s.insert_edge(3, 4, 2.5).expect("insert");
        let snap = s.flush().expect("flush");
        assert_eq!(snap.graph().a().get(3, 4), Some(2.5));
        assert_eq!(snap.graph().a().get(4, 3), Some(2.5));
        snap.graph().check().expect("still symmetric");
    }

    #[test]
    fn out_of_bounds_rejected_at_submit() {
        let s = service_with(BackpressurePolicy::Block, 64, GraphKind::Directed);
        let err = s.insert_edge(99, 0, 1.0).expect_err("oob");
        assert!(matches!(err, ServiceError::Graph(GrbError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn reject_policy_sheds_load() {
        // Stop the drainer first so the overflow is deterministic, then
        // re-open the intake: submissions beyond capacity must reject.
        let mut s = service_with(BackpressurePolicy::Reject, 2, GraphKind::Directed);
        let _ = s.shutdown();
        s.shared.shutting_down.store(false, SeqCst);
        s.shared.state.lock().expect("state").shutdown = false;
        s.insert_edge(1, 2, 0.0).expect("fits");
        s.insert_edge(1, 3, 0.0).expect("fits"); // row 1 → shard 0; capacity is per shard
        let mut rejected = 0;
        for k in 0..8 {
            if let Err(ServiceError::Backpressure { depth }) = s.insert_edge(1, 2, k as f64) {
                assert!(depth >= 2);
                rejected += 1;
            }
        }
        assert!(rejected > 0, "capacity-2 shard absorbed 8 extra updates");
        assert_eq!(s.stats().rejected, rejected);
    }

    #[test]
    fn coalesce_replaces_queued_update_when_full() {
        let mut s = service_with(BackpressurePolicy::Coalesce, 2, GraphKind::Directed);
        let _ = s.shutdown();
        s.shared.shutting_down.store(false, SeqCst);
        s.shared.state.lock().expect("state").shutdown = false;
        s.insert_edge(1, 2, 1.0).expect("fits");
        s.insert_edge(1, 2, 2.0).expect("fits"); // same key → same shard, now full
        s.insert_edge(1, 2, 9.0).expect("coalesces in place");
        let st = s.stats();
        assert_eq!(st.coalesced, 1);
        assert_eq!(st.submitted, 2); // the replacement did not grow the log
    }

    #[test]
    fn coalesced_last_write_wins_end_to_end() {
        let s = service_with(BackpressurePolicy::Coalesce, 4, GraphKind::Directed);
        s.insert_edge(2, 3, 1.0).expect("a");
        s.insert_edge(2, 3, 9.0).expect("b");
        let snap = s.flush().expect("flush");
        assert_eq!(snap.graph().a().get(2, 3), Some(9.0));
    }

    #[test]
    fn submit_after_shutdown_errors() {
        let mut s = service_with(BackpressurePolicy::Block, 64, GraphKind::Directed);
        let _ = s.shutdown();
        assert_eq!(s.insert_edge(1, 2, 1.0), Err(ServiceError::ShutDown));
    }

    #[test]
    fn stats_are_coherent_after_flush() {
        let s = service_with(BackpressurePolicy::Block, 64, GraphKind::Directed);
        for k in 0..10 {
            s.insert_edge(k, (k + 1) % 32, 1.0).expect("insert");
        }
        let _ = s.flush().expect("flush");
        let st = s.stats();
        assert_eq!(st.submitted, 10);
        assert_eq!(st.processed, 10);
        assert_eq!(st.queue_depth, 0);
        assert!(st.epoch >= 1);
    }

    #[test]
    fn grid_partitioner_serves_updates() {
        let g = Graph::from_edges(16, &[(0, 1), (1, 2)], GraphKind::Undirected).expect("graph");
        let s = GraphService::new(
            g,
            ServiceConfig {
                partitioner: Some(Arc::new(Grid2D::new(16, 2, 2))),
                ..ServiceConfig::default()
            },
        )
        .expect("service");
        s.insert_edge(14, 3, 1.0).expect("insert"); // canonical (3,14) → off-diagonal block
        s.delete_edge(0, 1).expect("delete");
        let snap = s.flush().expect("flush");
        assert_eq!(snap.graph().a().get(14, 3), Some(1.0));
        assert_eq!(snap.graph().a().get(3, 14), Some(1.0));
        assert_eq!(snap.graph().a().get(0, 1), None);
        snap.graph().check().expect("still symmetric");
    }

    #[test]
    fn drainer_panic_fails_flush_and_submit() {
        let g = Graph::from_edges(16, &[(0, 1)], GraphKind::Directed).expect("graph");
        let s = GraphService::new(
            g,
            ServiceConfig { shards: 2, fail_epoch: Some(1), ..ServiceConfig::default() },
        )
        .expect("service");
        s.insert_edge(2, 3, 1.0).expect("accepted before the failure");
        let err = s.flush().expect_err("flush must surface the failed epoch");
        assert!(matches!(err, ServiceError::DrainerFailed { shard: 0, .. }), "got {err:?}");
        // Subsequent writes and queries error instead of hanging.
        let err = s.insert_edge(4, 5, 1.0).expect_err("submit after failure");
        assert!(matches!(err, ServiceError::DrainerFailed { .. }));
        let err = s.query(Query::bfs_level(0)).expect_err("query after failure");
        assert!(matches!(err, ServiceError::DrainerFailed { .. }));
        // The pre-failure snapshot keeps serving raw reads.
        assert_eq!(s.snapshot().epoch(), 0);
    }

    #[test]
    fn query_serves_and_caches_bfs() {
        let g =
            Graph::from_edges(16, &[(0, 1), (1, 2), (2, 3)], GraphKind::Undirected).expect("graph");
        let s = GraphService::new(g, ServiceConfig::default()).expect("service");
        let r1 = s.query(Query::bfs_level(0)).expect("query");
        assert_eq!(r1.levels().expect("levels").get(3), Some(4));
        let r2 = s.query(Query::bfs_level(0)).expect("repeat");
        assert_eq!(r2.levels().expect("levels").get(3), Some(4));
        let st = s.admission_stats();
        assert_eq!(st.queries, 2);
        assert_eq!(st.cache_hits, 1, "repeat within the epoch must hit the cache");
    }
}
