//! Integration tests for the sharded serving layer.
//!
//! The load-bearing property is *shard transparency*: because every
//! edge is routed to exactly one shard by a pure function of its
//! canonical key, replaying one update log across S ∈ {1, 2, 4} shards
//! (under any partitioner) must produce **bit-identical** published
//! matrices — and therefore bit-identical query results — with the
//! single-shard service as the oracle. On top of that sit the admission
//! guarantees: a k-wide batched multi-source BFS answers exactly like k
//! individual traversals, cached results never cross epochs and stay
//! within the snapshot's capacity, a query repeated in one slice runs
//! once, and a failed epoch or a partitioner that breaks its contract
//! turns into errors, not hangs or panics.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use lagraph::service::{
    AdmissionConfig, BackpressurePolicy, EdgeHash, GraphService, Grid2D, Partitioner, Query,
    QueryResult, ServiceConfig, ServiceError, Update, ViewKind, ViewsConfig,
};
use lagraph::{bfs_level, Graph, GraphKind, PageRankOptions};

const N: usize = 96;

/// Deterministic seed graph spanning all row/column blocks.
fn seed(kind: GraphKind) -> Graph {
    let edges: Vec<(usize, usize)> =
        (0..N).map(|i| (i, (i + 1) % N)).chain((0..N / 3).map(|i| (i, (i * 7 + 3) % N))).collect();
    Graph::from_edges(N, &edges, kind).expect("seed graph")
}

/// Tiny deterministic PRNG (xorshift64*) so every service replays the
/// *same* churn script.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A churn script: rounds of mixed inserts/deletes (self loops, repeated
/// edges, weight overwrites included), flushed between rounds.
fn churn_script(rounds: usize, per_round: usize) -> Vec<Vec<Update>> {
    let mut rng = Rng(0x9E37_79B9);
    (0..rounds)
        .map(|_| {
            (0..per_round)
                .map(|_| {
                    let i = (rng.next() % N as u64) as usize;
                    let j = (rng.next() % N as u64) as usize;
                    if rng.next().is_multiple_of(4) {
                        Update::Delete(i, j)
                    } else {
                        Update::Insert(i, j, (rng.next() % 1000) as f64 / 8.0)
                    }
                })
                .collect()
        })
        .collect()
}

/// The final published matrix as exact-bit tuples plus a BFS answer
/// through admission.
type ChurnResult = (Vec<(usize, usize, u64)>, Vec<(usize, i32)>);

/// Replay the script through a service and return what it published.
fn run_churn(
    kind: GraphKind,
    shards: usize,
    partitioner: Option<Arc<dyn Partitioner>>,
) -> ChurnResult {
    let s = GraphService::new(
        seed(kind),
        ServiceConfig { shards, partitioner, ..ServiceConfig::default() },
    )
    .expect("service");
    for round in churn_script(4, 200) {
        for u in &round {
            s.submit(*u).expect("submit");
        }
        s.flush().expect("flush");
    }
    let snap = s.flush().expect("final flush");
    let tuples = snap
        .graph()
        .a()
        .extract_tuples()
        .into_iter()
        .map(|(i, j, v)| (i, j, v.to_bits()))
        .collect();
    let levels =
        s.query(Query::bfs_level(0)).expect("query").levels().expect("bfs result").extract_tuples();
    (tuples, levels)
}

#[test]
fn shard_counts_are_bit_identical_to_single_shard_oracle() {
    for kind in [GraphKind::Directed, GraphKind::Undirected] {
        let oracle = run_churn(kind, 1, None);
        for shards in [2usize, 4] {
            let got = run_churn(kind, shards, None);
            assert_eq!(
                got.0, oracle.0,
                "{kind:?} S={shards} row-block: published matrix diverged from S=1 oracle"
            );
            assert_eq!(got.1, oracle.1, "{kind:?} S={shards}: BFS answer diverged");
        }
        // Partitioner choice is a routing policy, not a semantics knob.
        let grid: Option<Arc<dyn Partitioner>> = Some(Arc::new(Grid2D::new(N, 2, 2)));
        let got = run_churn(kind, 4, grid);
        assert_eq!(got.0, oracle.0, "{kind:?} Grid2D 2x2 diverged from S=1 oracle");
        let hashed: Option<Arc<dyn Partitioner>> = Some(Arc::new(EdgeHash::new(3)));
        let got = run_churn(kind, 3, hashed);
        assert_eq!(got.0, oracle.0, "{kind:?} EdgeHash(3) diverged from S=1 oracle");
    }
}

#[test]
fn batched_multi_source_bfs_matches_individual_queries() {
    let s = GraphService::new(
        seed(GraphKind::Undirected),
        ServiceConfig { shards: 4, ..ServiceConfig::default() },
    )
    .expect("service");
    // Duplicates included: they must share one traversal and one answer.
    let sources = [0usize, 5, 17, 5, 63, 95, 31, 0];
    let queries: Vec<Query> = sources.iter().map(|&k| Query::bfs_level(k)).collect();
    let batched = s.query_many(&queries).expect("batched queries");
    assert_eq!(batched.len(), sources.len());
    let snap = s.snapshot();
    for (&src, result) in sources.iter().zip(&batched) {
        let single = bfs_level(snap.graph(), src).expect("single-source oracle");
        assert_eq!(
            result.levels().expect("bfs result").extract_tuples(),
            single.extract_tuples(),
            "batched BFS from {src} diverged from the single-source run"
        );
    }
    let st = s.admission_stats();
    assert!(st.batches >= 1, "query_many must execute as a batch");
    assert!(
        st.batched_queries >= 6,
        "six unique sources should have been answered by a width ≥ 2 batch, got {st:?}"
    );
}

#[test]
fn concurrent_bfs_queries_are_correct_under_batching() {
    let s = GraphService::new(
        seed(GraphKind::Undirected),
        ServiceConfig { shards: 2, ..ServiceConfig::default() },
    )
    .expect("service");
    let oracle_snap = s.snapshot();
    let sources: Vec<usize> = (0..8).map(|k| k * 11 % N).collect();
    let results: Vec<(usize, Vec<(usize, i32)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .iter()
            .map(|&src| {
                let s = &s;
                scope.spawn(move || {
                    let r = s.query(Query::bfs_level(src)).expect("concurrent query");
                    (src, r.levels().expect("bfs result").extract_tuples())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("query thread")).collect()
    });
    for (src, got) in results {
        let single = bfs_level(oracle_snap.graph(), src).expect("oracle");
        assert_eq!(got, single.extract_tuples(), "concurrent query from {src} diverged");
    }
    let st = s.admission_stats();
    assert_eq!(st.queries, sources.len() as u64);
    assert_eq!(
        st.cache_hits + st.cache_misses,
        st.queries,
        "a query neither hit nor missed: {st:?}"
    );
}

#[test]
fn a_lone_client_never_waits_out_the_batch_window() {
    // The window is an upper bound on waiting for queries in flight; one
    // client has nobody to wait for. Sleeping it out would cost 20 × 50 ms.
    let admission =
        AdmissionConfig { batch_window: Duration::from_millis(50), ..AdmissionConfig::default() };
    let s = GraphService::new(
        seed(GraphKind::Undirected),
        ServiceConfig { admission, ..ServiceConfig::default() },
    )
    .expect("service");
    let t0 = Instant::now();
    for src in 0..20 {
        let r = s.query(Query::bfs_level(src)).expect("query");
        assert_eq!(r.levels().expect("levels").get(src), Some(1));
    }
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(500), "20 sequential BFS queries took {took:?}");
    let st = s.admission_stats();
    assert_eq!((st.batches, st.batched_queries), (20, 0), "each ran alone: {st:?}");
}

#[test]
fn cached_results_never_cross_epochs() {
    // Path 0-1-2-3: vertex 3 sits at BFS depth 4 from vertex 0.
    let g =
        Graph::from_edges(8, &[(0, 1), (1, 2), (2, 3)], GraphKind::Undirected).expect("path graph");
    let s = GraphService::new(g, ServiceConfig::default()).expect("service");

    let r1 = s.query(Query::bfs_level(0)).expect("first query");
    assert_eq!(r1.levels().expect("levels").get(3), Some(4));
    let r2 = s.query(Query::bfs_level(0)).expect("repeat query");
    assert_eq!(r2.levels().expect("levels").get(3), Some(4));
    let st = s.admission_stats();
    assert_eq!((st.cache_hits, st.cache_misses), (1, 1), "repeat within epoch must be a hit");

    // Shortcut edge changes the answer; the epoch turn must invalidate.
    s.insert_edge(0, 3, 1.0).expect("insert");
    let snap = s.flush().expect("flush");
    assert!(snap.epoch() >= 1);
    let r3 = s.query(Query::bfs_level(0)).expect("post-epoch query");
    assert_eq!(
        r3.levels().expect("levels").get(3),
        Some(2),
        "stale cached result served across an epoch boundary"
    );
    let st = s.admission_stats();
    assert_eq!(st.cache_hits, 1, "post-epoch query must not hit the old epoch's cache");
    assert_eq!(st.cache_misses, 2);
}

#[test]
fn non_bfs_queries_cache_and_answer() {
    let s = GraphService::new(
        seed(GraphKind::Undirected),
        ServiceConfig { shards: 2, ..ServiceConfig::default() },
    )
    .expect("service");
    let opts = PageRankOptions::default();
    let r1 = s.query(Query::pagerank(&opts)).expect("pagerank");
    let (ranks, iters) = r1.ranks().expect("ranks result");
    assert!(iters >= 1);
    assert!((ranks.extract_tuples().iter().map(|&(_, v)| v).sum::<f64>() - 1.0).abs() < 1e-6);
    let r2 = s.query(Query::pagerank(&opts)).expect("pagerank repeat");
    assert!(r2.ranks().is_some());
    let tri = s.query(Query::triangle_count()).expect("triangles");
    assert!(tri.count().is_some());
    let st = s.admission_stats();
    assert!(st.cache_hits >= 1, "identical pagerank options must share a cache entry");
}

#[test]
fn a_snapshot_keeps_its_executed_answers_first_in_first_out() {
    let admission = AdmissionConfig { cache_capacity: 2, ..AdmissionConfig::default() };
    let s = GraphService::new(
        seed(GraphKind::Undirected),
        ServiceConfig { admission, ..ServiceConfig::default() },
    )
    .expect("service");
    for src in 0..3 {
        s.query(Query::bfs_level(src)).expect("miss");
    }
    let hit = |src| {
        let before = s.admission_stats().cache_hits;
        s.query(Query::bfs_level(src)).expect("query");
        s.admission_stats().cache_hits - before
    };
    // A hit does not reorder the entries; the third answer evicted the first.
    assert_eq!(hit(2), 1, "the newest answer must be kept");
    assert_eq!(hit(1), 1, "the second answer must be kept");
    assert_eq!(hit(0), 0, "the oldest answer must be evicted");
}

#[test]
fn zero_cache_capacity_keeps_only_the_view_answers() {
    let admission = AdmissionConfig { cache_capacity: 0, ..AdmissionConfig::default() };
    let views = ViewsConfig { views: vec![ViewKind::TriangleCount], ..ViewsConfig::default() };
    let s = GraphService::new(
        seed(GraphKind::Undirected),
        ServiceConfig { admission, views: Some(views), ..ServiceConfig::default() },
    )
    .expect("service");
    for _ in 0..2 {
        s.query(Query::bfs_level(0)).expect("bfs");
        s.query(Query::core_numbers()).expect("core numbers");
        s.query(Query::triangle_count()).expect("triangle count");
    }
    let st = s.admission_stats();
    assert_eq!((st.cache_hits, st.cache_misses), (0, 4), "nothing executed may be kept: {st:?}");
    assert_eq!(st.view_hits, 2, "the registered view still answers: {st:?}");
}

#[test]
fn the_pagerank_view_answers_only_at_its_own_options() {
    let opts = PageRankOptions { tolerance: 0.0, max_iters: 20, ..PageRankOptions::default() };
    let views =
        ViewsConfig { views: vec![ViewKind::PageRank], pagerank: opts, ..ViewsConfig::default() };
    let s = GraphService::new(
        seed(GraphKind::Undirected),
        ServiceConfig { views: Some(views), ..ServiceConfig::default() },
    )
    .expect("service");
    let ask = |o: PageRankOptions| {
        let before = s.admission_stats();
        s.query(Query::pagerank(&o)).expect("pagerank");
        let after = s.admission_stats();
        (after.view_hits - before.view_hits, after.cache_misses - before.cache_misses)
    };
    assert_eq!(ask(opts), (1, 0), "the view's own options");
    assert_eq!(ask(PageRankOptions { tolerance: -0.0, ..opts }), (1, 0), "-0.0 is +0.0");
    assert_eq!(ask(PageRankOptions { damping: 0.5, ..opts }), (0, 1), "other options execute");
    assert_eq!(ask(PageRankOptions::default()), (0, 1), "other options execute");
}

#[test]
fn zero_max_pending_still_admits_bfs_queries() {
    for policy in [BackpressurePolicy::Block, BackpressurePolicy::Reject] {
        // A hang is the failure: the query runs on a thread under a watchdog.
        let (tx, rx) = mpsc::channel();
        let query = std::thread::spawn(move || {
            let admission = AdmissionConfig { max_pending: 0, ..AdmissionConfig::default() };
            let s = GraphService::new(
                seed(GraphKind::Undirected),
                ServiceConfig { policy, admission, ..ServiceConfig::default() },
            )
            .expect("service");
            let r = s.query(Query::bfs_level(0));
            let _ = tx.send(r.map(|r| r.levels().and_then(|l| l.get(0))));
        });
        let got = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("{policy:?}: a BFS query hung at max_pending 0"));
        query.join().expect("query thread");
        assert_eq!(got, Ok(Some(1)), "{policy:?}");
    }
}

#[test]
fn a_repeated_query_in_one_slice_runs_once() {
    let s =
        GraphService::new(seed(GraphKind::Undirected), ServiceConfig::default()).expect("service");
    let r = s.query_many(&[Query::core_numbers(), Query::core_numbers()]).expect("query_many");
    match (&r[0], &r[1]) {
        (QueryResult::Cores(a), QueryResult::Cores(b)) => {
            assert!(Arc::ptr_eq(a, b), "the repeat executed again")
        }
        other => panic!("expected two core-number results, got {other:?}"),
    }
}

#[test]
fn drainer_failure_errors_instead_of_hanging() {
    let s = GraphService::new(
        seed(GraphKind::Directed),
        ServiceConfig { shards: 4, fail_epoch: Some(1), ..ServiceConfig::default() },
    )
    .expect("service");
    let pre = s.snapshot();
    s.insert_edge(1, 2, 1.0).expect("accepted before failure");
    match s.flush() {
        Err(ServiceError::DrainerFailed { shard, message }) => {
            assert_eq!(shard, 0);
            assert!(message.contains("injected"), "panic message lost: {message}");
        }
        other => panic!("flush must report the drainer failure, got {other:?}"),
    }
    assert!(matches!(s.insert_edge(3, 4, 1.0), Err(ServiceError::DrainerFailed { .. })));
    assert!(matches!(s.query(Query::bfs_level(0)), Err(ServiceError::DrainerFailed { .. })));
    assert!(matches!(
        s.query_many(&[Query::bfs_level(0)]),
        Err(ServiceError::DrainerFailed { .. })
    ));
    // The last good snapshot keeps serving raw reads for draining.
    let snap = s.snapshot();
    assert_eq!(snap.epoch(), pre.epoch());
    bfs_level(snap.graph(), 0).expect("raw reads still work");
}

/// A partitioner that breaks its contract: it routes every edge out of
/// row 0 to shard `shards`, one past the last.
#[derive(Debug)]
struct OutOfRange {
    shards: usize,
}

impl Partitioner for OutOfRange {
    fn shards(&self) -> usize {
        self.shards
    }

    fn shard_of(&self, row: usize, _col: usize) -> usize {
        if row == 0 {
            self.shards
        } else {
            0
        }
    }

    fn name(&self) -> &'static str {
        "out-of-range"
    }
}

#[test]
fn a_partitioner_that_breaks_its_contract_is_a_typed_error() {
    let config = |shards| ServiceConfig {
        partitioner: Some(Arc::new(OutOfRange { shards }) as Arc<dyn Partitioner>),
        ..ServiceConfig::default()
    };
    assert!(matches!(
        GraphService::new(seed(GraphKind::Directed), config(0)),
        Err(ServiceError::Graph(_))
    ));
    let s = GraphService::new(seed(GraphKind::Directed), config(2)).expect("service");
    assert!(matches!(s.insert_edge(0, 5, 1.0), Err(ServiceError::Graph(_))));
    // The refused update leaves the service up: routable ones publish.
    s.insert_edge(1, 5, 1.0).expect("routable update");
    assert_eq!(s.flush().expect("flush").graph().a().get(1, 5), Some(1.0));
    assert_eq!(s.stats().submitted, 1);
}
