//! Integration tests for the sharded serving layer.
//!
//! The load-bearing property is *shard transparency*: because every
//! edge is routed to exactly one shard by a pure function of its
//! canonical key, replaying one update log across S ∈ {1, 2, 4} shards
//! (under any partitioner) must produce **bit-identical** published
//! matrices — and therefore bit-identical query results — with the
//! single-shard service as the oracle. On top of that sit the admission
//! guarantees: a k-wide batched multi-source BFS answers exactly like k
//! individual traversals, cached results never cross epochs, and a
//! failed shard drainer turns into errors, not hangs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lagraph::service::{
    AdmissionConfig, EdgeHash, GraphService, Grid2D, Partitioner, Query, ServiceConfig,
    ServiceError, Update,
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
