//! Differential tests for the materialized analytic views.
//!
//! The honesty property: after *every* epoch of a long churn script, a
//! view must answer exactly what a from-scratch run of its algorithm on
//! the published snapshot would — bit-for-bit for the discrete views
//! (components, degrees, triangle count, core numbers), within the
//! convergence tolerance for warm-restarted PageRank (and bit-for-bit
//! for PageRank too when `staleness = 0` forces cold rebuilds). The
//! scripts replay three workload mixes (insert-only, delete-heavy,
//! mixed) of 800 updates each across S ∈ {1, 2, 4} shards, so the
//! repair rules are exercised against both the sharded delta
//! concatenation and the single-shard baseline.

use std::collections::BTreeSet;

use lagraph::service::{
    GraphService, Query, ServiceConfig, ServiceError, Update, ViewKind, ViewsConfig,
};
use lagraph::{
    connected_components, core_numbers, pagerank, triangle_count, Graph, GraphKind,
    PageRankOptions, TriCountMethod,
};

const N: usize = 64;
const ROUNDS: usize = 8;
const PER_ROUND: usize = 100;

/// Deterministic seed graph: a ring plus chords, no self-loops.
fn seed_graph() -> Graph {
    let edges: Vec<(usize, usize)> = (0..N)
        .map(|i| (i, (i + 1) % N))
        .chain((0..N / 4).map(|i| (i, (i * 5 + 2) % N)).filter(|&(i, j)| i != j))
        .collect();
    Graph::from_edges(N, &edges, GraphKind::Undirected).expect("seed graph")
}

/// Tiny deterministic PRNG (xorshift64*).
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

#[derive(Clone, Copy)]
enum Mix {
    InsertOnly,
    DeleteHeavy,
    Mixed,
}

/// Generate a churn script for one workload mix. Deletes are drawn from
/// a tracked mirror of the live edge set so they mostly hit real edges
/// (exercising splits), with no self-loops anywhere. The script is a
/// pure function of the mix, so every shard count replays the same one.
fn script(mix: Mix) -> Vec<Vec<Update>> {
    let mut rng = Rng(0xA5A5_1234_5678_9ABC);
    let mut present: BTreeSet<(usize, usize)> = BTreeSet::new();
    for i in 0..N {
        let j = (i + 1) % N;
        present.insert((i.min(j), i.max(j)));
    }
    for i in 0..N / 4 {
        let j = (i * 5 + 2) % N;
        if i != j {
            present.insert((i.min(j), i.max(j)));
        }
    }
    let delete_cut = match mix {
        Mix::InsertOnly => 0,
        Mix::DeleteHeavy => 10,
        Mix::Mixed => 4,
    };
    (0..ROUNDS)
        .map(|_| {
            (0..PER_ROUND)
                .map(|_| {
                    if (rng.next() % 16) < delete_cut && !present.is_empty() {
                        let idx = (rng.next() as usize) % present.len();
                        let &(i, j) = present.iter().nth(idx).expect("indexed edge");
                        present.remove(&(i, j));
                        Update::Delete(i, j)
                    } else {
                        let i = (rng.next() as usize) % N;
                        let mut j = (rng.next() as usize) % N;
                        if i == j {
                            j = (j + 1) % N;
                        }
                        present.insert((i.min(j), i.max(j)));
                        Update::Insert(i, j, (rng.next() % 1000) as f64 / 8.0)
                    }
                })
                .collect()
        })
        .collect()
}

/// Compare every view against its from-scratch oracle at the service's
/// current epoch. `bitwise_pagerank` is set for `staleness = 0` runs,
/// where the view is rebuilt cold and must match the oracle exactly.
fn check_epoch(s: &GraphService, label: &str, bitwise_pagerank: bool) {
    let snap = s.snapshot();
    let g = snap.graph();
    let epoch = snap.epoch();

    let cc = s.query(Query::connected_components()).expect("cc query");
    let cc_oracle = connected_components(g).expect("cc oracle");
    assert_eq!(
        cc.components().expect("components result").extract_tuples(),
        cc_oracle.extract_tuples(),
        "{label} epoch {epoch}: connected-components view diverged from oracle"
    );

    let deg = s.query(Query::degrees()).expect("degree query");
    let deg_oracle = g.out_degree().expect("degree oracle");
    assert_eq!(
        deg.degrees().expect("degrees result").extract_tuples(),
        deg_oracle.extract_tuples(),
        "{label} epoch {epoch}: degree view diverged from oracle"
    );

    let tri = s.query(Query::triangle_count()).expect("tricount query");
    let tri_oracle = triangle_count(g, TriCountMethod::Sandia).expect("tricount oracle");
    assert_eq!(
        tri.count().expect("count result"),
        tri_oracle,
        "{label} epoch {epoch}: triangle-count view diverged from oracle"
    );

    let cores = s.query(Query::core_numbers()).expect("kcore query");
    let cores_oracle = core_numbers(g).expect("kcore oracle");
    assert_eq!(
        cores.cores().expect("cores result").extract_tuples(),
        cores_oracle.extract_tuples(),
        "{label} epoch {epoch}: core-numbers view diverged from oracle"
    );

    let opts = PageRankOptions::default();
    let pr = s.query(Query::pagerank(&opts)).expect("pagerank query");
    let (ranks, _) = pr.ranks().expect("ranks result");
    let (pr_oracle, _) = pagerank(g, &opts).expect("pagerank oracle");
    if bitwise_pagerank {
        let got: Vec<(usize, u64)> =
            ranks.extract_tuples().into_iter().map(|(i, v)| (i, v.to_bits())).collect();
        let want: Vec<(usize, u64)> =
            pr_oracle.extract_tuples().into_iter().map(|(i, v)| (i, v.to_bits())).collect();
        assert_eq!(got, want, "{label} epoch {epoch}: cold-rebuilt pagerank must be bit-identical");
    } else {
        for v in 0..N {
            let a = ranks.get(v).unwrap_or(0.0);
            let b = pr_oracle.get(v).unwrap_or(0.0);
            assert!(
                (a - b).abs() < 1e-6,
                "{label} epoch {epoch}: pagerank view diverged at vertex {v}: {a} vs {b}"
            );
        }
    }
}

fn view_service(shards: usize, staleness: usize) -> GraphService {
    GraphService::new(
        seed_graph(),
        ServiceConfig {
            shards,
            views: Some(ViewsConfig { staleness, ..ViewsConfig::default() }),
            ..ServiceConfig::default()
        },
    )
    .expect("service with views")
}

/// Replay one script, checking every epoch differentially; returns the
/// service for stats assertions.
fn run_differential(mix: Mix, shards: usize, staleness: usize, label: &str) -> GraphService {
    replay(view_service(shards, staleness), mix, label, staleness == 0)
}

fn replay(s: GraphService, mix: Mix, label: &str, bitwise_pagerank: bool) -> GraphService {
    check_epoch(&s, label, bitwise_pagerank); // registration itself, at epoch 0
    for round in script(mix) {
        for u in &round {
            s.submit(*u).expect("submit");
        }
        s.flush().expect("flush");
        check_epoch(&s, label, bitwise_pagerank);
    }
    // Every check above must have been answered by the view, not the
    // fallback kernel: 5 view-servable queries per checked epoch.
    let st = s.admission_stats();
    assert_eq!(
        st.view_hits,
        5 * (ROUNDS as u64 + 1),
        "{label}: some queries fell through to the kernel instead of the view"
    );
    s
}

fn stat_of(s: &GraphService, view: ViewKind) -> (u64, u64) {
    let st = s.view_stats().into_iter().find(|v| v.view == view).expect("registered view");
    (st.repairs, st.rebuilds)
}

#[test]
fn insert_only_views_track_oracle_and_repair() {
    for shards in [1usize, 2, 4] {
        let label = format!("insert-only S={shards}");
        let s = run_differential(Mix::InsertOnly, shards, 4096, &label);
        // Insert-only churn within budget: every epoch repairs, nothing
        // rebuilds — for every view including core numbers.
        for k in ViewKind::ALL {
            let (repairs, rebuilds) = stat_of(&s, k);
            assert!(repairs >= ROUNDS as u64, "{label}: {k:?} repaired only {repairs} epochs");
            assert_eq!(rebuilds, 0, "{label}: {k:?} fell back to rebuild on insert-only churn");
        }
    }
}

#[test]
fn delete_heavy_views_track_oracle() {
    for shards in [1usize, 2, 4] {
        let label = format!("delete-heavy S={shards}");
        let s = run_differential(Mix::DeleteHeavy, shards, 4096, &label);
        // Deletes have no local core-number rule, so that one view
        // rebuilds; everything else still repairs in place.
        for k in [ViewKind::ConnectedComponents, ViewKind::DegreeCounts, ViewKind::TriangleCount] {
            let (repairs, rebuilds) = stat_of(&s, k);
            assert!(repairs >= ROUNDS as u64, "{label}: {k:?} repaired only {repairs} epochs");
            assert_eq!(rebuilds, 0, "{label}: {k:?} rebuilt under delete-heavy churn");
        }
        let (_, kcore_rebuilds) = stat_of(&s, ViewKind::CoreNumbers);
        assert!(kcore_rebuilds >= 1, "{label}: deletes must force core-number rebuilds");
    }
}

#[test]
fn mixed_views_track_oracle() {
    for shards in [1usize, 2, 4] {
        let label = format!("mixed S={shards}");
        run_differential(Mix::Mixed, shards, 4096, &label);
    }
}

#[test]
fn mixed_views_track_oracle_over_compressed_snapshots() {
    // Every published snapshot after the first is in the compressed form,
    // so each repair reads rows the row reader decodes.
    for shards in [1usize, 2] {
        let label = format!("mixed compressed S={shards}");
        let config = ServiceConfig {
            shards,
            compressed: true,
            views: Some(ViewsConfig::default()),
            ..ServiceConfig::default()
        };
        let s = GraphService::new(seed_graph(), config).expect("service with views");
        let s = replay(s, Mix::Mixed, &label, false);
        assert!(s.snapshot().graph().a().is_compressed(), "{label}: snapshot not compressed");
    }
}

#[test]
fn degree_and_pagerank_views_add_no_copy_of_the_graph() {
    // Neither view reads adjacency beyond what its own algorithm caches
    // on the snapshot: out-degrees (O(n)) and, on a symmetric adjacency,
    // an Aᵀ that is the adjacency itself.
    let n = 512;
    let edges: Vec<(usize, usize)> =
        (0..n).flat_map(|i| (1..=16).map(move |d| (i, (i + d * 7) % n))).collect();
    let g = Graph::from_edges(n, &edges, GraphKind::Undirected).expect("graph");
    let s = GraphService::new(g, ServiceConfig::default()).expect("service");
    let before = s.snapshot().graph().resident_bytes();
    s.register_view(ViewKind::DegreeCounts).expect("degree view");
    s.register_view(ViewKind::PageRank).expect("pagerank view");
    let after = s.snapshot().graph().resident_bytes();
    let nedges = s.snapshot().graph().nedges();
    assert!(nedges >= 16 * n, "the graph must be much denser than n ({nedges} arcs)");
    assert!(
        after - before <= 32 * n,
        "registration grew the snapshot by {} bytes for {n} vertices and {nedges} arcs",
        after - before
    );
}

#[test]
fn the_degree_view_holds_no_entry_for_an_isolated_vertex() {
    let s = view_service(1, 4096);
    let v = N / 2 + 1;
    let mut neighbours = Vec::new();
    s.snapshot().graph().a().rows().for_each(v, |u| neighbours.push(u));
    assert!(!neighbours.is_empty(), "vertex {v} starts with edges");
    for u in neighbours {
        s.delete_edge(v, u).expect("delete");
    }
    let snap = s.flush().expect("flush");
    let served_before = s.admission_stats().view_hits;
    let r = s.query(Query::degrees()).expect("degree query");
    assert_eq!(s.admission_stats().view_hits, served_before + 1, "not served from the view");
    let degrees = r.degrees().expect("degrees result");
    let oracle = snap.graph().out_degree().expect("degree oracle");
    assert_eq!(degrees.get(v), None, "isolated vertex {v} has a degree entry");
    assert_eq!(degrees.nvals(), oracle.nvals());
    assert_eq!(degrees.nvals(), N - 1, "every other vertex keeps an edge");
    assert_eq!(degrees.extract_tuples(), oracle.extract_tuples());
}

#[test]
fn zero_staleness_budget_rebuilds_bit_for_bit() {
    // staleness = 0: every epoch exceeds the repair budget, so every
    // view (PageRank included) is recomputed cold — the fully
    // bit-for-bit reproducible mode.
    let s = run_differential(Mix::Mixed, 2, 0, "staleness=0 S=2");
    for k in ViewKind::ALL {
        let (repairs, rebuilds) = stat_of(&s, k);
        assert_eq!(repairs, 0, "staleness=0: {k:?} must never repair");
        assert!(rebuilds >= ROUNDS as u64, "staleness=0: {k:?} rebuilt only {rebuilds} epochs");
    }
}

#[test]
fn views_registered_mid_stream_catch_up() {
    // No views at construction; register after churn has advanced the
    // epoch, then keep churning — the views must still track the oracle.
    let s =
        GraphService::new(seed_graph(), ServiceConfig { shards: 2, ..ServiceConfig::default() })
            .expect("service");
    let rounds = script(Mix::Mixed);
    for round in &rounds[..2] {
        for u in round {
            s.submit(*u).expect("submit");
        }
        s.flush().expect("flush");
    }
    for k in ViewKind::ALL {
        s.register_view(k).expect("register mid-stream");
    }
    for round in &rounds[2..4] {
        for u in round {
            s.submit(*u).expect("submit");
        }
        s.flush().expect("flush");
        check_epoch(&s, "mid-stream registration", false);
    }
}

#[test]
fn undirected_only_views_error_on_directed_graphs() {
    let g = Graph::from_edges(16, &[(0, 1), (1, 2)], GraphKind::Directed).expect("graph");
    let s = GraphService::new(g, ServiceConfig::default()).expect("service");
    for k in [ViewKind::ConnectedComponents, ViewKind::TriangleCount, ViewKind::CoreNumbers] {
        assert!(
            matches!(s.register_view(k), Err(ServiceError::Graph(_))),
            "{k:?} must be rejected on a directed graph"
        );
    }
    s.register_view(ViewKind::PageRank).expect("pagerank is direction-agnostic");
    s.register_view(ViewKind::DegreeCounts).expect("out-degree is direction-agnostic");
    s.insert_edge(3, 4, 1.0).expect("insert");
    s.flush().expect("flush");
    let deg = s.query(Query::degrees()).expect("degree query");
    assert_eq!(
        deg.degrees().expect("degrees").extract_tuples(),
        s.snapshot().graph().out_degree().expect("oracle").extract_tuples(),
        "directed degree view diverged"
    );
    assert!(s.admission_stats().view_hits >= 1);
}

#[test]
fn views_keep_serving_last_good_epoch_after_drainer_failure() {
    let s = GraphService::new(
        seed_graph(),
        ServiceConfig {
            shards: 2,
            views: Some(ViewsConfig::default()),
            fail_epoch: Some(1),
            ..ServiceConfig::default()
        },
    )
    .expect("service");
    let pre = s.snapshot();
    let cc_before = s
        .query(Query::connected_components())
        .expect("cc at epoch 0")
        .components()
        .expect("components")
        .extract_tuples();
    s.insert_edge(1, 3, 1.0).expect("accepted before the failure");
    assert!(
        matches!(s.flush(), Err(ServiceError::DrainerFailed { .. })),
        "flush must surface the injected drainer failure"
    );
    // The snapshot froze at the last good epoch — and so did the views:
    // view-served queries keep answering (like raw snapshot reads),
    // while everything else still errors instead of hanging.
    assert_eq!(s.snapshot().epoch(), pre.epoch());
    let cc_after = s
        .query(Query::connected_components())
        .expect("view keeps serving after failure")
        .components()
        .expect("components")
        .extract_tuples();
    assert_eq!(cc_after, cc_before, "view answer changed after a failed epoch");
    assert_eq!(
        cc_after,
        connected_components(pre.graph()).expect("oracle").extract_tuples(),
        "view diverged from the last good snapshot"
    );
    assert!(matches!(s.query(Query::bfs_level(0)), Err(ServiceError::DrainerFailed { .. })));
}

#[test]
fn query_many_serves_views_after_drainer_failure_like_query() {
    let s = GraphService::new(
        seed_graph(),
        ServiceConfig {
            shards: 2,
            views: Some(ViewsConfig::default()),
            fail_epoch: Some(1),
            ..ServiceConfig::default()
        },
    )
    .expect("service");
    let alone = s.query(Query::connected_components()).expect("cc at epoch 0");
    s.insert_edge(1, 3, 1.0).expect("accepted before the failure");
    assert!(matches!(s.flush(), Err(ServiceError::DrainerFailed { .. })));
    // The same query answers alone and in a slice: both paths consult the
    // views before the failure check.
    let sliced = s
        .query_many(&[Query::connected_components(), Query::degrees()])
        .expect("a slice of view-served queries keeps answering after the failure");
    assert_eq!(
        sliced[0].components().expect("components").extract_tuples(),
        alone.components().expect("components").extract_tuples(),
    );
    assert!(sliced[1].degrees().is_some());
    // One query the views cannot answer fails the slice, as it fails alone.
    assert!(matches!(
        s.query_many(&[Query::connected_components(), Query::bfs_level(0)]),
        Err(ServiceError::DrainerFailed { .. })
    ));
}

#[test]
fn registering_kcore_and_pagerank_grows_the_snapshot_by_their_vectors() {
    let s = GraphService::new(seed_graph(), ServiceConfig::default()).expect("service");
    let g = s.snapshot().graph_arc();
    // What the two computations read besides the adjacency: the peel's
    // structure, PageRank's Aᵀ (the adjacency itself) and out-degrees.
    g.structure().expect("structure");
    g.at().expect("at");
    g.out_degree().expect("out_degree");
    let before = g.resident_bytes();
    s.register_view(ViewKind::CoreNumbers).expect("kcore view");
    s.register_view(ViewKind::PageRank).expect("pagerank view");
    let cores = s.query(Query::core_numbers()).expect("cores");
    let ranks = s.query(Query::pagerank(&PageRankOptions::default())).expect("ranks");
    let held = cores.cores().expect("cores").memory_usage().total()
        + ranks.ranks().expect("ranks").0.memory_usage().total();
    assert!(held > 0);
    assert_eq!(g.resident_bytes(), before + held, "the snapshot holds exactly the two vectors");
    assert_eq!(s.admission_stats().view_hits, 2, "both answered by the views");
}
