//! Integration tests for the service layer's SLO instrumentation: a
//! churning `GraphService` must surface queue depth, update/backpressure
//! counters, epoch progress, and resident-bytes gauges through
//! `graphblas::metrics`, and algorithm queries against its snapshots must
//! feed the per-algorithm latency histograms.
//!
//! The registry is process-wide and these series are shared by every
//! service, so the tests live in their own binary, serialize on
//! `GLOBALS`, and assert on snapshot deltas.

use graphblas::metrics;
use lagraph::service::{
    BackpressurePolicy, GraphService, Query, ServiceConfig, ViewKind, ViewsConfig,
};
use lagraph::{bfs_level, Graph, GraphKind};
use std::sync::Mutex;

static GLOBALS: Mutex<()> = Mutex::new(());

fn ring(n: usize) -> Graph {
    let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    Graph::from_edges(n, &edges, GraphKind::Directed).expect("ring graph")
}

/// `metrics::snapshot()` as a map, for delta assertions.
fn snap() -> std::collections::BTreeMap<String, f64> {
    metrics::snapshot().into_iter().collect()
}

fn delta(
    after: &std::collections::BTreeMap<String, f64>,
    before: &std::collections::BTreeMap<String, f64>,
    key: &str,
) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

#[test]
fn churning_service_populates_slo_series() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let prev = metrics::enabled();
    metrics::set_enabled(true);

    let before = snap();
    let n = 256;
    let s = GraphService::new(
        ring(n),
        ServiceConfig { shards: 4, queue_capacity: 4096, ..ServiceConfig::default() },
    )
    .expect("service");

    let mut submitted = 0u64;
    let mut last = None;
    for round in 0..3 {
        for k in 0..500usize {
            let (i, j) = ((k * 7 + round) % n, (k * 13 + 1) % n);
            if k % 9 == 0 {
                s.delete_edge(i, j).expect("delete");
            } else {
                s.insert_edge(i, j, 1.0).expect("insert");
            }
            submitted += 1;
        }
        last = Some(s.flush().expect("flush"));
    }
    let snapshot = last.expect("flushed at least once");
    bfs_level(snapshot.graph(), 0).expect("bfs");

    let after = snap();
    assert_eq!(
        delta(&after, &before, "lagraph_service_updates_total{result=\"submitted\"}"),
        submitted as f64,
        "every accepted submission must be counted"
    );
    assert_eq!(
        delta(&after, &before, "lagraph_service_updates_total{result=\"processed\"}"),
        submitted as f64,
        "after flush, every update must be processed"
    );
    assert!(
        after.get("lagraph_service_epoch").copied().unwrap_or(0.0) >= snapshot.epoch() as f64,
        "epoch gauge lags the published snapshot"
    );
    assert!(
        delta(&after, &before, "lagraph_service_epochs_total") >= 3.0,
        "three flushes must publish at least three epochs"
    );
    // The snapshot is the service's only copy of the graph (shards carry
    // deltas, not masters), and three epochs of spliced assemblies and
    // carried-forward caches must not have left it any fatter than a
    // graph built from scratch with the same property materialised.
    assert!(
        !after.contains_key("lagraph_service_resident_bytes{object=\"master\"}"),
        "there is no master any more"
    );
    let served =
        after.get("lagraph_service_resident_bytes{object=\"snapshot\"}").copied().unwrap_or(0.0);
    let fresh = Graph::new(snapshot.graph().a().clone(), GraphKind::Directed).expect("fresh");
    bfs_level(&fresh, 0).expect("bfs on the from-scratch graph");
    let fresh = fresh.resident_bytes() as f64;
    assert!(
        served > 0.0 && served <= 1.25 * fresh && fresh <= 1.25 * served,
        "snapshot resident bytes {served} not within 1.25x of a from-scratch graph's {fresh}"
    );
    assert!(
        delta(&after, &before, "graphblas_span_seconds_count{cat=\"algo\",span=\"bfs.level\"}")
            >= 1.0,
        "algorithm query did not feed the latency histogram"
    );

    // The rendered page must carry the gauges the dashboards key on.
    let page = metrics::render();
    for family in [
        "lagraph_service_queue_depth{shard=\"0\"}",
        "lagraph_service_epoch_lag_seconds",
        "lagraph_service_batch_updates_count",
        "graphblas_span_seconds_p99",
    ] {
        assert!(page.contains(family), "render() lacks {family}");
    }

    // Dropping the service must retire its snapshot resident-bytes
    // callback (Weak upgrade fails → no sample), not report stale bytes.
    drop(snapshot);
    drop(s);
    assert!(
        !snap().contains_key("lagraph_service_resident_bytes{object=\"snapshot\"}"),
        "dropped service still reports snapshot bytes"
    );

    metrics::set_enabled(prev);
}

/// A minimal Prometheus text-format lint (mirror of the exposition lint
/// in the graphblas metrics tests): legal metric names, one TYPE line
/// per family, no duplicate series.
fn lint_exposition(page: &str) -> Result<(), String> {
    let name_ok = |name: &str| {
        !name.is_empty()
            && name.chars().enumerate().all(|(k, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (k > 0 && c.is_ascii_digit())
            })
    };
    let mut types = std::collections::HashSet::new();
    let mut series = std::collections::HashSet::new();
    for line in page.lines().filter(|l| !l.trim().is_empty()) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let fam = rest.split_whitespace().next().unwrap_or("");
            if !name_ok(fam) {
                return Err(format!("bad family name in TYPE line: {line}"));
            }
            if !types.insert(fam.to_string()) {
                return Err(format!("duplicate TYPE line for {fam}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let key = line.rsplit_once(' ').map(|(k, _)| k).unwrap_or(line);
        let name = key.split('{').next().unwrap_or(key);
        if !name_ok(name) {
            return Err(format!("bad metric name: {line}"));
        }
        if !series.insert(key.to_string()) {
            return Err(format!("duplicate series: {key}"));
        }
    }
    Ok(())
}

#[test]
fn sharded_serving_series_render_clean() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let prev = metrics::enabled();
    metrics::set_enabled(true);

    let before = snap();
    let n = 128;
    let s = GraphService::new(
        ring(n),
        ServiceConfig { shards: 2, queue_capacity: 4096, ..ServiceConfig::default() },
    )
    .expect("service");
    // Rows on both halves, so both shard drainers replay updates under
    // the default row-block partitioner.
    for k in 0..64usize {
        s.insert_edge(k, (k + 3) % n, 1.0).expect("low rows");
        s.insert_edge(n - 1 - k, k, 1.0).expect("high rows");
    }
    s.flush().expect("flush");
    // Admission traffic: a miss, a hit, and a width-4 batch.
    s.query(Query::bfs_level(0)).expect("miss");
    s.query(Query::bfs_level(0)).expect("hit");
    let batch: Vec<Query> = (1..5).map(Query::bfs_level).collect();
    let before_batch = snap();
    s.query_many(&batch).expect("batched queries");

    let after = snap();
    assert_eq!(
        delta(&after, &before_batch, "lagraph_service_query_seconds_count"),
        1.0,
        "a query_many call is one observation of the latency histogram"
    );
    for shard in ["0", "1"] {
        let key = format!("lagraph_service_shard_processed_total{{shard=\"{shard}\"}}");
        assert!(
            delta(&after, &before, &key) > 0.0,
            "shard {shard} drainer processed nothing — per-shard series missing"
        );
    }
    assert!(
        delta(&after, &before, "lagraph_service_query_cache_total{result=\"hit\"}") >= 1.0,
        "cache hit not counted"
    );
    assert!(
        delta(&after, &before, "lagraph_service_query_cache_total{result=\"miss\"}") >= 5.0,
        "cache misses not counted"
    );
    assert!(
        delta(&after, &before, "lagraph_service_queries_total{algo=\"bfs_level\"}") >= 6.0,
        "per-algorithm query counter missing"
    );

    // The rendered page must carry the new sharded/admission series and
    // stay clean under the exposition lint.
    let page = metrics::render();
    for family in [
        "lagraph_service_shard_processed_total{shard=\"0\"}",
        "lagraph_service_shard_processed_total{shard=\"1\"}",
        "lagraph_service_queue_depth{shard=\"1\"}",
        "lagraph_service_batch_width_count",
        "lagraph_service_query_seconds_count",
        "lagraph_service_query_cache_total{result=\"hit\"}",
    ] {
        assert!(page.contains(family), "render() lacks {family}");
    }
    lint_exposition(&page).expect("sharded series break Prometheus exposition");

    drop(s);
    metrics::set_enabled(prev);
}

#[test]
fn view_repair_series_render_clean() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let prev = metrics::enabled();
    metrics::set_enabled(true);

    let before = snap();
    let n = 64;
    let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    let g = Graph::from_edges(n, &edges, GraphKind::Undirected).expect("undirected ring");
    let s = GraphService::new(
        g,
        ServiceConfig {
            shards: 2,
            views: Some(ViewsConfig::default()),
            ..ServiceConfig::default()
        },
    )
    .expect("service with views");
    // Insert-only churn within the default staleness budget: every view
    // repairs in place, and the served queries are answered by the views.
    for k in 0..24usize {
        s.insert_edge(k, (k + 5) % n, 1.0).expect("insert");
    }
    s.flush().expect("flush");
    s.query(Query::connected_components()).expect("cc");
    s.query(Query::degrees()).expect("degrees");
    s.query(Query::triangle_count()).expect("tricount");

    let after = snap();
    for view in ["cc", "degree", "tricount", "kcore", "pagerank"] {
        let key = format!("lagraph_service_view_refresh_total{{mode=\"repair\",view=\"{view}\"}}");
        assert!(
            delta(&after, &before, &key) >= 1.0,
            "insert-only epoch did not repair view {view} — {key} missing"
        );
        let rebuilt =
            format!("lagraph_service_view_refresh_total{{mode=\"rebuild\",view=\"{view}\"}}");
        assert_eq!(delta(&after, &before, &rebuilt), 0.0, "insert-only epoch rebuilt view {view}");
    }
    for view in ["cc", "degree", "tricount"] {
        let key = format!("lagraph_service_view_served_total{{view=\"{view}\"}}");
        assert!(delta(&after, &before, &key) >= 1.0, "view {view} served nothing — {key}");
    }
    assert!(
        delta(&after, &before, "lagraph_service_view_repair_seconds_count{view=\"cc\"}") >= 1.0,
        "repair latency histogram missing samples"
    );

    // The repair histograms publish percentile companions and the whole
    // family must render clean under the exposition lint.
    let page = metrics::render();
    for family in [
        "lagraph_service_view_refresh_total{mode=\"repair\",view=\"cc\"}",
        "lagraph_service_view_served_total{view=\"cc\"}",
        "lagraph_service_view_repair_seconds_count{view=\"cc\"}",
        "lagraph_service_view_repair_seconds_p50{view=\"cc\"}",
        "lagraph_service_view_repair_seconds_p95{view=\"cc\"}",
        "lagraph_service_view_repair_seconds_p99{view=\"cc\"}",
    ] {
        assert!(page.contains(family), "render() lacks {family}");
    }
    lint_exposition(&page).expect("view series break Prometheus exposition");

    drop(s);
    metrics::set_enabled(prev);
}

#[test]
fn an_epochs_view_work_reaches_the_span_histograms() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let prev = metrics::enabled();
    metrics::set_enabled(true);

    let before = snap();
    let n = 64;
    let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    let g = Graph::from_edges(n, &edges, GraphKind::Undirected).expect("undirected ring");
    let views = ViewsConfig {
        views: vec![ViewKind::ConnectedComponents, ViewKind::DegreeCounts],
        ..ViewsConfig::default()
    };
    let config = ServiceConfig { shards: 1, views: Some(views), ..ServiceConfig::default() };
    let s = GraphService::new(g, config).expect("service with views");
    // One epoch with an insert and a delete: both views repair, and the
    // delete runs the components search.
    s.insert_edge(0, n / 2, 1.0).expect("insert");
    s.delete_edge(1, 2).expect("delete");
    s.flush().expect("flush");

    // The coordinator may cut the two updates into one epoch or two; each
    // epoch runs one `service.views` with one `service.view` per view.
    let after = snap();
    let count = |cat: &str, span: &str| {
        let key = format!("graphblas_span_seconds_count{{cat=\"{cat}\",span=\"{span}\"}}");
        delta(&after, &before, &key)
    };
    let epochs = count("service", "service.epoch");
    assert!(epochs >= 1.0, "no epoch span recorded");
    assert_eq!(count("service", "service.views"), epochs);
    assert_eq!(count("service", "service.view"), 2.0 * epochs);
    assert_eq!(count("algo", "cc.delta"), epochs);
    lint_exposition(&metrics::render()).expect("span series break Prometheus exposition");

    drop(s);
    metrics::set_enabled(prev);
}

#[test]
fn a_registered_cc_view_and_the_carried_labels_repair_an_epoch_once() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let prev = metrics::enabled();
    metrics::set_enabled(true);

    let before = snap();
    let n = 64;
    let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    let g = Graph::from_edges(n, &edges, GraphKind::Undirected).expect("undirected ring");
    let config = ServiceConfig { shards: 1, ..ServiceConfig::default() };
    let s = GraphService::new(g, config).expect("service");
    // The query leaves labels on the snapshot; the view registers on them.
    s.query(Query::connected_components()).expect("cc");
    s.register_view(ViewKind::ConnectedComponents).expect("cc view");
    // One structural update a flush, so each flush turns one epoch: a
    // chord in, then a ring edge out.
    const EPOCHS: usize = 6;
    for k in 0..EPOCHS {
        if k % 2 == 0 {
            s.insert_edge(k, k + n / 2, 1.0).expect("insert");
        } else {
            s.delete_edge(k, k + 1).expect("delete");
        }
        s.flush().expect("flush");
    }
    let served = s.query(Query::connected_components()).expect("cc from the view");
    assert_eq!(
        served.components().expect("components").extract_tuples(),
        s.snapshot().graph().components().expect("labels").extract_tuples()
    );

    let after = snap();
    let count = |cat: &str, span: &str| {
        let key = format!("graphblas_span_seconds_count{{cat=\"{cat}\",span=\"{span}\"}}");
        delta(&after, &before, &key)
    };
    assert_eq!(count("service", "service.epoch"), EPOCHS as f64);
    assert_eq!(count("algo", "cc.delta"), EPOCHS as f64, "one repair an epoch, not one each");
    assert_eq!(count("algo", "cc.fastsv"), 1.0, "the view registered on the query's labels");

    drop(s);
    metrics::set_enabled(prev);
}

#[test]
fn reject_backpressure_is_counted_by_policy() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let prev = metrics::enabled();
    metrics::set_enabled(true);

    let before = snap();
    let s = GraphService::new(
        ring(64),
        ServiceConfig {
            shards: 1,
            queue_capacity: 8,
            policy: BackpressurePolicy::Reject,
            ..ServiceConfig::default()
        },
    )
    .expect("service");
    let mut rejected = 0u64;
    for k in 0..512usize {
        if s.insert_edge(k % 64, (k + 1) % 64, 1.0).is_err() {
            rejected += 1;
        }
    }
    assert!(rejected > 0, "tiny queue never rejected — backpressure path untested");
    let after = snap();
    assert_eq!(
        delta(&after, &before, "lagraph_service_updates_total{result=\"rejected\"}"),
        rejected as f64
    );
    assert_eq!(
        delta(&after, &before, "lagraph_service_backpressure_total{policy=\"reject\"}"),
        rejected as f64
    );
    drop(s);
    metrics::set_enabled(prev);
}
