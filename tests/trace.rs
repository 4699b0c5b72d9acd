//! Integration tests for the runtime tracing layer: zero events when
//! tracing is off, well-formed span nesting under a multi-threaded pool,
//! and Chrome trace-event JSON that round-trips through a real JSON
//! parser (`lagraph_bench::json`, the workspace's one — it deliberately
//! has no serde).
//!
//! Trace mode and the ring buffer are process-wide, so every test takes
//! `GLOBALS` and leaves tracing off with the ring empty.

use graphblas::parallel::{set_par_threshold, set_threads};
use graphblas::trace;
use lagraph_bench::json::{parse as parse_json, Value as Json};
use lagraph_suite::prelude::*;
use std::sync::Mutex;

static GLOBALS: Mutex<()> = Mutex::new(());

fn test_graph() -> Graph {
    // Two hubs plus a long path: several BFS waves with varying widths.
    let mut edges: Vec<(Index, Index)> = (0..63).map(|i| (i, i + 1)).collect();
    for v in 1..32 {
        edges.push((0, v * 2));
    }
    Graph::from_edges(64, &edges, GraphKind::Undirected).expect("graph")
}

#[test]
fn tracing_off_records_no_events() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    trace::disable();
    trace::clear();
    let g = test_graph();
    let levels = bfs_level(&g, 0).expect("bfs");
    assert_eq!(levels.nvals(), 64);
    let events = trace::drain();
    assert!(events.is_empty(), "tracing off must record nothing, got {} events", events.len());
    assert_eq!(trace::dropped(), 0);
}

#[test]
fn span_nesting_is_well_formed_under_8_threads() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    set_par_threshold(1); // force the chunked code paths even at n = 64
    set_threads(8);
    trace::clear();
    trace::enable();
    let g = test_graph();
    let levels = bfs_level(&g, 0).expect("bfs");
    trace::disable();
    set_threads(0);
    set_par_threshold(0);
    let events = trace::drain();
    assert_eq!(levels.nvals(), 64);
    assert!(events.iter().any(|e| e.name == "bfs.level"), "missing algorithm span");
    assert!(events.iter().any(|e| e.name == "bfs.iter"), "missing iteration spans");
    assert!(
        events.iter().filter(|e| e.name == "chunk").map(|e| e.tid).any(|t| t != 0),
        "8-thread pool should have traced chunk spans off the main thread"
    );
    assert_nested_per_thread(&events);
}

/// Spans opened and closed on one thread are RAII-scoped, so per thread
/// any two recorded intervals must be disjoint or contained — never
/// partially overlapping. A small slack absorbs clock truncation and the
/// `max(1)` floor on durations.
fn assert_nested_per_thread(events: &[trace::Event]) {
    const SLACK: u64 = 1_000; // ns
    let mut by_tid: std::collections::BTreeMap<u64, Vec<(u64, u64, &str)>> = Default::default();
    for e in events.iter().filter(|e| e.dur_ns > 0) {
        by_tid.entry(e.tid).or_default().push((e.t0_ns, e.t0_ns + e.dur_ns, e.name));
    }
    for (tid, mut spans) in by_tid {
        spans.sort_by_key(|&(s, e, _)| (s, std::cmp::Reverse(e)));
        let mut stack: Vec<(u64, u64, &str)> = Vec::new();
        for (s, e, name) in spans {
            while let Some(&(_, pe, _)) = stack.last() {
                if pe <= s + SLACK {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(ps, pe, pname)) = stack.last() {
                assert!(
                    e <= pe + SLACK,
                    "span {name} [{s}, {e}) on t{tid} partially overlaps {pname} [{ps}, {pe})"
                );
            }
            stack.push((s, e, name));
        }
    }
}

#[test]
fn chrome_trace_round_trips_through_a_json_parser() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    trace::clear();
    trace::enable();
    let g = test_graph();
    bfs_level(&g, 0).expect("bfs");
    trace::disable();
    let events = trace::drain();
    assert!(!events.is_empty());

    let json = trace::chrome_trace(&events);
    let doc = parse_json(&json).expect("chrome trace output must be valid JSON");

    assert_eq!(doc.get("displayTimeUnit").and_then(Json::as_str), Some("ms"));
    let list = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    assert_eq!(list.len(), events.len(), "one JSON record per drained event");

    // The exporter emits events in start order; mirror that and compare
    // each record with its source event.
    let mut sorted: Vec<&trace::Event> = events.iter().collect();
    sorted.sort_by_key(|e| e.t0_ns);
    for (src, rec) in sorted.iter().zip(list) {
        assert_eq!(rec.get("name").and_then(Json::as_str), Some(src.name));
        assert_eq!(rec.get("tid").and_then(Json::as_f64), Some(src.tid as f64));
        let ph = rec.get("ph").and_then(Json::as_str).expect("ph");
        assert_eq!(ph, if src.dur_ns > 0 { "X" } else { "i" });
        let args = rec.get("args").expect("args object");
        if let Some(k) = src.kernel {
            assert_eq!(args.get("kernel").and_then(Json::as_str), Some(k));
        }
        for (key, val) in &src.args {
            match val {
                trace::ArgValue::U64(n) => {
                    assert_eq!(args.get(key).and_then(Json::as_f64), Some(*n as f64), "arg {key}")
                }
                trace::ArgValue::F64(x) if x.is_finite() => {
                    assert_eq!(args.get(key).and_then(Json::as_f64), Some(*x), "arg {key}")
                }
                trace::ArgValue::F64(_) => assert_eq!(args.get(key), Some(&Json::Null)),
                trace::ArgValue::Str(s) => {
                    assert_eq!(args.get(key).and_then(Json::as_str), Some(*s), "arg {key}")
                }
            }
        }
    }

    // The BFS frontier expansions must be visible as mxv spans carrying
    // the frontier size.
    let mxv: Vec<_> =
        list.iter().filter(|r| r.get("name").and_then(Json::as_str) == Some("mxv")).collect();
    assert!(!mxv.is_empty(), "no mxv spans in the trace");
    for r in &mxv {
        let args = r.get("args").expect("args");
        assert!(args.get("u_nnz").and_then(Json::as_f64).is_some(), "mxv span lacks frontier nnz");
        let kernel = args.get("kernel").and_then(Json::as_str).expect("mxv span lacks kernel tag");
        assert!(kernel.starts_with("push") || kernel.starts_with("pull"), "kernel = {kernel}");
    }
}

/// String args can carry arbitrary content; both exporters must escape
/// it. The Chrome trace must round-trip a hostile value byte-for-byte
/// through the JSON parser, and the burble line must quote it
/// without leaking raw control characters into the one-line format.
#[test]
fn hostile_string_args_are_escaped_by_both_exporters() {
    const HOSTILE: &str = "he said \"hi\\there\"\n\tand\r\u{1}left";
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    trace::clear();
    trace::enable();
    trace::service_instant("hostile", vec![("msg", trace::ArgValue::Str(HOSTILE))]);
    trace::disable();
    let events = trace::drain();
    assert_eq!(events.len(), 1);

    let json = trace::chrome_trace(&events);
    let doc = parse_json(&json).expect("hostile args must still be valid JSON");
    let rec = &doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents")[0];
    assert_eq!(
        rec.get("args").and_then(|a| a.get("msg")).and_then(Json::as_str),
        Some(HOSTILE),
        "Str arg must round-trip exactly"
    );

    let line = trace::burble_line(&events[0]);
    assert!(
        !line.chars().any(|c| c.is_control()),
        "burble line leaks raw control characters: {line:?}"
    );
    assert!(line.contains(r#"msg="he said \"hi\\there\""#), "burble quoting wrong: {line}");
}

/// Filling the ring past capacity overwrites the oldest events and bumps
/// `dropped()`; `clear()` must discard the backlog **and** reset the
/// counter, so the next window starts from zero.
#[test]
fn ring_overflow_is_counted_and_clear_resets_it() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    trace::clear();
    trace::enable();
    // The capacity is fixed at first use (default 2^16); push batches
    // until the ring demonstrably wraps rather than assuming the size.
    for _ in 0..8 {
        for _ in 0..(1 << 16) {
            trace::service_instant("spam", Vec::new());
        }
        if trace::dropped() > 0 {
            break;
        }
    }
    trace::disable();
    assert!(trace::dropped() > 0, "ring never overflowed");
    trace::clear();
    assert_eq!(trace::dropped(), 0, "clear() must reset the dropped counter");
    assert!(trace::drain().is_empty(), "clear() must empty the ring");
}
