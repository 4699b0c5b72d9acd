//! The trace layer's tests that flip process-global state — the sink
//! mask, the ring — and so need a process of their own: the mode
//! accessors, what a live span records, the one-shot warning, which sink
//! sees what (ring × metrics), and the kernel vocabulary on a real
//! compressed product. The pure tests (exporters, `Profile`, buckets,
//! the `RunAggregate` roll-up) sit beside the code in `src/trace.rs`.
//! So do the inner-loop shapes a product's span names, and the `build`
//! span an assembly records.
//!
//! Every test takes `GLOBALS` and leaves every sink off and the ring
//! empty.

use graphblas::prelude::*;
use graphblas::semiring::{LOR_LAND, MIN_SECOND, PLUS_SECOND, PLUS_TIMES};
use graphblas::trace::{self, ArgValue, Mode, RunAggregate};
use graphblas::{metrics, MxmMethod};
use std::sync::{Mutex, MutexGuard};

fn globals() -> MutexGuard<'static, ()> {
    static GLOBALS: Mutex<()> = Mutex::new(());
    GLOBALS.lock().unwrap_or_else(|p| p.into_inner())
}

/// A 64-vertex ring with a chord from every fourth vertex, dual-stored so
/// a pull product is available, and a four-entry frontier.
fn ring_and_frontier() -> (Matrix<bool>, Vector<bool>) {
    let edges: Vec<(Index, Index, bool)> =
        (0..64).flat_map(|i| [(i, (i + 1) % 64, true), (i, (i * 4 + 7) % 64, true)]).collect();
    let mut a = Matrix::from_tuples(64, 64, edges, |_, b| b).expect("matrix");
    a.set_dual_storage(true);
    a.wait();
    let u = Vector::from_tuples(64, (0..4).map(|k| (k * 16, true)).collect(), |_, b| b);
    (a, u.expect("frontier"))
}

fn pull_mxv(a: &Matrix<bool>, u: &Vector<bool>) {
    let mut w = Vector::<bool>::new(64).expect("w");
    mxv(&mut w, None, NOACC, &LOR_LAND, a, u, &Descriptor::new().direction(Direction::Pull))
        .expect("mxv");
    assert!(w.nvals() > 0);
}

#[test]
fn disabled_spans_record_nothing() {
    let _g = globals();
    trace::disable();
    trace::clear();
    {
        let mut s = trace::algo_span("test.off");
        s.arg("x", 1u64);
        assert!(!s.on());
    }
    assert!(trace::drain().iter().all(|e| e.name != "test.off"));
}

#[test]
fn spans_record_args_kernel_and_duration() {
    let _g = globals();
    let (a, u) = ring_and_frontier();
    trace::enable();
    trace::clear();
    pull_mxv(&a, &u);
    let evs = trace::drain();
    trace::disable();
    let e = evs.iter().find(|e| e.name == "mxv").expect("mxv span recorded");
    assert!(e.kernel.is_some_and(|k| k.starts_with("pull")), "kernel = {:?}", e.kernel);
    assert_eq!(e.arg_u64("u_nnz"), Some(4));
    assert!(e.arg_u64("flops").is_some_and(|f| f > 0));
    assert!(e.dur_ns > 0);
}

#[test]
fn mode_round_trips() {
    let _g = globals();
    trace::set_mode(Mode::Burble);
    assert_eq!(trace::mode(), Mode::Burble);
    assert!(trace::enabled());
    trace::set_mode(Mode::Off);
    assert_eq!(trace::mode(), Mode::Off);
    assert!(!trace::enabled());
    // The registry's bit shares the mask and is not the mode's to touch.
    metrics::set_enabled(true);
    trace::enable();
    trace::disable();
    assert!(metrics::enabled());
    metrics::set_enabled(false);
    assert_eq!(trace::mode(), Mode::Off);
}

#[test]
fn warn_once_is_one_shot() {
    let _g = globals();
    trace::enable();
    trace::clear();
    trace::warn_once("trace-test-warn", "first");
    trace::warn_once("trace-test-warn", "second");
    let warns = trace::drain()
        .into_iter()
        .filter(|e| e.name == "warn" && e.args.contains(&("key", ArgValue::Str("trace-test-warn"))))
        .count();
    trace::disable();
    assert_eq!(warns, 1);
}

/// `graphblas_span_seconds_count{cat="op",span="mxv"}` in the registry.
fn mxv_spans_in_registry() -> f64 {
    let key = "graphblas_span_seconds_count{cat=\"op\",span=\"mxv\"}";
    metrics::snapshot().into_iter().find(|(k, _)| k == key).map_or(0.0, |(_, v)| v)
}

/// One `mxv` reaches exactly the sinks that are on: a ring event iff the
/// ring is on, a span-seconds observation iff the registry is on.
#[test]
fn each_sink_sees_an_op_iff_it_is_on() {
    let _g = globals();
    let (a, u) = ring_and_frontier();
    for ring in [false, true] {
        for registry in [false, true] {
            trace::set_mode(if ring { Mode::Record } else { Mode::Off });
            metrics::set_enabled(registry);
            trace::clear();
            let before = mxv_spans_in_registry();
            pull_mxv(&a, &u);
            trace::disable();
            metrics::set_enabled(false);
            let in_ring = trace::drain().iter().filter(|e| e.name == "mxv").count();
            let in_registry = mxv_spans_in_registry() - before;
            assert_eq!(in_ring, usize::from(ring), "ring={ring} registry={registry}");
            assert_eq!(
                in_registry,
                f64::from(u8::from(registry)),
                "ring={ring} registry={registry}"
            );
        }
    }
}

/// A dot product over a compressed operand tags its span
/// `dot(compressed)`, and the roll-up books that under `mxm_dot` like any
/// other dot.
#[test]
fn compressed_operand_mxm_is_counted_as_a_dot() {
    let _g = globals();
    let tuples: Vec<(Index, Index, i64)> =
        (0..32).flat_map(|i| [(i, (i + 1) % 32, 1), (i, (i + 5) % 32, 2)]).collect();
    let mut a = Matrix::from_tuples(32, 32, tuples, |_, b| b).expect("a");
    a.set_compressed(true);
    assert!(a.is_compressed());
    let mask = a.pattern();
    trace::enable();
    trace::clear();
    let mut c = Matrix::<i64>::new(32, 32).expect("c");
    let dot = Descriptor::new().method(MxmMethod::Dot);
    mxm(&mut c, Some(&mask), NOACC, &PLUS_TIMES, &a, &a, &dot).expect("mxm");
    trace::disable();
    let events = trace::drain();
    let span = events.iter().find(|e| e.name == "mxm").expect("mxm span");
    assert_eq!(span.kernel, Some("dot(compressed)"));
    let agg = RunAggregate::from_events(&events);
    assert_eq!((agg.mxm_dot, agg.mxm_gustavson, agg.mxm_heap), (1, 0, 0));
}

/// The `build` span of `Matrix::from_tuples` with `tuples`.
fn build_span(n: Index, tuples: Vec<(Index, Index, u64)>) -> trace::Event {
    trace::enable();
    trace::clear();
    Matrix::from_tuples(n, n, tuples, |a, b| a + b).expect("build");
    trace::disable();
    trace::drain().into_iter().find(|e| e.name == "build").expect("build span")
}

/// A build's span says how it ordered its tuples: extracted tuples are
/// already in order and skip the sort; the tuples it was built from,
/// shuffled, more of them than rows, go through the row buckets; fewer
/// than a third of the rows take the comparison sort. `nvals_in` counts the tuples, `nvals` the entries.
#[test]
fn a_build_span_names_its_path() {
    let _g = globals();
    let n = 64;
    let mut tuples: Vec<(Index, Index, u64)> =
        (0..n).flat_map(|i| [(i, (i * 7) % n, 1), (i, (i * 11 + 3) % n, 2)]).collect();
    tuples.push((5, 35, 4));
    let a = Matrix::from_tuples(n, n, tuples.clone(), |a, b| a + b).expect("a");
    let extracted = a.extract_tuples();
    let nvals = extracted.len() as u64;

    let sorted = build_span(n, extracted.clone());
    assert_eq!(sorted.arg_str("path"), Some("sorted"));
    assert_eq!(sorted.arg_u64("nvals_in"), Some(nvals));
    assert_eq!(sorted.arg_u64("nvals"), Some(nvals));

    tuples.sort_by_key(|&(i, j, _)| (i * 40_503 + j * 7) % 127);
    let bucket = build_span(n, tuples.clone());
    assert_eq!(bucket.arg_str("path"), Some("bucket"));
    assert_eq!(bucket.arg_u64("nvals_in"), Some(tuples.len() as u64));
    assert_eq!(bucket.arg_u64("nvals"), Some(nvals));

    let few: Vec<_> = extracted.iter().rev().step_by(8).copied().collect();
    assert!(few.len() < n / 3);
    assert_eq!(build_span(n, few).arg_str("path"), Some("sort"));
}

/// The one traced `mxv` of `run`.
fn mxv_span(run: impl FnOnce()) -> trace::Event {
    trace::enable();
    trace::clear();
    run();
    trace::disable();
    trace::drain().into_iter().find(|e| e.name == "mxv").expect("mxv span")
}

/// A product's span names the inner loop its monoid picked: PageRank's
/// `PLUS_SECOND` pull (a dense rank vector accumulated into a dense
/// constant term, as `lagraph::pagerank` does it) folds every product,
/// and connected components' `MIN_SECOND` stops at the terminal.
#[test]
fn a_product_span_names_the_shape_its_monoid_picks() {
    let _g = globals();
    // No dual storage, as PageRank's transposed structure: `mxv` pulls.
    let (mut a, _) = ring_and_frontier();
    a.set_dual_storage(false);
    let ranks = Vector::dense(64, 1.0 / 64.0).expect("ranks");
    let pull = mxv_span(|| {
        let mut r = Vector::dense(64, 0.15 / 64.0).expect("r");
        let accum = Some(|base: f64, pulled: f64| base + 0.85 * pulled);
        mxv(&mut r, None, accum, &PLUS_SECOND, &a, &ranks, &Descriptor::default()).expect("mxv");
    });
    assert!(pull.kernel.is_some_and(|k| k.starts_with("pull")), "{pull:?}");
    assert_eq!(pull.arg_str("shape"), Some("fold"));

    let labels = Vector::from_tuples(64, (0..64).map(|i| (i, i as u64)).collect(), |_, b| b);
    let labels = labels.expect("labels");
    let min = mxv_span(|| {
        let mut w = Vector::<u64>::new(64).expect("w");
        mxv(&mut w, None, NOACC, &MIN_SECOND, &a, &labels, &Descriptor::default()).expect("mxv");
    });
    assert_eq!(min.arg_str("shape"), Some("terminal"));
}

/// The first assembly of an empty matrix filled by `set_element` with
/// inserts only is a build: its writes are ordered by the row buckets
/// (shuffled, more of them than a third of the rows), and the entries are
/// the ones a last-wins build of the same writes holds.
#[test]
fn a_first_assembly_of_inserts_builds_through_the_buckets() {
    let _g = globals();
    let n = 64;
    let mut writes: Vec<(Index, Index, u64)> =
        (0..n).flat_map(|i| [(i, (i * 7) % n, 1), (i, (i * 11 + 3) % n, 2)]).collect();
    writes.push((5, 35, 4));
    writes.push((5, 35, 9));
    writes.sort_by_key(|&(i, j, _)| (i * 40_503 + j * 7) % 127);
    let mut m = Matrix::<u64>::new(n, n).expect("m");
    for &(i, j, x) in &writes {
        m.set_element(i, j, x).expect("set");
    }
    trace::enable();
    trace::clear();
    m.wait();
    trace::disable();
    let events = trace::drain();
    let build = events.iter().find(|e| e.name == "build").expect("build span");
    assert_eq!(build.arg_str("path"), Some("bucket"));
    assert_eq!(build.arg_u64("nvals_in"), Some(writes.len() as u64));
    let built = Matrix::from_tuples(n, n, writes, |_, last| last).expect("build");
    assert_eq!(m.extract_tuples(), built.extract_tuples());
}

/// Logical OR without its terminal: the same monoid as `LOR_LAND`'s, with
/// nothing to stop a dot product early.
#[derive(Clone, Copy, Debug)]
struct LorNoExit;

impl BinaryOp<bool, bool, bool> for LorNoExit {
    fn apply(&self, a: bool, b: bool) -> bool {
        a || b
    }
}

impl Monoid<bool> for LorNoExit {
    fn identity(&self) -> bool {
        false
    }
}

/// §II.A's early exit as a count: a pull against a full `true` vector
/// reads one entry of every non-empty row under `LOR_LAND`, whose
/// terminal stops each dot at its first product, and every entry under
/// the same OR without a terminal. Both give the same result.
#[test]
fn a_terminal_pull_reads_each_row_only_to_its_first_hit() {
    let _g = globals();
    // Row i holds i % 4 entries: a quarter of the rows are empty.
    let tuples: Vec<(Index, Index, bool)> =
        (0..64).flat_map(|i| (0..i % 4).map(move |t| (i, (i * 7 + t * 13) % 64, true))).collect();
    let a = Matrix::from_tuples(64, 64, tuples, |_, b| b).expect("a");
    let u = Vector::dense(64, true).expect("u");
    let pull = Descriptor::new().direction(Direction::Pull);
    let run = |s: &dyn Fn(&mut Vector<bool>)| {
        let mut w = Vector::<bool>::new(64).expect("w");
        let span = mxv_span(|| s(&mut w));
        assert!(span.kernel.is_some_and(|k| k.starts_with("pull")), "{span:?}");
        (span.arg_u64("flops"), w.extract_tuples())
    };
    let (exit_flops, exit) = run(&|w| mxv(w, None, NOACC, &LOR_LAND, &a, &u, &pull).expect("mxv"));
    let no_exit = Semiring::new(LorNoExit, binaryop::Land);
    let (all_flops, all) = run(&|w| mxv(w, None, NOACC, &no_exit, &a, &u, &pull).expect("mxv"));
    assert_eq!(exit_flops, Some(48), "one product per non-empty row");
    assert_eq!(all_flops, Some(a.nvals() as u64), "every entry");
    assert_eq!(exit, all);
}
