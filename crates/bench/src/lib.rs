//! Shared helpers for the paper's table/figure binaries and the criterion
//! benches: graph construction, criterion configuration, and simple
//! wall-clock measurement. [`json`] is the workspace's dependency-free
//! JSON parser.

pub mod json;

use graphblas::prelude::*;
use graphblas::trace;
use lagraph::{Graph, GraphKind};
use lagraph_io::{rmat, RmatParams};
use std::time::{Duration, Instant};

/// Criterion settings tuned so the full `cargo bench` pass finishes in
/// minutes: statistical rigor is secondary to reproducing the *shape* of
/// the paper's comparisons.
pub fn criterion_config() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600))
        .configure_from_args()
}

/// An undirected RMAT graph with unit weights, as a [`Graph`].
pub fn rmat_graph(scale: u32, edge_factor: usize, seed: u64) -> Graph {
    let adj = rmat(&RmatParams { scale, edge_factor, seed, ..Default::default() })
        .expect("rmat generation");
    let n = adj.nrows();
    let mut w = Matrix::<f64>::new(n, n).expect("weights dims");
    apply_matrix(&mut w, None, NOACC, unaryop::One, &adj, &Descriptor::default())
        .expect("unit weights");
    Graph::new(w, GraphKind::Undirected).expect("square adjacency")
}

/// The Boolean structure of an RMAT graph, with dual storage enabled so
/// both push and pull kernels are available.
pub fn rmat_structure_dual(scale: u32, edge_factor: usize, seed: u64) -> Matrix<bool> {
    let mut adj = rmat(&RmatParams { scale, edge_factor, seed, ..Default::default() })
        .expect("rmat generation");
    adj.set_dual_storage(true);
    adj.wait();
    adj
}

/// A sparse Boolean frontier with exactly `min(k, n)` distinct,
/// uniformly-spread entries.
pub fn frontier(n: Index, k: usize) -> Vector<bool> {
    let k = k.clamp(1, n);
    let stride = n / k;
    let tuples: Vec<(Index, bool)> = (0..k).map(|t| (t * stride, true)).collect();
    Vector::from_tuples(n, tuples, |_, b| b).expect("frontier dims")
}

/// Run `f` once with tracing in record mode and print what that single
/// invocation did: the [`trace::Profile`] table (per-span counts,
/// latency quantiles, flops) and one [`trace::RunAggregate`] line naming
/// the kernels and dispatch paths it took. The previous trace mode is
/// restored, so the timed criterion loops stay untraced: benches profile
/// one representative run of each configuration.
pub fn profile_once<R>(label: &str, f: impl FnOnce() -> R) -> R {
    let prev = trace::mode();
    trace::clear();
    trace::set_mode(trace::Mode::Record);
    let r = f();
    trace::set_mode(prev);
    let events = trace::drain();
    let profile = trace::Profile::from_events(&events);
    if !profile.ops.is_empty() {
        let a = trace::RunAggregate::from_events(&events);
        eprint!("profile[{label}]\n{}", profile.report());
        eprintln!(
            "aggregate[{label}]: mxm g/d/h/fused={}/{}/{}/{} mxv push/pull/fallback={}/{}/{} \
             mispredicts={} flops~{} chunks={} early_exits={} assemblies={}",
            a.mxm_gustavson,
            a.mxm_dot,
            a.mxm_heap,
            a.mxm_fused,
            a.push,
            a.pull,
            a.direction_fallbacks,
            a.mispredicts,
            a.total_flops,
            a.chunks,
            a.early_exits,
            a.assemblies,
        );
    }
    r
}

/// Wall-clock one invocation.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed(), r)
}

/// Median wall-clock over `reps` invocations.
pub fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut times: Vec<Duration> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// Format a duration in adaptive units for table printing.
pub fn fmt_dur(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us} µs")
    } else if us < 1_000_000 {
        format!("{:.2} ms", us as f64 / 1_000.0)
    } else {
        format!("{:.3} s", us as f64 / 1_000_000.0)
    }
}
