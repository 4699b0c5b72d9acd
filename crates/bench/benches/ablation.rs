//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! * dual (push/pull) storage on vs off for BFS — the memory-for-speed
//!   trade GraphBLAST gates behind an environment variable (§II.E);
//! * the non-blocking pending-tuple machinery vs eager assembly for an
//!   incremental update stream;
//! * reading through the lazy-assembly path when nothing is pending
//!   (the cost of opacity should be ~zero).

use criterion::{BenchmarkId, Criterion};
use graphblas::prelude::*;
use lagraph::bfs_level_matrix;
use lagraph_bench::{criterion_config, profile_once};
use lagraph_io::{rmat, RmatParams};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");

    // Dual storage on/off: identical BFS, with and without the cached
    // transpose that enables pull.
    let params = RmatParams { scale: 11, edge_factor: 16, seed: 5, ..Default::default() };
    let plain = rmat(&params).expect("rmat");
    plain.wait();
    let mut dual = plain.clone();
    dual.set_dual_storage(true);
    dual.wait();
    for (name, a) in [("dual_storage", &dual), ("single_storage", &plain)] {
        let bfs = || bfs_level_matrix(a, 0, Direction::Auto).expect("bfs").nvals();
        group.bench_function(BenchmarkId::new("bfs", name), |bencher| bencher.iter(bfs));
        // One traced run: which direction each level took (every pull
        // the model wants falls back to push without the transpose) and
        // where the iterations spend their time, not just medians.
        profile_once(&format!("ablation/bfs/{name}"), bfs);
    }

    // Pending tuples vs eager assembly on a mixed update stream.
    let n = 1 << 12;
    let updates: Vec<(Index, Index, f64)> =
        (0..20_000).map(|k| ((k * 37) % n, (k * 101) % n, k as f64)).collect();
    for (name, flush_every) in [("nonblocking", None), ("eager_every_64", Some(64))] {
        let build = || {
            let mut m = Matrix::<f64>::new(n, n).expect("new");
            for (k, &(i, j, x)) in updates.iter().enumerate() {
                m.set_element(i, j, x).expect("set");
                if flush_every.is_some_and(|every| k % every == 0) {
                    m.wait();
                }
            }
            m.nvals()
        };
        group.bench_function(BenchmarkId::new("updates", name), |bencher| bencher.iter(build));
        // How many assemblies the stream cost, and how large the backlog
        // each resolved was.
        profile_once(&format!("ablation/updates/{name}"), build);
    }

    // Opacity cost: point reads on a fully assembled matrix must be as
    // cheap as the underlying binary search.
    let m = {
        let mut m = Matrix::<f64>::new(n, n).expect("new");
        for &(i, j, x) in &updates {
            m.set_element(i, j, x).expect("set");
        }
        m.wait();
        m
    };
    group.bench_function("point_reads_assembled", |bencher| {
        bencher.iter(|| {
            let mut hits = 0;
            for k in 0..1000 {
                if m.get((k * 37) % n, (k * 101) % n).is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });
    group.finish();
}

fn main() {
    let mut c = criterion_config();
    bench(&mut c);
    c.final_summary();
}
