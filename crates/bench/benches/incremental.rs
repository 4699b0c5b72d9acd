//! Experiment C1: the pending-tuples claim of §II.A — "it is just as fast
//! to use a sequence of e GrB_Matrix_setElement operations to build a
//! matrix, as it is to create an array of e tuples and use
//! GrB_Matrix_build" — because set_element defers to pending tuples and
//! assembly is one O(n + e + p log p) step. The naive comparator (eager
//! insertion into sorted storage) shows the O(e·n) cliff being avoided.
//!
//! The `publish` group is the serving side of the same claim: what one
//! 64-update epoch costs a `GraphService` to publish, over RMAT graphs of
//! scale 14, 16 and 18 (edge factor 16, 2 shards). A publish that rewrote
//! the graph grows with E; one that writes only the rows an epoch touches
//! over a shared base does not (EXPERIMENTS.md §P30).

use criterion::{BenchmarkId, Criterion};
use graphblas::prelude::*;
use lagraph_bench::criterion_config;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_tuples(n: Index, e: usize, seed: u64) -> Vec<(Index, Index, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..e).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n), rng.gen())).collect()
}

fn bench(c: &mut Criterion) {
    let n: Index = 1 << 14;
    let mut group = c.benchmark_group("incremental_build");
    for e in [10_000usize, 100_000] {
        let tuples = random_tuples(n, e, 9);
        group.bench_with_input(BenchmarkId::new("build", e), &tuples, |bencher, tuples| {
            bencher.iter(|| {
                let m = Matrix::from_tuples(n, n, tuples.clone(), |_, b| b).expect("build");
                m.nvals()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("set_element_x_e", e),
            &tuples,
            |bencher, tuples| {
                bencher.iter(|| {
                    let mut m = Matrix::<f64>::new(n, n).expect("new");
                    for &(i, j, x) in tuples {
                        m.set_element(i, j, x).expect("set");
                    }
                    m.nvals() // forces the single assembly
                })
            },
        );
        // The strawman the zombies/pending design avoids: assemble after
        // every insertion (bounded to a slice to keep the bench finite).
        let slice = &tuples[..(e / 50)];
        group.bench_with_input(
            BenchmarkId::new("eager_per_element", slice.len()),
            &slice,
            |bencher, slice| {
                bencher.iter(|| {
                    let mut m = Matrix::<f64>::new(n, n).expect("new");
                    for &(i, j, x) in *slice {
                        m.set_element(i, j, x).expect("set");
                        m.wait(); // defeat the non-blocking mode
                    }
                    m.nvals()
                })
            },
        );
    }
    group.finish();
}

/// Updates per epoch, as `serve-epochs` submits them.
const EPOCH_UPDATES: usize = 64;
/// Epochs timed per scale: the group's samples.
const EPOCHS: usize = 64;

fn publish(c: &mut Criterion) {
    use lagraph::gen::Workload;
    use lagraph::service::{GraphService, Query, ServiceConfig, Update};

    let mut group = c.benchmark_group("publish");
    group.sample_size(EPOCHS);
    for scale in [14u32, 16, 18] {
        let graph = Workload::Rmat.graph(scale, 16, 42, 255).expect("rmat");
        // The `serve-epochs` mix: seven in eight updates insert an edge
        // between two uniform vertices — the edges of an Erdős–Rényi draw —
        // and the eighth deletes an edge the graph holds.
        let held: Vec<(Index, Index)> = graph
            .a()
            .extract_tuples()
            .into_iter()
            .filter(|t| t.0 < t.1)
            .map(|t| (t.0, t.1))
            .collect();
        let fresh =
            Workload::ErdosRenyi.weighted(scale, 1, 7, 255).expect("update draw").extract_tuples();
        let mut updates = (0..).map(|k: usize| {
            if k.is_multiple_of(8) {
                let (i, j) = held[(k / 8).wrapping_mul(7919) % held.len()];
                Update::Delete(i, j)
            } else {
                let (i, j, w) = fresh[k.wrapping_mul(104_729) % fresh.len()];
                Update::Insert(i, j, w)
            }
        });
        let config = ServiceConfig { shards: 2, ..ServiceConfig::default() };
        let service = GraphService::new(graph, config).expect("service");
        // A BFS materialises the structure, which every epoch then carries.
        service.query(Query::bfs_level(0)).expect("bfs");
        group.bench_with_input(BenchmarkId::new("epoch", scale), &scale, |bencher, _| {
            bencher.iter(|| {
                for u in updates.by_ref().take(EPOCH_UPDATES) {
                    service.submit(u).expect("submit");
                }
                service.flush().expect("flush").epoch()
            })
        });
    }
    group.finish();
}

fn main() {
    let mut c = criterion_config();
    bench(&mut c);
    publish(&mut c);
    c.final_summary();
}
