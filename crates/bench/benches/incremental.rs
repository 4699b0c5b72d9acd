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
//!
//! The `carry` group times `Graph::advance` itself on the scale-16 RMAT
//! under the same mix, turned as `serve-epochs` turns it (a one-update
//! epoch, then a 63-update one): once for a graph holding what the
//! workload's BFS and degree queries leave on it, once holding component
//! labels as well, which every epoch then repairs (EXPERIMENTS.md §P32).
//!
//! The `repair` group times the two view repairs that read adjacency,
//! `connected_components_delta` and `triangle_count_delta`, one epoch at
//! a time on the scale-14 RMAT under the `serve-mixed` writer's mix: 256
//! updates a tick, seven in eight inserting a uniform vertex pair and the
//! eighth deleting an edge the graph holds (EXPERIMENTS.md §P31).

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use criterion::{BatchSize, BenchmarkId, Criterion};
use graphblas::prelude::*;
use graphblas::{net_edits, Edit};
use lagraph::gen::Workload;
use lagraph::service::Update;
use lagraph::{
    connected_components, connected_components_delta, triangle_count, triangle_count_delta,
    EdgeEvent, Graph, GraphKind, TriCountMethod,
};
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
    // 1e3 tuples (under n / 3) build through the comparison sort, the
    // rest through the row buckets.
    for e in [1_000usize, 10_000, 100_000, 1_000_000] {
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
        // every insertion (bounded to a slice to keep the bench finite,
        // and left out at 1e6, where the slice alone runs for seconds).
        if e > 100_000 {
            continue;
        }
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

/// The `serve-epochs` update mix over `graph`, an RMAT of `scale`: seven
/// in eight updates insert an edge between two uniform vertices — the
/// edges of an Erdős–Rényi draw — and the eighth deletes an edge the graph
/// holds.
fn epoch_updates(graph: &Graph, scale: u32) -> impl Iterator<Item = Update> {
    let held: Vec<(Index, Index)> =
        graph.a().extract_tuples().into_iter().filter(|t| t.0 < t.1).map(|t| (t.0, t.1)).collect();
    let fresh =
        Workload::ErdosRenyi.weighted(scale, 1, 7, 255).expect("update draw").extract_tuples();
    (0..).map(move |k: usize| {
        if k.is_multiple_of(8) {
            let (i, j) = held[(k / 8).wrapping_mul(7919) % held.len()];
            Update::Delete(i, j)
        } else {
            let (i, j, w) = fresh[k.wrapping_mul(104_729) % fresh.len()];
            Update::Insert(i, j, w)
        }
    })
}

fn publish(c: &mut Criterion) {
    use lagraph::service::{GraphService, Query, ServiceConfig};

    let mut group = c.benchmark_group("publish");
    group.sample_size(EPOCHS);
    for scale in [14u32, 16, 18] {
        let graph = Workload::Rmat.graph(scale, 16, 42, 255).expect("rmat");
        let mut updates = epoch_updates(&graph, scale);
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

/// `updates` as the netted delta an undirected epoch publishes: both arcs
/// of every edge, the last write to each arc.
fn undirected_delta(updates: impl Iterator<Item = Update>) -> Vec<Edit<f64>> {
    let mut delta = Vec::new();
    for u in updates {
        let (i, j, x) = match u {
            Update::Insert(i, j, w) => (i, j, Some(w)),
            Update::Delete(i, j) => (i, j, None),
        };
        delta.push((i, j, x));
        if i != j {
            delta.push((j, i, x));
        }
    }
    net_edits(&mut delta);
    delta
}

fn carry(c: &mut Criterion) {
    const SCALE: u32 = 16;
    let mut group = c.benchmark_group("carry");
    group.sample_size(EPOCHS);
    for labels in [false, true] {
        let mut graph = Workload::Rmat.graph(SCALE, 16, 42, 255).expect("rmat");
        // What `serve-epochs` queries leave on a snapshot: the structure
        // (BFS) and the degrees, and the labels of a cc query.
        graph.structure().expect("structure");
        graph.out_degree().expect("degrees");
        if labels {
            graph.components().expect("components");
        }
        let mut updates = epoch_updates(&graph, SCALE);
        let mut sizes = [1, EPOCH_UPDATES - 1].into_iter().cycle();
        let id = BenchmarkId::new("advance", if labels { "labels" } else { "no_labels" });
        // Each sample advances the graph the chain has reached by the next
        // epoch; the chain itself moves on in the setup.
        group.bench_function(id, |bencher| {
            bencher.iter_batched(
                || {
                    let size = sizes.next().expect("cycle");
                    let delta = undirected_delta(updates.by_ref().take(size));
                    let next = graph.a().with_edits(&delta).expect("publish");
                    let (next, _) = graph.advance(next, &delta).expect("advance");
                    let prev = std::mem::replace(&mut graph, next);
                    let a = prev.a().with_edits(&delta).expect("publish");
                    (prev, a, delta)
                },
                |(prev, a, delta)| prev.advance(a, &delta).expect("advance"),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// Updates per `serve-mixed` writer tick.
const TICK_UPDATES: usize = 256;

/// The `serve-mixed` update stream over an undirected graph, and the
/// graph it has reached.
struct Stream {
    graph: Arc<Graph>,
    /// The edges the stream has left present (`i < j`), as a set and as
    /// a list to draw deletes from.
    present: HashSet<(Index, Index)>,
    held: Vec<(Index, Index)>,
    /// Uniform vertex pairs to draw inserts from.
    fresh: Vec<(Index, Index, f64)>,
    drawn: usize,
}

impl Stream {
    fn new(graph: Graph, scale: u32) -> Self {
        let held: Vec<(Index, Index)> = graph
            .a()
            .extract_tuples()
            .into_iter()
            .filter(|t| t.0 < t.1)
            .map(|t| (t.0, t.1))
            .collect();
        let fresh =
            Workload::ErdosRenyi.weighted(scale, 1, 7, 255).expect("update draw").extract_tuples();
        Stream {
            graph: Arc::new(graph),
            present: held.iter().copied().collect(),
            held,
            fresh,
            drawn: 0,
        }
    }

    /// Draw one tick, net it (last write per edge) and advance the graph.
    fn tick(&mut self) -> Tick {
        let mut last = BTreeMap::new();
        for _ in 0..TICK_UPDATES {
            self.drawn += 1;
            let k = self.drawn;
            if k.is_multiple_of(8) && !self.held.is_empty() {
                let e = self.held.swap_remove(k.wrapping_mul(7919) % self.held.len());
                self.present.remove(&e);
                last.insert(e, None);
            } else {
                let (i, j, w) = self.fresh[k.wrapping_mul(104_729) % self.fresh.len()];
                if i == j {
                    continue; // the writer draws two distinct vertices
                }
                let e = (i.min(j), i.max(j));
                if self.present.insert(e) {
                    self.held.push(e);
                }
                last.insert(e, Some(w));
            }
        }
        let before = self.graph.clone();
        let rows = before.a().rows();
        let (mut events, mut delta) = (Vec::new(), Vec::new());
        for ((i, j), x) in last {
            match (x, rows.contains(i, j)) {
                (Some(_), false) => events.push(EdgeEvent::Insert(i, j)),
                (None, true) => events.push(EdgeEvent::Delete(i, j)),
                _ => continue,
            }
            delta.extend([(i, j, x), (j, i, x)]);
        }
        drop(rows);
        let a = before.a().with_edits(&delta).expect("publish");
        self.graph = Arc::new(Graph::new(a, GraphKind::Undirected).expect("graph"));
        Tick { before, after: self.graph.clone(), events }
    }
}

/// One tick: the graphs before and after it, and its real changes, one
/// event per edge as the view engine classifies them.
struct Tick {
    before: Arc<Graph>,
    after: Arc<Graph>,
    events: Vec<EdgeEvent>,
}

fn repair(c: &mut Criterion) {
    const SCALE: u32 = 14;
    let graph = || Workload::Rmat.graph(SCALE, 16, 42, 255).expect("rmat");
    let split = |events: &[EdgeEvent]| {
        let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
        for e in events {
            match *e {
                EdgeEvent::Insert(u, v) => inserts.push((u, v)),
                EdgeEvent::Delete(u, v) => deletes.push((u, v)),
            }
        }
        (inserts, deletes)
    };
    let mut group = c.benchmark_group("repair");
    group.sample_size(EPOCHS);

    // Each sample repairs the next tick from the labels the one before
    // left; the stream and the untimed label chain advance in the setup.
    let g = graph();
    let mut labels: Vec<u64> =
        connected_components(&g).expect("cc").iter().map(|(_, c)| c).collect();
    let mut stream = Stream::new(g, SCALE);
    group.bench_function("cc", |bencher| {
        bencher.iter_batched(
            || {
                let Tick { after, events, .. } = stream.tick();
                let (inserts, deletes) = split(&events);
                let prev = std::mem::take(&mut labels);
                labels = connected_components_delta(&after, &prev, &inserts, &deletes);
                (after, prev, inserts, deletes)
            },
            |(after, prev, inserts, deletes)| {
                connected_components_delta(&after, &prev, &inserts, &deletes)
            },
            BatchSize::LargeInput,
        )
    });

    let g = graph();
    let mut count = triangle_count(&g, TriCountMethod::Sandia).expect("tricount");
    let mut stream = Stream::new(g, SCALE);
    group.bench_function("tricount", |bencher| {
        bencher.iter_batched(
            || {
                let Tick { before, events, .. } = stream.tick();
                let prev = count;
                count = triangle_count_delta(&before, prev, &events);
                (before, prev, events)
            },
            |(before, prev, events)| triangle_count_delta(&before, prev, &events),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn main() {
    let mut c = criterion_config();
    bench(&mut c);
    publish(&mut c);
    carry(&mut c);
    repair(&mut c);
    c.final_summary();
}
