//! The six GAP kernels on one small seeded graph, held to recorded values:
//! each kernel's output checksum bit for bit, the same checksums over the
//! compressed storage form, and the work estimate one traced run books
//! under the pinned cost model.
//!
//! The input is the scale-8 RMAT (edge factor 8, seed 42, weights in
//! 1..=255) with two sources drawn from the seeded permutation. The
//! checksums fold each output in a fixed order, so a changed level,
//! distance, rank, label or count moves them. Run the file at any thread
//! count: every constant below holds in all of those processes, so the
//! parallel cut is held to the same numbers. The flops are the ones the
//! plain `Option`-accumulator loops booked before each kernel's inner loop
//! took the shape its monoid picks, so they hold the shapes' accounting to
//! those loops too.

use std::sync::{Mutex, MutexGuard};

use graphblas::prelude::*;
use graphblas::trace::{self, RunAggregate};
use lagraph::gen::{self, Workload};
use lagraph::{
    betweenness_centrality, bfs_level_matrix, connected_components, pagerank, sssp_delta_stepping,
    triangle_count, Graph, PageRankOptions, TriCountMethod,
};

const SCALE: u32 = 8;
const EDGE_FACTOR: usize = 8;
const SEED: u64 = 42;
const MAX_WEIGHT: u64 = 255;

/// A kernel's output checksum and the flops one traced run of it books.
struct Recorded {
    kernel: &'static str,
    checksum: f64,
    flops: u64,
}

const RECORDED: [Recorded; 6] = [
    Recorded { kernel: "bfs", checksum: 1484.0000495459997, flops: 430 },
    Recorded { kernel: "pagerank", checksum: 17.00000008380879, flops: 41632 },
    Recorded { kernel: "sssp", checksum: 93622.0, flops: 5545 },
    Recorded { kernel: "cc", checksum: 7808.0, flops: 979 },
    Recorded { kernel: "tricount", checksum: 3742.0, flops: 7806 },
    Recorded { kernel: "bc", checksum: 622.00002632977, flops: 9174 },
];

/// The trace ring and the cost model are process-wide.
static GLOBALS: Mutex<()> = Mutex::new(());

/// Take the lock and pin the cost model when the caller has not. It is
/// read once, at the process's first direction choice, so every test takes
/// this before it runs a kernel.
fn pinned() -> MutexGuard<'static, ()> {
    let g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    if std::env::var_os("GRAPHBLAS_COST_MODEL").is_none() {
        std::env::set_var("GRAPHBLAS_COST_MODEL", "3,1");
    }
    g
}

/// The graph, its Boolean structure with both orientations held (what
/// BFS traverses under `Direction::Auto`), and the BFS/SSSP/BC sources.
struct Input {
    graph: Graph,
    structure: Matrix<bool>,
    sources: Vec<Index>,
}

impl Input {
    fn new(compressed: bool) -> Input {
        let mut graph =
            Workload::Rmat.graph(SCALE, EDGE_FACTOR, SEED, MAX_WEIGHT).expect("rmat scale 8");
        let mut structure = graph.a().pattern();
        structure.set_dual_storage(true);
        if compressed {
            graph.set_compressed(true);
            structure.set_compressed(true);
        }
        structure.wait();
        let deg = graph.out_degree().expect("out-degrees");
        let sources = gen::permutation(graph.nvertices(), SEED)
            .into_iter()
            .filter(|&v| deg.get(v).unwrap_or(0) > 0)
            .take(2)
            .collect();
        Input { graph, structure, sources }
    }

    /// Run `kernel` once and fold its output into one number.
    fn checksum(&self, kernel: &str) -> f64 {
        let g = &self.graph;
        let mut sum = 0.0;
        match kernel {
            "bfs" => {
                for &s in &self.sources {
                    let levels =
                        bfs_level_matrix(&self.structure, s, Direction::Auto).expect("bfs");
                    for (v, l) in levels.iter() {
                        sum += (l as f64) + (v as f64) * 1e-9;
                    }
                }
            }
            "pagerank" => {
                let opts = PageRankOptions { tolerance: 1e-6, ..Default::default() };
                let (ranks, iters) = pagerank(g, &opts).expect("pagerank");
                sum = iters as f64;
                for (v, r) in ranks.iter() {
                    sum += r * (1.0 + v as f64 * 1e-9);
                }
            }
            "sssp" => {
                let delta = (MAX_WEIGHT as f64 / 4.0).max(1.0);
                for &s in &self.sources {
                    for (_, d) in sssp_delta_stepping(g, s, delta).expect("sssp").iter() {
                        sum += d;
                    }
                }
            }
            "cc" => {
                for (_, c) in connected_components(g).expect("cc").iter() {
                    sum += c as f64;
                }
            }
            "tricount" => sum = triangle_count(g, TriCountMethod::Sandia).expect("tricount") as f64,
            "bc" => {
                for (v, c) in betweenness_centrality(g, &self.sources).expect("bc").iter() {
                    sum += c * (1.0 + v as f64 * 1e-9);
                }
            }
            other => unreachable!("no kernel {other}"),
        }
        sum
    }
}

#[test]
fn checksums_equal_the_recorded_values() {
    let _g = pinned();
    let input = Input::new(false);
    assert_eq!(input.sources, [188, 20]);
    for r in &RECORDED {
        let got = input.checksum(r.kernel);
        assert_eq!(got.to_bits(), r.checksum.to_bits(), "{}: {got:?}", r.kernel);
    }
}

#[test]
fn compressed_storage_gives_the_same_checksums() {
    let _g = pinned();
    let (csr, compressed) = (Input::new(false), Input::new(true));
    for r in &RECORDED {
        let (a, b) = (csr.checksum(r.kernel), compressed.checksum(r.kernel));
        assert_eq!(a.to_bits(), b.to_bits(), "{}: csr {a:?} vs compressed {b:?}", r.kernel);
    }
}

#[test]
fn one_traced_run_books_the_recorded_flops() {
    let _g = pinned();
    let input = Input::new(false);
    for r in &RECORDED {
        // Warm the graph's cached properties first, untraced.
        input.checksum(r.kernel);
        trace::clear();
        trace::enable();
        input.checksum(r.kernel);
        trace::disable();
        let agg = RunAggregate::from_events(&trace::drain());
        assert_eq!(agg.total_flops, r.flops, "{}: {agg:?}", r.kernel);
        if r.kernel == "tricount" {
            assert!(agg.mxm_fused > 0, "tricount ran unfused: {agg:?}");
        }
    }
}
