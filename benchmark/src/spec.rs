//! The benchmark's definition, by name: workloads, end-to-end metrics
//! and per-layer metrics. `BENCHMARK.json` at the repo root is rendered
//! from these tables (`lagraph-benchmark spec`), and a test keeps the
//! two in step; README.md says why each entry exists.

use lagraph::gen::Workload;

use crate::json::Value;

/// How long one run measures, seconds (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: u64 = 14;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Rounds of the six GAP kernels over a static graph.
    Gap { family: Workload, lagc: bool },
    /// Closed-loop rounds of {updates, flush, queries} against a service.
    ServeEpochs,
    /// An open-loop writer beside a closed-loop reader.
    ServeMixed,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// log2 of the vertex count (8 under `--smoke`).
    pub scale: u32,
    /// Kernel threads (`parallel::set_threads`).
    pub threads: usize,
    /// Threads the driver itself drives the program from.
    pub clients: usize,
    pub shards: usize,
}

/// Edge factor (average degree) of every generated graph, as Graph500.
pub const EDGE_FACTOR: usize = 16;
/// Edge weights are uniform integers in `1..=MAX_WEIGHT`.
pub const MAX_WEIGHT: u64 = 255;
pub const SMOKE_SCALE: u32 = 8;

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "gap-rmat16-t1",
        why: "plain single-thread baseline on a skewed graph: kernels do all the work, parallel none",
        kind: Kind::Gap { family: Workload::Rmat, lagc: false },
        scale: 16,
        threads: 1,
        clients: 1,
        shards: 0,
    },
    WorkloadSpec {
        name: "gap-rmat16-t2",
        why: "same inputs at 2 threads: only the parallel layer (pool, chunk split, merge) differs from -t1",
        kind: Kind::Gap { family: Workload::Rmat, lagc: false },
        scale: 16,
        threads: 2,
        clients: 1,
        shards: 0,
    },
    WorkloadSpec {
        name: "gap-flat16-t2",
        why: "uniform-degree control at 2 threads: skew heuristics (nnz split, degree reorder) must show no change",
        kind: Kind::Gap { family: Workload::UniformDegree, lagc: false },
        scale: 16,
        threads: 2,
        clients: 1,
        shards: 0,
    },
    WorkloadSpec {
        name: "gap-rmat16-lagc-t1",
        why: "same kernels reading a .lagc-loaded compressed graph: cursor-path costs and the O(1) load show only here",
        kind: Kind::Gap { family: Workload::Rmat, lagc: true },
        scale: 16,
        threads: 1,
        clients: 1,
        shards: 0,
    },
    WorkloadSpec {
        name: "serve-epochs",
        why: "64-update epochs over 1.8M edges, 2 shards, no views: drainer publish and cache re-derivation dominate",
        kind: Kind::ServeEpochs,
        scale: 16,
        threads: 1,
        clients: 1,
        shards: 2,
    },
    WorkloadSpec {
        name: "serve-mixed",
        why: "open-loop writer beside a closed-loop reader with views: admission, cache, batched BFS and views under contention",
        kind: Kind::ServeMixed,
        scale: 14,
        threads: 1,
        clients: 2,
        shards: 1,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the other side's median the metric may worsen by. On the
    /// end-to-end metrics it is BENCHMARK.json's `bound`; on the
    /// workload-specific user-visible rows it is what `run.sh repeat`
    /// holds them to; single-layer rows carry none.
    pub bound: Option<f64>,
    /// What the value is a statistic over. The count a run actually
    /// reached is in its output file (`samples`).
    pub samples: &'static str,
    /// Which end-to-end metric this one should move, and where.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    samples: &'static str,
) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound), samples, moves: "" }
}

/// A user-visible row that exists on only some workloads.
const fn row(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    samples: &'static str,
    moves: &'static str,
) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound), samples, moves }
}

const PROBE_CALLS: &str = "median of 5 direct calls; 1 where a call takes over --seconds/28";
const ONE_READING: &str = "one reading per run";

/// A layer timing from the probe phase.
const fn probe(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None, samples: PROBE_CALLS, moves }
}

/// A count, a size or a ratio of counts: read once.
const fn count(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None, samples: ONE_READING, moves }
}

/// A layer statistic over the timed phase's own samples.
const fn stat(
    name: &'static str,
    unit: &'static str,
    better: Better,
    samples: &'static str,
    moves: &'static str,
) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None, samples, moves }
}

use Better::{Higher, Lower};

/// What a user of the system sees. The harness reads every one of these
/// from every workload and none may read 0, so each has one definition
/// that all six workloads can meet (README "End-to-end metrics").
/// Timings are seconds on the nominal host (README "Host-normalised
/// timings").
///
/// ISSUE 12 asked for a tenth on every timing and a twentieth on
/// `peak_rss_mb`, with whatever cannot hold it demoted. The harness
/// refuses a bound that the quartile spread of ten runs on ten seeds does
/// not stay inside, and three such series on the sizing box, taken while
/// its neighbours were busy (wall-clock medians spread by 20-35 %, every
/// run tagged `noisy`), read up to 18 % on `bfs_ms`, 14 % on
/// `op_geomean_ms` and `qps`, 16 % on `setup_s` and 8 % on `peak_rss_mb`
/// (README "Steadiness" has the tables): a tenth would sit inside the
/// noise and demoting by the issue's rule would leave `setup_s` alone.
/// So the four timings carry the harness's maximum and `peak_rss_mb`
/// twice its worst spread; the issue's tenth lives on in the
/// workload-specific rows below, which `run.sh repeat` enforces.
pub const END_TO_END: &[MetricSpec] = &[
    e2e(
        "bfs_ms",
        "ms",
        Lower,
        0.25,
        "every computed single-source BFS of the timed phase: 16 a round on gap-*, 4 a round on \
         serve-epochs, the reader's cold-set BFS calls on serve-mixed",
    ),
    e2e(
        "op_geomean_ms",
        "ms",
        Lower,
        0.25,
        "geometric mean of one median per kind of operation: 6 kernels on gap-*, 5 kinds on \
         serve-epochs, 3 on serve-mixed; each median over the rounds or ticks of the timed phase",
    ),
    e2e("qps", "1/s", Higher, 0.25, "every answer of the timed phase over its client wall"),
    e2e("setup_s", "s", Lower, 0.25, "median of 3 set-ups, plus the one warm-up"),
    e2e("peak_rss_mb", "MB", Lower, 0.15, ONE_READING),
];

const GAP_ALL: &str = "op_geomean_ms, qps on gap-*";
const GAP_T2: &str = "bfs_ms, op_geomean_ms, qps on the -t2 workloads only";
const SERVE_PUBLISH: &str = "op_geomean_ms, qps on serve-epochs; op_geomean_ms on serve-mixed";
const SERVE_QUERY: &str = "bfs_ms, qps on serve-mixed";
const ROUNDS: &str = "one trial per round of the timed phase";
const PER_ROUND: &str = "one per round (serve-epochs) or writer tick (serve-mixed)";
const ROUNDS_TRACED: &str = "minimum over the traced rounds";
const SPEEDUP: &str = "ratio of two per-kernel medians (one round at the other thread count)";
const SETUPS: &str = "median of 3 set-ups (1 in a traced run)";
const YARD: &str = "every yardstick sample of the run";
const TICKS: &str = "one per writer tick";
const CALLS: &str = "every admitted call of that kind in the timed phase";

/// Single layers, measured from outside by the traced run, after the
/// user-visible rows that exist on only some workloads. A value of 0 in
/// a traced run's result line means the metric does not apply to the
/// workload that reported it.
pub const PER_LAYER: &[MetricSpec] = &[
    // ISSUE 12's workload-specific end-to-end rows. The harness cannot
    // bound a metric that some workloads lack, so they are listed here;
    // `run.sh repeat` holds them to the issue's tenth where they exist.
    row("bfs_s", "s", Lower, 0.10, ROUNDS, "op_geomean_ms, qps on gap-* (16 sources per trial)"),
    row("pagerank_s", "s", Lower, 0.10, ROUNDS, GAP_ALL),
    row("sssp_s", "s", Lower, 0.10, ROUNDS, GAP_ALL),
    row("cc_s", "s", Lower, 0.10, ROUNDS, GAP_ALL),
    row("tricount_s", "s", Lower, 0.10, ROUNDS, GAP_ALL),
    row("bc_s", "s", Lower, 0.10, ROUNDS, GAP_ALL),
    row("epoch_publish_p50_ms", "ms", Lower, 0.10, PER_ROUND, SERVE_PUBLISH),
    row(
        "first_query_p50_ms",
        "ms",
        Lower,
        0.10,
        "one per round",
        "op_geomean_ms, qps on serve-epochs",
    ),
    row("query_p50_ms", "ms", Lower, 0.10, CALLS, "qps on serve-*"),
    row("query_p95_ms", "ms", Lower, 0.10, CALLS, "qps on serve-mixed"),
    row("visible_p50_ms", "ms", Lower, 0.10, "one per writer tick", "op_geomean_ms on serve-mixed"),
    row(
        "failed_share",
        "ratio",
        Lower,
        0.0,
        "every operation and output check of the run",
        "`failed` and `correct` of every result line; must stay 0",
    ),
    // gen
    probe("gen.build_s", "s", Lower, "setup_s, all workloads"),
    probe("gen.edges_per_s", "1/s", Higher, "setup_s, all workloads"),
    // graph
    probe("graph.structure_s", "s", Lower, "first_query_p50_ms on serve-epochs; setup_s on gap-*"),
    probe("graph.at_s", "s", Lower, "first_query_p50_ms on serve-epochs; setup_s on gap-*"),
    probe("graph.out_degree_s", "s", Lower, "first_query_p50_ms on serve-epochs; setup_s on gap-*"),
    count("graph.resident_bytes_per_edge", "bytes/edge", Lower, "peak_rss_mb, all workloads"),
    // matrix
    probe("matrix.build_s", "s", Lower, "setup_s, all workloads"),
    probe("matrix.pending_assemble_s", "s", Lower, SERVE_PUBLISH),
    probe("matrix.clone_s", "s", Lower, SERVE_PUBLISH),
    probe(
        "matrix.dual_build_s",
        "s",
        Lower,
        "first_query_p50_ms on serve-epochs; setup_s on gap-*",
    ),
    probe("matrix.transpose_s", "s", Lower, "first_query_p50_ms on serve-epochs; setup_s on gap-*"),
    count("matrix.bytes_per_edge", "bytes/edge", Lower, "peak_rss_mb, all workloads"),
    // ops
    probe("ops.mxv.pull_s", "s", Lower, "pagerank_s, cc_s on gap-*"),
    probe("ops.mxv.pull_mflops", "Mflop/s", Higher, "pagerank_s, cc_s on gap-*"),
    probe("ops.mxv.push_s", "s", Lower, "bfs_ms, sssp_s, bc_s everywhere; query_p50_ms on serve-*"),
    probe("ops.mxm.masked_dot_s", "s", Lower, "tricount_s on gap-*"),
    probe("ops.fused.reduce_s", "s", Lower, "tricount_s on gap-*"),
    probe("ops.fused.reduce_mflops", "Mflop/s", Higher, "tricount_s on gap-*"),
    probe("ops.select.tril_s", "s", Lower, "tricount_s on gap-*"),
    probe("ops.mxm.gustavson_s", "s", Lower, "qps, query_p95_ms on serve-mixed"),
    probe(
        "ops.ewise.add_matrix_s",
        "s",
        Lower,
        "epoch_publish_p50_ms, op_geomean_ms on serve-epochs",
    ),
    probe("ops.reduce.rows_s", "s", Lower, "first_query_p50_ms on serve-epochs"),
    // parallel
    probe("parallel.dispatch_us", "us", Lower, GAP_T2),
    stat("parallel.speedup.bfs", "ratio", Higher, SPEEDUP, GAP_T2),
    stat("parallel.speedup.pagerank", "ratio", Higher, SPEEDUP, GAP_T2),
    stat("parallel.speedup.sssp", "ratio", Higher, SPEEDUP, GAP_T2),
    stat("parallel.speedup.cc", "ratio", Higher, SPEEDUP, GAP_T2),
    stat("parallel.speedup.tricount", "ratio", Higher, SPEEDUP, GAP_T2),
    stat("parallel.speedup.bc", "ratio", Higher, SPEEDUP, GAP_T2),
    // cost
    count("cost.push_ns", "ns", Lower, "bfs_ms, sssp_s via direction choice"),
    count("cost.pull_ns", "ns", Lower, "bfs_ms, sssp_s via direction choice"),
    // algorithms
    count("algorithms.bfs.flops", "count", Lower, "bfs_s, bfs_ms on gap-*"),
    count("algorithms.bfs.op_spans", "count", Lower, "bfs_s, bfs_ms on gap-*"),
    count("algorithms.bfs.mispredicts", "count", Lower, "bfs_s, bfs_ms on gap-*"),
    count("algorithms.bfs.unattributed_share", "ratio", Lower, "bfs_s, bfs_ms on gap-*"),
    stat("algorithms.bfs.min_s", "s", Lower, ROUNDS_TRACED, "bfs_s on gap-*"),
    count("algorithms.bfs.push", "count", Lower, "bfs_s, bfs_ms on gap-*"),
    count("algorithms.bfs.pull", "count", Lower, "bfs_s, bfs_ms on gap-*"),
    count("algorithms.pagerank.flops", "count", Lower, "pagerank_s on gap-*"),
    count("algorithms.pagerank.op_spans", "count", Lower, "pagerank_s on gap-*"),
    count("algorithms.pagerank.mispredicts", "count", Lower, "pagerank_s on gap-*"),
    count("algorithms.pagerank.unattributed_share", "ratio", Lower, "pagerank_s on gap-*"),
    stat("algorithms.pagerank.min_s", "s", Lower, ROUNDS_TRACED, "pagerank_s on gap-*"),
    count("algorithms.pagerank.iters", "count", Lower, "pagerank_s on gap-*"),
    count("algorithms.sssp.flops", "count", Lower, "sssp_s on gap-*"),
    count("algorithms.sssp.op_spans", "count", Lower, "sssp_s on gap-*"),
    count("algorithms.sssp.mispredicts", "count", Lower, "sssp_s on gap-*"),
    count("algorithms.sssp.unattributed_share", "ratio", Lower, "sssp_s on gap-*"),
    stat("algorithms.sssp.min_s", "s", Lower, ROUNDS_TRACED, "sssp_s on gap-*"),
    count("algorithms.sssp.push", "count", Lower, "sssp_s on gap-*"),
    count("algorithms.sssp.pull", "count", Lower, "sssp_s on gap-*"),
    count("algorithms.cc.flops", "count", Lower, "cc_s on gap-*"),
    count("algorithms.cc.op_spans", "count", Lower, "cc_s on gap-*"),
    count("algorithms.cc.mispredicts", "count", Lower, "cc_s on gap-*"),
    count("algorithms.cc.unattributed_share", "ratio", Lower, "cc_s on gap-*"),
    stat("algorithms.cc.min_s", "s", Lower, ROUNDS_TRACED, "cc_s on gap-*"),
    count("algorithms.tricount.flops", "count", Lower, "tricount_s on gap-*"),
    count("algorithms.tricount.op_spans", "count", Lower, "tricount_s on gap-*"),
    count("algorithms.tricount.mispredicts", "count", Lower, "tricount_s on gap-*"),
    count("algorithms.tricount.unattributed_share", "ratio", Lower, "tricount_s on gap-*"),
    stat("algorithms.tricount.min_s", "s", Lower, ROUNDS_TRACED, "tricount_s on gap-*"),
    count("algorithms.bc.flops", "count", Lower, "bc_s on gap-*"),
    count("algorithms.bc.op_spans", "count", Lower, "bc_s on gap-*"),
    count("algorithms.bc.mispredicts", "count", Lower, "bc_s on gap-*"),
    count("algorithms.bc.unattributed_share", "ratio", Lower, "bc_s on gap-*"),
    stat("algorithms.bc.min_s", "s", Lower, ROUNDS_TRACED, "bc_s on gap-*"),
    // compressed / io
    probe("compressed.encode_s", "s", Lower, "setup_s on gap-rmat16-lagc-t1"),
    count("compressed.bytes_per_edge", "bytes/edge", Lower, "peak_rss_mb on gap-rmat16-lagc-t1"),
    probe("compressed.pull_slowdown", "ratio", Lower, "every metric on gap-rmat16-lagc-t1"),
    probe("io.lagc_write_s", "s", Lower, "setup_s on gap-rmat16-lagc-t1"),
    probe("io.lagc_load_s", "s", Lower, "setup_s on gap-rmat16-lagc-t1"),
    // service.drainer
    count("drainer.epochs", "count", Higher, SERVE_PUBLISH),
    count("drainer.epochs_per_flush", "ratio", Lower, SERVE_PUBLISH),
    count("drainer.updates_per_s", "1/s", Higher, SERVE_PUBLISH),
    stat("drainer.publish_p95_ms", "ms", Lower, PER_ROUND, SERVE_PUBLISH),
    count("drainer.resident_ratio", "ratio", Lower, "peak_rss_mb on serve-*"),
    // service.admission / cache / views
    stat("admission.bfs_p50_ms", "ms", Lower, CALLS, SERVE_QUERY),
    stat("admission.cc_p50_ms", "ms", Lower, CALLS, SERVE_QUERY),
    stat("admission.degrees_p50_ms", "ms", Lower, CALLS, SERVE_QUERY),
    stat("admission.tricount_p50_ms", "ms", Lower, CALLS, SERVE_QUERY),
    stat("admission.batch_p50_ms", "ms", Lower, CALLS, SERVE_QUERY),
    count("admission.batch_width_mean", "count", Higher, SERVE_QUERY),
    stat("admission.query_p99_ms", "ms", Lower, CALLS, SERVE_QUERY),
    count("cache.hit_ratio", "ratio", Higher, SERVE_QUERY),
    stat("views.start_s", "s", Lower, SETUPS, "setup_s on serve-mixed; nothing on serve-epochs"),
    count(
        "views.repairs",
        "count",
        Higher,
        "visible_p50_ms on serve-mixed; nothing on serve-epochs",
    ),
    count(
        "views.rebuilds",
        "count",
        Lower,
        "visible_p50_ms on serve-mixed; nothing on serve-epochs",
    ),
    count(
        "views.repair_ratio",
        "ratio",
        Higher,
        "visible_p50_ms on serve-mixed; nothing on serve-epochs",
    ),
    count("views.hit_ratio", "ratio", Higher, "qps on serve-mixed; nothing on serve-epochs"),
    // host / trace: did the run measure the program or the neighbours?
    stat("host.calib_ms", "ms", Lower, YARD, "every timing, all workloads (host, not program)"),
    count("host.calib_spread", "ratio", Lower, "every timing, all workloads (host, not program)"),
    stat(
        "writer.late_p95_ms",
        "ms",
        Lower,
        TICKS,
        "visible_p50_ms on serve-mixed (generator lateness)",
    ),
    count("trace.overhead_share", "ratio", Lower, "nothing: the cost of the traced run itself"),
];

pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

fn better_word(b: Better) -> &'static str {
    match b {
        Lower => "lower",
        Higher => "higher",
    }
}

/// A metric as BENCHMARK.json lists it: the contract's keys only.
fn contract_entry(m: &MetricSpec, with_bound: bool) -> Value {
    let mut kv = vec![
        ("name".to_string(), m.name.into()),
        ("unit".into(), m.unit.into()),
        ("better".into(), better_word(m.better).into()),
    ];
    if with_bound {
        kv.push(("bound".into(), m.bound.expect("end-to-end metrics carry a bound").into()));
    }
    Value::Obj(kv)
}

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn benchmark_json() -> Value {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Value::Obj(vec![("name".into(), w.name.into()), ("why".into(), w.why.into())]));
    Value::Obj(vec![
        ("command".into(), Value::Arr(vec!["bash".into(), "benchmark/run.sh".into()])),
        ("paths".into(), Value::Arr(vec!["benchmark".into()])),
        ("run_seconds".into(), RUN_SECONDS.into()),
        ("workloads".into(), Value::Arr(workloads.collect())),
        (
            "end_to_end".into(),
            Value::Arr(END_TO_END.iter().map(|m| contract_entry(m, true)).collect()),
        ),
        (
            "per_layer".into(),
            Value::Arr(PER_LAYER.iter().map(|m| contract_entry(m, false)).collect()),
        ),
    ])
}

/// `benchmark/METRICS.json`: what BENCHMARK.json has no key for. Every
/// metric again, with what its value is a statistic over, the bound
/// `run.sh repeat` holds it to, and the end-to-end metric it should move.
pub fn metrics_json() -> Value {
    let entry = |m: &MetricSpec| {
        let mut kv = vec![
            ("name".to_string(), m.name.into()),
            ("unit".into(), m.unit.into()),
            ("better".into(), better_word(m.better).into()),
        ];
        kv.extend(m.bound.map(|b| ("bound".to_string(), b.into())));
        kv.push(("samples".into(), m.samples.into()));
        if !m.moves.is_empty() {
            kv.push(("moves".into(), m.moves.into()));
        }
        Value::Obj(kv)
    };
    Value::Obj(vec![
        ("end_to_end".into(), Value::Arr(END_TO_END.iter().map(entry).collect())),
        ("per_layer".into(), Value::Arr(PER_LAYER.iter().map(entry).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = std::collections::HashSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
            assert!(w.threads >= 1 && w.clients >= 1);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit of {}",
                m.name
            );
        }
        for m in END_TO_END {
            let b = m.bound.expect("bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(!m.moves.is_empty() && !m.samples.is_empty(), "{}", m.name);
            assert!(m.bound.is_none_or(|b| (0.0..=0.25).contains(&b)), "{}", m.name);
        }
        let setup = metric("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
        assert!(benchmark_json().render_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn the_json_files_are_rendered_from_these_tables() {
        let read = |path: &str| {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
            crate::json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
        };
        assert_eq!(
            read(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")),
            benchmark_json(),
            "run `benchmark/run.sh spec > BENCHMARK.json`"
        );
        assert_eq!(
            read(concat!(env!("CARGO_MANIFEST_DIR"), "/METRICS.json")),
            metrics_json(),
            "run `benchmark/run.sh metrics > benchmark/METRICS.json`"
        );
    }
}
