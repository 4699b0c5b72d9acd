//! The gap-* workloads: rounds of the six GAP kernels — bfs, pagerank,
//! sssp, cc, tricount, bc, in that order — through the `Graph`-level
//! entry points, over a graph generated (and for `-lagc` written to and
//! loaded from a `.lagc` container) in set-up.

use std::time::Instant;

use graphblas::trace::{self, Cat, RunAggregate};
use graphblas::{parallel, Vector};
use lagraph::{
    betweenness_centrality, bfs_level, connected_components, pagerank, sssp_delta_stepping,
    triangle_count, Graph, GraphKind, PageRankOptions, TriCountMethod,
};

use crate::inputs::{self, mix};
use crate::oracle::{self, Adj};
use crate::run::{secs, Ctx};
use crate::spec::{Kind, EDGE_FACTOR, MAX_WEIGHT};
use crate::{host, probes, stats};

pub const KERNELS: [&str; 6] = ["bfs", "pagerank", "sssp", "cc", "tricount", "bc"];
const KERNEL_SPANS: [&str; 6] =
    ["kernel.bfs", "kernel.pagerank", "kernel.sssp", "kernel.cc", "kernel.tricount", "kernel.bc"];
const BFS: usize = 0;
const PAGERANK: usize = 1;
const SSSP: usize = 2;
const CC: usize = 3;
const TRICOUNT: usize = 4;
const BC: usize = 5;

const BFS_SOURCES: usize = 16;
const SSSP_SOURCES: usize = 4;
const BC_SOURCES: usize = 4;
/// Δ for Δ-stepping: a quarter of the weight range, as `crates/bench` uses.
const SSSP_DELTA: f64 = 64.0;
pub const PAGERANK_OPTS: PageRankOptions =
    PageRankOptions { damping: 0.85, tolerance: 1e-6, max_iters: 100 };
/// Kernel answers one round produces (`qps` counts these).
const ANSWERS_PER_ROUND: usize = BFS_SOURCES + 1 + SSSP_SOURCES + 1 + 1 + 1;
/// What one set-up built, and what each part of it cost (seconds on the
/// nominal host).
pub struct Setup {
    pub graph: Graph,
    pub sources: Vec<usize>,
    pub total_s: f64,
    pub gen_s: f64,
    pub lagc_write_s: f64,
    pub lagc_load_s: f64,
}

/// Generate the workload's graph from the seed, move it to `.lagc` and
/// back when the workload says so, derive the cached properties and
/// pick the sources.
pub fn setup(ctx: &mut Ctx) -> Result<Setup, String> {
    let Kind::Gap { family, lagc } = ctx.spec.kind else { unreachable!("gap workload") };
    let yard_before = ctx.yard.sample();
    let span = ctx.rec.begin("setup");
    let t0 = Instant::now();

    let s = ctx.rec.begin("gen");
    let mut graph = family
        .graph(ctx.scale(), EDGE_FACTOR, mix(ctx.seed, inputs::GRAPH), MAX_WEIGHT)
        .map_err(|e| format!("generate: {e}"))?;
    ctx.rec.end(s);
    let gen_s = secs(t0);

    let (mut lagc_write_s, mut lagc_load_s) = (0.0, 0.0);
    if lagc {
        std::fs::create_dir_all(&ctx.out_dir).map_err(|e| format!("create out dir: {e}"))?;
        let path = ctx.out_dir.join(format!("{}.{}.lagc", ctx.spec.name, std::process::id()));
        let s = ctx.rec.begin("lagc.write");
        let t = Instant::now();
        lagraph_io::binary::write_lagc(graph.a(), &path).map_err(|e| format!("lagc write: {e}"))?;
        lagc_write_s = secs(t);
        ctx.rec.end(s);
        let s = ctx.rec.begin("lagc.load");
        let t = Instant::now();
        let loaded = Graph::from_lagc(&path, GraphKind::Undirected);
        lagc_load_s = secs(t);
        ctx.rec.end(s);
        // The mapping outlives the name; nothing is left behind on disk.
        let _ = std::fs::remove_file(&path);
        graph = loaded.map_err(|e| format!("lagc load: {e}"))?;
    }

    let s = ctx.rec.begin("derive");
    let derived = graph
        .structure()
        .and_then(|_| graph.at())
        .and_then(|_| graph.out_degree())
        .map_err(|e| format!("derive cached properties: {e}"))?;
    ctx.rec.end(s);

    let mut degree = vec![0u32; graph.nvertices()];
    for (v, d) in derived.iter() {
        degree[v] = d as u32;
    }
    let sources = inputs::pick_sources(&degree, BFS_SOURCES, mix(ctx.seed, inputs::SOURCES));
    if sources.len() < BFS_SOURCES {
        return Err("generated graph has too few non-isolated vertices".into());
    }
    let total_s = secs(t0);
    ctx.rec.end(span);
    let f = ctx.yard.factor_since(yard_before);
    Ok(Setup {
        graph,
        sources,
        total_s: total_s * f,
        gen_s: gen_s * f,
        lagc_write_s: lagc_write_s * f,
        lagc_load_s: lagc_load_s * f,
    })
}

/// The last outputs of each kernel, kept for the oracles.
#[derive(Default)]
struct Outputs {
    levels: Vec<(usize, Vector<i32>)>,
    ranks: Option<Vector<f64>>,
    dists: Vec<(usize, Vector<f64>)>,
    components: Option<Vector<u64>>,
    triangles: Option<u64>,
    centrality: Option<Vector<f64>>,
}

/// Per-kernel counts drained from the library's trace ring.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    agg: RunAggregate,
    op_spans: u64,
}

impl Counts {
    /// The counts that must repeat exactly (the wall times beside them
    /// in the aggregate do not).
    fn exact(&self) -> [u64; 5] {
        [self.agg.total_flops, self.op_spans, self.agg.mispredicts, self.agg.push, self.agg.pull]
    }
}

/// One round's measurements. Times are seconds on the nominal host:
/// each kernel's wall scaled by the yardstick samples that bracket it.
struct Round {
    /// Trial wall of each kernel.
    kernel: [f64; 6],
    /// Per-source BFS latencies.
    bfs: Vec<f64>,
    /// The same as the clock read it: what the `--seconds` budget and
    /// the ring's own wall-clock op spans are held against.
    clock: [f64; 6],
    pagerank_iters: usize,
    outputs: Outputs,
    /// Present when the trace ring was on for this round.
    counts: Option<[Counts; 6]>,
}

impl Round {
    /// Time inside the six kernels. The driver's bookkeeping between
    /// them (yardstick samples, ring drains) is not part of it.
    fn wall_s(&self) -> f64 {
        self.kernel.iter().sum()
    }

    fn clock_s(&self) -> f64 {
        self.clock.iter().sum()
    }
}

fn drain_into(counts: &mut Counts) {
    for e in trace::drain() {
        counts.agg.record(&e);
        if e.cat == Cat::Op && e.dur_ns > 0 {
            counts.op_spans += 1;
        }
    }
}

/// One round: the six kernels in order, the yardstick sampled between
/// them. `ring` says whether the library's trace ring is on and should be
/// drained after each kernel.
fn run_round(ctx: &mut Ctx, su: &Setup, label: &'static str, index: u64, ring: bool) -> Round {
    let g = &su.graph;
    let mut r = Round {
        kernel: [0.0; 6],
        bfs: Vec::with_capacity(BFS_SOURCES),
        clock: [0.0; 6],
        pagerank_iters: 0,
        outputs: Outputs::default(),
        counts: ring.then(|| [Counts::default(); 6]),
    };
    let round_span = ctx.rec.begin_at(label, index);
    let mut yard_before = ctx.yard.sample();
    for k in 0..KERNELS.len() {
        let span = ctx.rec.begin(KERNEL_SPANS[k]);
        let t_kernel = Instant::now();
        match k {
            BFS => {
                for &s in &su.sources {
                    let sp = ctx.rec.begin_at("source", s as u64);
                    let t = Instant::now();
                    let levels = ctx.out.op("bfs", bfs_level(g, s));
                    r.bfs.push(secs(t));
                    ctx.rec.end(sp);
                    r.outputs.levels.extend(levels.map(|l| (s, l)));
                }
            }
            PAGERANK => {
                if let Some((ranks, iters)) = ctx.out.op("pagerank", pagerank(g, &PAGERANK_OPTS)) {
                    r.pagerank_iters = iters;
                    r.outputs.ranks = Some(ranks);
                }
            }
            SSSP => {
                for &s in &su.sources[..SSSP_SOURCES] {
                    let sp = ctx.rec.begin_at("source", s as u64);
                    let dist = ctx.out.op("sssp", sssp_delta_stepping(g, s, SSSP_DELTA));
                    ctx.rec.end(sp);
                    r.outputs.dists.extend(dist.map(|d| (s, d)));
                }
            }
            CC => r.outputs.components = ctx.out.op("cc", connected_components(g)),
            TRICOUNT => {
                r.outputs.triangles =
                    ctx.out.op("tricount", triangle_count(g, TriCountMethod::Sandia));
            }
            BC => {
                r.outputs.centrality =
                    ctx.out.op("bc", betweenness_centrality(g, &su.sources[..BC_SOURCES]));
            }
            _ => unreachable!("six kernels"),
        }
        let wall = secs(t_kernel);
        ctx.rec.end(span);
        let yard_after = ctx.yard.sample();
        let f = ctx.yard.factor(yard_before, yard_after);
        yard_before = yard_after;
        r.clock[k] = wall;
        r.kernel[k] = wall * f;
        if k == BFS {
            r.bfs.iter_mut().for_each(|s| *s *= f);
        }
        if let Some(counts) = &mut r.counts {
            drain_into(&mut counts[k]);
        }
    }
    ctx.rec.end(round_span);
    r
}

/// Rounds until the time inside their kernels reaches `budget_s` (at
/// least `min_rounds`; exactly two under `--smoke`).
fn run_rounds(
    ctx: &mut Ctx,
    su: &Setup,
    label: &'static str,
    budget_s: f64,
    min_rounds: usize,
    ring: bool,
) -> Vec<Round> {
    let mut rounds: Vec<Round> = Vec::new();
    let mut busy = 0.0;
    loop {
        let last = rounds.last().map_or(0.0, Round::clock_s);
        let enough = if ctx.smoke { rounds.len() >= 2 } else { busy + last > budget_s };
        if rounds.len() >= min_rounds && enough {
            break;
        }
        let r = run_round(ctx, su, label, rounds.len() as u64, ring);
        busy += r.clock_s();
        rounds.push(r);
    }
    rounds
}

/// Median trial wall of each kernel over the rounds, seconds.
fn kernel_medians(rounds: &[Round]) -> [f64; 6] {
    std::array::from_fn(|k| stats::median(&rounds.iter().map(|r| r.kernel[k]).collect::<Vec<_>>()))
}

/// The end-to-end rows (and the kernel trial walls behind them) from a
/// set of rounds.
fn report_rounds(ctx: &mut Ctx, rounds: &[Round]) {
    let bfs: Vec<f64> = rounds.iter().flat_map(|r| r.bfs.iter().copied()).collect();
    let answers = rounds.len() * ANSWERS_PER_ROUND;
    let busy_s: f64 = rounds.iter().map(Round::wall_s).sum();
    let med = kernel_medians(rounds);
    ctx.out.set_n("bfs_ms", stats::median(&bfs) * 1e3, bfs.len());
    ctx.out.set_n("op_geomean_ms", stats::geomean(&med) * 1e3, rounds.len());
    ctx.out.set_n("qps", answers as f64 / busy_s, answers);
    for (k, name) in KERNELS.iter().enumerate() {
        ctx.out.set_n(&format!("{name}_s"), med[k], rounds.len());
    }
}

/// The `algorithms.*` rows from the traced rounds.
fn report_counts(ctx: &mut Ctx, traced: &[Round]) {
    let per_round: Vec<[Counts; 6]> = traced.iter().filter_map(|r| r.counts).collect();
    let Some(last) = per_round.last() else { return };
    let exact = |c: &[Counts; 6]| c.map(|k| k.exact());
    if ctx.spec.threads == 1 && per_round.iter().any(|c| exact(c) != exact(last)) {
        ctx.out.check("algorithms.* counts repeat between rounds at threads=1", false);
    }
    for (k, name) in KERNELS.iter().enumerate() {
        let c = &last[k];
        let clock_s: f64 = traced.iter().map(|r| r.clock[k]).sum();
        let op_wall: f64 = per_round.iter().map(|c| c[k].agg.op_wall_ns as f64 / 1e9).sum();
        let key = |field: &str| format!("algorithms.{name}.{field}");
        ctx.out.set(&key("flops"), c.agg.total_flops as f64);
        ctx.out.set(&key("op_spans"), c.op_spans as f64);
        ctx.out.set(&key("mispredicts"), c.agg.mispredicts as f64);
        ctx.out.set(&key("unattributed_share"), 1.0 - op_wall / clock_s);
        let min_s = traced.iter().map(|r| r.kernel[k]).fold(f64::INFINITY, f64::min);
        ctx.out.set_n(&key("min_s"), min_s, traced.len());
        if k == BFS || k == SSSP {
            ctx.out.set(&key("push"), c.agg.push as f64);
            ctx.out.set(&key("pull"), c.agg.pull as f64);
        }
    }
    if let Some(r) = traced.last() {
        ctx.out.set("algorithms.pagerank.iters", r.pagerank_iters as f64);
    }
}

/// Check the last round's outputs against the oracles, once per kernel.
fn verify(ctx: &mut Ctx, su: &Setup, outputs: &Outputs) {
    let span = ctx.rec.begin("verify");
    let adj = Adj::from_arcs(su.graph.nvertices(), su.graph.a().extract_tuples());
    ctx.out.check("bfs ran every source", outputs.levels.len() == su.sources.len());
    for (s, levels) in &outputs.levels {
        ctx.out.check("bfs levels", oracle::check_bfs(&adj, *s, &levels.extract_tuples()));
    }
    ctx.out.check("sssp ran every source", outputs.dists.len() == SSSP_SOURCES);
    for (s, dist) in &outputs.dists {
        ctx.out.check("sssp distances", oracle::check_sssp(&adj, *s, &dist.extract_tuples()));
    }
    ctx.out.check(
        "pagerank within 1e-4 L1",
        outputs.ranks.as_ref().is_some_and(|r| {
            oracle::check_pagerank(&adj, PAGERANK_OPTS.damping, &r.extract_tuples(), 1e-4)
        }),
    );
    ctx.out.check(
        "cc partition",
        outputs
            .components
            .as_ref()
            .is_some_and(|c| oracle::check_components(&adj, &c.extract_tuples())),
    );
    ctx.out.check("triangle count", outputs.triangles == Some(oracle::triangles(&adj)));
    ctx.out.check(
        "betweenness",
        outputs.centrality.as_ref().is_some_and(|bc| {
            oracle::check_betweenness(&adj, &su.sources[..BC_SOURCES], &bc.extract_tuples())
        }),
    );
    ctx.rec.end(span);
}

/// A short pass over the cheap kernels: faults the graph in, builds the
/// structure's dual storage, spins up the pool and calibrates the cost
/// model, so the first timed round is not the one that pays for them.
fn warm_up(ctx: &mut Ctx, su: &Setup) -> f64 {
    let yard_before = ctx.yard.sample();
    let t0 = Instant::now();
    let span = ctx.rec.begin("warmup");
    let _ = ctx.out.op("warmup bfs", bfs_level(&su.graph, su.sources[0]));
    let _ = ctx.out.op("warmup cc", connected_components(&su.graph));
    ctx.rec.end(span);
    let warm_s = secs(t0);
    warm_s * ctx.yard.factor_since(yard_before)
}

/// The traced run's middle: reference rounds, ring-on rounds, the other
/// thread count, the probes. Returns the last traced round's outputs.
fn traced_phases(ctx: &mut Ctx, su: &Setup) -> Option<Outputs> {
    // Reference rounds with the ring off, then the same rounds with it
    // on: the difference is what tracing costs.
    let reference = run_rounds(ctx, su, "ref_round", ctx.seconds * 0.3, 2, false);
    trace::enable();
    trace::clear();
    let traced = run_rounds(ctx, su, "round", ctx.seconds * 0.3, 2, true);
    trace::disable();
    trace::clear();
    ctx.out.set("peak_rss_mb", ctx.peak_rss_mb());
    report_rounds(ctx, &reference);
    report_counts(ctx, &traced);
    let wall = |rs: &[Round]| stats::median(&rs.iter().map(Round::wall_s).collect::<Vec<_>>());
    ctx.out.set("trace.overhead_share", wall(&traced) / wall(&reference) - 1.0);

    // One round at the other thread count gives the speed-up of 2 threads
    // over 1 inside one process, on one graph.
    if host::host_cores() >= 2 {
        let other = if ctx.spec.threads == 1 { 2 } else { 1 };
        parallel::set_threads(other);
        let alt = run_rounds(ctx, su, "alt_round", 0.0, 1, false);
        parallel::set_threads(ctx.spec.threads);
        let (own, alt) = (kernel_medians(&reference), kernel_medians(&alt));
        for (k, name) in KERNELS.iter().enumerate() {
            let (t1, t2) = if other == 2 { (own[k], alt[k]) } else { (alt[k], own[k]) };
            ctx.out.set(&format!("parallel.speedup.{name}"), t1 / t2);
            ctx.out.note(format!("parallel.speedup.{name} = {t1} s at 1 thread / {t2} s at 2"));
        }
    } else {
        ctx.out.note("parallel.speedup.* skipped: the host has one core");
    }
    probes::run(ctx, &su.graph);
    traced.into_iter().next_back().map(|r| r.outputs)
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    parallel::set_threads(ctx.spec.threads);
    let run_span = ctx.rec.begin("run");
    let su = setup(ctx)?;
    ctx.out.nvertices = su.graph.nvertices();
    ctx.out.nedges = su.graph.nedges();
    let warm_s = warm_up(ctx, &su);

    let last_outputs = if ctx.traced {
        traced_phases(ctx, &su)
    } else {
        let rounds = run_rounds(ctx, &su, "round", ctx.seconds, 2, false);
        ctx.out.set("peak_rss_mb", ctx.peak_rss_mb());
        report_rounds(ctx, &rounds);
        rounds.into_iter().next_back().map(|r| r.outputs)
    };
    verify(ctx, &su, &last_outputs.unwrap_or_default());

    // Set-up again, after everything that reads the resident set, so
    // `setup_s` is a median without the repeats inflating `peak_rss_mb`.
    let (mut total, mut gen) = (vec![su.total_s], vec![su.gen_s]);
    let (mut lagc_write, mut lagc_load) = (vec![su.lagc_write_s], vec![su.lagc_load_s]);
    drop(su);
    for _ in 1..ctx.setup_repeats() {
        let again = setup(ctx)?;
        total.push(again.total_s);
        gen.push(again.gen_s);
        lagc_write.push(again.lagc_write_s);
        lagc_load.push(again.lagc_load_s);
    }
    ctx.report_setup(&total, warm_s);
    if !ctx.traced {
        // The traced run's probe phase measured these directly.
        let gen_s = stats::median(&gen);
        ctx.out.set_n("gen.build_s", gen_s, gen.len());
        ctx.out.set_n("gen.edges_per_s", ctx.out.nedges as f64 / gen_s, gen.len());
        if let Kind::Gap { lagc: true, .. } = ctx.spec.kind {
            ctx.out.set_n("io.lagc_write_s", stats::median(&lagc_write), gen.len());
            ctx.out.set_n("io.lagc_load_s", stats::median(&lagc_load), gen.len());
        }
    }
    ctx.rec.end(run_span);
    Ok(())
}
