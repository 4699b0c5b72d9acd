//! The GAP-style end-to-end benchmark harness behind the `lagraph-bench`
//! binary: generate a seeded synthetic workload ([`lagraph::gen`]), run
//! each selected algorithm with warmup + N timed trials, roll up the
//! trace layer's per-run aggregates (flops, direction choices, peak
//! assembly backlogs), and emit a schema-versioned machine-readable
//! report plus a human summary table. [`compare`] diffs two reports and
//! flags regressions, which is how CI and future PRs track the perf
//! trajectory.

use std::time::Instant;

use graphblas::prelude::*;
use graphblas::trace::{self, RunAggregate};
use lagraph::gen::Workload;
use lagraph::{
    bfs_level_matrix, connected_components, pagerank, sssp_delta_stepping, triangle_count, Graph,
    PageRankOptions, TriCountMethod,
};

use crate::json::{parse, Value};

/// Report schema identifier; bump the suffix on breaking field changes.
/// [`compare`] accepts any `lagraph-bench/*` document and reports the
/// versions, so old baselines stay readable.
pub const SCHEMA: &str = "lagraph-bench/1";

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// The algorithms the harness measures — the GAP benchmark's kernel set
/// as realized by this repository's LAGraph collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Direction-optimized level BFS over the Boolean structure.
    Bfs,
    /// GAP-formulation PageRank to an L1 tolerance of 1e-6.
    PageRank,
    /// Delta-stepping SSSP over the weighted adjacency.
    Sssp,
    /// Connected components (undirected label propagation / FastSV).
    Cc,
    /// Triangle counting, Sandia masked-mxm formulation.
    TriCount,
}

/// All algorithms, in canonical report order.
pub const ALL_ALGOS: [Algo; 5] = [Algo::Bfs, Algo::PageRank, Algo::Sssp, Algo::Cc, Algo::TriCount];

impl Algo {
    /// The name used in reports, CLI arguments, and summary tables.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Bfs => "bfs",
            Algo::PageRank => "pagerank",
            Algo::Sssp => "sssp",
            Algo::Cc => "cc",
            Algo::TriCount => "tricount",
        }
    }

    /// Parse one algorithm name (`bfs`, `pagerank`/`pr`, `sssp`, `cc`,
    /// `tricount`/`tc`).
    pub fn parse(s: &str) -> Option<Algo> {
        match s.to_ascii_lowercase().as_str() {
            "bfs" => Some(Algo::Bfs),
            "pagerank" | "pr" => Some(Algo::PageRank),
            "sssp" => Some(Algo::Sssp),
            "cc" => Some(Algo::Cc),
            "tricount" | "tc" | "triangle" => Some(Algo::TriCount),
            _ => None,
        }
    }

    /// Parse a comma-separated list; `all` selects every algorithm.
    pub fn parse_list(s: &str) -> Option<Vec<Algo>> {
        if s.eq_ignore_ascii_case("all") {
            return Some(ALL_ALGOS.to_vec());
        }
        let mut out = Vec::new();
        for part in s.split(',') {
            let a = Algo::parse(part.trim())?;
            if !out.contains(&a) {
                out.push(a);
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }
}

/// Which storage form the benchmark graph uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// The standard CSR/hypersparse forms (the default).
    Csr,
    /// The gap-encoded compressed read-optimized form
    /// (`graphblas::compressed`): same results bit-for-bit, roughly
    /// half the resident bytes on power-law graphs.
    Compressed,
}

impl Storage {
    /// Lower-case name used in reports and on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            Storage::Csr => "csr",
            Storage::Compressed => "compressed",
        }
    }

    /// Parse a CLI/report value.
    pub fn parse(s: &str) -> Option<Storage> {
        match s {
            "csr" => Some(Storage::Csr),
            "compressed" => Some(Storage::Compressed),
            _ => None,
        }
    }
}

/// One harness invocation's full configuration.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Workload family to generate.
    pub workload: Workload,
    /// log₂ vertex count.
    pub scale: u32,
    /// Average degree (Graph500 uses 16).
    pub edge_factor: usize,
    /// Generator seed; the whole run is a pure function of this config.
    pub seed: u64,
    /// Edge weights drawn uniformly from `1..=max_weight` (SSSP input).
    pub max_weight: u64,
    /// Timed trials per algorithm.
    pub trials: usize,
    /// Untimed warmup runs per algorithm.
    pub warmup: usize,
    /// Number of distinct BFS/SSSP source vertices per trial.
    pub sources: usize,
    /// Algorithms to run, in report order.
    pub algos: Vec<Algo>,
    /// Storage form for the adjacency and its Boolean structure.
    pub storage: Storage,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            workload: Workload::Rmat,
            scale: 12,
            edge_factor: 16,
            seed: 42,
            max_weight: 255,
            trials: 3,
            warmup: 1,
            sources: 4,
            algos: ALL_ALGOS.to_vec(),
            storage: Storage::Csr,
        }
    }
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// Timings and aggregates for one algorithm.
#[derive(Debug, Clone)]
pub struct AlgoResult {
    /// Which algorithm.
    pub algo: Algo,
    /// Wall time of each timed trial, in nanoseconds.
    pub trials_ns: Vec<u64>,
    /// Trace-layer roll-up accumulated over all timed trials.
    pub agg: RunAggregate,
    /// An order-insensitive checksum of the output (level sums, rank
    /// dot-products, distance sums, …): identical configs must reproduce
    /// it bit-for-bit, so [`compare`] can flag semantic drift alongside
    /// performance drift.
    pub checksum: f64,
}

impl AlgoResult {
    /// The `q`-quantile of the timed trials (nearest-rank).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        quantile_ns(&self.trials_ns, q)
    }
}

/// Nearest-rank quantile of raw trial times.
pub fn quantile_ns(trials: &[u64], q: f64) -> u64 {
    if trials.is_empty() {
        return 0;
    }
    let mut sorted = trials.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64) * q).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// A finished run: configuration echo, workload facts, and per-algorithm
/// results — everything the JSON report persists.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Schema identifier (see [`SCHEMA`]).
    pub schema: String,
    /// ISO date (UTC) the run finished.
    pub date: String,
    /// Workload family name.
    pub workload: String,
    /// log₂ vertex count.
    pub scale: u32,
    /// Average degree.
    pub edge_factor: usize,
    /// Generator seed.
    pub seed: u64,
    /// Weight range upper bound.
    pub max_weight: u64,
    /// Vertices in the generated graph.
    pub nvertices: usize,
    /// Stored entries in the adjacency (2× undirected edge count).
    pub nedges: usize,
    /// Worker threads the kernels used (`GRAPHBLAS_THREADS` effective).
    pub threads: usize,
    /// Whether the kernel-specialization table was active
    /// (`GRAPHBLAS_SPECIALIZE` effective) — which side of the A/B this
    /// run measured.
    pub specialize: bool,
    /// Timed trials per algorithm.
    pub trials: usize,
    /// Warmup runs per algorithm.
    pub warmup: usize,
    /// The BFS/SSSP source vertices used in every trial.
    pub sources: Vec<usize>,
    /// Storage form the run used (`csr` or `compressed`).
    pub storage: String,
    /// Adjacency resident bytes divided by stored edges, measured via
    /// `memory_usage()` after the timed trials — the compression-ratio
    /// trajectory number.
    pub bytes_per_edge: f64,
    /// Per-algorithm results, in run order.
    pub algos: Vec<AlgoResult>,
    /// Flat [`graphblas::metrics`] snapshot taken after the timed
    /// trials (`(series, value)` pairs): span latency/flops counts,
    /// dispatch counters, pool width — the live-registry view of the
    /// same run the trace aggregates summarize.
    pub metrics: Vec<(String, f64)>,
}

// ---------------------------------------------------------------------------
// Running
// ---------------------------------------------------------------------------

/// Generate the workload and run every configured algorithm. The graph
/// is built once and shared; each algorithm gets `warmup` untimed and
/// `trials` timed runs with tracing recorded and rolled up per trial.
pub fn run(cfg: &HarnessConfig) -> Result<BenchReport> {
    let mut graph = cfg.workload.graph(cfg.scale, cfg.edge_factor, cfg.seed, cfg.max_weight)?;
    if cfg.storage == Storage::Compressed {
        graph.set_compressed(true);
    }
    run_on(cfg, &graph)
}

/// [`run`] against an already-built graph (the unit tests inject tiny
/// fixed graphs this way).
pub fn run_on(cfg: &HarnessConfig, graph: &Graph) -> Result<BenchReport> {
    // The Boolean structure with dual storage, so BFS direction
    // optimization has both orientations available.
    let mut structure = graph.a().pattern();
    structure.set_dual_storage(true);
    if cfg.storage == Storage::Compressed {
        structure.set_compressed(true);
    }
    structure.wait();

    let sources = pick_sources(graph, cfg.sources, cfg.seed)?;
    // Delta tuned to the weight range; GAP uses Δ≈avg-degree-scaled
    // constants, a quarter of the max weight works across our range.
    let delta = (cfg.max_weight as f64 / 4.0).max(1.0);

    let prev_mode = trace::mode();
    // Record the live-metrics view of the run alongside the trace
    // aggregates; restored to its prior state before returning.
    let metrics_prev = graphblas::metrics::enabled();
    graphblas::metrics::set_enabled(true);
    let mut algos = Vec::with_capacity(cfg.algos.len());
    for &algo in &cfg.algos {
        let run_once = || -> Result<f64> {
            match algo {
                Algo::Bfs => {
                    let mut sum = 0.0;
                    for &s in &sources {
                        let levels = bfs_level_matrix(&structure, s, Direction::Auto)?;
                        for (v, l) in levels.iter() {
                            sum += (l as f64) + (v as f64) * 1e-9;
                        }
                    }
                    Ok(sum)
                }
                Algo::PageRank => {
                    let opts = PageRankOptions { tolerance: 1e-6, ..Default::default() };
                    let (ranks, iters) = pagerank(graph, &opts)?;
                    let mut sum = iters as f64;
                    for (v, r) in ranks.iter() {
                        sum += r * (1.0 + v as f64 * 1e-9);
                    }
                    Ok(sum)
                }
                Algo::Sssp => {
                    let mut sum = 0.0;
                    for &s in &sources {
                        let dist = sssp_delta_stepping(graph, s, delta)?;
                        for (_, d) in dist.iter() {
                            sum += d;
                        }
                    }
                    Ok(sum)
                }
                Algo::Cc => {
                    let comp = connected_components(graph)?;
                    let mut sum = 0.0;
                    for (_, c) in comp.iter() {
                        sum += c as f64;
                    }
                    Ok(sum)
                }
                Algo::TriCount => Ok(triangle_count(graph, TriCountMethod::Sandia)? as f64),
            }
        };

        for _ in 0..cfg.warmup {
            run_once()?;
        }

        trace::enable();
        let _ = trace::drain(); // discard events from warmup/generation
        let mut agg = RunAggregate::default();
        let mut trials_ns = Vec::with_capacity(cfg.trials);
        let mut checksum = 0.0;
        for _ in 0..cfg.trials.max(1) {
            let t0 = Instant::now();
            checksum = run_once()?;
            trials_ns.push(t0.elapsed().as_nanos() as u64);
            for e in trace::drain() {
                agg.record(&e);
            }
        }
        trace::set_mode(prev_mode);

        // The workload's resident footprint while this algorithm ran:
        // the served graph (adjacency + caches warmed by the trials)
        // plus the shared Boolean structure. Assembly spans may have
        // raised it further; keep the max.
        let resident = (graph.resident_bytes() + structure.memory_usage().total()) as u64;
        agg.peak_resident_bytes = agg.peak_resident_bytes.max(resident);

        algos.push(AlgoResult { algo, trials_ns, agg, checksum });
    }
    let metrics = graphblas::metrics::snapshot();
    graphblas::metrics::set_enabled(metrics_prev);

    // Adjacency-only footprint, after the trials so lazily-built caches
    // (dual storage, re-encodes) are included in what they cost.
    let adj_bytes = graph.a().memory_usage().total();
    let bytes_per_edge = adj_bytes as f64 / graph.nedges().max(1) as f64;

    Ok(BenchReport {
        schema: SCHEMA.to_string(),
        date: today_iso(),
        workload: cfg.workload.name().to_string(),
        scale: cfg.scale,
        edge_factor: cfg.edge_factor,
        seed: cfg.seed,
        max_weight: cfg.max_weight,
        nvertices: graph.nvertices(),
        nedges: graph.nedges(),
        threads: graphblas::parallel::threads(),
        specialize: graphblas::specialization_enabled(),
        trials: cfg.trials.max(1),
        warmup: cfg.warmup,
        sources,
        storage: cfg.storage.name().to_string(),
        bytes_per_edge,
        algos,
        metrics,
    })
}

/// Pick `k` distinct source vertices with at least one out-edge,
/// deterministically from `seed`. Walks a seeded uniform permutation of
/// the vertices ([`lagraph::gen::permutation`]), so the sources are
/// distinct by construction, unbiased across the vertex set, and every
/// eligible vertex is reachable. (The previous stride walk started at
/// `seed * 31 mod n`, which collapsed congruent seeds onto the same
/// probe sequence and skewed sources toward the walk's early slots.)
fn pick_sources(graph: &Graph, k: usize, seed: u64) -> Result<Vec<usize>> {
    let n = graph.nvertices();
    let deg = graph.out_degree()?;
    let out: Vec<usize> = lagraph::gen::permutation(n, seed)
        .into_iter()
        .filter(|&v| deg.get(v).unwrap_or(0) > 0)
        .take(k)
        .collect();
    if out.is_empty() {
        return Err(Error::invalid("workload has no vertex with out-edges"));
    }
    debug_assert_eq!(
        out.iter().collect::<std::collections::HashSet<_>>().len(),
        out.len(),
        "sources must be distinct"
    );
    Ok(out)
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, Hinnant's
/// algorithm — no external time dependency).
pub fn today_iso() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    let (y, m, d) = civil_from_days(secs.div_euclid(86_400));
    format!("{y:04}-{m:02}-{d:02}")
}

/// Today's UTC date as `YYYYMMDD`, for `BENCH_<scale>_<date>.json`.
pub fn today_compact() -> String {
    today_iso().replace('-', "")
}

fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

// ---------------------------------------------------------------------------
// JSON emit / load
// ---------------------------------------------------------------------------

impl BenchReport {
    /// The canonical file name: `BENCH_<scale>_<YYYYMMDD>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}_{}.json", self.scale, self.date.replace('-', ""))
    }

    /// Serialize to the schema-versioned JSON document.
    pub fn to_json(&self) -> Value {
        let mut algos = Vec::with_capacity(self.algos.len());
        for r in &self.algos {
            let a = &r.agg;
            algos.push((
                r.algo.name().to_string(),
                Value::Obj(vec![
                    (
                        "trials_ns".into(),
                        Value::Arr(r.trials_ns.iter().map(|&t| t.into()).collect()),
                    ),
                    ("p50_ns".into(), r.quantile_ns(0.5).into()),
                    ("p95_ns".into(), r.quantile_ns(0.95).into()),
                    ("min_ns".into(), r.trials_ns.iter().copied().min().unwrap_or(0).into()),
                    ("flops".into(), a.total_flops.into()),
                    ("push".into(), a.push.into()),
                    ("pull".into(), a.pull.into()),
                    ("direction_fallbacks".into(), a.direction_fallbacks.into()),
                    ("mispredicts".into(), a.mispredicts.into()),
                    ("mxm_gustavson".into(), a.mxm_gustavson.into()),
                    ("mxm_dot".into(), a.mxm_dot.into()),
                    ("mxm_heap".into(), a.mxm_heap.into()),
                    ("assemblies".into(), a.assemblies.into()),
                    ("peak_pending".into(), a.peak_pending.into()),
                    ("peak_zombies".into(), a.peak_zombies.into()),
                    ("chunks".into(), a.chunks.into()),
                    ("early_exits".into(), a.early_exits.into()),
                    ("specialized".into(), a.specialized.into()),
                    ("mxm_fused".into(), a.mxm_fused.into()),
                    ("spans".into(), a.spans.into()),
                    ("op_wall_ns".into(), a.op_wall_ns.into()),
                    ("peak_resident_bytes".into(), a.peak_resident_bytes.into()),
                    ("writes_inplace".into(), a.writes_inplace.into()),
                    ("writes_merge".into(), a.writes_merge.into()),
                    ("vector_conversions".into(), a.vector_conversions.into()),
                    ("checksum".into(), r.checksum.into()),
                ]),
            ));
        }
        Value::Obj(vec![
            ("schema".into(), self.schema.as_str().into()),
            ("date".into(), self.date.as_str().into()),
            ("workload".into(), self.workload.as_str().into()),
            ("scale".into(), self.scale.into()),
            ("edge_factor".into(), self.edge_factor.into()),
            ("seed".into(), self.seed.into()),
            ("max_weight".into(), self.max_weight.into()),
            ("nvertices".into(), self.nvertices.into()),
            ("nedges".into(), self.nedges.into()),
            ("threads".into(), self.threads.into()),
            ("specialize".into(), Value::Bool(self.specialize)),
            ("trials".into(), self.trials.into()),
            ("warmup".into(), self.warmup.into()),
            ("sources".into(), Value::Arr(self.sources.iter().map(|&s| s.into()).collect())),
            ("storage".into(), self.storage.as_str().into()),
            ("bytes_per_edge".into(), self.bytes_per_edge.into()),
            ("algos".into(), Value::Obj(algos)),
            (
                "metrics".into(),
                Value::Obj(self.metrics.iter().map(|(k, v)| (k.clone(), (*v).into())).collect()),
            ),
        ])
    }

    /// Deserialize a report; errors name the missing/ill-typed field.
    pub fn from_json(v: &Value) -> std::result::Result<BenchReport, String> {
        let schema =
            v.get("schema").and_then(Value::as_str).ok_or("missing \"schema\"")?.to_string();
        if !schema.starts_with("lagraph-bench/") {
            return Err(format!("not a lagraph-bench report (schema {schema:?})"));
        }
        let req_u64 = |key: &str| -> std::result::Result<u64, String> {
            v.get(key).and_then(Value::as_u64).ok_or(format!("missing or non-integer {key:?}"))
        };
        let mut algos = Vec::new();
        for (name, av) in v.get("algos").and_then(Value::as_obj).ok_or("missing \"algos\"")? {
            let algo = Algo::parse(name).ok_or(format!("unknown algorithm {name:?}"))?;
            let trials_ns: Vec<u64> = av
                .get("trials_ns")
                .and_then(Value::as_arr)
                .ok_or(format!("{name}: missing trials_ns"))?
                .iter()
                .filter_map(Value::as_u64)
                .collect();
            let au64 = |key: &str| av.get(key).and_then(Value::as_u64).unwrap_or(0);
            let agg = RunAggregate {
                spans: au64("spans"),
                op_wall_ns: au64("op_wall_ns"),
                total_flops: au64("flops"),
                push: au64("push"),
                pull: au64("pull"),
                direction_fallbacks: au64("direction_fallbacks"),
                mispredicts: au64("mispredicts"),
                mxm_gustavson: au64("mxm_gustavson"),
                mxm_dot: au64("mxm_dot"),
                mxm_heap: au64("mxm_heap"),
                assemblies: au64("assemblies"),
                peak_pending: au64("peak_pending"),
                peak_zombies: au64("peak_zombies"),
                chunks: au64("chunks"),
                early_exits: au64("early_exits"),
                // Absent in pre-specialization reports; au64 defaults to 0.
                specialized: au64("specialized"),
                mxm_fused: au64("mxm_fused"),
                peak_resident_bytes: au64("peak_resident_bytes"),
                // Absent in reports from before the in-place write arm.
                writes_inplace: au64("writes_inplace"),
                writes_merge: au64("writes_merge"),
                vector_conversions: au64("vector_conversions"),
            };
            let checksum = av.get("checksum").and_then(Value::as_f64).unwrap_or(0.0);
            algos.push(AlgoResult { algo, trials_ns, agg, checksum });
        }
        Ok(BenchReport {
            schema,
            date: v.get("date").and_then(Value::as_str).unwrap_or("").to_string(),
            workload: v.get("workload").and_then(Value::as_str).unwrap_or("").to_string(),
            scale: req_u64("scale")? as u32,
            edge_factor: req_u64("edge_factor")? as usize,
            seed: req_u64("seed")?,
            max_weight: v.get("max_weight").and_then(Value::as_u64).unwrap_or(1),
            nvertices: req_u64("nvertices")? as usize,
            nedges: req_u64("nedges")? as usize,
            threads: v.get("threads").and_then(Value::as_u64).unwrap_or(0) as usize,
            // Absent in older reports; specialization was on by default.
            specialize: v.get("specialize").and_then(Value::as_bool).unwrap_or(true),
            trials: v.get("trials").and_then(Value::as_u64).unwrap_or(0) as usize,
            warmup: v.get("warmup").and_then(Value::as_u64).unwrap_or(0) as usize,
            sources: v
                .get("sources")
                .and_then(Value::as_arr)
                .map(|a| a.iter().filter_map(Value::as_u64).map(|s| s as usize).collect())
                .unwrap_or_default(),
            // Absent in pre-compressed-storage reports.
            storage: v.get("storage").and_then(Value::as_str).unwrap_or("csr").to_string(),
            bytes_per_edge: v.get("bytes_per_edge").and_then(Value::as_f64).unwrap_or(0.0),
            algos,
            metrics: v
                .get("metrics")
                .and_then(Value::as_obj)
                .map(|o| {
                    o.iter().filter_map(|(k, mv)| mv.as_f64().map(|f| (k.clone(), f))).collect()
                })
                .unwrap_or_default(),
        })
    }

    /// Load a report from a file.
    pub fn load(path: &std::path::Path) -> std::result::Result<BenchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&parse(&text).map_err(|e| format!("{}: {e}", path.display()))?)
    }

    /// The human-readable summary table the binary prints.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "workload {} scale {} (|V| = {}, |E| = {}), {} threads, {} trials (+{} warmup)",
            self.workload,
            self.scale,
            self.nvertices,
            self.nedges,
            self.threads,
            self.trials,
            self.warmup,
        );
        let _ = writeln!(
            s,
            "storage {} ({:.1} bytes/edge resident)",
            self.storage, self.bytes_per_edge,
        );
        let _ = writeln!(
            s,
            "{:<10} {:>10} {:>10} {:>14} {:>7} {:>7} {:>7} {:>12}",
            "algo", "p50", "p95", "flops", "push", "pull", "mxm", "peak_pend"
        );
        for r in &self.algos {
            let a = &r.agg;
            let _ = writeln!(
                s,
                "{:<10} {:>10} {:>10} {:>14} {:>7} {:>7} {:>7} {:>12}",
                r.algo.name(),
                fmt_ms(r.quantile_ns(0.5)),
                fmt_ms(r.quantile_ns(0.95)),
                a.total_flops,
                a.push,
                a.pull,
                a.mxm_gustavson + a.mxm_dot + a.mxm_heap,
                a.peak_pending,
            );
        }
        s
    }
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.2}ms", ns as f64 / 1e6)
}

// ---------------------------------------------------------------------------
// Compare
// ---------------------------------------------------------------------------

/// Which per-algorithm quantity [`compare`] diffs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// p50 wall time — the default, what a human cares about.
    Wall,
    /// Accumulated flops estimate — deterministic under a pinned
    /// `GRAPHBLAS_COST_MODEL`, so CI can compare across machines.
    Flops,
}

impl Metric {
    /// Parse `wall` or `flops`.
    pub fn parse(s: &str) -> Option<Metric> {
        match s.to_ascii_lowercase().as_str() {
            "wall" | "time" => Some(Metric::Wall),
            "flops" | "work" => Some(Metric::Flops),
            _ => None,
        }
    }

    fn of(self, r: &AlgoResult) -> f64 {
        match self {
            Metric::Wall => r.quantile_ns(0.5) as f64,
            Metric::Flops => r.agg.total_flops as f64,
        }
    }
}

/// One row of a comparison.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Algorithm name.
    pub algo: &'static str,
    /// Metric value in the old report.
    pub old: f64,
    /// Metric value in the new report.
    pub new: f64,
    /// Relative change `new/old − 1` (positive = slower/more work).
    pub delta: f64,
    /// True when `delta` exceeds the regression threshold.
    pub regressed: bool,
    /// True when the output checksums differ (semantic drift).
    pub checksum_drift: bool,
}

/// The outcome of diffing two reports.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Per-algorithm rows for algorithms present in both reports.
    pub rows: Vec<CompareRow>,
    /// Algorithms present in only one of the two reports.
    pub unmatched: Vec<String>,
    /// Regression threshold the rows were judged against.
    pub threshold: f64,
}

impl Comparison {
    /// True when any algorithm regressed beyond the threshold.
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.regressed)
    }

    /// Render the per-algorithm delta table.
    pub fn render(&self, metric: Metric) -> String {
        use std::fmt::Write as _;
        let unit = match metric {
            Metric::Wall => "p50",
            Metric::Flops => "flops",
        };
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<10} {:>14} {:>14} {:>9}  verdict",
            "algo",
            format!("old {unit}"),
            format!("new {unit}"),
            "delta"
        );
        for r in &self.rows {
            let verdict = if r.regressed {
                "REGRESSED"
            } else if r.delta < -0.05 {
                "improved"
            } else {
                "ok"
            };
            let drift = if r.checksum_drift { " (checksum drift!)" } else { "" };
            let _ = writeln!(
                s,
                "{:<10} {:>14.0} {:>14.0} {:>+8.1}%  {}{}",
                r.algo,
                r.old,
                r.new,
                r.delta * 100.0,
                verdict,
                drift
            );
        }
        for name in &self.unmatched {
            let _ = writeln!(s, "{name:<10} present in only one report — skipped");
        }
        s
    }
}

/// Diff two reports on `metric`: an algorithm regresses when its metric
/// grew by more than `threshold` (e.g. `0.10` = 10%). Checksum drift is
/// reported when both runs used the same workload parameters but their
/// outputs differ.
pub fn compare(old: &BenchReport, new: &BenchReport, threshold: f64, metric: Metric) -> Comparison {
    let same_workload = old.workload == new.workload
        && old.scale == new.scale
        && old.edge_factor == new.edge_factor
        && old.seed == new.seed
        && old.max_weight == new.max_weight;
    let mut rows = Vec::new();
    let mut unmatched = Vec::new();
    for r_new in &new.algos {
        match old.algos.iter().find(|r| r.algo == r_new.algo) {
            None => unmatched.push(r_new.algo.name().to_string()),
            Some(r_old) => {
                let (o, n) = (metric.of(r_old), metric.of(r_new));
                let delta = if o > 0.0 { n / o - 1.0 } else { 0.0 };
                let rel = (r_old.checksum - r_new.checksum).abs()
                    / r_old.checksum.abs().max(r_new.checksum.abs()).max(1.0);
                rows.push(CompareRow {
                    algo: r_new.algo.name(),
                    old: o,
                    new: n,
                    delta,
                    regressed: delta > threshold,
                    checksum_drift: same_workload && rel > 1e-9,
                });
            }
        }
    }
    for r_old in &old.algos {
        if !new.algos.iter().any(|r| r.algo == r_old.algo) {
            unmatched.push(r_old.algo.name().to_string());
        }
    }
    Comparison { rows, unmatched, threshold }
}
