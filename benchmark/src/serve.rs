//! The serve-* workloads: a `GraphService` fed a seeded update stream
//! while it answers queries. `serve-epochs` is a closed loop of tiny
//! epochs over a large graph; `serve-mixed` puts an open-loop writer
//! beside a closed-loop reader. A driver-side mirror replays the same
//! stream, and at quiescence the service must agree with it.

use std::time::{Duration, Instant};

use graphblas::{parallel, trace};
use lagraph::gen::Workload;
use lagraph::service::{
    AdmissionStats, GraphService, Query, QueryResult, ServiceConfig, ViewKind, ViewStat,
};

use crate::inputs::{self, mix, Mirror, Op, Rng};
use crate::oracle::{self, Adj};
use crate::run::{secs, Ctx, Outcome};
use crate::spans::Recorder;
use crate::spec::{Kind, EDGE_FACTOR, MAX_WEIGHT};
use crate::{host, probes, stats};

/// Updates per epoch round of `serve-epochs`.
const EPOCH_UPDATES: usize = 64;
/// How long the round's first update is given to wake the coordinator
/// before the other 63 follow; the wait is not part of any timed span.
const COORDINATOR_HEAD_START: Duration = Duration::from_millis(2);
/// Warm BFS queries per round, after the first one.
const WARM_BFS: usize = 4;
/// Writer schedule of `serve-mixed`: one tick every 100 ms.
const WRITER_PERIOD: Duration = Duration::from_millis(100);
/// Updates per writer tick.
const TICK_UPDATES: usize = 256;
/// Width of the reader's `query_many` calls.
const BATCH_WIDTH: usize = 4;
const HOT_SET: usize = 8;
/// Non-isolated vertices the queries draw their sources from.
const SOURCE_POOL: usize = 1024;
/// Serving time under `--smoke`, seconds.
const SMOKE_SECONDS: f64 = 2.0;
/// `serve-mixed` runs in segments this long, seconds. Between two
/// segments the writer and the reader are both stopped and the yardstick
/// is sampled against an idle service; the open-loop schedule starts
/// afresh in each.
const SEGMENT_SECONDS: f64 = 2.0;
const VIEWS: [ViewKind; 3] =
    [ViewKind::ConnectedComponents, ViewKind::DegreeCounts, ViewKind::TriangleCount];

/// A started service with the driver's mirror of it. Times are seconds
/// on the nominal host.
struct Setup {
    service: GraphService,
    mirror: Mirror,
    /// Non-isolated vertices of the initial graph; the first `HOT_SET`
    /// are the hot set.
    pool: Vec<usize>,
    /// Generation plus service (and view) start.
    total_s: f64,
    gen_s: f64,
    views_s: f64,
}

fn setup(ctx: &mut Ctx) -> Result<Setup, String> {
    let yard_before = ctx.yard.sample();
    let span = ctx.rec.begin("setup");
    let t0 = Instant::now();
    let s = ctx.rec.begin("gen");
    let graph = Workload::Rmat
        .graph(ctx.scale(), EDGE_FACTOR, mix(ctx.seed, inputs::GRAPH), MAX_WEIGHT)
        .map_err(|e| format!("generate: {e}"))?;
    ctx.rec.end(s);
    let gen_s = secs(t0);

    // The mirror is the driver's bookkeeping, not the program's set-up.
    let t_mirror = Instant::now();
    let n = graph.nvertices();
    let arcs = graph.a().extract_tuples();
    let pool = inputs::pick_sources(
        &inputs::degrees(n, &arcs),
        SOURCE_POOL.min(n / 2),
        mix(ctx.seed, inputs::SOURCES),
    );
    let mirror = Mirror::new(n, &arcs, mix(ctx.seed, inputs::UPDATES));
    drop(arcs);
    let mirror_s = secs(t_mirror);
    if pool.len() < HOT_SET + BATCH_WIDTH {
        return Err("generated graph has too few non-isolated vertices".into());
    }

    let s = ctx.rec.begin("service.start");
    let config = ServiceConfig { shards: ctx.spec.shards, ..ServiceConfig::default() };
    let service = GraphService::new(graph, config).map_err(|e| format!("service start: {e}"))?;
    ctx.rec.end(s);
    let t_views = Instant::now();
    if ctx.spec.kind == Kind::ServeMixed {
        let s = ctx.rec.begin("views.start");
        for view in VIEWS {
            service.register_view(view).map_err(|e| format!("register view: {e}"))?;
        }
        ctx.rec.end(s);
    }
    let views_s = secs(t_views);
    let total_s = secs(t0) - mirror_s;
    ctx.rec.end(span);
    let f = ctx.yard.factor_since(yard_before);
    Ok(Setup {
        service,
        mirror,
        pool,
        total_s: total_s * f,
        gen_s: gen_s * f,
        views_s: views_s * f,
    })
}

/// Submit the mirror's next `count` updates.
fn submit(service: &GraphService, mirror: &mut Mirror, count: usize, out: &mut Outcome) {
    for _ in 0..count {
        let r = match mirror.next_op() {
            Op::Insert(i, j, w) => service.insert_edge(i, j, w),
            Op::Delete(i, j) => service.delete_edge(i, j),
        };
        out.op("submit", r);
    }
}

/// The kinds of admitted call the clients make.
#[derive(Clone, Copy, PartialEq)]
enum Ask {
    /// The first BFS after an epoch turned (`serve-epochs`).
    FirstBfs,
    /// A single BFS whose source the epoch has not seen: never a cache hit.
    Bfs,
    /// A single BFS from the hot set: a cache hit after the first per epoch.
    HotBfs,
    /// A `query_many` of `BATCH_WIDTH` BFS.
    Batch,
    Cc,
    Degrees,
    Tricount,
}

const ASKS: [Ask; 7] =
    [Ask::FirstBfs, Ask::Bfs, Ask::HotBfs, Ask::Batch, Ask::Cc, Ask::Degrees, Ask::Tricount];

impl Ask {
    fn span(self) -> &'static str {
        match self {
            Ask::FirstBfs => "query.bfs_first",
            Ask::Bfs | Ask::HotBfs => "query.bfs",
            Ask::Batch => "query.batch",
            Ask::Cc => "query.cc",
            Ask::Degrees => "query.degrees",
            Ask::Tricount => "query.tricount",
        }
    }
}

/// Latency samples by kind of call, seconds.
#[derive(Default)]
struct Latencies {
    by: [Vec<f64>; ASKS.len()],
    /// Answers delivered (a `query_many` of four counts four).
    answers: u64,
}

impl Latencies {
    fn of(&self, kind: Ask) -> &[f64] {
        &self.by[kind as usize]
    }

    /// Several kinds' samples together.
    fn of_all(&self, kinds: &[Ask]) -> Vec<f64> {
        kinds.iter().flat_map(|&k| self.of(k).iter().copied()).collect()
    }

    /// Every admitted call but the first BFS of an epoch.
    fn calls(&self) -> Vec<f64> {
        self.of_all(&ASKS[1..])
    }

    /// Queries that are not BFS, for the batch-width arithmetic.
    fn non_bfs(&self) -> u64 {
        self.of_all(&[Ask::Cc, Ask::Degrees, Ask::Tricount]).len() as u64
    }

    /// Take in what one round or segment measured, scaled by its
    /// exchange rate `f`.
    fn absorb(&mut self, part: Latencies, f: f64) {
        for (all, new) in self.by.iter_mut().zip(part.by) {
            all.extend(new.into_iter().map(|s| s * f));
        }
        self.answers += part.answers;
    }
}

/// One admitted call, timed and counted.
fn ask(
    ctx: &mut Ctx,
    service: &GraphService,
    lat: &mut Latencies,
    kind: Ask,
    queries: &[Query],
) -> Option<Vec<QueryResult>> {
    let sp = ctx.rec.begin(kind.span());
    let t = Instant::now();
    let r = match queries {
        [one] => service.query(*one).map(|r| vec![r]),
        many => service.query_many(many),
    };
    lat.by[kind as usize].push(secs(t));
    ctx.rec.end(sp);
    lat.answers += queries.len() as u64;
    ctx.out.op(kind.span(), r)
}

/// Service-side counters, sampled so a phase can report its own share.
struct Counters {
    admission: AdmissionStats,
    views: Vec<ViewStat>,
    epoch: u64,
    processed: u64,
}

impl Counters {
    fn sample(service: &GraphService) -> Self {
        let s = service.stats();
        Counters {
            admission: service.admission_stats(),
            views: service.view_stats(),
            epoch: s.epoch,
            processed: s.processed,
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What the write side of a measured phase did. Times are seconds on
/// the nominal host.
#[derive(Default)]
struct Writes {
    /// Flush wall ÷ epochs turned during it, per flush.
    publish: Vec<f64>,
    /// Submit + flush wall, summed.
    wall_s: f64,
}

/// The admission / cache / views / drainer rows of one measured phase.
fn report_service(
    ctx: &mut Ctx,
    service: &GraphService,
    before: &Counters,
    after: &Counters,
    lat: &Latencies,
    writes: &Writes,
) {
    let (a, b) = (&after.admission, &before.admission);
    let (hits, misses) = (a.cache_hits - b.cache_hits, a.cache_misses - b.cache_misses);
    let view_hits = a.view_hits - b.view_hits;
    let batches = a.batches - b.batches;
    // Misses of queries that are not BFS never reach the batcher.
    let bfs_misses = misses.saturating_sub(lat.non_bfs().saturating_sub(view_hits));
    let out = &mut ctx.out;
    // A kind the workload never asks has no row.
    let mut p50_ms = |name: &str, samples: &[f64]| {
        if !samples.is_empty() {
            out.set_n(name, stats::median(samples) * 1e3, samples.len());
        }
    };
    let calls = lat.calls();
    p50_ms("query_p50_ms", &calls);
    p50_ms("admission.bfs_p50_ms", &lat.of_all(&[Ask::Bfs, Ask::HotBfs]));
    p50_ms("admission.cc_p50_ms", lat.of(Ask::Cc));
    p50_ms("admission.degrees_p50_ms", lat.of(Ask::Degrees));
    p50_ms("admission.tricount_p50_ms", lat.of(Ask::Tricount));
    p50_ms("admission.batch_p50_ms", lat.of(Ask::Batch));
    p50_ms("epoch_publish_p50_ms", &writes.publish);
    out.set_n("admission.query_p99_ms", stats::percentile(&calls, 0.99) * 1e3, calls.len());
    out.set_n(
        "drainer.publish_p95_ms",
        stats::percentile(&writes.publish, 0.95) * 1e3,
        writes.publish.len(),
    );
    out.set("admission.batch_width_mean", ratio(bfs_misses, batches));
    out.set("cache.hit_ratio", ratio(hits, hits + misses));
    out.set("views.hit_ratio", ratio(view_hits, a.queries - b.queries));
    let sum = |stats: &[ViewStat], f: fn(&ViewStat) -> u64| stats.iter().map(f).sum::<u64>();
    let repairs = sum(&after.views, |v| v.repairs) - sum(&before.views, |v| v.repairs);
    let rebuilds = sum(&after.views, |v| v.rebuilds) - sum(&before.views, |v| v.rebuilds);
    out.set("views.repairs", repairs as f64);
    out.set("views.rebuilds", rebuilds as f64);
    out.set("views.repair_ratio", ratio(repairs, repairs + rebuilds));
    let epochs = after.epoch - before.epoch;
    out.set("drainer.epochs", epochs as f64);
    out.set("drainer.epochs_per_flush", ratio(epochs, writes.publish.len() as u64));
    out.set("drainer.updates_per_s", (after.processed - before.processed) as f64 / writes.wall_s);
    let adjacency = service.snapshot().graph().a().memory_usage().total();
    let resident = host::rss_bytes().saturating_sub(ctx.yard.resident_bytes());
    ctx.out.set("drainer.resident_ratio", resident as f64 / adjacency.max(1) as f64);
}

/// At quiescence the snapshot's edge set and the served answers must
/// equal the mirror's.
fn verify(ctx: &mut Ctx, su: &Setup) {
    let span = ctx.rec.begin("verify");
    let service = &su.service;
    let Some(snap) = ctx.out.op("final flush", service.flush()) else { return };
    let tuples = snap.graph().a().extract_tuples();
    let same_edges = tuples.len() == 2 * su.mirror.nedges()
        && tuples.iter().all(|&(i, j, w)| su.mirror.weight(i, j) == Some(w));
    ctx.out.check("snapshot edge set equals the mirror", same_edges);
    drop(tuples);
    // Same seed, same stream: two runs that print different hashes at the
    // same length did not feed the service the same updates.
    ctx.out.note(format!(
        "update stream hash {:016x} after {} updates",
        su.mirror.stream_hash(),
        su.mirror.emitted()
    ));

    let adj = Adj::from_arcs(su.mirror.nvertices(), su.mirror.arcs());
    let cc = ctx.out.op("final cc", service.query(Query::connected_components()));
    ctx.out.check(
        "served cc partition",
        cc.as_ref()
            .and_then(QueryResult::components)
            .is_some_and(|c| oracle::check_components(&adj, &c.extract_tuples())),
    );
    let deg = ctx.out.op("final degrees", service.query(Query::degrees()));
    ctx.out.check(
        "served degrees",
        deg.as_ref()
            .and_then(QueryResult::degrees)
            .is_some_and(|d| oracle::check_degrees(&adj, &d.extract_tuples())),
    );
    if ctx.spec.kind == Kind::ServeMixed {
        let tri = ctx.out.op("final tricount", service.query(Query::triangle_count()));
        ctx.out.check(
            "served triangle count",
            tri.as_ref().and_then(QueryResult::count) == Some(oracle::triangles(&adj)),
        );
    }
    for &s in &su.pool[..2] {
        let levels = ctx.out.op("final bfs", service.query(Query::bfs_level(s)));
        ctx.out.check(
            "served bfs levels",
            levels
                .as_ref()
                .and_then(QueryResult::levels)
                .is_some_and(|l| oracle::check_bfs(&adj, s, &l.extract_tuples())),
        );
    }
    ctx.rec.end(span);
}

/// The `setup_s` row: the kept set-up plus repeats made after everything
/// that reads the resident set, so the repeats cannot inflate
/// `peak_rss_mb`. `warm_s` is the warm-up that followed the kept set-up.
fn report_setup(ctx: &mut Ctx, first: [f64; 3], warm_s: f64) -> Result<(), String> {
    let [mut total, mut gen, mut views] = first.map(|s| vec![s]);
    for _ in 1..ctx.setup_repeats() {
        let again = setup(ctx)?;
        total.push(again.total_s);
        gen.push(again.gen_s);
        views.push(again.views_s);
    }
    ctx.report_setup(&total, warm_s);
    ctx.out.set_n("views.start_s", stats::median(&views), views.len());
    if !ctx.traced {
        // The traced run's probe phase measured these directly.
        let gen_s = stats::median(&gen);
        ctx.out.set_n("gen.build_s", gen_s, gen.len());
        ctx.out.set_n("gen.edges_per_s", ctx.out.nedges as f64 / gen_s, gen.len());
    }
    Ok(())
}

fn start(ctx: &mut Ctx) -> Result<Setup, String> {
    parallel::set_threads(ctx.spec.threads);
    let su = setup(ctx)?;
    let snap = su.service.snapshot();
    ctx.out.nvertices = snap.graph().nvertices();
    ctx.out.nedges = snap.nedges();
    Ok(su)
}

/// The traced run's tail: probes on the last published snapshot.
fn probe_snapshot(ctx: &mut Ctx, service: &GraphService) {
    if ctx.out.op("flush before probes", service.flush()).is_some() {
        let graph = service.snapshot().graph_arc();
        probes::run(ctx, &graph);
    }
}

// ---------------------------------------------------------------------------
// serve-epochs
// ---------------------------------------------------------------------------

/// What the rounds of `serve-epochs` measured. Times are seconds on the
/// nominal host, each round scaled by the yardstick samples around it.
#[derive(Default)]
struct EpochRounds {
    /// Round wall: submit, flush and the seven queries.
    wall: Vec<f64>,
    /// The same as the clock read it, summed: what `--seconds` budgets.
    clock_s: f64,
    writes: Writes,
    lat: Latencies,
    /// Next source of the pool; sources stay distinct within an epoch so
    /// no query is a cache hit.
    cursor: usize,
}

/// One round: 64 updates (1 + 63), flush, the first BFS of the new
/// epoch, four warm BFS, cc, degrees. `yard_before` is the yardstick
/// sample taken since the last round ended; the one taken after this
/// round is returned.
fn epoch_round(
    ctx: &mut Ctx,
    su: &mut Setup,
    rounds: &mut EpochRounds,
    label: &'static str,
    yard_before: f64,
) -> f64 {
    let round_span = ctx.rec.begin_at(label, rounds.wall.len() as u64);

    // Submitted back to back, the 64 updates race the coordinator's
    // wake-up: it cuts its first batch after a handful of them or after
    // all, so a round turns two epochs or one, and whole runs flipped
    // between the two modes. One update ahead of the rest settles it:
    // every round turns a one-update epoch and then a 63-update epoch.
    // The wait between the two is idle time and is not timed.
    let sp = ctx.rec.begin("submit");
    let t = Instant::now();
    submit(&su.service, &mut su.mirror, 1, &mut ctx.out);
    let mut write_s = secs(t);
    std::thread::sleep(COORDINATOR_HEAD_START);
    let t = Instant::now();
    submit(&su.service, &mut su.mirror, EPOCH_UPDATES - 1, &mut ctx.out);
    write_s += secs(t);
    ctx.rec.end(sp);
    let epoch_before = su.service.stats().epoch;
    let sp = ctx.rec.begin("flush");
    let t_flush = Instant::now();
    let snap = ctx.out.op("flush", su.service.flush());
    let flush_s = secs(t_flush);
    ctx.rec.end(sp);
    write_s += flush_s;
    let turned = snap.map_or(1, |s| s.epoch().saturating_sub(epoch_before).max(1));

    let t_queries = Instant::now();
    let mut next_source = || {
        rounds.cursor += 1;
        su.pool[rounds.cursor % su.pool.len()]
    };
    let first = next_source();
    let warm: [usize; WARM_BFS] = std::array::from_fn(|_| next_source());
    let mut lat = Latencies::default();
    ask(ctx, &su.service, &mut lat, Ask::FirstBfs, &[Query::bfs_level(first)]);
    for s in warm {
        ask(ctx, &su.service, &mut lat, Ask::Bfs, &[Query::bfs_level(s)]);
    }
    ask(ctx, &su.service, &mut lat, Ask::Cc, &[Query::connected_components()]);
    ask(ctx, &su.service, &mut lat, Ask::Degrees, &[Query::degrees()]);
    let wall = write_s + secs(t_queries);
    ctx.rec.end(round_span);

    let yard_after = ctx.yard.sample();
    let f = ctx.yard.factor(yard_before, yard_after);
    rounds.wall.push(wall * f);
    rounds.clock_s += wall;
    rounds.writes.publish.push(flush_s / turned as f64 * f);
    rounds.writes.wall_s += write_s * f;
    rounds.lat.absorb(lat, f);
    yard_after
}

/// Rounds until their wall-clock time reaches `budget_s` (at least two).
fn epoch_rounds(ctx: &mut Ctx, su: &mut Setup, label: &'static str, budget_s: f64) -> EpochRounds {
    let mut rounds = EpochRounds::default();
    let mut yard = ctx.yard.sample();
    while rounds.wall.len() < 2 || rounds.clock_s < budget_s {
        yard = epoch_round(ctx, su, &mut rounds, label, yard);
    }
    rounds
}

pub fn run_epochs(ctx: &mut Ctx) -> Result<(), String> {
    let run_span = ctx.rec.begin("run");
    let mut su = start(ctx)?;
    let sp = ctx.rec.begin("warmup");
    let mut warm = EpochRounds::default();
    let yard = ctx.yard.sample();
    epoch_round(ctx, &mut su, &mut warm, "warmup_round", yard);
    ctx.rec.end(sp);
    let warm_s = warm.wall[0];
    let seconds = if ctx.smoke { SMOKE_SECONDS } else { ctx.seconds };

    let before = Counters::sample(&su.service);
    let budget = if ctx.traced { seconds * 0.3 } else { seconds };
    let rounds = epoch_rounds(ctx, &mut su, if ctx.traced { "ref_round" } else { "round" }, budget);
    let after = Counters::sample(&su.service);
    ctx.out.set("peak_rss_mb", ctx.peak_rss_mb());

    let lat = &rounds.lat;
    let p50 = |kind: Ask| stats::median(lat.of(kind));
    let first_s = p50(Ask::FirstBfs);
    let publish_s = stats::median(&rounds.writes.publish);
    let kinds = [publish_s, first_s, p50(Ask::Bfs), p50(Ask::Cc), p50(Ask::Degrees)];
    ctx.out.set_n("bfs_ms", p50(Ask::Bfs) * 1e3, lat.of(Ask::Bfs).len());
    ctx.out.set_n("op_geomean_ms", stats::geomean(&kinds) * 1e3, rounds.wall.len());
    ctx.out.set_n(
        "qps",
        lat.answers as f64 / rounds.wall.iter().sum::<f64>(),
        lat.answers as usize,
    );
    ctx.out.set_n("first_query_p50_ms", first_s * 1e3, lat.of(Ask::FirstBfs).len());
    report_service(ctx, &su.service, &before, &after, lat, &rounds.writes);

    if ctx.traced {
        trace::enable();
        trace::clear();
        let traced = epoch_rounds(ctx, &mut su, "round", seconds * 0.3);
        trace::disable();
        trace::clear();
        let overhead = stats::median(&traced.wall) / stats::median(&rounds.wall) - 1.0;
        ctx.out.set("trace.overhead_share", overhead);
        probe_snapshot(ctx, &su.service);
    }
    verify(ctx, &su);
    let first = [su.total_s, su.gen_s, su.views_s];
    drop(su);
    report_setup(ctx, first, warm_s)?;
    ctx.rec.end(run_span);
    Ok(())
}

// ---------------------------------------------------------------------------
// serve-mixed
// ---------------------------------------------------------------------------

/// What the open-loop writer saw in one segment, seconds as the clock
/// read them.
#[derive(Default)]
struct WriterLog {
    /// Due time → update visible, per tick.
    visible: Vec<f64>,
    /// Due time → tick actually started, per tick.
    late: Vec<f64>,
    writes: Writes,
}

/// The writer: every 100 ms, on schedule whatever the service does,
/// submit 256 updates and flush. Latency counts from the due time, so a
/// stalled tick charges the ticks queued behind it.
fn writer(
    service: &GraphService,
    mirror: &mut Mirror,
    t0: Instant,
    duration: Duration,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> WriterLog {
    let mut log = WriterLog::default();
    for tick in 0u32.. {
        let due = t0 + WRITER_PERIOD * tick;
        if due >= t0 + duration {
            break;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let started = Instant::now();
        log.late.push((started - due).as_secs_f64());
        let tick_span = rec.begin_at("writer.tick", u64::from(tick));
        let sp = rec.begin("submit");
        submit(service, mirror, TICK_UPDATES, out);
        rec.end(sp);
        let epoch_before = service.stats().epoch;
        let sp = rec.begin("flush");
        let t_flush = Instant::now();
        let snap = out.op("flush", service.flush());
        let done = Instant::now();
        rec.end(sp);
        rec.end(tick_span);
        let turned = snap.map_or(1, |s| s.epoch().saturating_sub(epoch_before).max(1));
        log.writes.publish.push((done - t_flush).as_secs_f64() / turned as f64);
        log.writes.wall_s += (done - started).as_secs_f64();
        log.visible.push((done - due).as_secs_f64());
    }
    log
}

/// The reader: a closed loop over a fixed mix — 11/16 single BFS (half
/// from the hot set), 2/16 `query_many` of four BFS, 1/16 each cc,
/// degrees, tricount — until `deadline`.
fn reader(
    ctx: &mut Ctx,
    service: &GraphService,
    pool: &[usize],
    rng: &mut Rng,
    deadline: Instant,
    lat: &mut Latencies,
) {
    let (hot, cold) = pool.split_at(HOT_SET);
    while Instant::now() < deadline {
        let draw = rng.below(16);
        let (kind, queries) = match draw {
            0..=10 => {
                let (kind, from) =
                    if rng.below(2) == 0 { (Ask::HotBfs, hot) } else { (Ask::Bfs, cold) };
                (kind, vec![Query::bfs_level(from[rng.below(from.len())])])
            }
            11 | 12 => {
                let sources = (0..BATCH_WIDTH).map(|_| cold[rng.below(cold.len())]);
                (Ask::Batch, sources.map(Query::bfs_level).collect())
            }
            13 => (Ask::Cc, vec![Query::connected_components()]),
            14 => (Ask::Degrees, vec![Query::degrees()]),
            _ => (Ask::Tricount, vec![Query::triangle_count()]),
        };
        ask(ctx, service, lat, kind, &queries);
    }
}

/// What a phase of `serve-mixed` measured. Times are seconds on the
/// nominal host, each segment scaled by the yardstick samples around it.
#[derive(Default)]
struct MixedPhase {
    lat: Latencies,
    visible: Vec<f64>,
    /// Generator lateness, as the clock read it.
    late: Vec<f64>,
    writes: Writes,
    /// The reader's wall, summed over the segments.
    wall_s: f64,
}

impl MixedPhase {
    /// Answers per second of reader time.
    fn qps(&self) -> f64 {
        self.lat.answers as f64 / self.wall_s
    }
}

/// Writer and reader side by side for `seconds`, in segments of at most
/// `SEGMENT_SECONDS` with the yardstick sampled in the pauses between.
fn mixed_phase(ctx: &mut Ctx, su: &mut Setup, rng: &mut Rng, seconds: f64) -> MixedPhase {
    let Setup { service, mirror, pool, .. } = su;
    let service = &*service;
    let segments = (seconds / SEGMENT_SECONDS).ceil().max(1.0);
    let duration = Duration::from_secs_f64(seconds / segments);
    let mut phase = MixedPhase::default();
    let mut yard_before = ctx.yard.sample();
    for _ in 0..segments as usize {
        let mut lat = Latencies::default();
        let mut writer_rec = Recorder::new(ctx.rec.on(), ctx.rec.epoch(), 1);
        let mut writer_out = Outcome::default();
        let t0 = Instant::now();
        let log = std::thread::scope(|scope| {
            let handle = std::thread::Builder::new()
                .name("benchmark-writer".into())
                .spawn_scoped(scope, || {
                    writer(service, mirror, t0, duration, &mut writer_rec, &mut writer_out)
                })
                .expect("spawn the writer thread");
            reader(ctx, service, pool, rng, t0 + duration, &mut lat);
            let reader_s = secs(t0);
            handle.join().map(|log| (log, reader_s))
        });
        // Both clients have stopped and the last flush has returned.
        let yard_after = ctx.yard.sample();
        let f = ctx.yard.factor(yard_before, yard_after);
        yard_before = yard_after;
        ctx.rec.absorb(writer_rec);
        ctx.out.attempted += writer_out.attempted;
        ctx.out.failed += writer_out.failed;
        ctx.out.failures.append(&mut writer_out.failures);
        let Ok((log, reader_s)) = log else {
            ctx.out.check("writer thread panicked", false);
            continue;
        };
        phase.lat.absorb(lat, f);
        phase.visible.extend(log.visible.iter().map(|s| s * f));
        phase.late.extend(log.late);
        phase.writes.publish.extend(log.writes.publish.iter().map(|s| s * f));
        phase.writes.wall_s += log.writes.wall_s * f;
        phase.wall_s += reader_s * f;
    }
    phase
}

pub fn run_mixed(ctx: &mut Ctx) -> Result<(), String> {
    let run_span = ctx.rec.begin("run");
    let mut su = start(ctx)?;
    let mut rng = Rng::new(mix(ctx.seed, inputs::READER));
    let sp = ctx.rec.begin("warmup");
    let warm_s = mixed_phase(ctx, &mut su, &mut rng, 0.25).wall_s;
    ctx.rec.end(sp);
    let seconds = if ctx.smoke { SMOKE_SECONDS } else { ctx.seconds };

    let before = Counters::sample(&su.service);
    let phase =
        mixed_phase(ctx, &mut su, &mut rng, if ctx.traced { seconds * 0.3 } else { seconds });
    let after = Counters::sample(&su.service);
    ctx.out.set("peak_rss_mb", ctx.peak_rss_mb());

    let lat = &phase.lat;
    let calls = lat.calls();
    let bfs_s = stats::median(lat.of(Ask::Bfs));
    let visible_s = stats::median(&phase.visible);
    // cc, degrees and tricount are view-served lookups here, under a
    // microsecond each: clock readings, not latencies, so not in the mean.
    let kinds = [visible_s, bfs_s, stats::median(lat.of(Ask::Batch))];
    ctx.out.set_n("bfs_ms", bfs_s * 1e3, lat.of(Ask::Bfs).len());
    ctx.out.set_n("op_geomean_ms", stats::geomean(&kinds) * 1e3, phase.visible.len());
    ctx.out.set_n("qps", phase.qps(), lat.answers as usize);
    ctx.out.set_n("visible_p50_ms", visible_s * 1e3, phase.visible.len());
    ctx.out.set_n("query_p95_ms", stats::percentile(&calls, 0.95) * 1e3, calls.len());
    ctx.out.set_n(
        "writer.late_p95_ms",
        stats::percentile(&phase.late, 0.95) * 1e3,
        phase.late.len(),
    );
    ctx.out.note(format!(
        "query_p95_ms over {} calls ({} beyond it)",
        calls.len(),
        calls.len() / 20
    ));
    report_service(ctx, &su.service, &before, &after, lat, &phase.writes);

    if ctx.traced {
        trace::enable();
        trace::clear();
        let traced = mixed_phase(ctx, &mut su, &mut rng, seconds * 0.3);
        trace::disable();
        trace::clear();
        ctx.out.set("trace.overhead_share", phase.qps() / traced.qps() - 1.0);
        probe_snapshot(ctx, &su.service);
    }
    verify(ctx, &su);
    let first = [su.total_s, su.gen_s, su.views_s];
    drop(su);
    report_setup(ctx, first, warm_s)?;
    ctx.rec.end(run_span);
    Ok(())
}
