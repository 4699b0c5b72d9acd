//! The probe phase of the traced run: direct, timed calls into each
//! layer's public functions on the workload's own graph. Each probe is
//! the median of up to `REPS` calls, scaled by the yardstick samples
//! taken before and after it; inputs are prepared and results dropped
//! outside the timer. The library's trace ring is on, for the flops counts
//! behind the `*_mflops` rows.

use std::time::Instant;

use graphblas::prelude::*;
use graphblas::semiring::{LOR_LAND, PLUS_PAIR, PLUS_SECOND};
use graphblas::trace::{self, RunAggregate};
use graphblas::{cost, parallel};
use lagraph::gen::{self, Workload};
use lagraph::{Graph, GraphKind};

use crate::host;
use crate::inputs::{self, mix};
use crate::run::{secs, Ctx};
use crate::spec::{Kind, EDGE_FACTOR, MAX_WEIGHT};
use crate::stats;

/// Direct calls per probe, when they fit.
const REPS: usize = 5;
/// A probe may spend `--seconds` over this much time: half a second at
/// the default 14 s. The heavy probes (the masked dot product, the fused
/// reduce, the pending-tuple assembly and the generator take 0.6-1 s a
/// call at scale 16) then make one call instead of five, which keeps a
/// traced run about as long as an untraced one; a longer `--seconds`
/// buys them all five. Every row's call count is in the output file
/// (`samples`), and rows from fewer than `REPS` calls are listed in a note.
const PROBE_SHARE: f64 = 28.0;
/// Empty dispatches timed per call of the `parallel.dispatch_us` probe.
const DISPATCHES: usize = 2000;

/// What one probe measured.
struct Probed<T> {
    /// Median seconds per call, on the nominal host.
    secs: f64,
    /// Calls behind the median.
    calls: usize,
    /// Flops the library's ring booked per call.
    flops: f64,
    /// The last call's result.
    last: T,
}

/// Whether a probe that has made `calls` calls in `spent` seconds, the
/// last of them `last` seconds long, makes another.
fn another_call(ctx: &Ctx, calls: usize, spent: f64, last: f64) -> bool {
    calls < REPS && spent + last <= ctx.seconds / PROBE_SHARE
}

/// Up to `REPS` calls of `call`, each on a fresh input from `prepare`.
fn probe<P, T>(
    ctx: &mut Ctx,
    span: &'static str,
    mut prepare: impl FnMut() -> P,
    mut call: impl FnMut(P) -> Result<T>,
) -> Result<Probed<T>> {
    let mut samples: Vec<f64> = Vec::with_capacity(REPS);
    trace::clear();
    let yard_before = ctx.yard.sample();
    let last = loop {
        let input = prepare();
        let sp = ctx.rec.begin(span);
        let t = Instant::now();
        let result = call(input);
        let sample = secs(t);
        ctx.rec.end(sp);
        samples.push(sample);
        let result = result?;
        if !another_call(ctx, samples.len(), samples.iter().sum(), sample) {
            break result;
        }
    };
    let f = ctx.yard.factor_since(yard_before);
    let calls = samples.len();
    let flops = RunAggregate::from_events(&trace::drain()).total_flops as f64 / calls as f64;
    if calls < REPS {
        ctx.out.note(format!(
            "{span} made {calls} call(s), not {REPS}: a call takes {sample_s:.2} s",
            sample_s = samples[calls - 1]
        ));
    }
    Ok(Probed { secs: stats::median(&samples) * f, calls, flops, last })
}

/// Run every probe on `graph`; a probe that errs ends the phase and
/// counts as one failed operation.
pub fn run(ctx: &mut Ctx, graph: &Graph) {
    let phase = ctx.rec.begin("probes");
    trace::enable();
    let result = run_probes(ctx, graph);
    trace::disable();
    trace::clear();
    ctx.out.op("probes", result);
    ctx.rec.end(phase);
}

fn run_probes(ctx: &mut Ctx, graph: &Graph) -> Result<()> {
    let a = graph.a();
    let n = graph.nvertices();
    let nedges = graph.nedges().max(1) as f64;
    let seed = mix(ctx.seed, inputs::PROBES);
    let tuples = a.extract_tuples();
    let st = graph.structure()?;
    let at = graph.at()?;

    // --- gen ---------------------------------------------------------------
    let family = match ctx.spec.kind {
        Kind::Gap { family, .. } => family,
        _ => Workload::Rmat,
    };
    let (scale, graph_seed) = (ctx.scale(), mix(ctx.seed, inputs::GRAPH));
    let p = probe(
        ctx,
        "probe.gen.build",
        || (),
        |()| family.graph(scale, EDGE_FACTOR, graph_seed, MAX_WEIGHT),
    )?;
    ctx.out.set_n("gen.build_s", p.secs, p.calls);
    ctx.out.set_n("gen.edges_per_s", nedges / p.secs, p.calls);
    drop(p);

    // --- graph: first access of each cached property on a fresh Graph ------
    let fresh = || Graph::new(a.clone(), GraphKind::Undirected);
    let p = probe(ctx, "probe.graph.structure", fresh, |g| {
        let g = g?;
        g.structure()?;
        Ok(g)
    })?;
    ctx.out.set_n("graph.structure_s", p.secs, p.calls);
    drop(p);
    let p = probe(ctx, "probe.graph.at", fresh, |g| {
        let g = g?;
        g.at()?;
        Ok(g)
    })?;
    ctx.out.set_n("graph.at_s", p.secs, p.calls);
    drop(p);
    let p = probe(ctx, "probe.graph.out_degree", fresh, |g| {
        let g = g?;
        g.out_degree()?;
        Ok(g)
    })?;
    ctx.out.set_n("graph.out_degree_s", p.secs, p.calls);
    drop(p);
    ctx.out.set("graph.resident_bytes_per_edge", graph.resident_bytes() as f64 / nedges);

    // --- matrix ------------------------------------------------------------
    let p = probe(
        ctx,
        "probe.matrix.build",
        || tuples.clone(),
        |t| Matrix::from_tuples(n, n, t, |_, b| b),
    )?;
    ctx.out.set_n("matrix.build_s", p.secs, p.calls);
    drop(p);

    // 64k inserts at fresh positions and 16k deletes of present entries,
    // resolved by one assembly: what a drainer replay does to a master.
    let mut rng = inputs::Rng::new(seed);
    let inserts: Vec<(usize, usize)> =
        (0..(64 << 10).min(n * 4)).map(|_| (rng.below(n), rng.below(n))).collect();
    let deletes: Vec<(usize, usize)> = (0..(16 << 10).min(tuples.len()))
        .map(|_| tuples[rng.below(tuples.len())])
        .map(|(i, j, _)| (i, j))
        .collect();
    let p = probe(
        ctx,
        "probe.matrix.pending_assemble",
        || a.clone(),
        |mut m| {
            for &(i, j) in &inserts {
                m.set_element(i, j, 1.0)?;
            }
            for &(i, j) in &deletes {
                m.remove_element(i, j)?;
            }
            m.wait();
            Ok(m)
        },
    )?;
    ctx.out.set_n("matrix.pending_assemble_s", p.secs, p.calls);
    drop(p);

    let p = probe(ctx, "probe.matrix.clone", || (), |()| Ok(a.clone()))?;
    ctx.out.set_n("matrix.clone_s", p.secs, p.calls);
    drop(p);

    // Dual storage is built by the first kernel read; an empty product
    // is the cheapest public call that performs one.
    let empty = Vector::<bool>::new(n)?;
    let p = probe(
        ctx,
        "probe.matrix.dual_build",
        || a.pattern(),
        |mut m| {
            m.set_dual_storage(true);
            let mut w = Vector::<bool>::new(n)?;
            mxv(&mut w, None, NOACC, &LOR_LAND, &m, &empty, &Descriptor::default())?;
            Ok(m)
        },
    )?;
    ctx.out.set_n("matrix.dual_build_s", p.secs, p.calls);
    drop(p);

    let p = probe(ctx, "probe.matrix.transpose", || (), |()| transpose_new(a))?;
    ctx.out.set_n("matrix.transpose_s", p.secs, p.calls);
    drop(p);
    ctx.out.set("matrix.bytes_per_edge", a.memory_usage().total() as f64 / nedges);

    // --- ops ---------------------------------------------------------------
    // Pull: PageRank's product, a dense vector through the transpose.
    let dense = Vector::dense(n, 1.0 / n as f64)?;
    let pull = |ctx: &mut Ctx, span: &'static str, m: &Matrix<f64>| {
        probe(
            ctx,
            span,
            || (),
            |()| {
                let mut w = Vector::<f64>::new(n)?;
                let desc = Descriptor::new().direction(Direction::Pull);
                mxv(&mut w, None, NOACC, &PLUS_SECOND, m, &dense, &desc)?;
                Ok(w)
            },
        )
    };
    let mut at_csr = (*at).clone();
    at_csr.set_compressed(false);
    let csr_pull = pull(ctx, "probe.ops.mxv.pull", &at_csr)?;
    ctx.out.set_n("ops.mxv.pull_s", csr_pull.secs, csr_pull.calls);
    ctx.out.set_n("ops.mxv.pull_mflops", csr_pull.flops / csr_pull.secs / 1e6, csr_pull.calls);

    // Push: one BFS step, an n/256-entry frontier under a complemented mask.
    let frontier_len = (n / 256).max(1);
    let frontier = Vector::from_tuples(
        n,
        gen::sample_distinct(n, frontier_len, seed).into_iter().map(|v| (v, true)).collect(),
        |_, b| b,
    )?;
    let visited = frontier.pattern();
    let p = probe(
        ctx,
        "probe.ops.mxv.push",
        || (),
        |()| {
            let mut w = Vector::<bool>::new(n)?;
            let desc = Descriptor::new()
                .transpose_a()
                .complement()
                .structural()
                .replace()
                .direction(Direction::Push);
            mxv(&mut w, Some(&visited), NOACC, &LOR_LAND, &*st, &frontier, &desc)?;
            Ok(w)
        },
    )?;
    ctx.out.set_n("ops.mxv.push_s", p.secs, p.calls);
    drop(p);

    // Triangle counting's pieces: tril, the masked dot product, and the
    // fused product-and-reduce that replaced it.
    let p = probe(ctx, "probe.ops.select.tril", || (), |()| tril(&*st))?;
    ctx.out.set_n("ops.select.tril_s", p.secs, p.calls);
    let l = p.last;
    let desc = Descriptor::new().structural().transpose_b().method(MxmMethod::Dot);
    let p = probe(
        ctx,
        "probe.ops.mxm.masked_dot",
        || (),
        |()| {
            let mut c = Matrix::<u64>::new(n, n)?;
            mxm(&mut c, Some(&l), NOACC, &PLUS_PAIR, &l, &l, &desc)?;
            Ok(c)
        },
    )?;
    ctx.out.set_n("ops.mxm.masked_dot_s", p.secs, p.calls);
    drop(p);
    let p = probe(
        ctx,
        "probe.ops.fused.reduce",
        || (),
        |()| {
            fused_mxm_reduce_scalar::<_, _, u64, _, _, _>(
                &binaryop::Plus,
                &l,
                &PLUS_PAIR,
                &l,
                &l,
                &desc,
            )
        },
    )?;
    ctx.out.set_n("ops.fused.reduce_s", p.secs, p.calls);
    ctx.out.set_n("ops.fused.reduce_mflops", p.flops / p.secs / 1e6, p.calls);
    drop(l);

    // Gustavson: one level of the batched BFS, a 16×n frontier matrix.
    let mut rows = Vec::new();
    for k in 0..16 {
        for v in gen::sample_distinct(n, frontier_len, seed.wrapping_add(k as u64 + 1)) {
            rows.push((k, v, true));
        }
    }
    let f = Matrix::from_tuples(16, n, rows, |_, b| b)?;
    let visited = f.pattern();
    let p = probe(
        ctx,
        "probe.ops.mxm.gustavson",
        || (),
        |()| {
            let mut next = Matrix::<bool>::new(16, n)?;
            let desc = Descriptor::new().complement().structural().replace();
            mxm(&mut next, Some(&visited), NOACC, &LOR_LAND, &f, &*st, &desc)?;
            Ok(next)
        },
    )?;
    ctx.out.set_n("ops.mxm.gustavson_s", p.secs, p.calls);
    drop(p);

    // Union of two disjoint half-graphs: the shard combine.
    let half = |keep_low: bool| {
        let t = tuples.iter().copied().filter(|&(i, _, _)| (i < n / 2) == keep_low).collect();
        Matrix::from_tuples(n, n, t, |_, b| b)
    };
    let (lo, hi) = (half(true)?, half(false)?);
    let p = probe(
        ctx,
        "probe.ops.ewise.add_matrix",
        || (),
        |()| {
            let mut out = Matrix::<f64>::new(n, n)?;
            ewise_add_matrix(
                &mut out,
                None,
                NOACC,
                binaryop::Plus,
                &lo,
                &hi,
                &Descriptor::default(),
            )?;
            Ok(out)
        },
    )?;
    ctx.out.set_n("ops.ewise.add_matrix_s", p.secs, p.calls);
    drop((p, lo, hi));

    // Row reduction: the degree count.
    let mut counts = Matrix::<i64>::new(n, n)?;
    apply_matrix(&mut counts, None, NOACC, unaryop::One, &a.pattern(), &Descriptor::default())?;
    let p = probe(
        ctx,
        "probe.ops.reduce.rows",
        || (),
        |()| {
            let mut d = Vector::<i64>::new(n)?;
            reduce_matrix(&mut d, None, NOACC, &binaryop::Plus, &counts, &Descriptor::default())?;
            Ok(d)
        },
    )?;
    ctx.out.set_n("ops.reduce.rows_s", p.secs, p.calls);
    drop((p, counts));

    // --- parallel: what one dispatch costs with nothing to do --------------
    let p = probe(
        ctx,
        "probe.parallel.dispatch",
        || (),
        |()| {
            for _ in 0..DISPATCHES {
                std::hint::black_box(parallel::par_chunks(parallel::threads(), usize::MAX, |_| ()));
            }
            Ok(())
        },
    )?;
    ctx.out.set_n("parallel.dispatch_us", p.secs / DISPATCHES as f64 * 1e6, p.calls);

    // --- cost: what an unpinned process calibrates to ----------------------
    let (push_ns, pull_ns) =
        host::calibrated_cost_model().unwrap_or((cost::model().push_ns, cost::model().pull_ns));
    ctx.out.set("cost.push_ns", push_ns);
    ctx.out.set("cost.pull_ns", pull_ns);

    // --- compressed / io ---------------------------------------------------
    let mut csr = a.clone();
    csr.set_compressed(false);
    let p = probe(
        ctx,
        "probe.compressed.encode",
        || csr.clone(),
        |mut m| {
            m.set_compressed(true);
            Ok(m)
        },
    )?;
    ctx.out.set_n("compressed.encode_s", p.secs, p.calls);
    let compressed = p.last;
    ctx.out.set("compressed.bytes_per_edge", compressed.memory_usage().total() as f64 / nedges);
    drop(csr);
    let mut at_compressed = at_csr.clone();
    at_compressed.set_compressed(true);
    let cursor_pull = pull(ctx, "probe.compressed.pull", &at_compressed)?;
    ctx.out.set_n("compressed.pull_slowdown", cursor_pull.secs / csr_pull.secs, cursor_pull.calls);

    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| Error::invalid(format!("out dir: {e}")))?;
    let path = ctx.out_dir.join(format!("{}.{}.probe.lagc", ctx.spec.name, std::process::id()));
    let io = probe(
        ctx,
        "probe.io.lagc_write",
        || (),
        |()| lagraph_io::binary::write_lagc(&compressed, &path),
    )
    .and_then(|w| {
        let r = probe(
            ctx,
            "probe.io.lagc_load",
            || (),
            |()| lagraph_io::binary::read_lagc::<f64>(&path, false),
        )?;
        Ok((w, r))
    });
    let _ = std::fs::remove_file(&path);
    let (write, load) = io?;
    ctx.out.set_n("io.lagc_write_s", write.secs, write.calls);
    ctx.out.set_n("io.lagc_load_s", load.secs, load.calls);
    Ok(())
}
