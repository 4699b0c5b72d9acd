//! Deterministic cost budgets for the traversal loops, read off drained
//! trace spans — so a loop that goes back to snapshot-and-merge (a
//! `clone()` per round, a pattern rebuilt per level, a result reinstalled
//! sparse and re-promoted) fails a test, not a benchmark.
//!
//! Everything here is a count the library reports about itself on a 2^12
//! RMAT at one thread under the pinned cost model (`GRAPHBLAS_COST_MODEL=
//! 3,1`, set below when the caller has not): op spans per PageRank
//! iteration, FastSV round and Δ-stepping light relaxation; which path
//! each vector `write` took; how many vectors changed storage form, and
//! that none converts lists a write has just merged; for BFS, the
//! positions its writes examined; and, per masked `mxv`, the mask
//! scatters and the write's re-probes; for a BFS pull, the rows it walked,
//! and over the compressed form the gap entries it decoded and the cursor
//! seeks it made. Three budgets use graphs of their own: a push from a
//! star's hub, judged on the entries it scanned; the epochs at which a
//! service's publishes fold their overlay; and the row entries a
//! components repair reads to cut a leaf off a hub or to find a ring
//! still joined. A service snapshot's component labels cost one repair a
//! publish and nothing a query.

use std::sync::Mutex;

use graphblas::parallel::{set_par_threshold, set_threads};
use graphblas::trace::{self, Cat, Event, RunAggregate};
use lagraph::algorithms::{
    bfs_level, bfs_level_batch, bfs_level_direction, connected_components, pagerank,
    sssp_delta_stepping, PageRankOptions,
};
use lagraph::gen::Workload;
use lagraph::graph::{Graph, GraphKind};

/// Op spans (each op and the `write` that ends it) in one PageRank
/// iteration: two `ewise_mult`, the pull `mxv` and one `ewise_add` with
/// their writes, and two `reduce`. The loop this replaced spent 11.
const PAGERANK_ITER_SPANS: usize = 10;
/// One FastSV round: `extract`, `mxv` and `apply` with their writes, and
/// the `reduce` that tests for the fixpoint. Was 8.
const FASTSV_ROUND_SPANS: usize = 7;
/// One Δ-stepping light relaxation: `vxm`, `ewise_mult`, `select` and
/// `apply`, each with its write. Was 11.
const DELTA_RELAXATION_SPANS: usize = 8;
/// A non-empty bucket outside its relaxations: the two bucket scans
/// (`select` + write) and the heavy `vxm` + write.
const DELTA_BUCKET_SPANS: usize = 6;

/// One level of the batched BFS, whatever its width: `apply` (seen),
/// `ewise_mult` (done), `mxv`, `ewise_mult` and `select` (the next
/// frontier), each with its write. The frontier-matrix loop it replaced ran
/// an `mxm` and a matrix assign per level and cost 4 k single traversals.
const BATCH_LEVEL_SPANS: usize = 10;

/// The trace ring, the thread count and the cost model are process-wide.
static GLOBALS: Mutex<()> = Mutex::new(());

/// Run `f` at one thread under the pinned cost model with tracing on and
/// return what it recorded, oldest first.
fn traced<R>(f: impl FnOnce() -> R) -> (R, Vec<Event>) {
    traced_at(1, f)
}

/// [`traced`] at `threads` threads; above one, the sequential cutoff is
/// forced down so that every dispatch the 2^12 graph makes is chunked.
fn traced_at<R>(threads: usize, f: impl FnOnce() -> R) -> (R, Vec<Event>) {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    if std::env::var_os("GRAPHBLAS_COST_MODEL").is_none() {
        // Read once, at the first direction choice of the process; every
        // test takes the lock above before its first operation.
        std::env::set_var("GRAPHBLAS_COST_MODEL", "3,1");
    }
    set_threads(threads);
    set_par_threshold(usize::from(threads > 1));
    trace::set_capacity(1 << 20);
    trace::clear();
    trace::enable();
    let out = f();
    trace::disable();
    set_threads(0);
    set_par_threshold(0);
    let mut events = trace::drain();
    events.sort_by_key(|e| e.t0_ns);
    (out, events)
}

fn rmat() -> Graph {
    Workload::Rmat.graph(12, 16, 7, 255).expect("rmat scale 12")
}

fn inside(inner: &Event, outer: &Event) -> bool {
    inner.t0_ns >= outer.t0_ns && inner.t0_ns + inner.dur_ns <= outer.t0_ns + outer.dur_ns
}

fn is_op(e: &Event) -> bool {
    e.cat == Cat::Op && e.dur_ns > 0
}

/// The op spans that ran inside each span named `name`.
fn ops_per<'a>(events: &'a [Event], name: &str) -> Vec<Vec<&'a Event>> {
    events
        .iter()
        .filter(|e| e.name == name && e.dur_ns > 0)
        .map(|outer| events.iter().filter(|e| is_op(e) && inside(e, outer)).collect())
        .collect()
}

/// No write found its output full-length and merged lists all the same,
/// and the in-place arm did run.
fn assert_full_length_outputs_written_in_place(events: &[Event], what: &str) {
    let mut in_place = 0;
    for w in events.iter().filter(|e| e.name == "write" && e.arg_str("w_form").is_some()) {
        let (form, path) = (w.arg_str("w_form").expect("form"), w.arg_str("path").expect("path"));
        assert!(form == "sparse" || path != "merge", "{what}: a {form} output was merged: {w:?}");
        in_place += usize::from(path == "inplace");
    }
    assert!(in_place > 0, "{what}: no write took the in-place arm");
}

#[test]
fn pagerank_iteration_budget() {
    let g = rmat();
    let opts = PageRankOptions { tolerance: 1e-6, ..Default::default() };
    let ((_, iters), events) = traced(|| pagerank(&g, &opts).expect("pagerank"));
    assert!(iters >= 8, "too few iterations ({iters}) for the budget to mean anything");
    let per_iter = ops_per(&events, "pagerank.iter");
    assert_eq!(per_iter.len(), iters);
    for (k, ops) in per_iter.iter().enumerate() {
        let names: Vec<_> = ops.iter().map(|e| e.name).collect();
        assert_eq!(ops.len(), PAGERANK_ITER_SPANS, "iteration {}: {names:?}", k + 1);
        assert!(
            ops.iter().all(|e| e.arg_str("path") != Some("merge")),
            "iteration {}: a write merged lists: {names:?}",
            k + 1
        );
    }
    assert_full_length_outputs_written_in_place(&events, "pagerank");
    // Forms settle in the first iteration; later ones convert nothing.
    let agg = RunAggregate::from_events(&events);
    assert!(
        agg.vector_conversions <= 4,
        "{} form conversions in {iters} iterations",
        agg.vector_conversions
    );
}

#[test]
fn fastsv_round_budget() {
    let g = rmat();
    let (_, events) = traced(|| connected_components(&g).expect("cc"));
    let per_round = ops_per(&events, "cc.iter");
    assert!(per_round.len() >= 2, "FastSV needs a second round to see its fixpoint");
    for (k, ops) in per_round.iter().enumerate() {
        let names: Vec<_> = ops.iter().map(|e| e.name).collect();
        assert_eq!(ops.len(), FASTSV_ROUND_SPANS, "round {}: {names:?}", k + 1);
    }
    assert_full_length_outputs_written_in_place(&events, "fastsv");
    let agg = RunAggregate::from_events(&events);
    assert_eq!(agg.writes_merge, 0, "every FastSV vector is full-length from the start");
    assert!(agg.vector_conversions <= 2, "{} form conversions", agg.vector_conversions);
}

#[test]
fn delta_stepping_relaxation_budget() {
    let g = rmat();
    let source = g.out_degree().expect("degrees").iter().next().expect("a vertex with edges").0;
    let (_, events) = traced(|| sssp_delta_stepping(&g, source, 64.0).expect("sssp"));
    let algo = events.iter().find(|e| e.name == "sssp.delta_stepping").expect("algo span");
    // The light/heavy split runs under the algorithm span, not before it.
    let splits = events
        .iter()
        .filter(|e| e.name == "select" && e.arg_u64("a_nnz").is_some() && inside(e, algo))
        .count();
    assert_eq!(splits, 2, "both split selects are attributed to sssp.delta_stepping");
    let mut relaxations = 0;
    for (b, ops) in ops_per(&events, "sssp.bucket").iter().enumerate() {
        let products = ops.iter().filter(|e| e.name == "vxm").count();
        if products == 0 {
            continue; // an empty bucket: scans only
        }
        let names: Vec<_> = ops.iter().map(|e| e.name).collect();
        assert_eq!(
            ops.len(),
            DELTA_BUCKET_SPANS + DELTA_RELAXATION_SPANS * (products - 1),
            "bucket {b} with {} relaxations: {names:?}",
            products - 1
        );
        relaxations += products - 1;
    }
    assert!(relaxations >= 4, "only {relaxations} light relaxations ran");
    assert_full_length_outputs_written_in_place(&events, "delta-stepping");
    // Without dual storage on the per-call split every product pushes.
    let agg = RunAggregate::from_events(&events);
    assert_eq!((agg.pull, agg.direction_fallbacks), (0, 0));
}

/// Positions examined by all the vector writes of one BFS.
fn bfs_write_work(g: &Graph, source: usize) -> (usize, u64, u64) {
    let (levels, events) = traced(|| bfs_level(g, source).expect("bfs"));
    assert_full_length_outputs_written_in_place(&events, "bfs");
    let work = events.iter().filter(|e| e.name == "write").filter_map(|e| e.arg_u64("work")).sum();
    let depth = events.iter().filter(|e| e.name == "bfs.iter").count() as u64;
    (levels.nvals(), work, depth)
}

#[test]
fn bfs_write_cost_follows_the_frontier() {
    // On the RMAT: every reached vertex is written once into `levels`,
    // once into `visited` and once as part of a frontier, plus what the
    // merge arm rereads while `levels` is still sparse (< n/16 entries).
    let g = rmat();
    let source = g.out_degree().expect("degrees").iter().next().expect("a vertex with edges").0;
    let (reached, work, depth) = bfs_write_work(&g, source);
    assert!(reached > 1000, "the source's component is most of the graph ({reached})");
    assert!(
        work <= 4 * reached as u64 + 64 * depth,
        "bfs writes examined {work} positions for {reached} reached vertices in {depth} levels"
    );

    // On a path, 4096 levels of one vertex each: rebuilding `levels` (or
    // its pattern) per level costs n²/2 ≈ 8.4 M positions. The in-place
    // arm costs O(1) per level once `levels` and `visited` are
    // full-length; until then (256 levels) the merge arm rereads their
    // lists, (n/16)² ≈ 65 k positions in all.
    let n = 4096;
    let edges: Vec<(usize, usize)> = (0..n - 1).map(|v| (v, v + 1)).collect();
    let path = Graph::from_edges(n, &edges, GraphKind::Undirected).expect("path");
    let (reached, work, depth) = bfs_write_work(&path, 0);
    assert_eq!((reached, depth), (n, n as u64));
    assert!(work <= 24 * n as u64, "bfs on a path examined {work} positions");
}

#[test]
fn batch_bfs_costs_one_traversal() {
    let g = Workload::Rmat.graph(10, 16, 7, 255).expect("rmat scale 10");
    let pool: Vec<usize> = g.out_degree().expect("degrees").iter().map(|(v, _)| v).collect();
    for k in [4usize, 64] {
        let sources: Vec<usize> = (0..k).map(|j| pool[j * 13 % pool.len()]).collect();
        let (batch, events) = traced(|| bfs_level_batch(&g, &sources).expect("batch"));
        // The ring is process-wide: the oracle runs under the lock too.
        let single = |&s: &usize| bfs_level(&g, s).expect("single");
        let (singles, _) = traced(|| sources.iter().map(single).collect::<Vec<_>>());
        for (row, single) in batch.iter().zip(singles) {
            assert_eq!(row.extract_tuples(), single.extract_tuples(), "k = {k}");
        }
        let per_level = ops_per(&events, "bfs.iter");
        for (d, ops) in per_level.iter().enumerate() {
            let names: Vec<_> = ops.iter().map(|e| e.name).collect();
            assert_eq!(ops.len(), BATCH_LEVEL_SPANS, "k = {k}, level {}: {names:?}", d + 1);
        }
        let products = events.iter().filter(|e| is_op(e) && e.name == "mxv").count();
        assert_eq!(products, per_level.len(), "k = {k}: one mxv a level, one traversal a batch");
        assert!(events.iter().all(|e| e.name != "mxm"), "k = {k}: the batch ran an mxm");
        let algo = events.iter().find(|e| e.name == "bfs.batch").expect("algo span");
        assert_eq!((algo.arg_u64("sources"), algo.arg_u64("words")), (Some(k as u64), Some(1)));
    }
}

/// How many op spans of each name ran, and how many writes took each path
/// into each output form.
fn op_census(events: &[Event]) -> std::collections::BTreeMap<String, usize> {
    let mut census = std::collections::BTreeMap::new();
    for e in events.iter().filter(|e| is_op(e)) {
        let key = match (e.arg_str("w_form"), e.arg_str("path")) {
            (Some(form), Some(path)) => format!("{} {path} into {form}", e.name),
            _ => e.name.to_string(),
        };
        *census.entry(key).or_insert(0) += 1;
    }
    census
}

#[test]
fn two_threads_keep_the_one_thread_budgets() {
    // A push cut in two used to come back as sorted lists: the write that
    // followed merged them (or installed a sparse frontier the next level
    // had to promote again), so the loops above did more at 2 threads than
    // at 1. Chunked, each traversal must record exactly the op spans, write
    // paths and form conversions of its 1-thread run — the same answers go
    // without saying.
    let g = rmat();
    let source = g.out_degree().expect("degrees").iter().next().expect("a vertex with edges").0;
    type Run = fn(&Graph, usize) -> Vec<(usize, u64)>;
    let bfs: Run = |g, s| {
        let levels = bfs_level(g, s).expect("bfs").extract_tuples();
        levels.into_iter().map(|(v, l)| (v, l as u64)).collect()
    };
    let sssp: Run = |g, s| {
        let dist = sssp_delta_stepping(g, s, 64.0).expect("sssp").extract_tuples();
        dist.into_iter().map(|(v, d)| (v, d.to_bits())).collect()
    };
    for (what, run) in [("bfs", bfs), ("delta-stepping", sssp)] {
        let (one, events_one) = traced(|| run(&g, source));
        let (two, events_two) = traced_at(2, || run(&g, source));
        assert_eq!(one, two, "{what}: answers differ");
        let chunked = events_two.iter().filter(|e| e.name == "chunk").count();
        assert!(chunked > 0, "{what}: nothing was chunked at 2 threads");
        assert_full_length_outputs_written_in_place(&events_two, what);
        assert_eq!(op_census(&events_one), op_census(&events_two), "{what}: op spans differ");
        let (agg_one, agg_two) =
            (RunAggregate::from_events(&events_one), RunAggregate::from_events(&events_two));
        assert_eq!(
            (agg_one.writes_merge, agg_one.vector_conversions, agg_one.push, agg_one.pull),
            (agg_two.writes_merge, agg_two.vector_conversions, agg_two.push, agg_two.pull),
            "{what}: merges, form conversions or directions differ"
        );
    }
}

#[test]
fn a_write_that_fills_a_sparse_output_writes_in_place() {
    // A write whose allowed result alone fills a sparse output to n/16
    // promotes it first and scatters in place; merging lists that
    // `optimize_form` converts straight after (BFS level 3 did, for
    // `levels` and `visited`) shows as a `merge` write followed by a
    // conversion from sparse before the next op starts.
    let g = rmat();
    let source = g.out_degree().expect("degrees").iter().next().expect("a vertex with edges").0;
    let (_, bfs) = traced(|| bfs_level(&g, source).expect("bfs"));
    let (_, sssp) = traced(|| sssp_delta_stepping(&g, source, 64.0).expect("sssp"));
    for (what, events) in [("bfs", &bfs), ("delta-stepping", &sssp)] {
        let mut merged: Option<&Event> = None;
        for e in events.iter() {
            if e.name == "vector.convert" && e.arg_str("from") == Some("sparse") {
                assert!(merged.is_none(), "{what}: {e:?} converts the lists of {merged:?}");
            } else if is_op(e) {
                merged = (e.name == "write" && e.arg_str("path") == Some("merge")).then_some(e);
            }
        }
    }
    let promoted =
        |w: &&Event| w.arg_str("w_form") == Some("sparse") && w.arg_str("path") == Some("inplace");
    assert!(
        bfs.iter().filter(|e| e.name == "write").any(|w| promoted(&w)),
        "bfs promoted no write"
    );
}

#[test]
fn a_push_that_expands_a_hub_is_judged_on_the_entries_it_scanned() {
    use graphblas::prelude::*;
    use graphblas::semiring::LOR_LAND;
    // A star: hub 0 and 999 leaves, every vertex already visited. The
    // frontier {hub} looks cheap to push (est_push 1 against est_pull
    // 2000), and the push scans all 999 leaves of the hub's row, but each
    // lands on a masked-out slot and books no flop: only the scanned count
    // shows it cost 3 · 999 against the pull's 2000.
    let n = 1000;
    let star = (1..n).flat_map(|j| [(0, j, true), (j, 0, true)]).collect();
    let mut a = Matrix::from_tuples(n, n, star, |_, b| b).expect("star");
    a.set_dual_storage(true);
    let visited = Vector::dense(n, true).expect("visited");
    let frontier = Vector::from_tuples(n, vec![(0, true)], |_, b| b).expect("frontier");
    let (_, events) = traced(|| {
        let mut next = Vector::<bool>::new(n).expect("next");
        let desc = DESC_TRAN_COMP_REPLACE;
        mxv(&mut next, Some(&visited), NOACC, &LOR_LAND, &a, &frontier, &desc).expect("mxv");
        assert_eq!(next.nvals(), 0);
    });
    let span = events.iter().find(|e| e.name == "mxv").expect("mxv span");
    assert!(span.kernel.is_some_and(|k| k.starts_with("push")), "{span:?}");
    assert_eq!((span.arg_u64("flops"), span.arg_u64("scanned")), (Some(0), Some(n as u64 - 1)));
    let mispredicts: Vec<_> = events.iter().filter(|e| e.name == "mxv.mispredict").collect();
    assert_eq!(mispredicts.len(), 1, "{mispredicts:?}");
    assert_eq!(mispredicts[0].arg_u64("actual"), Some(n as u64 - 1));
}

/// The vertices of the test RMAT by degree, largest first (ties by id).
fn hubs(g: &Graph) -> Vec<usize> {
    let mut by_degree: Vec<(usize, i64)> = g.out_degree().expect("degrees").iter().collect();
    by_degree.sort_by_key(|&(v, d)| (std::cmp::Reverse(d), v));
    by_degree.into_iter().map(|(v, _)| v).collect()
}

#[test]
fn a_masked_mxv_readies_its_mask_once_and_the_write_trusts_it() {
    // Every level of a BFS (a structural complemented `visited`) and of a
    // batched BFS (a valued complemented `done`): the kernel skipped every
    // blocked position, so the `install` write re-probes none of its
    // entries, and no mask is scattered into presence words twice.
    let g = rmat();
    let source = hubs(&g)[0];
    let sources: Vec<usize> = hubs(&g).into_iter().step_by(7).take(16).collect();
    let (_, bfs) = traced(|| bfs_level(&g, source).expect("bfs"));
    let (_, batch) = traced(|| bfs_level_batch(&g, &sources).expect("batch"));
    for (what, events) in [("bfs", &bfs), ("batch", &batch)] {
        let mut scattered = 0;
        for mxv in events.iter().filter(|e| e.name == "mxv" && e.dur_ns > 0) {
            let within: Vec<&Event> = events.iter().filter(|e| inside(e, mxv)).collect();
            let write = within.iter().find(|e| e.name == "write").expect("the mxv's write");
            assert_eq!(write.arg_str("path"), Some("install"), "{what}: {write:?}");
            assert_eq!(write.arg_u64("reprobed"), Some(0), "{what}: {write:?}");
            let scatters = within.iter().filter(|e| e.name == "mask.scatter").count();
            assert!(scatters <= 1, "{what}: {scatters} scatters in one mxv");
            scattered += scatters;
        }
        // Level 2 of the BFS probes a still-sparse `visited` at every row:
        // scattered once, for the kernel and the write. The batch's `done`
        // is full-length from the start.
        assert_eq!(scattered, usize::from(what == "bfs"), "{what}: masks scattered");
    }
}

#[test]
fn an_epoch_folds_exactly_when_its_overlay_crosses_the_cut() {
    use lagraph::service::{GraphService, ServiceConfig};
    // A 256-ring, and 64 epochs of one chord each, (e, e + 128): every
    // epoch writes two fresh rows of three entries. The first publish
    // writes a base of its own from the plain-CSR adjacency; after that
    // each publish writes six entries and copies one handle per overlay
    // segment before its own, and the overlay folds into a fresh base as
    // soon as that adds up to more than an eighth of the base it sits on.
    const N: usize = 256;
    const EPOCHS: usize = 64;
    let mut want = Vec::new();
    let (mut base, mut spent, mut segments) = (2 * N, 0, 0);
    for e in 1..=EPOCHS {
        spent += 6 + segments;
        segments += 1;
        if e == 1 || spent * 8 > base {
            want.push(e as u64);
            (base, spent, segments) = (2 * N + 2 * e, 0, 0);
        }
    }
    assert_eq!(want, [1, 9, 17, 25, 33, 41, 49, 58]);
    let ring: Vec<(usize, usize)> = (0..N).map(|i| (i, (i + 1) % N)).collect();
    let g = Graph::from_edges(N, &ring, GraphKind::Undirected).expect("ring");
    let (_, events) = traced(|| {
        let config = ServiceConfig { shards: 1, ..ServiceConfig::default() };
        let s = GraphService::new(g, config).expect("service");
        for e in 0..EPOCHS {
            s.insert_edge(e, e + N / 2, 1.0).expect("insert");
            s.flush().expect("flush");
        }
    });
    let epochs: Vec<&Event> = events.iter().filter(|e| e.name == "service.epoch").collect();
    assert_eq!(epochs.len(), EPOCHS);
    let folded: Vec<u64> = epochs
        .iter()
        .filter(|e| e.arg_u64("folded") == Some(1))
        .map(|e| e.arg_u64("epoch").expect("epoch"))
        .collect();
    assert_eq!(folded, want);
    // Between folds the overlay holds the two rows of every epoch since.
    for e in &epochs {
        let epoch = e.arg_u64("epoch").expect("epoch");
        let since = epoch - want.iter().rev().find(|&&f| f <= epoch).expect("a fold before");
        assert_eq!(e.arg_u64("overlay_rows"), Some(2 * since), "epoch {epoch}");
        assert_eq!(e.arg_u64("overlay_entries"), Some(6 * since), "epoch {epoch}");
    }
    // Only the adjacency is materialised, so each fold is one tagged span.
    let tagged =
        events.iter().filter(|e| e.name == "assemble.matrix" && e.arg_u64("fold") == Some(1));
    assert_eq!(tagged.count(), want.len());
}

#[test]
fn a_fold_on_a_publish_that_writes_nothing_is_tagged() {
    use graphblas::prelude::*;
    // A 128-entry base and 21 empty publishes: the m-th since a fold
    // copies m - 1 segment handles, and 21 · 8 > 128 first at m = 7.
    let ring = (0..64).flat_map(|i| [(i, (i + 1) % 64, 1.0), ((i + 1) % 64, i, 1.0)]).collect();
    let source = Matrix::from_tuples(64, 64, ring, |_, b| b).expect("ring");
    let (folded, events) = traced(|| {
        let mut m = source.with_edits(&[]).expect("first publish");
        let mut folded = Vec::new();
        for p in 1..=21 {
            m = m.with_edits(&[]).expect("publish");
            if m.layers().expect("layered").folded {
                folded.push(p);
            }
        }
        folded
    });
    assert_eq!(folded, [7, 14, 21]);
    let publishes: Vec<bool> = events
        .iter()
        .filter(|e| e.name == "assemble.matrix" && e.arg_u64("overlay_rows").is_some())
        .map(|e| e.arg_u64("fold") == Some(1))
        .collect();
    let want: Vec<bool> = (0..=21).map(|p| p % 7 == 0).collect();
    assert_eq!(publishes, want);
}

#[test]
fn a_cc_repair_scans_the_side_it_cuts_off_not_the_graph() {
    use lagraph::connected_components_delta;
    // A 512-ring whose vertex 0 is also the hub of a 8192-leaf star.
    const RING: usize = 512;
    const LEAVES: usize = 8192;
    let n = RING + LEAVES;
    let ring = (0..RING).map(|i| (i, (i + 1) % RING));
    let edges: Vec<_> = ring.chain((RING..n).map(|l| (0, l))).collect();
    let repair = |cut: (usize, usize)| {
        let after: Vec<_> = edges.iter().copied().filter(|&e| e != cut).collect();
        let after = Graph::from_edges(n, &after, GraphKind::Undirected).expect("after");
        let (labels, events) =
            traced(|| connected_components_delta(&after, &vec![0; n], &[], &[cut]));
        let span = events.iter().find(|e| e.name == "cc.delta").expect("cc.delta span");
        let args = ["deletes", "searches", "scanned"].map(|k| span.arg_u64(k).expect(k));
        (labels, args)
    };
    // A leaf's only edge: the leaf's empty row runs dry before any of the
    // hub's 8193 remaining entries is read.
    let leaf = RING + 5;
    let (labels, [deletes, searches, scanned]) = repair((0, leaf));
    assert_eq!((deletes, searches, scanned), (1, 1, 0));
    assert!(labels.iter().enumerate().all(|(v, &l)| l == if v == leaf { leaf as u64 } else { 0 }));
    // A ring edge: its endpoints are 511 hops apart the other way round.
    // The two sides walk the ring towards each other, two entries a ring
    // vertex, and meet at the hub without expanding it.
    let (labels, [deletes, searches, scanned]) = repair((RING / 2, RING / 2 + 1));
    assert_eq!((deletes, searches), (1, 1));
    let distance = RING as u64 - 1;
    assert!(scanned <= 2 * distance, "scanned {scanned} entries for a ring distance of {distance}");
    assert!(labels.iter().all(|&l| l == 0));
}

#[test]
fn a_publish_repairs_the_components_once_and_a_query_reads_them() {
    use lagraph::service::{GraphService, Query, ServiceConfig, Update};
    use std::sync::Arc;
    let g = rmat();
    let n = g.nvertices();
    // Inserts of absent edges and deletes of held ones: each is a
    // structural event, so every epoch they turn repairs the labels.
    let rows = g.a().rows();
    let mut updates = Vec::new();
    let mut touched = std::collections::BTreeSet::new();
    for k in 0..24 {
        let (i, j) = ((k * 131) % n, (k * 257 + n / 2) % n);
        if i != j && !rows.contains(i, j) && touched.insert((i.min(j), i.max(j))) {
            updates.push(Update::Insert(i, j, 1.0));
        }
    }
    for i in (0..n).step_by(61) {
        let mut first = None;
        rows.for_each(i, |j| first = first.or((j != i).then_some(j)));
        if let Some(j) = first.filter(|&j| touched.insert((i.min(j), i.max(j)))) {
            updates.push(Update::Delete(i, j));
        }
    }
    let absent = (1..n).map(|j| (0, j)).find(|&(i, j)| !rows.contains(i, j)).expect("a non-edge");
    drop(rows);
    let config = ServiceConfig { shards: 1, ..ServiceConfig::default() };
    let (s, events) = traced(|| {
        let s = GraphService::new(g, config).expect("service");
        s.query(Query::connected_components()).expect("cc at epoch 0");
        s
    });
    assert_eq!(events.iter().filter(|e| e.name == "cc.fastsv").count(), 1);

    let (snap, events) = traced(|| {
        for u in &updates {
            s.submit(*u).expect("submit");
        }
        s.flush().expect("flush")
    });
    let epochs: Vec<&Event> = events.iter().filter(|e| e.name == "service.epoch").collect();
    assert!(!epochs.is_empty());
    for epoch in &epochs {
        let repairs = events.iter().filter(|e| e.name == "cc.delta" && inside(e, epoch)).count();
        assert_eq!(repairs, 1, "epoch {:?}: {repairs} cc.delta spans", epoch.arg_u64("epoch"));
    }
    assert!(events.iter().all(|e| e.name != "cc.fastsv"), "a publish ran FastSV");

    let (answer, events) = traced(|| s.query(Query::connected_components()).expect("cc"));
    let ops: Vec<_> = events.iter().filter(|e| is_op(e)).map(|e| e.name).collect();
    assert!(ops.is_empty(), "a cc query on a snapshot with labels ran {ops:?}");
    // The answer is the snapshot's own labels, not a copy.
    let labels = snap.graph().components().expect("held labels");
    assert!(std::ptr::eq(answer.components().expect("components"), &*labels));
    let (oracle, _) = traced(|| {
        let fresh = Graph::new(snap.graph().a().clone(), GraphKind::Undirected).expect("graph");
        connected_components(&fresh).expect("fastsv")
    });
    assert_eq!(labels.extract_tuples(), oracle.extract_tuples());

    // A re-weight of a held edge and a delete of an absent one: no event,
    // no repair, and the successor holds the very same labels.
    let (i, j) = match updates[0] {
        Update::Insert(i, j, _) => (i, j),
        Update::Delete(..) => unreachable!("the first update inserts"),
    };
    assert!(!touched.contains(&absent));
    let (next, events) = traced(|| {
        s.insert_edge(i, j, 3.5).expect("re-weight");
        s.delete_edge(absent.0, absent.1).expect("delete of a non-edge");
        s.flush().expect("flush")
    });
    assert!(next.epoch() > snap.epoch());
    assert!(events.iter().all(|e| e.name != "cc.delta"), "an epoch without events repaired");
    let carried = next.graph().components().expect("components");
    assert!(Arc::ptr_eq(&carried, &labels), "an epoch without events copied the labels");
}

/// The entries a CSR pull reads at BFS level `depth` (1 at the source):
/// every row the complemented `visited` mask allows, up to and including
/// its first entry in the frontier, or all of it when none is.
fn pull_reads_at(rows: &[Vec<usize>], level: &[i32], depth: i32) -> u64 {
    let allowed = |i: usize| level[i] == 0 || level[i] > depth;
    let read =
        |row: &Vec<usize>| row.iter().position(|&j| level[j] == depth).map_or(row.len(), |p| p + 1);
    (0..rows.len()).filter(|&i| allowed(i)).map(|i| read(&rows[i]) as u64).sum()
}

#[test]
fn a_compressed_pull_decodes_each_row_only_to_its_first_hit() {
    use graphblas::descriptor::Direction;
    // Every level of a BFS forced to pull over the compressed test RMAT
    // decodes exactly the entries the CSR pull reads at that level — each
    // allowed row up to its first frontier entry — and positions its row
    // cursor once per chunk: one seek at one thread, where the whole row
    // range is one chunk, and at most one per chunk at two. Before the
    // cursor, each row cost three selects and a decode of the whole row.
    let g = rmat();
    let source = hubs(&g)[0];
    let n = g.a().nrows();
    let mut level = vec![0i32; n];
    for (v, d) in bfs_level(&g, source).expect("csr bfs").extract_tuples() {
        level[v] = d;
    }
    // Rows of Aᵀ, what the transposed pull reads through the held dual.
    let mut rows = vec![Vec::new(); n];
    for (i, j, _) in g.a().extract_tuples() {
        rows[j].push(i);
    }
    let mut gc = rmat();
    gc.set_compressed(true);
    let bfs = || bfs_level_direction(&gc, source, Direction::Pull).expect("compressed bfs");
    for threads in [1, 2] {
        let (levels, events) = traced_at(threads, bfs);
        let got: Vec<(usize, i32)> = levels.extract_tuples();
        assert!(got.iter().all(|&(v, d)| level[v] == d), "compressed bfs levels differ");
        let pulls: Vec<&Event> =
            events.iter().filter(|e| e.name == "mxv" && e.dur_ns > 0).collect();
        assert!(pulls.len() > 2, "{} levels", pulls.len());
        let mut chunked = 0;
        for (k, pull) in pulls.iter().enumerate() {
            let depth = k as i32 + 1;
            assert_eq!(pull.arg_str("storage"), Some("compressed"), "{pull:?}");
            assert!(pull.kernel.is_some_and(|k| k.starts_with("pull")), "{pull:?}");
            let decoded = pull.arg_u64("decoded").expect("a compressed pull reports decoded");
            let seeks = pull.arg_u64("seeks").expect("a compressed pull reports seeks");
            assert_eq!(decoded, pull_reads_at(&rows, &level, depth), "level {depth}, {threads} t");
            let chunks = pull.arg_u64("chunks").unwrap_or(1);
            if threads == 1 {
                assert!(seeks <= 1, "level {depth}: {seeks} seeks in one chunk");
            } else {
                assert!(seeks <= chunks, "level {depth}: {seeks} seeks in {chunks} chunks");
            }
            chunked += usize::from(seeks > 1);
        }
        // At two threads some level's chunks start mid-matrix.
        assert_eq!(chunked > 0, threads > 1, "{threads} threads: {chunked} levels seeked twice");
    }
}

#[test]
fn a_masked_pull_walks_only_the_rows_its_mask_admits() {
    // A BFS pull runs under the complemented `visited`, which holds presence
    // words from level 2 on: it walks the set bits of their complement, so
    // its `rows` are at most the vertices not yet visited — never all n —
    // and the last pull, with most of the component reached, walks fewer
    // than half the rows. A pull that stepped through every row and tested
    // the mask at each walked n.
    let g = rmat();
    let source = hubs(&g)[0];
    let n = g.a().nrows();
    let (levels, events) = traced(|| bfs_level(&g, source).expect("bfs"));
    let level: Vec<(usize, i32)> = levels.extract_tuples();
    let mut pulls = Vec::new();
    for iter in events.iter().filter(|e| e.name == "bfs.iter" && e.dur_ns > 0) {
        let depth = iter.arg_u64("iter").expect("the level's depth") as i32;
        let product = events.iter().find(|e| is_op(e) && e.name == "mxv" && inside(e, iter));
        let product = product.expect("one mxv a level");
        if !product.kernel.is_some_and(|k| k.starts_with("pull")) {
            continue;
        }
        let visited = level.iter().filter(|&&(_, d)| d <= depth).count();
        let rows = product.arg_u64("rows").expect("a pull reports the rows it walked") as usize;
        assert!(rows <= n - visited, "level {depth}: {rows} rows walked, {visited} of {n} visited");
        pulls.push(rows);
    }
    let last = *pulls.last().expect("the BFS pulls at some level");
    assert!(last < n / 2, "the last pull walked {last} of {n} rows ({pulls:?})");
}
