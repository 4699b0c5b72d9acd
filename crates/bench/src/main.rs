//! `lagraph-bench`: regenerates every table of EXPERIMENTS.md — Tables I
//! and II, Fig. 3, the §II/§IV claims C1–C8, the §V algorithm suite (A1)
//! and the ablations — with one command:
//!
//! ```sh
//! cargo run --release -p lagraph-bench [TABLE…]   # t1 t2 f3 c1 … c8 a1 ablation; none: all
//! ```
//!
//! Each table prints a conditions block first: the commit, the host's
//! cores, the kernel pool's threads and the cost-model constants. Every
//! timed side of a claim runs in processes of its own: the binary
//! re-invokes itself as `lagraph-bench --side TABLE NAME` (the one hidden
//! entry), and that child builds the side's inputs, warms up, times the
//! body in a plain `Instant` loop and prints the median. The parent runs
//! each side in [`PROCESSES`] processes, spread over the whole run (every
//! table named is declared first, then timed in one set of rounds), a
//! claim's sides adjacent and in alternating order (A B B A A …). It pins
//! every child to the parent's cost-model constants and prints per side
//! the median of the process medians and their min–max.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphblas::mimic::{self, DMat, DVec};
use graphblas::prelude::*;
use graphblas::registry::{
    builtin_semirings, census, OpOrigin, BOOL_MONOIDS, BOOL_MULT, CMP_MULT, REAL_MONOIDS,
    REAL_MULT_CAPI, REAL_MULT_EXT, REAL_TYPES,
};
use graphblas::semiring::{LOR_LAND, PLUS_TIMES};
use graphblas::{cost, net_edits, trace, Edit};
use lagraph::gen::{random_matrix, random_tuples, RmatConfig, Workload};
use lagraph::service::{GraphService, ServiceConfig, Update};
use lagraph::*;
use lagraph_io::count_fn_loc;

/// Processes per timed side. One side's process medians spread by up to
/// ~15 % on a shared 2-vCPU host (memory layout, and host speed that
/// drifts over tens of seconds), so a side takes this many, spread over
/// the whole run.
const PROCESSES: usize = 9;
/// Untimed calls before a child's samples: at least one, for this long.
const WARM_UP: Duration = Duration::from_millis(100);
/// A child's samples: at least [`MIN_SAMPLES`], for at least this long.
const MEASURE: Duration = Duration::from_millis(150);
const MIN_SAMPLES: usize = 5;

struct Table {
    key: &'static str,
    title: &'static str,
    run: fn(&mut Runner),
}

const TABLES: &[Table] = &[
    Table { key: "t1", title: "T1 — Table I: the fundamental GraphBLAS operations", run: t1 },
    Table { key: "t2", title: "T2 — Table II: lines of application code", run: t2 },
    Table {
        key: "f3", title: "F3 — Figure 3 / §II.E: push/pull direction optimization", run: f3
    },
    Table {
        key: "c1",
        title: "C1 — §II.A: pending tuples make incremental construction fast",
        run: c1,
    },
    Table { key: "c2", title: "C2 — §IV: O(1) import/export vs Ω(e) extractTuples", run: c2 },
    Table { key: "c3", title: "C3 — §II.A: early-exit (terminal) monoids", run: c3 },
    Table { key: "c4", title: "C4 — §II.A: the semiring census", run: c4 },
    Table {
        key: "c5",
        title: "C5 — §II.A/§II.E: direction-optimized BFS beats fixed directions",
        run: c5,
    },
    Table { key: "c6", title: "C6 — §II.A: three mxm methods, masked variants", run: c6 },
    Table { key: "c7", title: "C7 — §II.A: fast submatrix assignment", run: c7 },
    Table { key: "c8", title: "C8 — §II.A: hypersparse storage", run: c8 },
    Table { key: "a1", title: "A1 — the §V algorithm suite", run: a1 },
    Table { key: "ablation", title: "Ablations", run: ablation },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, key, name] = &args[..] {
        if flag == "--side" {
            let table = TABLES.iter().find(|t| t.key == key).expect("a table key");
            (table.run)(&mut Runner::Child { name: name.clone() });
            eprintln!("lagraph-bench: table {key} has no side {name}");
            return ExitCode::FAILURE;
        }
    }
    let mut chosen = Vec::new();
    for key in &args {
        match TABLES.iter().find(|t| t.key == key) {
            Some(t) => chosen.push(t),
            None => {
                let keys: Vec<&str> = TABLES.iter().map(|t| t.key).collect();
                eprintln!("usage: lagraph-bench [TABLE…]; tables: {}", keys.join(" "));
                return ExitCode::from(2);
            }
        }
    }
    if chosen.is_empty() {
        chosen = TABLES.iter().collect();
    }
    // Every chosen table declares its claims first, so that one set of
    // rounds times them all and each side's processes spread over the
    // whole run.
    let mut declared: Vec<(&Table, Vec<Claim>, String)> = chosen
        .into_iter()
        .map(|t| {
            let mut r = Runner::Parent { claims: Vec::new(), notes: String::new() };
            (t.run)(&mut r);
            match r {
                Runner::Parent { claims, notes } => (t, claims, notes),
                Runner::Child { .. } => unreachable!("declared as the parent"),
            }
        })
        .collect();
    time(&mut declared);
    let conditions = conditions();
    for (t, claims, notes) in &mut declared {
        println!("\n## {}\n\n{conditions}", t.title);
        if !claims.is_empty() {
            println!(
                "{PROCESSES} processes a side, alternating; each warms up {WARM_UP:?}, then \
                 takes the median of ≥ {MIN_SAMPLES} samples over ≥ {MEASURE:?}"
            );
        }
        println!();
        for claim in claims {
            rows(claim);
        }
        print!("{notes}");
    }
    ExitCode::SUCCESS
}

/// The conditions every table was taken under, one line each.
fn conditions() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .current_dir(root)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let commit = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = match git(&["status", "--porcelain"]) {
        Some(s) if s.is_empty() => "",
        _ => " (dirty)",
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let m = cost::model();
    format!(
        "commit {commit}{dirty}\nhost cores {cores}, pool threads {}\n\
         cost model: push {:.3} ns/flop, pull {:.3} ns/flop",
        graphblas::parallel::threads(),
        m.push_ns,
        m.pull_ns
    )
}

// ---------------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------------

/// One timed iteration: it may prepare its input untimed and returns the
/// time of the part it measures.
type Body = Box<dyn FnMut() -> Duration>;

/// One timed side of a claim: a name unique in its table, and what builds
/// its inputs and body (run only in the side's own processes).
struct Side {
    name: String,
    setup: Box<dyn FnOnce() -> Body>,
}

fn side(name: impl Into<String>, setup: impl FnOnce() -> Body + 'static) -> Side {
    Side { name: name.into(), setup: Box::new(setup) }
}

/// A body that times every call of `f`.
fn each<R>(mut f: impl FnMut() -> R + 'static) -> Body {
    Box::new(move || timed(&mut f))
}

/// A body that prepares its input with `setup`, untimed, then times
/// `routine` on it.
fn batched<I, R>(
    mut setup: impl FnMut() -> I + 'static,
    mut routine: impl FnMut(I) -> R + 'static,
) -> Body {
    Box::new(move || {
        let input = setup();
        timed(|| routine(input))
    })
}

fn timed<R>(f: impl FnOnce() -> R) -> Duration {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed()
}

/// The sides of one claim, timed against each other, the lines printed
/// above its rows, and each side's process medians in nanoseconds.
struct Claim {
    notes: String,
    sides: Vec<Side>,
    ns: Vec<Vec<u64>>,
}

/// What a table does with the claims it declares.
enum Runner {
    /// Collect the claims, for [`time`] to run once every table has
    /// declared its own.
    Parent { claims: Vec<Claim>, notes: String },
    /// Time the one side named, print its median in nanoseconds and exit.
    Child { name: String },
}

impl Runner {
    /// True in the printing process: untimed output and traced calls run
    /// only there.
    fn parent(&self) -> bool {
        matches!(self, Runner::Parent { .. })
    }

    /// A line to print above the next claim's rows.
    fn say(&mut self, line: impl std::fmt::Display) {
        if let Runner::Parent { notes, .. } = self {
            *notes += &format!("{line}\n");
        }
    }

    fn claim(&mut self, sides: Vec<Side>) {
        match self {
            Runner::Child { name } => {
                if let Some(s) = sides.into_iter().find(|s| s.name == *name) {
                    println!("{}", median_ns((s.setup)()));
                    std::process::exit(0);
                }
            }
            Runner::Parent { claims, notes } => {
                let ns = vec![Vec::new(); sides.len()];
                claims.push(Claim { notes: std::mem::take(notes), sides, ns });
            }
        }
    }
}

/// Time every declared claim in [`PROCESSES`] rounds. Each round runs
/// every claim's sides in turn, forward in even rounds and backward in odd
/// ones, so a claim's sides stay adjacent and each side's processes spread
/// over the whole run, not over one stretch of the host's speed.
fn time(declared: &mut [(&Table, Vec<Claim>, String)]) {
    if declared.iter().all(|(_, claims, _)| claims.is_empty()) {
        return;
    }
    for round in 0..PROCESSES {
        eprintln!("lagraph-bench: round {} of {PROCESSES}", round + 1);
        for (t, claims, _) in declared.iter_mut() {
            for claim in claims {
                let n = claim.sides.len();
                for k in 0..n {
                    let k = if round % 2 == 0 { k } else { n - 1 - k };
                    let ns = child(t.key, &claim.sides[k].name);
                    claim.ns[k].push(ns);
                }
            }
        }
    }
}

/// A claim's notes, then a row per side: the median of its process
/// medians, their min–max, and its ratio to the claim's first side.
fn rows(claim: &mut Claim) {
    print!("{}", claim.notes);
    let mut first = None;
    for (s, ns) in claim.sides.iter().zip(&mut claim.ns) {
        ns.sort_unstable();
        let median = ns[ns.len() / 2];
        let ratio = first.map_or(String::new(), |f| format!("{:>8.2} ×", median as f64 / f as f64));
        first.get_or_insert(median);
        println!(
            "  {:<44} {:>10}   [{} – {}]{ratio}",
            s.name,
            fmt_ns(median),
            fmt_ns(ns[0]),
            fmt_ns(ns[ns.len() - 1])
        );
    }
    println!();
}

/// Run one side in a child process; its median in nanoseconds.
fn child(table: &str, name: &str) -> u64 {
    let m = cost::model();
    let out = Command::new(std::env::current_exe().expect("own path"))
        .args(["--side", table, name])
        .env("GRAPHBLAS_COST_MODEL", format!("{},{}", m.push_ns, m.pull_ns))
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn a side");
    assert!(out.status.success(), "side {table} {name}: {}", out.status);
    String::from_utf8_lossy(&out.stdout).trim().parse().expect("a median")
}

fn median_ns(mut body: Body) -> u64 {
    let start = Instant::now();
    while {
        body();
        start.elapsed() < WARM_UP
    } {}
    let start = Instant::now();
    let mut ns = Vec::new();
    while ns.len() < MIN_SAMPLES || start.elapsed() < MEASURE {
        ns.push(body().as_nanos() as u64);
    }
    ns.sort_unstable();
    ns[ns.len() / 2]
}

fn fmt_ns(ns: u64) -> String {
    let x = ns as f64;
    match ns {
        0..1_000 => format!("{ns} ns"),
        1_000..1_000_000 => format!("{:.3} µs", x / 1e3),
        1_000_000..1_000_000_000 => format!("{:.3} ms", x / 1e6),
        _ => format!("{:.3} s", x / 1e9),
    }
}

/// Run `f` once with the trace ring on and roll up what it did.
fn traced<R>(f: impl FnOnce() -> R) -> trace::RunAggregate {
    trace::clear();
    trace::enable();
    black_box(f());
    trace::disable();
    trace::RunAggregate::from_events(&trace::drain())
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// An undirected RMAT graph with unit weights, as a [`Graph`].
fn rmat_graph(scale: u32, edge_factor: usize, seed: u64) -> Graph {
    gen::rmat_graph(&RmatConfig { scale, edge_factor, seed, ..Default::default() })
        .expect("rmat generation")
}

/// The Boolean structure of an RMAT graph, with dual storage enabled so
/// both push and pull kernels are available.
fn rmat_structure_dual(scale: u32, edge_factor: usize, seed: u64) -> Matrix<bool> {
    let mut adj = gen::rmat(&RmatConfig { scale, edge_factor, seed, ..Default::default() })
        .expect("rmat generation");
    adj.set_dual_storage(true);
    adj.wait();
    adj
}

/// A sparse Boolean frontier with exactly `min(k, n)` distinct,
/// uniformly-spread entries.
fn frontier(n: Index, k: usize) -> Vector<bool> {
    let k = k.clamp(1, n);
    let stride = n / k;
    let tuples: Vec<(Index, bool)> = (0..k).map(|t| (t * stride, true)).collect();
    Vector::from_tuples(n, tuples, |_, b| b).expect("frontier dims")
}

// ---------------------------------------------------------------------------
// T1, T2, C4: counted, not timed
// ---------------------------------------------------------------------------

/// Table I: every fundamental operation (plus the `select`/`kronecker`
/// extensions) on random inputs, each against the dense reference mimic.
fn t1(r: &mut Runner) {
    table1_ops(r).expect("Table I");
}

fn check(r: &mut Runner, name: &str, math: &str, ok: bool) {
    r.say(format_args!("  {:<12} {:<28} {}", name, math, if ok { "conforms" } else { "MISMATCH" }));
    assert!(ok, "operation {name} diverged from the reference mimic");
}

fn table1_ops(r: &mut Runner) -> graphblas::Result<()> {
    r.say("(each checked against the dense reference mimic on random inputs)\n");
    r.say(format_args!("  {:<12} {:<28} status", "operation", "mathematical form"));

    let n = 32;
    let af = random_matrix(n, n, 150, 1)?;
    let bf = random_matrix(n, n, 150, 2)?;
    let a = {
        let mut m = Matrix::<i64>::new(n, n)?;
        apply_matrix(&mut m, None, NOACC, |x: f64| (x * 8.0) as i64, &af, &Descriptor::default())?;
        m
    };
    let b = {
        let mut m = Matrix::<i64>::new(n, n)?;
        apply_matrix(&mut m, None, NOACC, |x: f64| (x * 8.0) as i64, &bf, &Descriptor::default())?;
        m
    };
    let u = Vector::from_tuples(n, (0..12).map(|k| (k * 2, k as i64 - 6)).collect(), |_, x| x)?;
    let v = Vector::from_tuples(n, (0..9).map(|k| (k * 3, k as i64)).collect(), |_, x| x)?;
    let da = DMat::from_matrix(&a);
    let db = DMat::from_matrix(&b);
    let du = DVec::from_vector(&u);
    let dv = DVec::from_vector(&v);
    let d = Descriptor::default();

    let mut c = Matrix::<i64>::new(n, n)?;
    mxm(&mut c, None, NOACC, &PLUS_TIMES, &a, &b, &d)?;
    let want = mimic::mxm(&DMat::new(n, n), None, &NOACC, &PLUS_TIMES, &da, &db, &d);
    check(r, "mxm", "C ⊙= A ⊕.⊗ B", c.extract_tuples() == want.to_matrix().extract_tuples());

    let mut w = Vector::<i64>::new(n)?;
    mxv(&mut w, None, NOACC, &PLUS_TIMES, &a, &u, &d)?;
    let want = mimic::mxv(&DVec::new(n), None, &NOACC, &PLUS_TIMES, &da, &du, &d);
    check(r, "mxv", "w ⊙= A ⊕.⊗ u", w.extract_tuples() == want.to_vector().extract_tuples());

    let mut w = Vector::<i64>::new(n)?;
    vxm(&mut w, None, NOACC, &PLUS_TIMES, &u, &a, &d)?;
    let want = mimic::vxm(&DVec::new(n), None, &NOACC, &PLUS_TIMES, &du, &da, &d);
    check(r, "vxm", "wᵀ ⊙= uᵀ ⊕.⊗ A", w.extract_tuples() == want.to_vector().extract_tuples());

    let mut w = Vector::<i64>::new(n)?;
    ewise_mult(&mut w, None, NOACC, binaryop::Times, &u, &v, &d)?;
    let want = mimic::ewise_mult_vec(&DVec::new(n), None, &NOACC, &binaryop::Times, &du, &dv, &d);
    check(
        r,
        "eWiseMult",
        "C ⊙= A ⊗ B (intersection)",
        w.extract_tuples() == want.to_vector().extract_tuples(),
    );

    let mut w = Vector::<i64>::new(n)?;
    ewise_add(&mut w, None, NOACC, binaryop::Plus, &u, &v, &d)?;
    let want = mimic::ewise_add_vec(&DVec::new(n), None, &NOACC, &binaryop::Plus, &du, &dv, &d);
    check(
        r,
        "eWiseAdd",
        "C ⊙= A ⊕ B (union)",
        w.extract_tuples() == want.to_vector().extract_tuples(),
    );

    let mut w = Vector::<i64>::new(n)?;
    reduce_matrix(&mut w, None, NOACC, &binaryop::Plus, &a, &d)?;
    let want = mimic::reduce_mat_to_vec(&DVec::new(n), None, &NOACC, &binaryop::Plus, &da, &d);
    check(r, "reduce", "w ⊙= ⊕ⱼ A(:, j)", w.extract_tuples() == want.to_vector().extract_tuples());

    let mut w = Vector::<i64>::new(n)?;
    apply(&mut w, None, NOACC, unaryop::Ainv, &u, &d)?;
    let want = mimic::apply_vec(&DVec::new(n), None, &NOACC, &unaryop::Ainv, &du, &d);
    check(r, "apply", "C ⊙= f(A)", w.extract_tuples() == want.to_vector().extract_tuples());

    let t = transpose_new(&a)?;
    check(
        r,
        "transpose",
        "C ⊙= Aᵀ",
        t.extract_tuples() == da.transpose().to_matrix().extract_tuples(),
    );

    let rows: Vec<Index> = (0..n / 2).collect();
    let cols: Vec<Index> = (n / 2..n).collect();
    let mut sub = Matrix::<i64>::new(rows.len(), cols.len())?;
    extract_matrix(
        &mut sub,
        None,
        NOACC,
        &a,
        &IndexSel::List(rows.clone()),
        &IndexSel::List(cols.clone()),
        &d,
    )?;
    let ok = sub.iter().all(|(i, j, x)| a.get(rows[i], cols[j]) == Some(x))
        && a.iter().filter(|&(i, j, _)| i < n / 2 && j >= n / 2).count() == sub.nvals();
    check(r, "extract", "C ⊙= A(i, j)", ok);

    let mut target = a.clone();
    assign_matrix(
        &mut target,
        None,
        NOACC,
        &sub,
        &IndexSel::List(rows.clone()),
        &IndexSel::List(cols.clone()),
        &d,
    )?;
    let ok = target.extract_tuples() == a.extract_tuples();
    check(r, "assign", "C(i, j) ⊙= A", ok);

    let mut lower = Matrix::<i64>::new(n, n)?;
    select_matrix(&mut lower, None, NOACC, unaryop::StrictLower, &a, &d)?;
    let want = mimic::select_mat(&DMat::new(n, n), None, &NOACC, &unaryop::StrictLower, &da, &d);
    check(
        r,
        "select",
        "C ⊙= select(A, pred)",
        lower.extract_tuples() == want.to_matrix().extract_tuples(),
    );

    let small = Matrix::from_tuples(2, 2, vec![(0, 0, 2i64), (1, 1, 3)], |_, x| x)?;
    let mut kr = Matrix::<i64>::new(4, 4)?;
    kronecker(&mut kr, None, NOACC, binaryop::Times, &small, &small, &d)?;
    let ok = kr.extract_tuples() == vec![(0, 0, 4), (1, 1, 6), (2, 2, 6), (3, 3, 9)];
    check(r, "kronecker", "C ⊙= kron(A, B)", ok);

    r.say("\nAll Table I operations conform to the reference semantics.");
    Ok(())
}

/// Table II: our Rust algorithm functions counted by the built-in
/// `cloc`-equivalent, beside the paper's numbers (Ligra and GraphIt are
/// external C++ codebases; their counts are quoted from the paper).
fn t2(r: &mut Runner) {
    let fn_loc = |path: &str, names: &[&str]| -> usize {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let src = std::fs::read_to_string(format!("{root}/{path}"))
            .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        names
            .iter()
            .map(|name| {
                count_fn_loc(&src, name)
                    .unwrap_or_else(|| panic!("function {name} not found in {path}"))
            })
            .sum()
    };
    // The algorithm function(s) a user-level implementation would write,
    // mirroring what Table II counts as "application code".
    let bfs = fn_loc("crates/core/src/algorithms/bfs.rs", &["bfs_level_matrix"]);
    let sssp = fn_loc("crates/core/src/algorithms/sssp.rs", &["sssp_bellman_ford"]);
    let lgc = fn_loc(
        "crates/core/src/algorithms/local_cluster.rs",
        &["approximate_ppr", "conductance", "local_cluster"],
    );
    let rows = [
        ("Breadth-first-search", "29", "22", "25", bfs),
        ("Single-source shortest-path", "55", "25", "25", sssp),
        ("Local graph clustering", "84", "N/A", "45", lgc),
    ];
    r.say("(Ligra / GraphIt / GraphBLAST columns quoted from the paper;");
    r.say(" 'this library' counted from our Rust sources by the built-in cloc)\n");
    r.say(format_args!(
        "  {:<28} {:>7} {:>9} {:>17} {:>14}",
        "Algorithm", "Ligra", "GraphIt", "GraphBLAS(paper)", "this library"
    ));
    for (algorithm, ligra, graphit, paper_grb, ours) in rows {
        r.say(format_args!("  {algorithm:<28} {ligra:>7} {graphit:>9} {paper_grb:>17} {ours:>14}"));
    }
    r.say("");
    // GraphBLAS implementations are as concise as the specialized
    // frameworks: the same order of magnitude as the paper's GraphBLAS
    // column, and well below Ligra's local-clustering count.
    assert!(bfs <= 60, "BFS should stay concise, got {bfs}");
    assert!(sssp <= 60, "SSSP should stay concise, got {sssp}");
    assert!(lgc < 160, "local clustering should undercut Ligra-scale, got {lgc}");
    r.say("shape holds: GraphBLAS-style algorithms stay within the concise regime");
}

/// §II.A: SuiteSparse:GraphBLAS expands into "the 960 unique semirings
/// supported by the built-in operators", 600 of them from GraphBLAS C API
/// operators only. The registry enumerates the same space.
fn c4(r: &mut Runner) {
    let all = builtin_semirings();
    let (capi, total) = census();
    r.say("family breakdown:");
    let families = [
        (
            "real x real multiply, C API ops     ",
            REAL_TYPES.len(),
            REAL_MONOIDS.len(),
            REAL_MULT_CAPI.len(),
        ),
        (
            "real x real multiply, GxB extensions",
            REAL_TYPES.len(),
            REAL_MONOIDS.len(),
            REAL_MULT_EXT.len(),
        ),
        (
            "comparison multiply (real -> bool)  ",
            REAL_TYPES.len(),
            BOOL_MONOIDS.len(),
            CMP_MULT.len(),
        ),
        ("pure Boolean                        ", 1, BOOL_MONOIDS.len(), BOOL_MULT.len()),
    ];
    for (family, types, monoids, ops) in families {
        r.say(format_args!(
            "  {family}: {types:>2} types x {monoids} monoids x {ops:>2} ops = {:>4}",
            types * monoids * ops
        ));
    }
    r.say("\ntotals:");
    r.say(format_args!("  GraphBLAS C API operators only : {capi:>4}   (paper: 600)"));
    r.say(format_args!("  with SuiteSparse extensions    : {total:>4}   (paper: 960)"));
    assert_eq!(capi, 600);
    assert_eq!(total, 960);
    r.say("\nsample semirings:");
    for k in [0usize, 137, 400, 680, 959] {
        let s = &all[k];
        let origin = match s.origin {
            OpOrigin::CApi => "C API",
            OpOrigin::Extension => "GxB",
        };
        r.say(format_args!("  [{k:>3}] {:<24} ({origin})", s.name()));
    }
    r.say("\ncensus reproduces the paper's 600 / 960 figures exactly.");
}

// ---------------------------------------------------------------------------
// F3, C5: direction
// ---------------------------------------------------------------------------

const DIRECTIONS: [(&str, Direction); 3] =
    [("push", Direction::Push), ("pull", Direction::Pull), ("auto", Direction::Auto)];

/// The direction one traced `Direction::Auto` product took.
fn auto_pick(product: impl FnOnce() -> usize) -> &'static str {
    if traced(product).pull > 0 {
        "pull"
    } else {
        "push"
    }
}

/// One BFS-shaped `mxv` of frontier `q` over the Boolean semiring, under a
/// complemented structural `visited` mask when one is given.
fn expand(
    a: &Matrix<bool>,
    q: &Vector<bool>,
    visited: Option<&Vector<bool>>,
    dir: Direction,
) -> usize {
    let mut w = Vector::<bool>::new(a.nrows()).expect("w");
    let desc = Descriptor::new().direction(dir);
    let desc = if visited.is_some() { desc.complement().structural().replace() } else { desc };
    mxv(&mut w, visited, NOACC, &LOR_LAND, a, q, &desc).expect("mxv");
    w.nvals()
}

/// GraphBLAST's direction optimization: `mxv` switches from push (SpMSpV)
/// to pull (SpMV) as the frontier density crosses a threshold, which
/// needs the dual Sparse/Dense vector and two copies of the matrix. The
/// `crossover` rows sweep the density on RMAT scale 13; the
/// `mxv_direction` rows time all three directions on RMAT scale 11,
/// unmasked and under a complemented structural "visited" mask (a BFS
/// step, where the masked scatter filters in-kernel). What `Auto` picks
/// comes from one traced call in this process.
fn f3(r: &mut Runner) {
    let a13 = r.parent().then(|| rmat_structure_dual(13, 16, 42));
    if let Some(a) = &a13 {
        r.say(format!("crossover: RMAT scale 13, {} vertices, {} edges\n", a.nrows(), a.nvals()));
    }
    let n = 1usize << 13;
    for k in [1usize, 4, 16, 64, 256, 1024, n / 2, n] {
        if let Some(a) = &a13 {
            let q = frontier(n, k);
            let pick = auto_pick(|| expand(a, &q, None, Direction::Auto));
            let density = 100.0 * q.nvals() as f64 / n as f64;
            r.say(format!("|frontier| {} ({density:.4} %): auto picks {pick}", q.nvals()));
        }
        r.claim(
            DIRECTIONS[..2]
                .iter()
                .map(|&(name, dir)| {
                    side(format!("crossover/{name}/{k}"), move || {
                        let a = rmat_structure_dual(13, 16, 42);
                        let q = frontier(a.nrows(), k);
                        each(move || expand(&a, &q, None, dir))
                    })
                })
                .collect(),
        );
    }

    let a11 = r.parent().then(|| rmat_structure_dual(11, 16, 42));
    let n = 1usize << 11;
    for masked in [false, true] {
        let prefix = if masked { "masked_" } else { "" };
        for k in [4usize, 64, 512, n / 2] {
            if let Some(a) = &a11 {
                let (q, visited) = (frontier(n, k), frontier(n, n / 4));
                let visited = masked.then_some(&visited);
                let pick = auto_pick(|| expand(a, &q, visited, Direction::Auto));
                r.say(format!("mxv_direction/{prefix}*/{k}: auto picks {pick}"));
            }
            r.claim(
                DIRECTIONS
                    .iter()
                    .map(|&(name, dir)| {
                        side(format!("mxv_direction/{prefix}{name}/{k}"), move || {
                            let a = rmat_structure_dual(11, 16, 42);
                            let q = frontier(n, k);
                            let visited = masked.then(|| frontier(n, n / 4));
                            each(move || expand(&a, &q, visited.as_ref(), dir))
                        })
                    })
                    .collect(),
            );
        }
    }
}

/// Direction-optimized BFS against push-only and pull-only on RMAT graphs
/// (§II.A, §II.E, after Beamer et al.).
fn c5(r: &mut Runner) {
    for scale in [10u32, 12] {
        r.claim(
            DIRECTIONS
                .iter()
                .map(|&(name, dir)| {
                    side(format!("bfs_direction/{name}/{scale}"), move || {
                        let g = rmat_graph(scale, 16, 7);
                        // Warm the caches (structure + dual) outside the timing loop.
                        let _ = g.structure();
                        each(move || bfs_level_direction(&g, 0, dir).expect("bfs").nvals())
                    })
                })
                .collect(),
        );
    }
}

// ---------------------------------------------------------------------------
// C1: pending tuples, and what an epoch costs to publish
// ---------------------------------------------------------------------------

/// "It is just as fast to use a sequence of e GrB_Matrix_setElement
/// operations to build a matrix, as it is to create an array of e tuples
/// and use GrB_Matrix_build": `set_element` defers to pending tuples and
/// assembly is one step. The eager strawman (assemble after every
/// insertion) shows the cliff being avoided.
///
/// The `publish` rows are the serving side of the same claim: one
/// 64-update epoch published by a `GraphService` over RMAT graphs of scale
/// 14, 16 and 18 (2 shards). The `carry` rows time `Graph::advance` on the
/// scale-16 RMAT as `serve-epochs` turns it (a one-update epoch, then a
/// 63-update one), without and with component labels to repair. The
/// `repair` rows time `connected_components_delta` and
/// `triangle_count_delta` one `serve-mixed` tick at a time on the scale-14
/// RMAT: 256 updates, seven in eight inserting a uniform pair and the
/// eighth deleting a held edge.
fn c1(r: &mut Runner) {
    let n: Index = 1 << 14;
    // 1e3 tuples (under n / 3) build through the comparison sort, the
    // rest through the row buckets.
    for e in [1_000usize, 10_000, 100_000, 1_000_000] {
        let mut sides = vec![
            side(format!("incremental_build/build/{e}"), move || {
                let tuples = random_tuples(n, n, e, 9);
                each(move || {
                    let m = Matrix::from_tuples(n, n, tuples.clone(), |_, b| b).expect("build");
                    m.nvals()
                })
            }),
            side(format!("incremental_build/set_element_x_e/{e}"), move || {
                let tuples = random_tuples(n, n, e, 9);
                each(move || {
                    let mut m = Matrix::<f64>::new(n, n).expect("new");
                    for &(i, j, x) in &tuples {
                        m.set_element(i, j, x).expect("set");
                    }
                    m.nvals() // forces the single assembly
                })
            }),
        ];
        // The strawman the zombies/pending design avoids: assemble after
        // every insertion (bounded to a slice to keep it finite, and left
        // out at 1e6, where the slice alone runs for seconds).
        if e <= 100_000 {
            sides.push(side(
                format!("incremental_build/eager_per_element/{}", e / 50),
                move || {
                    let mut tuples = random_tuples(n, n, e, 9);
                    tuples.truncate(e / 50);
                    each(move || {
                        let mut m = Matrix::<f64>::new(n, n).expect("new");
                        for &(i, j, x) in &tuples {
                            m.set_element(i, j, x).expect("set");
                            m.wait(); // defeat the non-blocking mode
                        }
                        m.nvals()
                    })
                },
            ));
        }
        r.claim(sides);
    }

    r.claim(
        [14u32, 16, 18]
            .into_iter()
            .map(|scale| {
                side(format!("publish/epoch/{scale}"), move || {
                    let graph = Workload::Rmat.graph(scale, 16, 42, 255).expect("rmat");
                    let mut updates = epoch_updates(&graph, scale);
                    let config = ServiceConfig { shards: 2, ..ServiceConfig::default() };
                    let service = GraphService::new(graph, config).expect("service");
                    // A BFS materialises the structure, which every epoch then carries.
                    service.query(lagraph::service::Query::bfs_level(0)).expect("bfs");
                    each(move || {
                        for u in updates.by_ref().take(EPOCH_UPDATES) {
                            service.submit(u).expect("submit");
                        }
                        service.flush().expect("flush").epoch()
                    })
                })
            })
            .collect(),
    );

    r.claim(
        [false, true]
            .into_iter()
            .map(|labels| {
                let name = if labels { "labels" } else { "no_labels" };
                side(format!("carry/advance/{name}"), move || carry(labels))
            })
            .collect(),
    );

    r.claim(vec![side("repair/cc", repair_cc), side("repair/tricount", repair_tricount)]);
}

/// Updates per epoch, as `serve-epochs` submits them.
const EPOCH_UPDATES: usize = 64;

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

/// `Graph::advance` on the scale-16 RMAT holding what `serve-epochs`
/// queries leave on a snapshot (the structure and the degrees), and the
/// labels of a cc query when `labels`. Each sample advances the graph the
/// chain has reached by the next epoch; the chain itself moves on untimed.
fn carry(labels: bool) -> Body {
    const SCALE: u32 = 16;
    let mut graph = Workload::Rmat.graph(SCALE, 16, 42, 255).expect("rmat");
    graph.structure().expect("structure");
    graph.out_degree().expect("degrees");
    if labels {
        graph.components().expect("components");
    }
    let mut updates = epoch_updates(&graph, SCALE);
    let mut sizes = [1, EPOCH_UPDATES - 1].into_iter().cycle();
    batched(
        move || {
            let size = sizes.next().expect("cycle");
            let delta = undirected_delta(updates.by_ref().take(size));
            let next = graph.a().with_edits(&delta).expect("publish");
            let (next, _) = graph.advance(next, &delta).expect("advance");
            let prev = std::mem::replace(&mut graph, next);
            let a = prev.a().with_edits(&delta).expect("publish");
            (prev, a, delta)
        },
        |(prev, a, delta)| prev.advance(a, &delta).expect("advance"),
    )
}

/// Updates per `serve-mixed` writer tick.
const TICK_UPDATES: usize = 256;
const REPAIR_SCALE: u32 = 14;

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

/// One tick: the graphs before and after it, and its real changes, one
/// event per edge as the view engine classifies them.
struct Tick {
    before: Arc<Graph>,
    after: Arc<Graph>,
    events: Vec<EdgeEvent>,
}

impl Stream {
    fn new(graph: Graph) -> Self {
        let held: Vec<(Index, Index)> = graph
            .a()
            .extract_tuples()
            .into_iter()
            .filter(|t| t.0 < t.1)
            .map(|t| (t.0, t.1))
            .collect();
        let fresh = Workload::ErdosRenyi
            .weighted(REPAIR_SCALE, 1, 7, 255)
            .expect("update draw")
            .extract_tuples();
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

/// Each sample repairs the next tick's labels from the ones the tick
/// before left; the stream and the untimed label chain advance first.
fn repair_cc() -> Body {
    let g = Workload::Rmat.graph(REPAIR_SCALE, 16, 42, 255).expect("rmat");
    let mut labels: Vec<u64> =
        connected_components(&g).expect("cc").iter().map(|(_, c)| c).collect();
    let mut stream = Stream::new(g);
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
    batched(
        move || {
            let Tick { after, events, .. } = stream.tick();
            let (inserts, deletes) = split(&events);
            let prev = std::mem::take(&mut labels);
            labels = connected_components_delta(&after, &prev, &inserts, &deletes);
            (after, prev, inserts, deletes)
        },
        |(after, prev, inserts, deletes)| {
            connected_components_delta(&after, &prev, &inserts, &deletes)
        },
    )
}

fn repair_tricount() -> Body {
    let g = Workload::Rmat.graph(REPAIR_SCALE, 16, 42, 255).expect("rmat");
    let mut count = triangle_count(&g, TriCountMethod::Sandia).expect("tricount");
    let mut stream = Stream::new(g);
    batched(
        move || {
            let Tick { before, events, .. } = stream.tick();
            let prev = count;
            count = triangle_count_delta(&before, prev, &events);
            (before, prev, events)
        },
        |(before, prev, events)| triangle_count_delta(&before, prev, &events),
    )
}

// ---------------------------------------------------------------------------
// C2, C3, C6, C7, C8
// ---------------------------------------------------------------------------

/// §IV: a move-style export+import round trip is O(1), `extractTuples`
/// Ω(e): the first rows stay flat across e, the second grow with it.
fn c2(r: &mut Runner) {
    let n: Index = 1 << 12;
    let matrix = move |e: usize| {
        let m = random_matrix(n, n, e, 5).expect("matrix");
        m.wait();
        m
    };
    let sizes = [10_000usize, 40_000, 160_000];
    r.claim(
        sizes
            .iter()
            .map(|&e| {
                side(format!("import_export/export_import_o1/{e}"), move || {
                    let m = matrix(e);
                    batched(
                        move || m.clone(),
                        |m: Matrix<f64>| {
                            let (nr, nc, p, i, x) = m.export_csr();
                            Matrix::import_csr(nr, nc, p, i, x).expect("import").nrows()
                        },
                    )
                })
            })
            .collect(),
    );
    r.claim(
        sizes
            .iter()
            .map(|&e| {
                side(format!("import_export/extract_tuples_oe/{e}"), move || {
                    let m = matrix(e);
                    each(move || m.extract_tuples().len())
                })
            })
            .collect(),
    );
}

/// Logical-OR monoid with the terminal value deliberately withheld.
#[derive(Clone, Copy, Debug)]
struct LorNoExit;

impl BinaryOp<bool, bool, bool> for LorNoExit {
    fn apply(&self, a: bool, b: bool) -> bool {
        a || b
    }
}

impl Monoid<bool> for LorNoExit {
    fn identity(&self) -> bool {
        false
    }
    // terminal(): None — no early exit.
}

/// §II.A: "a dot product can terminate as soon as a terminal value is
/// found", the mechanism behind fast pull-BFS. A pull `mxv` over LOR
/// (terminal `true`) against an operationally identical monoid without a
/// declared terminal, on a dense frontier where almost every dot product
/// can stop at its first hit (RMAT scale 12).
fn c3(r: &mut Runner) {
    fn pull<M: Monoid<bool> + 'static>(monoid: M) -> Body {
        let a = rmat_structure_dual(12, 16, 4);
        let n = a.nrows();
        let q = Vector::dense(n, true).expect("dense frontier");
        let s = Semiring::new(monoid, binaryop::Land);
        each(move || {
            let mut w = Vector::<bool>::new(n).expect("w");
            mxv(&mut w, None, NOACC, &s, &a, &q, &Descriptor::new().direction(Direction::Pull))
                .expect("mxv");
            w.nvals()
        })
    }
    r.claim(vec![
        side("early_exit/lor_with_terminal", || pull(LOR_LAND.add)),
        side("early_exit/lor_without_terminal", || pull(LorNoExit)),
    ]);
}

/// §II.A's three mxm kernels — Gustavson, dot product and heap —
/// unmasked and with a sparse mask (where the masked dot method is the
/// triangle-counting winner); n = 1024, 16 entries a row.
fn c6(r: &mut Runner) {
    let methods =
        [("gustavson", MxmMethod::Gustavson), ("dot", MxmMethod::Dot), ("heap", MxmMethod::Heap)];
    for masked in [false, true] {
        let label = if masked { "sparse_mask" } else { "unmasked" };
        r.claim(
            methods
                .into_iter()
                .filter(|&(_, m)| masked || m != MxmMethod::Dot)
                .map(|(name, method)| {
                    side(format!("mxm_methods/{name}/{label}"), move || {
                        let n = 1 << 10;
                        let a = random_matrix(n, n, 16 * n, 1).expect("a");
                        let b = random_matrix(n, n, 16 * n, 2).expect("b");
                        let mask = random_matrix(n, n, 2 * n, 3).expect("mask").pattern();
                        let desc = Descriptor::new().method(method);
                        let desc = if masked { desc.structural() } else { desc };
                        each(move || {
                            let mut c = Matrix::<f64>::new(n, n).expect("c");
                            let mask = masked.then_some(&mask);
                            mxm(&mut c, mask, NOACC, &PLUS_TIMES, &a, &b, &desc).expect("mxm");
                            c.nvals()
                        })
                    })
                })
                .collect(),
        );
    }
}

/// §II.A: `C(I,J) = A` can be "100× faster than in MATLAB": one bulk
/// masked merge against a per-element loop, a k × k block assigned into
/// the middle of a 4096² matrix. Each per-element `set_element` + `wait`
/// splices its one entry into new compressed arrays, O(nnz) a step: the
/// cost class of MATLAB's per-element `C(i,j) = x` into a sparse matrix,
/// which also inserts into compressed arrays.
fn c7(r: &mut Runner) {
    let n: Index = 1 << 12;
    let inputs = move |k: usize| {
        let base = random_matrix(n, n, 8 * n, 1).expect("base");
        base.wait();
        let block = random_matrix(k, k, 4 * k, 2).expect("block");
        block.wait();
        let rows: Vec<Index> = (0..k).map(|i| i + n / 4).collect();
        let cols: Vec<Index> = (0..k).map(|j| j + n / 3).collect();
        (base, block, rows, cols)
    };
    for k in [256usize, 1024] {
        let mut sides = vec![side(format!("submatrix_assign/bulk_assign/{k}"), move || {
            let (base, block, rows, cols) = inputs(k);
            batched(
                move || base.clone(),
                move |mut c: Matrix<f64>| {
                    assign_matrix(
                        &mut c,
                        None,
                        NOACC,
                        &block,
                        &IndexSel::List(rows.clone()),
                        &IndexSel::List(cols.clone()),
                        &Descriptor::default(),
                    )
                    .expect("assign");
                    c.nvals()
                },
            )
        })];
        // The per-element side costs O(nnz) an entry; one size tells the
        // story.
        if k == 256 {
            sides.push(side(format!("submatrix_assign/per_element/{k}"), move || {
                let (base, block, rows, cols) = inputs(k);
                batched(
                    move || base.clone(),
                    move |mut c: Matrix<f64>| {
                        // The same assignment entry by entry, completed
                        // each step as MATLAB's `C(i,j) = x` is.
                        for (bi, bj, x) in block.iter() {
                            c.set_element(rows[bi], cols[bj], x).expect("set");
                            c.wait();
                        }
                        c.nvals()
                    },
                )
            }));
        }
        r.claim(sides);
    }
}

/// §II.A: with the hypersparse form "matrices with enormous dimensions can
/// be created" in O(e) space. e = 10k entries at n = 2¹², 2²⁴ and 2⁴⁰:
/// build, reduce and transpose cost must track e, not n.
fn c8(r: &mut Runner) {
    fn tuples(log_n: u32) -> (Index, Vec<(Index, Index, f64)>) {
        let n: Index = 1 << log_n;
        (n, random_tuples(n, n, 10_000, 3))
    }
    fn built(log_n: u32) -> Matrix<f64> {
        let (n, t) = tuples(log_n);
        let m = Matrix::from_tuples(n, n, t, |_, b| b).expect("build");
        m.wait();
        m
    }
    let sizes = [12u32, 24, 40];
    let sides = |name: &str, body: fn(u32) -> Body| -> Vec<Side> {
        sizes
            .iter()
            .map(|&log_n| side(format!("hypersparse/{name}/{log_n}"), move || body(log_n)))
            .collect()
    };
    r.claim(sides("build_10k", |log_n| {
        let (n, t) = tuples(log_n);
        each(move || Matrix::from_tuples(n, n, t.clone(), |_, b| b).expect("build").nvals())
    }));
    r.claim(sides("reduce_scalar", |log_n| {
        let m = built(log_n);
        each(move || reduce_matrix_scalar(&binaryop::Plus, &m))
    }));
    r.claim(sides("transpose", |log_n| {
        let m = built(log_n);
        each(move || transpose_new(&m).expect("transpose").nvals())
    }));
}

// ---------------------------------------------------------------------------
// A1 and the ablations
// ---------------------------------------------------------------------------

/// The §V library run end to end on a scale-free graph (RMAT scale 10, 16
/// edges a vertex, warm caches), the workload LAGraph exists to serve.
fn a1(r: &mut Runner) {
    fn alg(name: &str, f: fn(&Graph) -> usize) -> Side {
        side(format!("algorithms_rmat_s10/{name}"), move || {
            let g = rmat_graph(10, 16, 1);
            // Warm the caches outside the timing loop.
            let _ = (g.structure(), g.at(), g.out_degree());
            each(move || f(&g))
        })
    }
    r.claim(vec![
        alg("bfs_level", |g| bfs_level(g, 0).expect("bfs").nvals()),
        alg("bfs_parent", |g| bfs_parent(g, 0).expect("bfs").nvals()),
    ]);
    r.claim(vec![
        alg("sssp_bellman_ford", |g| sssp_bellman_ford(g, 0).expect("sssp").nvals()),
        alg("sssp_delta_stepping", |g| sssp_delta_stepping(g, 0, 1.0).expect("sssp").nvals()),
    ]);
    r.claim(vec![
        alg("tricount_burkhardt", |g| {
            triangle_count(g, TriCountMethod::Burkhardt).expect("tc") as usize
        }),
        alg("tricount_sandia", |g| triangle_count(g, TriCountMethod::Sandia).expect("tc") as usize),
    ]);
    r.claim(vec![alg("connected_components", |g| component_count(g).expect("cc"))]);
    r.claim(vec![alg("pagerank", |g| pagerank(g, &PageRankOptions::default()).expect("pr").1)]);
    r.claim(vec![alg("mis", |g| maximal_independent_set(g, 7).expect("mis").nvals())]);
    r.claim(vec![alg("ktruss_k3", |g| ktruss(g, 3).expect("truss").nvals())]);
    r.claim(vec![alg("bc_batch4", |g| {
        betweenness_centrality(g, &[0, 17, 33, 257]).expect("bc").nvals()
    })]);
}

/// The design choices DESIGN.md calls out: dual (push/pull) storage on and
/// off for BFS, the memory-for-speed trade GraphBLAST gates behind an
/// environment variable (§II.E); the non-blocking pending-tuple machinery
/// against eager assembly for an update stream; and reads through the
/// lazy-assembly path when nothing is pending (opacity should cost ~0).
fn ablation(r: &mut Runner) {
    fn structure(dual: bool) -> Matrix<bool> {
        let cfg = RmatConfig { scale: 11, edge_factor: 16, seed: 5, ..Default::default() };
        let mut a = gen::rmat(&cfg).expect("rmat");
        a.set_dual_storage(dual);
        a.wait();
        a
    }
    let storage = [("dual_storage", true), ("single_storage", false)];
    if r.parent() {
        // Which direction each level took: without the transpose there
        // is no pull to take.
        for (name, dual) in storage {
            let a = structure(dual);
            let t = traced(|| bfs_level_matrix(&a, 0, Direction::Auto).expect("bfs").nvals());
            r.say(format!(
                "bfs/{name}: push/pull/fallback = {}/{}/{}, mispredicts {}",
                t.push, t.pull, t.direction_fallbacks, t.mispredicts
            ));
        }
    }
    r.claim(
        storage
            .into_iter()
            .map(|(name, dual)| {
                side(format!("ablation/bfs/{name}"), move || {
                    let a = structure(dual);
                    each(move || bfs_level_matrix(&a, 0, Direction::Auto).expect("bfs").nvals())
                })
            })
            .collect(),
    );

    // Pending tuples against eager assembly on a mixed update stream.
    let n = 1 << 12;
    let updates = move || -> Vec<(Index, Index, f64)> {
        (0..20_000).map(|k| ((k * 37) % n, (k * 101) % n, k as f64)).collect()
    };
    let stream = move |updates: &[(Index, Index, f64)], flush_every: Option<usize>| {
        let mut m = Matrix::<f64>::new(n, n).expect("new");
        for (k, &(i, j, x)) in updates.iter().enumerate() {
            m.set_element(i, j, x).expect("set");
            if flush_every.is_some_and(|every| k % every == 0) {
                m.wait();
            }
        }
        m
    };
    let modes = [("nonblocking", None), ("eager_every_64", Some(64))];
    if r.parent() {
        // How many assemblies the stream cost, and the largest backlog one
        // resolved.
        for (name, flush_every) in modes {
            let t = traced(|| stream(&updates(), flush_every).nvals());
            r.say(format!(
                "updates/{name}: {} assemblies, peak pending {}",
                t.assemblies, t.peak_pending
            ));
        }
    }
    r.claim(
        modes
            .into_iter()
            .map(|(name, flush_every)| {
                side(format!("ablation/updates/{name}"), move || {
                    let updates = updates();
                    each(move || stream(&updates, flush_every).nvals())
                })
            })
            .collect(),
    );

    // Opacity cost: point reads on a fully assembled matrix must be as
    // cheap as the underlying binary search.
    r.claim(vec![side("ablation/point_reads_assembled", move || {
        let m = stream(&updates(), None);
        m.wait();
        each(move || {
            let mut hits = 0;
            for k in 0..1000 {
                if m.get((k * 37) % n, (k * 101) % n).is_some() {
                    hits += 1;
                }
            }
            hits
        })
    })]);
}
