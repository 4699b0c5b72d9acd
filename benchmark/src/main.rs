//! The repo benchmark's driver. One process runs one workload:
//!
//! ```text
//! lagraph-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! prints every metric as `name value unit`, writes
//! `out/<workload>.json`, checks the outputs, and ends with one JSON
//! line holding the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). `--workload all` and `repeat` spawn one such
//! process per workload. See README.md.

mod gap;
mod host;
mod inputs;
mod json;
mod oracle;
mod probes;
mod run;
mod serve;
mod spans;
mod spec;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Value;
use run::{Ctx, Outcome};
use spec::{Better, Kind, MetricSpec, WorkloadSpec, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str = "\
usage: run.sh --workload <name>|all [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       run.sh repeat [--seed N] [--seconds S] [--smoke]   two sets of three passes, A B A B A B
       run.sh spec | metrics      render BENCHMARK.json | benchmark/METRICS.json from src/spec.rs
       run.sh calibrate           print the cost-model constants an unpinned process calibrates to
       run.sh test                the driver's unit tests
workloads: gap-rmat16-t1 gap-rmat16-t2 gap-flat16-t2 gap-rmat16-lagc-t1 serve-epochs serve-mixed";

/// The cost-model constants the traced run pins, so direction choices —
/// and with them the `algorithms.*` counts — repeat exactly.
const PINNED_COST_MODEL: &str = "3,1";

#[derive(Debug, Clone)]
struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".into(),
        workload: None,
        seed: 42,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "repeat" | "spec" | "metrics" | "calibrate" => args.command = a.clone(),
            "--workload" => args.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--smoke" => args.smoke = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    std::env::var_os("LAGRAPH_BENCHMARK_OUT").map_or_else(|| "benchmark/out".into(), PathBuf::from)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_str(), args.workload.as_deref()) {
        ("spec", _) => {
            print!("{}", spec::benchmark_json().render_pretty());
            ExitCode::SUCCESS
        }
        ("metrics", _) => {
            print!("{}", spec::metrics_json().render_pretty());
            ExitCode::SUCCESS
        }
        ("calibrate", _) => {
            let m = graphblas::cost::model();
            println!("{} {}", m.push_ns, m.pull_ns);
            ExitCode::SUCCESS
        }
        ("repeat", _) => repeat(&args),
        (_, Some("all")) => run_all(&args),
        (_, Some(name)) => match spec::workload(name) {
            Some(w) => run_one(w, &args, start),
            None => {
                eprintln!("error: unknown workload {name}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        (_, None) => {
            eprintln!("error: --workload is required\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// One workload, in this process
// ---------------------------------------------------------------------------

fn run_one(w: &'static WorkloadSpec, args: &Args, start: Instant) -> ExitCode {
    let cores = host::host_cores();
    if w.threads > cores || w.clients > cores {
        eprintln!(
            "error: {} needs {} kernel thread(s) and {} client thread(s) but the host has {cores} \
             core(s); an oversubscribed run measures the scheduler, not the program",
            w.name, w.threads, w.clients
        );
        return ExitCode::from(2);
    }
    if args.traced {
        // Before the first product consults the model, and before any
        // thread exists that could read the environment concurrently.
        std::env::set_var("GRAPHBLAS_COST_MODEL", PINNED_COST_MODEL);
    }
    graphblas::trace::set_capacity(1 << 18);
    let mut ctx = Ctx {
        spec: w,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
        rec: spans::Recorder::new(args.traced, start, 0),
        yard: host::Yardstick::new(if args.smoke { spec::SMOKE_SCALE } else { w.scale }),
        out: Outcome::default(),
        out_dir: out_dir(),
    };
    let result = match w.kind {
        Kind::Gap { .. } => gap::run(&mut ctx),
        Kind::ServeEpochs => serve::run_epochs(&mut ctx),
        Kind::ServeMixed => serve::run_mixed(&mut ctx),
    };
    if let Err(e) = result {
        eprintln!("error: {}: {e}", w.name);
        return ExitCode::FAILURE;
    }
    ctx.out.set("host.calib_ms", ctx.yard.calib_ms());
    ctx.out.set("host.calib_spread", ctx.yard.spread());
    ctx.out.set("failed_share", ctx.out.failed as f64 / ctx.out.attempted.max(1) as f64);
    report(&ctx)
}

fn metric_doc(m: &MetricSpec, value: f64, samples: Option<usize>) -> Value {
    let mut kv = vec![
        ("value".to_string(), value.into()),
        ("unit".to_string(), m.unit.into()),
        ("better".to_string(), if m.better == Better::Lower { "lower" } else { "higher" }.into()),
    ];
    kv.extend(samples.map(|n| ("samples".to_string(), n.into())));
    kv.extend(m.bound.map(|b| ("bound".to_string(), b.into())));
    if !m.moves.is_empty() {
        kv.push(("moves".into(), m.moves.into()));
    }
    Value::Obj(kv)
}

/// Print every metric, write the output files, end with the result line.
fn report(ctx: &Ctx) -> ExitCode {
    let out = &ctx.out;
    let w = ctx.spec;
    let noisy = ctx.yard.noisy();
    let conditions = host::conditions(
        w.name,
        ctx.seed,
        ctx.seconds,
        ctx.traced,
        ctx.smoke,
        out.nvertices,
        out.nedges,
    );
    println!(
        "# {} seed={} seconds={} traced={} smoke={} n={} nnz={}{}",
        w.name,
        ctx.seed,
        ctx.seconds,
        ctx.traced,
        ctx.smoke,
        out.nvertices,
        out.nedges,
        if noisy { " NOISY" } else { "" }
    );
    let mut metrics_doc = Vec::new();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(&v) = out.metrics.get(m.name) {
            println!("{} {} {}", m.name, v, m.unit);
            metrics_doc
                .push((m.name.to_string(), metric_doc(m, v, out.samples.get(m.name).copied())));
        }
    }
    for note in &out.notes {
        println!("# note: {note}");
    }
    for f in &out.failures {
        println!("# FAILED {f}");
    }

    let mut doc = vec![
        ("schema".to_string(), Value::from("lagraph-benchmark/1")),
        ("conditions".into(), Value::Obj(conditions)),
        ("noisy".into(), noisy.into()),
        ("correct".into(), (out.failed == 0).into()),
        ("attempted".into(), out.attempted.into()),
        ("failed".into(), out.failed.into()),
        ("failures".into(), Value::Arr(out.failures.iter().map(|f| f.as_str().into()).collect())),
        ("notes".into(), Value::Arr(out.notes.iter().map(|n| n.as_str().into()).collect())),
        ("metrics".into(), Value::Obj(metrics_doc)),
    ];
    if ctx.traced {
        let rows = spans::self_times(ctx.rec.spans());
        println!("# self time per span (span minus its children)");
        for line in spans::format_self_times(&rows).lines() {
            println!("# {line}");
        }
        doc.push((
            "self_time".into(),
            Value::Arr(
                rows.iter()
                    .map(|r| {
                        Value::Obj(vec![
                            ("span".into(), r.name.into()),
                            ("count".into(), r.count.into()),
                            ("total_ms".into(), (r.total_ns as f64 / 1e6).into()),
                            ("self_ms".into(), (r.self_ns as f64 / 1e6).into()),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    let stem = ctx.out_dir.join(w.name);
    let written = std::fs::create_dir_all(&ctx.out_dir).and_then(|()| {
        if ctx.traced {
            std::fs::write(
                stem.with_extension("trace.json"),
                spans::chrome_trace(ctx.rec.spans()).render(),
            )?;
            std::fs::write(stem.with_extension("layers.json"), Value::Obj(doc).render_pretty())
        } else {
            std::fs::write(stem.with_extension("json"), Value::Obj(doc).render_pretty())
        }
    });
    if let Err(e) = written {
        eprintln!("warning: could not write under {}: {e}", ctx.out_dir.display());
    }

    // The result line: exactly the metrics the contract names for this mode.
    let wanted = if ctx.traced { PER_LAYER } else { END_TO_END };
    let mut line_metrics = Vec::new();
    for m in wanted {
        let value = match out.metrics.get(m.name) {
            Some(&v) if v.is_finite() => v,
            // A per-layer metric that does not apply to this workload reads 0.
            None if ctx.traced => 0.0,
            _ => {
                eprintln!("error: {} produced no usable {}", w.name, m.name);
                return ExitCode::FAILURE;
            }
        };
        line_metrics.push((
            m.name.to_string(),
            Value::Obj(vec![("value".into(), value.into()), ("unit".into(), m.unit.into())]),
        ));
    }
    let line = Value::Obj(vec![
        ("correct".into(), (out.failed == 0).into()),
        ("attempted".into(), out.attempted.max(1).into()),
        ("failed".into(), out.failed.into()),
        ("metrics".into(), Value::Obj(line_metrics)),
    ]);
    println!("{}", line.render());
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Many workloads: one child process each
// ---------------------------------------------------------------------------

fn child(workload: &str, args: &Args, capture: bool) -> Option<(bool, String)> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output()` captures both streams unless told otherwise.
    cmd.stdout(if capture { Stdio::piped() } else { Stdio::inherit() }).stderr(Stdio::inherit());
    let out = cmd.output().ok()?;
    Some((out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned()))
}

/// A metric of a finished run, read back from its output file.
fn read_metric(dir: &Path, workload: &str, ext: &str, name: &str) -> Option<f64> {
    let text = std::fs::read_to_string(dir.join(workload).with_extension(ext)).ok()?;
    json::parse(&text).ok()?.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        match child(w.name, args, false) {
            Some((true, _)) => {}
            _ => {
                eprintln!("error: {} did not finish", w.name);
                ok = false;
            }
        }
    }
    // Both thread counts of one graph ran in this invocation: the
    // speed-up of the second core, with its bases.
    let ext = if args.traced { "layers.json" } else { "json" };
    for kernel in gap::KERNELS {
        let name = format!("{kernel}_s");
        let t1 = read_metric(&out_dir(), "gap-rmat16-t1", ext, &name);
        let t2 = read_metric(&out_dir(), "gap-rmat16-t2", ext, &name);
        if let (Some(t1), Some(t2)) = (t1, t2) {
            println!(
                "parallel.speedup.{kernel} {} ratio  # gap-rmat16-t1 {t1} s / gap-rmat16-t2 {t2} s",
                t1 / t2
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What `repeat` makes of one metric on one workload: the two sets'
/// medians, and whether they agree.
#[derive(Debug, PartialEq)]
enum Verdict {
    Agrees,
    /// A set's own runs lie further apart than the bound, so the sets'
    /// medians cannot be told apart at that bound: no verdict either way.
    Unresolved,
    Differs,
}

/// `(max - min) / median` of a set's runs.
fn range_share(set: &[f64]) -> f64 {
    let (lo, hi) =
        set.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let m = stats::median(set).abs();
    if hi == lo {
        0.0
    } else {
        (hi - lo) / m
    }
}

/// Compare two sets of runs of one metric against its bound. Returns the
/// medians, the share they differ by, and the verdict.
fn compare_sets(a: &[f64], b: &[f64], bound: f64) -> (f64, f64, f64, Verdict) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let differ = if ma == mb { 0.0 } else { (mb - ma).abs() / ma.abs() };
    let verdict = if differ <= bound {
        Verdict::Agrees
    } else if range_share(a).max(range_share(b)) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Differs
    };
    (ma, mb, differ, verdict)
}

/// Two sets of three full passes, interleaved A B A B A B; each set's
/// per-metric median must agree with the other's within the metric's own
/// bound. Every metric that carries a bound is held to it on every
/// workload that reports it: the end-to-end metrics everywhere, the
/// workload-specific user-visible rows where they exist. Where the sets
/// differ by more than the bound but a set's own three runs spread wider
/// than it too, the row is reported as unresolved, not as a difference.
fn repeat(args: &Args) -> ExitCode {
    let args = Args { traced: false, ..args.clone() };
    let bounded: Vec<&MetricSpec> =
        END_TO_END.iter().chain(PER_LAYER).filter(|m| m.bound.is_some()).collect();
    // sets[set][workload][metric] -> samples
    let mut sets = vec![vec![vec![Vec::new(); bounded.len()]; WORKLOADS.len()]; 2];
    let mut noisy_runs = 0;
    for pass in 0..6 {
        let set = pass % 2;
        for (wi, w) in WORKLOADS.iter().enumerate() {
            eprintln!("repeat: pass {} of 6 (set {}), {}", pass + 1, ["A", "B"][set], w.name);
            let Some((true, stdout)) = child(w.name, &args, true) else {
                eprintln!("error: {} did not finish", w.name);
                return ExitCode::FAILURE;
            };
            let correct = json::parse(stdout.lines().last().unwrap_or(""))
                .is_ok_and(|doc| doc.get("correct") == Some(&Value::Bool(true)));
            if !correct {
                eprintln!("error: {} reported failed operations or no result line", w.name);
                return ExitCode::FAILURE;
            }
            noisy_runs += usize::from(stdout.lines().next().is_some_and(|l| l.ends_with("NOISY")));
            for (mi, m) in bounded.iter().enumerate() {
                sets[set][wi][mi].extend(read_metric(&out_dir(), w.name, "json", m.name));
            }
        }
    }
    let (mut differing, mut unresolved) = (0, 0);
    println!(
        "{:<20} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set A", "set B", "differ", "bound"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, m) in bounded.iter().enumerate() {
            if sets[0][wi][mi].is_empty() {
                continue;
            }
            let bound = m.bound.expect("filtered on it");
            let (a, b, differ, verdict) = compare_sets(&sets[0][wi][mi], &sets[1][wi][mi], bound);
            let mark = match verdict {
                Verdict::Agrees => "",
                Verdict::Unresolved => {
                    unresolved += 1;
                    "  UNRESOLVED: a set's own runs spread wider than the bound"
                }
                Verdict::Differs => {
                    differing += 1;
                    "  DIFFERS"
                }
            };
            println!(
                "{:<20} {:<22} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%{mark}",
                w.name,
                m.name,
                a,
                b,
                differ * 100.0,
                bound * 100.0
            );
        }
    }
    println!(
        "repeat: {noisy_runs} of {} runs were tagged NOISY by the yardstick",
        6 * WORKLOADS.len()
    );
    if differing > 0 {
        println!("repeat: FAILED, {differing} row(s) differ beyond their bound");
        return ExitCode::FAILURE;
    }
    if unresolved > 0 {
        println!("repeat: no row differs; {unresolved} row(s) unresolved at their bound");
    } else {
        println!("repeat: every bounded metric of every workload agrees within its bound");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a =
            parse_args(&argv("--workload serve-mixed --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve-mixed"));
        assert_eq!((a.seed, a.seconds, a.traced, a.smoke), (7, 12.0, true, false));
        let a = parse_args(&argv("--workload all --trace 1 --smoke")).unwrap();
        assert_eq!((a.seed, a.traced, a.smoke), (42, true, true));
        assert_eq!(parse_args(&argv("repeat --smoke")).unwrap().command, "repeat");
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--traced")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    #[test]
    fn repeat_tells_a_difference_from_a_spread_it_cannot_see_through() {
        let v = |a: &[f64], b: &[f64]| compare_sets(a, b, 0.10).3;
        assert_eq!(v(&[1.00, 1.02, 0.99], &[1.05, 1.04, 1.06]), Verdict::Agrees);
        assert_eq!(v(&[1.00, 1.02, 0.99], &[1.25, 1.24, 1.26]), Verdict::Differs);
        // Set B's own runs lie 30 % apart: 25 % between the medians proves nothing.
        assert_eq!(v(&[1.00, 1.02, 0.99], &[1.25, 1.05, 1.40]), Verdict::Unresolved);
        // A bound of 0 (`failed_share`): equal medians agree.
        assert_eq!(compare_sets(&[0.0; 3], &[0.0; 3], 0.0).3, Verdict::Agrees);
        let (a, b, differ, _) = compare_sets(&[2.0, 1.0, 3.0], &[2.2, 2.2, 2.2], 0.10);
        assert_eq!((a, b), (2.0, 2.2));
        assert!((differ - 0.1).abs() < 1e-12);
    }

    #[test]
    fn every_workload_name_resolves() {
        for w in WORKLOADS {
            assert_eq!(spec::workload(w.name).map(|s| s.name), Some(w.name));
        }
        assert!(spec::workload("all").is_none());
    }
}
