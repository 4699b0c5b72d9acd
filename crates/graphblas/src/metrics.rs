//! Live metrics — a lock-light, always-compiled, runtime-toggled metric
//! registry with Prometheus text exposition.
//!
//! [`crate::trace`] answers *what happened* after the fact (drain the
//! ring, aggregate, export); this module answers *what is happening right
//! now* on a running replica: scrape-able counters, gauges, and
//! log₂-bucketed histograms (the [`crate::trace::OpProfile`] bucket
//! scheme) that the serving layer's SLOs hang off. Three producer layers
//! feed it without a second instrumentation pass:
//!
//! * **spans** — the registry is one sink of the [`crate::trace`]
//!   fan-out, so every [`crate::trace::Span`] that ops, kernels, and
//!   algorithms close populates `graphblas_span_seconds{cat,span}`
//!   latency histograms (and `graphblas_span_flops` work histograms)
//!   even when the trace ring is off;
//! * **runtime** — [`crate::parallel`]'s `dispatch` events arrive the
//!   same way and count dispatch decisions and chunks; the pool width is
//!   a gauge;
//! * **systems above the library** — `lagraph::service` registers queue
//!   depth, backpressure, epoch lag, and resident-bytes series through
//!   the same public constructors.
//!
//! # Toggling and overhead
//!
//! The registry is always compiled and off by default. Enable with the
//! `GRAPHBLAS_METRICS=on` environment variable or [`set_enabled`]; the
//! `GRAPHBLAS_METRICS_ADDR=host:port` variable additionally starts the
//! exposition endpoint (and implies `on`). On/off is one bit of the sink
//! mask the trace layer keeps, so disabled, every recording call costs
//! **one relaxed atomic load** — no clock reads, no allocation — the
//! same load a span constructor pays. Enabled,
//! counters are striped across cache-line-padded atomics so concurrent
//! writers don't share a line, and histograms touch one bucket atomic
//! plus a sum; nothing on the hot path takes a lock (registration does,
//! once per series).
//!
//! # Exposition
//!
//! [`render`] produces the Prometheus text format (`# HELP`/`# TYPE`
//! comments, cumulative `_bucket{le=…}`/`_sum`/`_count` histogram
//! series, and nearest-rank `_p50`/`_p95`/`_p99` companion gauges for
//! every histogram). [`serve`] binds a `std::net::TcpListener` and
//! answers `GET /metrics` with that page and `GET /healthz` with `ok` —
//! a dependency-free scrape endpoint.
//!
//! # Cardinality budget
//!
//! Metric and label names come from fixed vocabularies (span names,
//! kernel names, shard indices); a family refuses to grow beyond
//! [`MAX_SERIES`] label sets and warns once instead of allocating
//! unboundedly. Keep label values low-cardinality: no vertex ids, no
//! timestamps.
//!
//! ```
//! use graphblas::metrics;
//!
//! let hits = metrics::counter("doc_cache_hits_total", "Cache hits.");
//! metrics::set_enabled(true);
//! hits.inc();
//! assert_eq!(hits.value(), 1);
//! assert!(metrics::render().contains("doc_cache_hits_total"));
//! metrics::set_enabled(false);
//! hits.inc(); // disabled: a no-op costing one atomic load
//! assert_eq!(hits.value(), 1);
//! ```

use crate::trace::{self, bucket, quantile_bucket, Event, HIST_BUCKETS};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// On/off state
// ---------------------------------------------------------------------------

/// True when metric recording is on: one relaxed atomic load of the
/// sink mask [`crate::trace`] keeps. The first call in a process resolves
/// the `GRAPHBLAS_METRICS` / `GRAPHBLAS_METRICS_ADDR` environment (and
/// starts the exposition endpoint if an address is configured).
#[inline]
pub fn enabled() -> bool {
    trace::sinks() & trace::METRICS != 0
}

/// Turn recording on or off at runtime, overriding the environment.
/// Registered series and their accumulated values are kept either way.
pub fn set_enabled(on: bool) {
    trace::set_sinks(trace::METRICS, if on { trace::METRICS } else { 0 });
}

/// The environment's say on the metrics sink, read when the sink mask is
/// first resolved: `GRAPHBLAS_METRICS`, or — when that is unset — whether
/// `GRAPHBLAS_METRICS_ADDR` named an address the endpoint could bind.
pub(crate) fn env_enabled() -> bool {
    static SERVING: OnceLock<bool> = OnceLock::new();
    let serving = *SERVING.get_or_init(|| {
        crate::env::var("GRAPHBLAS_METRICS_ADDR", "a host:port the endpoint can bind", |a| {
            serve(a).ok()
        })
        .is_some()
    });
    crate::env::var("GRAPHBLAS_METRICS", "off or on", crate::env::boolean).unwrap_or(serving)
}

// ---------------------------------------------------------------------------
// Thread stripes (counter sharding)
// ---------------------------------------------------------------------------

/// Stripes per counter: concurrent writers land on distinct cache lines
/// with high probability without per-thread registration.
const STRIPES: usize = 8;

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Dense per-thread stripe index, assigned on first metric write.
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Relaxed) % STRIPES;
}

#[inline]
fn stripe() -> usize {
    STRIPE.with(|s| *s)
}

/// One cache line per stripe so `fetch_add`s from different threads do
/// not contend on shared lines (false sharing).
#[repr(align(64))]
#[derive(Default)]
struct Stripe(AtomicU64);

// ---------------------------------------------------------------------------
// Metric handles
// ---------------------------------------------------------------------------

#[derive(Default)]
struct CounterCore {
    stripes: [Stripe; STRIPES],
}

impl CounterCore {
    fn sum(&self) -> u64 {
        self.stripes.iter().map(|s| s.0.load(Relaxed)).sum()
    }
    fn zero(&self) {
        for s in &self.stripes {
            s.0.store(0, Relaxed);
        }
    }
}

/// A monotone counter, striped across cache-line-padded atomics. Cheap
/// to clone (all clones share the series); free when metrics are off.
#[derive(Clone)]
pub struct Counter {
    core: Arc<CounterCore>,
}

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`. One relaxed load when metrics are off; one
    /// relaxed `fetch_add` on this thread's stripe when on.
    #[inline]
    pub fn add(&self, n: u64) {
        if !enabled() {
            return;
        }
        self.core.stripes[stripe()].0.fetch_add(n, Relaxed);
    }

    /// The current total across all stripes.
    pub fn value(&self) -> u64 {
        self.core.sum()
    }

    fn detached() -> Counter {
        Counter { core: Arc::new(CounterCore::default()) }
    }
}

/// A settable instantaneous value (`f64`). Clones share the series.
#[derive(Clone)]
pub struct Gauge {
    core: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the gauge. A no-op (one relaxed load) when metrics are off.
    #[inline]
    pub fn set(&self, v: f64) {
        if !enabled() {
            return;
        }
        self.core.store(v.to_bits(), Relaxed);
    }

    /// Raise the gauge to `v` if `v` exceeds the current value — a
    /// high-water mark (peak pending tuples, peak resident bytes).
    pub fn set_max(&self, v: f64) {
        if !enabled() {
            return;
        }
        let mut cur = self.core.load(Relaxed);
        while v > f64::from_bits(cur) {
            match self.core.compare_exchange_weak(cur, v.to_bits(), Relaxed, Relaxed) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// The current value (0 until first set).
    pub fn value(&self) -> f64 {
        f64::from_bits(self.core.load(Relaxed))
    }

    fn detached() -> Gauge {
        Gauge { core: Arc::new(AtomicU64::new(0)) }
    }
}

struct HistCore {
    /// Occupancy per log₂ bucket — the [`crate::trace::OpProfile`]
    /// scheme: bucket `b` holds values of `b` significant bits.
    buckets: [AtomicU64; HIST_BUCKETS],
    /// Sum of observed raw values (scaled only at exposition time).
    sum: AtomicU64,
}

impl HistCore {
    fn new() -> Self {
        HistCore { buckets: std::array::from_fn(|_| AtomicU64::new(0)), sum: AtomicU64::new(0) }
    }
    fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Relaxed)).sum()
    }
    fn zero(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.sum.store(0, Relaxed);
    }
    /// Upper bound of the bucket holding the nearest-rank `q`-quantile
    /// sample, in raw (unscaled) units; 0 when empty.
    fn quantile(&self, q: f64) -> u64 {
        let counts = std::array::from_fn(|b| self.buckets[b].load(Relaxed));
        quantile_bucket(&counts, q).map_or(0, bucket_upper)
    }
}

/// Largest value a bucket holds (`2^b − 1`; values of `b` bits).
fn bucket_upper(b: usize) -> u64 {
    (1u64 << b).saturating_sub(u64::from(b < 64))
}

/// A log₂-bucketed histogram over `u64` observations. Observations are
/// recorded raw (e.g. nanoseconds); an optional per-family scale maps
/// them to exposition units (e.g. `1e-9` → seconds) at render time.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistCore>,
}

impl Histogram {
    /// Record one observation: one bucket `fetch_add` plus one sum
    /// `fetch_add` when metrics are on; one relaxed load when off.
    #[inline]
    pub fn observe(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.core.buckets[bucket(v)].fetch_add(1, Relaxed);
        self.core.sum.fetch_add(v, Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.core.count()
    }

    /// Sum of raw (unscaled) observations.
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Relaxed)
    }

    /// Nearest-rank quantile in raw units (upper bucket bound, within 2×
    /// of the true quantile) — the [`crate::trace::OpProfile`] rule.
    pub fn quantile(&self, q: f64) -> u64 {
        self.core.quantile(q)
    }

    fn detached() -> Histogram {
        Histogram { core: Arc::new(HistCore::new()) }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Label sets a single family may hold before further registrations are
/// refused (with a one-shot warning) — the cardinality backstop.
pub const MAX_SERIES: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

enum Series {
    Counter(Arc<CounterCore>),
    Gauge(Arc<AtomicU64>),
    /// A render-time callback (epoch lag, resident bytes of a live
    /// object); `None` skips the sample (e.g. the owner is gone).
    Callback(Box<dyn Fn() -> Option<f64> + Send + Sync>),
    Histogram(Arc<HistCore>),
}

struct Family {
    kind: Kind,
    help: &'static str,
    /// Multiplier applied to histogram bounds/sums at exposition time
    /// (`1e-9` renders nanosecond observations as seconds).
    scale: f64,
    /// Series keyed by rendered label block (`""` or `{a="b",…}`).
    series: BTreeMap<String, Series>,
}

fn registry() -> &'static RwLock<BTreeMap<&'static str, Family>> {
    static REG: OnceLock<RwLock<BTreeMap<&'static str, Family>>> = OnceLock::new();
    REG.get_or_init(|| RwLock::new(BTreeMap::new()))
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_key(k: &str) -> bool {
    let mut chars = k.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Render a sorted `{k="v",…}` block; empty labels render as `""`.
fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let mut out = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Get-or-register one series. Returns `None` (callers fall back to a
/// detached, unregistered handle) on invalid names, kind conflicts, or a
/// family at its cardinality cap — all warned once, never panicking.
fn register(
    name: &'static str,
    help: &'static str,
    kind: Kind,
    scale: f64,
    labels: &[(&str, &str)],
    make: impl FnOnce() -> Series,
) -> Option<Series> {
    if !valid_name(name) || labels.iter().any(|(k, _)| !valid_label_key(k)) {
        crate::trace::warn_once(
            "metrics.name",
            &format!("invalid metric or label name registering {name:?}; series detached"),
        );
        return None;
    }
    let block = label_block(labels);
    let mut reg = registry().write();
    let fam =
        reg.entry(name).or_insert_with(|| Family { kind, help, scale, series: BTreeMap::new() });
    if fam.kind != kind {
        crate::trace::warn_once(
            "metrics.kind",
            &format!(
                "metric {name:?} already registered as a {}; {} series detached",
                fam.kind.name(),
                kind.name()
            ),
        );
        return None;
    }
    if let Some(existing) = fam.series.get(&block) {
        return match existing {
            Series::Counter(c) => Some(Series::Counter(c.clone())),
            Series::Gauge(g) => Some(Series::Gauge(g.clone())),
            Series::Histogram(h) => Some(Series::Histogram(h.clone())),
            // A value-backed registration cannot attach to a callback
            // slot; the caller gets a detached handle.
            Series::Callback(_) => None,
        };
    }
    if fam.series.len() >= MAX_SERIES {
        crate::trace::warn_once(
            "metrics.cardinality",
            &format!("metric {name:?} reached {MAX_SERIES} label sets; further series detached"),
        );
        return None;
    }
    let made = make();
    let out = match &made {
        Series::Counter(c) => Some(Series::Counter(c.clone())),
        Series::Gauge(g) => Some(Series::Gauge(g.clone())),
        Series::Histogram(h) => Some(Series::Histogram(h.clone())),
        Series::Callback(_) => None,
    };
    fam.series.insert(block, made);
    out
}

/// Get or register an unlabeled counter.
pub fn counter(name: &'static str, help: &'static str) -> Counter {
    counter_with(name, help, &[])
}

/// Get or register a counter with the given label set. Repeated calls
/// with the same name and labels return handles to the same series.
pub fn counter_with(name: &'static str, help: &'static str, labels: &[(&str, &str)]) -> Counter {
    match register(name, help, Kind::Counter, 1.0, labels, || {
        Series::Counter(Arc::new(CounterCore::default()))
    }) {
        Some(Series::Counter(core)) => Counter { core },
        _ => Counter::detached(),
    }
}

/// Get or register an unlabeled gauge.
pub fn gauge(name: &'static str, help: &'static str) -> Gauge {
    gauge_with(name, help, &[])
}

/// Get or register a gauge with the given label set.
pub fn gauge_with(name: &'static str, help: &'static str, labels: &[(&str, &str)]) -> Gauge {
    match register(name, help, Kind::Gauge, 1.0, labels, || {
        Series::Gauge(Arc::new(AtomicU64::new(0)))
    }) {
        Some(Series::Gauge(core)) => Gauge { core },
        _ => Gauge::detached(),
    }
}

/// Register a gauge whose value is computed at render/scrape time by a
/// callback (`None` omits the sample). Re-registering the same name and
/// labels replaces the callback — last registration wins, so sequential
/// owners (e.g. a restarted service) take the series over cleanly.
pub fn gauge_fn(
    name: &'static str,
    help: &'static str,
    labels: &[(&str, &str)],
    f: impl Fn() -> Option<f64> + Send + Sync + 'static,
) {
    if !valid_name(name) || labels.iter().any(|(k, _)| !valid_label_key(k)) {
        crate::trace::warn_once(
            "metrics.name",
            &format!("invalid metric or label name registering {name:?}; series detached"),
        );
        return;
    }
    let block = label_block(labels);
    let mut reg = registry().write();
    let fam = reg.entry(name).or_insert_with(|| Family {
        kind: Kind::Gauge,
        help,
        scale: 1.0,
        series: BTreeMap::new(),
    });
    if fam.kind != Kind::Gauge {
        crate::trace::warn_once(
            "metrics.kind",
            &format!("metric {name:?} already registered as a {}", fam.kind.name()),
        );
        return;
    }
    if fam.series.len() >= MAX_SERIES && !fam.series.contains_key(&block) {
        crate::trace::warn_once(
            "metrics.cardinality",
            &format!("metric {name:?} reached {MAX_SERIES} label sets; further series detached"),
        );
        return;
    }
    fam.series.insert(block, Series::Callback(Box::new(f)));
}

/// Get or register an unlabeled histogram over raw `u64` observations.
pub fn histogram(name: &'static str, help: &'static str) -> Histogram {
    histogram_with(name, help, &[])
}

/// Get or register a histogram with the given label set.
pub fn histogram_with(
    name: &'static str,
    help: &'static str,
    labels: &[(&str, &str)],
) -> Histogram {
    histogram_scaled(name, help, labels, 1.0)
}

/// [`histogram_with`] plus an exposition scale: observations stay raw
/// internally and bucket bounds/sums are multiplied by `scale` when
/// rendered (record nanoseconds, expose seconds with `scale = 1e-9`).
/// The scale is a family property fixed by the first registration.
pub fn histogram_scaled(
    name: &'static str,
    help: &'static str,
    labels: &[(&str, &str)],
    scale: f64,
) -> Histogram {
    match register(name, help, Kind::Histogram, scale, labels, || {
        Series::Histogram(Arc::new(HistCore::new()))
    }) {
        Some(Series::Histogram(core)) => Histogram { core },
        _ => Histogram::detached(),
    }
}

// ---------------------------------------------------------------------------
// Exposition
// ---------------------------------------------------------------------------

fn fmt_value(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v.is_infinite() {
        out.push_str(if v > 0.0 { "+Inf" } else { "-Inf" });
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Splice an extra label into an already-rendered block.
fn with_le(block: &str, le: &str) -> String {
    if block.is_empty() {
        format!("{{le=\"{le}\"}}")
    } else {
        format!("{},le=\"{le}\"}}", &block[..block.len() - 1])
    }
}

/// Render every registered series in the Prometheus text exposition
/// format (version 0.0.4): `# HELP`/`# TYPE` per family, cumulative
/// `_bucket`/`_sum`/`_count` for histograms, plus nearest-rank
/// `_p50`/`_p95`/`_p99` companion gauges per histogram series. Families
/// and label sets render in sorted order, so output is deterministic for
/// a fixed registry state.
pub fn render() -> String {
    let reg = registry().read();
    let mut out = String::with_capacity(4096);
    for (name, fam) in reg.iter() {
        let _ = write!(out, "# HELP {name} ");
        for c in fam.help.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('\n');
        let _ = writeln!(out, "# TYPE {name} {}", fam.kind.name());
        // (label block, [p50, p95, p99]) collected per histogram series.
        let mut quantiles: Vec<(String, [f64; 3])> = Vec::new();
        for (block, series) in &fam.series {
            match series {
                Series::Counter(c) => {
                    let _ = writeln!(out, "{name}{block} {}", c.sum());
                }
                Series::Gauge(g) => {
                    let _ = write!(out, "{name}{block} ");
                    fmt_value(&mut out, f64::from_bits(g.load(Relaxed)));
                    out.push('\n');
                }
                Series::Callback(f) => {
                    if let Some(v) = f() {
                        let _ = write!(out, "{name}{block} ");
                        fmt_value(&mut out, v);
                        out.push('\n');
                    }
                }
                Series::Histogram(h) => {
                    let mut cum = 0u64;
                    for b in 0..HIST_BUCKETS - 1 {
                        let c = h.buckets[b].load(Relaxed);
                        if c == 0 {
                            continue;
                        }
                        cum += c;
                        let le = bucket_upper(b) as f64 * fam.scale;
                        let mut le_s = String::new();
                        fmt_value(&mut le_s, le);
                        let _ = writeln!(out, "{name}_bucket{} {cum}", with_le(block, &le_s));
                    }
                    // The last bucket also absorbs clamped overflow, so it
                    // renders as +Inf; the +Inf sample is mandatory anyway.
                    let total = cum + h.buckets[HIST_BUCKETS - 1].load(Relaxed);
                    let _ = writeln!(out, "{name}_bucket{} {total}", with_le(block, "+Inf"));
                    let mut sum_s = String::new();
                    fmt_value(&mut sum_s, h.sum.load(Relaxed) as f64 * fam.scale);
                    let _ = writeln!(out, "{name}_sum{block} {sum_s}");
                    let _ = writeln!(out, "{name}_count{block} {total}");
                    quantiles.push((
                        block.clone(),
                        [0.5, 0.95, 0.99].map(|q| h.quantile(q) as f64 * fam.scale),
                    ));
                }
            }
        }
        if !quantiles.is_empty() {
            for (qi, suffix) in ["_p50", "_p95", "_p99"].iter().enumerate() {
                let _ = writeln!(
                    out,
                    "# HELP {name}{suffix} Nearest-rank quantile of {name} (bucket upper bound)."
                );
                let _ = writeln!(out, "# TYPE {name}{suffix} gauge");
                for (block, qs) in &quantiles {
                    let _ = write!(out, "{name}{suffix}{block} ");
                    fmt_value(&mut out, qs[qi]);
                    out.push('\n');
                }
            }
        }
    }
    out
}

/// A flat snapshot of every registered series as `(name{labels}, value)`
/// pairs, sorted: counters and gauges sample directly, histograms
/// contribute `_count` and `_sum` (scaled), callbacks contribute their
/// current value when available. This is what `lagraph-bench` embeds in
/// its JSON reports.
pub fn snapshot() -> Vec<(String, f64)> {
    let reg = registry().read();
    let mut out = Vec::new();
    for (name, fam) in reg.iter() {
        for (block, series) in &fam.series {
            match series {
                Series::Counter(c) => out.push((format!("{name}{block}"), c.sum() as f64)),
                Series::Gauge(g) => {
                    out.push((format!("{name}{block}"), f64::from_bits(g.load(Relaxed))))
                }
                Series::Callback(f) => {
                    if let Some(v) = f() {
                        out.push((format!("{name}{block}"), v));
                    }
                }
                Series::Histogram(h) => {
                    out.push((format!("{name}_count{block}"), h.count() as f64));
                    out.push((
                        format!("{name}_sum{block}"),
                        h.sum.load(Relaxed) as f64 * fam.scale,
                    ));
                }
            }
        }
    }
    out
}

/// Zero every counter, gauge, and histogram in the registry (callbacks
/// are left in place). A testing/bench aid: series handles stay valid,
/// so a measurement window can start from a clean slate without
/// re-registering.
pub fn reset() {
    let reg = registry().read();
    for fam in reg.values() {
        for series in fam.series.values() {
            match series {
                Series::Counter(c) => c.zero(),
                Series::Gauge(g) => g.store(0, Relaxed),
                Series::Histogram(h) => h.zero(),
                Series::Callback(_) => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Exposition endpoint
// ---------------------------------------------------------------------------

/// Bind `addr` (e.g. `"127.0.0.1:9184"`, port 0 for ephemeral) and serve
/// `GET /metrics` (the [`render`] page) and `GET /healthz` (`ok`) from a
/// background thread. Returns the bound address. Connections are handled
/// sequentially — a scrape endpoint, not a web server. The
/// `GRAPHBLAS_METRICS_ADDR` environment variable is the env-level
/// equivalent, resolved on first use of the metrics layer.
pub fn serve(addr: &str) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    std::thread::Builder::new().name("graphblas-metrics".into()).spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { continue };
            let _ = handle_conn(&mut stream, REQUEST_DEADLINE);
        }
    })?;
    Ok(local)
}

/// Whole-request budget: header read *and* response write must finish
/// inside this window. A per-read timeout alone is not enough — the
/// endpoint serves connections sequentially, so a client dripping one
/// byte per read-timeout (classic slow-loris) would hold the accept loop
/// hostage for hours while staying under the 16 KiB request cap.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

fn handle_conn(stream: &mut TcpStream, deadline: Duration) -> std::io::Result<()> {
    let timed_out =
        || std::io::Error::new(std::io::ErrorKind::TimedOut, "request deadline exceeded");
    let start = Instant::now();
    let mut req = Vec::new();
    let mut buf = [0u8; 2048];
    loop {
        // Shrink the read timeout to what's left of the overall budget;
        // set_read_timeout rejects a zero Duration, so an exhausted
        // budget bails out explicitly.
        let left = deadline.checked_sub(start.elapsed()).filter(|d| !d.is_zero());
        stream.set_read_timeout(Some(left.ok_or_else(timed_out)?))?;
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        req.extend_from_slice(&buf[..n]);
        if req.windows(4).any(|w| w == b"\r\n\r\n") || req.len() > 16 * 1024 {
            break;
        }
    }
    // Whatever budget the read left over bounds the response write, so
    // a client that stops reading can't pin the handler either.
    let left = deadline.checked_sub(start.elapsed()).filter(|d| !d.is_zero());
    stream.set_write_timeout(Some(left.ok_or_else(timed_out)?))?;
    let line = req.split(|&b| b == b'\r' || b == b'\n').next().unwrap_or(&[]);
    let line = String::from_utf8_lossy(line);
    let path = line.split_whitespace().nth(1).unwrap_or("");
    let path = path.split('?').next().unwrap_or("");
    let (status, body) = match path {
        "/metrics" => ("200 OK", render()),
        "/healthz" => ("200 OK", "ok\n".to_string()),
        _ => ("404 Not Found", "not found\n".to_string()),
    };
    let ctype = if path == "/metrics" {
        "text/plain; version=0.0.4; charset=utf-8"
    } else {
        "text/plain; charset=utf-8"
    };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())
}

// ---------------------------------------------------------------------------
// The metrics sink (trace spans, parallel dispatch)
// ---------------------------------------------------------------------------

/// The registry's end of the [`crate::trace`] fan-out, called only when
/// this sink is on: a closed span feeds its `{cat, span}` histograms, a
/// `dispatch` instant the dispatch counters. Other instants are the
/// ring's business.
pub(crate) fn consume(e: &Event) {
    if e.dur_ns > 0 {
        observe_span(e.cat.name(), e.name, e.dur_ns, e.arg_u64("flops"));
    } else if e.name == "dispatch" {
        record_dispatch(e.arg_u64("chunks").unwrap_or(1));
    }
}

struct SpanSink {
    seconds: Histogram,
    /// Created on the first span of this name that carries a flops
    /// estimate, so control-flow spans don't register empty families.
    flops: OnceLock<Histogram>,
}

impl SpanSink {
    fn record(&self, cat: &'static str, span: &'static str, dur_ns: u64, flops: Option<u64>) {
        self.seconds.observe(dur_ns);
        if let Some(f) = flops {
            self.flops
                .get_or_init(|| {
                    histogram_with(
                        "graphblas_span_flops",
                        "Flops-order work estimate per span carrying one.",
                        &[("cat", cat), ("span", span)],
                    )
                })
                .observe(f);
        }
    }
}

fn span_sinks() -> &'static RwLock<BTreeMap<(&'static str, &'static str), SpanSink>> {
    static SINKS: OnceLock<RwLock<BTreeMap<(&'static str, &'static str), SpanSink>>> =
        OnceLock::new();
    SINKS.get_or_init(|| RwLock::new(BTreeMap::new()))
}

/// Per-span latency (and flops) histograms keyed by `{cat, span}`. Span
/// names are a fixed vocabulary, so cardinality is bounded by the
/// instrumentation itself.
fn observe_span(cat: &'static str, span: &'static str, dur_ns: u64, flops: Option<u64>) {
    let sinks = span_sinks();
    {
        let r = sinks.read();
        if let Some(s) = r.get(&(cat, span)) {
            s.record(cat, span, dur_ns, flops);
            return;
        }
    }
    let mut w = sinks.write();
    let s = w.entry((cat, span)).or_insert_with(|| SpanSink {
        seconds: histogram_scaled(
            "graphblas_span_seconds",
            "Wall time of closed trace spans (ops, kernels, algorithms, service machinery).",
            &[("cat", cat), ("span", span)],
            1e-9,
        ),
        flops: OnceLock::new(),
    });
    s.record(cat, span, dur_ns, flops);
}

/// Counts sequential vs parallel kernel dispatches and total chunks
/// spawned.
fn record_dispatch(chunks: u64) {
    static PAR: OnceLock<Counter> = OnceLock::new();
    static SEQ: OnceLock<Counter> = OnceLock::new();
    static CHUNKS: OnceLock<Counter> = OnceLock::new();
    if chunks > 1 {
        PAR.get_or_init(|| {
            counter_with(
                "graphblas_dispatch_total",
                "Kernel dispatches by execution mode.",
                &[("mode", "parallel")],
            )
        })
        .inc();
        CHUNKS
            .get_or_init(|| {
                counter("graphblas_chunks_total", "Parallel work chunks handed to the worker pool.")
            })
            .add(chunks);
    } else {
        SEQ.get_or_init(|| {
            counter_with(
                "graphblas_dispatch_total",
                "Kernel dispatches by execution mode.",
                &[("mode", "sequential")],
            )
        })
        .inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Pure helpers only: tests that toggle the global on/off state or
    // assert registry contents live in tests/metrics.rs (own process).

    #[test]
    fn label_blocks_are_sorted_and_escaped() {
        assert_eq!(label_block(&[]), "");
        assert_eq!(
            label_block(&[("z", "1"), ("a", "x\"y\\z\n")]),
            "{a=\"x\\\"y\\\\z\\n\",z=\"1\"}"
        );
    }

    #[test]
    fn name_validation() {
        assert!(valid_name("graphblas_span_seconds"));
        assert!(valid_name("_x:y"));
        assert!(!valid_name("0abc"));
        assert!(!valid_name("a-b"));
        assert!(!valid_name(""));
        assert!(valid_label_key("shard"));
        assert!(!valid_label_key("le!"));
    }

    #[test]
    fn bucket_upper_bounds() {
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(10), 1023);
    }

    #[test]
    fn le_label_splicing() {
        assert_eq!(with_le("", "5"), "{le=\"5\"}");
        assert_eq!(with_le("{a=\"b\"}", "+Inf"), "{a=\"b\",le=\"+Inf\"}");
    }

    #[test]
    fn histogram_quantiles_without_recording() {
        let h = HistCore::new();
        assert_eq!(h.quantile(0.5), 0);
        h.buckets[3].store(9, Relaxed); // values 4..=7
        h.buckets[10].store(1, Relaxed);
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.quantile(1.0), 1023);
    }

    /// Accept one connection and run [`handle_conn`] on it with the
    /// given deadline, reporting whether it finished inside `limit`.
    fn serve_one(deadline: Duration, limit: Duration) -> std::io::Result<()> {
        use std::io::Write as _;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let begin = Instant::now();
            let res = handle_conn(&mut stream, deadline);
            (res, begin.elapsed())
        });
        // A slow-loris client: a partial request line, then silence. The
        // connection stays open, so only the deadline can unblock the
        // server.
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(b"GET /metr").expect("drip");
        let (res, took) = server.join().expect("server thread");
        assert!(took <= limit, "handler held the accept loop for {took:?} (deadline {deadline:?})");
        res
    }

    #[test]
    fn slow_loris_request_is_cut_off_at_the_deadline() {
        let res = serve_one(Duration::from_millis(150), Duration::from_secs(3));
        let err = res.expect_err("stalled request must not be served");
        assert!(
            matches!(err.kind(), std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock),
            "unexpected error kind: {err:?}"
        );
    }

    #[test]
    fn exhausted_deadline_rejects_before_reading() {
        // A zero budget must bail out explicitly rather than panic in
        // set_read_timeout (which rejects Duration::ZERO).
        let res = serve_one(Duration::ZERO, Duration::from_secs(3));
        assert_eq!(res.expect_err("must time out").kind(), std::io::ErrorKind::TimedOut);
    }
}
