//! Runtime tracing & profiling — the library's observability spine.
//!
//! SuiteSparse:GraphBLAS ships a "burble" diagnostic mode that narrates
//! which kernel each operation chose and what it cost; the LAGraph
//! follow-up paper stresses that studying *algorithm behaviour*, not just
//! end-to-end time, is the repository's purpose. This module is the Rust
//! analogue, always compiled and toggled at runtime:
//!
//! * every operation in [`crate::ops`] emits a **span** ([`Span`])
//!   recording operand dimensions and nnz, the kernel/direction chosen,
//!   a flops-order work estimate, the number of parallel chunks
//!   dispatched, and wall time;
//! * [`crate::parallel`] records dispatch and per-chunk events, and the
//!   matrix/vector assembly paths record pending-tuple/zombie resolution;
//! * algorithms in the `lagraph` crate add iteration-level spans
//!   (frontier size, residual, …) through the same API.
//!
//! # One event, three sinks
//!
//! Every producer ends in one [`Event`] handed to one fan-out, which
//! passes it to each sink that is on:
//!
//! * the **ring** — a fixed-capacity lock-light buffer (one relaxed
//!   `fetch_add` to claim a slot plus one uncontended per-slot mutex),
//!   drained with [`drain`] and consumed by [`Profile`] (per-span counts,
//!   log₂ latency and work histograms), [`RunAggregate`] (the flat
//!   per-run roll-up benchmark reports persist), [`chrome_trace`]
//!   (Chrome trace-event JSON, loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev)) and [`format_burble`];
//! * the **burble** — one human-readable line per event on stderr as it
//!   completes;
//! * the **metrics registry** ([`crate::metrics`]) — live
//!   `graphblas_span_seconds` / `graphblas_span_flops` histograms and
//!   dispatch counters.
//!
//! # Toggling
//!
//! Set the environment variable `GRAPHBLAS_TRACE` to `on` (record into
//! the ring), `burble` (record *and* narrate each event to stderr), or
//! `off` (default), or call [`set_mode`]/[`enable`]/[`disable`] at
//! runtime; `GRAPHBLAS_METRICS` and [`crate::metrics::set_enabled`] do
//! the same for the registry. The ring holds 65 536 events unless
//! [`set_capacity`] is called before the first one is recorded.
//!
//! # Overhead budget
//!
//! Which sinks are on is one process-wide bit mask. With every sink off,
//! a span constructor — and a parallel dispatch, and a metric handle —
//! costs **one relaxed atomic load** of that mask: no clock reads, no
//! allocation, no branches on the data path.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

// ---------------------------------------------------------------------------
// The sink mask
// ---------------------------------------------------------------------------

/// What the tracing subsystem does with events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Record nothing. Hot-path cost: one relaxed atomic load per op.
    Off = 0,
    /// Record events into the ring buffer.
    Record = 1,
    /// Record events *and* print a human-readable line per event to
    /// stderr as it completes — the SuiteSparse "burble" analogue.
    Burble = 2,
}

impl Mode {
    fn bits(self) -> u8 {
        match self {
            Mode::Off => 0,
            Mode::Record => RING,
            Mode::Burble => RING | BURBLE,
        }
    }
}

const RING: u8 = 1;
const BURBLE: u8 = 2;
/// The trace-mode sinks, as opposed to the metrics registry.
const TRACE: u8 = RING | BURBLE;
pub(crate) const METRICS: u8 = 4;
/// The mask before the environment has been read.
const UNRESOLVED: u8 = 0x80;

static SINKS: AtomicU8 = AtomicU8::new(UNRESOLVED);

/// The sinks that are on — the one relaxed load every producer pays.
#[inline]
pub(crate) fn sinks() -> u8 {
    let s = SINKS.load(Relaxed);
    if s == UNRESOLVED {
        resolve_env()
    } else {
        s
    }
}

/// First-use resolution of `GRAPHBLAS_TRACE` and `GRAPHBLAS_METRICS*`.
/// Runs at most a few times (racing threads), settles via
/// compare-exchange. A malformed value warns through [`warn_once`],
/// which reads the mask raw and so cannot come back in here.
#[cold]
fn resolve_env() -> u8 {
    let mode = crate::env::var("GRAPHBLAS_TRACE", "off, on, or burble", |v| {
        match crate::env::boolean(v) {
            Some(on) => Some(if on { Mode::Record } else { Mode::Off }),
            None => v.eq_ignore_ascii_case("burble").then_some(Mode::Burble),
        }
    });
    let metrics = if crate::metrics::env_enabled() { METRICS } else { 0 };
    let bits = mode.unwrap_or(Mode::Off).bits() | metrics;
    // An accessor or a racing thread may have settled first; keep the winner.
    match SINKS.compare_exchange(UNRESOLVED, bits, Relaxed, Relaxed) {
        Ok(_) => bits,
        Err(settled) => settled,
    }
}

/// Replace the sink bits under `mask` with `bits`, leaving the rest.
pub(crate) fn set_sinks(mask: u8, bits: u8) {
    // Settle the environment first, so it cannot overwrite this later.
    sinks();
    let _ = SINKS.fetch_update(Relaxed, Relaxed, |s| Some((s & !mask) | bits));
}

/// Set the trace mode, overriding the `GRAPHBLAS_TRACE` environment.
pub fn set_mode(m: Mode) {
    set_sinks(TRACE, m.bits());
}

/// The current trace mode.
pub fn mode() -> Mode {
    let s = sinks();
    if s & BURBLE != 0 {
        Mode::Burble
    } else if s & RING != 0 {
        Mode::Record
    } else {
        Mode::Off
    }
}

/// True when events are being recorded (`Record` or `Burble`).
#[inline]
pub fn enabled() -> bool {
    sinks() & TRACE != 0
}

/// Shorthand for `set_mode(Mode::Record)`.
pub fn enable() {
    set_mode(Mode::Record);
}

/// Shorthand for `set_mode(Mode::Off)`.
pub fn disable() {
    set_mode(Mode::Off);
}

// ---------------------------------------------------------------------------
// Clock and thread identity
// ---------------------------------------------------------------------------

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Small dense thread id, assigned in order of first traced event.
    static TID: u64 = NEXT_TID.fetch_add(1, Relaxed);
    /// Chunks dispatched by this thread since process start; spans diff
    /// this around their lifetime to attribute chunk counts per op.
    static CHUNKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn tid() -> u64 {
    TID.with(|t| *t)
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// A typed argument value attached to an event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer (counts, sizes, nnz, epoch numbers).
    U64(u64),
    /// A floating-point quantity (residuals, calibrated costs).
    F64(f64),
    /// A static string (kernel names, configuration keys).
    Str(&'static str),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(v)
    }
}

impl std::fmt::Display for ArgValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgValue::U64(v) => write!(f, "{v}"),
            ArgValue::F64(v) => write!(f, "{v}"),
            ArgValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// Event category, mapped to the `cat` field of the Chrome trace format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cat {
    /// A GraphBLAS operation (`mxm`, `mxv`, …).
    Op,
    /// An algorithm-level span (whole run or one iteration).
    Algo,
    /// Runtime machinery: dispatch, chunks, assembly, warnings.
    Runtime,
    /// Serving-layer machinery (epoch publication, queue backpressure) —
    /// emitted by systems built on top of the library, e.g.
    /// `lagraph::service`, through [`service_span`] / [`service_instant`].
    Service,
}

impl Cat {
    /// The category label used in burble lines and the Chrome trace `cat`
    /// field.
    pub fn name(self) -> &'static str {
        match self {
            Cat::Op => "op",
            Cat::Algo => "algo",
            Cat::Runtime => "runtime",
            Cat::Service => "service",
        }
    }
}

/// One recorded event: a span (`dur_ns > 0`) or an instant (`dur_ns == 0`).
#[derive(Debug, Clone)]
pub struct Event {
    /// Operation or span name (`"mxv"`, `"bfs.iter"`, `"dispatch"`, …).
    pub name: &'static str,
    /// Which layer emitted the event (op, algorithm, runtime, service).
    pub cat: Cat,
    /// Kernel / direction chosen, when the op selects among several
    /// (`"gustavson"`, `"dot"`, `"heap"`, `"push"`, `"pull"`, …).
    pub kernel: Option<&'static str>,
    /// Start time, nanoseconds since the trace epoch (first use).
    pub t0_ns: u64,
    /// Wall time in nanoseconds; `0` marks an instant event.
    pub dur_ns: u64,
    /// Dense per-thread id (0 = first thread that traced).
    pub tid: u64,
    /// Structured details: operand nnz, dims, flops, chunk count, ….
    pub args: Vec<(&'static str, ArgValue)>,
}

impl Event {
    /// Look up a numeric argument by key.
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        self.args.iter().find_map(|(k, v)| match v {
            ArgValue::U64(n) if *k == key => Some(*n),
            _ => None,
        })
    }

    /// Look up a string argument by key.
    pub fn arg_str(&self, key: &str) -> Option<&'static str> {
        self.args.iter().find_map(|(k, v)| match v {
            ArgValue::Str(s) if *k == key => Some(*s),
            _ => None,
        })
    }
}

/// The fan-out: the one place a finished event reaches the sinks in `to`.
fn emit(to: u8, e: Event) {
    if to & METRICS != 0 {
        crate::metrics::consume(&e);
    }
    if to & BURBLE != 0 {
        eprintln!("[graphblas] {}", burble_line(&e));
    }
    if to & RING != 0 {
        let r = ring();
        let seq = r.head.fetch_add(1, Relaxed);
        let slot = &r.slots[seq % r.slots.len()];
        if slot.lock().replace(e).is_some() {
            DROPPED.fetch_add(1, Relaxed);
        }
    }
}

/// The one constructor of instant events (`dur_ns == 0`), emitted to the
/// sinks in `to`; `args` is only built when one of them is on.
fn instant(
    to: u8,
    name: &'static str,
    cat: Cat,
    kernel: Option<&'static str>,
    args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
) {
    if to == 0 {
        return;
    }
    let t0_ns = epoch().elapsed().as_nanos() as u64;
    emit(to, Event { name, cat, kernel, t0_ns, dur_ns: 0, tid: tid(), args: args() });
}

// ---------------------------------------------------------------------------
// Op / kernel vocabulary
// ---------------------------------------------------------------------------

/// The instrumented operations. Every entry point in [`crate::ops`] opens
/// a span tagged with one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Matrix-matrix multiply.
    Mxm,
    /// Fused masked multiply-then-reduce/select (never materializes the
    /// product matrix).
    MxmFused,
    /// Matrix-vector multiply.
    Mxv,
    /// Vector-matrix multiply.
    Vxm,
    /// Element-wise "add" (pattern union).
    EwiseAdd,
    /// Element-wise "multiply" (pattern intersection).
    EwiseMult,
    /// Unary/binary operator application.
    Apply,
    /// Entry selection by predicate.
    Select,
    /// Reduction to vector or scalar.
    Reduce,
    /// Explicit transpose.
    Transpose,
    /// Submatrix/subvector assignment.
    Assign,
    /// Submatrix/subvector extraction.
    Extract,
    /// Kronecker product.
    Kron,
    /// Tiling matrices together.
    Concat,
    /// Splitting a matrix into tiles.
    Split,
    /// Diagonal matrix construction/extraction.
    Diag,
    /// Whole-object write (`GrB_assign` with `GrB_ALL` on both axes).
    Write,
    /// Lazy resolution of a matrix's pending tuples and zombies.
    AssembleMatrix,
    /// Lazy resolution of a vector's pending tuples and zombies.
    AssembleVector,
}

impl Op {
    /// The span name this op records (`"mxm"`, `"assemble.matrix"`, …).
    pub fn name(self) -> &'static str {
        match self {
            Op::Mxm => "mxm",
            Op::MxmFused => "mxm.fused",
            Op::Mxv => "mxv",
            Op::Vxm => "vxm",
            Op::EwiseAdd => "ewise_add",
            Op::EwiseMult => "ewise_mult",
            Op::Apply => "apply",
            Op::Select => "select",
            Op::Reduce => "reduce",
            Op::Transpose => "transpose",
            Op::Assign => "assign",
            Op::Extract => "extract",
            Op::Kron => "kron",
            Op::Concat => "concat",
            Op::Split => "split",
            Op::Diag => "diag",
            Op::Write => "write",
            Op::AssembleMatrix => "assemble.matrix",
            Op::AssembleVector => "assemble.vector",
        }
    }
}

/// The [`RunAggregate`] counter a kernel's spans are tallied under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Gustavson,
    Dot,
    Heap,
    Push,
    Pull,
    Fused,
}

/// What the trace layer knows about one [`Kernel`].
struct KernelRow {
    /// The `kernel` tag its spans carry.
    name: &'static str,
    family: Family,
    /// Ran a specialized (hot-semiring or fused) inner loop.
    specialized: bool,
    /// Ran because the cost model's preferred direction lacked dual
    /// storage.
    fallback: bool,
}

/// Declares [`Kernel`] and its [`KERNELS`] table from one list, so the
/// two cannot disagree: adding a kernel is one row.
macro_rules! kernels {
    ($($(#[$doc:meta])* $variant:ident = $name:literal, $family:ident, $specialized:literal, $fallback:literal;)*) => {
        /// Which kernel / direction an op chose, recorded on its span.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Kernel {
            $($(#[$doc])* $variant,)*
        }

        /// One row per [`Kernel`], in declaration order.
        const KERNELS: &[KernelRow] = &[$(KernelRow {
            name: $name,
            family: Family::$family,
            specialized: $specialized,
            fallback: $fallback,
        },)*];
    };
}

kernels! {
    // variant     = span tag,                   family,    specialized, fallback
    Gustavson      = "gustavson",                Gustavson, false, false;
    Dot            = "dot",                      Dot,       false, false;
    Heap           = "heap",                     Heap,      false, false;
    Push           = "push",                     Push,      false, false;
    /// Push with a non-transparent mask: the scatter kernel filtered
    /// masked-out positions itself instead of deferring to the write rule.
    PushMasked     = "push(masked)",             Push,      false, false;
    Pull           = "pull",                     Pull,      false, false;
    /// Ran push because the cost model's pull choice lacked dual storage.
    PushFallback   = "push(fallback)",           Push,      false, true;
    /// Ran pull because the cost model's push choice lacked dual storage.
    PullFallback   = "pull(fallback)",           Pull,      false, true;
    /// Gustavson with a specialized (hot-semiring) inner loop.
    GustavsonSpec  = "gustavson(specialized)",   Gustavson, true,  false;
    /// Dot-product method with a specialized inner loop.
    DotSpec        = "dot(specialized)",         Dot,       true,  false;
    /// Dot-product method where an operand is decoded on the fly from the
    /// compressed (gap-encoded) storage form.
    CompressedDot  = "dot(compressed)",          Dot,       false, false;
    /// Push with a specialized scatter loop.
    PushSpec       = "push(specialized)",        Push,      true,  false;
    /// Masked push with a specialized scatter loop.
    PushMaskedSpec = "push(masked,specialized)", Push,      true,  false;
    /// Pull with a specialized row-dot loop.
    PullSpec       = "pull(specialized)",        Pull,      true,  false;
    /// Fused masked dot product folding straight into a reduction.
    FusedReduce    = "fused(dot+reduce)",        Fused,     true,  false;
    /// Fused masked dot product filtered by a select predicate.
    FusedSelect    = "fused(dot+select)",        Fused,     true,  false;
}

impl Kernel {
    fn name(self) -> &'static str {
        KERNELS[self as usize].name
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A RAII span: created at op entry, handed to the sinks on drop with the
/// measured wall time. With every sink off the constructor costs one
/// relaxed atomic load and every method is a no-op.
#[derive(Debug)]
#[must_use = "a span records its wall time when dropped"]
pub struct Span {
    rec: Option<SpanRec>,
}

#[derive(Debug)]
struct SpanRec {
    name: &'static str,
    cat: Cat,
    kernel: Option<&'static str>,
    args: Vec<(&'static str, ArgValue)>,
    t0_ns: u64,
    t0: Instant,
    chunks0: u64,
    /// The sinks that were on at creation; the close goes to these.
    sinks: u8,
}

impl Span {
    fn new(name: &'static str, cat: Cat) -> Span {
        let sinks = sinks();
        if sinks == 0 {
            return Span { rec: None };
        }
        let t0 = Instant::now();
        Span {
            rec: Some(SpanRec {
                name,
                cat,
                kernel: None,
                args: Vec::new(),
                t0_ns: t0.saturating_duration_since(epoch()).as_nanos() as u64,
                t0,
                chunks0: CHUNKS.with(|c| c.get()),
                sinks,
            }),
        }
    }

    /// True when this span is live (a sink was on at creation). Lets
    /// callers skip computing expensive details for dead spans.
    #[inline]
    pub fn on(&self) -> bool {
        self.rec.is_some()
    }

    /// Attach a structured argument (operand nnz, dims, residual, …).
    #[inline]
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some(r) = &mut self.rec {
            r.args.push((key, value.into()));
        }
    }

    /// Record the kernel/direction chosen.
    pub(crate) fn kernel(&mut self, k: Kernel) {
        if let Some(r) = &mut self.rec {
            r.kernel = Some(k.name());
        }
    }

    /// Record the op's work estimate (order of flops).
    pub(crate) fn flops(&mut self, n: usize) {
        self.arg("flops", n);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(rec) = self.rec.take() else { return };
        let dur_ns = (rec.t0.elapsed().as_nanos() as u64).max(1);
        let chunks = CHUNKS.with(|c| c.get()).wrapping_sub(rec.chunks0);
        let mut args = rec.args;
        if chunks > 0 {
            args.push(("chunks", ArgValue::U64(chunks)));
        }
        emit(
            rec.sinks,
            Event {
                name: rec.name,
                cat: rec.cat,
                kernel: rec.kernel,
                t0_ns: rec.t0_ns,
                dur_ns,
                tid: tid(),
                args,
            },
        );
    }
}

/// Open a span for a GraphBLAS operation.
pub(crate) fn op_span(op: Op) -> Span {
    Span::new(op.name(), Cat::Op)
}

/// Open an algorithm-level span (whole algorithm run).
pub fn algo_span(name: &'static str) -> Span {
    Span::new(name, Cat::Algo)
}

/// Open a span for one algorithm iteration, pre-tagged with its number.
pub fn iter_span(name: &'static str, iter: u64) -> Span {
    let mut s = Span::new(name, Cat::Algo);
    s.arg("iter", iter);
    s
}

/// Open a runtime-machinery span (pool chunks, assembly).
pub(crate) fn runtime_span(name: &'static str) -> Span {
    Span::new(name, Cat::Runtime)
}

/// Open a span around a lazy assembly, tagged with the deferred-update
/// backlog it resolves.
pub(crate) fn assemble_span(op: Op, pending: usize, zombies: usize) -> Span {
    let mut s = Span::new(op.name(), Cat::Runtime);
    s.arg("pending", pending);
    s.arg("zombies", zombies);
    s
}

/// Open a serving-layer span ([`Cat::Service`]): epoch publication,
/// update-log drains, and similar machinery in systems built on top of
/// the library. Like every span, it is free when every sink is off and
/// records wall time plus any attached [`Span::arg`]s on drop.
pub fn service_span(name: &'static str) -> Span {
    Span::new(name, Cat::Service)
}

// ---------------------------------------------------------------------------
// Instants (parallel dispatch, diagnostics)
// ---------------------------------------------------------------------------

/// Record one `par_chunks` dispatch: `chunks == 1` means the work stayed
/// on the calling thread. The chunk count is accumulated for the
/// enclosing span. The metrics registry counts every dispatch; the trace
/// sinks see only the parallel ones.
pub(crate) fn dispatch(chunks: usize, est_work: usize) {
    let on = sinks();
    if on == 0 {
        return;
    }
    CHUNKS.with(|c| c.set(c.get() + chunks as u64));
    let to = if chunks > 1 { on } else { on & METRICS };
    instant(to, "dispatch", Cat::Runtime, None, || {
        vec![("chunks", ArgValue::U64(chunks as u64)), ("est_work", ArgValue::U64(est_work as u64))]
    });
}

/// Record a reduction that short-circuited on a terminal value.
pub(crate) fn early_exit() {
    instant(sinks() & TRACE, "reduce.early_exit", Cat::Runtime, None, Vec::new);
}

/// Record a direction misprediction: after the kernel ran, the measured
/// flop count priced higher than the cost model's estimate for the
/// direction it rejected. The instant (tagged with the chosen kernel and
/// both estimates) makes the mispredicted products visible in the Chrome
/// trace and countable in [`RunAggregate::mispredicts`].
pub(crate) fn mxv_mispredict(
    chosen: &'static str,
    est_chosen: usize,
    est_other: usize,
    actual: usize,
) {
    instant(sinks() & TRACE, "mxv.mispredict", Cat::Runtime, Some(chosen), || {
        vec![
            ("est_chosen", ArgValue::U64(est_chosen as u64)),
            ("est_other", ArgValue::U64(est_other as u64)),
            ("actual", ArgValue::U64(actual as u64)),
        ]
    });
}

/// Record a vector changing storage form (sparse / bitmap / dense): an
/// O(n) rebuild, so a loop that converts every iteration shows up as a
/// per-iteration count in [`RunAggregate::vector_conversions`].
pub(crate) fn vector_convert(from: &'static str, to: &'static str, n: usize) {
    instant(sinks() & TRACE, "vector.convert", Cat::Runtime, None, || {
        vec![
            ("from", ArgValue::Str(from)),
            ("to", ArgValue::Str(to)),
            ("n", ArgValue::U64(n as u64)),
        ]
    });
}

/// Record the cost model's calibrated per-flop constants (once per
/// process) so traces show which numbers every direction choice used.
pub(crate) fn cost_calibrated(push_ns: f64, pull_ns: f64) {
    instant(sinks() & TRACE, "cost.calibrate", Cat::Runtime, None, || {
        vec![("push_ns", ArgValue::F64(push_ns)), ("pull_ns", ArgValue::F64(pull_ns))]
    });
}

/// Record a serving-layer instant event (duration 0) with structured
/// arguments — queue-depth samples, backpressure rejections, coalesced
/// writes. No-op when tracing is off.
pub fn service_instant(name: &'static str, args: Vec<(&'static str, ArgValue)>) {
    instant(sinks() & TRACE, name, Cat::Service, None, || args);
}

/// One-shot diagnostic: print `msg` to stderr the first time `key` is
/// seen in this process (diagnostics must not be silent, so this prints
/// regardless of trace mode) and record an instant event when tracing is
/// on. Used for misconfiguration that would otherwise be ignored, e.g.
/// an unparsable `GRAPHBLAS_THREADS`.
pub fn warn_once(key: &'static str, msg: &str) {
    static SEEN: OnceLock<Mutex<std::collections::BTreeSet<&'static str>>> = OnceLock::new();
    let seen = SEEN.get_or_init(|| Mutex::new(std::collections::BTreeSet::new()));
    if !seen.lock().insert(key) {
        return;
    }
    eprintln!("[graphblas] warning: {msg}");
    // The mask is read raw: a warning raised while the environment is
    // being resolved must not resolve it again (it is printed only).
    instant(SINKS.load(Relaxed) & TRACE, "warn", Cat::Runtime, None, || {
        vec![("key", ArgValue::Str(key))]
    });
}

// ---------------------------------------------------------------------------
// The ring buffer
// ---------------------------------------------------------------------------

const DEFAULT_CAPACITY: usize = 1 << 16;

static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static DROPPED: AtomicU64 = AtomicU64::new(0);

struct Ring {
    slots: Box<[Mutex<Option<Event>>]>,
    head: AtomicUsize,
}

fn ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| Ring {
        slots: (0..CAPACITY.load(Relaxed)).map(|_| Mutex::new(None)).collect(),
        head: AtomicUsize::new(0),
    })
}

/// Set the ring capacity (events retained before the oldest are
/// overwritten; default 65 536). Effective only before the first event is
/// recorded.
pub fn set_capacity(n: usize) {
    CAPACITY.store(n.max(1), Relaxed);
}

/// Events overwritten before being drained (ring overflow). The counter
/// accumulates across [`drain`] calls and is reset only by [`clear`],
/// which starts a fresh measurement window.
pub fn dropped() -> u64 {
    DROPPED.load(Relaxed)
}

/// Take every buffered event, oldest first, leaving the ring empty.
/// Events are returned in completion order (a span is stamped when it
/// closes); sort by [`Event::t0_ns`] for start order.
pub fn drain() -> Vec<Event> {
    let r = ring();
    let cap = r.slots.len();
    let head = r.head.load(Relaxed);
    let start = head.saturating_sub(cap);
    let mut out = Vec::new();
    for seq in start..head {
        if let Some(e) = r.slots[seq % cap].lock().take() {
            out.push(e);
        }
    }
    out
}

/// Discard all buffered events **and reset the [`dropped`] counter** —
/// `clear()` starts a fresh measurement window, so the overflow count
/// always refers to the ring contents drained *after* the last clear.
/// ([`drain`] by itself intentionally leaves `dropped()` alone: the
/// events it returns are exactly the ones that survived that overflow.)
pub fn clear() {
    drop(drain());
    DROPPED.store(0, Relaxed);
}

// ---------------------------------------------------------------------------
// Burble exporter
// ---------------------------------------------------------------------------

/// Format a duration in adaptive units.
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

/// One human-readable line for an event — the burble format.
pub fn burble_line(e: &Event) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{:>11.3}ms t{} {}", e.t0_ns as f64 / 1e6, e.tid, e.name);
    if let Some(k) = e.kernel {
        let _ = write!(s, " [{k}]");
    }
    for (k, v) in &e.args {
        match v {
            // String args can carry hostile content (labels derived from
            // input); quote and escape anything that would corrupt the
            // one-line format, mirroring the Chrome exporter's escaping.
            ArgValue::Str(val)
                if val.chars().any(|c| c.is_control() || c == '"' || c == '\\' || c == ' ') =>
            {
                let _ = write!(s, " {k}=\"");
                for c in val.chars() {
                    match c {
                        '"' => s.push_str("\\\""),
                        '\\' => s.push_str("\\\\"),
                        c if c.is_control() => {
                            for esc in c.escape_default() {
                                s.push(esc);
                            }
                        }
                        c => s.push(c),
                    }
                }
                s.push('"');
            }
            v => {
                let _ = write!(s, " {k}={v}");
            }
        }
    }
    if e.dur_ns > 0 {
        let _ = write!(s, " ({})", fmt_ns(e.dur_ns));
    }
    s
}

/// The burble log for a batch of events, in start order.
pub fn format_burble(events: &[Event]) -> String {
    let mut sorted: Vec<&Event> = events.iter().collect();
    sorted.sort_by_key(|e| e.t0_ns);
    let mut out = String::new();
    for e in sorted {
        out.push_str(&burble_line(e));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Chrome trace-event exporter
// ---------------------------------------------------------------------------

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn json_arg_value(out: &mut String, v: &ArgValue) {
    match v {
        ArgValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        ArgValue::F64(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        ArgValue::F64(_) => out.push_str("null"),
        ArgValue::Str(s) => {
            out.push('"');
            json_escape_into(out, s);
            out.push('"');
        }
    }
}

/// Serialize events as Chrome trace-event JSON (the "Trace Event Format"
/// consumed by `chrome://tracing` and Perfetto). Spans become complete
/// (`"ph":"X"`) events with microsecond timestamps; instants become
/// thread-scoped instant (`"ph":"i"`) events. The chosen kernel and all
/// structured arguments land in `args`.
pub fn chrome_trace(events: &[Event]) -> String {
    let us = |ns: u64| ns as f64 / 1e3;
    let mut sorted: Vec<&Event> = events.iter().collect();
    sorted.sort_by_key(|e| e.t0_ns);
    let mut out = String::with_capacity(events.len() * 128 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (k, e) in sorted.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        json_escape_into(&mut out, e.name);
        out.push_str("\",\"cat\":\"");
        out.push_str(e.cat.name());
        out.push('"');
        if e.dur_ns > 0 {
            let _ =
                write!(out, ",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3}", us(e.t0_ns), us(e.dur_ns));
        } else {
            let _ = write!(out, ",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3}", us(e.t0_ns));
        }
        let _ = write!(out, ",\"pid\":1,\"tid\":{},\"args\":{{", e.tid);
        let mut first = true;
        if let Some(kernel) = e.kernel {
            out.push_str("\"kernel\":\"");
            json_escape_into(&mut out, kernel);
            out.push('"');
            first = false;
        }
        for (key, v) in &e.args {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('"');
            json_escape_into(&mut out, key);
            out.push_str("\":");
            json_arg_value(&mut out, v);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Write [`chrome_trace`] output to a file.
pub fn write_chrome_trace<P: AsRef<std::path::Path>>(
    path: P,
    events: &[Event],
) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace(events))
}

// ---------------------------------------------------------------------------
// Profile aggregation
// ---------------------------------------------------------------------------

/// Number of log₂ histogram buckets: bucket `b` holds values in
/// `[2^(b-1), 2^b)`, so 44 buckets cover latencies beyond two hours.
pub const HIST_BUCKETS: usize = 44;

/// Log₂ bucket index for a value — shared with [`crate::metrics`] so
/// live histograms and post-hoc profiles bucket identically.
pub(crate) fn bucket(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// The nearest-rank quantile rule over log₂ buckets, shared by
/// [`OpProfile`] and [`crate::metrics::Histogram`]: the index of the
/// bucket holding the `⌈q·total⌉`-th smallest sample (`0.0 < q <= 1.0`),
/// or `None` when the histogram is empty.
pub(crate) fn quantile_bucket(counts: &[u64; HIST_BUCKETS], q: f64) -> Option<usize> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let target = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    counts.iter().position(|&c| {
        seen += c;
        seen >= target
    })
}

/// Aggregated statistics for one span name.
#[derive(Debug, Clone)]
pub struct OpProfile {
    /// Number of spans aggregated.
    pub count: u64,
    /// Summed wall time across those spans, in nanoseconds.
    pub total_ns: u64,
    min_ns: u64,
    /// Slowest recorded span, in nanoseconds.
    pub max_ns: u64,
    /// Flops-work accumulated over spans carrying a `flops` argument.
    pub total_flops: u64,
    /// Latency histogram over log₂-nanosecond buckets.
    pub latency_hist: [u64; HIST_BUCKETS],
    /// Work (flops) histogram over log₂ buckets.
    pub work_hist: [u64; HIST_BUCKETS],
}

impl OpProfile {
    fn new() -> Self {
        OpProfile {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            total_flops: 0,
            latency_hist: [0; HIST_BUCKETS],
            work_hist: [0; HIST_BUCKETS],
        }
    }

    /// Fastest recorded span (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Mean latency in nanoseconds.
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the histogram bucket containing the `q`-quantile
    /// sample (`0.0 < q <= 1.0`) — within 2× of the true quantile.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        quantile_bucket(&self.latency_hist, q).map_or(0, |b| 1u64 << b)
    }
}

/// Per-op aggregation of a batch of span events: counts, latency and
/// work histograms — how benches and tools summarize *what ran and what
/// it cost*.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Aggregates keyed by span name, sorted for stable reports.
    pub ops: BTreeMap<&'static str, OpProfile>,
}

impl Profile {
    /// Aggregate a batch of events (instants are skipped).
    pub fn from_events(events: &[Event]) -> Self {
        let mut p = Profile::default();
        for e in events {
            p.record(e);
        }
        p
    }

    /// Drain the ring buffer and aggregate everything in it.
    pub fn collect() -> Self {
        Self::from_events(&drain())
    }

    /// Fold one event into the aggregate.
    pub fn record(&mut self, e: &Event) {
        if e.dur_ns == 0 {
            return;
        }
        let op = self.ops.entry(e.name).or_insert_with(OpProfile::new);
        op.count += 1;
        op.total_ns += e.dur_ns;
        op.min_ns = op.min_ns.min(e.dur_ns);
        op.max_ns = op.max_ns.max(e.dur_ns);
        op.latency_hist[bucket(e.dur_ns)] += 1;
        if let Some(f) = e.arg_u64("flops") {
            op.total_flops += f;
            op.work_hist[bucket(f)] += 1;
        }
    }

    /// A fixed-width table: per op, the count, total/mean/median/max
    /// latency, and accumulated flops estimate.
    pub fn report(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<18} {:>8} {:>10} {:>10} {:>10} {:>10} {:>14}",
            "span", "count", "total", "mean", "~p50", "max", "flops"
        );
        for (name, p) in &self.ops {
            let _ = writeln!(
                s,
                "{:<18} {:>8} {:>10} {:>10} {:>10} {:>10} {:>14}",
                name,
                p.count,
                fmt_ns(p.total_ns),
                fmt_ns(p.mean_ns()),
                fmt_ns(p.quantile_ns(0.5)),
                fmt_ns(p.max_ns),
                p.total_flops,
            );
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Per-run aggregate (machine-readable benchmark export)
// ---------------------------------------------------------------------------

/// Whole-run roll-up of a batch of trace events into the handful of
/// scalar facts a benchmark run wants to persist: accumulated work
/// estimate, direction-choice counts, mispredictions, and the peak
/// deferred-update backlog any single assembly resolved. Unlike
/// [`Profile`] (per-span histograms for humans) this is flat: one
/// `RunAggregate` per algorithm run is what a benchmark records and a test
/// compares.
///
/// Build incrementally with [`record`](RunAggregate::record) across
/// several [`drain`] calls (e.g. once per trial), or in one shot with
/// [`from_events`](RunAggregate::from_events).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunAggregate {
    /// Spans aggregated (instant events are counted separately below).
    pub spans: u64,
    /// Summed wall time of GraphBLAS-op spans ([`Cat::Op`]), in
    /// nanoseconds. Algorithm and runtime spans, and the `write` span
    /// nested in every op that has an output, are excluded so no interval
    /// is counted twice.
    pub op_wall_ns: u64,
    /// Accumulated flops-order work estimate over spans carrying a
    /// `flops` argument.
    pub total_flops: u64,
    /// Products that ran the push (scatter) kernel, masked or not,
    /// including dual-storage fallbacks into push.
    pub push: u64,
    /// Products that ran the pull (dot) kernel, including fallbacks.
    pub pull: u64,
    /// Push/pull products where the cost model's preferred direction
    /// lacked dual storage, so the natural orientation ran instead.
    pub direction_fallbacks: u64,
    /// `mxv.mispredict` instants: products whose measured work priced
    /// higher than the model's estimate for the rejected direction.
    pub mispredicts: u64,
    /// `mxm` invocations per kernel: Gustavson (row-merge).
    pub mxm_gustavson: u64,
    /// `mxm` invocations that ran the masked/unmasked dot kernel.
    pub mxm_dot: u64,
    /// `mxm` invocations that ran the heap (k-way merge) kernel.
    pub mxm_heap: u64,
    /// Lazy assemblies (pending-tuple/zombie resolutions) observed.
    pub assemblies: u64,
    /// Largest pending-tuple backlog any single assembly resolved.
    pub peak_pending: u64,
    /// Largest zombie count any single assembly resolved.
    pub peak_zombies: u64,
    /// Total parallel chunks accumulated on spans.
    pub chunks: u64,
    /// Reductions that short-circuited on a terminal value.
    pub early_exits: u64,
    /// Products (mxm/mxv/vxm/fused) that ran a specialized inner loop.
    pub specialized: u64,
    /// Fused multiply-reduce/select invocations (product never
    /// materialized).
    pub mxm_fused: u64,
    /// Largest `resident_bytes` figure any span reported (assemblies
    /// attach the post-rebuild [`crate::MemoryUsage`] total) — the
    /// peak resident matrix footprint observed during the run.
    pub peak_resident_bytes: u64,
    /// Vector `write` spans that took the in-place arm (`path=inplace`:
    /// a full-length output updated in O(|T|)).
    pub writes_inplace: u64,
    /// Vector `write` spans that took the merge arm (`path=merge`: a
    /// sparse output rebuilt by a two-pointer merge with `T`).
    pub writes_merge: u64,
    /// `vector.convert` instants: vectors rebuilt in another storage form.
    pub vector_conversions: u64,
}

impl RunAggregate {
    /// Aggregate a batch of drained events.
    pub fn from_events(events: &[Event]) -> Self {
        let mut agg = RunAggregate::default();
        for e in events {
            agg.record(e);
        }
        agg
    }

    /// Fold one event into the aggregate.
    pub fn record(&mut self, e: &Event) {
        if e.dur_ns == 0 {
            match e.name {
                "mxv.mispredict" => self.mispredicts += 1,
                "reduce.early_exit" => self.early_exits += 1,
                "vector.convert" => self.vector_conversions += 1,
                _ => {}
            }
            return;
        }
        self.spans += 1;
        // A `write` span always runs inside the span of the op it ends.
        if e.cat == Cat::Op && e.name != "write" {
            self.op_wall_ns += e.dur_ns;
        }
        if let Some(f) = e.arg_u64("flops") {
            self.total_flops += f;
        }
        if let Some(c) = e.arg_u64("chunks") {
            self.chunks += c;
        }
        if let Some(b) = e.arg_u64("resident_bytes") {
            self.peak_resident_bytes = self.peak_resident_bytes.max(b);
        }
        match e.arg_str("path") {
            Some("inplace") => self.writes_inplace += 1,
            Some("merge") => self.writes_merge += 1,
            _ => {}
        }
        if let Some(k) = e.kernel.and_then(|name| KERNELS.iter().find(|k| k.name == name)) {
            *match k.family {
                Family::Gustavson => &mut self.mxm_gustavson,
                Family::Dot => &mut self.mxm_dot,
                Family::Heap => &mut self.mxm_heap,
                Family::Push => &mut self.push,
                Family::Pull => &mut self.pull,
                Family::Fused => &mut self.mxm_fused,
            } += 1;
            self.specialized += u64::from(k.specialized);
            self.direction_fallbacks += u64::from(k.fallback);
        }
        if matches!(e.name, "assemble.matrix" | "assemble.vector") {
            self.assemblies += 1;
            if let Some(p) = e.arg_u64("pending") {
                self.peak_pending = self.peak_pending.max(p);
            }
            if let Some(z) = e.arg_u64("zombies") {
                self.peak_zombies = self.peak_zombies.max(z);
            }
        }
    }
}

#[cfg(test)]
mod aggregate_tests {
    use super::*;

    fn span(name: &'static str, cat: Cat, kernel: Option<&'static str>, dur: u64) -> Event {
        Event { name, cat, kernel, t0_ns: 0, dur_ns: dur, tid: 0, args: Vec::new() }
    }

    #[test]
    fn run_aggregate_rolls_up_directions_flops_and_assembly_peaks() {
        let mut push = span("mxv", Cat::Op, Some("push"), 10);
        push.args.push(("flops", ArgValue::U64(100)));
        let mut pull = span("mxv", Cat::Op, Some("pull(fallback)"), 20);
        pull.args.push(("flops", ArgValue::U64(50)));
        let mut asm_small = span("assemble.matrix", Cat::Runtime, None, 5);
        asm_small.args.push(("pending", ArgValue::U64(3)));
        asm_small.args.push(("zombies", ArgValue::U64(1)));
        let mut asm_big = span("assemble.vector", Cat::Runtime, None, 5);
        asm_big.args.push(("pending", ArgValue::U64(77)));
        asm_big.args.push(("zombies", ArgValue::U64(0)));
        let mis = span("mxv.mispredict", Cat::Runtime, Some("push"), 0);
        let ee = span("reduce.early_exit", Cat::Runtime, None, 0);
        let algo = span("bfs", Cat::Algo, None, 1000);
        let mut in_place = span("write", Cat::Op, None, 7);
        in_place.args.push(("path", ArgValue::Str("inplace")));
        let mut merged = span("write", Cat::Op, None, 9);
        merged.args.push(("path", ArgValue::Str("merge")));
        let convert = span("vector.convert", Cat::Runtime, None, 0);

        let agg = RunAggregate::from_events(&[
            push, pull, asm_small, asm_big, mis, ee, algo, in_place, merged, convert,
        ]);
        assert_eq!(agg.spans, 7);
        assert_eq!(agg.op_wall_ns, 30, "op spans only, without the writes nested in them");
        assert_eq!((agg.writes_inplace, agg.writes_merge, agg.vector_conversions), (1, 1, 1));
        assert_eq!(agg.total_flops, 150);
        assert_eq!((agg.push, agg.pull), (1, 1));
        assert_eq!(agg.direction_fallbacks, 1);
        assert_eq!(agg.mispredicts, 1);
        assert_eq!(agg.early_exits, 1);
        assert_eq!(agg.assemblies, 2);
        assert_eq!((agg.peak_pending, agg.peak_zombies), (77, 1));
    }

    #[test]
    fn run_aggregate_counts_mxm_kernels() {
        let events: Vec<Event> = [("gustavson", 3), ("dot", 2), ("heap", 1)]
            .iter()
            .flat_map(|&(k, c)| (0..c).map(move |_| span("mxm", Cat::Op, Some(k), 7)))
            .collect();
        let agg = RunAggregate::from_events(&events);
        assert_eq!((agg.mxm_gustavson, agg.mxm_dot, agg.mxm_heap), (3, 2, 1));
        assert_eq!(agg.spans, 6);
    }

    /// The kernel vocabulary is total: whatever tag a [`Kernel`] puts on
    /// its span, the roll-up books it under exactly one family counter.
    #[test]
    fn every_kernel_tag_lands_in_exactly_one_family_counter() {
        for k in KERNELS {
            let agg = RunAggregate::from_events(&[span("mxm", Cat::Op, Some(k.name), 7)]);
            let families =
                [agg.mxm_gustavson, agg.mxm_dot, agg.mxm_heap, agg.push, agg.pull, agg.mxm_fused];
            assert_eq!(families.iter().sum::<u64>(), 1, "{} is counted {families:?}", k.name);
            assert_eq!(agg.specialized, u64::from(k.specialized), "{}", k.name);
            assert_eq!(agg.direction_fallbacks, u64::from(k.fallback), "{}", k.name);
        }
        assert_eq!(Kernel::CompressedDot.name(), "dot(compressed)");
    }

    #[test]
    fn run_aggregate_counts_specialized_and_fused_kernels() {
        let events = vec![
            span("mxm", Cat::Op, Some("dot(specialized)"), 7),
            span("mxm", Cat::Op, Some("gustavson(specialized)"), 7),
            span("mxv", Cat::Op, Some("pull(specialized)"), 7),
            span("mxv", Cat::Op, Some("push(specialized)"), 7),
            span("vxm", Cat::Op, Some("push(masked,specialized)"), 7),
            span("mxm.fused", Cat::Op, Some("fused(dot+reduce)"), 7),
            span("mxm.fused", Cat::Op, Some("fused(dot+select)"), 7),
            span("mxm", Cat::Op, Some("dot"), 7),
        ];
        let agg = RunAggregate::from_events(&events);
        assert_eq!(agg.specialized, 7);
        assert_eq!(agg.mxm_fused, 2);
        // Specialized variants still count toward their base kernel tally.
        assert_eq!(agg.mxm_dot, 2);
        assert_eq!(agg.mxm_gustavson, 1);
        assert_eq!((agg.push, agg.pull), (2, 1));
    }
}

// ---------------------------------------------------------------------------
// Tests (pure: the ones that flip the process-global sink mask or drain the
// ring live in tests/trace.rs, a process of their own).
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_serializes_spans_and_instants() {
        let events = vec![
            Event {
                name: "mxv",
                cat: Cat::Op,
                kernel: Some("push"),
                t0_ns: 1_000,
                dur_ns: 2_500,
                tid: 0,
                args: vec![("u_nnz", ArgValue::U64(3)), ("res", ArgValue::F64(0.5))],
            },
            Event {
                name: "dispatch",
                cat: Cat::Runtime,
                kernel: None,
                t0_ns: 1_200,
                dur_ns: 0,
                tid: 1,
                args: vec![("chunks", ArgValue::U64(4))],
            },
        ];
        let json = chrome_trace(&events);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"kernel\":\"push\""));
        assert!(json.contains("\"u_nnz\":3"));
        assert!(json.contains("\"res\":0.5"));
    }

    #[test]
    fn chrome_trace_escapes_and_nan_is_null() {
        let events = vec![Event {
            name: "x",
            cat: Cat::Op,
            kernel: None,
            t0_ns: 0,
            dur_ns: 5,
            tid: 0,
            args: vec![("bad", ArgValue::F64(f64::NAN)), ("s", ArgValue::Str("a\"b"))],
        }];
        let json = chrome_trace(&events);
        assert!(json.contains("\"bad\":null"));
        assert!(json.contains("a\\\"b"));
    }

    #[test]
    fn profile_aggregates_latency_and_work() {
        let mk = |dur: u64, flops: u64| Event {
            name: "mxm",
            cat: Cat::Op,
            kernel: None,
            t0_ns: 0,
            dur_ns: dur,
            tid: 0,
            args: vec![("flops", ArgValue::U64(flops))],
        };
        let p = Profile::from_events(&[mk(100, 10), mk(300, 30), mk(200, 20)]);
        let op = &p.ops["mxm"];
        assert_eq!(op.count, 3);
        assert_eq!(op.total_ns, 600);
        assert_eq!(op.min_ns(), 100);
        assert_eq!(op.max_ns, 300);
        assert_eq!(op.total_flops, 60);
        assert_eq!(op.mean_ns(), 200);
        assert!(op.quantile_ns(0.5) >= 128 && op.quantile_ns(0.5) <= 512);
        assert!(p.report().contains("mxm"));
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 3);
        assert_eq!(bucket(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn burble_lines_are_readable() {
        let e = Event {
            name: "mxv",
            cat: Cat::Op,
            kernel: Some("pull"),
            t0_ns: 2_000_000,
            dur_ns: 1_500,
            tid: 2,
            args: vec![("u_nnz", ArgValue::U64(9))],
        };
        let line = burble_line(&e);
        assert!(line.contains("mxv"));
        assert!(line.contains("[pull]"));
        assert!(line.contains("u_nnz=9"));
        let log = format_burble(std::slice::from_ref(&e));
        assert!(log.ends_with('\n'));
    }
}
