//! Data-parallel helpers for the compute kernels.
//!
//! Kernels are parallelized over contiguous ranges of output vectors (rows
//! for CSR results): each chunk produces an independent result which is
//! stitched deterministically afterwards, in chunk order, so results are
//! identical regardless of thread count and of which thread ran what.
//!
//! * **The cut.** [`par_chunks`] cuts `0..n` evenly by item count — right
//!   for loops over vector positions. [`par_chunks_weighted`] cuts by the
//!   work the items carry: the caller supplies the cumulative work before
//!   item `i` (for matrix rows the row-pointer prefix sum,
//!   `SparseView::entries_before`) and the boundaries are binary-searched
//!   so every chunk holds the same share of it — GraphBLAST's merge-path
//!   split. On a skewed graph the first half of the rows holds most of the
//!   entries, and an even row cut caps two threads near 1.3×.
//! * **The dispatch.** One descriptor per parallel call: a chunk count, an
//!   atomic cursor, a pending count and the erased chunk body. The calling
//!   thread and the workers of a lazily-created **persistent pool** claim
//!   chunk indices off the cursor until none are left, so a dispatch cut
//!   finer than the thread count rebalances itself, and threads beyond the
//!   hardware never queue chunks behind one worker. Spawning OS threads per
//!   operation costs far more than a typical sparse kernel (~1 ms per spawn
//!   on commodity VMs); small problems stay on the calling thread.
//! * **Panics.** Every chunk runs under `catch_unwind`. The first payload
//!   poisons its dispatch — chunks not yet claimed are skipped — and the
//!   calling thread resumes the unwind once the chunks in flight have
//!   finished. Workers survive, so the next dispatch finds the pool whole.

use crate::monoid::{fold, Monoid};
use crate::trace;
use crate::types::{Index, Scalar};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// Work (in stored entries touched) below which kernels run sequentially.
/// Calibrated against the pool's dispatch latency: below this, sequential
/// execution wins outright.
pub const PAR_THRESHOLD: usize = 1 << 17;

static THRESHOLD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Override the sequential-cutoff work estimate (0 restores the default
/// [`PAR_THRESHOLD`]). Intended for tests and benchmarks that need to
/// force the parallel paths on small inputs; production code should leave
/// the calibrated default alone.
pub fn set_par_threshold(n: usize) {
    THRESHOLD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The current sequential-cutoff work estimate.
pub fn par_threshold() -> usize {
    match THRESHOLD_OVERRIDE.load(Ordering::Relaxed) {
        0 => PAR_THRESHOLD,
        n => n,
    }
}

/// Polls of the publish counter an idle worker makes before it parks —
/// about a millisecond (a poll is ≈ 16 ns on the 2-vCPU sizing guest).
/// Iterative algorithms dispatch every millisecond or two (Δ-stepping's
/// parallel ops come ≈ 1.4 ms apart), and waking a parked worker costs
/// 4–10 µs there when the host is quiet but ≈ 1 ms once the hypervisor has
/// descheduled the idle vCPU; a worker that is usually still polling when
/// the next dispatch arrives pays neither, and an idle library stops
/// burning the core after a millisecond (EXPERIMENTS.md §P17).
const WORKER_SPIN: usize = 1 << 16;

/// Polls of `pending` the dispatching thread makes for the chunks still
/// in flight before it parks. Chunks cut by work and claimed off a cursor
/// end close together, so the wait is usually shorter than a park/unpark
/// round trip; past a millisecond the thread it waits for has lost its
/// core, and spinning can only keep it from getting one back.
const CALLER_SPIN: usize = 1 << 16;

/// Chunks per thread of a [`Chunking::Oversplit`] dispatch: enough for the
/// cursor to even out per-entry costs the weights cannot see, few enough
/// that per-chunk set-up (scratch rows, output lists) stays negligible.
const OVERSPLIT: usize = 4;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on pool workers for good and on a dispatching thread while it
    /// runs chunks, so a `par_chunks` call from inside a chunk degrades
    /// to sequential execution instead of waiting on the pool it occupies.
    static IN_DISPATCH: Cell<bool> = const { Cell::new(false) };
}

/// Set the number of worker threads kernels may use (0 = auto, the
/// hardware parallelism). The analogue of `GxB_Global_Option_set
/// (GxB_NTHREADS)`. The pool grows to match at the next parallel call.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The number of worker threads kernels will use. When no in-process
/// override is set, the `GRAPHBLAS_THREADS` environment variable (read
/// once) caps the count — the hook CI uses to run the whole suite
/// single-threaded without touching test code.
pub fn threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o != 0 {
        return o;
    }
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        crate::env::var("GRAPHBLAS_THREADS", "a positive integer", parse_threads)
            .unwrap_or_else(hardware)
    })
}

/// A `GRAPHBLAS_THREADS` value: unparsable or zero is invalid, and falls
/// back to the hardware parallelism after [`crate::env::var`]'s warning.
fn parse_threads(v: &str) -> Option<usize> {
    v.parse().ok().filter(|&n| n > 0)
}

/// `available_parallelism` is a syscall (expensive on virtualized hosts);
/// resolved once.
fn hardware() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Whether waiting threads may spin: only while every thread the library
/// runs has a core of its own. Oversubscribed, a spinning thread holds
/// the core the thread it waits for needs, so everyone parks at once.
fn may_spin() -> bool {
    threads() <= hardware()
}

// ---------------------------------------------------------------------------
// The dispatcher
// ---------------------------------------------------------------------------

/// The erased body of a dispatch: `run(k)` computes chunk `k` and stores
/// its result in slot `k`.
type ChunkFn = dyn Fn(usize) + Sync;

/// One parallel call, shared between the dispatching thread and whichever
/// workers pick it up.
struct Dispatch {
    nchunks: usize,
    /// The cursor: `fetch_add` hands out chunk indices, and a value of
    /// `nchunks` or more means none are left.
    next: AtomicUsize,
    /// Chunks not yet finished — run, skipped after a poison, or panicked.
    pending: AtomicUsize,
    /// Borrows the dispatching thread's stack; see the SAFETY argument in
    /// [`run_cut`] for when it may be dereferenced.
    run: *const ChunkFn,
    /// Set with the first panic: chunks claimed afterwards are skipped.
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The dispatching thread, parked in [`Dispatch::wait`].
    caller: std::thread::Thread,
}

// SAFETY: `run` is the only field that is not `Send + Sync` by itself. It
// points at a `Sync` closure, so calling it through a shared reference from
// several threads is sound; that the pointee is alive whenever it is called
// is the argument in `run_cut`. CI's AddressSanitizer job runs the lib
// tests, `tests/pool_panic.rs`, `tests/concurrency.rs` (several threads
// dispatching at once) and lagraph's `lagc_service` with workers sharing
// a `Dispatch`; a use after its frame is gone would be reported there.
unsafe impl Send for Dispatch {}
unsafe impl Sync for Dispatch {}

impl Dispatch {
    /// Chunks nobody has claimed yet (a hint: claims race with the read).
    fn unclaimed(&self) -> usize {
        self.nchunks.saturating_sub(self.next.load(Ordering::Relaxed))
    }

    /// Claim and run chunks until the cursor runs out.
    fn help(&self, is_caller: bool) {
        loop {
            // Relaxed: the cursor only hands out distinct indices; what a
            // chunk reads was published by the pool queue's lock, what it
            // writes by the `pending` decrement below.
            let k = self.next.fetch_add(1, Ordering::Relaxed);
            if k >= self.nchunks {
                return;
            }
            if !self.poisoned.load(Ordering::Relaxed) {
                // SAFETY: chunk `k` is claimed and `pending` still counts
                // it, so the dispatching thread has not left `run_cut`,
                // which owns everything `run` borrows. `tests/pool_panic.rs`
                // holds that protocol when a chunk panics, and the
                // AddressSanitizer job runs it with that suite and
                // `tests/concurrency.rs` (see the `Send`/`Sync` impls).
                let run = unsafe { &*self.run };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(k))) {
                    self.poisoned.store(true, Ordering::Relaxed);
                    // An `Option` assignment cannot leave the slot torn.
                    self.panic
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .get_or_insert(payload);
                }
            }
            // Release pairs with the Acquire loads in `wait`: a caller that
            // reads 0 sees every chunk's slot. After the decrement that
            // reaches 0 only fields the `Arc` owns are touched.
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 && !is_caller {
                self.caller.unpark();
            }
        }
    }

    /// Block the dispatching thread until every chunk has finished.
    fn wait(&self) {
        if may_spin() {
            for _ in 0..CALLER_SPIN {
                if self.pending.load(Ordering::Acquire) == 0 {
                    return;
                }
                std::hint::spin_loop();
            }
        }
        while self.pending.load(Ordering::Acquire) != 0 {
            // The thread that finishes the last chunk unparks us; a token
            // left by an earlier dispatch only costs one more loop.
            std::thread::park();
        }
    }
}

/// The dispatches that may still hold unclaimed chunks, oldest first, and
/// the number of workers asleep on [`Pool::wake`].
#[derive(Default)]
struct Open {
    queue: VecDeque<Arc<Dispatch>>,
    parked: usize,
}

impl Open {
    /// The oldest dispatch with chunks left, dropping drained ones.
    fn front(&mut self) -> Option<&Arc<Dispatch>> {
        while self.queue.front().is_some_and(|d| d.unclaimed() == 0) {
            self.queue.pop_front();
        }
        self.queue.front()
    }
}

struct Pool {
    open: Mutex<Open>,
    wake: Condvar,
    /// Bumped by every publish: what an idle worker spins on.
    published: AtomicUsize,
    /// Worker threads spawned so far (the `graphblas_pool_workers` gauge).
    workers: AtomicUsize,
}

impl Pool {
    /// No code that can panic runs under this lock.
    fn open(&self) -> std::sync::MutexGuard<'_, Open> {
        self.open.lock().expect("pool queue lock is never held across a panic")
    }

    /// Spawn workers until there are `want`. A thread the OS refuses is
    /// not fatal: the dispatching thread claims whatever nobody else does.
    fn grow(&'static self, want: usize) {
        if self.workers.load(Ordering::Relaxed) >= want {
            return;
        }
        let _serialized = self.open();
        for k in self.workers.load(Ordering::Relaxed)..want {
            let spawned = std::thread::Builder::new()
                .name(format!("graphblas-worker-{k}"))
                .spawn(move || self.work());
            if let Err(e) = spawned {
                trace::warn_once("pool.spawn", &format!("cannot spawn pool worker {k}: {e}"));
                return;
            }
            self.workers.store(k + 1, Ordering::Relaxed);
        }
    }

    /// Make `d` claimable and wake one parked worker for it. A worker that
    /// picks up a dispatch with chunks to spare wakes the next one
    /// ([`Pool::work`]), so the waking spreads over the pool instead of
    /// delaying the dispatching thread, and stops as soon as the chunks run
    /// out — a dispatch of tiny chunks costs its caller one wake, not one
    /// per worker.
    fn publish(&self, d: &Arc<Dispatch>) {
        let parked = {
            let mut open = self.open();
            open.front();
            open.queue.push_back(d.clone());
            // Release pairs with the Acquire load in `work`: a spinning
            // worker that sees the bump finds `d` in the queue.
            self.published.fetch_add(1, Ordering::Release);
            open.parked
        };
        if parked > 0 {
            self.wake.notify_one();
        }
    }

    /// A worker's life: help the oldest open dispatch; with none open,
    /// spin briefly for the next publish, then park.
    fn work(&self) {
        IN_DISPATCH.with(|f| f.set(true));
        loop {
            let seen = self.published.load(Ordering::Acquire);
            let (claimed, wake_next) = {
                let mut open = self.open();
                let parked = open.parked;
                match open.front() {
                    Some(d) => (Some(d.clone()), parked > 0 && d.unclaimed() > 1),
                    None => (None, false),
                }
            };
            if wake_next {
                self.wake.notify_one();
            }
            if let Some(d) = claimed {
                d.help(false);
                continue;
            }
            if may_spin()
                && (0..WORKER_SPIN).any(|_| {
                    std::hint::spin_loop();
                    self.published.load(Ordering::Relaxed) != seen
                })
            {
                continue;
            }
            let mut open = self.open();
            while open.front().is_none() {
                open.parked += 1;
                open = self.wake.wait(open).expect("pool queue lock is never held across a panic");
                open.parked -= 1;
            }
        }
    }
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        crate::metrics::gauge_fn(
            "graphblas_pool_workers",
            "Worker threads in the persistent kernel pool (excludes the calling thread).",
            &[],
            || Some(pool().workers.load(Ordering::Relaxed) as f64),
        );
        Pool {
            open: Mutex::default(),
            wake: Condvar::new(),
            published: AtomicUsize::new(0),
            workers: AtomicUsize::new(0),
        }
    })
}

// ---------------------------------------------------------------------------
// Cuts
// ---------------------------------------------------------------------------

/// The thread count a call over `n` items and `est_work` may fan out to:
/// 1 keeps it on the calling thread.
pub(crate) fn fanout(n: usize, est_work: usize) -> usize {
    let nt = threads();
    if nt <= 1 || n <= 1 || est_work < par_threshold() || IN_DISPATCH.with(Cell::get) {
        1
    } else {
        nt
    }
}

/// Boundaries (`0`, …, `n`, strictly increasing) cutting `0..n` into at
/// most `parts` equal chunks whose length is a multiple of `align`.
pub(crate) fn uniform_cut(n: usize, parts: usize, align: usize) -> Vec<usize> {
    let chunk = n.div_ceil(parts.clamp(1, n.max(1))).next_multiple_of(align).max(1);
    let mut bounds: Vec<usize> = (0..n).step_by(chunk).collect();
    bounds.push(n);
    bounds
}

/// Boundaries (`0`, …, `n`, strictly increasing) cutting `0..n` into at
/// most `parts` chunks of equal *work*: `before(i)` is the cumulative work
/// of the items before `i` (non-decreasing, defined on `0..=n`), and
/// boundary `p` is the first `i` with `before(i) ≥ p/parts` of the total,
/// found by binary search — the merge-path split over a prefix sum.
/// Inner boundaries are rounded up to a multiple of `align`; a cut that
/// lands on its predecessor is dropped, so heavy items and `n < parts`
/// yield fewer chunks, never an empty one.
pub(crate) fn weighted_cut(
    n: usize,
    parts: usize,
    align: usize,
    before: impl Fn(usize) -> usize,
) -> Vec<usize> {
    let total = before(n) as u128;
    let mut bounds = vec![0];
    for p in 1..parts {
        let target = (total * p as u128 / parts as u128) as usize;
        let (mut lo, mut hi) = (bounds[bounds.len() - 1], n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let b = lo.next_multiple_of(align);
        if b > bounds[bounds.len() - 1] && b < n {
            bounds.push(b);
        }
    }
    if n > 0 {
        bounds.push(n);
    }
    bounds
}

/// The running sums `0, l₀, l₀ + l₁, …` of `lens`: the `before` of a
/// weighted cut whose items have no prefix sum lying around (a frontier's
/// rows, a mask's rows). Callers build it lazily, behind a `OnceCell`, so
/// a call that stays sequential never pays the pass.
pub(crate) fn prefix_sums(lens: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut sum = 0;
    std::iter::once(0)
        .chain(lens.map(|len| {
            sum += len;
            sum
        }))
        .collect()
}

/// How finely a weighted dispatch cuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chunking {
    /// One chunk per thread: for kernels whose per-chunk set-up costs as
    /// much as the output is long (the push's dense accumulator).
    PerThread,
    /// Several chunks per thread, claimed through the cursor, so uneven
    /// per-entry costs the weights cannot see even out. For kernels whose
    /// chunks write disjoint output rows and set up in O(1).
    Oversplit,
}

impl Chunking {
    /// The chunk count a cut over `nt` threads aims at.
    pub(crate) fn parts(self, nt: usize) -> usize {
        match self {
            Chunking::PerThread => nt,
            Chunking::Oversplit => nt * OVERSPLIT,
        }
    }
}

/// Run `work(k, bounds[k]..bounds[k + 1])` for every chunk of the cut and
/// return the results in chunk order. One chunk runs where it stands;
/// more go through the pool, the calling thread claiming beside the
/// workers. A chunk that panics poisons the dispatch, and the panic
/// resumes on the calling thread once the chunks in flight are done.
pub(crate) fn run_cut<R: Send>(
    bounds: &[usize],
    est_work: usize,
    work: impl Fn(usize, Range<usize>) -> R + Sync,
) -> Vec<R> {
    let nchunks = bounds.len().saturating_sub(1);
    trace::dispatch(nchunks.max(1), est_work);
    if nchunks <= 1 || IN_DISPATCH.with(Cell::get) {
        return (0..nchunks).map(|k| work(k, bounds[k]..bounds[k + 1])).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..nchunks).map(|_| Mutex::new(None)).collect();
    let run = |k: usize| {
        let range = bounds[k]..bounds[k + 1];
        let mut cs = trace::runtime_span("chunk");
        cs.arg("k", k);
        cs.arg("len", range.len());
        let r = work(k, range);
        drop(cs);
        *slots[k].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
    };
    let run: &(dyn Fn(usize) + Sync + '_) = &run;
    // SAFETY: the one lifetime lie of the pool. `run` borrows `work`,
    // `bounds` and `slots` from this frame, and the `Dispatch` that carries
    // the pointer can outlive it inside a worker's `Arc`. The pointer is
    // dereferenced only for a chunk claimed below `nchunks`
    // (`Dispatch::help`); `pending` counts that chunk until it has returned
    // or unwound into its `catch_unwind`, and this function does not
    // return — normally or by `resume_unwind` — before `wait` has read
    // `pending == 0`. Nothing between `publish` and `wait` can unwind: the
    // caller's own chunks are caught like any other. The panic test
    // (`tests/pool_panic.rs`) holds the protocol to this: a panicking chunk
    // must neither hang the caller nor leave a worker running a chunk of a
    // frame that is gone.
    let run: *const ChunkFn =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync + '_), &'static ChunkFn>(run) };
    let d = Arc::new(Dispatch {
        nchunks,
        next: AtomicUsize::new(0),
        pending: AtomicUsize::new(nchunks),
        run,
        poisoned: AtomicBool::new(false),
        panic: Mutex::new(None),
        caller: std::thread::current(),
    });
    let p = pool();
    p.grow(threads() - 1);
    p.publish(&d);
    IN_DISPATCH.with(|f| f.set(true));
    d.help(true);
    IN_DISPATCH.with(|f| f.set(false));
    d.wait();
    if let Some(payload) = d.panic.lock().unwrap_or_else(PoisonError::into_inner).take() {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every chunk of an unpoisoned dispatch stored its result")
        })
        .collect()
}

/// Split `0..n` into per-thread ranges of equal length, run `work` on each
/// in parallel, and return the chunk results in range order.
///
/// `est_work` is an estimate of total work items (e.g. total entries to
/// scan); below [`PAR_THRESHOLD`] everything runs on the calling thread.
pub fn par_chunks<R: Send>(
    n: usize,
    est_work: usize,
    work: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    if n == 0 {
        return Vec::new();
    }
    run_cut(&uniform_cut(n, fanout(n, est_work), 1), est_work, |_, r| work(r))
}

/// [`par_chunks`] with the ranges cut by work instead of by count:
/// `before(i)` is the cumulative work of the items before `i`, for `i` in
/// `0..=n` (non-decreasing; it is only called when the call goes
/// parallel). For loops whose cost is the stored entries of the matrix
/// rows they walk — `before` is then the row-pointer prefix sum.
pub fn par_chunks_weighted<R: Send>(
    n: usize,
    est_work: usize,
    chunking: Chunking,
    before: impl Fn(usize) -> usize,
    work: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    if n == 0 {
        return Vec::new();
    }
    let bounds = match fanout(n, est_work) {
        1 => vec![0, n],
        nt => weighted_cut(n, chunking.parts(nt), 1, before),
    };
    run_cut(&bounds, est_work, |_, r| work(r))
}

// ---------------------------------------------------------------------------
// Combining chunk results
// ---------------------------------------------------------------------------

/// K-way merge of per-chunk scatter results: each chunk is a sorted
/// (indices, values) pair produced from a disjoint slice of a partitioned
/// input, and the same output index may appear in several chunks.
/// Duplicates are combined **in chunk order** — ties on the index pop in
/// ascending chunk number — which reproduces the sequential accumulation
/// order for associative monoids, the same determinism argument
/// [`par_reduce`] makes for reductions. For the ANY monoid (`combine`
/// keeps its first operand) the first chunk's value wins, matching the
/// sequential first-touch; a terminal value annihilates every later
/// contribution through `combine` itself.
pub fn merge_scatter_chunks<T: Copy>(
    mut chunks: Vec<(Vec<Index>, Vec<T>)>,
    mut combine: impl FnMut(T, T) -> T,
) -> (Vec<Index>, Vec<T>) {
    if chunks.len() <= 1 {
        return chunks.pop().unwrap_or_default();
    }
    if let [(ai, av), (bi, bv)] = &chunks[..] {
        // Two chunks — every 2-thread push — need no heap: one two-pointer
        // pass, the lower chunk first on a tie.
        let mut out_idx = Vec::with_capacity(ai.len() + bi.len());
        let mut out_val = Vec::with_capacity(ai.len() + bi.len());
        let (mut p, mut q) = (0, 0);
        while p < ai.len() || q < bi.len() {
            let (j, v) = if q == bi.len() || (p < ai.len() && ai[p] < bi[q]) {
                p += 1;
                (ai[p - 1], av[p - 1])
            } else if p == ai.len() || bi[q] < ai[p] {
                q += 1;
                (bi[q - 1], bv[q - 1])
            } else {
                p += 1;
                q += 1;
                (ai[p - 1], combine(av[p - 1], bv[q - 1]))
            };
            out_idx.push(j);
            out_val.push(v);
        }
        return (out_idx, out_val);
    }
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let total: usize = chunks.iter().map(|(i, _)| i.len()).sum();
    // Heap over (next index, chunk number): lexicographic order gives both
    // the global index sort and the chunk-order tie break.
    let mut heap: BinaryHeap<Reverse<(Index, usize)>> = BinaryHeap::with_capacity(chunks.len());
    let mut cursor = vec![0usize; chunks.len()];
    for (c, (ci, _)) in chunks.iter().enumerate() {
        if let Some(&j0) = ci.first() {
            heap.push(Reverse((j0, c)));
        }
    }
    let mut out_idx: Vec<Index> = Vec::with_capacity(total);
    let mut out_val: Vec<T> = Vec::with_capacity(total);
    while let Some(Reverse((j, c))) = heap.pop() {
        let p = cursor[c];
        let v = chunks[c].1[p];
        match out_idx.last() {
            Some(&last) if last == j => {
                let cur = *out_val.last().expect("value for last index");
                *out_val.last_mut().expect("value for last index") = combine(cur, v);
            }
            _ => {
                out_idx.push(j);
                out_val.push(v);
            }
        }
        cursor[c] = p + 1;
        if let Some(&jn) = chunks[c].0.get(p + 1) {
            heap.push(Reverse((jn, c)));
        }
    }
    (out_idx, out_val)
}

/// Shared early-exit flag for [`par_reduce`] leaves: once set, chunks that
/// have not started yet are skipped, and running leaves should return as
/// soon as they observe it.
pub struct EarlyExit(AtomicBool);

impl EarlyExit {
    fn new() -> Self {
        Self(AtomicBool::new(false))
    }

    /// True once some chunk has reached the monoid's terminal value.
    pub fn stop(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    fn set(&self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Chunked tree reduction with a monoid, preserving terminal (early-exit)
/// semantics across chunks.
///
/// `leaf` folds one range of the input (typically with [`fold`], which
/// early-exits *within* the chunk) and returns `None` for an empty range.
/// When a leaf's result is the monoid's terminal value, the shared
/// [`EarlyExit`] flag is set: chunks that have not started return `None`
/// immediately, and long-running leaves can poll `exit.stop()` between
/// rows. Chunk results are combined **in chunk order**, so the result is
/// identical for any thread count:
///
/// * no chunk hit the terminal — every leaf ran in full, and associativity
///   makes the ordered combine equal the sequential fold;
/// * some chunk hit the terminal — the combined result is the terminal
///   value itself (it annihilates every other contribution), so skipped
///   chunks cannot change it.
///
/// The ANY monoid does not set the flag (its "every value is terminal"
/// shortcut is only deterministic within a chunk); its leaves still stop
/// at their first value via [`fold`].
pub fn par_reduce<T, M>(
    n: usize,
    est_work: usize,
    monoid: &M,
    leaf: impl Fn(Range<usize>, &EarlyExit) -> Option<T> + Sync,
) -> Option<T>
where
    T: Scalar,
    M: Monoid<T> + Sync,
{
    let exit = EarlyExit::new();
    let terminal = monoid.terminal();
    let parts = par_chunks(n, est_work, |r| {
        if exit.stop() {
            return None;
        }
        let v = leaf(r, &exit);
        if v.is_some() && v == terminal {
            exit.set();
            trace::early_exit();
        }
        v
    });
    fold(monoid, parts.into_iter().flatten())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_indices_exactly_once() {
        let results = par_chunks(1000, usize::MAX, |r| r.collect::<Vec<_>>());
        let flat: Vec<usize> = results.into_iter().flatten().collect();
        assert_eq!(flat, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn small_work_stays_sequential() {
        let results = par_chunks(100, 10, |r| r.len());
        assert_eq!(results.len(), 1);
        assert_eq!(results[0], 100);
    }

    #[test]
    fn deterministic_order() {
        let a = par_chunks(777, usize::MAX, |r| r.sum::<usize>());
        let b = par_chunks(777, usize::MAX, |r| r.sum::<usize>());
        assert_eq!(a, b);
        let total: usize = a.into_iter().sum();
        assert_eq!(total, 777 * 776 / 2);
    }

    /// The chunks a cut yields, as ranges.
    fn ranges(bounds: &[usize]) -> Vec<Range<usize>> {
        bounds.windows(2).map(|w| w[0]..w[1]).collect()
    }

    /// A prefix-sum `before` over per-item weights.
    fn prefix(weights: &[usize]) -> Vec<usize> {
        prefix_sums(weights.iter().copied())
    }

    #[test]
    fn uniform_cut_reproduces_the_even_split() {
        assert_eq!(uniform_cut(1000, 8, 1), (0..=8).map(|t| t * 125).collect::<Vec<_>>());
        // n < parts: one item per chunk, never an empty one.
        assert_eq!(uniform_cut(3, 8, 1), vec![0, 1, 2, 3]);
        // 10 items over 8 parts round the chunk up to 2: five chunks.
        assert_eq!(uniform_cut(10, 8, 1), vec![0, 2, 4, 6, 8, 10]);
        // Window cuts are whole presence words.
        assert_eq!(uniform_cut(200, 2, 64), vec![0, 128, 200]);
        assert_eq!(uniform_cut(0, 4, 64), vec![0]);
    }

    #[test]
    fn weighted_cut_balances_work_not_items() {
        // 90 % of the work sits in the first tenth of the items — the shape
        // of an RMAT graph's rows. Two chunks must split the work, not the
        // item count.
        let weights: Vec<usize> = (0..100).map(|i| if i < 10 { 90 } else { 1 }).collect();
        let cum = prefix(&weights);
        let bounds = weighted_cut(100, 2, 1, |i| cum[i]);
        assert_eq!(bounds.len(), 3);
        let (left, right) = (cum[bounds[1]], cum[100] - cum[bounds[1]]);
        assert!(left.abs_diff(right) <= 90, "work split {left} / {right}");
        assert!(bounds[1] < 10, "the even split would have cut at 50, got {}", bounds[1]);
    }

    #[test]
    fn weighted_cut_covers_every_item_exactly_once() {
        let weights: Vec<usize> = (0..257).map(|i| (i * 7919) % 13).collect();
        let cum = prefix(&weights);
        for parts in [1, 2, 3, 8, 64, 1000] {
            let bounds = weighted_cut(257, parts, 1, |i| cum[i]);
            assert_eq!((bounds[0], bounds[bounds.len() - 1]), (0, 257), "parts={parts}");
            assert!(bounds.windows(2).all(|w| w[0] < w[1]), "parts={parts}: {bounds:?}");
            assert!(bounds.len() - 1 <= parts, "parts={parts}: {bounds:?}");
        }
    }

    #[test]
    fn weighted_cut_with_empty_rows_and_one_heavy_row() {
        // Empty rows carry no weight; they ride with a neighbour.
        let cum = prefix(&[0, 0, 5, 0, 0, 0, 5, 0]);
        assert_eq!(ranges(&weighted_cut(8, 2, 1, |i| cum[i])), vec![0..3, 3..8]);
        // All weight in one row: the row cannot be split, the rest of the
        // items still land in some chunk.
        let cum = prefix(&[0, 0, 0, 100, 0, 0]);
        let bounds = weighted_cut(6, 4, 1, |i| cum[i]);
        assert_eq!(ranges(&bounds), vec![0..4, 4..6]);
        // No weight at all: one chunk.
        assert_eq!(weighted_cut(6, 4, 1, |_| 0), vec![0, 6]);
        // Fewer items than chunks.
        let cum = prefix(&[3, 3]);
        assert_eq!(weighted_cut(2, 8, 1, |i| cum[i]), vec![0, 1, 2]);
        assert_eq!(weighted_cut(0, 8, 1, |_| 0), vec![0]);
    }

    #[test]
    fn weighted_cut_keeps_window_boundaries_word_aligned() {
        let weights: Vec<usize> = (0..1000).map(|i| if i < 100 { 50 } else { 1 }).collect();
        let cum = prefix(&weights);
        let bounds = weighted_cut(1000, 8, 64, |i| cum[i]);
        assert_eq!((bounds[0], bounds[bounds.len() - 1]), (0, 1000));
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{bounds:?}");
        assert!(bounds[..bounds.len() - 1].iter().all(|b| b % 64 == 0), "{bounds:?}");
    }

    #[test]
    fn weighted_chunks_stitch_in_order_at_any_thread_count() {
        let weights: Vec<usize> = (0..5000).map(|i| 1 + (i % 97) * usize::from(i < 500)).collect();
        let cum = prefix(&weights);
        for chunking in [Chunking::PerThread, Chunking::Oversplit] {
            let got = par_chunks_weighted(
                5000,
                usize::MAX,
                chunking,
                |i| cum[i],
                |r| r.collect::<Vec<_>>(),
            );
            let flat: Vec<usize> = got.into_iter().flatten().collect();
            assert_eq!(flat, (0..5000).collect::<Vec<_>>(), "{chunking:?}");
        }
    }

    #[test]
    fn a_panicking_chunk_reaches_the_caller_and_the_pool_survives() {
        // `pool_panic.rs` holds the full protocol at 8 threads; this is the
        // in-crate smoke at whatever the ambient thread count is.
        let caught = std::panic::catch_unwind(|| {
            run_cut(&[0, 1, 2, 3, 4], usize::MAX, |k, _| {
                if k == 2 {
                    panic!("chunk two");
                }
                k
            })
        });
        if threads() > 1 {
            let payload = caught.expect_err("the panic must surface");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk two"));
        }
        let after = par_chunks(1000, usize::MAX, |r| r.sum::<usize>());
        assert_eq!(after.into_iter().sum::<usize>(), 1000 * 999 / 2);
    }

    #[test]
    fn merge_scatter_two_chunks_match_the_heap_merge() {
        // The two-pointer fast path and the k-way heap must agree; a third,
        // empty chunk forces the heap without changing the answer.
        let a = (vec![0, 2, 7, 9], vec![1i64, 20, 700, 9000]);
        let b = (vec![2, 3, 9, 11], vec![21i64, 30, 9001, 11000]);
        let two = merge_scatter_chunks(vec![a.clone(), b.clone()], |x, y| x * 3 + y);
        let heap = merge_scatter_chunks(vec![a, b, (vec![], vec![])], |x, y| x * 3 + y);
        assert_eq!(two, heap);
        assert_eq!(two.0, vec![0, 2, 3, 7, 9, 11]);
        assert_eq!(two.1, vec![1, 20 * 3 + 21, 30, 700, 9000 * 3 + 9001, 11000]);
    }

    #[test]
    fn empty_input() {
        let results = par_chunks(0, usize::MAX, |_| 1);
        assert!(results.is_empty());
    }

    #[test]
    fn thread_override_round_trips() {
        let before = threads();
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
        let _ = before;
    }

    #[test]
    fn invalid_threads_env_warns_and_falls_back_to_auto() {
        let env =
            |raw| crate::env::check("GRAPHBLAS_THREADS", raw, "a positive integer", parse_threads);
        assert_eq!(env(None), None);
        assert_eq!(env(Some("4")), Some(4));
        assert_eq!(env(Some(" 8 ")), Some(8));
        // Invalid values return None (→ hardware parallelism) after the
        // one-shot diagnostic instead of being silently ignored.
        assert_eq!(env(Some("0")), None);
        assert_eq!(env(Some("-2")), None);
        assert_eq!(env(Some("lots")), None);
    }

    #[test]
    fn pool_is_reused_across_many_calls() {
        // Thousands of parallel calls must not exhaust thread resources
        // (they would if each call spawned OS threads).
        for round in 0..2000 {
            let s: usize = par_chunks(64, usize::MAX, |r| r.sum::<usize>()).into_iter().sum();
            assert_eq!(s, 64 * 63 / 2, "round {round}");
        }
    }

    #[test]
    fn nested_calls_degrade_gracefully() {
        let outer = par_chunks(8, usize::MAX, |r| {
            // Inner call from a pool worker must not deadlock.
            let inner: usize = par_chunks(100, usize::MAX, |q| q.sum::<usize>()).into_iter().sum();
            (r.len(), inner)
        });
        for (_, inner) in outer {
            assert_eq!(inner, 100 * 99 / 2);
        }
    }

    #[test]
    fn results_preserve_borrowed_data() {
        let data: Vec<u64> = (0..10_000).collect();
        let chunks = par_chunks(data.len(), usize::MAX, |r| data[r].iter().sum::<u64>());
        let total: u64 = chunks.into_iter().sum();
        assert_eq!(total, 10_000 * 9_999 / 2);
    }

    #[test]
    fn par_reduce_matches_sequential_fold() {
        use crate::binaryop::Plus;
        let data: Vec<i64> = (1..=10_000).collect();
        let got =
            par_reduce(data.len(), usize::MAX, &Plus, |r, _| fold(&Plus, data[r].iter().copied()));
        assert_eq!(got, fold(&Plus, data.iter().copied()));
    }

    #[test]
    fn par_reduce_empty_is_none() {
        use crate::binaryop::Plus;
        let got: Option<i64> = par_reduce(0, usize::MAX, &Plus, |_, _| None);
        assert_eq!(got, None);
    }

    #[test]
    fn par_reduce_terminal_early_exit_under_parallel_execution() {
        use crate::binaryop::Min;
        // A terminal value near the front: the first chunk reaches it and
        // every later chunk may be skipped; the result must still be the
        // terminal value exactly.
        let mut data: Vec<i64> = (1..=100_000).collect();
        data[3] = i64::MIN;
        let got = par_reduce(data.len(), usize::MAX, &Min, |r, exit| {
            if exit.stop() {
                return None;
            }
            fold(&Min, data[r].iter().copied())
        });
        assert_eq!(got, Some(i64::MIN));
    }

    #[test]
    fn par_reduce_identical_across_thread_counts() {
        use crate::binaryop::{Lor, Max};
        let bools: Vec<bool> = (0..40_000).map(|i| i == 31_999).collect();
        let nums: Vec<i64> = (0..40_000).map(|i| (i as i64 * 37) % 1001).collect();
        let run = || {
            let a = par_reduce(bools.len(), usize::MAX, &Lor, |r, exit| {
                if exit.stop() {
                    return None;
                }
                fold(&Lor, bools[r].iter().copied())
            });
            let b = par_reduce(nums.len(), usize::MAX, &Max, |r, exit| {
                if exit.stop() {
                    return None;
                }
                fold(&Max, nums[r].iter().copied())
            });
            (a, b)
        };
        let before = threads();
        set_threads(1);
        let seq = run();
        set_threads(8);
        let par = run();
        set_threads(if before == 0 { 0 } else { before });
        assert_eq!(seq, par);
        assert_eq!(seq.0, Some(true));
        assert_eq!(seq.1, Some(1000));
    }

    #[test]
    fn merge_scatter_handles_trivial_inputs() {
        let empty: Vec<(Vec<Index>, Vec<i64>)> = Vec::new();
        assert_eq!(merge_scatter_chunks(empty, |a, b| a + b), (vec![], vec![]));
        let one = vec![(vec![1, 5], vec![10i64, 50])];
        assert_eq!(merge_scatter_chunks(one, |a, b| a + b), (vec![1, 5], vec![10, 50]));
    }

    #[test]
    fn merge_scatter_combines_overlaps_like_the_sequential_fold() {
        // Three chunks with overlapping indices; the merged result must
        // equal folding all entries in (index, chunk) order.
        let chunks = vec![
            (vec![0, 2, 7], vec![1i64, 20, 700]),
            (vec![2, 3], vec![21i64, 30]),
            (vec![0, 2, 9], vec![2i64, 22, 900]),
        ];
        let (idx, val) = merge_scatter_chunks(chunks, |a, b| a + b);
        assert_eq!(idx, vec![0, 2, 3, 7, 9]);
        assert_eq!(val, vec![1 + 2, 20 + 21 + 22, 30, 700, 900]);
    }

    #[test]
    fn merge_scatter_ties_resolve_in_chunk_order() {
        // A non-commutative combine exposes the fold order: ties on an
        // index must pop in ascending chunk number, reproducing the order
        // a sequential scatter over the concatenated chunks would use.
        let chunks = vec![(vec![4], vec!["a"]), (vec![4], vec!["b"]), (vec![4], vec!["c"])];
        let (idx, val) = merge_scatter_chunks(chunks, |a, b| {
            // "first operand wins" models the ANY monoid; with chunk-order
            // ties this keeps chunk 0's value, the sequential first touch.
            let _ = b;
            a
        });
        assert_eq!(idx, vec![4]);
        assert_eq!(val, vec!["a"]);
    }
}
