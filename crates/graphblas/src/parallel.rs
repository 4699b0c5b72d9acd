//! Data-parallel helpers for the compute kernels.
//!
//! Kernels are parallelized over contiguous ranges of output vectors (rows
//! for CSR results): each worker produces an independent chunk which is
//! stitched deterministically afterwards, so results are identical
//! regardless of thread count.
//!
//! Work is dispatched to a lazily-created **persistent worker pool** —
//! spawning OS threads per operation costs far more than a typical sparse
//! kernel (measured ~1 ms per spawn on commodity VMs), which would erase
//! the benefit entirely. Small problems stay on the calling thread.

use crate::monoid::{fold, Monoid};
use crate::trace;
use crate::types::{Index, Scalar};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, OnceLock};

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

/// Iterations a worker spins on `try_recv` before parking in a blocking
/// receive. Keeps dispatch latency in the microsecond range when kernels
/// arrive back-to-back (the common case in iterative algorithms) without
/// burning CPU when the library is idle.
const WORKER_SPIN: usize = 1 << 14;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set inside pool workers so nested `par_chunks` calls degrade to
    /// sequential execution instead of deadlocking on the pool.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Set the number of worker threads kernels may use (0 = auto, the
/// hardware parallelism). The analogue of `GxB_Global_Option_set
/// (GxB_NTHREADS)`.
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
    // `available_parallelism` is a syscall (expensive on virtualized
    // hosts); resolve it — and the environment hook — once.
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        crate::env::var("GRAPHBLAS_THREADS", "a positive integer", parse_threads)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    })
}

/// A `GRAPHBLAS_THREADS` value: unparsable or zero is invalid, and falls
/// back to the hardware parallelism after [`crate::env::var`]'s warning.
fn parse_threads(v: &str) -> Option<usize> {
    v.parse().ok().filter(|&n| n > 0)
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    senders: Vec<mpsc::Sender<Job>>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let nworkers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .saturating_sub(1)
            .max(1);
        crate::metrics::gauge_fn(
            "graphblas_pool_workers",
            "Worker threads in the persistent kernel pool (excludes the calling thread).",
            &[],
            move || Some(nworkers as f64),
        );
        let senders = (0..nworkers)
            .map(|k| {
                let (tx, rx) = mpsc::channel::<Job>();
                std::thread::Builder::new()
                    .name(format!("graphblas-worker-{k}"))
                    .spawn(move || {
                        IN_WORKER.with(|w| w.set(true));
                        'outer: loop {
                            // Spin briefly for the next job, then park.
                            for _ in 0..WORKER_SPIN {
                                match rx.try_recv() {
                                    Ok(job) => {
                                        job();
                                        continue 'outer;
                                    }
                                    Err(mpsc::TryRecvError::Empty) => std::hint::spin_loop(),
                                    Err(mpsc::TryRecvError::Disconnected) => break 'outer,
                                }
                            }
                            match rx.recv() {
                                Ok(job) => job(),
                                Err(_) => break,
                            }
                        }
                    })
                    .expect("spawn pool worker");
                tx
            })
            .collect();
        Pool { senders }
    })
}

/// Split `0..n` into per-thread ranges, run `work` on each in parallel,
/// and return the chunk results in range order.
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
    let nt = threads();
    let nested = IN_WORKER.with(|w| w.get());
    if nt <= 1 || est_work < par_threshold() || n == 1 || nested {
        trace::dispatch(1, est_work);
        return vec![work(0..n)];
    }
    let nchunks = nt.min(n);
    let chunk = n.div_ceil(nchunks);
    let ranges: Vec<Range<usize>> = (0..nchunks)
        .map(|t| (t * chunk)..((t + 1) * chunk).min(n))
        .filter(|r| !r.is_empty())
        .collect();
    trace::dispatch(ranges.len(), est_work);
    let p = pool();
    let slots: Vec<Mutex<Option<R>>> = (0..ranges.len()).map(|_| Mutex::new(None)).collect();
    let pending = AtomicUsize::new(ranges.len() - 1);
    // Chunks 1.. go to the pool; chunk 0 runs on the calling thread.
    for (k, range) in ranges.iter().enumerate().skip(1) {
        let work_ref = &work;
        let slot = &slots[k];
        let pending_ref = &pending;
        let range = range.clone();
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            let mut cs = trace::runtime_span("chunk");
            cs.arg("k", k);
            cs.arg("len", range.len());
            *slot.lock().expect("slot lock") = Some(work_ref(range));
            drop(cs);
            pending_ref.fetch_sub(1, Ordering::Release);
        });
        // SAFETY: the spin-wait below blocks until every submitted job
        // has run to completion (each job decrements `pending` last), so
        // the borrows of `work`, `slots`, and `pending` inside the job
        // never outlive this function — the classic scoped-pool argument.
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
        p.senders[(k - 1) % p.senders.len()].send(job).expect("pool worker alive");
    }
    let first = {
        let mut cs = trace::runtime_span("chunk");
        cs.arg("k", 0usize);
        cs.arg("len", ranges[0].len());
        work(ranges[0].clone())
    };
    // Chunks are balanced, so the remaining wait is short: spin rather
    // than park (parking costs ~1 ms on some virtualized hosts).
    let mut spins = 0u32;
    while pending.load(Ordering::Acquire) != 0 {
        std::hint::spin_loop();
        spins += 1;
        if spins.is_multiple_of(1 << 16) {
            std::thread::yield_now();
        }
    }
    let mut out = Vec::with_capacity(ranges.len());
    out.push(first);
    for slot in slots.into_iter().skip(1) {
        out.push(slot.into_inner().expect("slot lock").expect("worker completed its chunk"));
    }
    out
}

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
