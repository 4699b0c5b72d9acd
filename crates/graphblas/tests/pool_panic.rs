//! A kernel that panics inside a pool chunk must fail closed: the thread
//! that dispatched it sees the panic — the original payload — once the
//! chunks already in flight have finished, no thread is left waiting, and
//! the *same* pool runs the next dispatch correctly.
//!
//! Each scenario runs under a watchdog, because the failure this guards
//! against is a hang: before the dispatcher caught panics, a panicking
//! chunk killed its worker, the caller span forever on a count that could
//! no longer reach zero, and every later dispatch died on a closed channel.
//!
//! This is also the test the pool's one `unsafe` lifetime argument leans
//! on (`parallel::run_cut`): the caller may only unwind out of a dispatch
//! after every claimed chunk has returned.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use graphblas::binaryop::Plus;
use graphblas::monoid::fold;
use graphblas::ops::{mxv, NOACC};
use graphblas::parallel::{par_chunks, par_reduce, set_par_threshold, set_threads};
use graphblas::{Descriptor, Matrix, Semiring, Vector};

const WATCHDOG: Duration = Duration::from_secs(30);

/// The thread count and the cutoff are process-wide.
static GLOBALS: Mutex<()> = Mutex::new(());

/// Run `scenario` at 8 threads with every dispatch forced parallel, on a
/// thread of its own, and fail if it has not finished within the watchdog.
fn at_8_threads_or_hang(name: &str, scenario: impl FnOnce() + Send + 'static) {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    set_threads(8);
    set_par_threshold(1);
    let (done, finished) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(scenario));
        let _ = done.send(outcome);
    });
    let outcome = finished.recv_timeout(WATCHDOG);
    set_threads(0);
    set_par_threshold(0);
    match outcome {
        Ok(Ok(())) => runner.join().expect("runner thread"),
        Ok(Err(payload)) => std::panic::resume_unwind(payload),
        Err(_) => panic!("{name}: a panicking chunk hung its dispatcher (watchdog {WATCHDOG:?})"),
    }
}

/// What `catch_unwind` caught, as text.
fn message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string payload>".into())
}

#[test]
fn par_chunks_panic_reaches_the_caller_and_the_pool_survives() {
    at_8_threads_or_hang("par_chunks", || {
        for round in 0..50 {
            // Eight items over eight threads: chunk k is item k.
            let started = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                par_chunks(8, usize::MAX, |r| {
                    started.fetch_add(1, Ordering::Relaxed);
                    if r.start == 3 {
                        panic!("chunk 3 of 8, round {round}");
                    }
                    r.sum::<usize>()
                })
            }));
            let payload = caught.expect_err("the dispatcher must see the chunk's panic");
            assert_eq!(message(&*payload), format!("chunk 3 of 8, round {round}"));
            // Chunks claimed after the poison are skipped, never re-run.
            assert!((1..=8).contains(&started.load(Ordering::Relaxed)));

            // The next dispatch on the same pool: right answer, all chunks.
            let parts = par_chunks(8000, usize::MAX, |r| r.sum::<usize>());
            assert_eq!(parts.len(), 8, "round {round}");
            assert_eq!(parts.into_iter().sum::<usize>(), 8000 * 7999 / 2, "round {round}");
        }
    });
}

#[test]
fn a_typed_payload_survives_the_hand_over() {
    #[derive(Debug, PartialEq)]
    struct KernelFault(u32);
    at_8_threads_or_hang("typed payload", || {
        let caught = catch_unwind(|| {
            par_chunks(8, usize::MAX, |r| {
                if r.start == 3 {
                    std::panic::panic_any(KernelFault(17));
                }
            })
        });
        let payload = caught.expect_err("the dispatcher must see the chunk's panic");
        assert_eq!(payload.downcast_ref::<KernelFault>(), Some(&KernelFault(17)));
    });
}

#[test]
fn every_chunk_panicking_still_yields_one_panic() {
    at_8_threads_or_hang("all chunks panic", || {
        let caught = catch_unwind(|| par_chunks(8, usize::MAX, |r| panic!("chunk {}", r.start)));
        let text = message(&*caught.expect_err("a panic must surface"));
        assert!(text.starts_with("chunk "), "first payload wins, got {text:?}");
        assert_eq!(par_chunks(64, usize::MAX, |r| r.len()).into_iter().sum::<usize>(), 64);
    });
}

#[test]
fn par_reduce_panic_reaches_the_caller_and_the_pool_survives() {
    at_8_threads_or_hang("par_reduce", || {
        let data: Vec<i64> = (1..=8000).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_reduce(data.len(), usize::MAX, &Plus, |r, _| {
                if r.contains(&3500) {
                    panic!("leaf over {}..{}", r.start, r.end);
                }
                fold(&Plus, data[r].iter().copied())
            })
        }));
        assert_eq!(message(&*caught.expect_err("leaf panic")), "leaf over 3000..4000");
        let sum =
            par_reduce(data.len(), usize::MAX, &Plus, |r, _| fold(&Plus, data[r].iter().copied()));
        assert_eq!(sum, Some(8000 * 8001 / 2));
    });
}

/// A pull `mxv` writes its result through full-length windows
/// (`par_windows`, crate-private): a multiply that panics on one row's
/// value panics inside a window chunk.
#[test]
fn a_panicking_multiply_inside_a_window_kernel_fails_closed() {
    at_8_threads_or_hang("par_windows", || {
        const N: usize = 512;
        const POISON: f64 = -1.0;
        // A band matrix: every row occupied, so the pull takes the window
        // arm. Row 200 carries the value the multiply refuses.
        let mut tuples = Vec::new();
        for i in 0..N {
            for d in 0..4 {
                let x = if i == 200 && d == 0 { POISON } else { 1.0 + d as f64 };
                tuples.push((i, (i + d * 7) % N, x));
            }
        }
        let a = Matrix::from_tuples(N, N, tuples, |_, b| b).expect("a");
        let u = Vector::dense(N, 2.0).expect("u");
        let touchy = |a: f64, u: f64| {
            if a == POISON {
                panic!("multiply refused {a}");
            }
            a * u
        };
        let mut w = Vector::<f64>::new(N).expect("w");
        let caught = catch_unwind(AssertUnwindSafe(|| {
            mxv(&mut w, None, NOACC, &Semiring::new(Plus, touchy), &a, &u, &Descriptor::default())
        }));
        assert_eq!(message(&*caught.expect_err("multiply panic")), "multiply refused -1");

        // Same pool, same operands, a multiply that accepts everything:
        // the answer the sequential kernel gives.
        let calm = |a: f64, u: f64| a.abs() * u;
        let mut par = Vector::<f64>::new(N).expect("par");
        mxv(&mut par, None, NOACC, &Semiring::new(Plus, calm), &a, &u, &Descriptor::default())
            .expect("mxv after the panic");
        set_threads(1);
        let mut seq = Vector::<f64>::new(N).expect("seq");
        mxv(&mut seq, None, NOACC, &Semiring::new(Plus, calm), &a, &u, &Descriptor::default())
            .expect("sequential mxv");
        set_threads(8);
        assert_eq!(par.extract_tuples(), seq.extract_tuples());
        assert_eq!(par.nvals(), N);
    });
}
