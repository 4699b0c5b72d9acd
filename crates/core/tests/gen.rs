//! Determinism and distribution tests for the seeded workload
//! generators (`lagraph::gen`).
//!
//! The headline guarantee under test: the generated matrix is a pure
//! function of `(workload, scale, edge_factor, seed)` — **independent of
//! the thread count**. The tests force the parallel path on small inputs
//! by lowering the pool's work threshold, then generate each workload
//! under 1 thread and under 8 and assert the extracted tuple lists are
//! bit-identical.

use lagraph::gen::{
    erdos_renyi, erdos_renyi_weighted, rmat, rmat_weighted, uniform_degree,
    uniform_degree_undirected, RmatConfig, Workload,
};

/// Run `f` with the pool forced into parallel mode (threshold 1) at the
/// given thread override, restoring both globals afterwards. The globals
/// are process-wide, so everything funnels through one mutex.
fn with_threads<R>(nthreads: usize, f: impl FnOnce() -> R) -> R {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    graphblas::parallel::set_par_threshold(1);
    graphblas::parallel::set_threads(nthreads);
    let r = f();
    graphblas::parallel::set_threads(0);
    graphblas::parallel::set_par_threshold(0);
    r
}

/// Assert `gen()` produces bit-identical tuples on 1 thread and on 8.
fn assert_thread_independent<T: PartialEq + std::fmt::Debug + Copy>(
    label: &str,
    gen: impl Fn() -> Vec<(usize, usize, T)>,
) {
    let seq = with_threads(1, &gen);
    let par = with_threads(8, &gen);
    assert!(!seq.is_empty(), "{label}: generator produced an empty graph");
    assert_eq!(seq, par, "{label}: tuples differ between 1 and 8 threads");
}

#[test]
fn rmat_is_thread_count_independent() {
    let cfg = RmatConfig { scale: 8, edge_factor: 8, seed: 7, ..Default::default() };
    assert_thread_independent("rmat", || rmat(&cfg).expect("rmat").extract_tuples());
}

#[test]
fn rmat_weighted_is_thread_count_independent() {
    let cfg = RmatConfig { scale: 8, edge_factor: 8, seed: 7, ..Default::default() };
    // f64 equality is exact here: identical draws produce identical bits.
    assert_thread_independent("rmat_weighted", || {
        rmat_weighted(&cfg, 255)
            .expect("rmat_weighted")
            .extract_tuples()
            .into_iter()
            .map(|(i, j, w)| (i, j, w.to_bits()))
            .collect()
    });
}

#[test]
fn erdos_renyi_is_thread_count_independent() {
    assert_thread_independent("erdos_renyi", || {
        erdos_renyi(256, 2048, 11).expect("er").extract_tuples()
    });
    assert_thread_independent("erdos_renyi_weighted", || {
        erdos_renyi_weighted(256, 2048, 100, 11)
            .expect("er weighted")
            .extract_tuples()
            .into_iter()
            .map(|(i, j, w)| (i, j, w.to_bits()))
            .collect()
    });
}

#[test]
fn uniform_degree_is_thread_count_independent() {
    assert_thread_independent("uniform_degree", || {
        uniform_degree(300, 9, 3).expect("uniform").extract_tuples()
    });
    assert_thread_independent("uniform_degree_undirected", || {
        uniform_degree_undirected(300, 9, 3).expect("uniform undirected").extract_tuples()
    });
}

#[test]
fn workloads_are_thread_count_independent() {
    for w in [Workload::Rmat, Workload::ErdosRenyi, Workload::UniformDegree] {
        assert_thread_independent(&format!("{w:?}"), || {
            w.weighted(8, 8, 42, 64)
                .expect("workload")
                .extract_tuples()
                .into_iter()
                .map(|(i, j, x)| (i, j, x.to_bits()))
                .collect()
        });
    }
}

/// RMAT with Graph500 parameters must be skewed: the hub degree far
/// exceeds the average, unlike the flat uniform-degree control.
#[test]
fn rmat_degree_distribution_is_skewed() {
    let cfg = RmatConfig { scale: 10, edge_factor: 16, seed: 42, ..Default::default() };
    let a = rmat(&cfg).expect("rmat");
    let n = a.nrows();
    let mut deg = vec![0usize; n];
    for (i, _, _) in a.iter() {
        deg[i] += 1;
    }
    let max = *deg.iter().max().expect("nonempty");
    let avg = a.nvals() as f64 / n as f64;
    assert!(max as f64 > 4.0 * avg, "rmat should be skewed: max degree {max} vs average {avg:.1}");
    // The control case stays flat: mirrored d-regular degrees land in a
    // narrow band around 2d rather than growing hubs.
    let u = uniform_degree_undirected(n, 16, 42).expect("uniform");
    let mut udeg = vec![0usize; n];
    for (i, _, _) in u.iter() {
        udeg[i] += 1;
    }
    let umax = *udeg.iter().max().expect("nonempty");
    let uavg = u.nvals() as f64 / n as f64;
    assert!(
        (umax as f64) < 2.0 * uavg,
        "uniform-degree control should be flat: max {umax} vs average {uavg:.1}"
    );
}

/// Changing the seed changes the graph (the streams actually consume it).
#[test]
fn different_seeds_differ() {
    let a = rmat(&RmatConfig { scale: 8, edge_factor: 8, seed: 1, ..Default::default() })
        .expect("rmat a")
        .extract_tuples();
    let b = rmat(&RmatConfig { scale: 8, edge_factor: 8, seed: 2, ..Default::default() })
        .expect("rmat b")
        .extract_tuples();
    assert_ne!(a, b);
}
