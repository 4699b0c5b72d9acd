//! Every parallelized kernel must produce bit-identical results for any
//! thread count. Each scenario runs once under `set_threads(1)` and once
//! under `set_threads(8)` with the parallel work threshold forced to 1 —
//! so even the small proptest inputs take the chunked code paths — and
//! the two results are compared exactly.
//!
//! The determinism argument the kernels rely on (chunks partition a
//! sorted domain disjointly; stitching in chunk order reproduces the
//! sequential output) is what this suite checks end to end, including
//! the terminal-monoid early exit and nested `par_chunks` calls.

use graphblas::binaryop::{Min, Plus, Times};
use graphblas::descriptor::{Descriptor, Direction};
use graphblas::ops::*;
use graphblas::parallel::{par_chunks, set_par_threshold, set_threads};
use graphblas::semiring::{MIN_PLUS, PLUS_TIMES};
use graphblas::types::Index;
use graphblas::{Matrix, Vector};
use lagraph_suite::prelude::{Graph, GraphKind, TriCountMethod};
use proptest::prelude::*;
use std::sync::Mutex;

mod common;

const N: usize = 16;

/// Thread count and threshold are process-wide globals; scenarios from
/// concurrently-running test functions must not interleave their toggles.
static GLOBALS: Mutex<()> = Mutex::new(());

/// Run `f` under each of the given worker-thread counts, restore the
/// defaults, require every result to be identical to the first, and return
/// it.
fn assert_thread_equivalent_across<R: PartialEq + std::fmt::Debug>(
    counts: &[usize],
    f: impl Fn() -> R,
) -> R {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    set_par_threshold(1);
    let mut first: Option<(usize, R)> = None;
    for &nt in counts {
        set_threads(nt);
        let r = f();
        match &first {
            None => first = Some((nt, r)),
            Some((n0, r0)) => {
                assert_eq!(r0, &r, "result at {nt} threads differs from {n0} threads")
            }
        }
    }
    set_threads(0);
    set_par_threshold(0);
    first.expect("a thread count").1
}

/// Run `f` under 1 worker thread and under 8, restore the defaults, and
/// require the two results to be identical.
fn assert_thread_equivalent<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) {
    assert_thread_equivalent_across(&[1, 8], f);
}

fn mat(tuples: &[(usize, usize, i64)]) -> Matrix<i64> {
    Matrix::from_tuples(N, N, tuples.to_vec(), |_, b| b).expect("matrix")
}

fn vec_of(tuples: &[(usize, i64)]) -> Vector<i64> {
    Vector::from_tuples(N, tuples.to_vec(), |_, b| b).expect("vector")
}

fn arb_mat_tuples() -> impl Strategy<Value = Vec<(usize, usize, i64)>> {
    proptest::collection::vec((0..N, 0..N, -8i64..8), 0..48)
}

fn arb_vec_tuples() -> impl Strategy<Value = Vec<(usize, i64)>> {
    proptest::collection::vec((0..N, -8i64..8), 0..N)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mxm_all_kernels(at in arb_mat_tuples(), bt in arb_mat_tuples()) {
        assert_thread_equivalent(|| {
            let a = mat(&at);
            let b = mat(&bt);
            let mask = a.pattern();
            let mut plain = Matrix::<i64>::new(N, N).expect("c");
            mxm(&mut plain, None, NOACC, &PLUS_TIMES, &a, &b, &Descriptor::default())
                .expect("mxm");
            let mut masked = Matrix::<i64>::new(N, N).expect("c");
            mxm(&mut masked, Some(&mask), NOACC, &PLUS_TIMES, &a, &b,
                &Descriptor::default()).expect("masked mxm");
            let mut tran = Matrix::<i64>::new(N, N).expect("c");
            mxm(&mut tran, None, NOACC, &MIN_PLUS, &a, &b,
                &Descriptor::new().transpose_a()).expect("transposed mxm");
            (plain.extract_tuples(), masked.extract_tuples(), tran.extract_tuples())
        });
    }

    #[test]
    fn mxv_and_vxm_every_direction(at in arb_mat_tuples(), ut in arb_vec_tuples()) {
        assert_thread_equivalent(|| {
            let u = vec_of(&ut);
            let mut out = Vec::new();
            for with_dual in [false, true] {
                for dir in [Direction::Auto, Direction::Push, Direction::Pull] {
                    let mut a = mat(&at);
                    a.set_dual_storage(with_dual);
                    let d = Descriptor::new().direction(dir);
                    let mut w = Vector::<i64>::new(N).expect("w");
                    mxv(&mut w, None, NOACC, &PLUS_TIMES, &a, &u, &d).expect("mxv");
                    let mut t = Vector::<i64>::new(N).expect("t");
                    vxm(&mut t, None, NOACC, &PLUS_TIMES, &u, &a, &d).expect("vxm");
                    out.push((w.extract_tuples(), t.extract_tuples()));
                }
            }
            out
        });
    }

    #[test]
    fn push_kernel_masked_and_unmasked(at in arb_mat_tuples(), ut in arb_vec_tuples(),
                                       mt in arb_vec_tuples()) {
        // The parallel scatter kernel: masked and unmasked, under a plain
        // (PLUS) and a terminal (MIN) monoid, at 1, 2, and 8 threads. With
        // dual storage both directions exist, so scatter must agree with
        // rowdot bit-for-bit — the per-chunk accumulate + chunk-order merge
        // reproduces the sequential fold exactly.
        assert_thread_equivalent_across(&[1, 2, 8], || {
            let u = vec_of(&ut);
            let mask = vec_of(&mt).pattern();
            let mut a = mat(&at);
            a.set_dual_storage(true);
            let mut per_dir = Vec::new();
            for dir in [Direction::Push, Direction::Pull] {
                let d = Descriptor::new().direction(dir);
                let mut plain = Vector::<i64>::new(N).expect("w");
                mxv(&mut plain, None, NOACC, &PLUS_TIMES, &a, &u, &d).expect("mxv");
                let mut masked = Vector::<i64>::new(N).expect("w");
                mxv(&mut masked, Some(&mask), NOACC, &PLUS_TIMES, &a, &u, &d)
                    .expect("masked mxv");
                // Terminal monoid (MIN annihilates at i64::MIN) under the
                // BFS-style complemented structural replace mask.
                let mut term = Vector::<i64>::new(N).expect("w");
                mxv(&mut term, Some(&mask), NOACC, &MIN_PLUS, &a, &u,
                    &Descriptor::new().direction(dir).complement().structural().replace())
                    .expect("terminal mxv");
                let mut push_nat = Vector::<i64>::new(N).expect("w");
                vxm(&mut push_nat, Some(&mask), NOACC, &PLUS_TIMES, &u, &a, &d)
                    .expect("masked vxm");
                per_dir.push((plain.extract_tuples(), masked.extract_tuples(),
                              term.extract_tuples(), push_nat.extract_tuples()));
            }
            assert_eq!(per_dir[0], per_dir[1], "push must agree with pull");
            per_dir
        });
        // Edge words (tests/common/mod.rs): outputs of 1000 and 4097
        // positions under a readied sparse structural mask and its
        // complement, every row form, at thread counts that cut inside a
        // word, both directions held to the dense mimic.
        let mimic = common::edge_word_products(true, &Descriptor::new(), N, &at, &ut, &mt);
        for dir in [Direction::Push, Direction::Pull] {
            let d = Descriptor::new().direction(dir);
            let kernels = assert_thread_equivalent_across(&common::EDGE_THREADS, || {
                common::edge_word_products(false, &d, N, &at, &ut, &mt)
            });
            assert_eq!(kernels, mimic, "{dir:?} differs from the dense mimic");
        }
    }

    #[test]
    fn auto_direction_matches_explicit(at in arb_mat_tuples(), ut in arb_vec_tuples()) {
        // Direction::Auto (the cost model's choice) must be semantically
        // invisible: identical results to both explicit hints, with and
        // without dual storage, at every thread count.
        assert_thread_equivalent_across(&[1, 2, 8], || {
            let u = vec_of(&ut);
            let mut out = Vec::new();
            for with_dual in [false, true] {
                let mut a = mat(&at);
                a.set_dual_storage(with_dual);
                let mut results = Vec::new();
                for dir in [Direction::Auto, Direction::Push, Direction::Pull] {
                    let d = Descriptor::new().direction(dir);
                    let mut w = Vector::<i64>::new(N).expect("w");
                    mxv(&mut w, None, NOACC, &PLUS_TIMES, &a, &u, &d).expect("mxv");
                    let mut t = Vector::<i64>::new(N).expect("t");
                    vxm(&mut t, None, NOACC, &MIN_PLUS, &u, &a, &d).expect("vxm");
                    results.push((w.extract_tuples(), t.extract_tuples()));
                }
                assert_eq!(results[0], results[1], "Auto != Push (dual={with_dual})");
                assert_eq!(results[0], results[2], "Auto != Pull (dual={with_dual})");
                out.push(results.swap_remove(0));
            }
            out
        });
    }

    #[test]
    fn ewise_add_and_mult(ut in arb_vec_tuples(), vt in arb_vec_tuples(),
                          at in arb_mat_tuples(), bt in arb_mat_tuples()) {
        assert_thread_equivalent(|| {
            let (u, v) = (vec_of(&ut), vec_of(&vt));
            let (a, b) = (mat(&at), mat(&bt));
            let mut add_v = Vector::<i64>::new(N).expect("w");
            ewise_add(&mut add_v, None, NOACC, Plus, &u, &v, &Descriptor::default())
                .expect("add");
            let mut mul_v = Vector::<i64>::new(N).expect("w");
            ewise_mult(&mut mul_v, None, NOACC, Times, &u, &v, &Descriptor::default())
                .expect("mult");
            let mut add_m = Matrix::<i64>::new(N, N).expect("c");
            ewise_add_matrix(&mut add_m, None, NOACC, Plus, &a, &b,
                &Descriptor::default()).expect("add matrix");
            let mut mul_m = Matrix::<i64>::new(N, N).expect("c");
            ewise_mult_matrix(&mut mul_m, None, NOACC, Times, &a, &b,
                &Descriptor::default()).expect("mult matrix");
            (add_v.extract_tuples(), mul_v.extract_tuples(),
             add_m.extract_tuples(), mul_m.extract_tuples())
        });
    }

    #[test]
    fn apply_select_transpose(ut in arb_vec_tuples(), at in arb_mat_tuples()) {
        assert_thread_equivalent(|| {
            let u = vec_of(&ut);
            let a = mat(&at);
            let mut ap = Vector::<i64>::new(N).expect("w");
            apply(&mut ap, None, NOACC, |x: i64| x * 3 - 1, &u,
                &Descriptor::default()).expect("apply");
            let mut api = Vector::<i64>::new(N).expect("w");
            apply_indexed(&mut api, None, NOACC,
                |i: Index, _j: Index, x: i64| x + i as i64, &u,
                &Descriptor::default()).expect("apply indexed");
            let mut sel = Vector::<i64>::new(N).expect("w");
            select(&mut sel, None, NOACC, |_: Index, _: Index, x: i64| x > 0, &u,
                &Descriptor::default()).expect("select");
            let mut apm = Matrix::<i64>::new(N, N).expect("c");
            apply_matrix_indexed(&mut apm, None, NOACC,
                |i: Index, j: Index, x: i64| x + (i + j) as i64, &a,
                &Descriptor::new().transpose_a()).expect("apply matrix");
            let selm = tril(&a).expect("tril");
            let t = transpose_new(&a).expect("transpose");
            (ap.extract_tuples(), api.extract_tuples(), sel.extract_tuples(),
             apm.extract_tuples(), selm.extract_tuples(), t.extract_tuples())
        });
    }

    #[test]
    fn reduce_including_terminal_monoid(ut in arb_vec_tuples(), at in arb_mat_tuples()) {
        assert_thread_equivalent(|| {
            let u = vec_of(&ut);
            let a = mat(&at);
            let mut rows = Vector::<i64>::new(N).expect("w");
            reduce_matrix(&mut rows, None, NOACC, &Plus, &a, &Descriptor::default())
                .expect("reduce rows");
            // Min is a terminal monoid (i64::MIN annihilates): exercises
            // the early-exit path under parallel execution.
            let scalar_min = reduce_matrix_scalar(&Min, &a);
            let scalar_sum = reduce_matrix_scalar(&Plus, &a);
            let vec_min = reduce_vector_scalar(&Min, &u);
            (rows.extract_tuples(), scalar_min, scalar_sum, vec_min)
        });
    }

    #[test]
    fn assign_and_extract(ut in arb_vec_tuples(), at in arb_mat_tuples(),
                          st in arb_vec_tuples()) {
        assert_thread_equivalent(|| {
            let a = mat(&at);
            let sub = Vector::from_tuples(
                N / 2,
                st.iter().filter(|&&(i, _)| i < N / 2).cloned().collect(),
                |_, b| b,
            )
            .expect("sub");
            let mut w = vec_of(&ut);
            assign(&mut w, None, Some(Plus), &sub, &IndexSel::Range(4..4 + N / 2),
                &Descriptor::default()).expect("assign");
            let mut ws = vec_of(&ut);
            assign_scalar(&mut ws, None, NOACC, 7i64, &IndexSel::All,
                &Descriptor::default()).expect("assign scalar");
            let mut ext = Vector::<i64>::new(N / 2).expect("ext");
            extract(&mut ext, None, NOACC, &w, &IndexSel::Range(2..2 + N / 2),
                &Descriptor::default()).expect("extract");
            let rows: Vec<Index> = (0..N).rev().step_by(2).collect();
            let mut extm = Matrix::<i64>::new(rows.len(), N).expect("extm");
            extract_matrix(&mut extm, None, NOACC, &a, &IndexSel::List(rows),
                &IndexSel::All, &Descriptor::default()).expect("extract matrix");
            let mut col = Vector::<i64>::new(N).expect("col");
            extract_col(&mut col, None, NOACC, &a, &IndexSel::All, 3,
                &Descriptor::default()).expect("extract col");
            (w.extract_tuples(), ws.extract_tuples(), ext.extract_tuples(),
             extm.extract_tuples(), col.extract_tuples())
        });
    }

    #[test]
    fn write_rule_with_mask_accum_replace(ut in arb_vec_tuples(), vt in arb_vec_tuples(),
                                          mt in arb_vec_tuples()) {
        assert_thread_equivalent(|| {
            let (u, v) = (vec_of(&ut), vec_of(&vt));
            let mask = vec_of(&mt).pattern();
            let mut out = Vec::new();
            for desc in [
                Descriptor::new(),
                Descriptor::new().complement(),
                Descriptor::new().replace(),
                Descriptor::new().complement().structural().replace(),
            ] {
                let mut w = vec_of(&vt);
                ewise_add(&mut w, Some(&mask), Some(Plus), Plus, &u, &v, &desc)
                    .expect("masked accumulated add");
                out.push(w.extract_tuples());
            }
            out
        });
    }

    #[test]
    fn kron_and_diag(at in arb_mat_tuples(), bt in arb_mat_tuples()) {
        assert_thread_equivalent(|| {
            let (a, b) = (mat(&at), mat(&bt));
            let mut k = Matrix::<i64>::new(N * N, N * N).expect("k");
            kronecker(&mut k, None, NOACC, Times, &a, &b, &Descriptor::default())
                .expect("kron");
            let d = diag_extract(&a, 1).expect("diag");
            (k.extract_tuples(), d.extract_tuples())
        });
    }

    #[test]
    fn assembly_of_pending_tuples_and_zombies(at in arb_mat_tuples(),
                                              ut in arb_vec_tuples()) {
        assert_thread_equivalent(|| {
            let mut m = Matrix::<i64>::new(N, N).expect("m");
            for &(i, j, x) in &at {
                m.set_element(i, j, x).expect("set");
            }
            m.wait();
            // Zombies + a fresh batch of pending tuples, resolved by one
            // parallel assembly.
            for &(i, j, _) in at.iter().take(at.len() / 2) {
                m.remove_element(i, j).expect("remove");
            }
            for &(i, j, x) in &at {
                m.set_element(j, i, x + 1).expect("set");
            }
            let mut v = Vector::<i64>::new(N).expect("v");
            for &(i, x) in &ut {
                v.set_element(i, x).expect("set");
            }
            v.wait();
            for &(i, _) in ut.iter().take(ut.len() / 2) {
                v.remove_element(i).expect("remove");
            }
            for &(i, x) in &ut {
                v.set_element((i + 1) % N, x - 1).expect("set");
            }
            (m.extract_tuples(), v.extract_tuples())
        });
    }

    #[test]
    fn nested_parallel_calls(at in arb_mat_tuples(), ut in arb_vec_tuples()) {
        // Ops issued from inside a par_chunks worker degrade their own
        // par_chunks calls to sequential execution (IN_WORKER); the result
        // must match issuing the same ops from the outside.
        assert_thread_equivalent(|| {
            let a = mat(&at);
            let u = vec_of(&ut);
            par_chunks(4, usize::MAX, |r| {
                let mut part = Vec::new();
                for _ in r {
                    let mut w = Vector::<i64>::new(N).expect("w");
                    mxv(&mut w, None, NOACC, &PLUS_TIMES, &a, &u,
                        &Descriptor::default()).expect("nested mxv");
                    part.push(w.extract_tuples());
                }
                part
            })
            .into_iter()
            .flatten()
            .collect::<Vec<_>>()
        });
    }

    #[test]
    fn composite_algorithms(edges in proptest::collection::vec((0..N, 0..N), 0..40)) {
        // Full algorithm pipelines chain many parallelized ops; their end
        // results must be thread-count independent too.
        let edges: Vec<(usize, usize)> =
            edges.into_iter().filter(|&(a, b)| a != b).collect();
        assert_thread_equivalent(|| {
            let g = Graph::from_edges(N, &edges, GraphKind::Undirected).expect("g");
            let cc = lagraph_suite::prelude::connected_components(&g).expect("cc");
            let tc = lagraph_suite::prelude::triangle_count(&g, TriCountMethod::Sandia)
                .expect("tc");
            (cc.extract_tuples(), tc)
        });
    }
}

/// A skewed operand — a scale-10 RMAT adjacency, whose low-numbered rows
/// hold most of the entries — so the work-balanced cut lands somewhere the
/// even row cut never did, at thread counts that divide the rows unevenly
/// too. Weights are small integers, so every `f64` sum below is exact and
/// the comparison is bit for bit. The cutoff is forced down, so each
/// kernel really is chunked: pull (full-length windows), push (dense
/// accumulators folded into a full-length result, and the sorted-list
/// merge of a small frontier), masked dot, fused reduce, `select_matrix`.
#[test]
fn skewed_operand_cut_by_weight() {
    use graphblas::binaryop;
    use graphblas::descriptor::MxmMethod;
    use graphblas::semiring::PLUS_PAIR;

    const SCALE: u32 = 10;
    let n = 1usize << SCALE;
    let mut a = lagraph::gen::Workload::Rmat.weighted(SCALE, 16, 7, 255).expect("rmat");
    let degrees = a.row_degrees();
    let first_half: i64 = degrees.iter().filter(|&(i, _)| i < n / 2).map(|(_, d)| d).sum();
    assert!(
        first_half as f64 > 0.6 * a.nvals() as f64,
        "operand is not skewed: rows 0..n/2 hold {first_half} of {} entries",
        a.nvals()
    );
    a.set_dual_storage(true);
    let l = tril(&a).expect("tril");
    let l_pattern = l.pattern();

    let dense = Vector::dense(n, 2.0f64).expect("dense u");
    // A frontier holding the hubs (one hub row is a chunk's worth of work)
    // plus a tail, and a small one whose result stays a sorted list.
    let wide: Vec<(usize, f64)> = (0..n).step_by(3).map(|i| (i, 1.0 + (i % 5) as f64)).collect();
    let wide = Vector::from_tuples(n, wide, |_, b| b).expect("wide frontier");
    let narrow = Vector::from_tuples(n, vec![(900, 1.0), (901, 2.0), (1000, 3.0)], |_, b| b)
        .expect("narrow frontier");
    let mask = Vector::from_tuples(n, (0..n).step_by(2).map(|i| (i, true)).collect(), |_, b| b)
        .expect("mask");

    assert_thread_equivalent_across(&[1, 2, 3, 8], || {
        let pull = Descriptor::new().direction(Direction::Pull);
        let push = Descriptor::new().direction(Direction::Push);
        let mut pulled = Vector::<f64>::new(n).expect("w");
        mxv(&mut pulled, None, NOACC, &PLUS_TIMES, &a, &dense, &pull).expect("pull");
        let mut pushed = Vec::new();
        for frontier in [&wide, &narrow] {
            let mut plus = Vector::<f64>::new(n).expect("w");
            vxm(&mut plus, None, NOACC, &PLUS_TIMES, frontier, &a, &push).expect("push");
            let mut min = Vector::<f64>::new(n).expect("w");
            vxm(
                &mut min,
                Some(&mask),
                NOACC,
                &MIN_PLUS,
                frontier,
                &a,
                &Descriptor::new().direction(Direction::Push).complement().structural().replace(),
            )
            .expect("masked push");
            // With dual storage the same product is available as a pull.
            let mut check = Vector::<f64>::new(n).expect("w");
            vxm(&mut check, None, NOACC, &PLUS_TIMES, frontier, &a, &pull).expect("pull");
            assert_eq!(plus.extract_tuples(), check.extract_tuples(), "push must agree with pull");
            pushed.push((plus.extract_tuples(), min.extract_tuples()));
        }
        let mut dots = Matrix::<f64>::new(n, n).expect("c");
        mxm(
            &mut dots,
            Some(&l_pattern),
            NOACC,
            &PLUS_PAIR,
            &l,
            &l,
            &Descriptor::new().structural().transpose_b().method(MxmMethod::Dot),
        )
        .expect("masked dot");
        let triangles: f64 = fused_mxm_reduce_scalar(
            &binaryop::Plus,
            &l_pattern,
            &PLUS_PAIR,
            &l,
            &l,
            &Descriptor::new().structural().transpose_b().method(MxmMethod::Dot),
        )
        .expect("fused reduce");
        // `tril` is the unmasked filter (flat CSR blocks laid end to end),
        // the masked one goes through the per-row lists.
        let lower = tril(&a).expect("tril");
        let mut heavy = Matrix::<f64>::new(n, n).expect("c");
        select_matrix(
            &mut heavy,
            Some(&l_pattern),
            NOACC,
            |_: Index, _: Index, x: f64| x > 100.0,
            &a,
            &Descriptor::default(),
        )
        .expect("masked select");
        let to_bits = |v: Vec<(usize, f64)>| -> Vec<(usize, u64)> {
            v.into_iter().map(|(i, x)| (i, x.to_bits())).collect()
        };
        (
            to_bits(pulled.extract_tuples()),
            pushed.into_iter().map(|(p, m)| (to_bits(p), to_bits(m))).collect::<Vec<_>>(),
            dots.extract_tuples().len(),
            dots.extract_tuples().iter().map(|&(_, _, x)| x).sum::<f64>().to_bits(),
            triangles.to_bits(),
            lower.extract_tuples() == l.extract_tuples(),
            heavy.extract_tuples().len(),
        )
    });
}

/// The parallel bucket transpose (`sparse::transpose_dyn`: per-chunk
/// histograms, then disjoint scatters through raw slots) against the
/// sequential one. The cutoff is forced down, so the scale-10 RMAT is above
/// `par_threshold()`, and its 1024 columns are far below
/// `TRANSPOSE_HIST_CAP`: one thread takes the sequential branch, two and
/// eight the parallel one. Both a per-call transpose of CSR rows and of
/// decoded compressed rows, and the dual built at the first read.
#[test]
fn bucket_transpose_matches_the_sequential_one() {
    let a = lagraph::gen::Workload::Rmat.weighted(10, 16, 7, 255).expect("rmat");
    let mut packed = a.clone();
    packed.set_compressed(true);
    let u = Vector::dense(a.nrows(), 1.0f64).expect("u");
    assert_thread_equivalent_across(&[1, 2, 8], || {
        let t = transpose_new(&a).expect("transpose").extract_tuples();
        let tp = transpose_new(&packed).expect("transpose").extract_tuples();
        assert_eq!(t, tp, "compressed rows transpose alike");
        // A fresh dual per run, read by a pull over the columns.
        let mut d = a.clone();
        d.set_dual_storage(true);
        let mut w = Vector::<f64>::new(a.ncols()).expect("w");
        let pull = Descriptor::new().direction(Direction::Pull);
        vxm(&mut w, None, NOACC, &PLUS_TIMES, &u, &d, &pull).expect("pull over the dual");
        let bits: Vec<(usize, u64)> =
            w.extract_tuples().into_iter().map(|(i, x)| (i, x.to_bits())).collect();
        (t, bits)
    });
}

/// `Matrix::build` through the row buckets sorts its rows on the pool,
/// over row ranges of equal entries; the arrays must be the one-thread
/// arrays bit for bit, duplicates folded in input order by a `dup` that
/// is not commutative, with one hub row holding a quarter of the tuples.
#[test]
fn bucket_build_matches_the_sequential_one() {
    let n = 1024;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let tuples: Vec<(usize, usize, u64)> = (0..40_000)
        .map(|k| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = if k % 4 == 0 { 3 } else { (x % n as u64) as usize };
            (i, ((x >> 20) % 96) as usize, x >> 32)
        })
        .collect();
    assert_thread_equivalent_across(&[1, 2, 8], || {
        let dup = |a: u64, b: u64| a.wrapping_mul(31).wrapping_add(b);
        Matrix::from_tuples(n, n, tuples.clone(), dup).expect("build").export_csr()
    });
}

/// The bit-parallel batch BFS chains five chunked vector ops a level over
/// `u64` words under BOR, whose pull stops at all-ones; its rows must be
/// the single-source levels at every thread count — on a graph with one
/// search word and with three (130 sources).
#[test]
fn batch_bfs_rows_at_every_thread_count() {
    let g = lagraph::gen::Workload::Rmat.graph(10, 16, 7, 255).expect("rmat");
    let pool: Vec<usize> = g.out_degree().expect("degrees").iter().map(|(v, _)| v).collect();
    for k in [4usize, 130] {
        let sources: Vec<usize> = (0..k).map(|j| pool[j * 13 % pool.len()]).collect();
        let singles: Vec<_> = sources
            .iter()
            .map(|&s| lagraph::bfs_level(&g, s).expect("single").extract_tuples())
            .collect();
        assert_thread_equivalent_across(&[1, 2, 3, 8], || {
            let batch = lagraph::bfs_level_batch(&g, &sources).expect("batch");
            let rows: Vec<_> = batch.iter().map(|row| row.extract_tuples()).collect();
            assert_eq!(rows, singles, "batch of {k} diverged from the single-source runs");
            rows
        });
    }
}

/// Δ-stepping on the scale-10 RMAT: bucket scans (`select`), light and
/// heavy relaxations (`vxm` under MIN_PLUS over `f64` weights) and the
/// bucket bookkeeping between them are all chunked, and every distance
/// must come out bit for bit the same at 1 and at 8 threads.
#[test]
fn delta_stepping_distances_at_every_thread_count() {
    let g = lagraph::gen::Workload::Rmat.graph(10, 16, 7, 255).expect("rmat");
    let pool: Vec<usize> = g.out_degree().expect("degrees").iter().map(|(v, _)| v).collect();
    for source in [pool[0], pool[pool.len() / 2]] {
        assert_thread_equivalent(|| {
            let dist = lagraph::sssp_delta_stepping(&g, source, 64.0).expect("sssp");
            assert!(dist.nvals() > g.a().nrows() / 2, "{} reached", dist.nvals());
            let bits =
                dist.extract_tuples().into_iter().map(|(v, d): (usize, f64)| (v, d.to_bits()));
            bits.collect::<Vec<_>>()
        });
    }
}
