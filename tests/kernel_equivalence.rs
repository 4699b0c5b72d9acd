//! Every product kernel runs the inner loop its monoid picks (first hit
//! under ANY, a terminal compare, a plain fold, or no value loads under a
//! PAIR multiply). A loop's shape is a speed matter only: for every
//! semiring it must give **bit-identical** results to the dense mimic's
//! brute-force fold, under any thread count, with any mask mode, in both
//! product methods. Each product scenario here runs at 1 worker thread
//! and at 8, and then against the mimic on the same inputs, and requires
//! all three to agree exactly. The fused multiply-reduce/select kernels
//! are held to the materialized composition they replace.
//!
//! Storage is held to the same contract: compressed operands against CSR,
//! an operand's held dual against a per-call transpose, for every op that
//! takes a transpose flag, and the layered form `Matrix::with_edits`
//! publishes against the plain CSR it stands for.

use graphblas::binaryop::{Min, Plus};
use graphblas::descriptor::Descriptor;
use graphblas::mimic::{self, DMat};
use graphblas::ops::*;
use graphblas::parallel::{set_par_threshold, set_threads};
use graphblas::semiring::{
    ANY_SECOND, BOR_SECOND, LOR_LAND, MAX_SECOND, MIN_PLUS, MIN_SECOND, PLUS_FIRST, PLUS_PAIR,
    PLUS_SECOND, PLUS_TIMES,
};
use graphblas::{BinaryOp, Format, Matrix, Monoid, MxmMethod, Scalar, Semiring, Vector};
use lagraph::algorithms::{triangle_count, TriCountMethod};
use lagraph::{Graph, GraphKind};
use proptest::prelude::*;
use std::fmt::Display;
use std::sync::Mutex;

mod common;

const N: usize = 16;

/// Thread count and threshold are process-wide; scenarios must not
/// interleave their toggles.
static GLOBALS: Mutex<()> = Mutex::new(());

/// Run `f` at 1 and at 8 worker threads and require the two results to be
/// bit-identical; return the result. `f` receives the descriptor to pass
/// to each operation.
fn assert_paths_equivalent<R: PartialEq + std::fmt::Debug>(
    base: Descriptor,
    f: impl Fn(&Descriptor) -> R,
) -> R {
    assert_paths_equivalent_at(&[1, 8], base, f)
}

/// [`assert_paths_equivalent`] at each of `threads`, every result held to
/// the first.
fn assert_paths_equivalent_at<R: PartialEq + std::fmt::Debug>(
    threads: &[usize],
    base: Descriptor,
    f: impl Fn(&Descriptor) -> R,
) -> R {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    set_par_threshold(1);
    let results: Vec<R> = threads
        .iter()
        .map(|&nt| {
            set_threads(nt);
            f(&base)
        })
        .collect();
    set_threads(0);
    set_par_threshold(0);
    let mut results = threads.iter().zip(results);
    let (_, first) = results.next().expect("a thread count");
    for (nt, r) in results {
        assert_eq!(first, r, "{nt} threads differ from {}", threads[0]);
    }
    first
}

/// Who computes a product: the kernels, or the dense mimic on the same
/// inputs.
#[derive(Clone, Copy)]
enum Via {
    Kernels,
    Mimic,
}

/// [`assert_paths_equivalent`] over `products`, whose answer must also be
/// the dense mimic's.
fn assert_paths_match_mimic<R: PartialEq + std::fmt::Debug>(
    base: Descriptor,
    products: impl Fn(Via, &Descriptor) -> R,
) {
    assert_paths_match_mimic_at(&[1, 8], base, products)
}

/// [`assert_paths_match_mimic`] at each of `threads`.
fn assert_paths_match_mimic_at<R: PartialEq + std::fmt::Debug>(
    threads: &[usize],
    base: Descriptor,
    products: impl Fn(Via, &Descriptor) -> R,
) {
    let kernels = assert_paths_equivalent_at(threads, base, |d| products(Via::Kernels, d));
    assert_eq!(kernels, products(Via::Mimic, &base), "the kernels differ from the dense mimic");
}

/// `C⟨M⟩ = A ⊕.⊗ B` over `N × N` operands, rendered exactly.
fn mxm_via<A, B, T, SA, SM>(
    via: Via,
    m: Option<&Matrix<bool>>,
    s: &Semiring<SA, SM>,
    a: &Matrix<A>,
    b: &Matrix<B>,
    d: &Descriptor,
) -> Vec<(usize, usize, String)>
where
    A: Scalar,
    B: Scalar,
    T: Scalar + Display,
    SA: Monoid<T>,
    SM: BinaryOp<A, B, T>,
{
    let c = match via {
        Via::Kernels => {
            let mut c = Matrix::<T>::new(N, N).expect("c");
            mxm(&mut c, m, NOACC, s, a, b, d).expect("mxm");
            c
        }
        Via::Mimic => {
            let (da, db) = (DMat::from_matrix(a), DMat::from_matrix(b));
            let dm = m.map(DMat::from_matrix);
            mimic::mxm(&DMat::new(N, N), dm.as_ref(), &NOACC, s, &da, &db, d).to_matrix()
        }
    };
    c.extract_tuples().into_iter().map(|(i, j, x)| (i, j, format!("{x}"))).collect()
}

/// `w⟨m⟩ = A ⊕.⊗ u` (`vxm_order` false) or `uᵀ ⊕.⊗ A` (`vxm_order`
/// true) over an `N × N` operand, rendered exactly.
fn mxv_via<A, T, SA, SM>(
    via: Via,
    vxm_order: bool,
    m: Option<&Vector<bool>>,
    s: &Semiring<SA, SM>,
    a: &Matrix<A>,
    u: &Vector<A>,
    d: &Descriptor,
) -> Vec<(usize, String)>
where
    A: Scalar,
    T: Scalar + Display,
    SA: Monoid<T>,
    SM: BinaryOp<A, A, T>,
{
    common::mxv_rendered(matches!(via, Via::Mimic), vxm_order, m, s, a, u, d)
}

fn mat(tuples: &[(usize, usize, i64)]) -> Matrix<i64> {
    Matrix::from_tuples(N, N, tuples.to_vec(), |_, b| b).expect("matrix")
}

/// The sample as `u64` words: a negative value is a word with its high
/// bits set, so `-1` is BOR's terminal.
fn words(tuples: &[(usize, usize, i64)]) -> Matrix<u64> {
    let cast = tuples.iter().map(|&(i, j, x)| (i, j, x as u64)).collect();
    Matrix::from_tuples(N, N, cast, |_, b| b).expect("words")
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

/// The mask modes every product is checked under: unmasked, valued mask,
/// structural mask, complemented mask.
fn mask_descs(base: Descriptor) -> [(Option<()>, Descriptor); 4] {
    [(None, base), (Some(()), base), (Some(()), base.structural()), (Some(()), base.complement())]
}

fn arb_edits() -> impl Strategy<Value = Vec<(usize, usize, Option<i64>)>> {
    proptest::collection::vec((0..N, 0..N, proptest::option::of(-8i64..8)), 0..24)
}

/// The storage forms an operand holding a dual is checked in, as
/// `(label, rows, compressed)`: CSR; hypersparse rows (5000 rows hold at
/// most 72 entries), whose 16-row dual is CSR; and the compressed form,
/// whose dual is compressed too. Operands are `rows × N`.
const FORMS: [(&str, usize, bool); 3] =
    [("csr", N, false), ("hypersparse", 5000, false), ("compressed", N, true)];

/// An operand in one storage form, with dual storage on or off: built,
/// read once — which builds the dual — and then hit by a write burst. A
/// CSR dual logs the burst and takes it through the assembly splice at the
/// next read; a compressed one is dropped and rebuilt. Row `i` of the
/// sample lands on row `i · rows / N`.
fn operand<T: graphblas::Scalar>(
    tuples: &[(usize, usize, i64)],
    edits: &[(usize, usize, Option<i64>)],
    (rows, compressed): (usize, bool),
    dual: bool,
    cast: impl Fn(i64) -> T,
) -> Matrix<T> {
    let spread = rows / N;
    let at = |&(i, j, x): &(usize, usize, i64)| (i * spread, j, cast(x));
    let mut m =
        Matrix::from_tuples(rows, N, tuples.iter().map(at).collect(), |_, b| b).expect("operand");
    m.set_compressed(compressed);
    m.set_dual_storage(dual);
    m.extract_tuples();
    m.apply_edits(edits.iter().map(|&(i, j, x)| (i * spread, j, x.map(&cast)))).expect("burst");
    m
}

/// Every op that takes a transpose flag, on `a` (and its pattern `p`),
/// each result rendered exactly.
fn transposing_ops(
    a: &Matrix<i64>,
    p: &Matrix<bool>,
    mask: &Matrix<bool>,
    d: Descriptor,
) -> Vec<String> {
    let (m, n) = (a.nrows(), a.ncols());
    let mut out = Vec::new();
    let new = |r: usize, c: usize| Matrix::<i64>::new(r, c).expect("output");
    for method in [MxmMethod::Gustavson, MxmMethod::Dot, MxmMethod::Heap] {
        // Aᵀ·A reads the dual as A (and as Bᵀ for the dot); A·Aᵀ as B.
        let mut ata = new(n, n);
        mxm(&mut ata, None, NOACC, &PLUS_TIMES, a, a, &d.method(method).transpose_a())
            .expect("AᵀA");
        let mut aat = new(m, m);
        mxm(&mut aat, None, NOACC, &PLUS_TIMES, a, a, &d.method(method).transpose_b())
            .expect("AAᵀ");
        out.push(format!("{method:?} {:?} {:?}", ata.extract_tuples(), aat.extract_tuples()));
    }
    let fd = d.structural().transpose_a();
    let scalar: u64 = fused_mxm_reduce_scalar(&Plus, mask, &PLUS_PAIR, p, p, &fd).expect("scalar");
    let (rows, pat): (Vector<u64>, _) =
        fused_mxm_row_reduce_pattern(&Plus, mask, &PLUS_PAIR, p, p, &fd).expect("rows");
    let kept = fused_mxm_select(|v: u64| v >= 2, mask, &PLUS_PAIR, p, p, &fd).expect("select");
    out.push(format!(
        "fused {scalar} {:?} {:?} {:?}",
        rows.extract_tuples(),
        pat.extract_tuples(),
        kept.extract_tuples()
    ));
    let tt = d.transpose_a().transpose_b();
    let mut add = new(n, m);
    ewise_add_matrix(&mut add, None, NOACC, Plus, a, a, &tt).expect("add");
    let mut mult = new(n, m);
    ewise_mult_matrix(&mut mult, None, NOACC, graphblas::binaryop::Times, a, a, &tt).expect("mult");
    let mut kron = new(n * n, m * m);
    kronecker(&mut kron, None, NOACC, graphblas::binaryop::Times, a, a, &tt).expect("kron");
    out.push(format!(
        "{:?} {:?} {:?}",
        add.extract_tuples(),
        mult.extract_tuples(),
        kron.extract_tuples()
    ));
    let t = d.transpose_a();
    let mut cols = Vector::<i64>::new(n).expect("w");
    reduce_matrix(&mut cols, None, NOACC, &Plus, a, &t).expect("reduce");
    let mut applied = new(n, m);
    let op = |i: usize, j: usize, x: i64| 7 * x + (3 * i + j) as i64;
    apply_matrix_indexed(&mut applied, None, NOACC, op, a, &t).expect("apply");
    let mut selected = new(n, m);
    let keep = |i: usize, j: usize, x: i64| x > 0 || i < j;
    select_matrix(&mut selected, None, NOACC, keep, a, &t).expect("select");
    out.push(format!(
        "{:?} {:?} {:?}",
        cols.extract_tuples(),
        applied.extract_tuples(),
        selected.extract_tuples()
    ));
    let picks = IndexSel::List(vec![5, 0, 5, 9]);
    let mut sub = new(4, m);
    extract_matrix(&mut sub, None, NOACC, a, &picks, &IndexSel::All, &t).expect("extract");
    let mut row = Vector::<i64>::new(n).expect("w");
    extract_col(&mut row, None, NOACC, a, &IndexSel::All, 3 * (m / N), &t).expect("extract col");
    let mut at = new(n, m);
    transpose(&mut at, None, NOACC, a, &d).expect("transpose");
    let mut copy = new(m, n);
    transpose(&mut copy, None, NOACC, a, &t).expect("copy");
    out.push(format!(
        "{:?} {:?} {:?} {:?}",
        sub.extract_tuples(),
        row.extract_tuples(),
        at.extract_tuples(),
        copy.extract_tuples()
    ));
    out
}

/// Dimension of the layered operands: a tridiagonal base of 190 entries,
/// whose overlay stays under the fold cut (an eighth of the base) for the
/// at most four rows, of at most five entries, the edits below write.
const D: usize = 64;

/// One or two writes anywhere in a `D × D` operand: inserts, re-weights,
/// deletes, the diagonal.
fn arb_layer_edits() -> impl Strategy<Value = Vec<(usize, usize, Option<i64>)>> {
    proptest::collection::vec((0..D, 0..D, proptest::option::of(-8i64..8)), 1..3)
}

/// A mask over `D × D`: the `N × N` sample spread over it.
fn spread_mask(tuples: &[(usize, usize, i64)]) -> Matrix<bool> {
    let spread = tuples.iter().map(|&(i, j, _)| (i * (D / N), j * (D / N), true)).collect();
    Matrix::from_tuples(D, D, spread, |_, b| b).expect("mask")
}

/// The layered matrix `with_edits` publishes, a publish after a
/// tridiagonal source with dual storage on, and the flattened copy to hold
/// it to: the source
/// cloned, the same writes replayed, assembled. The source is symmetric —
/// its rows serve as its dual — unless `rows_dual` is off, when one
/// unmirrored entry makes its dual a copy.
fn layered_and_flat<T: graphblas::Scalar>(
    edits: &[(usize, usize, Option<i64>)],
    rows_dual: bool,
    cast: impl Fn(i64) -> T,
) -> (Matrix<T>, Matrix<T>) {
    let mut base: Vec<(usize, usize, T)> = (0..D)
        .flat_map(|i| (i.saturating_sub(1)..(i + 2).min(D)).map(move |j| (i, j)))
        .map(|(i, j)| (i, j, cast(((i + j) % 5) as i64 + 1)))
        .collect();
    if !rows_dual {
        base.push((0, D - 1, cast(7)));
    }
    let mut src = Matrix::from_tuples(D, D, base, |_, b| b).expect("source");
    src.set_dual_storage(true);
    src.extract_tuples();
    let edits: Vec<_> = edits.iter().map(|&(i, j, x)| (i, j, x.map(&cast))).collect();
    // A plain-CSR source's first publish writes a fresh base; the second
    // layers its rows over that base.
    let first = src.with_edits(&[]).expect("first publish");
    let layered = first.with_edits(&edits).expect("with_edits");
    assert!(layered.shares_base(&first), "{:?}", layered.layers());
    let mut flat = src.clone();
    flat.apply_edits(edits).expect("replay");
    flat.wait();
    (layered, flat)
}

/// Ops that read an operand as stored, without a transpose flag: both
/// product directions, a row reduce, a select (plain CSR takes its own
/// fast path there), an indexed apply.
fn untransposed_ops(a: &Matrix<i64>, d: Descriptor) -> Vec<String> {
    use graphblas::descriptor::Direction;
    let (m, n) = (a.nrows(), a.ncols());
    let u =
        Vector::from_tuples(n, (0..n).step_by(3).map(|j| (j, j as i64 - 9)).collect(), |_, b| b)
            .expect("u");
    let mut out = Vec::new();
    for dir in [Direction::Push, Direction::Pull] {
        let mut w = Vector::<i64>::new(m).expect("w");
        mxv(&mut w, None, NOACC, &PLUS_TIMES, a, &u, &d.direction(dir)).expect("mxv");
        out.push(format!("{dir:?} {:?}", w.extract_tuples()));
    }
    let mut rows = Vector::<i64>::new(m).expect("rows");
    reduce_matrix(&mut rows, None, NOACC, &Plus, a, &d).expect("reduce");
    let mut selected = Matrix::<i64>::new(m, n).expect("selected");
    select_matrix(&mut selected, None, NOACC, |i: usize, j: usize, x: i64| x > 1 || i < j, a, &d)
        .expect("select");
    let mut applied = Matrix::<i64>::new(m, n).expect("applied");
    let op = |i: usize, j: usize, x: i64| 7 * x + (3 * i + j) as i64;
    apply_matrix_indexed(&mut applied, None, NOACC, op, a, &d).expect("apply");
    out.push(format!(
        "{:?} {:?} {:?}",
        rows.extract_tuples(),
        selected.extract_tuples(),
        applied.extract_tuples()
    ));
    out
}

/// Rows of the tall operand a compressed pull is checked on: five 64-row
/// windows, so a chunk at 8 threads starts mid-matrix.
const TALL: usize = 320;

fn arb_tall_tuples() -> impl Strategy<Value = Vec<(usize, usize, i64)>> {
    proptest::collection::vec((0..TALL, 0..N, -8i64..8), 0..400)
}

fn arb_tall_mask() -> impl Strategy<Value = Vec<(usize, bool)>> {
    proptest::collection::vec((0..TALL, any::<bool>()), 0..TALL)
}

/// Every pull shape on a `TALL × N` operand, held CSR and compressed:
/// `mxv(A, u)` and `mxv(Aᵀ, v)` (through the held dual), forced to pull,
/// each under no mask, a valued mask and a structural complement. The two
/// storages must agree inside the call; the results are returned for the
/// driver to compare across threads.
fn pulls_on_both_storages(
    at: &[(usize, usize, i64)],
    ut: &[(usize, i64)],
    vt: &[(usize, i64)],
    mt: &[(usize, bool)],
    desc: &Descriptor,
) -> Vec<Vec<(usize, String)>> {
    use graphblas::semiring::MIN_SECOND;
    fn held<T: graphblas::Scalar>(t: Vec<(usize, usize, T)>, compressed: bool) -> Matrix<T> {
        let mut m = Matrix::from_tuples(TALL, N, t, |_, b| b).expect("operand");
        m.set_compressed(compressed);
        m.set_dual_storage(true);
        assert!(
            !compressed || m.nvals() == 0 || m.is_compressed(),
            "flagged operand must compress"
        );
        m
    }
    let bools = |t: &[(usize, i64)]| t.iter().map(|&(i, x)| (i, x >= 0)).collect::<Vec<_>>();
    let (u, ub) = (vec_of(ut), Vector::from_tuples(N, bools(ut), |_, b| b).expect("ub"));
    let spread: Vec<(usize, i64)> = vt.iter().map(|&(i, x)| (i * (TALL / N), x)).collect();
    let v = Vector::from_tuples(TALL, spread.clone(), |_, b| b).expect("v");
    let vb = Vector::from_tuples(TALL, bools(&spread), |_, b| b).expect("vb");
    let mask = Vector::from_tuples(TALL, mt.to_vec(), |_, b| b).expect("mask");
    let short: Vec<(usize, bool)> = mt.iter().map(|&(i, x)| (i % N, x)).collect();
    let short_mask = Vector::from_tuples(N, short, |_, b| b).expect("short mask");
    let storages = [false, true].map(|compressed| {
        let a = held(at.to_vec(), compressed);
        let b = held(at.iter().map(|&(i, j, x)| (i, j, x > 0)).collect(), compressed);
        (a, b)
    });
    let mut out = Vec::new();
    let modes = [(false, *desc), (true, *desc), (true, desc.structural().complement())];
    for (masked, d) in modes {
        for transposed in [false, true] {
            let (d, n_out, x, xb, m) = if transposed {
                (d.transpose_a(), N, &v, &vb, masked.then_some(&short_mask))
            } else {
                (d, TALL, &u, &ub, masked.then_some(&mask))
            };
            let mut legs = storages.iter().map(|(a, b)| {
                let mut leg = Vec::new();
                let mut w = Vector::<bool>::new(n_out).expect("w");
                mxv(&mut w, m, NOACC, &LOR_LAND, b, xb, &d).expect("lor_land");
                leg.extend(w.extract_tuples().into_iter().map(|(i, x)| (i, format!("lor {x}"))));
                for name in ["any", "min", "plus"] {
                    let mut w = Vector::<i64>::new(n_out).expect("w");
                    match name {
                        "any" => mxv(&mut w, m, NOACC, &ANY_SECOND, a, x, &d),
                        "min" => mxv(&mut w, m, NOACC, &MIN_SECOND, a, x, &d),
                        _ => mxv(&mut w, m, NOACC, &PLUS_TIMES, a, x, &d),
                    }
                    .expect(name);
                    leg.extend(
                        w.extract_tuples().into_iter().map(|(i, x)| (i, format!("{name} {x}"))),
                    );
                }
                leg
            });
            let (csr, compressed) = (legs.next().expect("csr"), legs.next().expect("compressed"));
            assert_eq!(csr, compressed, "masked={masked} transposed={transposed}");
            out.push(compressed);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mxm_specialized_matches_generic(at in arb_mat_tuples(), bt in arb_mat_tuples(),
                                       mt in arb_mat_tuples()) {
        // Every loop shape (fold, terminal, first hit, no load), in both
        // forced methods, under every mask mode, against the dense mimic.
        // The outer driver flips threads and asks the mimic.
        for method in [MxmMethod::Gustavson, MxmMethod::Dot] {
            for transpose_b in [false, true] {
                let mut base = Descriptor::new().method(method);
                if transpose_b {
                    base = base.transpose_b();
                }
                assert_paths_match_mimic(base, |via, desc| {
                    let a = mat(&at);
                    let b = mat(&bt);
                    let mask = mat(&mt).pattern();
                    let (ap, bp) = (a.pattern(), b.pattern());
                    let (au, bu) = (words(&at), words(&bt));
                    let mut out: Vec<Vec<(usize, usize, String)>> = Vec::new();
                    for (masked, d) in mask_descs(*desc) {
                        let m = masked.map(|()| &mask);
                        out.push(mxm_via(via, m, &PLUS_TIMES, &a, &b, &d));
                        out.push(mxm_via(via, m, &MIN_PLUS, &a, &b, &d));
                        out.push(mxm_via(via, m, &ANY_SECOND, &a, &b, &d));
                        out.push(mxm_via::<_, _, u64, _, _>(via, m, &PLUS_PAIR, &ap, &bp, &d));
                        out.push(mxm_via(via, m, &LOR_LAND, &ap, &bp, &d));
                        out.push(mxm_via(via, m, &PLUS_SECOND, &a, &b, &d));
                        out.push(mxm_via(via, m, &MIN_SECOND, &a, &b, &d));
                        out.push(mxm_via(via, m, &PLUS_FIRST, &a, &b, &d));
                        out.push(mxm_via(via, m, &MAX_SECOND, &a, &b, &d));
                        out.push(mxm_via(via, m, &BOR_SECOND, &au, &bu, &d));
                    }
                    out
                });
            }
        }
    }

    #[test]
    fn mxv_and_vxm_specialized_match_generic(at in arb_mat_tuples(), ut in arb_vec_tuples(),
                                             mt in arb_vec_tuples()) {
        use graphblas::descriptor::Direction;
        // Push (scatter) and pull (dot) kernels, masked and unmasked, for
        // every loop shape, mxv and vxm, against the dense mimic.
        for dir in [Direction::Push, Direction::Pull] {
            assert_paths_match_mimic(Descriptor::new().direction(dir), |via, desc| {
                let mut a = mat(&at);
                a.set_dual_storage(true);
                let ap = a.pattern();
                let mut au = words(&at);
                au.set_dual_storage(true);
                let u = vec_of(&ut);
                let up = u.pattern();
                let uu = Vector::from_tuples(N, ut.iter().map(|&(i, x)| (i, x as u64)).collect(),
                    |_, b| b).expect("uu");
                let mask = vec_of(&mt).pattern();
                let mut out: Vec<Vec<(usize, String)>> = Vec::new();
                for (masked, d) in mask_descs(*desc) {
                    let m = masked.map(|()| &mask);
                    for vxm_order in [false, true] {
                        out.push(mxv_via(via, vxm_order, m, &PLUS_TIMES, &a, &u, &d));
                        out.push(mxv_via(via, vxm_order, m, &MIN_PLUS, &a, &u, &d));
                        out.push(mxv_via(via, vxm_order, m, &ANY_SECOND, &a, &u, &d));
                        out.push(mxv_via::<_, u64, _, _>(via, vxm_order, m, &PLUS_PAIR, &ap, &up, &d));
                        out.push(mxv_via(via, vxm_order, m, &LOR_LAND, &ap, &up, &d));
                        out.push(mxv_via(via, vxm_order, m, &PLUS_SECOND, &a, &u, &d));
                        out.push(mxv_via(via, vxm_order, m, &MIN_SECOND, &a, &u, &d));
                        out.push(mxv_via(via, vxm_order, m, &PLUS_FIRST, &a, &u, &d));
                        out.push(mxv_via(via, vxm_order, m, &MAX_SECOND, &a, &u, &d));
                        out.push(mxv_via(via, vxm_order, m, &BOR_SECOND, &au, &uu, &d));
                    }
                }
                out
            });
            // Edge words: outputs of 1000 and 4097 positions under a readied
            // sparse structural mask and its complement, every row form, at
            // thread counts that cut inside a word (tests/common/mod.rs).
            assert_paths_match_mimic_at(&common::EDGE_THREADS, Descriptor::new().direction(dir),
                |via, desc| {
                    common::edge_word_products(matches!(via, Via::Mimic), desc, N, &at, &ut, &mt)
                });
        }
    }

    #[test]
    fn compressed_storage_matches_csr_products(at in arb_mat_tuples(), bt in arb_mat_tuples(),
                                               ut in arb_vec_tuples(), mt in arb_mat_tuples(),
                                               vt in arb_vec_tuples()) {
        // The gap-encoded compressed form is a pure storage feature: the
        // decode-cursor kernels must be bit-identical to the CSR path in
        // every product method, under every mask mode, at 1 and 8
        // threads. Each leg computes the same product twice — once with
        // both operands CSR, once with both compressed — and the results
        // are compared inside the leg, while the outer driver also
        // cross-checks every leg against the first.
        let compress = |t: &[(usize, usize, i64)]| {
            let mut m = mat(t);
            m.set_compressed(true);
            assert!(m.is_compressed() || m.nvals() == 0, "flagged matrix must compress");
            m
        };
        for method in [MxmMethod::Gustavson, MxmMethod::Dot, MxmMethod::Heap] {
            assert_paths_equivalent(Descriptor::new().method(method), |desc| {
                let (a, b) = (mat(&at), mat(&bt));
                let (ac, bc) = (compress(&at), compress(&bt));
                let mask = mat(&mt).pattern();
                let mut out: Vec<Vec<(usize, usize, i64)>> = Vec::new();
                for (masked, d) in mask_descs(*desc) {
                    let m = masked.map(|()| &mask);
                    let mut c = Matrix::<i64>::new(N, N).expect("c");
                    mxm(&mut c, m, NOACC, &PLUS_TIMES, &a, &b, &d).expect("csr mxm");
                    let mut cc = Matrix::<i64>::new(N, N).expect("cc");
                    mxm(&mut cc, m, NOACC, &PLUS_TIMES, &ac, &bc, &d).expect("compressed mxm");
                    assert_eq!(c.extract_tuples(), cc.extract_tuples(), "mxm {method:?}");
                    out.push(cc.extract_tuples());
                }
                out
            });
        }
        use graphblas::descriptor::Direction;
        for dir in [Direction::Push, Direction::Pull] {
            assert_paths_equivalent(Descriptor::new().direction(dir), |desc| {
                let mut a = mat(&at);
                a.set_dual_storage(true);
                let mut ac = mat(&at);
                ac.set_dual_storage(true);
                ac.set_compressed(true);
                let u = vec_of(&ut);
                let mask = vec_of(&vt).pattern();
                let mut out: Vec<Vec<(usize, i64)>> = Vec::new();
                for (masked, d) in mask_descs(*desc) {
                    let m = masked.map(|()| &mask);
                    let mut w = Vector::<i64>::new(N).expect("w");
                    mxv(&mut w, m, NOACC, &MIN_PLUS, &a, &u, &d).expect("csr mxv");
                    let mut wc = Vector::<i64>::new(N).expect("wc");
                    mxv(&mut wc, m, NOACC, &MIN_PLUS, &ac, &u, &d).expect("compressed mxv");
                    assert_eq!(w.extract_tuples(), wc.extract_tuples(), "mxv {dir:?}");
                    out.push(wc.extract_tuples());
                }
                out
            });
        }
    }

    #[test]
    fn compressed_storage_matches_csr_tricount(at in arb_mat_tuples()) {
        // All three tricount formulations over an undirected simple graph,
        // CSR vs compressed adjacency (the compressed flag flows into the
        // cached structure matrix), at 1 and 8 threads.
        let edges: Vec<(usize, usize)> = at.iter()
            .filter(|(i, j, _)| i != j)
            .map(|&(i, j, _)| (i.min(j), i.max(j)))
            .collect();
        assert_paths_equivalent(Descriptor::new(), |_desc| {
            let g = Graph::from_edges(N, &edges, GraphKind::Undirected).expect("graph");
            let mut gc = Graph::from_edges(N, &edges, GraphKind::Undirected).expect("graph");
            gc.set_compressed(true);
            let mut counts = Vec::new();
            for m in [TriCountMethod::Burkhardt, TriCountMethod::Cohen, TriCountMethod::Sandia] {
                let plain = triangle_count(&g, m).expect("csr tricount");
                let comp = triangle_count(&gc, m).expect("compressed tricount");
                assert_eq!(plain, comp, "{m:?} diverged on compressed storage");
                counts.push(comp);
            }
            counts
        });
    }

    #[test]
    fn held_dual_matches_a_fresh_transpose(at in arb_mat_tuples(), edits in arb_edits(),
                                           mt in arb_mat_tuples()) {
        // Every op that takes a transpose flag reads a held dual where the
        // operand has one and transposes per call where it does not: the
        // two must agree bit for bit, in every storage form, after a write
        // burst the dual absorbed. A stale dual is a wrong answer here.
        assert_paths_equivalent(Descriptor::new(), |desc| {
            let mask = mat(&mt).pattern();
            let mut out = Vec::new();
            for (label, rows, compressed) in FORMS {
                let form = (rows, compressed);
                let per_dual = [false, true].map(|dual| {
                    let a = operand(&at, &edits, form, dual, |x| x);
                    let p = operand(&at, &edits, form, dual, |_| true);
                    let want = match (compressed, rows > N) {
                        (true, _) => Format::Compressed,
                        (false, true) => Format::HyperCsr,
                        (false, false) => Format::Csr,
                    };
                    assert!(a.nvals() == 0 || a.format() == want, "{label}: {:?}", a.format());
                    assert_eq!(a.dual_storage(), dual);
                    transposing_ops(&a, &p, &mask, *desc)
                });
                assert_eq!(per_dual[0], per_dual[1], "{label}: held dual != fresh transpose");
                out.push(per_dual.into_iter().nth(1));
            }
            out
        });
    }

    #[test]
    fn rows_as_the_dual_match_a_fresh_transpose(at in arb_mat_tuples(), mt in arb_mat_tuples()) {
        // A symmetric CSR operand holds no copy of its transpose: its rows
        // serve. Every op that takes a transpose flag must read them as it
        // would a fresh transpose; then one unmirrored write must take the
        // state away, and the copy built in its place must agree as well.
        let mirrored: Vec<_> = at.iter().flat_map(|&(i, j, x)| [(i, j, x), (j, i, x)]).collect();
        assert_paths_equivalent(Descriptor::new(), |desc| {
            let mask = mat(&mt).pattern();
            let build = |dual: bool| {
                let mut a = operand(&mirrored, &[], (N, false), dual, |x| x);
                let mut p = operand(&mirrored, &[], (N, false), dual, |_| true);
                if dual {
                    assert_eq!(a.memory_usage().dual_bytes, 0, "the rows serve as the dual");
                    assert_eq!(p.memory_usage().dual_bytes, 0, "the rows serve as the dual");
                }
                let aliased = transposing_ops(&a, &p, &mask, *desc);
                a.set_element(0, 1, a.get(1, 0).map_or(1, |x| x + 1)).expect("unmirrored");
                p.set_element(0, 1, p.get(1, 0).is_none()).expect("unmirrored");
                let broken = transposing_ops(&a, &p, &mask, *desc);
                if dual {
                    assert!(a.memory_usage().dual_bytes > 0, "a write left the rows as the dual");
                    assert!(p.memory_usage().dual_bytes > 0, "a write left the rows as the dual");
                }
                (aliased, broken)
            };
            let (held, fresh) = (build(true), build(false));
            assert_eq!(held, fresh, "rows as the dual != fresh transpose");
            held
        });
    }

    #[test]
    fn layered_operand_matches_its_flattened_copy(edits in arb_layer_edits(),
                                                  mt in arb_mat_tuples()) {
        // What `with_edits` publishes — a CSR base shared with its source
        // plus an overlay of the rows the edits touched — must read as the
        // plain CSR its source becomes under the same writes, through every
        // op that takes a transpose flag (with the flag and without), with
        // its rows as its dual (a symmetric base under mirrored edits) and
        // with a layered copy of its transpose as the dual.
        let mask = spread_mask(&mt);
        assert_paths_equivalent(Descriptor::new(), |desc| {
            let mut out = Vec::new();
            for rows_dual in [true, false] {
                let edits: Vec<_> = if rows_dual {
                    edits.iter().flat_map(|&(i, j, x)| [(i, j, x), (j, i, x)]).collect()
                } else {
                    edits.clone()
                };
                let (a, flat_a) = layered_and_flat(&edits, rows_dual, |x| x);
                let (p, flat_p) = layered_and_flat(&edits, rows_dual, |_| true);
                assert!(a.layers().is_some_and(|l| l.overlay_rows > 0), "{:?}", a.layers());
                assert_eq!(a.memory_usage().dual_bytes == 0, rows_dual, "rows_dual={rows_dual}");
                let layered = [transposing_ops(&a, &p, &mask, *desc), untransposed_ops(&a, *desc)];
                let flat =
                    [transposing_ops(&flat_a, &flat_p, &mask, *desc), untransposed_ops(&flat_a, *desc)];
                assert_eq!(layered, flat, "rows_dual={rows_dual}: layered != flattened");
                out.push(layered);
            }
            out
        });
    }

    #[test]
    fn fused_kernels_match_materialized_composition(at in arb_mat_tuples(),
                                                    bt in arb_mat_tuples(),
                                                    mt in arb_mat_tuples()) {
        // Each fused entry point against the three-step unfused
        // composition it replaces: materialize the masked product with
        // mxm, then reduce/select.
        assert_paths_equivalent(Descriptor::new().structural(), |desc| {
            let a = mat(&at).pattern();
            let b = mat(&bt).pattern();
            let mask = mat(&mt).pattern();
            let scalar: u64 =
                fused_mxm_reduce_scalar(&Plus, &mask, &PLUS_PAIR, &a, &b, desc).expect("scalar");
            let (rows, pat) =
                fused_mxm_row_reduce_pattern(&Plus, &mask, &PLUS_PAIR, &a, &b, desc)
                    .expect("rows");
            let kept =
                fused_mxm_select(|v: u64| v >= 2, &mask, &PLUS_PAIR, &a, &b, desc).expect("sel");

            // The unfused oracle.
            let mut c = Matrix::<u64>::new(N, N).expect("c");
            mxm(&mut c, Some(&mask), NOACC, &PLUS_PAIR, &a, &b, desc).expect("mxm");
            assert_eq!(scalar, reduce_matrix_scalar(&Plus, &c), "scalar reduce");
            let mut rref = Vector::<u64>::new(N).expect("r");
            reduce_matrix(&mut rref, None, NOACC, &Plus, &c, &Descriptor::default())
                .expect("reduce");
            assert_eq!(rows.extract_tuples(), rref.extract_tuples(), "row reduce");
            assert_eq!(pat.extract_tuples(), c.pattern().extract_tuples(), "pattern");
            let mut kref = Matrix::<u64>::new(N, N).expect("k");
            select_matrix(&mut kref, None, NOACC, graphblas::unaryop::ValueGe(2u64), &c,
                &Descriptor::default()).expect("select");
            assert_eq!(kept.extract_tuples(), kref.extract_tuples(), "select");

            (scalar, rows.extract_tuples(), pat.extract_tuples(), kept.extract_tuples())
        });
    }

    #[test]
    fn fused_kernels_fuse_a_terminal_semiring(at in arb_mat_tuples(), bt in arb_mat_tuples(),
                                              mt in arb_mat_tuples()) {
        // Every semiring fuses: MIN_PLUS over f64 (a terminal monoid, not
        // PAIR) reduced to a scalar and thresholded, against the
        // materialized product reduced and filtered.
        let real = |t: &[(usize, usize, i64)]| {
            let cast = t.iter().map(|&(i, j, x)| (i, j, x as f64 / 4.0)).collect();
            Matrix::from_tuples(N, N, cast, |_, b| b).expect("real")
        };
        assert_paths_equivalent(Descriptor::new().structural(), |desc| {
            let (a, b) = (real(&at), real(&bt));
            let mask = mat(&mt).pattern();
            let scalar: f64 =
                fused_mxm_reduce_scalar(&Min, &mask, &MIN_PLUS, &a, &b, desc).expect("scalar");
            let kept = fused_mxm_select(|v: f64| v < 0.5, &mask, &MIN_PLUS, &a, &b, desc)
                .expect("select");

            let mut c = Matrix::<f64>::new(N, N).expect("c");
            mxm(&mut c, Some(&mask), NOACC, &MIN_PLUS, &a, &b, desc).expect("mxm");
            let want = reduce_matrix_scalar(&Min, &c);
            assert_eq!(scalar.to_bits(), want.to_bits(), "scalar reduce");
            let filtered: Vec<_> =
                c.extract_tuples().into_iter().filter(|&(_, _, v)| v < 0.5).collect();
            assert_eq!(kept.extract_tuples(), filtered, "select");
            (scalar.to_bits(), format!("{:?}", kept.extract_tuples()))
        });
    }

    #[test]
    fn compressed_pulls_match_csr_under_every_shape(at in arb_tall_tuples(), ut in arb_vec_tuples(),
                                                    vt in arb_vec_tuples(), mt in arb_tall_mask()) {
        // A compressed pull walks each chunk's rows with one cursor and
        // stops decoding a row at its dot's terminal or first hit: under
        // every pull shape (LOR_LAND and MIN_SECOND terminal, ANY_SECOND
        // first hit, PLUS_TIMES fold), masked or not, its
        // result must be the CSR pull's bit for bit, at 1 and 8 threads.
        use graphblas::descriptor::Direction;
        assert_paths_equivalent(Descriptor::new().direction(Direction::Pull), |desc| {
            pulls_on_both_storages(&at, &ut, &vt, &mt, desc)
        });
    }
}
