//! Regression tests for arithmetic overflow in kernel-selection
//! heuristics on hypersparse operands with dimensions near `Index::MAX`.
//!
//! Dimensions this large are legitimate — hypersparse storage is O(e), so
//! a `usize::MAX / 2`-sized matrix with three entries is cheap — but they
//! broke the old fixed-ratio choosers in debug builds: `mxv`'s
//! `u_nvals * PUSH_PULL_RATIO` and `mxm`'s `mask.nvals() <= 4 * out_rows`
//! both multiplied unchecked. The cost-model estimators saturate instead;
//! these tests pin that down (run with `-C overflow-checks=on` in CI). An
//! output shape that is a product of dimensions (`kronecker`) is checked
//! and refused with an error when it does not fit.

use graphblas::prelude::*;
use graphblas::semiring::PLUS_TIMES;

/// A dimension large enough that any `k * n` heuristic (k >= 4) overflows
/// `usize` — while staying buildable: hypersparse storage never allocates
/// proportionally to the dimension.
const HUGE: Index = usize::MAX / 2;

#[test]
fn vxm_auto_direction_on_huge_dimensions() {
    // 0 → 1 → 2 over a HUGE×HUGE hypersparse graph; Auto resolves the
    // direction through saturating flops estimates (the old code computed
    // `u_nvals * 10` and compared against n).
    let a = Matrix::from_tuples(
        HUGE,
        HUGE,
        vec![(0, 1, 2.0f64), (1, 2, 3.0), (HUGE - 1, 0, 5.0)],
        |_, b| b,
    )
    .expect("hypersparse build is O(e)");
    let u = Vector::from_tuples(HUGE, vec![(0, 10.0f64)], |_, b| b).expect("u");
    let mut w = Vector::<f64>::new(HUGE).expect("w");
    vxm(&mut w, None, NOACC, &PLUS_TIMES, &u, &a, &Descriptor::default()).expect("vxm");
    assert_eq!(w.extract_tuples(), vec![(1, 20.0)]);
}

#[test]
fn masked_vxm_on_huge_dimensions_filters_in_kernel() {
    // The masked push (tree-accumulator) path on a huge dimension: the
    // mask excludes column 1, so only the 0→(HUGE-1) edge survives.
    let a = Matrix::from_tuples(HUGE, HUGE, vec![(0, 1, 2.0f64), (0, HUGE - 1, 7.0)], |_, b| b)
        .expect("a");
    let u = Vector::from_tuples(HUGE, vec![(0, 1.0f64)], |_, b| b).expect("u");
    let mask = Vector::from_tuples(HUGE, vec![(HUGE - 1, true)], |_, b| b).expect("mask");
    let mut w = Vector::<f64>::new(HUGE).expect("w");
    vxm(&mut w, Some(&mask), NOACC, &PLUS_TIMES, &u, &a, &Descriptor::default()).expect("vxm");
    assert_eq!(w.extract_tuples(), vec![(HUGE - 1, 7.0)]);
}

#[test]
fn transposed_mxv_directions_on_huge_dimensions() {
    // `mxv(Aᵀ, u)` pushes naturally, so every direction hint resolves to
    // the scatter kernel when no dual storage exists — exercising the
    // saturating push/pull estimates without the pull side's dense input
    // view (which is legitimately O(n) and not built at this dimension).
    let a =
        Matrix::from_tuples(HUGE, HUGE, vec![(0, 1, 2.0f64), (1, 2, 3.0)], |_, b| b).expect("a");
    let u = Vector::from_tuples(HUGE, vec![(0, 4.0f64), (1, 1.0)], |_, b| b).expect("u");
    for dir in [Direction::Auto, Direction::Push, Direction::Pull] {
        let mut w = Vector::<f64>::new(HUGE).expect("w");
        mxv(
            &mut w,
            None,
            NOACC,
            &PLUS_TIMES,
            &a,
            &u,
            &Descriptor::new().transpose_a().direction(dir),
        )
        .expect("mxv");
        assert_eq!(w.extract_tuples(), vec![(1, 8.0), (2, 3.0)], "{dir:?}");
    }
}

#[test]
fn masked_mxm_auto_on_huge_dimensions() {
    // The failing-before case: `choose_method` evaluated
    // `mask.nvals() <= 4 * out_rows` with out_rows = usize::MAX / 2, which
    // overflows (and aborts under `-C overflow-checks=on`) before any
    // kernel runs. The saturating estimates pick the masked dot path.
    let a =
        Matrix::from_tuples(HUGE, HUGE, vec![(0, 1, 2.0f64), (3, 4, 9.0)], |_, b| b).expect("a");
    let b =
        Matrix::from_tuples(HUGE, HUGE, vec![(1, 7, 10.0f64), (4, 0, 1.0)], |_, b| b).expect("b");
    let mask = Matrix::from_tuples(HUGE, HUGE, vec![(0, 7, true)], |_, b| b).expect("mask");
    let mut c = Matrix::<f64>::new(HUGE, HUGE).expect("c");
    mxm(&mut c, Some(&mask), NOACC, &PLUS_TIMES, &a, &b, &Descriptor::default()).expect("mxm");
    assert_eq!(c.extract_tuples(), vec![(0, 7, 20.0)]);
}

#[test]
fn kronecker_with_an_unrepresentable_shape_fails_closed() {
    // HUGE·3 rows do not fit an Index: the product has no shape, so it is
    // refused with a typed error before any work, whatever the build's
    // overflow checks.
    let a = Matrix::from_tuples(HUGE, HUGE, vec![(0, 1, 2.0f64), (HUGE - 1, 0, 5.0)], |_, b| b)
        .expect("hypersparse build is O(e)");
    let b = Matrix::from_tuples(3, 3, vec![(0, 0, 1.0f64), (2, 1, 4.0)], |_, b| b).expect("b");
    let mut c = Matrix::<f64>::new(HUGE, HUGE).expect("c");
    let r = kronecker(&mut c, None, NOACC, binaryop::Times, &a, &b, &Descriptor::default());
    assert!(matches!(r, Err(Error::InvalidValue { .. })), "{r:?}");
    assert_eq!(c.nvals(), 0, "the output is left untouched");
}
