//! Conformance suite: every GraphBLAS operation checked against the dense
//! reference mimic, exactly the SuiteSparse:GraphBLAS methodology §II.A
//! describes ("each computation is done both in SuiteSparse:GraphBLAS and
//! in the MATLAB mimic ... tests pass only if the results are identical
//! in both value and pattern").
//!
//! Property-based: proptest generates random matrices, vectors, masks,
//! and descriptor settings; the fast sparse kernels and the brute-force
//! dense mimic must agree bit-for-bit.

use graphblas::mimic::{self, DMat, DVec};
use graphblas::prelude::*;
use graphblas::semiring::{LOR_LAND, MIN_PLUS, PLUS_PAIR, PLUS_TIMES};
use proptest::prelude::*;

const N: Index = 6; // dense mimic is O(n³); keep dimensions tiny

fn arb_matrix() -> impl Strategy<Value = Matrix<i64>> {
    proptest::collection::vec(((0..N, 0..N), -10i64..10), 0..20).prop_map(|entries| {
        let tuples = entries.into_iter().map(|((i, j), v)| (i, j, v)).collect();
        Matrix::from_tuples(N, N, tuples, |_, b| b).expect("valid dims")
    })
}

fn arb_fmatrix() -> impl Strategy<Value = Matrix<f64>> {
    proptest::collection::vec(((0..N, 0..N), 1i32..16), 0..20).prop_map(|entries| {
        let tuples = entries.into_iter().map(|((i, j), v)| (i, j, v as f64)).collect();
        Matrix::from_tuples(N, N, tuples, |_, b| b).expect("valid dims")
    })
}

fn arb_vector() -> impl Strategy<Value = Vector<i64>> {
    proptest::collection::vec((0..N, -10i64..10), 0..6)
        .prop_map(|entries| Vector::from_tuples(N, entries, |_, b| b).expect("valid dims"))
}

fn arb_mask_m() -> impl Strategy<Value = Option<Matrix<bool>>> {
    proptest::option::of(proptest::collection::vec(((0..N, 0..N), any::<bool>()), 0..20)).prop_map(
        |e| {
            e.map(|entries| {
                let tuples = entries.into_iter().map(|((i, j), v)| (i, j, v)).collect();
                Matrix::from_tuples(N, N, tuples, |_, b| b).expect("valid dims")
            })
        },
    )
}

fn arb_mask_v() -> impl Strategy<Value = Option<Vector<bool>>> {
    proptest::option::of(proptest::collection::vec((0..N, any::<bool>()), 0..6)).prop_map(|e| {
        e.map(|entries| Vector::from_tuples(N, entries, |_, b| b).expect("valid dims"))
    })
}

fn arb_desc() -> impl Strategy<Value = Descriptor> {
    (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
        |(ta, tb, comp, strict, repl)| {
            let mut d = Descriptor::new();
            d.transpose_a = ta;
            d.transpose_b = tb;
            d.mask_complement = comp;
            d.mask_structural = strict;
            d.replace = repl;
            d
        },
    )
}

/// Convert an optional accumulator flag into both representations.
fn accum(flag: bool) -> Option<binaryop::Plus> {
    flag.then_some(binaryop::Plus)
}

fn same_matrix<T: Scalar>(fast: &Matrix<T>, reference: &DMat<T>) -> bool {
    fast.extract_tuples() == reference.to_matrix().extract_tuples()
}

fn same_vector<T: Scalar>(fast: &Vector<T>, reference: &DVec<T>) -> bool {
    fast.extract_tuples() == reference.to_vector().extract_tuples()
}

/// Words that meet the bitwise terminals often: complementary halves OR to
/// all-ones and AND to zero within two or three entries, so the kernels'
/// early exits (pull dots, push slots, reduce folds) fire on most cases.
const PALETTE: [u64; 6] =
    [0, u64::MAX, 0x0f0f_0f0f_0f0f_0f0f, 0xf0f0_f0f0_f0f0_f0f0, 0x00ff_00ff_00ff_00ff, 1];

/// Matrix entries, two vectors and an output as palette picks; `as` turns
/// a pick into either word width (truncation keeps the halves' pattern).
type BitwiseCase = (Vec<((Index, Index), usize)>, [Vec<(Index, usize)>; 3]);

fn arb_bitwise_case() -> impl Strategy<Value = BitwiseCase> {
    let pick = 0..PALETTE.len();
    let vector = || proptest::collection::vec((0..N, pick.clone()), 0..N);
    (proptest::collection::vec(((0..N, 0..N), pick.clone()), 0..24), vector(), vector(), vector())
        .prop_map(|(a, u, v, w)| (a, [u, v, w]))
}

/// `ewise_add`, `reduce` and `mxv` (push and pull, over the pattern of `a`
/// as BFS uses it) under one bitwise monoid against the dense mimic, which
/// folds every entry and knows no early exit.
fn bitwise_conforms<T: Scalar, M: Monoid<T>>(
    add: M,
    word: impl Fn(usize) -> T,
    (a, [u, v, w0]): &BitwiseCase,
    mask: Option<&Vector<bool>>,
    desc: &Descriptor,
) -> std::result::Result<(), TestCaseError> {
    let tuples = a.iter().map(|&((i, j), k)| (i, j, word(k))).collect();
    let a = Matrix::from_tuples(N, N, tuples, |_, b| b).expect("valid dims");
    let vector = |picks: &Vec<(Index, usize)>| {
        let tuples = picks.iter().map(|&(i, k)| (i, word(k))).collect();
        Vector::from_tuples(N, tuples, |_, b| b).expect("valid dims")
    };
    let (u, v, w0) = (vector(u), vector(v), vector(w0));
    let dmask = mask.map(DVec::from_vector);
    let (da, du, dw0) = (DMat::from_matrix(&a), DVec::from_vector(&u), DVec::from_vector(&w0));

    let mut w = w0.clone();
    ewise_add(&mut w, mask, Some(add), add, &u, &v, desc).expect("ewise_add");
    let want = mimic::ewise_add_vec(
        &dw0,
        dmask.as_ref(),
        &Some(add),
        &add,
        &du,
        &DVec::from_vector(&v),
        desc,
    );
    prop_assert!(same_vector(&w, &want), "ewise_add");

    let mut w = w0.clone();
    reduce_matrix(&mut w, mask, NOACC, &add, &a, desc).expect("reduce");
    let want = mimic::reduce_mat_to_vec(&dw0, dmask.as_ref(), &NOACC, &add, &da, desc);
    prop_assert!(same_vector(&w, &want), "reduce to vector");
    prop_assert_eq!(reduce_matrix_scalar(&add, &a), mimic::reduce_mat_to_scalar(&add, &da));

    let mut pattern = a.pattern();
    pattern.set_dual_storage(true);
    let second = Semiring::new(add, binaryop::Second);
    for direction in [Direction::Push, Direction::Pull] {
        let mut w = w0.clone();
        mxv(&mut w, mask, NOACC, &second, &pattern, &u, &desc.direction(direction)).expect("mxv");
        let want = mimic::mxv(
            &dw0,
            dmask.as_ref(),
            &NOACC,
            &second,
            &DMat::from_matrix(&pattern),
            &du,
            desc,
        );
        prop_assert!(same_vector(&w, &want), "mxv {:?}", direction);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bitwise_family_conforms(case in arb_bitwise_case(), mask in arb_mask_v(), desc in arb_desc()) {
        let mask = mask.as_ref();
        bitwise_conforms(binaryop::Bor, |k| PALETTE[k] as u8, &case, mask, &desc)?;
        bitwise_conforms(binaryop::Band, |k| PALETTE[k] as u8, &case, mask, &desc)?;
        bitwise_conforms(binaryop::Bxor, |k| PALETTE[k] as u8, &case, mask, &desc)?;
        bitwise_conforms(binaryop::Bor, |k| PALETTE[k], &case, mask, &desc)?;
        bitwise_conforms(binaryop::Band, |k| PALETTE[k], &case, mask, &desc)?;
        bitwise_conforms(binaryop::Bxor, |k| PALETTE[k], &case, mask, &desc)?;
    }

    #[test]
    fn mxm_conforms(
        a in arb_matrix(),
        b in arb_matrix(),
        c0 in arb_matrix(),
        mask in arb_mask_m(),
        desc in arb_desc(),
        use_acc in any::<bool>(),
    ) {
        let mut c = c0.clone();
        mxm(&mut c, mask.as_ref(), accum(use_acc), &PLUS_TIMES, &a, &b, &desc)
            .expect("mxm");
        let want = mimic::mxm(
            &DMat::from_matrix(&c0),
            mask.as_ref().map(DMat::from_matrix).as_ref(),
            &accum(use_acc),
            &PLUS_TIMES,
            &DMat::from_matrix(&a),
            &DMat::from_matrix(&b),
            &desc,
        );
        prop_assert!(same_matrix(&c, &want));
    }

    #[test]
    fn mxm_methods_conform(
        a in arb_matrix(),
        b in arb_matrix(),
        mask in arb_mask_m(),
        method in prop_oneof![
            Just(MxmMethod::Gustavson),
            Just(MxmMethod::Dot),
            Just(MxmMethod::Heap),
        ],
    ) {
        let desc = Descriptor::new().method(method);
        let mut c = Matrix::<i64>::new(N, N).expect("c");
        mxm(&mut c, mask.as_ref(), NOACC, &PLUS_TIMES, &a, &b, &desc).expect("mxm");
        let want = mimic::mxm(
            &DMat::new(N, N),
            mask.as_ref().map(DMat::from_matrix).as_ref(),
            &NOACC,
            &PLUS_TIMES,
            &DMat::from_matrix(&a),
            &DMat::from_matrix(&b),
            &desc,
        );
        prop_assert!(same_matrix(&c, &want));
    }

    #[test]
    fn mxm_min_plus_conforms(a in arb_fmatrix(), b in arb_fmatrix()) {
        let mut c = Matrix::<f64>::new(N, N).expect("c");
        mxm(&mut c, None, NOACC, &MIN_PLUS, &a, &b, &Descriptor::default()).expect("mxm");
        let want = mimic::mxm(
            &DMat::new(N, N),
            None,
            &NOACC,
            &MIN_PLUS,
            &DMat::from_matrix(&a),
            &DMat::from_matrix(&b),
            &Descriptor::default(),
        );
        prop_assert!(same_matrix(&c, &want));
    }

    #[test]
    fn mxm_plus_pair_conforms(a in arb_matrix(), b in arb_matrix()) {
        let mut c = Matrix::<u64>::new(N, N).expect("c");
        mxm(&mut c, None, NOACC, &PLUS_PAIR, &a, &b, &Descriptor::default()).expect("mxm");
        let want = mimic::mxm(
            &DMat::new(N, N),
            None,
            &NOACC,
            &PLUS_PAIR,
            &DMat::from_matrix(&a),
            &DMat::from_matrix(&b),
            &Descriptor::default(),
        );
        prop_assert!(same_matrix(&c, &want));
    }

    #[test]
    fn mxv_conforms(
        a in arb_matrix(),
        u in arb_vector(),
        w0 in arb_vector(),
        mask in arb_mask_v(),
        desc in arb_desc(),
        use_acc in any::<bool>(),
    ) {
        let mut w = w0.clone();
        mxv(&mut w, mask.as_ref(), accum(use_acc), &PLUS_TIMES, &a, &u, &desc)
            .expect("mxv");
        let want = mimic::mxv(
            &DVec::from_vector(&w0),
            mask.as_ref().map(DVec::from_vector).as_ref(),
            &accum(use_acc),
            &PLUS_TIMES,
            &DMat::from_matrix(&a),
            &DVec::from_vector(&u),
            &desc,
        );
        prop_assert!(same_vector(&w, &want));
    }

    #[test]
    fn mxv_directions_conform(a in arb_matrix(), u in arb_vector(), push in any::<bool>()) {
        // With dual storage, push and pull must both match the mimic.
        let mut am = a.clone();
        am.set_dual_storage(true);
        let dir = if push { Direction::Push } else { Direction::Pull };
        let mut w = Vector::<i64>::new(N).expect("w");
        mxv(&mut w, None, NOACC, &PLUS_TIMES, &am, &u, &Descriptor::new().direction(dir))
            .expect("mxv");
        let want = mimic::mxv(
            &DVec::new(N),
            None,
            &NOACC,
            &PLUS_TIMES,
            &DMat::from_matrix(&a),
            &DVec::from_vector(&u),
            &Descriptor::default(),
        );
        prop_assert!(same_vector(&w, &want));
    }

    #[test]
    fn vxm_conforms(
        a in arb_matrix(),
        u in arb_vector(),
        mask in arb_mask_v(),
        desc in arb_desc(),
    ) {
        let mut w = Vector::<i64>::new(N).expect("w");
        vxm(&mut w, mask.as_ref(), NOACC, &PLUS_TIMES, &u, &a, &desc).expect("vxm");
        let want = mimic::vxm(
            &DVec::new(N),
            mask.as_ref().map(DVec::from_vector).as_ref(),
            &NOACC,
            &PLUS_TIMES,
            &DVec::from_vector(&u),
            &DMat::from_matrix(&a),
            &desc,
        );
        prop_assert!(same_vector(&w, &want));
    }

    #[test]
    fn ewise_add_conforms(
        u in arb_vector(),
        v in arb_vector(),
        w0 in arb_vector(),
        mask in arb_mask_v(),
        desc in arb_desc(),
        use_acc in any::<bool>(),
    ) {
        let mut w = w0.clone();
        ewise_add(&mut w, mask.as_ref(), accum(use_acc), binaryop::Plus, &u, &v, &desc)
            .expect("ewise_add");
        let want = mimic::ewise_add_vec(
            &DVec::from_vector(&w0),
            mask.as_ref().map(DVec::from_vector).as_ref(),
            &accum(use_acc),
            &binaryop::Plus,
            &DVec::from_vector(&u),
            &DVec::from_vector(&v),
            &desc,
        );
        prop_assert!(same_vector(&w, &want));
    }

    #[test]
    fn ewise_mult_conforms(
        u in arb_vector(),
        v in arb_vector(),
        mask in arb_mask_v(),
        desc in arb_desc(),
    ) {
        let mut w = Vector::<i64>::new(N).expect("w");
        ewise_mult(&mut w, mask.as_ref(), NOACC, binaryop::Times, &u, &v, &desc)
            .expect("ewise_mult");
        let want = mimic::ewise_mult_vec(
            &DVec::new(N),
            mask.as_ref().map(DVec::from_vector).as_ref(),
            &NOACC,
            &binaryop::Times,
            &DVec::from_vector(&u),
            &DVec::from_vector(&v),
            &desc,
        );
        prop_assert!(same_vector(&w, &want));
    }

    #[test]
    fn ewise_matrix_conforms(
        a in arb_matrix(),
        b in arb_matrix(),
        mask in arb_mask_m(),
        desc in arb_desc(),
    ) {
        let mut c_add = Matrix::<i64>::new(N, N).expect("c");
        ewise_add_matrix(&mut c_add, mask.as_ref(), NOACC, binaryop::Plus, &a, &b, &desc)
            .expect("add");
        let want_add = mimic::ewise_add_mat(
            &DMat::new(N, N),
            mask.as_ref().map(DMat::from_matrix).as_ref(),
            &NOACC,
            &binaryop::Plus,
            &DMat::from_matrix(&a),
            &DMat::from_matrix(&b),
            &desc,
        );
        prop_assert!(same_matrix(&c_add, &want_add));

        let mut c_mul = Matrix::<i64>::new(N, N).expect("c");
        ewise_mult_matrix(&mut c_mul, mask.as_ref(), NOACC, binaryop::Times, &a, &b, &desc)
            .expect("mult");
        let want_mul = mimic::ewise_mult_mat(
            &DMat::new(N, N),
            mask.as_ref().map(DMat::from_matrix).as_ref(),
            &NOACC,
            &binaryop::Times,
            &DMat::from_matrix(&a),
            &DMat::from_matrix(&b),
            &desc,
        );
        prop_assert!(same_matrix(&c_mul, &want_mul));
    }

    #[test]
    fn apply_conforms(
        u in arb_vector(),
        w0 in arb_vector(),
        mask in arb_mask_v(),
        desc in arb_desc(),
        use_acc in any::<bool>(),
    ) {
        let mut w = w0.clone();
        apply(&mut w, mask.as_ref(), accum(use_acc), unaryop::Ainv, &u, &desc)
            .expect("apply");
        let want = mimic::apply_vec(
            &DVec::from_vector(&w0),
            mask.as_ref().map(DVec::from_vector).as_ref(),
            &accum(use_acc),
            &unaryop::Ainv,
            &DVec::from_vector(&u),
            &desc,
        );
        prop_assert!(same_vector(&w, &want));
    }

    #[test]
    fn reduce_conforms(a in arb_matrix(), mask in arb_mask_v(), desc in arb_desc()) {
        let mut w = Vector::<i64>::new(N).expect("w");
        reduce_matrix(&mut w, mask.as_ref(), NOACC, &binaryop::Plus, &a, &desc)
            .expect("reduce");
        let want = mimic::reduce_mat_to_vec(
            &DVec::new(N),
            mask.as_ref().map(DVec::from_vector).as_ref(),
            &NOACC,
            &binaryop::Plus,
            &DMat::from_matrix(&a),
            &desc,
        );
        prop_assert!(same_vector(&w, &want));
        // Scalar reduce agrees too.
        prop_assert_eq!(
            reduce_matrix_scalar(&binaryop::Plus, &a),
            mimic::reduce_mat_to_scalar(&binaryop::Plus, &DMat::from_matrix(&a))
        );
    }

    #[test]
    fn select_conforms(a in arb_matrix(), mask in arb_mask_m(), desc in arb_desc()) {
        let mut c = Matrix::<i64>::new(N, N).expect("c");
        select_matrix(&mut c, mask.as_ref(), NOACC, unaryop::StrictLower, &a, &desc)
            .expect("select");
        let want = mimic::select_mat(
            &DMat::new(N, N),
            mask.as_ref().map(DMat::from_matrix).as_ref(),
            &NOACC,
            &unaryop::StrictLower,
            &DMat::from_matrix(&a),
            &desc,
        );
        prop_assert!(same_matrix(&c, &want));
    }

    #[test]
    fn transpose_conforms(a in arb_matrix()) {
        let t = transpose_new(&a).expect("transpose");
        let want = DMat::from_matrix(&a).transpose();
        prop_assert!(same_matrix(&t, &want));
    }

    #[test]
    fn logical_semiring_conforms(a in arb_matrix(), u in arb_vector()) {
        // Boolean reachability: pattern-of(A) ∨.∧ pattern-of(u).
        let ab = a.pattern();
        let ub = u.pattern();
        let mut w = Vector::<bool>::new(N).expect("w");
        mxv(&mut w, None, NOACC, &LOR_LAND, &ab, &ub, &Descriptor::default()).expect("mxv");
        let want = mimic::mxv(
            &DVec::new(N),
            None,
            &NOACC,
            &LOR_LAND,
            &DMat::from_matrix(&ab),
            &DVec::from_vector(&ub),
            &Descriptor::default(),
        );
        prop_assert!(same_vector(&w, &want));
    }
}
