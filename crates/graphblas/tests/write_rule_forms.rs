//! The vector write rule against the dense mimic, over every storage form.
//!
//! `write_vector` has three paths — install, the in-place arm for a
//! full-length output, the merge arm for a sparse one — and every
//! vector-output operation hands it `T` either as lists or as full-length
//! arrays. This suite drives each operation with the output, the operands
//! and the mask each drawn from every density class (empty, sparse, just
//! under and over the n/32, n/16 and n/4 thresholds, full), crossed with
//! complement × structural × replace × accumulator (and, for `assign`,
//! region `All` / `Range` / `List`), at 1 and at 8 threads with the
//! parallel cutoff forced to 1, and requires the result to equal
//! `mimic::write_rule_vec` applied to a `T` computed here by plain loops:
//! same pattern, same values, and an entry count that matches the pattern.
//! Where the write merges into an existing output, the form it leaves must
//! be the one merging and then applying the thresholds gives, whichever
//! path ran.
//!
//! The deterministic tests at the end pin the form transitions: a write
//! converts the output between sparse and full-length only when it crosses
//! a hysteresis threshold, in either direction. A sparse output is
//! promoted before the write exactly when `T`'s allowed entries alone
//! reach n/16, and a valued sparse mask's stored `false`s block under
//! every op that probes it by position.

use std::sync::Mutex;

use graphblas::mimic::{self, DVec};
use graphblas::parallel::{set_par_threshold, set_threads};
use graphblas::prelude::*;
use graphblas::semiring::PLUS_TIMES;
use graphblas::trace;
use graphblas::VectorFormat;
use proptest::prelude::*;

/// Thresholds at this length: sparse below 8 entries, bitmap from 16,
/// dense from 64; eight threads cut it into four 64-position windows.
const N: Index = 256;

/// Thread count and cutoff are process-wide; cases must not interleave.
static GLOBALS: Mutex<()> = Mutex::new(());

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Entry-count classes around every form threshold of a length-`n` vector.
fn count_in_class(class: usize, n: Index, rng: &mut u64) -> usize {
    let (lo, hi) = match class % 6 {
        0 => (0, 1),
        1 => (1, n / 32),
        2 => (n / 32, n / 16),
        3 => (n / 16, n / 4),
        4 => (n / 4, n),
        _ => (n, n + 1),
    };
    (lo + (splitmix(rng) as usize) % hi.saturating_sub(lo).max(1)).min(n)
}

/// `count_in_class` distinct positions of `0..n`, sorted.
fn positions(class: usize, n: Index, rng: &mut u64) -> Vec<Index> {
    let k = count_in_class(class, n, rng);
    let mut all: Vec<Index> = (0..n).collect();
    for i in 0..k {
        let j = i + (splitmix(rng) as usize) % (n - i);
        all.swap(i, j);
    }
    all.truncate(k);
    all.sort_unstable();
    all
}

fn vector(class: usize, n: Index, seed: u64) -> Vector<i64> {
    let mut rng = seed;
    let tuples = positions(class, n, &mut rng)
        .into_iter()
        .map(|i| (i, (splitmix(&mut rng) % 19) as i64 - 9));
    Vector::from_tuples(n, tuples.collect(), |_, b| b).expect("vector")
}

/// `kind` 0 is "no mask"; 1.. picks a density class (so every mask form).
fn mask(kind: usize, seed: u64) -> Option<Vector<bool>> {
    (!kind.is_multiple_of(6)).then(|| {
        let mut rng = seed;
        let tuples = positions(kind % 6, N, &mut rng)
            .into_iter()
            .map(|i| (i, !splitmix(&mut rng).is_multiple_of(3)));
        Vector::from_tuples(N, tuples.collect(), |_, b| b).expect("mask")
    })
}

fn descriptor(flags: u8) -> Descriptor {
    let mut d = Descriptor::new();
    d.mask_complement = flags & 1 != 0;
    d.mask_structural = flags & 2 != 0;
    d.replace = flags & 4 != 0;
    d
}

fn accum(flags: u8) -> Option<binaryop::Plus> {
    (flags & 8 != 0).then_some(binaryop::Plus)
}

/// One scenario: the output, two operands, the mask and the flag bits.
#[derive(Debug, Clone, Copy)]
struct Case {
    classes: (usize, usize, usize, usize),
    seed: u64,
    flags: u8,
}

fn arb_case() -> impl Strategy<Value = Case> {
    ((0usize..6, 0usize..6, 0usize..6, 0usize..6), any::<u64>(), 0u8..16)
        .prop_map(|(classes, seed, flags)| Case { classes, seed, flags })
}

impl Case {
    fn w(&self) -> Vector<i64> {
        vector(self.classes.0, N, self.seed)
    }
    fn u(&self) -> Vector<i64> {
        vector(self.classes.1, N, self.seed ^ 0x55)
    }
    fn v(&self) -> Vector<i64> {
        vector(self.classes.2, N, self.seed ^ 0xAA)
    }
    fn mask(&self) -> Option<Vector<bool>> {
        mask(self.classes.3, self.seed ^ 0xFF)
    }
}

/// An operation writing into `w` under the case's mask, accumulator and
/// descriptor.
type OpUnderTest<'a> =
    dyn Fn(&mut Vector<i64>, Option<&Vector<bool>>, Option<binaryop::Plus>, &Descriptor) + 'a;

/// Run `op` on a fresh copy of the case's output at 1 and at 8 threads and
/// hold both to `mimic::write_rule_vec` over `t` (restricted to `region`:
/// positions outside it keep the old output).
fn check(
    case: &Case,
    t: &DVec<i64>,
    region: &dyn Fn(Index) -> bool,
    op: &OpUnderTest<'_>,
) -> std::result::Result<(), TestCaseError> {
    let (w0, m, desc, acc) = (case.w(), case.mask(), descriptor(case.flags), accum(case.flags));
    check_with(&format!("{case:?}"), &w0, m.as_ref(), acc, &desc, t, region, op).map(|_| ())
}

/// The form `optimize_form` leaves a length-`N` output in after a write
/// that merged into or wrote over an output of form `before` and left
/// `count` entries: a sparse one turns full-length from n/16, a
/// full-length one turns sparse below n/32.
fn rule_form(before: VectorFormat, count: usize) -> VectorFormat {
    let full = match before {
        VectorFormat::Sparse => count * 16 >= N,
        VectorFormat::Bitmap | VectorFormat::Dense => count * 32 >= N,
    };
    match (full, count * 4 >= N) {
        (false, _) => VectorFormat::Sparse,
        (true, false) => VectorFormat::Bitmap,
        (true, true) => VectorFormat::Dense,
    }
}

/// [`check`] for a given output, mask, accumulator and descriptor. Where
/// the write has an output to merge against (a non-empty one under a mask
/// or an accumulator), its form afterwards must be [`rule_form`]'s too.
/// Returns the path each run's `write` span reported.
#[allow(clippy::too_many_arguments)]
fn check_with(
    what: &str,
    w0: &Vector<i64>,
    m: Option<&Vector<bool>>,
    acc: Option<binaryop::Plus>,
    desc: &Descriptor,
    t: &DVec<i64>,
    region: &dyn Fn(Index) -> bool,
    op: &OpUnderTest<'_>,
) -> std::result::Result<Vec<&'static str>, TestCaseError> {
    let old = DVec::from_vector(w0);
    let ruled = mimic::write_rule_vec(&old, m.map(DVec::from_vector).as_ref(), &acc, t, desc);
    let want: Vec<(Index, i64)> = (0..N)
        .filter_map(|i| if region(i) { ruled.val[i] } else { old.val[i] }.map(|x| (i, x)))
        .collect();
    let merges_into_w = w0.nvals() > 0 && (m.is_some() || desc.mask_complement || acc.is_some());
    let want_form = merges_into_w.then(|| rule_form(w0.vector_format(), want.len()));
    let runs = {
        let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
        set_par_threshold(1);
        let runs = [1, 8].map(|threads| {
            set_threads(threads);
            let mut w = w0.clone();
            trace::clear();
            trace::enable();
            op(&mut w, m, acc, desc);
            trace::disable();
            let path = trace::drain()
                .iter()
                .rev()
                .find(|e| e.name == "write")
                .and_then(|e| e.arg_str("path"));
            (threads, w.extract_tuples(), w.nvals(), w.vector_format(), path)
        });
        set_threads(0);
        set_par_threshold(0);
        runs
    };
    let mut paths = Vec::new();
    for (threads, got, counted, form, path) in runs {
        prop_assert_eq!(
            &got,
            &want,
            "{} at {} threads, output was {:?}",
            what,
            threads,
            w0.vector_format()
        );
        prop_assert_eq!(
            counted,
            want.len(),
            "entry count drifted: {} at {} threads",
            what,
            threads
        );
        if let Some(want_form) = want_form {
            prop_assert_eq!(form, want_form, "{} at {} threads", what, threads);
        }
        paths.push(path.unwrap_or("none"));
    }
    Ok(paths)
}

fn everywhere(_: Index) -> bool {
    true
}

/// A random N×N matrix and its product with `u`, `T(i) = Σ A(i,j)·u(j)`
/// (or over `Aᵀ`), computed from the tuples.
fn matrix_and_product(
    class: usize,
    seed: u64,
    u: &Vector<i64>,
    transposed: bool,
) -> (Matrix<i64>, DVec<i64>) {
    let mut rng = seed;
    // Row occupancy follows the class too, so a pull sees both the
    // full-length and the hypersparse result shape.
    let rows = positions(class.max(1), N, &mut rng);
    let mut tuples = Vec::new();
    for &i in &rows {
        for _ in 0..1 + splitmix(&mut rng) % 6 {
            tuples.push((
                i,
                (splitmix(&mut rng) as usize) % N,
                (splitmix(&mut rng) % 7) as i64 - 3,
            ));
        }
    }
    let a = Matrix::from_tuples(N, N, tuples, |_, b| b).expect("matrix");
    let du = DVec::from_vector(u);
    let mut t = DVec::new(N);
    for (i, j, x) in a.extract_tuples() {
        let (out, inp) = if transposed { (j, i) } else { (i, j) };
        if let Some(y) = du.val[inp] {
            t.val[out] = Some(t.val[out].unwrap_or(0) + x * y);
        }
    }
    (a, t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn ewise_add_matches_mimic(case in arb_case()) {
        let (u, v) = (case.u(), case.v());
        let (du, dv) = (DVec::from_vector(&u), DVec::from_vector(&v));
        let mut t = DVec::new(N);
        for i in 0..N {
            t.val[i] = match (du.val[i], dv.val[i]) {
                (Some(x), Some(y)) => Some(x - y),
                (x, y) => x.or(y),
            };
        }
        check(&case, &t, &everywhere, &|w, m, acc, d| {
            ewise_add(w, m, acc, binaryop::Minus, &u, &v, d).expect("ewise_add")
        })?;
    }

    #[test]
    fn ewise_mult_matches_mimic(case in arb_case()) {
        let (u, v) = (case.u(), case.v());
        let (du, dv) = (DVec::from_vector(&u), DVec::from_vector(&v));
        let mut t = DVec::new(N);
        for i in 0..N {
            t.val[i] = du.val[i].zip(dv.val[i]).map(|(x, y)| x - y);
        }
        check(&case, &t, &everywhere, &|w, m, acc, d| {
            ewise_mult(w, m, acc, binaryop::Minus, &u, &v, d).expect("ewise_mult")
        })?;
    }

    #[test]
    fn apply_and_select_match_mimic(case in arb_case()) {
        let u = case.u();
        let du = DVec::from_vector(&u);
        let mut t = DVec::new(N);
        for i in 0..N {
            t.val[i] = du.val[i].map(|x| -x);
        }
        check(&case, &t, &everywhere, &|w, m, acc, d| {
            apply(w, m, acc, unaryop::Ainv, &u, d).expect("apply")
        })?;
        for i in 0..N {
            t.val[i] = du.val[i].map(|x| x + i as i64);
        }
        check(&case, &t, &everywhere, &|w, m, acc, d| {
            apply_indexed(w, m, acc, |i: Index, _: Index, x: i64| x + i as i64, &u, d)
                .expect("apply_indexed")
        })?;
        for i in 0..N {
            t.val[i] = du.val[i].filter(|&x| (x + i as i64) % 3 != 0);
        }
        check(&case, &t, &everywhere, &|w, m, acc, d| {
            select(w, m, acc, |i: Index, _: Index, x: i64| (x + i as i64) % 3 != 0, &u, d)
                .expect("select")
        })?;
    }

    #[test]
    fn mxv_and_vxm_match_mimic(case in arb_case(), dual in any::<bool>()) {
        let u = case.u();
        for transposed in [false, true] {
            let (mut a, t) = matrix_and_product(case.classes.2, case.seed ^ 0x33, &u, transposed);
            a.set_dual_storage(dual);
            check(&case, &t, &everywhere, &|w, m, acc, d| {
                let mut d = *d;
                d.transpose_a = transposed;
                mxv(w, m, acc, &PLUS_TIMES, &a, &u, &d).expect("mxv")
            })?;
            // vxm(u, B) multiplies by Bᵀ, so feed it the other orientation.
            check(&case, &t, &everywhere, &|w, m, acc, d| {
                let mut d = *d;
                d.transpose_b = !transposed;
                vxm(w, m, acc, &PLUS_TIMES, &u, &a, &d).expect("vxm")
            })?;
        }
    }

    #[test]
    fn reduce_and_extract_match_mimic(case in arb_case()) {
        let u = case.u();
        // Row sums of a random matrix.
        let (a, _) = matrix_and_product(case.classes.2, case.seed ^ 0x77, &u, false);
        let mut t = DVec::new(N);
        for (i, _, x) in a.extract_tuples() {
            t.val[i] = Some(t.val[i].unwrap_or(0) + x);
        }
        check(&case, &t, &everywhere, &|w, m, acc, d| {
            reduce_matrix(w, m, acc, &binaryop::Plus, &a, d).expect("reduce_matrix")
        })?;
        // w = u(I) for a permuting, repeating index list; and one column.
        let mut rng = case.seed ^ 0x99;
        let list: Vec<Index> = (0..N).map(|_| (splitmix(&mut rng) as usize) % N).collect();
        let du = DVec::from_vector(&u);
        for (k, &i) in list.iter().enumerate() {
            t.val[k] = du.val[i];
        }
        check(&case, &t, &everywhere, &|w, m, acc, d| {
            extract(w, m, acc, &u, &IndexSel::List(list.clone()), d).expect("extract")
        })?;
        let col = (case.seed as usize) % N;
        t = DVec::new(N);
        for (i, j, x) in a.extract_tuples() {
            if j == col {
                t.val[i] = Some(x);
            }
        }
        check(&case, &t, &everywhere, &|w, m, acc, d| {
            extract_col(w, m, acc, &a, &IndexSel::All, col, d).expect("extract_col")
        })?;
    }

    #[test]
    fn assign_matches_mimic_in_every_region(case in arb_case(), region_kind in 0usize..3) {
        let mut rng = case.seed ^ 0xC3;
        let sel = match region_kind {
            0 => IndexSel::All,
            1 => {
                let lo = (splitmix(&mut rng) as usize) % N;
                IndexSel::Range(lo..lo + (splitmix(&mut rng) as usize) % (N - lo + 1))
            }
            _ => {
                // A non-repeating list in scrambled order.
                let mut l = positions(2 + (splitmix(&mut rng) as usize) % 3, N, &mut rng);
                l.reverse();
                IndexSel::List(l)
            }
        };
        let len = sel.len(N);
        let in_region = |i: Index| (0..len).any(|k| sel.nth(k) == i);
        // Vector assign: t[I[k]] = u[k], with u as long as the region.
        if len > 0 {
            let u = vector(case.classes.1, len, case.seed ^ 0x55);
            let du = DVec::from_vector(&u);
            let mut t = DVec::new(N);
            for k in 0..len {
                t.val[sel.nth(k)] = du.val[k];
            }
            check(&case, &t, &in_region, &|w, m, acc, d| {
                assign(w, m, acc, &u, &sel, d).expect("assign")
            })?;
        }
        // Scalar assign: 7 at every region position.
        let mut t = DVec::new(N);
        for k in 0..len {
            t.val[sel.nth(k)] = Some(7);
        }
        check(&case, &t, &in_region, &|w, m, acc, d| {
            assign_scalar(w, m, acc, 7, &sel, d).expect("assign_scalar")
        })?;
    }
}

// ---------------------------------------------------------------------------
// Form transitions: sparse ↔ full-length only on a crossed threshold, in
// both directions. (`Bitmap` and `Dense` name the full-length layout below
// and from a quarter full: a label that follows the count, not a rebuild.)
// ---------------------------------------------------------------------------

fn spread(count: usize) -> Vector<i64> {
    Vector::from_tuples(N, (0..count).map(|k| (k * (N / count), 1)).collect(), |_, b| b)
        .expect("vector")
}

/// Write `count` ones (spread evenly) into `w` under `accum`/`desc`.
fn write(w: &mut Vector<i64>, count: usize, acc: Option<binaryop::Plus>, desc: &Descriptor) {
    let ones = spread(count);
    apply(w, None, acc, unaryop::Identity, &ones, desc).expect("apply");
}

#[test]
fn accumulating_writes_promote_at_a_sixteenth_only() {
    // `check_with` traces under the lock; keep these writes out of its ring.
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let mut w = spread(4);
    assert_eq!(w.vector_format(), VectorFormat::Sparse);
    write(&mut w, 8, Some(binaryop::Plus), &Descriptor::default());
    assert_eq!((w.vector_format(), w.nvals()), (VectorFormat::Sparse, 8), "8 < n/16 stays sparse");
    write(&mut w, 16, Some(binaryop::Plus), &Descriptor::default());
    assert_eq!((w.vector_format(), w.nvals()), (VectorFormat::Bitmap, 16), "merge arm promotes");
    write(&mut w, 32, Some(binaryop::Plus), &Descriptor::default());
    assert_eq!((w.vector_format(), w.nvals()), (VectorFormat::Bitmap, 32), "written in place");
    write(&mut w, 64, Some(binaryop::Plus), &Descriptor::default());
    assert_eq!((w.vector_format(), w.nvals()), (VectorFormat::Dense, 64), "a quarter full");
    assert_eq!(w.get(0), Some(5), "every write accumulated at position 0");
}

#[test]
fn shrinking_writes_demote_below_a_thirty_second_only() {
    // `check_with` traces under the lock; keep these writes out of its ring.
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    // Masked no-accumulator writes of an empty T delete the allowed
    // positions, shrinking the output in place.
    let erase = |w: &mut Vector<i64>, keep: usize| {
        let keep_mask = spread(keep).pattern();
        let nothing = Vector::<i64>::new(N).expect("empty");
        apply(
            w,
            Some(&keep_mask),
            NOACC,
            unaryop::Identity,
            &nothing,
            &Descriptor::new().complement().structural(),
        )
        .expect("apply");
    };
    let mut w = spread(128);
    assert_eq!(w.vector_format(), VectorFormat::Dense);
    erase(&mut w, 32);
    assert_eq!((w.vector_format(), w.nvals()), (VectorFormat::Bitmap, 32), "below a quarter");
    erase(&mut w, 8);
    assert_eq!(
        (w.vector_format(), w.nvals()),
        (VectorFormat::Bitmap, 8),
        "8 = n/32 is inside the hysteresis band: a sparse vector this size would stay sparse"
    );
    erase(&mut w, 4);
    assert_eq!((w.vector_format(), w.nvals()), (VectorFormat::Sparse, 4), "full-length → sparse");
    assert_eq!(w.extract_tuples(), (0..4).map(|k| (k * 64, 1)).collect::<Vec<_>>());
}

#[test]
fn replace_under_a_sparse_mask_clears_a_dense_output_in_place() {
    // `check_with` traces under the lock; keep these writes out of its ring.
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let mut w = Vector::dense(N, 3i64).expect("dense");
    let m = spread(16).pattern();
    let t = spread(64);
    apply(&mut w, Some(&m), NOACC, unaryop::Identity, &t, &Descriptor::new().replace())
        .expect("apply");
    assert_eq!(w.nvals(), 16);
    assert_eq!(w.vector_format(), VectorFormat::Bitmap, "16 ≥ n/32: still full-length");
    assert!(w.iter().all(|(i, x)| i % 16 == 0 && x == 1));
}

// ---------------------------------------------------------------------------
// The promotion edge: a sparse output is promoted before the write, and
// written in place, when `T`'s allowed entries alone reach n/16; when
// only the merged count does, the write merges and `optimize_form`
// promotes after. Forms and values are those of merge-then-promote.
// ---------------------------------------------------------------------------

/// The positions `8j + 3`, `j < 24`, holding `j`.
fn t24() -> Vector<i64> {
    Vector::from_tuples(N, (0..24).map(|j| (8 * j + 3, j as i64)).collect(), |_, b| b).expect("t")
}

fn dvec(v: &Vector<i64>) -> DVec<i64> {
    DVec::from_vector(v)
}

#[test]
fn allowed_counts_either_side_of_a_sixteenth() {
    let u = t24();
    // One old entry, under T's first position, so the result holds
    // exactly the allowed part of T.
    let w0 = Vector::from_tuples(N, vec![(3, 100)], |_, b| b).expect("w");
    for allowed in [N / 16 - 1, N / 16] {
        for complement in [false, true] {
            // A valued mask over T's 24 positions: `allowed` of them pass,
            // the rest are stored `false`.
            let passes = |j: usize| (j < allowed) != complement;
            let tuples = (0..24).map(|j| (8 * j + 3, passes(j)));
            let m = Vector::from_tuples(N, tuples.collect(), |_, b| b).expect("mask");
            let desc = if complement { Descriptor::new().complement() } else { Descriptor::new() };
            let want_path = if allowed * 16 >= N { "inplace" } else { "merge" };
            let what = format!("{allowed} allowed, complement {complement}");
            for acc in [None, Some(binaryop::Plus)] {
                let paths = check_with(
                    &what,
                    &w0,
                    Some(&m),
                    acc,
                    &desc,
                    &dvec(&u),
                    &everywhere,
                    &|w, m, acc, d| apply(w, m, acc, unaryop::Identity, &u, d).expect("apply"),
                )
                .expect("apply");
                assert_eq!(paths, [want_path; 2], "apply: {what}");
            }
            // The same count as a fill: 7 at every position the mask allows.
            let mut t = DVec::new(N);
            for i in 0..N {
                let passes = m.get(i).is_some_and(|b| b) != complement;
                t.val[i] = passes.then_some(7);
            }
            if !complement {
                let paths = check_with(
                    &what,
                    &w0,
                    Some(&m),
                    None,
                    &desc,
                    &t,
                    &everywhere,
                    &|w, m, acc, d| {
                        assign_scalar(w, m, acc, 7, &IndexSel::All, d).expect("assign_scalar")
                    },
                )
                .expect("assign_scalar");
                assert_eq!(paths, [want_path; 2], "assign_scalar: {what}");
            }
        }
    }
}

#[test]
fn a_merged_count_that_crosses_a_sixteenth_merges_then_promotes() {
    // Eight old entries and eight new ones elsewhere: T alone stays below
    // n/16 = 16, the result reaches it.
    let w0 =
        Vector::from_tuples(N, (0..8).map(|j| (16 * j + 1, 1)).collect(), |_, b| b).expect("w");
    let u = Vector::from_tuples(N, (0..8).map(|j| (16 * j + 9, 2)).collect(), |_, b| b).expect("u");
    let paths = check_with(
        "accumulate",
        &w0,
        None,
        Some(binaryop::Plus),
        &Descriptor::new(),
        &dvec(&u),
        &everywhere,
        &|w, m, acc, d| apply(w, m, acc, unaryop::Identity, &u, d).expect("apply"),
    )
    .expect("apply");
    assert_eq!(paths, ["merge"; 2]);
    let m = u.pattern();
    let mut t = DVec::new(N);
    for (i, _) in u.iter() {
        t.val[i] = Some(7);
    }
    let desc = Descriptor::new().structural();
    let paths = check_with("fill", &w0, Some(&m), None, &desc, &t, &everywhere, &|w, m, acc, d| {
        assign_scalar(w, m, acc, 7, &IndexSel::All, d).expect("assign_scalar")
    })
    .expect("assign_scalar");
    assert_eq!(paths, ["merge"; 2]);
    let mut w = w0.clone();
    apply(&mut w, None, Some(binaryop::Plus), unaryop::Identity, &u, &Descriptor::new())
        .expect("apply");
    assert_eq!((w.vector_format(), w.nvals()), (VectorFormat::Bitmap, 16));
}

#[test]
fn a_valued_sparse_mask_with_false_entries_is_probed_as_stored() {
    // Twelve mask entries (sparse: < n/16), every other one `false`. At
    // this length each op below probes the mask at ≥ n/64 positions, so
    // it answers from presence words that hold the `true` entries only.
    let m = Vector::from_tuples(N, (0..12).map(|j| (20 * j + 5, j % 2 == 0)).collect(), |_, b| b)
        .expect("mask");
    assert_eq!(m.vector_format(), VectorFormat::Sparse);
    let w0 =
        Vector::from_tuples(N, (0..6).map(|j| (40 * j + 5, 50 + j as i64)).collect(), |_, b| b)
            .expect("w");
    let u = vector(1, N, 0x5EED);
    let dense = Vector::dense(N, 3i64).expect("dense");
    let (mut a, product) = matrix_and_product(4, 0xA11, &u, false);
    a.set_dual_storage(true);
    let du = dvec(&u);
    let mut mult = DVec::new(N);
    let mut fill = DVec::new(N);
    for i in 0..N {
        mult.val[i] = du.val[i].map(|x| x - 3);
        fill.val[i] = Some(7);
    }
    for flags in [0u8, 1, 4, 5, 8, 9, 12, 13] {
        // Plain and complemented, with and without replace and accumulator;
        // never structural, so the stored `false`s must block.
        let (desc, acc) = (descriptor(flags), accum(flags));
        let what = format!("flags {flags}");
        for direction in [Direction::Push, Direction::Pull] {
            let d = desc.direction(direction);
            check_with(&what, &w0, Some(&m), acc, &d, &product, &everywhere, &|w, m, acc, d| {
                mxv(w, m, acc, &PLUS_TIMES, &a, &u, d).expect("mxv")
            })
            .expect("mxv");
        }
        check_with(&what, &w0, Some(&m), acc, &desc, &fill, &everywhere, &|w, m, acc, d| {
            assign_scalar(w, m, acc, 7, &IndexSel::All, d).expect("assign_scalar")
        })
        .expect("assign_scalar");
        check_with(&what, &w0, Some(&m), acc, &desc, &mult, &everywhere, &|w, m, acc, d| {
            ewise_mult(w, m, acc, binaryop::Minus, &u, &dense, d).expect("ewise_mult")
        })
        .expect("ewise_mult");
    }
}

// ---------------------------------------------------------------------------
// A masked scalar fill of the whole vector writes a word at a time when the
// mask holds presence words of its true entries and nothing else is asked
// of the write; every other fill visits the allowed positions one by one.
// ---------------------------------------------------------------------------

/// The `fill` argument of the write span `assign_scalar` leaves, at
/// `threads` threads.
fn fill_kind(
    w0: &Vector<i64>,
    m: &Vector<bool>,
    acc: Option<binaryop::Plus>,
    desc: &Descriptor,
    threads: usize,
) -> Option<&'static str> {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    set_par_threshold(1);
    set_threads(threads);
    let mut w = w0.clone();
    trace::clear();
    trace::enable();
    assign_scalar(&mut w, Some(m), acc, 7, &IndexSel::All, desc).expect("assign_scalar");
    trace::disable();
    set_threads(0);
    set_par_threshold(0);
    trace::drain().iter().rev().find(|e| e.name == "write").and_then(|e| e.arg_str("fill"))
}

#[test]
fn a_masked_fill_goes_a_word_at_a_time_only_where_the_words_are_the_rule() {
    // A full-length output with entries on and off every mask below.
    let w0 = vector(4, N, 0xF111);
    assert_ne!(w0.vector_format(), VectorFormat::Sparse);
    // A full-length mask (72 entries), every third one a stored `false`,
    // and a sparse one (12 entries, all `true`).
    let full = Vector::from_tuples(N, (0..72).map(|j| (3 * j + 1, j % 3 != 0)).collect(), |_, b| b)
        .expect("full mask");
    let sparse = Vector::from_tuples(N, (0..12).map(|j| (20 * j + 5, true)).collect(), |_, b| b)
        .expect("sparse mask");
    assert_ne!(full.vector_format(), VectorFormat::Sparse);
    assert_eq!(sparse.vector_format(), VectorFormat::Sparse);
    let structural = Descriptor::new().structural();
    let cases = [
        ("full-length structural mask", &full, None, structural, "words"),
        // Probed at ≥ n/64 positions, the sparse mask is readied into words.
        ("readied sparse mask", &sparse, None, Descriptor::new(), "words"),
        // A valued full-length mask's `false`s are set in its presence
        // words: the words are not the allowed positions.
        ("valued mask with stored false", &full, None, Descriptor::new(), "entries"),
        ("complemented mask", &full, None, structural.complement(), "entries"),
        ("accumulator", &full, Some(binaryop::Plus), structural, "entries"),
    ];
    for (what, m, acc, desc, want) in cases {
        let mut t = DVec::new(N);
        for i in 0..N {
            let true_entry = m.get(i).is_some_and(|b| b || desc.mask_structural);
            t.val[i] = (true_entry != desc.mask_complement).then_some(7);
        }
        let paths = check_with(what, &w0, Some(m), acc, &desc, &t, &everywhere, &|w, m, acc, d| {
            assign_scalar(w, m, acc, 7, &IndexSel::All, d).expect("assign_scalar")
        })
        .expect("assign_scalar");
        assert_eq!(paths, ["inplace"; 2], "{what}");
        for threads in [1, 8] {
            assert_eq!(
                fill_kind(&w0, m, acc, &desc, threads),
                Some(want),
                "{what}, {threads} threads"
            );
        }
    }
    // A sparse output the fill promotes first takes the word path too.
    let w0 = Vector::from_tuples(N, vec![(4, 100), (200, -1)], |_, b| b).expect("w");
    let mut t = DVec::new(N);
    for i in 0..N {
        t.val[i] = full.get(i).map(|_| 7);
    }
    let paths = check_with(
        "promoted",
        &w0,
        Some(&full),
        None,
        &structural,
        &t,
        &everywhere,
        &|w, m, acc, d| assign_scalar(w, m, acc, 7, &IndexSel::All, d).expect("assign_scalar"),
    )
    .expect("assign_scalar");
    assert_eq!(paths, ["inplace"; 2], "promoted");
    assert_eq!(fill_kind(&w0, &full, None, &structural, 8), Some("words"));
}
