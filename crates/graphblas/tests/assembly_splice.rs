//! Differential tests for assembly: the direct CSR splice (and the
//! hypersparse tuple merge beside it) against a `BTreeMap` oracle.
//!
//! Every script — random interleavings of `set_element`,
//! `remove_element`, re-inserts, duplicate writes and `wait`, plus the
//! hand-written corner cases below — runs over every storage form, with
//! dual storage off and on, at 1 and 8 threads (parallel threshold forced
//! to 1, so even these tiny matrices take the chunked fill). With dual
//! storage on, a kernel read builds the cached transpose mid-script;
//! later writes mark it stale and assembly patches it, and push and pull
//! products over the patched dual must equal the same products over a
//! matrix built from scratch. `Matrix::with_edits`, which writes one
//! matrix's successor without touching it, is held to the oracle and to the
//! three-step replay it replaces: once from every storage form, and along
//! chains of up to 300 publishes through the layered form it gives a CSR
//! matrix, where overlays grow and fold into fresh bases.

use std::collections::BTreeMap;
use std::sync::Mutex;

use graphblas::parallel::{set_par_threshold, set_threads};
use graphblas::prelude::*;
use graphblas::semiring::PLUS_TIMES;
use proptest::prelude::*;

/// Logical dimension of every script: indices are `0..N`.
const N: Index = 8;

/// Thread count and threshold are process-wide; scripts from
/// concurrently-running test functions must not interleave their toggles.
static GLOBALS: Mutex<()> = Mutex::new(());

#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    Csr,
    Csc,
    HyperCsr,
    HyperCsc,
}

const FORMS: [Form; 4] = [Form::Csr, Form::Csc, Form::HyperCsr, Form::HyperCsc];

impl Form {
    fn hyper(self) -> bool {
        matches!(self, Form::HyperCsr | Form::HyperCsc)
    }

    /// The matrix dimension: past the standard pointer-array limit for
    /// the hypersparse forms, so they never fall back to CSR.
    fn dim(self) -> Index {
        if self.hyper() {
            1 << 30
        } else {
            N
        }
    }

    /// Spread a logical index over the dimension.
    fn at(self, k: Index) -> Index {
        if self.hyper() {
            k * 0x0800_0001
        } else {
            k
        }
    }

    fn new_matrix(self, dual: bool) -> Matrix<i64> {
        let mut m = Matrix::new(self.dim(), self.dim()).expect("new");
        if matches!(self, Form::Csc | Form::HyperCsc) {
            m.set_col_major();
        }
        m.set_dual_storage(dual);
        m
    }
}

#[derive(Debug, Clone)]
enum Op {
    Set(Index, Index, i64),
    Remove(Index, Index),
    Wait,
    /// A kernel read, which assembles, converts to row-major and builds
    /// the dual. Skipped when dual storage is off, so the column-major
    /// forms stay column-major until the script's final check.
    Read,
}

type Model = BTreeMap<(Index, Index), i64>;

fn tuples_of(model: &Model, form: Form) -> Vec<(Index, Index, i64)> {
    model.iter().map(|(&(i, j), &v)| (form.at(i), form.at(j), v)).collect()
}

/// `A·u` and `Aᵀ·u`, each pushed and pulled: between them they read the
/// rows and the dual in both roles.
fn products(m: &Matrix<i64>) -> Vec<Vec<(Index, i64)>> {
    let n = m.nrows();
    let u = Vector::from_tuples(n, (0..n).map(|k| (k, k as i64 + 1)).collect(), |_, b| b)
        .expect("input vector");
    let mut out = Vec::new();
    for transpose in [false, true] {
        for direction in [Direction::Push, Direction::Pull] {
            let mut desc = Descriptor::new().direction(direction);
            if transpose {
                desc = desc.transpose_a();
            }
            let mut w = Vector::<i64>::new(n).expect("output vector");
            mxv(&mut w, None, NOACC, &PLUS_TIMES, m, &u, &desc).expect("mxv");
            out.push(w.extract_tuples());
        }
    }
    out
}

/// The whole observable state must equal the oracle's.
fn check_against(m: &Matrix<i64>, model: &Model, form: Form, what: &str) {
    assert_eq!(m.extract_tuples(), tuples_of(model, form), "{what}: tuples");
    assert_eq!(m.nvals(), model.len(), "{what}: nvals");
    if !form.hyper() {
        let mut fresh = Matrix::from_tuples(N, N, tuples_of(model, form), |_, b| b).expect("fresh");
        fresh.set_dual_storage(m.dual_storage());
        assert_eq!(products(m), products(&fresh), "{what}: products over the patched dual");
    }
}

/// Run one script on one configuration, checking point reads after every
/// write and the whole state at every `Wait`/`Read` and at the end.
fn run_script(ops: &[Op], form: Form, dual: bool, threads: usize) {
    let what = format!("{form:?} dual={dual} threads={threads}");
    set_threads(threads);
    let mut m = form.new_matrix(dual);
    let mut model = Model::new();
    for op in ops {
        match *op {
            Op::Set(i, j, v) => {
                m.set_element(form.at(i), form.at(j), v).expect("set");
                model.insert((i, j), v);
                assert_eq!(m.get(form.at(i), form.at(j)), Some(v), "{what}: read own write");
            }
            Op::Remove(i, j) => {
                m.remove_element(form.at(i), form.at(j)).expect("remove");
                model.remove(&(i, j));
                assert_eq!(m.get(form.at(i), form.at(j)), None, "{what}: read own delete");
            }
            Op::Wait => {
                m.wait();
                assert_eq!(m.deferred(), (0, 0), "{what}: wait left work behind");
                assert_eq!(m.nvals(), model.len(), "{what}: nvals after wait");
            }
            Op::Read if dual => check_against(&m, &model, form, &what),
            Op::Read => {}
        }
    }
    check_against(&m, &model, form, &what);
}

/// Every storage form × dual off/on × 1 and 8 threads.
fn run_everywhere(ops: &[Op]) {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    set_par_threshold(1);
    for form in FORMS {
        for dual in [false, true] {
            for threads in [1, 8] {
                run_script(ops, form, dual, threads);
            }
        }
    }
    set_threads(0);
    set_par_threshold(0);
}

/// A base pattern assembled and read (so the dual exists) before the
/// delta under test: two or three entries in every row.
fn base() -> Vec<Op> {
    let mut ops: Vec<Op> = (0..N)
        .flat_map(|i| [(i, i), (i, (i + 3) % N), (i, (i * 5 + 1) % N)])
        .map(|(i, j)| Op::Set(i, j, (i * N + j) as i64))
        .collect();
    ops.extend([Op::Wait, Op::Read]);
    ops
}

fn after_base(delta: impl IntoIterator<Item = Op>) -> Vec<Op> {
    let mut ops = base();
    ops.extend(delta);
    ops.push(Op::Wait);
    ops
}

#[test]
fn empty_delta_changes_nothing() {
    // Nothing pending; then in-place updates only, which leave no
    // structural work (the store is not reassembled, the dual is patched).
    run_everywhere(&after_base([Op::Wait]));
    run_everywhere(&after_base([Op::Set(0, 0, -1), Op::Set(N - 1, N - 1, -2)]));
}

#[test]
fn delta_in_the_first_or_last_row_only() {
    for row in [0, N - 1] {
        run_everywhere(&after_base([Op::Set(row, 1, 7), Op::Set(row, 6, 8), Op::Remove(row, row)]));
    }
    // First and last column too: the first and last row of the dual.
    for col in [0, N - 1] {
        run_everywhere(&after_base([Op::Set(2, col, 7), Op::Set(5, col, 8), Op::Remove(col, col)]));
    }
}

#[test]
fn delta_that_empties_a_row() {
    for row in [0, 3, N - 1] {
        run_everywhere(&after_base((0..N).map(|j| Op::Remove(row, j))));
    }
    // ... and one that refills it in the same assembly, and after it.
    let refill = (0..N).map(|j| Op::Remove(3, j)).chain([Op::Set(3, 2, 9)]);
    run_everywhere(&after_base(refill.clone()));
    run_everywhere(&after_base(refill.chain([Op::Wait, Op::Set(3, 4, 10), Op::Set(3, 0, 11)])));
}

#[test]
fn delta_larger_than_the_matrix() {
    // Two stored entries, then a write at every position (duplicates
    // included), then most of them deleted again.
    let mut ops = vec![Op::Set(1, 1, 1), Op::Set(6, 2, 2), Op::Wait, Op::Read];
    for pass in 0..2 {
        ops.extend((0..N * N).map(|k| Op::Set(k / N, k % N, (k + pass * 100) as i64)));
    }
    ops.push(Op::Wait);
    ops.extend((0..N * N).filter(|k| k % 5 != 0).map(|k| Op::Remove(k / N, k % N)));
    ops.push(Op::Wait);
    run_everywhere(&ops);
    // Everything deleted: assembly down to an empty matrix.
    run_everywhere(&after_base((0..N * N).map(|k| Op::Remove(k / N, k % N))));
}

#[test]
fn delete_cancels_pending_and_reinsert_resurrects() {
    run_everywhere(&after_base([
        Op::Set(2, 6, 1), // pending insertion ...
        Op::Remove(2, 6), // ... cancelled by a tombstone ...
        Op::Set(2, 6, 2), // ... and written again: the last write wins.
        Op::Remove(4, 4), // zombie ...
        Op::Set(4, 4, 3), // ... resurrected in place.
        Op::Remove(5, 5), // zombie that stays dead,
        Op::Remove(5, 5), // killed twice.
        Op::Remove(7, 2), // nothing there at all.
    ]));
}

/// The dual a source matrix holds when `with_edits` runs on it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum DualState {
    /// Dual storage off.
    Off,
    /// A second copy (a CSR one on CSR storage): the base is not symmetric.
    Copy,
    /// The rows themselves: the base is symmetric plain CSR.
    Rows,
}

/// A `with_edits` source: a symmetric pattern (plus, unless the dual is to
/// be the rows, one unmirrored entry) in `form`, or compressed. With dual
/// storage on it is read once, which builds the dual (and turns a
/// column-major form row-major); with it off it stays in its form.
fn splice_source(form: Form, compressed: bool, dual: DualState) -> (Matrix<i64>, Model) {
    let mut model = Model::new();
    for i in 0..N {
        for j in [i, (i + 3) % N] {
            let v = (i * j) as i64 + 1;
            model.insert((i, j), v);
            model.insert((j, i), v);
        }
    }
    if dual != DualState::Rows {
        model.insert((0, N - 1), -5);
    }
    let mut m = form.new_matrix(dual != DualState::Off);
    m.apply_edits(model.iter().map(|(&(i, j), &v)| (form.at(i), form.at(j), Some(v))))
        .expect("source");
    if compressed {
        m.set_compressed(true);
    }
    if dual != DualState::Off {
        m.extract_tuples();
    }
    (m, model)
}

/// Every entry of `m` by point reads, which leave its form as it is.
fn entries(m: &Matrix<i64>, form: Form) -> Vec<(Index, Index, i64)> {
    (0..N * N)
        .filter_map(|k| Some((k / N, k % N, m.get(form.at(k / N), form.at(k % N))?)))
        .collect()
}

/// The deltas each source takes: mirrored (the last write to each arc
/// equals the last write to its mirror, as an undirected service epoch's
/// are) and one-sided; both re-write, insert, delete, delete an absent
/// entry and write a position twice.
fn splice_deltas() -> [(&'static str, Edits); 2] {
    let one_sided = vec![
        (1, 2, Some(40)),
        (0, 3, None),
        (5, 5, Some(9)),
        (6, 1, None),
        (2, 7, Some(1)),
        (2, 7, Some(11)),
    ];
    let mirrored = one_sided.iter().flat_map(|&(i, j, x)| [(i, j, x), (j, i, x)]).collect();
    [("mirrored", mirrored), ("one-sided", one_sided)]
}

#[test]
fn with_edits_equals_the_map_oracle_and_the_replay_it_replaces() {
    // Every storage form and compression, with no dual, a held copy and the
    // rows as the dual, under a mirrored and a one-sided delta, at 1 and 8
    // threads: the one write pass must equal the oracle, and clone +
    // `apply_edits` + `wait`, and leave its source untouched; products over
    // whatever dual the result carries must equal those over a fresh build.
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    set_par_threshold(1);
    let storages = FORMS.iter().map(|&f| (f, false)).chain([(Form::Csr, true)]);
    for threads in [1, 8] {
        set_threads(threads);
        for (form, compressed) in storages.clone() {
            for dual in [DualState::Off, DualState::Copy, DualState::Rows] {
                let (src, base) = splice_source(form, compressed, dual);
                let (before, format) = (entries(&src, form), src.format());
                assert_eq!(src.is_compressed(), compressed);
                if dual != DualState::Off && !form.hyper() && !compressed {
                    let rows = src.memory_usage().dual_bytes == 0;
                    assert_eq!(rows, dual == DualState::Rows, "{form:?} {dual:?}");
                }
                for (label, delta) in splice_deltas() {
                    let what = format!(
                        "{form:?} compressed={compressed} {dual:?} {label} threads={threads}"
                    );
                    let edits: Vec<_> =
                        delta.iter().map(|&(i, j, x)| (form.at(i), form.at(j), x)).collect();
                    let next = src.with_edits(&edits).expect("with_edits");
                    let mut model = base.clone();
                    for &(i, j, x) in &delta {
                        match x {
                            Some(v) => model.insert((i, j), v),
                            None => model.remove(&(i, j)),
                        };
                    }
                    let mut replay = src.clone();
                    replay.apply_edits(edits.iter().copied()).expect("replay");
                    replay.wait();
                    assert_eq!(next.format(), replay.format(), "{what}: form");
                    assert_eq!(next.dual_storage(), dual != DualState::Off, "{what}");
                    assert_eq!(next.extract_tuples(), replay.extract_tuples(), "{what}: replay");
                    check_against(&next, &model, form, &what);
                    assert_eq!((entries(&src, form), src.format()), (before.clone(), format));
                }
            }
        }
    }
    set_threads(0);
    set_par_threshold(0);
}

#[test]
fn with_edits_fails_closed_on_an_out_of_bounds_edit() {
    for (form, compressed) in FORMS.iter().map(|&f| (f, false)).chain([(Form::Csr, true)]) {
        let (src, _) = splice_source(form, compressed, DualState::Copy);
        let before = (entries(&src, form), src.memory_usage());
        let dim = form.dim();
        for bad in [(dim, 0), (0, dim), (usize::MAX, usize::MAX)] {
            // A good edit ahead of the bad one must not land either.
            let edits = [(0, 0, Some(77)), (bad.0, bad.1, Some(1))];
            let err = src.with_edits(&edits).expect_err("out of bounds");
            let mut replay = src.clone();
            let want = replay.apply_edits(edits).expect_err("apply_edits agrees");
            assert_eq!(err, want, "{form:?} {bad:?}");
            assert_eq!((entries(&src, form), src.memory_usage()), before, "{form:?} {bad:?}");
        }
    }
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            ((0..N, 0..N), -100i64..100).prop_map(|((i, j), v)| Op::Set(i, j, v)),
            ((0..N, 0..N), -100i64..100).prop_map(|((i, j), v)| Op::Set(i, j, v)),
            (0..N, 0..N).prop_map(|(i, j)| Op::Remove(i, j)),
            Just(Op::Wait),
            Just(Op::Read),
        ],
        0..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary interleavings: pending tuples, tombstones, zombies,
    /// in-place updates, the splice and the dual patch are all invisible
    /// to the observer, in every form, at any thread count.
    #[test]
    fn random_interleavings_match_the_map_model(ops in arb_ops()) {
        run_everywhere(&ops);
    }
}

/// Dimension of the `with_edits` chains: a base of three entries a row
/// keeps a one-edit epoch's rows under the fold cut (an eighth of the
/// base) for a few epochs, and a chain of a few dozen crosses it.
const CHAIN_N: Index = 24;

type Edits = Vec<(Index, Index, Option<i64>)>;

/// A chain source: a symmetric pattern of three entries a row (plus one
/// unmirrored entry unless its rows are to serve as its dual), read once
/// when dual storage is on so the dual exists.
fn chain_source(dual: DualState) -> (Matrix<i64>, Model) {
    let mut model = Model::new();
    for i in 0..CHAIN_N {
        let j = (i + 5) % CHAIN_N;
        let v = (i * j) as i64 % 7 + 1;
        model.insert((i, i), i as i64);
        model.insert((i, j), v);
        model.insert((j, i), v);
    }
    if dual != DualState::Rows {
        model.insert((0, CHAIN_N - 1), -5);
    }
    let mut m = Matrix::new(CHAIN_N, CHAIN_N).expect("new");
    m.set_dual_storage(dual != DualState::Off);
    m.apply_edits(model.iter().map(|(&(i, j), &v)| (i, j, Some(v)))).expect("source");
    m.extract_tuples();
    (m, model)
}

fn model_tuples(model: &Model) -> Vec<(Index, Index, i64)> {
    model.iter().map(|(&(i, j), &v)| (i, j, v)).collect()
}

/// Publish every epoch of `chain` in turn, each from the one before, and
/// hold each to the oracle, to clone + `apply_edits` + `wait` of its
/// predecessor, and — through products over its dual — to a fresh build;
/// the predecessor must read as it did. Under the rows-as-dual state the
/// epochs are mirrored, and the state must survive every one. Returns how
/// many publishes shared their predecessor's base and how many folded.
fn run_chain(chain: &[Edits], dual: DualState) -> (usize, usize) {
    let (mut m, mut model) = chain_source(dual);
    let (mut shared, mut folded) = (0, 0);
    for (e, epoch) in chain.iter().enumerate() {
        let what = format!("{dual:?} epoch {e}");
        let delta: Edits = match dual {
            DualState::Rows => epoch.iter().flat_map(|&(i, j, x)| [(i, j, x), (j, i, x)]).collect(),
            _ => epoch.clone(),
        };
        let before = m.extract_tuples();
        let next = m.with_edits(&delta).expect("with_edits");
        for &(i, j, x) in &delta {
            match x {
                Some(v) => model.insert((i, j), v),
                None => model.remove(&(i, j)),
            };
        }
        let mut replay = m.clone();
        replay.apply_edits(delta.iter().copied()).expect("replay");
        replay.wait();
        assert_eq!(next.extract_tuples(), model_tuples(&model), "{what}: oracle");
        assert_eq!(next.extract_tuples(), replay.extract_tuples(), "{what}: replay");
        assert_eq!(m.extract_tuples(), before, "{what}: the source changed");
        let layers = next.layers().expect("a CSR matrix publishes layered");
        assert_eq!(next.shares_base(&m), !layers.folded, "{what}: {layers:?}");
        if layers.folded {
            assert_eq!(layers.overlay_rows, 0, "{what}: a fold left an overlay");
            folded += 1;
        } else {
            shared += 1;
        }
        if dual == DualState::Rows {
            assert_eq!(next.memory_usage().dual_bytes, 0, "{what}: the rows stopped serving");
        }
        let mut fresh =
            Matrix::from_tuples(CHAIN_N, CHAIN_N, model_tuples(&model), |_, b| b).expect("fresh");
        fresh.set_dual_storage(dual != DualState::Off);
        assert_eq!(products(&next), products(&fresh), "{what}: products over the dual");
        m = next;
    }
    (shared, folded)
}

/// Every dual state at 1 and 8 threads, the parallel threshold forced to 1
/// so the fold's bulk copy takes the chunked path. Returns the fewest
/// shared and the fewest folded publishes any configuration saw.
fn run_chain_everywhere(chain: &[Edits]) -> (usize, usize) {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    set_par_threshold(1);
    let mut fewest = (usize::MAX, usize::MAX);
    for threads in [1, 8] {
        set_threads(threads);
        for dual in [DualState::Off, DualState::Copy, DualState::Rows] {
            let (shared, folded) = run_chain(chain, dual);
            fewest = (fewest.0.min(shared), fewest.1.min(folded));
        }
    }
    set_threads(0);
    set_par_threshold(0);
    fewest
}

#[test]
fn a_chain_of_publishes_shares_bases_and_folds_at_the_cut() {
    // One insert an epoch into a fresh row: each publish adds a row of four
    // entries to the overlay (two, mirrored), which crosses an eighth of
    // the 72-entry base within three epochs of a fold — and the first
    // publish from plain CSR writes a base of its own. Both kinds must
    // occur, in every configuration.
    let chain: Vec<Edits> = (0..12).map(|i| vec![(i, (i + 12) % CHAIN_N, Some(3))]).collect();
    let (shared, folded) = run_chain_everywhere(&chain);
    assert!(shared >= 3 && folded >= 3, "shared {shared}, folded {folded}");
}

#[test]
fn a_long_run_of_small_publishes_folds_on_the_handles_it_copies() {
    // A 1024-entry base and 150 publishes that alternate an empty Δ with
    // one re-weight of a two-entry row. The entries alone would cross an
    // eighth of the base only after 128 publishes; each publish also
    // copies one handle per overlay segment before its own, and those
    // fold the overlay every 16 publishes or so.
    const N: Index = 512;
    let mut model = Model::new();
    for i in 0..N {
        model.insert((i, i), 1);
        model.insert((i, (i + 1) % N), 2);
    }
    let mut m = Matrix::from_tuples(N, N, model_tuples(&model), |_, b| b).expect("source");
    let (mut spent, mut segments, mut want, mut got) = (0, 0, Vec::new(), Vec::new());
    for p in 1..=150usize {
        let delta: Edits = match p % 2 {
            0 => vec![(p % N, p % N, Some(p as i64))],
            _ => Vec::new(),
        };
        let now = spent + 2 * delta.len() + segments;
        if p == 1 || now * 8 > 2 * N {
            want.push(p);
            (spent, segments) = (0, 0);
        } else {
            (spent, segments) = (now, segments + 1);
        }
        let before = m.extract_tuples();
        let next = m.with_edits(&delta).expect("with_edits");
        for &(i, j, x) in &delta {
            model.insert((i, j), x.expect("a re-weight"));
        }
        assert_eq!(next.extract_tuples(), model_tuples(&model), "publish {p}: oracle");
        assert_eq!(m.extract_tuples(), before, "publish {p}: the source changed");
        let layers = next.layers().expect("layered");
        assert_eq!(next.shares_base(&m), !layers.folded, "publish {p}: {layers:?}");
        if layers.folded {
            assert_eq!(layers.overlay_rows, 0, "publish {p}: {layers:?}");
            got.push(p);
        }
        m = next;
    }
    assert!(want.len() > 8 && want.windows(2).all(|w| w[1] - w[0] < 20), "{want:?}");
    assert_eq!(got, want);
}

#[test]
fn a_write_to_a_layered_matrix_folds_it_first() {
    // A second publish holds an overlay; each write path, and each change
    // of storage form, must fold it into plain CSR before it writes, and
    // leave the snapshot it came from as it was.
    type Write = fn(&mut Matrix<i64>, &mut Model);
    let writes: [(&str, Write); 5] = [
        ("set_element", |m, model| {
            m.set_element(3, 20, 11).expect("set");
            model.insert((3, 20), 11);
        }),
        ("remove_element", |m, model| {
            m.remove_element(4, 9).expect("remove");
            model.remove(&(4, 9));
        }),
        ("apply_edits", |m, model| {
            m.apply_edits([(4, 4, None), (5, 1, Some(2))]).expect("apply");
            model.remove(&(4, 4));
            model.insert((5, 1), 2);
        }),
        ("set_compressed", |m, _| m.set_compressed(true)),
        ("set_col_major", |m, _| m.set_col_major()),
    ];
    for dual in [DualState::Off, DualState::Copy, DualState::Rows] {
        for (label, write) in writes {
            let what = format!("{dual:?} {label}");
            let (src, mut model) = chain_source(dual);
            let first = src.with_edits(&[]).expect("first publish");
            let layered = first.with_edits(&[(4, 9, Some(8)), (9, 4, Some(8))]).expect("second");
            model.insert((4, 9), 8);
            model.insert((9, 4), 8);
            assert!(layered.layers().is_some_and(|l| l.overlay_rows == 2), "{what}");
            let published = layered.extract_tuples();
            let mut w = layered.clone();
            write(&mut w, &mut model);
            assert_eq!(w.layers(), None, "{what}: the write left the layers in place");
            assert!(!w.shares_base(&layered), "{what}");
            assert_eq!(w.extract_tuples(), model_tuples(&model), "{what}: oracle");
            let mut fresh = Matrix::from_tuples(CHAIN_N, CHAIN_N, model_tuples(&model), |_, b| b)
                .expect("fresh");
            fresh.set_dual_storage(dual != DualState::Off);
            assert_eq!(products(&w), products(&fresh), "{what}: products over the dual");
            assert_eq!(layered.extract_tuples(), published, "{what}: the snapshot changed");
            assert!(layered.shares_base(&first), "{what}");
        }
    }
}

/// One epoch of a chain: one to three writes, drawn from inserts and
/// re-weights anywhere, deletes, the hub row 0, and the diagonal.
fn arb_epoch() -> impl Strategy<Value = Edits> {
    let n = CHAIN_N;
    proptest::collection::vec(
        prop_oneof![
            ((0..n, 0..n), -50i64..50).prop_map(|((i, j), v)| (i, j, Some(v))),
            (0..n, 0..n).prop_map(|(i, j)| (i, j, None)),
            (0..n, -50i64..50).prop_map(|(j, v)| (0, j, Some(v))),
            (0..n, proptest::option::of(-50i64..50)).prop_map(|(i, x)| (i, i, x)),
        ],
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Chains of 1–300 publishes: overlays grow, rows are rewritten while
    /// they sit in the overlay, hub and diagonal rows churn, and folds come
    /// round — every epoch equal to the oracle and to the replay.
    #[test]
    fn random_publish_chains_match_the_map_model(
        chain in proptest::collection::vec(arb_epoch(), 1..300)
    ) {
        run_chain_everywhere(&chain);
    }
}
