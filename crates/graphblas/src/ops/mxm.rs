//! `GrB_mxm`: matrix-matrix multiply over a semiring, in the three kernel
//! families §II.A attributes to SuiteSparse:GraphBLAS — Gustavson's
//! row-wise saxpy method, a dot-product method (the masked variant is the
//! triangle-counting workhorse), and a heap-based multi-way merge — each
//! usable with masks, selected automatically or forced via
//! [`MxmMethod`] in the descriptor. `Auto` compares saturating flops
//! estimates for the masked-dot and Gustavson paths under the measured
//! [`crate::cost`] model (replacing the old `mask.nvals() <= 4 * out_rows`
//! rule, which could overflow on hypersparse dimensions).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::binaryop::BinaryOp;
use crate::cost;
use crate::descriptor::{Descriptor, MxmMethod};
use crate::error::Result;
use crate::matrix::{rows_of, EffView, Matrix};
use crate::monoid::Monoid;
use crate::parallel::Chunking;
use crate::semiring::Semiring;
use crate::sparse::{RowScratch, SparseView};
use crate::types::{Index, Scalar};
use crate::vector::{DenseAcc, Slot};

use super::common::{check_dims, check_mmask, par_mask_rows, par_rows, MMask};
use super::shape::{self, Shape};
use super::write::write_matrix;

/// Dense per-row accumulator is used up to this minor dimension; beyond
/// it (hypersparse operands) a tree accumulator avoids `O(n)` memory.
const DENSE_ACC_LIMIT: usize = 1 << 26;

/// `C⟨Mask⟩ ⊙= A ⊕.⊗ B`, with optional input transposes.
pub fn mxm<A, B, T, SA, SM, Acc>(
    c: &mut Matrix<T>,
    mask: Option<&Matrix<bool>>,
    accum: Option<Acc>,
    semiring: &Semiring<SA, SM>,
    a: &Matrix<A>,
    b: &Matrix<B>,
    desc: &Descriptor,
) -> Result<()>
where
    A: Scalar,
    B: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    SM: BinaryOp<A, B, T>,
    Acc: BinaryOp<T, T, T>,
{
    let mut span = crate::trace::op_span(crate::trace::Op::Mxm);
    let ga = a.read_rows();
    let gb = b.read_rows();
    let ea = EffView::new(&ga, desc.transpose_a);
    let av = ea.view();
    // Shapes of the *effective* operands.
    let (bm, bn) = if desc.transpose_b { (gb.ncols, gb.nrows) } else { (gb.nrows, gb.ncols) };
    check_dims(av.nminor() == bm, "mxm: inner dimensions must agree")?;
    let (nr, nc) = (av.nmajor(), bn);
    check_dims(c.nrows() == nr && c.ncols() == nc, "mxm: output shape mismatch")?;
    check_mmask(mask, nr, nc)?;

    let mguard = mask.map(|m| m.read_rows());
    let mview = mguard.as_ref().map(|g| rows_of(&**g));
    let meval = MMask::new(mview, desc);

    // Saturating flops estimates for the two auto candidates: Gustavson
    // expands an average-degree row of B per A entry; the masked dot path
    // computes one combined-degree dot per stored mask entry (only
    // meaningful for a plain, non-complemented mask).
    let a_nnz = av.nvals();
    let b_nnz = gb.nvals_assembled();
    let est_gustavson = cost::mxm_gustavson_flops(a_nnz, b_nnz, bm);
    let est_dot = (meval.has_view() && !meval.is_complement())
        .then(|| cost::mxm_dot_flops(meval.nvals(), a_nnz, nr, b_nnz, bn));

    let method = choose_method(desc, est_dot, est_gustavson);
    // The dot product runs every shape; Gustavson runs the no-load and
    // first-hit ones and folds under the other two; the heap merge always
    // folds.
    let shape = Shape::of(&semiring.add, semiring.mul.ignores_operands());
    let compressed_operand = av.as_compressed().is_some() || rows_of(&gb).as_compressed().is_some();
    span.kernel(match method {
        MxmMethod::Dot if compressed_operand => crate::trace::Kernel::CompressedDot,
        MxmMethod::Dot => crate::trace::Kernel::Dot,
        MxmMethod::Heap => crate::trace::Kernel::Heap,
        _ => crate::trace::Kernel::Gustavson,
    });
    if span.on() {
        span.arg("nrows", nr);
        span.arg("ncols", nc);
        span.arg("a_nnz", a_nnz);
        span.arg("b_nnz", b_nnz);
        span.arg("est_gustavson", est_gustavson);
        if let Some(d) = est_dot {
            span.arg("est_dot", d);
        }
        span.arg("shape", shape.name());
    }
    span.flops(est_gustavson);

    let vecs = match method {
        MxmMethod::Dot => {
            // Needs rows of (effective B)ᵀ = Bᵀ if no transpose flag, or B
            // itself when transpose_b is set.
            let ebt = EffView::new(&gb, !desc.transpose_b);
            dot_kernel(shape, av, ebt.view(), &semiring.add, &semiring.mul, &meval)
        }
        MxmMethod::Heap => {
            let eb = EffView::new(&gb, desc.transpose_b);
            heap_kernel(av, eb.view(), &semiring.add, &semiring.mul, &meval)
        }
        _ => {
            let eb = EffView::new(&gb, desc.transpose_b);
            gustavson_kernel(shape, av, eb.view(), &semiring.add, &semiring.mul, &meval)
        }
    };
    drop(mguard);
    drop(ea);
    drop(ga);
    drop(gb);
    write_matrix(c, mask, accum, desc, vecs)
}

/// Pick a kernel: an explicit request wins; otherwise compare the
/// estimated cost of computing only the masked dots (`est_dot`, absent
/// without a plain non-complemented mask) against running Gustavson over
/// everything, each weighted by its measured per-flop rate.
fn choose_method(desc: &Descriptor, est_dot: Option<usize>, est_gustavson: usize) -> MxmMethod {
    match desc.mxm_method {
        MxmMethod::Auto => {
            let m = cost::model();
            match est_dot {
                Some(d) if m.pull_cost(d) < m.push_cost(est_gustavson) => MxmMethod::Dot,
                _ => MxmMethod::Gustavson,
            }
        }
        m => m,
    }
}

/// Gustavson's method: for each row `i` of `A`, merge the rows of `B`
/// selected by `A(i,:)` into a sparse accumulator. Parallel over rows.
/// Under `NoLoad` (PAIR) the loop hoists the product and touches neither
/// value array; under `FirstHit` (ANY) an occupied slot takes nothing
/// more. Every other shape folds each product into its slot.
fn gustavson_kernel<A, B, T, SA, SM>(
    shape: Shape<T>,
    av: &dyn SparseView<A>,
    bv: &dyn SparseView<B>,
    add: &SA,
    mul: &SM,
    mask: &MMask<'_>,
) -> Vec<(Index, Vec<Index>, Vec<T>)>
where
    A: Scalar,
    B: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    SM: BinaryOp<A, B, T>,
{
    // PAIR's product is the same for every entry: applied once, to zeros.
    let pair = matches!(shape, Shape::NoLoad).then(|| mul.apply(A::zero(), B::zero()));
    let ncols = bv.nminor();
    let flops_estimate = cost::mxm_gustavson_flops(av.nvals(), bv.nvals(), bv.nmajor());
    // Each chunk sets up an accumulator as long as a row of `B`: one per thread.
    let chunks = par_rows(av, flops_estimate, Chunking::PerThread, |rows| {
        let mut out = Vec::new();
        let mut sa = RowScratch::default();
        let mut sb = RowScratch::default();
        let mut ms = RowScratch::default();
        if ncols <= DENSE_ACC_LIMIT {
            // Stamped accumulator shared across this chunk's rows; begin()
            // makes per-row reset O(touched), and the stamp array itself is
            // pooled per worker thread across kernel invocations.
            let mut acc = DenseAcc::<T>::new(ncols);
            for i in rows {
                let (aidx, aval) = av.row(i, &mut sa);
                if aidx.is_empty() {
                    continue;
                }
                acc.begin();
                match (pair, shape) {
                    (Some(one), _) => {
                        for &k in aidx {
                            let (bidx, _) = bv.row(k, &mut sb);
                            for &j in bidx {
                                match acc.slot(j) {
                                    Slot::Active => acc.set(j, add.apply(acc.value(j), one)),
                                    _ => acc.insert(j, one),
                                }
                            }
                        }
                    }
                    (None, Shape::FirstHit) => {
                        // ANY keeps the first product per slot; occupied
                        // slots absorb later contributions untouched.
                        for (&k, &aik) in aidx.iter().zip(aval) {
                            let (bidx, bval) = bv.row(k, &mut sb);
                            for (&j, &bkj) in bidx.iter().zip(bval) {
                                if !matches!(acc.slot(j), Slot::Active) {
                                    acc.insert(j, mul.apply(aik, bkj));
                                }
                            }
                        }
                    }
                    (None, _) => {
                        for (&k, &aik) in aidx.iter().zip(aval) {
                            let (bidx, bval) = bv.row(k, &mut sb);
                            for (&j, &bkj) in bidx.iter().zip(bval) {
                                let prod = mul.apply(aik, bkj);
                                match acc.slot(j) {
                                    Slot::Active => acc.set(j, add.apply(acc.value(j), prod)),
                                    _ => acc.insert(j, prod),
                                }
                            }
                        }
                    }
                }
                if acc.touched().is_empty() {
                    continue;
                }
                acc.sort_touched();
                let rmask = mask.row(i, &mut ms);
                let mut ridx = Vec::with_capacity(acc.touched().len());
                let mut rval = Vec::with_capacity(acc.touched().len());
                for &j in acc.touched() {
                    if rmask.allowed(j) {
                        ridx.push(j);
                        rval.push(acc.value(j));
                    }
                }
                if !ridx.is_empty() {
                    out.push((i, ridx, rval));
                }
            }
        } else {
            for i in rows {
                let (aidx, aval) = av.row(i, &mut sa);
                if aidx.is_empty() {
                    continue;
                }
                let mut acc = std::collections::BTreeMap::<Index, T>::new();
                for (&k, &aik) in aidx.iter().zip(aval) {
                    let (bidx, bval) = bv.row(k, &mut sb);
                    for (&j, &bkj) in bidx.iter().zip(bval) {
                        let prod = mul.apply(aik, bkj);
                        acc.entry(j).and_modify(|cur| *cur = add.apply(*cur, prod)).or_insert(prod);
                    }
                }
                let rmask = mask.row(i, &mut ms);
                let mut ridx = Vec::with_capacity(acc.len());
                let mut rval = Vec::with_capacity(acc.len());
                for (j, v) in acc {
                    if rmask.allowed(j) {
                        ridx.push(j);
                        rval.push(v);
                    }
                }
                if !ridx.is_empty() {
                    out.push((i, ridx, rval));
                }
            }
        }
        out
    });
    chunks.into_iter().flatten().collect()
}

/// Dot-product method over rows of `A` and rows of `Bᵀ`. With a
/// non-complemented mask only the masked positions are computed; dot
/// products stop early at the monoid's terminal value. The inner loop is
/// the call's shape ([`shape::dot`]).
fn dot_kernel<A, B, T, SA, SM>(
    shape: Shape<T>,
    av: &dyn SparseView<A>,
    btv: &dyn SparseView<B>,
    add: &SA,
    mul: &SM,
    mask: &MMask<'_>,
) -> Vec<(Index, Vec<Index>, Vec<T>)>
where
    A: Scalar,
    B: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    SM: BinaryOp<A, B, T>,
{
    let dot = |aidx: &[Index], aval: &[A], bidx: &[Index], bval: &[B]| -> Option<T> {
        shape::dot(shape, add, mul, aidx, aval, bidx, bval)
    };
    if mask.has_view() && !mask.is_complement() {
        // Compute only the masked positions. Gather the mask's stored
        // entries grouped by row first, then run the rows' dot products
        // in parallel — each output row is independent.
        let mut mrows: Vec<(Index, Vec<Index>)> = Vec::new();
        let mut total = 0usize;
        mask.for_each_stored(&mut |i, j| {
            total += 1;
            match mrows.last_mut() {
                Some((r, js)) if *r == i => js.push(j),
                _ => mrows.push((i, vec![j])),
            }
        });
        let per_dot = av.nvals() / av.nmajor().max(1) + btv.nvals() / btv.nmajor().max(1) + 1;
        let est = total.saturating_mul(per_dot);
        let chunks = par_mask_rows(&mrows, est, |mrows| {
            let mut out: Vec<(Index, Vec<Index>, Vec<T>)> = Vec::new();
            let mut sa = RowScratch::default();
            let mut sb = RowScratch::default();
            for (i, js) in mrows {
                let (aidx, aval) = av.row(*i, &mut sa);
                if aidx.is_empty() {
                    continue;
                }
                let mut ridx: Vec<Index> = Vec::new();
                let mut rval: Vec<T> = Vec::new();
                for &j in js {
                    let (bidx, bval) = btv.row(j, &mut sb);
                    if let Some(v) = dot(aidx, aval, bidx, bval) {
                        ridx.push(j);
                        rval.push(v);
                    }
                }
                if !ridx.is_empty() {
                    out.push((*i, ridx, rval));
                }
            }
            out
        });
        chunks.into_iter().flatten().collect()
    } else {
        // Unmasked (or complemented): all-pairs of non-empty rows. Only
        // sensible for small outputs; the chooser never picks this
        // automatically.
        let est = av.nvals().saturating_mul(btv.nvecs().max(1));
        let chunks = par_rows(av, est, Chunking::Oversplit, |rows| {
            let mut out = Vec::new();
            let mut sa = RowScratch::default();
            let mut sb = RowScratch::default();
            let mut ms = RowScratch::default();
            for i in rows {
                let (aidx, aval) = av.row(i, &mut sa);
                if aidx.is_empty() {
                    continue;
                }
                let rmask = mask.row(i, &mut ms);
                let mut ridx = Vec::new();
                let mut rval = Vec::new();
                for j in btv.majors() {
                    if !rmask.allowed(j) {
                        continue;
                    }
                    let (bidx, bval) = btv.row(j, &mut sb);
                    if bidx.is_empty() {
                        continue;
                    }
                    if let Some(v) = dot(aidx, aval, bidx, bval) {
                        ridx.push(j);
                        rval.push(v);
                    }
                }
                if !ridx.is_empty() {
                    out.push((i, ridx, rval));
                }
            }
            out
        });
        chunks.into_iter().flatten().collect()
    }
}

/// Heap method: per row of `A`, a k-way merge of the selected rows of `B`
/// using a binary heap. `O(flops · log k)` time but only `O(k)` working
/// memory (plus the k rows a compressed `B` decodes), independent of the
/// output dimension — the right choice for hypersparse operands.
fn heap_kernel<A, B, T, SA, SM>(
    av: &dyn SparseView<A>,
    bv: &dyn SparseView<B>,
    add: &SA,
    mul: &SM,
    mask: &MMask<'_>,
) -> Vec<(Index, Vec<Index>, Vec<T>)>
where
    A: Scalar,
    B: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    SM: BinaryOp<A, B, T>,
{
    // The k-way merge within a row is inherently sequential, but rows are
    // independent: chunk over the rows of A.
    let est = av.nvals() + bv.nvals();
    let chunks = par_rows(av, est, Chunking::Oversplit, |rows| {
        let mut out = Vec::new();
        let mut sa = RowScratch::default();
        let mut ms = RowScratch::default();
        // The merge keeps every selected B row live at once: one scratch
        // per cursor backs a row the storage form has to decode.
        let mut sb: Vec<RowScratch<B>> = Vec::new();
        for i in rows {
            let (aidx, aval) = av.row(i, &mut sa);
            if aidx.is_empty() {
                continue;
            }
            if sb.len() < aidx.len() {
                sb.resize_with(aidx.len(), RowScratch::default);
            }
            // One cursor per (k, A(i,k)) with a non-empty B row.
            let mut cursors: Vec<(&[Index], &[B], usize, A)> = Vec::with_capacity(aidx.len());
            let mut heap: BinaryHeap<Reverse<(Index, usize)>> = BinaryHeap::new();
            for ((&k, &aik), scratch) in aidx.iter().zip(aval).zip(&mut sb) {
                let (bidx, bval) = bv.row(k, scratch);
                if !bidx.is_empty() {
                    let c = cursors.len();
                    cursors.push((bidx, bval, 0, aik));
                    heap.push(Reverse((bidx[0], c)));
                }
            }
            let rmask = mask.row(i, &mut ms);
            let mut ridx: Vec<Index> = Vec::new();
            let mut rval: Vec<T> = Vec::new();
            let mut cur_j: Option<Index> = None;
            let mut cur_v: Option<T> = None;
            while let Some(Reverse((j, c))) = heap.pop() {
                let (bidx, bval, pos, aik) = cursors[c];
                let prod = mul.apply(aik, bval[pos]);
                if cur_j == Some(j) {
                    cur_v = cur_v.map(|v| add.apply(v, prod));
                } else {
                    if let (Some(pj), Some(pv)) = (cur_j, cur_v) {
                        if rmask.allowed(pj) {
                            ridx.push(pj);
                            rval.push(pv);
                        }
                    }
                    cur_j = Some(j);
                    cur_v = Some(prod);
                }
                let next = pos + 1;
                if next < bidx.len() {
                    cursors[c].2 = next;
                    heap.push(Reverse((bidx[next], c)));
                }
            }
            if let (Some(pj), Some(pv)) = (cur_j, cur_v) {
                if rmask.allowed(pj) {
                    ridx.push(pj);
                    rval.push(pv);
                }
            }
            if !ridx.is_empty() {
                out.push((i, ridx, rval));
            }
        }
        out
    });
    chunks.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::common::NOACC;
    use crate::semiring::{PLUS_PAIR, PLUS_TIMES};

    fn dense_a() -> Matrix<i64> {
        // [1 2]
        // [3 4]
        Matrix::from_tuples(2, 2, vec![(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)], |_, b| b)
            .expect("a")
    }

    fn dense_b() -> Matrix<i64> {
        // [5 6]
        // [7 8]
        Matrix::from_tuples(2, 2, vec![(0, 0, 5), (0, 1, 6), (1, 0, 7), (1, 1, 8)], |_, b| b)
            .expect("b")
    }

    fn product_tuples(method: MxmMethod, tb: bool) -> Vec<(Index, Index, i64)> {
        let a = dense_a();
        let bt = if tb {
            crate::ops::transpose::transpose_new(&dense_b()).expect("bt")
        } else {
            dense_b()
        };
        let mut c = Matrix::<i64>::new(2, 2).expect("c");
        let mut d = Descriptor::new().method(method);
        if tb {
            d = d.transpose_b();
        }
        mxm(&mut c, None, NOACC, &PLUS_TIMES, &a, &bt, &d).expect("mxm");
        c.extract_tuples()
    }

    #[test]
    fn all_three_methods_agree_on_dense_product() {
        // [1 2][5 6]   [19 22]
        // [3 4][7 8] = [43 50]
        let want = vec![(0, 0, 19), (0, 1, 22), (1, 0, 43), (1, 1, 50)];
        assert_eq!(product_tuples(MxmMethod::Gustavson, false), want);
        assert_eq!(product_tuples(MxmMethod::Dot, false), want);
        assert_eq!(product_tuples(MxmMethod::Heap, false), want);
        // And with the B-transpose descriptor path.
        assert_eq!(product_tuples(MxmMethod::Gustavson, true), want);
        assert_eq!(product_tuples(MxmMethod::Dot, true), want);
        assert_eq!(product_tuples(MxmMethod::Heap, true), want);
    }

    #[test]
    fn masked_product_limits_output() {
        let a = dense_a();
        let b = dense_b();
        let mask =
            Matrix::from_tuples(2, 2, vec![(0, 1, true), (1, 0, true)], |_, b| b).expect("mask");
        for method in [MxmMethod::Gustavson, MxmMethod::Dot, MxmMethod::Heap] {
            let mut c = Matrix::<i64>::new(2, 2).expect("c");
            mxm(&mut c, Some(&mask), NOACC, &PLUS_TIMES, &a, &b, &Descriptor::new().method(method))
                .expect("mxm");
            assert_eq!(c.extract_tuples(), vec![(0, 1, 22), (1, 0, 43)], "{method:?}");
        }
    }

    #[test]
    fn complemented_mask_product() {
        let a = dense_a();
        let b = dense_b();
        let mask =
            Matrix::from_tuples(2, 2, vec![(0, 1, true), (1, 0, true)], |_, b| b).expect("mask");
        let mut c = Matrix::<i64>::new(2, 2).expect("c");
        mxm(&mut c, Some(&mask), NOACC, &PLUS_TIMES, &a, &b, &Descriptor::new().complement())
            .expect("mxm");
        assert_eq!(c.extract_tuples(), vec![(0, 0, 19), (1, 1, 50)]);
    }

    #[test]
    fn transpose_a_product() {
        let a = dense_a();
        let b = dense_b();
        let mut c = Matrix::<i64>::new(2, 2).expect("c");
        mxm(&mut c, None, NOACC, &PLUS_TIMES, &a, &b, &Descriptor::new().transpose_a())
            .expect("mxm");
        // Aᵀ B = [1 3; 2 4][5 6; 7 8] = [26 30; 38 44]
        assert_eq!(c.extract_tuples(), vec![(0, 0, 26), (0, 1, 30), (1, 0, 38), (1, 1, 44)]);
    }

    #[test]
    fn plus_pair_counts_wedges() {
        // Path 0-1-2: A² with PLUS_PAIR counts 2-walks structurally.
        let a = Matrix::from_tuples(
            3,
            3,
            vec![(0, 1, true), (1, 0, true), (1, 2, true), (2, 1, true)],
            |_, b| b,
        )
        .expect("a");
        let mut c = Matrix::<u64>::new(3, 3).expect("c");
        mxm(&mut c, None, NOACC, &PLUS_PAIR, &a, &a, &Descriptor::default()).expect("mxm");
        // walks of length 2: 0→1→0, 0→1→2, 1→0→1, 1→2→1, 2→1→0, 2→1→2
        assert_eq!(c.extract_tuples(), vec![(0, 0, 1), (0, 2, 1), (1, 1, 2), (2, 0, 1), (2, 2, 1)]);
    }

    #[test]
    fn rectangular_product_dims() {
        let a = Matrix::from_tuples(2, 3, vec![(0, 0, 1), (1, 2, 2)], |_, b| b).expect("a");
        let b = Matrix::from_tuples(3, 4, vec![(0, 3, 10), (2, 1, 20)], |_, b| b).expect("b");
        let mut c = Matrix::<i64>::new(2, 4).expect("c");
        mxm(&mut c, None, NOACC, &PLUS_TIMES, &a, &b, &Descriptor::default()).expect("mxm");
        assert_eq!(c.extract_tuples(), vec![(0, 3, 10), (1, 1, 40)]);
        let mut bad = Matrix::<i64>::new(4, 4).expect("bad");
        assert!(mxm(&mut bad, None, NOACC, &PLUS_TIMES, &a, &b, &Descriptor::default()).is_err());
    }

    #[test]
    fn auto_chooses_dot_under_sparse_mask() {
        // No usable mask → no dot estimate → Gustavson, always.
        assert_eq!(choose_method(&Descriptor::default(), None, 1_000_000), MxmMethod::Gustavson);
        // The model's per-flop rates are clamped to [0.05, 1000] ns, so a
        // 10-flop masked-dot plan beats a 10⁹-flop Gustavson plan (and vice
        // versa) under *any* calibration.
        assert_eq!(choose_method(&Descriptor::default(), Some(10), 1_000_000_000), MxmMethod::Dot);
        assert_eq!(
            choose_method(&Descriptor::default(), Some(1_000_000_000), 10),
            MxmMethod::Gustavson
        );
        // An explicit method request always wins over the estimates.
        assert_eq!(
            choose_method(&Descriptor::new().method(MxmMethod::Heap), Some(10), 1_000_000_000),
            MxmMethod::Heap
        );
    }
}
