//! `GrB_eWiseAdd` (set union) and `GrB_eWiseMult` (set intersection).
//!
//! "Add" and "multiply" refer to the *pattern* semantics, not the operator:
//! any binary operator can be used with either. For `eWiseAdd`, positions
//! present in only one input pass their value through unchanged, so both
//! inputs and the output share one domain; `eWiseMult` only produces values
//! where both inputs have entries and may be heterogeneous.

use crate::binaryop::BinaryOp;
use crate::descriptor::Descriptor;
use crate::error::Result;
use crate::matrix::{EffView, Matrix};
use crate::parallel::{par_chunks, par_chunks_weighted, Chunking};
use crate::sparse::{Majors, RowScratch, SparseView};
use crate::trace;
use crate::types::{Index, Scalar};
use crate::vector::{VView, Vector};
use std::borrow::Cow;

use super::common::{check_dims, check_mmask, check_vmask, par_rows, InverseSel};
use super::write::{write_matrix, write_vector, VecResult};

/// `w⟨mask⟩ ⊙= u ⊕ v` — union merge of two vectors.
pub fn ewise_add<T, Op, Acc>(
    w: &mut Vector<T>,
    mask: Option<&Vector<bool>>,
    accum: Option<Acc>,
    op: Op,
    u: &Vector<T>,
    v: &Vector<T>,
    desc: &Descriptor,
) -> Result<()>
where
    T: Scalar,
    Op: BinaryOp<T, T, T>,
    Acc: BinaryOp<T, T, T>,
{
    check_dims(u.size() == v.size(), "eWiseAdd: input lengths differ")?;
    check_dims(w.size() == u.size(), "eWiseAdd: output length differs")?;
    check_vmask(mask, w.size())?;
    let mut span = trace::op_span(trace::Op::EwiseAdd);
    let t = {
        let gu = u.read();
        let gv = v.read();
        if span.on() {
            span.arg("n", u.size());
            span.arg("u_nnz", gu.nvals_assembled());
            span.arg("v_nnz", gv.nvals_assembled());
        }
        let (uv, vv) = (gu.view(), gv.view());
        if uv.is_full() && vv.is_full() {
            // Straight into full-length arrays: u's entries, then v's
            // folded in where they meet.
            let n = u.size();
            VecResult::full(n, 2 * n, |win| {
                let mut stored = 0;
                uv.for_each_in(win.range(), |i, a| {
                    win.set(i, a);
                    stored += 1;
                });
                vv.for_each_in(win.range(), |i, b| match win.get(i) {
                    Some(a) => {
                        win.set(i, op.apply(a, b));
                    }
                    None => {
                        win.set(i, b);
                        stored += 1;
                    }
                });
                stored
            })
        } else {
            union_merge(uv, vv, u.size(), &op)
        }
    };
    write_vector(w, mask, accum, desc, t, &InverseSel::All)
}

/// `w⟨mask⟩ ⊙= u ⊗ v` — intersection merge of two vectors.
pub fn ewise_mult<A, B, T, Op, Acc>(
    w: &mut Vector<T>,
    mask: Option<&Vector<bool>>,
    accum: Option<Acc>,
    op: Op,
    u: &Vector<A>,
    v: &Vector<B>,
    desc: &Descriptor,
) -> Result<()>
where
    A: Scalar,
    B: Scalar,
    T: Scalar,
    Op: BinaryOp<A, B, T>,
    Acc: BinaryOp<T, T, T>,
{
    check_dims(u.size() == v.size(), "eWiseMult: input lengths differ")?;
    check_dims(w.size() == u.size(), "eWiseMult: output length differs")?;
    check_vmask(mask, w.size())?;
    let mut span = trace::op_span(trace::Op::EwiseMult);
    let t = {
        let gu = u.read();
        let gv = v.read();
        if span.on() {
            span.arg("n", u.size());
            span.arg("u_nnz", gu.nvals_assembled());
            span.arg("v_nnz", gv.nvals_assembled());
        }
        // Walk the stored entries of one operand and probe the other: a
        // sparse operand when there is one (the shorter of two), else
        // every position of the index domain.
        let (uv, vv) = (gu.view(), gv.view());
        let by_u = |x, y| op.apply(x, y);
        match (uv, vv) {
            (VView::Sparse(ui, ux), VView::Sparse(vi, _)) if ui.len() <= vi.len() => {
                intersect(ui, ux, vv, by_u)
            }
            (_, VView::Sparse(vi, vx)) => intersect(vi, vx, uv, |y, x| op.apply(x, y)),
            (VView::Sparse(ui, ux), _) => intersect(ui, ux, vv, by_u),
            // Both full-length: the one with fewer entries is walked.
            _ if gu.nvals_assembled() <= gv.nvals_assembled() => {
                VecResult::filter_map(uv, u.size(), |i, x| Some(op.apply(x, vv.get(i)?)))
            }
            _ => VecResult::filter_map(vv, u.size(), |i, y| Some(op.apply(uv.get(i)?, y))),
        }
    };
    write_vector(w, mask, accum, desc, t, &InverseSel::All)
}

/// The entries of the sparse lists `(idx, val)` that `other` also holds,
/// combined by `f(listed value, other's value)`. The list chunks cleanly:
/// each worker probes `other` independently and output order follows
/// chunk order.
fn intersect<D: Scalar, O: Scalar, T: Scalar>(
    idx: &[Index],
    val: &[D],
    other: VView<'_, O>,
    f: impl Fn(D, O) -> T + Sync,
) -> VecResult<T> {
    let chunks = par_chunks(idx.len(), idx.len(), |r| {
        let mut out_i = Vec::new();
        let mut out_v = Vec::new();
        for (&i, &x) in idx[r.clone()].iter().zip(&val[r]) {
            if let Some(y) = other.get(i) {
                out_i.push(i);
                out_v.push(f(x, y));
            }
        }
        (out_i, out_v)
    });
    let (mut out_i, mut out_v) = (Vec::new(), Vec::new());
    for (ci, cv) in chunks {
        out_i.extend(ci);
        out_v.extend(cv);
    }
    VecResult::Lists(out_i, out_v)
}

/// A view's entries as index/value lists: borrowed when it is sparse.
fn as_lists<'a, T: Scalar>(view: VView<'a, T>) -> (Cow<'a, [Index]>, Cow<'a, [T]>) {
    if let VView::Sparse(idx, val) = view {
        return (Cow::Borrowed(idx), Cow::Borrowed(val));
    }
    let mut idx = Vec::new();
    let mut val = Vec::new();
    view.for_each(|i, x| {
        idx.push(i);
        val.push(x);
    });
    (Cow::Owned(idx), Cow::Owned(val))
}

fn union_merge<T: Scalar, Op: BinaryOp<T, T, T>>(
    u: VView<'_, T>,
    v: VView<'_, T>,
    n: usize,
    op: &Op,
) -> VecResult<T> {
    let (ui, uv) = as_lists(u);
    let (vi, vv) = as_lists(v);
    // Chunk over the shared index domain [0, n): each worker locates its
    // slice of both inputs with a binary search, then runs the two-pointer
    // merge on disjoint index ranges. Stitching in chunk order reproduces
    // the sequential output exactly.
    let chunks = par_chunks(n, ui.len() + vi.len(), |r| {
        let (ua, ub) = (ui.partition_point(|&i| i < r.start), ui.partition_point(|&i| i < r.end));
        let (va, vb) = (vi.partition_point(|&i| i < r.start), vi.partition_point(|&i| i < r.end));
        let (ui, uv) = (&ui[ua..ub], &uv[ua..ub]);
        let (vi, vv) = (&vi[va..vb], &vv[va..vb]);
        let mut idx = Vec::with_capacity(ui.len() + vi.len());
        let mut val = Vec::with_capacity(ui.len() + vi.len());
        let (mut a, mut b) = (0, 0);
        while a < ui.len() || b < vi.len() {
            if a < ui.len() && (b >= vi.len() || ui[a] < vi[b]) {
                idx.push(ui[a]);
                val.push(uv[a]);
                a += 1;
            } else if b < vi.len() && (a >= ui.len() || vi[b] < ui[a]) {
                idx.push(vi[b]);
                val.push(vv[b]);
                b += 1;
            } else {
                idx.push(ui[a]);
                val.push(op.apply(uv[a], vv[b]));
                a += 1;
                b += 1;
            }
        }
        (idx, val)
    });
    let mut idx = Vec::with_capacity(ui.len() + vi.len());
    let mut val = Vec::with_capacity(ui.len() + vi.len());
    for (ci, cv) in chunks {
        idx.extend(ci);
        val.extend(cv);
    }
    VecResult::Lists(idx, val)
}

/// `C⟨Mask⟩ ⊙= A ⊕ B` — union merge of two matrices (with optional
/// transposes).
pub fn ewise_add_matrix<T, Op, Acc>(
    c: &mut Matrix<T>,
    mask: Option<&Matrix<bool>>,
    accum: Option<Acc>,
    op: Op,
    a: &Matrix<T>,
    b: &Matrix<T>,
    desc: &Descriptor,
) -> Result<()>
where
    T: Scalar,
    Op: BinaryOp<T, T, T>,
    Acc: BinaryOp<T, T, T>,
{
    let ga = a.read_rows();
    let gb = b.read_rows();
    let ea = EffView::new(&ga, desc.transpose_a);
    let eb = EffView::new(&gb, desc.transpose_b);
    let (av, bv) = (ea.view(), eb.view());
    check_dims(
        av.nmajor() == bv.nmajor() && av.nminor() == bv.nminor(),
        "eWiseAdd: input shapes differ",
    )?;
    let (nr, nc) = (av.nmajor(), av.nminor());
    let mut span = trace::op_span(trace::Op::EwiseAdd);
    if span.on() {
        span.arg("nrows", nr);
        span.arg("ncols", nc);
        span.arg("a_nnz", av.nvals());
        span.arg("b_nnz", bv.nvals());
    }
    let vecs = merge_matrix_union(av, bv, &op);
    drop(ea);
    drop(eb);
    drop(ga);
    drop(gb);
    check_dims(c.nrows() == nr && c.ncols() == nc, "eWiseAdd: output shape differs")?;
    check_mmask(mask, nr, nc)?;
    write_matrix(c, mask, accum, desc, vecs)
}

/// `C⟨Mask⟩ ⊙= A ⊗ B` — intersection merge of two matrices.
pub fn ewise_mult_matrix<A, B, T, Op, Acc>(
    c: &mut Matrix<T>,
    mask: Option<&Matrix<bool>>,
    accum: Option<Acc>,
    op: Op,
    a: &Matrix<A>,
    b: &Matrix<B>,
    desc: &Descriptor,
) -> Result<()>
where
    A: Scalar,
    B: Scalar,
    T: Scalar,
    Op: BinaryOp<A, B, T>,
    Acc: BinaryOp<T, T, T>,
{
    let ga = a.read_rows();
    let gb = b.read_rows();
    let ea = EffView::new(&ga, desc.transpose_a);
    let eb = EffView::new(&gb, desc.transpose_b);
    let (av, bv) = (ea.view(), eb.view());
    check_dims(
        av.nmajor() == bv.nmajor() && av.nminor() == bv.nminor(),
        "eWiseMult: input shapes differ",
    )?;
    let (nr, nc) = (av.nmajor(), av.nminor());
    let mut span = trace::op_span(trace::Op::EwiseMult);
    if span.on() {
        span.arg("nrows", nr);
        span.arg("ncols", nc);
        span.arg("a_nnz", av.nvals());
        span.arg("b_nnz", bv.nvals());
    }
    // Rows intersect independently: chunk over A's rows and let each
    // worker run the two-pointer intersection for its rows.
    let est = av.nvals() + bv.nvals();
    let chunks = par_rows(av, est, Chunking::Oversplit, |rows| {
        let mut part = Vec::new();
        let mut sa = RowScratch::default();
        let mut sb = RowScratch::default();
        for i in rows {
            let (aidx, aval) = av.row(i, &mut sa);
            if aidx.is_empty() {
                continue;
            }
            let (bidx, bval) = bv.row(i, &mut sb);
            if bidx.is_empty() {
                continue;
            }
            let mut ridx = Vec::new();
            let mut rval = Vec::new();
            let (mut p, mut q) = (0, 0);
            while p < aidx.len() && q < bidx.len() {
                if aidx[p] < bidx[q] {
                    p += 1;
                } else if bidx[q] < aidx[p] {
                    q += 1;
                } else {
                    ridx.push(aidx[p]);
                    rval.push(op.apply(aval[p], bval[q]));
                    p += 1;
                    q += 1;
                }
            }
            if !ridx.is_empty() {
                part.push((i, ridx, rval));
            }
        }
        part
    });
    let vecs: Vec<_> = chunks.into_iter().flatten().collect();
    drop(ea);
    drop(eb);
    drop(ga);
    drop(gb);
    check_dims(c.nrows() == nr && c.ncols() == nc, "eWiseMult: output shape differs")?;
    check_mmask(mask, nr, nc)?;
    write_matrix(c, mask, accum, desc, vecs)
}

fn merge_matrix_union<T: Scalar, Op: BinaryOp<T, T, T>>(
    av: &dyn SparseView<T>,
    bv: &dyn SparseView<T>,
    op: &Op,
) -> Vec<(Index, Vec<Index>, Vec<T>)> {
    // The rows either operand may occupy: every row when one of them has a
    // pointer array, else the merge of the two hypersparse lists. The
    // per-row union merges chunk over them — rows are independent and
    // chunk-order stitching keeps the output sorted.
    let mut merged: Vec<Index>;
    let rows = match (av.majors(), bv.majors()) {
        (Majors::List(a), Majors::List(b)) => {
            merged = [a, b].concat();
            merged.sort_unstable();
            merged.dedup();
            Majors::List(&merged)
        }
        _ => Majors::Rows(None, 0..av.nmajor()),
    };
    // Each row costs the entries both operands store in it.
    let before = |k: usize| match rows.get(k) {
        Some(row) => av.entries_before(row) + bv.entries_before(row),
        None => av.nvals() + bv.nvals(),
    };
    let est = av.nvals() + bv.nvals();
    let chunks = par_chunks_weighted(rows.len(), est, Chunking::Oversplit, before, |range| {
        let mut part = Vec::with_capacity(range.len());
        let mut sa = RowScratch::default();
        let mut sb = RowScratch::default();
        for row in rows.slice(range) {
            let (aidx, aval) = av.row(row, &mut sa);
            let (bidx, bval) = bv.row(row, &mut sb);
            if aidx.is_empty() && bidx.is_empty() {
                continue;
            }
            let mut ridx = Vec::with_capacity(aidx.len() + bidx.len());
            let mut rval = Vec::with_capacity(aidx.len() + bidx.len());
            let (mut p, mut q) = (0, 0);
            while p < aidx.len() || q < bidx.len() {
                if p < aidx.len() && (q >= bidx.len() || aidx[p] < bidx[q]) {
                    ridx.push(aidx[p]);
                    rval.push(aval[p]);
                    p += 1;
                } else if q < bidx.len() && (p >= aidx.len() || bidx[q] < aidx[p]) {
                    ridx.push(bidx[q]);
                    rval.push(bval[q]);
                    q += 1;
                } else {
                    ridx.push(aidx[p]);
                    rval.push(op.apply(aval[p], bval[q]));
                    p += 1;
                    q += 1;
                }
            }
            part.push((row, ridx, rval));
        }
        part
    });
    chunks.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binaryop::{Plus, Times};
    use crate::ops::common::NOACC;

    #[test]
    fn vector_union() {
        let u = Vector::from_tuples(5, vec![(0, 1), (2, 2)], |_, b| b).expect("u");
        let v = Vector::from_tuples(5, vec![(2, 10), (4, 20)], |_, b| b).expect("v");
        let mut w = Vector::<i32>::new(5).expect("w");
        ewise_add(&mut w, None, NOACC, Plus, &u, &v, &Descriptor::default()).expect("add");
        assert_eq!(w.extract_tuples(), vec![(0, 1), (2, 12), (4, 20)]);
    }

    #[test]
    fn vector_intersection() {
        let u = Vector::from_tuples(5, vec![(0, 1), (2, 2)], |_, b| b).expect("u");
        let v = Vector::from_tuples(5, vec![(2, 10), (4, 20)], |_, b| b).expect("v");
        let mut w = Vector::<i32>::new(5).expect("w");
        ewise_mult(&mut w, None, NOACC, Times, &u, &v, &Descriptor::default()).expect("mult");
        assert_eq!(w.extract_tuples(), vec![(2, 20)]);
    }

    #[test]
    fn heterogeneous_mult_domains() {
        let u = Vector::from_tuples(3, vec![(1, 2.5f64)], |_, b| b).expect("u");
        let v = Vector::from_tuples(3, vec![(1, 4u8)], |_, b| b).expect("v");
        let mut w = Vector::<i64>::new(3).expect("w");
        let op = |a: f64, b: u8| (a * b as f64) as i64;
        ewise_mult(&mut w, None, NOACC, op, &u, &v, &Descriptor::default()).expect("mult");
        assert_eq!(w.extract_tuples(), vec![(1, 10)]);
    }

    #[test]
    fn matrix_union_and_intersection() {
        let a = Matrix::from_tuples(2, 2, vec![(0, 0, 1), (1, 1, 2)], |_, b| b).expect("a");
        let b = Matrix::from_tuples(2, 2, vec![(0, 0, 10), (0, 1, 20)], |_, b| b).expect("b");
        let mut add = Matrix::<i32>::new(2, 2).expect("add");
        ewise_add_matrix(&mut add, None, NOACC, Plus, &a, &b, &Descriptor::default()).expect("add");
        assert_eq!(add.extract_tuples(), vec![(0, 0, 11), (0, 1, 20), (1, 1, 2)]);
        let mut mult = Matrix::<i32>::new(2, 2).expect("mult");
        ewise_mult_matrix(&mut mult, None, NOACC, Times, &a, &b, &Descriptor::default())
            .expect("mult");
        assert_eq!(mult.extract_tuples(), vec![(0, 0, 10)]);
    }

    #[test]
    fn matrix_ewise_with_transpose() {
        let a = Matrix::from_tuples(2, 3, vec![(0, 2, 5)], |_, b| b).expect("a");
        let b = Matrix::from_tuples(3, 2, vec![(2, 0, 7)], |_, b| b).expect("b");
        // A ⊕ Bᵀ : B(2,0) lands at (0,2).
        let mut c = Matrix::<i32>::new(2, 3).expect("c");
        ewise_add_matrix(&mut c, None, NOACC, Plus, &a, &b, &Descriptor::new().transpose_b())
            .expect("add");
        assert_eq!(c.extract_tuples(), vec![(0, 2, 12)]);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = Matrix::<i32>::new(2, 3).expect("a");
        let b = Matrix::<i32>::new(3, 2).expect("b");
        let mut c = Matrix::<i32>::new(2, 3).expect("c");
        assert!(
            ewise_add_matrix(&mut c, None, NOACC, Plus, &a, &b, &Descriptor::default()).is_err()
        );
    }
}
