//! `GrB_apply`: element-wise application of a unary operator, and the
//! index-aware variant taking a [`IndexUnaryOp`].

use crate::binaryop::BinaryOp;
use crate::descriptor::Descriptor;
use crate::error::Result;
use crate::matrix::{EffView, Matrix};
use crate::parallel::{par_chunks, Chunking};
use crate::sparse::RowScratch;
use crate::types::{Index, Scalar};
use crate::unaryop::{IndexUnaryOp, UnaryOp};
use crate::vector::{VView, Vector};

use super::common::{check_dims, check_mmask, check_vmask, par_rows, InverseSel};
use super::write::{write_matrix, write_vector, VecResult};

/// `w⟨mask⟩ ⊙= f(u)` — apply `f` to every stored entry of `u`.
pub fn apply<A, T, Op, Acc>(
    w: &mut Vector<T>,
    mask: Option<&Vector<bool>>,
    accum: Option<Acc>,
    op: Op,
    u: &Vector<A>,
    desc: &Descriptor,
) -> Result<()>
where
    A: Scalar,
    T: Scalar,
    Op: UnaryOp<A, T>,
    Acc: BinaryOp<T, T, T>,
{
    check_dims(w.size() == u.size(), "apply: output and input lengths differ")?;
    check_vmask(mask, w.size())?;
    let mut span = crate::trace::op_span(crate::trace::Op::Apply);
    let t = {
        let g = u.read();
        if span.on() {
            span.arg("n", u.size());
            span.arg("u_nnz", g.nvals_assembled());
        }
        apply_vec_entries(g.view(), |_, x| op.apply(x))
    };
    write_vector(w, mask, accum, desc, t, &InverseSel::All)
}

/// `w⟨mask⟩ ⊙= f(i, u(i))` — index-aware apply on a vector.
pub fn apply_indexed<A, T, Op, Acc>(
    w: &mut Vector<T>,
    mask: Option<&Vector<bool>>,
    accum: Option<Acc>,
    op: Op,
    u: &Vector<A>,
    desc: &Descriptor,
) -> Result<()>
where
    A: Scalar,
    T: Scalar,
    Op: IndexUnaryOp<A, T>,
    Acc: BinaryOp<T, T, T>,
{
    check_dims(w.size() == u.size(), "apply: output and input lengths differ")?;
    check_vmask(mask, w.size())?;
    let mut span = crate::trace::op_span(crate::trace::Op::Apply);
    let t = {
        let g = u.read();
        if span.on() {
            span.arg("n", u.size());
            span.arg("u_nnz", g.nvals_assembled());
        }
        apply_vec_entries(g.view(), |i, x| op.apply(i, 0, x))
    };
    write_vector(w, mask, accum, desc, t, &InverseSel::All)
}

/// Map `f` over every stored entry of a vector view. Entries are
/// independent: a sparse view chunks over its entry list and keeps its
/// index list, a full-length one maps in one pass over the index domain.
fn apply_vec_entries<A: Scalar, T: Scalar>(
    view: VView<'_, A>,
    f: impl Fn(Index, A) -> T + Sync,
) -> VecResult<T> {
    match view {
        VView::Sparse(idx, val) => {
            let chunks = par_chunks(idx.len(), idx.len(), |r| {
                idx[r.clone()].iter().zip(&val[r]).map(|(&i, &x)| f(i, x)).collect::<Vec<T>>()
            });
            VecResult::Lists(idx.to_vec(), chunks.into_iter().flatten().collect())
        }
        VView::Full(val, _) => VecResult::filter_map(view, val.len(), |i, x| Some(f(i, x))),
    }
}

/// `C⟨Mask⟩ ⊙= f(A)` (or `f(Aᵀ)` with the transpose descriptor).
pub fn apply_matrix<A, T, Op, Acc>(
    c: &mut Matrix<T>,
    mask: Option<&Matrix<bool>>,
    accum: Option<Acc>,
    op: Op,
    a: &Matrix<A>,
    desc: &Descriptor,
) -> Result<()>
where
    A: Scalar,
    T: Scalar,
    Op: UnaryOp<A, T>,
    Acc: BinaryOp<T, T, T>,
{
    apply_matrix_indexed(c, mask, accum, move |_, _, x| op.apply(x), a, desc)
}

/// `C⟨Mask⟩ ⊙= f(i, j, A(i,j))` — index-aware apply on a matrix.
pub fn apply_matrix_indexed<A, T, Op, Acc>(
    c: &mut Matrix<T>,
    mask: Option<&Matrix<bool>>,
    accum: Option<Acc>,
    op: Op,
    a: &Matrix<A>,
    desc: &Descriptor,
) -> Result<()>
where
    A: Scalar,
    T: Scalar,
    Op: IndexUnaryOp<A, T>,
    Acc: BinaryOp<T, T, T>,
{
    let mut span = crate::trace::op_span(crate::trace::Op::Apply);
    let ga = a.read_rows();
    if span.on() {
        span.arg("nrows", ga.nrows);
        span.arg("ncols", ga.ncols);
        span.arg("a_nnz", ga.nvals_assembled());
    }
    // Per the C API, the operator is applied *after* transposition, so it
    // sees the coordinates of Aᵀ. Rows are independent: chunk over them.
    let eff = EffView::new(&ga, desc.transpose_a);
    let v = eff.view();
    let chunks = par_rows(v, v.nvals(), Chunking::Oversplit, |rows| {
        let mut part = Vec::new();
        let mut scratch = RowScratch::default();
        for i in rows {
            let (idx, val) = v.row(i, &mut scratch);
            if idx.is_empty() {
                continue;
            }
            let out: Vec<T> = idx.iter().zip(val).map(|(&j, &x)| op.apply(i, j, x)).collect();
            part.push((i, idx.to_vec(), out));
        }
        part
    });
    let vecs: Vec<_> = chunks.into_iter().flatten().collect();
    let (nr, nc) = if desc.transpose_a { (ga.ncols, ga.nrows) } else { (ga.nrows, ga.ncols) };
    drop(eff);
    drop(ga);
    check_dims(
        c.nrows() == nr && c.ncols() == nc,
        "apply: output shape must match (possibly transposed) input",
    )?;
    check_mmask(mask, nr, nc)?;
    write_matrix(c, mask, accum, desc, vecs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::common::NOACC;
    use crate::unaryop::{Ainv, One};

    #[test]
    fn vector_apply_negate() {
        let u = Vector::from_tuples(4, vec![(0, 1), (2, -5)], |_, b| b).expect("build");
        let mut w = Vector::<i32>::new(4).expect("new");
        apply(&mut w, None, NOACC, Ainv, &u, &Descriptor::default()).expect("apply");
        assert_eq!(w.extract_tuples(), vec![(0, -1), (2, 5)]);
    }

    #[test]
    fn vector_apply_changes_domain() {
        let u = Vector::from_tuples(3, vec![(1, 2.5f64)], |_, b| b).expect("build");
        let mut w = Vector::<u8>::new(3).expect("new");
        apply(&mut w, None, NOACC, One, &u, &Descriptor::default()).expect("apply");
        assert_eq!(w.extract_tuples(), vec![(1, 1u8)]);
    }

    #[test]
    fn vector_apply_masked() {
        let u = Vector::from_tuples(3, vec![(0, 1), (1, 2), (2, 3)], |_, b| b).expect("u");
        let mask = Vector::from_tuples(3, vec![(1, true)], |_, b| b).expect("mask");
        let mut w = Vector::<i32>::new(3).expect("new");
        apply(&mut w, Some(&mask), NOACC, Ainv, &u, &Descriptor::default()).expect("apply");
        assert_eq!(w.extract_tuples(), vec![(1, -2)]);
    }

    #[test]
    fn vector_apply_indexed_reaches_positions() {
        let u = Vector::from_tuples(5, vec![(1, 10), (4, 40)], |_, b| b).expect("u");
        let mut w = Vector::<u64>::new(5).expect("new");
        apply_indexed(
            &mut w,
            None,
            NOACC,
            |i: Index, _: Index, _: i32| i as u64,
            &u,
            &Descriptor::default(),
        )
        .expect("apply");
        assert_eq!(w.extract_tuples(), vec![(1, 1), (4, 4)]);
    }

    #[test]
    fn matrix_apply_and_transpose() {
        let a = Matrix::from_tuples(2, 3, vec![(0, 2, 4), (1, 0, -3)], |_, b| b).expect("a");
        let mut c = Matrix::<i32>::new(2, 3).expect("c");
        apply_matrix(&mut c, None, NOACC, Ainv, &a, &Descriptor::default()).expect("apply");
        assert_eq!(c.extract_tuples(), vec![(0, 2, -4), (1, 0, 3)]);

        let mut ct = Matrix::<i32>::new(3, 2).expect("ct");
        apply_matrix(&mut ct, None, NOACC, Ainv, &a, &Descriptor::new().transpose_a())
            .expect("apply T");
        assert_eq!(ct.extract_tuples(), vec![(0, 1, 3), (2, 0, -4)]);
    }

    #[test]
    fn matrix_apply_indexed_sees_original_coords() {
        let a = Matrix::from_tuples(2, 3, vec![(0, 2, 1.0)], |_, b| b).expect("a");
        let mut c = Matrix::<u64>::new(3, 2).expect("c");
        // Per the C API the op is applied after transposition, so the
        // original entry (0, 2) is seen at (2, 0).
        apply_matrix_indexed(
            &mut c,
            None,
            NOACC,
            |i: Index, j: Index, _: f64| (10 * i + j) as u64,
            &a,
            &Descriptor::new().transpose_a(),
        )
        .expect("apply");
        assert_eq!(c.extract_tuples(), vec![(2, 0, 20)]);
    }

    #[test]
    fn apply_dimension_mismatch() {
        let u = Vector::<i32>::new(3).expect("u");
        let mut w = Vector::<i32>::new(4).expect("w");
        assert!(apply(&mut w, None, NOACC, Ainv, &u, &Descriptor::default()).is_err());
    }
}
