//! Fused masked-multiply-and-consume kernels.
//!
//! The triangle family (tricount, k-truss, triangle centrality) all
//! compute a masked product `C⟨M⟩ = A ⊕.⊗ B` and then immediately fold
//! `C` away — into a scalar, a per-row vector, or a thresholded subset.
//! Materializing `C` just to reduce it pays for matrix assembly, a second
//! full pass, and peak memory proportional to `nnz(M)`. The entry points
//! here run the masked dot-product kernel (the inner loop the monoid picks,
//! as in [`super::mxm()`]; see the `shape` module) and consume each output
//! row while it is still in cache — `C` never exists.
//!
//! Scope and contract:
//!
//! * the mask is required, non-complemented, and evaluated exactly as
//!   `mxm` would (structural flag and transposes honored);
//! * results are identical to the materialize-then-reduce composition —
//!   rows are consumed in row-major order, entries in column order, which
//!   is the order the unfused reduction would fold;
//! * every semiring fuses, built-in or a closure: there is no unfused
//!   path behind these functions.

use crate::binaryop::BinaryOp;
use crate::cost;
use crate::descriptor::Descriptor;
use crate::error::{Error, Result};
use crate::matrix::{rows_of, EffView, Matrix};
use crate::monoid::Monoid;
use crate::semiring::Semiring;
use crate::sparse::SparseView;
use crate::types::{Index, Scalar};
use crate::vector::Vector;

use super::common::{check_dims, check_mmask, par_mask_rows, MMask, NOACC};
use super::shape::{self, Shape};
use super::write::write_matrix;

/// Effective operand/output shapes under the descriptor's transposes:
/// `(nr, nc, inner)` for `C(nr×nc) = A(nr×inner) · B(inner×nc)`.
fn effective_dims<A: Scalar, B: Scalar>(
    a: &Matrix<A>,
    b: &Matrix<B>,
    desc: &Descriptor,
) -> Result<(Index, Index)> {
    let (am, an) = if desc.transpose_a { (a.ncols(), a.nrows()) } else { (a.nrows(), a.ncols()) };
    let (bm, bn) = if desc.transpose_b { (b.ncols(), b.nrows()) } else { (b.nrows(), b.ncols()) };
    check_dims(an == bm, "fused mxm: inner dimensions must agree")?;
    Ok((am, bn))
}

fn check_fusable(desc: &Descriptor) -> Result<()> {
    if desc.mask_complement {
        return Err(Error::invalid("fused mxm requires a plain (non-complemented) mask"));
    }
    Ok(())
}

/// The shared fused loop: run one dot product per stored mask entry,
/// grouped by row, and hand each non-empty output row `(i, ridx, rval)`
/// to `consume` against a per-chunk state. Chunk states come back in
/// chunk (= row-major) order.
fn fused_masked_dot<A, B, T, SA, SM, St, Cons>(
    av: &dyn SparseView<A>,
    btv: &dyn SparseView<B>,
    add: &SA,
    mul: &SM,
    shape: Shape<T>,
    mask: &MMask<'_>,
    consume: Cons,
) -> Vec<St>
where
    A: Scalar,
    B: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    SM: BinaryOp<A, B, T>,
    St: Default + Send,
    Cons: Fn(&mut St, Index, &[Index], &[T]) + Sync,
{
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
    par_mask_rows(&mrows, total.saturating_mul(per_dot), |mrows| {
        let mut st = St::default();
        let mut ridx: Vec<Index> = Vec::new();
        let mut rval: Vec<T> = Vec::new();
        let mut sa = crate::sparse::RowScratch::default();
        let mut sb = crate::sparse::RowScratch::default();
        for (i, js) in mrows {
            let (aidx, aval) = av.row(*i, &mut sa);
            if aidx.is_empty() {
                continue;
            }
            ridx.clear();
            rval.clear();
            for &j in js {
                let (bidx, bval) = btv.row(j, &mut sb);
                if let Some(v) = shape::dot(shape, add, mul, aidx, aval, bidx, bval) {
                    ridx.push(j);
                    rval.push(v);
                }
            }
            if !ridx.is_empty() {
                consume(&mut st, *i, &ridx, &rval);
            }
        }
        st
    })
}

/// `⊕ᵣ (A ⊕.⊗ B)⟨M⟩` — the masked product reduced all the way to a
/// scalar (`reduce.identity()` when the masked product is empty), without
/// materializing the product. The workhorse of triangle counting:
/// `sum(sum((L ⊕.pair Lᵀ) .* L))`.
pub fn fused_mxm_reduce_scalar<A, B, T, SA, SM, R>(
    reduce: &R,
    mask: &Matrix<bool>,
    semiring: &Semiring<SA, SM>,
    a: &Matrix<A>,
    b: &Matrix<B>,
    desc: &Descriptor,
) -> Result<T>
where
    A: Scalar,
    B: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    SM: BinaryOp<A, B, T>,
    R: Monoid<T>,
{
    check_fusable(desc)?;
    let (nr, nc) = effective_dims(a, b, desc)?;
    check_mmask(Some(mask), nr, nc)?;
    let shape = Shape::of(&semiring.add, semiring.mul.ignores_operands());
    let mut span = crate::trace::op_span(crate::trace::Op::MxmFused);
    span.kernel(crate::trace::Kernel::FusedReduce);
    let ga = a.read_rows();
    let gb = b.read_rows();
    let ea = EffView::new(&ga, desc.transpose_a);
    let av = ea.view();
    let ebt = EffView::new(&gb, !desc.transpose_b);
    let btv = ebt.view();
    let mguard = mask.read_rows();
    let meval = MMask::new(Some(rows_of(&*mguard)), desc);
    fused_span_args(&mut span, nr, nc, av, btv, &meval, shape);
    let parts: Vec<Option<T>> = fused_masked_dot(
        av,
        btv,
        &semiring.add,
        &semiring.mul,
        shape,
        &meval,
        |st: &mut Option<T>, _i, _ridx, rval| {
            for &v in rval {
                *st = Some(match *st {
                    None => v,
                    Some(cur) => reduce.apply(cur, v),
                });
            }
        },
    );
    let mut acc: Option<T> = None;
    for p in parts.into_iter().flatten() {
        acc = Some(match acc {
            None => p,
            Some(cur) => reduce.apply(cur, p),
        });
    }
    Ok(acc.unwrap_or_else(|| reduce.identity()))
}

/// Row-wise reduction of the masked product: `t(i) = ⊕ⱼ (A ⊕.⊗ B)⟨M⟩(i,
/// j)`, skipping rows with no surviving entries — exactly
/// `reduce_matrix` applied to the materialized product, minus the
/// product.
pub fn fused_mxm_row_reduce<A, B, T, SA, SM, R>(
    reduce: &R,
    mask: &Matrix<bool>,
    semiring: &Semiring<SA, SM>,
    a: &Matrix<A>,
    b: &Matrix<B>,
    desc: &Descriptor,
) -> Result<Vector<T>>
where
    A: Scalar,
    B: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    SM: BinaryOp<A, B, T>,
    R: Monoid<T>,
{
    Ok(fused_mxm_row_reduce_pattern(reduce, mask, semiring, a, b, desc)?.0)
}

/// [`fused_mxm_row_reduce`] that additionally returns the masked
/// product's *pattern* (the triangle-edge matrix in triangle
/// centrality) — still without materializing the product's values.
pub fn fused_mxm_row_reduce_pattern<A, B, T, SA, SM, R>(
    reduce: &R,
    mask: &Matrix<bool>,
    semiring: &Semiring<SA, SM>,
    a: &Matrix<A>,
    b: &Matrix<B>,
    desc: &Descriptor,
) -> Result<(Vector<T>, Matrix<bool>)>
where
    A: Scalar,
    B: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    SM: BinaryOp<A, B, T>,
    R: Monoid<T>,
{
    check_fusable(desc)?;
    let (nr, nc) = effective_dims(a, b, desc)?;
    check_mmask(Some(mask), nr, nc)?;
    let shape = Shape::of(&semiring.add, semiring.mul.ignores_operands());
    let mut span = crate::trace::op_span(crate::trace::Op::MxmFused);
    span.kernel(crate::trace::Kernel::FusedReduce);
    let (t_entries, pat_vecs) = {
        let ga = a.read_rows();
        let gb = b.read_rows();
        let ea = EffView::new(&ga, desc.transpose_a);
        let av = ea.view();
        let ebt = EffView::new(&gb, !desc.transpose_b);
        let btv = ebt.view();
        let mguard = mask.read_rows();
        let meval = MMask::new(Some(rows_of(&*mguard)), desc);
        fused_span_args(&mut span, nr, nc, av, btv, &meval, shape);
        type RowState<T> = (Vec<(Index, T)>, Vec<(Index, Vec<Index>, Vec<bool>)>);
        let parts: Vec<RowState<T>> = fused_masked_dot(
            av,
            btv,
            &semiring.add,
            &semiring.mul,
            shape,
            &meval,
            |st: &mut RowState<T>, i, ridx, rval| {
                let mut it = rval.iter().copied();
                let first = it.next().expect("consume sees non-empty rows");
                let sum = it.fold(first, |acc, v| reduce.apply(acc, v));
                st.0.push((i, sum));
                st.1.push((i, ridx.to_vec(), vec![true; ridx.len()]));
            },
        );
        let mut t_entries: Vec<(Index, T)> = Vec::new();
        let mut pat_vecs: Vec<(Index, Vec<Index>, Vec<bool>)> = Vec::new();
        for (te, pv) in parts {
            t_entries.extend(te);
            pat_vecs.extend(pv);
        }
        (t_entries, pat_vecs)
    };
    let (idx, val) = t_entries.into_iter().unzip();
    let t = Vector::from_parts(nr, idx, val);
    let mut pat = Matrix::<bool>::new(nr, nc)?;
    write_matrix(&mut pat, None, NOACC, &Descriptor::new(), pat_vecs)?;
    Ok((t, pat))
}

/// The masked product filtered in flight: keep entries whose value
/// satisfies `keep`, dropping the rest before they are ever stored — the
/// k-truss support-threshold step (`keep = |sup| sup >= k - 2`) without
/// the intermediate support matrix.
pub fn fused_mxm_select<A, B, T, SA, SM, K>(
    keep: K,
    mask: &Matrix<bool>,
    semiring: &Semiring<SA, SM>,
    a: &Matrix<A>,
    b: &Matrix<B>,
    desc: &Descriptor,
) -> Result<Matrix<T>>
where
    A: Scalar,
    B: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    SM: BinaryOp<A, B, T>,
    K: Fn(T) -> bool + Sync,
{
    check_fusable(desc)?;
    let (nr, nc) = effective_dims(a, b, desc)?;
    check_mmask(Some(mask), nr, nc)?;
    let shape = Shape::of(&semiring.add, semiring.mul.ignores_operands());
    let mut span = crate::trace::op_span(crate::trace::Op::MxmFused);
    span.kernel(crate::trace::Kernel::FusedSelect);
    let vecs = {
        let ga = a.read_rows();
        let gb = b.read_rows();
        let ea = EffView::new(&ga, desc.transpose_a);
        let av = ea.view();
        let ebt = EffView::new(&gb, !desc.transpose_b);
        let btv = ebt.view();
        let mguard = mask.read_rows();
        let meval = MMask::new(Some(rows_of(&*mguard)), desc);
        fused_span_args(&mut span, nr, nc, av, btv, &meval, shape);
        type KeptRows<T> = Vec<(Index, Vec<Index>, Vec<T>)>;
        let parts: Vec<KeptRows<T>> = fused_masked_dot(
            av,
            btv,
            &semiring.add,
            &semiring.mul,
            shape,
            &meval,
            |st: &mut KeptRows<T>, i, ridx, rval| {
                let mut ki: Vec<Index> = Vec::new();
                let mut kv: Vec<T> = Vec::new();
                for (&j, &v) in ridx.iter().zip(rval) {
                    if keep(v) {
                        ki.push(j);
                        kv.push(v);
                    }
                }
                if !ki.is_empty() {
                    st.push((i, ki, kv));
                }
            },
        );
        parts.into_iter().flatten().collect::<Vec<_>>()
    };
    let mut out = Matrix::<T>::new(nr, nc)?;
    write_matrix(&mut out, None, NOACC, &Descriptor::new(), vecs)?;
    Ok(out)
}

/// Common span arguments for the fused kernels.
fn fused_span_args<A: Scalar, B: Scalar, T: Scalar>(
    span: &mut crate::trace::Span,
    nr: Index,
    nc: Index,
    av: &dyn SparseView<A>,
    btv: &dyn SparseView<B>,
    mask: &MMask<'_>,
    shape: Shape<T>,
) {
    // The same work estimate the mxm span this kernel replaces would have
    // recorded (mxm always books est_gustavson, whatever method ran), so
    // flops trajectories compare cleanly across fused and unfused runs.
    let est = cost::mxm_gustavson_flops(av.nvals(), btv.nvals(), av.nminor());
    span.flops(est);
    if span.on() {
        span.arg("nrows", nr);
        span.arg("ncols", nc);
        span.arg("a_nnz", av.nvals());
        span.arg("b_nnz", btv.nvals());
        span.arg("mask_nnz", mask.nvals());
        span.arg("shape", shape.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::MxmMethod;
    use crate::semiring::PLUS_PAIR;

    /// Two triangles sharing vertex 2, as a symmetric bool matrix.
    fn two_triangles() -> Matrix<bool> {
        let e = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)];
        let mut t = Vec::new();
        for &(i, j) in &e {
            t.push((i, j, true));
            t.push((j, i, true));
        }
        Matrix::from_tuples(5, 5, t, |_, b| b).expect("graph")
    }

    fn materialized_sum(a: &Matrix<bool>, desc: &Descriptor) -> u64 {
        let mut c = Matrix::<u64>::new(a.nrows(), a.ncols()).expect("c");
        super::super::mxm(&mut c, Some(a), NOACC, &PLUS_PAIR, a, a, desc).expect("mxm");
        super::super::reduce_matrix_scalar(&crate::binaryop::Plus, &c)
    }

    #[test]
    fn fused_scalar_reduce_matches_materialized() {
        let a = two_triangles();
        let desc = Descriptor::new().structural();
        let fused: u64 =
            fused_mxm_reduce_scalar(&crate::binaryop::Plus, &a, &PLUS_PAIR, &a, &a, &desc)
                .expect("fused");
        assert_eq!(fused, materialized_sum(&a, &desc));
        assert_eq!(fused / 6, 2, "two triangles");
    }

    #[test]
    fn fused_row_reduce_and_pattern_match_materialized() {
        let a = two_triangles();
        let desc = Descriptor::new().structural();
        let (t, pat) =
            fused_mxm_row_reduce_pattern(&crate::binaryop::Plus, &a, &PLUS_PAIR, &a, &a, &desc)
                .expect("fused");
        let mut c = Matrix::<u64>::new(5, 5).expect("c");
        super::super::mxm(&mut c, Some(&a), NOACC, &PLUS_PAIR, &a, &a, &desc).expect("mxm");
        let mut want = Vector::<u64>::new(5).expect("t");
        super::super::reduce_matrix(
            &mut want,
            None,
            NOACC,
            &crate::binaryop::Plus,
            &c,
            &Descriptor::new(),
        )
        .expect("reduce");
        assert_eq!(t.extract_tuples(), want.extract_tuples());
        assert_eq!(pat.extract_tuples(), c.pattern().extract_tuples());
    }

    #[test]
    fn fused_select_keeps_thresholded_entries() {
        let a = two_triangles();
        // Support = common-neighbor count per edge; the Sandia-style call.
        let desc = Descriptor::new().structural().transpose_b().method(MxmMethod::Dot);
        let kept = fused_mxm_select(|v: u64| v >= 1, &a, &PLUS_PAIR, &a, &a, &desc).expect("fused");
        let mut c = Matrix::<u64>::new(5, 5).expect("c");
        super::super::mxm(&mut c, Some(&a), NOACC, &PLUS_PAIR, &a, &a, &desc).expect("mxm");
        let want: Vec<_> = c.extract_tuples().into_iter().filter(|&(_, _, v)| v >= 1).collect();
        assert_eq!(kept.extract_tuples(), want);
    }

    #[test]
    fn complemented_mask_is_rejected() {
        let a = two_triangles();
        let desc = Descriptor::new().structural().complement();
        let r: Result<u64> =
            fused_mxm_reduce_scalar(&crate::binaryop::Plus, &a, &PLUS_PAIR, &a, &a, &desc);
        assert!(r.is_err());
    }

    #[test]
    fn empty_masked_product_reduces_to_identity() {
        // A path graph has no triangles: the masked wedge product is empty.
        let mut t = Vec::new();
        for &(i, j) in &[(0, 1), (1, 2), (2, 3)] {
            t.push((i, j, true));
            t.push((j, i, true));
        }
        let a = Matrix::from_tuples(4, 4, t, |_, b| b).expect("path");
        let desc = Descriptor::new().structural();
        let s: u64 = fused_mxm_reduce_scalar(&crate::binaryop::Plus, &a, &PLUS_PAIR, &a, &a, &desc)
            .expect("fused");
        assert_eq!(s, 0);
    }
}
