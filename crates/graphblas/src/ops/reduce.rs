//! `GrB_reduce`: fold a matrix into a vector (row-wise) or a matrix/vector
//! into a scalar, using a monoid. Honors terminal (early-exit) values.

use crate::binaryop::BinaryOp;
use crate::descriptor::Descriptor;
use crate::error::Result;
use crate::matrix::{rows_of, EffView, Matrix};
use crate::monoid::{fold, Monoid};
use crate::parallel::{par_reduce, Chunking};
use crate::sparse::RowScratch;
use crate::types::Scalar;
use crate::vector::Vector;

use super::common::{check_dims, check_vmask, par_rows, InverseSel};
use super::write::{write_vector, VecResult};

/// `w⟨mask⟩ ⊙= ⊕ⱼ A(:, j)` — reduce each row of `A` (each column with the
/// transpose descriptor) to a scalar. Rows with no entries produce no
/// entry.
pub fn reduce_matrix<T, M, Acc>(
    w: &mut Vector<T>,
    mask: Option<&Vector<bool>>,
    accum: Option<Acc>,
    monoid: &M,
    a: &Matrix<T>,
    desc: &Descriptor,
) -> Result<()>
where
    T: Scalar,
    M: Monoid<T>,
    Acc: BinaryOp<T, T, T>,
{
    let mut span = crate::trace::op_span(crate::trace::Op::Reduce);
    let ga = a.read_rows();
    if span.on() {
        span.arg("nrows", ga.nrows);
        span.arg("ncols", ga.ncols);
        span.arg("a_nnz", ga.nvals_assembled());
    }
    let eff = EffView::new(&ga, desc.transpose_a);
    let v = eff.view();
    let n_out = v.nmajor();
    // Rows reduce independently: chunk over the majors; each row's fold
    // keeps its own terminal early exit.
    let chunks = par_rows(v, v.nvals(), Chunking::Oversplit, |rows| {
        let mut idx = Vec::new();
        let mut val = Vec::new();
        let mut scratch = RowScratch::default();
        for i in rows {
            let (_, vals) = v.row(i, &mut scratch);
            if vals.is_empty() {
                continue;
            }
            if let Some(x) = fold(monoid, vals.iter().copied()) {
                idx.push(i);
                val.push(x);
            }
        }
        (idx, val)
    });
    let mut t_idx = Vec::with_capacity(v.nvecs());
    let mut t_val = Vec::with_capacity(v.nvecs());
    for (idx, val) in chunks {
        t_idx.extend(idx);
        t_val.extend(val);
    }
    drop(eff);
    drop(ga);
    check_dims(w.size() == n_out, "reduce: output length must match rows")?;
    check_vmask(mask, w.size())?;
    write_vector(w, mask, accum, desc, VecResult::Lists(t_idx, t_val), &InverseSel::All)
}

/// `s = ⊕ᵢⱼ A(i,j)` — reduce all entries of a matrix to one scalar.
/// Returns the monoid identity for an empty matrix, as the C API does.
pub fn reduce_matrix_scalar<T, M>(monoid: &M, a: &Matrix<T>) -> T
where
    T: Scalar,
    M: Monoid<T>,
{
    let mut span = crate::trace::op_span(crate::trace::Op::Reduce);
    let ga = a.read_rows();
    if span.on() {
        span.arg("nrows", ga.nrows);
        span.arg("ncols", ga.ncols);
        span.arg("a_nnz", ga.nvals_assembled());
    }
    let v = rows_of(&ga);
    let majors = v.majors();
    let terminal = monoid.terminal();
    let r = par_reduce(majors.len(), v.nvals(), monoid, |range, exit| {
        let mut acc: Option<T> = None;
        let mut scratch = RowScratch::default();
        for i in majors.slice(range) {
            if exit.stop() {
                break;
            }
            let (_, vals) = v.row(i, &mut scratch);
            if vals.is_empty() {
                continue;
            }
            if let Some(x) = fold(monoid, vals.iter().copied()) {
                acc = Some(match acc {
                    Some(a) => monoid.apply(a, x),
                    None => x,
                });
                if acc == terminal || monoid.is_any() {
                    break;
                }
            }
        }
        acc
    });
    r.unwrap_or_else(|| monoid.identity())
}

/// `s = ⊕ᵢ u(i)` — reduce a vector to a scalar (identity when empty).
pub fn reduce_vector_scalar<T, M>(monoid: &M, u: &Vector<T>) -> T
where
    T: Scalar,
    M: Monoid<T>,
{
    use crate::vector::VView;
    let mut span = crate::trace::op_span(crate::trace::Op::Reduce);
    let g = u.read();
    if span.on() {
        span.arg("n", u.size());
        span.arg("u_nnz", g.nvals_assembled());
    }
    let view = g.view();
    let r = match view {
        VView::Sparse(_, val) => par_reduce(val.len(), val.len(), monoid, |range, _| {
            // One contiguous value slice per chunk; `fold` early-exits
            // within it, `par_reduce` short-circuits across chunks.
            fold(monoid, val[range].iter().copied())
        }),
        VView::Full(val, bits) => par_reduce(val.len(), val.len(), monoid, |range, _| {
            fold(monoid, range.filter(|&i| crate::vector::bitmap_get(bits, i)).map(|i| val[i]))
        }),
    };
    r.unwrap_or_else(|| monoid.identity())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binaryop::{Max, Min, Plus};
    use crate::ops::common::NOACC;

    fn sample() -> Matrix<i64> {
        Matrix::from_tuples(
            3,
            4,
            vec![(0, 0, 1), (0, 3, 2), (2, 1, 10), (2, 2, 20), (2, 3, 30)],
            |_, b| b,
        )
        .expect("build")
    }

    #[test]
    fn row_reduce() {
        let a = sample();
        let mut w = Vector::<i64>::new(3).expect("w");
        reduce_matrix(&mut w, None, NOACC, &Plus, &a, &Descriptor::default()).expect("reduce");
        // Row 1 is empty: no entry.
        assert_eq!(w.extract_tuples(), vec![(0, 3), (2, 60)]);
    }

    #[test]
    fn column_reduce_via_transpose() {
        let a = sample();
        let mut w = Vector::<i64>::new(4).expect("w");
        reduce_matrix(&mut w, None, NOACC, &Plus, &a, &Descriptor::new().transpose_a())
            .expect("reduce");
        assert_eq!(w.extract_tuples(), vec![(0, 1), (1, 10), (2, 20), (3, 32)]);
    }

    #[test]
    fn scalar_reduce_matrix() {
        let a = sample();
        assert_eq!(reduce_matrix_scalar(&Plus, &a), 63);
        assert_eq!(reduce_matrix_scalar(&Min, &a), 1);
        assert_eq!(reduce_matrix_scalar(&Max, &a), 30);
    }

    #[test]
    fn scalar_reduce_empty_is_identity() {
        let a = Matrix::<i64>::new(3, 3).expect("a");
        assert_eq!(reduce_matrix_scalar(&Plus, &a), 0);
        assert_eq!(reduce_matrix_scalar(&Min, &a), i64::MAX);
        let u = Vector::<i64>::new(3).expect("u");
        assert_eq!(reduce_vector_scalar(&Plus, &u), 0);
    }

    #[test]
    fn scalar_reduce_vector() {
        let u = Vector::from_tuples(5, vec![(0, 3), (4, 4)], |_, b| b).expect("u");
        assert_eq!(reduce_vector_scalar(&Plus, &u), 7);
    }

    #[test]
    fn masked_row_reduce() {
        let a = sample();
        let mask = Vector::from_tuples(3, vec![(2, true)], |_, b| b).expect("mask");
        let mut w = Vector::<i64>::new(3).expect("w");
        reduce_matrix(&mut w, Some(&mask), NOACC, &Plus, &a, &Descriptor::default())
            .expect("reduce");
        assert_eq!(w.extract_tuples(), vec![(2, 60)]);
    }
}
