//! `GrB_transpose`: `C⟨Mask⟩ ⊙= Aᵀ`. With the input-transpose descriptor
//! set, the two transposes cancel and this becomes a (masked, accumulated)
//! copy — exactly as the C API specifies.

use crate::binaryop::BinaryOp;
use crate::descriptor::Descriptor;
use crate::error::Result;
use crate::matrix::{EffView, Matrix};
use crate::parallel::Chunking;
use crate::sparse::RowScratch;
use crate::types::Scalar;

use super::common::{check_dims, check_mmask, par_rows};
use super::write::write_matrix;

/// `C⟨Mask⟩ ⊙= Aᵀ`.
pub fn transpose<T, Acc>(
    c: &mut Matrix<T>,
    mask: Option<&Matrix<bool>>,
    accum: Option<Acc>,
    a: &Matrix<T>,
    desc: &Descriptor,
) -> Result<()>
where
    T: Scalar,
    Acc: BinaryOp<T, T, T>,
{
    let mut span = crate::trace::op_span(crate::trace::Op::Transpose);
    let ga = a.read_rows();
    if span.on() {
        span.arg("nrows", ga.nrows);
        span.arg("ncols", ga.ncols);
        span.arg("a_nnz", ga.nvals_assembled());
    }
    // transpose(A) with transpose_a set = plain A.
    let eff = EffView::new(&ga, !desc.transpose_a);
    let v = eff.view();
    let (nr, nc) = (v.nmajor(), v.nminor());
    // The transpose itself is the held dual, or happens in `EffView`
    // (parallel bucket transpose in `sparse::transpose_dyn`); copying out
    // the rows chunks over the majors.
    let chunks = par_rows(v, v.nvals(), Chunking::Oversplit, |rows| {
        let mut scratch = RowScratch::default();
        let mut part = Vec::new();
        for i in rows {
            let (idx, val) = v.row(i, &mut scratch);
            if !idx.is_empty() {
                part.push((i, idx.to_vec(), val.to_vec()));
            }
        }
        part
    });
    let vecs: Vec<_> = chunks.into_iter().flatten().collect();
    drop(eff);
    drop(ga);
    check_dims(c.nrows() == nr && c.ncols() == nc, "transpose: output shape mismatch")?;
    check_mmask(mask, nr, nc)?;
    write_matrix(c, mask, accum, desc, vecs)
}

/// Convenience: `Aᵀ` as a new matrix.
pub fn transpose_new<T: Scalar>(a: &Matrix<T>) -> Result<Matrix<T>> {
    let mut c = Matrix::new(a.ncols(), a.nrows())?;
    transpose(&mut c, None, super::common::NOACC, a, &Descriptor::default())?;
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binaryop::Plus;
    use crate::ops::common::NOACC;

    #[test]
    fn basic_transpose() {
        let a = Matrix::from_tuples(2, 3, vec![(0, 2, 1), (1, 0, 2)], |_, b| b).expect("a");
        let t = transpose_new(&a).expect("transpose");
        assert_eq!((t.nrows(), t.ncols()), (3, 2));
        assert_eq!(t.extract_tuples(), vec![(0, 1, 2), (2, 0, 1)]);
    }

    #[test]
    fn double_transpose_is_copy() {
        let a = Matrix::from_tuples(2, 3, vec![(0, 2, 1), (1, 0, 2)], |_, b| b).expect("a");
        let mut c = Matrix::<i32>::new(2, 3).expect("c");
        transpose(&mut c, None, NOACC, &a, &Descriptor::new().transpose_a()).expect("transpose");
        assert_eq!(c.extract_tuples(), a.extract_tuples());
    }

    #[test]
    fn transpose_with_accumulator() {
        let a = Matrix::from_tuples(2, 2, vec![(0, 1, 5)], |_, b| b).expect("a");
        let mut c = Matrix::from_tuples(2, 2, vec![(1, 0, 10)], |_, b| b).expect("c");
        transpose(&mut c, None, Some(Plus), &a, &Descriptor::default()).expect("transpose");
        assert_eq!(c.extract_tuples(), vec![(1, 0, 15)]);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_tuples(4, 4, vec![(0, 3, 1.5), (2, 1, 2.5), (3, 3, 3.5)], |_, b| b)
            .expect("a");
        let t = transpose_new(&a).expect("t");
        let tt = transpose_new(&t).expect("tt");
        assert_eq!(tt.extract_tuples(), a.extract_tuples());
    }
}
