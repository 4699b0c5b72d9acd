//! `GrB_kronecker`: the Kronecker product `C = A ⊗ B` over an arbitrary
//! binary operator. Also the generator behind Kronecker/RMAT-style
//! synthetic graphs.

use crate::binaryop::BinaryOp;
use crate::descriptor::Descriptor;
use crate::error::{Error, Result};
use crate::matrix::{EffView, Matrix};
use crate::parallel::Chunking;
use crate::sparse::RowScratch;
use crate::types::{Index, Scalar};

use super::common::{check_dims, check_mmask, par_rows};
use super::write::write_matrix;

/// `C⟨Mask⟩ ⊙= kron(A, B)` with `C((i1·rB + i2), (j1·cB + j2)) =
/// op(A(i1,j1), B(i2,j2))`.
pub fn kronecker<A, B, T, Op, Acc>(
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
    let mut span = crate::trace::op_span(crate::trace::Op::Kron);
    let ga = a.read_rows();
    let gb = b.read_rows();
    if span.on() {
        span.arg("a_nnz", ga.nvals_assembled());
        span.arg("b_nnz", gb.nvals_assembled());
    }
    let ea = EffView::new(&ga, desc.transpose_a);
    let eb = EffView::new(&gb, desc.transpose_b);
    let (av, bv) = (ea.view(), eb.view());
    let (ra, ca) = (av.nmajor(), av.nminor());
    let (rb, cb) = (bv.nmajor(), bv.nminor());
    // Every output index below is at most `nr - 1` or `nc - 1`, so a shape
    // that fits makes the whole product fit.
    let (Some(nr), Some(nc)) = (ra.checked_mul(rb), ca.checked_mul(cb)) else {
        return Err(Error::invalid(format!(
            "kronecker: a {ra}x{ca} by {rb}x{cb} product overflows the index type"
        )));
    };
    // Every output row is one (A-row, B-row) pair, so rows of A chunk the
    // work; each worker emits its block rows in the same (i1, i2) order as
    // the sequential double loop.
    let est = av.nvals().saturating_mul(bv.nvals());
    span.flops(est);
    let chunks = par_rows(av, est, Chunking::Oversplit, |rows| {
        let mut part: Vec<(Index, Vec<Index>, Vec<T>)> = Vec::new();
        let mut sa = RowScratch::default();
        let mut sb = RowScratch::default();
        for i1 in rows {
            let (aidx, aval) = av.row(i1, &mut sa);
            if aidx.is_empty() {
                continue;
            }
            for i2 in bv.majors() {
                let (bidx, bval) = bv.row(i2, &mut sb);
                if bidx.is_empty() {
                    continue;
                }
                let row = i1 * rb + i2;
                let mut ridx = Vec::with_capacity(aidx.len() * bidx.len());
                let mut rval = Vec::with_capacity(aidx.len() * bidx.len());
                for (&j1, &x) in aidx.iter().zip(aval) {
                    for (&j2, &y) in bidx.iter().zip(bval) {
                        ridx.push(j1 * cb + j2);
                        rval.push(op.apply(x, y));
                    }
                }
                part.push((row, ridx, rval));
            }
        }
        part
    });
    let vecs: Vec<(Index, Vec<Index>, Vec<T>)> = chunks.into_iter().flatten().collect();
    drop(ea);
    drop(eb);
    drop(ga);
    drop(gb);
    check_dims(c.nrows() == nr && c.ncols() == nc, "kronecker: output shape mismatch")?;
    check_mmask(mask, nr, nc)?;
    write_matrix(c, mask, accum, desc, vecs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binaryop::Times;
    use crate::ops::common::NOACC;

    #[test]
    fn kron_identity_replicates() {
        let eye = Matrix::from_tuples(2, 2, vec![(0, 0, 1), (1, 1, 1)], |_, b| b).expect("i");
        let a = Matrix::from_tuples(2, 2, vec![(0, 1, 3), (1, 0, 4)], |_, b| b).expect("a");
        let mut c = Matrix::<i32>::new(4, 4).expect("c");
        kronecker(&mut c, None, NOACC, Times, &eye, &a, &Descriptor::default()).expect("kron");
        assert_eq!(c.extract_tuples(), vec![(0, 1, 3), (1, 0, 4), (2, 3, 3), (3, 2, 4)]);
    }

    #[test]
    fn kron_scales_values() {
        let a = Matrix::from_tuples(1, 1, vec![(0, 0, 5)], |_, b| b).expect("a");
        let b = Matrix::from_tuples(2, 2, vec![(0, 0, 1), (1, 1, 2)], |_, b| b).expect("b");
        let mut c = Matrix::<i32>::new(2, 2).expect("c");
        kronecker(&mut c, None, NOACC, Times, &a, &b, &Descriptor::default()).expect("kron");
        assert_eq!(c.extract_tuples(), vec![(0, 0, 5), (1, 1, 10)]);
    }

    #[test]
    fn kron_grows_kronecker_graph() {
        // Repeated Kronecker powers of a seed adjacency pattern: the graph
        // generator the paper lists among LAGraph's support utilities.
        let seed =
            Matrix::from_tuples(2, 2, vec![(0, 0, true), (0, 1, true), (1, 1, true)], |_, b| b)
                .expect("seed");
        let mut g2 = Matrix::<bool>::new(4, 4).expect("g2");
        kronecker(
            &mut g2,
            None,
            NOACC,
            crate::binaryop::Land,
            &seed,
            &seed,
            &Descriptor::default(),
        )
        .expect("kron");
        assert_eq!(g2.nvals(), 9);
    }
}
