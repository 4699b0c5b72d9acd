//! `GrB_select`: keep the entries satisfying an [`IndexUnaryOp`] predicate.
//! This is the operation behind `tril`/`triu` (triangle counting) and value
//! thresholding (k-truss).

use crate::binaryop::BinaryOp;
use crate::descriptor::Descriptor;
use crate::error::Result;
use crate::matrix::{EffView, Matrix, Store};
use crate::parallel::{par_chunks, par_chunks_weighted, Chunking};
use crate::sparse::{Cs, RowScratch};
use crate::types::{Index, Scalar};
use crate::unaryop::IndexUnaryOp;
use crate::vector::Vector;

use super::common::{check_dims, check_mmask, check_vmask, par_rows, InverseSel};
use super::write::{write_matrix, write_vector, VecResult};

/// `w⟨mask⟩ ⊙= select(u, pred)` — keep entries of `u` where
/// `pred(i, 0, u(i))` holds.
pub fn select<T, Op, Acc>(
    w: &mut Vector<T>,
    mask: Option<&Vector<bool>>,
    accum: Option<Acc>,
    pred: Op,
    u: &Vector<T>,
    desc: &Descriptor,
) -> Result<()>
where
    T: Scalar,
    Op: IndexUnaryOp<T, bool>,
    Acc: BinaryOp<T, T, T>,
{
    check_dims(w.size() == u.size(), "select: output and input lengths differ")?;
    check_vmask(mask, w.size())?;
    let mut span = crate::trace::op_span(crate::trace::Op::Select);
    let t = {
        let g = u.read();
        if span.on() {
            span.arg("n", u.size());
            span.arg("u_nnz", g.nvals_assembled());
        }
        // Entries are filtered independently: chunk over the index domain
        // and stitch in chunk (= index) order. The result stays in list
        // form whatever `u`'s form, a filter's density being unknown.
        let view = g.view();
        let chunks = par_chunks(u.size(), g.nvals_assembled(), |r| {
            let mut ci = Vec::new();
            let mut cv = Vec::new();
            view.for_each_in(r, |i, x| {
                if pred.apply(i, 0, x) {
                    ci.push(i);
                    cv.push(x);
                }
            });
            (ci, cv)
        });
        let mut idx = Vec::new();
        let mut val = Vec::new();
        for (ci, cv) in chunks {
            idx.extend(ci);
            val.extend(cv);
        }
        VecResult::Lists(idx, val)
    };
    write_vector(w, mask, accum, desc, t, &InverseSel::All)
}

/// `C⟨Mask⟩ ⊙= select(A, pred)` — keep entries of `A` (or `Aᵀ`) where
/// `pred(i, j, A(i,j))` holds.
pub fn select_matrix<T, Op, Acc>(
    c: &mut Matrix<T>,
    mask: Option<&Matrix<bool>>,
    accum: Option<Acc>,
    pred: Op,
    a: &Matrix<T>,
    desc: &Descriptor,
) -> Result<()>
where
    T: Scalar,
    Op: IndexUnaryOp<T, bool>,
    Acc: BinaryOp<T, T, T>,
{
    let mut span = crate::trace::op_span(crate::trace::Op::Select);
    let ga = a.read_rows();
    if span.on() {
        span.arg("nrows", ga.nrows);
        span.arg("ncols", ga.ncols);
        span.arg("a_nnz", ga.nvals_assembled());
    }
    let (nr, nc) = if desc.transpose_a { (ga.ncols, ga.nrows) } else { (ga.nrows, ga.ncols) };
    if let (Store::Csr(cs), None, None, false, false) =
        (&ga.store, mask, &accum, desc.mask_complement, desc.transpose_a)
    {
        // Plain CSR in, nothing to merge against: filter straight into
        // flat CSR arrays (this is `tril`/`triu` and any unmasked filter).
        check_dims(c.nrows() == nr && c.ncols() == nc, "select: output shape must match input")?;
        let store = select_csr(cs, &pred);
        drop(ga);
        c.install(nr, nc, store);
        return Ok(());
    }
    let vecs = {
        let eff = EffView::new(&ga, desc.transpose_a);
        let v = eff.view();
        // Rows filter independently: chunk over the majors.
        let chunks = par_rows(v, v.nvals(), Chunking::Oversplit, |rows| {
            let mut part = Vec::new();
            let mut scratch = RowScratch::default();
            for i in rows {
                let (idx, val) = v.row(i, &mut scratch);
                if idx.is_empty() {
                    continue;
                }
                let mut ridx = Vec::new();
                let mut rval = Vec::new();
                for (&j, &x) in idx.iter().zip(val) {
                    if pred.apply(i, j, x) {
                        ridx.push(j);
                        rval.push(x);
                    }
                }
                if !ridx.is_empty() {
                    part.push((i, ridx, rval));
                }
            }
            part
        });
        chunks.into_iter().flatten().collect::<Vec<_>>()
    };
    drop(ga);
    check_dims(
        c.nrows() == nr && c.ncols() == nc,
        "select: output shape must match (possibly transposed) input",
    )?;
    check_mmask(mask, nr, nc)?;
    write_matrix(c, mask, accum, desc, vecs)
}

/// The entries of `cs` that satisfy `pred`, as a new row-major store. Each
/// chunk of rows builds a CSR block of its own — count the survivors per
/// row, size the arrays from the total, fill them — and the blocks are
/// laid end to end; a single chunk's arrays are the result as they stand.
fn select_csr<T: Scalar, Op: IndexUnaryOp<T, bool>>(cs: &Cs<T>, pred: &Op) -> Store<T> {
    let before = |i: usize| cs.ptr[i];
    let blocks =
        par_chunks_weighted(cs.nmajor, cs.idx.len(), Chunking::Oversplit, before, |rows| {
            let mut counts = Vec::with_capacity(rows.len());
            for i in rows.clone() {
                let r = cs.ptr[i]..cs.ptr[i + 1];
                let kept = cs.idx[r.clone()].iter().zip(&cs.val[r]);
                counts.push(kept.filter(|&(&j, &x)| pred.apply(i, j, x)).count());
            }
            let total: usize = counts.iter().sum();
            // Fill without a branch on the predicate: every entry is written
            // at the cursor and the cursor advances only past the kept ones
            // (a data-dependent filter mispredicts on most entries otherwise).
            // The spare slot takes the writes that follow the last kept entry.
            let mut idx = vec![0 as Index; total + 1];
            let mut val = vec![T::zero(); total + 1];
            let mut at = 0;
            for i in rows {
                let r = cs.ptr[i]..cs.ptr[i + 1];
                for (&j, &x) in cs.idx[r.clone()].iter().zip(&cs.val[r]) {
                    (idx[at], val[at]) = (j, x);
                    at += usize::from(pred.apply(i, j, x));
                }
            }
            debug_assert_eq!(at, total);
            idx.truncate(total);
            val.truncate(total);
            (counts, idx, val)
        });
    let mut ptr = Vec::with_capacity(cs.nmajor + 1);
    ptr.push(0);
    let mut occupied = 0;
    for &c in blocks.iter().flat_map(|(counts, _, _)| counts) {
        ptr.push(ptr[ptr.len() - 1] + c);
        occupied += usize::from(c > 0);
    }
    let (idx, val) = if blocks.len() == 1 {
        let (_, idx, val) = blocks.into_iter().next().expect("one block");
        (idx, val)
    } else {
        let total = ptr[cs.nmajor];
        let (mut idx, mut val) = (Vec::with_capacity(total), Vec::with_capacity(total));
        for (_, bi, bv) in blocks {
            idx.extend(bi);
            val.extend(bv);
        }
        (idx, val)
    };
    Store::row_major_from_cs(Cs { nmajor: cs.nmajor, nminor: cs.nminor, ptr, idx, val }, occupied)
}

/// Convenience: the strictly lower triangle of `a` as a new matrix — the
/// `L = tril(A, -1)` idiom of triangle counting.
pub fn tril<T: Scalar>(a: &Matrix<T>) -> Result<Matrix<T>> {
    let mut out = Matrix::new(a.nrows(), a.ncols())?;
    select_matrix(
        &mut out,
        None,
        super::common::NOACC,
        crate::unaryop::StrictLower,
        a,
        &Descriptor::default(),
    )?;
    Ok(out)
}

/// Convenience: the strictly upper triangle of `a` as a new matrix.
pub fn triu<T: Scalar>(a: &Matrix<T>) -> Result<Matrix<T>> {
    let mut out = Matrix::new(a.nrows(), a.ncols())?;
    select_matrix(
        &mut out,
        None,
        super::common::NOACC,
        crate::unaryop::StrictUpper,
        a,
        &Descriptor::default(),
    )?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::common::NOACC;
    use crate::types::Index;
    use crate::unaryop::{Diag, ValueGe};

    #[test]
    fn vector_select_by_value() {
        let u = Vector::from_tuples(5, vec![(0, 1), (1, 5), (2, 3), (4, 9)], |_, b| b).expect("u");
        let mut w = Vector::<i32>::new(5).expect("w");
        select(&mut w, None, NOACC, ValueGe(4), &u, &Descriptor::default()).expect("select");
        assert_eq!(w.extract_tuples(), vec![(1, 5), (4, 9)]);
    }

    #[test]
    fn matrix_select_diag() {
        let a =
            Matrix::from_tuples(3, 3, vec![(0, 0, 1), (0, 1, 2), (1, 1, 3), (2, 0, 4)], |_, b| b)
                .expect("a");
        let mut c = Matrix::<i32>::new(3, 3).expect("c");
        select_matrix(&mut c, None, NOACC, Diag, &a, &Descriptor::default()).expect("select");
        assert_eq!(c.extract_tuples(), vec![(0, 0, 1), (1, 1, 3)]);
    }

    #[test]
    fn tril_triu_partition_offdiagonal() {
        let a = Matrix::from_tuples(
            3,
            3,
            vec![(0, 1, 1), (1, 0, 2), (1, 2, 3), (2, 1, 4), (1, 1, 5)],
            |_, b| b,
        )
        .expect("a");
        let l = tril(&a).expect("tril");
        let u = triu(&a).expect("triu");
        assert_eq!(l.extract_tuples(), vec![(1, 0, 2), (2, 1, 4)]);
        assert_eq!(u.extract_tuples(), vec![(0, 1, 1), (1, 2, 3)]);
        assert_eq!(l.nvals() + u.nvals() + 1, a.nvals());
    }

    #[test]
    fn flat_csr_filter_matches_the_general_path() {
        // An accumulator into an empty output changes nothing but routes
        // the call through the general per-row path. Shapes: a square
        // matrix, and a tall one whose filtered result is hypersparse.
        let lcg = |k: usize| k.wrapping_mul(2654435761) >> 7;
        for (nrows, nnz) in [(300usize, 4000usize), (6000, 900)] {
            let tuples = (0..nnz).map(|k| (lcg(k) % nrows, lcg(k + nnz) % 300, k as i64)).collect();
            let a = Matrix::from_tuples(nrows, 300, tuples, |_, b| b).expect("a");
            let keep = |i: Index, j: Index, x: i64| (i + j).is_multiple_of(3) && x % 2 == 0;
            let mut general = Matrix::<i64>::new(nrows, 300).expect("c");
            select_matrix(
                &mut general,
                None,
                Some(crate::binaryop::Second),
                keep,
                &a,
                &Descriptor::default(),
            )
            .expect("general");
            for threads in [1, 8] {
                crate::parallel::set_threads(threads);
                crate::parallel::set_par_threshold(1);
                let mut flat = Matrix::<i64>::new(nrows, 300).expect("c");
                let r = select_matrix(&mut flat, None, NOACC, keep, &a, &Descriptor::default());
                crate::parallel::set_threads(0);
                crate::parallel::set_par_threshold(0);
                r.expect("flat");
                assert_eq!(flat.format(), general.format(), "{nrows} rows at {threads} threads");
                assert_eq!(flat.extract_tuples(), general.extract_tuples());
            }
        }
    }

    #[test]
    fn select_with_closure_predicate() {
        let u = Vector::from_tuples(4, vec![(0, 2), (1, 3), (2, 4)], |_, b| b).expect("u");
        let mut w = Vector::<i32>::new(4).expect("w");
        let even = |_: Index, _: Index, x: i32| x % 2 == 0;
        select(&mut w, None, NOACC, even, &u, &Descriptor::default()).expect("select");
        assert_eq!(w.extract_tuples(), vec![(0, 2), (2, 4)]);
    }
}
