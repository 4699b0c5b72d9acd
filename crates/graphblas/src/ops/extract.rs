//! `GrB_extract`: sub-vector `w = u(I)`, sub-matrix `C = A(I, J)`, and
//! column extraction `w = A(I, j)`. Index lists may select, permute, and
//! repeat.

use crate::binaryop::BinaryOp;
use crate::descriptor::Descriptor;
use crate::error::Result;
use crate::matrix::{EffView, Matrix};
use crate::parallel::{par_chunks, par_chunks_weighted, Chunking};
use crate::types::{Index, Scalar};
use crate::vector::{Vector, DENSE_LIMIT};

use super::common::{check_dims, check_mmask, check_vmask, IndexSel, InverseSel};
use super::write::{write_matrix, write_vector, VecResult};

/// `w⟨mask⟩ ⊙= u(I)`.
pub fn extract<T, Acc>(
    w: &mut Vector<T>,
    mask: Option<&Vector<bool>>,
    accum: Option<Acc>,
    u: &Vector<T>,
    i_sel: &IndexSel,
    desc: &Descriptor,
) -> Result<()>
where
    T: Scalar,
    Acc: BinaryOp<T, T, T>,
{
    i_sel.check(u.size())?;
    check_dims(w.size() == i_sel.len(u.size()), "extract: output length != |I|")?;
    check_vmask(mask, w.size())?;
    let mut span = crate::trace::op_span(crate::trace::Op::Extract);
    let t = {
        let g = u.read();
        if span.on() {
            span.arg("n", u.size());
            span.arg("u_nnz", g.nvals_assembled());
        }
        let view = g.view();
        let n_out = i_sel.len(g.n);
        if view.is_full() && n_out <= DENSE_LIMIT {
            // O(1) probes into a source at least 1/32 full: the result is
            // about as dense, so it is built full-length.
            VecResult::full(n_out, n_out, |win| {
                let mut stored = 0;
                for k in win.range() {
                    if let Some(x) = view.get(i_sel.nth(k)) {
                        win.set(k, x);
                        stored += 1;
                    }
                }
                stored
            })
        } else {
            // Output positions look up independently: chunk over 0..|I|.
            let chunks = par_chunks(n_out, n_out, |r| {
                let mut idx = Vec::new();
                let mut val = Vec::new();
                for k in r {
                    if let Some(x) = view.get(i_sel.nth(k)) {
                        idx.push(k);
                        val.push(x);
                    }
                }
                (idx, val)
            });
            let mut idx = Vec::new();
            let mut val = Vec::new();
            for (ci, cv) in chunks {
                idx.extend(ci);
                val.extend(cv);
            }
            VecResult::Lists(idx, val)
        }
    };
    write_vector(w, mask, accum, desc, t, &InverseSel::All)
}

/// `C⟨Mask⟩ ⊙= A(I, J)` (rows I, columns J of `A`, or of `Aᵀ` with the
/// transpose descriptor).
pub fn extract_matrix<T, Acc>(
    c: &mut Matrix<T>,
    mask: Option<&Matrix<bool>>,
    accum: Option<Acc>,
    a: &Matrix<T>,
    i_sel: &IndexSel,
    j_sel: &IndexSel,
    desc: &Descriptor,
) -> Result<()>
where
    T: Scalar,
    Acc: BinaryOp<T, T, T>,
{
    let mut span = crate::trace::op_span(crate::trace::Op::Extract);
    let ga = a.read_rows();
    if span.on() {
        span.arg("nrows", ga.nrows);
        span.arg("ncols", ga.ncols);
        span.arg("a_nnz", ga.nvals_assembled());
    }
    let eff = EffView::new(&ga, desc.transpose_a);
    let v = eff.view();
    i_sel.check(v.nmajor())?;
    j_sel.check(v.nminor())?;
    let (nr, nc) = (i_sel.len(v.nmajor()), j_sel.len(v.nminor()));
    // Output rows extract independently: chunk over 0..nr.
    // A contiguous selection is cut by the entries its rows store; a list
    // may permute and repeat rows, so it has no prefix sum to search.
    let first = match i_sel {
        IndexSel::All => Some(0),
        IndexSel::Range(r) => Some(r.start),
        IndexSel::List(_) => None,
    };
    let before = |k: usize| match first {
        Some(first) => v.entries_before(first + k) - v.entries_before(first),
        None => k,
    };
    let chunks = par_chunks_weighted(nr, v.nvals(), Chunking::Oversplit, before, |range| {
        let mut part = Vec::new();
        let mut scratch = crate::sparse::RowScratch::default();
        for k in range {
            let (ridx, rval) = v.row(i_sel.nth(k), &mut scratch);
            if ridx.is_empty() {
                continue;
            }
            let mut oidx: Vec<(Index, T)> = Vec::new();
            match j_sel {
                IndexSel::All => {
                    for (&j, &x) in ridx.iter().zip(rval) {
                        oidx.push((j, x));
                    }
                }
                IndexSel::Range(r) => {
                    for (&j, &x) in ridx.iter().zip(rval) {
                        if r.contains(&j) {
                            oidx.push((j - r.start, x));
                        }
                    }
                }
                IndexSel::List(list) => {
                    // J may permute and repeat: route by list position.
                    for (pos, &j) in list.iter().enumerate() {
                        if let Ok(p) = ridx.binary_search(&j) {
                            oidx.push((pos, rval[p]));
                        }
                    }
                    oidx.sort_by_key(|&(p, _)| p);
                }
            }
            if !oidx.is_empty() {
                let (oi, ov) = oidx.into_iter().unzip();
                part.push((k, oi, ov));
            }
        }
        part
    });
    let vecs: Vec<_> = chunks.into_iter().flatten().collect();
    drop(eff);
    drop(ga);
    check_dims(c.nrows() == nr && c.ncols() == nc, "extract: output shape != |I|x|J|")?;
    check_mmask(mask, nr, nc)?;
    write_matrix(c, mask, accum, desc, vecs)
}

/// `w⟨mask⟩ ⊙= A(I, j)` — one column of `A` (a row with the transpose
/// descriptor).
pub fn extract_col<T, Acc>(
    w: &mut Vector<T>,
    mask: Option<&Vector<bool>>,
    accum: Option<Acc>,
    a: &Matrix<T>,
    i_sel: &IndexSel,
    j: Index,
    desc: &Descriptor,
) -> Result<()>
where
    T: Scalar,
    Acc: BinaryOp<T, T, T>,
{
    let mut span = crate::trace::op_span(crate::trace::Op::Extract);
    let ga = a.read_rows();
    if span.on() {
        span.arg("nrows", ga.nrows);
        span.arg("ncols", ga.ncols);
        span.arg("a_nnz", ga.nvals_assembled());
    }
    let eff = EffView::new(&ga, desc.transpose_a);
    let v = eff.view();
    i_sel.check(v.nmajor())?;
    if j >= v.nminor() {
        return Err(crate::error::Error::oob(j, v.nminor()));
    }
    let n_out = i_sel.len(v.nmajor());
    // Each output position is an independent point lookup: chunk over
    // 0..|I|.
    let chunks = par_chunks(n_out, n_out, |r| {
        let mut idx = Vec::new();
        let mut val = Vec::new();
        for k in r {
            if let Some(x) = v.get(i_sel.nth(k), j) {
                idx.push(k);
                val.push(x);
            }
        }
        (idx, val)
    });
    let mut t_idx = Vec::new();
    let mut t_val = Vec::new();
    for (ci, cv) in chunks {
        t_idx.extend(ci);
        t_val.extend(cv);
    }
    drop(eff);
    drop(ga);
    check_dims(w.size() == n_out, "extract_col: output length != |I|")?;
    check_vmask(mask, w.size())?;
    write_vector(w, mask, accum, desc, VecResult::Lists(t_idx, t_val), &InverseSel::All)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::common::NOACC;
    use crate::types::All;

    fn sample() -> Matrix<i32> {
        // 0 1 2
        // 3 . 4
        // . 5 .
        Matrix::from_tuples(
            3,
            3,
            vec![(0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 3), (1, 2, 4), (2, 1, 5)],
            |_, b| b,
        )
        .expect("build")
    }

    #[test]
    fn vector_extract_range_and_list() {
        let u = Vector::from_tuples(6, vec![(1, 10), (3, 30), (5, 50)], |_, b| b).expect("u");
        let mut w = Vector::<i32>::new(3).expect("w");
        extract(&mut w, None, NOACC, &u, &IndexSel::Range(1..4), &Descriptor::default())
            .expect("extract");
        assert_eq!(w.extract_tuples(), vec![(0, 10), (2, 30)]);

        let mut w2 = Vector::<i32>::new(4).expect("w2");
        extract(
            &mut w2,
            None,
            NOACC,
            &u,
            &IndexSel::List(vec![5, 5, 0, 1]),
            &Descriptor::default(),
        )
        .expect("extract");
        assert_eq!(w2.extract_tuples(), vec![(0, 50), (1, 50), (3, 10)]);
    }

    #[test]
    fn matrix_extract_submatrix() {
        let a = sample();
        let mut c = Matrix::<i32>::new(2, 2).expect("c");
        extract_matrix(
            &mut c,
            None,
            NOACC,
            &a,
            &IndexSel::List(vec![0, 2]),
            &IndexSel::List(vec![1, 2]),
            &Descriptor::default(),
        )
        .expect("extract");
        assert_eq!(c.extract_tuples(), vec![(0, 0, 1), (0, 1, 2), (1, 0, 5)]);
    }

    #[test]
    fn matrix_extract_permuted_columns() {
        let a = sample();
        let mut c = Matrix::<i32>::new(1, 3).expect("c");
        extract_matrix(
            &mut c,
            None,
            NOACC,
            &a,
            &IndexSel::List(vec![0]),
            &IndexSel::List(vec![2, 1, 0]),
            &Descriptor::default(),
        )
        .expect("extract");
        assert_eq!(c.extract_tuples(), vec![(0, 0, 2), (0, 1, 1), (0, 2, 0)]);
    }

    #[test]
    fn matrix_extract_all() {
        let a = sample();
        let mut c = Matrix::<i32>::new(3, 3).expect("c");
        extract_matrix(
            &mut c,
            None,
            NOACC,
            &a,
            &IndexSel::from(All),
            &IndexSel::from(All),
            &Descriptor::default(),
        )
        .expect("extract");
        assert_eq!(c.extract_tuples(), a.extract_tuples());
    }

    #[test]
    fn column_extraction() {
        let a = sample();
        let mut w = Vector::<i32>::new(3).expect("w");
        extract_col(&mut w, None, NOACC, &a, &IndexSel::All, 1, &Descriptor::default())
            .expect("extract");
        assert_eq!(w.extract_tuples(), vec![(0, 1), (2, 5)]);
    }

    #[test]
    fn row_extraction_via_transpose() {
        let a = sample();
        let mut w = Vector::<i32>::new(3).expect("w");
        extract_col(&mut w, None, NOACC, &a, &IndexSel::All, 1, &Descriptor::new().transpose_a())
            .expect("extract");
        // Row 1 of A: entries at columns 0 and 2.
        assert_eq!(w.extract_tuples(), vec![(0, 3), (2, 4)]);
    }

    #[test]
    fn extract_bounds_and_dims_checked() {
        let a = sample();
        let mut c = Matrix::<i32>::new(2, 2).expect("c");
        assert!(extract_matrix(
            &mut c,
            None,
            NOACC,
            &a,
            &IndexSel::List(vec![3]),
            &IndexSel::All,
            &Descriptor::default(),
        )
        .is_err());
        let u = Vector::<i32>::new(4).expect("u");
        let mut w = Vector::<i32>::new(4).expect("w");
        assert!(extract(&mut w, None, NOACC, &u, &IndexSel::Range(0..3), &Descriptor::default())
            .is_err());
    }
}
