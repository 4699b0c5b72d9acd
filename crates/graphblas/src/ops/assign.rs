//! `GrB_assign`: write into a sub-region of a vector or matrix —
//! `w(I)⟨mask⟩ ⊙= u`, `C(I,J)⟨Mask⟩ ⊙= A`, and the scalar-expansion
//! variants (`w(I)⟨mask⟩ ⊙= x`). The scalar form with `GrB_ALL` indices is
//! the `levels[frontier] = depth` line of the Fig. 2 BFS.
//!
//! Positions outside the selected region are never modified; inside the
//! region, the standard write rule (mask / accumulator / replace) applies,
//! with the mask indexed by the output's coordinates.

use crate::binaryop::BinaryOp;
use crate::descriptor::Descriptor;
use crate::error::Result;
use crate::matrix::{rows_of, Matrix, Store};
use crate::parallel::par_chunks;
use crate::types::{Index, Scalar};
use crate::vector::Vector;

use super::common::{check_dims, check_mmask, check_vmask, IndexSel, InverseSel, MMask};
use super::write::{write_vector, VecResult};

/// `w(I)⟨mask⟩ ⊙= u`.
pub fn assign<T, Acc>(
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
    let n = w.size();
    i_sel.check(n)?;
    check_dims(u.size() == i_sel.len(n), "assign: |I| must equal length of u")?;
    check_vmask(mask, n)?;
    let mut span = crate::trace::op_span(crate::trace::Op::Assign);
    // Expand u into w-space: t[I[k]] = u[k].
    let t = {
        let g = u.read();
        if span.on() {
            span.arg("n", n);
            span.arg("u_nnz", g.nvals_assembled());
        }
        let view = g.view();
        if matches!(i_sel, IndexSel::All) && view.is_full() {
            VecResult::filter_map(view, n, |_, x| Some(x))
        } else {
            let mut t: Vec<(Index, T)> = Vec::with_capacity(g.nvals_assembled());
            view.for_each(|k, x| t.push((i_sel.nth(k), x)));
            t.sort_by_key(|&(i, _)| i);
            let (idx, val) = t.into_iter().unzip();
            VecResult::Lists(idx, val)
        }
    };
    write_vector(w, mask, accum, desc, t, &i_sel.inverse(n))
}

/// `w(I)⟨mask⟩ ⊙= x` — scalar expansion over the selected region.
pub fn assign_scalar<T, Acc>(
    w: &mut Vector<T>,
    mask: Option<&Vector<bool>>,
    accum: Option<Acc>,
    x: T,
    i_sel: &IndexSel,
    desc: &Descriptor,
) -> Result<()>
where
    T: Scalar,
    Acc: BinaryOp<T, T, T>,
{
    let n = w.size();
    i_sel.check(n)?;
    check_vmask(mask, n)?;
    let mut span = crate::trace::op_span(crate::trace::Op::Assign);
    span.arg("n", n);
    // The expanded T is x at every region position; the write rule
    // visits only those the mask allows instead of spelling it out.
    write_vector(w, mask, accum, desc, VecResult::Fill(x), &i_sel.inverse(n))
}

/// `C(I,J)⟨Mask⟩ ⊙= A`.
pub fn assign_matrix<T, Acc>(
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
    let (nr, nc) = (c.nrows(), c.ncols());
    i_sel.check(nr)?;
    j_sel.check(nc)?;
    check_dims(
        a.nrows() == i_sel.len(nr) && a.ncols() == j_sel.len(nc),
        "assign: A must be |I| x |J|",
    )?;
    check_mmask(mask, nr, nc)?;
    let mut span = crate::trace::op_span(crate::trace::Op::Assign);
    // Expand A into C-space.
    let mut t: Vec<(Index, Vec<Index>, Vec<T>)> = {
        let ga = a.read_rows();
        if span.on() {
            span.arg("nrows", nr);
            span.arg("ncols", nc);
            span.arg("a_nnz", ga.nvals_assembled());
        }
        let v = rows_of(&ga);
        let mut t = Vec::with_capacity(v.nvecs());
        v.for_each_vec(&mut |k, idx, val| {
            let mut row: Vec<(Index, T)> =
                idx.iter().zip(val).map(|(&jk, &x)| (j_sel.nth(jk), x)).collect();
            row.sort_by_key(|&(j, _)| j);
            let (ri, rv) = row.into_iter().unzip();
            t.push((i_sel.nth(k), ri, rv));
        });
        t
    };
    t.sort_by_key(|&(i, _, _)| i);
    let i_inv = i_sel.inverse(nr);
    let j_inv = j_sel.inverse(nc);
    merge_matrix_region(c, mask, accum, desc, t, &i_inv, &j_inv)
}

/// `C(I,J)⟨Mask⟩ ⊙= x` — scalar expansion over the region.
pub fn assign_matrix_scalar<T, Acc>(
    c: &mut Matrix<T>,
    mask: Option<&Matrix<bool>>,
    accum: Option<Acc>,
    x: T,
    i_sel: &IndexSel,
    j_sel: &IndexSel,
    desc: &Descriptor,
) -> Result<()>
where
    T: Scalar,
    Acc: BinaryOp<T, T, T>,
{
    let (nr, nc) = (c.nrows(), c.ncols());
    i_sel.check(nr)?;
    j_sel.check(nc)?;
    check_mmask(mask, nr, nc)?;
    let mut span = crate::trace::op_span(crate::trace::Op::Assign);
    if span.on() {
        span.arg("nrows", nr);
        span.arg("ncols", nc);
    }
    let i_inv = i_sel.inverse(nr);
    let j_inv = j_sel.inverse(nc);
    let mut t: Vec<(Index, Vec<Index>, Vec<T>)> = Vec::new();
    let enumerate_mask = mask.is_some() && !desc.mask_complement;
    if enumerate_mask {
        let g = mask.expect("checked").read_rows();
        let v = rows_of(&g);
        let structural = desc.mask_structural;
        v.for_each_vec(&mut |i, idx, val| {
            if i_inv.pos(i).is_none() {
                return;
            }
            let mut ri = Vec::new();
            for (&j, &mv) in idx.iter().zip(val) {
                if (structural || mv) && j_inv.pos(j).is_some() {
                    ri.push(j);
                }
            }
            if !ri.is_empty() {
                let rv = vec![x; ri.len()];
                t.push((i, ri, rv));
            }
        });
    } else {
        for k in 0..i_sel.len(nr) {
            let cols: Vec<Index> = match j_sel {
                IndexSel::All => (0..nc).collect(),
                IndexSel::Range(r) => r.clone().collect(),
                IndexSel::List(l) => {
                    let mut l = l.clone();
                    l.sort_unstable();
                    l.dedup();
                    l
                }
            };
            let vals = vec![x; cols.len()];
            t.push((i_sel.nth(k), cols, vals));
        }
        t.sort_by_key(|&(i, _, _)| i);
    }
    merge_matrix_region(c, mask, accum, desc, t, &i_inv, &j_inv)
}

fn merge_matrix_region<T: Scalar, Acc: BinaryOp<T, T, T>>(
    c: &mut Matrix<T>,
    mask: Option<&Matrix<bool>>,
    accum: Option<Acc>,
    desc: &Descriptor,
    t_vecs: Vec<(Index, Vec<Index>, Vec<T>)>,
    i_inv: &InverseSel,
    j_inv: &InverseSel,
) -> Result<()> {
    let (nrows, ncols) = (c.nrows(), c.ncols());
    let old_vecs = super::common::matrix_row_vecs(&*c);
    let mguard = mask.map(|m| m.read_rows());
    let mview = mguard.as_ref().map(|g| rows_of(&**g));
    let meval = MMask::new(mview, desc);

    // Pair up old and incoming rows (both sorted by major) so the per-row
    // merges — which are independent — can chunk over the paired list.
    let mut pairs: Vec<(Index, Option<usize>, Option<usize>)> = Vec::new();
    let (mut oa, mut tb) = (0, 0);
    while oa < old_vecs.len() || tb < t_vecs.len() {
        let row = match (old_vecs.get(oa), t_vecs.get(tb)) {
            (Some(o), Some(t)) => o.0.min(t.0),
            (Some(o), None) => o.0,
            (None, Some(t)) => t.0,
            (None, None) => unreachable!(),
        };
        let o = if old_vecs.get(oa).map(|o| o.0) == Some(row) {
            oa += 1;
            Some(oa - 1)
        } else {
            None
        };
        let t = if t_vecs.get(tb).map(|t| t.0) == Some(row) {
            tb += 1;
            Some(tb - 1)
        } else {
            None
        };
        pairs.push((row, o, t));
    }
    let est = old_vecs.iter().map(|v| v.1.len()).sum::<usize>()
        + t_vecs.iter().map(|v| v.1.len()).sum::<usize>();
    let chunks = par_chunks(pairs.len(), est, |range| {
        let mut part = Vec::with_capacity(range.len());
        let mut mscratch = crate::sparse::RowScratch::default();
        for &(row, o, t) in &pairs[range] {
            let row_in_region = i_inv.pos(row).is_some();
            let rmask = meval.row(row, &mut mscratch);
            let empty: (&[Index], &[T]) = (&[], &[]);
            let (o_idx, o_val) =
                o.map(|p| (&old_vecs[p].1[..], &old_vecs[p].2[..])).unwrap_or(empty);
            let (t_idx, t_val) = t.map(|p| (&t_vecs[p].1[..], &t_vecs[p].2[..])).unwrap_or(empty);
            let mut ridx = Vec::with_capacity(o_idx.len() + t_idx.len());
            let mut rval = Vec::with_capacity(o_idx.len() + t_idx.len());
            let (mut a, mut b) = (0, 0);
            while a < o_idx.len() || b < t_idx.len() {
                let (j, cval, tval) =
                    if a < o_idx.len() && (b >= t_idx.len() || o_idx[a] <= t_idx[b]) {
                        if b < t_idx.len() && o_idx[a] == t_idx[b] {
                            let r = (o_idx[a], Some(o_val[a]), Some(t_val[b]));
                            a += 1;
                            b += 1;
                            r
                        } else {
                            let r = (o_idx[a], Some(o_val[a]), None);
                            a += 1;
                            r
                        }
                    } else {
                        let r = (t_idx[b], None, Some(t_val[b]));
                        b += 1;
                        r
                    };
                let result = if !row_in_region || j_inv.pos(j).is_none() {
                    cval
                } else {
                    let z = match &accum {
                        Some(acc) => match (cval, tval) {
                            (Some(cv), Some(tv)) => Some(acc.apply(cv, tv)),
                            (Some(cv), None) => Some(cv),
                            (None, tv) => tv,
                        },
                        None => tval,
                    };
                    if rmask.allowed(j) {
                        z
                    } else if desc.replace {
                        None
                    } else {
                        cval
                    }
                };
                if let Some(v) = result {
                    ridx.push(j);
                    rval.push(v);
                }
            }
            if !ridx.is_empty() {
                part.push((row, ridx, rval));
            }
        }
        part
    });
    let out: Vec<(Index, Vec<Index>, Vec<T>)> = chunks.into_iter().flatten().collect();
    drop(mguard);
    c.install(nrows, ncols, Store::row_major_from_vecs(nrows, ncols, out));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binaryop::Plus;
    use crate::ops::common::NOACC;
    use crate::types::All;

    #[test]
    fn vector_assign_subrange() {
        let mut w =
            Vector::from_tuples(6, vec![(0, 100), (2, 100), (5, 100)], |_, b| b).expect("w");
        let u = Vector::from_tuples(3, vec![(0, 1), (2, 3)], |_, b| b).expect("u");
        assign(&mut w, None, NOACC, &u, &IndexSel::Range(2..5), &Descriptor::default())
            .expect("assign");
        // Region 2..5 becomes exactly u (entry at 3 region-pos 1 absent →
        // old entry at w(2) replaced by u(0)=1, w(4)=3; outside untouched.
        assert_eq!(w.extract_tuples(), vec![(0, 100), (2, 1), (4, 3), (5, 100)]);
    }

    #[test]
    fn vector_assign_scalar_masked_is_bfs_idiom() {
        // levels<frontier> = depth over ALL indices.
        let mut levels = Vector::from_tuples(5, vec![(0, 1)], |_, b| b).expect("levels");
        let frontier = Vector::from_tuples(5, vec![(2, true), (4, true)], |_, b| b).expect("front");
        assign_scalar(
            &mut levels,
            Some(&frontier),
            NOACC,
            2,
            &IndexSel::from(All),
            &Descriptor::default(),
        )
        .expect("assign");
        assert_eq!(levels.extract_tuples(), vec![(0, 1), (2, 2), (4, 2)]);
    }

    #[test]
    fn vector_assign_scalar_complement_mask() {
        let mut w = Vector::from_tuples(4, vec![(1, 9)], |_, b| b).expect("w");
        let m = Vector::from_tuples(4, vec![(1, true)], |_, b| b).expect("m");
        assign_scalar(
            &mut w,
            Some(&m),
            NOACC,
            7,
            &IndexSel::from(All),
            &Descriptor::new().complement(),
        )
        .expect("assign");
        // Everything except position 1 receives 7.
        assert_eq!(w.extract_tuples(), vec![(0, 7), (1, 9), (2, 7), (3, 7)]);
    }

    #[test]
    fn vector_assign_with_accumulator() {
        let mut w = Vector::from_tuples(3, vec![(0, 1), (1, 1)], |_, b| b).expect("w");
        assign_scalar(&mut w, None, Some(Plus), 10, &IndexSel::from(All), &Descriptor::default())
            .expect("assign");
        assert_eq!(w.extract_tuples(), vec![(0, 11), (1, 11), (2, 10)]);
    }

    #[test]
    fn matrix_assign_submatrix() {
        let mut c = Matrix::from_tuples(4, 4, vec![(0, 0, 9), (3, 3, 9)], |_, b| b).expect("c");
        let a = Matrix::from_tuples(2, 2, vec![(0, 0, 1), (1, 1, 2)], |_, b| b).expect("a");
        assign_matrix(
            &mut c,
            None,
            NOACC,
            &a,
            &IndexSel::List(vec![1, 2]),
            &IndexSel::List(vec![1, 2]),
            &Descriptor::default(),
        )
        .expect("assign");
        assert_eq!(c.extract_tuples(), vec![(0, 0, 9), (1, 1, 1), (2, 2, 2), (3, 3, 9)]);
    }

    #[test]
    fn matrix_assign_clears_region_entries_not_in_a() {
        let mut c = Matrix::from_tuples(3, 3, vec![(1, 1, 9), (0, 0, 9)], |_, b| b).expect("c");
        let a = Matrix::<i32>::new(2, 2).expect("a"); // empty
        assign_matrix(
            &mut c,
            None,
            NOACC,
            &a,
            &IndexSel::Range(1..3),
            &IndexSel::Range(1..3),
            &Descriptor::default(),
        )
        .expect("assign");
        // (1,1) was in the region and A is empty there → deleted.
        assert_eq!(c.extract_tuples(), vec![(0, 0, 9)]);
    }

    #[test]
    fn matrix_assign_scalar_all() {
        let mut c = Matrix::<i32>::new(2, 2).expect("c");
        assign_matrix_scalar(
            &mut c,
            None,
            NOACC,
            5,
            &IndexSel::from(All),
            &IndexSel::from(All),
            &Descriptor::default(),
        )
        .expect("assign");
        assert_eq!(c.nvals(), 4);
        assert_eq!(c.get(1, 0), Some(5));
    }

    #[test]
    fn matrix_assign_scalar_masked() {
        let mut c = Matrix::<i32>::new(3, 3).expect("c");
        let mask =
            Matrix::from_tuples(3, 3, vec![(0, 1, true), (2, 2, true)], |_, b| b).expect("m");
        assign_matrix_scalar(
            &mut c,
            Some(&mask),
            NOACC,
            7,
            &IndexSel::from(All),
            &IndexSel::from(All),
            &Descriptor::default(),
        )
        .expect("assign");
        assert_eq!(c.extract_tuples(), vec![(0, 1, 7), (2, 2, 7)]);
    }

    #[test]
    fn assign_dims_checked() {
        let mut w = Vector::<i32>::new(5).expect("w");
        let u = Vector::<i32>::new(2).expect("u");
        assert!(assign(&mut w, None, NOACC, &u, &IndexSel::Range(0..3), &Descriptor::default())
            .is_err());
    }
}
