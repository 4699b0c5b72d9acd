//! Edge words: the extra inputs the masked `mxv`/`vxm` properties of
//! `kernel_equivalence` and `thread_equivalence` run on. A mask held as
//! presence words — a sparse structural mask the pull readies, or its
//! complement — hands a pull the rows it admits a word at a time, so these
//! inputs put the ends of that walk where a word is cut: outputs whose
//! length is no multiple of 64, chunk cuts at thread counts that fall
//! inside a word, and operands in every row form (CSR, layered, compressed
//! and, at 4097 rows, hypersparse).

// Each suite uses its own part of the module.
#![allow(dead_code)]

use graphblas::descriptor::Descriptor;
use graphblas::mimic::{self, DMat, DVec};
use graphblas::ops::*;
use graphblas::semiring::{ANY_SECOND, LOR_LAND, PLUS_TIMES};
use graphblas::{BinaryOp, Format, Matrix, Monoid, Scalar, Semiring, Vector};
use std::fmt::Display;

/// Output lengths that are no multiple of 64: the last word of every mask
/// holds bits past the end, set in its complement.
pub const EDGE_LENGTHS: [usize; 2] = [1000, 4097];

/// Thread counts whose chunk cuts fall inside a presence word.
pub const EDGE_THREADS: [usize; 4] = [1, 2, 3, 8];

/// `w⟨m⟩ = A ⊕.⊗ u` (`vxm_order` false) or `uᵀ ⊕.⊗ A` (`vxm_order` true),
/// by the kernels or by the dense mimic, rendered exactly. The output is as
/// long as `A`'s rows (its columns in `vxm` order); `d` transposes nothing.
pub fn mxv_rendered<A, T, SA, SM>(
    by_mimic: bool,
    vxm_order: bool,
    m: Option<&Vector<bool>>,
    s: &Semiring<SA, SM>,
    a: &Matrix<A>,
    u: &Vector<A>,
    d: &Descriptor,
) -> Vec<(usize, String)>
where
    A: Scalar,
    T: Scalar + Display,
    SA: Monoid<T>,
    SM: BinaryOp<A, A, T>,
{
    let n_out = if vxm_order { a.ncols() } else { a.nrows() };
    let w = if by_mimic {
        let (da, du) = (DMat::from_matrix(a), DVec::from_vector(u));
        let (dw, dm) = (DVec::new(n_out), m.map(DVec::from_vector));
        if vxm_order {
            mimic::vxm(&dw, dm.as_ref(), &NOACC, s, &du, &da, d).to_vector()
        } else {
            mimic::mxv(&dw, dm.as_ref(), &NOACC, s, &da, &du, d).to_vector()
        }
    } else {
        let mut w = Vector::<T>::new(n_out).expect("w");
        if vxm_order {
            vxm(&mut w, m, NOACC, s, u, a, d).expect("vxm");
        } else {
            mxv(&mut w, m, NOACC, s, a, u, d).expect("mxv");
        }
        w
    };
    w.extract_tuples().into_iter().map(|(i, x)| (i, format!("{x}"))).collect()
}

/// How an `n × n` sample is laid over `len` rows: `Tiled` repeats it down
/// all of them (sample row `r % n` at row `r`, plus an entry in every third
/// row, so a publish over it stays layered); `Spread` puts sample row `i`
/// alone at row `i · (len / n) + 5`, off every word boundary, and leaves
/// the rest empty — hypersparse at 4097 rows.
#[derive(Clone, Copy, Debug)]
enum Placed {
    Tiled,
    Spread,
}

/// A row form an edge operand is held in.
#[derive(Clone, Copy, Debug)]
enum Held {
    Csr,
    /// A publish layered over the base `Matrix::with_edits` wrote.
    Layered,
    Compressed,
}

/// The placements and forms the edge operands come in.
const EDGE_OPERANDS: [(Placed, Held); 5] = [
    (Placed::Tiled, Held::Csr),
    (Placed::Tiled, Held::Layered),
    (Placed::Tiled, Held::Compressed),
    (Placed::Spread, Held::Csr),
    (Placed::Spread, Held::Compressed),
];

fn placed(
    at: &[(usize, usize, i64)],
    n: usize,
    len: usize,
    how: Placed,
) -> Vec<(usize, usize, i64)> {
    match how {
        Placed::Tiled => (0..len)
            .flat_map(|r| {
                at.iter().filter(move |&&(i, _, _)| i == r % n).map(move |&(_, j, x)| (r, j, x))
            })
            .chain((0..len).step_by(3).map(|r| (r, r * 7 % n, 1 + (r % 5) as i64)))
            .collect(),
        Placed::Spread => at.iter().map(|&(i, j, x)| (i * (len / n) + 5, j, x)).collect(),
    }
}

/// `tuples` as a `rows × cols` matrix held in `form`, dual storage on. The
/// layered form is the tuples published once, then published again with
/// three writes to column 0 of the tall operand (row 0 of the wide one),
/// one deleting the entry `Tiled` keeps at (0, 0) — few enough that the
/// second publish layers them over the first's base.
fn held<T: Scalar>(
    rows: usize,
    cols: usize,
    tuples: Vec<(usize, usize, T)>,
    form: Held,
    tall: bool,
) -> Matrix<T> {
    let mut m = Matrix::from_tuples(rows, cols, tuples.clone(), |_, b| b).expect("edge operand");
    m.set_dual_storage(true);
    match form {
        Held::Csr => m,
        Held::Compressed => {
            m.set_compressed(true);
            m
        }
        Held::Layered => {
            m.extract_tuples();
            let at = |r: usize, x| if tall { (r, 0, x) } else { (0, r, x) };
            let len = rows.max(cols);
            let (x, y) = (tuples[0].2, tuples[tuples.len() - 1].2);
            let edits = [at(5, Some(x)), at(len / 2, Some(y)), at(0, None)];
            let first = m.with_edits(&[]).expect("first publish");
            let layered = first.with_edits(&edits).expect("layered publish");
            assert!(layered.layers().is_some_and(|l| !l.folded), "{:?}", layered.layers());
            layered
        }
    }
}

/// A sparse mask over `len` positions: three per sample entry `i` of `mt`
/// — the row `Spread` puts sample row `i` at, and two more off every word
/// boundary — and the last position. Under `len / 16` entries, so it stays
/// sparse until a pull readies it into words.
fn edge_mask(mt: &[(usize, i64)], n: usize, len: usize) -> Vector<bool> {
    let at = |&(i, _): &(usize, i64)| [5, 40, 71].map(|off| ((i * (len / n) + off) % len, true));
    let mut entries: Vec<(usize, bool)> = mt.iter().flat_map(at).collect();
    entries.extend(mt.first().map(|_| (len - 1, true)));
    Vector::from_tuples(len, entries, |_, b| b).expect("edge mask")
}

/// Every edge-word product under `desc`'s direction — `mxv` over the tall
/// operand and `vxm` over its transpose, each an output of length 1000 or
/// 4097, under a readied sparse structural mask and its complement, for a
/// terminal (LOR_LAND), a first-hit (ANY_SECOND) and a fold (PLUS_TIMES)
/// monoid — by the kernels or by the dense mimic, rendered exactly.
pub fn edge_word_products(
    by_mimic: bool,
    desc: &Descriptor,
    n: usize,
    at: &[(usize, usize, i64)],
    ut: &[(usize, i64)],
    mt: &[(usize, i64)],
) -> Vec<Vec<(usize, String)>> {
    let u = Vector::from_tuples(n, ut.to_vec(), |_, b| b).expect("u");
    let ub = Vector::from_tuples(n, ut.iter().map(|&(i, x)| (i, x >= 0)).collect(), |_, b| b)
        .expect("ub");
    let mut out = Vec::new();
    for len in EDGE_LENGTHS {
        let mask = edge_mask(mt, n, len);
        for (how, form) in EDGE_OPERANDS {
            let tall = placed(at, n, len, how);
            let wide: Vec<_> = tall.iter().map(|&(i, j, x)| (j, i, x)).collect();
            let bools =
                |t: &[(usize, usize, i64)]| t.iter().map(|&(i, j, x)| (i, j, x > 0)).collect();
            let operands = [
                (
                    false,
                    held(len, n, tall.clone(), form, true),
                    held(len, n, bools(&tall), form, true),
                ),
                (
                    true,
                    held(n, len, wide.clone(), form, false),
                    held(n, len, bools(&wide), form, false),
                ),
            ];
            if let (Placed::Spread, Held::Csr, 4097, false) = (how, form, len, at.is_empty()) {
                assert_eq!(operands[0].1.format(), Format::HyperCsr, "spread over 4097 rows");
            }
            for d in [desc.structural(), desc.structural().complement()] {
                for (vxm_order, a, b) in &operands {
                    let m = Some(&mask);
                    out.push(mxv_rendered(by_mimic, *vxm_order, m, &LOR_LAND, b, &ub, &d));
                    out.push(mxv_rendered(by_mimic, *vxm_order, m, &ANY_SECOND, a, &u, &d));
                    out.push(mxv_rendered(by_mimic, *vxm_order, m, &PLUS_TIMES, a, &u, &d));
                }
            }
        }
    }
    out
}
