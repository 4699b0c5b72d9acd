//! The write rule: `C⟨M, replace⟩ ⊙= T`.
//!
//! Every GraphBLAS operation ends by merging its computed result `T` into
//! the output under the mask, accumulator, and replace settings. The C API
//! defines this once mathematically; we implement it once here, so mask
//! complement/structural handling and accumulator semantics are tested in
//! one place and inherited by every operation.
//!
//! Semantics (per position `p`):
//!
//! * `Z(p)` = `T(p)` when there is no accumulator; with accumulator `⊙`,
//!   `Z = C_old ⊙ T` with union pattern (`acc(c,t)` where both, the sole
//!   value where only one side has an entry).
//! * `C_new(p)` = `Z(p)` where the mask allows writing; elsewhere `C_old(p)`
//!   is kept, unless `replace` is set, in which case it is deleted.

use crate::binaryop::BinaryOp;
use crate::descriptor::Descriptor;
use crate::error::Result;
use crate::matrix::{Matrix, Store};
use crate::parallel::par_chunks;
use crate::types::{Index, Scalar};
use crate::vector::{
    fills_out, full_bits, par_windows, FullMut, VInner, VStore, VView, Vector, VectorFormat,
    DENSE_LIMIT,
};
use std::ops::Range;

use super::common::{matrix_row_vecs, InverseSel, MMask, VMask};

/// A computed vector result `T`, in the form its kernel produced.
pub(crate) enum VecResult<T> {
    /// Sorted, deduplicated index/value lists.
    Lists(Vec<Index>, Vec<T>),
    /// Full-length values with packed presence words and the entry count:
    /// what a pull or an element-wise pass over full-length operands
    /// writes directly (see [`VecResult::full`]).
    Full { val: Vec<T>, bits: Vec<u64>, nvals: usize },
    /// The same value at every position of the region (scalar assign),
    /// never spelled out: the write rule visits the positions the mask
    /// allows.
    Fill(T),
}

impl<T: Scalar> VecResult<T> {
    /// Compute a full-length result in one chunked pass: `fill` stores the
    /// entries of its window of the output and returns how many.
    pub fn full(
        n: Index,
        est_work: usize,
        fill: impl Fn(&mut FullMut<'_, T>) -> usize + Sync,
    ) -> Self {
        let mut val = vec![T::zero(); n];
        let mut bits = vec![0u64; n.div_ceil(64)];
        let nvals =
            par_windows(FullMut::new(&mut val, &mut bits), est_work, fill).into_iter().sum();
        VecResult::Full { val, bits, nvals }
    }

    /// A full-length operand's entries mapped (or dropped) by `f`, each at
    /// its own position: a walk of `u`'s entries, not of the index domain.
    pub fn filter_map<A: Scalar>(
        u: VView<'_, A>,
        n: Index,
        f: impl Fn(Index, A) -> Option<T> + Sync,
    ) -> Self {
        Self::full(n, n, |win| {
            let mut stored = 0;
            u.for_each_in(win.range(), |i, x| {
                if let Some(y) = f(i, x) {
                    win.set(i, y);
                    stored += 1;
                }
            });
            stored
        })
    }

    /// Spell a [`VecResult::Fill`] out over the positions of the region
    /// the mask allows; other forms pass through.
    fn expand_fill(self, n: Index, mask: &VMask<'_>, region: &InverseSel) -> Self {
        let VecResult::Fill(x) = self else { return self };
        if matches!(region, InverseSel::All) && mask.is_transparent() && n <= DENSE_LIMIT {
            return VecResult::Full { val: vec![x; n], bits: full_bits(n), nvals: n };
        }
        let mut idx = Vec::new();
        for_each_allowed_in(0..n, mask, region, |i| idx.push(i));
        let val = vec![x; idx.len()];
        VecResult::Lists(idx, val)
    }

    /// An upper bound on the positions this result writes, and on those
    /// the write rule probes the mask at for it: its entries; for a fill,
    /// the mask's stored entries when they are the allowed ones, else the
    /// region.
    fn reach(&self, n: Index, mask: &VMask<'_>, region: &InverseSel) -> usize {
        match self {
            VecResult::Lists(idx, _) => idx.len(),
            VecResult::Full { nvals, .. } => *nvals,
            VecResult::Fill(_) if mask.has_view() && !mask.is_complement() => {
                mask.nvals().min(region.len(n))
            }
            VecResult::Fill(_) => region.len(n),
        }
    }

    /// How many of this result's entries (a fill: positions of the region)
    /// the mask allows. Each lands in the output whatever it held, so this
    /// is a lower bound on the output's count after the write.
    fn allowed_len(&self, n: Index, mask: &VMask<'_>, region: &InverseSel) -> usize {
        match self {
            VecResult::Lists(idx, _) => idx.iter().filter(|&&i| mask.allowed(i)).count(),
            VecResult::Full { val, bits, .. } => {
                let mut allowed = 0;
                VView::Full(val, bits).for_each(|i, _| allowed += usize::from(mask.allowed(i)));
                allowed
            }
            VecResult::Fill(_) if !mask.has_view() => {
                if mask.is_complement() {
                    0
                } else {
                    region.len(n)
                }
            }
            VecResult::Fill(_) => {
                // The region's positions under a true mask entry, counted
                // off the mask's presence words when the region is the
                // whole vector, else off its entries; a complement allows
                // the rest.
                let under = match (region, mask.true_words()) {
                    (InverseSel::All, Some(words)) => {
                        words.iter().map(|w| w.count_ones() as usize).sum()
                    }
                    _ => {
                        let mut under = 0;
                        mask.for_each_true_in(0..n, |i| {
                            under += usize::from(region.pos(i).is_some())
                        });
                        under
                    }
                };
                if mask.is_complement() {
                    region.len(n) - under
                } else {
                    under
                }
            }
        }
    }

    /// Drop the entries the mask does not allow.
    fn restricted_to(mut self, mask: &VMask<'_>) -> Self {
        match &mut self {
            VecResult::Lists(idx, val) => {
                let mut kept = 0;
                for k in 0..idx.len() {
                    if mask.allowed(idx[k]) {
                        (idx[kept], val[kept]) = (idx[k], val[k]);
                        kept += 1;
                    }
                }
                idx.truncate(kept);
                val.truncate(kept);
            }
            VecResult::Full { val, bits, nvals } => {
                *nvals -= par_windows(FullMut::new(val, bits), *nvals, |win| {
                    win.clear_where(|i| !mask.allowed(i))
                })
                .into_iter()
                .sum::<usize>();
            }
            VecResult::Fill(_) => unreachable!("a fill is expanded before it is restricted"),
        }
        self
    }

    fn into_lists(self) -> (Vec<Index>, Vec<T>) {
        match self {
            VecResult::Lists(idx, val) => (idx, val),
            VecResult::Full { val, bits, nvals } => {
                let mut idx = Vec::with_capacity(nvals);
                let mut out = Vec::with_capacity(nvals);
                VView::Full(&val, &bits).for_each(|i, x| {
                    idx.push(i);
                    out.push(x);
                });
                (idx, out)
            }
            VecResult::Fill(_) => unreachable!("a fill is expanded before it is listed"),
        }
    }
}

/// Visit, in increasing order, the positions of `r` that lie in the region
/// and that the mask allows — walking the mask's stored entries when they
/// are the allowed ones, else the region's positions.
fn for_each_allowed_in(
    r: Range<Index>,
    mask: &VMask<'_>,
    region: &InverseSel,
    mut f: impl FnMut(Index),
) {
    if mask.has_view() && !mask.is_complement() {
        mask.for_each_true_in(r, |i| {
            if region.pos(i).is_some() {
                f(i);
            }
        });
    } else {
        region.for_each_in(r, |i| {
            if mask.allowed(i) {
                f(i);
            }
        });
    }
}

/// Merge a computed vector result into `w`: the one write rule every
/// vector-output operation ends in. `region` is the selection an `assign`
/// restricts the write to (`InverseSel::All` for every other operation);
/// `t` holds in-region entries only, and positions outside the region are
/// never touched.
///
/// Three paths, chosen from what the output holds (reported as the
/// span's `path` argument, beside the output's form on entry, `w_form`):
///
/// * `install` — nothing to merge against: the whole vector is written
///   and either the output is empty or there is neither mask nor
///   accumulator. What the mask allows of `T` becomes the output, in
///   `T`'s own arrays.
/// * `inplace` — the output is in the full-length form, or is sparse and
///   `T`'s allowed entries alone (a fill: the positions the mask allows)
///   already reach the n/16 count at which [`VInner::optimize_form`]
///   would promote the result: a sparse output is promoted first. `T` is
///   scattered into the output's own arrays, see [`write_in_place`].
/// * `merge` — the output is sparse and stays so unless the merged count
///   crosses n/16: a two-pointer merge of its lists with `T`'s builds new
///   lists, O(|w| + |T|), and `optimize_form` promotes them if so.
///
/// Either way the output ends in the form a merge and `optimize_form`
/// would leave it in. A sparse mask the paths probe at ≥ n/64 positions
/// is scattered into presence words once ([`VMask::ready_for`]).
pub(crate) fn write_vector<T: Scalar, Acc: BinaryOp<T, T, T>>(
    w: &mut Vector<T>,
    mask: Option<&Vector<bool>>,
    accum: Option<Acc>,
    desc: &Descriptor,
    t: VecResult<T>,
    region: &InverseSel,
) -> Result<()> {
    let mguard = mask.map(|m| m.read());
    let mut meval = VMask::of(mguard.as_deref(), desc);
    write_under(w, &mut meval, accum, desc, t, false, region)
}

/// [`write_vector`] under a mask the calling op has already evaluated
/// (and perhaps readied): one `VMask` per op. `restricted` says `t` holds
/// only entries this mask allows — what a kernel that skipped every
/// blocked position computed — so the `install` path takes it as it is,
/// with no second probe of each entry (the write span's `reprobed`
/// counts the probes it does make).
pub(crate) fn write_under<T: Scalar, Acc: BinaryOp<T, T, T>>(
    w: &mut Vector<T>,
    meval: &mut VMask<'_>,
    accum: Option<Acc>,
    desc: &Descriptor,
    t: VecResult<T>,
    restricted: bool,
    region: &InverseSel,
) -> Result<()> {
    let mut span = crate::trace::op_span(crate::trace::Op::Write);
    let inner = w.inner.get_mut();
    let n = inner.n;
    let reach = t.reach(n, meval, region);

    let replaces_all = meval.is_transparent() && accum.is_none();
    if matches!(region, InverseSel::All) && (replaces_all || inner.is_empty()) {
        span.arg("path", "install");
        span.arg("w_form", inner.format().name());
        // A fill is spelled out over the allowed positions only.
        let recheck = !restricted && !meval.is_transparent() && !matches!(t, VecResult::Fill(_));
        if !restricted {
            meval.ready_for(n, reach);
        }
        let t = t.expand_fill(n, meval, region);
        span.arg("reprobed", if recheck { t.reach(n, meval, region) } else { 0 });
        let t = if recheck { t.restricted_to(meval) } else { t };
        match t {
            VecResult::Lists(idx, val) => {
                span.arg("work", idx.len());
                w.install(idx, val);
            }
            VecResult::Full { val, bits, nvals } => {
                span.arg("work", nvals);
                w.install_full(val, bits, nvals);
            }
            VecResult::Fill(_) => unreachable!("expanded above"),
        }
        return Ok(());
    }

    inner.assemble();
    let w_form = inner.format();
    span.arg("w_form", w_form.name());
    meval.ready_for(n, reach.saturating_add(inner.nvals_assembled()));
    // `reach` bounds the allowed count from above: count it only when it
    // could reach the threshold at all.
    let promoted = w_form == VectorFormat::Sparse
        && fills_out(n, reach)
        && fills_out(n, t.allowed_len(n, meval, region));
    let work = if w_form == VectorFormat::Sparse && !promoted {
        span.arg("path", "merge");
        let (t_idx, t_val) = t.expand_fill(n, meval, region).into_lists();
        let work = inner.nvals_assembled() + t_idx.len();
        let (idx, val) = merge_sparse(inner, meval, &accum, desc.replace, &t_idx, &t_val, region);
        inner.store = VStore::Sparse { idx, val };
        work
    } else {
        span.arg("path", "inplace");
        inner.fill_out();
        let (work, by_words) = write_in_place(inner, meval, &accum, desc.replace, &t, region);
        if matches!(t, VecResult::Fill(_)) {
            span.arg("fill", if by_words { "words" } else { "entries" });
        }
        work
    };
    span.arg("work", work);
    inner.optimize_form();
    if promoted {
        // Reported as `optimize_form` would have after a merge: from the
        // form on entry to the one the result settled in.
        crate::trace::vector_convert(w_form.name(), inner.format().name(), n);
    }
    Ok(())
}

/// The in-place arm of the write rule, for an output in a full-length
/// form. Per position `i` of the region, with `A(i)` = "the mask allows
/// `i`": where `A`, the result is `T(i)` (no accumulator) or `w(i) ⊙ T(i)`
/// over the union pattern; elsewhere `w(i)` stays, or goes under
/// `replace`. Done in two steps over disjoint windows of the output:
///
/// 1. *delete* the old entries the rule does not keep — those where `A`
///    holds when there is no accumulator (`T`'s pattern replaces them;
///    a fill covers them all, so nothing to delete), and those where it
///    does not under `replace`. Deleting on the side of the mask its
///    stored entries enumerate walks those entries, O(|stored mask|); the
///    other side, or both, sweeps the output's presence, a word per 64
///    positions;
/// 2. *scatter* `T`'s allowed entries, combining with what is still there
///    under an accumulator: O(|T|), or for a fill the allowed positions.
///    A fill of the whole vector under a mask that holds presence words,
///    with neither accumulator nor step 1, goes a word at a time
///    ([`FullMut::fill_under`]): O(n/64 + allowed positions), no call per
///    position.
///
/// The entry count is kept exact from the insertions and deletions
/// actually made. Returns the number of positions examined, and whether a
/// fill went a word at a time.
fn write_in_place<T: Scalar, Acc: BinaryOp<T, T, T>>(
    inner: &mut VInner<T>,
    mask: &VMask<'_>,
    accum: &Option<Acc>,
    replace: bool,
    t: &VecResult<T>,
    region: &InverseSel,
) -> (usize, bool) {
    /// Which of the output's old entries step 1 deletes.
    #[derive(Clone, Copy)]
    enum Sweep {
        Nothing,
        /// Every stored entry in the region.
        Stored,
        /// Those under a stored mask entry that passes the value test.
        MaskEntries,
        /// Those on the side of the mask its entries do not enumerate:
        /// probe the mask at each stored entry, delete where "allowed"
        /// equals the flag.
        Probe(bool),
    }
    let clear_allowed = accum.is_none() && !matches!(t, VecResult::Fill(_));
    let sweep = match (clear_allowed, replace) {
        (false, false) => Sweep::Nothing,
        (true, true) => Sweep::Stored,
        // One side only. A position is allowed when its mask entry is true
        // XOR complement, so the side to delete is the stored-entry side
        // exactly when `clear_allowed != complement`; with no mask object
        // every position counts as a true entry.
        _ => match (mask.has_view(), clear_allowed != mask.is_complement()) {
            (true, true) => Sweep::MaskEntries,
            (true, false) => Sweep::Probe(clear_allowed),
            (false, true) => Sweep::Stored,
            (false, false) => Sweep::Nothing,
        },
    };
    let n = inner.n;
    let (full, nvals) = inner.full_mut().expect("in-place arm needs a full-length output");
    let swept = match sweep {
        Sweep::Nothing => 0,
        Sweep::MaskEntries => mask.nvals(),
        Sweep::Stored | Sweep::Probe(_) => *nvals,
    };
    let t_work = match t {
        VecResult::Lists(idx, _) => idx.len(),
        VecResult::Full { .. } => n,
        VecResult::Fill(_) if mask.has_view() && !mask.is_complement() => mask.nvals(),
        VecResult::Fill(_) => region.len(n),
    };
    // The words of the allowed positions, for a fill that writes them all
    // and nothing else.
    let fill_words = match (t, sweep, region) {
        (VecResult::Fill(x), Sweep::Nothing, InverseSel::All)
            if accum.is_none() && !mask.is_complement() =>
        {
            mask.true_words().map(|words| (*x, words))
        }
        _ => None,
    };
    let deltas = par_windows(full, t_work + swept, |win| {
        if let Some((x, words)) = fill_words {
            return (win.fill_under(words, x), 0);
        }
        let mut removed = 0;
        match sweep {
            Sweep::Nothing => {}
            Sweep::Stored => removed = win.clear_where(|i| region.pos(i).is_some()),
            Sweep::MaskEntries => mask.for_each_true_in(win.range(), |i| {
                if region.pos(i).is_some() && win.clear(i) {
                    removed += 1;
                }
            }),
            Sweep::Probe(side) => {
                removed = win.clear_where(|i| region.pos(i).is_some() && mask.allowed(i) == side)
            }
        }
        let r = win.range();
        let mut added = 0;
        let mut put = |i: Index, tv: T| {
            let z = match (accum, win.get(i)) {
                (Some(acc), Some(c)) => acc.apply(c, tv),
                _ => tv,
            };
            if win.set(i, z) {
                added += 1;
            }
        };
        match t {
            VecResult::Fill(x) => for_each_allowed_in(r, mask, region, |i| put(i, *x)),
            VecResult::Lists(idx, val) => {
                let (a, b) =
                    (idx.partition_point(|&i| i < r.start), idx.partition_point(|&i| i < r.end));
                for (&i, &tv) in idx[a..b].iter().zip(&val[a..b]) {
                    debug_assert!(region.pos(i).is_some(), "T must lie inside the region");
                    if mask.allowed(i) {
                        put(i, tv);
                    }
                }
            }
            VecResult::Full { val, bits, .. } => VView::Full(val, bits).for_each_in(r, |i, tv| {
                if mask.allowed(i) {
                    put(i, tv);
                }
            }),
        }
        (added, removed)
    });
    for (added, removed) in deltas {
        *nvals = *nvals + added - removed;
    }
    (t_work + swept, fill_words.is_some())
}

/// The merge arm of the write rule, for a sparse output: returns the new
/// index/value lists.
fn merge_sparse<T: Scalar, Acc: BinaryOp<T, T, T>>(
    inner: &VInner<T>,
    mask: &VMask<'_>,
    accum: &Option<Acc>,
    replace: bool,
    t_idx: &[Index],
    t_val: &[T],
    region: &InverseSel,
) -> (Vec<Index>, Vec<T>) {
    debug_assert!(t_idx.windows(2).all(|p| p[0] < p[1]), "result must be sorted");
    let VStore::Sparse { idx: old_idx, val: old_val } = &inner.store else {
        unreachable!("merge arm needs a sparse output")
    };
    // Positions are decided independently, so chunk over the index domain:
    // each worker binary-searches its slice of both inputs and runs the
    // two-pointer merge + write rule; chunk-order stitching keeps the
    // output sorted.
    let chunks = par_chunks(inner.n, t_idx.len() + old_idx.len(), |r| {
        let (oa, ob) =
            (old_idx.partition_point(|&i| i < r.start), old_idx.partition_point(|&i| i < r.end));
        let (ta, tb) =
            (t_idx.partition_point(|&i| i < r.start), t_idx.partition_point(|&i| i < r.end));
        let (old_idx, old_val) = (&old_idx[oa..ob], &old_val[oa..ob]);
        let (t_idx, t_val) = (&t_idx[ta..tb], &t_val[ta..tb]);
        let mut out_idx = Vec::with_capacity(t_idx.len() + old_idx.len());
        let mut out_val = Vec::with_capacity(t_idx.len() + old_idx.len());
        let (mut a, mut b) = (0, 0);
        while a < old_idx.len() || b < t_idx.len() {
            let (i, c, t) = if a < old_idx.len() && (b >= t_idx.len() || old_idx[a] <= t_idx[b]) {
                let both = b < t_idx.len() && old_idx[a] == t_idx[b];
                let r = (old_idx[a], Some(old_val[a]), both.then(|| t_val[b]));
                a += 1;
                b += usize::from(both);
                r
            } else {
                b += 1;
                (t_idx[b - 1], None, Some(t_val[b - 1]))
            };
            let result = if region.pos(i).is_none() {
                c // outside the region: untouched
            } else if mask.allowed(i) {
                match (accum, c, t) {
                    (Some(acc), Some(c), Some(t)) => Some(acc.apply(c, t)),
                    (Some(_), Some(c), None) => Some(c),
                    (_, _, t) => t,
                }
            } else if replace {
                None
            } else {
                c
            };
            if let Some(v) = result {
                out_idx.push(i);
                out_val.push(v);
            }
        }
        (out_idx, out_val)
    });
    let mut out_idx = Vec::with_capacity(t_idx.len() + old_idx.len());
    let mut out_val = Vec::with_capacity(t_idx.len() + old_idx.len());
    for (ci, cv) in chunks {
        out_idx.extend(ci);
        out_val.extend(cv);
    }
    (out_idx, out_val)
}

/// Merge a computed sparse matrix result (per-row segments, sorted by row)
/// into `c`.
pub(crate) fn write_matrix<T: Scalar, Acc: BinaryOp<T, T, T>>(
    c: &mut Matrix<T>,
    mask: Option<&Matrix<bool>>,
    accum: Option<Acc>,
    desc: &Descriptor,
    t_vecs: Vec<(Index, Vec<Index>, Vec<T>)>,
) -> Result<()> {
    let mut span = crate::trace::op_span(crate::trace::Op::Write);
    if span.on() {
        span.arg("t_nnz", t_vecs.iter().map(|(_, i, _)| i.len()).sum::<usize>());
    }
    let (nrows, ncols) = (c.nrows(), c.ncols());

    // Fast path: the result replaces the output wholesale.
    let transparent = mask.is_none() && !desc.mask_complement;
    if transparent && accum.is_none() {
        c.install(nrows, ncols, Store::row_major_from_vecs(nrows, ncols, t_vecs));
        return Ok(());
    }

    let old_vecs = matrix_row_vecs(&*c);
    let mguard = mask.map(|m| m.read_rows());
    let mview = mguard.as_ref().map(|g| crate::matrix::rows_of(&**g));
    let out = merge_rows(old_vecs, t_vecs, &MMask::new(mview, desc), &accum, desc.replace);
    drop(mguard);
    c.install(nrows, ncols, Store::row_major_from_vecs(nrows, ncols, out));
    Ok(())
}

fn merge_rows<T: Scalar, Acc: BinaryOp<T, T, T>>(
    old_vecs: Vec<(Index, Vec<Index>, Vec<T>)>,
    t_vecs: Vec<(Index, Vec<Index>, Vec<T>)>,
    mask: &MMask<'_>,
    accum: &Option<Acc>,
    replace: bool,
) -> Vec<(Index, Vec<Index>, Vec<T>)> {
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
            let rmask = mask.row(row, &mut mscratch);
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
                let z = match accum {
                    Some(acc) => match (cval, tval) {
                        (Some(cv), Some(tv)) => Some(acc.apply(cv, tv)),
                        (Some(cv), None) => Some(cv),
                        (None, tv) => tv,
                    },
                    None => tval,
                };
                let result = if rmask.allowed(j) {
                    z
                } else if replace {
                    None
                } else {
                    cval
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
    chunks.into_iter().flatten().collect()
}
