//! Shared plumbing for the operation layer: index selections, mask
//! evaluation, and accumulator conventions.

use std::borrow::Cow;

use crate::descriptor::Descriptor;
use crate::error::{Error, Result};
use crate::matrix::{rows_of, Matrix};
use crate::parallel::{par_chunks_weighted, prefix_sums, Chunking};
use crate::sparse::{Majors, SparseView};
use crate::types::{All, Index, Scalar};
use crate::vector::{bitmap_get, VInner, VView, Vector, DENSE_LIMIT};

/// "No accumulator" placeholder with a concrete operator type, so call
/// sites can write `NOACC` without a turbofish. (The operator inside is
/// never invoked.)
pub const NOACC: Option<crate::binaryop::Second> = None;

/// Run `work` over the majors of `v` ([`SparseView::majors`]) in chunks
/// that each walk an equal share of `v`'s stored entries, and return the
/// results in row order. The row loop of every kernel whose cost is the
/// entries of the rows it visits; the loop skips a row that reads empty.
/// `est_work` is the usual sequential-cutoff estimate.
pub(crate) fn par_rows<T: Scalar, R: Send>(
    v: &dyn SparseView<T>,
    est_work: usize,
    chunking: Chunking,
    work: impl Fn(Majors<'_>) -> R + Sync,
) -> Vec<R> {
    let majors = v.majors();
    par_chunks_weighted(
        majors.len(),
        est_work,
        chunking,
        |k| majors.get(k).map_or(v.nvals(), |i| v.entries_before(i)),
        |r| work(majors.slice(r)),
    )
}

/// Run `work` over `mrows` — a mask's stored entries grouped by row — in
/// chunks that each hold an equal share of the mask entries (one dot
/// product each, for the masked-dot kernels), several chunks per thread:
/// what a dot costs varies a hundredfold with the rows it intersects, and
/// only the cursor can even that out.
pub(crate) fn par_mask_rows<R: Send>(
    mrows: &[(Index, Vec<Index>)],
    est_work: usize,
    work: impl Fn(&[(Index, Vec<Index>)]) -> R + Sync,
) -> Vec<R> {
    let entries = std::cell::OnceCell::new();
    let before =
        |k: usize| entries.get_or_init(|| prefix_sums(mrows.iter().map(|(_, js)| js.len())))[k];
    par_chunks_weighted(mrows.len(), est_work, Chunking::Oversplit, before, |r| work(&mrows[r]))
}

/// An index selection for extract/assign: the C API's `GrB_ALL`, an
/// explicit list, or a contiguous range.
#[derive(Debug, Clone)]
pub enum IndexSel {
    /// Every index in the dimension (`GrB_ALL`).
    All,
    /// An explicit list, in the given order (may permute and repeat for
    /// extract; must not repeat for assign).
    List(Vec<Index>),
    /// A contiguous half-open range.
    Range(std::ops::Range<Index>),
}

impl IndexSel {
    /// Number of selected indices given the dimension `n` it applies to.
    pub fn len(&self, n: Index) -> usize {
        match self {
            IndexSel::All => n,
            IndexSel::List(l) => l.len(),
            IndexSel::Range(r) => r.len(),
        }
    }

    /// The `k`-th selected index.
    pub fn nth(&self, k: usize) -> Index {
        match self {
            IndexSel::All => k,
            IndexSel::List(l) => l[k],
            IndexSel::Range(r) => r.start + k,
        }
    }

    /// Validate all selected indices against the dimension `n`.
    pub fn check(&self, n: Index) -> Result<()> {
        match self {
            IndexSel::All => Ok(()),
            IndexSel::List(l) => {
                for &i in l {
                    if i >= n {
                        return Err(Error::oob(i, n));
                    }
                }
                Ok(())
            }
            IndexSel::Range(r) => {
                if r.end > n {
                    return Err(Error::oob(r.end.saturating_sub(1), n));
                }
                Ok(())
            }
        }
    }

    /// Map a source index back to its selection position, if selected.
    /// Used by assign to route existing entries. For `List` this is a
    /// linear scan cached by callers via [`IndexSel::inverse`].
    pub fn inverse(&self, n: Index) -> InverseSel {
        match self {
            IndexSel::All => InverseSel::All,
            IndexSel::Range(r) => InverseSel::Range(r.clone()),
            IndexSel::List(l) => {
                let mut map = std::collections::HashMap::with_capacity(l.len());
                for (k, &i) in l.iter().enumerate() {
                    map.insert(i, k);
                }
                let _ = n;
                InverseSel::Map(map)
            }
        }
    }
}

/// Inverted index selection: position of a dimension index within the
/// selection, if any.
pub enum InverseSel {
    /// The selection is `GrB_ALL`: position = dimension index.
    All,
    /// The selection is a contiguous range: position = index − start.
    Range(std::ops::Range<Index>),
    /// Arbitrary index list: positions resolved through a hash map.
    Map(std::collections::HashMap<Index, usize>),
}

impl InverseSel {
    /// The selection position of dimension index `i`, or `None`.
    pub fn pos(&self, i: Index) -> Option<usize> {
        match self {
            InverseSel::All => Some(i),
            InverseSel::Range(r) => {
                if r.contains(&i) {
                    Some(i - r.start)
                } else {
                    None
                }
            }
            InverseSel::Map(m) => m.get(&i).copied(),
        }
    }

    /// Number of selected positions in a dimension of size `n`.
    pub fn len(&self, n: Index) -> usize {
        match self {
            InverseSel::All => n,
            InverseSel::Range(r) => r.len(),
            InverseSel::Map(m) => m.len(),
        }
    }

    /// Visit the selected positions that lie in `r`, in increasing order.
    pub fn for_each_in(&self, r: std::ops::Range<Index>, mut f: impl FnMut(Index)) {
        match self {
            InverseSel::All => r.for_each(f),
            InverseSel::Range(sel) => (r.start.max(sel.start)..r.end.min(sel.end)).for_each(f),
            InverseSel::Map(m) => {
                let mut hit: Vec<Index> = m.keys().copied().filter(|i| r.contains(i)).collect();
                hit.sort_unstable();
                hit.into_iter().for_each(&mut f);
            }
        }
    }
}

impl From<All> for IndexSel {
    fn from(_: All) -> Self {
        IndexSel::All
    }
}

impl From<std::ops::Range<Index>> for IndexSel {
    fn from(r: std::ops::Range<Index>) -> Self {
        IndexSel::Range(r)
    }
}

impl From<Vec<Index>> for IndexSel {
    fn from(l: Vec<Index>) -> Self {
        IndexSel::List(l)
    }
}

impl From<&[Index]> for IndexSel {
    fn from(l: &[Index]) -> Self {
        IndexSel::List(l.to_vec())
    }
}

/// Evaluated vector mask: answers "may position `i` be written?"
/// incorporating the value/structural and complement descriptor settings.
///
/// A full-length mask answers in O(1): a structural one from its presence
/// words alone, a valued one from its words and values. A sparse one
/// answers by binary search until the op that holds it says, through
/// [`VMask::ready_for`], that it will probe enough positions to pay for a
/// scatter: then its true entries go once into packed presence words (a
/// stored `false` of a valued mask sets no bit), and every probe after
/// that is one word load.
pub(crate) struct VMask<'a> {
    view: Option<VView<'a, bool>>,
    /// The mask's stored entries, `false`s of a valued mask included.
    nvals: usize,
    /// Presence words holding exactly the entries that count as true: a
    /// structural full-length view's own, or a sparse view's, scattered.
    words: Option<Cow<'a, [u64]>>,
    complement: bool,
    structural: bool,
}

impl<'a> VMask<'a> {
    #[cfg(test)]
    pub fn new(view: Option<VView<'a, bool>>, desc: &Descriptor) -> Self {
        let nvals = view.map_or(0, |v| v.nvals());
        Self::counted(view, nvals, desc)
    }

    /// The mask of an op that holds `mask`'s read guard (assembled), its
    /// entry count taken from the vector rather than counted.
    pub fn of(mask: Option<&'a VInner<bool>>, desc: &Descriptor) -> Self {
        Self::counted(mask.map(|m| m.view()), mask.map_or(0, |m| m.nvals_assembled()), desc)
    }

    fn counted(view: Option<VView<'a, bool>>, nvals: usize, desc: &Descriptor) -> Self {
        let words = match view {
            Some(VView::Full(_, bits)) if desc.mask_structural => Some(Cow::Borrowed(bits)),
            _ => None,
        };
        let (complement, structural) = (desc.mask_complement, desc.mask_structural);
        VMask { view, nvals, words, complement, structural }
    }

    /// The mask's stored entries (0 without a mask object).
    pub fn nvals(&self) -> usize {
        self.nvals
    }

    /// True for a sparse mask not yet scattered into presence words: a
    /// probe would binary-search it, so the op sizes its probes for
    /// [`VMask::ready_for`].
    pub fn searches(&self) -> bool {
        matches!(self.view, Some(VView::Sparse(..))) && self.words.is_none()
    }

    /// The presence words of the entries that count as true, when the mask
    /// holds them (a structural full-length mask, or a readied sparse
    /// one); the complement flag plays no part.
    pub fn true_words(&self) -> Option<&[u64]> {
        self.words.as_deref()
    }

    /// Get ready for about `probes` position probes over a length-`n`
    /// output: a sparse mask scatters its true entries into presence words
    /// when that O(nvals + n/64) pass is at most a probe per word — at
    /// least n/64 probes — and `n` is short enough for a full-length form.
    /// A hypersparse-length mask keeps the binary search.
    pub fn ready_for(&mut self, n: Index, probes: usize) {
        let Some(VView::Sparse(idx, val)) = self.view else { return };
        if self.words.is_some() || n > DENSE_LIMIT || probes.saturating_mul(64) < n {
            return;
        }
        let mut words = vec![0u64; n.div_ceil(64)];
        for (&i, &b) in idx.iter().zip(val) {
            if self.structural || b {
                words[i >> 6] |= 1 << (i & 63);
            }
        }
        self.words = Some(Cow::Owned(words));
        crate::trace::mask_scatter(idx.len(), n);
    }

    #[inline]
    pub fn allowed(&self, i: Index) -> bool {
        let base = match (&self.words, &self.view) {
            (Some(words), _) => bitmap_get(words, i),
            (None, None) => true,
            (None, Some(v)) => match v.get(i) {
                None => false,
                Some(b) => self.structural || b,
            },
        };
        base != self.complement
    }

    /// True when no mask narrows the write (no mask, no complement).
    pub fn is_transparent(&self) -> bool {
        self.view.is_none() && !self.complement
    }

    pub fn has_view(&self) -> bool {
        self.view.is_some()
    }

    pub fn is_complement(&self) -> bool {
        self.complement
    }

    /// Visit, in increasing order, the stored mask entries in `r` that
    /// count as true (any entry when structural). Nothing without a mask
    /// object; the complement flag plays no part.
    pub fn for_each_true_in(&self, r: std::ops::Range<Index>, mut f: impl FnMut(Index)) {
        if let Some(v) = &self.view {
            v.for_each_in(r, |i, b| {
                if self.structural || b {
                    f(i);
                }
            });
        }
    }
}

/// Evaluated matrix mask.
pub(crate) struct MMask<'a> {
    view: Option<&'a dyn SparseView<bool>>,
    complement: bool,
    structural: bool,
}

impl<'a> MMask<'a> {
    pub fn new(view: Option<&'a dyn SparseView<bool>>, desc: &Descriptor) -> Self {
        MMask { view, complement: desc.mask_complement, structural: desc.mask_structural }
    }

    /// Iterate the mask's stored entries that pass the value/structural
    /// test (not meaningful for complemented masks).
    pub fn for_each_stored(&self, f: &mut dyn FnMut(Index, Index)) {
        if let Some(v) = self.view {
            let structural = self.structural;
            v.for_each_vec(&mut |i, idx, val| {
                for (&j, &mv) in idx.iter().zip(val) {
                    if structural || mv {
                        f(i, j);
                    }
                }
            });
        }
    }

    pub fn nvals(&self) -> usize {
        self.view.map_or(0, |v| v.nvals())
    }

    pub fn has_view(&self) -> bool {
        self.view.is_some()
    }

    pub fn is_complement(&self) -> bool {
        self.complement
    }

    /// A per-row evaluator that reuses the row slices. `scratch` backs the
    /// row when the mask matrix sits in compressed storage; callers keep
    /// one per worker and the borrow ties the returned mask to it.
    pub fn row<'s>(
        &'s self,
        i: Index,
        scratch: &'s mut crate::sparse::RowScratch<bool>,
    ) -> RowMask<'s> {
        match self.view {
            None => RowMask {
                idx: &[],
                val: &[],
                none: true,
                complement: self.complement,
                structural: self.structural,
            },
            Some(v) => {
                let (idx, val) = v.row(i, scratch);
                RowMask {
                    idx,
                    val,
                    none: false,
                    complement: self.complement,
                    structural: self.structural,
                }
            }
        }
    }
}

/// One row of an evaluated matrix mask.
pub(crate) struct RowMask<'a> {
    idx: &'a [Index],
    val: &'a [bool],
    none: bool,
    complement: bool,
    structural: bool,
}

impl<'a> RowMask<'a> {
    #[inline]
    pub fn allowed(&self, j: Index) -> bool {
        let base = if self.none {
            true
        } else {
            match self.idx.binary_search(&j) {
                Err(_) => false,
                Ok(p) => self.structural || self.val[p],
            }
        };
        base != self.complement
    }
}

/// Dimension check helper.
pub(crate) fn check_dims(cond: bool, detail: &str) -> Result<()> {
    if cond {
        Ok(())
    } else {
        Err(Error::dim(detail.to_string()))
    }
}

/// Check a vector mask against the output length.
pub(crate) fn check_vmask(mask: Option<&Vector<bool>>, n: Index) -> Result<()> {
    if let Some(m) = mask {
        check_dims(m.size() == n, "mask length must match output")?;
    }
    Ok(())
}

/// Check a matrix mask against the output shape.
pub(crate) fn check_mmask(mask: Option<&Matrix<bool>>, nrows: Index, ncols: Index) -> Result<()> {
    if let Some(m) = mask {
        check_dims(m.nrows() == nrows && m.ncols() == ncols, "mask shape must match output")?;
    }
    Ok(())
}

/// Snapshot a matrix's rows as per-row `(row, idx, val)` segments.
pub(crate) fn matrix_row_vecs<T: Scalar>(m: &Matrix<T>) -> Vec<(Index, Vec<Index>, Vec<T>)> {
    let g = m.read_rows();
    let v = rows_of(&g);
    let mut vecs = Vec::with_capacity(v.nvecs());
    v.for_each_vec(&mut |i, idx, val| vecs.push((i, idx.to_vec(), val.to_vec())));
    vecs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Descriptor;

    #[test]
    fn index_sel_basics() {
        let all = IndexSel::All;
        assert_eq!(all.len(5), 5);
        assert_eq!(all.nth(3), 3);
        let list = IndexSel::List(vec![4, 0, 2]);
        assert_eq!(list.len(5), 3);
        assert_eq!(list.nth(1), 0);
        let range = IndexSel::Range(2..5);
        assert_eq!(range.len(9), 3);
        assert_eq!(range.nth(2), 4);
    }

    #[test]
    fn index_sel_bounds() {
        assert!(IndexSel::List(vec![5]).check(5).is_err());
        assert!(IndexSel::Range(0..6).check(5).is_err());
        assert!(IndexSel::Range(0..5).check(5).is_ok());
        assert!(IndexSel::All.check(5).is_ok());
    }

    #[test]
    fn inverse_positions() {
        let inv = IndexSel::List(vec![4, 0, 2]).inverse(5);
        assert_eq!(inv.pos(4), Some(0));
        assert_eq!(inv.pos(0), Some(1));
        assert_eq!(inv.pos(3), None);
        let inv = IndexSel::Range(2..5).inverse(9);
        assert_eq!(inv.pos(2), Some(0));
        assert_eq!(inv.pos(5), None);
    }

    #[test]
    fn vmask_value_vs_structural() {
        let idx = vec![1, 3];
        let val = vec![true, false];
        let view = VView::Sparse(&idx, &val);
        let d = Descriptor::default();
        let m = VMask::new(Some(view), &d);
        assert!(m.allowed(1));
        assert!(!m.allowed(3)); // present but false
        assert!(!m.allowed(0));
        let ds = Descriptor::new().structural();
        let m = VMask::new(Some(view), &ds);
        assert!(m.allowed(3)); // structural: presence is enough
    }

    #[test]
    fn vmask_complement() {
        let idx = vec![1];
        let val = vec![true];
        let view = VView::Sparse(&idx, &val);
        let d = Descriptor::new().complement();
        let m = VMask::new(Some(view), &d);
        assert!(!m.allowed(1));
        assert!(m.allowed(0));
        // Complement of the implicit all-true mask blocks everything.
        let m = VMask::new(None, &d);
        assert!(!m.allowed(0));
    }

    #[test]
    fn presence_words_answer_as_the_binary_search() {
        // A valued mask with stored `false`s, over 256 positions.
        let idx: Vec<Index> = (0..12).map(|j| 20 * j + 5).collect();
        let val: Vec<bool> = (0..12).map(|j| j % 3 != 0).collect();
        for flags in 0..4 {
            let mut d = Descriptor::new();
            d.mask_complement = flags & 1 != 0;
            d.mask_structural = flags & 2 != 0;
            let searched = VMask::new(Some(VView::Sparse(&idx, &val)), &d);
            let mut words = VMask::new(Some(VView::Sparse(&idx, &val)), &d);
            words.ready_for(256, 3);
            assert!(words.words.is_none(), "3 probes < 256/64: the search stays");
            words.ready_for(256, 4);
            assert!(words.words.is_some());
            for i in 0..256 {
                assert_eq!(words.allowed(i), searched.allowed(i), "flags {flags}, position {i}");
            }
        }
        // A structural full-length mask answers from its own words.
        let (fval, fbits) = (vec![false; 128], vec![0b1010u64, 1]);
        for complement in [false, true] {
            let mut d = Descriptor::new().structural();
            d.mask_complement = complement;
            let m = VMask::new(Some(VView::Full(&fval, &fbits)), &d);
            assert!(matches!(m.words, Some(Cow::Borrowed(_))));
            let allowed: Vec<Index> = (0..128).filter(|&i| m.allowed(i) != complement).collect();
            assert_eq!(allowed, [1, 3, 64]);
        }
        // Too long for a full-length form: the search stays.
        let mut long = VMask::new(Some(VView::Sparse(&idx, &val)), &Descriptor::default());
        long.ready_for(DENSE_LIMIT + 1, usize::MAX);
        assert!(long.words.is_none());
    }

    #[test]
    fn no_mask_allows_all() {
        let d = Descriptor::default();
        let m = VMask::new(None, &d);
        assert!(m.allowed(0) && m.allowed(99));
        assert!(m.is_transparent());
    }
}
