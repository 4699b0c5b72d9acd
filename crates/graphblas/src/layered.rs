//! The layered row-major form: a shared CSR base plus one overlay of
//! replacement rows.
//!
//! [`crate::Matrix::with_edits`] publishes a snapshot's successor without
//! copying the rows the edits leave alone, after the hierarchical
//! hypersparse streaming layout of Jananthan et al.: the successor shares
//! its predecessor's immutable base arrays through an `Arc`, and writes
//! only the rows the edits touch. Unlike a stack of Δ layers, the
//! overlay holds the *complete current contents* of every row written
//! since the base, so a read takes either the base row or the overlay row
//! and never merges two. One bit per row says which: a base row is read
//! off the base's own row pointers, as plain CSR reads it, and an overlay
//! row is found by a binary search of the (short) sorted list of overlay
//! rows, which also carries the running growth that turns a base row
//! pointer into the row's logical position.
//!
//! The overlay is stored as one immutable segment per publish since the
//! base, shared through an `Arc` like the base: a publish writes its
//! touched rows into a segment of its own and merges them into the list,
//! so it never copies the overlay it inherits — only the written-row bits
//! (n / 8 bytes) and the list. A rewritten row's older copy stays behind,
//! dead, until the next fold.
//!
//! The form is read-only. Every write folds it into plain CSR first, and
//! [`Layered::with_edits`] folds the overlay into a fresh base itself once
//! it crosses the cut ([`FOLD_SHARE`]), so what an overlay holds stays a
//! bounded share of the graph.

use std::sync::Arc;

use crate::matrix::{bulk_fill, merge_edits, resized_ptr, Edit, Layers};
use crate::sparse::{bit, Cs, Majors, RowScratch, SparseView};
use crate::types::{Index, Scalar};

/// Where an overlay row lives: segment `at >> SEGMENT_SHIFT`, from offset
/// `at & OFFSET`. The cut keeps both in range below 2^43 base entries:
/// an offset is under an eighth of the base, and `k` segments have cost
/// `k (k - 1) / 2` handle copies, so there are fewer than
/// `sqrt(base / 4) + 1`.
const SEGMENT_SHIFT: u32 = 40;
const OFFSET: usize = (1 << SEGMENT_SHIFT) - 1;

/// The overlay is folded into a fresh base once the publishes since the
/// base have written more than `1 / FOLD_SHARE` of its entries. A publish
/// writes its touched rows in full (an older copy of a row stays, dead,
/// and still counts) and copies one handle per segment before its own;
/// counting the handles bounds the segment list, so a long run of tiny or
/// empty publishes folds too. A fold's O(E) copy is then paid for by at
/// least E / 8 of writing since the last one, and the overlay's
/// memory stays under an eighth of the base's. EXPERIMENTS.md §P30
/// measures the cut against ¼ and 1/16.
const FOLD_SHARE: usize = 8;

/// The rows one publish wrote, each in full, back to back.
#[derive(Debug)]
struct Segment<T> {
    idx: Vec<Index>,
    val: Vec<T>,
}

/// One row of the overlay.
#[derive(Debug, Clone, Copy)]
struct Held {
    row: Index,
    /// Segment and offset ([`SEGMENT_SHIFT`]).
    at: usize,
    len: usize,
    /// Net growth (wrapping) of the overlay rows before this one over
    /// their base rows: this row starts at logical entry
    /// `base.ptr[row] + growth`.
    growth: usize,
}

/// A CSR matrix read through a shared base and one replacement-row
/// overlay (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Layered<T> {
    /// The immutable base, shared by every snapshot layered on it.
    base: Arc<Cs<T>>,
    /// The overlay's segments, oldest first, each shared by every snapshot
    /// published since it was written.
    segments: Vec<Arc<Segment<T>>>,
    /// One bit per row: set for a row the overlay holds.
    written: Vec<u64>,
    /// The rows the overlay holds, ascending.
    held: Vec<Held>,
    /// Net growth of all of them: `nvals = base nvals + growth`.
    growth: usize,
    /// What the publishes since the base wrote, measured against the cut
    /// ([`FOLD_SHARE`]): the entries the segments hold, dead copies of
    /// rewritten rows included, plus the segment handles each copied.
    spent: usize,
    /// Non-empty rows.
    nvecs: usize,
    /// Whether the publish that made this matrix wrote its base (a fold).
    folded: bool,
}

impl<T: Scalar> Layered<T> {
    /// `base`, just written, with nothing written over it.
    pub fn new(base: Cs<T>) -> Self {
        Layered {
            written: vec![0; base.nmajor.div_ceil(64)],
            nvecs: base.nvecs(),
            base: Arc::new(base),
            segments: Vec::new(),
            held: Vec::new(),
            growth: 0,
            spent: 0,
            folded: true,
        }
    }

    /// Row `i` as slices of the base or of the segment that holds it.
    #[inline]
    fn row_slices(&self, i: Index) -> (&[Index], &[T]) {
        if !bit(&self.written, i) {
            let (a, b) = (self.base.ptr[i], self.base.ptr[i + 1]);
            return (&self.base.idx[a..b], &self.base.val[a..b]);
        }
        let h = &self.held[self.held.partition_point(|h| h.row < i)];
        let seg = &self.segments[h.at >> SEGMENT_SHIFT];
        let s = h.at & OFFSET;
        (&seg.idx[s..s + h.len], &seg.val[s..s + h.len])
    }

    /// This matrix with the netted, row-sorted `edits` applied. Every row
    /// the edits touch is this matrix's row merged with its edits, and its
    /// new length is counted first. Under the cut, the touched rows make
    /// one new segment over the same base and are merged into the overlay
    /// list: the pass costs the touched rows plus the list plus n / 8
    /// bytes of written-row bits, whatever the overlay already holds. Past
    /// it, every overlay row is written straight into a fresh base between
    /// bulk copies of the base rows — the assembly splice, read through
    /// the overlay.
    pub fn with_edits(&self, edits: &[Edit<T>]) -> Self {
        // The overlay rows and the edited rows, in order, each with its
        // range of `edits` (empty for an overlay row the edits miss).
        let (mut rows, mut ranges) = (Vec::new(), Vec::new());
        let (mut k, mut e) = (0, 0);
        while k < self.held.len() || e < edits.len() {
            let row = match (self.held.get(k), edits.get(e)) {
                (Some(h), Some(edit)) => h.row.min(edit.0),
                (Some(h), None) => h.row,
                (None, Some(edit)) => edit.0,
                (None, None) => unreachable!("loop condition"),
            };
            if self.held.get(k).is_some_and(|h| h.row == row) {
                k += 1;
            }
            let mine = e..e + edits[e..].partition_point(|edit| edit.0 == row);
            e = mine.end;
            rows.push(row);
            ranges.push(mine);
        }
        let touched = |k: &usize| !ranges[*k].is_empty();
        let write = |k: usize, emit: &mut dyn FnMut(Index, T)| {
            let (idx, val) = self.row_slices(rows[k]);
            merge_edits(
                idx.iter().zip(val).map(|(&j, &x)| (j, true, x)),
                edits[ranges[k].clone()].iter().map(|&(_, j, x)| (j, x)),
                emit,
            );
        };
        // Only the touched rows are merged to count them; an overlay row
        // the edits miss keeps its length.
        let lens: Vec<usize> = (0..rows.len())
            .map(|k| match touched(&k) {
                true => {
                    let mut len = 0;
                    write(k, &mut |_, _| len += 1);
                    len
                }
                false => self.row_slices(rows[k]).0.len(),
            })
            .collect();
        let written: usize = (0..rows.len()).filter(touched).map(|k| lens[k]).sum();
        let base = &self.base;
        let spent = self.spent + written + self.segments.len();
        if spent.saturating_mul(FOLD_SHARE) > base.idx.len() {
            let ptr = resized_ptr(&base.ptr, rows.iter().copied().zip(lens));
            let (idx, val) = bulk_fill(base, &ptr, &rows, |k, idx, val| {
                write(k, &mut |j, x| {
                    idx.push(j);
                    val.push(x);
                });
            });
            return Layered::new(Cs { nmajor: base.nmajor, nminor: base.nminor, ptr, idx, val });
        }
        let tag = self.segments.len() << SEGMENT_SHIFT;
        let mut seg =
            Segment { idx: Vec::with_capacity(written), val: Vec::with_capacity(written) };
        let (mut held, mut growth) = (Vec::with_capacity(rows.len()), 0usize);
        let mut written_bits = self.written.clone();
        let mut nvecs = self.nvecs;
        let mut old = self.held.iter().peekable();
        for (k, &row) in rows.iter().enumerate() {
            let before = old.next_if(|h| h.row == row);
            let at = match before {
                Some(h) if !touched(&k) => h.at,
                _ => {
                    let at = tag | seg.idx.len();
                    write(k, &mut |j, x| {
                        seg.idx.push(j);
                        seg.val.push(x);
                    });
                    let was = before.map_or(base.ptr[row + 1] - base.ptr[row], |h| h.len);
                    nvecs = nvecs + usize::from(lens[k] > 0) - usize::from(was > 0);
                    written_bits[row / 64] |= 1 << (row % 64);
                    at
                }
            };
            held.push(Held { row, at, len: lens[k], growth });
            let base_len = base.ptr[row + 1] - base.ptr[row];
            growth = growth.wrapping_add(lens[k]).wrapping_sub(base_len);
        }
        let mut segments = self.segments.clone();
        segments.push(Arc::new(seg));
        Layered {
            base: base.clone(),
            segments,
            written: written_bits,
            held,
            growth,
            spent,
            nvecs,
            folded: false,
        }
    }

    /// The plain CSR this matrix reads as: runs of base rows copied in
    /// bulk, overlay rows in between — the assembly splice's fill loop.
    pub fn fold(&self) -> Cs<T> {
        let base = &self.base;
        let ptr = resized_ptr(&base.ptr, self.held.iter().map(|h| (h.row, h.len)));
        let rows: Vec<Index> = self.held.iter().map(|h| h.row).collect();
        let (idx, val) = bulk_fill(base, &ptr, &rows, |k, idx, val| {
            let (ri, rv) = self.row_slices(rows[k]);
            idx.extend_from_slice(ri);
            val.extend_from_slice(rv);
        });
        Cs { nmajor: base.nmajor, nminor: base.nminor, ptr, idx, val }
    }

    /// Whether `other` reads the same base arrays.
    pub fn shares_base(&self, other: &Layered<T>) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }

    /// How this matrix is laid out, and whether its publish folded.
    pub fn layers(&self) -> Layers {
        Layers {
            base_entries: self.base.idx.len(),
            overlay_rows: self.held.len(),
            overlay_entries: self.held.iter().map(|h| h.len).sum(),
            folded: self.folded,
        }
    }

    /// Resident bytes as `(pointers, indices, values)`: the base and the
    /// segments in full (shared or not), the written-row bits and the
    /// overlay list.
    pub fn section_bytes(&self) -> (usize, usize, usize) {
        let word = std::mem::size_of::<usize>();
        let ptrs = self.base.ptr.capacity() * word
            + self.segments.capacity() * word
            + self.written.capacity() * 8
            + self.held.capacity() * std::mem::size_of::<Held>();
        let (idx, val) = self
            .segments
            .iter()
            .fold((self.base.idx.capacity(), self.base.val.capacity()), |(i, v), seg| {
                (i + seg.idx.capacity(), v + seg.val.capacity())
            });
        (ptrs, idx * word, val * std::mem::size_of::<T>())
    }
}

impl<T: Scalar> SparseView<T> for Layered<T> {
    fn nmajor(&self) -> Index {
        self.base.nmajor
    }
    fn nminor(&self) -> Index {
        self.base.nminor
    }
    fn nvals(&self) -> usize {
        self.base.idx.len().wrapping_add(self.growth)
    }
    fn nvecs(&self) -> usize {
        self.nvecs
    }
    fn row<'s>(&'s self, major: Index, _: &'s mut RowScratch<T>) -> (&'s [Index], &'s [T]) {
        self.row_slices(major)
    }
    fn for_each_vec(&self, f: &mut dyn FnMut(Index, &[Index], &[T])) {
        for i in self.majors() {
            let (idx, val) = self.row_slices(i);
            if !idx.is_empty() {
                f(i, idx, val);
            }
        }
    }
    fn entries_before(&self, major: Index) -> usize {
        let k = self.held.partition_point(|h| h.row < major);
        let growth = self.held.get(k).map_or(self.growth, |h| h.growth);
        self.base.ptr[major].wrapping_add(growth)
    }
    #[inline]
    fn row_len(&self, major: Index) -> usize {
        // A base row is a pointer difference; only an overlay row searches
        // the (short) overlay list.
        if !bit(&self.written, major) {
            return self.base.ptr[major + 1] - self.base.ptr[major];
        }
        self.held[self.held.partition_point(|h| h.row < major)].len
    }
    fn majors(&self) -> Majors<'_> {
        Majors::Layered(&self.base.ptr, &self.written, 0..self.base.nmajor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 64 rows of 6 columns, two entries a row, row 3 empty.
    fn base() -> Cs<i64> {
        let t = (0..64)
            .filter(|&i| i != 3)
            .flat_map(|i| [(i, i % 6, i as i64), (i, (i + 1) % 6, -(i as i64))])
            .collect();
        Cs::from_tuples(64, 6, t, |_, b| b)
    }

    fn replay(cs: &Cs<i64>, edits: &[Edit<i64>]) -> Vec<(Index, Index, i64)> {
        let mut map: std::collections::BTreeMap<_, _> =
            cs.tuples().into_iter().map(|(i, j, x)| ((i, j), x)).collect();
        for &(i, j, x) in edits {
            match x {
                Some(x) => map.insert((i, j), x),
                None => map.remove(&(i, j)),
            };
        }
        map.into_iter().map(|((i, j), x)| (i, j, x)).collect()
    }

    #[test]
    fn reads_take_the_overlay_row_or_the_base_row_and_share_the_base() {
        let cs = base();
        let first = Layered::new(cs.clone());
        // Row 0 grows, row 3 fills, row 8 empties; 126 base entries keep
        // the five overlay entries under the cut.
        let edits = [(0, 3, Some(7)), (3, 2, Some(42)), (8, 2, None), (8, 3, None)];
        let next = first.with_edits(&edits);
        assert!(next.shares_base(&first), "no fold at this size");
        let l = next.layers();
        assert_eq!(
            (l.base_entries, l.overlay_rows, l.overlay_entries, l.folded),
            (126, 3, 4, false)
        );
        assert_eq!(next.tuples(), replay(&cs, &edits));
        let flat = next.fold();
        flat.check().expect("valid CSR");
        assert_eq!(flat.tuples(), next.tuples());
        // The next epoch keeps the untouched overlay rows and rewrites one.
        let more = [(3, 2, Some(-1)), (63, 5, Some(9))];
        let third = next.with_edits(&more);
        assert!(third.shares_base(&first));
        assert_eq!(third.layers().overlay_rows, 4);
        let all: Vec<_> = edits.iter().chain(&more).copied().collect();
        assert_eq!(third.tuples(), replay(&cs, &all));
        let mut scratch = RowScratch::default();
        for i in 0..64 {
            let len = third.entries_before(i + 1) - third.entries_before(i);
            assert_eq!(third.row(i, &mut scratch).0.len(), len, "row {i}");
            assert_eq!(third.row_len(i), len, "row {i}");
        }
        // Nothing was written over the snapshots it came from.
        assert_eq!(first.tuples(), cs.tuples());
        assert_eq!(next.tuples(), replay(&cs, &edits));
    }

    #[test]
    fn an_overlay_past_the_cut_folds_into_a_fresh_base() {
        let cs = base();
        let first = Layered::new(cs.clone());
        // Eight rewritten rows hold 20 entries (four of them gained one):
        // 20 · 8 > 126.
        let edits: Vec<_> = (10..18).map(|i| (i, 5, Some(1))).collect();
        let next = first.with_edits(&edits);
        assert!(!next.shares_base(&first));
        let l = next.layers();
        assert_eq!(
            (l.base_entries, l.overlay_rows, l.overlay_entries, l.folded),
            (130, 0, 0, true)
        );
        assert_eq!(next.tuples(), replay(&cs, &edits));
    }
}
