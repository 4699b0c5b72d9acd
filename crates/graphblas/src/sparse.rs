//! Compressed sparse storage.
//!
//! Following SuiteSparse:GraphBLAS (§II.A of the paper), a matrix is a
//! packed collection of sparse vectors along a *major* axis: row-major
//! (CSR) or column-major (CSC), in either the standard form [`Cs`] — a
//! pointer array of size `nmajor + 1` — or the *hypersparse* form
//! [`Hyper`], where the pointer array itself is sparse and empty vectors
//! take no space, so matrices with enormous dimensions cost only `O(e)`.
//!
//! Kernels are written against the [`SparseView`] trait so the same code
//! operates on standard, hypersparse and compressed operands in any
//! combination. A kernel reads a row one way, [`SparseView::row`], and
//! walks the majors [`SparseView::majors`] hands it, skipping a row that
//! comes back empty.

use std::ops::Range;
use std::sync::Mutex;

use crate::compressed::CompressedMat;
use crate::layered::Layered;
use crate::parallel::{fanout, run_cut, weighted_cut, Chunking};
use crate::types::{Index, Scalar};

/// A (row, column, value) tuple, the exchange currency of `build` and
/// `extractTuples`.
pub type Tuple<T> = (Index, Index, T);

/// Reusable decode buffers for [`SparseView::row`]. Borrowed-slice forms
/// ignore it entirely; the compressed form decodes into it, so callers
/// keep one per worker and amortize the allocation across rows.
#[derive(Debug, Default)]
pub struct RowScratch<T> {
    pub idx: Vec<Index>,
    pub val: Vec<T>,
}

/// The majors a row loop walks, from [`SparseView::majors`], by position.
/// Iterating yields them in increasing order.
#[derive(Debug, Clone)]
pub(crate) enum Majors<'a> {
    /// Every major in the range, of a form with a pointer array. Given the
    /// pointers, iterating skips an empty major at one compare; without them
    /// (the compressed form codes its own) the loop finds it by reading it.
    Rows(Option<&'a [usize]>, Range<Index>),
    /// Every major in the range, of the layered form: one empty in the
    /// base's pointers is skipped at one compare unless its bit in the
    /// written-row words says the overlay holds it.
    Layered(&'a [usize], &'a [u64], Range<Index>),
    /// The occupied majors of a hypersparse form.
    List(&'a [Index]),
}

/// Whether bit `i` of the packed words `w` is set.
#[inline]
pub(crate) fn bit(w: &[u64], i: usize) -> bool {
    w[i / 64] >> (i % 64) & 1 == 1
}

impl<'a> Majors<'a> {
    /// Number of positions.
    pub fn len(&self) -> usize {
        match self {
            Majors::Rows(_, r) | Majors::Layered(_, _, r) => r.len(),
            Majors::List(l) => l.len(),
        }
    }

    /// The major at position `k`, `None` past the end.
    pub fn get(&self, k: usize) -> Option<Index> {
        match self {
            Majors::Rows(_, r) | Majors::Layered(_, _, r) => (k < r.len()).then(|| r.start + k),
            Majors::List(l) => l.get(k).copied(),
        }
    }

    /// The majors at positions `at`.
    pub fn slice(&self, at: Range<usize>) -> Majors<'a> {
        match self {
            Majors::Rows(p, r) => Majors::Rows(*p, r.start + at.start..r.start + at.end),
            Majors::Layered(p, w, r) => Majors::Layered(p, w, r.start + at.start..r.start + at.end),
            Majors::List(l) => Majors::List(&l[at]),
        }
    }

    /// The range of majors, for the forms that walk every major in one.
    pub fn range(&self) -> Option<Range<Index>> {
        match self {
            Majors::Rows(_, r) | Majors::Layered(_, _, r) => Some(r.clone()),
            Majors::List(_) => None,
        }
    }

    /// Whether major `i` of the range may hold entries: the test iterating
    /// applies, one compare where the form has pointers. A listed major
    /// always may.
    #[inline]
    pub fn may_hold(&self, i: Index) -> bool {
        match self {
            Majors::Rows(p, _) => p.is_none_or(|p| p[i + 1] > p[i]),
            Majors::Layered(p, w, _) => p[i + 1] > p[i] || bit(w, i),
            Majors::List(_) => true,
        }
    }

    /// The majors that lie in `r`.
    pub fn within(&self, r: Range<Index>) -> Majors<'a> {
        match self {
            Majors::Rows(p, all) => {
                let start = all.start.max(r.start);
                Majors::Rows(*p, start..all.end.min(r.end).max(start))
            }
            Majors::Layered(p, w, all) => {
                let start = all.start.max(r.start);
                Majors::Layered(p, w, start..all.end.min(r.end).max(start))
            }
            Majors::List(l) => {
                let at = |m: Index| l.partition_point(|&i| i < m);
                Majors::List(&l[at(r.start)..at(r.end)])
            }
        }
    }
}

impl Iterator for Majors<'_> {
    type Item = Index;

    fn next(&mut self) -> Option<Index> {
        match self {
            Majors::Rows(p, r) => r.find(|&i| p.is_none_or(|p| p[i + 1] > p[i])),
            Majors::Layered(p, w, r) => r.find(|&i| p[i + 1] > p[i] || bit(w, i)),
            Majors::List(l) => {
                let (&i, rest) = l.split_first()?;
                *l = rest;
                Some(i)
            }
        }
    }
}

/// Read access to sparse data along the major axis. Implemented by every
/// storage form; all kernels are generic over it.
pub trait SparseView<T: Scalar>: Sync {
    /// Number of major-axis vectors (rows for CSR).
    fn nmajor(&self) -> Index;
    /// Length of each vector (number of columns for CSR).
    fn nminor(&self) -> Index;
    /// Number of stored entries.
    fn nvals(&self) -> usize;
    /// Number of non-empty major vectors (exact).
    fn nvecs(&self) -> usize;
    /// Visit every non-empty vector in increasing major order.
    #[allow(clippy::type_complexity)]
    fn for_each_vec(&self, f: &mut dyn FnMut(Index, &[Index], &[T]));
    /// Visit the entry count of every non-empty vector in increasing
    /// major order, without reading an index or a value.
    fn for_each_len(&self, f: &mut dyn FnMut(Index, usize)) {
        // Slice-backed forms hand out their vectors for free.
        self.for_each_vec(&mut |maj, idx, _| f(maj, idx.len()));
    }
    /// Stored entries in the vectors before `major`, for `major` in
    /// `0..=nmajor`: the row-pointer prefix sum a work-balanced cut over
    /// rows is searched on ([`crate::parallel::par_chunks_weighted`]).
    fn entries_before(&self, major: Index) -> usize;
    /// Stored entries in vector `major`, read off the pointers in O(1)
    /// where the form has them: `entries_before(major + 1) −
    /// entries_before(major)` without the searches a prefix sum may need.
    /// What a push sums over its frontier (m_f) to price itself.
    fn row_len(&self, major: Index) -> usize {
        self.entries_before(major + 1) - self.entries_before(major)
    }
    /// The majors a row loop walks, in increasing order: `0..nmajor` for
    /// the forms with a pointer array, the occupied ones for the
    /// hypersparse form. Every non-empty vector is among them.
    fn majors(&self) -> Majors<'_> {
        Majors::Rows(None, 0..self.nmajor())
    }
    /// The gap-encoded form itself, which decodes its rows: a pull walks
    /// it with a row cursor instead of [`SparseView::row`], and trace spans
    /// carry it as a tag.
    fn as_compressed(&self) -> Option<&CompressedMat<T>> {
        None
    }
    /// The sorted indices and values of vector `major` (empty slices if it
    /// has no entries). Slice-backed forms borrow them and ignore
    /// `scratch`; the compressed form decodes into it.
    fn row<'s>(&'s self, major: Index, scratch: &'s mut RowScratch<T>) -> (&'s [Index], &'s [T]);
    /// Point lookup.
    fn get(&self, major: Index, minor: Index) -> Option<T> {
        let mut scratch = RowScratch::default();
        let (idx, val) = self.row(major, &mut scratch);
        idx.binary_search(&minor).ok().map(|p| val[p])
    }
    /// Copy out all entries as (major, minor, value) tuples.
    fn tuples(&self) -> Vec<Tuple<T>> {
        let mut out = Vec::with_capacity(self.nvals());
        self.for_each_vec(&mut |maj, idx, val| {
            for (&m, &v) in idx.iter().zip(val) {
                out.push((maj, m, v));
            }
        });
        out
    }
}

/// Owned sparse data in either storage form, produced by kernels that must
/// transpose a dynamically-typed operand.
// One per matrix (the dual-storage slot), never stored in bulk, so the
// size skew of the compressed variant is irrelevant; see `Store<T>`.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum MatData<T> {
    Cs(Cs<T>),
    Hyper(Hyper<T>),
    /// Gap-encoded read-optimized form ([`crate::compressed`]).
    Compressed(CompressedMat<T>),
    /// A shared CSR base plus a replacement-row overlay
    /// ([`crate::layered`]): a dual that `Matrix::with_edits` carried.
    Layered(Layered<T>),
}

impl<T: Scalar> MatData<T> {
    /// Borrow as a dynamic view.
    pub fn view(&self) -> &dyn SparseView<T> {
        match self {
            MatData::Cs(c) => c,
            MatData::Hyper(h) => h,
            MatData::Compressed(c) => c,
            MatData::Layered(l) => l,
        }
    }
}

/// Transpose any view, picking the output form by the resulting major
/// dimension (hypersparse when a standard pointer array would be too big).
pub fn transpose_dyn<T: Scalar>(v: &dyn SparseView<T>) -> MatData<T> {
    let nmajor_out = v.nminor();
    if nmajor_out > (1 << 22) || (nmajor_out > 4096 && v.nvals() < nmajor_out / 16) {
        let mut tuples = Vec::with_capacity(v.nvals());
        v.for_each_vec(&mut |maj, idx, val| {
            for (&m, &x) in idx.iter().zip(val) {
                tuples.push((m, maj, x));
            }
        });
        MatData::Hyper(Hyper::from_tuples(nmajor_out, v.nmajor(), tuples, |_, b| b))
    } else {
        // Bucket transpose, in three phases:
        //   1. each chunk of input rows counts its minors into a private
        //      histogram (in parallel);
        //   2. a prefix sum over (chunk, column) turns the histograms into
        //      disjoint starting cursors and the global `ptr` (sequential,
        //      O(chunks × nmajor_out));
        //   3. each chunk scatters its entries into its reserved slots
        //      (in parallel). Within a column, chunk order = input major
        //      order, so output vectors come out sorted whatever the cut.
        let majors = v.majors();
        // One chunk per thread, cut so each holds an equal share of the
        // entries — or a single chunk when the pool would not pay, or when
        // a histogram per thread (threads × nmajor_out words) would cost
        // more memory than the transpose itself.
        let parts =
            if nmajor_out > TRANSPOSE_HIST_CAP { 1 } else { fanout(majors.len(), v.nvals()) };
        let cut = weighted_cut(majors.len(), parts, 1, |k| {
            majors.get(k).map_or(v.nvals(), |maj| v.entries_before(maj))
        });
        let mut counts: Vec<Vec<usize>> = run_cut(&cut, v.nvals(), |_, rows| {
            let mut scratch = RowScratch::default();
            let mut h = vec![0usize; nmajor_out];
            for maj in majors.slice(rows) {
                let (idx, _) = v.row(maj, &mut scratch);
                for &j in idx {
                    h[j] += 1;
                }
            }
            h
        });
        let mut ptr = vec![0usize; nmajor_out + 1];
        for h in &counts {
            for j in 0..nmajor_out {
                ptr[j + 1] += h[j];
            }
        }
        for j in 0..nmajor_out {
            ptr[j + 1] += ptr[j];
        }
        // Rewrite each chunk's histogram into its starting cursor per
        // column: ptr[j] plus everything earlier chunks put in column j.
        let mut col = ptr[..nmajor_out].to_vec();
        for h in counts.iter_mut() {
            for (hj, cj) in h.iter_mut().zip(col.iter_mut()) {
                let cnt = *hj;
                *hj = *cj;
                *cj += cnt;
            }
        }
        let nvals = v.nvals();
        let mut idx_out = vec![0 as Index; nvals];
        let mut val_out = vec![T::zero(); nvals];
        {
            let islots = SharedSlots(idx_out.as_mut_ptr());
            let vslots = SharedSlots(val_out.as_mut_ptr());
            run_cut(&cut, v.nvals(), |c, rows| {
                let mut scratch = RowScratch::default();
                let mut cur = counts[c].clone();
                for maj in majors.slice(rows) {
                    let (idx, val) = v.row(maj, &mut scratch);
                    for (&j, &x) in idx.iter().zip(val) {
                        let q = cur[j];
                        cur[j] += 1;
                        // SAFETY: phase 2 gave chunk `c` the slots from
                        // `counts[c][j]` on for exactly the entries phase 1
                        // counted for it in column `j`, the chunks' ranges
                        // laid end to end inside `ptr[j]..ptr[j + 1]`. This
                        // pass reads the same rows of the same immutable view
                        // under the same cut, so `q` stays in its range: in
                        // bounds, and written by no other chunk. The arrays
                        // are read only after `run_cut` has returned, which
                        // is after every chunk has finished. Held by
                        // `thread_equivalence::bucket_transpose_matches_the_
                        // sequential_one`: 2 and 8 threads against one, above
                        // `par_threshold()` and below `TRANSPOSE_HIST_CAP`.
                        unsafe {
                            islots.write(q, maj);
                            vslots.write(q, x);
                        }
                    }
                }
            });
        }
        MatData::Cs(Cs { nmajor: nmajor_out, nminor: v.nmajor(), ptr, idx: idx_out, val: val_out })
    }
}

/// Above this output-major dimension the transpose's per-worker histograms
/// stop being worth their memory; it runs as one chunk.
const TRANSPOSE_HIST_CAP: usize = 1 << 18;

/// Raw output cursor shared across transpose workers; sound because the
/// prefix sum hands every worker disjoint slot indices.
struct SharedSlots<T>(*mut T);

// SAFETY: the pointer is only ever used through `write`, whose contract
// puts concurrent calls on disjoint, in-bounds slots, so sharing it races
// on nothing; a `T` written from a worker crosses threads, hence `T: Send`.
// The array outlives every worker: it belongs to the frame of the
// `run_cut` call the workers serve, which returns only once they are done.
// Exercised by `thread_equivalence::bucket_transpose_matches_the_sequential_one`
// at 2 and 8 threads.
unsafe impl<T: Send> Sync for SharedSlots<T> {}

impl<T> SharedSlots<T> {
    /// # Safety
    /// `q` must be in bounds of the array the pointer came from, that array
    /// must be alive and not otherwise accessed during the call, and no
    /// other thread may write slot `q` concurrently. The old value is
    /// overwritten without being dropped.
    unsafe fn write(&self, q: usize, x: T) {
        self.0.add(q).write(x);
    }
}

/// Whether a view equals its own transpose, pattern and values bit for bit
/// ([`Scalar::same_bits`]: `-0.0` is not the mirror of `0.0`), in one pass
/// over the entries and without building the transpose.
/// Rows are walked in ascending order with one cursor per row: entry
/// `(i, j)` must find `(j, i)` — same value — at row `j`'s cursor, which
/// then moves on. Row `j`'s entries are sorted by column and the rows that
/// name it come in ascending order, so a symmetric structure consumes
/// every cursor exactly; any entry without its mirror leaves a cursor
/// stuck on it, and the next look-up at that row fails.
pub(crate) fn is_symmetric<T: Scalar, V: SparseView<T> + ?Sized>(v: &V) -> bool {
    if v.nmajor() != v.nminor() {
        return false;
    }
    let (mut outer, mut inner) = (RowScratch::default(), RowScratch::default());
    let mut cursor = vec![0usize; v.nmajor()];
    for i in v.majors() {
        let (idx, val) = v.row(i, &mut outer);
        for (&j, &x) in idx.iter().zip(val) {
            let q = cursor[j];
            let (mirror, mval) = v.row(j, &mut inner);
            if mirror.get(q) != Some(&i) || !mval[q].same_bits(x) {
                return false;
            }
            cursor[j] = q + 1;
        }
    }
    true
}

/// Standard compressed form (CSR when the major axis is rows).
#[derive(Debug, Clone, PartialEq)]
pub struct Cs<T> {
    /// Number of major vectors.
    pub nmajor: Index,
    /// Minor dimension.
    pub nminor: Index,
    /// `ptr[i]..ptr[i+1]` delimits vector `i`; length `nmajor + 1`.
    pub ptr: Vec<usize>,
    /// Minor indices, sorted within each vector.
    pub idx: Vec<Index>,
    /// Values, parallel to `idx`.
    pub val: Vec<T>,
}

impl<T: Scalar> Cs<T> {
    /// An empty structure with the given shape.
    pub fn empty(nmajor: Index, nminor: Index) -> Self {
        Cs { nmajor, nminor, ptr: vec![0; nmajor + 1], idx: Vec::new(), val: Vec::new() }
    }

    /// [`Cs::build`] without the path: the tests' shorthand.
    #[cfg(test)]
    pub(crate) fn from_tuples(
        nmajor: Index,
        nminor: Index,
        tuples: Vec<Tuple<T>>,
        dup: impl FnMut(T, T) -> T,
    ) -> Self {
        Cs::build(nmajor, nminor, tuples, dup).0
    }

    /// Build from unsorted tuples of `(major, minor, value)`, returning
    /// how they were put in order (`sorted` | `sort` | `bucket`).
    /// Duplicates are combined with `dup` (`dup(existing, incoming)`),
    /// matching `GrB_Matrix_build` semantics.
    ///
    /// * Tuples already in `(major, minor)` order skip the sort: one pass
    ///   checks the order, one folds (`sorted`).
    /// * Fewer than a third of a tuple per major take a stable comparison
    ///   sort (`sort`). Below that, the count per major and the pass over
    ///   every major's bucket cost more than the sort saves: the two cross
    ///   between `nmajor / 4` and `nmajor / 3` at `nmajor` = 2^14 … 2^22,
    ///   at one and two threads (EXPERIMENTS.md §P39).
    /// * Otherwise the tuples are counted by major and scattered, in input
    ///   order, into one bucket per major; each bucket is then sorted by
    ///   minor, stably, on the pool over major ranges of equal entries
    ///   (`bucket`). `O(e + nmajor)` plus the per-row sorts.
    ///
    /// Either way duplicates reach `dup` left to right in input order, and
    /// the arrays are identical at any thread count.
    pub(crate) fn build(
        nmajor: Index,
        nminor: Index,
        mut tuples: Vec<Tuple<T>>,
        dup: impl FnMut(T, T) -> T,
    ) -> (Self, &'static str) {
        if tuples.is_sorted_by_key(|&(i, j, _)| (i, j)) {
            return (Cs::from_sorted(nmajor, nminor, tuples, dup), "sorted");
        }
        if tuples.len() < nmajor / 3 {
            // Stable, so duplicates keep their input order for `dup`.
            tuples.sort_by_key(|&(i, j, _)| (i, j));
            return (Cs::from_sorted(nmajor, nminor, tuples, dup), "sort");
        }
        (Cs::from_buckets(nmajor, nminor, tuples, dup), "bucket")
    }

    /// Fold tuples sorted by `(major, minor)`, duplicates adjacent.
    fn from_sorted(
        nmajor: Index,
        nminor: Index,
        tuples: Vec<Tuple<T>>,
        mut dup: impl FnMut(T, T) -> T,
    ) -> Self {
        let mut ptr = vec![0usize; nmajor + 1];
        let mut idx = Vec::with_capacity(tuples.len());
        let mut val: Vec<T> = Vec::with_capacity(tuples.len());
        let mut last = None;
        for (i, j, x) in tuples {
            if last == Some((i, j)) {
                let v = val.last_mut().expect("parallel arrays");
                *v = dup(*v, x);
                continue;
            }
            last = Some((i, j));
            ptr[i + 1] += 1;
            idx.push(j);
            val.push(x);
        }
        for i in 0..nmajor {
            ptr[i + 1] += ptr[i];
        }
        Cs { nmajor, nminor, ptr, idx, val }
    }

    /// The bucket build: count, stable scatter, per-row sort, fold.
    fn from_buckets(
        nmajor: Index,
        nminor: Index,
        tuples: Vec<Tuple<T>>,
        dup: impl FnMut(T, T) -> T,
    ) -> Self {
        let mut ptr = vec![0usize; nmajor + 1];
        for &(i, _, _) in &tuples {
            ptr[i + 1] += 1;
        }
        for i in 0..nmajor {
            ptr[i + 1] += ptr[i];
        }
        // The scatter stays on one thread. Cut by row ranges, every range
        // reads every tuple, and at two threads that measured no faster
        // (EXPERIMENTS.md §P39); cut by tuples, it writes through shared
        // raw cursors, as the transpose does.
        let mut next = ptr.clone();
        let mut idx = vec![0 as Index; tuples.len()];
        let mut val = vec![T::zero(); tuples.len()];
        for (i, j, x) in tuples {
            let q = next[i];
            next[i] += 1;
            idx[q] = j;
            val[q] = x;
        }
        drop(next);
        let mut cs = Cs { nmajor, nminor, ptr, idx, val };
        if cs.sort_rows() > 0 {
            cs.fold_rows(dup);
        }
        cs
    }

    /// Stable-sort every row by minor index on the pool, over row ranges
    /// of equal entries; returns how many entries repeat their
    /// predecessor's index (the duplicates [`Cs::fold_rows`] folds).
    fn sort_rows(&mut self) -> usize {
        let Cs { nmajor, ptr, idx, val, .. } = self;
        let (nmajor, ptr) = (*nmajor, &ptr[..]);
        let cut = match fanout(nmajor, idx.len()) {
            1 => vec![0, nmajor],
            nt => weighted_cut(nmajor, Chunking::Oversplit.parts(nt), 1, |i| ptr[i]),
        };
        // Each chunk owns its rows' stretch of the two arrays.
        let (mut irest, mut vrest) = (&mut idx[..], &mut val[..]);
        let mut slots = Vec::with_capacity(cut.len() - 1);
        for w in cut.windows(2) {
            let len = ptr[w[1]] - ptr[w[0]];
            let (i, ir) = std::mem::take(&mut irest).split_at_mut(len);
            let (v, vr) = std::mem::take(&mut vrest).split_at_mut(len);
            slots.push(Mutex::new(Some((i, v))));
            (irest, vrest) = (ir, vr);
        }
        run_cut(&cut, ptr[nmajor], |k, rows| {
            let (idx, val) = slots[k]
                .lock()
                .expect("row-range lock")
                .take()
                .expect("each row range is claimed by exactly one chunk");
            let base = ptr[rows.start];
            let mut scratch = Vec::new();
            rows.map(|i| {
                let r = ptr[i] - base..ptr[i + 1] - base;
                sort_row(&mut idx[r.clone()], &mut val[r], &mut scratch)
            })
            .sum::<usize>()
        })
        .into_iter()
        .sum()
    }

    /// Fold each row's runs of equal minor indices left to right with
    /// `dup`, compacting the arrays in place. The scatter wrote every
    /// slot, so the tail the fold frees is handed back, not kept resident.
    fn fold_rows(&mut self, mut dup: impl FnMut(T, T) -> T) {
        let (mut w, mut start) = (0, 0);
        for i in 0..self.nmajor {
            let end = self.ptr[i + 1];
            let first = w;
            for p in start..end {
                let (j, x) = (self.idx[p], self.val[p]);
                if w > first && self.idx[w - 1] == j {
                    self.val[w - 1] = dup(self.val[w - 1], x);
                } else {
                    self.idx[w] = j;
                    self.val[w] = x;
                    w += 1;
                }
            }
            start = end;
            self.ptr[i + 1] = w;
        }
        self.idx.truncate(w);
        self.val.truncate(w);
        self.idx.shrink_to_fit();
        self.val.shrink_to_fit();
    }

    /// Build from per-vector segments `(major, indices, values)` given in
    /// increasing major order. Used by kernels that produce one output
    /// vector at a time.
    pub fn from_vecs(nmajor: Index, nminor: Index, vecs: Vec<(Index, Vec<Index>, Vec<T>)>) -> Self {
        let total: usize = vecs.iter().map(|(_, i, _)| i.len()).sum();
        let mut ptr = vec![0usize; nmajor + 1];
        let mut idx = Vec::with_capacity(total);
        let mut val = Vec::with_capacity(total);
        for (m, vi, vv) in vecs {
            debug_assert_eq!(vi.len(), vv.len());
            ptr[m + 1] = vi.len();
            idx.extend_from_slice(&vi);
            val.extend_from_slice(&vv);
        }
        for i in 0..nmajor {
            ptr[i + 1] += ptr[i];
        }
        Cs { nmajor, nminor, ptr, idx, val }
    }

    /// Transpose via counting sort: `O(nvals + nminor)`. The result's major
    /// axis is this structure's minor axis.
    pub fn transpose(&self) -> Cs<T> {
        let mut ptr = vec![0usize; self.nminor + 1];
        for &j in &self.idx {
            ptr[j + 1] += 1;
        }
        for j in 0..self.nminor {
            ptr[j + 1] += ptr[j];
        }
        let mut cursor = ptr.clone();
        let mut idx = vec![0 as Index; self.idx.len()];
        let mut val = vec![T::zero(); self.val.len()];
        for i in 0..self.nmajor {
            for p in self.ptr[i]..self.ptr[i + 1] {
                let j = self.idx[p];
                let q = cursor[j];
                cursor[j] += 1;
                idx[q] = i;
                val[q] = self.val[p];
            }
        }
        Cs { nmajor: self.nminor, nminor: self.nmajor, ptr, idx, val }
    }

    /// Convert to hypersparse form, dropping empty vectors.
    pub fn to_hyper(&self) -> Hyper<T> {
        let mut heads = Vec::new();
        let mut ptr = vec![0usize];
        for i in 0..self.nmajor {
            if self.ptr[i + 1] > self.ptr[i] {
                heads.push(i);
                ptr.push(self.ptr[i + 1]);
            }
        }
        Hyper {
            nmajor: self.nmajor,
            nminor: self.nminor,
            heads,
            ptr,
            idx: self.idx.clone(),
            val: self.val.clone(),
        }
    }

    /// Internal consistency check, used by tests and debug assertions.
    #[allow(dead_code)]
    pub fn check(&self) -> Result<(), String> {
        if self.ptr.len() != self.nmajor + 1 {
            return Err(format!("ptr len {} != nmajor+1 {}", self.ptr.len(), self.nmajor + 1));
        }
        if self.ptr[0] != 0 {
            return Err("ptr[0] != 0".into());
        }
        if *self.ptr.last().expect("nonempty ptr") != self.idx.len() {
            return Err("ptr end != nvals".into());
        }
        if self.idx.len() != self.val.len() {
            return Err("idx/val length mismatch".into());
        }
        for i in 0..self.nmajor {
            if self.ptr[i] > self.ptr[i + 1] {
                return Err(format!("ptr not monotone at {i}"));
            }
            let seg = &self.idx[self.ptr[i]..self.ptr[i + 1]];
            for w in seg.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("indices not strictly sorted in vec {i}"));
                }
            }
            if let Some(&last) = seg.last() {
                if last >= self.nminor {
                    return Err(format!("index {last} >= nminor {} in vec {i}", self.nminor));
                }
            }
        }
        Ok(())
    }
}

/// Stable-sort one row's entries by index, as `(index, value)` pairs in
/// `scratch`, returning how many entries repeat the index before them.
fn sort_row<T: Scalar>(idx: &mut [Index], val: &mut [T], scratch: &mut Vec<(Index, T)>) -> usize {
    scratch.clear();
    scratch.extend(idx.iter().copied().zip(val.iter().copied()));
    scratch.sort_by_key(|&(j, _)| j);
    for ((j, x), &(sj, sx)) in idx.iter_mut().zip(val.iter_mut()).zip(scratch.iter()) {
        (*j, *x) = (sj, sx);
    }
    idx.windows(2).filter(|w| w[0] == w[1]).count()
}

impl<T: Scalar> SparseView<T> for Cs<T> {
    fn nmajor(&self) -> Index {
        self.nmajor
    }
    fn nminor(&self) -> Index {
        self.nminor
    }
    fn nvals(&self) -> usize {
        self.idx.len()
    }
    fn nvecs(&self) -> usize {
        self.ptr.windows(2).filter(|w| w[1] > w[0]).count()
    }
    fn row<'s>(&'s self, major: Index, _: &'s mut RowScratch<T>) -> (&'s [Index], &'s [T]) {
        let (a, b) = (self.ptr[major], self.ptr[major + 1]);
        (&self.idx[a..b], &self.val[a..b])
    }
    fn for_each_vec(&self, f: &mut dyn FnMut(Index, &[Index], &[T])) {
        for i in 0..self.nmajor {
            let (a, b) = (self.ptr[i], self.ptr[i + 1]);
            if b > a {
                f(i, &self.idx[a..b], &self.val[a..b]);
            }
        }
    }
    fn entries_before(&self, major: Index) -> usize {
        self.ptr[major]
    }
    #[inline]
    fn row_len(&self, major: Index) -> usize {
        self.ptr[major + 1] - self.ptr[major]
    }
    fn majors(&self) -> Majors<'_> {
        Majors::Rows(Some(&self.ptr), 0..self.nmajor)
    }
}

/// Hypersparse compressed form: only non-empty major vectors are recorded,
/// so space is `O(e)` regardless of dimension (§II.A).
#[derive(Debug, Clone, PartialEq)]
pub struct Hyper<T> {
    /// Number of major vectors (the logical dimension, possibly enormous).
    pub nmajor: Index,
    /// Minor dimension.
    pub nminor: Index,
    /// Sorted majors of the non-empty vectors; length `nvec`.
    pub heads: Vec<Index>,
    /// `ptr[k]..ptr[k+1]` delimits the vector `heads[k]`; length `nvec+1`.
    pub ptr: Vec<usize>,
    /// Minor indices, sorted within each vector.
    pub idx: Vec<Index>,
    /// Values, parallel to `idx`.
    pub val: Vec<T>,
}

impl<T: Scalar> Hyper<T> {
    /// An empty hypersparse structure.
    pub fn empty(nmajor: Index, nminor: Index) -> Self {
        Hyper { nmajor, nminor, heads: Vec::new(), ptr: vec![0], idx: Vec::new(), val: Vec::new() }
    }

    /// Build from unsorted tuples; duplicates combined with `dup`.
    /// Space and time are `O(e log e)` — never `O(nmajor)`. This form
    /// keeps the stable comparison sort that [`Cs::build`] uses only
    /// below `nmajor` tuples: its majors run past 2^22, where a count per
    /// major would cost more than the tuples themselves.
    pub fn from_tuples(
        nmajor: Index,
        nminor: Index,
        mut tuples: Vec<Tuple<T>>,
        mut dup: impl FnMut(T, T) -> T,
    ) -> Self {
        tuples.sort_by_key(|&(i, j, _)| (i, j));
        let mut heads = Vec::new();
        let mut ptr = vec![0usize];
        let mut idx = Vec::with_capacity(tuples.len());
        let mut val: Vec<T> = Vec::with_capacity(tuples.len());
        for (i, j, x) in tuples {
            if heads.last() == Some(&i) && idx.len() > *ptr.last().expect("ptr nonempty") {
                if *idx.last().expect("entry") == j {
                    let last = val.last_mut().expect("parallel arrays");
                    *last = dup(*last, x);
                    continue;
                }
            } else if heads.last() != Some(&i) {
                if !heads.is_empty() {
                    ptr.push(idx.len());
                }
                heads.push(i);
            }
            idx.push(j);
            val.push(x);
        }
        if !heads.is_empty() {
            ptr.push(idx.len());
        }
        Hyper { nmajor, nminor, heads, ptr, idx, val }
    }

    /// Build from per-vector segments in increasing major order.
    pub fn from_vecs(nmajor: Index, nminor: Index, vecs: Vec<(Index, Vec<Index>, Vec<T>)>) -> Self {
        let mut heads = Vec::with_capacity(vecs.len());
        let mut ptr = Vec::with_capacity(vecs.len() + 1);
        ptr.push(0);
        let total: usize = vecs.iter().map(|(_, i, _)| i.len()).sum();
        let mut idx = Vec::with_capacity(total);
        let mut val = Vec::with_capacity(total);
        for (m, vi, vv) in vecs {
            if vi.is_empty() {
                continue;
            }
            heads.push(m);
            idx.extend_from_slice(&vi);
            val.extend_from_slice(&vv);
            ptr.push(idx.len());
        }
        Hyper { nmajor, nminor, heads, ptr, idx, val }
    }

    /// Expand to the standard form. Costs `O(nmajor)` for the pointer
    /// array — only valid for moderate dimensions.
    pub fn to_cs(&self) -> Cs<T> {
        let mut ptr = vec![0usize; self.nmajor + 1];
        for (k, &h) in self.heads.iter().enumerate() {
            ptr[h + 1] = self.ptr[k + 1] - self.ptr[k];
        }
        for i in 0..self.nmajor {
            ptr[i + 1] += ptr[i];
        }
        Cs {
            nmajor: self.nmajor,
            nminor: self.nminor,
            ptr,
            idx: self.idx.clone(),
            val: self.val.clone(),
        }
    }

    /// Transpose, producing a hypersparse result (counting over the set of
    /// occupied minors only, `O(e log e)`).
    pub fn transpose(&self) -> Hyper<T> {
        let mut tuples = Vec::with_capacity(self.nvals());
        self.for_each_vec(&mut |maj, idx, val| {
            for (&m, &v) in idx.iter().zip(val) {
                tuples.push((m, maj, v));
            }
        });
        Hyper::from_tuples(self.nminor, self.nmajor, tuples, |_, b| b)
    }

    /// Internal consistency check.
    #[allow(dead_code)]
    pub fn check(&self) -> Result<(), String> {
        if self.ptr.len() != self.heads.len() + 1 {
            return Err("ptr len != nvec+1".into());
        }
        for w in self.heads.windows(2) {
            if w[0] >= w[1] {
                return Err("heads not strictly sorted".into());
            }
        }
        if let Some(&h) = self.heads.last() {
            if h >= self.nmajor {
                return Err("head >= nmajor".into());
            }
        }
        if *self.ptr.last().expect("nonempty") != self.idx.len() {
            return Err("ptr end != nvals".into());
        }
        for k in 0..self.heads.len() {
            if self.ptr[k] >= self.ptr[k + 1] {
                return Err("empty vector stored in hypersparse form".into());
            }
            let seg = &self.idx[self.ptr[k]..self.ptr[k + 1]];
            for w in seg.windows(2) {
                if w[0] >= w[1] {
                    return Err("indices not strictly sorted".into());
                }
            }
            if let Some(&last) = seg.last() {
                if last >= self.nminor {
                    return Err("index >= nminor".into());
                }
            }
        }
        Ok(())
    }
}

impl<T: Scalar> SparseView<T> for Hyper<T> {
    fn nmajor(&self) -> Index {
        self.nmajor
    }
    fn nminor(&self) -> Index {
        self.nminor
    }
    fn nvals(&self) -> usize {
        self.idx.len()
    }
    fn nvecs(&self) -> usize {
        self.heads.len()
    }
    fn row<'s>(&'s self, major: Index, _: &'s mut RowScratch<T>) -> (&'s [Index], &'s [T]) {
        match self.heads.binary_search(&major) {
            Ok(k) => {
                let (a, b) = (self.ptr[k], self.ptr[k + 1]);
                (&self.idx[a..b], &self.val[a..b])
            }
            Err(_) => (&[], &[]),
        }
    }
    fn for_each_vec(&self, f: &mut dyn FnMut(Index, &[Index], &[T])) {
        for (k, &h) in self.heads.iter().enumerate() {
            let (a, b) = (self.ptr[k], self.ptr[k + 1]);
            f(h, &self.idx[a..b], &self.val[a..b]);
        }
    }
    fn entries_before(&self, major: Index) -> usize {
        self.ptr[self.heads.partition_point(|&h| h < major)]
    }
    fn row_len(&self, major: Index) -> usize {
        self.heads.binary_search(&major).map_or(0, |k| self.ptr[k + 1] - self.ptr[k])
    }
    fn majors(&self) -> Majors<'_> {
        Majors::List(&self.heads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Tuple<i32>> {
        vec![(2, 1, 30), (0, 0, 10), (0, 2, 11), (2, 0, 31), (1, 1, 20)]
    }

    /// Row `i` of a slice-backed view, as owned lists.
    fn row_of<T: Scalar>(v: &dyn SparseView<T>, i: Index) -> (Vec<Index>, Vec<T>) {
        let mut scratch = RowScratch::default();
        let (idx, val) = v.row(i, &mut scratch);
        (idx.to_vec(), val.to_vec())
    }

    #[test]
    fn cs_from_tuples_sorts_and_indexes() {
        let cs = Cs::from_tuples(3, 3, sample(), |_, b| b);
        cs.check().expect("valid");
        assert_eq!(cs.nvals(), 5);
        assert_eq!(row_of(&cs, 0), (vec![0, 2], vec![10, 11]));
        assert_eq!(row_of(&cs, 1), (vec![1], vec![20]));
        assert_eq!(row_of(&cs, 2), (vec![0, 1], vec![31, 30]));
        assert_eq!(cs.get(2, 1), Some(30));
        assert_eq!(cs.get(1, 2), None);
    }

    #[test]
    fn cs_duplicates_fold_in_insertion_order() {
        let t = vec![(0, 0, 1), (0, 0, 10), (0, 0, 100)];
        let cs = Cs::from_tuples(1, 1, t, |a, b| a - b);
        // ((1 - 10) - 100) = -109: proves left-to-right folding.
        assert_eq!(cs.get(0, 0), Some(-109));
    }

    #[test]
    fn cs_transpose_round_trips() {
        let cs = Cs::from_tuples(3, 4, vec![(0, 3, 1), (2, 0, 2), (1, 1, 3)], |_, b| b);
        let t = cs.transpose();
        t.check().expect("valid");
        assert_eq!(t.nmajor, 4);
        assert_eq!(t.nminor, 3);
        assert_eq!(t.get(3, 0), Some(1));
        assert_eq!(t.get(0, 2), Some(2));
        let back = t.transpose();
        assert_eq!(back, cs);
    }

    #[test]
    fn cs_empty_has_no_entries() {
        let cs = Cs::<f64>::empty(5, 7);
        cs.check().expect("valid");
        assert_eq!(cs.nvals(), 0);
        assert_eq!(cs.nvecs(), 0);
        assert_eq!(row_of(&cs, 3), (vec![], vec![]));
    }

    #[test]
    fn hyper_skips_empty_vectors() {
        // Enormous major dimension; only two vectors occupied.
        let n = 1usize << 40;
        let h = Hyper::from_tuples(n, n, vec![(7, 3, 1.5), (1 << 39, 0, 2.5)], |_, b| b);
        h.check().expect("valid");
        assert_eq!(h.nvecs(), 2);
        assert_eq!(h.nvals(), 2);
        assert_eq!(h.get(7, 3), Some(1.5));
        assert_eq!(h.get(1 << 39, 0), Some(2.5));
        assert_eq!(h.get(8, 3), None);
        // Memory is O(e): heads + ptr + idx + val, far below nmajor.
        assert!(h.heads.len() + h.ptr.len() + h.idx.len() < 16);
    }

    #[test]
    fn hyper_cs_round_trip() {
        let cs = Cs::from_tuples(10, 10, sample(), |_, b| b);
        let h = cs.to_hyper();
        h.check().expect("valid");
        assert_eq!(h.nvecs(), 3);
        let back = h.to_cs();
        assert_eq!(back, cs);
    }

    #[test]
    fn hyper_duplicate_folding() {
        let t = vec![(5, 5, 2), (5, 5, 3)];
        let h = Hyper::from_tuples(100, 100, t, |a, b| a + b);
        assert_eq!(h.get(5, 5), Some(5));
        assert_eq!(h.nvals(), 1);
    }

    #[test]
    fn hyper_transpose() {
        let h = Hyper::from_tuples(1 << 30, 1 << 30, vec![(5, 9, 1), (9, 5, 2)], |_, b| b);
        let t = h.transpose();
        t.check().expect("valid");
        assert_eq!(t.get(9, 5), Some(1));
        assert_eq!(t.get(5, 9), Some(2));
    }

    #[test]
    fn entries_before_is_the_prefix_sum_of_for_each_len_in_every_form() {
        // Rows 0, 3, 4 and 9 occupied out of 12 — empty rows before, between
        // and after — in the standard, hypersparse and compressed forms,
        // and layered over a base of the same rows whose overlay grows row
        // 0 and fills row 3, empties row 4 and leaves row 9 to the base.
        let t = vec![(0, 1, 1.0), (0, 5, 2.0), (3, 0, 3.0), (4, 2, 4.0), (4, 3, 5.0), (9, 9, 6.0)];
        let cs = Cs::from_tuples(12, 12, t, |_, b| b);
        let hyper = cs.to_hyper();
        let packed = CompressedMat::encode(&cs).expect("encodable");
        let mut bigger = cs.tuples();
        bigger.extend((0..12).flat_map(|i| (0..12).map(move |j| (i + 12, j, 1.0))));
        let base = Layered::new(Cs::from_tuples(24, 12, bigger, |_, b| b));
        let edits = [(0, 7, Some(7.0)), (3, 1, Some(8.0)), (4, 2, None), (4, 3, None)];
        let layered = base.with_edits(&edits);
        assert_eq!(layered.layers().overlay_rows, 3, "under the cut: an overlay, not a fold");
        let forms: [&dyn SparseView<f64>; 4] = [&cs, &hyper, &packed, &layered];
        for (f, v) in forms.into_iter().enumerate() {
            let mut lens = vec![0usize; v.nmajor()];
            v.for_each_len(&mut |i, len| lens[i] = len);
            let mut sum = 0;
            for (i, len) in lens.iter().enumerate() {
                assert_eq!(v.entries_before(i), sum, "form {f}, row {i}");
                let diff = v.entries_before(i + 1) - v.entries_before(i);
                assert_eq!(v.row_len(i), diff, "form {f}, row {i}: row_len");
                assert_eq!(v.row_len(i), *len, "form {f}, row {i}: row_len");
                sum += len;
            }
            assert_eq!(v.entries_before(v.nmajor()), v.nvals(), "form {f}, end");
            if f == 3 {
                assert_eq!(&lens[..12], [3, 0, 0, 2, 0, 0, 0, 0, 0, 1, 0, 0]);
                continue;
            }
            // The majors a row loop walks: by position, all of them where a
            // pointer array exists and the occupied ones in the hypersparse
            // form. Every row `for_each_len` visits is walked; the CSR walk
            // skips the empty ones on its pointers, the compressed one
            // leaves them to the loop.
            let m = v.majors();
            let want: Vec<Index> = if f == 1 { hyper.heads.clone() } else { (0..12).collect() };
            let positions: Vec<Option<Index>> = (0..=m.len()).map(|k| m.get(k)).collect();
            assert_eq!(positions, want.iter().map(|&i| Some(i)).chain([None]).collect::<Vec<_>>());
            let mut occupied = Vec::new();
            v.for_each_len(&mut |i, _| occupied.push(i));
            let walked: Vec<Index> = m.collect();
            assert_eq!(walked, if f == 2 { want } else { occupied }, "form {f}: walk");
        }
    }

    #[test]
    fn majors_slice_and_window_in_every_shape() {
        // Rows 3..11 of a matrix whose rows 4, 7 and 8 are empty.
        let ptr = [0, 1, 2, 3, 4, 4, 5, 6, 6, 6, 7, 8, 9];
        let heads = [2, 5, 9, 14];
        let shapes =
            [Majors::Rows(None, 3..11), Majors::Rows(Some(&ptr), 3..11), Majors::List(&heads)];
        for m in shapes {
            let positions: Vec<Index> = (0..m.len()).map(|k| m.get(k).expect("in range")).collect();
            assert_eq!(m.get(m.len()), None);
            let occupied = |&i: &Index| !matches!(m, Majors::Rows(Some(p), _) if p[i + 1] == p[i]);
            let walked: Vec<Index> = m.clone().collect();
            assert_eq!(walked, positions.iter().copied().filter(occupied).collect::<Vec<_>>());
            let at: Vec<Index> = m.slice(1..3).collect();
            assert_eq!(at, positions[1..3].iter().copied().filter(occupied).collect::<Vec<_>>());
            for (lo, hi) in [(0, 4), (4, 10), (9, 20), (12, 12), (30, 40)] {
                let want: Vec<Index> =
                    walked.iter().copied().filter(|i| (lo..hi).contains(i)).collect();
                assert_eq!(m.within(lo..hi).collect::<Vec<_>>(), want, "{m:?} within {lo}..{hi}");
            }
        }
    }

    #[test]
    fn symmetry_walk_agrees_with_the_transpose() {
        let sym = vec![(0, 1, 2.0), (1, 0, 2.0), (1, 2, 3.0), (2, 1, 3.0), (3, 3, 7.0)];
        assert!(is_symmetric(&Cs::from_tuples(4, 4, sym.clone(), |_, b| b)));
        assert!(is_symmetric(&Cs::<f64>::empty(5, 5)));
        // A missing mirror, a mirror with another value, an extra entry in
        // the last row, a rectangular shape: each one is caught.
        let mut missing = sym.clone();
        missing.remove(1);
        let mut reweighted = sym.clone();
        reweighted[3].2 = 3.5;
        let mut extra = sym.clone();
        extra.push((3, 0, 1.0));
        for (label, t) in [("missing", missing), ("reweighted", reweighted), ("extra", extra)] {
            let cs = Cs::from_tuples(4, 4, t, |_, b| b);
            assert!(!is_symmetric(&cs), "{label}");
            assert_ne!(cs.transpose(), cs, "{label}: the oracle agrees");
        }
        assert!(!is_symmetric(&Cs::from_tuples(2, 3, vec![(0, 1, 1.0), (1, 0, 1.0)], |_, b| b)));
    }

    #[test]
    fn symmetry_walk_compares_values_bit_for_bit() {
        // A signed zero is not the mirror of the other one (the transpose
        // holds different bits), and a NaN is the mirror of the same NaN.
        let zeros = Cs::from_tuples(2, 2, vec![(0, 1, 0.0f64), (1, 0, -0.0)], |_, b| b);
        assert!(!is_symmetric(&zeros));
        assert_ne!(zeros.transpose().val[0].to_bits(), zeros.val[0].to_bits());
        let nan = vec![(0, 1, f64::NAN), (1, 0, f64::NAN)];
        assert!(is_symmetric(&Cs::from_tuples(2, 2, nan, |_, b| b)));
    }

    #[test]
    fn from_vecs_builders_agree() {
        let vecs = vec![(1, vec![0, 2], vec![1.0, 2.0]), (4, vec![1], vec![3.0])];
        let cs = Cs::from_vecs(6, 3, vecs.clone());
        let h = Hyper::from_vecs(6, 3, vecs);
        cs.check().expect("valid");
        h.check().expect("valid");
        assert_eq!(cs.tuples(), h.tuples());
    }

    #[test]
    fn tuples_round_trip() {
        let cs = Cs::from_tuples(3, 3, sample(), |_, b| b);
        let again = Cs::from_tuples(3, 3, cs.tuples(), |_, b| b);
        assert_eq!(cs, again);
    }
}
