//! The opaque `GrB_Vector` object.
//!
//! Following the GraphBLAST design the paper highlights (Fig. 3), a vector
//! is stored **sparse** (sorted indices + values — the form "push"
//! kernels iterate) or **full-length** (a value array plus packed presence
//! words — the form "pull" kernels and masks probe in O(1); population
//! counts by `popcnt`, entry walks by `trailing_zeros`, so a random
//! pattern costs a short loop per entry, not a mispredicted branch per
//! position). The representation switches automatically as the number of
//! entries crosses density thresholds, with hysteresis so a frontier
//! whose size hovers near the boundary does not thrash; this is the
//! enabling mechanism for push/pull direction optimization.
//! [`VectorFormat`] names the full-length layout `Bitmap` below a quarter
//! full and `Dense` from there up: two density bands of one layout.
//!
//! Like [`crate::Matrix`], sparse vectors support deferred updates (pending
//! tuples and zombies) resolved by a lazy assembly step.

use std::ops::Range;
use std::sync::Mutex;

use parking_lot::{RwLock, RwLockReadGuard};

use crate::error::{Error, Result};
use crate::matrix::{merge_edits, unflip, ZOMBIE};
use crate::parallel::{fanout, par_chunks, run_cut, uniform_cut, weighted_cut, Chunking};
use crate::types::{Index, Scalar};

/// A full-length vector is labelled dense from 1/DENSIFY_RATIO full.
const DENSIFY_RATIO: usize = 4;
/// A sparse vector becomes full-length when more than 1/BITMAPIFY_RATIO
/// of positions are filled.
const BITMAPIFY_RATIO: usize = 16;
/// Become sparse when fewer than 1/SPARSIFY_RATIO are filled. The gap
/// between this and BITMAPIFY_RATIO is the hysteresis band that stops a
/// frontier oscillating between forms across iterations.
pub(crate) const SPARSIFY_RATIO: usize = 32;
/// Never allocate a full-length form longer than this.
pub(crate) const DENSE_LIMIT: usize = 1 << 26;

/// The representation currently held by a vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorFormat {
    /// Sorted index/value lists.
    Sparse,
    /// Full-length value array with packed presence words, less than a
    /// quarter full — the mid-density frontier band.
    Bitmap,
    /// The same full-length layout, at least a quarter full.
    Dense,
}

impl VectorFormat {
    /// The label trace events carry for this form.
    pub(crate) fn name(self) -> &'static str {
        match self {
            VectorFormat::Sparse => "sparse",
            VectorFormat::Bitmap => "bitmap",
            VectorFormat::Dense => "dense",
        }
    }
}

/// True when `count` entries call for the full-length form of a
/// length-`n` vector held sparse: at least 1/BITMAPIFY_RATIO full, and
/// not too long to allocate.
pub(crate) fn fills_out(n: usize, count: usize) -> bool {
    n <= DENSE_LIMIT && count.saturating_mul(BITMAPIFY_RATIO) >= n
}

/// Number of `u64` presence words covering `n` positions.
#[inline]
fn bitmap_words(n: usize) -> usize {
    n.div_ceil(64)
}

/// Test bit `i` of a packed presence array.
#[inline]
pub(crate) fn bitmap_get(bits: &[u64], i: Index) -> bool {
    (bits[i >> 6] >> (i & 63)) & 1 == 1
}

/// Presence words with the first `n` bits set.
pub(crate) fn full_bits(n: usize) -> Vec<u64> {
    let mut bits = vec![u64::MAX; bitmap_words(n)];
    if !n.is_multiple_of(64) {
        bits[n / 64] = (1u64 << (n % 64)) - 1;
    }
    bits
}

#[derive(Debug, Clone)]
pub(crate) enum VStore<T> {
    Sparse {
        /// Sorted indices; zombie entries carry the flag bit.
        idx: Vec<Index>,
        val: Vec<T>,
    },
    Full {
        val: Vec<T>,
        /// Packed presence words, little-endian within each `u64`; bits
        /// past the vector's length stay clear.
        bits: Vec<u64>,
        nvals: usize,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct VInner<T> {
    pub n: Index,
    pub store: VStore<T>,
    /// Deferred writes in submission order, resolved by assembly: `Some`
    /// stores a value, `None` is the tombstone `remove_element` leaves for
    /// a position that may hold an earlier pending insertion. Only the
    /// sparse form defers; full-length forms update in place.
    pub pending: Vec<(Index, Option<T>)>,
    pub nzombies: usize,
}

/// A borrowed, assembled view of a vector's contents, consumed by kernels.
#[derive(Debug, Clone, Copy)]
pub(crate) enum VView<'a, T> {
    Sparse(&'a [Index], &'a [T]),
    /// Full-length values and packed presence words.
    Full(&'a [T], &'a [u64]),
}

impl<'a, T: Scalar> VView<'a, T> {
    #[allow(dead_code)]
    pub fn nvals(&self) -> usize {
        match self {
            VView::Sparse(idx, _) => idx.len(),
            VView::Full(_, bits) => bits.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// O(1) for the full-length form, O(log nvals) for sparse. An op that
    /// probes a sparse mask at many positions does not come here: its
    /// `VMask` scatters the mask into presence words first.
    pub fn get(&self, i: Index) -> Option<T> {
        match self {
            VView::Sparse(idx, val) => idx.binary_search(&i).ok().map(|p| val[p]),
            VView::Full(val, bits) => bitmap_get(bits, i).then(|| val[i]),
        }
    }

    /// True for the full-length form: O(1) probes at any position.
    pub fn is_full(&self) -> bool {
        matches!(self, VView::Full(..))
    }

    /// Visit entries in increasing index order.
    pub fn for_each(&self, f: impl FnMut(Index, T)) {
        self.for_each_in(0..Index::MAX, f);
    }

    /// Visit the entries whose index lies in `r`, in increasing order.
    pub fn for_each_in(&self, r: Range<Index>, mut f: impl FnMut(Index, T)) {
        match self {
            VView::Sparse(idx, val) => {
                let (a, b) =
                    (idx.partition_point(|&i| i < r.start), idx.partition_point(|&i| i < r.end));
                for (&i, &v) in idx[a..b].iter().zip(&val[a..b]) {
                    f(i, v);
                }
            }
            VView::Full(val, bits) => {
                // Word-at-a-time scan: empty words cost one test, set bits
                // are walked by trailing_zeros / clear-lowest.
                let end = r.end.min(val.len());
                for w in (r.start >> 6)..end.div_ceil(64) {
                    let mut word = bits[w];
                    while word != 0 {
                        let i = (w << 6) | word.trailing_zeros() as usize;
                        if i >= r.start && i < end {
                            f(i, val[i]);
                        }
                        word &= word - 1;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Mutable full-length windows
// ---------------------------------------------------------------------------

/// A mutable window `[base, base + len)` onto full-length storage (a
/// vector's own, or an op's full-length result under construction): what
/// the in-place write arm and the full-length kernels scatter into.
/// `base` is a multiple of 64, so two windows never share a presence word
/// and [`par_windows`] can hand them to different workers.
pub(crate) struct FullMut<'a, T> {
    base: Index,
    val: &'a mut [T],
    bits: &'a mut [u64],
}

impl<'a, T: Scalar> FullMut<'a, T> {
    /// A window over whole value/presence arrays.
    pub fn new(val: &'a mut [T], bits: &'a mut [u64]) -> Self {
        debug_assert_eq!(bits.len(), bitmap_words(val.len()));
        FullMut { base: 0, val, bits }
    }

    /// The index range this window covers.
    pub fn range(&self) -> Range<Index> {
        self.base..self.base + self.val.len()
    }

    #[inline]
    pub fn get(&self, i: Index) -> Option<T> {
        let k = i - self.base;
        bitmap_get(self.bits, k).then(|| self.val[k])
    }

    /// Store `x` at `i`; true when the position held no entry before.
    #[inline]
    pub fn set(&mut self, i: Index, x: T) -> bool {
        let k = i - self.base;
        self.val[k] = x;
        let (w, bit) = (k >> 6, 1u64 << (k & 63));
        let fresh = self.bits[w] & bit == 0;
        self.bits[w] |= bit;
        fresh
    }

    /// Delete the entry at `i`; true when there was one.
    #[inline]
    pub fn clear(&mut self, i: Index) -> bool {
        let k = i - self.base;
        let (w, bit) = (k >> 6, 1u64 << (k & 63));
        let was = self.bits[w] & bit != 0;
        self.bits[w] &= !bit;
        was
    }

    /// Store `x` at every position whose bit is set in `words` — presence
    /// words indexed like the whole vector, bits past its length clear —
    /// and return how many held no entry before. A word at a time: each
    /// presence word is ORed with its mask word, the new bits counted by
    /// popcount, and `x` stored at the mask word's set bits.
    pub fn fill_under(&mut self, words: &[u64], x: T) -> usize {
        let mut added = 0;
        let mine = &words[self.base >> 6..][..self.bits.len()];
        for (w, (word, &m)) in self.bits.iter_mut().zip(mine).enumerate() {
            added += (m & !*word).count_ones() as usize;
            *word |= m;
            let mut rest = m;
            while rest != 0 {
                self.val[(w << 6) | rest.trailing_zeros() as usize] = x;
                rest &= rest - 1;
            }
        }
        added
    }

    /// Delete every stored entry whose index `pred` selects and return how
    /// many went. Presence is swept a word at a time, so an empty stretch
    /// costs one test per 64 positions.
    pub fn clear_where(&mut self, mut pred: impl FnMut(Index) -> bool) -> usize {
        let base = self.base;
        let mut removed = 0;
        for (w, word) in self.bits.iter_mut().enumerate() {
            let mut rest = *word;
            while rest != 0 {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if pred(base + ((w << 6) | b)) {
                    *word &= !(1u64 << b);
                    removed += 1;
                }
            }
        }
        removed
    }

    /// Cut at `bounds` (`0`, …, the window's length, ascending, the inner
    /// ones multiples of 64) into one window per interval.
    fn split_at(self, bounds: &[usize]) -> Vec<FullMut<'a, T>> {
        let FullMut { base, mut val, mut bits } = self;
        let mut out = Vec::with_capacity(bounds.len().saturating_sub(1));
        for w in bounds.windows(2) {
            debug_assert!(w[0] % 64 == 0, "windows must not share a presence word");
            // `mem::take` moves the `&'a mut` slices out (a method call on
            // them would reborrow for less than `'a`).
            let (v, vrest) = std::mem::take(&mut val).split_at_mut(w[1] - w[0]);
            let (b, brest) = std::mem::take(&mut bits).split_at_mut(bitmap_words(w[1] - w[0]));
            out.push(FullMut { base: base + w[0], val: v, bits: b });
            (val, bits) = (vrest, brest);
        }
        out
    }
}

/// Run `work` over `full` cut into one equal window per thread and return
/// the results in index order: the mutable-output counterpart of
/// [`par_chunks`](crate::parallel::par_chunks), with the same sequential
/// cutoff on `est_work`. Windows are disjoint slices, so workers write
/// their part of the output directly and nothing is stitched afterwards.
pub(crate) fn par_windows<T: Scalar, R: Send>(
    full: FullMut<'_, T>,
    est_work: usize,
    work: impl Fn(&mut FullMut<'_, T>) -> R + Sync,
) -> Vec<R> {
    let n = full.val.len();
    windows_at(full, &uniform_cut(n, fanout(n, est_work), 64), est_work, work)
}

/// [`par_windows`] for a loop whose cost per position is uneven — a pull
/// over matrix rows: `before(i)` is the cumulative work of the positions
/// before `i`, and the windows are cut to equal work, 64-aligned, several
/// per thread ([`crate::parallel::par_chunks_weighted`]).
pub(crate) fn par_windows_weighted<T: Scalar, R: Send>(
    full: FullMut<'_, T>,
    est_work: usize,
    before: impl Fn(usize) -> usize,
    work: impl Fn(&mut FullMut<'_, T>) -> R + Sync,
) -> Vec<R> {
    let n = full.val.len();
    let bounds = match fanout(n, est_work) {
        1 => vec![0, n],
        nt => weighted_cut(n, Chunking::Oversplit.parts(nt), 64, before),
    };
    windows_at(full, &bounds, est_work, work)
}

fn windows_at<T: Scalar, R: Send>(
    mut full: FullMut<'_, T>,
    bounds: &[usize],
    est_work: usize,
    work: impl Fn(&mut FullMut<'_, T>) -> R + Sync,
) -> Vec<R> {
    if bounds.len() == 2 {
        // One window: the whole output, where it stands.
        crate::trace::dispatch(1, est_work);
        return vec![work(&mut full)];
    }
    let slots: Vec<Mutex<Option<FullMut<'_, T>>>> =
        full.split_at(bounds).into_iter().map(|w| Mutex::new(Some(w))).collect();
    run_cut(bounds, est_work, |k, _| {
        let mut win = slots[k]
            .lock()
            .expect("window lock")
            .take()
            .expect("each window is claimed by exactly one chunk");
        work(&mut win)
    })
}

// ---------------------------------------------------------------------------
// Dense scatter accumulator
// ---------------------------------------------------------------------------

/// State of one accumulator slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// Never touched this generation.
    Empty,
    /// Holds an accumulated value.
    Active,
    /// Known mask-excluded: probed once, skip all later contributions.
    Blocked,
}

thread_local! {
    /// Reusable stamp arrays (paired with the last generation they used),
    /// so repeated scatter calls on one thread skip the O(n) zero fill.
    /// Under cursor claiming any thread — the dispatching one or any pool
    /// worker — may run the chunk that builds an accumulator, and takes the
    /// array from its *own* pool; the array returns to the pool of the
    /// thread that drops the accumulator. A Gustavson chunk drops where it
    /// ran, so every thread keeps its array. A push's accumulators are all
    /// dropped by the dispatching thread, which folds them: arrays drift to
    /// dispatching threads (each keeps at most `STAMP_POOL_LIMIT`, the rest
    /// are freed), and a worker that claims a push chunk zero-fills a fresh
    /// one. Values arrays are *not* pooled — they are type-erased per call.
    static STAMP_POOL: std::cell::RefCell<Vec<(Vec<u32>, u32)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}
const STAMP_POOL_LIMIT: usize = 4;

/// A stamped dense accumulator for scatter (saxpy) kernels.
///
/// Instead of clearing `n` slots per use, each slot carries a generation
/// stamp: `stamp[j] == gen` means active, `gen + 1` means blocked by the
/// mask, anything else means empty. Generations step by 2 so the blocked
/// marker of one round can never alias the active marker of the next, and
/// [`DenseAcc::begin`] makes per-row reuse (Gustavson) O(touched) instead
/// of O(n). On drop the stamp array returns to a thread-local pool.
pub(crate) struct DenseAcc<T> {
    val: Vec<T>,
    stamp: Vec<u32>,
    gen: u32,
    touched: Vec<Index>,
}

impl<T: Scalar> DenseAcc<T> {
    pub fn new(n: usize) -> Self {
        let (mut stamp, last_gen) =
            STAMP_POOL.with(|p| p.borrow_mut().pop()).unwrap_or((Vec::new(), 0));
        // Leave room for the blocked marker (gen + 1) and one begin() step
        // before wrapping; on wrap, re-zero so stale stamps cannot collide.
        let gen = if last_gen > u32::MAX - 4 {
            stamp.clear();
            2
        } else {
            last_gen + 2
        };
        stamp.resize(n, 0);
        DenseAcc { val: vec![T::zero(); n], stamp, gen, touched: Vec::new() }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.stamp.len()
    }

    /// Start a fresh round over the same allocation (per-row reuse).
    pub fn begin(&mut self) {
        if self.gen > u32::MAX - 4 {
            self.stamp.fill(0);
            self.gen = 2;
        } else {
            self.gen += 2;
        }
        self.touched.clear();
    }

    #[inline]
    pub fn slot(&self, j: Index) -> Slot {
        let s = self.stamp[j];
        if s == self.gen {
            Slot::Active
        } else if s == self.gen + 1 {
            Slot::Blocked
        } else {
            Slot::Empty
        }
    }

    /// First write to an empty slot.
    #[inline]
    pub fn insert(&mut self, j: Index, v: T) {
        self.stamp[j] = self.gen;
        self.val[j] = v;
        self.touched.push(j);
    }

    /// Mark a slot mask-excluded for the rest of this round.
    #[inline]
    pub fn block(&mut self, j: Index) {
        self.stamp[j] = self.gen + 1;
    }

    /// Value of an `Active` slot.
    #[inline]
    pub fn value(&self, j: Index) -> T {
        self.val[j]
    }

    /// Overwrite an `Active` slot.
    #[inline]
    pub fn set(&mut self, j: Index, v: T) {
        self.val[j] = v;
    }

    /// Indices inserted this round, in first-touch order.
    pub fn touched(&self) -> &[Index] {
        &self.touched
    }

    pub fn sort_touched(&mut self) {
        self.touched.sort_unstable();
    }

    /// Consume this round: sorted indices plus their values. A round that
    /// touched a fair share of the slots reads them off the stamps in
    /// index order, O(n), instead of sorting the touch list.
    pub fn drain_sorted(&mut self) -> (Vec<Index>, Vec<T>) {
        let mut idx = std::mem::take(&mut self.touched);
        if idx.len() * 8 >= self.stamp.len() {
            let gen = self.gen;
            idx.clear();
            idx.extend(self.stamp.iter().enumerate().filter(|&(_, &s)| s == gen).map(|(j, _)| j));
        } else {
            idx.sort_unstable();
        }
        let val = idx.iter().map(|&j| self.val[j]).collect();
        (idx, val)
    }

    /// Consume this round as a full-length result — the value array as it
    /// stands, presence words packed off the stamps, and the entry count.
    pub fn into_full(mut self) -> (Vec<T>, Vec<u64>, usize) {
        let gen = self.gen;
        let bits = self
            .stamp
            .chunks(64)
            .map(|c| c.iter().enumerate().fold(0u64, |w, (b, &s)| w | (u64::from(s == gen) << b)))
            .collect();
        (std::mem::take(&mut self.val), bits, self.touched.len())
    }
}

impl<T> Drop for DenseAcc<T> {
    fn drop(&mut self) {
        let stamp = std::mem::take(&mut self.stamp);
        let gen = self.gen;
        STAMP_POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < STAMP_POOL_LIMIT {
                pool.push((stamp, gen));
            }
        });
    }
}

impl<T: Scalar> VInner<T> {
    fn needs_assembly(&self) -> bool {
        !self.pending.is_empty() || self.nzombies > 0
    }

    /// Resident bytes of the current state, without forcing assembly.
    /// `idx_bytes` covers whatever presence structure the form carries:
    /// sorted indices (sparse) or packed presence words (full-length).
    fn memory_usage(&self) -> crate::MemoryUsage {
        fn vb<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let (idx_bytes, val_bytes) = match &self.store {
            VStore::Sparse { idx, val } => (vb(idx), vb(val)),
            VStore::Full { val, bits, .. } => (vb(bits), vb(val)),
        };
        crate::MemoryUsage {
            ptr_bytes: 0,
            idx_bytes,
            val_bytes,
            pending_bytes: vb(&self.pending),
            dual_bytes: 0,
        }
    }

    pub(crate) fn assemble(&mut self) {
        if !self.needs_assembly() {
            return;
        }
        let mut span = crate::trace::assemble_span(
            crate::trace::Op::AssembleVector,
            self.pending.len(),
            self.nzombies,
        );
        // Stable sort, then keep the last write at each index: a later
        // tombstone cancels an earlier insertion and the other way round.
        self.pending.sort_by_key(|&(i, _)| i);
        let mut pend = std::mem::take(&mut self.pending);
        pend.dedup_by(|later, earlier| {
            let same = later.0 == earlier.0;
            if same {
                earlier.1 = later.1.take();
            }
            same
        });
        self.nzombies = 0;
        if let VStore::Sparse { idx, val } = &self.store {
            // Merge chunks over the index domain: each worker locates its
            // slice of the stored entries and the pending list by binary
            // search (both sorted), so chunk-order stitching reproduces
            // the sequential merge exactly.
            let n = self.n;
            let chunks = par_chunks(n, idx.len() + pend.len(), |r| {
                let (sa, sb) = (
                    idx.partition_point(|&j| unflip(j) < r.start),
                    idx.partition_point(|&j| unflip(j) < r.end),
                );
                let (pa, pb) = (
                    pend.partition_point(|p| p.0 < r.start),
                    pend.partition_point(|p| p.0 < r.end),
                );
                let mut out_i = Vec::with_capacity(sb - sa + (pb - pa));
                let mut out_v = Vec::with_capacity(sb - sa + (pb - pa));
                merge_edits(
                    idx[sa..sb]
                        .iter()
                        .zip(&val[sa..sb])
                        .map(|(&j, &x)| (unflip(j), j & ZOMBIE == 0, x)),
                    pend[pa..pb].iter().copied(),
                    |j, x| {
                        out_i.push(j);
                        out_v.push(x);
                    },
                );
                (out_i, out_v)
            });
            let mut out_i = Vec::with_capacity(idx.len() + pend.len());
            let mut out_v = Vec::with_capacity(idx.len() + pend.len());
            for (ci, cv) in chunks {
                out_i.extend(ci);
                out_v.extend(cv);
            }
            self.store = VStore::Sparse { idx: out_i, val: out_v };
        }
        self.optimize_form();
        if span.on() {
            span.arg("resident_bytes", self.memory_usage().total() as u64);
        }
    }

    /// Pick the representation the current density calls for. The
    /// promotion threshold (sparse → full-length at 1/16) sits above the
    /// demotion threshold (→ sparse below 1/32), so a frontier whose size
    /// hovers near a boundary does not thrash.
    pub(crate) fn optimize_form(&mut self) {
        debug_assert!(!self.needs_assembly());
        let n = self.n;
        let before = self.format();
        match &self.store {
            VStore::Sparse { idx, .. } => {
                if fills_out(n, idx.len()) {
                    self.fill_out();
                }
            }
            VStore::Full { nvals, .. } => {
                if nvals * SPARSIFY_RATIO < n {
                    self.sparsify();
                }
            }
        }
        let after = self.format();
        if (after == VectorFormat::Sparse) != (before == VectorFormat::Sparse) {
            crate::trace::vector_convert(before.name(), after.name(), n);
        }
    }

    /// True when the vector holds no entry, deferred updates counted.
    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty()
            && match &self.store {
                VStore::Sparse { idx, .. } => idx.len() == self.nzombies,
                VStore::Full { nvals, .. } => *nvals == 0,
            }
    }

    pub(crate) fn format(&self) -> VectorFormat {
        match &self.store {
            VStore::Sparse { .. } => VectorFormat::Sparse,
            VStore::Full { nvals, .. } if nvals * DENSIFY_RATIO >= self.n => VectorFormat::Dense,
            VStore::Full { .. } => VectorFormat::Bitmap,
        }
    }

    /// The full-length storage as a mutable window plus its entry counter;
    /// `None` in the sparse form.
    pub(crate) fn full_mut(&mut self) -> Option<(FullMut<'_, T>, &mut usize)> {
        match &mut self.store {
            VStore::Sparse { .. } => None,
            VStore::Full { val, bits, nvals } => Some((FullMut::new(val, bits), nvals)),
        }
    }

    /// Sparse → full-length; a full-length vector stays as it is.
    pub(crate) fn fill_out(&mut self) {
        if let VStore::Sparse { idx, val } = &self.store {
            let mut fval = vec![T::zero(); self.n];
            let mut bits = vec![0u64; bitmap_words(self.n)];
            for (&i, &v) in idx.iter().zip(val.iter()) {
                fval[i] = v;
                bits[i >> 6] |= 1 << (i & 63);
            }
            let nvals = idx.len();
            self.store = VStore::Full { val: fval, bits, nvals };
        }
    }

    fn sparsify(&mut self) {
        let mut idx = Vec::new();
        let mut sval = Vec::new();
        self.view().for_each(|i, v| {
            idx.push(i);
            sval.push(v);
        });
        self.store = VStore::Sparse { idx, val: sval };
    }

    pub(crate) fn view(&self) -> VView<'_, T> {
        debug_assert!(!self.needs_assembly());
        match &self.store {
            VStore::Sparse { idx, val } => VView::Sparse(idx, val),
            VStore::Full { val, bits, .. } => VView::Full(val, bits),
        }
    }

    pub(crate) fn nvals_assembled(&self) -> usize {
        debug_assert!(!self.needs_assembly());
        match &self.store {
            VStore::Sparse { idx, .. } => idx.len(),
            VStore::Full { nvals, .. } => *nvals,
        }
    }
}

/// An opaque GraphBLAS vector over the scalar domain `T`.
#[derive(Debug)]
pub struct Vector<T: Scalar> {
    pub(crate) inner: RwLock<VInner<T>>,
}

impl<T: Scalar> Clone for Vector<T> {
    fn clone(&self) -> Self {
        Vector { inner: RwLock::new(self.inner.read().clone()) }
    }
}

impl<T: Scalar> Vector<T> {
    /// The longest vector the full-length form holds; [`Vector::dense`]
    /// refuses anything longer, and longer vectors stay sparse.
    pub const FULL_LENGTH_LIMIT: Index = DENSE_LIMIT;

    /// Create an empty vector of length `n` (`GrB_Vector_new`).
    pub fn new(n: Index) -> Result<Self> {
        if n == 0 {
            return Err(Error::invalid("vector size must be >= 1"));
        }
        Ok(Vector {
            inner: RwLock::new(VInner {
                n,
                store: VStore::Sparse { idx: Vec::new(), val: Vec::new() },
                pending: Vec::new(),
                nzombies: 0,
            }),
        })
    }

    /// Create and build from `(index, value)` tuples; duplicates combined
    /// with `dup(existing, incoming)`.
    pub fn from_tuples(
        n: Index,
        mut tuples: Vec<(Index, T)>,
        mut dup: impl FnMut(T, T) -> T,
    ) -> Result<Self> {
        let v = Vector::new(n)?;
        for &(i, _) in &tuples {
            if i >= n {
                return Err(Error::oob(i, n));
            }
        }
        tuples.sort_by_key(|&(i, _)| i);
        let mut idx: Vec<Index> = Vec::with_capacity(tuples.len());
        let mut val: Vec<T> = Vec::with_capacity(tuples.len());
        for (i, x) in tuples {
            if idx.last() == Some(&i) {
                let last = val.last_mut().expect("parallel arrays");
                *last = dup(*last, x);
            } else {
                idx.push(i);
                val.push(x);
            }
        }
        {
            let mut g = v.inner.write();
            g.store = VStore::Sparse { idx, val };
            g.optimize_form();
        }
        Ok(v)
    }

    /// Create a fully dense vector holding `value` at every position — the
    /// usual starting point for PageRank-style iterations.
    pub fn dense(n: Index, value: T) -> Result<Self> {
        if n == 0 {
            return Err(Error::invalid("vector size must be >= 1"));
        }
        if n > DENSE_LIMIT {
            return Err(Error::invalid("dense vector too large"));
        }
        Ok(Vector {
            inner: RwLock::new(VInner {
                n,
                store: VStore::Full { val: vec![value; n], bits: full_bits(n), nvals: n },
                pending: Vec::new(),
                nzombies: 0,
            }),
        })
    }

    /// Length of the vector (`GrB_Vector_size`).
    pub fn size(&self) -> Index {
        self.inner.read().n
    }

    /// Number of stored entries; forces completion of deferred updates.
    pub fn nvals(&self) -> usize {
        self.read().nvals_assembled()
    }

    /// The current representation.
    pub fn vector_format(&self) -> VectorFormat {
        self.inner.read().format()
    }

    /// Force completion of deferred updates (`GrB_Vector_wait`).
    pub fn wait(&self) {
        self.inner.write().assemble();
    }

    /// Resident heap footprint of the vector, by component — the vector
    /// analogue of [`crate::Matrix::memory_usage`]. `idx_bytes` reports
    /// the form's presence structure (sparse indices, or the packed
    /// presence words of the full-length form). Does not force assembly.
    pub fn memory_usage(&self) -> crate::MemoryUsage {
        self.inner.read().memory_usage()
    }

    /// Set one entry (`GrB_Vector_setElement`).
    pub fn set_element(&mut self, i: Index, x: T) -> Result<()> {
        let inner = self.inner.get_mut();
        if i >= inner.n {
            return Err(Error::oob(i, inner.n));
        }
        if let Some((mut full, nvals)) = inner.full_mut() {
            *nvals += usize::from(full.set(i, x));
        } else if let VStore::Sparse { idx, val } = &mut inner.store {
            match idx.binary_search_by_key(&i, |&x| unflip(x)) {
                Ok(p) => {
                    if idx[p] & ZOMBIE != 0 {
                        idx[p] = i;
                        inner.nzombies -= 1;
                    }
                    val[p] = x;
                }
                Err(_) => inner.pending.push((i, Some(x))),
            }
        }
        Ok(())
    }

    /// Remove one entry (`GrB_Vector_removeElement`); no-op if absent.
    /// O(1) beyond the slot lookup: a stored entry becomes a zombie, and a
    /// position that may hold a pending insertion gets a pending tombstone
    /// that assembly resolves.
    pub fn remove_element(&mut self, i: Index) -> Result<()> {
        let inner = self.inner.get_mut();
        if i >= inner.n {
            return Err(Error::oob(i, inner.n));
        }
        if let Some((mut full, nvals)) = inner.full_mut() {
            *nvals -= usize::from(full.clear(i));
        } else if let VStore::Sparse { idx, .. } = &mut inner.store {
            match idx.binary_search_by_key(&i, |&x| unflip(x)) {
                Ok(p) => {
                    if idx[p] & ZOMBIE == 0 {
                        idx[p] |= ZOMBIE;
                        inner.nzombies += 1;
                    }
                }
                // No slot, so any write to `i` sits in the pending list.
                Err(_) => {
                    if !inner.pending.is_empty() {
                        inner.pending.push((i, None));
                    }
                }
            }
        }
        Ok(())
    }

    /// Read one entry; [`Error::NoValue`] if absent.
    pub fn extract_element(&self, i: Index) -> Result<T> {
        let inner = self.inner.read();
        if i >= inner.n {
            return Err(Error::oob(i, inner.n));
        }
        // Later pending writes shadow assembled data; scan from the back.
        if let Some(&(_, x)) = inner.pending.iter().rev().find(|p| p.0 == i) {
            return x.ok_or(Error::NoValue);
        }
        match &inner.store {
            VStore::Full { val, bits, .. } => {
                if bitmap_get(bits, i) {
                    Ok(val[i])
                } else {
                    Err(Error::NoValue)
                }
            }
            VStore::Sparse { idx, val } => match idx.binary_search_by_key(&i, |&x| unflip(x)) {
                Ok(p) if idx[p] & ZOMBIE == 0 => Ok(val[p]),
                _ => Err(Error::NoValue),
            },
        }
    }

    /// Convenience: `extract_element` returning `Option`.
    pub fn get(&self, i: Index) -> Option<T> {
        self.extract_element(i).ok()
    }

    /// Remove all entries, keeping the length.
    pub fn clear(&mut self) {
        let inner = self.inner.get_mut();
        inner.store = VStore::Sparse { idx: Vec::new(), val: Vec::new() };
        inner.pending.clear();
        inner.nzombies = 0;
    }

    /// Copy all entries out as `(index, value)` tuples in index order.
    pub fn extract_tuples(&self) -> Vec<(Index, T)> {
        let g = self.read();
        let mut out = Vec::with_capacity(g.nvals_assembled());
        g.view().for_each(|i, v| out.push((i, v)));
        out
    }

    /// Iterate over `(index, value)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (Index, T)> {
        self.extract_tuples().into_iter()
    }

    /// Resize, dropping entries past the new length.
    pub fn resize(&mut self, n: Index) -> Result<()> {
        if n == 0 {
            return Err(Error::invalid("vector size must be >= 1"));
        }
        let inner = self.inner.get_mut();
        inner.assemble();
        let tuples: Vec<(Index, T)> = {
            let mut t = Vec::new();
            inner.view().for_each(|i, v| {
                if i < n {
                    t.push((i, v));
                }
            });
            t
        };
        inner.n = n;
        let (idx, val) = tuples.into_iter().unzip();
        inner.store = VStore::Sparse { idx, val };
        inner.optimize_form();
        Ok(())
    }

    /// The pattern as a Boolean vector (`true` at every stored entry).
    pub fn pattern(&self) -> Vector<bool> {
        let g = self.read();
        let mut idx = Vec::with_capacity(g.nvals_assembled());
        g.view().for_each(|i, _| idx.push(i));
        let val = vec![true; idx.len()];
        Vector::from_parts(g.n, idx, val)
    }

    /// Lock for reading with deferred updates resolved.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, VInner<T>> {
        loop {
            {
                let g = self.inner.read();
                if !g.needs_assembly() {
                    return g;
                }
            }
            self.inner.write().assemble();
        }
    }

    /// Construct directly from sorted, deduplicated parallel arrays.
    pub(crate) fn from_parts(n: Index, idx: Vec<Index>, val: Vec<T>) -> Self {
        debug_assert!(idx.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(idx.last().is_none_or(|&l| l < n));
        let mut inner =
            VInner { n, store: VStore::Sparse { idx, val }, pending: Vec::new(), nzombies: 0 };
        inner.optimize_form();
        Vector { inner: RwLock::new(inner) }
    }

    /// Replace contents with sorted, deduplicated parallel arrays.
    pub(crate) fn install(&mut self, idx: Vec<Index>, val: Vec<T>) {
        let inner = self.inner.get_mut();
        debug_assert!(idx.last().is_none_or(|&l| l < inner.n));
        inner.store = VStore::Sparse { idx, val };
        inner.pending.clear();
        inner.nzombies = 0;
        inner.optimize_form();
    }

    /// Replace contents with full-length arrays — a result its kernel
    /// already produced in that form, so nothing is converted unless it
    /// turns out sparse enough to demote.
    pub(crate) fn install_full(&mut self, val: Vec<T>, bits: Vec<u64>, nvals: usize) {
        let inner = self.inner.get_mut();
        debug_assert!(val.len() == inner.n && bits.len() == bitmap_words(inner.n));
        debug_assert_eq!(nvals, VView::Full(&val, &bits).nvals());
        inner.store = VStore::Full { val, bits, nvals };
        inner.pending.clear();
        inner.nzombies = 0;
        inner.optimize_form();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_zero_size() {
        assert!(Vector::<i32>::new(0).is_err());
    }

    #[test]
    fn build_and_lookup() {
        let v = Vector::from_tuples(5, vec![(3, 30), (1, 10)], |_, b| b).expect("build");
        assert_eq!(v.nvals(), 2);
        assert_eq!(v.get(1), Some(10));
        assert_eq!(v.get(3), Some(30));
        assert_eq!(v.get(0), None);
        assert_eq!(v.extract_tuples(), vec![(1, 10), (3, 30)]);
    }

    #[test]
    fn duplicates_fold_in_order() {
        let v = Vector::from_tuples(2, vec![(0, 8), (0, 2)], |a, b| a / b).expect("build");
        assert_eq!(v.get(0), Some(4));
    }

    #[test]
    fn set_remove_assemble() {
        let mut v = Vector::<i32>::new(10).expect("new");
        v.set_element(4, 40).expect("set");
        v.set_element(2, 20).expect("set");
        assert_eq!(v.get(4), Some(40));
        assert_eq!(v.nvals(), 2);
        v.remove_element(4).expect("remove");
        assert_eq!(v.get(4), None);
        assert_eq!(v.nvals(), 1);
        v.set_element(4, 44).expect("set again");
        assert_eq!(v.extract_tuples(), vec![(2, 20), (4, 44)]);
    }

    #[test]
    fn densify_on_fill() {
        let mut v = Vector::<f64>::new(8).expect("new");
        assert_eq!(v.vector_format(), VectorFormat::Sparse);
        for i in 0..8 {
            v.set_element(i, i as f64).expect("set");
        }
        v.wait();
        assert_eq!(v.vector_format(), VectorFormat::Dense);
        assert_eq!(v.nvals(), 8);
        assert_eq!(v.get(7), Some(7.0));
    }

    #[test]
    fn sparsify_on_drain() {
        let mut v = Vector::dense(64, 1i32).expect("dense");
        assert_eq!(v.vector_format(), VectorFormat::Dense);
        for i in 0..63 {
            v.remove_element(i).expect("remove");
        }
        v.wait();
        // 1/64 occupancy is below the sparsify threshold.
        let g = v.read();
        drop(g);
        v.inner.write().optimize_form();
        assert_eq!(v.vector_format(), VectorFormat::Sparse);
        assert_eq!(v.nvals(), 1);
        assert_eq!(v.get(63), Some(1));
    }

    #[test]
    fn dense_constructor() {
        let v = Vector::dense(4, 2.5).expect("dense");
        assert_eq!(v.nvals(), 4);
        assert_eq!(v.get(3), Some(2.5));
    }

    #[test]
    fn dense_set_and_remove_in_place() {
        let mut v = Vector::dense(4, 0i32).expect("dense");
        v.set_element(2, 9).expect("set");
        assert_eq!(v.get(2), Some(9));
        v.remove_element(1).expect("remove");
        assert_eq!(v.get(1), None);
        assert_eq!(v.nvals(), 3);
    }

    #[test]
    fn pattern_and_resize() {
        let mut v = Vector::from_tuples(6, vec![(0, 5), (5, 6)], |_, b| b).expect("build");
        let p = v.pattern();
        assert_eq!(p.extract_tuples(), vec![(0, true), (5, true)]);
        v.resize(3).expect("resize");
        assert_eq!(v.extract_tuples(), vec![(0, 5)]);
        assert_eq!(v.size(), 3);
    }

    #[test]
    fn out_of_bounds_errors() {
        let mut v = Vector::<i32>::new(3).expect("new");
        assert!(v.set_element(3, 1).is_err());
        assert!(v.remove_element(9).is_err());
        assert!(v.extract_element(3).is_err());
        assert!(Vector::from_tuples(3, vec![(3, 1)], |_, b| b).is_err());
    }

    #[test]
    fn clone_is_deep() {
        let mut a = Vector::from_tuples(3, vec![(0, 1)], |_, b| b).expect("build");
        let b = a.clone();
        a.set_element(0, 9).expect("set");
        assert_eq!(b.get(0), Some(1));
    }

    #[test]
    fn bitmapify_at_mid_density() {
        // 8/64 occupancy is in the bitmap band: >= 1/16 but < 1/4.
        let v = Vector::from_tuples(64, (0..8).map(|i| (i * 8, i as i32)).collect(), |_, b| b)
            .expect("build");
        assert_eq!(v.vector_format(), VectorFormat::Bitmap);
        assert_eq!(v.nvals(), 8);
        assert_eq!(v.get(16), Some(2));
        assert_eq!(v.get(17), None);
        assert_eq!(v.extract_tuples(), (0..8).map(|i| (i * 8, i as i32)).collect::<Vec<_>>());
    }

    #[test]
    fn bitmap_set_remove_in_place() {
        let mut v = Vector::from_tuples(64, (0..8).map(|i| (i * 8, 1i32)).collect(), |_, b| b)
            .expect("build");
        assert_eq!(v.vector_format(), VectorFormat::Bitmap);
        v.set_element(3, 9).expect("set new");
        v.set_element(8, 7).expect("overwrite");
        v.remove_element(16).expect("remove");
        v.remove_element(17).expect("remove absent is a no-op");
        assert_eq!(v.vector_format(), VectorFormat::Bitmap, "edits keep the form");
        assert_eq!(v.nvals(), 8);
        assert_eq!(v.get(3), Some(9));
        assert_eq!(v.get(8), Some(7));
        assert_eq!(v.get(16), None);
        assert!(v.extract_element(16).is_err());
    }

    #[test]
    fn bitmap_densifies_on_fill() {
        let mut v = Vector::from_tuples(64, (0..8).map(|i| (i * 8, 1i32)).collect(), |_, b| b)
            .expect("build");
        assert_eq!(v.vector_format(), VectorFormat::Bitmap);
        for i in 0..8 {
            v.set_element(i * 8 + 1, 2).expect("set");
        }
        // 16/64 = 1/4 occupancy crosses the densify threshold.
        v.inner.write().optimize_form();
        assert_eq!(v.vector_format(), VectorFormat::Dense);
        assert_eq!(v.nvals(), 16);
        assert_eq!(v.get(33), Some(2));
        assert_eq!(v.get(31), None);
    }

    #[test]
    fn bitmap_sparsifies_on_drain() {
        let mut v = Vector::from_tuples(64, (0..8).map(|i| (i * 8, i as i32)).collect(), |_, b| b)
            .expect("build");
        assert_eq!(v.vector_format(), VectorFormat::Bitmap);
        for i in 1..8 {
            v.remove_element(i * 8).expect("remove");
        }
        // 1/64 occupancy is below the sparsify threshold.
        v.inner.write().optimize_form();
        assert_eq!(v.vector_format(), VectorFormat::Sparse);
        assert_eq!(v.extract_tuples(), vec![(0, 0)]);
    }

    #[test]
    fn bitmap_holds_inside_hysteresis_band() {
        // 8/64 promotes sparse → bitmap; dropping to 3/64 (>= 1/32) must
        // NOT demote — that gap is the anti-thrash hysteresis.
        let mut v = Vector::from_tuples(64, (0..8).map(|i| (i * 8, 1i32)).collect(), |_, b| b)
            .expect("build");
        assert_eq!(v.vector_format(), VectorFormat::Bitmap);
        for i in 3..8 {
            v.remove_element(i * 8).expect("remove");
        }
        v.inner.write().optimize_form();
        assert_eq!(v.vector_format(), VectorFormat::Bitmap);
        assert_eq!(v.nvals(), 3);
    }

    #[test]
    fn removals_of_pending_entries_are_tombstones_not_scans() {
        // 64 k deferred insertions, then 16 k removals (of pending
        // entries, of absent positions, some re-set afterwards), one
        // assembly. Each removal used to `retain` over the whole pending
        // list — a billion steps here; a tombstone is O(1).
        let n = 1 << 24; // stays sparse: 64 k < n/16
        let mut v = Vector::<u64>::new(n).expect("new");
        let mut oracle = std::collections::BTreeMap::new();
        let at = |k: u64| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as Index;
        for k in 0..65_536u64 {
            v.set_element(at(k), k).expect("set");
            oracle.insert(at(k), k);
        }
        let t0 = std::time::Instant::now();
        for k in 0..16_384u64 {
            // Three in four hit a pending insertion, the rest nothing.
            let i = if k % 4 == 3 { at(k) ^ 1 } else { at(k * 3) };
            v.remove_element(i).expect("remove");
            oracle.remove(&i);
            if k % 8 == 0 {
                v.set_element(i, k + 1_000_000).expect("set again");
                oracle.insert(i, k + 1_000_000);
            }
            if k % 1024 == 0 {
                assert_eq!(v.get(i), oracle.get(&i).copied(), "read through the pending list");
            }
        }
        v.wait();
        let took = t0.elapsed();
        assert_eq!(v.vector_format(), VectorFormat::Sparse);
        assert_eq!(v.extract_tuples(), oracle.into_iter().collect::<Vec<_>>());
        assert!(took.as_millis() < 1500, "16 k removals + assembly took {took:?}");
    }

    #[test]
    fn view_lookup_consistency() {
        let v = Vector::from_tuples(100, (0..30).map(|i| (i * 3, i as i64)).collect(), |_, b| b)
            .expect("build");
        let g = v.read();
        let view = g.view();
        assert_eq!(view.nvals(), 30);
        assert_eq!(view.get(27), Some(9));
        assert_eq!(view.get(28), None);
        let mut count = 0;
        view.for_each(|i, x| {
            assert_eq!(i % 3, 0);
            assert_eq!(x, (i / 3) as i64);
            count += 1;
        });
        assert_eq!(count, 30);
    }
}
