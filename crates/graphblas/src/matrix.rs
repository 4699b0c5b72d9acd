//! The opaque `GrB_Matrix` object.
//!
//! A [`Matrix`] owns one of four storage forms (CSR, CSC, and their
//! hypersparse variants — §II.A) plus the deferred-update state that
//! implements the non-blocking execution model:
//!
//! * **pending tuples** — an unordered list of `(i, j, x)` insertions
//!   (and tombstones cancelling earlier ones), and
//! * **zombies** — entries tagged for deletion in place (the index is
//!   stored with its top bit flipped, exactly SuiteSparse's trick),
//!
//! both resolved by a single [`Matrix::wait`] (assembly) step: the
//! standard forms splice the netted edits straight into new arrays —
//! `O(p log p)` plus one bulk copy of the untouched rows — and a built
//! CSR dual is patched by the same splice. This is why a sequence of `e`
//! `set_element` calls costs the same as one `build` of `e` tuples
//! (reproduced by the `incremental` benchmark). [`Matrix::with_edits`]
//! writes a published matrix's successor without touching the published
//! arrays, into the layered form ([`crate::layered`]): a shared CSR base
//! plus one overlay of the rows the edits touched, so a snapshot and its
//! successor share every row the edits leave alone.
//!
//! A CSR matrix equal to its own transpose holds no second copy as its
//! dual: its rows serve.
//!
//! Reads acquire the object through an internal lock and assemble lazily,
//! so the Rust API can keep the C API's convention that reading a matrix
//! takes `&self` while still deferring updates.

use parking_lot::{RwLock, RwLockReadGuard};

use crate::compressed::CompressedMat;
use crate::error::{Error, Result};
use crate::layered::Layered;
use crate::sparse::{Cs, Hyper, MatData, RowScratch, SparseView, Tuple};
use crate::types::{Index, Scalar};

/// Zombie flag: a deleted entry keeps its slot with this bit set on its
/// minor index. Real indices are far below `1 << 63` on any supported
/// platform, so sorted order under the unflipped comparison is preserved.
pub(crate) const ZOMBIE: usize = 1usize << (usize::BITS - 1);

#[inline]
pub(crate) fn unflip(i: usize) -> usize {
    i & !ZOMBIE
}

/// One deferred write: `Some(x)` stores `x` at `(row, col)`, `None`
/// deletes whatever is there. The currency of the pending list, of
/// [`Matrix::apply_edits`] and [`Matrix::with_edits`], and of the serving
/// layer's epoch deltas.
pub type Edit<T> = (Index, Index, Option<T>);

/// Sort edits by position and keep only the last write at each one. The
/// sort is stable, so "last" means last in submission order.
pub fn net_edits<T>(edits: &mut Vec<Edit<T>>) {
    edits.sort_by_key(|&(i, j, _)| (i, j));
    edits.dedup_by(|later, earlier| {
        let same = (later.0, later.1) == (earlier.0, earlier.1);
        if same {
            // `dedup_by` drops `later`: hand its write to the survivor.
            earlier.2 = later.2.take();
        }
        same
    });
}

/// Above this major dimension a standard pointer array is considered too
/// large and the hypersparse form is used unconditionally.
const HYPER_DIM_LIMIT: usize = 1 << 22;

/// Auto-switch to hypersparse when fewer than `1/HYPER_RATIO` of the major
/// vectors are occupied (and the dimension is non-trivial).
const HYPER_RATIO: usize = 16;
const HYPER_MIN_DIM: usize = 4096;

/// Pending-tuple backlog at which a compressed matrix is eagerly
/// recompacted (re-assembled and re-encoded on the `par_chunks` pool)
/// instead of letting deferred updates pile up.
const RECOMPACT_PENDING: usize = 65536;

/// The storage format of a matrix, as reported by [`Matrix::format`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Row-major compressed (pointer array over rows).
    Csr,
    /// Column-major compressed.
    Csc,
    /// Row-major with a sparse pointer array (`O(e)` memory).
    HyperCsr,
    /// Column-major hypersparse.
    HyperCsc,
    /// Read-optimized row-major gap-encoded form ([`crate::compressed`]).
    Compressed,
}

/// Resident heap footprint of a matrix or vector, by component — what
/// [`Matrix::memory_usage`] / [`crate::Vector::memory_usage`] report and
/// the serving layer rolls up into per-replica resident-bytes gauges.
///
/// Figures are `Vec::capacity()`-based (allocated, not merely used) and
/// count the storage arrays only; the constant-size object header is
/// ignored. `total()` is the number replica sizing cares about.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryUsage {
    /// Compressed pointer arrays (CSR/CSC `ptr`, plus hypersparse
    /// `heads`).
    pub ptr_bytes: usize,
    /// Index / presence structures: minor indices for sparse forms,
    /// the packed presence words of full-length vectors.
    pub idx_bytes: usize,
    /// Stored scalar values.
    pub val_bytes: usize,
    /// Deferred-update backlog (pending tuples awaiting assembly).
    pub pending_bytes: usize,
    /// The cached transpose when dual storage is built.
    pub dual_bytes: usize,
}

impl MemoryUsage {
    /// Total resident bytes across all components.
    pub fn total(&self) -> usize {
        self.ptr_bytes + self.idx_bytes + self.val_bytes + self.pending_bytes + self.dual_bytes
    }
}

impl std::ops::Add for MemoryUsage {
    type Output = MemoryUsage;
    fn add(self, rhs: MemoryUsage) -> MemoryUsage {
        MemoryUsage {
            ptr_bytes: self.ptr_bytes + rhs.ptr_bytes,
            idx_bytes: self.idx_bytes + rhs.idx_bytes,
            val_bytes: self.val_bytes + rhs.val_bytes,
            pending_bytes: self.pending_bytes + rhs.pending_bytes,
            dual_bytes: self.dual_bytes + rhs.dual_bytes,
        }
    }
}

fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

fn cs_bytes<T>(c: &Cs<T>) -> (usize, usize, usize) {
    (vec_bytes(&c.ptr), vec_bytes(&c.idx), vec_bytes(&c.val))
}

fn hyper_bytes<T>(h: &Hyper<T>) -> (usize, usize, usize) {
    (vec_bytes(&h.ptr) + vec_bytes(&h.heads), vec_bytes(&h.idx), vec_bytes(&h.val))
}

/// Internal storage: the four forms of §II.A.
// The compressed variant is bigger than the CSR structs, but Store lives
// behind `Inner`'s lock, one per matrix — never in bulk arrays — so
// boxing it would buy nothing and cost an indirection on every kernel.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum Store<T> {
    Csr(Cs<T>),
    Csc(Cs<T>),
    HyperCsr(Hyper<T>),
    HyperCsc(Hyper<T>),
    /// Row-major gap-encoded read-optimized form. Always assembled
    /// (zombies never exist here; writes go through pending tuples).
    CompressedCsr(CompressedMat<T>),
    /// Row-major CSR as a shared base plus a replacement-row overlay, what
    /// [`Matrix::with_edits`] publishes. Read-only: every write folds it
    /// back to `Csr` first, so it never holds zombies or pending tuples.
    Layered(Layered<T>),
}

impl<T: Scalar> Store<T> {
    fn empty_row_major(nrows: Index, ncols: Index) -> Self {
        if nrows > HYPER_DIM_LIMIT {
            Store::HyperCsr(Hyper::empty(nrows, ncols))
        } else {
            Store::Csr(Cs::empty(nrows, ncols))
        }
    }

    /// Choose standard vs hypersparse for a row-major result with the given
    /// number of occupied rows.
    pub(crate) fn row_major_from_vecs(
        nrows: Index,
        ncols: Index,
        vecs: Vec<(Index, Vec<Index>, Vec<T>)>,
    ) -> Self {
        if Self::wants_hyper(nrows, vecs.len()) {
            Store::HyperCsr(Hyper::from_vecs(nrows, ncols, vecs))
        } else {
            Store::Csr(Cs::from_vecs(nrows, ncols, vecs))
        }
    }

    /// The same choice for a result that arrives as flat CSR arrays with
    /// `nvec` occupied rows.
    pub(crate) fn row_major_from_cs(cs: Cs<T>, nvec: usize) -> Self {
        if Self::wants_hyper(cs.nmajor, nvec) {
            Store::HyperCsr(cs.to_hyper())
        } else {
            Store::Csr(cs)
        }
    }

    fn wants_hyper(nrows: Index, nvec: usize) -> bool {
        nrows > HYPER_DIM_LIMIT || (nrows > HYPER_MIN_DIM && nvec < nrows / HYPER_RATIO)
    }

    fn nvals_raw(&self) -> usize {
        match self {
            Store::Csr(c) | Store::Csc(c) => c.idx.len(),
            Store::HyperCsr(h) | Store::HyperCsc(h) => h.idx.len(),
            Store::CompressedCsr(c) => c.nvals(),
            Store::Layered(l) => l.nvals(),
        }
    }

    /// `(row, col)` in this store's (major, minor) order.
    fn major_minor(&self, i: Index, j: Index) -> (Index, Index) {
        match self {
            Store::Csr(_) | Store::HyperCsr(_) | Store::CompressedCsr(_) | Store::Layered(_) => {
                (i, j)
            }
            Store::Csc(_) | Store::HyperCsc(_) => (j, i),
        }
    }

    /// Position in the index/value arrays of the slot (live or zombie) of
    /// `(maj, min)`: a zombie-aware binary search within one major
    /// vector. `None` when there is no slot — always, for the immutable
    /// compressed form.
    fn slot(&self, maj: Index, min: Index) -> Option<usize> {
        let (idx, a, b) = match self {
            Store::Csr(c) | Store::Csc(c) => (&c.idx, c.ptr[maj], c.ptr[maj + 1]),
            Store::HyperCsr(h) | Store::HyperCsc(h) => {
                let k = h.heads.binary_search(&maj).ok()?;
                (&h.idx, h.ptr[k], h.ptr[k + 1])
            }
            Store::CompressedCsr(_) => return None,
            Store::Layered(_) => unreachable!("writes fold the layered form first"),
        };
        idx[a..b].binary_search_by_key(&min, |&x| unflip(x)).ok().map(|off| a + off)
    }

    /// The live (non-zombie) stored entry at `(maj, min)`.
    fn get(&self, maj: Index, min: Index) -> Option<T> {
        let (idx, val) = match self {
            Store::Csr(c) | Store::Csc(c) => (&c.idx, &c.val),
            Store::HyperCsr(h) | Store::HyperCsc(h) => (&h.idx, &h.val),
            Store::CompressedCsr(c) => return SparseView::get(c, maj, min),
            Store::Layered(l) => return SparseView::get(l, maj, min),
        };
        self.slot(maj, min).filter(|&p| idx[p] & ZOMBIE == 0).map(|p| val[p])
    }

    /// The index and value arrays [`Store::slot`] positions point into.
    fn arrays(&mut self) -> (&mut [Index], &mut [T]) {
        match self {
            Store::Csr(c) | Store::Csc(c) => (&mut c.idx, &mut c.val),
            Store::HyperCsr(h) | Store::HyperCsc(h) => (&mut h.idx, &mut h.val),
            Store::CompressedCsr(_) => unreachable!("the compressed form has no slots"),
            Store::Layered(_) => unreachable!("writes fold the layered form first"),
        }
    }
}

/// A built dual: the transpose that kernels read through [`dual_of`].
// One per matrix, like `Store`: the size skew costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum Dual<T> {
    /// The matrix is plain or layered CSR and equals its own transpose bit for bit
    /// (`sparse::is_symmetric`), so its rows are the transpose: no second
    /// copy. Any write drops this state and the next read decides again;
    /// [`Matrix::with_edits`] keeps it under netted edits that equal their
    /// own transpose.
    Rows,
    /// A second copy of the transpose, in row-major form.
    Copy(MatData<T>),
}

/// The assembled + deferred state of a matrix.
#[derive(Debug, Clone)]
pub(crate) struct Inner<T> {
    pub nrows: Index,
    pub ncols: Index,
    pub store: Store<T>,
    /// Unordered writes awaiting assembly, as `(row, col, _)`; later
    /// entries win. Outside the compressed form only positions without a
    /// slot in `store` appear here: insertions, and the tombstones of
    /// deletions that may cancel one.
    pub pending: Vec<Edit<T>>,
    /// Number of zombie entries in `store`.
    pub nzombies: usize,
    /// The major of every zombie planted since the last assembly
    /// (unsorted, repeats allowed): where the splice must look for them.
    pub zombie_majors: Vec<Index>,
    /// When dual storage is enabled (§II.E: GraphBLAST keeps "two copies
    /// of each GrB_Matrix object" for push/pull), the cached transpose;
    /// `None` until a kernel read builds it. A write marks a CSR copy stale
    /// by logging itself in `dual_edits`, and assembly patches the copy
    /// with the log; any other dual is dropped and rebuilt lazily.
    pub dual: Option<Dual<T>>,
    /// Writes since `dual` was last exact, as `(col, row, _)`.
    pub dual_edits: Vec<Edit<T>>,
    /// Whether the performance-oriented dual storage is requested.
    pub dual_enabled: bool,
    /// Whether this matrix opts into the compressed read-optimized form
    /// (see [`Matrix::set_compressed`]).
    pub compress_enabled: bool,
}

/// Borrow the row-major storage of an assembled `Inner` as a dynamic view.
pub(crate) fn rows_of<T: Scalar>(inner: &Inner<T>) -> &dyn crate::sparse::SparseView<T> {
    match &inner.store {
        Store::Csr(cs) => cs,
        Store::HyperCsr(h) => h,
        Store::CompressedCsr(c) => c,
        Store::Layered(l) => l,
        _ => unreachable!("operand not assembled to row-major form"),
    }
}

/// Borrow the cached transpose (column access), if dual storage is built:
/// the copy, or the rows themselves for a matrix that is its own.
pub(crate) fn dual_of<T: Scalar>(inner: &Inner<T>) -> Option<&dyn crate::sparse::SparseView<T>> {
    match inner.dual.as_ref()? {
        Dual::Rows => Some(rows_of(inner)),
        Dual::Copy(d) => Some(d.view()),
    }
}

/// A kernel operand under the descriptor's transpose flag, resolved from
/// the read guard (`Matrix::read_rows`): the rows as stored, or — on the
/// flag — the dual the guard holds, which `read_rows` has made exact.
/// Only a matrix without a dual is transposed here, for this one call.
// One per operand, on a kernel's stack: the size skew costs nothing.
#[allow(clippy::large_enum_variant)]
pub(crate) enum EffView<'a, T: Scalar> {
    Borrowed(&'a dyn SparseView<T>),
    Transposed(MatData<T>),
}

impl<'a, T: Scalar> EffView<'a, T> {
    pub fn new(inner: &'a Inner<T>, transpose: bool) -> Self {
        match (transpose, dual_of(inner)) {
            (false, _) => EffView::Borrowed(rows_of(inner)),
            (true, Some(dual)) => EffView::Borrowed(dual),
            (true, None) => EffView::Transposed(crate::sparse::transpose_dyn(rows_of(inner))),
        }
    }

    pub fn view(&self) -> &dyn SparseView<T> {
        match self {
            EffView::Borrowed(v) => *v,
            EffView::Transposed(d) => d.view(),
        }
    }
}

impl<T: Scalar> Inner<T> {
    pub(crate) fn needs_assembly(&self) -> bool {
        !self.pending.is_empty() || self.nzombies > 0 || !self.dual_edits.is_empty()
    }

    /// Resident bytes of the current state (storage form + deferred
    /// updates + dual copy), without forcing assembly.
    pub(crate) fn memory_usage(&self) -> MemoryUsage {
        let (ptr_bytes, idx_bytes, val_bytes) = match &self.store {
            Store::Csr(c) | Store::Csc(c) => cs_bytes(c),
            Store::HyperCsr(h) | Store::HyperCsc(h) => hyper_bytes(h),
            Store::CompressedCsr(c) => c.section_bytes(),
            Store::Layered(l) => l.section_bytes(),
        };
        let dual_bytes = match &self.dual {
            None | Some(Dual::Rows) => 0,
            Some(Dual::Copy(MatData::Cs(c))) => {
                let (p, i, v) = cs_bytes(c);
                p + i + v
            }
            Some(Dual::Copy(MatData::Hyper(h))) => {
                let (p, i, v) = hyper_bytes(h);
                p + i + v
            }
            Some(Dual::Copy(MatData::Compressed(c))) => c.bytes(),
            Some(Dual::Copy(MatData::Layered(l))) => {
                let (p, i, v) = l.section_bytes();
                p + i + v
            }
        };
        MemoryUsage {
            ptr_bytes,
            idx_bytes,
            val_bytes,
            pending_bytes: vec_bytes(&self.pending) + vec_bytes(&self.dual_edits),
            dual_bytes,
        }
    }

    /// Forget the cached transpose and the writes logged against it.
    fn drop_dual(&mut self) {
        self.dual = None;
        self.dual_edits.clear();
    }

    /// Resolve zombies and pending writes. The standard forms cost
    /// `O(p log p)` to net the writes plus one bulk copy of the arrays
    /// ([`splice`]); the hypersparse forms merge tuple streams in `O(e)`.
    /// An empty CSR matrix whose writes are all inserts is built from them
    /// instead ([`Inner::build_from`], `dup` = last write wins): its first
    /// assembly costs what `GrB_Matrix_build` costs.
    pub(crate) fn assemble(&mut self) {
        if !self.needs_assembly() {
            return;
        }
        let mut span = crate::trace::assemble_span(
            crate::trace::Op::AssembleMatrix,
            self.pending.len(),
            self.nzombies,
        );
        // The cached transpose takes the same writes, transposed, through
        // the same splice (only a CSR dual survives a write to get here).
        let mut dual_edits = std::mem::take(&mut self.dual_edits);
        if let Some(Dual::Copy(MatData::Cs(d))) = &mut self.dual {
            net_edits(&mut dual_edits);
            *d = splice(d, &dual_edits, &[]);
        }
        if !self.pending.is_empty() || self.nzombies > 0 {
            // The compressed form is read-only: expand it to CSR, splice,
            // and re-encode below. This *is* recompaction.
            if let Store::CompressedCsr(cm) = &self.store {
                let cs = cm.decode();
                self.store = Store::Csr(cs);
            }
            // Pending writes are (row, col); the store wants (major, minor).
            let mut pend = std::mem::take(&mut self.pending);
            let empty_csr = matches!(&self.store, Store::Csr(cs) if cs.idx.is_empty());
            if empty_csr && pend.iter().all(|e| e.2.is_some()) {
                let inserts = pend.into_iter().filter_map(|(i, j, x)| Some((i, j, x?))).collect();
                self.build_from(inserts, |_, last| last);
            } else {
                if matches!(self.store, Store::Csc(_) | Store::HyperCsc(_)) {
                    for e in &mut pend {
                        std::mem::swap(&mut e.0, &mut e.1);
                    }
                }
                net_edits(&mut pend);
                let mut zombie_majors = std::mem::take(&mut self.zombie_majors);
                zombie_majors.sort_unstable();
                self.nzombies = 0;
                match &mut self.store {
                    Store::Csr(cs) | Store::Csc(cs) => *cs = splice(cs, &pend, &zombie_majors),
                    Store::HyperCsr(h) | Store::HyperCsc(h) => *h = splice_hyper(h, &pend),
                    Store::CompressedCsr(_) => unreachable!("expanded to CSR above"),
                    Store::Layered(_) => unreachable!("writes fold the layered form first"),
                }
                self.maybe_hypersparse();
                self.maybe_compress();
            }
        }
        if span.on() {
            span.arg("resident_bytes", self.memory_usage().total() as u64);
        }
    }

    /// Replace the store with one built from `tuples` (row, col, value),
    /// folding duplicates with `dup(existing, incoming)`, and record a
    /// `build` span naming the path [`Cs::build`] took.
    fn build_from(&mut self, tuples: Vec<Tuple<T>>, dup: impl FnMut(T, T) -> T) {
        let mut span = crate::trace::op_span(crate::trace::Op::Build);
        span.arg("nvals_in", tuples.len());
        let (nrows, ncols) = (self.nrows, self.ncols);
        let (store, path) = if nrows > HYPER_DIM_LIMIT {
            (Store::HyperCsr(Hyper::from_tuples(nrows, ncols, tuples, dup)), "sort")
        } else {
            let (cs, path) = Cs::build(nrows, ncols, tuples, dup);
            (Store::Csr(cs), path)
        };
        self.store = store;
        span.arg("nvals", self.store.nvals_raw());
        span.arg("path", path);
        self.maybe_hypersparse();
        self.maybe_compress();
    }

    /// Re-encode assembled standard CSR into the compressed form when the
    /// matrix opted in. Values that don't survive the exact round-trip
    /// leave the matrix in CSR (with a one-time warning).
    pub(crate) fn maybe_compress(&mut self) {
        if !self.compress_enabled {
            return;
        }
        if let Store::Csr(cs) = &self.store {
            match CompressedMat::encode(cs) {
                Some(cm) => self.store = Store::CompressedCsr(cm),
                None => crate::trace::warn_once(
                    "compress_lossy_values",
                    "compressed storage requested but values are not exactly \
                     representable; matrix stays CSR",
                ),
            }
        }
    }

    /// Convert between standard and hypersparse automatically after
    /// assembly, mirroring SuiteSparse's "exploits hypersparsity
    /// automatically" behaviour.
    fn maybe_hypersparse(&mut self) {
        let nvals = self.store.nvals_raw();
        match &self.store {
            Store::Layered(l) if l.nmajor() > HYPER_MIN_DIM && nvals < l.nmajor() / HYPER_RATIO => {
                self.store = Store::HyperCsr(l.fold().to_hyper());
            }
            Store::Csr(cs) if cs.nmajor > HYPER_MIN_DIM && nvals < cs.nmajor / HYPER_RATIO => {
                if let Store::Csr(cs) =
                    std::mem::replace(&mut self.store, Store::Csr(Cs::empty(1, 1)))
                {
                    self.store = Store::HyperCsr(cs.to_hyper());
                }
            }
            Store::Csc(cs) if cs.nmajor > HYPER_MIN_DIM && nvals < cs.nmajor / HYPER_RATIO => {
                if let Store::Csc(cs) =
                    std::mem::replace(&mut self.store, Store::Csr(Cs::empty(1, 1)))
                {
                    self.store = Store::HyperCsc(cs.to_hyper());
                }
            }
            _ => {}
        }
    }

    /// Convert (assembled) storage to row-major, transposing if needed.
    pub(crate) fn ensure_row_major(&mut self) {
        debug_assert!(!self.needs_assembly());
        let placeholder = Store::Csr(Cs::empty(1, 1));
        match &self.store {
            Store::Csr(_) | Store::HyperCsr(_) | Store::CompressedCsr(_) | Store::Layered(_) => {}
            Store::Csc(_) => {
                if let Store::Csc(cs) = std::mem::replace(&mut self.store, placeholder) {
                    self.store = Store::Csr(cs.transpose());
                }
            }
            Store::HyperCsc(_) => {
                if let Store::HyperCsc(h) = std::mem::replace(&mut self.store, placeholder) {
                    self.store = Store::HyperCsr(h.transpose());
                }
            }
        }
    }

    pub(crate) fn nvals_assembled(&self) -> usize {
        debug_assert!(!self.needs_assembly());
        self.store.nvals_raw()
    }

    /// Flatten the layered form — the store, and a dual copy held layered
    /// — into plain CSR. Every write path runs this first, so pending
    /// tuples and zombies only ever live on slotted arrays.
    fn fold_layers(&mut self) {
        if let Store::Layered(l) = &self.store {
            self.store = Store::Csr(l.fold());
        }
        if let Some(Dual::Copy(MatData::Layered(d))) = &self.dual {
            self.dual = Some(Dual::Copy(MatData::Cs(d.fold())));
        }
    }

    /// Mark the cached transpose stale by one write: a CSR copy is
    /// patched with the logged writes at assembly, any other dual — the
    /// rows themselves included, since one write may break the symmetry —
    /// is dropped now and rebuilt by the next kernel read.
    fn stale_dual(&mut self, i: Index, j: Index, x: Option<T>) {
        match self.dual {
            Some(Dual::Copy(MatData::Cs(_))) => self.dual_edits.push((j, i, x)),
            _ => self.dual = None,
        }
    }

    /// The dual a kernel read builds: the rows themselves when the store
    /// is plain or layered CSR and passes the symmetry walk, else a
    /// transposed copy (encoded too under compression, or dual storage
    /// would forfeit half the savings).
    fn build_dual(&self) -> Dual<T> {
        if self.symmetric() == Some(true) {
            return Dual::Rows;
        }
        let mut d = crate::sparse::transpose_dyn(rows_of(self));
        if self.compress_enabled {
            if let MatData::Cs(cs) = &d {
                if let Some(cm) = CompressedMat::encode(cs) {
                    d = MatData::Compressed(cm);
                }
            }
        }
        Dual::Copy(d)
    }

    /// The symmetry walk ([`crate::sparse::is_symmetric`]) over plain or
    /// layered CSR; `None` for every other form.
    fn symmetric(&self) -> Option<bool> {
        match &self.store {
            Store::Csr(cs) => Some(crate::sparse::is_symmetric(cs)),
            Store::Layered(l) => Some(crate::sparse::is_symmetric(l)),
            _ => None,
        }
    }

    fn check_bounds(&self, i: Index, j: Index) -> Result<()> {
        if i >= self.nrows {
            return Err(Error::oob(i, self.nrows));
        }
        if j >= self.ncols {
            return Err(Error::oob(j, self.ncols));
        }
        Ok(())
    }

    /// The `set_element` write path, shared by the exclusive (`&mut self`)
    /// and lock-taking (`&self`) public entry points.
    fn set_element_inner(&mut self, i: Index, j: Index, x: T) -> Result<()> {
        self.check_bounds(i, j)?;
        self.fold_layers();
        self.stale_dual(i, j, Some(x));
        let (maj, min) = self.store.major_minor(i, j);
        match self.store.slot(maj, min) {
            // An existing slot is updated in place, resurrecting a zombie.
            Some(p) => {
                let (idx, val) = self.store.arrays();
                if idx[p] & ZOMBIE != 0 {
                    idx[p] = min;
                    self.nzombies -= 1;
                    if self.nzombies == 0 {
                        self.zombie_majors.clear();
                    }
                }
                val[p] = x;
            }
            // No slot (never one in the immutable compressed form): the
            // write defers, and last-write-wins netting resolves it.
            None => self.pending.push((i, j, Some(x))),
        }
        // Recompaction: don't let the write backlog dwarf the compressed
        // form's savings — rebuild it eagerly past the threshold.
        if matches!(self.store, Store::CompressedCsr(_)) && self.pending.len() >= RECOMPACT_PENDING
        {
            self.assemble();
        }
        Ok(())
    }

    /// The `remove_element` write path, shared by both public entry points.
    fn remove_element_inner(&mut self, i: Index, j: Index) -> Result<()> {
        self.check_bounds(i, j)?;
        self.fold_layers();
        self.stale_dual(i, j, None);
        let (maj, min) = self.store.major_minor(i, j);
        match self.store.slot(maj, min) {
            Some(p) => {
                let (idx, _) = self.store.arrays();
                if idx[p] & ZOMBIE == 0 {
                    idx[p] |= ZOMBIE;
                    self.nzombies += 1;
                    self.zombie_majors.push(maj);
                }
            }
            // No slot to plant a zombie in. What may sit here is a pending
            // insertion or, in the read-only compressed form, a stored
            // entry: a tombstone cancels either at assembly, in O(1) now.
            None => {
                let stored =
                    matches!(&self.store, Store::CompressedCsr(c) if c.get(i, j).is_some());
                if stored || !self.pending.is_empty() {
                    self.pending.push((i, j, None));
                }
            }
        }
        Ok(())
    }
}

/// The one merge of assembly: stored entries as `(key, live, value)`
/// against netted edits as `(key, write)`, both sorted by key. An edit
/// replaces or deletes the stored entry with its key; zombies (`!live`)
/// are dropped.
pub(crate) fn merge_edits<K: Ord + Copy, T: Copy>(
    stored: impl Iterator<Item = (K, bool, T)>,
    edits: impl Iterator<Item = (K, Option<T>)>,
    mut emit: impl FnMut(K, T),
) {
    let mut edits = edits.peekable();
    let mut write = |(k, x): (K, Option<T>)| {
        if let Some(x) = x {
            emit(k, x);
        }
    };
    for (k, live, x) in stored {
        while let Some(e) = edits.next_if(|e| e.0 < k) {
            write(e);
        }
        match edits.next_if(|e| e.0 == k) {
            Some(e) => write(e),
            None => write((k, live.then_some(x))),
        }
    }
    edits.for_each(write);
}

/// Whether two netted edit lists write the same positions with the same
/// bits ([`Scalar::same_bits`]). Given a list and its transpose, whether
/// the writes keep a symmetric matrix symmetric.
fn same_edits<T: Scalar>(a: &[Edit<T>], b: &[Edit<T>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(&(i, j, x), &(k, l, y))| {
            (i, j) == (k, l)
                && match (x, y) {
                    (Some(x), Some(y)) => x.same_bits(y),
                    (x, y) => x.is_none() && y.is_none(),
                }
        })
}

/// Row `row` of `cs` (zombie flags still set) merged with its edits.
fn merge_row<T: Scalar>(cs: &Cs<T>, row: Index, edits: &[Edit<T>], emit: impl FnMut(Index, T)) {
    let at = cs.ptr[row]..cs.ptr[row + 1];
    merge_edits(
        cs.idx[at.clone()].iter().zip(&cs.val[at]).map(|(&j, &x)| (unflip(j), j & ZOMBIE == 0, x)),
        edits.iter().map(|&(_, j, x)| (j, x)),
        emit,
    );
}

/// Assembly of a standard form, array to array: `cs` with the netted,
/// major-sorted `edits` applied and the zombies in the (sorted) rows
/// `zombie_majors` dropped. Only rows named by either are merged; their
/// new sizes are counted first, the row pointers follow
/// ([`resized_ptr`]), and the fill ([`bulk_fill`]) copies every run of
/// untouched rows in bulk.
fn splice<T: Scalar>(cs: &Cs<T>, edits: &[Edit<T>], zombie_majors: &[Index]) -> Cs<T> {
    // The touched rows, in order, with their range of `edits` and their
    // new length.
    let (mut rows, mut ranges, mut lens) = (Vec::new(), Vec::new(), Vec::new());
    let (mut e, mut z) = (0, 0);
    while e < edits.len() || z < zombie_majors.len() {
        let row = match (edits.get(e), zombie_majors.get(z)) {
            (Some(edit), Some(&zrow)) => edit.0.min(zrow),
            (Some(edit), None) => edit.0,
            (None, Some(&zrow)) => zrow,
            (None, None) => unreachable!("loop condition"),
        };
        let start = e;
        e += edits[e..].partition_point(|edit| edit.0 == row);
        z += zombie_majors[z..].partition_point(|&zrow| zrow == row);
        let mut len = 0;
        merge_row(cs, row, &edits[start..e], |_, _| len += 1);
        rows.push(row);
        ranges.push(start..e);
        lens.push(len);
    }
    let ptr = resized_ptr(&cs.ptr, rows.iter().copied().zip(lens));
    let (idx, val) = bulk_fill(cs, &ptr, &rows, |k, idx, val| {
        merge_row(cs, rows[k], &edits[ranges[k].clone()], |j, x| {
            idx.push(j);
            val.push(x);
        });
    });
    Cs { nmajor: cs.nmajor, nminor: cs.nminor, ptr, idx, val }
}

/// The row pointers of `ptr` with the ascending `touched` rows resized to
/// their new lengths: every old pointer moves by the net growth of the
/// touched rows before it (a wrapping offset: rows shrink as well as
/// grow).
pub(crate) fn resized_ptr(
    ptr: &[usize],
    touched: impl IntoIterator<Item = (Index, usize)>,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(ptr.len());
    out.push(0);
    let (mut from, mut shift) = (0, 0usize);
    for (row, len) in touched {
        out.extend(ptr[from + 1..=row].iter().map(|&p| p.wrapping_add(shift)));
        shift = shift.wrapping_add(len).wrapping_sub(ptr[row + 1] - ptr[row]);
        out.push(ptr[row + 1].wrapping_add(shift));
        from = row + 1;
    }
    out.extend(ptr[from + 1..].iter().map(|&p| p.wrapping_add(shift)));
    out
}

/// The capacity a result of `n` entries is allocated with: `n` rounded up
/// to a power of two between n/64 and n/32. Each publish that folds
/// replaces the arrays of the one before while those are still alive, and
/// a graph that keeps growing asks for a little more each time, so with
/// exact sizes no freed block ever fits the next fold's arrays and the
/// heap takes one adjacency array more at intervals that depend on thread
/// timing. In steps, successive folds ask for the same size and reuse the
/// block their predecessor's predecessor freed (EXPERIMENTS.md §P39).
fn stepped(n: usize) -> usize {
    n.next_multiple_of((n >> 6).next_power_of_two())
}

/// The index and value arrays of the CSR with row pointers `ptr` that
/// holds `cs`'s rows, except the ascending `touched` rows: `write(k, ..)`
/// appends row `touched[k]`. Chunked by row range — so the result is the
/// same at any thread count — and every run of untouched rows between two
/// touched ones is one bulk copy.
pub(crate) fn bulk_fill<T: Scalar>(
    cs: &Cs<T>,
    ptr: &[usize],
    touched: &[Index],
    write: impl Fn(usize, &mut Vec<Index>, &mut Vec<T>) + Sync,
) -> (Vec<Index>, Vec<T>) {
    let total = ptr[cs.nmajor];
    let chunks = crate::parallel::par_chunks(cs.nmajor, total, |r| {
        // The first chunk's arrays become the result: size them for it.
        let cap = if r.start == 0 { stepped(total) } else { ptr[r.end] - ptr[r.start] };
        let (mut idx, mut val) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
        let mut from = r.start;
        let first = touched.partition_point(|&t| t < r.start);
        let mine = &touched[first..touched.partition_point(|&t| t < r.end)];
        for (k, &row) in (first..).zip(mine) {
            let untouched = cs.ptr[from]..cs.ptr[row];
            idx.extend_from_slice(&cs.idx[untouched.clone()]);
            val.extend_from_slice(&cs.val[untouched]);
            write(k, &mut idx, &mut val);
            from = row + 1;
        }
        let untouched = cs.ptr[from]..cs.ptr[r.end];
        idx.extend_from_slice(&cs.idx[untouched.clone()]);
        val.extend_from_slice(&cs.val[untouched]);
        (idx, val)
    });
    let mut chunks = chunks.into_iter();
    let (mut idx, mut val) = chunks.next().unwrap_or_default();
    for (ci, cv) in chunks {
        idx.extend_from_slice(&ci);
        val.extend_from_slice(&cv);
    }
    (idx, val)
}

/// Assembly of a hypersparse form: the stored tuples (zombie flags still
/// set) merged with the netted edits, chunked over the major domain —
/// each worker binary-searches its slice of both streams, so major
/// ranges never overlap. No per-major array is ever built: the major
/// dimension can be astronomically larger than the entry count.
fn splice_hyper<T: Scalar>(h: &Hyper<T>, edits: &[Edit<T>]) -> Hyper<T> {
    let old = h.tuples();
    let chunks = crate::parallel::par_chunks(h.nmajor, old.len() + edits.len(), |r| {
        let old =
            &old[old.partition_point(|t| t.0 < r.start)..old.partition_point(|t| t.0 < r.end)];
        let edits = &edits
            [edits.partition_point(|t| t.0 < r.start)..edits.partition_point(|t| t.0 < r.end)];
        let mut out = Vec::with_capacity(old.len() + edits.len());
        merge_edits(
            old.iter().map(|&(i, j, x)| ((i, unflip(j)), j & ZOMBIE == 0, x)),
            edits.iter().map(|&(i, j, x)| ((i, j), x)),
            |(i, j), x| out.push((i, j, x)),
        );
        out
    });
    from_sorted_tuples_hyper(h.nmajor, h.nminor, chunks.into_iter().flatten().collect())
}

/// Rebuild a `Cs` from sorted, deduplicated, zombie-free tuples in O(e).
fn from_sorted_tuples_cs<T: Scalar>(nmajor: Index, nminor: Index, tuples: Vec<Tuple<T>>) -> Cs<T> {
    let mut ptr = vec![0usize; nmajor + 1];
    let mut idx = Vec::with_capacity(tuples.len());
    let mut val = Vec::with_capacity(tuples.len());
    for (i, j, x) in tuples {
        ptr[i + 1] += 1;
        idx.push(j);
        val.push(x);
    }
    for i in 0..nmajor {
        ptr[i + 1] += ptr[i];
    }
    Cs { nmajor, nminor, ptr, idx, val }
}

fn from_sorted_tuples_hyper<T: Scalar>(
    nmajor: Index,
    nminor: Index,
    tuples: Vec<Tuple<T>>,
) -> Hyper<T> {
    let mut heads = Vec::new();
    let mut ptr = vec![0usize];
    let mut idx = Vec::with_capacity(tuples.len());
    let mut val = Vec::with_capacity(tuples.len());
    for (i, j, x) in tuples {
        if heads.last() != Some(&i) {
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

/// An opaque GraphBLAS matrix over the scalar domain `T`.
///
/// The data structure inside is free to change form (the C API's opacity
/// principle); inspect it with [`Matrix::format`], and move data across the
/// API boundary with the O(1) import/export routines.
#[derive(Debug)]
pub struct Matrix<T: Scalar> {
    pub(crate) inner: RwLock<Inner<T>>,
}

impl<T: Scalar> Clone for Matrix<T> {
    fn clone(&self) -> Self {
        Matrix { inner: RwLock::new(self.inner.read().clone()) }
    }
}

impl<T: Scalar> Matrix<T> {
    /// Create an empty `nrows × ncols` matrix (`GrB_Matrix_new`). Both
    /// dimensions must be at least 1; enormous dimensions are fine — the
    /// hypersparse form is selected automatically.
    pub fn new(nrows: Index, ncols: Index) -> Result<Self> {
        if nrows == 0 || ncols == 0 {
            return Err(Error::invalid("matrix dimensions must be >= 1"));
        }
        Ok(Matrix::from_store(nrows, ncols, Store::empty_row_major(nrows, ncols)))
    }

    /// Create and build in one step (`GrB_Matrix_build` on a fresh matrix).
    /// Duplicates are combined with `dup(existing, incoming)`.
    pub fn from_tuples(
        nrows: Index,
        ncols: Index,
        tuples: Vec<Tuple<T>>,
        dup: impl FnMut(T, T) -> T,
    ) -> Result<Self> {
        let mut m = Matrix::new(nrows, ncols)?;
        m.build(tuples, dup)?;
        Ok(m)
    }

    /// Populate an empty matrix from tuples (`GrB_Matrix_build`). Returns
    /// an error if the matrix already has entries, mirroring
    /// `GrB_OUTPUT_NOT_EMPTY`.
    ///
    /// Duplicates are folded with `dup(existing, incoming)` left to right
    /// in input order. Tuples already in `(row, col)` order are folded
    /// with no sort. Otherwise, with at least `nrows / 3` tuples, they are
    /// counted by row and scattered into row buckets in input order,
    /// `O(e + nrows)`, and each row is then sorted by column on the worker
    /// pool. Fewer tuples, or more than 2^22 rows (the hypersparse form),
    /// take a stable comparison sort. The result is bit-identical at any thread count.
    /// A traced build records a `build` span with `nvals_in`, `nvals` and
    /// `path` (`sorted` | `bucket` | `sort`).
    pub fn build(&mut self, tuples: Vec<Tuple<T>>, dup: impl FnMut(T, T) -> T) -> Result<()> {
        let inner = self.inner.get_mut();
        if inner.store.nvals_raw() != 0 || !inner.pending.is_empty() {
            return Err(Error::invalid("build requires an empty matrix"));
        }
        for &(i, j, _) in &tuples {
            if i >= inner.nrows {
                return Err(Error::oob(i, inner.nrows));
            }
            if j >= inner.ncols {
                return Err(Error::oob(j, inner.ncols));
            }
        }
        inner.drop_dual();
        inner.build_from(tuples, dup);
        Ok(())
    }

    /// Number of rows.
    pub fn nrows(&self) -> Index {
        self.inner.read().nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> Index {
        self.inner.read().ncols
    }

    /// Number of stored entries (`GrB_Matrix_nvals`). Forces completion of
    /// deferred updates, as the C API requires.
    pub fn nvals(&self) -> usize {
        self.read().nvals_assembled()
    }

    /// The current storage format. The layered form of
    /// [`Matrix::with_edits`] is row-major CSR with some rows replaced,
    /// and reports [`Format::Csr`].
    pub fn format(&self) -> Format {
        match &self.inner.read().store {
            Store::Csr(_) | Store::Layered(_) => Format::Csr,
            Store::Csc(_) => Format::Csc,
            Store::HyperCsr(_) => Format::HyperCsr,
            Store::HyperCsc(_) => Format::HyperCsc,
            Store::CompressedCsr(_) => Format::Compressed,
        }
    }

    /// Resident heap footprint of the matrix, by component: storage
    /// arrays of the current form, pending-tuple backlog, and the dual
    /// (cached transpose) copy when built. Does **not** force assembly —
    /// it reports the state as it sits, so the serving layer can poll it
    /// from a gauge without perturbing the deferred-update machinery.
    pub fn memory_usage(&self) -> MemoryUsage {
        self.inner.read().memory_usage()
    }

    /// Force completion of all deferred updates (`GrB_Matrix_wait`).
    pub fn wait(&self) {
        let mut g = self.inner.write();
        g.assemble();
    }

    /// Set one entry (`GrB_Matrix_setElement`). If the position already
    /// holds an entry it is updated in place (resurrecting a zombie if
    /// necessary); otherwise the insertion is deferred as a pending tuple —
    /// this is what makes incremental construction fast (§II.A).
    ///
    /// # Example
    ///
    /// A stream of `set_element` calls costs one assembly, not one sort per
    /// call — the paper's headline incremental-update claim:
    ///
    /// ```
    /// use graphblas::Matrix;
    ///
    /// let mut m = Matrix::<f64>::new(4, 4)?;
    /// m.set_element(0, 1, 2.5)?;          // deferred as a pending tuple
    /// m.set_element(3, 2, 1.0)?;
    /// m.set_element(0, 1, 3.5)?;          // last write wins
    /// assert_eq!(m.get(0, 1), Some(3.5)); // visible even before assembly
    /// assert_eq!(m.nvals(), 2);           // nvals() forces the one assembly
    /// # Ok::<(), graphblas::Error>(())
    /// ```
    pub fn set_element(&mut self, i: Index, j: Index, x: T) -> Result<()> {
        self.inner.get_mut().set_element_inner(i, j, x)
    }

    /// Thread-safe [`Matrix::set_element`]: takes `&self` and acquires the
    /// internal write lock, so concurrent writers (and concurrent
    /// [`Matrix::wait`] / reader-triggered assemblies) serialize safely.
    /// The deferred-update semantics are identical — the write lands as a
    /// pending tuple or an in-place update and is resolved by the next
    /// assembly. Writes to *distinct* coordinates commute: any
    /// interleaving of threads yields the same assembled matrix.
    pub fn set_element_sync(&self, i: Index, j: Index, x: T) -> Result<()> {
        self.inner.write().set_element_inner(i, j, x)
    }

    /// Remove one entry (`GrB_Matrix_removeElement`). Deletion of an
    /// assembled entry creates a zombie; removal of a pending insertion
    /// cancels it (with a pending tombstone, in O(1)). Removing a
    /// non-existent entry is a no-op.
    pub fn remove_element(&mut self, i: Index, j: Index) -> Result<()> {
        self.inner.get_mut().remove_element_inner(i, j)
    }

    /// Thread-safe [`Matrix::remove_element`]: takes `&self` and acquires
    /// the internal write lock. See [`Matrix::set_element_sync`].
    pub fn remove_element_sync(&self, i: Index, j: Index) -> Result<()> {
        self.inner.write().remove_element_inner(i, j)
    }

    /// Replay a stream of [`Edit`]s through the deferred-update path —
    /// [`Matrix::set_element`] for a `Some`, [`Matrix::remove_element`]
    /// for a `None` — leaving the one assembly to the next read or
    /// [`Matrix::wait`].
    pub fn apply_edits(&mut self, edits: impl IntoIterator<Item = Edit<T>>) -> Result<()> {
        let inner = self.inner.get_mut();
        edits.into_iter().try_for_each(|(i, j, x)| match x {
            Some(x) => inner.set_element_inner(i, j, x),
            None => inner.remove_element_inner(i, j),
        })
    }

    /// This matrix with `edits` applied, as a new matrix: what `clone` +
    /// [`Matrix::apply_edits`] + [`Matrix::wait`] would give, but built in
    /// one pass under one read lock, and without writing to this matrix's
    /// arrays. For a caller that keeps both, such as a snapshot and its
    /// successor.
    ///
    /// Every edit is bounds-checked first. An out-of-bounds one returns the
    /// error `apply_edits` gives, and this matrix is never changed. The
    /// edits are netted (the last write to a position wins). A row-major
    /// CSR matrix then comes back in the *layered* form: it shares this
    /// matrix's CSR base arrays, and holds the complete new contents of
    /// every row written since that base in one overlay, whose earlier
    /// parts it shares too. The pass costs the rows the edits touch, the
    /// overlay's row list and one bit a row, not a copy of the graph.
    /// Reads take a row from the base or the overlay and never merge, and
    /// [`Matrix::format`] reports it as [`Format::Csr`]. Once the
    /// publishes since the base have written more than an eighth of its
    /// entries (rewritten rows counted each time, plus one per overlay
    /// segment each copied), the overlay is folded into a fresh base (one
    /// bulk copy, like an assembly), and so is a plain-CSR source's first
    /// publish; [`Matrix::layers`] shows which. Any write to a layered
    /// matrix, or a change of its storage form, folds it into plain CSR
    /// first. The hypersparse forms take a tuple merge, the column-major
    /// and compressed forms (and any matrix opted into compression) the
    /// assembly splice, and the compressed form is re-encoded after it.
    ///
    /// A dual held as a CSR copy takes the transposed edits the same way.
    /// A symmetric matrix whose rows serve as its dual keeps that state
    /// when the netted edits equal their own transpose bit for bit, as an
    /// undirected graph's mirrored arcs do. Any other dual is left to the
    /// next kernel read to rebuild.
    ///
    /// ```
    /// use graphblas::Matrix;
    ///
    /// let a = Matrix::from_tuples(3, 3, vec![(0, 1, 1.0), (2, 2, 4.0)], |_, b| b)?;
    /// let b = a.with_edits(&[(1, 0, Some(2.0)), (2, 2, None), (1, 0, Some(3.0))])?;
    /// assert_eq!(b.extract_tuples(), [(0, 1, 1.0), (1, 0, 3.0)]);
    /// assert_eq!(a.nvals(), 2); // the source is untouched
    /// assert!(a.with_edits(&[(3, 0, None)]).is_err());
    /// # Ok::<(), graphblas::Error>(())
    /// ```
    pub fn with_edits(&self, edits: &[Edit<T>]) -> Result<Matrix<T>> {
        let g = self.read();
        for &(i, j, _) in edits {
            g.check_bounds(i, j)?;
        }
        let mut span =
            crate::trace::assemble_span(crate::trace::Op::AssembleMatrix, edits.len(), 0);
        let mut delta = edits.to_vec();
        net_edits(&mut delta);
        // The same writes in (col, row) order: what a column-major store
        // and a dual take. The positions are distinct, so this only sorts.
        let mut transposed: Vec<Edit<T>> = delta.iter().map(|&(i, j, x)| (j, i, x)).collect();
        net_edits(&mut transposed);
        // Row-major CSR layers; a matrix opted into compression does not,
        // as its next step is an encode of the whole thing anyway.
        let layer =
            |cs: &Cs<T>, edits: &[Edit<T>]| -> Layered<T> { Layered::new(splice(cs, edits, &[])) };
        let layers = !g.compress_enabled;
        // `read` resolved every deferred update: no zombies to drop.
        let store = match &g.store {
            Store::Csr(cs) if layers => Store::Layered(layer(cs, &delta)),
            Store::Csr(cs) => Store::Csr(splice(cs, &delta, &[])),
            Store::Layered(l) => Store::Layered(l.with_edits(&delta)),
            Store::Csc(cs) => Store::Csc(splice(cs, &transposed, &[])),
            Store::HyperCsr(h) => Store::HyperCsr(splice_hyper(h, &delta)),
            Store::HyperCsc(h) => Store::HyperCsc(splice_hyper(h, &transposed)),
            Store::CompressedCsr(cm) => Store::Csr(splice(&cm.decode(), &delta, &[])),
        };
        let dual = match &g.dual {
            Some(Dual::Copy(MatData::Cs(d))) if layers => {
                Some(Dual::Copy(MatData::Layered(layer(d, &transposed))))
            }
            Some(Dual::Copy(MatData::Cs(d))) => {
                Some(Dual::Copy(MatData::Cs(splice(d, &transposed, &[]))))
            }
            Some(Dual::Copy(MatData::Layered(d))) => {
                Some(Dual::Copy(MatData::Layered(d.with_edits(&transposed))))
            }
            Some(Dual::Rows) if same_edits(&delta, &transposed) => Some(Dual::Rows),
            _ => None,
        };
        let mut next = Inner {
            nrows: g.nrows,
            ncols: g.ncols,
            store,
            pending: Vec::new(),
            nzombies: 0,
            zombie_majors: Vec::new(),
            dual,
            dual_edits: Vec::new(),
            dual_enabled: g.dual_enabled,
            compress_enabled: g.compress_enabled,
        };
        next.maybe_hypersparse();
        next.maybe_compress();
        // The rows serve as the dual of plain or layered CSR only.
        if !matches!(next.store, Store::Csr(_) | Store::Layered(_)) {
            next.dual.take_if(|d| matches!(d, Dual::Rows));
        }
        if span.on() {
            if let Store::Layered(l) = &next.store {
                let l = l.layers();
                span.arg("overlay_rows", l.overlay_rows);
                span.arg("overlay_entries", l.overlay_entries);
                if l.folded {
                    span.arg("fold", 1u64);
                }
            }
            span.arg("resident_bytes", next.memory_usage().total() as u64);
        }
        Ok(Matrix { inner: RwLock::new(next) })
    }

    /// How a matrix in the layered form that [`Matrix::with_edits`]
    /// publishes is laid out; `None` for every other storage form.
    pub fn layers(&self) -> Option<Layers> {
        match &self.inner.read().store {
            Store::Layered(l) => Some(l.layers()),
            _ => None,
        }
    }

    /// Whether this matrix and `other` are both in the layered form and
    /// read the same base arrays: two snapshots of one lineage between
    /// two folds. For tests.
    #[doc(hidden)]
    pub fn shares_base(&self, other: &Matrix<T>) -> bool {
        match (&self.inner.read().store, &other.inner.read().store) {
            (Store::Layered(a), Store::Layered(b)) => a.shares_base(b),
            _ => false,
        }
    }

    /// The deferred-update backlog: `(pending writes, zombies)` not yet
    /// resolved by assembly. `(0, 0)` means the matrix is fully assembled.
    /// A monitoring hook for callers that batch updates into the
    /// non-blocking state and want to observe how much work the next
    /// assembly will resolve.
    pub fn deferred(&self) -> (usize, usize) {
        let g = self.inner.read();
        (g.pending.len(), g.nzombies)
    }

    /// Read one entry (`GrB_Matrix_extractElement`); [`Error::NoValue`] if
    /// absent. Does not force assembly.
    pub fn extract_element(&self, i: Index, j: Index) -> Result<T> {
        let inner = self.inner.read();
        inner.check_bounds(i, j)?;
        // Later pending writes shadow assembled data; scan from the back.
        if let Some(&(_, _, x)) = inner.pending.iter().rev().find(|e| (e.0, e.1) == (i, j)) {
            return x.ok_or(Error::NoValue);
        }
        let (maj, min) = inner.store.major_minor(i, j);
        inner.store.get(maj, min).ok_or(Error::NoValue)
    }

    /// Convenience: `extract_element` returning `Option`.
    pub fn get(&self, i: Index, j: Index) -> Option<T> {
        self.extract_element(i, j).ok()
    }

    /// Remove all entries, keeping the dimensions (`GrB_Matrix_clear`).
    pub fn clear(&mut self) {
        let inner = self.inner.get_mut();
        inner.drop_dual();
        inner.store = Store::empty_row_major(inner.nrows, inner.ncols);
        inner.pending.clear();
        inner.nzombies = 0;
        inner.zombie_majors.clear();
    }

    /// Copy all entries out as `(row, col, value)` tuples in row-major
    /// order (`GrB_Matrix_extractTuples`). `Ω(e)` — compare with the O(1)
    /// export (§IV).
    pub fn extract_tuples(&self) -> Vec<Tuple<T>> {
        rows_of(&self.read_rows()).tuples()
    }

    /// Change the dimensions (`GrB_Matrix_resize`). Entries outside the new
    /// shape are dropped.
    pub fn resize(&mut self, nrows: Index, ncols: Index) -> Result<()> {
        if nrows == 0 || ncols == 0 {
            return Err(Error::invalid("matrix dimensions must be >= 1"));
        }
        let inner = self.inner.get_mut();
        inner.assemble();
        inner.ensure_row_major();
        let tuples: Vec<Tuple<T>> = rows_of(inner)
            .tuples()
            .into_iter()
            .filter(|&(i, j, _)| i < nrows && j < ncols)
            .collect();
        inner.nrows = nrows;
        inner.ncols = ncols;
        inner.drop_dual();
        inner.store = if nrows > HYPER_DIM_LIMIT {
            Store::HyperCsr(from_sorted_tuples_hyper(nrows, ncols, tuples))
        } else {
            Store::Csr(from_sorted_tuples_cs(nrows, ncols, tuples))
        };
        inner.maybe_hypersparse();
        inner.maybe_compress();
        Ok(())
    }

    /// Convert in place to row-major (CSR or hypersparse CSR) storage.
    pub fn set_row_major(&mut self) {
        let inner = self.inner.get_mut();
        inner.fold_layers();
        inner.assemble();
        inner.ensure_row_major();
    }

    /// Convert in place to column-major (CSC or hypersparse CSC) storage.
    pub fn set_col_major(&mut self) {
        let inner = self.inner.get_mut();
        inner.fold_layers();
        inner.assemble();
        let placeholder = Store::Csr(Cs::empty(1, 1));
        match &inner.store {
            Store::Csc(_) | Store::HyperCsc(_) => {}
            Store::Csr(_) => {
                if let Store::Csr(cs) = std::mem::replace(&mut inner.store, placeholder) {
                    inner.store = Store::Csc(cs.transpose());
                }
            }
            Store::HyperCsr(_) => {
                if let Store::HyperCsr(h) = std::mem::replace(&mut inner.store, placeholder) {
                    inner.store = Store::HyperCsc(h.transpose());
                }
            }
            Store::CompressedCsr(_) => {
                if let Store::CompressedCsr(cm) = std::mem::replace(&mut inner.store, placeholder) {
                    inner.store = Store::Csc(cm.decode().transpose());
                }
            }
            Store::Layered(_) => unreachable!("folded above"),
        }
    }

    /// Lock the matrix for reading with all deferred updates resolved and
    /// row-major storage — the form every kernel consumes. When dual
    /// storage is enabled, the cached transpose is exact under the guard:
    /// patched by assembly, or (re)built here.
    pub(crate) fn read_rows(&self) -> RwLockReadGuard<'_, Inner<T>> {
        loop {
            {
                let g = self.inner.read();
                if !g.needs_assembly()
                    && matches!(
                        g.store,
                        Store::Csr(_)
                            | Store::HyperCsr(_)
                            | Store::CompressedCsr(_)
                            | Store::Layered(_)
                    )
                    && (!g.dual_enabled || g.dual.is_some())
                {
                    return g;
                }
            }
            let mut w = self.inner.write();
            w.assemble();
            w.ensure_row_major();
            w.maybe_compress();
            if w.dual_enabled && w.dual.is_none() {
                w.dual = Some(w.build_dual());
            }
        }
    }

    /// Enable or disable performance-oriented dual storage: keeping a
    /// second, transposed copy of the matrix (§II.E). Matrix-vector
    /// products use it to choose push or pull freely, and every op that
    /// reads this matrix transposed — `mxm`, the fused products, `eWise`,
    /// `reduce`, `apply`, `select`, `kronecker`, `extract`, `transpose` —
    /// reads the copy instead of transposing per call. Writes patch it at
    /// the next assembly. Doubles memory, except for a plain-CSR matrix
    /// that equals its own transpose bit for bit (an undirected graph's
    /// structure): the read that would build the copy finds that in one
    /// walk over the entries, and the rows serve as the transpose with no
    /// second copy, until a write. GraphBLAST gates the same trade-off
    /// behind an environment variable.
    pub fn set_dual_storage(&mut self, enabled: bool) {
        let inner = self.inner.get_mut();
        inner.dual_enabled = enabled;
        if !enabled {
            inner.drop_dual();
        }
    }

    /// Whether dual (push/pull) storage is currently enabled.
    pub fn dual_storage(&self) -> bool {
        self.inner.read().dual_enabled
    }

    /// Opt this matrix into (or out of) the read-optimized compressed
    /// storage form: gap-encoded column indices under γ/δ codes with
    /// Elias-Fano row offsets (see [`crate::compressed`]). Enabling
    /// assembles and encodes immediately; disabling expands back to CSR.
    /// Writes keep working through the deferred pending-tuple path, with
    /// eager recompaction past 65 536 pending entries.
    pub fn set_compressed(&mut self, enabled: bool) {
        let inner = self.inner.get_mut();
        inner.compress_enabled = enabled;
        inner.fold_layers();
        // Assemble first either way: pending writes over a compressed
        // store may shadow stored entries, which no slotted form allows.
        inner.assemble();
        if enabled {
            inner.ensure_row_major();
            inner.maybe_compress();
        } else if let Store::CompressedCsr(cm) = &inner.store {
            let cs = cm.decode();
            inner.store = Store::Csr(cs);
        }
    }

    /// Whether this matrix is opted into compressed storage.
    pub fn compressed_storage(&self) -> bool {
        self.inner.read().compress_enabled
    }

    /// Whether the matrix currently sits in the compressed form.
    pub fn is_compressed(&self) -> bool {
        matches!(self.inner.read().store, Store::CompressedCsr(_))
    }

    /// Serialize into the versioned `.lagc` on-disk container (see
    /// [`crate::compressed`]). Already-compressed matrices stream their
    /// sections straight out; anything else is encoded first. Fails with
    /// `InvalidData` when values don't survive the exact `f64` round-trip
    /// the codec requires.
    pub fn write_lagc(&self, path: &std::path::Path) -> std::io::Result<()> {
        let g = self.read_rows();
        match &g.store {
            Store::CompressedCsr(cm) => cm.write_path(path),
            Store::Csr(cs) => match CompressedMat::encode(cs) {
                Some(cm) => cm.write_path(path),
                None => Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "matrix values are not exactly representable in the .lagc codec",
                )),
            },
            Store::HyperCsr(h) => match CompressedMat::encode(&h.to_cs()) {
                Some(cm) => cm.write_path(path),
                None => Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "matrix values are not exactly representable in the .lagc codec",
                )),
            },
            Store::Layered(l) => match CompressedMat::encode(&l.fold()) {
                Some(cm) => cm.write_path(path),
                None => Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "matrix values are not exactly representable in the .lagc codec",
                )),
            },
            _ => unreachable!("read_rows yields a row-major store"),
        }
    }

    /// Load a `.lagc` container written by [`Matrix::write_lagc`],
    /// memory-mapping the heavy sections so the load is O(1) in the edge
    /// count — no parse, no assembly. The matrix arrives already in the
    /// compressed form with the opt-in flag set, so later assemblies keep
    /// it compressed. `verify` additionally checks the whole-file
    /// checksum (O(n), still no allocation beyond the header).
    pub fn read_lagc(path: &std::path::Path, verify: bool) -> std::io::Result<Matrix<T>> {
        let cm = CompressedMat::from_path(path, verify)?;
        let (nrows, ncols) = (cm.nmajor(), cm.nminor());
        let m = Matrix::from_store(nrows, ncols, Store::CompressedCsr(cm));
        m.inner.write().compress_enabled = true;
        Ok(m)
    }

    /// Lock for reading with deferred updates resolved (any format).
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, Inner<T>> {
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

    /// Replace this matrix's contents with an assembled row-major store.
    pub(crate) fn install(&mut self, nrows: Index, ncols: Index, store: Store<T>) {
        let inner = self.inner.get_mut();
        inner.nrows = nrows;
        inner.ncols = ncols;
        inner.store = store;
        inner.pending.clear();
        inner.nzombies = 0;
        inner.zombie_majors.clear();
        inner.drop_dual();
        // Keep opted-in outputs compressed across kernel writes.
        inner.maybe_compress();
    }

    /// Build a matrix directly from an assembled store (kernel results).
    pub(crate) fn from_store(nrows: Index, ncols: Index, store: Store<T>) -> Self {
        Matrix {
            inner: RwLock::new(Inner {
                nrows,
                ncols,
                store,
                pending: Vec::new(),
                nzombies: 0,
                zombie_majors: Vec::new(),
                dual: None,
                dual_edits: Vec::new(),
                dual_enabled: false,
                compress_enabled: false,
            }),
        }
    }

    /// A square diagonal matrix whose diagonal is `v` (`GrB_Matrix_diag`).
    /// `diag(v) * A` scales the rows of `A`; `A * diag(v)` scales columns.
    pub fn diag(v: &crate::vector::Vector<T>) -> Self {
        let n = v.size();
        let tuples: Vec<Tuple<T>> =
            v.extract_tuples().into_iter().map(|(i, x)| (i, i, x)).collect();
        Matrix::from_tuples(n, n, tuples, |_, b| b).expect("diag dims valid")
    }

    /// The pattern of the matrix as a Boolean matrix with `true` at every
    /// stored entry (`GxB` idiom `apply(ONE)`), commonly used as a mask.
    pub fn pattern(&self) -> Matrix<bool> {
        let g = self.read_rows();
        let v = rows_of(&g);
        let mut vecs = Vec::with_capacity(v.nvecs());
        v.for_each_vec(&mut |maj, idx, val| {
            vecs.push((maj, idx.to_vec(), vec![true; val.len()]));
        });
        Matrix::from_store(g.nrows, g.ncols, Store::row_major_from_vecs(g.nrows, g.ncols, vecs))
    }

    /// Whether `A = Aᵀ`, pattern and values, decided in O(nvals) without
    /// building the transpose (one cursor walk over the rows). Answered for
    /// CSR storage, plain or layered: `None` for the hypersparse and
    /// compressed forms, whose callers fall back to comparing against a
    /// materialised `Aᵀ`.
    pub fn is_symmetric(&self) -> Option<bool> {
        self.read_rows().symmetric()
    }

    /// Stored entries per row as an `i64` vector, with no entry for an
    /// empty row: `reduce(+, apply(one, A))`, read off the row pointers
    /// (the Elias-Fano offsets of the compressed form) without touching
    /// an index or a value.
    pub fn row_degrees(&self) -> crate::vector::Vector<i64> {
        let g = self.read_rows();
        let (mut idx, mut val) = (Vec::new(), Vec::new());
        rows_of(&g).for_each_len(&mut |i, len| {
            idx.push(i);
            val.push(len as i64);
        });
        crate::vector::Vector::from_parts(g.nrows, idx, val)
    }

    /// Iterate over all `(row, col, value)` entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = Tuple<T>> {
        self.extract_tuples().into_iter()
    }

    /// Pattern-only read access to the rows, in the spirit of
    /// SuiteSparse's `GxB_rowIterator`: deferred updates are resolved and
    /// one read lock is taken here, and every visit through the returned
    /// [`Rows`] reads under it. Writers (the `*_sync` entry points) wait
    /// until it is dropped, so a caller must not write to this matrix
    /// while holding it.
    ///
    /// ```
    /// use graphblas::Matrix;
    ///
    /// let m = Matrix::from_tuples(3, 3, vec![(0, 1, 1.0), (0, 2, 1.0), (2, 0, 1.0)], |_, b| b)?;
    /// let rows = m.rows();
    /// assert_eq!((rows.len(0), rows.len(1)), (2, 0));
    /// assert!(rows.contains(2, 0) && !rows.contains(1, 0));
    /// let mut cols = Vec::new();
    /// rows.for_each(0, |j| cols.push(j));
    /// assert_eq!(cols, [1, 2]);
    /// # Ok::<(), graphblas::Error>(())
    /// ```
    pub fn rows(&self) -> Rows<'_, T> {
        Rows { inner: self.read_rows() }
    }
}

/// How a matrix in the layered form is laid out, from [`Matrix::layers`]:
/// a CSR base shared with the snapshots before it, plus an overlay holding
/// the complete contents of every row written since.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layers {
    /// Entries of the shared base.
    pub base_entries: usize,
    /// Rows the overlay replaces. `0` right after a fold.
    pub overlay_rows: usize,
    /// Entries in those rows.
    pub overlay_entries: usize,
    /// Whether the publish that made this matrix wrote a fresh base: it
    /// folded its source's overlay, or its source was not layered.
    pub folded: bool,
}

/// A read-locked view of an assembled matrix's row patterns, from
/// [`Matrix::rows`]. Works on every row-major form: the CSR (plain or
/// layered) and hypersparse forms hand out their rows as slices, and the compressed
/// form decodes each visited row into a buffer that visit owns, so a
/// [`Rows::contains`] may nest inside a [`Rows::for_each`]. Row indices
/// must be below the row count (checked, as slice indexing is).
pub struct Rows<'a, T: Scalar> {
    inner: RwLockReadGuard<'a, Inner<T>>,
}

impl<T: Scalar> Rows<'_, T> {
    /// The row-major storage, once `i` is checked to be a row.
    fn view(&self, i: Index) -> &dyn SparseView<T> {
        assert!(i < self.inner.nrows, "row {i} out of range for {} rows", self.inner.nrows);
        rows_of(&self.inner)
    }

    /// Number of stored entries in row `i`, read off the row pointers
    /// without touching a column index.
    pub fn len(&self, i: Index) -> usize {
        self.view(i).row_len(i)
    }

    /// Whether `(i, j)` holds an entry.
    pub fn contains(&self, i: Index, j: Index) -> bool {
        self.view(i).get(i, j).is_some()
    }

    /// Visit the column of every entry in row `i`, in increasing order.
    pub fn for_each(&self, i: Index, mut f: impl FnMut(Index)) {
        let mut scratch = RowScratch::default();
        for &j in self.view(i).row(i, &mut scratch).0 {
            f(j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_zero_dims() {
        assert!(Matrix::<f64>::new(0, 3).is_err());
        assert!(Matrix::<f64>::new(3, 0).is_err());
    }

    #[test]
    fn build_and_lookup() {
        let m = Matrix::from_tuples(3, 3, vec![(0, 1, 2.0), (2, 2, 4.0)], |_, b| b).expect("build");
        assert_eq!(m.nvals(), 2);
        assert_eq!(m.get(0, 1), Some(2.0));
        assert_eq!(m.get(1, 1), None);
        assert_eq!(m.extract_element(1, 1), Err(Error::NoValue));
    }

    #[test]
    fn bulk_fill_sizes_its_result_in_steps() {
        for n in [0, 1, 63, 64, 65, 1000, 1 << 20, 1_835_000] {
            let c = stepped(n);
            assert!(c >= n && c - n <= n / 32, "{n} entries get capacity {c}");
        }
        // A graph that grew by a few thousand entries asks for the same block.
        assert_eq!(stepped(1_820_000), stepped(1_830_000));
        let tuples = (0..3000).map(|k| (k % 100, k / 100, k as u32)).collect();
        let cs = Cs::from_tuples(100, 30, tuples, |_, b| b);
        let (idx, val) = bulk_fill(&cs, &cs.ptr, &[], |_, _, _| {});
        assert_eq!((idx, val), (cs.idx.clone(), cs.val.clone()));
        let (idx, _) = bulk_fill(&cs, &cs.ptr, &[], |_, _, _| {});
        assert_eq!(idx.capacity(), stepped(3000));
    }

    #[test]
    fn build_requires_empty() {
        let mut m = Matrix::from_tuples(2, 2, vec![(0, 0, 1)], |_, b| b).expect("build");
        assert!(m.build(vec![(1, 1, 2)], |_, b| b).is_err());
    }

    #[test]
    fn build_bounds_checked() {
        assert!(Matrix::from_tuples(2, 2, vec![(2, 0, 1)], |_, b| b).is_err());
        assert!(Matrix::from_tuples(2, 2, vec![(0, 2, 1)], |_, b| b).is_err());
    }

    #[test]
    fn set_element_defers_then_assembles() {
        let mut m = Matrix::<i32>::new(4, 4).expect("new");
        m.set_element(1, 2, 10).expect("set");
        m.set_element(3, 0, 30).expect("set");
        m.set_element(1, 2, 11).expect("set"); // last write wins
        assert_eq!(m.get(1, 2), Some(11)); // visible before assembly
        assert_eq!(m.nvals(), 2); // nvals forces assembly
        assert_eq!(m.get(1, 2), Some(11));
        assert_eq!(m.get(3, 0), Some(30));
    }

    #[test]
    fn set_element_sequence_matches_build_with_last_wins_dup() {
        // Pending-tuple resolution is "last write wins" (the GrB_setElement
        // contract); GrB_Matrix_build with dup = |_, b| b folds duplicates
        // the same way. Any interleaving of set_element calls over the same
        // tuple sequence must therefore be indistinguishable from one build.
        let tuples: Vec<(Index, Index, i64)> = vec![
            (2, 3, 1),
            (0, 0, 2),
            (2, 3, 3),
            (5, 7, 4),
            (0, 0, 5),
            (7, 1, 6),
            (2, 3, 7),
            (5, 7, 8),
            (3, 3, 9),
            (0, 0, 10),
        ];
        let built = Matrix::from_tuples(8, 8, tuples.clone(), |_, b| b).expect("build");
        // Plain deferred writes: every duplicate is resolved by one assembly.
        let mut seq = Matrix::<i64>::new(8, 8).expect("new");
        for &(i, j, x) in &tuples {
            seq.set_element(i, j, x).expect("set");
        }
        assert_eq!(seq.extract_tuples(), built.extract_tuples());
        // Forced mid-stream assemblies: some writes then update assembled
        // entries in place, others are fresh pending tuples merged against
        // an existing store — same observable result either way.
        let mut mixed = Matrix::<i64>::new(8, 8).expect("new");
        for (k, &(i, j, x)) in tuples.iter().enumerate() {
            mixed.set_element(i, j, x).expect("set");
            if k % 3 == 2 {
                mixed.wait();
            }
        }
        assert_eq!(mixed.extract_tuples(), built.extract_tuples());
    }

    #[test]
    fn set_element_updates_assembled_in_place() {
        let mut m = Matrix::from_tuples(2, 2, vec![(0, 0, 1)], |_, b| b).expect("build");
        m.wait();
        m.set_element(0, 0, 9).expect("set");
        // No pending tuple was created: the update went in place.
        assert!(!m.inner.read().needs_assembly());
        assert_eq!(m.get(0, 0), Some(9));
    }

    #[test]
    fn remove_element_creates_zombie_then_reassembles() {
        let mut m = Matrix::from_tuples(3, 3, vec![(0, 0, 1), (0, 1, 2), (1, 1, 3)], |_, b| b)
            .expect("build");
        m.remove_element(0, 1).expect("remove");
        assert_eq!(m.get(0, 1), None); // zombie invisible to reads
        assert_eq!(m.get(0, 0), Some(1)); // neighbors still visible
        assert_eq!(m.nvals(), 2); // assembly kills the zombie
        assert_eq!(m.extract_tuples(), vec![(0, 0, 1), (1, 1, 3)]);
    }

    #[test]
    fn zombie_resurrection() {
        let mut m = Matrix::from_tuples(2, 2, vec![(0, 0, 5)], |_, b| b).expect("build");
        m.remove_element(0, 0).expect("remove");
        m.set_element(0, 0, 7).expect("set");
        assert_eq!(m.get(0, 0), Some(7));
        assert_eq!(m.nvals(), 1);
    }

    #[test]
    fn remove_pending_insertion_cancels_it() {
        let mut m = Matrix::<i32>::new(2, 2).expect("new");
        m.set_element(0, 1, 5).expect("set");
        m.remove_element(0, 1).expect("remove");
        assert_eq!(m.nvals(), 0);
    }

    #[test]
    fn remove_nonexistent_is_noop() {
        let mut m = Matrix::<i32>::new(2, 2).expect("new");
        m.remove_element(1, 1).expect("remove");
        assert_eq!(m.nvals(), 0);
    }

    #[test]
    fn interleaved_set_remove_set() {
        let mut m = Matrix::<i32>::new(4, 4).expect("new");
        for k in 0..4 {
            m.set_element(k, k, k as i32).expect("set");
        }
        m.wait();
        m.remove_element(2, 2).expect("remove");
        m.set_element(1, 3, 13).expect("set");
        m.remove_element(0, 0).expect("remove");
        m.set_element(0, 0, 100).expect("resurrect");
        let t = m.extract_tuples();
        assert_eq!(t, vec![(0, 0, 100), (1, 1, 1), (1, 3, 13), (3, 3, 3)]);
    }

    #[test]
    fn pending_merge_preserves_sorted_invariants() {
        let mut m = Matrix::<i32>::new(8, 8).expect("new");
        // Assemble a base pattern.
        for k in (0..8).step_by(2) {
            m.set_element(k, k, 1).expect("set");
        }
        m.wait();
        // Interleave new pending entries between existing ones.
        for k in (1..8).step_by(2) {
            m.set_element(k, k, 2).expect("set");
        }
        m.set_element(0, 7, 3).expect("set");
        let g = m.read_rows();
        if let Store::Csr(cs) = &g.store {
            cs.check().expect("invariants hold after merge");
        } else {
            panic!("expected CSR");
        }
        drop(g);
        assert_eq!(m.nvals(), 9);
    }

    #[test]
    fn clear_empties_but_keeps_shape() {
        let mut m = Matrix::from_tuples(3, 4, vec![(1, 1, 1)], |_, b| b).expect("build");
        m.clear();
        assert_eq!(m.nvals(), 0);
        assert_eq!((m.nrows(), m.ncols()), (3, 4));
    }

    #[test]
    fn resize_drops_out_of_range() {
        let mut m = Matrix::from_tuples(4, 4, vec![(0, 0, 1), (3, 3, 2), (1, 2, 3)], |_, b| b)
            .expect("build");
        m.resize(2, 3).expect("resize");
        assert_eq!((m.nrows(), m.ncols()), (2, 3));
        assert_eq!(m.extract_tuples(), vec![(0, 0, 1), (1, 2, 3)]);
    }

    #[test]
    fn format_conversions_preserve_content() {
        let tuples = vec![(0, 1, 1.0), (2, 0, 2.0), (1, 1, 3.0)];
        let mut m = Matrix::from_tuples(3, 3, tuples.clone(), |_, b| b).expect("build");
        assert_eq!(m.format(), Format::Csr);
        m.set_col_major();
        assert_eq!(m.format(), Format::Csc);
        assert_eq!(m.get(2, 0), Some(2.0));
        m.set_row_major();
        assert_eq!(m.format(), Format::Csr);
        assert_eq!(m.extract_tuples(), {
            let mut t = tuples;
            t.sort_by_key(|&(i, j, _)| (i, j));
            t
        });
    }

    #[test]
    fn column_major_set_element_assembles_correctly() {
        let mut m = Matrix::<i32>::new(3, 3).expect("new");
        m.set_col_major();
        m.set_element(0, 2, 1).expect("set");
        m.set_element(2, 0, 2).expect("set");
        assert_eq!(m.nvals(), 2);
        assert_eq!(m.get(0, 2), Some(1));
        assert_eq!(m.get(2, 0), Some(2));
    }

    #[test]
    fn huge_dimension_auto_hypersparse() {
        let n = 1usize << 40;
        let mut m = Matrix::<i32>::new(n, n).expect("new");
        assert_eq!(m.format(), Format::HyperCsr);
        m.set_element(12345678901, 98765432109, 7).expect("set");
        assert_eq!(m.nvals(), 1);
        assert_eq!(m.get(12345678901, 98765432109), Some(7));
    }

    #[test]
    fn moderate_but_sparse_switches_to_hypersparse() {
        // 100k rows, 3 entries: far below the 1/16 occupancy ratio.
        let m = Matrix::from_tuples(
            100_000,
            100_000,
            vec![(5, 5, 1), (50_000, 3, 2), (99_999, 0, 3)],
            |_, b| b,
        )
        .expect("build");
        assert_eq!(m.format(), Format::HyperCsr);
        assert_eq!(m.get(50_000, 3), Some(2));
    }

    #[test]
    fn pattern_extracts_structure() {
        let m = Matrix::from_tuples(2, 2, vec![(0, 0, 0.0), (1, 1, 5.0)], |_, b| b).expect("build");
        let p = m.pattern();
        // Note: an *explicit* zero is still an entry; pattern is true there.
        assert_eq!(p.get(0, 0), Some(true));
        assert_eq!(p.get(1, 1), Some(true));
        assert_eq!(p.get(0, 1), None);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = Matrix::from_tuples(2, 2, vec![(0, 0, 1)], |_, b| b).expect("build");
        let b = a.clone();
        a.set_element(0, 0, 99).expect("set");
        assert_eq!(b.get(0, 0), Some(1));
    }

    #[test]
    fn row_reader_agrees_with_tuples_and_get_in_every_row_major_form() {
        // A symmetric pattern with empty rows before, between and after
        // the occupied ones, a diagonal entry, and the last row occupied.
        let pattern = |n: Index| {
            let last = n - 1;
            let edges = [(0, 3), (0, last), (3, last), (4, 4), (3, 5)];
            edges.iter().flat_map(|&(i, j)| [(i, j, 1.0), (j, i, 1.0)]).collect::<Vec<_>>()
        };
        let csr = Matrix::from_tuples(12, 12, pattern(12), |_, b| b).expect("csr");
        let hyper = Matrix::from_tuples(5000, 5000, pattern(5000), |_, b| b).expect("hyper");
        let mut packed = csr.clone();
        packed.set_compressed(true);
        let mut csc = csr.clone();
        csc.set_col_major();
        let forms = [
            (csr, Format::Csr),
            (hyper, Format::HyperCsr),
            (packed, Format::Compressed),
            (csc, Format::Csc), // read_rows turns it row-major first
        ];
        for (m, form) in &forms {
            assert_eq!(m.format(), *form);
            let n = m.nrows();
            let tuples = m.extract_tuples();
            let probes: Vec<(Index, Index, bool)> = (0..n)
                .flat_map(|i| [0, 1, 3, 4, 5, n - 1].map(|j| (i, j, m.get(i, j).is_some())))
                .collect();
            let rows = m.rows();
            let mut seen = Vec::new();
            for i in 0..n {
                let mut cols = Vec::new();
                rows.for_each(i, |j| {
                    cols.push(j);
                    // Nested reads inside a visit: the mirror of every entry.
                    assert!(rows.contains(j, i), "{form:?}: ({j}, {i}) mirrors ({i}, {j})");
                    rows.for_each(j, |_| {});
                });
                assert_eq!(rows.len(i), cols.len(), "{form:?}: row {i}");
                seen.extend(cols.into_iter().map(|j| (i, j, 1.0)));
            }
            assert_eq!(seen, tuples, "{form:?}");
            for (i, j, present) in probes {
                assert_eq!(rows.contains(i, j), present, "{form:?}: ({i}, {j})");
            }
        }
    }

    fn holds_rows_dual<T: Scalar>(m: &Matrix<T>) -> bool {
        matches!(m.inner.read().dual, Some(Dual::Rows))
    }

    fn symmetric() -> Matrix<f64> {
        let t = vec![(0, 1, 2.0), (1, 0, 2.0), (1, 3, 0.5), (3, 1, 0.5), (2, 2, 7.0)];
        let mut m = Matrix::from_tuples(4, 4, t, |_, b| b).expect("build");
        m.set_dual_storage(true);
        m
    }

    #[test]
    fn a_symmetric_csr_matrix_is_its_own_dual_until_a_write() {
        let mut m = symmetric();
        m.extract_tuples(); // the kernel read that builds the dual
        assert!(holds_rows_dual(&m));
        assert_eq!(m.memory_usage().dual_bytes, 0, "no second copy");
        // A write, mirrored or not, drops the state; the next read decides.
        m.set_element(0, 3, 1.0).expect("set");
        assert!(m.inner.read().dual.is_none());
        m.extract_tuples();
        assert!(!holds_rows_dual(&m) && m.memory_usage().dual_bytes > 0);
        m.set_element(3, 0, 1.0).expect("mirror");
        m.extract_tuples();
        assert!(m.memory_usage().dual_bytes > 0, "a patched copy stays a copy");
    }

    #[test]
    fn signed_zeros_are_not_mirrors_so_the_dual_is_a_copy() {
        // `0.0 == -0.0`, but a transpose holds the other bits: the rows
        // must not serve as the dual.
        let mut m =
            Matrix::from_tuples(2, 2, vec![(0, 1, 0.0), (1, 0, -0.0)], |_, b| b).expect("build");
        m.set_dual_storage(true);
        let g = m.read_rows();
        assert!(matches!(g.dual, Some(Dual::Copy(_))));
        let dual = dual_of(&g).expect("built");
        assert_eq!(dual.get(1, 0).map(f64::to_bits), Some(0.0f64.to_bits()));
        assert_eq!(dual.get(0, 1).map(f64::to_bits), Some((-0.0f64).to_bits()));
    }

    #[test]
    fn with_edits_keeps_the_rows_dual_exactly_under_a_self_transposed_delta() {
        let m = symmetric();
        m.extract_tuples();
        let mirrored = [(0, 3, Some(1.5)), (3, 0, Some(1.5)), (0, 1, None), (1, 0, None)];
        let next = m.with_edits(&mirrored).expect("mirrored");
        assert!(holds_rows_dual(&next));
        assert!(holds_rows_dual(&m), "the source is untouched");
        // One-sided, or mirrored with other bits (the two signed zeros):
        // the state goes, and the next read builds a copy.
        let one_sided = [(0, 3, Some(1.5))];
        let other_bits = [(0, 3, Some(0.0)), (3, 0, Some(-0.0))];
        for delta in [&one_sided[..], &other_bits[..]] {
            let next = m.with_edits(delta).expect("edits");
            assert!(next.inner.read().dual.is_none(), "{delta:?}");
            next.extract_tuples();
            assert!(matches!(next.inner.read().dual, Some(Dual::Copy(_))), "{delta:?}");
        }
        // An empty delta is its own transpose: a copy, still aliased.
        let same = m.with_edits(&[]).expect("empty delta");
        assert!(holds_rows_dual(&same));
        assert_eq!(same.extract_tuples(), m.extract_tuples());
    }

    #[test]
    fn with_edits_layers_a_held_copy_of_the_dual() {
        let mut m = symmetric();
        m.set_element(0, 2, 3.0).expect("break the symmetry");
        m.extract_tuples();
        let next = m.with_edits(&[(2, 0, Some(3.0)), (1, 3, None)]).expect("edits");
        assert!(matches!(next.inner.read().store, Store::Layered(_)));
        assert!(matches!(next.inner.read().dual, Some(Dual::Copy(MatData::Layered(_)))));
        let g = next.read_rows();
        let fresh = crate::sparse::transpose_dyn(rows_of(&g));
        assert_eq!(dual_of(&g).expect("dual").tuples(), fresh.view().tuples());
    }

    #[test]
    fn dup_tuples_fold_left_to_right() {
        let m = Matrix::from_tuples(1, 1, vec![(0, 0, 8), (0, 0, 2)], |a, b| a / b).expect("build");
        assert_eq!(m.get(0, 0), Some(4));
    }
}
