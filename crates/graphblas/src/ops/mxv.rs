//! `GrB_mxv` and `GrB_vxm`: matrix-vector products over a semiring, with
//! push/pull direction optimization (§II.E of the paper, after GraphBLAST).
//!
//! Two kernels implement all four (operation × transpose) combinations:
//!
//! * **pull** (`rowdot`): one dot product per output position the mask
//!   admits, walking a row of the matrix against a dense view of the
//!   vector; a mask held as presence words hands it just those rows, a word
//!   at a time. Honors the monoid's terminal value — the early-exit trick
//!   that makes pull BFS fast. Parallelized over rows.
//! * **push** (`scatter`): partition the (sparse) vector's entries
//!   across the pool, one chunk per thread, cut by the matrix rows the
//!   entries expand ([`par_chunks_weighted`]); each chunk scatters its
//!   rows into a private stamped accumulator (`DenseAcc`, or a tree for
//!   huge dimensions), skipping mask-excluded positions and
//!   short-circuiting terminal/ANY slots. Accumulators that filled a fair
//!   share of the output are folded by output window, in chunk order, into
//!   a full-length result — no sort; a small result keeps sorted lists,
//!   merged in the same order ([`merge_scatter_chunks`]). Work stays
//!   proportional to the frontier, and both directions scale with the
//!   pool.
//!
//! `mxv(A, u)` pulls naturally (rows of `A` are what CSR stores);
//! `mxv(Aᵀ, u)` and `vxm(u, A)` push naturally. The *other* direction
//! becomes available when the matrix keeps dual (transposed) storage —
//! [`crate::Matrix::set_dual_storage`] — and `Direction::Auto` then picks
//! the side whose flops estimate is cheaper under the measured
//! [`crate::cost`] model (replacing GraphBLAST's fixed density ratio).
//! The chosen direction plus estimated vs. actual flops land in the op
//! span, and a `mxv.mispredict` instant fires when the estimate picked
//! the slower side — mispredictions are visible in the Chrome trace.
//!
//! Both kernels skip every position the mask blocks, so the result goes
//! to the write rule marked as restricted to it, with the one `VMask` the
//! product evaluated (and readied at most once): the write probes none
//! of its entries again.

use crate::binaryop::BinaryOp;
use crate::cost;
use crate::descriptor::{Descriptor, Direction};
use crate::error::Result;
use crate::matrix::{dual_of, rows_of, Matrix};
use crate::monoid::Monoid;
use crate::parallel::{merge_scatter_chunks, par_chunks_weighted, prefix_sums, Chunking};
use crate::semiring::Semiring;
use crate::sparse::{Majors, SparseView};
use crate::trace;
use crate::types::{Index, Scalar};
use crate::vector::{
    bitmap_get, par_windows, par_windows_weighted, DenseAcc, FullMut, Slot, VView, Vector,
    DENSE_LIMIT, SPARSIFY_RATIO,
};

use super::common::{check_dims, check_vmask, InverseSel, VMask};
use super::shape::Shape;
use super::write::{write_under, VecResult};

/// `w⟨mask⟩ ⊙= A ⊕.⊗ u` (or `Aᵀ ⊕.⊗ u` with the transpose descriptor).
pub fn mxv<A, U, T, SA, SM, Acc>(
    w: &mut Vector<T>,
    mask: Option<&Vector<bool>>,
    accum: Option<Acc>,
    semiring: &Semiring<SA, SM>,
    a: &Matrix<A>,
    u: &Vector<U>,
    desc: &Descriptor,
) -> Result<()>
where
    A: Scalar,
    U: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    SM: BinaryOp<A, U, T>,
    Acc: BinaryOp<T, T, T>,
{
    let mul = semiring.mul;
    product(
        w,
        mask,
        accum,
        &semiring.add,
        move |av, uv| mul.apply(av, uv),
        a,
        u,
        desc.transpose_a,
        desc,
        trace::Op::Mxv,
    )
}

/// `wᵀ⟨maskᵀ⟩ ⊙= uᵀ ⊕.⊗ A` (or `⊕.⊗ Aᵀ` with the INP1 transpose).
pub fn vxm<U, A, T, SA, SM, Acc>(
    w: &mut Vector<T>,
    mask: Option<&Vector<bool>>,
    accum: Option<Acc>,
    semiring: &Semiring<SA, SM>,
    u: &Vector<U>,
    a: &Matrix<A>,
    desc: &Descriptor,
) -> Result<()>
where
    U: Scalar,
    A: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    SM: BinaryOp<U, A, T>,
    Acc: BinaryOp<T, T, T>,
{
    let mul = semiring.mul;
    // vxm computes w_j = ⊕_i u(i) ⊗ A(i,j): the same kernels with the
    // operand order flipped and the transpose sense inverted.
    product(
        w,
        mask,
        accum,
        &semiring.add,
        move |av, uv| mul.apply(uv, av),
        a,
        u,
        !desc.transpose_b,
        desc,
        trace::Op::Vxm,
    )
}

/// Shared implementation. `transposed` selects the math:
/// `false` → `w_i = ⊕_j f(A(i,j), u(j))` (output over rows),
/// `true`  → `w_j = ⊕_i f(A(i,j), u(i))` (output over columns).
#[allow(clippy::too_many_arguments)]
fn product<A, U, T, SA, F, Acc>(
    w: &mut Vector<T>,
    mask: Option<&Vector<bool>>,
    accum: Option<Acc>,
    add: &SA,
    f: F,
    a: &Matrix<A>,
    u: &Vector<U>,
    transposed: bool,
    desc: &Descriptor,
    op: trace::Op,
) -> Result<()>
where
    A: Scalar,
    U: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    F: Fn(A, U) -> T + Sync,
    Acc: BinaryOp<T, T, T>,
{
    let mut span = trace::op_span(op);
    let ga = a.read_rows();
    let rows = rows_of(&ga);
    let dual = dual_of(&ga);
    let (n_in, n_out) = if transposed { (ga.nrows, ga.ncols) } else { (ga.ncols, ga.nrows) };
    check_dims(u.size() == n_in, "mxv/vxm: vector length must match matrix")?;
    check_dims(w.size() == n_out, "mxv/vxm: output length must match matrix")?;
    check_vmask(mask, n_out)?;

    let gu = u.read();
    let u_nvals = gu.nvals_assembled();
    let uview = gu.view();

    let mguard = mask.map(|m| m.read());
    let mut meval = VMask::of(mguard.as_deref(), desc);

    // Flops estimates for both directions (saturating — dimensions may sit
    // near Index::MAX). Push expands an average-degree row per input entry;
    // pull builds a dense input view (free if `u` already stores dense) and
    // scans the considered rows — all of them, or just the stored mask
    // entries for a non-complement mask — stopping each dot at the first
    // hit under a terminal/ANY monoid.
    let a_nnz = rows.nvals();
    let est_push = cost::mxv_push_flops(u_nvals, a_nnz, n_in);
    let rows_considered = match mask {
        Some(_) if !desc.mask_complement => meval.nvals().min(n_out),
        _ => n_out,
    };
    let dense_build = if matches!(uview, VView::Sparse(..)) { n_in } else { 0 };
    // A pull or a push loads the vector's values whatever the multiply:
    // neither has a no-load loop.
    let shape = Shape::of(add, false);
    let est_pull =
        cost::mxv_pull_flops(dense_build, rows_considered, a_nnz, n_out, shape.stops_early());
    let push_wins = cost::model().push_wins(est_push, est_pull);

    // Natural kernel: pull for the row-output form, push for the
    // column-output form. The dual storage unlocks the other one. The
    // `Auto` heuristic only requests the non-natural orientation when the
    // dual form actually exists; an explicit Push/Pull request that needs
    // the missing dual falls back to the natural kernel (never panics —
    // the direction is a hint, not a contract).
    let want_push = if transposed {
        match desc.direction {
            Direction::Push => true,
            Direction::Pull => false,
            Direction::Auto => dual.is_none() || push_wins,
        }
    } else {
        match desc.direction {
            Direction::Push => true,
            Direction::Pull => false,
            Direction::Auto => dual.is_some() && push_wins,
        }
    };

    if span.on() {
        span.arg("nrows", ga.nrows);
        span.arg("ncols", ga.ncols);
        span.arg("a_nnz", a_nnz);
        span.arg("u_nnz", u_nvals);
        span.arg("est_push", est_push);
        span.arg("est_pull", est_pull);
        span.arg("shape", shape.name());
    }
    let push_kernel =
        if meval.is_transparent() { trace::Kernel::Push } else { trace::Kernel::PushMasked };
    if span.on() && rows.as_compressed().is_some() {
        // A gap-encoded operand: a pull walks its rows with one cursor a
        // chunk and decodes each row only up to the dot's terminal or first
        // hit (its `decoded` and `seeks` say how far); a push decodes each
        // frontier row whole. Tagged beside the kernel.
        span.arg("storage", "compressed");
    }
    // The kernel, the side it reads `A` from, and whether it pushes.
    let (kernel, mat, push) = match (transposed, want_push, dual) {
        (true, true, _) => (push_kernel, rows, true),
        (true, false, Some(dv)) => (trace::Kernel::Pull, dv, false),
        (true, false, None) => (trace::Kernel::PushFallback, rows, true),
        (false, true, Some(dv)) => (push_kernel, dv, true),
        (false, true, None) => (trace::Kernel::PullFallback, rows, false),
        (false, false, _) => (trace::Kernel::Pull, rows, false),
    };
    span.kernel(kernel);
    // A pull probes the mask once per row, or, readied into words, walks
    // only the rows it admits, a word at a time; a push probes it once per
    // slot it opens, at most the entries it scans: m_f, the frontier's
    // summed row lengths, counted only for a mask that would otherwise
    // search.
    let probes = match (push, meval.searches()) {
        (false, _) => mat.majors().len(),
        (true, true) => frontier_entries(mat, uview).min(n_out),
        (true, false) => 0,
    };
    meval.ready_for(n_out, probes);
    let (t, actual) = if push {
        scatter(mat, uview, n_out, add, &f, &meval, shape)
    } else {
        let (t, work) = rowdot(mat, uview, n_in, add, &f, &meval, shape);
        span.arg("rows", work.rows);
        if span.on() && mat.as_compressed().is_some() {
            span.arg("decoded", work.decoded);
            span.arg("seeks", work.seeks);
        }
        (t, work.flops)
    };
    span.flops(actual);

    // A misprediction is an *Auto* choice (with the alternative actually
    // available) whose measured work, under the model, costs more than the
    // estimate of the direction we turned down. A push's work is the
    // entries it scanned — its frontier's row lengths — not its flops,
    // which skip mask-blocked and terminal-absorbed slots: a hub whose
    // leaves are all visited scans its whole row and books nothing. Only
    // the trace reads the verdict, so it is only reached with a sink on.
    if let (true, Direction::Auto, Some(dv)) = (span.on(), desc.direction, dual) {
        let m = cost::model();
        let (chosen, est_chosen, est_other, work, mis) = if want_push {
            let scanned = frontier_entries(if transposed { rows } else { dv }, uview);
            span.arg("scanned", scanned);
            ("push", est_push, est_pull, scanned, m.pull_cost(est_pull) < m.push_cost(scanned))
        } else {
            ("pull", est_pull, est_push, actual, m.push_cost(est_push) < m.pull_cost(actual))
        };
        if mis {
            trace::mxv_mispredict(chosen, est_chosen, est_other, work);
        }
    }
    drop(gu);
    drop(ga);
    // The kernels skipped every position the mask blocks: the result is
    // restricted to it already, and the write reuses the readied mask.
    write_under(w, &mut meval, accum, desc, t, true, &InverseSel::All)
}

/// m_f: the entries of `mat`'s rows at `u`'s entries — what a push from
/// `u` scans — read off the row pointers ([`SparseView::row_len`]).
fn frontier_entries<A: Scalar, U: Scalar>(mat: &dyn SparseView<A>, u: VView<'_, U>) -> usize {
    let mut m_f = 0usize;
    u.for_each(|k, _| m_f += mat.row_len(k));
    m_f
}

/// The fixed part of a pull's per-row cost (mask test, row look-up, the
/// store of the result), in units of one multiplied entry.
const ROW_COST: usize = 4;

/// One row's dot product, `⊕ f(A(i,j), u(j))` over the row's entries in
/// column order, folded in the call's [`Shape`]. The fold takes the
/// entries as an iterator, so a CSR row's slices and a compressed row's
/// gap decoder run the same code and stop at the same entry.
struct Dot<'a, A, U, T, SA, F, P> {
    shape: Shape<T>,
    add: &'a SA,
    f: &'a F,
    probe: &'a P,
    _operands: std::marker::PhantomData<fn(A, U)>,
}

impl<A, U, T, SA, F, P> Dot<'_, A, U, T, SA, F, P>
where
    A: Scalar,
    U: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    F: Fn(A, U) -> T,
    P: Fn(Index) -> Option<U>,
{
    /// The row's result (`None` when no entry meets `u`), adding the
    /// products it computed to `flops`. It stops at the first hit (ANY) or
    /// the terminal, and reads no entry past it.
    #[inline]
    fn row(&self, entries: impl Iterator<Item = (Index, A)>, flops: &mut usize) -> Option<T> {
        match self.shape {
            Shape::Fold | Shape::NoLoad => self.fold(entries, flops, |_| false),
            Shape::Terminal(t) => self.fold(entries, flops, |acc| acc == t),
            Shape::FirstHit => self.fold(entries, flops, |_| true),
        }
    }

    /// The row folded from its first product until `stop` holds. Each
    /// shape passes its own closure, so each gets its own loop.
    #[inline]
    fn fold(
        &self,
        mut entries: impl Iterator<Item = (Index, A)>,
        flops: &mut usize,
        stop: impl Fn(T) -> bool,
    ) -> Option<T> {
        let (add, f, probe) = (self.add, self.f, self.probe);
        let mut acc = loop {
            let (j, av) = entries.next()?;
            if let Some(uv) = probe(j) {
                *flops += 1;
                break f(av, uv);
            }
        };
        if stop(acc) {
            return Some(acc);
        }
        for (j, av) in entries {
            if let Some(uv) = probe(j) {
                *flops += 1;
                acc = add.apply(acc, f(av, uv));
                if stop(acc) {
                    break;
                }
            }
        }
        Some(acc)
    }
}

/// What a pull did: the products it computed (plus the dense-view build),
/// the rows it stepped through — each chunk's every row, or under a mask
/// held as presence words the rows it admits ([`Admitted`]) — and, on a
/// compressed operand, the gap entries it decoded and the times it
/// positioned a row cursor by select — once per chunk that reads a row.
#[derive(Clone, Copy, Default)]
struct PullWork {
    flops: usize,
    rows: usize,
    decoded: usize,
    seeks: usize,
}

impl PullWork {
    fn plus(self, o: PullWork) -> PullWork {
        PullWork {
            flops: self.flops.saturating_add(o.flops),
            rows: self.rows + o.rows,
            decoded: self.decoded + o.decoded,
            seeks: self.seeks + o.seeks,
        }
    }
}

/// The rows of a chunk's majors that a pull reads under a mask that holds
/// presence words, in increasing order: the set bits of each word (of its
/// complement under a complemented mask) clipped to the chunk's range of
/// rows, an empty CSR or layered row then skipped at one pointer compare.
enum Admitted<'a> {
    /// A CSR range, given its row pointers: the common case, kept to one
    /// compare a row.
    Csr(SetBits<'a>, &'a [usize]),
    /// A layered or compressed range.
    Words(SetBits<'a>, Majors<'a>),
}

impl<'a> Admitted<'a> {
    /// The word walk over `majors` under `mask`, or `None` — a valued
    /// full-length mask, a sparse one not readied into words, no mask, or
    /// a hypersparse operand's list of rows — when the pull walks every
    /// row and tests each.
    fn new(majors: &Majors<'a>, mask: &'a VMask<'_>) -> Option<Self> {
        let (words, r) = (mask.true_words()?, majors.range()?);
        let bits = SetBits::new(words, if mask.is_complement() { !0 } else { 0 }, r);
        Some(match majors {
            Majors::Rows(Some(p), _) => Admitted::Csr(bits, p),
            _ => Admitted::Words(bits, majors.clone()),
        })
    }

    /// The rows the mask admits in the range, which the walk steps through.
    fn walked(&self) -> usize {
        match self {
            Admitted::Csr(bits, _) | Admitted::Words(bits, _) => bits.total(),
        }
    }
}

impl Iterator for Admitted<'_> {
    type Item = Index;

    #[inline]
    fn next(&mut self) -> Option<Index> {
        match self {
            Admitted::Csr(bits, p) => bits.find(|&i| p[i + 1] > p[i]),
            Admitted::Words(bits, majors) => bits.find(|&i| majors.may_hold(i)),
        }
    }

    /// One loop for each walk, with the caller's body inlined in it.
    #[inline]
    fn fold<B, G: FnMut(B, Index) -> B>(self, init: B, g: G) -> B {
        match self {
            Admitted::Csr(bits, p) => bits.filter(|&i| p[i + 1] > p[i]).fold(init, g),
            Admitted::Words(bits, majors) => bits.filter(|&i| majors.may_hold(i)).fold(init, g),
        }
    }
}

/// [`rowdot_probe`]'s dot products over the rows `rows` admits, handing
/// each result to `emit`. Out of line, so the loop of a pull that walks
/// every row compiles as it does without it.
#[inline(never)]
fn dot_admitted<A, U, T, SA, F, P>(
    mat: &dyn SparseView<A>,
    dot: &Dot<'_, A, U, T, SA, F, P>,
    rows: Admitted<'_>,
    emit: &mut dyn FnMut(Index, T),
) -> PullWork
where
    A: Scalar,
    U: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    F: Fn(A, U) -> T,
    P: Fn(Index) -> Option<U>,
{
    let mut work = PullWork { rows: rows.walked(), ..PullWork::default() };
    let Some(cm) = mat.as_compressed() else {
        let mut scratch = crate::sparse::RowScratch::default();
        rows.for_each(|i| {
            let (ridx, rval) = mat.row(i, &mut scratch);
            if ridx.is_empty() {
                return;
            }
            let entries = ridx.iter().copied().zip(rval.iter().copied());
            if let Some(v) = dot.row(entries, &mut work.flops) {
                emit(i, v);
            }
        });
        return work;
    };
    let mut cursor = None;
    rows.for_each(|i| {
        let rows_at = cursor.get_or_insert_with(|| {
            work.seeks += 1;
            cm.rows_from(i)
        });
        let mut entries = rows_at.row(i);
        let len = entries.len();
        if len == 0 {
            return;
        }
        let acc = dot.row(&mut entries, &mut work.flops);
        work.decoded += len - entries.len();
        if let Some(v) = acc {
            emit(i, v);
        }
    });
    work
}

/// The positions in `start..end` whose bit is set in `words ^ flip`, in
/// increasing order, one word load and a trailing-zeros count at a time.
struct SetBits<'a> {
    words: &'a [u64],
    flip: u64,
    /// The bits of the word at `base` not yet handed out.
    cur: u64,
    /// The first position, and the one past the last.
    start: Index,
    end: Index,
    base: Index,
}

impl<'a> SetBits<'a> {
    fn new(words: &'a [u64], flip: u64, r: std::ops::Range<Index>) -> Self {
        let base = r.start & !63;
        let mut bits = SetBits { words, flip, cur: 0, start: r.start, base, end: r.end };
        if r.start < r.end {
            bits.cur = bits.word(base, !0u64 << (r.start & 63));
        }
        bits
    }

    /// How many positions the walk hands out in all.
    fn total(&self) -> usize {
        let first = self.start & !63;
        (first..self.end).step_by(64).fold(0, |n, at| {
            let keep = if at == first { !0u64 << (self.start & 63) } else { !0 };
            n + self.word(at, keep).count_ones() as usize
        })
    }

    /// The word at `at`, flipped, under `keep` and with its bits at or past
    /// `end` clear.
    #[inline]
    fn word(&self, at: Index, keep: u64) -> u64 {
        let word = (self.words[at >> 6] ^ self.flip) & keep;
        match self.end - at {
            left if left < 64 => word & ((1u64 << left) - 1),
            _ => word,
        }
    }
}

impl Iterator for SetBits<'_> {
    type Item = Index;

    #[inline]
    fn next(&mut self) -> Option<Index> {
        while self.cur == 0 {
            self.base += 64;
            if self.base >= self.end {
                return None;
            }
            self.cur = self.word(self.base, !0);
        }
        let i = self.base + self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        Some(i)
    }
}

/// Pull kernel: `out(i) = ⊕ f(row_i(j), u(j))` over the intersection of
/// row `i`'s pattern with `u`'s. Rows the mask excludes are skipped, and
/// each dot product stops at the monoid's terminal value. Returns the
/// result plus the work done ([`PullWork`]: the flops actually performed —
/// products computed, plus the dense-view build when `u` arrived sparse —
/// for misprediction checks).
///
/// A pull walks the matrix's majors in place and never lists them first.
/// Under a mask that holds presence words (a structural full-length mask, or
/// a sparse one readied into words) it walks only the rows the mask admits,
/// a word at a time ([`Admitted`]): a masked pull costs the rows its mask
/// admits, plus each one's entries up to its first hit. Otherwise it walks
/// every row of a CSR or compressed matrix, or the occupied ones of a
/// hypersparse one, testing each against the mask; an empty CSR or layered
/// row is skipped at one pointer compare either way. When the non-empty
/// rows are a fair share of the output (1/32, the density a full-length
/// vector keeps) workers write the result straight into full-length
/// arrays — disjoint row windows, nothing to stitch, and no more than the
/// kernel already spends per row; otherwise (a hypersparse matrix) the
/// per-chunk lists are concatenated in chunk order. A compressed matrix's
/// chunk reads its rows through one row cursor, positioned at the chunk's
/// first row the mask allows, and decodes each row's gaps only as far as
/// the dot reads.
///
/// A full-length `u` is probed through its packed words directly — no
/// dense view is built, which is what makes the pull side free to enter
/// for full-length frontiers (`dense_build = 0` in the cost estimate).
fn rowdot<A, U, T, SA, F>(
    mat: &dyn SparseView<A>,
    u: VView<'_, U>,
    n_in: Index,
    add: &SA,
    f: &F,
    mask: &VMask<'_>,
    shape: Shape<T>,
) -> (VecResult<T>, PullWork)
where
    A: Scalar,
    U: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    F: Fn(A, U) -> T + Sync,
{
    // Probes go through packed presence words either way: a full-length
    // `u` as it stands, a sparse one scattered into a full-length copy.
    let owned;
    let (uval, ubits, build_flops) = match u {
        VView::Full(val, bits) => (val, bits, 0),
        VView::Sparse(idx, val) => {
            let mut dval = vec![U::zero(); n_in];
            let mut dbits = vec![0u64; n_in.div_ceil(64)];
            for (&i, &v) in idx.iter().zip(val) {
                dval[i] = v;
                dbits[i >> 6] |= 1 << (i & 63);
            }
            owned = (dval, dbits);
            (&owned.0[..], &owned.1[..], n_in)
        }
    };
    let probe = |j: Index| bitmap_get(ubits, j).then(|| uval[j]);
    rowdot_probe(mat, add, f, mask, shape, build_flops, &probe)
}

/// The row-loop core of [`rowdot`], generic over the input-vector probe.
fn rowdot_probe<A, U, T, SA, F, P>(
    mat: &dyn SparseView<A>,
    add: &SA,
    f: &F,
    mask: &VMask<'_>,
    shape: Shape<T>,
    build_flops: usize,
    probe: &P,
) -> (VecResult<T>, PullWork)
where
    A: Scalar,
    U: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    F: Fn(A, U) -> T + Sync,
    P: Fn(Index) -> Option<U> + Sync,
{
    let majors = mat.majors();
    let dot = Dot { shape, add, f, probe, _operands: std::marker::PhantomData };
    // The dot products of `rows`, handing each result to `emit`.
    let dot_rows = |rows: Majors<'_>, emit: &mut dyn FnMut(Index, T)| {
        if let Some(admitted) = Admitted::new(&rows, mask) {
            return dot_admitted(mat, &dot, admitted, emit);
        }
        // Every row, each tested against the mask.
        let mut work = PullWork { rows: rows.len(), ..PullWork::default() };
        let Some(cm) = mat.as_compressed() else {
            let mut scratch = crate::sparse::RowScratch::default();
            for i in rows {
                if !mask.allowed(i) {
                    continue;
                }
                let (ridx, rval) = mat.row(i, &mut scratch);
                if ridx.is_empty() {
                    continue;
                }
                let entries = ridx.iter().copied().zip(rval.iter().copied());
                if let Some(v) = dot.row(entries, &mut work.flops) {
                    emit(i, v);
                }
            }
            return work;
        };
        let mut cursor = None;
        for i in rows {
            if !mask.allowed(i) {
                continue;
            }
            let rows_at = cursor.get_or_insert_with(|| {
                work.seeks += 1;
                cm.rows_from(i)
            });
            let mut entries = rows_at.row(i);
            let len = entries.len();
            if len == 0 {
                continue;
            }
            let acc = dot.row(&mut entries, &mut work.flops);
            work.decoded += len - entries.len();
            if let Some(v) = acc {
                emit(i, v);
            }
        }
        work
    };
    let n_out = mat.nmajor();
    // What the cut weighs a stretch of rows by. A dot that multiplies every
    // entry costs its row's length on top of a fixed part (mask test, row
    // look-up, the store). One that stops at its first hit — a terminal or
    // ANY monoid, every pull of a BFS — costs about the same whatever the
    // row holds, and cutting it by entries would leave the long sparse tail
    // of a skewed graph to whoever claims the last chunk.
    let weight = |rows: usize, entries: usize| {
        if shape.stops_early() {
            rows
        } else {
            entries + ROW_COST * rows
        }
    };
    let (t, work) = if n_out <= DENSE_LIMIT && mat.nvecs().saturating_mul(SPARSIFY_RATIO) >= n_out {
        let mut val = vec![T::zero(); n_out];
        let mut bits = vec![0u64; n_out.div_ceil(64)];
        let before = |i| weight(i, mat.entries_before(i));
        let full = FullMut::new(&mut val, &mut bits);
        let parts = par_windows_weighted(full, mat.nvals(), before, |win| {
            let mut stored = 0usize;
            let work = dot_rows(majors.within(win.range()), &mut |i, v| {
                win.set(i, v);
                stored += 1;
            });
            (stored, work)
        });
        let (nvals, work) = parts
            .into_iter()
            .fold((0, PullWork::default()), |(n, all), (s, w)| (n + s, all.plus(w)));
        (VecResult::Full { val, bits, nvals }, work)
    } else {
        let before = |k| weight(k, majors.get(k).map_or(mat.nvals(), |i| mat.entries_before(i)));
        let oversplit = Chunking::Oversplit;
        let chunks = par_chunks_weighted(majors.len(), mat.nvals(), oversplit, before, |range| {
            let mut idx = Vec::new();
            let mut val = Vec::new();
            let work = dot_rows(majors.slice(range), &mut |i, v| {
                idx.push(i);
                val.push(v);
            });
            (idx, val, work)
        });
        let (idx, val, work) = concat_chunks(chunks);
        (VecResult::Lists(idx, val), work)
    };
    let build = PullWork { flops: build_flops, ..PullWork::default() };
    (t, work.plus(build))
}

/// Push kernel: scatter matrix rows selected by `u`'s entries into dense
/// (or tree, for huge dimensions) accumulators, in parallel.
///
/// The frontier is partitioned across the pool; each chunk owns a private
/// [`DenseAcc`] sized to `n_out` (stamp arrays are pooled per thread) and
/// the chunks are combined position by position in ascending chunk order
/// — by output window into a full-length result ([`full_from_accs`]), or,
/// for a result too sparse for that, as sorted lists
/// ([`merge_scatter_chunks`]). That is the order the sequential loop would
/// have used, so results are bitwise identical at every thread count for
/// an associative monoid.
///
/// Two skips keep the inner loop tight:
/// * **mask**: a position the mask excludes is probed once, marked
///   [`Slot::Blocked`], and never touched again — filtering happens here
///   instead of deferring everything to `write_vector`;
/// * **terminal/ANY**: a slot that has reached the monoid's terminal value
///   (or any value, for ANY) absorbs later contributions without applying
///   the operator — the scatter-side analogue of pull's early exit.
fn scatter<A, U, T, SA, F>(
    mat: &dyn SparseView<A>,
    u: VView<'_, U>,
    n_out: Index,
    add: &SA,
    f: &F,
    mask: &VMask<'_>,
    shape: Shape<T>,
) -> (VecResult<T>, usize)
where
    A: Scalar,
    U: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    F: Fn(A, U) -> T + Sync,
{
    let mut entries: Vec<(Index, U)> = Vec::new();
    u.for_each(|k, uk| entries.push((k, uk)));
    let deg = (mat.nvals() / mat.nmajor().max(1)).max(1);
    let est = entries.len().saturating_mul(deg);
    // The cut weighs each frontier entry by the row it expands — a hub in
    // the frontier is a chunk's worth of work by itself. One O(frontier)
    // pass over the row pointers, made only when the push goes parallel.
    let expanded = std::cell::OnceCell::new();
    let row_len = |&(r, _): &(Index, U)| mat.row_len(r);
    let before = |k: usize| expanded.get_or_init(|| prefix_sums(entries.iter().map(row_len)))[k];
    // One dense accumulator per chunk costs O(n_out) to set up, so the
    // frontier is cut into exactly one chunk per thread.
    let chunks = par_chunks_weighted(entries.len(), est, Chunking::PerThread, before, |range| {
        let part = &entries[range];
        match shape {
            Shape::Fold | Shape::NoLoad => scatter_part(mat, part, n_out, add, f, mask, |_| false),
            Shape::Terminal(t) => scatter_part(mat, part, n_out, add, f, mask, |cur| cur == t),
            Shape::FirstHit => scatter_part(mat, part, n_out, add, f, mask, |_| true),
        }
    });
    let total_flops = chunks.iter().fold(0usize, |s, (_, fl)| s.saturating_add(*fl));
    // Accumulators that together filled a fair share of the output's slots
    // are the full-length result already: hand it over unsorted. The share
    // is of *distinct* slots — what one chunk would have touched — so the
    // form of the result does not depend on the thread count either.
    let accs: Option<Vec<&DenseAcc<T>>> = chunks.iter().map(|(part, _)| part.acc()).collect();
    if accs.is_some_and(|accs| distinct_touched(&accs, n_out.div_ceil(SPARSIFY_RATIO))) {
        let accs = chunks.into_iter().filter_map(|(part, _)| part.into_acc()).collect();
        return (full_from_accs(accs, add), total_flops);
    }
    let parts = chunks
        .into_iter()
        .map(|(part, _)| match part {
            Part::Acc(mut acc) => acc.drain_sorted(),
            Part::Lists(idx, val) => (idx, val),
        })
        .collect();
    let (idx, val) = merge_scatter_chunks(parts, |a, b| add.apply(a, b));
    (VecResult::Lists(idx, val), total_flops)
}

/// What one chunk of the frontier scattered into.
enum Part<T> {
    Acc(DenseAcc<T>),
    Lists(Vec<Index>, Vec<T>),
}

impl<T> Part<T> {
    fn acc(&self) -> Option<&DenseAcc<T>> {
        match self {
            Part::Acc(acc) => Some(acc),
            Part::Lists(..) => None,
        }
    }
    fn into_acc(self) -> Option<DenseAcc<T>> {
        match self {
            Part::Acc(acc) => Some(acc),
            Part::Lists(..) => None,
        }
    }
}

/// Scatter one chunk of the frontier, `entries`, and count the products.
/// A slot whose value `absorbs` takes no further products: any value under
/// ANY, the terminal under a terminal monoid, none under a plain fold.
/// Each shape passes its own closure, so each gets its own loop.
fn scatter_part<A, U, T, SA, F>(
    mat: &dyn SparseView<A>,
    entries: &[(Index, U)],
    n_out: Index,
    add: &SA,
    f: &F,
    mask: &VMask<'_>,
    absorbs: impl Fn(T) -> bool,
) -> (Part<T>, usize)
where
    A: Scalar,
    U: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    F: Fn(A, U) -> T,
{
    const DENSE_ACC_LIMIT: usize = 1 << 26;
    let mut flops = 0usize;
    let mut scratch = crate::sparse::RowScratch::default();
    if n_out <= DENSE_ACC_LIMIT {
        let mut acc = DenseAcc::<T>::new(n_out);
        for &(k, uk) in entries {
            let (ridx, rval) = mat.row(k, &mut scratch);
            for (&j, &av) in ridx.iter().zip(rval) {
                match acc.slot(j) {
                    Slot::Blocked => {}
                    Slot::Empty => {
                        if mask.allowed(j) {
                            flops += 1;
                            acc.insert(j, f(av, uk));
                        } else {
                            acc.block(j);
                        }
                    }
                    Slot::Active => {
                        let cur = acc.value(j);
                        if absorbs(cur) {
                            continue;
                        }
                        flops += 1;
                        acc.set(j, add.apply(cur, f(av, uk)));
                    }
                }
            }
        }
        return (Part::Acc(acc), flops);
    }
    // Tree accumulator for huge dimensions; `None` marks a probed,
    // mask-blocked position.
    use std::collections::btree_map::Entry;
    let mut acc = std::collections::BTreeMap::<Index, Option<T>>::new();
    for &(k, uk) in entries {
        let (ridx, rval) = mat.row(k, &mut scratch);
        for (&j, &av) in ridx.iter().zip(rval) {
            match acc.entry(j) {
                Entry::Vacant(e) => {
                    if mask.allowed(j) {
                        flops += 1;
                        e.insert(Some(f(av, uk)));
                    } else {
                        e.insert(None);
                    }
                }
                Entry::Occupied(mut e) => {
                    if let Some(cur) = *e.get() {
                        if absorbs(cur) {
                            continue;
                        }
                        flops += 1;
                        e.insert(Some(add.apply(cur, f(av, uk))));
                    }
                }
            }
        }
    }
    let (idx, val) = acc.into_iter().filter_map(|(j, v)| v.map(|v| (j, v))).unzip();
    (Part::Lists(idx, val), flops)
}

/// Whether the accumulators touched at least `want` distinct slots between
/// them. The largest and the summed touch counts bound the answer from
/// below and above; only a push that lands between the two is counted, one
/// probe of the earlier chunks per touched slot.
fn distinct_touched<T: Scalar>(accs: &[&DenseAcc<T>], want: usize) -> bool {
    let counts = accs.iter().map(|acc| acc.touched().len());
    if counts.clone().max().unwrap_or(0) >= want {
        return true;
    }
    if counts.sum::<usize>() < want {
        return false;
    }
    let fresh = |c: usize, j: Index| accs[..c].iter().all(|acc| acc.slot(j) != Slot::Active);
    let distinct = accs
        .iter()
        .enumerate()
        .map(|(c, acc)| acc.touched().iter().filter(|&&j| fresh(c, j)).count());
    distinct.sum::<usize>() >= want
}

/// The full-length result of a push from its chunks' accumulators. One
/// chunk's value array is the result as it stands. Several are folded by
/// output window, in parallel: each position combines the chunks that
/// reached it in chunk order — the order [`merge_scatter_chunks`] defines
/// — so first-touch (ANY), terminal and floating-point results are
/// bit-identical to the sorted-list merge, without a sort.
fn full_from_accs<T: Scalar, SA: Monoid<T>>(mut accs: Vec<DenseAcc<T>>, add: &SA) -> VecResult<T> {
    if accs.len() == 1 {
        let (val, bits, nvals) = accs.pop().expect("one accumulator").into_full();
        return VecResult::Full { val, bits, nvals };
    }
    let n = accs[0].len();
    let mut val = vec![T::zero(); n];
    let mut bits = vec![0u64; n.div_ceil(64)];
    let stored =
        par_windows(FullMut::new(&mut val, &mut bits), n.saturating_mul(accs.len()), |win| {
            let mut stored = 0usize;
            for j in win.range() {
                let mut reached = accs.iter().filter(|acc| acc.slot(j) == Slot::Active);
                if let Some(first) = reached.next() {
                    win.set(
                        j,
                        reached.fold(first.value(j), |cur, acc| add.apply(cur, acc.value(j))),
                    );
                    stored += 1;
                }
            }
            stored
        });
    VecResult::Full { val, bits, nvals: stored.into_iter().sum() }
}

fn concat_chunks<T>(chunks: Vec<(Vec<Index>, Vec<T>, PullWork)>) -> (Vec<Index>, Vec<T>, PullWork) {
    let total: usize = chunks.iter().map(|(i, _, _)| i.len()).sum();
    let mut idx = Vec::with_capacity(total);
    let mut val = Vec::with_capacity(total);
    let mut work = PullWork::default();
    for (ci, cv, w) in chunks {
        idx.extend(ci);
        val.extend(cv);
        work = work.plus(w);
    }
    (idx, val, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::common::NOACC;
    use crate::semiring::{LOR_LAND, MIN_PLUS, PLUS_TIMES};

    /// 0→1, 0→2, 1→2, 2→0 with weights.
    fn digraph() -> Matrix<f64> {
        Matrix::from_tuples(
            3,
            3,
            vec![(0, 1, 1.0), (0, 2, 4.0), (1, 2, 2.0), (2, 0, 8.0)],
            |_, b| b,
        )
        .expect("build")
    }

    #[test]
    fn mxv_plus_times_matches_hand_computation() {
        let a = digraph();
        let u = Vector::from_tuples(3, vec![(0, 1.0), (1, 2.0), (2, 3.0)], |_, b| b).expect("u");
        let mut w = Vector::<f64>::new(3).expect("w");
        mxv(&mut w, None, NOACC, &PLUS_TIMES, &a, &u, &Descriptor::default()).expect("mxv");
        // w0 = 1*2 + 4*3 = 14; w1 = 2*3 = 6... careful: row0 = {1:1, 2:4}.
        assert_eq!(
            w.extract_tuples(),
            vec![(0, 1.0 * 2.0 + 4.0 * 3.0), (1, 2.0 * 3.0), (2, 8.0 * 1.0)]
        );
    }

    #[test]
    fn mxv_transposed_equals_vxm() {
        let a = digraph();
        let u = Vector::from_tuples(3, vec![(0, 1.0), (2, 5.0)], |_, b| b).expect("u");
        let mut w1 = Vector::<f64>::new(3).expect("w1");
        mxv(&mut w1, None, NOACC, &PLUS_TIMES, &a, &u, &Descriptor::new().transpose_a())
            .expect("mxv T");
        let mut w2 = Vector::<f64>::new(3).expect("w2");
        vxm(&mut w2, None, NOACC, &PLUS_TIMES, &u, &a, &Descriptor::default()).expect("vxm");
        assert_eq!(w1.extract_tuples(), w2.extract_tuples());
        // (Aᵀ u)_1 = A(0,1) u0 = 1; _2 = A(0,2) u0 = 4; _0 = A(2,0) u2 = 40.
        assert_eq!(w1.extract_tuples(), vec![(0, 40.0), (1, 1.0), (2, 4.0)]);
    }

    #[test]
    fn sparse_frontier_reachability() {
        let a = Matrix::from_tuples(4, 4, vec![(0, 1, true), (1, 2, true), (2, 3, true)], |_, b| b)
            .expect("a");
        let q = Vector::from_tuples(4, vec![(0, true)], |_, b| b).expect("q");
        let mut next = Vector::<bool>::new(4).expect("next");
        vxm(&mut next, None, NOACC, &LOR_LAND, &q, &a, &Descriptor::default()).expect("vxm");
        assert_eq!(next.extract_tuples(), vec![(1, true)]);
    }

    #[test]
    fn min_plus_relaxation_step() {
        let a = digraph();
        let dist = Vector::from_tuples(3, vec![(0, 0.0)], |_, b| b).expect("dist");
        let mut relaxed = Vector::<f64>::new(3).expect("r");
        // one Bellman-Ford step from the source: dᵀ min.+ A
        vxm(&mut relaxed, None, NOACC, &MIN_PLUS, &dist, &a, &Descriptor::default()).expect("vxm");
        assert_eq!(relaxed.extract_tuples(), vec![(1, 1.0), (2, 4.0)]);
    }

    #[test]
    fn masked_mxv_skips_rows() {
        let a = digraph();
        let u = Vector::dense(3, 1.0).expect("u");
        let mask = Vector::from_tuples(3, vec![(1, true)], |_, b| b).expect("mask");
        let mut w = Vector::<f64>::new(3).expect("w");
        mxv(&mut w, Some(&mask), NOACC, &PLUS_TIMES, &a, &u, &Descriptor::default()).expect("mxv");
        assert_eq!(w.extract_tuples(), vec![(1, 2.0)]);
    }

    #[test]
    fn dual_storage_enables_push_with_identical_result() {
        let mut a = digraph();
        let u = Vector::from_tuples(3, vec![(1, 2.0)], |_, b| b).expect("u");
        let mut pull = Vector::<f64>::new(3).expect("pull");
        mxv(&mut pull, None, NOACC, &PLUS_TIMES, &a, &u, &Descriptor::default()).expect("pull");
        a.set_dual_storage(true);
        let mut push = Vector::<f64>::new(3).expect("push");
        mxv(
            &mut push,
            None,
            NOACC,
            &PLUS_TIMES,
            &a,
            &u,
            &Descriptor::new().direction(Direction::Push),
        )
        .expect("push");
        assert_eq!(pull.extract_tuples(), push.extract_tuples());
    }

    #[test]
    fn dual_storage_invalidation_on_mutation() {
        let mut a = digraph();
        a.set_dual_storage(true);
        let u = Vector::dense(3, 1.0).expect("u");
        let mut w = Vector::<f64>::new(3).expect("w");
        mxv(&mut w, None, NOACC, &PLUS_TIMES, &a, &u, &Descriptor::default()).expect("warm");
        a.set_element(0, 1, 100.0).expect("set");
        let mut w2 = Vector::<f64>::new(3).expect("w2");
        mxv(
            &mut w2,
            None,
            NOACC,
            &PLUS_TIMES,
            &a,
            &u,
            &Descriptor::new().direction(Direction::Push),
        )
        .expect("push after mutation");
        assert_eq!(w2.get(0), Some(100.0 + 4.0));
    }

    #[test]
    fn explicit_push_without_dual_falls_back_to_pull() {
        // Push on the row-output form needs the transposed (dual) storage.
        // Without it the direction hint must degrade to the natural pull
        // kernel instead of panicking.
        let a = digraph();
        let u = Vector::from_tuples(3, vec![(0, 1.0), (1, 2.0), (2, 3.0)], |_, b| b).expect("u");
        let mut w = Vector::<f64>::new(3).expect("w");
        mxv(
            &mut w,
            None,
            NOACC,
            &PLUS_TIMES,
            &a,
            &u,
            &Descriptor::new().direction(Direction::Push),
        )
        .expect("push hint without dual storage must not fail");
        assert_eq!(
            w.extract_tuples(),
            vec![(0, 1.0 * 2.0 + 4.0 * 3.0), (1, 2.0 * 3.0), (2, 8.0 * 1.0)]
        );
    }

    #[test]
    fn explicit_pull_without_dual_falls_back_to_push() {
        // Pull on the column-output form (vxm / transposed mxv) needs the
        // dual storage; without it the hint degrades to the natural push.
        let a = digraph();
        let u = Vector::from_tuples(3, vec![(0, 1.0), (2, 5.0)], |_, b| b).expect("u");
        let mut w = Vector::<f64>::new(3).expect("w");
        vxm(
            &mut w,
            None,
            NOACC,
            &PLUS_TIMES,
            &u,
            &a,
            &Descriptor::new().direction(Direction::Pull),
        )
        .expect("pull hint without dual storage must not fail");
        assert_eq!(w.extract_tuples(), vec![(0, 40.0), (1, 1.0), (2, 4.0)]);
    }

    #[test]
    fn every_direction_agrees_with_and_without_dual() {
        // No combination of direction hint × dual-storage state may panic,
        // and all must agree bit-for-bit on the result.
        let u = Vector::from_tuples(3, vec![(1, 2.0), (2, 0.5)], |_, b| b).expect("u");
        let base = {
            let a = digraph();
            let mut w = Vector::<f64>::new(3).expect("w");
            mxv(&mut w, None, NOACC, &PLUS_TIMES, &a, &u, &Descriptor::default()).expect("base");
            w.extract_tuples()
        };
        for with_dual in [false, true] {
            for dir in [Direction::Auto, Direction::Push, Direction::Pull] {
                let mut a = digraph();
                a.set_dual_storage(with_dual);
                let mut w = Vector::<f64>::new(3).expect("w");
                mxv(&mut w, None, NOACC, &PLUS_TIMES, &a, &u, &Descriptor::new().direction(dir))
                    .expect("mxv");
                assert_eq!(w.extract_tuples(), base, "dual={with_dual} dir={dir:?}");
                let mut t = Vector::<f64>::new(3).expect("t");
                vxm(&mut t, None, NOACC, &PLUS_TIMES, &u, &a, &Descriptor::new().direction(dir))
                    .expect("vxm");
            }
        }
    }

    #[test]
    fn dimension_checks() {
        let a = digraph();
        let u = Vector::<f64>::new(4).expect("u");
        let mut w = Vector::<f64>::new(3).expect("w");
        assert!(mxv(&mut w, None, NOACC, &PLUS_TIMES, &a, &u, &Descriptor::default()).is_err());
    }

    #[test]
    fn fig2_bfs_iteration_semantics() {
        // One iteration of the Fig. 2 BFS line:
        //   frontier<¬levels,replace> = graphᵀ ⊕.⊗ frontier
        let graph = Matrix::from_tuples(
            4,
            4,
            vec![(0, 1, true), (0, 2, true), (1, 3, true), (2, 3, true)],
            |_, b| b,
        )
        .expect("graph");
        let levels = Vector::from_tuples(4, vec![(0, 1i32)], |_, b| b).expect("levels");
        let mut frontier = Vector::from_tuples(4, vec![(0, true)], |_, b| b).expect("q");
        let lv_mask = levels.pattern();
        let f = frontier.clone();
        mxv(
            &mut frontier,
            Some(&lv_mask),
            NOACC,
            &LOR_LAND,
            &graph,
            &f,
            &crate::descriptor::DESC_TRAN_COMP_REPLACE,
        )
        .expect("bfs step");
        assert_eq!(frontier.extract_tuples(), vec![(1, true), (2, true)]);
    }
}
