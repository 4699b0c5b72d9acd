//! Read-optimized compressed sparse rows in the WebGraph style.
//!
//! A [`CompressedMat`] stores each row's column indices as delta gaps
//! encoded with γ or δ instantaneous codes (whichever is smaller for the
//! whole matrix), two Elias-Fano monotone sequences give O(1) random
//! access to any row (cumulative entry counts and bit offsets into the
//! gap stream), and values live in a separate *plane* that collapses to
//! zero bits when every stored value is equal (pattern matrices) or to a
//! fixed narrow width when values are small non-negative integers.
//!
//! The same layout round-trips through a versioned on-disk container
//! (`.lagc`, written by `crates/io`) whose sections are 8-byte-aligned
//! `u64` arrays, so a reload can memory-map the file and point the
//! [`Words`] sections straight into the mapping — startup cost is O(1)
//! in the number of edges, not a parse-and-assemble.
//!
//! Kernels read this form's rows as they read every form's, through
//! `SparseView::row`, which here decodes into caller scratch at the cost
//! of one select for the row's pointer pair and one for its bit offset. A
//! pull walks its rows in order instead: a row cursor steps both
//! sequences a row at a time after one select, and decodes a row's gaps
//! only as far as the dot product reads them.

use std::io::{self, Read as _, Write};
use std::ops::Deref;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use crate::parallel::par_chunks;
use crate::sparse::{Cs, RowScratch, SparseView};
use crate::types::{Index, Scalar};

/// Sample the position of every `SAMPLE`-th set bit in an Elias-Fano
/// upper bitmap so `select1` scans at most `SAMPLE` ones.
const SAMPLE: usize = 64;

// ---------------------------------------------------------------------------
// Bit I/O: LSB-first over u64 words.
// ---------------------------------------------------------------------------

/// Append-only bit stream, least-significant bit of word 0 first.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    words: Vec<u64>,
    bitlen: usize,
}

impl BitWriter {
    /// An empty stream.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Number of bits written so far.
    pub fn bitlen(&self) -> usize {
        self.bitlen
    }

    /// Append the low `n` bits of `bits` (`n ≤ 64`).
    pub fn push_bits(&mut self, bits: u64, n: u32) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        let bits = if n == 64 { bits } else { bits & ((1u64 << n) - 1) };
        let word = self.bitlen >> 6;
        let off = (self.bitlen & 63) as u32;
        if word >= self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= bits << off;
        if off + n > 64 {
            self.words.push(bits >> (64 - off));
        }
        self.bitlen += n as usize;
    }

    /// `q` zero bits followed by a one bit.
    pub fn write_unary(&mut self, mut q: u64) {
        while q >= 64 {
            self.push_bits(0, 64);
            q -= 64;
        }
        self.push_bits(1u64 << q, q as u32 + 1);
    }

    /// Elias γ code of `x ≥ 1`: unary `⌊log₂x⌋` then the low bits.
    pub fn write_gamma(&mut self, x: u64) {
        debug_assert!(x >= 1);
        let b = 63 - x.leading_zeros();
        self.write_unary(b as u64);
        self.push_bits(x, b);
    }

    /// Elias δ code of `x ≥ 1`: γ(⌊log₂x⌋ + 1) then the low bits.
    pub fn write_delta(&mut self, x: u64) {
        debug_assert!(x >= 1);
        let b = 63 - x.leading_zeros();
        self.write_gamma(b as u64 + 1);
        self.push_bits(x, b);
    }

    /// Append another writer's bits, shifting to this writer's phase —
    /// how per-chunk parallel encoders are stitched into one stream.
    pub fn append(&mut self, other: &BitWriter) {
        if self.bitlen & 63 == 0 {
            self.words.truncate(self.bitlen >> 6);
            self.words.extend_from_slice(&other.words[..other.bitlen.div_ceil(64)]);
            self.bitlen += other.bitlen;
            return;
        }
        let mut rem = other.bitlen;
        for &w in &other.words {
            if rem == 0 {
                break;
            }
            let n = rem.min(64) as u32;
            self.push_bits(w, n);
            rem -= n as usize;
        }
    }

    /// The backing words, exactly `⌈bitlen/64⌉` of them.
    pub fn into_words(mut self) -> Vec<u64> {
        self.words.truncate(self.bitlen.div_ceil(64));
        self.words
    }
}

/// Number of bits `write_gamma(x)` produces.
pub fn gamma_len(x: u64) -> usize {
    let b = (63 - x.leading_zeros()) as usize;
    2 * b + 1
}

/// Number of bits `write_delta(x)` produces.
pub fn delta_len(x: u64) -> usize {
    let b = (63 - x.leading_zeros()) as usize;
    b + gamma_len(b as u64 + 1)
}

/// Cursor over an LSB-first bit stream. Reads must stay within the bits
/// actually written; well-formed streams guarantee that.
pub struct BitReader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// A cursor positioned at absolute bit `bitpos`.
    pub fn at(words: &'a [u64], bitpos: usize) -> Self {
        BitReader { words, pos: bitpos }
    }

    /// The next `n` bits as an integer (`n ≤ 64`).
    pub fn read_bits(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 64);
        if n == 0 {
            return 0;
        }
        let word = self.pos >> 6;
        let off = (self.pos & 63) as u32;
        let mut v = self.words[word] >> off;
        if off + n > 64 {
            v |= self.words[word + 1] << (64 - off);
        }
        self.pos += n as usize;
        if n == 64 {
            v
        } else {
            v & ((1u64 << n) - 1)
        }
    }

    /// Count of zero bits before the next one bit (which is consumed).
    pub fn read_unary(&mut self) -> u64 {
        let mut q = 0u64;
        loop {
            let word = self.pos >> 6;
            let off = self.pos & 63;
            let v = self.words[word] >> off;
            if v == 0 {
                q += (64 - off) as u64;
                self.pos += 64 - off;
            } else {
                let t = v.trailing_zeros() as u64;
                self.pos += t as usize + 1;
                return q + t;
            }
        }
    }

    /// Decode one Elias γ codeword.
    pub fn read_gamma(&mut self) -> u64 {
        let b = self.read_unary() as u32;
        (1u64 << b) | self.read_bits(b)
    }

    /// Decode one Elias δ codeword.
    pub fn read_delta(&mut self) -> u64 {
        let b = (self.read_gamma() - 1) as u32;
        (1u64 << b) | self.read_bits(b)
    }
}

// ---------------------------------------------------------------------------
// Word storage: owned vectors or slices of a shared memory mapping.
// ---------------------------------------------------------------------------

/// A `u64` array that is either heap-owned or a zero-copy window into a
/// memory-mapped `.lagc` file (offset is 8-byte-aligned, and the mapping
/// itself is page-aligned, so the cast below is always aligned).
pub enum Words {
    /// Heap-allocated words.
    Owned(Vec<u64>),
    /// `len` words at byte offset `off` (8-aligned) of a shared mapping.
    Mapped {
        /// The shared file mapping the words point into.
        map: Arc<MmapFile>,
        /// Byte offset of the first word; always a multiple of 8.
        off: usize,
        /// Number of `u64` words in the window.
        len: usize,
    },
}

impl Deref for Words {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        match self {
            Words::Owned(v) => v,
            // SAFETY: `from_path` builds every window, and only after its
            // checked layout sums equal the file's size, so `off + 8 * len`
            // lies inside the mapping (`lagc_rejects_a_header_whose_lengths_wrap`
            // holds a header that wraps them to Err). `off` is `HEADER_BYTES`
            // plus whole words from a page-aligned base: aligned for `u64`.
            // The mapping is read-only and lives as long as `map` does.
            Words::Mapped { map, off, len } => unsafe {
                std::slice::from_raw_parts(map.bytes().as_ptr().add(*off) as *const u64, *len)
            },
        }
    }
}

impl Clone for Words {
    fn clone(&self) -> Self {
        match self {
            Words::Owned(v) => Words::Owned(v.clone()),
            Words::Mapped { map, off, len } => {
                Words::Mapped { map: Arc::clone(map), off: *off, len: *len }
            }
        }
    }
}

impl std::fmt::Debug for Words {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Words::Owned(v) => write!(f, "Words::Owned({} words)", v.len()),
            Words::Mapped { len, .. } => write!(f, "Words::Mapped({len} words)"),
        }
    }
}

impl From<Vec<u64>> for Words {
    fn from(v: Vec<u64>) -> Self {
        Words::Owned(v)
    }
}

impl Words {
    fn is_mapped(&self) -> bool {
        matches!(self, Words::Mapped { .. })
    }
}

/// Read-only memory mapping of a whole file, created with a direct
/// `mmap(2)` call (no external crate). Dropped with `munmap`.
pub struct MmapFile {
    #[cfg(unix)]
    ptr: *mut u8,
    #[cfg(unix)]
    len: usize,
    #[cfg(not(unix))]
    _never: (),
}

// SAFETY: the mapping is PROT_READ and MAP_PRIVATE, and nothing writes
// through `ptr`: any thread may read it, and the one `munmap` runs in
// `Drop`, after the last `Arc` goes. `lagc_service` serves a mapped graph
// to query threads, and `compressed_storage_gives_the_same_checksums` runs
// kernels over one at 8 threads.
#[cfg(unix)]
unsafe impl Send for MmapFile {}
// SAFETY: as for `Send`: shared access only ever reads.
#[cfg(unix)]
unsafe impl Sync for MmapFile {}

#[cfg(unix)]
impl MmapFile {
    /// Map the first `len` bytes of `f` read-only; `None` on failure.
    pub fn open(f: &std::fs::File, len: usize) -> Option<Arc<MmapFile>> {
        use std::os::unix::io::AsRawFd;
        extern "C" {
            fn mmap(
                addr: *mut u8,
                len: usize,
                prot: i32,
                flags: i32,
                fd: i32,
                offset: i64,
            ) -> *mut u8;
        }
        const PROT_READ: i32 = 1;
        const MAP_PRIVATE: i32 = 2;
        if len == 0 {
            return None;
        }
        // SAFETY: a fresh read-only private mapping of an open descriptor at
        // an address the kernel picks; failure comes back as MAP_FAILED,
        // checked below. `len` is the size `from_path` just checked the
        // file against (`lagc_roundtrip_mapped`).
        let p =
            unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, f.as_raw_fd(), 0) };
        if p.is_null() || p as isize == -1 {
            None
        } else {
            Some(Arc::new(MmapFile { ptr: p, len }))
        }
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is a live `len`-byte read-only mapping until `Drop`,
        // which `&self` outlives. A file truncated under the mapping turns
        // a read past its new end into SIGBUS, not a stale value (DESIGN.md
        // §13); `lagc_roundtrip_mapped` reads a mapped load.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(unix)]
impl Drop for MmapFile {
    fn drop(&mut self) {
        extern "C" {
            fn munmap(addr: *mut u8, len: usize) -> i32;
        }
        // SAFETY: unmaps exactly the region `open` mapped, once: the last
        // `Arc` is gone, so no `Words` window still points into it
        // (`lagc_roundtrip_mapped` drops a mapped load).
        unsafe {
            munmap(self.ptr, self.len);
        }
    }
}

#[cfg(not(unix))]
impl MmapFile {
    /// Mapping is unsupported on this platform.
    pub fn open(_f: &std::fs::File, _len: usize) -> Option<Arc<MmapFile>> {
        None
    }
    /// The mapped bytes (always empty here).
    pub fn bytes(&self) -> &[u8] {
        &[]
    }
}

// ---------------------------------------------------------------------------
// Elias-Fano monotone sequence.
// ---------------------------------------------------------------------------

/// Quasi-succinct encoding of a non-decreasing sequence of `n` values in
/// `[0, u)`: the low `l = ⌊log₂(u/n)⌋` bits are packed verbatim, the
/// upper bits become a unary-gap bitmap with select samples, giving
/// `get(i)` in O(1) with ~2 + log₂(u/n) bits per value.
#[derive(Debug, Clone)]
pub struct EliasFano {
    n: u64,
    u: u64,
    l: u32,
    low: Words,
    high: Words,
    samples: Words,
}

impl EliasFano {
    /// Encode a non-decreasing sequence.
    pub fn encode(vals: &[u64]) -> EliasFano {
        let n = vals.len() as u64;
        let u = vals.last().copied().unwrap_or(0) + 1;
        let l = match u.checked_div(n) {
            None | Some(0 | 1) => 0,
            Some(r) => 63 - r.leading_zeros(),
        };
        let mut low = BitWriter::new();
        let mut high = BitWriter::new();
        let mut samples = Vec::new();
        let mut prev_high = 0u64;
        let mut highpos = 0u64;
        for (i, &v) in vals.iter().enumerate() {
            debug_assert!(v < u);
            if l > 0 {
                low.push_bits(v, l);
            }
            let h = v >> l;
            debug_assert!(h >= prev_high, "sequence must be non-decreasing");
            let gap = h - prev_high;
            high.write_unary(gap);
            highpos += gap + 1;
            if i % SAMPLE == 0 {
                samples.push(highpos - 1);
            }
            prev_high = h;
        }
        EliasFano {
            n,
            u,
            l,
            low: low.into_words().into(),
            high: high.into_words().into(),
            samples: samples.into(),
        }
    }

    /// Number of encoded values.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// True when no values are encoded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Universe bound (one past the largest storable value).
    pub fn universe(&self) -> u64 {
        self.u
    }

    /// Bit position of the `i`-th set bit of the upper bitmap.
    fn select1(&self, i: usize) -> usize {
        let k = i / SAMPLE;
        self.select_from(self.samples[k] as usize, i - k * SAMPLE)
    }

    /// Bit position of the `need`-th set bit (from 0) at or after bit
    /// `pos` of the upper bitmap: whole words by popcount, then one
    /// broadword select inside the word that holds it.
    fn select_from(&self, pos: usize, mut need: usize) -> usize {
        let mut wi = pos >> 6;
        let mut w = self.high[wi] & (!0u64 << (pos & 63));
        loop {
            let c = w.count_ones() as usize;
            if need < c {
                return wi * 64 + select_in_word(w, need as u32) as usize;
            }
            need -= c;
            wi += 1;
            w = self.high[wi];
        }
    }

    /// A reader of elements `i, i + 1, …` in order, positioned by one
    /// select (`i < len()`).
    fn cursor(&self, i: usize) -> EfCursor<'_> {
        let pos = self.select1(i);
        EfCursor {
            ef: self,
            high: BitReader::at(&self.high, pos),
            low: BitReader::at(&self.low, i * self.l as usize),
            h: (pos - i) as u64,
        }
    }

    /// Elements `i` and `i + 1` off one select: the second is the next
    /// set bit after the first (`i + 1 < len()`).
    fn pair(&self, i: usize) -> (u64, u64) {
        let mut c = self.cursor(i);
        (c.next_value(), c.next_value())
    }

    /// Random access to element `i`.
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.n as usize);
        let high = (self.select1(i) - i) as u64;
        let low = if self.l == 0 {
            0
        } else {
            BitReader::at(&self.low, i * self.l as usize).read_bits(self.l)
        };
        (high << self.l) | low
    }

    /// Sequential decode of the whole sequence, cheaper than `n` selects.
    pub fn for_each(&self, mut f: impl FnMut(usize, u64)) {
        if self.n == 0 {
            return;
        }
        let mut lr = BitReader::at(&self.low, 0);
        let mut hr = BitReader::at(&self.high, 0);
        let mut h = 0u64;
        for i in 0..self.n as usize {
            h += hr.read_unary();
            let lo = if self.l == 0 { 0 } else { lr.read_bits(self.l) };
            f(i, (h << self.l) | lo);
        }
    }

    /// Heap (or mapped) bytes of the three sections plus metadata.
    pub fn bytes(&self) -> usize {
        (self.low.len() + self.high.len() + self.samples.len()) * 8 + 24
    }
}

/// Sequential reader of an Elias-Fano sequence: after the select that
/// positions it ([`EliasFano::cursor`]), each value costs one unary read
/// of the upper bits plus the low bits, as [`EliasFano::for_each`] reads
/// them, and a skip costs a popcount per word it passes.
struct EfCursor<'a> {
    ef: &'a EliasFano,
    /// At the set bit of the next value.
    high: BitReader<'a>,
    /// At the low bits of the next value.
    low: BitReader<'a>,
    /// The upper part of the last value read; the next one adds the zeros
    /// before its set bit.
    h: u64,
}

impl EfCursor<'_> {
    /// The next value.
    fn next_value(&mut self) -> u64 {
        self.h += self.high.read_unary();
        let l = self.ef.l;
        let low = if l == 0 { 0 } else { self.low.read_bits(l) };
        (self.h << l) | low
    }

    /// Pass over the next `k` values without reading them.
    fn skip(&mut self, k: usize) {
        if k == 0 {
            return;
        }
        let from = self.high.pos;
        let last = self.ef.select_from(from, k - 1);
        // `from..=last` holds the `k` set bits and the zeros between them.
        self.h += (last + 1 - from - k) as u64;
        self.high.pos = last + 1;
        self.low.pos += k * self.ef.l as usize;
    }
}

/// Position of the `k`-th set bit (from 0) of `x`, which has more than `k`.
/// Broadword, after Vigna ("Broadword implementation of rank/select
/// queries", 2008): the bytes' running popcounts come from one multiply,
/// the byte that holds the bit from one subtract compared in all eight
/// lanes at once, and the bit inside it from a table.
fn select_in_word(x: u64, k: u32) -> u32 {
    const L8: u64 = 0x0101_0101_0101_0101;
    const H8: u64 = 0x8080_8080_8080_8080;
    debug_assert!(k < x.count_ones());
    let mut s = x - ((x >> 1) & 0x5555_5555_5555_5555);
    s = (s & 0x3333_3333_3333_3333) + ((s >> 2) & 0x3333_3333_3333_3333);
    s = (s + (s >> 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    // Byte `b` of `sums` counts the set bits of bytes `0..=b` (at most 64).
    let sums = s.wrapping_mul(L8);
    // A lane keeps its high bit where its running count is still `≤ k`:
    // those are the bytes wholly before the `k`-th set bit.
    let before = (((u64::from(k) * L8) | H8) - sums) & H8;
    let place = before.count_ones() * 8;
    let rank = u64::from(k) - (((sums << 8) >> place) & 0xff);
    let byte = ((x >> place) & 0xff) as usize;
    place + u32::from(SELECT_IN_BYTE[rank as usize * 256 + byte])
}

/// `SELECT_IN_BYTE[r * 256 + b]`: the position of the `r`-th set bit of
/// byte `b` (0 where `b` has no `r`-th).
const SELECT_IN_BYTE: [u8; 2048] = {
    let mut t = [0u8; 2048];
    let mut b = 0;
    while b < 256 {
        let (mut p, mut r) = (0, 0);
        while p < 8 {
            if b >> p & 1 == 1 {
                t[r * 256 + b] = p as u8;
                r += 1;
            }
            p += 1;
        }
        b += 1;
    }
    t
};

// ---------------------------------------------------------------------------
// Value plane.
// ---------------------------------------------------------------------------

/// How stored values are represented alongside the gap-encoded structure.
#[derive(Debug, Clone)]
pub enum ValuePlane<T> {
    /// Every stored entry has this value (pattern matrices): zero bits.
    Uniform(T),
    /// Small non-negative integers packed at a fixed bit width.
    Packed {
        /// Bits per entry (1..=32).
        width: u32,
        /// The packed bit stream, LSB-first within each word.
        words: Words,
    },
    /// IEEE-754 bit patterns of `to_f64()`, one word per entry.
    Raw(Words),
}

impl<T: Scalar> ValuePlane<T> {
    /// Value of the `i`-th stored entry (global entry order).
    pub fn value(&self, i: usize) -> T {
        match self {
            ValuePlane::Uniform(c) => *c,
            ValuePlane::Packed { width, words } => {
                let v = BitReader::at(words, i * *width as usize).read_bits(*width);
                T::from_f64(v as f64)
            }
            ValuePlane::Raw(words) => T::from_f64(f64::from_bits(words[i])),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            ValuePlane::Uniform(_) => std::mem::size_of::<T>(),
            ValuePlane::Packed { words, .. } | ValuePlane::Raw(words) => words.len() * 8,
        }
    }

    fn kind(&self) -> u64 {
        match self {
            ValuePlane::Uniform(_) => 0,
            ValuePlane::Packed { .. } => 1,
            ValuePlane::Raw(_) => 2,
        }
    }
}

/// A value survives compression only if it round-trips through `f64`
/// exactly (bit-for-bit for floats, `==` for everything else).
fn lossless<T: Scalar>(v: T) -> bool {
    let f = v.to_f64();
    let rt = T::from_f64(f);
    rt == v || (f.is_nan() && rt.to_f64().is_nan())
}

/// Packable as a fixed-width non-negative integer below 2³²?
fn packable<T: Scalar>(v: T) -> Option<u64> {
    let f = v.to_f64();
    if f.is_finite() && f >= 0.0 && f.fract() == 0.0 && f < 4294967296.0 && lossless(v) {
        Some(f as u64)
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// The compressed matrix.
// ---------------------------------------------------------------------------

/// Which instantaneous code the gap stream uses; chosen per matrix by
/// measuring both totals during the encode cost pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapCode {
    /// Elias γ: best when gaps are small (dense rows).
    Gamma,
    /// Elias δ: best when gaps are large (sparse power-law rows).
    Delta,
}

/// Read-optimized compressed row storage. See the module docs for the
/// layout; construct with `CompressedMat::encode` (returns `None` when
/// values don't survive the `f64` round-trip) or load from a `.lagc`
/// file with [`CompressedMat::from_path`].
#[derive(Debug, Clone)]
pub struct CompressedMat<T> {
    nrows: Index,
    ncols: Index,
    nvals: usize,
    code: GapCode,
    /// Cumulative entry counts, `nrows + 1` values ending at `nvals`.
    ptr: EliasFano,
    /// Bit offset of each row's gap stream, `nrows + 1` values.
    offs: EliasFano,
    /// γ/δ-coded column-index gaps, all rows concatenated.
    data: Words,
    plane: ValuePlane<T>,
    nvecs: OnceLock<usize>,
}

impl<T: Scalar> CompressedMat<T> {
    /// Compress a standard CSR structure (crate-internal: reached via
    /// `Matrix` storage policy). Runs the cost, encode, and value-plane
    /// passes on the `par_chunks` pool. Returns `None` if any value
    /// cannot be represented exactly (the matrix then stays CSR).
    pub(crate) fn encode(cs: &Cs<T>) -> Option<CompressedMat<T>> {
        let n = cs.nmajor;
        let nvals = cs.idx.len();

        // Pass 1: total bits under each code, and value-plane class.
        struct Scan<T> {
            gamma: usize,
            delta: usize,
            first: Option<T>,
            uniform: bool,
            packed_max: Option<u64>,
            lossless: bool,
        }
        let scans: Vec<Scan<T>> = par_chunks(n, nvals.max(1), |r| {
            let mut s = Scan::<T> {
                gamma: 0,
                delta: 0,
                first: None,
                uniform: true,
                packed_max: Some(0),
                lossless: true,
            };
            for i in r {
                let (a, b) = (cs.ptr[i], cs.ptr[i + 1]);
                let mut prev: Option<usize> = None;
                for &j in &cs.idx[a..b] {
                    let gap = match prev {
                        None => j as u64 + 1,
                        Some(p) => (j - p) as u64,
                    };
                    s.gamma += gamma_len(gap);
                    s.delta += delta_len(gap);
                    prev = Some(j);
                }
                for &v in &cs.val[a..b] {
                    match s.first {
                        None => s.first = Some(v),
                        Some(f) => {
                            if !(v == f) {
                                s.uniform = false;
                            }
                        }
                    }
                    s.packed_max = match (s.packed_max, packable(v)) {
                        (Some(m), Some(u)) => Some(m.max(u)),
                        _ => None,
                    };
                    s.lossless &= lossless(v);
                }
            }
            s
        });
        let mut gamma = 0usize;
        let mut delta = 0usize;
        let mut first: Option<T> = None;
        let mut uniform = true;
        let mut packed_max = Some(0u64);
        let mut all_lossless = true;
        for s in &scans {
            gamma += s.gamma;
            delta += s.delta;
            match (first, s.first) {
                (None, f) => first = f,
                (Some(a), Some(b)) if !(a == b) => uniform = false,
                _ => {}
            }
            uniform &= s.uniform;
            packed_max = match (packed_max, s.packed_max) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            };
            all_lossless &= s.lossless;
        }
        if !all_lossless {
            return None;
        }
        let code = if delta < gamma { GapCode::Delta } else { GapCode::Gamma };

        // Pass 2: encode gaps per chunk, stitch, and build the offsets.
        let enc: Vec<(BitWriter, Vec<u64>)> = par_chunks(n, nvals.max(1), |r| {
            let mut w = BitWriter::new();
            let mut rowbits = Vec::with_capacity(r.len());
            for i in r {
                let before = w.bitlen();
                let mut prev: Option<usize> = None;
                for &j in &cs.idx[cs.ptr[i]..cs.ptr[i + 1]] {
                    let gap = match prev {
                        None => j as u64 + 1,
                        Some(p) => (j - p) as u64,
                    };
                    match code {
                        GapCode::Gamma => w.write_gamma(gap),
                        GapCode::Delta => w.write_delta(gap),
                    }
                    prev = Some(j);
                }
                rowbits.push((w.bitlen() - before) as u64);
            }
            (w, rowbits)
        });
        let mut data = BitWriter::new();
        let mut offs = Vec::with_capacity(n + 1);
        offs.push(0u64);
        for (w, rowbits) in &enc {
            for &rb in rowbits {
                offs.push(offs.last().expect("nonempty") + rb);
            }
            data.append(w);
        }
        debug_assert_eq!(data.bitlen() as u64, *offs.last().expect("nonempty"));

        // Pass 3: the value plane.
        let plane = if nvals == 0 {
            ValuePlane::Uniform(T::zero())
        } else if uniform {
            ValuePlane::Uniform(first.expect("nvals > 0"))
        } else if let Some(maxu) = packed_max {
            let width = (64 - maxu.leading_zeros()).max(1);
            let packs: Vec<BitWriter> = par_chunks(nvals, nvals, |r| {
                let mut w = BitWriter::new();
                for &v in &cs.val[r] {
                    w.push_bits(v.to_f64() as u64, width);
                }
                w
            });
            let mut w = BitWriter::new();
            for p in &packs {
                w.append(p);
            }
            ValuePlane::Packed { width, words: w.into_words().into() }
        } else {
            let raws: Vec<Vec<u64>> = par_chunks(nvals, nvals, |r| {
                cs.val[r].iter().map(|v| v.to_f64().to_bits()).collect()
            });
            let mut words = Vec::with_capacity(nvals);
            for r in raws {
                words.extend_from_slice(&r);
            }
            ValuePlane::Raw(words.into())
        };

        let ptr_u64: Vec<u64> = cs.ptr.iter().map(|&p| p as u64).collect();
        Some(CompressedMat {
            nrows: n,
            ncols: cs.nminor,
            nvals,
            code,
            ptr: EliasFano::encode(&ptr_u64),
            offs: EliasFano::encode(&offs),
            data: data.into_words().into(),
            plane,
            nvecs: OnceLock::new(),
        })
    }

    /// Decompress to standard CSR (parallel over row chunks, each read
    /// in order by one [`RowCursor`]).
    pub(crate) fn decode(&self) -> Cs<T> {
        let chunks: Vec<(Vec<usize>, Vec<Index>, Vec<T>)> =
            par_chunks(self.nrows, self.nvals.max(1), |r| {
                let mut lens = Vec::with_capacity(r.len());
                let mut idx = Vec::new();
                let mut val = Vec::new();
                let mut rows = self.rows_from(r.start);
                for i in r {
                    let entries = rows.row(i);
                    lens.push(entries.len());
                    for (j, v) in entries {
                        idx.push(j);
                        val.push(v);
                    }
                }
                (lens, idx, val)
            });
        let mut ptr = Vec::with_capacity(self.nrows + 1);
        ptr.push(0);
        let mut idx = Vec::with_capacity(self.nvals);
        let mut val = Vec::with_capacity(self.nvals);
        for (lens, ci, cv) in chunks {
            for len in lens {
                ptr.push(ptr[ptr.len() - 1] + len);
            }
            idx.extend_from_slice(&ci);
            val.extend_from_slice(&cv);
        }
        Cs { nmajor: self.nrows, nminor: self.ncols, ptr, idx, val }
    }

    /// A reader of rows `first, first + 1, …` in order: one select into
    /// each Elias-Fano sequence here, a step of each per row after.
    pub(crate) fn rows_from(&self, first: Index) -> RowCursor<'_, T> {
        let mut ptr = self.ptr.cursor(first);
        let start = ptr.next_value() as usize;
        RowCursor { m: self, ptr, offs: self.offs.cursor(first), row: first, start }
    }

    /// Row `i`'s entries by random access: one select for its pointer
    /// pair, and one more into the bit offsets when it has entries.
    fn row_entries(&self, i: Index) -> RowEntries<'_, T> {
        let (a, b) = self.ptr.pair(i);
        let bit = if a == b { 0 } else { self.offs.get(i) as usize };
        self.entries_at(a as usize, b as usize, bit)
    }

    /// The entries `at..end` of one row, its gaps starting at `bit`.
    fn entries_at(&self, at: usize, end: usize, bit: usize) -> RowEntries<'_, T> {
        RowEntries {
            data: BitReader::at(&self.data, bit),
            code: self.code,
            plane: &self.plane,
            at,
            end,
            base: 0,
        }
    }

    /// Resident bytes of every section (mapped sections count the bytes
    /// of file they expose, which is what a capacity planner wants).
    pub fn bytes(&self) -> usize {
        self.ptr.bytes() + self.offs.bytes() + self.data.len() * 8 + self.plane.bytes() + 64
    }

    /// Resident bytes split (ptr, idx, val)-style for
    /// [`crate::MemoryUsage`]: the two Elias-Fano indexes, the gap
    /// stream, and the value plane.
    pub fn section_bytes(&self) -> (usize, usize, usize) {
        (self.ptr.bytes() + self.offs.bytes(), self.data.len() * 8, self.plane.bytes())
    }

    /// True when the heavy sections point into a memory-mapped file.
    pub fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }

    /// Which instantaneous code the gap stream uses.
    pub fn gap_code(&self) -> GapCode {
        self.code
    }

    /// Compressed bytes divided by stored entries.
    pub fn bytes_per_edge(&self) -> f64 {
        if self.nvals == 0 {
            0.0
        } else {
            self.bytes() as f64 / self.nvals as f64
        }
    }
}

impl<T: Scalar> SparseView<T> for CompressedMat<T> {
    fn nmajor(&self) -> Index {
        self.nrows
    }
    fn nminor(&self) -> Index {
        self.ncols
    }
    fn nvals(&self) -> usize {
        self.nvals
    }
    fn nvecs(&self) -> usize {
        *self.nvecs.get_or_init(|| {
            let mut count = 0;
            let mut prev = 0u64;
            self.ptr.for_each(|i, v| {
                if i > 0 && v > prev {
                    count += 1;
                }
                prev = v;
            });
            count
        })
    }
    fn as_compressed(&self) -> Option<&CompressedMat<T>> {
        Some(self)
    }
    fn row<'s>(&'s self, major: Index, scratch: &'s mut RowScratch<T>) -> (&'s [Index], &'s [T]) {
        scratch.idx.clear();
        scratch.val.clear();
        for (j, v) in self.row_entries(major) {
            scratch.idx.push(j);
            scratch.val.push(v);
        }
        (&scratch.idx, &scratch.val)
    }
    fn get(&self, major: Index, minor: Index) -> Option<T> {
        // Decodes up to the first column at or past `minor`, no further.
        let (j, v) = self.row_entries(major).find(|&(j, _)| j >= minor)?;
        (j == minor).then_some(v)
    }
    fn for_each_vec(&self, f: &mut dyn FnMut(Index, &[Index], &[T])) {
        let mut rows = self.rows_from(0);
        let mut idx = Vec::new();
        let mut val = Vec::new();
        for i in 0..self.nrows {
            let entries = rows.row(i);
            if entries.len() == 0 {
                continue;
            }
            idx.clear();
            val.clear();
            for (j, v) in entries {
                idx.push(j);
                val.push(v);
            }
            f(i, &idx, &val);
        }
    }
    fn for_each_len(&self, f: &mut dyn FnMut(Index, usize)) {
        // Off the Elias-Fano cumulative counts: no gap is decoded.
        let mut prev = 0u64;
        self.ptr.for_each(|i, v| {
            if i > 0 && v > prev {
                f(i - 1, (v - prev) as usize);
            }
            prev = v;
        });
    }
    fn entries_before(&self, major: Index) -> usize {
        // One Elias-Fano select: no gap is decoded.
        self.ptr.get(major) as usize
    }
    fn row_len(&self, major: Index) -> usize {
        // The pointer pair off one select: no gap is decoded.
        let (a, b) = self.ptr.pair(major);
        (b - a) as usize
    }
}

/// An in-order reader of a compressed matrix's rows, from
/// [`CompressedMat::rows_from`]: what a pull's chunk walks its rows with.
/// The select that positions it is the only one it makes; each later row
/// steps the pointer and offset sequences, and rows passed over are
/// skipped by popcount, not selected.
pub(crate) struct RowCursor<'a, T> {
    m: &'a CompressedMat<T>,
    /// At `ptr(row + 1)`.
    ptr: EfCursor<'a>,
    /// At `offs(row)`.
    offs: EfCursor<'a>,
    /// The next row it can hand out, and `ptr(row)`.
    row: Index,
    start: usize,
}

impl<'a, T: Scalar> RowCursor<'a, T> {
    /// Row `i`'s entries, for `i` at or past the next row: the rows in
    /// between are passed over.
    pub(crate) fn row(&mut self, i: Index) -> RowEntries<'a, T> {
        assert!(i >= self.row, "a row cursor only moves forward");
        let passed = i - self.row;
        if passed > 0 {
            self.ptr.skip(passed - 1);
            self.start = self.ptr.next_value() as usize;
            self.offs.skip(passed);
        }
        let end = self.ptr.next_value() as usize;
        let bit = self.offs.next_value() as usize;
        let at = std::mem::replace(&mut self.start, end);
        self.row = i + 1;
        self.m.entries_at(at, end, bit)
    }
}

/// One compressed row's entries in column order, each gap decoded only
/// when the entry is asked for: a dot that stops at its monoid's terminal
/// leaves the rest of the row unread. `len()` is what is still unread.
pub(crate) struct RowEntries<'a, T> {
    data: BitReader<'a>,
    code: GapCode,
    plane: &'a ValuePlane<T>,
    /// Global entry number of the next entry; one past the row's last.
    at: usize,
    end: usize,
    /// One past the last column read (0 before the first): a gap `g`
    /// puts the next entry at column `base + g − 1`.
    base: Index,
}

impl<T: Scalar> Iterator for RowEntries<'_, T> {
    type Item = (Index, T);

    #[inline]
    fn next(&mut self) -> Option<(Index, T)> {
        if self.at == self.end {
            return None;
        }
        let gap = match self.code {
            GapCode::Gamma => self.data.read_gamma(),
            GapCode::Delta => self.data.read_delta(),
        } as usize;
        let j = self.base + gap - 1;
        self.base = j + 1;
        let v = self.plane.value(self.at);
        self.at += 1;
        Some((j, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end - self.at;
        (left, Some(left))
    }
}

impl<T: Scalar> ExactSizeIterator for RowEntries<'_, T> {}

// ---------------------------------------------------------------------------
// The on-disk `.lagc` container.
// ---------------------------------------------------------------------------

const MAGIC: &[u8; 8] = b"LAGC0001";
const HEADER_BYTES: usize = 184;

fn fnv1a(sections: &[&[u64]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for ws in sections {
        for &w in *ws {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_01b3);
            }
        }
    }
    h
}

fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("8 bytes"))
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("lagc: {}", msg.into()))
}

struct EfMeta {
    n: u64,
    u: u64,
    l: u64,
    low: u64,
    high: u64,
    samples: u64,
}

impl EfMeta {
    fn of(ef: &EliasFano) -> EfMeta {
        EfMeta {
            n: ef.n,
            u: ef.u,
            l: ef.l as u64,
            low: ef.low.len() as u64,
            high: ef.high.len() as u64,
            samples: ef.samples.len() as u64,
        }
    }
    fn write(&self, buf: &mut [u8], off: usize) {
        for (k, v) in [self.n, self.u, self.l, self.low, self.high, self.samples].iter().enumerate()
        {
            put_u64(buf, off + 8 * k, *v);
        }
    }
    fn read(buf: &[u8], off: usize) -> EfMeta {
        EfMeta {
            n: get_u64(buf, off),
            u: get_u64(buf, off + 8),
            l: get_u64(buf, off + 16),
            low: get_u64(buf, off + 24),
            high: get_u64(buf, off + 32),
            samples: get_u64(buf, off + 40),
        }
    }
    /// The words of its three sections; `None` when a hostile header's
    /// lengths overflow.
    fn words(&self) -> Option<u64> {
        self.low.checked_add(self.high)?.checked_add(self.samples)
    }
}

impl<T: Scalar> CompressedMat<T> {
    /// Serialize to the versioned `.lagc` container.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let (plane_meta, plane_words): (u64, &[u64]) = match &self.plane {
            ValuePlane::Uniform(c) => (c.to_f64().to_bits(), &[]),
            ValuePlane::Packed { width, words } => (*width as u64, words),
            ValuePlane::Raw(words) => (0, words),
        };
        let sections: [&[u64]; 8] = [
            &self.ptr.low,
            &self.ptr.high,
            &self.ptr.samples,
            &self.offs.low,
            &self.offs.high,
            &self.offs.samples,
            &self.data,
            plane_words,
        ];
        let mut hdr = [0u8; HEADER_BYTES];
        hdr[..8].copy_from_slice(MAGIC);
        let name = T::NAME.as_bytes();
        hdr[8..8 + name.len().min(16)].copy_from_slice(&name[..name.len().min(16)]);
        put_u64(&mut hdr, 24, self.nrows as u64);
        put_u64(&mut hdr, 32, self.ncols as u64);
        put_u64(&mut hdr, 40, self.nvals as u64);
        let flags = match self.code {
            GapCode::Gamma => 0u64,
            GapCode::Delta => 1u64,
        } | (self.plane.kind() << 8);
        put_u64(&mut hdr, 48, flags);
        put_u64(&mut hdr, 56, plane_meta);
        EfMeta::of(&self.ptr).write(&mut hdr, 64);
        EfMeta::of(&self.offs).write(&mut hdr, 112);
        put_u64(&mut hdr, 160, self.data.len() as u64);
        put_u64(&mut hdr, 168, plane_words.len() as u64);
        put_u64(&mut hdr, 176, fnv1a(&sections));
        w.write_all(&hdr)?;
        for s in sections {
            for &word in s {
                w.write_all(&word.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Write to a file path (via a buffered writer).
    pub fn write_path(&self, path: &Path) -> io::Result<()> {
        let f = std::fs::File::create(path)?;
        let mut w = io::BufWriter::new(f);
        self.write_to(&mut w)?;
        w.flush()
    }

    /// Load a `.lagc` file, memory-mapping the sections zero-copy when
    /// the platform allows (falling back to an owned read). The header
    /// and total size are always validated (rejecting truncation in
    /// O(1)); `verify` additionally recomputes the section checksum,
    /// rejecting bit corruption at O(file) cost.
    pub fn from_path(path: &Path, verify: bool) -> io::Result<CompressedMat<T>> {
        let mut f = std::fs::File::open(path)?;
        let mut hdr = [0u8; HEADER_BYTES];
        f.read_exact(&mut hdr).map_err(|_| bad("truncated header"))?;
        if &hdr[..8] != MAGIC {
            return Err(bad("bad magic (not a .lagc file or unsupported version)"));
        }
        let mut name = [0u8; 16];
        let tn = T::NAME.as_bytes();
        name[..tn.len().min(16)].copy_from_slice(&tn[..tn.len().min(16)]);
        if hdr[8..24] != name {
            return Err(bad(format!(
                "element type mismatch: file has {:?}, expected {}",
                String::from_utf8_lossy(&hdr[8..24]).trim_end_matches('\0'),
                T::NAME
            )));
        }
        let nrows = get_u64(&hdr, 24) as usize;
        let ncols = get_u64(&hdr, 32) as usize;
        let nvals = get_u64(&hdr, 40) as usize;
        let flags = get_u64(&hdr, 48);
        let plane_meta = get_u64(&hdr, 56);
        let ptr_meta = EfMeta::read(&hdr, 64);
        let offs_meta = EfMeta::read(&hdr, 112);
        let data_words = get_u64(&hdr, 160);
        let plane_words = get_u64(&hdr, 168);
        let checksum = get_u64(&hdr, 176);

        let code = match flags & 0xff {
            0 => GapCode::Gamma,
            1 => GapCode::Delta,
            c => return Err(bad(format!("unknown gap code {c}"))),
        };
        let plane_kind = (flags >> 8) & 0xff;
        if ptr_meta.l > 63 || offs_meta.l > 63 {
            return Err(bad("corrupt Elias-Fano parameters"));
        }
        let rows_1 = (nrows as u64).checked_add(1);
        if Some(ptr_meta.n) != rows_1 || Some(offs_meta.n) != rows_1 {
            return Err(bad("Elias-Fano length disagrees with nrows"));
        }
        // Every sum is checked: lengths chosen to wrap to the real size
        // would pass the size check and carve windows past the mapping.
        let sections = [ptr_meta.words(), offs_meta.words(), Some(data_words), Some(plane_words)];
        let layout = sections.into_iter().try_fold(0u64, |sum, w| sum.checked_add(w?));
        let (total_words, expect) = layout
            .and_then(|t| Some((t, t.checked_mul(8)?.checked_add(HEADER_BYTES as u64)?)))
            .ok_or_else(|| bad("section lengths overflow the layout"))?;
        let actual = f.metadata()?.len();
        if actual != expect {
            return Err(bad(format!(
                "file is {actual} bytes, layout requires {expect} (truncated or corrupt)"
            )));
        }
        if plane_kind == 1 {
            let width = plane_meta;
            let short = u128::from(plane_words) * 64 < nvals as u128 * u128::from(width);
            if width == 0 || width > 32 || short {
                return Err(bad("packed value plane shorter than nvals"));
            }
        }
        if plane_kind == 2 && plane_words != nvals as u64 {
            return Err(bad("raw value plane shorter than nvals"));
        }

        // Map the file; carve each section out of the mapping at its
        // 8-aligned offset. If mmap is unavailable, read it all.
        let mapped = MmapFile::open(&f, expect as usize);
        let mut owned: Option<Arc<Vec<u64>>> = None;
        if mapped.is_none() {
            let mut rest = Vec::with_capacity(total_words as usize * 8);
            f.read_to_end(&mut rest)?;
            let words: Vec<u64> = rest
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
            owned = Some(Arc::new(words));
        }
        let mut word_off = 0usize;
        let mut take = |len: u64| -> Words {
            let len = len as usize;
            let w = match (&mapped, &owned) {
                (Some(map), _) => {
                    Words::Mapped { map: Arc::clone(map), off: HEADER_BYTES + word_off * 8, len }
                }
                (None, Some(all)) => Words::Owned(all[word_off..word_off + len].to_vec()),
                _ => unreachable!("one of mapped/owned is set"),
            };
            word_off += len;
            w
        };
        let ptr = EliasFano {
            n: ptr_meta.n,
            u: ptr_meta.u,
            l: ptr_meta.l as u32,
            low: take(ptr_meta.low),
            high: take(ptr_meta.high),
            samples: take(ptr_meta.samples),
        };
        let offs = EliasFano {
            n: offs_meta.n,
            u: offs_meta.u,
            l: offs_meta.l as u32,
            low: take(offs_meta.low),
            high: take(offs_meta.high),
            samples: take(offs_meta.samples),
        };
        let data = take(data_words);
        let plane = match plane_kind {
            0 => {
                let _ = take(plane_words);
                ValuePlane::Uniform(T::from_f64(f64::from_bits(plane_meta)))
            }
            1 => ValuePlane::Packed { width: plane_meta as u32, words: take(plane_words) },
            2 => ValuePlane::Raw(take(plane_words)),
            k => return Err(bad(format!("unknown value plane kind {k}"))),
        };
        if verify {
            let sections: [&[u64]; 8] = [
                &ptr.low,
                &ptr.high,
                &ptr.samples,
                &offs.low,
                &offs.high,
                &offs.samples,
                &data,
                match &plane {
                    ValuePlane::Uniform(_) => &[],
                    ValuePlane::Packed { words, .. } | ValuePlane::Raw(words) => words,
                },
            ];
            let got = fnv1a(&sections);
            if got != checksum {
                return Err(bad(format!(
                    "checksum mismatch: stored {checksum:#x}, computed {got:#x} (corrupt sections)"
                )));
            }
        }
        // Cheap structural sanity so a bad (but size-consistent) file
        // can't send decoders out of bounds via the offsets index.
        if ptr.universe() != nvals as u64 + 1 {
            return Err(bad("pointer universe disagrees with nvals"));
        }
        if offs.universe() > data_words * 64 + 1 {
            return Err(bad("bit offsets exceed the gap stream"));
        }
        Ok(CompressedMat {
            nrows,
            ncols,
            nvals,
            code,
            ptr,
            offs,
            data,
            plane,
            nvecs: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_roundtrip_gamma_delta() {
        let mut w = BitWriter::new();
        let xs: Vec<u64> = (1..200).chain([1 << 20, (1 << 40) + 7, u64::MAX >> 1]).collect();
        for &x in &xs {
            w.write_gamma(x);
            w.write_delta(x);
        }
        let words = w.into_words();
        let mut r = BitReader::at(&words, 0);
        for &x in &xs {
            assert_eq!(r.read_gamma(), x);
            assert_eq!(r.read_delta(), x);
        }
    }

    #[test]
    fn bit_lengths_match_writers() {
        for x in [1u64, 2, 3, 5, 100, 4096, 1 << 33] {
            let mut w = BitWriter::new();
            w.write_gamma(x);
            assert_eq!(w.bitlen(), gamma_len(x));
            let mut w = BitWriter::new();
            w.write_delta(x);
            assert_eq!(w.bitlen(), delta_len(x));
        }
    }

    #[test]
    fn writer_append_stitches_any_phase() {
        for head_bits in [0u32, 1, 7, 63, 64, 65] {
            let mut a = BitWriter::new();
            for k in 0..head_bits {
                a.push_bits((k % 2) as u64, 1);
            }
            let mut b = BitWriter::new();
            for x in 1..100u64 {
                b.write_delta(x);
            }
            let blen = b.bitlen();
            a.append(&b);
            assert_eq!(a.bitlen(), head_bits as usize + blen);
            let words = a.into_words();
            let mut r = BitReader::at(&words, head_bits as usize);
            for x in 1..100u64 {
                assert_eq!(r.read_delta(), x);
            }
        }
    }

    #[test]
    fn elias_fano_random_and_sequential_access() {
        let mut vals = Vec::new();
        let mut v = 0u64;
        for i in 0..1000u64 {
            v += (i * 2654435761) % 97;
            vals.push(v);
        }
        let ef = EliasFano::encode(&vals);
        for (i, &x) in vals.iter().enumerate() {
            assert_eq!(ef.get(i), x, "get({i})");
        }
        let mut seen = Vec::new();
        ef.for_each(|_, x| seen.push(x));
        assert_eq!(seen, vals);
        // Succinct: far below 8 bytes per value for a dense-ish sequence.
        assert!(ef.bytes() < vals.len() * 8 / 2);
    }

    #[test]
    fn elias_fano_empty_and_flat() {
        let ef = EliasFano::encode(&[]);
        assert!(ef.is_empty());
        let flat = EliasFano::encode(&[5, 5, 5, 5]);
        for i in 0..4 {
            assert_eq!(flat.get(i), 5);
        }
    }

    /// The in-word select the broadword one replaced: clear the lowest
    /// set bit `k` times.
    fn select_by_clearing(mut x: u64, k: u32) -> u32 {
        for _ in 0..k {
            x &= x - 1;
        }
        x.trailing_zeros()
    }

    #[test]
    fn broadword_select_equals_the_clearing_scan() {
        let mut words = vec![1u64, 1 << 63, u64::MAX, 0x8000_0000_0000_0001, 0xff00, 0x0101_0101];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Dense, sparse (an AND of draws) and single-byte words.
            words.extend([x, x & x.rotate_left(23) & x.rotate_left(41), x & 0xff << (x % 57)]);
        }
        for w in words.into_iter().filter(|&w| w != 0) {
            for k in 0..w.count_ones() {
                assert_eq!(select_in_word(w, k), select_by_clearing(w, k), "{w:#x}, k = {k}");
            }
        }
    }

    #[test]
    fn a_cursor_started_anywhere_reads_what_get_reads() {
        // Runs of equal values and long strides cross the 64-entry select
        // sample boundary (and whole upper words) inside one cursor walk.
        let ramp: Vec<u64> = (0..300u64).map(|i| i * i / 7).collect();
        let runs: Vec<u64> = (0..260u64).map(|i| (i / 70) * 1000 + (i % 70) / 25).collect();
        let sequences: [(&str, Vec<u64>); 6] = [
            ("empty", vec![]),
            ("flat", vec![5; 200]),
            ("l = 0", (0..200).collect()),
            ("ramp", ramp),
            ("runs across samples", runs),
            ("one", vec![1 << 40]),
        ];
        for (what, vals) in sequences {
            let ef = EliasFano::encode(&vals);
            if what == "l = 0" {
                assert_eq!(ef.l, 0);
            }
            for i in 0..vals.len() {
                let mut c = ef.cursor(i);
                for k in i..vals.len() {
                    assert_eq!(c.next_value(), ef.get(k), "{what}: cursor at {i}, value {k}");
                }
            }
            // A skip lands where stepping would.
            for i in 0..vals.len() {
                for k in [0, 1, 2, 63, 64, 65, 130] {
                    if i + k < vals.len() {
                        let mut c = ef.cursor(i);
                        c.skip(k);
                        assert_eq!(c.next_value(), vals[i + k], "{what}: {i} skip {k}");
                    }
                }
            }
            for i in 0..vals.len().saturating_sub(1) {
                assert_eq!(ef.pair(i), (vals[i], vals[i + 1]), "{what}: pair {i}");
            }
        }
    }

    #[test]
    fn a_row_cursor_reads_every_row_from_any_start() {
        let cs = ladder(150, 400, 11);
        let cm = CompressedMat::encode(&cs).expect("compress");
        let mut unused = RowScratch::default();
        for first in 0..cs.nmajor {
            // Every row from `first`, then every third: stepped and skipped.
            for stride in [1, 3] {
                let mut rows = cm.rows_from(first);
                for i in (first..cs.nmajor).step_by(stride) {
                    let (ci, cv) = cs.row(i, &mut unused);
                    let want: Vec<(Index, f64)> =
                        ci.iter().copied().zip(cv.iter().copied()).collect();
                    let entries = rows.row(i);
                    assert_eq!(entries.len(), want.len(), "row {i} from {first}");
                    assert_eq!(entries.collect::<Vec<_>>(), want, "row {i} from {first}");
                }
            }
        }
        // A row read part way leaves the cursor ready for the next one.
        let mut rows = cm.rows_from(0);
        for i in 0..cs.nmajor {
            let mut entries = rows.row(i);
            let first = entries.next();
            assert_eq!(first.map(|(j, _)| j), cs.row(i, &mut unused).0.first().copied());
            assert_eq!(SparseView::row_len(&cm, i), cs.row_len(i));
        }
    }

    fn ladder(nrows: usize, ncols: usize, seed: u64) -> Cs<f64> {
        // Deterministic scale-free-ish structure with integer values.
        let mut tuples = Vec::new();
        let mut state = seed | 1;
        for i in 0..nrows {
            let deg = (state % 7) as usize;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let mut j = (state % ncols as u64) as usize;
            for d in 0..deg {
                j = (j + 1 + (state >> (d % 32)) as usize % 17) % ncols;
                tuples.push((i, j, ((i + j) % 9) as f64));
                state = state.wrapping_mul(6364136223846793005).wrapping_add(12345);
            }
        }
        Cs::from_tuples(nrows, ncols, tuples, |_, b| b)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let cs = ladder(300, 500, 42);
        let cm = CompressedMat::encode(&cs).expect("integral values compress");
        assert_eq!(cm.nvals(), cs.nvals());
        let back = cm.decode();
        assert_eq!(back, cs);
    }

    #[test]
    fn view_matches_cs_row_by_row() {
        let cs = ladder(128, 257, 7);
        let cm = CompressedMat::encode(&cs).expect("compress");
        assert!(cm.as_compressed().is_some());
        let (mut scratch, mut unused) = (RowScratch::default(), RowScratch::default());
        for i in 0..cs.nmajor {
            let (ci, cv) = cs.row(i, &mut unused);
            let (ki, kv) = cm.row(i, &mut scratch);
            assert_eq!(ki, ci);
            assert_eq!(kv, cv);
        }
        assert!(cm.majors().eq(0..cs.nmajor));
        assert_eq!(cm.nvecs(), cs.nvecs());
        assert_eq!(SparseView::tuples(&cm), SparseView::tuples(&cs));
        for i in 0..cs.nmajor {
            for j in [0, 1, 100, 256] {
                assert_eq!(SparseView::get(&cm, i, j), cs.get(i, j), "get({i},{j})");
            }
        }
    }

    #[test]
    fn uniform_plane_is_tiny() {
        let tuples: Vec<(usize, usize, bool)> =
            (0..10_000).map(|k| (k % 400, (k * 37) % 1000, true)).collect();
        let cs = Cs::from_tuples(400, 1000, tuples, |_, b| b);
        let cm = CompressedMat::encode(&cs).expect("compress");
        assert!(matches!(cm.plane, ValuePlane::Uniform(true)));
        // Pattern matrices: far under a byte per edge of value storage,
        // and well below half of CSR's 16 B/edge.
        let csr_bytes = (cs.nmajor + 1) * 8 + cs.nvals() * (8 + 1);
        assert!(cm.bytes() * 2 < csr_bytes, "{} vs {}", cm.bytes(), csr_bytes);
    }

    #[test]
    fn raw_plane_survives_fractional_values() {
        let cs =
            Cs::from_tuples(4, 4, vec![(0, 1, 0.5f64), (1, 2, -3.25), (3, 0, 1e-300)], |_, b| b);
        let cm = CompressedMat::encode(&cs).expect("f64 always lossless");
        assert!(matches!(cm.plane, ValuePlane::Raw(_)));
        assert_eq!(cm.decode(), cs);
    }

    #[test]
    fn lagc_roundtrip_mapped() {
        let cs = ladder(200, 300, 99);
        let cm = CompressedMat::encode(&cs).expect("compress");
        let dir = std::env::temp_dir().join(format!("lagc_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("roundtrip.lagc");
        cm.write_path(&path).expect("write");
        let loaded = CompressedMat::<f64>::from_path(&path, true).expect("load");
        assert_eq!(loaded.decode(), cs);
        #[cfg(unix)]
        assert!(loaded.is_mapped(), "unix load should be zero-copy");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lagc_rejects_truncation_and_corruption() {
        let cs = ladder(64, 64, 3);
        let cm = CompressedMat::encode(&cs).expect("compress");
        let dir = std::env::temp_dir().join(format!("lagc_test_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("bad.lagc");
        cm.write_path(&path).expect("write");
        let bytes = std::fs::read(&path).expect("read back");

        // Truncated: drop the tail.
        std::fs::write(&path, &bytes[..bytes.len() - 9]).expect("truncate");
        assert!(CompressedMat::<f64>::from_path(&path, false).is_err());

        // Corrupted: flip a bit in a section; size still matches, so only
        // the checksum pass catches it.
        let mut corrupt = bytes.clone();
        let k = HEADER_BYTES + (corrupt.len() - HEADER_BYTES) / 2;
        corrupt[k] ^= 0x40;
        std::fs::write(&path, &corrupt).expect("corrupt");
        assert!(CompressedMat::<f64>::from_path(&path, true).is_err());

        // Wrong magic.
        let mut nomagic = bytes.clone();
        nomagic[0] = b'X';
        std::fs::write(&path, &nomagic).expect("magic");
        assert!(CompressedMat::<f64>::from_path(&path, false).is_err());

        // Wrong element type.
        std::fs::write(&path, &bytes).expect("restore");
        assert!(CompressedMat::<i64>::from_path(&path, false).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lagc_rejects_a_header_whose_lengths_wrap() {
        // Section lengths chosen so that the layout's byte count wraps to
        // the file's real size: 2^61 more data words is 2^64 more bytes.
        // Unchecked, the size check passed and the data window ran 2^61
        // words past the mapping; each must come back as an error.
        let cm = CompressedMat::encode(&ladder(64, 64, 3)).expect("compress");
        let dir = std::env::temp_dir().join(format!("lagc_test_wrap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("wrap.lagc");
        cm.write_path(&path).expect("write");
        let bytes = std::fs::read(&path).expect("read back");
        let bump = |at: usize, by: u64| {
            let mut b = bytes.clone();
            let was = get_u64(&b, at);
            put_u64(&mut b, at, was.wrapping_add(by));
            b
        };
        let hostile = [
            ("data words", bump(160, 1 << 61)),
            ("plane words", bump(168, 1 << 61)),
            // One Elias-Fano section's words wrap the three-way sum.
            ("ptr low words", bump(64 + 24, u64::MAX - (1 << 20))),
            ("nrows", {
                let mut b = bytes.clone();
                put_u64(&mut b, 24, u64::MAX);
                b
            }),
        ];
        for (what, file) in hostile {
            std::fs::write(&path, &file).expect("write hostile");
            for verify in [false, true] {
                let loaded = CompressedMat::<f64>::from_path(&path, verify);
                assert!(loaded.is_err(), "{what}, verify = {verify}");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
