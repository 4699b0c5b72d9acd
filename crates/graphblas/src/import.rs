//! O(1) import/export of raw sparse arrays (§IV of the paper).
//!
//! The export removes the `Ap`/`Ai`/`Ax` arrays from the opaque object and
//! hands ownership to the caller — the "move constructor" strategy the
//! paper describes — in `O(1)` when the matrix is already stored in the
//! requested format. The import is symmetric: the arrays are incorporated
//! as-is, so an export followed by an import reconstructs the matrix
//! perfectly with no copying. Rust's ownership model expresses the
//! contract the paper has to legislate in prose: the arrays are *moved*,
//! so exactly one side owns them at any time, and the malloc/free pairing
//! problem of the C API disappears.
//!
//! Contrast with [`crate::Matrix::extract_tuples`], which is `Ω(e)`.
//!
//! Vectors have the imports an algorithm needs to hand back a result it
//! computed in plain arrays: [`Vector::import_bitmap`], the full-length
//! form's value array and presence words taken as they are, and
//! [`Vector::import_full`] for a value at every position. The matching
//! read, [`Vector::to_full`], copies a full vector's value array out in
//! one pass, for an algorithm that repairs a previous result in place.

use crate::error::{Error, Result};
use crate::matrix::{Matrix, Store};
use crate::sparse::{Cs, Hyper};
use crate::types::{Index, Scalar};
use crate::vector::{full_bits, VStore, Vector};

/// The raw arrays of a standard compressed matrix: `(nmajor, nminor, ptr,
/// idx, val)` with `ptr` of length `nmajor + 1`.
pub type RawCs<T> = (Index, Index, Vec<usize>, Vec<Index>, Vec<T>);

/// The raw arrays of a hypersparse matrix: `(nmajor, nminor, heads, ptr,
/// idx, val)`.
pub type RawHyper<T> = (Index, Index, Vec<Index>, Vec<usize>, Vec<usize>, Vec<T>);

fn validate_cs<T: Scalar>(
    nmajor: Index,
    nminor: Index,
    ptr: &[usize],
    idx: &[Index],
    val: &[T],
) -> Result<()> {
    if ptr.len() != nmajor + 1 {
        return Err(Error::invalid("import: ptr length must be nmajor + 1"));
    }
    if ptr[0] != 0 || *ptr.last().expect("nonempty") != idx.len() || idx.len() != val.len() {
        return Err(Error::invalid("import: array lengths inconsistent"));
    }
    // Full structural validation is O(e); keep the O(1) contract in
    // release builds and verify thoroughly under debug assertions.
    #[cfg(debug_assertions)]
    {
        for i in 0..nmajor {
            if ptr[i] > ptr[i + 1] {
                return Err(Error::invalid("import: ptr not monotone"));
            }
            let seg = &idx[ptr[i]..ptr[i + 1]];
            for w in seg.windows(2) {
                if w[0] >= w[1] {
                    return Err(Error::invalid("import: indices not strictly sorted"));
                }
            }
            if let Some(&last) = seg.last() {
                if last >= nminor {
                    return Err(Error::oob(last, nminor));
                }
            }
        }
    }
    let _ = nminor;
    Ok(())
}

impl<T: Scalar> Matrix<T> {
    /// Import CSR arrays, taking ownership (`GxB_Matrix_import_CSR`).
    /// `O(1)` apart from cheap length checks (full validation runs under
    /// debug assertions).
    pub fn import_csr(
        nrows: Index,
        ncols: Index,
        ptr: Vec<usize>,
        idx: Vec<Index>,
        val: Vec<T>,
    ) -> Result<Self> {
        if nrows == 0 || ncols == 0 {
            return Err(Error::invalid("matrix dimensions must be >= 1"));
        }
        validate_cs(nrows, ncols, &ptr, &idx, &val)?;
        Ok(Matrix::from_store(
            nrows,
            ncols,
            Store::Csr(Cs { nmajor: nrows, nminor: ncols, ptr, idx, val }),
        ))
    }

    /// Import CSC arrays, taking ownership (`GxB_Matrix_import_CSC`).
    pub fn import_csc(
        nrows: Index,
        ncols: Index,
        ptr: Vec<usize>,
        idx: Vec<Index>,
        val: Vec<T>,
    ) -> Result<Self> {
        if nrows == 0 || ncols == 0 {
            return Err(Error::invalid("matrix dimensions must be >= 1"));
        }
        validate_cs(ncols, nrows, &ptr, &idx, &val)?;
        Ok(Matrix::from_store(
            nrows,
            ncols,
            Store::Csc(Cs { nmajor: ncols, nminor: nrows, ptr, idx, val }),
        ))
    }

    /// Import hypersparse-CSR arrays (`GxB_Matrix_import_HyperCSR`).
    pub fn import_hyper_csr(
        nrows: Index,
        ncols: Index,
        heads: Vec<Index>,
        ptr: Vec<usize>,
        idx: Vec<Index>,
        val: Vec<T>,
    ) -> Result<Self> {
        if nrows == 0 || ncols == 0 {
            return Err(Error::invalid("matrix dimensions must be >= 1"));
        }
        if ptr.len() != heads.len() + 1 || idx.len() != val.len() {
            return Err(Error::invalid("import: array lengths inconsistent"));
        }
        let h = Hyper { nmajor: nrows, nminor: ncols, heads, ptr, idx, val };
        #[cfg(debug_assertions)]
        h.check().map_err(Error::invalid)?;
        Ok(Matrix::from_store(nrows, ncols, Store::HyperCsr(h)))
    }

    /// Export as CSR arrays, consuming the matrix
    /// (`GxB_Matrix_export_CSR`). `O(1)` when already stored as CSR;
    /// otherwise one format conversion is performed first.
    pub fn export_csr(self) -> RawCs<T> {
        let mut inner = self.inner.into_inner();
        inner.assemble();
        inner.ensure_row_major();
        let cs = match inner.store {
            Store::Csr(cs) => cs,
            Store::HyperCsr(h) => h.to_cs(),
            // The read-optimized form has no raw arrays to move out;
            // exporting it pays one decode.
            Store::CompressedCsr(cm) => cm.decode(),
            // Neither are the shared base and its overlay's.
            Store::Layered(l) => l.fold(),
            _ => unreachable!("ensure_row_major"),
        };
        (inner.nrows, inner.ncols, cs.ptr, cs.idx, cs.val)
    }

    /// Export as CSC arrays, consuming the matrix. `O(1)` when already
    /// stored column-major.
    pub fn export_csc(mut self) -> RawCs<T> {
        self.set_col_major();
        let inner = self.inner.into_inner();
        let cs = match inner.store {
            Store::Csc(cs) => cs,
            Store::HyperCsc(h) => h.to_cs(),
            _ => unreachable!("set_col_major"),
        };
        (inner.nrows, inner.ncols, cs.ptr, cs.idx, cs.val)
    }

    /// Export as hypersparse-CSR arrays, consuming the matrix. `O(1)` when
    /// already hypersparse row-major.
    pub fn export_hyper_csr(self) -> RawHyper<T> {
        let mut inner = self.inner.into_inner();
        inner.assemble();
        inner.ensure_row_major();
        let h = match inner.store {
            Store::HyperCsr(h) => h,
            Store::Csr(cs) => cs.to_hyper(),
            Store::CompressedCsr(cm) => cm.decode().to_hyper(),
            Store::Layered(l) => l.fold().to_hyper(),
            _ => unreachable!("ensure_row_major"),
        };
        (inner.nrows, inner.ncols, h.heads, h.ptr, h.idx, h.val)
    }
}

impl<T: Scalar> Vector<T> {
    /// Import a full-length value array and its packed presence words,
    /// taking ownership (`GxB_Vector_import_Bitmap`): position `i` holds an
    /// entry when bit `i % 64` of `bits[i / 64]` is set, and `val[i]` is
    /// then its value. No sort and no copy — one pass over the
    /// `val.len() / 64` presence words counts the entries; a result sparse
    /// enough for the list form is converted to it, as after any write.
    pub fn import_bitmap(val: Vec<T>, bits: Vec<u64>) -> Result<Self> {
        let n = val.len();
        if n > Self::FULL_LENGTH_LIMIT {
            return Err(Error::invalid("import: longer than the full-length form holds"));
        }
        if bits.len() != n.div_ceil(64) {
            return Err(Error::invalid("import: one presence word per 64 positions"));
        }
        if !n.is_multiple_of(64) && bits[n / 64] >> (n % 64) != 0 {
            return Err(Error::invalid("import: presence bits past the vector's length"));
        }
        let nvals = bits.iter().map(|w| w.count_ones() as usize).sum();
        let mut v = Vector::new(n)?;
        v.install_full(val, bits, nvals);
        Ok(v)
    }

    /// Import a value array with an entry at every position
    /// (`GxB_Vector_import_Full`), taking ownership: no sort and no copy.
    pub fn import_full(val: Vec<T>) -> Result<Self> {
        let bits = full_bits(val.len());
        Self::import_bitmap(val, bits)
    }

    /// A copy of the value array of a vector with an entry at every
    /// position — what `GxB_Vector_export_Full` hands over, without giving
    /// the vector up: one bulk copy, no walk over the entries. `None` when
    /// some position is empty.
    pub fn to_full(&self) -> Option<Vec<T>> {
        let g = self.read();
        match &g.store {
            VStore::Full { val, nvals, .. } if *nvals == g.n => Some(val.clone()),
            // Every position present: the indices are `0..n`, in order.
            VStore::Sparse { idx, val } if idx.len() == g.n => Some(val.clone()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_import_takes_the_arrays_as_they_are() {
        let mut val = vec![0i32; 70];
        let mut bits = vec![0u64; 2];
        for i in [0usize, 3, 64, 69] {
            val[i] = i as i32 + 1;
            bits[i / 64] |= 1 << (i % 64);
        }
        let v = Vector::import_bitmap(val, bits).expect("import");
        assert_eq!(v.size(), 70);
        assert_eq!(v.extract_tuples(), vec![(0, 1), (3, 4), (64, 65), (69, 70)]);
        // Dense enough to stay full-length; a lone entry goes to the list form.
        let dense = Vector::import_bitmap(vec![7u8; 64], vec![u64::MAX]).expect("dense");
        assert_eq!(dense.vector_format(), crate::VectorFormat::Dense);
        let lone = Vector::import_bitmap(vec![7u8; 64], vec![1]).expect("lone");
        assert_eq!(lone.vector_format(), crate::VectorFormat::Sparse);
        assert_eq!(lone.extract_tuples(), vec![(0, 7)]);
    }

    #[test]
    fn a_full_vector_round_trips_through_its_value_array() {
        let v = Vector::import_full((0..70u64).rev().collect()).expect("import");
        assert_eq!(v.nvals(), 70);
        assert_eq!(v.get(69), Some(0));
        assert_eq!(v.to_full(), Some((0..70u64).rev().collect()));
        // The list form with every position present reads the same.
        let listed = Vector::from_tuples(3, vec![(0, 5u8), (1, 6), (2, 7)], |_, b| b).expect("v");
        assert_eq!(listed.to_full(), Some(vec![5, 6, 7]));
        // One empty position, in either form: no value array to hand out.
        let mut holed = v.clone();
        holed.remove_element(3).expect("remove");
        assert_eq!(holed.to_full(), None);
        let sparse = Vector::from_tuples(70, vec![(0, 1u64)], |_, b| b).expect("sparse");
        assert_eq!(sparse.to_full(), None);
    }

    #[test]
    fn bitmap_import_validates_the_presence_words() {
        assert!(Vector::import_bitmap(vec![0i32; 70], vec![0u64; 1]).is_err(), "too few words");
        assert!(Vector::import_bitmap(vec![0i32; 70], vec![0, 1 << 6]).is_err(), "bit 70 of 70");
        assert!(Vector::<i32>::import_bitmap(Vec::new(), Vec::new()).is_err(), "empty vector");
    }

    #[test]
    fn csr_round_trip_is_lossless() {
        let m = Matrix::from_tuples(3, 3, vec![(0, 1, 1.5), (2, 0, 2.5)], |_, b| b).expect("build");
        let before = m.extract_tuples();
        let (nr, nc, ptr, idx, val) = m.export_csr();
        assert_eq!((nr, nc), (3, 3));
        assert_eq!(ptr, vec![0, 1, 1, 2]);
        let again = Matrix::import_csr(nr, nc, ptr, idx, val).expect("import");
        assert_eq!(again.extract_tuples(), before);
    }

    /// §IV's O(1) claim as a count of copies: an export, an import and a
    /// second export move the same three arrays, so their addresses
    /// survive the round trip.
    #[test]
    fn csr_round_trip_moves_the_arrays() {
        let tuples = (0..64).map(|k| (k % 8, (k * 5) % 8, k as f64)).collect();
        let m = Matrix::from_tuples(8, 8, tuples, |_, b| b).expect("build");
        let (nr, nc, ptr, idx, val) = m.export_csr();
        let addrs = (ptr.as_ptr(), idx.as_ptr(), val.as_ptr());
        let again = Matrix::import_csr(nr, nc, ptr, idx, val).expect("import");
        let (_, _, ptr, idx, val) = again.export_csr();
        assert_eq!((ptr.as_ptr(), idx.as_ptr(), val.as_ptr()), addrs);
    }

    #[test]
    fn csc_round_trip() {
        let m = Matrix::from_tuples(2, 3, vec![(0, 2, 1), (1, 0, 2)], |_, b| b).expect("m");
        let before = m.extract_tuples();
        let (nr, nc, ptr, idx, val) = m.export_csc();
        // Column pointers: col0 has 1 entry, col1 none, col2 one.
        assert_eq!(ptr, vec![0, 1, 1, 2]);
        let again = Matrix::import_csc(nr, nc, ptr, idx, val).expect("import");
        assert_eq!(again.extract_tuples(), before);
    }

    #[test]
    fn hyper_round_trip_huge_dims() {
        let n = 1usize << 35;
        let mut m = Matrix::<i32>::new(n, n).expect("m");
        m.set_element(42, 7, 1).expect("set");
        m.set_element(1 << 34, 9, 2).expect("set");
        let (nr, nc, heads, ptr, idx, val) = m.export_hyper_csr();
        assert_eq!(heads, vec![42, 1 << 34]);
        let again = Matrix::import_hyper_csr(nr, nc, heads, ptr, idx, val).expect("import");
        assert_eq!(again.get(1 << 34, 9), Some(2));
    }

    #[test]
    fn import_validates_lengths() {
        assert!(Matrix::<i32>::import_csr(2, 2, vec![0, 1], vec![0], vec![1]).is_err());
        assert!(Matrix::<i32>::import_csr(2, 2, vec![0, 1, 2], vec![0], vec![1]).is_err());
        assert!(Matrix::<i32>::import_csr(0, 2, vec![0], vec![], vec![]).is_err());
    }

    #[test]
    fn import_is_usable_in_operations() {
        // Import, then immediately multiply: the opaque object is fully
        // functional, which is the point of §IV.
        let a =
            Matrix::import_csr(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0, 1.0]).expect("import");
        let u = crate::Vector::from_tuples(2, vec![(0, 3.0), (1, 4.0)], |_, b| b).expect("u");
        let mut w = crate::Vector::<f64>::new(2).expect("w");
        crate::ops::mxv(
            &mut w,
            None,
            crate::ops::NOACC,
            &crate::semiring::PLUS_TIMES,
            &a,
            &u,
            &crate::Descriptor::default(),
        )
        .expect("mxv");
        assert_eq!(w.extract_tuples(), vec![(0, 4.0), (1, 3.0)]);
    }
}
