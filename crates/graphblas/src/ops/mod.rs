//! The GraphBLAS operation layer — every operation of Table I plus
//! `select` and `kronecker`, each taking the C API argument order
//! `(output, mask, accumulator, operator(s), input(s), descriptor)`.
//!
//! All operations funnel through the single write-rule kernel in
//! [`write`], so mask, accumulator, and replace semantics are implemented
//! (and tested) exactly once.

pub mod apply;
pub mod assign;
pub mod common;
pub mod concat;
pub mod ewise;
pub mod extract;
pub mod fused;
pub mod kron;
pub mod mxm;
pub mod mxv;
pub mod reduce;
pub mod select;
pub(crate) mod shape;
pub mod transpose;
mod write;

pub use apply::{apply, apply_indexed, apply_matrix, apply_matrix_indexed};
pub use assign::{assign, assign_matrix, assign_matrix_scalar, assign_scalar};
pub use common::{IndexSel, NOACC};
pub use concat::{concat, diag_extract, diag_matrix, split};
pub use ewise::{ewise_add, ewise_add_matrix, ewise_mult, ewise_mult_matrix};
pub use extract::{extract, extract_col, extract_matrix};
pub use fused::{
    fused_mxm_reduce_scalar, fused_mxm_row_reduce, fused_mxm_row_reduce_pattern, fused_mxm_select,
};
pub use kron::kronecker;
pub use mxm::mxm;
pub use mxv::{mxv, vxm};
pub use reduce::{reduce_matrix, reduce_matrix_scalar, reduce_vector_scalar};
pub use select::{select, select_matrix, tril, triu};
pub use transpose::{transpose, transpose_new};
