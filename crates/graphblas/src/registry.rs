//! The built-in operator/semiring registry.
//!
//! SuiteSparse:GraphBLAS generates fused kernels for every semiring that
//! can be built from its built-in operators — "960 unique semirings", of
//! which 600 use only the operators of the GraphBLAS C API (§II.A). In
//! Rust the compiler's monomorphization plays the code-generator role, so
//! the registry's job is bookkeeping: enumerating the space so the
//! census table (`lagraph-bench c4`) can reproduce both numbers and so tests
//! can sample it for constructibility.
//!
//! The counting model (matching SuiteSparse v2.x, the version the paper
//! describes):
//!
//! * 10 real types × 4 add monoids (MIN, MAX, PLUS, TIMES) ×
//!   {8 C API multiply ops + 9 extension multiply ops} = 320 + 360
//! * 10 real types × 4 Boolean monoids (LOR, LAND, LXOR, EQ) ×
//!   6 comparison multiply ops = 240
//! * 4 Boolean monoids × 10 Boolean multiply ops = 40
//!
//! C API total: 320 + 240 + 40 = **600**; with extensions: **960**.
//!
//! The bitwise family (`BOR`, `BAND`, `BXOR`, `BXNOR` and their monoids,
//! [`crate::semiring::BOR_SECOND`]) entered the C API after the version the
//! paper counts; it is implemented in [`crate::binaryop`] and
//! [`crate::monoid`] and deliberately left out of this census, which stays
//! at the paper's (600, 960).

/// Where an operator comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOrigin {
    /// Defined by the GraphBLAS C API specification.
    CApi,
    /// A SuiteSparse `GxB_*` extension.
    Extension,
}

/// A described built-in semiring: `(add monoid) . (multiply op)` over a
/// domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemiringDesc {
    /// Name of the additive monoid, e.g. `"MIN"`.
    pub add: &'static str,
    /// Name of the multiply operator, e.g. `"PLUS"`.
    pub mul: &'static str,
    /// Name of the multiply input domain, e.g. `"FP64"`.
    pub domain: &'static str,
    /// Whether every operator involved is in the C API.
    pub origin: OpOrigin,
}

impl SemiringDesc {
    /// The SuiteSparse-style name, e.g. `GxB_MIN_PLUS_FP64`.
    pub fn name(&self) -> String {
        format!("GxB_{}_{}_{}", self.add, self.mul, self.domain)
    }
}

/// The 10 non-Boolean built-in types.
pub const REAL_TYPES: [&str; 10] =
    ["INT8", "INT16", "INT32", "INT64", "UINT8", "UINT16", "UINT32", "UINT64", "FP32", "FP64"];

/// The 11 built-in types (`REAL_TYPES` plus BOOL).
pub const ALL_TYPES: [&str; 11] = [
    "BOOL", "INT8", "INT16", "INT32", "INT64", "UINT8", "UINT16", "UINT32", "UINT64", "FP32",
    "FP64",
];

/// Add monoids over the real types.
pub const REAL_MONOIDS: [&str; 4] = ["MIN", "MAX", "PLUS", "TIMES"];

/// Add monoids over BOOL.
pub const BOOL_MONOIDS: [&str; 4] = ["LOR", "LAND", "LXOR", "EQ"];

/// C API multiply ops mapping a real domain to itself.
pub const REAL_MULT_CAPI: [&str; 8] =
    ["FIRST", "SECOND", "MIN", "MAX", "PLUS", "MINUS", "TIMES", "DIV"];

/// SuiteSparse extension multiply ops on real domains.
pub const REAL_MULT_EXT: [&str; 9] =
    ["ISEQ", "ISNE", "ISGT", "ISLT", "ISGE", "ISLE", "LOR", "LAND", "LXOR"];

/// Comparison multiply ops (real domain → BOOL).
pub const CMP_MULT: [&str; 6] = ["EQ", "NE", "GT", "LT", "GE", "LE"];

/// Multiply ops on the BOOL domain.
pub const BOOL_MULT: [&str; 10] =
    ["FIRST", "SECOND", "LOR", "LAND", "LXOR", "EQ", "GT", "LT", "GE", "LE"];

/// Enumerate every built-in semiring, in a deterministic order.
pub fn builtin_semirings() -> Vec<SemiringDesc> {
    let mut out = Vec::with_capacity(960);
    for &domain in &REAL_TYPES {
        for &add in &REAL_MONOIDS {
            for &mul in &REAL_MULT_CAPI {
                out.push(SemiringDesc { add, mul, domain, origin: OpOrigin::CApi });
            }
            for &mul in &REAL_MULT_EXT {
                out.push(SemiringDesc { add, mul, domain, origin: OpOrigin::Extension });
            }
        }
        for &add in &BOOL_MONOIDS {
            for &mul in &CMP_MULT {
                out.push(SemiringDesc { add, mul, domain, origin: OpOrigin::CApi });
            }
        }
    }
    for &add in &BOOL_MONOIDS {
        for &mul in &BOOL_MULT {
            out.push(SemiringDesc { add, mul, domain: "BOOL", origin: OpOrigin::CApi });
        }
    }
    out
}

/// The census: `(c_api_count, total_count)` — the paper's (600, 960).
pub fn census() -> (usize, usize) {
    let all = builtin_semirings();
    let capi = all.iter().filter(|s| s.origin == OpOrigin::CApi).count();
    (capi, all.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_reproduces_the_papers_numbers() {
        let (capi, total) = census();
        assert_eq!(capi, 600, "C API built-in semirings");
        assert_eq!(total, 960, "with SuiteSparse extensions");
    }

    #[test]
    fn names_are_unique() {
        let all = builtin_semirings();
        let mut names: Vec<String> = all.iter().map(|s| s.name()).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before, "no duplicate semirings");
    }

    #[test]
    fn census_sample_is_constructible() {
        // Spot-instantiate one semiring from each family to show the
        // described space is real, not just names. The type system builds
        // the kernel at each call site (monomorphization = SuiteSparse's
        // code generator).
        use crate::binaryop::*;
        use crate::semiring::Semiring;

        // MIN_PLUS over FP64 (C API real × real).
        let s = Semiring::new(Min, Plus);
        assert_eq!(crate::monoid::Monoid::<f64>::identity(&s.add), f64::INFINITY);
        // PLUS_ISGE over INT32 (extension).
        let s = Semiring::new(Plus, Isge);
        assert_eq!(BinaryOp::<i32, i32, i32>::apply(&s.mul, 3, 3), 1);
        // LOR_LT over UINT8 (comparison family).
        let s = Semiring::new(Lor, Lt);
        assert!(BinaryOp::<u8, u8, bool>::apply(&s.mul, 1, 2));
        let _ = s;
        // LXOR_LAND over BOOL (pure Boolean family).
        let s = Semiring::new(Lxor, Land);
        assert!(BinaryOp::<bool, bool, bool>::apply(&s.mul, true, true));
    }
}
