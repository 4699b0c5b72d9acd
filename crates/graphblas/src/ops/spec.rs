//! The kernel-specialization table: monomorphized inner loops for the hot
//! semirings (after SuiteSparse:GraphBLAS's built-in kernels and
//! GraphBLAST's operator fusion).
//!
//! Every operator here is a zero-sized unit struct, so the *generic*
//! kernels are already monomorphized per (operator, type) pair — what they
//! cannot shed is the generality of an arbitrary monoid: an `Option<T>`
//! accumulator, a terminal compare after every product, and value loads
//! even when the multiply ignores its inputs. For the handful of semirings
//! that dominate the LAGraph collection (the paper's Table II workloads),
//! this module keys operator identities ([`OpId`]) to a tighter inner-loop
//! *shape*:
//!
//! | semiring | shape | what the shape sheds |
//! |---|---|---|
//! | `PLUS_TIMES` | no-terminal | `Option` accumulator, terminal compare |
//! | `MIN_PLUS` | terminal | `Option` accumulator, `Option<T>` compare |
//! | `LOR_LAND` | terminal | `Option` accumulator, `Option<T>` compare |
//! | `PLUS_PAIR` | no-load | value loads entirely (`pair` ignores inputs) |
//! | `ANY_FIRST`/`ANY_SECOND` | first-hit | everything past the first product |
//!
//! The remaining ~950 built-in semirings of the census ([`crate::registry`])
//! and every user-defined closure stay on the generic path (`resolve`
//! returns `None` — closures report no [`OpId`]). Each shape is
//! bit-identical to the generic loop by construction: it applies exactly
//! the same operators to exactly the same operands in the same order, only
//! the bookkeeping differs. The equivalence proptests in
//! `tests/kernel_equivalence.rs` verify this per semiring at 1 and 8
//! threads.
//!
//! `GRAPHBLAS_SPECIALIZE=0` disables the table globally (and with it the
//! fused kernels in [`super::fused`]); [`crate::Descriptor::generic_only`]
//! disables it per call.

use std::sync::OnceLock;

use crate::binaryop::{BinaryOp, OpId};
use crate::monoid::Monoid;
use crate::types::{Index, Scalar};

/// Global escape hatch: `GRAPHBLAS_SPECIALIZE=0` (also `false`/`off`/`no`)
/// forces every call onto the generic kernels. Read once per process; an
/// unrecognized value leaves specialization enabled.
pub(crate) fn enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| {
        crate::env::var("GRAPHBLAS_SPECIALIZE", "off or on", crate::env::boolean).unwrap_or(true)
    })
}

/// Whether the kernel-specialization table is active for this process
/// (the resolved `GRAPHBLAS_SPECIALIZE` state). Public so harnesses can
/// record which side of the A/B they measured — `lagraph-bench` stamps
/// it into every `BENCH_*.json` report.
pub fn specialization_enabled() -> bool {
    enabled()
}

/// A semiring the table recognizes, in *kernel coordinates*: the multiply's
/// first operand is always the matrix-side value. `vxm` flips its multiply
/// before the kernel sees it, so its projection ops must be swapped through
/// [`swap_projection`] before resolution (`ANY_SECOND` under `vxm` takes
/// the matrix value and resolves to `AnyFirst` here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SemiringSpec {
    /// `(+, ×)` — the conventional arithmetic semiring.
    PlusTimes,
    /// `(min, +)` — tropical; covers both the saturating and wrapping add.
    MinPlus,
    /// `(∨, ∧)` — the Boolean reachability semiring.
    LorLand,
    /// `(+, pair)` — structural counting (triangle counting's workhorse).
    PlusPair,
    /// `(any, first)` — take the matrix-side value, first hit wins.
    AnyFirst,
    /// `(any, second)` — take the vector/B-side value, first hit wins.
    AnySecond,
}

impl SemiringSpec {
    /// Registry-style name, recorded in trace span args.
    pub(crate) fn name(self) -> &'static str {
        match self {
            SemiringSpec::PlusTimes => "PLUS_TIMES",
            SemiringSpec::MinPlus => "MIN_PLUS",
            SemiringSpec::LorLand => "LOR_LAND",
            SemiringSpec::PlusPair => "PLUS_PAIR",
            SemiringSpec::AnyFirst => "ANY_FIRST",
            SemiringSpec::AnySecond => "ANY_SECOND",
        }
    }
}

/// Look up the specialization for an (add, mul) operator pair. `None` —
/// for either an unrecognized pairing or an id-less operator (every
/// closure) — means the generic kernels run.
pub(crate) fn resolve(add: Option<OpId>, mul: Option<OpId>) -> Option<SemiringSpec> {
    Some(match (add?, mul?) {
        (OpId::Plus, OpId::Times) => SemiringSpec::PlusTimes,
        (OpId::Min, OpId::SaturatingPlus) | (OpId::Min, OpId::Plus) => SemiringSpec::MinPlus,
        (OpId::Lor, OpId::Land) => SemiringSpec::LorLand,
        (OpId::Plus, OpId::Pair) => SemiringSpec::PlusPair,
        (OpId::Any, OpId::First) => SemiringSpec::AnyFirst,
        (OpId::Any, OpId::Second) => SemiringSpec::AnySecond,
        _ => return None,
    })
}

/// Map a multiply's identity into kernel coordinates for the flipped
/// (`vxm`) operand order: the projections swap, everything else is
/// symmetric or argument-insensitive.
pub(crate) fn swap_projection(id: OpId) -> OpId {
    match id {
        OpId::First => OpId::Second,
        OpId::Second => OpId::First,
        other => other,
    }
}

/// The generic sparse dot product: two-pointer intersection of the index
/// lists, `Option` accumulator, early exit at the monoid's terminal value
/// (or immediately for ANY). This is the reference loop every specialized
/// shape must match bit-for-bit.
#[inline]
pub(crate) fn dot_generic<A, B, T, SA, SM>(
    add: &SA,
    mul: &SM,
    aidx: &[Index],
    aval: &[A],
    bidx: &[Index],
    bval: &[B],
) -> Option<T>
where
    A: Scalar,
    B: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    SM: BinaryOp<A, B, T>,
{
    let terminal = add.terminal();
    let is_any = add.is_any();
    let (mut p, mut q) = (0, 0);
    let mut acc: Option<T> = None;
    while p < aidx.len() && q < bidx.len() {
        if aidx[p] < bidx[q] {
            p += 1;
        } else if bidx[q] < aidx[p] {
            q += 1;
        } else {
            let prod = mul.apply(aval[p], bval[q]);
            acc = Some(match acc {
                None => prod,
                Some(cur) => add.apply(cur, prod),
            });
            if is_any || acc == terminal {
                break;
            }
            p += 1;
            q += 1;
        }
    }
    acc
}

/// Dispatch a sparse dot product to the specialized shape for `spec`, or
/// to [`dot_generic`] when there is none.
#[inline]
pub(crate) fn dot<A, B, T, SA, SM>(
    spec: Option<SemiringSpec>,
    add: &SA,
    mul: &SM,
    aidx: &[Index],
    aval: &[A],
    bidx: &[Index],
    bval: &[B],
) -> Option<T>
where
    A: Scalar,
    B: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    SM: BinaryOp<A, B, T>,
{
    match spec {
        None => dot_generic(add, mul, aidx, aval, bidx, bval),
        Some(SemiringSpec::PlusTimes) => dot_no_terminal(add, mul, aidx, aval, bidx, bval),
        Some(SemiringSpec::MinPlus) | Some(SemiringSpec::LorLand) => {
            dot_terminal(add, mul, aidx, aval, bidx, bval)
        }
        Some(SemiringSpec::PlusPair) => dot_no_load(add, mul, aidx, aval, bidx, bval),
        Some(SemiringSpec::AnyFirst) | Some(SemiringSpec::AnySecond) => {
            dot_first_hit(mul, aidx, aval, bidx, bval)
        }
    }
}

/// Shape for monoids with no terminal (PLUS): the accumulator starts at
/// the first product — never the monoid identity, which would not be
/// bit-identical for floats (`-0.0 + x`) — and the inner loop carries no
/// `Option` and no terminal compare.
#[inline]
fn dot_no_terminal<A, B, T, SA, SM>(
    add: &SA,
    mul: &SM,
    aidx: &[Index],
    aval: &[A],
    bidx: &[Index],
    bval: &[B],
) -> Option<T>
where
    A: Scalar,
    B: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    SM: BinaryOp<A, B, T>,
{
    let (mut p, mut q) = (0, 0);
    while p < aidx.len() && q < bidx.len() {
        if aidx[p] < bidx[q] {
            p += 1;
        } else if bidx[q] < aidx[p] {
            q += 1;
        } else {
            let mut acc = mul.apply(aval[p], bval[q]);
            p += 1;
            q += 1;
            while p < aidx.len() && q < bidx.len() {
                if aidx[p] < bidx[q] {
                    p += 1;
                } else if bidx[q] < aidx[p] {
                    q += 1;
                } else {
                    acc = add.apply(acc, mul.apply(aval[p], bval[q]));
                    p += 1;
                    q += 1;
                }
            }
            return Some(acc);
        }
    }
    None
}

/// Shape for terminal monoids (MIN, LOR): like [`dot_no_terminal`] but
/// with the terminal hoisted out of the loop and compared as a plain `T`.
#[inline]
fn dot_terminal<A, B, T, SA, SM>(
    add: &SA,
    mul: &SM,
    aidx: &[Index],
    aval: &[A],
    bidx: &[Index],
    bval: &[B],
) -> Option<T>
where
    A: Scalar,
    B: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    SM: BinaryOp<A, B, T>,
{
    let term = match add.terminal() {
        Some(t) => t,
        None => return dot_no_terminal(add, mul, aidx, aval, bidx, bval),
    };
    let (mut p, mut q) = (0, 0);
    while p < aidx.len() && q < bidx.len() {
        if aidx[p] < bidx[q] {
            p += 1;
        } else if bidx[q] < aidx[p] {
            q += 1;
        } else {
            let mut acc = mul.apply(aval[p], bval[q]);
            p += 1;
            q += 1;
            while acc != term && p < aidx.len() && q < bidx.len() {
                if aidx[p] < bidx[q] {
                    p += 1;
                } else if bidx[q] < aidx[p] {
                    q += 1;
                } else {
                    acc = add.apply(acc, mul.apply(aval[p], bval[q]));
                    p += 1;
                    q += 1;
                }
            }
            return Some(acc);
        }
    }
    None
}

/// Shape for PAIR multiplies: the product ignores its operands, so the
/// loop intersects the index lists without touching either value array,
/// then folds the hoisted product once per match.
#[inline]
fn dot_no_load<A, B, T, SA, SM>(
    add: &SA,
    mul: &SM,
    aidx: &[Index],
    _aval: &[A],
    bidx: &[Index],
    _bval: &[B],
) -> Option<T>
where
    A: Scalar,
    B: Scalar,
    T: Scalar,
    SA: Monoid<T>,
    SM: BinaryOp<A, B, T>,
{
    let one = mul.apply(A::zero(), B::zero());
    let (mut p, mut q) = (0, 0);
    let mut matches = 0usize;
    while p < aidx.len() && q < bidx.len() {
        if aidx[p] < bidx[q] {
            p += 1;
        } else if bidx[q] < aidx[p] {
            q += 1;
        } else {
            matches += 1;
            p += 1;
            q += 1;
        }
    }
    if matches == 0 {
        return None;
    }
    let mut acc = one;
    for _ in 1..matches {
        acc = add.apply(acc, one);
    }
    Some(acc)
}

/// Shape for the ANY monoid: the first product is the answer.
#[inline]
fn dot_first_hit<A, B, T, SM>(
    mul: &SM,
    aidx: &[Index],
    aval: &[A],
    bidx: &[Index],
    bval: &[B],
) -> Option<T>
where
    A: Scalar,
    B: Scalar,
    T: Scalar,
    SM: BinaryOp<A, B, T>,
{
    let (mut p, mut q) = (0, 0);
    while p < aidx.len() && q < bidx.len() {
        if aidx[p] < bidx[q] {
            p += 1;
        } else if bidx[q] < aidx[p] {
            q += 1;
        } else {
            return Some(mul.apply(aval[p], bval[q]));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binaryop::{Land, Lor, Min, Pair, Plus, SaturatingPlus, Second, Times};
    use crate::monoid::Any;

    #[test]
    fn resolve_recognizes_the_hot_semirings() {
        use crate::binaryop::OpId as I;
        assert_eq!(resolve(Some(I::Plus), Some(I::Times)), Some(SemiringSpec::PlusTimes));
        assert_eq!(resolve(Some(I::Min), Some(I::SaturatingPlus)), Some(SemiringSpec::MinPlus));
        assert_eq!(resolve(Some(I::Min), Some(I::Plus)), Some(SemiringSpec::MinPlus));
        assert_eq!(resolve(Some(I::Lor), Some(I::Land)), Some(SemiringSpec::LorLand));
        assert_eq!(resolve(Some(I::Plus), Some(I::Pair)), Some(SemiringSpec::PlusPair));
        assert_eq!(resolve(Some(I::Any), Some(I::Second)), Some(SemiringSpec::AnySecond));
        assert_eq!(resolve(Some(I::Any), Some(I::First)), Some(SemiringSpec::AnyFirst));
        // Anything else — including id-less operators — is generic.
        assert_eq!(resolve(Some(I::Plus), Some(I::Plus)), None);
        assert_eq!(resolve(None, Some(I::Times)), None);
        assert_eq!(resolve(Some(I::Plus), None), None);
    }

    #[test]
    fn swap_projection_flips_first_and_second_only() {
        use crate::binaryop::OpId as I;
        assert_eq!(swap_projection(I::First), I::Second);
        assert_eq!(swap_projection(I::Second), I::First);
        assert_eq!(swap_projection(I::Pair), I::Pair);
        assert_eq!(swap_projection(I::Times), I::Times);
    }

    type Case = (Vec<Index>, Vec<i64>, Vec<Index>, Vec<i64>);

    fn cases() -> Vec<Case> {
        vec![
            (vec![], vec![], vec![0, 1], vec![5, 6]),
            (vec![0, 2, 5], vec![1, 2, 3], vec![1, 3, 4], vec![7, 8, 9]),
            (vec![0, 2, 5], vec![1, 2, 3], vec![2, 5, 9], vec![7, 8, 9]),
            (vec![0, 1, 2, 3], vec![-4, 0, 3, i64::MAX], vec![0, 1, 2, 3], vec![2, -7, 0, 1]),
        ]
    }

    #[test]
    fn shapes_match_generic_bit_for_bit() {
        for (aidx, aval, bidx, bval) in cases() {
            let generic: Option<i64> = dot_generic(&Plus, &Times, &aidx, &aval, &bidx, &bval);
            let spec: Option<i64> =
                dot(Some(SemiringSpec::PlusTimes), &Plus, &Times, &aidx, &aval, &bidx, &bval);
            assert_eq!(spec, generic, "plus_times {aidx:?} {bidx:?}");

            let generic: Option<i64> =
                dot_generic(&Min, &SaturatingPlus, &aidx, &aval, &bidx, &bval);
            let spec: Option<i64> =
                dot(Some(SemiringSpec::MinPlus), &Min, &SaturatingPlus, &aidx, &aval, &bidx, &bval);
            assert_eq!(spec, generic, "min_plus {aidx:?} {bidx:?}");

            let generic: Option<u64> = dot_generic(&Plus, &Pair, &aidx, &aval, &bidx, &bval);
            let spec: Option<u64> =
                dot(Some(SemiringSpec::PlusPair), &Plus, &Pair, &aidx, &aval, &bidx, &bval);
            assert_eq!(spec, generic, "plus_pair {aidx:?} {bidx:?}");

            let generic: Option<i64> = dot_generic(&Any, &Second, &aidx, &aval, &bidx, &bval);
            let spec: Option<i64> =
                dot(Some(SemiringSpec::AnySecond), &Any, &Second, &aidx, &aval, &bidx, &bval);
            assert_eq!(spec, generic, "any_second {aidx:?} {bidx:?}");
        }
    }

    #[test]
    fn lor_land_shape_matches_generic_including_false_values() {
        // Stored `false` entries: intersections exist but no product is
        // true, so the dot yields Some(false) — both paths must agree.
        let aidx = vec![0, 1, 3];
        let aval = vec![true, false, true];
        let bidx = vec![1, 2, 3];
        let bval = vec![false, true, false];
        let generic: Option<bool> = dot_generic(&Lor, &Land, &aidx, &aval, &bidx, &bval);
        let spec: Option<bool> =
            dot(Some(SemiringSpec::LorLand), &Lor, &Land, &aidx, &aval, &bidx, &bval);
        assert_eq!(spec, generic);
        assert_eq!(spec, Some(false));
        // And a true hit short-circuits identically.
        let bval_true = vec![true, true, true];
        let generic: Option<bool> = dot_generic(&Lor, &Land, &aidx, &aval, &bidx, &bval_true);
        let spec: Option<bool> =
            dot(Some(SemiringSpec::LorLand), &Lor, &Land, &aidx, &aval, &bidx, &bval_true);
        assert_eq!(spec, generic);
        assert_eq!(spec, Some(true));
    }
}
