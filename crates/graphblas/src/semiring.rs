//! Semirings (`GrB_Semiring`): an "add" monoid paired with a "multiply"
//! binary operator, the `⊕.⊗` of Table I in the paper.
//!
//! A semiring is just a pair of operator values; the type system enforces at
//! each call site that the multiply maps the input domains onto the monoid's
//! domain. The named constructors below cover the semirings used by the
//! LAGraph algorithm collection.

use crate::binaryop::{Bor, First, Land, Lor, Max, Min, Pair, Plus, SaturatingPlus, Second, Times};
use crate::monoid::Any;

/// A GraphBLAS semiring: `add` is a monoid over the output domain, `mul`
/// maps the two input domains onto it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Semiring<A, M> {
    /// The additive monoid (`⊕`).
    pub add: A,
    /// The multiplicative binary operator (`⊗`).
    pub mul: M,
}

impl<A, M> Semiring<A, M> {
    /// Pair an arbitrary monoid with an arbitrary multiply operator.
    pub const fn new(add: A, mul: M) -> Self {
        Semiring { add, mul }
    }
}

/// The conventional arithmetic semiring `(+, ×)` (`GrB_PLUS_TIMES`).
pub const PLUS_TIMES: Semiring<Plus, Times> = Semiring::new(Plus, Times);

/// The tropical min-plus semiring used by shortest paths
/// (`GrB_MIN_PLUS`). The addition saturates so the MIN monoid's integer
/// identity (`iN::MAX`, playing +∞) stays absorbing instead of wrapping
/// negative when a weight is added — which would corrupt SSSP/APSP
/// distances on integer weights. Floats are unaffected (∞ + w = ∞).
pub const MIN_PLUS: Semiring<Min, SaturatingPlus> = Semiring::new(Min, SaturatingPlus);

/// The max-plus semiring (critical paths, widest-path variants); the
/// addition saturates for the same sentinel reason as [`MIN_PLUS`].
pub const MAX_PLUS: Semiring<Max, SaturatingPlus> = Semiring::new(Max, SaturatingPlus);

/// The max-times semiring (used e.g. by peer-pressure tallying).
pub const MAX_TIMES: Semiring<Max, Times> = Semiring::new(Max, Times);

/// The min-times semiring.
pub const MIN_TIMES: Semiring<Min, Times> = Semiring::new(Min, Times);

/// The Boolean (logical) semiring `(∨, ∧)` of Fig. 2 (`GrB_LOR_LAND`).
pub const LOR_LAND: Semiring<Lor, Land> = Semiring::new(Lor, Land);

/// Structural counting semiring `(+, pair)` (`GxB_PLUS_PAIR`): counts
/// pattern intersections; the workhorse of triangle counting.
pub const PLUS_PAIR: Semiring<Plus, Pair> = Semiring::new(Plus, Pair);

/// `(+, first)`: sums the left operand over the pattern of the right.
pub const PLUS_FIRST: Semiring<Plus, First> = Semiring::new(Plus, First);

/// `(+, second)`: sums the right operand over the pattern of the left.
pub const PLUS_SECOND: Semiring<Plus, Second> = Semiring::new(Plus, Second);

/// `(min, first)`: propagates the left operand, keeping the minimum —
/// used by connected components (FastSV) and bipartite matching.
pub const MIN_FIRST: Semiring<Min, First> = Semiring::new(Min, First);

/// `(min, second)`: propagates the right operand, keeping the minimum.
pub const MIN_SECOND: Semiring<Min, Second> = Semiring::new(Min, Second);

/// `(any, first)`: picks an arbitrary left operand. With the ANY monoid's
/// universal early exit this is the fastest "reach" semiring.
pub const ANY_FIRST: Semiring<Any, First> = Semiring::new(Any, First);

/// `(any, second)`: picks an arbitrary right operand — parent BFS.
pub const ANY_SECOND: Semiring<Any, Second> = Semiring::new(Any, Second);

/// `(any, pair)`: pure reachability with early exit (`GxB_ANY_PAIR`).
pub const ANY_PAIR: Semiring<Any, Pair> = Semiring::new(Any, Pair);

/// `(min, max)`: minimax path semiring.
pub const MIN_MAX: Semiring<Min, Max> = Semiring::new(Min, Max);

/// `(max, min)`: maximin / widest-path (bottleneck) semiring.
pub const MAX_MIN: Semiring<Max, Min> = Semiring::new(Max, Min);

/// `(max, second)`: propagates the right operand, keeping the maximum —
/// used by peer-pressure clustering's vote tally.
pub const MAX_SECOND: Semiring<Max, Second> = Semiring::new(Max, Second);

/// `(max, first)`: propagates the left operand, keeping the maximum.
pub const MAX_FIRST: Semiring<Max, First> = Semiring::new(Max, First);

/// `(+, min)`: sums minima — used by some centrality formulations.
pub const PLUS_MIN: Semiring<Plus, Min> = Semiring::new(Plus, Min);

/// `(+, +)`: the additive convolution semiring.
pub const PLUS_PLUS: Semiring<Plus, Plus> = Semiring::new(Plus, Plus);

/// `(∨, pair)` on bool: reachability without early exit semantics beyond
/// LOR's own terminal.
pub const LOR_PAIR: Semiring<Lor, Pair> = Semiring::new(Lor, Pair);

/// `(bor, second)` on an unsigned integer domain: every stored matrix
/// entry passes the vector's word through and the words are OR-ed — one
/// `mxv` advances as many Boolean searches as the word has bits
/// (multi-source BFS). BOR's all-ones terminal is the early exit.
pub const BOR_SECOND: Semiring<Bor, Second> = Semiring::new(Bor, Second);

/// `(bor, first)`: [`BOR_SECOND`] for `vxm`, where the vector is the left
/// operand.
pub const BOR_FIRST: Semiring<Bor, First> = Semiring::new(Bor, First);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binaryop::BinaryOp;
    use crate::monoid::Monoid;

    #[test]
    fn plus_times_behaves_like_linear_algebra() {
        let s = PLUS_TIMES;
        let prod: i64 = s.mul.apply(3i64, 4i64);
        assert_eq!(prod, 12);
        assert_eq!(s.add.apply(prod, 5), 17);
        assert_eq!(Monoid::<i64>::identity(&s.add), 0);
    }

    #[test]
    fn min_plus_is_tropical() {
        let s = MIN_PLUS;
        // dist 5 through an edge of weight 2 = 7; keep minimum with 6.
        let relaxed: f64 = s.mul.apply(5.0, 2.0);
        assert_eq!(s.add.apply(relaxed, 6.0), 6.0);
        assert_eq!(Monoid::<f64>::identity(&s.add), f64::INFINITY);
    }

    #[test]
    fn logical_semiring_is_reachability() {
        let s = LOR_LAND;
        assert!(s.add.apply(false, s.mul.apply(true, true)));
        assert!(!s.add.apply(false, s.mul.apply(true, false)));
        assert_eq!(Monoid::<bool>::terminal(&s.add), Some(true));
    }

    #[test]
    fn plus_pair_counts_intersections() {
        let s = PLUS_PAIR;
        let one: u64 = s.mul.apply(123.0f64, 456.0f64);
        assert_eq!(one, 1);
    }

    #[test]
    fn bor_second_unions_the_vector_words() {
        let s = BOR_SECOND;
        let through: u64 = s.mul.apply(true, 0b0110u64);
        assert_eq!(s.add.apply(0b0001, through), 0b0111);
        assert_eq!(Monoid::<u64>::terminal(&s.add), Some(u64::MAX));
        let through: u8 = BOR_FIRST.mul.apply(0b1000u8, true);
        assert_eq!(through, 0b1000);
    }

    #[test]
    fn custom_semiring_from_parts() {
        let s = Semiring::new(Plus, |a: f64, b: f64| (a - b).abs());
        assert_eq!(s.mul.apply(3.0, 5.0), 2.0);
    }
}
