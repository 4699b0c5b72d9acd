//! The inner-loop shape of a product kernel, read off its operators.
//!
//! §II.A's early exit belongs to the monoid: a dot product under MIN, MAX,
//! LOR or BOR may stop once it reaches the terminal value, and one under
//! ANY at its first product. [`Shape::of`] is the one place a kernel's
//! inner loop is chosen. It runs once per call, from what the operators
//! report themselves ([`Monoid::is_any`], [`Monoid::terminal`],
//! [`BinaryOp::ignores_operands`]):
//!
//! | the operators report | shape | the loop |
//! |---|---|---|
//! | `is_any()` | `FirstHit` | takes the first product |
//! | `terminal() = Some(t)` | `Terminal(t)` | compares a plain `T` against the hoisted `t` |
//! | a PAIR multiply, dot or Gustavson | `NoLoad` | reads no values, folds one hoisted product |
//! | anything else | `Fold` | folds every product, no compare |
//!
//! No shape changes an answer. Each applies the same operators to the same
//! operands in the same order as a plain `Option`-accumulator fold, and
//! stops at the entry where that fold would. That holds for ANY too,
//! because [`crate::monoid::Any`] keeps its first operand. The accumulator
//! starts at the first product, never at the monoid identity, which is
//! not bit-identical for floats (`-0.0 + x`). `kernel_equivalence` holds
//! every shape to the dense mimic at 1 and 8 threads.

use crate::binaryop::BinaryOp;
use crate::monoid::Monoid;
use crate::types::{Index, Scalar};

/// How a kernel folds the products that meet at one output position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape<T> {
    /// Fold every product: a monoid with no terminal (PLUS, LXOR, BXOR).
    Fold,
    /// Fold until the running value equals the monoid's terminal.
    Terminal(T),
    /// Take the first product (ANY).
    FirstHit,
    /// The product ignores its operands (PAIR): fold one hoisted product
    /// once per match, loading no values.
    NoLoad,
}

impl<T: Scalar> Shape<T> {
    /// The shape a call runs. `no_load` says the multiply ignores its
    /// operands *and* the kernel has a loop that loads no values (the dot
    /// product and Gustavson's method). It only counts under a monoid with
    /// no early exit, because ANY and a terminal both stop on a value.
    pub(crate) fn of<SA: Monoid<T>>(add: &SA, no_load: bool) -> Self {
        if add.is_any() {
            Shape::FirstHit
        } else if let Some(t) = add.terminal() {
            Shape::Terminal(t)
        } else if no_load {
            Shape::NoLoad
        } else {
            Shape::Fold
        }
    }

    /// The `shape` argument a traced product records.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Shape::Fold => "fold",
            Shape::Terminal(_) => "terminal",
            Shape::FirstHit => "first_hit",
            Shape::NoLoad => "no_load",
        }
    }

    /// Whether a dot product may stop before its last entry (ANY or a
    /// terminal), which is what the pull's cost estimate and its row cut
    /// weigh.
    pub(crate) fn stops_early(self) -> bool {
        matches!(self, Shape::Terminal(_) | Shape::FirstHit)
    }
}

/// One sparse dot product in `shape`: the two-pointer intersection of the
/// index lists, `None` when they do not meet.
#[inline]
pub(crate) fn dot<A, B, T, SA, SM>(
    shape: Shape<T>,
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
    match shape {
        Shape::Fold => dot_until(add, mul, aidx, aval, bidx, bval, |_| false),
        Shape::Terminal(t) => dot_until(add, mul, aidx, aval, bidx, bval, |acc| acc == t),
        Shape::FirstHit => dot_until(add, mul, aidx, aval, bidx, bval, |_| true),
        Shape::NoLoad => dot_no_load(add, mul, aidx, bidx),
    }
}

/// The dot product folded from its first product until `stop` holds.
/// Each shape passes its own closure, so each gets its own loop.
#[inline]
fn dot_until<A, B, T, SA, SM>(
    add: &SA,
    mul: &SM,
    aidx: &[Index],
    aval: &[A],
    bidx: &[Index],
    bval: &[B],
    stop: impl Fn(T) -> bool,
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
            while !stop(acc) && p < aidx.len() && q < bidx.len() {
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

/// The PAIR dot product: count the matches without touching either value
/// array, then fold the hoisted product once per match.
#[inline]
fn dot_no_load<A, B, T, SA, SM>(add: &SA, mul: &SM, aidx: &[Index], bidx: &[Index]) -> Option<T>
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binaryop::{Bor, Land, Lor, Min, Pair, Plus, SaturatingPlus, Second, Times};
    use crate::monoid::Any;

    #[test]
    fn the_monoid_picks_the_shape() {
        assert_eq!(Shape::<f64>::of(&Plus, false), Shape::Fold);
        assert_eq!(Shape::<u64>::of(&Plus, true), Shape::NoLoad);
        assert_eq!(Shape::<i64>::of(&Min, false), Shape::Terminal(i64::MIN));
        assert_eq!(Shape::<i64>::of(&Min, true), Shape::Terminal(i64::MIN));
        assert_eq!(Shape::<bool>::of(&Lor, false), Shape::Terminal(true));
        assert_eq!(Shape::<u64>::of(&Bor, false), Shape::Terminal(u64::MAX));
        assert_eq!(Shape::<i64>::of(&Any, true), Shape::FirstHit);
    }

    /// The plain fold every shape must match: an `Option` accumulator and
    /// the early-exit test after every product.
    fn folded<A: Scalar, B: Scalar, T: Scalar>(
        add: &impl Monoid<T>,
        mul: &impl BinaryOp<A, B, T>,
        aidx: &[Index],
        aval: &[A],
        bidx: &[Index],
        bval: &[B],
    ) -> Option<T> {
        let mut acc: Option<T> = None;
        for (p, &i) in aidx.iter().enumerate() {
            let Some(q) = bidx.iter().position(|&j| j == i) else { continue };
            let prod = mul.apply(aval[p], bval[q]);
            acc = Some(acc.map_or(prod, |cur| add.apply(cur, prod)));
            if add.is_any() || acc == add.terminal() {
                break;
            }
        }
        acc
    }

    type Case = (Vec<Index>, Vec<i64>, Vec<Index>, Vec<i64>);

    fn cases() -> Vec<Case> {
        vec![
            (vec![], vec![], vec![0, 1], vec![5, 6]),
            (vec![0, 2, 5], vec![1, 2, 3], vec![1, 3, 4], vec![7, 8, 9]),
            (vec![0, 2, 5], vec![1, 2, 3], vec![2, 5, 9], vec![7, 8, 9]),
            (vec![0, 1, 2, 3], vec![-4, 0, 3, i64::MAX], vec![0, 1, 2, 3], vec![2, -7, 0, 1]),
            (vec![0, 1, 2], vec![i64::MIN, 5, 6], vec![0, 1, 2], vec![0, 1, 2]),
        ]
    }

    fn shaped<T: Scalar>(
        add: &impl Monoid<T>,
        mul: &impl BinaryOp<i64, i64, T>,
        (aidx, aval, bidx, bval): &Case,
    ) -> (Option<T>, Option<T>) {
        let shape = Shape::of(add, mul.ignores_operands());
        (dot(shape, add, mul, aidx, aval, bidx, bval), folded(add, mul, aidx, aval, bidx, bval))
    }

    #[test]
    fn every_shape_matches_the_plain_fold_bit_for_bit() {
        for case in cases() {
            let (got, want) = shaped(&Plus, &Times, &case);
            assert_eq!(got, want, "plus_times {case:?}");
            let (got, want) = shaped(&Min, &SaturatingPlus, &case);
            assert_eq!(got, want, "min_plus {case:?}");
            let (got, want) = shaped(&Min, &Second, &case);
            assert_eq!(got, want, "min_second {case:?}");
            let (got, want) = shaped::<u64>(&Plus, &Pair, &case);
            assert_eq!(got, want, "plus_pair {case:?}");
            let (got, want) = shaped(&Any, &Second, &case);
            assert_eq!(got, want, "any_second {case:?}");
        }
    }

    #[test]
    fn the_terminal_shape_stops_where_the_fold_does_including_false_values() {
        // Stored `false` entries: the lists meet but no product is true,
        // so the dot is Some(false); a true product stops it.
        let (aidx, aval) = (vec![0, 1, 3], vec![true, false, true]);
        let bidx = vec![1, 2, 3];
        for bval in [vec![false, true, false], vec![true, true, true]] {
            let want = folded(&Lor, &Land, &aidx, &aval, &bidx, &bval);
            let got = dot(Shape::of(&Lor, false), &Lor, &Land, &aidx, &aval, &bidx, &bval);
            assert_eq!(got, want);
            assert_eq!(got, Some(bval[2]));
        }
    }
}
