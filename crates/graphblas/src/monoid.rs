//! Monoids (`GrB_Monoid`): associative binary operators with an identity,
//! and optionally a *terminal* (annihilator) value.
//!
//! The terminal value is the SuiteSparse "early exit" extension described in
//! §II.A of the LAGraph paper: a dot product using the LOR monoid can stop
//! as soon as it produces `true`, which is what makes the "pull" phase of
//! direction-optimizing BFS competitive. Our dot-product kernels honor
//! [`Monoid::terminal`].

use crate::binaryop::{Band, BinaryOp, Bor, Bxnor, Bxor, Land, Lor, Lxor, Max, Min, Plus, Times};
use crate::types::{Num, Scalar};

/// An associative, commutative binary operator with an identity element.
///
/// `Monoid<T>` extends `BinaryOp<T, T, T>`; the combine operation *is* the
/// binary operator's `apply`.
pub trait Monoid<T: Scalar>: BinaryOp<T, T, T> {
    /// The identity element: `combine(identity, x) == x`.
    fn identity(&self) -> T;

    /// The terminal (annihilator) value, if one exists:
    /// `combine(terminal, x) == terminal`. Reduction kernels may stop early
    /// once the running value reaches the terminal.
    fn terminal(&self) -> Option<T> {
        None
    }

    /// True for the ANY monoid, whose result may be *any* of its inputs:
    /// every value is terminal, so kernels may take the first value seen.
    fn is_any(&self) -> bool {
        false
    }
}

impl<T: Num> Monoid<T> for Plus {
    fn identity(&self) -> T {
        T::zero()
    }
}

impl<T: Num> Monoid<T> for Times {
    fn identity(&self) -> T {
        T::one()
    }
    // 0 annihilates products over the reals; this does not hold for
    // wrapping integer arithmetic in general but 0 * x == 0 still does.
    fn terminal(&self) -> Option<T> {
        Some(T::zero())
    }
}

impl<T: Num> Monoid<T> for Min {
    fn identity(&self) -> T {
        T::max_value()
    }
    fn terminal(&self) -> Option<T> {
        Some(T::min_value())
    }
}

impl<T: Num> Monoid<T> for Max {
    fn identity(&self) -> T {
        T::min_value()
    }
    fn terminal(&self) -> Option<T> {
        Some(T::max_value())
    }
}

impl Monoid<bool> for Lor {
    fn identity(&self) -> bool {
        false
    }
    fn terminal(&self) -> Option<bool> {
        Some(true)
    }
}

impl Monoid<bool> for Land {
    fn identity(&self) -> bool {
        true
    }
    fn terminal(&self) -> Option<bool> {
        Some(false)
    }
}

impl Monoid<bool> for Lxor {
    fn identity(&self) -> bool {
        false
    }
}

/// The bitwise monoids over the unsigned integer domains. BOR and BAND
/// have terminals (all-ones and 0): a word whose every bit is decided stops
/// a dot product the way `true` stops LOR's, which is what lets a
/// bit-parallel traversal keep the pull direction's early exit.
macro_rules! bitwise_monoids {
    ($($t:ty),*) => {$(
        impl Monoid<$t> for Bor {
            fn identity(&self) -> $t {
                0
            }
            fn terminal(&self) -> Option<$t> {
                Some(<$t>::MAX)
            }
        }
        impl Monoid<$t> for Band {
            fn identity(&self) -> $t {
                <$t>::MAX
            }
            fn terminal(&self) -> Option<$t> {
                Some(0)
            }
        }
        impl Monoid<$t> for Bxor {
            fn identity(&self) -> $t {
                0
            }
        }
        impl Monoid<$t> for Bxnor {
            fn identity(&self) -> $t {
                <$t>::MAX
            }
        }
    )*};
}

bitwise_monoids!(u8, u16, u32, u64);

/// The ANY monoid (`GxB_ANY`): returns one of its operands, unspecified
/// which. Every value is terminal, so reductions may stop at the first
/// entry — this is what makes the parent-BFS semiring `ANY_SECONDI` fast.
///
/// This implementation deterministically keeps the first operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Any;

impl<T: Scalar> BinaryOp<T, T, T> for Any {
    fn apply(&self, a: T, _: T) -> T {
        a
    }
}

impl<T: Scalar> Monoid<T> for Any {
    fn identity(&self) -> T {
        T::zero()
    }
    fn is_any(&self) -> bool {
        true
    }
}

/// Fold an iterator with a monoid, honoring early exit on terminal values.
///
/// Returns `None` for an empty iterator (GraphBLAS reductions of an empty
/// object yield no entry rather than the identity, except reduce-to-scalar
/// which applies the identity — callers choose).
pub fn fold<T: Scalar, M: Monoid<T>>(monoid: &M, iter: impl IntoIterator<Item = T>) -> Option<T> {
    let mut it = iter.into_iter();
    let mut acc = it.next()?;
    if monoid.is_any() {
        return Some(acc);
    }
    let terminal = monoid.terminal();
    if Some(acc) == terminal {
        return Some(acc);
    }
    for v in it {
        acc = monoid.apply(acc, v);
        if Some(acc) == terminal {
            break;
        }
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities() {
        assert_eq!(Monoid::<i32>::identity(&Plus), 0);
        assert_eq!(Monoid::<i32>::identity(&Times), 1);
        assert_eq!(Monoid::<i32>::identity(&Min), i32::MAX);
        assert_eq!(Monoid::<f64>::identity(&Min), f64::INFINITY);
        assert_eq!(Monoid::<i32>::identity(&Max), i32::MIN);
        assert!(!Monoid::<bool>::identity(&Lor));
        assert!(Monoid::<bool>::identity(&Land));
    }

    #[test]
    fn identity_law_holds() {
        for x in [-3i32, 0, 7] {
            assert_eq!(Plus.apply(Monoid::<i32>::identity(&Plus), x), x);
            assert_eq!(Min.apply(Monoid::<i32>::identity(&Min), x), x);
            assert_eq!(Max.apply(Monoid::<i32>::identity(&Max), x), x);
            assert_eq!(Times.apply(Monoid::<i32>::identity(&Times), x), x);
        }
    }

    #[test]
    fn terminal_values() {
        assert_eq!(Monoid::<bool>::terminal(&Lor), Some(true));
        assert_eq!(Monoid::<bool>::terminal(&Land), Some(false));
        assert_eq!(Monoid::<i32>::terminal(&Min), Some(i32::MIN));
        assert_eq!(Monoid::<f64>::terminal(&Max), Some(f64::INFINITY));
        assert_eq!(Monoid::<i32>::terminal(&Plus), None);
        assert_eq!(Monoid::<bool>::terminal(&Lxor), None);
    }

    #[test]
    fn bitwise_monoid_laws() {
        for x in [0u8, 0b1010_0101, u8::MAX] {
            assert_eq!(Bor.apply(Monoid::<u8>::identity(&Bor), x), x);
            assert_eq!(Band.apply(Monoid::<u8>::identity(&Band), x), x);
            assert_eq!(Bxor.apply(Monoid::<u8>::identity(&Bxor), x), x);
            assert_eq!(Bxnor.apply(Monoid::<u8>::identity(&Bxnor), x), x);
            assert_eq!(Bor.apply(u8::MAX, x), u8::MAX, "all-ones annihilates BOR");
            assert_eq!(Band.apply(0, x), 0, "zero annihilates BAND");
        }
        assert_eq!(Monoid::<u64>::terminal(&Bor), Some(u64::MAX));
        assert_eq!(Monoid::<u64>::terminal(&Band), Some(0));
        assert_eq!(Monoid::<u64>::terminal(&Bxor), None);
        assert_eq!(Monoid::<u64>::terminal(&Bxnor), None);
        // A fold stops at the terminal: the entry after it is never read.
        let mut seen = 0;
        let vals = [0x0fu8, 0xf0, 0x55];
        let folded = fold(
            &Bor,
            vals.iter().map(|&v| {
                seen += 1;
                v
            }),
        );
        assert_eq!((folded, seen), (Some(u8::MAX), 2));
    }

    #[test]
    fn fold_basic() {
        assert_eq!(fold(&Plus, [1, 2, 3, 4]), Some(10));
        assert_eq!(fold(&Min, [3, 1, 4, 1]), Some(1));
        assert_eq!(fold(&Plus, std::iter::empty::<i32>()), None);
    }

    #[test]
    fn fold_early_exit_on_terminal() {
        // An iterator that panics past the terminal proves early exit.
        let vals = [1i32, i32::MIN, /* never combined: */ 0];
        let mut seen = 0;
        let it = vals.iter().map(|&v| {
            seen += 1;
            v
        });
        assert_eq!(fold(&Min, it), Some(i32::MIN));
        assert_eq!(seen, 2);
    }

    #[test]
    fn any_takes_first() {
        assert_eq!(fold(&Any, [7, 8, 9]), Some(7));
        assert!(Monoid::<i32>::is_any(&Any));
    }
}
