//! Binary operators (`GrB_BinaryOp`).
//!
//! A binary operator maps `(A, B) -> C` over scalar domains. The built-in
//! operator set mirrors the GraphBLAS C API (FIRST, SECOND, MIN, MAX, PLUS,
//! MINUS, TIMES, DIV, the six comparisons, and the Boolean ops) plus the
//! SuiteSparse extensions (ISEQ..ISLE, LOR/LAND/LXOR on all types, PAIR,
//! RMINUS, RDIV) that the paper's "960 built-in semirings" figure counts.
//! The C API's bitwise family (BOR, BAND, BXOR, BXNOR over the unsigned
//! integer domains) came after that count; it is here for the bit-parallel
//! traversals, one machine word of independent Boolean searches per vertex.
//!
//! Operators are zero-sized unit structs; a generic `impl` per domain plays
//! the role of SuiteSparse's code generator — the compiler monomorphizes a
//! fused kernel for every (operator, type) pair actually used. User-defined
//! operators are ordinary closures: any `Fn(A, B) -> C` qualifies.

use crate::types::{Num, Scalar};

/// A binary operator `z = f(x, y)` over GraphBLAS domains.
pub trait BinaryOp<A: Scalar, B: Scalar, C: Scalar>: Copy + Send + Sync {
    /// Apply the operator.
    fn apply(&self, a: A, b: B) -> C;

    /// Whether `apply` returns the same value whatever its operands (PAIR).
    /// The dot-product and Gustavson kernels then compute the product once
    /// and never load either operand's values.
    fn ignores_operands(&self) -> bool {
        false
    }
}

/// Any copyable closure is a user-defined binary operator.
impl<A: Scalar, B: Scalar, C: Scalar, F> BinaryOp<A, B, C> for F
where
    F: Fn(A, B) -> C + Copy + Send + Sync,
{
    fn apply(&self, a: A, b: B) -> C {
        self(a, b)
    }
}

macro_rules! unit_op {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $name;
    };
}

unit_op!(
    /// `z = x` (`GrB_FIRST`).
    First
);
unit_op!(
    /// `z = y` (`GrB_SECOND`).
    Second
);
unit_op!(
    /// `z = 1` regardless of inputs (`GxB_PAIR` / `GrB_ONEB`).
    Pair
);
unit_op!(
    /// `z = min(x, y)` (`GrB_MIN`).
    Min
);
unit_op!(
    /// `z = max(x, y)` (`GrB_MAX`).
    Max
);
unit_op!(
    /// `z = x + y` (`GrB_PLUS`).
    Plus
);
unit_op!(
    /// `z = x + y` with saturating integer semantics — the additive
    /// operator of the tropical semirings, where the `MAX`/`MIN` sentinels
    /// play ±∞ and must absorb rather than wrap (see [`Num::sadd`]).
    SaturatingPlus
);
unit_op!(
    /// `z = x - y` (`GrB_MINUS`).
    Minus
);
unit_op!(
    /// `z = y - x` (`GxB_RMINUS`).
    Rminus
);
unit_op!(
    /// `z = x * y` (`GrB_TIMES`).
    Times
);
unit_op!(
    /// `z = x / y` (`GrB_DIV`).
    Div
);
unit_op!(
    /// `z = y / x` (`GxB_RDIV`).
    Rdiv
);
unit_op!(
    /// `z = (x == y)` in the input domain (`GxB_ISEQ`).
    Iseq
);
unit_op!(
    /// `z = (x != y)` in the input domain (`GxB_ISNE`).
    Isne
);
unit_op!(
    /// `z = (x > y)` in the input domain (`GxB_ISGT`).
    Isgt
);
unit_op!(
    /// `z = (x < y)` in the input domain (`GxB_ISLT`).
    Islt
);
unit_op!(
    /// `z = (x >= y)` in the input domain (`GxB_ISGE`).
    Isge
);
unit_op!(
    /// `z = (x <= y)` in the input domain (`GxB_ISLE`).
    Isle
);
unit_op!(
    /// Logical OR of the truth values of x and y (`GrB_LOR`).
    Lor
);
unit_op!(
    /// Logical AND of the truth values of x and y (`GrB_LAND`).
    Land
);
unit_op!(
    /// Logical XOR of the truth values of x and y (`GrB_LXOR`).
    Lxor
);
unit_op!(
    /// `z = x | y` on an unsigned integer domain (`GrB_BOR`).
    Bor
);
unit_op!(
    /// `z = x & y` on an unsigned integer domain (`GrB_BAND`).
    Band
);
unit_op!(
    /// `z = x ^ y` on an unsigned integer domain (`GrB_BXOR`).
    Bxor
);
unit_op!(
    /// `z = !(x ^ y)` on an unsigned integer domain (`GrB_BXNOR`).
    Bxnor
);
unit_op!(
    /// `z = (x == y)` as BOOL (`GrB_EQ`).
    Eq
);
unit_op!(
    /// `z = (x != y)` as BOOL (`GrB_NE`).
    Ne
);
unit_op!(
    /// `z = (x > y)` as BOOL (`GrB_GT`).
    Gt
);
unit_op!(
    /// `z = (x < y)` as BOOL (`GrB_LT`).
    Lt
);
unit_op!(
    /// `z = (x >= y)` as BOOL (`GrB_GE`).
    Ge
);
unit_op!(
    /// `z = (x <= y)` as BOOL (`GrB_LE`).
    Le
);

impl<A: Scalar, B: Scalar> BinaryOp<A, B, A> for First {
    fn apply(&self, a: A, _: B) -> A {
        a
    }
}

impl<A: Scalar, B: Scalar> BinaryOp<A, B, B> for Second {
    fn apply(&self, _: A, b: B) -> B {
        b
    }
}

impl<A: Scalar, B: Scalar, C: Num> BinaryOp<A, B, C> for Pair {
    fn apply(&self, _: A, _: B) -> C {
        C::one()
    }
    fn ignores_operands(&self) -> bool {
        true
    }
}

impl<T: Num> BinaryOp<T, T, T> for Min {
    fn apply(&self, a: T, b: T) -> T {
        a.nmin(b)
    }
}

impl<T: Num> BinaryOp<T, T, T> for Max {
    fn apply(&self, a: T, b: T) -> T {
        a.nmax(b)
    }
}

impl<T: Num> BinaryOp<T, T, T> for Plus {
    fn apply(&self, a: T, b: T) -> T {
        a.nadd(b)
    }
}

impl<T: Num> BinaryOp<T, T, T> for SaturatingPlus {
    fn apply(&self, a: T, b: T) -> T {
        a.sadd(b)
    }
}

impl<T: Num> BinaryOp<T, T, T> for Minus {
    fn apply(&self, a: T, b: T) -> T {
        a.nsub(b)
    }
}

impl<T: Num> BinaryOp<T, T, T> for Rminus {
    fn apply(&self, a: T, b: T) -> T {
        b.nsub(a)
    }
}

impl<T: Num> BinaryOp<T, T, T> for Times {
    fn apply(&self, a: T, b: T) -> T {
        a.nmul(b)
    }
}

impl<T: Num> BinaryOp<T, T, T> for Div {
    fn apply(&self, a: T, b: T) -> T {
        a.ndiv(b)
    }
}

impl<T: Num> BinaryOp<T, T, T> for Rdiv {
    fn apply(&self, a: T, b: T) -> T {
        b.ndiv(a)
    }
}

macro_rules! is_op {
    ($name:ident, $cmp:tt) => {
        impl<T: Num> BinaryOp<T, T, T> for $name {
            fn apply(&self, a: T, b: T) -> T {
                if a $cmp b { T::one() } else { T::zero() }
            }
        }
    };
}

is_op!(Iseq, ==);
is_op!(Isne, !=);
is_op!(Isgt, >);
is_op!(Islt, <);
is_op!(Isge, >=);
is_op!(Isle, <=);

macro_rules! cmp_op {
    ($name:ident, $cmp:tt) => {
        impl<T: Scalar + PartialOrd> BinaryOp<T, T, bool> for $name {
            fn apply(&self, a: T, b: T) -> bool {
                a $cmp b
            }
        }
    };
}

cmp_op!(Eq, ==);
cmp_op!(Ne, !=);
cmp_op!(Gt, >);
cmp_op!(Lt, <);
cmp_op!(Ge, >=);
cmp_op!(Le, <=);

/// Truth value of a scalar: nonzero means true, as in the C API typecast
/// from any domain to BOOL.
#[inline]
pub fn truthy<T: Scalar>(v: T) -> bool {
    v != T::zero()
}

impl<T: Scalar> BinaryOp<T, T, T> for Lor {
    fn apply(&self, a: T, b: T) -> T {
        if truthy(a) {
            a
        } else if truthy(b) {
            b
        } else {
            T::zero()
        }
    }
}

impl<T: Scalar> BinaryOp<T, T, T> for Land {
    fn apply(&self, a: T, b: T) -> T {
        if truthy(a) && truthy(b) {
            if truthy(a) {
                a
            } else {
                b
            }
        } else {
            T::zero()
        }
    }
}

impl<T: Num> BinaryOp<T, T, T> for Lxor {
    fn apply(&self, a: T, b: T) -> T {
        if truthy(a) != truthy(b) {
            T::one()
        } else {
            T::zero()
        }
    }
}

macro_rules! bitwise_ops {
    ($($t:ty),*) => {$(
        impl BinaryOp<$t, $t, $t> for Bor {
            fn apply(&self, a: $t, b: $t) -> $t {
                a | b
            }
        }
        impl BinaryOp<$t, $t, $t> for Band {
            fn apply(&self, a: $t, b: $t) -> $t {
                a & b
            }
        }
        impl BinaryOp<$t, $t, $t> for Bxor {
            fn apply(&self, a: $t, b: $t) -> $t {
                a ^ b
            }
        }
        impl BinaryOp<$t, $t, $t> for Bxnor {
            fn apply(&self, a: $t, b: $t) -> $t {
                !(a ^ b)
            }
        }
    )*};
}

bitwise_ops!(u8, u16, u32, u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_ops() {
        assert_eq!(BinaryOp::<i32, i32, i32>::apply(&Plus, 2, 3), 5);
        assert_eq!(BinaryOp::<i32, i32, i32>::apply(&Minus, 2, 3), -1);
        assert_eq!(BinaryOp::<i32, i32, i32>::apply(&Rminus, 2, 3), 1);
        assert_eq!(BinaryOp::<f64, f64, f64>::apply(&Times, 2.0, 3.5), 7.0);
        assert_eq!(BinaryOp::<i32, i32, i32>::apply(&Div, 7, 2), 3);
        assert_eq!(BinaryOp::<i32, i32, i32>::apply(&Rdiv, 2, 7), 3);
    }

    #[test]
    fn selection_ops() {
        assert_eq!(BinaryOp::<i32, f64, i32>::apply(&First, 7, 2.5), 7);
        assert_eq!(BinaryOp::<i32, f64, f64>::apply(&Second, 7, 2.5), 2.5);
        assert_eq!(BinaryOp::<i32, i32, u8>::apply(&Pair, 7, 9), 1u8);
        assert_eq!(BinaryOp::<i32, i32, i32>::apply(&Min, 7, 2), 2);
        assert_eq!(BinaryOp::<i32, i32, i32>::apply(&Max, 7, 2), 7);
    }

    #[test]
    fn is_ops_return_input_domain() {
        assert_eq!(BinaryOp::<i32, i32, i32>::apply(&Iseq, 3, 3), 1);
        assert_eq!(BinaryOp::<i32, i32, i32>::apply(&Isgt, 3, 3), 0);
        assert_eq!(BinaryOp::<f64, f64, f64>::apply(&Isle, 2.0, 3.0), 1.0);
    }

    #[test]
    fn comparison_ops_return_bool() {
        assert!(BinaryOp::<i32, i32, bool>::apply(&Eq, 3, 3));
        assert!(BinaryOp::<i32, i32, bool>::apply(&Lt, 2, 3));
        assert!(!BinaryOp::<f64, f64, bool>::apply(&Ge, 2.0, 3.0));
    }

    #[test]
    fn logical_ops_on_any_domain() {
        assert_eq!(BinaryOp::<i32, i32, i32>::apply(&Lor, 0, 5), 5);
        assert_eq!(BinaryOp::<i32, i32, i32>::apply(&Land, 2, 0), 0);
        assert_eq!(BinaryOp::<i32, i32, i32>::apply(&Lxor, 2, 0), 1);
        assert!(BinaryOp::<bool, bool, bool>::apply(&Lor, false, true));
    }

    #[test]
    fn bitwise_ops_on_unsigned_domains() {
        assert_eq!(BinaryOp::<u8, u8, u8>::apply(&Bor, 0b0101, 0b0011), 0b0111);
        assert_eq!(BinaryOp::<u8, u8, u8>::apply(&Band, 0b0101, 0b0011), 0b0001);
        assert_eq!(BinaryOp::<u8, u8, u8>::apply(&Bxor, 0b0101, 0b0011), 0b0110);
        assert_eq!(BinaryOp::<u8, u8, u8>::apply(&Bxnor, 0b0101, 0b0011), 0b1111_1001);
        assert_eq!(BinaryOp::<u64, u64, u64>::apply(&Bxnor, 7, 7), u64::MAX);
    }

    #[test]
    fn closures_are_binary_ops() {
        let hypot = |a: f64, b: f64| (a * a + b * b).sqrt();
        assert_eq!(BinaryOp::<f64, f64, f64>::apply(&hypot, 3.0, 4.0), 5.0);
    }

    #[test]
    fn saturating_plus_clamps_integers() {
        assert_eq!(BinaryOp::<i32, i32, i32>::apply(&SaturatingPlus, 2, 3), 5);
        assert_eq!(BinaryOp::<i64, i64, i64>::apply(&SaturatingPlus, i64::MAX, 7), i64::MAX);
        assert_eq!(BinaryOp::<f64, f64, f64>::apply(&SaturatingPlus, 1.5, 2.5), 4.0);
    }

    #[test]
    fn only_pair_ignores_its_operands() {
        assert!(BinaryOp::<u64, u64, u64>::ignores_operands(&Pair));
        assert!(!BinaryOp::<i64, i64, i64>::ignores_operands(&Times));
        assert!(!BinaryOp::<i64, i64, i64>::ignores_operands(&Second));
        let f = |_: i64, _: i64| 1i64;
        assert!(!BinaryOp::<i64, i64, i64>::ignores_operands(&f));
    }
}
