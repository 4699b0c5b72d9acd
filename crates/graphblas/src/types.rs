//! Scalar domains.
//!
//! The GraphBLAS C API defines 11 built-in types (`GrB_BOOL`, signed and
//! unsigned integers of 8/16/32/64 bits, and 32/64-bit floats). In Rust,
//! monomorphized generics play the role of the C polymorphic interface: any
//! type implementing [`Scalar`] can be stored in a matrix or vector, and the
//! arithmetic subset implements [`Num`], which supplies the operations the
//! built-in operator library is generated from.

/// Index type for matrix and vector dimensions and positions.
///
/// The C API uses `GrB_Index` (`uint64_t`); on the 64-bit targets this
/// library supports, `usize` is equivalent and indexes Rust slices directly.
pub type Index = usize;

/// Marker passed to extract/assign to select *all* indices (`GrB_ALL`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct All;

/// A type that can be stored in a GraphBLAS matrix or vector.
///
/// This is the Rust analogue of a `GrB_Type`: values are plain data (`Copy`),
/// thread-safe, comparable for the exact-equality conformance tests, and
/// carry a name used by the type/operator registry for the semiring census.
pub trait Scalar: Copy + Send + Sync + PartialEq + std::fmt::Debug + Default + 'static {
    /// The GraphBLAS name of the type, e.g. `"FP64"`.
    const NAME: &'static str;

    /// The conventional implicit-zero of the domain. GraphBLAS semantics
    /// never materialize this value implicitly; it is used only by
    /// import/export of dense data and by the dense reference mimic.
    fn zero() -> Self {
        Self::default()
    }

    /// Cast from `f64`, saturating where required. Used by generators and
    /// the reference mimic; mirrors the C API's implicit typecast rules.
    fn from_f64(v: f64) -> Self;

    /// Cast to `f64` (for checks, norms, and printing).
    fn to_f64(self) -> f64;

    /// Whether two values are the same bits: `==` for every domain but the
    /// floats, where `+0.0 == -0.0` and `NaN != NaN` would make two
    /// different stored values equal and one stored value unequal to
    /// itself. What "a matrix is its own transpose" is decided by.
    fn same_bits(self, other: Self) -> bool {
        self == other
    }
}

macro_rules! impl_scalar_int {
    ($($t:ty => $name:literal),* $(,)?) => {$(
        impl Scalar for $t {
            const NAME: &'static str = $name;
            fn from_f64(v: f64) -> Self { v as $t }
            fn to_f64(self) -> f64 { self as f64 }
        }
    )*};
}

impl_scalar_int!(
    i8 => "INT8", i16 => "INT16", i32 => "INT32", i64 => "INT64",
    u8 => "UINT8", u16 => "UINT16", u32 => "UINT32", u64 => "UINT64",
);

macro_rules! impl_scalar_float {
    ($($t:ty => $name:literal),* $(,)?) => {$(
        impl Scalar for $t {
            const NAME: &'static str = $name;
            fn from_f64(v: f64) -> Self { v as $t }
            fn to_f64(self) -> f64 { self as f64 }
            fn same_bits(self, other: Self) -> bool { self.to_bits() == other.to_bits() }
        }
    )*};
}

impl_scalar_float!(f32 => "FP32", f64 => "FP64");

impl Scalar for bool {
    const NAME: &'static str = "BOOL";
    fn from_f64(v: f64) -> Self {
        v != 0.0
    }
    fn to_f64(self) -> f64 {
        if self {
            1.0
        } else {
            0.0
        }
    }
}

/// Arithmetic scalar types: the domain over which the built-in operator
/// library (PLUS, TIMES, MIN, MAX, ...) is defined.
///
/// Integer addition/multiplication wrap rather than panic, matching the C
/// semantics of the GraphBLAS built-in operators (C integer arithmetic is
/// modular for unsigned and in-practice wrapping for signed).
pub trait Num: Scalar + PartialOrd {
    /// Addition (wrapping for integers).
    fn nadd(self, o: Self) -> Self;
    /// Subtraction (wrapping for integers).
    fn nsub(self, o: Self) -> Self;
    /// Multiplication (wrapping for integers).
    fn nmul(self, o: Self) -> Self;
    /// Division, as a total function with *saturating* semantics for the
    /// integer domains (the policy SuiteSparse:GraphBLAS documents for its
    /// built-in `GrB_DIV`):
    ///
    /// * `0 / 0 = 0`;
    /// * `x / 0` saturates toward the sign of `x` — `MAX` for positive `x`,
    ///   `MIN` for negative `x` (unsigned: `MAX` for any nonzero `x`);
    /// * `MIN / -1`, the one overflowing signed quotient, saturates to `MAX`
    ///   instead of wrapping back to `MIN`.
    ///
    /// Floats divide natively (`x / 0.0` is `±inf`/NaN per IEEE 754).
    fn ndiv(self, o: Self) -> Self;
    /// Saturating addition: integers clamp at the domain bounds instead of
    /// wrapping, floats add natively (they saturate at ±inf already), bool
    /// is OR. This is the additive operator for the tropical (MIN_PLUS /
    /// MAX_PLUS) semirings, where `MAX`/`MIN` act as the +∞/−∞ sentinels
    /// and must stay absorbing rather than wrap around.
    fn sadd(self, o: Self) -> Self;
    /// Minimum. For floats, NaN loses (min(NaN, x) = x), matching the "omit
    /// NaN" behaviour of `GrB_MIN` in SuiteSparse.
    fn nmin(self, o: Self) -> Self;
    /// Maximum, with the same NaN policy as [`Num::nmin`].
    fn nmax(self, o: Self) -> Self;
    /// The multiplicative identity.
    fn one() -> Self;
    /// The identity of the MIN monoid (+inf / integer max).
    fn max_value() -> Self;
    /// The identity of the MAX monoid (-inf / integer min).
    fn min_value() -> Self;
}

macro_rules! impl_num_int_signed {
    ($($t:ty),*) => {$(
        impl Num for $t {
            fn nadd(self, o: Self) -> Self { self.wrapping_add(o) }
            fn nsub(self, o: Self) -> Self { self.wrapping_sub(o) }
            fn nmul(self, o: Self) -> Self { self.wrapping_mul(o) }
            fn ndiv(self, o: Self) -> Self {
                if o == 0 {
                    if self == 0 { 0 } else if self > 0 { <$t>::MAX } else { <$t>::MIN }
                } else {
                    // checked_div is None only for MIN / -1; saturate it.
                    self.checked_div(o).unwrap_or(<$t>::MAX)
                }
            }
            fn sadd(self, o: Self) -> Self { self.saturating_add(o) }
            fn nmin(self, o: Self) -> Self { std::cmp::min(self, o) }
            fn nmax(self, o: Self) -> Self { std::cmp::max(self, o) }
            fn one() -> Self { 1 }
            fn max_value() -> Self { <$t>::MAX }
            fn min_value() -> Self { <$t>::MIN }
        }
    )*};
}

macro_rules! impl_num_int_unsigned {
    ($($t:ty),*) => {$(
        impl Num for $t {
            fn nadd(self, o: Self) -> Self { self.wrapping_add(o) }
            fn nsub(self, o: Self) -> Self { self.wrapping_sub(o) }
            fn nmul(self, o: Self) -> Self { self.wrapping_mul(o) }
            fn ndiv(self, o: Self) -> Self {
                if o == 0 {
                    if self == 0 { 0 } else { <$t>::MAX }
                } else {
                    self / o
                }
            }
            fn sadd(self, o: Self) -> Self { self.saturating_add(o) }
            fn nmin(self, o: Self) -> Self { std::cmp::min(self, o) }
            fn nmax(self, o: Self) -> Self { std::cmp::max(self, o) }
            fn one() -> Self { 1 }
            fn max_value() -> Self { <$t>::MAX }
            fn min_value() -> Self { <$t>::MIN }
        }
    )*};
}

impl_num_int_signed!(i8, i16, i32, i64);
impl_num_int_unsigned!(u8, u16, u32, u64);

macro_rules! impl_num_float {
    ($($t:ty),*) => {$(
        impl Num for $t {
            fn nadd(self, o: Self) -> Self { self + o }
            fn nsub(self, o: Self) -> Self { self - o }
            fn nmul(self, o: Self) -> Self { self * o }
            fn ndiv(self, o: Self) -> Self { self / o }
            fn sadd(self, o: Self) -> Self { self + o }
            fn nmin(self, o: Self) -> Self {
                if self.is_nan() { o } else if o.is_nan() { self }
                else if self < o { self } else { o }
            }
            fn nmax(self, o: Self) -> Self {
                if self.is_nan() { o } else if o.is_nan() { self }
                else if self > o { self } else { o }
            }
            fn one() -> Self { 1.0 }
            fn max_value() -> Self { <$t>::INFINITY }
            fn min_value() -> Self { <$t>::NEG_INFINITY }
        }
    )*};
}

impl_num_float!(f32, f64);

/// Boolean arithmetic follows the C API's typecast rules, as SuiteSparse
/// defines its `*_BOOL` operators: PLUS = OR, TIMES = AND, MINUS = XOR,
/// MIN = AND, MAX = OR, DIV(x,y) = x.
impl Num for bool {
    fn nadd(self, o: Self) -> Self {
        self || o
    }
    fn nsub(self, o: Self) -> Self {
        self != o
    }
    fn nmul(self, o: Self) -> Self {
        self && o
    }
    fn ndiv(self, _: Self) -> Self {
        self
    }
    fn sadd(self, o: Self) -> Self {
        self || o
    }
    fn nmin(self, o: Self) -> Self {
        self && o
    }
    fn nmax(self, o: Self) -> Self {
        self || o
    }
    fn one() -> Self {
        true
    }
    fn max_value() -> Self {
        true
    }
    fn min_value() -> Self {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_names_match_c_api() {
        assert_eq!(<bool as Scalar>::NAME, "BOOL");
        assert_eq!(<i8 as Scalar>::NAME, "INT8");
        assert_eq!(<u64 as Scalar>::NAME, "UINT64");
        assert_eq!(<f64 as Scalar>::NAME, "FP64");
    }

    #[test]
    fn integer_arithmetic_wraps() {
        assert_eq!(255u8.nadd(1), 0);
        assert_eq!(i8::MAX.nadd(1), i8::MIN);
        assert_eq!(200u8.nmul(2), 144); // 400 mod 256
    }

    #[test]
    fn integer_division_by_zero_saturates() {
        assert_eq!(0i32.ndiv(0), 0);
        assert_eq!(7i32.ndiv(0), i32::MAX);
        assert_eq!((-7i32).ndiv(0), i32::MIN);
        assert_eq!(0u8.ndiv(0), 0);
        assert_eq!(7u8.ndiv(0), u8::MAX);
    }

    #[test]
    fn signed_min_over_minus_one_saturates() {
        assert_eq!(i8::MIN.ndiv(-1), i8::MAX);
        assert_eq!(i32::MIN.ndiv(-1), i32::MAX);
        assert_eq!(i64::MIN.ndiv(-1), i64::MAX);
        // Ordinary quotients are untouched.
        assert_eq!((-6i32).ndiv(2), -3);
        assert_eq!(7u32.ndiv(2), 3);
    }

    #[test]
    fn saturating_add_clamps_at_bounds() {
        assert_eq!(i32::MAX.sadd(1), i32::MAX);
        assert_eq!(i32::MIN.sadd(-1), i32::MIN);
        assert_eq!(u8::MAX.sadd(200), u8::MAX);
        assert_eq!(3i64.sadd(4), 7);
        assert_eq!(f64::INFINITY.sadd(1.0), f64::INFINITY);
        assert!(true.sadd(false));
    }

    #[test]
    fn float_min_max_omit_nan() {
        assert_eq!(f64::NAN.nmin(3.0), 3.0);
        assert_eq!(3.0f64.nmin(f64::NAN), 3.0);
        assert_eq!(f64::NAN.nmax(3.0), 3.0);
    }

    #[test]
    fn min_max_identities() {
        assert_eq!(<i32 as Num>::max_value(), i32::MAX);
        assert_eq!(<f64 as Num>::max_value(), f64::INFINITY);
        assert_eq!(<f32 as Num>::min_value(), f32::NEG_INFINITY);
    }

    #[test]
    fn same_bits_tells_signed_zeros_apart_and_matches_a_nan_to_itself() {
        assert!(!0.0f64.same_bits(-0.0) && !0.0f32.same_bits(-0.0));
        assert!(f64::NAN.same_bits(f64::NAN) && f32::NAN.same_bits(f32::NAN));
        assert!(1.5f64.same_bits(1.5) && 3i32.same_bits(3) && true.same_bits(true));
        assert!(!3i32.same_bits(4));
    }

    #[test]
    fn f64_casts_round_trip_for_small_ints() {
        assert_eq!(i32::from_f64(42.0), 42);
        assert_eq!(42i32.to_f64(), 42.0);
        assert!(bool::from_f64(1.0));
        assert!(!bool::from_f64(0.0));
    }
}
