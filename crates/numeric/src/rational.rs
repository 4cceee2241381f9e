//! The [`Rational`] type: a normalized `i128` fraction whose operations
//! run as plain integers when both operands are integers, and at 64-bit
//! width when both fit (see the crate docs).

use crate::gcd;
use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number `num / den` with `den > 0` and
/// `gcd(|num|, den) == 1` as an invariant.
///
/// The invariant is established by every constructor and maintained by every
/// operation, so `==` is structural equality and hashing is consistent.
///
/// Three paths share the one stored form. Integer operands (denominator 1)
/// add, subtract, multiply and compare as checked `i128`s; operands inside
/// `±i64::MAX` take their gcds at machine width; anything wider takes the
/// checked full-width reference. Each path gives the reference's value,
/// and `None` exactly where it does.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128, // invariant: den > 0, gcd(|num|, den) == 1
}

/// Error produced when parsing a [`Rational`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError {
    msg: String,
}

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational: {}", self.msg)
    }
}

impl std::error::Error for ParseRationalError {}

/// Error produced by the fallible arithmetic API ([`Rational::try_add`] and
/// friends): an `i128` overflow in an intermediate product, or a division by
/// zero. Carries the operation and both operands for diagnostics.
///
/// The panicking operator impls (`+`, `-`, `*`, `/`) route through this same
/// API and panic with the error's message; callers that take unbounded
/// inputs use the `try_*` methods directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumericError {
    /// The operation that failed (`"add"`, `"sub"`, `"mul"`, `"div"`).
    pub op: &'static str,
    /// Left operand.
    pub lhs: Rational,
    /// Right operand.
    pub rhs: Rational,
}

impl fmt::Display for NumericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.op == "div" && self.rhs.is_zero() {
            write!(f, "rational division by zero: {} / 0", self.lhs)
        } else {
            write!(
                f,
                "rational {} overflow: {} and {}",
                self.op, self.lhs, self.rhs
            )
        }
    }
}

impl std::error::Error for NumericError {}

impl Rational {
    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// One.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates `num / den`, normalizing sign and common factors.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`, or if the normal form does not fit `i128`
    /// (a denominator of magnitude 2¹²⁷, or `i128::MIN / -1`).
    #[inline]
    pub fn new(num: i128, den: i128) -> Rational {
        assert!(den != 0, "Rational with zero denominator");
        Rational::normalized(num, den)
            .unwrap_or_else(|| panic!("Rational {num}/{den} has no i128 normal form"))
    }

    /// The normal form of `num / den`, `den != 0`; `None` when it does not
    /// fit `i128`. What [`Rational::new`] and `FromStr` share.
    #[inline]
    fn normalized(num: i128, den: i128) -> Option<Rational> {
        match (narrow(num), narrow(den)) {
            (Some(num), Some(den)) => Some(Rational::new_narrow(num, den)),
            _ => Rational::new_wide(num, den),
        }
    }

    /// `normalized` for components inside `±i64::MAX`: the gcd and the two
    /// divisions run at machine width.
    #[inline]
    fn new_narrow(num: i64, den: i64) -> Rational {
        let (num, den) = if den < 0 { (-num, -den) } else { (num, den) };
        if den == 1 {
            return Rational::from_integer(num as i128);
        }
        let g = gcd_u64(num.unsigned_abs(), den as u64) as i64;
        Rational {
            num: (num / g) as i128,
            den: (den / g) as i128,
        }
    }

    /// `normalized` at full width: `None` when the normal form (sign in the
    /// numerator, positive denominator) leaves `i128`.
    fn new_wide(num: i128, den: i128) -> Option<Rational> {
        let g = gcd(num.unsigned_abs(), den.unsigned_abs());
        let magnitude = i128::try_from(num.unsigned_abs() / g);
        let den_abs = i128::try_from(den.unsigned_abs() / g).ok()?;
        let num = match ((num < 0) != (den < 0), magnitude) {
            (false, Ok(m)) => m,
            (true, Ok(m)) => -m,
            // |num|/g = 2¹²⁷ is representable only with the minus sign.
            (true, Err(_)) => i128::MIN,
            (false, Err(_)) => return None,
        };
        Some(Rational { num, den: den_abs })
    }

    /// Creates a rational from an integer.
    #[inline]
    pub const fn from_integer(n: i128) -> Rational {
        Rational { num: n, den: 1 }
    }

    /// Numerator (after normalization; carries the sign).
    #[inline]
    pub const fn numer(self) -> i128 {
        self.num
    }

    /// Denominator (after normalization; always positive).
    #[inline]
    pub const fn denom(self) -> i128 {
        self.den
    }

    /// `true` if the value is exactly zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.num == 0
    }

    /// `true` if the value is an integer.
    #[inline]
    pub const fn is_integer(self) -> bool {
        self.den == 1
    }

    /// `true` if strictly positive.
    #[inline]
    pub const fn is_positive(self) -> bool {
        self.num > 0
    }

    /// `true` if strictly negative.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Absolute value.
    ///
    /// # Panics
    ///
    /// Panics if the value is `i128::MIN` (see [`Neg`]).
    #[inline]
    pub fn abs(self) -> Rational {
        if self.num < 0 {
            -self
        } else {
            self
        }
    }

    /// Largest integer `<= self`.
    #[inline]
    pub fn floor(self) -> i128 {
        match self.narrowed() {
            Some((num, den)) => num.div_euclid(den) as i128,
            None => self.floor_wide(),
        }
    }

    fn floor_wide(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer `>= self`.
    #[inline]
    pub fn ceil(self) -> i128 {
        match self.narrowed() {
            Some((num, den)) => -(-num).div_euclid(den) as i128,
            None => self.ceil_wide(),
        }
    }

    fn ceil_wide(self) -> i128 {
        // Not `-(-num).div_euclid(den)`: `i128::MIN` has no negation.
        self.num.div_euclid(self.den) + i128::from(self.num.rem_euclid(self.den) != 0)
    }

    /// Truncation towards zero.
    #[inline]
    pub fn trunc(self) -> i128 {
        self.num / self.den
    }

    /// Fractional part, `self - floor(self)`; always in `[0, 1)`.
    #[inline]
    pub fn fract(self) -> Rational {
        self - Rational::from_integer(self.floor())
    }

    /// Euclidean remainder of `self` by `modulus`, in `[0, modulus)`.
    ///
    /// This is the `mod` of the paper's Eq. (7)/(10): the result is
    /// non-negative for positive `modulus` regardless of the sign of `self`
    /// (e.g. `(-5) mod 50 = 45`).
    ///
    /// # Panics
    ///
    /// Panics if `modulus <= 0`.
    pub fn rem_euclid(self, modulus: Rational) -> Rational {
        assert!(
            modulus.is_positive(),
            "rem_euclid with non-positive modulus {modulus}"
        );
        self - modulus * Rational::from_integer(self.div_floor(modulus))
    }

    /// `⌊self / rhs⌋` for `rhs > 0`: `(self / rhs).floor()` without
    /// normalizing the quotient. Integers divide directly; narrow operands
    /// divide their cross products, which fit `i128`; wider ones take the
    /// quotient, and panic where it overflows.
    #[inline]
    pub fn div_floor(self, rhs: Rational) -> i128 {
        debug_assert!(rhs.is_positive(), "div_floor by non-positive {rhs}");
        match self.cross(rhs) {
            Some((n, d)) => floor_div(n, d).0,
            None => (self / rhs).floor(),
        }
    }

    /// `⌈self / rhs⌉` for `rhs > 0`, as [`Rational::div_floor`] computes
    /// `⌊self / rhs⌋`.
    #[inline]
    pub fn div_ceil(self, rhs: Rational) -> i128 {
        debug_assert!(rhs.is_positive(), "div_ceil by non-positive {rhs}");
        match self.cross(rhs) {
            Some((n, d)) => {
                let (floor, exact) = floor_div(n, d);
                floor + i128::from(!exact)
            }
            None => (self / rhs).ceil(),
        }
    }

    /// `self / rhs` as the fraction `n/d`, `d > 0`, of its cross products
    /// (`a/b ÷ c/d = (a·d)/(b·c)`), for `rhs > 0` and operands that are
    /// integers or narrow; `None` for wider ones.
    #[inline]
    fn cross(self, rhs: Rational) -> Option<(i128, i128)> {
        if self.den == 1 && rhs.den == 1 {
            return Some((self.num, rhs.num));
        }
        let ((a, b), (c, d)) = (self.narrowed()?, rhs.narrowed()?);
        // Products of narrow components are below 2¹²⁶.
        Some((a as i128 * d as i128, b as i128 * c as i128))
    }

    /// `max(self, other)`.
    #[inline]
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// `min(self, other)`.
    #[inline]
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Clamp into `[lo, hi]`.
    #[inline]
    pub fn clamp(self, lo: Rational, hi: Rational) -> Rational {
        debug_assert!(lo <= hi);
        self.max(lo).min(hi)
    }

    /// Both components as `i64`, when the numerator lies inside
    /// `±i64::MAX` and the denominator inside `i64::MAX` — the operands on
    /// which every operation below runs at machine width. `i64::MIN` is
    /// excluded so that negation stays inside the width.
    #[inline]
    fn narrowed(self) -> Option<(i64, i64)> {
        Some((narrow(self.num)?, narrow(self.den)?))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Rational) -> Option<Rational> {
        if self.den == 1 && rhs.den == 1 {
            return self.num.checked_add(rhs.num).map(Rational::from_integer);
        }
        self.add_fractions(rhs)
    }

    /// `checked_add` of operands that are not both integers.
    fn add_fractions(self, rhs: Rational) -> Option<Rational> {
        match (self.narrowed(), rhs.narrowed()) {
            (Some(lhs), Some(rhs)) => Some(add_narrow(lhs, rhs)),
            _ => self.add_wide(rhs),
        }
    }

    fn add_wide(self, rhs: Rational) -> Option<Rational> {
        // a/b + c/d = (a*(l/b) + c*(l/d)) / l with l = lcm(b, d).
        let g = gcd(self.den as u128, rhs.den as u128) as i128;
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        let num = self
            .num
            .checked_mul(lhs_scale)?
            .checked_add(rhs.num.checked_mul(rhs_scale)?)?;
        let den = self.den.checked_mul(lhs_scale)?;
        Rational::new_wide(num, den)
    }

    /// Checked subtraction; `None` on overflow.
    #[inline]
    pub fn checked_sub(self, rhs: Rational) -> Option<Rational> {
        if self.den == 1 && rhs.den == 1 {
            // Negated first, as `sub_wide` does: `x − i128::MIN` is `None`
            // even where the difference would fit.
            let sum = self.num.checked_add(rhs.num.checked_neg()?)?;
            return Some(Rational::from_integer(sum));
        }
        self.sub_fractions(rhs)
    }

    /// `checked_sub` of operands that are not both integers.
    fn sub_fractions(self, rhs: Rational) -> Option<Rational> {
        match (self.narrowed(), rhs.narrowed()) {
            (Some(lhs), Some((num, den))) => Some(add_narrow(lhs, (-num, den))),
            _ => self.sub_wide(rhs),
        }
    }

    fn sub_wide(self, rhs: Rational) -> Option<Rational> {
        self.add_wide(Rational {
            num: rhs.num.checked_neg()?,
            den: rhs.den,
        })
    }

    /// Checked multiplication; `None` on overflow.
    #[inline]
    pub fn checked_mul(self, rhs: Rational) -> Option<Rational> {
        if self.den == 1 && rhs.den == 1 {
            return match (i64::try_from(self.num), i64::try_from(rhs.num)) {
                // No product of two `i64`s leaves `i128`.
                (Ok(a), Ok(b)) => Some(Rational::from_integer(a as i128 * b as i128)),
                _ => self.num.checked_mul(rhs.num).map(Rational::from_integer),
            };
        }
        self.mul_fractions(rhs)
    }

    /// `checked_mul` of operands that are not both integers.
    fn mul_fractions(self, rhs: Rational) -> Option<Rational> {
        match (self.narrowed(), rhs.narrowed()) {
            (Some(lhs), Some(rhs)) => Some(mul_narrow(lhs, rhs)),
            _ => self.mul_wide(rhs),
        }
    }

    fn mul_wide(self, rhs: Rational) -> Option<Rational> {
        // Cross-reduce before multiplying to keep magnitudes small.
        let g1 = gcd(self.num.unsigned_abs(), rhs.den as u128) as i128;
        let g2 = gcd(rhs.num.unsigned_abs(), self.den as u128) as i128;
        let num = (self.num / g1).checked_mul(rhs.num / g2)?;
        let den = (self.den / g2).checked_mul(rhs.den / g1)?;
        Rational::new_wide(num, den)
    }

    /// Checked division; `None` on overflow or division by zero.
    #[inline]
    pub fn checked_div(self, rhs: Rational) -> Option<Rational> {
        if rhs.is_zero() {
            return None;
        }
        match (self.narrowed(), rhs.narrowed()) {
            // a/b ÷ c/d = a/b · (±d)/|c|, already in lowest terms.
            (Some(lhs), Some((num, den))) => Some(mul_narrow(lhs, (den * num.signum(), num.abs()))),
            _ => self.div_wide(rhs),
        }
    }

    fn div_wide(self, rhs: Rational) -> Option<Rational> {
        self.mul_wide(Rational::new_wide(rhs.den, rhs.num)?)
    }

    /// Fallible addition: [`Rational::checked_add`] with a descriptive
    /// [`NumericError`] instead of `None`.
    #[inline]
    pub fn try_add(self, rhs: Rational) -> Result<Rational, NumericError> {
        self.checked_add(rhs).ok_or(NumericError {
            op: "add",
            lhs: self,
            rhs,
        })
    }

    /// Fallible subtraction.
    #[inline]
    pub fn try_sub(self, rhs: Rational) -> Result<Rational, NumericError> {
        self.checked_sub(rhs).ok_or(NumericError {
            op: "sub",
            lhs: self,
            rhs,
        })
    }

    /// Fallible multiplication.
    #[inline]
    pub fn try_mul(self, rhs: Rational) -> Result<Rational, NumericError> {
        self.checked_mul(rhs).ok_or(NumericError {
            op: "mul",
            lhs: self,
            rhs,
        })
    }

    /// Fallible division: errors on overflow *and* on division by zero.
    #[inline]
    pub fn try_div(self, rhs: Rational) -> Result<Rational, NumericError> {
        self.checked_div(rhs).ok_or(NumericError {
            op: "div",
            lhs: self,
            rhs,
        })
    }

    /// Reciprocal.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero (or `i128::MIN`, whose reciprocal has no
    /// normal form).
    #[inline]
    pub fn recip(self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        Rational::new(self.den, self.num)
    }

    /// Converts to `f64` (for reporting/plotting only; may round).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Builds the exact rational for a decimal literal given as mantissa
    /// digits and a decimal exponent, e.g. `from_decimal(4, 1)` is `0.4`.
    pub fn from_decimal(digits: i128, frac_digits: u32) -> Rational {
        let den = 10i128
            .checked_pow(frac_digits)
            .expect("decimal exponent overflow");
        Rational::new(digits, den)
    }

    /// Exact conversion from an `f64` that is known to be a short decimal
    /// (e.g. user input such as `0.4`). Goes through the shortest decimal
    /// representation, so `approx_from_f64(0.4) == Rational::new(2, 5)`.
    ///
    /// Returns `None` for non-finite values or values needing more than 12
    /// fractional digits to round-trip.
    pub fn approx_from_f64(x: f64) -> Option<Rational> {
        if !x.is_finite() {
            return None;
        }
        for frac in 0..=12u32 {
            let scale = 10f64.powi(frac as i32);
            let scaled = x * scale;
            if scaled.abs() > 1e17 {
                return None;
            }
            let rounded = scaled.round();
            if (scaled - rounded).abs() < 1e-9 * scale.max(1.0) {
                let r = Rational::new(rounded as i128, 10i128.pow(frac));
                if (r.to_f64() - x).abs() <= f64::EPSILON * x.abs().max(1.0) * 4.0 {
                    return Some(r);
                }
            }
        }
        None
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident, $checked:ident) => {
        impl $trait for Rational {
            type Output = Rational;
            #[inline]
            fn $method(self, rhs: Rational) -> Rational {
                match self.$checked(rhs) {
                    Some(value) => value,
                    None => overflow(stringify!($method), self, rhs),
                }
            }
        }
    };
}

forward_binop!(Add, add, checked_add);
forward_binop!(Sub, sub, checked_sub);
forward_binop!(Mul, mul, checked_mul);
forward_binop!(Div, div, checked_div);

/// The operators' panic, kept out of line so that their integer paths
/// inline: the message of the `try_*` error.
#[cold]
#[inline(never)]
fn overflow(op: &'static str, lhs: Rational, rhs: Rational) -> ! {
    panic!("{}", NumericError { op, lhs, rhs })
}

impl Rem for Rational {
    type Output = Rational;
    /// Truncated remainder (sign follows the dividend), matching `%` on ints.
    fn rem(self, rhs: Rational) -> Rational {
        assert!(!rhs.is_zero(), "rational remainder by zero");
        let q = (self / rhs).trunc();
        self - rhs * Rational::from_integer(q)
    }
}

impl Neg for Rational {
    type Output = Rational;
    /// `0 − self`, with the subtraction operator's overflow panic for
    /// `i128::MIN`.
    #[inline]
    fn neg(self) -> Rational {
        match self.num.checked_neg() {
            Some(num) => Rational { num, den: self.den },
            None => Rational::ZERO - self,
        }
    }
}

impl AddAssign for Rational {
    #[inline]
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    #[inline]
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rational {
    #[inline]
    fn mul_assign(&mut self, rhs: Rational) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rational {
    #[inline]
    fn div_assign(&mut self, rhs: Rational) {
        *self = *self / rhs;
    }
}

impl Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Rational> for Rational {
    fn sum<I: Iterator<Item = &'a Rational>>(iter: I) -> Rational {
        iter.copied().sum()
    }
}

impl PartialOrd for Rational {
    #[inline]
    fn partial_cmp(&self, other: &Rational) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    /// Total: never panics, whatever the operands.
    #[inline]
    fn cmp(&self, other: &Rational) -> Ordering {
        // One denominator, integers among them: compare the numerators.
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        match (self.narrowed(), other.narrowed()) {
            // a/b vs c/d via a*d vs c*b: both products are below 2¹²⁶.
            (Some((a, b)), Some((c, d))) => (a as i128 * d as i128).cmp(&(c as i128 * b as i128)),
            _ => self.cmp_wide(other),
        }
    }
}

impl Rational {
    /// Full-width comparison: `a/b` vs `c/d` as `a·d` vs `c·b`, the
    /// products formed exactly in 256 bits. Denominators are positive, so
    /// the signs of the products are those of the numerators.
    fn cmp_wide(&self, other: &Rational) -> Ordering {
        let (lhs, rhs) = (self.num.signum(), other.num.signum());
        if lhs != rhs || lhs == 0 {
            return lhs.cmp(&rhs);
        }
        let magnitudes = mul_u256(self.num.unsigned_abs(), other.den as u128)
            .cmp(&mul_u256(other.num.unsigned_abs(), self.den as u128));
        if lhs < 0 {
            magnitudes.reverse()
        } else {
            magnitudes
        }
    }
}

/// `x · y` exactly, as its high and low 128-bit halves.
fn mul_u256(x: u128, y: u128) -> (u128, u128) {
    const LOW: u128 = u64::MAX as u128;
    let (x1, x0, y1, y0) = (x >> 64, x & LOW, y >> 64, y & LOW);
    let (low, cross_a, cross_b, high) = (x0 * y0, x0 * y1, x1 * y0, x1 * y1);
    // At most three 64-bit halves: no carry out of 128 bits.
    let middle = (low >> 64) + (cross_a & LOW) + (cross_b & LOW);
    (
        high + (cross_a >> 64) + (cross_b >> 64) + (middle >> 64),
        (low & LOW) | (middle << 64),
    )
}

/// `⌊n/d⌋` for `d > 0`, and whether `d` divides `n`: one truncating
/// division, at machine width when both fit.
#[inline]
fn floor_div(n: i128, d: i128) -> (i128, bool) {
    let (q, r) = match (i64::try_from(n), i64::try_from(d)) {
        (Ok(n), Ok(d)) => ((n / d) as i128, (n % d) as i128),
        _ => (n / d, n % d),
    };
    (q - i128::from(r < 0), r == 0)
}

/// `n` as an `i64` when it lies inside `±i64::MAX`.
#[inline]
fn narrow(n: i128) -> Option<i64> {
    i64::try_from(n).ok().filter(|&n| n != i64::MIN)
}

/// Binary gcd at machine width; `gcd_u64(0, n) == n`.
#[inline]
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    // Integer operands make a unit denominator the common case.
    if a == 1 || b == 1 {
        return 1;
    }
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `a/b + c/d` on narrow operands in lowest terms. Nothing here can
/// overflow: every product of two components is below 2¹²⁶.
#[inline]
fn add_narrow((a, b): (i64, i64), (c, d): (i64, i64)) -> Rational {
    if b == d {
        // Integer periods and WCETs make equal denominators — of 1 — the
        // common case: no lcm, and |a + c| < 2⁶⁴ reduces at machine width.
        let num = a as i128 + c as i128;
        if b == 1 {
            return Rational { num, den: 1 };
        }
        return reduced(num, b as i128, gcd_u64(num.unsigned_abs() as u64, b as u64));
    }
    let g = gcd_u64(b as u64, d as u64) as i64;
    let num = a as i128 * (d / g) as i128 + c as i128 * (b / g) as i128;
    let den = b as i128 * (d / g) as i128;
    // gcd(num, lcm(b, d)) = gcd(num, g) for operands in lowest terms — in
    // particular coprime denominators need no reduction at all.
    if g == 1 {
        return Rational { num, den };
    }
    let g = g as u64;
    let residue = match u64::try_from(num.unsigned_abs()) {
        Ok(n) => n % g,
        Err(_) => (num.unsigned_abs() % g as u128) as u64,
    };
    reduced(num, den, gcd_u64(residue, g))
}

/// `num/g` over `den/g`, divided at machine width when both still fit.
#[inline]
fn reduced(num: i128, den: i128, g: u64) -> Rational {
    if g == 1 {
        return Rational { num, den };
    }
    match (i64::try_from(num), i64::try_from(den)) {
        (Ok(n), Ok(d)) => Rational {
            num: (n / g as i64) as i128,
            den: (d / g as i64) as i128,
        },
        _ => Rational {
            num: num / g as i128,
            den: den / g as i128,
        },
    }
}

/// `a/b · c/d` on narrow operands in lowest terms: cross-reduced factors
/// in lowest terms give a product in lowest terms, so no final gcd.
#[inline]
fn mul_narrow((a, b): (i64, i64), (c, d): (i64, i64)) -> Rational {
    let g1 = gcd_u64(a.unsigned_abs(), d as u64) as i64;
    let g2 = gcd_u64(c.unsigned_abs(), b as u64) as i64;
    Rational {
        num: (a / g1) as i128 * (c / g2) as i128,
        den: (b / g2) as i128 * (d / g1) as i128,
    }
}

impl Default for Rational {
    /// Zero.
    #[inline]
    fn default() -> Rational {
        Rational::ZERO
    }
}

impl From<i128> for Rational {
    #[inline]
    fn from(n: i128) -> Rational {
        Rational::from_integer(n)
    }
}

impl From<i64> for Rational {
    #[inline]
    fn from(n: i64) -> Rational {
        Rational::from_integer(n as i128)
    }
}

impl From<i32> for Rational {
    #[inline]
    fn from(n: i32) -> Rational {
        Rational::from_integer(n as i128)
    }
}

impl From<u32> for Rational {
    #[inline]
    fn from(n: u32) -> Rational {
        Rational::from_integer(n as i128)
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Rational {
    /// Displays as a decimal when the denominator is a product of 2s and 5s
    /// (`5/2` → `2.5`), otherwise as a fraction (`1/3` → `1/3`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            return write!(f, "{}", self.num);
        }
        // Check if den divides a power of ten.
        let mut d = self.den;
        let mut twos = 0u32;
        let mut fives = 0u32;
        while d % 2 == 0 {
            d /= 2;
            twos += 1;
        }
        while d % 5 == 0 {
            d /= 5;
            fives += 1;
        }
        if d == 1 && twos <= 27 && fives <= 27 {
            let digits = twos.max(fives);
            let scale = 10i128.pow(digits);
            let Some(scaled) = self.num.checked_mul(scale / self.den) else {
                return write!(f, "{}/{}", self.num, self.den);
            };
            let int_part = scaled / scale;
            let frac_part = (scaled % scale).unsigned_abs();
            let sign = if self.num < 0 && int_part == 0 {
                "-"
            } else {
                ""
            };
            let frac_str = format!("{frac_part:0width$}", width = digits as usize);
            let frac_str = frac_str.trim_end_matches('0');
            write!(f, "{sign}{int_part}.{frac_str}")
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl FromStr for Rational {
    type Err = ParseRationalError;

    /// Parses `"3"`, `"-3"`, `"2.5"`, `"-0.125"`, and `"7/2"` forms.
    fn from_str(s: &str) -> Result<Rational, ParseRationalError> {
        let s = s.trim();
        let err = |m: &str| ParseRationalError { msg: m.to_string() };
        if s.is_empty() {
            return Err(err("empty string"));
        }
        if let Some((n, d)) = s.split_once('/') {
            let num: i128 = n.trim().parse().map_err(|_| err("bad numerator"))?;
            let den: i128 = d.trim().parse().map_err(|_| err("bad denominator"))?;
            if den == 0 {
                return Err(err("zero denominator"));
            }
            return Rational::normalized(num, den).ok_or_else(|| err("out of range"));
        }
        if let Some((int_s, frac_s)) = s.split_once('.') {
            if frac_s.is_empty() || !frac_s.bytes().all(|b| b.is_ascii_digit()) {
                return Err(err("bad fractional part"));
            }
            if frac_s.len() > 27 {
                return Err(err("too many fractional digits"));
            }
            let negative = int_s.trim_start().starts_with('-');
            let int_part: i128 = if int_s.is_empty() || int_s == "-" || int_s == "+" {
                0
            } else {
                int_s.parse().map_err(|_| err("bad integer part"))?
            };
            let frac_digits = frac_s.len() as u32;
            let frac_num: i128 = frac_s.parse().map_err(|_| err("bad fractional part"))?;
            let scale = 10i128.pow(frac_digits);
            // The mantissa `|int|·10^digits + frac` of an external string can
            // leave i128 long before its value does.
            let mag = i128::try_from(int_part.unsigned_abs())
                .ok()
                .and_then(|int| int.checked_mul(scale)?.checked_add(frac_num))
                .ok_or_else(|| err("out of range"))?;
            let signed = if negative { -mag } else { mag };
            return Ok(Rational::new(signed, scale));
        }
        let n: i128 = s.parse().map_err(|_| err("bad integer"))?;
        Ok(Rational::from_integer(n))
    }
}

/// Convenience constructor used pervasively in tests and examples:
/// `rat(5, 2)` is `5/2`.
#[inline]
pub fn rat(num: i128, den: i128) -> Rational {
    Rational::new(num, den)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, 4), r(1, -2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(0, 5).denom(), 1);
        assert_eq!(r(6, -3), Rational::from_integer(-2));
        assert_eq!(r(-6, 3).numer(), -2);
        assert_eq!(r(-6, 3).denom(), 1);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), Rational::from_integer(2));
        assert_eq!(-r(1, 2), r(-1, 2));
        assert_eq!(r(7, 3) % r(1, 2), r(1, 3));
    }

    #[test]
    fn assign_ops() {
        let mut x = r(1, 2);
        x += r(1, 2);
        assert_eq!(x, Rational::ONE);
        x -= r(1, 4);
        assert_eq!(x, r(3, 4));
        x *= r(4, 3);
        assert_eq!(x, Rational::ONE);
        x /= r(1, 3);
        assert_eq!(x, Rational::from_integer(3));
    }

    #[test]
    fn floor_ceil_trunc() {
        assert_eq!(r(5, 2).floor(), 2);
        assert_eq!(r(5, 2).ceil(), 3);
        assert_eq!(r(-5, 2).floor(), -3);
        assert_eq!(r(-5, 2).ceil(), -2);
        assert_eq!(r(-5, 2).trunc(), -2);
        assert_eq!(r(4, 2).floor(), 2);
        assert_eq!(r(4, 2).ceil(), 2);
        assert_eq!(Rational::ZERO.floor(), 0);
        assert_eq!(Rational::ZERO.ceil(), 0);
    }

    #[test]
    fn fract_in_unit_interval() {
        assert_eq!(r(5, 2).fract(), r(1, 2));
        assert_eq!(r(-5, 2).fract(), r(1, 2));
        assert_eq!(Rational::from_integer(3).fract(), Rational::ZERO);
    }

    #[test]
    fn rem_euclid_matches_paper_convention() {
        // Eq. (10) with φik + Jik − φij = −5 and Ti = 50: (−5) mod 50 = 45.
        let m = Rational::from_integer(50);
        assert_eq!(
            Rational::from_integer(-5).rem_euclid(m),
            Rational::from_integer(45)
        );
        assert_eq!(Rational::from_integer(0).rem_euclid(m), Rational::ZERO);
        assert_eq!(Rational::from_integer(50).rem_euclid(m), Rational::ZERO);
        assert_eq!(
            Rational::from_integer(73).rem_euclid(m),
            Rational::from_integer(23)
        );
        assert_eq!(r(-1, 2).rem_euclid(m), r(99, 2));
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(2, 4) == r(1, 2));
        assert!(Rational::from_integer(2) > r(3, 2));
        assert_eq!(r(7, 3).max(r(5, 2)), r(5, 2));
        assert_eq!(r(7, 3).min(r(5, 2)), r(7, 3));
    }

    #[test]
    fn display_decimal_and_fraction() {
        assert_eq!(r(5, 2).to_string(), "2.5");
        assert_eq!(r(2, 5).to_string(), "0.4");
        assert_eq!(r(-2, 5).to_string(), "-0.4");
        assert_eq!(r(1, 3).to_string(), "1/3");
        assert_eq!(Rational::from_integer(42).to_string(), "42");
        assert_eq!(r(-1, 8).to_string(), "-0.125");
        assert_eq!(r(1001, 1000).to_string(), "1.001");
    }

    #[test]
    fn parsing() {
        assert_eq!("3".parse::<Rational>().unwrap(), Rational::from_integer(3));
        assert_eq!(
            "-3".parse::<Rational>().unwrap(),
            Rational::from_integer(-3)
        );
        assert_eq!("2.5".parse::<Rational>().unwrap(), r(5, 2));
        assert_eq!("0.4".parse::<Rational>().unwrap(), r(2, 5));
        assert_eq!("-0.125".parse::<Rational>().unwrap(), r(-1, 8));
        assert_eq!("7/2".parse::<Rational>().unwrap(), r(7, 2));
        assert_eq!(" 7 / 2 ".parse::<Rational>().unwrap(), r(7, 2));
        assert_eq!("-7/2".parse::<Rational>().unwrap(), r(-7, 2));
        assert_eq!("7/-2".parse::<Rational>().unwrap(), r(-7, 2));
        assert_eq!(".5".parse::<Rational>().unwrap(), r(1, 2));
        assert!("".parse::<Rational>().is_err());
        assert!("1/0".parse::<Rational>().is_err());
        assert!("a.b".parse::<Rational>().is_err());
        assert!("1.".parse::<Rational>().is_err());
    }

    #[test]
    fn display_parse_roundtrip() {
        for &x in &[r(5, 2), r(-2, 5), r(1, 3), r(0, 1), r(123, 7), r(-1, 8)] {
            let s = x.to_string();
            assert_eq!(s.parse::<Rational>().unwrap(), x, "roundtrip {s}");
        }
    }

    #[test]
    fn approx_from_f64() {
        assert_eq!(Rational::approx_from_f64(0.4), Some(r(2, 5)));
        assert_eq!(Rational::approx_from_f64(2.5), Some(r(5, 2)));
        assert_eq!(Rational::approx_from_f64(-0.2), Some(r(-1, 5)));
        assert_eq!(
            Rational::approx_from_f64(7.0),
            Some(Rational::from_integer(7))
        );
        assert_eq!(Rational::approx_from_f64(f64::NAN), None);
        assert_eq!(Rational::approx_from_f64(f64::INFINITY), None);
    }

    #[test]
    fn recip() {
        assert_eq!(r(2, 5).recip(), r(5, 2));
        assert_eq!(r(-2, 5).recip(), r(-5, 2));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Rational::ZERO.recip();
    }

    #[test]
    fn sum_iterator() {
        let xs = [r(1, 2), r(1, 3), r(1, 6)];
        let total: Rational = xs.iter().sum();
        assert_eq!(total, Rational::ONE);
        let total2: Rational = xs.into_iter().sum();
        assert_eq!(total2, Rational::ONE);
    }

    #[test]
    fn checked_ops_catch_overflow() {
        let big = Rational::from_integer(i128::MAX / 2);
        assert!(big.checked_mul(Rational::from_integer(4)).is_none());
        assert!(big.checked_add(big).is_some()); // i128::MAX/2 * 2 < MAX
        let huge = Rational::from_integer(i128::MAX);
        assert!(huge.checked_add(Rational::ONE).is_none());
        assert_eq!(Rational::ONE.checked_div(Rational::ZERO), None);
    }

    #[test]
    fn try_ops_report_operands() {
        let big = Rational::from_integer(i128::MAX / 2);
        let e = big.try_mul(Rational::from_integer(4)).unwrap_err();
        assert_eq!(e.op, "mul");
        assert_eq!(e.lhs, big);
        assert!(e.to_string().contains("overflow"));
        let e = Rational::ONE.try_div(Rational::ZERO).unwrap_err();
        assert!(e.to_string().contains("division by zero"));
        assert_eq!(r(1, 2).try_add(r(1, 3)).unwrap(), r(5, 6));
        assert_eq!(r(1, 2).try_sub(r(1, 3)).unwrap(), r(1, 6));
        assert_eq!(r(1, 2).try_mul(r(2, 3)).unwrap(), r(1, 3));
        assert_eq!(r(1, 2).try_div(r(1, 4)).unwrap(), Rational::from_integer(2));
    }

    #[test]
    #[should_panic(expected = "rational division by zero")]
    fn div_by_zero_panics_via_fallible_path() {
        let _ = Rational::ONE / Rational::ZERO;
    }

    #[test]
    fn abs_and_signs() {
        assert_eq!(r(-5, 2).abs(), r(5, 2));
        assert!(r(-5, 2).is_negative());
        assert!(r(5, 2).is_positive());
        assert!(!Rational::ZERO.is_positive());
        assert!(!Rational::ZERO.is_negative());
        assert!(Rational::ZERO.is_zero());
        assert!(Rational::from_integer(4).is_integer());
        assert!(!r(1, 2).is_integer());
    }

    #[test]
    fn clamp() {
        assert_eq!(r(5, 2).clamp(Rational::ZERO, Rational::ONE), Rational::ONE);
        assert_eq!(
            r(-1, 2).clamp(Rational::ZERO, Rational::ONE),
            Rational::ZERO
        );
        assert_eq!(r(1, 2).clamp(Rational::ZERO, Rational::ONE), r(1, 2));
    }

    #[test]
    fn from_decimal() {
        assert_eq!(Rational::from_decimal(4, 1), r(2, 5));
        assert_eq!(Rational::from_decimal(125, 3), r(1, 8));
        assert_eq!(Rational::from_decimal(-25, 1), r(-5, 2));
    }
}

#[cfg(test)]
mod parity;
