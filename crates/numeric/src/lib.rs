//! Exact rational arithmetic for schedulability analysis.
//!
//! The fixpoint iterations at the heart of holistic response-time analysis
//! (Eqs. (13) and (16) of the paper, and the outer jitter-propagation loop of
//! §3.2) terminate on *exact equality* of successive iterates. Floating point
//! makes that test fragile: platform rates such as α = 0.4 are not
//! representable in binary, and the accumulated error can make a converged
//! iteration look unconverged (or worse, oscillate). All quantities in this
//! workspace — times, cycles, rates — are therefore exact rationals.
//!
//! [`Rational`] is a normalized fraction: `i128` storage, 64-bit arithmetic
//! when operands fit. Operations check for overflow and panic with a
//! descriptive message; the magnitudes occurring in schedulability analysis
//! (periods, WCETs, a handful of digits) leave ~30 decimal orders of
//! headroom, so an overflow indicates a logic error rather than a tight
//! limit. Checked variants are available where graceful handling matters.
//!
//! Those same magnitudes are why there are two arithmetic widths under the
//! one type. When every component of both operands lies inside `±i64::MAX`
//! — all of them, on every measured workload — an operation takes its gcds
//! and divisions at machine width and forms its products in `i128`, where
//! they cannot overflow, so it needs no overflow checks either. Anything
//! wider takes the checked full-width code. The width is chosen per
//! operation from the operands; the stored form, and with it `==`, `Hash`
//! and every rendering, is the same whichever path produced a value.
//!
//! Integers come first. When both denominators are 1 — every operand of a
//! fixpoint the analysis runs on its integer grid — `+`, `-`, `*` and the
//! comparison are one checked `i128` operation each, with no gcd and no
//! narrowing test, and [`Rational::div_floor`] / [`Rational::div_ceil`]
//! give the job counts `⌊a/b⌋` and `⌈a/b⌉` as one integer division, without
//! normalizing a quotient. The comparison is total: operands too wide for
//! an `i128` cross product compare through an exact 256-bit one.
//!
//! # Example
//!
//! ```
//! use hsched_numeric::Rational;
//!
//! let alpha = Rational::new(2, 5);          // a platform rate of 0.4
//! let wcet = Rational::from_integer(1);
//! assert_eq!(wcet / alpha, Rational::new(5, 2)); // 2.5 time units
//! assert_eq!((wcet / alpha).ceil(), 3);
//! assert_eq!("0.4".parse::<Rational>().unwrap(), alpha);
//! ```

mod rational;

pub use rational::{rat, NumericError, ParseRationalError, Rational};

/// A point in time or a duration, in the model's time unit (the paper uses
/// milliseconds). Exact.
pub type Time = Rational;

/// An amount of computation (processor cycles / execution time on a unit-speed
/// processor). Exact.
pub type Cycles = Rational;

/// Greatest common divisor of two non-negative integers (Euclid).
///
/// `gcd(0, 0) == 0` by convention.
#[inline]
pub fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple. Panics on overflow.
#[inline]
pub fn lcm(a: u128, b: u128) -> u128 {
    if a == 0 || b == 0 {
        return 0;
    }
    let g = gcd(a, b);
    (a / g).checked_mul(b).expect("lcm overflow")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 5), 1);
        assert_eq!(gcd(100, 10), 10);
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(0, 5), 0);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(15, 50), 150);
        assert_eq!(lcm(7, 11), 77);
    }
}
