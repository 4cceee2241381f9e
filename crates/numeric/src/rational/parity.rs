//! Width-boundary parity: every public operation must equal the
//! full-width reference (`*_wide`, the only code wide operands ever take)
//! bit for bit, including `None`, on operands biased to the `i64` seam
//! where the two arithmetic widths meet, and on integer pairs, which take
//! the integer path. The comparison, whose full-width code is itself under
//! test, is checked against an independent oracle.

use super::*;
use proptest::prelude::*;

/// Components on and around the seam, the extremes of the storage type,
/// and the large coprime periods of `cross_island_overflow_parity`.
const SEAM: [i128; 24] = [
    0,
    1,
    -1,
    2,
    -2,
    3,
    10,
    i64::MAX as i128,
    i64::MAX as i128 - 1,
    i64::MAX as i128 + 1,
    -(i64::MAX as i128),
    i64::MIN as i128,
    i64::MIN as i128 - 1,
    i64::MIN as i128 + 1,
    i128::MAX,
    i128::MIN,
    i128::MIN + 1,
    1_000_000_000_039,
    1_000_000_000_061,
    1_000_000_000_063,
    1_000_000_000_091,
    999_999_999_989,
    1_000_000_000_039 * 1_000_000_000_061,
    (i64::MAX as i128) * (i64::MAX as i128),
];

/// Half the draws come from [`SEAM`]; the rest are random at a random
/// width, so small, `i64`-sized and genuinely wide values all occur.
fn component() -> impl Strategy<Value = i128> {
    (0usize..2 * SEAM.len(), any::<i128>(), 0u32..127)
        .prop_map(|(pick, raw, shift)| SEAM.get(pick).copied().unwrap_or(raw >> shift))
}

/// A normalized operand built by the reference constructor only.
fn operand() -> impl Strategy<Value = Rational> {
    (component(), component()).prop_filter_map("no i128 normal form", |(num, den)| {
        Rational::new_wide(num, if den == 0 { 1 } else { den })
    })
}

/// Pairs, a quarter of them over one denominator (the `common_lower`
/// case) and a quarter of them integers (the integer path).
fn operands() -> impl Strategy<Value = (Rational, Rational)> {
    (operand(), operand(), component(), 0u8..4).prop_filter_map(
        "no i128 normal form",
        |(a, b, num, deck)| match deck {
            0 => Some((a, Rational::new_wide(num, a.den)?)),
            1 => Some((Rational::from_integer(a.num), Rational::from_integer(num))),
            _ => Some((a, b)),
        },
    )
}

/// `x` vs `y` by Euclid's algorithm, sharing no code with `cmp`: compare
/// the integer parts, then the fractional parts through their reciprocals,
/// whose order is reversed. Every quantity stays inside its operand's
/// components, so nothing can overflow.
fn cmp_by_euclid(x: Rational, y: Rational) -> Ordering {
    let (qx, qy) = (x.num.div_euclid(x.den), y.num.div_euclid(y.den));
    if qx != qy {
        return qx.cmp(&qy);
    }
    // n/d in [0, 1) on each side.
    let (mut nx, mut dx) = (x.num.rem_euclid(x.den) as u128, x.den as u128);
    let (mut ny, mut dy) = (y.num.rem_euclid(y.den) as u128, y.den as u128);
    let mut reversed = false;
    loop {
        let order = match (nx == 0, ny == 0) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            // n/d vs n'/d' is d'/n' vs d/n: integer parts, then again.
            (false, false) if dx / nx != dy / ny => (dy / ny).cmp(&(dx / nx)),
            (false, false) => {
                (nx, dx, ny, dy) = (dx % nx, nx, dy % ny, ny);
                reversed = !reversed;
                continue;
            }
        };
        return if reversed { order.reverse() } else { order };
    }
}

fn assert_normal(r: Rational) {
    assert!(r.den > 0, "{r:?}: denominator not positive");
    assert_eq!(
        gcd(r.num.unsigned_abs(), r.den as u128),
        1,
        "{r:?}: not in lowest terms"
    );
}

fn same(public: Option<Rational>, reference: Option<Rational>, what: &str) {
    assert_eq!(public, reference, "{what}");
    if let Some(r) = public {
        assert_normal(r);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn binary_ops_match_the_wide_reference((a, b) in operands()) {
        assert_normal(a);
        assert_normal(b);
        same(a.checked_add(b), a.add_wide(b), "add");
        same(a.checked_sub(b), a.sub_wide(b), "sub");
        same(a.checked_mul(b), a.mul_wide(b), "mul");
        if b.is_zero() {
            prop_assert_eq!(a.checked_div(b), None);
        } else {
            same(a.checked_div(b), a.div_wide(b), "div");
        }
        let order = cmp_by_euclid(a, b);
        prop_assert_eq!(a.cmp(&b), order, "{:?} vs {:?}", a, b);
        prop_assert_eq!(a.cmp_wide(&b), order);
        if b.is_positive() {
            match a.div_wide(b) {
                Some(quotient) => {
                    prop_assert_eq!(a.div_floor(b), quotient.floor());
                    prop_assert_eq!(a.div_ceil(b), quotient.ceil());
                }
                // Both then panic in the same full-width quotient; integer
                // and narrow operands never get there.
                None => prop_assert!(
                    !(a.is_integer() && b.is_integer())
                        && (a.narrowed().is_none() || b.narrowed().is_none())
                ),
            }
        }
    }

    #[test]
    fn unary_ops_match_the_wide_reference(a in operand()) {
        prop_assert_eq!(a.floor(), a.floor_wide());
        prop_assert_eq!(a.ceil(), a.ceil_wide());
        prop_assert!(a.ceil() - a.floor() == i128::from(!a.is_integer()));
    }

    #[test]
    fn new_matches_the_wide_reference(num in component(), den in component()) {
        prop_assume!(den != 0);
        same(Rational::normalized(num, den), Rational::new_wide(num, den), "new");
    }
}

/// The cast `gcd(|a|, |c|) as i128` once wrapped 2¹²⁷ to `i128::MIN`,
/// so `i128::MIN` compared above zero and equal to nothing below it.
#[test]
fn min_compares_below_zero_and_equal_to_itself() {
    let min = Rational::from_integer(i128::MIN);
    for (lhs, rhs, want) in [
        (min, Rational::ZERO, Ordering::Less),
        (Rational::ZERO, min, Ordering::Greater),
        (min, min, Ordering::Equal),
    ] {
        assert_eq!(lhs.cmp(&rhs), want, "{lhs:?} vs {rhs:?}");
        assert_eq!(lhs.cmp_wide(&rhs), want, "{lhs:?} vs {rhs:?}, full width");
        assert_eq!(cmp_by_euclid(lhs, rhs), want, "{lhs:?} vs {rhs:?}, oracle");
    }
    assert_eq!(min.max(Rational::ZERO), Rational::ZERO);
    assert_eq!(min.min(Rational::ZERO), min);
    // Cross products past 2¹²⁷ in magnitude, beyond any cross reduction.
    let (wide, wider) = (Rational::new(i128::MAX, 3), Rational::new(i128::MAX - 1, 5));
    assert_eq!(wide.cmp(&wider), Ordering::Greater);
    assert_eq!((-wide).cmp(&-wider), Ordering::Less);
}

#[test]
fn narrow_results_leave_the_narrow_range() {
    // The seam from the inside: both operands narrow, the result not.
    let max = Rational::from_integer(i64::MAX as i128);
    assert!(max.narrowed().is_some());
    for r in [
        max + max,
        max * max,
        max / Rational::new(1, i64::MAX as i128),
    ] {
        assert!(r.narrowed().is_none(), "{r:?} still narrow");
        assert_normal(r);
    }
    assert_eq!((max + max).numer(), 2 * i64::MAX as i128);
    assert_eq!(
        Rational::new(1, i64::MAX as i128) * Rational::new(1, i64::MAX as i128),
        Rational::new(1, i64::MAX as i128 * i64::MAX as i128)
    );
    // `i64::MIN` is on the wide side: its negation is not an `i64`.
    assert!(Rational::from_integer(i64::MIN as i128)
        .narrowed()
        .is_none());
}

#[test]
fn machine_gcd_agrees_with_euclid() {
    let values = [
        0u64,
        1,
        2,
        3,
        6,
        10,
        12,
        48,
        180,
        1 << 40,
        u64::MAX,
        u64::MAX - 1,
    ];
    for a in values {
        for b in values {
            assert_eq!(
                gcd_u64(a, b) as u128,
                gcd(a as u128, b as u128),
                "gcd({a}, {b})"
            );
        }
    }
}

#[test]
fn unnormalisable_values_are_refused_not_wrapped() {
    assert_eq!(Rational::new_wide(i128::MIN, -1), None);
    assert_eq!(Rational::new_wide(1, i128::MIN), None);
    assert_eq!(
        Rational::new_wide(i128::MIN, i128::MIN),
        Some(Rational::ONE)
    );
    assert_eq!(
        Rational::new_wide(i128::MIN, 1),
        Some(Rational::from_integer(i128::MIN))
    );
    assert_eq!(
        Rational::new_wide(2, i128::MIN),
        Some(Rational::new(-1, 1 << 126))
    );
    let min = Rational::from_integer(i128::MIN);
    assert_eq!(Rational::ONE.checked_div(min), None);
    assert_eq!(min.ceil(), i128::MIN);
    assert_eq!(Rational::new(i128::MIN, 3).ceil(), i128::MIN / 3);
}

#[test]
#[should_panic(expected = "no i128 normal form")]
fn new_panics_descriptively_on_min_over_minus_one() {
    let _ = Rational::new(i128::MIN, -1);
}

#[test]
#[should_panic(expected = "rational sub overflow")]
fn neg_of_min_panics_like_the_operators() {
    let _ = -Rational::from_integer(i128::MIN);
}

#[test]
#[should_panic(expected = "rational sub overflow")]
fn abs_of_min_panics_like_the_operators() {
    let _ = Rational::from_integer(i128::MIN).abs();
}

/// Strings that reach `parse` from every external boundary (journal and
/// wire tokens, `.hsc` literals, request scripts): `Err`, never a panic
/// and never a wrapped value.
#[test]
fn hostile_strings_are_errors() {
    let hostile = [
        // Mantissa overflow: |int|·10^digits + frac leaves i128.
        "200000000000.000000000000000000000000001",
        "-200000000000.000000000000000000000000001",
        "170141183460469231731687303715884105727.5",
        "17014118346046923173168730371588410572.99",
        "-170141183460469231731687303715884105728.0",
        "999999999999.999999999999999999999999999",
        // No normal form: the sign cannot move into the numerator, or the
        // denominator's magnitude is 2^127.
        "-170141183460469231731687303715884105728/-1",
        "1/-170141183460469231731687303715884105728",
        "3/-170141183460469231731687303715884105728",
        // Beyond i128 altogether.
        "170141183460469231731687303715884105728",
        "1/170141183460469231731687303715884105728",
        "1e400",
        "0.0000000000000000000000000001",
        "1/0",
        "-/1",
        "",
    ];
    for s in hostile {
        assert!(s.parse::<Rational>().is_err(), "`{s}` parsed");
    }
    // The edge of the range itself parses, normalises and prints.
    for (s, want) in [
        (
            "-170141183460469231731687303715884105728",
            Rational::from_integer(i128::MIN),
        ),
        (
            "-170141183460469231731687303715884105728/-170141183460469231731687303715884105728",
            Rational::ONE,
        ),
        (
            "2/-170141183460469231731687303715884105728",
            Rational::new(-1, 1 << 126),
        ),
        (
            "170141183460469231731687303715884105727/2",
            Rational::new(i128::MAX, 2),
        ),
        (
            "9.999999999999999999999999999",
            Rational::new(10i128.pow(28) - 1, 10i128.pow(27)),
        ),
    ] {
        let parsed = s
            .parse::<Rational>()
            .unwrap_or_else(|e| panic!("`{s}`: {e}"));
        assert_eq!(parsed, want, "`{s}`");
        assert_normal(parsed);
        assert_eq!(parsed.to_string().parse::<Rational>(), Ok(parsed), "`{s}`");
    }
}
