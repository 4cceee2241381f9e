//! Width-boundary parity: every public operation must equal the
//! full-width reference (`*_wide`, the only code wide operands ever take)
//! bit for bit, including `None`, on operands biased to the `i64` seam
//! where the two arithmetic widths meet.

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

/// Pairs, a third of them over one denominator (the `common_lower` case).
fn operands() -> impl Strategy<Value = (Rational, Rational)> {
    (operand(), operand(), component(), 0u8..3).prop_filter_map(
        "no i128 normal form",
        |(a, b, num, same)| {
            if same == 0 {
                Some((a, Rational::new_wide(num, a.den)?))
            } else {
                Some((a, b))
            }
        },
    )
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
        match a.cmp_wide(&b) {
            Some(order) => prop_assert_eq!(a.cmp(&b), order),
            // The public comparison panics exactly where the reference
            // overflows; that can only be the wide path.
            None => prop_assert!(a.narrowed().is_none() || b.narrowed().is_none()),
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
