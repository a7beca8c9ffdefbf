//! Property tests for the `Rat` fast paths: the `den == 1` integer
//! shortcuts, the ZERO/ONE short-circuits in `add`/`mul`, the `i64`
//! widening multiply and the equal-denominator `compare` must agree with
//! the general cross-multiply-and-normalise path on every input.

use pathinv_smt::{Rat, SmtError, SmtResult};
use proptest::prelude::*;
use std::cmp::Ordering;

/// The general (slow) addition: cross-multiply, then normalise.  This is
/// the code path `Rat::add` takes when no fast path applies; reproducing it
/// through the public constructor makes the fast paths checkable against
/// it on *every* input.
fn add_slow(a: Rat, b: Rat) -> SmtResult<Rat> {
    Rat::new(a.numer() * b.denom() + b.numer() * a.denom(), a.denom() * b.denom())
}

/// The general (slow) multiplication.
fn mul_slow(a: Rat, b: Rat) -> SmtResult<Rat> {
    Rat::new(a.numer() * b.numer(), a.denom() * b.denom())
}

/// The general multiplication with every `i128` step checked: the
/// reference the fast paths must match, overflow included.
fn mul_checked(a: Rat, b: Rat) -> SmtResult<Rat> {
    let num = a.numer().checked_mul(b.numer()).ok_or(SmtError::Overflow)?;
    let den = a.denom().checked_mul(b.denom()).ok_or(SmtError::Overflow)?;
    Rat::new(num, den)
}

/// The general comparison: cross-multiply, every step checked.
fn compare_checked(a: Rat, b: Rat) -> SmtResult<Ordering> {
    let l = a.numer().checked_mul(b.denom()).ok_or(SmtError::Overflow)?;
    let r = b.numer().checked_mul(a.denom()).ok_or(SmtError::Overflow)?;
    Ok(l.cmp(&r))
}

/// Integers at the edges of the fast paths: the `i64` range, the `u64`
/// boundary and the `i128` range.
const EDGES: [i128; 15] = [
    0,
    1,
    -1,
    i64::MAX as i128,
    i64::MIN as i128,
    i64::MIN as i128 - 1,
    i64::MAX as i128 + 1,
    u64::MAX as i128,
    u64::MAX as i128 + 1,
    -(u64::MAX as i128),
    1 << 32,
    -(1 << 62),
    i128::MIN + 1,
    i128::MAX,
    i128::MIN,
];

/// An edge integer nudged by −2..2 (kept when the nudge does not fit).
fn edge_int() -> impl Strategy<Value = i128> {
    (0..EDGES.len(), -2i128..=2).prop_map(|(i, d)| EDGES[i].checked_add(d).unwrap_or(EDGES[i]))
}

/// Edge integers, some over a shared denominator: a small prime, or the
/// prime `2⁶¹ − 1`, so that pairs often keep equal denominators after
/// normalisation.
fn edge_rat() -> impl Strategy<Value = Rat> {
    prop_oneof![
        edge_int().prop_map(Rat::int),
        (edge_int(), 0usize..3).prop_map(|(n, i)| {
            Rat::new(n, [3, 7, (1 << 61) - 1][i]).expect("a positive denominator always reduces")
        }),
    ]
}

fn rat_strategy() -> impl Strategy<Value = Rat> {
    // Biased toward integers (including 0 and ±1) so the fast paths are
    // exercised heavily, but with enough proper fractions to cover the
    // general path and mixed cases.  (The vendored proptest stub has no
    // weighted `prop_oneof`; repeating an arm plays the same role.)
    prop_oneof![
        (-50i128..=50).prop_map(Rat::int),
        (-50i128..=50).prop_map(Rat::int),
        Just(Rat::ZERO),
        Just(Rat::ONE),
        Just(Rat::MINUS_ONE),
        (-50i128..=50, 1i128..=12).prop_map(|(n, d)| Rat::new(n, d).unwrap()),
        (-50i128..=50, 1i128..=12).prop_map(|(n, d)| Rat::new(n, d).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `add` agrees with the general path on every operand pair.
    #[test]
    fn fast_add_matches_slow_add(a in rat_strategy(), b in rat_strategy()) {
        prop_assert_eq!(a.add(b).unwrap(), add_slow(a, b).unwrap());
    }

    /// `mul` agrees with the general path on every operand pair.
    #[test]
    fn fast_mul_matches_slow_mul(a in rat_strategy(), b in rat_strategy()) {
        prop_assert_eq!(a.mul(b).unwrap(), mul_slow(a, b).unwrap());
    }

    /// `sub` (built on `add`'s fast paths) agrees with the general path.
    #[test]
    fn fast_sub_matches_slow_sub(a in rat_strategy(), b in rat_strategy()) {
        let slow = Rat::new(
            a.numer() * b.denom() - b.numer() * a.denom(),
            a.denom() * b.denom(),
        ).unwrap();
        prop_assert_eq!(a.sub(b).unwrap(), slow);
    }

    /// The results of the fast paths keep the representation invariant
    /// (lowest terms, positive denominator), observable through repeated
    /// arithmetic agreeing with exact integer arithmetic.
    #[test]
    fn fast_paths_preserve_normalisation(a in rat_strategy(), b in rat_strategy()) {
        let sum = a.add(b).unwrap();
        prop_assert!(sum.denom() > 0);
        prop_assert!(gcd(sum.numer().abs(), sum.denom()) == 1,
            "fraction must stay in lowest terms: {}", sum);
        let product = a.mul(b).unwrap();
        prop_assert!(product.denom() > 0);
        prop_assert!(gcd(product.numer().abs(), product.denom()) == 1,
            "fraction must stay in lowest terms: {}", product);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// At the edges of `i64`, `u64` and `i128`, `mul` (with its `i64`
    /// widening multiply) gives exactly the checked reference: the same
    /// product, or `SmtError::Overflow` where the reference overflows.
    #[test]
    fn edge_mul_matches_the_checked_reference(a in edge_rat(), b in edge_rat()) {
        prop_assert_eq!(a.mul(b), mul_checked(a, b));
    }

    /// At the same edges, `compare` agrees with cross-multiplication
    /// wherever that does not overflow.  Where it does, equal
    /// denominators still compare their numerators, and any other pair is
    /// an overflow error.
    #[test]
    fn edge_compare_matches_the_checked_reference(a in edge_rat(), b in edge_rat()) {
        match compare_checked(a, b) {
            Ok(want) => prop_assert_eq!(a.compare(b), Ok(want)),
            Err(_) if a.denom() == b.denom() => {
                prop_assert_eq!(a.compare(b), Ok(a.numer().cmp(&b.numer())));
            }
            Err(e) => prop_assert_eq!(a.compare(b), Err(e)),
        }
    }
}

/// The fast paths still report overflow instead of wrapping.
#[test]
fn fast_paths_still_report_overflow() {
    let (i64_max, i64_min) = (Rat::int(i64::MAX.into()), Rat::int(i64::MIN.into()));
    assert_eq!(i64_max.mul(i64_max), Ok(Rat::int(i128::from(i64::MAX) * i128::from(i64::MAX))));
    assert_eq!(i64_min.mul(i64_min), Ok(Rat::int(1 << 126)));
    let just_past = Rat::int(i128::from(i64::MIN) - 1);
    assert_eq!(just_past.mul(just_past), Ok(Rat::int((1 << 126) + (1 << 64) + 1)));
    let two_64 = Rat::int(1 << 64);
    assert_eq!(two_64.mul(two_64), Err(SmtError::Overflow));
    assert_eq!(Rat::int(i128::MIN).mul(Rat::MINUS_ONE), Err(SmtError::Overflow));
    assert_eq!(Rat::int(i128::MIN + 1).mul(Rat::MINUS_ONE), Ok(Rat::int(i128::MAX)));
    let (half, third) = (Rat::new(i128::MAX, 2).unwrap(), Rat::new(i128::MAX, 3).unwrap());
    assert_eq!(half.compare(third), Err(SmtError::Overflow));
    assert_eq!(
        Rat::new(i128::MAX, 7).unwrap().compare(Rat::new(i128::MIN + 1, 7).unwrap()),
        Ok(Ordering::Greater)
    );
}

/// `i128::MIN` has no `i128` magnitude: reduction works on `u128`
/// magnitudes, so a fraction that reduces into range is returned and one
/// that does not is an overflow error, never a panic or a wrapped value.
#[test]
fn new_reduces_i128_min_without_overflowing() {
    let half = Rat::new(i128::MIN, 2).unwrap();
    assert_eq!((half.numer(), half.denom()), (i128::MIN / 2, 1));
    assert!(Rat::new(i128::MIN, -1).is_err(), "2^127 does not fit in i128");
    assert_eq!(Rat::new(i128::MIN, i128::MIN).unwrap(), Rat::ONE);
    let tiny = Rat::new(2, i128::MIN).unwrap();
    assert_eq!((tiny.numer(), tiny.denom()), (-1, 1 << 126));
    assert!(Rat::new(1, i128::MIN).is_err(), "a denominator of 2^127 does not fit");
    assert_eq!(pathinv_smt::checked_lcm(i128::MIN, 2), None);
    assert_eq!(pathinv_smt::checked_lcm(i128::MIN / 2, 2), Some(1 << 126));
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.max(1), b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}
