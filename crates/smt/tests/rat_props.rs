//! Property tests for the `Rat` fast paths: the `den == 1` integer
//! shortcuts and the ZERO/ONE short-circuits in `add`/`mul` must agree with
//! the general cross-multiply-and-normalise path on every input.

use pathinv_smt::{Rat, SmtResult};
use proptest::prelude::*;

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
