//! Exact rational arithmetic on 128-bit integers.
//!
//! The constraint systems manipulated by this library (path formulas of short
//! counterexamples, Farkas systems over a handful of template parameters) are
//! tiny, so 128-bit numerators and denominators leave an enormous safety
//! margin.  All operations check for overflow and return
//! [`SmtError::Overflow`] instead of silently wrapping; the solvers propagate
//! that error to the caller.

use crate::error::{SmtError, SmtResult};
use std::cmp::Ordering;
use std::fmt;

/// An exact rational number with 128-bit numerator and denominator.
///
/// Invariants: the denominator is strictly positive and the fraction is in
/// lowest terms (gcd of numerator and denominator is 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

/// The greatest common divisor of two magnitudes (zero only when both are
/// zero).  Callers pass `i128::unsigned_abs` values, so `i128::MIN`'s
/// magnitude `2¹²⁷` is representable.
pub fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// The non-negative least common multiple of `a` and `b` (zero when either
/// is zero), or `None` when it does not fit in `i128`.
pub fn checked_lcm(a: i128, b: i128) -> Option<i128> {
    let (a, b) = (a.unsigned_abs(), b.unsigned_abs());
    let g = gcd(a, b);
    if g == 0 {
        return Some(0);
    }
    (a / g).checked_mul(b).and_then(|m| i128::try_from(m).ok())
}

impl Rat {
    /// The rational 0.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// The rational 1.
    pub const ONE: Rat = Rat { num: 1, den: 1 };
    /// The rational -1.
    pub const MINUS_ONE: Rat = Rat { num: -1, den: 1 };

    /// Creates the rational `num / den`.
    ///
    /// # Errors
    ///
    /// Returns [`SmtError::Overflow`] if `den` is zero (treated as a malformed
    /// input) or the reduced fraction does not fit in `i128` (`i128::MIN /
    /// -1`, say, is `2¹²⁷`).
    pub fn new(num: i128, den: i128) -> SmtResult<Rat> {
        if den == 0 {
            return Err(SmtError::Overflow);
        }
        // Reduce the magnitudes, where `i128::MIN` cannot overflow, then
        // put the sign on the numerator.
        let (n, d) = (num.unsigned_abs(), den.unsigned_abs());
        let g = gcd(n, d);
        let num = if (num < 0) != (den < 0) {
            0i128.checked_sub_unsigned(n / g)
        } else {
            i128::try_from(n / g).ok()
        };
        let den = i128::try_from(d / g).ok();
        num.zip(den).map(|(num, den)| Rat { num, den }).ok_or(SmtError::Overflow)
    }

    /// Creates the rational `n / 1`.
    pub const fn int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// The numerator (fraction in lowest terms, denominator positive).
    pub fn numer(self) -> i128 {
        self.num
    }

    /// The denominator (always strictly positive).
    pub fn denom(self) -> i128 {
        self.den
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Returns `true` if the value is strictly positive.
    pub fn is_positive(self) -> bool {
        self.num > 0
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Returns `true` if the value is an integer.
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// The integer value, if the rational is an integer.
    pub fn as_integer(self) -> Option<i128> {
        if self.den == 1 {
            Some(self.num)
        } else {
            None
        }
    }

    /// Checked addition.
    ///
    /// Fast paths: adding zero is the identity, and when both operands are
    /// integers (`den == 1` — the overwhelmingly common case in the tableau
    /// arithmetic) the sum needs neither cross-multiplication nor gcd
    /// normalisation.
    pub fn add(self, other: Rat) -> SmtResult<Rat> {
        if other.num == 0 {
            return Ok(self);
        }
        if self.num == 0 {
            return Ok(other);
        }
        if self.den == 1 && other.den == 1 {
            let num = self.num.checked_add(other.num).ok_or(SmtError::Overflow)?;
            return Ok(Rat { num, den: 1 });
        }
        let l = self.num.checked_mul(other.den).ok_or(SmtError::Overflow)?;
        let r = other.num.checked_mul(self.den).ok_or(SmtError::Overflow)?;
        let num = l.checked_add(r).ok_or(SmtError::Overflow)?;
        let den = self.den.checked_mul(other.den).ok_or(SmtError::Overflow)?;
        Rat::new(num, den)
    }

    /// Checked subtraction.
    pub fn sub(self, other: Rat) -> SmtResult<Rat> {
        self.add(other.neg()?)
    }

    /// Checked multiplication.
    ///
    /// Fast paths: multiplication by zero or ±1 short-circuits, and two
    /// integers multiply without gcd normalisation (a product of integers
    /// is already in lowest terms over denominator 1).  Two integers that
    /// fit in `i64` take one widening multiply, which cannot overflow.
    pub fn mul(self, other: Rat) -> SmtResult<Rat> {
        if self.num == 0 || other.num == 0 {
            return Ok(Rat::ZERO);
        }
        if self == Rat::ONE {
            return Ok(other);
        }
        if other == Rat::ONE {
            return Ok(self);
        }
        if self.den == 1 && other.den == 1 {
            if let (Ok(a), Ok(b)) = (i64::try_from(self.num), i64::try_from(other.num)) {
                return Ok(Rat { num: i128::from(a) * i128::from(b), den: 1 });
            }
            let num = self.num.checked_mul(other.num).ok_or(SmtError::Overflow)?;
            return Ok(Rat { num, den: 1 });
        }
        let num = self.num.checked_mul(other.num).ok_or(SmtError::Overflow)?;
        let den = self.den.checked_mul(other.den).ok_or(SmtError::Overflow)?;
        Rat::new(num, den)
    }

    /// Checked division.
    ///
    /// # Errors
    ///
    /// Returns [`SmtError::Overflow`] when dividing by zero or on overflow.
    pub fn div(self, other: Rat) -> SmtResult<Rat> {
        if other.is_zero() {
            return Err(SmtError::Overflow);
        }
        let num = self.num.checked_mul(other.den).ok_or(SmtError::Overflow)?;
        let den = self.den.checked_mul(other.num).ok_or(SmtError::Overflow)?;
        Rat::new(num, den)
    }

    /// Checked negation.
    pub fn neg(self) -> SmtResult<Rat> {
        Ok(Rat { num: self.num.checked_neg().ok_or(SmtError::Overflow)?, den: self.den })
    }

    /// The reciprocal.
    ///
    /// # Errors
    ///
    /// Returns [`SmtError::Overflow`] if the value is zero.
    pub fn recip(self) -> SmtResult<Rat> {
        Rat::new(self.den, self.num)
    }

    /// Absolute value.
    ///
    /// # Errors
    ///
    /// Returns [`SmtError::Overflow`] for `i128::MIN`, whose magnitude
    /// `2¹²⁷` does not fit.
    pub fn abs(self) -> SmtResult<Rat> {
        Ok(Rat { num: self.num.checked_abs().ok_or(SmtError::Overflow)?, den: self.den })
    }

    /// Compares two rationals exactly.  Equal denominators (two integers,
    /// say) compare their numerators without cross-multiplying.
    pub fn compare(self, other: Rat) -> SmtResult<Ordering> {
        if self.den == other.den {
            return Ok(self.num.cmp(&other.num));
        }
        let l = self.num.checked_mul(other.den).ok_or(SmtError::Overflow)?;
        let r = other.num.checked_mul(self.den).ok_or(SmtError::Overflow)?;
        Ok(l.cmp(&r))
    }

    /// The floor of the rational as an integer.
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// The ceiling of the rational as an integer.  It never negates the
    /// numerator, so `i128::MIN` is its own ceiling.
    pub fn ceil(self) -> i128 {
        // A proper fraction's floor is below `i128::MAX`, so `+ 1` fits.
        self.floor() + i128::from(self.num.rem_euclid(self.den) != 0)
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // Comparison is only used on values that already passed checked
        // arithmetic; overflow here would indicate corrupted state.
        self.compare(*other).expect("rational comparison overflow")
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<i128> for Rat {
    fn from(n: i128) -> Rat {
        Rat::int(n)
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::int(n as i128)
    }
}

impl From<i32> for Rat {
    fn from(n: i32) -> Rat {
        Rat::int(n as i128)
    }
}

/// A rational extended with an infinitesimal `δ`, used to represent strict
/// bounds in the simplex solver: `x < c` becomes `x ≤ c - δ`.
///
/// Values are ordered lexicographically by `(real, delta)`, which matches the
/// semantics of an arbitrarily small positive `δ`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DeltaRat {
    /// The standard (real) part.
    pub real: Rat,
    /// The coefficient of the infinitesimal `δ`.
    pub delta: Rat,
}

impl DeltaRat {
    /// The value 0.
    pub const ZERO: DeltaRat = DeltaRat { real: Rat::ZERO, delta: Rat::ZERO };

    /// A pure (delta-free) value.
    pub fn real(r: Rat) -> DeltaRat {
        DeltaRat { real: r, delta: Rat::ZERO }
    }

    /// The value `r - δ` (used for strict upper bounds).
    pub fn just_below(r: Rat) -> DeltaRat {
        DeltaRat { real: r, delta: Rat::MINUS_ONE }
    }

    /// The value `r + δ` (used for strict lower bounds).
    pub fn just_above(r: Rat) -> DeltaRat {
        DeltaRat { real: r, delta: Rat::ONE }
    }

    /// Checked addition.
    pub fn add(self, other: DeltaRat) -> SmtResult<DeltaRat> {
        Ok(DeltaRat { real: self.real.add(other.real)?, delta: self.delta.add(other.delta)? })
    }

    /// Checked subtraction.
    pub fn sub(self, other: DeltaRat) -> SmtResult<DeltaRat> {
        Ok(DeltaRat { real: self.real.sub(other.real)?, delta: self.delta.sub(other.delta)? })
    }

    /// Checked scaling by a rational.
    pub fn scale(self, k: Rat) -> SmtResult<DeltaRat> {
        Ok(DeltaRat { real: self.real.mul(k)?, delta: self.delta.mul(k)? })
    }

    /// Compares two values exactly, by `(real, delta)`.
    ///
    /// # Errors
    ///
    /// Returns [`SmtError::Overflow`] when a cross-multiplication overflows.
    pub fn compare(self, other: DeltaRat) -> SmtResult<Ordering> {
        match self.real.compare(other.real)? {
            Ordering::Equal => self.delta.compare(other.delta),
            order => Ok(order),
        }
    }
}

impl PartialOrd for DeltaRat {
    fn partial_cmp(&self, other: &DeltaRat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DeltaRat {
    fn cmp(&self, other: &DeltaRat) -> Ordering {
        self.real.cmp(&other.real).then_with(|| self.delta.cmp(&other.delta))
    }
}

impl fmt::Display for DeltaRat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.delta.is_zero() {
            write!(f, "{}", self.real)
        } else {
            write!(f, "{} + {}δ", self.real, self.delta)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation() {
        assert_eq!(Rat::new(2, 4).unwrap(), Rat::new(1, 2).unwrap());
        assert_eq!(Rat::new(-2, -4).unwrap(), Rat::new(1, 2).unwrap());
        assert_eq!(Rat::new(2, -4).unwrap(), Rat::new(-1, 2).unwrap());
        assert_eq!(Rat::new(0, 5).unwrap(), Rat::ZERO);
        assert!(Rat::new(1, 0).is_err());
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 2).unwrap();
        let b = Rat::new(1, 3).unwrap();
        assert_eq!(a.add(b).unwrap(), Rat::new(5, 6).unwrap());
        assert_eq!(a.sub(b).unwrap(), Rat::new(1, 6).unwrap());
        assert_eq!(a.mul(b).unwrap(), Rat::new(1, 6).unwrap());
        assert_eq!(a.div(b).unwrap(), Rat::new(3, 2).unwrap());
        assert_eq!(a.neg().unwrap(), Rat::new(-1, 2).unwrap());
        assert_eq!(a.recip().unwrap(), Rat::int(2));
        assert!(Rat::ZERO.recip().is_err());
        assert!(a.div(Rat::ZERO).is_err());
    }

    #[test]
    fn ordering_and_predicates() {
        assert!(Rat::new(1, 3).unwrap() < Rat::new(1, 2).unwrap());
        assert!(Rat::int(-1).is_negative());
        assert!(Rat::new(3, 2).unwrap().is_positive());
        assert!(Rat::ZERO.is_zero());
        assert!(Rat::int(7).is_integer());
        assert!(!Rat::new(7, 2).unwrap().is_integer());
        assert_eq!(Rat::new(7, 2).unwrap().as_integer(), None);
        assert_eq!(Rat::int(7).as_integer(), Some(7));
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(Rat::new(7, 2).unwrap().floor(), 3);
        assert_eq!(Rat::new(7, 2).unwrap().ceil(), 4);
        assert_eq!(Rat::new(-7, 2).unwrap().floor(), -4);
        assert_eq!(Rat::new(-7, 2).unwrap().ceil(), -3);
        assert_eq!(Rat::int(5).floor(), 5);
        assert_eq!(Rat::int(5).ceil(), 5);
    }

    #[test]
    fn overflow_is_reported() {
        let big = Rat::int(i128::MAX);
        assert_eq!(big.add(Rat::ONE), Err(SmtError::Overflow));
        assert_eq!(big.mul(Rat::int(2)), Err(SmtError::Overflow));
    }

    #[test]
    fn abs_reports_the_unrepresentable_magnitude() {
        assert_eq!(Rat::new(-7, 2).unwrap().abs(), Ok(Rat::new(7, 2).unwrap()));
        assert_eq!(Rat::int(5).abs(), Ok(Rat::int(5)));
        assert_eq!(Rat::int(i128::MIN + 1).abs(), Ok(Rat::int(i128::MAX)));
        assert_eq!(Rat::int(i128::MIN).abs(), Err(SmtError::Overflow));
    }

    #[test]
    fn ceil_and_floor_of_the_extremes() {
        assert_eq!(Rat::int(i128::MIN).ceil(), i128::MIN);
        assert_eq!(Rat::int(i128::MIN).floor(), i128::MIN);
        assert_eq!(Rat::int(i128::MAX).ceil(), i128::MAX);
        let half_min = Rat::new(i128::MIN + 1, 2).unwrap();
        assert_eq!(half_min.ceil(), i128::MIN / 2 + 1);
        assert_eq!(half_min.floor(), i128::MIN / 2);
        let half_max = Rat::new(i128::MAX, 2).unwrap();
        assert_eq!(half_max.ceil(), i128::MAX / 2 + 1);
        assert_eq!(half_max.floor(), i128::MAX / 2);
    }

    #[test]
    fn display() {
        assert_eq!(Rat::new(3, 6).unwrap().to_string(), "1/2");
        assert_eq!(Rat::int(-4).to_string(), "-4");
    }

    #[test]
    fn delta_ordering() {
        let c = Rat::int(3);
        assert!(DeltaRat::just_below(c) < DeltaRat::real(c));
        assert!(DeltaRat::real(c) < DeltaRat::just_above(c));
        assert!(DeltaRat::just_above(Rat::int(2)) < DeltaRat::just_below(Rat::int(3)));
    }

    #[test]
    fn delta_arithmetic() {
        let a = DeltaRat::just_below(Rat::int(3));
        let b = DeltaRat::real(Rat::int(1));
        assert_eq!(a.add(b).unwrap(), DeltaRat::just_below(Rat::int(4)));
        assert_eq!(a.scale(Rat::int(2)).unwrap().real, Rat::int(6));
        assert_eq!(a.scale(Rat::int(2)).unwrap().delta, Rat::int(-2));
        assert_eq!(a.sub(a).unwrap(), DeltaRat::ZERO);
    }

    #[test]
    fn proptest_like_random_arithmetic_consistency() {
        // Cheap deterministic sweep standing in for full property tests here;
        // the dedicated proptest suite lives in tests/.
        for n1 in -5i128..5 {
            for d1 in 1i128..4 {
                for n2 in -5i128..5 {
                    for d2 in 1i128..4 {
                        let a = Rat::new(n1, d1).unwrap();
                        let b = Rat::new(n2, d2).unwrap();
                        let s = a.add(b).unwrap();
                        assert_eq!(s.sub(b).unwrap(), a);
                        if !b.is_zero() {
                            assert_eq!(a.div(b).unwrap().mul(b).unwrap(), a);
                        }
                    }
                }
            }
        }
    }
}
