//! Dimensionless fractions (residencies, efficiencies, area fractions).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A dimensionless fraction, nominally in `[0, 1]`.
///
/// Used throughout the workspace for C-state residencies (`R_Ci` in the
/// paper's Eq. 2), regulator efficiencies, leakage fractions, and area
/// fractions. Construction clamps NaN to zero but deliberately does *not*
/// clamp out-of-range values — intermediate model arithmetic can briefly
/// exceed 1 (e.g., summed overheads); use [`Ratio::clamped`] at the edges.
///
/// # Examples
///
/// ```
/// use aw_types::Ratio;
///
/// let c1_residency = Ratio::new(0.8);
/// let c0_residency = Ratio::new(0.2);
/// assert_eq!((c1_residency + c0_residency).get(), 1.0);
/// assert_eq!(c1_residency.as_percent(), 80.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Ratio(f64);

impl Ratio {
    /// The zero fraction.
    pub const ZERO: Ratio = Ratio(0.0);

    /// Creates a fraction with value `v`. NaN becomes zero.
    #[must_use]
    pub fn new(v: f64) -> Self {
        Ratio(if v.is_nan() { 0.0 } else { v })
    }

    /// Creates a fraction from a percentage, e.g. `Ratio::from_percent(55.0)`.
    #[must_use]
    pub fn from_percent(pct: f64) -> Self {
        Ratio::new(pct / 100.0)
    }

    /// The raw fractional value.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// This fraction expressed as a percentage.
    #[must_use]
    pub fn as_percent(self) -> f64 {
        self.0 * 100.0
    }

    /// This fraction clamped to `[0, 1]`.
    #[must_use]
    pub fn clamped(self) -> Ratio {
        Ratio(self.0.clamp(0.0, 1.0))
    }
}

impl Add for Ratio {
    type Output = Ratio;
    fn add(self, rhs: Ratio) -> Ratio {
        Ratio(self.0 + rhs.0)
    }
}

impl AddAssign for Ratio {
    fn add_assign(&mut self, rhs: Ratio) {
        self.0 += rhs.0;
    }
}

impl Sub for Ratio {
    type Output = Ratio;
    fn sub(self, rhs: Ratio) -> Ratio {
        Ratio(self.0 - rhs.0)
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Ratio) -> Ratio {
        Ratio(self.0 * rhs.0)
    }
}

impl Mul<f64> for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: f64) -> Ratio {
        Ratio(self.0 * rhs)
    }
}

impl Div for Ratio {
    type Output = f64;
    fn div(self, rhs: Ratio) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Ratio {
    fn sum<I: Iterator<Item = Ratio>>(iter: I) -> Ratio {
        Ratio(iter.map(|r| r.0).sum())
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.as_percent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_round_trip() {
        assert_eq!(Ratio::from_percent(55.0).get(), 0.55);
        assert_eq!(Ratio::new(0.25).as_percent(), 25.0);
    }

    #[test]
    fn nan_becomes_zero() {
        assert_eq!(Ratio::new(f64::NAN), Ratio::ZERO);
    }

    #[test]
    fn clamp() {
        assert_eq!(Ratio::new(1.5).clamped(), Ratio::new(1.0));
        assert_eq!(Ratio::new(-0.5).clamped(), Ratio::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Ratio::new(0.5);
        let b = Ratio::new(0.25);
        assert_eq!(a + b, Ratio::new(0.75));
        assert_eq!(a - b, Ratio::new(0.25));
        assert_eq!(a * b, Ratio::new(0.125));
        assert_eq!(a * 2.0, Ratio::new(1.0));
        assert_eq!(a / b, 2.0);
    }

    #[test]
    fn sum_of_residencies() {
        let total: Ratio = [0.2, 0.55, 0.25].iter().map(|&v| Ratio::new(v)).sum();
        assert!((total.get() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display() {
        assert_eq!(Ratio::new(0.416).to_string(), "41.6%");
    }
}
