//! Time durations and instants, stored as `f64` nanoseconds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A duration or instant measured in nanoseconds.
///
/// `Nanos` doubles as the simulation timestamp type: an instant is a duration
/// since the simulation epoch. An `f64` holds nanosecond-resolution values
/// exactly up to ~2⁵³ ns (≈104 days of simulated time), far beyond any run in
/// this workspace.
///
/// # Examples
///
/// ```
/// use aw_types::Nanos;
///
/// let c1_exit = Nanos::from_micros(2.0);
/// let c6_exit = Nanos::from_micros(30.0);
/// assert!(c6_exit > c1_exit);
/// assert_eq!((c6_exit - c1_exit).as_micros(), 28.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Nanos(f64);

impl Nanos {
    /// Zero duration.
    pub const ZERO: Nanos = Nanos(0.0);

    /// Creates a duration of `ns` nanoseconds.
    ///
    /// # Examples
    ///
    /// ```
    /// # use aw_types::Nanos;
    /// assert_eq!(Nanos::new(1500.0).as_micros(), 1.5);
    /// ```
    #[must_use]
    pub const fn new(ns: f64) -> Self {
        Nanos(ns)
    }

    /// Creates a duration of `us` microseconds.
    #[must_use]
    pub fn from_micros(us: f64) -> Self {
        Nanos(us * 1e3)
    }

    /// Creates a duration of `ms` milliseconds.
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Nanos(ms * 1e6)
    }

    /// Creates a duration of `s` seconds.
    #[must_use]
    pub fn from_secs(s: f64) -> Self {
        Nanos(s * 1e9)
    }

    /// The raw nanosecond count.
    #[must_use]
    pub const fn as_nanos(self) -> f64 {
        self.0
    }

    /// This duration expressed in microseconds.
    #[must_use]
    pub fn as_micros(self) -> f64 {
        self.0 / 1e3
    }

    /// This duration expressed in milliseconds.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.0 / 1e6
    }

    /// This duration expressed in seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0 / 1e9
    }

    /// Returns the smaller of two durations.
    #[must_use]
    pub fn min(self, other: Nanos) -> Nanos {
        Nanos(self.0.min(other.0))
    }

    /// Returns the larger of two durations.
    #[must_use]
    pub fn max(self, other: Nanos) -> Nanos {
        Nanos(self.0.max(other.0))
    }

    /// Clamps negative durations to zero.
    ///
    /// Useful after subtracting a deadline that may already have passed.
    #[must_use]
    pub fn clamp_non_negative(self) -> Nanos {
        Nanos(self.0.max(0.0))
    }

    /// `true` if the duration is a finite number (not NaN or infinity).
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Neg for Nanos {
    type Output = Nanos;
    fn neg(self) -> Nanos {
        Nanos(-self.0)
    }
}

impl Mul<f64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: f64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Mul<Nanos> for f64 {
    type Output = Nanos;
    fn mul(self, rhs: Nanos) -> Nanos {
        Nanos(self * rhs.0)
    }
}

impl Div<f64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: f64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Div<Nanos> for Nanos {
    /// Dividing two durations yields a dimensionless ratio.
    type Output = f64;
    fn div(self, rhs: Nanos) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        Nanos(iter.map(|n| n.0).sum())
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns.abs() >= 1e9 {
            write!(f, "{:.3}s", ns / 1e9)
        } else if ns.abs() >= 1e6 {
            write!(f, "{:.3}ms", ns / 1e6)
        } else if ns.abs() >= 1e3 {
            write!(f, "{:.3}µs", ns / 1e3)
        } else {
            write!(f, "{ns:.1}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(Nanos::from_micros(2.0).as_nanos(), 2000.0);
        assert_eq!(Nanos::from_millis(3.0).as_micros(), 3000.0);
        assert_eq!(Nanos::from_secs(1.0).as_millis(), 1000.0);
        assert_eq!(Nanos::from_secs(2.5).as_secs(), 2.5);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos::new(100.0);
        let b = Nanos::new(40.0);
        assert_eq!(a + b, Nanos::new(140.0));
        assert_eq!(a - b, Nanos::new(60.0));
        assert_eq!(a * 2.0, Nanos::new(200.0));
        assert_eq!(2.0 * a, Nanos::new(200.0));
        assert_eq!(a / 4.0, Nanos::new(25.0));
        assert_eq!(a / b, 2.5);
        assert_eq!(-a, Nanos::new(-100.0));
    }

    #[test]
    fn assign_ops() {
        let mut t = Nanos::new(10.0);
        t += Nanos::new(5.0);
        assert_eq!(t, Nanos::new(15.0));
        t -= Nanos::new(20.0);
        assert_eq!(t, Nanos::new(-5.0));
        assert_eq!(t.clamp_non_negative(), Nanos::ZERO);
    }

    #[test]
    fn min_max() {
        let a = Nanos::new(1.0);
        let b = Nanos::new(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn sum_iterator() {
        let total: Nanos = (1..=4).map(|i| Nanos::new(f64::from(i))).sum();
        assert_eq!(total, Nanos::new(10.0));
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(Nanos::new(12.0).to_string(), "12.0ns");
        assert_eq!(Nanos::from_micros(2.0).to_string(), "2.000µs");
        assert_eq!(Nanos::from_millis(1.5).to_string(), "1.500ms");
        assert_eq!(Nanos::from_secs(3.0).to_string(), "3.000s");
    }

    #[test]
    fn finite_check() {
        assert!(Nanos::new(1.0).is_finite());
        assert!(!Nanos::new(f64::INFINITY).is_finite());
        assert!(!Nanos::new(f64::NAN).is_finite());
    }
}
