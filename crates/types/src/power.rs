//! Power, stored as `f64` milliwatts.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::{Joules, Nanos, Ratio};

/// Electrical power in milliwatts.
///
/// Milliwatts are the natural unit for the AgileWatts cost model: the paper's
/// Table 3 reports every component overhead in mW, while per-core C-state
/// power (Table 1) is reported in W. Both constructors are provided.
///
/// Multiplying power by a [`Nanos`] duration yields [`Joules`].
///
/// # Examples
///
/// ```
/// use aw_types::{MilliWatts, Nanos};
///
/// let c1 = MilliWatts::from_watts(1.44);
/// let c6a = MilliWatts::new(300.0);
/// let saved = c1 - c6a;
/// assert!((saved.as_watts() - 1.14).abs() < 1e-12);
///
/// let energy = saved * Nanos::from_secs(1.0);
/// assert!((energy.as_joules() - 1.14).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct MilliWatts(f64);

impl MilliWatts {
    /// Zero power.
    pub const ZERO: MilliWatts = MilliWatts(0.0);

    /// Creates a power of `mw` milliwatts.
    #[must_use]
    pub const fn new(mw: f64) -> Self {
        MilliWatts(mw)
    }

    /// Creates a power of `w` watts.
    #[must_use]
    pub fn from_watts(w: f64) -> Self {
        MilliWatts(w * 1e3)
    }

    /// The raw milliwatt value.
    #[must_use]
    pub const fn as_milliwatts(self) -> f64 {
        self.0
    }

    /// This power expressed in watts.
    #[must_use]
    pub fn as_watts(self) -> f64 {
        self.0 / 1e3
    }

    /// Returns the larger of two powers.
    #[must_use]
    pub fn max(self, other: MilliWatts) -> MilliWatts {
        MilliWatts(self.0.max(other.0))
    }

    /// Clamps negative power (an unphysical model artifact) to zero.
    #[must_use]
    pub fn clamp_non_negative(self) -> MilliWatts {
        MilliWatts(self.0.max(0.0))
    }
}

impl Add for MilliWatts {
    type Output = MilliWatts;
    fn add(self, rhs: MilliWatts) -> MilliWatts {
        MilliWatts(self.0 + rhs.0)
    }
}

impl AddAssign for MilliWatts {
    fn add_assign(&mut self, rhs: MilliWatts) {
        self.0 += rhs.0;
    }
}

impl Sub for MilliWatts {
    type Output = MilliWatts;
    fn sub(self, rhs: MilliWatts) -> MilliWatts {
        MilliWatts(self.0 - rhs.0)
    }
}

impl SubAssign for MilliWatts {
    fn sub_assign(&mut self, rhs: MilliWatts) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for MilliWatts {
    type Output = MilliWatts;
    fn mul(self, rhs: f64) -> MilliWatts {
        MilliWatts(self.0 * rhs)
    }
}

impl Mul<MilliWatts> for f64 {
    type Output = MilliWatts;
    fn mul(self, rhs: MilliWatts) -> MilliWatts {
        MilliWatts(self * rhs.0)
    }
}

impl Mul<Ratio> for MilliWatts {
    type Output = MilliWatts;
    fn mul(self, rhs: Ratio) -> MilliWatts {
        MilliWatts(self.0 * rhs.get())
    }
}

impl Mul<MilliWatts> for Ratio {
    type Output = MilliWatts;
    fn mul(self, rhs: MilliWatts) -> MilliWatts {
        MilliWatts(self.get() * rhs.0)
    }
}

impl Div<f64> for MilliWatts {
    type Output = MilliWatts;
    fn div(self, rhs: f64) -> MilliWatts {
        MilliWatts(self.0 / rhs)
    }
}

impl Div<MilliWatts> for MilliWatts {
    /// Dividing two powers yields a dimensionless ratio.
    type Output = f64;
    fn div(self, rhs: MilliWatts) -> f64 {
        self.0 / rhs.0
    }
}

impl Mul<Nanos> for MilliWatts {
    type Output = Joules;
    fn mul(self, rhs: Nanos) -> Joules {
        // mW × ns = 1e-3 W × 1e-9 s = 1e-12 J
        Joules::new(self.0 * rhs.as_nanos() * 1e-12)
    }
}

impl Mul<MilliWatts> for Nanos {
    type Output = Joules;
    fn mul(self, rhs: MilliWatts) -> Joules {
        rhs * self
    }
}

impl Sum for MilliWatts {
    fn sum<I: Iterator<Item = MilliWatts>>(iter: I) -> MilliWatts {
        MilliWatts(iter.map(|p| p.0).sum())
    }
}

impl fmt::Display for MilliWatts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1e3 {
            write!(f, "{:.3}W", self.0 / 1e3)
        } else {
            write!(f, "{:.1}mW", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watt_round_trip() {
        assert_eq!(MilliWatts::from_watts(1.44).as_milliwatts(), 1440.0);
        assert_eq!(MilliWatts::new(300.0).as_watts(), 0.3);
    }

    #[test]
    fn arithmetic() {
        let a = MilliWatts::new(100.0);
        let b = MilliWatts::new(50.0);
        assert_eq!(a + b, MilliWatts::new(150.0));
        assert_eq!(a - b, MilliWatts::new(50.0));
        assert_eq!(a * 3.0, MilliWatts::new(300.0));
        assert_eq!(0.5 * a, MilliWatts::new(50.0));
        assert_eq!(a / 2.0, MilliWatts::new(50.0));
        assert_eq!(a / b, 2.0);
    }

    #[test]
    fn ratio_scaling() {
        let p = MilliWatts::new(200.0);
        let r = Ratio::new(0.25);
        assert_eq!(p * r, MilliWatts::new(50.0));
        assert_eq!(r * p, MilliWatts::new(50.0));
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = MilliWatts::from_watts(4.0) * Nanos::from_secs(2.0);
        assert!((e.as_joules() - 8.0).abs() < 1e-9);
        let e2 = Nanos::from_secs(2.0) * MilliWatts::from_watts(4.0);
        assert_eq!(e, e2);
    }

    #[test]
    fn clamp_and_minmax() {
        assert_eq!(MilliWatts::new(-3.0).clamp_non_negative(), MilliWatts::ZERO);
        let a = MilliWatts::new(1.0);
        let b = MilliWatts::new(2.0);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn sum_iterator() {
        let total: MilliWatts = vec![MilliWatts::new(1.0); 5].into_iter().sum();
        assert_eq!(total, MilliWatts::new(5.0));
    }

    #[test]
    fn display() {
        assert_eq!(MilliWatts::new(290.0).to_string(), "290.0mW");
        assert_eq!(MilliWatts::from_watts(1.44).to_string(), "1.440W");
    }
}
