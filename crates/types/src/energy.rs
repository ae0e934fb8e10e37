//! Energy, stored as `f64` joules.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::{MilliWatts, Nanos};

/// Energy in joules.
///
/// Produced by multiplying [`MilliWatts`] by [`Nanos`]; divided by a duration
/// it yields average power, which is how the simulator reports `AvgP`.
///
/// # Examples
///
/// ```
/// use aw_types::{Joules, MilliWatts, Nanos};
///
/// let window = Nanos::from_secs(10.0);
/// let energy = MilliWatts::from_watts(0.3) * window;
/// let avg: MilliWatts = energy / window;
/// assert!((avg.as_watts() - 0.3).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Joules(f64);

impl Joules {
    /// Zero energy.
    pub const ZERO: Joules = Joules(0.0);

    /// Creates an energy of `j` joules.
    #[must_use]
    pub const fn new(j: f64) -> Self {
        Joules(j)
    }

    /// The raw joule value.
    #[must_use]
    pub const fn as_joules(self) -> f64 {
        self.0
    }

    /// This energy expressed in microjoules.
    #[must_use]
    pub fn as_microjoules(self) -> f64 {
        self.0 * 1e6
    }

    /// This energy expressed in kilowatt-hours (for TCO calculations).
    #[must_use]
    pub fn as_kilowatt_hours(self) -> f64 {
        self.0 / 3.6e6
    }
}

impl Add for Joules {
    type Output = Joules;
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl AddAssign for Joules {
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl Sub for Joules {
    type Output = Joules;
    fn sub(self, rhs: Joules) -> Joules {
        Joules(self.0 - rhs.0)
    }
}

impl SubAssign for Joules {
    fn sub_assign(&mut self, rhs: Joules) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Joules {
    type Output = Joules;
    fn mul(self, rhs: f64) -> Joules {
        Joules(self.0 * rhs)
    }
}

impl Mul<Joules> for f64 {
    type Output = Joules;
    fn mul(self, rhs: Joules) -> Joules {
        Joules(self * rhs.0)
    }
}

impl Div<f64> for Joules {
    type Output = Joules;
    fn div(self, rhs: f64) -> Joules {
        Joules(self.0 / rhs)
    }
}

impl Div<Nanos> for Joules {
    /// Energy divided by duration yields average power.
    type Output = MilliWatts;
    fn div(self, rhs: Nanos) -> MilliWatts {
        // J / ns = W × 1e9 = mW × 1e12
        MilliWatts::new(self.0 / rhs.as_nanos() * 1e12)
    }
}

impl Div<Joules> for Joules {
    /// Dividing two energies yields a dimensionless ratio.
    type Output = f64;
    fn div(self, rhs: Joules) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        Joules(iter.map(|e| e.0).sum())
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1.0 {
            write!(f, "{:.3}J", self.0)
        } else if self.0.abs() >= 1e-3 {
            write!(f, "{:.3}mJ", self.0 * 1e3)
        } else {
            write!(f, "{:.3}µJ", self.0 * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_over_time_is_power() {
        let e = Joules::new(2.0);
        let p = e / Nanos::from_secs(4.0);
        assert!((p.as_watts() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = Joules::new(3.0);
        let b = Joules::new(1.0);
        assert_eq!(a + b, Joules::new(4.0));
        assert_eq!(a - b, Joules::new(2.0));
        assert_eq!(a * 2.0, Joules::new(6.0));
        assert_eq!(2.0 * a, Joules::new(6.0));
        assert_eq!(a / 3.0, Joules::new(1.0));
        assert_eq!(a / b, 3.0);
    }

    #[test]
    fn accumulation() {
        let mut total = Joules::ZERO;
        total += Joules::new(1.5);
        total += Joules::new(0.5);
        assert_eq!(total, Joules::new(2.0));
        total -= Joules::new(2.0);
        assert_eq!(total, Joules::ZERO);
    }

    #[test]
    fn kwh_conversion() {
        assert!((Joules::new(3.6e6).as_kilowatt_hours() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sum_iterator() {
        let total: Joules = (1..=3).map(|i| Joules::new(f64::from(i))).sum();
        assert_eq!(total, Joules::new(6.0));
    }

    #[test]
    fn display() {
        assert_eq!(Joules::new(1.5).to_string(), "1.500J");
        assert_eq!(Joules::new(0.002).to_string(), "2.000mJ");
        assert_eq!(Joules::new(3e-6).to_string(), "3.000µJ");
    }
}
