//! Clock frequency and cycle counts.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

use crate::Nanos;

/// Clock frequency in megahertz.
///
/// The workspace models several clock domains: the core clock (800 MHz–3 GHz
/// on the modeled Xeon 4114), the 500 MHz power-management-agent clock, and
/// the ADPLL reference. `MegaHertz` converts between [`Cycles`] and
/// [`Nanos`].
///
/// # Examples
///
/// ```
/// use aw_types::MegaHertz;
///
/// let base = MegaHertz::from_ghz(2.2);
/// // One base-frequency cycle is ~0.4545 ns.
/// assert!((base.period().as_nanos() - 0.4545).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct MegaHertz(f64);

impl MegaHertz {
    /// Creates a frequency of `mhz` megahertz.
    ///
    /// # Panics
    ///
    /// Does not panic, but a zero frequency will produce infinite periods;
    /// use [`MegaHertz::period`] with care in that case.
    #[must_use]
    pub const fn new(mhz: f64) -> Self {
        MegaHertz(mhz)
    }

    /// Creates a frequency of `ghz` gigahertz.
    #[must_use]
    pub fn from_ghz(ghz: f64) -> Self {
        MegaHertz(ghz * 1e3)
    }

    /// The raw megahertz value.
    #[must_use]
    pub(crate) const fn as_mhz(self) -> f64 {
        self.0
    }

    /// The clock period of one cycle at this frequency.
    #[must_use]
    pub fn period(self) -> Nanos {
        Nanos::new(1e3 / self.0)
    }
}

impl Add for MegaHertz {
    type Output = MegaHertz;
    fn add(self, rhs: MegaHertz) -> MegaHertz {
        MegaHertz(self.0 + rhs.0)
    }
}

impl Sub for MegaHertz {
    type Output = MegaHertz;
    fn sub(self, rhs: MegaHertz) -> MegaHertz {
        MegaHertz(self.0 - rhs.0)
    }
}

impl Mul<f64> for MegaHertz {
    type Output = MegaHertz;
    fn mul(self, rhs: f64) -> MegaHertz {
        MegaHertz(self.0 * rhs)
    }
}

impl Div<MegaHertz> for MegaHertz {
    /// Dividing two frequencies yields a dimensionless ratio.
    type Output = f64;
    fn div(self, rhs: MegaHertz) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for MegaHertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e3 {
            write!(f, "{:.2}GHz", self.0 / 1e3)
        } else {
            write!(f, "{:.0}MHz", self.0)
        }
    }
}

/// A count of clock cycles.
///
/// Cycle counts are exact (`u64`); they become time only relative to a
/// [`MegaHertz`] clock via [`Cycles::at`].
///
/// # Examples
///
/// ```
/// use aw_types::{Cycles, MegaHertz, Nanos};
///
/// // The C6A entry flow takes < 10 PMA cycles (paper Sec. 5.2.1):
/// let entry = Cycles::new(8);
/// assert!(entry.at(MegaHertz::new(500.0)) < Nanos::new(20.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Creates a count of `n` cycles.
    #[must_use]
    pub const fn new(n: u64) -> Self {
        Cycles(n)
    }

    /// The wall-clock duration of this many cycles at frequency `clock`.
    #[must_use]
    pub fn at(self, clock: MegaHertz) -> Nanos {
        Nanos::new(self.0 as f64 * 1e3 / clock.as_mhz())
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghz_round_trip() {
        assert_eq!(MegaHertz::from_ghz(2.2).as_mhz(), 2200.0);
    }

    #[test]
    fn period_and_cycles() {
        let f = MegaHertz::new(500.0);
        assert_eq!(f.period(), Nanos::new(2.0));
        assert_eq!(Cycles::new(5).at(f), Nanos::new(10.0));
    }

    #[test]
    fn frequency_ratio() {
        assert!((MegaHertz::from_ghz(2.2) / MegaHertz::from_ghz(2.0) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn cycle_arithmetic() {
        assert_eq!(Cycles::new(3) + Cycles::new(4), Cycles::new(7));
        assert_eq!(Cycles::new(4) - Cycles::new(3), Cycles::new(1));
        assert_eq!(Cycles::new(3) * 5, Cycles::new(15));
    }

    #[test]
    fn display() {
        assert_eq!(MegaHertz::from_ghz(2.2).to_string(), "2.20GHz");
        assert_eq!(MegaHertz::new(500.0).to_string(), "500MHz");
        assert_eq!(Cycles::new(5).to_string(), "5 cycles");
    }
}
