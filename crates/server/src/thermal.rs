//! The Turbo thermal-capacitance model (Sec. 7.3).
//!
//! Turbo boost is opportunistic: a core may exceed its sustained power
//! budget only while the package has accumulated thermal headroom. Time
//! spent below the budget (idle states — the lower their power, the
//! faster) builds *thermal credit*; running above it (Turbo frequency)
//! drains the credit. This is why the paper finds that disabling C1E to
//! cut its transition latency also sabotages Turbo: the core idles hot in
//! C1 and never accumulates capacitance — while C6A provides both low idle
//! power (credit accrues) and nanosecond transitions.

use aw_types::{Joules, MilliWatts, Nanos};

/// Per-core thermal-capacitance accumulator gating Turbo.
///
/// # Examples
///
/// ```
/// use aw_server::ThermalModel;
/// use aw_types::{MilliWatts, Nanos};
///
/// let mut t = ThermalModel::skylake();
/// assert!(!t.turbo_available()); // starts with no credit
///
/// // A long stretch of deep idle builds credit:
/// t.advance(MilliWatts::new(300.0), Nanos::from_millis(50.0));
/// assert!(t.turbo_available());
///
/// // Sustained Turbo drains it again:
/// t.advance(MilliWatts::from_watts(6.0), Nanos::from_secs(2.0));
/// assert!(!t.turbo_available());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    credit: Joules,
    max_credit: Joules,
    enable_threshold: Joules,
    sustained_power: MilliWatts,
    turbo_power: MilliWatts,
}

impl ThermalModel {
    /// A Skylake-like core: 2.5 W sustained per-core budget (the 85 W
    /// package TDP split across cores after uncore overheads), 6 W at
    /// Turbo, up to 0.3 J of bankable headroom, Turbo enabled above
    /// 0.03 J. The tight budget is what makes the Sec. 7.3 interplay
    /// visible: a core idling in C1 (1.44 W) banks credit at ~1 W while
    /// one idling in C6A (0.3 W) banks at ~2.2 W — so low-power idle
    /// states directly buy Turbo residency.
    #[must_use]
    pub fn skylake() -> Self {
        ThermalModel {
            credit: Joules::ZERO,
            max_credit: Joules::new(0.3),
            enable_threshold: Joules::new(0.03),
            sustained_power: MilliWatts::from_watts(2.5),
            turbo_power: MilliWatts::from_watts(6.0),
        }
    }

    /// Accumulates (or drains) credit for `dt` spent at `power`.
    pub fn advance(&mut self, power: MilliWatts, dt: Nanos) {
        let delta = (self.sustained_power - power) * dt;
        let next = (self.credit + delta).as_joules().clamp(0.0, self.max_credit.as_joules());
        self.credit = Joules::new(next);
    }

    /// `true` if enough credit is banked to run at Turbo frequency.
    #[must_use]
    pub fn turbo_available(&self) -> bool {
        self.credit >= self.enable_threshold
    }

    /// Currently banked credit.
    #[must_use]
    pub fn credit(&self) -> Joules {
        self.credit
    }

    /// The per-core power drawn while running at Turbo frequency.
    #[must_use]
    pub(crate) fn turbo_power(&self) -> MilliWatts {
        self.turbo_power
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credit_accrues_faster_at_lower_idle_power() {
        let mut c1 = ThermalModel::skylake();
        let mut c6a = ThermalModel::skylake();
        let dt = Nanos::from_millis(50.0);
        c1.advance(MilliWatts::from_watts(1.44), dt);
        c6a.advance(MilliWatts::new(302.5), dt);
        assert!(c6a.credit() > c1.credit());
    }

    #[test]
    fn credit_saturates() {
        let mut t = ThermalModel::skylake();
        t.advance(MilliWatts::ZERO, Nanos::from_secs(100.0));
        assert_eq!(t.credit(), Joules::new(0.3));
    }

    #[test]
    fn credit_never_negative() {
        let mut t = ThermalModel::skylake();
        t.advance(MilliWatts::from_watts(6.0), Nanos::from_secs(100.0));
        assert_eq!(t.credit(), Joules::ZERO);
    }

    #[test]
    fn threshold_gates_turbo() {
        let mut t = ThermalModel::skylake();
        assert!(!t.turbo_available());
        // 0.03 J at a ~2.2 W surplus (idle at 0.3 W) needs ~14 ms.
        t.advance(MilliWatts::new(300.0), Nanos::from_millis(15.0));
        assert!(t.turbo_available());
    }

    #[test]
    fn sustained_power_is_credit_neutral() {
        let mut t = ThermalModel::skylake();
        t.advance(MilliWatts::new(300.0), Nanos::from_millis(100.0));
        let before = t.credit();
        t.advance(t.sustained_power, Nanos::from_secs(1.0));
        assert_eq!(t.credit(), before);
    }
}
