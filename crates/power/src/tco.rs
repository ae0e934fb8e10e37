//! Datacenter cost-savings model (Sec. 7.6, Table 5).
//!
//! `savings = ΔAvgP × seconds_per_year × $/J`, per server, scaled to the
//! fleet and multiplied by the datacenter PUE. The paper's instance uses
//! $0.125/kWh, 100 K servers, and two 10-core sockets per server.

use aw_types::{Joules, MilliWatts, Nanos};

/// The Table 5 cost model.
///
/// # Examples
///
/// ```
/// use aw_power::TcoModel;
/// use aw_types::MilliWatts;
///
/// let tco = TcoModel::paper_instance();
/// // A steady 1 W-per-core saving on a 20-core server fleet:
/// let dollars = tco.yearly_fleet_savings(MilliWatts::from_watts(1.0));
/// // 20 W × 8766 h × 100k servers × $0.125/kWh ≈ $2.19 M/yr.
/// assert!((2.0e6..2.4e6).contains(&dollars), "{dollars}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcoModel {
    /// Electricity price in dollars per kilowatt-hour.
    pub dollars_per_kwh: f64,
    /// Number of servers in the fleet.
    pub servers: u64,
    /// CPU cores per server (2 × 10 on the modeled testbed).
    pub cores_per_server: u32,
    /// Datacenter power-usage effectiveness multiplier (1.0 = ideal).
    pub pue: f64,
}

impl TcoModel {
    /// The paper's instance: $0.125/kWh, 100 K servers, 20 cores each,
    /// PUE 1.0 (Table 5 reports CPU-energy savings; PUE "grows savings
    /// proportionally").
    #[must_use]
    pub fn paper_instance() -> Self {
        TcoModel { dollars_per_kwh: 0.125, servers: 100_000, cores_per_server: 20, pue: 1.0 }
    }

    /// Seconds in a (mean Gregorian) year.
    #[must_use]
    pub(crate) fn seconds_per_year() -> f64 {
        365.25 * 24.0 * 3600.0
    }

    /// Yearly energy saved by one core at a steady power delta.
    #[must_use]
    pub(crate) fn yearly_energy_per_core(&self, delta: MilliWatts) -> Joules {
        delta * Nanos::from_secs(Self::seconds_per_year())
    }

    /// Dollar value of an energy quantity at this model's electricity
    /// price and PUE.
    #[must_use]
    pub(crate) fn dollars_for(&self, energy: Joules) -> f64 {
        energy.as_kilowatt_hours() * self.dollars_per_kwh * self.pue
    }

    /// Yearly dollar savings for one core at a steady power delta.
    #[must_use]
    pub(crate) fn yearly_core_savings(&self, delta: MilliWatts) -> f64 {
        self.dollars_for(self.yearly_energy_per_core(delta))
    }

    /// Yearly dollar savings for the whole fleet at a steady per-core
    /// power delta (the Table 5 quantity).
    #[must_use]
    pub fn yearly_fleet_savings(&self, delta_per_core: MilliWatts) -> f64 {
        self.yearly_core_savings(delta_per_core)
            * f64::from(self.cores_per_server)
            * self.servers as f64
    }

    /// Returns a copy with a different PUE.
    #[must_use]
    pub fn with_pue(mut self, pue: f64) -> Self {
        assert!(pue >= 1.0, "PUE cannot be below 1");
        self.pue = pue;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_watt_core_year() {
        let tco = TcoModel::paper_instance();
        // 1 W for a year ≈ 8.766 kWh ≈ $1.10.
        let d = tco.yearly_core_savings(MilliWatts::from_watts(1.0));
        assert!((1.05..1.15).contains(&d), "{d}");
    }

    #[test]
    fn table5_magnitude() {
        // Table 5 reports $0.33M–$0.59M per year per 100 K servers for the
        // Memcached sweep. Back out the per-core ΔP: $0.59M/yr ↔ about
        // 270 mW per core across the fleet.
        let tco = TcoModel::paper_instance();
        let d = tco.yearly_fleet_savings(MilliWatts::new(270.0));
        assert!((0.55e6..0.65e6).contains(&d), "{d}");
        let d_low = tco.yearly_fleet_savings(MilliWatts::new(150.0));
        assert!((0.30e6..0.38e6).contains(&d_low), "{d_low}");
    }

    #[test]
    fn pue_scales_savings() {
        let base = TcoModel::paper_instance();
        let hot = base.with_pue(1.5);
        let delta = MilliWatts::new(200.0);
        assert!(
            (hot.yearly_fleet_savings(delta) / base.yearly_fleet_savings(delta) - 1.5).abs() < 1e-9
        );
    }

    #[test]
    fn zero_delta_zero_dollars() {
        let tco = TcoModel::paper_instance();
        assert_eq!(tco.yearly_fleet_savings(MilliWatts::ZERO), 0.0);
    }

    #[test]
    fn savings_linear_in_delta() {
        let tco = TcoModel::paper_instance();
        let a = tco.yearly_fleet_savings(MilliWatts::new(100.0));
        let b = tco.yearly_fleet_savings(MilliWatts::new(300.0));
        assert!((b / a - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "PUE")]
    fn rejects_sub_unity_pue() {
        let _ = TcoModel::paper_instance().with_pue(0.5);
    }
}
