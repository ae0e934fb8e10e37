//! Voltage-regulator efficiency models: the per-core FIVR and the
//! sleep-transistor linear regulator (Sec. 5.1.2 and 5.1.4).

use aw_types::{MilliWatts, Ratio};

/// The fully-integrated voltage regulator (FIVR) on a Skylake-class core.
///
/// Two loss terms matter in deep idle:
///
/// * a **static loss** of ~100 mW per core for the control and feedback
///   circuits, paid even when the output is 0 V;
/// * a **conversion loss** at light load: efficiency ≈ 80%, so delivering
///   `P` to the core draws `P / 0.80` at the FIVR input — an overhead of
///   `P × 0.25`.
///
/// # Examples
///
/// ```
/// use aw_power::Fivr;
/// use aw_types::MilliWatts;
///
/// let fivr = Fivr::skylake();
/// // Delivering 154 mW of C6A idle load costs ~38.5 mW of conversion
/// // loss plus the 100 mW static floor.
/// let load = MilliWatts::new(154.0);
/// let loss = fivr.input_power(load) - load - fivr.static_loss();
/// assert!((loss.as_milliwatts() - 38.5).abs() < 0.1);
/// assert_eq!(fivr.static_loss(), MilliWatts::new(100.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fivr {
    static_loss: MilliWatts,
    light_load_efficiency: Ratio,
}

impl Fivr {
    /// The paper's Skylake numbers: 100 mW static, 80% light-load
    /// efficiency.
    #[must_use]
    pub fn skylake() -> Self {
        Fivr { static_loss: MilliWatts::new(100.0), light_load_efficiency: Ratio::new(0.80) }
    }

    /// Creates a FIVR model from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `efficiency` is not in `(0, 1]`.
    #[must_use]
    pub fn new(static_loss: MilliWatts, efficiency: Ratio) -> Self {
        assert!(efficiency.get() > 0.0 && efficiency.get() <= 1.0, "efficiency must be in (0, 1]");
        Fivr { static_loss, light_load_efficiency: efficiency }
    }

    /// The static (always-paid) loss.
    #[must_use]
    pub fn static_loss(&self) -> MilliWatts {
        self.static_loss
    }

    /// Conversion loss for delivering `load` to the core:
    /// `load × (1/η − 1)`.
    #[must_use]
    pub(crate) fn conversion_loss(&self, load: MilliWatts) -> MilliWatts {
        load * (1.0 / self.light_load_efficiency.get() - 1.0)
    }

    /// Total input power drawn from the input rail to deliver `load`.
    #[must_use]
    pub fn input_power(&self, load: MilliWatts) -> MilliWatts {
        load + self.conversion_loss(load) + self.static_loss
    }
}

/// A sleep transistor modeled as a linear voltage regulator (LVR).
///
/// The CCSM sleep transistor drops the SRAM array voltage from the core
/// rail `v_in` to the retention level `v_out`. An LVR's power-conversion
/// efficiency is `v_out / v_in`, so the *closer* the input rail is to the
/// retention voltage, the less power burns in the transistor — this is why
/// C6AE (core rail at Pn ≈ minimum voltage) leaks less through the sleep
/// transistors than C6A (core rail at the P1 level): Sec. 5.1.2.
///
/// # Examples
///
/// ```
/// use aw_power::SleepTransistorLvr;
/// use aw_types::MilliWatts;
///
/// let retention = 0.55; // V
/// let c6a = SleepTransistorLvr::new(0.85, retention);  // P1-level rail
/// let c6ae = SleepTransistorLvr::new(0.65, retention); // Pn-level rail
/// let arrays = MilliWatts::new(10.0);
/// assert!(c6ae.drop_loss(arrays) < c6a.drop_loss(arrays));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SleepTransistorLvr {
    v_in: f64,
    v_out: f64,
}

impl SleepTransistorLvr {
    /// Creates a sleep-transistor LVR dropping `v_in` volts to `v_out`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < v_out <= v_in`.
    #[must_use]
    pub fn new(v_in: f64, v_out: f64) -> Self {
        assert!(v_out > 0.0 && v_out <= v_in, "need 0 < v_out <= v_in");
        SleepTransistorLvr { v_in, v_out }
    }

    /// Power-conversion efficiency `v_out / v_in`.
    #[must_use]
    pub(crate) fn efficiency(&self) -> Ratio {
        Ratio::new(self.v_out / self.v_in)
    }

    /// Input power drawn from the core rail to supply `retained` watts of
    /// array retention power.
    #[must_use]
    pub(crate) fn input_power(&self, retained: MilliWatts) -> MilliWatts {
        retained / self.efficiency().get()
    }

    /// Power burned in the transistor itself for `retained` watts of
    /// array retention power.
    #[must_use]
    pub fn drop_loss(&self, retained: MilliWatts) -> MilliWatts {
        self.input_power(retained) - retained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fivr_input_decomposition() {
        let fivr = Fivr::skylake();
        let load = MilliWatts::new(200.0);
        let input = fivr.input_power(load);
        assert!((input.as_milliwatts() - (200.0 + 50.0 + 100.0)).abs() < 1e-9);
    }

    #[test]
    fn fivr_zero_load_still_pays_static() {
        let fivr = Fivr::skylake();
        assert_eq!(fivr.input_power(MilliWatts::ZERO), MilliWatts::new(100.0));
        assert_eq!(fivr.conversion_loss(MilliWatts::ZERO), MilliWatts::ZERO);
    }

    #[test]
    fn perfect_fivr_has_no_conversion_loss() {
        let fivr = Fivr::new(MilliWatts::ZERO, Ratio::new(1.0));
        assert_eq!(fivr.conversion_loss(MilliWatts::new(500.0)), MilliWatts::ZERO);
    }

    #[test]
    fn lvr_efficiency_is_voltage_ratio() {
        let lvr = SleepTransistorLvr::new(1.0, 0.5);
        assert!((lvr.efficiency().get() - 0.5).abs() < 1e-12);
        let retained = MilliWatts::new(10.0);
        assert!((lvr.input_power(retained).as_milliwatts() - 20.0).abs() < 1e-9);
        assert!((lvr.drop_loss(retained).as_milliwatts() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn lower_rail_more_efficient() {
        // The C6AE effect: dropping the core rail toward the retention
        // voltage cuts the sleep-transistor loss.
        let retained = MilliWatts::new(40.0);
        let c6a = SleepTransistorLvr::new(0.85, 0.55).drop_loss(retained);
        let c6ae = SleepTransistorLvr::new(0.65, 0.55).drop_loss(retained);
        assert!(c6ae < c6a);
    }

    #[test]
    fn unity_lvr_is_lossless() {
        let lvr = SleepTransistorLvr::new(0.55, 0.55);
        assert_eq!(lvr.drop_loss(MilliWatts::new(40.0)), MilliWatts::ZERO);
    }

    #[test]
    #[should_panic(expected = "v_out <= v_in")]
    fn lvr_rejects_boost() {
        let _ = SleepTransistorLvr::new(0.5, 0.9);
    }
}
