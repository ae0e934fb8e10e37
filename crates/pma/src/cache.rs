//! The Cache Coherence and Sleep Mode (CCSM) controller — Sec. 4.2/5.1.2.
//!
//! Instead of flushing L1/L2 for deep idle, AW keeps them power-ungated
//! but drops the SRAM data-array voltage through P-type sleep transistors
//! with seven programmable settings, and clock-gates the domain. A minimal
//! always-on detector watches for snoops; on arrival the array voltage is
//! raised and the clock ungated for the duration of the snoop burst. Only
//! the data array (>90% of cache area) sleeps — tag/state arrays stay at
//! nominal voltage so the array wake hides under the tag access.

use aw_types::{Cycles, Nanos, Ratio};

use aw_cstates::PMA_CLOCK;

/// One of the seven programmable sleep-transistor settings (Sec. 5.1.2).
///
/// Higher settings drop the retention voltage further: more leakage
/// savings, same 2-cycle wake (the data-array wake hides under the tag
/// access).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SleepSetting(u8);

impl SleepSetting {
    /// The deepest retention-safe setting.
    pub(crate) const MAX: SleepSetting = SleepSetting(7);

    /// Creates setting `level`.
    ///
    /// # Errors
    ///
    /// Returns `Err` if `level` is outside `1..=7`.
    pub fn new(level: u8) -> Result<Self, u8> {
        if (1..=7).contains(&level) {
            Ok(SleepSetting(level))
        } else {
            Err(level)
        }
    }

    /// Fraction of the awake data-array leakage that remains at this
    /// setting. Linear interpolation from ~80% at level 1 to ~25% at
    /// level 7 (deepest retention-safe voltage).
    #[must_use]
    pub fn leakage_fraction(self) -> Ratio {
        let t = f64::from(self.0 - 1) / 6.0;
        Ratio::new(0.80 - t * 0.55)
    }
}

impl Default for SleepSetting {
    fn default() -> Self {
        SleepSetting::MAX
    }
}

/// CCSM controller state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CacheSleepState {
    /// Nominal voltage, clock running (core active).
    Awake,
    /// Data array at retention voltage, domain clock-gated.
    Sleeping,
    /// Temporarily awake to service snoops while the core idles.
    ServingSnoop,
}

/// The CCSM cache sleep-mode controller for a core's private L1/L2.
///
/// Tracks state, counts snoop services, and reports the cycle costs of the
/// Fig. 6 sub-flows (ⓐ wake = 2 cycles, ⓒ re-sleep = 1–3 cycles).
///
/// # Examples
///
/// ```
/// use aw_pma::CacheSleepController;
///
/// let mut ccsm = CacheSleepController::skylake();
/// ccsm.enter_sleep();
///
/// // Snoops arrive; the always-on detector wakes the arrays, the burst
/// // is served and the arrays go back to sleep:
/// let latency = ccsm.serve_snoops(3);
/// assert!(latency.as_nanos() < 100.0);
/// assert_eq!(ccsm.snoops_served(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct CacheSleepController {
    state: CacheSleepState,
    snoops_served: u64,
    /// Per-snoop service time once awake (tag + data access).
    snoop_service: Nanos,
}

impl CacheSleepController {
    /// The Skylake-calibrated controller for the ~1.1 MB L1+L2: ~20 ns
    /// per snoop service.
    #[must_use]
    pub fn skylake() -> Self {
        CacheSleepController {
            state: CacheSleepState::Awake,
            snoops_served: 0,
            snoop_service: Nanos::new(20.0),
        }
    }

    /// Snoops serviced while sleeping, lifetime total.
    #[must_use]
    pub fn snoops_served(&self) -> u64 {
        self.snoops_served
    }

    /// Enters sleep mode (Fig. 6 step ③). Returns the cycle cost
    /// (1–3 PMA cycles; we model the worst case, 3).
    pub fn enter_sleep(&mut self) -> Cycles {
        self.state = CacheSleepState::Sleeping;
        Cycles::new(3)
    }

    /// Exits sleep mode to full wakefulness (Fig. 6 step ④). Returns the
    /// cycle cost (2 cycles: clock-ungate, then tag access overlaps the
    /// array wake).
    pub(crate) fn exit_sleep(&mut self) -> Cycles {
        self.state = CacheSleepState::Awake;
        Cycles::new(2)
    }

    /// Services a burst of `count` snoops while sleeping (Fig. 6 ⓐ–ⓒ):
    /// wake the arrays, serve every outstanding snoop, re-enter sleep.
    /// Returns the total wall-clock latency of the burst.
    ///
    /// # Panics
    ///
    /// Panics if called while the core is active (`Awake`): snoops then
    /// ride the normal cache pipeline, not the CCSM flow.
    pub fn serve_snoops(&mut self, count: u32) -> Nanos {
        assert!(
            self.state != CacheSleepState::Awake,
            "CCSM snoop flow only runs while the cache domain sleeps"
        );
        self.state = CacheSleepState::ServingSnoop;
        let wake = Cycles::new(2).at(PMA_CLOCK);
        let serve = self.snoop_service * f64::from(count);
        self.snoops_served += u64::from(count);
        // ⓒ return to sleep.
        self.state = CacheSleepState::Sleeping;
        let resleep = Cycles::new(3).at(PMA_CLOCK);
        wake + serve + resleep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_bounds() {
        assert!(SleepSetting::new(0).is_err());
        assert!(SleepSetting::new(8).is_err());
        assert_eq!(SleepSetting::new(3).unwrap().0, 3);
    }

    #[test]
    fn deeper_settings_leak_less() {
        let mut prev = f64::INFINITY;
        for level in 1..=7 {
            let frac = SleepSetting::new(level).unwrap().leakage_fraction().get();
            assert!(frac < prev, "level {level}");
            prev = frac;
        }
        assert!((SleepSetting::MAX.leakage_fraction().get() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sleep_enter_exit_cycle_costs() {
        let mut c = CacheSleepController::skylake();
        assert_eq!(c.enter_sleep(), Cycles::new(3));
        assert_eq!(c.state, CacheSleepState::Sleeping);
        assert_eq!(c.exit_sleep(), Cycles::new(2));
        assert_eq!(c.state, CacheSleepState::Awake);
    }

    #[test]
    fn snoop_burst_latency_and_counts() {
        let mut c = CacheSleepController::skylake();
        c.enter_sleep();
        let lat = c.serve_snoops(2);
        // 2 cycles wake (4 ns) + 2×20 ns + 3 cycles re-sleep (6 ns) = 50 ns.
        assert!((lat.as_nanos() - 50.0).abs() < 1e-9, "{lat}");
        assert_eq!(c.snoops_served(), 2);
        assert_eq!(c.state, CacheSleepState::Sleeping);
    }

    #[test]
    fn snoop_latency_is_c1_like() {
        // The paper: C6A snoop handling ≈ C1 snoop handling (both serve
        // from coherent caches; C6A adds only the 2-cycle wake + re-sleep).
        let mut c = CacheSleepController::skylake();
        c.enter_sleep();
        let one = c.serve_snoops(1);
        assert!(one < Nanos::new(100.0));
    }

    #[test]
    #[should_panic(expected = "snoop flow")]
    fn snoop_while_awake_panics() {
        let mut c = CacheSleepController::skylake();
        let _ = c.serve_snoops(1);
    }

    #[test]
    fn no_flush_needed() {
        // The whole point of CCSM: sleep entry cost is cycles, not the
        // ~75 µs flush of the C6 path.
        let mut c = CacheSleepController::skylake();
        let entry_ns = c.enter_sleep().at(PMA_CLOCK);
        assert!(entry_ns < Nanos::new(10.0));
    }
}
