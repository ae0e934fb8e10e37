//! The C-state parameter catalog (paper Table 1).

use aw_types::{MilliWatts, Nanos};

use crate::{CState, FreqLevel};

/// Per-C-state parameters: latencies, target residency, and power.
///
/// `transition_time` is Table 1's worst-case software+hardware entry+exit
/// budget (what the OS governor reasons about); `entry_latency` and
/// `exit_latency` split it into the phase before the core is fully idle and
/// the phase between the wake interrupt and the first retired instruction
/// (what a queued request actually waits for).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CStateParams {
    /// Which state these parameters describe.
    pub state: CState,
    /// Worst-case total software+hardware entry+exit time (Table 1).
    pub transition_time: Nanos,
    /// Time from the MWAIT until the state's power level is reached.
    pub entry_latency: Nanos,
    /// Time from the wake interrupt until the core executes instructions.
    pub exit_latency: Nanos,
    /// Minimum residency for the transition to pay off energetically
    /// (Table 1's "target residency"); governors compare predicted idle
    /// time against this.
    pub target_residency: Nanos,
    /// Core power while resident at base frequency (P1).
    pub power_p1: MilliWatts,
    /// Core power while resident at minimum frequency (Pn).
    pub power_pn: MilliWatts,
    /// The pure hardware exit latency, excluding the shared software
    /// overhead (interrupt delivery, kernel idle-loop exit). For the AW
    /// states this is the Fig. 6 retention-wake flow (< 80 ns exit,
    /// Sec. 5.2.2); for C1 a few nanoseconds of clock-ungating; for C6
    /// the full state restore. Hardware models (`aw-hw`) calibrate it
    /// per part.
    pub hw_exit: Nanos,
}

impl CStateParams {
    /// Power while resident in this state at frequency level `level`.
    ///
    /// States that pin a level (C1E/C6AE are defined at Pn) report that
    /// level's power regardless of the argument.
    #[must_use]
    pub fn power(&self, level: FreqLevel) -> MilliWatts {
        match self.state.freq_level() {
            FreqLevel::Pn => self.power_pn,
            FreqLevel::P1 => match level {
                FreqLevel::P1 => self.power_p1,
                FreqLevel::Pn => self.power_pn,
            },
        }
    }
}

/// The catalog mapping every modeled C-state to its parameters.
///
/// Catalogs are produced by hardware models (`aw_hw::HardwareModel`):
/// the model's base menu reproduces the part's measured legacy states
/// (Table 1 of the paper for Skylake-SP) and the AW rows are derived
/// from it generically. Individual rows can be overridden (e.g., to
/// plug in power numbers computed by the `aw-power` PPA model) via
/// [`CStateCatalog::set_params`].
///
/// # Examples
///
/// ```
/// use aw_cstates::{CState, CStateCatalog};
/// use aw_hw::HardwareModel;
/// use aw_types::Nanos;
///
/// let cat = HardwareModel::skylake_sp().catalog();
/// // C6 transition is ~66× the C1/C6A transition budget (133 µs vs 2 µs)
/// let ratio = cat.params(CState::C6).transition_time
///     / cat.params(CState::C6A).transition_time;
/// assert!(ratio > 60.0);
/// // ...and ~1700× the C6A *hardware* exit latency (30 µs vs 80 ns),
/// // which is where the paper's "up to 900×" transition speedup lives.
/// let hw = cat.params(CState::C6).exit_latency.as_nanos()
///     / cat.params(CState::C6A).hw_exit_latency().as_nanos();
/// assert!(hw > 300.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CStateCatalog {
    /// Rows indexed by [`CState::depth`]; `None` for an absent state.
    params: [Option<CStateParams>; CState::ALL.len()],
}

impl CStateParams {
    /// The pure hardware exit latency, excluding the shared software
    /// overhead (interrupt delivery, kernel idle-loop exit).
    ///
    /// This is the stored [`CStateParams::hw_exit`] calibration (kept
    /// as a method because the simulator's wake path reads it).
    #[must_use]
    pub fn hw_exit_latency(&self) -> Nanos {
        self.hw_exit
    }
}

impl CStateCatalog {
    /// An empty catalog; populate it with [`CStateCatalog::set_params`].
    ///
    /// This is how hardware models (`aw-hw`) assemble their base menus.
    #[must_use]
    pub fn empty() -> Self {
        CStateCatalog { params: [None; CState::ALL.len()] }
    }

    /// Parameters for `state`.
    ///
    /// # Panics
    ///
    /// Panics if the state is not present in this catalog (C6A/C6AE are
    /// absent from a hardware model's base menu).
    #[must_use]
    pub fn params(&self, state: CState) -> &CStateParams {
        self.get(state).unwrap_or_else(|| panic!("state {state} not present in catalog"))
    }

    /// Parameters for `state`, or `None` if not modeled by this catalog.
    #[must_use]
    pub fn get(&self, state: CState) -> Option<&CStateParams> {
        self.params[state.depth() as usize].as_ref()
    }

    /// Replaces (or inserts) the parameters for one state, e.g. to inject
    /// C6A power computed by the PPA model.
    pub fn set_params(&mut self, params: CStateParams) {
        self.params[params.state.depth() as usize] = Some(params);
    }

    /// Shorthand for the resident power of `state` at `level`.
    ///
    /// # Panics
    ///
    /// Panics if the state is not present in this catalog.
    #[must_use]
    pub fn power(&self, state: CState, level: FreqLevel) -> MilliWatts {
        self.params(state).power(level)
    }

    /// States present in this catalog, shallowest first.
    #[must_use]
    pub fn states(&self) -> Vec<CState> {
        self.params.iter().flatten().map(|p| p.state).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skylake_sp_catalogs;

    #[test]
    fn baseline_matches_table1() {
        let cat = skylake_sp_catalogs().0;
        assert_eq!(cat.power(CState::C0, FreqLevel::P1), MilliWatts::from_watts(4.0));
        assert_eq!(cat.power(CState::C0, FreqLevel::Pn), MilliWatts::from_watts(1.0));
        assert_eq!(cat.power(CState::C1, FreqLevel::P1), MilliWatts::from_watts(1.44));
        assert_eq!(cat.power(CState::C1E, FreqLevel::P1), MilliWatts::from_watts(0.88));
        assert_eq!(cat.power(CState::C6, FreqLevel::P1), MilliWatts::from_watts(0.1));
        assert_eq!(cat.params(CState::C1).transition_time, Nanos::from_micros(2.0));
        assert_eq!(cat.params(CState::C1E).transition_time, Nanos::from_micros(10.0));
        assert_eq!(cat.params(CState::C6).transition_time, Nanos::from_micros(133.0));
        assert_eq!(cat.params(CState::C6).target_residency, Nanos::from_micros(600.0));
    }

    #[test]
    fn baseline_lacks_aw_states() {
        let cat = skylake_sp_catalogs().0;
        assert!(cat.get(CState::C6A).is_none());
        assert!(cat.get(CState::C6AE).is_none());
    }

    #[test]
    fn aw_catalog_power_ordering() {
        let cat = skylake_sp_catalogs().1;
        // Deeper states consume strictly less power at P1.
        let states = cat.states();
        for w in states.windows(2) {
            assert!(
                cat.power(w[0], FreqLevel::P1) > cat.power(w[1], FreqLevel::P1),
                "{} should draw more than {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn aw_states_keep_legacy_latency_budget() {
        let cat = skylake_sp_catalogs().1;
        assert_eq!(cat.params(CState::C6A).transition_time, cat.params(CState::C1).transition_time);
        assert_eq!(
            cat.params(CState::C6AE).transition_time,
            cat.params(CState::C1E).transition_time
        );
        assert_eq!(
            cat.params(CState::C6A).target_residency,
            cat.params(CState::C1).target_residency
        );
    }

    #[test]
    fn c6a_power_is_about_7pct_of_c0() {
        let cat = skylake_sp_catalogs().1;
        let frac = cat.power(CState::C6A, FreqLevel::P1) / cat.power(CState::C0, FreqLevel::P1);
        assert!((0.06..=0.08).contains(&frac), "C6A/C0 = {frac}");
        let frac_e = cat.power(CState::C6AE, FreqLevel::P1) / cat.power(CState::C0, FreqLevel::P1);
        assert!((0.05..=0.065).contains(&frac_e), "C6AE/C0 = {frac_e}");
    }

    #[test]
    fn hw_exit_speedup_vs_c6_is_hundreds() {
        let cat = skylake_sp_catalogs().1;
        let speedup = cat.params(CState::C6).exit_latency.as_nanos()
            / cat.params(CState::C6A).hw_exit_latency().as_nanos();
        assert!(speedup >= 300.0, "speedup {speedup}");
    }

    #[test]
    fn pinned_level_states_report_pn_power() {
        let cat = skylake_sp_catalogs().1;
        // C1E is defined at Pn; asking for P1 power still yields Pn power.
        assert_eq!(
            cat.params(CState::C1E).power(FreqLevel::P1),
            cat.params(CState::C1E).power(FreqLevel::Pn)
        );
    }

    #[test]
    fn set_params_overrides() {
        let mut cat = skylake_sp_catalogs().1;
        let mut p = *cat.params(CState::C6A);
        p.power_p1 = MilliWatts::new(290.0);
        cat.set_params(p);
        assert_eq!(cat.power(CState::C6A, FreqLevel::P1), MilliWatts::new(290.0));
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn missing_state_panics() {
        let cat = skylake_sp_catalogs().0;
        let _ = cat.params(CState::C6A);
    }

    #[test]
    fn absent_rows_read_as_none() {
        let cat = CStateCatalog::empty();
        assert!(cat.states().is_empty());
        for s in CState::ALL {
            assert!(cat.get(s).is_none(), "{s}");
        }
    }

    #[test]
    #[should_panic(expected = "state C6 not present in catalog")]
    fn empty_catalog_params_panics() {
        let _ = CStateCatalog::empty().params(CState::C6);
    }

    #[test]
    fn set_params_replaces_and_states_stay_depth_ordered() {
        let full = skylake_sp_catalogs().1;
        let mut cat = CStateCatalog::empty();
        // Insert deepest-first; `states()` must still come back shallowest-first.
        for s in CState::ALL.into_iter().rev() {
            cat.set_params(*full.params(s));
        }
        assert_eq!(cat.states(), CState::ALL);
        assert_eq!(cat, full);
        let mut p = *cat.params(CState::C1E);
        p.target_residency = Nanos::from_micros(25.0);
        cat.set_params(p);
        assert_eq!(cat.params(CState::C1E).target_residency, Nanos::from_micros(25.0));
        assert_eq!(cat.states(), CState::ALL);
    }

    #[test]
    fn equality_sees_presence_of_a_state() {
        let base = skylake_sp_catalogs().0;
        let mut with_c6a = base.clone();
        with_c6a.set_params(*skylake_sp_catalogs().1.params(CState::C6A));
        assert_ne!(base, with_c6a);
        assert_eq!(base, skylake_sp_catalogs().0);
    }

    #[test]
    fn entry_plus_exit_close_to_transition() {
        let cat = skylake_sp_catalogs().1;
        for s in cat.states() {
            let p = cat.params(s);
            let sum = p.entry_latency + p.exit_latency;
            assert!(
                (sum.as_nanos() - p.transition_time.as_nanos()).abs()
                    <= 0.01 * p.transition_time.as_nanos() + 150.0,
                "{s}: {sum} vs {}",
                p.transition_time
            );
        }
    }
}
