//! Server C-state configurations (the tuned setups of Sec. 7.2/7.3).
//!
//! Server vendors recommend disabling specific C-states and/or Turbo for
//! latency-critical deployments; the paper evaluates AW against those tuned
//! configurations. [`NamedConfig`] enumerates them and [`CStateConfig`]
//! carries the resulting enable mask.

use std::collections::BTreeSet;
use std::fmt;

use crate::{CState, CStateCatalog};

/// The named configurations used throughout the evaluation.
///
/// Naming follows the paper: a `T_`/`NT_` prefix for Turbo enabled or
/// disabled, then the list of disabled states. All configurations have
/// P-states disabled (the paper's baseline choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NamedConfig {
    /// Turbo on; C1, C1E, C6 enabled (the paper's main baseline).
    Baseline,
    /// Turbo off; C1, C1E, C6 enabled.
    NtBaseline,
    /// Turbo off; C6 disabled.
    NtNoC6,
    /// Turbo off; C6 and C1E disabled (lowest latency, highest power).
    NtNoC6NoC1e,
    /// Turbo on; C6 disabled.
    TNoC6,
    /// Turbo on; C6 and C1E disabled.
    TNoC6NoC1e,
    /// AgileWatts with Turbo on: C6A/C6AE replace C1/C1E; C6 enabled as in
    /// the baseline (Sec. 7.1 comparison).
    Aw,
    /// AgileWatts with Turbo off.
    NtAw,
    /// AgileWatts in the Sec. 7.3 Turbo configuration:
    /// `T_C6A, No_C6, No_C1E` — only C6A enabled, Turbo on.
    TC6aNoC6NoC1e,
    /// As [`NamedConfig::TC6aNoC6NoC1e`] with Turbo off.
    NtC6aNoC6NoC1e,
}

impl NamedConfig {
    /// Every named configuration.
    pub const ALL: [NamedConfig; 10] = [
        NamedConfig::Baseline,
        NamedConfig::NtBaseline,
        NamedConfig::NtNoC6,
        NamedConfig::NtNoC6NoC1e,
        NamedConfig::TNoC6,
        NamedConfig::TNoC6NoC1e,
        NamedConfig::Aw,
        NamedConfig::NtAw,
        NamedConfig::TC6aNoC6NoC1e,
        NamedConfig::NtC6aNoC6NoC1e,
    ];

    /// Builds the concrete [`CStateConfig`] for this name.
    #[must_use]
    pub fn config(self) -> CStateConfig {
        use CState::*;
        let (turbo, states): (bool, &[CState]) = match self {
            NamedConfig::Baseline => (true, &[C1, C1E, C6]),
            NamedConfig::NtBaseline => (false, &[C1, C1E, C6]),
            NamedConfig::NtNoC6 => (false, &[C1, C1E]),
            NamedConfig::NtNoC6NoC1e => (false, &[C1]),
            NamedConfig::TNoC6 => (true, &[C1, C1E]),
            NamedConfig::TNoC6NoC1e => (true, &[C1]),
            NamedConfig::Aw => (true, &[C6A, C6AE, C6]),
            NamedConfig::NtAw => (false, &[C6A, C6AE, C6]),
            NamedConfig::TC6aNoC6NoC1e => (true, &[C6A]),
            NamedConfig::NtC6aNoC6NoC1e => (false, &[C6A]),
        };
        CStateConfig::new(states.iter().copied(), turbo)
    }

    /// `true` if this configuration uses the AgileWatts states.
    #[must_use]
    pub fn is_aw(self) -> bool {
        matches!(
            self,
            NamedConfig::Aw
                | NamedConfig::NtAw
                | NamedConfig::TC6aNoC6NoC1e
                | NamedConfig::NtC6aNoC6NoC1e
        )
    }
}

impl fmt::Display for NamedConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            NamedConfig::Baseline => "Baseline",
            NamedConfig::NtBaseline => "NT_Baseline",
            NamedConfig::NtNoC6 => "NT_No_C6",
            NamedConfig::NtNoC6NoC1e => "NT_No_C6,No_C1E",
            NamedConfig::TNoC6 => "T_No_C6",
            NamedConfig::TNoC6NoC1e => "T_No_C6,No_C1E",
            NamedConfig::Aw => "AW",
            NamedConfig::NtAw => "NT_AW",
            NamedConfig::TC6aNoC6NoC1e => "T_C6A,No_C6,No_C1E",
            NamedConfig::NtC6aNoC6NoC1e => "NT_C6A,No_C6,No_C1E",
        };
        f.write_str(name)
    }
}

/// A concrete C-state enablement: which idle states the OS may request,
/// plus the Turbo flag. C0 is always implicitly available.
///
/// # Examples
///
/// ```
/// use aw_cstates::{CState, CStateConfig, NamedConfig};
///
/// let cfg = NamedConfig::NtNoC6.config();
/// assert!(cfg.is_enabled(CState::C1));
/// assert!(cfg.is_enabled(CState::C1E));
/// assert!(!cfg.is_enabled(CState::C6));
/// assert!(!cfg.turbo());
/// assert_eq!(cfg.deepest(), Some(CState::C1E));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CStateConfig {
    enabled: BTreeSet<CState>,
    turbo: bool,
}

impl CStateConfig {
    /// Creates a configuration enabling the given idle states.
    ///
    /// # Panics
    ///
    /// Panics if `states` contains `C0` (always enabled, never listed) or
    /// is empty (a core must have at least one idle state; hardware always
    /// provides C1-equivalent halt).
    #[must_use]
    pub fn new(states: impl IntoIterator<Item = CState>, turbo: bool) -> Self {
        let enabled: BTreeSet<CState> = states.into_iter().collect();
        assert!(!enabled.contains(&CState::C0), "C0 is implicit and cannot be listed");
        assert!(!enabled.is_empty(), "at least one idle state must be enabled");
        CStateConfig { enabled, turbo }
    }

    /// `true` if the OS may request `state` while idling.
    #[must_use]
    pub fn is_enabled(&self, state: CState) -> bool {
        self.enabled.contains(&state)
    }

    /// Whether Turbo boost is enabled.
    #[must_use]
    pub fn turbo(&self) -> bool {
        self.turbo
    }

    /// Enabled idle states, shallowest first.
    #[must_use]
    pub fn enabled_states(&self) -> Vec<CState> {
        self.iter_enabled().collect()
    }

    /// Iterates the enabled idle states shallowest-first without
    /// allocating — the hot-path sibling of [`Self::enabled_states`],
    /// used by governors that run once per idle entry. `CState`'s
    /// derived `Ord` is its depth order, so the set's own order is
    /// shallowest-first.
    pub(crate) fn iter_enabled(&self) -> impl Iterator<Item = CState> + '_ {
        self.enabled.iter().copied()
    }

    /// The deepest enabled idle state.
    #[must_use]
    pub fn deepest(&self) -> Option<CState> {
        self.enabled_states().last().copied()
    }

    /// The shallowest enabled idle state (the fallback when predicted idle
    /// time is too short for anything deeper).
    #[must_use]
    pub fn shallowest(&self) -> Option<CState> {
        self.enabled_states().first().copied()
    }

    /// The AgileWatts twin of this configuration: every legacy shallow
    /// state is replaced by its AW counterpart (C1→C6A, C1E→C6AE) while
    /// deeper states and the Turbo flag are preserved. This is the
    /// substitution the paper's Sec. 6.2 model performs on measured
    /// baselines.
    ///
    /// # Examples
    ///
    /// ```
    /// use aw_cstates::{CState, NamedConfig};
    ///
    /// let twin = NamedConfig::NtNoC6.config().aw_twin();
    /// assert!(twin.is_enabled(CState::C6A));
    /// assert!(twin.is_enabled(CState::C6AE));
    /// assert!(!twin.is_enabled(CState::C1));
    /// assert!(!twin.is_enabled(CState::C6));
    /// ```
    #[must_use]
    pub fn aw_twin(&self) -> CStateConfig {
        CStateConfig::new(
            self.enabled.iter().map(|&s| s.agile_replacement().unwrap_or(s)),
            self.turbo,
        )
    }

    /// The inverse of [`CStateConfig::aw_twin`]: every agile state is
    /// demoted to the legacy shallow state it replaces (C6A→C1,
    /// C6AE→C1E). This is the degraded configuration a tripped circuit
    /// breaker selects from while the agile fast-exit path is suspect;
    /// legacy states pass through unchanged, so the set is never empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use aw_cstates::{CState, NamedConfig};
    ///
    /// let demoted = NamedConfig::NtNoC6.config().aw_twin().demote_agile();
    /// assert!(demoted.is_enabled(CState::C1));
    /// assert!(!demoted.is_enabled(CState::C6A));
    /// ```
    #[must_use]
    pub fn demote_agile(&self) -> CStateConfig {
        CStateConfig::new(self.enabled.iter().map(|&s| s.replaces().unwrap_or(s)), self.turbo)
    }

    /// Validates this configuration against a catalog: every enabled state
    /// must have parameters.
    ///
    /// # Errors
    ///
    /// Returns the first state missing from the catalog.
    pub fn validate(&self, catalog: &CStateCatalog) -> Result<(), CState> {
        for &s in &self.enabled {
            if catalog.get(s).is_none() {
                return Err(s);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_configs_build() {
        for name in NamedConfig::ALL {
            let cfg = name.config();
            assert!(cfg.deepest().is_some(), "{name} has no states");
        }
    }

    #[test]
    fn baseline_has_legacy_states() {
        let cfg = NamedConfig::Baseline.config();
        assert!(cfg.turbo());
        assert_eq!(cfg.enabled_states(), vec![CState::C1, CState::C1E, CState::C6]);
    }

    #[test]
    fn aw_config_replaces_shallow_states() {
        let cfg = NamedConfig::Aw.config();
        assert!(!cfg.is_enabled(CState::C1));
        assert!(!cfg.is_enabled(CState::C1E));
        assert!(cfg.is_enabled(CState::C6A));
        assert!(cfg.is_enabled(CState::C6AE));
        assert!(cfg.is_enabled(CState::C6));
    }

    #[test]
    fn iter_enabled_is_depth_ordered_for_every_subset() {
        for mask in 1u32..(1 << CState::IDLE.len()) {
            let subset: Vec<CState> = CState::IDLE
                .into_iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, s)| s)
                .collect();
            // Listed deepest-first, so the set has to do the ordering.
            let cfg = CStateConfig::new(subset.iter().rev().copied(), false);
            let mut by_depth = subset.clone();
            by_depth.sort_by_key(|s| s.depth());
            let iterated: Vec<CState> = cfg.iter_enabled().collect();
            assert_eq!(iterated, by_depth, "mask {mask:#07b}");
            assert_eq!(iterated, cfg.enabled_states(), "mask {mask:#07b}");
        }
    }

    #[test]
    fn turbo_flags_match_names() {
        assert!(NamedConfig::TNoC6.config().turbo());
        assert!(!NamedConfig::NtNoC6.config().turbo());
        assert!(NamedConfig::TC6aNoC6NoC1e.config().turbo());
        assert!(!NamedConfig::NtC6aNoC6NoC1e.config().turbo());
    }

    #[test]
    fn is_aw_flag() {
        assert!(NamedConfig::Aw.is_aw());
        assert!(NamedConfig::TC6aNoC6NoC1e.is_aw());
        assert!(!NamedConfig::Baseline.is_aw());
        assert!(!NamedConfig::NtNoC6NoC1e.is_aw());
    }

    #[test]
    fn deepest_and_shallowest() {
        let cfg = NamedConfig::Baseline.config();
        assert_eq!(cfg.deepest(), Some(CState::C6));
        assert_eq!(cfg.shallowest(), Some(CState::C1));
        let aw = NamedConfig::TC6aNoC6NoC1e.config();
        assert_eq!(aw.deepest(), Some(CState::C6A));
        assert_eq!(aw.shallowest(), Some(CState::C6A));
    }

    #[test]
    fn validate_against_catalog() {
        let (legacy, aw) = crate::skylake_sp_catalogs();
        assert_eq!(NamedConfig::Aw.config().validate(&legacy), Err(CState::C6A));
        assert_eq!(NamedConfig::Baseline.config().validate(&legacy), Ok(()));
        assert_eq!(NamedConfig::Aw.config().validate(&aw), Ok(()));
    }

    #[test]
    #[should_panic(expected = "C0 is implicit")]
    fn rejects_c0() {
        let _ = CStateConfig::new([CState::C0], true);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_empty() {
        let _ = CStateConfig::new([], true);
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(NamedConfig::NtNoC6NoC1e.to_string(), "NT_No_C6,No_C1E");
        assert_eq!(NamedConfig::TC6aNoC6NoC1e.to_string(), "T_C6A,No_C6,No_C1E");
    }
}
