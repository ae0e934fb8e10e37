//! The hardware-model registry and the generic AW-menu derivation.

use std::fmt;
use std::sync::OnceLock;

use aw_cstates::{CState, CStateCatalog, CStateConfig, CStateParams};
use aw_types::{MegaHertz, MilliWatts, Nanos};

use crate::uncore::{CcxSpec, UncorePower};

/// Per-vendor calibration of one AgileWatts retention state: the cost
/// side of swapping a legacy shallow state's retention point into the
/// power-gated domain (paper Sec. 5.2).
///
/// Everything else about the agile state — software transition budget,
/// entry latency, target residency — is inherited from the legacy
/// state it replaces; see `derive_aw`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetentionPoint {
    /// The agile state being calibrated (must satisfy
    /// [`CState::replaces`], i.e. C6A or C6AE).
    pub state: CState,
    /// Pure hardware wake latency out of retention (Fig. 6 flow).
    pub hw_exit: Nanos,
    /// Absolute core power while resident (Table 3-style retention
    /// power; the frequency level is irrelevant with the core gated).
    pub power: MilliWatts,
}

/// Everything the workspace knows about one CPU part: base C-state
/// menu, AW retention calibration, frequency pair, and uncore
/// behaviour. See the crate-level docs for the contract and DESIGN §16
/// for the per-parameter calibration sources.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareModel {
    /// Registry key (`--hw <name>` on the CLI).
    pub name: &'static str,
    /// Human-readable part description for reports.
    pub vendor: &'static str,
    /// Base (P1) core frequency.
    pub base_freq: MegaHertz,
    /// Maximum Turbo frequency.
    pub turbo_freq: MegaHertz,
    /// The (slow, fast) GHz pair the Fig. 8d frequency-scalability
    /// comparison is quoted at.
    pub scal_freqs: (f64, f64),
    /// The legacy C-state menu (no agile states).
    pub base: CStateCatalog,
    /// AW retention calibration; one point per derivable agile state.
    pub retention: Vec<RetentionPoint>,
    /// Uncore power per package state.
    pub uncore: UncorePower,
    /// Core-complex topology, for parts with per-CCX L3 slices.
    pub ccx: Option<CcxSpec>,
}

/// Derives the AgileWatts menu from a base menu: for every legacy
/// state with an agile replacement *present in the base menu*, the
/// agile twin keeps the legacy software transition budget (transition
/// time, entry latency, target residency), adds the retention wake
/// latency on exit, and sits at the calibrated retention power at both
/// frequency levels.
///
/// Retention points whose legacy counterpart is absent from the base
/// menu are skipped — Zen 2 has no C1E, so no C6AE is derived.
///
/// # Panics
///
/// Panics if a retention point names a non-agile state.
#[must_use]
pub(crate) fn derive_aw(base: &CStateCatalog, retention: &[RetentionPoint]) -> CStateCatalog {
    let mut cat = base.clone();
    for r in retention {
        let legacy = r.state.replaces().unwrap_or_else(|| {
            panic!("retention point {} does not replace a legacy state", r.state)
        });
        let Some(l) = base.get(legacy) else { continue };
        cat.set_params(CStateParams {
            state: r.state,
            transition_time: l.transition_time,
            entry_latency: l.entry_latency,
            exit_latency: l.exit_latency + r.hw_exit,
            target_residency: l.target_residency,
            power_p1: r.power,
            power_pn: r.power,
            hw_exit: r.hw_exit,
        });
    }
    cat
}

/// Error returned by [`HardwareModel::by_name`] for an unregistered
/// name; its display lists every known model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownHardware {
    requested: String,
}

impl fmt::Display for UnknownHardware {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown hardware model `{}`; known models: {}",
            self.requested,
            HardwareModel::names().join(", ")
        )
    }
}

impl std::error::Error for UnknownHardware {}

static REGISTRY: OnceLock<Vec<HardwareModel>> = OnceLock::new();

fn registry() -> &'static [HardwareModel] {
    REGISTRY.get_or_init(|| vec![crate::skylake::model(), crate::zen2::model()])
}

impl HardwareModel {
    /// Every registered model.
    #[must_use]
    pub fn all() -> &'static [HardwareModel] {
        registry()
    }

    /// Registered model names, registration order.
    #[must_use]
    pub(crate) fn names() -> Vec<&'static str> {
        registry().iter().map(|m| m.name).collect()
    }

    /// Looks a model up by its registry key.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownHardware`] (whose message lists the known
    /// models) if nothing is registered under `name`.
    pub fn by_name(name: &str) -> Result<&'static HardwareModel, UnknownHardware> {
        registry()
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| UnknownHardware { requested: name.to_string() })
    }

    /// The Intel Skylake-SP instance (the paper's part), byte-identical
    /// to the constants the workspace was originally calibrated with.
    #[must_use]
    pub fn skylake_sp() -> &'static HardwareModel {
        Self::by_name("skylake-sp").expect("skylake-sp is always registered")
    }

    /// The AMD Zen 2 (Rome) instance.
    #[must_use]
    pub fn zen2() -> &'static HardwareModel {
        Self::by_name("zen2").expect("zen2 is always registered")
    }

    /// The legacy menu, without agile states.
    #[must_use]
    pub fn base_catalog(&self) -> CStateCatalog {
        self.base.clone()
    }

    /// The full menu: the base menu plus the AW states derived from it
    /// (see `derive_aw`).
    #[must_use]
    pub fn catalog(&self) -> CStateCatalog {
        derive_aw(&self.base, &self.retention)
    }

    /// Restricts a C-state enable mask to the states this model
    /// actually has: Skylake-SP passes every named configuration
    /// through unchanged, while on Zen 2 (no C1E) `Baseline` becomes
    /// C1+C6 and `AW` becomes C6A+C6.
    ///
    /// # Panics
    ///
    /// Panics if nothing survives the restriction (every model
    /// provides at least C1, so named configurations never trigger
    /// this).
    #[must_use]
    pub fn restrict(&self, cfg: &CStateConfig) -> CStateConfig {
        let cat = self.catalog();
        let keep: Vec<CState> =
            cfg.enabled_states().into_iter().filter(|&s| cat.get(s).is_some()).collect();
        assert!(
            !keep.is_empty(),
            "no enabled C-state of {:?} exists on {}",
            cfg.enabled_states(),
            self.name
        );
        CStateConfig::new(keep, cfg.turbo())
    }

    /// The largest retention wake latency among this model's agile
    /// states — the "extra" wake cost an AW configuration can see over
    /// its legacy twin (100 ns on Skylake-SP, from C6AE).
    #[must_use]
    pub fn aw_wake_extra(&self) -> Nanos {
        self.retention.iter().map(|r| r.hw_exit).fold(Nanos::ZERO, Nanos::max)
    }
}

#[cfg(test)]
mod tests {
    use aw_cstates::FreqLevel;

    use super::*;

    #[test]
    fn by_name_finds_registered_models() {
        assert_eq!(HardwareModel::by_name("skylake-sp").unwrap().name, "skylake-sp");
        assert_eq!(HardwareModel::by_name("zen2").unwrap().name, "zen2");
    }

    #[test]
    fn unknown_name_lists_known_models() {
        let err = HardwareModel::by_name("m2-ultra").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("m2-ultra"), "{msg}");
        assert!(msg.contains("skylake-sp"), "{msg}");
        assert!(msg.contains("zen2"), "{msg}");
    }

    #[test]
    fn derive_skips_agile_states_without_legacy_parent() {
        // Zen 2 has no C1E, so its C6AE (if someone calibrated one)
        // would be skipped; its menu only derives C6A.
        let cat = HardwareModel::zen2().catalog();
        assert!(cat.get(CState::C6A).is_some());
        assert!(cat.get(CState::C6AE).is_none());
    }

    #[test]
    #[should_panic(expected = "does not replace")]
    fn derive_rejects_non_agile_retention() {
        let hw = HardwareModel::skylake_sp();
        let bad = RetentionPoint {
            state: CState::C6,
            hw_exit: Nanos::new(80.0),
            power: MilliWatts::new(300.0),
        };
        let _ = derive_aw(&hw.base, &[bad]);
    }

    #[test]
    fn agile_states_inherit_legacy_budget() {
        for hw in HardwareModel::all() {
            let cat = hw.catalog();
            for r in &hw.retention {
                let Some(agile) = cat.get(r.state) else { continue };
                let legacy = cat.params(r.state.replaces().unwrap());
                assert_eq!(agile.transition_time, legacy.transition_time, "{}", hw.name);
                assert_eq!(agile.entry_latency, legacy.entry_latency, "{}", hw.name);
                assert_eq!(agile.target_residency, legacy.target_residency, "{}", hw.name);
                assert_eq!(agile.exit_latency, legacy.exit_latency + r.hw_exit, "{}", hw.name);
                assert_eq!(agile.hw_exit_latency(), r.hw_exit, "{}", hw.name);
            }
        }
    }

    #[test]
    fn restrict_drops_absent_states_only() {
        use aw_cstates::NamedConfig;
        let sky = HardwareModel::skylake_sp();
        let zen = HardwareModel::zen2();
        for named in NamedConfig::ALL {
            let cfg = named.config();
            assert_eq!(sky.restrict(&cfg), cfg, "skylake-sp must pass {named} through");
            let z = zen.restrict(&cfg);
            assert!(!z.is_enabled(CState::C1E), "{named}");
            assert!(!z.is_enabled(CState::C6AE), "{named}");
            assert_eq!(z.turbo(), cfg.turbo(), "{named}");
        }
    }

    #[test]
    fn aw_wake_extra_is_deepest_retention_exit() {
        assert_eq!(HardwareModel::skylake_sp().aw_wake_extra(), Nanos::new(100.0));
        assert_eq!(HardwareModel::zen2().aw_wake_extra(), Nanos::new(100.0));
    }

    #[test]
    fn retention_power_sits_between_legacy_and_c6() {
        for hw in HardwareModel::all() {
            let cat = hw.catalog();
            for r in &hw.retention {
                let legacy = cat.params(r.state.replaces().unwrap());
                let c6 = cat.params(CState::C6);
                assert!(r.power < legacy.power(FreqLevel::Pn), "{}/{}", hw.name, r.state);
                assert!(r.power > c6.power(FreqLevel::P1), "{}/{}", hw.name, r.state);
            }
        }
    }
}
