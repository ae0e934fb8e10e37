//! Package-level (uncore) idle-state data.
//!
//! The paper scopes itself to *core* C-states and notes (footnote 1)
//! that package C-states (PC2/PC6…) save additional uncore power but
//! need *every* core idle — and deep package states additionally need
//! every core in C6, because a core with live caches (C1…C6A) still
//! requires the coherence fabric powered. That is exactly why AW's C6A
//! keeps the package out of PC6: its caches stay coherent. The data
//! types live here so each [`crate::HardwareModel`] can carry its own
//! uncore calibration; the state machine that integrates them over a
//! run (`UncoreModel`) lives in `aw-server` next to the simulator.

use aw_types::MilliWatts;

/// Package-level idle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PackageCState {
    /// At least one core is active or transitioning: uncore fully on.
    Pc0,
    /// Every core idle: uncore clock-gated where possible.
    Pc2,
    /// Every core in (legacy) C6 with caches flushed: uncore voltage
    /// reduced, shared cache in retention.
    Pc6,
}

/// Uncore power levels per package state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UncorePower {
    /// Uncore power with any core active.
    pub pc0: MilliWatts,
    /// Uncore power with all cores idle.
    pub pc2: MilliWatts,
    /// Uncore power with all cores in C6.
    pub pc6: MilliWatts,
}

impl UncorePower {
    /// Skylake-like defaults: 12 W active, 8 W all-idle, 2 W in PC6.
    #[must_use]
    pub fn skylake() -> Self {
        UncorePower {
            pc0: MilliWatts::from_watts(12.0),
            pc2: MilliWatts::from_watts(8.0),
            pc6: MilliWatts::from_watts(2.0),
        }
    }

    /// The power drawn in `state`.
    #[must_use]
    pub fn of(&self, state: PackageCState) -> MilliWatts {
        match state {
            PackageCState::Pc0 => self.pc0,
            PackageCState::Pc2 => self.pc2,
            PackageCState::Pc6 => self.pc6,
        }
    }
}

/// Core-complex (CCX) topology for parts whose last-level cache is
/// sliced per core group rather than shared package-wide.
///
/// On Zen 2 each CCX holds four cores and a private 16 MB L3 slice;
/// the slice can only power down when *all* cores of its CCX are in
/// CC6 (Schöne et al., *Energy Efficiency Aspects of the AMD Zen 2
/// Architecture*). The uncore model credits `l3_sleep` per fully
/// sleeping CCX while the package is otherwise in PC0/PC2 — and since
/// AW's C6A keeps caches coherent, cores idling agilely hold their
/// CCX's L3 awake, the core-complex analogue of C6A blocking PC6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcxSpec {
    /// Cores per CCX (4 on Zen 2).
    pub cores_per_ccx: usize,
    /// Uncore power credited per CCX whose cores are all in legacy C6
    /// (its L3 slice in retention).
    pub l3_sleep: MilliWatts,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skylake_levels_are_ordered() {
        let u = UncorePower::skylake();
        assert!(u.pc0 > u.pc2);
        assert!(u.pc2 > u.pc6);
        assert_eq!(u.of(PackageCState::Pc0), MilliWatts::from_watts(12.0));
        assert_eq!(u.of(PackageCState::Pc6), MilliWatts::from_watts(2.0));
    }
}
