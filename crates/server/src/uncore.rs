//! Package-level (uncore) idle-state tracking.
//!
//! The paper scopes itself to *core* C-states and notes (footnote 1)
//! that package C-states (PC2/PC6…) save additional uncore power but
//! need *every* core idle — and deep package states additionally need
//! every core in C6, because a core with live caches (C1…C6A) still
//! requires the coherence fabric powered. That is exactly why AW's C6A
//! keeps the package out of PC6: its caches stay coherent. The follow-up
//! AgilePkgC paper (ref [9]) attacks that limitation; this module models
//! the baseline package behaviour so the simulator's package power is
//! honest about it.
//!
//! The data types ([`PackageCState`], [`UncorePower`], [`CcxSpec`])
//! live in `aw-hw` so every [`aw_hw::HardwareModel`] carries its own
//! uncore calibration; this module hosts the state machine that
//! integrates them over a run. On core-complex parts (Zen 2) the model
//! additionally credits the L3 slice of every fully-sleeping CCX —
//! and, mirroring the package-level story, cores idling in C6A hold
//! their CCX's L3 awake because their caches stay coherent.

use aw_sim::{EnergyMeter, ResidencyTracker};
use aw_types::{Joules, MilliWatts, Nanos, Ratio};

pub use aw_hw::{PackageCState, UncorePower};

use aw_hw::{CcxSpec, HardwareModel};

/// Tracks the package idle state from per-core occupancy counts and
/// integrates uncore energy.
///
/// The server simulator reports every change in the number of
/// idle/flushed cores; the model derives the package state:
///
/// * any core busy → PC0;
/// * all cores idle → PC2;
/// * all cores idle **and** all in C6 → PC6.
#[derive(Debug, Clone)]
pub(crate) struct UncoreModel {
    cores: usize,
    power: UncorePower,
    ccx: Option<CcxSpec>,
    state: PackageCState,
    /// CCXes whose cores are all in legacy C6 (their L3 slice asleep);
    /// always zero without a [`CcxSpec`].
    asleep_ccx: usize,
    meter: EnergyMeter,
    tracker: ResidencyTracker<PackageCState>,
}

impl UncoreModel {
    /// Creates the model with explicit power levels.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub(crate) fn new(cores: usize, power: UncorePower, start: Nanos) -> Self {
        assert!(cores > 0, "need at least one core");
        UncoreModel {
            cores,
            power,
            ccx: None,
            state: PackageCState::Pc0,
            asleep_ccx: 0,
            meter: EnergyMeter::new(start),
            tracker: ResidencyTracker::new(PackageCState::Pc0, start),
        }
    }

    /// Creates the model from a hardware model's uncore calibration,
    /// including its CCX topology if it has one.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub(crate) fn for_hw(hw: &HardwareModel, cores: usize, start: Nanos) -> Self {
        let mut m = UncoreModel::new(cores, hw.uncore, start);
        m.ccx = hw.ccx;
        m
    }

    /// Power drawn right now: the package-state level, minus the L3
    /// credit of every fully-sleeping CCX while the package itself is
    /// still above PC6 (floored at the PC6 level — a package can't
    /// beat all-slices-plus-fabric-asleep by sleeping slices alone).
    fn current_power(&self) -> MilliWatts {
        let base = self.power.of(self.state);
        match (&self.ccx, self.state) {
            (Some(ccx), PackageCState::Pc0 | PackageCState::Pc2) if self.asleep_ccx > 0 => {
                (base - ccx.l3_sleep * self.asleep_ccx as f64).max(self.power.pc6)
            }
            _ => base,
        }
    }

    /// As [`UncoreModel::update`], additionally reporting how many
    /// CCXes currently have *all* their cores in legacy C6 (only
    /// meaningful on models with a [`CcxSpec`]; ignored otherwise).
    ///
    /// # Panics
    ///
    /// Panics if the counts are inconsistent with the core count.
    pub(crate) fn update_ccx(
        &mut self,
        idle_cores: usize,
        c6_cores: usize,
        asleep_ccx: usize,
        now: Nanos,
    ) {
        assert!(idle_cores <= self.cores, "idle count exceeds core count");
        assert!(c6_cores <= idle_cores, "C6 cores must be idle cores");
        let next = if idle_cores < self.cores {
            PackageCState::Pc0
        } else if c6_cores == self.cores {
            PackageCState::Pc6
        } else {
            PackageCState::Pc2
        };
        let asleep_ccx = if self.ccx.is_some() { asleep_ccx } else { 0 };
        if next != self.state || asleep_ccx != self.asleep_ccx {
            self.meter.advance(self.current_power(), now);
            if next != self.state {
                self.tracker.transition(next, now);
            }
            self.state = next;
            self.asleep_ccx = asleep_ccx;
        }
    }

    /// Closes the observation window and returns accumulated energy.
    pub(crate) fn finish(&mut self, end: Nanos) -> Joules {
        self.meter.advance(self.current_power(), end);
        self.tracker.finish(end);
        self.meter.energy()
    }

    /// Restarts energy/residency accounting at `now`, keeping the
    /// current state (warm-up boundary).
    pub(crate) fn reset_metrics(&mut self, now: Nanos) {
        self.meter = EnergyMeter::new(now);
        self.tracker = ResidencyTracker::new(self.state, now);
    }

    /// Fraction of observed time in `state`.
    #[must_use]
    pub(crate) fn residency(&self, state: PackageCState) -> Ratio {
        self.tracker.residency(&state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_in_pc0() {
        let u = UncoreModel::new(2, UncorePower::skylake(), Nanos::ZERO);
        assert_eq!(u.state, PackageCState::Pc0);
    }

    #[test]
    fn all_idle_enters_pc2() {
        let mut u = UncoreModel::new(2, UncorePower::skylake(), Nanos::ZERO);
        u.update_ccx(1, 0, 0, Nanos::new(10.0));
        assert_eq!(u.state, PackageCState::Pc0);
        u.update_ccx(2, 0, 0, Nanos::new(20.0));
        assert_eq!(u.state, PackageCState::Pc2);
    }

    #[test]
    fn pc6_requires_all_cores_in_c6() {
        let mut u = UncoreModel::new(3, UncorePower::skylake(), Nanos::ZERO);
        u.update_ccx(3, 2, 0, Nanos::new(10.0));
        assert_eq!(u.state, PackageCState::Pc2);
        u.update_ccx(3, 3, 0, Nanos::new(20.0));
        assert_eq!(u.state, PackageCState::Pc6);
        // One core waking drops straight to PC0.
        u.update_ccx(2, 2, 0, Nanos::new(30.0));
        assert_eq!(u.state, PackageCState::Pc0);
    }

    #[test]
    fn aw_cores_block_pc6() {
        // The documented limitation: cores idling in C6A (coherent
        // caches) count as idle but never as C6, so PC6 is unreachable.
        let mut u = UncoreModel::new(2, UncorePower::skylake(), Nanos::ZERO);
        u.update_ccx(2, 0, 0, Nanos::new(10.0));
        assert_eq!(u.state, PackageCState::Pc2);
    }

    #[test]
    fn energy_integrates_state_power() {
        let mut u = UncoreModel::new(1, UncorePower::skylake(), Nanos::ZERO);
        // 1 ms at PC0 (12 W) then 1 ms at PC6 (2 W).
        u.update_ccx(1, 1, 0, Nanos::from_millis(1.0));
        let total = u.finish(Nanos::from_millis(2.0));
        assert!((total.as_joules() - (12.0e-3 + 2.0e-3)).abs() < 1e-9, "{total}");
    }

    #[test]
    fn residencies_partition() {
        let mut u = UncoreModel::new(1, UncorePower::skylake(), Nanos::ZERO);
        u.update_ccx(1, 0, 0, Nanos::new(40.0));
        u.update_ccx(0, 0, 0, Nanos::new(80.0));
        u.finish(Nanos::new(100.0));
        let sum = u.residency(PackageCState::Pc0).get()
            + u.residency(PackageCState::Pc2).get()
            + u.residency(PackageCState::Pc6).get();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((u.residency(PackageCState::Pc2).get() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_accounting() {
        let mut u = UncoreModel::new(1, UncorePower::skylake(), Nanos::ZERO);
        u.update_ccx(1, 1, 0, Nanos::from_millis(1.0));
        u.reset_metrics(Nanos::from_millis(1.0));
        assert_eq!(u.meter.energy(), Joules::ZERO);
        assert_eq!(u.state, PackageCState::Pc6);
    }

    #[test]
    #[should_panic(expected = "C6 cores must be idle")]
    fn rejects_inconsistent_counts() {
        let mut u = UncoreModel::new(2, UncorePower::skylake(), Nanos::ZERO);
        u.update_ccx(1, 2, 0, Nanos::new(1.0));
    }

    #[test]
    fn ccx_credit_applies_in_pc2() {
        // 8 zen2-style cores = 2 CCXes of 4. One CCX fully in C6 while
        // the package sits in PC2 credits one L3 slice.
        let zen = HardwareModel::zen2();
        let mut u = UncoreModel::for_hw(zen, 8, Nanos::ZERO);
        // All idle, one CCX (4 cores) in C6: PC2 with one slice asleep.
        u.update_ccx(8, 4, 1, Nanos::from_millis(1.0));
        assert_eq!(u.state, PackageCState::Pc2);
        u.finish(Nanos::from_millis(2.0));
        // 1 ms at PC0 (40 W) + 1 ms at PC2 minus one slice credit.
        let credited = (zen.uncore.pc2 - zen.ccx.unwrap().l3_sleep).max(zen.uncore.pc6);
        let expect = 40.0e-3 + credited.as_watts() * 1.0e-3;
        assert!((u.meter.energy().as_joules() - expect).abs() < 1e-9, "{}", u.meter.energy());
    }

    #[test]
    fn ccx_credit_ignored_without_spec() {
        // Skylake has no CCX spec: a nonzero asleep count changes nothing.
        let mut a = UncoreModel::new(4, UncorePower::skylake(), Nanos::ZERO);
        let mut b = UncoreModel::new(4, UncorePower::skylake(), Nanos::ZERO);
        a.update_ccx(4, 0, 0, Nanos::from_millis(1.0));
        b.update_ccx(4, 0, 7, Nanos::from_millis(1.0));
        assert_eq!(a.finish(Nanos::from_millis(2.0)), b.finish(Nanos::from_millis(2.0)));
    }
}
