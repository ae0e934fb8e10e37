//! The Sec. 7.5 snoop-impact analysis.
//!
//! Unlike the sweep drivers, this analysis is closed-form — two catalog
//! lookups and four divisions, no simulation loop — so there is no point
//! grid to hand to the parallel `SweepExecutor`; it runs in-place on the
//! calling thread.

use aw_cstates::{CState, FreqLevel};
use aw_server::{SNOOP_AW_POWER, SNOOP_LEGACY_POWER};
use aw_types::MilliWatts;

/// The upper-bound snoop analysis of Sec. 7.5: a 100%-idle core resident
/// in C1 (baseline) or C6A (AW), with and without a continuous snoop
/// stream.
#[derive(Debug, Clone)]
pub struct SnoopImpact {
    /// C1 power without snoops.
    pub c1_quiet: MilliWatts,
    /// C1 power while continuously serving snoops (+~50 mW).
    pub c1_snooping: MilliWatts,
    /// C6A power without snoops.
    pub c6a_quiet: MilliWatts,
    /// C6A power while continuously serving snoops (+~120 mW).
    pub c6a_snooping: MilliWatts,
    /// AW savings with no snoop traffic (paper: ~79%).
    pub savings_quiet_pct: f64,
    /// AW savings under continuous snoops (paper: ~68%).
    pub savings_snooping_pct: f64,
    /// Savings opportunity lost to snoop traffic (paper: ~11 points).
    pub lost_pct: f64,
}

/// Computes the Sec. 7.5 bounds from the catalog powers and the
/// simulator's snoop power deltas ([`SNOOP_LEGACY_POWER`]: L1/L2
/// clock-ungate over C1; [`SNOOP_AW_POWER`]: sleep-mode exit over C6A).
///
/// # Examples
///
/// ```
/// let s = agilewatts::experiments::snoop_impact();
/// assert!((75.0..83.0).contains(&s.savings_quiet_pct));
/// assert!((64.0..72.0).contains(&s.savings_snooping_pct));
/// assert!(s.lost_pct < 15.0);
/// ```
#[must_use]
pub fn snoop_impact() -> SnoopImpact {
    snoop_impact_on(aw_server::HardwareModel::skylake_sp())
}

/// [`snoop_impact`] on another hardware model's catalog: the same snoop
/// power deltas applied to that model's C1 and derived-C6A powers.
#[must_use]
pub fn snoop_impact_on(hw: &'static aw_server::HardwareModel) -> SnoopImpact {
    let catalog = hw.catalog();
    let c1 = catalog.power(CState::C1, FreqLevel::P1);
    let c6a = catalog.power(CState::C6A, FreqLevel::P1);
    let c1_snooping = c1 + SNOOP_LEGACY_POWER;
    let c6a_snooping = c6a + SNOOP_AW_POWER;
    // Paper uses C6A ≈ 0.3 W and quotes (1.44−0.3)/1.44 = 79%.
    let savings_quiet_pct = (1.0 - c6a / c1) * 100.0;
    let savings_snooping_pct = (1.0 - c6a_snooping / c1_snooping) * 100.0;
    SnoopImpact {
        c1_quiet: c1,
        c1_snooping,
        c6a_quiet: c6a,
        c6a_snooping,
        savings_quiet_pct,
        savings_snooping_pct,
        lost_pct: savings_quiet_pct - savings_snooping_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_bounds() {
        let s = snoop_impact();
        // Paper: 79% quiet, 68% snooping, ~11 points lost.
        assert!((77.0..81.0).contains(&s.savings_quiet_pct), "{}", s.savings_quiet_pct);
        assert!((66.0..72.0).contains(&s.savings_snooping_pct), "{}", s.savings_snooping_pct);
        assert!((7.0..13.0).contains(&s.lost_pct), "{}", s.lost_pct);
    }

    #[test]
    fn snooping_raises_both_sides() {
        let s = snoop_impact();
        assert!(s.c1_snooping > s.c1_quiet);
        assert!(s.c6a_snooping > s.c6a_quiet);
        // AW pays more per snoop (sleep-mode exit) than the baseline
        // (clock ungate), which is exactly why savings shrink.
        assert!((s.c6a_snooping - s.c6a_quiet) > (s.c1_snooping - s.c1_quiet));
    }
}
