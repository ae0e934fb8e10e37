//! The Units' Fast Power-Gating subsystem (Secs. 4.1 and 5.3).
//!
//! UFPG gates ~70% of the core area — front-end, out-of-order engine,
//! execution units — about 4.5× the area and capacitance of the AVX units.
//! To keep wake-up in-rush current within the limit that shipping AVX
//! power gates already tolerate, the area is split into five zones, each
//! with a local power-gate controller, woken sequentially by the PMA's
//! `SlpZone_i` signals (Fig. 2 chains per zone).

use aw_types::Nanos;

use crate::switch::{CurrentProfile, DaisyChain, AVX_REFERENCE_WAKE};

/// UFPG total area relative to the AVX units (paper: ~4.5×).
pub(crate) const UFPG_RELATIVE_AREA: f64 = 4.5;

/// One UFPG power-gate zone with its local controller and switch chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UfpgZone {
    /// Zone index (wake order).
    pub index: usize,
    /// The zone's daisy chain of switch cells.
    pub chain: DaisyChain,
}

/// How the PMA sequences zone wake-ups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WakePolicy {
    /// Sequential `SlpZone_i` assertion: zone *i+1* starts when zone *i*'s
    /// `ready` returns (the paper's design).
    Staggered,
    /// All zones asserted together, each still staggering internally.
    /// Faster but multiplies the in-rush peak by the zone count.
    Simultaneous,
    /// No staggering at all: every switch cell of every zone at once over
    /// one cell switch time. The worst case the staggering exists to
    /// prevent.
    Instantaneous,
}

/// The outcome of a UFPG wake: total latency and the in-rush profile.
#[derive(Debug, Clone, PartialEq)]
pub struct WakeReport {
    /// Wake policy used.
    pub policy: WakePolicy,
    /// Time from the first `SlpZone` assertion to the last `ready`.
    pub latency: Nanos,
    /// In-rush current profile (normalized: 1.0 ≡ AVX reference peak).
    pub profile: CurrentProfile,
}

impl WakeReport {
    /// Peak in-rush current, normalized to the AVX reference peak.
    #[must_use]
    pub fn peak_current(&self) -> f64 {
        self.profile.peak()
    }

    /// `true` if the peak stays within `limit` × the AVX reference peak
    /// (the PDN stability criterion; the paper's design targets ≈1×).
    #[must_use]
    pub fn within_current_limit(&self, limit: f64) -> bool {
        self.peak_current() <= limit + 1e-9
    }
}

/// The UFPG subsystem: the power-gated 70% of the core, divided into
/// zones.
///
/// # Examples
///
/// ```
/// use aw_pma::{Ufpg, WakePolicy};
///
/// let ufpg = Ufpg::skylake_c6a();
/// let staggered = ufpg.wake(WakePolicy::Staggered);
/// // The paper's numbers: < 70 ns total, peak within the AVX budget.
/// assert!(staggered.latency.as_nanos() <= 70.0);
/// assert!(staggered.within_current_limit(1.05));
///
/// // The ablation: waking every zone at once is ~5× the current peak.
/// let simultaneous = ufpg.wake(WakePolicy::Simultaneous);
/// assert!(simultaneous.peak_current() > 4.0 * staggered.peak_current());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ufpg {
    zones: Vec<UfpgZone>,
    cell_switch_time: Nanos,
}

impl Ufpg {
    /// The paper's design point: five equal zones covering 4.5× the AVX
    /// area, each zone staggered over (area ratio) × 15 ns ≤ 15 ns, for a
    /// 67.5 ns total staggered wake.
    #[must_use]
    pub fn skylake_c6a() -> Self {
        Ufpg::with_zones(5, UFPG_RELATIVE_AREA, 32)
    }

    /// Builds a UFPG with `zone_count` equal zones covering `total_area`
    /// (relative to the AVX units), each zone's chain carrying
    /// `cells_per_zone` switch cells.
    ///
    /// Each zone wakes over `(zone_area / 1.0) × 15 ns` so its in-rush
    /// current matches the AVX reference peak.
    ///
    /// # Panics
    ///
    /// Panics if `zone_count` is zero, `total_area` is not positive, or
    /// `cells_per_zone` is zero.
    #[must_use]
    pub fn with_zones(zone_count: usize, total_area: f64, cells_per_zone: u32) -> Self {
        assert!(zone_count > 0, "need at least one zone");
        assert!(total_area > 0.0 && total_area.is_finite(), "area must be positive");
        let zone_area = total_area / zone_count as f64;
        let zone_wake = AVX_REFERENCE_WAKE * zone_area;
        let zones = (0..zone_count)
            .map(|index| UfpgZone {
                index,
                chain: DaisyChain::new(cells_per_zone, zone_area, zone_wake),
            })
            .collect();
        Ufpg { zones, cell_switch_time: Nanos::new(1.0) }
    }

    /// The zones, in wake order.
    #[must_use]
    pub fn zones(&self) -> &[UfpgZone] {
        &self.zones
    }

    /// Total gated area relative to the AVX units.
    #[must_use]
    pub(crate) fn total_area(&self) -> f64 {
        self.zones.iter().map(|z| z.chain.area()).sum()
    }

    /// Simulates a wake under `policy`, returning latency and in-rush
    /// profile.
    #[must_use]
    pub fn wake(&self, policy: WakePolicy) -> WakeReport {
        let profile = match policy {
            WakePolicy::Staggered => {
                let mut t = Nanos::ZERO;
                let mut acc = CurrentProfile::empty();
                for z in &self.zones {
                    acc = acc.superpose(&z.chain.wake_profile(t));
                    t += z.chain.wake_time();
                }
                acc
            }
            WakePolicy::Simultaneous => {
                let mut acc = CurrentProfile::empty();
                for z in &self.zones {
                    acc = acc.superpose(&z.chain.wake_profile(Nanos::ZERO));
                }
                acc
            }
            WakePolicy::Instantaneous => {
                // All charge delivered over one cell switch time.
                let current = self.total_area() / self.cell_switch_time.as_nanos()
                    * AVX_REFERENCE_WAKE.as_nanos();
                CurrentProfile::from_segments(vec![(Nanos::ZERO, current)], self.cell_switch_time)
            }
        };
        WakeReport { policy, latency: profile.end(), profile }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skylake_design_point() {
        let u = Ufpg::skylake_c6a();
        assert_eq!(u.zones().len(), 5);
        assert!((u.total_area() - 4.5).abs() < 1e-12);
        let w = u.wake(WakePolicy::Staggered);
        // 5 zones × (0.9 × 15 ns) = 67.5 ns.
        assert!((w.latency.as_nanos() - 67.5).abs() < 1e-9);
        assert!(w.within_current_limit(1.0 + 1e-9));
    }

    #[test]
    fn staggered_peak_equals_single_zone_peak() {
        let u = Ufpg::skylake_c6a();
        let w = u.wake(WakePolicy::Staggered);
        let single = u.zones()[0].chain.wake_profile(Nanos::ZERO).peak();
        assert!((w.peak_current() - single).abs() < 1e-9);
    }

    #[test]
    fn simultaneous_multiplies_peak_by_zone_count() {
        let u = Ufpg::skylake_c6a();
        let st = u.wake(WakePolicy::Staggered);
        let si = u.wake(WakePolicy::Simultaneous);
        assert!((si.peak_current() / st.peak_current() - 5.0).abs() < 1e-9);
        // Simultaneous is faster: one zone's wake time.
        assert!(si.latency < st.latency);
    }

    #[test]
    fn instantaneous_is_catastrophic() {
        let u = Ufpg::skylake_c6a();
        let inst = u.wake(WakePolicy::Instantaneous);
        // 4.5 area over 1 ns vs 1.0 over 15 ns → 67.5× the reference peak.
        assert!(inst.peak_current() > 60.0);
        assert!(!inst.within_current_limit(5.0));
    }

    #[test]
    fn charge_conserved_across_policies() {
        let u = Ufpg::skylake_c6a();
        let a = u.wake(WakePolicy::Staggered).profile.charge();
        let b = u.wake(WakePolicy::Simultaneous).profile.charge();
        let c = u.wake(WakePolicy::Instantaneous).profile.charge();
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        assert!((a - c).abs() < 1e-6, "{a} vs {c}");
    }

    #[test]
    fn more_zones_longer_wake_same_peak() {
        // Zone-count ablation: peak stays ~1× AVX, latency stays ~67.5 ns
        // (total area / reference rate), independent of the split.
        for zones in [1usize, 2, 5, 10] {
            let u = Ufpg::with_zones(zones, UFPG_RELATIVE_AREA, 16);
            let w = u.wake(WakePolicy::Staggered);
            assert!((w.latency.as_nanos() - 67.5).abs() < 1e-9, "zones={zones}");
            assert!(w.within_current_limit(1.0 + 1e-9), "zones={zones}");
        }
    }

    #[test]
    fn fewer_zones_worse_granularity_for_simultaneous() {
        // With one zone, "simultaneous" degenerates to staggered.
        let u = Ufpg::with_zones(1, UFPG_RELATIVE_AREA, 16);
        let st = u.wake(WakePolicy::Staggered);
        let si = u.wake(WakePolicy::Simultaneous);
        assert_eq!(st.latency, si.latency);
        assert!((st.peak_current() - si.peak_current()).abs() < 1e-12);
    }
}
