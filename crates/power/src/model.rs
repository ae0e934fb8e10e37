//! The analytical core-power models: Eqs. 1–4 of the paper.

use std::collections::BTreeMap;
use std::fmt;

use aw_cstates::{CState, CStateCatalog, FreqLevel};
use aw_types::{MilliWatts, Nanos, Ratio};

/// Per-C-state residency fractions `R_Ci` for one run, summing to ~1.
///
/// This is the quantity the paper reads from the processor's residency
/// counters and our server simulator reads from its `aw_sim`
/// `ResidencyTracker`.
///
/// # Examples
///
/// ```
/// use aw_power::ResidencyVector;
/// use aw_cstates::CState;
///
/// let r = ResidencyVector::from_percents([
///     (CState::C0, 25.0),
///     (CState::C1, 55.0),
///     (CState::C6, 20.0),
/// ]);
/// assert!(r.is_complete(1e-9));
/// assert!((r.get(CState::C1).as_percent() - 55.0).abs() < 1e-9);
/// assert_eq!(r.get(CState::C1E).as_percent(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResidencyVector {
    residencies: BTreeMap<CState, Ratio>,
}

impl ResidencyVector {
    /// Creates a vector from `(state, fraction)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is negative or the total exceeds 1 (plus a
    /// small tolerance).
    #[must_use]
    pub fn new(entries: impl IntoIterator<Item = (CState, Ratio)>) -> Self {
        let mut residencies = BTreeMap::new();
        for (state, r) in entries {
            assert!(r.get() >= -1e-12, "residency must be non-negative");
            *residencies.entry(state).or_insert(Ratio::ZERO) += r;
        }
        let total: f64 = residencies.values().map(|r| r.get()).sum();
        assert!(total <= 1.0 + 1e-9, "residencies sum to {total} > 1");
        ResidencyVector { residencies }
    }

    /// Creates a vector from `(state, percent)` pairs.
    #[must_use]
    pub fn from_percents(entries: impl IntoIterator<Item = (CState, f64)>) -> Self {
        ResidencyVector::new(entries.into_iter().map(|(s, pct)| (s, Ratio::from_percent(pct))))
    }

    /// Residency of `state` (zero if absent).
    #[must_use]
    pub fn get(&self, state: CState) -> Ratio {
        self.residencies.get(&state).copied().unwrap_or(Ratio::ZERO)
    }

    /// Total residency across all states.
    #[must_use]
    pub fn total(&self) -> Ratio {
        self.residencies.values().copied().sum()
    }

    /// `true` if the residencies account for all time (sum ≈ 1).
    #[must_use]
    pub fn is_complete(&self, eps: f64) -> bool {
        (self.total().get() - 1.0).abs() <= eps
    }

    /// Iterates over `(state, residency)` pairs in state order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (CState, Ratio)> + '_ {
        self.residencies.iter().map(|(&s, &r)| (s, r))
    }

    /// Returns a copy with `state`'s residency replaced.
    #[must_use]
    pub fn with(&self, state: CState, r: Ratio) -> ResidencyVector {
        let mut out = self.clone();
        if r == Ratio::ZERO {
            out.residencies.remove(&state);
        } else {
            out.residencies.insert(state, r);
        }
        out
    }
}

impl fmt::Display for ResidencyVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (s, r) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{s}={r}")?;
            first = false;
        }
        Ok(())
    }
}

/// Eq. 2 / Eq. 3: average core power `AvgP = Σ P_Ci × R_Ci`.
///
/// Each state contributes at its own pinned frequency level (C1E/C6AE at
/// Pn); C0 and the remaining states use `level`.
///
/// # Examples
///
/// ```
/// use aw_cstates::{CState, CStateCatalog, FreqLevel};
/// use aw_power::{average_power, ResidencyVector};
///
/// let catalog = aw_hw::HardwareModel::skylake_sp().catalog();
/// let r = ResidencyVector::from_percents([
///     (CState::C0, 20.0),
///     (CState::C1, 80.0),
/// ]);
/// let p = average_power(&r, &catalog, FreqLevel::P1);
/// // 0.2×4 W + 0.8×1.44 W = 1.952 W
/// assert!((p.as_watts() - 1.952).abs() < 1e-9);
/// ```
#[must_use]
pub fn average_power(
    residencies: &ResidencyVector,
    catalog: &CStateCatalog,
    level: FreqLevel,
) -> MilliWatts {
    residencies.iter().map(|(state, r)| catalog.power(state, level) * r).sum()
}

/// Eq. 1: the Sec. 2 upper bound on savings from an ideal deep idle state
/// with C1's latency and C6's power — all C1 residency is re-priced at C6
/// power.
///
/// Returns the fractional reduction of baseline average power, priced
/// with the Skylake-SP hardware model's legacy menu. For other parts use
/// `motivation_savings_in` with that model's base catalog.
#[must_use]
pub fn motivation_savings(residencies: &ResidencyVector) -> Ratio {
    motivation_savings_in(residencies, &aw_hw::HardwareModel::skylake_sp().base_catalog())
}

/// Eq. 1 priced with an explicit legacy C-state catalog, so the upper
/// bound can be computed for any registered hardware model.
#[must_use]
pub(crate) fn motivation_savings_in(
    residencies: &ResidencyVector,
    catalog: &CStateCatalog,
) -> Ratio {
    let baseline = average_power(residencies, catalog, FreqLevel::P1);
    if baseline <= MilliWatts::ZERO {
        return Ratio::ZERO;
    }
    let saved = (catalog.power(CState::C1, FreqLevel::P1)
        - catalog.power(CState::C6, FreqLevel::P1))
        * residencies.get(CState::C1);
    Ratio::new(saved / baseline)
}

/// Eq. 4: AW savings for Turbo-enabled runs, where `AvgP_baseline` is the
/// *measured* (RAPL) average power so Turbo's C0 power variation is
/// captured.
///
/// `savings = R_C1 (P_C1 − P_C6A) + R_C1E (P_C1E − P_C6AE)`, as a fraction
/// of `measured_baseline`.
#[must_use]
pub fn turbo_savings(
    residencies: &ResidencyVector,
    catalog: &CStateCatalog,
    measured_baseline: MilliWatts,
) -> Ratio {
    if measured_baseline <= MilliWatts::ZERO {
        return Ratio::ZERO;
    }
    let level = FreqLevel::P1;
    let saved = (catalog.power(CState::C1, level) - catalog.power(CState::C6A, level))
        * residencies.get(CState::C1)
        + (catalog.power(CState::C1E, level) - catalog.power(CState::C6AE, level))
            * residencies.get(CState::C1E);
    Ratio::new(saved.clamp_non_negative() / measured_baseline)
}

/// The Sec. 6.2 AW power model: transforms measured baseline residencies
/// into AW residencies and computes Eq. 3.
///
/// Three effects are modeled:
///
/// 1. C1 residency becomes C6A residency; C1E becomes C6AE.
/// 2. The ~1% frequency loss from the added power gates stretches busy
///    time by `frequency_scalability × 1%` (a workload at scalability 1.0
///    loses the full 1%; memory-bound workloads lose less).
/// 3. Each C-state transition costs ~100 ns more than C1's hardware
///    transition, converting a sliver of idle time into transition time
///    (accounted as C0).
///
/// # Examples
///
/// ```
/// use aw_cstates::{CState, CStateCatalog, FreqLevel};
/// use aw_power::{average_power, AwTransform, ResidencyVector};
///
/// let catalog = aw_hw::HardwareModel::skylake_sp().catalog();
/// let baseline = ResidencyVector::from_percents([
///     (CState::C0, 20.0),
///     (CState::C1, 80.0),
/// ]);
/// let aw = AwTransform::new(0.8, 1_000.0).apply(&baseline);
///
/// // All C1 time moved to C6A (minus the small overheads):
/// assert_eq!(aw.get(CState::C1).get(), 0.0);
/// assert!(aw.get(CState::C6A).as_percent() > 79.0);
///
/// // And the power drops accordingly:
/// let p0 = average_power(&baseline, &catalog, FreqLevel::P1);
/// let p1 = average_power(&aw, &catalog, FreqLevel::P1);
/// assert!(p1 < p0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AwTransform {
    /// Workload frequency scalability: fractional performance change per
    /// fractional frequency change (Sec. 6.2, footnote 8). 0 = fully
    /// memory-bound, 1 = fully compute-bound.
    pub frequency_scalability: f64,
    /// C-state transitions per second observed in the baseline run.
    pub transitions_per_second: f64,
    /// Frequency degradation from the UFPG power gates (default 1%).
    pub frequency_degradation: Ratio,
    /// Extra transition latency of C6A/C6AE over C1/C1E (default 100 ns).
    pub extra_transition_latency: Nanos,
}

impl AwTransform {
    /// Creates a transform for a workload with the given
    /// `frequency_scalability` and baseline `transitions_per_second`,
    /// using the paper's default 1% frequency loss and 100 ns extra
    /// transition latency.
    ///
    /// # Panics
    ///
    /// Panics if `frequency_scalability` is outside `[0, 1]` or
    /// `transitions_per_second` is negative.
    #[must_use]
    pub fn new(frequency_scalability: f64, transitions_per_second: f64) -> Self {
        assert!((0.0..=1.0).contains(&frequency_scalability), "scalability must be in [0, 1]");
        assert!(transitions_per_second >= 0.0, "transition rate must be non-negative");
        AwTransform {
            frequency_scalability,
            transitions_per_second,
            frequency_degradation: Ratio::new(0.01),
            extra_transition_latency: Nanos::new(100.0),
        }
    }

    /// The fractional growth of busy (C0) time under AW: frequency-loss
    /// stretch plus per-transition overhead.
    #[must_use]
    pub(crate) fn busy_stretch(&self, baseline: &ResidencyVector) -> f64 {
        let freq_stretch = self.frequency_scalability * self.frequency_degradation.get();
        let transition_fraction =
            self.transitions_per_second * self.extra_transition_latency.as_secs();
        baseline.get(CState::C0).get() * freq_stretch + transition_fraction
    }

    /// Applies the Sec. 6.2 transformation: C1→C6A, C1E→C6AE, with busy
    /// time stretched at the idle states' expense (proportionally).
    #[must_use]
    pub fn apply(&self, baseline: &ResidencyVector) -> ResidencyVector {
        let stretch = self.busy_stretch(baseline);
        let c0 = Ratio::new((baseline.get(CState::C0).get() + stretch).min(1.0));

        // Idle states shrink proportionally to absorb the stretch.
        let idle_total: f64 = CState::IDLE.iter().map(|&s| baseline.get(s).get()).sum();
        let idle_scale =
            if idle_total > 0.0 { ((idle_total - stretch) / idle_total).max(0.0) } else { 1.0 };

        let mut entries: Vec<(CState, Ratio)> = vec![(CState::C0, c0)];
        for state in CState::IDLE {
            let r = baseline.get(state) * idle_scale;
            if r == Ratio::ZERO {
                continue;
            }
            let target = state.agile_replacement().unwrap_or(state);
            entries.push((target, r));
        }
        ResidencyVector::new(entries)
    }

    /// Eq. 3 end to end: the AW average power for a measured baseline.
    #[must_use]
    pub fn average_power(
        &self,
        baseline: &ResidencyVector,
        catalog: &CStateCatalog,
        level: FreqLevel,
    ) -> MilliWatts {
        average_power(&self.apply(baseline), catalog, level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> CStateCatalog {
        aw_hw::HardwareModel::skylake_sp().catalog()
    }

    #[test]
    fn motivation_matches_paper_examples() {
        // Search at 50% load: 23%; search at 25%: 41%; KV at 20%: 55%.
        let search_50 = ResidencyVector::from_percents([
            (CState::C0, 50.0),
            (CState::C1, 45.0),
            (CState::C6, 5.0),
        ]);
        let search_25 = ResidencyVector::from_percents([
            (CState::C0, 25.0),
            (CState::C1, 55.0),
            (CState::C6, 20.0),
        ]);
        let kv_20 = ResidencyVector::from_percents([(CState::C0, 20.0), (CState::C1, 80.0)]);
        let s50 = motivation_savings(&search_50).as_percent();
        let s25 = motivation_savings(&search_25).as_percent();
        let s20 = motivation_savings(&kv_20).as_percent();
        assert!((22.0..25.0).contains(&s50), "{s50}");
        assert!((39.0..43.0).contains(&s25), "{s25}");
        assert!((54.0..57.0).contains(&s20), "{s20}");
    }

    #[test]
    fn lighter_load_higher_savings() {
        let mut prev = 0.0;
        for c0 in [60.0, 40.0, 20.0, 10.0] {
            let r = ResidencyVector::from_percents([(CState::C0, c0), (CState::C1, 100.0 - c0)]);
            let s = motivation_savings(&r).as_percent();
            assert!(s > prev, "c0={c0}: {s} <= {prev}");
            prev = s;
        }
    }

    #[test]
    fn average_power_eq2() {
        let r = ResidencyVector::from_percents([
            (CState::C0, 50.0),
            (CState::C1, 30.0),
            (CState::C1E, 10.0),
            (CState::C6, 10.0),
        ]);
        let p = average_power(&r, &catalog(), FreqLevel::P1);
        let expect = 0.5 * 4000.0 + 0.3 * 1440.0 + 0.1 * 880.0 + 0.1 * 100.0;
        assert!((p.as_milliwatts() - expect).abs() < 1e-9);
    }

    #[test]
    fn transform_replaces_states() {
        let baseline = ResidencyVector::from_percents([
            (CState::C0, 30.0),
            (CState::C1, 50.0),
            (CState::C1E, 15.0),
            (CState::C6, 5.0),
        ]);
        let aw = AwTransform::new(0.5, 0.0).apply(&baseline);
        assert_eq!(aw.get(CState::C1), Ratio::ZERO);
        assert_eq!(aw.get(CState::C1E), Ratio::ZERO);
        assert!(aw.get(CState::C6A).as_percent() > 49.0);
        assert!(aw.get(CState::C6AE).as_percent() > 14.0);
        // C6 residency survives untouched (minus the proportional shave).
        assert!(aw.get(CState::C6).as_percent() > 4.8);
        assert!(aw.is_complete(1e-9));
    }

    #[test]
    fn transform_conserves_total_residency() {
        let baseline = ResidencyVector::from_percents([(CState::C0, 20.0), (CState::C1, 80.0)]);
        for (scal, rate) in [(0.0, 0.0), (0.5, 10_000.0), (1.0, 100_000.0)] {
            let aw = AwTransform::new(scal, rate).apply(&baseline);
            assert!(aw.is_complete(1e-9), "scal={scal} rate={rate}: {}", aw.total());
        }
    }

    #[test]
    fn higher_transition_rate_more_busy_time() {
        let baseline = ResidencyVector::from_percents([(CState::C0, 20.0), (CState::C1, 80.0)]);
        let low = AwTransform::new(0.5, 1_000.0).apply(&baseline);
        let high = AwTransform::new(0.5, 500_000.0).apply(&baseline);
        assert!(high.get(CState::C0) > low.get(CState::C0));
        assert!(high.get(CState::C6A) < low.get(CState::C6A));
    }

    #[test]
    fn memcached_like_savings_at_low_load() {
        // Fig. 8(b) shape: low load (mostly C1) → ~35–40% power savings.
        let baseline = ResidencyVector::from_percents([
            (CState::C0, 25.0),
            (CState::C1, 60.0),
            (CState::C1E, 15.0),
        ]);
        let cat = catalog();
        let t = AwTransform::new(0.8, 50_000.0);
        let p0 = average_power(&baseline, &cat, FreqLevel::P1);
        let p1 = t.average_power(&baseline, &cat, FreqLevel::P1);
        let savings = (1.0 - p1 / p0) * 100.0;
        assert!((30.0..45.0).contains(&savings), "savings {savings}%");
    }

    #[test]
    fn high_load_smaller_savings() {
        let cat = catalog();
        let t = AwTransform::new(0.8, 100_000.0);
        let low_load = ResidencyVector::from_percents([(CState::C0, 20.0), (CState::C1, 80.0)]);
        let high_load = ResidencyVector::from_percents([(CState::C0, 80.0), (CState::C1, 20.0)]);
        let s = |r: &ResidencyVector| {
            1.0 - t.average_power(r, &cat, FreqLevel::P1) / average_power(r, &cat, FreqLevel::P1)
        };
        assert!(s(&low_load) > 2.0 * s(&high_load));
    }

    #[test]
    fn turbo_savings_eq4() {
        let cat = catalog();
        let r = ResidencyVector::from_percents([
            (CState::C0, 20.0),
            (CState::C1, 70.0),
            (CState::C1E, 10.0),
        ]);
        // Measured baseline with Turbo spikes: say 2.1 W.
        let s = turbo_savings(&r, &cat, MilliWatts::from_watts(2.1));
        // saved = 0.7×(1440−302.5) + 0.1×(880−235) = 796.25 + 64.5 ≈ 861 mW
        assert!((s.as_percent() - 41.0).abs() < 1.5, "{}", s.as_percent());
    }

    #[test]
    fn turbo_savings_zero_baseline_is_zero() {
        let cat = catalog();
        let r = ResidencyVector::from_percents([(CState::C1, 100.0)]);
        assert_eq!(turbo_savings(&r, &cat, MilliWatts::ZERO), Ratio::ZERO);
    }

    #[test]
    #[should_panic(expected = "sum")]
    fn vector_rejects_oversum() {
        let _ = ResidencyVector::from_percents([(CState::C0, 70.0), (CState::C1, 70.0)]);
    }

    #[test]
    fn vector_accumulates_duplicates() {
        let v = ResidencyVector::from_percents([(CState::C1, 30.0), (CState::C1, 20.0)]);
        assert_eq!(v.get(CState::C1).as_percent(), 50.0);
    }

    #[test]
    fn with_replaces_and_removes() {
        let v = ResidencyVector::from_percents([(CState::C0, 50.0), (CState::C1, 50.0)]);
        let v2 = v.with(CState::C1, Ratio::ZERO).with(CState::C6, Ratio::new(0.5));
        assert_eq!(v2.get(CState::C1), Ratio::ZERO);
        assert_eq!(v2.get(CState::C6).as_percent(), 50.0);
    }
}
