//! Power-gate switch cells and daisy-chained staggered wake-up (Fig. 2).
//!
//! A power-gated domain is fed through many switch cells. Turning them all
//! on at once would draw a damaging in-rush current spike, so the cells'
//! sleep signals are daisy-chained: each cell turns on a fixed delay after
//! its predecessor, spreading the charge current over the chain's wake
//! time. The Skylake AVX power gates stagger their wake over ~15 ns; that
//! is the calibration point for the current model here.

use aw_types::Nanos;

/// The AVX power-gate wake time used as the in-rush calibration reference:
/// Skylake staggers the AVX unit wake over ~15 ns (Sec. 3 / Sec. 5.3).
pub(crate) const AVX_REFERENCE_WAKE: Nanos = Nanos::new(15.0);

/// A piecewise-constant current-versus-time profile, in normalized units
/// where `1.0` equals the peak in-rush current of the reference AVX wake
/// (unit area woken over 15 ns).
///
/// # Examples
///
/// ```
/// use aw_pma::{CurrentProfile, DaisyChain};
/// use aw_types::Nanos;
///
/// let chain = DaisyChain::new(30, 1.0, Nanos::new(15.0));
/// let profile = chain.wake_profile(Nanos::ZERO);
/// // A unit-area chain woken over the AVX reference time peaks at ~1.0.
/// assert!((profile.peak() - 1.0).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CurrentProfile {
    /// `(start_time, current)` segments; each segment extends to the next
    /// segment's start, the last to `end`.
    segments: Vec<(Nanos, f64)>,
    end: Nanos,
}

impl CurrentProfile {
    /// An empty (zero-current) profile.
    #[must_use]
    pub(crate) fn empty() -> Self {
        CurrentProfile { segments: Vec::new(), end: Nanos::ZERO }
    }

    /// Builds a profile from `(start, current)` breakpoints ending at
    /// `end`.
    ///
    /// # Panics
    ///
    /// Panics if breakpoints are not time-ordered or extend past `end`.
    #[must_use]
    pub(crate) fn from_segments(segments: Vec<(Nanos, f64)>, end: Nanos) -> Self {
        for w in segments.windows(2) {
            assert!(w[0].0 <= w[1].0, "profile breakpoints must be ordered");
        }
        if let Some(last) = segments.last() {
            assert!(last.0 <= end, "profile extends past its end");
        }
        CurrentProfile { segments, end }
    }

    /// The current at time `t` (zero outside the profile).
    #[must_use]
    pub(crate) fn at(&self, t: Nanos) -> f64 {
        if t < Nanos::ZERO || t >= self.end {
            return 0.0;
        }
        let mut current = 0.0;
        for &(start, i) in &self.segments {
            if start <= t {
                current = i;
            } else {
                break;
            }
        }
        current
    }

    /// Peak current over the whole profile.
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.segments.iter().map(|&(_, i)| i).fold(0.0, f64::max)
    }

    /// Total charge delivered (∫ current dt), in normalized
    /// current × nanosecond units. Proportional to the woken area, so it
    /// is conserved across wake policies.
    #[must_use]
    pub fn charge(&self) -> f64 {
        let mut total = 0.0;
        for (idx, &(start, i)) in self.segments.iter().enumerate() {
            let seg_end = self.segments.get(idx + 1).map_or(self.end, |&(s, _)| s);
            total += i * (seg_end - start).as_nanos();
        }
        total
    }

    /// When the profile ends (the domain is fully conducting).
    #[must_use]
    pub(crate) fn end(&self) -> Nanos {
        self.end
    }

    /// Superimposes two profiles (currents add; useful for concurrent zone
    /// wakes).
    #[must_use]
    pub(crate) fn superpose(&self, other: &CurrentProfile) -> CurrentProfile {
        let end = self.end.max(other.end);
        let mut times: Vec<Nanos> = self
            .segments
            .iter()
            .chain(other.segments.iter())
            .map(|&(t, _)| t)
            // Where one profile ends its current drops to zero, which is a
            // breakpoint of the superposition too.
            .chain([self.end, other.end])
            .filter(|&t| t < end)
            .collect();
        times.sort_by(|a, b| a.as_nanos().total_cmp(&b.as_nanos()));
        times.dedup();
        let segments = times.into_iter().map(|t| (t, self.at(t) + other.at(t))).collect();
        CurrentProfile::from_segments(segments, end)
    }
}

/// A daisy chain of power-gate switch cells (Fig. 2).
///
/// The chain carries `cells` switch cells that together gate a domain of
/// relative area `area` (1.0 ≡ the AVX units). Asserting the wake signal
/// starts the first cell; each subsequent cell turns on after
/// `wake_time / cells`, and the `ready` acknowledgement returns when the
/// last cell conducts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DaisyChain {
    cells: u32,
    area: f64,
    wake_time: Nanos,
}

impl DaisyChain {
    /// Creates a chain of `cells` switch cells gating relative area
    /// `area`, staggered over `wake_time`.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is zero, `area` is not positive, or `wake_time`
    /// is not positive.
    #[must_use]
    pub fn new(cells: u32, area: f64, wake_time: Nanos) -> Self {
        assert!(cells > 0, "a chain needs at least one cell");
        assert!(area > 0.0 && area.is_finite(), "area must be positive");
        assert!(wake_time > Nanos::ZERO, "wake time must be positive");
        DaisyChain { cells, area, wake_time }
    }

    /// Relative gated area (1.0 ≡ AVX units).
    #[must_use]
    pub(crate) fn area(&self) -> f64 {
        self.area
    }

    /// Time from wake assertion to the `ready` acknowledgement.
    #[must_use]
    pub(crate) fn wake_time(&self) -> Nanos {
        self.wake_time
    }

    /// The in-rush current profile of waking this chain starting at
    /// `start`.
    ///
    /// While the chain wakes, charge `Q ∝ area` flows over `wake_time`,
    /// giving a flat current of `area / wake_time` (normalized so the AVX
    /// reference — unit area over 15 ns — peaks at 1.0).
    #[must_use]
    pub fn wake_profile(&self, start: Nanos) -> CurrentProfile {
        let current = self.area / self.wake_time.as_nanos() * AVX_REFERENCE_WAKE.as_nanos();
        CurrentProfile::from_segments(vec![(start, current)], start + self.wake_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_chain_peaks_at_one() {
        let chain = DaisyChain::new(15, 1.0, AVX_REFERENCE_WAKE);
        let p = chain.wake_profile(Nanos::ZERO);
        assert!((p.peak() - 1.0).abs() < 1e-12);
        assert_eq!(p.end(), AVX_REFERENCE_WAKE);
    }

    #[test]
    fn charge_proportional_to_area() {
        let a = DaisyChain::new(10, 1.0, Nanos::new(15.0)).wake_profile(Nanos::ZERO);
        let b = DaisyChain::new(10, 2.0, Nanos::new(30.0)).wake_profile(Nanos::ZERO);
        assert!((b.charge() / a.charge() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn faster_wake_higher_peak() {
        let slow = DaisyChain::new(10, 1.0, Nanos::new(15.0)).wake_profile(Nanos::ZERO);
        let fast = DaisyChain::new(10, 1.0, Nanos::new(1.0)).wake_profile(Nanos::ZERO);
        assert!(fast.peak() > slow.peak() * 10.0);
        // ...but the delivered charge is identical.
        assert!((fast.charge() - slow.charge()).abs() < 1e-9);
    }

    #[test]
    fn profile_lookup() {
        let p = CurrentProfile::from_segments(
            vec![(Nanos::new(0.0), 1.0), (Nanos::new(10.0), 2.0)],
            Nanos::new(20.0),
        );
        assert_eq!(p.at(Nanos::new(-1.0)), 0.0);
        assert_eq!(p.at(Nanos::new(5.0)), 1.0);
        assert_eq!(p.at(Nanos::new(15.0)), 2.0);
        assert_eq!(p.at(Nanos::new(20.0)), 0.0);
        assert_eq!(p.peak(), 2.0);
        assert!((p.charge() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn superposition_adds_currents() {
        let a = DaisyChain::new(5, 1.0, Nanos::new(10.0)).wake_profile(Nanos::ZERO);
        let b = DaisyChain::new(5, 1.0, Nanos::new(10.0)).wake_profile(Nanos::new(5.0));
        let s = a.superpose(&b);
        // Overlap region [5, 10) carries both currents.
        assert!(
            (s.at(Nanos::new(7.0)) - (a.at(Nanos::new(7.0)) + b.at(Nanos::new(7.0)))).abs() < 1e-12
        );
        assert!((s.charge() - (a.charge() + b.charge())).abs() < 1e-9);
        assert_eq!(s.end(), Nanos::new(15.0));
    }

    #[test]
    fn sequential_superposition_keeps_peak() {
        let a = DaisyChain::new(5, 1.0, Nanos::new(10.0)).wake_profile(Nanos::ZERO);
        let b = DaisyChain::new(5, 1.0, Nanos::new(10.0)).wake_profile(Nanos::new(10.0));
        let s = a.superpose(&b);
        assert!((s.peak() - a.peak()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn rejects_empty_chain() {
        let _ = DaisyChain::new(0, 1.0, Nanos::new(15.0));
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn rejects_unordered_segments() {
        let _ = CurrentProfile::from_segments(
            vec![(Nanos::new(10.0), 1.0), (Nanos::new(0.0), 2.0)],
            Nanos::new(20.0),
        );
    }
}
