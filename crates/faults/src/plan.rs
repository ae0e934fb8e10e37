//! The seeded [`FaultPlan`]: the engine's one source of fault draws.

use aw_sim::SimRng;
use aw_types::Nanos;

use crate::spec::FaultSpec;

/// Everything that went wrong (or not) during one agile wake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WakeDisruption {
    /// UFPG ungate attempts that stuck before one succeeded (or the
    /// retry budget ran out).
    pub stuck_attempts: u32,
    /// `true` if the retry budget ran out and the exit fell back to the
    /// full C6 restore path.
    pub fell_back: bool,
    /// `true` if the ADPLL relock overran its budget.
    pub relock_overrun: bool,
    /// `true` if the CCSM drowsy wake failed once and repeated.
    pub drowsy_retry: bool,
}

/// A seeded, fully deterministic realization of a [`FaultSpec`].
///
/// Every fault category draws from its own dedicated xoshiro stream
/// (seeded from `spec.seed` xor a per-category constant), so fault
/// draws never touch the engine's workload or retry RNG streams:
/// attaching a plan whose probabilities are all zero leaves the
/// simulated sample path bit-identical to a run without the plan
/// (common random numbers), and raising one category's rate does not
/// perturb the draws of another.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: FaultSpec,
    wake_rng: SimRng,
    relock_rng: SimRng,
    drowsy_rng: SimRng,
    lost_rng: SimRng,
    spurious_rng: SimRng,
    storm_rng: SimRng,
    slowdown_rng: SimRng,
}

/// Exponential inter-event gap for a per-second Poisson rate.
fn exp_gap(rng: &mut SimRng, rate_per_sec: f64) -> Option<Nanos> {
    if rate_per_sec <= 0.0 {
        return None;
    }
    Some(Nanos::from_secs(-rng.uniform_open().ln() / rate_per_sec))
}

impl FaultPlan {
    /// Realizes a spec into a deterministic plan.
    #[must_use]
    pub fn new(spec: FaultSpec) -> Self {
        let s = spec.seed;
        FaultPlan {
            spec,
            wake_rng: SimRng::seed(s ^ 0x5741_4B45_4641_494C), // "WAKEFAIL"
            relock_rng: SimRng::seed(s ^ 0x0052_454C_4F43_4B00), // "RELOCK"
            drowsy_rng: SimRng::seed(s ^ 0x0044_524F_5753_5900), // "DROWSY"
            lost_rng: SimRng::seed(s ^ 0x4C4F_5354_5741_4B45), // "LOSTWAKE"
            spurious_rng: SimRng::seed(s ^ 0x5350_5552_494F_5553), // "SPURIOUS"
            storm_rng: SimRng::seed(s ^ 0x0000_5354_4F52_4D00), // "STORM"
            slowdown_rng: SimRng::seed(s ^ 0x534C_4F57_444F_574E), // "SLOWDOWN"
        }
    }

    /// Parses a spec string (see [`FaultSpec::parse`]) into a plan.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`crate::FaultSpecError`].
    pub fn parse(s: &str) -> Result<Self, crate::FaultSpecError> {
        FaultSpec::parse(s).map(FaultPlan::new)
    }

    /// A plan that never injects anything.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::new(FaultSpec::none())
    }

    /// The spec this plan realizes (embedded in failure artifacts).
    #[must_use]
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Draws the disruption of one agile (C6A/C6AE) wake.
    pub fn wake_disruption(&mut self) -> WakeDisruption {
        let stuck = self.stuck_gate_attempts();
        WakeDisruption {
            stuck_attempts: stuck,
            fell_back: stuck >= self.spec.wake_retries,
            relock_overrun: self.relock_overrun(),
            drowsy_retry: self.drowsy_wake_failure(),
        }
    }

    /// How many UFPG ungate attempts stick on this wake (0 = clean),
    /// capped at the spec's retry budget.
    fn stuck_gate_attempts(&mut self) -> u32 {
        if self.spec.wake_fail <= 0.0 {
            return 0;
        }
        let mut attempts = 0;
        while attempts < self.spec.wake_retries && self.wake_rng.chance(self.spec.wake_fail) {
            attempts += 1;
        }
        attempts
    }

    /// `true` if the ADPLL relock overruns on this wake.
    fn relock_overrun(&mut self) -> bool {
        self.spec.relock > 0.0 && self.relock_rng.chance(self.spec.relock)
    }

    /// `true` if the CCSM drowsy wake fails once on this wake.
    fn drowsy_wake_failure(&mut self) -> bool {
        self.spec.drowsy > 0.0 && self.drowsy_rng.chance(self.spec.drowsy)
    }

    /// `Some(delay)` if this wake interrupt is lost and redelivered
    /// after `delay`.
    pub fn lost_wake(&mut self) -> Option<Nanos> {
        if self.spec.lost_wake > 0.0 && self.lost_rng.chance(self.spec.lost_wake) {
            Some(self.spec.lost_wake_delay)
        } else {
            None
        }
    }

    /// Gap to the next spurious wake on one core (`None` if disabled).
    pub fn spurious_gap(&mut self) -> Option<Nanos> {
        exp_gap(&mut self.spurious_rng, self.spec.spurious_rate)
    }

    /// Gap to the next snoop storm on one core (`None` if disabled).
    pub fn storm_gap(&mut self) -> Option<Nanos> {
        exp_gap(&mut self.storm_rng, self.spec.storm_rate)
    }

    /// Gap to the next slowdown burst (`None` if disabled).
    pub fn slowdown_gap(&mut self) -> Option<Nanos> {
        exp_gap(&mut self.slowdown_rng, self.spec.slowdown_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_spec_draws_nothing() {
        let mut plan = FaultPlan::none();
        for _ in 0..100 {
            assert_eq!(plan.wake_disruption(), WakeDisruption::default());
            assert_eq!(plan.lost_wake(), None);
            assert_eq!(plan.spurious_gap(), None);
            assert_eq!(plan.storm_gap(), None);
            assert_eq!(plan.slowdown_gap(), None);
        }
    }

    #[test]
    fn same_seed_same_draws() {
        let spec = FaultSpec::parse("seed=5,wake-fail=0.5,relock=0.3,spurious=1e5").unwrap();
        let mut a = FaultPlan::new(spec.clone());
        let mut b = FaultPlan::new(spec);
        for _ in 0..200 {
            assert_eq!(a.wake_disruption(), b.wake_disruption());
            assert_eq!(a.spurious_gap(), b.spurious_gap());
        }
    }

    #[test]
    fn certain_failure_exhausts_the_retry_budget() {
        let mut plan = FaultPlan::new(FaultSpec::parse("wake-fail=1,wake-retries=4").unwrap());
        let d = plan.wake_disruption();
        assert_eq!(d.stuck_attempts, 4);
        assert!(d.fell_back);
    }

    #[test]
    fn categories_draw_from_independent_streams() {
        // Enabling a second category must not change the first one's
        // draws: the streams are decorrelated by construction.
        let mut only_wake = FaultPlan::new(FaultSpec::parse("seed=2,wake-fail=0.4").unwrap());
        let mut both = FaultPlan::new(FaultSpec::parse("seed=2,wake-fail=0.4,storm=1e4").unwrap());
        for _ in 0..100 {
            let a = only_wake.wake_disruption();
            let _ = both.storm_gap();
            let b = both.wake_disruption();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn gaps_are_positive_and_rate_scaled() {
        let mut plan = FaultPlan::new(FaultSpec::parse("storm=1e6").unwrap());
        let mut total = Nanos::ZERO;
        for _ in 0..1000 {
            let gap = plan.storm_gap().unwrap();
            assert!(gap > Nanos::ZERO);
            total += gap;
        }
        let mean_us = total.as_micros() / 1000.0;
        // Rate 1e6/s => mean gap 1 us.
        assert!((0.8..1.2).contains(&mean_us), "mean gap {mean_us} us");
    }
}
