//! The parseable, canonical fault-plan specification.

use aw_types::Nanos;

use crate::keys::{
    key_table, Count, Factor, Millis, PositiveNs, Probability, Rate, Seed, MAX_STRETCH,
};

/// Everything a deterministic fault plan needs: a seed for the fault
/// RNG streams plus per-category probabilities, rates, and magnitudes.
///
/// A spec round-trips through its `Display` form (`key=value` pairs,
/// comma-separated), which is what failure artifacts embed so a chaotic
/// run can be replayed exactly:
///
/// ```
/// use aw_faults::FaultSpec;
///
/// let spec = FaultSpec::parse("seed=7,wake-fail=0.25,storm=1e4").unwrap();
/// assert_eq!(FaultSpec::parse(&spec.to_string()).unwrap(), spec);
/// assert!(spec.is_active());
/// assert!(!FaultSpec::none().is_active());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed of the fault RNG streams (independent of the workload seed).
    pub seed: u64,
    /// Probability that one UFPG ungate attempt sticks during an agile
    /// (C6A/C6AE) wake. Attempts are independent; after
    /// [`FaultSpec::wake_retries`] consecutive stuck attempts the exit
    /// falls back to the full C6 restore path.
    pub wake_fail: f64,
    /// Bounded retry budget for stuck-gate wakes (1..=8).
    pub wake_retries: u32,
    /// Probability that the ADPLL relock overruns its budget on an agile
    /// wake, adding [`FaultSpec::relock_extra`].
    pub relock: f64,
    /// Extra exit latency of one relock overrun.
    pub relock_extra: Nanos,
    /// Probability that the CCSM drowsy-wake (sleep-mode exit) fails once
    /// and must repeat the cache-wake step.
    pub drowsy: f64,
    /// Probability that a wake interrupt to an idle core is lost and only
    /// redelivered after [`FaultSpec::lost_wake_delay`].
    pub lost_wake: f64,
    /// Redelivery delay of a lost wake interrupt.
    pub lost_wake_delay: Nanos,
    /// Poisson rate (per core per second) of spurious wake interrupts
    /// that find no work and cost an idle round trip.
    pub spurious_rate: f64,
    /// Poisson rate (per core per second) of snoop storms: bursts of
    /// [`FaultSpec::storm_size`] coherence snoops hitting an idle core.
    pub storm_rate: f64,
    /// Snoops per storm burst.
    pub storm_size: u32,
    /// Poisson rate (per second, server-wide) of service-time slowdown
    /// bursts during which every service stretches by
    /// [`FaultSpec::slowdown_factor`].
    pub slowdown_rate: f64,
    /// Service-time multiplier while a slowdown burst is live (>= 1).
    pub slowdown_factor: f64,
    /// Duration of one slowdown burst.
    pub slowdown_duration: Nanos,
}

/// Default seed of the fault streams when a spec does not pin one.
pub(crate) const DEFAULT_FAULT_SEED: u64 = 0x00AF_5EED;

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: DEFAULT_FAULT_SEED,
            wake_fail: 0.0,
            wake_retries: 3,
            relock: 0.0,
            relock_extra: Nanos::from_micros(2.0),
            drowsy: 0.0,
            lost_wake: 0.0,
            lost_wake_delay: Nanos::from_micros(10.0),
            spurious_rate: 0.0,
            storm_rate: 0.0,
            storm_size: 64,
            slowdown_rate: 0.0,
            slowdown_factor: 3.0,
            slowdown_duration: Nanos::from_millis(2.0),
        }
    }
}

key_table!(FaultSpec, "fault" {
    "seed" => seed: Seed,
    "wake-fail" => wake_fail: Probability,
    "wake-retries" => wake_retries: Count { max: Some(8) },
    "relock" => relock: Probability,
    "relock-ns" => relock_extra: PositiveNs,
    "drowsy" => drowsy: Probability,
    "lost-wake" => lost_wake: Probability,
    "lost-ns" => lost_wake_delay: PositiveNs,
    "spurious" => spurious_rate: Rate,
    "storm" => storm_rate: Rate,
    "storm-size" => storm_size: Count { max: None },
    "slowdown" => slowdown_rate: Rate,
    "slow-factor" => slowdown_factor: Factor { lo: 1.0, hi: MAX_STRETCH },
    "slow-ms" => slowdown_duration: Millis,
});

impl FaultSpec {
    /// The empty plan: no faults are ever injected.
    #[must_use]
    pub fn none() -> Self {
        FaultSpec::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_none_parse_to_inactive() {
        assert_eq!(FaultSpec::parse("").unwrap(), FaultSpec::none());
        assert_eq!(FaultSpec::parse("none").unwrap(), FaultSpec::none());
        assert!(!FaultSpec::none().is_active());
    }

    #[test]
    fn full_spec_parses() {
        let s = FaultSpec::parse(
            "seed=9,wake-fail=0.5,wake-retries=2,relock=0.1,relock-ns=500,drowsy=0.2,\
             lost-wake=0.05,lost-ns=2000,spurious=100,storm=50,storm-size=16,\
             slowdown=10,slow-factor=4,slow-ms=1.5",
        )
        .unwrap();
        assert_eq!(s.seed, 9);
        assert_eq!(s.wake_fail, 0.5);
        assert_eq!(s.wake_retries, 2);
        assert_eq!(s.relock_extra, Nanos::new(500.0));
        assert_eq!(s.lost_wake_delay, Nanos::from_micros(2.0));
        assert_eq!(s.storm_size, 16);
        assert_eq!(s.slowdown_duration, Nanos::from_millis(1.5));
        assert!(s.is_active());
    }

    #[test]
    fn display_round_trips() {
        for text in [
            "",
            "seed=3",
            "wake-fail=0.25",
            "seed=1,wake-fail=1,wake-retries=1,relock=0.5,relock-ns=100,drowsy=1,\
             lost-wake=0.9,lost-ns=50,spurious=1e6,storm=2e4,storm-size=2,\
             slowdown=100,slow-factor=10,slow-ms=0.5",
        ] {
            let spec = FaultSpec::parse(text).unwrap();
            assert_eq!(FaultSpec::parse(&spec.to_string()).unwrap(), spec, "{text}");
        }
    }

    #[test]
    fn rejects_bad_values() {
        assert!(FaultSpec::parse("wake-fail=1.5").is_err());
        assert!(FaultSpec::parse("wake-fail=-0.1").is_err());
        assert!(FaultSpec::parse("wake-retries=0").is_err());
        assert!(FaultSpec::parse("wake-retries=9").is_err());
        assert!(FaultSpec::parse("spurious=-1").is_err());
        assert!(FaultSpec::parse("spurious=inf").is_err());
        assert!(FaultSpec::parse("storm-size=0").is_err());
        assert!(FaultSpec::parse("slow-factor=0.5").is_err());
        assert!(FaultSpec::parse("slow-ms=0").is_err());
        assert!(FaultSpec::parse("lost-ns=-3").is_err());
        assert!(FaultSpec::parse("frobnicate=1").is_err());
        assert!(FaultSpec::parse("wake-fail").is_err());
    }

    /// Values that made a run panic (an event gap or a stretched service
    /// time overflowing to infinity) or hang (gaps below the event
    /// clock's resolution) are parse errors; the bounds themselves parse.
    #[test]
    fn rejects_values_that_break_a_run() {
        let rate = |key: &str, v: &str| {
            format!("{key} must be 0 or a rate in [1e-6, 1e9] per second, got {v}")
        };
        for (text, msg) in [
            ("storm=1e-300", rate("storm", "1e-300")),
            ("storm=1e300", rate("storm", "1e300")),
            ("spurious=5e-7", rate("spurious", "5e-7")),
            ("slowdown=2e9", rate("slowdown", "2e9")),
            ("slowdown=NaN", rate("slowdown", "NaN")),
            (
                "slow-factor=1.7e308,slowdown=1000",
                "slow-factor must be in [1, 1e3], got 1.7e308".to_string(),
            ),
            (
                "slow-ms=1e308,slowdown=1000",
                "slow-ms must be positive milliseconds, finite in nanoseconds, got 1e308"
                    .to_string(),
            ),
        ] {
            assert_eq!(FaultSpec::parse(text).unwrap_err().0, msg, "{text}");
        }
        let edge = FaultSpec::parse("storm=1e-6,spurious=1e9,slowdown=0,slow-factor=1e3").unwrap();
        assert_eq!((edge.storm_rate, edge.spurious_rate), (1e-6, 1e9));
        assert_eq!(edge.slowdown_factor, 1e3);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let s = FaultSpec::parse(" wake-fail = 0.5 , storm = 10 ").unwrap();
        assert_eq!(s.wake_fail, 0.5);
        assert_eq!(s.storm_rate, 10.0);
    }
}
