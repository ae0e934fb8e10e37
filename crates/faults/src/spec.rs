//! The parseable, canonical fault-plan specification.

use std::fmt;

use aw_types::Nanos;

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
pub const DEFAULT_FAULT_SEED: u64 = 0x00AF_5EED;

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

/// A human-readable spec parse/validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(pub String);

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

pub(crate) fn parse_prob(key: &str, v: &str) -> Result<f64, FaultSpecError> {
    let p: f64 =
        v.parse().map_err(|_| FaultSpecError(format!("bad {key} value '{v}' (probability)")))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(FaultSpecError(format!("{key} must be a probability in [0, 1], got {v}")));
    }
    Ok(p)
}

/// Smallest non-zero fault event rate, per second: a rarer event fires
/// less than once in eleven simulated days, and far below it the
/// exponential gap between events overflows to an infinite event time.
const MIN_RATE: f64 = 1e-6;

/// Largest fault event rate, per second: one event per simulated
/// nanosecond. Far above it the gaps fall below the resolution of the
/// event clock, which then stops advancing, and the run never ends.
const MAX_RATE: f64 = 1e9;

/// Largest service-time stretch a fault may apply (`slow-factor`, and
/// `1 / throttle-factor` for a fleet): a thousandfold stretch already
/// stalls any modeled server, and far beyond it stretched service times
/// overflow to infinity.
pub(crate) const MAX_STRETCH: f64 = 1e3;

fn parse_rate(key: &str, v: &str) -> Result<f64, FaultSpecError> {
    let r: f64 = v.parse().map_err(|_| FaultSpecError(format!("bad {key} value '{v}' (rate)")))?;
    if r != 0.0 && !(MIN_RATE..=MAX_RATE).contains(&r) {
        return Err(FaultSpecError(format!(
            "{key} must be 0 or a rate in [{MIN_RATE:e}, {MAX_RATE:e}] per second, got {v}"
        )));
    }
    Ok(r)
}

fn parse_positive_ns(key: &str, v: &str) -> Result<Nanos, FaultSpecError> {
    let ns: f64 = v.parse().map_err(|_| FaultSpecError(format!("bad {key} value '{v}' (ns)")))?;
    if !ns.is_finite() || ns <= 0.0 {
        return Err(FaultSpecError(format!("{key} must be positive nanoseconds, got {v}")));
    }
    Ok(Nanos::new(ns))
}

impl FaultSpec {
    /// The empty plan: no faults are ever injected.
    #[must_use]
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// `true` if any fault category can fire.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.wake_fail > 0.0
            || self.relock > 0.0
            || self.drowsy > 0.0
            || self.lost_wake > 0.0
            || self.spurious_rate > 0.0
            || self.storm_rate > 0.0
            || self.slowdown_rate > 0.0
    }

    /// Parses a comma-separated `key=value` spec. The empty string and
    /// `"none"` parse to [`FaultSpec::none`]. Keys: `seed`, `wake-fail`,
    /// `wake-retries`, `relock`, `relock-ns`, `drowsy`, `lost-wake`,
    /// `lost-ns`, `spurious`, `storm`, `storm-size`, `slowdown`,
    /// `slow-factor`, `slow-ms`.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultSpecError`] naming the first malformed or
    /// out-of-range entry.
    pub fn parse(s: &str) -> Result<Self, FaultSpecError> {
        let mut spec = FaultSpec::default();
        let trimmed = s.trim();
        if trimmed.is_empty() || trimmed == "none" {
            return Ok(spec);
        }
        for pair in trimmed.split(',') {
            let pair = pair.trim();
            let Some((key, v)) = pair.split_once('=') else {
                return Err(FaultSpecError(format!("expected key=value, got '{pair}'")));
            };
            let (key, v) = (key.trim(), v.trim());
            match key {
                "seed" => {
                    spec.seed = v.parse().map_err(|_| FaultSpecError(format!("bad seed '{v}'")))?;
                }
                "wake-fail" => spec.wake_fail = parse_prob(key, v)?,
                "wake-retries" => {
                    let n: u32 =
                        v.parse().map_err(|_| FaultSpecError(format!("bad wake-retries '{v}'")))?;
                    if !(1..=8).contains(&n) {
                        return Err(FaultSpecError(format!(
                            "wake-retries must be in 1..=8, got {v}"
                        )));
                    }
                    spec.wake_retries = n;
                }
                "relock" => spec.relock = parse_prob(key, v)?,
                "relock-ns" => spec.relock_extra = parse_positive_ns(key, v)?,
                "drowsy" => spec.drowsy = parse_prob(key, v)?,
                "lost-wake" => spec.lost_wake = parse_prob(key, v)?,
                "lost-ns" => spec.lost_wake_delay = parse_positive_ns(key, v)?,
                "spurious" => spec.spurious_rate = parse_rate(key, v)?,
                "storm" => spec.storm_rate = parse_rate(key, v)?,
                "storm-size" => {
                    let n: u32 =
                        v.parse().map_err(|_| FaultSpecError(format!("bad storm-size '{v}'")))?;
                    if n == 0 {
                        return Err(FaultSpecError("storm-size must be positive".into()));
                    }
                    spec.storm_size = n;
                }
                "slowdown" => spec.slowdown_rate = parse_rate(key, v)?,
                "slow-factor" => {
                    let f: f64 =
                        v.parse().map_err(|_| FaultSpecError(format!("bad slow-factor '{v}'")))?;
                    if !(1.0..=MAX_STRETCH).contains(&f) {
                        return Err(FaultSpecError(format!(
                            "slow-factor must be in [1, {MAX_STRETCH:e}], got {v}"
                        )));
                    }
                    spec.slowdown_factor = f;
                }
                "slow-ms" => {
                    let ms: f64 =
                        v.parse().map_err(|_| FaultSpecError(format!("bad slow-ms '{v}'")))?;
                    let duration = Nanos::from_millis(ms);
                    if !duration.is_finite() || ms <= 0.0 {
                        return Err(FaultSpecError(format!(
                            "slow-ms must be positive milliseconds, finite in nanoseconds, got {v}"
                        )));
                    }
                    spec.slowdown_duration = duration;
                }
                other => return Err(FaultSpecError(format!("unknown fault key '{other}'"))),
            }
        }
        Ok(spec)
    }
}

impl fmt::Display for FaultSpec {
    /// The canonical `key=value` form: the seed first, then every field
    /// that differs from the default, in parse order. Guaranteed to
    /// re-parse to an equal spec.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = FaultSpec::default();
        write!(f, "seed={}", self.seed)?;
        if self.wake_fail != d.wake_fail {
            write!(f, ",wake-fail={}", self.wake_fail)?;
        }
        if self.wake_retries != d.wake_retries {
            write!(f, ",wake-retries={}", self.wake_retries)?;
        }
        if self.relock != d.relock {
            write!(f, ",relock={}", self.relock)?;
        }
        if self.relock_extra != d.relock_extra {
            write!(f, ",relock-ns={}", self.relock_extra.as_nanos())?;
        }
        if self.drowsy != d.drowsy {
            write!(f, ",drowsy={}", self.drowsy)?;
        }
        if self.lost_wake != d.lost_wake {
            write!(f, ",lost-wake={}", self.lost_wake)?;
        }
        if self.lost_wake_delay != d.lost_wake_delay {
            write!(f, ",lost-ns={}", self.lost_wake_delay.as_nanos())?;
        }
        if self.spurious_rate != d.spurious_rate {
            write!(f, ",spurious={}", self.spurious_rate)?;
        }
        if self.storm_rate != d.storm_rate {
            write!(f, ",storm={}", self.storm_rate)?;
        }
        if self.storm_size != d.storm_size {
            write!(f, ",storm-size={}", self.storm_size)?;
        }
        if self.slowdown_rate != d.slowdown_rate {
            write!(f, ",slowdown={}", self.slowdown_rate)?;
        }
        if self.slowdown_factor != d.slowdown_factor {
            write!(f, ",slow-factor={}", self.slowdown_factor)?;
        }
        if self.slowdown_duration != d.slowdown_duration {
            write!(f, ",slow-ms={}", self.slowdown_duration.as_millis())?;
        }
        Ok(())
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
