//! Trace-driven and non-stationary arrival processes.
//!
//! Production request streams are not stationary Poisson: datacenters see
//! diurnal load swings (the low-utilization troughs are where AW saves
//! the most) and operators often want to replay captured arrival traces.
//! Both are supported here as [`Distribution`]s over inter-arrival gaps,
//! so they plug into [`WorkloadSpec`] unchanged.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

use aw_server::WorkloadSpec;
use aw_sim::{Distribution, LogNormal, SimRng};

/// Replays a fixed sequence of inter-arrival gaps, cycling when
/// exhausted.
///
/// Build it from captured arrival timestamps via
/// [`TraceGaps::from_arrival_times`] or from gaps directly. The replay
/// position is shared across clones (an `Arc`-style cursor), matching the
/// single open-loop source the simulator drives.
///
/// # Examples
///
/// ```
/// use aw_workloads::TraceGaps;
/// use aw_sim::{Distribution, SimRng};
///
/// let trace = TraceGaps::from_arrival_times(&[0.0, 100.0, 250.0, 700.0]).unwrap();
/// let mut rng = SimRng::seed(0);
/// assert_eq!(trace.sample(&mut rng), 100.0);
/// assert_eq!(trace.sample(&mut rng), 150.0);
/// assert_eq!(trace.sample(&mut rng), 450.0);
/// assert_eq!(trace.sample(&mut rng), 100.0); // cycles
/// ```
#[derive(Debug)]
pub struct TraceGaps {
    gaps: Vec<f64>,
    cursor: AtomicUsize,
}

impl TraceGaps {
    /// Creates a replay source from explicit gaps (nanoseconds).
    ///
    /// # Errors
    ///
    /// Returns `Err` if `gaps` is empty or contains a non-finite or
    /// negative value.
    pub fn from_gaps(gaps: Vec<f64>) -> Result<Self, TraceError> {
        if gaps.is_empty() {
            return Err(TraceError::Empty);
        }
        if let Some(&bad) = gaps.iter().find(|g| !g.is_finite() || **g < 0.0) {
            return Err(TraceError::InvalidGap(bad));
        }
        Ok(TraceGaps { gaps, cursor: AtomicUsize::new(0) })
    }

    /// Creates a replay source from absolute arrival timestamps
    /// (nanoseconds, non-decreasing).
    ///
    /// # Errors
    ///
    /// Returns `Err` if fewer than two timestamps are given or they are
    /// not non-decreasing.
    pub fn from_arrival_times(times: &[f64]) -> Result<Self, TraceError> {
        if times.len() < 2 {
            return Err(TraceError::Empty);
        }
        let mut gaps = Vec::with_capacity(times.len() - 1);
        for w in times.windows(2) {
            let gap = w[1] - w[0];
            if !gap.is_finite() || gap < 0.0 {
                return Err(TraceError::InvalidGap(gap));
            }
            gaps.push(gap);
        }
        TraceGaps::from_gaps(gaps)
    }

    /// Number of gaps in one replay cycle.
    #[must_use]
    pub fn len(&self) -> usize {
        self.gaps.len()
    }

    /// `true` if the trace is empty (unreachable by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gaps.is_empty()
    }
}

impl Distribution for TraceGaps {
    fn sample(&self, _rng: &mut SimRng) -> f64 {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) % self.gaps.len();
        self.gaps[i]
    }

    fn mean(&self) -> f64 {
        self.gaps.iter().sum::<f64>() / self.gaps.len() as f64
    }
}

/// Errors building a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceError {
    /// No gaps could be derived.
    Empty,
    /// A gap was negative or non-finite.
    InvalidGap(f64),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Empty => write!(f, "trace must contain at least one gap"),
            TraceError::InvalidGap(g) => write!(f, "invalid inter-arrival gap: {g}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A sinusoidally modulated Poisson process: the classic diurnal
/// datacenter load curve.
///
/// The instantaneous rate is
/// `rate(t) = base_qps × (1 + amplitude × sin(2πt / period))`, where `t`
/// advances with the gaps drawn so far. With `amplitude` near 1 the
/// troughs approach zero load — the regime where deep idle states pay.
///
/// # Examples
///
/// ```
/// use aw_workloads::diurnal_memcached;
///
/// // The sine integrates to zero, so the mean rate is the base rate.
/// let w = diurnal_memcached(100_000.0, 0.8, 1e9);
/// assert!((w.offered_qps() - 100_000.0).abs() < 1e-6);
/// ```
#[derive(Debug)]
pub(crate) struct DiurnalArrivals {
    base_qps: f64,
    amplitude: f64,
    period_ns: f64,
    clock: Mutex<f64>,
}

impl DiurnalArrivals {
    /// Creates a diurnal process with the given mean rate, relative
    /// `amplitude` in `[0, 1)`, and period in nanoseconds.
    ///
    /// # Errors
    ///
    /// Returns `Err` if `base_qps` or `period_ns` is not positive, or
    /// `amplitude` is outside `[0, 1)`.
    pub(crate) fn new(base_qps: f64, amplitude: f64, period_ns: f64) -> Result<Self, TraceError> {
        if !(base_qps > 0.0 && period_ns > 0.0) {
            return Err(TraceError::InvalidGap(-1.0));
        }
        if !(0.0..1.0).contains(&amplitude) {
            return Err(TraceError::InvalidGap(amplitude));
        }
        Ok(DiurnalArrivals { base_qps, amplitude, period_ns, clock: Mutex::new(0.0) })
    }

    fn rate_at(&self, t: f64) -> f64 {
        self.base_qps * (1.0 + self.amplitude * (std::f64::consts::TAU * t / self.period_ns).sin())
    }
}

impl Distribution for DiurnalArrivals {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let mut clock = self.clock.lock().expect("diurnal clock poisoned");
        let rate = self.rate_at(*clock).max(self.base_qps * 1e-3);
        let gap = -(1e9 / rate) * rng.uniform_open().ln();
        *clock += gap;
        gap
    }

    fn mean(&self) -> f64 {
        // Time-averaged rate is base_qps (the sine integrates to zero).
        1e9 / self.base_qps
    }
}

/// A Memcached-flavoured diurnal workload: ETC-style service times under
/// a sinusoidal load swinging ±`amplitude` around `base_qps` with the
/// given period.
///
/// # Panics
///
/// Panics if the parameters are out of range (see
/// `DiurnalArrivals::new`).
#[must_use]
pub fn diurnal_memcached(base_qps: f64, amplitude: f64, period_ns: f64) -> WorkloadSpec {
    let arrivals = DiurnalArrivals::new(base_qps, amplitude, period_ns)
        .expect("diurnal parameters out of range");
    WorkloadSpec::new(
        format!("memcached-diurnal-{:.0}k", base_qps / 1e3),
        Arc::new(arrivals),
        Arc::new(LogNormal::from_median(4_000.0, 0.4)),
        0.8,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_replays_and_cycles() {
        let t = TraceGaps::from_gaps(vec![10.0, 20.0]).unwrap();
        let mut rng = SimRng::seed(0);
        let xs: Vec<f64> = (0..5).map(|_| t.sample(&mut rng)).collect();
        assert_eq!(xs, vec![10.0, 20.0, 10.0, 20.0, 10.0]);
        assert_eq!(t.mean(), 15.0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn arrival_times_to_gaps() {
        let t = TraceGaps::from_arrival_times(&[5.0, 15.0, 40.0]).unwrap();
        let mut rng = SimRng::seed(0);
        assert_eq!(t.sample(&mut rng), 10.0);
        assert_eq!(t.sample(&mut rng), 25.0);
    }

    #[test]
    fn rejects_bad_traces() {
        assert!(matches!(TraceGaps::from_gaps(vec![]), Err(TraceError::Empty)));
        assert!(matches!(TraceGaps::from_gaps(vec![1.0, -2.0]), Err(TraceError::InvalidGap(_))));
        assert!(matches!(
            TraceGaps::from_arrival_times(&[10.0, 5.0]),
            Err(TraceError::InvalidGap(_))
        ));
        assert!(matches!(TraceGaps::from_arrival_times(&[1.0]), Err(TraceError::Empty)));
    }

    #[test]
    fn diurnal_rate_oscillates() {
        let d = DiurnalArrivals::new(1_000.0, 0.5, 1e9).unwrap();
        assert!((d.rate_at(0.0) - 1_000.0).abs() < 1e-9);
        assert!((d.rate_at(0.25e9) - 1_500.0).abs() < 1e-6); // peak
        assert!((d.rate_at(0.75e9) - 500.0).abs() < 1e-6); // trough
    }

    #[test]
    fn diurnal_mean_rate_matches_base() {
        let d = DiurnalArrivals::new(50_000.0, 0.8, 1e8).unwrap();
        let mut rng = SimRng::seed(7);
        let n = 50_000;
        let total: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let measured_qps = n as f64 / (total / 1e9);
        // Rate-modulated sampling biases slightly toward high-rate
        // phases; allow 15%.
        assert!((measured_qps - 50_000.0).abs() / 50_000.0 < 0.15, "measured {measured_qps}");
    }

    #[test]
    fn diurnal_rejects_bad_params() {
        assert!(DiurnalArrivals::new(0.0, 0.5, 1e9).is_err());
        assert!(DiurnalArrivals::new(1_000.0, 1.0, 1e9).is_err());
        assert!(DiurnalArrivals::new(1_000.0, 0.5, 0.0).is_err());
    }

    #[test]
    fn diurnal_workload_builds() {
        let w = diurnal_memcached(200_000.0, 0.7, 5e8);
        assert!(w.name().contains("diurnal"));
        assert!((w.offered_qps() - 200_000.0).abs() < 1.0);
    }
}
