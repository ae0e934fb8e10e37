//! The metrics registry: named counters, time-weighted gauges, and
//! log-scaled histograms.
//!
//! All keys are strings and all collections are `BTreeMap`s so exports
//! enumerate in a stable order. The histogram keeps an exact mean and max
//! alongside its log₂ buckets.

use std::collections::BTreeMap;

use aw_types::Nanos;

/// A gauge whose mean is weighted by how long each value was held.
///
/// Each set closes the interval since the previous set at the old value
/// and starts a new one; the mean is then the integral of the value over
/// time divided by the elapsed time. The high-water mark tracks the
/// largest value ever set.
///
/// # Examples
///
/// ```
/// use aw_telemetry::MetricsRegistry;
/// use aw_types::Nanos;
///
/// let mut r = MetricsRegistry::default();
/// r.gauge_set("depth", Nanos::new(0.0), 2.0);
/// r.gauge_set("depth", Nanos::new(10.0), 6.0); // value 2 held for 10 ns
/// r.finish_gauges(Nanos::new(20.0));           // value 6 held for 10 ns
/// let gauge = r.gauge("depth").expect("set above");
/// assert_eq!(gauge.high_water_mark(), 6.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TimeWeightedGauge {
    last_value: f64,
    last_time: Option<Nanos>,
    weighted_sum: f64,
    elapsed: Nanos,
    hwm: f64,
}

impl TimeWeightedGauge {
    /// Creates an empty gauge.
    #[must_use]
    pub(crate) fn new() -> Self {
        TimeWeightedGauge {
            last_value: 0.0,
            last_time: None,
            weighted_sum: 0.0,
            elapsed: Nanos::ZERO,
            hwm: f64::NEG_INFINITY,
        }
    }

    /// Sets the gauge to `value` at time `now`, closing the interval the
    /// previous value was held for. Out-of-order times are clamped: a
    /// `now` before the previous set contributes zero weight.
    pub(crate) fn set(&mut self, now: Nanos, value: f64) {
        if let Some(prev) = self.last_time {
            let dt = (now - prev).clamp_non_negative();
            self.weighted_sum += self.last_value * dt.as_nanos();
            self.elapsed += dt;
        }
        self.last_time = Some(now);
        self.last_value = value;
        self.hwm = self.hwm.max(value);
    }

    /// Closes the final interval at `now` without changing the value.
    pub(crate) fn finish(&mut self, now: Nanos) {
        let value = self.last_value;
        self.set(now, value);
    }

    /// The time-weighted mean, or 0 if no time has elapsed.
    #[must_use]
    pub(crate) fn mean(&self) -> f64 {
        if self.elapsed > Nanos::ZERO {
            self.weighted_sum / self.elapsed.as_nanos()
        } else {
            0.0
        }
    }

    /// The largest value ever set, or 0 if never set.
    #[must_use]
    pub fn high_water_mark(&self) -> f64 {
        if self.hwm.is_finite() {
            self.hwm
        } else {
            0.0
        }
    }

    /// The most recently set value.
    #[must_use]
    pub(crate) fn last(&self) -> f64 {
        self.last_value
    }
}

impl Default for TimeWeightedGauge {
    fn default() -> Self {
        TimeWeightedGauge::new()
    }
}

/// A histogram with logarithmic (powers-of-two) buckets over `[0, ∞)`.
///
/// Bucket 0 holds values in `[0, 1)`; bucket *i* ≥ 1 holds
/// `[2^(i−1), 2^i)`. Durations in the simulator span nanoseconds to
/// milliseconds — six decades — which fixed-width buckets cannot cover,
/// so the telemetry histograms are log-scaled. The exact mean and max are
/// kept alongside the buckets.
///
/// # Examples
///
/// ```
/// use aw_telemetry::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// h.record(0.5);
/// h.record(3.0);
/// h.record(1000.0);
/// assert_eq!(h.count(), 3);
/// assert_eq!(LogHistogram::bucket_index(3.0), 2); // [2, 4)
/// assert_eq!(h.bucket_bounds(2), (2.0, 4.0));
/// assert!(h.quantile_upper_bound(0.5) >= 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    /// Valid observations.
    count: u64,
    /// Running mean of the valid observations.
    mean: f64,
    /// Largest valid observation (−∞ while empty).
    max: f64,
    negatives: u64,
}

impl LogHistogram {
    /// Maximum number of buckets (covers all of f64's useful range).
    pub const MAX_BUCKETS: usize = 64;

    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LogHistogram {
            buckets: Vec::new(),
            count: 0,
            mean: 0.0,
            max: f64::NEG_INFINITY,
            negatives: 0,
        }
    }

    /// A histogram of values already bucketed elsewhere: `counts[i]` valid
    /// values in bucket `i` (as [`LogHistogram::bucket_index`] files them),
    /// `rejected` negative or NaN ones, and the valid values' `mean` and
    /// `max`. It holds what recording the values would have left, except
    /// that `mean` is taken as given rather than folded one value at a
    /// time, so its last bits may differ.
    #[must_use]
    pub fn from_counts(
        counts: &[u64; Self::MAX_BUCKETS],
        rejected: u64,
        mean: f64,
        max: f64,
    ) -> Self {
        let used = counts.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        LogHistogram {
            buckets: counts[..used].to_vec(),
            count: counts.iter().sum(),
            mean,
            max,
            negatives: rejected,
        }
    }

    /// The bucket index a non-negative `x` falls in.
    #[must_use]
    #[inline]
    pub fn bucket_index(x: f64) -> usize {
        if x < 1.0 {
            0
        } else {
            // log2 floor + 1, capped. For x ≥ 1.0 the floor of log2 is the
            // unbiased IEEE-754 exponent (the mantissa lies in [1, 2)), so
            // read it straight from the bits — `record` sits on hot paths
            // and a libm call per observation is measurable. Infinity's
            // exponent field (2047) lands above the cap like before.
            let exponent = ((x.to_bits() >> 52) & 0x7ff) as usize;
            (exponent - 1022).min(Self::MAX_BUCKETS - 1)
        }
    }

    /// The `[lo, hi)` value range of bucket `i`.
    #[must_use]
    pub fn bucket_bounds(&self, i: usize) -> (f64, f64) {
        if i == 0 {
            (0.0, 1.0)
        } else {
            (2f64.powi(i as i32 - 1), 2f64.powi(i as i32))
        }
    }

    /// Records one observation. Negative values are counted separately
    /// and excluded from the buckets (durations should never be
    /// negative; a nonzero count flags an instrumentation bug).
    pub fn record(&mut self, x: f64) {
        if x < 0.0 || x.is_nan() {
            self.negatives += 1;
            return;
        }
        let idx = Self::bucket_index(x);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.mean += (x - self.mean) / self.count as f64;
        self.max = self.max.max(x);
    }

    /// Total valid observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations rejected as negative or NaN.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.negatives
    }

    /// Exact mean of the valid observations.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Exact maximum of the valid observations, or 0 if empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The non-empty buckets as `(index, count)` pairs.
    pub fn buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (i, c))
    }

    /// An upper bound on the `q`-quantile: the upper edge of the bucket
    /// the quantile falls in (0 if empty).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile_upper_bound(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bucket_bounds(i).1;
            }
        }
        self.bucket_bounds(self.buckets.len().saturating_sub(1)).1
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// A registry of named counters, gauges, and histograms.
///
/// # Examples
///
/// ```
/// use aw_telemetry::MetricsRegistry;
/// use aw_types::Nanos;
///
/// let mut r = MetricsRegistry::default();
/// r.inc("requests", 3);
/// r.gauge_set("queue.depth", Nanos::new(0.0), 2.0);
/// r.histogram_record("latency_ns", 1500.0);
/// assert_eq!(r.counter("requests"), 3);
/// assert_eq!(r.counter("missing"), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    pub(crate) gauges: BTreeMap<String, TimeWeightedGauge>,
    pub(crate) histograms: BTreeMap<String, LogHistogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub(crate) fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `by` to the named counter (creating it at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += by;
        } else {
            self.counters.insert(name.to_string(), by);
        }
    }

    /// The named counter's value (0 if absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named time-weighted gauge (creating it on first use).
    pub fn gauge_set(&mut self, name: &str, now: Nanos, value: f64) {
        if let Some(g) = self.gauges.get_mut(name) {
            g.set(now, value);
        } else {
            let mut g = TimeWeightedGauge::new();
            g.set(now, value);
            self.gauges.insert(name.to_string(), g);
        }
    }

    /// The named gauge, if present.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<&TimeWeightedGauge> {
        self.gauges.get(name)
    }

    /// Records into the named log histogram (creating it on first use).
    pub fn histogram_record(&mut self, name: &str, value: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = LogHistogram::new();
            h.record(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// The named histogram, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// Closes every gauge's final interval at `now`.
    pub fn finish_gauges(&mut self, now: Nanos) {
        for g in self.gauges.values_mut() {
            g.finish(now);
        }
    }

    /// All counters, name-ordered.
    pub(crate) fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, name-ordered.
    pub(crate) fn gauges(&self) -> impl Iterator<Item = (&str, &TimeWeightedGauge)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// All histograms, name-ordered.
    pub(crate) fn histograms(&self) -> impl Iterator<Item = (&str, &LogHistogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_time_weighted_mean() {
        let mut g = TimeWeightedGauge::new();
        g.set(Nanos::new(0.0), 1.0);
        g.set(Nanos::new(30.0), 5.0);
        g.finish(Nanos::new(40.0));
        // 1 for 30 ns, 5 for 10 ns → (30 + 50) / 40 = 2.0
        assert_eq!(g.mean(), 2.0);
        assert_eq!(g.high_water_mark(), 5.0);
        assert_eq!(g.last(), 5.0);
    }

    #[test]
    fn gauge_empty_is_zero() {
        let g = TimeWeightedGauge::new();
        assert_eq!(g.mean(), 0.0);
        assert_eq!(g.high_water_mark(), 0.0);
    }

    #[test]
    fn gauge_out_of_order_set_contributes_nothing() {
        let mut g = TimeWeightedGauge::new();
        g.set(Nanos::new(10.0), 4.0);
        g.set(Nanos::new(5.0), 8.0); // goes "back in time": zero weight
        g.finish(Nanos::new(15.0));
        assert!(g.mean() >= 4.0);
        assert_eq!(g.high_water_mark(), 8.0);
    }

    #[test]
    fn log_histogram_bucket_edges() {
        let h = LogHistogram::new();
        assert_eq!(LogHistogram::bucket_index(0.0), 0);
        assert_eq!(LogHistogram::bucket_index(0.99), 0);
        assert_eq!(LogHistogram::bucket_index(1.0), 1);
        assert_eq!(LogHistogram::bucket_index(1.99), 1);
        assert_eq!(LogHistogram::bucket_index(2.0), 2);
        assert_eq!(LogHistogram::bucket_index(1024.0), 11);
        assert_eq!(h.bucket_bounds(11), (1024.0, 2048.0));
    }

    #[test]
    fn log_histogram_counts_and_quantiles() {
        let mut h = LogHistogram::new();
        for _ in 0..90 {
            h.record(10.0); // bucket [8, 16)
        }
        for _ in 0..10 {
            h.record(1000.0); // bucket [512, 1024)
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_upper_bound(0.5), 16.0);
        assert_eq!(h.quantile_upper_bound(0.99), 1024.0);
        assert!((h.mean() - 109.0).abs() < 1e-9);
        assert_eq!(h.max(), 1000.0);
    }

    #[test]
    fn log_histogram_rejects_negatives() {
        let mut h = LogHistogram::new();
        h.record(-1.0);
        h.record(f64::NAN);
        h.record(2.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.rejected(), 2);
    }

    #[test]
    fn registry_round_trips() {
        let mut r = MetricsRegistry::new();
        r.inc("a", 1);
        r.inc("a", 2);
        r.gauge_set("g", Nanos::new(0.0), 1.0);
        r.gauge_set("g", Nanos::new(10.0), 3.0);
        r.histogram_record("h", 5.0);
        r.finish_gauges(Nanos::new(20.0));
        assert_eq!(r.counter("a"), 3);
        assert_eq!(r.gauge("g").unwrap().high_water_mark(), 3.0);
        assert_eq!(r.histogram("h").unwrap().count(), 1);
        let names: Vec<&str> = r.counters().map(|(n, _)| n).collect();
        assert_eq!(names, ["a"]);
    }
}
