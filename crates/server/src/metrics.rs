//! Run metrics: the observables the paper's evaluation reports.

use std::collections::BTreeMap;
use std::fmt;

use aw_cstates::CState;
use aw_power::ResidencyVector;
use aw_sim::{select_quantiles, SampleSet};
use aw_telemetry::{AttributionSummary, TelemetrySummary};
use aw_types::{MilliWatts, Nanos, Ratio};

use crate::uncore::PackageCState;

/// Latency distribution summary: mean, median, p99 ("tail"), p99.9, and
/// max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Arithmetic mean.
    pub mean: Nanos,
    /// Median (p50).
    pub p50: Nanos,
    /// 99th percentile — the paper's "tail latency".
    pub p99: Nanos,
    /// 99.9th percentile — the deeper tail the paper's latency CDFs
    /// extend past p99, where C6 exit penalties concentrate.
    pub p999: Nanos,
    /// Maximum observed.
    pub max: Nanos,
    /// Number of samples summarized. Zero marks "no data": the
    /// statistics above are filler zeros, not measured values.
    pub count: u64,
}

impl LatencyStats {
    /// Summarizes a sample set. An empty set yields zero statistics with
    /// [`LatencyStats::count`] of zero, which [`LatencyStats::is_empty`]
    /// and the `Display` impl surface explicitly — a run that completed
    /// nothing must not masquerade as one with zero-nanosecond latency.
    ///
    /// The mean is summed first, in record order, so its bits do not
    /// depend on the selection that then finds the percentiles
    /// ([`LatencyStats::from_slice`]) and **reorders `samples`**; any
    /// other mean of the same set must likewise be taken before this
    /// call. Samples rank by `total_cmp`, which puts a positive NaN above
    /// `+inf`.
    #[must_use]
    pub fn from_samples(samples: &mut SampleSet) -> Self {
        let sum = samples.values().iter().sum();
        Self::from_slice(samples.values_mut(), sum)
    }

    /// Summarizes raw samples in place, given `sum`, their sum in record
    /// order from `-0.0` (the fold `<f64 as Sum>` makes): the mean is
    /// `sum` over the count, and the percentiles come from one selection
    /// cascade ([`select_quantiles`]), which **reorders `samples`**. The
    /// percentiles are order statistics, so the order a selection leaves
    /// behind cannot change a later one over the same values.
    #[must_use]
    pub fn from_slice(samples: &mut [f64], sum: f64) -> Self {
        let n = samples.len();
        let [p50, p99, p999, max] =
            if n == 0 { [0.0; 4] } else { select_quantiles(samples, [0.5, 0.99, 0.999, 1.0]) };
        LatencyStats {
            mean: Nanos::new(if n == 0 { 0.0 } else { sum / n as f64 }),
            p50: Nanos::new(p50),
            p99: Nanos::new(p99),
            p999: Nanos::new(p999),
            max: Nanos::new(max),
            count: n as u64,
        }
    }

    /// `true` if no samples back these statistics.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Returns a copy with `offset` added to every statistic (used to turn
    /// server-side latency into end-to-end latency by adding the network
    /// round trip). An empty summary stays empty: there is nothing to
    /// offset.
    ///
    /// **Exactness assumption.** Adding a constant to each summarized
    /// percentile is exact *only when the offset is deterministic*:
    /// quantiles are order statistics, and adding the same constant `c`
    /// to every sample preserves their order, so `Q(X + c) = Q(X) + c`
    /// for every quantile (and the mean and max). The simulator's
    /// network RTT (`Workload::network_rtt`) is a fixed per-workload
    /// constant, which is why `end_to_end_latency` can be derived this
    /// way instead of re-summarizing offset samples. If the RTT were
    /// random, `Q(X + R)` would generally differ from `Q(X) + Q(R)`
    /// (quantiles are not additive across independent variables), and
    /// the offset percentiles would be wrong — the unit test
    /// `offset_by_matches_per_sample_offsetting` pins the deterministic
    /// case and documents the failure of a random one.
    #[must_use]
    pub(crate) fn offset_by(&self, offset: Nanos) -> LatencyStats {
        if self.is_empty() {
            return *self;
        }
        LatencyStats {
            mean: self.mean + offset,
            p50: self.p50 + offset,
            p99: self.p99 + offset,
            p999: self.p999 + offset,
            max: self.max + offset,
            count: self.count,
        }
    }
}

impl fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "no samples");
        }
        write!(
            f,
            "mean={} p50={} p99={} p999={} max={}",
            self.mean, self.p50, self.p99, self.p999, self.max
        )
    }
}

/// Decomposition of mean server-side sojourn time into its causes.
///
/// `transition + queue + service ≈ server_latency.mean`: the transition
/// component is the idle-state exit latency personally absorbed by
/// wake-triggering requests (averaged over *all* requests), the queue
/// component is time spent behind other requests, and service is the
/// execution time itself. This is the quantity behind the paper's
/// Fig. 8(c) worst/expected analysis: AW shrinks the transition share to
/// nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBreakdown {
    /// Mean idle-exit latency absorbed per request.
    pub transition: Nanos,
    /// Mean time queued behind other requests.
    pub queue: Nanos,
    /// Mean service (execution) time.
    pub service: Nanos,
}

impl LatencyBreakdown {
    /// The sum of the components (≈ mean server latency).
    #[must_use]
    pub fn total(&self) -> Nanos {
        self.transition + self.queue + self.service
    }

    /// The transition component as a fraction of the total.
    #[must_use]
    pub fn transition_share(&self) -> Ratio {
        let t = self.total();
        if t <= Nanos::ZERO {
            Ratio::ZERO
        } else {
            Ratio::new(self.transition / t)
        }
    }
}

/// Counters for fault injection, overload protection, and graceful
/// degradation over the whole run (warm-up included: degradation events
/// are accounting facts, not performance samples, so they are never
/// reset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradationStats {
    /// Faults injected from the active fault plan.
    pub faults_injected: u64,
    /// Requests shed at a full bounded queue.
    pub shed: u64,
    /// Requests abandoned after waiting past the request timeout.
    pub timeouts: u64,
    /// Client retries submitted after shed/timeout.
    pub retries: u64,
    /// Requests dropped for good after exhausting their retry budget.
    pub retries_exhausted: u64,
    /// Agile exits that exhausted their UFPG retry budget and fell back
    /// to the full legacy C6 restore path.
    pub fallback_exits: u64,
    /// Circuit-breaker trips (agile states demoted).
    pub breaker_trips: u64,
    /// Circuit-breaker re-arms after cooldown.
    pub breaker_restores: u64,
    /// Idle-state selections made from a demoted (breaker-open) config.
    pub demoted_selections: u64,
}

impl DegradationStats {
    /// `true` if nothing degraded: no faults fired and no overload
    /// protection engaged.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        *self == DegradationStats::default()
    }

    /// Every counter as `(key, label, description, count)`, in display
    /// order: `key` is its short name in the `Display` line, `label` its
    /// name in the `watch` feed, `description` its row in the
    /// degradation table. The pattern names every field, so a counter
    /// added to the struct fails to compile until it is listed here too.
    #[must_use]
    pub fn counters(&self) -> [(&'static str, &'static str, &'static str, u64); 9] {
        let DegradationStats {
            faults_injected,
            shed,
            timeouts,
            retries,
            retries_exhausted,
            fallback_exits,
            breaker_trips,
            breaker_restores,
            demoted_selections,
        } = *self;
        [
            ("faults", "faults", "faults injected", faults_injected),
            ("shed", "shed", "requests shed (queue full)", shed),
            ("timeouts", "timeouts", "requests timed out", timeouts),
            ("retries", "retries", "client retries", retries),
            ("dropped", "retries exhausted", "retries exhausted (dropped)", retries_exhausted),
            ("fallbacks", "fallback exits", "full-C6 fallback exits", fallback_exits),
            ("trips", "breaker trips", "circuit-breaker trips", breaker_trips),
            ("restores", "breaker restores", "circuit-breaker restores", breaker_restores),
            ("demoted", "demoted selections", "demoted governor selections", demoted_selections),
        ]
    }
}

impl std::ops::AddAssign for DegradationStats {
    /// Field-wise sum. The pattern names every field, so a counter added
    /// to the struct fails to compile until it is summed here too.
    fn add_assign(&mut self, other: DegradationStats) {
        let DegradationStats {
            faults_injected,
            shed,
            timeouts,
            retries,
            retries_exhausted,
            fallback_exits,
            breaker_trips,
            breaker_restores,
            demoted_selections,
        } = other;
        self.faults_injected += faults_injected;
        self.shed += shed;
        self.timeouts += timeouts;
        self.retries += retries;
        self.retries_exhausted += retries_exhausted;
        self.fallback_exits += fallback_exits;
        self.breaker_trips += breaker_trips;
        self.breaker_restores += breaker_restores;
        self.demoted_selections += demoted_selections;
    }
}

impl fmt::Display for DegradationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "clean run (no faults, no shedding)");
        }
        for (i, (key, _, _, count)) in self.counters().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            write!(f, "{sep}{key}={count}")?;
        }
        Ok(())
    }
}

/// Everything one simulation run measures.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Configuration name (e.g. `NT_No_C6`).
    pub config: String,
    /// Workload name.
    pub workload: String,
    /// Measured window (post-warm-up).
    pub duration: Nanos,
    /// Core count.
    pub cores: usize,
    /// Aggregate C-state residencies across cores (time-weighted).
    pub residencies: ResidencyVector,
    /// Average per-core power over the window (the paper's `AvgP`).
    pub avg_core_power: MilliWatts,
    /// Server-side request latency.
    pub server_latency: LatencyStats,
    /// End-to-end latency (server + network round trip).
    pub end_to_end_latency: LatencyStats,
    /// Requests completed in the window.
    pub completed: u64,
    /// Offered load (requests/s).
    pub offered_qps: f64,
    /// Achieved throughput (requests/s).
    pub achieved_qps: f64,
    /// Idle-state entry counts per C-state.
    pub transitions: BTreeMap<CState, u64>,
    /// Snoop bursts serviced by idle cores.
    pub snoops_served: u64,
    /// Logical simulation events the engine processed over the whole
    /// run (warm-up included) — queue pops plus inline idle-skip chain
    /// steps. Dividing by wall-clock gives the events/sec engine
    /// throughput tracked in `BENCH_singlerun.json`; the count is
    /// identical with idle-skip on or off.
    pub events: u64,
    /// Fraction of busy time spent at Turbo frequency.
    pub turbo_fraction: Ratio,
    /// Average uncore power over the window.
    pub avg_uncore_power: MilliWatts,
    /// Package C-state residencies: (PC0, PC2, PC6).
    pub package_residency: [Ratio; 3],
    /// Mean-latency decomposition (transition / queue / service).
    pub breakdown: LatencyBreakdown,
    /// Telemetry headline numbers; `Some` only for traced runs (see
    /// `SimBuilder::with_telemetry`).
    pub telemetry: Option<TelemetrySummary>,
    /// Per-request latency attribution (phase means, tail bucket, exit
    /// penalty by C-state); `Some` only for attributed runs (see
    /// `SimBuilder::with_attribution`).
    pub attribution: Option<AttributionSummary>,
    /// Fault/overload/degradation counters (always present; all-zero for
    /// a clean run).
    pub degradation: DegradationStats,
}

impl RunMetrics {
    /// Residency of one state (zero if never entered).
    #[must_use]
    pub fn residency_of(&self, state: CState) -> Ratio {
        self.residencies.get(state)
    }

    /// Residency of one package state.
    #[must_use]
    pub fn package_residency_of(&self, state: PackageCState) -> Ratio {
        match state {
            PackageCState::Pc0 => self.package_residency[0],
            PackageCState::Pc2 => self.package_residency[1],
            PackageCState::Pc6 => self.package_residency[2],
        }
    }

    /// Total package power: all cores plus the uncore.
    #[must_use]
    pub fn package_power(&self) -> MilliWatts {
        self.avg_core_power * self.cores as f64 + self.avg_uncore_power
    }

    /// Mean CPU energy spent per completed request (cores + uncore),
    /// the energy-efficiency figure of merit for the datacenter analysis.
    #[must_use]
    pub fn energy_per_request(&self) -> aw_types::Joules {
        if self.completed == 0 {
            return aw_types::Joules::ZERO;
        }
        (self.package_power() * self.duration) / self.completed as f64
    }

    /// Total idle-state transitions per second of measured time.
    #[must_use]
    pub fn transitions_per_second(&self) -> f64 {
        let total: u64 = self.transitions.values().sum();
        if self.duration <= Nanos::ZERO {
            0.0
        } else {
            total as f64 / self.duration.as_secs()
        }
    }

    /// Power savings of this run relative to `baseline`, as a fraction of
    /// the baseline's average power.
    #[must_use]
    pub fn power_savings_vs(&self, baseline: &RunMetrics) -> Ratio {
        if baseline.avg_core_power <= MilliWatts::ZERO {
            return Ratio::ZERO;
        }
        Ratio::new(1.0 - self.avg_core_power / baseline.avg_core_power)
    }

    /// Fractional p99 latency change versus `baseline` (positive =
    /// degradation).
    #[must_use]
    pub fn tail_latency_delta_vs(&self, baseline: &RunMetrics) -> f64 {
        let b = baseline.server_latency.p99.as_nanos();
        if b <= 0.0 {
            return 0.0;
        }
        self.server_latency.p99.as_nanos() / b - 1.0
    }

    /// Fractional mean latency change versus `baseline` (positive =
    /// degradation).
    #[must_use]
    pub fn mean_latency_delta_vs(&self, baseline: &RunMetrics) -> f64 {
        let b = baseline.server_latency.mean.as_nanos();
        if b <= 0.0 {
            return 0.0;
        }
        self.server_latency.mean.as_nanos() / b - 1.0
    }
}

impl fmt::Display for RunMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} / {}: {:.0} QPS offered, {:.0} achieved, AvgP={}",
            self.config, self.workload, self.offered_qps, self.achieved_qps, self.avg_core_power
        )?;
        writeln!(f, "  residency: {}", self.residencies)?;
        writeln!(f, "  latency:   {}", self.server_latency)?;
        write!(f, "  turbo: {}, snoops: {}", self.turbo_fraction, self.snoops_served)?;
        if let Some(t) = &self.telemetry {
            write!(f, "\n  telemetry: {t}")?;
        }
        if let Some(a) = &self.attribution {
            write!(f, "\n  {a}")?;
        }
        if !self.degradation.is_clean() {
            write!(f, "\n  degradation: {}", self.degradation)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics(power_mw: f64, p99_us: f64) -> RunMetrics {
        let mut s = SampleSet::new();
        for i in 1..=100 {
            s.record(p99_us * 1e3 * f64::from(i) / 100.0);
        }
        RunMetrics {
            config: "test".into(),
            workload: "w".into(),
            duration: Nanos::from_secs(1.0),
            cores: 2,
            residencies: ResidencyVector::from_percents([(CState::C0, 30.0), (CState::C1, 70.0)]),
            avg_core_power: MilliWatts::new(power_mw),
            server_latency: LatencyStats::from_samples(&mut s.clone()),
            end_to_end_latency: LatencyStats::from_samples(&mut s)
                .offset_by(Nanos::from_micros(117.0)),
            completed: 1000,
            offered_qps: 1000.0,
            achieved_qps: 1000.0,
            transitions: BTreeMap::from([(CState::C1, 500u64)]),
            snoops_served: 0,
            events: 4000,
            turbo_fraction: Ratio::ZERO,
            avg_uncore_power: MilliWatts::from_watts(10.0),
            package_residency: [Ratio::new(1.0), Ratio::ZERO, Ratio::ZERO],
            breakdown: LatencyBreakdown {
                transition: Nanos::from_micros(1.0),
                queue: Nanos::from_micros(2.0),
                service: Nanos::from_micros(4.0),
            },
            telemetry: None,
            attribution: None,
            degradation: DegradationStats::default(),
        }
    }

    #[test]
    fn latency_stats_ordering() {
        let m = sample_metrics(1000.0, 100.0);
        assert!(m.server_latency.p50 <= m.server_latency.p99);
        assert!(m.server_latency.p99 <= m.server_latency.p999);
        assert!(m.server_latency.p999 <= m.server_latency.max);
        assert!(m.server_latency.to_string().contains("p999="));
    }

    #[test]
    fn offset_by_matches_per_sample_offsetting() {
        // Deterministic offset: offsetting the summary equals
        // re-summarizing per-sample-offset data, for every statistic
        // including the new p999 — quantiles commute with adding a
        // constant.
        let mut raw = SampleSet::new();
        let mut shifted = SampleSet::new();
        let rtt = Nanos::from_micros(117.0);
        for i in 1..=2000 {
            let x = f64::from(i) * f64::from(i); // heavy-ish spread
            raw.record(x);
            shifted.record(x + rtt.as_nanos());
        }
        let summary_offset = LatencyStats::from_samples(&mut raw).offset_by(rtt);
        let per_sample = LatencyStats::from_samples(&mut shifted);
        for (a, b) in [
            (summary_offset.mean, per_sample.mean),
            (summary_offset.p50, per_sample.p50),
            (summary_offset.p99, per_sample.p99),
            (summary_offset.p999, per_sample.p999),
            (summary_offset.max, per_sample.max),
        ] {
            assert!((a.as_nanos() - b.as_nanos()).abs() < 1e-6, "{a} vs {b}");
        }
        assert_eq!(summary_offset.count, per_sample.count);

        // A *random* offset breaks the equivalence: Q(X + R) is not
        // Q(X) + mean(R) in general. This is why `offset_by` documents
        // the deterministic-RTT assumption.
        let mut jittered = SampleSet::new();
        for i in 1..=2000 {
            let x = f64::from(i) * f64::from(i);
            // Deterministic stand-in for jitter, anti-correlated with
            // rank: large samples get small offsets.
            let r = rtt.as_nanos() * 2.0 * f64::from(2000 - i) / 2000.0;
            jittered.record(x + r);
        }
        let per_sample_jittered = LatencyStats::from_samples(&mut jittered);
        let naive = summary_offset; // summary + constant mean(R) = rtt
        assert!(
            (per_sample_jittered.p99.as_nanos() - naive.p99.as_nanos()).abs() > 1.0,
            "random offset accidentally matched the constant-offset summary"
        );
    }

    #[test]
    fn end_to_end_adds_network() {
        let m = sample_metrics(1000.0, 100.0);
        let delta = m.end_to_end_latency.mean - m.server_latency.mean;
        assert_eq!(delta, Nanos::from_micros(117.0));
    }

    #[test]
    fn savings_vs_baseline() {
        let baseline = sample_metrics(2000.0, 100.0);
        let aw = sample_metrics(1200.0, 101.0);
        let s = aw.power_savings_vs(&baseline);
        assert!((s.as_percent() - 40.0).abs() < 1e-9);
        assert!(aw.tail_latency_delta_vs(&baseline) > 0.0);
        assert!(aw.tail_latency_delta_vs(&baseline) < 0.02);
    }

    #[test]
    fn transitions_per_second() {
        let m = sample_metrics(1000.0, 100.0);
        assert!((m.transitions_per_second() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn zero_baseline_power_yields_zero_savings() {
        let baseline = sample_metrics(0.0, 100.0);
        let m = sample_metrics(1000.0, 100.0);
        assert_eq!(m.power_savings_vs(&baseline), Ratio::ZERO);
    }

    #[test]
    fn empty_samples_are_explicitly_marked() {
        let mut s = SampleSet::new();
        let l = LatencyStats::from_samples(&mut s);
        assert_eq!(l.mean, Nanos::ZERO);
        assert_eq!(l.p99, Nanos::ZERO);
        assert!(l.is_empty());
        assert_eq!(l.to_string(), "no samples");
        // Offsetting an empty summary must not fabricate latencies.
        let shifted = l.offset_by(Nanos::from_micros(100.0));
        assert!(shifted.is_empty());
        assert_eq!(shifted.mean, Nanos::ZERO);
    }

    #[test]
    fn populated_samples_are_not_empty() {
        let m = sample_metrics(1000.0, 100.0);
        assert!(!m.server_latency.is_empty());
        assert_eq!(m.server_latency.count, 100);
        assert!(m.server_latency.to_string().contains("mean="));
    }

    #[test]
    fn breakdown_totals_and_shares() {
        let m = sample_metrics(1000.0, 100.0);
        assert_eq!(m.breakdown.total(), Nanos::from_micros(7.0));
        assert!((m.breakdown.transition_share().get() - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn package_power_sums_cores_and_uncore() {
        let m = sample_metrics(1000.0, 100.0);
        assert_eq!(m.package_power(), MilliWatts::from_watts(12.0));
        assert_eq!(m.package_residency_of(PackageCState::Pc0), Ratio::new(1.0));
    }

    #[test]
    fn energy_per_request() {
        let m = sample_metrics(1000.0, 100.0);
        // 12 W × 1 s / 1000 requests = 12 mJ per request.
        assert!((m.energy_per_request().as_joules() - 0.012).abs() < 1e-9);
        let mut empty = sample_metrics(1000.0, 100.0);
        empty.completed = 0;
        assert_eq!(empty.energy_per_request(), aw_types::Joules::ZERO);
    }

    #[test]
    fn display_is_informative() {
        let m = sample_metrics(1000.0, 100.0);
        let text = m.to_string();
        assert!(text.contains("QPS"));
        assert!(text.contains("residency"));
    }

    #[test]
    fn degradation_display_distinguishes_clean_runs() {
        let clean = DegradationStats::default();
        assert!(clean.is_clean());
        assert!(clean.to_string().contains("clean run"));

        let mut m = sample_metrics(1000.0, 100.0);
        assert!(!m.to_string().contains("degradation"), "clean run hides the section");
        m.degradation.shed = 3;
        m.degradation.retries = 2;
        assert!(!m.degradation.is_clean());
        assert!(m.to_string().contains("degradation: "));
        assert!(m.degradation.to_string().contains("shed=3"));
    }
}
