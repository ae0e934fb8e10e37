//! The simulation entry point: [`SimBuilder`] → [`RunOutput`].
//!
//! A [`SimBuilder`] is one declarative description of a run —
//! configuration, workload, seed, fault plan, telemetry, attribution,
//! SLO target, and optional latency-sample or idle-interval capture —
//! with one way to execute it: [`SimBuilder::run`], which always
//! returns the full [`RunOutput`]. The observation settings become one
//! composed probe (see [`crate::probe`]), the engine's single
//! observation path; each output field is `Some` exactly when its
//! setting was made.
//!
//! # Examples
//!
//! ```
//! use aw_server::{ServerConfig, SimBuilder, WorkloadSpec};
//! use aw_cstates::NamedConfig;
//! use aw_types::Nanos;
//!
//! let workload = WorkloadSpec::poisson("toy", 50_000.0, Nanos::from_micros(3.0), 0.8);
//! let config = ServerConfig::new(4, NamedConfig::Aw)
//!     .with_duration(Nanos::from_millis(50.0));
//!
//! let out = SimBuilder::new(config, workload, 42)
//!     .with_attribution(Nanos::from_millis(5.0))
//!     .with_slo(Nanos::from_micros(500.0))
//!     .run();
//!
//! assert!(out.failure.is_none());
//! assert!(out.attribution.is_some());
//! assert!(out.slo.is_some());
//! assert!(out.metrics.completed > 0);
//! ```

use std::sync::atomic::{AtomicBool, Ordering};

use aw_faults::FaultPlan;
use aw_telemetry::{SloMonitor, TelemetryRecorder};
use aw_types::Nanos;

use crate::config::ServerConfig;
use crate::probe::{AttributionProbe, IdleLog, RunProbe};
use crate::sim::{expected_samples, RunOutput, ServerSim};
use crate::workload::WorkloadSpec;

/// Process-wide override that disables the analytic idle-skip fast path
/// for every subsequently constructed [`SimBuilder`] (the CLI's
/// `--no-idle-skip`). Mirrors `aw_exec::set_default_jobs`: experiments
/// construct their builders internally, so a debug knob that must reach
/// all of them needs a process default rather than N plumbed
/// parameters. Builders snapshot the default at [`SimBuilder::new`]
/// time; [`SimBuilder::without_idle_skip`] still forces it off
/// per-builder.
static IDLE_SKIP_DISABLED: AtomicBool = AtomicBool::new(false);

/// Sets the process-wide idle-skip default picked up by every
/// [`SimBuilder::new`] from now on (`false` = force the classic stepped
/// engine). Both settings are byte-identical by contract; this exists so
/// the equivalence stays checkable end-to-end.
pub fn set_default_idle_skip(on: bool) {
    IDLE_SKIP_DISABLED.store(!on, Ordering::SeqCst);
}

/// The current process-wide idle-skip default (`true` unless
/// [`set_default_idle_skip`]`(false)` was called).
#[must_use]
pub(crate) fn default_idle_skip() -> bool {
    !IDLE_SKIP_DISABLED.load(Ordering::SeqCst)
}

/// A declarative description of one simulation run.
///
/// Construct with [`SimBuilder::new`], chain the optional
/// instrumentation, and execute with [`SimBuilder::run`]. Every knob is
/// orthogonal; the output carries `Some` for exactly the instrumentation
/// that was requested.
#[derive(Debug, Clone)]
pub struct SimBuilder {
    config: ServerConfig,
    workload: WorkloadSpec,
    seed: u64,
    faults: Option<FaultPlan>,
    telemetry_limit: Option<usize>,
    attribution_window: Option<Nanos>,
    slo_p99: Option<Nanos>,
    latency_samples: bool,
    idle_analysis: bool,
    idle_skip: bool,
}

impl SimBuilder {
    /// Describes a plain run of `workload` through `config` with `seed`.
    #[must_use]
    pub fn new(config: ServerConfig, workload: WorkloadSpec, seed: u64) -> Self {
        SimBuilder {
            config,
            workload,
            seed,
            faults: None,
            telemetry_limit: None,
            attribution_window: None,
            slo_p99: None,
            latency_samples: false,
            idle_analysis: false,
            idle_skip: default_idle_skip(),
        }
    }

    /// Disables the analytic idle-skip fast path, forcing every event
    /// through the event queue (the classic stepped engine). The two
    /// modes are byte-identical by construction — this debug knob (the
    /// CLI's `--no-idle-skip`) exists so that equivalence stays
    /// checkable end-to-end; there is no reason to use it for results.
    #[must_use]
    pub fn without_idle_skip(mut self) -> Self {
        self.idle_skip = false;
        self
    }

    /// Attaches a deterministic fault-injection plan. A plan whose rates
    /// are all zero leaves the run bit-identical to one without a plan
    /// (common random numbers: fault draws live on their own streams).
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enables telemetry: structured trace events (bounded to
    /// `trace_limit`, oldest evicted first) plus the metrics registry.
    /// The output's `telemetry` field carries the report.
    ///
    /// # Panics
    ///
    /// [`SimBuilder::run`] panics if `trace_limit` is zero.
    #[must_use]
    pub fn with_telemetry(mut self, trace_limit: usize) -> Self {
        self.telemetry_limit = Some(trace_limit);
        self
    }

    /// Enables per-request latency attribution with `window`-sized
    /// timeline buckets. The output's `attribution` field carries the
    /// report.
    ///
    /// # Panics
    ///
    /// [`SimBuilder::run`] panics if `window` is not strictly positive.
    #[must_use]
    pub fn with_attribution(mut self, window: Nanos) -> Self {
        self.attribution_window = Some(window);
        self
    }

    /// Sets a per-window p99 SLO target. Implies attribution (the SLO is
    /// evaluated over the attribution timeline); if no window was chosen
    /// with [`SimBuilder::with_attribution`], a default of ~50 windows
    /// per run (never finer than 1 ms) is used. The output's `slo` field
    /// carries the verdict.
    #[must_use]
    pub fn with_slo(mut self, target_p99: Nanos) -> Self {
        self.slo_p99 = Some(target_p99);
        self
    }

    /// Copies every measured (post-warm-up, non-tick) request latency
    /// into the output's `latency_samples`, in completion order. Pure
    /// observation: the run is bit-identical with or without it. This is
    /// what lets a fleet aggregator compute *exact* cross-server
    /// quantiles instead of averaging per-server percentiles.
    #[must_use]
    pub fn with_latency_samples(mut self) -> Self {
        self.latency_samples = true;
        self
    }

    /// Captures every completed idle round trip (core, start, duration,
    /// chosen state, governor prediction) in the output's
    /// `idle_intervals`, in wake order. Pure observation: the run is
    /// bit-identical with or without it. Feed the records to `aw-sleep`
    /// for idle-period distributions, the governor audit, and the
    /// achieved-vs-achievable opportunity ledger.
    #[must_use]
    pub fn with_idle_analysis(mut self) -> Self {
        self.idle_analysis = true;
        self
    }

    /// The default attribution window for a run of `duration`: ~50
    /// windows, but never finer than 1 ms (sub-millisecond windows hold
    /// too few completions for a meaningful windowed p99).
    #[must_use]
    pub fn default_window(duration: Nanos) -> Nanos {
        Nanos::from_millis((duration.as_nanos() / 1e6 / 50.0).max(1.0))
    }

    /// Executes the run and returns everything it produced. An
    /// invariant violation does **not** panic here: it is handed back
    /// as [`RunOutput::failure`] (use [`RunOutput::into_metrics`] for
    /// the panic-on-failure contract).
    #[must_use]
    pub fn run(self) -> RunOutput {
        let slo_target = self.slo_p99;
        let attribution_window = self
            .attribution_window
            .or_else(|| slo_target.map(|_| Self::default_window(self.config.duration)));
        let (cores, measure_start) = (self.config.cores, self.config.warmup);
        let expected = expected_samples(&self.config, &self.workload);
        let probe: RunProbe = (
            self.telemetry_limit.map(|limit| TelemetryRecorder::new(cores, limit)),
            (
                attribution_window
                    .map(|window| AttributionProbe::new(window, cores, measure_start, expected)),
                // A light-load core completes roughly one idle round trip
                // per served request, so the sample estimate pre-sizes
                // the log too.
                self.idle_analysis.then(|| IdleLog::new(cores, measure_start, expected)),
            ),
        );
        let mut sim = ServerSim::new(self.config, self.workload, self.seed, probe);
        sim.set_idle_skip(self.idle_skip);
        if let Some(plan) = self.faults {
            sim.set_faults(plan);
        }
        let mut out = sim.run_to_output(self.latency_samples);
        if let (Some(target), Some(report)) = (slo_target, out.attribution.as_ref()) {
            out.slo = Some(SloMonitor::new(target).evaluate(&report.timeline));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aw_cstates::NamedConfig;
    use aw_faults::FaultSpec;

    fn builder(named: NamedConfig, qps: f64, seed: u64) -> SimBuilder {
        let cfg = ServerConfig::new(4, named).with_duration(Nanos::from_millis(60.0));
        let w = WorkloadSpec::poisson("builder", qps, Nanos::from_micros(3.0), 0.8);
        SimBuilder::new(cfg, w, seed)
    }

    #[test]
    fn plain_runs_are_deterministic() {
        let a = builder(NamedConfig::Aw, 80_000.0, 7).run();
        let b = builder(NamedConfig::Aw, 80_000.0, 7).run();
        assert_eq!(format!("{:?}", a.metrics), format!("{:?}", b.metrics));
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let spec = FaultSpec::parse("seed=3,wake-fail=0.2,lost-wake=0.05").unwrap();
        let run = || {
            builder(NamedConfig::Aw, 60_000.0, 7).with_faults(FaultPlan::new(spec.clone())).run()
        };
        let a = run();
        let b = run();
        assert!(a.metrics.degradation.faults_injected > 0);
        assert_eq!(format!("{:?}", a.metrics), format!("{:?}", b.metrics));
    }

    #[test]
    fn idle_analysis_is_pure_observation() {
        let plain = builder(NamedConfig::Aw, 90_000.0, 11).run();
        let observed = builder(NamedConfig::Aw, 90_000.0, 11).with_idle_analysis().run();
        assert_eq!(
            format!("{:?}", plain.metrics),
            format!("{:?}", observed.metrics),
            "idle capture perturbed the run"
        );
        let intervals = observed.idle_intervals.expect("intervals captured");
        assert!(!intervals.is_empty());
        // Every interval covers at least its state's transition budget,
        // and measured intervals start inside the measured window.
        for iv in &intervals {
            assert!(iv.duration >= Nanos::ZERO, "{iv:?}");
            assert!(iv.core < 4, "{iv:?}");
            if iv.measured {
                assert!(iv.start >= Nanos::ZERO);
            }
        }
        // The governor-observed idle stream and the captured one are the
        // same: a menu governor run records a prediction from the second
        // interval of each core onwards.
        assert!(intervals.iter().any(|iv| iv.predicted.is_some()));
        assert!(plain.idle_intervals.is_none());
    }

    #[test]
    fn slo_implies_attribution_with_default_window() {
        let out =
            builder(NamedConfig::Baseline, 100_000.0, 9).with_slo(Nanos::from_micros(500.0)).run();
        let attribution = out.attribution.expect("slo implies attribution");
        // 60 ms duration / 50 windows = 1.2 ms (above the 1 ms floor).
        assert_eq!(attribution.timeline.window_duration(), Nanos::from_millis(1.2));
        let slo = out.slo.expect("slo verdict present");
        assert!(slo.windows_total > 0);
    }

    #[test]
    fn explicit_window_wins_over_slo_default() {
        let out = builder(NamedConfig::Baseline, 100_000.0, 9)
            .with_attribution(Nanos::from_millis(5.0))
            .with_slo(Nanos::from_micros(500.0))
            .run();
        let attribution = out.attribution.expect("attribution on");
        assert_eq!(attribution.timeline.window_duration(), Nanos::from_millis(5.0));
    }

    #[test]
    fn latency_samples_are_pure_observation() {
        let plain = builder(NamedConfig::Aw, 90_000.0, 11).run();
        let sampled = builder(NamedConfig::Aw, 90_000.0, 11).with_latency_samples().run();
        assert_eq!(
            format!("{:?}", plain.metrics),
            format!("{:?}", sampled.metrics),
            "sample capture perturbed the run"
        );
        let samples = sampled.latency_samples.expect("samples captured");
        assert_eq!(samples.len() as u64, sampled.metrics.completed);
        // The captured samples reproduce the reported mean exactly.
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - sampled.metrics.server_latency.mean.as_nanos()).abs() < 1e-6);
        assert!(plain.latency_samples.is_none());
    }

    /// The reported summary is exactly what the captured samples give: the
    /// mean is their record-order sum (taken before the percentile
    /// selection reorders the reservoir), and p50/p99/p99.9/max are the
    /// nearest-rank entries of a sorted copy, bit for bit. A fleet
    /// snapshot reads its server-epoch p99 from this summary.
    #[test]
    fn reported_latency_is_the_nearest_rank_of_the_samples() {
        let out = builder(NamedConfig::Aw, 90_000.0, 11).with_latency_samples().run();
        let mut sorted = out.latency_samples.expect("samples captured");
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        sorted.sort_by(f64::total_cmp);
        let rank = |q: f64| (1..=n).find(|&r| r as f64 >= q * n as f64).expect("q <= 1");
        let l = out.metrics.server_latency;
        let bits = |x: Nanos| x.as_nanos().to_bits();
        assert_eq!(bits(l.mean), mean.to_bits());
        for (q, got) in [(0.5, l.p50), (0.99, l.p99), (0.999, l.p999), (1.0, l.max)] {
            assert_eq!(bits(got), sorted[rank(q) - 1].to_bits(), "q = {q}");
        }
    }

    #[test]
    fn default_window_is_clamped() {
        assert_eq!(SimBuilder::default_window(Nanos::from_millis(400.0)), Nanos::from_millis(8.0));
        assert_eq!(SimBuilder::default_window(Nanos::from_millis(10.0)), Nanos::from_millis(1.0));
    }

    #[test]
    fn failure_is_returned_not_panicked() {
        let out = builder(NamedConfig::Baseline, 50_000.0, 3).run();
        assert!(out.failure.is_none(), "clean run must not report a failure");
        // into_metrics on a clean run is the old `run` contract.
        let _ = out.into_metrics();
    }
}
