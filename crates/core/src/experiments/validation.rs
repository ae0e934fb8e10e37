//! The Sec. 6.3 power-model validation experiment.
//!
//! The paper validates Eq. 2 by comparing its estimate (from residency
//! counters) against measured (RAPL) power for four workloads at several
//! utilizations, reporting 94–96% accuracy. Here the "measured" side is
//! the simulator's integrated energy and the "estimated" side is Eq. 2
//! applied to the simulator's residency counters — the same cross-check,
//! with the simulator standing in for the hardware.

use std::fmt;

use aw_cstates::{FreqLevel, NamedConfig};
use aw_exec::SweepExecutor;
use aw_power::average_power;
use aw_server::{HardwareModel, ServerConfig, SimBuilder};
use aw_types::Nanos;
use aw_workloads::validation_suite;

/// One validation run.
#[derive(Debug, Clone)]
pub struct ValidationRow {
    /// Workload name (includes the utilization step).
    pub workload: String,
    /// Simulator-measured average core power (mW).
    pub measured_mw: f64,
    /// Eq. 2 estimate from the residency counters (mW).
    pub estimated_mw: f64,
    /// Model accuracy: `100 × (1 − |est − meas| / meas)`.
    pub accuracy_pct: f64,
}

/// The validation report.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// One row per workload × utilization.
    pub rows: Vec<ValidationRow>,
}

impl ValidationReport {
    /// Mean accuracy across all rows.
    #[must_use]
    pub(crate) fn mean_accuracy_pct(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.accuracy_pct).sum::<f64>() / self.rows.len() as f64
    }

    /// Worst-case accuracy.
    #[must_use]
    pub fn min_accuracy_pct(&self) -> f64 {
        self.rows.iter().map(|r| r.accuracy_pct).fold(f64::INFINITY, f64::min)
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Sec. 6.3 — power-model validation\n{:<16} {:>10} {:>10} {:>9}",
            "workload", "measured", "estimated", "accuracy"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<16} {:>8.0}mW {:>8.0}mW {:>8.1}%",
                r.workload, r.measured_mw, r.estimated_mw, r.accuracy_pct
            )?;
        }
        writeln!(f, "mean accuracy: {:.1}%", self.mean_accuracy_pct())
    }
}

/// The validation experiment.
#[derive(Debug, Clone)]
pub struct Validation {
    /// Utilization steps to evaluate.
    pub utilizations: Vec<f64>,
    /// Server core count.
    pub cores: usize,
    /// Simulated duration per run.
    pub duration: Nanos,
    /// RNG seed.
    pub seed: u64,
    /// Hardware model whose Eq. 2 catalog is cross-checked.
    pub hw: &'static HardwareModel,
}

impl Default for Validation {
    fn default() -> Self {
        Validation {
            utilizations: vec![0.1, 0.25, 0.5],
            cores: 10,
            duration: Nanos::from_secs(1.0),
            seed: 42,
            hw: HardwareModel::skylake_sp(),
        }
    }
}

impl Validation {
    /// A reduced instance for tests.
    #[must_use]
    pub fn quick() -> Self {
        Validation {
            utilizations: vec![0.15],
            cores: 4,
            duration: Nanos::from_millis(300.0),
            ..Validation::default()
        }
    }

    /// Retargets the validation onto another hardware model.
    #[must_use]
    pub fn with_hw(mut self, hw: &'static HardwareModel) -> Self {
        self.hw = hw;
        self
    }

    /// Runs every workload at every utilization and cross-checks Eq. 2.
    /// The suite's workloads are independent runs, so they execute on
    /// the ambient [`SweepExecutor`] in suite order.
    #[must_use]
    pub fn run(&self) -> ValidationReport {
        let catalog = self.hw.catalog();
        let suite = validation_suite(&self.utilizations, self.cores);
        let rows = SweepExecutor::current().map(&suite, |w| {
            // Turbo disabled so Eq. 2's fixed C0 power applies
            // (the paper's Eq. 4 handles the Turbo case separately).
            let cfg = ServerConfig::for_hw(self.hw, self.cores, NamedConfig::NtBaseline)
                .with_duration(self.duration);
            let name = w.name().to_string();
            let m = SimBuilder::new(cfg, w.clone(), self.seed).run().into_metrics();
            let measured = m.avg_core_power.as_milliwatts();
            let estimated = average_power(&m.residencies, &catalog, FreqLevel::P1).as_milliwatts();
            let accuracy = if measured > 0.0 {
                (1.0 - (estimated - measured).abs() / measured) * 100.0
            } else {
                0.0
            };
            ValidationRow {
                workload: name,
                measured_mw: measured,
                estimated_mw: estimated,
                accuracy_pct: accuracy,
            }
        });
        ValidationReport { rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_accuracy_matches_paper_band() {
        let report = Validation::quick().run();
        assert_eq!(report.rows.len(), 4);
        // The paper reports 94–96%; we require ≥90% everywhere in the
        // reduced run (snoop-free, Turbo-free: the only estimate error is
        // transition-power attribution).
        assert!(report.min_accuracy_pct() >= 90.0, "min accuracy {}", report.min_accuracy_pct());
        assert!(report.mean_accuracy_pct() >= 93.0, "{}", report.mean_accuracy_pct());
        // The check must not be vacuous: the hidden transition energy has
        // to create a visible gap for at least one transition-heavy load.
        assert!(
            report.min_accuracy_pct() < 99.9,
            "validation is vacuous: min accuracy {}",
            report.min_accuracy_pct()
        );
    }

    #[test]
    fn estimates_track_measurements() {
        let report = Validation::quick().run();
        for r in &report.rows {
            assert!(r.measured_mw > 0.0);
            assert!(r.estimated_mw > 0.0);
        }
    }
}
