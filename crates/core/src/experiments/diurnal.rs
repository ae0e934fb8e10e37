//! Diurnal-load analysis: AW savings under a realistic day/night load
//! swing.
//!
//! The paper's Sec. 7.1 leans on the industry observation that
//! latency-critical fleets run at 5–25% utilization precisely because
//! load is provisioned for the peak — meaning most of the day is spent
//! in the low-load regime where AW saves the most. This experiment makes
//! that quantitative: the same mean load is offered once as a stationary
//! Poisson stream and once with a sinusoidal diurnal swing, and AW's
//! savings are compared.

use aw_cstates::NamedConfig;
use aw_server::{HardwareModel, RunMetrics, ServerConfig, SimBuilder};
use aw_types::Nanos;
use aw_workloads::{diurnal_memcached, memcached_etc};

/// The diurnal experiment.
#[derive(Debug, Clone)]
pub struct Diurnal {
    /// Mean offered load (requests/s).
    pub base_qps: f64,
    /// Relative swing amplitude in `[0, 1)`.
    pub amplitude: f64,
    /// Swing period (the simulated "day").
    pub period: Nanos,
    /// Server core count.
    pub cores: usize,
    /// Simulated duration (should cover ≥ one full period).
    pub duration: Nanos,
    /// RNG seed.
    pub seed: u64,
    /// Hardware model the server is built on.
    pub hw: &'static HardwareModel,
}

impl Default for Diurnal {
    fn default() -> Self {
        Diurnal {
            base_qps: 600_000.0,
            amplitude: 0.85,
            period: Nanos::from_millis(400.0),
            cores: 10,
            duration: Nanos::from_millis(800.0),
            seed: 42,
            hw: HardwareModel::skylake_sp(),
        }
    }
}

/// Results of the diurnal experiment.
#[derive(Debug, Clone)]
pub struct DiurnalReport {
    /// AW savings under the stationary stream (percent).
    pub stationary_savings_pct: f64,
    /// AW savings under the diurnal stream at the same mean load
    /// (percent).
    pub diurnal_savings_pct: f64,
    /// Baseline average power, diurnal stream (mW).
    pub baseline_power_mw: f64,
    /// AW average power, diurnal stream (mW).
    pub aw_power_mw: f64,
    /// p99 latency change of AW under the diurnal stream (percent,
    /// positive = degradation).
    pub tail_delta_pct: f64,
}

impl Diurnal {
    /// A reduced instance for tests.
    #[must_use]
    pub fn quick() -> Self {
        Diurnal {
            base_qps: 300_000.0,
            period: Nanos::from_millis(40.0),
            cores: 4,
            duration: Nanos::from_millis(80.0),
            ..Diurnal::default()
        }
    }

    /// Retargets the experiment onto another hardware model.
    #[must_use]
    pub fn with_hw(mut self, hw: &'static HardwareModel) -> Self {
        self.hw = hw;
        self
    }

    fn run_one(&self, named: NamedConfig, diurnal: bool) -> RunMetrics {
        let scale = self.cores as f64 / 10.0;
        let qps = self.base_qps * scale;
        let workload = if diurnal {
            diurnal_memcached(qps, self.amplitude, self.period.as_nanos())
        } else {
            memcached_etc(qps)
        };
        let cfg = ServerConfig::for_hw(self.hw, self.cores, named).with_duration(self.duration);
        SimBuilder::new(cfg, workload, self.seed).run().into_metrics()
    }

    /// Runs both streams under both configurations — four independent
    /// simulations, executed on the ambient
    /// [`SweepExecutor`](aw_exec::SweepExecutor).
    #[must_use]
    pub fn run(&self) -> DiurnalReport {
        let points = [
            (NamedConfig::Baseline, false),
            (NamedConfig::Aw, false),
            (NamedConfig::Baseline, true),
            (NamedConfig::Aw, true),
        ];
        let runs = aw_exec::SweepExecutor::current()
            .map(&points, |&(named, diurnal)| self.run_one(named, diurnal));
        let (base_flat, aw_flat, base_diurnal, aw_diurnal) =
            (&runs[0], &runs[1], &runs[2], &runs[3]);
        DiurnalReport {
            stationary_savings_pct: aw_flat.power_savings_vs(base_flat).as_percent(),
            diurnal_savings_pct: aw_diurnal.power_savings_vs(base_diurnal).as_percent(),
            baseline_power_mw: base_diurnal.avg_core_power.as_milliwatts(),
            aw_power_mw: aw_diurnal.avg_core_power.as_milliwatts(),
            tail_delta_pct: aw_diurnal.tail_latency_delta_vs(base_diurnal) * 100.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aw_saves_under_both_streams() {
        let r = Diurnal::quick().run();
        assert!(r.stationary_savings_pct > 0.0, "{r:?}");
        assert!(r.diurnal_savings_pct > 0.0, "{r:?}");
        assert!(r.aw_power_mw < r.baseline_power_mw);
    }

    #[test]
    fn tail_impact_is_bounded() {
        let r = Diurnal::quick().run();
        assert!(r.tail_delta_pct.abs() < 25.0, "{r:?}");
    }
}
