//! The MySQL (Fig. 12) and Kafka (Fig. 13) experiments.

use std::fmt;

use aw_cstates::{CState, CStateConfig, NamedConfig};
use aw_exec::SweepExecutor;
use aw_server::{HardwareModel, RunMetrics, ServerConfig, SimBuilder};
use aw_types::Nanos;
use aw_workloads::{kafka, mysql_oltp, KafkaRate, MysqlRate};

/// One Fig. 12 row: MySQL at one request rate.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Rate label (low/mid/high).
    pub rate: String,
    /// Baseline residencies (percent): C0/C1/C6.
    pub baseline_residency_pct: [f64; 3],
    /// C6-disabled residencies (percent): C0/C1.
    pub no_c6_residency_pct: [f64; 2],
    /// Tail-latency improvement from disabling C6 (percent, positive =
    /// better).
    pub tail_improvement_pct: f64,
    /// Average-latency improvement from disabling C6.
    pub avg_improvement_pct: f64,
    /// Average-power reduction of C6A versus the C6-disabled
    /// configuration (percent).
    pub c6a_power_reduction_pct: f64,
}

/// The Fig. 12 report.
#[derive(Debug, Clone)]
pub struct Fig12Report {
    /// One row per rate.
    pub rows: Vec<Fig12Row>,
}

/// Fig. 12: MySQL/sysbench-OLTP at low/mid/high request rates.
///
/// The paper's three configurations, expressed with explicit enable
/// masks:
///
/// * baseline — P-states disabled, C1 + C6 enabled;
/// * `No_C6` — C1 only (the vendor recommendation);
/// * AW `C6A` — C6A only ("C1 residency mapped to C6A").
#[derive(Debug, Clone)]
pub struct Fig12 {
    /// Server core count.
    pub cores: usize,
    /// Simulated duration per point.
    pub duration: Nanos,
    /// RNG seed.
    pub seed: u64,
    /// Hardware model the servers are built on.
    pub hw: &'static HardwareModel,
}

impl Default for Fig12 {
    fn default() -> Self {
        Fig12 {
            cores: 10,
            duration: Nanos::from_secs(2.0),
            seed: 42,
            hw: HardwareModel::skylake_sp(),
        }
    }
}

impl Fig12 {
    /// A reduced instance for tests.
    #[must_use]
    pub fn quick() -> Self {
        Fig12 { cores: 4, duration: Nanos::from_millis(600.0), ..Fig12::default() }
    }

    /// Retargets the experiment onto another hardware model.
    #[must_use]
    pub fn with_hw(mut self, hw: &'static HardwareModel) -> Self {
        self.hw = hw;
        self
    }

    fn run(&self, cstates: CStateConfig, rate: MysqlRate) -> RunMetrics {
        // Scale the 10-core rates down for smaller test servers.
        let scale = self.cores as f64 / 10.0;
        let cfg = ServerConfig::for_hw(self.hw, self.cores, NamedConfig::NtBaseline)
            .with_cstates(cstates)
            .with_duration(self.duration);
        SimBuilder::new(cfg, mysql_oltp(rate).scaled_qps(scale), self.seed).run().into_metrics()
    }

    /// Runs all three rates: the flattened `rate × configuration` grid
    /// (nine independent simulations) runs on the ambient
    /// [`SweepExecutor`], then each rate's triple folds into its row.
    #[must_use]
    pub fn run_all(&self) -> Fig12Report {
        let baseline_states = CStateConfig::new([CState::C1, CState::C6], false);
        let no_c6 = CStateConfig::new([CState::C1], false);
        let c6a = CStateConfig::new([CState::C6A], false);
        let configs = [baseline_states, no_c6, c6a];
        let points: Vec<(MysqlRate, CStateConfig)> = MysqlRate::ALL
            .iter()
            .flat_map(|&rate| configs.iter().map(move |c| (rate, c.clone())))
            .collect();
        let metrics = SweepExecutor::current()
            .map(&points, |(rate, cstates)| self.run(cstates.clone(), *rate));
        let rows = metrics
            .chunks_exact(configs.len())
            .zip(MysqlRate::ALL.iter())
            .map(|(runs, &rate)| {
                let (base, lean, aw) = (&runs[0], &runs[1], &runs[2]);
                Fig12Row {
                    rate: rate.to_string(),
                    baseline_residency_pct: [
                        base.residency_of(CState::C0).as_percent(),
                        base.residency_of(CState::C1).as_percent(),
                        base.residency_of(CState::C6).as_percent(),
                    ],
                    no_c6_residency_pct: [
                        lean.residency_of(CState::C0).as_percent(),
                        lean.residency_of(CState::C1).as_percent(),
                    ],
                    tail_improvement_pct: -lean.tail_latency_delta_vs(base) * 100.0,
                    avg_improvement_pct: -lean.mean_latency_delta_vs(base) * 100.0,
                    c6a_power_reduction_pct: aw.power_savings_vs(lean).as_percent(),
                }
            })
            .collect();
        Fig12Report { rows }
    }
}

impl fmt::Display for Fig12Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 12 — MySQL\n{:<6} {:>18} {:>12} {:>8} {:>8} {:>10}",
            "rate", "base C0/C1/C6 %", "noC6 C0/C1 %", "tailΔ%", "avgΔ%", "C6A saveΔ%"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<6} {:>5.0}/{:>5.0}/{:>5.0} {:>8.0}/{:>3.0} {:>8.1} {:>8.1} {:>10.1}",
                r.rate,
                r.baseline_residency_pct[0],
                r.baseline_residency_pct[1],
                r.baseline_residency_pct[2],
                r.no_c6_residency_pct[0],
                r.no_c6_residency_pct[1],
                r.tail_improvement_pct,
                r.avg_improvement_pct,
                r.c6a_power_reduction_pct,
            )?;
        }
        Ok(())
    }
}

/// One Fig. 13 row: Kafka at one rate.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// Rate label (low/high).
    pub rate: String,
    /// Baseline residencies (percent): C0/C1/C6.
    pub baseline_residency_pct: [f64; 3],
    /// Baseline C6 residency (percent) — the headline of Fig. 13a.
    pub c6_residency_pct: f64,
    /// Tail-latency improvement from disabling C6 (percent).
    pub tail_improvement_pct: f64,
    /// Average-latency improvement from disabling C6 (percent).
    pub avg_improvement_pct: f64,
    /// Average-power reduction of C6A versus C6-disabled (percent).
    pub c6a_power_reduction_pct: f64,
}

/// The Fig. 13 report.
#[derive(Debug, Clone)]
pub struct Fig13Report {
    /// One row per rate.
    pub rows: Vec<Fig13Row>,
}

/// Fig. 13: Kafka at low/high request rates, same configuration triple as
/// Fig. 12.
#[derive(Debug, Clone)]
pub struct Fig13 {
    /// Server core count.
    pub cores: usize,
    /// Simulated duration per point.
    pub duration: Nanos,
    /// RNG seed.
    pub seed: u64,
    /// Hardware model the servers are built on.
    pub hw: &'static HardwareModel,
}

impl Default for Fig13 {
    fn default() -> Self {
        Fig13 {
            cores: 10,
            duration: Nanos::from_secs(2.0),
            seed: 42,
            hw: HardwareModel::skylake_sp(),
        }
    }
}

impl Fig13 {
    /// A reduced instance for tests.
    #[must_use]
    pub fn quick() -> Self {
        Fig13 { cores: 4, duration: Nanos::from_millis(600.0), ..Fig13::default() }
    }

    /// Retargets the experiment onto another hardware model.
    #[must_use]
    pub fn with_hw(mut self, hw: &'static HardwareModel) -> Self {
        self.hw = hw;
        self
    }

    fn run(&self, cstates: CStateConfig, rate: KafkaRate) -> RunMetrics {
        let scale = self.cores as f64 / 10.0;
        let cfg = ServerConfig::for_hw(self.hw, self.cores, NamedConfig::NtBaseline)
            .with_cstates(cstates)
            .with_duration(self.duration);
        SimBuilder::new(cfg, kafka(rate).scaled_qps(scale), self.seed).run().into_metrics()
    }

    /// Runs both rates: the flattened `rate × configuration` grid (six
    /// independent simulations) runs on the ambient [`SweepExecutor`].
    #[must_use]
    pub fn run_all(&self) -> Fig13Report {
        let baseline_states = CStateConfig::new([CState::C1, CState::C6], false);
        let no_c6 = CStateConfig::new([CState::C1], false);
        let c6a = CStateConfig::new([CState::C6A], false);
        let configs = [baseline_states, no_c6, c6a];
        let rates = [KafkaRate::Low, KafkaRate::High];
        let points: Vec<(KafkaRate, CStateConfig)> =
            rates.iter().flat_map(|&rate| configs.iter().map(move |c| (rate, c.clone()))).collect();
        let metrics = SweepExecutor::current()
            .map(&points, |(rate, cstates)| self.run(cstates.clone(), *rate));
        let rows = metrics
            .chunks_exact(configs.len())
            .zip(rates.iter())
            .map(|(runs, &rate)| {
                let (base, lean, aw) = (&runs[0], &runs[1], &runs[2]);
                Fig13Row {
                    rate: format!("{rate:?}").to_lowercase(),
                    baseline_residency_pct: [
                        base.residency_of(CState::C0).as_percent(),
                        base.residency_of(CState::C1).as_percent(),
                        base.residency_of(CState::C6).as_percent(),
                    ],
                    c6_residency_pct: base.residency_of(CState::C6).as_percent(),
                    tail_improvement_pct: -lean.tail_latency_delta_vs(base) * 100.0,
                    avg_improvement_pct: -lean.mean_latency_delta_vs(base) * 100.0,
                    c6a_power_reduction_pct: aw.power_savings_vs(lean).as_percent(),
                }
            })
            .collect();
        Fig13Report { rows }
    }
}

impl fmt::Display for Fig13Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 13 — Kafka\n{:<6} {:>18} {:>8} {:>8} {:>10}",
            "rate", "base C0/C1/C6 %", "tailΔ%", "avgΔ%", "C6A saveΔ%"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<6} {:>5.0}/{:>5.0}/{:>5.0} {:>8.1} {:>8.1} {:>10.1}",
                r.rate,
                r.baseline_residency_pct[0],
                r.baseline_residency_pct[1],
                r.baseline_residency_pct[2],
                r.tail_improvement_pct,
                r.avg_improvement_pct,
                r.c6a_power_reduction_pct,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_baseline_reaches_c6() {
        let report = Fig12::quick().run_all();
        assert_eq!(report.rows.len(), 3);
        for r in &report.rows {
            // Paper: ≥40% C6 residency at every rate.
            assert!(
                r.baseline_residency_pct[2] > 30.0,
                "{}: C6 {}%",
                r.rate,
                r.baseline_residency_pct[2]
            );
        }
    }

    #[test]
    fn fig12_c6a_saves_power_over_no_c6() {
        let report = Fig12::quick().run_all();
        for r in &report.rows {
            // Paper: 22–56% reduction.
            assert!(r.c6a_power_reduction_pct > 10.0, "{}: {}%", r.rate, r.c6a_power_reduction_pct);
        }
    }

    #[test]
    fn fig12_disabling_c6_helps_latency() {
        let report = Fig12::quick().run_all();
        // At least at the low rate, dropping the 30 µs C6 exit helps the
        // tail (paper: 4–10%).
        let low = &report.rows[0];
        assert!(low.tail_improvement_pct > -2.0, "{}", low.tail_improvement_pct);
    }

    #[test]
    fn fig13_low_rate_mostly_c6() {
        let report = Fig13::quick().run_all();
        let low = &report.rows[0];
        assert!(low.c6_residency_pct > 50.0, "C6 {}%", low.c6_residency_pct);
        // High rate spends less time in C6 than low rate.
        let high = &report.rows[1];
        assert!(high.c6_residency_pct < low.c6_residency_pct);
    }

    #[test]
    fn fig13_c6a_power_reduction() {
        let report = Fig13::quick().run_all();
        for r in &report.rows {
            // Paper: >56% at both rates (vs the C6-disabled config).
            assert!(r.c6a_power_reduction_pct > 25.0, "{}: {}%", r.rate, r.c6a_power_reduction_pct);
        }
    }
}
