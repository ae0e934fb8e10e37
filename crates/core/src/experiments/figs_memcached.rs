//! The Memcached figure experiments: Figs. 8, 9, 10, and 11.

use std::fmt;

use aw_cstates::{CState, NamedConfig};
use aw_exec::SweepExecutor;
use aw_power::AwTransform;
use aw_server::{HardwareModel, RunMetrics, ServerConfig, SimBuilder};
use aw_types::Nanos;
use aw_workloads::memcached_etc;

use crate::report::Series;

/// Shared sweep parameters for the Memcached figures.
#[derive(Debug, Clone)]
pub struct SweepParams {
    /// Offered loads (requests/s).
    pub qps: Vec<f64>,
    /// Server core count.
    pub cores: usize,
    /// Simulated duration per point.
    pub duration: Nanos,
    /// RNG seed.
    pub seed: u64,
    /// Hardware model every sweep point simulates (menus, powers,
    /// latencies, and the Fig. 8d scalability frequency pair).
    pub hw: &'static HardwareModel,
}

impl Default for SweepParams {
    fn default() -> Self {
        SweepParams {
            qps: vec![100e3, 300e3, 500e3, 700e3, 900e3, 1.1e6, 1.3e6],
            cores: 10,
            duration: Nanos::from_millis(400.0),
            seed: 42,
            hw: HardwareModel::skylake_sp(),
        }
    }
}

impl SweepParams {
    /// A reduced sweep for tests and doctests.
    #[must_use]
    pub fn quick() -> Self {
        SweepParams {
            qps: vec![60e3, 400e3],
            cores: 4,
            duration: Nanos::from_millis(60.0),
            seed: 42,
            hw: HardwareModel::skylake_sp(),
        }
    }

    /// Retargets the sweep onto another hardware model.
    #[must_use]
    pub fn with_hw(mut self, hw: &'static HardwareModel) -> Self {
        self.hw = hw;
        self
    }

    fn run(&self, named: NamedConfig, qps: f64) -> RunMetrics {
        let cfg = ServerConfig::for_hw(self.hw, self.cores, named).with_duration(self.duration);
        SimBuilder::new(cfg, memcached_etc(qps), self.seed).run().into_metrics()
    }

    fn run_scaled_service(&self, named: NamedConfig, qps: f64, factor: f64) -> RunMetrics {
        let cfg = ServerConfig::for_hw(self.hw, self.cores, named).with_duration(self.duration);
        SimBuilder::new(cfg, memcached_etc(qps).scaled_service(factor), self.seed)
            .run()
            .into_metrics()
    }
}

/// One Fig. 8 sweep point.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Offered load.
    pub qps: f64,
    /// Baseline residencies (Fig. 8a), percent: C0/C1/C1E/C6.
    pub residency_pct: [f64; 4],
    /// AW average-power reduction, direct simulation (Fig. 8b).
    pub power_savings_pct: f64,
    /// AW average-power reduction via the paper's Eq. 3 model transform.
    pub model_savings_pct: f64,
    /// Average server-side latency change (positive = degradation).
    pub avg_latency_delta_pct: f64,
    /// p99 server-side latency change.
    pub tail_latency_delta_pct: f64,
    /// Worst-case server response degradation (a C-state transition on
    /// every query, Fig. 8c).
    pub worst_case_server_delta_pct: f64,
    /// Expected-case server response degradation (observed transitions).
    pub expected_server_delta_pct: f64,
    /// Expected-case end-to-end degradation (network-dominated).
    pub expected_e2e_delta_pct: f64,
}

/// The Fig. 8 report.
#[derive(Debug, Clone)]
pub struct Fig8Report {
    /// Sweep rows.
    pub rows: Vec<Fig8Row>,
    /// Fig. 8d: performance gain of 2.2 GHz over 2.0 GHz, percent vs QPS.
    pub scalability: Series,
}

/// Fig. 8: AW versus the baseline configuration (P-states disabled, Turbo
/// and C-states enabled) across request rates.
#[derive(Debug, Clone)]
pub struct Fig8 {
    params: SweepParams,
}

impl Fig8 {
    /// Creates the experiment.
    #[must_use]
    pub fn new(params: SweepParams) -> Self {
        Fig8 { params }
    }

    /// Runs the sweep. Load points are independent simulations, so they
    /// run on the ambient [`SweepExecutor`]; results are assembled in
    /// load order regardless of worker count.
    #[must_use]
    pub fn run(&self) -> Fig8Report {
        let points = self.executor_points();
        let results = SweepExecutor::current().map(&points, |&qps| self.run_point(qps));
        let mut rows = Vec::with_capacity(results.len());
        let (slow, fast) = self.params.hw.scal_freqs;
        let mut scalability = Series::new(format!("{slow:.1}→{fast:.1} GHz gain %"));
        for (row, (qps, gain)) in results {
            rows.push(row);
            scalability.push(qps, gain);
        }
        Fig8Report { rows, scalability }
    }

    fn executor_points(&self) -> Vec<f64> {
        self.params.qps.clone()
    }

    /// One self-contained sweep point: the three simulations at `qps`
    /// plus the Eq. 3 model transform, returning the Fig. 8a–c row and
    /// the Fig. 8d scalability sample.
    fn run_point(&self, qps: f64) -> (Fig8Row, (f64, f64)) {
        let baseline = self.params.run(NamedConfig::Baseline, qps);
        let aw = self.params.run(NamedConfig::Aw, qps);

        // The paper's Eq. 3 methodology on the measured baseline.
        let transform = AwTransform::new(
            memcached_etc(qps).frequency_scalability(),
            baseline.transitions_per_second() / self.params.cores as f64,
        );
        let catalog = self.params.hw.catalog();
        let p_base =
            aw_power::average_power(&baseline.residencies, &catalog, aw_cstates::FreqLevel::P1);
        let p_model =
            transform.average_power(&baseline.residencies, &catalog, aw_cstates::FreqLevel::P1);

        // Fig. 8c: worst case charges the extra AW transition latency
        // (the model's retention wake-up, ~100 ns on Skylake-SP) plus
        // the 1% frequency stretch to *every* query; the expected case
        // charges only the transitions that actually happened
        // (transitions / completed queries).
        let extra = self.params.hw.aw_wake_extra().as_nanos();
        let mean_lat = baseline.server_latency.mean.as_nanos().max(1.0);
        let freq_stretch_ns = 0.01
            * memcached_etc(qps).frequency_scalability()
            * baseline.server_latency.mean.as_nanos();
        let worst = (extra + freq_stretch_ns) / mean_lat * 100.0;
        let transitions_per_query = if baseline.completed == 0 {
            0.0
        } else {
            let total: u64 = baseline.transitions.values().sum();
            total as f64 / baseline.completed as f64
        };
        let expected = (extra * transitions_per_query + freq_stretch_ns) / mean_lat * 100.0;
        let e2e_mean = baseline.end_to_end_latency.mean.as_nanos().max(1.0);
        let expected_e2e = (extra * transitions_per_query + freq_stretch_ns) / e2e_mean * 100.0;

        let row = Fig8Row {
            qps,
            residency_pct: [
                baseline.residency_of(CState::C0).as_percent(),
                baseline.residency_of(CState::C1).as_percent(),
                baseline.residency_of(CState::C1E).as_percent(),
                baseline.residency_of(CState::C6).as_percent(),
            ],
            power_savings_pct: aw.power_savings_vs(&baseline).as_percent(),
            model_savings_pct: (1.0 - p_model / p_base) * 100.0,
            avg_latency_delta_pct: aw.mean_latency_delta_vs(&baseline) * 100.0,
            tail_latency_delta_pct: aw.tail_latency_delta_vs(&baseline) * 100.0,
            worst_case_server_delta_pct: worst,
            expected_server_delta_pct: expected,
            expected_e2e_delta_pct: expected_e2e,
        };

        // Fig. 8d: stretch service as if the cores ran at the model's
        // slow scalability frequency instead of the fast one.
        let s = memcached_etc(qps).frequency_scalability();
        let (slow_ghz, fast_ghz) = self.params.hw.scal_freqs;
        let slow_factor = 1.0 + s * (fast_ghz / slow_ghz - 1.0);
        let slow = self.params.run_scaled_service(NamedConfig::Baseline, qps, slow_factor);
        let gain = (slow.server_latency.mean.as_nanos()
            / baseline.server_latency.mean.as_nanos().max(1.0)
            - 1.0)
            * 100.0;
        (row, (qps, gain))
    }
}

impl fmt::Display for Fig8Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 8 — Memcached, AW vs baseline\n\
             {:>9}  {:>22}  {:>7}  {:>7}  {:>7}  {:>7}  {:>7}  {:>7}",
            "QPS", "C0/C1/C1E/C6 %", "saveS", "saveM", "avgΔ%", "p99Δ%", "worst%", "expect%"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>9.0}  {:>4.0}/{:>4.0}/{:>4.0}/{:>4.0}       {:>7.1}  {:>7.1}  {:>7.2}  {:>7.2}  {:>7.2}  {:>7.2}",
                r.qps,
                r.residency_pct[0],
                r.residency_pct[1],
                r.residency_pct[2],
                r.residency_pct[3],
                r.power_savings_pct,
                r.model_savings_pct,
                r.avg_latency_delta_pct,
                r.tail_latency_delta_pct,
                r.worst_case_server_delta_pct,
                r.expected_server_delta_pct,
            )?;
        }
        writeln!(f, "{}", self.scalability)
    }
}

/// One Fig. 9 row: a tuned configuration at one load point.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Configuration name.
    pub config: String,
    /// Offered load.
    pub qps: f64,
    /// Mean server-side latency (µs).
    pub avg_latency_us: f64,
    /// p99 server-side latency (µs).
    pub tail_latency_us: f64,
    /// Package power (cores + uncore), W.
    pub package_power_w: f64,
    /// Residencies (percent): C0/C1/C1E/C6.
    pub residency_pct: [f64; 4],
}

/// The Fig. 9 report.
#[derive(Debug, Clone)]
pub struct Fig9Report {
    /// Rows, grouped by configuration then QPS.
    pub rows: Vec<Fig9Row>,
}

/// Fig. 9: the three tuned (Turbo-disabled) configurations.
#[derive(Debug, Clone)]
pub struct Fig9 {
    params: SweepParams,
}

impl Fig9 {
    /// The three configurations of Fig. 9.
    pub(crate) const CONFIGS: [NamedConfig; 3] =
        [NamedConfig::NtBaseline, NamedConfig::NtNoC6, NamedConfig::NtNoC6NoC1e];

    /// Creates the experiment.
    #[must_use]
    pub fn new(params: SweepParams) -> Self {
        Fig9 { params }
    }

    /// Runs the sweep: the flattened `config × qps` grid runs on the
    /// ambient [`SweepExecutor`], rows landing in grid order.
    #[must_use]
    pub fn run(&self) -> Fig9Report {
        let points: Vec<(NamedConfig, f64)> = Self::CONFIGS
            .into_iter()
            .flat_map(|named| self.params.qps.iter().map(move |&qps| (named, qps)))
            .collect();
        let rows = SweepExecutor::current().map(&points, |&(named, qps)| {
            let m = self.params.run(named, qps);
            Fig9Row {
                config: named.to_string(),
                qps,
                avg_latency_us: m.server_latency.mean.as_micros(),
                tail_latency_us: m.server_latency.p99.as_micros(),
                package_power_w: m.package_power().as_watts(),
                residency_pct: [
                    m.residency_of(CState::C0).as_percent(),
                    m.residency_of(CState::C1).as_percent(),
                    m.residency_of(CState::C1E).as_percent(),
                    m.residency_of(CState::C6).as_percent(),
                ],
            }
        });
        Fig9Report { rows }
    }
}

impl fmt::Display for Fig9Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 9 — tuned configurations\n{:<18} {:>9} {:>9} {:>9} {:>8}  C0/C1/C1E/C6 %",
            "config", "QPS", "avg µs", "p99 µs", "pkg W"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<18} {:>9.0} {:>9.2} {:>9.2} {:>8.2}  {:>3.0}/{:>3.0}/{:>3.0}/{:>3.0}",
                r.config,
                r.qps,
                r.avg_latency_us,
                r.tail_latency_us,
                r.package_power_w,
                r.residency_pct[0],
                r.residency_pct[1],
                r.residency_pct[2],
                r.residency_pct[3],
            )?;
        }
        Ok(())
    }
}

/// One Fig. 10 row: AW versus one tuned configuration at one load.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// The tuned configuration AW is compared against.
    pub config: String,
    /// Offered load.
    pub qps: f64,
    /// AW power reduction (percent, positive = AW lower power).
    pub power_reduction_pct: f64,
    /// AW average-latency reduction (percent, positive = AW faster).
    pub avg_latency_reduction_pct: f64,
    /// AW p99-latency reduction.
    pub tail_latency_reduction_pct: f64,
}

/// The Fig. 10 report.
#[derive(Debug, Clone)]
pub struct Fig10Report {
    /// Rows, grouped by configuration then QPS.
    pub rows: Vec<Fig10Row>,
}

/// Fig. 10: AW (Turbo disabled, C6A/C6AE replacing C1/C1E) against the
/// three tuned configurations.
#[derive(Debug, Clone)]
pub struct Fig10 {
    params: SweepParams,
}

impl Fig10 {
    /// Creates the experiment.
    #[must_use]
    pub fn new(params: SweepParams) -> Self {
        Fig10 { params }
    }

    /// Runs the sweep. Per the paper's Sec. 7.2 analysis, AW's design
    /// point replaces the time a tuned configuration spends in *both* C1
    /// and C1E with the single C6A state ("a new C-state that consumes
    /// similar (or lower) power to C1E but with a transition time that is
    /// close to C1"): that is where the tail-latency gains over
    /// C1E-enabled configurations come from. C6 stays as the tuned
    /// configuration had it.
    #[must_use]
    pub fn run(&self) -> Fig10Report {
        let points: Vec<(f64, NamedConfig)> = self
            .params
            .qps
            .iter()
            .flat_map(|&qps| Fig9::CONFIGS.into_iter().map(move |named| (qps, named)))
            .collect();
        let rows = SweepExecutor::current().map(&points, |&(qps, named)| {
            let tuned = self.params.run(named, qps);
            let tuned_mask = named.config();
            let mut aw_states = vec![aw_cstates::CState::C6A];
            if tuned_mask.is_enabled(aw_cstates::CState::C6) {
                aw_states.push(aw_cstates::CState::C6);
            }
            let twin_mask = aw_cstates::CStateConfig::new(aw_states, tuned_mask.turbo());
            let cfg = ServerConfig::for_hw(self.params.hw, self.params.cores, NamedConfig::NtAw)
                .with_cstates(twin_mask)
                .with_duration(self.params.duration);
            let aw =
                SimBuilder::new(cfg, memcached_etc(qps), self.params.seed).run().into_metrics();
            Fig10Row {
                config: named.to_string(),
                qps,
                power_reduction_pct: aw.power_savings_vs(&tuned).as_percent(),
                avg_latency_reduction_pct: -aw.mean_latency_delta_vs(&tuned) * 100.0,
                tail_latency_reduction_pct: -aw.tail_latency_delta_vs(&tuned) * 100.0,
            }
        });
        Fig10Report { rows }
    }
}

impl fmt::Display for Fig10Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 10 — AW vs tuned configurations\n{:<18} {:>9} {:>8} {:>8} {:>8}",
            "vs config", "QPS", "powerΔ%", "avgΔ%", "p99Δ%"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<18} {:>9.0} {:>8.1} {:>8.2} {:>8.2}",
                r.config,
                r.qps,
                r.power_reduction_pct,
                r.avg_latency_reduction_pct,
                r.tail_latency_reduction_pct
            )?;
        }
        Ok(())
    }
}

/// The Fig. 11 report: latency for the Turbo-interplay configurations.
#[derive(Debug, Clone)]
pub struct Fig11Report {
    /// `(config, qps, avg µs, p99 µs, turbo busy fraction)` rows.
    pub rows: Vec<(String, f64, f64, f64, f64)>,
}

impl Fig11Report {
    /// The mean p99 latency of a configuration across the sweep.
    #[must_use]
    pub fn mean_p99(&self, config: &str) -> f64 {
        let xs: Vec<f64> =
            self.rows.iter().filter(|(c, ..)| c == config).map(|&(_, _, _, p99, _)| p99).collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }

    /// The mean turbo-busy fraction of a configuration.
    #[must_use]
    pub fn mean_turbo(&self, config: &str) -> f64 {
        let xs: Vec<f64> =
            self.rows.iter().filter(|(c, ..)| c == config).map(|&(.., t)| t).collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }
}

/// Fig. 11: the effect of idle states on Turbo performance.
#[derive(Debug, Clone)]
pub struct Fig11 {
    params: SweepParams,
}

impl Fig11 {
    /// The six configurations of Fig. 11 (four legacy + the two AW
    /// variants).
    pub(crate) const CONFIGS: [NamedConfig; 6] = [
        NamedConfig::TNoC6,
        NamedConfig::NtNoC6,
        NamedConfig::TNoC6NoC1e,
        NamedConfig::NtNoC6NoC1e,
        NamedConfig::TC6aNoC6NoC1e,
        NamedConfig::NtC6aNoC6NoC1e,
    ];

    /// Creates the experiment.
    #[must_use]
    pub fn new(params: SweepParams) -> Self {
        Fig11 { params }
    }

    /// Runs the sweep on the ambient [`SweepExecutor`].
    #[must_use]
    pub fn run(&self) -> Fig11Report {
        let points: Vec<(NamedConfig, f64)> = Self::CONFIGS
            .into_iter()
            .flat_map(|named| self.params.qps.iter().map(move |&qps| (named, qps)))
            .collect();
        let rows = SweepExecutor::current().map(&points, |&(named, qps)| {
            let m = self.params.run(named, qps);
            (
                named.to_string(),
                qps,
                m.server_latency.mean.as_micros(),
                m.server_latency.p99.as_micros(),
                m.turbo_fraction.get(),
            )
        });
        Fig11Report { rows }
    }
}

impl fmt::Display for Fig11Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 11 — Turbo interplay\n{:<22} {:>9} {:>9} {:>9} {:>7}",
            "config", "QPS", "avg µs", "p99 µs", "turbo"
        )?;
        for (c, qps, avg, p99, t) in &self.rows {
            writeln!(f, "{c:<22} {qps:>9.0} {avg:>9.2} {p99:>9.2} {t:>7.2}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_savings_shrink_with_load() {
        let report = Fig8::new(SweepParams::quick()).run();
        assert_eq!(report.rows.len(), 2);
        let low = &report.rows[0];
        let high = &report.rows[1];
        assert!(low.power_savings_pct > high.power_savings_pct);
        // Low load: substantial savings (paper: up to ~38%).
        assert!(low.power_savings_pct > 15.0, "{}", low.power_savings_pct);
        // Model and simulation should roughly agree on the trend.
        assert!(low.model_savings_pct > 10.0);
        // Worst-case ≥ expected-case degradation; e2e is network-diluted.
        for r in &report.rows {
            assert!(r.worst_case_server_delta_pct >= r.expected_server_delta_pct - 1e-9);
            assert!(r.expected_e2e_delta_pct < r.expected_server_delta_pct);
        }
    }

    #[test]
    fn fig8_scalability_positive() {
        let report = Fig8::new(SweepParams::quick()).run();
        for &(_, gain) in &report.scalability.points {
            assert!(gain > 0.0, "gain {gain}");
            assert!(gain < 15.0, "gain {gain}");
        }
    }

    #[test]
    fn fig9_no_c1e_no_c6_is_fast_but_hot() {
        let report = Fig9::new(SweepParams::quick()).run();
        let of_config = |name: &str| -> Vec<&Fig9Row> {
            report.rows.iter().filter(|r| r.config == name).collect()
        };
        let lean = of_config("NT_No_C6,No_C1E");
        let base = of_config("NT_Baseline");
        let mean = |rows: &[&Fig9Row], f: fn(&Fig9Row) -> f64| {
            rows.iter().map(|r| f(r)).sum::<f64>() / rows.len() as f64
        };
        // Disabling C1E/C6 lowers tail latency but raises power.
        assert!(mean(&lean, |r| r.tail_latency_us) <= mean(&base, |r| r.tail_latency_us) * 1.05);
        assert!(mean(&lean, |r| r.package_power_w) > mean(&base, |r| r.package_power_w));
        // And its cores sit exclusively in C1 when idle.
        for r in &lean {
            assert_eq!(r.residency_pct[2], 0.0);
            assert_eq!(r.residency_pct[3], 0.0);
        }
    }

    #[test]
    fn fig10_aw_wins_on_power() {
        let report = Fig10::new(SweepParams::quick()).run();
        for r in &report.rows {
            assert!(r.power_reduction_pct > 0.0, "{}: {}", r.config, r.power_reduction_pct);
            // Latency stays within a few percent either way.
            assert!(
                r.tail_latency_reduction_pct > -10.0,
                "{}: {}",
                r.config,
                r.tail_latency_reduction_pct
            );
        }
    }

    #[test]
    fn fig11_aw_enables_turbo() {
        let report = Fig11::new(SweepParams::quick()).run();
        // Turbo-enabled AW keeps turbo while no-turbo configs have none.
        assert!(report.mean_turbo("T_C6A,No_C6,No_C1E") > 0.3);
        assert_eq!(report.mean_turbo("NT_No_C6"), 0.0);
        // Turbo lowers average latency vs its NT sibling.
        assert!(
            report.mean_p99("T_C6A,No_C6,No_C1E") <= report.mean_p99("NT_C6A,No_C6,No_C1E") * 1.02
        );
    }
}
