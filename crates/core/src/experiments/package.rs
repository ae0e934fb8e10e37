//! Package-level idle analysis: what AW's coherent caches cost at the
//! uncore (the paper's footnote 1 scope boundary, and the motivation for
//! the AgilePkgC follow-up it cites as ref [9]).
//!
//! Deep package states (PC6) require every core to be in legacy C6 with
//! flushed caches. A fleet of cores idling in C6A keeps the package
//! pinned at PC2: the cores save watts but the uncore cannot drop. This
//! experiment quantifies that trade for a C6-friendly workload (MySQL)
//! and a C6-hostile one (Memcached).

use aw_cstates::{CState, CStateConfig, NamedConfig};
use aw_server::{HardwareModel, PackageCState, RunMetrics, ServerConfig, SimBuilder, WorkloadSpec};
use aw_types::Nanos;
use aw_workloads::{memcached_etc, mysql_oltp, MysqlRate};

/// One package-analysis row.
#[derive(Debug, Clone)]
pub struct PackageRow {
    /// Workload name.
    pub workload: String,
    /// Configuration label.
    pub config: String,
    /// Package residencies (percent): PC0 / PC2 / PC6.
    pub package_pct: [f64; 3],
    /// Average uncore power (mW).
    pub uncore_mw: f64,
    /// Average per-core power (mW).
    pub core_mw: f64,
}

/// The package-level analysis experiment.
#[derive(Debug, Clone)]
pub struct PackageAnalysis {
    /// Server core count.
    pub cores: usize,
    /// Simulated duration.
    pub duration: Nanos,
    /// RNG seed.
    pub seed: u64,
    /// Hardware model the server is built on (its uncore powers and CCX
    /// topology set what PC2 vs PC6 residency costs).
    pub hw: &'static HardwareModel,
}

impl Default for PackageAnalysis {
    fn default() -> Self {
        PackageAnalysis {
            cores: 10,
            duration: Nanos::from_secs(1.0),
            seed: 42,
            hw: HardwareModel::skylake_sp(),
        }
    }
}

impl PackageAnalysis {
    /// A reduced instance for tests.
    #[must_use]
    pub fn quick() -> Self {
        PackageAnalysis { cores: 4, duration: Nanos::from_millis(400.0), ..Self::default() }
    }

    /// Retargets the experiment onto another hardware model.
    #[must_use]
    pub fn with_hw(mut self, hw: &'static HardwareModel) -> Self {
        self.hw = hw;
        self
    }

    fn run_one(&self, workload: WorkloadSpec, cstates: CStateConfig, label: &str) -> PackageRow {
        let name = workload.name().to_string();
        let cfg = ServerConfig::for_hw(self.hw, self.cores, NamedConfig::NtBaseline)
            .with_cstates(cstates)
            .with_duration(self.duration);
        let m: RunMetrics = SimBuilder::new(cfg, workload, self.seed).run().into_metrics();
        PackageRow {
            workload: name,
            config: label.to_string(),
            package_pct: [
                m.package_residency_of(PackageCState::Pc0).as_percent(),
                m.package_residency_of(PackageCState::Pc2).as_percent(),
                m.package_residency_of(PackageCState::Pc6).as_percent(),
            ],
            uncore_mw: m.avg_uncore_power.as_milliwatts(),
            core_mw: m.avg_core_power.as_milliwatts(),
        }
    }

    /// Runs the analysis: MySQL and Memcached, each under the legacy
    /// C1+C6 baseline and under C6A-only AW — four independent
    /// simulations on the ambient
    /// [`SweepExecutor`](aw_exec::SweepExecutor), in row order.
    #[must_use]
    pub fn run(&self) -> Vec<PackageRow> {
        let scale = self.cores as f64 / 10.0;
        let legacy = CStateConfig::new([CState::C1, CState::C6], false);
        let aw = CStateConfig::new([CState::C6A], false);
        let points = [
            (mysql_oltp(MysqlRate::Low).scaled_qps(scale), legacy.clone(), "C1+C6"),
            (mysql_oltp(MysqlRate::Low).scaled_qps(scale), aw.clone(), "C6A only"),
            (memcached_etc(200_000.0 * scale), legacy, "C1+C6"),
            (memcached_etc(200_000.0 * scale), aw, "C6A only"),
        ];
        aw_exec::SweepExecutor::current().map(&points, |(workload, cstates, label)| {
            self.run_one(workload.clone(), cstates.clone(), label)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mysql_baseline_reaches_pc6_aw_does_not() {
        let rows = PackageAnalysis::quick().run();
        let mysql_legacy = &rows[0];
        let mysql_aw = &rows[1];
        // MySQL under C1+C6 spends real time in PC6...
        assert!(mysql_legacy.package_pct[2] > 5.0, "{mysql_legacy:?}");
        // ...but AW's coherent caches pin the package out of PC6.
        assert_eq!(mysql_aw.package_pct[2], 0.0, "{mysql_aw:?}");
        // AW still reaches PC2 whenever all cores idle.
        assert!(mysql_aw.package_pct[1] > 20.0, "{mysql_aw:?}");
    }

    #[test]
    fn uncore_power_reflects_package_depth() {
        let rows = PackageAnalysis::quick().run();
        let mysql_legacy = &rows[0];
        let mysql_aw = &rows[1];
        // Legacy PC6 residency buys markedly lower uncore power than
        // AW's PC2 — the whole-package cost of coherent caches.
        assert!(
            mysql_aw.uncore_mw > 1.5 * mysql_legacy.uncore_mw,
            "{} vs {}",
            mysql_aw.uncore_mw,
            mysql_legacy.uncore_mw
        );
        // And for a C6-friendly workload, even the cores are cheaper in
        // legacy C6 (0.1 W) than in C6A (0.3 W): for MySQL-like loads
        // AW's win is *latency*, not power — precisely why the paper
        // compares C6A against the C6-*disabled* configuration in
        // Fig. 12, and why AgilePkgC exists.
        assert!(mysql_aw.core_mw > mysql_legacy.core_mw);
    }

    #[test]
    fn memcached_never_reaches_pc6_but_aw_wins_on_cores() {
        let rows = PackageAnalysis::quick().run();
        let mc_legacy = &rows[2];
        let mc_aw = &rows[3];
        // Memcached never reaches PC6 under either configuration...
        assert_eq!(mc_legacy.package_pct[2], 0.0);
        assert_eq!(mc_aw.package_pct[2], 0.0);
        // ...some core is busy a large fraction of the time...
        assert!(mc_legacy.package_pct[0] > 20.0, "{mc_legacy:?}");
        // ...and here C6A halves core power (C1 time re-priced at C6A).
        assert!(mc_aw.core_mw < 0.7 * mc_legacy.core_mw, "{mc_aw:?} vs {mc_legacy:?}");
    }
}
