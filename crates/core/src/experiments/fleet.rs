//! Fleet-scale routing analysis: packing vs spreading under Baseline
//! and AW menus.
//!
//! The paper's introduction argues AgileWatts from the datacenter side:
//! latency-critical fleets are provisioned for the peak, so most of the
//! day every server idles — and what the *load balancer* does with that
//! idleness decides which idle states are reachable. This experiment
//! runs the same aggregate load through each routing policy on an
//! [`aw_cluster::FleetSim`] fleet and tabulates the fleet power, tail,
//! and idle-state story per policy × C-state menu.

use aw_cluster::{AutoscalePolicy, FleetConfig, FleetReport, FleetSim, LoadShape, RoutingPolicy};
use aw_cstates::NamedConfig;
use aw_faults::{FaultSpec, FleetFaultSpec};
use aw_server::{HardwareModel, ServerConfig};
use aw_types::Nanos;
use aw_workloads::memcached_etc;

use crate::report::TextTable;

/// The fleet experiment: one policy sweep at a fixed aggregate load.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// Servers behind the balancer.
    pub servers: usize,
    /// Cores per server.
    pub cores: usize,
    /// Aggregate offered load as a fraction of total fleet capacity.
    pub utilization: f64,
    /// Epochs per run.
    pub epochs: usize,
    /// Epoch duration.
    pub epoch: Nanos,
    /// Load shape over the run.
    pub load: LoadShape,
    /// Fleet autoscaler (applied to every policy; spreading opts out by
    /// construction).
    pub autoscale: Option<AutoscalePolicy>,
    /// Fleet p99 SLO target.
    pub slo_p99: Nanos,
    /// Fleet master seed.
    pub seed: u64,
    /// Fleet-level chaos plan (server crashes, rack outages, link
    /// degradation, capacity throttles, unpark failures).
    pub fleet_faults: Option<FleetFaultSpec>,
    /// Per-server micro-fault plan, re-seeded per `(server, epoch)`.
    pub server_faults: Option<FaultSpec>,
    /// Bound each core's run queue (shed + client retry above it).
    pub queue_cap: Option<usize>,
    /// Drop queued requests older than this many microseconds.
    pub request_timeout_us: Option<f64>,
    /// Hardware models cycled across server slots (mixed fleets); empty
    /// keeps every server on the default prototype.
    pub hw: Vec<&'static HardwareModel>,
}

impl Default for Fleet {
    fn default() -> Self {
        Fleet {
            servers: 16,
            cores: 8,
            utilization: 0.25,
            epochs: 8,
            epoch: Nanos::from_millis(50.0),
            load: LoadShape::Diurnal { amplitude: 0.6 },
            autoscale: Some(AutoscalePolicy::default()),
            slo_p99: Nanos::from_micros(500.0),
            seed: 42,
            fleet_faults: None,
            server_faults: None,
            queue_cap: None,
            request_timeout_us: None,
            hw: Vec::new(),
        }
    }
}

/// One (policy, menu) cell of the fleet comparison.
#[derive(Debug, Clone)]
pub struct FleetRow {
    /// Routing policy.
    pub policy: RoutingPolicy,
    /// C-state menu name.
    pub config: String,
    /// Mean fleet power (W).
    pub fleet_power_w: f64,
    /// Mean energy per completed request (µJ).
    pub energy_per_request_uj: f64,
    /// Fleet p99 latency (µs).
    pub p99_us: f64,
    /// Fleet p99.9 latency (µs).
    pub p999_us: f64,
    /// Mean active servers.
    pub avg_active: f64,
    /// PC6 fraction of unparked server-epochs (percent).
    pub pc6_pct: f64,
    /// Agile-state residency on loaded servers (percent).
    pub agile_pct: f64,
    /// SLO burn rate over the run's windows.
    pub slo_burn_rate: f64,
}

impl FleetRow {
    fn from_report(r: &FleetReport) -> Self {
        FleetRow {
            policy: r.policy,
            config: r.config.clone(),
            fleet_power_w: r.avg_fleet_power.as_watts(),
            energy_per_request_uj: r.energy_per_request.as_microjoules(),
            p99_us: r.latency.p99.as_micros(),
            p999_us: r.latency.p999.as_micros(),
            avg_active: r.avg_active,
            pc6_pct: r.pc6_fraction.as_percent(),
            agile_pct: r.agile_residency.as_percent(),
            slo_burn_rate: r.slo_burn_rate(),
        }
    }
}

/// Results of the fleet experiment: one row per policy × menu, plus the
/// full per-run reports for downstream inspection.
#[derive(Debug, Clone)]
pub struct FleetComparison {
    /// Summary rows, policy-major in [`RoutingPolicy::ALL`] order.
    pub rows: Vec<FleetRow>,
    /// The underlying fleet reports, aligned with `rows`.
    pub reports: Vec<FleetReport>,
}

impl FleetComparison {
    /// Renders the comparison as a text table.
    #[must_use]
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Fleet routing comparison",
            &[
                "policy",
                "config",
                "power(W)",
                "uJ/req",
                "p99(us)",
                "p99.9(us)",
                "active",
                "PC6%",
                "agile%",
                "burn",
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.policy.to_string(),
                r.config.clone(),
                format!("{:.1}", r.fleet_power_w),
                format!("{:.1}", r.energy_per_request_uj),
                format!("{:.1}", r.p99_us),
                format!("{:.1}", r.p999_us),
                format!("{:.1}", r.avg_active),
                format!("{:.0}", r.pc6_pct),
                format!("{:.1}", r.agile_pct),
                format!("{:.2}", r.slo_burn_rate),
            ]);
        }
        t
    }
}

impl Fleet {
    /// A reduced instance for tests: 4 × 4-core servers, 3 × 20 ms
    /// epochs.
    #[must_use]
    pub fn quick() -> Self {
        Fleet {
            servers: 4,
            cores: 4,
            epochs: 3,
            epoch: Nanos::from_millis(20.0),
            ..Fleet::default()
        }
    }

    /// The [`FleetConfig`] this experiment runs for one (policy, menu)
    /// cell.
    #[must_use]
    pub fn config(&self, policy: RoutingPolicy, named: NamedConfig) -> FleetConfig {
        let mut server = ServerConfig::new(self.cores, named);
        if let Some(cap) = self.queue_cap {
            server = server.with_queue_cap(cap);
        }
        if let Some(us) = self.request_timeout_us {
            server = server.with_request_timeout(Nanos::from_micros(us));
        }
        let workload = memcached_etc(1_000.0);
        let capacity = self.cores as f64 / workload.mean_service().as_secs();
        let total_qps = self.utilization * capacity * self.servers as f64;
        let mut config = FleetConfig::new(self.servers, server, workload, total_qps)
            .with_epochs(self.epochs, self.epoch)
            .with_policy(policy)
            .with_load(self.load)
            .with_seed(self.seed)
            .with_slo(self.slo_p99)
            .with_hw(self.hw.clone());
        if let Some(autoscale) = self.autoscale {
            config = config.with_autoscale(autoscale);
        }
        if let Some(spec) = &self.fleet_faults {
            config = config.with_fleet_faults(spec.clone());
        }
        if let Some(spec) = &self.server_faults {
            config = config.with_server_faults(spec.clone());
        }
        config
    }

    /// Runs one (policy, menu) cell.
    #[must_use]
    pub fn run_one(&self, policy: RoutingPolicy, named: NamedConfig) -> FleetReport {
        FleetSim::new(self.config(policy, named)).run()
    }

    /// Runs every routing policy under both the legacy Baseline menu and
    /// the AW menu. Each fleet run already fans its server-epochs out on
    /// the ambient executor, so the cells themselves run serially.
    #[must_use]
    pub fn run(&self) -> FleetComparison {
        let mut rows = Vec::new();
        let mut reports = Vec::new();
        for policy in RoutingPolicy::ALL {
            for named in [NamedConfig::Baseline, NamedConfig::Aw] {
                let report = self.run_one(policy, named);
                rows.push(FleetRow::from_report(&report));
                reports.push(report);
            }
        }
        FleetComparison { rows, reports }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_comparison_covers_the_grid() {
        let cmp = Fleet::quick().run();
        assert_eq!(cmp.rows.len(), RoutingPolicy::ALL.len() * 2);
        let row = |policy| {
            let aw = NamedConfig::Aw.to_string();
            cmp.rows.iter().find(|r| r.policy == policy && r.config == aw).unwrap()
        };
        let packed = row(RoutingPolicy::Packing);
        let rr = row(RoutingPolicy::RoundRobin);
        assert!(
            packed.fleet_power_w < rr.fleet_power_w,
            "packing ({:.1} W) should beat round robin ({:.1} W) at 25% load",
            packed.fleet_power_w,
            rr.fleet_power_w
        );
        let table = cmp.table();
        assert!(table.to_string().contains("packing"));
    }
}
