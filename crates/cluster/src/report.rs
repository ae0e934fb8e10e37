//! Fleet-level aggregation: windowed time series, merged latency
//! quantiles, energy, SLO burn, and telemetry counters.

use std::collections::BTreeMap;
use std::fmt;

use aw_faults::FleetFailureArtifact;
use aw_server::{DegradationStats, LatencyStats};
use aw_types::{Joules, MilliWatts, Nanos, Ratio};

use crate::policy::RoutingPolicy;

/// Fleet-level degradation ledger: everything the fault-injection and
/// recovery machinery did to (and for) the fleet, plus the per-server
/// [`DegradationStats`] rolled up across every simulated server-epoch
/// (which earlier fleet reports silently dropped).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetDegradation {
    /// Per-server degradation counters (sheds, timeouts, retries,
    /// breaker trips, …) summed over all simulated server-epochs.
    pub servers: DegradationStats,
    /// Server crashes (including those from rack outages).
    pub crashes: u64,
    /// Correlated rack-scoped outages.
    pub rack_outages: u64,
    /// Successful crash restarts.
    pub restarts: u64,
    /// Failed restart attempts (retried the next epoch).
    pub restart_failures: u64,
    /// Router ejections (crashed or persistently degraded servers).
    pub ejections: u64,
    /// Health re-probes of ejected servers.
    pub probes: u64,
    /// Readmissions after a healthy probe.
    pub readmissions: u64,
    /// Autoscaler unpark attempts that failed.
    pub unpark_failures: u64,
    /// Server-epochs served with a degraded (slow) link.
    pub degraded_server_epochs: u64,
    /// Server-epochs served under a capacity throttle.
    pub throttled_server_epochs: u64,
    /// Requests lost to mid-epoch crashes and re-offered to survivors
    /// in later epochs (jittered backoff).
    pub retried_requests: u64,
    /// Requests dropped at the balancer: no server in rotation, or
    /// retried traffic whose backoff landed past the end of the run.
    pub shed_requests: u64,
}

impl FleetDegradation {
    /// `true` if the fleet saw no fault, ejection, retry, or shed — and
    /// no per-server degradation either.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        *self == FleetDegradation::default()
    }

    /// Field-wise accumulation of one epoch's ledger delta.
    pub(crate) fn absorb(&mut self, d: &FleetDegradation) {
        self.servers += d.servers;
        self.crashes += d.crashes;
        self.rack_outages += d.rack_outages;
        self.restarts += d.restarts;
        self.restart_failures += d.restart_failures;
        self.ejections += d.ejections;
        self.probes += d.probes;
        self.readmissions += d.readmissions;
        self.unpark_failures += d.unpark_failures;
        self.degraded_server_epochs += d.degraded_server_epochs;
        self.throttled_server_epochs += d.throttled_server_epochs;
        self.retried_requests += d.retried_requests;
        self.shed_requests += d.shed_requests;
    }
}

/// One epoch of fleet history — the fleet analogue of the per-server
/// attribution timeline window.
#[derive(Debug, Clone)]
pub struct FleetWindow {
    /// Epoch index.
    pub epoch: usize,
    /// Epoch start time on the fleet clock.
    pub start: Nanos,
    /// Aggregate offered load this epoch (requests/s).
    pub offered_qps: f64,
    /// Requests completed fleet-wide in the epoch's measured window.
    pub completed: u64,
    /// Servers serving load this epoch.
    pub active: usize,
    /// Servers parked (suspended) this epoch.
    pub parked: usize,
    /// Servers that served zero load while unparked (deep package idle).
    pub idle_active: usize,
    /// Park transitions this epoch.
    pub parks: u64,
    /// Unpark transitions this epoch.
    pub unparks: u64,
    /// Average fleet power over the epoch (all packages + parked
    /// standing power + unpark bursts).
    pub fleet_power: MilliWatts,
    /// Merged request-latency summary across every server's samples —
    /// exact nearest-rank quantiles over the pooled samples, not an
    /// average of per-server percentiles.
    pub latency: LatencyStats,
    /// `true` if the epoch's fleet p99 exceeded the SLO target.
    pub slo_violated: bool,
    /// Idle-opportunity recovery across this epoch's loaded servers:
    /// achieved energy savings as a share of the oracle-achievable
    /// savings (see `aw_sleep`), in `[0, 1]`; 1.0 when no loaded server
    /// had anything to recover (all parked or analytically idle).
    pub recovery_ratio: f64,
    /// Servers crashed this epoch: mid-epoch casualties plus servers
    /// still dark from earlier crashes.
    pub crashed: usize,
    /// Servers up but ejected from the router's rotation.
    pub ejected: usize,
    /// Requests lost to crashes this epoch and re-offered to survivors
    /// in later epochs.
    pub retried: u64,
    /// Requests dropped at the balancer this epoch (empty rotation).
    pub shed: u64,
}

impl FleetWindow {
    /// Header line for [`FleetWindow::csv_row`] /
    /// [`FleetReport::timeline_csv`] output, newline-terminated.
    pub const CSV_HEADER: &'static str =
        "epoch,start_ms,offered_qps,completed,active,parked,idle_active,parks,unparks,\
         fleet_power_w,p50_us,p99_us,p999_us,slo_violated,recovery,crashed,ejected,\
         retried,shed\n";

    /// This window as one newline-terminated CSV row. Streamed windows
    /// rendered row by row concatenate to exactly the batch
    /// [`FleetReport::timeline_csv`] body.
    #[must_use]
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.6},{},{},{},{}\n",
            self.epoch,
            self.start.as_millis(),
            self.offered_qps,
            self.completed,
            self.active,
            self.parked,
            self.idle_active,
            self.parks,
            self.unparks,
            self.fleet_power.as_watts(),
            self.latency.p50.as_micros(),
            self.latency.p99.as_micros(),
            self.latency.p999.as_micros(),
            u8::from(self.slo_violated),
            self.recovery_ratio,
            self.crashed,
            self.ejected,
            self.retried,
            self.shed,
        )
    }
}

/// Everything a fleet run produces.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The routing policy that produced this report.
    pub policy: RoutingPolicy,
    /// Fleet size (servers).
    pub servers: usize,
    /// Cores per server.
    pub cores_per_server: usize,
    /// C-state menu name (e.g. `AW`, `Baseline`).
    pub config: String,
    /// Hardware model names cycled across server slots; empty for a
    /// homogeneous fleet running the prototype configuration.
    pub hw: Vec<String>,
    /// Epoch duration.
    pub epoch: Nanos,
    /// Per-epoch history.
    pub windows: Vec<FleetWindow>,
    /// Fleet-wide latency over the whole run (pooled samples).
    pub latency: LatencyStats,
    /// Mean fleet power over the whole run.
    pub avg_fleet_power: MilliWatts,
    /// Total fleet energy over the whole run.
    pub energy: Joules,
    /// Total completions over the whole run.
    pub completed: u64,
    /// Total simulation events processed across every simulated
    /// server-epoch (queue pops plus inline idle-skip chain steps).
    /// Dividing by wall-clock gives the fleet engine throughput tracked
    /// in `BENCH_singlerun.json`.
    pub events: u64,
    /// Mean fleet energy per completed request.
    pub energy_per_request: Joules,
    /// Mean active servers per epoch.
    pub avg_active: f64,
    /// Fleet-wide mean C0 residency over simulated (loaded) servers,
    /// weighted by server-epochs.
    pub c0_residency: Ratio,
    /// Fleet-wide mean agile-state (C6A + C6AE) residency over simulated
    /// servers, weighted by server-epochs.
    pub agile_residency: Ratio,
    /// Fraction of unparked server-epochs whose package sat in PC6.
    pub pc6_fraction: Ratio,
    /// Run-wide idle-opportunity recovery over loaded servers: total
    /// achieved energy savings as a share of the oracle-achievable total
    /// (1.0 when nothing was recoverable).
    pub opportunity_recovery: Ratio,
    /// The p99 SLO target the windows were judged against.
    pub slo_p99: Nanos,
    /// Windows whose fleet p99 violated the target.
    pub slo_violations: usize,
    /// Fleet telemetry counters (`fleet.*`): run totals of the windows'
    /// census and transitions, and the ledger's fault and recovery
    /// counts.
    pub counters: BTreeMap<String, u64>,
    /// Fleet-level degradation ledger: crashes, ejections, retries,
    /// sheds, and the rolled-up per-server [`DegradationStats`].
    pub degradation: FleetDegradation,
    /// Replayable record of the fleet fault events; `Some` only when an
    /// active fleet fault spec was configured.
    pub failure: Option<FleetFailureArtifact>,
}

/// The fleet's telemetry counters: run totals of the windows' census
/// and transitions, and the ledger's fault and recovery counts.
pub(crate) fn fleet_counters(
    windows: &[FleetWindow],
    d: &FleetDegradation,
) -> BTreeMap<String, u64> {
    let sum = |f: fn(&FleetWindow) -> usize| windows.iter().map(f).sum::<usize>() as u64;
    [
        ("fleet.epochs", windows.len() as u64),
        ("fleet.requests_completed", windows.iter().map(|w| w.completed).sum()),
        ("fleet.parks", windows.iter().map(|w| w.parks).sum()),
        ("fleet.unparks", windows.iter().map(|w| w.unparks).sum()),
        ("fleet.server_epochs.loaded", sum(|w| w.active - w.idle_active)),
        ("fleet.server_epochs.idle", sum(|w| w.idle_active)),
        ("fleet.server_epochs.parked", sum(|w| w.parked)),
        ("fleet.server_epochs.crashed", sum(|w| w.crashed)),
        ("fleet.server_epochs.ejected", sum(|w| w.ejected)),
        ("fleet.slo_violations", sum(|w| usize::from(w.slo_violated))),
        ("fleet.crashes", d.crashes),
        ("fleet.rack_outages", d.rack_outages),
        ("fleet.restarts", d.restarts),
        ("fleet.restart_failures", d.restart_failures),
        ("fleet.ejections", d.ejections),
        ("fleet.probes", d.probes),
        ("fleet.readmissions", d.readmissions),
        ("fleet.unpark_failures", d.unpark_failures),
        ("fleet.requests_retried", d.retried_requests),
        ("fleet.requests_shed", d.shed_requests),
    ]
    .into_iter()
    .map(|(name, v)| (name.to_string(), v))
    .collect()
}

impl FleetReport {
    /// Fraction of epochs that violated the SLO — the fleet burn rate.
    #[must_use]
    pub fn slo_burn_rate(&self) -> f64 {
        if self.windows.is_empty() {
            0.0
        } else {
            self.slo_violations as f64 / self.windows.len() as f64
        }
    }

    /// The windowed time series as CSV (fleet analogue of the
    /// attribution timeline export).
    #[must_use]
    pub fn timeline_csv(&self) -> String {
        let mut out = String::from(FleetWindow::CSV_HEADER);
        for w in &self.windows {
            out.push_str(&w.csv_row());
        }
        out
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet: {} × {}-core {} servers, policy {}, {} epochs of {}",
            self.servers,
            self.cores_per_server,
            self.config,
            self.policy,
            self.windows.len(),
            self.epoch
        )?;
        if !self.hw.is_empty() {
            writeln!(f, "  hw:      {} (cycled across server slots)", self.hw.join(", "))?;
        }
        writeln!(
            f,
            "  power:   {:.1} W avg ({:.3} mJ/request over {} requests)",
            self.avg_fleet_power.as_watts(),
            self.energy_per_request.as_microjoules() / 1e3,
            self.completed
        )?;
        writeln!(f, "  latency: {}", self.latency)?;
        writeln!(f, "  engine:  {} simulation events", self.events)?;
        writeln!(
            f,
            "  servers: {:.1} active avg, PC6 {:.0}% of unparked server-epochs, \
             C0 {:.1}% / agile {:.1}% on loaded servers",
            self.avg_active,
            self.pc6_fraction.as_percent(),
            self.c0_residency.as_percent(),
            self.agile_residency.as_percent()
        )?;
        writeln!(
            f,
            "  idle:    {:.1}% of the oracle-achievable idle savings recovered",
            self.opportunity_recovery.as_percent()
        )?;
        let d = &self.degradation;
        // The fleet's own counters; the server ledger has its own line.
        if !(FleetDegradation { servers: DegradationStats::default(), ..*d }).is_clean() {
            writeln!(
                f,
                "  chaos:   {} crash(es) ({} rack outage(s)), {} ejection(s), \
                 {} readmission(s), {} restart(s) (+{} failed), {} unpark failure(s)",
                d.crashes,
                d.rack_outages,
                d.ejections,
                d.readmissions,
                d.restarts,
                d.restart_failures,
                d.unpark_failures
            )?;
            writeln!(
                f,
                "           {} degraded / {} throttled server-epoch(s); \
                 {} request(s) retried, {} shed at the balancer",
                d.degraded_server_epochs,
                d.throttled_server_epochs,
                d.retried_requests,
                d.shed_requests
            )?;
        }
        if !d.servers.is_clean() {
            writeln!(f, "  ledger:  {} over all server-epochs", d.servers)?;
        }
        write!(
            f,
            "  SLO:     p99 ≤ {} violated in {}/{} windows (burn rate {:.2})",
            self.slo_p99,
            self.slo_violations,
            self.windows.len(),
            self.slo_burn_rate()
        )
    }
}
