//! The fleet simulator: N servers behind a front-end load balancer,
//! stepped epoch by epoch.
//!
//! Each epoch the balancer computes one load share per server (see
//! [`RoutingPolicy`]) after the autoscaler has decided which servers are
//! even awake (see [`crate::AutoscalePolicy`]); every server with a
//! non-zero share then runs a full single-server discrete-event
//! simulation at that share. Server-epochs are mutually independent by
//! construction — each derives all randomness from its own
//! `(fleet seed, server, epoch)` stream — so the whole grid fans out on
//! [`SweepExecutor`] and the fleet report is byte-identical at any
//! worker count.
//!
//! Servers with *zero* share are not simulated: an empty server's
//! steady state is closed-form (every core in the menu's deepest state,
//! uncore in PC6 when the menu allows it), and modeling it analytically
//! keeps a 64-server fleet at 30% load as cheap as the ~20 servers that
//! actually carry traffic.
//!
//! # Fleet chaos
//!
//! With [`FleetConfig::with_fleet_faults`] the run proceeds under a
//! deterministic [`FleetFaultPlan`]: servers crash mid-epoch and go
//! dark, racks fail together, links degrade, capacity throttles, and
//! unparks fail. The health/ejection reaction lives in
//! [`crate::health`]; this module handles the traffic consequences —
//! the requests a crashing server drops are re-offered to the survivors
//! in the next one or two epochs (deterministic jittered backoff), and
//! traffic with nowhere to go is shed into the
//! [`FleetDegradation`] ledger. Every fault draw and every retry split
//! is a pure function of `(seed, category, server, epoch)`, so chaotic
//! runs stay byte-identical at any `--jobs` and replay exactly from
//! their [`FleetFailureArtifact`].

use std::f64::consts::TAU;

use aw_cstates::{CState, FreqLevel};
use aw_exec::SweepExecutor;
use aw_faults::{
    FaultPlan, FaultSpec, FleetFailureArtifact, FleetFaultKind, FleetFaultPlan, FleetFaultRecord,
    FleetFaultSpec,
};
use aw_server::{
    HardwareModel, LatencyStats, PackageCState, RunMetrics, ServerConfig, SimBuilder, WorkloadSpec,
};
use aw_sleep::{BreakEven, OpportunitySummary};
use aw_types::{Joules, MilliWatts, Nanos, Ratio};

use crate::autoscaler::{AutoscalePolicy, Autoscaler, ScaleDecision};
use crate::health::{HealthStep, HealthTracker};
use crate::policy::RoutingPolicy;
use crate::report::{fleet_counters, FleetDegradation, FleetReport, FleetWindow};
use crate::stream::{
    residency_shares, FleetEpochEvent, FleetObserver, NullFleetObserver, ServerEpochSnapshot,
    ServerRole,
};

/// How the fleet's aggregate offered load evolves over the run.
#[derive(Debug, Clone, Copy)]
pub enum LoadShape {
    /// Flat at `total_qps` for every epoch.
    Constant,
    /// One sine period over the whole run:
    /// `total_qps × (1 + amplitude · sin(2π · epoch / epochs))` — the
    /// scaled-down diurnal swing the autoscaler exists to track.
    Diurnal {
        /// Peak-to-mean swing, in `[0, 1)`.
        amplitude: f64,
    },
}

impl LoadShape {
    /// The load multiplier for `epoch` of `epochs`.
    #[must_use]
    pub(crate) fn factor(self, epoch: usize, epochs: usize) -> f64 {
        match self {
            LoadShape::Constant => 1.0,
            LoadShape::Diurnal { amplitude } => {
                let phase = TAU * epoch as f64 / epochs.max(1) as f64;
                // Floor keeps `scaled_qps` strictly positive even at
                // amplitude 1.0 troughs.
                (1.0 + amplitude * phase.sin()).max(0.01)
            }
        }
    }
}

/// A full fleet experiment: the server prototype, the workload
/// prototype, and the fleet-level knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of servers behind the balancer.
    pub servers: usize,
    /// Per-server configuration prototype (cores, C-state menu, catalog,
    /// …). Its `duration`/`warmup` are overridden per epoch.
    pub server: ServerConfig,
    /// Per-server workload prototype; each server-epoch runs this
    /// workload rescaled to its routed share.
    pub workload: WorkloadSpec,
    /// Aggregate offered load at load factor 1.0 (requests/s).
    pub total_qps: f64,
    /// Epoch duration — the balancer's and autoscaler's decision period.
    pub epoch: Nanos,
    /// Number of epochs to run.
    pub epochs: usize,
    /// How the balancer splits load across servers.
    pub policy: RoutingPolicy,
    /// Fleet autoscaler; `None` keeps every server unparked.
    pub autoscale: Option<AutoscalePolicy>,
    /// Load evolution over the run.
    pub load: LoadShape,
    /// Fleet master seed; per-(server, epoch) streams are mixed from it.
    pub seed: u64,
    /// Fleet p99 SLO target each epoch window is judged against.
    pub slo_p99: Nanos,
    /// Fleet-level fault injection (crashes, rack outages, link
    /// degradation, throttles, unpark failures); `None` runs fair
    /// weather. An inert spec (`FleetFaultSpec::none()`) is byte-
    /// identical to `None` — the common-random-numbers contract.
    pub fleet_faults: Option<FleetFaultSpec>,
    /// Per-server (in-machine) fault injection applied to every
    /// simulated server-epoch; each derives its own fault seed from the
    /// spec's via the fleet's `(seed, server, epoch)` mixer. `None`
    /// (and an inert spec) leaves the simulations untouched.
    pub server_faults: Option<FaultSpec>,
    /// Hardware models cycled across server slots: server `s` runs the
    /// prototype rehosted onto `hw[s % hw.len()]`, so a two-entry list
    /// builds an alternating Skylake-SP / Zen 2 fleet. Empty (the
    /// default) keeps every server on the prototype as-is — including
    /// any catalog overrides a rehost would discard.
    pub hw: Vec<&'static HardwareModel>,
}

impl FleetConfig {
    /// A fleet with the default knobs: 50 ms epochs × 8 epochs,
    /// round-robin routing, no autoscaler, constant load, seed 42,
    /// 500 µs p99 SLO, no faults.
    #[must_use]
    pub fn new(
        servers: usize,
        server: ServerConfig,
        workload: WorkloadSpec,
        total_qps: f64,
    ) -> Self {
        assert!(servers > 0, "fleet must have at least one server");
        assert!(total_qps > 0.0, "offered load must be positive");
        FleetConfig {
            servers,
            server,
            workload,
            total_qps,
            epoch: Nanos::from_millis(50.0),
            epochs: 8,
            policy: RoutingPolicy::RoundRobin,
            autoscale: None,
            load: LoadShape::Constant,
            seed: 42,
            slo_p99: Nanos::from_micros(500.0),
            fleet_faults: None,
            server_faults: None,
            hw: Vec::new(),
        }
    }

    /// Sets the routing policy.
    #[must_use]
    pub fn with_policy(mut self, policy: RoutingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables the fleet autoscaler.
    #[must_use]
    pub fn with_autoscale(mut self, autoscale: AutoscalePolicy) -> Self {
        self.autoscale = Some(autoscale);
        self
    }

    /// Sets the load shape.
    #[must_use]
    pub fn with_load(mut self, load: LoadShape) -> Self {
        self.load = load;
        self
    }

    /// Sets the epoch grid.
    #[must_use]
    pub fn with_epochs(mut self, epochs: usize, epoch: Nanos) -> Self {
        assert!(epochs > 0, "need at least one epoch");
        assert!(epoch > Nanos::ZERO, "epoch must be positive");
        self.epochs = epochs;
        self.epoch = epoch;
        self
    }

    /// Sets the fleet master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fleet p99 SLO target.
    #[must_use]
    pub fn with_slo(mut self, slo_p99: Nanos) -> Self {
        self.slo_p99 = slo_p99;
        self
    }

    /// Enables fleet-level fault injection under `spec`.
    #[must_use]
    pub fn with_fleet_faults(mut self, spec: FleetFaultSpec) -> Self {
        self.fleet_faults = Some(spec);
        self
    }

    /// Enables per-server fault injection under `spec` for every
    /// simulated server-epoch.
    #[must_use]
    pub fn with_server_faults(mut self, spec: FaultSpec) -> Self {
        self.server_faults = Some(spec);
        self
    }

    /// Cycles the given hardware models across server slots (see the
    /// [`FleetConfig::hw`] field). An empty list keeps the prototype.
    #[must_use]
    pub fn with_hw(mut self, hw: Vec<&'static HardwareModel>) -> Self {
        self.hw = hw;
        self
    }

    /// The concrete configuration for server slot `server`: the
    /// prototype rehosted onto the slot's hardware model, or the
    /// prototype itself when no `hw` list is set.
    #[must_use]
    pub(crate) fn server_config(&self, server: usize) -> ServerConfig {
        if self.hw.is_empty() {
            self.server.clone()
        } else {
            self.server.rehosted(self.hw[server % self.hw.len()])
        }
    }

    /// One fully available server's saturation throughput: `cores /
    /// mean service time`. The capacity the balancer and autoscaler
    /// reason against.
    #[must_use]
    pub(crate) fn capacity_qps(&self) -> f64 {
        self.server.cores as f64 / self.workload.mean_service().as_secs()
    }
}

/// One epoch's routing, scaling, and fault decisions, fixed before any
/// simulation runs.
#[derive(Debug)]
struct EpochPlan {
    offered: f64,
    shares: Vec<f64>,
    /// The health pass; its `ledger` also carries the epoch's unpark
    /// failures, retried requests (lost to mid-epoch crashes, re-offered
    /// in later epochs) and shed requests (empty rotation).
    health: HealthStep,
    scale: ScaleDecision,
}

impl EpochPlan {
    /// What `server` did this epoch; `loaded` says whether it was
    /// simulated.
    fn role(&self, server: usize, loaded: bool) -> ServerRole {
        let h = &self.health;
        if h.crash_phase[server].is_some() || h.dark[server] {
            ServerRole::Crashed
        } else if h.ejected[server] {
            ServerRole::Ejected
        } else if self.scale.availability[server] <= 0.0 {
            ServerRole::Parked
        } else if loaded {
            ServerRole::Loaded
        } else {
            ServerRole::Idle
        }
    }
}

/// splitmix64 finalizer — decorrelates the per-(server, epoch) seed
/// streams from the master seed and from each other.
fn mix_seed(master: u64, server: u64, epoch: u64) -> u64 {
    let mut z = master
        .wrapping_add(server.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(epoch.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Achieved-over-oracle savings ratio in `[0, 1]`, defined as 1.0 when
/// nothing was recoverable (no loaded servers, or zero opportunity).
fn recovery(achieved: Joules, oracle: Joules) -> f64 {
    if oracle.as_joules() <= 0.0 {
        1.0
    } else {
        (achieved.as_joules() / oracle.as_joules()).clamp(0.0, 1.0)
    }
}

/// Summarizes one epoch, the tail of the run's latency buffer, after
/// folding its samples into `run_sum` in record order. The selection
/// reorders only this tail, and the run's quantiles, selected over the
/// whole buffer at the end, are order statistics it cannot change.
fn close_epoch(epoch: &mut [f64], run_sum: &mut f64) -> LatencyStats {
    *run_sum = epoch.iter().fold(*run_sum, |acc, &x| acc + x);
    let sum = epoch.iter().sum();
    LatencyStats::from_slice(epoch, sum)
}

/// The fleet simulator. Build one from a [`FleetConfig`] and call
/// [`FleetSim::run`].
#[derive(Debug)]
pub struct FleetSim {
    config: FleetConfig,
}

impl FleetSim {
    /// Wraps a fleet configuration.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        FleetSim { config }
    }

    /// Runs the whole fleet and aggregates the report.
    ///
    /// Deterministic for a fixed config: epoch plans are computed
    /// serially up front, each epoch's simulated server-epochs fan out
    /// on [`SweepExecutor::current`] and are counted in server order as
    /// their records arrive, and every server-epoch seeds its own RNG
    /// streams — so the report is byte-identical at any `--jobs`.
    #[must_use]
    pub fn run(self) -> FleetReport {
        self.run_observed(&mut NullFleetObserver)
    }

    /// Computes every epoch's routing/scaling/fault plan serially.
    /// Everything non-deterministic-looking in a chaotic fleet run —
    /// crash timing, ejection, retry splits, unpark failures — is fixed
    /// here, before any simulation runs, from pure `(seed, category,
    /// server, epoch)` draws.
    fn plan_epochs(cfg: &FleetConfig, capacity: f64) -> (Vec<EpochPlan>, u64) {
        let fleet_spec = cfg.fleet_faults.clone().unwrap_or_default();
        let fault_plan = FleetFaultPlan::new(fleet_spec.clone());
        let mut health = HealthTracker::new(cfg.servers, &fleet_spec);
        let mut scaler = Autoscaler::new(cfg.autoscale, cfg.servers);
        let epoch_secs = cfg.epoch.as_secs();
        // Retried traffic carried into later epochs (QPS-equivalent);
        // two slots past the end catch retries that outlive the run.
        let mut carry = vec![0.0f64; cfg.epochs + 2];

        let plans = (0..cfg.epochs)
            .map(|e| {
                let mut step = health.step(e, &fault_plan);
                let offered = cfg.total_qps * cfg.load.factor(e, cfg.epochs) + carry[e];

                // Autoscale over the healthy rotation; failed unparks
                // leave their slot dark for the epoch.
                let mut failed_unparks = Vec::new();
                let d = scaler.decide(
                    offered,
                    capacity,
                    cfg.epoch,
                    cfg.policy.wants_all_active(),
                    &step.in_rotation,
                    |s| {
                        if fault_plan.unpark_fails(s, e) {
                            failed_unparks.push(s);
                            false
                        } else {
                            true
                        }
                    },
                );
                for server in failed_unparks {
                    step.events.push(FleetFaultRecord {
                        epoch: e,
                        server,
                        kind: FleetFaultKind::UnparkFailed,
                    });
                }

                // Route over the in-rotation servers with capacity.
                // Compacting to rotation members before calling the
                // policy keeps `shares` oblivious to ejected/dark
                // servers; for a fault-free fleet the compaction is the
                // identity, so shares are bit-identical to the pre-chaos
                // code path.
                let members: Vec<usize> = (0..cfg.servers)
                    .filter(|&s| step.in_rotation[s] && d.availability[s] > 0.0)
                    .collect();
                let mut shares = vec![0.0; cfg.servers];
                let mut shed_qps = 0.0;
                if members.is_empty() {
                    // Nothing to route to: the whole epoch's offered
                    // load is shed at the balancer.
                    shed_qps = offered;
                } else {
                    let avail: Vec<f64> = members.iter().map(|&s| d.availability[s]).collect();
                    let member_shares = cfg.policy.shares(offered, &avail, capacity);
                    for (&s, share) in members.iter().zip(member_shares) {
                        shares[s] = share;
                    }
                }

                // Traffic on a crashing server past its crash point is
                // retried against survivors with deterministic jittered
                // backoff: a `retry_jitter` fraction next epoch, the
                // rest the epoch after.
                let mut retried_qps = 0.0;
                for (s, &share) in shares.iter().enumerate().take(cfg.servers) {
                    if let Some(phase) = step.crash_phase[s] {
                        let lost = share * (1.0 - phase);
                        if lost > 0.0 {
                            let j = fault_plan.retry_jitter(s, e);
                            carry[e + 1] += lost * j;
                            carry[e + 2] += lost * (1.0 - j);
                            retried_qps += lost;
                        }
                    }
                }

                step.ledger.unpark_failures = d.unpark_failures;
                step.ledger.retried_requests = (retried_qps * epoch_secs).round() as u64;
                step.ledger.shed_requests = (shed_qps * epoch_secs).round() as u64;
                EpochPlan { offered, shares, health: step, scale: d }
            })
            .collect();
        // Retries whose backoff landed past the end of the run never
        // find a server: shed, charged to the fleet ledger (they belong
        // to no window).
        let leftover = ((carry[cfg.epochs] + carry[cfg.epochs + 1]) * epoch_secs).round() as u64;
        (plans, leftover)
    }

    /// Runs the fleet while streaming each epoch to `observer` the
    /// moment its server-epoch simulations finish and aggregate.
    ///
    /// Observation is pure: the report is byte-identical to
    /// [`FleetSim::run`] at any worker count. Epochs fan out one at a
    /// time (each epoch's loaded servers still run on every
    /// [`SweepExecutor`] worker), so the observer sees epoch `e` before
    /// epoch `e + 1` starts simulating. Pass the sending half of a
    /// `std::sync::mpsc::sync_channel` to move the events to a consumer
    /// thread with bounded backpressure.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn run_observed(self, observer: &mut dyn FleetObserver) -> FleetReport {
        let cfg = self.config;
        let observe = observer.is_enabled();
        // Routing, scaling and fault decisions, serial and closed-form.
        let (plans, leftover_shed) = Self::plan_epochs(&cfg, cfg.capacity_qps());
        let slots: Vec<Slot> = (0..cfg.servers).map(|s| Slot::new(cfg.server_config(s))).collect();
        let park_power = cfg.autoscale.as_ref().map_or(MilliWatts::ZERO, |p| p.park_power);

        // The latency sum starts at -0.0, the identity of `+`, as a
        // fresh reservoir's does.
        let mut tally = Tally { latency_sum: -0.0, ..Tally::default() };
        let mut windows = Vec::with_capacity(cfg.epochs);
        let mut events = 0u64;
        // Epoch by epoch: simulate the epoch's loaded servers, take the
        // census as their records arrive, stream it, move on.
        for (e, plan) in plans.iter().enumerate() {
            let (health, scale) = (&plan.health, &plan.scale);

            // The census: each server's role, power contribution and
            // sums, in server order.
            let mut snapshots = Vec::with_capacity(if observe { cfg.servers } else { 0 });
            let mut count = |server: usize, run: Option<&ServerEpoch>| {
                let slot = &slots[server];
                let role = plan.role(server, run.is_some());
                let avail = scale.availability[server];
                let crash = health.crash_phase[server];
                let power = match (role, run) {
                    // A mid-epoch crash serves `phase` of the epoch at
                    // its simulated power and is dark (0 W) for the rest.
                    (_, Some(run)) => {
                        let pkg = run.metrics.package_power() * crash.unwrap_or(1.0);
                        if role == ServerRole::Loaded && avail < 1.0 {
                            // Unparking server: part of the epoch at park
                            // power, plus the boot-energy burst.
                            let p = cfg
                                .autoscale
                                .as_ref()
                                .expect("partial availability implies an autoscaler");
                            pkg * avail + p.park_power * (1.0 - avail) + p.unpark_energy / cfg.epoch
                        } else {
                            pkg
                        }
                    }
                    // Crashed while carrying no traffic: idle (or parked)
                    // until the crash point, dark after; 0 W when still
                    // dark from an earlier crash.
                    (ServerRole::Crashed, None) => crash.map_or(MilliWatts::ZERO, |phase| {
                        (if avail > 0.0 { slot.idle_power } else { park_power }) * phase
                    }),
                    (ServerRole::Parked, _) => park_power,
                    // Idle, or ejected (up, out of rotation): deep
                    // package idle.
                    _ => slot.idle_power,
                };
                events += run.map_or(0, |r| r.metrics.events);
                tally.count(role, power, run, slot.idle_pc6);
                if observe {
                    let sim = run.map(|r| (plan.shares[server], &r.metrics, r.opportunity));
                    snapshots.push(ServerEpochSnapshot::new(server, role, power, sim));
                }
            };
            // Servers routed no load are counted as the fold passes them.
            let mut next = 0;
            simulate_epoch(&cfg, &slots, e, plan, |server, run| {
                for idle in next..server {
                    count(idle, None);
                }
                count(server, Some(&run));
                next = server + 1;
            });
            for idle in next..cfg.servers {
                count(idle, None);
            }

            let (epoch, latency) = tally.close_epoch();
            tally.degradation.absorb(&health.ledger);
            let slo_violated = latency.count > 0 && latency.p99 > cfg.slo_p99;
            let role = |r: ServerRole| epoch.roles[r as usize];
            let window = FleetWindow {
                epoch: e,
                start: cfg.epoch * e as f64,
                offered_qps: plan.offered,
                completed: epoch.completed,
                active: role(ServerRole::Loaded) + role(ServerRole::Idle),
                parked: role(ServerRole::Parked),
                idle_active: role(ServerRole::Idle),
                parks: scale.parks,
                unparks: scale.unparks,
                fleet_power: epoch.power,
                latency,
                slo_violated,
                recovery_ratio: recovery(epoch.achieved, epoch.oracle),
                crashed: role(ServerRole::Crashed),
                ejected: role(ServerRole::Ejected),
                retried: health.ledger.retried_requests,
                shed: health.ledger.shed_requests,
            };
            if observe {
                observer.on_epoch(&FleetEpochEvent {
                    window: window.clone(),
                    servers: snapshots,
                    faults: health.events.clone(),
                });
            }
            windows.push(window);
        }
        observer.on_finish();

        let mut degradation = tally.degradation;
        degradation.shed_requests += leftover_shed;
        let failure = cfg.fleet_faults.as_ref().filter(|s| s.is_active()).map(|spec| {
            FleetFailureArtifact::new(
                cfg.seed,
                spec,
                plans.iter().flat_map(|p| p.health.events.iter().copied()).collect(),
            )
        });
        let energy = windows.iter().fold(Joules::ZERO, |acc, w| acc + w.fleet_power * cfg.epoch);
        let completed = windows.iter().map(|w| w.completed).sum::<u64>();
        let active_epochs = windows.iter().map(|w| w.active).sum::<usize>();
        let sim_epochs = tally.sim_epochs.max(1) as f64;
        FleetReport {
            policy: cfg.policy,
            servers: cfg.servers,
            cores_per_server: cfg.server.cores,
            config: cfg.server.named.to_string(),
            // Recorded only when some server actually runs on different
            // silicon than the prototype: `--hw skylake-sp` is then the
            // explicit spelling of the default and reports stay
            // byte-identical to a bare run.
            hw: if cfg.hw.iter().all(|h| std::ptr::eq(*h, cfg.server.hw)) {
                Vec::new()
            } else {
                cfg.hw.iter().map(|h| h.name.to_string()).collect()
            },
            epoch: cfg.epoch,
            latency: LatencyStats::from_slice(&mut tally.latencies, tally.latency_sum),
            avg_fleet_power: energy / (cfg.epoch * cfg.epochs as f64),
            energy,
            completed,
            events,
            energy_per_request: if completed == 0 {
                Joules::ZERO
            } else {
                energy / completed as f64
            },
            avg_active: active_epochs as f64 / cfg.epochs as f64,
            c0_residency: Ratio::new(tally.c0_sum / sim_epochs),
            agile_residency: Ratio::new(tally.agile_sum / sim_epochs),
            pc6_fraction: Ratio::new(tally.pc6_sum / tally.unparked_epochs.max(1) as f64),
            opportunity_recovery: Ratio::new(recovery(tally.achieved, tally.oracle)),
            slo_p99: cfg.slo_p99,
            slo_violations: windows.iter().filter(|w| w.slo_violated).count(),
            counters: fleet_counters(&windows, &degradation),
            degradation,
            failure,
            windows,
        }
    }
}

/// What one server slot's hardware model fixes for the whole run. Slots
/// may host different models (mixed fleets).
struct Slot {
    /// The configuration its simulations clone.
    config: ServerConfig,
    /// Prices its idle intervals with the catalog and C-state menu its
    /// simulations ran with, so a zen2 slot is never audited with
    /// skylake costs.
    breakeven: BreakEven,
    /// Closed-form power of the slot unparked and empty: every core in
    /// the menu's deepest state, the uncore in PC6 when the menu
    /// includes C6 (else PC2: all cores idle but not demotable to
    /// package sleep).
    idle_power: MilliWatts,
    /// Whether that empty package sits in PC6.
    idle_pc6: bool,
}

impl Slot {
    fn new(config: ServerConfig) -> Self {
        let idle_pc6 = config.cstates.is_enabled(CState::C6);
        let deepest = config.cstates.deepest().unwrap_or(CState::C0);
        let core = config.catalog.power(deepest, FreqLevel::P1);
        let uncore =
            config.hw.uncore.of(if idle_pc6 { PackageCState::Pc6 } else { PackageCState::Pc2 });
        Slot {
            breakeven: BreakEven::from_server(&config),
            idle_power: core * config.cores as f64 + uncore,
            idle_pc6,
            config,
        }
    }
}

/// What the census keeps of one simulated server-epoch. The idle log is
/// scored into `opportunity` by the worker that ran the simulation and
/// dropped there.
struct ServerEpoch {
    metrics: RunMetrics,
    /// Measured latencies in ns, completion order.
    latency_samples: Vec<f64>,
    opportunity: OpportunitySummary,
}

/// Simulates epoch `e`'s loaded servers on the executor and hands each
/// server's record to `sink` in server order, as soon as it and every
/// loaded server before it have finished. Each server-epoch owns its
/// seed stream, so `sink` sees the same records at any worker count.
fn simulate_epoch(
    cfg: &FleetConfig,
    slots: &[Slot],
    e: usize,
    plan: &EpochPlan,
    mut sink: impl FnMut(usize, ServerEpoch),
) {
    let proto_qps = cfg.workload.offered_qps();
    let health = &plan.health;
    let loaded: Vec<usize> = (0..cfg.servers).filter(|&s| plan.shares[s] > 0.0).collect();
    let simulate = |_, &server: &usize| {
        let slot = &slots[server];
        let mut workload = cfg.workload.scaled_qps(plan.shares[server] / proto_qps);
        // A degraded link adds latency to every request; a throttle
        // stretches service times by its inverse.
        if let Some(extra) = health.degrade_extra[server] {
            let rtt = workload.network_rtt() + extra;
            workload = workload.with_network_rtt(rtt);
        }
        if let Some(factor) = health.throttle[server] {
            workload = workload.scaled_service(1.0 / factor);
        }
        // A server crashing mid-epoch serves only `phase` of it.
        let phase = health.crash_phase[server].unwrap_or(1.0);
        let config = slot.config.clone().with_duration(cfg.epoch * phase);
        let seed = mix_seed(cfg.seed, server as u64, e as u64);
        let mut builder =
            SimBuilder::new(config, workload, seed).with_latency_samples().with_idle_analysis();
        if let Some(fs) = &cfg.server_faults {
            let mut spec = fs.clone();
            spec.seed = mix_seed(fs.seed, server as u64, e as u64);
            builder = builder.with_faults(FaultPlan::new(spec));
        }
        let mut out = builder.run();
        let intervals = out.idle_intervals.take().unwrap_or_default();
        let latency_samples = out.latency_samples.take().unwrap_or_default();
        ServerEpoch {
            opportunity: OpportunitySummary::compute(&intervals, &slot.breakeven),
            latency_samples,
            // A server-epoch that broke a runtime invariant panics with
            // its replay hint, as every single run does.
            metrics: out.into_metrics(),
        }
    };
    SweepExecutor::current().fold_ordered(&loaded, simulate, |k, run| sink(loaded[k], run));
}

/// One epoch's census sums, folded server by server in index order.
#[derive(Default)]
struct EpochTally {
    power: MilliWatts,
    completed: u64,
    achieved: Joules,
    oracle: Joules,
    /// Servers per role, indexed by `ServerRole as usize`.
    roles: [usize; 5],
}

/// The census sums: the open epoch's, and the run's. Every server adds
/// to them in index order, each `f64` total one term per server, so they
/// round the same way at any worker count.
#[derive(Default)]
struct Tally {
    epoch: EpochTally,
    /// The run's latency samples; each epoch's are the tail it appended
    /// since `epoch_start`.
    latencies: Vec<f64>,
    epoch_start: usize,
    /// The run's latency sum, in record order.
    latency_sum: f64,
    sim_epochs: usize,
    unparked_epochs: usize,
    c0_sum: f64,
    agile_sum: f64,
    pc6_sum: f64,
    achieved: Joules,
    oracle: Joules,
    degradation: FleetDegradation,
}

impl Tally {
    /// Counts one server's epoch. `run` is its record when it was
    /// simulated; `idle_pc6` says whether its
    /// closed-form deep idle reaches package C6.
    fn count(
        &mut self,
        role: ServerRole,
        power: MilliWatts,
        run: Option<&ServerEpoch>,
        idle_pc6: bool,
    ) {
        self.epoch.power += power;
        self.epoch.roles[role as usize] += 1;
        if let Some(run) = run {
            let (m, opportunity) = (&run.metrics, &run.opportunity);
            let (c0, agile) = residency_shares(m);
            self.sim_epochs += 1;
            self.unparked_epochs += 1;
            self.epoch.completed += m.completed;
            self.c0_sum += c0;
            self.agile_sum += agile;
            self.pc6_sum += m.package_residency[2].as_percent() / 100.0;
            self.degradation.servers += m.degradation;
            self.epoch.achieved += opportunity.achieved_savings;
            self.epoch.oracle += opportunity.oracle_savings;
            self.latencies.extend_from_slice(&run.latency_samples);
        } else if matches!(role, ServerRole::Ejected | ServerRole::Idle) {
            self.unparked_epochs += 1;
            self.pc6_sum += if idle_pc6 { 1.0 } else { 0.0 };
        }
    }

    /// Ends the open epoch: adds its sums to the run's and hands back
    /// its tally and latency summary.
    fn close_epoch(&mut self) -> (EpochTally, LatencyStats) {
        let epoch = std::mem::take(&mut self.epoch);
        self.achieved += epoch.achieved;
        self.oracle += epoch.oracle;
        let latency = close_epoch(&mut self.latencies[self.epoch_start..], &mut self.latency_sum);
        self.epoch_start = self.latencies.len();
        (epoch, latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use aw_cstates::NamedConfig;
    use aw_server::DegradationStats;
    use aw_sim::SampleSet;
    use proptest::prelude::*;

    fn fleet(servers: usize, named: NamedConfig, total_qps: f64) -> FleetConfig {
        // Short epochs keep the grid cheap: 4 × 20 ms per server-epoch.
        let workload = WorkloadSpec::poisson("synthetic", 1_000.0, Nanos::from_micros(250.0), 0.6);
        FleetConfig::new(servers, ServerConfig::new(4, named), workload, total_qps)
            .with_epochs(4, Nanos::from_millis(20.0))
    }

    /// A latency-like sample: mostly values spread over eleven decades,
    /// whose sums round differently in different orders, plus `-0.0`,
    /// `0.0` and, rarely, `+inf`.
    fn messy_sample((selector, v): (u8, i32)) -> f64 {
        match selector {
            0 => f64::INFINITY,
            1..=15 => -0.0,
            16..=20 => 0.0,
            _ => f64::from(v).powi(3) * 0.37,
        }
    }

    fn bits(l: LatencyStats) -> ([u64; 5], u64) {
        ([l.mean, l.p50, l.p99, l.p999, l.max].map(|x| x.as_nanos().to_bits()), l.count)
    }

    proptest! {
        /// The run's one latency buffer summarizes, bit for bit, like a
        /// fresh reservoir per epoch and one for the whole run, each
        /// filled in record order: epochs (some empty, some with empty
        /// server-epochs) are appended run by run and closed on their
        /// tail, and the run is summarized over the reordered buffer.
        #[test]
        fn latency_buffer_matches_per_epoch_reservoirs(
            epochs in prop::collection::vec(
                prop::collection::vec(
                    prop::collection::vec((0u8..200, 1i32..5000).prop_map(messy_sample), 0..40),
                    0..4,
                ),
                0..6,
            ),
        ) {
            let mut buffer = Vec::new();
            let mut run_sum = -0.0;
            let mut run = SampleSet::new();
            for epoch in &epochs {
                let start = buffer.len();
                let mut fresh = SampleSet::new();
                for lat in epoch {
                    buffer.extend_from_slice(lat);
                    for &x in lat {
                        fresh.record(x);
                        run.record(x);
                    }
                }
                let got = close_epoch(&mut buffer[start..], &mut run_sum);
                prop_assert_eq!(bits(got), bits(LatencyStats::from_samples(&mut fresh)));
            }
            let got = LatencyStats::from_slice(&mut buffer, run_sum);
            prop_assert_eq!(bits(got), bits(LatencyStats::from_samples(&mut run)));
        }
    }

    #[test]
    fn seed_mixing_decorrelates_neighbours() {
        let a = mix_seed(42, 0, 0);
        let b = mix_seed(42, 1, 0);
        let c = mix_seed(42, 0, 1);
        let d = mix_seed(43, 0, 0);
        assert!(a != b && a != c && a != d && b != c, "stream collision");
    }

    #[test]
    fn report_shape_and_conservation() {
        // 4 servers × 16 kQPS capacity each; 20% aggregate load.
        let report = FleetSim::new(fleet(4, NamedConfig::NtAw, 12_800.0)).run();
        assert_eq!(report.windows.len(), 4);
        assert_eq!(report.servers, 4);
        assert!(report.completed > 0, "fleet completed no requests");
        assert_eq!(report.completed, report.windows.iter().map(|w| w.completed).sum::<u64>());
        assert_eq!(report.counters["fleet.requests_completed"], report.completed);
        assert!(report.avg_fleet_power > MilliWatts::ZERO);
        assert!(!report.latency.is_empty());
        assert!(report.degradation.is_clean(), "fault-free run dirtied the ledger");
        assert!(report.failure.is_none());
    }

    #[test]
    fn packing_consumes_less_than_round_robin_at_low_load() {
        // 25% aggregate load: packing parks ~2/3 of the uncore budget in
        // PC6 while round robin keeps every package at PC0.
        let packed = FleetSim::new(
            fleet(4, NamedConfig::NtAw, 16_000.0).with_policy(RoutingPolicy::Packing),
        )
        .run();
        let spread = FleetSim::new(
            fleet(4, NamedConfig::NtAw, 16_000.0).with_policy(RoutingPolicy::RoundRobin),
        )
        .run();
        assert!(
            packed.avg_fleet_power < spread.avg_fleet_power,
            "packing {} should beat round robin {}",
            packed.avg_fleet_power,
            spread.avg_fleet_power
        );
        assert!(packed.pc6_fraction.as_percent() > 0.0, "packing never reached PC6");
    }

    #[test]
    fn autoscaler_parks_servers_in_the_trough() {
        let report = FleetSim::new(
            fleet(4, NamedConfig::NtAw, 16_000.0)
                .with_load(LoadShape::Diurnal { amplitude: 0.8 })
                .with_autoscale(AutoscalePolicy::default()),
        )
        .run();
        let parked_epochs: u64 = report.counters["fleet.server_epochs.parked"];
        assert!(parked_epochs > 0, "diurnal trough never parked a server");
        assert!(report.counters["fleet.parks"] > 0);
        assert!(report.avg_active < 4.0);
    }

    #[test]
    fn spreading_keeps_the_whole_fleet_awake() {
        let report = FleetSim::new(
            fleet(4, NamedConfig::NtAw, 16_000.0)
                .with_policy(RoutingPolicy::Spreading)
                .with_autoscale(AutoscalePolicy::default()),
        )
        .run();
        assert_eq!(report.counters["fleet.server_epochs.parked"], 0);
        assert!((report.avg_active - 4.0).abs() < 1e-9);
    }

    /// Keeps every streamed epoch, checking the delivery order.
    #[derive(Default)]
    struct Collector {
        events: Vec<FleetEpochEvent>,
        finished: bool,
    }

    impl FleetObserver for Collector {
        fn on_epoch(&mut self, event: &FleetEpochEvent) {
            assert!(!self.finished, "epoch delivered after finish");
            assert_eq!(event.window.epoch, self.events.len(), "epochs out of order");
            self.events.push(event.clone());
        }
        fn on_finish(&mut self) {
            self.finished = true;
        }
    }

    #[test]
    fn streamed_epochs_rebuild_the_fleet_timeline_byte_for_byte() {
        let config = fleet(3, NamedConfig::NtAw, 9_600.0)
            .with_policy(RoutingPolicy::Packing)
            .with_autoscale(AutoscalePolicy::default())
            .with_load(LoadShape::Diurnal { amplitude: 0.8 });
        let batch = FleetSim::new(config.clone()).run();

        let mut collector = Collector::default();
        let streamed = FleetSim::new(config.clone()).run_observed(&mut collector);
        assert!(collector.finished, "observer never finished");
        assert_eq!(
            format!("{batch:?}"),
            format!("{streamed:?}"),
            "observation must not perturb the report"
        );

        let mut csv = String::from(FleetWindow::CSV_HEADER);
        for event in &collector.events {
            assert_eq!(event.servers.len(), config.servers, "snapshot per server");
            assert!(event.faults.is_empty(), "fault-free run produced fault events");
            csv.push_str(&event.window.csv_row());
        }
        assert_eq!(csv, batch.timeline_csv(), "streamed fleet CSV diverged from batch");

        // Roles must mirror the window's census, and loaded servers
        // carry residency + their own p99.
        for event in &collector.events {
            let loaded = event.servers.iter().filter(|s| s.role == ServerRole::Loaded).count();
            let parked = event.servers.iter().filter(|s| s.role == ServerRole::Parked).count();
            assert_eq!(loaded, event.window.active - event.window.idle_active);
            assert_eq!(parked, event.window.parked);
            for s in &event.servers {
                if s.role == ServerRole::Loaded {
                    assert!(s.share_qps > 0.0);
                } else {
                    assert!(s.p99.is_none() && s.share_qps <= 0.0);
                }
            }
        }
    }

    /// The census oracle. A chaotic, autoscaled, diurnal fleet with
    /// server faults, in which every `ServerRole` occurs: each epoch's
    /// snapshots add up to its window, the windows to the run's energy,
    /// and the roles, energy, counters and ledger equal the values of
    /// the per-arm census this one replaced.
    #[test]
    fn census_adds_up_to_its_windows_and_the_pinned_run() {
        let faults = "crash-at=2:1,rack-outage=0.04,rack-size=2,degrade=0.1,throttle=0.1,\
                      unpark-fail=0.3,down-epochs=2";
        let config = fleet(6, NamedConfig::NtAw, 28_800.0)
            .with_epochs(8, Nanos::from_millis(20.0))
            .with_policy(RoutingPolicy::Packing)
            .with_autoscale(AutoscalePolicy::default())
            .with_load(LoadShape::Diurnal { amplitude: 0.5 })
            .with_fleet_faults(FleetFaultSpec::parse(faults).unwrap())
            .with_server_faults(FaultSpec::parse("storm=500,wake-fail=0.01").unwrap());
        let mut collector = Collector::default();
        let report = FleetSim::new(config).run_observed(&mut collector);
        let snapshots = || collector.events.iter().flat_map(|e| &e.servers);

        // Not vacuous: every role occurs, a crashing server carried load,
        // and an unparking server paid its boot burst.
        use ServerRole::{Crashed, Ejected, Idle, Loaded, Parked};
        for role in [Parked, Idle, Loaded, Crashed, Ejected] {
            assert!(snapshots().any(|s| s.role == role), "no {role:?} server-epoch");
        }
        assert!(snapshots().any(|s| s.role == Crashed && s.share_qps > 0.0));
        assert!(report.windows.iter().any(|w| w.unparks > 0));

        let mut energy = Joules::ZERO;
        for (event, w) in collector.events.iter().zip(&report.windows) {
            let power = event.servers.iter().fold(MilliWatts::ZERO, |acc, s| acc + s.power);
            let bits = |p: MilliWatts| p.as_milliwatts().to_bits();
            assert_eq!(bits(power), bits(w.fleet_power), "epoch {} power", w.epoch);
            let count = |role| event.servers.iter().filter(|s| s.role == role).count();
            assert_eq!(
                [count(Loaded), count(Idle), count(Parked), count(Crashed), count(Ejected)],
                [w.active - w.idle_active, w.idle_active, w.parked, w.crashed, w.ejected],
                "epoch {} roles",
                w.epoch
            );
            energy += power * report.epoch;
        }
        assert_eq!(energy.as_joules().to_bits(), report.energy.as_joules().to_bits());

        // The pinned run, one glyph per server role.
        let glyph = |role| match role {
            ServerRole::Parked => 'P',
            ServerRole::Idle => '.',
            ServerRole::Loaded => '#',
            ServerRole::Crashed => 'X',
            ServerRole::Ejected => 'E',
        };
        let roles: Vec<String> = collector
            .events
            .iter()
            .map(|e| e.servers.iter().map(|s| glyph(s.role)).collect())
            .collect();
        let expected =
            ["###PPP", "###.PP", "XX#EPP", "XX#P#P", "XX##XX", "###PXX", "##PPXX", "##PPPX"];
        assert_eq!(roles, expected);
        assert_eq!(report.energy.as_joules().to_bits(), 9.191_597_302_801_71_f64.to_bits());
        let counters = [
            ("fleet.crashes", 4),
            ("fleet.ejections", 5),
            ("fleet.epochs", 8),
            ("fleet.parks", 5),
            ("fleet.probes", 9),
            ("fleet.rack_outages", 2),
            ("fleet.readmissions", 4),
            ("fleet.requests_completed", 3881),
            ("fleet.requests_retried", 348),
            ("fleet.requests_shed", 0),
            ("fleet.restart_failures", 1),
            ("fleet.restarts", 3),
            ("fleet.server_epochs.crashed", 13),
            ("fleet.server_epochs.ejected", 1),
            ("fleet.server_epochs.idle", 1),
            ("fleet.server_epochs.loaded", 18),
            ("fleet.server_epochs.parked", 15),
            ("fleet.slo_violations", 8),
            ("fleet.unpark_failures", 6),
            ("fleet.unparks", 5),
        ];
        let counters: BTreeMap<String, u64> =
            counters.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        assert_eq!(report.counters, counters);
        let degradation = FleetDegradation {
            servers: DegradationStats { faults_injected: 986, ..DegradationStats::default() },
            crashes: 4,
            rack_outages: 2,
            restarts: 3,
            restart_failures: 1,
            ejections: 5,
            probes: 9,
            readmissions: 4,
            unpark_failures: 6,
            degraded_server_epochs: 2,
            throttled_server_epochs: 6,
            retried_requests: 348,
            shed_requests: 0,
        };
        assert_eq!(report.degradation, degradation);
    }

    #[test]
    fn mixed_hw_fleet_is_reproducible_and_reports_models() {
        let hw = vec![HardwareModel::skylake_sp(), HardwareModel::zen2()];
        let cfg = fleet(4, NamedConfig::NtAw, 12_800.0).with_hw(hw);
        let a = FleetSim::new(cfg.clone()).run();
        let b = FleetSim::new(cfg).run();
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "mixed fleet is not reproducible");
        assert_eq!(a.hw, vec!["skylake-sp".to_string(), "zen2".to_string()]);
        assert!(a.completed > 0);
    }

    #[test]
    fn single_skylake_hw_entry_matches_the_prototype_fleet() {
        // Rehosting the (skylake-default) prototype onto skylake-sp is
        // the identity for everything the simulations consume.
        let bare = FleetSim::new(fleet(2, NamedConfig::NtAw, 8_000.0)).run();
        let hosted = FleetSim::new(
            fleet(2, NamedConfig::NtAw, 8_000.0).with_hw(vec![HardwareModel::skylake_sp()]),
        )
        .run();
        assert_eq!(bare.timeline_csv(), hosted.timeline_csv());
        assert_eq!(bare.avg_fleet_power, hosted.avg_fleet_power);
        assert_eq!(bare.energy, hosted.energy);
    }

    #[test]
    fn identical_configs_produce_identical_reports() {
        let a = FleetSim::new(fleet(2, NamedConfig::NtBaseline, 8_000.0)).run();
        let b = FleetSim::new(fleet(2, NamedConfig::NtBaseline, 8_000.0)).run();
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "fleet run is not reproducible");
    }

    #[test]
    fn inert_fault_hooks_are_invisible() {
        // The fleet-level CRN contract: a linked-but-inactive fault
        // plan (fleet- or server-level) must be byte-identical to no
        // fault hook at all.
        let bare = FleetSim::new(fleet(2, NamedConfig::NtAw, 8_000.0)).run();
        let inert_fleet = FleetSim::new(
            fleet(2, NamedConfig::NtAw, 8_000.0).with_fleet_faults(FleetFaultSpec::none()),
        )
        .run();
        let inert_server = FleetSim::new(
            fleet(2, NamedConfig::NtAw, 8_000.0).with_server_faults(FaultSpec::none()),
        )
        .run();
        assert_eq!(format!("{bare:?}"), format!("{inert_fleet:?}"), "inert fleet plan perturbed");
        assert_eq!(format!("{bare:?}"), format!("{inert_server:?}"), "inert server plan perturbed");
    }

    #[test]
    fn scheduled_crash_ejects_recovers_and_fills_the_ledger() {
        let spec = FleetFaultSpec::parse("crash-at=1:0,down-epochs=1").unwrap();
        let config = fleet(3, NamedConfig::NtAw, 9_600.0)
            .with_epochs(6, Nanos::from_millis(20.0))
            .with_fleet_faults(spec);
        let report = FleetSim::new(config).run();

        assert_eq!(report.degradation.crashes, 1);
        assert_eq!(report.degradation.ejections, 1);
        assert_eq!(report.degradation.restarts, 1);
        assert_eq!(report.degradation.readmissions, 1);
        assert!(report.degradation.retried_requests > 0, "lost crash traffic never retried");
        assert_eq!(report.counters["fleet.crashes"], 1);

        // Window census: crash epoch 1 shows the casualty; dark epoch 2
        // keeps it crashed; by the final epoch everyone is back.
        assert_eq!(report.windows[1].crashed, 1);
        assert_eq!(report.windows[2].crashed, 1);
        assert_eq!(report.windows[5].crashed, 0);
        assert_eq!(report.windows[5].active, 3, "fleet never fully recovered");

        // The artifact replays: same seed + parsed spec => same report.
        let artifact = report.failure.as_ref().expect("active faults produce an artifact");
        let kinds: Vec<FleetFaultKind> = artifact.events.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&FleetFaultKind::Crash));
        assert!(kinds.contains(&FleetFaultKind::Eject));
        assert!(kinds.contains(&FleetFaultKind::Restart));
        assert!(kinds.contains(&FleetFaultKind::Readmit));
        let respec = FleetFaultSpec::parse(&artifact.fleet_spec).unwrap();
        let replay = FleetSim::new(
            fleet(3, NamedConfig::NtAw, 9_600.0)
                .with_epochs(6, Nanos::from_millis(20.0))
                .with_seed(artifact.seed)
                .with_fleet_faults(respec),
        )
        .run();
        assert_eq!(format!("{report:?}"), format!("{replay:?}"), "artifact replay diverged");
    }

    #[test]
    fn empty_rotation_sheds_instead_of_panicking() {
        // Every server crashes at epoch 0 and stays down past the end:
        // epochs 1+ have nobody to route to.
        let spec = FleetFaultSpec::parse("crash-at=0:0,crash-at=0:1,down-epochs=8").unwrap();
        let report =
            FleetSim::new(fleet(2, NamedConfig::NtAw, 8_000.0).with_fleet_faults(spec)).run();
        assert!(report.degradation.shed_requests > 0, "dead fleet shed nothing");
        assert_eq!(report.windows[1].active, 0);
        assert_eq!(report.windows[1].crashed, 2);
        assert!(report.windows[1].shed > 0);
    }
}
