//! Streaming fleet observation: per-epoch events pushed while the
//! fleet run is in flight.
//!
//! A [`FleetObserver`] receives one [`FleetEpochEvent`] per epoch as
//! soon as that epoch's server-epoch simulations finish and aggregate —
//! the event carries the exact [`FleetWindow`] the final report will
//! contain plus one [`ServerEpochSnapshot`] per server, which the batch
//! path never materializes. A std [`SyncSender`] is an observer too,
//! so a bounded (backpressured) `sync_channel` moves the events to a
//! consumer thread.
//!
//! Determinism contract: observation is pure. The events are built from
//! clones of values the aggregation loop computes anyway, in the same
//! order, and the fan-out grid is unchanged — a run observed through
//! any `FleetObserver` produces a byte-identical [`FleetReport`] to an
//! unobserved run at any worker count.
//!
//! [`FleetReport`]: crate::FleetReport

use std::sync::mpsc::SyncSender;

use aw_cstates::CState;
use aw_faults::FleetFaultRecord;
use aw_server::{DegradationStats, RunMetrics};
use aw_sleep::OpportunitySummary;
use aw_types::{MilliWatts, Nanos};

use crate::report::FleetWindow;

/// What one server was doing during one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerRole {
    /// Suspended by the autoscaler: only standing park power.
    Parked,
    /// Unparked but routed zero load: closed-form deep package idle.
    Idle,
    /// Routed a non-zero share and simulated in full.
    Loaded,
    /// Crashed: died mid-epoch (serving part of it) or still dark from
    /// an earlier crash.
    Crashed,
    /// Up but ejected from the router's rotation, awaiting a healthy
    /// re-probe; idles at deep package sleep.
    Ejected,
}

impl ServerRole {}

/// One server's slice of one fleet epoch.
#[derive(Debug, Clone)]
pub struct ServerEpochSnapshot {
    /// Server index in the fleet.
    pub server: usize,
    /// Whether the server was parked, idle, or loaded this epoch.
    pub role: ServerRole,
    /// Load routed to this server (requests/s); zero unless loaded.
    pub share_qps: f64,
    /// The server's power contribution to the fleet epoch, including
    /// park standing power and unpark bursts.
    pub power: MilliWatts,
    /// This server's own epoch p99 (exact nearest-rank over its
    /// samples); `None` unless loaded with at least one completion.
    pub p99: Option<Nanos>,
    /// C0 residency share in `[0, 1]`; zero unless loaded.
    pub c0_share: f64,
    /// Agile-state (C6A + C6AE) residency share in `[0, 1]`; zero
    /// unless loaded.
    pub agile_share: f64,
    /// Fault/degradation counters from this server's epoch simulation.
    /// Per-epoch values (each server-epoch is an independent sim), not
    /// run-cumulative.
    pub counters: DegradationStats,
    /// Idle-opportunity sums from this server's epoch simulation:
    /// achieved vs. oracle-achievable energy savings and sleepable idle
    /// time (see `aw_sleep::OpportunitySummary`). Zero — and therefore
    /// `recovery() == 1.0` by the no-opportunity convention — for parked
    /// and analytically-idled servers, which run no simulation.
    pub opportunity: OpportunitySummary,
}

impl ServerEpochSnapshot {
    /// One server's snapshot. `sim` carries the routed load, run metrics
    /// and idle-opportunity sums of a server simulated this epoch; a
    /// server that ran no simulation has no load, residency or counters.
    pub(crate) fn new(
        server: usize,
        role: ServerRole,
        power: MilliWatts,
        sim: Option<(f64, &RunMetrics, OpportunitySummary)>,
    ) -> Self {
        let mut snapshot = ServerEpochSnapshot {
            server,
            role,
            share_qps: 0.0,
            power,
            p99: None,
            c0_share: 0.0,
            agile_share: 0.0,
            counters: DegradationStats::default(),
            opportunity: OpportunitySummary::default(),
        };
        if let Some((share_qps, m, opportunity)) = sim {
            (snapshot.c0_share, snapshot.agile_share) = residency_shares(m);
            snapshot.share_qps = share_qps;
            snapshot.p99 = (m.server_latency.count > 0).then_some(m.server_latency.p99);
            snapshot.counters = m.degradation;
            snapshot.opportunity = opportunity;
        }
        snapshot
    }
}

/// A run's C0 and agile-state (C6A + C6AE) residency shares in `[0, 1]`.
pub(crate) fn residency_shares(m: &RunMetrics) -> (f64, f64) {
    let share = |state| m.residency_of(state).as_percent();
    (share(CState::C0) / 100.0, (share(CState::C6A) + share(CState::C6AE)) / 100.0)
}

/// One closed fleet epoch, pushed to a [`FleetObserver`] the moment the
/// aggregation loop finishes it.
#[derive(Debug, Clone)]
pub struct FleetEpochEvent {
    /// The epoch's fleet window — identical to the entry the final
    /// [`crate::FleetReport::windows`] will contain at this index.
    pub window: FleetWindow,
    /// Per-server detail, indexed by server (always `servers` entries).
    pub servers: Vec<ServerEpochSnapshot>,
    /// Fleet fault events fired at this epoch's boundary (crashes,
    /// ejections, probes, readmissions, …), in deterministic order.
    /// Empty on fault-free runs.
    pub faults: Vec<FleetFaultRecord>,
}

/// Receives fleet epochs as they close.
///
/// Implementations must be cheap or internally backpressured: the
/// aggregation loop calls [`FleetObserver::on_epoch`] inline, so a
/// blocking observer paces the fleet run (that is the bounded-channel
/// contract of the [`SyncSender`] observer).
pub trait FleetObserver: Send {
    /// Called once per epoch, in epoch order.
    fn on_epoch(&mut self, event: &FleetEpochEvent);

    /// Called once after the last epoch, before the report is
    /// assembled.
    fn on_finish(&mut self) {}

    /// Whether per-server snapshots should be built at all. The
    /// `NullFleetObserver` returns `false`, letting the unobserved
    /// path skip the per-server bookkeeping entirely.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// The no-op observer behind [`crate::FleetSim::run`].
#[derive(Debug, Default)]
pub(crate) struct NullFleetObserver;

impl FleetObserver for NullFleetObserver {
    fn on_epoch(&mut self, _event: &FleetEpochEvent) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

/// The producing half of a `sync_channel`: each epoch is sent as it
/// closes, blocking while the channel is full, so a slow consumer paces
/// the fleet run instead of the channel buffering without bound. The
/// stream ends when the sender is dropped; a dropped receiver is not an
/// error, and the run completes with the remaining epochs unobserved.
impl FleetObserver for SyncSender<FleetEpochEvent> {
    fn on_epoch(&mut self, event: &FleetEpochEvent) {
        let _ = self.send(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::{sync_channel, TryRecvError};

    use aw_cstates::NamedConfig;
    use aw_server::{ServerConfig, WorkloadSpec};

    use super::*;
    use crate::{FleetConfig, FleetSim};

    #[test]
    fn null_observer_reports_disabled() {
        assert!(!NullFleetObserver.is_enabled());
    }

    #[test]
    fn stream_sender_observer_is_enabled_and_finishes() {
        let (tx, rx) = sync_channel(4);
        let mut obs: Box<dyn FleetObserver> = Box::new(tx);
        assert!(obs.is_enabled());
        obs.on_finish();
        drop(obs);
        assert!(rx.recv().is_err(), "finish must not deliver an event");
    }

    /// The epochs of a two-server fleet run for three 5 ms epochs.
    fn epochs() -> Vec<FleetEpochEvent> {
        struct Collect(Vec<FleetEpochEvent>);
        impl FleetObserver for Collect {
            fn on_epoch(&mut self, event: &FleetEpochEvent) {
                self.0.push(event.clone());
            }
        }
        let workload = WorkloadSpec::poisson("tiny", 1_000.0, Nanos::from_micros(250.0), 0.6);
        let config = FleetConfig::new(2, ServerConfig::new(2, NamedConfig::Aw), workload, 4_000.0)
            .with_epochs(3, Nanos::from_millis(5.0));
        let mut collect = Collect(Vec::new());
        let _ = FleetSim::new(config).run_observed(&mut collect);
        collect.0
    }

    #[test]
    fn items_flow_in_order_until_finish() {
        let (tx, rx) = sync_channel(1);
        let producer = std::thread::spawn(move || {
            let mut obs: Box<dyn FleetObserver> = Box::new(tx);
            for event in &epochs() {
                obs.on_epoch(event);
            }
            obs.on_finish();
        });
        let seen: Vec<usize> = rx.iter().map(|event| event.window.epoch).collect();
        producer.join().expect("producer panicked");
        assert_eq!(seen, [0, 1, 2]);
    }

    #[test]
    fn dropped_receiver_turns_sends_into_noops() {
        let (tx, rx) = sync_channel(1);
        drop(rx);
        let mut obs: Box<dyn FleetObserver> = Box::new(tx);
        // Neither blocks on the full channel nor panics on the hang-up.
        for event in &epochs() {
            obs.on_epoch(event);
        }
        obs.on_finish();
    }

    #[test]
    fn hung_up_sender_closes_the_stream() {
        let (mut tx, rx) = sync_channel(2);
        tx.on_epoch(&epochs()[0]);
        drop(tx);
        assert!(rx.recv().is_ok());
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Disconnected)));
    }
}
