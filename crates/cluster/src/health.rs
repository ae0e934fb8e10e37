//! Router-side health tracking: crash/outage bookkeeping, ejection with
//! exponential-backoff re-probing, and readmission.
//!
//! The [`HealthTracker`] is the fleet's failure-reaction brain. Every
//! epoch boundary it consumes the epoch's [`FleetFaultPlan`] draws and
//! steps each server through a small state machine:
//!
//! ```text
//!            crash / rack outage            restart ok
//!   in-rotation ──────────────▶ dark ────────────────────▶ up,
//!       ▲   │ degraded > 1 epoch   │ restart fails           ejected
//!       │   └──────────────▶ ejected◀──────────────────────────┘
//!       │                      │ probe (backoff 1,2,4,…,8 epochs)
//!       └──────── readmit ◀────┘ probe finds it healthy
//! ```
//!
//! All transitions happen at epoch boundaries in server-index order, so
//! the sequence of [`FleetFaultRecord`]s — and everything downstream of
//! it — is a pure function of `(spec, epoch)`, independent of `--jobs`.
//!
//! Detection lag: the router health-checks once per epoch, so a server
//! that crashes *during* epoch `e` still received its routed share for
//! `e` (it serves a deterministic fraction of it — see
//! [`FleetFaultPlan::crash_phase`]) and is ejected at the boundary of
//! `e + 1`. A degraded server likewise carries (slow) traffic for one
//! epoch before the router reacts. Throttled servers are *not* ejected:
//! a capacity throttle is silent — the router keeps routing a full
//! share and the server's queues pay for it.

use aw_faults::{FleetFaultKind, FleetFaultPlan, FleetFaultRecord, FleetFaultSpec};
use aw_types::Nanos;

use crate::report::FleetDegradation;

/// Probe backoff ceiling, in epochs.
const MAX_BACKOFF: usize = 8;

/// Per-server health state.
#[derive(Debug, Clone)]
struct ServerHealth {
    /// Machine alive (serving or at least bootable).
    up: bool,
    /// Crashed: epoch of the next restart attempt.
    restart_at: Option<usize>,
    /// Link degraded through the start of this epoch (exclusive).
    degraded_until: Option<usize>,
    /// Epoch the current degradation episode started (detection lag).
    degraded_since: usize,
    /// Capacity throttled through the start of this epoch (exclusive).
    throttled_until: Option<usize>,
    /// Router includes this server in the rotation.
    in_rotation: bool,
    /// Next re-probe epoch while ejected.
    probe_at: usize,
    /// Current probe backoff, in epochs (doubles per failed probe).
    backoff: usize,
}

impl ServerHealth {
    fn new() -> Self {
        ServerHealth {
            up: true,
            restart_at: None,
            degraded_until: None,
            degraded_since: 0,
            throttled_until: None,
            in_rotation: true,
            probe_at: 0,
            backoff: 1,
        }
    }
}

/// Everything the fleet needs to know about one epoch's health pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct HealthStep {
    /// `Some(phase)` — the server crashes *during* this epoch after
    /// serving `phase` of it.
    pub crash_phase: Vec<Option<f64>>,
    /// Crashed in an earlier epoch and still dark (0 W, no traffic).
    pub dark: Vec<bool>,
    /// Up but ejected from the rotation (idles at deep package sleep).
    pub ejected: Vec<bool>,
    /// Router rotation for this epoch's share computation. Includes
    /// servers that crash mid-epoch (the router could not know yet).
    pub in_rotation: Vec<bool>,
    /// Extra per-request network latency while the link is degraded.
    pub degrade_extra: Vec<Option<Nanos>>,
    /// Remaining capacity fraction while throttled.
    pub throttle: Vec<Option<f64>>,
    /// Fault events this boundary fired, in deterministic order.
    pub events: Vec<FleetFaultRecord>,
    /// The epoch's delta to the fleet ledger. The health pass counts
    /// crashes, rack outages, restarts (and failed ones), ejections,
    /// probes, readmissions and degraded/throttled server-epochs; fleet
    /// planning adds the unpark failures, retries and sheds.
    pub ledger: FleetDegradation,
}

/// Steps every server's health state one epoch at a time, consuming
/// [`FleetFaultPlan`] draws and emitting the epoch's fault events.
#[derive(Debug)]
pub(crate) struct HealthTracker {
    servers: Vec<ServerHealth>,
    down_epochs: usize,
    degrade_epochs: usize,
    degrade_extra: Nanos,
    throttle_epochs: usize,
    throttle_factor: f64,
    rack_size: usize,
}

impl HealthTracker {
    pub(crate) fn new(servers: usize, spec: &FleetFaultSpec) -> Self {
        HealthTracker {
            servers: vec![ServerHealth::new(); servers],
            down_epochs: spec.down_epochs,
            degrade_epochs: spec.degrade_epochs,
            degrade_extra: spec.degrade_extra,
            throttle_epochs: spec.throttle_epochs,
            throttle_factor: spec.throttle_factor,
            rack_size: spec.rack_size.max(1),
        }
    }

    /// Runs the boundary passes for `epoch`, in order: episode expiry,
    /// restart attempts, new fault draws (racks first, then servers),
    /// router ejection, then re-probe/readmit.
    pub(crate) fn step(&mut self, epoch: usize, plan: &FleetFaultPlan) -> HealthStep {
        let n = self.servers.len();
        let mut out = HealthStep {
            crash_phase: vec![None; n],
            dark: vec![false; n],
            ejected: vec![false; n],
            in_rotation: vec![false; n],
            degrade_extra: vec![None; n],
            throttle: vec![None; n],
            ..HealthStep::default()
        };
        let event = |events: &mut Vec<FleetFaultRecord>, server: usize, kind: FleetFaultKind| {
            events.push(FleetFaultRecord { epoch, server, kind });
        };

        // 1. Episode expiry.
        for (s, h) in self.servers.iter_mut().enumerate() {
            if h.degraded_until.is_some_and(|until| epoch >= until) {
                h.degraded_until = None;
                event(&mut out.events, s, FleetFaultKind::DegradeEnd);
            }
            if h.throttled_until.is_some_and(|until| epoch >= until) {
                h.throttled_until = None;
                event(&mut out.events, s, FleetFaultKind::ThrottleEnd);
            }
        }

        // 2. Restart attempts for dark servers whose down period ended.
        for (s, h) in self.servers.iter_mut().enumerate() {
            if h.restart_at.is_some_and(|at| epoch >= at) {
                if plan.unpark_fails(s, epoch) {
                    out.ledger.restart_failures += 1;
                    h.restart_at = Some(epoch + 1);
                    event(&mut out.events, s, FleetFaultKind::RestartFailed);
                } else {
                    out.ledger.restarts += 1;
                    h.up = true;
                    h.restart_at = None;
                    // A restarted server announces itself: probe at this
                    // same boundary so it can rejoin without backoff lag.
                    h.probe_at = epoch;
                    event(&mut out.events, s, FleetFaultKind::Restart);
                }
            }
        }

        // 3. New fault draws: correlated rack outages first, then
        // independent per-server crashes, then degrade/throttle starts.
        let racks = n.div_ceil(self.rack_size);
        for rack in 0..racks {
            if plan.rack_outage_starts(rack, epoch) {
                out.ledger.rack_outages += 1;
                event(&mut out.events, rack, FleetFaultKind::RackOutage);
                for s in rack * self.rack_size..((rack + 1) * self.rack_size).min(n) {
                    self.crash(s, epoch, plan, &mut out);
                }
            }
        }
        for s in 0..n {
            if self.servers[s].up && out.crash_phase[s].is_none() && plan.crash_starts(s, epoch) {
                self.crash(s, epoch, plan, &mut out);
            }
        }
        for (s, h) in self.servers.iter_mut().enumerate() {
            if !h.up || out.crash_phase[s].is_some() {
                continue;
            }
            if h.degraded_until.is_none() && plan.degrade_starts(s, epoch) {
                h.degraded_until = Some(epoch + self.degrade_epochs);
                h.degraded_since = epoch;
                event(&mut out.events, s, FleetFaultKind::DegradeStart);
            }
            if h.throttled_until.is_none() && plan.throttle_starts(s, epoch) {
                h.throttled_until = Some(epoch + self.throttle_epochs);
                event(&mut out.events, s, FleetFaultKind::ThrottleStart);
            }
        }

        // 4. Router ejection. Crashes from *earlier* epochs (the router
        // health-checks once per boundary, so a mid-epoch crash is only
        // caught at the next one) and degradations past their first
        // (detection-lag) epoch.
        for (s, h) in self.servers.iter_mut().enumerate() {
            if !h.in_rotation {
                continue;
            }
            let stale_crash = !h.up && out.crash_phase[s].is_none();
            let stale_degrade = h.up && h.degraded_until.is_some() && epoch > h.degraded_since;
            if stale_crash || stale_degrade {
                out.ledger.ejections += 1;
                h.in_rotation = false;
                h.backoff = 1;
                h.probe_at = epoch + 1;
                event(&mut out.events, s, FleetFaultKind::Eject);
            }
        }

        // 5. Re-probe ejected servers on their backoff schedule.
        for (s, h) in self.servers.iter_mut().enumerate() {
            if h.in_rotation || epoch < h.probe_at || out.crash_phase[s].is_some() {
                continue;
            }
            out.ledger.probes += 1;
            event(&mut out.events, s, FleetFaultKind::Probe);
            if h.up && h.degraded_until.is_none() {
                out.ledger.readmissions += 1;
                h.in_rotation = true;
                h.backoff = 1;
                event(&mut out.events, s, FleetFaultKind::Readmit);
            } else {
                // Unhealthy: next probe after the current backoff, then
                // double it (1, 2, 4, … capped at MAX_BACKOFF).
                h.probe_at = epoch + h.backoff;
                h.backoff = (h.backoff * 2).min(MAX_BACKOFF);
            }
        }

        // 6. Snapshot the epoch's per-server view.
        for (s, h) in self.servers.iter().enumerate() {
            out.in_rotation[s] = h.in_rotation;
            out.dark[s] = !h.up && out.crash_phase[s].is_none();
            out.ejected[s] = h.up && !h.in_rotation;
            if h.up {
                if h.degraded_until.is_some() {
                    out.degrade_extra[s] = Some(self.degrade_extra);
                    if h.in_rotation {
                        out.ledger.degraded_server_epochs += 1;
                    }
                }
                if h.throttled_until.is_some() {
                    out.throttle[s] = Some(self.throttle_factor);
                    if h.in_rotation {
                        out.ledger.throttled_server_epochs += 1;
                    }
                }
            }
        }
        out
    }

    fn crash(&mut self, s: usize, epoch: usize, plan: &FleetFaultPlan, out: &mut HealthStep) {
        let h = &mut self.servers[s];
        if !h.up || out.crash_phase[s].is_some() {
            return;
        }
        out.ledger.crashes += 1;
        out.crash_phase[s] = Some(plan.crash_phase(s, epoch));
        h.up = false;
        // Dark for `down_epochs` full epochs after the crash epoch, then
        // the first restart attempt.
        h.restart_at = Some(epoch + 1 + self.down_epochs);
        out.events.push(FleetFaultRecord { epoch, server: s, kind: FleetFaultKind::Crash });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(spec: &str) -> FleetFaultPlan {
        FleetFaultPlan::new(FleetFaultSpec::parse(spec).unwrap())
    }

    fn kinds_at(step: &HealthStep, server: usize) -> Vec<FleetFaultKind> {
        step.events.iter().filter(|e| e.server == server).map(|e| e.kind).collect()
    }

    #[test]
    fn no_faults_is_a_no_op() {
        let p = plan("");
        let mut t = HealthTracker::new(4, p.spec());
        for e in 0..6 {
            let step = t.step(e, &p);
            assert!(step.events.is_empty());
            assert!(step.in_rotation.iter().all(|&r| r));
            assert!(step.crash_phase.iter().all(Option::is_none));
        }
    }

    #[test]
    fn crash_goes_dark_then_restarts_and_readmits() {
        let p = plan("crash-at=2:1,down-epochs=2");
        let mut t = HealthTracker::new(3, p.spec());
        // Epoch 2: crash fires mid-epoch; server 1 is still routed.
        let s2 = t.step(2, &p);
        assert!(s2.crash_phase[1].is_some());
        assert!(s2.in_rotation[1], "router cannot know about a mid-epoch crash");
        assert_eq!(s2.ledger.crashes, 1);
        // Epoch 3: ejected and dark; the first probe comes an epoch
        // later.
        let s3 = t.step(3, &p);
        assert!(s3.dark[1] && !s3.in_rotation[1]);
        assert_eq!(s3.ledger.ejections, 1);
        assert_eq!(kinds_at(&s3, 1), vec![FleetFaultKind::Eject]);
        // Epoch 4: still dark (down-epochs=2 covers epochs 3 and 4); the
        // probe finds it down.
        let s4 = t.step(4, &p);
        assert!(s4.dark[1]);
        assert_eq!(s4.ledger.restarts, 0);
        assert_eq!(kinds_at(&s4, 1), vec![FleetFaultKind::Probe]);
        // Epoch 5: restart succeeds (no unpark-fail) and the announce
        // probe readmits it the same boundary.
        let s5 = t.step(5, &p);
        assert_eq!(s5.ledger.restarts, 1);
        assert!(s5.in_rotation[1] && !s5.dark[1]);
        assert_eq!(s5.ledger.readmissions, 1);
        // Untouched servers never left the rotation.
        assert!(s5.in_rotation[0] && s5.in_rotation[2]);
    }

    #[test]
    fn failed_restart_retries_next_epoch() {
        let p = plan("crash-at=0:0,down-epochs=1,unpark-fail=1");
        let mut t = HealthTracker::new(2, p.spec());
        t.step(0, &p);
        t.step(1, &p);
        // From epoch 2 on, every restart attempt fails (prob 1).
        for e in 2..5 {
            let s = t.step(e, &p);
            assert_eq!(s.ledger.restart_failures, 1, "epoch {e}");
            assert_eq!(s.ledger.restarts, 0);
            assert!(s.dark[0]);
        }
    }

    #[test]
    fn probe_backoff_doubles_and_caps() {
        // Crash at 0, down long enough that probes keep failing.
        let p = plan("crash-at=0:0,down-epochs=64");
        let mut t = HealthTracker::new(1, p.spec());
        t.step(0, &p);
        let mut probe_epochs = Vec::new();
        for e in 1..40 {
            let s = t.step(e, &p);
            if s.ledger.probes > 0 {
                probe_epochs.push(e);
            }
        }
        // Eject at 1 schedules the first probe at 2; gaps then double
        // 1, 2, 4, 8 and cap at 8.
        assert_eq!(probe_epochs, vec![2, 3, 5, 9, 17, 25, 33]);
    }

    #[test]
    fn degraded_server_serves_one_epoch_then_is_ejected() {
        // degrade always fires; pin a single episode via a huge length.
        let p = plan("degrade=1,degrade-epochs=3");
        let mut t = HealthTracker::new(1, p.spec());
        let s0 = t.step(0, &p);
        assert!(s0.degrade_extra[0].is_some(), "degraded from epoch 0");
        assert!(s0.in_rotation[0], "detection lag: serves its first degraded epoch");
        assert_eq!(s0.ledger.degraded_server_epochs, 1);
        let s1 = t.step(1, &p);
        assert!(!s1.in_rotation[0], "ejected once the degradation persists");
        assert!(s1.ejected[0]);
        assert_eq!(s1.ledger.degraded_server_epochs, 0, "ejected server-epochs are not counted");
    }

    #[test]
    fn rack_outage_takes_the_whole_rack_down() {
        let p = plan("rack-outage=1,rack-size=2");
        let mut t = HealthTracker::new(5, p.spec());
        let s = t.step(0, &p);
        // 3 racks (2+2+1), all out; every server crashes at once.
        assert_eq!(s.ledger.rack_outages, 3);
        assert_eq!(s.ledger.crashes, 5);
        assert!(s.crash_phase.iter().all(Option::is_some));
    }

    #[test]
    fn throttle_stays_in_rotation() {
        let p = plan("throttle=1,throttle-factor=0.5,throttle-epochs=2");
        let mut t = HealthTracker::new(1, p.spec());
        for e in 0..3 {
            let s = t.step(e, &p);
            assert!(s.in_rotation[0], "throttle is silent; epoch {e}");
            assert_eq!(s.throttle[0], Some(0.5));
        }
    }
}
