//! The fleet-level diurnal autoscaler: parks whole servers when the
//! offered load drops and unparks them ahead of demand, with modeled
//! park/unpark latency and energy.
//!
//! This is the layer the paper's datacenter argument (Sec. 1) points at:
//! per-core C-states recover *core* power, but a mostly idle server still
//! burns its uncore at PC0 unless the whole package can be vacated.
//! Parking — suspending a server entirely — is the fleet analogue of a
//! package C-state, and like a C-state it has a transition cost: an
//! unparking server serves only part of an epoch, so scaling decisions
//! pay latency for their energy savings.

use aw_types::{Joules, MilliWatts, Nanos};

/// Autoscaler parameters.
#[derive(Debug, Clone, Copy)]
pub struct AutoscalePolicy {
    /// Target per-server utilization the scaler sizes the active set
    /// for: `active = ceil(offered / (target_utilization × capacity))`.
    pub target_utilization: f64,
    /// Lower bound on the active set (never park the whole fleet).
    pub min_active: usize,
    /// Wall-clock latency of an unpark (boot/resume): the server serves
    /// only the remainder of the epoch it unparks in.
    pub unpark_latency: Nanos,
    /// Standing power of a parked server (platform suspend, not off).
    pub park_power: MilliWatts,
    /// One-off energy charged per unpark transition (boot burst).
    pub unpark_energy: Joules,
}

impl Default for AutoscalePolicy {
    fn default() -> Self {
        AutoscalePolicy {
            target_utilization: 0.6,
            min_active: 1,
            unpark_latency: Nanos::from_millis(5.0),
            park_power: MilliWatts::from_watts(0.5),
            unpark_energy: Joules::new(0.05),
        }
    }
}

impl AutoscalePolicy {
    /// The number of servers the scaler wants active for `offered_qps`,
    /// clamped to `[min_active, fleet_size]`.
    #[must_use]
    pub(crate) fn target_active(
        &self,
        offered_qps: f64,
        capacity_qps: f64,
        fleet_size: usize,
    ) -> usize {
        assert!(self.target_utilization > 0.0, "target utilization must be positive");
        assert!(capacity_qps > 0.0, "capacity must be positive");
        let wanted = (offered_qps / (self.target_utilization * capacity_qps)).ceil() as usize;
        wanted.clamp(self.min_active.max(1).min(fleet_size), fleet_size)
    }

    /// The fraction of an `epoch` a freshly unparked server can serve.
    #[must_use]
    pub(crate) fn unpark_availability(&self, epoch: Nanos) -> f64 {
        if epoch <= Nanos::ZERO {
            return 0.0;
        }
        (1.0 - self.unpark_latency / epoch).clamp(0.0, 1.0)
    }
}

/// One epoch's scaling decision: per-server availability plus the
/// transition counts the decision incurred against the previous epoch's
/// active set.
#[derive(Debug, Clone)]
pub(crate) struct ScaleDecision {
    /// Per-server serve fraction for the epoch: `1.0` steady active,
    /// `(0, 1)` unparking this epoch, `0.0` parked (or ineligible).
    pub availability: Vec<f64>,
    /// Servers parked by this decision.
    pub parks: u64,
    /// Servers unparked by this decision.
    pub unparks: u64,
    /// Unpark attempts that failed: the slot stays dark this epoch and
    /// is retried at the next decision. Always zero without a fault
    /// plan.
    pub unpark_failures: u64,
}

/// Tracks the active set across epochs and emits one [`ScaleDecision`]
/// per epoch. Servers are parked from the top of the index range and
/// unparked from the bottom — deterministic, and exactly what packing
/// wants (the load concentrates on low indices, so high indices are the
/// cold ones).
#[derive(Debug)]
pub(crate) struct Autoscaler {
    policy: Option<AutoscalePolicy>,
    fleet_size: usize,
    active: Vec<bool>,
}

impl Autoscaler {
    /// A scaler over `fleet_size` servers; `None` disables scaling (the
    /// whole fleet stays active and every decision is all-ones).
    #[must_use]
    pub(crate) fn new(policy: Option<AutoscalePolicy>, fleet_size: usize) -> Self {
        assert!(fleet_size > 0, "fleet must have at least one server");
        Autoscaler { policy, fleet_size, active: vec![true; fleet_size] }
    }

    /// Decides the epoch's active set for `offered_qps`: the first
    /// `target` `eligible` servers (healthy and in the router's rotation)
    /// in index order are active, and newly activated ones pay the
    /// unpark latency. `force_all` (the spreading policy) pins every
    /// eligible server active regardless of the scaling target.
    ///
    /// Every park→active transition must pass `unpark_ok`. A failed
    /// unpark leaves the slot dark for the epoch (counted in
    /// [`ScaleDecision::unpark_failures`]) and is retried at the next
    /// decision instead of being silently replaced, so unpark failures
    /// cost real capacity under pressure. A fault-free fleet passes an
    /// all-`true` mask and an always-`true` `unpark_ok`.
    pub(crate) fn decide(
        &mut self,
        offered_qps: f64,
        capacity_qps: f64,
        epoch: Nanos,
        force_all: bool,
        eligible: &[bool],
        mut unpark_ok: impl FnMut(usize) -> bool,
    ) -> ScaleDecision {
        assert_eq!(eligible.len(), self.fleet_size, "eligibility mask must cover the fleet");
        let target = match (&self.policy, force_all) {
            (None, _) | (_, true) => self.fleet_size,
            (Some(p), false) => p.target_active(offered_qps, capacity_qps, self.fleet_size),
        };
        let unpark_avail = self.policy.as_ref().map_or(1.0, |p| p.unpark_availability(epoch));

        let mut availability = vec![0.0; self.fleet_size];
        let mut next_active = vec![false; self.fleet_size];
        let (mut activated, mut parks, mut unparks, mut unpark_failures) =
            (0usize, 0u64, 0u64, 0u64);
        for i in 0..self.fleet_size {
            if !eligible[i] || activated >= target {
                continue;
            }
            if self.active[i] {
                next_active[i] = true;
                availability[i] = 1.0;
                activated += 1;
            } else if unpark_ok(i) {
                next_active[i] = true;
                availability[i] = unpark_avail;
                activated += 1;
                unparks += 1;
            } else {
                // Failed unpark: the slot stays dark and still counts
                // against the target — the fleet runs short this epoch.
                activated += 1;
                unpark_failures += 1;
            }
        }
        for i in 0..self.fleet_size {
            // Deliberate parks only: an eligible server dropped from the
            // active set. Crashed/ejected servers fall out of the set
            // without counting as park transitions.
            if self.active[i] && !next_active[i] && eligible[i] {
                parks += 1;
            }
        }
        self.active = next_active;
        ScaleDecision { availability, parks, unparks, unpark_failures }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> AutoscalePolicy {
        AutoscalePolicy::default()
    }

    #[test]
    fn target_tracks_offered_load() {
        let p = policy();
        // 0.6 target util × 1000 QPS capacity = 600 QPS per server.
        assert_eq!(p.target_active(0.0, 1000.0, 8), 1, "min_active floor");
        assert_eq!(p.target_active(600.0, 1000.0, 8), 1);
        assert_eq!(p.target_active(601.0, 1000.0, 8), 2);
        assert_eq!(p.target_active(4800.0, 1000.0, 8), 8);
        assert_eq!(p.target_active(50_000.0, 1000.0, 8), 8, "fleet-size ceiling");
    }

    #[test]
    fn unpark_availability_scales_with_epoch() {
        let p = policy();
        assert!((p.unpark_availability(Nanos::from_millis(50.0)) - 0.9).abs() < 1e-9);
        assert_eq!(p.unpark_availability(Nanos::from_millis(2.0)), 0.0, "clamped at zero");
    }

    #[test]
    fn scale_up_marks_unparking_servers() {
        let mut s = Autoscaler::new(Some(policy()), 4);
        // Scale down to 1 first, then back up to 3.
        let down = s.decide(100.0, 1000.0, Nanos::from_millis(50.0), false, &[true; 4], |_| true);
        assert_eq!(down.availability, vec![1.0, 0.0, 0.0, 0.0]);
        assert_eq!(down.parks, 3);
        let up = s.decide(1500.0, 1000.0, Nanos::from_millis(50.0), false, &[true; 4], |_| true);
        assert_eq!(up.unparks, 2);
        assert!((up.availability[0] - 1.0).abs() < 1e-9, "steady server is fully available");
        assert!((up.availability[1] - 0.9).abs() < 1e-9, "unparking server pays boot latency");
        assert_eq!(up.availability[3], 0.0);
    }

    #[test]
    fn disabled_scaler_keeps_everything_active() {
        let mut s = Autoscaler::new(None, 3);
        let d = s.decide(1.0, 1000.0, Nanos::from_millis(50.0), false, &[true; 3], |_| true);
        assert_eq!(d.availability, vec![1.0; 3]);
        assert_eq!(d.parks + d.unparks, 0);
    }

    #[test]
    fn force_all_overrides_the_target() {
        let mut s = Autoscaler::new(Some(policy()), 4);
        let d = s.decide(100.0, 1000.0, Nanos::from_millis(50.0), true, &[true; 4], |_| true);
        assert_eq!(d.availability, vec![1.0; 4], "spreading pins the fleet active");
    }
}
