//! Per-core state: run queue, C-state life cycle, energy and residency
//! accounting.

use std::collections::VecDeque;
use std::fmt;

use aw_cstates::{CState, IdleGovernor};
use aw_sim::{EnergyMeter, ResidencyTracker};
use aw_types::{Joules, MilliWatts, Nanos};

use crate::thermal::ThermalModel;

/// The life-cycle state of a simulated core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CoreState {
    /// Executing a request.
    Active,
    /// Transitioning into `target` (entry latency elapsing).
    Entering {
        /// The idle state being entered.
        target: CState,
    },
    /// Resident in an idle state.
    Idle {
        /// The idle state occupied.
        state: CState,
    },
    /// Transitioning back to C0 (exit latency elapsing).
    Waking {
        /// The idle state being left.
        from: CState,
    },
}

impl CoreState {
    /// The C-state this life-cycle state is accounted to for residency:
    /// transitions burn near-active power and count as C0 (they are not
    /// useful work, but they are not low-power residency either).
    #[must_use]
    pub(crate) fn accounting_state(self) -> CState {
        match self {
            CoreState::Active | CoreState::Entering { .. } | CoreState::Waking { .. } => CState::C0,
            CoreState::Idle { state } => state,
        }
    }
}

/// One queued request: its arrival time and sampled service demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct QueuedRequest {
    /// When the request arrived at the server.
    pub arrival: Nanos,
    /// Service demand at base frequency.
    pub service: Nanos,
    /// The idle-state exit latency this request personally waited for
    /// (non-zero only for the request whose arrival triggered the wake).
    pub wake_penalty: Nanos,
    /// The idle state whose exit charged [`QueuedRequest::wake_penalty`]
    /// (`None` when no penalty was charged) — attribution needs to know
    /// *which* C-state the tail paid for.
    pub wake_state: Option<CState>,
    /// `true` for OS timer-tick kernel work (excluded from client
    /// latency/throughput metrics).
    pub is_tick: bool,
    /// 1-based submission attempt (grows when a shed or timed-out
    /// request is retried by the client).
    pub attempt: u32,
}

/// A simulated core: queue, state machine bookkeeping, governor, thermal
/// bank, and meters.
pub(crate) struct SimCore {
    /// Core index.
    pub id: usize,
    /// Current life-cycle state.
    pub state: CoreState,
    /// FIFO run queue.
    pub queue: VecDeque<QueuedRequest>,
    /// The request currently being served (popped from the queue).
    pub in_flight: Option<QueuedRequest>,
    /// When the in-flight service began.
    pub serve_start: Nanos,
    /// Residency tracker over accounting C-states.
    pub tracker: ResidencyTracker<CState>,
    /// Energy integrator.
    pub meter: EnergyMeter,
    /// Extra energy from snoop servicing while idle.
    pub snoop_energy: Joules,
    /// Hidden energy from idle-state transitions (in-rush, clock
    /// restart) not captured by the piecewise-constant state powers.
    pub transition_energy: Joules,
    /// Power drawn since the last meter advance.
    pub current_power: MilliWatts,
    /// The idle governor instance.
    pub governor: Box<dyn IdleGovernor>,
    /// Thermal-capacitance bank for Turbo.
    pub thermal: ThermalModel,
    /// When the current idle period began (entry start).
    pub idle_since: Nanos,
    /// Generation counter invalidating stale scheduled events.
    pub generation: u64,
    /// Idle-state entries since the last metric reset, as `(state,
    /// count)` pairs in first-entered order. At most one pair per
    /// C-state, so a linear scan is cheaper than a map on the per-entry
    /// hot path.
    pub entries: Vec<(CState, u64)>,
    /// Busy time spent at Turbo frequency since the last reset.
    pub turbo_busy: Nanos,
    /// Total busy time since the last reset.
    pub total_busy: Nanos,
    /// Snoop bursts serviced since the last reset.
    pub snoops_served: u64,
    /// `true` while the in-flight service runs at Turbo frequency.
    pub serving_at_turbo: bool,
}

impl SimCore {
    /// Creates an active, empty core at time zero.
    #[must_use]
    pub(crate) fn new(id: usize, governor: Box<dyn IdleGovernor>) -> Self {
        SimCore {
            id,
            state: CoreState::Active,
            queue: VecDeque::new(),
            in_flight: None,
            serve_start: Nanos::ZERO,
            tracker: ResidencyTracker::new(CState::C0, Nanos::ZERO),
            meter: EnergyMeter::new(Nanos::ZERO),
            snoop_energy: Joules::ZERO,
            transition_energy: Joules::ZERO,
            current_power: MilliWatts::ZERO,
            governor,
            thermal: ThermalModel::skylake(),
            idle_since: Nanos::ZERO,
            generation: 0,
            entries: Vec::new(),
            turbo_busy: Nanos::ZERO,
            total_busy: Nanos::ZERO,
            snoops_served: 0,
            serving_at_turbo: false,
        }
    }

    /// Advances meters to `now` at the standing power level, then switches
    /// the standing power to `next_power` and bumps the event generation.
    pub(crate) fn switch_power(&mut self, now: Nanos, next_power: MilliWatts) {
        let dt = now - self.meter.now();
        self.thermal.advance(self.current_power, dt);
        self.meter.advance(self.current_power, now);
        self.current_power = next_power;
        self.generation += 1;
    }

    /// Moves to a new life-cycle state at `now`, recording residency.
    pub(crate) fn set_state(&mut self, now: Nanos, state: CoreState) {
        self.tracker.transition(state.accounting_state(), now);
        self.state = state;
    }

    /// Resets metric accumulators at the warm-up boundary, preserving
    /// learned governor state and the current life-cycle state.
    pub(crate) fn reset_metrics(&mut self, now: Nanos) {
        // Close out the pre-warm-up interval, then restart the meters.
        // Deliberately does NOT bump `generation`: pending transition
        // events scheduled before the warm-up boundary must stay valid.
        let dt = now - self.meter.now();
        self.thermal.advance(self.current_power, dt);
        self.meter = EnergyMeter::new(now);
        self.snoop_energy = Joules::ZERO;
        self.transition_energy = Joules::ZERO;
        self.tracker = ResidencyTracker::new(self.state.accounting_state(), now);
        self.entries.clear();
        self.turbo_busy = Nanos::ZERO;
        self.total_busy = Nanos::ZERO;
        self.snoops_served = 0;
    }

    /// Counts one entry into idle state `state`.
    pub(crate) fn record_entry(&mut self, state: CState) {
        match self.entries.iter_mut().find(|(s, _)| *s == state) {
            Some((_, n)) => *n += 1,
            None => self.entries.push((state, 1)),
        }
    }
}

impl fmt::Debug for SimCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimCore")
            .field("id", &self.id)
            .field("state", &self.state)
            .field("queue", &self.queue.len())
            .field("generation", &self.generation)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aw_cstates::MenuGovernor;

    fn core() -> SimCore {
        SimCore::new(0, Box::new(MenuGovernor::new()))
    }

    #[test]
    fn accounting_maps_transitions_to_c0() {
        assert_eq!(CoreState::Active.accounting_state(), CState::C0);
        assert_eq!(CoreState::Entering { target: CState::C6 }.accounting_state(), CState::C0);
        assert_eq!(CoreState::Waking { from: CState::C1 }.accounting_state(), CState::C0);
        assert_eq!(CoreState::Idle { state: CState::C6A }.accounting_state(), CState::C6A);
    }

    #[test]
    fn switch_power_integrates_energy() {
        let mut c = core();
        c.current_power = MilliWatts::from_watts(4.0);
        c.switch_power(Nanos::from_secs(1.0), MilliWatts::from_watts(1.0));
        assert!((c.meter.energy().as_joules() - 4.0).abs() < 1e-9);
        assert_eq!(c.current_power, MilliWatts::from_watts(1.0));
    }

    #[test]
    fn generation_bumps_on_switch() {
        let mut c = core();
        let g = c.generation;
        c.switch_power(Nanos::new(1.0), MilliWatts::ZERO);
        assert_eq!(c.generation, g + 1);
    }

    #[test]
    fn state_changes_track_residency() {
        let mut c = core();
        c.set_state(Nanos::from_micros(10.0), CoreState::Idle { state: CState::C1 });
        c.set_state(Nanos::from_micros(30.0), CoreState::Active);
        c.tracker.finish(Nanos::from_micros(40.0));
        assert_eq!(c.tracker.time_in(&CState::C1), Nanos::from_micros(20.0));
        assert_eq!(c.tracker.time_in(&CState::C0), Nanos::from_micros(20.0));
    }

    #[test]
    fn reset_metrics_preserves_state() {
        let mut c = core();
        c.current_power = MilliWatts::from_watts(4.0);
        c.set_state(Nanos::from_micros(5.0), CoreState::Idle { state: CState::C1 });
        c.reset_metrics(Nanos::from_micros(100.0));
        assert_eq!(c.meter.energy(), Joules::ZERO);
        assert_eq!(*c.tracker.current(), CState::C1);
        assert!(matches!(c.state, CoreState::Idle { state: CState::C1 }));
    }
}
