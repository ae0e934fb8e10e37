//! Typed trace events.
//!
//! Every observable action in the simulation stack maps to one
//! [`TraceEvent`]: a timestamp, the core it concerns, and a typed
//! [`EventKind`] payload. State names are `&'static str` so events are
//! `Copy`-cheap and the telemetry crate stays at the bottom of the
//! dependency graph (it never needs the C-state or PMA enums themselves).

use aw_types::Nanos;

/// One trace event: when, where, what.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulation time of the event.
    pub time: Nanos,
    /// The core the event concerns.
    pub core: u32,
    /// The typed payload.
    pub kind: EventKind,
}

/// The typed payload of a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// The core entered a (life-cycle) C-state at [`TraceEvent::time`].
    CStateEnter {
        /// Name of the state entered (e.g. `"C6A"`, `"enter:C6"`).
        state: &'static str,
    },
    /// The core left a C-state it occupied for `residency`.
    CStateExit {
        /// Name of the state left.
        state: &'static str,
        /// How long the core occupied the state.
        residency: Nanos,
    },
    /// The idle governor picked a state, predicting an idle duration.
    GovernorDecision {
        /// Name of the chosen idle state.
        chosen: &'static str,
        /// The governor's predicted idle duration.
        predicted: Nanos,
    },
    /// An idle period ended: the governor's prediction meets reality.
    IdleOutcome {
        /// Name of the state the governor had chosen.
        chosen: &'static str,
        /// The predicted idle duration at selection time.
        predicted: Nanos,
        /// The actual idle duration.
        actual: Nanos,
        /// `true` if the core woke before the chosen state's target
        /// residency — the governor mispredicted.
        premature: bool,
    },
    /// An interrupt (arrival or timer) woke the core.
    WakeInterrupt {
        /// What woke the core (`"arrival"`, `"timer"`).
        reason: &'static str,
    },
    /// An idle core serviced a coherence snoop burst.
    SnoopService {
        /// The idle state the core was in while servicing.
        state: &'static str,
    },
    /// A service interval started at Turbo frequency.
    TurboEngage,
    /// A request joined the core's run queue.
    QueueEnqueue {
        /// Queue depth after the enqueue.
        depth: u32,
    },
    /// A request left the core's run queue to start service.
    QueueDequeue {
        /// Queue depth after the dequeue.
        depth: u32,
    },
    /// A fault was injected from the active fault plan.
    FaultInjected {
        /// Which fault category struck (`"wake-fail"`, `"lost-wake"`, …).
        kind: &'static str,
    },
    /// A request was shed because the core's bounded queue was full.
    RequestShed {
        /// Queue depth at the moment of shedding (== the cap).
        depth: u32,
    },
    /// A request timed out waiting in queue and was abandoned.
    RequestTimeout {
        /// How long the request had waited when it timed out.
        waited: Nanos,
    },
    /// A shed or timed-out request was re-submitted by the client after
    /// jittered backoff.
    RequestRetry {
        /// 1-based retry attempt number.
        attempt: u32,
    },
    /// A core's circuit breaker tripped: agile states demoted.
    BreakerTrip,
    /// A core's circuit breaker cooled down and re-armed.
    BreakerRestore,
}

impl EventKind {
    /// A short human-readable label for this kind of event (used for
    /// instant-event names in the Chrome trace).
    #[must_use]
    pub(crate) fn label(&self) -> &'static str {
        match self {
            EventKind::CStateEnter { .. } => "cstate-enter",
            EventKind::CStateExit { .. } => "cstate-exit",
            EventKind::GovernorDecision { .. } => "governor-decision",
            EventKind::IdleOutcome { .. } => "idle-outcome",
            EventKind::WakeInterrupt { .. } => "wake",
            EventKind::SnoopService { .. } => "snoop",
            EventKind::TurboEngage => "turbo",
            EventKind::QueueEnqueue { .. } => "enqueue",
            EventKind::QueueDequeue { .. } => "dequeue",
            EventKind::FaultInjected { .. } => "fault",
            EventKind::RequestShed { .. } => "shed",
            EventKind::RequestTimeout { .. } => "timeout",
            EventKind::RequestRetry { .. } => "retry",
            EventKind::BreakerTrip => "breaker-trip",
            EventKind::BreakerRestore => "breaker-restore",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_for_distinct_kinds() {
        let kinds = [
            EventKind::CStateEnter { state: "C1" },
            EventKind::CStateExit { state: "C1", residency: Nanos::ZERO },
            EventKind::GovernorDecision { chosen: "C1", predicted: Nanos::ZERO },
            EventKind::IdleOutcome {
                chosen: "C1",
                predicted: Nanos::ZERO,
                actual: Nanos::ZERO,
                premature: false,
            },
            EventKind::WakeInterrupt { reason: "arrival" },
            EventKind::SnoopService { state: "C1" },
            EventKind::TurboEngage,
            EventKind::QueueEnqueue { depth: 1 },
            EventKind::QueueDequeue { depth: 0 },
            EventKind::FaultInjected { kind: "wake-fail" },
            EventKind::RequestShed { depth: 8 },
            EventKind::RequestTimeout { waited: Nanos::ZERO },
            EventKind::RequestRetry { attempt: 1 },
            EventKind::BreakerTrip,
            EventKind::BreakerRestore,
        ];
        let mut labels: Vec<_> = kinds.iter().map(EventKind::label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len());
    }
}
