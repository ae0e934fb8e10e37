//! Per-request latency attribution: typed phases and request spans.
//!
//! A [`RequestSpan`] decomposes one request's server-side sojourn into
//! the causes the paper's evaluation argues about: time queued behind
//! other requests, the idle-state exit penalty the request personally
//! absorbed (tagged with *which* C-state charged it), snoop-induced
//! stall, and the service time itself. The taxonomy is closed — phases
//! sum to the measured latency — so an experiment can answer "how much
//! of the baseline's p99 is C6 exit latency?" exactly.

use std::fmt;

use aw_types::Nanos;

/// One typed cause of request latency.
///
/// The taxonomy is exhaustive over a request's server-side sojourn plus
/// the fixed network round trip: `QueueWait + ExitPenalty + SnoopStall +
/// Service` equals the measured server latency (the sum-to-latency
/// invariant, checked on every span in tests), and
/// `NetworkRtt` extends it to end-to-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Time spent queued behind other requests on the same core.
    QueueWait,
    /// Idle-state exit latency personally absorbed by this request
    /// (non-zero only for the request whose arrival triggered the wake).
    ExitPenalty,
    /// Stall caused by coherence-snoop servicing. Zero under the current
    /// server model — AW's CLDN services snoops without stalling the
    /// pipeline, and legacy states pay in energy, not request time — but
    /// the phase is part of the taxonomy so traces stay comparable if a
    /// blocking snoop model is added.
    SnoopStall,
    /// Execution (service) time.
    Service,
    /// Fixed client↔server network round trip (end-to-end only; not part
    /// of the server-side sum).
    NetworkRtt,
}

impl Phase {
    /// Every phase, in attribution order.
    pub(crate) const ALL: [Phase; 5] = [
        Phase::QueueWait,
        Phase::ExitPenalty,
        Phase::SnoopStall,
        Phase::Service,
        Phase::NetworkRtt,
    ];

    /// The stable machine-readable label (used in folded stacks, CSV
    /// headers, and JSON keys).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::QueueWait => "queue",
            Phase::ExitPenalty => "cstate_exit",
            Phase::SnoopStall => "snoop",
            Phase::Service => "service",
            Phase::NetworkRtt => "network",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The latency decomposition of one completed request.
///
/// Built by the simulator at completion time from quantities it already
/// computes (the wake penalty charged at the exit sites, the measured
/// service interval) and folded into a
/// [`Timeline`](crate::Timeline)/[`AttributionSummary`](crate::AttributionSummary).
///
/// # Examples
///
/// ```
/// use aw_telemetry::RequestSpan;
/// use aw_types::Nanos;
///
/// let span = RequestSpan {
///     arrival: Nanos::new(100.0),
///     completion: Nanos::new(4_200.0),
///     queue_wait: Nanos::new(1_000.0),
///     exit_penalty: Nanos::new(100.0),
///     exit_state: Some("C6A"),
///     snoop_stall: Nanos::ZERO,
///     service: Nanos::new(3_000.0),
///     network_rtt: Nanos::from_micros(117.0),
/// };
/// assert_eq!(span.server_latency(), Nanos::new(4_100.0));
/// // The phases sum to the measured latency.
/// let phases = span.queue_wait + span.exit_penalty + span.snoop_stall + span.service;
/// assert_eq!(phases, span.server_latency());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSpan {
    /// When the request arrived at the server.
    pub arrival: Nanos,
    /// When its service completed.
    pub completion: Nanos,
    /// Time queued behind other requests ([`Phase::QueueWait`]).
    pub queue_wait: Nanos,
    /// Idle-state exit latency this request absorbed
    /// ([`Phase::ExitPenalty`]).
    pub exit_penalty: Nanos,
    /// The C-state that charged [`RequestSpan::exit_penalty`]
    /// (`None` when the penalty is zero).
    pub exit_state: Option<&'static str>,
    /// Snoop-induced stall ([`Phase::SnoopStall`]).
    pub snoop_stall: Nanos,
    /// Execution time ([`Phase::Service`]).
    pub service: Nanos,
    /// Fixed network round trip ([`Phase::NetworkRtt`]).
    pub network_rtt: Nanos,
}

impl RequestSpan {
    /// The measured server-side sojourn (completion − arrival).
    #[must_use]
    pub fn server_latency(&self) -> Nanos {
        self.completion - self.arrival
    }

    /// The sum of the server-side phases (everything but the network).
    #[must_use]
    pub(crate) fn phase_total(&self) -> Nanos {
        self.queue_wait + self.exit_penalty + self.snoop_stall + self.service
    }

    /// The attribution error: measured latency minus the phase sum.
    /// Zero (up to floating-point rounding) when the sum-to-latency
    /// invariant holds.
    #[must_use]
    pub(crate) fn residual(&self) -> Nanos {
        self.server_latency() - self.phase_total()
    }

    /// The duration attributed to one phase.
    #[must_use]
    pub(crate) fn phase(&self, phase: Phase) -> Nanos {
        match phase {
            Phase::QueueWait => self.queue_wait,
            Phase::ExitPenalty => self.exit_penalty,
            Phase::SnoopStall => self.snoop_stall,
            Phase::Service => self.service,
            Phase::NetworkRtt => self.network_rtt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span() -> RequestSpan {
        RequestSpan {
            arrival: Nanos::new(50.0),
            completion: Nanos::new(5_050.0),
            queue_wait: Nanos::new(1_500.0),
            exit_penalty: Nanos::new(500.0),
            exit_state: Some("C6"),
            snoop_stall: Nanos::ZERO,
            service: Nanos::new(3_000.0),
            network_rtt: Nanos::from_micros(117.0),
        }
    }

    #[test]
    fn phases_sum_to_latency() {
        let s = span();
        assert_eq!(s.server_latency(), Nanos::new(5_000.0));
        assert_eq!(s.phase_total(), s.server_latency());
        assert_eq!(s.residual(), Nanos::ZERO);
    }

    #[test]
    fn phase_accessor_matches_fields() {
        let s = span();
        assert_eq!(s.phase(Phase::QueueWait), s.queue_wait);
        assert_eq!(s.phase(Phase::ExitPenalty), s.exit_penalty);
        assert_eq!(s.phase(Phase::SnoopStall), s.snoop_stall);
        assert_eq!(s.phase(Phase::Service), s.service);
        assert_eq!(s.phase(Phase::NetworkRtt), s.network_rtt);
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<_> = Phase::ALL.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Phase::ALL.len());
        assert_eq!(Phase::ExitPenalty.to_string(), "cstate_exit");
    }
}
