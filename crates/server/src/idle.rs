//! Idle-interval records captured for offline opportunity analysis.

use aw_cstates::CState;
use aw_types::Nanos;

/// One completed per-core idle round trip (entry transition → residency
/// → exit transition), captured on the wake path when idle analysis is
/// enabled (see [`crate::SimBuilder::with_idle_analysis`]).
///
/// Capture is pure observation: records are appended as the simulation
/// runs and never read back, so an instrumented run is bit-identical to
/// an unobserved one. `duration` is the same round-trip time the
/// governor observes through `observe_idle` — entry latency plus
/// residency plus exit latency, including any injected wake disruption —
/// so offline analysis scores governors against exactly the signal they
/// learned from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdleInterval {
    /// The core that idled.
    pub core: usize,
    /// When the idle period began (the governor decision point).
    pub start: Nanos,
    /// Full round-trip duration (entry + residency + exit).
    pub duration: Nanos,
    /// The idle state the governor chose.
    pub chosen: CState,
    /// The governor's idle-duration prediction at selection time: the
    /// predictor's own estimate, falling back to the oracle hint for
    /// hinted governors (`None` for non-predictive, unhinted
    /// governors).
    pub predicted: Option<Nanos>,
    /// `true` when the interval began inside the measured window (at or
    /// after warm-up end); analysis normally ignores unmeasured
    /// intervals, matching the metric reset.
    pub measured: bool,
}
