//! Idle-interval records captured for offline opportunity analysis.

use aw_cstates::CState;
use aw_types::Nanos;

/// One completed per-core idle round trip (entry transition → residency
/// → exit transition) that began in the measured window, captured on the
/// wake path when idle analysis is enabled (see
/// [`crate::SimBuilder::with_idle_analysis`]).
///
/// Capture is pure observation: records are appended as the simulation
/// runs and never read back, so an instrumented run is bit-identical to
/// an unobserved one. Only round trips starting at or after warm-up end
/// are kept, matching the metric reset. `duration` is the same
/// round-trip time the governor observes through `observe_idle` — entry
/// latency plus residency plus exit latency, including any injected wake
/// disruption — so offline analysis scores governors against exactly the
/// signal they learned from.
///
/// A run logs one record per idle round trip, so the record is kept to
/// 32 bytes: the prediction is a plain [`Nanos`] beside a presence flag
/// rather than an `Option<Nanos>`, and the flag, `core` and `chosen`
/// share one 8-byte word.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdleInterval {
    /// The core that idled.
    pub core: u32,
    /// The idle state the governor chose.
    pub chosen: CState,
    /// `true` when the governor made a prediction.
    has_prediction: bool,
    /// When the idle period began (the governor decision point).
    pub start: Nanos,
    /// Full round-trip duration (entry + residency + exit).
    pub duration: Nanos,
    /// The prediction when `has_prediction`, else zero.
    prediction: Nanos,
}

impl IdleInterval {
    /// A round trip of `core` in `chosen` from `start`, lasting
    /// `duration`, with the governor's prediction `predicted`.
    #[must_use]
    pub fn new(
        core: u32,
        start: Nanos,
        duration: Nanos,
        chosen: CState,
        predicted: Option<Nanos>,
    ) -> Self {
        IdleInterval {
            core,
            chosen,
            has_prediction: predicted.is_some(),
            start,
            duration,
            prediction: predicted.unwrap_or(Nanos::ZERO),
        }
    }

    /// The governor's idle-duration prediction at selection time: the
    /// predictor's own estimate, falling back to the oracle hint for
    /// hinted governors (`None` for non-predictive, unhinted governors).
    #[must_use]
    pub fn predicted(&self) -> Option<Nanos> {
        self.has_prediction.then_some(self.prediction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_thirty_two_bytes() {
        // An `Option<Nanos>` would take 16 bytes and pad the record to 48.
        assert_eq!(std::mem::size_of::<IdleInterval>(), 32);
    }

    #[test]
    fn prediction_round_trips() {
        let at = |predicted| {
            IdleInterval::new(3, Nanos::ZERO, Nanos::new(5.0), CState::C1, predicted).predicted()
        };
        assert_eq!(at(None), None);
        assert_eq!(at(Some(Nanos::ZERO)), Some(Nanos::ZERO));
        assert_eq!(at(Some(Nanos::new(-2.5))), Some(Nanos::new(-2.5)));
    }
}
