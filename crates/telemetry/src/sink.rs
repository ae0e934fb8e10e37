//! The trace ring buffer: where recorded events go.

use std::collections::VecDeque;

use crate::event::TraceEvent;

/// A bounded ring buffer of events.
///
/// When full, the oldest event is evicted and counted as dropped, so a
/// long run keeps the most recent window of activity and the export can
/// report exactly how much was truncated.
///
/// # Examples
///
/// A [`TelemetryRecorder`](crate::TelemetryRecorder) keeps its trace
/// window in one:
///
/// ```
/// use aw_telemetry::{EventKind, TelemetryRecorder};
/// use aw_types::Nanos;
///
/// let mut recorder = TelemetryRecorder::new(1, 2);
/// for i in 0..3 {
///     recorder.record(0, Nanos::new(f64::from(i)), EventKind::TurboEngage);
/// }
/// let report = recorder.into_report(Nanos::new(3.0));
/// assert_eq!(report.events.len(), 2);
/// assert_eq!(report.summary.events_dropped, 1);
/// assert_eq!(report.events[0].time, Nanos::new(1.0));
/// ```
#[derive(Debug, Clone)]
pub(crate) struct RingBufferSink {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    recorded: u64,
}

impl RingBufferSink {
    /// Creates a sink holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer needs a positive capacity");
        RingBufferSink {
            events: VecDeque::with_capacity(capacity.min(64 * 1024)),
            capacity,
            dropped: 0,
            recorded: 0,
        }
    }

    /// Events evicted because the buffer was full.
    #[must_use]
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever recorded (held + dropped).
    #[must_use]
    pub(crate) fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Consumes the sink, returning the held events oldest-first.
    #[must_use]
    pub(crate) fn into_events(self) -> Vec<TraceEvent> {
        self.events.into()
    }

    /// Records one event, evicting the oldest if the buffer is full.
    pub(crate) fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        } else if self.events.len() == self.events.capacity() {
            // Grow straight to the cap, once: doubling would overshoot it
            // (200k → 262,144 slots) and copy the ring at every step.
            self.events.reserve_exact(self.capacity - self.events.len());
        }
        self.events.push_back(event);
        self.recorded += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use aw_types::Nanos;

    fn ev(t: f64) -> TraceEvent {
        TraceEvent { time: Nanos::new(t), core: 0, kind: EventKind::TurboEngage }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut s = RingBufferSink::new(3);
        for i in 0..5 {
            s.record(ev(f64::from(i)));
        }
        assert_eq!(s.events.len(), 3);
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.recorded(), 5);
        let times: Vec<f64> = s.events.iter().map(|e| e.time.as_nanos()).collect();
        assert_eq!(times, [2.0, 3.0, 4.0]);
    }

    #[test]
    fn into_events_preserves_order() {
        let mut s = RingBufferSink::new(2);
        s.record(ev(1.0));
        s.record(ev(2.0));
        s.record(ev(3.0));
        let v = s.into_events();
        assert_eq!(v.len(), 2);
        assert!(v[0].time < v[1].time);
    }

    #[test]
    fn large_ring_grows_to_exactly_its_capacity() {
        let capacity = 100_000;
        let mut s = RingBufferSink::new(capacity);
        for i in 0..capacity + 10 {
            s.record(ev(i as f64));
        }
        assert_eq!(s.events.capacity(), capacity);
        assert_eq!(s.events.len(), capacity);
        assert_eq!(s.dropped(), 10);
        assert_eq!(s.events[0].time, Nanos::new(10.0));
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_rejected() {
        let _ = RingBufferSink::new(0);
    }
}
