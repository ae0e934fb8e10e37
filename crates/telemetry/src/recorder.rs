//! The [`TelemetryRecorder`]: stateful glue between a simulator and the
//! event/metrics layers.
//!
//! The recorder owns a [`RingBufferSink`] and a [`MetricsRegistry`],
//! tracks per-core occupancy so C-state enter/exit events pair up with
//! exact residencies, and scores every governor decision against the
//! idle period that actually followed it.
//!
//! The built-in metrics live in fixed slots while the run is in flight,
//! so the per-event hot path never looks up a metric by name;
//! `into_report` folds them into the registry once and builds the
//! summary from the same slots.

use std::fmt;

use aw_types::Nanos;

use crate::event::{EventKind, TraceEvent};
use crate::export;
use crate::registry::{LogHistogram, MetricsRegistry, TimeWeightedGauge};
use crate::sink::RingBufferSink;

/// Per-core governor bookkeeping.
#[derive(Debug, Clone, Default)]
struct GovernorScore {
    /// The last decision awaiting its outcome: (state name, predicted).
    pending: Option<(&'static str, Nanos)>,
    decisions: u64,
    mispredicts: u64,
}

/// Declares the built-in counters: one slot per variant, and the name
/// each slot is folded into the registry under.
macro_rules! counters {
    ($($slot:ident => $name:literal,)*) => {
        #[derive(Clone, Copy)]
        enum Counter { $($slot),* }
        const COUNTER_NAMES: &[&str] = &[$($name),*];
    };
}

counters! {
    CStateTransitions => "cstate.transitions",
    Wakes => "wakes",
    SnoopsServiced => "snoops.serviced",
    TurboEngagements => "turbo.engagements",
    RunQueueEnqueues => "runqueue.enqueues",
    RunQueueDequeues => "runqueue.dequeues",
    SimEvents => "sim.events",
    FaultsInjected => "faults.injected",
    OverloadShed => "overload.shed",
    OverloadTimeouts => "overload.timeouts",
    OverloadRetries => "overload.retries",
    BreakerTrips => "breaker.trips",
    BreakerRestores => "breaker.restores",
}

/// Records trace events and metrics for one simulation run.
///
/// Construct with the core count and a trace capacity, drive it from the
/// simulator's event handlers, then close the run with
/// [`TelemetryRecorder::into_report`].
#[derive(Debug)]
pub struct TelemetryRecorder {
    sink: RingBufferSink,
    /// Built-in counters, indexed by [`Counter`]; every bump adds one, so
    /// a nonzero slot is exactly a touched counter.
    counters: [u64; COUNTER_NAMES.len()],
    /// `runqueue.depth` and `sim.queue_depth`, once first set.
    run_queue_depth: Option<TimeWeightedGauge>,
    event_queue_depth: Option<TimeWeightedGauge>,
    /// `cstate.residency_ns` and `governor.residency_error_ns`, once
    /// first recorded.
    residency_ns: Option<LogHistogram>,
    residency_error_ns: Option<LogHistogram>,
    /// Per core: the occupied state's name and when it was entered.
    occupancy: Vec<Option<(&'static str, Nanos)>>,
    /// Per core: decisions and mispredicts, summed into
    /// `governor.decisions` and `governor.mispredicts` at the end.
    governor: Vec<GovernorScore>,
}

impl TelemetryRecorder {
    /// Creates a recorder for `cores` cores, keeping at most
    /// `trace_limit` events.
    ///
    /// # Panics
    ///
    /// Panics if `trace_limit` is zero.
    #[must_use]
    pub fn new(cores: usize, trace_limit: usize) -> Self {
        TelemetryRecorder {
            sink: RingBufferSink::new(trace_limit),
            counters: [0; COUNTER_NAMES.len()],
            run_queue_depth: None,
            event_queue_depth: None,
            residency_ns: None,
            residency_error_ns: None,
            occupancy: vec![None; cores],
            governor: vec![GovernorScore::default(); cores],
        }
    }

    fn emit(&mut self, time: Nanos, core: u32, kind: EventKind) {
        self.sink.record(TraceEvent { time, core, kind });
    }

    fn bump(&mut self, counter: Counter) {
        self.counters[counter as usize] += 1;
    }

    /// The core moved to a new life-cycle state: emits the exit event for
    /// the previous state (with its exact residency) and the enter event
    /// for the new one.
    pub fn state_change(&mut self, core: u32, now: Nanos, state: &'static str) {
        let slot = usize::try_from(core).expect("core index fits usize");
        if let Some((prev, since)) = self.occupancy[slot] {
            let residency = (now - since).clamp_non_negative();
            self.emit(now, core, EventKind::CStateExit { state: prev, residency });
            self.residency_ns.get_or_insert_with(LogHistogram::new).record(residency.as_nanos());
        }
        self.occupancy[slot] = Some((state, now));
        self.emit(now, core, EventKind::CStateEnter { state });
        self.bump(Counter::CStateTransitions);
    }

    /// The governor picked `chosen`, predicting `predicted` of idleness.
    pub fn governor_decision(
        &mut self,
        core: u32,
        now: Nanos,
        chosen: &'static str,
        predicted: Nanos,
    ) {
        let slot = usize::try_from(core).expect("core index fits usize");
        self.governor[slot].pending = Some((chosen, predicted));
        self.governor[slot].decisions += 1;
        self.emit(now, core, EventKind::GovernorDecision { chosen, predicted });
    }

    /// The idle period chosen by the last decision on this core ended
    /// after `actual`; `target_residency` is the chosen state's
    /// break-even residency. A wake before the target is a mispredict.
    pub fn idle_outcome(&mut self, core: u32, now: Nanos, actual: Nanos, target_residency: Nanos) {
        let slot = usize::try_from(core).expect("core index fits usize");
        let Some((chosen, predicted)) = self.governor[slot].pending.take() else {
            return;
        };
        let premature = actual < target_residency;
        if premature {
            self.governor[slot].mispredicts += 1;
        }
        let error = (actual - predicted).as_nanos().abs();
        self.residency_error_ns.get_or_insert_with(LogHistogram::new).record(error);
        self.emit(now, core, EventKind::IdleOutcome { chosen, predicted, actual, premature });
    }

    /// Records one event that needs no pairing or scoring: bumps the
    /// kind's counter and emits the event. The queue kinds also set the
    /// `runqueue.depth` gauge to the depth after the push or pop.
    ///
    /// # Panics
    ///
    /// Panics on the kinds the recorder builds itself: C-state enter and
    /// exit ([`TelemetryRecorder::state_change`]), governor decisions
    /// ([`TelemetryRecorder::governor_decision`]) and idle outcomes
    /// ([`TelemetryRecorder::idle_outcome`]).
    pub fn record(&mut self, core: u32, now: Nanos, kind: EventKind) {
        let counter = match kind {
            EventKind::WakeInterrupt { .. } => Counter::Wakes,
            EventKind::SnoopService { .. } => Counter::SnoopsServiced,
            EventKind::TurboEngage => Counter::TurboEngagements,
            EventKind::QueueEnqueue { depth } | EventKind::QueueDequeue { depth } => {
                let gauge = self.run_queue_depth.get_or_insert_with(TimeWeightedGauge::new);
                gauge.set(now, f64::from(depth));
                if matches!(kind, EventKind::QueueEnqueue { .. }) {
                    Counter::RunQueueEnqueues
                } else {
                    Counter::RunQueueDequeues
                }
            }
            EventKind::FaultInjected { .. } => Counter::FaultsInjected,
            EventKind::RequestShed { .. } => Counter::OverloadShed,
            EventKind::RequestTimeout { .. } => Counter::OverloadTimeouts,
            EventKind::RequestRetry { .. } => Counter::OverloadRetries,
            EventKind::BreakerTrip => Counter::BreakerTrips,
            EventKind::BreakerRestore => Counter::BreakerRestores,
            EventKind::CStateEnter { .. }
            | EventKind::CStateExit { .. }
            | EventKind::GovernorDecision { .. }
            | EventKind::IdleOutcome { .. } => {
                panic!("`{}` events are built by the recorder itself", kind.label())
            }
        };
        self.bump(counter);
        self.emit(now, core, kind);
    }

    /// One DES event was dispatched with `queue_depth` events still
    /// pending. Cheap: bumps a counter and a gauge, emits no trace event.
    pub fn sim_event(&mut self, now: Nanos, queue_depth: usize) {
        self.bump(Counter::SimEvents);
        self.event_queue_depth
            .get_or_insert_with(TimeWeightedGauge::new)
            .set(now, queue_depth as f64);
    }

    /// Closes the run at simulation time `end` and consumes the recorder
    /// into a report: emits the final C-state exit events, folds the
    /// built-in metrics and per-core governor scores into the registry,
    /// and builds the summary from the same slots.
    #[must_use]
    pub fn into_report(mut self, end: Nanos) -> TelemetryReport {
        for (slot, occupied) in self.occupancy.iter().enumerate() {
            if let Some((state, since)) = *occupied {
                let residency = (end - since).clamp_non_negative();
                let core = u32::try_from(slot).expect("core index fits u32");
                let kind = EventKind::CStateExit { state, residency };
                self.sink.record(TraceEvent { time: end, core, kind });
            }
        }
        let mut registry = MetricsRegistry::new();
        let mut per_core_mispredict_rate = Vec::with_capacity(self.governor.len());
        let (mut decisions, mut mispredicts) = (0, 0);
        for (i, score) in self.governor.iter().enumerate() {
            registry.inc(&format!("governor.decisions.core{i}"), score.decisions);
            registry.inc(&format!("governor.mispredicts.core{i}"), score.mispredicts);
            per_core_mispredict_rate.push(rate(score.mispredicts, score.decisions));
            decisions += score.decisions;
            mispredicts += score.mispredicts;
        }
        let governor = [("governor.decisions", decisions), ("governor.mispredicts", mispredicts)];
        for (name, count) in COUNTER_NAMES.iter().copied().zip(self.counters).chain(governor) {
            if count > 0 {
                registry.inc(name, count);
            }
        }
        registry.inc("trace.recorded", self.sink.recorded());
        registry.inc("trace.dropped", self.sink.dropped());

        let hwm = |gauge: &Option<TimeWeightedGauge>| {
            gauge.as_ref().map_or(0.0, TimeWeightedGauge::high_water_mark)
        };
        let summary = TelemetrySummary {
            events_recorded: self.sink.recorded(),
            events_dropped: self.sink.dropped(),
            sim_events: self.counters[Counter::SimEvents as usize],
            event_queue_depth_hwm: hwm(&self.event_queue_depth),
            run_queue_depth_hwm: hwm(&self.run_queue_depth),
            governor_decisions: decisions,
            governor_mispredicts: mispredicts,
            mispredict_rate: rate(mispredicts, decisions),
            mean_residency_error: Nanos::new(
                self.residency_error_ns.as_ref().map_or(0.0, LogHistogram::mean),
            ),
            per_core_mispredict_rate,
        };

        let gauges =
            [("runqueue.depth", self.run_queue_depth), ("sim.queue_depth", self.event_queue_depth)];
        for (name, gauge) in gauges {
            if let Some(gauge) = gauge {
                registry.gauges.insert(name.to_string(), gauge);
            }
        }
        registry.finish_gauges(end);
        let histograms = [
            ("cstate.residency_ns", self.residency_ns),
            ("governor.residency_error_ns", self.residency_error_ns),
        ];
        for (name, histogram) in histograms {
            if let Some(histogram) = histogram {
                registry.histograms.insert(name.to_string(), histogram);
            }
        }
        TelemetryReport {
            cores: self.occupancy.len(),
            events: self.sink.into_events(),
            registry,
            summary,
        }
    }
}

/// `part / whole`, or 0 when `whole` is 0.
fn rate(part: u64, whole: u64) -> f64 {
    if whole > 0 {
        part as f64 / whole as f64
    } else {
        0.0
    }
}

/// The headline numbers a traced run surfaces in `RunMetrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySummary {
    /// Trace events emitted (held + dropped).
    pub events_recorded: u64,
    /// Trace events evicted from the bounded buffer.
    pub events_dropped: u64,
    /// DES events dispatched by the simulator loop.
    pub sim_events: u64,
    /// High-water mark of the DES event-queue depth.
    pub event_queue_depth_hwm: f64,
    /// High-water mark of the per-core run-queue depth.
    pub run_queue_depth_hwm: f64,
    /// Governor decisions scored.
    pub governor_decisions: u64,
    /// Decisions where the core woke before the chosen state's target
    /// residency.
    pub governor_mispredicts: u64,
    /// `governor_mispredicts / governor_decisions` (0 if no decisions).
    pub mispredict_rate: f64,
    /// Mean |actual − predicted| idle duration.
    pub mean_residency_error: Nanos,
    /// Mispredict rate per core, indexed by core id.
    pub per_core_mispredict_rate: Vec<f64>,
}

impl fmt::Display for TelemetrySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events ({} dropped), queue HWM {:.0}, \
             mispredict {:.1}% over {} decisions, residency err {}",
            self.events_recorded,
            self.events_dropped,
            self.event_queue_depth_hwm,
            self.mispredict_rate * 100.0,
            self.governor_decisions,
            self.mean_residency_error,
        )
    }
}

/// Everything a traced run produced: the event window, the registry, and
/// the summary. Ready to export.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// The traced events, oldest first.
    pub events: Vec<TraceEvent>,
    /// The metrics registry at end of run.
    pub registry: MetricsRegistry,
    /// The headline summary.
    pub summary: TelemetrySummary,
    /// Number of cores (one Chrome-trace track each).
    pub cores: usize,
}

impl TelemetryReport {
    /// Renders the event window as Chrome trace-event JSON (loadable in
    /// `chrome://tracing` and Perfetto; one track per core).
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        export::chrome_trace_json(&self.events, self.cores)
    }

    /// Renders the registry and summary as machine-readable JSON.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        export::metrics_json(&self.registry, &self.summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_changes_pair_exits_with_enters() {
        let mut r = TelemetryRecorder::new(1, 100);
        r.state_change(0, Nanos::new(0.0), "C0");
        r.state_change(0, Nanos::new(50.0), "C1");
        let report = r.into_report(Nanos::new(80.0));
        let exits: Vec<_> = report
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::CStateExit { state, residency } => Some((state, residency)),
                _ => None,
            })
            .collect();
        assert_eq!(exits, [("C0", Nanos::new(50.0)), ("C1", Nanos::new(30.0))]);
    }

    #[test]
    fn mispredicts_are_scored_against_target_residency() {
        let mut r = TelemetryRecorder::new(2, 100);
        r.governor_decision(0, Nanos::ZERO, "C6", Nanos::from_micros(700.0));
        r.idle_outcome(0, Nanos::new(100.0), Nanos::new(100.0), Nanos::from_micros(600.0));
        r.governor_decision(1, Nanos::ZERO, "C1", Nanos::from_micros(3.0));
        r.idle_outcome(
            1,
            Nanos::from_micros(5.0),
            Nanos::from_micros(5.0),
            Nanos::from_micros(2.0),
        );
        let report = r.into_report(Nanos::from_micros(10.0));
        let s = &report.summary;
        assert_eq!(s.governor_decisions, 2);
        assert_eq!(s.governor_mispredicts, 1);
        assert_eq!(s.mispredict_rate, 0.5);
        assert_eq!(s.per_core_mispredict_rate, [1.0, 0.0]);
        assert_eq!(report.registry.counter("governor.decisions"), 2);
        assert_eq!(report.registry.counter("governor.mispredicts"), 1);
        // |100 ns − 700 µs| and |5 µs − 3 µs|, read from the histogram.
        assert_eq!(s.mean_residency_error, Nanos::new((699_900.0 + 2_000.0) / 2.0));
    }

    #[test]
    fn outcome_without_decision_is_ignored() {
        let mut r = TelemetryRecorder::new(1, 16);
        r.idle_outcome(0, Nanos::ZERO, Nanos::ZERO, Nanos::new(1.0));
        let report = r.into_report(Nanos::new(1.0));
        assert_eq!(report.summary.governor_decisions, 0);
        assert_eq!(report.summary.mean_residency_error, Nanos::ZERO);
        // Zero totals stay out of the registry; per-core scores do not.
        let governor: Vec<&str> = report
            .registry
            .counters()
            .map(|(n, _)| n)
            .filter(|n| n.starts_with("governor."))
            .collect();
        assert_eq!(governor, ["governor.decisions.core0", "governor.mispredicts.core0"]);
    }

    #[test]
    fn sim_events_feed_throughput_and_hwm() {
        let mut r = TelemetryRecorder::new(1, 16);
        r.sim_event(Nanos::new(0.0), 3);
        r.sim_event(Nanos::new(10.0), 7);
        r.sim_event(Nanos::new(20.0), 1);
        let s = r.into_report(Nanos::new(30.0)).summary;
        assert_eq!(s.sim_events, 3);
        assert_eq!(s.event_queue_depth_hwm, 7.0);
    }
}
