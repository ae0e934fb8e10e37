//! Integration tests for the telemetry stack: event ordering, slice
//! reconstruction, registry/event-stream consistency, and the Chrome
//! trace exporter's golden format.

use agilewatts::aw_cstates::NamedConfig;
use agilewatts::aw_server::{RunOutput, ServerConfig, SimBuilder};
use agilewatts::aw_telemetry::export::metrics_json;
use agilewatts::aw_telemetry::{
    EventKind, LogHistogram, MetricsRegistry, TelemetryRecorder, TelemetryReport, TelemetrySummary,
    TimeWeightedGauge,
};
use agilewatts::aw_types::Nanos;
use agilewatts::aw_workloads::memcached_etc;
use proptest::prelude::*;

/// See `tests/common/json_reader.rs` — the reader is shared with the
/// attribution integration tests.
#[path = "common/json_reader.rs"]
mod json;

fn traced_run(named: NamedConfig, cores: usize) -> TelemetryReport {
    let config = ServerConfig::new(cores, named).with_duration(Nanos::from_millis(30.0));
    let out = SimBuilder::new(config, memcached_etc(80_000.0), 7).with_telemetry(1_000_000).run();
    let (metrics, report) = (out.metrics, out.telemetry);
    let report = report.expect("telemetry enabled");
    assert_eq!(
        metrics.telemetry.as_ref().expect("summary attached"),
        &report.summary,
        "RunMetrics carries the same summary as the report"
    );
    report
}

#[test]
fn trace_events_are_time_ordered() {
    let report = traced_run(NamedConfig::Aw, 4);
    assert!(report.events.len() > 1_000, "expected a busy trace");
    for pair in report.events.windows(2) {
        assert!(
            pair[0].time <= pair[1].time,
            "events out of order: {:?} then {:?}",
            pair[0],
            pair[1]
        );
    }
}

#[test]
fn per_core_cstate_slices_do_not_overlap() {
    let report = traced_run(NamedConfig::Baseline, 4);
    // Reconstruct each core's slices exactly as the Chrome exporter does:
    // an exit event at `t` with residency `r` is the slice [t − r, t].
    for core in 0..4u32 {
        let mut prev_end = Nanos::new(f64::NEG_INFINITY);
        let mut slices = 0;
        for event in report.events.iter().filter(|e| e.core == core) {
            if let EventKind::CStateExit { residency, state } = event.kind {
                let start = event.time - residency;
                assert!(
                    start.as_nanos() >= prev_end.as_nanos() - 1e-6,
                    "core {core}: slice '{state}' starting {start} overlaps \
                     previous slice ending {prev_end}"
                );
                prev_end = event.time;
                slices += 1;
            }
        }
        assert!(slices > 10, "core {core} produced only {slices} slices");
    }
}

#[test]
fn governor_metrics_match_a_fold_over_the_events() {
    let report = traced_run(NamedConfig::Aw, 4);
    // Every governor decision is an event; every outcome scored against
    // it is an event too. The summary's aggregates must equal a plain
    // fold over the stream (the buffer was large enough to drop nothing).
    assert_eq!(report.summary.events_dropped, 0);
    let decisions = report
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::GovernorDecision { .. }))
        .count() as u64;
    let outcomes: Vec<bool> = report
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::IdleOutcome { premature, .. } => Some(premature),
            _ => None,
        })
        .collect();
    let mispredicts = outcomes.iter().filter(|&&p| p).count() as u64;
    assert_eq!(report.summary.governor_decisions, decisions);
    assert_eq!(report.summary.governor_mispredicts, mispredicts);
    assert!(report.summary.mispredict_rate >= 0.0 && report.summary.mispredict_rate <= 1.0);
}

#[test]
fn chrome_export_is_valid_json_with_required_keys() {
    let cores = 3;
    let report = traced_run(NamedConfig::Aw, cores);
    let doc = json::parse(&report.chrome_trace_json()).expect("exporter emits valid JSON");

    let events = doc.get("traceEvents").and_then(json::Value::as_array).expect("traceEvents");
    assert!(!events.is_empty());

    let mut tracks = std::collections::BTreeSet::new();
    let mut slices = 0;
    for event in events {
        let ph = event.get("ph").and_then(json::Value::as_str).expect("every event has ph");
        let pid = event.get("pid").and_then(json::Value::as_f64).expect("every event has pid");
        let tid = event.get("tid").and_then(json::Value::as_f64).expect("every event has tid");
        assert_eq!(pid, 0.0);
        match ph {
            "X" => {
                let ts = event.get("ts").and_then(json::Value::as_f64).expect("X has ts");
                let dur = event.get("dur").and_then(json::Value::as_f64).expect("X has dur");
                assert!(ts >= 0.0 && dur >= 0.0);
                tracks.insert(tid as u64);
                slices += 1;
            }
            "i" => {
                assert!(event.get("ts").is_some(), "instant has ts");
            }
            "M" => {
                assert!(event.get("args").is_some(), "metadata carries args");
            }
            other => panic!("unexpected phase '{other}'"),
        }
    }
    assert!(slices > 100, "expected plenty of slices, got {slices}");
    // One track per core: every core contributed slices.
    assert_eq!(tracks.len(), cores, "tracks {tracks:?}");

    // Thread-name metadata names each core's track.
    for core in 0..cores {
        let name = format!("core {core}");
        assert!(
            events.iter().any(|e| {
                e.get("ph").and_then(json::Value::as_str) == Some("M")
                    && e.get("args").and_then(|a| a.get("name")).and_then(json::Value::as_str)
                        == Some(name.as_str())
            }),
            "missing thread_name metadata for {name}"
        );
    }
}

/// Everything a traced run reports depends on its inputs alone: two
/// identical runs give the same metrics, summary included, and the same
/// metrics document byte for byte.
#[test]
fn identical_traced_runs_report_identical_metrics() {
    let run = || {
        let config = ServerConfig::new(2, NamedConfig::Aw).with_duration(Nanos::from_millis(10.0));
        SimBuilder::new(config, memcached_etc(80_000.0), 7).with_telemetry(10_000).run()
    };
    let (a, b) = (run(), run());
    assert!(a.metrics.telemetry.is_some(), "the summary rides in the metrics");
    assert_eq!(format!("{:?}", a.metrics), format!("{:?}", b.metrics));
    let json = |out: &RunOutput| out.telemetry.as_ref().expect("telemetry enabled").metrics_json();
    assert_eq!(json(&a), json(&b));
}

#[test]
fn metrics_export_is_valid_json_with_headline_numbers() {
    let report = traced_run(NamedConfig::Aw, 2);
    let doc = json::parse(&report.metrics_json()).expect("exporter emits valid JSON");
    let summary = doc.get("summary").expect("summary section");
    for key in
        ["mispredict_rate", "event_queue_depth_hwm", "run_queue_depth_hwm", "governor_decisions"]
    {
        assert!(summary.get(key).is_some(), "summary is missing {key}");
    }
    let counters = doc.get("counters").expect("counters section");
    assert!(counters.get("governor.decisions").and_then(json::Value::as_f64).unwrap() > 0.0);
    let gauges = doc.get("gauges").expect("gauges section");
    assert!(gauges.get("runqueue.depth").is_some());
    let histograms = doc.get("histograms").expect("histograms section");
    assert!(histograms.get("cstate.residency_ns").is_some());
}

/// The registry and summary the recorder must produce for a sequence of
/// calls, folded here from plain string-keyed registry calls.
#[derive(Default)]
struct ReferenceFold {
    registry: MetricsRegistry,
    occupancy: [Option<Nanos>; 3],
    pending: [Option<Nanos>; 3],
    decisions: [u64; 3],
    mispredicts: [u64; 3],
    emitted: u64,
}

impl ReferenceFold {
    /// One recorder call that emits one trace event and bumps `counter`.
    fn event(&mut self, counter: &str) {
        self.registry.inc(counter, 1);
        self.emitted += 1;
    }

    fn state_change(&mut self, core: usize, now: Nanos) {
        if let Some(since) = self.occupancy[core].replace(now) {
            let residency = (now - since).clamp_non_negative();
            self.registry.histogram_record("cstate.residency_ns", residency.as_nanos());
            self.emitted += 1;
        }
        self.event("cstate.transitions");
    }

    fn governor_decision(&mut self, core: usize, predicted: Nanos) {
        self.pending[core] = Some(predicted);
        self.decisions[core] += 1;
        self.event("governor.decisions");
    }

    fn idle_outcome(&mut self, core: usize, actual: Nanos, target: Nanos) {
        let Some(predicted) = self.pending[core].take() else { return };
        if actual < target {
            self.mispredicts[core] += 1;
            self.registry.inc("governor.mispredicts", 1);
        }
        let error = (actual - predicted).as_nanos().abs();
        self.registry.histogram_record("governor.residency_error_ns", error);
        self.emitted += 1;
    }

    fn finish(mut self, end: Nanos) -> (MetricsRegistry, TelemetrySummary) {
        self.emitted += self.occupancy.iter().flatten().count() as u64;
        let r = &mut self.registry;
        r.finish_gauges(end);
        r.inc("trace.recorded", self.emitted);
        r.inc("trace.dropped", 0);
        for core in 0..3 {
            r.inc(&format!("governor.decisions.core{core}"), self.decisions[core]);
            r.inc(&format!("governor.mispredicts.core{core}"), self.mispredicts[core]);
        }
        let rate = |m: u64, d: u64| if d > 0 { m as f64 / d as f64 } else { 0.0 };
        let hwm = |name| r.gauge(name).map_or(0.0, TimeWeightedGauge::high_water_mark);
        let (decisions, mispredicts) =
            (r.counter("governor.decisions"), r.counter("governor.mispredicts"));
        let summary = TelemetrySummary {
            events_recorded: self.emitted,
            events_dropped: 0,
            sim_events: r.counter("sim.events"),
            event_queue_depth_hwm: hwm("sim.queue_depth"),
            run_queue_depth_hwm: hwm("runqueue.depth"),
            governor_decisions: decisions,
            governor_mispredicts: mispredicts,
            mispredict_rate: rate(mispredicts, decisions),
            mean_residency_error: Nanos::new(
                r.histogram("governor.residency_error_ns").map_or(0.0, LogHistogram::mean),
            ),
            per_core_mispredict_rate: (0..3)
                .map(|c| rate(self.mispredicts[c], self.decisions[c]))
                .collect(),
        };
        (self.registry, summary)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every recorder entry point, in arbitrary interleavings: the
    /// registry's counters equal a fold over the raw event stream, and the
    /// whole metrics export equals one built from plain string-keyed
    /// registry calls.
    #[test]
    fn registry_aggregates_equal_event_fold(ops in prop::collection::vec((0u8..15, 0u32..3, 1.0f64..1e6), 1..300)) {
        const STATES: [&str; 3] = ["C0", "C1", "C6A"];
        let mut rec = TelemetryRecorder::new(3, 10_000);
        let mut reference = ReferenceFold::default();
        let mut clock = 0.0;
        for &(op, core, jitter) in &ops {
            clock += jitter;
            let now = Nanos::new(clock);
            let slot = core as usize;
            let depth = jitter as u32 % 8;
            let span = Nanos::new(jitter);
            match op {
                0 => {
                    rec.record(core, now, EventKind::QueueEnqueue { depth });
                    reference.event("runqueue.enqueues");
                    reference.registry.gauge_set("runqueue.depth", now, f64::from(depth));
                }
                1 => {
                    rec.record(core, now, EventKind::QueueDequeue { depth });
                    reference.event("runqueue.dequeues");
                    reference.registry.gauge_set("runqueue.depth", now, f64::from(depth));
                }
                2 => {
                    rec.record(core, now, EventKind::WakeInterrupt { reason: "arrival" });
                    reference.event("wakes");
                }
                3 => {
                    rec.record(core, now, EventKind::SnoopService { state: "C1" });
                    reference.event("snoops.serviced");
                }
                4 => {
                    rec.record(core, now, EventKind::TurboEngage);
                    reference.event("turbo.engagements");
                }
                5 => {
                    rec.state_change(core, now, STATES[depth as usize % 3]);
                    reference.state_change(slot, now);
                }
                6 => {
                    rec.governor_decision(core, now, "C6A", span);
                    reference.governor_decision(slot, span);
                }
                7 => {
                    let target = Nanos::from_micros(500.0);
                    rec.idle_outcome(core, now, span, target);
                    reference.idle_outcome(slot, span, target);
                }
                8 => {
                    rec.sim_event(now, depth as usize);
                    reference.registry.inc("sim.events", 1);
                    reference.registry.gauge_set("sim.queue_depth", now, f64::from(depth));
                }
                9 => {
                    rec.record(core, now, EventKind::FaultInjected { kind: "wake-fail" });
                    reference.event("faults.injected");
                }
                10 => {
                    rec.record(core, now, EventKind::RequestShed { depth });
                    reference.event("overload.shed");
                }
                11 => {
                    rec.record(core, now, EventKind::RequestTimeout { waited: span });
                    reference.event("overload.timeouts");
                }
                12 => {
                    rec.record(core, now, EventKind::RequestRetry { attempt: depth });
                    reference.event("overload.retries");
                }
                13 => {
                    rec.record(core, now, EventKind::BreakerTrip);
                    reference.event("breaker.trips");
                }
                _ => {
                    rec.record(core, now, EventKind::BreakerRestore);
                    reference.event("breaker.restores");
                }
            }
        }
        let report = rec.into_report(Nanos::new(clock));
        prop_assert_eq!(report.summary.events_dropped, 0);
        let count = |f: fn(&EventKind) -> bool| {
            report.events.iter().filter(|e| f(&e.kind)).count() as u64
        };
        let enqueues = count(|k| matches!(k, EventKind::QueueEnqueue { .. }));
        let dequeues = count(|k| matches!(k, EventKind::QueueDequeue { .. }));
        let wakes = count(|k| matches!(k, EventKind::WakeInterrupt { .. }));
        let snoops = count(|k| matches!(k, EventKind::SnoopService { .. }));
        let turbos = count(|k| matches!(k, EventKind::TurboEngage));
        prop_assert_eq!(report.registry.counter("runqueue.enqueues"), enqueues);
        prop_assert_eq!(report.registry.counter("runqueue.dequeues"), dequeues);
        prop_assert_eq!(report.registry.counter("wakes"), wakes);
        prop_assert_eq!(report.registry.counter("snoops.serviced"), snoops);
        prop_assert_eq!(report.registry.counter("turbo.engagements"), turbos);
        prop_assert_eq!(report.summary.events_recorded, report.events.len() as u64);

        let (registry, summary) = reference.finish(Nanos::new(clock));
        prop_assert_eq!(&report.summary, &summary);
        prop_assert_eq!(report.metrics_json(), metrics_json(&registry, &summary));
    }
}
