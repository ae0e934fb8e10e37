//! Exporters: Chrome trace-event JSON and machine-readable metrics JSON.
//!
//! The Chrome format is the "JSON Array with metadata" flavour consumed
//! by `chrome://tracing` and Perfetto: a `traceEvents` array of objects
//! with `ph` (phase), `ts`/`dur` (microseconds), `pid`, and `tid`.
//! Every core maps to its own `tid`, so the viewer shows one track per
//! core; C-state occupancy renders as complete (`"X"`) slices and
//! point-in-time actions (wakes, snoops, governor decisions) as instant
//! (`"i"`) events.

use aw_types::Nanos;

use crate::event::{EventKind, TraceEvent};
use crate::json::{write_escaped, write_num, write_uint, JsonValue};
use crate::recorder::TelemetrySummary;
use crate::registry::MetricsRegistry;

const PID: u64 = 0;

/// Output bytes reserved per trace event: slices and instants render to
/// roughly 80–120 bytes, so one up-front reservation covers the document.
const BYTES_PER_EVENT: usize = 128;

/// The value of one instant-event argument.
enum Arg<'a> {
    Str(&'a str),
    /// A duration, rendered in microseconds.
    Us(Nanos),
    UInt(u32),
    Bool(bool),
}

/// Writes the `pid` and `tid` fields every record carries.
fn write_ids(out: &mut String, tid: u64) {
    out.push_str(",\"pid\":");
    write_uint(out, PID);
    out.push_str(",\"tid\":");
    write_uint(out, tid);
}

/// Writes the fields slices and instants share, from `head` (the phase
/// fields up to `"name":`) through `"ts"`, leaving the object open.
fn open_event(out: &mut String, head: &str, name: &str, cat: &str, core: u32, ts: Nanos) {
    out.push_str(head);
    write_escaped(out, name);
    out.push_str(",\"cat\":");
    write_escaped(out, cat);
    write_ids(out, u64::from(core));
    out.push_str(",\"ts\":");
    write_num(out, ts.as_micros());
}

fn slice(out: &mut String, name: &str, cat: &str, core: u32, start: Nanos, dur: Nanos) {
    open_event(out, "{\"ph\":\"X\",\"name\":", name, cat, core, start);
    out.push_str(",\"dur\":");
    write_num(out, dur.as_micros());
    out.push_str("},");
}

/// A thread-scoped (`"s":"t"`) instant named after the event's kind.
fn instant(out: &mut String, e: &TraceEvent, cat: &str, args: &[(&str, Arg)]) {
    let head = "{\"ph\":\"i\",\"s\":\"t\",\"name\":";
    open_event(out, head, e.kind.label(), cat, e.core, e.time);
    out.push_str(",\"args\":{");
    for (i, (key, value)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(out, key);
        out.push(':');
        match *value {
            Arg::Str(s) => write_escaped(out, s),
            Arg::Us(t) => write_num(out, t.as_micros()),
            Arg::UInt(v) => write_uint(out, u64::from(v)),
            Arg::Bool(b) => out.push_str(if b { "true" } else { "false" }),
        }
    }
    out.push_str("}},");
}

fn metadata(out: &mut String, name: &str, tid: usize, value: &str) {
    out.push_str("{\"ph\":\"M\",\"name\":");
    write_escaped(out, name);
    write_ids(out, tid as u64);
    out.push_str(",\"args\":{\"name\":");
    write_escaped(out, value);
    out.push_str("}},");
}

/// Renders events as Chrome trace-event JSON with one track (`tid`) per
/// core. `cores` controls how many thread-name metadata records are
/// emitted; events referencing higher core ids still render.
///
/// Every event is written straight into one pre-sized buffer: no
/// intermediate value tree, so a 200k-event window costs one allocation.
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent], cores: usize) -> String {
    let mut out = String::with_capacity((events.len() + cores + 1) * BYTES_PER_EVENT);
    out.push_str("{\"traceEvents\":[");
    metadata(&mut out, "process_name", 0, "agilewatts simulation");
    for core in 0..cores {
        metadata(&mut out, "thread_name", core, &format!("core {core}"));
    }

    for e in events {
        let out = &mut out;
        match e.kind {
            // Slices are reconstructed from exit events, which carry the
            // exact residency: the slice spans [time − residency, time).
            EventKind::CStateExit { state, residency } => {
                slice(out, state, "cstate", e.core, e.time - residency, residency);
            }
            // Enter events duplicate the slice starts; skip them here.
            EventKind::CStateEnter { .. } => {}
            EventKind::GovernorDecision { chosen, predicted } => {
                let args = [("chosen", Arg::Str(chosen)), ("predicted_us", Arg::Us(predicted))];
                instant(out, e, "governor", &args);
            }
            EventKind::IdleOutcome { chosen, predicted, actual, premature } => {
                let args = [
                    ("chosen", Arg::Str(chosen)),
                    ("predicted_us", Arg::Us(predicted)),
                    ("actual_us", Arg::Us(actual)),
                    ("premature", Arg::Bool(premature)),
                ];
                instant(out, e, "governor", &args);
            }
            EventKind::WakeInterrupt { reason } => {
                instant(out, e, "wake", &[("reason", Arg::Str(reason))])
            }
            EventKind::SnoopService { state } => {
                instant(out, e, "snoop", &[("state", Arg::Str(state))])
            }
            EventKind::TurboEngage => instant(out, e, "turbo", &[]),
            EventKind::QueueEnqueue { depth } | EventKind::QueueDequeue { depth } => {
                instant(out, e, "queue", &[("depth", Arg::UInt(depth))]);
            }
            EventKind::FaultInjected { kind } => {
                instant(out, e, "fault", &[("kind", Arg::Str(kind))])
            }
            EventKind::RequestShed { depth } => {
                instant(out, e, "overload", &[("depth", Arg::UInt(depth))])
            }
            EventKind::RequestTimeout { waited } => {
                instant(out, e, "overload", &[("waited_us", Arg::Us(waited))])
            }
            EventKind::RequestRetry { attempt } => {
                instant(out, e, "overload", &[("attempt", Arg::UInt(attempt))])
            }
            EventKind::BreakerTrip | EventKind::BreakerRestore => instant(out, e, "breaker", &[]),
        }
    }

    // Every record ends in a comma; the process metadata guarantees at
    // least one, so the last one closes the array.
    out.pop();
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

fn summary_json(summary: &TelemetrySummary) -> JsonValue {
    JsonValue::obj(vec![
        ("events_recorded", JsonValue::UInt(summary.events_recorded)),
        ("events_dropped", JsonValue::UInt(summary.events_dropped)),
        ("sim_events", JsonValue::UInt(summary.sim_events)),
        ("event_queue_depth_hwm", JsonValue::Num(summary.event_queue_depth_hwm)),
        ("run_queue_depth_hwm", JsonValue::Num(summary.run_queue_depth_hwm)),
        ("governor_decisions", JsonValue::UInt(summary.governor_decisions)),
        ("governor_mispredicts", JsonValue::UInt(summary.governor_mispredicts)),
        ("mispredict_rate", JsonValue::Num(summary.mispredict_rate)),
        ("mean_residency_error_ns", JsonValue::Num(summary.mean_residency_error.as_nanos())),
        (
            "per_core_mispredict_rate",
            JsonValue::Array(
                summary.per_core_mispredict_rate.iter().map(|&r| JsonValue::Num(r)).collect(),
            ),
        ),
    ])
}

/// Renders the registry and summary as one machine-readable JSON
/// document: `{"summary": ..., "counters": ..., "gauges": ...,
/// "histograms": ...}`.
#[must_use]
pub fn metrics_json(registry: &MetricsRegistry, summary: &TelemetrySummary) -> String {
    let counters = JsonValue::Object(
        registry.counters().map(|(name, v)| (name.to_string(), JsonValue::UInt(v))).collect(),
    );
    let gauges = JsonValue::Object(
        registry
            .gauges()
            .map(|(name, g)| {
                (
                    name.to_string(),
                    JsonValue::obj(vec![
                        ("mean", JsonValue::Num(g.mean())),
                        ("high_water_mark", JsonValue::Num(g.high_water_mark())),
                        ("last", JsonValue::Num(g.last())),
                    ]),
                )
            })
            .collect(),
    );
    let histograms = JsonValue::Object(
        registry
            .histograms()
            .map(|(name, h)| {
                let buckets = h
                    .buckets()
                    .map(|(i, count)| {
                        let (lo, hi) = h.bucket_bounds(i);
                        JsonValue::obj(vec![
                            ("lo", JsonValue::Num(lo)),
                            ("hi", JsonValue::Num(hi)),
                            ("count", JsonValue::UInt(count)),
                        ])
                    })
                    .collect();
                (
                    name.to_string(),
                    JsonValue::obj(vec![
                        ("count", JsonValue::UInt(h.count())),
                        ("rejected", JsonValue::UInt(h.rejected())),
                        ("mean", JsonValue::Num(h.mean())),
                        ("max", JsonValue::Num(h.max())),
                        ("p50_upper_bound", JsonValue::Num(h.quantile_upper_bound(0.5))),
                        ("p99_upper_bound", JsonValue::Num(h.quantile_upper_bound(0.99))),
                        ("buckets", JsonValue::Array(buckets)),
                    ]),
                )
            })
            .collect(),
    );
    JsonValue::obj(vec![
        ("summary", summary_json(summary)),
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", histograms),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{TelemetryRecorder, TelemetryReport};

    fn sample_report() -> TelemetryReport {
        let mut r = TelemetryRecorder::new(2, 100);
        r.state_change(0, Nanos::new(0.0), "C0");
        r.state_change(0, Nanos::new(100.0), "C1");
        r.governor_decision(0, Nanos::new(100.0), "C1", Nanos::new(500.0));
        r.idle_outcome(0, Nanos::new(400.0), Nanos::new(300.0), Nanos::new(2000.0));
        r.record(0, Nanos::new(400.0), EventKind::WakeInterrupt { reason: "arrival" });
        r.record(1, Nanos::new(250.0), EventKind::QueueEnqueue { depth: 1 });
        r.record(1, Nanos::new(260.0), EventKind::QueueDequeue { depth: 0 });
        r.record(1, Nanos::new(260.0), EventKind::TurboEngage);
        r.record(0, Nanos::new(350.0), EventKind::SnoopService { state: "C1" });
        r.sim_event(Nanos::new(0.0), 2);
        r.into_report(Nanos::new(500.0))
    }

    #[test]
    fn chrome_trace_has_tracks_and_required_keys() {
        let report = sample_report();
        let json = report.chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"core 0\""));
        assert!(json.contains("\"core 1\""));
        for key in ["\"ph\"", "\"ts\"", "\"dur\"", "\"pid\"", "\"tid\""] {
            assert!(json.contains(key), "missing {key}");
        }
    }

    #[test]
    fn slices_come_from_exit_events() {
        // One C0 occupancy of 100 ns ending at t=100 → slice at ts=0.
        let report = sample_report();
        let json = report.chrome_trace_json();
        assert!(json.contains(
            "\"name\":\"C0\",\"cat\":\"cstate\",\"pid\":0,\"tid\":0,\"ts\":0,\"dur\":0.1"
        ));
    }

    #[test]
    fn metrics_json_carries_headline_numbers() {
        let report = sample_report();
        let json = report.metrics_json();
        for key in [
            "\"summary\"",
            "\"mispredict_rate\"",
            "\"event_queue_depth_hwm\"",
            "\"governor.decisions\"",
            "\"runqueue.depth\"",
            "\"governor.residency_error_ns\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }
}
