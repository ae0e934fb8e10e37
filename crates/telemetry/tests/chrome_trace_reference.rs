//! Differential test: the streaming Chrome-trace writer against a
//! reference renderer that builds the document as a `JsonValue` tree.
//! Both must produce the same bytes for any event window.

use aw_telemetry::export::chrome_trace_json;
use aw_telemetry::json::JsonValue;
use aw_telemetry::{EventKind, TraceEvent};
use aw_types::Nanos;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

fn us(t: Nanos) -> JsonValue {
    JsonValue::Num(t.as_micros())
}

fn head(ph: &str, name: &str, cat: &str, core: u32, ts: Nanos) -> Vec<(&'static str, JsonValue)> {
    let mut fields = vec![("ph", JsonValue::str(ph))];
    if ph == "i" {
        fields.push(("s", JsonValue::str("t")));
    }
    fields.extend([
        ("name", JsonValue::str(name)),
        ("cat", JsonValue::str(cat)),
        ("pid", JsonValue::UInt(0)),
        ("tid", JsonValue::UInt(u64::from(core))),
        ("ts", us(ts)),
    ]);
    fields
}

fn slice(name: &str, cat: &str, core: u32, start: Nanos, dur: Nanos) -> JsonValue {
    let mut fields = head("X", name, cat, core, start);
    fields.push(("dur", us(dur)));
    JsonValue::obj(fields)
}

fn instant(name: &str, cat: &str, e: &TraceEvent, args: Vec<(&str, JsonValue)>) -> JsonValue {
    let mut fields = head("i", name, cat, e.core, e.time);
    fields.push(("args", JsonValue::obj(args)));
    JsonValue::obj(fields)
}

fn metadata(name: &str, tid: u64, value: &str) -> JsonValue {
    JsonValue::obj(vec![
        ("ph", JsonValue::str("M")),
        ("name", JsonValue::str(name)),
        ("pid", JsonValue::UInt(0)),
        ("tid", JsonValue::UInt(tid)),
        ("args", JsonValue::obj(vec![("name", JsonValue::str(value))])),
    ])
}

/// The value-tree renderer the streaming writer replaced.
fn reference_chrome_trace(events: &[TraceEvent], cores: usize) -> String {
    let mut out = vec![metadata("process_name", 0, "agilewatts simulation")];
    for core in 0..cores {
        out.push(metadata("thread_name", core as u64, &format!("core {core}")));
    }
    let str = JsonValue::str;
    let depth = |d: u32| JsonValue::UInt(u64::from(d));
    for e in events {
        out.push(match e.kind {
            EventKind::CStateEnter { .. } => continue,
            EventKind::CStateExit { state, residency } => {
                slice(state, "cstate", e.core, e.time - residency, residency)
            }
            EventKind::GovernorDecision { chosen, predicted } => instant(
                "governor-decision",
                "governor",
                e,
                vec![("chosen", str(chosen)), ("predicted_us", us(predicted))],
            ),
            EventKind::IdleOutcome { chosen, predicted, actual, premature } => instant(
                "idle-outcome",
                "governor",
                e,
                vec![
                    ("chosen", str(chosen)),
                    ("predicted_us", us(predicted)),
                    ("actual_us", us(actual)),
                    ("premature", JsonValue::Bool(premature)),
                ],
            ),
            EventKind::WakeInterrupt { reason } => {
                instant("wake", "wake", e, vec![("reason", str(reason))])
            }
            EventKind::SnoopService { state } => {
                instant("snoop", "snoop", e, vec![("state", str(state))])
            }
            EventKind::TurboEngage => instant("turbo", "turbo", e, vec![]),
            EventKind::QueueEnqueue { depth: d } => {
                instant("enqueue", "queue", e, vec![("depth", depth(d))])
            }
            EventKind::QueueDequeue { depth: d } => {
                instant("dequeue", "queue", e, vec![("depth", depth(d))])
            }
            EventKind::FaultInjected { kind } => {
                instant("fault", "fault", e, vec![("kind", str(kind))])
            }
            EventKind::RequestShed { depth: d } => {
                instant("shed", "overload", e, vec![("depth", depth(d))])
            }
            EventKind::RequestTimeout { waited } => {
                instant("timeout", "overload", e, vec![("waited_us", us(waited))])
            }
            EventKind::RequestRetry { attempt } => {
                instant("retry", "overload", e, vec![("attempt", depth(attempt))])
            }
            EventKind::BreakerTrip => instant("breaker-trip", "breaker", e, vec![]),
            EventKind::BreakerRestore => instant("breaker-restore", "breaker", e, vec![]),
        });
    }
    JsonValue::obj(vec![
        ("traceEvents", JsonValue::Array(out)),
        ("displayTimeUnit", JsonValue::str("ns")),
    ])
    .render()
}

/// State names, including ones that need JSON escaping.
const NAMES: &[&str] =
    &["C6A", "enter:C6", "", "quo\"te", "back\\slash", "line\nbreak", "\r\t\u{1}\u{1f}", "ünï©ødé"];

fn name(rng: &mut TestRng) -> &'static str {
    NAMES[rng.below(NAMES.len() as u64) as usize]
}

/// Finite values across nine decades, plus NaN and both infinities.
fn nanos(rng: &mut TestRng) -> Nanos {
    Nanos::new(match rng.below(12) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => rng.below(1_000_000) as f64,
        _ => rng.uniform() * 1e9 - 1e3,
    })
}

fn any_u32(rng: &mut TestRng) -> u32 {
    rng.next_u64_raw() as u32
}

/// Draws any of the fifteen event kinds with random payloads.
fn event(rng: &mut TestRng) -> TraceEvent {
    let kind = match rng.below(15) {
        0 => EventKind::CStateEnter { state: name(rng) },
        1 => EventKind::CStateExit { state: name(rng), residency: nanos(rng) },
        2 => EventKind::GovernorDecision { chosen: name(rng), predicted: nanos(rng) },
        3 => EventKind::IdleOutcome {
            chosen: name(rng),
            predicted: nanos(rng),
            actual: nanos(rng),
            premature: rng.below(2) == 1,
        },
        4 => EventKind::WakeInterrupt { reason: name(rng) },
        5 => EventKind::SnoopService { state: name(rng) },
        6 => EventKind::TurboEngage,
        7 => EventKind::QueueEnqueue { depth: any_u32(rng) },
        8 => EventKind::QueueDequeue { depth: any_u32(rng) },
        9 => EventKind::FaultInjected { kind: name(rng) },
        10 => EventKind::RequestShed { depth: any_u32(rng) },
        11 => EventKind::RequestTimeout { waited: nanos(rng) },
        12 => EventKind::RequestRetry { attempt: any_u32(rng) },
        13 => EventKind::BreakerTrip,
        _ => EventKind::BreakerRestore,
    };
    TraceEvent { time: nanos(rng), core: any_u32(rng), kind }
}

/// A core count in `0..4` and a window of up to 64 random events.
fn window() -> impl Strategy<Value = (usize, Vec<TraceEvent>)> {
    (0usize..4).prop_perturb(|cores, mut rng| {
        let len = rng.below(65);
        (cores, (0..len).map(|_| event(&mut rng)).collect())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn streaming_writer_matches_value_tree((cores, events) in window()) {
        prop_assert_eq!(chrome_trace_json(&events, cores), reference_chrome_trace(&events, cores));
    }
}

#[test]
fn non_finite_durations_render_as_null() {
    let events = [TraceEvent {
        time: Nanos::new(5.0),
        core: 0,
        kind: EventKind::CStateExit { state: "s", residency: Nanos::new(f64::NAN) },
    }];
    let trace = chrome_trace_json(&events, 0);
    assert!(trace.contains("\"dur\":null"), "{trace}");
    assert_eq!(trace, reference_chrome_trace(&events, 0));
}

#[test]
fn empty_window_without_cores_is_just_the_process_record() {
    assert_eq!(
        chrome_trace_json(&[], 0),
        "{\"traceEvents\":[{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"agilewatts simulation\"}}],\"displayTimeUnit\":\"ns\"}"
    );
}
