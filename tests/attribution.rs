//! Integration tests for latency attribution: the sum-to-latency
//! invariant on real simulated spans, the AW-vs-baseline C6 exit-penalty
//! collapse under common random numbers, independent parsing of the
//! timeline exports, folded-stack format validity, and SLO burn-rate
//! evaluation.

use agilewatts::aw_cstates::{CState, CStateConfig, NamedConfig};
use agilewatts::aw_server::{RunOutput, ServerConfig, SimBuilder, WorkloadSpec};
use agilewatts::aw_telemetry::SloMonitor;
use agilewatts::aw_types::Nanos;

/// See `tests/common/json_reader.rs` — the reader is shared with the
/// telemetry integration tests.
#[path = "common/json_reader.rs"]
mod json;

const WINDOW: f64 = 2.0; // ms

fn workload(qps: f64) -> WorkloadSpec {
    WorkloadSpec::poisson("attr", qps, Nanos::from_micros(4.0), 0.8)
}

fn attributed_run(named: NamedConfig, qps: f64, seed: u64) -> RunOutput {
    let config = ServerConfig::new(4, named).with_duration(Nanos::from_millis(80.0));
    SimBuilder::new(config, workload(qps), seed).with_attribution(Nanos::from_millis(WINDOW)).run()
}

#[test]
fn phases_sum_to_measured_latency_on_every_span() {
    // The report keeps the summary only: the per-span check runs on the
    // spans the engine emits, in `aw-server`'s `probe` tests.
    let output = attributed_run(NamedConfig::Aw, 150_000.0, 11);
    let report = output.attribution.expect("attribution enabled");
    assert_eq!(report.summary.requests, output.metrics.completed);
    assert!(report.summary.requests > 1_000, "expected a busy run");
    // The summary's residual agrees: ~0 when the invariant holds.
    assert!(report.summary.mean_residual.as_nanos().abs() < 1e-6);
}

/// The paper's headline mechanism, observed through attribution: under
/// common random numbers (same seed drives identical arrival and service
/// streams), swapping the C1E/C6-heavy baseline for C6A-only AgileWatts
/// collapses the C6-class exit penalty while leaving the
/// workload-determined service time untouched.
#[test]
fn aw_collapses_c6_exit_penalty_under_common_random_numbers() {
    // Light load: long idle gaps steer the baseline governor into C6,
    // so its wakes pay the full deep-state exit latency.
    let qps = 5_000.0;
    let seed = 33;
    let base = attributed_run(NamedConfig::NtBaseline, qps, seed)
        .attribution
        .expect("attribution enabled")
        .summary;
    let cfg = ServerConfig::new(4, NamedConfig::NtAw)
        .with_cstates(CStateConfig::new([CState::C6A], false))
        .with_duration(Nanos::from_millis(80.0));
    let aw = SimBuilder::new(cfg, workload(qps), seed)
        .with_attribution(Nanos::from_millis(WINDOW))
        .run()
        .attribution
        .expect("attribution enabled")
        .summary;

    // The baseline pays for C6 wakes; attribution names the state.
    let c6_base =
        base.exit_by_state.iter().find(|s| s.state == "C6").expect("baseline charges C6 exits");
    assert!(c6_base.count > 0);
    let c6_base_per_request = c6_base.total.as_nanos() / base.requests as f64;
    let c6_aw_per_request = aw
        .exit_by_state
        .iter()
        .find(|s| s.state == "C6")
        .map_or(0.0, |s| s.total.as_nanos() / aw.requests as f64);
    assert!(
        c6_aw_per_request <= 0.1 * c6_base_per_request,
        "C6 exit penalty should shrink >=90%: base {c6_base_per_request} ns/req, \
         aw {c6_aw_per_request} ns/req"
    );
    // The overall exit-penalty phase collapses with it (C6A exits are
    // C1-class), and what remains is charged to C6A, not C6.
    assert!(
        aw.mean.exit_penalty.as_nanos() <= 0.5 * base.mean.exit_penalty.as_nanos(),
        "aw {} vs base {}",
        aw.mean.exit_penalty,
        base.mean.exit_penalty
    );
    assert!(aw.exit_by_state.iter().any(|s| s.state == "C6A"));

    // Service time is workload-determined; common random numbers keep it
    // within 1% across the two configurations.
    let svc_ratio = aw.mean.service.as_nanos() / base.mean.service.as_nanos();
    assert!((svc_ratio - 1.0).abs() < 0.01, "service time should be invariant: ratio {svc_ratio}");
}

#[test]
fn timeline_json_and_csv_parse_independently_and_agree() {
    let output = attributed_run(NamedConfig::Aw, 150_000.0, 7);
    let report = output.attribution.expect("attribution enabled");

    // JSON, through the independent recursive-descent reader.
    let doc = json::parse(&report.timeline.to_json()).expect("timeline JSON parses");
    assert!(doc.get("window_ns").and_then(json::Value::as_f64).unwrap() > 0.0);
    let windows = doc.get("windows").and_then(json::Value::as_array).expect("windows array");
    assert!(windows.len() > 5, "expected many non-empty windows, got {}", windows.len());
    let mut json_completed = 0.0;
    for w in windows {
        for key in [
            "start_ms",
            "completed",
            "throughput_qps",
            "queue_ns",
            "cstate_exit_ns",
            "service_ns",
            "avg_power_mw",
        ] {
            assert!(w.get(key).and_then(json::Value::as_f64).is_some(), "window missing {key}");
        }
        assert!(w.get("residency").is_some(), "window missing residency");
        json_completed += w.get("completed").and_then(json::Value::as_f64).unwrap();
    }
    // Every measured completion lands in exactly one window.
    assert_eq!(json_completed as u64, output.metrics.completed);

    // CSV: a header plus one equal-width numeric row per JSON window.
    let csv = report.timeline.to_csv();
    let mut lines = csv.lines();
    let header = lines.next().expect("csv header");
    assert!(header.starts_with("start_ms,completed,throughput_qps,queue_ns"), "{header}");
    let width = header.split(',').count();
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), windows.len(), "CSV rows mirror JSON windows");
    let mut csv_completed = 0.0;
    for row in rows {
        let cells: Vec<&str> = row.split(',').collect();
        assert_eq!(cells.len(), width, "{row}");
        for cell in &cells {
            assert!(cell.parse::<f64>().is_ok(), "non-numeric cell in {row}");
        }
        csv_completed += cells[1].parse::<f64>().unwrap();
    }
    assert_eq!(csv_completed as u64, output.metrics.completed);
}

#[test]
fn folded_stack_lines_are_well_formed() {
    let output = attributed_run(NamedConfig::Baseline, 100_000.0, 21);
    let summary = output.attribution.expect("attribution enabled").summary;
    let folded = summary.folded_stack();
    assert!(!folded.is_empty());
    let mut roots = std::collections::BTreeSet::new();
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("`frames count` shape");
        let frames: Vec<&str> = stack.split(';').collect();
        assert!(frames.len() >= 2, "stack too shallow: {line}");
        assert!(frames.iter().all(|f| !f.is_empty()), "empty frame in {line}");
        assert!(count.parse::<u64>().unwrap() > 0, "zero leaves must be omitted: {line}");
        roots.insert(frames[0].to_string());
    }
    // Both buckets render on a run with traffic.
    assert!(roots.contains("all") && roots.contains("tail"), "{roots:?}");
    // The service phase always contributes.
    assert!(folded.contains("all;service "), "{folded}");
}

#[test]
fn slo_monitor_burn_rate_tracks_the_target() {
    let report =
        attributed_run(NamedConfig::Aw, 150_000.0, 7).attribution.expect("attribution enabled");

    // An absurdly tight target is violated in every window...
    let tight = SloMonitor::new(Nanos::new(1.0)).evaluate(&report.timeline);
    assert!(!tight.is_met());
    assert!((tight.burn_rate() - 1.0).abs() < 1e-9, "{}", tight.burn_rate());
    assert!(tight.first_violation.is_some());
    assert!(tight.windows_total > 5);

    // ...an absurdly loose one never is.
    let loose = SloMonitor::new(Nanos::from_secs(1.0)).evaluate(&report.timeline);
    assert!(loose.is_met());
    assert_eq!(loose.windows_violated, 0);
    assert_eq!(loose.burn_rate(), 0.0);
    assert_eq!(loose.first_violation, None);

    // Both verdicts render their summary line.
    assert!(tight.to_string().contains("VIOLATED"), "{tight}");
    assert!(loose.to_string().contains("MET"), "{loose}");
}
