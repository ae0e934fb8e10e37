//! Golden and determinism tests run against the real `agilewatts`
//! binary, so they cover argument parsing, hardware-model selection,
//! and report rendering end to end.
//!
//! The golden files pin `--hw skylake-sp` output byte-identical to the
//! seed constants: any drift in the Skylake-SP calibration (or in the
//! default-model plumbing) fails these before it reaches a reviewer.

use std::path::PathBuf;
use std::process::{Command, Output};

/// The JSON reader shared by the workspace's integration tests,
/// independent of the writer in `aw-telemetry`.
#[path = "../../../tests/common/json_reader.rs"]
mod json;

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_agilewatts")).args(args).output().expect("binary runs")
}

fn stdout_of(args: &[&str]) -> String {
    let out = run(args);
    assert!(
        out.status.success(),
        "`agilewatts {}` failed: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

const FLEET_CHAOS: &[&str] = &[
    "fleet",
    "--servers",
    "4",
    "--epochs",
    "8",
    "--autoscale",
    "--fleet-faults",
    "crash-at=2:0,down-epochs=2,unpark-fail=0.2",
];

/// `--hw skylake-sp` is the explicit spelling of the default: its Fig. 8
/// output must stay byte-identical to the seed golden.
#[test]
fn fig8_skylake_matches_seed_golden() {
    let expected = golden("fig8_quick_skylake.txt");
    assert_eq!(stdout_of(&["fig", "8", "--quick", "--jobs", "1"]), expected);
    assert_eq!(stdout_of(&["fig", "8", "--quick", "--hw", "skylake-sp", "--jobs", "2"]), expected);
}

/// The chaos fleet run (crash + slow-unpark faults, autoscaler on) is
/// pinned too — it exercises the fleet layer's per-server hardware
/// plumbing even when every server is the default model.
#[test]
fn fleet_chaos_skylake_matches_seed_golden() {
    let expected = golden("fleet_chaos_skylake.txt");
    let mut with_jobs = FLEET_CHAOS.to_vec();
    with_jobs.extend(["--jobs", "1"]);
    assert_eq!(stdout_of(&with_jobs), expected);
    let mut with_hw = FLEET_CHAOS.to_vec();
    with_hw.extend(["--hw", "skylake-sp", "--jobs", "2"]);
    assert_eq!(stdout_of(&with_hw), expected);
}

/// The chaotic headless cockpit is pinned at two worker counts: its
/// frames render crashed and ejected servers next to parked, idle and
/// loaded ones, and its final report carries the chaos ledger.
#[test]
fn watch_chaos_skylake_matches_golden() {
    let expected = golden("watch_chaos_skylake.txt");
    for jobs in ["1", "8"] {
        let out = stdout_of(&[
            "watch",
            "--headless",
            "--frames",
            "3",
            "--seed",
            "42",
            "--servers",
            "6",
            "--epochs",
            "8",
            "--autoscale",
            "--diurnal",
            "0.5",
            "--fleet-faults",
            "crash-at=2:1,rack-outage=0.04,rack-size=2,degrade=0.1,throttle=0.1,\
             unpark-fail=0.3,down-epochs=2",
            "--jobs",
            jobs,
        ]);
        assert_eq!(out, expected, "--jobs {jobs}");
    }
}

/// The same Fig. 8 grid runs end to end on the Zen 2 backend, and its
/// numbers genuinely differ from Skylake-SP's.
#[test]
fn fig8_runs_on_zen2() {
    let z = stdout_of(&["fig", "8", "--quick", "--hw", "zen2", "--jobs", "1"]);
    assert!(z.contains("Fig. 8"), "{z}");
    assert_ne!(z, golden("fig8_quick_skylake.txt"));
}

/// A mixed skylake-sp,zen2 fleet is byte-deterministic at any worker
/// count: per-server seed streams make the schedule independent of how
/// servers land on threads.
#[test]
fn mixed_fleet_deterministic_across_jobs() {
    let out = |jobs: &str| {
        let mut args = FLEET_CHAOS.to_vec();
        args.extend(["--hw", "skylake-sp,zen2", "--jobs", jobs]);
        stdout_of(&args)
    };
    let one = out("1");
    assert_eq!(one, golden("fleet_chaos_mixed.txt"));
    assert_eq!(one, out("2"));
    assert_eq!(one, out("8"));
    // And the mix really changes the report vs the all-Skylake fleet.
    assert_ne!(one, golden("fleet_chaos_skylake.txt"));
}

/// A mixed-silicon fleet under diurnal load with the packing autoscaler
/// (the shape of the long energy runs) is pinned byte for byte at one
/// and eight workers.
#[test]
fn fleet_mixed_diurnal_matches_golden() {
    let expected = golden("fleet_mixed_diurnal.txt");
    for jobs in ["1", "8"] {
        let out = stdout_of(&[
            "fleet",
            "--servers",
            "8",
            "--hw",
            "skylake-sp,zen2",
            "--policy",
            "packing",
            "--autoscale",
            "--diurnal",
            "0.8",
            "--epochs",
            "8",
            "--jobs",
            jobs,
        ]);
        assert_eq!(out, expected, "--jobs {jobs}");
    }
}

/// Unknown model names fail fast and name the alternatives.
#[test]
fn unknown_hw_lists_known_models() {
    let out = run(&["fig", "8", "--quick", "--hw", "epyc9"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown hardware model `epyc9`"), "{err}");
    assert!(err.contains("skylake-sp") && err.contains("zen2"), "{err}");
}

/// Skylake-structural subcommands reject other models instead of
/// answering with the wrong silicon's numbers.
#[test]
fn skylake_only_commands_reject_zen2() {
    for args in [["table", "2"], ["table", "4"], ["flows", "--hw"]] {
        let full: Vec<&str> = if args[1] == "--hw" {
            vec![args[0], "--hw", "zen2"]
        } else {
            vec![args[0], args[1], "--hw", "zen2"]
        };
        let out = run(&full);
        assert!(!out.status.success(), "`{}` should fail", full.join(" "));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("Skylake-SP"), "{err}");
    }
}

/// The cross-vendor grid runs and covers both registered models; the
/// `--hw` list restricts it.
#[test]
fn cross_vendor_covers_registry() {
    let all = stdout_of(&["cross-vendor", "--quick", "--jobs", "2"]);
    assert!(all.contains("skylake-sp") && all.contains("zen2"), "{all}");
    let only = stdout_of(&["cross-vendor", "--quick", "--hw", "zen2", "--jobs", "1"]);
    assert!(only.contains("zen2") && !only.contains("skylake-sp"), "{only}");
}

/// `analyze` at a small core count scores the Baseline run's C1 choices
/// against the AW menu, which does not enable C1 and whose cheapest
/// state costs more: the report must still complete.
#[test]
fn analyze_runs_at_two_cores() {
    let report = stdout_of(&["analyze", "--cores", "2", "--duration-ms", "20"]);
    assert!(report.contains("deep-sleep recovery vs the AW menu"), "{report}");
}

/// `analyze` applies `--faults`, `--queue-cap` and `--request-timeout`
/// to both of its runs, and counts the fault events of both against the
/// work limit.
#[test]
fn analyze_applies_the_robustness_flags() {
    let plain = stdout_of(&["analyze", "--duration-ms", "5"]);
    let faulted = stdout_of(&[
        "analyze",
        "--duration-ms",
        "5",
        "--faults",
        "storm=100000,spurious=100000,wake-fail=0.5",
        "--queue-cap",
        "1",
        "--request-timeout",
        "1",
    ]);
    assert_ne!(plain, faulted);
    let storm =
        run(&["analyze", "--qps", "1", "--duration-ms", "100000000", "--faults", "storm=1000000"]);
    assert_eq!(storm.status.code(), Some(1));
    let err = String::from_utf8_lossy(&storm.stderr);
    assert!(
        err.contains("refusing a run of about 2.000e12 offered requests: the limit is 1e10"),
        "{err}"
    );
}

/// A faulted, overloaded AW sweep: every degradation path fires.
const SWEEP_FAULTS: &[&str] = &[
    "sweep",
    "--config",
    "AW",
    "--qps",
    "300000",
    "--duration-ms",
    "50",
    "--cores",
    "4",
    "--seed",
    "7",
    "--faults",
    "seed=7,wake-fail=0.9,wake-retries=1,relock=0.05,drowsy=0.05,lost-wake=0.02,spurious=2000,\
     storm=200,slowdown=50",
    "--queue-cap",
    "4",
    "--request-timeout",
    "20",
];

/// The faulted sweep is pinned at two worker counts. Its report charges
/// the engine's fixed robustness costs (client retry and backoff,
/// circuit breaker, the full-C6 fallback) next to the snoop and
/// transition-energy ones, so a changed constant changes the golden.
#[test]
fn sweep_faults_skylake_matches_golden() {
    let expected = golden("sweep_faults_skylake.txt");
    // The pin is not vacuous: each counter is nonzero.
    let count = |key: &str| -> u64 {
        let at = expected.find(key).unwrap_or_else(|| panic!("no `{key}` in the golden"));
        let digits: String =
            expected[at + key.len()..].chars().take_while(char::is_ascii_digit).collect();
        digits.parse().expect("counter value")
    };
    for key in [
        "shed=",
        "timeouts=",
        "retries=",
        "dropped=",
        "fallbacks=",
        "trips=",
        "restores=",
        "demoted=",
        "snoops: ",
    ] {
        assert!(count(key) > 0, "{key}0");
    }
    for jobs in ["1", "8"] {
        let mut args = SWEEP_FAULTS.to_vec();
        args.extend(["--jobs", jobs]);
        assert_eq!(stdout_of(&args), expected, "--jobs {jobs}");
    }
}

/// The traced faulted sweep whose Chrome trace and metrics JSON are
/// pinned: three AW configs, a one-slot queue and a request timeout.
const SWEEP_TRACED: &[&str] = &[
    "sweep",
    "--config",
    "T_C6A,No_C6,No_C1E",
    "--qps",
    "100000",
    "--duration-ms",
    "50",
    "--cores",
    "4",
    "--seed",
    "7",
    "--faults",
    "seed=7,wake-fail=0.9,wake-retries=1,relock=0.05,drowsy=0.05,lost-wake=0.02,spurious=2000,\
     storm=200,slowdown=50",
    "--queue-cap",
    "1",
    "--request-timeout",
    "20",
    "--trace-limit",
    "200",
];

/// The traced exports are pinned byte for byte at two worker counts,
/// and the pin is not vacuous: every counter the recorder bumps for an
/// engine-built event is nonzero in the pinned metrics.
#[test]
fn sweep_traced_exports_match_golden() {
    let trace_golden = golden("sweep_traced_trace.json");
    let metrics_golden = golden("sweep_traced_metrics.json");
    for counter in [
        "wakes",
        "snoops.serviced",
        "turbo.engagements",
        "runqueue.enqueues",
        "runqueue.dequeues",
        "faults.injected",
        "overload.shed",
        "overload.timeouts",
        "overload.retries",
        "breaker.trips",
        "breaker.restores",
    ] {
        let key = format!("\"{counter}\":");
        let at = metrics_golden.find(&key).unwrap_or_else(|| panic!("no `{counter}` counter"));
        let digits: String =
            metrics_golden[at + key.len()..].chars().take_while(char::is_ascii_digit).collect();
        assert!(digits.parse::<u64>().expect("counter value") > 0, "{counter} is 0");
    }
    let dir = std::env::temp_dir();
    for jobs in ["1", "8"] {
        let trace = dir.join(format!("aw_golden_traced_{}_j{jobs}.json", std::process::id()));
        let metrics = dir.join(format!("aw_golden_metrics_{}_j{jobs}.json", std::process::id()));
        let mut args = SWEEP_TRACED.to_vec();
        let (t, m) = (trace.to_str().expect("utf-8 path"), metrics.to_str().expect("utf-8 path"));
        args.extend(["--trace-out", t, "--metrics-out", m, "--jobs", jobs]);
        stdout_of(&args);
        let read = |p: &PathBuf| std::fs::read_to_string(p).expect("export written");
        let (trace_out, metrics_out) = (read(&trace), read(&metrics));
        let _ = (std::fs::remove_file(&trace), std::fs::remove_file(&metrics));
        assert!(trace_out == trace_golden, "Chrome trace drifted at --jobs {jobs}");
        assert!(metrics_out == metrics_golden, "metrics drifted at --jobs {jobs}");
    }
}

/// The pinned metrics document is valid JSON, read by the test suite's
/// own reader rather than the writer that produced it.
#[test]
fn traced_metrics_golden_is_valid_json() {
    let doc = json::parse(&golden("sweep_traced_metrics.json")).expect("valid JSON");
    let summary = doc.get("summary").expect("summary section");
    assert_eq!(summary.get("sim_events").and_then(json::Value::as_f64), Some(28_195.0));
    assert!(doc.get("counters").and_then(|c| c.get("governor.decisions")).is_some());
}

/// A traced run's stdout holds no wall-clock number: two identical runs,
/// and `--jobs 1` against `--jobs 8`, print the same bytes. The
/// wall-clock event rate goes to stderr.
#[test]
fn traced_sweep_stdout_is_byte_identical_across_runs_and_jobs() {
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("aw_stdout_traced_{}.json", std::process::id()));
    let metrics = dir.join(format!("aw_stdout_metrics_{}.json", std::process::id()));
    let (t, m) = (trace.to_str().expect("utf-8 path"), metrics.to_str().expect("utf-8 path"));
    let traced = |jobs: &str| {
        let mut args = SWEEP_TRACED.to_vec();
        args.extend(["--trace-out", t, "--metrics-out", m, "--jobs", jobs]);
        let out = run(&args);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(stderr.contains("DES events/s (wall clock)"), "no rate on stderr: {stderr}");
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let first = traced("1");
    assert!(first.contains("Telemetry"), "no telemetry table:\n{first}");
    let (again, parallel) = (traced("1"), traced("8"));
    let _ = (std::fs::remove_file(&trace), std::fs::remove_file(&metrics));
    assert!(first == again, "two identical traced sweeps printed different stdout");
    assert!(first == parallel, "traced sweep stdout differs between --jobs 1 and --jobs 8");
}

/// A server-epoch that drops requests for good shows the count in the
/// cockpit's event feed.
#[test]
fn watch_feed_shows_retries_exhausted() {
    let out = stdout_of(&[
        "watch",
        "--headless",
        "--frames",
        "3",
        "--seed",
        "42",
        "--servers",
        "4",
        "--epochs",
        "4",
        "--faults",
        "storm=500,wake-fail=0.05",
        "--queue-cap",
        "4",
    ]);
    assert!(
        out.lines().any(|l| l.contains(" retries exhausted")),
        "no feed row counts exhausted retries:\n{out}"
    );
}

/// A fleet whose only faults are per-server ones reports the ledger
/// rolled up over its server-epochs, and no all-zero fleet chaos block.
#[test]
fn fleet_report_shows_the_server_ledger() {
    let out = stdout_of(&[
        "fleet",
        "--servers",
        "4",
        "--epochs",
        "4",
        "--faults",
        "storm=500,wake-fail=0.05",
    ]);
    let ledger =
        out.lines().find(|l| l.starts_with("  ledger:  ")).unwrap_or_else(|| panic!("{out}"));
    assert!(ledger.contains("faults=") && !ledger.contains("faults=0 "), "{ledger}");
    assert!(!out.contains("chaos:"), "{out}");
}

/// The idle-opportunity run whose reports and `--idle-out` files are
/// pinned: 30k QPS leaves most cores parked, so every interval is
/// scored and both too-shallow (Baseline) and too-deep (AW) decisions
/// occur.
const ANALYZE: &[&str] = &["analyze", "--qps", "30000", "--duration-ms", "200"];

/// `analyze`'s stdout is pinned byte for byte on both hardware models,
/// at the default and at one worker, and the pin is not vacuous: the
/// Skylake-SP audit holds both kinds of wrong decision.
#[test]
fn analyze_matches_golden_on_both_hw() {
    let skylake = golden("analyze_skylake.txt");
    for needle in ["3222 too-shallow", "816 too-deep"] {
        assert!(skylake.contains(needle), "no `{needle}` in the golden");
    }
    for (hw, expected) in [("skylake-sp", skylake), ("zen2", golden("analyze_zen2.txt"))] {
        let mut args = ANALYZE.to_vec();
        args.extend(["--hw", hw]);
        assert!(stdout_of(&args) == expected, "analyze --hw {hw} drifted");
        args.extend(["--jobs", "1"]);
        assert!(stdout_of(&args) == expected, "analyze --hw {hw} --jobs 1 drifted");
    }
}

/// Each `--idle-out` format writes the pinned bytes, and stdout is the
/// pinned report plus one `idle report: … -> <path>` line.
#[test]
fn analyze_idle_out_matches_golden_in_every_format() {
    let report = golden("analyze_skylake.txt");
    for suffix in ["json", "csv", "folded"] {
        let path =
            std::env::temp_dir().join(format!("aw_golden_idle_{}.{suffix}", std::process::id()));
        let p = path.to_str().expect("utf-8 path");
        let mut args = ANALYZE.to_vec();
        args.extend(["--idle-out", p]);
        let stdout = stdout_of(&args);
        let written = std::fs::read_to_string(&path).expect("idle report written");
        let _ = std::fs::remove_file(&path);
        let (head, last) = stdout.trim_end().rsplit_once('\n').expect("a trailing line");
        assert_eq!(format!("{head}\n"), report, "--idle-out .{suffix} changed the report");
        assert_eq!(
            last.replace(p, "<path>"),
            "idle report: 5844 intervals, 50 windows -> <path>",
            "--idle-out .{suffix}"
        );
        let expected = golden(&format!("analyze_idle_skylake.{suffix}"));
        assert!(written == expected, "--idle-out .{suffix} drifted");
    }
}
