//! Runs all four workloads at `--quick` scale, traced, through the real
//! binary, and checks that every correctness check passes and that the
//! `--json` document carries every metric `BENCHMARK.json` names.

use std::path::PathBuf;
use std::process::Command;

use aw_benchmark::json::{self, JsonRead, JsonValue};

fn names(benchmark: &JsonValue, list: &str) -> Vec<String> {
    benchmark
        .get(list)
        .and_then(JsonRead::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {list}"))
        .iter()
        .map(|e| {
            e.get("name").and_then(JsonRead::as_str).expect("every entry is named").to_string()
        })
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_listed_metric() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let benchmark = json::parse(
        &std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json is readable"),
    )
    .expect("BENCHMARK.json parses");
    let json = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("benchmark_smoke.json");

    let out = Command::new(env!("CARGO_BIN_EXE_aw-benchmark"))
        .args(["--quick", "--reps", "2", "--trace", "1", "--json"])
        .arg(&json)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "benchmark failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let result =
        json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON");
    assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)), "{stdout}");
    assert_eq!(result.get("failed").and_then(JsonRead::as_f64), Some(0.0));

    let doc = json::parse(&std::fs::read_to_string(&json).expect("--json was written"))
        .expect("--json output parses");
    let workloads = doc.get("workloads").expect("per-workload results");
    let mut wanted = names(&benchmark, "end_to_end");
    wanted.extend(names(&benchmark, "per_layer"));
    for w in names(&benchmark, "workloads") {
        let outcome = workloads.get(&w).unwrap_or_else(|| panic!("{w} missing from --json"));
        assert_eq!(outcome.get("correct"), Some(&JsonValue::Bool(true)), "{w}");
        let metrics = outcome.get("metrics").expect("metrics");
        for m in &wanted {
            let value = metrics.get(m).and_then(|v| v.get("median")).and_then(JsonRead::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{w}: {m} missing or not a number");
        }
    }
    for field in ["commit", "nproc", "jobs", "seed", "reps", "rustc"] {
        assert!(doc.get("manifest").and_then(|m| m.get(field)).is_some(), "manifest lacks {field}");
    }
}
