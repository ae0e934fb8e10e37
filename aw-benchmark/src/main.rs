//! `aw-benchmark`: the repository's host-time benchmark.
//!
//! Four fixed-work workloads drive the simulator through the public
//! `agilewatts` API. Every run prints each metric as `name value unit`
//! (median, max, sample count), checks the simulated outputs, and ends
//! with one JSON result line. See `README.md` next to this package.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use aw_benchmark::bench::{self, Outcome, Settings};
use aw_benchmark::json::{self, JsonRead, JsonValue};
use aw_benchmark::workload::{Params, Workload};
use aw_benchmark::{compare, host};

const USAGE: &str = "\
usage: aw-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--reps R]
                    [--trace [0|1]] [--quick] [--json FILE]
       aw-benchmark --compare BASE.json[,BASE2.json...] HEAD.json[,HEAD2.json...]
       aw-benchmark --peak-probe NAME [--quick]

workloads: fig8_grid, light_analyze, observed_run, fleet_diurnal (default: all,
each in its own child process, one at a time)
  --seed N       simulation seed (default 42; the seed-42 digest is pinned)
  --seconds S    host seconds of timed operations to aim for (default 0)
  --reps R       minimum timed operations (default 3)
  --trace [0|1]  alternate untraced and traced operations; report the
                 per-layer metrics and the tracing overhead, and write the
                 spans next to the executable
  --quick        reduced scale (smoke tests)
  --json FILE    write every metric's samples and a run manifest
  --compare      judge HEAD against BASE (one --json file per run) with the
                 bounds in ./BENCHMARK.json; exits 1 if any metric regressed
  --peak-probe   run one seed-42 operation of NAME and print its peak RSS
                 and failed checks as JSON (what a workload run starts
                 in a child process to measure peak_rss_mb)";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    reps: usize,
    trace: bool,
    quick: bool,
    json: Option<PathBuf>,
    compare: Option<(String, String)>,
    peak_probe: Option<Workload>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: 0.0,
        reps: 3,
        trace: false,
        quick: false,
        json: None,
        compare: None,
        peak_probe: None,
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>, flag: &str| {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                a.workload = match name.as_str() {
                    "all" => None,
                    n => Some(Workload::parse(n).ok_or_else(|| format!("unknown workload '{n}'"))?),
                };
            }
            "--seed" => {
                a.seed = value(&mut it, flag)?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value(&mut it, flag)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--reps" => {
                a.reps = value(&mut it, flag)?.parse().map_err(|e| format!("--reps: {e}"))?
            }
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some(v @ ("0" | "1")) => {
                    a.trace = v == "1";
                    it.next();
                }
                _ => a.trace = true,
            },
            "--quick" => a.quick = true,
            "--json" => a.json = Some(value(&mut it, flag)?.into()),
            "--compare" => {
                let base = value(&mut it, flag)?;
                let head = value(&mut it, flag)?;
                a.compare = Some((base, head));
            }
            "--peak-probe" => {
                let n = value(&mut it, flag)?;
                a.peak_probe =
                    Some(Workload::parse(&n).ok_or_else(|| format!("unknown workload '{n}'"))?);
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

fn manifest(a: &Args) -> JsonValue {
    JsonValue::obj(vec![
        ("commit", JsonValue::str(host::commit())),
        ("nproc", JsonValue::UInt(host::nproc() as u64)),
        ("jobs", JsonValue::UInt(1)),
        ("check_jobs", JsonValue::UInt(host::jobs() as u64)),
        ("seed", JsonValue::UInt(a.seed)),
        ("reps", JsonValue::UInt(a.reps as u64)),
        ("seconds", JsonValue::Num(a.seconds)),
        ("quick", JsonValue::Bool(a.quick)),
        ("trace", JsonValue::Bool(a.trace)),
        ("rustc", JsonValue::str(host::rustc_version())),
    ])
}

/// A `--json` document: the manifest and one record per workload.
fn document(a: &Args, workloads: Vec<(String, JsonValue)>) -> String {
    let doc = JsonValue::obj(vec![
        ("manifest", manifest(a)),
        ("workloads", JsonValue::Object(workloads)),
    ]);
    format!("{}\n", doc.render())
}

fn print_outcome(o: &Outcome) {
    println!("== {} (digest {:016x}) ==", o.workload.name(), o.digest);
    for note in &o.notes {
        print!("{note}");
    }
    println!(
        "checks: {} operations attempted, {} failed (check_fail_ratio {})",
        o.attempted,
        o.failed,
        o.check_fail_ratio()
    );
    for f in &o.failures {
        println!("  FAILED {f}");
    }
    for m in o.end_to_end.iter().chain(&o.layers) {
        println!("{}", m.line());
    }
}

/// The last line of standard output: the machine-readable result.
fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, &str)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            let m = JsonValue::obj(vec![
                ("value", JsonValue::Num(*value)),
                ("unit", JsonValue::str(*unit)),
            ]);
            (name.clone(), m)
        })
        .collect();
    JsonValue::obj(vec![
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::UInt(attempted as u64)),
        ("failed", JsonValue::UInt(failed as u64)),
        ("metrics", JsonValue::Object(metrics)),
    ])
    .render()
}

fn write(path: &Path, body: &str) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Runs one workload in this process.
fn run_one(a: &Args, w: Workload) -> Result<(), String> {
    // Timed operations run on one worker. Other tenants slow each of
    // the host's two vCPUs independently, so a two-worker fan-out waits
    // for whichever is slower, and the reference kernel, timed on one
    // vCPU, cannot cancel that; the multi-worker path is still run by
    // the stepped-engine check.
    let settings = Settings {
        params: Params { seed: a.seed, quick: a.quick, jobs: 1 },
        reps: a.reps,
        seconds: a.seconds,
        trace: a.trace,
    };
    let outcome = bench::run(w, &settings)?;
    print_outcome(&outcome);
    if a.trace {
        let spans = std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name(format!("aw-benchmark-spans-{}.json", w.name()));
        write(&spans, &outcome.spans.render())?;
        println!("spans: {}", spans.display());
    }
    if let Some(path) = &a.json {
        write(path, &document(a, vec![(w.name().to_string(), outcome.to_json())]))?;
    }
    let metrics: Vec<(String, f64, &str)> = outcome
        .result_metrics(a.trace)
        .into_iter()
        .map(|m| (m.name.clone(), m.value(), m.unit))
        .collect();
    println!("{}", result_line(outcome.correct(), outcome.attempted, outcome.failed, &metrics));
    Ok(())
}

/// Runs every workload, each in its own child process, one at a time,
/// relaying their output; the combined result line names each metric
/// `workload.metric`.
fn run_all(a: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0usize, 0usize);
    let mut metrics = Vec::new();
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let part = a.json.as_ref().map(|p| p.with_extension(format!("{}.part", w.name())));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string(), "--reps", &a.reps.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if a.quick {
            cmd.arg("--quick");
        }
        if let Some(p) = &part {
            cmd.arg("--json").arg(p);
        }
        let mut child = cmd.spawn().map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut last = String::new();
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| e.to_string())?;
            println!("{line}");
            last = line;
        }
        let status = child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("{} exited with {status}", w.name()));
        }
        let result =
            json::parse(&last).map_err(|e| format!("{}: bad result line: {e}", w.name()))?;
        correct &= result.get("correct") == Some(&JsonValue::Bool(true));
        attempted += result.get("attempted").and_then(JsonRead::as_f64).unwrap_or(0.0) as usize;
        failed += result.get("failed").and_then(JsonRead::as_f64).unwrap_or(0.0) as usize;
        for (name, m) in result.get("metrics").map(JsonRead::fields).unwrap_or_default() {
            let value = m.get("value").and_then(JsonRead::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(JsonRead::as_str).unwrap_or("").to_string();
            metrics.push((format!("{}.{name}", w.name()), value, unit));
        }
        if let Some(p) = &part {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            let doc = json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
            if let Some(outcome) = doc.get("workloads").and_then(|d| d.get(w.name())) {
                workloads.push((w.name().to_string(), outcome.clone()));
            }
            let _ = std::fs::remove_file(p);
        }
    }
    if let Some(path) = &a.json {
        write(path, &document(a, workloads))?;
    }
    let metrics: Vec<(String, f64, &str)> =
        metrics.iter().map(|(n, v, u)| (n.clone(), *v, u.as_str())).collect();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(w) = args.peak_probe {
        return match bench::probe(w, args.quick) {
            Ok((peak, failures)) => {
                let failures = JsonValue::Array(failures.into_iter().map(JsonValue::Str).collect());
                let result = JsonValue::obj(vec![
                    ("peak_rss_mb", JsonValue::Num(peak)),
                    ("failures", failures),
                ]);
                println!("{}", result.render());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let result = match (&args.compare, args.workload) {
        (Some((base, head)), _) => match compare::run(base, head, Path::new("BENCHMARK.json")) {
            Ok(false) => Ok(()),
            Ok(true) => return ExitCode::from(1),
            Err(e) => Err(e),
        },
        (None, Some(w)) => run_one(&args, w),
        (None, None) => run_all(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&argv("--workload fleet_diurnal --seed 7 --seconds 15 --trace 1")).unwrap();
        assert_eq!(a.workload, Some(Workload::FleetDiurnal));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 15.0, true));
        let a = parse(&argv("--trace 0 --workload all")).unwrap();
        assert!(!a.trace && a.workload.is_none());
        let a = parse(&argv("--trace --quick")).unwrap();
        assert!(a.trace && a.quick);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--seconds -1")).is_err());
        assert!(parse(&argv("--seed")).is_err());
        assert!(parse(&argv("--frobnicate")).is_err());
    }
}
