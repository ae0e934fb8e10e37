//! `--compare BASE HEAD`: two sets of `--json` results (each a
//! comma-separated list of files, one per run) judged against the
//! end-to-end bounds in `BENCHMARK.json`.

use std::path::Path;

use crate::json::{self, JsonRead, JsonValue};
use crate::stats::Summary;

fn load(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One end-to-end metric's regression rule.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds(benchmark: &JsonValue) -> Result<Vec<Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(JsonRead::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(JsonRead::as_str)
                    .ok_or("metric without name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(JsonRead::as_str) == Some("lower"),
                bound: m.get("bound").and_then(JsonRead::as_f64).ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// The reported values of `workload`'s `metric`, one per run.
fn values(runs: &[JsonValue], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|doc| {
            doc.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?.get("value")?.as_f64()
        })
        .collect()
}

/// Failed over attempted operations of `workload`, pooled over runs.
fn check_fail_ratio(runs: &[JsonValue], workload: &str) -> f64 {
    let (mut failed, mut attempted) = (0.0, 0.0);
    for doc in runs {
        if let Some(w) = doc.get("workloads").and_then(|d| d.get(workload)) {
            failed += w.get("failed").and_then(JsonRead::as_f64).unwrap_or(0.0);
            attempted += w.get("attempted").and_then(JsonRead::as_f64).unwrap_or(0.0);
        }
    }
    if attempted > 0.0 {
        failed / attempted
    } else {
        1.0
    }
}

/// The verdict on one metric: `unresolved` when either side's
/// interquartile spread exceeds the bound, `worse` when the median moved
/// the wrong way by more than the bound, `better` when it moved the right
/// way by more than both spreads, else `same`.
fn verdict(base: &Summary, head: &Summary, b: &Bound) -> (&'static str, f64) {
    let change = if base.median == 0.0 { 0.0 } else { head.median / base.median - 1.0 };
    let gain = if b.lower_is_better { -change } else { change };
    let spread = base.spread().max(head.spread());
    let v = if spread > b.bound {
        "unresolved"
    } else if -gain > b.bound {
        "worse"
    } else if gain > spread && gain > 0.0 {
        "better"
    } else {
        "same"
    };
    (v, change)
}

/// Prints one row per workload × metric, summarizing each side's
/// per-run values; returns whether any metric regressed.
pub fn run(base: &str, head: &str, bounds_path: &Path) -> Result<bool, String> {
    let load_all = |list: &str| -> Result<Vec<JsonValue>, String> {
        list.split(',').map(|p| load(Path::new(p))).collect()
    };
    let (base, head) = (load_all(base)?, load_all(head)?);
    let rules = bounds(&load(bounds_path)?)?;
    let mut workloads: Vec<String> = Vec::new();
    for doc in &base {
        for (name, _) in doc.get("workloads").map(JsonRead::fields).unwrap_or_default() {
            if !workloads.contains(name) {
                workloads.push(name.clone());
            }
        }
    }
    println!(
        "{:<14} {:<17} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "bound"
    );
    let mut regressed = false;
    for name in &workloads {
        for rule in &rules {
            let (b, h) = (values(&base, name, &rule.name), values(&head, name, &rule.name));
            if b.is_empty() || h.is_empty() {
                println!("{name:<14} {:<17} (not in both sets)", rule.name);
                continue;
            }
            let (bs, hs) = (Summary::of(&b), Summary::of(&h));
            let (v, change) = verdict(&bs, &hs, rule);
            regressed |= v == "worse";
            let cell = |s: &Summary| format!("{:.6e} [{:.4e}, {:.4e}]", s.median, s.q1, s.q3);
            println!(
                "{name:<14} {:<17} {:>34} {:>34} {:>+7.2}% {:>5.0}%  {v}",
                rule.name,
                cell(&bs),
                cell(&hs),
                100.0 * change,
                100.0 * rule.bound
            );
        }
        // Any increase in the check failure ratio is a regression.
        let (rb, rh) = (check_fail_ratio(&base, name), check_fail_ratio(&head, name));
        let v = match rh.partial_cmp(&rb) {
            Some(std::cmp::Ordering::Greater) => "worse",
            Some(std::cmp::Ordering::Less) => "better",
            _ => "same",
        };
        regressed |= v == "worse";
        println!(
            "{name:<14} {:<17} {rb:>34} {rh:>34} {:>8} {:>5}%  {v}",
            "check_fail_ratio", "", 0
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(lower: bool) -> Bound {
        Bound { name: "wall_rel".into(), lower_is_better: lower, bound: 0.20 }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let tight = |m: f64| Summary::of(&[m * 0.99, m, m * 1.01]);
        assert_eq!(verdict(&tight(1.0), &tight(1.3), &rule(true)).0, "worse");
        assert_eq!(verdict(&tight(1.0), &tight(1.3), &rule(false)).0, "better");
        assert_eq!(verdict(&tight(1.0), &tight(1.005), &rule(true)).0, "same");
        let wide = Summary::of(&[0.5, 1.0, 1.5]);
        assert_eq!(verdict(&wide, &tight(1.0), &rule(true)).0, "unresolved");
    }
}
