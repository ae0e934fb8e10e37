//! CSV / JSON / folded-stack exporters for [`IdleReport`], following the
//! `aw-telemetry` artifact idioms (windowed CSV skips empty windows; JSON
//! is a single self-describing object; folded stacks feed flamegraph
//! tooling).

use std::fmt::Write as _;

use aw_telemetry::json::JsonValue;

use crate::report::{IdleDistribution, IdleReport};

impl IdleReport {
    /// Renders the windowed recovery timeline as CSV, one row per
    /// non-empty window (matching `Timeline::to_csv`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "window,start_ms,intervals,idle_ms,achieved_savings_mj,oracle_savings_mj,\
             recovery,sleepable_share\n",
        );
        for w in self.windows.iter().filter(|w| w.intervals > 0) {
            let _ = writeln!(
                out,
                "{},{:.3},{},{:.3},{:.6},{:.6},{:.6},{:.6}",
                w.index,
                w.start.as_millis(),
                w.intervals,
                w.idle_time.as_millis(),
                w.achieved_savings.as_joules() * 1e3,
                w.oracle_savings.as_joules() * 1e3,
                w.recovery(),
                w.sleepable_share(),
            );
        }
        out
    }

    /// Renders the full report (ledger, audit, distributions, windows) as
    /// a single JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let l = &self.ledger;
        let a = &self.audit;
        let ledger = JsonValue::obj(vec![
            ("intervals", JsonValue::UInt(l.intervals)),
            ("idle_ms", JsonValue::Num(l.idle_time.as_millis())),
            ("achieved_residency_ms", JsonValue::Num(l.achieved_residency.as_millis())),
            ("achievable_residency_ms", JsonValue::Num(l.achievable_residency.as_millis())),
            ("achieved_savings_mj", JsonValue::Num(l.achieved_savings().as_joules() * 1e3)),
            ("oracle_savings_mj", JsonValue::Num(l.oracle_savings().as_joules() * 1e3)),
            ("recovery", JsonValue::Num(l.recovery())),
            ("too_shallow_waste_mj", JsonValue::Num(l.too_shallow_waste.as_joules() * 1e3)),
            ("too_deep_waste_mj", JsonValue::Num(l.too_deep_waste.as_joules() * 1e3)),
            ("too_deep_latency_us", JsonValue::Num(l.too_deep_latency.as_micros())),
            ("unsleepable", JsonValue::UInt(l.unsleepable)),
            ("sleepable_share", JsonValue::Num(l.sleepable_share())),
            ("deep_opportunities", JsonValue::UInt(l.deep_opportunities)),
            ("deep_oracle_savings_mj", JsonValue::Num(l.deep_oracle_savings.as_joules() * 1e3)),
            ("deep_recovery", JsonValue::Num(l.deep_recovery())),
        ]);
        let confusion = JsonValue::Array(
            a.confusion
                .iter()
                .map(|((chosen, optimal), count)| {
                    JsonValue::obj(vec![
                        ("chosen", JsonValue::str(chosen.to_string())),
                        ("optimal", JsonValue::str(optimal.to_string())),
                        ("count", JsonValue::UInt(*count)),
                    ])
                })
                .collect(),
        );
        let audit = JsonValue::obj(vec![
            ("decisions", JsonValue::UInt(a.decisions)),
            ("exact", JsonValue::UInt(a.exact)),
            ("too_shallow", JsonValue::UInt(a.too_shallow)),
            ("too_deep", JsonValue::UInt(a.too_deep)),
            ("accuracy", JsonValue::Num(a.accuracy())),
            ("confusion", confusion),
            ("predicted", JsonValue::UInt(a.prediction.predicted)),
            ("mean_error_us", JsonValue::Num(a.prediction.mean_error.as_micros())),
            ("mean_abs_error_us", JsonValue::Num(a.prediction.mean_abs_error.as_micros())),
            ("mean_abs_pct", JsonValue::Num(a.prediction.mean_abs_pct)),
            ("underpredictions", JsonValue::UInt(a.prediction.underpredictions)),
        ]);
        let windows = JsonValue::Array(
            self.windows
                .iter()
                .filter(|w| w.intervals > 0)
                .map(|w| {
                    JsonValue::obj(vec![
                        ("window", JsonValue::UInt(w.index)),
                        ("start_ms", JsonValue::Num(w.start.as_millis())),
                        ("intervals", JsonValue::UInt(w.intervals)),
                        ("recovery", JsonValue::Num(w.recovery())),
                        ("sleepable_share", JsonValue::Num(w.sleepable_share())),
                    ])
                })
                .collect(),
        );
        JsonValue::obj(vec![
            ("pooled", distribution_json(&self.pooled)),
            ("per_core", JsonValue::Array(self.per_core.iter().map(distribution_json).collect())),
            ("audit", audit),
            ("ledger", ledger),
            ("window_ms", JsonValue::Num(self.window.as_millis())),
            ("windows", windows),
        ])
        .render()
    }

    /// Renders the chosen→optimal confusion matrix as a folded stack
    /// (`idle;<chosen>;<optimal> <count>` per line), so a flamegraph shows
    /// where decisions land relative to the break-even optimum.
    #[must_use]
    pub fn folded_stack(&self) -> String {
        let mut out = String::new();
        for ((chosen, optimal), count) in &self.audit.confusion {
            let _ = writeln!(out, "idle;{chosen};{optimal} {count}");
        }
        out
    }
}

fn distribution_json(d: &IdleDistribution) -> JsonValue {
    let buckets = JsonValue::Array(
        d.histogram
            .buckets()
            .map(|(i, count)| {
                let (lo, hi) = d.histogram.bucket_bounds(i);
                JsonValue::obj(vec![
                    ("lo_ns", JsonValue::Num(lo)),
                    ("hi_ns", JsonValue::Num(hi)),
                    ("count", JsonValue::UInt(count)),
                ])
            })
            .collect(),
    );
    JsonValue::obj(vec![
        ("core", d.core.map_or(JsonValue::Null, |c| JsonValue::UInt(c as u64))),
        ("count", JsonValue::UInt(d.count)),
        ("min_us", JsonValue::Num(d.min.as_micros())),
        ("mean_us", JsonValue::Num(d.mean.as_micros())),
        ("max_us", JsonValue::Num(d.max.as_micros())),
        ("p50_us", JsonValue::Num(d.p50.as_micros())),
        ("p90_us", JsonValue::Num(d.p90.as_micros())),
        ("p99_us", JsonValue::Num(d.p99.as_micros())),
        ("buckets", buckets),
    ])
}

#[cfg(test)]
mod tests {
    use aw_cstates::CState;
    use aw_server::{HardwareModel, IdleInterval};
    use aw_types::Nanos;

    use crate::{BreakEven, IdleReport};

    fn report() -> IdleReport {
        let model = BreakEven::new(
            &HardwareModel::skylake_sp().base_catalog(),
            &[CState::C1, CState::C1E, CState::C6],
        );
        let intervals: Vec<_> = (0..20)
            .map(|i| {
                IdleInterval::new(
                    i % 2,
                    Nanos::from_micros(f64::from(i) * 100.0),
                    Nanos::from_micros(5.0 + f64::from(i) * 60.0),
                    if i % 2 == 0 { CState::C1 } else { CState::C6 },
                    Some(Nanos::from_micros(4.0 + f64::from(i) * 55.0)),
                )
            })
            .collect();
        IdleReport::analyze(&intervals, &model, 2, Nanos::from_millis(1.0))
    }

    #[test]
    fn csv_has_header_and_skips_empty_windows() {
        let r = report();
        let csv = r.to_csv();
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("window,start_ms,intervals"));
        let rows: Vec<_> = lines.collect();
        let non_empty = r.windows.iter().filter(|w| w.intervals > 0).count();
        assert_eq!(rows.len(), non_empty);
        assert!(rows.iter().all(|l| l.split(',').count() == 8));
    }

    #[test]
    fn json_is_self_describing() {
        let json = report().to_json();
        for key in ["\"ledger\"", "\"audit\"", "\"pooled\"", "\"per_core\"", "\"recovery\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn folded_stack_matches_confusion_total() {
        let r = report();
        let folded = r.folded_stack();
        let total: u64 =
            folded.lines().map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap()).sum();
        assert_eq!(total, r.audit.decisions);
        assert!(folded.lines().all(|l| l.starts_with("idle;")));
    }
}
