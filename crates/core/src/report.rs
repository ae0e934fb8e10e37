//! Lightweight report types: text tables and data series.

use std::fmt;

use aw_server::DegradationStats;
use aw_telemetry::{AttributionSummary, Phase, TelemetrySummary};
use aw_types::Nanos;

/// A renderable text table (the form every "Table N" experiment emits).
///
/// # Examples
///
/// ```
/// use agilewatts::TextTable;
///
/// let t = TextTable {
///     title: "Demo".into(),
///     headers: vec!["state".into(), "power".into()],
///     rows: vec![vec!["C1".into(), "1.44W".into()]],
/// };
/// let s = t.to_string();
/// assert!(s.contains("C1"));
/// assert!(s.contains("power"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each must match the header count.
    pub rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates an empty table.
    #[must_use]
    pub(crate) fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        TextTable {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header count.
    pub(crate) fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width must match headers");
        self.rows.push(row);
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        writeln!(f, "=== {} ===", self.title)?;
        let mut line = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            line.push_str(&format!("{h:<w$}  "));
        }
        writeln!(f, "{}", line.trim_end())?;
        writeln!(f, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()))?;
        for row in &self.rows {
            let mut line = String::new();
            for (cell, w) in row.iter().zip(&widths) {
                line.push_str(&format!("{cell:<w$}  "));
            }
            writeln!(f, "{}", line.trim_end())?;
        }
        Ok(())
    }
}

/// Renders a telemetry summary as a metric/value [`TextTable`] — the
/// "Telemetry" section appended to experiment reports for traced runs.
///
/// # Examples
///
/// ```
/// use agilewatts::{aw_telemetry::TelemetryRecorder, telemetry_table};
/// use agilewatts::aw_types::Nanos;
///
/// let mut rec = TelemetryRecorder::new(1, 64);
/// rec.sim_event(Nanos::ZERO, 3);
/// let table = telemetry_table(&rec.into_report(Nanos::from_micros(1.0)).summary);
/// assert!(table.to_string().contains("mispredict rate"));
/// ```
#[must_use]
pub fn telemetry_table(summary: &TelemetrySummary) -> TextTable {
    let mut t = TextTable::new("Telemetry", &["metric", "value"]);
    t.push_row(vec!["trace events recorded".into(), summary.events_recorded.to_string()]);
    t.push_row(vec!["trace events dropped".into(), summary.events_dropped.to_string()]);
    t.push_row(vec!["DES events dispatched".into(), summary.sim_events.to_string()]);
    t.push_row(vec![
        "event-queue depth HWM".into(),
        format!("{:.0}", summary.event_queue_depth_hwm),
    ]);
    t.push_row(vec!["run-queue depth HWM".into(), format!("{:.0}", summary.run_queue_depth_hwm)]);
    t.push_row(vec!["governor decisions".into(), summary.governor_decisions.to_string()]);
    t.push_row(vec![
        "governor mispredict rate".into(),
        format!("{:.2}%", summary.mispredict_rate * 100.0),
    ]);
    t.push_row(vec!["mean residency error".into(), summary.mean_residency_error.to_string()]);
    t
}

/// Renders a latency-attribution summary as a [`TextTable`] — the
/// "Latency attribution" section appended to experiment reports for
/// attributed runs. One row per server-side phase (shares are of the
/// measured mean latency), with the exit penalty split one level deeper
/// by the charging C-state, and a closing measured-total row.
///
/// # Examples
///
/// ```
/// use agilewatts::attribution_table;
/// use agilewatts::aw_telemetry::{Attribution, RequestSpan};
/// use agilewatts::aw_types::Nanos;
///
/// let mut attrib = Attribution::new(Nanos::from_millis(1.0));
/// attrib.record_span(RequestSpan {
///     arrival: Nanos::ZERO,
///     completion: Nanos::new(1_500.0),
///     queue_wait: Nanos::new(500.0),
///     exit_penalty: Nanos::ZERO,
///     exit_state: None,
///     snoop_stall: Nanos::ZERO,
///     service: Nanos::new(1_000.0),
///     network_rtt: Nanos::ZERO,
/// });
/// let table = attribution_table(&attrib.finish().summary);
/// assert!(table.to_string().contains("service"));
/// ```
#[must_use]
pub fn attribution_table(summary: &AttributionSummary) -> TextTable {
    fn pct(part: Nanos, whole: Nanos) -> String {
        if whole.as_nanos() > 0.0 {
            format!("{:.1}%", 100.0 * part.as_nanos() / whole.as_nanos())
        } else {
            "-".into()
        }
    }
    let mut t = TextTable::new(
        format!(
            "Latency attribution ({} requests, tail = p99 >= {})",
            summary.requests, summary.tail_threshold
        ),
        &["phase", "mean", "share", "tail mean", "tail share"],
    );
    for phase in [Phase::QueueWait, Phase::ExitPenalty, Phase::SnoopStall, Phase::Service] {
        t.push_row(vec![
            phase.label().into(),
            summary.mean.phase(phase).to_string(),
            pct(summary.mean.phase(phase), summary.mean_latency),
            summary.tail_mean.phase(phase).to_string(),
            pct(summary.tail_mean.phase(phase), summary.tail_mean_latency),
        ]);
        if phase != Phase::ExitPenalty {
            continue;
        }
        for share in &summary.exit_by_state {
            let mean = Nanos::new(share.total.as_nanos() / summary.requests.max(1) as f64);
            let tail_mean = summary
                .tail_exit_by_state
                .iter()
                .find(|s| s.state == share.state)
                .map_or(Nanos::ZERO, |s| {
                    Nanos::new(s.total.as_nanos() / summary.tail_requests.max(1) as f64)
                });
            t.push_row(vec![
                format!("  {} ({} wakes)", share.state, share.count),
                mean.to_string(),
                pct(mean, summary.mean_latency),
                tail_mean.to_string(),
                pct(tail_mean, summary.tail_mean_latency),
            ]);
        }
    }
    t.push_row(vec![
        "total (measured)".into(),
        summary.mean_latency.to_string(),
        pct(summary.mean_latency, summary.mean_latency),
        summary.tail_mean_latency.to_string(),
        pct(summary.tail_mean_latency, summary.tail_mean_latency),
    ]);
    t
}

/// Renders the fault/overload counters as an event/count [`TextTable`] —
/// the "Degradation" section appended to reports when fault injection or
/// overload protection was active.
///
/// # Examples
///
/// ```
/// use agilewatts::{aw_server::DegradationStats, degradation_table};
///
/// let stats = DegradationStats { shed: 3, retries: 2, ..DegradationStats::default() };
/// let table = degradation_table(&stats);
/// assert!(table.to_string().contains("requests shed"));
/// ```
#[must_use]
pub fn degradation_table(stats: &DegradationStats) -> TextTable {
    let mut t = TextTable::new("Degradation", &["event", "count"]);
    for (_, _, description, count) in stats.counters() {
        t.push_row(vec![description.into(), count.to_string()]);
    }
    t
}

/// A named (x, y) series — the form every "Fig. N" experiment emits.
#[derive(Debug, Clone)]
pub struct Series {
    /// Series label (e.g. a configuration name).
    pub name: String,
    /// `(x, y)` points in sweep order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    #[must_use]
    pub(crate) fn new(name: impl Into<String>) -> Self {
        Series { name: name.into(), points: Vec::new() }
    }

    /// Appends a point.
    pub(crate) fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.name)?;
        for (x, y) in &self.points {
            if x.fract() == 0.0 {
                write!(f, " ({x:.0}, {y:.3})")?;
            } else {
                write!(f, " ({x}, {y:.3})")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new("T", &["a", "bbbb"]);
        t.push_row(vec!["xxxxx".into(), "y".into()]);
        let s = t.to_string();
        assert!(s.contains("=== T ==="));
        assert!(s.contains("xxxxx"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new("T", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn telemetry_table_renders_headline_metrics() {
        let mut rec = aw_telemetry::TelemetryRecorder::new(2, 64);
        rec.sim_event(aw_types::Nanos::ZERO, 5);
        rec.governor_decision(0, aw_types::Nanos::ZERO, "C1", aw_types::Nanos::from_micros(1.0));
        rec.idle_outcome(
            0,
            aw_types::Nanos::from_micros(3.0),
            aw_types::Nanos::from_micros(3.0),
            aw_types::Nanos::from_micros(2.0),
        );
        let table = telemetry_table(&rec.into_report(aw_types::Nanos::from_micros(10.0)).summary);
        let text = table.to_string();
        assert!(text.contains("governor mispredict rate"));
        assert!(text.contains("0.00%"));
        assert!(text.contains("event-queue depth HWM"));
        assert!(text.contains("5"));
    }

    #[test]
    fn attribution_table_splits_exit_by_state() {
        let mut attrib = aw_telemetry::Attribution::new(Nanos::from_millis(1.0));
        for i in 0..99 {
            attrib.record_span(aw_telemetry::RequestSpan {
                arrival: Nanos::new(f64::from(i) * 10.0),
                completion: Nanos::new(f64::from(i) * 10.0 + 1_000.0 + f64::from(i)),
                queue_wait: Nanos::ZERO,
                exit_penalty: Nanos::ZERO,
                exit_state: None,
                snoop_stall: Nanos::ZERO,
                service: Nanos::new(1_000.0 + f64::from(i)),
                network_rtt: Nanos::ZERO,
            });
        }
        attrib.record_span(aw_telemetry::RequestSpan {
            arrival: Nanos::ZERO,
            completion: Nanos::new(51_000.0),
            queue_wait: Nanos::ZERO,
            exit_penalty: Nanos::new(50_000.0),
            exit_state: Some("C6"),
            snoop_stall: Nanos::ZERO,
            service: Nanos::new(1_000.0),
            network_rtt: Nanos::ZERO,
        });
        let text = attribution_table(&attrib.finish().summary).to_string();
        assert!(text.contains("Latency attribution (100 requests"), "{text}");
        assert!(text.contains("cstate_exit"), "{text}");
        assert!(text.contains("C6 (1 wakes)"), "{text}");
        assert!(text.contains("total (measured)"), "{text}");
        assert!(text.contains("100.0%"), "{text}");
    }

    #[test]
    fn series_display() {
        let mut s = Series::new("power");
        s.push(100.0, 0.5);
        assert_eq!(s.to_string(), "power: (100, 0.500)");
    }
}
