//! The attribution collector: spans in, summary + folded stacks out.
//!
//! [`Attribution`] accumulates every completed [`RequestSpan`] of a run
//! (and the power/residency intervals for its embedded [`Timeline`]),
//! then [`Attribution::finish`] reduces them to an
//! [`AttributionSummary`]: per-phase mean contributions for all requests
//! and for the p99 tail bucket, plus the exit penalty broken down by
//! *which* C-state charged it. [`AttributionSummary::folded_stack`]
//! renders both buckets in the flamegraph folded-stack format
//! (`frame;frame count`), so `flamegraph.pl` or speedscope can draw the
//! decomposition directly.

use std::collections::BTreeMap;
use std::fmt;

use aw_sim::select_quantiles;
use aw_types::Nanos;

use crate::span::{Phase, RequestSpan};
use crate::timeline::Timeline;

/// Mean per-request contribution of each phase over one bucket of
/// requests.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseMeans {
    /// Mean [`Phase::QueueWait`].
    pub queue: Nanos,
    /// Mean [`Phase::ExitPenalty`].
    pub exit_penalty: Nanos,
    /// Mean [`Phase::SnoopStall`].
    pub snoop: Nanos,
    /// Mean [`Phase::Service`].
    pub service: Nanos,
    /// Mean [`Phase::NetworkRtt`].
    pub network: Nanos,
}

impl PhaseMeans {
    fn from_spans(spans: &[&RequestSpan]) -> PhaseMeans {
        if spans.is_empty() {
            return PhaseMeans::default();
        }
        let n = spans.len() as f64;
        let sum = |f: fn(&RequestSpan) -> Nanos| {
            Nanos::new(spans.iter().map(|s| f(s).as_nanos()).sum::<f64>() / n)
        };
        PhaseMeans {
            queue: sum(|s| s.queue_wait),
            exit_penalty: sum(|s| s.exit_penalty),
            snoop: sum(|s| s.snoop_stall),
            service: sum(|s| s.service),
            network: sum(|s| s.network_rtt),
        }
    }

    /// The mean contribution of one phase.
    #[must_use]
    pub fn phase(&self, phase: Phase) -> Nanos {
        match phase {
            Phase::QueueWait => self.queue,
            Phase::ExitPenalty => self.exit_penalty,
            Phase::SnoopStall => self.snoop,
            Phase::Service => self.service,
            Phase::NetworkRtt => self.network,
        }
    }

    /// The mean server-side latency (sum of the server-side phases).
    #[must_use]
    pub fn server_total(&self) -> Nanos {
        self.queue + self.exit_penalty + self.snoop + self.service
    }
}

/// Exit penalty charged by one C-state over one bucket of requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExitShare {
    /// The C-state label (e.g. `"C6"`, `"C6A"`).
    pub state: &'static str,
    /// Total penalty charged by this state across the bucket.
    pub total: Nanos,
    /// Requests that absorbed an exit from this state.
    pub count: u64,
}

/// The reduced attribution of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionSummary {
    /// Completed (measured) requests.
    pub requests: u64,
    /// Mean server-side latency.
    pub mean_latency: Nanos,
    /// Mean per-phase contribution over all requests.
    pub mean: PhaseMeans,
    /// Mean attribution residual (measured latency minus phase sum);
    /// ~0 when the sum-to-latency invariant holds.
    pub mean_residual: Nanos,
    /// Exit penalty broken down by the charging C-state, over all
    /// requests, sorted by descending total.
    pub exit_by_state: Vec<ExitShare>,
    /// Exact (nearest-rank) p99 of server-side latency — the tail-bucket
    /// threshold.
    pub tail_threshold: Nanos,
    /// Requests at or above [`AttributionSummary::tail_threshold`].
    pub tail_requests: u64,
    /// Mean server-side latency within the tail bucket.
    pub tail_mean_latency: Nanos,
    /// Mean per-phase contribution within the tail bucket.
    pub tail_mean: PhaseMeans,
    /// Exit penalty by charging C-state within the tail bucket.
    pub tail_exit_by_state: Vec<ExitShare>,
}

impl AttributionSummary {
    /// Renders both buckets in the flamegraph folded-stack format:
    /// one `frames;joined;by;semicolons count` line per leaf, where the
    /// count is the mean per-request nanoseconds (rounded) attributed to
    /// that leaf. The `all` root holds every request; the `tail` root
    /// holds the p99 bucket. Exit penalty is split one level deeper by
    /// the charging C-state. Zero-valued leaves are omitted.
    #[must_use]
    pub fn folded_stack(&self) -> String {
        let mut out = String::new();
        self.fold_bucket(&mut out, "all", self.requests, &self.mean, &self.exit_by_state);
        self.fold_bucket(
            &mut out,
            "tail",
            self.tail_requests,
            &self.tail_mean,
            &self.tail_exit_by_state,
        );
        out
    }

    fn fold_bucket(
        &self,
        out: &mut String,
        root: &str,
        requests: u64,
        means: &PhaseMeans,
        exits: &[ExitShare],
    ) {
        if requests == 0 {
            return;
        }
        for phase in [Phase::QueueWait, Phase::SnoopStall, Phase::Service, Phase::NetworkRtt] {
            let ns = means.phase(phase).as_nanos().round() as u64;
            if ns > 0 {
                out.push_str(&format!("{root};{} {ns}\n", phase.label()));
            }
        }
        // Exit penalty: one leaf per charging C-state, mean ns over the
        // whole bucket so sibling widths stay comparable.
        for share in exits {
            let ns = (share.total.as_nanos() / requests as f64).round() as u64;
            if ns > 0 {
                out.push_str(&format!(
                    "{root};{};{} {ns}\n",
                    Phase::ExitPenalty.label(),
                    share.state
                ));
            }
        }
    }
}

impl fmt::Display for AttributionSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "attribution over {} requests: mean {} = queue {} + cstate_exit {} + snoop {} + service {}; tail(p99≥{}): mean {} with cstate_exit {}",
            self.requests,
            self.mean_latency,
            self.mean.queue,
            self.mean.exit_penalty,
            self.mean.snoop,
            self.mean.service,
            self.tail_threshold,
            self.tail_mean_latency,
            self.tail_mean.exit_penalty,
        )
    }
}

/// Collects request spans and timeline inputs during a run.
///
/// # Examples
///
/// ```
/// use aw_telemetry::Attribution;
/// use aw_types::Nanos;
///
/// let attrib = Attribution::new(Nanos::from_millis(10.0));
/// let report = attrib.finish();
/// assert_eq!(report.summary.requests, 0);
/// assert!(report.summary.folded_stack().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Attribution {
    spans: Vec<RequestSpan>,
    timeline: Timeline,
}

impl Attribution {
    /// Creates a collector whose embedded timeline uses `window`-sized
    /// intervals.
    ///
    /// # Panics
    ///
    /// Panics if `window` is not strictly positive.
    #[must_use]
    pub fn new(window: Nanos) -> Self {
        Attribution { spans: Vec::new(), timeline: Timeline::new(window) }
    }

    /// Like [`new`](Self::new), with the span reservoir pre-sized for
    /// `expected_spans` requests so the per-request
    /// [`record_span`](Self::record_span) push does not reallocate on
    /// the hot path.
    ///
    /// # Panics
    ///
    /// Panics if `window` is not strictly positive.
    #[must_use]
    pub fn with_capacity(window: Nanos, expected_spans: usize) -> Self {
        Attribution { spans: Vec::with_capacity(expected_spans), timeline: Timeline::new(window) }
    }

    /// Records one completed request.
    pub fn record_span(&mut self, span: RequestSpan) {
        self.timeline.record_span(&span);
        self.spans.push(span);
    }

    /// Forwards a constant-power interval to the timeline.
    pub fn record_power(&mut self, start: Nanos, end: Nanos, power: aw_types::MilliWatts) {
        self.timeline.record_power(start, end, power);
    }

    /// Forwards a residency interval to the timeline.
    pub fn record_residency(&mut self, state: &'static str, start: Nanos, end: Nanos) {
        self.timeline.record_residency(state, start, end);
    }

    /// The spans collected so far.
    #[must_use]
    pub fn spans(&self) -> &[RequestSpan] {
        &self.spans
    }

    /// The embedded timeline.
    #[must_use]
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Reduces the collected spans to a summary and hands back the
    /// timeline and raw spans.
    #[must_use]
    pub fn finish(self) -> AttributionReport {
        let summary = summarize(&self.spans);
        AttributionReport { summary, timeline: self.timeline, spans: self.spans }
    }
}

/// Everything [`Attribution::finish`] produces.
#[derive(Debug, Clone)]
pub struct AttributionReport {
    /// The reduced per-phase summary.
    pub summary: AttributionSummary,
    /// The windowed time series.
    pub timeline: Timeline,
    /// The raw per-request spans (completion order).
    pub spans: Vec<RequestSpan>,
}

fn exit_shares(spans: &[&RequestSpan]) -> Vec<ExitShare> {
    let mut by_state: BTreeMap<&'static str, (Nanos, u64)> = BTreeMap::new();
    for span in spans {
        if let Some(state) = span.exit_state {
            if span.exit_penalty.as_nanos() > 0.0 {
                let entry = by_state.entry(state).or_insert((Nanos::ZERO, 0));
                entry.0 += span.exit_penalty;
                entry.1 += 1;
            }
        }
    }
    let mut shares: Vec<ExitShare> = by_state
        .into_iter()
        .map(|(state, (total, count))| ExitShare { state, total, count })
        .collect();
    shares.sort_by(|a, b| b.total.as_nanos().total_cmp(&a.total.as_nanos()));
    shares
}

fn summarize(spans: &[RequestSpan]) -> AttributionSummary {
    let all: Vec<&RequestSpan> = spans.iter().collect();
    let n = all.len() as f64;
    let mean_of = |f: fn(&RequestSpan) -> Nanos| {
        if all.is_empty() {
            Nanos::ZERO
        } else {
            Nanos::new(all.iter().map(|s| f(s).as_nanos()).sum::<f64>() / n)
        }
    };

    // Exact nearest-rank p99 over server latency — the tail threshold.
    let mut latencies: Vec<f64> = all.iter().map(|s| s.server_latency().as_nanos()).collect();
    let tail_threshold = if latencies.is_empty() {
        Nanos::ZERO
    } else {
        let [p99] = select_quantiles(&mut latencies, [0.99]);
        Nanos::new(p99)
    };

    let tail: Vec<&RequestSpan> = all
        .iter()
        .filter(|s| s.server_latency().as_nanos() >= tail_threshold.as_nanos())
        .copied()
        .collect();
    let tail_mean_latency = if tail.is_empty() {
        Nanos::ZERO
    } else {
        Nanos::new(
            tail.iter().map(|s| s.server_latency().as_nanos()).sum::<f64>() / tail.len() as f64,
        )
    };

    AttributionSummary {
        requests: all.len() as u64,
        mean_latency: mean_of(RequestSpan::server_latency),
        mean: PhaseMeans::from_spans(&all),
        mean_residual: mean_of(RequestSpan::residual),
        exit_by_state: exit_shares(&all),
        tail_threshold,
        tail_requests: tail.len() as u64,
        tail_mean_latency,
        tail_mean: PhaseMeans::from_spans(&tail),
        tail_exit_by_state: exit_shares(&tail),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(latency_parts: (f64, f64, f64), state: Option<&'static str>, at: f64) -> RequestSpan {
        let (queue, exit, service) = latency_parts;
        RequestSpan {
            arrival: Nanos::new(at - queue - exit - service),
            completion: Nanos::new(at),
            queue_wait: Nanos::new(queue),
            exit_penalty: Nanos::new(exit),
            exit_state: state,
            snoop_stall: Nanos::ZERO,
            service: Nanos::new(service),
            network_rtt: Nanos::new(100.0),
        }
    }

    fn collector_with_mixed_spans() -> Attribution {
        let mut attrib = Attribution::new(Nanos::new(1_000_000.0));
        // 99 fast requests (distinct latencies 1100..1198 ns, no exit
        // penalty) and one slow C6 wake (51 500 ns).
        for i in 0..99 {
            attrib.record_span(span(
                (100.0 + f64::from(i), 0.0, 1_000.0),
                None,
                2_000.0 + 10.0 * f64::from(i),
            ));
        }
        attrib.record_span(span((500.0, 50_000.0, 1_000.0), Some("C6"), 60_000.0));
        attrib
    }

    #[test]
    fn summary_means_and_tail() {
        let report = collector_with_mixed_spans().finish();
        let s = &report.summary;
        assert_eq!(s.requests, 100);
        // Mean exit penalty: 50_000 / 100 = 500 ns.
        assert!((s.mean.exit_penalty.as_nanos() - 500.0).abs() < 1e-9);
        assert!((s.mean.service.as_nanos() - 1_000.0).abs() < 1e-9);
        assert!((s.mean_residual.as_nanos()).abs() < 1e-9);
        // Nearest-rank p99 of 100 sorted samples is the 99th smallest:
        // the slowest fast request (1198 ns).
        assert!((s.tail_threshold.as_nanos() - 1_198.0).abs() < 1e-9);
        // The tail bucket is that request plus the slow C6 wake.
        assert_eq!(s.tail_requests, 2);
        assert!((s.tail_mean.exit_penalty.as_nanos() - 25_000.0).abs() < 1e-9);
        assert_eq!(s.exit_by_state.len(), 1);
        assert_eq!(s.exit_by_state[0].state, "C6");
        assert_eq!(s.exit_by_state[0].count, 1);
        assert_eq!(s.tail_exit_by_state[0].count, 1);
        assert!((s.mean.network.as_nanos() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn folded_stack_is_valid_and_splits_exit_by_state() {
        let report = collector_with_mixed_spans().finish();
        let folded = report.summary.folded_stack();
        assert!(!folded.is_empty());
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("frame count");
            assert!(stack.split(';').count() >= 2, "bad stack: {line}");
            assert!(count.parse::<u64>().is_ok(), "bad count: {line}");
        }
        assert!(folded.contains("all;cstate_exit;C6 500\n"), "{folded}");
        assert!(folded.contains("tail;cstate_exit;C6 25000\n"), "{folded}");
        assert!(folded.contains("all;service 1000\n"), "{folded}");
        assert!(folded.contains("tail;service 1000\n"), "{folded}");
        // Snoop is zero everywhere and must be omitted.
        assert!(!folded.contains("snoop"), "{folded}");
    }

    #[test]
    fn empty_run_summarises_to_zeroes() {
        let report = Attribution::new(Nanos::new(1_000.0)).finish();
        let s = report.summary;
        assert_eq!(s.requests, 0);
        assert_eq!(s.mean_latency, Nanos::ZERO);
        assert!(s.exit_by_state.is_empty());
        assert_eq!(s.tail_requests, 0);
        assert!(s.folded_stack().is_empty());
    }

    #[test]
    fn display_mentions_phases() {
        let report = collector_with_mixed_spans().finish();
        let text = report.summary.to_string();
        assert!(text.contains("100 requests"), "{text}");
        assert!(text.contains("cstate_exit"), "{text}");
        assert!(text.contains("tail"), "{text}");
    }

    #[test]
    fn timeline_receives_spans_and_power() {
        let mut attrib = Attribution::new(Nanos::new(1_000.0));
        attrib.record_span(span((0.0, 0.0, 500.0), None, 700.0));
        attrib.record_power(Nanos::ZERO, Nanos::new(1_000.0), aw_types::MilliWatts::new(500.0));
        attrib.record_residency("C0", Nanos::ZERO, Nanos::new(1_000.0));
        assert_eq!(attrib.spans().len(), 1);
        let report = attrib.finish();
        assert_eq!(report.timeline.windows().len(), 1);
        assert_eq!(report.timeline.windows()[0].completed(), 1);
        assert!(report.timeline.windows()[0].residency_share().contains_key("C0"));
    }
}
