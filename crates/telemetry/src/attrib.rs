//! The attribution collector: spans in, summary + folded stacks out.
//!
//! [`Attribution`] accumulates every completed [`RequestSpan`] of a run
//! (and the power/residency intervals for its embedded [`Timeline`]),
//! then [`Attribution::finish`] reduces them to an
//! [`AttributionSummary`] and frees them. The spans are kept until then
//! because the tail bucket is defined by the run's exact p99, unknown
//! until the last request completes. The summary holds per-phase mean
//! contributions for all requests and for the p99 tail bucket, plus the
//! exit penalty broken down by *which* C-state charged it.
//! [`AttributionSummary::folded_stack`] renders both buckets in the
//! flamegraph folded-stack format (`frame;frame count`), so
//! `flamegraph.pl` or speedscope can draw the decomposition directly.

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

    /// Like [`new`](Self::new), with room for `expected_spans` spans so
    /// [`record_span`](Self::record_span) does not reallocate.
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

    /// Reduces the collected spans to a summary, frees them, and hands
    /// back the summary and the timeline.
    #[must_use]
    pub fn finish(self) -> AttributionReport {
        AttributionReport { summary: summarize(&self.spans), timeline: self.timeline }
    }
}

/// Everything [`Attribution::finish`] produces.
#[derive(Debug, Clone)]
pub struct AttributionReport {
    /// The reduced per-phase summary.
    pub summary: AttributionSummary,
    /// The windowed time series.
    pub timeline: Timeline,
}

/// Running sums over one bucket of requests, folded in completion order
/// from `-0.0` (the neutral element `<f64 as Sum>` folds from), so each
/// mean has the bits of a `sum::<f64>() / n` over the bucket's spans.
struct Bucket {
    requests: u64,
    /// Server latency, residual, then the five phases of a span.
    sums: [Nanos; 7],
    /// Per charging state: total penalty and the requests that paid it.
    exits: BTreeMap<&'static str, (Nanos, u64)>,
}

impl Bucket {
    fn new() -> Bucket {
        Bucket { requests: 0, sums: [Nanos::new(-0.0); 7], exits: BTreeMap::new() }
    }

    fn add(&mut self, span: &RequestSpan) {
        self.requests += 1;
        let parts = [
            span.server_latency(),
            span.residual(),
            span.queue_wait,
            span.exit_penalty,
            span.snoop_stall,
            span.service,
            span.network_rtt,
        ];
        for (sum, part) in self.sums.iter_mut().zip(parts) {
            *sum += part;
        }
        if let Some(state) = span.exit_state {
            if span.exit_penalty.as_nanos() > 0.0 {
                let entry = self.exits.entry(state).or_insert((Nanos::ZERO, 0));
                entry.0 += span.exit_penalty;
                entry.1 += 1;
            }
        }
    }

    /// The mean latency, mean residual and phase means; zeros for an
    /// empty bucket.
    fn means(&self) -> (Nanos, Nanos, PhaseMeans) {
        let n = self.requests as f64;
        let [latency, residual, queue, exit_penalty, snoop, service, network] =
            self.sums.map(|sum| if self.requests == 0 { Nanos::ZERO } else { sum / n });
        (latency, residual, PhaseMeans { queue, exit_penalty, snoop, service, network })
    }

    /// The exit penalty by charging state, sorted by descending total
    /// (ties keep label order).
    fn exit_shares(&self) -> Vec<ExitShare> {
        let mut shares: Vec<ExitShare> = self
            .exits
            .iter()
            .map(|(&state, &(total, count))| ExitShare { state, total, count })
            .collect();
        shares.sort_by(|a, b| b.total.as_nanos().total_cmp(&a.total.as_nanos()));
        shares
    }
}

/// Reduces the spans to a summary: one pass for the all-request sums and
/// the latency buffer, a selection for the exact p99, and one filter pass
/// for the tail bucket.
fn summarize(spans: &[RequestSpan]) -> AttributionSummary {
    let mut all = Bucket::new();
    let mut latencies = Vec::with_capacity(spans.len());
    for span in spans {
        all.add(span);
        latencies.push(span.server_latency().as_nanos());
    }
    // Exact nearest-rank p99 over server latency — the tail threshold.
    let tail_threshold = if latencies.is_empty() {
        Nanos::ZERO
    } else {
        let [p99] = select_quantiles(&mut latencies, [0.99]);
        Nanos::new(p99)
    };
    let mut tail = Bucket::new();
    for span in spans.iter().filter(|s| s.server_latency() >= tail_threshold) {
        tail.add(span);
    }
    let (mean_latency, mean_residual, mean) = all.means();
    let (tail_mean_latency, _, tail_mean) = tail.means();
    AttributionSummary {
        requests: all.requests,
        mean_latency,
        mean,
        mean_residual,
        exit_by_state: all.exit_shares(),
        tail_threshold,
        tail_requests: tail.requests,
        tail_mean_latency,
        tail_mean,
        tail_exit_by_state: tail.exit_shares(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

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
        let report = attrib.finish();
        assert_eq!(report.summary.requests, 1);
        assert_eq!(report.timeline.windows().len(), 1);
        assert_eq!(report.timeline.windows()[0].completed(), 1);
        assert!(report.timeline.windows()[0].residency_share().contains_key("C0"));
    }

    /// The seven-pass reduction the one-pass `summarize` replaced, kept
    /// as its oracle: every mean a `sum::<f64>()` over a `Vec` of span
    /// references, the tail a filtered copy of that `Vec`.
    mod reference {
        use super::*;

        fn phase_means(spans: &[&RequestSpan]) -> PhaseMeans {
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

        pub(super) fn summarize(spans: &[RequestSpan]) -> AttributionSummary {
            let all: Vec<&RequestSpan> = spans.iter().collect();
            let n = all.len() as f64;
            let mean_of = |f: fn(&RequestSpan) -> Nanos| {
                if all.is_empty() {
                    Nanos::ZERO
                } else {
                    Nanos::new(all.iter().map(|s| f(s).as_nanos()).sum::<f64>() / n)
                }
            };
            let mut latencies: Vec<f64> =
                all.iter().map(|s| s.server_latency().as_nanos()).collect();
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
                    tail.iter().map(|s| s.server_latency().as_nanos()).sum::<f64>()
                        / tail.len() as f64,
                )
            };
            AttributionSummary {
                requests: all.len() as u64,
                mean_latency: mean_of(RequestSpan::server_latency),
                mean: phase_means(&all),
                mean_residual: mean_of(RequestSpan::residual),
                exit_by_state: exit_shares(&all),
                tail_threshold,
                tail_requests: tail.len() as u64,
                tail_mean_latency,
                tail_mean: phase_means(&tail),
                tail_exit_by_state: exit_shares(&tail),
            }
        }
    }

    /// Every field of a summary, floats as their bits, so two summaries
    /// compare bit for bit (`PartialEq` would equate `0.0` and `-0.0`).
    fn field_bits(s: &AttributionSummary) -> Vec<String> {
        let mut out = vec![format!("requests={}", s.requests)];
        let mut push =
            |name: &str, v: Nanos| out.push(format!("{name}={:016x}", v.as_nanos().to_bits()));
        push("mean_latency", s.mean_latency);
        push("mean_residual", s.mean_residual);
        push("tail_threshold", s.tail_threshold);
        push("tail_mean_latency", s.tail_mean_latency);
        for (bucket, means) in [("all", &s.mean), ("tail", &s.tail_mean)] {
            for phase in Phase::ALL {
                push(&format!("{bucket}.{}", phase.label()), means.phase(phase));
            }
        }
        out.push(format!("tail_requests={}", s.tail_requests));
        for (bucket, shares) in [("all", &s.exit_by_state), ("tail", &s.tail_exit_by_state)] {
            for (i, share) in shares.iter().enumerate() {
                out.push(format!(
                    "{bucket}.exit[{i}]={}:{:016x}:{}",
                    share.state,
                    share.total.as_nanos().to_bits(),
                    share.count
                ));
            }
        }
        out
    }

    /// Random spans built to hit the reduction's edges: latencies from a
    /// short palette (ties at the p99), `-0.0` and `0.0` phases, and
    /// exit states with and without a penalty. One case in six is empty.
    fn random_spans(mut rng: TestRng) -> Vec<RequestSpan> {
        const LATENCIES: [f64; 6] = [0.0, 1_000.0, 1_000.0, 2_500.5, 9_999.0, 51_000.25];
        const PHASES: [f64; 5] = [-0.0, 0.0, 1.0, 333.3, 20_000.0];
        const STATES: [Option<&str>; 4] = [None, Some("C1"), Some("C6"), Some("C6A")];
        let n = if rng.below(6) == 0 { 0 } else { rng.below(400) as usize };
        let pick = |palette: &[f64], rng: &mut TestRng| {
            if rng.below(4) == 0 {
                1e5 * rng.uniform()
            } else {
                palette[rng.below(palette.len() as u64) as usize]
            }
        };
        (0..n)
            .map(|_| {
                let arrival = 1e6 * rng.uniform();
                let latency = pick(&LATENCIES, &mut rng);
                RequestSpan {
                    arrival: Nanos::new(arrival),
                    completion: Nanos::new(arrival + latency),
                    queue_wait: Nanos::new(pick(&PHASES, &mut rng)),
                    exit_penalty: Nanos::new(pick(&PHASES, &mut rng)),
                    exit_state: STATES[rng.below(4) as usize],
                    snoop_stall: Nanos::new(pick(&PHASES, &mut rng)),
                    service: Nanos::new(pick(&PHASES, &mut rng)),
                    network_rtt: Nanos::new(pick(&PHASES, &mut rng)),
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn one_pass_summary_matches_the_seven_pass_reference(
            spans in Just(()).prop_perturb(|(), rng| random_spans(rng))
        ) {
            let mut attrib = Attribution::new(Nanos::from_millis(1.0));
            for span in &spans {
                attrib.record_span(*span);
            }
            let summary = attrib.finish().summary;
            let expected = reference::summarize(&spans);
            prop_assert_eq!(field_bits(&summary), field_bits(&expected));
            prop_assert_eq!(summary, expected);
        }
    }
}
