//! Fixed-interval time-series aggregation of request spans.
//!
//! A [`Timeline`] chops simulated time into fixed windows and folds each
//! completed [`RequestSpan`] into the window its completion falls in:
//! throughput, per-phase mean latency contribution, windowed
//! p50/p99/p99.9 (via [`aw_sim::P2Quantile`] — O(1) memory per window),
//! average power, and per-C-state residency share. The result exports as
//! CSV or JSON for plotting latency/power/residency against time — the
//! view the paper's diurnal and load-step arguments need.

use std::collections::BTreeMap;

use aw_sim::P2Quantile;
use aw_types::{Joules, MilliWatts, Nanos};

use crate::json::JsonValue;
use crate::span::{Phase, RequestSpan};

/// Server-side phases exported as per-window columns (everything but
/// the constant network RTT, which carries no time-series signal).
const CSV_PHASES: [Phase; 4] =
    [Phase::QueueWait, Phase::ExitPenalty, Phase::SnoopStall, Phase::Service];

/// One fixed-duration aggregation window.
#[derive(Debug, Clone)]
pub struct TimelineWindow {
    start: Nanos,
    completed: u64,
    /// Summed per-phase contribution, nanoseconds, indexed by
    /// [`Phase::ALL`] order.
    phase_ns: [f64; 5],
    p50: P2Quantile,
    p99: P2Quantile,
    p999: P2Quantile,
    energy: Joules,
    /// Nanoseconds of core residency per accounting C-state, one slot per
    /// state in first-seen order (a window sees a handful of states).
    residency_ns: Vec<(&'static str, f64)>,
}

impl TimelineWindow {
    pub(crate) fn new(start: Nanos) -> Self {
        TimelineWindow {
            start,
            completed: 0,
            phase_ns: [0.0; 5],
            p50: P2Quantile::new(0.5),
            p99: P2Quantile::new(0.99),
            p999: P2Quantile::new(0.999),
            energy: Joules::ZERO,
            residency_ns: Vec::new(),
        }
    }

    /// The window's start timestamp.
    #[must_use]
    pub(crate) fn start(&self) -> Nanos {
        self.start
    }

    /// Requests completed in this window.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// True when nothing was recorded into this window (skipped by the
    /// exporters).
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.completed == 0 && self.energy == Joules::ZERO && self.residency_ns.is_empty()
    }

    /// Mean per-request contribution of one phase in this window.
    #[must_use]
    pub(crate) fn phase_mean(&self, phase: Phase) -> Nanos {
        if self.completed == 0 {
            return Nanos::ZERO;
        }
        let idx = Phase::ALL.iter().position(|p| *p == phase).expect("phase in ALL");
        Nanos::new(self.phase_ns[idx] / self.completed as f64)
    }

    /// Windowed p50 server latency estimate.
    #[must_use]
    pub(crate) fn p50(&self) -> Option<Nanos> {
        self.p50.estimate().map(Nanos::new)
    }

    /// Windowed p99 server latency estimate.
    #[must_use]
    pub(crate) fn p99(&self) -> Option<Nanos> {
        self.p99.estimate().map(Nanos::new)
    }

    /// Windowed p99.9 server latency estimate.
    #[must_use]
    pub(crate) fn p999(&self) -> Option<Nanos> {
        self.p999.estimate().map(Nanos::new)
    }

    /// Energy deposited in this window (all cores).
    #[must_use]
    pub fn energy(&self) -> Joules {
        self.energy
    }

    /// Per-C-state share of the residency recorded in this window
    /// (normalised to sum to 1 over the states observed, so partial
    /// trailing windows stay comparable). The total is summed in label
    /// order, whatever order the states were first seen in.
    #[must_use]
    pub(crate) fn residency_share(&self) -> BTreeMap<&'static str, f64> {
        let ns: BTreeMap<&'static str, f64> = self.residency_ns.iter().copied().collect();
        let total: f64 = ns.values().sum();
        if total <= 0.0 {
            return BTreeMap::new();
        }
        ns.into_iter().map(|(s, ns)| (s, ns / total)).collect()
    }
}

/// A fixed-interval time series of request attribution, power, and
/// residency.
///
/// # Examples
///
/// ```
/// use aw_telemetry::{Attribution, RequestSpan};
/// use aw_types::{MilliWatts, Nanos};
///
/// let mut attrib = Attribution::new(Nanos::from_millis(1.0));
/// attrib.record_span(RequestSpan {
///     arrival: Nanos::new(500.0),
///     completion: Nanos::new(4_500.0),
///     queue_wait: Nanos::new(1_000.0),
///     exit_penalty: Nanos::ZERO,
///     exit_state: None,
///     snoop_stall: Nanos::ZERO,
///     service: Nanos::new(3_000.0),
///     network_rtt: Nanos::ZERO,
/// });
/// attrib.record_power(Nanos::ZERO, Nanos::from_millis(2.0), MilliWatts::from_watts(1.0));
/// let tl = attrib.finish().timeline;
/// assert_eq!(tl.windows().len(), 2);
/// assert_eq!(tl.windows()[0].completed(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Timeline {
    window: Nanos,
    windows: Vec<TimelineWindow>,
    /// The window the last lookup landed in.
    cursor: WindowCursor,
}

/// A cursor on one window of a fixed-width window series, with the span
/// of times known to fall in it without dividing. [`Timeline`] keeps one;
/// any fold that buckets near-sorted times into windows can too (see
/// [`WindowCursor::locate`]).
///
/// A time `t` belongs to window `floor(t / w)`. Rounded division is
/// monotone in `t`, so if `lo = idx·w` divides back to `idx` and the
/// float just below `safe` does too, every `t` in `[lo, safe)` lies in
/// window `idx`. `safe` starts at `hi = (idx+1)·w` and steps down one
/// float at a time until that holds (rarely more than one step). When
/// `idx·w / w` floors below `idx`, the range is left empty and every
/// lookup divides.
#[derive(Debug, Clone, Copy)]
pub struct WindowCursor {
    idx: usize,
    /// `idx·w`, the window's start.
    lo: f64,
    /// `(idx+1)·w`, the next window's start.
    hi: f64,
    /// Every `t` in `[lo, safe)` lies in window `idx`; `safe ≤ hi`.
    safe: f64,
}

impl WindowCursor {
    /// Points at no window.
    pub const NONE: WindowCursor = WindowCursor { idx: usize::MAX, lo: 0.0, hi: 0.0, safe: 0.0 };

    /// Steps below `hi` at most this many floats before giving up.
    const MAX_STEPS: usize = 8;

    fn new(idx: usize, w: f64) -> WindowCursor {
        let lo = idx as f64 * w;
        let hi = (idx + 1) as f64 * w;
        let mut safe = if window_index(lo, w) == idx { hi } else { lo };
        for _ in 0..Self::MAX_STEPS {
            if safe <= lo {
                break;
            }
            // `safe > lo ≥ 0`, so the float below it is one bit pattern down.
            let below = f64::from_bits(safe.to_bits() - 1);
            if window_index(below, w) == idx {
                return WindowCursor { idx, lo, hi, safe };
            }
            safe = below;
        }
        WindowCursor { idx, lo, hi, safe: lo }
    }

    #[inline]
    fn holds(&self, t: f64) -> bool {
        self.lo <= t && t < self.safe
    }

    /// The window `t` falls in, `floor(t / w)` with negative times in
    /// window 0, moving the cursor onto it. Divides only when `t` lies
    /// outside the cursor's known span. Every call on one cursor must
    /// pass the same `w`.
    #[inline]
    pub fn locate(&mut self, t: f64, w: f64) -> usize {
        if !self.holds(t) {
            let idx = window_index(t, w);
            if idx != self.idx {
                *self = WindowCursor::new(idx, w);
            }
        }
        self.idx
    }
}

/// The window a time falls in: `floor(t / w)`, with negative times in
/// window 0.
fn window_index(t: f64, w: f64) -> usize {
    (t / w).max(0.0) as usize
}

impl Timeline {
    /// Creates a timeline with the given window duration.
    ///
    /// # Panics
    ///
    /// Panics if `window` is not strictly positive.
    #[must_use]
    pub(crate) fn new(window: Nanos) -> Self {
        assert!(window.as_nanos() > 0.0, "timeline window must be positive");
        Timeline { window, windows: Vec::new(), cursor: WindowCursor::NONE }
    }

    /// The fixed window duration.
    #[must_use]
    pub fn window_duration(&self) -> Nanos {
        self.window
    }

    /// The windows recorded so far, in time order (may include empty
    /// gap windows; the exporters skip those).
    #[must_use]
    pub fn windows(&self) -> &[TimelineWindow] {
        &self.windows
    }

    fn window_mut(&mut self, t: Nanos) -> &mut TimelineWindow {
        let t = t.as_nanos();
        if self.cursor.holds(t) {
            return &mut self.windows[self.cursor.idx];
        }
        self.window_at(window_index(t, self.window.as_nanos()))
    }

    /// Window `idx`, materialising any gap windows before it, with the
    /// cursor moved onto it.
    fn window_at(&mut self, idx: usize) -> &mut TimelineWindow {
        let wn = self.window.as_nanos();
        while self.windows.len() <= idx {
            let start = Nanos::new(self.windows.len() as f64 * wn);
            self.windows.push(TimelineWindow::new(start));
        }
        if self.cursor.idx != idx {
            self.cursor = WindowCursor::new(idx, wn);
        }
        &mut self.windows[idx]
    }

    /// Folds one completed request into the window of its completion
    /// time.
    pub(crate) fn record_span(&mut self, span: &RequestSpan) {
        let latency = span.server_latency().as_nanos();
        let w = self.window_mut(span.completion);
        w.completed += 1;
        for (i, phase) in Phase::ALL.iter().enumerate() {
            w.phase_ns[i] += span.phase(*phase).as_nanos();
        }
        w.p50.record(latency);
        w.p99.record(latency);
        w.p999.record(latency);
    }

    /// Deposits `power` held over `[start, end)` into the overlapping
    /// windows, pro-rated by overlap. Call once per constant-power
    /// interval per core; energies accumulate across cores.
    pub(crate) fn record_power(&mut self, start: Nanos, end: Nanos, power: MilliWatts) {
        self.for_each_overlap(start, end, |w, overlap| w.energy += power * overlap);
    }

    /// Records that a core sat in accounting C-state `state` over
    /// `[start, end)`, pro-rated across the overlapping windows.
    pub(crate) fn record_residency(&mut self, state: &'static str, start: Nanos, end: Nanos) {
        self.for_each_overlap(start, end, |w, overlap| {
            // Labels are interned statics, so the pointer nearly always
            // matches; the byte compare catches equal labels elsewhere.
            let slots = &mut w.residency_ns;
            let slot = slots
                .iter()
                .position(|(s, _)| std::ptr::eq(*s, state))
                .or_else(|| slots.iter().position(|(s, _)| *s == state));
            match slot {
                Some(i) => slots[i].1 += overlap.as_nanos(),
                None => slots.push((state, overlap.as_nanos())),
            }
        });
    }

    fn for_each_overlap(
        &mut self,
        start: Nanos,
        end: Nanos,
        mut f: impl FnMut(&mut TimelineWindow, Nanos),
    ) {
        let (start, end) = (start.as_nanos(), end.as_nanos());
        if end <= start {
            return;
        }
        // `end` is exclusive, so a boundary-aligned end stays in the
        // previous window.
        let last_t = (end - f64::EPSILON * end).max(0.0);
        let c = self.cursor;
        if c.holds(start) && c.holds(last_t) && end <= c.hi {
            // Both ends lie in the cursor's window: the loop below would
            // charge it `end − start` and touch nothing else.
            f(&mut self.windows[c.idx], Nanos::new(end - start));
            return;
        }
        let wn = self.window.as_nanos();
        for idx in window_index(start, wn)..=window_index(last_t, wn) {
            let lo = start.max(idx as f64 * wn);
            let hi = end.min((idx + 1) as f64 * wn);
            if hi > lo {
                f(self.window_at(idx), Nanos::new(hi - lo));
            }
        }
    }

    /// Average aggregate power over one window: deposited energy divided
    /// by the window duration. Under-reports a partial trailing window
    /// (its energy is spread over the full duration).
    #[must_use]
    pub(crate) fn avg_power(&self, w: &TimelineWindow) -> MilliWatts {
        w.energy() / self.window
    }

    /// Throughput over one window, in requests per second.
    #[must_use]
    pub(crate) fn throughput_qps(&self, w: &TimelineWindow) -> f64 {
        w.completed() as f64 / self.window.as_secs()
    }

    /// Every residency state observed anywhere in the timeline, sorted.
    #[must_use]
    pub fn residency_states(&self) -> Vec<&'static str> {
        let mut states: Vec<&'static str> =
            self.windows.iter().flat_map(|w| w.residency_ns.iter().map(|(s, _)| *s)).collect();
        states.sort_unstable();
        states.dedup();
        states
    }

    /// Renders the time series as CSV: one row per non-empty window,
    /// with a `residency_<state>` share column for every state observed.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let states = self.residency_states();
        let mut out = String::from("start_ms,completed,throughput_qps");
        for phase in CSV_PHASES {
            out.push_str(&format!(",{}_ns", phase.label()));
        }
        out.push_str(",p50_ns,p99_ns,p999_ns,avg_power_mw");
        for s in &states {
            out.push_str(&format!(",residency_{s}"));
        }
        out.push('\n');
        for w in self.windows.iter().filter(|w| !w.is_empty()) {
            out.push_str(&format!(
                "{:.3},{},{:.3}",
                w.start().as_millis(),
                w.completed(),
                self.throughput_qps(w)
            ));
            for phase in CSV_PHASES {
                out.push_str(&format!(",{:.1}", w.phase_mean(phase).as_nanos()));
            }
            for q in [w.p50(), w.p99(), w.p999()] {
                out.push_str(&format!(",{:.1}", q.unwrap_or(Nanos::ZERO).as_nanos()));
            }
            out.push_str(&format!(",{:.3}", self.avg_power(w).as_milliwatts()));
            let share = w.residency_share();
            for s in &states {
                out.push_str(&format!(",{:.6}", share.get(s).copied().unwrap_or(0.0)));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the time series as a JSON document with the same fields
    /// as [`Timeline::to_csv`], one object per non-empty window.
    #[must_use]
    pub fn to_json(&self) -> String {
        let windows: Vec<JsonValue> = self
            .windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| {
                let phases = CSV_PHASES
                    .iter()
                    .map(|p| (format!("{}_ns", p.label()), w.phase_mean(*p).as_nanos()))
                    .collect::<Vec<_>>();
                let mut fields = vec![
                    ("start_ms", JsonValue::Num(w.start().as_millis())),
                    ("completed", JsonValue::UInt(w.completed())),
                    ("throughput_qps", JsonValue::Num(self.throughput_qps(w))),
                ];
                let phase_fields: Vec<(&str, JsonValue)> =
                    phases.iter().map(|(k, v)| (k.as_str(), JsonValue::Num(*v))).collect();
                fields.extend(phase_fields);
                for (name, q) in [("p50_ns", w.p50()), ("p99_ns", w.p99()), ("p999_ns", w.p999())] {
                    fields
                        .push((name, q.map_or(JsonValue::Null, |v| JsonValue::Num(v.as_nanos()))));
                }
                fields.push(("avg_power_mw", JsonValue::Num(self.avg_power(w).as_milliwatts())));
                let share = w.residency_share();
                fields.push((
                    "residency",
                    JsonValue::Object(
                        share.iter().map(|(s, v)| ((*s).to_string(), JsonValue::Num(*v))).collect(),
                    ),
                ));
                JsonValue::obj(fields)
            })
            .collect();
        JsonValue::obj(vec![
            ("window_ns", JsonValue::Num(self.window.as_nanos())),
            ("windows", JsonValue::Array(windows)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn span_at(completion: f64, service: f64, queue: f64, exit: f64) -> RequestSpan {
        RequestSpan {
            arrival: Nanos::new(completion - service - queue - exit),
            completion: Nanos::new(completion),
            queue_wait: Nanos::new(queue),
            exit_penalty: Nanos::new(exit),
            exit_state: if exit > 0.0 { Some("C6") } else { None },
            snoop_stall: Nanos::ZERO,
            service: Nanos::new(service),
            network_rtt: Nanos::ZERO,
        }
    }

    #[test]
    fn spans_land_in_completion_window() {
        let mut tl = Timeline::new(Nanos::new(1_000.0));
        tl.record_span(&span_at(500.0, 300.0, 0.0, 0.0));
        tl.record_span(&span_at(2_500.0, 400.0, 100.0, 0.0));
        assert_eq!(tl.windows().len(), 3);
        assert_eq!(tl.windows()[0].completed(), 1);
        assert_eq!(tl.windows()[1].completed(), 0);
        assert!(tl.windows()[1].is_empty());
        assert_eq!(tl.windows()[2].completed(), 1);
        assert_eq!(tl.windows()[2].phase_mean(Phase::Service), Nanos::new(400.0));
        assert_eq!(tl.windows()[2].phase_mean(Phase::QueueWait), Nanos::new(100.0));
    }

    #[test]
    fn power_is_prorated_across_windows() {
        let mut tl = Timeline::new(Nanos::new(1_000.0));
        // 1 W over [500, 2500): 0.5 µs in w0, 1 µs in w1, 0.5 µs in w2.
        tl.record_power(Nanos::new(500.0), Nanos::new(2_500.0), MilliWatts::from_watts(1.0));
        let e: Vec<f64> = tl.windows().iter().map(|w| w.energy().as_joules()).collect();
        assert!((e[0] - 0.5e-6).abs() < 1e-12, "{e:?}");
        assert!((e[1] - 1.0e-6).abs() < 1e-12, "{e:?}");
        assert!((e[2] - 0.5e-6).abs() < 1e-12, "{e:?}");
        let total: f64 = e.iter().sum();
        assert!((total - 2.0e-6).abs() < 1e-12);
        // Aggregate power in the fully covered window is the held power.
        let p = tl.avg_power(&tl.windows()[1]);
        assert!((p.as_watts() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn boundary_aligned_interval_stays_in_one_window() {
        let mut tl = Timeline::new(Nanos::new(1_000.0));
        tl.record_power(Nanos::ZERO, Nanos::new(1_000.0), MilliWatts::from_watts(1.0));
        assert_eq!(tl.windows().len(), 1);
        assert!((tl.windows()[0].energy().as_joules() - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn residency_share_normalises() {
        let mut tl = Timeline::new(Nanos::new(1_000.0));
        tl.record_residency("C0", Nanos::ZERO, Nanos::new(250.0));
        tl.record_residency("C6", Nanos::new(250.0), Nanos::new(1_000.0));
        let share = tl.windows()[0].residency_share();
        assert!((share["C0"] - 0.25).abs() < 1e-9);
        assert!((share["C6"] - 0.75).abs() < 1e-9);
        assert_eq!(tl.residency_states(), vec!["C0", "C6"]);
    }

    #[test]
    fn csv_skips_empty_windows_and_has_stable_columns() {
        let mut tl = Timeline::new(Nanos::new(1_000.0));
        tl.record_span(&span_at(500.0, 300.0, 100.0, 50.0));
        tl.record_span(&span_at(3_500.0, 300.0, 0.0, 0.0));
        tl.record_residency("C1", Nanos::ZERO, Nanos::new(400.0));
        let csv = tl.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + two non-empty windows:\n{csv}");
        let header_cols = lines[0].split(',').count();
        assert!(lines[0].starts_with("start_ms,completed,throughput_qps,queue_ns"));
        assert!(lines[0].ends_with("residency_C1"));
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), header_cols, "ragged row: {row}");
        }
    }

    #[test]
    fn json_has_window_objects() {
        let mut tl = Timeline::new(Nanos::new(1_000.0));
        tl.record_span(&span_at(500.0, 300.0, 100.0, 0.0));
        let json = tl.to_json();
        assert!(json.contains("\"window_ns\""));
        assert!(json.contains("\"service_ns\""));
        assert!(json.contains("\"completed\":1"));
    }

    #[test]
    fn windowed_quantiles_track_exact() {
        let mut tl = Timeline::new(Nanos::new(1_000_000.0));
        for i in 0..1_000 {
            tl.record_span(&span_at(500.0 + f64::from(i), 100.0 + f64::from(i), 0.0, 0.0));
        }
        let w = &tl.windows()[0];
        let p50 = w.p50().unwrap().as_nanos();
        assert!((p50 - 600.0).abs() < 50.0, "{p50}");
        assert!(w.p99().unwrap().as_nanos() > p50);
    }

    #[test]
    fn windows_that_are_not_whole_nanoseconds_charge_their_own_share() {
        // 3 × 0.7 / 0.7 floors to 2: looking a share up by its start
        // time put window 3's share into window 2.
        let mut tl = Timeline::new(Nanos::new(0.7));
        tl.record_power(Nanos::new(1.0), Nanos::new(2.5), MilliWatts::from_watts(1.0));
        let e: Vec<f64> = tl.windows().iter().map(|w| w.energy().as_joules()).collect();
        assert_eq!(e.len(), 4, "{e:?}");
        assert!((e[1] - 0.4e-9).abs() < 1e-18, "{e:?}");
        assert!((e[2] - 0.7e-9).abs() < 1e-18, "{e:?}");
        assert!((e[3] - 0.4e-9).abs() < 1e-18, "{e:?}");

        // 7 × (1e6 / 3) / (1e6 / 3) floors to 6.
        let w = 1e6 / 3.0;
        let mut tl = Timeline::new(Nanos::new(w));
        tl.record_residency("C6", Nanos::new(2.0e6), Nanos::new(2.5e6));
        assert_eq!(tl.windows().len(), 8);
        assert_eq!(tl.windows()[6].residency_ns, [("C6", 7.0 * w - 2.0e6)]);
        assert_eq!(tl.windows()[7].residency_ns, [("C6", 2.5e6 - 7.0 * w)]);
    }

    #[test]
    fn cursor_covers_exactly_the_times_that_divide_to_its_window() {
        for w in [1_000.0, 0.7, 1e6 / 3.0, 1e-3, 0.25, 20e6] {
            for idx in 0..50 {
                let c = WindowCursor::new(idx, w);
                assert!(c.safe <= c.hi && c.lo <= c.safe, "w={w} idx={idx}: {c:?}");
                if c.safe > c.lo {
                    assert_eq!(window_index(c.lo, w), idx, "w={w} idx={idx}");
                    let below = f64::from_bits(c.safe.to_bits() - 1);
                    assert_eq!(window_index(below, w), idx, "w={w} idx={idx}");
                    // `safe` is as high as it can go: it is `hi`, or it
                    // divides past the window.
                    assert!(c.safe == c.hi || window_index(c.safe, w) > idx, "w={w} idx={idx}");
                } else {
                    assert_ne!(window_index(c.lo, w), idx, "w={w} idx={idx}: dropped needlessly");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_window() {
        let _ = Timeline::new(Nanos::ZERO);
    }

    /// Residency intervals `(state, start, end)` in ns: states from a
    /// short list in random first-seen order, ends on and off the
    /// 1000 ns window boundaries, and some empty or reversed intervals.
    fn random_intervals(mut rng: TestRng) -> Vec<(&'static str, f64, f64)> {
        const STATES: [&str; 5] = ["C6A", "C0", "C1E", "C6", "C1"];
        let at = |rng: &mut TestRng| {
            let t = 5_000.0 * rng.uniform();
            if rng.below(3) == 0 {
                (t / 1_000.0).round() * 1_000.0
            } else {
                t
            }
        };
        let n = rng.below(40) as usize;
        (0..n)
            .map(|_| {
                let state = STATES[rng.below(STATES.len() as u64) as usize];
                let start = at(&mut rng);
                let end = if rng.below(8) == 0 {
                    start - 10.0 * rng.uniform()
                } else {
                    at(&mut rng).max(start) + 300.0 * rng.uniform()
                };
                (state, start, end)
            })
            .collect()
    }

    /// The fold the dense slots replaced: one `BTreeMap` per window,
    /// pro-rated by the timeline's own overlap rule.
    fn reference_fold(
        window: f64,
        intervals: &[(&'static str, f64, f64)],
    ) -> Vec<BTreeMap<&'static str, f64>> {
        let mut windows: Vec<BTreeMap<&'static str, f64>> = Vec::new();
        for &(state, start, end) in intervals {
            if end <= start {
                continue;
            }
            let first = (start / window).max(0.0) as usize;
            let last = ((end - f64::EPSILON * end).max(0.0) / window) as usize;
            for idx in first..=last {
                let lo = start.max(idx as f64 * window);
                let hi = end.min((idx + 1) as f64 * window);
                if hi > lo {
                    if windows.len() <= idx {
                        windows.resize_with(idx + 1, BTreeMap::new);
                    }
                    *windows[idx].entry(state).or_insert(0.0) += hi - lo;
                }
            }
        }
        windows
    }

    fn share_of(ns: &BTreeMap<&'static str, f64>) -> BTreeMap<&'static str, f64> {
        let total: f64 = ns.values().sum();
        if total <= 0.0 {
            return BTreeMap::new();
        }
        ns.iter().map(|(s, v)| (*s, v / total)).collect()
    }

    fn bits(share: &BTreeMap<&'static str, f64>) -> Vec<(&'static str, u64)> {
        share.iter().map(|(s, v)| (*s, v.to_bits())).collect()
    }

    /// The division-based lookup the cursor replaced: every time is
    /// divided by the window width, and each overlap is charged to the
    /// window its loop is on.
    struct DividingTimeline {
        window: f64,
        windows: Vec<TimelineWindow>,
    }

    impl DividingTimeline {
        fn window_at(&mut self, idx: usize) -> &mut TimelineWindow {
            while self.windows.len() <= idx {
                let start = Nanos::new(self.windows.len() as f64 * self.window);
                self.windows.push(TimelineWindow::new(start));
            }
            &mut self.windows[idx]
        }

        fn window_mut(&mut self, t: f64) -> &mut TimelineWindow {
            self.window_at((t / self.window).max(0.0) as usize)
        }

        fn for_each_overlap(
            &mut self,
            start: f64,
            end: f64,
            mut f: impl FnMut(&mut TimelineWindow, f64),
        ) {
            if end <= start {
                return;
            }
            let wn = self.window;
            let first = (start / wn).max(0.0) as usize;
            let last = ((end - f64::EPSILON * end).max(0.0) / wn) as usize;
            for idx in first..=last {
                let lo = start.max(idx as f64 * wn);
                let hi = end.min((idx + 1) as f64 * wn);
                if hi > lo {
                    f(self.window_at(idx), hi - lo);
                }
            }
        }
    }

    /// One timeline input.
    #[derive(Debug, Clone, Copy)]
    enum Record {
        Span(f64),
        Power(f64, f64, f64),
        Residency(&'static str, f64, f64),
    }

    /// A window width: whole nanoseconds, widths that are not (0.7,
    /// 1e6/3, 1e-3), or a power of two.
    fn random_window(rng: &mut TestRng) -> f64 {
        match rng.below(6) {
            0 => (1 + rng.below(20_000_000)) as f64,
            1 => 0.7,
            2 => 1e6 / 3.0,
            3 => 1e-3,
            _ => 2f64.powi(rng.below(60) as i32 - 30),
        }
    }

    /// Records whose times walk slowly through the windows (so runs of
    /// them share one), landing on `k·w`, the floats around it, or
    /// inside a window; intervals span zero, one or several windows,
    /// and some are reversed or start before zero.
    fn random_records(rng: &mut TestRng, w: f64) -> Vec<Record> {
        const STATES: [&str; 3] = ["C0", "C1", "C6"];
        let mut k: u64 = rng.below(5);
        let at = |rng: &mut TestRng, k: u64| {
            let edge = k as f64 * w;
            match rng.below(6) {
                0 => edge,
                1 if edge > 0.0 => f64::from_bits(edge.to_bits() - 1 - rng.below(2)),
                2 => f64::from_bits(edge.to_bits() + 1 + rng.below(2)),
                3 => -w * rng.uniform(),
                _ => edge + w * rng.uniform(),
            }
        };
        let n = rng.below(60) as usize;
        (0..n)
            .map(|_| {
                if rng.below(4) == 0 {
                    k = (k + rng.below(3)).saturating_sub(1);
                }
                let start = at(rng, k);
                let end = match rng.below(6) {
                    0 => start,
                    1 => start - w * rng.uniform(),
                    2 => start + 4.0 * w * rng.uniform(),
                    _ => {
                        let next = k + rng.below(2);
                        at(rng, next)
                    }
                };
                match rng.below(3) {
                    0 => Record::Span(start),
                    1 => Record::Power(start, end, 1_000.0 * rng.uniform()),
                    _ => Record::Residency(STATES[rng.below(3) as usize], start, end),
                }
            })
            .collect()
    }

    /// Bits of everything a window holds that the lookup decides.
    fn window_bits(w: &TimelineWindow) -> (u64, u64, u64, Vec<(&'static str, u64)>) {
        let residency = w.residency_ns.iter().map(|(s, ns)| (*s, ns.to_bits())).collect();
        (w.start.as_nanos().to_bits(), w.completed, w.energy.as_joules().to_bits(), residency)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn cursor_lookups_match_the_dividing_timeline(
            (window, records) in Just(()).prop_perturb(|(), mut rng| {
                let w = random_window(&mut rng);
                (w, random_records(&mut rng, w))
            })
        ) {
            let mut tl = Timeline::new(Nanos::new(window));
            let mut reference = DividingTimeline { window, windows: Vec::new() };
            for record in &records {
                match *record {
                    Record::Span(t) => {
                        tl.record_span(&span_at(t, 0.0, 0.0, 0.0));
                        reference.window_mut(t).completed += 1;
                    }
                    Record::Power(start, end, mw) => {
                        let power = MilliWatts::new(mw);
                        tl.record_power(Nanos::new(start), Nanos::new(end), power);
                        reference.for_each_overlap(start, end, |w, ns| w.energy += power * Nanos::new(ns));
                    }
                    Record::Residency(state, start, end) => {
                        tl.record_residency(state, Nanos::new(start), Nanos::new(end));
                        reference.for_each_overlap(start, end, |w, ns| {
                            match w.residency_ns.iter_mut().find(|(s, _)| *s == state) {
                                Some((_, slot)) => *slot += ns,
                                None => w.residency_ns.push((state, ns)),
                            }
                        });
                    }
                }
            }
            prop_assert_eq!(tl.windows().len(), reference.windows.len());
            for (got, want) in tl.windows().iter().zip(&reference.windows) {
                prop_assert_eq!(window_bits(got), window_bits(want));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn residency_slots_match_a_btreemap_fold(
            intervals in Just(()).prop_perturb(|(), rng| random_intervals(rng))
        ) {
            let window = 1_000.0;
            let mut tl = Timeline::new(Nanos::new(window));
            for &(state, start, end) in &intervals {
                tl.record_residency(state, Nanos::new(start), Nanos::new(end));
            }
            let expected = reference_fold(window, &intervals);
            prop_assert_eq!(tl.windows().len(), expected.len());
            let shares: Vec<BTreeMap<&'static str, f64>> = expected.iter().map(share_of).collect();
            for (w, share) in tl.windows().iter().zip(&shares) {
                prop_assert_eq!(bits(&w.residency_share()), bits(share));
            }
            let mut states: Vec<&'static str> = expected.iter().flat_map(|w| w.keys().copied()).collect();
            states.sort_unstable();
            states.dedup();
            prop_assert_eq!(tl.residency_states(), states.clone());

            // The exports' residency columns and objects, window by
            // window, are the reference shares.
            let live: Vec<&BTreeMap<&'static str, f64>> =
                expected.iter().zip(&shares).filter(|(ns, _)| !ns.is_empty()).map(|(_, s)| s).collect();
            let csv = tl.to_csv();
            let mut lines = csv.lines();
            let header = lines.next().expect("header");
            let columns: String = states.iter().map(|s| format!(",residency_{s}")).collect();
            prop_assert!(header.ends_with(&format!("avg_power_mw{columns}")), "{header}");
            let rows: Vec<&str> = lines.collect();
            prop_assert_eq!(rows.len(), live.len());
            for (row, share) in rows.iter().zip(&live) {
                let cells: String = states.iter().map(|s| format!(",{:.6}", share.get(s).copied().unwrap_or(0.0))).collect();
                prop_assert_eq!(row.split(',').count(), header.split(',').count());
                prop_assert!(row.ends_with(&cells), "{row} vs {cells}");
            }
            let json = tl.to_json();
            let objects: Vec<&str> = json
                .split("\"residency\":")
                .skip(1)
                .map(|rest| &rest[..=rest.find('}').expect("object end")])
                .collect();
            let rendered: Vec<String> = live
                .iter()
                .map(|share| {
                    JsonValue::Object(share.iter().map(|(s, v)| ((*s).to_string(), JsonValue::Num(*v))).collect()).render()
                })
                .collect();
            prop_assert_eq!(objects, rendered.iter().map(String::as_str).collect::<Vec<_>>());
        }
    }
}
