//! The engine's one observation path: the [`Probe`] trait and the
//! collectors that implement it.
//!
//! The event loop reports what it does through typed hooks fired at
//! fixed points of its handlers. Every hook has a no-op default, so a
//! collector overrides only what it reads. Collectors compose:
//! `Option<P>` is a probe that may be switched off, and a pair `(A, B)`
//! forwards every hook to `A`, then to `B`. [`crate::SimBuilder`] runs
//! one composed type, [`RunProbe`], assembled from its `with_*`
//! settings.
//!
//! Observation is pure: a hook receives copies of engine values and
//! cannot reach engine state, so a run is bit-identical with any probe
//! attached. One method asks instead of reports:
//! [`Probe::sees_every_event`] tells the engine whether the analytic
//! idle-skip, which runs a wake → serve chain without popping its
//! events, would hide anything from the probe.

use aw_cstates::CState;
use aw_telemetry::{Attribution, EventKind, RequestSpan, TelemetryRecorder};
use aw_types::{MilliWatts, Nanos};

use crate::core::CoreState;
use crate::idle::IdleInterval;
use crate::sim::RunOutput;
use crate::trace;

/// Declares the report hooks once: the [`Probe`] trait with a no-op
/// default for each, and the `Option` and pair forwarders. Hook
/// arguments are `Copy`, so a pair hands each half the same values.
/// The forwarders are `inline(always)` so that every hook site tests
/// each `Option` in place: a run without collectors then pays one
/// branch per hook, not a call.
macro_rules! probe_hooks {
    ($($(#[$doc:meta])* fn $hook:ident(&mut self $(, $arg:ident: $ty:ty)*);)*) => {
        /// An observer of the server engine (see the module docs).
        pub(crate) trait Probe: Sized {
            /// `true` if the probe must see every popped event, which
            /// rules out the idle-skip chain.
            fn sees_every_event(&self) -> bool {
                false
            }

            $($(#[$doc])* fn $hook(&mut self $(, $arg: $ty)*) {
                $(let _ = $arg;)*
            })*

            /// The run ended at `end`: moves what the probe collected
            /// into its fields of `out`.
            fn finish(self, end: Nanos, out: &mut RunOutput) {
                let _ = (end, out);
            }
        }

        impl<P: Probe> Probe for Option<P> {
            fn sees_every_event(&self) -> bool {
                self.as_ref().is_some_and(P::sees_every_event)
            }

            $(#[inline(always)]
            fn $hook(&mut self $(, $arg: $ty)*) {
                if let Some(p) = self {
                    p.$hook($($arg),*);
                }
            })*

            fn finish(self, end: Nanos, out: &mut RunOutput) {
                if let Some(p) = self {
                    p.finish(end, out);
                }
            }
        }

        impl<A: Probe, B: Probe> Probe for (A, B) {
            fn sees_every_event(&self) -> bool {
                self.0.sees_every_event() || self.1.sees_every_event()
            }

            $(#[inline(always)]
            fn $hook(&mut self $(, $arg: $ty)*) {
                self.0.$hook($($arg),*);
                self.1.$hook($($arg),*);
            })*

            fn finish(self, end: Nanos, out: &mut RunOutput) {
                self.0.finish(end, out);
                self.1.finish(end, out);
            }
        }
    };
}

probe_hooks! {
    /// The loop popped an event at `now`; `depth` counts it plus
    /// everything still pending. Idle-skip chain steps are not popped.
    fn event(&mut self, now: Nanos, depth: usize);
    /// `core` did something the trace shows as one event of `kind`: any
    /// kind [`TelemetryRecorder::record`] takes.
    fn trace(&mut self, core: usize, now: Nanos, kind: EventKind);
    /// The governor parks `core` in `chosen`, predicting `predicted` of
    /// idleness (its own estimate, else the oracle hint).
    fn park(&mut self, core: usize, now: Nanos, chosen: CState, predicted: Option<Nanos>);
    /// `core` moves from life-cycle state `from` to `to` at `now`.
    fn state_change(&mut self, core: usize, now: Nanos, from: CoreState, to: CoreState);
    /// `core` drew `power` over `[start, end)`: fired when its standing
    /// power switches, and once per core when the run ends.
    fn power(&mut self, core: usize, start: Nanos, end: Nanos, power: MilliWatts);
    /// A measured (post-warm-up, non-tick) request completed on `core`.
    fn request_done(&mut self, core: usize, span: RequestSpan);
    /// `core` finished an idle round trip in `chosen` that began at
    /// `start` (`target_residency` is `chosen`'s break-even).
    fn idle_done(
        &mut self,
        core: usize,
        start: Nanos,
        now: Nanos,
        chosen: CState,
        target_residency: Nanos
    );
}

/// The probe every [`crate::SimBuilder`] run composes: telemetry,
/// attribution and the idle-interval log, each present exactly when its
/// builder setting is.
pub(crate) type RunProbe = (Option<TelemetryRecorder>, (Option<AttributionProbe>, Option<IdleLog>));

impl Probe for TelemetryRecorder {
    /// `sim.events` and `sim.queue_depth` count popped events.
    fn sees_every_event(&self) -> bool {
        true
    }

    fn event(&mut self, now: Nanos, depth: usize) {
        self.sim_event(now, depth);
    }

    fn trace(&mut self, core: usize, now: Nanos, kind: EventKind) {
        self.record(core as u32, now, kind);
    }

    fn park(&mut self, core: usize, now: Nanos, chosen: CState, predicted: Option<Nanos>) {
        let predicted = predicted.unwrap_or(Nanos::ZERO);
        self.governor_decision(core as u32, now, trace::cstate_label(chosen), predicted);
    }

    fn state_change(&mut self, core: usize, now: Nanos, _from: CoreState, to: CoreState) {
        TelemetryRecorder::state_change(self, core as u32, now, trace::core_state_label(to));
    }

    fn idle_done(
        &mut self,
        core: usize,
        start: Nanos,
        now: Nanos,
        _chosen: CState,
        target_residency: Nanos,
    ) {
        self.idle_outcome(core as u32, now, now - start, target_residency);
    }

    fn finish(self, end: Nanos, out: &mut RunOutput) {
        let report = self.into_report(end);
        out.metrics.telemetry = Some(report.summary.clone());
        out.telemetry = Some(report);
    }
}

/// Latency attribution over the measured window: every measured request
/// becomes a [`RequestSpan`], and power and residency intervals feed the
/// timeline. Nothing before warm-up end is charged, matching the metric
/// reset.
#[derive(Debug)]
pub(crate) struct AttributionProbe {
    attrib: Attribution,
    /// Per core: the accounting-state label and when it was entered.
    marks: Vec<(&'static str, Nanos)>,
    /// Start of the measured window (warm-up end).
    measure_start: Nanos,
}

impl AttributionProbe {
    /// Attribution with `window`-sized timeline buckets for `cores`
    /// cores, measuring from `measure_start`, with room for
    /// `expected_spans` spans.
    ///
    /// # Panics
    ///
    /// Panics if `window` is not strictly positive.
    pub(crate) fn new(
        window: Nanos,
        cores: usize,
        measure_start: Nanos,
        expected_spans: usize,
    ) -> Self {
        AttributionProbe {
            attrib: Attribution::with_capacity(window, expected_spans),
            marks: vec![("C0", Nanos::ZERO); cores],
            measure_start,
        }
    }

    /// Charges `core`'s open residency mark up to `now`.
    fn close_mark(&mut self, core: usize, now: Nanos) {
        let (label, since) = self.marks[core];
        let start = since.max(self.measure_start);
        if now > start {
            self.attrib.record_residency(label, start, now);
        }
    }
}

impl Probe for AttributionProbe {
    fn state_change(&mut self, core: usize, now: Nanos, _from: CoreState, to: CoreState) {
        self.close_mark(core, now);
        self.marks[core] = (trace::cstate_label(to.accounting_state()), now);
    }

    fn power(&mut self, _core: usize, start: Nanos, end: Nanos, power: MilliWatts) {
        let start = start.max(self.measure_start);
        if end > start {
            self.attrib.record_power(start, end, power);
        }
    }

    fn request_done(&mut self, _core: usize, span: RequestSpan) {
        self.attrib.record_span(span);
    }

    fn finish(mut self, end: Nanos, out: &mut RunOutput) {
        for core in 0..self.marks.len() {
            self.close_mark(core, end);
        }
        let report = self.attrib.finish();
        out.metrics.attribution = Some(report.summary.clone());
        out.attribution = Some(report);
    }
}

/// Every completed idle round trip that began in the measured window, in
/// wake order, for `aw-sleep`.
#[derive(Debug)]
pub(crate) struct IdleLog {
    intervals: Vec<IdleInterval>,
    /// Per core: the prediction the governor acted on at its last park.
    predictions: Vec<Option<Nanos>>,
    /// Start of the measured window (warm-up end).
    measure_start: Nanos,
}

impl IdleLog {
    /// A log for `cores` cores with room for `expected` intervals.
    pub(crate) fn new(cores: usize, measure_start: Nanos, expected: usize) -> Self {
        IdleLog {
            intervals: Vec::with_capacity(expected),
            predictions: vec![None; cores],
            measure_start,
        }
    }
}

impl Probe for IdleLog {
    fn park(&mut self, core: usize, _now: Nanos, _chosen: CState, predicted: Option<Nanos>) {
        self.predictions[core] = predicted;
    }

    fn idle_done(
        &mut self,
        core: usize,
        start: Nanos,
        now: Nanos,
        chosen: CState,
        _target_residency: Nanos,
    ) {
        if start >= self.measure_start {
            let predicted = self.predictions[core];
            let interval = IdleInterval::new(core as u32, start, now - start, chosen, predicted);
            self.intervals.push(interval);
        }
    }

    fn finish(self, _end: Nanos, out: &mut RunOutput) {
        out.idle_intervals = Some(self.intervals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ServerSim;
    use crate::{ServerConfig, SimBuilder, WorkloadSpec};
    use aw_cstates::NamedConfig;

    /// One hook call, as the recording probe saw it.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Hook {
        Event,
        Trace(usize, Nanos, EventKind),
        Park(usize, Nanos, CState, Option<Nanos>),
        State(usize, Nanos, CoreState, CoreState),
        Power(usize, Nanos, Nanos, MilliWatts),
        Done(usize, RequestSpan),
        Idle(usize, Nanos, Nanos, CState, Nanos),
        Finish(Nanos),
    }

    /// Appends every hook call to a borrowed log.
    struct Recorder<'a>(&'a mut Vec<Hook>);

    impl Probe for Recorder<'_> {
        fn event(&mut self, _now: Nanos, _depth: usize) {
            self.0.push(Hook::Event);
        }
        fn trace(&mut self, core: usize, now: Nanos, kind: EventKind) {
            self.0.push(Hook::Trace(core, now, kind));
        }
        fn park(&mut self, core: usize, now: Nanos, chosen: CState, predicted: Option<Nanos>) {
            self.0.push(Hook::Park(core, now, chosen, predicted));
        }
        fn state_change(&mut self, core: usize, now: Nanos, from: CoreState, to: CoreState) {
            self.0.push(Hook::State(core, now, from, to));
        }
        fn power(&mut self, core: usize, start: Nanos, end: Nanos, power: MilliWatts) {
            self.0.push(Hook::Power(core, start, end, power));
        }
        fn request_done(&mut self, core: usize, span: RequestSpan) {
            self.0.push(Hook::Done(core, span));
        }
        fn idle_done(&mut self, core: usize, start: Nanos, now: Nanos, chosen: CState, t: Nanos) {
            self.0.push(Hook::Idle(core, start, now, chosen, t));
        }
        fn finish(self, end: Nanos, _out: &mut RunOutput) {
            self.0.push(Hook::Finish(end));
        }
    }

    const CORES: usize = 4;
    const WARMUP: Nanos = Nanos::new(5e6);

    /// A 4-core light-load AW run observed by the recorder.
    fn record(idle_skip: bool) -> (Vec<Hook>, RunOutput) {
        let config = ServerConfig::new(CORES, NamedConfig::Aw)
            .with_duration(Nanos::from_millis(40.0))
            .with_warmup(WARMUP);
        let workload = WorkloadSpec::poisson("probe", 20_000.0, Nanos::from_micros(3.0), 0.8);
        let mut hooks = Vec::new();
        let mut sim = ServerSim::new(config, workload, 7, Recorder(&mut hooks));
        sim.set_idle_skip(idle_skip);
        let out = sim.run_to_output(false);
        (hooks, out)
    }

    /// Per core, the `(state, start, end)` intervals the state-change
    /// hooks report, closed at the run's end. Each hook closes the
    /// interval its `from` state opened; a hook whose `from` is not the
    /// state the core was last reported entering means an interval went
    /// unreported (a gap) or was reported twice (an overlap).
    fn intervals(hooks: &[Hook]) -> Vec<Vec<(CoreState, Nanos, Nanos)>> {
        let mut open = [(CoreState::Active, Nanos::ZERO); CORES];
        let mut closed = vec![Vec::new(); CORES];
        for hook in hooks {
            match *hook {
                Hook::State(core, now, from, to) => {
                    let (state, since) = open[core];
                    assert_eq!(from, state, "core {core} at {now}: {from:?} was never entered");
                    assert!(now >= since, "core {core}: time ran backwards at {now}");
                    closed[core].push((state, since, now));
                    open[core] = (to, now);
                }
                Hook::Finish(end) => {
                    for (core, &(state, since)) in open.iter().enumerate() {
                        closed[core].push((state, since, end));
                    }
                }
                _ => {}
            }
        }
        closed
    }

    #[test]
    fn hooks_match_with_idle_skip_on_and_off_and_states_tile_the_run() {
        let (on, out_on) = record(true);
        let (off, out_off) = record(false);
        assert!(out_on.chained > 0, "the light load must exercise the idle-skip chain");
        assert_eq!(out_off.chained, 0);

        // Only the popped-event hook differs: chained steps are not
        // popped, and every engine event is either popped or chained.
        let popped = |hooks: &[Hook]| hooks.iter().filter(|h| **h == Hook::Event).count() as u64;
        assert_eq!(popped(&on) + out_on.chained, out_on.metrics.events);
        assert_eq!(popped(&off), out_off.metrics.events);
        assert_eq!(out_on.metrics.events, out_off.metrics.events);
        let reports = |hooks: Vec<Hook>| -> Vec<Hook> {
            hooks.into_iter().filter(|h| *h != Hook::Event).collect()
        };
        let (on, off) = (reports(on), reports(off));
        assert_eq!(on.len(), off.len(), "hook streams differ in length");
        for (i, (a, b)) in on.iter().zip(&off).enumerate() {
            assert_eq!(a, b, "hook {i} differs with idle-skip on vs off");
        }

        // Time conservation without the residency tracker: each core's
        // reported intervals tile [0, end] with no gap or overlap.
        let Some(&Hook::Finish(end)) = on.last() else { panic!("finish is the last hook") };
        let mut measured = std::collections::BTreeMap::<CState, f64>::new();
        for (core, tiles) in intervals(&on).iter().enumerate() {
            assert!(tiles.len() > 2, "core {core} never changed state");
            assert_eq!(tiles[0].1, Nanos::ZERO, "core {core} does not start at 0");
            assert_eq!(tiles.last().map(|t| t.2), Some(end), "core {core} does not end at {end}");
            for pair in tiles.windows(2) {
                assert_eq!(pair[0].2, pair[1].1, "core {core}: gap or overlap at {}", pair[0].2);
            }
            for &(state, start, stop) in tiles {
                let clipped = (stop - start.max(WARMUP)).max(Nanos::ZERO);
                *measured.entry(state.accounting_state()).or_default() += clipped.as_nanos();
            }
        }
        // The tiles reproduce the reported residency shares.
        let total = CORES as f64 * (end - WARMUP).as_nanos();
        for (state, ns) in measured {
            let share = out_on.metrics.residency_of(state).get();
            assert!((ns / total - share).abs() < 1e-9, "{state}: tiles {} vs {share}", ns / total);
        }
    }

    /// The idle log keeps exactly the round trips that begin at or after
    /// warm-up end: it equals the `idle_done` hook stream, stamped with
    /// each core's last `park` prediction, filtered by `start >= WARMUP`.
    #[test]
    fn idle_log_is_the_hook_stream_from_warmup_end() {
        let config = ServerConfig::new(CORES, NamedConfig::Aw)
            .with_duration(Nanos::from_millis(40.0))
            .with_warmup(WARMUP);
        let workload = WorkloadSpec::poisson("probe", 20_000.0, Nanos::from_micros(3.0), 0.8);
        let mut hooks = Vec::new();
        let probe = (Recorder(&mut hooks), Some(IdleLog::new(CORES, WARMUP, 0)));
        let out = ServerSim::new(config, workload, 7, probe).run_to_output(false);
        let logged = out.idle_intervals.expect("idle log attached");

        let mut predictions = [None; CORES];
        let mut every = Vec::new();
        for hook in &hooks {
            match *hook {
                Hook::Park(core, _, _, predicted) => predictions[core] = predicted,
                Hook::Idle(core, start, now, chosen, _) => every.push(IdleInterval::new(
                    core as u32,
                    start,
                    now - start,
                    chosen,
                    predictions[core],
                )),
                _ => {}
            }
        }
        assert!(every.iter().any(|iv| iv.start < WARMUP), "no round trip began in warm-up");
        assert!(logged.iter().all(|iv| iv.start >= WARMUP), "the log kept a warm-up round trip");
        every.retain(|iv| iv.start >= WARMUP);
        assert!(every.len() > 100, "expected a light-load run, got {} round trips", every.len());
        assert_eq!(logged, every);
    }

    /// Common random numbers: Baseline and AW at one seed see the same
    /// arrivals, bit for bit, and round-robin sends each to the same
    /// core — only what the idle states do to a request differs.
    ///
    /// Spans are emitted for requests that complete after the warmup.
    /// The compared requests are those arriving in `[warmup, end − 1 ms)`:
    /// an earlier one may finish on either side of the warmup, and a
    /// later one may still be in flight when the horizon cuts the run in
    /// one config but not the other. Under this light load every request
    /// finishes within tens of microseconds, so the horizon cuts off none
    /// of the compared ones in either config.
    #[test]
    fn baseline_and_aw_share_arrivals_and_cores_at_one_seed() {
        let run = |named| {
            let config = ServerConfig::new(CORES, named)
                .with_duration(Nanos::from_millis(40.0))
                .with_warmup(WARMUP);
            let workload = WorkloadSpec::poisson("crn", 20_000.0, Nanos::from_micros(3.0), 0.8);
            let mut hooks = Vec::new();
            ServerSim::new(config, workload, 7, Recorder(&mut hooks)).run_to_output(false);
            let Some(&Hook::Finish(end)) = hooks.last() else { panic!("finish is the last hook") };
            let horizon = end - Nanos::from_millis(1.0);
            let mut spans: Vec<(usize, RequestSpan)> = hooks
                .iter()
                .filter_map(|hook| match *hook {
                    Hook::Done(core, span) if span.arrival >= WARMUP && span.arrival < horizon => {
                        Some((core, span))
                    }
                    _ => None,
                })
                .collect();
            spans.sort_by(|a, b| a.1.arrival.as_nanos().total_cmp(&b.1.arrival.as_nanos()));
            spans
        };
        let base = run(NamedConfig::Baseline);
        let aw = run(NamedConfig::Aw);
        assert!(base.len() > 500, "expected a measured run, got {} requests", base.len());
        for (i, ((base_core, b), (aw_core, a))) in base.iter().zip(&aw).enumerate() {
            assert_eq!(
                b.arrival.as_nanos().to_bits(),
                a.arrival.as_nanos().to_bits(),
                "request {i}: arrival {} vs {}",
                b.arrival,
                a.arrival
            );
            assert_eq!(base_core, aw_core, "request {i} at {}: core differs", b.arrival);
        }
        assert_eq!(base.len(), aw.len(), "the configs measured different request counts");
        // The idle states do change what the requests see.
        assert!(
            base.iter().zip(&aw).any(|(b, a)| b.1.completion != a.1.completion),
            "Baseline and AW completed every request at the same instant"
        );
    }

    /// Every span the engine emits (each `request_done` the recorder
    /// sees) satisfies the sum-to-latency invariant, and each breakdown
    /// phase is its span phase summed in completion order from -0.0 and
    /// divided by the completions, bit for bit. The runs are the
    /// attributed runs of `tests/attribution.rs` (busy AW) and
    /// `sim::tests` (light Baseline); an attribution probe rides along,
    /// and its summary must equal the builder's, so these are the spans
    /// the builder's attribution reduced.
    #[test]
    fn every_emitted_span_sums_to_its_latency_and_folds_into_the_breakdown() {
        let runs = [
            (
                NamedConfig::Aw,
                WorkloadSpec::poisson("attr", 150_000.0, Nanos::from_micros(4.0), 0.8),
                11,
                2.0,
            ),
            (
                NamedConfig::Baseline,
                WorkloadSpec::poisson("test", 60_000.0, Nanos::from_micros(3.0), 0.8),
                21,
                10.0,
            ),
        ];
        for (named, workload, seed, window_ms) in runs {
            let config = ServerConfig::new(4, named).with_duration(Nanos::from_millis(80.0));
            let window = Nanos::from_millis(window_ms);
            let built = SimBuilder::new(config.clone(), workload.clone(), seed)
                .with_attribution(window)
                .run();
            let mut hooks = Vec::new();
            let attribution = AttributionProbe::new(window, config.cores, config.warmup, 0);
            let probe = (Recorder(&mut hooks), Some(attribution));
            let out = ServerSim::new(config, workload, seed, probe).run_to_output(false);
            let spans: Vec<RequestSpan> = hooks
                .iter()
                .filter_map(|hook| match hook {
                    Hook::Done(_, span) => Some(*span),
                    _ => None,
                })
                .collect();
            assert_eq!(out.metrics.attribution, built.metrics.attribution, "{named}");

            // One span per measured request.
            assert_eq!(spans.len() as u64, out.metrics.completed, "{named}");
            assert!(spans.len() > 1_000, "{named}: expected a busy run");
            for span in &spans {
                let sum = span.queue_wait + span.exit_penalty + span.snoop_stall + span.service;
                let measured = span.server_latency();
                assert!(
                    (sum.as_nanos() - measured.as_nanos()).abs() < 1e-6,
                    "{named}: phases {sum} != measured {measured} for {span:?}"
                );
            }
            let b = out.metrics.breakdown;
            let n = out.metrics.completed as f64;
            let mean = |phase: fn(&RequestSpan) -> Nanos| {
                spans.iter().fold(-0.0, |acc, span| acc + phase(span).as_nanos()) / n
            };
            assert_eq!(b.transition.as_nanos().to_bits(), mean(|s| s.exit_penalty).to_bits());
            assert_eq!(b.queue.as_nanos().to_bits(), mean(|s| s.queue_wait).to_bits());
            assert_eq!(b.service.as_nanos().to_bits(), mean(|s| s.service).to_bits());
            // The summary folds the same spans the same way.
            let m = out.metrics.attribution.expect("attribution probe attached").mean;
            assert_eq!(m.exit_penalty.as_nanos().to_bits(), b.transition.as_nanos().to_bits());
            assert_eq!(m.queue.as_nanos().to_bits(), b.queue.as_nanos().to_bits());
            assert_eq!(m.service.as_nanos().to_bits(), b.service.as_nanos().to_bits());
        }
    }
}
