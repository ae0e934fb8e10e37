//! The discrete-event server simulation loop.

use std::collections::BTreeMap;

use aw_cstates::{CState, CStateConfig, CircuitBreaker};
use aw_faults::{FailureArtifact, FaultPlan, InvariantChecker};
use aw_power::ResidencyVector;
use aw_sim::{EventQueue, SampleSet, SimRng};
use aw_telemetry::{AttributionReport, EventKind, RequestSpan, SloReport, TelemetryReport};
use aw_types::{Joules, MilliWatts, Nanos, Ratio};

use crate::config::{GovernorKind, ServerConfig};
use crate::core::{CoreState, QueuedRequest, SimCore};
use crate::idle::IdleInterval;
use crate::metrics::{DegradationStats, LatencyBreakdown, LatencyStats, RunMetrics};
use crate::probe::Probe;
use crate::trace;
use crate::uncore::{PackageCState, UncoreModel};
use crate::workload::WorkloadSpec;

/// Base backoff between retries of a stuck UFPG un-gate attempt; it
/// doubles per retry. The engine is the one model of a disrupted agile
/// wake: `aw-pma`'s flow FSM steps the fault-free exit only.
const WAKE_RETRY_BACKOFF: Nanos = Nanos::new(100.0);

/// Extra cache-wake time when the CCSM drowsy exit must repeat (two PMA
/// clocks at 500 MHz).
const DROWSY_REPEAT: Nanos = Nanos::new(4.0);

/// Service-time stretch from AW's UFPG power-gate IR drop: about 1%
/// frequency loss, felt in proportion to the workload's frequency
/// scalability (AW configurations only).
const AW_FREQUENCY_DEGRADATION: f64 = 0.01;

/// Hidden energy burned per idle-state round trip (wake in-rush, clock
/// restart, PLL stabilization) that residency counters cannot see. This
/// is what keeps the Sec. 6.3 analytical-model validation below 100%:
/// Eq. 2 prices residencies, not transitions.
const TRANSITION_ENERGY: Joules = Joules::new(10e-6);

/// Kernel work per OS timer tick (5 µs).
const TICK_WORK: Nanos = Nanos::new(5_000.0);

/// Extra power above C1/C1E while an idle core serves snoops in a legacy
/// shallow state (L1/L2 clock-ungated; Sec. 7.5).
pub const SNOOP_LEGACY_POWER: MilliWatts = MilliWatts::new(50.0);

/// Extra power above C6A/C6AE while an idle core serves snoops in an AW
/// state (data arrays out of sleep mode; Sec. 7.5).
pub const SNOOP_AW_POWER: MilliWatts = MilliWatts::new(120.0);

/// How long the cache domain stays active per snoop burst (1 µs).
const SNOOP_BURST: Nanos = Nanos::new(1_000.0);

/// Client submission attempts per shed or timed-out request (the first
/// try plus two retries).
const RETRY_ATTEMPTS: u32 = 3;

/// Client backoff before the first retry (50 µs); doubles per attempt,
/// with ±50% deterministic jitter drawn from the retry stream.
const RETRY_BACKOFF: Nanos = Nanos::new(50_000.0);

/// Consecutive agile-wake fallbacks before a core's circuit breaker
/// trips and its governor demotes C6A/C6AE to their legacy twins.
const BREAKER_THRESHOLD: u32 = 4;

/// How long a tripped breaker stays open before re-arming (1 ms).
const BREAKER_COOLDOWN: Nanos = Nanos::new(1e6);

/// Simulation events.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// The next open-loop request arrives.
    Arrival,
    /// A core finishes its in-flight request.
    ServiceDone { core: usize, gen: u64 },
    /// A core completes its idle-state entry transition.
    EntryDone { core: usize, gen: u64 },
    /// A core completes its wake transition and resumes execution.
    WakeDone { core: usize, gen: u64 },
    /// The per-core OS timer tick fires.
    TimerTick { core: usize },
    /// End of the warm-up period: metrics reset.
    WarmupEnd,
    /// Injected fault: a wake interrupt with no pending work.
    SpuriousWake { core: usize },
    /// Redelivery of a wake interrupt that an injected fault swallowed.
    WakeRedelivery { core: usize },
    /// Injected fault: a burst of coherence snoops hits a core.
    SnoopStorm { core: usize },
    /// Injected fault: a machine-wide service-time slowdown burst begins.
    SlowdownStart,
    /// A shed or timed-out request is resubmitted by the client after
    /// jittered backoff.
    Retry { service: Nanos, attempt: u32 },
}

/// The server simulator: drives a [`WorkloadSpec`] through a
/// [`ServerConfig`] and produces [`RunMetrics`], reporting to one
/// [`Probe`] along the way. Runs are built by [`crate::SimBuilder`].
pub(crate) struct ServerSim<P: Probe> {
    config: ServerConfig,
    workload: WorkloadSpec,
    rng: SimRng,
    queue: EventQueue<Event>,
    cores: Vec<SimCore>,
    rr_next: usize,
    /// Measured sojourn times in completion order: the run's one latency
    /// reservoir, whose length is the measured completion count.
    latencies: SampleSet,
    /// Running sums of the measured transition, queue and service phases,
    /// added in completion order from `-0.0`, the neutral element
    /// `<f64 as Sum>` folds from: their means have a reservoir mean's bits.
    phase_sums: [f64; 3],
    warmed_up: bool,
    next_arrival: Nanos,
    end: Nanos,
    uncore: UncoreModel,
    /// The run's one observer (see [`crate::probe`]).
    probe: P,
    /// The seed the simulator was built with, kept for replay artifacts.
    seed: u64,
    /// `Some` when fault injection is enabled (see
    /// [`crate::SimBuilder::with_faults`]). Every draw comes from the
    /// plan's own seeded streams, so the workload sample path is never
    /// perturbed.
    faults: Option<FaultPlan>,
    /// Dedicated stream for client retry-backoff jitter: drawn only when
    /// a request is actually shed or timed out, so overload-free runs
    /// never touch it (common random numbers).
    retry_rng: SimRng,
    /// Per-core circuit breakers demoting agile states after repeated
    /// wake failures.
    breakers: Vec<CircuitBreaker>,
    /// The enabled C-state set with agile states demoted to their legacy
    /// twins, used while a core's breaker is open.
    demoted_cstates: CStateConfig,
    /// Fault, shedding, retry, and breaker counters for the whole run.
    degradation: DegradationStats,
    /// Runtime invariant checker; violations become a
    /// [`FailureArtifact`] in the run output instead of a panic.
    invariants: InvariantChecker,
    /// End of the current injected slowdown burst (`ZERO` when none).
    slowdown_until: Nanos,
    /// Non-tick admission attempts over the whole run (arrivals plus
    /// client retries), for the request-conservation invariant.
    arrivals_total: u64,
    /// Non-tick completions over the whole run (warm-up included), for
    /// the request-conservation invariant.
    completed_all: u64,
    /// `false` disables the analytic idle-skip fast path (the
    /// `--no-idle-skip` debug flag): every event then flows through the
    /// event queue exactly as in the classic stepped engine. The two
    /// modes are byte-identical by construction (DESIGN §15); the flag
    /// exists so the equivalence stays checkable end-to-end.
    idle_skip: bool,
    /// The core whose wake → serve → re-park chain is currently being
    /// run inline (analytic idle-skip): that core's chain deadlines
    /// divert to `chain_next` instead of the event queue.
    chain_core: Option<usize>,
    /// The next inline-chain event, consumed by the driver loop in
    /// [`ServerSim::run_chain`]. At most one chain deadline is ever
    /// outstanding, so a single slot replaces the queue.
    chain_next: Option<(Nanos, Event)>,
    /// Upper bound on the service-time stretch factor (AW frequency
    /// degradation; Turbo only *shortens* service), precomputed for the
    /// idle-skip eligibility test.
    max_time_factor: f64,
    /// Logical simulation events processed — popped from the queue or
    /// run inline by the idle-skip chain. The numerator of the
    /// events-per-second throughput metric; identical with idle-skip on
    /// or off.
    events: u64,
    /// Events run inline by the idle-skip chain (subset of `events`).
    chained: u64,
    /// Cores currently parked in some C-state, maintained incrementally
    /// at each life-cycle transition so the package-state update avoids
    /// an O(cores) rescan on every event.
    idle_cores: usize,
    /// Subset of `idle_cores` parked specifically in core C6.
    c6_cores: usize,
}

/// Everything a fully instrumented run produces: the metrics plus the
/// optional telemetry, attribution, and SLO reports.
///
/// Produced by [`crate::SimBuilder::run`]; each optional field is `Some`
/// exactly when the matching builder knob was set.
#[derive(Debug)]
pub struct RunOutput {
    /// The run's aggregate metrics. `metrics.telemetry` and
    /// `metrics.attribution` carry the respective summaries when the
    /// matching instrumentation was enabled.
    pub metrics: RunMetrics,
    /// Full telemetry report ([`crate::SimBuilder::with_telemetry`] runs
    /// only).
    pub telemetry: Option<TelemetryReport>,
    /// Full attribution report — summary and timeline
    /// ([`crate::SimBuilder::with_attribution`] runs only).
    pub attribution: Option<AttributionReport>,
    /// SLO verdict over the attribution timeline
    /// ([`crate::SimBuilder::with_slo`] runs only).
    pub slo: Option<SloReport>,
    /// Raw measured latencies in ns, completion order
    /// ([`crate::SimBuilder::with_latency_samples`] runs only). Lets an
    /// aggregator merge samples across runs for exact fleet quantiles.
    pub latency_samples: Option<Vec<f64>>,
    /// Every completed idle round trip that began at or after warm-up
    /// end, in wake order ([`crate::SimBuilder::with_idle_analysis`] runs
    /// only). Feed to `aw-sleep` for idle-period distributions, the
    /// governor audit, and the opportunity ledger.
    pub idle_intervals: Option<Vec<IdleInterval>>,
    /// `Some` when a runtime invariant was violated: the structured
    /// artifact carries the seed and fault plan needed to replay the
    /// failing run. [`crate::SimBuilder::run`] hands it back for
    /// harnesses to inspect; [`RunOutput::into_metrics`] panics on it.
    pub failure: Option<FailureArtifact>,
    /// Events the analytic idle-skip chain ran inline instead of
    /// through the event queue — a subset of `metrics.events`, always
    /// zero with idle-skip off. `chained / events` is the skip hit
    /// rate. Deliberately an engine diagnostic *outside*
    /// [`RunMetrics`]: instrumented runs (fault plans, telemetry)
    /// disable the fast path, and their metrics must stay bit-identical
    /// to plain runs.
    pub chained: u64,
}

impl RunOutput {
    /// Unwraps the metrics, panicking if the run violated a runtime
    /// invariant — for callers that treat any invariant violation as a
    /// bug.
    ///
    /// # Panics
    ///
    /// Panics with the replayable [`FailureArtifact`] message if
    /// [`RunOutput::failure`] is `Some`.
    #[must_use]
    pub fn into_metrics(self) -> RunMetrics {
        if let Some(failure) = &self.failure {
            panic!("{failure}");
        }
        self.metrics
    }
}

/// Expected measured completions of `workload` on `config`, used to
/// pre-size the latency reservoir: offered load times measured duration,
/// bounded so a pathological parameterization cannot demand an absurd
/// allocation.
pub(crate) fn expected_samples(config: &ServerConfig, workload: &WorkloadSpec) -> usize {
    let expected = workload.offered_qps() * config.duration.as_secs();
    if expected.is_finite() && expected > 0.0 {
        (expected.ceil() as usize).min(1 << 22)
    } else {
        0
    }
}

impl<P: Probe> ServerSim<P> {
    /// Builds a simulator for one run, observed by `probe`.
    pub(crate) fn new(config: ServerConfig, workload: WorkloadSpec, seed: u64, probe: P) -> Self {
        let mut rng = SimRng::seed(seed);
        let cores: Vec<SimCore> =
            (0..config.cores).map(|id| SimCore::new(id, config.governor.build())).collect();
        let _ = rng.fork(0); // decorrelate from the seed's first draw
        let end = config.warmup + config.duration;
        let uncore = UncoreModel::for_hw(config.hw, config.cores, Nanos::ZERO);
        let retry_rng = SimRng::seed(seed ^ 0x5245_5452_595F_5247); // "RETRY_RG"
        let breakers = (0..config.cores)
            .map(|_| CircuitBreaker::new(BREAKER_THRESHOLD, BREAKER_COOLDOWN))
            .collect();
        let demoted_cstates = config.cstates.demote_agile();
        // Pending-event envelope, sized like the latency reservoir from
        // the offered load rather than from the core count alone: one
        // service/entry/wake deadline per core, per-core timer ticks, a
        // handful of global timers (arrival, warmup, fault clocks) —
        // plus, when overload protection can shed or expire work, up to
        // one in-flight retry event per request arriving inside the
        // longest jittered backoff window (offered QPS × horizon × one
        // event each, capped so a pathological parameterization cannot
        // demand an absurd allocation).
        let mut queue_cap = config.cores * 4 + 16;
        if config.queue_cap.is_some() || config.request_timeout.is_some() {
            let exp = f64::from(1u32 << (RETRY_ATTEMPTS - 1));
            let horizon = RETRY_BACKOFF * (exp * 1.5);
            let retries = workload.offered_qps() * horizon.as_secs();
            if retries.is_finite() && retries > 0.0 {
                queue_cap += (retries.ceil() as usize).min(1 << 14);
            }
        }
        let s = workload.frequency_scalability();
        let max_time_factor = if config.is_aw() { 1.0 + s * AW_FREQUENCY_DEGRADATION } else { 1.0 };
        ServerSim {
            config,
            workload,
            rng,
            queue: EventQueue::with_capacity(queue_cap),
            cores,
            rr_next: 0,
            latencies: SampleSet::new(),
            phase_sums: [-0.0; 3],
            warmed_up: false,
            next_arrival: Nanos::ZERO,
            end,
            uncore,
            probe,
            seed,
            faults: None,
            retry_rng,
            breakers,
            demoted_cstates,
            degradation: DegradationStats::default(),
            invariants: InvariantChecker::new(),
            slowdown_until: Nanos::ZERO,
            arrivals_total: 0,
            completed_all: 0,
            idle_skip: true,
            chain_core: None,
            chain_next: None,
            max_time_factor,
            events: 0,
            chained: 0,
            idle_cores: 0,
            c6_cores: 0,
        }
    }

    /// Enables or disables the analytic idle-skip fast path (used by
    /// [`crate::SimBuilder::without_idle_skip`]). Both settings produce
    /// byte-identical output; `false` forces every event through the
    /// queue for equivalence checking and debugging.
    pub(crate) fn set_idle_skip(&mut self, on: bool) {
        self.idle_skip = on;
    }

    /// Attaches a fault-injection plan (used by
    /// [`crate::SimBuilder::with_faults`]). Every hook draw comes from
    /// the plan's own seeded streams, so a plan whose rates are all zero
    /// (e.g. [`FaultPlan::none`]) leaves the run bit-identical to one
    /// with no plan attached, and the same seed + plan always reproduces
    /// the same disrupted run.
    pub(crate) fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Advances core `id`'s meters to `now`, reporting the elapsed
    /// constant-power interval to the probe, then switches the standing
    /// power.
    fn switch_core_power(&mut self, id: usize, now: Nanos, power: MilliWatts) {
        let core = &self.cores[id];
        self.probe.power(id, core.meter.now(), now, core.current_power);
        self.cores[id].switch_power(now, power);
    }

    /// Moves core `id` to a new life-cycle state, checking the transition
    /// against the legal life-cycle arcs and reporting it to the probe.
    fn set_core_state(&mut self, id: usize, now: Nanos, state: CoreState) {
        let from = self.cores[id].state;
        let legal = match (from, state) {
            (CoreState::Active, CoreState::Entering { .. })
            | (CoreState::Idle { .. }, CoreState::Waking { .. })
            | (CoreState::Waking { .. }, CoreState::Active) => true,
            (CoreState::Entering { target }, CoreState::Idle { state: entered }) => {
                target == entered
            }
            _ => false,
        };
        self.invariants.check(legal, || {
            format!("core {id}: illegal life-cycle transition {from:?} -> {state:?} at {now}")
        });
        self.probe.state_change(id, now, from, state);
        if let CoreState::Idle { state: parked } = from {
            self.idle_cores -= 1;
            if parked == CState::C6 {
                self.c6_cores -= 1;
            }
        }
        if let CoreState::Idle { state: parked } = state {
            self.idle_cores += 1;
            if parked == CState::C6 {
                self.c6_cores += 1;
            }
        }
        self.cores[id].set_state(now, state);
    }

    /// Re-derives the package state from core occupancy after any core
    /// state change. The occupancy counts are maintained incrementally in
    /// [`Self::set_core_state`].
    fn update_uncore(&mut self, now: Nanos) {
        debug_assert_eq!(
            (self.idle_cores, self.c6_cores),
            self.cores.iter().fold((0, 0), |(idle, c6), core| match core.state {
                CoreState::Idle { state } => {
                    (idle + 1, c6 + usize::from(state == CState::C6))
                }
                _ => (idle, c6),
            }),
            "incremental idle/C6 counts diverged from core occupancy"
        );
        // On core-complex parts, count CCXes whose cores are all in
        // legacy C6: only those may sleep their L3 slice. Guarded so
        // the per-core scan never runs on models without a CCX
        // topology (skylake-sp) or when too few cores are in C6 for
        // any complex to be fully asleep.
        let asleep_ccx = match self.config.hw.ccx {
            Some(ccx) if self.c6_cores >= ccx.cores_per_ccx => self
                .cores
                .chunks(ccx.cores_per_ccx)
                .filter(|grp| {
                    grp.len() == ccx.cores_per_ccx
                        && grp
                            .iter()
                            .all(|c| matches!(c.state, CoreState::Idle { state: CState::C6 }))
                })
                .count(),
            _ => 0,
        };
        self.uncore.update_ccx(self.idle_cores, self.c6_cores, asleep_ccx, now);
    }

    /// The active-state (C0) power at base frequency.
    fn active_power(&self) -> MilliWatts {
        self.config.catalog.power(CState::C0, aw_cstates::FreqLevel::P1)
    }

    /// The power burned while transitioning to/from `idle_state`: the
    /// voltage and clock ramp down early in entry and back up late in
    /// exit, so the average over a transition is modeled as the midpoint
    /// of the two endpoint powers.
    fn transition_power(&self, idle_state: CState) -> MilliWatts {
        let idle = self.config.catalog.power(idle_state, aw_cstates::FreqLevel::P1);
        (self.active_power() + idle) / 2.0
    }

    /// The single execution path behind [`crate::SimBuilder::run`]:
    /// drives the event loop to completion and assembles the
    /// [`RunOutput`], copying the measured latencies into
    /// `latency_samples` when `latency_samples` is set.
    pub(crate) fn run_to_output(mut self, latency_samples: bool) -> RunOutput {
        // Every core starts active with nothing to do: send each to idle
        // immediately so the fleet begins in a realistic parked state.
        for id in 0..self.cores.len() {
            self.cores[id].current_power = self.active_power();
            self.begin_idle(id, Nanos::ZERO);
        }

        let gap = self.workload.next_gap(&mut self.rng);
        self.next_arrival = gap;
        self.queue.schedule(gap, Event::Arrival);
        self.queue.schedule(self.config.warmup, Event::WarmupEnd);
        if let Some(period) = self.config.timer_tick {
            // Stagger ticks across cores so they don't fire in lockstep.
            for id in 0..self.cores.len() {
                let phase = period * (id as f64 / self.cores.len() as f64);
                self.queue.schedule(phase, Event::TimerTick { core: id });
            }
        }
        if self.faults.is_some() {
            for id in 0..self.cores.len() {
                self.schedule_spurious(id, Nanos::ZERO);
                self.schedule_storm(id, Nanos::ZERO);
            }
            self.schedule_slowdown(Nanos::ZERO);
        }

        while let Some((now, event)) = self.queue.pop() {
            if now > self.end {
                break;
            }
            self.events += 1;
            self.probe.event(now, self.queue.len() + 1);
            match event {
                Event::Arrival => self.on_arrival(now),
                Event::ServiceDone { core, gen } => self.on_service_done(core, gen, now),
                Event::EntryDone { core, gen } => self.on_entry_done(core, gen, now),
                Event::WakeDone { core, gen } => self.on_wake_done(core, gen, now),
                Event::TimerTick { core } => self.on_timer_tick(core, now),
                Event::WarmupEnd => self.on_warmup_end(now),
                Event::SpuriousWake { core } => self.on_spurious_wake(core, now),
                Event::WakeRedelivery { core } => self.on_wake_redelivery(core, now),
                Event::SnoopStorm { core } => self.on_snoop_storm(core, now),
                Event::SlowdownStart => self.on_slowdown_start(now),
                Event::Retry { service, attempt } => self.on_retry(now, service, attempt),
            }
        }

        // Every core's standing power interval runs to the end of the
        // run; `finalize` advances the meters over it.
        let end = self.end;
        for (id, core) in self.cores.iter().enumerate() {
            self.probe.power(id, core.meter.now(), end, core.current_power);
        }
        // Completion order: the percentile selection reorders the
        // reservoir.
        let latency_samples = latency_samples.then(|| self.latencies.values().to_vec());
        let metrics = self.finalize();
        let fault_spec =
            self.faults.as_ref().map_or_else(|| "none".to_string(), |f| f.spec().to_string());
        let failure = FailureArtifact::from_checker(
            std::mem::take(&mut self.invariants),
            self.seed,
            fault_spec,
        );
        let mut out = RunOutput {
            metrics,
            telemetry: None,
            attribution: None,
            slo: None,
            latency_samples,
            idle_intervals: None,
            failure,
            chained: self.chained,
        };
        self.probe.finish(end, &mut out);
        out
    }

    /// The core that takes the next request: round-robin, modelling
    /// evenly pinned connections.
    fn dispatch(&mut self) -> usize {
        let id = self.rr_next;
        self.rr_next = (self.rr_next + 1) % self.cores.len();
        id
    }

    fn on_arrival(&mut self, now: Nanos) {
        let service = self.workload.next_service(&mut self.rng);
        let id = self.dispatch();
        // The next arrival is drawn and scheduled *before* the admit so
        // the queue's earliest pending time covers it — the idle-skip
        // eligibility test needs the full horizon in one peek. The RNG
        // draw order (service, gap) is unchanged, and no governor
        // consults `next_arrival` inside `admit`, so the reordering is
        // invisible to the sample path.
        let gap = self.workload.next_gap(&mut self.rng);
        self.next_arrival = now + gap;
        self.queue.schedule(self.next_arrival, Event::Arrival);
        self.admit(id, now, service, 1);
    }

    /// Admits a client request (a fresh arrival or a retry) to core
    /// `id`'s run queue, shedding it when the bounded queue is full.
    /// Kernel timer ticks bypass this path — overload protection never
    /// drops OS housekeeping work.
    fn admit(&mut self, id: usize, now: Nanos, service: Nanos, attempt: u32) {
        self.arrivals_total += 1;
        if let Some(cap) = self.config.queue_cap {
            if self.cores[id].queue.len() >= cap {
                self.degradation.shed += 1;
                self.probe.trace(id, now, EventKind::RequestShed { depth: cap as u32 });
                self.schedule_retry(now, service, attempt);
                return;
            }
        }
        self.cores[id].queue.push_back(QueuedRequest {
            arrival: now,
            service,
            wake_penalty: Nanos::ZERO,
            wake_state: None,
            is_tick: false,
            attempt,
        });
        let depth = self.cores[id].queue.len() as u32;
        self.probe.trace(id, now, EventKind::QueueEnqueue { depth });

        if let CoreState::Idle { state } = self.cores[id].state {
            if let Some(delay) = self.faults.as_mut().and_then(|f| f.lost_wake()) {
                // The wake interrupt is swallowed: the core stays parked
                // until the redelivery fires (or other work wakes it).
                self.note_fault(id, now, "lost-wake");
                self.queue.schedule(now + delay, Event::WakeRedelivery { core: id });
            } else if self.chain_eligible(id, state, now, service) {
                // Analytic idle-skip: the whole wake → serve → re-park
                // chain provably finishes before anything else fires,
                // so run it inline instead of through the queue.
                self.run_chain(id, state, now);
            } else {
                // This request personally pays the (possibly disrupted)
                // exit latency.
                let exit = self.begin_wake(id, state, now, "arrival");
                if let Some(req) = self.cores[id].queue.back_mut() {
                    req.wake_penalty = exit;
                    req.wake_state = Some(state);
                }
            }
        }
        // Active, Waking: the queue drains naturally.
        // Entering: EntryDone will notice the pending work and wake.
    }

    /// Decides whether the freshly admitted request on idle core `id`
    /// can be served as an inline chain: the wake → serve sequence must
    /// provably finish *strictly* before any other pending event fires
    /// and at or before the run's end (DESIGN §15). The bound uses the
    /// un-disrupted exit latency (fault injection disables the skip
    /// entirely) and the largest possible service stretch; Turbo only
    /// shortens service, so the bound is conservative. The strictness
    /// matters: on an exact tie the stepped engine would pop the
    /// earlier-scheduled event first, so ties fall back to stepping. A
    /// probe that must see every popped event also rules the chain out.
    fn chain_eligible(&self, id: usize, state: CState, now: Nanos, service: Nanos) -> bool {
        if !self.idle_skip
            || self.faults.is_some()
            || self.probe.sees_every_event()
            || self.cores[id].queue.len() != 1
        {
            return false;
        }
        let exit = self.config.catalog.params(state).exit_latency;
        // A timeout shorter than the exit latency would drop the
        // request at dispatch and schedule a retry mid-chain.
        if self.config.request_timeout.is_some_and(|t| exit > t) {
            return false;
        }
        let chain_end = now + exit + service * self.max_time_factor;
        chain_end <= self.end && self.queue.peek_time().is_some_and(|next| chain_end < next)
    }

    /// Runs the admitted request's wake → serve steps inline: the same
    /// handlers the stepped engine would run, at the same timestamps, in
    /// the same order — only the queue traffic (two schedule/pop round
    /// trips per request) disappears. Mutations are identical by
    /// construction, which is what keeps idle-skip on/off byte-identical.
    ///
    /// The chain deliberately ends at `ServiceDone`: the re-park
    /// `EntryDone` deadline that `on_service_done` produces goes through
    /// the queue like any other event (the chain marker is cleared
    /// first), so the eligibility horizon never has to bound the entry
    /// latency of whatever C-state the governor picks next.
    fn run_chain(&mut self, id: usize, state: CState, now: Nanos) {
        self.chain_core = Some(id);
        let exit = self.begin_wake(id, state, now, "arrival");
        if let Some(req) = self.cores[id].queue.back_mut() {
            req.wake_penalty = exit;
            req.wake_state = Some(state);
        }
        let Some((wake_at, wake_ev)) = self.chain_next.take() else {
            self.chain_core = None;
            return;
        };
        self.events += 1;
        self.chained += 1;
        let Event::WakeDone { core, gen } = wake_ev else {
            unreachable!("begin_wake schedules WakeDone");
        };
        self.on_wake_done(core, gen, wake_at);
        let Some((serve_at, serve_ev)) = self.chain_next.take() else {
            self.chain_core = None;
            return;
        };
        self.events += 1;
        self.chained += 1;
        let Event::ServiceDone { core, gen } = serve_ev else {
            unreachable!("start_service schedules ServiceDone");
        };
        // Last inline step: clear the marker so the re-park EntryDone
        // (and anything else on_service_done schedules) takes the queue.
        self.chain_core = None;
        self.on_service_done(core, gen, serve_at);
    }

    /// Routes a core's wake/serve/park deadline into the event queue
    /// (stepped mode) or into the inline-chain slot while `id`'s chain
    /// is being run analytically.
    fn schedule_core_event(&mut self, id: usize, at: Nanos, event: Event) {
        if self.chain_core == Some(id) {
            self.chain_next = Some((at, event));
        } else {
            self.queue.schedule(at, event);
        }
    }

    /// Starts core `id`'s wake transition and returns the exit latency it
    /// will actually take, including any injected wake disruption.
    fn begin_wake(&mut self, id: usize, from: CState, now: Nanos, reason: &'static str) -> Nanos {
        let mut exit = self.config.catalog.params(from).exit_latency;
        if self.faults.is_some() && matches!(from, CState::C6A | CState::C6AE) {
            exit += self.agile_wake_disruption(id, from, now);
        }
        // The voltage/clock ramp means a transition burns roughly the
        // midpoint of the two endpoint powers, not full C0 power.
        let ramp = self.transition_power(from);
        self.probe.trace(id, now, EventKind::WakeInterrupt { reason });
        self.switch_core_power(id, now, ramp);
        self.set_core_state(id, now, CoreState::Waking { from });
        let gen = self.cores[id].generation;
        self.schedule_core_event(id, now + exit, Event::WakeDone { core: id, gen });
        self.update_uncore(now);
        exit
    }

    /// Consults the fault hook for one agile (C6A/C6AE) wake and returns
    /// the extra exit latency from stuck-gate retries, the full-C6
    /// fallback, ADPLL relock overruns, and drowsy-wake repeats. Feeds
    /// the core's circuit breaker: a fallback counts as a failure, a
    /// clean agile exit as a success.
    fn agile_wake_disruption(&mut self, id: usize, from: CState, now: Nanos) -> Nanos {
        let (d, relock_extra) = match self.faults.as_mut() {
            Some(f) => (f.wake_disruption(), f.spec().relock_extra),
            None => return Nanos::ZERO,
        };
        let mut extra = Nanos::ZERO;
        if d.stuck_attempts > 0 {
            self.note_fault(id, now, "wake-fail");
            // Each stuck attempt re-runs the hardware wake plus an
            // exponentially growing retry backoff.
            let hw = self.config.catalog.params(from).hw_exit_latency();
            for i in 0..d.stuck_attempts {
                extra += hw + WAKE_RETRY_BACKOFF * f64::from(1u32 << i.min(8));
            }
        }
        if d.fell_back {
            // Retries exhausted: degrade gracefully to the full C6 exit.
            self.degradation.fallback_exits += 1;
            extra += self.config.catalog.params(CState::C6).exit_latency;
            if self.breakers[id].record_failure(now) {
                self.degradation.breaker_trips += 1;
                self.probe.trace(id, now, EventKind::BreakerTrip);
            }
        } else {
            self.breakers[id].record_success();
        }
        if d.relock_overrun {
            self.note_fault(id, now, "relock");
            extra += relock_extra;
        }
        if d.drowsy_retry {
            self.note_fault(id, now, "drowsy");
            extra += DROWSY_REPEAT;
        }
        extra
    }

    /// Records one injected-fault occurrence: bumps the degradation
    /// counter and reports it to the probe.
    fn note_fault(&mut self, id: usize, now: Nanos, kind: &'static str) {
        self.degradation.faults_injected += 1;
        self.probe.trace(id, now, EventKind::FaultInjected { kind });
    }

    fn begin_idle(&mut self, id: usize, now: Nanos) {
        let hint = match self.config.governor {
            GovernorKind::Oracle => Some((self.next_arrival - now).clamp_non_negative()),
            _ => None,
        };
        // While a core's breaker is open (too many consecutive agile wake
        // failures), the governor selects from the demoted set: agile
        // states fall back to their legacy twins until the cooldown
        // elapses.
        let restores_before = self.breakers[id].restores();
        let breaker_open = self.breakers[id].is_open(now);
        if self.breakers[id].restores() > restores_before {
            self.degradation.breaker_restores += 1;
            self.probe.trace(id, now, EventKind::BreakerRestore);
        }
        let cstates = if breaker_open {
            self.degradation.demoted_selections += 1;
            &self.demoted_cstates
        } else {
            &self.config.cstates
        };
        let target = self.cores[id].governor.select(cstates, &self.config.catalog, hint);
        // Predictive governors report their own estimate; for hinted
        // (oracle) governors the hint *is* the prediction.
        let predicted = self.cores[id].governor.last_prediction().or(hint);
        self.probe.park(id, now, target, predicted);
        let entry = self.config.catalog.params(target).entry_latency;
        let ramp = self.transition_power(target);
        self.cores[id].idle_since = now;
        // Entry burns the ramp power until the idle level is reached.
        self.switch_core_power(id, now, ramp);
        self.set_core_state(id, now, CoreState::Entering { target });
        let gen = self.cores[id].generation;
        self.schedule_core_event(id, now + entry, Event::EntryDone { core: id, gen });
        self.update_uncore(now);
    }

    fn on_entry_done(&mut self, id: usize, gen: u64, now: Nanos) {
        if self.cores[id].generation != gen {
            return;
        }
        let CoreState::Entering { target } = self.cores[id].state else {
            return;
        };
        let idle_power = self.config.catalog.power(target, aw_cstates::FreqLevel::P1);
        self.switch_core_power(id, now, idle_power);
        self.set_core_state(id, now, CoreState::Idle { state: target });
        self.cores[id].record_entry(target);

        if self.cores[id].queue.is_empty() {
            self.update_uncore(now);
        } else {
            // Work arrived while the entry transition was in flight; the
            // head request pays this state's (possibly disrupted) exit
            // latency.
            let exit = self.begin_wake(id, target, now, "queued-work");
            if let Some(req) = self.cores[id].queue.front_mut() {
                req.wake_penalty = exit;
                req.wake_state = Some(target);
            }
        }
    }

    fn on_wake_done(&mut self, id: usize, gen: u64, now: Nanos) {
        if self.cores[id].generation != gen {
            return;
        }
        let CoreState::Waking { from } = self.cores[id].state else {
            return;
        };
        let start = self.cores[id].idle_since;
        let target = self.config.catalog.params(from).target_residency;
        self.probe.idle_done(id, start, now, from, target);
        self.cores[id].governor.observe_idle(now - start);
        // One idle round trip completed: charge the hidden transition
        // energy (in-rush current, clock restart) that residency-based
        // models cannot attribute.
        self.cores[id].transition_energy += TRANSITION_ENERGY;
        self.set_core_state(id, now, CoreState::Active);
        self.start_service(id, now);
    }

    fn start_service(&mut self, id: usize, now: Nanos) {
        let Some(req) = self.cores[id].queue.pop_front() else {
            // Nothing left to do: park the core again.
            self.begin_idle(id, now);
            return;
        };
        let depth = self.cores[id].queue.len() as u32;
        self.probe.trace(id, now, EventKind::QueueDequeue { depth });
        if let Some(timeout) = self.config.request_timeout {
            if !req.is_tick {
                let waited = now - req.arrival;
                if waited > timeout {
                    // The client gave up on this request; dropping it at
                    // dispatch sheds the now-useless service time, and
                    // the client retries after backoff.
                    self.degradation.timeouts += 1;
                    self.probe.trace(id, now, EventKind::RequestTimeout { waited });
                    self.schedule_retry(now, req.service, req.attempt);
                    self.start_service(id, now);
                    return;
                }
            }
        }

        let turbo = self.config.cstates.turbo() && self.cores[id].thermal.turbo_available();
        if turbo && !self.cores[id].serving_at_turbo {
            self.probe.trace(id, now, EventKind::TurboEngage);
        }
        let s = self.workload.frequency_scalability();
        let mut time_factor = if turbo {
            let speedup = self.config.hw.base_freq / self.config.hw.turbo_freq;
            1.0 - s + s * speedup
        } else {
            1.0
        };
        if self.config.is_aw() {
            // The UFPG power gates cost ~1% frequency, felt in proportion
            // to the workload's frequency scalability.
            time_factor *= 1.0 + s * AW_FREQUENCY_DEGRADATION;
        }
        if now < self.slowdown_until {
            if let Some(f) = self.faults.as_ref() {
                time_factor *= f.spec().slowdown_factor;
            }
        }
        let effective = req.service * time_factor;

        let power = if turbo { self.cores[id].thermal.turbo_power() } else { self.active_power() };
        self.switch_core_power(id, now, power);
        let core = &mut self.cores[id];
        core.serving_at_turbo = turbo;
        core.in_flight = Some(req);
        core.serve_start = now;
        let gen = core.generation;
        self.schedule_core_event(id, now + effective, Event::ServiceDone { core: id, gen });
    }

    fn on_service_done(&mut self, id: usize, gen: u64, now: Nanos) {
        if self.cores[id].generation != gen {
            return;
        }
        let core = &mut self.cores[id];
        let Some(req) = core.in_flight.take() else {
            return;
        };
        let busy = now - core.serve_start;
        core.total_busy += busy;
        if core.serving_at_turbo {
            core.turbo_busy += busy;
        }
        if !req.is_tick {
            self.completed_all += 1;
        }
        if self.warmed_up && !req.is_tick {
            let sojourn = now - req.arrival;
            self.latencies.record(sojourn.as_nanos());
            let service = now - core.serve_start;
            let transition = req.wake_penalty.min(sojourn - service);
            let queue = (sojourn - service - transition).clamp_non_negative();
            for (sum, phase) in self.phase_sums.iter_mut().zip([transition, queue, service]) {
                *sum += phase.as_nanos();
            }
            // By construction queue + transition + service == sojourn
            // (serve_start ≥ arrival), so the span satisfies the
            // sum-to-latency invariant exactly. The current server model
            // never stalls requests on snoops (snoops cost idle-core
            // energy only), so that phase records zero.
            let span = RequestSpan {
                arrival: req.arrival,
                completion: now,
                queue_wait: queue,
                exit_penalty: transition,
                exit_state: if transition > Nanos::ZERO {
                    req.wake_state.map(trace::cstate_label)
                } else {
                    None
                },
                snoop_stall: Nanos::ZERO,
                service,
                network_rtt: self.workload.network_rtt(),
            };
            self.probe.request_done(id, span);
        }
        self.start_service(id, now);
    }

    fn on_timer_tick(&mut self, id: usize, now: Nanos) {
        if let Some(period) = self.config.timer_tick {
            self.queue.schedule(now + period, Event::TimerTick { core: id });
        }
        self.cores[id].queue.push_back(QueuedRequest {
            arrival: now,
            service: TICK_WORK,
            wake_penalty: Nanos::ZERO,
            wake_state: None,
            is_tick: true,
            attempt: 1,
        });
        let depth = self.cores[id].queue.len() as u32;
        self.probe.trace(id, now, EventKind::QueueEnqueue { depth });
        if let CoreState::Idle { state } = self.cores[id].state {
            self.begin_wake(id, state, now, "timer");
        }
    }

    /// Charges `bursts` snoop bursts to core `id` if it idles in a state
    /// that keeps its caches coherent: the burst power for its state
    /// over `bursts` burst durations, counted as served snoops and traced
    /// as one snoop event.
    fn serve_snoops(&mut self, id: usize, now: Nanos, bursts: u32) {
        if let CoreState::Idle { state } = self.cores[id].state {
            let power = match state {
                CState::C1 | CState::C1E => SNOOP_LEGACY_POWER,
                CState::C6A | CState::C6AE => SNOOP_AW_POWER,
                // C6 flushed its caches; C0 serves snoops in-pipeline.
                _ => return,
            };
            let core = &mut self.cores[id];
            core.snoop_energy += power * SNOOP_BURST * f64::from(bursts);
            core.snoops_served += u64::from(bursts);
            let state = trace::cstate_label(state);
            self.probe.trace(id, now, EventKind::SnoopService { state });
        }
    }

    /// Schedules the client-side retry of a shed or timed-out request:
    /// jittered exponential backoff until the attempt budget runs out.
    fn schedule_retry(&mut self, now: Nanos, service: Nanos, attempt: u32) {
        let next = attempt + 1;
        if next > RETRY_ATTEMPTS {
            self.degradation.retries_exhausted += 1;
            return;
        }
        // base × 2^(attempt−1), jittered over [0.5, 1.5) to decorrelate
        // retry storms.
        let exp = f64::from(1u32 << (attempt - 1).min(8));
        let jitter = 0.5 + self.retry_rng.uniform();
        let backoff = RETRY_BACKOFF * (exp * jitter);
        self.queue.schedule(now + backoff, Event::Retry { service, attempt: next });
    }

    fn on_retry(&mut self, now: Nanos, service: Nanos, attempt: u32) {
        self.degradation.retries += 1;
        let id = self.dispatch();
        self.probe.trace(id, now, EventKind::RequestRetry { attempt });
        self.admit(id, now, service, attempt);
    }

    fn schedule_spurious(&mut self, id: usize, now: Nanos) {
        if let Some(gap) = self.faults.as_mut().and_then(|f| f.spurious_gap()) {
            self.queue.schedule(now + gap, Event::SpuriousWake { core: id });
        }
    }

    fn on_spurious_wake(&mut self, id: usize, now: Nanos) {
        self.schedule_spurious(id, now);
        self.note_fault(id, now, "spurious-wake");
        if let CoreState::Idle { state } = self.cores[id].state {
            // A wake with no pending work: the core pays a full exit and
            // re-entry round trip for nothing.
            self.begin_wake(id, state, now, "spurious");
        }
    }

    fn on_wake_redelivery(&mut self, id: usize, now: Nanos) {
        // Only meaningful if the core is still parked with the stranded
        // work; anything else means another wake already got through.
        if let CoreState::Idle { state } = self.cores[id].state {
            if !self.cores[id].queue.is_empty() {
                let exit = self.begin_wake(id, state, now, "redelivery");
                if let Some(req) = self.cores[id].queue.front_mut() {
                    if req.wake_state.is_none() {
                        req.wake_penalty = exit;
                        req.wake_state = Some(state);
                    }
                }
            }
        }
    }

    fn schedule_storm(&mut self, id: usize, now: Nanos) {
        if let Some(gap) = self.faults.as_mut().and_then(|f| f.storm_gap()) {
            self.queue.schedule(now + gap, Event::SnoopStorm { core: id });
        }
    }

    fn on_snoop_storm(&mut self, id: usize, now: Nanos) {
        self.schedule_storm(id, now);
        self.note_fault(id, now, "snoop-storm");
        let size = self.faults.as_ref().map_or(0, |f| f.spec().storm_size);
        self.serve_snoops(id, now, size);
    }

    fn schedule_slowdown(&mut self, now: Nanos) {
        if let Some(gap) = self.faults.as_mut().and_then(|f| f.slowdown_gap()) {
            self.queue.schedule(now + gap, Event::SlowdownStart);
        }
    }

    fn on_slowdown_start(&mut self, now: Nanos) {
        self.schedule_slowdown(now);
        self.note_fault(0, now, "slowdown");
        let duration = self.faults.as_ref().map_or(Nanos::ZERO, |f| f.spec().slowdown_duration);
        self.slowdown_until = self.slowdown_until.max(now + duration);
    }

    fn on_warmup_end(&mut self, now: Nanos) {
        for core in &mut self.cores {
            core.reset_metrics(now);
        }
        self.uncore.reset_metrics(now);
        // Measurement starts here: swap in a reservoir pre-sized for the
        // expected completions so the record path never reallocates.
        self.latencies = SampleSet::with_capacity(expected_samples(&self.config, &self.workload));
        self.phase_sums = [-0.0; 3];
        self.warmed_up = true;
    }

    fn finalize(&mut self) -> RunMetrics {
        let end = self.end;
        let mut residency_time: BTreeMap<CState, Nanos> = BTreeMap::new();
        let mut total_time = Nanos::ZERO;
        let mut energy = aw_types::Joules::ZERO;
        let mut transitions: BTreeMap<CState, u64> = BTreeMap::new();
        let mut turbo_busy = Nanos::ZERO;
        let mut total_busy = Nanos::ZERO;
        let mut snoops = 0u64;

        for core in &mut self.cores {
            let p = core.current_power;
            core.switch_power(end, p);
            core.tracker.finish(end);
            for &(state, _) in core.entries.iter() {
                // ensure states appear even if time rounds to zero
                residency_time.entry(state).or_insert(Nanos::ZERO);
            }
            for (state, t) in core.tracker.iter() {
                *residency_time.entry(*state).or_insert(Nanos::ZERO) += t;
            }
            total_time += core.tracker.total_time();
            energy += core.meter.energy() + core.snoop_energy + core.transition_energy;
            for &(s, n) in core.entries.iter() {
                *transitions.entry(s).or_insert(0) += n;
            }
            turbo_busy += core.turbo_busy;
            total_busy += core.total_busy;
            snoops += core.snoops_served;
        }

        let residencies = if total_time > Nanos::ZERO {
            ResidencyVector::new(
                residency_time.iter().map(|(&s, &t)| (s, Ratio::new((t / total_time).min(1.0)))),
            )
        } else {
            ResidencyVector::default()
        };

        let duration = self.config.duration;
        let avg_core_power = if duration > Nanos::ZERO {
            energy / duration / self.cores.len() as f64
        } else {
            MilliWatts::ZERO
        };

        let uncore_energy = self.uncore.finish(end);
        let avg_uncore_power =
            if duration > Nanos::ZERO { uncore_energy / duration } else { MilliWatts::ZERO };
        let package_residency = [
            self.uncore.residency(PackageCState::Pc0),
            self.uncore.residency(PackageCState::Pc2),
            self.uncore.residency(PackageCState::Pc6),
        ];
        let server_latency = LatencyStats::from_samples(&mut self.latencies);
        let end_to_end_latency = server_latency.offset_by(self.workload.network_rtt());
        let completed = server_latency.count;
        let n = completed as f64;
        let [transition, queue, service] =
            self.phase_sums.map(|sum| Nanos::new(if n > 0.0 { sum / n } else { 0.0 }));
        let breakdown = LatencyBreakdown { transition, queue, service };
        let turbo_fraction = if total_busy > Nanos::ZERO {
            Ratio::new(turbo_busy / total_busy)
        } else {
            Ratio::ZERO
        };

        // Runtime invariants: a run must account for all of its time and
        // all of its requests, no matter what faults were injected.
        if total_time > Nanos::ZERO {
            let total = residencies.total();
            self.invariants.check(residencies.is_complete(1e-6), || {
                format!("residencies sum to {total}, expected 1")
            });
        }
        let in_system: u64 = self
            .cores
            .iter()
            .map(|c| {
                c.queue.iter().filter(|r| !r.is_tick).count() as u64
                    + u64::from(c.in_flight.is_some_and(|r| !r.is_tick))
            })
            .sum();
        let accounted =
            self.completed_all + self.degradation.timeouts + self.degradation.shed + in_system;
        let arrived = self.arrivals_total;
        self.invariants.check(arrived == accounted, || {
            format!(
                "request conservation: {arrived} admitted but {accounted} accounted \
                 (completed + timed out + shed + in system)"
            )
        });

        RunMetrics {
            config: self.config.named.to_string(),
            workload: self.workload.name().to_string(),
            duration,
            cores: self.cores.len(),
            residencies,
            avg_core_power,
            server_latency,
            end_to_end_latency,
            completed,
            offered_qps: self.workload.offered_qps(),
            achieved_qps: if duration > Nanos::ZERO { n / duration.as_secs() } else { 0.0 },
            transitions,
            snoops_served: snoops,
            events: self.events,
            turbo_fraction,
            avg_uncore_power,
            package_residency,
            breakdown,
            degradation: self.degradation,
            // Filled by `run_to_output` after the recorders are finished.
            telemetry: None,
            attribution: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimBuilder;
    use aw_cstates::NamedConfig;

    fn light_workload(qps: f64) -> WorkloadSpec {
        WorkloadSpec::poisson("test", qps, Nanos::from_micros(3.0), 0.8)
    }

    fn short_config(named: NamedConfig) -> ServerConfig {
        ServerConfig::new(4, named).with_duration(Nanos::from_millis(80.0))
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            SimBuilder::new(short_config(NamedConfig::Baseline), light_workload(50_000.0), 7)
                .run()
                .into_metrics()
        };
        let a = run();
        let b = run();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.avg_core_power, b.avg_core_power);
        assert_eq!(a.server_latency.p99, b.server_latency.p99);
    }

    #[test]
    #[should_panic(expected = "replay with: --seed 7 --faults 'none'")]
    fn into_metrics_panics_on_a_failure_with_its_replay_hint() {
        let mut out =
            SimBuilder::new(short_config(NamedConfig::Baseline), light_workload(50_000.0), 7).run();
        assert!(out.failure.is_none(), "a clean run carries no artifact");
        out.failure = Some(FailureArtifact {
            seed: 7,
            fault_spec: "none".into(),
            violations: vec!["injected".into()],
        });
        let _ = out.into_metrics();
    }

    #[test]
    fn throughput_matches_offered_load() {
        let m = SimBuilder::new(short_config(NamedConfig::Baseline), light_workload(100_000.0), 3)
            .run()
            .into_metrics();
        let ratio = m.achieved_qps / m.offered_qps;
        assert!((0.9..1.1).contains(&ratio), "achieved/offered = {ratio}");
    }

    #[test]
    fn residencies_sum_to_one() {
        for named in [NamedConfig::Baseline, NamedConfig::Aw, NamedConfig::NtNoC6] {
            let m = SimBuilder::new(short_config(named), light_workload(60_000.0), 11)
                .run()
                .into_metrics();
            assert!(m.residencies.is_complete(1e-6), "{named}: total {}", m.residencies.total());
        }
    }

    #[test]
    fn light_load_is_mostly_idle() {
        let m = SimBuilder::new(short_config(NamedConfig::Baseline), light_workload(20_000.0), 5)
            .run()
            .into_metrics();
        assert!(m.residency_of(CState::C0).get() < 0.2, "{}", m.residencies);
    }

    #[test]
    fn aw_config_uses_agile_states() {
        let m = SimBuilder::new(short_config(NamedConfig::Aw), light_workload(60_000.0), 5)
            .run()
            .into_metrics();
        let agile = m.residency_of(CState::C6A) + m.residency_of(CState::C6AE);
        assert!(agile.get() > 0.3, "{}", m.residencies);
        assert_eq!(m.residency_of(CState::C1), Ratio::ZERO);
        assert_eq!(m.residency_of(CState::C1E), Ratio::ZERO);
    }

    #[test]
    fn aw_saves_power_at_light_load() {
        let baseline =
            SimBuilder::new(short_config(NamedConfig::Baseline), light_workload(60_000.0), 9)
                .run()
                .into_metrics();
        let aw = SimBuilder::new(short_config(NamedConfig::Aw), light_workload(60_000.0), 9)
            .run()
            .into_metrics();
        let savings = aw.power_savings_vs(&baseline);
        assert!(savings.get() > 0.1, "savings {savings}");
        // ...with minimal latency impact.
        let tail = aw.tail_latency_delta_vs(&baseline);
        assert!(tail < 0.15, "tail delta {tail}");
    }

    #[test]
    fn disabled_states_are_never_entered() {
        let m =
            SimBuilder::new(short_config(NamedConfig::NtNoC6NoC1e), light_workload(40_000.0), 13)
                .run()
                .into_metrics();
        assert_eq!(m.residency_of(CState::C6), Ratio::ZERO);
        assert_eq!(m.residency_of(CState::C1E), Ratio::ZERO);
        assert!(m.residency_of(CState::C1).get() > 0.5, "{}", m.residencies);
    }

    /// A state the governor never enters changes nothing: the same run
    /// with it struck from the menu reports every `RunMetrics` number
    /// (residencies, transitions, power, latency) bit for bit as before.
    /// A listed state may steer the governor's choice, but only entering
    /// it may reach the accounting. Compared through the `Debug`
    /// rendering, which prints every `f64` in round-trip form.
    #[test]
    fn a_state_never_entered_changes_nothing() {
        for (named, qps) in [(NamedConfig::Aw, 400_000.0), (NamedConfig::Baseline, 200_000.0)] {
            let config = short_config(named);
            let run =
                |config| SimBuilder::new(config, light_workload(qps), 17).run().into_metrics();
            let full = run(config.clone());
            let menu = config.cstates.enabled_states();
            let (entered, unused): (Vec<CState>, Vec<CState>) =
                menu.iter().partition(|s| full.transitions.contains_key(s));
            assert!(unused.contains(&CState::C6), "{named}: {}", full.residencies);
            for &state in &unused {
                assert_eq!(full.residency_of(state), Ratio::ZERO, "{named}: {state}");
            }
            let trimmed = CStateConfig::new(entered, config.cstates.turbo());
            let without = run(config.with_cstates(trimmed));
            assert_eq!(
                full.avg_core_power.as_milliwatts().to_bits(),
                without.avg_core_power.as_milliwatts().to_bits(),
                "{named}: power"
            );
            assert_eq!(format!("{full:?}"), format!("{without:?}"), "{named}");
        }
    }

    /// Each core's Poisson stream of single snoops, `rate` per second:
    /// the `storm` fault with one snoop per burst.
    fn snoop_stream(rate: f64) -> FaultPlan {
        FaultPlan::parse(&format!("storm={rate},storm-size=1")).expect("valid spec")
    }

    /// Pins every `RunMetrics` field, bit for bit, on runs with a
    /// per-core snoop stream plus an OS timer tick, on AW and Baseline.
    /// The runs charge each model constant (snoop power and burst, tick
    /// work, transition energy, the AW frequency loss, the Turbo clocks
    /// read from `hw`), so a changed constant changes a digest. The
    /// digest is FNV-1a over the `Debug` rendering, which prints every
    /// `f64` in round-trip form.
    #[test]
    fn snoop_and_tick_runs_match_pinned_bits() {
        let pinned = [
            (NamedConfig::Aw, 0xb994_440e_7f56_393e_u64, 5063, 0x408c_a0cf_8e08_bffb_u64),
            (NamedConfig::Baseline, 0x85da_943b_55d7_38c2, 5062, 0x4097_0ee2_5db2_c079),
        ];
        for (named, digest, snoops, power_bits) in pinned {
            let cfg = short_config(named).with_timer_tick(Nanos::from_millis(1.0));
            let m = SimBuilder::new(cfg, light_workload(60_000.0), 23)
                .with_faults(snoop_stream(20_000.0))
                .run()
                .into_metrics();
            assert_eq!(m.snoops_served, snoops, "{named}");
            assert_eq!(m.avg_core_power.as_milliwatts().to_bits(), power_bits, "{named}");
            let fnv = format!("{m:?}").bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
            assert_eq!(fnv, digest, "{named}: {m:?}");
        }
    }

    #[test]
    fn snoops_burn_energy_in_coherent_states() {
        let run = |plan| {
            SimBuilder::new(short_config(NamedConfig::Baseline), light_workload(30_000.0), 17)
                .with_faults(plan)
                .run()
                .into_metrics()
        };
        let quiet = run(FaultPlan::none());
        let noisy = run(snoop_stream(50_000.0));
        assert_eq!(quiet.snoops_served, 0);
        assert!(noisy.snoops_served > 0);
        assert!(noisy.avg_core_power > quiet.avg_core_power);
    }

    #[test]
    fn turbo_runs_when_credit_allows() {
        let m = SimBuilder::new(short_config(NamedConfig::Baseline), light_workload(40_000.0), 19)
            .run()
            .into_metrics();
        // Light load banks lots of thermal credit: turbo should engage.
        assert!(m.turbo_fraction.get() > 0.5, "turbo {}", m.turbo_fraction);
        let nt =
            SimBuilder::new(short_config(NamedConfig::NtBaseline), light_workload(40_000.0), 19)
                .run()
                .into_metrics();
        assert_eq!(nt.turbo_fraction, Ratio::ZERO);
    }

    #[test]
    fn attribution_spans_match_metrics() {
        let out =
            SimBuilder::new(short_config(NamedConfig::Baseline), light_workload(60_000.0), 21)
                .with_attribution(Nanos::from_millis(10.0))
                .run();
        let report = out.attribution.expect("attribution enabled");
        // One span per measured request; the per-span checks run on the
        // spans the engine emits, in `probe::tests`.
        assert_eq!(report.summary.requests, out.metrics.completed);
        // The attribution summary's means agree with the breakdown.
        let b = out.metrics.breakdown;
        let m = &report.summary.mean;
        assert!((m.queue.as_nanos() - b.queue.as_nanos()).abs() < 1e-6);
        assert!((m.exit_penalty.as_nanos() - b.transition.as_nanos()).abs() < 1e-6);
        assert!((m.service.as_nanos() - b.service.as_nanos()).abs() < 1e-6);
        assert_eq!(out.metrics.attribution.as_ref(), Some(&report.summary));
        // The timeline saw traffic, power, and residency.
        let tl = &report.timeline;
        assert!(tl.windows().iter().map(|w| w.completed()).sum::<u64>() > 0);
        assert!(tl.windows().iter().any(|w| w.energy() > aw_types::Joules::ZERO));
        assert!(!tl.residency_states().is_empty());
    }

    #[test]
    fn attribution_off_yields_none() {
        let out =
            SimBuilder::new(short_config(NamedConfig::Baseline), light_workload(60_000.0), 21)
                .run();
        assert!(out.attribution.is_none());
        assert!(out.metrics.attribution.is_none());
    }

    #[test]
    fn attribution_does_not_perturb_the_run() {
        // Attribution is pure observation: the measured metrics must be
        // bit-identical with and without it.
        let plain = SimBuilder::new(short_config(NamedConfig::Aw), light_workload(80_000.0), 27)
            .run()
            .into_metrics();
        let attributed =
            SimBuilder::new(short_config(NamedConfig::Aw), light_workload(80_000.0), 27)
                .with_attribution(Nanos::from_millis(5.0))
                .run();
        assert_eq!(plain.completed, attributed.metrics.completed);
        assert_eq!(plain.avg_core_power, attributed.metrics.avg_core_power);
        assert_eq!(plain.server_latency.p99, attributed.metrics.server_latency.p99);
    }

    #[test]
    fn inactive_fault_plan_is_invisible() {
        // A plan with all rates zero must not perturb a single bit of the
        // run: fault draws live on their own RNG streams (common random
        // numbers), and zero-rate streams are never consulted.
        let plain = SimBuilder::new(short_config(NamedConfig::Aw), light_workload(60_000.0), 7)
            .run()
            .into_metrics();
        let faulted = SimBuilder::new(short_config(NamedConfig::Aw), light_workload(60_000.0), 7)
            .with_faults(FaultPlan::none())
            .run()
            .into_metrics();
        assert_eq!(format!("{plain:?}"), format!("{faulted:?}"));
    }

    #[test]
    fn fault_plan_is_deterministic() {
        let run = || {
            let plan = FaultPlan::parse("seed=3,wake-fail=0.2,relock=0.1,lost-wake=0.05")
                .expect("valid spec");
            SimBuilder::new(short_config(NamedConfig::Aw), light_workload(60_000.0), 7)
                .with_faults(plan)
                .run()
                .into_metrics()
        };
        let a = run();
        let b = run();
        assert!(a.degradation.faults_injected > 0, "{}", a.degradation);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn bounded_queue_sheds_under_overload() {
        let cfg = short_config(NamedConfig::Baseline).with_queue_cap(2);
        let m = SimBuilder::new(cfg, light_workload(1_200_000.0), 41).run().into_metrics();
        assert!(m.degradation.shed > 0, "{}", m.degradation);
        assert!(m.degradation.retries > 0, "{}", m.degradation);
        assert!(m.degradation.retries_exhausted > 0, "{}", m.degradation);
    }

    #[test]
    fn request_timeouts_shed_expired_work() {
        let cfg =
            short_config(NamedConfig::Baseline).with_request_timeout(Nanos::from_micros(30.0));
        let m = SimBuilder::new(cfg, light_workload(1_200_000.0), 43).run().into_metrics();
        assert!(m.degradation.timeouts > 0, "{}", m.degradation);
    }

    #[test]
    fn heavier_load_more_c0() {
        let light =
            SimBuilder::new(short_config(NamedConfig::Baseline), light_workload(30_000.0), 23)
                .run()
                .into_metrics();
        let heavy =
            SimBuilder::new(short_config(NamedConfig::Baseline), light_workload(300_000.0), 23)
                .run()
                .into_metrics();
        assert!(heavy.residency_of(CState::C0) > light.residency_of(CState::C0));
        assert!(heavy.avg_core_power > light.avg_core_power);
    }
}

#[cfg(test)]
mod breakdown_tests {
    use super::*;
    use crate::SimBuilder;
    use aw_cstates::NamedConfig;

    fn run(named: NamedConfig, qps: f64, seed: u64) -> RunMetrics {
        let cfg = ServerConfig::new(4, named).with_duration(Nanos::from_millis(80.0));
        let w = WorkloadSpec::poisson("bd", qps, Nanos::from_micros(4.0), 0.8);
        SimBuilder::new(cfg, w, seed).run().into_metrics()
    }

    #[test]
    fn breakdown_components_sum_to_mean_latency() {
        let m = run(NamedConfig::Baseline, 80_000.0, 31);
        let total = m.breakdown.total().as_nanos();
        let mean = m.server_latency.mean.as_nanos();
        assert!((total - mean).abs() / mean < 0.01, "{total} vs {mean}");
    }

    #[test]
    fn transition_share_shrinks_under_c6a() {
        // The Sec. 7.2 story quantified: replacing the C1E time with C6A
        // (C1-class exits) cuts the transition component of mean latency
        // several-fold versus the C1E-heavy baseline. Note C6AE would
        // not show this — it inherits C1E's 10 µs software budget.
        let base = run(NamedConfig::NtBaseline, 60_000.0, 33);
        let cfg = ServerConfig::new(4, NamedConfig::NtAw)
            .with_cstates(aw_cstates::CStateConfig::new([CState::C6A], false))
            .with_duration(Nanos::from_millis(80.0));
        let w = WorkloadSpec::poisson("bd", 60_000.0, Nanos::from_micros(4.0), 0.8);
        let aw = SimBuilder::new(cfg, w, 33).run().into_metrics();
        assert!(
            aw.breakdown.transition.as_nanos() < 0.5 * base.breakdown.transition.as_nanos(),
            "aw {} vs base {}",
            aw.breakdown.transition,
            base.breakdown.transition
        );
        // Service time is workload-determined and barely changes.
        let svc_ratio = aw.breakdown.service.as_nanos() / base.breakdown.service.as_nanos();
        assert!((0.9..1.1).contains(&svc_ratio), "{svc_ratio}");
    }

    #[test]
    fn no_c1e_config_has_small_transition_component() {
        let lean = run(NamedConfig::NtNoC6NoC1e, 60_000.0, 35);
        // C1 exit is 1 µs; with most requests hitting idle cores the
        // transition share stays near or below that.
        assert!(
            lean.breakdown.transition <= Nanos::from_micros(1.1),
            "{}",
            lean.breakdown.transition
        );
    }

    #[test]
    fn breakdown_components_nonnegative() {
        for named in [NamedConfig::Baseline, NamedConfig::Aw, NamedConfig::NtNoC6] {
            let m = run(named, 150_000.0, 37);
            assert!(m.breakdown.transition >= Nanos::ZERO);
            assert!(m.breakdown.queue >= Nanos::ZERO);
            assert!(m.breakdown.service > Nanos::ZERO);
        }
    }
}
