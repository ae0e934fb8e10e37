//! The C6A/C6AE power-management flow FSM (Fig. 6), stepped at the
//! 500 MHz PMA clock.
//!
//! The FSM sequences the entry flow ①–③ (clock-gate UFPG, in-place save +
//! power-gate, cache sleep), the exit flow ④–⑥ (cache wake, staggered
//! power-ungate + SRPG restore, clock-ungate), and the snoop flow ⓐ–ⓒ.
//! Every transition is traced with start time and duration so tests and
//! benches can check the paper's latency budget step by step.
//!
//! Illegal transitions (entry from a non-active core, exit or snoop from
//! a non-idle core) return a typed [`FlowError`] instead of panicking, so
//! callers driving the FSM from external event streams can recover.
//! The FSM models the fault-free flow only; a disrupted agile wake
//! (stuck gates, the C6 fallback, relock overruns, drowsy repeats) is
//! modelled once, by the server engine's fault layer.

use aw_cstates::{FreqLevel, PMA_CLOCK};
use aw_types::{Cycles, Nanos};

use crate::cache::CacheSleepController;
use crate::srpg::SrpgBank;
use crate::ufpg::{Ufpg, WakePolicy};

/// States of the Fig. 6 flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PmaState {
    /// C0: core active.
    Active,
    /// ① clock-gate the UFPG domain (PLL stays on).
    EntryClockGate,
    /// ② save context in place (Ret↑) and power-gate (Pwr↓).
    EntrySaveAndGate,
    /// ③ put L1/L2 in sleep mode and clock-gate them.
    EntryCacheSleep,
    /// Resident in C6A/C6AE.
    Idle,
    /// ⓐ clock-ungate caches and raise array voltage.
    SnoopWake,
    /// ⓑ the caches answer the outstanding snoops.
    SnoopServe,
    /// ⓒ roll back to full C6A/C6AE.
    SnoopResleep,
    /// ④ cache clock-ungate + sleep exit.
    ExitCacheWake,
    /// ⑤ staggered power-ungate of the five UFPG zones, then SRPG restore.
    ExitPowerUngate,
    /// ⑥ clock-ungate all domains.
    ExitClockUngate,
}

impl PmaState {
    /// Short static name of the state, used as the trace-event label.
    #[must_use]
    pub(crate) fn name(self) -> &'static str {
        match self {
            PmaState::Active => "Active",
            PmaState::EntryClockGate => "EntryClockGate",
            PmaState::EntrySaveAndGate => "EntrySaveAndGate",
            PmaState::EntryCacheSleep => "EntryCacheSleep",
            PmaState::Idle => "Idle",
            PmaState::SnoopWake => "SnoopWake",
            PmaState::SnoopServe => "SnoopServe",
            PmaState::SnoopResleep => "SnoopResleep",
            PmaState::ExitCacheWake => "ExitCacheWake",
            PmaState::ExitPowerUngate => "ExitPowerUngate",
            PmaState::ExitClockUngate => "ExitClockUngate",
        }
    }
}

/// A flow was requested from a state where it is not legal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowError {
    /// `run_entry` needs [`PmaState::Active`]; the FSM was elsewhere.
    EntryFromNonActive(PmaState),
    /// `run_exit` needs [`PmaState::Idle`]; the FSM was elsewhere.
    ExitFromNonIdle(PmaState),
    /// `run_snoop` needs [`PmaState::Idle`]; the FSM was elsewhere.
    SnoopFromNonIdle(PmaState),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::EntryFromNonActive(s) => {
                write!(f, "entry requires an active core (state: {})", s.name())
            }
            FlowError::ExitFromNonIdle(s) => {
                write!(f, "exit requires an idle core (state: {})", s.name())
            }
            FlowError::SnoopFromNonIdle(s) => {
                write!(f, "snoop flow requires an idle core (state: {})", s.name())
            }
        }
    }
}

impl std::error::Error for FlowError {}

/// One traced step: the state occupied, when it began, how long it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStep {
    /// The flow state.
    pub state: PmaState,
    /// Start time (relative to the flow's own t=0).
    pub start: Nanos,
    /// Duration of the step.
    pub duration: Nanos,
}

/// An ordered trace of one flow execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlowTrace {
    steps: Vec<TraceStep>,
}

impl FlowTrace {
    fn push(&mut self, state: PmaState, start: Nanos, duration: Nanos) {
        self.steps.push(TraceStep { state, start, duration });
    }

    /// The traced steps in execution order.
    #[must_use]
    pub fn steps(&self) -> &[TraceStep] {
        &self.steps
    }

    /// Total wall-clock duration of the flow.
    #[must_use]
    pub fn total(&self) -> Nanos {
        self.steps.iter().map(|s| s.duration).sum()
    }
}

/// The core's power-management agent running the C6A/C6AE flow.
///
/// Owns the three hardware subsystems the flow orchestrates: the UFPG
/// zones, the SRPG retention bank holding the ~8 kB core context, and the
/// CCSM cache-sleep controller.
///
/// # Examples
///
/// Entry, a snoop while idle, then exit — with context integrity checked
/// end to end:
///
/// ```
/// use aw_pma::{FlowError, PmaFsm, PmaState};
///
/// let mut fsm = PmaFsm::new_c6a();
/// fsm.write_context(0x5EED);
///
/// let entry = fsm.run_entry().expect("fresh FSM is active");
/// assert!(entry.total().as_nanos() < 20.0);
///
/// // Illegal flows are typed errors, not panics:
/// assert_eq!(fsm.run_entry(), Err(FlowError::EntryFromNonActive(PmaState::Idle)));
///
/// let snoop = fsm.run_snoop(1).expect("idle core can serve snoops");
///
/// let exit = fsm.run_exit().expect("idle core can exit");
/// assert!(exit.total().as_nanos() < 80.0);
/// assert_eq!(fsm.read_context(), Some(0x5EED)); // context survived
/// # drop(snoop);
/// ```
#[derive(Debug, Clone)]
pub struct PmaFsm {
    state: PmaState,
    enhanced: bool,
    ufpg: Ufpg,
    srpg: SrpgBank,
    ccsm: CacheSleepController,
    /// Monotonic FSM time, advanced by flows and [`PmaFsm::wait`].
    now: Nanos,
    /// When the in-flight non-blocking Pn transition completes (C6AE).
    pn_ready_at: Option<Nanos>,
}

/// The non-blocking DVFS ramp to Pn kicked off at C6AE entry step ①
/// (Sec. 5.2.1: "can take few tens of microseconds").
pub(crate) const PN_TRANSITION: Nanos = Nanos::new(30_000.0);

impl PmaFsm {
    /// A PMA configured for C6A at the paper's design point.
    #[must_use]
    pub fn new_c6a() -> Self {
        PmaFsm::skylake(false)
    }

    /// A PMA configured for C6AE (adds the non-blocking transition to Pn;
    /// the DVFS runs in parallel and does not lengthen the flow).
    #[must_use]
    pub fn new_c6ae() -> Self {
        PmaFsm::skylake(true)
    }

    /// The Skylake subsystems at the paper's design point; `enhanced`
    /// selects C6AE.
    fn skylake(enhanced: bool) -> Self {
        PmaFsm {
            state: PmaState::Active,
            enhanced,
            ufpg: Ufpg::skylake_c6a(),
            srpg: SrpgBank::default(),
            ccsm: CacheSleepController::skylake(),
            now: Nanos::ZERO,
            pn_ready_at: None,
        }
    }

    /// Lets simulated time pass while the core stays in its current
    /// state (e.g., residing in C6AE while the Pn ramp completes).
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative.
    pub fn wait(&mut self, duration: Nanos) {
        assert!(duration >= Nanos::ZERO, "cannot wait a negative duration");
        self.now += duration;
    }

    /// The voltage/frequency level the core currently sits at. A C6AE
    /// core reaches [`FreqLevel::Pn`] only once the non-blocking DVFS
    /// ramp (started at entry step ①) completes; exit cancels any
    /// in-flight ramp and returns to P1.
    #[must_use]
    pub fn freq_level(&self) -> FreqLevel {
        match self.pn_ready_at {
            Some(ready) if self.state == PmaState::Idle && self.now >= ready => FreqLevel::Pn,
            _ => FreqLevel::P1,
        }
    }

    /// Writes a context value into the core (only legal while active).
    ///
    /// # Panics
    ///
    /// Panics if the core is not in [`PmaState::Active`].
    pub fn write_context(&mut self, value: u64) {
        assert_eq!(self.state, PmaState::Active, "context writes require an active core");
        self.srpg.write(value);
    }

    /// Reads the live context value (None while power-gated or if a flow
    /// bug corrupted it).
    #[must_use]
    pub fn read_context(&self) -> Option<u64> {
        self.srpg.read()
    }

    /// Runs the entry flow ①–③ from `Active` to `Idle`.
    ///
    /// # Errors
    ///
    /// [`FlowError::EntryFromNonActive`] if the core is not active; the
    /// FSM is left untouched.
    pub fn run_entry(&mut self) -> Result<FlowTrace, FlowError> {
        if self.state != PmaState::Active {
            return Err(FlowError::EntryFromNonActive(self.state));
        }
        let mut trace = FlowTrace::default();
        let mut now = Nanos::ZERO;

        // ① clock-gate the UFPG domain; PLL remains on and locked.
        //    For C6AE, the PMA also kicks off the non-blocking Pn
        //    transition here; it completes in the background without
        //    lengthening the flow.
        if self.enhanced {
            self.pn_ready_at = Some(self.now + PN_TRANSITION);
        }
        self.state = PmaState::EntryClockGate;
        let d1 = Cycles::new(2).at(PMA_CLOCK);
        trace.push(self.state, now, d1);
        now += d1;

        // ② in-place save: Ret↑ then Pwr↓ on the SRPG bank.
        self.state = PmaState::EntrySaveAndGate;
        let d2 = self.srpg.save().at(PMA_CLOCK);
        trace.push(self.state, now, d2);
        now += d2;

        // ③ caches into sleep mode, clock-gate the cache domain.
        self.state = PmaState::EntryCacheSleep;
        let d3 = self.ccsm.enter_sleep().at(PMA_CLOCK);
        trace.push(self.state, now, d3);

        self.state = PmaState::Idle;
        self.now += trace.total();
        Ok(trace)
    }

    /// Runs the snoop flow ⓐ–ⓒ for a burst of `count` snoops, returning
    /// to full C6A/C6AE.
    ///
    /// # Errors
    ///
    /// [`FlowError::SnoopFromNonIdle`] if the core is not idle; the FSM
    /// is left untouched.
    pub fn run_snoop(&mut self, count: u32) -> Result<FlowTrace, FlowError> {
        if self.state != PmaState::Idle {
            return Err(FlowError::SnoopFromNonIdle(self.state));
        }
        let mut trace = FlowTrace::default();
        let mut now = Nanos::ZERO;

        // ⓐ clock-ungate the cache domain, raise the array voltage.
        self.state = PmaState::SnoopWake;
        let da = Cycles::new(2).at(PMA_CLOCK);
        trace.push(self.state, now, da);
        now += da;

        // ⓑ the caches service the outstanding snoops. Delegate to the
        // CCSM controller for bookkeeping, subtracting the wake/re-sleep
        // cycles it accounts internally (traced separately here).
        self.state = PmaState::SnoopServe;
        let burst = self.ccsm.serve_snoops(count);
        let overhead = Cycles::new(5).at(PMA_CLOCK);
        let db = (burst - overhead).clamp_non_negative();
        trace.push(self.state, now, db);
        now += db;

        // ⓒ back to sleep mode and clock-gated.
        self.state = PmaState::SnoopResleep;
        let dc = Cycles::new(3).at(PMA_CLOCK);
        trace.push(self.state, now, dc);

        self.state = PmaState::Idle;
        self.now += trace.total();
        Ok(trace)
    }

    /// Runs the exit flow ④–⑥ from `Idle` back to `Active`.
    ///
    /// # Errors
    ///
    /// [`FlowError::ExitFromNonIdle`] if the core is not idle; the FSM is
    /// left untouched.
    pub fn run_exit(&mut self) -> Result<FlowTrace, FlowError> {
        if self.state != PmaState::Idle {
            return Err(FlowError::ExitFromNonIdle(self.state));
        }
        let mut trace = FlowTrace::default();
        let mut now = Nanos::ZERO;

        // ④ clock-ungate L1/L2 and leave sleep mode.
        self.state = PmaState::ExitCacheWake;
        let d4 = self.ccsm.exit_sleep().at(PMA_CLOCK);
        trace.push(self.state, now, d4);
        now += d4;

        // ⑤ power-ungate the UFPG zones (staggered), then deassert Ret.
        self.state = PmaState::ExitPowerUngate;
        let d5 = self.ufpg.wake(WakePolicy::Staggered).latency + self.srpg.restore().at(PMA_CLOCK);
        trace.push(self.state, now, d5);
        now += d5;

        // ⑥ clock-ungate every domain; the core resumes in C0.
        self.state = PmaState::ExitClockUngate;
        trace.push(self.state, now, Cycles::new(2).at(PMA_CLOCK));

        self.state = PmaState::Active;
        self.now += trace.total();
        // Exit cancels any in-flight or completed Pn ramp: the core
        // returns to P1 for execution.
        self.pn_ready_at = None;
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(fsm: &mut PmaFsm) -> FlowTrace {
        fsm.run_entry().expect("entry must be legal here")
    }

    fn exit(fsm: &mut PmaFsm) -> FlowTrace {
        fsm.run_exit().expect("exit must be legal here")
    }

    #[test]
    fn entry_budget_under_20ns() {
        let mut fsm = PmaFsm::new_c6a();
        let t = entry(&mut fsm);
        assert!(t.total() < Nanos::new(20.0), "entry {}", t.total());
        assert_eq!(fsm.state, PmaState::Idle);
    }

    #[test]
    fn exit_budget_under_80ns() {
        let mut fsm = PmaFsm::new_c6a();
        entry(&mut fsm);
        let t = exit(&mut fsm);
        assert!(t.total() < Nanos::new(80.0), "exit {}", t.total());
        assert_eq!(fsm.state, PmaState::Active);
        // Step ⑤ dominates: the 67.5 ns staggered wake + 1 restore cycle.
        let d5 = t.steps()[1].duration;
        assert_eq!(t.steps()[1].state, PmaState::ExitPowerUngate);
        assert!((d5.as_nanos() - 69.5).abs() < 1e-9, "step5 {d5}");
    }

    #[test]
    fn round_trip_under_100ns() {
        let mut fsm = PmaFsm::new_c6a();
        let total = entry(&mut fsm).total() + exit(&mut fsm).total();
        assert!(total < Nanos::new(100.0), "round trip {total}");
    }

    #[test]
    fn c6ae_flow_latency_matches_c6a() {
        // The Pn transition is non-blocking; C6AE's flow latency equals
        // C6A's.
        let mut a = PmaFsm::new_c6a();
        let mut e = PmaFsm::new_c6ae();
        assert_eq!(entry(&mut a).total(), entry(&mut e).total());
        assert_eq!(exit(&mut a).total(), exit(&mut e).total());
    }

    #[test]
    fn context_survives_many_transitions() {
        let mut fsm = PmaFsm::new_c6a();
        fsm.write_context(0xABCD);
        for _ in 0..100 {
            entry(&mut fsm);
            exit(&mut fsm);
        }
        assert_eq!(fsm.read_context(), Some(0xABCD));
    }

    #[test]
    fn context_unreadable_while_gated() {
        let mut fsm = PmaFsm::new_c6a();
        fsm.write_context(7);
        entry(&mut fsm);
        assert_eq!(fsm.read_context(), None);
        exit(&mut fsm);
        assert_eq!(fsm.read_context(), Some(7));
    }

    #[test]
    fn snoop_flow_returns_to_idle() {
        let mut fsm = PmaFsm::new_c6a();
        entry(&mut fsm);
        let t = fsm.run_snoop(4).expect("idle core serves snoops");
        assert_eq!(fsm.state, PmaState::Idle);
        // 2 cy wake + 4 × 20 ns + 3 cy re-sleep = 90 ns.
        assert!((t.total().as_nanos() - 90.0).abs() < 1e-9, "{}", t.total());
    }

    #[test]
    fn snoop_then_exit_preserves_context() {
        let mut fsm = PmaFsm::new_c6a();
        fsm.write_context(123);
        entry(&mut fsm);
        fsm.run_snoop(2).unwrap();
        fsm.run_snoop(1).unwrap();
        exit(&mut fsm);
        assert_eq!(fsm.read_context(), Some(123));
    }

    #[test]
    fn double_entry_is_a_typed_error() {
        let mut fsm = PmaFsm::new_c6a();
        fsm.run_entry().unwrap();
        let err = fsm.run_entry().unwrap_err();
        assert_eq!(err, FlowError::EntryFromNonActive(PmaState::Idle));
        assert!(err.to_string().contains("entry requires an active core"));
        // The failed call must not have perturbed the FSM.
        assert_eq!(fsm.state, PmaState::Idle);
    }

    #[test]
    fn exit_without_entry_is_a_typed_error() {
        let mut fsm = PmaFsm::new_c6a();
        let err = fsm.run_exit().unwrap_err();
        assert_eq!(err, FlowError::ExitFromNonIdle(PmaState::Active));
        assert!(err.to_string().contains("exit requires an idle core"));
        assert_eq!(fsm.state, PmaState::Active);
    }

    #[test]
    fn snoop_while_active_is_a_typed_error() {
        let mut fsm = PmaFsm::new_c6a();
        let err = fsm.run_snoop(1).unwrap_err();
        assert_eq!(err, FlowError::SnoopFromNonIdle(PmaState::Active));
        assert!(err.to_string().contains("snoop flow requires an idle core"));
        assert_eq!(fsm.state, PmaState::Active);
    }

    #[test]
    fn traces_enumerate_fig6_steps() {
        let mut fsm = PmaFsm::new_c6a();
        let entry = entry(&mut fsm);
        let states: Vec<_> = entry.steps().iter().map(|s| s.state).collect();
        assert_eq!(
            states,
            [PmaState::EntryClockGate, PmaState::EntrySaveAndGate, PmaState::EntryCacheSleep]
        );
        let exit = exit(&mut fsm);
        let states: Vec<_> = exit.steps().iter().map(|s| s.state).collect();
        assert_eq!(
            states,
            [PmaState::ExitCacheWake, PmaState::ExitPowerUngate, PmaState::ExitClockUngate]
        );
    }
}

#[cfg(test)]
mod pn_transition_tests {
    use super::*;

    #[test]
    fn c6a_never_drops_to_pn() {
        let mut fsm = PmaFsm::new_c6a();
        fsm.run_entry().unwrap();
        fsm.wait(Nanos::from_micros(100.0));
        assert_eq!(fsm.freq_level(), FreqLevel::P1);
    }

    #[test]
    fn c6ae_reaches_pn_after_the_ramp() {
        let mut fsm = PmaFsm::new_c6ae();
        fsm.run_entry().unwrap();
        // Ramp in flight: still at P1.
        assert_eq!(fsm.freq_level(), FreqLevel::P1);
        fsm.wait(Nanos::from_micros(10.0));
        assert_eq!(fsm.freq_level(), FreqLevel::P1);
        // The ~30 µs non-blocking DVFS completes.
        fsm.wait(Nanos::from_micros(25.0));
        assert_eq!(fsm.freq_level(), FreqLevel::Pn);
    }

    #[test]
    fn clock_is_monotone() {
        let mut fsm = PmaFsm::new_c6ae();
        let t0 = fsm.now;
        fsm.run_entry().unwrap();
        let t1 = fsm.now;
        fsm.wait(Nanos::from_micros(1.0));
        let t2 = fsm.now;
        fsm.run_exit().unwrap();
        let t3 = fsm.now;
        assert!(t0 < t1 && t1 < t2 && t2 < t3);
    }

    #[test]
    fn early_exit_cancels_the_ramp() {
        let mut fsm = PmaFsm::new_c6ae();
        fsm.run_entry().unwrap();
        fsm.wait(Nanos::from_micros(5.0));
        fsm.run_exit().unwrap();
        assert_eq!(fsm.freq_level(), FreqLevel::P1);
        fsm.wait(Nanos::from_micros(100.0));
        assert_eq!(fsm.freq_level(), FreqLevel::P1, "cancelled ramp must not complete");
    }

    #[test]
    fn ramp_does_not_lengthen_the_flow() {
        let mut a = PmaFsm::new_c6a();
        let mut e = PmaFsm::new_c6ae();
        assert_eq!(a.run_entry().unwrap().total(), e.run_entry().unwrap().total());
    }

    #[test]
    fn snoops_advance_time_but_keep_pn() {
        let mut fsm = PmaFsm::new_c6ae();
        fsm.run_entry().unwrap();
        fsm.wait(PN_TRANSITION);
        assert_eq!(fsm.freq_level(), FreqLevel::Pn);
        fsm.run_snoop(2).unwrap();
        assert_eq!(fsm.freq_level(), FreqLevel::Pn, "snoop service keeps the core in C6AE");
    }
}
