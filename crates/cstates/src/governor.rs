//! OS idle governors: the policy that picks a C-state when a core idles.
//!
//! The paper's motivation (Sec. 2) hinges on governor behaviour: because
//! idle-period lengths are irregular and deep states have long target
//! residencies, governors running latency-critical services almost never
//! pick C6 and the core camps in C1. The governors here reproduce that
//! dynamic:
//!
//! * [`MenuGovernor`] — a Linux-menu-style predictor (EWMA over recent
//!   idle durations, clipped by the next-timer hint).
//! * [`LadderGovernor`] — steps up/down one state at a time based on
//!   whether previous residencies met the target.
//! * [`OracleGovernor`] — is told the true upcoming idle duration; the
//!   upper bound on governor quality.

use std::fmt;

use aw_types::Nanos;

use crate::{CState, CStateCatalog, CStateConfig};

/// Policy deciding which idle state a core enters.
///
/// The server simulator calls [`IdleGovernor::select`] when a core's run
/// queue empties and [`IdleGovernor::observe_idle`] when the core wakes, so
/// predictive governors can learn the workload's idle-duration
/// distribution.
pub trait IdleGovernor: fmt::Debug + Send {
    /// Picks an enabled idle state.
    ///
    /// `hint` is the time until the next *known* wake-up (e.g., a pending
    /// timer), if any; unpredictable request arrivals provide no hint.
    fn select(
        &mut self,
        config: &CStateConfig,
        catalog: &CStateCatalog,
        hint: Option<Nanos>,
    ) -> CState;

    /// Reports the actual duration of the idle period that just ended.
    fn observe_idle(&mut self, actual: Nanos);

    /// Resets learned state (between experiment runs).
    fn reset(&mut self) {}

    /// The governor's current idle-duration prediction, if it maintains
    /// one. Telemetry uses this to score predicted-vs-actual residency;
    /// non-predictive governors keep the default `None`.
    fn last_prediction(&self) -> Option<Nanos> {
        None
    }
}

/// Picks the deepest enabled state whose target residency fits within
/// `predicted`, falling back to the shallowest enabled state.
///
/// This is the core residency rule all governors share (Sec. 1: "power
/// management controllers only switch to a deeper C-state if they predict
/// that waking-up will not be needed before a target residency time").
fn deepest_fitting(config: &CStateConfig, catalog: &CStateCatalog, predicted: Nanos) -> CState {
    let mut choice = None;
    let mut shallowest = None;
    for state in config.iter_enabled() {
        let Some(params) = catalog.get(state) else { continue };
        if shallowest.is_none() {
            shallowest = Some(state);
        }
        if params.target_residency <= predicted {
            choice = Some(state);
        }
    }
    // Nothing fits: take the shallowest state present in the catalog.
    choice.or(shallowest).expect("config validated against catalog: at least one enabled state")
}

/// A Linux-`menu`-style predictive governor.
///
/// Maintains an exponentially-weighted moving average of recent idle
/// durations with a pessimism factor: latency-critical request streams are
/// bursty, so the predictor underestimates (factor < 1) to avoid entering
/// a deep state just before the next request lands. A next-timer `hint`
/// clips the prediction from above.
///
/// # Examples
///
/// ```
/// use aw_cstates::{CState, IdleGovernor, MenuGovernor, NamedConfig};
/// use aw_hw::HardwareModel;
/// use aw_types::Nanos;
///
/// let catalog = HardwareModel::skylake_sp().catalog();
/// let config = NamedConfig::Baseline.config();
/// let mut gov = MenuGovernor::new();
///
/// // A stream of ~30 µs idles settles on C1E (target 20 µs), not C6
/// // (target 600 µs):
/// for _ in 0..32 {
///     gov.observe_idle(Nanos::from_micros(30.0));
/// }
/// assert_eq!(gov.select(&config, &catalog, None), CState::C1E);
/// ```
#[derive(Debug, Clone)]
pub struct MenuGovernor {
    ewma: Option<Nanos>,
    alpha: f64,
    pessimism: f64,
}

impl MenuGovernor {
    /// Creates a menu governor with default smoothing (α = 0.25) and
    /// pessimism (0.8).
    #[must_use]
    pub fn new() -> Self {
        MenuGovernor { ewma: None, alpha: 0.25, pessimism: 0.8 }
    }

    /// Creates a menu governor with explicit smoothing factor `alpha` in
    /// `(0, 1]` and `pessimism` in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is out of range.
    #[must_use]
    pub fn with_params(alpha: f64, pessimism: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(pessimism > 0.0 && pessimism <= 1.0, "pessimism must be in (0, 1]");
        MenuGovernor { ewma: None, alpha, pessimism }
    }

    /// The current idle-duration prediction, before hint clipping.
    #[must_use]
    pub(crate) fn predicted(&self) -> Option<Nanos> {
        self.ewma.map(|e| e * self.pessimism)
    }
}

impl Default for MenuGovernor {
    fn default() -> Self {
        MenuGovernor::new()
    }
}

impl IdleGovernor for MenuGovernor {
    fn select(
        &mut self,
        config: &CStateConfig,
        catalog: &CStateCatalog,
        hint: Option<Nanos>,
    ) -> CState {
        // With no history, be conservative: predict zero, which lands in
        // the shallowest enabled state.
        let mut predicted = self.predicted().unwrap_or(Nanos::ZERO);
        if let Some(h) = hint {
            predicted = predicted.min(h);
        }
        deepest_fitting(config, catalog, predicted)
    }

    fn observe_idle(&mut self, actual: Nanos) {
        self.ewma = Some(match self.ewma {
            None => actual,
            Some(prev) => prev * (1.0 - self.alpha) + actual * self.alpha,
        });
    }

    fn reset(&mut self) {
        self.ewma = None;
    }

    fn last_prediction(&self) -> Option<Nanos> {
        self.predicted()
    }
}

/// Consecutive qualifying idle periods before the ladder governor
/// promotes one state deeper.
const PROMOTE_AFTER: u32 = 4;

/// A ladder governor: promote one state deeper after four
/// consecutive idle periods that met the *next* state's target residency;
/// demote one state shallower immediately after an idle period shorter
/// than the current state's target.
#[derive(Debug, Clone, Default)]
pub struct LadderGovernor {
    rung: usize,
    streak: u32,
    last_idle: Option<Nanos>,
}

impl LadderGovernor {
    /// Creates a ladder governor at the shallowest rung.
    #[must_use]
    pub fn new() -> Self {
        LadderGovernor::default()
    }
}

impl IdleGovernor for LadderGovernor {
    fn select(
        &mut self,
        config: &CStateConfig,
        catalog: &CStateCatalog,
        _hint: Option<Nanos>,
    ) -> CState {
        let mut states = [CState::C0; CState::ALL.len()];
        let mut n = 0;
        for s in config.iter_enabled().filter(|&s| catalog.get(s).is_some()) {
            states[n] = s;
            n += 1;
        }
        let states = &states[..n];
        assert!(!states.is_empty(), "config validated against catalog");
        self.rung = self.rung.min(states.len() - 1);

        if let Some(idle) = self.last_idle.take() {
            let current_target = catalog.params(states[self.rung]).target_residency;
            if idle < current_target && self.rung > 0 {
                self.rung -= 1;
                self.streak = 0;
            } else if self.rung + 1 < states.len() {
                let next_target = catalog.params(states[self.rung + 1]).target_residency;
                if idle >= next_target {
                    self.streak += 1;
                    if self.streak >= PROMOTE_AFTER {
                        self.rung += 1;
                        self.streak = 0;
                    }
                } else {
                    self.streak = 0;
                }
            }
        }
        states[self.rung]
    }

    fn observe_idle(&mut self, actual: Nanos) {
        self.last_idle = Some(actual);
    }

    fn reset(&mut self) {
        self.rung = 0;
        self.streak = 0;
        self.last_idle = None;
    }
}

/// An oracle governor: `hint` carries the *true* upcoming idle duration,
/// so it always picks the energy-optimal state under the residency rule.
/// Used as the upper bound in governor ablations.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleGovernor;

impl OracleGovernor {
    /// Creates the oracle governor.
    #[must_use]
    pub fn new() -> Self {
        OracleGovernor
    }
}

impl IdleGovernor for OracleGovernor {
    fn select(
        &mut self,
        config: &CStateConfig,
        catalog: &CStateCatalog,
        hint: Option<Nanos>,
    ) -> CState {
        deepest_fitting(config, catalog, hint.unwrap_or(Nanos::ZERO))
    }

    fn observe_idle(&mut self, _actual: Nanos) {}
}

/// A per-core circuit breaker guarding the agile (C6A/C6AE) fast-exit
/// path.
///
/// After `threshold` *consecutive* transition failures the breaker trips
/// open: the governor layer should then select from a
/// [`CStateConfig::demote_agile`]d configuration so the core idles in the
/// legacy shallow states instead. The breaker re-arms automatically once
/// `cooldown` simulated time has passed, giving the agile path another
/// chance; a successful transition while closed clears the failure
/// streak.
///
/// # Examples
///
/// ```
/// use aw_cstates::CircuitBreaker;
/// use aw_types::Nanos;
///
/// let mut b = CircuitBreaker::new(2, Nanos::from_micros(10.0));
/// let t = Nanos::ZERO;
/// assert!(!b.record_failure(t));
/// assert!(b.record_failure(t)); // second consecutive failure trips it
/// assert!(b.is_open(t));
/// assert!(!b.is_open(Nanos::from_micros(11.0))); // cooled down: re-armed
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Nanos,
    consecutive_failures: u32,
    open_until: Option<Nanos>,
    restores: u64,
}

impl CircuitBreaker {
    /// Creates a closed breaker tripping after `threshold` consecutive
    /// failures and re-arming `cooldown` after the trip.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero or `cooldown` is negative.
    #[must_use]
    pub fn new(threshold: u32, cooldown: Nanos) -> Self {
        assert!(threshold > 0, "breaker threshold must be positive");
        assert!(cooldown >= Nanos::ZERO, "breaker cooldown must be non-negative");
        CircuitBreaker {
            threshold,
            cooldown,
            consecutive_failures: 0,
            open_until: None,
            restores: 0,
        }
    }

    /// Records a transition failure at time `now`. Returns `true` if
    /// this failure tripped the breaker open. Failures while already
    /// open are ignored (the caller shouldn't be using the agile path).
    pub fn record_failure(&mut self, now: Nanos) -> bool {
        if self.open_until.is_some() {
            return false;
        }
        self.consecutive_failures += 1;
        if self.consecutive_failures >= self.threshold {
            self.consecutive_failures = 0;
            self.open_until = Some(now + self.cooldown);
            true
        } else {
            false
        }
    }

    /// Records a successful transition, clearing the failure streak.
    pub fn record_success(&mut self) {
        if self.open_until.is_none() {
            self.consecutive_failures = 0;
        }
    }

    /// `true` while the breaker is open at time `now`. Re-arms (closes)
    /// the breaker if the cooldown has elapsed.
    pub fn is_open(&mut self, now: Nanos) -> bool {
        match self.open_until {
            Some(until) if now >= until => {
                self.open_until = None;
                self.consecutive_failures = 0;
                self.restores += 1;
                false
            }
            Some(_) => true,
            None => false,
        }
    }

    /// Lifetime count of restores (open → re-armed after cooldown).
    #[must_use]
    pub fn restores(&self) -> u64 {
        self.restores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{skylake_sp_catalogs, NamedConfig};

    fn setup() -> (CStateConfig, CStateCatalog) {
        (NamedConfig::Baseline.config(), skylake_sp_catalogs().1)
    }

    #[test]
    fn menu_starts_shallow() {
        let (cfg, cat) = setup();
        let mut g = MenuGovernor::new();
        assert_eq!(g.select(&cfg, &cat, None), CState::C1);
    }

    #[test]
    fn menu_learns_long_idles() {
        let (cfg, cat) = setup();
        let mut g = MenuGovernor::new();
        for _ in 0..64 {
            g.observe_idle(Nanos::from_millis(2.0));
        }
        assert_eq!(g.select(&cfg, &cat, None), CState::C6);
    }

    #[test]
    fn menu_short_idles_stay_in_c1() {
        let (cfg, cat) = setup();
        let mut g = MenuGovernor::new();
        for _ in 0..64 {
            g.observe_idle(Nanos::from_micros(3.0));
        }
        // 3 µs × 0.8 pessimism = 2.4 µs: fits C1 (2 µs) but not C1E (20 µs).
        assert_eq!(g.select(&cfg, &cat, None), CState::C1);
    }

    #[test]
    fn menu_hint_clips_prediction() {
        let (cfg, cat) = setup();
        let mut g = MenuGovernor::new();
        for _ in 0..64 {
            g.observe_idle(Nanos::from_millis(5.0));
        }
        // Prediction says C6, but a 10 µs timer is pending.
        assert_eq!(g.select(&cfg, &cat, Some(Nanos::from_micros(10.0))), CState::C1);
    }

    #[test]
    fn menu_respects_enable_mask() {
        let cat = skylake_sp_catalogs().1;
        let cfg = NamedConfig::TC6aNoC6NoC1e.config();
        let mut g = MenuGovernor::new();
        for _ in 0..64 {
            g.observe_idle(Nanos::from_millis(5.0));
        }
        // Only C6A is enabled; even a huge prediction picks it.
        assert_eq!(g.select(&cfg, &cat, None), CState::C6A);
    }

    #[test]
    fn menu_reset_forgets() {
        let (cfg, cat) = setup();
        let mut g = MenuGovernor::new();
        for _ in 0..64 {
            g.observe_idle(Nanos::from_millis(5.0));
        }
        g.reset();
        assert_eq!(g.select(&cfg, &cat, None), CState::C1);
    }

    #[test]
    fn ladder_promotes_gradually() {
        let (cfg, cat) = setup();
        let mut g = LadderGovernor::new();
        assert_eq!(g.select(&cfg, &cat, None), CState::C1);
        // Long idles eventually climb C1 → C1E → C6.
        let mut seen = Vec::new();
        for _ in 0..24 {
            g.observe_idle(Nanos::from_millis(2.0));
            seen.push(g.select(&cfg, &cat, None));
        }
        assert!(seen.contains(&CState::C1E));
        assert_eq!(*seen.last().unwrap(), CState::C6);
    }

    #[test]
    fn ladder_demotes_on_short_idle() {
        let (cfg, cat) = setup();
        let mut g = LadderGovernor::new();
        for _ in 0..24 {
            g.observe_idle(Nanos::from_millis(2.0));
            let _ = g.select(&cfg, &cat, None);
        }
        assert_eq!(g.select(&cfg, &cat, None), CState::C6);
        // One premature wake drops back to C1E.
        g.observe_idle(Nanos::from_micros(5.0));
        assert_eq!(g.select(&cfg, &cat, None), CState::C1E);
    }

    #[test]
    fn oracle_picks_optimal() {
        let (cfg, cat) = setup();
        let mut g = OracleGovernor::new();
        assert_eq!(g.select(&cfg, &cat, Some(Nanos::from_micros(1.0))), CState::C1);
        assert_eq!(g.select(&cfg, &cat, Some(Nanos::from_micros(50.0))), CState::C1E);
        assert_eq!(g.select(&cfg, &cat, Some(Nanos::from_millis(1.0))), CState::C6);
        assert_eq!(g.select(&cfg, &cat, None), CState::C1);
    }

    #[test]
    fn breaker_trips_after_threshold_and_rearms_after_cooldown() {
        let mut b = CircuitBreaker::new(3, Nanos::from_micros(100.0));
        let t0 = Nanos::from_micros(1.0);
        assert!(!b.record_failure(t0));
        assert!(!b.record_failure(t0));
        assert!(!b.is_open(t0), "below threshold: still closed");
        assert!(b.record_failure(t0), "third consecutive failure trips");
        assert!(b.is_open(t0));
        // Still open just before the cooldown elapses...
        assert!(b.is_open(t0 + Nanos::from_micros(99.0)));
        // ...re-armed after it.
        assert!(!b.is_open(t0 + Nanos::from_micros(100.0)));
        assert_eq!(b.restores(), 1);
    }

    #[test]
    fn success_clears_the_streak() {
        let mut b = CircuitBreaker::new(2, Nanos::from_micros(10.0));
        assert!(!b.record_failure(Nanos::ZERO));
        b.record_success();
        assert!(!b.record_failure(Nanos::ZERO), "streak was cleared");
        assert!(b.record_failure(Nanos::ZERO));
    }

    #[test]
    fn failures_while_open_are_ignored() {
        let mut b = CircuitBreaker::new(1, Nanos::from_micros(50.0));
        assert!(b.record_failure(Nanos::ZERO));
        assert!(!b.record_failure(Nanos::ZERO), "already open: no double trip");
    }

    #[test]
    fn demote_agile_inverts_aw_twin() {
        let base = NamedConfig::Baseline.config();
        let demoted = base.aw_twin().demote_agile();
        assert_eq!(demoted.enabled_states(), base.enabled_states());
        assert_eq!(demoted.turbo(), base.turbo());
    }

    #[test]
    fn governors_never_pick_disabled_states() {
        let cat = skylake_sp_catalogs().1;
        let cfg = NamedConfig::NtNoC6NoC1e.config();
        let mut menu = MenuGovernor::new();
        let mut ladder = LadderGovernor::new();
        let mut oracle = OracleGovernor::new();
        for _ in 0..50 {
            menu.observe_idle(Nanos::from_millis(10.0));
            ladder.observe_idle(Nanos::from_millis(10.0));
            assert_eq!(menu.select(&cfg, &cat, None), CState::C1);
            assert_eq!(ladder.select(&cfg, &cat, None), CState::C1);
            assert_eq!(oracle.select(&cfg, &cat, Some(Nanos::from_millis(10.0))), CState::C1);
        }
    }
}
