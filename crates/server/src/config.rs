//! Simulation configuration: machine shape, C-state setup, governor,
//! run window, OS tick, and overload protection. Requests are dispatched
//! round-robin across cores, and coherence snoops come only from the
//! `storm` fault. The per-core costs the paper fixes (AW's frequency
//! loss, transition energy, snoop power, timer-tick work, client retry
//! and circuit breaker) are engine constants, not settings.

use aw_cstates::{
    CStateCatalog, CStateConfig, IdleGovernor, LadderGovernor, MenuGovernor, NamedConfig,
    OracleGovernor,
};
use aw_hw::HardwareModel;
use aw_types::Nanos;

/// Which idle-governor policy the OS runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GovernorKind {
    /// Linux-menu-style EWMA predictor (the default).
    Menu,
    /// Step-up/step-down ladder.
    Ladder,
    /// Oracle told the true idle duration (upper bound).
    Oracle,
}

impl GovernorKind {
    /// Instantiates the governor.
    #[must_use]
    pub fn build(self) -> Box<dyn IdleGovernor> {
        match self {
            GovernorKind::Menu => Box::new(MenuGovernor::new()),
            GovernorKind::Ladder => Box::new(LadderGovernor::new()),
            GovernorKind::Oracle => Box::new(OracleGovernor::new()),
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The hardware model this configuration was built from: the
    /// provenance for the catalog snapshot below, and the live source
    /// of base/Turbo clocks, uncore power and CCX topology during the
    /// run. The catalog itself stays a snapshot so experiments can still
    /// override individual rows (e.g. PPA-derived C6A power) via
    /// [`ServerConfig::with_catalog`].
    pub hw: &'static HardwareModel,
    /// Number of physical cores serving requests.
    pub cores: usize,
    /// Named C-state configuration (enable mask + Turbo flag).
    pub named: NamedConfig,
    /// The C-state enable mask (derived from `named`, overridable).
    pub cstates: CStateConfig,
    /// The C-state parameter catalog.
    pub catalog: CStateCatalog,
    /// Idle-governor policy.
    pub governor: GovernorKind,
    /// Simulated duration (after warm-up).
    pub duration: Nanos,
    /// Warm-up period excluded from metrics.
    pub warmup: Nanos,
    /// Optional per-core OS timer tick: a periodic kernel interrupt that
    /// wakes each core and runs a few microseconds of kernel work. Real
    /// kernels' ticks chop long idle periods, which is a big part of why
    /// production residency profiles stay shallower than queueing theory
    /// alone predicts. `None` (default) disables it.
    pub timer_tick: Option<Nanos>,
    /// Bound on each core's run-queue depth; arrivals beyond it are shed
    /// (and retried by the model client). `None` = unbounded.
    pub queue_cap: Option<usize>,
    /// Maximum time a request may wait in queue before it is abandoned
    /// and retried. `None` = no timeout.
    pub request_timeout: Option<Nanos>,
}

impl ServerConfig {
    /// A Xeon-4114-shaped configuration: `cores` cores on the
    /// `skylake-sp` hardware model (2.2 GHz base / 3.0 GHz Turbo), menu
    /// governor, 1 s simulated with 100 ms warm-up.
    #[must_use]
    pub fn new(cores: usize, named: NamedConfig) -> Self {
        Self::for_hw(HardwareModel::skylake_sp(), cores, named)
    }

    /// A configuration for `cores` cores of the given hardware model:
    /// the model's full (AW-derived) catalog and the named enable mask restricted to the states the model
    /// actually has — on Zen 2 (no C1E) `Baseline` becomes C1+C6 and
    /// `AW` becomes C6A+C6.
    ///
    /// The catalog always carries the AW states so AW configurations
    /// validate; legacy configurations simply never select them.
    #[must_use]
    pub fn for_hw(hw: &'static HardwareModel, cores: usize, named: NamedConfig) -> Self {
        assert!(cores > 0, "need at least one core");
        ServerConfig {
            hw,
            cores,
            named,
            cstates: hw.restrict(&named.config()),
            catalog: hw.catalog(),
            governor: GovernorKind::Menu,
            duration: Nanos::from_secs(1.0),
            warmup: Nanos::from_millis(100.0),
            timer_tick: None,
            queue_cap: None,
            request_timeout: None,
        }
    }

    /// Moves this configuration onto another hardware model, replacing
    /// the model-derived pieces (catalog, enable mask; the clocks are
    /// read from `hw`) while keeping everything operational — duration,
    /// governor, timer tick, overload protection. The enable mask
    /// is re-derived from [`ServerConfig::named`], so a custom
    /// [`ServerConfig::with_cstates`] override does not survive the
    /// move (it may name states the new model lacks). Mixed fleets use
    /// this to stamp one prototype onto per-server hardware.
    #[must_use]
    pub fn rehosted(&self, hw: &'static HardwareModel) -> Self {
        let mut c = self.clone();
        c.hw = hw;
        c.catalog = hw.catalog();
        c.cstates = hw.restrict(&self.named.config());
        c
    }

    /// Sets the simulated duration (post-warm-up).
    #[must_use]
    pub fn with_duration(mut self, duration: Nanos) -> Self {
        assert!(duration > Nanos::ZERO, "duration must be positive");
        self.duration = duration;
        // Keep warm-up proportionate for short test runs.
        self.warmup = self.warmup.min(duration * 0.2);
        self
    }

    /// Sets the warm-up period.
    #[must_use]
    pub fn with_warmup(mut self, warmup: Nanos) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the governor policy.
    #[must_use]
    pub fn with_governor(mut self, governor: GovernorKind) -> Self {
        self.governor = governor;
        self
    }

    /// Enables a per-core OS timer tick with the given period.
    ///
    /// # Panics
    ///
    /// Panics if `period` is not positive.
    #[must_use]
    pub fn with_timer_tick(mut self, period: Nanos) -> Self {
        assert!(period > Nanos::ZERO, "tick period must be positive");
        self.timer_tick = Some(period);
        self
    }

    /// Overrides the C-state catalog (e.g., PPA-derived C6A power).
    #[must_use]
    pub fn with_catalog(mut self, catalog: CStateCatalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Overrides the C-state enable mask while keeping the named label
    /// (for configurations the paper uses that aren't in
    /// [`NamedConfig`], e.g. MySQL's "C1 + C6 only" baseline).
    #[must_use]
    pub fn with_cstates(mut self, cstates: CStateConfig) -> Self {
        self.cstates = cstates;
        self
    }

    /// Bounds each core's run queue at `cap` requests; excess arrivals
    /// are shed and retried by the model client.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[must_use]
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "queue cap must be positive");
        self.queue_cap = Some(cap);
        self
    }

    /// Abandons requests that wait in queue longer than `timeout`.
    ///
    /// # Panics
    ///
    /// Panics if `timeout` is not positive.
    #[must_use]
    pub fn with_request_timeout(mut self, timeout: Nanos) -> Self {
        assert!(timeout > Nanos::ZERO, "request timeout must be positive");
        self.request_timeout = Some(timeout);
        self
    }

    /// `true` if this run models AW hardware (and thus its ~1% frequency
    /// degradation applies).
    #[must_use]
    pub(crate) fn is_aw(&self) -> bool {
        self.named.is_aw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aw_cstates::CState;
    use aw_types::MegaHertz;

    #[test]
    fn default_shape_is_xeon_4114() {
        let c = ServerConfig::new(10, NamedConfig::Baseline);
        assert_eq!(c.cores, 10);
        assert_eq!(c.hw.base_freq, MegaHertz::from_ghz(2.2));
        assert_eq!(c.hw.turbo_freq, MegaHertz::from_ghz(3.0));
        assert!(c.cstates.turbo());
        assert!(c.cstates.is_enabled(CState::C6));
    }

    #[test]
    fn catalog_validates_for_all_named_configs() {
        for named in NamedConfig::ALL {
            let c = ServerConfig::new(2, named);
            assert_eq!(c.cstates.validate(&c.catalog), Ok(()), "{named}");
        }
    }

    #[test]
    fn builders_chain() {
        let c = ServerConfig::new(2, NamedConfig::Aw)
            .with_duration(Nanos::from_millis(10.0))
            .with_governor(GovernorKind::Oracle);
        assert_eq!(c.duration, Nanos::from_millis(10.0));
        assert!(c.warmup <= c.duration * 0.2);
        assert_eq!(c.governor, GovernorKind::Oracle);
        assert!(c.is_aw());
    }

    #[test]
    fn governor_kinds_build() {
        for kind in [GovernorKind::Menu, GovernorKind::Ladder, GovernorKind::Oracle] {
            let _ = kind.build();
        }
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn rejects_zero_cores() {
        let _ = ServerConfig::new(0, NamedConfig::Baseline);
    }

    #[test]
    fn default_is_skylake_sp() {
        let c = ServerConfig::new(4, NamedConfig::Aw);
        let h = ServerConfig::for_hw(HardwareModel::skylake_sp(), 4, NamedConfig::Aw);
        assert_eq!(c.hw.name, "skylake-sp");
        assert_eq!(c.catalog, h.catalog);
        assert_eq!(c.cstates, h.cstates);
    }

    #[test]
    fn for_hw_zen2_restricts_menu() {
        use aw_cstates::CState;
        let c = ServerConfig::for_hw(HardwareModel::zen2(), 8, NamedConfig::Baseline);
        assert_eq!(c.hw.base_freq, MegaHertz::from_ghz(2.5));
        assert!(c.cstates.is_enabled(CState::C1));
        assert!(!c.cstates.is_enabled(CState::C1E));
        assert!(c.cstates.is_enabled(CState::C6));
        assert_eq!(c.cstates.validate(&c.catalog), Ok(()));
        let aw = ServerConfig::for_hw(HardwareModel::zen2(), 8, NamedConfig::Aw);
        assert!(aw.cstates.is_enabled(CState::C6A));
        assert!(!aw.cstates.is_enabled(CState::C6AE));
    }

    #[test]
    fn rehosted_keeps_operational_knobs() {
        let c = ServerConfig::new(4, NamedConfig::Aw)
            .with_duration(Nanos::from_millis(10.0))
            .with_governor(GovernorKind::Oracle)
            .with_queue_cap(64);
        let z = c.rehosted(HardwareModel::zen2());
        assert_eq!(z.hw.name, "zen2");
        assert_eq!(z.duration, c.duration);
        assert_eq!(z.governor, GovernorKind::Oracle);
        assert_eq!(z.queue_cap, Some(64));
        assert_eq!(z.hw.base_freq, MegaHertz::from_ghz(2.5));
        assert_eq!(z.cstates.validate(&z.catalog), Ok(()));
        // Round-tripping back to skylake restores the original menu.
        let back = z.rehosted(HardwareModel::skylake_sp());
        assert_eq!(back.catalog, c.catalog);
        assert_eq!(back.cstates, c.cstates);
    }
}
