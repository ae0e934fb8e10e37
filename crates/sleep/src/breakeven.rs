//! The break-even energy model behind the governor audit.
//!
//! For every idle interval the analyzer must answer two questions the
//! simulator never asks at run time: *what would this interval have cost in
//! each candidate state*, and *which state would an oracle with perfect
//! knowledge of the interval's length have picked*. Both reduce to the
//! classic break-even argument (paper Sec. 2.2): a state pays off once the
//! interval is long enough that the energy saved while resident outweighs
//! the energy burned ramping through the entry and exit transitions.

use aw_cstates::{CState, CStateCatalog, FreqLevel};
use aw_server::ServerConfig;
use aw_types::{Joules, MilliWatts, Nanos};

/// One catalog state's cost coefficients, in raw nanoseconds and
/// milliwatts so the per-interval kernel converts no units.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    state: CState,
    /// Entry + exit transition time (ns): the part of an interval that
    /// cannot be spent resident.
    budget: f64,
    /// Average power during the transition ramp (mW), modeled as the
    /// midpoint between active power and the state's resident power — the
    /// same linear-ramp model the simulator's transition meter integrates.
    ramp: f64,
    /// Power while resident (mW), at the frequency level the state pins.
    resident: f64,
}

impl Row {
    /// Joules burned spending `t` ns in this state: ramp power for up to
    /// the budget, resident power for the remainder. Same products, in the
    /// same order, as `MilliWatts * Nanos`.
    fn energy(&self, t: f64) -> f64 {
        self.ramp * t.min(self.budget) * 1e-12 + self.resident * (t - self.budget).max(0.0) * 1e-12
    }
}

/// Break-even energy model for a server's C-state catalog.
///
/// Scores any `(state, interval length)` pair in joules and picks the
/// energy-optimal state for a known interval length, so the analyzer can
/// compare the governor's causal choice against a clairvoyant oracle.
/// Every price comes from one per-interval kernel, [`BreakEven::score`].
///
/// # Examples
///
/// ```
/// use aw_cstates::CState;
/// use aw_server::HardwareModel;
/// use aw_sleep::BreakEven;
/// use aw_types::Nanos;
///
/// let cat = HardwareModel::skylake_sp().base_catalog();
/// let model = BreakEven::new(&cat, &[CState::C1, CState::C1E, CState::C6]);
/// // A 10 µs nap is too short for C6's 133 µs round trip...
/// assert_ne!(model.optimal(Nanos::from_micros(10.0), CState::C1), CState::C6);
/// // ...but a 10 ms one comfortably amortizes it.
/// assert_eq!(model.optimal(Nanos::from_millis(10.0), CState::C1), CState::C6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BreakEven {
    /// Active (C0) power at P1 — the do-nothing baseline cost.
    active: MilliWatts,
    /// Cost rows indexed by `CState::depth()` (`None` for states absent
    /// from the catalog).
    rows: [Option<Row>; CState::ALL.len()],
    /// The rows of the idle states the governor was allowed to choose,
    /// shallowest first: the oracle's candidates.
    candidates: Vec<Row>,
}

impl BreakEven {
    /// Builds the model from a catalog and the set of governor-enabled
    /// idle states. Non-idle entries (C0) and states missing from the
    /// catalog are ignored.
    #[must_use]
    pub fn new(catalog: &CStateCatalog, enabled: &[CState]) -> Self {
        let active = catalog.power(CState::C0, FreqLevel::P1);
        let mut rows = [None; CState::ALL.len()];
        for state in catalog.states() {
            let p = catalog.params(state);
            let resident = p.power(FreqLevel::P1);
            let (budget, ramp) = if state == CState::C0 {
                (Nanos::ZERO, active)
            } else {
                (p.entry_latency + p.exit_latency, (active + resident) * 0.5)
            };
            rows[state.depth() as usize] = Some(Row {
                state,
                budget: budget.as_nanos(),
                ramp: ramp.as_milliwatts(),
                resident: resident.as_milliwatts(),
            });
        }
        // `IDLE` runs shallowest first, so the candidates come out sorted
        // and without repeats.
        let candidates: Vec<Row> = CState::IDLE
            .iter()
            .filter(|s| enabled.contains(s))
            .filter_map(|s| rows[s.depth() as usize])
            .collect();
        assert!(!candidates.is_empty(), "break-even model needs at least one enabled idle state");
        Self { active, rows, candidates }
    }

    /// Builds the model straight from a server configuration, using its
    /// catalog and enabled C-state set — the common entry point for
    /// analyzing a [`aw_server::RunOutput`].
    #[must_use]
    pub fn from_server(config: &ServerConfig) -> Self {
        Self::new(&config.catalog, &config.cstates.enabled_states())
    }

    fn row(&self, state: CState) -> &Row {
        self.rows[state.depth() as usize]
            .as_ref()
            .unwrap_or_else(|| panic!("state {state} not in the catalog"))
    }

    /// The shallowest enabled idle state — the floor every interval can
    /// reach.
    #[must_use]
    pub(crate) fn shallowest(&self) -> CState {
        self.candidates[0].state
    }

    /// Entry + exit transition budget for `state`: the minimum interval
    /// length for which the state is even reachable.
    #[must_use]
    pub fn budget(&self, state: CState) -> Nanos {
        Nanos::new(self.row(state).budget)
    }

    /// The smallest transition budget across enabled states: anything above
    /// it is sleepable time in the best case.
    #[must_use]
    pub(crate) fn min_budget(&self) -> Nanos {
        self.candidates
            .iter()
            .map(|row| Nanos::new(row.budget))
            .reduce(Nanos::min)
            .expect("enabled set is non-empty")
    }

    /// Energy burned keeping the core active (C0 at P1) for `interval`.
    #[must_use]
    pub(crate) fn active_energy(&self, interval: Nanos) -> Joules {
        self.active * interval
    }

    /// The energy-optimal state for an interval of known length `interval`,
    /// chosen among the enabled states whose budget fits plus the state the
    /// governor actually `chosen` — including the causal choice guarantees
    /// the oracle never scores worse than the governor, even when a circuit
    /// breaker demoted the governor outside the enabled set. Ties go to the
    /// shallower state (less exit-latency exposure for equal energy);
    /// when no deeper state's budget fits, the shallowest enabled state
    /// wins by default.
    #[must_use]
    pub fn optimal(&self, interval: Nanos, chosen: CState) -> CState {
        self.score(interval, chosen).0
    }

    /// Scores an interval in one pass: the oracle-optimal state plus the
    /// two energies every per-interval analysis needs — `(optimal, oracle
    /// energy, achieved energy)`, i.e. `(optimal(t, c), energy(optimal,
    /// t), energy(c, t))`. The analyzer calls this once per captured
    /// interval.
    ///
    /// The candidates are the enabled states, shallowest first, then
    /// `chosen` unless it is C0. A candidate other than `chosen` whose
    /// budget exceeds the interval is skipped. Every candidate is priced
    /// and the best kept with a select rather than a branch on the budget,
    /// so the branch predictor does not guess once per interval.
    #[must_use]
    pub fn score(&self, interval: Nanos, chosen: CState) -> (CState, Joules, Joules) {
        let t = interval.as_nanos();
        let chosen_energy = self.row(chosen).energy(t);
        let (first, deeper) = self.candidates.split_first().expect("enabled set is non-empty");
        let mut best = first.state;
        let mut best_energy = first.energy(t);
        for row in deeper {
            let e = row.energy(t);
            let skip = row.state != chosen && t < row.budget;
            // Strict `<`: candidates iterate shallow→deep, so ties keep the
            // shallower state (less exit-latency exposure for equal energy).
            let better = !skip & (e < best_energy);
            best = if better { row.state } else { best };
            best_energy = if better { e } else { best_energy };
        }
        // The causal choice comes last, whatever its budget; C0 is never a
        // candidate.
        let better = chosen.is_idle() & (chosen_energy < best_energy);
        best = if better { chosen } else { best };
        best_energy = if better { chosen_energy } else { best_energy };
        (best, Joules::new(best_energy), Joules::new(chosen_energy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use aw_server::HardwareModel;

    fn baseline() -> BreakEven {
        let cat = HardwareModel::skylake_sp().base_catalog();
        BreakEven::new(&cat, &[CState::C1, CState::C1E, CState::C6])
    }

    #[test]
    fn budgets_match_table_one() {
        let m = baseline();
        assert_eq!(m.budget(CState::C1), Nanos::from_micros(2.0));
        assert_eq!(m.budget(CState::C6), Nanos::from_micros(133.0));
        assert_eq!(m.min_budget(), Nanos::from_micros(2.0));
    }

    #[test]
    fn energy_never_exceeds_active() {
        let m = baseline();
        for us in [0.5, 2.0, 10.0, 133.0, 1000.0] {
            let t = Nanos::from_micros(us);
            for s in [CState::C1, CState::C1E, CState::C6] {
                assert!(
                    m.score(t, s).2 <= m.active_energy(t) + Joules::new(1e-12),
                    "E({s}, {us}us) above active"
                );
            }
        }
    }

    #[test]
    fn oracle_prefers_depth_with_length() {
        let m = baseline();
        // Short naps stay shallow, long naps go deep.
        assert_eq!(m.optimal(Nanos::from_micros(3.0), CState::C1), CState::C1);
        assert_eq!(m.optimal(Nanos::from_millis(10.0), CState::C1), CState::C6);
        // The oracle never scores worse than the causal choice.
        let t = Nanos::from_micros(50.0);
        for chosen in [CState::C1, CState::C1E, CState::C6] {
            let opt = m.optimal(t, chosen);
            assert!(m.score(t, opt).2 <= m.score(t, chosen).2);
        }
    }

    #[test]
    fn chosen_outside_enabled_is_still_a_candidate() {
        let cat = HardwareModel::skylake_sp().catalog();
        // Only C1 enabled, but the governor (hypothetically demoted weirdly)
        // chose C6A: the oracle must consider C6A so it cannot lose to it.
        let m = BreakEven::new(&cat, &[CState::C1]);
        let t = Nanos::from_millis(1.0);
        let opt = m.optimal(t, CState::C6A);
        assert_eq!(opt, CState::C6A);
        assert!(m.score(t, opt).2 <= m.score(t, CState::C1).2);
    }

    #[test]
    fn aw_states_dominate_their_legacy_twins() {
        let m = BreakEven::new(
            &HardwareModel::skylake_sp().catalog(),
            &[CState::C6A, CState::C6AE, CState::C6],
        );
        // At 10 µs the 2 µs-budget C6A already beats everything.
        assert_eq!(m.optimal(Nanos::from_micros(10.0), CState::C6A), CState::C6A);
    }

    #[test]
    fn from_server_uses_the_config_catalog() {
        use aw_cstates::NamedConfig;
        let cfg = ServerConfig::new(4, NamedConfig::Aw);
        let m = BreakEven::from_server(&cfg);
        assert!(m.candidates.iter().any(|row| row.state == CState::C6A));
    }
}
