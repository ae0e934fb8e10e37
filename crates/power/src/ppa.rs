//! The Table 3 power-performance-area model: what C6A/C6AE cost to build.
//!
//! Every row of the paper's Table 3 is reproduced, with the low/high
//! bounds the paper carries through its analysis. The totals — 290–315 mW
//! for C6A and 227–243 mW for C6AE against 3–7% core area — are what feed
//! the C-state catalog's C6A/C6AE power entries.

use aw_types::{MilliWatts, Ratio};

use crate::regulator::Fivr;

/// A `[low, high]` power bound in milliwatts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBound {
    /// Optimistic bound.
    pub low: MilliWatts,
    /// Conservative bound.
    pub high: MilliWatts,
}

impl PowerBound {
    /// Creates a bound.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    #[must_use]
    pub(crate) fn new(low: MilliWatts, high: MilliWatts) -> Self {
        assert!(low <= high, "power bound must be ordered");
        PowerBound { low, high }
    }

    /// A degenerate bound (`low == high`).
    #[must_use]
    pub(crate) fn exact(p: MilliWatts) -> Self {
        PowerBound { low: p, high: p }
    }

    /// The midpoint, used as the catalog's single C6A/C6AE power figure.
    #[must_use]
    pub fn mid(&self) -> MilliWatts {
        (self.low + self.high) / 2.0
    }

    /// Element-wise sum of two bounds.
    #[must_use]
    pub(crate) fn add(&self, other: &PowerBound) -> PowerBound {
        PowerBound { low: self.low + other.low, high: self.high + other.high }
    }
}

/// An area overhead bound, as a fraction of the referenced base area.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaBound {
    /// Optimistic bound.
    pub low: Ratio,
    /// Conservative bound.
    pub high: Ratio,
    /// What the fraction is relative to ("power-gated area", "core", …).
    pub basis: &'static str,
}

/// The Table 3 component taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PpaComponent {
    /// UFPG unit power gates over ~70% of the core.
    UfpgGates,
    /// UFPG in-place context retention (ungated registers, SRPGs, SRAM).
    UfpgRetention,
    /// CCSM: L1/L2 data arrays in sleep mode.
    CcsmCaches,
    /// CCSM: the rest of the power-ungated memory subsystem (tags,
    /// controllers).
    CcsmRest,
    /// The C6A controller FSM in the PMA.
    PmaFlow,
    /// The always-on ADPLL.
    Adpll,
    /// FIVR light-load conversion loss.
    FivrConversion,
    /// FIVR static control/feedback loss.
    FivrStatic,
}

/// One row of Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct PpaRow {
    /// Which component.
    pub component: PpaComponent,
    /// Human-readable sub-component description.
    pub description: &'static str,
    /// Area requirement.
    pub area: AreaBound,
    /// Idle power drawn in C6A.
    pub c6a: PowerBound,
    /// Idle power drawn in C6AE.
    pub c6ae: PowerBound,
}

/// The AgileWatts PPA model, parameterized by the quantities the paper
/// derives them from.
///
/// # Examples
///
/// ```
/// use aw_power::PpaModel;
///
/// let model = PpaModel::skylake();
/// let c6a = model.c6a_total();
/// let c6ae = model.c6ae_total();
/// // Table 3 overall: 290–315 mW (C6A), 227–243 mW (C6AE).
/// assert!((285.0..300.0).contains(&c6a.low.as_milliwatts()));
/// assert!((305.0..325.0).contains(&c6a.high.as_milliwatts()));
/// assert!((220.0..235.0).contains(&c6ae.low.as_milliwatts()));
/// assert!((238.0..250.0).contains(&c6ae.high.as_milliwatts()));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PpaModel {
    /// Core leakage proxy at P1: ≈ the C1 power (clock-gating removes
    /// dynamic power, leaving leakage), paper footnote 4.
    pub core_leakage_p1: MilliWatts,
    /// Core leakage proxy at Pn: ≈ the C1E power.
    pub core_leakage_pn: MilliWatts,
    /// Fraction of core leakage contributed by the power-gated units
    /// (derived from the core-power-breakdown tool): ~70%.
    pub gated_leakage_fraction: Ratio,
    /// Residual leakage through the power gates: 3–5%.
    pub gate_residual: (Ratio, Ratio),
    /// Context retention power at retention voltage (the ~8 kB context).
    pub retention_base: MilliWatts,
    /// Conservative retention multipliers at P1 / Pn voltage (×10 / ×5).
    pub retention_multiplier: (f64, f64),
    /// CCSM cache sleep-mode power at C6A / C6AE voltage (55 / 40 mW).
    pub ccsm_caches: (MilliWatts, MilliWatts),
    /// CCSM rest-of-memory-subsystem power at C6A / C6AE (55 / 33 mW).
    pub ccsm_rest: (MilliWatts, MilliWatts),
    /// The C6A controller's addition to PMA power (5 mW).
    pub pma_flow: MilliWatts,
    /// ADPLL power, fixed across voltage/frequency (7 mW).
    pub adpll: MilliWatts,
    /// The FIVR loss model.
    pub fivr: Fivr,
}

impl PpaModel {
    /// The paper's Skylake-calibrated instance.
    #[must_use]
    pub fn skylake() -> Self {
        PpaModel {
            core_leakage_p1: MilliWatts::from_watts(1.44),
            core_leakage_pn: MilliWatts::from_watts(0.88),
            gated_leakage_fraction: Ratio::new(0.70),
            gate_residual: (Ratio::new(0.03), Ratio::new(0.05)),
            retention_base: MilliWatts::new(0.2),
            retention_multiplier: (10.0, 5.0),
            ccsm_caches: (MilliWatts::new(55.0), MilliWatts::new(40.0)),
            ccsm_rest: (MilliWatts::new(55.0), MilliWatts::new(33.0)),
            pma_flow: MilliWatts::new(5.0),
            adpll: MilliWatts::new(7.0),
            fivr: Fivr::skylake(),
        }
    }

    /// UFPG residual gate leakage bound in C6A (at P1 leakage):
    /// `gated_fraction × core_leakage × residual` → ~30–50 mW.
    #[must_use]
    pub(crate) fn ufpg_gates_c6a(&self) -> PowerBound {
        let gated = self.core_leakage_p1 * self.gated_leakage_fraction;
        PowerBound::new(gated * self.gate_residual.0, gated * self.gate_residual.1)
    }

    /// UFPG residual gate leakage bound in C6AE (at Pn leakage):
    /// ~18–30 mW.
    #[must_use]
    pub(crate) fn ufpg_gates_c6ae(&self) -> PowerBound {
        let gated = self.core_leakage_pn * self.gated_leakage_fraction;
        PowerBound::new(gated * self.gate_residual.0, gated * self.gate_residual.1)
    }

    /// Context retention power: ~2 mW at P1 voltage, ~1 mW at Pn.
    #[must_use]
    pub(crate) fn retention(&self) -> (MilliWatts, MilliWatts) {
        (
            self.retention_base * self.retention_multiplier.0,
            self.retention_base * self.retention_multiplier.1,
        )
    }

    /// Sum of on-die loads the FIVR must deliver in C6A (everything except
    /// the FIVR's own losses).
    #[must_use]
    pub(crate) fn c6a_load(&self) -> PowerBound {
        let (ret_p1, _) = self.retention();
        self.ufpg_gates_c6a()
            .add(&PowerBound::exact(ret_p1))
            .add(&PowerBound::exact(self.ccsm_caches.0))
            .add(&PowerBound::exact(self.ccsm_rest.0))
            .add(&PowerBound::exact(self.pma_flow))
            .add(&PowerBound::exact(self.adpll))
    }

    /// Sum of on-die loads in C6AE.
    #[must_use]
    pub(crate) fn c6ae_load(&self) -> PowerBound {
        let (_, ret_pn) = self.retention();
        self.ufpg_gates_c6ae()
            .add(&PowerBound::exact(ret_pn))
            .add(&PowerBound::exact(self.ccsm_caches.1))
            .add(&PowerBound::exact(self.ccsm_rest.1))
            .add(&PowerBound::exact(self.pma_flow))
            .add(&PowerBound::exact(self.adpll))
    }

    /// FIVR conversion loss bound for the C6A load (~36–44 mW).
    #[must_use]
    pub(crate) fn fivr_conversion_c6a(&self) -> PowerBound {
        let load = self.c6a_load();
        PowerBound::new(self.fivr.conversion_loss(load.low), self.fivr.conversion_loss(load.high))
    }

    /// FIVR conversion loss bound for the C6AE load (~23–29 mW).
    #[must_use]
    pub(crate) fn fivr_conversion_c6ae(&self) -> PowerBound {
        let load = self.c6ae_load();
        PowerBound::new(self.fivr.conversion_loss(load.low), self.fivr.conversion_loss(load.high))
    }

    /// Total C6A idle power (Table 3 "Overall" row, first column).
    #[must_use]
    pub fn c6a_total(&self) -> PowerBound {
        self.c6a_load()
            .add(&self.fivr_conversion_c6a())
            .add(&PowerBound::exact(self.fivr.static_loss()))
    }

    /// Total C6AE idle power (Table 3 "Overall" row, second column).
    #[must_use]
    pub fn c6ae_total(&self) -> PowerBound {
        self.c6ae_load()
            .add(&self.fivr_conversion_c6ae())
            .add(&PowerBound::exact(self.fivr.static_loss()))
    }

    /// Overall core area overhead: 3–7% of the core (Table 3).
    #[must_use]
    pub fn area_total(&self) -> AreaBound {
        AreaBound { low: Ratio::new(0.03), high: Ratio::new(0.07), basis: "core" }
    }

    /// Every row of Table 3.
    #[must_use]
    pub fn rows(&self) -> Vec<PpaRow> {
        let (ret_p1, ret_pn) = self.retention();
        vec![
            PpaRow {
                component: PpaComponent::UfpgGates,
                description: "Unit power-gates (~70% of the core)",
                area: AreaBound {
                    low: Ratio::new(0.02),
                    high: Ratio::new(0.06),
                    basis: "power-gated area",
                },
                c6a: self.ufpg_gates_c6a(),
                c6ae: self.ufpg_gates_c6ae(),
            },
            PpaRow {
                component: PpaComponent::UfpgRetention,
                description: "Ungated context registers + SRPGs + ungated SRAM",
                area: AreaBound {
                    low: Ratio::new(0.0),
                    high: Ratio::new(0.01),
                    basis: "retained context area",
                },
                c6a: PowerBound::exact(ret_p1),
                c6ae: PowerBound::exact(ret_pn),
            },
            PpaRow {
                component: PpaComponent::CcsmCaches,
                description: "L1/L2 caches in sleep-mode",
                area: AreaBound {
                    low: Ratio::new(0.02),
                    high: Ratio::new(0.06),
                    basis: "private cache area",
                },
                c6a: PowerBound::exact(self.ccsm_caches.0),
                c6ae: PowerBound::exact(self.ccsm_caches.1),
            },
            PpaRow {
                component: PpaComponent::CcsmRest,
                description: "Rest of the memory subsystem (tags, controllers)",
                area: AreaBound {
                    low: Ratio::new(0.0),
                    high: Ratio::new(0.01),
                    basis: "ungated units",
                },
                c6a: PowerBound::exact(self.ccsm_rest.0),
                c6ae: PowerBound::exact(self.ccsm_rest.1),
            },
            PpaRow {
                component: PpaComponent::PmaFlow,
                description: "C6A controller FSM in the uncore PMA",
                area: AreaBound {
                    low: Ratio::new(0.0),
                    high: Ratio::new(0.05),
                    basis: "core PMA area",
                },
                c6a: PowerBound::exact(self.pma_flow),
                c6ae: PowerBound::exact(self.pma_flow),
            },
            PpaRow {
                component: PpaComponent::Adpll,
                description: "ADPLL kept on and locked",
                area: AreaBound { low: Ratio::ZERO, high: Ratio::ZERO, basis: "core" },
                c6a: PowerBound::exact(self.adpll),
                c6ae: PowerBound::exact(self.adpll),
            },
            PpaRow {
                component: PpaComponent::FivrConversion,
                description: "Core FIVR light-load conversion inefficiency",
                area: AreaBound { low: Ratio::ZERO, high: Ratio::ZERO, basis: "core" },
                c6a: self.fivr_conversion_c6a(),
                c6ae: self.fivr_conversion_c6ae(),
            },
            PpaRow {
                component: PpaComponent::FivrStatic,
                description: "FIVR static control/feedback losses",
                area: AreaBound { low: Ratio::ZERO, high: Ratio::ZERO, basis: "core" },
                c6a: PowerBound::exact(self.fivr.static_loss()),
                c6ae: PowerBound::exact(self.fivr.static_loss()),
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ufpg_gate_bounds_match_paper() {
        let m = PpaModel::skylake();
        let c6a = m.ufpg_gates_c6a();
        assert!((29.0..32.0).contains(&c6a.low.as_milliwatts()), "{:?}", c6a);
        assert!((48.0..52.0).contains(&c6a.high.as_milliwatts()), "{:?}", c6a);
        let c6ae = m.ufpg_gates_c6ae();
        assert!((17.0..20.0).contains(&c6ae.low.as_milliwatts()), "{:?}", c6ae);
        assert!((29.0..32.0).contains(&c6ae.high.as_milliwatts()), "{:?}", c6ae);
    }

    #[test]
    fn retention_power() {
        let (p1, pn) = PpaModel::skylake().retention();
        assert_eq!(p1, MilliWatts::new(2.0));
        assert_eq!(pn, MilliWatts::new(1.0));
    }

    #[test]
    fn fivr_conversion_in_paper_range() {
        let m = PpaModel::skylake();
        let c = m.fivr_conversion_c6a();
        // Paper: 36–41 mW; our self-consistent bound: 38.5–43.5 mW.
        assert!((35.0..45.0).contains(&c.low.as_milliwatts()), "{:?}", c);
        assert!((38.0..46.0).contains(&c.high.as_milliwatts()), "{:?}", c);
        let ce = m.fivr_conversion_c6ae();
        assert!((23.0..30.0).contains(&ce.low.as_milliwatts()), "{:?}", ce);
    }

    #[test]
    fn totals_bracket_table1_headline() {
        let m = PpaModel::skylake();
        // Table 1 quotes ~0.3 W for C6A, ~0.23 W for C6AE: the midpoints.
        let c6a_mid = m.c6a_total().mid().as_watts();
        let c6ae_mid = m.c6ae_total().mid().as_watts();
        assert!((0.28..0.32).contains(&c6a_mid), "{c6a_mid}");
        assert!((0.22..0.25).contains(&c6ae_mid), "{c6ae_mid}");
    }

    #[test]
    fn c6ae_strictly_cheaper_than_c6a() {
        let m = PpaModel::skylake();
        assert!(m.c6ae_total().low < m.c6a_total().low);
        assert!(m.c6ae_total().high < m.c6a_total().high);
    }

    #[test]
    fn rows_sum_to_totals() {
        let m = PpaModel::skylake();
        let rows = m.rows();
        let sum_c6a: MilliWatts = rows.iter().map(|r| r.c6a.mid()).sum();
        let sum_c6ae: MilliWatts = rows.iter().map(|r| r.c6ae.mid()).sum();
        assert!((sum_c6a.as_milliwatts() - m.c6a_total().mid().as_milliwatts()).abs() < 1e-6);
        assert!((sum_c6ae.as_milliwatts() - m.c6ae_total().mid().as_milliwatts()).abs() < 1e-6);
    }

    #[test]
    fn eight_rows_like_table3() {
        assert_eq!(PpaModel::skylake().rows().len(), 8);
    }

    #[test]
    fn area_and_frequency_overheads() {
        let m = PpaModel::skylake();
        let area = m.area_total();
        assert_eq!(area.low, Ratio::new(0.03));
        assert_eq!(area.high, Ratio::new(0.07));
    }

    #[test]
    fn fivr_static_dominates_c6a_floor() {
        // The FIVR static loss (100 mW) is the single largest Table 3
        // entry — the paper's point that regulator overheads set the deep
        // idle floor.
        let m = PpaModel::skylake();
        for row in m.rows() {
            if row.component != PpaComponent::FivrStatic {
                assert!(row.c6a.mid() <= m.fivr.static_loss());
            }
        }
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn bound_rejects_inversion() {
        let _ = PowerBound::new(MilliWatts::new(2.0), MilliWatts::new(1.0));
    }
}

/// Builds the AW C-state catalog with C6A/C6AE powers taken from a PPA
/// model instead of the Table 1 defaults.
///
/// This closes the loop between Table 3 and Table 1: change a PPA input
/// (say, a better FIVR) and the simulator's C6A power follows.
///
/// # Examples
///
/// ```
/// use aw_cstates::{CState, FreqLevel};
/// use aw_power::{catalog_from_ppa, Fivr, PpaModel};
/// use aw_types::{MilliWatts, Ratio};
///
/// // A hypothetical FIVR with half the static loss:
/// let mut model = PpaModel::skylake();
/// model.fivr = Fivr::new(MilliWatts::new(50.0), Ratio::new(0.8));
/// let catalog = catalog_from_ppa(&model);
/// assert!(catalog.power(CState::C6A, FreqLevel::P1) < MilliWatts::new(270.0));
/// ```
#[must_use]
pub fn catalog_from_ppa(model: &PpaModel) -> aw_cstates::CStateCatalog {
    use aw_cstates::CState;
    let mut catalog = aw_hw::HardwareModel::skylake_sp().catalog();
    let mut c6a = *catalog.params(CState::C6A);
    c6a.power_p1 = model.c6a_total().mid();
    c6a.power_pn = model.c6a_total().mid();
    catalog.set_params(c6a);
    let mut c6ae = *catalog.params(CState::C6AE);
    c6ae.power_p1 = model.c6ae_total().mid();
    c6ae.power_pn = model.c6ae_total().mid();
    catalog.set_params(c6ae);
    catalog
}

#[cfg(test)]
mod catalog_tests {
    use super::*;
    use crate::catalog_from_ppa;
    use aw_cstates::{CState, FreqLevel};

    #[test]
    fn default_ppa_matches_builtin_catalog_within_tolerance() {
        let from_ppa = catalog_from_ppa(&PpaModel::skylake());
        let builtin = aw_hw::HardwareModel::skylake_sp().catalog();
        let a = from_ppa.power(CState::C6A, FreqLevel::P1).as_milliwatts();
        let b = builtin.power(CState::C6A, FreqLevel::P1).as_milliwatts();
        assert!((a - b).abs() < 15.0, "{a} vs {b}");
    }

    #[test]
    fn ppa_changes_flow_into_the_catalog() {
        let mut cheap = PpaModel::skylake();
        cheap.pma_flow = MilliWatts::ZERO;
        cheap.adpll = MilliWatts::ZERO;
        let catalog = catalog_from_ppa(&cheap);
        let baseline = catalog_from_ppa(&PpaModel::skylake());
        assert!(
            catalog.power(CState::C6A, FreqLevel::P1) < baseline.power(CState::C6A, FreqLevel::P1)
        );
    }

    #[test]
    fn latencies_unchanged_by_ppa() {
        let catalog = catalog_from_ppa(&PpaModel::skylake());
        let builtin = aw_hw::HardwareModel::skylake_sp().catalog();
        assert_eq!(
            catalog.params(CState::C6A).exit_latency,
            builtin.params(CState::C6A).exit_latency
        );
    }
}
