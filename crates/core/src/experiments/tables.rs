//! The five table experiments.

use aw_cstates::{CState, ComponentMatrix, FreqLevel, NamedConfig};
use aw_exec::SweepExecutor;
use aw_pma::{Ufpg, WakePolicy};
use aw_power::{PpaModel, TcoModel};
use aw_server::{HardwareModel, ServerConfig, SimBuilder};
use aw_types::Nanos;
use aw_workloads::memcached_etc;

use crate::report::TextTable;

/// Table 1: C-states available on the modeled Skylake server core plus
/// AW's C6A/C6AE.
///
/// # Examples
///
/// ```
/// let t = agilewatts::experiments::table1();
/// assert_eq!(t.rows.len(), 6);
/// println!("{t}");
/// ```
#[must_use]
pub fn table1() -> TextTable {
    table1_for(HardwareModel::skylake_sp())
}

/// [`table1`] retargeted onto another hardware model: that model's base
/// menu plus the generically derived agile states, with its own
/// latencies and powers.
#[must_use]
pub fn table1_for(hw: &'static HardwareModel) -> TextTable {
    let catalog = hw.catalog();
    let title = if hw.name == "skylake-sp" {
        "Table 1: Core C-states (Skylake server + AgileWatts)".to_string()
    } else {
        format!("Table 1: Core C-states ({} + AgileWatts)", hw.vendor)
    };
    let mut t = TextTable::new(
        &title,
        &["C-state", "Transition time", "Target residency", "Power per core"],
    );
    for state in catalog.states() {
        let p = catalog.params(state);
        let label = match state.freq_level() {
            FreqLevel::P1 if state != CState::C6 => format!("{state} (P1)"),
            FreqLevel::Pn => format!("{state} (Pn)"),
            _ => state.to_string(),
        };
        let transition =
            if state == CState::C0 { "N/A".to_string() } else { p.transition_time.to_string() };
        let residency =
            if state == CState::C0 { "N/A".to_string() } else { p.target_residency.to_string() };
        t.push_row(vec![label, transition, residency, p.power(FreqLevel::P1).to_string()]);
    }
    t
}

/// Table 2: per-component states in every C-state.
#[must_use]
pub fn table2() -> TextTable {
    let mut t = TextTable::new(
        "Table 2: Core component states per C-state",
        &["C-state", "Clocks", "ADPLL", "L1/L2", "Voltage", "Context"],
    );
    for row in ComponentMatrix::table() {
        t.push_row(vec![
            row.state.to_string(),
            format!("{:?}", row.clocks),
            format!("{:?}", row.pll),
            format!("{:?}", row.caches),
            format!("{:?}", row.voltage),
            format!("{:?}", row.context),
        ]);
    }
    t
}

/// Table 3: area and power requirements of the AW implementation.
#[must_use]
pub fn table3() -> TextTable {
    let model = PpaModel::skylake();
    let mut t = TextTable::new(
        "Table 3: AW area & power requirements (Skylake-like core)",
        &["Component", "Area requirement", "C6A power", "C6AE power"],
    );
    for row in model.rows() {
        let area = if row.area.high.get() == 0.0 {
            "0%".to_string()
        } else if row.area.low.get() == row.area.high.get() {
            format!("{:.0}% of {}", row.area.high.as_percent(), row.area.basis)
        } else {
            format!(
                "{:.0}–{:.0}% of {}",
                row.area.low.as_percent(),
                row.area.high.as_percent(),
                row.area.basis
            )
        };
        let fmt_bound = |b: &aw_power::PowerBound| {
            if b.low == b.high {
                format!("{}", b.low)
            } else {
                format!("{}–{}", b.low, b.high)
            }
        };
        t.push_row(vec![
            row.description.to_string(),
            area,
            fmt_bound(&row.c6a),
            fmt_bound(&row.c6ae),
        ]);
    }
    let c6a = model.c6a_total();
    let c6ae = model.c6ae_total();
    t.push_row(vec![
        "Overall".into(),
        "3–7% of the core".into(),
        format!("{}–{}", c6a.low, c6a.high),
        format!("{}–{}", c6ae.low, c6ae.high),
    ]);
    t
}

/// Table 4: comparison of core power-gating schemes, with AW's wake-up
/// overhead *measured* from the cycle-level PMA model rather than quoted.
#[must_use]
pub fn table4() -> TextTable {
    let mut t = TextTable::new(
        "Table 4: Core power-gating schemes",
        &["Technique", "Core type", "Trigger", "Power-gated blocks", "Wake-up overhead"],
    );
    for (tech, core, trigger, blocks, wake) in [
        ("Roy et al. [109]", "In-order CPU", "Cache miss", "Register file", "5 cycles".to_string()),
        ("MAPG [102]", "In-order CPU", "Cache miss", "Core", "10 ns".to_string()),
        (
            "Hu et al. [47]",
            "OoO CPU",
            "Execution unit idle",
            "Execution units",
            "9 cycles".to_string(),
        ),
        (
            "Battle et al. [110]",
            "OoO CPU",
            "RF bank idle",
            "Register file bank",
            "17 cycles".to_string(),
        ),
        (
            "GPU RF virt. [111]",
            "GPU",
            "Subarray unused",
            "Register subarray",
            "10 cycles".to_string(),
        ),
        (
            "Intel AVX PG [35]",
            "OoO CPU",
            "AVX unit idle",
            "AVX execution units",
            "~10–15 ns".to_string(),
        ),
    ] {
        t.push_row(vec![tech.into(), core.into(), trigger.into(), blocks.into(), wake]);
    }
    // AW's row comes from the model, not a citation.
    let measured = Ufpg::skylake_c6a().wake(WakePolicy::Staggered).latency;
    t.push_row(vec![
        "AW (this work)".into(),
        "OoO CPU".into(),
        "Core idle".into(),
        "Most of core units".into(),
        format!("~{measured} (measured)"),
    ]);
    t
}

/// Parameters for the Table 5 TCO sweep.
#[derive(Debug, Clone)]
pub struct Table5Params {
    /// Memcached offered loads to evaluate (requests/s).
    pub qps: Vec<f64>,
    /// Server cores simulated.
    pub cores: usize,
    /// Simulated duration per point.
    pub duration: Nanos,
    /// RNG seed.
    pub seed: u64,
    /// Hardware model the fleet is built on.
    pub hw: &'static HardwareModel,
}

impl Default for Table5Params {
    fn default() -> Self {
        Table5Params {
            qps: vec![10e3, 50e3, 100e3, 200e3, 300e3, 400e3, 500e3],
            cores: 10,
            duration: Nanos::from_millis(400.0),
            seed: 42,
            hw: HardwareModel::skylake_sp(),
        }
    }
}

impl Table5Params {
    /// A reduced sweep for tests.
    #[must_use]
    pub fn quick() -> Self {
        Table5Params {
            qps: vec![50e3, 300e3],
            cores: 4,
            duration: Nanos::from_millis(60.0),
            ..Self::default()
        }
    }

    /// Retargets the sweep onto another hardware model.
    #[must_use]
    pub fn with_hw(mut self, hw: &'static HardwareModel) -> Self {
        self.hw = hw;
        self
    }
}

/// Table 5: yearly datacenter cost savings per 100 K servers, from
/// simulated Memcached runs at each load level.
///
/// For each QPS point, the baseline and AW configurations are simulated;
/// the per-core `ΔAvgP` feeds the [`TcoModel`].
#[must_use]
pub fn table5(params: &Table5Params) -> TextTable {
    let tco = TcoModel::paper_instance();
    let mut t = TextTable::new(
        "Table 5: AW yearly cost savings per 100K servers (Memcached)",
        &["QPS", "Baseline AvgP", "AW AvgP", "ΔP per core", "Savings ($M/yr)"],
    );
    // Each QPS point is an independent baseline + AW pair; run the
    // points on the ambient executor and push rows in load order.
    let rows = SweepExecutor::current().map(&params.qps, |&qps| {
        let run = |named: NamedConfig| {
            let cfg =
                ServerConfig::for_hw(params.hw, params.cores, named).with_duration(params.duration);
            SimBuilder::new(cfg, memcached_etc(qps), params.seed).run().into_metrics()
        };
        let baseline = run(NamedConfig::Baseline);
        let aw = run(NamedConfig::Aw);
        let delta = (baseline.avg_core_power - aw.avg_core_power).clamp_non_negative();
        let dollars = tco.yearly_fleet_savings(delta);
        vec![
            format!("{:.0}K", qps / 1e3),
            baseline.avg_core_power.to_string(),
            aw.avg_core_power.to_string(),
            delta.to_string(),
            format!("{:.2}", dollars / 1e6),
        ]
    });
    for row in rows {
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use aw_cstates::C6AFlow;
    use aw_pma::PmaFsm;

    use super::*;

    #[test]
    fn table1_has_all_six_states() {
        let t = table1();
        assert_eq!(t.rows.len(), 6);
        let text = t.to_string();
        for s in ["C0", "C1", "C1E", "C6A", "C6AE", "C6"] {
            assert!(text.contains(s), "missing {s}");
        }
        assert!(text.contains("133.000µs"));
    }

    #[test]
    fn table2_matches_matrix() {
        let t = table2();
        assert_eq!(t.rows.len(), 6);
        assert!(t.to_string().contains("InPlaceRetention"));
    }

    #[test]
    fn table3_has_overall_row() {
        let t = table3();
        let text = t.to_string();
        assert!(text.contains("Overall"));
        assert!(text.contains("3–7% of the core"));
    }

    #[test]
    fn table4_includes_measured_aw_row() {
        let t = table4();
        assert_eq!(t.rows.len(), 7);
        let text = t.to_string();
        assert!(text.contains("AW (this work)"));
        assert!(text.contains("measured"));
        // The measured wake is the 67.5 ns staggered UFPG wake.
        assert!(text.contains("67.5"));
    }

    #[test]
    fn table5_savings_are_positive_and_plausible() {
        let t = table5(&Table5Params::quick());
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let dollars: f64 = row[4].parse().unwrap();
            assert!(dollars > 0.05, "savings {dollars}M too small");
            assert!(dollars < 3.0, "savings {dollars}M too large");
        }
    }

    #[test]
    fn c6a_round_trip_under_100ns() {
        // The analytical budget and the cycle-level PMA flow agree on
        // the paper's "<100 ns" headline.
        let analytical = C6AFlow::new().round_trip();
        let mut fsm = PmaFsm::new_c6a();
        let measured = fsm.run_entry().expect("fresh FSM is active").total()
            + fsm.run_exit().expect("idle core can exit").total();
        assert!(analytical < Nanos::new(100.0));
        assert!(measured < Nanos::new(100.0));
    }
}
