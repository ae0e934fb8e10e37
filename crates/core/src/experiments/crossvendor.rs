//! The cross-vendor frontier: the Fig. 8 sweep on every registered
//! hardware model, side by side.
//!
//! AgileWatts' argument is architectural, not part-specific: any core
//! whose retention C-state keeps caches coherent trades a ~100 ns wake
//! penalty for near-C6 idle power. Running the same workload grid over
//! each registered [`HardwareModel`] (Skylake-SP, Zen 2, …) shows how
//! far the power/latency frontier moves on each vendor's own menu,
//! powers, and transition latencies — and that the AW derivation
//! ([`aw_hw::derive_aw`]) produces a sensible agile menu from either
//! base catalog.

use std::fmt;

use aw_server::HardwareModel;

use super::{Fig8, Fig8Report, SweepParams};

/// One hardware model's slice of the cross-vendor grid.
#[derive(Debug, Clone)]
pub struct CrossVendorEntry {
    /// Registry name (`skylake-sp`, `zen2`, …).
    pub model: String,
    /// Human-readable part description.
    pub vendor: String,
    /// The full Fig. 8 report swept on this model.
    pub report: Fig8Report,
}

/// The cross-vendor report: one Fig. 8 frontier per hardware model.
#[derive(Debug, Clone)]
pub struct CrossVendorReport {
    /// Entries in registry order (or the order given to
    /// [`CrossVendor::with_models`]).
    pub entries: Vec<CrossVendorEntry>,
}

impl CrossVendorReport {
    /// The entry for a model name, if it was part of the grid.
    #[must_use]
    pub fn entry(&self, model: &str) -> Option<&CrossVendorEntry> {
        self.entries.iter().find(|e| e.model == model)
    }
}

/// Fig. 8 across vendors: the same sweep parameters retargeted onto
/// every registered hardware model.
#[derive(Debug, Clone)]
pub struct CrossVendor {
    params: SweepParams,
    models: Vec<&'static HardwareModel>,
}

impl CrossVendor {
    /// Creates the experiment over every registered hardware model.
    #[must_use]
    pub fn new(params: SweepParams) -> Self {
        CrossVendor { params, models: HardwareModel::all().iter().collect() }
    }

    /// Restricts the grid to an explicit model list.
    #[must_use]
    pub fn with_models(mut self, models: Vec<&'static HardwareModel>) -> Self {
        assert!(!models.is_empty(), "cross-vendor grid needs at least one model");
        self.models = models;
        self
    }

    /// Runs the grid: one full Fig. 8 sweep per model. Each sweep
    /// already fans its load points out on the ambient executor, so the
    /// models run serially.
    #[must_use]
    pub fn run(&self) -> CrossVendorReport {
        let entries = self
            .models
            .iter()
            .map(|&hw| CrossVendorEntry {
                model: hw.name.to_string(),
                vendor: hw.vendor.to_string(),
                report: Fig8::new(self.params.clone().with_hw(hw)).run(),
            })
            .collect();
        CrossVendorReport { entries }
    }
}

impl fmt::Display for CrossVendorReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Cross-vendor AW frontier — the Fig. 8 grid per hardware model")?;
        for e in &self.entries {
            writeln!(f, "\n── {} — {}", e.model, e.vendor)?;
            write!(f, "{}", e.report)?;
        }
        // The side-by-side frontier: simulated AW power savings per
        // model at every common load point.
        writeln!(f, "\nAW power savings by model (simulated, %)")?;
        write!(f, "{:>9}", "QPS")?;
        for e in &self.entries {
            write!(f, "  {:>12}", e.model)?;
        }
        writeln!(f)?;
        let rows = self.entries.first().map_or(0, |e| e.report.rows.len());
        for i in 0..rows {
            write!(f, "{:>9.0}", self.entries[0].report.rows[i].qps)?;
            for e in &self.entries {
                match e.report.rows.get(i) {
                    Some(r) => write!(f, "  {:>12.1}", r.power_savings_pct)?,
                    None => write!(f, "  {:>12}", "-")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_registered_model() {
        let report = CrossVendor::new(SweepParams::quick()).run();
        assert_eq!(report.entries.len(), HardwareModel::all().len());
        assert!(report.entry("skylake-sp").is_some());
        assert!(report.entry("zen2").is_some());
        // AW saves power at low load on both vendors' calibrations.
        for e in &report.entries {
            assert!(
                e.report.rows[0].power_savings_pct > 5.0,
                "{}: {}",
                e.model,
                e.report.rows[0].power_savings_pct
            );
        }
    }

    #[test]
    fn rendering_puts_the_models_side_by_side() {
        let report = CrossVendor::new(SweepParams::quick())
            .with_models(vec![HardwareModel::skylake_sp(), HardwareModel::zen2()]);
        let text = report.run().to_string();
        assert!(text.contains("skylake-sp"));
        assert!(text.contains("zen2"));
        assert!(text.contains("AW power savings by model"));
    }
}
