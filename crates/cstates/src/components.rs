//! The per-component state matrix of paper Table 2.
//!
//! Each C-state is defined by what happens to five core components: the
//! clock distribution, the ADPLL clock generator, the private L1/L2 caches,
//! the voltage domain, and the microarchitectural context.

use std::fmt;

use crate::CState;

/// State of the core clock distribution network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClockState {
    /// Clocks toggling; the core executes.
    Running,
    /// Clock-gated (the dominant dynamic-power saving of shallow states).
    Stopped,
}

/// State of the all-digital phase-locked loop clock generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PllState {
    /// Powered and locked; re-enabling clocks takes 1–2 cycles.
    On,
    /// Powered off; relocking costs microseconds on exit.
    Off,
}

/// State of the private L1/L2 caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheState {
    /// Content retained and coherent; the core answers snoops.
    Coherent,
    /// Flushed to the shared cache; snoops need no core involvement but
    /// entry paid the multi-tens-of-microseconds flush.
    Flushed,
}

/// State of the core voltage domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VoltageState {
    /// Nominal operating voltage.
    Active,
    /// Minimum operational voltage/frequency (Pn).
    MinVf,
    /// AW C6A: UFPG domain power-gated, retention rails and cache
    /// sleep-mode active, remainder at nominal voltage.
    PgRetentionActive,
    /// AW C6AE: as C6A but the ungated domain sits at minimum voltage.
    PgRetentionMinVf,
    /// Power completely shut off (legacy C6).
    ShutOff,
}

/// Where the microarchitectural context lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContextState {
    /// Live in the powered core.
    Maintained,
    /// Retained *in place* by AW's UFPG (ungated registers, SRPG flops,
    /// ungated SRAM) — no save/restore cost.
    InPlaceRetention,
    /// Serialized to the external save/restore SRAM in the uncore
    /// (microseconds each way).
    SaveRestoreSram,
}

/// One row of Table 2: the five component states for a given C-state.
///
/// # Examples
///
/// ```
/// use aw_cstates::{CState, CacheState, ComponentMatrix, ContextState, PllState};
///
/// let table = ComponentMatrix::table();
/// let row = |state| table.iter().find(|r| r.state == state).expect("every state has a row");
/// let c6a = row(CState::C6A);
/// // The AW insight: deep power-gating while caches stay coherent,
/// // context stays in place, and the PLL stays locked.
/// assert_eq!(c6a.caches, CacheState::Coherent);
/// assert_eq!(c6a.context, ContextState::InPlaceRetention);
/// assert_eq!(c6a.pll, PllState::On);
///
/// let c6 = row(CState::C6);
/// assert_eq!(c6.caches, CacheState::Flushed);
/// assert_eq!(c6.context, ContextState::SaveRestoreSram);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentMatrix {
    /// Which C-state this row describes.
    pub state: CState,
    /// Clock distribution state.
    pub clocks: ClockState,
    /// ADPLL state.
    pub pll: PllState,
    /// Private cache state.
    pub caches: CacheState,
    /// Voltage domain state.
    pub voltage: VoltageState,
    /// Context location.
    pub context: ContextState,
}

impl ComponentMatrix {
    /// The Table 2 row for `state`.
    #[must_use]
    pub(crate) fn for_state(state: CState) -> Self {
        let (clocks, pll, caches, voltage, context) = match state {
            CState::C0 => (
                ClockState::Running,
                PllState::On,
                CacheState::Coherent,
                VoltageState::Active,
                ContextState::Maintained,
            ),
            CState::C1 => (
                ClockState::Stopped,
                PllState::On,
                CacheState::Coherent,
                VoltageState::Active,
                ContextState::Maintained,
            ),
            CState::C1E => (
                ClockState::Stopped,
                PllState::On,
                CacheState::Coherent,
                VoltageState::MinVf,
                ContextState::Maintained,
            ),
            CState::C6A => (
                ClockState::Stopped,
                PllState::On,
                CacheState::Coherent,
                VoltageState::PgRetentionActive,
                ContextState::InPlaceRetention,
            ),
            CState::C6AE => (
                ClockState::Stopped,
                PllState::On,
                CacheState::Coherent,
                VoltageState::PgRetentionMinVf,
                ContextState::InPlaceRetention,
            ),
            CState::C6 => (
                ClockState::Stopped,
                PllState::Off,
                CacheState::Flushed,
                VoltageState::ShutOff,
                ContextState::SaveRestoreSram,
            ),
        };
        ComponentMatrix { state, clocks, pll, caches, voltage, context }
    }

    /// All six rows of Table 2, shallowest state first.
    #[must_use]
    pub fn table() -> Vec<ComponentMatrix> {
        CState::ALL.iter().map(|&s| Self::for_state(s)).collect()
    }
}

impl fmt::Display for ComponentMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<5} clocks={:?} pll={:?} caches={:?} voltage={:?} context={:?}",
            self.state.to_string(),
            self.clocks,
            self.pll,
            self.caches,
            self.voltage,
            self.context
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_c0_runs_clocks() {
        for row in ComponentMatrix::table() {
            assert_eq!(row.clocks == ClockState::Running, row.state == CState::C0);
        }
    }

    #[test]
    fn only_c6_drops_pll_and_flushes() {
        for row in ComponentMatrix::table() {
            assert_eq!(row.pll == PllState::Off, row.state == CState::C6);
            assert_eq!(row.caches == CacheState::Flushed, row.state == CState::C6);
        }
    }

    #[test]
    fn aw_states_retain_in_place() {
        for s in [CState::C6A, CState::C6AE] {
            let row = ComponentMatrix::for_state(s);
            assert_eq!(row.context, ContextState::InPlaceRetention);
        }
    }

    #[test]
    fn c6_needs_external_restore_and_skips_snoops() {
        // Context goes out to the external SRAM and comes back on exit;
        // the flushed caches leave nothing to snoop.
        let row = ComponentMatrix::for_state(CState::C6);
        assert_eq!(row.context, ContextState::SaveRestoreSram);
        assert_eq!(row.caches, CacheState::Flushed);
    }

    #[test]
    fn voltage_states_distinct_for_aw() {
        assert_ne!(
            ComponentMatrix::for_state(CState::C6A).voltage,
            ComponentMatrix::for_state(CState::C6AE).voltage
        );
    }

    #[test]
    fn table_has_all_states() {
        let rows = ComponentMatrix::table();
        assert_eq!(rows.len(), 6);
        for (row, s) in rows.iter().zip(CState::ALL) {
            assert_eq!(row.state, s);
        }
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!ComponentMatrix::for_state(CState::C6A).to_string().is_empty());
    }
}
