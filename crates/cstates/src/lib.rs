//! # aw-cstates — the CPU core idle-state (C-state) architecture model
//!
//! Models the Intel Skylake server core C-state hierarchy of the AgileWatts
//! paper (Tables 1 and 2), the C-state entry/exit flows (Fig. 3), named
//! server configurations (`NT_Baseline`, `NT_No_C6`, …, and the AW
//! configurations), and the OS idle governors that decide which state an
//! idle core enters.
//!
//! The two new AgileWatts states are first-class citizens:
//!
//! * **C6A** (*C6 Agile*) — replaces C1: power-gates ~70% of the core with
//!   in-place context retention and keeps L1/L2 in sleep mode, reaching
//!   ~0.3 W at a ~100 ns hardware transition.
//! * **C6AE** (*C6A Enhanced*) — replaces C1E: additionally drops the core
//!   to the minimum voltage/frequency level (Pn), reaching ~0.23 W.
//!
//! Concrete parameter tables live in hardware models (`aw-hw`); this
//! crate defines the state machinery they parameterize.
//!
//! # Examples
//!
//! ```
//! use aw_cstates::{CState, FreqLevel};
//! use aw_hw::HardwareModel;
//!
//! let skylake = HardwareModel::skylake_sp().catalog();
//! let c1 = skylake.params(CState::C1);
//! let c6a = skylake.params(CState::C6A);
//!
//! // C6A keeps C1's software transition budget but ~4.8× lower power:
//! assert_eq!(c1.transition_time, c6a.transition_time);
//! assert!(c1.power(FreqLevel::P1) / c6a.power(FreqLevel::P1) > 4.0);
//! ```

mod catalog;
mod components;
mod config;
mod flows;
mod governor;
mod state;

pub use catalog::{CStateCatalog, CStateParams};
pub use components::{
    CacheState, ClockState, ComponentMatrix, ContextState, PllState, VoltageState,
};
pub use config::{CStateConfig, NamedConfig};
pub use flows::{C1Flow, C6AFlow, C6Flow, FlowPhase, FlowStep, PMA_CLOCK};
pub use governor::{CircuitBreaker, IdleGovernor, LadderGovernor, MenuGovernor, OracleGovernor};
pub use state::{CState, FreqLevel};

/// The `aw-hw` skylake-sp model's `(base_catalog(), catalog())`, the
/// catalogs every run uses, rebuilt in this crate's own types: a unit
/// test links `aw-hw` against a second, non-test build of this crate
/// whose types do not unify with the ones under test.
#[cfg(test)]
fn skylake_sp_catalogs() -> (CStateCatalog, CStateCatalog) {
    let model = aw_hw::HardwareModel::skylake_sp();
    let [base, full] = [model.base_catalog(), model.catalog()].map(|model_cat| {
        let mut cat = CStateCatalog::empty();
        for s in model_cat.states() {
            let p = model_cat.params(s);
            cat.set_params(CStateParams {
                state: CState::ALL[usize::from(s.depth())],
                transition_time: p.transition_time,
                entry_latency: p.entry_latency,
                exit_latency: p.exit_latency,
                target_residency: p.target_residency,
                power_p1: p.power_p1,
                power_pn: p.power_pn,
                hw_exit: p.hw_exit,
            });
        }
        cat
    });
    (base, full)
}
