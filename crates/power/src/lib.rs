//! # aw-power — the AgileWatts analytical power, PPA, and cost models
//!
//! Implements every closed-form model in the paper:
//!
//! * [`ResidencyVector`] + [`average_power`] — the baseline analytical
//!   core-power model, Eq. 2: `AvgP = Σ P_Ci × R_Ci`;
//! * [`AwTransform`] — the AW power model of Sec. 6.2 (Eq. 3): C1/C1E
//!   residencies map to C6A/C6AE, scaled for the 1% power-gate frequency
//!   loss and the ~100 ns transition overhead;
//! * [`motivation_savings`] — the Sec. 2 upper-bound estimate, Eq. 1;
//! * [`turbo_savings`] — Eq. 4 for Turbo-enabled runs;
//! * [`PpaModel`] — Table 3: per-component area and power overheads of the
//!   C6A/C6AE implementation (UFPG, CCSM, PMA flow, ADPLL + FIVR);
//! * [`Fivr`], [`SleepTransistorLvr`], [`leakage_scale`] — the regulator
//!   and technology-scaling submodels the PPA model is built from;
//! * [`TcoModel`] — the Table 5 datacenter cost-savings model.
//!
//! # Examples
//!
//! The Sec. 2 motivating numbers — 23%, 41%, 55% savings potential:
//!
//! ```
//! use aw_power::{motivation_savings, ResidencyVector};
//! use aw_cstates::CState;
//!
//! // Key-value store at 20% load: R_C0=20%, R_C1=80%, R_C6=0%.
//! let r = ResidencyVector::from_percents([
//!     (CState::C0, 20.0),
//!     (CState::C1, 80.0),
//! ]);
//! let savings = motivation_savings(&r).as_percent();
//! assert!((54.0..57.0).contains(&savings), "{savings}");
//! ```

mod model;
mod ppa;
mod regulator;
mod scaling;
mod tco;

pub use model::{average_power, motivation_savings, turbo_savings, AwTransform, ResidencyVector};
pub use ppa::{catalog_from_ppa, AreaBound, PowerBound, PpaComponent, PpaModel, PpaRow};
pub use regulator::{Fivr, SleepTransistorLvr};
pub use scaling::{leakage_scale, scale_cache_leakage, TechNode};
pub use tco::TcoModel;
