//! Pluggable hardware models (DESIGN.md §16).
//!
//! The AgileWatts evaluation is calibrated against an Intel Skylake-SP
//! part, but nothing in the architecture is Intel-specific: the paper's
//! C6A/C6AE states are *derived* from whatever shallow states a core
//! already has, by moving their retention point into the power-gated
//! domain. This crate makes that derivation explicit. A
//! [`HardwareModel`] bundles everything the rest of the workspace needs
//! to know about a part:
//!
//! * the **base C-state menu** — per-state latencies, target
//!   residencies, and power at both frequency levels (Table 1 of the
//!   paper for Skylake-SP; the Schöne et al. characterizations for
//!   other vendors);
//! * the **AW retention calibration** — for each legacy shallow state
//!   the hardware replaces, the in-place-retention wake latency and
//!   absolute retention power ([`RetentionPoint`]);
//! * **frequency behaviour** — base/Turbo clocks and the frequency
//!   pair the Fig. 8d scalability comparison is quoted at;
//! * **uncore behaviour** — package-state power levels
//!   ([`UncorePower`]) and, for core-complex parts, the CCX topology
//!   whose shared L3 gates deep package sleep ([`CcxSpec`]).
//!
//! [`HardwareModel::catalog`] computes the AW menu from the base menu
//! generically (`derive_aw`): the agile twin of a legacy state keeps
//! the legacy software transition budget and only adds the per-vendor
//! retention wake latency on exit. Hand-written per-vendor AW tables
//! are therefore impossible to get out of sync with the base menu.
//!
//! Models are registered by name — [`HardwareModel::by_name`] — and the
//! two shipped instances are [`HardwareModel::skylake_sp`] (pinned
//! byte-identical to the constants the workspace was originally built
//! around) and [`HardwareModel::zen2`] (AMD Zen 2 / Rome, calibrated
//! from the Schöne et al. Zen 2 paper).
//!
//! # Examples
//!
//! ```
//! use aw_cstates::{CState, FreqLevel};
//! use aw_hw::HardwareModel;
//!
//! let hw = HardwareModel::by_name("zen2").unwrap();
//! let cat = hw.catalog();
//! // Zen 2 has no C1E, so only C6A is derived — and it dominates the
//! // C1 it replaces on power at (almost) the same latency.
//! assert!(cat.get(CState::C6AE).is_none());
//! assert!(cat.power(CState::C6A, FreqLevel::P1) < cat.power(CState::C1, FreqLevel::P1));
//!
//! let err = HardwareModel::by_name("sapphire-rapids").unwrap_err();
//! assert!(err.to_string().contains("skylake-sp"));
//! ```

mod model;
mod skylake;
mod uncore;
mod zen2;

pub use model::{HardwareModel, RetentionPoint, UnknownHardware};
pub use uncore::{CcxSpec, PackageCState, UncorePower};
