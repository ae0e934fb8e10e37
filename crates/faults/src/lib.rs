//! # aw-faults
//!
//! Deterministic fault injection and runtime invariant checking for the
//! AgileWatts reproduction.
//!
//! The crate supplies these pieces, all deliberately decoupled from the
//! simulators that consume them:
//!
//! * [`FaultSpec`] — a parseable, canonically printable description of
//!   which faults to inject and how often (`wake-fail=0.2,storm=1e4`).
//!   Its grammar, like [`FleetFaultSpec`]'s, is derived from one key
//!   table: a row per key, naming its value kind and its field.
//! * [`FaultPlan`] — a seeded realization of a spec. Each fault category
//!   draws from its own RNG stream so enabling one category never
//!   perturbs another, and a plan with all rates at zero is perfectly
//!   invisible (common random numbers).
//! * [`FleetFaultSpec`] / [`FleetFaultPlan`] — fleet-scale failures
//!   (server crashes + restarts, correlated rack outages, unpark
//!   failures, link degradation, capacity throttles) whose draws are
//!   pure functions of `(seed, category, server, epoch)`, consumed by
//!   `aw-cluster`'s health/ejection machinery.
//! * [`InvariantChecker`] / [`FailureArtifact`] — runtime invariant
//!   collection that turns violations into a structured, replayable
//!   artifact carrying the seed and fault spec.
//!
//! The injection points themselves live in the consuming crates: the
//! server engine draws agile-wake disruptions, lost and spurious wakes,
//! snoop storms and slowdown bursts from its [`FaultPlan`] directly, and
//! is the one model of a disrupted wake; `aw-cluster` asks its
//! [`FleetFaultPlan`] about each server and epoch.

mod fleet;
mod invariant;
mod keys;
mod plan;
mod spec;

pub use fleet::{
    FleetFailureArtifact, FleetFaultKind, FleetFaultPlan, FleetFaultRecord, FleetFaultSpec,
};
pub use invariant::{FailureArtifact, InvariantChecker};
pub use keys::FaultSpecError;
pub use plan::{FaultPlan, WakeDisruption};
pub use spec::FaultSpec;
