//! # aw-server — a discrete-event multi-core server simulator
//!
//! The testbed substitute for the paper's 2× Xeon Silver 4114 cluster: an
//! open-loop request stream is dispatched round-robin across a
//! configurable number of cores, each of which runs the full C-state life
//! cycle — idle-governor decisions, entry/exit transition latencies,
//! wake-on-interrupt, snoop servicing, Turbo thermal capacitance, and
//! per-state energy integration.
//!
//! The simulator's outputs are exactly the observables the paper's
//! evaluation consumes: per-C-state residencies, transition counts,
//! average/tail request latency, and average power.
//!
//! # Examples
//!
//! ```
//! use aw_server::{ServerConfig, SimBuilder, WorkloadSpec};
//! use aw_cstates::NamedConfig;
//! use aw_types::Nanos;
//!
//! // A light Poisson load on a 4-core server with the legacy baseline:
//! let workload = WorkloadSpec::poisson(
//!     "toy",
//!     50_000.0,                     // 50 K requests/s offered
//!     Nanos::from_micros(3.0),      // ~3 µs of service each
//!     0.8,                          // frequency scalability
//! );
//! let config = ServerConfig::new(4, NamedConfig::Baseline)
//!     .with_duration(Nanos::from_millis(50.0));
//! let metrics = SimBuilder::new(config, workload, 42).run().into_metrics();
//!
//! // The server is mostly idle and spends that time in shallow states:
//! assert!(metrics.residency_of(aw_cstates::CState::C0).get() < 0.3);
//! assert!(metrics.completed > 1_000);
//! ```

mod builder;
mod config;
mod core;
mod idle;
mod metrics;
mod probe;
mod sim;
mod thermal;
pub mod trace;
mod uncore;
mod workload;

pub use builder::{set_default_idle_skip, SimBuilder};
pub use config::{GovernorKind, ServerConfig};

pub use idle::IdleInterval;
pub use metrics::{DegradationStats, LatencyBreakdown, LatencyStats, RunMetrics};
pub use sim::{RunOutput, SNOOP_AW_POWER, SNOOP_LEGACY_POWER};
pub use thermal::ThermalModel;
pub use uncore::{PackageCState, UncorePower};
// The hardware-model surface, re-exported so simulator users don't need
// a separate aw-hw dependency for the common path.
pub use aw_hw::{CcxSpec, HardwareModel};
pub use workload::WorkloadSpec;
