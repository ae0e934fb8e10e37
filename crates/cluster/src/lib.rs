//! # aw-cluster — fleet-scale AgileWatts simulation
//!
//! The single-server simulator (`aw-server`) answers the paper's core
//! question: what does an agile C-state menu buy one machine? This crate
//! asks the datacenter-shaped follow-up from the paper's introduction:
//! latency-sensitive services run *fleets* at low average utilization
//! precisely so the tail stays flat, which is why idle efficiency — and
//! thus AgileWatts — matters at all.
//!
//! The model is a fleet of N identical servers behind a front-end load
//! balancer, stepped in epochs:
//!
//! 1. a [`LoadShape`] sets the epoch's aggregate offered load (flat, or
//!    a scaled-down diurnal sine),
//! 2. the [`AutoscalePolicy`] decides how many servers are awake —
//!    parking a server is the fleet analogue of a package C-state,
//!    complete with transition latency and a boot-energy burst,
//! 3. a [`RoutingPolicy`] splits the load across the awake servers —
//!    **packing** concentrates it so empty packages sink into PC6,
//!    **spreading** dilutes it so every core maximizes agile-state
//!    residency, with round-robin and least-outstanding as the
//!    power-oblivious baselines,
//! 4. every loaded server-epoch runs a full single-server
//!    discrete-event simulation; empty and parked servers are
//!    closed-form,
//! 5. optionally, a fleet fault plan (`aw_faults::FleetFaultSpec`)
//!    injects server crashes, rack outages, link degradation, capacity
//!    throttles, and unpark failures; the router health-checks its
//!    backends, ejects casualties with exponential-backoff re-probing,
//!    and the autoscaler unparks replacements — every consequence lands
//!    in the [`FleetDegradation`] ledger and a replayable
//!    `FleetFailureArtifact`.
//!
//! Server-epochs derive all randomness from dedicated
//! `(seed, server, epoch)` streams and fan out on `aw-exec`, so a fleet
//! report is **byte-identical at any `--jobs`** — the property every
//! determinism test in this workspace pins.
//!
//! ```
//! use aw_cluster::{FleetConfig, FleetSim, RoutingPolicy};
//! use aw_cstates::NamedConfig;
//! use aw_server::{ServerConfig, WorkloadSpec};
//! use aw_types::Nanos;
//!
//! let workload = WorkloadSpec::poisson("etc", 1_000.0, Nanos::from_micros(250.0), 0.6);
//! let config = FleetConfig::new(4, ServerConfig::new(4, NamedConfig::NtAw), workload, 12_000.0)
//!     .with_epochs(2, Nanos::from_millis(20.0))
//!     .with_policy(RoutingPolicy::Packing);
//! let report = FleetSim::new(config).run();
//! assert_eq!(report.windows.len(), 2);
//! ```

mod autoscaler;
mod fleet;
mod health;
mod policy;
mod report;
mod stream;

pub use autoscaler::AutoscalePolicy;
pub use fleet::{FleetConfig, FleetSim, LoadShape};
pub use policy::RoutingPolicy;
pub use report::{FleetDegradation, FleetReport, FleetWindow};
pub use stream::{FleetEpochEvent, FleetObserver, ServerEpochSnapshot, ServerRole};
