//! # agilewatts — a full reproduction of the AgileWatts C-state architecture
//!
//! This crate is the front door of the workspace reproducing
//! *"AgileWatts: An Energy-Efficient CPU Core Idle-State Architecture for
//! Latency-Sensitive Server Applications"* (MICRO 2022). It ties the
//! substrates together and exposes one typed experiment per table and
//! figure of the paper's evaluation:
//!
//! | Paper artifact | Experiment |
//! |---|---|
//! | Table 1 (C-state parameters) | [`experiments::table1`] |
//! | Table 2 (component states) | [`experiments::table2`] |
//! | Table 3 (AW area & power) | [`experiments::table3`] |
//! | Table 4 (power-gating schemes) | [`experiments::table4`] |
//! | Table 5 (datacenter savings) | [`experiments::table5`] |
//! | Sec. 2 motivation (Eq. 1) | [`experiments::motivation`] |
//! | Fig. 3 / Fig. 6 / Sec. 5.2 flows | [`experiments::flow_latencies`] |
//! | Fig. 8 (Memcached vs baseline) | [`experiments::Fig8`] |
//! | Fig. 9 (tuned configurations) | [`experiments::Fig9`] |
//! | Fig. 10 (AW vs tuned configs) | [`experiments::Fig10`] |
//! | Fig. 11 (Turbo interplay) | [`experiments::Fig11`] |
//! | Fig. 12 (MySQL) | [`experiments::Fig12`] |
//! | Fig. 13 (Kafka) | [`experiments::Fig13`] |
//! | Sec. 6.3 model validation | [`experiments::Validation`] |
//! | Sec. 7.5 snoop impact | [`experiments::snoop_impact`] |
//!
//! The underlying layers are re-exported for direct use:
//! [`aw_types`] (units), [`aw_sim`] (DES kernel), [`aw_exec`]
//! (deterministic parallel sweep execution), [`aw_cstates`]
//! (C-state architecture), [`aw_faults`] (deterministic fault
//! injection), [`aw_pma`] (cycle-level PMA model),
//! [`aw_power`] (analytical models), [`aw_server`] (server simulator),
//! [`aw_telemetry`] (event tracing, metrics, Chrome-trace export), and
//! [`aw_workloads`] (workload models).
//!
//! # Quickstart
//!
//! ```
//! use agilewatts::experiments::{Fig8, SweepParams};
//!
//! // A reduced Memcached sweep (full parameters in the benches):
//! let report = Fig8::new(SweepParams::quick()).run();
//! for row in &report.rows {
//!     // AW saves the most power at the lightest loads...
//!     assert!(row.power_savings_pct > 0.0);
//!     // ...with minimal tail-latency impact.
//!     assert!(row.tail_latency_delta_pct.abs() < 20.0);
//! }
//! ```

pub mod experiments;
mod report;

pub use report::{attribution_table, degradation_table, telemetry_table, Series, TextTable};

pub use aw_cluster;
pub use aw_cstates;
pub use aw_exec;
pub use aw_faults;
pub use aw_pma;
pub use aw_power;
pub use aw_server;
pub use aw_sim;
pub use aw_sleep;
pub use aw_telemetry;
pub use aw_types;
pub use aw_workloads;
