//! # aw-workloads — synthetic models of the paper's evaluation workloads
//!
//! The paper drives a real cluster with Memcached (Mutilate, Facebook ETC
//! profile), Apache Kafka, MySQL (sysbench OLTP), and — for power-model
//! validation — SPECpower, Nginx, Spark, and Hive. Without that hardware,
//! these modules synthesize arrival processes and service-time
//! distributions whose *load structure* matches what the paper reports:
//!
//! * Memcached: microsecond services, Poisson arrivals — cores never reach
//!   deeper than C1/C1E at moderate load (Fig. 8a);
//! * Kafka: batched arrivals with long quiet gaps — >60% C6 residency at
//!   low rate (Fig. 13a);
//! * MySQL: millisecond transactions at modest rates — ≥40% C6 residency
//!   (Fig. 12a);
//! * validation loads: utilization-stepped synthetic mixes for the
//!   Sec. 6.3 model-accuracy experiment.
//!
//! # Examples
//!
//! ```
//! use aw_workloads::memcached_etc;
//!
//! let w = memcached_etc(200_000.0);
//! assert_eq!(w.name(), "memcached-etc");
//! assert!((w.offered_qps() - 200_000.0).abs() < 1.0);
//! // ETC is GET-dominated with a heavy SET/tail component:
//! assert!(w.mean_service().as_micros() > 2.0);
//! ```

mod kafka;
mod memcached;
mod mysql;
mod search;
mod trace;
mod validation;

pub use kafka::{kafka, KafkaRate};
pub use memcached::memcached_etc;
pub use mysql::{mysql_oltp, MysqlRate};
pub use search::websearch;
pub use trace::{diurnal_memcached, TraceError, TraceGaps};
pub use validation::validation_suite;
