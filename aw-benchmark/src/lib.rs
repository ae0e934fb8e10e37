//! The benchmark's library half: workloads, layer kernels, spans, result
//! documents, and the comparison rule. The `aw-benchmark` binary is the
//! command-line front end; the smoke test reads results back through
//! [`json::parse`].

pub mod bench;
pub mod compare;
pub mod host;
pub mod json;
pub mod kernels;
pub mod stats;
pub mod trace;
pub mod workload;
