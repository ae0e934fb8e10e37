//! # aw-telemetry — event tracing, metrics registry, and trace export
//!
//! Zero-external-dependency observability for the AgileWatts simulation
//! stack, in four layers:
//!
//! 1. **Events** — [`TraceEvent`]/[`EventKind`]: typed records of C-state
//!    entries and exits, governor decisions and their outcomes, wake
//!    interrupts, snoop services, turbo engagements, run-queue
//!    enqueue/dequeue, injected faults, overload sheds, timeouts and
//!    retries, and circuit-breaker trips and restores. Events flow into
//!    a ring-buffer sink, which keeps a bounded window and counts
//!    drops: once full, each event evicts the oldest, so the window is
//!    always the newest events, oldest first.
//! 2. **Metrics** — [`MetricsRegistry`]: named counters, time-weighted
//!    gauges ([`TimeWeightedGauge`]), and log₂-scaled histograms
//!    ([`LogHistogram`], log₂ buckets with an exact mean and max).
//! 3. **Export** — [`export::chrome_trace_json`] renders an event window
//!    as Chrome trace-event JSON (loadable in `chrome://tracing` and
//!    Perfetto, one track per core), and [`export::metrics_json`]
//!    renders the registry as machine-readable JSON. Both use the
//!    crate's own minimal [`json`] writer.
//!
//! 4. **Attribution** — [`RequestSpan`] decomposes one request's latency
//!    into typed [`Phase`]s (queue wait, C-state exit penalty tagged
//!    with the charging state, snoop stall, service, network RTT) under
//!    a sum-to-latency invariant; an [`Attribution`] collector reduces a
//!    run's spans to an [`AttributionSummary`] (all-requests and
//!    p99-tail buckets, flamegraph folded-stack export) and a
//!    [`Timeline`] of fixed windows (throughput, per-phase means,
//!    windowed p50/p99/p99.9, average power, residency shares, CSV/JSON
//!    export). The timeline keeps a cursor on the last window it
//!    touched: times in `[idx·w, safe)` are known to floor to `idx`
//!    (rounded division is monotone, and `safe` is checked once per
//!    cursor move), so the common same-window record skips the
//!    division. An [`SloMonitor`] evaluates a p99 target per window and
//!    reports the burn rate.
//!
//! The [`TelemetryRecorder`] ties the layers together for a simulator:
//! [`TelemetryRecorder::record`] counts and emits an event the simulator
//! built, while the recorder builds the rest itself: it pairs C-state
//! enter/exit events with exact residencies, scores every governor
//! decision against the idle period that followed, and produces a
//! [`TelemetryReport`] plus a [`TelemetrySummary`] of the headline
//! numbers (mispredict rate, residency error, queue-depth high-water
//! marks). The crate reads no clock: every number it reports depends on
//! the run's inputs alone.
//!
//! # Examples
//!
//! ```
//! use aw_telemetry::TelemetryRecorder;
//! use aw_types::Nanos;
//!
//! let mut rec = TelemetryRecorder::new(1, 1024);
//! rec.state_change(0, Nanos::ZERO, "C0");
//! rec.governor_decision(0, Nanos::new(100.0), "C1", Nanos::from_micros(4.0));
//! rec.state_change(0, Nanos::new(100.0), "C1");
//! rec.idle_outcome(0, Nanos::new(400.0), Nanos::new(300.0), Nanos::from_micros(2.0));
//! rec.state_change(0, Nanos::new(400.0), "C0");
//!
//! let report = rec.into_report(Nanos::new(1000.0));
//! assert_eq!(report.summary.governor_mispredicts, 1); // 300 ns < 2 µs target
//! let trace = report.chrome_trace_json();
//! assert!(trace.contains("\"traceEvents\""));
//! ```

mod attrib;
mod event;
pub mod export;
pub mod json;
mod recorder;
mod registry;
mod sink;
mod slo;
mod span;
mod timeline;

pub use attrib::{Attribution, AttributionReport, AttributionSummary, ExitShare, PhaseMeans};
pub use event::{EventKind, TraceEvent};
pub use recorder::{TelemetryRecorder, TelemetryReport, TelemetrySummary};
pub use registry::{LogHistogram, MetricsRegistry, TimeWeightedGauge};
pub use slo::{SloMonitor, SloReport};
pub use span::{Phase, RequestSpan};
pub use timeline::{Timeline, TimelineWindow, WindowCursor};
