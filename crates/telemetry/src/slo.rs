//! SLO evaluation over a timeline: per-window p99 checks and burn rate.
//!
//! Latency SLOs for the paper's workloads are stated as a tail target
//! (e.g. Memcached p99 under its QoS bound). A run can meet the
//! aggregate target while violating it for whole windows — exactly the
//! load-step and wake-from-deep-idle episodes AW is designed to fix —
//! so the [`SloMonitor`] evaluates the target against *every* window of
//! a [`Timeline`] and reports the burn rate (windows violated / windows
//! with traffic) plus the first violation timestamp.

use std::fmt;

use aw_types::Nanos;

use crate::timeline::Timeline;

/// A p99 latency target evaluated per timeline window.
///
/// # Examples
///
/// ```
/// use aw_telemetry::{Attribution, RequestSpan, SloMonitor};
/// use aw_types::Nanos;
///
/// let mut attrib = Attribution::new(Nanos::from_millis(1.0));
/// for i in 0..100 {
///     attrib.record_span(RequestSpan {
///         arrival: Nanos::new(f64::from(i) * 10.0),
///         completion: Nanos::new(f64::from(i) * 10.0 + 2_000.0),
///         queue_wait: Nanos::ZERO,
///         exit_penalty: Nanos::ZERO,
///         exit_state: None,
///         snoop_stall: Nanos::ZERO,
///         service: Nanos::new(2_000.0),
///         network_rtt: Nanos::ZERO,
///     });
/// }
/// let tl = attrib.finish().timeline;
/// let report = SloMonitor::new(Nanos::from_micros(5.0)).evaluate(&tl);
/// assert_eq!(report.windows_violated, 0);
/// assert!(report.is_met());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloMonitor {
    target_p99: Nanos,
}

impl SloMonitor {
    /// Creates a monitor for a server-side p99 target.
    ///
    /// # Panics
    ///
    /// Panics if the target is not strictly positive.
    #[must_use]
    pub fn new(target_p99: Nanos) -> Self {
        assert!(target_p99.as_nanos() > 0.0, "SLO target must be positive");
        SloMonitor { target_p99 }
    }

    /// Evaluates the target against every window with traffic.
    #[must_use]
    pub fn evaluate(&self, timeline: &Timeline) -> SloReport {
        let mut windows_total = 0_u64;
        let mut windows_violated = 0_u64;
        let mut first_violation = None;
        let mut worst_p99 = Nanos::ZERO;
        for w in timeline.windows() {
            let Some(p99) = w.p99() else { continue };
            windows_total += 1;
            if p99.as_nanos() > worst_p99.as_nanos() {
                worst_p99 = p99;
            }
            if p99.as_nanos() > self.target_p99.as_nanos() {
                windows_violated += 1;
                if first_violation.is_none() {
                    first_violation = Some(w.start());
                }
            }
        }
        SloReport {
            target_p99: self.target_p99,
            windows_total,
            windows_violated,
            first_violation,
            worst_p99,
        }
    }
}

/// The outcome of evaluating an SLO target over a timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloReport {
    /// The p99 target evaluated.
    pub target_p99: Nanos,
    /// Windows that carried traffic (and so were evaluated).
    pub windows_total: u64,
    /// Windows whose p99 exceeded the target.
    pub windows_violated: u64,
    /// Start of the first violating window, if any.
    pub first_violation: Option<Nanos>,
    /// The worst windowed p99 observed.
    pub worst_p99: Nanos,
}

impl SloReport {
    /// Fraction of evaluated windows in violation (0 when no window
    /// carried traffic).
    #[must_use]
    pub fn burn_rate(&self) -> f64 {
        if self.windows_total == 0 {
            0.0
        } else {
            self.windows_violated as f64 / self.windows_total as f64
        }
    }

    /// True when no evaluated window violated the target.
    #[must_use]
    pub fn is_met(&self) -> bool {
        self.windows_violated == 0
    }
}

impl fmt::Display for SloReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SLO p99<{}: {} — {}/{} windows violated (burn rate {:.1}%), worst p99 {}",
            self.target_p99,
            if self.is_met() { "MET" } else { "VIOLATED" },
            self.windows_violated,
            self.windows_total,
            self.burn_rate() * 100.0,
            self.worst_p99,
        )?;
        if let Some(t) = self.first_violation {
            write!(f, ", first violation at {:.3} ms", t.as_millis())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::RequestSpan;

    fn flat_span(completion: f64, latency: f64) -> RequestSpan {
        RequestSpan {
            arrival: Nanos::new(completion - latency),
            completion: Nanos::new(completion),
            queue_wait: Nanos::ZERO,
            exit_penalty: Nanos::ZERO,
            exit_state: None,
            snoop_stall: Nanos::ZERO,
            service: Nanos::new(latency),
            network_rtt: Nanos::ZERO,
        }
    }

    #[test]
    fn counts_violating_windows_and_first_timestamp() {
        let mut tl = Timeline::new(Nanos::new(1_000.0));
        // Window 0: all fast. Window 2: all slow. Window 1 empty.
        for i in 0..20 {
            tl.record_span(&flat_span(10.0 * f64::from(i) + 100.0, 50.0));
            tl.record_span(&flat_span(2_000.0 + 10.0 * f64::from(i) + 100.0, 900.0));
        }
        let report = SloMonitor::new(Nanos::new(500.0)).evaluate(&tl);
        assert_eq!(report.windows_total, 2);
        assert_eq!(report.windows_violated, 1);
        assert!((report.burn_rate() - 0.5).abs() < 1e-9);
        assert_eq!(report.first_violation, Some(Nanos::new(2_000.0)));
        assert!(!report.is_met());
        assert!((report.worst_p99.as_nanos() - 900.0).abs() < 1.0);
        let text = report.to_string();
        assert!(text.contains("VIOLATED"), "{text}");
        assert!(text.contains("1/2"), "{text}");
    }

    #[test]
    fn met_when_no_traffic() {
        let tl = Timeline::new(Nanos::new(1_000.0));
        let report = SloMonitor::new(Nanos::new(1.0)).evaluate(&tl);
        assert!(report.is_met());
        assert_eq!(report.burn_rate(), 0.0);
        assert_eq!(report.first_violation, None);
        assert!(report.to_string().contains("MET"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_target() {
        let _ = SloMonitor::new(Nanos::ZERO);
    }
}
