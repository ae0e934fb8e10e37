//! The MySQL / sysbench-OLTP workload model.
//!
//! The sysbench OLTP profile issues multi-statement transactions (point
//! selects, range scans, updates) whose service times sit in the
//! millisecond range — three orders of magnitude above Memcached. At the
//! modest request rates of Fig. 12, per-core idle gaps stretch well past
//! C6's 600 µs target residency, which is why the baseline shows ≥40% C6
//! residency at every evaluated rate — and why disabling C6 (the vendors'
//! recommendation) visibly improves tail latency.

use std::sync::Arc;

use aw_server::WorkloadSpec;
use aw_sim::{Distribution, Empirical, Exponential, LogNormal};

/// The three operating points evaluated in Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MysqlRate {
    /// Low transaction rate.
    Low,
    /// Mid transaction rate.
    Mid,
    /// High transaction rate.
    High,
}

impl MysqlRate {
    /// Offered transactions per second at this operating point (for a
    /// 10-core server).
    #[must_use]
    pub(crate) fn qps(self) -> f64 {
        match self {
            MysqlRate::Low => 600.0,
            MysqlRate::Mid => 1_500.0,
            MysqlRate::High => 3_000.0,
        }
    }

    /// All three points, lowest first.
    pub const ALL: [MysqlRate; 3] = [MysqlRate::Low, MysqlRate::Mid, MysqlRate::High];
}

impl std::fmt::Display for MysqlRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MysqlRate::Low => "low",
            MysqlRate::Mid => "mid",
            MysqlRate::High => "high",
        })
    }
}

/// Builds the MySQL OLTP workload at the given operating point.
///
/// Transactions are a mix of:
///
/// * ~70% point-select-dominated transactions (~0.8 ms median);
/// * ~25% read-write transactions with updates (~2 ms median);
/// * ~5% range scans (~6 ms median, heavier tail).
///
/// Frequency scalability is 0.5: OLTP alternates compute with lock/IO
/// stalls, so it gains only about half of a frequency increase.
///
/// # Examples
///
/// ```
/// use aw_workloads::{mysql_oltp, MysqlRate};
///
/// let w = mysql_oltp(MysqlRate::Mid);
/// assert_eq!(w.name(), "mysql-oltp-mid");
/// let mean_ms = w.mean_service().as_millis();
/// assert!((1.0..3.0).contains(&mean_ms), "{mean_ms}");
/// ```
#[must_use]
pub fn mysql_oltp(rate: MysqlRate) -> WorkloadSpec {
    let service = Empirical::new(vec![
        (0.70, Box::new(LogNormal::from_median(800_000.0, 0.4)) as Box<dyn Distribution>),
        (0.25, Box::new(LogNormal::from_median(2_000_000.0, 0.5))),
        (0.05, Box::new(LogNormal::from_median(6_000_000.0, 0.6))),
    ]);
    WorkloadSpec::new(
        format!("mysql-oltp-{rate}"),
        Arc::new(Exponential::with_mean(1e9 / rate.qps())),
        Arc::new(service),
        0.5,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use aw_sim::SimRng;
    use aw_types::Nanos;

    #[test]
    fn rates_are_increasing() {
        assert!(MysqlRate::Low.qps() < MysqlRate::Mid.qps());
        assert!(MysqlRate::Mid.qps() < MysqlRate::High.qps());
    }

    #[test]
    fn transactions_are_millisecond_scale() {
        let w = mysql_oltp(MysqlRate::Low);
        let mut rng = SimRng::seed(5);
        let sub_ms =
            (0..5_000).filter(|_| w.next_service(&mut rng) < Nanos::from_millis(1.0)).count();
        // The point-select class straddles 1 ms; roughly half land below.
        assert!((1_500..4_000).contains(&sub_ms), "{sub_ms}");
    }

    #[test]
    fn load_leaves_long_idle_gaps() {
        // At the low rate on 10 cores, per-core gaps average ~16 ms —
        // far past C6's 600 µs target residency.
        let w = mysql_oltp(MysqlRate::Low);
        let per_core_gap_ns = 1e9 / (w.offered_qps() / 10.0);
        assert!(per_core_gap_ns > 10.0 * 600_000.0);
    }

    #[test]
    fn scalability_is_moderate() {
        assert!((mysql_oltp(MysqlRate::Mid).frequency_scalability() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn names_include_rate() {
        for r in MysqlRate::ALL {
            assert!(mysql_oltp(r).name().contains(&r.to_string()));
        }
    }
}
