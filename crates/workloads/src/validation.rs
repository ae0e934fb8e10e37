//! Validation workloads for the Sec. 6.3 power-model accuracy experiment.
//!
//! The paper validates its analytical model by running SPECpower, Nginx,
//! Spark, and Hive at multiple utilization levels, then comparing measured
//! average power against the Eq. 2 estimate (accuracy 94–96%). These
//! synthetic stand-ins reproduce the relevant load *structures*: a
//! throughput-graduated Java-ish mix (SPECpower ssj), short HTTP request
//! bursts (Nginx), coarse batch tasks (Spark), and long analytical queries
//! (Hive).

use std::sync::Arc;

use aw_server::WorkloadSpec;
use aw_sim::{Distribution, Empirical, Exponential, LogNormal};

/// One of the four validation workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ValidationLoad {
    /// SPECpower-ssj-like transaction mix.
    SpecPower,
    /// Nginx-like HTTP serving.
    Nginx,
    /// Spark-like batch task execution.
    Spark,
    /// Hive-like analytical queries.
    Hive,
}

impl ValidationLoad {
    /// All four loads.
    pub(crate) const ALL: [ValidationLoad; 4] = [
        ValidationLoad::SpecPower,
        ValidationLoad::Nginx,
        ValidationLoad::Spark,
        ValidationLoad::Hive,
    ];

    /// Workload name.
    #[must_use]
    pub(crate) fn name(self) -> &'static str {
        match self {
            ValidationLoad::SpecPower => "specpower",
            ValidationLoad::Nginx => "nginx",
            ValidationLoad::Spark => "spark",
            ValidationLoad::Hive => "hive",
        }
    }

    /// Mean service demand per request.
    fn mean_service_ns(self) -> f64 {
        match self {
            ValidationLoad::SpecPower => 50_000.0,
            ValidationLoad::Nginx => 15_000.0,
            ValidationLoad::Spark => 5_000_000.0,
            ValidationLoad::Hive => 20_000_000.0,
        }
    }

    /// Frequency scalability of the load.
    fn scalability(self) -> f64 {
        match self {
            ValidationLoad::SpecPower => 0.9,
            ValidationLoad::Nginx => 0.7,
            ValidationLoad::Spark => 0.6,
            ValidationLoad::Hive => 0.5,
        }
    }

    /// Builds this load targeting `utilization` (0, 1] of a server with
    /// `cores` cores.
    ///
    /// The offered rate is chosen so `rate × mean_service = utilization ×
    /// cores`.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is outside `(0, 1]` or `cores` is zero.
    #[must_use]
    pub(crate) fn at_utilization(self, utilization: f64, cores: usize) -> WorkloadSpec {
        assert!(utilization > 0.0 && utilization <= 1.0, "utilization must be in (0, 1]");
        assert!(cores > 0, "need at least one core");
        let mean = self.mean_service_ns();
        let qps = utilization * cores as f64 * 1e9 / mean;
        let service = Empirical::new(vec![
            (0.85, Box::new(LogNormal::from_median(mean * 0.75, 0.45)) as Box<dyn Distribution>),
            (0.15, Box::new(LogNormal::from_median(mean * 1.8, 0.5))),
        ]);
        WorkloadSpec::new(
            format!("{}-u{:02.0}", self.name(), utilization * 100.0),
            Arc::new(Exponential::with_mean(1e9 / qps)),
            Arc::new(service),
            self.scalability(),
        )
    }
}

/// The full Sec. 6.3 validation suite: every load at every utilization
/// step.
///
/// # Examples
///
/// ```
/// use aw_workloads::validation_suite;
///
/// let suite = validation_suite(&[0.1, 0.3, 0.5], 10);
/// assert_eq!(suite.len(), 12); // 4 loads × 3 utilizations
/// ```
#[must_use]
pub fn validation_suite(utilizations: &[f64], cores: usize) -> Vec<WorkloadSpec> {
    ValidationLoad::ALL
        .iter()
        .flat_map(|load| utilizations.iter().map(|&u| load.at_utilization(u, cores)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_sets_offered_rate() {
        let w = ValidationLoad::Nginx.at_utilization(0.3, 10);
        // rate × mean_service ≈ 0.3 × 10 cores.
        let busy = w.offered_qps() * w.mean_service().as_secs();
        assert!((busy - 3.0).abs() < 0.3, "{busy}");
    }

    #[test]
    fn loads_span_time_scales() {
        let nginx = ValidationLoad::Nginx.at_utilization(0.5, 10);
        let hive = ValidationLoad::Hive.at_utilization(0.5, 10);
        assert!(hive.mean_service() > 100.0 * nginx.mean_service());
    }

    #[test]
    fn suite_enumerates_grid() {
        let suite = validation_suite(&[0.1, 0.2], 4);
        assert_eq!(suite.len(), 8);
        let names: Vec<_> = suite.iter().map(|w| w.name().to_string()).collect();
        assert!(names.contains(&"specpower-u10".to_string()));
        assert!(names.contains(&"hive-u20".to_string()));
    }

    #[test]
    fn scalabilities_in_range() {
        for load in ValidationLoad::ALL {
            let w = load.at_utilization(0.2, 10);
            let s = w.frequency_scalability();
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn rejects_zero_utilization() {
        let _ = ValidationLoad::Spark.at_utilization(0.0, 10);
    }
}
