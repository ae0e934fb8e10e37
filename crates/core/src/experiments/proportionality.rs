//! Energy-proportionality analysis.
//!
//! The paper quotes Google: "Modern servers are not energy proportional:
//! they operate at peak energy efficiency when they are fully utilized,
//! but have much lower efficiencies at lower utilizations" (Sec. 7.1).
//! This experiment draws the power-vs-utilization curve for the legacy
//! hierarchy and for AW and computes a proportionality score — how close
//! each curve comes to the ideal `P(u) = u × P(1)` line.

use aw_cstates::NamedConfig;
use aw_exec::SweepExecutor;
use aw_server::{ServerConfig, SimBuilder};
use aw_types::Nanos;
use aw_workloads::memcached_etc;

use crate::report::Series;

/// The proportionality experiment.
#[derive(Debug, Clone)]
pub struct Proportionality {
    /// Utilization steps to sample (fractions of server capacity).
    pub utilizations: Vec<f64>,
    /// Server core count.
    pub cores: usize,
    /// Simulated duration per point.
    pub duration: Nanos,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Proportionality {
    fn default() -> Self {
        Proportionality {
            utilizations: vec![0.05, 0.1, 0.2, 0.35, 0.5, 0.7],
            cores: 10,
            duration: Nanos::from_millis(300.0),
            seed: 42,
        }
    }
}

/// The proportionality report.
#[derive(Debug, Clone)]
pub struct ProportionalityReport {
    /// Baseline power vs. utilization (mW per core).
    pub baseline: Series,
    /// AW power vs. utilization (mW per core).
    pub aw: Series,
    /// Proportionality score of the baseline in `[0, 1]` (1 = ideal).
    pub baseline_score: f64,
    /// Proportionality score of AW.
    pub aw_score: f64,
}

/// Mean absolute deviation of `points` from the ideal line through
/// `(0, 0)` and the highest-utilization point, normalized by that
/// point's power; the score is `1 − deviation`.
fn proportionality_score(points: &[(f64, f64)]) -> f64 {
    let Some(&(u_max, p_max)) = points.last() else { return 0.0 };
    if p_max <= 0.0 || u_max <= 0.0 {
        return 0.0;
    }
    let dev: f64 = points.iter().map(|&(u, p)| (p - p_max * u / u_max).abs() / p_max).sum::<f64>()
        / points.len() as f64;
    (1.0 - dev).max(0.0)
}

impl Proportionality {
    /// Runs both configurations across the utilization sweep. Each
    /// utilization step is an independent baseline + AW pair; the steps
    /// run on the ambient [`SweepExecutor`] and the two curves assemble
    /// in utilization order.
    #[must_use]
    pub fn run(&self) -> ProportionalityReport {
        let mean_service = memcached_etc(1.0).mean_service().as_secs();
        let pairs = SweepExecutor::current().map(&self.utilizations, |&u| {
            let qps = u * self.cores as f64 / mean_service;
            let run = |named: NamedConfig| {
                let cfg = ServerConfig::new(self.cores, named).with_duration(self.duration);
                SimBuilder::new(cfg, memcached_etc(qps), self.seed).run().into_metrics()
            };
            (
                run(NamedConfig::Baseline).avg_core_power.as_milliwatts(),
                run(NamedConfig::Aw).avg_core_power.as_milliwatts(),
            )
        });
        let mut baseline = Series::new("baseline mW/core");
        let mut aw = Series::new("AW mW/core");
        for (&u, &(base_mw, aw_mw)) in self.utilizations.iter().zip(pairs.iter()) {
            baseline.push(u, base_mw);
            aw.push(u, aw_mw);
        }
        let baseline_score = proportionality_score(&baseline.points);
        let aw_score = proportionality_score(&aw.points);
        ProportionalityReport { baseline, aw, baseline_score, aw_score }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_of_ideal_line_is_one() {
        let pts = vec![(0.1, 10.0), (0.5, 50.0), (1.0, 100.0)];
        assert!((proportionality_score(&pts) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn score_of_flat_line_is_poor() {
        let pts = vec![(0.1, 100.0), (0.5, 100.0), (1.0, 100.0)];
        assert!(proportionality_score(&pts) < 0.6);
    }

    impl Proportionality {
        /// A reduced instance for tests.
        fn quick() -> Self {
            Proportionality {
                utilizations: vec![0.05, 0.2, 0.5],
                cores: 4,
                duration: Nanos::from_millis(60.0),
                seed: 42,
            }
        }
    }

    #[test]
    fn aw_is_more_proportional_than_baseline() {
        let r = Proportionality::quick().run();
        assert!(
            r.aw_score > r.baseline_score,
            "AW {} vs baseline {}",
            r.aw_score,
            r.baseline_score
        );
        // Power grows with utilization under both.
        for s in [&r.baseline, &r.aw] {
            let ys: Vec<f64> = s.points.iter().map(|&(_, y)| y).collect();
            assert!(ys.windows(2).all(|w| w[1] > w[0] * 0.8), "{ys:?}");
        }
        // AW draws less at every sampled point.
        for (b, a) in r.baseline.points.iter().zip(r.aw.points.iter()) {
            assert!(a.1 < b.1, "u={}: {} !< {}", a.0, a.1, b.1);
        }
    }
}
