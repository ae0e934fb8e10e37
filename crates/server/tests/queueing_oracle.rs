//! Closed-form oracles for the engine: with every C-state transition
//! free, a one-core server fed Poisson arrivals is an M/G/1 queue, whose
//! mean queueing delay and busy share are known exactly.
//!
//! With arrivals at rate λ and service time S the core runs at
//! utilization ρ = λ·E[S], busy a share ρ of the time, and its mean wait
//! in queue is the Pollaczek–Khinchine value λ·E[S²]/(2(1 − ρ)).
//! Exponential service (M/M/1) makes that ρ·E[S]/(1 − ρ), deterministic
//! service (M/D/1) ρ·E[S]/(2(1 − ρ)), and a log-normal service pins the
//! general form with a second moment above either. The catalog holds
//! only C0 and C1, with every latency and the target residency zero, so
//! a wake adds no delay and an idle core is never counted as busy.

use std::sync::Arc;

use aw_cstates::{CState, CStateCatalog, CStateParams, NamedConfig};
use aw_server::{ServerConfig, SimBuilder, WorkloadSpec};
use aw_sim::{Distribution, Exponential, LogNormal, Point};
use aw_types::Nanos;

/// E[S], in nanoseconds.
const MEAN_SERVICE_NS: f64 = 10_000.0;
/// Seeds per load: enough that a 2% stretch of every service time moves
/// each model's mean wait by more than four standard errors.
const SEEDS: u64 = 20;

/// A one-core server at utilization `rho`, C1 as the only idle state
/// and every transition free, fed Poisson arrivals with `service` times
/// of mean [`MEAN_SERVICE_NS`].
fn config(rho: f64, service: &Arc<dyn Distribution>) -> (ServerConfig, WorkloadSpec) {
    let base = ServerConfig::new(1, NamedConfig::NtNoC6NoC1e);
    let mut catalog = CStateCatalog::empty();
    for state in [CState::C0, CState::C1] {
        catalog.set_params(CStateParams {
            transition_time: Nanos::ZERO,
            entry_latency: Nanos::ZERO,
            exit_latency: Nanos::ZERO,
            target_residency: Nanos::ZERO,
            hw_exit: Nanos::ZERO,
            ..*base.catalog.params(state)
        });
    }
    let config = base
        .with_catalog(catalog)
        .with_warmup(Nanos::from_millis(10.0))
        .with_duration(Nanos::from_millis(400.0));
    let qps = rho / (MEAN_SERVICE_NS * 1e-9);
    let arrivals = Arc::new(Exponential::with_mean(1e9 / qps));
    (config, WorkloadSpec::new("mg1", arrivals, Arc::clone(service), 1.0))
}

/// Mean and standard error of `xs`.
fn mean_and_se(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

/// At three loads, the mean queue wait over [`SEEDS`] runs lies within
/// four standard errors of `expected_wait(rho)` and the C0 residency
/// within 0.01 of ρ.
fn assert_matches_oracle(
    model: &str,
    service: Arc<dyn Distribution>,
    expected_wait: impl Fn(f64) -> f64,
) {
    assert!((service.mean() - MEAN_SERVICE_NS).abs() < 1e-6 * MEAN_SERVICE_NS);
    for rho in [0.3, 0.6, 0.8] {
        let (config, workload) = config(rho, &service);
        let runs: Vec<_> = (0..SEEDS)
            .map(|seed| SimBuilder::new(config.clone(), workload.clone(), seed).run().metrics)
            .collect();
        let waits: Vec<f64> = runs.iter().map(|m| m.breakdown.queue.as_nanos()).collect();
        let busy: Vec<f64> = runs.iter().map(|m| m.residency_of(CState::C0).get()).collect();

        let (wait, se) = mean_and_se(&waits);
        let expected = expected_wait(rho);
        assert!(
            (wait - expected).abs() <= 4.0 * se,
            "{model} rho {rho}: mean queue wait {wait:.0} ± {se:.0} ns, oracle gives {expected:.0} ns"
        );
        let (busy, _) = mean_and_se(&busy);
        assert!((busy - rho).abs() <= 0.01, "{model} rho {rho}: C0 residency {busy:.4}");
    }
}

#[test]
fn one_core_matches_mm1_queue_wait_and_busy_share() {
    assert_matches_oracle("M/M/1", Arc::new(Exponential::with_mean(MEAN_SERVICE_NS)), |rho| {
        rho * MEAN_SERVICE_NS / (1.0 - rho)
    });
}

#[test]
fn one_core_matches_md1_pollaczek_khinchine_wait() {
    assert_matches_oracle("M/D/1", Arc::new(Point::new(MEAN_SERVICE_NS)), |rho| {
        rho * MEAN_SERVICE_NS / (2.0 * (1.0 - rho))
    });
}

#[test]
fn one_core_matches_lognormal_mg1_pollaczek_khinchine_wait() {
    // σ = 1: E[S²] = E[S]²·e^{σ²}, about 2.7 E[S]² against 2 for the
    // exponential.
    let sigma: f64 = 1.0;
    let median = MEAN_SERVICE_NS * (-sigma * sigma / 2.0).exp();
    let second_moment = MEAN_SERVICE_NS * MEAN_SERVICE_NS * (sigma * sigma).exp();
    assert_matches_oracle(
        "log-normal M/G/1",
        Arc::new(LogNormal::from_median(median, sigma)),
        |rho| {
            let rate = rho / MEAN_SERVICE_NS;
            rate * second_moment / (2.0 * (1.0 - rho))
        },
    );
}
