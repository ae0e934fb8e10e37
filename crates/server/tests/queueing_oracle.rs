//! A closed-form oracle for the engine: with every C-state transition
//! free, random dispatch turns an `n`-core server into `n` independent
//! M/M/1 queues, whose mean queueing delay and busy share are known
//! exactly.
//!
//! Poisson arrivals at rate λ split uniformly at random over 4 cores
//! give each core a Poisson stream at λ/4; exponential service of mean
//! E[S] makes each core an M/M/1 queue at utilization ρ = λ·E[S]/4. Its
//! mean wait in queue is ρ·E[S]/(1 − ρ), and it is busy a share ρ of the
//! time. The catalog holds only C0 and C1, with every latency and the
//! target residency zero, so a wake adds no delay and an idle core is
//! never counted as busy.

use aw_cstates::{CState, CStateCatalog, CStateParams, NamedConfig};
use aw_server::{Dispatch, ServerConfig, SimBuilder, WorkloadSpec};
use aw_types::Nanos;

const CORES: usize = 4;
/// E[S], in nanoseconds.
const MEAN_SERVICE_NS: f64 = 10_000.0;
const SEEDS: u64 = 10;

/// A 4-core server at per-core utilization `rho`, random dispatch,
/// C1 as the only idle state and every transition free.
fn config(rho: f64) -> (ServerConfig, WorkloadSpec) {
    let base = ServerConfig::new(CORES, NamedConfig::NtNoC6NoC1e);
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
        .with_dispatch(Dispatch::Random)
        .with_warmup(Nanos::from_millis(10.0))
        .with_duration(Nanos::from_millis(100.0));
    let qps = rho * CORES as f64 / (MEAN_SERVICE_NS * 1e-9);
    (config, WorkloadSpec::poisson("mm1", qps, Nanos::new(MEAN_SERVICE_NS), 1.0))
}

/// Mean and standard error of `xs`.
fn mean_and_se(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

#[test]
fn random_dispatch_matches_mm1_queue_wait_and_busy_share() {
    for rho in [0.3, 0.6, 0.8] {
        let (config, workload) = config(rho);
        let runs: Vec<_> = (0..SEEDS)
            .map(|seed| SimBuilder::new(config.clone(), workload.clone(), seed).run().metrics)
            .collect();
        let waits: Vec<f64> = runs.iter().map(|m| m.breakdown.queue.as_nanos()).collect();
        let busy: Vec<f64> = runs.iter().map(|m| m.residency_of(CState::C0).get()).collect();

        let (wait, se) = mean_and_se(&waits);
        let expected = rho * MEAN_SERVICE_NS / (1.0 - rho);
        assert!(
            (wait - expected).abs() <= 4.0 * se,
            "rho {rho}: mean queue wait {wait:.0} ± {se:.0} ns, M/M/1 gives {expected:.0} ns"
        );
        let (busy, _) = mean_and_se(&busy);
        assert!((busy - rho).abs() <= 0.01, "rho {rho}: C0 residency {busy:.4}");
    }
}
