//! Property-based tests of the full server simulator's invariants,
//! across random loads, configurations, and seeds.

use aw_cstates::{CState, FreqLevel, NamedConfig};
use aw_server::{GovernorKind, ServerConfig, SimBuilder, WorkloadSpec};
use aw_types::Nanos;
use proptest::prelude::*;

fn run(
    named: NamedConfig,
    cores: usize,
    qps: f64,
    service_us: f64,
    seed: u64,
    governor: GovernorKind,
) -> aw_server::RunMetrics {
    let cfg = ServerConfig::new(cores, named)
        .with_duration(Nanos::from_millis(30.0))
        .with_governor(governor);
    let w = WorkloadSpec::poisson("prop", qps, Nanos::from_micros(service_us), 0.7);
    SimBuilder::new(cfg, w, seed).run().into_metrics()
}

fn config_strategy() -> impl Strategy<Value = NamedConfig> {
    (0usize..NamedConfig::ALL.len()).prop_map(|i| NamedConfig::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any stable configuration: residencies sum to one, power sits
    /// between the deepest idle power and the Turbo ceiling, and only
    /// enabled states are ever occupied.
    #[test]
    fn invariants_hold_across_the_config_space(
        named in config_strategy(),
        cores in 1usize..6,
        qps in 5_000.0f64..200_000.0,
        service_us in 1.0f64..8.0,
        seed: u64,
    ) {
        let m = run(named, cores, qps, service_us, seed, GovernorKind::Menu);
        prop_assert!(m.residencies.is_complete(1e-6), "{}", m.residencies.total());

        let catalog = aw_server::HardwareModel::skylake_sp().catalog();
        let floor = catalog.power(CState::C6, FreqLevel::P1);
        let ceiling = aw_types::MilliWatts::from_watts(6.5);
        prop_assert!(m.avg_core_power >= floor * 0.9, "{}", m.avg_core_power);
        prop_assert!(m.avg_core_power <= ceiling, "{}", m.avg_core_power);

        let mask = named.config();
        for state in CState::IDLE {
            if !mask.is_enabled(state) {
                prop_assert_eq!(
                    m.residency_of(state),
                    aw_types::Ratio::ZERO,
                    "{} occupied under {}",
                    state,
                    named
                );
            }
        }
    }

    /// Throughput keeps up with offered load whenever utilization is
    /// comfortably below saturation.
    #[test]
    fn no_silent_request_loss(
        named in config_strategy(),
        seed: u64,
    ) {
        // 4 cores × 4 µs services at 150 K QPS → ~15% utilization.
        let m = run(named, 4, 150_000.0, 4.0, seed, GovernorKind::Menu);
        let ratio = m.achieved_qps / m.offered_qps;
        prop_assert!((0.85..1.15).contains(&ratio), "{named}: {ratio}");
    }

    /// Latency decomposition components always reassemble the mean.
    #[test]
    fn breakdown_reassembles_mean(named in config_strategy(), seed: u64, qps in 20_000.0f64..120_000.0) {
        let m = run(named, 4, qps, 4.0, seed, GovernorKind::Menu);
        if m.completed > 100 {
            let total = m.breakdown.total().as_nanos();
            let mean = m.server_latency.mean.as_nanos();
            prop_assert!((total - mean).abs() / mean < 0.02, "{total} vs {mean}");
        }
    }

    /// Determinism holds for every governor.
    #[test]
    fn determinism_across_policies(
        seed: u64,
        gov in prop::sample::select(vec![GovernorKind::Menu, GovernorKind::Ladder, GovernorKind::Oracle]),
    ) {
        let a = run(NamedConfig::Baseline, 3, 60_000.0, 4.0, seed, gov);
        let b = run(NamedConfig::Baseline, 3, 60_000.0, 4.0, seed, gov);
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.avg_core_power, b.avg_core_power);
        prop_assert_eq!(a.server_latency.p99, b.server_latency.p99);
    }

    /// Package-state residencies partition time, and PC6 only appears
    /// when C6 is enabled.
    #[test]
    fn package_states_partition(named in config_strategy(), seed: u64) {
        let m = run(named, 2, 10_000.0, 4.0, seed, GovernorKind::Menu);
        let sum: f64 = m.package_residency.iter().map(|r| r.get()).sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "{sum}");
        if !named.config().is_enabled(CState::C6) {
            prop_assert_eq!(m.package_residency[2], aw_types::Ratio::ZERO);
        }
    }

    /// Energy per request is positive and finite whenever work completed.
    #[test]
    fn energy_per_request_sane(named in config_strategy(), seed: u64) {
        let m = run(named, 4, 80_000.0, 4.0, seed, GovernorKind::Menu);
        if m.completed > 0 {
            let e = m.energy_per_request().as_joules();
            prop_assert!(e > 0.0 && e.is_finite());
            // Sanity band: 4-core package at ≤36 W / ≥80 K req/s ⇒ ≤0.5 mJ;
            // ≥2 W package at ≤90 K req/s ⇒ ≥20 µJ.
            prop_assert!((2e-5..5e-4).contains(&e), "{e}");
        }
    }
}
