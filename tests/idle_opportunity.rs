//! The idle-opportunity observability contract (DESIGN §13):
//!
//! * **Observation purity** — attaching `with_idle_analysis()` must not
//!   perturb a single bit of any run artifact: the attribution timeline
//!   CSV, the chaos golden metrics, and the fleet timeline are all
//!   byte-identical with and without the observer, at any worker count.
//! * **Ledger dominance** — the oracle-achievable savings bound the
//!   achieved savings from above on every run (the oracle always has
//!   the governor's own choice in its candidate set).
//! * **Prediction provenance** — the audit's prediction-error statistics
//!   are exactly a hand-folded EWMA over the observed idle stream.

use agilewatts::aw_cluster::{AutoscalePolicy, FleetConfig, FleetSim, LoadShape, RoutingPolicy};
use agilewatts::aw_cstates::{CState, IdleGovernor, MenuGovernor, NamedConfig};
use agilewatts::aw_exec::{set_default_jobs, SweepExecutor};
use agilewatts::aw_faults::{FaultPlan, FaultSpec};
use agilewatts::aw_server::{IdleInterval, ServerConfig, SimBuilder, WorkloadSpec};
use agilewatts::aw_sleep::{BreakEven, IdleReport};
use agilewatts::aw_types::Nanos;
use agilewatts::aw_workloads::memcached_etc;
use proptest::prelude::*;

fn server_config(named: NamedConfig) -> ServerConfig {
    ServerConfig::new(4, named).with_duration(Nanos::from_millis(60.0))
}

/// The attribution timeline CSV plus the full-precision metrics debug
/// form for one memcached run, with or without the idle observer.
fn server_artifacts(observed: bool) -> (String, String) {
    let mut sim = SimBuilder::new(server_config(NamedConfig::Aw), memcached_etc(150_000.0), 7)
        .with_attribution(Nanos::from_millis(5.0));
    if observed {
        sim = sim.with_idle_analysis();
    }
    let out = sim.run();
    let csv = out.attribution.as_ref().expect("attribution on").timeline.to_csv();
    (csv, format!("{:?}", out.metrics))
}

/// Chaos-style golden bits (completions + exact power/p99 bit patterns)
/// for a faulted run, with or without the idle observer.
fn chaos_bits(observed: bool) -> String {
    let spec = FaultSpec::parse("seed=11,wake-fail=0.25,relock=0.1,lost-wake=0.05,spurious=2000")
        .expect("fixed plan parses");
    let workload = WorkloadSpec::poisson("golden", 60_000.0, Nanos::from_micros(3.0), 0.8);
    let mut sim = SimBuilder::new(server_config(NamedConfig::Aw), workload, 7)
        .with_faults(FaultPlan::new(spec));
    if observed {
        sim = sim.with_idle_analysis();
    }
    let m = sim.run().into_metrics();
    format!(
        "{} {:#018x} {:#018x}",
        m.completed,
        m.avg_core_power.as_milliwatts().to_bits(),
        m.server_latency.p99.as_nanos().to_bits()
    )
}

/// A fully featured fleet (diurnal load, autoscaler, packing) rendered
/// to its timeline CSV plus debug form. Fleet epoch sims always run the
/// idle observer, so identical fingerprints across worker counts pin
/// both determinism and observation purity on the fleet path.
fn fleet_fingerprint() -> String {
    let cores = 4;
    let workload = WorkloadSpec::poisson("fleet-idle", 1_000.0, Nanos::from_micros(250.0), 0.6);
    let capacity = cores as f64 / workload.mean_service().as_secs();
    let config = FleetConfig::new(
        4,
        ServerConfig::new(cores, NamedConfig::NtAw),
        workload,
        0.3 * capacity * 4.0,
    )
    .with_epochs(3, Nanos::from_millis(15.0))
    .with_policy(RoutingPolicy::Packing)
    .with_load(LoadShape::Diurnal { amplitude: 0.5 })
    .with_autoscale(AutoscalePolicy::default());
    let report = FleetSim::new(config).run();
    format!("{}\n{report:?}", report.timeline_csv())
}

/// One test function on purpose: [`set_default_jobs`] is process-global,
/// and Rust runs `#[test]` functions of one binary concurrently — the
/// jobs ladder must not race with itself.
#[test]
fn idle_analysis_is_invisible_in_every_artifact() {
    let mut fleets: Vec<(usize, String)> = Vec::new();
    for jobs in [1usize, 8] {
        set_default_jobs(jobs);
        assert_eq!(SweepExecutor::current().jobs(), jobs, "override not picked up");
        let (plain_csv, plain_metrics) = server_artifacts(false);
        let (seen_csv, seen_metrics) = server_artifacts(true);
        assert_eq!(plain_csv, seen_csv, "timeline CSV drifted under observation at jobs={jobs}");
        assert_eq!(plain_metrics, seen_metrics, "metrics drifted under observation at jobs={jobs}");
        assert_eq!(chaos_bits(false), chaos_bits(true), "chaos bits drifted at jobs={jobs}");
        fleets.push((jobs, fleet_fingerprint()));
    }
    set_default_jobs(0); // release the override for anything that follows

    let (_, serial) = &fleets[0];
    assert!(serial.contains(",recovery,"), "fleet timeline lost its recovery column");
    for (jobs, fp) in &fleets[1..] {
        assert_eq!(fp, serial, "fleet timeline drifted at jobs={jobs}");
    }
}

#[test]
fn oracle_dominates_achieved_on_every_run() {
    for (named, seed) in [
        (NamedConfig::Baseline, 3),
        (NamedConfig::Aw, 3),
        (NamedConfig::Aw, 99),
        (NamedConfig::NtAw, 17),
    ] {
        let config = server_config(named);
        let out = SimBuilder::new(config.clone(), memcached_etc(120_000.0), seed)
            .with_idle_analysis()
            .run();
        let intervals = out.idle_intervals.as_deref().expect("idle analysis on");
        assert!(!intervals.is_empty(), "{named} seed={seed}: no idle intervals captured");
        let report = IdleReport::analyze(
            intervals,
            &BreakEven::from_server(&config),
            4,
            Nanos::from_millis(5.0),
        );
        let l = &report.ledger;
        assert!(
            l.oracle_savings() >= l.achieved_savings(),
            "{named} seed={seed}: oracle below achieved"
        );
        assert!(
            l.achievable_residency >= l.achieved_residency,
            "{named} seed={seed}: achievable residency below achieved"
        );
        assert!((0.0..=1.0).contains(&l.recovery()), "{named} seed={seed}");
        assert!((0.0..=1.0).contains(&l.deep_recovery()), "{named} seed={seed}");
        assert_eq!(report.audit.decisions, l.intervals, "{named} seed={seed}");
    }
}

/// The example's headline claim, pinned at test scale: same arrivals,
/// same seed — AW banks a strictly larger share of the deep (C6-class)
/// opportunity than the legacy baseline menu. Both runs are scored
/// against the *same* yardstick (the full AW menu's break-even model):
/// under the baseline's own legacy model short idles are simply
/// un-sleepable, which would make its recovery trivially perfect.
#[test]
fn aw_recovers_more_of_the_deep_opportunity_than_baseline() {
    let yardstick = BreakEven::from_server(&ServerConfig::new(8, NamedConfig::Aw));
    let recovery = |named| {
        let config = ServerConfig::new(8, named).with_duration(Nanos::from_millis(80.0));
        let out = SimBuilder::new(config, memcached_etc(200_000.0), 42).with_idle_analysis().run();
        let report = IdleReport::analyze(
            out.idle_intervals.as_deref().expect("idle analysis on"),
            &yardstick,
            8,
            Nanos::from_millis(10.0),
        );
        report.ledger.deep_recovery()
    };
    let base = recovery(NamedConfig::Baseline);
    let aw = recovery(NamedConfig::Aw);
    assert!(aw > base, "AW deep recovery {aw:.4} must beat baseline {base:.4}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `MenuGovernor::last_prediction` is exactly the hand-folded EWMA
    /// (× pessimism) over the observed idle stream, and the audit's
    /// error statistics are exactly the fold of those predictions
    /// against the actual durations.
    #[test]
    fn menu_prediction_stats_match_a_hand_folded_ewma(
        durations in prop::collection::vec(100.0f64..5_000_000.0, 2..120),
        alpha in 0.05f64..1.0,
        pessimism in 0.05f64..1.0,
    ) {
        let mut gov = MenuGovernor::with_params(alpha, pessimism);
        let mut ewma: Option<f64> = None;
        let mut intervals = Vec::new();
        let mut start = 0.0;
        for &d in &durations {
            // The prediction available *before* this interval is what the
            // capture layer stamps on it.
            let hand = ewma.map(|e| e * pessimism);
            let predicted = gov.last_prediction();
            match (hand, predicted) {
                (None, None) => {}
                (Some(h), Some(p)) => prop_assert!(
                    (p.as_nanos() - h).abs() <= 1e-9 * h.max(1.0),
                    "prediction diverged: hand {h} vs governor {p}"
                ),
                other => prop_assert!(false, "prediction presence diverged: {other:?}"),
            }
            intervals.push(IdleInterval::new(
                0,
                Nanos::new(start),
                Nanos::new(d),
                CState::C1,
                predicted,
            ));
            start += d + 1_000.0;
            gov.observe_idle(Nanos::new(d));
            ewma = Some(match ewma {
                None => d,
                Some(prev) => prev * (1.0 - alpha) + d * alpha,
            });
        }

        // Hand-fold the statistics the audit must report: only intervals
        // carrying a prediction count (the first never does).
        let mut n = 0u64;
        let mut under = 0u64;
        let mut err_sum = 0.0;
        let mut abs_sum = 0.0;
        for iv in &intervals {
            if let Some(p) = iv.predicted() {
                n += 1;
                let err = (p - iv.duration).as_nanos();
                err_sum += err;
                abs_sum += err.abs();
                if err < 0.0 {
                    under += 1;
                }
            }
        }
        prop_assert!(n > 0, "every case has at least one predicted interval");

        let config = ServerConfig::new(1, NamedConfig::Baseline);
        let report = IdleReport::analyze(
            &intervals,
            &BreakEven::from_server(&config),
            1,
            Nanos::from_millis(10.0),
        );
        let p = &report.audit.prediction;
        prop_assert_eq!(p.predicted, n);
        prop_assert_eq!(p.underpredictions, under);
        let tol = 1e-9 * (abs_sum / n as f64).max(1.0);
        prop_assert!((p.mean_error.as_nanos() - err_sum / n as f64).abs() <= tol);
        prop_assert!((p.mean_abs_error.as_nanos() - abs_sum / n as f64).abs() <= tol);
    }
}
