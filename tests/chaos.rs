//! Chaos harness: deterministic fault injection, graceful degradation,
//! and overload protection hold up under arbitrary fault plans — and the
//! fault layer is bit-invisible when no faults fire.

use std::collections::BTreeMap;

use agilewatts::aw_cluster::{AutoscalePolicy, FleetConfig, FleetSim, LoadShape, RoutingPolicy};
use agilewatts::aw_cstates::{CState, NamedConfig};
use agilewatts::aw_exec::{set_default_jobs, SweepExecutor};
use agilewatts::aw_faults::{
    FailureArtifact, FaultPlan, FaultSpec, FleetFailureArtifact, FleetFaultKind, FleetFaultRecord,
    FleetFaultSpec,
};
use agilewatts::aw_server::{RunMetrics, ServerConfig, SimBuilder, WorkloadSpec};
use agilewatts::aw_sim::SimRng;
use agilewatts::aw_types::Nanos;

/// See `tests/common/json_reader.rs` — a reader independent of the
/// `aw-telemetry` writer the artifacts render with.
#[path = "common/json_reader.rs"]
mod json;

fn golden_workload() -> WorkloadSpec {
    WorkloadSpec::poisson("golden", 60_000.0, Nanos::from_micros(3.0), 0.8)
}

fn golden_run(named: NamedConfig, seed: u64, plan: Option<FaultPlan>) -> RunMetrics {
    let cfg = ServerConfig::new(4, named).with_duration(Nanos::from_millis(80.0));
    let mut sim = SimBuilder::new(cfg, golden_workload(), seed);
    if let Some(plan) = plan {
        sim = sim.with_faults(plan);
    }
    sim.run().into_metrics()
}

/// Bit-exact fingerprints captured on the pre-fault-layer baseline. The
/// common-random-numbers discipline (each fault category owns its own
/// seeded stream; inactive plans never draw) guarantees that compiling
/// in — and even attaching — a zero-rate fault plan perturbs nothing.
const GOLDEN: [(NamedConfig, u64, u64, u64, u64, u64); 2] = [
    (NamedConfig::Aw, 7, 5015, 0x408c_58ee_016d_605b, 0x40ce_d59e_1951_8000, 0x40bd_655d_282c_e288),
    (
        NamedConfig::Baseline,
        21,
        4855,
        0x4096_9bdd_9899_c9da,
        0x40cf_6ca7_308f_5000,
        0x40bd_0c77_6a1e_f322,
    ),
];

#[test]
fn fault_free_runs_match_golden_bits() {
    for (named, seed, completed, power, p99, mean) in GOLDEN {
        for plan in [None, Some(FaultPlan::none())] {
            let attached = plan.is_some();
            let m = golden_run(named, seed, plan);
            assert_eq!(m.completed, completed, "{named} seed={seed} attached={attached}");
            assert_eq!(
                m.avg_core_power.as_milliwatts().to_bits(),
                power,
                "{named} power bits drifted (attached={attached})"
            );
            assert_eq!(
                m.server_latency.p99.as_nanos().to_bits(),
                p99,
                "{named} p99 bits drifted (attached={attached})"
            );
            assert_eq!(
                m.server_latency.mean.as_nanos().to_bits(),
                mean,
                "{named} mean bits drifted (attached={attached})"
            );
            assert!(m.degradation.is_clean(), "{named}: clean run reported degradation");
        }
    }
}

#[test]
fn same_seed_and_plan_reproduce_identical_metrics() {
    let spec = FaultSpec::parse(
        "seed=11,wake-fail=0.25,relock=0.1,drowsy=0.1,lost-wake=0.05,spurious=2000,storm=500,slowdown=20",
    )
    .unwrap();
    let run = || {
        let cfg = ServerConfig::new(4, NamedConfig::Aw)
            .with_duration(Nanos::from_millis(60.0))
            .with_queue_cap(16)
            .with_request_timeout(Nanos::from_micros(400.0));
        SimBuilder::new(cfg, golden_workload(), 13)
            .with_faults(FaultPlan::new(spec.clone()))
            .run()
            .into_metrics()
    };
    let (a, b) = (run(), run());
    assert!(a.degradation.faults_injected > 0, "plan was supposed to fire");
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed + plan must be bit-identical");
}

#[test]
fn breaker_demotes_agile_states_and_rearms() {
    // Every agile wake fails through all retries, so each C6A/C6AE exit
    // falls back to a full C6 exit and the per-core breaker trips after
    // K consecutive failures, demoting the governor menu to C1/C1E until
    // the cooldown re-arms it.
    let spec = FaultSpec::parse("seed=5,wake-fail=1.0").unwrap();
    let cfg = ServerConfig::new(4, NamedConfig::Aw).with_duration(Nanos::from_millis(80.0));
    let m = SimBuilder::new(cfg, golden_workload(), 7)
        .with_faults(FaultPlan::new(spec))
        .run()
        .into_metrics();
    let d = &m.degradation;
    assert!(d.fallback_exits > 0, "no full-C6 fallback exits: {d:?}");
    assert!(d.breaker_trips > 0, "breaker never tripped: {d:?}");
    assert!(d.breaker_restores > 0, "breaker never re-armed: {d:?}");
    assert!(d.demoted_selections > 0, "governor never saw the demoted menu: {d:?}");
    // While the breaker is open the governor selects from the demoted
    // menu (C1/C1E/C6), so agile residency must fall versus a healthy
    // run of the same workload and seed, and the legacy twins pick up
    // the idle time the agile states lost.
    let healthy = golden_run(NamedConfig::Aw, 7, None);
    let agile =
        |m: &RunMetrics| m.residency_of(CState::C6A).get() + m.residency_of(CState::C6AE).get();
    let legacy =
        |m: &RunMetrics| m.residency_of(CState::C1).get() + m.residency_of(CState::C1E).get();
    assert!(
        agile(&m) < agile(&healthy),
        "demotion did not reduce agile residency ({} vs healthy {})",
        agile(&m),
        agile(&healthy),
    );
    assert!(legacy(&m) > legacy(&healthy), "legacy twins gained no residency under demotion");
    assert!(m.completed > 0, "server stopped serving under faults");
}

#[test]
fn overload_sheds_are_bounded_and_accounted() {
    let cfg = ServerConfig::new(2, NamedConfig::Aw)
        .with_duration(Nanos::from_millis(40.0))
        .with_queue_cap(32)
        .with_request_timeout(Nanos::from_micros(40.0));
    let w = WorkloadSpec::poisson("overload", 900_000.0, Nanos::from_micros(3.0), 0.8);
    let m = SimBuilder::new(cfg, w, 29).run().into_metrics();
    let d = &m.degradation;
    assert!(d.shed > 0, "bounded queue never shed: {d:?}");
    assert!(d.timeouts > 0, "stale requests never timed out: {d:?}");
    assert!(d.retries > 0, "shed work was never retried: {d:?}");
    assert!(d.retries_exhausted > 0, "retry budget never exhausted: {d:?}");
    assert!(m.completed > 0, "overload protection starved the server entirely");
}

/// A fully featured fleet config (diurnal load, autoscaler, packing)
/// with an optional fleet fault hook attached.
fn chaos_fleet(fleet_faults: Option<FleetFaultSpec>) -> FleetConfig {
    let cores = 4;
    let workload = WorkloadSpec::poisson("fleet-chaos", 1_000.0, Nanos::from_micros(250.0), 0.6);
    let capacity = cores as f64 / workload.mean_service().as_secs();
    let mut config = FleetConfig::new(
        4,
        ServerConfig::new(cores, NamedConfig::NtAw),
        workload,
        0.3 * capacity * 4.0,
    )
    .with_epochs(3, Nanos::from_millis(15.0))
    .with_policy(RoutingPolicy::Packing)
    .with_load(LoadShape::Diurnal { amplitude: 0.5 })
    .with_autoscale(AutoscalePolicy::default());
    if let Some(spec) = fleet_faults {
        config = config.with_fleet_faults(spec);
    }
    config
}

/// Fleet-scale CRN invisibility: a `NoFaults`-equivalent fleet fault
/// plan (attached but inert) leaves the full fleet report byte-identical
/// to the no-hook run — timeline CSV, ledger, every latency bit — at
/// serial and fanned-out worker counts alike. One test function on
/// purpose: [`set_default_jobs`] is process-global and must not race
/// with itself across `#[test]` functions of this binary.
#[test]
fn inert_fleet_fault_plan_is_invisible_at_any_fanout() {
    let fingerprint = |faults: Option<FleetFaultSpec>| {
        let report = FleetSim::new(chaos_fleet(faults)).run();
        format!("{}\n{report:?}", report.timeline_csv())
    };
    let mut ladders: Vec<(usize, String)> = Vec::new();
    for jobs in [1usize, 8] {
        set_default_jobs(jobs);
        assert_eq!(SweepExecutor::current().jobs(), jobs, "override not picked up");
        let bare = fingerprint(None);
        let inert = fingerprint(Some(FleetFaultSpec::none()));
        assert_eq!(bare, inert, "inert fleet fault hook drifted the report at jobs={jobs}");
        ladders.push((jobs, bare));
    }
    set_default_jobs(0); // release the override for anything that follows

    let (_, serial) = &ladders[0];
    for (jobs, fp) in &ladders[1..] {
        assert_eq!(fp, serial, "fleet report drifted between jobs=1 and jobs={jobs}");
    }
}

/// One arbitrary-but-reproducible fault plan per chaos round.
fn random_spec(rng: &mut SimRng, round: u64) -> FaultSpec {
    let p = |rng: &mut SimRng| (rng.uniform() * 0.3 * 100.0).round() / 100.0;
    let spec = format!(
        "seed={},wake-fail={},wake-retries={},relock={},drowsy={},lost-wake={},spurious={},storm={},storm-size={},slowdown={},slow-factor={}",
        1000 + round,
        p(rng),
        1 + (rng.uniform() * 4.0) as u32,
        p(rng),
        p(rng),
        p(rng),
        (rng.uniform() * 5_000.0).round(),
        (rng.uniform() * 1_000.0).round(),
        1 + (rng.uniform() * 128.0) as u32,
        (rng.uniform() * 50.0).round(),
        1.0 + (rng.uniform() * 4.0 * 10.0).round() / 10.0,
    );
    FaultSpec::parse(&spec).unwrap_or_else(|e| panic!("generated bad spec '{spec}': {e}"))
}

/// 32 arbitrary plans, each with overload protection and telemetry on:
/// every run must terminate with invariants intact (conservation of
/// requests, complete residencies, legal life-cycle transitions), and
/// every degradation counter must agree with the telemetry registry —
/// no shed or timed-out request goes unaccounted.
#[test]
fn chaos_plans_terminate_with_invariants_intact() {
    // The plan stream is one serial RNG, so draw all 32 specs first;
    // the rounds themselves are independent simulations (own seed, own
    // plan) and run on the ambient executor.
    let mut rng = SimRng::seed(0xC4A0_5EED);
    let rounds: Vec<(u64, FaultSpec)> =
        (0..32).map(|round| (round, random_spec(&mut rng, round))).collect();
    agilewatts::aw_exec::SweepExecutor::current().map(&rounds, |&(round, ref spec)| {
        let cfg = ServerConfig::new(4, NamedConfig::Aw)
            .with_duration(Nanos::from_millis(30.0))
            .with_queue_cap(8)
            .with_request_timeout(Nanos::from_micros(300.0));
        let w = WorkloadSpec::poisson("chaos", 120_000.0, Nanos::from_micros(3.0), 0.8);
        let output = SimBuilder::new(cfg, w, 100 + round)
            .with_faults(FaultPlan::new(spec.clone()))
            .with_telemetry(100_000)
            .run();
        assert!(
            output.failure.is_none(),
            "round {round} ({spec}) violated invariants:\n{}",
            output.failure.unwrap()
        );
        let d = &output.metrics.degradation;
        let reg = &output.telemetry.as_ref().expect("telemetry enabled").registry;
        assert_eq!(reg.counter("faults.injected"), d.faults_injected, "round {round} ({spec})");
        assert_eq!(reg.counter("overload.shed"), d.shed, "round {round} ({spec})");
        assert_eq!(reg.counter("overload.timeouts"), d.timeouts, "round {round} ({spec})");
        assert_eq!(reg.counter("overload.retries"), d.retries, "round {round} ({spec})");
        assert_eq!(reg.counter("breaker.trips"), d.breaker_trips, "round {round} ({spec})");
        assert_eq!(reg.counter("breaker.restores"), d.breaker_restores, "round {round} ({spec})");
    });
}

/// Every character class the JSON escaper special-cases, plus non-ASCII.
const HOSTILE: &str = "q\"uote b\\ack n\new r\ret t\tab \u{1} \u{1f} é ✓ 😀";

fn parse(rendered: &str) -> json::Value {
    json::parse(rendered).unwrap_or_else(|e| panic!("invalid JSON ({e}): {rendered}"))
}

fn fields(v: &json::Value) -> &BTreeMap<String, json::Value> {
    match v {
        json::Value::Object(fields) => fields,
        other => panic!("not a JSON object: {other:?}"),
    }
}

/// Both replay artifacts render strict JSON that an independent reader
/// parses back to exactly the seed, spec string, and entries that went
/// in, whatever characters the strings hold.
#[test]
fn failure_artifacts_round_trip_through_json() {
    let violations = vec![HOSTILE.to_string(), format!("gap {HOSTILE} of 3ns"), String::new()];
    let artifact = FailureArtifact {
        seed: 123_456_789,
        fault_spec: HOSTILE.into(),
        violations: violations.clone(),
    };
    let rendered = artifact.to_json();
    assert!(rendered.contains("r\\ret"), "\\r renders as a short escape: {rendered}");
    let doc = parse(&rendered);
    let f = fields(&doc);
    assert_eq!(f.keys().collect::<Vec<_>>(), ["fault_spec", "seed", "violations"]);
    assert_eq!(f["seed"].as_f64(), Some(123_456_789.0));
    assert_eq!(f["fault_spec"].as_str(), Some(HOSTILE));
    let parsed: Vec<_> = f["violations"]
        .as_array()
        .expect("violations array")
        .iter()
        .map(json::Value::as_str)
        .collect();
    assert_eq!(parsed, violations.iter().map(|v| Some(v.as_str())).collect::<Vec<_>>());

    let events = vec![
        FleetFaultRecord { epoch: 0, server: 3, kind: FleetFaultKind::Crash },
        FleetFaultRecord { epoch: 2, server: 1, kind: FleetFaultKind::RackOutage },
        FleetFaultRecord { epoch: 7, server: 12, kind: FleetFaultKind::ThrottleEnd },
    ];
    let fleet =
        FleetFailureArtifact { seed: 42, fleet_spec: HOSTILE.into(), events: events.clone() };
    let doc = parse(&fleet.to_json());
    let f = fields(&doc);
    assert_eq!(f.keys().collect::<Vec<_>>(), ["events", "fleet_spec", "seed"]);
    assert_eq!(f["seed"].as_f64(), Some(42.0));
    assert_eq!(f["fleet_spec"].as_str(), Some(HOSTILE));
    let parsed = f["events"].as_array().expect("events array");
    assert_eq!(parsed.len(), events.len());
    for (got, want) in parsed.iter().zip(&events) {
        let g = fields(got);
        assert_eq!(g.keys().collect::<Vec<_>>(), ["epoch", "kind", "server"]);
        assert_eq!(g["epoch"].as_f64(), Some(want.epoch as f64));
        assert_eq!(g["server"].as_f64(), Some(want.server as f64));
        assert_eq!(g["kind"].as_str(), Some(want.kind.name()));
    }
}
