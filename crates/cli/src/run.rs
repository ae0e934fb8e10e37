//! Command execution: maps a parsed [`Command`] onto the experiment API.

use std::time::Instant;

use agilewatts::aw_cstates::NamedConfig;
use agilewatts::aw_faults::FaultPlan;
use agilewatts::aw_server::{HardwareModel, RunOutput, ServerConfig, SimBuilder, WorkloadSpec};
use agilewatts::aw_sleep::{BreakEven, IdleReport};
use agilewatts::aw_telemetry::{AttributionReport, SloMonitor, TelemetryReport};
use agilewatts::aw_types::Nanos;
use agilewatts::aw_workloads::{kafka, memcached_etc, mysql_oltp, websearch, KafkaRate, MysqlRate};
use agilewatts::experiments::{
    enhanced_split, flow_latencies, governor_ablation, motivation, motivation_simulated,
    retention_ablation, sleep_mode_ablation, snoop_impact_on, table1_for, table2, table3, table4,
    table5, zone_count_ablation, CrossVendor, Diurnal, Fig10, Fig11, Fig12, Fig13, Fig8, Fig9,
    PackageAnalysis, SweepParams, Table5Params, Validation,
};
use agilewatts::{attribution_table, degradation_table, telemetry_table};

use crate::args::{
    AnalyzeArgs, Command, CommonArgs, FleetArgs, ParseError, RobustnessArgs, SweepArgs,
    TelemetryArgs, WatchArgs,
};

fn sweep_params(quick: bool, hw: &'static HardwareModel) -> SweepParams {
    if quick { SweepParams::quick() } else { SweepParams::default() }.with_hw(hw)
}

pub(crate) fn workload_by_name(
    name: &str,
    qps: f64,
    cores: usize,
) -> Result<WorkloadSpec, ParseError> {
    match name {
        "memcached" => Ok(memcached_etc(qps)),
        "kafka-low" => Ok(kafka(KafkaRate::Low)),
        "kafka-high" => Ok(kafka(KafkaRate::High)),
        "mysql-low" => Ok(mysql_oltp(MysqlRate::Low)),
        "mysql-mid" => Ok(mysql_oltp(MysqlRate::Mid)),
        "mysql-high" => Ok(mysql_oltp(MysqlRate::High)),
        "websearch-25" => Ok(websearch(0.25, cores)),
        "websearch-50" => Ok(websearch(0.5, cores)),
        other => Err(ParseError(format!("unknown workload '{other}'"))),
    }
}

/// Most requests one command may offer: 400× the largest run any
/// documented command, script or benchmark makes (`fleet_1k_diurnal` in
/// `scripts/bench.sh`, about 2.5e7).
const MAX_REQUESTS: f64 = 1e10;

/// Most server-epochs one fleet run may plan: 200× `fleet_1k_diurnal`'s
/// 24,000. Each holds its routing plan and report window in memory.
const MAX_SERVER_EPOCHS: f64 = 5e6;

/// Refuses a command whose estimated work is beyond [`MAX_REQUESTS`] or
/// [`MAX_SERVER_EPOCHS`], so a run that could never finish, or would
/// abort in the allocator, fails as a usage error instead. The estimate
/// is the offered requests (offered load × simulated time, summed over
/// epochs for a fleet and over both runs of `analyze`), each `--faults`
/// event counted as one more
/// request (storms and spurious wakes fire per core, slowdown bursts per
/// server, on every server-epoch of a fleet), and, for a fleet, its
/// servers × epochs. Nothing is simulated or allocated; an unknown
/// workload passes and fails when the command runs.
pub(crate) fn check_work(command: &Command, common: &CommonArgs) -> Result<(), ParseError> {
    let offered = |workload: &str, qps, cores, duration_ms: f64| {
        workload_by_name(workload, qps, cores).map_or(0.0, |w| w.offered_qps() * duration_ms / 1e3)
    };
    let fault_events = |cores: usize, secs: f64| {
        common.robustness.faults.as_ref().map_or(0.0, |f| {
            ((f.storm_rate + f.spurious_rate) * cores as f64 + f.slowdown_rate) * secs
        })
    };
    let (requests, server_epochs) = match command {
        Command::Sweep(a) => (
            offered(&a.workload, a.qps, a.cores, a.duration_ms)
                + fault_events(a.cores, a.duration_ms / 1e3),
            0.0,
        ),
        // The command simulates two runs (Baseline and AW) of the same
        // load, faults included.
        Command::Analyze(a) => (
            2.0 * (offered(&a.workload, a.qps, a.cores, a.duration_ms)
                + fault_events(a.cores, a.duration_ms / 1e3)),
            0.0,
        ),
        Command::Fleet(f) | Command::Watch(WatchArgs { fleet: f, .. }) => {
            let fleet = fleet_experiment(f, &common.telemetry, &common.robustness, Vec::new())
                .config(f.policy, f.config);
            let epochs = fleet.epochs as f64;
            let server_epochs = fleet.servers as f64 * epochs;
            let faults = server_epochs * fault_events(fleet.server.cores, fleet.epoch.as_secs());
            (fleet.total_qps * epochs * fleet.epoch.as_secs() + faults, server_epochs)
        }
        _ => return Ok(()),
    };
    for (estimate, limit, what) in [
        (requests, MAX_REQUESTS, "offered requests"),
        (server_epochs, MAX_SERVER_EPOCHS, "server-epochs"),
    ] {
        if estimate > limit {
            return Err(ParseError(format!(
                "refusing a run of about {estimate:.3e} {what}: the limit is {limit:.0e}"
            )));
        }
    }
    Ok(())
}

/// Executes a command, writing its report to stdout and any requested
/// artifacts to disk. The one dispatch path of the CLI.
///
/// `fleet` and `watch` own the shared flags at fleet level, and their
/// `--hw` list builds a mixed fleet; `cross-vendor` runs every model (or
/// the `--hw` list). Every other command runs on exactly one model. A
/// `sweep` instruments its own simulation; any other command given a
/// telemetry or robustness flag runs normally and then attaches one
/// representative instrumented run (see `run_traced_representative`).
/// Commands that describe the modeled Skylake-SP part itself (tables
/// 2–4, `flows`, `motivation`) reject any other model instead of
/// silently answering for the wrong silicon.
///
/// # Errors
///
/// Returns a [`ParseError`] for semantic errors detectable only at
/// execution time (e.g., an unknown workload name, an unwritable output
/// path, or `--hw` on a Skylake-only command), or when a fault-injected
/// run trips a runtime invariant.
pub fn execute_with(command: &Command, common: &CommonArgs) -> Result<(), ParseError> {
    let (telemetry, robustness) = (&common.telemetry, &common.robustness);
    let hw = || {
        let hw = common.single_hw()?;
        if hw.name != "skylake-sp"
            && matches!(
                command,
                Command::Table(2..=4) | Command::Flows | Command::Motivation { .. }
            )
        {
            return Err(ParseError(format!(
                "this command describes the modeled Skylake-SP part (PMA/UFPG/PPA calibration); \
                 --hw {} does not apply",
                hw.name
            )));
        }
        Ok(hw)
    };
    match command {
        Command::Fleet(args) => return run_fleet(args, telemetry, robustness, common.hw_models()),
        Command::Watch(args) => {
            return crate::watch::run_watch(args, telemetry, robustness, common.hw_models());
        }
        Command::CrossVendor { quick } => return run_cross_vendor(*quick, common.hw_models()),
        Command::Sweep(args) => return run_sweep(args, telemetry, robustness, hw()?),
        // `analyze` always captures idle intervals; `--idle-out` only
        // adds the artifact on disk.
        Command::Analyze(args) => return run_analyze(args, telemetry, robustness, hw()?),
        Command::Help => println!("{}", crate::usage()),
        Command::Table(n) => print_table(*n, hw()?),
        Command::Fig { number, quick } => run_fig(*number, *quick, hw()?),
        Command::Flows => hw().map(|_| print_flows())?,
        Command::Motivation { simulated } => hw().map(|_| print_motivation(*simulated))?,
        Command::Package { quick } => {
            let pkg = if *quick { PackageAnalysis::quick() } else { PackageAnalysis::default() }
                .with_hw(hw()?);
            for r in pkg.run() {
                println!(
                    "{:<16} {:<9} PC0/PC2/PC6 = {:>5.1}/{:>5.1}/{:>5.1}%  uncore {:>7.1} mW  core {:>7.1} mW",
                    r.workload, r.config, r.package_pct[0], r.package_pct[1],
                    r.package_pct[2], r.uncore_mw, r.core_mw
                );
            }
        }
        Command::Diurnal { quick } => {
            let d = if *quick { Diurnal::quick() } else { Diurnal::default() }.with_hw(hw()?);
            let r = d.run();
            println!(
                "stationary savings {:.1}%, diurnal savings {:.1}% (baseline {:.0} mW → AW {:.0} mW, tail Δ {:+.1}%)",
                r.stationary_savings_pct,
                r.diurnal_savings_pct,
                r.baseline_power_mw,
                r.aw_power_mw,
                r.tail_delta_pct
            );
        }
        Command::Snoop => print_snoop(hw()?),
        Command::Validate { quick } => print_validation(*quick, hw()?),
        Command::Ablations { quick } => run_ablations(*quick, hw()?),
        Command::Report { quick } => run_report(*quick, hw()?),
    }
    if common.is_active() {
        run_traced_representative(command, telemetry, robustness, hw()?)?;
    }
    Ok(())
}

/// Prints table `n`, 1–5 (the parser rejects other numbers).
fn print_table(n: u8, hw: &'static HardwareModel) {
    match n {
        1 => println!("{}", table1_for(hw)),
        2 => println!("{}", table2()),
        3 => println!("{}", table3()),
        4 => println!("{}", table4()),
        _ => println!("{}", table5(&Table5Params::default().with_hw(hw))),
    }
}

fn print_flows() {
    let f = flow_latencies();
    println!("C1 round trip:        {}", f.c1_round_trip);
    println!("C6 entry / exit:      {} / {}", f.c6_entry, f.c6_exit);
    println!("C6A entry / exit:     {} / {} (measured)", f.c6a_entry_measured, f.c6a_exit_measured);
    println!("C6A speedup over C6:  {:.0}×", f.speedup_vs_c6);
}

fn print_motivation(simulated: bool) {
    let rows = if simulated { motivation_simulated(42) } else { motivation() };
    for r in rows {
        println!(
            "{:<40} C0/C1/C6 = {:>3.0}/{:>3.0}/{:>3.0}% → {:>5.1}% savings bound",
            r.label, r.residencies_pct.0, r.residencies_pct.1, r.residencies_pct.2, r.savings_pct
        );
    }
}

fn print_snoop(hw: &'static HardwareModel) {
    let s = snoop_impact_on(hw);
    println!(
        "AW savings: {:.1}% quiet → {:.1}% snooping ({:.1} points lost)",
        s.savings_quiet_pct, s.savings_snooping_pct, s.lost_pct
    );
}

fn print_validation(quick: bool, hw: &'static HardwareModel) {
    let v = if quick { Validation::quick() } else { Validation::default() }.with_hw(hw);
    println!("{}", v.run());
}

/// Prints figure `number`, 8–13 (the parser rejects other numbers).
fn run_fig(number: u8, quick: bool, hw: &'static HardwareModel) {
    let params = sweep_params(quick, hw);
    match number {
        8 => println!("{}", Fig8::new(params).run()),
        9 => println!("{}", Fig9::new(params).run()),
        10 => println!("{}", Fig10::new(params).run()),
        11 => println!("{}", Fig11::new(params).run()),
        12 => {
            let f = if quick { Fig12::quick() } else { Fig12::default() }.with_hw(hw);
            println!("{}", f.run_all());
        }
        _ => {
            let f = if quick { Fig13::quick() } else { Fig13::default() }.with_hw(hw);
            println!("{}", f.run_all());
        }
    }
}

/// Runs the cross-vendor grid: the Fig. 8 sweep per hardware model —
/// every registered model, or the `--hw` list when one was given.
fn run_cross_vendor(quick: bool, models: Vec<&'static HardwareModel>) -> Result<(), ParseError> {
    let mut grid = CrossVendor::new(sweep_params(quick, HardwareModel::skylake_sp()));
    if !models.is_empty() {
        grid = grid.with_models(models);
    }
    println!("{}", grid.run());
    Ok(())
}

fn run_ablations(quick: bool, hw: &'static HardwareModel) {
    let params = sweep_params(quick, hw);
    let qps = if quick { 60_000.0 } else { 300_000.0 };
    println!("Governors (Memcached @ {qps:.0} QPS):");
    for r in governor_ablation(&params, qps) {
        println!(
            "  {:<8} AvgP {:>7.1} mW  p99 {:>7.2} µs  deep {:>5.1}%",
            r.governor, r.avg_power_mw, r.p99_us, r.deep_residency_pct
        );
    }
    println!("UFPG zones:");
    for r in zone_count_ablation() {
        println!(
            "  {:>2} zones: staggered {:>5.1} ns, simultaneous peak {:>4.1}×",
            r.zones, r.staggered_latency_ns, r.simultaneous_peak
        );
    }
    let s = sleep_mode_ablation();
    println!("Cache sleep mode: {} with vs {} without", s.with_sleep_mode, s.without_sleep_mode);
    let r = retention_ablation();
    println!("Retention: exit {} in-place vs {} external", r.in_place_exit, r.external_exit);
    let e = enhanced_split(&params, qps);
    println!("C6AE split: {:.1}% with C6AE vs {:.1}% C6A-only", e.with_c6ae_pct, e.c6a_only_pct);
}

/// Builds the [`Fleet`] experiment shared by `fleet` (batch) and `watch`
/// (streaming) from the common flag set.
pub(crate) fn fleet_experiment(
    args: &FleetArgs,
    telemetry: &TelemetryArgs,
    robustness: &RobustnessArgs,
    hw: Vec<&'static HardwareModel>,
) -> agilewatts::experiments::Fleet {
    use agilewatts::aw_cluster::{AutoscalePolicy, LoadShape};
    agilewatts::experiments::Fleet {
        hw,
        servers: args.servers,
        cores: args.cores,
        utilization: args.utilization,
        epochs: args.epochs,
        epoch: Nanos::from_millis(args.epoch_ms),
        load: match args.diurnal {
            Some(amplitude) => LoadShape::Diurnal { amplitude },
            None => LoadShape::Constant,
        },
        autoscale: args.autoscale.then(AutoscalePolicy::default),
        slo_p99: telemetry.slo_p99.map_or(Nanos::from_micros(500.0), Nanos::new),
        seed: args.seed,
        fleet_faults: args.fleet_faults.clone(),
        server_faults: robustness.faults.clone(),
        queue_cap: robustness.queue_cap,
        request_timeout_us: robustness.request_timeout_us,
    }
}

/// Runs one fleet simulation and prints its report. `--slo-p99` sets the
/// fleet SLO target and `--timeline-out` receives the per-epoch fleet
/// time series. `--fleet-faults` injects fleet-level chaos, and the
/// per-server robustness flags (`--faults`, `--queue-cap`,
/// `--request-timeout`) apply to every simulated server-epoch; the
/// tracing flags (`--trace-out`, …) do not apply at fleet scale.
fn run_fleet(
    args: &FleetArgs,
    telemetry: &TelemetryArgs,
    robustness: &RobustnessArgs,
    hw: Vec<&'static HardwareModel>,
) -> Result<(), ParseError> {
    let report =
        fleet_experiment(args, telemetry, robustness, hw).run_one(args.policy, args.config);
    println!("{report}");
    if let Some(artifact) = &report.failure {
        println!("replay: agilewatts fleet {}", artifact.replay_hint());
    }
    if let Some(path) = &telemetry.timeline_out {
        std::fs::write(path, report.timeline_csv())
            .map_err(|e| ParseError(format!("cannot write fleet timeline to '{path}': {e}")))?;
        println!("timeline: {} windows of {} -> {path}", report.windows.len(), report.epoch);
    }
    Ok(())
}

/// Runs the same workload under the Baseline and AW C-state menus with
/// common random numbers, prints both idle-opportunity reports, and
/// compares how much of the deep-sleep (C6-family) opportunity each
/// recovered. Both runs take the robustness flags (`--faults`,
/// `--queue-cap`, `--request-timeout`); a tripped invariant is an error.
/// `--idle-out` additionally writes the AW run's report to disk (`.json`
/// = JSON, `.folded` = folded stack, else windowed CSV).
fn run_analyze(
    args: &AnalyzeArgs,
    telemetry: &TelemetryArgs,
    robustness: &RobustnessArgs,
    hw: &'static HardwareModel,
) -> Result<(), ParseError> {
    let workload = workload_by_name(&args.workload, args.qps, args.cores)?;
    let window = attrib_window(args.duration_ms);
    // Both configurations are scored against the same yardstick — the
    // full AW menu's break-even model *of the active hardware model*, so
    // `analyze --hw zen2` audits against Zen 2's own costs. Under the
    // baseline's own legacy model short idles are simply un-sleepable
    // (C6's round trip never fits), which would make its recovery
    // trivially perfect.
    let yardstick = BreakEven::from_server(&ServerConfig::for_hw(hw, args.cores, NamedConfig::Aw));
    let mut recoveries = Vec::new();
    let mut aw_report = None;
    for named in [NamedConfig::Baseline, NamedConfig::Aw] {
        let config = ServerConfig::for_hw(hw, args.cores, named)
            .with_duration(Nanos::from_millis(args.duration_ms));
        let output = checked(
            robust_run(&config, workload.clone(), args.seed, robustness).with_idle_analysis(),
        )?;
        let intervals = output.idle_intervals.as_deref().unwrap_or(&[]);
        let report =
            IdleReport::analyze(intervals, &BreakEven::from_server(&config), args.cores, window);
        println!(
            "[{named}] {} @ {:.0} QPS, {} cores ({})",
            workload.name(),
            args.qps,
            args.cores,
            hw.name
        );
        println!("{report}\n");
        let vs_aw_menu = IdleReport::analyze(intervals, &yardstick, args.cores, window);
        recoveries.push((named, vs_aw_menu.ledger.deep_recovery()));
        if named == NamedConfig::Aw {
            aw_report = Some(report);
        }
    }
    let (baseline, aw) = (recoveries[0].1, recoveries[1].1);
    println!(
        "deep-sleep recovery vs the AW menu: {} {:.1}% vs {} {:.1}% ({:+.1} points)",
        recoveries[0].0,
        100.0 * baseline,
        recoveries[1].0,
        100.0 * aw,
        100.0 * (aw - baseline)
    );
    if let Some(path) = &telemetry.idle_out {
        write_idle_report(&aw_report.expect("AW run analyzed"), path)?;
    }
    Ok(())
}

/// Writes an idle-opportunity report to `path`, format by suffix:
/// `.json` = full JSON, `.folded` = chosen→optimal folded stack, anything
/// else the windowed recovery CSV.
fn write_idle_report(report: &IdleReport, path: &str) -> Result<(), ParseError> {
    let body = if path.ends_with(".json") {
        report.to_json()
    } else if path.ends_with(".folded") {
        report.folded_stack()
    } else {
        report.to_csv()
    };
    std::fs::write(path, body)
        .map_err(|e| ParseError(format!("cannot write idle report to '{path}': {e}")))?;
    println!(
        "idle report: {} intervals, {} windows -> {path}",
        report.ledger.intervals,
        report.windows.iter().filter(|w| w.intervals > 0).count()
    );
    Ok(())
}

/// The attribution timeline window for a run of `duration_ms` (see
/// [`SimBuilder::default_window`]).
fn attrib_window(duration_ms: f64) -> Nanos {
    SimBuilder::default_window(Nanos::from_millis(duration_ms))
}

/// Runs one instrumented simulation: robustness knobs applied to the
/// config, then faults, telemetry, attribution and idle analysis per the
/// shared flag set. A tripped runtime invariant is an error.
fn run_instrumented(
    config: &ServerConfig,
    workload: WorkloadSpec,
    seed: u64,
    telemetry: &TelemetryArgs,
    robustness: &RobustnessArgs,
) -> Result<RunOutput, ParseError> {
    let mut sim = robust_run(config, workload, seed, robustness);
    if telemetry.is_active() {
        sim = sim.with_telemetry(telemetry.limit());
    }
    if telemetry.attrib_active() {
        sim = sim.with_attribution(SimBuilder::default_window(config.duration));
    }
    if telemetry.idle_active() {
        sim = sim.with_idle_analysis();
    }
    let start = Instant::now();
    let output = checked(sim)?;
    if output.telemetry.is_some() {
        // Wall-clock, so it stays off stdout: the report text depends on
        // the command alone.
        let rate = output.metrics.events as f64 / start.elapsed().as_secs_f64();
        eprintln!("telemetry: {rate:.0} DES events/s (wall clock)");
    }
    Ok(output)
}

/// A run of `config` under the robustness flags: `--queue-cap` and
/// `--request-timeout` applied to the config, `--faults` as its plan.
fn robust_run(
    config: &ServerConfig,
    workload: WorkloadSpec,
    seed: u64,
    robustness: &RobustnessArgs,
) -> SimBuilder {
    let mut config = config.clone();
    if let Some(cap) = robustness.queue_cap {
        config = config.with_queue_cap(cap);
    }
    if let Some(us) = robustness.request_timeout_us {
        config = config.with_request_timeout(Nanos::from_micros(us));
    }
    let sim = SimBuilder::new(config, workload, seed);
    match &robustness.faults {
        Some(spec) => sim.with_faults(FaultPlan::new(spec.clone())),
        None => sim,
    }
}

/// Runs `sim`; a tripped runtime invariant is an error.
fn checked(sim: SimBuilder) -> Result<RunOutput, ParseError> {
    let output = sim.run();
    match &output.failure {
        Some(failure) => Err(ParseError(format!("{failure}"))),
        None => Ok(output),
    }
}

/// Prints what an instrumented run observed beyond its metrics (the
/// degradation table, telemetry, attribution and the idle-opportunity
/// report) and writes the requested artifacts. `config` is the run's
/// configuration before the robustness knobs were applied.
fn report_observations(
    output: &RunOutput,
    config: &ServerConfig,
    telemetry: &TelemetryArgs,
    robustness: &RobustnessArgs,
) -> Result<(), ParseError> {
    let degradation = &output.metrics.degradation;
    if robustness.is_active() || !degradation.is_clean() {
        println!("{}", degradation_table(degradation));
    }
    if let Some(report) = &output.telemetry {
        println!("{}", telemetry_table(&report.summary));
        write_telemetry(report, telemetry)?;
    }
    if let Some(report) = &output.attribution {
        write_attribution(report, telemetry)?;
    }
    if let Some(intervals) = output.idle_intervals.as_deref() {
        let window = SimBuilder::default_window(config.duration);
        let report =
            IdleReport::analyze(intervals, &BreakEven::from_server(config), config.cores, window);
        println!("{report}");
        if let Some(path) = &telemetry.idle_out {
            write_idle_report(&report, path)?;
        }
    }
    Ok(())
}

fn run_sweep(
    args: &SweepArgs,
    telemetry: &TelemetryArgs,
    robustness: &RobustnessArgs,
    hw: &'static HardwareModel,
) -> Result<(), ParseError> {
    let workload = workload_by_name(&args.workload, args.qps, args.cores)?;
    let config = ServerConfig::for_hw(hw, args.cores, args.config)
        .with_duration(Nanos::from_millis(args.duration_ms));
    let output = run_instrumented(&config, workload, args.seed, telemetry, robustness)?;
    let metrics = &output.metrics;
    println!("{metrics}");
    println!(
        "  package:   {} ({} uncore), PC0/PC2/PC6 = {}/{}/{}",
        metrics.package_power(),
        metrics.avg_uncore_power,
        metrics.package_residency[0],
        metrics.package_residency[1],
        metrics.package_residency[2],
    );
    // Engine throughput hook for scripts/bench.sh: the event count is
    // identical with idle-skip on or off, so this line never perturbs
    // the `--no-idle-skip` equivalence smoke.
    println!("  engine:    {} simulation events", metrics.events);
    report_observations(&output, &config, telemetry, robustness)
}

/// Writes the requested telemetry artifacts to disk, warning first when
/// the trace ring dropped events (the trace on disk has gaps).
fn write_telemetry(report: &TelemetryReport, telemetry: &TelemetryArgs) -> Result<(), ParseError> {
    if report.summary.events_dropped > 0 {
        println!(
            "warning: trace buffer dropped {} events — raise --trace-limit for a complete trace",
            report.summary.events_dropped
        );
    }
    if let Some(path) = &telemetry.trace_out {
        std::fs::write(path, report.chrome_trace_json())
            .map_err(|e| ParseError(format!("cannot write trace to '{path}': {e}")))?;
        println!(
            "trace: {} events over {} cores -> {path} (open in chrome://tracing or Perfetto)",
            report.events.len(),
            report.cores
        );
    }
    if let Some(path) = &telemetry.metrics_out {
        std::fs::write(path, report.metrics_json())
            .map_err(|e| ParseError(format!("cannot write metrics to '{path}': {e}")))?;
        println!("metrics: -> {path}");
    }
    Ok(())
}

/// Prints the attribution table and SLO verdict, and writes the
/// requested attribution artifacts to disk. The timeline format follows
/// the `--timeline-out` suffix: `.json` selects JSON, anything else CSV.
fn write_attribution(
    report: &AttributionReport,
    telemetry: &TelemetryArgs,
) -> Result<(), ParseError> {
    println!("{}", attribution_table(&report.summary));
    if let Some(ns) = telemetry.slo_p99 {
        println!("{}", SloMonitor::new(Nanos::new(ns)).evaluate(&report.timeline));
    }
    if let Some(path) = &telemetry.timeline_out {
        let body = if path.ends_with(".json") {
            report.timeline.to_json()
        } else {
            report.timeline.to_csv()
        };
        std::fs::write(path, body)
            .map_err(|e| ParseError(format!("cannot write timeline to '{path}': {e}")))?;
        println!(
            "timeline: {} windows of {} -> {path}",
            report.timeline.windows().len(),
            report.timeline.window_duration()
        );
    }
    if let Some(path) = &telemetry.attrib_out {
        std::fs::write(path, report.summary.folded_stack())
            .map_err(|e| ParseError(format!("cannot write attribution to '{path}': {e}")))?;
        println!(
            "attribution: folded stacks over {} spans -> {path} (feed to flamegraph.pl or speedscope)",
            report.summary.requests
        );
    }
    Ok(())
}

/// The representative instrumented run attached to a non-sweep command:
/// the AW configuration under the workload family the command studies.
/// Keeps `--trace-out` and `--faults` meaningful on experiment
/// subcommands whose own sweeps aggregate dozens of runs (instrumenting
/// each would be an unreadable blur).
fn run_traced_representative(
    command: &Command,
    telemetry: &TelemetryArgs,
    robustness: &RobustnessArgs,
    hw: &'static HardwareModel,
) -> Result<(), ParseError> {
    let workload = match command {
        Command::Fig { number: 12, .. } => mysql_oltp(MysqlRate::Mid),
        Command::Fig { number: 13, .. } => kafka(KafkaRate::Low),
        _ => memcached_etc(200_000.0),
    };
    let config =
        ServerConfig::for_hw(hw, 10, NamedConfig::Aw).with_duration(Nanos::from_millis(100.0));
    println!(
        "\nrepresentative instrumented run: {} / {} on 10 cores",
        NamedConfig::Aw,
        workload.name()
    );
    let output = run_instrumented(&config, workload, 42, telemetry, robustness)?;
    report_observations(&output, &config, telemetry, robustness)
}

fn run_report(quick: bool, hw: &'static HardwareModel) {
    for n in 1..=5 {
        // Tables 2–4 describe the modeled Skylake-SP part; a report on
        // another model keeps them on their native silicon.
        print_table(n, if (2..=4).contains(&n) { HardwareModel::skylake_sp() } else { hw });
    }
    print_motivation(false);
    print_flows();
    for number in 8..=13 {
        run_fig(number, quick, hw);
    }
    print_validation(quick, hw);
    print_snoop(hw);
    run_ablations(quick, hw);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `command` with no shared flags.
    fn execute(command: &Command) -> Result<(), ParseError> {
        execute_with(command, &CommonArgs::default())
    }

    /// Runs `command` with `--hw <hw>`.
    fn execute_on(command: &Command, hw: &str) -> Result<(), ParseError> {
        execute_with(command, &CommonArgs { hw: vec![hw.to_string()], ..CommonArgs::default() })
    }

    #[test]
    fn tables_execute() {
        for n in 1..=4 {
            // Table 5 runs simulations; covered by the quick sweep below.
            execute(&Command::Table(n)).unwrap();
        }
    }

    #[test]
    fn cheap_commands_execute() {
        execute(&Command::Flows).unwrap();
        execute(&Command::Motivation { simulated: false }).unwrap();
        execute(&Command::Snoop).unwrap();
        execute(&Command::Help).unwrap();
    }

    #[test]
    fn quick_sweep_executes() {
        let args = SweepArgs { cores: 2, duration_ms: 20.0, qps: 50_000.0, ..SweepArgs::default() };
        execute_on(&Command::Sweep(args.clone()), "skylake-sp").unwrap();
        // The same custom run retargets cleanly onto the other backend.
        execute_on(&Command::Sweep(args), "zen2").unwrap();
    }

    #[test]
    fn traced_sweep_writes_artifacts() {
        let dir = std::env::temp_dir();
        let trace = dir.join("aw_cli_test_trace.json");
        let metrics = dir.join("aw_cli_test_metrics.json");
        let args = SweepArgs { cores: 2, duration_ms: 10.0, qps: 50_000.0, ..SweepArgs::default() };
        let telemetry = TelemetryArgs {
            trace_out: Some(trace.to_string_lossy().into_owned()),
            metrics_out: Some(metrics.to_string_lossy().into_owned()),
            trace_limit: Some(10_000),
            ..TelemetryArgs::default()
        };
        let common = CommonArgs { telemetry, ..CommonArgs::default() };
        execute_with(&Command::Sweep(args), &common).unwrap();
        let trace_json = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_json.contains("\"traceEvents\""));
        assert!(trace_json.contains("\"thread_name\""));
        let metrics_json = std::fs::read_to_string(&metrics).unwrap();
        assert!(metrics_json.contains("\"mispredict_rate\""));
        let _ = std::fs::remove_file(trace);
        let _ = std::fs::remove_file(metrics);
    }

    #[test]
    fn attributed_sweep_writes_artifacts() {
        let dir = std::env::temp_dir();
        let timeline = dir.join("aw_cli_test_timeline.csv");
        let folded = dir.join("aw_cli_test_attrib.folded");
        let args =
            SweepArgs { cores: 2, duration_ms: 20.0, qps: 100_000.0, ..SweepArgs::default() };
        let telemetry = TelemetryArgs {
            slo_p99: Some(500_000.0),
            timeline_out: Some(timeline.to_string_lossy().into_owned()),
            attrib_out: Some(folded.to_string_lossy().into_owned()),
            ..TelemetryArgs::default()
        };
        let common = CommonArgs { telemetry, ..CommonArgs::default() };
        execute_with(&Command::Sweep(args), &common).unwrap();

        // The timeline CSV parses into equal-width rows with the
        // documented leading columns.
        let csv = std::fs::read_to_string(&timeline).unwrap();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("start_ms,completed,throughput_qps,queue_ns"), "{header}");
        let width = header.split(',').count();
        let mut rows = 0;
        for line in lines {
            assert_eq!(line.split(',').count(), width, "{line}");
            for cell in line.split(',') {
                assert!(cell.is_empty() || cell.parse::<f64>().is_ok(), "{line}");
            }
            rows += 1;
        }
        assert!(rows > 0);

        // The folded stacks are valid `frame;frame count` lines.
        let stacks = std::fs::read_to_string(&folded).unwrap();
        assert!(!stacks.is_empty());
        for line in stacks.lines() {
            let (stack, count) = line.rsplit_once(' ').unwrap();
            assert!(stack.split(';').count() >= 2, "{line}");
            count.parse::<u64>().unwrap();
        }
        let _ = std::fs::remove_file(timeline);
        let _ = std::fs::remove_file(folded);
    }

    #[test]
    fn attrib_window_is_clamped() {
        assert_eq!(attrib_window(400.0), Nanos::from_millis(8.0));
        assert_eq!(attrib_window(10.0), Nanos::from_millis(1.0));
    }

    #[test]
    fn inactive_telemetry_is_plain_execute() {
        execute_with(&Command::Flows, &CommonArgs::default()).unwrap();
    }

    #[test]
    fn faulted_sweep_executes_and_degrades_gracefully() {
        use agilewatts::aw_faults::FaultSpec;
        let args = SweepArgs { cores: 2, duration_ms: 20.0, qps: 80_000.0, ..SweepArgs::default() };
        let robustness = RobustnessArgs {
            faults: Some(FaultSpec::parse("seed=9,wake-fail=0.3,lost-wake=0.05").unwrap()),
            queue_cap: Some(4),
            request_timeout_us: Some(500.0),
        };
        let common = CommonArgs { robustness, ..CommonArgs::default() };
        execute_with(&Command::Sweep(args), &common).unwrap();
    }

    #[test]
    fn quick_fleet_executes_and_writes_timeline() {
        let dir = std::env::temp_dir();
        let timeline = dir.join("aw_cli_test_fleet_timeline.csv");
        let args = FleetArgs {
            servers: 2,
            cores: 2,
            epochs: 2,
            epoch_ms: 10.0,
            autoscale: true,
            diurnal: Some(0.5),
            ..FleetArgs::default()
        };
        let common = CommonArgs {
            telemetry: TelemetryArgs {
                timeline_out: Some(timeline.to_string_lossy().into_owned()),
                ..TelemetryArgs::default()
            },
            ..CommonArgs::default()
        };
        execute_with(&Command::Fleet(args), &common).unwrap();
        let csv = std::fs::read_to_string(&timeline).unwrap();
        assert!(csv.starts_with("epoch,start_ms,offered_qps"), "{csv}");
        assert_eq!(csv.lines().count(), 3, "header + one row per epoch");
        let _ = std::fs::remove_file(timeline);
    }

    #[test]
    fn quick_analyze_executes_and_writes_report() {
        let dir = std::env::temp_dir();
        let idle = dir.join("aw_cli_test_idle.csv");
        let args =
            AnalyzeArgs { cores: 2, duration_ms: 20.0, qps: 50_000.0, ..AnalyzeArgs::default() };
        let telemetry = TelemetryArgs {
            idle_out: Some(idle.to_string_lossy().into_owned()),
            ..TelemetryArgs::default()
        };
        run_analyze(&args, &telemetry, &RobustnessArgs::default(), HardwareModel::skylake_sp())
            .unwrap();
        let csv = std::fs::read_to_string(&idle).unwrap();
        assert!(csv.starts_with("window,start_ms,intervals"), "{csv}");
        assert!(csv.lines().count() > 1, "at least one window row");
        let _ = std::fs::remove_file(idle);
    }

    #[test]
    fn idle_out_sweep_writes_every_format() {
        let dir = std::env::temp_dir();
        let args = SweepArgs { cores: 2, duration_ms: 15.0, qps: 50_000.0, ..SweepArgs::default() };
        for (name, probe) in [
            ("aw_cli_test_idle.json", "\"ledger\""),
            ("aw_cli_test_idle.folded", "idle;"),
            ("aw_cli_test_idle2.csv", "window,start_ms"),
        ] {
            let path = dir.join(name);
            let telemetry = TelemetryArgs {
                idle_out: Some(path.to_string_lossy().into_owned()),
                ..TelemetryArgs::default()
            };
            let common = CommonArgs { telemetry, ..CommonArgs::default() };
            execute_with(&Command::Sweep(args.clone()), &common).unwrap();
            let body = std::fs::read_to_string(&path).unwrap();
            assert!(body.contains(probe), "{name}: {body}");
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn unknown_workload_errors() {
        let args = SweepArgs { workload: "redis".into(), ..SweepArgs::default() };
        assert_eq!(execute(&Command::Sweep(args)).unwrap_err().0, "unknown workload 'redis'");
    }

    #[test]
    fn skylake_only_commands_reject_other_models() {
        for cmd in [Command::Table(3), Command::Flows, Command::Motivation { simulated: false }] {
            let err = execute_on(&cmd, "zen2").unwrap_err();
            assert!(err.to_string().contains("Skylake-SP"), "{err}");
            execute_on(&cmd, "skylake-sp").unwrap();
        }
        // Simulation-driven commands run on either model.
        execute_on(&Command::Table(1), "zen2").unwrap();
        execute_on(&Command::Snoop, "zen2").unwrap();
    }

    #[test]
    fn mixed_hw_fleet_executes() {
        let args =
            FleetArgs { servers: 2, cores: 2, epochs: 2, epoch_ms: 10.0, ..FleetArgs::default() };
        let hw = vec![HardwareModel::skylake_sp(), HardwareModel::zen2()];
        run_fleet(&args, &TelemetryArgs::default(), &RobustnessArgs::default(), hw).unwrap();
    }

    /// Runs that could never finish, or would abort in the allocator,
    /// are refused while parsing with the estimate and the limit; the
    /// largest documented runs pass.
    #[test]
    fn work_beyond_the_limits_is_refused() {
        let parse =
            |s: &str| crate::parse_cli(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let requests =
            |n: &str| format!("refusing a run of about {n} offered requests: the limit is 1e10");
        for (cmd, msg) in [
            ("sweep --qps 1e300 --duration-ms 1", requests("1.000e297")),
            ("sweep --qps 1 --duration-ms 18446744073709551615", requests("1.845e16")),
            ("analyze --qps 1e300 --duration-ms 1", requests("2.000e297")),
            ("analyze --qps 4e7 --duration-ms 200000", requests("1.600e10")),
            ("fleet --epochs 1000000000 --servers 1", requests("5.189e12")),
            ("sweep --qps 1 --duration-ms 100000000 --faults storm=1000000", requests("1.000e12")),
            (
                "analyze --qps 1 --duration-ms 100000000 --faults storm=1000000",
                requests("2.000e12"),
            ),
            ("fleet --servers 1 --epochs 2000 --faults spurious=1e9", requests("2.000e11")),
            (
                "watch --headless --epochs 100000000 --utilization 0.000001 --servers 1",
                "refusing a run of about 1.000e8 server-epochs: the limit is 5e6".to_string(),
            ),
        ] {
            assert_eq!(parse(cmd).unwrap_err().0, msg, "`{cmd}`");
        }
        for cmd in [
            "fleet --servers 1000 --epochs 24 --epoch-ms 5 --policy packing --autoscale --diurnal 0.8",
            "analyze --qps 30000 --duration-ms 10000",
            "sweep --workload websearch-50 --cores 4096",
            "sweep --faults spurious=1e9,storm=1e9,slowdown=1e9 --duration-ms 400",
            // An unknown workload fails when it runs, not here.
            "sweep --workload redis --qps 1e300",
        ] {
            parse(cmd).unwrap();
        }
    }

    #[test]
    fn all_workload_names_resolve() {
        for name in [
            "memcached",
            "kafka-low",
            "kafka-high",
            "mysql-low",
            "mysql-mid",
            "mysql-high",
            "websearch-25",
            "websearch-50",
        ] {
            assert!(workload_by_name(name, 100_000.0, 4).is_ok(), "{name}");
        }
    }
}
