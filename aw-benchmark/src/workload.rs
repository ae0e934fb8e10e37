//! The four benchmark workloads. Each is closed-loop and fixed-work: one
//! operation is one complete experiment (set-up, simulation, analysis or
//! export, report formatting), and operations run back to back.

use std::time::Instant;

use agilewatts::attribution_table;
use agilewatts::aw_cluster::{
    AutoscalePolicy, FleetEpochEvent, FleetObserver, FleetReport, FleetSim, LoadShape,
    RoutingPolicy,
};
use agilewatts::aw_cstates::NamedConfig;
use agilewatts::aw_exec::{set_default_jobs, SweepExecutor};
use agilewatts::aw_server::{HardwareModel, RunMetrics, RunOutput, ServerConfig, SimBuilder};
use agilewatts::aw_sleep::{BreakEven, IdleReport};
use agilewatts::aw_types::Nanos;
use agilewatts::aw_workloads::memcached_etc;
use agilewatts::experiments::Fleet;

use crate::trace::Tracer;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 8 Baseline-vs-AW grid, through the sweep executor.
    Fig8Grid,
    /// The `analyze` flow at light load: idle-skip, governor, aw-sleep.
    LightAnalyze,
    /// One fully observed run plus every in-memory export.
    ObservedRun,
    /// A 125-server mixed-silicon diurnal fleet.
    FleetDiurnal,
}

/// Fig. 8 grid loads (requests/s), lightest first.
pub const GRID_QPS: [f64; 4] = [50e3, 200e3, 400e3, 600e3];

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Fig8Grid, Workload::LightAnalyze, Workload::ObservedRun, Workload::FleetDiurnal];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig8Grid => "fig8_grid",
            Workload::LightAnalyze => "light_analyze",
            Workload::ObservedRun => "observed_run",
            Workload::FleetDiurnal => "fleet_diurnal",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulator digest of one operation at seed 42, full scale or
    /// `--quick`. A change that claims only host-time gains must leave
    /// it as is.
    pub fn pinned_digest(self, quick: bool) -> u64 {
        match (self, quick) {
            (Workload::Fig8Grid, false) => 0x8d8b_c29f_2e26_ecf1,
            (Workload::LightAnalyze, false) => 0x1aca_fc43_8a93_654f,
            (Workload::ObservedRun, false) => 0x5e77_4d53_b521_9282,
            (Workload::FleetDiurnal, false) => 0x866a_7dfb_e622_cb1e,
            (Workload::Fig8Grid, true) => 0x3e32_00b6_d04b_5f05,
            (Workload::LightAnalyze, true) => 0x0a1c_f8fb_211e_4811,
            (Workload::ObservedRun, true) => 0x5e9e_a390_5c54_9929,
            (Workload::FleetDiurnal, true) => 0x64a4_7e68_968b_5c94,
        }
    }

    /// Builds one operation's inputs: configurations, workloads, and the
    /// builders or fleet simulator that consume them. This is the
    /// benchmark's set-up, timed as `setup_s`.
    pub fn prepare(self, p: &Params) -> Prepared {
        let ms = |full: f64, quick: f64| Nanos::from_millis(if p.quick { quick } else { full });
        let sky = HardwareModel::skylake_sp();
        match self {
            Workload::Fig8Grid => {
                let duration = ms(250.0, 50.0);
                // Heaviest points first, so a fan-out on several workers
                // starts the two longest runs together and ends with a
                // short tail.
                Prepared::Grid(
                    GRID_QPS
                        .iter()
                        .rev()
                        .flat_map(|&qps| {
                            [NamedConfig::Baseline, NamedConfig::Aw].map(|named| {
                                let config =
                                    ServerConfig::for_hw(sky, 10, named).with_duration(duration);
                                let warmup = config.warmup;
                                (
                                    SimBuilder::new(config, memcached_etc(qps), p.seed),
                                    RunShape {
                                        qps,
                                        named,
                                        cores: 10,
                                        hw: sky,
                                        warmup,
                                        logs: false,
                                    },
                                )
                            })
                        })
                        .collect(),
                )
            }
            Workload::LightAnalyze => {
                let duration = ms(10_000.0, 400.0);
                let window = SimBuilder::default_window(duration);
                let yardstick =
                    BreakEven::from_server(&ServerConfig::for_hw(sky, 10, NamedConfig::Aw));
                let runs = [NamedConfig::Baseline, NamedConfig::Aw]
                    .map(|named| {
                        let config = ServerConfig::for_hw(sky, 10, named).with_duration(duration);
                        let model = BreakEven::from_server(&config);
                        let warmup = config.warmup;
                        let builder = SimBuilder::new(config, memcached_etc(30e3), p.seed)
                            .with_idle_analysis();
                        let shape =
                            RunShape { qps: 30e3, named, cores: 10, hw: sky, warmup, logs: false };
                        (builder, model, shape)
                    })
                    .into();
                Prepared::Analyze { runs, yardstick, window }
            }
            Workload::ObservedRun => {
                let duration = ms(1_000.0, 50.0);
                let config = ServerConfig::for_hw(sky, 10, NamedConfig::Aw).with_duration(duration);
                let model = BreakEven::from_server(&config);
                let window = SimBuilder::default_window(duration);
                let shape = RunShape {
                    qps: 300e3,
                    named: NamedConfig::Aw,
                    cores: 10,
                    hw: sky,
                    warmup: config.warmup,
                    logs: false,
                };
                let builder = SimBuilder::new(config, memcached_etc(300e3), p.seed)
                    .with_telemetry(if p.quick { 20_000 } else { 200_000 })
                    .with_attribution(window)
                    .with_slo(Nanos::from_micros(50.0))
                    .with_idle_analysis();
                Prepared::Observed { builder, model, window, shape }
            }
            Workload::FleetDiurnal => {
                let fleet = Fleet {
                    servers: if p.quick { 20 } else { 125 },
                    cores: 4,
                    utilization: 0.25,
                    epochs: if p.quick { 6 } else { 8 },
                    epoch: FLEET_EPOCH,
                    load: LoadShape::Diurnal { amplitude: 0.8 },
                    autoscale: Some(AutoscalePolicy::default()),
                    seed: p.seed,
                    hw: vec![sky, HardwareModel::zen2()],
                    ..Fleet::default()
                };
                Prepared::Fleet(FleetSim::new(
                    fleet.config(RoutingPolicy::Packing, NamedConfig::Aw),
                ))
            }
        }
    }

    /// Whether the workload fans its runs out on the sweep executor.
    pub fn fans_out(self) -> bool {
        matches!(self, Workload::Fig8Grid | Workload::FleetDiurnal)
    }

    /// Runs one operation: set-up, then the workload's simulator calls
    /// and post-processing, timed as `wall_s`. Spans go to `tracer` when
    /// it is enabled. The digest and correctness checks are computed
    /// afterwards, outside the timed region.
    pub fn op(self, p: &Params, tracer: &mut Tracer) -> Op {
        // The fleet fans out on the process-wide executor.
        set_default_jobs(p.jobs);
        let root = tracer.open("op", None);
        let start = Instant::now();
        let prepared = self.prepare(p);
        let first_run = Instant::now();
        tracer.push("aw-server.setup", root, start, first_run);
        let mut op = Op::default();
        match prepared {
            Prepared::Grid(points) => grid(points, p, tracer, root, &mut op),
            Prepared::Analyze { runs, yardstick, window } => {
                analyze(runs, &yardstick, window, tracer, root, &mut op);
            }
            Prepared::Observed { builder, model, window, shape } => {
                observed(builder, &model, window, shape, tracer, root, &mut op);
            }
            Prepared::Fleet(sim) => fleet(sim, tracer, root, &mut op),
        }
        op.wall_s = start.elapsed().as_secs_f64();
        tracer.close(root);
        op.root = root;
        op.seal(self);
        op
    }
}

/// Fleet epoch length.
pub const FLEET_EPOCH: Nanos = Nanos::new(5e6);

/// Benchmark-wide run parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub quick: bool,
    /// Sweep-executor workers for the fanned-out workloads.
    pub jobs: usize,
}

/// The shape of one simulator run: what the layer kernels are timed at.
#[derive(Debug, Clone, Copy)]
pub struct RunShape {
    pub qps: f64,
    pub named: NamedConfig,
    pub cores: usize,
    pub hw: &'static HardwareModel,
    pub warmup: Nanos,
    /// The run keeps per-request latency samples and idle intervals, as
    /// a fleet's server-epochs do.
    pub logs: bool,
}

/// One operation's inputs (see [`Workload::prepare`]). One value exists
/// per operation; boxing the large variant would add an allocation to
/// the timed set-up.
#[allow(clippy::large_enum_variant)]
pub enum Prepared {
    Grid(Vec<(SimBuilder, RunShape)>),
    Analyze { runs: Vec<(SimBuilder, BreakEven, RunShape)>, yardstick: BreakEven, window: Nanos },
    Observed { builder: SimBuilder, model: BreakEven, window: Nanos, shape: RunShape },
    Fleet(FleetSim),
}

/// What one simulator run reported, kept after its heavy outputs are
/// dropped.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub metrics: RunMetrics,
    pub chained: u64,
    pub failure: Option<String>,
    pub shape: RunShape,
}

impl RunRecord {
    fn new(out: &RunOutput, shape: RunShape) -> RunRecord {
        RunRecord {
            metrics: out.metrics.clone(),
            chained: out.chained,
            failure: out.failure.as_ref().map(ToString::to_string),
            shape,
        }
    }
}

/// Fleet-level results of a `fleet_diurnal` operation.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    pub report: FleetReport,
    /// `Display` plus timeline CSV: what the CLI prints and writes.
    pub text: String,
    /// Simulated server-epochs.
    pub server_epochs: u64,
}

/// One Fig. 8 load point: simulated AW savings and p99 change.
#[derive(Debug, Clone, Copy)]
pub struct FidelityRow {
    pub qps: f64,
    pub savings_pct: f64,
    pub p99_delta_pct: f64,
}

/// Everything one operation produced that the benchmark reports or
/// checks.
#[derive(Debug, Default)]
pub struct Op {
    /// Host seconds for the whole operation.
    pub wall_s: f64,
    /// Simulator runs the benchmark called directly.
    pub runs: Vec<RunRecord>,
    pub fleet: Option<FleetOutcome>,
    pub fidelity: Vec<FidelityRow>,
    /// Idle intervals handed to `IdleReport::analyze`, summed over calls.
    pub intervals: u64,
    /// Bytes of every in-memory export built.
    pub export_bytes: u64,
    /// Trace events the telemetry ring evicted, over those emitted.
    pub trace_dropped_ratio: f64,
    /// Root span of this operation (traced only).
    pub root: Option<usize>,
    /// Bytes hashed into the digest beyond the per-run fields, kept
    /// until `seal` so hashing stays outside the timed region.
    digest_input: Vec<Vec<u8>>,
    pub digest: u64,
    pub failures: Vec<String>,
}

impl Op {
    /// Simulation events over every run of the operation.
    pub fn events(&self) -> u64 {
        match &self.fleet {
            Some(f) => f.report.events,
            None => self.runs.iter().map(|r| r.metrics.events).sum(),
        }
    }

    /// Computes the digest and runs the per-operation checks.
    fn seal(&mut self, w: Workload) {
        let mut h = Fnv::new();
        for r in &self.runs {
            let m = &r.metrics;
            h.u64(m.events);
            h.u64(m.completed);
            h.u64(m.avg_core_power.as_milliwatts().to_bits());
            h.u64(m.server_latency.p99.as_nanos().to_bits());
            if let Some(f) = &r.failure {
                self.failures.push(format!("{}: run failed: {f}", w.name()));
            }
            let total = m.residencies.total().get();
            if (total - 1.0).abs() > 1e-9 {
                self.failures.push(format!("{}: residencies sum to {total}", w.name()));
            }
            let offered = m.offered_qps * m.duration.as_secs();
            check_completed(&mut self.failures, w, m.completed, offered);
        }
        if let Some(f) = &self.fleet {
            h.bytes(f.text.as_bytes());
            if let Some(a) = &f.report.failure {
                self.failures.push(format!("{}: fleet failed: {a:?}", w.name()));
            }
            let offered: f64 =
                f.report.windows.iter().map(|win| win.offered_qps * f.report.epoch.as_secs()).sum();
            check_completed(&mut self.failures, w, f.report.completed, offered);
        }
        for chunk in std::mem::take(&mut self.digest_input) {
            h.bytes(&chunk);
        }
        self.digest = h.finish();
    }
}

fn check_completed(failures: &mut Vec<String>, w: Workload, completed: u64, offered: f64) {
    if (completed as f64 - offered).abs() > 0.05 * offered {
        failures.push(format!(
            "{}: completed {completed} requests, offered {offered:.0} (more than 5% apart)",
            w.name()
        ));
    }
}

/// FNV-1a, 64-bit: a stable digest independent of the std hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn grid(
    points: Vec<(SimBuilder, RunShape)>,
    p: &Params,
    tracer: &mut Tracer,
    root: Option<usize>,
    op: &mut Op,
) {
    let fan_start = Instant::now();
    // `map` lends each point; a builder is consumed by `run`, so each
    // worker runs a clone (a configuration copy, microseconds).
    let results = SweepExecutor::with_jobs(p.jobs).map(&points, |(builder, _)| {
        let start = Instant::now();
        let out = builder.clone().run();
        (out, start, Instant::now())
    });
    let fan = tracer.push("aw-exec.map", root, fan_start, Instant::now());
    for ((out, start, end), (_, shape)) in results.iter().zip(&points) {
        tracer.push("aw-server.run", fan, *start, *end);
        op.runs.push(RunRecord::new(out, *shape));
    }
    drop(results);

    let start = Instant::now();
    op.fidelity = op
        .runs
        .chunks(2)
        .rev()
        .map(|pair| FidelityRow {
            qps: pair[1].shape.qps,
            savings_pct: pair[1].metrics.power_savings_vs(&pair[0].metrics).as_percent(),
            p99_delta_pct: 100.0 * pair[1].metrics.tail_latency_delta_vs(&pair[0].metrics),
        })
        .collect();
    let text = fidelity_table(&op.fidelity);
    tracer.push("agilewatts.format", root, start, Instant::now());
    std::hint::black_box(text);
}

fn analyze(
    runs: Vec<(SimBuilder, BreakEven, RunShape)>,
    yardstick: &BreakEven,
    window: Nanos,
    tracer: &mut Tracer,
    root: Option<usize>,
    op: &mut Op,
) {
    let mut recoveries = Vec::new();
    let mut text = String::new();
    for (builder, model, shape) in runs {
        let start = Instant::now();
        let out = builder.run();
        tracer.push("aw-server.run", root, start, Instant::now());

        let intervals = out.idle_intervals.as_deref().unwrap_or(&[]);
        let start = Instant::now();
        let own = IdleReport::analyze(intervals, &model, shape.cores, window);
        let vs_aw = IdleReport::analyze(intervals, yardstick, shape.cores, window);
        tracer.push("aw-sleep.analyze", root, start, Instant::now());
        op.intervals += 2 * intervals.len() as u64;
        recoveries.push(vs_aw.ledger.deep_recovery());

        let start = Instant::now();
        text.push_str(&format!("[{}]\n{own}\n", shape.named));
        tracer.push("agilewatts.format", root, start, Instant::now());
        op.digest_input.push(own.ledger.intervals.to_le_bytes().to_vec());
        op.digest_input.push(vs_aw.ledger.deep_recovery().to_bits().to_le_bytes().to_vec());
        op.runs.push(RunRecord::new(&out, shape));
    }
    let start = Instant::now();
    text.push_str(&format!(
        "deep-sleep recovery vs the AW menu: Baseline {:.1}% vs AW {:.1}%\n",
        100.0 * recoveries[0],
        100.0 * recoveries[1]
    ));
    tracer.push("agilewatts.format", root, start, Instant::now());
    std::hint::black_box(text);
}

fn observed(
    builder: SimBuilder,
    model: &BreakEven,
    window: Nanos,
    shape: RunShape,
    tracer: &mut Tracer,
    root: Option<usize>,
    op: &mut Op,
) {
    let start = Instant::now();
    let out = builder.run();
    tracer.push("aw-server.run", root, start, Instant::now());

    let start = Instant::now();
    let attribution = out.attribution.as_ref().expect("attribution was requested");
    let telemetry = out.telemetry.as_ref().expect("telemetry was requested");
    let timeline_csv = attribution.timeline.to_csv();
    let chrome_trace = telemetry.chrome_trace_json();
    let folded = attribution.summary.folded_stack();
    tracer.push("aw-telemetry.export", root, start, Instant::now());

    let intervals = out.idle_intervals.as_deref().unwrap_or(&[]);
    let start = Instant::now();
    let idle = IdleReport::analyze(intervals, model, shape.cores, window);
    tracer.push("aw-sleep.analyze", root, start, Instant::now());
    op.intervals = intervals.len() as u64;

    let start = Instant::now();
    let idle_json = idle.to_json();
    tracer.push("aw-telemetry.export", root, start, Instant::now());

    let start = Instant::now();
    let mut text = out.metrics.to_string();
    text.push_str(&attribution_table(&attribution.summary).to_string());
    if let Some(slo) = &out.slo {
        text.push_str(&slo.to_string());
    }
    tracer.push("agilewatts.format", root, start, Instant::now());
    std::hint::black_box(text);

    let summary = &telemetry.summary;
    op.trace_dropped_ratio = if summary.events_recorded == 0 {
        0.0
    } else {
        summary.events_dropped as f64 / summary.events_recorded as f64
    };
    op.runs.push(RunRecord::new(&out, shape));
    for export in [timeline_csv, chrome_trace, folded, idle_json] {
        op.export_bytes += export.len() as u64;
        op.digest_input.push(export.into_bytes());
    }
}

/// Timestamps each fleet epoch as the aggregation loop closes it.
struct EpochClock {
    closed: Vec<Instant>,
    finished: Option<Instant>,
}

impl FleetObserver for EpochClock {
    fn on_epoch(&mut self, _event: &FleetEpochEvent) {
        self.closed.push(Instant::now());
    }

    fn on_finish(&mut self) {
        self.finished = Some(Instant::now());
    }
}

fn fleet(sim: FleetSim, tracer: &mut Tracer, root: Option<usize>, op: &mut Op) {
    let start = Instant::now();
    let mut clock = EpochClock { closed: Vec::new(), finished: None };
    let report = if tracer.enabled() { sim.run_observed(&mut clock) } else { sim.run() };
    let end = Instant::now();
    let run = tracer.push("aw-cluster.run", root, start, end);
    let mut prev = start;
    for &closed in &clock.closed {
        tracer.push("aw-cluster.epoch", run, prev, closed);
        prev = closed;
    }
    if let Some(finished) = clock.finished {
        tracer.push("aw-cluster.report", run, finished, end);
    }

    let start = Instant::now();
    let mut text = report.to_string();
    text.push_str(&report.timeline_csv());
    tracer.push("agilewatts.format", root, start, Instant::now());
    let server_epochs = report.counters.get("fleet.server_epochs.loaded").copied().unwrap_or(0);
    op.fleet = Some(FleetOutcome { report, text, server_epochs });
}

/// The Fig. 8 fidelity table: simulated AW savings and p99 change per
/// load, next to the paper bands `tests/paper_claims.rs` asserts.
pub fn fidelity_table(rows: &[FidelityRow]) -> String {
    let mut out = String::from(
        "fidelity (simulated, vs paper Fig. 8b bands: >20% at low load, shrinking with load, >3% at high load)\n",
    );
    let (Some(first), Some(last)) = (rows.first(), rows.last()) else {
        return out;
    };
    for (i, r) in rows.iter().enumerate() {
        let band = if i == 0 {
            ("> 20%", r.savings_pct > 20.0)
        } else if i + 1 == rows.len() {
            ("> 3%", r.savings_pct > 3.0)
        } else {
            ("< low-load", r.savings_pct < first.savings_pct)
        };
        out.push_str(&format!(
            "  {:>4.0}k QPS  AW savings {:>5.1}% (band {:<10} {})  p99 {:+.1}%\n",
            r.qps / 1e3,
            r.savings_pct,
            band.0,
            if band.1 { "in band" } else { "OUT OF BAND" },
            r.p99_delta_pct
        ));
    }
    out.push_str(&format!(
        "  savings shrink with load: {}\n",
        if first.savings_pct > last.savings_pct { "yes (in band)" } else { "no (OUT OF BAND)" }
    ));
    out
}
