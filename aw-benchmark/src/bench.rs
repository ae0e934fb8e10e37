//! Runs one workload: set-up timing, the once-per-workload equivalence
//! checks, the timed operations, and (on a traced run) the per-layer
//! metrics.

use std::hint::black_box;
use std::time::Instant;

use agilewatts::aw_cstates::NamedConfig;
use agilewatts::aw_server::{set_default_idle_skip, HardwareModel, ServerConfig};

use crate::host::{self, Reference};
use crate::json::{self, JsonRead, JsonValue};
use crate::kernels::{self, Costs, Counts};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::workload::{fidelity_table, Op, Params, RunRecord, RunShape, Workload, FLEET_EPOCH};

/// How one workload is run.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub params: Params,
    /// Minimum timed operations.
    pub reps: usize,
    /// Host seconds of timed operations to aim for.
    pub seconds: f64,
    /// Alternate untraced and traced operations and report the layers.
    pub trace: bool,
}

/// Which order statistic of its samples a metric reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    Median,
    /// Set-up batches last ~2 ms, short enough that some of them fall in
    /// a moment when no other tenant slows the host; the fastest batch
    /// is the steadiest estimate of the set-up's own cost.
    Min,
}

impl Stat {
    fn name(self) -> &'static str {
        match self {
            Stat::Median => "median",
            Stat::Min => "min",
        }
    }
}

/// One reported metric and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub samples: Vec<f64>,
    pub stat: Stat,
    /// Part of the machine-readable result line (see `BENCHMARK.json`).
    /// Raw host times, and layer timings that are structurally zero on
    /// some workloads, are printed and written to `--json` only.
    pub listed: bool,
}

impl Metric {
    fn new(name: &str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric { name: name.to_string(), unit, samples, stat: Stat::Median, listed: true }
    }

    fn reported_as(mut self, stat: Stat) -> Metric {
        self.stat = stat;
        self
    }

    fn unlisted(mut self) -> Metric {
        self.listed = false;
        self
    }

    pub fn summary(&self) -> Summary {
        Summary::of(&self.samples)
    }

    /// The reported value: the metric's statistic over its samples.
    pub fn value(&self) -> f64 {
        let s = self.summary();
        match self.stat {
            Stat::Median => s.median,
            Stat::Min => s.min,
        }
    }

    /// `name value unit (stat of n; median m, max x)`.
    pub fn line(&self) -> String {
        let s = self.summary();
        format!(
            "{} {} {} ({} of {}; median {}, max {})",
            self.name,
            self.value(),
            self.unit,
            self.stat.name(),
            s.n,
            s.median,
            s.max
        )
    }
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: Workload,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub digest: u64,
    pub end_to_end: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub notes: Vec<String>,
    pub spans: JsonValue,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn check_fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metrics of the result line: the listed end-to-end metrics on
    /// an untraced run, the listed layer metrics on a traced one.
    pub fn result_metrics(&self, trace: bool) -> Vec<&Metric> {
        let list = if trace { &self.layers } else { &self.end_to_end };
        list.iter().filter(|m| m.listed).collect()
    }

    /// The full record written by `--json` and read by `--compare`.
    pub fn to_json(&self) -> JsonValue {
        let metrics = self
            .end_to_end
            .iter()
            .chain(&self.layers)
            .map(|m| {
                let s = m.summary();
                let samples = m.samples.iter().copied().map(JsonValue::Num).collect();
                let record = JsonValue::obj(vec![
                    ("unit", JsonValue::str(m.unit)),
                    ("value", JsonValue::Num(m.value())),
                    ("stat", JsonValue::str(m.stat.name())),
                    ("median", JsonValue::Num(s.median)),
                    ("q1", JsonValue::Num(s.q1)),
                    ("q3", JsonValue::Num(s.q3)),
                    ("min", JsonValue::Num(s.min)),
                    ("max", JsonValue::Num(s.max)),
                    ("n", JsonValue::UInt(s.n as u64)),
                    ("samples", JsonValue::Array(samples)),
                ]);
                (m.name.clone(), record)
            })
            .collect();
        JsonValue::obj(vec![
            ("correct", JsonValue::Bool(self.correct())),
            ("attempted", JsonValue::UInt(self.attempted as u64)),
            ("failed", JsonValue::UInt(self.failed as u64)),
            ("check_fail_ratio", JsonValue::Num(self.check_fail_ratio())),
            ("digest", JsonValue::str(format!("{:016x}", self.digest))),
            ("failures", JsonValue::Array(self.failures.iter().map(JsonValue::str).collect())),
            ("metrics", JsonValue::Object(metrics)),
        ])
    }
}

/// Times set-ups (building and freeing one operation's inputs, a few
/// microseconds) in batches long enough for the clock.
struct SetupClock {
    per_batch: usize,
    samples: Vec<f64>,
}

impl SetupClock {
    fn new(w: Workload, p: &Params) -> SetupClock {
        black_box(w.prepare(p));
        let start = Instant::now();
        black_box(w.prepare(p));
        let once = start.elapsed().as_secs_f64().max(1e-7);
        SetupClock {
            per_batch: ((2e-3 / once).ceil() as usize).clamp(1, 10_000),
            samples: Vec::new(),
        }
    }

    /// Records `batches` samples of seconds per set-up. Called between
    /// operations, so the samples span the whole run rather than one
    /// moment of the host's load.
    fn sample(&mut self, w: Workload, p: &Params, batches: usize) {
        for _ in 0..batches {
            let start = Instant::now();
            for _ in 0..self.per_batch {
                black_box(w.prepare(p));
            }
            self.samples.push(start.elapsed().as_secs_f64() / self.per_batch as f64);
        }
    }
}

/// Tracks which operations failed which checks.
#[derive(Default)]
struct Ledger {
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
}

impl Ledger {
    fn record(&mut self, mut failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.append(&mut failures);
        }
    }
}

/// The seed whose full-scale and quick digests are pinned.
pub const PINNED_SEED: u64 = 42;

/// One operation on the pinned seed-42 inputs, as the first and only
/// operation of its process: returns the process's peak RSS after it and
/// the failed checks, the pinned digest included.
pub fn probe(w: Workload, quick: bool) -> Result<(f64, Vec<String>), String> {
    let op = w.op(&Params { seed: PINNED_SEED, quick, jobs: 1 }, &mut Tracer::new(Instant::now()));
    let peak_rss_mb = host::peak_rss_mb()?;
    let golden = w.pinned_digest(quick);
    let mut failures = op.failures;
    if op.digest != golden {
        failures.push(format!(
            "{}: seed-{PINNED_SEED} digest {:016x} differs from the pinned {golden:016x}",
            w.name(),
            op.digest
        ));
    }
    Ok((peak_rss_mb, failures))
}

/// Runs [`probe`] in a fresh child process whose arguments never vary,
/// `argv[0]` included, and reads its result line. Its peak is
/// `peak_rss_mb`: taken before later operations add allocator history
/// (freed arenas, glibc's moving mmap threshold), and at fixed inputs,
/// since the simulator sizes its sample reservoirs to the expected
/// request count, so whether a run outgrows them (and briefly holds two
/// copies) is a coin flip of the seed. Even the size of the process's
/// own argument list shifts the fleet's peak by 15 MiB, hence the fixed
/// arguments.
fn probe_in_child(w: Workload, quick: bool) -> Result<(f64, Vec<String>), String> {
    use std::os::unix::process::CommandExt;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg0("aw-benchmark").args(["--peak-probe", w.name()]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("cannot start the peak probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout
        .lines()
        .last()
        .and_then(|l| json::parse(l).ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| {
            format!("peak probe failed ({}): {}", out.status, String::from_utf8_lossy(&out.stderr))
        })?;
    let peak = result.get("peak_rss_mb").and_then(JsonRead::as_f64).ok_or("probe without peak")?;
    let failures = result
        .get("failures")
        .and_then(JsonRead::as_array)
        .map(|f| f.iter().filter_map(|s| s.as_str().map(String::from)).collect())
        .unwrap_or_default();
    Ok((peak, failures))
}

/// Runs `w` under `s`.
pub fn run(w: Workload, s: &Settings) -> Result<Outcome, String> {
    let p = s.params;
    let mut tracer = Tracer::new(Instant::now());
    let mut ledger = Ledger::default();
    let mut setup = SetupClock::new(w, &p);

    let (peak_rss_mb, probe_failures) = probe_in_child(w, p.quick)?;
    ledger.record(probe_failures);

    let reference = Reference::new();
    let mut plain: Vec<Timed> = Vec::new();
    let mut traced: Vec<Timed> = Vec::new();
    let min_ops = if s.trace { s.reps.max(2) } else { s.reps.max(1) };
    let start = Instant::now();
    loop {
        setup.sample(w, &p, 10);
        let traced_turn = s.trace && (plain.len() + traced.len()) % 2 == 1;
        let before = reference.time();
        tracer.set_enabled(traced_turn);
        let mut op = w.op(&p, &mut tracer);
        tracer.set_enabled(false);
        let reference_s = (before + reference.time()) / 2.0;
        let digest = plain.first().map_or(op.digest, |first| first.op.digest);
        if op.digest != digest {
            op.failures.push(format!(
                "{}: digest {:016x} differs from the first operation's {digest:016x}",
                w.name(),
                op.digest
            ));
        }
        ledger.record(std::mem::take(&mut op.failures));
        let last_wall = op.wall_s;
        let timed = Timed { op, reference_s };
        if traced_turn {
            traced.push(timed)
        } else {
            plain.push(timed)
        }
        let done = plain.len() + traced.len();
        if done >= min_ops && start.elapsed().as_secs_f64() + last_wall > s.seconds {
            break;
        }
    }

    // Once per workload, untimed: the stepped engine, fanned out on
    // every worker the benchmark may use, must reproduce the timed
    // operations' digest.
    let check_jobs = if w.fans_out() { host::jobs() } else { 1 };
    set_default_idle_skip(false);
    let stepped = w.op(&Params { jobs: check_jobs, ..p }, &mut tracer);
    set_default_idle_skip(true);
    let digest = plain[0].op.digest;
    let mut stepped_failures = stepped.failures;
    if stepped.digest != digest {
        stepped_failures.push(format!(
            "{}: digest {:016x} on the stepped engine (idle-skip off) at jobs {check_jobs} \
             differs from {digest:016x}",
            w.name(),
            stepped.digest
        ));
    }
    ledger.record(stepped_failures);

    let end_to_end = vec![
        Metric::new("wall_rel", "ref", plain.iter().map(Timed::rel).collect()),
        Metric::new(
            "events_per_ref",
            "1/ref",
            plain.iter().map(|t| t.op.events() as f64 / t.rel()).collect(),
        ),
        Metric::new("setup_s", "s", setup.samples).reported_as(Stat::Min),
        Metric::new("peak_rss_mb", "MiB", vec![peak_rss_mb]),
        Metric::new("wall_s", "s", plain.iter().map(|t| t.op.wall_s).collect()).unlisted(),
        Metric::new("reference_s", "s", plain.iter().map(|t| t.reference_s).collect()).unlisted(),
    ];

    let mut notes = Vec::new();
    if !plain[0].op.fidelity.is_empty() {
        notes.push(fidelity_table(&plain[0].op.fidelity));
    }
    let layers = if s.trace {
        let rel =
            |ops: &[Timed]| Summary::of(&ops.iter().map(Timed::rel).collect::<Vec<_>>()).median;
        let overhead = rel(&traced) / rel(&plain) - 1.0;
        let ops: Vec<Op> = traced.into_iter().map(|t| t.op).collect();
        layer_metrics(&p, &ops, &tracer, 100.0 * overhead)
    } else {
        Vec::new()
    };
    Ok(Outcome {
        workload: w,
        attempted: ledger.attempted,
        failed: ledger.failed,
        failures: ledger.failures,
        digest,
        end_to_end,
        layers,
        notes,
        spans: tracer.to_json(),
    })
}

/// One timed operation and the reference kernel's time around it.
struct Timed {
    op: Op,
    /// Mean of the reference times just before and just after `op`.
    reference_s: f64,
}

impl Timed {
    /// The operation's host time in units of the reference kernel's.
    fn rel(&self) -> f64 {
        self.op.wall_s / self.reference_s
    }
}

/// The shape-specific kernel costs and counts for `op`, and its chain
/// ratio. A fleet's server-epochs run inside the library, so its counts
/// and chain ratio come from one representative server-epoch (the mean
/// per-server load on a Skylake-SP slot), scaled to the fleet's events;
/// its run count is the fleet's loaded server-epochs.
fn kernel_inputs(op: &Op, p: &Params) -> (Vec<(Costs, Counts)>, f64) {
    let Some(f) = &op.fleet else {
        let pairs = op
            .runs
            .iter()
            .map(|r| {
                (kernels::measure(&r.shape, r.metrics.completed as usize, p.quick), Counts::of(r))
            })
            .collect();
        let chained: u64 = op.runs.iter().map(|r| r.chained).sum();
        return (pairs, chained as f64 / op.events().max(1) as f64);
    };
    let sky = HardwareModel::skylake_sp();
    let qps = f.report.completed as f64 / (f.server_epochs.max(1) as f64 * FLEET_EPOCH.as_secs());
    let cores = f.report.cores_per_server;
    let warmup =
        ServerConfig::for_hw(sky, cores, NamedConfig::Aw).with_duration(FLEET_EPOCH).warmup;
    let shape = RunShape { qps, named: NamedConfig::Aw, cores, hw: sky, warmup, logs: true };
    let out = kernels::builder(&shape, FLEET_EPOCH, p.seed).run();
    let rep = RunRecord { metrics: out.metrics, chained: out.chained, failure: None, shape };
    let events = rep.metrics.events.max(1) as f64;
    let costs = kernels::measure(&shape, rep.metrics.completed as usize, p.quick);
    let counts = Counts {
        runs: f.server_epochs as f64,
        ..Counts::of(&rep).scaled(f.report.events as f64 / events)
    };
    (vec![(costs, counts)], rep.chained as f64 / events)
}

/// The per-layer metrics of a traced run. Span-derived values carry one
/// sample per traced operation; kernel costs are measured once, after
/// the operations.
fn layer_metrics(p: &Params, ops: &[Op], tracer: &Tracer, overhead_pct: f64) -> Vec<Metric> {
    let (inputs, chain_ratio) = kernel_inputs(&ops[0], p);
    let (est, n) = kernels::totals(&inputs);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let per_op = |f: &dyn Fn(&Op, usize) -> f64| -> Vec<f64> {
        ops.iter().map(|o| f(o, o.root.expect("traced operations have a root span"))).collect()
    };
    let span_s = |name: &'static str| move |_: &Op, root: usize| tracer.total(root, name);
    let span_share =
        |name: &'static str| move |o: &Op, root: usize| ratio(tracer.total(root, name), o.wall_s);
    // Inside a fleet the runs are not visible; the whole fleet call
    // stands in (it includes aw-cluster's planning and aggregation).
    let run_s = |o: &Op, root: usize| {
        let name = if o.fleet.is_some() { "aw-cluster.run" } else { "aw-server.run" };
        tracer.total(root, name)
    };
    let chained = |o: &Op| match &o.fleet {
        Some(_) => chain_ratio * o.events() as f64,
        None => o.runs.iter().map(|r| r.chained as f64).sum(),
    };
    let epochs = |root: usize| -> Vec<f64> {
        tracer.under(root, "aw-cluster.epoch").map(|s| s.secs()).collect()
    };
    let server_epochs = |o: &Op| o.fleet.as_ref().map_or(0.0, |f| f.server_epochs as f64);
    let once = |x: f64| vec![x];

    vec![
        Metric::new("aw-server.run_s", "s", per_op(&run_s)),
        Metric::new(
            "aw-server.runs",
            "count",
            per_op(&|o, _| if o.fleet.is_some() { server_epochs(o) } else { o.runs.len() as f64 }),
        ),
        Metric::new("aw-server.events", "count", per_op(&|o, _| o.events() as f64)),
        Metric::new("aw-server.chained", "count", per_op(&|o, _| chained(o))),
        Metric::new(
            "aw-server.chain_ratio",
            "ratio",
            per_op(&|o, _| ratio(chained(o), o.events() as f64)),
        ),
        Metric::new(
            "aw-server.ns_per_event",
            "ns",
            per_op(&|o, r| 1e9 * ratio(run_s(o, r), o.events() as f64)),
        ),
        Metric::new("aw-server.setup_s", "s", per_op(&span_s("aw-server.setup"))),
        Metric::new("aw-server.residual_s", "s", per_op(&|o, r| run_s(o, r) - est.total())),
        Metric::new("aw-server.run_fixed_us", "us", once(1e6 * ratio(est.run_fixed_s, n.runs))),
        Metric::new("aw-server.run_fixed.est_s", "s", once(est.run_fixed_s)),
        Metric::new(
            "aw-server.run_fixed_share",
            "ratio",
            per_op(&|o, _| ratio(est.run_fixed_s, o.wall_s)),
        ),
        Metric::new("aw-sim.queue.ns_per_op", "ns", once(1e9 * ratio(est.queue_s, n.queue_ops))),
        Metric::new("aw-sim.queue.est_s", "s", once(est.queue_s)),
        Metric::new("aw-workloads.draw_ns", "ns", once(1e9 * ratio(est.draws_s, n.draws))),
        Metric::new("aw-workloads.est_s", "s", once(est.draws_s)),
        Metric::new("aw-cstates.select_ns", "ns", once(1e9 * ratio(est.select_s, n.selections))),
        Metric::new("aw-cstates.est_s", "s", once(est.select_s)),
        Metric::new(
            "aw-sim.residency.ns_per_op",
            "ns",
            once(1e9 * ratio(est.residency_s, n.residency_ops)),
        ),
        Metric::new("aw-sim.residency.est_s", "s", once(est.residency_s)),
        Metric::new("aw-sim.samples.record_ns", "ns", once(1e9 * ratio(est.record_s, n.records))),
        Metric::new("aw-sim.samples.percentile_s", "s", once(ratio(est.sort_s, n.sorts))),
        Metric::new("aw-sim.samples.est_s", "s", once(est.samples_s())),
        Metric::new(
            "aw-cluster.epoch_s.p50",
            "s",
            per_op(&|_, r| {
                let e = epochs(r);
                if e.is_empty() {
                    0.0
                } else {
                    Summary::of(&e).median
                }
            }),
        )
        .unlisted(),
        Metric::new(
            "aw-cluster.epoch_s.max",
            "s",
            per_op(&|_, r| epochs(r).into_iter().fold(0.0, f64::max)),
        )
        .unlisted(),
        Metric::new("aw-cluster.server_epochs", "count", per_op(&|o, _| server_epochs(o))),
        Metric::new("aw-cluster.report_s", "s", per_op(&span_s("aw-cluster.report"))).unlisted(),
        Metric::new("aw-cluster.report_share", "ratio", per_op(&span_share("aw-cluster.report"))),
        Metric::new("aw-sleep.analyze_s", "s", per_op(&span_s("aw-sleep.analyze"))).unlisted(),
        Metric::new("aw-sleep.analyze_share", "ratio", per_op(&span_share("aw-sleep.analyze"))),
        Metric::new("aw-sleep.intervals", "count", per_op(&|o, _| o.intervals as f64)),
        Metric::new(
            "aw-sleep.ns_per_interval",
            "ns",
            per_op(&|o, r| 1e9 * ratio(tracer.total(r, "aw-sleep.analyze"), o.intervals as f64)),
        )
        .unlisted(),
        Metric::new("aw-telemetry.export_s", "s", per_op(&span_s("aw-telemetry.export")))
            .unlisted(),
        Metric::new(
            "aw-telemetry.export_share",
            "ratio",
            per_op(&span_share("aw-telemetry.export")),
        ),
        Metric::new("aw-telemetry.export_bytes", "bytes", per_op(&|o, _| o.export_bytes as f64)),
        Metric::new(
            "aw-telemetry.trace_dropped_ratio",
            "ratio",
            per_op(&|o, _| o.trace_dropped_ratio),
        ),
        Metric::new("agilewatts.format_s", "s", per_op(&span_s("agilewatts.format"))),
        Metric::new("trace.overhead_pct", "%", once(overhead_pct)),
    ]
}
