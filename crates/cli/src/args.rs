//! Hand-rolled argument parsing.

use std::fmt;

use agilewatts::aw_cluster::RoutingPolicy;
use agilewatts::aw_cstates::NamedConfig;
use agilewatts::aw_faults::{FaultSpec, FleetFaultSpec};
use agilewatts::aw_server::HardwareModel;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `table <n>`
    Table(u8),
    /// `fig <n> [--quick]`
    Fig {
        /// Figure number (8–13).
        number: u8,
        /// Reduced parameter set.
        quick: bool,
    },
    /// `flows`
    Flows,
    /// `motivation [--simulated]`
    Motivation {
        /// Derive the residency profiles from simulation instead of
        /// quoting the published ones.
        simulated: bool,
    },
    /// `package [--quick]`
    Package {
        /// Reduced parameter set.
        quick: bool,
    },
    /// `diurnal [--quick]`
    Diurnal {
        /// Reduced parameter set.
        quick: bool,
    },
    /// `snoop`
    Snoop,
    /// `validate [--quick]`
    Validate {
        /// Reduced parameter set.
        quick: bool,
    },
    /// `ablations [--quick]`
    Ablations {
        /// Reduced parameter set.
        quick: bool,
    },
    /// `sweep [OPTIONS]`
    Sweep(SweepArgs),
    /// `analyze [OPTIONS]`
    Analyze(AnalyzeArgs),
    /// `fleet [OPTIONS]`
    Fleet(FleetArgs),
    /// `watch [OPTIONS]`
    Watch(WatchArgs),
    /// `cross-vendor [--quick]`
    CrossVendor {
        /// Reduced parameter set.
        quick: bool,
    },
    /// `report [--quick]`
    Report {
        /// Reduced parameter set.
        quick: bool,
    },
    /// `help` / `--help` / no arguments.
    Help,
}

/// Options of the `sweep` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Workload selector.
    pub workload: String,
    /// Offered load (memcached only).
    pub qps: f64,
    /// C-state configuration.
    pub config: NamedConfig,
    /// Core count.
    pub cores: usize,
    /// Simulated duration in milliseconds.
    pub duration_ms: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            workload: "memcached".to_string(),
            qps: 300_000.0,
            config: NamedConfig::Baseline,
            cores: 10,
            duration_ms: 400.0,
            seed: 42,
        }
    }
}

/// Options of the `analyze` subcommand: the idle-opportunity comparison.
/// No `--config` flag — the point of the command is to run the same
/// workload under the Baseline and AW menus and compare how much of the
/// idle opportunity each recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeArgs {
    /// Workload selector (same names as `sweep`).
    pub workload: String,
    /// Offered load (memcached only).
    pub qps: f64,
    /// Core count.
    pub cores: usize,
    /// Simulated duration in milliseconds.
    pub duration_ms: f64,
    /// RNG seed (shared by both runs — common random numbers).
    pub seed: u64,
}

impl Default for AnalyzeArgs {
    fn default() -> Self {
        AnalyzeArgs {
            workload: "memcached".to_string(),
            qps: 300_000.0,
            cores: 10,
            duration_ms: 200.0,
            seed: 42,
        }
    }
}

/// Options of the `fleet` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetArgs {
    /// Fleet size.
    pub servers: usize,
    /// Cores per server.
    pub cores: usize,
    /// Routing policy.
    pub policy: RoutingPolicy,
    /// C-state configuration.
    pub config: NamedConfig,
    /// Aggregate load as a fraction of total fleet capacity.
    pub utilization: f64,
    /// Number of epochs.
    pub epochs: usize,
    /// Epoch duration in milliseconds.
    pub epoch_ms: f64,
    /// Enable the fleet autoscaler.
    pub autoscale: bool,
    /// Diurnal swing amplitude (`None` = constant load).
    pub diurnal: Option<f64>,
    /// Fleet master seed.
    pub seed: u64,
    /// `--fleet-faults <SPEC>`: fleet-level chaos plan (crashes, rack
    /// outages, link degradation, throttles, unpark failures).
    pub fleet_faults: Option<FleetFaultSpec>,
}

impl Default for FleetArgs {
    fn default() -> Self {
        FleetArgs {
            servers: 8,
            cores: 4,
            policy: RoutingPolicy::Packing,
            config: NamedConfig::Aw,
            utilization: 0.25,
            epochs: 6,
            epoch_ms: 25.0,
            autoscale: false,
            diurnal: None,
            seed: 42,
            fleet_faults: None,
        }
    }
}

/// Options of the `watch` subcommand: the live fleet cockpit. Accepts
/// every `fleet` flag plus the rendering mode.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WatchArgs {
    /// The fleet being watched (same flags and defaults as `fleet`).
    pub fleet: FleetArgs,
    /// `--headless`: render plain-text frames to stdout instead of
    /// taking over the terminal — the deterministic/CI mode.
    pub headless: bool,
    /// `--frames <N>`: number of headless frames to emit (one per
    /// epoch, from the start of the run); `None` = one per epoch.
    pub frames: Option<usize>,
}

/// Telemetry options, accepted by every experiment subcommand.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryArgs {
    /// Write a Chrome trace-event JSON file here (`--trace-out`).
    pub trace_out: Option<String>,
    /// Write a metrics JSON file here (`--metrics-out`).
    pub metrics_out: Option<String>,
    /// Trace ring-buffer capacity (`--trace-limit`), `None` = default.
    pub trace_limit: Option<usize>,
    /// Per-window p99 SLO target in nanoseconds (`--slo-p99`).
    pub slo_p99: Option<f64>,
    /// Write the attribution time series here (`--timeline-out`); a
    /// `.json` suffix selects JSON, anything else CSV.
    pub timeline_out: Option<String>,
    /// Write the folded-stack attribution here (`--attrib-out`).
    pub attrib_out: Option<String>,
    /// Write the idle-opportunity report here (`--idle-out`); a `.json`
    /// suffix selects JSON, `.folded` the chosen→optimal folded stack,
    /// anything else the windowed recovery CSV. Also enables idle
    /// analysis (pure observation) on the run.
    pub idle_out: Option<String>,
}

impl TelemetryArgs {
    /// Default ring-buffer capacity when `--trace-limit` is not given.
    pub const DEFAULT_TRACE_LIMIT: usize = 200_000;

    /// `true` if any output was requested, i.e. the run must be
    /// instrumented (traced and/or attributed).
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.attrib_active()
    }

    /// `true` if any attribution output was requested, i.e. the run must
    /// collect request spans and a timeline.
    #[must_use]
    pub fn attrib_active(&self) -> bool {
        self.slo_p99.is_some() || self.timeline_out.is_some() || self.attrib_out.is_some()
    }

    /// `true` if the idle-opportunity report was requested, i.e. the run
    /// must capture idle intervals.
    #[must_use]
    pub fn idle_active(&self) -> bool {
        self.idle_out.is_some()
    }

    /// The effective ring-buffer capacity.
    #[must_use]
    pub fn limit(&self) -> usize {
        self.trace_limit.unwrap_or(Self::DEFAULT_TRACE_LIMIT)
    }
}

/// Execution options, accepted by every experiment subcommand.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecArgs {
    /// `--jobs <N>`: worker threads for sweep execution. `None` defers
    /// to the `AW_JOBS` environment variable and then to the machine's
    /// available parallelism. Reports are byte-identical at any value.
    pub jobs: Option<usize>,
    /// `--progress`: force the live sweep progress reporter on stderr
    /// even when stderr is not a terminal. By default progress is
    /// auto-enabled on a TTY and off in scripts/pipelines, so golden
    /// outputs never change.
    pub progress: bool,
    /// `--no-idle-skip`: disable the analytic idle-skip fast path,
    /// forcing every simulation event through the event queue. The
    /// two engines are byte-identical by contract — this debug knob
    /// exists so the equivalence stays checkable end-to-end
    /// (`scripts/verify.sh` diffs a run against its `--no-idle-skip`
    /// twin).
    pub no_idle_skip: bool,
}

/// Robustness options, accepted by every experiment subcommand:
/// deterministic fault injection and overload protection.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RobustnessArgs {
    /// Parsed `--faults <spec>` fault-injection spec (e.g.
    /// `seed=7,wake-fail=0.1,lost-wake=0.01`).
    pub faults: Option<FaultSpec>,
    /// `--queue-cap <N>`: bound each core's run queue, shedding arrivals
    /// beyond it.
    pub queue_cap: Option<usize>,
    /// `--request-timeout <µs>`: drop requests that waited longer than
    /// this when they reach the head of the queue.
    pub request_timeout_us: Option<f64>,
}

impl RobustnessArgs {
    /// `true` if any fault-injection or overload-protection option was
    /// given, i.e. the run must print a "Degradation" section.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.faults.is_some() || self.queue_cap.is_some() || self.request_timeout_us.is_some()
    }
}

/// The flag set every experiment subcommand shares — telemetry outputs,
/// robustness knobs, and execution options — parsed in one place
/// (`CommonArgs::try_consume`) and applied in one place
/// ([`CommonArgs::apply`]), so subcommands cannot drift apart.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CommonArgs {
    /// Telemetry outputs (`--trace-out`, `--metrics-out`, `--slo-p99`,
    /// `--timeline-out`, `--attrib-out`, `--trace-limit`).
    pub telemetry: TelemetryArgs,
    /// Fault injection and overload protection (`--faults`,
    /// `--queue-cap`, `--request-timeout`).
    pub robustness: RobustnessArgs,
    /// Execution options (`--jobs`).
    pub exec: ExecArgs,
    /// Hardware model names from `--hw` (validated against the registry
    /// at parse time). Empty = the default Skylake-SP. A comma-separated
    /// list builds a mixed fleet (`fleet`/`watch`) or restricts the
    /// `cross-vendor` grid.
    pub hw: Vec<String>,
}

impl CommonArgs {
    /// `true` if any shared flag that changes what a run must print or
    /// collect was given.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.telemetry.is_active() || self.telemetry.idle_active() || self.robustness.is_active()
    }

    /// The parsed `--hw` models, in the order given on the command line.
    #[must_use]
    pub fn hw_models(&self) -> Vec<&'static HardwareModel> {
        self.hw
            .iter()
            .map(|n| HardwareModel::by_name(n).expect("validated at parse time"))
            .collect()
    }

    /// The one hardware model a single-server subcommand runs on
    /// (default: Skylake-SP, the paper's part).
    ///
    /// # Errors
    ///
    /// Errors when `--hw` named more than one model — only `fleet`,
    /// `watch`, and `cross-vendor` accept a list.
    pub fn single_hw(&self) -> Result<&'static HardwareModel, ParseError> {
        match self.hw.len() {
            0 => Ok(HardwareModel::skylake_sp()),
            1 => Ok(HardwareModel::by_name(&self.hw[0]).expect("validated at parse time")),
            n => Err(ParseError(format!(
                "--hw named {n} models; only fleet, watch, and cross-vendor accept a list"
            ))),
        }
    }

    /// Installs the process-wide execution options (`--jobs`). Call once
    /// before dispatching the command.
    pub fn apply(&self) {
        if let Some(jobs) = self.exec.jobs {
            agilewatts::aw_exec::set_default_jobs(jobs);
        }
        if self.exec.progress {
            agilewatts::aw_exec::set_progress(agilewatts::aw_exec::ProgressMode::Enabled);
        }
        if self.exec.no_idle_skip {
            agilewatts::aw_server::set_default_idle_skip(false);
        }
    }

    /// Tries to consume `arg` (and its value from `it`) as one of the
    /// shared flags. Returns `Ok(false)` when `arg` is not a shared flag,
    /// leaving `it` untouched for the subcommand parser.
    fn try_consume(
        &mut self,
        arg: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, ParseError> {
        let mut value = |name: &str| {
            it.next().cloned().ok_or_else(|| ParseError(format!("{name} needs a value")))
        };
        match arg {
            "--faults" => {
                let v = value("--faults")?;
                let spec = FaultSpec::parse(&v)
                    .map_err(|e| ParseError(format!("bad --faults spec: {e}")))?;
                self.robustness.faults = Some(spec);
            }
            "--queue-cap" => {
                self.robustness.queue_cap =
                    Some(positive_usize("--queue-cap", &value("--queue-cap")?)?);
            }
            "--request-timeout" => {
                self.robustness.request_timeout_us = Some(positive_f64(
                    "--request-timeout",
                    &value("--request-timeout")?,
                    "microseconds",
                )?);
            }
            "--trace-out" => self.telemetry.trace_out = Some(value("--trace-out")?),
            "--metrics-out" => self.telemetry.metrics_out = Some(value("--metrics-out")?),
            "--trace-limit" => {
                self.telemetry.trace_limit =
                    Some(positive_usize("--trace-limit", &value("--trace-limit")?)?);
            }
            "--slo-p99" => {
                self.telemetry.slo_p99 =
                    Some(positive_f64("--slo-p99", &value("--slo-p99")?, "nanoseconds")?);
            }
            "--timeline-out" => self.telemetry.timeline_out = Some(value("--timeline-out")?),
            "--attrib-out" => self.telemetry.attrib_out = Some(value("--attrib-out")?),
            "--idle-out" => self.telemetry.idle_out = Some(value("--idle-out")?),
            "--hw" => {
                let v = value("--hw")?;
                for name in v.split(',') {
                    let hw = HardwareModel::by_name(name.trim())
                        .map_err(|e| ParseError(e.to_string()))?;
                    self.hw.push(hw.name.to_string());
                }
            }
            "--jobs" => {
                self.exec.jobs = Some(positive_usize("--jobs", &value("--jobs")?)?);
            }
            "--progress" => self.exec.progress = true,
            "--no-idle-skip" => self.exec.no_idle_skip = true,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Parse failures, with a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn named_config(name: &str) -> Result<NamedConfig, ParseError> {
    NamedConfig::ALL
        .iter()
        .find(|c| c.to_string().eq_ignore_ascii_case(name))
        .copied()
        .ok_or_else(|| ParseError(format!("unknown config '{name}'")))
}

/// Largest accepted `--cores`: far above any real part, and low
/// enough that per-core state is allocated without aborting.
const MAX_CORES: usize = 4096;

/// Largest accepted `--servers`, for the same reason per server.
const MAX_SERVERS: usize = 1_000_000;

/// Parses a strictly positive integer flag value.
fn positive_usize(flag: &str, v: &str) -> Result<usize, ParseError> {
    let n: usize = v.parse().map_err(|_| ParseError(format!("bad {flag} value '{v}'")))?;
    if n == 0 {
        return Err(ParseError(format!("{flag} must be positive")));
    }
    Ok(n)
}

/// Parses a strictly positive integer flag value of at most `max`.
fn bounded_usize(flag: &str, v: &str, max: usize) -> Result<usize, ParseError> {
    let n = positive_usize(flag, v)?;
    if n > max {
        return Err(ParseError(format!("{flag} must be at most {max}")));
    }
    Ok(n)
}

/// Parses a strictly positive, finite float flag value.
fn positive_f64(flag: &str, v: &str, unit: &str) -> Result<f64, ParseError> {
    let x: f64 = v.parse().map_err(|_| ParseError(format!("bad {flag} value '{v}'")))?;
    if x <= 0.0 || !x.is_finite() {
        return Err(ParseError(format!("{flag} must be positive {unit}")));
    }
    Ok(x)
}

fn has_quick(rest: &[String]) -> Result<bool, ParseError> {
    match rest {
        [] => Ok(false),
        [flag] if flag == "--quick" => Ok(true),
        [other, ..] => Err(ParseError(format!("unexpected argument '{other}'"))),
    }
}

/// Parses an argument vector (without the program name), extracting the
/// shared flags (telemetry, robustness, and execution options — see
/// [`CommonArgs`]) first — they are accepted anywhere on the command
/// line — and handing the rest to [`parse`].
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first invalid argument.
pub fn parse_cli(args: &[String]) -> Result<(Command, CommonArgs), ParseError> {
    let mut common = CommonArgs::default();
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !common.try_consume(arg.as_str(), &mut it)? {
            rest.push(arg.clone());
        }
    }
    let command = parse(&rest)?;
    if (common.is_active() || !common.hw.is_empty()) && matches!(command, Command::Help) {
        return Err(ParseError(
            "--trace-out/--metrics-out/--slo-p99/--timeline-out/--attrib-out/--idle-out/\
             --faults/--queue-cap/--request-timeout/--hw need an experiment subcommand"
                .into(),
        ));
    }
    Ok((command, common))
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first invalid argument.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "table" => {
            let [n] = rest else {
                return Err(ParseError("usage: table <1|2|3|4|5>".into()));
            };
            let n: u8 = n.parse().map_err(|_| ParseError(format!("bad table number '{n}'")))?;
            if (1..=5).contains(&n) {
                Ok(Command::Table(n))
            } else {
                Err(ParseError(format!("no table {n} in the paper (1–5)")))
            }
        }
        "fig" => {
            let Some((n, flags)) = rest.split_first() else {
                return Err(ParseError("usage: fig <8|9|10|11|12|13> [--quick]".into()));
            };
            let number: u8 =
                n.parse().map_err(|_| ParseError(format!("bad figure number '{n}'")))?;
            if !(8..=13).contains(&number) {
                return Err(ParseError(format!("no figure {number} experiment (8–13)")));
            }
            Ok(Command::Fig { number, quick: has_quick(flags)? })
        }
        "flows" => has_quick(rest).map(|_| Command::Flows),
        "motivation" => match rest {
            [] => Ok(Command::Motivation { simulated: false }),
            [flag] if flag == "--simulated" => Ok(Command::Motivation { simulated: true }),
            [other, ..] => Err(ParseError(format!("unexpected argument '{other}'"))),
        },
        "package" => Ok(Command::Package { quick: has_quick(rest)? }),
        "diurnal" => Ok(Command::Diurnal { quick: has_quick(rest)? }),
        "snoop" => has_quick(rest).map(|_| Command::Snoop),
        "validate" => Ok(Command::Validate { quick: has_quick(rest)? }),
        "ablations" => Ok(Command::Ablations { quick: has_quick(rest)? }),
        "cross-vendor" => Ok(Command::CrossVendor { quick: has_quick(rest)? }),
        "report" => Ok(Command::Report { quick: has_quick(rest)? }),
        "sweep" => parse_sweep(rest).map(Command::Sweep),
        "analyze" => parse_analyze(rest).map(Command::Analyze),
        "fleet" => parse_fleet(rest).map(Command::Fleet),
        "watch" => parse_watch(rest).map(Command::Watch),
        other => Err(ParseError(format!("unknown command '{other}' (try 'help')"))),
    }
}

fn parse_sweep(rest: &[String]) -> Result<SweepArgs, ParseError> {
    let mut args = SweepArgs::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().ok_or_else(|| ParseError(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--qps" => args.qps = positive_f64("--qps", &value("--qps")?, "requests/s")?,
            "--config" => args.config = named_config(&value("--config")?)?,
            "--cores" => args.cores = bounded_usize("--cores", &value("--cores")?, MAX_CORES)?,
            "--duration-ms" => {
                args.duration_ms =
                    positive_f64("--duration-ms", &value("--duration-ms")?, "milliseconds")?;
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| ParseError(format!("bad --seed value '{v}'")))?;
            }
            other => return Err(ParseError(format!("unknown sweep option '{other}'"))),
        }
    }
    Ok(args)
}

fn parse_analyze(rest: &[String]) -> Result<AnalyzeArgs, ParseError> {
    let mut args = AnalyzeArgs::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().ok_or_else(|| ParseError(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--qps" => args.qps = positive_f64("--qps", &value("--qps")?, "requests/s")?,
            "--cores" => args.cores = bounded_usize("--cores", &value("--cores")?, MAX_CORES)?,
            "--duration-ms" => {
                args.duration_ms =
                    positive_f64("--duration-ms", &value("--duration-ms")?, "milliseconds")?;
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| ParseError(format!("bad --seed value '{v}'")))?;
            }
            other => return Err(ParseError(format!("unknown analyze option '{other}'"))),
        }
    }
    Ok(args)
}

/// Tries to consume `flag` (and its value from `it`) as one of the
/// fleet-simulation flags shared by `fleet` and `watch`. Returns
/// `Ok(false)` when `flag` is not a fleet flag.
fn consume_fleet_flag(
    args: &mut FleetArgs,
    flag: &str,
    it: &mut std::slice::Iter<'_, String>,
) -> Result<bool, ParseError> {
    let mut value =
        |name: &str| it.next().cloned().ok_or_else(|| ParseError(format!("{name} needs a value")));
    match flag {
        "--servers" => {
            args.servers = bounded_usize("--servers", &value("--servers")?, MAX_SERVERS)?;
        }
        "--cores" => args.cores = bounded_usize("--cores", &value("--cores")?, MAX_CORES)?,
        "--policy" => {
            let v = value("--policy")?;
            args.policy = v.parse().map_err(|e: String| ParseError(e))?;
        }
        "--config" => args.config = named_config(&value("--config")?)?,
        "--utilization" => {
            args.utilization = positive_f64(
                "--utilization",
                &value("--utilization")?,
                "(fraction of fleet capacity)",
            )?;
        }
        "--epochs" => args.epochs = positive_usize("--epochs", &value("--epochs")?)?,
        "--epoch-ms" => {
            args.epoch_ms = positive_f64("--epoch-ms", &value("--epoch-ms")?, "milliseconds")?;
        }
        "--autoscale" => args.autoscale = true,
        "--diurnal" => {
            let v = value("--diurnal")?;
            let amp: f64 =
                v.parse().map_err(|_| ParseError(format!("bad --diurnal value '{v}'")))?;
            if !(0.0..1.0).contains(&amp) {
                return Err(ParseError("--diurnal amplitude must be in [0, 1)".into()));
            }
            args.diurnal = Some(amp);
        }
        "--seed" => {
            let v = value("--seed")?;
            args.seed = v.parse().map_err(|_| ParseError(format!("bad --seed value '{v}'")))?;
        }
        "--fleet-faults" => {
            let v = value("--fleet-faults")?;
            args.fleet_faults =
                Some(FleetFaultSpec::parse(&v).map_err(|e| ParseError(e.to_string()))?);
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_fleet(rest: &[String]) -> Result<FleetArgs, ParseError> {
    let mut args = FleetArgs::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if !consume_fleet_flag(&mut args, flag.as_str(), &mut it)? {
            return Err(ParseError(format!("unknown fleet option '{flag}'")));
        }
    }
    Ok(args)
}

fn parse_watch(rest: &[String]) -> Result<WatchArgs, ParseError> {
    let mut args = WatchArgs::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--headless" => args.headless = true,
            "--frames" => {
                let v = it.next().ok_or_else(|| ParseError("--frames needs a value".into()))?;
                args.frames = Some(positive_usize("--frames", v)?);
            }
            other => {
                if !consume_fleet_flag(&mut args.fleet, other, &mut it)? {
                    return Err(ParseError(format!("unknown watch option '{other}'")));
                }
            }
        }
    }
    if args.frames.is_some() && !args.headless {
        return Err(ParseError("--frames only applies to --headless".into()));
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn tables_parse_and_validate() {
        assert_eq!(parse(&argv("table 3")).unwrap(), Command::Table(3));
        assert!(parse(&argv("table 7")).is_err());
        assert!(parse(&argv("table")).is_err());
        assert!(parse(&argv("table x")).is_err());
    }

    #[test]
    fn figs_parse_with_quick() {
        assert_eq!(parse(&argv("fig 8")).unwrap(), Command::Fig { number: 8, quick: false });
        assert_eq!(
            parse(&argv("fig 12 --quick")).unwrap(),
            Command::Fig { number: 12, quick: true }
        );
        assert!(parse(&argv("fig 7")).is_err());
        assert!(parse(&argv("fig 8 --fast")).is_err());
    }

    #[test]
    fn simple_commands() {
        assert_eq!(parse(&argv("flows")).unwrap(), Command::Flows);
        assert_eq!(parse(&argv("motivation")).unwrap(), Command::Motivation { simulated: false });
        assert_eq!(
            parse(&argv("motivation --simulated")).unwrap(),
            Command::Motivation { simulated: true }
        );
        assert_eq!(parse(&argv("package --quick")).unwrap(), Command::Package { quick: true });
        assert_eq!(parse(&argv("diurnal")).unwrap(), Command::Diurnal { quick: false });
        assert_eq!(parse(&argv("snoop")).unwrap(), Command::Snoop);
        assert_eq!(parse(&argv("validate --quick")).unwrap(), Command::Validate { quick: true });
        assert_eq!(parse(&argv("report")).unwrap(), Command::Report { quick: false });
    }

    #[test]
    fn sweep_defaults() {
        let Command::Sweep(s) = parse(&argv("sweep")).unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(s, SweepArgs::default());
    }

    #[test]
    fn sweep_full_options() {
        let cmd = parse(&argv(
            "sweep --workload kafka-low --qps 50000 --config NT_No_C6 --cores 4 --duration-ms 80 --seed 7",
        ))
        .unwrap();
        let Command::Sweep(s) = cmd else { panic!("expected sweep") };
        assert_eq!(s.workload, "kafka-low");
        assert_eq!(s.qps, 50_000.0);
        assert_eq!(s.config, NamedConfig::NtNoC6);
        assert_eq!(s.cores, 4);
        assert_eq!(s.duration_ms, 80.0);
        assert_eq!(s.seed, 7);
    }

    #[test]
    fn sweep_config_is_case_insensitive() {
        let Command::Sweep(s) = parse(&argv("sweep --config aw")).unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(s.config, NamedConfig::Aw);
    }

    #[test]
    fn sweep_rejects_bad_values() {
        assert!(parse(&argv("sweep --qps -5")).is_err());
        assert!(parse(&argv("sweep --cores 0")).is_err());
        assert!(parse(&argv("sweep --config NoSuch")).is_err());
        assert!(parse(&argv("sweep --qps")).is_err());
        assert!(parse(&argv("sweep --frobnicate 3")).is_err());
    }

    #[test]
    fn analyze_defaults_and_options() {
        let Command::Analyze(a) = parse(&argv("analyze")).unwrap() else {
            panic!("expected analyze");
        };
        assert_eq!(a, AnalyzeArgs::default());

        let cmd = parse(&argv(
            "analyze --workload mysql-mid --qps 50000 --cores 4 --duration-ms 80 --seed 7",
        ))
        .unwrap();
        let Command::Analyze(a) = cmd else { panic!("expected analyze") };
        assert_eq!(a.workload, "mysql-mid");
        assert_eq!(a.qps, 50_000.0);
        assert_eq!(a.cores, 4);
        assert_eq!(a.duration_ms, 80.0);
        assert_eq!(a.seed, 7);
    }

    #[test]
    fn analyze_rejects_config_and_bad_values() {
        // analyze always compares Baseline vs AW; --config is not a flag.
        assert!(parse(&argv("analyze --config AW")).is_err());
        assert!(parse(&argv("analyze --cores 0")).is_err());
        assert!(parse(&argv("analyze --qps")).is_err());
    }

    #[test]
    fn idle_out_parses_anywhere_and_activates() {
        let (cmd, c) = parse_cli(&argv("sweep --idle-out /tmp/idle.csv --config AW")).unwrap();
        let Command::Sweep(s) = cmd else { panic!("expected sweep") };
        assert_eq!(s.config, NamedConfig::Aw);
        assert_eq!(c.telemetry.idle_out.as_deref(), Some("/tmp/idle.csv"));
        assert!(c.telemetry.idle_active());
        assert!(c.is_active());
        // Idle analysis alone requests neither tracing nor attribution.
        assert!(!c.telemetry.is_active());
        assert!(!c.telemetry.attrib_active());
        assert!(parse_cli(&argv("--idle-out /tmp/i.csv")).is_err(), "needs a subcommand");
        assert!(parse_cli(&argv("sweep --idle-out")).is_err(), "needs a value");
    }

    #[test]
    fn fleet_defaults() {
        let Command::Fleet(f) = parse(&argv("fleet")).unwrap() else {
            panic!("expected fleet");
        };
        assert_eq!(f, FleetArgs::default());
    }

    #[test]
    fn fleet_full_options() {
        let cmd = parse(&argv(
            "fleet --servers 16 --cores 8 --policy spreading --config Baseline \
             --utilization 0.7 --epochs 12 --epoch-ms 50 --autoscale --diurnal 0.6 --seed 7",
        ))
        .unwrap();
        let Command::Fleet(f) = cmd else { panic!("expected fleet") };
        assert_eq!(f.servers, 16);
        assert_eq!(f.cores, 8);
        assert_eq!(f.policy, RoutingPolicy::Spreading);
        assert_eq!(f.config, NamedConfig::Baseline);
        assert_eq!(f.utilization, 0.7);
        assert_eq!(f.epochs, 12);
        assert_eq!(f.epoch_ms, 50.0);
        assert!(f.autoscale);
        assert_eq!(f.diurnal, Some(0.6));
        assert_eq!(f.seed, 7);
    }

    #[test]
    fn fleet_rejects_bad_values() {
        assert!(parse(&argv("fleet --servers 0")).is_err());
        assert!(parse(&argv("fleet --policy weighted")).is_err());
        assert!(parse(&argv("fleet --utilization -0.2")).is_err());
        assert!(parse(&argv("fleet --diurnal 1.5")).is_err());
        assert!(parse(&argv("fleet --epoch-ms 0")).is_err());
        assert!(parse(&argv("fleet --frobnicate 3")).is_err());
    }

    /// Sizes that would abort in the allocator fail as usage errors
    /// naming the limit, before anything is allocated.
    #[test]
    fn oversized_cores_and_servers_are_usage_errors() {
        let cores = format!("--cores must be at most {MAX_CORES}");
        let servers = format!("--servers must be at most {MAX_SERVERS}");
        for (cmd, msg) in [
            ("sweep --cores 100000000000 --duration-ms 1", &cores),
            ("analyze --cores 4097", &cores),
            ("fleet --servers 4 --cores 100000000000", &cores),
            ("fleet --servers 4294967297", &servers),
            ("watch --servers 1000001", &servers),
        ] {
            assert_eq!(parse(&argv(cmd)), Err(ParseError(msg.clone())), "{cmd}");
        }
        let Command::Fleet(f) = parse(&argv("fleet --servers 1000000 --cores 4096")).unwrap()
        else {
            panic!("expected fleet");
        };
        assert_eq!((f.servers, f.cores), (MAX_SERVERS, MAX_CORES));
    }

    #[test]
    fn fleet_faults_parse_on_fleet_and_watch() {
        let spec = "crash=0.02,down-epochs=3,unpark-fail=0.1";
        let cmd = parse(&argv(&format!("fleet --fleet-faults {spec}"))).unwrap();
        let Command::Fleet(f) = cmd else { panic!("expected fleet") };
        let parsed = f.fleet_faults.expect("spec attached");
        assert!(parsed.is_active());
        // Round-trips through the canonical display form.
        assert_eq!(FleetFaultSpec::parse(&parsed.to_string()).unwrap(), parsed);

        let cmd = parse(&argv("watch --headless --fleet-faults crash-at=2:1")).unwrap();
        let Command::Watch(w) = cmd else { panic!("expected watch") };
        assert!(w.fleet.fleet_faults.is_some());

        assert!(parse(&argv("fleet --fleet-faults")).is_err()); // needs a value
        assert!(parse(&argv("fleet --fleet-faults crash=2.0")).is_err()); // bad probability
        assert!(parse(&argv("fleet --fleet-faults no-such-key=1")).is_err());
    }

    #[test]
    fn fleet_accepts_every_policy_name() {
        for policy in RoutingPolicy::ALL {
            let cmd = parse(&argv(&format!("fleet --policy {policy}"))).unwrap();
            let Command::Fleet(f) = cmd else { panic!("expected fleet") };
            assert_eq!(f.policy, policy);
        }
    }

    #[test]
    fn watch_defaults_and_composes_fleet_flags() {
        let Command::Watch(w) = parse(&argv("watch")).unwrap() else {
            panic!("expected watch");
        };
        assert_eq!(w, WatchArgs::default());
        assert!(!w.headless);

        let cmd = parse(&argv(
            "watch --headless --frames 5 --servers 4 --policy spreading --autoscale --seed 7",
        ))
        .unwrap();
        let Command::Watch(w) = cmd else { panic!("expected watch") };
        assert!(w.headless);
        assert_eq!(w.frames, Some(5));
        assert_eq!(w.fleet.servers, 4);
        assert_eq!(w.fleet.policy, RoutingPolicy::Spreading);
        assert!(w.fleet.autoscale);
        assert_eq!(w.fleet.seed, 7);
    }

    #[test]
    fn watch_rejects_bad_values() {
        assert!(parse(&argv("watch --frames 0 --headless")).is_err());
        assert!(parse(&argv("watch --frames 3")).is_err(), "--frames needs --headless");
        assert!(parse(&argv("watch --servers 0")).is_err());
        assert!(parse(&argv("watch --quick")).is_err());
    }

    #[test]
    fn progress_flag_parses_anywhere() {
        let (cmd, c) = parse_cli(&argv("fig 8 --progress --quick")).unwrap();
        assert_eq!(cmd, Command::Fig { number: 8, quick: true });
        assert!(c.exec.progress);
        let (_, c) = parse_cli(&argv("watch --headless")).unwrap();
        assert!(!c.exec.progress);
    }

    #[test]
    fn no_idle_skip_flag_parses_anywhere() {
        let (cmd, c) = parse_cli(&argv("fig 8 --no-idle-skip --quick")).unwrap();
        assert_eq!(cmd, Command::Fig { number: 8, quick: true });
        assert!(c.exec.no_idle_skip);
        let (_, c) = parse_cli(&argv("fig 8")).unwrap();
        assert!(!c.exec.no_idle_skip);
    }

    #[test]
    fn hw_flag_parses_and_validates_names() {
        let (cmd, c) = parse_cli(&argv("fig 8 --hw skylake-sp --quick")).unwrap();
        assert_eq!(cmd, Command::Fig { number: 8, quick: true });
        assert_eq!(c.hw, vec!["skylake-sp".to_string()]);
        assert_eq!(c.single_hw().unwrap().name, "skylake-sp");

        // Comma list for mixed fleets, validated member by member.
        let (_, c) = parse_cli(&argv("fleet --hw skylake-sp,zen2")).unwrap();
        assert_eq!(c.hw, vec!["skylake-sp".to_string(), "zen2".to_string()]);
        assert_eq!(c.hw_models().len(), 2);
        assert!(c.single_hw().is_err(), "lists are fleet/watch/cross-vendor only");

        // No flag = the default Skylake-SP part.
        let (_, c) = parse_cli(&argv("fig 8 --quick")).unwrap();
        assert!(c.hw.is_empty());
        assert_eq!(c.single_hw().unwrap().name, "skylake-sp");
    }

    #[test]
    fn unknown_hw_error_lists_known_models() {
        let err = parse_cli(&argv("fig 8 --hw epyc-9999")).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("epyc-9999"), "{msg}");
        assert!(msg.contains("skylake-sp"), "{msg}");
        assert!(msg.contains("zen2"), "{msg}");
        assert!(parse_cli(&argv("fleet --hw skylake-sp,nope")).is_err());
        assert!(parse_cli(&argv("sweep --hw")).is_err(), "needs a value");
        assert!(parse_cli(&argv("--hw zen2")).is_err(), "needs a subcommand");
    }

    #[test]
    fn cross_vendor_parses() {
        assert_eq!(
            parse(&argv("cross-vendor --quick")).unwrap(),
            Command::CrossVendor { quick: true }
        );
        assert_eq!(parse(&argv("cross-vendor")).unwrap(), Command::CrossVendor { quick: false });
        assert!(parse(&argv("cross-vendor --fast")).is_err());
    }

    #[test]
    fn unknown_command_suggests_help() {
        let err = parse(&argv("fgi 8")).unwrap_err();
        assert!(err.to_string().contains("help"));
    }

    #[test]
    fn telemetry_flags_accepted_anywhere() {
        let (cmd, c) =
            parse_cli(&argv("fig 8 --trace-out /tmp/t.json --quick --metrics-out /tmp/m.json"))
                .unwrap();
        assert_eq!(cmd, Command::Fig { number: 8, quick: true });
        assert_eq!(c.telemetry.trace_out.as_deref(), Some("/tmp/t.json"));
        assert_eq!(c.telemetry.metrics_out.as_deref(), Some("/tmp/m.json"));
        assert!(c.telemetry.is_active());
        assert_eq!(c.telemetry.limit(), TelemetryArgs::DEFAULT_TRACE_LIMIT);
    }

    #[test]
    fn trace_limit_parses_and_validates() {
        let (_, c) = parse_cli(&argv("sweep --trace-limit 5000 --trace-out x.json")).unwrap();
        assert_eq!(c.telemetry.limit(), 5000);
        assert!(parse_cli(&argv("sweep --trace-limit 0")).is_err());
        assert!(parse_cli(&argv("sweep --trace-limit abc")).is_err());
        assert!(parse_cli(&argv("sweep --trace-out")).is_err());
    }

    #[test]
    fn no_telemetry_flags_is_inactive() {
        let (cmd, c) = parse_cli(&argv("table 1")).unwrap();
        assert_eq!(cmd, Command::Table(1));
        assert!(!c.is_active());
    }

    #[test]
    fn telemetry_without_subcommand_is_an_error() {
        assert!(parse_cli(&argv("--trace-out /tmp/t.json")).is_err());
        assert!(parse_cli(&argv("--slo-p99 500000")).is_err());
    }

    #[test]
    fn attribution_flags_parse_anywhere() {
        let (cmd, c) = parse_cli(&argv(
            "sweep --slo-p99 500000 --config AW --timeline-out /tmp/tl.csv --attrib-out /tmp/a.folded",
        ))
        .unwrap();
        let Command::Sweep(s) = cmd else { panic!("expected sweep") };
        assert_eq!(s.config, NamedConfig::Aw);
        assert_eq!(c.telemetry.slo_p99, Some(500_000.0));
        assert_eq!(c.telemetry.timeline_out.as_deref(), Some("/tmp/tl.csv"));
        assert_eq!(c.telemetry.attrib_out.as_deref(), Some("/tmp/a.folded"));
        assert!(c.telemetry.attrib_active());
        assert!(c.telemetry.is_active());
        // Attribution alone does not request event tracing outputs.
        assert!(c.telemetry.trace_out.is_none());
    }

    #[test]
    fn slo_p99_validates() {
        assert!(parse_cli(&argv("sweep --slo-p99 0")).is_err());
        assert!(parse_cli(&argv("sweep --slo-p99 -3")).is_err());
        assert!(parse_cli(&argv("sweep --slo-p99 abc")).is_err());
        assert!(parse_cli(&argv("sweep --slo-p99")).is_err());
        let (_, c) = parse_cli(&argv("fig 8 --slo-p99 250000")).unwrap();
        assert_eq!(c.telemetry.slo_p99, Some(250_000.0));
        assert!(c.telemetry.attrib_active());
    }

    #[test]
    fn trace_flags_alone_do_not_enable_attribution() {
        let (_, c) = parse_cli(&argv("sweep --trace-out /tmp/t.json")).unwrap();
        assert!(c.telemetry.is_active());
        assert!(!c.telemetry.attrib_active());
    }

    #[test]
    fn robustness_flags_accepted_anywhere() {
        let (cmd, c) = parse_cli(&argv(
            "sweep --faults seed=7,wake-fail=0.2 --config AW --queue-cap 8 --request-timeout 500",
        ))
        .unwrap();
        let Command::Sweep(s) = cmd else { panic!("expected sweep") };
        assert_eq!(s.config, NamedConfig::Aw);
        assert!(c.robustness.is_active());
        let spec = c.robustness.faults.expect("faults parsed");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.wake_fail, 0.2);
        assert_eq!(c.robustness.queue_cap, Some(8));
        assert_eq!(c.robustness.request_timeout_us, Some(500.0));
    }

    #[test]
    fn jobs_flag_parses_and_validates() {
        let (cmd, c) = parse_cli(&argv("fig 8 --jobs 4 --quick")).unwrap();
        assert_eq!(cmd, Command::Fig { number: 8, quick: true });
        assert_eq!(c.exec.jobs, Some(4));
        let (_, c) = parse_cli(&argv("report")).unwrap();
        assert_eq!(c.exec.jobs, None);
        assert!(parse_cli(&argv("sweep --jobs 0")).is_err());
        assert!(parse_cli(&argv("sweep --jobs abc")).is_err());
        assert!(parse_cli(&argv("sweep --jobs")).is_err());
    }

    #[test]
    fn fleet_composes_with_common_flags() {
        let (cmd, c) = parse_cli(&argv(
            "fleet --servers 4 --jobs 2 --policy packing --timeline-out /tmp/f.csv",
        ))
        .unwrap();
        let Command::Fleet(f) = cmd else { panic!("expected fleet") };
        assert_eq!(f.servers, 4);
        assert_eq!(f.policy, RoutingPolicy::Packing);
        assert_eq!(c.exec.jobs, Some(2));
        assert_eq!(c.telemetry.timeline_out.as_deref(), Some("/tmp/f.csv"));
    }

    #[test]
    fn robustness_flags_validate() {
        assert!(parse_cli(&argv("sweep --faults wake-fail=2.0")).is_err());
        assert!(parse_cli(&argv("sweep --faults no-such-key=1")).is_err());
        assert!(parse_cli(&argv("sweep --queue-cap 0")).is_err());
        assert!(parse_cli(&argv("sweep --queue-cap abc")).is_err());
        assert!(parse_cli(&argv("sweep --request-timeout -5")).is_err());
        assert!(parse_cli(&argv("sweep --request-timeout")).is_err());
        assert!(parse_cli(&argv("--faults wake-fail=0.1")).is_err()); // needs a subcommand
    }
}
