//! Argument parsing from one flag table.
//!
//! Every flag is one row of [`FLAGS`]: its name, the subcommands that
//! accept it, a setter that parses and validates its value, and where
//! [`usage`] lists it. The parser, the help text and the check that
//! shared flags come with a subcommand all read that table, so they
//! cannot drift apart.

use std::fmt;
use std::str::FromStr;

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
    pub(crate) const DEFAULT_TRACE_LIMIT: usize = 200_000;

    /// `true` if any output was requested, i.e. the run must be
    /// instrumented (traced and/or attributed).
    #[must_use]
    pub(crate) fn is_active(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.attrib_active()
    }

    /// `true` if any attribution output was requested, i.e. the run must
    /// collect request spans and a timeline.
    #[must_use]
    pub(crate) fn attrib_active(&self) -> bool {
        self.slo_p99.is_some() || self.timeline_out.is_some() || self.attrib_out.is_some()
    }

    /// `true` if the idle-opportunity report was requested, i.e. the run
    /// must capture idle intervals.
    #[must_use]
    pub(crate) fn idle_active(&self) -> bool {
        self.idle_out.is_some()
    }

    /// The effective ring-buffer capacity.
    #[must_use]
    pub(crate) fn limit(&self) -> usize {
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
    pub(crate) fn is_active(&self) -> bool {
        self.faults.is_some() || self.queue_cap.is_some() || self.request_timeout_us.is_some()
    }
}

/// The flag set every experiment subcommand shares — telemetry outputs,
/// robustness knobs, and execution options: the `Shared` rows of the
/// flag table, applied in one place ([`CommonArgs::apply`]).
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
    pub(crate) fn is_active(&self) -> bool {
        self.telemetry.is_active() || self.telemetry.idle_active() || self.robustness.is_active()
    }

    /// The parsed `--hw` models, in the order given on the command line.
    #[must_use]
    pub(crate) fn hw_models(&self) -> Vec<&'static HardwareModel> {
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
    pub(crate) fn single_hw(&self) -> Result<&'static HardwareModel, ParseError> {
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

/// Smallest accepted `--qps`: one request per 1e6 s. Near 1e-298
/// requests/s the arrival gaps (1e9/qps ns) overflow and the run panics.
const MIN_QPS: f64 = 1e-6;

/// Smallest accepted `--utilization`, for the same reason per server.
const MIN_UTILIZATION: f64 = 1e-9;

/// Parses a flag value of any [`FromStr`] type.
fn number<T: FromStr>(flag: &str, v: &str) -> Result<T, ParseError> {
    v.parse().map_err(|_| ParseError(format!("bad {flag} value '{v}'")))
}

/// Parses a strictly positive integer flag value.
fn positive_usize(flag: &str, v: &str) -> Result<usize, ParseError> {
    let n: usize = number(flag, v)?;
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
    let x: f64 = number(flag, v)?;
    if x <= 0.0 || !x.is_finite() {
        return Err(ParseError(format!("{flag} must be positive {unit}")));
    }
    Ok(x)
}

/// Parses a finite float flag value of at least `min` (> 0).
fn floored_f64(flag: &str, v: &str, min: f64, unit: &str) -> Result<f64, ParseError> {
    let x = positive_f64(flag, v, unit)?;
    if x < min {
        return Err(ParseError(format!("{flag} must be at least {min:e} {unit}")));
    }
    Ok(x)
}

/// Which subcommands accept a flag: `Shared` rows are taken out first,
/// from anywhere on the line; `Quick` is every simple subcommand but
/// `motivation`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    Shared,
    Quick,
    Motivation,
    Sweep,
    Analyze,
    Fleet,
    Watch,
}

impl Scope {
    /// The error for an argument no row of this scope accepts.
    fn unknown(self, arg: &str) -> ParseError {
        let command = match self {
            Sweep => "sweep",
            Analyze => "analyze",
            Fleet => "fleet",
            Watch => "watch",
            Shared | Quick | Motivation => {
                return ParseError(format!("unexpected argument '{arg}'"))
            }
        };
        ParseError(format!("unknown {command} option '{arg}'"))
    }
}

// The sections of [`usage`] that list flags, each named by its heading.
const QUICK: &str = "OPTIONS (fig/package/diurnal/validate/ablations/cross-vendor/report):";
const HARDWARE: &str = "HARDWARE OPTIONS (any experiment subcommand):";
const EXECUTION: &str = "EXECUTION OPTIONS (any experiment subcommand):";
const SWEEP: &str = "OPTIONS (sweep):";
const ANALYZE: &str = "OPTIONS (analyze):";
const FLEET: &str = "OPTIONS (fleet):";
const WATCH: &str = "OPTIONS (watch):\n    all fleet options, plus:";
const TELEMETRY: &str = "TELEMETRY OPTIONS (any experiment subcommand):";
const ATTRIBUTION: &str = "ATTRIBUTION OPTIONS (any experiment subcommand):";
const ROBUSTNESS: &str = "ROBUSTNESS OPTIONS (any experiment subcommand):";

/// The sections in print order.
const SECTIONS: [&str; 10] =
    [QUICK, HARDWARE, EXECUTION, SWEEP, ANALYZE, FLEET, WATCH, TELEMETRY, ATTRIBUTION, ROBUSTNESS];

/// One line [`usage`] lists a flag on: the section's heading, the line's
/// position in it, the value metavar (empty for a switch) and the help
/// lines.
type Listing = (&'static str, u8, &'static str, &'static [&'static str]);

/// How a flag stores what it was given.
#[derive(Clone, Copy)]
enum Set {
    /// A switch: it takes no value.
    Switch(fn(&mut Parsed)),
    /// An output path, stored as given.
    Path(fn(&mut Parsed) -> &mut Option<String>),
    /// One value, parsed and validated under the flag's name.
    Value(fn(&mut Parsed, &'static str, &str) -> Result<(), ParseError>),
}

/// One row of the flag table.
struct Flag {
    name: &'static str,
    scope: &'static [Scope],
    /// Where [`usage`] lists the flag: once, or under each subcommand
    /// that takes it.
    help: &'static [Listing],
    set: Set,
}

use Scope::{Analyze, Fleet, Motivation, Quick, Shared, Sweep, Watch};
use Set::{Path, Switch, Value};

/// The flag table, in the order of each row's first listing in
/// [`usage`]. The need-a-subcommand error names the `Shared` rows in
/// this order.
#[rustfmt::skip]
static FLAGS: &[Flag] = &[
    // The simple subcommands' switches store nothing: `Parsed::switch`
    // reports whether the one argument was given.
    Flag { name: "--quick", scope: &[Quick], set: Switch(|_| ()),
        help: &[(QUICK, 0, "", &["reduced parameter set (seconds, not minutes)"])] },
    Flag { name: "--simulated", scope: &[Motivation], set: Switch(|_| ()), help: &[] },
    Flag { name: "--hw", scope: &[Shared], set: Value(set_hw),
        help: &[(HARDWARE, 0, "<NAME[,NAME...]>", &[
        "hardware model to simulate (default: skylake-sp;",
        "see `analyze`/`fig` etc.). A comma list builds a",
        "mixed fleet (fleet/watch, servers cycle through",
        "the list) or restricts the cross-vendor grid;",
        "other subcommands take exactly one model. An",
        "unknown name errors, listing the known models.",
        "Tables 2-4, flows, and motivation describe the",
        "modeled Skylake-SP part and reject other models"])] },
    Flag { name: "--jobs", scope: &[Shared], help: &[(EXECUTION, 0, "<N>", &[
        "worker threads for sweep execution (default:",
        "the AW_JOBS environment variable, then the",
        "machine's available parallelism); reports are",
        "byte-identical at any worker count"])],
        set: Value(|p, f, v| positive_usize(f, v).map(|n| p.common.exec.jobs = Some(n))) },
    Flag { name: "--progress", scope: &[Shared], help: &[(EXECUTION, 1, "", &[
        "report sweep progress (done/total, points/s,",
        "ETA) on stderr; auto-enabled when stderr is a",
        "terminal, off when piped"])],
        set: Switch(|p| p.common.exec.progress = true) },
    Flag { name: "--no-idle-skip", scope: &[Shared], help: &[(EXECUTION, 2, "", &[
        "disable the analytic idle-skip fast path and",
        "step every event through the event queue;",
        "output is byte-identical either way (debug /",
        "equivalence-checking knob)"])],
        set: Switch(|p| p.common.exec.no_idle_skip = true) },
    Flag { name: "--workload", scope: &[Sweep, Analyze], help: &[
        (SWEEP, 0, concat!("<memcached|kafka-low|kafka-high|mysql-low|mysql-mid|mysql-high|\n",
            "                websearch-25|websearch-50>"), &[]),
        (ANALYZE, 0, "<W>", &["as for sweep (default memcached)"])],
        set: Value(|p, _, v| Ok((p.sweep.workload, p.analyze.workload) = (v.into(), v.into()))) },
    Flag { name: "--qps", scope: &[Sweep, Analyze], help: &[
        (SWEEP, 1, "<N>", &["offered load (memcached only; default 300000)"]),
        (ANALYZE, 1, "<N>", &["offered load (memcached only; default 300000)"])],
        set: Value(|p, f, v| floored_f64(f, v, MIN_QPS, "requests/s")
            .map(|q| (p.sweep.qps, p.analyze.qps, p.qps_given) = (q, q, true))) },
    Flag { name: "--config", scope: &[Sweep, Fleet, Watch], help: &[
        (SWEEP, 2, "<NAME>", &[
            "Baseline | NT_Baseline | NT_No_C6 | NT_No_C6,No_C1E |",
            "T_No_C6 | T_No_C6,No_C1E | AW | NT_AW |",
            "T_C6A,No_C6,No_C1E | NT_C6A,No_C6,No_C1E"]),
        (FLEET, 3, "<NAME>", &["C-state menu, as for sweep (default AW)"])],
        set: Value(|p, _, v| named_config(v).map(|c| (p.sweep.config, p.fleet.config) = (c, c))) },
    Flag { name: "--cores", scope: &[Sweep, Analyze, Fleet, Watch], help: &[
        (SWEEP, 3, "<N>", &["core count (default 10)"]),
        (ANALYZE, 2, "<N>", &["core count (default 10)"]),
        (FLEET, 1, "<N>", &["cores per server (default 4)"])],
        set: Value(|p, f, v| bounded_usize(f, v, MAX_CORES)
            .map(|n| (p.sweep.cores, p.analyze.cores, p.fleet.cores) = (n, n, n))) },
    Flag { name: "--duration-ms", scope: &[Sweep, Analyze], help: &[
        (SWEEP, 4, "<N>", &["simulated milliseconds (default 400)"]),
        (ANALYZE, 3, "<N>", &["simulated milliseconds (default 200)"])],
        set: Value(|p, f, v| positive_f64(f, v, "milliseconds")
            .map(|ms| (p.sweep.duration_ms, p.analyze.duration_ms) = (ms, ms))) },
    Flag { name: "--seed", scope: &[Sweep, Analyze, Fleet, Watch], help: &[
        (SWEEP, 5, "<N>", &["RNG seed (default 42)"]),
        (ANALYZE, 4, "<N>", &[
            "RNG seed (default 42; both configs share it)",
            "(no --config: analyze always contrasts",
            "Baseline against AW under identical load;",
            "--idle-out writes the AW report to disk)"]),
        (FLEET, 9, "<N>", &["fleet master seed (default 42)"])],
        set: Value(|p, f, v| number(f, v)
            .map(|s| (p.sweep.seed, p.analyze.seed, p.fleet.seed) = (s, s, s))) },
    Flag { name: "--servers", scope: &[Fleet, Watch],
        help: &[(FLEET, 0, "<N>", &["fleet size (default 8)"])],
        set: Value(|p, f, v| bounded_usize(f, v, MAX_SERVERS).map(|n| p.fleet.servers = n)) },
    Flag { name: "--policy", scope: &[Fleet, Watch], help: &[(FLEET, 2, "<P>", &[
        "round-robin | least-outstanding | packing |",
        "spreading (default packing)"])],
        set: Value(|p, _, v| v.parse().map(|policy| p.fleet.policy = policy).map_err(ParseError)) },
    Flag { name: "--utilization", scope: &[Fleet, Watch], help: &[(FLEET, 4, "<F>", &[
        "aggregate load as a fraction of fleet",
        "capacity (default 0.25)"])],
        set: Value(|p, f, v| floored_f64(f, v, MIN_UTILIZATION, "(fraction of fleet capacity)")
            .map(|u| p.fleet.utilization = u)) },
    Flag { name: "--epochs", scope: &[Fleet, Watch],
        help: &[(FLEET, 5, "<N>", &["balancer decision periods (default 6)"])],
        set: Value(|p, f, v| positive_usize(f, v).map(|n| p.fleet.epochs = n)) },
    Flag { name: "--epoch-ms", scope: &[Fleet, Watch],
        help: &[(FLEET, 6, "<N>", &["epoch duration in milliseconds (default 25)"])],
        set: Value(|p, f, v| positive_f64(f, v, "milliseconds").map(|ms| p.fleet.epoch_ms = ms)) },
    Flag { name: "--autoscale", scope: &[Fleet, Watch], help: &[(FLEET, 7, "", &[
        "park idle servers (modeled park/unpark",
        "latency and boot energy)"])],
        set: Switch(|p| p.fleet.autoscale = true) },
    Flag { name: "--diurnal", scope: &[Fleet, Watch],
        help: &[(FLEET, 8, "<A>", &["sinusoidal load swing of amplitude A in [0,1)"])],
        set: Value(|p, f, v| match number(f, v)? {
            amp if (0.0..1.0).contains(&amp) => {
                p.fleet.diurnal = Some(amp);
                Ok(())
            }
            _ => Err(ParseError(format!("{f} amplitude must be in [0, 1)"))),
        }) },
    Flag { name: "--fleet-faults", scope: &[Fleet, Watch], help: &[(FLEET, 10, "<SPEC>", &[
        "inject fleet-level chaos; SPEC is comma-",
        "separated key=value pairs, e.g.",
        "crash=0.02,down-epochs=3,unpark-fail=0.1",
        "(keys: seed, crash, crash-at, down-epochs,",
        "unpark-fail, degrade, degrade-ns,",
        "degrade-epochs, rack-size, rack-outage,",
        "throttle, throttle-factor, throttle-epochs;",
        "crash-at pins one crash as EPOCH:SERVER)",
        "(--slo-p99 sets the fleet SLO target,",
        "--timeline-out receives the per-epoch fleet",
        "time series, and the robustness flags",
        "--faults / --queue-cap / --request-timeout",
        "apply to every simulated server-epoch)"])],
        set: Value(|p, _, v| FleetFaultSpec::parse(v).map(|spec| p.fleet.fleet_faults = Some(spec))
            .map_err(|e| ParseError(e.to_string()))) },
    Flag { name: "--headless", scope: &[Watch], help: &[(WATCH, 0, "", &[
        "print plain-text frames to stdout instead of",
        "taking over the terminal (deterministic; for",
        "scripts and tests)"])],
        set: Switch(|p| p.watch.headless = true) },
    Flag { name: "--frames", scope: &[Watch], help: &[(WATCH, 1, "<N>", &[
        "emit at most N headless frames (default: one",
        "per epoch)",
        "interactive keys: 1-5 or Tab switch tabs,",
        "q / Esc / Ctrl-C quit"])],
        set: Value(|p, f, v| positive_usize(f, v).map(|n| p.watch.frames = Some(n))) },
    Flag { name: "--trace-out", scope: &[Shared], help: &[(TELEMETRY, 0, "<FILE>", &[
        "write a Chrome trace-event JSON file (open in",
        "chrome://tracing or Perfetto; one track per core)"])],
        set: Path(|p| &mut p.common.telemetry.trace_out) },
    Flag { name: "--metrics-out", scope: &[Shared], help: &[(TELEMETRY, 1, "<FILE>", &[
        "write a metrics-registry JSON file (counters,",
        "gauges, histograms, governor mispredict rate)"])],
        set: Path(|p| &mut p.common.telemetry.metrics_out) },
    Flag { name: "--trace-limit", scope: &[Shared], help: &[(TELEMETRY, 2, "<N>", &[
        "trace ring-buffer capacity (default 200000;",
        "oldest events are dropped first)"])],
        set: Value(|p, f, v| positive_usize(f, v)
            .map(|n| p.common.telemetry.trace_limit = Some(n))) },
    Flag { name: "--slo-p99", scope: &[Shared], help: &[(ATTRIBUTION, 0, "<NS>", &[
        "per-window p99 latency SLO target in ns; prints",
        "the burn rate (fraction of windows violated)"])],
        set: Value(|p, f, v| positive_f64(f, v, "nanoseconds")
            .map(|ns| p.common.telemetry.slo_p99 = Some(ns))) },
    Flag { name: "--timeline-out", scope: &[Shared], help: &[(ATTRIBUTION, 1, "<FILE>", &[
        "write the windowed time series (throughput,",
        "per-phase latency, p50/p99/p99.9, power,",
        "residency); .json suffix = JSON, else CSV"])],
        set: Path(|p| &mut p.common.telemetry.timeline_out) },
    Flag { name: "--attrib-out", scope: &[Shared], help: &[(ATTRIBUTION, 2, "<FILE>", &[
        "write the per-phase latency attribution as",
        "folded stacks (flamegraph.pl / speedscope)"])],
        set: Path(|p| &mut p.common.telemetry.attrib_out) },
    Flag { name: "--idle-out", scope: &[Shared], help: &[(ATTRIBUTION, 3, "<FILE>", &[
        "capture per-core idle intervals and write the",
        "idle-opportunity report (distributions,",
        "governor audit, energy ledger); .json suffix",
        "= JSON, .folded = folded stacks, else CSV"])],
        set: Path(|p| &mut p.common.telemetry.idle_out) },
    Flag { name: "--faults", scope: &[Shared], help: &[(ROBUSTNESS, 0, "<SPEC>", &[
        "inject deterministic faults; SPEC is comma-",
        "separated key=value pairs, e.g.",
        "seed=7,wake-fail=0.1,relock=0.05,lost-wake=0.02",
        "(keys: seed, wake-fail, wake-retries, relock,",
        "relock-ns, drowsy, lost-wake, lost-ns,",
        "spurious, storm, storm-size, slowdown,",
        "slow-factor, slow-ms; rates in events/s,",
        "probabilities in [0,1])"])],
        set: Value(|p, f, v| FaultSpec::parse(v).map(|spec| p.common.robustness.faults = Some(spec))
            .map_err(|e| ParseError(format!("bad {f} spec: {e}")))) },
    Flag { name: "--queue-cap", scope: &[Shared], help: &[(ROBUSTNESS, 1, "<N>", &[
        "bound each core's run queue at N requests;",
        "excess arrivals are shed and retried by the",
        "client with jittered exponential backoff"])],
        set: Value(|p, f, v| positive_usize(f, v)
            .map(|n| p.common.robustness.queue_cap = Some(n))) },
    Flag { name: "--request-timeout", scope: &[Shared], help: &[(ROBUSTNESS, 2, "<US>", &[
        "drop queued requests older than US microseconds",
        "at dispatch; dropped work is retried"])],
        set: Value(|p, f, v| positive_f64(f, v, "microseconds")
            .map(|us| p.common.robustness.request_timeout_us = Some(us))) },
];

/// `--hw`: a comma list of registered model names, each validated.
fn set_hw(p: &mut Parsed, _: &'static str, v: &str) -> Result<(), ParseError> {
    for name in v.split(',') {
        let hw = HardwareModel::by_name(name.trim()).map_err(|e| ParseError(e.to_string()))?;
        p.common.hw.push(hw.name.to_string());
    }
    Ok(())
}

/// The row for `arg` among the flags `scope` accepts.
fn flag(arg: &str, scope: Scope) -> Option<&'static Flag> {
    FLAGS.iter().find(|f| f.name == arg && f.scope.contains(&scope))
}

/// What the flags of one command line set: the shared flags and every
/// subcommand's options. The parsed subcommand keeps only its own part.
#[derive(Default)]
struct Parsed {
    common: CommonArgs,
    sweep: SweepArgs,
    analyze: AnalyzeArgs,
    fleet: FleetArgs,
    /// The `watch`-only options; its `fleet` part is `Parsed::fleet`.
    watch: WatchArgs,
    /// Whether the line gave `--qps`, which only memcached takes.
    qps_given: bool,
}

impl Parsed {
    /// Applies one flag, taking its value (if it has one) from `it`.
    fn apply(
        &mut self,
        flag: &Flag,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<(), ParseError> {
        let mut value =
            || it.next().ok_or_else(|| ParseError(format!("{} needs a value", flag.name)));
        match flag.set {
            Switch(set) => set(self),
            Path(slot) => *slot(self) = Some(value()?.clone()),
            Value(set) => set(self, flag.name, value()?)?,
        }
        Ok(())
    }

    /// Refuses `--qps` for a known workload other than memcached: the
    /// others run at their own fixed rates, so the value would be
    /// ignored. An unknown name fails when it runs, as without `--qps`.
    fn check_qps(&self, workload: &str) -> Result<(), ParseError> {
        let fixed_rate =
            workload != "memcached" && crate::run::workload_by_name(workload, 1.0, 1).is_ok();
        if self.qps_given && fixed_rate {
            return Err(ParseError(format!(
                "--qps only applies to the memcached workload, not '{workload}'"
            )));
        }
        Ok(())
    }

    /// The one loop every subcommand's flags go through.
    fn flags(&mut self, scope: Scope, args: &[String]) -> Result<(), ParseError> {
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            self.apply(flag(arg, scope).ok_or_else(|| scope.unknown(arg))?, &mut it)?;
        }
        Ok(())
    }

    /// Parses the at most one switch of a simple subcommand; `true` when
    /// it was given. Anything else is an error naming the first argument.
    fn switch(&mut self, scope: Scope, args: &[String]) -> Result<bool, ParseError> {
        if args.len() > 1 {
            return Err(scope.unknown(&args[0]));
        }
        self.flags(scope, args)?;
        Ok(!args.is_empty())
    }

    /// Parses a subcommand and its flags (the shared flags already taken
    /// out).
    fn command(mut self, args: &[String]) -> Result<(Command, CommonArgs), ParseError> {
        let Some((cmd, rest)) = args.split_first() else {
            return Ok((Command::Help, self.common));
        };
        let command = match cmd.as_str() {
            "help" | "--help" | "-h" => Command::Help,
            "table" => {
                let [n] = rest else {
                    return Err(ParseError("usage: table <1|2|3|4|5>".into()));
                };
                let n: u8 = n.parse().map_err(|_| ParseError(format!("bad table number '{n}'")))?;
                if !(1..=5).contains(&n) {
                    return Err(ParseError(format!("no table {n} in the paper (1–5)")));
                }
                Command::Table(n)
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
                Command::Fig { number, quick: self.switch(Quick, flags)? }
            }
            "flows" => self.switch(Quick, rest).map(|_| Command::Flows)?,
            "motivation" => Command::Motivation { simulated: self.switch(Motivation, rest)? },
            "package" => Command::Package { quick: self.switch(Quick, rest)? },
            "diurnal" => Command::Diurnal { quick: self.switch(Quick, rest)? },
            "snoop" => self.switch(Quick, rest).map(|_| Command::Snoop)?,
            "validate" => Command::Validate { quick: self.switch(Quick, rest)? },
            "ablations" => Command::Ablations { quick: self.switch(Quick, rest)? },
            "cross-vendor" => Command::CrossVendor { quick: self.switch(Quick, rest)? },
            "report" => Command::Report { quick: self.switch(Quick, rest)? },
            "sweep" => {
                self.flags(Sweep, rest)?;
                self.check_qps(&self.sweep.workload)?;
                Command::Sweep(self.sweep)
            }
            "analyze" => {
                self.flags(Analyze, rest)?;
                self.check_qps(&self.analyze.workload)?;
                Command::Analyze(self.analyze)
            }
            "fleet" => self.flags(Fleet, rest).map(|()| Command::Fleet(self.fleet))?,
            "watch" => {
                self.flags(Watch, rest)?;
                if self.watch.frames.is_some() && !self.watch.headless {
                    return Err(ParseError("--frames only applies to --headless".into()));
                }
                Command::Watch(WatchArgs { fleet: self.fleet, ..self.watch })
            }
            other => return Err(ParseError(format!("unknown command '{other}' (try 'help')"))),
        };
        Ok((command, self.common))
    }
}

/// Parses an argument vector (without the program name). The shared
/// flags (see [`CommonArgs`]) are taken out first, from anywhere on the
/// line; the rest is the subcommand and its own flags. A run whose
/// estimated work is beyond the limits is refused here, before anything
/// is simulated or allocated.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first invalid argument, a
/// shared flag given without a subcommand, or a refused run.
pub fn parse_cli(args: &[String]) -> Result<(Command, CommonArgs), ParseError> {
    let mut parsed = Parsed::default();
    let mut rest = Vec::with_capacity(args.len());
    let mut shared = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match flag(arg, Shared) {
            Some(row) => {
                parsed.apply(row, &mut it)?;
                shared = true;
            }
            None => rest.push(arg.clone()),
        }
    }
    let (command, common) = parsed.command(&rest)?;
    if shared && command == Command::Help {
        let names: Vec<_> = FLAGS.iter().filter(|f| f.scope == [Shared]).map(|f| f.name).collect();
        return Err(ParseError(format!("{} need an experiment subcommand", names.join("/"))));
    }
    crate::run::check_work(&command, &common)?;
    Ok((command, common))
}

/// Parses an argument vector (without the program name) that carries no
/// shared flags.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first invalid argument.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    Parsed::default().command(args).map(|(command, _)| command)
}

/// The part of [`usage`] above the flag sections.
const COMMANDS: &str = "\
agilewatts — reproduce the AgileWatts (MICRO 2022) evaluation

USAGE:
    agilewatts <COMMAND> [OPTIONS]

COMMANDS:
    table <1|2|3|4|5>      regenerate one of the paper's tables
    fig <8|9|10|11|12|13>  regenerate one of the paper's figures
    flows                  transition-latency budget (Figs. 3/6, Sec. 5.2)
    motivation             the Sec. 2 Eq. 1 savings bounds
                           (--simulated derives the profiles in the DES)
    package                the package-C-state (uncore) analysis
    diurnal                AW savings under a day/night load swing
    snoop                  the Sec. 7.5 snoop-impact bounds
    validate               the Sec. 6.3 power-model validation
    ablations              the design-choice ablation suite
    sweep [OPTIONS]        one custom simulation run
    analyze [OPTIONS]      idle-opportunity report: Baseline vs AW on one
                           workload (idle-period distributions, governor
                           audit, achievable-vs-achieved energy)
    fleet [OPTIONS]        N servers behind a load balancer
    watch [OPTIONS]        live fleet cockpit (streaming terminal UI)
    cross-vendor           the Fig. 8 sweep on every hardware model
    report                 every artifact in one run
    help                   print this message
";

/// The CLI usage text: the command list, then every section of the flag
/// table.
#[must_use]
pub fn usage() -> String {
    let mut out = COMMANDS.to_string();
    for section in SECTIONS {
        out += &format!("\n{section}\n");
        let mut listed: Vec<_> = FLAGS
            .iter()
            .flat_map(|f| f.help.iter().filter(|l| l.0 == section).map(move |l| (f.name, l)))
            .collect();
        listed.sort_by_key(|(_, l)| l.1);
        for (name, &(_, _, metavar, lines)) in listed {
            let synopsis =
                if metavar.is_empty() { name.to_string() } else { format!("{name} {metavar}") };
            match lines.split_first() {
                None => out += &format!("    {synopsis}\n"),
                Some((first, more)) => {
                    out += &format!("    {synopsis:<22} {first}\n");
                    for line in more {
                        out += &format!("{:27}{line}\n", "");
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// The exact message `parse_cli` rejects `s` with.
    fn err(s: &str) -> String {
        parse_cli(&argv(s)).expect_err(s).0
    }

    /// Asserts each command line is rejected with exactly its message.
    fn assert_errors(cases: &[(&str, &str)]) {
        for &(cmd, msg) in cases {
            assert_eq!(err(cmd), msg, "`{cmd}`");
        }
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
        assert_errors(&[
            ("table 7", "no table 7 in the paper (1–5)"),
            ("table", "usage: table <1|2|3|4|5>"),
            ("table 1 2", "usage: table <1|2|3|4|5>"),
            ("table x", "bad table number 'x'"),
        ]);
    }

    #[test]
    fn figs_parse_with_quick() {
        assert_eq!(parse(&argv("fig 8")).unwrap(), Command::Fig { number: 8, quick: false });
        assert_eq!(
            parse(&argv("fig 12 --quick")).unwrap(),
            Command::Fig { number: 12, quick: true }
        );
        assert_errors(&[
            ("fig 7", "no figure 7 experiment (8–13)"),
            ("fig", "usage: fig <8|9|10|11|12|13> [--quick]"),
            ("fig x", "bad figure number 'x'"),
            ("fig 8 --fast", "unexpected argument '--fast'"),
            ("fig 8 --quick --quick", "unexpected argument '--quick'"),
        ]);
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
        // A simple subcommand takes at most its one switch; the error
        // names the first argument.
        assert_errors(&[
            ("package --quick --quick", "unexpected argument '--quick'"),
            ("package --fast", "unexpected argument '--fast'"),
            ("motivation --quick", "unexpected argument '--quick'"),
            ("motivation --simulated --simulated", "unexpected argument '--simulated'"),
            ("flows --x", "unexpected argument '--x'"),
            ("snoop --simulated", "unexpected argument '--simulated'"),
            ("report --quick x", "unexpected argument '--quick'"),
        ]);
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
            "sweep --workload memcached --qps 50000 --config NT_No_C6 --cores 4 --duration-ms 80 --seed 7",
        ))
        .unwrap();
        let Command::Sweep(s) = cmd else { panic!("expected sweep") };
        assert_eq!(s.workload, "memcached");
        assert_eq!(s.qps, 50_000.0);
        assert_eq!(s.config, NamedConfig::NtNoC6);
        assert_eq!(s.cores, 4);
        assert_eq!(s.duration_ms, 80.0);
        assert_eq!(s.seed, 7);
    }

    #[test]
    fn qps_is_refused_for_every_workload_but_memcached() {
        for command in ["sweep", "analyze"] {
            for workload in ["kafka-low", "mysql-mid", "websearch-50"] {
                let msg = format!("--qps only applies to the memcached workload, not '{workload}'");
                for line in [
                    format!("{command} --workload {workload} --qps 1000"),
                    format!("{command} --qps 1000 --workload {workload}"),
                ] {
                    assert_eq!(err(&line), msg, "`{line}`");
                }
                // Without --qps the workload runs at its own rate.
                let line = format!("{command} --workload {workload}");
                let workload_of = |c| match c {
                    Command::Sweep(s) => s.workload,
                    Command::Analyze(a) => a.workload,
                    other => panic!("`{line}` parsed as {other:?}"),
                };
                assert_eq!(workload_of(parse(&argv(&line)).unwrap()), workload);
            }
            parse_cli(&argv(&format!("{command} --qps 1000 --workload memcached"))).unwrap();
        }
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
        assert_errors(&[
            ("sweep --workload", "--workload needs a value"),
            ("sweep --qps", "--qps needs a value"),
            ("sweep --qps abc", "bad --qps value 'abc'"),
            ("sweep --qps 0", "--qps must be positive requests/s"),
            ("sweep --qps -5", "--qps must be positive requests/s"),
            ("sweep --qps inf", "--qps must be positive requests/s"),
            ("sweep --config", "--config needs a value"),
            ("sweep --config NoSuch", "unknown config 'NoSuch'"),
            ("sweep --cores", "--cores needs a value"),
            ("sweep --cores abc", "bad --cores value 'abc'"),
            ("sweep --cores 0", "--cores must be positive"),
            ("sweep --duration-ms", "--duration-ms needs a value"),
            ("sweep --duration-ms abc", "bad --duration-ms value 'abc'"),
            ("sweep --duration-ms 0", "--duration-ms must be positive milliseconds"),
            ("sweep --seed", "--seed needs a value"),
            ("sweep --seed abc", "bad --seed value 'abc'"),
            ("sweep --seed -1", "bad --seed value '-1'"),
            ("sweep --frobnicate 3", "unknown sweep option '--frobnicate'"),
            ("sweep --quick", "unknown sweep option '--quick'"),
            ("sweep --servers 4", "unknown sweep option '--servers'"),
        ]);
    }

    #[test]
    fn analyze_defaults_and_options() {
        let Command::Analyze(a) = parse(&argv("analyze")).unwrap() else {
            panic!("expected analyze");
        };
        assert_eq!(a, AnalyzeArgs::default());

        let cmd = parse(&argv(
            "analyze --workload memcached --qps 50000 --cores 4 --duration-ms 80 --seed 7",
        ))
        .unwrap();
        let Command::Analyze(a) = cmd else { panic!("expected analyze") };
        assert_eq!(a.workload, "memcached");
        assert_eq!(a.qps, 50_000.0);
        assert_eq!(a.cores, 4);
        assert_eq!(a.duration_ms, 80.0);
        assert_eq!(a.seed, 7);
    }

    #[test]
    fn analyze_rejects_config_and_bad_values() {
        // analyze always compares Baseline vs AW; --config is not a flag.
        assert_errors(&[
            ("analyze --config AW", "unknown analyze option '--config'"),
            ("analyze --frobnicate", "unknown analyze option '--frobnicate'"),
            ("analyze --workload", "--workload needs a value"),
            ("analyze --qps", "--qps needs a value"),
            ("analyze --qps abc", "bad --qps value 'abc'"),
            ("analyze --qps 0", "--qps must be positive requests/s"),
            ("analyze --cores", "--cores needs a value"),
            ("analyze --cores 0", "--cores must be positive"),
            ("analyze --duration-ms", "--duration-ms needs a value"),
            ("analyze --duration-ms -1", "--duration-ms must be positive milliseconds"),
            ("analyze --seed", "--seed needs a value"),
            ("analyze --seed x", "bad --seed value 'x'"),
        ]);
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
        assert_eq!(err("sweep --idle-out"), "--idle-out needs a value");
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
        assert_errors(&[
            ("fleet --servers", "--servers needs a value"),
            ("fleet --servers abc", "bad --servers value 'abc'"),
            ("fleet --servers 0", "--servers must be positive"),
            ("fleet --cores", "--cores needs a value"),
            ("fleet --cores 0", "--cores must be positive"),
            ("fleet --policy", "--policy needs a value"),
            (
                "fleet --policy weighted",
                "unknown policy 'weighted' (expected one of: round-robin, least-outstanding, \
                 packing, spreading)",
            ),
            ("fleet --config", "--config needs a value"),
            ("fleet --config NoSuch", "unknown config 'NoSuch'"),
            ("fleet --utilization", "--utilization needs a value"),
            ("fleet --utilization abc", "bad --utilization value 'abc'"),
            (
                "fleet --utilization -0.2",
                "--utilization must be positive (fraction of fleet capacity)",
            ),
            ("fleet --epochs", "--epochs needs a value"),
            ("fleet --epochs abc", "bad --epochs value 'abc'"),
            ("fleet --epochs 0", "--epochs must be positive"),
            ("fleet --epoch-ms", "--epoch-ms needs a value"),
            ("fleet --epoch-ms abc", "bad --epoch-ms value 'abc'"),
            ("fleet --epoch-ms 0", "--epoch-ms must be positive milliseconds"),
            ("fleet --diurnal", "--diurnal needs a value"),
            ("fleet --diurnal abc", "bad --diurnal value 'abc'"),
            ("fleet --diurnal 1.5", "--diurnal amplitude must be in [0, 1)"),
            ("fleet --diurnal -0.1", "--diurnal amplitude must be in [0, 1)"),
            ("fleet --seed", "--seed needs a value"),
            ("fleet --seed abc", "bad --seed value 'abc'"),
            ("fleet --frobnicate 3", "unknown fleet option '--frobnicate'"),
            ("fleet --headless", "unknown fleet option '--headless'"),
            ("fleet --frames 2", "unknown fleet option '--frames'"),
        ]);
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

        assert_errors(&[
            ("fleet --fleet-faults", "--fleet-faults needs a value"),
            ("fleet --fleet-faults crash=2.0", "crash must be a probability in [0, 1], got 2.0"),
            ("fleet --fleet-faults no-such-key=1", "unknown fleet fault key 'no-such-key'"),
        ]);
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
        assert_errors(&[
            ("watch --frames", "--frames needs a value"),
            ("watch --frames abc", "bad --frames value 'abc'"),
            ("watch --frames 0 --headless", "--frames must be positive"),
            ("watch --frames 3", "--frames only applies to --headless"),
            ("watch --servers 0", "--servers must be positive"),
            ("watch --epochs", "--epochs needs a value"),
            ("watch --quick", "unknown watch option '--quick'"),
        ]);
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
        assert_eq!(
            c.single_hw().unwrap_err().0,
            "--hw named 2 models; only fleet, watch, and cross-vendor accept a list"
        );

        // No flag = the default Skylake-SP part.
        let (_, c) = parse_cli(&argv("fig 8 --quick")).unwrap();
        assert!(c.hw.is_empty());
        assert_eq!(c.single_hw().unwrap().name, "skylake-sp");
    }

    #[test]
    fn unknown_hw_error_lists_known_models() {
        assert_errors(&[
            (
                "fig 8 --hw epyc-9999",
                "unknown hardware model `epyc-9999`; known models: skylake-sp, zen2",
            ),
            (
                "fleet --hw skylake-sp,nope",
                "unknown hardware model `nope`; known models: skylake-sp, zen2",
            ),
            ("sweep --hw", "--hw needs a value"),
        ]);
    }

    #[test]
    fn cross_vendor_parses() {
        assert_eq!(
            parse(&argv("cross-vendor --quick")).unwrap(),
            Command::CrossVendor { quick: true }
        );
        assert_eq!(parse(&argv("cross-vendor")).unwrap(), Command::CrossVendor { quick: false });
        assert_eq!(err("cross-vendor --fast"), "unexpected argument '--fast'");
    }

    #[test]
    fn unknown_command_suggests_help() {
        assert_eq!(err("fgi 8"), "unknown command 'fgi' (try 'help')");
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
        assert_errors(&[
            ("sweep --trace-limit", "--trace-limit needs a value"),
            ("sweep --trace-limit 0", "--trace-limit must be positive"),
            ("sweep --trace-limit abc", "bad --trace-limit value 'abc'"),
            ("sweep --trace-out", "--trace-out needs a value"),
            ("sweep --metrics-out", "--metrics-out needs a value"),
            ("sweep --timeline-out", "--timeline-out needs a value"),
            ("sweep --attrib-out", "--attrib-out needs a value"),
        ]);
    }

    #[test]
    fn no_telemetry_flags_is_inactive() {
        let (cmd, c) = parse_cli(&argv("table 1")).unwrap();
        assert_eq!(cmd, Command::Table(1));
        assert!(!c.is_active());
    }

    #[test]
    fn telemetry_without_subcommand_is_an_error() {
        // Every shared flag, in table order.
        let need = "--hw/--jobs/--progress/--no-idle-skip/--trace-out/--metrics-out/--trace-limit/\
                    --slo-p99/--timeline-out/--attrib-out/--idle-out/--faults/--queue-cap/\
                    --request-timeout need an experiment subcommand";
        for cmd in [
            "--trace-out /tmp/t.json",
            "--slo-p99 500000",
            "--idle-out /tmp/i.csv",
            "--hw zen2",
            "--faults wake-fail=0.1",
            "--jobs 4",
            "--trace-limit 5",
            "--progress",
            "--no-idle-skip",
            "help --progress",
        ] {
            assert_eq!(err(cmd), need, "`{cmd}`");
        }
        // A shared flag's own error comes first.
        assert_eq!(err("--faults x"), "bad --faults spec: expected key=value, got 'x'");
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
        assert_errors(&[
            ("sweep --slo-p99 0", "--slo-p99 must be positive nanoseconds"),
            ("sweep --slo-p99 -3", "--slo-p99 must be positive nanoseconds"),
            ("sweep --slo-p99 nan", "--slo-p99 must be positive nanoseconds"),
            ("sweep --slo-p99 abc", "bad --slo-p99 value 'abc'"),
            ("sweep --slo-p99", "--slo-p99 needs a value"),
        ]);
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
        assert_errors(&[
            ("sweep --jobs 0", "--jobs must be positive"),
            ("sweep --jobs abc", "bad --jobs value 'abc'"),
            ("sweep --jobs -1", "bad --jobs value '-1'"),
            ("sweep --jobs", "--jobs needs a value"),
        ]);
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
        assert_errors(&[
            ("sweep --faults", "--faults needs a value"),
            ("sweep --faults bad", "bad --faults spec: expected key=value, got 'bad'"),
            (
                "sweep --faults wake-fail=2.0",
                "bad --faults spec: wake-fail must be a probability in [0, 1], got 2.0",
            ),
            ("sweep --faults no-such-key=1", "bad --faults spec: unknown fault key 'no-such-key'"),
            ("sweep --queue-cap", "--queue-cap needs a value"),
            ("sweep --queue-cap 0", "--queue-cap must be positive"),
            ("sweep --queue-cap abc", "bad --queue-cap value 'abc'"),
            ("sweep --request-timeout abc", "bad --request-timeout value 'abc'"),
            ("sweep --request-timeout -5", "--request-timeout must be positive microseconds"),
            ("sweep --request-timeout inf", "--request-timeout must be positive microseconds"),
            ("sweep --request-timeout", "--request-timeout needs a value"),
        ]);
    }

    /// Found by fuzzing: offered loads so small that the arrival gaps
    /// overflow used to panic (`exponential mean must be positive`, or a
    /// non-finite event time) while parsing or running; they are usage
    /// errors now, and the floors themselves are accepted.
    #[test]
    fn vanishing_load_is_a_usage_error() {
        assert_errors(&[
            ("sweep --qps 1e-300", "--qps must be at least 1e-6 requests/s"),
            ("analyze --qps 5e-324", "--qps must be at least 1e-6 requests/s"),
            (
                "fleet --utilization 5e-324",
                "--utilization must be at least 1e-9 (fraction of fleet capacity)",
            ),
        ]);
        parse_cli(&argv("sweep --qps 0.000001")).unwrap();
        parse_cli(&argv("watch --utilization 0.000000001")).unwrap();
    }

    /// The `(keys: ...;` list in the usage text of `--faults` and
    /// `--fleet-faults` is exactly each grammar's key table, in order.
    #[test]
    fn fault_flag_usage_lists_every_key_in_table_order() {
        for (name, keys) in
            [("--faults", FaultSpec::KEYS), ("--fleet-faults", FleetFaultSpec::KEYS)]
        {
            let flag = FLAGS.iter().find(|f| f.name == name).expect(name);
            let text = flag.help[0].3.join(" ");
            let listed = text
                .split_once("(keys: ")
                .and_then(|(_, rest)| rest.split_once(';'))
                .map(|(list, _)| list.split(", ").collect::<Vec<_>>())
                .expect(name);
            assert_eq!(listed, keys, "{name}");
        }
    }

    /// Every token the argv fuzz draws from: each subcommand and flag,
    /// hostile values (and the empty string), and fault-spec fragments.
    fn fuzz_tokens() -> Vec<&'static str> {
        let commands = "help table fig flows motivation package diurnal snoop validate \
                        ablations sweep analyze fleet watch cross-vendor report";
        let values = "0 1 8 -1 nan inf 1e300 1e-300 5e-324 18446744073709551615 4294967297 AW \
                      zen2 websearch-50 crash=2 seed= =, crash-at=1:0 wake-fail=0.5 \
                      storm=1e300,slowdown=1";
        let words = commands.split_whitespace().chain(values.split_whitespace());
        words.chain(FLAGS.iter().map(|f| f.name)).chain([""]).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        /// No argv makes the parser panic, and every command it accepts
        /// is within the work limits. Nothing is simulated.
        #[test]
        fn argv_fuzz_never_panics_and_bounds_work(
            args in prop::collection::vec(prop::sample::select(fuzz_tokens()), 0..10)
        ) {
            let args: Vec<String> = args.into_iter().map(String::from).collect();
            if let Ok((command, common)) = parse_cli(&args) {
                prop_assert!(crate::run::check_work(&command, &common).is_ok(), "{args:?}");
            }
        }
    }
}
