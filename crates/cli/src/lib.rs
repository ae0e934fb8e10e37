//! # aw-cli — the `agilewatts` command-line tool
//!
//! A thin, dependency-free front end over the [`agilewatts`] experiment
//! API: regenerate any table or figure of the paper, or run a one-off
//! simulation with custom parameters.
//!
//! ```console
//! $ agilewatts table 3
//! $ agilewatts fig 8 --quick
//! $ agilewatts sweep --workload memcached --qps 300000 --config AW
//! $ agilewatts report --quick
//! ```
//!
//! The argument parser is hand-rolled (no external CLI dependency) and
//! lives here so it can be unit-tested; `main.rs` only dispatches.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod args;
mod run;
mod watch;

pub use args::{
    parse, parse_cli, AnalyzeArgs, Command, CommonArgs, ExecArgs, FleetArgs, ParseError,
    RobustnessArgs, SweepArgs, TelemetryArgs, WatchArgs,
};
pub use run::{execute, execute_with};

/// The CLI usage text.
pub const USAGE: &str = "\
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

OPTIONS (fig/package/diurnal/validate/ablations/cross-vendor/report):
    --quick                reduced parameter set (seconds, not minutes)

HARDWARE OPTIONS (any experiment subcommand):
    --hw <NAME[,NAME...]>  hardware model to simulate (default: skylake-sp;
                           see `analyze`/`fig` etc.). A comma list builds a
                           mixed fleet (fleet/watch, servers cycle through
                           the list) or restricts the cross-vendor grid;
                           other subcommands take exactly one model. An
                           unknown name errors, listing the known models.
                           Tables 2-4, flows, and motivation describe the
                           modeled Skylake-SP part and reject other models

EXECUTION OPTIONS (any experiment subcommand):
    --jobs <N>             worker threads for sweep execution (default:
                           the AW_JOBS environment variable, then the
                           machine's available parallelism); reports are
                           byte-identical at any worker count
    --progress             report sweep progress (done/total, points/s,
                           ETA) on stderr; auto-enabled when stderr is a
                           terminal, off when piped
    --no-idle-skip         disable the analytic idle-skip fast path and
                           step every event through the event queue;
                           output is byte-identical either way (debug /
                           equivalence-checking knob)

OPTIONS (sweep):
    --workload <memcached|kafka-low|kafka-high|mysql-low|mysql-mid|mysql-high|
                websearch-25|websearch-50>
    --qps <N>              offered load (memcached only; default 300000)
    --config <NAME>        Baseline | NT_Baseline | NT_No_C6 | NT_No_C6,No_C1E |
                           T_No_C6 | T_No_C6,No_C1E | AW | NT_AW |
                           T_C6A,No_C6,No_C1E | NT_C6A,No_C6,No_C1E
    --cores <N>            core count (default 10)
    --duration-ms <N>      simulated milliseconds (default 400)
    --seed <N>             RNG seed (default 42)

OPTIONS (analyze):
    --workload <W>         as for sweep (default memcached)
    --qps <N>              offered load (memcached only; default 300000)
    --cores <N>            core count (default 10)
    --duration-ms <N>      simulated milliseconds (default 200)
    --seed <N>             RNG seed (default 42; both configs share it)
                           (no --config: analyze always contrasts
                           Baseline against AW under identical load;
                           --idle-out writes the AW report to disk)

OPTIONS (fleet):
    --servers <N>          fleet size (default 8)
    --cores <N>            cores per server (default 4)
    --policy <P>           round-robin | least-outstanding | packing |
                           spreading (default packing)
    --config <NAME>        C-state menu, as for sweep (default AW)
    --utilization <F>      aggregate load as a fraction of fleet
                           capacity (default 0.25)
    --epochs <N>           balancer decision periods (default 6)
    --epoch-ms <N>         epoch duration in milliseconds (default 25)
    --autoscale            park idle servers (modeled park/unpark
                           latency and boot energy)
    --diurnal <A>          sinusoidal load swing of amplitude A in [0,1)
    --seed <N>             fleet master seed (default 42)
    --fleet-faults <SPEC>  inject fleet-level chaos; SPEC is comma-
                           separated key=value pairs, e.g.
                           crash=0.02,down-epochs=3,unpark-fail=0.1
                           (keys: seed, crash, crash-at, down-epochs,
                           unpark-fail, degrade, degrade-ns,
                           degrade-epochs, rack-size, rack-outage,
                           throttle, throttle-factor, throttle-epochs;
                           crash-at pins one crash as EPOCH:SERVER)
                           (--slo-p99 sets the fleet SLO target,
                           --timeline-out receives the per-epoch fleet
                           time series, and the robustness flags
                           --faults / --queue-cap / --request-timeout
                           apply to every simulated server-epoch)

OPTIONS (watch):
    all fleet options, plus:
    --headless             print plain-text frames to stdout instead of
                           taking over the terminal (deterministic; for
                           scripts and tests)
    --frames <N>           emit at most N headless frames (default: one
                           per epoch)
                           interactive keys: 1-5 or Tab switch tabs,
                           q / Esc / Ctrl-C quit

TELEMETRY OPTIONS (any experiment subcommand):
    --trace-out <FILE>     write a Chrome trace-event JSON file (open in
                           chrome://tracing or Perfetto; one track per core)
    --metrics-out <FILE>   write a metrics-registry JSON file (counters,
                           gauges, histograms, governor mispredict rate)
    --trace-limit <N>      trace ring-buffer capacity (default 200000;
                           oldest events are dropped first)

ATTRIBUTION OPTIONS (any experiment subcommand):
    --slo-p99 <NS>         per-window p99 latency SLO target in ns; prints
                           the burn rate (fraction of windows violated)
    --timeline-out <FILE>  write the windowed time series (throughput,
                           per-phase latency, p50/p99/p99.9, power,
                           residency); .json suffix = JSON, else CSV
    --attrib-out <FILE>    write the per-phase latency attribution as
                           folded stacks (flamegraph.pl / speedscope)
    --idle-out <FILE>      capture per-core idle intervals and write the
                           idle-opportunity report (distributions,
                           governor audit, energy ledger); .json suffix
                           = JSON, .folded = folded stacks, else CSV

ROBUSTNESS OPTIONS (any experiment subcommand):
    --faults <SPEC>        inject deterministic faults; SPEC is comma-
                           separated key=value pairs, e.g.
                           seed=7,wake-fail=0.1,relock=0.05,lost-wake=0.02
                           (keys: seed, wake-fail, wake-retries, relock,
                           relock-ns, drowsy, lost-wake, lost-ns,
                           spurious, storm, storm-size, slowdown,
                           slow-factor, slow-ms; rates in events/s,
                           probabilities in [0,1])
    --queue-cap <N>        bound each core's run queue at N requests;
                           excess arrivals are shed and retried by the
                           client with jittered exponential backoff
    --request-timeout <US> drop queued requests older than US microseconds
                           at dispatch; dropped work is retried
";
