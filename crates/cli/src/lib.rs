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
//! The argument parser is hand-rolled (no external CLI dependency): one
//! flag table drives parsing, validation and the usage text. It lives
//! here so it can be unit-tested; `main.rs` only dispatches.

mod args;
mod run;
mod tui;
mod watch;

pub use args::{
    parse, parse_cli, usage, AnalyzeArgs, Command, CommonArgs, ExecArgs, FleetArgs, ParseError,
    RobustnessArgs, SweepArgs, TelemetryArgs, WatchArgs,
};
pub use run::execute_with;
