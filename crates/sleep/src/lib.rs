//! # aw-sleep — idle-opportunity analysis
//!
//! The self-validation layer behind every AgileWatts experiment: given the
//! per-core idle intervals a run captured (via
//! `SimBuilder::with_idle_analysis()`), this crate answers the question the
//! simulator's achieved-side metrics cannot — *how much C-state opportunity
//! did the workload offer, and how much of it did the governor recover?*
//!
//! Three artifacts come out of one [`IdleReport::analyze`] pass:
//!
//! 1. **Idle-period distributions** ([`IdleDistribution`]) — log2
//!    histograms plus exact quantiles, per core and pooled, characterizing
//!    the opportunity the workload presented (the "How long can you
//!    sleep?" view).
//! 2. **Governor audit** ([`GovernorAudit`]) — for every interval, the
//!    state the governor chose vs. the break-even-optimal state for the
//!    interval's true length, with a chosen→optimal confusion matrix and
//!    prediction-error statistics from `IdleGovernor::last_prediction`.
//! 3. **Opportunity ledger** ([`OpportunityLedger`]) — achieved vs.
//!    oracle-achievable residency and energy, the gap attributed to
//!    too-shallow / too-deep / un-sleepable intervals, and the headline
//!    opportunity-recovery ratio.
//!
//! Scoring uses the same catalog the run was configured with
//! ([`BreakEven::from_server`]), so the oracle is clairvoyant about
//! interval lengths but plays by the hardware's rules. Analysis is strictly
//! offline: capture is pure observation, and an instrumented run is
//! bit-identical to an unobserved one.
//!
//! # Examples
//!
//! ```
//! use aw_cstates::NamedConfig;
//! use aw_server::{ServerConfig, SimBuilder, WorkloadSpec};
//! use aw_sleep::{BreakEven, IdleReport};
//! use aw_types::Nanos;
//!
//! let workload = WorkloadSpec::poisson("toy", 40_000.0, Nanos::from_micros(3.0), 0.8);
//! let config = ServerConfig::new(4, NamedConfig::Baseline)
//!     .with_duration(Nanos::from_millis(40.0));
//! let out = SimBuilder::new(config.clone(), workload, 7)
//!     .with_idle_analysis()
//!     .run();
//!
//! let intervals = out.idle_intervals.as_deref().expect("analysis was enabled");
//! let model = BreakEven::from_server(&config);
//! let report = IdleReport::analyze(intervals, &model, config.cores, Nanos::from_millis(5.0));
//!
//! // The oracle never loses to the governor it audits:
//! assert!(report.ledger.oracle_savings() >= report.ledger.achieved_savings());
//! assert!(report.ledger.recovery() <= 1.0);
//! println!("{report}");
//! ```

mod breakeven;
mod export;
mod report;

pub use breakeven::BreakEven;
pub use report::{
    GovernorAudit, IdleDistribution, IdleReport, IdleWindow, OpportunityLedger, OpportunitySummary,
    PredictionStats,
};
