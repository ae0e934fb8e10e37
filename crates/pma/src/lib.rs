//! # aw-pma — cycle-level power-management-agent microarchitecture
//!
//! A nanosecond-granularity model of the hardware AgileWatts adds to a
//! Skylake-class core (paper Secs. 4–5):
//!
//! * [`DaisyChain`] — power-gate switch cells with daisy-chained sleep
//!   signals and an in-rush current profile (Fig. 2);
//! * [`Ufpg`] — the Units' Fast Power-Gating subsystem: five power-gate
//!   zones covering ~70% of the core, woken in a staggered sequence that
//!   bounds in-rush current (Sec. 5.3);
//! * [`SrpgBank`] — state-retention power-gate flops with `Ret`/`Pwr`
//!   signal timing (Fig. 5c);
//! * [`CacheSleepController`] — the CCSM cache sleep-mode FSM with its
//!   seven programmable sleep-transistor settings (Sec. 5.1.2);
//! * [`PmaFsm`] — the C6A/C6AE power-management flow of Fig. 6, stepped
//!   one 500 MHz PMA cycle at a time, producing per-step latency traces.
//!
//! The headline numbers the model reproduces: C6A entry < 20 ns, exit
//! < 80 ns (including the < 70 ns staggered wake of the five UFPG zones),
//! and a staggered in-rush peak no higher than the AVX-unit wake that
//! shipping silicon already tolerates.
//!
//! The FSM steps the fault-free flow only. A disrupted agile wake (stuck
//! UFPG gates, the fallback to the full C6 exit, ADPLL relock overruns,
//! repeated drowsy wakes) has one model, in `aw-server`'s engine, which
//! draws it from the run's fault plan; this crate has no dependency on
//! the fault layer.
//!
//! # Examples
//!
//! ```
//! use aw_pma::{PmaFsm, WakePolicy};
//!
//! let mut fsm = PmaFsm::new_c6a();
//! let entry = fsm.run_entry().expect("fresh FSM is active");
//! let exit = fsm.run_exit().expect("idle core can exit");
//! assert!(entry.total().as_nanos() < 20.0);
//! assert!(exit.total().as_nanos() < 80.0);
//! ```

mod cache;
mod flow;
mod srpg;
mod switch;
mod ufpg;

pub use cache::{CacheSleepController, SleepSetting};
pub use flow::{FlowError, FlowTrace, PmaFsm, PmaState, TraceStep};
pub use srpg::{RetentionSignal, SrpgBank};
pub use switch::{CurrentProfile, DaisyChain};
pub use ufpg::{Ufpg, UfpgZone, WakePolicy, WakeReport};
