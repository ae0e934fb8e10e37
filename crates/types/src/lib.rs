//! # aw-types — strongly-typed units for the AgileWatts simulation stack
//!
//! Every quantity that crosses a crate boundary in this workspace is wrapped
//! in a newtype so that nanoseconds cannot be confused with cycles, nor
//! milliwatts with watts (C-NEWTYPE). All wrappers are thin `f64`/`u64`
//! newtypes with zero runtime cost.
//!
//! The main types are:
//!
//! * [`Nanos`] — simulation time and durations, stored as `f64` nanoseconds.
//! * [`Cycles`] — clock-cycle counts, convertible to time via [`MegaHertz`].
//! * [`MegaHertz`] — clock frequency.
//! * [`MilliWatts`] — power.
//! * [`Joules`] — energy (`power × time`).
//! * [`Ratio`] — dimensionless fraction in `[0, 1]`, used for residencies,
//!   efficiencies, and area fractions.
//!
//! # Examples
//!
//! ```
//! use aw_types::{Cycles, MegaHertz, MilliWatts, Nanos};
//!
//! // Five PMA cycles at 500 MHz is 10 ns.
//! let pma_clock = MegaHertz::new(500.0);
//! assert_eq!(Cycles::new(5).at(pma_clock), Nanos::new(10.0));
//!
//! // 1.44 W for one microsecond is 1.44 µJ.
//! let energy = MilliWatts::from_watts(1.44) * Nanos::from_micros(1.0);
//! assert!((energy.as_microjoules() - 1.44).abs() < 1e-12);
//! ```

mod energy;
mod freq;
mod power;
mod ratio;
mod time;

pub use energy::Joules;
pub use freq::{Cycles, MegaHertz};
pub use power::MilliWatts;
pub use ratio::Ratio;
pub use time::Nanos;
