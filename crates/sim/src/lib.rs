//! # aw-sim — deterministic discrete-event simulation kernel
//!
//! The foundation under the AgileWatts server simulator: a time-ordered
//! event queue with stable tie-breaking, a seeded random-number layer with
//! the distributions the workload models need, exact nearest-rank
//! percentiles (by selection), the P² streaming quantile estimator, and
//! time-weighted state residencies.
//!
//! Everything here is deterministic given a seed: two runs with the same
//! seed and the same event schedule produce bit-identical results, which the
//! test suite relies on.
//!
//! # Examples
//!
//! Drain a queue in time order:
//!
//! ```
//! use aw_sim::EventQueue;
//! use aw_types::Nanos;
//!
//! let mut q = EventQueue::new();
//! q.schedule(Nanos::new(30.0), "wake");
//! q.schedule(Nanos::new(10.0), "arrive");
//! q.schedule(Nanos::new(10.0), "snoop"); // same instant: FIFO order
//!
//! let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
//! assert_eq!(order, ["arrive", "snoop", "wake"]);
//! ```

mod dist;
mod quantile;
mod queue;
mod rng;
mod stats;
mod tracker;

pub use dist::{Distribution, Empirical, Exponential, LogNormal, Pareto, Point, Shifted};
pub use quantile::P2Quantile;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use stats::{select_quantiles, SampleSet};
pub use tracker::{EnergyMeter, ResidencyTracker};
