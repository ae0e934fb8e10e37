//! Time-weighted state residency tracking and energy integration.

use aw_types::{Joules, MilliWatts, Nanos, Ratio};

/// Tracks how long a component spends in each state of type `S`.
///
/// This is the simulator's analogue of the per-C-state residency counters
/// that the paper reads from the processor (Sec. 6.2): the server model
/// reports a core's state transitions here, and at the end of the run the
/// tracker yields residencies `R_Ci`.
///
/// # Examples
///
/// ```
/// use aw_sim::ResidencyTracker;
/// use aw_types::Nanos;
///
/// let mut t = ResidencyTracker::new("C0", Nanos::ZERO);
/// t.transition("C1", Nanos::from_micros(2.0));
/// t.transition("C0", Nanos::from_micros(10.0));
/// t.finish(Nanos::from_micros(10.0));
///
/// assert_eq!(t.residency(&"C0").as_percent(), 20.0);
/// assert_eq!(t.residency(&"C1").as_percent(), 80.0);
/// ```
#[derive(Debug, Clone)]
pub struct ResidencyTracker<S> {
    current: S,
    since: Nanos,
    finished_at: Option<Nanos>,
    /// Per-state accumulators in first-seen order: state and accumulated
    /// time. State types are tiny enums in practice (a
    /// handful of C-states), so a linear scan of a dense vector beats a
    /// hash lookup on the simulator's per-transition hot path.
    slots: Vec<(S, Nanos)>,
}

impl<S: Eq + Clone> ResidencyTracker<S> {
    /// Creates a tracker whose component starts in `initial` at time `start`.
    #[must_use]
    pub fn new(initial: S, start: Nanos) -> Self {
        ResidencyTracker {
            current: initial.clone(),
            since: start,
            finished_at: None,
            slots: vec![(initial, Nanos::ZERO)],
        }
    }

    /// Index of `state`'s accumulator slot, appending one if absent.
    fn slot(&mut self, state: &S) -> usize {
        match self.slots.iter().position(|(s, _)| s == state) {
            Some(i) => i,
            None => {
                self.slots.push((state.clone(), Nanos::ZERO));
                self.slots.len() - 1
            }
        }
    }

    /// Records a transition to `next` at time `now`.
    ///
    /// Transitions to the current state accumulate no new interval
    /// boundary (they are idempotent for residency purposes).
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous transition (time must be
    /// monotone) or if the tracker is already finished.
    pub fn transition(&mut self, next: S, now: Nanos) {
        assert!(self.finished_at.is_none(), "tracker already finished");
        assert!(now >= self.since, "transitions must be time-ordered");
        if next == self.current {
            return;
        }
        let current = self.current.clone();
        let i = self.slot(&current);
        self.slots[i].1 += now - self.since;
        // Registers `next` so it is reported even if never exited.
        self.slot(&next);
        self.current = next;
        self.since = now;
    }

    /// The state the component is currently in.
    #[must_use]
    pub fn current(&self) -> &S {
        &self.current
    }

    /// Closes the observation window at time `end`, attributing the final
    /// partial interval.
    ///
    /// # Panics
    ///
    /// Panics if `end` precedes the last transition or the tracker is
    /// already finished.
    pub fn finish(&mut self, end: Nanos) {
        assert!(self.finished_at.is_none(), "tracker already finished");
        assert!(end >= self.since, "finish must not precede last transition");
        let current = self.current.clone();
        let i = self.slot(&current);
        self.slots[i].1 += end - self.since;
        self.since = end;
        self.finished_at = Some(end);
    }

    /// Total time attributed to `state` so far.
    #[must_use]
    pub fn time_in(&self, state: &S) -> Nanos {
        self.slots.iter().find(|(s, _)| s == state).map_or(Nanos::ZERO, |&(_, t)| t)
    }

    /// Total observed time across all states.
    #[must_use]
    pub fn total_time(&self) -> Nanos {
        self.slots.iter().map(|&(_, t)| t).sum()
    }

    /// Fraction of observed time spent in `state` (the paper's `R_Ci`).
    ///
    /// Returns [`Ratio::ZERO`] when no time has been observed.
    #[must_use]
    pub fn residency(&self, state: &S) -> Ratio {
        let total = self.total_time();
        if total <= Nanos::ZERO {
            Ratio::ZERO
        } else {
            Ratio::new(self.time_in(state) / total)
        }
    }

    /// Iterates over `(state, time)` pairs in first-seen order. States
    /// that were entered but never exited appear with zero time.
    pub fn iter(&self) -> impl Iterator<Item = (&S, Nanos)> {
        self.slots.iter().map(|(s, t)| (s, *t))
    }
}

/// Integrates power over time into energy, one piecewise-constant segment at
/// a time.
///
/// This is the simulator's analogue of the RAPL energy counter: the server
/// model calls [`EnergyMeter::advance`] whenever a component's power level
/// changes, and the accumulated [`Joules`] divided by elapsed time gives the
/// run's average power.
///
/// # Examples
///
/// ```
/// use aw_sim::EnergyMeter;
/// use aw_types::{MilliWatts, Nanos};
///
/// let mut m = EnergyMeter::new(Nanos::ZERO);
/// // 4 W for 1 s, then 0.1 W for 1 s:
/// m.advance(MilliWatts::from_watts(4.0), Nanos::from_secs(1.0));
/// m.advance(MilliWatts::from_watts(0.1), Nanos::from_secs(2.0));
/// assert!((m.energy().as_joules() - 4.1).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct EnergyMeter {
    last: Nanos,
    energy: Joules,
}

impl EnergyMeter {
    /// Creates a meter starting at time `start` with zero accumulated
    /// energy.
    #[must_use]
    pub fn new(start: Nanos) -> Self {
        EnergyMeter { last: start, energy: Joules::ZERO }
    }

    /// Accounts the interval since the previous call at constant `power`,
    /// then moves the meter to `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous timestamp.
    pub fn advance(&mut self, power: MilliWatts, now: Nanos) {
        assert!(now >= self.last, "energy meter time must be monotone");
        self.energy += power * (now - self.last);
        self.last = now;
    }

    /// Total energy accumulated so far.
    #[must_use]
    pub fn energy(&self) -> Joules {
        self.energy
    }

    /// The meter's current timestamp.
    #[must_use]
    pub fn now(&self) -> Nanos {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residency_partitions_time() {
        let mut t = ResidencyTracker::new(0u8, Nanos::ZERO);
        t.transition(1, Nanos::new(25.0));
        t.transition(2, Nanos::new(50.0));
        t.transition(0, Nanos::new(75.0));
        t.finish(Nanos::new(100.0));
        assert_eq!(t.time_in(&0), Nanos::new(50.0));
        assert_eq!(t.time_in(&1), Nanos::new(25.0));
        assert_eq!(t.time_in(&2), Nanos::new(25.0));
        let sum: f64 = [0u8, 1, 2].iter().map(|s| t.residency(s).get()).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn self_transition_is_idempotent() {
        let mut t = ResidencyTracker::new("idle", Nanos::ZERO);
        t.transition("idle", Nanos::new(10.0));
        t.finish(Nanos::new(20.0));
        assert_eq!(t.time_in(&"idle"), Nanos::new(20.0));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_time_travel() {
        let mut t = ResidencyTracker::new(0u8, Nanos::new(10.0));
        t.transition(1, Nanos::new(5.0));
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn rejects_transition_after_finish() {
        let mut t = ResidencyTracker::new(0u8, Nanos::ZERO);
        t.finish(Nanos::new(1.0));
        t.transition(1, Nanos::new(2.0));
    }

    #[test]
    fn empty_tracker_residency_zero() {
        let t = ResidencyTracker::new(0u8, Nanos::ZERO);
        assert_eq!(t.residency(&0), Ratio::ZERO);
    }

    #[test]
    fn energy_meter_piecewise() {
        let mut m = EnergyMeter::new(Nanos::ZERO);
        m.advance(MilliWatts::from_watts(1.0), Nanos::from_secs(1.0));
        m.advance(MilliWatts::from_watts(3.0), Nanos::from_secs(2.0));
        assert!((m.energy().as_joules() - 4.0).abs() < 1e-9);
        assert_eq!(m.now(), Nanos::from_secs(2.0));
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn meter_rejects_time_travel() {
        let mut m = EnergyMeter::new(Nanos::new(5.0));
        m.advance(MilliWatts::ZERO, Nanos::new(1.0));
    }
}
