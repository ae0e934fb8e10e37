//! Time-ordered event queue with stable FIFO tie-breaking.
//!
//! A binary min-heap on `(time, seq)` — the shape of desque's
//! `EventQueue`. Simultaneous events pop in the order they were
//! scheduled, which the determinism pins (chaos golden bits, jobs-N byte
//! identity) rely on; see `tests/proptests.rs` for the property check
//! against a sorted-`Vec` reference.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use aw_types::Nanos;

/// A pending event: its firing time, a monotone sequence number for stable
/// ordering of simultaneous events, and the payload.
struct Entry<E> {
    at: Nanos,
    seq: u64,
    event: E,
}

impl<E> Ord for Entry<E> {
    /// Reversed, so `BinaryHeap`'s max is the earliest `(time, seq)`.
    /// Times are finite (asserted in [`EventQueue::schedule`]), so
    /// `partial_cmp` never fails; it also makes `-0.0 == 0.0`, leaving
    /// such ties to the sequence number like any other.
    fn cmp(&self, other: &Self) -> Ordering {
        match other.at.partial_cmp(&self.at) {
            Some(Ordering::Equal) | None => other.seq.cmp(&self.seq),
            Some(by_time) => by_time,
        }
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<E> Eq for Entry<E> {}

/// A discrete-event queue ordered by firing time.
///
/// Events scheduled for the same instant pop in the order they were
/// scheduled (FIFO), which keeps simulations deterministic without needing
/// a total order on the event payload type.
///
/// # Ordering contract
///
/// `pop` always returns the pending event with the smallest `(time,
/// sequence-number)` key, where the sequence number increments on every
/// `schedule`. Times compare by value, so `-0.0` and `0.0` are the same
/// instant and pop FIFO.
///
/// # Examples
///
/// ```
/// use aw_sim::EventQueue;
/// use aw_types::Nanos;
///
/// let mut q = EventQueue::new();
/// q.schedule(Nanos::from_micros(2.0), 1u32);
/// q.schedule(Nanos::from_micros(1.0), 2u32);
/// assert_eq!(q.pop(), Some((Nanos::from_micros(1.0), 2)));
/// assert_eq!(q.pop(), Some((Nanos::from_micros(2.0), 1)));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events
    /// before it reallocates.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue { heap: BinaryHeap::with_capacity(capacity), next_seq: 0 }
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is NaN or infinite — scheduling at a non-finite time
    /// is always a simulation bug and would corrupt the time order.
    pub fn schedule(&mut self, at: Nanos, event: E) {
        assert!(at.is_finite(), "event scheduled at non-finite time");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// The firing time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("next_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5.0, 1.0, 3.0, 2.0, 4.0] {
            q.schedule(Nanos::new(t), t as u32);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Nanos::new(7.0), i);
        }
        let out: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let expect: Vec<_> = (0..100).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::new(9.0), ());
        q.schedule(Nanos::new(4.0), ());
        assert_eq!(q.peek_time(), Some(Nanos::new(4.0)));
        assert_eq!(q.pop().unwrap().0, Nanos::new(4.0));
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(32);
        assert!(q.is_empty());
        for &t in &[5.0, 1.0, 3.0] {
            q.schedule(Nanos::new(t), t as u32);
        }
        assert_eq!(q.pop(), Some((Nanos::new(1.0), 1)));
        assert_eq!(q.pop(), Some((Nanos::new(3.0), 3)));
        assert_eq!(q.pop(), Some((Nanos::new(5.0), 5)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Nanos::ZERO, ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan_time() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::new(f64::NAN), ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::new(10.0), "a");
        q.schedule(Nanos::new(20.0), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule(Nanos::new(15.0), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn schedules_before_last_pop_still_order() {
        // The API permits scheduling earlier than the last popped time.
        let mut q = EventQueue::new();
        q.schedule(Nanos::new(100.0), "late");
        assert_eq!(q.pop().unwrap().1, "late");
        q.schedule(Nanos::new(5.0), "early");
        q.schedule(Nanos::new(50.0), "mid");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "mid");
    }

    #[test]
    fn growth_and_retune_keep_order() {
        // Push well past the initial capacity so the heap grows several
        // times, with many equal timestamps.
        let mut q = EventQueue::with_capacity(1);
        let mut expected = Vec::new();
        for i in 0..500u32 {
            let t = f64::from((i * 7919) % 997);
            q.schedule(Nanos::new(t), i);
            expected.push((t, i));
        }
        expected.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let drained: Vec<(f64, u32)> =
            std::iter::from_fn(|| q.pop()).map(|(t, e)| (t.as_nanos(), e)).collect();
        assert_eq!(drained, expected);
    }

    #[test]
    fn far_future_events_pop_exactly() {
        // Times spanning ten orders of magnitude order by value.
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_secs(10.0), "future");
        q.schedule(Nanos::new(1.0), "soon");
        q.schedule(Nanos::from_secs(3.0), "later");
        assert_eq!(q.pop().unwrap().1, "soon");
        assert_eq!(q.pop().unwrap().1, "later");
        assert_eq!(q.pop().unwrap().1, "future");
    }

    #[test]
    fn steady_state_stream_stays_monotone() {
        // A long schedule/pop stream with drifting times at a fixed
        // depth: the simulator's steady-state traffic shape.
        let mut q = EventQueue::with_capacity(64);
        let mut t = 0.0f64;
        for i in 0..64u64 {
            q.schedule(Nanos::new((i % 7) as f64 * 100.0), i);
        }
        let mut last = Nanos::ZERO;
        for i in 0..10_000u64 {
            let (at, e) = q.pop().expect("never drains");
            assert!(at >= last, "time went backwards at iteration {i}");
            last = at;
            t = at.as_nanos().max(t) + ((i * 37) % 911) as f64;
            q.schedule(Nanos::new(t), e);
        }
    }
}
