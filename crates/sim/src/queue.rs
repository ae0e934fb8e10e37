//! Time-ordered event queue with stable FIFO tie-breaking.
//!
//! A binary min-heap on `(time, seq)` — the shape of desque's
//! `EventQueue`. Simultaneous events pop in the order they were
//! scheduled, which the determinism pins (chaos golden bits, jobs-N byte
//! identity) rely on; see `tests/proptests.rs` for the property check
//! against a sorted-`Vec` reference.
//!
//! Two things make one event cost one sift. A `pop` leaves the returned
//! root in the heap, marked consumed, and the next `schedule` overwrites
//! it and sifts down once: the engine pops once and schedules about once
//! per event, which a plain heap pays for with a sift out and a sift in.
//! And each entry carries its `(time, seq)` order as one 128-bit integer
//! key, so a compare is two integer compares instead of a float compare
//! and a branch on its result.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use aw_types::Nanos;

const SIGN: u64 = 1 << 63;

/// A pending event: its firing time and a monotone sequence number as
/// one integer key, and the payload.
#[derive(Clone, Copy)]
struct Entry<E> {
    /// The bits of `t + 0.0` (which folds `-0.0` into `0.0`), mapped so
    /// that unsigned order is numeric order: a positive time sets the
    /// sign bit, a negative one flips every bit.
    hi: u64,
    /// `seq << 1`, with bit 0 set when the time was `-0.0`; sequence
    /// numbers are unique, so bit 0 never decides an order.
    lo: u64,
    event: E,
}

impl<E> Entry<E> {
    fn new(at: Nanos, seq: u64, event: E) -> Self {
        let t = at.as_nanos();
        let bits = (t + 0.0).to_bits();
        let negative_zero = t == 0.0 && t.is_sign_negative();
        Entry {
            hi: bits ^ (((bits as i64 >> 63) as u64) | SIGN),
            lo: seq << 1 | u64::from(negative_zero),
            event,
        }
    }

    /// The `(time, seq)` order as one integer.
    fn key(&self) -> u128 {
        u128::from(self.hi) << 64 | u128::from(self.lo)
    }

    /// The scheduled time, bit for bit (`-0.0` included).
    fn at(&self) -> Nanos {
        let bits = self.hi ^ (((!self.hi as i64 >> 63) as u64) | SIGN);
        Nanos::new(f64::from_bits(bits | (self.lo & 1) << 63))
    }
}

impl<E> Ord for Entry<E> {
    /// Reversed, so `BinaryHeap`'s max is the earliest `(time, seq)`.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

/// A discrete-event queue ordered by firing time.
///
/// Events scheduled for the same instant pop in the order they were
/// scheduled (FIFO), which keeps simulations deterministic without needing
/// a total order on the event payload type. Payloads are `Copy`: `pop`
/// hands out a copy and leaves the entry for the next `schedule` to
/// overwrite.
///
/// # Ordering contract
///
/// `pop` always returns the pending event with the smallest `(time,
/// sequence-number)` key, where the sequence number increments on every
/// `schedule`. Times compare by value, so `-0.0` and `0.0` are the same
/// instant and pop FIFO; each comes back with the bits it was scheduled
/// with.
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
    /// The heap's root was returned by the last `pop` and is no longer
    /// pending: the next `schedule` overwrites it, the next `pop`
    /// removes it.
    consumed: bool,
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events
    /// before it reallocates.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue { heap: BinaryHeap::with_capacity(capacity), next_seq: 0, consumed: false }
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is NaN or infinite — scheduling at a non-finite time
    /// is always a simulation bug and would corrupt the time order.
    pub fn schedule(&mut self, at: Nanos, event: E) {
        assert!(at.is_finite(), "event scheduled at non-finite time");
        let entry = Entry::new(at, self.next_seq, event);
        self.next_seq += 1;
        if self.consumed {
            // One sift down from the root does the work of removing the
            // consumed root and pushing the new entry.
            self.consumed = false;
            *self.heap.peek_mut().expect("a consumed root is in the heap") = entry;
        } else {
            self.heap.push(entry);
        }
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        if self.consumed {
            self.heap.pop();
        }
        let root = self.heap.peek().copied();
        self.consumed = root.is_some();
        root.map(|e| (e.at(), e.event))
    }

    /// The firing time of the earliest pending event: the root, or the
    /// earlier of its two children while the root is consumed.
    #[must_use]
    pub fn peek_time(&self) -> Option<Nanos> {
        let next = if self.consumed {
            self.heap.as_slice()[1..].iter().take(2).max()
        } else {
            self.heap.peek()
        };
        next.map(Entry::at)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len() - usize::from(self.consumed)
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E: Copy> fmt::Debug for EventQueue<E> {
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
    fn signed_zeros_keep_their_bits_and_pop_fifo() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::new(0.0), 'a');
        q.schedule(Nanos::new(-0.0), 'b');
        q.schedule(Nanos::new(-1.0), 'c');
        q.schedule(Nanos::new(0.0), 'd');
        let out: Vec<_> =
            std::iter::from_fn(|| q.pop()).map(|(t, e)| (t.as_nanos().to_bits(), e)).collect();
        let zero = 0.0f64.to_bits();
        assert_eq!(
            out,
            vec![((-1.0f64).to_bits(), 'c'), (zero, 'a'), ((-0.0f64).to_bits(), 'b'), (zero, 'd')]
        );
    }

    #[test]
    fn key_adds_sixteen_bytes_to_a_payload() {
        // A `u128` field would be 16-byte aligned and pad a 24-byte
        // payload's entry to 48 bytes.
        assert_eq!(std::mem::size_of::<Entry<[u64; 3]>>(), 40);
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
