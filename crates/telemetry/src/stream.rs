//! Bounded streams: values pushed from a running simulation to a
//! consumer on another thread.
//!
//! [`bounded_stream`] provides the transport between a simulator thread
//! and a consumer thread (the fleet cockpit drains fleet epochs through
//! it). The channel is *bounded*: when the consumer lags `capacity`
//! items behind, the producer blocks in send — backpressure, not loss.
//! Dropping the receiver permanently unblocks the producer (sends
//! become no-ops), so a consumer can detach mid-run without wedging or
//! perturbing the simulation.

use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::time::Duration;

/// Internal channel message: an item or the end-of-stream marker.
enum StreamMsg<T> {
    Item(T),
    Finished,
}

/// The producing half of a bounded stream (see [`bounded_stream`]).
#[derive(Debug)]
pub struct StreamSender<T> {
    tx: SyncSender<StreamMsg<T>>,
}

impl<T> StreamSender<T> {
    /// Sends one item, blocking while the channel is full. Returns
    /// `false` (and discards the item) once the receiver is gone.
    pub fn send(&self, item: T) -> bool {
        self.tx.send(StreamMsg::Item(item)).is_ok()
    }

    /// Marks the stream complete. Further receives return
    /// [`StreamPoll::Closed`] after draining.
    pub fn finish(&self) {
        let _ = self.tx.send(StreamMsg::Finished);
    }
}

/// One non-blocking or timed receive outcome on a [`StreamReceiver`].
#[derive(Debug)]
pub enum StreamPoll<T> {
    /// An item arrived.
    Item(T),
    /// Nothing available yet; the producer is still running.
    Pending,
    /// The stream has finished (or the producer hung up); no more
    /// items will ever arrive.
    Closed,
}

/// The consuming half of a bounded stream (see [`bounded_stream`]).
#[derive(Debug)]
pub struct StreamReceiver<T> {
    rx: Receiver<StreamMsg<T>>,
    closed: bool,
}

impl<T> StreamReceiver<T> {
    /// Blocks for the next item; `None` once the stream is finished or
    /// the producer hung up.
    pub fn recv(&mut self) -> Option<T> {
        if self.closed {
            return None;
        }
        match self.rx.recv() {
            Ok(StreamMsg::Item(item)) => Some(item),
            Ok(StreamMsg::Finished) | Err(_) => {
                self.closed = true;
                None
            }
        }
    }

    /// Waits up to `timeout` for the next item.
    pub fn poll(&mut self, timeout: Duration) -> StreamPoll<T> {
        if self.closed {
            return StreamPoll::Closed;
        }
        match self.rx.recv_timeout(timeout) {
            Ok(StreamMsg::Item(item)) => StreamPoll::Item(item),
            Err(RecvTimeoutError::Timeout) => StreamPoll::Pending,
            Ok(StreamMsg::Finished) | Err(RecvTimeoutError::Disconnected) => {
                self.closed = true;
                StreamPoll::Closed
            }
        }
    }

    /// Receives without blocking.
    pub fn try_poll(&mut self) -> StreamPoll<T> {
        if self.closed {
            return StreamPoll::Closed;
        }
        match self.rx.try_recv() {
            Ok(StreamMsg::Item(item)) => StreamPoll::Item(item),
            Err(TryRecvError::Empty) => StreamPoll::Pending,
            Ok(StreamMsg::Finished) | Err(TryRecvError::Disconnected) => {
                self.closed = true;
                StreamPoll::Closed
            }
        }
    }
}

/// Creates a bounded stream of `capacity` in-flight items.
///
/// The backpressure contract: [`StreamSender::send`] blocks once
/// `capacity` items are queued, pacing the producer to the consumer.
/// Dropping the receiver turns every later send into a no-op, so a
/// detached producer runs to completion unperturbed.
///
/// # Panics
///
/// Panics if `capacity` is zero (a zero-capacity rendezvous channel
/// would deadlock a producer with no consumer scheduled).
///
/// # Examples
///
/// ```
/// use aw_telemetry::{bounded_stream, StreamPoll};
///
/// let (tx, mut rx) = bounded_stream::<u32>(8);
/// tx.finish();
/// assert!(matches!(rx.try_poll(), StreamPoll::Closed));
/// assert!(rx.recv().is_none());
/// ```
#[must_use]
pub fn bounded_stream<T>(capacity: usize) -> (StreamSender<T>, StreamReceiver<T>) {
    assert!(capacity > 0, "stream capacity must be positive");
    let (tx, rx) = sync_channel(capacity);
    (StreamSender { tx }, StreamReceiver { rx, closed: false })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_flow_in_order_until_finish() {
        let (tx, mut rx) = bounded_stream(4);
        for i in 0..3 {
            assert!(tx.send(i));
        }
        tx.finish();
        for i in 0..3 {
            assert_eq!(rx.recv(), Some(i));
        }
        assert!(rx.recv().is_none());
        assert!(matches!(rx.poll(Duration::from_millis(1)), StreamPoll::Closed));
    }

    #[test]
    fn dropped_receiver_turns_sends_into_noops() {
        let (tx, rx) = bounded_stream(1);
        drop(rx);
        assert!(!tx.send(0));
        tx.finish(); // must not panic
    }

    #[test]
    fn hung_up_sender_closes_the_stream() {
        let (tx, mut rx) = bounded_stream(2);
        assert!(tx.send(0));
        drop(tx);
        assert!(rx.recv().is_some());
        assert!(rx.recv().is_none());
        assert!(matches!(rx.try_poll(), StreamPoll::Closed));
    }

    #[test]
    fn poll_reports_pending_while_producer_lives() {
        let (tx, mut rx) = bounded_stream::<u32>(2);
        assert!(matches!(rx.try_poll(), StreamPoll::Pending));
        assert!(matches!(rx.poll(Duration::from_millis(1)), StreamPoll::Pending));
        drop(tx);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_capacity() {
        let _ = bounded_stream::<u32>(0);
    }
}
