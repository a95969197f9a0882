//! A minimal bounded single-producer single-consumer batch channel.
//!
//! A batcher over `std::sync::mpsc::sync_channel::<Vec<T>>`: one producer
//! pushes items that cross to one consumer `batch_len` at a time, so the
//! per-item cost is a `Vec::push`, not a channel operation; at most
//! `capacity` full batches are in flight, so a fast producer cannot buffer
//! an unbounded backlog ahead of a slow consumer. Dropping the
//! [`BatchSender`] flushes its partial batch and closes the channel (the
//! [`BatchReceiver`] yields what is buffered, then ends); dropping the
//! [`BatchReceiver`] makes further shipments fail fast with
//! [`Disconnected`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::Duration;

/// The receiving half of a batch channel disconnected; items the producer
/// had buffered were discarded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Disconnected;

/// Outcome of a [`BatchReceiver::next_timeout`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TryRecv<T> {
    /// An item was buffered and has been dequeued.
    Item(T),
    /// Nothing buffered (within the timeout), but the producer is still
    /// alive.
    Empty,
    /// The producer is gone and everything buffered has been drained.
    Disconnected,
}

/// The producing half: items accumulate locally and cross the channel
/// `batch_len` at a time. A partial batch is shipped on
/// [`BatchSender::flush`] or on drop. Not clonable: single producer.
pub struct BatchSender<T> {
    tx: SyncSender<Vec<T>>,
    /// Batches shipped and not yet taken, shared with the receiver for
    /// [`BatchReceiver::queued_batches`] (`std`'s channel has no length).
    queued: Arc<AtomicUsize>,
    batch: Vec<T>,
    batch_len: usize,
}

/// The consuming half. Iterates items in send order, pulling the next batch
/// from the channel transparently; ends once the sender is gone and
/// everything buffered has been yielded. Not clonable: single consumer.
pub struct BatchReceiver<T> {
    rx: Receiver<Vec<T>>,
    queued: Arc<AtomicUsize>,
    current: std::vec::IntoIter<T>,
}

/// A bounded channel carrying items in batches of `batch_len`, with at most
/// `capacity` full batches in flight. Backpressure therefore bounds the
/// consumer's backlog to roughly `capacity * batch_len` items plus one
/// partial batch.
pub fn batch_channel<T>(capacity: usize, batch_len: usize) -> (BatchSender<T>, BatchReceiver<T>) {
    let batch_len = batch_len.max(1);
    // A zero bound would make `sync_channel` a rendezvous channel.
    let (tx, rx) = sync_channel(capacity.max(1));
    let queued = Arc::new(AtomicUsize::new(0));
    (
        BatchSender {
            tx,
            queued: Arc::clone(&queued),
            batch: Vec::with_capacity(batch_len),
            batch_len,
        },
        BatchReceiver {
            rx,
            queued,
            current: Vec::new().into_iter(),
        },
    )
}

impl<T> BatchSender<T> {
    /// Appends one item, shipping the batch (blocking for a slot) when it
    /// reaches `batch_len`. Fails once the receiver is gone.
    pub fn push(&mut self, item: T) -> Result<(), Disconnected> {
        self.batch.push(item);
        if self.batch.len() >= self.batch_len {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Ships the current partial batch, if any, blocking until a slot frees
    /// up. Fails (discarding the batch) once the receiver is gone.
    pub fn flush(&mut self) -> Result<(), Disconnected> {
        if self.batch.is_empty() {
            return Ok(());
        }
        let full = std::mem::replace(&mut self.batch, Vec::with_capacity(self.batch_len));
        // Counted before the send, so the receiver's decrement of this
        // batch can never come first. A failed send leaves the count high,
        // but then no receiver is left to read it.
        self.queued.fetch_add(1, Ordering::Relaxed);
        self.tx.send(full).map_err(|_| Disconnected)
    }

    /// True when no items are sitting in the local (unshipped) batch. Since
    /// [`BatchSender::push`] can only fail at a batch boundary, a producer
    /// that snapshots its progress counters whenever this returns true gets
    /// accounting that exactly matches the items the consumer can observe.
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }
}

impl<T> Drop for BatchSender<T> {
    fn drop(&mut self) {
        // Best effort: a dead receiver already discarded everything anyway.
        // Dropping `tx` afterwards closes the channel.
        let _ = self.flush();
    }
}

impl<T> BatchReceiver<T> {
    /// Non-blocking variant of `Iterator::next`: yields buffered items in
    /// order, [`TryRecv::Empty`] when the producer is alive but nothing has
    /// crossed the channel yet, [`TryRecv::Disconnected`] at true end.
    pub fn try_next(&mut self) -> TryRecv<T> {
        self.next_within(Some(Duration::ZERO))
    }

    /// `Iterator::next` that gives up after `timeout` with
    /// [`TryRecv::Empty`]; a zero timeout never blocks. Items of the batch
    /// in hand come out without touching the channel; only an exhausted
    /// batch waits, and it wakes as soon as the next batch ships or the
    /// producer disconnects. A consumer that must act on wall-clock time
    /// waits with this instead of parking in `next`, so one stalled
    /// producer cannot wedge it.
    pub fn next_timeout(&mut self, timeout: Duration) -> TryRecv<T> {
        self.next_within(Some(timeout))
    }

    /// The next item, waiting at most `timeout` (forever on `None`) for a
    /// batch when the one in hand is exhausted.
    fn next_within(&mut self, timeout: Option<Duration>) -> TryRecv<T> {
        loop {
            if let Some(item) = self.current.next() {
                return TryRecv::Item(item);
            }
            let got = match timeout {
                None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                Some(timeout) => self.rx.recv_timeout(timeout),
            };
            match got {
                Ok(batch) => {
                    let before = self.queued.fetch_sub(1, Ordering::Relaxed);
                    debug_assert!(before > 0, "took a batch that was never counted");
                    self.current = batch.into_iter();
                }
                Err(RecvTimeoutError::Timeout) => return TryRecv::Empty,
                Err(RecvTimeoutError::Disconnected) => return TryRecv::Disconnected,
            }
        }
    }

    /// Full batches currently queued in the channel (excludes the batch this
    /// receiver is part-way through, includes one the producer is blocked
    /// shipping). A point-in-time snapshot for status reporting; it can be
    /// stale by the time it is read.
    pub fn queued_batches(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }
}

impl<T> Iterator for BatchReceiver<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self.next_within(None) {
            TryRecv::Item(item) => Some(item),
            TryRecv::Empty | TryRecv::Disconnected => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn batch_channel_delivers_in_order_and_flushes_tail_on_drop() {
        let (mut tx, rx) = batch_channel::<u32>(2, 7);
        let producer = std::thread::spawn(move || {
            for i in 0..100 {
                // 100 is not a multiple of 7: the tail rides the drop flush.
                tx.push(i).unwrap();
            }
        });
        let got: Vec<u32> = rx.collect();
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn next_drains_buffer_after_sender_drops() {
        let (mut tx, mut rx) = batch_channel::<u32>(4, 1);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        drop(tx);
        assert_eq!(rx.next(), Some(1));
        assert_eq!(rx.next(), Some(2));
        assert_eq!(rx.next(), None);
        assert_eq!(rx.next(), None);
    }

    #[test]
    fn batch_explicit_flush_ships_partial_batch() {
        let (mut tx, mut rx) = batch_channel::<u32>(4, 64);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(rx.queued_batches(), 0);
        tx.flush().unwrap();
        assert_eq!(rx.queued_batches(), 1);
        assert_eq!(rx.next(), Some(1));
        assert_eq!(rx.queued_batches(), 0, "the batch in hand is not queued");
        assert_eq!(rx.next(), Some(2));
        drop(tx);
        assert_eq!(rx.next(), None);
    }

    #[test]
    fn batch_push_fails_after_receiver_drops() {
        let (mut tx, rx) = batch_channel::<u32>(1, 2);
        drop(rx);
        assert_eq!(tx.push(1), Ok(()));
        assert_eq!(tx.push(2), Err(Disconnected));
    }

    #[test]
    fn batch_try_next_drains_in_order_then_reports_state() {
        let (mut tx, mut rx) = batch_channel::<u32>(4, 2);
        assert_eq!(rx.try_next(), TryRecv::Empty);
        tx.push(1).unwrap();
        // Partial batch not yet shipped: still Empty from the consumer side.
        assert_eq!(rx.try_next(), TryRecv::Empty);
        assert!(!tx.is_empty());
        tx.push(2).unwrap(); // batch boundary: ships
        assert!(tx.is_empty());
        tx.push(3).unwrap();
        tx.flush().unwrap();
        assert_eq!(rx.queued_batches(), 2);
        assert_eq!(rx.try_next(), TryRecv::Item(1));
        assert_eq!(rx.try_next(), TryRecv::Item(2));
        assert_eq!(rx.try_next(), TryRecv::Item(3));
        assert_eq!(rx.try_next(), TryRecv::Empty);
        drop(tx);
        assert_eq!(rx.try_next(), TryRecv::Disconnected);
        assert_eq!(rx.try_next(), TryRecv::Disconnected);
    }

    #[test]
    fn next_timeout_gives_up_when_nothing_is_sent() {
        let (_tx, mut rx) = batch_channel::<u32>(2, 4);
        let timeout = Duration::from_millis(20);
        let started = Instant::now();
        assert_eq!(rx.next_timeout(timeout), TryRecv::Empty);
        assert!(started.elapsed() >= timeout, "returned before the timeout");
    }

    #[test]
    fn next_timeout_wakes_early_when_an_item_arrives() {
        let (mut tx, mut rx) = batch_channel::<u32>(2, 1);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            tx.push(7).unwrap();
            tx
        });
        let timeout = Duration::from_secs(60);
        let started = Instant::now();
        assert_eq!(rx.next_timeout(timeout), TryRecv::Item(7));
        assert!(started.elapsed() < timeout);
        drop(producer.join().unwrap());
        assert_eq!(rx.next_timeout(timeout), TryRecv::Disconnected);
    }

    #[test]
    fn next_timeout_drains_then_reports_disconnect() {
        let (mut tx, mut rx) = batch_channel::<u32>(4, 2);
        for i in 0..3 {
            tx.push(i).unwrap();
        }
        let timeout = Duration::from_secs(60);
        let started = Instant::now();
        let waiter = std::thread::spawn(move || {
            let got: Vec<TryRecv<u32>> = (0..4).map(|_| rx.next_timeout(timeout)).collect();
            (got, rx)
        });
        // The drop flushes the partial batch, then wakes the waiter.
        drop(tx);
        let (got, mut rx) = waiter.join().unwrap();
        assert!(
            started.elapsed() < timeout,
            "disconnect must wake the waiter"
        );
        assert_eq!(
            got,
            vec![
                TryRecv::Item(0),
                TryRecv::Item(1),
                TryRecv::Item(2),
                TryRecv::Disconnected
            ]
        );
        assert_eq!(rx.next_timeout(timeout), TryRecv::Disconnected);
    }

    #[test]
    fn bound_applies_backpressure() {
        let (mut tx, mut rx) = batch_channel::<u32>(1, 1);
        tx.push(1).unwrap();
        // The second shipment must block until the consumer takes one; run
        // it on a helper thread and confirm it completes once we receive.
        let helper = std::thread::spawn(move || tx.push(2).is_ok());
        assert_eq!(rx.next(), Some(1));
        assert_eq!(rx.next(), Some(2));
        assert!(helper.join().unwrap());
    }
}
