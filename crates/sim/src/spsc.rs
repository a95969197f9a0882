//! A minimal bounded single-producer single-consumer channel.
//!
//! Built on `Mutex` + `Condvar` only (the workspace is offline and vendors
//! no concurrency crates). One producer hands fixed-size work chunks to one
//! consumer; the bound provides backpressure so a fast simulator cannot
//! buffer an unbounded backlog ahead of a slow analysis thread. Dropping
//! the [`Sender`] closes the channel ([`Receiver::recv`] drains what is
//! buffered, then returns `None`); dropping the [`Receiver`] makes further
//! [`Sender::send`] calls fail fast with the rejected value.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct State<T> {
    buf: VecDeque<T>,
    producer_alive: bool,
    consumer_alive: bool,
}

/// Locks the channel state, recovering from poisoning. Every mutation of
/// [`State`] is panic-atomic (plain field writes and `VecDeque` ops that
/// leave the queue consistent even if an allocation panics mid-call), so a
/// poisoned lock only means *some other* thread panicked while holding it —
/// the state itself is still sound, and a resident service must keep
/// draining rather than cascade the panic across the pipeline.
fn lock_state<T>(mutex: &Mutex<State<T>>) -> MutexGuard<'_, State<T>> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

/// The producing half. Not clonable: single producer.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The consuming half. Not clonable: single consumer.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// A bounded channel of at most `capacity` in-flight items.
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            buf: VecDeque::with_capacity(capacity.max(1)),
            producer_alive: true,
            consumer_alive: true,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        capacity: capacity.max(1),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Blocks until a slot frees up, then enqueues `value`. Returns the
    /// value back if the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), T> {
        let mut state = lock_state(&self.shared.state);
        while state.buf.len() >= self.shared.capacity && state.consumer_alive {
            state = self
                .shared
                .not_full
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if !state.consumer_alive {
            return Err(value);
        }
        state.buf.push_back(value);
        drop(state);
        self.shared.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Receiver<T> {
    /// Blocks until an item arrives; `None` once the sender is gone and the
    /// buffer is drained.
    pub fn recv(&self) -> Option<T> {
        let mut state = lock_state(&self.shared.state);
        while state.buf.is_empty() && state.producer_alive {
            state = self
                .shared
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let item = state.buf.pop_front();
        drop(state);
        if item.is_some() {
            self.shared.not_full.notify_one();
        }
        item
    }

    /// Blocks until an item arrives, the producer disconnects
    /// ([`TryRecv::Disconnected`] once the buffer is drained), or `timeout`
    /// passes ([`TryRecv::Empty`]); a zero timeout never blocks. A consumer
    /// that must act on wall-clock time waits with this instead of parking
    /// in [`Receiver::recv`], so one stalled producer cannot wedge it, yet
    /// it wakes the moment an item is sent.
    pub fn recv_timeout(&self, timeout: Duration) -> TryRecv<T> {
        let mut state = lock_state(&self.shared.state);
        let mut started: Option<Instant> = None;
        while state.buf.is_empty() && state.producer_alive {
            let waited = started.map_or(Duration::ZERO, |s| s.elapsed());
            let Some(left) = timeout.checked_sub(waited).filter(|d| !d.is_zero()) else {
                break;
            };
            started.get_or_insert_with(Instant::now);
            state = self
                .shared
                .not_empty
                .wait_timeout(state, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        let item = state.buf.pop_front();
        let producer_alive = state.producer_alive;
        drop(state);
        match item {
            Some(item) => {
                self.shared.not_full.notify_one();
                TryRecv::Item(item)
            }
            None if producer_alive => TryRecv::Empty,
            None => TryRecv::Disconnected,
        }
    }

    /// Number of items currently buffered in the channel. A point-in-time
    /// snapshot for status reporting; it can be stale by the time it is read.
    pub fn queued(&self) -> usize {
        lock_state(&self.shared.state).buf.len()
    }
}

/// Outcome of a [`Receiver::recv_timeout`].
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

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = lock_state(&self.shared.state);
        state.producer_alive = false;
        drop(state);
        self.shared.not_empty.notify_one();
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = lock_state(&self.shared.state);
        state.consumer_alive = false;
        drop(state);
        self.shared.not_full.notify_one();
    }
}

/// The receiving half of a batch channel disconnected; items the producer
/// had buffered were discarded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Disconnected;

/// The producing half of a batched channel: items accumulate locally and
/// cross the channel `batch_len` at a time, so the per-item cost is a
/// `Vec::push`, not a mutex round-trip. A partial batch is flushed on
/// [`BatchSender::flush`] or on drop.
pub struct BatchSender<T> {
    tx: Sender<Vec<T>>,
    batch: Vec<T>,
    batch_len: usize,
}

/// The consuming half of a batched channel. Iterates items in send order,
/// pulling the next batch from the channel transparently; ends once the
/// sender is gone and everything buffered has been yielded.
pub struct BatchReceiver<T> {
    rx: Receiver<Vec<T>>,
    current: std::vec::IntoIter<T>,
}

/// A bounded channel carrying items in batches of `batch_len`, with at most
/// `capacity` full batches in flight. Backpressure therefore bounds the
/// consumer's backlog to roughly `capacity * batch_len` items plus one
/// partial batch.
pub fn batch_channel<T>(capacity: usize, batch_len: usize) -> (BatchSender<T>, BatchReceiver<T>) {
    let (tx, rx) = channel(capacity);
    let batch_len = batch_len.max(1);
    (
        BatchSender {
            tx,
            batch: Vec::with_capacity(batch_len),
            batch_len,
        },
        BatchReceiver {
            rx,
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

    /// Ships the current partial batch, if any.
    pub fn flush(&mut self) -> Result<(), Disconnected> {
        if self.batch.is_empty() {
            return Ok(());
        }
        let full = std::mem::replace(&mut self.batch, Vec::with_capacity(self.batch_len));
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
        let _ = self.flush();
    }
}

impl<T> BatchReceiver<T> {
    /// Non-blocking variant of `Iterator::next`: yields buffered items in
    /// order, [`TryRecv::Empty`] when the producer is alive but nothing has
    /// crossed the channel yet, [`TryRecv::Disconnected`] at true end.
    pub fn try_next(&mut self) -> TryRecv<T> {
        self.next_timeout(Duration::ZERO)
    }

    /// `Iterator::next` that gives up after `timeout` with
    /// [`TryRecv::Empty`]. Items of the batch in hand come out without
    /// touching the channel; only an exhausted batch waits, and it wakes as
    /// soon as the next batch ships or the producer disconnects.
    pub fn next_timeout(&mut self, timeout: Duration) -> TryRecv<T> {
        loop {
            if let Some(item) = self.current.next() {
                return TryRecv::Item(item);
            }
            match self.rx.recv_timeout(timeout) {
                TryRecv::Item(batch) => self.current = batch.into_iter(),
                TryRecv::Empty => return TryRecv::Empty,
                TryRecv::Disconnected => return TryRecv::Disconnected,
            }
        }
    }

    /// Full batches currently queued in the channel (excludes the batch this
    /// receiver is part-way through). Snapshot for status reporting.
    pub fn queued_batches(&self) -> usize {
        self.rx.queued()
    }
}

impl<T> Iterator for BatchReceiver<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        loop {
            if let Some(item) = self.current.next() {
                return Some(item);
            }
            self.current = self.rx.recv()?.into_iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_order_across_threads() {
        let (tx, rx) = channel::<u32>(2);
        let producer = std::thread::spawn(move || {
            for i in 0..1000 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<u32> = std::iter::from_fn(|| rx.recv()).collect();
        producer.join().unwrap();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn recv_drains_buffer_after_sender_drops() {
        let (tx, rx) = channel::<u32>(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn send_fails_fast_after_receiver_drops() {
        let (tx, rx) = channel::<u32>(1);
        drop(rx);
        assert_eq!(tx.send(7), Err(7));
    }

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
    fn batch_explicit_flush_ships_partial_batch() {
        let (mut tx, mut rx) = batch_channel::<u32>(4, 64);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        tx.flush().unwrap();
        assert_eq!(rx.next(), Some(1));
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
    fn zero_timeout_distinguishes_empty_from_disconnected() {
        let (tx, rx) = channel::<u32>(4);
        assert_eq!(rx.recv_timeout(Duration::ZERO), TryRecv::Empty);
        tx.send(9).unwrap();
        assert_eq!(rx.queued(), 1);
        assert_eq!(rx.recv_timeout(Duration::ZERO), TryRecv::Item(9));
        assert_eq!(rx.recv_timeout(Duration::ZERO), TryRecv::Empty);
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::ZERO), TryRecv::Disconnected);
        assert_eq!(rx.recv_timeout(Duration::ZERO), TryRecv::Disconnected);
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
    }

    #[test]
    fn channel_survives_a_panic_while_lock_is_held() {
        // Poison the state mutex by panicking inside a send on another
        // thread is hard to arrange deterministically; instead poison it
        // directly and confirm every entry point recovers.
        let (tx, rx) = channel::<u32>(4);
        let shared = Arc::clone(&tx.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.state.lock().unwrap();
            panic!("poison the spsc mutex");
        })
        .join();
        assert!(tx.shared.state.is_poisoned());
        tx.send(5).unwrap();
        assert_eq!(rx.queued(), 1);
        assert_eq!(rx.recv_timeout(Duration::ZERO), TryRecv::Item(5));
        assert_eq!(rx.recv_timeout(Duration::ZERO), TryRecv::Empty);
        drop(tx);
        assert_eq!(rx.recv(), None);
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
    fn next_timeout_survives_a_poisoned_lock() {
        let (mut tx, mut rx) = batch_channel::<u32>(4, 1);
        let shared = Arc::clone(&rx.rx.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.state.lock().unwrap();
            panic!("poison the spsc mutex");
        })
        .join();
        assert!(rx.rx.shared.state.is_poisoned());
        assert_eq!(rx.next_timeout(Duration::from_millis(5)), TryRecv::Empty);
        tx.push(3).unwrap();
        assert_eq!(rx.next_timeout(Duration::from_millis(5)), TryRecv::Item(3));
        drop(tx);
        assert_eq!(
            rx.next_timeout(Duration::from_millis(5)),
            TryRecv::Disconnected
        );
    }

    #[test]
    fn bound_applies_backpressure() {
        let (tx, rx) = channel::<u32>(1);
        tx.send(1).unwrap();
        // A second send must block until the consumer takes one; run it on
        // a helper thread and confirm it completes once we recv.
        let helper = std::thread::spawn(move || tx.send(2).is_ok());
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert!(helper.join().unwrap());
    }
}
