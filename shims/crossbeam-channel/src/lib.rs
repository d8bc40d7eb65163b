//! Minimal `crossbeam-channel` shim: a multi-producer multi-consumer FIFO
//! channel built on `Mutex` + `Condvar`, with cloneable senders *and*
//! receivers, optional capacity bounds, and crossbeam's disconnect
//! semantics (a side disconnects when its last handle is dropped).

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Error returned by [`Sender::send`] when every receiver is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

/// Error returned by [`Receiver::recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiving on an empty and disconnected channel")
    }
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Nothing arrived before the timeout.
    Timeout,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    /// Waits of receivers (queue empty) and of bounded senders (queue full).
    readable: Condvar,
    writable: Condvar,
    capacity: Option<usize>,
    senders: AtomicUsize,
    receivers: AtomicUsize,
}

impl<T> Inner<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Tells a sender waiting on a full queue that a message was taken out.
    /// Only a bounded channel can have one, and `std`'s condvar pays a
    /// system call per notification whether or not anybody waits.
    fn notify_writable(&self) {
        if self.capacity.is_some() {
            self.writable.notify_one();
        }
    }
}

/// The sending half of a channel.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

/// The receiving half of a channel.
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

/// Creates a channel of unbounded capacity.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(None)
}

/// Creates a channel holding at most `cap` messages.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    channel(Some(cap))
}

fn channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            queue: VecDeque::new(),
        }),
        readable: Condvar::new(),
        writable: Condvar::new(),
        capacity,
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
    });
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.senders.fetch_add(1, Ordering::SeqCst);
        Sender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.inner.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last sender gone: wake blocked receivers so they observe the
            // disconnect.
            let _guard = self.inner.lock();
            self.inner.readable.notify_all();
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.inner.receivers.fetch_add(1, Ordering::SeqCst);
        Receiver {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if self.inner.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _guard = self.inner.lock();
            self.inner.writable.notify_all();
        }
    }
}

impl<T> Sender<T> {
    /// Sends `value`, blocking while a bounded channel is full. Fails only
    /// when every receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.inner.lock();
        loop {
            if self.inner.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendError(value));
            }
            match self.inner.capacity {
                Some(cap) if state.queue.len() >= cap => {
                    state = self
                        .inner
                        .writable
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                _ => break,
            }
        }
        state.queue.push_back(value);
        drop(state);
        self.inner.readable.notify_one();
        Ok(())
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// True when no message is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Receiver<T> {
    /// Receives a message, blocking until one arrives or every sender is
    /// dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.inner.lock();
        loop {
            if let Some(value) = state.queue.pop_front() {
                drop(state);
                self.inner.notify_writable();
                return Ok(value);
            }
            if self.inner.senders.load(Ordering::SeqCst) == 0 {
                return Err(RecvError);
            }
            state = self
                .inner
                .readable
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Receives a message, giving up after `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.inner.lock();
        loop {
            if let Some(value) = state.queue.pop_front() {
                drop(state);
                self.inner.notify_writable();
                return Ok(value);
            }
            if self.inner.senders.load(Ordering::SeqCst) == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            let (s, _timeout_result) = self
                .inner
                .readable
                .wait_timeout(state, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            state = s;
        }
    }

    /// Receives a message if one is already queued.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.inner.lock();
        if let Some(value) = state.queue.pop_front() {
            drop(state);
            self.inner.notify_writable();
            return Ok(value);
        }
        if self.inner.senders.load(Ordering::SeqCst) == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// True when no message is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn unbounded_fifo_order() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.try_recv().unwrap(), 2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn recv_timeout_expires() {
        let (tx, rx) = unbounded::<u8>();
        let start = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(30)),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(start.elapsed() >= Duration::from_millis(25));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn disconnects_when_all_senders_drop() {
        let (tx, rx) = unbounded::<u8>();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(9).unwrap();
        drop(tx2);
        assert_eq!(rx.recv().unwrap(), 9);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_without_receivers() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(5), Err(SendError(5)));
    }

    #[test]
    fn bounded_blocks_until_drained() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let sender = thread::spawn(move || tx.send(2).map(|_| ()));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv().unwrap(), 1);
        sender.join().unwrap().unwrap();
        assert_eq!(rx.recv().unwrap(), 2);
    }

    #[test]
    fn cloned_receivers_share_the_queue() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let a = rx.recv().unwrap();
        let b = rx2.recv().unwrap();
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn many_producers_many_consumers() {
        let (tx, rx) = unbounded();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..100 {
                        tx.send(p * 100 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut got = 0usize;
                    while rx.recv().is_ok() {
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        drop(rx);
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 400);
    }
}
