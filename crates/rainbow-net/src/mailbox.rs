//! Waiting on a mailbox for an answer that is due within microseconds.
//!
//! A site loop or a client that has just sent a message usually hears back
//! a few microseconds later: an increment is 8 hops in a row, each one a
//! loop taking a message, stepping and sending the next. Blocking in the
//! channel at once puts the thread to sleep in the kernel and makes the
//! sender wake it, on every hop. [`recv_soon`] first checks the mailbox
//! a few times (20), yielding the processor between checks, and blocks only
//! when nothing came meanwhile; an idle mailbox still ends in a blocking
//! wait, so an idle loop sleeps.

use crossbeam_channel::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::Duration;

/// How many yields [`recv_soon`] makes before it blocks. On the benchmark's
/// `update_disjoint` (2-core VM, two 5 s runs each) 4 read 37.0–38.3k
/// commits/s, 20 read 39.9–44.8k and 100 read 40.2–43.0k, against
/// 22.9–24.0k blocking at once.
const POLLS: usize = 20;

/// Receives from `mailbox`: checks it up to `POLLS` (20) times with a
/// `yield_now` between checks, then blocks for up to `timeout`. A zero
/// `timeout` checks once and never yields, so a loop whose deadline is due
/// does not spin. It reads no clock: the wait is `timeout` plus the yields.
pub fn recv_soon<T>(mailbox: &Receiver<T>, timeout: Duration) -> Result<T, RecvTimeoutError> {
    recv_after_polls(mailbox, timeout, std::thread::yield_now)
}

/// [`recv_soon`] with `pause` in place of the yield.
fn recv_after_polls<T>(
    mailbox: &Receiver<T>,
    timeout: Duration,
    mut pause: impl FnMut(),
) -> Result<T, RecvTimeoutError> {
    if !timeout.is_zero() {
        for _ in 0..POLLS {
            match mailbox.try_recv() {
                Ok(message) => return Ok(message),
                Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) => pause(),
            }
        }
    }
    mailbox.recv_timeout(timeout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::unbounded;
    use std::time::Instant;

    #[test]
    fn a_message_sent_while_it_polls_is_returned() {
        // Ping-pong: each answer is sent while this thread waits for it.
        let (ask, asked) = unbounded::<u32>();
        let (answer, answers) = unbounded();
        let echo = std::thread::spawn(move || {
            while let Ok(n) = asked.recv() {
                answer.send(n + 1).unwrap();
            }
        });
        for n in 0..1_000u32 {
            ask.send(n).unwrap();
            assert_eq!(recv_soon(&answers, Duration::from_secs(5)), Ok(n + 1));
        }
        drop(ask);
        echo.join().unwrap();
    }

    #[test]
    fn an_empty_mailbox_waits_the_timeout_and_times_out() {
        let (_tx, rx) = unbounded::<u8>();
        let mut yields = 0;
        let start = Instant::now();
        let heard = recv_after_polls(&rx, Duration::from_millis(30), || yields += 1);
        assert_eq!(heard, Err(RecvTimeoutError::Timeout));
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert_eq!(yields, POLLS);
    }

    #[test]
    fn a_zero_timeout_checks_once_and_never_yields() {
        let (tx, rx) = unbounded::<u8>();
        let mut yields = 0;
        let start = Instant::now();
        let heard = recv_after_polls(&rx, Duration::ZERO, || yields += 1);
        assert_eq!(heard, Err(RecvTimeoutError::Timeout));
        assert!(start.elapsed() < Duration::from_millis(20));
        tx.send(7).unwrap();
        assert_eq!(recv_after_polls(&rx, Duration::ZERO, || yields += 1), Ok(7));
        assert_eq!(yields, 0);
    }

    #[test]
    fn a_disconnected_mailbox_is_disconnected() {
        let (tx, rx) = unbounded::<u8>();
        drop(tx);
        let mut yields = 0;
        let heard = recv_after_polls(&rx, Duration::from_secs(5), || yields += 1);
        assert_eq!(heard, Err(RecvTimeoutError::Disconnected));
        assert_eq!(yields, 0, "a closed mailbox is not polled");
        assert_eq!(
            recv_soon(&rx, Duration::ZERO),
            Err(RecvTimeoutError::Disconnected)
        );
    }
}
