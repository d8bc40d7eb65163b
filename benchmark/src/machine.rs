//! How fast the machine is right now at the kind of work a Rainbow
//! transaction is made of.
//!
//! On a shared sandbox the cost of kernel-bound work — creating a thread,
//! waking one up through a channel — drifts by ±20 % over minutes (more when
//! a neighbour steals the CPU) while plain computation drifts by 2 %, and a
//! Rainbow transaction is almost only such work: ten 20 s runs of one binary
//! spread by 15–45 % in commits per second. A run therefore measures the
//! neighbours as much as the program. The benchmark times a fixed loop of
//! exactly that work between the slices of every round and expresses the
//! round's times in the reference machine's time — elapsed × speed, where
//! speed is the loop's rate as a share of its rate on the quiet reference
//! sandbox — which brings the same ten runs within 4–6 %. The raw figures
//! and the speed are reported next to the scaled ones.
//!
//! The loop mirrors what the runtime does today (a thread per request,
//! a channel hop per message). When the runtime stops being bound by thread
//! creation and wake-ups, the loop should be revisited — as a change to the
//! benchmark of its own, with the baseline measured again.

use crate::workload::CLIENTS;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Cycles per second of [`calibration_rate`] on the 2-core reference sandbox
/// on a typical afternoon. Only anchors the scale: at this rate, figures are
/// reported as measured.
pub const REFERENCE_RATE: f64 = 10_000.0;

/// Threads spawned, messaged and joined per cycle: as many as a
/// one-increment transaction spawns.
const SPAWNS: usize = 4;

/// Cycles per second, on as many threads as there are clients, of: spawn a
/// thread, receive a message from it over a channel, join it — four times.
pub fn calibration_rate(duration: Duration) -> f64 {
    let start = Instant::now();
    let deadline = start + duration;
    let cycles: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let mut cycles = 0;
                    while Instant::now() < deadline {
                        cycle();
                        cycles += 1;
                    }
                    cycles
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("calibration thread panicked"))
            .sum()
    });
    cycles as f64 / start.elapsed().as_secs_f64()
}

fn cycle() {
    for message in 0..SPAWNS as u64 {
        let (to_us, inbox) = mpsc::channel::<u64>();
        let peer = std::thread::spawn(move || {
            let _ = to_us.send(message);
        });
        assert_eq!(inbox.recv(), Ok(message));
        peer.join().expect("calibration peer panicked");
    }
}
