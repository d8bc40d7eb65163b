//! Arrival processes for simulated workloads.
//!
//! A *closed* workload keeps a fixed number of transactions in the system
//! (the multiprogramming level, MPL); an *open* workload submits
//! transactions at a given rate regardless of completions (Poisson
//! arrivals). The control layer uses the generated inter-arrival delays to
//! pace submission.

use rainbow_common::rng::seeded_rng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// How transactions arrive at the system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Closed system: at most `mpl` transactions outstanding, the next one
    /// starts as soon as one finishes.
    Closed {
        /// Multiprogramming level.
        mpl: usize,
    },
    /// Open system: exponential (Poisson-process) inter-arrival times with
    /// the given mean rate in transactions per second.
    Poisson {
        /// Mean arrival rate (transactions per second).
        rate_per_sec: f64,
    },
    /// Open system with a constant inter-arrival gap.
    Uniform {
        /// Fixed gap between submissions.
        gap_micros: u64,
    },
}

impl ArrivalProcess {
    /// Inter-arrival delays for `n` transactions (the first delay is the gap
    /// before the first submission). Closed workloads have no pacing and
    /// return all-zero delays.
    pub fn delays(&self, n: usize, seed: u64) -> Vec<Duration> {
        match self {
            ArrivalProcess::Closed { .. } => vec![Duration::ZERO; n],
            ArrivalProcess::Uniform { gap_micros } => {
                vec![Duration::from_micros(*gap_micros); n]
            }
            ArrivalProcess::Poisson { rate_per_sec } => {
                let rate = rate_per_sec.max(f64::MIN_POSITIVE);
                let mut rng = seeded_rng(seed);
                (0..n)
                    .map(|_| {
                        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                        Duration::from_secs_f64((-u.ln() / rate).min(60.0))
                    })
                    .collect()
            }
        }
    }
}

impl Default for ArrivalProcess {
    fn default() -> Self {
        ArrivalProcess::Closed { mpl: 8 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_arrivals_have_no_delay_and_keep_mpl() {
        let process = ArrivalProcess::Closed { mpl: 4 };
        assert!(process.delays(10, 1).iter().all(|d| d.is_zero()));
    }

    #[test]
    fn uniform_arrivals_use_the_fixed_gap() {
        let process = ArrivalProcess::Uniform { gap_micros: 250 };
        let delays = process.delays(5, 1);
        assert_eq!(delays.len(), 5);
        assert!(delays.iter().all(|d| *d == Duration::from_micros(250)));
    }

    #[test]
    fn poisson_arrivals_average_the_requested_rate() {
        let process = ArrivalProcess::Poisson {
            rate_per_sec: 200.0,
        };
        let delays = process.delays(4000, 7);
        let mean_secs: f64 =
            delays.iter().map(|d| d.as_secs_f64()).sum::<f64>() / delays.len() as f64;
        // Expected mean inter-arrival = 1/200 = 5ms; allow 20% tolerance.
        assert!(
            (mean_secs - 0.005).abs() < 0.001,
            "observed mean inter-arrival {mean_secs}s"
        );
    }

    #[test]
    fn poisson_delays_are_deterministic_per_seed() {
        let process = ArrivalProcess::Poisson { rate_per_sec: 50.0 };
        assert_eq!(process.delays(10, 3), process.delays(10, 3));
        assert_ne!(process.delays(10, 3), process.delays(10, 4));
    }

    #[test]
    fn default_is_a_closed_mpl_8_system() {
        assert_eq!(ArrivalProcess::default(), ArrivalProcess::Closed { mpl: 8 });
    }
}
