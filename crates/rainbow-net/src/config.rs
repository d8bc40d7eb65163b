//! Network simulation configuration: latency models, loss and per-link
//! overrides.
//!
//! The Rainbow GUI lets the user "configure a network simulation" before
//! configuring anything else; these types are that configuration in data
//! form, and the Session API in `rainbow-control` exposes them directly.

use crate::node::NodeId;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// How long a message takes from sender to receiver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum LatencyModel {
    /// Deliver immediately (useful for protocol unit tests).
    #[default]
    None,
    /// A fixed one-way delay in microseconds.
    Constant {
        /// One-way delay in microseconds.
        micros: u64,
    },
    /// Uniformly distributed delay in `[min_micros, max_micros]`.
    Uniform {
        /// Lower bound in microseconds.
        min_micros: u64,
        /// Upper bound in microseconds.
        max_micros: u64,
    },
    /// Normally distributed delay (truncated at zero).
    Normal {
        /// Mean delay in microseconds.
        mean_micros: u64,
        /// Standard deviation in microseconds.
        std_micros: u64,
    },
}

impl LatencyModel {
    /// Convenience constructor: a constant delay.
    pub fn constant(d: Duration) -> Self {
        LatencyModel::Constant {
            micros: d.as_micros() as u64,
        }
    }

    /// Convenience constructor: uniform in `[min, max]`.
    pub fn uniform(min: Duration, max: Duration) -> Self {
        LatencyModel::Uniform {
            min_micros: min.as_micros() as u64,
            max_micros: max.as_micros() as u64,
        }
    }

    /// Convenience constructor: normal with mean and standard deviation.
    pub fn normal(mean: Duration, std: Duration) -> Self {
        LatencyModel::Normal {
            mean_micros: mean.as_micros() as u64,
            std_micros: std.as_micros() as u64,
        }
    }

    /// Draws one delay sample.
    pub fn sample(&self, rng: &mut impl Rng) -> Duration {
        match *self {
            LatencyModel::None => Duration::ZERO,
            LatencyModel::Constant { micros } => Duration::from_micros(micros),
            LatencyModel::Uniform {
                min_micros,
                max_micros,
            } => {
                let (lo, hi) = if min_micros <= max_micros {
                    (min_micros, max_micros)
                } else {
                    (max_micros, min_micros)
                };
                Duration::from_micros(rng.gen_range(lo..=hi))
            }
            LatencyModel::Normal {
                mean_micros,
                std_micros,
            } => {
                // Box-Muller transform; avoids pulling in rand_distr.
                let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let sample = mean_micros as f64 + z * std_micros as f64;
                Duration::from_micros(sample.max(0.0) as u64)
            }
        }
    }

    /// The expected (mean) delay of the model, used by reports.
    pub fn mean(&self) -> Duration {
        match *self {
            LatencyModel::None => Duration::ZERO,
            LatencyModel::Constant { micros } => Duration::from_micros(micros),
            LatencyModel::Uniform {
                min_micros,
                max_micros,
            } => Duration::from_micros((min_micros + max_micros) / 2),
            LatencyModel::Normal { mean_micros, .. } => Duration::from_micros(mean_micros),
        }
    }
}

/// Behaviour of one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Latency applied to each message on the link.
    pub latency: LatencyModel,
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub loss_probability: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            latency: LatencyModel::None,
            loss_probability: 0.0,
        }
    }
}

impl LinkConfig {
    /// A perfect link: no latency, no loss.
    pub fn perfect() -> Self {
        LinkConfig::default()
    }

    /// A link with the given latency model and no loss.
    pub fn with_latency(latency: LatencyModel) -> Self {
        LinkConfig {
            latency,
            loss_probability: 0.0,
        }
    }

    /// Builder-style loss probability (clamped to `[0, 1]`).
    pub fn with_loss(mut self, probability: f64) -> Self {
        self.loss_probability = probability.clamp(0.0, 1.0);
        self
    }
}

/// A per-directed-link override entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkOverride {
    /// Sender side of the directed link.
    pub from: NodeId,
    /// Receiver side of the directed link.
    pub to: NodeId,
    /// Link behaviour replacing the default for this direction.
    pub link: LinkConfig,
}

/// Complete configuration of the simulated network.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Link behaviour used for every pair without an explicit override.
    pub default_link: LinkConfig,
    /// Per-directed-pair overrides (later entries win).
    pub overrides: Vec<LinkOverride>,
    /// Seed for latency/loss randomness (experiment repeatability).
    pub seed: u64,
}

impl NetworkConfig {
    /// A perfect network (no latency, no loss) — the default for unit tests.
    pub fn perfect() -> Self {
        NetworkConfig::default()
    }

    /// A LAN-like network: every link gets the same uniform latency.
    pub fn lan(min: Duration, max: Duration) -> Self {
        NetworkConfig {
            default_link: LinkConfig::with_latency(LatencyModel::uniform(min, max)),
            ..NetworkConfig::default()
        }
    }

    /// Builder-style seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style default-link override.
    pub fn with_default_link(mut self, link: LinkConfig) -> Self {
        self.default_link = link;
        self
    }

    /// Overrides the link from `from` to `to` (one direction only).
    pub fn override_link(mut self, from: NodeId, to: NodeId, link: LinkConfig) -> Self {
        self.overrides.push(LinkOverride { from, to, link });
        self
    }

    /// The effective configuration of the directed link `from → to`.
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkConfig {
        self.overrides
            .iter()
            .rev()
            .find(|o| o.from == from && o.to == to)
            .map(|o| o.link)
            .unwrap_or(self.default_link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbow_common::rng::seeded_rng;

    #[test]
    fn latency_model_samples_respect_bounds() {
        let mut rng = seeded_rng(1);
        assert_eq!(LatencyModel::None.sample(&mut rng), Duration::ZERO);
        assert_eq!(
            LatencyModel::constant(Duration::from_millis(3)).sample(&mut rng),
            Duration::from_millis(3)
        );
        let uniform = LatencyModel::uniform(Duration::from_micros(100), Duration::from_micros(200));
        for _ in 0..200 {
            let d = uniform.sample(&mut rng);
            assert!(d >= Duration::from_micros(100) && d <= Duration::from_micros(200));
        }
    }

    #[test]
    fn uniform_with_swapped_bounds_does_not_panic() {
        let mut rng = seeded_rng(2);
        let swapped = LatencyModel::Uniform {
            min_micros: 500,
            max_micros: 100,
        };
        for _ in 0..50 {
            let d = swapped.sample(&mut rng);
            assert!(d >= Duration::from_micros(100) && d <= Duration::from_micros(500));
        }
    }

    #[test]
    fn normal_latency_centres_on_mean_and_never_negative() {
        let mut rng = seeded_rng(3);
        let model = LatencyModel::normal(Duration::from_micros(1000), Duration::from_micros(200));
        let samples: Vec<Duration> = (0..2000).map(|_| model.sample(&mut rng)).collect();
        let mean_us: f64 =
            samples.iter().map(|d| d.as_micros() as f64).sum::<f64>() / samples.len() as f64;
        assert!((mean_us - 1000.0).abs() < 50.0, "observed mean {mean_us}");
    }

    #[test]
    fn latency_means() {
        assert_eq!(LatencyModel::None.mean(), Duration::ZERO);
        assert_eq!(
            LatencyModel::constant(Duration::from_millis(2)).mean(),
            Duration::from_millis(2)
        );
        assert_eq!(
            LatencyModel::uniform(Duration::from_micros(100), Duration::from_micros(300)).mean(),
            Duration::from_micros(200)
        );
        assert_eq!(
            LatencyModel::normal(Duration::from_micros(150), Duration::from_micros(10)).mean(),
            Duration::from_micros(150)
        );
    }

    #[test]
    fn link_config_builders_clamp_loss() {
        let link = LinkConfig::perfect().with_loss(1.5);
        assert_eq!(link.loss_probability, 1.0);
        let link = LinkConfig::perfect().with_loss(-0.5);
        assert_eq!(link.loss_probability, 0.0);
        let link = LinkConfig::with_latency(LatencyModel::constant(Duration::from_millis(1)));
        assert_eq!(link.loss_probability, 0.0);
    }

    #[test]
    fn network_config_link_lookup_uses_overrides() {
        let a = NodeId::site(0);
        let b = NodeId::site(1);
        let cfg = NetworkConfig::lan(Duration::from_micros(100), Duration::from_micros(300))
            .with_seed(9)
            .override_link(a, b, LinkConfig::perfect().with_loss(0.5));
        assert_eq!(cfg.link(a, b).loss_probability, 0.5);
        // The reverse direction keeps the default.
        assert_eq!(cfg.link(b, a).loss_probability, 0.0);
        assert_eq!(cfg.seed, 9);
    }

    #[test]
    fn perfect_network_is_default() {
        assert_eq!(NetworkConfig::perfect(), NetworkConfig::default());
    }
}
