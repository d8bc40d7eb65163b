//! # rainbow-net
//!
//! The network simulator and fault/recovery injector of the Rainbow
//! reproduction.
//!
//! The paper lists, among Rainbow's experimentation facilities, "a network
//! simulator and fault/recovery injector" that the GUI configures before
//! anything else. This crate provides that substrate:
//!
//! * [`config`] — latency models (constant, uniform, normal), per-link loss
//!   probabilities and per-pair overrides;
//! * [`node`] — the identity of communicating processes (Rainbow sites, the
//!   name server, workload clients);
//! * [`network`] — [`network::SimNetwork`], an in-process message-passing
//!   fabric that applies latency, loss, partitions and crash faults to
//!   every message; a delayed message waits in a background delivery
//!   thread, which sleeps to just before its due time and yields the last
//!   100 µs, so a 500 µs link takes 500 µs and not a timer's slack more;
//! * [`mailbox`] — [`mailbox::recv_soon`], the receive of a loop that
//!   expects its answer within microseconds: it polls the mailbox a few
//!   times, yielding between checks, before it blocks;
//! * [`fault`] — the fault injector handle used by experiments and the
//!   Session API to crash/recover sites and create/heal partitions while a
//!   workload is running;
//! * [`counters`] — message-traffic accounting (total and per kind)
//!   feeding the paper's "total number of messages generated per time unit"
//!   and the quorum message-traffic experiments.
//!
//! The simulator is deterministic given a seed for its random latency/loss
//! draws, which keeps experiments repeatable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod config;
pub mod counters;
pub mod fault;
pub mod mailbox;
pub mod network;
pub mod node;

pub use batch::{FlushStats, Outbox};
pub use config::{LatencyModel, LinkConfig, LinkOverride, NetworkConfig};
pub use counters::NetworkCounters;
pub use fault::FaultController;
pub use mailbox::recv_soon;
pub use network::{Envelope, NetHandle, NetMessage, SimNetwork};
pub use node::NodeId;
