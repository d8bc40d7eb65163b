//! # rainbow-core
//!
//! The Rainbow core: "the name server and a number of Rainbow sites"
//! (Section 2 of the paper), plus the transaction manager that wires the
//! three protocol layers together and the progress monitor that produces the
//! statistics panel of Figure 5.
//!
//! * [`messages`] — the protocol message set exchanged between sites, the
//!   name server and clients over the `rainbow-net` simulator;
//! * [`name_server`] — the (single, per-instance) name server storing the
//!   distribution, fragmentation and replication schema and answering
//!   lookups from sites;
//! * [`site`] — the Rainbow site runtime: one thread running one event loop
//!   that never waits (a copy access the configured CCP can decide is
//!   answered at once; one that must wait is parked and asked again after
//!   every message handled — no thread is lent to it), handles 2PC/3PC as a
//!   participant and drives the coordinators of the transactions whose home
//!   the site is;
//! * [`coordinator`] — the home-site transaction manager: one state machine
//!   per transaction that drives the RCP (quorum building per operation),
//!   then the ACP, and classifies aborts by the layer that caused them. The
//!   paper's site "dedicates one thread to process" each transaction; here
//!   the transaction is a machine on its home site's loop and no thread is
//!   created for it;
//! * [`cluster`] — builds a complete Rainbow instance (network + name
//!   server + sites) from configuration and offers the client API used by
//!   the workload generator, the Session layer, the examples and the
//!   benches;
//! * [`client`] — the interactive transaction API: `Cluster::client()`
//!   hands out [`client::Client`] handles whose `begin → read/write →
//!   commit` conversations drive the coordinator one operation at a time,
//!   with typed layer-attributed errors, abort-on-drop safety and a retry
//!   combinator. Both a `Txn` and the endpoint that runs one-shot
//!   `TxnSpec`s drive the same sans-IO conversation on their caller's
//!   thread;
//! * [`metrics`] — per-site metrics and the global progress monitor.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod cluster;
pub mod coordinator;
pub mod messages;
pub mod metrics;
pub mod name_server;
pub mod site;

pub use client::{Client, RetryPolicy, Txn};
pub use cluster::{Cluster, ClusterConfig};
pub use messages::{Msg, NextOp, OpReply};
pub use metrics::{ProgressMonitor, SiteMetrics};
pub use name_server::NameServer;
pub use rainbow_storage::{EngineKind, PowerLossFault, StorageConfig};
pub use site::SiteHandle;
