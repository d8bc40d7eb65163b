//! # rainbow-replication
//!
//! Replication control protocols (RCP) of the Rainbow reproduction:
//! Read-One-Write-All (ROWA), Quorum Consensus (QC, the Rainbow default),
//! Available Copies (AC), Tree Quorum (TQ) and Primary Copy (PC).
//!
//! Section 2.1 of the paper describes the QC flow: "QC starts by building a
//! quorum (read or write) for the first operation of the transaction. To do
//! this, QC needs first to find a set of sites from whom the quorum can be
//! built. QC then sends each site in the set a request for that site's local
//! copies. At that site, copies are read (returning their current value) or
//! pre-written (returning their current version number) through CCP."
//!
//! This crate contains the *pure logic* half of that flow, independent of
//! messaging, so it can be unit- and property-tested exhaustively:
//!
//! * [`plan`] — [`plan::QuorumPlan`] (which sites may be contacted, in
//!   preference order, and how many votes are needed) and
//!   [`plan::QuorumCollector`] (contacts the shortest prefix that can reach
//!   the threshold and widens to the spares behind it when a site fails,
//!   tracks responses/failures, decides when the quorum is assembled or has
//!   become impossible, picks the highest-version read result and the next
//!   write version);
//! * [`protocols`] — the [`protocols::ReplicationControl`] trait with the
//!   five planners and a factory keyed by
//!   [`rainbow_common::protocol::RcpKind`]. The planners adapt their target
//!   sets to the fault controller's live site-status view (passed in as
//!   `suspected_down`), which is what makes the fault-aware protocols (AC,
//!   TQ's degraded reads, PC's lease failover) possible as pure logic.
//!
//! The transaction manager in `rainbow-core` drives the plans over the
//! simulated network: one copy-access request per contacted site, one
//! response per live contacted holder.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod plan;
pub mod protocols;

pub use plan::{QuorumCollector, QuorumKind, QuorumOutcome, QuorumPlan, QuorumResponse};
pub use protocols::{
    make_rcp, AvailableCopies, PrimaryCopy, QuorumConsensus, ReadOneWriteAll, ReplicationControl,
    TreeQuorum,
};
