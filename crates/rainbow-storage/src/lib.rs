//! # rainbow-storage
//!
//! Per-site storage substrate of the Rainbow reproduction: a versioned,
//! in-memory item store backed by a write-ahead log, with crash and
//! recovery simulation.
//!
//! The original Rainbow paper does not describe its storage layer in detail
//! (the Java demo keeps copies in memory), but atomic commitment and the
//! fault-injection experiments need something real to force and recover:
//!
//! * the two-phase-commit participant must *force* a prepare record before
//!   voting YES and must be able to find in-doubt transactions after a
//!   crash;
//! * quorum consensus needs per-copy **version numbers** that survive site
//!   recovery;
//! * the failure-injection experiments (`tests/failures_and_recovery.rs`, the
//!   chaos laboratory) crash sites in the
//!   middle of transactions and expect committed data to survive and
//!   uncommitted data to disappear.
//!
//! The model is therefore: a volatile [`store::VersionedStore`] (lost on
//! crash) plus a durable log, and a [`recovery`] module that rebuilds the
//! store from the log and reports in-doubt transactions to the commit
//! layer.
//!
//! There is one log engine, [`disk::DiskEngine`]: CRC-checked frames
//! ([`codec`]) in segments with rotation, compaction and power-loss
//! recovery (torn or corrupt tails are truncated; mid-log damage is a
//! typed [`rainbow_common::RainbowError::CorruptLog`]). Its bytes live on a
//! [`medium::Medium`]: segment files ([`medium::FileMedium`]) or byte
//! vectors in memory ([`medium::MemMedium`], the fast default). The same
//! code frames, tears, compacts and recovers on both, as FoundationDB's
//! simulated disk runs its storage code over simulated bytes.
//!
//! A site's [`SiteStorage`] is part of the site's state, which the site's
//! event loop holds one drain at a time, so the storage layer has one owner
//! and takes no lock, starts no thread and waits on no one. The store is a
//! plain value, the engine and its medium are plain fields whose writes
//! take `&mut self` (a medium is `Send`, not `Sync`), and [`SiteStorage`]
//! holds the store and the engine in one `RefCell` — neither `Sync` nor
//! `Clone`, so the one-owner rule is the compiler's to check. Every force
//! is a group, [`disk::DiskEngine::append_group`], and a lone commit is a
//! group of one. A force is a write and a sync: the owner may write a group
//! and hand the sync, through a [`medium::SyncHandle`], to a thread of its
//! own, holding back only what must wait for the group's ticket to be
//! durable. A checkpoint runs inline, in the commit that outgrew the
//! threshold.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod disk;
pub mod engine;
pub mod medium;
pub mod recovery;
pub mod store;
pub mod wal;

pub use disk::DiskEngine;
pub use engine::{EngineKind, PowerLossFault, StorageConfig};
pub use medium::{FileMedium, Medium, MemMedium, SyncHandle};
pub use recovery::{replay, RecoveryOutcome};
pub use store::{CopyState, SiteStorage, VersionedStore};
pub use wal::LogRecord;
