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
//! crash) plus a durable log behind the pluggable [`engine::StorageEngine`]
//! trait, and a [`recovery`] module that rebuilds the store from the log
//! and reports in-doubt transactions to the commit layer.
//!
//! Two engines implement the trait: the original in-memory simulated WAL
//! ([`engine::MemoryEngine`], the fast deterministic default) and an
//! on-disk log-structured engine ([`disk::DiskEngine`]) with CRC-checked
//! segment files, rotation/compaction and power-loss recovery (torn or
//! corrupt tails are truncated; mid-log damage is a typed
//! [`rainbow_common::RainbowError::CorruptLog`]).
//!
//! A site's [`SiteStorage`] is part of the site's state, which the site's
//! event loop holds one drain at a time, so the storage layer has one owner
//! and takes no lock, starts no thread and waits on no one. The store is a
//! plain value, an engine is plain fields behind a `Send` (not `Sync`)
//! trait whose writes take `&mut self`, the memory engine's log is not
//! shared, and [`SiteStorage`] holds the store and the engine in one
//! `RefCell` — neither `Sync` nor `Clone`, so the one-owner rule is the
//! compiler's to check. Every force is a group,
//! [`engine::StorageEngine::append_forced_many`], and a lone commit is a
//! group of one. A checkpoint runs inline, in the commit that outgrew the
//! threshold.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod disk;
pub mod engine;
pub mod recovery;
pub mod store;
pub mod wal;

pub use disk::DiskEngine;
pub use engine::{EngineKind, MemoryEngine, PowerLossFault, StorageConfig, StorageEngine};
pub use recovery::{recover, replay, RecoveryOutcome};
pub use store::{CopyState, SiteStorage, VersionedStore};
pub use wal::{LogRecord, LogSequence, WriteAheadLog};
