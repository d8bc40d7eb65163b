//! The pluggable storage-engine boundary.
//!
//! A [`StorageEngine`] is the durable half of a site: everything below the
//! versioned in-memory store. Two engines implement it:
//!
//! * [`MemoryEngine`] — the original simulated WAL ([`WriteAheadLog`]):
//!   fast, deterministic, "durability" is a forced prefix of a `Vec`. The
//!   default for tests and protocol experiments.
//! * [`crate::disk::DiskEngine`] — append-only CRC-checked segment files
//!   with group-commit fsync batching, rotation and compaction. The engine
//!   the power-loss chaos runs against.
//!
//! Engine selection and tuning live in [`StorageConfig`], which rides in
//! `ClusterConfig` so a whole cluster (and the nemesis) can be pointed at
//! either engine with one knob or the `RAINBOW_ENGINE` environment
//! variable.

use crate::recovery::RecoveryOutcome;
use crate::wal::{LogRecord, WriteAheadLog};
use rainbow_common::{ItemId, RainbowResult, Value, Version};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which engine implementation a site runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The in-memory simulated WAL (fast, deterministic default).
    Memory,
    /// The on-disk log-structured engine (real files, real fsync).
    Disk,
}

impl EngineKind {
    /// Stable lowercase name (matches the `RAINBOW_ENGINE` values).
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Memory => "memory",
            EngineKind::Disk => "disk",
        }
    }
}

/// What a power loss does to the bytes that were in flight when the plug
/// was pulled. `Clean` models the lucky case (the last write completed);
/// the other two model the torn and bit-flipped tails that CRC-checked
/// recovery exists to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PowerLossFault {
    /// Volatile state is lost; the durable log is intact.
    Clean,
    /// The record being written when power died reached the disk only
    /// partially: the active segment ends mid-frame.
    TornWrite,
    /// The record reached the disk complete but damaged: the active
    /// segment ends with a full frame whose CRC cannot match.
    CorruptWrite,
}

impl PowerLossFault {
    /// Every fault, in severity order — what the nemesis samples from.
    pub const ALL: [PowerLossFault; 3] = [
        PowerLossFault::Clean,
        PowerLossFault::TornWrite,
        PowerLossFault::CorruptWrite,
    ];

    /// Stable lowercase name used in schedules and reports.
    pub fn name(&self) -> &'static str {
        match self {
            PowerLossFault::Clean => "clean",
            PowerLossFault::TornWrite => "torn-write",
            PowerLossFault::CorruptWrite => "corrupt-write",
        }
    }
}

/// Storage-engine selection and tuning for every site of a cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageConfig {
    /// Which engine to run.
    pub engine: EngineKind,
    /// Root directory for disk engines; each site stores its segments in
    /// `<data_dir>/site-<id>/`. Required when `engine` is
    /// [`EngineKind::Disk`], ignored for memory.
    pub data_dir: Option<PathBuf>,
    /// Coalesce concurrent forced appends into one `fsync` (group commit).
    /// When off, every forced append pays its own sync — the baseline the
    /// storage benchmark compares against.
    pub fsync_batching: bool,
    /// Rotate the active segment once it grows past this many bytes.
    pub segment_max_bytes: u64,
    /// Compact (checkpoint into a fresh segment, drop the old ones) once
    /// the total on-disk log grows past this many bytes.
    pub compaction_threshold_bytes: u64,
    /// Remove the data directory when the cluster shuts down. Set by
    /// [`StorageConfig::from_env`] for throwaway test runs; leave `false`
    /// to keep data across restarts.
    pub ephemeral: bool,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig::memory()
    }
}

static EPHEMERAL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

impl StorageConfig {
    /// The in-memory engine (the fast deterministic default).
    pub fn memory() -> Self {
        StorageConfig {
            engine: EngineKind::Memory,
            data_dir: None,
            fsync_batching: true,
            segment_max_bytes: 4 << 20,
            compaction_threshold_bytes: 8 << 20,
            ephemeral: false,
        }
    }

    /// The disk engine rooted at `data_dir`.
    pub fn disk(data_dir: impl Into<PathBuf>) -> Self {
        StorageConfig {
            engine: EngineKind::Disk,
            data_dir: Some(data_dir.into()),
            ..StorageConfig::memory()
        }
    }

    /// Engine selection from the `RAINBOW_ENGINE` environment variable:
    /// `disk` gives a disk engine in a fresh ephemeral directory under the
    /// system temp dir (removed at cluster shutdown); anything else (or
    /// unset) gives the memory engine. This is how the CI matrix points
    /// the whole test suite at either engine without touching code.
    pub fn from_env() -> Self {
        match std::env::var("RAINBOW_ENGINE").as_deref() {
            Ok("disk") => {
                let seq = EPHEMERAL_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
                let dir =
                    std::env::temp_dir().join(format!("rainbow-data-{}-{seq}", std::process::id()));
                StorageConfig {
                    ephemeral: true,
                    ..StorageConfig::disk(dir)
                }
            }
            _ => StorageConfig::memory(),
        }
    }

    /// Disables group-commit fsync batching (benchmark baseline).
    pub fn without_fsync_batching(mut self) -> Self {
        self.fsync_batching = false;
        self
    }

    /// Overrides the segment rotation size.
    pub fn with_segment_max_bytes(mut self, bytes: u64) -> Self {
        self.segment_max_bytes = bytes;
        self
    }

    /// Overrides the compaction threshold.
    pub fn with_compaction_threshold(mut self, bytes: u64) -> Self {
        self.compaction_threshold_bytes = bytes;
        self
    }

    /// Checks internal consistency (a disk engine needs a directory).
    pub fn validate(&self) -> RainbowResult<()> {
        if self.engine == EngineKind::Disk && self.data_dir.is_none() {
            return Err(rainbow_common::RainbowError::InvalidConfig(
                "disk storage engine requires a data_dir".to_string(),
            ));
        }
        if self.segment_max_bytes == 0 || self.compaction_threshold_bytes == 0 {
            return Err(rainbow_common::RainbowError::InvalidConfig(
                "segment and compaction sizes must be non-zero".to_string(),
            ));
        }
        Ok(())
    }
}

/// The durable log interface a site's storage runs against.
///
/// Forced appends are the commit path's "write and flush": the engine must
/// not acknowledge them before the record would survive a power loss. The
/// memory engine simulates that with a forced-prefix marker; the disk
/// engine pays a real `fsync`.
pub trait StorageEngine: Send + Sync + std::fmt::Debug {
    /// Which engine this is.
    fn kind(&self) -> EngineKind;

    /// Appends a record without forcing it; it may be lost on power loss.
    fn append(&self, record: LogRecord);

    /// Appends a record and forces the log up to and including it. Returns
    /// only once the record is durable.
    fn append_forced(&self, record: LogRecord);

    /// Appends several records and forces the log once for the whole
    /// group, returning only when every record is durable. Semantically
    /// equivalent to forcing each record in order, but an engine can pay a
    /// single sync for the multi-transaction batch — this is how the
    /// group-commit pipeline hands one batch envelope's commit-time records
    /// to the fsync batcher as one unit instead of relying on lucky timing.
    fn append_forced_many(&self, records: Vec<LogRecord>) {
        if records.is_empty() {
            return;
        }
        for record in records {
            self.append(record);
        }
        self.force();
    }

    /// Forces everything appended so far.
    fn force(&self);

    /// Number of force (sync) operations performed. With group commit this
    /// is the number of *batches*, not the number of forced appends.
    fn force_count(&self) -> u64;

    /// Number of records currently in the log (durable or not).
    fn record_count(&self) -> usize;

    /// Total bytes the log occupies on disk (0 for the memory engine).
    fn log_bytes(&self) -> u64;

    /// Writes a checkpoint of `state` and compacts the log, retaining
    /// undecided prepares.
    fn checkpoint(&self, state: Vec<(ItemId, Value, Version)>);

    /// True when the log has grown enough that the caller should
    /// checkpoint soon.
    fn wants_compaction(&self) -> bool;

    /// (Re)opens the durable log and replays it: rebuilds the committed
    /// state and the in-doubt transaction set, truncating a torn or
    /// corrupt tail. Mid-log damage is a [`rainbow_common::RainbowError::CorruptLog`].
    fn recover(&self) -> RainbowResult<RecoveryOutcome>;

    /// Pulls the plug: all volatile engine state (buffers, unforced
    /// records) is lost; only what was synced survives. `fault` optionally
    /// injects a torn or corrupt tail into the durable log, as a real
    /// power loss would. The engine stays "off" until [`StorageEngine::recover`].
    fn power_loss(&self, fault: PowerLossFault);

    /// Flushes and syncs everything buffered (clean-shutdown path).
    fn flush_and_sync(&self) -> RainbowResult<()>;
}

/// The in-memory engine: the original simulated [`WriteAheadLog`].
#[derive(Debug, Default)]
pub struct MemoryEngine {
    log: WriteAheadLog,
}

impl MemoryEngine {
    /// A fresh, empty memory engine.
    pub fn new() -> Self {
        MemoryEngine::default()
    }

    /// The underlying simulated WAL (tests inspect record streams).
    pub fn wal(&self) -> &WriteAheadLog {
        &self.log
    }
}

impl StorageEngine for MemoryEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Memory
    }

    fn append(&self, record: LogRecord) {
        self.log.append(record);
    }

    fn append_forced(&self, record: LogRecord) {
        self.log.append_forced(record);
    }

    fn force(&self) {
        self.log.force();
    }

    fn force_count(&self) -> u64 {
        self.log.force_count()
    }

    fn record_count(&self) -> usize {
        self.log.len()
    }

    fn log_bytes(&self) -> u64 {
        0
    }

    fn checkpoint(&self, state: Vec<(ItemId, Value, Version)>) {
        self.log.checkpoint(state);
    }

    fn wants_compaction(&self) -> bool {
        false
    }

    fn recover(&self) -> RainbowResult<RecoveryOutcome> {
        Ok(crate::recovery::recover(&self.log))
    }

    fn power_loss(&self, _fault: PowerLossFault) {
        // There are no real bytes to tear or flip; losing the unforced
        // tail is the whole fault model.
        self.log.simulate_crash();
    }

    fn flush_and_sync(&self) -> RainbowResult<()> {
        self.log.force();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbow_common::{SiteId, TxnId};

    #[test]
    fn config_defaults_and_builders() {
        let config = StorageConfig::default();
        assert_eq!(config.engine, EngineKind::Memory);
        assert!(config.fsync_batching);
        assert!(config.validate().is_ok());

        let disk = StorageConfig::disk("/tmp/somewhere")
            .without_fsync_batching()
            .with_segment_max_bytes(1024)
            .with_compaction_threshold(4096);
        assert_eq!(disk.engine, EngineKind::Disk);
        assert!(!disk.fsync_batching);
        assert_eq!(disk.segment_max_bytes, 1024);
        assert_eq!(disk.compaction_threshold_bytes, 4096);
        assert!(disk.validate().is_ok());

        let broken = StorageConfig {
            engine: EngineKind::Disk,
            data_dir: None,
            ..StorageConfig::memory()
        };
        assert!(broken.validate().is_err());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(EngineKind::Memory.name(), "memory");
        assert_eq!(EngineKind::Disk.name(), "disk");
        assert_eq!(PowerLossFault::Clean.name(), "clean");
        assert_eq!(PowerLossFault::TornWrite.name(), "torn-write");
        assert_eq!(PowerLossFault::CorruptWrite.name(), "corrupt-write");
    }

    #[test]
    fn memory_engine_power_loss_drops_unforced_tail() {
        let engine = MemoryEngine::new();
        let txn = TxnId::new(SiteId(0), 1);
        engine.append_forced(LogRecord::Commit {
            txn,
            writes: vec![],
        });
        engine.append(LogRecord::Begin {
            txn: TxnId::new(SiteId(0), 2),
        });
        assert_eq!(engine.record_count(), 2);
        engine.power_loss(PowerLossFault::TornWrite);
        assert_eq!(engine.record_count(), 1);
        let outcome = engine.recover().unwrap();
        assert_eq!(outcome.replayed_records, 1);
        assert_eq!(engine.kind(), EngineKind::Memory);
        assert_eq!(engine.log_bytes(), 0);
        assert!(!engine.wants_compaction());
        assert!(engine.flush_and_sync().is_ok());
    }
}
