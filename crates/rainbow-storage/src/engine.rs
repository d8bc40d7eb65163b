//! Storage selection and the power-loss fault model.
//!
//! Every site runs one log engine, [`crate::disk::DiskEngine`]; what a
//! [`StorageConfig`] chooses is the *medium* its segments live on
//! ([`EngineKind`]): byte vectors in memory (the fast default for tests
//! and protocol experiments) or files in a directory (real `fsync`s, and
//! the data outlives the process). Both frame, checksum, rotate, compact
//! and tear alike.
//!
//! The config rides in `ClusterConfig`, so a whole cluster (and the
//! nemesis) can be pointed at either medium with one knob or the
//! `RAINBOW_ENGINE` environment variable.

use rainbow_common::RainbowResult;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which medium a site's log lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Segments as byte vectors in memory (the fast default): lost with
    /// the process, torn and compacted like files.
    Memory,
    /// Segment files in a directory (real files, real fsync).
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
    /// The record being written when power died reached the medium only
    /// partially: the active segment ends mid-frame.
    TornWrite,
    /// The record reached the medium complete but damaged: the active
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

/// Storage medium selection and log sizing for every site of a cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageConfig {
    /// Which medium the log lives on.
    pub engine: EngineKind,
    /// Root directory of the segment files; each site stores its segments
    /// in `<data_dir>/site-<id>/`. Required when `engine` is
    /// [`EngineKind::Disk`]; a memory medium has no directory and ignores
    /// it.
    pub data_dir: Option<PathBuf>,
    /// Rotate the active segment once it grows past this many bytes (on
    /// either medium).
    pub segment_max_bytes: u64,
    /// Compact (checkpoint into a fresh segment, drop the old ones) once
    /// the whole log grows past this many bytes (on either medium, so a
    /// memory site's log is bounded too).
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
    /// The memory medium (the fast default).
    pub fn memory() -> Self {
        StorageConfig {
            engine: EngineKind::Memory,
            data_dir: None,
            segment_max_bytes: 4 << 20,
            compaction_threshold_bytes: 8 << 20,
            ephemeral: false,
        }
    }

    /// Segment files rooted at `data_dir`.
    pub fn disk(data_dir: impl Into<PathBuf>) -> Self {
        StorageConfig {
            engine: EngineKind::Disk,
            data_dir: Some(data_dir.into()),
            ..StorageConfig::memory()
        }
    }

    /// Medium selection from the `RAINBOW_ENGINE` environment variable:
    /// `disk` gives segment files in a fresh ephemeral directory under the
    /// system temp dir (removed at cluster shutdown); anything else (or
    /// unset) gives the memory medium. This is how the CI matrix points
    /// the whole test suite at either medium without touching code.
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

    /// Checks internal consistency (segment files need a directory).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskEngine;
    use crate::medium::MemMedium;
    use crate::wal::LogRecord;
    use rainbow_common::{SiteId, TxnId};

    #[test]
    fn config_defaults_and_builders() {
        let config = StorageConfig::default();
        assert_eq!(config.engine, EngineKind::Memory);
        assert!(config.validate().is_ok());

        let disk = StorageConfig::disk("/tmp/somewhere")
            .with_segment_max_bytes(1024)
            .with_compaction_threshold(4096);
        assert_eq!(disk.engine, EngineKind::Disk);
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

    /// The memory medium loses an unforced record and tears like a file:
    /// recovery cuts the torn frame and replays the forced prefix.
    #[test]
    fn memory_engine_power_loss_drops_unforced_tail() {
        let mut engine = DiskEngine::new(Box::new(MemMedium::default()), &StorageConfig::memory());
        engine.recover().unwrap();
        let txn = TxnId::new(SiteId(0), 1);
        engine.append_forced_many(vec![LogRecord::Commit {
            txn,
            writes: vec![],
        }]);
        engine.append(LogRecord::Begin {
            txn: TxnId::new(SiteId(0), 2),
        });
        assert_eq!(engine.record_count(), 2);
        engine.power_loss(PowerLossFault::TornWrite);
        let outcome = engine.recover().unwrap();
        assert_eq!(outcome.replayed_records, 1);
        assert_eq!(engine.record_count(), 1);
        assert!(engine.log_bytes() > 0, "the memory medium holds real bytes");
        assert!(!engine.wants_compaction());
        assert!(engine.flush_and_sync().is_ok());
    }
}
