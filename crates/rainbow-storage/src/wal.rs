//! The write-ahead log's records.
//!
//! The log is the *durable* half of a Rainbow site: it survives crashes
//! while the in-memory store does not. Records are appended in order and
//! the commit layer *forces* the log before acknowledging prepares and
//! commits. [`crate::disk::DiskEngine`] frames them ([`crate::codec`]) onto
//! its medium; [`crate::recovery::replay`] reads them back.

use rainbow_common::{ItemId, TxnId, Value, Version};
use serde::{Deserialize, Serialize};

/// One log record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogRecord {
    /// A transaction started at this site (home or participant).
    Begin {
        /// The transaction.
        txn: TxnId,
    },
    /// A participant prepared: the staged writes are durably recorded so the
    /// transaction can be committed after a crash if the coordinator decides
    /// commit.
    Prepare {
        /// The transaction.
        txn: TxnId,
        /// The staged writes `(item, new value, new version)`.
        writes: Vec<(ItemId, Value, Version)>,
    },
    /// The transaction committed at this site; its staged writes are now
    /// part of the database state.
    Commit {
        /// The transaction.
        txn: TxnId,
        /// The writes installed by the commit.
        writes: Vec<(ItemId, Value, Version)>,
    },
    /// The transaction aborted at this site; staged writes are discarded.
    Abort {
        /// The transaction.
        txn: TxnId,
    },
    /// A checkpoint: the complete committed state at the time of the
    /// checkpoint. Recovery starts from the latest checkpoint.
    Checkpoint {
        /// Snapshot of every item's committed value and version.
        state: Vec<(ItemId, Value, Version)>,
    },
}

impl LogRecord {
    /// The transaction the record belongs to, when any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::Prepare { txn, .. }
            | LogRecord::Commit { txn, .. }
            | LogRecord::Abort { txn } => Some(*txn),
            LogRecord::Checkpoint { .. } => None,
        }
    }

    /// Short label used in debugging output and log-size statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            LogRecord::Begin { .. } => "BEGIN",
            LogRecord::Prepare { .. } => "PREPARE",
            LogRecord::Commit { .. } => "COMMIT",
            LogRecord::Abort { .. } => "ABORT",
            LogRecord::Checkpoint { .. } => "CHECKPOINT",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskEngine;
    use crate::engine::{PowerLossFault, StorageConfig};
    use crate::medium::MemMedium;
    use rainbow_common::SiteId;

    fn txn(seq: u64) -> TxnId {
        TxnId::new(SiteId(0), seq)
    }

    fn item(name: &str) -> ItemId {
        ItemId::new(name)
    }

    /// An opened log engine over a fresh memory medium.
    fn log() -> DiskEngine {
        let mut log = DiskEngine::new(Box::new(MemMedium::default()), &StorageConfig::memory());
        log.recover().unwrap();
        log
    }

    #[test]
    fn unforced_tail_is_lost_on_crash() {
        let mut log = log();
        log.append_forced_many(vec![LogRecord::Begin { txn: txn(1) }]);
        log.append(LogRecord::Begin { txn: txn(2) }); // not forced
        assert_eq!(log.record_count(), 2);

        log.power_loss(PowerLossFault::Clean);
        assert_eq!(log.recover().unwrap().replayed_records, 1);
        assert_eq!(log.record_count(), 1);
    }

    #[test]
    fn force_makes_tail_durable() {
        let mut log = log();
        log.append(LogRecord::Begin { txn: txn(1) });
        log.flush_and_sync().unwrap();
        log.power_loss(PowerLossFault::Clean);
        assert_eq!(log.recover().unwrap().replayed_records, 1);
        assert_eq!(log.force_count(), 1);
    }

    #[test]
    fn append_forced_counts_forces() {
        let mut log = log();
        log.append_forced_many(vec![LogRecord::Begin { txn: txn(1) }]);
        log.append_forced_many(vec![LogRecord::Commit {
            txn: txn(1),
            writes: vec![],
        }]);
        assert_eq!(log.force_count(), 2);
    }

    #[test]
    fn record_accessors() {
        let r = LogRecord::Prepare {
            txn: txn(3),
            writes: vec![(item("x"), Value::Int(1), Version(1))],
        };
        assert_eq!(r.txn(), Some(txn(3)));
        assert_eq!(r.kind(), "PREPARE");
        let c = LogRecord::Checkpoint { state: vec![] };
        assert_eq!(c.txn(), None);
        assert_eq!(c.kind(), "CHECKPOINT");
        assert_eq!(LogRecord::Begin { txn: txn(1) }.kind(), "BEGIN");
        assert_eq!(
            LogRecord::Commit {
                txn: txn(1),
                writes: vec![]
            }
            .kind(),
            "COMMIT"
        );
        assert_eq!(LogRecord::Abort { txn: txn(1) }.kind(), "ABORT");
    }

    #[test]
    fn checkpoint_compacts_but_keeps_undecided_prepares() {
        let mut log = log();
        // T1 fully decided, T2 prepared but in doubt.
        log.append_forced_many(vec![LogRecord::Prepare {
            txn: txn(1),
            writes: vec![(item("x"), Value::Int(1), Version(1))],
        }]);
        log.append_forced_many(vec![LogRecord::Commit {
            txn: txn(1),
            writes: vec![(item("x"), Value::Int(1), Version(1))],
        }]);
        log.append_forced_many(vec![LogRecord::Prepare {
            txn: txn(2),
            writes: vec![(item("y"), Value::Int(2), Version(1))],
        }]);

        log.checkpoint(vec![(item("x"), Value::Int(1), Version(1))]);
        assert_eq!(
            log.record_count(),
            2,
            "checkpoint + in-doubt prepare expected"
        );
        log.power_loss(PowerLossFault::Clean);
        let outcome = log.recover().unwrap();
        assert_eq!(outcome.replayed_records, 2);
        assert_eq!(outcome.in_doubt.len(), 1);
        assert_eq!(outcome.in_doubt[0].txn, txn(2));
        assert_eq!(outcome.state[&item("x")].value, Value::Int(1));
    }
}
