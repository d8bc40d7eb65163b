//! The write-ahead log.
//!
//! The log is the *durable* half of a Rainbow site: it survives simulated
//! crashes while the in-memory store does not. Records are appended in
//! order and the commit layer *forces* the log (a no-op flush in this
//! in-memory simulation, but the call sites are exactly where a real system
//! would `fsync`) before acknowledging prepares and commits.
//!
//! The log belongs to the [`crate::MemoryEngine`] that wraps it, and the
//! engine to its site's storage: one writer, so every change takes
//! `&mut self` and nothing is locked.

use rainbow_common::{ItemId, TxnId, Value, Version};
use serde::{Deserialize, Serialize};

/// Position of a record in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LogSequence(pub u64);

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

/// An append-only write-ahead log. It has one writer, the engine that owns
/// it, so it is a plain value: no lock, and no clone to share it through.
#[derive(Debug, Default)]
pub struct WriteAheadLog {
    records: Vec<LogRecord>,
    forced_up_to: usize,
    force_count: u64,
}

impl WriteAheadLog {
    /// An empty log.
    pub fn new() -> Self {
        WriteAheadLog::default()
    }

    /// Appends a record and returns its sequence number. The record is in
    /// the log buffer but not yet forced.
    pub fn append(&mut self, record: LogRecord) -> LogSequence {
        self.records.push(record);
        LogSequence(self.records.len() as u64 - 1)
    }

    /// Appends a record and forces the log up to and including it. This is
    /// the "write and flush" path used for prepare and commit records.
    pub fn append_forced(&mut self, record: LogRecord) -> LogSequence {
        let sequence = self.append(record);
        self.force();
        sequence
    }

    /// Forces everything appended so far.
    pub fn force(&mut self) {
        self.forced_up_to = self.records.len();
        self.force_count += 1;
    }

    /// Number of records in the log (forced or not).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of force (flush) operations performed, an indicator of commit
    /// path I/O cost reported by the ACP ablation experiment.
    pub fn force_count(&self) -> u64 {
        self.force_count
    }

    /// Every record that would survive a crash, i.e. the forced prefix of
    /// the log, borrowed in place. Unforced tail records are lost by
    /// [`WriteAheadLog::simulate_crash`].
    pub fn durable_records(&self) -> &[LogRecord] {
        &self.records[..self.forced_up_to]
    }

    /// Simulates a crash: the unforced tail of the log is lost, mirroring a
    /// real system losing its in-memory log buffer.
    pub fn simulate_crash(&mut self) {
        self.records.truncate(self.forced_up_to);
    }

    /// Writes a checkpoint record containing `state` and forces it, then
    /// truncates everything *before* the checkpoint (log compaction). The
    /// prepares of transactions not yet decided are kept after it: they
    /// may still be in doubt.
    pub fn checkpoint(&mut self, state: Vec<(ItemId, Value, Version)>) {
        let decided: std::collections::BTreeSet<TxnId> = self
            .records
            .iter()
            .filter_map(|record| match record {
                LogRecord::Commit { txn, .. } | LogRecord::Abort { txn } => Some(*txn),
                _ => None,
            })
            .collect();
        let undecided: Vec<LogRecord> = self
            .records
            .drain(..)
            .filter(|r| matches!(r, LogRecord::Prepare { txn, .. } if !decided.contains(txn)))
            .collect();
        self.records.push(LogRecord::Checkpoint { state });
        self.records.extend(undecided);
        self.force();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbow_common::SiteId;

    fn txn(seq: u64) -> TxnId {
        TxnId::new(SiteId(0), seq)
    }

    fn item(name: &str) -> ItemId {
        ItemId::new(name)
    }

    #[test]
    fn append_assigns_increasing_sequence_numbers() {
        let mut log = WriteAheadLog::new();
        assert!(log.is_empty());
        let a = log.append(LogRecord::Begin { txn: txn(1) });
        let b = log.append(LogRecord::Abort { txn: txn(1) });
        assert!(a < b);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn unforced_tail_is_lost_on_crash() {
        let mut log = WriteAheadLog::new();
        log.append_forced(LogRecord::Begin { txn: txn(1) });
        log.append(LogRecord::Begin { txn: txn(2) }); // not forced
        assert_eq!(log.len(), 2);
        assert_eq!(log.durable_records().len(), 1);

        log.simulate_crash();
        assert_eq!(log.len(), 1);
        assert_eq!(log.durable_records()[0].txn(), Some(txn(1)));
    }

    #[test]
    fn force_makes_tail_durable() {
        let mut log = WriteAheadLog::new();
        log.append(LogRecord::Begin { txn: txn(1) });
        log.force();
        log.simulate_crash();
        assert_eq!(log.len(), 1);
        assert_eq!(log.force_count(), 1);
    }

    #[test]
    fn append_forced_counts_forces() {
        let mut log = WriteAheadLog::new();
        log.append_forced(LogRecord::Begin { txn: txn(1) });
        log.append_forced(LogRecord::Commit {
            txn: txn(1),
            writes: vec![],
        });
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
        let mut log = WriteAheadLog::new();
        // T1 fully decided, T2 prepared but in doubt.
        log.append_forced(LogRecord::Prepare {
            txn: txn(1),
            writes: vec![(item("x"), Value::Int(1), Version(1))],
        });
        log.append_forced(LogRecord::Commit {
            txn: txn(1),
            writes: vec![(item("x"), Value::Int(1), Version(1))],
        });
        log.append_forced(LogRecord::Prepare {
            txn: txn(2),
            writes: vec![(item("y"), Value::Int(2), Version(1))],
        });

        log.checkpoint(vec![(item("x"), Value::Int(1), Version(1))]);
        let records = log.durable_records();
        assert_eq!(records.len(), 2, "checkpoint + in-doubt prepare expected");
        assert!(matches!(records[0], LogRecord::Checkpoint { .. }));
        assert!(matches!(&records[1], LogRecord::Prepare { txn: t, .. } if *t == txn(2)));
    }
}
