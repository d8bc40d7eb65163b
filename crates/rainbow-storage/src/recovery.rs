//! Crash recovery: rebuilding a site's committed state from its write-ahead
//! log and reporting in-doubt transactions.
//!
//! Recovery replays the durable log front to back:
//!
//! 1. the latest [`LogRecord::Checkpoint`] (if any) seeds the committed
//!    state;
//! 2. every [`LogRecord::Commit`] after it re-installs its writes (replay is
//!    idempotent — installing the same `(value, version)` twice is a no-op in
//!    effect);
//! 3. every [`LogRecord::Prepare`] without a later commit or abort leaves an
//!    **in-doubt** transaction, which the atomic-commit layer must resolve by
//!    asking the coordinator (or cohorts) for the decision.

use crate::store::CopyState;
use crate::wal::LogRecord;
use rainbow_common::{ItemId, TxnId, Value, Version};
use std::collections::BTreeMap;

/// A transaction found prepared but undecided in the log.
#[derive(Debug, Clone, PartialEq)]
pub struct InDoubtTxn {
    /// The transaction.
    pub txn: TxnId,
    /// The writes it prepared; applied if the decision turns out to be
    /// commit.
    pub writes: Vec<(ItemId, Value, Version)>,
}

/// The result of replaying the log.
#[derive(Debug, Clone, Default)]
pub struct RecoveryOutcome {
    /// The recovered committed state.
    pub state: BTreeMap<ItemId, CopyState>,
    /// Prepared-but-undecided transactions.
    pub in_doubt: Vec<InDoubtTxn>,
    /// Number of log records replayed.
    pub replayed_records: usize,
}

/// Replays a slice of log records front to back and returns the recovered
/// state and in-doubt transaction list. This is the pure core of recovery:
/// [`crate::disk::DiskEngine::recover`] hands it the records it decoded
/// from its medium's segments. Only the writes that survive into the
/// recovered state (checkpoint snapshots, winning commits, in-doubt
/// prepares) are copied out of the slice.
pub fn replay(records: &[LogRecord]) -> RecoveryOutcome {
    let mut state: BTreeMap<ItemId, CopyState> = BTreeMap::new();
    let mut prepared: BTreeMap<TxnId, Vec<(ItemId, Value, Version)>> = BTreeMap::new();
    let replayed_records = records.len();

    for record in records {
        match record {
            LogRecord::Checkpoint { state: snapshot } => {
                // A checkpoint supersedes everything replayed so far.
                state = snapshot
                    .iter()
                    .map(|(item, value, version)| {
                        (
                            item.clone(),
                            CopyState {
                                value: value.clone(),
                                version: *version,
                            },
                        )
                    })
                    .collect();
                prepared.clear();
            }
            LogRecord::Begin { .. } => {}
            LogRecord::Prepare { txn, writes } => {
                prepared.insert(*txn, writes.clone());
            }
            LogRecord::Commit { txn, writes } => {
                prepared.remove(txn);
                for (item, value, version) in writes {
                    // Only move versions forward: replaying an old commit
                    // after a newer checkpoint must not regress state.
                    let newer = state
                        .get(item)
                        .map(|existing| *version >= existing.version)
                        .unwrap_or(true);
                    if newer {
                        state.insert(
                            item.clone(),
                            CopyState {
                                value: value.clone(),
                                version: *version,
                            },
                        );
                    }
                }
            }
            LogRecord::Abort { txn } => {
                prepared.remove(txn);
            }
        }
    }

    let in_doubt = prepared
        .into_iter()
        .map(|(txn, writes)| InDoubtTxn { txn, writes })
        .collect();

    RecoveryOutcome {
        state,
        in_doubt,
        replayed_records,
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

    fn checkpoint(state: Vec<(ItemId, Value, Version)>) -> LogRecord {
        LogRecord::Checkpoint { state }
    }

    fn commit(seq: u64, name: &str, value: i64, version: u64) -> LogRecord {
        LogRecord::Commit {
            txn: txn(seq),
            writes: vec![(item(name), Value::Int(value), Version(version))],
        }
    }

    fn prepare(seq: u64, name: &str, value: i64, version: u64) -> LogRecord {
        LogRecord::Prepare {
            txn: txn(seq),
            writes: vec![(item(name), Value::Int(value), Version(version))],
        }
    }

    #[test]
    fn empty_log_recovers_to_empty_state() {
        let outcome = replay(&[]);
        assert!(outcome.state.is_empty());
        assert!(outcome.in_doubt.is_empty());
        assert_eq!(outcome.replayed_records, 0);
    }

    #[test]
    fn commits_after_checkpoint_are_applied_in_order() {
        let outcome = replay(&[
            checkpoint(vec![(item("x"), Value::Int(0), Version(0))]),
            commit(1, "x", 1, 1),
            commit(2, "x", 2, 2),
        ]);
        assert_eq!(
            outcome.state.get(&item("x")).unwrap(),
            &CopyState {
                value: Value::Int(2),
                version: Version(2)
            }
        );
        assert!(outcome.in_doubt.is_empty());
        assert_eq!(outcome.replayed_records, 3);
    }

    #[test]
    fn replay_is_idempotent() {
        let log = [
            checkpoint(vec![(item("x"), Value::Int(0), Version(0))]),
            commit(1, "x", 5, 1),
        ];
        let once = replay(&log);
        let twice = replay(&log);
        assert_eq!(once.state, twice.state);
    }

    #[test]
    fn old_commits_do_not_regress_newer_checkpoint_state() {
        // A commit record with an older version than the checkpointed state
        // (can happen if the checkpoint logic retains undecided prepares and
        // a stale commit is replayed afterwards in contrived orders).
        let outcome = replay(&[
            checkpoint(vec![(item("x"), Value::Int(9), Version(5))]),
            commit(1, "x", 1, 1),
        ]);
        assert_eq!(
            outcome.state.get(&item("x")).unwrap().version,
            Version(5),
            "older version must not overwrite newer state"
        );
    }

    #[test]
    fn prepared_without_decision_is_in_doubt() {
        let outcome = replay(&[
            checkpoint(vec![(item("x"), Value::Int(0), Version(0))]),
            prepare(7, "x", 7, 1),
        ]);
        assert_eq!(outcome.in_doubt.len(), 1);
        assert_eq!(outcome.in_doubt[0].txn, txn(7));
        // State unchanged.
        assert_eq!(outcome.state.get(&item("x")).unwrap().value, Value::Int(0));
    }

    #[test]
    fn prepared_then_decided_is_not_in_doubt() {
        let outcome = replay(&[
            prepare(1, "x", 1, 1),
            commit(1, "x", 1, 1),
            prepare(2, "x", 2, 2),
            LogRecord::Abort { txn: txn(2) },
        ]);
        assert!(outcome.in_doubt.is_empty());
        assert_eq!(outcome.state.get(&item("x")).unwrap().value, Value::Int(1));
    }

    #[test]
    fn checkpoint_clears_earlier_prepares() {
        // A compacting checkpoint carries undecided prepares after itself,
        // but a raw Checkpoint record in the stream resets replay state: a
        // fully-decided world.
        let outcome = replay(&[
            prepare(1, "x", 1, 1),
            checkpoint(vec![(item("x"), Value::Int(1), Version(1))]),
        ]);
        assert!(outcome.in_doubt.is_empty());
        assert_eq!(outcome.state.get(&item("x")).unwrap().version, Version(1));
    }

    #[test]
    fn unforced_records_are_not_replayed() {
        let mut log = DiskEngine::new(Box::new(MemMedium::default()), &StorageConfig::memory());
        log.recover().unwrap();
        log.append_forced_many(vec![commit(1, "x", 1, 1)]);
        log.append(commit(2, "x", 2, 2));
        // No force, then crash.
        log.power_loss(PowerLossFault::Clean);
        let outcome = log.recover().unwrap();
        assert_eq!(outcome.state.get(&item("x")).unwrap().value, Value::Int(1));
    }
}
