//! Property and differential tests for the data-plane hot path: interned
//! item ids, the sharded lock table, and the quorum fan-out.

use proptest::prelude::*;
use rainbow_cc::{Acquired, LockManager, LockMode, DEFAULT_LOCK_SHARDS};
use rainbow_common::protocol::{DeadlockPolicy, ProtocolStack, RcpKind};
use rainbow_common::txn::TxnSpec;
use rainbow_common::{ItemId, Operation, SiteId, Timestamp, TxnId, Value};
use rainbow_control::{Session, WorkloadRunner};
use std::collections::BTreeMap;
use std::time::Duration;

fn txn(seq: u64) -> TxnId {
    TxnId::new(SiteId(0), seq)
}

fn ts(counter: u64) -> Timestamp {
    Timestamp::new(counter, 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interned ids round-trip through strings and JSON, and equality /
    /// ordering / hashing agree with the underlying names.
    #[test]
    fn interned_item_ids_round_trip_and_order(names in prop::collection::vec((0u32..50, 0u32..4), 1..30)) {
        let ids: Vec<ItemId> = names
            .iter()
            .map(|(n, pad)| ItemId::new(format!("prop.{n}.{}", "x".repeat(*pad as usize))))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            // String round-trip.
            prop_assert_eq!(ItemId::new(id.name()), id.clone());
            // Serde round-trip through JSON.
            let json = serde_json::to_string(id).unwrap();
            let back: ItemId = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(&back, id);
            // Equality agrees with names; ordering agrees with names.
            for other in &ids[i..] {
                prop_assert_eq!(id == other, id.name() == other.name());
                prop_assert_eq!(id.cmp(other), id.name().cmp(other.name()));
                prop_assert_eq!(id.token() == other.token(), id.name() == other.name());
            }
        }
        // Sorting ids sorts their names.
        let mut sorted = ids.clone();
        sorted.sort();
        let mut names_sorted: Vec<String> = ids.iter().map(|i| i.name().to_string()).collect();
        names_sorted.sort();
        let sorted_names: Vec<String> = sorted.iter().map(|i| i.name().to_string()).collect();
        prop_assert_eq!(sorted_names, names_sorted);
    }

    /// Shard invariant: whatever interleaving of acquisitions and releases
    /// occurs, incompatible locks are never held simultaneously — and the
    /// behavior is identical whether the table has 1 shard (the old global
    /// mutex layout) or many.
    #[test]
    fn sharded_lock_table_never_grants_conflicts(
        ops in prop::collection::vec((0u64..6, 0usize..8, any::<bool>(), any::<bool>()), 1..80),
        shards in 1usize..33,
    ) {
        let lm = LockManager::with_shards(
            DeadlockPolicy::WaitDie,
            Duration::from_millis(1),
            shards,
        );
        let items: Vec<ItemId> = (0..8).map(|i| ItemId::new(format!("shard.i{i}"))).collect();
        let mut holders: BTreeMap<usize, Vec<(u64, bool)>> = BTreeMap::new();
        for (seq, item_idx, exclusive, release) in ops {
            let t = txn(seq);
            if release {
                lm.release_all(t);
                for held in holders.values_mut() {
                    held.retain(|(h, _)| *h != seq);
                }
                continue;
            }
            let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
            match lm.acquire(t, ts(seq + 1), &items[item_idx], mode) {
                Ok(Acquired::Granted) => {
                    let held = holders.entry(item_idx).or_default();
                    held.retain(|(h, _)| *h != seq);
                    held.push((seq, exclusive));
                    let exclusives = held.iter().filter(|(_, x)| *x).count();
                    if exclusives > 0 {
                        prop_assert_eq!(held.len(), 1, "exclusive lock shared: {:?}", held);
                    }
                }
                // Nobody here waits: a queued request is given up at once.
                Ok(Acquired::Queued) => {
                    prop_assert!(lm.give_up(t, &items[item_idx]).is_some());
                }
                Err(_) => {}
            }
        }
    }

    /// No lost waiters: a transaction queued on a busy item is granted the
    /// next time it asks once the holder has released, for every shard count.
    #[test]
    fn sharded_lock_table_wakes_waiters(shards in 1usize..17, item_n in 0u32..12) {
        let lm = LockManager::with_shards(
            DeadlockPolicy::TimeoutOnly,
            Duration::from_millis(2_000),
            shards,
        );
        let item = ItemId::new(format!("wake.{item_n}"));
        let exclusive = |n| lm.acquire(txn(n), ts(n), &item, LockMode::Exclusive);
        prop_assert_eq!(exclusive(1), Ok(Acquired::Granted));
        prop_assert_eq!(exclusive(2), Ok(Acquired::Queued));
        lm.release_all(txn(1));
        prop_assert_eq!(exclusive(2), Ok(Acquired::Granted));
        prop_assert!(lm.held_by(txn(2)).contains(&item));
        lm.release_all(txn(2));
        prop_assert_eq!(lm.active_transactions(), 0);
        prop_assert_eq!(lm.item_entries(), 0, "idle entries must be pruned");
    }
}

/// Cross-shard deadlock detection: the two items are chosen so they land in
/// *different* shards, and the wait-for-graph cycle must still be found.
#[test]
fn deadlock_is_detected_across_shards() {
    let lm = LockManager::with_shards(
        DeadlockPolicy::WaitForGraph,
        Duration::from_millis(800),
        DEFAULT_LOCK_SHARDS,
    );
    // Find two items that hash to different shards.
    let a = ItemId::new("xshard.a");
    let mut b = ItemId::new("xshard.b");
    for i in 0..64 {
        b = ItemId::new(format!("xshard.b{i}"));
        if (b.token() as usize) % DEFAULT_LOCK_SHARDS != (a.token() as usize) % DEFAULT_LOCK_SHARDS
        {
            break;
        }
    }
    assert_ne!(
        (a.token() as usize) % DEFAULT_LOCK_SHARDS,
        (b.token() as usize) % DEFAULT_LOCK_SHARDS,
        "test requires items in different shards"
    );

    let exclusive = |n, item| lm.acquire(txn(n), ts(n), item, LockMode::Exclusive);
    assert_eq!(exclusive(1, &a), Ok(Acquired::Granted));
    assert_eq!(exclusive(2, &b), Ok(Acquired::Granted));
    // T1 waits for b.
    assert_eq!(exclusive(1, &b), Ok(Acquired::Queued));
    // Closing the cycle from the other shard: T2 → a (held by T1).
    assert_eq!(exclusive(2, &a), Err(rainbow_cc::LockError::Deadlock));
    assert!(lm.stats().deadlock_aborts() >= 1);

    lm.release_all(txn(2));
    assert_eq!(exclusive(1, &b), Ok(Acquired::Granted));
    lm.release_all(txn(1));
}

fn stack() -> ProtocolStack {
    ProtocolStack::rainbow_default()
        .with_lock_wait_timeout(Duration::from_millis(300))
        .with_quorum_timeout(Duration::from_millis(900))
        .with_commit_timeout(Duration::from_millis(900))
}

/// A deterministic multi-operation workload submitted serially (no
/// concurrency): every read and the final state are known exactly.
#[test]
fn parallel_fanout_of_a_serial_workload_reads_exact_values() {
    let mut session = Session::new();
    session.configure_sites(3).unwrap();
    session.configure_protocols(stack()).unwrap();
    session.configure_uniform_database(6, 100, 3).unwrap();
    session.start().unwrap();
    let wlg = WorkloadRunner::new(&session);
    // `x0..` with these values.
    let items = |values: &[i64]| -> BTreeMap<ItemId, Value> {
        let numbered = values.iter().enumerate();
        numbered
            .map(|(i, value)| (ItemId::new(format!("x{i}")), Value::Int(*value)))
            .collect()
    };

    for round in 0..4i64 {
        let write = wlg
            .submit(TxnSpec::new(
                format!("w{round}"),
                vec![
                    Operation::write("x0", 10 * (round + 1)),
                    Operation::write("x1", 20 * (round + 1)),
                    Operation::increment("x2", 5),
                ],
            ))
            .unwrap();
        assert!(write.committed(), "serial write txn must commit");

        let read = wlg
            .submit(TxnSpec::new(
                format!("r{round}"),
                vec![
                    Operation::read("x0"),
                    Operation::read("x1"),
                    Operation::read("x2"),
                    Operation::read("x3"),
                ],
            ))
            .unwrap();
        assert!(read.committed(), "serial read txn must commit");
        let r = round + 1;
        assert_eq!(
            read.reads,
            items(&[10 * r, 20 * r, 100 + 5 * r, 100]),
            "round {round}"
        );
    }

    // Final committed state, from a read-everything audit transaction.
    let audit = wlg
        .submit(TxnSpec::new(
            "audit",
            (0..6).map(|i| Operation::read(format!("x{i}"))).collect(),
        ))
        .unwrap();
    assert!(audit.committed());
    assert_eq!(audit.reads, items(&[40, 80, 120, 100, 100, 100]));
}

/// Mixed access kinds on the *same* item in one transaction: a plain read's
/// quorum and a read-for-update's quorum run concurrently, and their replies
/// must not be cross-attributed — under ROWA the read round targets a single
/// site while the read-for-update targets every holder, which is exactly the
/// shape where mis-routing starves or contaminates a quorum.
#[test]
fn parallel_fanout_separates_mixed_access_kinds_on_one_item() {
    for rcp in [RcpKind::Rowa, RcpKind::QuorumConsensus] {
        let mut session = Session::new();
        session.configure_sites(3).unwrap();
        session.configure_protocols(stack().with_rcp(rcp)).unwrap();
        session.configure_uniform_database(4, 7, 3).unwrap();
        session.start().unwrap();
        let wlg = WorkloadRunner::new(&session);

        let result = wlg
            .submit(TxnSpec::new(
                "mixed",
                vec![
                    Operation::read("x0"),
                    Operation::increment("x0", 5),
                    Operation::read("x1"),
                ],
            ))
            .unwrap();
        assert!(
            result.committed(),
            "mixed-kind txn must commit under {rcp:?}: {result:?}"
        );
        assert_eq!(result.reads.get(&ItemId::new("x0")), Some(&Value::Int(7)));

        let audit = wlg
            .submit(TxnSpec::new("a", vec![Operation::read("x0")]))
            .unwrap();
        assert_eq!(
            audit.reads.get(&ItemId::new("x0")),
            Some(&Value::Int(12)),
            "increment must be installed under {rcp:?}"
        );
    }
}

/// The fan-out must also handle duplicate items inside one transaction
/// (reply demultiplexing with colliding keys).
#[test]
fn parallel_fanout_handles_duplicate_items_in_one_txn() {
    let mut session = Session::new();
    session.configure_sites(3).unwrap();
    session.configure_protocols(stack()).unwrap();
    session.configure_uniform_database(4, 7, 3).unwrap();
    session.start().unwrap();
    let wlg = WorkloadRunner::new(&session);

    let result = wlg
        .submit(TxnSpec::new(
            "dup",
            vec![
                Operation::read("x0"),
                Operation::read("x0"),
                Operation::write("x1", 99i64),
                Operation::read("x0"),
            ],
        ))
        .unwrap();
    assert!(
        result.committed(),
        "duplicate-item txn must commit: {result:?}"
    );
    assert_eq!(result.reads.get(&ItemId::new("x0")), Some(&Value::Int(7)));

    let audit = wlg
        .submit(TxnSpec::new("a", vec![Operation::read("x1")]))
        .unwrap();
    assert_eq!(audit.reads.get(&ItemId::new("x1")), Some(&Value::Int(99)));
}
