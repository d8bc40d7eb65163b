//! Property and differential tests for the data-plane hot path: interned
//! item ids and the quorum fan-out.

use rainbow_common::protocol::{ProtocolStack, RcpKind};
use rainbow_common::rng::{derive_seed, seeded_rng};
use rainbow_common::txn::TxnSpec;
use rainbow_common::{ItemId, Operation, Value};
use rainbow_control::{Session, WorkloadRunner};
use rand::Rng;
use std::collections::BTreeMap;
use std::time::Duration;

/// Interned ids round-trip through strings and JSON, and equality /
/// ordering / hashing agree with the underlying names (64 seeded cases).
#[test]
fn interned_item_ids_round_trip_and_order() {
    for case in 0..64 {
        let mut rng = seeded_rng(derive_seed(case, "interned_item_ids_round_trip_and_order"));
        let ids: Vec<ItemId> = (0..rng.gen_range(1..30))
            .map(|_| (rng.gen_range(0..50), rng.gen_range(0..4)))
            .map(|(n, pad): (u32, usize)| ItemId::new(format!("prop.{n}.{}", "x".repeat(pad))))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            // String round-trip.
            assert_eq!(ItemId::new(id.name()), *id, "case {case}");
            // Serde round-trip through JSON.
            let json = serde_json::to_string(id).unwrap();
            let back: ItemId = serde_json::from_str(&json).unwrap();
            assert_eq!(back, *id, "case {case}: {json}");
            // Equality agrees with names; ordering agrees with names.
            for other in &ids[i..] {
                let (a, b) = (id.name(), other.name());
                assert_eq!(id == other, a == b, "case {case}: {a} vs {b}");
                assert_eq!(id.cmp(other), a.cmp(b), "case {case}: {a} vs {b}");
                assert_eq!(
                    id.token() == other.token(),
                    a == b,
                    "case {case}: {a} vs {b}"
                );
            }
        }
        // Sorting ids sorts their names.
        let mut sorted = ids.clone();
        sorted.sort();
        let mut names_sorted: Vec<String> = ids.iter().map(|i| i.name().to_string()).collect();
        names_sorted.sort();
        let sorted_names: Vec<String> = sorted.iter().map(|i| i.name().to_string()).collect();
        assert_eq!(sorted_names, names_sorted, "case {case}");
    }
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
