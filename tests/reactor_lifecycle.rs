//! Lifecycle guarantees of the sharded reactor coordinator
//! (`CoordinatorMode::Reactor`), beyond the spec-vs-handle differential:
//!
//! * **affinity under load**: a thousand concurrent conversations — all
//!   pinned to a handful of reactor shards by `txn.seq` — each complete
//!   with exactly one terminal result, and the committed increments are
//!   exactly reflected in the final database state;
//! * **drop safety**: an unfinished `Txn` dropped mid-conversation aborts
//!   through the reactor and releases every CCP resource at every site;
//! * **vanished clients**: a client that disappears without even a
//!   drop-abort is idled out by the owning reactor's tick-time janitor at
//!   the same horizon the thread-per-conversation path uses;
//! * **clean shutdown**: tearing the cluster down with conversations still
//!   in flight joins every reactor thread without hanging.

use rainbow_common::protocol::{CoordinatorMode, ProtocolStack};
use rainbow_common::txn::TxnSpec;
use rainbow_common::{ItemId, Operation, Value};
use rainbow_core::{Cluster, ClusterConfig};
use std::time::Duration;

fn reactor_stack() -> ProtocolStack {
    ProtocolStack::rainbow_default()
        .with_lock_wait_timeout(Duration::from_millis(200))
        .with_quorum_timeout(Duration::from_millis(600))
        .with_commit_timeout(Duration::from_millis(600))
        .with_coordinator(CoordinatorMode::Reactor)
}

fn reactor_cluster(sites: usize, items: usize) -> Cluster {
    let config = ClusterConfig::quick(sites, items, sites)
        .unwrap()
        .with_stack(reactor_stack())
        .with_client_timeout(Duration::from_secs(10));
    Cluster::start(config).unwrap()
}

fn drain_cc_entries(cluster: &Cluster) -> bool {
    for _ in 0..60 {
        if cluster
            .active_cc_transactions()
            .values()
            .all(|count| *count == 0)
        {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

/// A thousand concurrent conversations, spread over the item universe so
/// most commit: every one must come back with exactly one terminal
/// outcome, and the final state must reflect exactly the committed
/// increments — the observable form of "each transaction is owned by
/// exactly one reactor shard".
#[test]
fn a_thousand_concurrent_conversations_complete_on_the_reactor() {
    const CLIENTS: usize = 1000;
    // One item per client: the burst measures conversation lifecycle and
    // shard ownership, not 2PL contention (the chaos suite covers that).
    const ITEMS: usize = CLIENTS;
    let cluster = reactor_cluster(3, ITEMS);

    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let cluster = &cluster;
                scope.spawn(move || {
                    cluster.submit(TxnSpec::new(
                        format!("load-{i}"),
                        vec![Operation::increment(format!("x{}", i % ITEMS), 1)],
                    ))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(results.len(), CLIENTS, "every conversation must terminate");
    let commits = results.iter().filter(|r| r.committed()).count() as i64;
    assert!(
        commits >= (CLIENTS as i64) * 9 / 10,
        "conflict-free increments must nearly all commit, got {commits}/{CLIENTS}"
    );
    assert!(
        drain_cc_entries(&cluster),
        "the burst must leave no CCP entries behind: {:?}",
        cluster.active_cc_transactions()
    );

    // The audit read may briefly collide with straggler releases; retry.
    let audit_spec = TxnSpec::new(
        "audit",
        (0..ITEMS)
            .map(|i| Operation::read(format!("x{i}")))
            .collect(),
    );
    let mut audit = cluster.submit(audit_spec.clone());
    for _ in 0..5 {
        if audit.committed() {
            break;
        }
        std::thread::sleep(Duration::from_millis(300));
        audit = cluster.submit(audit_spec.clone());
    }
    assert!(
        audit.committed(),
        "audit kept aborting: {:?}",
        audit.outcome
    );
    let total: i64 = audit
        .reads
        .values()
        .map(|v| v.as_int().expect("integer items"))
        .sum();
    assert_eq!(
        total,
        (ITEMS as i64) * 100 + commits,
        "final state must reflect exactly the committed increments"
    );
}

#[test]
fn dropped_txn_on_the_reactor_path_releases_every_lock() {
    let cluster = reactor_cluster(3, 8);
    let mut client = cluster.client();
    {
        let mut txn = client.begin("doomed");
        txn.read("x0").unwrap();
        txn.increment("x1", 5).unwrap();
        assert!(
            cluster
                .active_cc_transactions()
                .values()
                .any(|count| *count > 0),
            "the open conversation must hold CCP resources"
        );
        // Dropped here: neither commit nor abort was called.
    }
    assert!(
        drain_cc_entries(&cluster),
        "drop-abort must release every CCP entry: {:?} (lingering: {:?})",
        cluster.active_cc_transactions(),
        cluster.lingering_participants()
    );
    let read = cluster.submit(TxnSpec::new("check", vec![Operation::read("x1")]));
    assert_eq!(read.reads.get(&ItemId::new("x1")), Some(&Value::Int(100)));
}

#[test]
fn vanished_client_is_idled_out_by_its_reactor() {
    // Tight timeouts keep the reactor's idle horizon
    // ((lock + quorum + commit) * 3) test-sized.
    let config = ClusterConfig::quick(3, 4, 3)
        .unwrap()
        .with_stack(
            ProtocolStack::rainbow_default()
                .with_lock_wait_timeout(Duration::from_millis(50))
                .with_quorum_timeout(Duration::from_millis(100))
                .with_commit_timeout(Duration::from_millis(100))
                .with_coordinator(CoordinatorMode::Reactor),
        )
        .with_client_timeout(Duration::from_secs(2));
    let cluster = Cluster::start(config).unwrap();
    let mut client = cluster.client();
    let mut txn = client.begin("vanishing");
    txn.increment("x0", 1).unwrap();
    // The client vanishes without even a drop-abort (process death): the
    // owning reactor's tick janitor must abort the machine at its idle
    // horizon.
    std::mem::forget(txn);
    assert!(
        drain_cc_entries(&cluster),
        "idle-horizon abort must release CCP entries: {:?}",
        cluster.active_cc_transactions()
    );
    let read = cluster.submit(TxnSpec::new("check", vec![Operation::read("x0")]));
    assert_eq!(read.reads.get(&ItemId::new("x0")), Some(&Value::Int(100)));
}

/// Shutdown with conversations still open must fail them site-down and
/// join every reactor thread — bounded, never hanging on an in-flight
/// machine.
#[test]
fn shutdown_with_in_flight_conversations_joins_every_reactor() {
    let mut cluster = reactor_cluster(3, 8);
    {
        let mut client = cluster.client();
        for i in 0..4 {
            let mut txn = client.begin(format!("in-flight-{i}"));
            txn.increment(format!("x{i}"), 1).unwrap();
            // Forgotten, not dropped: the conversations are still open (and
            // hold locks) when shutdown begins.
            std::mem::forget(txn);
        }
    }
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let teardown = std::thread::spawn(move || {
        cluster.shutdown();
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(Duration::from_secs(30)).is_ok(),
        "shutdown must join all reactor threads despite in-flight conversations"
    );
    teardown.join().unwrap();
}
