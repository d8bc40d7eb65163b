//! Chaos laboratory integration: seeded nemesis runs judged by the
//! serializability checker, across the full protocol matrix.
//!
//! The PR-sized matrix lives here (a few seeds per protocol); the wide
//! seed matrices run through `examples/chaos.rs` in the `chaos-smoke` CI
//! job (8 seeds × {TQ, PC}) and the nightly `chaos-matrix` workflow
//! (64 seeds × all five RCPs).

use rainbow_check::{check_history, fixtures};
use rainbow_common::config::{DatabaseSchema, DistributionSchema, ItemPlacement};
use rainbow_common::protocol::{CcpKind, ProtocolStack, RcpKind};
use rainbow_common::txn::TxnSpec;
use rainbow_common::{ItemId, Operation, SiteId, Value};
use rainbow_control::{generate_schedule, run_nemesis, NemesisConfig};
use rainbow_core::{Cluster, ClusterConfig};
use rainbow_net::{LatencyModel, LinkConfig, NetworkConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A nemesis shape small enough for PR-test latency but still exercising
/// every event kind with real concurrency.
fn quick_nemesis() -> NemesisConfig {
    NemesisConfig {
        spec_transactions: 24,
        interactive_transactions: 6,
        events: 5,
        ..NemesisConfig::default()
    }
}

#[test]
fn nemesis_replays_a_seed_bit_for_bit() {
    let config = quick_nemesis().with_rcp(RcpKind::QuorumConsensus);
    let first = run_nemesis(&config, 11).expect("nemesis run");
    let second = run_nemesis(&config, 11).expect("nemesis replay");
    // The replayable inputs are identical: the schedule (and the seeded
    // workload behind it) is a pure function of the seed.
    assert_eq!(first.schedule, second.schedule);
    assert_eq!(first.schedule, generate_schedule(&config, 11));
    assert!(first.passed(), "{}", first.summary());
    assert!(second.passed(), "{}", second.summary());
    // Both runs processed the whole seeded workload.
    assert!(first.committed > 0);
    assert!(
        first.committed + first.aborted + first.orphaned >= config.spec_transactions,
        "{}",
        first.summary()
    );
}

#[test]
fn every_rcp_is_serializable_under_chaos() {
    for rcp in RcpKind::ALL {
        for seed in [1u64, 2] {
            let report = run_nemesis(&quick_nemesis().with_rcp(rcp), seed).expect("nemesis run");
            assert!(
                report.passed(),
                "{rcp} seed {seed} failed:\n{}\nschedule:\n{}",
                report.summary(),
                rainbow_control::format_schedule(&report.schedule)
            );
        }
    }
}

#[test]
fn every_ccp_is_serializable_under_chaos() {
    for ccp in [
        CcpKind::TwoPhaseLocking,
        CcpKind::TimestampOrdering,
        CcpKind::MultiversionTimestampOrdering,
    ] {
        let report = run_nemesis(&quick_nemesis().with_ccp(ccp), 5).expect("nemesis run");
        assert!(
            report.passed(),
            "{ccp:?} failed:\n{}\nschedule:\n{}",
            report.summary(),
            rainbow_control::format_schedule(&report.schedule)
        );
    }
}

#[test]
fn checker_rejects_every_anomaly_fixture_and_accepts_serial_history() {
    for (name, history) in fixtures::rejected() {
        let report = check_history(&history);
        assert!(!report.is_serializable(), "{name} must be rejected");
    }
    assert!(check_history(&fixtures::committed_serial()).is_serializable());
}

#[test]
fn spec_replay_and_interactive_conversations_emit_identical_history_shapes() {
    let stack = ProtocolStack::rainbow_default()
        .with_lock_wait_timeout(Duration::from_millis(200))
        .with_quorum_timeout(Duration::from_millis(500))
        .with_commit_timeout(Duration::from_millis(500));
    let base = ClusterConfig::quick(3, 4, 3).unwrap();
    let cluster = Cluster::start(ClusterConfig {
        stack,
        record_history: true,
        ..base
    })
    .unwrap();

    // The same logical transaction, one-shot...
    let spec = TxnSpec::new(
        "spec",
        vec![
            Operation::read("x0"),
            Operation::write("x1", 5i64),
            Operation::increment("x2", 3),
        ],
    );
    assert!(cluster.submit(spec).committed());

    // ...and conversationally.
    let mut client = cluster.client();
    let mut txn = client.begin("conversation");
    txn.read("x0").unwrap();
    txn.write("x1", 5i64).unwrap();
    txn.increment("x2", 3).unwrap();
    txn.commit().unwrap();
    drop(client);

    assert!(cluster.await_history_quiescence(Duration::from_secs(5)));
    let history = cluster.history().expect("recording on");
    assert_eq!(history.len(), 2);
    let (spec_rec, conv_rec) = (&history.records[0], &history.records[1]);
    assert!(spec_rec.committed() && conv_rec.committed());
    // Identical footprint shape: same read items in the same order, same
    // write items in the same order. (Values/versions differ where the
    // second transaction sees the first one's effects — that is the data,
    // not the shape.)
    let read_items =
        |r: &rainbow_common::TxnRecord| r.reads.iter().map(|o| o.item.clone()).collect::<Vec<_>>();
    let write_items =
        |r: &rainbow_common::TxnRecord| r.writes.iter().map(|w| w.item.clone()).collect::<Vec<_>>();
    assert_eq!(read_items(spec_rec), read_items(conv_rec));
    assert_eq!(write_items(spec_rec), write_items(conv_rec));

    // And the combined history is, of course, serializable.
    let report = check_history(&history);
    assert!(report.is_serializable(), "{:?}", report.violations);
}

/// A nemesis schedule keyed to the protocol instead of the clock: each time
/// a commit decision leaves a coordinator — the moment its client is
/// answered — a site is crashed while the decision is still on the wire, so
/// participants that voted YES miss it, recover in doubt and must learn the
/// outcome from the coordinator's decision record. (The seeded nemesis runs
/// on a perfect network, where that window has no width.) Whatever the
/// clients were told must hold: the history is serializable, and every item
/// ends at the last committed write the history knows of.
#[test]
fn crashes_inside_the_decision_window_lose_no_committed_write() {
    let items: Vec<ItemId> = (0..4).map(|i| ItemId::new(format!("x{i}"))).collect();
    for ccp in [
        CcpKind::TwoPhaseLocking,
        CcpKind::TimestampOrdering,
        CcpKind::MultiversionTimestampOrdering,
    ] {
        let stack = ProtocolStack::rainbow_default()
            .with_ccp(ccp)
            .with_lock_wait_timeout(Duration::from_millis(150))
            .with_quorum_timeout(Duration::from_millis(400))
            .with_commit_timeout(Duration::from_millis(400));
        let link = LinkConfig::with_latency(LatencyModel::constant(Duration::from_millis(10)));
        let cluster = Cluster::start(ClusterConfig {
            stack,
            network: NetworkConfig::default().with_default_link(link),
            client_timeout: Duration::from_millis(800),
            record_history: true,
            ..ClusterConfig::quick(3, items.len(), 3).unwrap()
        })
        .unwrap();
        let counters = cluster.network_counters();
        let clients_done = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..3usize)
                .map(|worker| {
                    let (cluster, items) = (&cluster, &items);
                    scope.spawn(move || {
                        let mut client = cluster.client();
                        for i in 0..8 {
                            let item = items[(worker + i) % items.len()].clone();
                            // Orphans and exhausted retries are fine: the
                            // history records what actually happened.
                            let _ = client.run("increment", |txn| txn.increment(item.clone(), 1));
                        }
                    })
                })
                .collect();
            scope.spawn(|| {
                for victim in [0, 1, 2, 0, 1, 2] {
                    let seen = counters.kind("ACP_DECISION");
                    while counters.kind("ACP_DECISION") == seen {
                        if clients_done.load(Ordering::Relaxed) {
                            return;
                        }
                        std::thread::yield_now();
                    }
                    cluster.crash_site(SiteId(victim)).unwrap();
                    std::thread::sleep(Duration::from_millis(30));
                    cluster.recover_site(SiteId(victim)).unwrap();
                    std::thread::sleep(Duration::from_millis(100));
                }
            });
            for worker in workers {
                worker.join().unwrap();
            }
            clients_done.store(true, Ordering::Relaxed);
        });

        assert_ends_at_the_last_committed_writes(&cluster, &items, ccp);
        assert!(
            counters.kind("ACP_STATUS_QUERY") > 0,
            "{ccp}: no participant ever had to ask for a decision — the crashes missed the window"
        );
    }
}

/// The run of a nemesis test is over: after a fault-free closing read (in-
/// doubt participants resolve through their janitor's status queries; until
/// then their items refuse access, so the read retries) the history must be
/// serializable and every item must hold the last committed write the
/// history knows of.
fn assert_ends_at_the_last_committed_writes(cluster: &Cluster, items: &[ItemId], ccp: CcpKind) {
    let mut client = cluster.client();
    let deadline = Instant::now() + Duration::from_secs(10);
    let final_values = loop {
        match client.run("final-read", |txn| txn.read_many(items.to_vec())) {
            Ok((values, _)) => break values,
            Err(error) => assert!(Instant::now() < deadline, "{ccp}: {error:?}"),
        }
    };
    drop(client);
    let horizon = cluster.config().stack.janitor_horizon() + Duration::from_secs(2);
    assert!(cluster.await_history_quiescence(horizon), "{ccp}");
    let history = cluster.history().expect("recording on");
    let report = check_history(&history);
    assert!(report.is_serializable(), "{ccp}: {}", report.summary());

    let mut last_committed: BTreeMap<&ItemId, (u64, &Value)> = BTreeMap::new();
    for write in history.committed().flat_map(|record| &record.writes) {
        let latest = last_committed
            .entry(&write.item)
            .or_insert((write.version.0, &write.value));
        if write.version.0 > latest.0 {
            *latest = (write.version.0, &write.value);
        }
    }
    assert!(!last_committed.is_empty(), "{ccp}: nothing committed");
    for (item, value) in &final_values {
        let expected = last_committed.get(item).map_or(&Value::Int(100), |w| w.1);
        assert_eq!(value, expected, "{ccp}: {item} lost a committed write");
    }
}

/// The vote-window sibling of the test above: each time a site sends a
/// READ-ONLY vote — it has validated and released the transaction's reads
/// and left the commit protocol — that site is crashed, while writers
/// contend for the very items it served. The readers are homed at site 0,
/// which holds no copy, and ROWA reads an item at the lowest-numbered live
/// holder and writes every copy: a writer's participants all vote YES, and
/// the READ-ONLY votes the nemesis waits for come from site 1, the site it
/// crashes (it recovers its victim before it waits again). Whatever the
/// clients were told must hold.
#[test]
fn crashes_right_after_a_read_only_vote_lose_no_committed_write() {
    let items: Vec<ItemId> = (0..4).map(|i| ItemId::new(format!("x{i}"))).collect();
    let (reader_home, holders) = (SiteId(0), vec![SiteId(1), SiteId(2), SiteId(3)]);
    for ccp in [
        CcpKind::TwoPhaseLocking,
        CcpKind::TimestampOrdering,
        CcpKind::MultiversionTimestampOrdering,
    ] {
        let stack = ProtocolStack::rainbow_default()
            .with_rcp(RcpKind::Rowa)
            .with_ccp(ccp)
            .with_lock_wait_timeout(Duration::from_millis(150))
            .with_quorum_timeout(Duration::from_millis(400))
            .with_commit_timeout(Duration::from_millis(400));
        let mut database = DatabaseSchema::new();
        for item in &items {
            let placement = ItemPlacement::majority(holders.clone());
            database.declare(item.clone(), 100i64, placement);
        }
        let link = LinkConfig::with_latency(LatencyModel::constant(Duration::from_millis(2)));
        let cluster = Cluster::start(ClusterConfig {
            stack,
            distribution: DistributionSchema::one_site_per_host(4),
            database,
            network: NetworkConfig::default().with_default_link(link),
            client_timeout: Duration::from_millis(800),
            record_history: true,
            ..ClusterConfig::quick(4, items.len(), 3).unwrap()
        })
        .unwrap();
        let clients_done = AtomicBool::new(false);

        let crashes = std::thread::scope(|scope| {
            let (cluster, items) = (&cluster, &items);
            let writers: Vec<_> = (0..2usize)
                .map(|writer| {
                    scope.spawn(move || {
                        let mut client = cluster.client();
                        for i in 0..8 {
                            let item = items[(writer + i) % items.len()].clone();
                            // Orphans and exhausted retries are fine: the
                            // history records what actually happened.
                            let _ = client.run("increment", |txn| txn.increment(item.clone(), 1));
                        }
                    })
                })
                .collect();
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(move || {
                        let mut client = cluster.client();
                        for _ in 0..8 {
                            let mut txn = client.begin_at("read", reader_home);
                            if txn.read_many(items.clone()).is_ok() {
                                let _ = txn.commit();
                            }
                        }
                    })
                })
                .collect();
            let nemesis = scope.spawn(|| {
                let mut crashes = 0;
                while crashes < 6 {
                    let seen = cluster.votes_read_only();
                    while cluster.votes_read_only() == seen {
                        if clients_done.load(Ordering::Relaxed) {
                            return crashes;
                        }
                        std::thread::yield_now();
                    }
                    cluster.crash_site(holders[0]).unwrap();
                    crashes += 1;
                    std::thread::sleep(Duration::from_millis(30));
                    cluster.recover_site(holders[0]).unwrap();
                    std::thread::sleep(Duration::from_millis(100));
                }
                crashes
            });
            for client in writers.into_iter().chain(readers) {
                client.join().unwrap();
            }
            clients_done.store(true, Ordering::Relaxed);
            nemesis.join().unwrap()
        });
        assert!(crashes > 0, "{ccp}: no READ-ONLY vote was ever sent");
        assert_ends_at_the_last_committed_writes(&cluster, &items, ccp);
    }
}
