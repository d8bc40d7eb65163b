//! The read-only optimisation of 2PC, seen from the wire: a site where a
//! transaction wrote nothing votes READ-ONLY, having released what it held,
//! and leaves the commit protocol — it is sent no decision, owes no
//! acknowledgement and forces nothing, so a crash right after its vote
//! neither blocks nor aborts the transaction (QC on three sites).

use rainbow_common::config::{DatabaseSchema, DistributionSchema, ItemPlacement};
use rainbow_common::protocol::ProtocolStack;
use rainbow_common::{ItemId, SiteId};
use rainbow_core::{Cluster, ClusterConfig};
use rainbow_net::{LatencyModel, LinkConfig, NetworkConfig, NodeId};
use rainbow_trace::TraceConfig;
use std::time::{Duration, Instant};

fn stack() -> ProtocolStack {
    ProtocolStack::rainbow_default()
        .with_lock_wait_timeout(Duration::from_millis(500))
        .with_quorum_timeout(Duration::from_secs(2))
        .with_commit_timeout(Duration::from_secs(3))
}

/// Waits until every coordinator has retired its transaction, and says how
/// long that took.
fn retired(cluster: &Cluster) -> Duration {
    let start = Instant::now();
    while cluster.open_conversations() > 0 {
        assert!(start.elapsed() < Duration::from_secs(10), "never retired");
        std::thread::sleep(Duration::from_millis(1));
    }
    start.elapsed()
}

#[test]
fn read_only_transactions_send_no_decision_no_ack_and_force_nothing() {
    // Reads need all three copies (writes two), so every site a read asks
    // is a participant. With majority reads, a copy that answers after its
    // quorum assembled is sent a release notice (an abort `AcpDecision`,
    // acknowledged) — that is the RCP tidying up, not phase two of 2PC.
    let items: Vec<ItemId> = (0..4).map(|i| ItemId::new(format!("x{i}"))).collect();
    let mut database = DatabaseSchema::new();
    for item in &items {
        let copies = (0..3).map(|site| (SiteId(site), 1)).collect();
        database.declare(item.clone(), 100i64, ItemPlacement::weighted(copies, 3, 2));
    }
    let cluster = Cluster::start(ClusterConfig {
        database,
        ..ClusterConfig::quick(3, 4, 3)
            .unwrap()
            .with_stack(stack())
            .with_tracing(TraceConfig::histograms_only())
    })
    .unwrap();
    let forces = || {
        let phases = cluster.stats().phases;
        phases.get("wal-force").map_or(0, |stats| stats.count)
    };
    let (before, forced_before) = (cluster.network_counters().snapshot(), forces());
    let transactions = 10;
    let mut client = cluster.client();
    for _ in 0..transactions {
        client
            .run("read", |txn| txn.read_many(items.clone()))
            .unwrap();
    }
    retired(&cluster);

    let delta = cluster.network_counters().delta_since(&before);
    assert!(delta.kind("ACP_PREPARE") > 0 && delta.kind("ACP_VOTE") > 0);
    assert_eq!(delta.kind("ACP_DECISION"), 0, "{delta:?}");
    assert_eq!(delta.kind("ACP_ACK"), 0, "{delta:?}");
    assert_eq!(forces(), forced_before, "a read-only commit forced the log");
    // Every transaction read at all three sites, which all voted READ-ONLY.
    assert_eq!(cluster.votes_read_only(), 3 * transactions);
}

/// `r` lives on site 2 alone, `w` on sites 0 and 1: a transaction homed at
/// site 0 that reads `r` and increments `w` has site 2 as a participant
/// outside its write quorum.
fn read_here_write_there(network: NetworkConfig) -> Cluster {
    let mut database = DatabaseSchema::new();
    database.declare("r", 1i64, ItemPlacement::majority(vec![SiteId(2)]));
    let write_quorum = vec![SiteId(0), SiteId(1)];
    database.declare("w", 0i64, ItemPlacement::majority(write_quorum));
    Cluster::start(ClusterConfig {
        distribution: DistributionSchema::one_site_per_host(3),
        database,
        network,
        ..ClusterConfig::quick(3, 1, 1).unwrap().with_stack(stack())
    })
    .unwrap()
}

#[test]
fn a_site_read_outside_the_write_quorum_is_sent_no_decision() {
    let cluster = read_here_write_there(NetworkConfig::perfect());
    let counters = cluster.network_counters();
    let before = counters.snapshot();
    let served_by_reader = || cluster.stats().load.served_requests[&2];
    let reader_served_before = served_by_reader();

    let mut client = cluster.client();
    let mut txn = client.begin_at("read-here-write-there", SiteId(0));
    txn.read("r").unwrap();
    txn.increment("w", 1).unwrap();
    txn.commit().unwrap();
    retired(&cluster);

    // Site 2 served the copy read and the prepare, and voted READ-ONLY.
    assert_eq!(served_by_reader() - reader_served_before, 2);
    assert_eq!(cluster.votes_read_only(), 1);
    // The one decision and its ack went between sites 0 and 1, the YES
    // voter (the home's own are stepped in its loop, and free): nothing
    // reached site 2 after its vote.
    let delta = counters.delta_since(&before);
    assert_eq!(delta.kind("ACP_PREPARE"), 2, "{delta:?}");
    assert_eq!(delta.kind("ACP_DECISION"), 1, "{delta:?}");
    assert_eq!(delta.kind("ACP_ACK"), 1, "{delta:?}");
}

/// Why a READ-ONLY voter still validates: under 2PL a crash between a read
/// and the prepare wipes the read lock, a writer can then overwrite the
/// item and commit, and a reader that later sees the writer's other write
/// has read both before and after it. Only validation at the crashed site
/// (holding nothing, it votes NO) keeps that cycle out of the history.
#[test]
fn a_read_whose_lock_a_crash_wiped_is_not_vouched_for() {
    let mut database = DatabaseSchema::new();
    database.declare("x", 0i64, ItemPlacement::majority(vec![SiteId(1)]));
    database.declare("y", 0i64, ItemPlacement::majority(vec![SiteId(2)]));
    let cluster = Cluster::start(ClusterConfig {
        distribution: DistributionSchema::one_site_per_host(3),
        database,
        record_history: true,
        ..ClusterConfig::quick(3, 1, 1).unwrap().with_stack(stack())
    })
    .unwrap();
    let (mut reader_client, mut writer_client) = (cluster.client(), cluster.client());
    let mut reader = reader_client.begin_at("reader", SiteId(0));
    assert_eq!(reader.read("x").unwrap(), 0i64.into());
    cluster.crash_site(SiteId(1)).unwrap();
    cluster.recover_site(SiteId(1)).unwrap();

    let mut writer = writer_client.begin_at("writer", SiteId(0));
    writer.increment("x", 1).unwrap();
    writer.increment("y", 1).unwrap();
    writer.commit().unwrap();

    assert_eq!(reader.read("y").unwrap(), 1i64.into());
    assert!(reader.commit().is_err(), "x's read is no longer protected");
    assert!(cluster.await_history_quiescence(Duration::from_secs(5)));
    let history = cluster.history().expect("recording on");
    assert!(rainbow_check::check_history(&history).is_serializable());
}

#[test]
fn crashing_a_read_only_site_right_after_its_vote_neither_blocks_nor_aborts() {
    // Site 1's messages home take 100 ms, so the decision waits for its vote
    // long after site 2's READ-ONLY vote is in: the crash lands in between.
    let slow = LinkConfig::with_latency(LatencyModel::constant(Duration::from_millis(100)));
    let network = NetworkConfig::perfect().override_link(NodeId::site(1), NodeId::site(0), slow);
    let cluster = read_here_write_there(network);

    let commit_took = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut client = cluster.client();
            let mut txn = client.begin_at("read-here-write-there", SiteId(0));
            txn.read("r").unwrap();
            txn.increment("w", 1).unwrap();
            let committing = Instant::now();
            txn.commit().map(|_| committing.elapsed())
        });
        // Site 2 has voted READ-ONLY; the vote leaves with the drain's
        // flush, well within the 10 ms before the crash.
        let deadline = Instant::now() + Duration::from_secs(5);
        while cluster.votes_read_only() == 0 {
            assert!(Instant::now() < deadline, "site 2 never voted");
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(10));
        cluster.crash_site(SiteId(2)).unwrap();
        writer.join().unwrap()
    });
    let commit_took = commit_took.expect("the crash of a READ-ONLY voter aborted the transaction");
    assert_eq!(cluster.votes_read_only(), 1);
    // Nobody waits for the crashed site: the coordinator retires with the
    // decision's acknowledgement from site 1, not at the commit timeout.
    let retiring = retired(&cluster);
    let timeout = cluster.config().stack.commit_timeout;
    assert!(
        commit_took + retiring < timeout / 2,
        "{commit_took:?} + {retiring:?}"
    );
    cluster.recover_site(SiteId(2)).unwrap();
}
