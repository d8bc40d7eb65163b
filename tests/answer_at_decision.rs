//! The client is answered at the commit *decision*, not after the last
//! acknowledgement. What "committed" then means to it — the decision is on
//! the coordinator's record and every participant is prepared — must be as
//! good as the old answer was, under each CCP:
//!
//! * **isolation**: the instant `commit()` returns, a client at another home
//!   site that reads the item sees the new value. It may have to wait for a
//!   participant the decision has not reached yet (a lock under 2PL, a
//!   pending pre-write under TSO/MVTO); it may not read the old version;
//! * **atomicity across a crash**: a participant that voted YES and crashed
//!   before the decision reached it leaves the client (rightly) told
//!   `Committed`; it recovers in doubt, asks the coordinator, and installs
//!   the write.

use rainbow_common::protocol::{CcpKind, ProtocolStack};
use rainbow_common::{ItemId, SiteId, Value};
use rainbow_core::{Cluster, ClusterConfig};
use rainbow_net::{LatencyModel, LinkConfig, NetworkConfig};
use std::time::{Duration, Instant};

const CCPS: [CcpKind; 3] = [
    CcpKind::TwoPhaseLocking,
    CcpKind::TimestampOrdering,
    CcpKind::MultiversionTimestampOrdering,
];

fn cluster(ccp: CcpKind, network: NetworkConfig) -> Cluster {
    let stack = ProtocolStack::rainbow_default()
        .with_ccp(ccp)
        .with_lock_wait_timeout(Duration::from_secs(2))
        .with_quorum_timeout(Duration::from_secs(3))
        .with_commit_timeout(Duration::from_millis(600));
    let config = ClusterConfig::quick(3, 4, 3)
        .unwrap()
        .with_stack(stack)
        .with_network(network)
        .with_client_timeout(Duration::from_secs(10));
    Cluster::start(config).unwrap()
}

#[test]
fn a_reader_at_another_home_sees_the_write_the_instant_commit_returns() {
    for ccp in CCPS {
        // Uniform 1–4 ms per message: the writer's `TxnDone` regularly
        // overtakes the decision bound for some participant, so the
        // reader's copy access finds the item still locked / pending
        // there and has to wait for the decision.
        let network =
            NetworkConfig::lan(Duration::from_millis(1), Duration::from_millis(4)).with_seed(7);
        let cluster = cluster(ccp, network);
        let mut writer = cluster.client();
        let mut reader = cluster.client();
        for round in 0..12i64 {
            let mut txn = writer.begin_at("write", SiteId(0));
            txn.increment("x0", 5).unwrap();
            txn.commit().unwrap();

            let home = SiteId(1 + (round % 2) as u32);
            let mut txn = reader.begin_at("read", home);
            let seen = txn.read("x0").unwrap();
            txn.commit().unwrap();
            assert_eq!(
                seen,
                Value::Int(100 + 5 * (round + 1)),
                "{ccp} round {round}: a read begun after commit() returned missed the \
                 committed write"
            );
        }
    }
}

/// Spins until `ready` yields a value (the network counters it watches move
/// within one link delay of each other).
fn wait_for<T>(what: &str, mut ready: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(value) = ready() {
            return value;
        }
        assert!(Instant::now() < deadline, "{what} never happened");
        std::thread::yield_now();
    }
}

#[test]
fn a_participant_crashed_between_its_vote_and_the_decision_still_commits() {
    let link = Duration::from_millis(40);
    let item = ItemId::new("x0");
    for ccp in CCPS {
        let network = NetworkConfig::default()
            .with_default_link(LinkConfig::with_latency(LatencyModel::constant(link)));
        let cluster = cluster(ccp, network);
        let home = SiteId(0);
        let counters = cluster.network_counters();
        let served = |site: SiteId| cluster.stats().load.served_requests[&site.0];
        let remotes = [SiteId(1), SiteId(2)].map(|site| (site, served(site)));

        let victim = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut client = cluster.client();
                let mut txn = client.begin_at("write", home);
                txn.increment(item.clone(), 5).unwrap();
                txn.commit()
            });
            // A participant has served the home site two requests: its copy
            // access and the prepare. (A site whose grant came after the
            // quorum assembled serves only the first.)
            let victim = wait_for("a remote prepare", || {
                let prepared = |(site, before): &(SiteId, u64)| served(*site) - before >= 2;
                remotes
                    .iter()
                    .find(|remote| prepared(remote))
                    .map(|(site, _)| *site)
            });
            // The decision leaves once the votes are in and is on the wire
            // for a whole link delay: the crash lands inside it.
            wait_for("the decision", || {
                (counters.kind("ACP_DECISION") > 0).then_some(())
            });
            cluster.crash_site(victim).unwrap();
            let receipt = writer.join().unwrap();
            assert!(
                receipt.is_ok(),
                "{ccp}: every participant voted YES, yet {receipt:?}"
            );
            victim
        });

        // The victim never saw the decision: its copy is the old one.
        let copy_at_victim = || {
            let snapshot = cluster.database_snapshot(victim).unwrap();
            let (_, value, _) = snapshot.into_iter().find(|(id, _, _)| *id == item).unwrap();
            value
        };
        assert_eq!(copy_at_victim(), Value::Int(100), "{ccp}");

        // It recovers in doubt and learns the outcome from the coordinator's
        // decision record.
        cluster.recover_site(victim).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while copy_at_victim() != Value::Int(105) {
            assert!(
                Instant::now() < deadline,
                "{ccp}: the in-doubt write was never resolved to commit"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        let (seen, _) = cluster
            .client()
            .run("read-after-recovery", |txn| txn.read(item.clone()))
            .unwrap();
        assert_eq!(seen, Value::Int(105), "{ccp}");
    }
}
