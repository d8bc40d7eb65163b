//! The interactive transaction API, exercised end to end:
//!
//! * a **differential** property: any `TxnSpec` replayed by hand through a
//!   `Client`/`Txn` conversation yields exactly the outcome, read values and
//!   final database state the one-shot adapter path (`Cluster::submit`)
//!   produces — looped across all five replication protocols, since the
//!   adapter *is* a conversation and the two must never diverge;
//! * **drop safety**: an unfinished `Txn` aborts on drop (and a client that
//!   silently vanishes is idled out by the coordinator), releasing every
//!   CCP resource at every site;
//! * the **retry combinator** under faults: conversations homed at a
//!   crashed site orphan, retry elsewhere, and commit;
//! * the **hop count** of the conversation: the first command opens it and
//!   the client is answered at the decision, so one increment is four
//!   client messages and eight sequential link delays;
//! * **no lost answer**: two terminal answers a site loop produces for one
//!   client in one drain both reach it;
//! * the **coordinator's lifecycle**: a thousand concurrent conversations —
//!   all machines on three site loops — each complete with exactly one
//!   terminal result and the committed increments are exactly reflected in
//!   the final state; tearing the cluster down with conversations still in
//!   flight joins every site thread without hanging.

use rainbow_common::protocol::{ProtocolStack, RcpKind};
use rainbow_common::txn::{TxnError, TxnSpec};
use rainbow_common::{ItemId, Operation, SiteId, Value};
use rainbow_core::{Cluster, ClusterConfig};
use rainbow_net::{LatencyModel, LinkConfig, NetworkConfig};
use rainbow_wlg::{WorkloadGenerator, WorkloadParams};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The link-delay timing and the thousand-conversation burst take turns:
/// a thousand client threads would drown the other test's clock.
static TAKING_TURNS: Mutex<()> = Mutex::new(());

fn stack(rcp: RcpKind) -> ProtocolStack {
    ProtocolStack::rainbow_default()
        .with_rcp(rcp)
        .with_lock_wait_timeout(Duration::from_millis(200))
        .with_quorum_timeout(Duration::from_millis(600))
        .with_commit_timeout(Duration::from_millis(600))
}

fn cluster_of(items: usize, rcp: RcpKind, client_timeout: Duration) -> Cluster {
    let config = ClusterConfig::quick(3, items, 3)
        .unwrap()
        .with_stack(stack(rcp))
        .with_client_timeout(client_timeout);
    Cluster::start(config).unwrap()
}

fn cluster(rcp: RcpKind) -> Cluster {
    cluster_of(8, rcp, Duration::from_secs(5))
}

/// A deterministic mixed workload (reads, writes, increments) over the
/// quick-cluster item universe. The same seed produces the same specs for
/// both sides of the differential.
fn mixed_specs() -> Vec<TxnSpec> {
    let items: Vec<ItemId> = (0..8).map(|i| ItemId::new(format!("x{i}"))).collect();
    let params = WorkloadParams::default()
        .with_items(items)
        .with_transactions(10)
        .with_ops_range(1, 5)
        .with_read_fraction(0.5)
        .with_seed(91);
    let mut specs = WorkloadGenerator::new(params).generate();
    // Plus hand-picked shapes the generator rarely emits: empty, read-only,
    // write-then-read of the same item, duplicate reads.
    specs.push(TxnSpec::new("empty", vec![]));
    specs.push(TxnSpec::new(
        "write-then-read",
        vec![
            Operation::write("x0", 4242i64),
            Operation::read("x0"),
            Operation::read("x0"),
        ],
    ));
    specs.push(TxnSpec::new(
        "mixed-same-item",
        vec![
            Operation::read("x1"),
            Operation::increment("x1", 3),
            Operation::write("x2", 7i64),
        ],
    ));
    specs
}

/// Replays one spec by hand through an interactive conversation, mirroring
/// what the adapter does internally — but through the *public* handle API.
fn replay_by_hand(cluster: &Cluster, spec: &TxnSpec) -> (bool, BTreeMap<ItemId, Value>) {
    let mut client = cluster.client();
    let mut txn = match spec.home {
        Some(site) => client.begin_at(spec.label.clone(), site),
        None => client.begin(spec.label.clone()),
    };
    let mut observed = BTreeMap::new();
    for op in &spec.operations {
        let step: Result<(), TxnError> = match op {
            Operation::Read { item } => txn.read(item.clone()).map(|value| {
                observed.insert(item.clone(), value);
            }),
            Operation::Write { item, value } => txn.write(item.clone(), value.clone()),
            Operation::Increment { item, delta } => {
                txn.increment(item.clone(), *delta).map(|value| {
                    observed.insert(item.clone(), value);
                })
            }
        };
        if step.is_err() {
            return (false, observed);
        }
    }
    match txn.commit() {
        Ok(receipt) => (true, receipt.reads),
        Err(_) => (false, observed),
    }
}

fn audit_state(cluster: &Cluster) -> BTreeMap<ItemId, Value> {
    let audit = cluster.submit(TxnSpec::new(
        "audit",
        (0..8).map(|i| Operation::read(format!("x{i}"))).collect(),
    ));
    assert!(audit.committed(), "audit must commit: {:?}", audit.outcome);
    audit.reads
}

/// The acceptance-criteria differential: spec-adapter vs hand-driven
/// conversation, across the full RCP matrix.
#[test]
fn spec_replay_matches_adapter_across_rcps() {
    for rcp in RcpKind::ALL {
        let adapter_side = cluster(rcp);
        let handle_side = cluster(rcp);
        for spec in mixed_specs() {
            let adapter = adapter_side.submit(spec.clone());
            let (hand_committed, hand_reads) = replay_by_hand(&handle_side, &spec);
            assert_eq!(
                adapter.committed(),
                hand_committed,
                "{rcp:?} '{}': outcome diverged (adapter: {:?})",
                spec.label,
                adapter.outcome
            );
            if adapter.committed() {
                assert_eq!(
                    adapter.reads, hand_reads,
                    "{rcp:?} '{}': reads diverged",
                    spec.label
                );
            }
        }
        assert_eq!(
            audit_state(&adapter_side),
            audit_state(&handle_side),
            "{rcp:?}: final states diverged"
        );
    }
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

#[test]
fn dropped_txn_aborts_and_releases_locks() {
    let cluster = cluster(RcpKind::QuorumConsensus);
    let mut client = cluster.client();
    {
        let mut txn = client.begin("doomed");
        // Shared locks on x0's quorum, exclusive locks on x1's.
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
    // The buffered increment must not have been installed.
    let read = cluster.submit(TxnSpec::new("check", vec![Operation::read("x1")]));
    assert_eq!(read.reads.get(&ItemId::new("x1")), Some(&Value::Int(100)));
    // The conversation was accounted as an abort, not leaked.
    let stats = cluster.stats();
    assert_eq!(stats.aborted, 1);
    assert_eq!(stats.submitted, 2);
}

#[test]
fn vanished_client_is_idled_out_by_the_coordinator() {
    // Tight protocol timeouts so the coordinator's idle horizon
    // ((lock + quorum + commit) * 3) stays test-sized.
    let config = ClusterConfig::quick(3, 4, 3)
        .unwrap()
        .with_stack(
            ProtocolStack::rainbow_default()
                .with_lock_wait_timeout(Duration::from_millis(50))
                .with_quorum_timeout(Duration::from_millis(100))
                .with_commit_timeout(Duration::from_millis(100)),
        )
        .with_client_timeout(Duration::from_secs(2));
    let cluster = Cluster::start(config).unwrap();
    let mut client = cluster.client();
    let mut txn = client.begin("vanishing");
    txn.increment("x0", 1).unwrap();
    // The client vanishes without even a drop-abort (process death): the
    // coordinator must abort the conversation at its idle horizon.
    std::mem::forget(txn);
    assert!(
        drain_cc_entries(&cluster),
        "idle-horizon abort must release CCP entries: {:?}",
        cluster.active_cc_transactions()
    );
    let read = cluster.submit(TxnSpec::new("check", vec![Operation::read("x0")]));
    assert_eq!(read.reads.get(&ItemId::new("x0")), Some(&Value::Int(100)));
}

#[test]
fn retry_combinator_reroutes_around_a_crashed_home_site() {
    let config = ClusterConfig::quick(3, 6, 3)
        .unwrap()
        .with_client_timeout(Duration::from_millis(700));
    let cluster = Cluster::start(config).unwrap();
    cluster.crash_site(rainbow_common::SiteId(2)).unwrap();

    let mut client = cluster.client();
    let mut landed_retries = 0;
    for i in 0..6 {
        // Round-robin home selection lands every third begin on the crashed
        // site; those conversations orphan and must be retried elsewhere.
        let (observed, receipt) = client
            .run(format!("survivor-{i}"), |txn| txn.read("x0"))
            .expect("retry must eventually commit every conversation");
        assert_eq!(observed.as_int(), Some(100));
        landed_retries += receipt.restarts;
    }
    assert!(
        landed_retries > 0,
        "with a crashed site in rotation, some conversation must have retried"
    );
}

#[test]
fn interactive_conversation_reads_its_own_commits_across_txns() {
    let cluster = cluster(RcpKind::Rowa);
    let mut client = cluster.client();

    // A conditional transfer driven by observed values.
    let mut txn = client.begin("transfer");
    let balance = txn.read("x0").unwrap().as_int().unwrap();
    assert_eq!(balance, 100);
    txn.increment("x0", -40).unwrap();
    txn.increment("x1", 40).unwrap();
    let receipt = txn.commit().unwrap();
    assert!(receipt.reads.contains_key(&ItemId::new("x0")));

    // The next conversation observes the committed effects; the batched
    // multi-get returns values in request order and agrees with single
    // reads.
    let mut txn = client.begin("audit");
    assert_eq!(txn.read("x0").unwrap(), Value::Int(60));
    assert_eq!(txn.read("x1").unwrap(), Value::Int(140));
    let batch = txn.read_many(["x1", "x0", "x2"]).unwrap();
    assert_eq!(
        batch,
        vec![
            (ItemId::new("x1"), Value::Int(140)),
            (ItemId::new("x0"), Value::Int(60)),
            (ItemId::new("x2"), Value::Int(100)),
        ]
    );
    txn.commit().unwrap();

    // Explicit abort leaves no trace.
    let mut txn = client.begin("undone");
    txn.increment("x0", -1000).unwrap();
    txn.abort();
    let mut txn = client.begin("after-abort");
    assert_eq!(txn.read("x0").unwrap(), Value::Int(60));
    txn.commit().unwrap();
}

#[test]
fn one_increment_is_four_client_messages() {
    let cluster = Cluster::start(ClusterConfig::quick(3, 8, 3).unwrap()).unwrap();
    let counters = cluster.network_counters();
    let mut client = cluster.client();

    let mut txn = client.begin("increment");
    assert_eq!(txn.id(), None, "no id before the first answer");
    assert_eq!(counters.kind("TXN_BEGIN"), 0, "begin sent");
    txn.increment("x0", 1).unwrap();
    let id = txn.id().expect("the first answer names the transaction");
    assert_eq!(id.home, txn.home());
    txn.commit().unwrap();

    let sent = |kind| counters.kind(kind);
    assert_eq!(sent("TXN_BEGIN"), 1);
    assert_eq!(sent("TXN_OP_REPLY"), 1);
    assert_eq!(sent("TXN_OP"), 1);
    assert_eq!(sent("TXN_DONE"), 1);
    assert_eq!(sent("TXN_BEGAN"), 0);
    let client_messages: u64 = counters
        .snapshot()
        .by_kind
        .iter()
        .filter(|(kind, _)| kind.starts_with("TXN_"))
        .map(|(_, count)| count)
        .sum();
    assert_eq!(client_messages, 4);
}

#[test]
fn one_increment_asks_one_remote_copy_and_leaves_the_spare_alone() {
    // Three copies, majority quorums, home pinned at site 0: the quorum is
    // the home's own copy and its ring successor, site 1. Site 2 is a spare
    // nobody fails over to, so it hears nothing — no copy access, and no
    // release notice for a lock it never took.
    let cluster = Cluster::start(ClusterConfig::quick(3, 8, 3).unwrap()).unwrap();
    let counters = cluster.network_counters();
    let before = counters.snapshot();
    let served = |site| cluster.stats().load.served_requests[&site];
    let served_before = [0, 1, 2].map(served);
    let mut client = cluster.client();
    let mut txn = client.begin_at("increment", SiteId(0));
    txn.increment("x0", 1).unwrap();
    txn.commit().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.open_conversations() > 0 {
        assert!(Instant::now() < deadline, "the coordinator never retired");
        std::thread::yield_now();
    }

    // Site 1 served its copy read and its prepare; the spare, nothing.
    let served_now = [0, 1, 2].map(|site| served(site) - served_before[site as usize]);
    assert_eq!(
        served_now[1..],
        [2, 0],
        "served at sites 0, 1, 2: {served_now:?}"
    );
    // The one remote copy: RCP_READ, RCP_REPLY, then 2PC with it:
    // ACP_PREPARE, ACP_VOTE, ACP_DECISION, ACP_ACK. The home's own copy is
    // asked in the home's loop, and not counted. The one decision is site
    // 1's, a YES voter's: no release notice went to the spare.
    let delta = counters.delta_since(&before);
    for kind in [
        "RCP_READ",
        "RCP_REPLY",
        "ACP_PREPARE",
        "ACP_VOTE",
        "ACP_DECISION",
        "ACP_ACK",
    ] {
        assert_eq!(delta.kind(kind), 1, "{kind}: {delta:?}");
    }
    assert_eq!(delta.sent, 10, "6 site and 4 client messages: {delta:?}");
}

#[test]
fn one_increment_is_eight_sequential_link_delays() {
    // TxnBegin(op), CopyRead, CopyReply, TxnOpReply, TxnOp(Commit),
    // AcpPrepare, AcpVote, TxnDone (beside the decisions): 8 delays. With a
    // begin handshake and an answer after the last ack it was 12. (A hop
    // also costs the simulator's timer ~0.25 ms in a debug build, which is
    // why the link is not shorter.)
    let _turn = TAKING_TURNS.lock().unwrap_or_else(PoisonError::into_inner);
    let link = Duration::from_millis(4);
    let config = ClusterConfig::quick(3, 8, 3).unwrap().with_network(
        NetworkConfig::default()
            .with_default_link(LinkConfig::with_latency(LatencyModel::constant(link))),
    );
    let cluster = Cluster::start(config).unwrap();
    let mut client = cluster.client();
    // Scheduling noise only ever adds time: the best of a few transactions
    // is the one that shows the hop count.
    let mut best = Duration::MAX;
    for i in 0..6 {
        let started = Instant::now();
        let mut txn = client.begin("timed");
        let begin_took = started.elapsed();
        assert!(
            begin_took < link,
            "begin took {begin_took:?}, it must not touch the network"
        );
        txn.increment(format!("x{i}"), 1).unwrap();
        txn.commit().unwrap();
        best = best.min(started.elapsed());
    }
    assert!(
        best >= link * 8,
        "{best:?} is under 8 link delays — are the links delayed?"
    );
    assert!(
        best < link * 19 / 2,
        "begin → increment → commit took {best:?}, over 9.5 link delays"
    );
}

#[test]
fn two_answers_for_one_client_in_one_drain_both_arrive() {
    // The abort a dropped handle fires and the lone commit that follows it
    // reach the home site's loop together and are handled in one drain, so
    // the loop flushes two `TxnDone`s for the same client together. Only
    // sites unpack a batch: both must travel as themselves, or the commit's
    // answer is lost and the client, told `Orphaned`, would run a committed
    // transaction again.
    let config = ClusterConfig::quick(3, 8, 3)
        .unwrap()
        .with_client_timeout(Duration::from_secs(2));
    let cluster = Cluster::start(config).unwrap();
    let counters = cluster.network_counters();
    let mut client = cluster.client();
    for round in 0..100 {
        let mut txn = client.begin_at("dropped", SiteId(0));
        txn.increment("x0", 1).unwrap();
        drop(txn);
        let lone = client.begin_at("lone-commit", SiteId(0));
        if let Err(error) = lone.commit() {
            panic!("round {round}: the commit's answer never arrived: {error:?}");
        }
    }
    assert_eq!(counters.kind("TXN_DONE"), 200, "one answer per transaction");
    let mut txn = client.begin("audit");
    assert_eq!(
        txn.read("x0").unwrap(),
        Value::Int(100),
        "every drop aborted"
    );
    txn.commit().unwrap();
}

/// A thousand concurrent conversations, spread over the item universe so
/// most commit: every one must come back with exactly one terminal
/// outcome, and the final state must reflect exactly the committed
/// increments — the observable form of "each transaction is owned by
/// exactly one machine".
#[test]
fn a_thousand_concurrent_conversations_complete() {
    const CLIENTS: usize = 1000;
    // One item per client: the burst measures conversation lifecycle and
    // machine ownership, not 2PL contention (the chaos suite covers that).
    const ITEMS: usize = CLIENTS;
    let _turn = TAKING_TURNS.lock().unwrap_or_else(PoisonError::into_inner);
    let cluster = cluster_of(ITEMS, RcpKind::QuorumConsensus, Duration::from_secs(10));

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

/// Shutdown with conversations still open must fail them site-down and
/// join every site thread — bounded, never hanging on an in-flight
/// machine.
#[test]
fn shutdown_with_in_flight_conversations_joins_every_reactor() {
    let mut cluster = cluster_of(8, RcpKind::QuorumConsensus, Duration::from_secs(10));
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
        "shutdown must join all site threads despite in-flight conversations"
    );
    teardown.join().unwrap();
}
