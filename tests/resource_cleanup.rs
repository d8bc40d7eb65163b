//! Resource-cleanup regression tests: after a workload finishes, no
//! transaction may keep holding concurrency-control resources at any site
//! (leaked locks were an actual bug class during development — a copy-access
//! grant racing with the transaction's decision).

use rainbow_common::protocol::{CcpKind, ProtocolStack};
use rainbow_core::{Cluster, ClusterConfig};
use rainbow_wlg::{WorkloadGenerator, WorkloadProfile};
use std::time::Duration;

fn run_and_check(ccp: CcpKind, transactions: usize, mpl: usize) {
    let stack = ProtocolStack::rainbow_default()
        .with_ccp(ccp)
        .with_lock_wait_timeout(Duration::from_millis(150))
        .with_quorum_timeout(Duration::from_millis(500))
        .with_commit_timeout(Duration::from_millis(500));
    let config = ClusterConfig::quick(3, 8, 3).unwrap().with_stack(stack);
    let cluster = Cluster::start(config).unwrap();
    let params = WorkloadProfile::WriteHeavy.params(
        cluster.config().database.item_ids(),
        cluster.site_ids(),
        transactions,
        17,
    );
    let specs = WorkloadGenerator::new(params).generate();
    let results = cluster.run_workload(specs, mpl);
    assert_eq!(results.len(), transactions);
    assert!(results.iter().any(|r| r.committed()));

    // Give in-flight decision messages a moment to land, then insist that no
    // CCP resources remain held anywhere. Coordinators of timed-out
    // transactions may still be distributing aborts when `run_workload`
    // returns (slowly, on a loaded single-CPU CI machine), and rare
    // decision-vs-access races are resolved by the janitor (by design, past
    // its idle horizon), so the invariant checked here is *eventual
    // quiescence*: the counts must drain to zero within a budget that
    // covers one janitor pass. A genuine leak shows up as a count no amount
    // of waiting drains.
    let mut last = cluster.active_cc_transactions();
    for _ in 0..80 {
        if last.values().all(|count| *count == 0) {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
        last = cluster.active_cc_transactions();
    }
    assert!(
        last.values().all(|count| *count == 0),
        "leaked concurrency-control resources after the workload ({ccp}): {last:?}, \
         lingering participants: {:?}",
        cluster.lingering_participants()
    );
}

#[test]
fn no_leaked_locks_after_a_contended_2pl_workload() {
    run_and_check(CcpKind::TwoPhaseLocking, 40, 8);
}

#[test]
fn no_leaked_state_after_a_tso_workload() {
    run_and_check(CcpKind::TimestampOrdering, 40, 8);
}

#[test]
fn no_leaked_state_after_an_mvto_workload() {
    run_and_check(CcpKind::MultiversionTimestampOrdering, 40, 8);
}

/// `begin` is lazy: a handle dropped (or aborted) before its first command
/// never reached any site, so there is nothing to clean up anywhere.
#[test]
fn a_txn_dropped_before_its_first_command_leaves_nothing_behind() {
    let cluster = Cluster::start(ClusterConfig::quick(3, 8, 3).unwrap()).unwrap();
    let counters = cluster.network_counters();
    let sent_before = counters.sent();
    let mut client = cluster.client();

    drop(client.begin("dropped"));
    client.begin("aborted").abort();

    assert_eq!(
        counters.sent(),
        sent_before,
        "an unopened handle sent a message"
    );
    assert_eq!(cluster.open_conversations(), 0, "a machine was opened");
    let lingering = cluster.lingering_participants();
    assert!(lingering.values().all(Vec::is_empty), "{lingering:?}");
    assert!(cluster.active_cc_transactions().values().all(|n| *n == 0));
    // Both are accounted as aborts the client asked for, not as orphans.
    let stats = cluster.stats();
    assert_eq!((stats.submitted, stats.aborted, stats.orphans), (2, 2, 0));

    // The endpoint is as good as new afterwards — and the coordinator of a
    // real transaction, answered at the decision, retires once the
    // acknowledgements are in.
    let wait_for_open = |expected: usize, what: &str| {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while cluster.open_conversations() != expected {
            assert!(std::time::Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    };
    let mut txn = client.begin("real");
    txn.increment("x0", 1).unwrap();
    // (The site loop publishes its count at the end of the drain, just after
    // the reply left.)
    wait_for_open(1, "the open conversation is not counted");
    txn.commit().unwrap();
    wait_for_open(0, "the coordinator never retired");
}
