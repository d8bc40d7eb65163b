//! Cross-crate integration tests: full Rainbow sessions exercised through
//! the public `rainbow-control` API, checking correctness properties that
//! span every layer (RCP + CCP + ACP + storage + network).

use rainbow_common::protocol::ProtocolStack;
use rainbow_common::txn::TxnSpec;
use rainbow_common::{ItemId, Operation, Value};
use rainbow_control::{ProgressRunner, Session, WorkloadRunner};
use rainbow_wlg::{ArrivalProcess, ManualWorkloadBuilder, WorkloadProfile};
use std::time::Duration;

fn quick_stack() -> ProtocolStack {
    ProtocolStack::rainbow_default()
        .with_lock_wait_timeout(Duration::from_millis(200))
        .with_quorum_timeout(Duration::from_millis(600))
        .with_commit_timeout(Duration::from_millis(600))
}

fn started_session(sites: usize, items: usize, degree: usize) -> Session {
    let mut session = Session::new();
    session.configure_sites(sites).unwrap();
    session.configure_protocols(quick_stack()).unwrap();
    session
        .configure_uniform_database(items, 1000, degree)
        .unwrap();
    session.start().unwrap();
    session
}

#[test]
fn bank_transfer_conserves_total_balance() {
    let session = started_session(3, 8, 3);
    let wlg = WorkloadRunner::new(&session);

    // 30 random transfers between the 8 accounts.
    let mut transfers = ManualWorkloadBuilder::new();
    for i in 0..30 {
        let from = format!("x{}", i % 8);
        let to = format!("x{}", (i + 3) % 8);
        if from == to {
            continue;
        }
        transfers = transfers
            .begin(format!("transfer-{i}"))
            .increment(from.as_str(), -25)
            .increment(to.as_str(), 25);
    }
    let results = wlg.submit_all(transfers.build()).unwrap();
    assert!(results.iter().any(|r| r.committed()));

    // Total money in the system is unchanged regardless of which transfers
    // committed or aborted (atomicity).
    let audit = wlg
        .submit(TxnSpec::new(
            "audit",
            (0..8).map(|i| Operation::read(format!("x{i}"))).collect(),
        ))
        .unwrap();
    assert!(audit.committed());
    let total: i64 = audit.reads.values().map(|v| v.as_int().unwrap()).sum();
    assert_eq!(total, 8 * 1000, "transfers must conserve the total balance");
}

#[test]
fn committed_writes_are_durable_across_site_crash_and_recovery() {
    let session = started_session(3, 6, 3);
    let write = session
        .submit(TxnSpec::new("w", vec![Operation::write("x0", 4242i64)]))
        .unwrap();
    assert!(write.committed());

    // Crash and recover every site: the committed value must survive via the
    // write-ahead logs.
    for site in session.site_ids() {
        session.crash_site(site).unwrap();
        session.recover_site(site).unwrap();
    }
    let read = session
        .submit(TxnSpec::new("r", vec![Operation::read("x0")]))
        .unwrap();
    assert!(read.committed());
    assert_eq!(read.reads.get(&ItemId::new("x0")), Some(&Value::Int(4242)));
}

#[test]
fn concurrent_increments_on_one_item_are_serializable() {
    let session = started_session(3, 4, 3);
    // 40 concurrent +1 increments on the same item: the final value must be
    // exactly 1000 + (number of commits).
    let specs: Vec<TxnSpec> = (0..40)
        .map(|i| TxnSpec::new(format!("inc-{i}"), vec![Operation::increment("x1", 1)]))
        .collect();
    // Concurrent submission: one client thread per transaction.
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .into_iter()
            .map(|spec| {
                let session = &session;
                scope.spawn(move || session.submit(spec).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let commits = results.iter().filter(|r| r.committed()).count() as i64;
    assert!(commits > 0, "at least some increments must commit");

    // The check read may briefly conflict with straggler lock releases right
    // after the burst; retry a few times before judging the final value.
    let mut read = session
        .submit(TxnSpec::new("check", vec![Operation::read("x1")]))
        .unwrap();
    for _ in 0..5 {
        if read.committed() {
            break;
        }
        std::thread::sleep(Duration::from_millis(300));
        read = session
            .submit(TxnSpec::new("check", vec![Operation::read("x1")]))
            .unwrap();
    }
    assert!(
        read.committed(),
        "check read kept aborting: {:?}",
        read.outcome
    );
    assert_eq!(
        read.reads.get(&ItemId::new("x1")),
        Some(&Value::Int(1000 + commits)),
        "final value must reflect exactly the committed increments"
    );
}

#[test]
fn replicas_do_not_diverge_under_a_mixed_workload() {
    let session = started_session(4, 12, 3);
    let wlg = WorkloadRunner::new(&session);
    let report = wlg
        .run_profile(
            WorkloadProfile::WriteHeavy,
            80,
            ArrivalProcess::Closed { mpl: 8 },
        )
        .unwrap();
    assert!(report.committed() > 0);

    let pm = ProgressRunner::new(&session);
    let divergence = pm.replica_divergence().unwrap();
    assert!(divergence.is_empty(), "replica divergence: {divergence:?}");
}

#[test]
fn statistics_panel_accounts_for_every_submitted_transaction() {
    let session = started_session(3, 8, 2);
    let report = session
        .run_generated(
            WorkloadProfile::HotSpotContention,
            60,
            ArrivalProcess::Closed { mpl: 12 },
        )
        .unwrap();
    assert_eq!(report.results.len(), 60);
    let stats = session.statistics().unwrap();
    assert_eq!(stats.submitted, 60);
    assert_eq!(stats.committed + stats.aborted + stats.orphans, 60);
    assert!(stats.messages.sent > 0);
    assert!(stats.response_time.count > 0);
    // The rendered panel mentions the headline numbers.
    let panel = session.render_statistics("integration").unwrap();
    assert!(panel.contains(&format!(
        "submitted transactions      : {}",
        stats.submitted
    )));
}

#[test]
fn read_only_transactions_see_a_consistent_snapshot_of_committed_data() {
    let session = started_session(3, 2, 3);
    // Writer keeps the two items equal (x0 = x1) in every transaction.
    let writers: Vec<TxnSpec> = (1..=15)
        .map(|i| {
            TxnSpec::new(
                format!("w{i}"),
                vec![
                    Operation::write("x0", i as i64),
                    Operation::write("x1", i as i64),
                ],
            )
        })
        .collect();
    let readers: Vec<TxnSpec> = (0..15)
        .map(|i| {
            TxnSpec::new(
                format!("r{i}"),
                vec![Operation::read("x0"), Operation::read("x1")],
            )
        })
        .collect();
    let mut mixed = Vec::new();
    for (w, r) in writers.into_iter().zip(readers) {
        mixed.push(w);
        mixed.push(r);
    }
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = mixed
            .into_iter()
            .map(|spec| {
                let session = &session;
                scope.spawn(move || session.submit(spec).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for result in results
        .iter()
        .filter(|r| r.committed() && !r.reads.is_empty())
    {
        let x0 = result
            .reads
            .get(&ItemId::new("x0"))
            .and_then(|v| v.as_int());
        let x1 = result
            .reads
            .get(&ItemId::new("x1"))
            .and_then(|v| v.as_int());
        if let (Some(a), Some(b)) = (x0, x1) {
            assert_eq!(
                a, b,
                "committed reader observed a non-atomic state: x0={a}, x1={b}"
            );
        }
    }
}
