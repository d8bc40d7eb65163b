//! Research-study example (Section 3 of the paper): use Rainbow as an
//! experimentation tool to study quorum-consensus message traffic and
//! availability, the way the authors' earlier SETH work ([3]) did, and the
//! Section-5 term project of replacing two-phase by three-phase commit.
//!
//! ```text
//! cargo run -p rainbow-control --example research_study
//! ```

use rainbow_common::protocol::{AcpKind, ProtocolStack, RcpKind};
use rainbow_common::SiteId;
use rainbow_control::{ExperimentTable, Session};
use rainbow_wlg::{ArrivalProcess, WorkloadProfile};
use std::time::Duration;

fn study_session(stack: ProtocolStack, sites: usize, degree: usize, seed: u64) -> Session {
    let mut session = Session::new();
    session.configure_sites(sites).expect("sites");
    session
        .configure_protocols(
            stack
                .with_quorum_timeout(Duration::from_millis(400))
                .with_commit_timeout(Duration::from_millis(400)),
        )
        .expect("protocols");
    session
        .configure_uniform_database(12, 100, degree)
        .expect("database");
    session.set_seed(seed);
    session.set_client_timeout(Duration::from_secs(3));
    session.start().expect("start");
    session
}

fn main() {
    // Study 1: message traffic per transaction, QC vs ROWA, as replication
    // degree grows (read-heavy workload).
    println!("== Study 1: message traffic vs replication degree ==");
    let mut traffic = ExperimentTable::new(
        "messages per transaction (read-heavy, 80 txns, MPL 8)",
        &["degree", "ROWA", "QC"],
    );
    for degree in [1usize, 3, 5] {
        let mut cells = vec![degree.to_string()];
        for rcp in [RcpKind::Rowa, RcpKind::QuorumConsensus] {
            let stack = ProtocolStack::rainbow_default().with_rcp(rcp);
            let session = study_session(stack, 5, degree, degree as u64);
            let report = session
                .run_generated(
                    WorkloadProfile::ReadHeavy,
                    80,
                    ArrivalProcess::Closed { mpl: 8 },
                )
                .expect("workload");
            let stats = session.statistics().expect("stats");
            drop(report);
            cells.push(format!("{:.1}", stats.messages_per_txn()));
        }
        traffic.row(&cells);
    }
    println!("{}", traffic.render());

    // Study 2: availability under failures — commit rate of a write-heavy
    // workload as copy holders crash.
    println!("== Study 2: availability under site failures ==");
    let mut availability = ExperimentTable::new(
        "commit rate with crashed copy holders (write-heavy, degree 5)",
        &["crashed sites", "ROWA commit%", "QC commit%"],
    );
    for crashed in [0usize, 1, 2] {
        let mut cells = vec![crashed.to_string()];
        for rcp in [RcpKind::Rowa, RcpKind::QuorumConsensus] {
            let stack = ProtocolStack::rainbow_default().with_rcp(rcp);
            let session = study_session(stack, 5, 5, 7 + crashed as u64);
            for i in 0..crashed {
                session.crash_site(SiteId((4 - i) as u32)).expect("crash");
            }
            let report = session
                .run_generated(
                    WorkloadProfile::WriteHeavy,
                    60,
                    ArrivalProcess::Closed { mpl: 6 },
                )
                .expect("workload");
            cells.push(format!("{:.1}", report.commit_rate() * 100.0));
        }
        availability.row(&cells);
    }
    println!("{}", availability.render());
    println!("Expected shape: ROWA reads one copy and QC a read quorum (the home's copy and");
    println!("the next holders, the others kept as spares), so ROWA stays cheaper on failure-free");
    println!("read-heavy traffic and QC's cost grows with the degree, by a majority of the copies");
    println!("per access rather than all of them. QC keeps committing writes once copy holders");
    println!("start failing, ROWA drops to ~0%.");

    // Study 3: the term project of Section 5 — 2PC vs 3PC, commit-protocol
    // messages by kind (QC + 2PL, write-heavy, degree 3).
    println!("\n== Study 3: two-phase vs three-phase commit ==");
    let kinds = [
        "ACP_PREPARE",
        "ACP_VOTE",
        "ACP_PRECOMMIT",
        "ACP_PRECOMMIT_ACK",
        "ACP_DECISION",
        "ACP_ACK",
    ];
    let mut headers = vec!["ACP", "commit%", "msgs/txn", "rt-mean ms"];
    headers.extend(kinds);
    let mut acp_table =
        ExperimentTable::new("commit-protocol cost (4 sites, 80 txns, MPL 2)", &headers);
    for acp in [AcpKind::TwoPhaseCommit, AcpKind::ThreePhaseCommit] {
        let session = study_session(ProtocolStack::rainbow_default().with_acp(acp), 4, 3, 11);
        session
            .run_generated(
                WorkloadProfile::WriteHeavy,
                80,
                ArrivalProcess::Closed { mpl: 2 },
            )
            .expect("workload");
        let stats = session.statistics().expect("stats");
        let mut cells = vec![
            acp.to_string(),
            format!("{:.1}", stats.commit_rate() * 100.0),
            format!("{:.1}", stats.messages_per_txn()),
            format!("{:.2}", stats.response_time.mean_us / 1000.0),
        ];
        cells.extend(
            kinds
                .iter()
                .map(|kind| stats.messages.kind(kind).to_string()),
        );
        acp_table.row(&cells);
    }
    println!("{}", acp_table.render());
    println!("Expected shape: 3PC adds one PRECOMMIT / PRECOMMIT_ACK round per participant");
    println!("and the response time it costs, in exchange for non-blocking termination.");
    println!("Three copies on four sites: two conflicting transactions' quorums can meet at one");
    println!("site for one item and at another for the next, so a lock cycle spans sites and no");
    println!("site's wait-for graph sees it. At the hedge point (half the quorum timeout) the");
    println!("rounds ask their spare copies, where the cycle can meet at one site and be broken;");
    println!("otherwise the quorum times out. The few transactions caught in such a cycle");
    println!("dominate the mean response time of either protocol.");
}
