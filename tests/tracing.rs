//! Tracing must observe, never perturb: a traced run and an untraced run of
//! the same seeded workload decide the same transactions the same way and
//! read the same values, for every replication protocol. Also covers the
//! exported artifacts: the Chrome trace validates, and phase histograms are
//! populated exactly when tracing is on.

use rainbow_common::protocol::{ProtocolStack, RcpKind};
use rainbow_common::TxnId;
use rainbow_control::Session;
use rainbow_net::NetworkConfig;
use rainbow_trace::{chrome_trace_json, validate_chrome_trace, TraceConfig};
use rainbow_wlg::{ArrivalProcess, WorkloadProfile};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What a client can observe of one transaction: its label, its decision
/// and the values its reads returned. Timing fields are deliberately
/// excluded — wall-clock response times differ run to run.
type Observation = (String, String, BTreeMap<String, String>);

fn run_workload(rcp: RcpKind, tracing: TraceConfig) -> Vec<Observation> {
    let mut session = Session::new();
    session.configure_network(NetworkConfig::perfect()).unwrap();
    session.configure_sites(3).unwrap();
    session
        .configure_protocols(
            ProtocolStack::rainbow_default()
                .with_rcp(rcp)
                .with_lock_wait_timeout(Duration::from_millis(150)),
        )
        .unwrap();
    session.configure_uniform_database(8, 100, 3).unwrap();
    session.set_seed(23);
    session.set_tracing(tracing);
    session.start().unwrap();

    // MPL 1 keeps the schedule deterministic so the two runs are
    // bit-for-bit comparable; the differential assertion is about the
    // instrumentation, not about races.
    let report = session
        .run_generated(
            WorkloadProfile::WriteHeavy,
            30,
            ArrivalProcess::Closed { mpl: 1 },
        )
        .unwrap();

    report
        .results
        .iter()
        .map(|r| {
            (
                r.label.clone(),
                format!("{:?}", r.outcome),
                r.reads
                    .iter()
                    .map(|(item, value)| (item.to_string(), format!("{value:?}")))
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn traced_and_untraced_runs_decide_identically_for_every_rcp() {
    for rcp in RcpKind::ALL {
        let untraced = run_workload(rcp, TraceConfig::disabled());
        let traced = run_workload(rcp, TraceConfig::sample_all());
        let histograms = run_workload(rcp, TraceConfig::histograms_only());
        assert_eq!(
            untraced, traced,
            "{rcp:?}: full tracing changed transaction outcomes"
        );
        assert_eq!(
            untraced, histograms,
            "{rcp:?}: phase histograms changed transaction outcomes"
        );
    }
}

#[test]
fn traced_run_exports_a_valid_chrome_trace() {
    let mut session = Session::new();
    session.configure_sites(3).unwrap();
    session.configure_uniform_database(8, 100, 3).unwrap();
    session.set_tracing(TraceConfig::sample_all());
    session.start().unwrap();
    session
        .run_generated(
            WorkloadProfile::ReadHeavy,
            20,
            ArrivalProcess::Closed { mpl: 4 },
        )
        .unwrap();
    // A client is answered at the decision; its coordinator records the
    // root span when it retires, once the acknowledgements are in.
    let deadline = Instant::now() + Duration::from_secs(10);
    while session.open_conversations().unwrap() > 0 {
        assert!(Instant::now() < deadline, "a coordinator never retired");
        std::thread::sleep(Duration::from_millis(1));
    }

    let tracer = session.tracer().unwrap().expect("tracing enabled");
    let events = tracer.events();
    assert!(!events.is_empty(), "traced run produced no spans");

    let json = chrome_trace_json(&events);
    let check = validate_chrome_trace(&json).expect("exported trace must be valid");
    assert_eq!(check.begins, check.ends, "unbalanced begin/end events");
    assert!(check.processes > 0, "no transactions in the trace");

    // Every traced transaction's event set must contain its root span.
    let traced: Vec<TxnId> = tracer.traced_txns();
    assert!(!traced.is_empty());
    for txn in traced {
        assert!(
            tracer.txn_events(txn).iter().any(|e| e.label == "txn"),
            "{txn}: no root span"
        );
    }
}

#[test]
fn untraced_session_has_no_tracer_and_empty_phase_stats() {
    let mut session = Session::new();
    session.configure_sites(3).unwrap();
    session.configure_uniform_database(8, 100, 3).unwrap();
    session.start().unwrap();
    session
        .run_generated(
            WorkloadProfile::ReadHeavy,
            5,
            ArrivalProcess::Closed { mpl: 2 },
        )
        .unwrap();
    assert!(session.tracer().unwrap().is_none());
}
