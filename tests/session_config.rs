//! Configuration-surface integration tests (experiment FIG3/4/A-1): the
//! session configuration panels, save/reuse of configuration data, and
//! configuration validation errors.

use rainbow_common::config::{DatabaseSchema, DistributionSchema, ItemPlacement};
use rainbow_common::protocol::{AcpKind, CcpKind, DeadlockPolicy, ProtocolStack, RcpKind};
use rainbow_common::txn::TxnSpec;
use rainbow_common::{ItemId, Operation, SiteId, Value};
use rainbow_control::{Session, SessionConfig};
use rainbow_net::{LatencyModel, LinkConfig, NetworkConfig};
use std::time::Duration;

#[test]
fn a_full_configuration_survives_the_json_round_trip() {
    let mut config = SessionConfig::default();
    config.distribution = DistributionSchema::one_site_per_host(5);
    config.database = DatabaseSchema::uniform(20, 100, &config.distribution.site_ids(), 3).unwrap();
    config.stack = ProtocolStack::rainbow_default()
        .with_rcp(RcpKind::Rowa)
        .with_ccp(CcpKind::MultiversionTimestampOrdering)
        .with_acp(AcpKind::ThreePhaseCommit)
        .with_deadlock_policy(DeadlockPolicy::WoundWait)
        .with_lock_wait_timeout(Duration::from_millis(123));
    config.network = NetworkConfig::lan(Duration::from_micros(100), Duration::from_millis(2))
        .with_seed(99)
        .override_link(
            rainbow_net::NodeId::site(0),
            rainbow_net::NodeId::site(1),
            LinkConfig::with_latency(LatencyModel::constant(Duration::from_millis(20)))
                .with_loss(0.01),
        );
    config.client_timeout_ms = 4321;
    config.seed = 7;

    let json = config.to_json().unwrap();
    let back = SessionConfig::from_json(&json).unwrap();
    assert_eq!(config, back);
    back.validate().unwrap();
}

#[test]
fn a_configuration_saved_with_the_retired_site_and_network_fields_still_loads() {
    // Earlier sessions saved a worker-thread count with every site and a
    // loopback switch with the network. Neither is read any more; a saved
    // file that still carries them loads as if they were not there.
    let config = SessionConfig {
        distribution: DistributionSchema::one_site_per_host(3),
        ..SessionConfig::default()
    };
    let json = config.to_json().unwrap();
    let saved = json
        .replace("\"host\": ", "\"worker_threads\": 8, \"host\": ")
        .replace(
            "\"overrides\": ",
            "\"loopback_is_free\": true, \"overrides\": ",
        );
    assert_eq!(saved.matches("\"worker_threads\": 8").count(), 3, "{saved}");
    assert_eq!(
        saved.matches("\"loopback_is_free\": true").count(),
        1,
        "{saved}"
    );
    assert_eq!(SessionConfig::from_json(&saved).unwrap(), config);
}

#[test]
fn saved_configuration_reproduces_the_same_experiment() {
    // Configure, save, run — then reload in a "new session" and run again:
    // the generated workload and the committed results must match, which is
    // what "configuration data can be saved for reuse in another session"
    // is for.
    let dir = std::env::temp_dir().join("rainbow-it-config");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("experiment.json");

    let run = |session: &Session| -> (usize, Vec<(ItemId, Value)>) {
        let report = session
            .run_generated(
                rainbow_wlg::WorkloadProfile::DebitCredit,
                30,
                rainbow_wlg::ArrivalProcess::Closed { mpl: 1 },
            )
            .unwrap();
        let audit = session
            .submit(TxnSpec::new(
                "audit",
                (0..6).map(|i| Operation::read(format!("x{i}"))).collect(),
            ))
            .unwrap();
        (
            report.committed(),
            audit.reads.into_iter().collect::<Vec<_>>(),
        )
    };

    let mut first = Session::new();
    first.configure_sites(3).unwrap();
    first
        .configure_protocols(
            ProtocolStack::rainbow_default()
                .with_lock_wait_timeout(Duration::from_millis(200))
                .with_quorum_timeout(Duration::from_millis(500))
                .with_commit_timeout(Duration::from_millis(500)),
        )
        .unwrap();
    first.configure_uniform_database(6, 500, 3).unwrap();
    first.set_seed(1234);
    first.save_config(&path).unwrap();
    first.start().unwrap();
    let (committed_a, audit_a) = run(&first);
    drop(first);

    let mut second = Session::load_config(&path).unwrap();
    second.start().unwrap();
    let (committed_b, audit_b) = run(&second);

    // MPL 1 makes the run deterministic: same seed, same workload, same
    // serial order, same results.
    assert_eq!(committed_a, committed_b);
    assert_eq!(audit_a, audit_b);
    std::fs::remove_file(path).ok();
}

#[test]
#[allow(clippy::field_reassign_with_default)]
fn configuration_validation_rejects_every_kind_of_mistake() {
    // Unknown copy-holder site.
    let mut config = SessionConfig::default();
    config.database = DatabaseSchema::uniform(2, 0, &[SiteId(0), SiteId(9)], 2).unwrap();
    assert!(config.validate().is_err());

    // Non-intersecting quorums.
    let mut config = SessionConfig::default();
    config.database.declare(
        "x",
        0i64,
        ItemPlacement::weighted((0..4).map(|i| (SiteId(i), 1)).collect(), 1, 2),
    );
    assert!(config.validate().is_err());

    // No sites at all.
    let mut config = SessionConfig::default();
    config.distribution = DistributionSchema::new();
    assert!(config.validate().is_err());

    // Item without a placement.
    let mut config = SessionConfig::default();
    config
        .database
        .items
        .push(rainbow_common::config::ItemSpec::new("orphan-item", 0i64));
    assert!(config.validate().is_err());
}

#[test]
fn session_rejects_starting_an_invalid_configuration() {
    let mut session = Session::new();
    session.configure_sites(2).unwrap();
    // Declare an item held by a site that does not exist.
    session.declare_item("x", 0i64, &[SiteId(7)]).unwrap();
    assert!(session.start().is_err());
    assert!(!session.is_running());
}

#[test]
fn weighted_placements_and_explicit_items_work_through_the_session() {
    let mut session = Session::new();
    session.configure_sites(3).unwrap();
    session
        .configure_protocols(
            ProtocolStack::rainbow_default()
                .with_quorum_timeout(Duration::from_millis(500))
                .with_commit_timeout(Duration::from_millis(500)),
        )
        .unwrap();
    // A weighted item where site 0 alone forms a quorum, plus a normal one.
    session
        .declare_item_with_placement(
            "hot",
            1_000i64,
            ItemPlacement::weighted(
                vec![(SiteId(0), 3), (SiteId(1), 1), (SiteId(2), 1)]
                    .into_iter()
                    .collect(),
                3,
                3,
            ),
        )
        .unwrap();
    session
        .declare_item("cold", 5i64, &[SiteId(1), SiteId(2)])
        .unwrap();
    session.start().unwrap();

    let result = session
        .submit(TxnSpec::new(
            "mixed",
            vec![Operation::increment("hot", -1), Operation::read("cold")],
        ))
        .unwrap();
    assert!(result.committed(), "outcome: {:?}", result.outcome);
    assert_eq!(result.reads.get(&ItemId::new("cold")), Some(&Value::Int(5)));
    // The weighted item is stored at all three declared holders.
    assert!(session
        .database_view(SiteId(0))
        .unwrap()
        .iter()
        .any(|(item, _, _)| item == &ItemId::new("hot")));
}
