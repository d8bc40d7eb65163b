//! Layer probes: single-threaded loops timing each crate's public functions
//! on inputs shaped like the workloads' (1024 items, 3 copies, 2PC), so that
//! a layer's own cost can be set against what a transaction costs end to end.

use crate::metrics::Values;
use crate::stats::{median, micros};
use crate::workload::{item_ids, ITEMS, LAN_DELAY, REPLICATION};
use rainbow_cc::{LockManager, LockMode};
use rainbow_commit::{Coordinator, CoordinatorAction, Decision, Participant, ParticipantAction};
use rainbow_common::config::ItemPlacement;
use rainbow_common::protocol::{AcpKind, DeadlockPolicy, RcpKind};
use rainbow_common::{ItemId, SiteId, Timestamp, TxnId, Value, Version};
use rainbow_net::{LatencyModel, LinkConfig, NetMessage, NetworkConfig, NodeId, SimNetwork};
use rainbow_replication::{make_rcp, QuorumPlan, QuorumResponse};
use rainbow_storage::{SiteStorage, StorageConfig};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Nanoseconds per call of `step`: the median over batches that together
/// run for about `budget`. `step` gets a running sequence number.
fn ns_per_call(budget: Duration, batch: u64, mut step: impl FnMut(u64)) -> f64 {
    let mut seq = 0;
    let mut run_batch = |seq: &mut u64| {
        let start = Instant::now();
        for _ in 0..batch {
            *seq += 1;
            step(*seq);
        }
        start.elapsed().as_nanos() as f64 / batch as f64
    };
    run_batch(&mut seq);
    let deadline = Instant::now() + budget;
    let mut batches = Vec::new();
    while batches.is_empty() || Instant::now() < deadline {
        batches.push(run_batch(&mut seq));
    }
    median(&batches).expect("at least one batch ran")
}

#[derive(Debug, Clone)]
struct Ping;

impl NetMessage for Ping {
    fn kind(&self) -> &'static str {
        "PING"
    }
}

/// One send → receive between two registered nodes.
fn hop_ns(budget: Duration, batch: u64, link: LinkConfig) -> f64 {
    let net = SimNetwork::<Ping>::new(NetworkConfig::perfect().with_default_link(link));
    let (from, to) = (NodeId::site(0), NodeId::site(1));
    net.register(from);
    let inbox = net.register(to);
    let handle = net.handle();
    ns_per_call(budget, batch, |_| {
        handle.send(from, to, Ping).expect("network is up");
        black_box(inbox.recv().expect("message is delivered"));
    })
}

/// Answers `plan`'s targets one by one until the quorum is assembled.
fn assemble(plan: QuorumPlan) -> Version {
    let targets = plan.targets.clone();
    let mut collector = plan.collector();
    for site in targets {
        collector.record_response(QuorumResponse {
            site,
            version: Version(u64::from(site.0)),
            value: Some(Value::Int(i64::from(site.0))),
        });
        if collector.is_assembled() {
            break;
        }
    }
    assert!(collector.is_assembled());
    collector.next_version()
}

/// What the replication layer computes for one increment under QC: a read
/// plan and a write plan, each collected to its quorum.
fn replication_plan_ns(budget: Duration) -> f64 {
    let rcp = make_rcp(RcpKind::QuorumConsensus);
    let placement = ItemPlacement::majority((0..REPLICATION as u32).map(SiteId));
    let items = item_ids();
    ns_per_call(budget, 256, |seq| {
        let item = &items[seq as usize % ITEMS];
        black_box(assemble(rcp.plan_read(
            item,
            &placement,
            Some(SiteId(0)),
            &[],
        )));
        black_box(assemble(rcp.plan_write(item, &placement, &[])));
    })
}

/// An uncontended exclusive lock taken and released.
fn lock_cycle_ns(budget: Duration) -> f64 {
    let locks = LockManager::new(DeadlockPolicy::default(), Duration::from_millis(200));
    let items = item_ids();
    ns_per_call(budget, 256, |seq| {
        let txn = TxnId::new(SiteId(0), seq);
        locks
            .acquire(
                txn,
                Timestamp::new(seq, 0),
                &items[seq as usize % ITEMS],
                LockMode::Exclusive,
            )
            .expect("uncontended lock is granted");
        locks.release_all(txn);
    })
}

/// The pure state machines of one committing 2PC round: a coordinator and
/// three participants from PREPARE to the last acknowledgement.
fn acp_walk_ns(budget: Duration) -> f64 {
    let sites: Vec<SiteId> = (0..REPLICATION as u32).map(SiteId).collect();
    ns_per_call(budget, 256, |seq| {
        let txn = TxnId::new(sites[0], seq);
        let mut coordinator = Coordinator::new(txn, AcpKind::TwoPhaseCommit, sites.clone());
        let mut participants: Vec<Participant> = sites
            .iter()
            .map(|_| Participant::new(txn, sites[0], AcpKind::TwoPhaseCommit))
            .collect();
        assert!(matches!(
            coordinator.start(),
            CoordinatorAction::SendPrepare(_)
        ));
        let mut action = CoordinatorAction::Wait;
        for (site, participant) in sites.iter().zip(&mut participants) {
            let ParticipantAction::SendVote(vote) = participant.on_prepare(true) else {
                panic!("a working participant votes");
            };
            action = coordinator.on_vote(*site, vote);
        }
        let CoordinatorAction::SendDecision(decision, _) = action else {
            panic!("the last vote decides, got {action:?}");
        };
        for (site, participant) in sites.iter().zip(&mut participants) {
            assert_eq!(
                participant.on_decision(decision),
                ParticipantAction::ApplyAndAck(Decision::Commit)
            );
            action = coordinator.on_ack(*site);
        }
        assert_eq!(action, CoordinatorAction::Complete(Decision::Commit));
    })
}

/// What one participant's storage does for one increment: stage the write,
/// force the prepare record, install and force the commit record.
fn storage_commit_us(budget: Duration, batch: u64, storage: &SiteStorage) -> f64 {
    let items = item_ids();
    let initial: Vec<(ItemId, Value)> =
        items.iter().map(|i| (i.clone(), Value::Int(100))).collect();
    storage.initialize(&initial);
    let ns = ns_per_call(budget, batch, |seq| {
        let txn = TxnId::new(SiteId(0), seq);
        let item = items[seq as usize % ITEMS].clone();
        storage.stage_write(txn, item, Value::Int(seq as i64), Version(seq));
        black_box(storage.prepare(txn));
        black_box(storage.commit(txn));
    });
    ns / 1000.0
}

/// Runs every probe for about `budget` each; `scratch` hosts the disk
/// engine's directory, removed again before returning.
pub fn run_probes(budget: Duration, scratch: &Path) -> Values {
    let lan = LinkConfig::with_latency(LatencyModel::constant(LAN_DELAY));

    let dir = scratch.join(format!("probe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the probe's data directory");
    let (disk, _) = SiteStorage::open(SiteId(0), &StorageConfig::disk(&dir), None)
        .expect("open a fresh disk engine");
    let disk_commit_us = storage_commit_us(budget, 16, &disk);
    disk.shutdown_compactor();
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);

    Values::from([
        (
            "net.hop_ns",
            Some(hop_ns(budget, 256, LinkConfig::perfect())),
        ),
        (
            "net.delayed_hop_overhead_us",
            Some(hop_ns(budget, 16, lan) / 1000.0 - micros(LAN_DELAY)),
        ),
        ("replication.plan_ns", Some(replication_plan_ns(budget))),
        ("cc.lock_cycle_ns", Some(lock_cycle_ns(budget))),
        ("commit.acp_walk_ns", Some(acp_walk_ns(budget))),
        (
            "storage.mem_commit_us",
            Some(storage_commit_us(budget, 256, &SiteStorage::new(SiteId(0)))),
        ),
        ("storage.disk_commit_us", Some(disk_commit_us)),
    ])
}
