//! Criterion micro-benchmarks of the substrates every experiment rests on:
//! the lock manager, the timestamp-ordering tables, the quorum collector,
//! the write-ahead log and the network simulator. These are engineering
//! benchmarks (not paper artefacts); they guard against substrate
//! regressions that would distort the experiment results.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rainbow_cc::{CcDecision, CcProtocol, LockManager, LockMode, TimestampOrdering, TxnContext};
use rainbow_common::config::ItemPlacement;
use rainbow_common::protocol::DeadlockPolicy;
use rainbow_common::{ItemId, SiteId, Timestamp, TxnId, Value, Version};
use rainbow_net::{NetMessage, NetworkConfig, NodeId, SimNetwork};
use rainbow_replication::{QuorumConsensus, QuorumResponse, ReplicationControl};
use rainbow_storage::{LogRecord, WriteAheadLog};
use std::time::Duration;

fn bench_lock_manager(c: &mut Criterion) {
    c.bench_function("lock_manager/acquire_release_exclusive", |b| {
        let lm = LockManager::new(DeadlockPolicy::WaitDie, Duration::from_millis(10));
        let item = ItemId::new("x");
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            let txn = TxnId::new(SiteId(0), seq);
            lm.acquire(txn, Timestamp::new(seq, 0), &item, LockMode::Exclusive)
                .unwrap();
            lm.release_all(txn);
        });
    });

    c.bench_function("lock_manager/shared_readers_100_items", |b| {
        let lm = LockManager::new(DeadlockPolicy::WaitForGraph, Duration::from_millis(10));
        let items: Vec<ItemId> = (0..100).map(|i| ItemId::new(format!("x{i}"))).collect();
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            let txn = TxnId::new(SiteId(0), seq);
            for item in &items {
                lm.acquire(txn, Timestamp::new(seq, 0), item, LockMode::Shared)
                    .unwrap();
            }
            lm.release_all(txn);
        });
    });
}

fn bench_tso(c: &mut Criterion) {
    c.bench_function("tso/read_prewrite_commit", |b| {
        let tso = TimestampOrdering::new();
        let item = ItemId::new("x");
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            let ctx = TxnContext::new(TxnId::new(SiteId(0), seq), Timestamp::new(seq, 0));
            let current = (Value::Int(0), Version(0));
            let granted = Some(CcDecision::granted());
            assert_eq!(tso.read(&ctx, &item, current.clone()), granted);
            assert_eq!(tso.prewrite(&ctx, &item, current), granted);
            tso.commit(
                &ctx,
                &[(item.clone(), Value::Int(seq as i64), Version(seq))],
            );
        });
    });
}

fn bench_quorum(c: &mut Criterion) {
    c.bench_function("quorum/plan_and_collect_degree5", |b| {
        let rcp = QuorumConsensus::new();
        let placement = ItemPlacement::majority((0..5).map(SiteId).collect::<Vec<_>>());
        let item = ItemId::new("x");
        b.iter(|| {
            let plan = rcp.plan_read(&item, &placement, Some(SiteId(0)), &[]);
            let mut collector = plan.collector();
            for site in 0..5u32 {
                collector.record_response(QuorumResponse {
                    site: SiteId(site),
                    version: Version(u64::from(site)),
                    value: Some(Value::Int(i64::from(site))),
                });
                if collector.is_assembled() {
                    break;
                }
            }
            assert!(collector.is_assembled());
            collector.latest_value().unwrap()
        });
    });
}

fn bench_wal(c: &mut Criterion) {
    c.bench_function("wal/append_forced_commit_record", |b| {
        let mut seq = 0u64;
        b.iter_batched(
            WriteAheadLog::new,
            |log| {
                seq += 1;
                log.append_forced(LogRecord::Commit {
                    txn: TxnId::new(SiteId(0), seq),
                    writes: vec![(ItemId::new("x"), Value::Int(1), Version(seq))],
                });
            },
            BatchSize::SmallInput,
        );
    });
}

#[derive(Debug, Clone)]
struct Ping(#[allow(dead_code)] u64);

impl NetMessage for Ping {
    fn kind(&self) -> &'static str {
        "PING"
    }
}

fn bench_network(c: &mut Criterion) {
    c.bench_function("network/send_recv_zero_latency", |b| {
        let net = SimNetwork::<Ping>::new(NetworkConfig::perfect());
        let a = NodeId::site(0);
        let bnode = NodeId::site(1);
        net.register(a);
        let rx = net.register(bnode);
        let handle = net.handle();
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            handle.send(a, bnode, Ping(seq)).unwrap();
            rx.recv_timeout(Duration::from_millis(100)).unwrap()
        });
    });
}

criterion_group!(
    name = substrates;
    config = Criterion::default().sample_size(30).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_millis(500));
    targets = bench_lock_manager, bench_tso, bench_quorum, bench_wal, bench_network
);
criterion_main!(substrates);
