//! Durable storage integration: kill-and-restart with only the disk.
//!
//! These tests run whole clusters on the on-disk log-structured engine and
//! exercise the guarantees ISSUE 7 promises: a shut-down data directory
//! reopens with every committed write; a power loss (clean, torn-tail or
//! corrupted-tail) loses nothing that was committed; damage *before* the
//! log tail surfaces as a typed [`RainbowError::CorruptLog`] instead of a
//! panic; and the power-loss nemesis stays serializable across the full
//! RCP × CCP matrix.

use rainbow_check::check_history;
use rainbow_common::protocol::{CcpKind, ProtocolStack, RcpKind};
use rainbow_common::txn::TxnSpec;
use rainbow_common::{ItemId, Operation, RainbowError, SiteId, Value};
use rainbow_core::{Cluster, ClusterConfig, EngineKind, PowerLossFault, StorageConfig};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A fresh per-test data directory under the system temp dir.
fn data_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rainbow-durability-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_stack() -> ProtocolStack {
    ProtocolStack::rainbow_default()
        .with_lock_wait_timeout(Duration::from_millis(150))
        .with_quorum_timeout(Duration::from_millis(300))
        .with_commit_timeout(Duration::from_millis(300))
}

fn disk_cluster(dir: &Path) -> Cluster {
    let config = ClusterConfig::quick(3, 6, 3)
        .unwrap()
        .with_stack(quick_stack())
        .with_storage(StorageConfig::disk(dir));
    Cluster::start(config).unwrap()
}

/// Commits `x{i} = base + i` for every item and asserts each commit.
fn commit_round(cluster: &Cluster, base: i64) {
    for i in 0..6 {
        let result = cluster.submit(TxnSpec::new(
            format!("write-x{i}"),
            vec![Operation::write(format!("x{i}"), base + i)],
        ));
        assert!(
            result.committed(),
            "x{i} := {}: {:?}",
            base + i,
            result.outcome
        );
    }
}

/// Asserts a committed read of every item observes `x{i} = base + i`.
///
/// Reads go through the replication protocol (not raw snapshots): a
/// committed write only has to reach a write quorum, and it is the quorum
/// intersection — not any single copy — that must never forget it.
fn assert_round_visible(cluster: &Cluster, base: i64) {
    for i in 0..6i64 {
        let item = ItemId::new(format!("x{i}"));
        let result = cluster.submit(TxnSpec::new(
            format!("read-x{i}"),
            vec![Operation::read(format!("x{i}"))],
        ));
        assert!(result.committed(), "read of {item}: {:?}", result.outcome);
        assert_eq!(
            result.reads.get(&item),
            Some(&Value::Int(base + i)),
            "a committed write to {item} was forgotten"
        );
    }
}

#[test]
fn reopened_data_dir_holds_every_committed_write() {
    let dir = data_dir("reopen");
    {
        let mut cluster = disk_cluster(&dir);
        assert_eq!(
            cluster.site_ids().len(),
            3,
            "sanity: all sites came up on disk"
        );
        commit_round(&cluster, 1000);
        // Explicit shutdown flushes and fsyncs every site's engine.
        cluster.shutdown();
    }
    {
        // Same directory, fresh process-equivalent: only the disk survives.
        let cluster = disk_cluster(&dir);
        assert_round_visible(&cluster, 1000);
        // The reopened cluster is live, not a read-only museum.
        commit_round(&cluster, 2000);
        assert_round_visible(&cluster, 2000);
        // Drop-based teardown must flush too (Drop delegates to shutdown).
    }
    {
        let cluster = disk_cluster(&dir);
        assert_round_visible(&cluster, 2000);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn power_loss_with_any_tail_fault_keeps_committed_writes() {
    let dir = data_dir("power-loss");
    let cluster = disk_cluster(&dir);
    let mut base = 100;
    for fault in PowerLossFault::ALL {
        commit_round(&cluster, base);
        cluster
            .power_loss_site(SiteId(1), fault)
            .unwrap_or_else(|err| panic!("recovery from {} failed: {err}", fault.name()));
        assert_round_visible(&cluster, base);
        // The revived site serves new transactions.
        base += 100;
    }
    commit_round(&cluster, base);
    assert_round_visible(&cluster, base);
    assert!(cluster
        .power_loss_site(SiteId(9), PowerLossFault::Clean)
        .is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corruption_before_the_tail_is_a_typed_error_not_a_panic() {
    let dir = data_dir("corrupt");
    {
        let mut cluster = disk_cluster(&dir);
        commit_round(&cluster, 7000);
        cluster.shutdown();
    }
    // Flip one byte inside the *first* frame of site 0's oldest segment.
    // Later frames stay valid, so recovery must refuse the log as corrupt
    // rather than silently truncating committed history away.
    let site_dir = dir.join("site-0");
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&site_dir)
        .unwrap()
        .filter_map(|entry| {
            let path = entry.unwrap().path();
            (path.extension().is_some_and(|e| e == "seg")).then_some(path)
        })
        .collect();
    segments.sort();
    let victim = segments.first().expect("site 0 wrote at least one segment");
    let mut bytes = std::fs::read(victim).unwrap();
    // 8 bytes segment header + 8 bytes frame header + 2 into the payload.
    bytes[18] ^= 0xFF;
    std::fs::write(victim, &bytes).unwrap();

    let config = ClusterConfig::quick(3, 6, 3)
        .unwrap()
        .with_stack(quick_stack())
        .with_storage(StorageConfig::disk(dir.clone()));
    match Cluster::start(config).map(|_| ()) {
        Err(RainbowError::CorruptLog { reason, .. }) => {
            assert!(!reason.is_empty(), "the error names what went wrong");
        }
        other => panic!("expected CorruptLog, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance matrix: a power loss with a torn log tail on every
/// replication protocol × every concurrency protocol, judged by read-back
/// (zero forgotten committed writes) and the serializability checker.
#[test]
fn torn_tail_power_loss_is_safe_across_the_protocol_matrix() {
    for rcp in RcpKind::ALL {
        for ccp in [
            CcpKind::TwoPhaseLocking,
            CcpKind::TimestampOrdering,
            CcpKind::MultiversionTimestampOrdering,
        ] {
            let dir = data_dir(&format!("matrix-{rcp}-{ccp:?}"));
            let config = ClusterConfig::quick(3, 6, 3)
                .unwrap()
                .with_stack(quick_stack().with_rcp(rcp).with_ccp(ccp))
                .with_storage(StorageConfig::disk(dir.clone()))
                .with_history_recording(true);
            let cluster = Cluster::start(config).unwrap();
            assert_eq!(cluster.config().storage.engine, EngineKind::Disk);

            commit_round(&cluster, 10);
            cluster
                .power_loss_site(SiteId(2), PowerLossFault::TornWrite)
                .unwrap_or_else(|err| panic!("{rcp}+{ccp:?}: {err}"));
            assert_round_visible(&cluster, 10);
            commit_round(&cluster, 20);
            assert_round_visible(&cluster, 20);

            assert!(cluster.await_history_quiescence(Duration::from_secs(5)));
            let history = cluster.history().expect("recording on");
            let report = check_history(&history);
            assert!(
                report.is_serializable(),
                "{rcp}+{ccp:?} after torn-tail power loss: {:?}",
                report.violations
            );
            drop(cluster);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
