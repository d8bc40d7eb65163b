//! Property-based tests on the core data structures and protocol
//! invariants: quorum intersection, lock-manager safety, WAL replay
//! idempotence, MVTO read consistency, statistics accounting and the commit
//! state machines.
//!
//! Each property runs [`CASES`] cases; case `n` draws its inputs from
//! `seeded_rng(derive_seed(n, <test name>))`, and a failure names its case,
//! so it replays alone by running that one case.

use rainbow_cc::{
    Acquired, CcProtocol, LockManager, LockMode, MultiversionTimestampOrdering, TxnContext,
};
use rainbow_commit::{Coordinator, CoordinatorAction, CoordinatorState, Decision, Vote};
use rainbow_common::config::ItemPlacement;
use rainbow_common::protocol::{AcpKind, DeadlockPolicy};
use rainbow_common::rng::{derive_seed, seeded_rng};
use rainbow_common::stats::LatencyStats;
use rainbow_common::{ItemId, SiteId, Timestamp, TxnId, Value, Version};
use rainbow_replication::{QuorumConsensus, QuorumResponse, ReplicationControl};
use rainbow_storage::{DiskEngine, LogRecord, MemMedium, PowerLossFault, StorageConfig};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::time::Duration;

/// Cases each property runs.
const CASES: u64 = 128;

/// The cases of the property `name`: each case's number and its generator.
fn cases(name: &'static str) -> impl Iterator<Item = (u64, StdRng)> {
    (0..CASES).map(move |case| (case, seeded_rng(derive_seed(case, name))))
}

/// Majority placements always produce intersecting read/write quorums and
/// self-intersecting write quorums, for any replication degree and any vote
/// weights.
#[test]
fn weighted_quorum_thresholds_intersect() {
    for (case, mut rng) in cases("weighted_quorum_thresholds_intersect") {
        let weights: Vec<u32> = (0..rng.gen_range(1..8))
            .map(|_| rng.gen_range(1..5))
            .collect();
        let copies: BTreeMap<SiteId, u32> = weights
            .iter()
            .enumerate()
            .map(|(i, w)| (SiteId(i as u32), *w))
            .collect();
        let total: u32 = copies.values().sum();
        let write = total / 2 + 1;
        let read = total + 1 - write;
        let placement = ItemPlacement::weighted(copies, read, write);
        let valid = placement.validate(&ItemId::new("x"));
        assert!(valid.is_ok(), "case {case}: weights {weights:?}: {valid:?}");
        assert!(read + write > total, "case {case}: weights {weights:?}");
        assert!(2 * write > total, "case {case}: weights {weights:?}");
    }
}

/// Whatever subset of sites answers, a QC write quorum and a QC read quorum
/// assembled from live responses always share at least one site.
#[test]
fn assembled_read_and_write_quorums_share_a_site() {
    for (case, mut rng) in cases("assembled_read_and_write_quorums_share_a_site") {
        let degree = rng.gen_range(1usize..8);
        let live_mask: Vec<bool> = (0..8).map(|_| rng.gen()).collect();
        let sites: Vec<SiteId> = (0..degree as u32).map(SiteId).collect();
        let placement = ItemPlacement::majority(sites.clone());
        let rcp = QuorumConsensus::new();
        let item = ItemId::new("x");

        let mut read = rcp.plan_read(&item, &placement, None, &[]).collector();
        let mut write = rcp.plan_write(&item, &placement, &[]).collector();
        let mut read_sites = Vec::new();
        let mut write_sites = Vec::new();
        for (i, site) in sites.iter().enumerate() {
            if live_mask[i] && !read.is_assembled() {
                let version = Version(i as u64);
                let value = Some(Value::Int(0));
                read.record_response(QuorumResponse {
                    site: *site,
                    version,
                    value,
                });
                read_sites.push(*site);
            }
        }
        for (i, site) in sites.iter().enumerate().rev() {
            if live_mask[i] && !write.is_assembled() {
                let version = Version(i as u64);
                write.record_response(QuorumResponse {
                    site: *site,
                    version,
                    value: None,
                });
                write_sites.push(*site);
            }
        }
        if read.is_assembled() && write.is_assembled() {
            assert!(
                read_sites.iter().any(|s| write_sites.contains(s)),
                "case {case}: read {read_sites:?} and write {write_sites:?} quorums must intersect"
            );
        }
    }
}

/// The lock manager never grants incompatible locks simultaneously,
/// whatever interleaving of acquisitions and releases occurs.
#[test]
fn lock_manager_never_grants_conflicting_locks() {
    for (case, mut rng) in cases("lock_manager_never_grants_conflicting_locks") {
        let ops: Vec<(u64, usize, bool, bool)> = (0..rng.gen_range(1..60))
            .map(|_| {
                (
                    rng.gen_range(0..6),
                    rng.gen_range(0..4),
                    rng.gen(),
                    rng.gen(),
                )
            })
            .collect();
        let lm = LockManager::new(DeadlockPolicy::WaitDie, Duration::from_millis(1));
        let items: Vec<ItemId> = (0..4).map(|i| ItemId::new(format!("i{i}"))).collect();
        // holders[item] = set of (txn, exclusive)
        let mut holders: BTreeMap<usize, Vec<(u64, bool)>> = BTreeMap::new();
        for (txn_seq, item_idx, exclusive, release) in ops {
            let txn = TxnId::new(SiteId(0), txn_seq);
            if release {
                lm.release_all(txn);
                for held in holders.values_mut() {
                    held.retain(|(t, _)| *t != txn_seq);
                }
                continue;
            }
            let mode = if exclusive {
                LockMode::Exclusive
            } else {
                LockMode::Shared
            };
            let answer = lm.acquire(txn, Timestamp::new(txn_seq + 1, 0), &items[item_idx], mode);
            // Nobody here waits: a queued request is given up at once.
            if answer == Ok(Acquired::Queued) {
                let given_up = lm.give_up(txn, &items[item_idx]);
                assert!(
                    given_up.is_some(),
                    "case {case}: {txn:?} queued on i{item_idx}"
                );
            }
            if answer == Ok(Acquired::Granted) {
                let held = holders.entry(item_idx).or_default();
                held.retain(|(t, _)| *t != txn_seq);
                held.push((txn_seq, exclusive));
                // Invariant: at most one exclusive holder, and no mix of
                // exclusive with anything else.
                let exclusives = held.iter().filter(|(_, x)| *x).count();
                if exclusives > 0 {
                    assert_eq!(
                        held.len(),
                        1,
                        "case {case}: exclusive lock shared: {held:?}"
                    );
                }
            }
        }
    }
}

/// Replaying a write-ahead log is idempotent and never loses the last
/// committed version of an item, whatever the power loss did to the log's
/// tail.
#[test]
fn wal_replay_is_idempotent_and_monotonic() {
    for (case, mut rng) in cases("wal_replay_is_idempotent_and_monotonic") {
        let commits: Vec<(u64, i64)> = (0..rng.gen_range(1..40))
            .map(|_| (rng.gen_range(0..20), rng.gen_range(-100..100)))
            .collect();
        let crash_after = rng.gen_range(0usize..40);
        let fault = PowerLossFault::ALL[rng.gen_range(0..PowerLossFault::ALL.len())];
        let mut log = DiskEngine::new(Box::new(MemMedium::default()), &StorageConfig::memory());
        log.recover().expect("a fresh medium recovers");
        log.checkpoint(vec![(ItemId::new("x"), Value::Int(0), Version(0))]);
        let mut last_committed = Value::Int(0);
        let mut last_version = Version(0);
        for (i, (seq, value)) in commits.iter().enumerate() {
            let version = Version(i as u64 + 1);
            let record = LogRecord::Commit {
                txn: TxnId::new(SiteId(0), *seq),
                writes: vec![(ItemId::new("x"), Value::Int(*value), version)],
            };
            if i < crash_after {
                log.append_forced_many(vec![record]);
                last_committed = Value::Int(*value);
                last_version = version;
            } else {
                // Unforced tail: lost on crash.
                log.append(record);
            }
        }
        log.power_loss(fault);
        let once = log.recover().expect("a torn tail is cut, not an error");
        log.power_loss(PowerLossFault::Clean);
        let twice = log.recover().expect("the cut log recovers again");
        assert_eq!(once.state, twice.state, "case {case}: {fault:?}");
        let state = once.state.get(&ItemId::new("x")).expect("x must exist");
        assert_eq!(state.value, last_committed, "case {case}: {fault:?}");
        assert_eq!(state.version, last_version, "case {case}: {fault:?}");
    }
}

/// MVTO readers always observe the value written by the youngest writer
/// older than themselves, regardless of commit order.
#[test]
fn mvto_reads_are_consistent_with_timestamp_order() {
    for (case, mut rng) in cases("mvto_reads_are_consistent_with_timestamp_order") {
        let mut writer_ts: Vec<u64> = (0..rng.gen_range(1..12))
            .map(|_| rng.gen_range(1..1000))
            .collect();
        let reader_ts = rng.gen_range(1u64..1200);
        writer_ts.sort_unstable();
        writer_ts.dedup();
        let mut mvto = MultiversionTimestampOrdering::new();
        let item = ItemId::new("x");
        let current = (Value::Int(0), Version(0));
        // Commit writers in a scrambled (reversed) order to stress version
        // chain insertion.
        for (i, ts) in writer_ts.iter().enumerate().rev() {
            let ctx = TxnContext::new(TxnId::new(SiteId(0), i as u64 + 1), Timestamp::new(*ts, 0));
            let answer = mvto.prewrite(&ctx, &item, current.clone());
            if answer.is_some_and(|decision| decision.is_granted()) {
                mvto.commit(
                    &ctx,
                    &[(item.clone(), Value::Int(*ts as i64), Version(i as u64 + 1))],
                );
            }
        }
        let reader = TxnContext::new(TxnId::new(SiteId(1), 999), Timestamp::new(reader_ts, 1));
        let decision = mvto.read(&reader, &item, current);
        let expected: i64 = writer_ts
            .iter()
            .filter(|ts| Timestamp::new(**ts, 0) <= reader.ts)
            .max()
            .map(|ts| *ts as i64)
            .unwrap_or(0);
        match decision {
            Some(rainbow_cc::CcDecision::Granted {
                value_override: Some((value, _)),
            }) => {
                assert_eq!(
                    value,
                    Value::Int(expected),
                    "case {case}: writers {writer_ts:?}"
                );
            }
            other => panic!("case {case}: unexpected decision {other:?}"),
        }
    }
}

/// The coordinator, under 2PC and 3PC, commits exactly when no participant
/// votes NO (READ-ONLY counts as not-NO), for every vote pattern; a commit
/// reaches exactly the YES voters, and an abort every participant but those
/// that had voted READ-ONLY before it.
#[test]
fn commits_iff_no_participant_votes_no() {
    for (case, mut rng) in cases("commits_iff_no_participant_votes_no") {
        let votes: Vec<Vote> = (0..rng.gen_range(1..8))
            .map(|_| [Vote::Yes, Vote::No, Vote::ReadOnly][rng.gen_range(0usize..3)])
            .collect();
        let protocol = if rng.gen() {
            AcpKind::ThreePhaseCommit
        } else {
            AcpKind::TwoPhaseCommit
        };
        let participants: Vec<SiteId> = (0..votes.len() as u32).map(SiteId).collect();
        let mut coordinator =
            Coordinator::new(TxnId::new(SiteId(0), 1), protocol, participants.clone());
        let action = coordinator.start();
        assert_eq!(
            action,
            CoordinatorAction::SendPrepare(participants.clone()),
            "case {case}"
        );
        let mut decided = None;
        for (site, vote) in participants.iter().zip(votes.iter()) {
            match coordinator.on_vote(*site, *vote) {
                CoordinatorAction::SendDecision(decision, targets) => {
                    decided = Some((decision, targets))
                }
                CoordinatorAction::SendPreCommit(targets) => {
                    for target in &targets {
                        if let CoordinatorAction::SendDecision(decision, to) =
                            coordinator.on_precommit_ack(*target)
                        {
                            decided = Some((decision, to));
                        }
                    }
                }
                _ => {}
            }
        }
        let (decision, targets) =
            decided.unwrap_or_else(|| panic!("case {case}: the votes decide"));
        let voted = |site: &SiteId, wanted: Vote| votes[site.0 as usize] == wanted;
        let context = format!("case {case}: {protocol:?}, votes {votes:?}");
        match votes.iter().position(|v| *v == Vote::No) {
            None => {
                assert_eq!(decision, Decision::Commit, "{context}");
                let yes: Vec<SiteId> = participants
                    .iter()
                    .copied()
                    .filter(|s| voted(s, Vote::Yes))
                    .collect();
                let completed = coordinator.state() == CoordinatorState::Completed;
                assert_eq!(completed, yes.is_empty(), "{context}");
                assert_eq!(targets, yes, "{context}");
            }
            Some(first_no) => {
                assert_eq!(decision, Decision::Abort, "{context}");
                let rest: Vec<SiteId> = participants
                    .iter()
                    .copied()
                    .filter(|s| s.0 as usize > first_no || !voted(s, Vote::ReadOnly))
                    .collect();
                assert_eq!(targets, rest, "{context}");
            }
        }
    }
}

/// Latency summaries are order-independent and bounded by min/max.
#[test]
fn latency_stats_are_permutation_invariant() {
    for (case, mut rng) in cases("latency_stats_are_permutation_invariant") {
        let mut samples_ms: Vec<u64> = (0..rng.gen_range(1..100))
            .map(|_| rng.gen_range(0..5000))
            .collect();
        let durations: Vec<Duration> = samples_ms
            .iter()
            .map(|ms| Duration::from_millis(*ms))
            .collect();
        let forward = LatencyStats::from_samples(&durations);
        samples_ms.reverse();
        let reversed: Vec<Duration> = samples_ms
            .iter()
            .map(|ms| Duration::from_millis(*ms))
            .collect();
        let backward = LatencyStats::from_samples(&reversed);
        assert_eq!(forward, backward, "case {case}");
        let ordered = [
            forward.min_us,
            forward.p50_us,
            forward.p95_us,
            forward.p99_us,
            forward.max_us,
        ];
        assert!(ordered.is_sorted(), "case {case}: {forward:?}");
        assert!(
            forward.mean_us >= forward.min_us as f64,
            "case {case}: {forward:?}"
        );
        assert!(
            forward.mean_us <= forward.max_us as f64,
            "case {case}: {forward:?}"
        );
    }
}
