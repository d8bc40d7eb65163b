//! Property-based tests (proptest) on the core data structures and protocol
//! invariants: quorum intersection, lock-manager safety, WAL replay
//! idempotence, MVTO read consistency, statistics accounting and the commit
//! state machines.

use proptest::prelude::*;
use rainbow_cc::{
    Acquired, CcProtocol, LockManager, LockMode, MultiversionTimestampOrdering, TxnContext,
};
use rainbow_commit::{Coordinator, CoordinatorAction, CoordinatorState, Decision, Vote};
use rainbow_common::config::ItemPlacement;
use rainbow_common::protocol::{AcpKind, DeadlockPolicy};
use rainbow_common::stats::LatencyStats;
use rainbow_common::{ItemId, SiteId, Timestamp, TxnId, Value, Version};
use rainbow_replication::{QuorumConsensus, QuorumResponse, ReplicationControl};
use rainbow_storage::{LogRecord, WriteAheadLog};
use std::collections::BTreeMap;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Majority placements always produce intersecting read/write quorums
    /// and self-intersecting write quorums, for any replication degree and
    /// any vote weights.
    #[test]
    fn weighted_quorum_thresholds_intersect(weights in prop::collection::vec(1u32..5, 1..8)) {
        let copies: BTreeMap<SiteId, u32> = weights
            .iter()
            .enumerate()
            .map(|(i, w)| (SiteId(i as u32), *w))
            .collect();
        let total: u32 = copies.values().sum();
        let write = total / 2 + 1;
        let read = total + 1 - write;
        let placement = ItemPlacement::weighted(copies, read, write);
        prop_assert!(placement.validate(&ItemId::new("x")).is_ok());
        prop_assert!(read + write > total);
        prop_assert!(2 * write > total);
    }

    /// Whatever subset of sites answers, a QC write quorum and a QC read
    /// quorum assembled from live responses always share at least one site.
    #[test]
    fn assembled_read_and_write_quorums_share_a_site(
        degree in 1usize..8,
        live_mask in prop::collection::vec(any::<bool>(), 8),
    ) {
        let sites: Vec<SiteId> = (0..degree as u32).map(SiteId).collect();
        let placement = ItemPlacement::majority(sites.clone());
        let rcp = QuorumConsensus::new();
        let item = ItemId::new("x");

        let mut read = rcp.plan_read(&item, &placement, None, &[]).collector();
        let mut write = rcp.plan_write(&item, &placement, &[]).collector();
        let mut read_sites = Vec::new();
        let mut write_sites = Vec::new();
        for (i, site) in sites.iter().enumerate() {
            let alive = live_mask.get(i).copied().unwrap_or(true);
            if alive && !read.is_assembled() {
                read.record_response(QuorumResponse { site: *site, version: Version(i as u64), value: Some(Value::Int(0)) });
                read_sites.push(*site);
            }
        }
        for (i, site) in sites.iter().enumerate().rev() {
            let alive = live_mask.get(i).copied().unwrap_or(true);
            if alive && !write.is_assembled() {
                write.record_response(QuorumResponse { site: *site, version: Version(i as u64), value: None });
                write_sites.push(*site);
            }
        }
        if read.is_assembled() && write.is_assembled() {
            prop_assert!(
                read_sites.iter().any(|s| write_sites.contains(s)),
                "read {read_sites:?} and write {write_sites:?} quorums must intersect"
            );
        }
    }

    /// The lock manager never grants incompatible locks simultaneously,
    /// whatever interleaving of acquisitions and releases occurs.
    #[test]
    fn lock_manager_never_grants_conflicting_locks(
        ops in prop::collection::vec((0u64..6, 0usize..4, any::<bool>(), any::<bool>()), 1..60)
    ) {
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
            let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
            let answer = lm.acquire(txn, Timestamp::new(txn_seq + 1, 0), &items[item_idx], mode);
            // Nobody here waits: a queued request is given up at once.
            if answer == Ok(Acquired::Queued) {
                prop_assert!(lm.give_up(txn, &items[item_idx]).is_some());
            }
            if answer == Ok(Acquired::Granted) {
                let held = holders.entry(item_idx).or_default();
                held.retain(|(t, _)| *t != txn_seq);
                held.push((txn_seq, exclusive));
                // Invariant: at most one exclusive holder, and no mix of
                // exclusive with anything else.
                let exclusives = held.iter().filter(|(_, x)| *x).count();
                if exclusives > 0 {
                    prop_assert_eq!(held.len(), 1, "exclusive lock shared: {:?}", held);
                }
            }
        }
    }

    /// Replaying a write-ahead log is idempotent and never loses the last
    /// committed version of an item.
    #[test]
    fn wal_replay_is_idempotent_and_monotonic(
        commits in prop::collection::vec((0u64..20, -100i64..100), 1..40),
        crash_after in 0usize..40,
    ) {
        let log = WriteAheadLog::new();
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
                log.append_forced(record);
                last_committed = Value::Int(*value);
                last_version = version;
            } else {
                // Unforced tail: lost on crash.
                log.append(record);
            }
        }
        log.simulate_crash();
        let once = rainbow_storage::recover(&log);
        let twice = rainbow_storage::recover(&log);
        prop_assert_eq!(once.state.clone(), twice.state.clone());
        let state = once.state.get(&ItemId::new("x")).expect("x must exist");
        prop_assert_eq!(&state.value, &last_committed);
        prop_assert_eq!(state.version, last_version);
    }

    /// MVTO readers always observe the value written by the youngest writer
    /// older than themselves, regardless of commit order.
    #[test]
    fn mvto_reads_are_consistent_with_timestamp_order(
        mut writer_ts in prop::collection::vec(1u64..1000, 1..12),
        reader_ts in 1u64..1200,
    ) {
        writer_ts.sort_unstable();
        writer_ts.dedup();
        let mvto = MultiversionTimestampOrdering::new();
        let item = ItemId::new("x");
        let current = (Value::Int(0), Version(0));
        // Commit writers in a scrambled (reversed) order to stress version
        // chain insertion.
        for (i, ts) in writer_ts.iter().enumerate().rev() {
            let ctx = TxnContext::new(TxnId::new(SiteId(0), i as u64 + 1), Timestamp::new(*ts, 0));
            let answer = mvto.prewrite(&ctx, &item, current.clone());
            if answer.is_some_and(|decision| decision.is_granted()) {
                mvto.commit(&ctx, &[(item.clone(), Value::Int(*ts as i64), Version(i as u64 + 1))]);
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
            Some(rainbow_cc::CcDecision::Granted { value_override: Some((value, _)) }) => {
                prop_assert_eq!(value, Value::Int(expected));
            }
            other => prop_assert!(false, "unexpected decision {:?}", other),
        }
    }

    /// The coordinator, under 2PC and 3PC, commits exactly when no
    /// participant votes NO (READ-ONLY counts as not-NO), for every vote
    /// pattern; a commit reaches exactly the YES voters, and an abort every
    /// participant but those that had voted READ-ONLY before it.
    #[test]
    fn commits_iff_no_participant_votes_no(
        votes in prop::collection::vec(0usize..3, 1..8),
        three_phase in any::<bool>(),
    ) {
        let votes: Vec<Vote> = votes.iter().map(|v| [Vote::Yes, Vote::No, Vote::ReadOnly][*v]).collect();
        let protocol = if three_phase { AcpKind::ThreePhaseCommit } else { AcpKind::TwoPhaseCommit };
        let participants: Vec<SiteId> = (0..votes.len() as u32).map(SiteId).collect();
        let mut coordinator = Coordinator::new(TxnId::new(SiteId(0), 1), protocol, participants.clone());
        let action = coordinator.start();
        prop_assert_eq!(action, CoordinatorAction::SendPrepare(participants.clone()));
        let mut decided = None;
        for (site, vote) in participants.iter().zip(votes.iter()) {
            match coordinator.on_vote(*site, *vote) {
                CoordinatorAction::SendDecision(decision, targets) => decided = Some((decision, targets)),
                CoordinatorAction::SendPreCommit(targets) => {
                    for target in &targets {
                        if let CoordinatorAction::SendDecision(decision, to) = coordinator.on_precommit_ack(*target) {
                            decided = Some((decision, to));
                        }
                    }
                }
                _ => {}
            }
        }
        let (decision, targets) = decided.expect("the votes decide");
        let voted = |site: &SiteId, wanted: Vote| votes[site.0 as usize] == wanted;
        match votes.iter().position(|v| *v == Vote::No) {
            None => {
                prop_assert_eq!(decision, Decision::Commit);
                let yes: Vec<SiteId> = participants.iter().copied().filter(|s| voted(s, Vote::Yes)).collect();
                prop_assert_eq!(coordinator.state() == CoordinatorState::Completed, yes.is_empty());
                prop_assert_eq!(targets, yes);
            }
            Some(first_no) => {
                prop_assert_eq!(decision, Decision::Abort);
                let rest: Vec<SiteId> = participants
                    .iter()
                    .copied()
                    .filter(|s| s.0 as usize > first_no || !voted(s, Vote::ReadOnly))
                    .collect();
                prop_assert_eq!(targets, rest);
            }
        }
    }

    /// Latency summaries are order-independent and bounded by min/max.
    #[test]
    fn latency_stats_are_permutation_invariant(mut samples_ms in prop::collection::vec(0u64..5000, 1..100)) {
        let durations: Vec<Duration> = samples_ms.iter().map(|ms| Duration::from_millis(*ms)).collect();
        let forward = LatencyStats::from_samples(&durations);
        samples_ms.reverse();
        let reversed: Vec<Duration> = samples_ms.iter().map(|ms| Duration::from_millis(*ms)).collect();
        let backward = LatencyStats::from_samples(&reversed);
        prop_assert_eq!(forward.clone(), backward);
        prop_assert!(forward.min_us <= forward.p50_us);
        prop_assert!(forward.p50_us <= forward.p95_us);
        prop_assert!(forward.p95_us <= forward.p99_us);
        prop_assert!(forward.p99_us <= forward.max_us);
        prop_assert!(forward.mean_us >= forward.min_us as f64);
        prop_assert!(forward.mean_us <= forward.max_us as f64);
    }
}
