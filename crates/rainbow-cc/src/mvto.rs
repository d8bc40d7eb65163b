//! Multi-version timestamp ordering (MVTO).
//!
//! Section 5 of the paper suggests "basic timestamp ordering by
//! multi-versioning TSO" as a term-project extension; this module implements
//! it. Each item keeps a chain of committed versions tagged with the writing
//! transaction's timestamp; reads are served by the youngest version older
//! than the reader and are never rejected for arriving late. A read must
//! wait (answers `None`; the site asks again, bounded by the wait budget)
//! only while an *older* transaction's pre-write is still pending on the
//! item — serving it would skip the version that write is about to insert —
//! and nothing is remembered of a read that waits. Writes are rejected
//! only when they would invalidate a read that has already been granted
//! (i.e. a version older than the writer has been read by a transaction
//! younger than the writer).

use crate::types::{CcDecision, CcProtocol, TxnContext};
use parking_lot::Mutex;
use rainbow_common::txn::AbortCause;
use rainbow_common::{ItemId, Timestamp, TxnId, Value, Version};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

#[derive(Debug, Clone)]
struct VersionEntry {
    /// Timestamp of the transaction that wrote this version
    /// ([`Timestamp::ZERO`] for the initial database state).
    wts: Timestamp,
    /// Largest timestamp of any transaction that read this version.
    rts: Timestamp,
    /// The stored value.
    value: Value,
    /// The replica version number (quorum-consensus metadata, carried along
    /// so reads can return it).
    version: Version,
}

#[derive(Debug, Default)]
struct ItemVersions {
    /// Committed versions ordered by `wts` ascending.
    versions: Vec<VersionEntry>,
    /// Pending writes: txn → timestamp (decided at commit).
    pending_writes: HashMap<TxnId, Timestamp>,
}

impl ItemVersions {
    fn seed_if_empty(&mut self, current: &(Value, Version)) {
        if self.versions.is_empty() {
            self.versions.push(VersionEntry {
                wts: Timestamp::ZERO,
                rts: Timestamp::ZERO,
                value: current.0.clone(),
                version: current.1,
            });
        }
    }

    /// Index of the youngest version with `wts <= ts`.
    fn visible_index(&self, ts: Timestamp) -> Option<usize> {
        self.versions
            .iter()
            .enumerate()
            .filter(|(_, v)| v.wts <= ts)
            .map(|(i, _)| i)
            .next_back()
    }
}

/// Multi-version timestamp ordering for one site.
#[derive(Debug, Default)]
pub struct MultiversionTimestampOrdering {
    items: Mutex<HashMap<ItemId, ItemVersions>>,
    touched: Mutex<HashMap<TxnId, HashSet<ItemId>>>,
    /// Post-recovery admission floor (see
    /// [`CcProtocol::install_recovery_floor`]): a crash loses the version
    /// chains and their `rts` marks, and the rebuilt chain seeds the
    /// surviving committed value at `wts = ZERO` — so below-floor readers
    /// would mistake young data for old, and below-floor writers could
    /// invalidate reads whose `rts` marks vanished.
    floor: Mutex<Timestamp>,
    /// How long a read that must wait for an older transaction's pending
    /// pre-write to resolve is worth asking again for. Zero (the
    /// [`Default`]): not at all.
    wait_budget: Duration,
}

impl MultiversionTimestampOrdering {
    /// Creates an MVTO instance (with a zero wait budget: a read racing an
    /// older pending pre-write is given up at once; see
    /// [`MultiversionTimestampOrdering::with_wait_budget`]).
    pub fn new() -> Self {
        MultiversionTimestampOrdering::default()
    }

    /// Lets reads racing an older pending pre-write wait up to `budget` for
    /// it to resolve, preserving MVTO's readers-(almost)-never-abort
    /// property under contention while staying bounded.
    pub fn with_wait_budget(mut self, budget: Duration) -> Self {
        self.wait_budget = budget;
        self
    }

    /// Number of committed versions currently retained for `item` (including
    /// the seeded initial version). Exposed for tests and the garbage
    /// collection experiment.
    pub fn version_count(&self, item: &ItemId) -> usize {
        self.items
            .lock()
            .get(item)
            .map(|entry| entry.versions.len())
            .unwrap_or(0)
    }

    /// Discards versions older than `horizon` (keeping at least the youngest
    /// one that is still visible to `horizon`), a simple garbage-collection
    /// hook.
    pub fn vacuum(&self, horizon: Timestamp) {
        let mut items = self.items.lock();
        for entry in items.values_mut() {
            if let Some(keep_from) = entry.visible_index(horizon) {
                entry.versions.drain(..keep_from);
            }
        }
    }

    fn track(&self, txn: TxnId, item: &ItemId) {
        self.touched
            .lock()
            .entry(txn)
            .or_default()
            .insert(item.clone());
    }
}

impl CcProtocol for MultiversionTimestampOrdering {
    fn read(
        &self,
        txn: &TxnContext,
        item: &ItemId,
        current: (Value, Version),
    ) -> Option<CcDecision> {
        if txn.ts < *self.floor.lock() {
            return Some(CcDecision::Rejected(txn.too_late(item)));
        }
        let mut items = self.items.lock();
        let entry = items.entry(item.clone()).or_default();
        entry.seed_if_empty(&current);
        // A pending pre-write by a smaller-timestamped *other* transaction
        // would insert a version between the one this read would pick and
        // the reader — serving the read now silently skips that version
        // (lost update once both commit), so the read has to wait for it to
        // resolve. The grant happens under the same lock acquisition as the
        // pending check, so no new pre-write can slip in between.
        let blocked = entry
            .pending_writes
            .iter()
            .filter(|(id, _)| **id != txn.id)
            .map(|(_, ts)| *ts)
            .min()
            .is_some_and(|pending| txn.ts > pending);
        if blocked {
            return None;
        }
        let Some(index) = entry.visible_index(txn.ts) else {
            // Nothing is visible below this timestamp — can only happen if
            // the initial version is younger than the reader, which the
            // ZERO-seed prevents; treat as a violation defensively.
            return Some(CcDecision::Rejected(txn.too_late(item)));
        };
        let version = &mut entry.versions[index];
        version.rts = version.rts.max(txn.ts);
        let override_pair = (version.value.clone(), version.version);
        drop(items);
        self.track(txn.id, item);
        Some(CcDecision::Granted {
            value_override: Some(override_pair),
        })
    }

    /// An MVTO pre-write never waits.
    fn prewrite(
        &self,
        txn: &TxnContext,
        item: &ItemId,
        current: (Value, Version),
    ) -> Option<CcDecision> {
        if txn.ts < *self.floor.lock() {
            return Some(CcDecision::Rejected(txn.too_late(item)));
        }
        let mut items = self.items.lock();
        let entry = items.entry(item.clone()).or_default();
        entry.seed_if_empty(&current);
        match entry.visible_index(txn.ts) {
            Some(index) => {
                let predecessor = &entry.versions[index];
                if predecessor.rts > txn.ts {
                    // A younger transaction already read the version this
                    // write would supersede: granting the write would make
                    // that read incorrect.
                    return Some(CcDecision::Rejected(txn.too_late(item)));
                }
            }
            None => return Some(CcDecision::Rejected(txn.too_late(item))),
        }
        entry.pending_writes.insert(txn.id, txn.ts);
        drop(items);
        self.track(txn.id, item);
        Some(CcDecision::granted())
    }

    fn wait_budget(&self) -> Duration {
        self.wait_budget
    }

    /// Nothing is remembered of a read that must wait, so there is nothing
    /// to forget; out of budget it is rejected like any late operation.
    fn give_up(&self, txn: &TxnContext, item: &ItemId) -> AbortCause {
        txn.too_late(item)
    }

    fn validate(&self, _txn: &TxnContext) -> CcDecision {
        CcDecision::granted()
    }

    fn commit(&self, txn: &TxnContext, writes: &[(ItemId, Value, Version)]) {
        let mut items = self.items.lock();
        for (item, value, version) in writes {
            let entry = items.entry(item.clone()).or_default();
            entry.pending_writes.remove(&txn.id);
            // Insert the new version keeping the chain sorted by wts.
            let insert_at = entry
                .versions
                .iter()
                .position(|v| v.wts > txn.ts)
                .unwrap_or(entry.versions.len());
            entry.versions.insert(
                insert_at,
                VersionEntry {
                    wts: txn.ts,
                    rts: txn.ts,
                    value: value.clone(),
                    version: *version,
                },
            );
        }
        if let Some(touched) = self.touched.lock().remove(&txn.id) {
            for item in touched {
                if let Some(entry) = items.get_mut(&item) {
                    entry.pending_writes.remove(&txn.id);
                }
            }
        }
    }

    fn abort(&self, txn: &TxnContext) {
        let mut items = self.items.lock();
        if let Some(touched) = self.touched.lock().remove(&txn.id) {
            for item in touched {
                if let Some(entry) = items.get_mut(&item) {
                    entry.pending_writes.remove(&txn.id);
                }
            }
        }
    }

    fn install_recovery_floor(&self, floor: Timestamp) {
        let mut current = self.floor.lock();
        *current = (*current).max(floor);
    }

    fn name(&self) -> &'static str {
        "MVTO"
    }

    fn active_transactions(&self) -> usize {
        self.touched.lock().len()
    }
}

#[cfg(test)]
impl MultiversionTimestampOrdering {
    /// Everything the protocol remembers, in a canonical order, so tests can
    /// compare two instances (or one before and after).
    pub(crate) fn fingerprint(&self) -> String {
        use crate::non_waiting_tests::{canonical, canonical_touched};
        let items = canonical(self.items.lock().iter().map(|(item, entry)| {
            let pending = canonical(entry.pending_writes.iter().map(|p| format!("{p:?}")));
            format!("{item}: {:?} pending [{pending}]", entry.versions)
        }));
        format!(
            "items {items}\ntouched {}\nfloor {:?}",
            canonical_touched(&self.touched.lock()),
            *self.floor.lock()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::non_waiting_tests::{granted, rejected};
    use rainbow_common::SiteId;

    fn ctx(seq: u64, ts: u64) -> TxnContext {
        TxnContext::new(TxnId::new(SiteId(0), seq), Timestamp::new(ts, 0))
    }

    fn item(name: &str) -> ItemId {
        ItemId::new(name)
    }

    fn current() -> (Value, Version) {
        (Value::Int(0), Version(0))
    }

    fn read_value(cc: &MultiversionTimestampOrdering, ctx: &TxnContext, name: &str) -> Value {
        match cc.read(ctx, &item(name), current()) {
            Some(CcDecision::Granted {
                value_override: Some((value, _)),
            }) => value,
            other => panic!("expected granted read with override, got {other:?}"),
        }
    }

    #[test]
    fn read_cannot_skip_an_older_pending_write() {
        let cc = MultiversionTimestampOrdering::new();
        let w = ctx(1, 10);
        assert!(granted(cc.prewrite(&w, &item("x"), current())));
        // A younger reader would skip the version T10 is about to insert:
        // it must wait, and out of budget it is rejected.
        assert_eq!(cc.read(&ctx(2, 20), &item("x"), current()), None);
        assert_eq!(
            cc.give_up(&ctx(2, 20), &item("x")),
            AbortCause::CcpTimestampViolation {
                item: item("x"),
                rejected: Timestamp::new(20, 0),
            }
        );
        // An older reader is ordered before the pending write: fine.
        assert!(granted(cc.read(&ctx(3, 5), &item("x"), current())));
        // The writer's own read-for-update is never blocked by itself.
        assert!(granted(cc.read(&w, &item("x"), current())));
        cc.commit(&w, &[(item("x"), Value::Int(7), Version(1))]);
        let reader = ctx(4, 30);
        assert_eq!(read_value(&cc, &reader, "x"), Value::Int(7));
    }

    #[test]
    fn blocked_read_waits_and_then_sees_the_new_version() {
        let budget = Duration::from_millis(500);
        let cc = MultiversionTimestampOrdering::new().with_wait_budget(budget);
        assert_eq!(cc.wait_budget(), budget);
        assert!(granted(cc.prewrite(&ctx(1, 10), &item("x"), current())));
        // The ts-20 reader waits out the ts-10 pending write, however often
        // it asks and with nothing remembered of it …
        let reader = ctx(2, 20);
        let before = cc.fingerprint();
        assert_eq!(cc.read(&reader, &item("x"), current()), None);
        assert_eq!(cc.read(&reader, &item("x"), current()), None);
        assert_eq!(cc.fingerprint(), before);
        // … and then reads the version it inserted instead of silently
        // skipping it.
        cc.commit(&ctx(1, 10), &[(item("x"), Value::Int(7), Version(1))]);
        assert_eq!(read_value(&cc, &reader, "x"), Value::Int(7));
    }

    #[test]
    fn recovery_floor_fences_pre_crash_timestamps() {
        let cc = MultiversionTimestampOrdering::new();
        cc.install_recovery_floor(Timestamp::new(50, 0));
        assert!(rejected(cc.read(&ctx(1, 20), &item("x"), current())));
        assert!(rejected(cc.prewrite(&ctx(2, 49), &item("x"), current())));
        // At and above the floor, normal multi-version rules apply.
        assert!(granted(cc.read(&ctx(3, 60), &item("x"), current())));
        assert!(granted(cc.prewrite(&ctx(4, 70), &item("x"), current())));
    }

    #[test]
    fn reads_see_the_version_visible_at_their_timestamp() {
        let cc = MultiversionTimestampOrdering::new();
        // T10 writes 100, T30 writes 300.
        let w10 = ctx(1, 10);
        assert!(granted(cc.prewrite(&w10, &item("x"), current())));
        cc.commit(&w10, &[(item("x"), Value::Int(100), Version(1))]);
        let w30 = ctx(2, 30);
        assert!(granted(cc.prewrite(&w30, &item("x"), current())));
        cc.commit(&w30, &[(item("x"), Value::Int(300), Version(2))]);

        // A reader at ts=20 sees 100; a reader at ts=40 sees 300; a reader at
        // ts=5 sees the initial value 0.
        assert_eq!(read_value(&cc, &ctx(3, 20), "x"), Value::Int(100));
        assert_eq!(read_value(&cc, &ctx(4, 40), "x"), Value::Int(300));
        assert_eq!(read_value(&cc, &ctx(5, 5), "x"), Value::Int(0));
        assert_eq!(cc.version_count(&item("x")), 3);
    }

    #[test]
    fn old_readers_never_abort() {
        let cc = MultiversionTimestampOrdering::new();
        let writer = ctx(1, 100);
        assert!(granted(cc.prewrite(&writer, &item("x"), current())));
        cc.commit(&writer, &[(item("x"), Value::Int(7), Version(1))]);
        // Under basic TSO this read (ts 50 < wts 100) would abort; under MVTO
        // it reads the older version.
        assert_eq!(read_value(&cc, &ctx(2, 50), "x"), Value::Int(0));
    }

    #[test]
    fn write_invalidating_a_later_read_is_rejected() {
        let cc = MultiversionTimestampOrdering::new();
        // A reader at ts=50 reads the initial version.
        assert!(granted(cc.read(&ctx(1, 50), &item("x"), current())));
        // A writer at ts=20 would create a version that the ts=50 reader
        // should have seen: rejected.
        let d = cc
            .prewrite(&ctx(2, 20), &item("x"), current())
            .expect("decided");
        assert!(matches!(
            d.rejection(),
            Some(AbortCause::CcpTimestampViolation { .. })
        ));
        // A writer younger than the reader is fine.
        assert!(granted(cc.prewrite(&ctx(3, 60), &item("x"), current())));
    }

    #[test]
    fn aborted_writes_leave_no_version() {
        let cc = MultiversionTimestampOrdering::new();
        let w = ctx(1, 10);
        assert!(granted(cc.prewrite(&w, &item("x"), current())));
        cc.abort(&w);
        assert_eq!(cc.active_transactions(), 0);
        assert_eq!(read_value(&cc, &ctx(2, 20), "x"), Value::Int(0));
        assert_eq!(cc.version_count(&item("x")), 1);
    }

    #[test]
    fn versions_are_kept_sorted_even_with_out_of_order_commits() {
        let cc = MultiversionTimestampOrdering::new();
        let w30 = ctx(1, 30);
        let w10 = ctx(2, 10);
        assert!(granted(cc.prewrite(&w30, &item("x"), current())));
        cc.commit(&w30, &[(item("x"), Value::Int(300), Version(2))]);
        // The older writer commits after the newer one (possible with
        // distributed commit ordering); its version must slot in before.
        assert!(granted(cc.prewrite(&w10, &item("x"), current())));
        cc.commit(&w10, &[(item("x"), Value::Int(100), Version(1))]);
        assert_eq!(read_value(&cc, &ctx(3, 20), "x"), Value::Int(100));
        assert_eq!(read_value(&cc, &ctx(4, 40), "x"), Value::Int(300));
    }

    #[test]
    fn vacuum_discards_unreachable_versions() {
        let cc = MultiversionTimestampOrdering::new();
        for (i, ts) in [10u64, 20, 30, 40].iter().enumerate() {
            let w = ctx(i as u64 + 1, *ts);
            assert!(granted(cc.prewrite(&w, &item("x"), current())));
            cc.commit(
                &w,
                &[(item("x"), Value::Int(*ts as i64), Version(i as u64 + 1))],
            );
        }
        assert_eq!(cc.version_count(&item("x")), 5);
        cc.vacuum(Timestamp::new(35, 0));
        // Versions 0,10,20 are older than the visible-at-35 version (30) and
        // can be dropped; 30 and 40 remain.
        assert_eq!(cc.version_count(&item("x")), 2);
        assert_eq!(read_value(&cc, &ctx(9, 100), "x"), Value::Int(40));
    }

    #[test]
    fn validate_always_grants_and_name_is_mvto() {
        let cc = MultiversionTimestampOrdering::new();
        assert!(cc.validate(&ctx(1, 1)).is_granted());
        assert_eq!(cc.name(), "MVTO");
    }

    #[test]
    fn read_write_conflict_on_same_timestamp_is_allowed_for_own_txn() {
        let cc = MultiversionTimestampOrdering::new();
        let t = ctx(1, 10);
        assert_eq!(read_value(&cc, &t, "x"), Value::Int(0));
        // Writing after having read the same item at the same timestamp is
        // fine (rts == ts, not > ts).
        assert!(granted(cc.prewrite(&t, &item("x"), current())));
        cc.commit(&t, &[(item("x"), Value::Int(1), Version(1))]);
        assert_eq!(read_value(&cc, &ctx(2, 20), "x"), Value::Int(1));
    }
}
