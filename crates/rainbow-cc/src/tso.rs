//! Basic timestamp ordering (TSO).
//!
//! Every transaction carries a unique timestamp assigned at its home site.
//! Each item copy records the largest timestamp of any transaction that read
//! it (`rts`) and the largest timestamp of any committed write (`wts`).
//! Operations arriving "too late" — i.e. with a timestamp smaller than what
//! the item has already seen — are rejected and the transaction aborts (and
//! is typically restarted by the workload generator with a new, larger
//! timestamp).
//!
//! Rules implemented (the classic Bernstein/Goodman formulation adapted to
//! deferred writes through 2PC):
//!
//! * `read(x, ts)`  : rejected if `ts < wts(x)`. While another transaction
//!   holds a pending pre-write with a smaller timestamp, the read *must
//!   wait* (answers `None`; the site asks again, bounded by the wait
//!   budget) for it to resolve — serving it early would observe the value
//!   that write is about to supersede while being ordered after it, a lost
//!   update. Granted reads set `rts(x) = max(rts(x), ts)`;
//! * `write(x, ts)` : rejected if `ts < rts(x)` or `ts < wts(x)`; otherwise a
//!   pending pre-write is recorded;
//! * `commit`       : pending writes become committed, `wts(x) = max(wts(x), ts)`;
//! * `abort`        : pending writes vanish.
//!
//! The pending-write wait on reads is the bounded form of the textbook
//! prewrite/read queue: a reader ordered after a pending write waits for
//! that write's decision instead of either observing the superseded value
//! (a lost update — found by the chaos harness) or aborting immediately.
//! Nothing is remembered of a read that must wait — whether it still must
//! is decided afresh each time the site asks — which keeps the
//! implementation simple enough for students to replace (a Rainbow design
//! goal); the wait budget keeps the protocol bounded.

use crate::types::{CcDecision, CcProtocol, TxnContext};
use rainbow_common::txn::AbortCause;
use rainbow_common::{FxHashMap, FxHashSet, ItemId, Timestamp, TxnId, Value, Version};
use std::collections::BTreeMap;
use std::time::Duration;

#[derive(Debug, Default, Clone)]
struct ItemTimestamps {
    /// Largest timestamp of any granted read.
    rts: Timestamp,
    /// Largest timestamp of any committed write.
    wts: Timestamp,
    /// Pending (prepared but uncommitted) writes: txn → its timestamp.
    pending_writes: BTreeMap<TxnId, Timestamp>,
}

/// Basic timestamp-ordering concurrency control for one site.
#[derive(Debug, Default)]
pub struct TimestampOrdering {
    items: FxHashMap<ItemId, ItemTimestamps>,
    /// Items touched by each active transaction (so abort/commit can clean
    /// pending entries without scanning every item).
    touched: FxHashMap<TxnId, FxHashSet<ItemId>>,
    /// Post-recovery admission floor (see
    /// [`CcProtocol::install_recovery_floor`]): operations below it are
    /// rejected because the pre-crash `rts`/`wts` they might conflict with
    /// were lost with the volatile tables.
    floor: Timestamp,
    /// How long a read that must wait behind an earlier transaction's
    /// pending pre-write is worth asking again for. Zero (the [`Default`]):
    /// not at all.
    wait_budget: Duration,
}

impl TimestampOrdering {
    /// Creates a TSO instance (with a zero wait budget: a read that must
    /// wait is given up at once; see [`TimestampOrdering::with_wait_budget`]).
    pub fn new() -> Self {
        TimestampOrdering::default()
    }

    /// Lets reads behind an earlier pending pre-write wait up to `budget`
    /// for it to resolve (the prewrite-queue behaviour of textbook TSO,
    /// bounded so the protocol stays non-blocking overall).
    pub fn with_wait_budget(mut self, budget: Duration) -> Self {
        self.wait_budget = budget;
        self
    }

    /// The `(rts, wts)` pair currently recorded for an item (zero timestamps
    /// if the item has never been touched). Exposed for tests.
    pub fn item_timestamps(&self, item: &ItemId) -> (Timestamp, Timestamp) {
        self.items
            .get(item)
            .map(|entry| (entry.rts, entry.wts))
            .unwrap_or((Timestamp::ZERO, Timestamp::ZERO))
    }

    /// Forgets `txn`: its pending pre-writes on every item it touched.
    fn forget(&mut self, txn: TxnId) {
        for item in self.touched.remove(&txn).unwrap_or_default() {
            if let Some(entry) = self.items.get_mut(&item) {
                entry.pending_writes.remove(&txn);
            }
        }
    }
}

impl CcProtocol for TimestampOrdering {
    fn read(
        &mut self,
        txn: &TxnContext,
        item: &ItemId,
        _current: (Value, Version),
    ) -> Option<CcDecision> {
        if txn.ts < self.floor {
            return Some(CcDecision::Rejected(txn.too_late(item)));
        }
        let entry = self.items.entry(item.clone()).or_default();
        // Reading behind a committed write is too late no matter what the
        // pending writes resolve to (wts never decreases), so reject before
        // deciding to wait.
        if txn.ts < entry.wts {
            return Some(CcDecision::Rejected(txn.too_late(item)));
        }
        // A read must not slip past a pending pre-write staged by a
        // smaller-timestamped *other* transaction: it would observe the
        // value that write is about to supersede while being ordered after
        // the writer — the lost-update the chaos harness reproduces when
        // two read-modify-writes race. (The transaction's own pending
        // pre-write never blocks its own read: read-for-update issues the
        // pre-write first.) Such a read has to wait for the pending write
        // to resolve — the prewrite-queue behaviour of textbook TSO —
        // and nothing is recorded for it.
        let earliest_other_pending = entry
            .pending_writes
            .iter()
            .filter(|(id, _)| **id != txn.id)
            .map(|(_, ts)| *ts)
            .min();
        if earliest_other_pending.is_some_and(|pending| txn.ts > pending) {
            return None;
        }
        entry.rts = entry.rts.max(txn.ts);
        self.touched.entry(txn.id).or_default().insert(item.clone());
        Some(CcDecision::granted())
    }

    /// A TSO pre-write never waits.
    fn prewrite(
        &mut self,
        txn: &TxnContext,
        item: &ItemId,
        _current: (Value, Version),
    ) -> Option<CcDecision> {
        if txn.ts < self.floor {
            return Some(CcDecision::Rejected(txn.too_late(item)));
        }
        let entry = self.items.entry(item.clone()).or_default();
        if txn.ts < entry.rts || txn.ts < entry.wts {
            return Some(CcDecision::Rejected(txn.too_late(item)));
        }
        entry.pending_writes.insert(txn.id, txn.ts);
        self.touched.entry(txn.id).or_default().insert(item.clone());
        Some(CcDecision::granted())
    }

    fn wait_budget(&self) -> Duration {
        self.wait_budget
    }

    /// Nothing is remembered of a read that must wait, so there is nothing
    /// to forget; out of budget it is simply too late.
    fn give_up(&mut self, txn: &TxnContext, item: &ItemId) -> AbortCause {
        txn.too_late(item)
    }

    fn validate(&mut self, _txn: &TxnContext) -> CcDecision {
        // TSO decides at access time; nothing can invalidate a transaction
        // between its last access and its vote.
        CcDecision::granted()
    }

    fn commit(&mut self, txn: &TxnContext, writes: &[(ItemId, Value, Version)]) {
        for (item, _, _) in writes {
            let entry = self.items.entry(item.clone()).or_default();
            entry.pending_writes.remove(&txn.id);
            entry.wts = entry.wts.max(txn.ts);
        }
        // Clear any pending pre-writes on items that were staged but not in
        // the final write set (defensive; normally identical).
        self.forget(txn.id);
    }

    fn abort(&mut self, txn: &TxnContext) {
        self.forget(txn.id);
    }

    fn install_recovery_floor(&mut self, floor: Timestamp) {
        self.floor = self.floor.max(floor);
    }

    fn name(&self) -> &'static str {
        "TSO"
    }

    fn active_transactions(&self) -> usize {
        self.touched.len()
    }
}

#[cfg(test)]
impl TimestampOrdering {
    /// Everything the protocol remembers, in a canonical order, so tests can
    /// compare two instances (or one before and after).
    pub(crate) fn fingerprint(&self) -> String {
        use crate::non_waiting_tests::{canonical, canonical_touched};
        format!(
            "items {}\ntouched {}\nfloor {:?}",
            canonical(self.items.iter().map(|e| format!("{e:?}"))),
            canonical_touched(&self.touched),
            self.floor
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

    #[test]
    fn reads_and_writes_in_timestamp_order_are_granted() {
        let mut cc = TimestampOrdering::new();
        let t1 = ctx(1, 10);
        let t2 = ctx(2, 20);
        assert!(granted(cc.read(&t1, &item("x"), current())));
        assert!(granted(cc.prewrite(&t2, &item("x"), current())));
        cc.commit(&t2, &[(item("x"), Value::Int(1), Version(1))]);
        let (rts, wts) = cc.item_timestamps(&item("x"));
        assert_eq!(rts, Timestamp::new(10, 0));
        assert_eq!(wts, Timestamp::new(20, 0));
    }

    #[test]
    fn late_read_behind_committed_write_is_rejected() {
        let mut cc = TimestampOrdering::new();
        let writer = ctx(1, 50);
        assert!(granted(cc.prewrite(&writer, &item("x"), current())));
        cc.commit(&writer, &[(item("x"), Value::Int(1), Version(1))]);
        // A reader with an older timestamp arrives afterwards: too late.
        let late_reader = ctx(2, 10);
        let d = cc
            .read(&late_reader, &item("x"), current())
            .expect("decided");
        assert!(matches!(
            d.rejection(),
            Some(AbortCause::CcpTimestampViolation { .. })
        ));
    }

    #[test]
    fn late_write_behind_read_is_rejected() {
        let mut cc = TimestampOrdering::new();
        let reader = ctx(1, 50);
        assert!(granted(cc.read(&reader, &item("x"), current())));
        let late_writer = ctx(2, 10);
        assert!(rejected(cc.prewrite(&late_writer, &item("x"), current())));
    }

    #[test]
    fn late_write_behind_committed_write_is_rejected() {
        let mut cc = TimestampOrdering::new();
        let w1 = ctx(1, 50);
        assert!(granted(cc.prewrite(&w1, &item("x"), current())));
        cc.commit(&w1, &[(item("x"), Value::Int(1), Version(1))]);
        let w2 = ctx(2, 20);
        assert!(rejected(cc.prewrite(&w2, &item("x"), current())));
    }

    #[test]
    fn read_for_update_cannot_bypass_an_earlier_pending_write() {
        // Two read-modify-writes race: T1 (ts 10) pre-writes x, then T2
        // (ts 20) pre-writes x and issues the read half of its
        // read-for-update. T2's own pending entry must NOT hide T1's: the
        // value T2 would read is the one T1 is about to supersede, yet T2
        // serializes after T1 — the classic lost update.
        let mut cc = TimestampOrdering::new();
        let t1 = ctx(1, 10);
        let t2 = ctx(2, 20);
        assert!(granted(cc.prewrite(&t1, &item("x"), current())));
        assert!(granted(cc.prewrite(&t2, &item("x"), current())));
        assert_eq!(cc.read(&t2, &item("x"), current()), None);
        // Once T1 is decided (here: aborted), T2's own pending write alone
        // never blocks its read.
        cc.abort(&t1);
        assert!(granted(cc.read(&t2, &item("x"), current())));
    }

    #[test]
    fn blocked_read_waits_for_the_pending_write_to_resolve() {
        let budget = Duration::from_millis(500);
        let mut cc = TimestampOrdering::new().with_wait_budget(budget);
        assert_eq!(cc.wait_budget(), budget);
        let writer = ctx(1, 10);
        assert!(granted(cc.prewrite(&writer, &item("x"), current())));
        // The ts-20 reader must wait behind the ts-10 pending write, however
        // often it asks, and nothing is remembered of it …
        let before = cc.fingerprint();
        assert_eq!(cc.read(&ctx(2, 20), &item("x"), current()), None);
        assert_eq!(cc.read(&ctx(2, 20), &item("x"), current()), None);
        assert_eq!(cc.fingerprint(), before);
        // … and proceeds once it commits (20 > wts 10).
        cc.commit(&writer, &[(item("x"), Value::Int(1), Version(1))]);
        assert!(granted(cc.read(&ctx(2, 20), &item("x"), current())));
    }

    #[test]
    fn read_past_pending_write_of_earlier_txn_is_rejected() {
        let mut cc = TimestampOrdering::new();
        let writer = ctx(1, 10);
        assert!(granted(cc.prewrite(&writer, &item("x"), current())));
        // A later reader must not read the (still old) committed value and
        // thereby miss the pending earlier write.
        let reader = ctx(2, 20);
        assert_eq!(cc.read(&reader, &item("x"), current()), None);
        // Out of budget, it is rejected as a timestamp violation.
        assert_eq!(
            cc.give_up(&reader, &item("x")),
            AbortCause::CcpTimestampViolation {
                item: item("x"),
                rejected: reader.ts,
            }
        );
        // The writer itself may still read its own item.
        assert!(granted(cc.read(&writer, &item("x"), current())));
        // Once the writer commits, the later reader would be behind wts and
        // still rejected; a fresh, even later reader after commit succeeds.
        cc.commit(&writer, &[(item("x"), Value::Int(1), Version(1))]);
        let reader3 = ctx(3, 30);
        assert!(granted(cc.read(&reader3, &item("x"), current())));
    }

    #[test]
    fn recovery_floor_fences_pre_crash_timestamps() {
        let mut cc = TimestampOrdering::new();
        assert!(granted(cc.read(&ctx(1, 10), &item("x"), current())));
        cc.install_recovery_floor(Timestamp::new(40, 0));
        // Below the floor: rejected even though the (rebuilt, empty) tables
        // would have granted them — the pre-crash rts/wts they might
        // conflict with are gone.
        assert!(rejected(cc.prewrite(&ctx(2, 30), &item("x"), current())));
        assert!(rejected(cc.read(&ctx(3, 39), &item("y"), current())));
        // At and above the floor, normal rules apply.
        assert!(granted(cc.read(&ctx(4, 40), &item("y"), current())));
        assert!(granted(cc.prewrite(&ctx(5, 41), &item("x"), current())));
        // The floor never moves backwards.
        cc.install_recovery_floor(Timestamp::new(5, 0));
        assert!(rejected(cc.read(&ctx(6, 20), &item("z"), current())));
    }

    #[test]
    fn abort_discards_pending_writes() {
        let mut cc = TimestampOrdering::new();
        let writer = ctx(1, 10);
        assert!(granted(cc.prewrite(&writer, &item("x"), current())));
        assert_eq!(cc.active_transactions(), 1);
        cc.abort(&writer);
        assert_eq!(cc.active_transactions(), 0);
        // After the abort, a later reader is no longer blocked by the pending
        // write.
        let reader = ctx(2, 20);
        assert!(granted(cc.read(&reader, &item("x"), current())));
        // wts is unchanged by the aborted write.
        let (_, wts) = cc.item_timestamps(&item("x"));
        assert_eq!(wts, Timestamp::ZERO);
    }

    #[test]
    fn validate_always_grants() {
        let mut cc = TimestampOrdering::new();
        assert!(cc.validate(&ctx(1, 1)).is_granted());
        assert_eq!(cc.name(), "TSO");
    }

    #[test]
    fn rts_advances_monotonically() {
        let mut cc = TimestampOrdering::new();
        assert!(granted(cc.read(&ctx(1, 30), &item("x"), current())));
        assert!(granted(cc.read(&ctx(2, 10), &item("x"), current())));
        let (rts, _) = cc.item_timestamps(&item("x"));
        assert_eq!(rts, Timestamp::new(30, 0), "rts must not move backwards");
    }

    #[test]
    fn blind_write_then_commit_updates_wts_per_item() {
        let mut cc = TimestampOrdering::new();
        let t = ctx(1, 5);
        assert!(granted(cc.prewrite(&t, &item("a"), current())));
        assert!(granted(cc.prewrite(&t, &item("b"), current())));
        cc.commit(
            &t,
            &[
                (item("a"), Value::Int(1), Version(1)),
                (item("b"), Value::Int(2), Version(1)),
            ],
        );
        assert_eq!(cc.item_timestamps(&item("a")).1, Timestamp::new(5, 0));
        assert_eq!(cc.item_timestamps(&item("b")).1, Timestamp::new(5, 0));
        assert_eq!(cc.active_transactions(), 0);
    }
}
