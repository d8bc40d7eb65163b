//! Strict two-phase locking as a [`CcProtocol`].
//!
//! Reads take shared locks, pre-writes take exclusive locks, and every lock
//! is held until the transaction's commit or abort reaches this site (strict
//! 2PL), which is exactly what two-phase commit needs: data written by a
//! prepared transaction stays locked until the decision arrives.

use crate::lock::{LockError, LockManager, LockMode};
use crate::types::{CcDecision, CcProtocol, TxnContext};
use rainbow_common::protocol::DeadlockPolicy;
use rainbow_common::txn::AbortCause;
use rainbow_common::{ItemId, Value, Version};
use std::time::Duration;

/// The 2PL concurrency-control protocol for one site.
pub struct TwoPhaseLocking {
    locks: LockManager,
}

impl TwoPhaseLocking {
    /// Creates a 2PL instance with the given deadlock policy and lock-wait
    /// timeout.
    pub fn new(policy: DeadlockPolicy, lock_wait_timeout: Duration) -> Self {
        TwoPhaseLocking {
            locks: LockManager::new(policy, lock_wait_timeout),
        }
    }

    /// The underlying lock manager (exposed for statistics and tests).
    pub fn lock_manager(&self) -> &LockManager {
        &self.locks
    }

    fn map_error(error: LockError, item: &ItemId) -> AbortCause {
        match error {
            LockError::Deadlock | LockError::Wounded => {
                AbortCause::CcpDeadlock { item: item.clone() }
            }
            LockError::Timeout => AbortCause::CcpLockConflict {
                item: item.clone(),
                holder: None,
            },
        }
    }

    fn decision(result: Result<(), LockError>, item: &ItemId) -> CcDecision {
        match result {
            Ok(()) => CcDecision::granted(),
            Err(error) => CcDecision::Rejected(Self::map_error(error, item)),
        }
    }

    fn acquire(&self, txn: &TxnContext, item: &ItemId, mode: LockMode) -> CcDecision {
        Self::decision(self.locks.acquire(txn.id, txn.ts, item, mode), item)
    }

    fn try_acquire(&self, txn: &TxnContext, item: &ItemId, mode: LockMode) -> Option<CcDecision> {
        self.locks
            .try_acquire(txn.id, txn.ts, item, mode)
            .map(|result| Self::decision(result, item))
    }
}

impl CcProtocol for TwoPhaseLocking {
    fn read(&self, txn: &TxnContext, item: &ItemId, _current: (Value, Version)) -> CcDecision {
        self.acquire(txn, item, LockMode::Shared)
    }

    fn prewrite(&self, txn: &TxnContext, item: &ItemId, _current: (Value, Version)) -> CcDecision {
        self.acquire(txn, item, LockMode::Exclusive)
    }

    fn try_read(
        &self,
        txn: &TxnContext,
        item: &ItemId,
        _current: (Value, Version),
    ) -> Option<CcDecision> {
        self.try_acquire(txn, item, LockMode::Shared)
    }

    fn try_prewrite(
        &self,
        txn: &TxnContext,
        item: &ItemId,
        _current: (Value, Version),
    ) -> Option<CcDecision> {
        self.try_acquire(txn, item, LockMode::Exclusive)
    }

    fn validate(&self, txn: &TxnContext) -> CcDecision {
        if self.locks.is_wounded(txn.id) {
            return CcDecision::Rejected(AbortCause::CcpDeadlock {
                item: ItemId::new("<wounded>"),
            });
        }
        // A participant being prepared always holds at least one lock: every
        // access this site granted is locked until the decision (strict
        // 2PL). Holding nothing means the grants were lost — the site
        // crashed and recovered with a fresh lock table, or the janitor
        // already released the transaction — and other transactions may have
        // locked the same items since, so vouching for the old accesses
        // would break serializability (the chaos harness catches exactly
        // this as a cycle). Vote NO instead.
        if self.locks.held_by(txn.id).is_empty() {
            return CcDecision::Rejected(AbortCause::CcpLockConflict {
                item: ItemId::new("<grants-lost>"),
                holder: None,
            });
        }
        CcDecision::granted()
    }

    fn commit(&self, txn: &TxnContext, _writes: &[(ItemId, Value, Version)]) {
        self.locks.release_all(txn.id);
    }

    fn abort(&self, txn: &TxnContext) {
        self.locks.release_all(txn.id);
    }

    fn name(&self) -> &'static str {
        "2PL"
    }

    fn active_transactions(&self) -> usize {
        self.locks.active_transactions()
    }
}

#[cfg(test)]
impl TwoPhaseLocking {
    /// The lock manager's [`LockManager::fingerprint`].
    pub(crate) fn fingerprint(&self) -> String {
        self.locks.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbow_common::{SiteId, Timestamp, TxnId};
    use std::sync::Arc;
    use std::thread;

    fn ctx(seq: u64, ts: u64) -> TxnContext {
        TxnContext::new(TxnId::new(SiteId(0), seq), Timestamp::new(ts, 0))
    }

    fn item(name: &str) -> ItemId {
        ItemId::new(name)
    }

    fn current() -> (Value, Version) {
        (Value::Int(0), Version(0))
    }

    fn tpl(policy: DeadlockPolicy) -> TwoPhaseLocking {
        TwoPhaseLocking::new(policy, Duration::from_millis(80))
    }

    #[test]
    fn readers_share_writers_exclude() {
        let cc = tpl(DeadlockPolicy::WaitForGraph);
        let t1 = ctx(1, 1);
        let t2 = ctx(2, 2);
        assert!(cc.read(&t1, &item("x"), current()).is_granted());
        assert!(cc.read(&t2, &item("x"), current()).is_granted());
        // A writer cannot get in while readers hold the item.
        let t3 = ctx(3, 3);
        let decision = cc.prewrite(&t3, &item("x"), current());
        assert!(!decision.is_granted());
        assert!(matches!(
            decision.rejection(),
            Some(AbortCause::CcpLockConflict { .. })
        ));
    }

    #[test]
    fn commit_releases_locks_for_waiting_writers() {
        let cc = Arc::new(tpl(DeadlockPolicy::TimeoutOnly));
        let t1 = ctx(1, 1);
        assert!(cc.prewrite(&t1, &item("x"), current()).is_granted());

        let cc2 = Arc::clone(&cc);
        let writer = thread::spawn(move || {
            let t2 = ctx(2, 2);
            cc2.prewrite(&t2, &item("x"), current())
        });
        thread::sleep(Duration::from_millis(20));
        cc.commit(&t1, &[(item("x"), Value::Int(1), Version(1))]);
        assert!(writer.join().unwrap().is_granted());
    }

    #[test]
    fn abort_also_releases_locks() {
        let cc = tpl(DeadlockPolicy::WaitForGraph);
        let t1 = ctx(1, 1);
        assert!(cc.prewrite(&t1, &item("x"), current()).is_granted());
        assert_eq!(cc.active_transactions(), 1);
        cc.abort(&t1);
        assert_eq!(cc.active_transactions(), 0);
        let t2 = ctx(2, 2);
        assert!(cc.prewrite(&t2, &item("x"), current()).is_granted());
    }

    #[test]
    fn deadlock_is_reported_as_ccp_deadlock() {
        let cc = Arc::new(TwoPhaseLocking::new(
            DeadlockPolicy::WaitForGraph,
            Duration::from_millis(300),
        ));
        let t1 = ctx(1, 1);
        let t2 = ctx(2, 2);
        assert!(cc.prewrite(&t1, &item("x"), current()).is_granted());
        assert!(cc.prewrite(&t2, &item("y"), current()).is_granted());
        let cc1 = Arc::clone(&cc);
        let h = thread::spawn(move || cc1.prewrite(&ctx(1, 1), &item("y"), current()));
        thread::sleep(Duration::from_millis(30));
        let d = cc.prewrite(&t2, &item("x"), current());
        assert!(matches!(
            d.rejection(),
            Some(AbortCause::CcpDeadlock { .. })
        ));
        cc.abort(&t2);
        assert!(h.join().unwrap().is_granted());
    }

    #[test]
    fn wounded_transaction_fails_validation() {
        let cc = Arc::new(tpl(DeadlockPolicy::WoundWait));
        let young = ctx(2, 10);
        let old = ctx(1, 1);
        assert!(cc.prewrite(&young, &item("x"), current()).is_granted());
        // Older transaction wounds the younger holder (it will wait/timeout in
        // a background thread; we only care about the wound side-effect).
        let cc2 = Arc::clone(&cc);
        let h = thread::spawn(move || cc2.prewrite(&ctx(1, 1), &item("x"), current()));
        thread::sleep(Duration::from_millis(20));
        assert!(!cc.validate(&young).is_granted());
        cc.abort(&young);
        assert!(h.join().unwrap().is_granted());
        // The winning older transaction — now actually holding the lock,
        // as any prepared participant does — validates cleanly.
        assert!(cc.validate(&old).is_granted());
    }

    #[test]
    fn validate_passes_for_unwounded_transactions() {
        let cc = tpl(DeadlockPolicy::WaitForGraph);
        let t1 = ctx(1, 1);
        assert!(cc.read(&t1, &item("x"), current()).is_granted());
        assert!(cc.validate(&t1).is_granted());
        assert_eq!(cc.name(), "2PL");
    }

    #[test]
    fn validate_rejects_transactions_holding_no_resources() {
        let cc = tpl(DeadlockPolicy::WaitForGraph);
        let t1 = ctx(1, 1);
        // No lock held at this site (grants lost in a crash, or released by
        // the janitor): the site must not vouch for the old accesses.
        assert!(!cc.validate(&t1).is_granted());
        // Once an access is granted (and still held), validation passes.
        assert!(cc.read(&t1, &item("x"), current()).is_granted());
        assert!(cc.validate(&t1).is_granted());
        // After release (decision applied), a late re-validation fails again.
        cc.commit(&t1, &[]);
        assert!(!cc.validate(&t1).is_granted());
    }

    #[test]
    fn read_then_upgrade_to_write_on_same_item() {
        let cc = tpl(DeadlockPolicy::WaitForGraph);
        let t1 = ctx(1, 1);
        assert!(cc.read(&t1, &item("x"), current()).is_granted());
        assert!(cc.prewrite(&t1, &item("x"), current()).is_granted());
        cc.commit(&t1, &[(item("x"), Value::Int(5), Version(1))]);
        assert_eq!(cc.active_transactions(), 0);
    }
}
