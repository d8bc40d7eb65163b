//! Strict two-phase locking as a [`CcProtocol`].
//!
//! Reads take shared locks, pre-writes take exclusive locks, and every lock
//! is held until the transaction's commit or abort reaches this site (strict
//! 2PL), which is exactly what two-phase commit needs: data written by a
//! prepared transaction stays locked until the decision arrives. An access
//! that finds its lock held is queued for it and answers `None`.

use crate::lock::{Acquired, LockError, LockManager, LockMode};
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

    fn acquire(&self, txn: &TxnContext, item: &ItemId, mode: LockMode) -> Option<CcDecision> {
        match self.locks.acquire(txn.id, txn.ts, item, mode) {
            Ok(Acquired::Granted) => Some(CcDecision::granted()),
            Ok(Acquired::Queued) => None,
            Err(LockError::Deadlock | LockError::Wounded) => {
                Some(CcDecision::Rejected(AbortCause::CcpDeadlock {
                    item: item.clone(),
                }))
            }
        }
    }
}

impl CcProtocol for TwoPhaseLocking {
    fn read(
        &self,
        txn: &TxnContext,
        item: &ItemId,
        _current: (Value, Version),
    ) -> Option<CcDecision> {
        self.acquire(txn, item, LockMode::Shared)
    }

    fn prewrite(
        &self,
        txn: &TxnContext,
        item: &ItemId,
        _current: (Value, Version),
    ) -> Option<CcDecision> {
        self.acquire(txn, item, LockMode::Exclusive)
    }

    fn wait_budget(&self) -> Duration {
        self.locks.wait_timeout()
    }

    fn give_up(&self, txn: &TxnContext, item: &ItemId) -> AbortCause {
        AbortCause::CcpLockConflict {
            item: item.clone(),
            holder: self.locks.give_up(txn.id, item),
        }
    }

    fn validate(&self, txn: &TxnContext) -> CcDecision {
        if self.locks.is_wounded(txn.id) {
            return CcDecision::Rejected(AbortCause::CcpDeadlock {
                item: ItemId::new("<wounded>"),
            });
        }
        // A participant being prepared always holds at least one lock: every
        // access this site granted is locked until the decision (strict
        // 2PL), or until this very validation passes and the participant
        // votes READ-ONLY when it wrote nothing. Holding nothing means the grants were lost — the site
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

    const GRANTED: Option<CcDecision> = Some(CcDecision::Granted {
        value_override: None,
    });

    #[test]
    fn readers_share_writers_exclude() {
        let cc = tpl(DeadlockPolicy::WaitForGraph);
        let t1 = ctx(1, 1);
        let t2 = ctx(2, 2);
        assert_eq!(cc.read(&t1, &item("x"), current()), GRANTED);
        assert_eq!(cc.read(&t2, &item("x"), current()), GRANTED);
        // A writer cannot get in while readers hold the item: it waits, and
        // when it gives up it names a reader that stood in its way.
        let t3 = ctx(3, 3);
        assert_eq!(cc.prewrite(&t3, &item("x"), current()), None);
        assert_eq!(
            cc.give_up(&t3, &item("x")),
            AbortCause::CcpLockConflict {
                item: item("x"),
                holder: Some(t1.id),
            }
        );
        assert_eq!(cc.wait_budget(), Duration::from_millis(80));
    }

    #[test]
    fn commit_releases_locks_for_waiting_writers() {
        let cc = tpl(DeadlockPolicy::TimeoutOnly);
        let t1 = ctx(1, 1);
        let t2 = ctx(2, 2);
        assert_eq!(cc.prewrite(&t1, &item("x"), current()), GRANTED);
        assert_eq!(cc.prewrite(&t2, &item("x"), current()), None);
        cc.commit(&t1, &[(item("x"), Value::Int(1), Version(1))]);
        assert_eq!(cc.prewrite(&t2, &item("x"), current()), GRANTED);
    }

    #[test]
    fn abort_also_releases_locks() {
        let cc = tpl(DeadlockPolicy::WaitForGraph);
        let t1 = ctx(1, 1);
        assert_eq!(cc.prewrite(&t1, &item("x"), current()), GRANTED);
        assert_eq!(cc.active_transactions(), 1);
        cc.abort(&t1);
        assert_eq!(cc.active_transactions(), 0);
        let t2 = ctx(2, 2);
        assert_eq!(cc.prewrite(&t2, &item("x"), current()), GRANTED);
    }

    #[test]
    fn deadlock_is_reported_as_ccp_deadlock() {
        let cc = tpl(DeadlockPolicy::WaitForGraph);
        let t1 = ctx(1, 1);
        let t2 = ctx(2, 2);
        assert_eq!(cc.prewrite(&t1, &item("x"), current()), GRANTED);
        assert_eq!(cc.prewrite(&t2, &item("y"), current()), GRANTED);
        assert_eq!(cc.prewrite(&t1, &item("y"), current()), None);
        let d = cc.prewrite(&t2, &item("x"), current()).expect("decided");
        assert!(matches!(
            d.rejection(),
            Some(AbortCause::CcpDeadlock { .. })
        ));
        cc.abort(&t2);
        assert_eq!(cc.prewrite(&t1, &item("y"), current()), GRANTED);
    }

    #[test]
    fn wounded_transaction_fails_validation() {
        let cc = tpl(DeadlockPolicy::WoundWait);
        let young = ctx(2, 10);
        let old = ctx(1, 1);
        assert_eq!(cc.prewrite(&young, &item("x"), current()), GRANTED);
        // The older transaction wounds the younger holder and waits.
        assert_eq!(cc.prewrite(&old, &item("x"), current()), None);
        assert!(!cc.validate(&young).is_granted());
        cc.abort(&young);
        assert_eq!(cc.prewrite(&old, &item("x"), current()), GRANTED);
        // The winning older transaction — now actually holding the lock,
        // as any prepared participant does — validates cleanly.
        assert!(cc.validate(&old).is_granted());
    }

    #[test]
    fn validate_passes_for_unwounded_transactions() {
        let cc = tpl(DeadlockPolicy::WaitForGraph);
        let t1 = ctx(1, 1);
        assert_eq!(cc.read(&t1, &item("x"), current()), GRANTED);
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
        assert_eq!(cc.read(&t1, &item("x"), current()), GRANTED);
        assert!(cc.validate(&t1).is_granted());
        // After release (decision applied), a late re-validation fails again.
        cc.commit(&t1, &[]);
        assert!(!cc.validate(&t1).is_granted());
    }

    #[test]
    fn read_then_upgrade_to_write_on_same_item() {
        let cc = tpl(DeadlockPolicy::WaitForGraph);
        let t1 = ctx(1, 1);
        assert_eq!(cc.read(&t1, &item("x"), current()), GRANTED);
        assert_eq!(cc.prewrite(&t1, &item("x"), current()), GRANTED);
        cc.commit(&t1, &[(item("x"), Value::Int(5), Version(1))]);
        assert_eq!(cc.active_transactions(), 0);
    }
}
