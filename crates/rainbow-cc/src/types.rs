//! The concurrency-control protocol trait and its supporting types.

use rainbow_common::protocol::{CcpKind, DeadlockPolicy};
use rainbow_common::txn::AbortCause;
use rainbow_common::{ItemId, Timestamp, TxnId, Value, Version};
use std::time::Duration;

/// Per-transaction context handed to every CCP call.
///
/// The timestamp is assigned by the transaction's home site when the
/// transaction starts and is carried on every copy-access request, so all
/// copy-holder sites see a consistent, totally ordered identity for the
/// transaction (needed by TSO, MVTO, wait-die and wound-wait).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnContext {
    /// The transaction id.
    pub id: TxnId,
    /// The transaction's globally unique timestamp.
    pub ts: Timestamp,
}

impl TxnContext {
    /// Creates a context.
    pub fn new(id: TxnId, ts: Timestamp) -> Self {
        TxnContext { id, ts }
    }

    /// The rejection of an operation of this transaction on `item` that
    /// arrived too late in timestamp order.
    pub(crate) fn too_late(&self, item: &ItemId) -> AbortCause {
        AbortCause::CcpTimestampViolation {
            item: item.clone(),
            rejected: self.ts,
        }
    }
}

/// Outcome of a CCP access request.
#[derive(Debug, Clone, PartialEq)]
pub enum CcDecision {
    /// Access granted. For multi-version protocols the grant may carry the
    /// version the transaction must read instead of the latest committed
    /// copy in storage.
    Granted {
        /// When `Some`, the caller must use this `(value, version)` as the
        /// result of the read instead of consulting the store (MVTO reads an
        /// older version when required).
        value_override: Option<(Value, Version)>,
    },
    /// Access rejected; the transaction must abort with the given cause.
    Rejected(AbortCause),
}

impl CcDecision {
    /// A plain grant with no value override.
    pub fn granted() -> Self {
        CcDecision::Granted {
            value_override: None,
        }
    }

    /// True if the decision grants access.
    pub fn is_granted(&self) -> bool {
        matches!(self, CcDecision::Granted { .. })
    }

    /// The abort cause when rejected.
    pub fn rejection(&self) -> Option<&AbortCause> {
        match self {
            CcDecision::Rejected(cause) => Some(cause),
            _ => None,
        }
    }
}

/// The concurrency control protocol interface, one instance per site — what
/// a student replacing a protocol implements.
///
/// An instance has one owner, the site's event loop (which also runs the
/// site handle's calls, between two messages), so calls never overlap: a
/// protocol keeps plain fields and takes no lock, and every method that can
/// change what it remembers takes `&mut self`. It is `Send` because it
/// moves with the site onto its loop's thread.
///
/// Call sequence for a transaction at a copy-holder site:
///
/// 1. zero or more [`CcProtocol::read`] / [`CcProtocol::prewrite`] calls as
///    the RCP touches local copies. Neither ever blocks: each answers
///    `Some(decision)`, or `None` — *the access must wait; ask again after
///    something commits or aborts here*. The site keeps the request and
///    repeats the same call after every message it handled, until it is
///    decided or [`CcProtocol::wait_budget`] has passed, and then calls
///    [`CcProtocol::give_up`];
/// 2. [`CcProtocol::validate`] when the 2PC participant is about to vote;
/// 3. exactly one of [`CcProtocol::commit`] or [`CcProtocol::abort`], which
///    releases every resource the transaction holds at this site.
pub trait CcProtocol: Send {
    /// Requests read access to `item`: granted, rejected, or `None` when it
    /// must wait (2PL: the lock is held; TSO/MVTO: an earlier pre-write is
    /// pending). A protocol may remember a waiting request (2PL gives it a
    /// place in the lock's queue), but being asked again with nothing
    /// committed or aborted in between must change nothing.
    ///
    /// `current` is the committed `(value, version)` of the local copy, which
    /// multi-version protocols use to maintain their version chains.
    fn read(
        &mut self,
        txn: &TxnContext,
        item: &ItemId,
        current: (Value, Version),
    ) -> Option<CcDecision>;

    /// Requests write (pre-write) access to `item`; same answers as
    /// [`CcProtocol::read`]. The actual new value is staged in storage by
    /// the caller; the CCP only arbitrates access. A granted pre-write may
    /// be asked for again (a read-for-update whose read half must wait is
    /// asked again whole), so granting one twice must equal granting it
    /// once.
    fn prewrite(
        &mut self,
        txn: &TxnContext,
        item: &ItemId,
        current: (Value, Version),
    ) -> Option<CcDecision>;

    /// How long an access answered `None` is worth asking again for.
    fn wait_budget(&self) -> Duration;

    /// The caller stops asking for an access to `item` that was answered
    /// `None` (the wait budget ran out, or the transaction ended meanwhile):
    /// whatever the protocol remembers of the waiting request is forgotten,
    /// and the cause to reject it with is returned.
    fn give_up(&mut self, txn: &TxnContext, item: &ItemId) -> AbortCause;

    /// Called by the commit participant just before voting YES. Protocols
    /// that can invalidate a transaction after its accesses were granted
    /// (wound-wait) reject here.
    fn validate(&mut self, txn: &TxnContext) -> CcDecision;

    /// The transaction committed: install protocol-private state (MVTO
    /// versions) and release every lock / reservation.
    ///
    /// `writes` are the `(item, value, version)` triples installed by the
    /// commit at this site.
    fn commit(&mut self, txn: &TxnContext, writes: &[(ItemId, Value, Version)]);

    /// The transaction aborted: release every lock / reservation.
    fn abort(&mut self, txn: &TxnContext);

    /// Installs a conservative recovery floor after a crash wiped this
    /// protocol's volatile state: the site's clock value at recovery, below
    /// which no operation may be granted any more. Timestamp protocols lose
    /// their `rts`/`wts` tables in a crash, so without the floor a
    /// recovered site would happily grant an *old* write it had already
    /// ordered a younger read past before crashing — the serializability
    /// hole the chaos harness caught. The floor conservatively restores the
    /// lost rejection surface (every pre-crash grant carried a timestamp
    /// the site's surviving Lamport clock has observed). Default: no-op,
    /// for protocols whose admission does not depend on lost state.
    fn install_recovery_floor(&mut self, _floor: Timestamp) {}

    /// Human-readable protocol name, used by reports.
    fn name(&self) -> &'static str;

    /// Number of transactions currently holding resources at this site
    /// (locks or pending writes), used by load statistics and tests.
    fn active_transactions(&self) -> usize;
}

/// Builds a CCP instance for a site from the configured kind.
pub fn make_ccp(
    kind: CcpKind,
    deadlock: DeadlockPolicy,
    lock_wait_timeout: Duration,
) -> Box<dyn CcProtocol> {
    match kind {
        CcpKind::TwoPhaseLocking => Box::new(crate::two_phase_locking::TwoPhaseLocking::new(
            deadlock,
            lock_wait_timeout,
        )),
        // The lock-wait timeout doubles as the wait budget of reads that
        // must wait behind an earlier transaction's pending pre-write (the
        // bounded prewrite-queue of textbook TSO/MVTO).
        CcpKind::TimestampOrdering => {
            Box::new(crate::tso::TimestampOrdering::new().with_wait_budget(lock_wait_timeout))
        }
        CcpKind::MultiversionTimestampOrdering => Box::new(
            crate::mvto::MultiversionTimestampOrdering::new().with_wait_budget(lock_wait_timeout),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbow_common::SiteId;

    #[test]
    fn decision_helpers() {
        let g = CcDecision::granted();
        assert!(g.is_granted());
        assert!(g.rejection().is_none());
        let r = CcDecision::Rejected(AbortCause::UserAbort);
        assert!(!r.is_granted());
        assert_eq!(r.rejection(), Some(&AbortCause::UserAbort));
        let o = CcDecision::Granted {
            value_override: Some((Value::Int(1), Version(2))),
        };
        assert!(o.is_granted());
    }

    #[test]
    fn factory_builds_every_protocol() {
        let timeout = Duration::from_millis(10);
        for (kind, name) in [
            (CcpKind::TwoPhaseLocking, "2PL"),
            (CcpKind::TimestampOrdering, "TSO"),
            (CcpKind::MultiversionTimestampOrdering, "MVTO"),
        ] {
            let ccp = make_ccp(kind, DeadlockPolicy::WaitDie, timeout);
            assert_eq!(ccp.name(), name);
            assert_eq!(ccp.wait_budget(), timeout);
            assert_eq!(ccp.active_transactions(), 0);
        }
    }

    #[test]
    fn txn_context_is_copyable() {
        let ctx = TxnContext::new(TxnId::new(SiteId(0), 1), Timestamp::new(5, 0));
        let copy = ctx;
        assert_eq!(ctx, copy);
    }
}
