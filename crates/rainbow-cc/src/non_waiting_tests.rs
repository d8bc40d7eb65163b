//! The non-waiting forms of `read` / `prewrite`, checked the same way for
//! every protocol: a *would wait* answer leaves no trace, and asking without
//! waiting first and then waiting decides exactly what waiting alone decides.

use crate::types::{CcDecision, CcProtocol, TxnContext};
use crate::{MultiversionTimestampOrdering, TimestampOrdering, TwoPhaseLocking};
use rainbow_common::protocol::DeadlockPolicy;
use rainbow_common::rng::{seeded_rng, AccessDistribution, ItemSampler};
use rainbow_common::{ItemId, SiteId, Timestamp, TxnId, Value, Version};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// Joins `lines` in sorted order: the canonical form of an unordered
/// collection inside a protocol's `fingerprint()`.
pub(crate) fn canonical(lines: impl IntoIterator<Item = String>) -> String {
    let mut lines: Vec<String> = lines.into_iter().collect();
    lines.sort();
    lines.join(";")
}

/// The canonical form of a timestamp protocol's `touched` map.
pub(crate) fn canonical_touched(touched: &HashMap<TxnId, HashSet<ItemId>>) -> String {
    canonical(touched.iter().map(|(txn, items)| {
        let items = canonical(items.iter().map(|item| item.to_string()));
        format!("{txn:?} touched [{items}]")
    }))
}

/// Long enough that a waiting call really waits, short enough that the
/// single-threaded runs below (where nobody ever releases during a wait)
/// time out quickly.
const WAIT: Duration = Duration::from_millis(1);

/// A protocol under test together with the way to look inside it.
struct Subject<P> {
    name: String,
    make: Box<dyn Fn() -> P>,
    fingerprint: fn(&P) -> String,
}

fn two_phase_locking(policy: DeadlockPolicy) -> Subject<TwoPhaseLocking> {
    Subject {
        name: format!("2PL/{policy}"),
        make: Box::new(move || TwoPhaseLocking::new(policy, WAIT)),
        fingerprint: TwoPhaseLocking::fingerprint,
    }
}

fn timestamp_ordering() -> Subject<TimestampOrdering> {
    Subject {
        name: "TSO".into(),
        make: Box::new(|| TimestampOrdering::new().with_wait_budget(WAIT)),
        fingerprint: TimestampOrdering::fingerprint,
    }
}

fn multiversion() -> Subject<MultiversionTimestampOrdering> {
    Subject {
        name: "MVTO".into(),
        make: Box::new(|| MultiversionTimestampOrdering::new().with_wait_budget(WAIT)),
        fingerprint: MultiversionTimestampOrdering::fingerprint,
    }
}

const POLICIES: [DeadlockPolicy; 4] = [
    DeadlockPolicy::WaitForGraph,
    DeadlockPolicy::WaitDie,
    DeadlockPolicy::WoundWait,
    DeadlockPolicy::TimeoutOnly,
];

fn ctx(seq: u64, ts: u64) -> TxnContext {
    TxnContext::new(TxnId::new(SiteId(0), seq), Timestamp::new(ts, 0))
}

fn current() -> (Value, Version) {
    (Value::Int(0), Version(0))
}

/// The copy accesses a site issues, as it issues them.
#[derive(Debug, Clone, Copy)]
enum Access {
    Read,
    Prewrite,
    /// Pre-write, then read: the site's read-for-update.
    ReadForUpdate,
}

impl Access {
    fn wait(self, cc: &dyn CcProtocol, txn: &TxnContext, item: &ItemId) -> CcDecision {
        match self {
            Access::Read => cc.read(txn, item, current()),
            Access::Prewrite => cc.prewrite(txn, item, current()),
            Access::ReadForUpdate => match cc.prewrite(txn, item, current()) {
                CcDecision::Granted { .. } => cc.read(txn, item, current()),
                rejected => rejected,
            },
        }
    }

    fn attempt(self, cc: &dyn CcProtocol, txn: &TxnContext, item: &ItemId) -> Option<CcDecision> {
        match self {
            Access::Read => cc.try_read(txn, item, current()),
            Access::Prewrite => cc.try_prewrite(txn, item, current()),
            Access::ReadForUpdate => match cc.try_prewrite(txn, item, current())? {
                CcDecision::Granted { .. } => cc.try_read(txn, item, current()),
                rejected => Some(rejected),
            },
        }
    }
}

/// An older and a younger transaction each find `x` write-held by the other
/// generation: whatever the deadlock policy would do about it, asking
/// without waiting does none of it.
fn would_wait_leaves_no_trace<P: CcProtocol>(subject: Subject<P>) {
    let x = ItemId::new("x");
    for (holder_ts, asker_ts) in [(10, 20), (20, 10)] {
        let cc = (subject.make)();
        let holder = ctx(1, holder_ts);
        let asker = ctx(2, asker_ts);
        assert!(cc.prewrite(&holder, &x, current()).is_granted());
        let before = (subject.fingerprint)(&cc);
        let mut would_wait = 0;
        for access in [Access::Read, Access::Prewrite, Access::ReadForUpdate] {
            match access.attempt(&cc, &asker, &x) {
                None => {
                    would_wait += 1;
                    assert_eq!(
                        (subject.fingerprint)(&cc),
                        before,
                        "{}: {access:?} answered would-wait and left a trace",
                        subject.name
                    );
                }
                // Decided at once (a timestamp pre-write never waits; a read
                // ordered before the pending write is simply granted).
                Some(_) => break,
            }
        }
        if asker_ts > holder_ts {
            assert!(
                would_wait > 0,
                "{}: a read behind an earlier pending write must have to wait",
                subject.name
            );
        }
        // The transaction that was told to wait can still be granted once
        // the holder is gone — nothing of the refusal stuck to it.
        cc.abort(&holder);
        assert!(cc.prewrite(&asker, &x, current()).is_granted());
    }
}

#[test]
fn would_wait_leaves_no_trace_in_any_protocol() {
    for policy in POLICIES {
        would_wait_leaves_no_trace(two_phase_locking(policy));
    }
    would_wait_leaves_no_trace(timestamp_ordering());
    would_wait_leaves_no_trace(multiversion());
}

/// One step of a random single-threaded history.
#[derive(Debug, Clone, Copy)]
enum Step {
    Access(usize, usize, Access),
    Commit(usize),
    Abort(usize),
}

fn random_steps(seed: u64, len: usize, txns: usize, items: usize) -> Vec<Step> {
    let mut rng = seeded_rng(seed);
    let mut pick = |n: usize| ItemSampler::new(n, AccessDistribution::Uniform).sample(&mut rng);
    (0..len)
        .map(|_| {
            let txn = pick(txns);
            match pick(10) {
                0 => Step::Commit(txn),
                1 => Step::Abort(txn),
                kind => Step::Access(
                    txn,
                    pick(items),
                    [Access::Read, Access::Prewrite, Access::ReadForUpdate][kind % 3],
                ),
            }
        })
        .collect()
}

/// Plays `steps` against a fresh protocol instance and returns every
/// decision, the final state and how many accesses had to wait. `try_first`
/// plays them the way a site's dispatcher does — the non-waiting attempt,
/// and the waiting call only when the attempt would wait (re-issuing a
/// read-for-update whole).
fn play<P: CcProtocol>(
    subject: &Subject<P>,
    steps: &[Step],
    try_first: bool,
) -> (Vec<String>, String, usize) {
    const TXNS: usize = 4;
    let cc = (subject.make)();
    let items: Vec<ItemId> = (0..3).map(|i| ItemId::new(format!("i{i}"))).collect();
    // Slot → its current incarnation; a finished slot restarts younger.
    let mut next_seq = TXNS as u64;
    let mut slots: Vec<TxnContext> = (0..TXNS as u64).map(|i| ctx(i, 10 * (i + 1))).collect();
    let mut writes: Vec<Vec<ItemId>> = vec![Vec::new(); TXNS];
    let mut decisions = Vec::new();
    let mut waited = 0;
    for step in steps {
        let slot = match *step {
            Step::Access(slot, item, access) => {
                let (txn, item) = (slots[slot], &items[item]);
                let decision = if try_first {
                    let before = (subject.fingerprint)(&cc);
                    access.attempt(&cc, &txn, item).unwrap_or_else(|| {
                        waited += 1;
                        // A read-for-update may keep its granted pre-write;
                        // anything else that would wait changed nothing.
                        if !matches!(access, Access::ReadForUpdate) {
                            assert_eq!((subject.fingerprint)(&cc), before, "{}", subject.name);
                        }
                        access.wait(&cc, &txn, item)
                    })
                } else {
                    access.wait(&cc, &txn, item)
                };
                decisions.push(format!("{step:?}: {decision:?}"));
                if decision.is_granted() {
                    if !matches!(access, Access::Read) && !writes[slot].contains(item) {
                        writes[slot].push(item.clone());
                    }
                    continue;
                }
                // A rejected transaction aborts, as its coordinator would.
                cc.abort(&txn);
                slot
            }
            Step::Commit(slot) => {
                let txn = slots[slot];
                if cc.validate(&txn).is_granted() {
                    let installed: Vec<_> = writes[slot]
                        .iter()
                        .map(|item| {
                            (
                                item.clone(),
                                Value::Int(txn.ts.counter as i64),
                                Version(txn.ts.counter),
                            )
                        })
                        .collect();
                    cc.commit(&txn, &installed);
                } else {
                    cc.abort(&txn);
                }
                slot
            }
            Step::Abort(slot) => {
                cc.abort(&slots[slot]);
                slot
            }
        };
        writes[slot].clear();
        slots[slot] = ctx(next_seq, 10 * (next_seq + 1));
        next_seq += 1;
    }
    (decisions, (subject.fingerprint)(&cc), waited)
}

fn attempt_then_wait_equals_wait<P: CcProtocol>(subject: Subject<P>) {
    let mut handed_off = 0;
    for seed in 0..8 {
        let steps = random_steps(seed, 80, 4, 3);
        let (waited, waited_state, _) = play(&subject, &steps, false);
        let (tried, tried_state, would_wait) = play(&subject, &steps, true);
        assert_eq!(
            tried, waited,
            "{} seed {seed}: decisions differ",
            subject.name
        );
        assert_eq!(
            tried_state, waited_state,
            "{} seed {seed}: final states differ",
            subject.name
        );
        handed_off += would_wait;
    }
    assert!(
        handed_off > 0,
        "{}: no history ever had to wait",
        subject.name
    );
}

#[test]
fn attempt_then_wait_decides_what_waiting_alone_decides() {
    for policy in POLICIES {
        attempt_then_wait_equals_wait(two_phase_locking(policy));
    }
    attempt_then_wait_equals_wait(timestamp_ordering());
    attempt_then_wait_equals_wait(multiversion());
}

/// The site re-issues a whole read-for-update when its read half would wait
/// after the pre-write half was granted on the dispatcher, so a pre-write
/// granted twice must equal one granted once.
fn granting_a_prewrite_twice_equals_once<P: CcProtocol>(subject: Subject<P>) {
    let x = ItemId::new("x");
    let (once, twice) = ((subject.make)(), (subject.make)());
    let txn = ctx(1, 10);
    assert!(once.prewrite(&txn, &x, current()).is_granted());
    assert_eq!(
        twice.try_prewrite(&txn, &x, current()),
        Some(CcDecision::granted())
    );
    assert!(twice.prewrite(&txn, &x, current()).is_granted());
    // Grant counters aside (2PL counts the re-grant as a grant), the two
    // instances remember the same thing, and one release frees both.
    let strip = |fingerprint: String| fingerprint.split("\nstats").next().unwrap().to_string();
    assert_eq!(
        strip((subject.fingerprint)(&twice)),
        strip((subject.fingerprint)(&once)),
        "{}",
        subject.name
    );
    twice.abort(&txn);
    assert_eq!(twice.active_transactions(), 0);
    assert!(twice.prewrite(&ctx(2, 20), &x, current()).is_granted());
}

#[test]
fn a_prewrite_granted_twice_equals_one_granted_once() {
    for policy in POLICIES {
        granting_a_prewrite_twice_equals_once(two_phase_locking(policy));
    }
    granting_a_prewrite_twice_equals_once(timestamp_ordering());
    granting_a_prewrite_twice_equals_once(multiversion());
}
