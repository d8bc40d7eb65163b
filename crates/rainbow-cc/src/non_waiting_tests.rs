//! What the site relies on when it asks `read` / `prewrite` again instead of
//! waiting inside them, checked the same way for every protocol: asking
//! again with nothing committed or aborted in between changes nothing, a
//! pre-write granted twice equals one granted once, and whoever ends —
//! decided, aborted or given up — leaves nothing behind.

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

/// The access was decided, and granted.
pub(crate) fn granted(answer: Option<CcDecision>) -> bool {
    answer.is_some_and(|decision| decision.is_granted())
}

/// The access was decided, and rejected.
pub(crate) fn rejected(answer: Option<CcDecision>) -> bool {
    answer.is_some_and(|decision| !decision.is_granted())
}

/// The budget is the caller's to apply; nothing here ever sleeps.
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
    fn ask(self, cc: &dyn CcProtocol, txn: &TxnContext, item: &ItemId) -> Option<CcDecision> {
        match self {
            Access::Read => cc.read(txn, item, current()),
            Access::Prewrite => cc.prewrite(txn, item, current()),
            Access::ReadForUpdate => match cc.prewrite(txn, item, current())? {
                CcDecision::Granted { .. } => cc.read(txn, item, current()),
                rejected => Some(rejected),
            },
        }
    }
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

/// Plays random histories the way a site does — an access answered `None`
/// is kept and asked again, oldest first, after every step, and given up
/// when its transaction ends first — asking twice wherever the site asks
/// once: the second answer must be the same `None` and change nothing. When
/// everybody has ended, nothing may be held, queued or remembered.
fn asking_again_changes_nothing<P: CcProtocol>(subject: Subject<P>) {
    const TXNS: usize = 4;
    let name = &subject.name;
    let items: Vec<ItemId> = (0..3).map(|i| ItemId::new(format!("i{i}"))).collect();
    let (mut waited, mut granted_after_waiting) = (0, 0);
    for seed in 0..8 {
        let cc = (subject.make)();
        // Slot → its current incarnation (a finished slot restarts younger)
        // and the items it was granted write access to.
        let mut incarnations = (0..).map(|seq| (ctx(seq, 10 * (seq + 1)), Vec::new()));
        let mut slots: Vec<(TxnContext, Vec<ItemId>)> = incarnations.by_ref().take(TXNS).collect();
        let mut waiting: Vec<(usize, ItemId, Access)> = Vec::new();
        let everybody_ends = (0..TXNS).map(Step::Abort);
        for step in random_steps(seed, 80, TXNS, items.len())
            .into_iter()
            .chain(everybody_ends)
        {
            let mut asked = std::mem::take(&mut waiting);
            let asked_before = asked.len();
            match step {
                Step::Access(slot, item, access) => {
                    // A transaction waiting for an answer does not ask for more.
                    if !asked.iter().any(|(waiter, ..)| *waiter == slot) {
                        asked.push((slot, items[item].clone(), access));
                    }
                }
                Step::Commit(slot) | Step::Abort(slot) => {
                    let (txn, writes) =
                        std::mem::replace(&mut slots[slot], incarnations.next().unwrap());
                    if matches!(step, Step::Commit(_)) && cc.validate(&txn).is_granted() {
                        let install = |item: ItemId| (item, Value::Int(1), Version(txn.ts.counter));
                        cc.commit(&txn, &writes.into_iter().map(install).collect::<Vec<_>>());
                    } else {
                        cc.abort(&txn);
                    }
                    // What it was still waiting for is given up, after the fact.
                    if let Some(at) = asked.iter().position(|(waiter, ..)| *waiter == slot) {
                        cc.give_up(&txn, &asked.remove(at).1);
                    }
                }
            }
            for (nth, (slot, item, access)) in asked.into_iter().enumerate() {
                let txn = slots[slot].0;
                match access.ask(&cc, &txn, &item) {
                    None => {
                        let queued = (subject.fingerprint)(&cc);
                        assert_eq!(access.ask(&cc, &txn, &item), None, "{name} seed {seed}");
                        assert_eq!((subject.fingerprint)(&cc), queued, "{name} seed {seed}");
                        waited += usize::from(nth >= asked_before);
                        waiting.push((slot, item, access));
                    }
                    Some(decision) if decision.is_granted() => {
                        granted_after_waiting += usize::from(nth < asked_before);
                        if !matches!(access, Access::Read) {
                            slots[slot].1.push(item);
                        }
                    }
                    // A rejected transaction aborts, as its coordinator would
                    // make it.
                    Some(_) => {
                        cc.abort(&txn);
                        slots[slot] = incarnations.next().unwrap();
                    }
                }
            }
        }
        let left = (subject.fingerprint)(&cc);
        assert_eq!(
            (waiting.len(), cc.active_transactions()),
            (0, 0),
            "{name}: {left}"
        );
        for item in &items {
            let free = granted(cc.prewrite(&ctx(999, 9990), item, current()));
            assert!(free, "{name} seed {seed}: {item} is not free");
        }
    }
    assert!(waited > 0, "{name}: no history ever had to wait");
    assert!(
        granted_after_waiting > 0,
        "{name}: no wait ever ended in a grant"
    );
}

#[test]
fn asking_again_with_nothing_released_changes_nothing() {
    for policy in POLICIES {
        asking_again_changes_nothing(two_phase_locking(policy));
    }
    asking_again_changes_nothing(timestamp_ordering());
    asking_again_changes_nothing(multiversion());
}

/// The site asks for a whole read-for-update again when its read half must
/// wait after the pre-write half was granted, so a pre-write granted twice
/// must equal one granted once.
fn granting_a_prewrite_twice_equals_once<P: CcProtocol>(subject: Subject<P>) {
    let x = ItemId::new("x");
    let (once, twice) = ((subject.make)(), (subject.make)());
    let txn = ctx(1, 10);
    assert!(granted(once.prewrite(&txn, &x, current())));
    assert!(granted(twice.prewrite(&txn, &x, current())));
    assert!(granted(twice.prewrite(&txn, &x, current())));
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
    assert!(granted(twice.prewrite(&ctx(2, 20), &x, current())));
}

#[test]
fn a_prewrite_granted_twice_equals_one_granted_once() {
    for policy in POLICIES {
        granting_a_prewrite_twice_equals_once(two_phase_locking(policy));
    }
    granting_a_prewrite_twice_equals_once(timestamp_ordering());
    granting_a_prewrite_twice_equals_once(multiversion());
}
