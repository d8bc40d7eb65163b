//! Message-traffic accounting.
//!
//! Every message that enters the simulator is counted here: totals, per
//! message kind (e.g. `"2PC_PREPARE"`, `"QC_READ_REQ"`), per directed link,
//! plus drop counts. All of them count *logical* messages: what a batch
//! envelope carries is counted message by message, under each message's own
//! kind and size, and the envelopes themselves — the trips through the
//! simulator — have a counter of their own, never a kind, so summing the
//! kinds gives the total. The quorum message-traffic study (the
//! `research_study` example), the benchmark's `*_msgs_per_commit` metrics
//! and the paper's "total number of messages generated per time unit"
//! statistic read these counters.
//!
//! Every sender counts each message it sends, so counting takes no lock:
//! the per-kind and per-link counts are atomics in a [`CountTable`], an
//! insert-only open-addressing table whose keys, once written, never move.
//! A kind is keyed by its `&'static str` and found by content, so two
//! equal labels at different addresses are one kind; nothing is allocated
//! per message.

use crate::node::NodeId;
use rainbow_common::fxhash::FxHasher;
use rainbow_common::stats::MessageStats;
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// How many slots a key may try in one level of a [`CountTable`] before
/// it goes to the next level.
const PROBES: usize = 16;

/// One key's count. The key is written once, by the first sender of a
/// message under it, and never changes.
struct Slot<K> {
    key: OnceLock<K>,
    count: AtomicU64,
}

/// Counts per key without a lock: a key hashes to a slot and probes up to
/// [`PROBES`] slots from there, taking the first that holds it or is free.
/// Keys are never removed (a reset zeroes the counts), so a key that found
/// its slot always finds it again, and two senders of a new key agree on
/// one slot: the one whose key write wins. A level whose probe window for a
/// key is full passes the key to the next level, four times larger, which
/// is made once when first needed.
struct CountTable<K> {
    slots: Box<[Slot<K>]>,
    /// The slot index is the hash's top `bits` bits.
    bits: u32,
    next: OnceLock<Box<CountTable<K>>>,
}

/// The first level has 256 slots: a protocol has a few dozen kinds, and a
/// cluster's links grow with its clients, whose node ids are reused.
impl<K: Eq + Hash + Copy> Default for CountTable<K> {
    fn default() -> Self {
        CountTable::new(8)
    }
}

impl<K: Eq + Hash + Copy + std::fmt::Debug> std::fmt::Debug for CountTable<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.counts()).finish()
    }
}

impl<K: Eq + Hash + Copy> CountTable<K> {
    /// A table with `2^bits` slots in its first level.
    fn new(bits: u32) -> Self {
        let slots = (0..1usize << bits).map(|_| Slot {
            key: OnceLock::new(),
            count: AtomicU64::new(0),
        });
        CountTable {
            slots: slots.collect(),
            bits,
            next: OnceLock::new(),
        }
    }

    /// The hash of a key, or of what it borrows as (a kind's `str`).
    fn hash<Q: Hash + ?Sized>(key: &Q) -> u64 {
        let mut hasher = FxHasher::default();
        key.hash(&mut hasher);
        hasher.finish()
    }

    /// The slots `key` may use in this level, in probe order.
    fn window(&self, hash: u64) -> impl Iterator<Item = &Slot<K>> {
        let (start, mask) = ((hash >> (64 - self.bits)) as usize, self.slots.len() - 1);
        (0..PROBES.min(self.slots.len())).map(move |i| &self.slots[(start + i) & mask])
    }

    /// Adds `n` to `key`'s count, claiming a slot for it if it has none.
    fn add(&self, key: K, n: u64) {
        let (hash, mut table) = (Self::hash(&key), self);
        loop {
            for slot in table.window(hash) {
                // A free slot is claimed; a lost race leaves the winner's key.
                if *slot.key.get_or_init(|| key) == key {
                    slot.count.fetch_add(n, Ordering::Relaxed);
                    return;
                }
            }
            let bits = table.bits + 2;
            table = table.next.get_or_init(|| Box::new(CountTable::new(bits)));
        }
    }

    /// `key`'s count; 0 for a key never counted.
    fn get<Q>(&self, key: &Q) -> u64
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let hash = Self::hash(key);
        for table in self.levels() {
            for slot in table.window(hash) {
                match slot.key.get() {
                    Some(held) if held.borrow() == key => {
                        return slot.count.load(Ordering::Relaxed)
                    }
                    Some(_) => {}
                    // A key is never stored past a free slot.
                    None => return 0,
                }
            }
        }
        0
    }

    /// This level and the ones made after it, in order.
    fn levels(&self) -> impl Iterator<Item = &CountTable<K>> {
        std::iter::successors(Some(self), |table| table.next.get().map(|next| &**next))
    }

    /// The slots of every level.
    fn slots(&self) -> impl Iterator<Item = &Slot<K>> {
        self.levels().flat_map(|table| table.slots.iter())
    }

    /// Every key whose count is not zero, with its count.
    fn counts(&self) -> impl Iterator<Item = (K, u64)> + '_ {
        self.slots().filter_map(|slot| {
            let count = slot.count.load(Ordering::Relaxed);
            Some((*slot.key.get()?, count)).filter(|_| count > 0)
        })
    }

    /// Zeroes every count; the keys keep their slots.
    fn reset(&self) {
        for slot in self.slots() {
            slot.count.store(0, Ordering::Relaxed);
        }
    }
}

/// Shared, thread-safe message counters. Cloning the handle (via `Arc`)
/// shares the same underlying counters.
#[derive(Debug, Default)]
pub struct NetworkCounters {
    sent: AtomicU64,
    envelopes: AtomicU64,
    delivered: AtomicU64,
    dropped_loss: AtomicU64,
    dropped_partition: AtomicU64,
    dropped_crash: AtomicU64,
    bytes: AtomicU64,
    round_trips: AtomicU64,
    by_kind: CountTable<&'static str>,
    by_link: CountTable<(NodeId, NodeId)>,
}

impl NetworkCounters {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        NetworkCounters::default()
    }

    /// Records a message handed to the simulator (on its own, or carried by
    /// a batch envelope).
    pub fn record_sent(&self, from: NodeId, to: NodeId, kind: &'static str, bytes: usize) {
        self.sent.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.by_kind.add(kind, 1);
        self.by_link.add((from, to), 1);
    }

    /// Records one envelope handed to the simulator, whatever it carries.
    pub fn record_envelope(&self) {
        self.envelopes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the successful delivery of an envelope carrying `messages`
    /// messages.
    pub fn record_delivered(&self, messages: u64) {
        self.delivered.fetch_add(messages, Ordering::Relaxed);
    }

    /// Records `messages` messages dropped by random loss.
    pub fn record_dropped_loss(&self, messages: u64) {
        self.dropped_loss.fetch_add(messages, Ordering::Relaxed);
    }

    /// Records `messages` messages dropped because sender and receiver are
    /// in different partitions.
    pub fn record_dropped_partition(&self, messages: u64) {
        self.dropped_partition
            .fetch_add(messages, Ordering::Relaxed);
    }

    /// Records `messages` messages dropped because the sender or receiver is
    /// crashed.
    pub fn record_dropped_crash(&self, messages: u64) {
        self.dropped_crash.fetch_add(messages, Ordering::Relaxed);
    }

    /// Records one completed request/response round trip (reported by the
    /// RPC layer in `rainbow-core`).
    pub fn record_round_trip(&self) {
        self.round_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Total messages sent so far.
    pub fn sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }

    /// Total envelopes sent so far: the trips through the simulator the
    /// messages of [`NetworkCounters::sent`] made (fewer, when batched).
    pub fn envelopes(&self) -> u64 {
        self.envelopes.load(Ordering::Relaxed)
    }

    /// Total messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Total messages dropped so far (all reasons).
    pub fn dropped(&self) -> u64 {
        self.dropped_loss() + self.dropped_partition() + self.dropped_crash()
    }

    /// Messages dropped so far by random loss.
    pub fn dropped_loss(&self) -> u64 {
        self.dropped_loss.load(Ordering::Relaxed)
    }

    /// Messages dropped so far because a partition separated their ends.
    pub fn dropped_partition(&self) -> u64 {
        self.dropped_partition.load(Ordering::Relaxed)
    }

    /// Messages dropped so far because an end was crashed.
    pub fn dropped_crash(&self) -> u64 {
        self.dropped_crash.load(Ordering::Relaxed)
    }

    /// Messages of one kind sent so far.
    pub fn kind(&self, kind: &str) -> u64 {
        self.by_kind.get(kind)
    }

    /// Messages sent on one directed link so far.
    pub fn link(&self, from: NodeId, to: NodeId) -> u64 {
        self.by_link.get(&(from, to))
    }

    /// Completed round trips so far.
    pub fn round_trips(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }

    /// Snapshot as the common [`MessageStats`] type used by the progress
    /// monitor.
    pub fn snapshot(&self) -> MessageStats {
        MessageStats {
            sent: self.sent(),
            delivered: self.delivered(),
            dropped: self.dropped(),
            bytes: self.bytes.load(Ordering::Relaxed),
            by_kind: self
                .by_kind
                .counts()
                .map(|(kind, n)| (kind.to_owned(), n))
                .collect(),
            round_trips: self.round_trips(),
        }
    }

    /// Difference between this snapshot and an earlier one, used by windowed
    /// experiments ("messages per time unit").
    pub fn delta_since(&self, earlier: &MessageStats) -> MessageStats {
        let now = self.snapshot();
        let mut by_kind = BTreeMap::new();
        for (kind, count) in &now.by_kind {
            let before = earlier.by_kind.get(kind).copied().unwrap_or(0);
            if *count > before {
                by_kind.insert(kind.clone(), count - before);
            }
        }
        MessageStats {
            sent: now.sent.saturating_sub(earlier.sent),
            delivered: now.delivered.saturating_sub(earlier.delivered),
            dropped: now.dropped.saturating_sub(earlier.dropped),
            bytes: now.bytes.saturating_sub(earlier.bytes),
            by_kind,
            round_trips: now.round_trips.saturating_sub(earlier.round_trips),
        }
    }

    /// Resets everything to zero (used between experiment repetitions).
    pub fn reset(&self) {
        self.sent.store(0, Ordering::Relaxed);
        self.envelopes.store(0, Ordering::Relaxed);
        self.delivered.store(0, Ordering::Relaxed);
        self.dropped_loss.store(0, Ordering::Relaxed);
        self.dropped_partition.store(0, Ordering::Relaxed);
        self.dropped_crash.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.round_trips.store(0, Ordering::Relaxed);
        self.by_kind.reset();
        self.by_link.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = NetworkCounters::new();
        let a = NodeId::site(0);
        let b = NodeId::site(1);
        c.record_sent(a, b, "2PC_PREPARE", 100);
        c.record_sent(a, b, "2PC_PREPARE", 100);
        c.record_sent(b, a, "2PC_VOTE", 20);
        c.record_delivered(2);
        c.record_dropped_loss(1);
        c.record_round_trip();

        assert_eq!(c.sent(), 3);
        assert_eq!(c.delivered(), 2);
        assert_eq!(c.dropped(), 1);
        assert_eq!(c.kind("2PC_PREPARE"), 2);
        assert_eq!(c.kind("2PC_VOTE"), 1);
        assert_eq!(c.kind("missing"), 0);
        assert_eq!(c.link(a, b), 2);
        assert_eq!(c.link(b, a), 1);
        assert_eq!(c.round_trips(), 1);

        let snap = c.snapshot();
        assert_eq!(snap.sent, 3);
        assert_eq!(snap.bytes, 220);
        assert_eq!(snap.kind("2PC_PREPARE"), 2);
    }

    #[test]
    fn drop_reasons_all_count_toward_dropped() {
        let c = NetworkCounters::new();
        c.record_dropped_loss(1);
        c.record_dropped_partition(2);
        c.record_dropped_crash(4);
        assert_eq!(c.dropped(), 7);
        let reasons = (c.dropped_loss(), c.dropped_partition(), c.dropped_crash());
        assert_eq!(reasons, (1, 2, 4));
    }

    #[test]
    fn delta_since_reports_only_new_traffic() {
        let c = NetworkCounters::new();
        let a = NodeId::site(0);
        let b = NodeId::site(1);
        c.record_sent(a, b, "QC_READ", 10);
        c.record_sent(a, b, "QC_OLD", 10);
        let before = c.snapshot();
        c.record_sent(a, b, "QC_READ", 10);
        c.record_sent(a, b, "QC_WRITE", 10);
        c.record_delivered(1);
        let delta = c.delta_since(&before);
        assert_eq!(delta.sent, 2);
        assert_eq!(delta.delivered, 1);
        assert_eq!(delta.bytes, 20);
        assert_eq!(delta.kind("QC_READ"), 1);
        assert_eq!(delta.kind("QC_WRITE"), 1);
        let kinds: Vec<&str> = delta.by_kind.keys().map(String::as_str).collect();
        assert_eq!(
            kinds,
            ["QC_READ", "QC_WRITE"],
            "a kind with no new traffic is left out"
        );
    }

    #[test]
    fn reset_zeroes_everything() {
        let c = NetworkCounters::new();
        let (a, b) = (NodeId::site(0), NodeId::site(1));
        c.record_sent(a, b, "X", 5);
        c.record_sent(b, a, "Y", 5);
        c.record_envelope();
        c.record_delivered(1);
        c.record_dropped_loss(1);
        c.record_dropped_partition(1);
        c.record_dropped_crash(1);
        c.record_round_trip();
        c.reset();
        assert_eq!(c.sent(), 0);
        assert_eq!(c.envelopes(), 0);
        assert_eq!(c.delivered(), 0);
        assert_eq!(c.dropped(), 0);
        assert_eq!(c.round_trips(), 0);
        assert_eq!((c.kind("X"), c.kind("Y")), (0, 0));
        assert_eq!((c.link(a, b), c.link(b, a)), (0, 0));
        let snapshot = c.snapshot();
        assert_eq!(snapshot.bytes, 0);
        assert!(snapshot.by_kind.is_empty(), "{:?}", snapshot.by_kind);
        // Counting starts again from zero under the same keys.
        c.record_sent(a, b, "X", 5);
        assert_eq!((c.kind("X"), c.link(a, b), c.sent()), (1, 1, 1));
        assert_eq!(c.snapshot().by_kind.len(), 1);
    }

    #[test]
    fn a_kind_is_counted_by_its_content_not_its_address() {
        let c = NetworkCounters::new();
        let (a, b) = (NodeId::site(0), NodeId::site(1));
        let elsewhere: &'static str = Box::leak(String::from("2PC_VOTE").into_boxed_str());
        assert!(!std::ptr::eq(elsewhere, "2PC_VOTE"));
        c.record_sent(a, b, "2PC_VOTE", 10);
        c.record_sent(a, b, elsewhere, 10);
        assert_eq!(c.kind("2PC_VOTE"), 2);
        assert_eq!(c.kind(&String::from("2PC_VOTE")), 2);
        let kinds = c.snapshot().by_kind;
        assert_eq!(
            kinds.into_iter().collect::<Vec<_>>(),
            vec![("2PC_VOTE".to_string(), 2)]
        );
    }

    #[test]
    fn senders_on_four_threads_lose_no_count() {
        const KINDS: [&str; 5] = ["A", "BB", "CCC", "2PC_PREPARE", "QC_READ_REQ"];
        const PER_THREAD: u64 = 20_000;
        let c = NetworkCounters::new();
        let nodes = [
            NodeId::site(0),
            NodeId::site(1),
            NodeId::site(2),
            NodeId::NameServer,
            NodeId::Client(0),
            NodeId::Client(1),
        ];
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (c, nodes) = (&c, &nodes);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let n = (i * 7 + t) as usize;
                        let (from, to) = (nodes[n % nodes.len()], nodes[(n / 3) % nodes.len()]);
                        c.record_sent(from, to, KINDS[n % KINDS.len()], 1);
                    }
                });
            }
        });
        let kinds: u64 = KINDS.iter().map(|kind| c.kind(kind)).sum();
        let pairs = nodes
            .iter()
            .flat_map(|a| nodes.iter().map(move |b| (*a, *b)));
        let links: u64 = pairs.map(|(a, b)| c.link(a, b)).sum();
        assert_eq!(c.sent(), 4 * PER_THREAD);
        assert_eq!(kinds, c.sent());
        assert_eq!(links, c.sent());
        assert_eq!(c.snapshot().by_kind.values().sum::<u64>(), c.sent());
    }

    #[test]
    fn links_past_the_first_level_keep_their_own_counts() {
        let c = NetworkCounters::new();
        let links = (0..3u32).flat_map(|s| (0..2_000u32).map(move |n| (s, n)));
        for (site, client) in links.clone() {
            let (from, to) = (NodeId::site(site), NodeId::Client(client));
            for _ in 0..=(client % 3) {
                c.record_sent(from, to, "X", 1);
            }
        }
        for (site, client) in links {
            let (from, to) = (NodeId::site(site), NodeId::Client(client));
            assert_eq!(c.link(from, to), u64::from(client % 3) + 1);
            assert_eq!(c.link(to, from), 0);
        }
    }
}
