//! Message-traffic accounting.
//!
//! Every message that enters the simulator is counted here: totals, per
//! message kind (e.g. `"2PC_PREPARE"`, `"QC_READ_REQ"`), plus drop counts.
//! All of them count *logical* messages: what a batch envelope carries is
//! counted message by message, under each message's own kind and size, and
//! the envelopes themselves — the trips through the simulator — have a
//! counter of their own, never a kind, so summing the kinds gives the
//! total. The quorum message-traffic study (the `research_study` example),
//! the benchmark's `*_msgs_per_commit` metrics and the paper's "total
//! number of messages generated per time unit" statistic read these
//! counters.
//!
//! Every sender counts each message it sends, so counting takes no lock:
//! the per-kind counts are atomics in a `CountTable`, a fixed
//! open-addressing table whose keys, once written, never move. A kind is
//! keyed by its `&'static str` and found by content, so two equal labels
//! at different addresses are one kind; nothing is allocated per message.

use rainbow_common::fxhash::FxHasher;
use rainbow_common::stats::MessageStats;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// How many kinds a [`CountTable`] holds: `2^KIND_BITS`. A protocol has a
/// few dozen (`rainbow-core`'s messages have 21).
const KIND_BITS: u32 = 6;
const KINDS: usize = 1 << KIND_BITS;

/// One kind's count. The kind is written once, by the first sender of a
/// message of that kind, and never changes.
#[derive(Default)]
struct Slot {
    kind: OnceLock<&'static str>,
    count: AtomicU64,
}

/// Counts per message kind without a lock: a kind hashes to a slot and
/// probes from there, taking the first slot that holds it or is free.
/// Kinds are never removed, so a kind that found its slot always finds it
/// again, and two senders of a new kind agree on one slot: the one whose
/// kind write wins. A kind past [`KINDS`] finds no slot and panics.
struct CountTable {
    slots: [Slot; KINDS],
}

impl Default for CountTable {
    fn default() -> Self {
        CountTable {
            slots: std::array::from_fn(|_| Slot::default()),
        }
    }
}

impl std::fmt::Debug for CountTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.counts()).finish()
    }
}

impl CountTable {
    /// The slots `kind` may use, in probe order: every slot, starting at
    /// the one its hash's top bits name.
    fn window(&self, kind: &str) -> impl Iterator<Item = &Slot> {
        let mut hasher = FxHasher::default();
        kind.hash(&mut hasher);
        let start = (hasher.finish() >> (64 - KIND_BITS)) as usize;
        (0..KINDS).map(move |i| &self.slots[(start + i) % KINDS])
    }

    /// Adds `n` to `kind`'s count, claiming a slot for it if it has none.
    fn add(&self, kind: &'static str, n: u64) {
        for slot in self.window(kind) {
            // A free slot is claimed; a lost race leaves the winner's kind.
            if *slot.kind.get_or_init(|| kind) == kind {
                slot.count.fetch_add(n, Ordering::Relaxed);
                return;
            }
        }
        panic!("more than {KINDS} message kinds: no slot left for {kind:?}");
    }

    /// `kind`'s count; 0 for a kind never counted.
    fn get(&self, kind: &str) -> u64 {
        for slot in self.window(kind) {
            match slot.kind.get() {
                Some(held) if *held == kind => return slot.count.load(Ordering::Relaxed),
                Some(_) => {}
                // A kind is never stored past a free slot.
                None => return 0,
            }
        }
        0
    }

    /// Every kind whose count is not zero, with its count.
    fn counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.slots.iter().filter_map(|slot| {
            let count = slot.count.load(Ordering::Relaxed);
            Some((*slot.kind.get()?, count)).filter(|_| count > 0)
        })
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
    by_kind: CountTable,
}

impl NetworkCounters {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        NetworkCounters::default()
    }

    /// Records a message handed to the simulator (on its own, or carried by
    /// a batch envelope).
    pub fn record_sent(&self, kind: &'static str, bytes: usize) {
        self.sent.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.by_kind.add(kind, 1);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = NetworkCounters::new();
        c.record_sent("2PC_PREPARE", 100);
        c.record_sent("2PC_PREPARE", 100);
        c.record_sent("2PC_VOTE", 20);
        c.record_delivered(2);
        c.record_dropped_loss(1);
        c.record_round_trip();

        assert_eq!(c.sent(), 3);
        assert_eq!(c.delivered(), 2);
        assert_eq!(c.dropped(), 1);
        assert_eq!(c.kind("2PC_PREPARE"), 2);
        assert_eq!(c.kind("2PC_VOTE"), 1);
        assert_eq!(c.kind("missing"), 0);
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
        c.record_sent("QC_READ", 10);
        c.record_sent("QC_OLD", 10);
        let before = c.snapshot();
        c.record_sent("QC_READ", 10);
        c.record_sent("QC_WRITE", 10);
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
    fn a_kind_is_counted_by_its_content_not_its_address() {
        let c = NetworkCounters::new();
        let elsewhere: &'static str = Box::leak(String::from("2PC_VOTE").into_boxed_str());
        assert!(!std::ptr::eq(elsewhere, "2PC_VOTE"));
        c.record_sent("2PC_VOTE", 10);
        c.record_sent(elsewhere, 10);
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
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let n = (i * 7 + t) as usize;
                        c.record_sent(KINDS[n % KINDS.len()], 1);
                    }
                });
            }
        });
        let kinds: u64 = KINDS.iter().map(|kind| c.kind(kind)).sum();
        assert_eq!(c.sent(), 4 * PER_THREAD);
        assert_eq!(kinds, c.sent());
        assert_eq!(c.snapshot().by_kind.values().sum::<u64>(), c.sent());
    }

    /// The table holds [`KINDS`] kinds, each under its own count; one more
    /// has no slot, and says how many there may be.
    #[test]
    #[should_panic(expected = "more than 64 message kinds")]
    fn a_kind_past_the_tables_capacity_panics_naming_the_limit() {
        let c = NetworkCounters::new();
        let kinds: Vec<&'static str> = (0..=KINDS)
            .map(|i| &*Box::leak(format!("KIND_{i}").into_boxed_str()))
            .collect();
        let (fitting, past) = kinds.split_at(KINDS);
        for (i, kind) in fitting.iter().enumerate() {
            for _ in 0..=i {
                c.record_sent(kind, 1);
            }
        }
        for (i, kind) in fitting.iter().enumerate() {
            assert_eq!(c.kind(kind), i as u64 + 1, "{kind}");
        }
        assert_eq!(c.snapshot().by_kind.len(), KINDS);
        c.record_sent(past[0], 1);
    }
}
