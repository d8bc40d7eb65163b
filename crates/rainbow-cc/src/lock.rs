//! The strict two-phase-locking lock manager.
//!
//! One [`LockManager`] guards the local copies of one Rainbow site. It
//! implements shared/exclusive item locks with upgrades, a first-come
//! first-served queue of waiters per item, and all four deadlock-handling
//! policies exposed in the protocol configuration panel.
//!
//! # Waiting without a thread
//!
//! [`LockManager::acquire`] never blocks. It grants the lock, refuses it, or
//! answers [`Acquired::Queued`]: the request now has a place in the item's
//! queue and the caller asks again — the same call — after something was
//! released (a site does so after every message it handled). Asking again
//! with nothing released changes nothing. A caller that stops asking says so
//! with [`LockManager::give_up`]; how long it keeps asking is its business,
//! bounded by the configured [`LockManager::wait_timeout`], so a distributed
//! deadlock spanning several sites (which no local wait-for graph can see)
//! is eventually broken as well.
//!
//! A request waits for its *blockers*: the holders it conflicts with, and —
//! unless it already holds the item and is upgrading — every request queued
//! ahead of it, which it may not overtake. The deadlock policy runs on that
//! set, on every ask:
//!
//! * **wait-for-graph**: the blockers become the requester's wait-for edges;
//!   if they close a cycle, the requester is aborted as the deadlock victim;
//! * **wait-die**: a requester older than all its blockers waits, a younger
//!   one is aborted immediately ("dies");
//! * **wound-wait**: an older requester "wounds" (aborts) its younger
//!   blockers and then waits; a younger requester simply waits;
//! * **timeout-only**: the requester waits and giving up is the only
//!   deadlock resolution mechanism.
//!
//! # Sharding
//!
//! The lock table is split into [`LockManager::shard_count`] independently
//! locked shards keyed by the item's interned hash ([`ItemId::token`]), so
//! concurrent transactions touching different items proceed without
//! contending on one global mutex. Per-item state (holders, waiters) lives
//! entirely inside one shard; cross-item state is factored out:
//!
//! * **per-transaction bookkeeping** (timestamp, items held, items queued
//!   for) is sharded by transaction;
//! * **wounded** flags sit behind their own `RwLock`;
//! * the **wait-for graph** has a dedicated mutex, and edge insertion plus
//!   cycle detection happen atomically under it, so deadlock detection
//!   always sees a consistent snapshot of the whole graph even though the
//!   item shards move independently.
//!
//! Lock order is strictly `shard → auxiliary`, and no auxiliary lock is ever
//! held while taking a shard lock, so the layers cannot deadlock each other.

use parking_lot::{Mutex, RwLock};
use rainbow_common::protocol::DeadlockPolicy;
use rainbow_common::{FxHashMap, FxHashSet, ItemId, Timestamp, TxnId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Lock modes on an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) lock; compatible with other shared locks.
    Shared,
    /// Exclusive (write) lock; incompatible with everything.
    Exclusive,
}

impl LockMode {
    /// Whether a holder in `self` mode allows another transaction to acquire
    /// `other`.
    pub fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }
}

/// What [`LockManager::acquire`] answered when it did not refuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquired {
    /// The lock is held.
    Granted,
    /// The request waits in the item's queue: ask again after something was
    /// released, or [`LockManager::give_up`].
    Queued,
}

/// Why a lock request was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// The request would deadlock (wait-for-graph cycle, or wait-die
    /// ordering said the requester must abort).
    Deadlock,
    /// The transaction was wounded by an older transaction (wound-wait) and
    /// must abort.
    Wounded,
}

#[derive(Debug, Default)]
struct ItemLockState {
    /// Current holders. Invariant: either any number of `Shared` holders or
    /// exactly one `Exclusive` holder.
    holders: Vec<(TxnId, LockMode)>,
    /// Requests told to wait, in arrival order, each with the mode it asked
    /// for. A transaction that holds nothing on the item is not granted
    /// while somebody is queued ahead of it. (A releasing transaction's next
    /// request reaches the lock table before the waiters have asked again;
    /// granted on the spot it would win every time and starve them.)
    waiters: VecDeque<(TxnId, LockMode)>,
}

impl ItemLockState {
    fn is_idle(&self) -> bool {
        self.holders.is_empty() && self.waiters.is_empty()
    }

    fn held_mode(&self, txn: TxnId) -> Option<LockMode> {
        self.holders
            .iter()
            .find(|(holder, _)| *holder == txn)
            .map(|(_, mode)| *mode)
    }

    /// The transactions queued ahead of `txn`: everybody in front of its
    /// place in the queue, or the whole queue when it has no place yet.
    fn queued_ahead(&self, txn: TxnId) -> impl Iterator<Item = TxnId> + '_ {
        self.waiters
            .iter()
            .map(|(waiter, _)| *waiter)
            .take_while(move |waiter| *waiter != txn)
    }
}

/// How many idle per-item entries a shard caches before sweeping them.
/// Idle entries keep their allocations so steady-state acquire/release
/// cycles on a working set are allocation-free, while the sweep bounds the
/// table so it does not grow monotonically with every item ever touched.
const IDLE_SWEEP_THRESHOLD: usize = 512;

/// One independently locked slice of the lock table.
#[derive(Debug, Default)]
struct ShardTable {
    items: FxHashMap<ItemId, ItemLockState>,
    /// Entries currently idle (no holders, no waiters), kept for reuse
    /// until [`IDLE_SWEEP_THRESHOLD`] triggers a sweep.
    idle_entries: usize,
}

/// Outcome of a grant attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GrantOutcome {
    Granted {
        /// The transaction newly appears in the holder list (as opposed to
        /// a re-acquisition or upgrade).
        newly_held: bool,
        /// The request had been waiting in the queue, which it has left.
        was_queued: bool,
    },
    /// Incompatible with current holders, or somebody is queued ahead.
    Refused,
}

impl ShardTable {
    /// Grants `mode` on `item` to `txn` when compatible (including
    /// re-acquisition and sole-holder upgrades) and nobody is queued ahead
    /// of it, in a single map probe.
    fn try_grant(&mut self, item: &ItemId, txn: TxnId, mode: LockMode) -> GrantOutcome {
        let state = match self.items.entry(item.clone()) {
            std::collections::hash_map::Entry::Occupied(entry) => {
                let state = entry.into_mut();
                // A cached idle entry is about to become live again (an
                // idle entry has no holders, so the grant below succeeds).
                if state.is_idle() {
                    self.idle_entries -= 1;
                }
                state
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(ItemLockState::default())
            }
        };
        let held_mode = state.held_mode(txn);
        let can_grant = match (held_mode, mode) {
            // Already holds an equal or stronger lock.
            (Some(LockMode::Exclusive), _) | (Some(LockMode::Shared), LockMode::Shared) => true,
            // Upgrade: allowed only when it is the sole holder. (A holder
            // re-asking is not overtaking anybody.)
            (Some(LockMode::Shared), LockMode::Exclusive) => state.holders.len() == 1,
            // New request: must be compatible with every holder, and wait
            // its turn behind whoever is queued ahead of it.
            (None, requested) => {
                state.queued_ahead(txn).next().is_none()
                    && state
                        .holders
                        .iter()
                        .all(|(_, held)| held.compatible(requested))
            }
        };
        if !can_grant {
            // The entry is never empty here: a refusal implies other
            // holders or waiters exist, so the probe did not create it.
            return GrantOutcome::Refused;
        }
        let queue_place = state.waiters.iter().position(|(waiter, _)| *waiter == txn);
        if let Some(place) = queue_place {
            state.waiters.remove(place);
        }
        match state.holders.iter_mut().find(|(holder, _)| *holder == txn) {
            Some(entry) => {
                // Upgrade shared → exclusive if requested.
                if mode == LockMode::Exclusive {
                    entry.1 = LockMode::Exclusive;
                }
            }
            None => state.holders.push((txn, mode)),
        }
        GrantOutcome::Granted {
            newly_held: held_mode.is_none(),
            was_queued: queue_place.is_some(),
        }
    }

    /// The transactions `txn` requesting `mode` on `item` has to wait for:
    /// the holders whose locks conflict with it, then — unless it holds the
    /// item itself — everybody queued ahead of it.
    fn blockers(&self, item: &ItemId, txn: TxnId, mode: LockMode) -> Vec<TxnId> {
        let Some(state) = self.items.get(item) else {
            return Vec::new();
        };
        let mut blockers: Vec<TxnId> = state
            .holders
            .iter()
            .filter(|(holder, held)| *holder != txn && !held.compatible(mode))
            .map(|(holder, _)| *holder)
            .collect();
        if state.held_mode(txn).is_none() {
            blockers.extend(state.queued_ahead(txn));
        }
        blockers
    }

    /// Gives `txn` a place at the back of `item`'s queue unless it has one;
    /// true when it is new.
    fn enqueue(&mut self, item: &ItemId, txn: TxnId, mode: LockMode) -> bool {
        let state = self.items.entry(item.clone()).or_default();
        let new = !state.waiters.iter().any(|(waiter, _)| *waiter == txn);
        if new {
            state.waiters.push_back((txn, mode));
        }
        new
    }

    /// Removes `txn` from the queue of `item` and returns the mode it was
    /// waiting for, marking the entry idle when removing the last waiter
    /// leaves neither holders nor waiters. The idle transition only happens
    /// when a waiter was actually removed — otherwise an already-idle cached
    /// entry would be counted twice and corrupt the idle-entry accounting.
    fn remove_waiter(&mut self, item: &ItemId, txn: TxnId) -> Option<LockMode> {
        let state = self.items.get_mut(item)?;
        let place = state
            .waiters
            .iter()
            .position(|(waiter, _)| *waiter == txn)?;
        let (_, mode) = state.waiters.remove(place)?;
        if state.is_idle() {
            self.idle_entries += 1;
            self.maybe_sweep();
        }
        Some(mode)
    }

    /// Sweeps cached idle entries once too many accumulate, bounding the
    /// table's footprint without paying an allocation + deallocation on
    /// every routine acquire/release cycle.
    fn maybe_sweep(&mut self) {
        if self.idle_entries > IDLE_SWEEP_THRESHOLD {
            self.items.retain(|_, state| !state.is_idle());
            self.idle_entries = 0;
        }
    }

    /// Per-item entries currently live (holding locks or queueing waiters).
    fn live_entries(&self) -> usize {
        self.items.len() - self.idle_entries
    }
}

/// Cross-shard wait-for graph, guarded by one mutex so that edge insertion
/// and cycle detection are atomic: detection always sees a consistent
/// snapshot even while the item shards move concurrently.
#[derive(Debug, Default)]
struct WaitGraph {
    /// Waiter → set of holders it waits for.
    edges: FxHashMap<TxnId, FxHashSet<TxnId>>,
}

impl WaitGraph {
    /// Depth-first search for a cycle through `start`.
    fn creates_cycle(&self, start: TxnId) -> bool {
        let mut stack: Vec<TxnId> = self
            .edges
            .get(&start)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        let mut visited: FxHashSet<TxnId> = FxHashSet::default();
        while let Some(node) = stack.pop() {
            if node == start {
                return true;
            }
            if !visited.insert(node) {
                continue;
            }
            if let Some(next) = self.edges.get(&node) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }
}

/// Counters exposed for the concurrency-control ablation experiments.
#[derive(Debug, Default)]
pub struct LockStats {
    grants: AtomicU64,
    waits: AtomicU64,
    deadlock_aborts: AtomicU64,
    wounds: AtomicU64,
    timeouts: AtomicU64,
}

impl LockStats {
    /// Locks granted (including re-grants and upgrades).
    pub fn grants(&self) -> u64 {
        self.grants.load(Ordering::Relaxed)
    }
    /// Requests that were told to wait (counted once, when queued).
    pub fn waits(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
    }
    /// Requests aborted for deadlock avoidance/detection (wait-die "die",
    /// wait-for-graph victim).
    pub fn deadlock_aborts(&self) -> u64 {
        self.deadlock_aborts.load(Ordering::Relaxed)
    }
    /// Holders wounded by older requesters (wound-wait).
    pub fn wounds(&self) -> u64 {
        self.wounds.load(Ordering::Relaxed)
    }
    /// Queued requests whose caller gave up waiting.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }
}

/// Default number of lock-table shards (the "shard count knob"; see
/// [`LockManager::with_shards`]).
pub const DEFAULT_LOCK_SHARDS: usize = 16;

/// Number of per-transaction metadata shards (keyed by transaction hash, so
/// concurrent transactions do not serialize on one bookkeeping mutex).
const TXN_META_SHARDS: usize = 16;

/// Per-transaction bookkeeping: its timestamp (wait-die / wound-wait
/// ordering) and the exact items it holds locks on or is queued for, so
/// release walks only the shards that actually have something of it.
/// Written inside the critical section of the shard that granted or queued
/// the request, which keeps it consistent with the holder and waiter lists.
#[derive(Debug, Clone, Default)]
struct TxnMeta {
    ts: Timestamp,
    held: Vec<ItemId>,
    queued: Vec<ItemId>,
}

/// The lock manager of one site.
pub struct LockManager {
    policy: DeadlockPolicy,
    timeout: Duration,
    shards: Box<[Mutex<ShardTable>]>,
    /// Per-transaction metadata, sharded by transaction hash.
    txn_meta: Box<[Mutex<FxHashMap<TxnId, TxnMeta>>]>,
    /// Transactions wounded by an older requester; they must abort. Only
    /// ever populated under the wound-wait policy, so the other policies
    /// never touch this lock on their fast path.
    wounded: RwLock<FxHashSet<TxnId>>,
    /// The cross-shard wait-for graph (used by `WaitForGraph` only).
    wait_graph: Mutex<WaitGraph>,
    stats: LockStats,
}

impl LockManager {
    /// Creates a lock manager with the given deadlock policy, wait timeout
    /// and the default shard count.
    pub fn new(policy: DeadlockPolicy, timeout: Duration) -> Self {
        Self::with_shards(policy, timeout, DEFAULT_LOCK_SHARDS)
    }

    /// Creates a lock manager with an explicit shard count (rounded up to at
    /// least 1). More shards reduce contention between transactions touching
    /// different items; one shard reproduces the classic single-mutex table.
    pub fn with_shards(policy: DeadlockPolicy, timeout: Duration, shards: usize) -> Self {
        let count = shards.max(1);
        LockManager {
            policy,
            timeout,
            shards: (0..count).map(|_| Mutex::default()).collect(),
            txn_meta: (0..TXN_META_SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            wounded: RwLock::new(FxHashSet::default()),
            wait_graph: Mutex::new(WaitGraph::default()),
            stats: LockStats::default(),
        }
    }

    /// The configured deadlock policy.
    pub fn policy(&self) -> DeadlockPolicy {
        self.policy
    }

    /// How long a queued request is worth asking again for before its
    /// caller should [`LockManager::give_up`].
    pub fn wait_timeout(&self) -> Duration {
        self.timeout
    }

    /// Number of independently locked shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The lock statistics.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// The shard index an item belongs to, chosen by the item's interned
    /// hash (deterministic across runs).
    fn shard_index(&self, item: &ItemId) -> usize {
        (item.token() as usize) % self.shards.len()
    }

    /// The metadata shard of a transaction.
    fn meta_shard(&self, txn: TxnId) -> &Mutex<FxHashMap<TxnId, TxnMeta>> {
        let key = txn.home.index() as u64 ^ txn.seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.txn_meta[(key as usize) % TXN_META_SHARDS]
    }

    /// Looks up the recorded timestamp of a transaction.
    fn timestamp_of(&self, txn: TxnId) -> Option<Timestamp> {
        self.meta_shard(txn).lock().get(&txn).map(|meta| meta.ts)
    }

    /// Updates the bookkeeping of `txn` (timestamp `ts`) for a lock it was
    /// granted or a queue it joined, creating it when this is the first
    /// thing the manager remembers of the transaction. Called with the shard
    /// of the item concerned locked; metadata always nests inside shard
    /// locks, never the reverse, so a racing `release_all` either sees the
    /// change in the metadata or it happens after its shard pass and
    /// re-creates the entry for the next release.
    fn note(&self, txn: TxnId, ts: Timestamp, update: impl FnOnce(&mut TxnMeta)) {
        let mut shard = self.meta_shard(txn).lock();
        update(shard.entry(txn).or_insert_with(|| TxnMeta {
            ts,
            ..TxnMeta::default()
        }));
    }

    /// Whether the transaction has been wounded and must abort. (Only
    /// wound-wait ever populates the set; the other policies do not look.)
    pub fn is_wounded(&self, txn: TxnId) -> bool {
        self.policy == DeadlockPolicy::WoundWait && self.wounded.read().contains(&txn)
    }

    /// Drops the wait-for edges of `txn`.
    fn clear_wait_edges(&self, txn: TxnId) {
        if self.policy == DeadlockPolicy::WaitForGraph {
            self.wait_graph.lock().edges.remove(&txn);
        }
    }

    /// Grants `mode` on `item` to `txn` right now if it is compatible with
    /// the current holders and overtakes nobody, with the bookkeeping of a
    /// grant. Called with the item's shard locked.
    fn grant_now(
        &self,
        table: &mut ShardTable,
        txn: TxnId,
        ts: Timestamp,
        item: &ItemId,
        mode: LockMode,
    ) -> bool {
        let GrantOutcome::Granted {
            newly_held,
            was_queued,
        } = table.try_grant(item, txn, mode)
        else {
            return false;
        };
        // Record the grant while still inside the shard critical section,
        // so it is visible to the next `release_all` even if a racing
        // release already ran.
        if newly_held || was_queued {
            self.note(txn, ts, |meta| {
                if was_queued {
                    meta.queued.retain(|queued| queued != item);
                }
                if newly_held {
                    meta.held.push(item.clone());
                }
            });
        }
        if was_queued {
            self.clear_wait_edges(txn);
        }
        self.stats.grants.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Ends the wait of `txn` for `item`: its wait-for edges go, and so does
    /// its place in the queue when it has one — whose mode is returned —
    /// together with the bookkeeping of a transaction that neither holds
    /// nor waits for anything else. Called with the item's shard locked.
    fn leave_queue(&self, table: &mut ShardTable, txn: TxnId, item: &ItemId) -> Option<LockMode> {
        self.clear_wait_edges(txn);
        let mode = table.remove_waiter(item, txn)?;
        let mut shard = self.meta_shard(txn).lock();
        if let Some(meta) = shard.get_mut(&txn) {
            meta.queued.retain(|queued| queued != item);
            if meta.held.is_empty() && meta.queued.is_empty() {
                shard.remove(&txn);
            }
        }
        Some(mode)
    }

    /// Asks for `mode` on `item` for `txn` (timestamp `ts`) without ever
    /// blocking: the lock is granted, or the deadlock policy is run against
    /// the request's blockers and the request is refused or queued. A
    /// caller told [`Acquired::Queued`] repeats the call after something
    /// was released — repeating it with nothing released changes nothing —
    /// until it is granted, refused, or the caller calls
    /// [`LockManager::give_up`].
    pub fn acquire(
        &self,
        txn: TxnId,
        ts: Timestamp,
        item: &ItemId,
        mode: LockMode,
    ) -> Result<Acquired, LockError> {
        let mut table = self.shards[self.shard_index(item)].lock();
        if self.is_wounded(txn) {
            self.leave_queue(&mut table, txn, item);
            return Err(LockError::Wounded);
        }
        if self.grant_now(&mut table, txn, ts, item, mode) {
            return Ok(Acquired::Granted);
        }

        // Apply the deadlock policy before waiting. Auxiliary locks
        // (timestamps / wounded / wait graph) nest *inside* the shard lock,
        // never the other way around.
        let blockers = table.blockers(item, txn, mode);
        let deadlock = match self.policy {
            // The requester may only wait for *younger* transactions (i.e.
            // the requester must be the oldest). Otherwise it dies.
            DeadlockPolicy::WaitDie => blockers.iter().any(|blocker| {
                self.timestamp_of(*blocker)
                    .is_some_and(|blocker_ts| blocker_ts < ts)
            }),
            DeadlockPolicy::WoundWait => {
                // An older requester wounds every younger blocker, which
                // discovers its fate on its next CCP call; a younger
                // requester just waits.
                for blocker in &blockers {
                    let younger = self
                        .timestamp_of(*blocker)
                        .map(|blocker_ts| blocker_ts > ts)
                        .unwrap_or(true);
                    if younger && self.wounded.write().insert(*blocker) {
                        self.stats.wounds.fetch_add(1, Ordering::Relaxed);
                    }
                }
                false
            }
            DeadlockPolicy::WaitForGraph => {
                // Insert this waiter's edges and run cycle detection in
                // one critical section: the check sees a consistent
                // global graph regardless of shard concurrency.
                let mut graph = self.wait_graph.lock();
                graph.edges.insert(txn, blockers.iter().copied().collect());
                graph.creates_cycle(txn)
            }
            DeadlockPolicy::TimeoutOnly => false,
        };
        if deadlock {
            self.leave_queue(&mut table, txn, item);
            self.stats.deadlock_aborts.fetch_add(1, Ordering::Relaxed);
            return Err(LockError::Deadlock);
        }
        if table.enqueue(item, txn, mode) {
            self.note(txn, ts, |meta| meta.queued.push(item.clone()));
            self.stats.waits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Acquired::Queued)
    }

    /// The caller of a queued request stops asking: `txn` loses its place
    /// in `item`'s queue. Returns the first transaction it was waiting for
    /// — a holder whose lock conflicts with the request when there is one —
    /// or `None` when the request was not queued.
    pub fn give_up(&self, txn: TxnId, item: &ItemId) -> Option<TxnId> {
        let mut table = self.shards[self.shard_index(item)].lock();
        let mode = self.leave_queue(&mut table, txn, item)?;
        self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
        table.blockers(item, txn, mode).first().copied()
    }

    /// Releases every lock held by `txn` (strict 2PL: called at commit or
    /// abort), takes it out of every queue it waits in — a transaction that
    /// is gone must never head a queue — and clears its wounded flag and
    /// bookkeeping. Only the shards of items the transaction actually holds
    /// or is queued for are visited (tracked in the per-transaction
    /// metadata).
    pub fn release_all(&self, txn: TxnId) {
        // Unknown transaction (released twice, or never granted or queued
        // anything): nothing of it can be anywhere.
        let meta = self.meta_shard(txn).lock().remove(&txn).unwrap_or_default();
        for item in &meta.held {
            let mut table = self.shards[self.shard_index(item)].lock();
            if let Some(state) = table.items.get_mut(item) {
                // Index-based removal instead of an O(n) retain scan; a
                // transaction appears at most once per holder list.
                if let Some(pos) = state.holders.iter().position(|(holder, _)| *holder == txn) {
                    state.holders.swap_remove(pos);
                }
                if state.is_idle() {
                    table.idle_entries += 1;
                    table.maybe_sweep();
                }
            }
        }
        for item in &meta.queued {
            self.shards[self.shard_index(item)]
                .lock()
                .remove_waiter(item, txn);
        }
        if self.policy == DeadlockPolicy::WoundWait {
            self.wounded.write().remove(&txn);
        }
        if self.policy == DeadlockPolicy::WaitForGraph {
            let mut graph = self.wait_graph.lock();
            graph.edges.remove(&txn);
            // Remove txn from any other wait-for edge sets.
            for edges in graph.edges.values_mut() {
                edges.remove(&txn);
            }
        }
    }

    /// Locks currently held by `txn` (for tests and diagnostics).
    pub fn held_by(&self, txn: TxnId) -> Vec<ItemId> {
        self.meta_shard(txn)
            .lock()
            .get(&txn)
            .map(|meta| meta.held.clone())
            .unwrap_or_default()
    }

    /// Number of transactions currently holding a lock or queued for one.
    pub fn active_transactions(&self) -> usize {
        self.txn_meta.iter().map(|shard| shard.lock().len()).sum()
    }

    /// Total number of *live* per-item entries (holding locks or queueing
    /// waiters) across all shards. Idle entries are cached for reuse up to
    /// a bounded threshold and periodically swept, so the table's footprint
    /// does not grow monotonically with every item ever touched.
    pub fn item_entries(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().live_entries())
            .sum()
    }
}

#[cfg(test)]
impl LockManager {
    /// Everything the manager remembers — holders, waiters, per-transaction
    /// bookkeeping, wounds, wait-for edges and statistics — in a canonical
    /// order, so tests can compare two managers (or one before and after).
    pub(crate) fn fingerprint(&self) -> String {
        use crate::non_waiting_tests::canonical;
        let debug = |txn: &TxnId| format!("{txn:?}");
        let mut items = Vec::new();
        for shard in self.shards.iter() {
            for (item, state) in &shard.lock().items {
                // Cached idle entries are an allocation, not a memory.
                if !state.is_idle() {
                    let holders = canonical(state.holders.iter().map(|h| format!("{h:?}")));
                    items.push(format!("{item}: [{holders}] waiting {:?}", state.waiters));
                }
            }
        }
        let mut meta = Vec::new();
        for shard in self.txn_meta.iter() {
            for (txn, entry) in shard.lock().iter() {
                let held = canonical(entry.held.iter().map(|item| item.to_string()));
                let queued = canonical(entry.queued.iter().map(|item| item.to_string()));
                meta.push(format!(
                    "{txn:?} at {:?} holds [{held}] queued for [{queued}]",
                    entry.ts
                ));
            }
        }
        let edges = canonical(
            self.wait_graph
                .lock()
                .edges
                .iter()
                .map(|(from, to)| format!("{from:?}->[{}]", canonical(to.iter().map(debug)))),
        );
        format!(
            "items {}\nmeta {}\nwounded {}\nedges {edges}\nstats {:?}",
            canonical(items),
            canonical(meta),
            canonical(self.wounded.read().iter().map(debug)),
            self.stats
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbow_common::SiteId;
    use Acquired::{Granted, Queued};
    use LockMode::{Exclusive, Shared};

    fn txn(seq: u64) -> TxnId {
        TxnId::new(SiteId(0), seq)
    }

    fn ts(counter: u64) -> Timestamp {
        Timestamp::new(counter, 0)
    }

    fn item(name: &str) -> ItemId {
        ItemId::new(name)
    }

    fn manager(policy: DeadlockPolicy) -> LockManager {
        LockManager::new(policy, Duration::from_millis(100))
    }

    /// Transaction `n` (timestamp `n`) asks for `mode` on `name`.
    fn ask(lm: &LockManager, n: u64, name: &str, mode: LockMode) -> Result<Acquired, LockError> {
        lm.acquire(txn(n), ts(n), &item(name), mode)
    }

    /// The queue of `name`, front first.
    fn queue(lm: &LockManager, name: &str) -> Vec<TxnId> {
        let table = lm.shards[lm.shard_index(&item(name))].lock();
        let state = table.items.get(&item(name));
        state.map_or(Vec::new(), |state| state.queued_ahead(txn(0)).collect())
    }

    #[test]
    fn shared_locks_are_compatible() {
        let lm = manager(DeadlockPolicy::WaitForGraph);
        assert_eq!(ask(&lm, 1, "x", Shared), Ok(Granted));
        assert_eq!(ask(&lm, 2, "x", Shared), Ok(Granted));
        assert_eq!(lm.active_transactions(), 2);
        assert_eq!(lm.stats().grants(), 2);
        assert_eq!(lm.stats().waits(), 0);
    }

    #[test]
    fn exclusive_conflicts_block_until_release() {
        let lm = manager(DeadlockPolicy::TimeoutOnly);
        assert_eq!(ask(&lm, 1, "x", Exclusive), Ok(Granted));
        assert_eq!(ask(&lm, 2, "x", Shared), Ok(Queued));
        assert_eq!(queue(&lm, "x"), [txn(2)]);
        lm.release_all(txn(1));
        assert_eq!(ask(&lm, 2, "x", Shared), Ok(Granted));
        assert!(lm.held_by(txn(2)).contains(&item("x")));
        assert!(queue(&lm, "x").is_empty());
        assert_eq!(lm.stats().waits(), 1);
    }

    #[test]
    fn conflicting_request_times_out() {
        let lm = manager(DeadlockPolicy::TimeoutOnly);
        assert_eq!(lm.wait_timeout(), Duration::from_millis(100));
        assert_eq!(ask(&lm, 1, "x", Exclusive), Ok(Granted));
        assert_eq!(ask(&lm, 2, "x", Exclusive), Ok(Queued));
        // Its caller waited long enough: the request is forgotten, and the
        // caller learns who stood in its way.
        assert_eq!(lm.give_up(txn(2), &item("x")), Some(txn(1)));
        assert_eq!(lm.stats().timeouts(), 1);
        assert!(queue(&lm, "x").is_empty());
        assert_eq!(lm.active_transactions(), 1);
        // Giving up what is not queued is a no-op.
        assert_eq!(lm.give_up(txn(2), &item("x")), None);
        assert_eq!(lm.stats().timeouts(), 1);
    }

    #[test]
    fn reacquisition_and_upgrade() {
        let lm = manager(DeadlockPolicy::WaitForGraph);
        assert_eq!(ask(&lm, 1, "x", Shared), Ok(Granted));
        // Re-acquiring the same or weaker lock is a no-op.
        assert_eq!(ask(&lm, 1, "x", Shared), Ok(Granted));
        // Upgrade succeeds because t is the sole holder.
        assert_eq!(ask(&lm, 1, "x", Exclusive), Ok(Granted));
        // Exclusive holder can "downgrade-request" shared: still granted.
        assert_eq!(ask(&lm, 1, "x", Shared), Ok(Granted));
        assert_eq!(lm.held_by(txn(1)), vec![item("x")]);

        // Another reader cannot get in now.
        assert_eq!(ask(&lm, 2, "x", Shared), Ok(Queued));
    }

    #[test]
    fn upgrade_blocked_by_other_readers_times_out() {
        let lm = manager(DeadlockPolicy::TimeoutOnly);
        assert_eq!(ask(&lm, 1, "x", Shared), Ok(Granted));
        assert_eq!(ask(&lm, 2, "x", Shared), Ok(Granted));
        assert_eq!(ask(&lm, 1, "x", Exclusive), Ok(Queued));
        assert_eq!(lm.give_up(txn(1), &item("x")), Some(txn(2)));
        // It still holds what it held.
        assert_eq!(lm.held_by(txn(1)), vec![item("x")]);
    }

    #[test]
    fn an_upgrade_does_not_wait_for_the_queue_behind_its_own_lock() {
        let lm = manager(DeadlockPolicy::WaitForGraph);
        assert_eq!(ask(&lm, 1, "x", Shared), Ok(Granted));
        assert_eq!(ask(&lm, 2, "x", Shared), Ok(Granted));
        assert_eq!(ask(&lm, 3, "x", Exclusive), Ok(Queued));
        // T1 waits for T2 alone — not for T3, which waits for T1: counting
        // the queue would make a deadlock of this.
        assert_eq!(ask(&lm, 1, "x", Exclusive), Ok(Queued));
        lm.release_all(txn(2));
        assert_eq!(ask(&lm, 3, "x", Exclusive), Ok(Queued));
        assert_eq!(ask(&lm, 1, "x", Exclusive), Ok(Granted));
        assert_eq!(lm.stats().deadlock_aborts(), 0);
    }

    #[test]
    fn wait_for_graph_detects_two_party_deadlock() {
        let lm = manager(DeadlockPolicy::WaitForGraph);
        // T1 holds x, T2 holds y.
        assert_eq!(ask(&lm, 1, "x", Exclusive), Ok(Granted));
        assert_eq!(ask(&lm, 2, "y", Exclusive), Ok(Granted));
        // T1 waits for y.
        assert_eq!(ask(&lm, 1, "y", Exclusive), Ok(Queued));
        // T2 requests x: the wait-for graph now has a cycle, T2 is the victim.
        assert_eq!(ask(&lm, 2, "x", Exclusive), Err(LockError::Deadlock));
        assert_eq!(lm.stats().deadlock_aborts(), 1);
        assert!(queue(&lm, "x").is_empty(), "a victim does not queue");

        // Victim aborts, releasing y; T1's wait completes.
        lm.release_all(txn(2));
        assert_eq!(ask(&lm, 1, "y", Exclusive), Ok(Granted));
    }

    #[test]
    fn a_deadlock_through_the_queue_is_detected() {
        let lm = manager(DeadlockPolicy::WaitForGraph);
        assert_eq!(ask(&lm, 1, "x", Shared), Ok(Granted));
        assert_eq!(ask(&lm, 3, "y", Exclusive), Ok(Granted));
        assert_eq!(ask(&lm, 2, "x", Exclusive), Ok(Queued));
        // T3 conflicts with no holder of x, it waits for T2's turn …
        assert_eq!(ask(&lm, 3, "x", Shared), Ok(Queued));
        // … so T2 → T1 → T3 → T2 once T1 wants y.
        assert_eq!(ask(&lm, 1, "y", Shared), Err(LockError::Deadlock));
    }

    #[test]
    fn wait_die_aborts_younger_requesters() {
        let lm = manager(DeadlockPolicy::WaitDie);
        // Older transaction (smaller ts) holds the lock.
        assert_eq!(ask(&lm, 1, "x", Exclusive), Ok(Granted));
        // Younger requester dies immediately.
        assert_eq!(ask(&lm, 5, "x", Exclusive), Err(LockError::Deadlock));
        assert_eq!(lm.stats().deadlock_aborts(), 1);
        assert_eq!(lm.active_transactions(), 1, "the dead leave no trace");
    }

    #[test]
    fn wait_die_lets_older_requesters_wait() {
        let lm = manager(DeadlockPolicy::WaitDie);
        // Younger transaction holds the lock.
        assert_eq!(ask(&lm, 5, "x", Exclusive), Ok(Granted));
        assert_eq!(ask(&lm, 1, "x", Exclusive), Ok(Queued));
        // Queued behind an older transaction is waiting for it too.
        assert_eq!(ask(&lm, 3, "x", Exclusive), Err(LockError::Deadlock));
        lm.release_all(txn(5));
        assert_eq!(ask(&lm, 1, "x", Exclusive), Ok(Granted));
    }

    #[test]
    fn wound_wait_wounds_younger_holders() {
        let lm = manager(DeadlockPolicy::WoundWait);
        // Younger transaction holds the lock.
        assert_eq!(ask(&lm, 5, "x", Exclusive), Ok(Granted));
        // Older requester wounds it and waits.
        assert_eq!(ask(&lm, 1, "x", Exclusive), Ok(Queued));
        assert!(lm.is_wounded(txn(5)), "younger holder must be wounded");
        assert_eq!(lm.stats().wounds(), 1);
        // The wounded holder aborts and releases; the older requester gets the lock.
        lm.release_all(txn(5));
        assert_eq!(ask(&lm, 1, "x", Exclusive), Ok(Granted));
        // After release_all the wounded flag is cleared for reuse of the id.
        assert!(!lm.is_wounded(txn(5)));
    }

    #[test]
    fn wound_wait_younger_requester_waits_without_wounding() {
        let lm = manager(DeadlockPolicy::WoundWait);
        assert_eq!(ask(&lm, 1, "x", Exclusive), Ok(Granted));
        // Younger requester: no wound, just a wait.
        assert_eq!(ask(&lm, 5, "x", Exclusive), Ok(Queued));
        assert!(!lm.is_wounded(txn(1)));
        assert_eq!(lm.stats().wounds(), 0);
    }

    #[test]
    fn wounded_transaction_is_rejected_on_next_acquire() {
        let lm = manager(DeadlockPolicy::WoundWait);
        assert_eq!(ask(&lm, 5, "x", Exclusive), Ok(Granted));
        assert_eq!(ask(&lm, 1, "x", Exclusive), Ok(Queued));
        // The wounded transaction tries to lock something else: rejected.
        assert_eq!(ask(&lm, 5, "y", Shared), Err(LockError::Wounded));
        lm.release_all(txn(5));
        assert_eq!(ask(&lm, 1, "x", Exclusive), Ok(Granted));
    }

    #[test]
    fn a_wounded_waiter_is_rejected_the_next_time_it_asks() {
        let lm = manager(DeadlockPolicy::WoundWait);
        assert_eq!(ask(&lm, 1, "x", Exclusive), Ok(Granted));
        assert_eq!(ask(&lm, 5, "x", Exclusive), Ok(Queued));
        // An older transaction arrives behind the younger waiter and wounds
        // it (and not the holder, which is older still).
        assert_eq!(ask(&lm, 3, "x", Exclusive), Ok(Queued));
        assert!(lm.is_wounded(txn(5)) && !lm.is_wounded(txn(1)));
        assert_eq!(ask(&lm, 5, "x", Exclusive), Err(LockError::Wounded));
        assert_eq!(queue(&lm, "x"), [txn(3)]);
    }

    #[test]
    fn waiters_are_granted_in_arrival_order_and_a_newcomer_does_not_pass_them() {
        let lm = manager(DeadlockPolicy::WaitForGraph);
        assert_eq!(ask(&lm, 1, "x", Exclusive), Ok(Granted));
        assert_eq!(ask(&lm, 2, "x", Exclusive), Ok(Queued));
        assert_eq!(ask(&lm, 3, "x", Exclusive), Ok(Queued));
        assert_eq!(queue(&lm, "x"), [txn(2), txn(3)]);
        // The releaser's next transaction reaches the free lock before the
        // waiters have asked again: it joins the queue, at the back.
        lm.release_all(txn(1));
        assert_eq!(ask(&lm, 4, "x", Exclusive), Ok(Queued));
        // Nor does a waiter pass the ones ahead of it …
        assert_eq!(ask(&lm, 3, "x", Exclusive), Ok(Queued));
        // … but being queued behind somebody does not stop the head.
        assert_eq!(ask(&lm, 2, "x", Exclusive), Ok(Granted));
        // A holder re-asking is not overtaking anybody.
        assert_eq!(ask(&lm, 2, "x", Exclusive), Ok(Granted));
        lm.release_all(txn(2));
        assert_eq!(ask(&lm, 4, "x", Exclusive), Ok(Queued));
        assert_eq!(ask(&lm, 3, "x", Exclusive), Ok(Granted));
        lm.release_all(txn(3));
        assert_eq!(ask(&lm, 4, "x", Exclusive), Ok(Granted));
    }

    #[test]
    fn release_all_clears_bookkeeping() {
        let lm = manager(DeadlockPolicy::WaitForGraph);
        assert_eq!(ask(&lm, 1, "x", Exclusive), Ok(Granted));
        assert_eq!(ask(&lm, 1, "y", Shared), Ok(Granted));
        assert_eq!(lm.held_by(txn(1)).len(), 2);
        lm.release_all(txn(1));
        assert!(lm.held_by(txn(1)).is_empty());
        assert_eq!(lm.active_transactions(), 0);
        // Releasing again is harmless.
        lm.release_all(txn(1));
    }

    #[test]
    fn release_all_takes_the_transaction_out_of_every_queue() {
        let lm = manager(DeadlockPolicy::WaitForGraph);
        assert_eq!(ask(&lm, 1, "x", Exclusive), Ok(Granted));
        assert_eq!(ask(&lm, 1, "y", Exclusive), Ok(Granted));
        assert_eq!(ask(&lm, 2, "x", Shared), Ok(Queued));
        assert_eq!(ask(&lm, 2, "y", Shared), Ok(Queued));
        assert_eq!(ask(&lm, 3, "x", Shared), Ok(Queued));
        // T2 is aborted while it waits: it must not head x's queue as a
        // ghost nobody asks for again.
        lm.release_all(txn(2));
        assert_eq!(queue(&lm, "x"), [txn(3)]);
        assert!(queue(&lm, "y").is_empty());
        lm.release_all(txn(1));
        assert_eq!(ask(&lm, 3, "x", Shared), Ok(Granted));
        lm.release_all(txn(3));
        assert_eq!((lm.active_transactions(), lm.item_entries()), (0, 0));
    }

    #[test]
    fn three_way_deadlock_is_broken() {
        let lm = manager(DeadlockPolicy::WaitForGraph);
        assert_eq!(ask(&lm, 1, "a", Exclusive), Ok(Granted));
        assert_eq!(ask(&lm, 2, "b", Exclusive), Ok(Granted));
        assert_eq!(ask(&lm, 3, "c", Exclusive), Ok(Granted));
        assert_eq!(ask(&lm, 1, "b", Exclusive), Ok(Queued));
        assert_eq!(ask(&lm, 2, "c", Exclusive), Ok(Queued));
        // Closing the cycle: T3 -> a (held by T1). T3 must be chosen as victim.
        assert_eq!(ask(&lm, 3, "a", Exclusive), Err(LockError::Deadlock));
        lm.release_all(txn(3));
        // T2 can now proceed, then T1.
        assert_eq!(ask(&lm, 2, "c", Exclusive), Ok(Granted));
        lm.release_all(txn(2));
        assert_eq!(ask(&lm, 1, "b", Exclusive), Ok(Granted));
    }

    #[test]
    fn lock_mode_compatibility_matrix() {
        assert!(Shared.compatible(Shared));
        assert!(!Shared.compatible(Exclusive));
        assert!(!Exclusive.compatible(Shared));
        assert!(!Exclusive.compatible(Exclusive));
    }
}
