//! The strict two-phase-locking lock manager.
//!
//! One [`LockManager`] guards the local copies of one Rainbow site. It
//! implements shared/exclusive item locks with upgrades, bounded waiting,
//! and all four deadlock-handling policies exposed in the protocol
//! configuration panel:
//!
//! * **wait-for-graph**: the requester blocks; if adding its wait edges
//!   creates a cycle, the requester is aborted as the deadlock victim;
//! * **wait-die**: an older requester waits, a younger requester is aborted
//!   immediately ("dies");
//! * **wound-wait**: an older requester "wounds" (aborts) younger holders and
//!   then waits; a younger requester simply waits;
//! * **timeout-only**: the requester waits and the wait timeout is the only
//!   deadlock resolution mechanism.
//!
//! Waits are always bounded by the configured lock-wait timeout, whatever the
//! policy, so a distributed deadlock spanning several sites (which no local
//! wait-for graph can see) is eventually broken as well.
//!
//! # Sharding
//!
//! The lock table is split into [`LockManager::shard_count`] independently
//! locked shards keyed by the item's interned hash ([`ItemId::token`]), so
//! concurrent transactions touching different items proceed without
//! contending on one global mutex. Per-item state (holders, waiters) lives
//! entirely inside one shard; cross-item state is factored out:
//!
//! * **timestamps** (wait-die / wound-wait ordering) sit behind a
//!   read-mostly `RwLock`;
//! * **wounded** flags sit behind their own `RwLock`;
//! * the **wait-for graph** has a dedicated mutex, and edge insertion plus
//!   cycle detection happen atomically under it, so deadlock detection
//!   always sees a consistent snapshot of the whole graph even though the
//!   item shards move independently.
//!
//! Lock order is strictly `shard → auxiliary`, and no auxiliary lock is ever
//! held while taking a shard lock, so the layers cannot deadlock each other.

use parking_lot::{Condvar, Mutex, RwLock};
use rainbow_common::protocol::DeadlockPolicy;
use rainbow_common::{FxHashMap, FxHashSet, ItemId, Timestamp, TxnId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

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

/// Why a lock request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// The request would deadlock (wait-for-graph cycle, or wait-die /
    /// wound-wait ordering said the requester must abort).
    Deadlock,
    /// The wait timed out.
    Timeout,
    /// The transaction was wounded by an older transaction (wound-wait) and
    /// must abort.
    Wounded,
}

#[derive(Debug, Default)]
struct ItemLockState {
    /// Current holders. Invariant: either any number of `Shared` holders or
    /// exactly one `Exclusive` holder.
    holders: Vec<(TxnId, LockMode)>,
    /// Transactions currently blocked waiting for this item. No order is
    /// enforced among them, but a request that has not waited yet does not
    /// overtake them from the non-waiting path (see
    /// [`LockManager::try_acquire`]).
    waiters: VecDeque<TxnId>,
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
    /// Number of transactions currently blocked on this shard's condvar.
    /// Release paths skip the condvar notification (a futex syscall) when
    /// nobody is waiting — the overwhelmingly common case.
    blocked_waiters: usize,
}

/// Outcome of a grant attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GrantOutcome {
    /// Granted, and the transaction newly appears in the holder list.
    GrantedNew,
    /// Granted as a re-acquisition or upgrade (already a holder).
    GrantedAgain,
    /// Incompatible with current holders.
    Refused,
}

impl ShardTable {
    /// Grants `mode` on `item` to `txn` when compatible (including
    /// re-acquisition and sole-holder upgrades), in a single map probe.
    fn try_grant(&mut self, item: &ItemId, txn: TxnId, mode: LockMode) -> GrantOutcome {
        let state = match self.items.entry(item.clone()) {
            std::collections::hash_map::Entry::Occupied(entry) => {
                let state = entry.into_mut();
                // A cached idle entry is about to become live again (an
                // idle entry has no holders, so the grant below succeeds).
                if state.holders.is_empty() && state.waiters.is_empty() {
                    self.idle_entries -= 1;
                }
                state
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(ItemLockState::default())
            }
        };
        let held_mode = state
            .holders
            .iter()
            .find(|(holder, _)| *holder == txn)
            .map(|(_, m)| *m);
        let can_grant = match (held_mode, mode) {
            // Already holds an equal or stronger lock.
            (Some(LockMode::Exclusive), _) | (Some(LockMode::Shared), LockMode::Shared) => true,
            // Upgrade: allowed only when it is the sole holder.
            (Some(LockMode::Shared), LockMode::Exclusive) => state.holders.len() == 1,
            // New request: must be compatible with every holder.
            (None, requested) => state
                .holders
                .iter()
                .all(|(_, held)| held.compatible(requested)),
        };
        if !can_grant {
            // The entry is never empty here: incompatibility implies other
            // holders exist, so the probe did not create it.
            return GrantOutcome::Refused;
        }
        match state.holders.iter_mut().find(|(holder, _)| *holder == txn) {
            Some(entry) => {
                // Upgrade shared → exclusive if requested.
                if mode == LockMode::Exclusive {
                    entry.1 = LockMode::Exclusive;
                }
                GrantOutcome::GrantedAgain
            }
            None => {
                state.holders.push((txn, mode));
                GrantOutcome::GrantedNew
            }
        }
    }

    /// The holders whose locks conflict with `txn` requesting `mode`.
    fn conflicting_holders(&self, item: &ItemId, txn: TxnId, mode: LockMode) -> Vec<TxnId> {
        let Some(state) = self.items.get(item) else {
            return Vec::new();
        };
        state
            .holders
            .iter()
            .filter(|(holder, held)| *holder != txn && !held.compatible(mode))
            .map(|(holder, _)| *holder)
            .collect()
    }

    /// True when `txn` holds nothing on `item` while other transactions are
    /// blocked waiting for it: granting `txn` on the spot would take the lock
    /// from under them.
    fn would_overtake(&self, item: &ItemId, txn: TxnId) -> bool {
        self.items.get(item).is_some_and(|state| {
            state.waiters.iter().any(|waiter| *waiter != txn)
                && !state.holders.iter().any(|(holder, _)| *holder == txn)
        })
    }

    /// Removes `txn` from the waiter list of `item`, marking the entry idle
    /// when removing the last waiter leaves neither holders nor waiters.
    /// The idle transition only happens when a waiter was actually removed
    /// — otherwise an already-idle cached entry would be counted twice and
    /// corrupt the idle-entry accounting.
    fn remove_waiter(&mut self, item: &ItemId, txn: TxnId) {
        if let Some(state) = self.items.get_mut(item) {
            if let Some(pos) = state.waiters.iter().position(|waiter| *waiter == txn) {
                state.waiters.remove(pos);
                if state.holders.is_empty() && state.waiters.is_empty() {
                    self.idle_entries += 1;
                    self.maybe_sweep();
                }
            }
        }
    }

    /// Sweeps cached idle entries once too many accumulate, bounding the
    /// table's footprint without paying an allocation + deallocation on
    /// every routine acquire/release cycle.
    fn maybe_sweep(&mut self) {
        if self.idle_entries > IDLE_SWEEP_THRESHOLD {
            self.items
                .retain(|_, state| !(state.holders.is_empty() && state.waiters.is_empty()));
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
    /// Requests that had to wait at least once.
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
    /// Requests that gave up on timeout.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }
}

/// One shard: its slice of the lock table plus the condvar its waiters
/// block on.
#[derive(Debug, Default)]
struct Shard {
    table: Mutex<ShardTable>,
    released: Condvar,
}

/// Default number of lock-table shards (the "shard count knob"; see
/// [`LockManager::with_shards`]).
pub const DEFAULT_LOCK_SHARDS: usize = 16;

/// Number of per-transaction metadata shards (keyed by transaction hash, so
/// concurrent transactions do not serialize on one bookkeeping mutex).
const TXN_META_SHARDS: usize = 16;

/// Per-transaction bookkeeping: its timestamp (wait-die / wound-wait
/// ordering) and the exact items it holds locks on, so release walks only
/// the shards that actually hold something. Written at grant time inside
/// the granting shard's critical section, which keeps it consistent with
/// the holder lists.
#[derive(Debug, Clone)]
struct TxnMeta {
    ts: Timestamp,
    held: Vec<ItemId>,
}

/// The lock manager of one site.
pub struct LockManager {
    policy: DeadlockPolicy,
    timeout: Duration,
    shards: Box<[Shard]>,
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
            shards: (0..count).map(|_| Shard::default()).collect(),
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

    /// Records that `txn` (timestamp `ts`) newly holds a lock on `item`.
    /// Called with the granting shard's lock held; metadata always nests
    /// inside shard locks, never the reverse, so a racing `release_all`
    /// either sees this grant in the metadata or the grant happens after
    /// its shard pass and re-creates the entry for the next release.
    fn note_held(&self, txn: TxnId, ts: Timestamp, item: &ItemId) {
        let mut meta = self.meta_shard(txn).lock();
        let entry = meta.entry(txn).or_insert_with(|| TxnMeta {
            ts,
            held: Vec::new(),
        });
        entry.held.push(item.clone());
    }

    /// Whether the transaction has been wounded and must abort.
    pub fn is_wounded(&self, txn: TxnId) -> bool {
        self.wounded.read().contains(&txn)
    }

    /// Fast-path wound check: only wound-wait ever populates the set.
    fn wounded_now(&self, txn: TxnId) -> bool {
        self.policy == DeadlockPolicy::WoundWait && self.wounded.read().contains(&txn)
    }

    /// Drops the wait-for edges of `txn`.
    fn clear_wait_edges(&self, txn: TxnId) {
        if self.policy == DeadlockPolicy::WaitForGraph {
            self.wait_graph.lock().edges.remove(&txn);
        }
    }

    /// Grants `mode` on `item` to `txn` right now if it is compatible with
    /// the current holders, with the bookkeeping of a grant. Called with the
    /// item's shard locked.
    fn grant_now(
        &self,
        table: &mut ShardTable,
        txn: TxnId,
        ts: Timestamp,
        item: &ItemId,
        mode: LockMode,
    ) -> bool {
        match table.try_grant(item, txn, mode) {
            GrantOutcome::Refused => return false,
            // Record the grant while still inside the shard critical
            // section, so it is visible to the next `release_all` even if a
            // racing release already ran.
            GrantOutcome::GrantedNew => self.note_held(txn, ts, item),
            GrantOutcome::GrantedAgain => {}
        }
        self.stats.grants.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The non-waiting form of [`LockManager::acquire`]: answers at once
    /// when the request can be decided without waiting — granted, or
    /// refused because the transaction was wounded — and `None` when it
    /// would have to wait for a holder, or would take a free lock from under
    /// transactions already blocked waiting for it. (A releasing
    /// transaction's next request can reach the lock table before the waiter
    /// it just woke has run; answered here, on the caller's thread, it would
    /// win every time and starve the waiter. Sent to [`LockManager::acquire`]
    /// instead, it meets the waiter on equal terms.) `None` leaves no trace:
    /// no waiter entry, no wait-for edge, no wound, no statistic moves, and
    /// the deadlock policy has not run; the caller decides by calling
    /// [`LockManager::acquire`] from a thread that may block.
    pub fn try_acquire(
        &self,
        txn: TxnId,
        ts: Timestamp,
        item: &ItemId,
        mode: LockMode,
    ) -> Option<Result<(), LockError>> {
        let mut table = self.shards[self.shard_index(item)].table.lock();
        if self.wounded_now(txn) {
            return Some(Err(LockError::Wounded));
        }
        if table.would_overtake(item, txn) {
            return None;
        }
        self.grant_now(&mut table, txn, ts, item, mode)
            .then_some(Ok(()))
    }

    /// Acquires `mode` on `item` for `txn` (timestamp `ts`), blocking up to
    /// the configured timeout.
    pub fn acquire(
        &self,
        txn: TxnId,
        ts: Timestamp,
        item: &ItemId,
        mode: LockMode,
    ) -> Result<(), LockError> {
        let deadline = Instant::now() + self.timeout;
        let shard_index = self.shard_index(item);
        let shard = &self.shards[shard_index];
        let mut table = shard.table.lock();
        let mut waited = false;

        loop {
            if self.wounded_now(txn) {
                table.remove_waiter(item, txn);
                self.clear_wait_edges(txn);
                return Err(LockError::Wounded);
            }
            if self.grant_now(&mut table, txn, ts, item, mode) {
                if waited {
                    table.remove_waiter(item, txn);
                    self.clear_wait_edges(txn);
                }
                return Ok(());
            }

            let conflicts = table.conflicting_holders(item, txn, mode);

            // Apply the deadlock policy before (possibly) waiting. Auxiliary
            // locks (timestamps / wounded / wait graph) nest *inside* the
            // shard lock, never the other way around.
            match self.policy {
                DeadlockPolicy::WaitDie => {
                    // The requester may only wait for *younger* holders
                    // (i.e. the requester must be the oldest). Otherwise it
                    // dies.
                    let older_holder_exists = conflicts.iter().any(|holder| {
                        self.timestamp_of(*holder)
                            .map(|holder_ts| holder_ts < ts)
                            .unwrap_or(false)
                    });
                    if older_holder_exists {
                        table.remove_waiter(item, txn);
                        self.stats.deadlock_aborts.fetch_add(1, Ordering::Relaxed);
                        return Err(LockError::Deadlock);
                    }
                }
                DeadlockPolicy::WoundWait => {
                    // An older requester wounds every younger conflicting
                    // holder; a younger requester just waits.
                    let mut wounded_someone = false;
                    for holder in &conflicts {
                        let younger = self
                            .timestamp_of(*holder)
                            .map(|holder_ts| holder_ts > ts)
                            .unwrap_or(true);
                        if younger && self.wounded.write().insert(*holder) {
                            wounded_someone = true;
                            self.stats.wounds.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    if wounded_someone {
                        // Wounded holders discover their fate on their next
                        // CCP call; wake waiters on *every* shard (a wounded
                        // transaction may be blocked on any item) so progress
                        // resumes as soon as they release. Notifying a
                        // condvar without holding its shard's mutex is safe —
                        // woken waiters re-check their predicate.
                        for other in self.shards.iter() {
                            other.released.notify_all();
                        }
                    }
                }
                DeadlockPolicy::WaitForGraph => {
                    // Insert this waiter's edges and run cycle detection in
                    // one critical section: the check sees a consistent
                    // global graph regardless of shard concurrency.
                    let mut graph = self.wait_graph.lock();
                    graph.edges.insert(txn, conflicts.iter().copied().collect());
                    if graph.creates_cycle(txn) {
                        graph.edges.remove(&txn);
                        drop(graph);
                        table.remove_waiter(item, txn);
                        self.stats.deadlock_aborts.fetch_add(1, Ordering::Relaxed);
                        return Err(LockError::Deadlock);
                    }
                }
                DeadlockPolicy::TimeoutOnly => {}
            }

            // Register as a waiter (diagnostics only) and block.
            {
                let state = table.items.entry(item.clone()).or_default();
                if !state.waiters.contains(&txn) {
                    state.waiters.push_back(txn);
                }
            }
            if !waited {
                waited = true;
                self.stats.waits.fetch_add(1, Ordering::Relaxed);
            }
            // Under wound-wait the wound flag lives outside this shard's
            // mutex, so a wound + notify issued between our wounded check
            // and parking here could be lost; waiting in bounded slices
            // guarantees the flag is re-checked promptly regardless.
            let slice = if self.policy == DeadlockPolicy::WoundWait {
                deadline.min(Instant::now() + Duration::from_millis(25))
            } else {
                deadline
            };
            table.blocked_waiters += 1;
            let _slice_expired = shard.released.wait_until(&mut table, slice).timed_out();
            table.blocked_waiters -= 1;
            let timed_out = Instant::now() >= deadline;
            if timed_out {
                table.remove_waiter(item, txn);
                self.clear_wait_edges(txn);
                // One last chance: the lock may have been released exactly at
                // the deadline.
                if !self.wounded_now(txn) && self.grant_now(&mut table, txn, ts, item, mode) {
                    return Ok(());
                }
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                return Err(LockError::Timeout);
            }
        }
    }

    /// Releases every lock held by `txn` (strict 2PL: called at commit or
    /// abort) and clears its wounded flag and bookkeeping. Only the shards
    /// of items the transaction actually holds are visited (tracked in the
    /// per-transaction metadata written at grant time).
    pub fn release_all(&self, txn: TxnId) {
        // Unknown transaction (released twice, or never granted anything):
        // nothing can be held anywhere.
        let held = match self.meta_shard(txn).lock().remove(&txn) {
            Some(meta) => meta.held,
            None => Vec::new(),
        };
        for item in &held {
            let shard = &self.shards[self.shard_index(item)];
            let mut table = shard.table.lock();
            if let Some(state) = table.items.get_mut(item) {
                // Index-based removal instead of an O(n) retain scan; a
                // transaction appears at most once per holder list.
                if let Some(pos) = state.holders.iter().position(|(holder, _)| *holder == txn) {
                    state.holders.swap_remove(pos);
                }
                if state.holders.is_empty() && state.waiters.is_empty() {
                    table.idle_entries += 1;
                    table.maybe_sweep();
                }
            }
            let somebody_waits = table.blocked_waiters > 0;
            drop(table);
            if somebody_waits {
                shard.released.notify_all();
            }
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

    /// Number of transactions currently holding at least one lock.
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
            .map(|shard| shard.table.lock().live_entries())
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
            for (item, state) in &shard.table.lock().items {
                // Cached idle entries are an allocation, not a memory.
                if !(state.holders.is_empty() && state.waiters.is_empty()) {
                    let holders = canonical(state.holders.iter().map(|h| format!("{h:?}")));
                    items.push(format!("{item}: [{holders}] waiting {:?}", state.waiters));
                }
            }
        }
        let mut meta = Vec::new();
        for shard in self.txn_meta.iter() {
            for (txn, entry) in shard.lock().iter() {
                let held = canonical(entry.held.iter().map(|item| item.to_string()));
                meta.push(format!("{txn:?} at {:?} holds [{held}]", entry.ts));
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
    use std::sync::Arc;
    use std::thread;

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

    #[test]
    fn shared_locks_are_compatible() {
        let lm = manager(DeadlockPolicy::WaitForGraph);
        lm.acquire(txn(1), ts(1), &item("x"), LockMode::Shared)
            .unwrap();
        lm.acquire(txn(2), ts(2), &item("x"), LockMode::Shared)
            .unwrap();
        assert_eq!(lm.active_transactions(), 2);
        assert_eq!(lm.stats().grants(), 2);
        assert_eq!(lm.stats().waits(), 0);
    }

    #[test]
    fn exclusive_conflicts_block_until_release() {
        let lm = Arc::new(manager(DeadlockPolicy::TimeoutOnly));
        lm.acquire(txn(1), ts(1), &item("x"), LockMode::Exclusive)
            .unwrap();

        let lm2 = Arc::clone(&lm);
        let waiter =
            thread::spawn(move || lm2.acquire(txn(2), ts(2), &item("x"), LockMode::Shared));
        thread::sleep(Duration::from_millis(20));
        lm.release_all(txn(1));
        assert_eq!(waiter.join().unwrap(), Ok(()));
        assert!(lm.held_by(txn(2)).contains(&item("x")));
        assert!(lm.stats().waits() >= 1);
    }

    #[test]
    fn conflicting_request_times_out() {
        let lm = manager(DeadlockPolicy::TimeoutOnly);
        lm.acquire(txn(1), ts(1), &item("x"), LockMode::Exclusive)
            .unwrap();
        let start = Instant::now();
        let result = lm.acquire(txn(2), ts(2), &item("x"), LockMode::Exclusive);
        assert_eq!(result, Err(LockError::Timeout));
        assert!(start.elapsed() >= Duration::from_millis(90));
        assert_eq!(lm.stats().timeouts(), 1);
    }

    #[test]
    fn reacquisition_and_upgrade() {
        let lm = manager(DeadlockPolicy::WaitForGraph);
        let t = txn(1);
        lm.acquire(t, ts(1), &item("x"), LockMode::Shared).unwrap();
        // Re-acquiring the same or weaker lock is a no-op.
        lm.acquire(t, ts(1), &item("x"), LockMode::Shared).unwrap();
        // Upgrade succeeds because t is the sole holder.
        lm.acquire(t, ts(1), &item("x"), LockMode::Exclusive)
            .unwrap();
        // Exclusive holder can "downgrade-request" shared: still granted.
        lm.acquire(t, ts(1), &item("x"), LockMode::Shared).unwrap();
        assert_eq!(lm.held_by(t), vec![item("x")]);

        // Another reader cannot get in now.
        assert_eq!(
            lm.acquire(txn(2), ts(2), &item("x"), LockMode::Shared),
            Err(LockError::Timeout)
        );
    }

    #[test]
    fn upgrade_blocked_by_other_readers_times_out() {
        let lm = manager(DeadlockPolicy::TimeoutOnly);
        lm.acquire(txn(1), ts(1), &item("x"), LockMode::Shared)
            .unwrap();
        lm.acquire(txn(2), ts(2), &item("x"), LockMode::Shared)
            .unwrap();
        assert_eq!(
            lm.acquire(txn(1), ts(1), &item("x"), LockMode::Exclusive),
            Err(LockError::Timeout)
        );
    }

    #[test]
    fn wait_for_graph_detects_two_party_deadlock() {
        let lm = Arc::new(LockManager::new(
            DeadlockPolicy::WaitForGraph,
            Duration::from_millis(500),
        ));
        // T1 holds x, T2 holds y.
        lm.acquire(txn(1), ts(1), &item("x"), LockMode::Exclusive)
            .unwrap();
        lm.acquire(txn(2), ts(2), &item("y"), LockMode::Exclusive)
            .unwrap();

        // T1 waits for y in a background thread.
        let lm1 = Arc::clone(&lm);
        let h1 = thread::spawn(move || lm1.acquire(txn(1), ts(1), &item("y"), LockMode::Exclusive));
        thread::sleep(Duration::from_millis(30));
        // T2 requests x: the wait-for graph now has a cycle, T2 is the victim.
        let result = lm.acquire(txn(2), ts(2), &item("x"), LockMode::Exclusive);
        assert_eq!(result, Err(LockError::Deadlock));
        assert!(lm.stats().deadlock_aborts() >= 1);

        // Victim aborts, releasing y; T1's wait completes.
        lm.release_all(txn(2));
        assert_eq!(h1.join().unwrap(), Ok(()));
    }

    #[test]
    fn wait_die_aborts_younger_requesters() {
        let lm = manager(DeadlockPolicy::WaitDie);
        // Older transaction (smaller ts) holds the lock.
        lm.acquire(txn(1), ts(1), &item("x"), LockMode::Exclusive)
            .unwrap();
        // Younger requester dies immediately.
        let start = Instant::now();
        assert_eq!(
            lm.acquire(txn(2), ts(5), &item("x"), LockMode::Exclusive),
            Err(LockError::Deadlock)
        );
        assert!(
            start.elapsed() < Duration::from_millis(50),
            "die must be immediate"
        );
        assert_eq!(lm.stats().deadlock_aborts(), 1);
    }

    #[test]
    fn wait_die_lets_older_requesters_wait() {
        let lm = Arc::new(manager(DeadlockPolicy::WaitDie));
        // Younger transaction holds the lock.
        lm.acquire(txn(2), ts(5), &item("x"), LockMode::Exclusive)
            .unwrap();
        let lm2 = Arc::clone(&lm);
        let older =
            thread::spawn(move || lm2.acquire(txn(1), ts(1), &item("x"), LockMode::Exclusive));
        thread::sleep(Duration::from_millis(20));
        lm.release_all(txn(2));
        assert_eq!(older.join().unwrap(), Ok(()));
    }

    #[test]
    fn wound_wait_wounds_younger_holders() {
        let lm = Arc::new(manager(DeadlockPolicy::WoundWait));
        // Younger transaction holds the lock.
        lm.acquire(txn(2), ts(5), &item("x"), LockMode::Exclusive)
            .unwrap();
        // Older requester wounds it and waits.
        let lm2 = Arc::clone(&lm);
        let older =
            thread::spawn(move || lm2.acquire(txn(1), ts(1), &item("x"), LockMode::Exclusive));
        thread::sleep(Duration::from_millis(20));
        assert!(lm.is_wounded(txn(2)), "younger holder must be wounded");
        assert!(lm.stats().wounds() >= 1);
        // The wounded holder aborts and releases; the older requester gets the lock.
        lm.release_all(txn(2));
        assert_eq!(older.join().unwrap(), Ok(()));
        // After release_all the wounded flag is cleared for reuse of the id.
        assert!(!lm.is_wounded(txn(2)));
    }

    #[test]
    fn wound_wait_younger_requester_waits_without_wounding() {
        let lm = manager(DeadlockPolicy::WoundWait);
        lm.acquire(txn(1), ts(1), &item("x"), LockMode::Exclusive)
            .unwrap();
        // Younger requester: no wound, just a (timed-out) wait.
        assert_eq!(
            lm.acquire(txn(2), ts(5), &item("x"), LockMode::Exclusive),
            Err(LockError::Timeout)
        );
        assert!(!lm.is_wounded(txn(1)));
        assert_eq!(lm.stats().wounds(), 0);
    }

    #[test]
    fn wounded_transaction_is_rejected_on_next_acquire() {
        let lm = Arc::new(manager(DeadlockPolicy::WoundWait));
        lm.acquire(txn(2), ts(5), &item("x"), LockMode::Exclusive)
            .unwrap();
        let lm2 = Arc::clone(&lm);
        let older =
            thread::spawn(move || lm2.acquire(txn(1), ts(1), &item("x"), LockMode::Exclusive));
        thread::sleep(Duration::from_millis(20));
        // The wounded transaction tries to lock something else: rejected.
        assert_eq!(
            lm.acquire(txn(2), ts(5), &item("y"), LockMode::Shared),
            Err(LockError::Wounded)
        );
        lm.release_all(txn(2));
        assert_eq!(older.join().unwrap(), Ok(()));
    }

    #[test]
    fn try_acquire_does_not_overtake_a_blocked_waiter() {
        let lm = Arc::new(LockManager::new(
            DeadlockPolicy::WaitForGraph,
            Duration::from_secs(5),
        ));
        let x = item("x");
        lm.acquire(txn(1), ts(1), &x, LockMode::Exclusive).unwrap();
        let lm2 = Arc::clone(&lm);
        let waiter =
            thread::spawn(move || lm2.acquire(txn(2), ts(2), &item("x"), LockMode::Exclusive));
        let queued = |lm: &LockManager| {
            let table = lm.shards[lm.shard_index(&x)].table.lock();
            table.items.get(&x).map_or(0, |state| state.waiters.len())
        };
        while queued(&lm) == 0 {
            thread::yield_now();
        }
        // The releaser's next request arrives before the woken waiter has
        // run (or after it took the lock): either way it must not be
        // granted on the spot.
        lm.release_all(txn(1));
        assert_eq!(lm.try_acquire(txn(3), ts(3), &x, LockMode::Exclusive), None);
        assert_eq!(waiter.join().unwrap(), Ok(()));
        // A holder re-asking is not overtaking anybody.
        assert_eq!(
            lm.try_acquire(txn(2), ts(2), &x, LockMode::Exclusive),
            Some(Ok(()))
        );
        lm.release_all(txn(2));
        assert_eq!(
            lm.try_acquire(txn(3), ts(3), &x, LockMode::Exclusive),
            Some(Ok(()))
        );
    }

    #[test]
    fn release_all_clears_bookkeeping() {
        let lm = manager(DeadlockPolicy::WaitForGraph);
        lm.acquire(txn(1), ts(1), &item("x"), LockMode::Exclusive)
            .unwrap();
        lm.acquire(txn(1), ts(1), &item("y"), LockMode::Shared)
            .unwrap();
        assert_eq!(lm.held_by(txn(1)).len(), 2);
        lm.release_all(txn(1));
        assert!(lm.held_by(txn(1)).is_empty());
        assert_eq!(lm.active_transactions(), 0);
        // Releasing again is harmless.
        lm.release_all(txn(1));
    }

    #[test]
    fn three_way_deadlock_is_broken() {
        let lm = Arc::new(LockManager::new(
            DeadlockPolicy::WaitForGraph,
            Duration::from_millis(800),
        ));
        lm.acquire(txn(1), ts(1), &item("a"), LockMode::Exclusive)
            .unwrap();
        lm.acquire(txn(2), ts(2), &item("b"), LockMode::Exclusive)
            .unwrap();
        lm.acquire(txn(3), ts(3), &item("c"), LockMode::Exclusive)
            .unwrap();

        let lm1 = Arc::clone(&lm);
        let h1 = thread::spawn(move || lm1.acquire(txn(1), ts(1), &item("b"), LockMode::Exclusive));
        let lm2 = Arc::clone(&lm);
        let h2 = thread::spawn(move || lm2.acquire(txn(2), ts(2), &item("c"), LockMode::Exclusive));
        thread::sleep(Duration::from_millis(50));
        // Closing the cycle: T3 -> a (held by T1). T3 must be chosen as victim.
        let r3 = lm.acquire(txn(3), ts(3), &item("a"), LockMode::Exclusive);
        assert_eq!(r3, Err(LockError::Deadlock));
        lm.release_all(txn(3));
        // T2 can now proceed, then T1.
        assert_eq!(h2.join().unwrap(), Ok(()));
        lm.release_all(txn(2));
        assert_eq!(h1.join().unwrap(), Ok(()));
    }

    #[test]
    fn lock_mode_compatibility_matrix() {
        assert!(LockMode::Shared.compatible(LockMode::Shared));
        assert!(!LockMode::Shared.compatible(LockMode::Exclusive));
        assert!(!LockMode::Exclusive.compatible(LockMode::Shared));
        assert!(!LockMode::Exclusive.compatible(LockMode::Exclusive));
    }
}
