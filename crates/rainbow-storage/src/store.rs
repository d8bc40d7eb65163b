//! The volatile, versioned item store of one Rainbow site, and the
//! [`SiteStorage`] facade that pairs it with the write-ahead log.
//!
//! A site's storage has one owner, the site's state, which its event loop
//! holds one drain at a time. So the store is a plain value, and
//! [`SiteStorage`] keeps it and its engine in one `RefCell` rather than
//! behind a lock. Every forced write is a group: [`SiteStorage::prepare`]
//! and [`SiteStorage::commit`] are groups of one transaction, and so is the
//! commit of a transaction that crash recovery found in doubt (its
//! recovered writes are staged, then committed). Those return once the
//! group is durable. [`SiteStorage::prepare_group`] and
//! [`SiteStorage::commit_group`] only write it, and return the ticket to
//! wait for ([`crate::disk::DiskEngine::append_group`]).

use crate::disk::DiskEngine;
use crate::engine::{EngineKind, PowerLossFault, StorageConfig};
use crate::medium::{FileMedium, Medium, MemMedium, SyncHandle};
use crate::recovery::RecoveryOutcome;
use crate::wal::LogRecord;
use rainbow_common::{
    FxHashMap, ItemId, RainbowError, RainbowResult, SiteId, TxnId, Value, Version,
};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// The committed state of one copy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CopyState {
    /// Latest committed value.
    pub value: Value,
    /// Latest committed version number (quorum consensus reads pick the
    /// highest version in a read quorum).
    pub version: Version,
}

impl CopyState {
    /// A fresh copy with the given initial value at version 0.
    pub fn initial(value: Value) -> Self {
        CopyState {
            value,
            version: Version::INITIAL,
        }
    }
}

/// The volatile in-memory store: committed copies plus per-transaction
/// staged (pre-written) updates. Everything here is lost on a crash.
///
/// Copies are indexed by hash map — with interned [`ItemId`]s a lookup
/// hashes one precomputed `u64` instead of walking a `BTreeMap` of string
/// comparisons. [`VersionedStore::snapshot`] sorts by item name, so
/// externally observable orderings are unchanged.
#[derive(Debug, Default)]
pub struct VersionedStore {
    copies: FxHashMap<ItemId, CopyState>,
    staged: FxHashMap<TxnId, FxHashMap<ItemId, (Value, Version)>>,
}

impl VersionedStore {
    /// An empty store.
    pub fn new() -> Self {
        VersionedStore::default()
    }

    /// Creates (or resets) an item with an initial value.
    pub fn create(&mut self, item: ItemId, initial: Value) {
        self.copies.insert(item, CopyState::initial(initial));
    }

    /// Reads the committed value and version of an item.
    pub fn read(&self, item: &ItemId) -> RainbowResult<(Value, Version)> {
        self.copies
            .get(item)
            .map(|c| (c.value.clone(), c.version))
            .ok_or_else(|| RainbowError::UnknownItem(item.clone()))
    }

    /// The committed version of an item (the pre-write path of quorum
    /// consensus asks copies for their version numbers).
    pub fn version(&self, item: &ItemId) -> RainbowResult<Version> {
        self.copies
            .get(item)
            .map(|c| c.version)
            .ok_or_else(|| RainbowError::UnknownItem(item.clone()))
    }

    /// Whether the item exists at this site.
    pub fn contains(&self, item: &ItemId) -> bool {
        self.copies.contains_key(item)
    }

    /// Stages a write on behalf of a transaction. Staged writes become
    /// visible only when [`VersionedStore::install`] is called.
    pub fn stage(&mut self, txn: TxnId, item: ItemId, value: Value, version: Version) {
        self.staged
            .entry(txn)
            .or_default()
            .insert(item, (value, version));
    }

    /// The writes currently staged by a transaction, sorted by item name
    /// (the staging index is a hash map; sorting keeps log records and
    /// prepare messages deterministic).
    pub fn staged_writes(&self, txn: &TxnId) -> Vec<(ItemId, Value, Version)> {
        self.staged
            .get(txn)
            .map(|writes| {
                let mut out: Vec<(ItemId, Value, Version)> = writes
                    .iter()
                    .map(|(item, (value, version))| (item.clone(), value.clone(), *version))
                    .collect();
                out.sort_by(|a, b| a.0.cmp(&b.0));
                out
            })
            .unwrap_or_default()
    }

    /// Installs the staged writes of a transaction into the committed state
    /// and clears its staging area. Returns the transaction's writes (sorted
    /// by item name, matching [`VersionedStore::staged_writes`]).
    ///
    /// A write installs under the Thomas write rule: a copy never regresses
    /// to an older version. Timestamp-ordering stacks can commit two writers
    /// of the same item in version order but deliver their decisions in the
    /// opposite order; without the guard the later decision would overwrite
    /// the younger value with the older one. A skipped write is still
    /// returned, since the transaction still logically wrote it.
    pub fn install(&mut self, txn: &TxnId) -> Vec<(ItemId, Value, Version)> {
        let writes = self.staged.remove(txn).unwrap_or_default();
        let mut installed: Vec<(ItemId, Value, Version)> = writes
            .into_iter()
            .map(|(item, (value, version))| (item, value, version))
            .collect();
        installed.sort_by(|a, b| a.0.cmp(&b.0));
        for (item, value, version) in &installed {
            let stale = self.copies.get(item).is_some_and(|c| c.version > *version);
            if !stale {
                let (value, version) = (value.clone(), *version);
                self.copies
                    .insert(item.clone(), CopyState { value, version });
            }
        }
        installed
    }

    /// Discards the staged writes of a transaction.
    pub fn discard(&mut self, txn: &TxnId) {
        self.staged.remove(txn);
    }

    /// Installs a committed copy fetched from a peer during recovery
    /// catch-up (the Available Copies "copier" step), but only when it is
    /// newer than the local copy. Returns whether anything changed.
    pub fn repair(&mut self, item: ItemId, value: Value, version: Version) -> bool {
        match self.copies.get(&item) {
            Some(current) if current.version >= version => false,
            _ => {
                self.copies.insert(item, CopyState { value, version });
                true
            }
        }
    }

    /// Number of items stored.
    pub fn len(&self) -> usize {
        self.copies.len()
    }

    /// True when no item is stored.
    pub fn is_empty(&self) -> bool {
        self.copies.is_empty()
    }

    /// A snapshot of every committed copy, sorted by item name; used for
    /// checkpoints and replica convergence checks.
    pub fn snapshot(&self) -> Vec<(ItemId, Value, Version)> {
        let mut snapshot: Vec<(ItemId, Value, Version)> = self
            .copies
            .iter()
            .map(|(item, state)| (item.clone(), state.value.clone(), state.version))
            .collect();
        snapshot.sort_by(|a, b| a.0.cmp(&b.0));
        snapshot
    }

    /// Clears everything (simulating the loss of volatile memory).
    pub fn clear(&mut self) {
        self.copies.clear();
        self.staged.clear();
    }

    /// Replaces the committed state wholesale (used by recovery).
    pub fn load(&mut self, state: BTreeMap<ItemId, CopyState>) {
        self.copies = state.into_iter().collect();
        self.staged.clear();
    }
}

/// The durable + volatile storage of one Rainbow site.
///
/// It has one owner, the site's state, and so one writer: the site's event
/// loop, which also runs its handle's calls between two messages (a
/// diagnostic read, a crash restart, a copier repair). A checkpoint
/// snapshots the store and rewrites the log in two steps, so a commit
/// forced between them would lose its log record; with one writer none can
/// be.
///
/// The methods take `&self` and borrow the store and the engine from one
/// `RefCell`, once per call (a checkpoint inside a call reuses that
/// borrow). `SiteStorage` is `Send` but neither `Sync` nor `Clone`: the
/// one-owner rule is checked by the compiler.
///
/// The durable half is the log engine, [`DiskEngine`], over the medium the
/// [`StorageConfig`] chooses ([`SiteStorage::open`]): byte vectors in
/// memory by default ([`SiteStorage::new`]), or segment files.
#[derive(Debug)]
pub struct SiteStorage {
    site: SiteId,
    parts: RefCell<Parts>,
    tracer: Option<Arc<rainbow_trace::Tracer>>,
}

/// What [`SiteStorage`] borrows as one: the volatile store and the durable
/// engine.
#[derive(Debug)]
struct Parts {
    store: VersionedStore,
    engine: DiskEngine,
    /// The written groups a tracer times until they are durable, in
    /// ticket order (empty without a tracer).
    forcing: VecDeque<Forcing>,
}

/// A written group whose force a tracer times: from its append to the sync
/// that makes it durable.
#[derive(Debug)]
struct Forcing {
    ticket: u64,
    start_us: u64,
    /// `"prepare"` or `"commit"`.
    what: &'static str,
    txns: Vec<TxnId>,
}

impl Parts {
    /// Writes a checkpoint of the committed state and compacts the log.
    fn checkpoint(&mut self) {
        self.engine.checkpoint(self.store.snapshot());
    }
}

/// The writes of one transaction, as prepared or installed.
type WriteSet = Vec<(ItemId, Value, Version)>;

impl SiteStorage {
    /// Creates empty storage for `site` on a fresh memory medium.
    pub fn new(site: SiteId) -> Self {
        let (storage, _) = SiteStorage::open(site, &StorageConfig::memory(), None)
            .expect("a fresh memory medium recovers to empty");
        storage
    }

    /// Opens storage for `site` per `config` and recovers whatever the
    /// medium already holds: segment files reopened from an existing data
    /// directory come back with their committed state and in-doubt
    /// transactions; a fresh directory (or a memory medium) recovers to
    /// empty. Returns the storage plus the recovery outcome so the commit
    /// layer can chase the restored in-doubt transactions.
    pub fn open(
        site: SiteId,
        config: &StorageConfig,
        tracer: Option<Arc<rainbow_trace::Tracer>>,
    ) -> RainbowResult<(Self, RecoveryOutcome)> {
        config.validate()?;
        let medium: Box<dyn Medium> = match config.engine {
            EngineKind::Memory => Box::new(MemMedium::default()),
            EngineKind::Disk => {
                let root = config.data_dir.as_ref().expect("validated above");
                let dir = root.join(format!("site-{}", site.0));
                Box::new(FileMedium::new(dir, tracer.clone()))
            }
        };
        let parts = Parts {
            store: VersionedStore::new(),
            engine: DiskEngine::new(medium, config),
            forcing: VecDeque::new(),
        };
        let storage = SiteStorage {
            site,
            parts: RefCell::new(parts),
            tracer,
        };
        let outcome = storage.recover()?;
        Ok((storage, outcome))
    }

    /// Attaches a tracer: every forced log append is timed, from its write
    /// to the sync that makes it durable, into the wal-force phase
    /// histogram, and sampled transactions get a `wal:force` span on this
    /// site's track.
    pub fn with_tracer(mut self, tracer: Option<Arc<rainbow_trace::Tracer>>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Times the force of a group written at `start_us`, now that it is
    /// durable (no-op without a tracer); the group's ticket is `ticket`
    /// when it waits for a sync. Every group it made durable is timed too.
    fn trace_group(
        &self,
        parts: &mut Parts,
        ticket: Option<u64>,
        start_us: u64,
        what: &'static str,
        txns: &[TxnId],
    ) {
        if self.tracer.is_none() {
            return;
        }
        if let Some(ticket) = ticket {
            let txns = txns.to_vec();
            let forcing = Forcing {
                ticket,
                start_us,
                what,
                txns,
            };
            parts.forcing.push_back(forcing);
        } else {
            self.trace_forcing(start_us, what, txns);
        }
        self.settle(parts);
    }

    /// Times the forces of the written groups that are durable now.
    fn settle(&self, parts: &mut Parts) {
        let durable = parts.engine.durable();
        while let Some(forcing) = parts.forcing.front().filter(|f| f.ticket <= durable) {
            self.trace_forcing(forcing.start_us, forcing.what, &forcing.txns);
            parts.forcing.pop_front();
        }
    }

    /// Times one group's force, ending now, into the wal-force phase and
    /// each sampled transaction's `wal:force` span.
    fn trace_forcing(&self, start_us: u64, what: &str, txns: &[TxnId]) {
        let group = txns.len();
        for txn in txns {
            self.trace_force(*txn, "wal:force", start_us, || {
                format!("{what} {txn} (group of {group})")
            });
        }
    }

    /// Times a forced append into the tracer (no-op without one). The
    /// detail is a closure so untraced commits never pay for formatting.
    fn trace_force(&self, txn: TxnId, label: &str, start_us: u64, detail: impl FnOnce() -> String) {
        let Some(tracer) = self.tracer.as_ref() else {
            return;
        };
        let end = tracer.now_us();
        tracer.record_phase(
            rainbow_trace::Phase::WalForce,
            std::time::Duration::from_micros(end.saturating_sub(start_us)),
        );
        if tracer.sampled(txn) {
            tracer.record(rainbow_trace::TraceEvent {
                txn,
                track: rainbow_trace::Track::Site { site: self.site.0 },
                label: label.to_string(),
                start_us,
                dur_us: end.saturating_sub(start_us),
                detail: detail(),
            });
        }
    }

    /// The site this storage belongs to.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Number of records in the log (durable or not).
    pub fn record_count(&self) -> usize {
        self.parts.borrow().engine.record_count()
    }

    /// Number of force (sync) operations the log performed. A
    /// [`SiteStorage::prepare_group`] or [`SiteStorage::commit_group`]
    /// counts once, and so does one sync that made several written groups
    /// durable.
    pub fn force_count(&self) -> u64 {
        self.parts.borrow().engine.force_count()
    }

    /// Creates the given items with their initial values — but only the
    /// ones the store does not already hold, so re-initializing after a
    /// restart from disk never clobbers recovered state — and writes a
    /// checkpoint so the schema survives a crash.
    pub fn initialize(&self, items: &[(ItemId, Value)]) {
        let mut parts = self.parts.borrow_mut();
        for (item, value) in items {
            if !parts.store.contains(item) {
                parts.store.create(item.clone(), value.clone());
            }
        }
        parts.checkpoint();
        self.settle(&mut parts);
    }

    /// Reads the committed value and version of an item.
    pub fn read(&self, item: &ItemId) -> RainbowResult<(Value, Version)> {
        self.parts.borrow().store.read(item)
    }

    /// The committed version of an item.
    pub fn version(&self, item: &ItemId) -> RainbowResult<Version> {
        self.parts.borrow().store.version(item)
    }

    /// Whether the item exists at this site.
    pub fn contains(&self, item: &ItemId) -> bool {
        self.parts.borrow().store.contains(item)
    }

    /// Stages a write for a transaction (the quorum-consensus pre-write).
    pub fn stage_write(&self, txn: TxnId, item: ItemId, value: Value, version: Version) {
        self.parts
            .borrow_mut()
            .store
            .stage(txn, item, value, version);
    }

    /// The writes staged by a transaction.
    pub fn staged_writes(&self, txn: &TxnId) -> WriteSet {
        self.parts.borrow().store.staged_writes(txn)
    }

    /// Durably prepares a transaction, a group of one
    /// ([`SiteStorage::prepare_group`]) synced in place, so a crash after
    /// voting YES cannot lose its writes. Returns the prepared writes.
    pub fn prepare(&self, txn: TxnId) -> WriteSet {
        let (mut prepared, ticket) = self.prepare_group(&[txn]);
        self.sync_for(ticket);
        prepared.pop().expect("one write set per transaction")
    }

    /// Commits a transaction, a group of one ([`SiteStorage::commit_group`])
    /// synced in place. Returns the installed writes.
    pub fn commit(&self, txn: TxnId) -> WriteSet {
        let (mut installed, ticket) = self.commit_group(&[txn]);
        self.sync_for(ticket);
        installed.pop().expect("one write set per transaction")
    }

    /// Writes the prepare records of a batch of transactions to the log as
    /// one group, and returns each transaction's prepared writes, in input
    /// order, with the group's ticket: a YES vote may leave once
    /// [`SiteStorage::durable`] reaches it. `None` when the group is durable
    /// already (or empty).
    pub fn prepare_group(&self, txns: &[TxnId]) -> (Vec<WriteSet>, Option<u64>) {
        let mut parts = self.parts.borrow_mut();
        let prepared: Vec<WriteSet> = txns
            .iter()
            .map(|txn| parts.store.staged_writes(txn))
            .collect();
        let start_us = self.tracer.as_ref().map_or(0, |t| t.now_us());
        let records = txns
            .iter()
            .zip(&prepared)
            .map(|(txn, writes)| LogRecord::Prepare {
                txn: *txn,
                writes: writes.clone(),
            })
            .collect();
        let ticket = parts.engine.append_group(records);
        self.trace_group(&mut parts, ticket, start_us, "prepare", txns);
        (prepared, ticket)
    }

    /// Installs the staged writes of a batch of transactions and writes
    /// their commit records to the log as one group; returns each
    /// transaction's installed writes, in input order, with the group's
    /// ticket (as [`SiteStorage::prepare_group`]: an acknowledgement may
    /// leave once it is durable).
    ///
    /// When the log has outgrown the engine's threshold, the commit then
    /// checkpoints inline, so the checkpoint's snapshot and its log rewrite
    /// run with no commit between them. The site's loop stalls for the
    /// rewrite, which makes every written group durable.
    pub fn commit_group(&self, txns: &[TxnId]) -> (Vec<WriteSet>, Option<u64>) {
        let mut parts = self.parts.borrow_mut();
        let installed: Vec<WriteSet> = txns.iter().map(|txn| parts.store.install(txn)).collect();
        let start_us = self.tracer.as_ref().map_or(0, |t| t.now_us());
        let records = txns
            .iter()
            .zip(&installed)
            .map(|(txn, writes)| LogRecord::Commit {
                txn: *txn,
                writes: writes.clone(),
            })
            .collect();
        let mut ticket = parts.engine.append_group(records);
        if parts.engine.wants_compaction() {
            parts.checkpoint();
            ticket = None;
        }
        self.trace_group(&mut parts, ticket, start_us, "commit", txns);
        (installed, ticket)
    }

    /// Syncs in place when a group's `ticket` waits for a sync.
    fn sync_for(&self, ticket: Option<u64>) {
        if ticket.is_some() {
            let mut parts = self.parts.borrow_mut();
            parts.engine.sync_written();
            self.settle(&mut parts);
        }
    }

    /// The sync the written groups wait for, if any: the newest ticket and
    /// a handle that syncs its segment from another thread. Report the sync
    /// with [`SiteStorage::synced`]. See
    /// [`crate::disk::DiskEngine::sync_request`].
    pub fn sync_request(&self) -> Option<(u64, SyncHandle)> {
        self.parts.borrow_mut().engine.sync_request()
    }

    /// Notes that a sync made every group up to `ticket` durable; one that
    /// is durable already changes nothing.
    pub fn synced(&self, ticket: u64) {
        let mut parts = self.parts.borrow_mut();
        parts.engine.synced(ticket);
        self.settle(&mut parts);
    }

    /// The newest durable ticket: every group up to it is durable.
    pub fn durable(&self) -> u64 {
        self.parts.borrow().engine.durable()
    }

    /// The newest ticket a sync was asked for or made durable: a
    /// [`SiteStorage::sync_request`] now would cover the groups after it.
    pub fn requested(&self) -> u64 {
        self.parts.borrow().engine.requested()
    }

    /// Whether the log's medium needs a sync for a written group to be
    /// durable; when it does not, a group is durable once written and
    /// nobody waits for a ticket.
    pub fn needs_sync(&self) -> bool {
        self.parts.borrow().engine.needs_sync()
    }

    /// Does nothing: storage starts no thread, so there is no compactor
    /// to stop. Kept for its one caller, the benchmark's storage probe
    /// (`benchmark/src/probes.rs`).
    pub fn shutdown_compactor(&self) {}

    /// Aborts a transaction: staged writes are discarded and an abort record
    /// appended (not forced — aborts may be lost on crash and presumed).
    pub fn abort(&self, txn: TxnId) {
        let mut parts = self.parts.borrow_mut();
        parts.store.discard(&txn);
        parts.engine.append(LogRecord::Abort { txn });
    }

    /// Installs committed copies fetched from live peers during recovery
    /// catch-up, keeping only those newer than the local copy, and (when
    /// anything changed) checkpoints so the repair survives a further crash.
    /// Returns the number of copies repaired.
    pub fn repair_copies(&self, copies: &[(ItemId, Value, Version)]) -> usize {
        let mut parts = self.parts.borrow_mut();
        let repaired = copies
            .iter()
            .filter(|(item, value, version)| {
                parts.store.repair(item.clone(), value.clone(), *version)
            })
            .count();
        if repaired > 0 {
            parts.checkpoint();
            self.settle(&mut parts);
        }
        repaired
    }

    /// Writes a checkpoint of the committed state and compacts the log.
    pub fn checkpoint(&self) {
        let mut parts = self.parts.borrow_mut();
        parts.checkpoint();
        self.settle(&mut parts);
    }

    /// Pulls the plug on this site's storage: every piece of volatile state
    /// (committed copies in memory, staged writes, engine buffers) is lost
    /// and only the synced log survives. `fault` optionally injects a torn
    /// or bit-flipped tail into the durable log, exactly as a real power
    /// loss could; [`PowerLossFault::Clean`] is a plain crash. Follow with
    /// [`SiteStorage::recover`].
    pub fn power_loss(&self, fault: PowerLossFault) {
        let mut parts = self.parts.borrow_mut();
        parts.store.clear();
        parts.engine.power_loss(fault);
        parts.forcing.clear();
    }

    /// Recovers from the durable log: rebuilds the committed state and
    /// returns the in-doubt transactions the commit layer must resolve.
    /// Mid-log damage the engine cannot safely replay past surfaces as
    /// [`RainbowError::CorruptLog`].
    pub fn recover(&self) -> RainbowResult<RecoveryOutcome> {
        let mut parts = self.parts.borrow_mut();
        let outcome = parts.engine.recover()?;
        parts.store.load(outcome.state.clone());
        Ok(outcome)
    }

    /// Flushes and syncs everything the engine has buffered (the clean
    /// shutdown path: a stopped cluster must not owe any acked commit to
    /// a buffer).
    pub fn flush_and_sync(&self) -> RainbowResult<()> {
        let mut parts = self.parts.borrow_mut();
        parts.engine.flush_and_sync()?;
        self.settle(&mut parts);
        Ok(())
    }

    /// A snapshot of the committed state (used by replica-convergence tests
    /// and the progress monitor's database view).
    pub fn snapshot(&self) -> Vec<(ItemId, Value, Version)> {
        self.parts.borrow().store.snapshot()
    }

    /// Number of items stored at this site.
    pub fn len(&self) -> usize {
        self.parts.borrow().store.len()
    }

    /// True when this site stores no items.
    pub fn is_empty(&self) -> bool {
        self.parts.borrow().store.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(seq: u64) -> TxnId {
        TxnId::new(SiteId(0), seq)
    }

    fn item(name: &str) -> ItemId {
        ItemId::new(name)
    }

    #[test]
    fn create_read_and_version() {
        let mut store = VersionedStore::new();
        store.create(item("x"), Value::Int(5));
        assert!(store.contains(&item("x")));
        assert!(!store.contains(&item("y")));
        assert_eq!(store.read(&item("x")).unwrap(), (Value::Int(5), Version(0)));
        assert_eq!(store.version(&item("x")).unwrap(), Version(0));
        assert!(matches!(
            store.read(&item("y")),
            Err(RainbowError::UnknownItem(_))
        ));
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn staged_writes_are_invisible_until_installed() {
        let mut store = VersionedStore::new();
        store.create(item("x"), Value::Int(0));
        store.stage(txn(1), item("x"), Value::Int(42), Version(1));
        assert_eq!(store.read(&item("x")).unwrap(), (Value::Int(0), Version(0)));
        assert_eq!(store.staged_writes(&txn(1)).len(), 1);

        let installed = store.install(&txn(1));
        assert_eq!(installed.len(), 1);
        assert_eq!(
            store.read(&item("x")).unwrap(),
            (Value::Int(42), Version(1))
        );
        assert!(store.staged_writes(&txn(1)).is_empty());
    }

    #[test]
    fn installs_never_regress_a_copy_to_an_older_version() {
        let mut store = VersionedStore::new();
        store.create(item("x"), Value::Int(0));
        // The younger write's decision arrives first...
        store.stage(txn(2), item("x"), Value::Int(20), Version(2));
        store.install(&txn(2));
        // ...then the older write's: the copy must keep the younger value.
        store.stage(txn(1), item("x"), Value::Int(10), Version(1));
        let writes = store.install(&txn(1));
        assert_eq!(writes.len(), 1, "the write is still reported");
        assert_eq!(
            store.read(&item("x")).unwrap(),
            (Value::Int(20), Version(2))
        );
        store.stage(txn(3), item("x"), Value::Int(5), Version(1));
        store.install(&txn(3));
        assert_eq!(
            store.read(&item("x")).unwrap(),
            (Value::Int(20), Version(2))
        );
    }

    #[test]
    fn discard_drops_staged_writes() {
        let mut store = VersionedStore::new();
        store.create(item("x"), Value::Int(0));
        store.stage(txn(1), item("x"), Value::Int(42), Version(1));
        store.discard(&txn(1));
        assert!(store.staged_writes(&txn(1)).is_empty());
        assert_eq!(store.read(&item("x")).unwrap(), (Value::Int(0), Version(0)));
        let installed = store.install(&txn(1));
        assert!(installed.is_empty());
    }

    #[test]
    fn site_storage_commit_cycle_survives_crash() {
        let storage = SiteStorage::new(SiteId(1));
        storage.initialize(&[(item("x"), Value::Int(0)), (item("y"), Value::Int(10))]);
        assert_eq!(storage.site(), SiteId(1));
        assert_eq!(storage.len(), 2);

        let t = txn(1);
        storage.stage_write(t, item("x"), Value::Int(100), Version(1));
        let prepared = storage.prepare(t);
        assert_eq!(prepared.len(), 1);
        let installed = storage.commit(t);
        assert_eq!(installed.len(), 1);
        assert_eq!(
            storage.read(&item("x")).unwrap(),
            (Value::Int(100), Version(1))
        );

        storage.power_loss(PowerLossFault::Clean);
        assert!(storage.is_empty(), "volatile state must be lost");
        let outcome = storage.recover().unwrap();
        assert!(outcome.in_doubt.is_empty());
        assert_eq!(
            storage.read(&item("x")).unwrap(),
            (Value::Int(100), Version(1))
        );
        assert_eq!(
            storage.read(&item("y")).unwrap(),
            (Value::Int(10), Version(0))
        );
    }

    #[test]
    fn uncommitted_staged_writes_do_not_survive_crash() {
        let storage = SiteStorage::new(SiteId(0));
        storage.initialize(&[(item("x"), Value::Int(0))]);
        let t = txn(2);
        storage.stage_write(t, item("x"), Value::Int(7), Version(1));
        // No prepare, no commit: crash.
        storage.power_loss(PowerLossFault::Clean);
        storage.recover().unwrap();
        assert_eq!(
            storage.read(&item("x")).unwrap(),
            (Value::Int(0), Version(0))
        );
        assert!(storage.staged_writes(&t).is_empty());
    }

    #[test]
    fn prepared_transactions_are_in_doubt_after_crash() {
        let storage = SiteStorage::new(SiteId(0));
        storage.initialize(&[(item("x"), Value::Int(0))]);
        let t = txn(3);
        storage.stage_write(t, item("x"), Value::Int(9), Version(1));
        storage.prepare(t);
        storage.power_loss(PowerLossFault::Clean);
        let outcome = storage.recover().unwrap();
        assert_eq!(outcome.in_doubt.len(), 1);
        assert_eq!(outcome.in_doubt[0].txn, t);
        assert_eq!(outcome.in_doubt[0].writes.len(), 1);
        // The value is still the old one until the in-doubt txn is resolved.
        assert_eq!(
            storage.read(&item("x")).unwrap(),
            (Value::Int(0), Version(0))
        );

        // Resolve it as commit the way a site does: stage the recovered
        // writes and commit them.
        for (item, value, version) in outcome.in_doubt[0].writes.clone() {
            storage.stage_write(t, item, value, version);
        }
        assert_eq!(storage.commit(t).len(), 1);
        assert_eq!(
            storage.read(&item("x")).unwrap(),
            (Value::Int(9), Version(1))
        );
    }

    #[test]
    fn aborted_transactions_leave_no_trace_in_state() {
        let storage = SiteStorage::new(SiteId(0));
        storage.initialize(&[(item("x"), Value::Int(1))]);
        let t = txn(4);
        storage.stage_write(t, item("x"), Value::Int(2), Version(1));
        storage.abort(t);
        assert_eq!(
            storage.read(&item("x")).unwrap(),
            (Value::Int(1), Version(0))
        );
        storage.power_loss(PowerLossFault::Clean);
        let outcome = storage.recover().unwrap();
        assert!(outcome.in_doubt.is_empty());
        assert_eq!(
            storage.read(&item("x")).unwrap(),
            (Value::Int(1), Version(0))
        );
    }

    #[test]
    fn checkpoint_compacts_and_preserves_state() {
        let storage = SiteStorage::new(SiteId(0));
        storage.initialize(&[(item("x"), Value::Int(0))]);
        for i in 1..=10u64 {
            let t = txn(i);
            storage.stage_write(t, item("x"), Value::Int(i as i64), Version(i));
            storage.prepare(t);
            storage.commit(t);
        }
        let len_before = storage.record_count();
        storage.checkpoint();
        assert!(storage.record_count() < len_before);
        storage.power_loss(PowerLossFault::Clean);
        storage.recover().unwrap();
        assert_eq!(
            storage.read(&item("x")).unwrap(),
            (Value::Int(10), Version(10))
        );
    }

    #[test]
    fn snapshot_reflects_committed_state_only() {
        let storage = SiteStorage::new(SiteId(0));
        storage.initialize(&[(item("a"), Value::Int(1)), (item("b"), Value::Int(2))]);
        storage.stage_write(txn(1), item("a"), Value::Int(99), Version(1));
        let snap = storage.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap.contains(&(item("a"), Value::Int(1), Version(0))));
        assert!(snap.contains(&(item("b"), Value::Int(2), Version(0))));
    }

    #[test]
    fn repair_installs_only_newer_copies_and_survives_crash() {
        let storage = SiteStorage::new(SiteId(0));
        storage.initialize(&[(item("x"), Value::Int(0)), (item("y"), Value::Int(1))]);
        // Simulate a committed local write at version 2.
        let t = txn(1);
        storage.stage_write(t, item("y"), Value::Int(5), Version(2));
        storage.prepare(t);
        storage.commit(t);

        let repaired = storage.repair_copies(&[
            (item("x"), Value::Int(9), Version(3)), // newer: installed
            (item("y"), Value::Int(4), Version(1)), // older: kept as-is
        ]);
        assert_eq!(repaired, 1);
        assert_eq!(
            storage.read(&item("x")).unwrap(),
            (Value::Int(9), Version(3))
        );
        assert_eq!(
            storage.read(&item("y")).unwrap(),
            (Value::Int(5), Version(2))
        );

        // The repair was checkpointed: it survives a crash.
        storage.power_loss(PowerLossFault::Clean);
        storage.recover().unwrap();
        assert_eq!(
            storage.read(&item("x")).unwrap(),
            (Value::Int(9), Version(3))
        );

        // A no-op repair pass reports zero.
        assert_eq!(
            storage.repair_copies(&[(item("x"), Value::Int(9), Version(3))]),
            0
        );
    }

    /// A checkpoint snapshots the store, then rewrites the log: a commit
    /// forced between the two steps would be in neither. Compaction runs on
    /// the committing thread, so none is.
    #[test]
    fn compaction_beside_commits_loses_no_forced_commit() {
        let dir = std::env::temp_dir().join(format!("rainbow-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StorageConfig::disk(&dir).with_compaction_threshold(4096);
        let (storage, _) = SiteStorage::open(SiteId(0), &config, None).unwrap();
        let items: Vec<(ItemId, Value)> = (0..64)
            .map(|i| (item(&format!("k{i}")), Value::Int(0)))
            .collect();
        storage.initialize(&items);
        let mut seq = 0;
        for round in 0..200 {
            for _ in 0..100 {
                seq += 1;
                let (t, written) = (txn(seq), items[seq as usize % items.len()].0.clone());
                storage.stage_write(t, written, Value::Int(seq as i64), Version(seq));
                storage.prepare(t);
                storage.commit(t);
            }
            let committed = storage.snapshot();
            storage.power_loss(PowerLossFault::Clean);
            storage.recover().unwrap();
            assert_eq!(storage.snapshot(), committed, "round {round} lost a commit");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A memory site compacts its log like a disk site: a long run of
    /// commits leaves a bounded number of records, not one per force.
    #[test]
    fn a_memory_sites_log_is_bounded() {
        let config = StorageConfig::memory().with_compaction_threshold(1 << 16);
        let (storage, _) = SiteStorage::open(SiteId(0), &config, None).unwrap();
        storage.initialize(&[(item("x"), Value::Int(0))]);
        let mut most = 0;
        for seq in 1..=100_000u64 {
            let t = txn(seq);
            storage.stage_write(t, item("x"), Value::Int(seq as i64), Version(seq));
            storage.prepare(t);
            storage.commit(t);
            most = most.max(storage.record_count());
        }
        assert!(most < 5_000, "the log reached {most} records");
    }

    #[test]
    fn prepare_many_and_commit_many_pay_one_force_per_group() {
        let storage = SiteStorage::new(SiteId(0));
        storage.initialize(&[
            (item("x"), Value::Int(0)),
            (item("y"), Value::Int(0)),
            (item("z"), Value::Int(0)),
        ]);
        storage.stage_write(txn(1), item("x"), Value::Int(1), Version(1));
        storage.stage_write(txn(2), item("y"), Value::Int(2), Version(1));
        storage.stage_write(txn(3), item("z"), Value::Int(3), Version(1));

        let before = storage.force_count();
        let (prepared, ticket) = storage.prepare_group(&[txn(1), txn(2), txn(3)]);
        assert_eq!(ticket, None, "a memory medium syncs in the write");
        assert_eq!(storage.force_count(), before + 1, "one force per group");
        assert_eq!(prepared.len(), 3);
        assert_eq!(prepared[1], vec![(item("y"), Value::Int(2), Version(1))]);

        let before = storage.force_count();
        let (installed, ticket) = storage.commit_group(&[txn(1), txn(2), txn(3)]);
        assert_eq!(ticket, None, "a memory medium syncs in the write");
        assert_eq!(storage.force_count(), before + 1, "one force per group");
        assert_eq!(installed.len(), 3);
        assert_eq!(
            storage.read(&item("z")).unwrap(),
            (Value::Int(3), Version(1))
        );

        // The batch is as durable as individual forced commits.
        storage.power_loss(PowerLossFault::Clean);
        let outcome = storage.recover().unwrap();
        assert!(outcome.in_doubt.is_empty());
        assert_eq!(
            storage.read(&item("x")).unwrap(),
            (Value::Int(1), Version(1))
        );
    }

    /// On segment files a written prepare waits for its sync, and its
    /// force is timed from the append to that sync; on a memory medium it
    /// is durable, and timed, when written.
    #[test]
    fn a_written_group_is_timed_until_its_sync() {
        let dir = std::env::temp_dir().join(format!("rainbow-store-sync-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tracer = Arc::new(rainbow_trace::Tracer::new(
            rainbow_trace::TraceConfig::sample_all(),
        ));
        let forces = || tracer.phase_stats().get("wal-force").map_or(0, |s| s.count);
        let config = StorageConfig::disk(&dir);
        let (disk, _) = SiteStorage::open(SiteId(0), &config, Some(Arc::clone(&tracer))).unwrap();
        let memory = SiteStorage::new(SiteId(1)).with_tracer(Some(Arc::clone(&tracer)));
        for storage in [&disk, &memory] {
            storage.initialize(&[(item("x"), Value::Int(0))]);
            storage.stage_write(txn(1), item("x"), Value::Int(1), Version(1));
        }
        assert!(disk.needs_sync() && !memory.needs_sync());

        let (_, ticket) = disk.prepare_group(&[txn(1)]);
        let ticket = ticket.expect("a file waits for its sync");
        assert!(disk.durable() < ticket);
        assert_eq!(forces(), 0, "not durable yet, so not timed");
        let (asked, handle) = disk.sync_request().expect("the prepare waits");
        assert_eq!(asked, ticket);
        handle.sync().unwrap();
        disk.synced(asked);
        assert_eq!(disk.durable(), ticket);
        assert_eq!(forces(), 1);

        let (_, ticket) = memory.prepare_group(&[txn(1)]);
        assert_eq!(ticket, None, "durable when written");
        assert!(memory.sync_request().is_none());
        assert_eq!(forces(), 2);
        drop(disk);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let storage = SiteStorage::new(SiteId(0));
        let before = storage.force_count();
        assert_eq!(storage.prepare_group(&[]), (vec![], None));
        assert_eq!(storage.commit_group(&[]), (vec![], None));
        assert_eq!(storage.force_count(), before);
    }

    #[test]
    fn traced_storage_times_wal_forces() {
        let tracer = Arc::new(rainbow_trace::Tracer::new(
            rainbow_trace::TraceConfig::sample_all(),
        ));
        let storage = SiteStorage::new(SiteId(0)).with_tracer(Some(Arc::clone(&tracer)));
        storage.initialize(&[(item("x"), Value::Int(0))]);
        let t = txn(1);
        storage.stage_write(t, item("x"), Value::Int(1), Version(1));
        storage.prepare(t);
        storage.commit(t);
        // One forced append per prepare and per commit.
        let stats = tracer.phase_stats();
        assert_eq!(stats["wal-force"].count, 2);
        let events = tracer.txn_events(t);
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.label == "wal:force"));
        assert!(events.iter().any(|e| e.detail.starts_with("prepare")));
        assert!(events.iter().any(|e| e.detail.starts_with("commit")));
    }
}
