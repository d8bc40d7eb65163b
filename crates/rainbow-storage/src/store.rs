//! The volatile, versioned item store of one Rainbow site, and the
//! [`SiteStorage`] facade that pairs it with the write-ahead log.

use crate::engine::{EngineKind, MemoryEngine, PowerLossFault, StorageConfig, StorageEngine};
use crate::recovery::RecoveryOutcome;
use crate::wal::LogRecord;
use parking_lot::{Mutex, RwLock};
use rainbow_common::{
    FxHashMap, ItemId, RainbowError, RainbowResult, SiteId, TxnId, Value, Version,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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

    /// Installs one committed write under the Thomas write rule: a copy
    /// never regresses to an older version. Timestamp-ordering stacks can
    /// commit two writers of the same item in version order but deliver
    /// their decisions in the opposite order; without the guard the later
    /// decision would overwrite the younger value with the older one.
    fn install_copy(&mut self, item: &ItemId, value: &Value, version: Version) {
        match self.copies.get(item) {
            Some(current) if current.version > version => {}
            _ => {
                self.copies.insert(
                    item.clone(),
                    CopyState {
                        value: value.clone(),
                        version,
                    },
                );
            }
        }
    }

    /// Installs the staged writes of a transaction into the committed state
    /// and clears its staging area. Returns the transaction's writes (sorted
    /// by item name, matching [`VersionedStore::staged_writes`]) — including
    /// any skipped by the Thomas-write-rule guard, since the transaction
    /// still logically wrote them.
    pub fn install(&mut self, txn: &TxnId) -> Vec<(ItemId, Value, Version)> {
        let writes = self.staged.remove(txn).unwrap_or_default();
        let mut installed = Vec::with_capacity(writes.len());
        for (item, (value, version)) in writes {
            self.install_copy(&item, &value, version);
            installed.push((item, value, version));
        }
        installed.sort_by(|a, b| a.0.cmp(&b.0));
        installed
    }

    /// Installs externally supplied writes (used by recovery when replaying
    /// commit records, and by in-doubt resolution), under the same
    /// no-regression guard as [`VersionedStore::install`].
    pub fn install_writes(&mut self, writes: &[(ItemId, Value, Version)]) {
        for (item, value, version) in writes {
            self.install_copy(item, value, *version);
        }
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

    /// Transactions that currently have staged writes (sorted).
    pub fn staging_txns(&self) -> Vec<TxnId> {
        let mut txns: Vec<TxnId> = self.staged.keys().copied().collect();
        txns.sort_unstable();
        txns
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

/// The background checkpoint-compaction worker of one disk-backed site.
///
/// Commits used to run compaction inline when the log outgrew its
/// threshold, stalling whichever transaction happened to trip it — and,
/// on the site's one event loop, stalling the whole site. The worker
/// moves that work onto its own thread: the commit path merely *nudges*
/// it, and it checkpoints off to the side while commits keep appending.
#[derive(Debug)]
struct Compactor {
    nudge: SyncSender<()>,
    stop: Arc<AtomicBool>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Compactor {
    /// Spawns the worker. It wakes on a nudge (or every 100ms as a
    /// safety net) and checkpoints whenever the engine asks for it.
    fn spawn(
        site: SiteId,
        store: Arc<RwLock<VersionedStore>>,
        engine: Arc<dyn StorageEngine>,
    ) -> Self {
        let (nudge, wakeups) = sync_channel::<()>(1);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(format!("rainbow-compact-{}", site.0))
            .spawn(move || loop {
                let _ = wakeups.recv_timeout(Duration::from_millis(100));
                if stop_flag.load(Ordering::Relaxed) {
                    return;
                }
                if engine.wants_compaction() {
                    let snapshot = store.read().snapshot();
                    engine.checkpoint(snapshot);
                }
            })
            .expect("spawn compaction thread");
        Compactor {
            nudge,
            stop,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// Stops and joins the worker (idempotent).
    fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.nudge.try_send(());
        if let Some(handle) = self.handle.lock().take() {
            let _ = handle.join();
        }
    }
}

/// The durable + volatile storage of one Rainbow site.
///
/// `SiteStorage` is cheaply cloneable (it is an `Arc` internally) so that
/// the concurrency-control layer, the commit participant and the site
/// runtime can all hold handles to the same storage.
///
/// The durable half is a pluggable [`StorageEngine`]: the in-memory
/// simulated WAL by default ([`SiteStorage::new`]), or the on-disk
/// log-structured engine when opened from a [`StorageConfig`] that selects
/// it ([`SiteStorage::open`]).
#[derive(Debug, Clone)]
pub struct SiteStorage {
    site: SiteId,
    store: Arc<RwLock<VersionedStore>>,
    engine: Arc<dyn StorageEngine>,
    tracer: Option<Arc<rainbow_trace::Tracer>>,
    compactor: Option<Arc<Compactor>>,
}

impl SiteStorage {
    /// Creates empty storage for `site` on the in-memory engine.
    pub fn new(site: SiteId) -> Self {
        SiteStorage {
            site,
            store: Arc::new(RwLock::new(VersionedStore::new())),
            engine: Arc::new(MemoryEngine::new()),
            tracer: None,
            compactor: None,
        }
    }

    /// Opens storage for `site` per `config` and recovers whatever the
    /// engine's durable log already holds: a disk engine reopening an
    /// existing data directory comes back with its committed state and
    /// in-doubt transactions; a fresh directory (or the memory engine)
    /// recovers to empty. Returns the storage plus the recovery outcome so
    /// the commit layer can chase the restored in-doubt transactions.
    pub fn open(
        site: SiteId,
        config: &StorageConfig,
        tracer: Option<Arc<rainbow_trace::Tracer>>,
    ) -> RainbowResult<(Self, RecoveryOutcome)> {
        config.validate()?;
        let engine: Arc<dyn StorageEngine> = match config.engine {
            EngineKind::Memory => Arc::new(MemoryEngine::new()),
            EngineKind::Disk => {
                let root = config.data_dir.as_ref().expect("validated above");
                let dir = root.join(format!("site-{}", site.0));
                Arc::new(crate::disk::DiskEngine::new(dir, config, tracer.clone()))
            }
        };
        let outcome = engine.recover()?;
        let store = Arc::new(RwLock::new(VersionedStore::new()));
        // Only disk engines ever want compaction; the memory engine keeps
        // its zero-thread footprint.
        let compactor = (config.engine == EngineKind::Disk).then(|| {
            Arc::new(Compactor::spawn(
                site,
                Arc::clone(&store),
                Arc::clone(&engine),
            ))
        });
        let storage = SiteStorage {
            site,
            store,
            engine,
            tracer,
            compactor,
        };
        storage.store.write().load(outcome.state.clone());
        Ok((storage, outcome))
    }

    /// Attaches a tracer: every forced log append (the fsync stand-in) is
    /// timed into the wal-force phase histogram, and sampled transactions
    /// get a `wal:force` span on this site's track.
    pub fn with_tracer(mut self, tracer: Option<Arc<rainbow_trace::Tracer>>) -> Self {
        self.tracer = tracer;
        self
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

    /// Which engine kind this storage runs on.
    pub fn engine_kind(&self) -> EngineKind {
        self.engine.kind()
    }

    /// Number of records in the engine's log (durable or not).
    pub fn record_count(&self) -> usize {
        self.engine.record_count()
    }

    /// Number of force (sync) operations the engine performed. With
    /// group-commit batching this counts batches, not forced appends.
    pub fn force_count(&self) -> u64 {
        self.engine.force_count()
    }

    /// Creates the given items with their initial values — but only the
    /// ones the store does not already hold, so re-initializing after a
    /// restart from disk never clobbers recovered state — and writes a
    /// checkpoint so the schema survives a crash.
    pub fn initialize(&self, items: &[(ItemId, Value)]) {
        {
            let mut store = self.store.write();
            for (item, value) in items {
                if !store.contains(item) {
                    store.create(item.clone(), value.clone());
                }
            }
        }
        self.checkpoint();
    }

    /// Reads the committed value and version of an item.
    pub fn read(&self, item: &ItemId) -> RainbowResult<(Value, Version)> {
        self.store.read().read(item)
    }

    /// The committed version of an item.
    pub fn version(&self, item: &ItemId) -> RainbowResult<Version> {
        self.store.read().version(item)
    }

    /// Whether the item exists at this site.
    pub fn contains(&self, item: &ItemId) -> bool {
        self.store.read().contains(item)
    }

    /// Stages a write for a transaction (the quorum-consensus pre-write).
    pub fn stage_write(&self, txn: TxnId, item: ItemId, value: Value, version: Version) {
        self.store.write().stage(txn, item, value, version);
    }

    /// The writes staged by a transaction.
    pub fn staged_writes(&self, txn: &TxnId) -> Vec<(ItemId, Value, Version)> {
        self.store.read().staged_writes(txn)
    }

    /// Records that a transaction has begun at this site.
    pub fn log_begin(&self, txn: TxnId) {
        self.engine.append(LogRecord::Begin { txn });
    }

    /// Durably prepares a transaction: its staged writes are forced to the
    /// log so that a crash after voting YES cannot lose them. Returns the
    /// prepared writes.
    pub fn prepare(&self, txn: TxnId) -> Vec<(ItemId, Value, Version)> {
        let writes = self.staged_writes(&txn);
        let start_us = self.tracer.as_ref().map_or(0, |t| t.now_us());
        self.engine.append_forced(LogRecord::Prepare {
            txn,
            writes: writes.clone(),
        });
        self.trace_force(txn, "wal:force", start_us, || format!("prepare {txn}"));
        writes
    }

    /// Commits a transaction: staged writes are installed into the store and
    /// a commit record is forced. Returns the installed writes.
    pub fn commit(&self, txn: TxnId) -> Vec<(ItemId, Value, Version)> {
        let installed = self.store.write().install(&txn);
        let start_us = self.tracer.as_ref().map_or(0, |t| t.now_us());
        self.engine.append_forced(LogRecord::Commit {
            txn,
            writes: installed.clone(),
        });
        self.trace_force(txn, "wal:force", start_us, || format!("commit {txn}"));
        self.maybe_compact();
        installed
    }

    /// Durably prepares a whole batch of transactions with one forced
    /// append group: every transaction's staged writes go into the log,
    /// then the engine pays a single force for the lot. Returns each
    /// transaction's prepared writes, in input order.
    pub fn prepare_many(&self, txns: &[TxnId]) -> Vec<Vec<(ItemId, Value, Version)>> {
        let prepared: Vec<Vec<(ItemId, Value, Version)>> =
            txns.iter().map(|txn| self.staged_writes(txn)).collect();
        let start_us = self.tracer.as_ref().map_or(0, |t| t.now_us());
        let records = txns
            .iter()
            .zip(&prepared)
            .map(|(txn, writes)| LogRecord::Prepare {
                txn: *txn,
                writes: writes.clone(),
            })
            .collect();
        self.engine.append_forced_many(records);
        let group = txns.len();
        for txn in txns {
            self.trace_force(*txn, "wal:force", start_us, || {
                format!("prepare {txn} (group of {group})")
            });
        }
        prepared
    }

    /// Commits a whole batch of transactions with one forced append
    /// group: every transaction's staged writes are installed, then all
    /// commit records ride a single force. Returns each transaction's
    /// installed writes, in input order.
    pub fn commit_many(&self, txns: &[TxnId]) -> Vec<Vec<(ItemId, Value, Version)>> {
        let installed: Vec<Vec<(ItemId, Value, Version)>> = {
            let mut store = self.store.write();
            txns.iter().map(|txn| store.install(txn)).collect()
        };
        let start_us = self.tracer.as_ref().map_or(0, |t| t.now_us());
        let records = txns
            .iter()
            .zip(&installed)
            .map(|(txn, writes)| LogRecord::Commit {
                txn: *txn,
                writes: writes.clone(),
            })
            .collect();
        self.engine.append_forced_many(records);
        let group = txns.len();
        for txn in txns {
            self.trace_force(*txn, "wal:force", start_us, || {
                format!("commit {txn} (group of {group})")
            });
        }
        self.maybe_compact();
        installed
    }

    /// Compacts the log if the engine asks for it — on the background
    /// worker when one exists (disk engines), inline otherwise. The
    /// commit path must never stall on a checkpoint rewrite.
    fn maybe_compact(&self) {
        if !self.engine.wants_compaction() {
            return;
        }
        match &self.compactor {
            // A full nudge channel means the worker already has a wakeup
            // pending; dropping this one is fine.
            Some(compactor) => {
                let _ = compactor.nudge.try_send(());
            }
            None => self.checkpoint(),
        }
    }

    /// Stops and joins the background compaction worker, if any. Called
    /// on site shutdown before the data directory may be removed; safe to
    /// call more than once.
    pub fn shutdown_compactor(&self) {
        if let Some(compactor) = &self.compactor {
            compactor.stop();
        }
    }

    /// Commits a transaction using an explicit write set (recovery path for
    /// in-doubt transactions whose staged writes only exist in the log).
    pub fn commit_writes(&self, txn: TxnId, writes: Vec<(ItemId, Value, Version)>) {
        self.store.write().install_writes(&writes);
        self.engine.append_forced(LogRecord::Commit { txn, writes });
    }

    /// Aborts a transaction: staged writes are discarded and an abort record
    /// appended (not forced — aborts may be lost on crash and presumed).
    pub fn abort(&self, txn: TxnId) {
        self.store.write().discard(&txn);
        self.engine.append(LogRecord::Abort { txn });
    }

    /// Installs committed copies fetched from live peers during recovery
    /// catch-up, keeping only those newer than the local copy, and (when
    /// anything changed) checkpoints so the repair survives a further crash.
    /// Returns the number of copies repaired.
    pub fn repair_copies(&self, copies: &[(ItemId, Value, Version)]) -> usize {
        let repaired = {
            let mut store = self.store.write();
            copies
                .iter()
                .filter(|(item, value, version)| {
                    store.repair(item.clone(), value.clone(), *version)
                })
                .count()
        };
        if repaired > 0 {
            self.checkpoint();
        }
        repaired
    }

    /// Writes a checkpoint of the committed state and compacts the log.
    pub fn checkpoint(&self) {
        let snapshot = self.store.read().snapshot();
        self.engine.checkpoint(snapshot);
    }

    /// Simulates a crash: volatile state (committed copies in memory and all
    /// staged writes) is lost, and the unforced log tail disappears.
    pub fn crash(&self) {
        self.power_loss(PowerLossFault::Clean);
    }

    /// Pulls the plug on this site's storage: every piece of volatile state
    /// (committed copies in memory, staged writes, engine buffers) is lost
    /// and only the synced log survives. `fault` optionally injects a torn
    /// or bit-flipped tail into the durable log, exactly as a real power
    /// loss could. Follow with [`SiteStorage::recover`].
    pub fn power_loss(&self, fault: PowerLossFault) {
        self.store.write().clear();
        self.engine.power_loss(fault);
    }

    /// Recovers from the durable log: rebuilds the committed state and
    /// returns the in-doubt transactions the commit layer must resolve.
    /// Mid-log damage the engine cannot safely replay past surfaces as
    /// [`RainbowError::CorruptLog`].
    pub fn recover(&self) -> RainbowResult<RecoveryOutcome> {
        let outcome = self.engine.recover()?;
        self.store.write().load(outcome.state.clone());
        Ok(outcome)
    }

    /// Flushes and syncs everything the engine has buffered (the clean
    /// shutdown path: a stopped cluster must not owe any acked commit to
    /// a buffer).
    pub fn flush_and_sync(&self) -> RainbowResult<()> {
        self.engine.flush_and_sync()
    }

    /// A snapshot of the committed state (used by replica-convergence tests
    /// and the progress monitor's database view).
    pub fn snapshot(&self) -> Vec<(ItemId, Value, Version)> {
        self.store.read().snapshot()
    }

    /// Number of items stored at this site.
    pub fn len(&self) -> usize {
        self.store.read().len()
    }

    /// True when this site stores no items.
    pub fn is_empty(&self) -> bool {
        self.store.read().is_empty()
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
        assert_eq!(store.staging_txns(), vec![txn(1)]);

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
        store.install_writes(&[(item("x"), Value::Int(5), Version(1))]);
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
        storage.log_begin(t);
        storage.stage_write(t, item("x"), Value::Int(100), Version(1));
        let prepared = storage.prepare(t);
        assert_eq!(prepared.len(), 1);
        let installed = storage.commit(t);
        assert_eq!(installed.len(), 1);
        assert_eq!(
            storage.read(&item("x")).unwrap(),
            (Value::Int(100), Version(1))
        );

        storage.crash();
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
        storage.crash();
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
        storage.log_begin(t);
        storage.stage_write(t, item("x"), Value::Int(9), Version(1));
        storage.prepare(t);
        storage.crash();
        let outcome = storage.recover().unwrap();
        assert_eq!(outcome.in_doubt.len(), 1);
        assert_eq!(outcome.in_doubt[0].txn, t);
        assert_eq!(outcome.in_doubt[0].writes.len(), 1);
        // The value is still the old one until the in-doubt txn is resolved.
        assert_eq!(
            storage.read(&item("x")).unwrap(),
            (Value::Int(0), Version(0))
        );

        // Resolve it as commit via the explicit-writes path.
        storage.commit_writes(t, outcome.in_doubt[0].writes.clone());
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
        storage.crash();
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
        storage.crash();
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
        storage.crash();
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
        let prepared = storage.prepare_many(&[txn(1), txn(2), txn(3)]);
        assert_eq!(storage.force_count(), before + 1, "one force per group");
        assert_eq!(prepared.len(), 3);
        assert_eq!(prepared[1], vec![(item("y"), Value::Int(2), Version(1))]);

        let before = storage.force_count();
        let installed = storage.commit_many(&[txn(1), txn(2), txn(3)]);
        assert_eq!(storage.force_count(), before + 1, "one force per group");
        assert_eq!(installed.len(), 3);
        assert_eq!(
            storage.read(&item("z")).unwrap(),
            (Value::Int(3), Version(1))
        );

        // The batch is as durable as individual forced commits.
        storage.crash();
        let outcome = storage.recover().unwrap();
        assert!(outcome.in_doubt.is_empty());
        assert_eq!(
            storage.read(&item("x")).unwrap(),
            (Value::Int(1), Version(1))
        );
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let storage = SiteStorage::new(SiteId(0));
        let before = storage.force_count();
        assert!(storage.prepare_many(&[]).is_empty());
        assert!(storage.commit_many(&[]).is_empty());
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

    #[test]
    fn clones_share_state() {
        let storage = SiteStorage::new(SiteId(0));
        let other = storage.clone();
        storage.initialize(&[(item("x"), Value::Int(3))]);
        assert_eq!(other.read(&item("x")).unwrap(), (Value::Int(3), Version(0)));
    }
}
