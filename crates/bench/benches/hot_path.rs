//! Hot-path microbenchmarks for the data-plane overhaul: interned item ids
//! and the sharded lock table.
//!
//! Each measurement compares the current implementation against an embedded
//! **baseline** reproducing the seed design: `String`-keyed maps behind one
//! global mutex (lock table) / one `RwLock`-guarded `BTreeMap` (store).
//! Results are printed as a table and written to `BENCH_hotpath.json` at the
//! repo root. (What a quorum costs end to end is measured in absolute terms
//! by the repository benchmark's `read_mostly` and `update_lan` workloads.)
//!
//! Run with: `cargo bench --bench hot_path` (add `-- --quick` for a smoke
//! run, as CI does; `--out PATH` writes JSON to PATH even in quick mode,
//! which is how the `bench-regression` gate gets a fresh measurement).

use criterion::black_box;
use rainbow_cc::{LockManager, LockMode};
use rainbow_common::protocol::DeadlockPolicy;
use rainbow_common::{ItemId, SiteId, Timestamp, TxnId, Value, Version};
use rainbow_storage::SiteStorage;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Condvar, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Baseline: the seed's data-plane layout
// ---------------------------------------------------------------------------

/// The seed's lock table and store: one global mutex, `String` keys cloned
/// on every access, `retain`-based release, `BTreeMap` storage.
mod baseline {
    use super::*;

    /// The seed's `LockTable`: every field in one struct behind one mutex,
    /// `String` keys, released with `retain` scans and an unconditional
    /// condvar broadcast — a faithful port of the pre-overhaul
    /// `crates/rainbow-cc/src/lock.rs`.
    #[derive(Default)]
    struct ItemState {
        holders: Vec<(TxnId, bool)>,
        waiters: std::collections::VecDeque<TxnId>,
    }

    #[derive(Default)]
    struct Table {
        items: HashMap<String, ItemState>,
        held: HashMap<TxnId, HashSet<String>>,
        timestamps: HashMap<TxnId, Timestamp>,
        wounded: HashSet<TxnId>,
        waits_for: HashMap<TxnId, HashSet<TxnId>>,
    }

    pub struct GlobalLockTable {
        table: Mutex<Table>,
        released: Condvar,
    }

    impl GlobalLockTable {
        pub fn new() -> Self {
            GlobalLockTable {
                table: Mutex::new(Table::default()),
                released: Condvar::new(),
            }
        }

        pub fn acquire(&self, txn: TxnId, ts: Timestamp, item: &str, exclusive: bool) -> bool {
            let mut table = self.table.lock().unwrap();
            table.timestamps.insert(txn, ts);
            if table.wounded.contains(&txn) {
                return false;
            }
            let state = table.items.entry(item.to_string()).or_default();
            let compatible = state
                .holders
                .iter()
                .all(|(holder, held_exclusive)| *holder == txn || (!*held_exclusive && !exclusive));
            if !compatible {
                // Wait-die would now consult the holders' timestamps; the
                // bench workload never conflicts, so this path is cold.
                return false;
            }
            if !state.holders.iter().any(|(holder, _)| *holder == txn) {
                state.holders.push((txn, exclusive));
            }
            table.held.entry(txn).or_default().insert(item.to_string());
            // The seed's grant path ran `cleanup_waiter` unconditionally:
            // a waiter-list retain scan plus a wait-for-graph removal.
            if let Some(state) = table.items.get_mut(item) {
                state.waiters.retain(|waiter| *waiter != txn);
            }
            table.waits_for.remove(&txn);
            true
        }

        pub fn release_all(&self, txn: TxnId) {
            let mut table = self.table.lock().unwrap();
            if let Some(items) = table.held.remove(&txn) {
                for item in items {
                    if let Some(state) = table.items.get_mut(&item) {
                        state.holders.retain(|(holder, _)| *holder != txn);
                        if state.holders.is_empty() && state.waiters.is_empty() {
                            table.items.remove(&item);
                        }
                    }
                }
            }
            table.wounded.remove(&txn);
            table.waits_for.remove(&txn);
            table.timestamps.remove(&txn);
            drop(table);
            // The seed broadcast on every release, waiters or not.
            self.released.notify_all();
        }
    }

    /// The seed's store: `BTreeMap` keyed by owned strings behind a
    /// `RwLock`, with the per-access key clone the `ItemId(String)` design
    /// forced on callers, plus the seed's stage → install → forced-log
    /// commit cycle.
    type StagedWrites = HashMap<TxnId, BTreeMap<String, (Value, Version)>>;
    type CommitLog = Vec<(TxnId, Vec<(String, Value, Version)>)>;

    pub struct BTreeStore {
        copies: RwLock<BTreeMap<String, (Value, Version)>>,
        staged: Mutex<StagedWrites>,
        log: Mutex<CommitLog>,
    }

    impl BTreeStore {
        pub fn new(items: &[String]) -> Self {
            let copies = items
                .iter()
                .map(|name| (name.clone(), (Value::Int(1000), Version(0))))
                .collect();
            BTreeStore {
                copies: RwLock::new(copies),
                staged: Mutex::new(HashMap::new()),
                log: Mutex::new(Vec::new()),
            }
        }

        pub fn read(&self, item: &str) -> Option<(Value, Version)> {
            // The seed cloned the heap-backed id on every access path
            // (reads-map inserts, message payloads, lock bookkeeping).
            let key: String = item.to_string();
            self.copies.read().unwrap().get(&key).cloned()
        }

        pub fn stage_write(&self, txn: TxnId, item: &str, value: Value, version: Version) {
            self.staged
                .lock()
                .unwrap()
                .entry(txn)
                .or_default()
                .insert(item.to_string(), (value, version));
        }

        pub fn commit(&self, txn: TxnId) -> usize {
            let writes = self.staged.lock().unwrap().remove(&txn).unwrap_or_default();
            let mut installed = Vec::with_capacity(writes.len());
            {
                let mut copies = self.copies.write().unwrap();
                for (item, (value, version)) in writes {
                    copies.insert(item.clone(), (value.clone(), version));
                    installed.push((item, value, version));
                }
            }
            let count = installed.len();
            // The seed forced a commit record carrying a clone of the writes.
            self.log.lock().unwrap().push((txn, installed));
            count
        }
    }
}

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Throughput {
    ops_per_sec: f64,
    ns_per_op: f64,
}

fn run_threads<F>(threads: usize, iters_per_thread: u64, op: F) -> Throughput
where
    F: Fn(usize, u64) + Send + Sync,
{
    let op = &op;
    let start = Instant::now();
    thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                for i in 0..iters_per_thread {
                    op(t, i);
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let total_ops = threads as f64 * iters_per_thread as f64;
    Throughput {
        ops_per_sec: total_ops / elapsed.as_secs_f64(),
        ns_per_op: elapsed.as_nanos() as f64 / total_ops,
    }
}

fn item_names(count: usize) -> Vec<String> {
    (0..count).map(|i| format!("bench.item.{i:05}")).collect()
}

/// Runs a paired measurement three times and returns the run with the
/// median *combined* throughput, damping scheduler noise on small CI boxes
/// without letting the two sides be picked from different runs.
fn median_of_3(mut measure: impl FnMut() -> (Throughput, Throughput)) -> (Throughput, Throughput) {
    let mut runs: Vec<(Throughput, Throughput)> = (0..3).map(|_| measure()).collect();
    runs.sort_by(|a, b| {
        let ka = a.0.ops_per_sec + a.1.ops_per_sec;
        let kb = b.0.ops_per_sec + b.1.ops_per_sec;
        ka.partial_cmp(&kb).expect("finite throughput")
    });
    runs[1]
}

// ---------------------------------------------------------------------------
// Benchmarks
// ---------------------------------------------------------------------------

const THREADS: usize = 4;

fn bench_lock_tables(iters: u64) -> (Throughput, Throughput) {
    let names = item_names(THREADS * 16);

    let base = baseline::GlobalLockTable::new();
    let baseline_result = run_threads(THREADS, iters, |t, i| {
        let txn = TxnId::new(SiteId(t as u32), i);
        let ts = Timestamp::new(i + 1, t as u32);
        // Each iteration locks 4 distinct items and releases them, like a
        // small transaction; threads use disjoint item sets (the workload
        // has no logical contention — only data-structure contention).
        for k in 0..4 {
            let item = &names[t * 16 + ((i as usize + k) % 16)];
            black_box(base.acquire(txn, ts, item, true));
        }
        base.release_all(txn);
    });

    let sharded = LockManager::new(DeadlockPolicy::WaitDie, Duration::from_millis(10));
    let ids: Vec<ItemId> = names.iter().map(ItemId::new).collect();
    let ids = &ids;
    let sharded_ref = &sharded;
    let sharded_result = run_threads(THREADS, iters, |t, i| {
        let txn = TxnId::new(SiteId(t as u32), i);
        let ts = Timestamp::new(i + 1, t as u32);
        for k in 0..4 {
            let item = &ids[t * 16 + ((i as usize + k) % 16)];
            black_box(
                sharded_ref
                    .acquire(txn, ts, item, LockMode::Exclusive)
                    .is_ok(),
            );
        }
        sharded_ref.release_all(txn);
    });

    (baseline_result, sharded_result)
}

fn bench_store_reads(iters: u64) -> (Throughput, Throughput) {
    const ITEMS: usize = 10_000;
    let names = item_names(ITEMS);

    let base = baseline::BTreeStore::new(&names);
    let names_ref = &names;
    let base_ref = &base;
    let baseline_result = run_threads(THREADS, iters, |t, i| {
        let idx = ((t as u64).wrapping_mul(7919).wrapping_add(i * 31)) as usize % ITEMS;
        black_box(base_ref.read(&names_ref[idx]));
    });

    let storage = SiteStorage::new(SiteId(0));
    let initial: Vec<(ItemId, Value)> = names
        .iter()
        .map(|name| (ItemId::new(name), Value::Int(1000)))
        .collect();
    storage.initialize(&initial);
    let ids: Vec<ItemId> = names.iter().map(ItemId::new).collect();
    let (ids_ref, storage_ref) = (&ids, &storage);
    let interned_result = run_threads(THREADS, iters, |t, i| {
        let idx = ((t as u64).wrapping_mul(7919).wrapping_add(i * 31)) as usize % ITEMS;
        // The clone mirrors what callers do with the id on every access
        // (reads-map inserts, message payloads) — for interned ids it is an
        // atomic increment instead of a heap copy.
        let id = ids_ref[idx].clone();
        black_box(storage_ref.read(&id).ok());
    });

    (baseline_result, interned_result)
}

fn bench_store_writes(iters: u64) -> (Throughput, Throughput) {
    const ITEMS: usize = 4_096;
    let names = item_names(ITEMS);

    let base = baseline::BTreeStore::new(&names);
    let (names_ref, base_ref) = (&names, &base);
    let baseline_result = run_threads(THREADS, iters, |t, i| {
        let idx = ((t as u64).wrapping_mul(104_729).wrapping_add(i * 17)) as usize % ITEMS;
        let txn = TxnId::new(SiteId(t as u32), i);
        base_ref.stage_write(txn, &names_ref[idx], Value::Int(i as i64), Version(i));
        black_box(base_ref.commit(txn));
    });

    let storage = SiteStorage::new(SiteId(0));
    let initial: Vec<(ItemId, Value)> = names
        .iter()
        .map(|name| (ItemId::new(name), Value::Int(1000)))
        .collect();
    storage.initialize(&initial);
    let ids: Vec<ItemId> = names.iter().map(ItemId::new).collect();
    let (ids_ref, storage_ref) = (&ids, &storage);
    let interned_result = run_threads(THREADS, iters, |t, i| {
        let idx = ((t as u64).wrapping_mul(104_729).wrapping_add(i * 17)) as usize % ITEMS;
        let txn = TxnId::new(SiteId(t as u32), i);
        storage_ref.stage_write(txn, ids_ref[idx].clone(), Value::Int(i as i64), Version(i));
        black_box(storage_ref.commit(txn));
    });

    (baseline_result, interned_result)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_override = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let (lock_iters, store_iters) = if quick {
        (20_000, 50_000)
    } else {
        (200_000, 500_000)
    };

    println!("hot-path benchmarks ({THREADS} threads; baseline = String keys + global mutex)\n");

    let (lock_base, lock_sharded) = median_of_3(|| bench_lock_tables(lock_iters));
    let lock_speedup = lock_sharded.ops_per_sec / lock_base.ops_per_sec;
    println!(
        "lock acquire/release   baseline {:>12.0} ops/s ({:>7.1} ns/op)",
        lock_base.ops_per_sec, lock_base.ns_per_op
    );
    println!(
        "                       sharded  {:>12.0} ops/s ({:>7.1} ns/op)   {lock_speedup:.2}x",
        lock_sharded.ops_per_sec, lock_sharded.ns_per_op
    );

    let (read_base, read_interned) = median_of_3(|| bench_store_reads(store_iters));
    let read_speedup = read_interned.ops_per_sec / read_base.ops_per_sec;
    println!(
        "store read             baseline {:>12.0} ops/s ({:>7.1} ns/op)",
        read_base.ops_per_sec, read_base.ns_per_op
    );
    println!(
        "                       interned {:>12.0} ops/s ({:>7.1} ns/op)   {read_speedup:.2}x",
        read_interned.ops_per_sec, read_interned.ns_per_op
    );

    let (write_base, write_interned) = median_of_3(|| bench_store_writes(store_iters / 5));
    let write_speedup = write_interned.ops_per_sec / write_base.ops_per_sec;
    println!(
        "store stage+commit     baseline {:>12.0} ops/s ({:>7.1} ns/op)",
        write_base.ops_per_sec, write_base.ns_per_op
    );
    println!(
        "                       interned {:>12.0} ops/s ({:>7.1} ns/op)   {write_speedup:.2}x",
        write_interned.ops_per_sec, write_interned.ns_per_op
    );

    let json = format!(
        "{{\n  \"config\": {{\"threads\": {THREADS}, \"lock_iters_per_thread\": {lock_iters}, \"store_iters_per_thread\": {store_iters}, \"quick\": {quick}}},\n  \"lock_acquire_release\": {{\"baseline_ops_per_sec\": {:.0}, \"sharded_ops_per_sec\": {:.0}, \"speedup\": {:.2}}},\n  \"store_read\": {{\"baseline_ops_per_sec\": {:.0}, \"interned_ops_per_sec\": {:.0}, \"speedup\": {:.2}}},\n  \"store_write\": {{\"baseline_ops_per_sec\": {:.0}, \"interned_ops_per_sec\": {:.0}, \"speedup\": {:.2}}}\n}}\n",
        lock_base.ops_per_sec,
        lock_sharded.ops_per_sec,
        lock_speedup,
        read_base.ops_per_sec,
        read_interned.ops_per_sec,
        read_speedup,
        write_base.ops_per_sec,
        write_interned.ops_per_sec,
        write_speedup,
    );
    if let Some(path) = out_override {
        match std::fs::write(&path, &json) {
            Ok(()) => println!("\nresults written to {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if quick {
        // Smoke runs (CI) must not clobber the committed full-run numbers.
        println!("\nquick run: BENCH_hotpath.json left untouched");
        return;
    }
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    match std::fs::write(out, &json) {
        Ok(()) => println!("\nresults written to BENCH_hotpath.json"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }
}
