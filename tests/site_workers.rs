//! The site runtime's threading rule, observed from outside: *a site is its
//! event loop, plus a syncer when its log needs a sync to be durable; a
//! copy access that must wait is parked at the site and asked again, and no
//! thread is ever created, lent or held for a transaction.*
//!
//! * **a site is exactly one thread** — starting a cluster starts one thread
//!   per site, the name server's and the network's, and nothing else on a
//!   memory log; on segment files each site has its syncer besides, which
//!   syncs what the loop wrote to the log while the loop keeps serving;
//! * **an idle site sleeps** — the loop wakes for a message or for its
//!   next deadline (a parked access's, or the janitor's every 200 ms),
//!   never on a polling tick; before it blocks it checks its mailbox a
//!   bounded number of times, yielding between checks, so an idle site
//!   uses no processor time;
//! * **no thread per transaction, contended or not** — uncontended update
//!   and read transactions park nothing, and neither they nor transactions
//!   that wait for each other's locks move the process's thread count;
//! * **the loop never waits**, under each CCP — while one access waits for a
//!   lock (2PL) or behind an earlier pending pre-write (TSO, MVTO), traffic
//!   for other items at the same sites is served at full speed;
//! * **shutdown joins every thread** — starting and stopping clusters leaves
//!   no thread behind.
//!
//! This file is its own test binary (so its own process), and its tests take
//! turns: they read the process-wide thread count.

use rainbow_common::protocol::{CcpKind, ProtocolStack};
use rainbow_common::{SiteId, Value};
use rainbow_control::Session;
use rainbow_core::{Client, Cluster, ClusterConfig, RetryPolicy, StorageConfig};
use rainbow_wlg::{ArrivalProcess, WorkloadGenerator, WorkloadProfile};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static TAKING_TURNS: Mutex<()> = Mutex::new(());

fn take_turn() -> std::sync::MutexGuard<'static, ()> {
    TAKING_TURNS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The `Threads:` line of `/proc/self/status`.
#[cfg(target_os = "linux")]
fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status is readable")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("a Threads: line")
}

/// The thread count once the threads that have just finished are gone from
/// it: a thread lingers in `/proc` for a moment after it was joined, so this
/// waits (not for long) for the count to come down to `expected`. A thread
/// that was created and kept is still there at the end of the wait.
#[cfg(target_os = "linux")]
fn threads_settled_at(expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let threads = process_threads();
        if threads <= expected || Instant::now() >= deadline {
            return threads;
        }
        std::thread::yield_now();
    }
}

/// Every thread of the process by id, with its name (`comm`, which the
/// kernel cuts to 15 bytes). A thread that ends while this reads is left
/// out.
#[cfg(target_os = "linux")]
fn threads_by_id() -> BTreeMap<u64, String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task is readable")
        .filter_map(|task| {
            let task = task.ok()?;
            let id = task.file_name().to_str()?.parse().ok()?;
            let name = std::fs::read_to_string(task.path().join("comm")).ok()?;
            Some((id, name.trim_end().to_string()))
        })
        .collect()
}

/// The threads this thread started since `before` was taken, once each has
/// named itself: a new thread carries the name of the thread that created
/// it until it does (and keeps it if it never does). Threads named neither
/// way are the test harness's, starting the next test meanwhile.
#[cfg(target_os = "linux")]
fn started_since(before: &BTreeMap<u64, String>) -> BTreeMap<u64, String> {
    let creator = std::fs::read_to_string("/proc/thread-self/comm").expect("a comm");
    let unnamed = |name: &String| name == creator.trim_end();
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let mut now = threads_by_id();
        now.retain(|id, name| {
            !before.contains_key(id) && (name.starts_with("rainbow-") || unnamed(name))
        });
        if !now.values().any(unnamed) || Instant::now() >= deadline {
            return now;
        }
        std::thread::yield_now();
    }
}

/// Runs `run` and returns what it returned, with the threads started while
/// it ran: a watcher polls `threads_by_id` throughout, since a thread that
/// ended before `run` returned is gone from `started_since` afterwards.
/// Counted as `started_since` counts: named `rainbow-*`, or not named.
#[cfg(target_os = "linux")]
fn threads_started_by<T>(run: impl FnOnce() -> T) -> (T, BTreeMap<u64, String>) {
    let before = threads_by_id();
    let creator = std::fs::read_to_string("/proc/thread-self/comm").expect("a comm");
    let counted = |name: &String| name.starts_with("rainbow-") || name == creator.trim_end();
    let running = AtomicBool::new(true);
    std::thread::scope(|scope| {
        let watcher = std::thread::Builder::new().name("watcher".into());
        let watcher = watcher.spawn_scoped(scope, || {
            let me = std::fs::read_link("/proc/thread-self").expect("a thread-self link");
            let me: u64 = me.file_name().unwrap().to_str().unwrap().parse().unwrap();
            let mut seen = BTreeMap::new();
            while running.load(Ordering::Relaxed) {
                for (id, name) in threads_by_id() {
                    if id != me && !before.contains_key(&id) && counted(&name) {
                        seen.insert(id, name);
                    }
                }
                std::thread::yield_now();
            }
            seen
        });
        let watcher = watcher.expect("a watcher thread");
        let out = run();
        running.store(false, Ordering::Relaxed);
        (out, watcher.join().expect("the watcher ends"))
    })
}

/// How often thread `id` has gone to sleep (`voluntary_ctxt_switches`).
#[cfg(target_os = "linux")]
fn sleeps_of(id: u64) -> u64 {
    std::fs::read_to_string(format!("/proc/self/task/{id}/status"))
        .expect("the thread is alive")
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("a voluntary_ctxt_switches: line")
}

/// The processor time thread `id` has used, user and system (`utime` +
/// `stime` of `/proc/self/task/<id>/stat`, in ticks of 10 ms).
#[cfg(target_os = "linux")]
fn cpu_ticks_of(id: u64) -> u64 {
    let stat =
        std::fs::read_to_string(format!("/proc/self/task/{id}/stat")).expect("the thread is alive");
    // The fields after the name, which is in parentheses and may hold
    // spaces: state is the first of them, utime the 12th and stime the 13th.
    let (_, fields) = stat.rsplit_once(')').expect("a (comm) field");
    let fields: Vec<&str> = fields.split_whitespace().collect();
    let tick = |at: usize| fields[at].parse::<u64>().expect("a tick count");
    tick(11) + tick(12)
}

fn cluster(stack: ProtocolStack) -> Cluster {
    let config = ClusterConfig::quick(3, 8, 3).unwrap().with_stack(stack);
    Cluster::start(config).unwrap()
}

/// Three sites on `storage`.
#[cfg(target_os = "linux")]
fn cluster_on(storage: StorageConfig) -> Cluster {
    let config = ClusterConfig::quick(3, 8, 3).unwrap();
    Cluster::start(config.with_storage(storage)).unwrap()
}

#[cfg(target_os = "linux")]
#[test]
fn a_site_is_exactly_one_thread() {
    let _turn = take_turn();
    let dir = std::env::temp_dir().join(format!("rainbow-one-thread-{}", std::process::id()));
    let disk = StorageConfig {
        ephemeral: true,
        ..StorageConfig::disk(dir)
    };
    // Neither engine starts a thread of its own: the site's loop is the one
    // writer of its log, and compacts it inline. A log on segment files
    // needs a sync, which each site's syncer runs beside the loop.
    let syncers: &[&str] = &["rainbow-sync-0", "rainbow-sync-1", "rainbow-sync-2"];
    for (storage, syncers) in [(StorageConfig::memory(), &[][..]), (disk, syncers)] {
        let engine = storage.engine;
        let before = threads_by_id();
        let mut cluster = cluster_on(storage);
        let mut started: Vec<String> = started_since(&before).into_values().collect();
        started.sort();
        assert!(
            !started
                .iter()
                .any(|name| name.starts_with("rainbow-reacto")),
            "{started:?}"
        );
        let mut expected = vec![
            "rainbow-nameser",
            "rainbow-net-del",
            "rainbow-site-0",
            "rainbow-site-1",
            "rainbow-site-2",
        ];
        expected.extend(syncers);
        expected.sort();
        assert_eq!(
            started, expected,
            "{engine:?}: one thread per site and a syncer when its log needs one, and nothing else"
        );
        cluster.shutdown();
        // Shutdown joins each of them. (A joined thread lingers in `/proc`
        // for a moment; the harness may start another test's thread
        // meanwhile, which is not counted.)
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut left = started_since(&before);
        while !left.is_empty() && Instant::now() < deadline {
            std::thread::yield_now();
            left = started_since(&before);
        }
        assert!(left.is_empty(), "{engine:?}: {left:?}");
    }
}

/// One open conversation, then 200 ms of nothing: a site loop sleeps until
/// a message arrives or its next deadline falls due, and with nothing
/// parked that is the janitor's, every 200 ms. So the three sites go to
/// sleep about once each (3 here). Loops polling a 1 ms tick would go to
/// sleep some 200 times each. A loop checks its mailbox a few times, with a
/// yield between checks, before it blocks; a yield is no voluntary switch,
/// so a loop that never stopped yielding would pass the count. It shows in
/// the processor time instead: the idle sites use none of the 200 ms (a
/// loop that only yields used 37–38 ticks of 10 ms on a 2-core VM).
#[cfg(target_os = "linux")]
#[test]
fn an_idle_site_sleeps() {
    let _turn = take_turn();
    let before = threads_by_id();
    let cluster = cluster_on(StorageConfig::memory());
    // The sites' threads: whatever the cluster started but the name
    // server's and the network's.
    let others = ["rainbow-nameser", "rainbow-net-del"];
    let mut site_threads = started_since(&before);
    site_threads.retain(|_, name| !others.contains(&name.as_str()));
    let sleeps = || site_threads.keys().map(|id| sleeps_of(*id)).sum::<u64>();
    let ticks = || site_threads.keys().map(|id| cpu_ticks_of(*id)).sum::<u64>();

    let mut client = cluster.client();
    let mut txn = client.begin("idle");
    txn.read("x0").unwrap();
    let (asleep_before, ticks_before) = (sleeps(), ticks());
    std::thread::sleep(Duration::from_millis(200));
    let (slept, busy) = (sleeps() - asleep_before, ticks() - ticks_before);
    assert!(
        slept < 60,
        "{} site threads went to sleep {slept} times in 200 ms idle",
        site_threads.len()
    );
    assert!(
        busy <= 2,
        "{} site threads used {busy} ticks of 10 ms processor time in 200 ms idle",
        site_threads.len()
    );
    txn.commit().unwrap();
}

/// The disk leg, with a held acknowledgement: T1 reads `x0` at site 0 and
/// stays open, so it is still to vote at the sites it read from; T2
/// increments `x1` there and commits. Its acks wait for a vote to ride on
/// (T1's never comes) and ask for their sync on their own at their bound, a
/// tenth of the 500 ms commit timeout: T2's machine retires 50 ms after the
/// commit, long before the janitor's next run, which is ≈ 200 ms after the
/// cluster started (an ack that waited for the next wake-up rather than its
/// deadline would still be held at 90 ms). Over the 200 ms the site loops
/// and their syncers sleep as the memory leg's do.
#[cfg(target_os = "linux")]
#[test]
fn an_idle_disk_site_holding_an_ack_sleeps_and_sends_it_at_its_bound() {
    let _turn = take_turn();
    let dir = std::env::temp_dir().join(format!("rainbow-idle-ack-{}", std::process::id()));
    let disk = StorageConfig {
        ephemeral: true,
        ..StorageConfig::disk(dir)
    };
    let before = threads_by_id();
    let cluster = cluster_on(disk);
    let others = ["rainbow-nameser", "rainbow-net-del"];
    let mut site_threads = started_since(&before);
    site_threads.retain(|_, name| !others.contains(&name.as_str()));
    let sleeps = || site_threads.keys().map(|id| sleeps_of(*id)).sum::<u64>();
    let ticks = || site_threads.keys().map(|id| cpu_ticks_of(*id)).sum::<u64>();
    let bound = cluster.config().stack.commit_timeout / 10;

    let (mut voter, mut acked) = (cluster.client(), cluster.client());
    let mut t1 = voter.begin_at("to-vote", SiteId(0));
    t1.read("x0").unwrap();
    let mut t2 = acked.begin_at("acked", SiteId(0));
    t2.increment("x1", 1).unwrap();
    t2.commit().unwrap();
    let committed = Instant::now();
    let (asleep_before, ticks_before) = (sleeps(), ticks());
    let open = cluster.open_conversations();
    if committed.elapsed() < bound / 2 {
        assert_eq!(open, 2, "T2's machine waits for its acks");
    }
    let until = |at: Instant| std::thread::sleep(at.saturating_duration_since(Instant::now()));
    until(committed + bound + Duration::from_millis(40));
    assert_eq!(
        cluster.open_conversations(),
        1,
        "T2's acks left at their bound"
    );
    until(committed + Duration::from_millis(200));
    let (slept, busy) = (sleeps() - asleep_before, ticks() - ticks_before);
    assert!(
        slept < 60,
        "{} site threads went to sleep {slept} times in 200 ms",
        site_threads.len()
    );
    assert!(
        busy <= 2,
        "{} site threads used {busy} ticks of 10 ms processor time in 200 ms",
        site_threads.len()
    );
    t1.commit().unwrap();
}

/// 200 ms of nothing on a perfect network: its delivery thread holds no
/// message, so it blocks until one is sent and does not go to sleep again.
/// A delivery thread polling every 50 ms would sleep about 4 times.
#[cfg(target_os = "linux")]
#[test]
fn an_idle_network_sleeps() {
    let _turn = take_turn();
    let before = threads_by_id();
    let cluster = cluster_on(StorageConfig::memory());
    let started = started_since(&before);
    let (&network, _) = started
        .iter()
        .find(|(_, name)| *name == "rainbow-net-del")
        .expect("the network's delivery thread");
    let asleep_before = sleeps_of(network);
    std::thread::sleep(Duration::from_millis(200));
    let slept = sleeps_of(network) - asleep_before;
    assert!(
        slept <= 1,
        "the idle network's delivery thread went to sleep {slept} times in 200 ms"
    );
    drop(cluster);
}

fn increment(client: &mut Client, item: usize) {
    let mut txn = client.begin("increment");
    txn.increment(format!("x{}", item % 8), 1).unwrap();
    txn.commit().unwrap();
}

fn read_four(client: &mut Client, first: usize) {
    let mut txn = client.begin("read-many");
    let values = txn
        .read_many((0..4).map(|k| format!("x{}", (first + k) % 8)))
        .unwrap();
    assert_eq!(values.len(), 4);
    txn.commit().unwrap();
}

#[test]
fn a_warm_cluster_creates_no_thread_per_transaction() {
    let _turn = take_turn();
    let cluster = cluster(ProtocolStack::rainbow_default());
    let mut client = cluster.client();
    // Warm-up for the process's thread count only (the client endpoint); the
    // sites started every thread they will use when the cluster started.
    for i in 0..12 {
        increment(&mut client, i);
        read_four(&mut client, i);
    }
    let inline_before = cluster.copy_accesses_inline();
    #[cfg(target_os = "linux")]
    let threads_before = process_threads();

    for i in 0..300 {
        increment(&mut client, i);
    }
    for i in 0..300 {
        read_four(&mut client, i);
    }

    #[cfg(target_os = "linux")]
    assert_eq!(process_threads(), threads_before);
    // Nothing contended, so nothing was parked: every copy access (at least
    // a majority of 3 per item touched) was answered the first time.
    assert_eq!(cluster.copy_accesses_parked(), 0);
    assert!(cluster.copy_accesses_inline() - inline_before >= 2 * (300 + 4 * 300));
}

/// One-shot specs run as conversations on one client endpoint, on the
/// caller's thread: a closed workload of 8 at a time and an open one (a spec
/// every 500 µs) start no thread at all, not one per open conversation nor
/// one per request.
#[cfg(target_os = "linux")]
#[test]
fn one_shot_workloads_start_no_thread() {
    let _turn = take_turn();
    let cluster = cluster(ProtocolStack::rainbow_default());
    let items = cluster.config().database.item_ids();
    let params = WorkloadProfile::ReadHeavy.params(items, cluster.site_ids(), 40, 1);
    let specs = WorkloadGenerator::new(params).generate();
    let (results, started) = threads_started_by(|| cluster.run_workload(specs, 8));
    assert_eq!(results.len(), 40);
    let orphans: Vec<_> = results.iter().filter(|r| r.outcome.is_orphaned()).collect();
    assert!(orphans.is_empty(), "{orphans:?}");
    assert!(started.is_empty(), "run_workload started {started:?}");

    let mut session = Session::new();
    session.configure_sites(3).unwrap();
    session.configure_uniform_database(8, 100, 3).unwrap();
    session.start().unwrap();
    let open = ArrivalProcess::Uniform { gap_micros: 500 };
    let (report, started) =
        threads_started_by(|| session.run_generated(WorkloadProfile::ReadHeavy, 40, open));
    assert_eq!(report.unwrap().results.len(), 40, "one result per spec");
    assert!(started.is_empty(), "open arrivals started {started:?}");
}

/// T1 holds write access to `x0`; T2's read of `x0` has to wait for it; T3,
/// touching only `x1` at the same sites, must not notice.
fn site_loop_serves_others_while_an_access_waits(ccp: CcpKind) {
    let lock_wait = Duration::from_secs(4);
    let cluster = cluster(
        ProtocolStack::rainbow_default()
            .with_ccp(ccp)
            .with_lock_wait_timeout(lock_wait)
            .with_quorum_timeout(Duration::from_secs(8))
            .with_commit_timeout(Duration::from_secs(8)),
    );
    // All three begin at one home site, so their timestamps are ordered
    // T1 < T2 < T3 whatever the sites' clocks have seen.
    let home = SiteId(0);
    let mut client1 = cluster.client();
    let mut t1 = client1.begin_at("t1", home);
    t1.increment("x0", 5).unwrap();

    let parked_before = cluster.copy_accesses_parked();
    #[cfg(target_os = "linux")]
    let threads_before = process_threads();
    let (t2_tx, t2_rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut client2 = cluster.client();
            let mut t2 = client2.begin_at("t2", home);
            let seen = t2.read("x0");
            t2_tx.send(seen.clone()).unwrap();
            if seen.is_ok() {
                t2.commit().unwrap();
            }
        });
        // T2's access is waiting once a site has parked it — which takes
        // no thread but the one this test gave T2's client.
        let deadline = Instant::now() + lock_wait / 2;
        while cluster.copy_accesses_parked() == parked_before {
            assert!(Instant::now() < deadline, "{ccp}: T2 never had to wait");
            std::thread::yield_now();
        }
        #[cfg(target_os = "linux")]
        assert_eq!(process_threads(), threads_before + 1, "{ccp}");

        let started = Instant::now();
        let mut client3 = cluster.client();
        let mut t3 = client3.begin_at("t3", home);
        t3.increment("x1", 1).unwrap();
        t3.commit().unwrap();
        let t3_took = started.elapsed();
        assert!(
            t3_took < lock_wait / 8,
            "{ccp}: T3 took {t3_took:?} while T2 waited — a site loop was waiting too"
        );
        assert!(t2_rx.try_recv().is_err(), "{ccp}: T2 did not wait for T1");

        t1.commit().unwrap();
        let seen = t2_rx
            .recv_timeout(lock_wait)
            .expect("T2 is answered once T1 commits");
        assert_eq!(seen, Ok(Value::Int(105)), "{ccp}: T2 must read T1's value");
    });
    #[cfg(target_os = "linux")]
    assert_eq!(threads_settled_at(threads_before), threads_before, "{ccp}");
}

#[test]
fn the_dispatcher_never_waits_under_two_phase_locking() {
    let _turn = take_turn();
    site_loop_serves_others_while_an_access_waits(CcpKind::TwoPhaseLocking);
}

#[test]
fn the_dispatcher_never_waits_under_timestamp_ordering() {
    let _turn = take_turn();
    site_loop_serves_others_while_an_access_waits(CcpKind::TimestampOrdering);
}

#[test]
fn the_dispatcher_never_waits_under_multiversion_timestamp_ordering() {
    let _turn = take_turn();
    site_loop_serves_others_while_an_access_waits(CcpKind::MultiversionTimestampOrdering);
}

/// Two clients move money between the same two accounts in opposite orders:
/// lock waits, deadlock victims and retries all the way.
#[test]
fn a_contended_run_creates_no_thread() {
    let _turn = take_turn();
    let cluster = cluster(ProtocolStack::rainbow_default());
    let transfers = |from: &'static str, to: &'static str| {
        let patient = RetryPolicy {
            max_attempts: 50,
            ..RetryPolicy::default()
        };
        let mut client = cluster.client().with_retry_policy(patient);
        for _ in 0..100 {
            let moved = client.run("transfer", |txn| {
                txn.increment(from, -1)?;
                txn.increment(to, 1)
            });
            moved.expect("a transfer commits within its retries");
        }
    };
    // Warm-up for the process's thread count only (the client endpoints).
    transfers("x0", "x1");
    transfers("x1", "x0");
    let parked_before = cluster.copy_accesses_parked();
    #[cfg(target_os = "linux")]
    let threads_before = process_threads();
    std::thread::scope(|scope| {
        scope.spawn(|| transfers("x0", "x1"));
        transfers("x1", "x0");
        // The other client is still at it, or its thread has exited.
        #[cfg(target_os = "linux")]
        assert!(process_threads() <= threads_before + 1);
    });
    #[cfg(target_os = "linux")]
    assert_eq!(threads_settled_at(threads_before), threads_before);
    assert!(
        cluster.copy_accesses_parked() > parked_before,
        "200 opposed transfers never waited for each other"
    );
}

/// On each medium: a memory log's sites are their loops, and a disk log's
/// have their syncers too, which shutdown joins as well.
#[test]
fn shutdown_joins_every_thread() {
    let _turn = take_turn();
    let dir = std::env::temp_dir().join(format!("rainbow-joins-{}", std::process::id()));
    let disk = StorageConfig {
        ephemeral: true,
        ..StorageConfig::disk(dir)
    };
    for storage in [StorageConfig::memory(), disk] {
        // One full cycle first, so one-time process state (allocator arenas
        // do not count, lazily started helpers would) is behind us.
        let cycle = || {
            let config = ClusterConfig::quick(3, 8, 3).unwrap();
            let config = config.with_storage(storage.clone());
            let mut cluster = Cluster::start(config).unwrap();
            increment(&mut cluster.client(), 0);
            cluster.shutdown();
        };
        cycle();
        #[cfg(target_os = "linux")]
        let threads_before = process_threads();
        for _ in 0..50 {
            cycle();
        }
        // The site threads of fifty clusters were all joined.
        #[cfg(target_os = "linux")]
        assert_eq!(
            threads_settled_at(threads_before),
            threads_before,
            "{:?}",
            storage.engine
        );
    }
}
