//! The site runtime's threading rule, observed from outside: *a site's
//! threads are its dispatcher and its reactors; a copy access that must wait
//! is parked at the site and asked again, and no thread is ever created,
//! lent or held for it.*
//!
//! * **no thread per transaction, contended or not** — uncontended update
//!   and read transactions park nothing, and neither they nor transactions
//!   that wait for each other's locks move the process's thread count;
//! * **the dispatcher never waits**, under each CCP — while one access waits
//!   for a lock (2PL) or behind an earlier pending pre-write (TSO, MVTO),
//!   traffic for other items at the same sites is served at full speed;
//! * **shutdown joins every thread** — starting and stopping clusters leaves
//!   no thread behind.
//!
//! This file is its own test binary (so its own process), and its tests take
//! turns: they read the process-wide thread count.

use rainbow_common::protocol::{CcpKind, ProtocolStack};
use rainbow_common::{SiteId, Value};
use rainbow_core::{Client, Cluster, ClusterConfig, RetryPolicy};
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

fn cluster(stack: ProtocolStack) -> Cluster {
    let config = ClusterConfig::quick(3, 8, 3).unwrap().with_stack(stack);
    Cluster::start(config).unwrap()
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

/// T1 holds write access to `x0`; T2's read of `x0` has to wait for it; T3,
/// touching only `x1` at the same sites, must not notice.
fn dispatcher_serves_others_while_an_access_waits(ccp: CcpKind) {
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
            "{ccp}: T3 took {t3_took:?} while T2 waited — a dispatcher was waiting too"
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
    dispatcher_serves_others_while_an_access_waits(CcpKind::TwoPhaseLocking);
}

#[test]
fn the_dispatcher_never_waits_under_timestamp_ordering() {
    let _turn = take_turn();
    dispatcher_serves_others_while_an_access_waits(CcpKind::TimestampOrdering);
}

#[test]
fn the_dispatcher_never_waits_under_multiversion_timestamp_ordering() {
    let _turn = take_turn();
    dispatcher_serves_others_while_an_access_waits(CcpKind::MultiversionTimestampOrdering);
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

#[test]
fn shutdown_joins_every_thread() {
    let _turn = take_turn();
    // One full cycle first, so one-time process state (allocator arenas do
    // not count, lazily started helpers would) is behind us.
    let cycle = || {
        let mut cluster = cluster(ProtocolStack::rainbow_default());
        increment(&mut cluster.client(), 0);
        cluster.shutdown();
    };
    cycle();
    #[cfg(target_os = "linux")]
    let threads_before = process_threads();
    for _ in 0..50 {
        cycle();
    }
    // The dispatchers and reactors of fifty clusters were all joined.
    #[cfg(target_os = "linux")]
    assert_eq!(threads_settled_at(threads_before), threads_before);
}
