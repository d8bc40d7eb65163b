//! End-to-end commit-pipeline throughput at rising multiprogramming levels.
//!
//! Each measurement starts an in-process cluster (3 sites, memory engine,
//! perfect network — so coordination overhead, not I/O or link latency, is
//! what saturates), then drives a fixed pool of concurrent client threads
//! through short update transactions (one increment + commit: quorum
//! fan-out, ACP prepare, group-commit apply). Every client owns a distinct
//! item, so the burst measures the pipeline, not 2PL contention.
//!
//! The figures are absolute — transactions per second at each client count
//! — and the committed `BENCH_pipeline.json` is an ungated record of them:
//! the only many-client measurement in the tree. What CI gates is the
//! repository benchmark (`BENCHMARK.json`), base against head.
//!
//! Run with: `cargo bench --bench pipeline` (add `-- --quick` for a smoke
//! run, as CI does, which leaves the committed JSON untouched).

use rainbow_common::protocol::ProtocolStack;
use rainbow_common::txn::TxnSpec;
use rainbow_common::Operation;
use rainbow_core::{Cluster, ClusterConfig};
use std::time::{Duration, Instant};

fn pipeline_stack() -> ProtocolStack {
    ProtocolStack::rainbow_default()
        .with_lock_wait_timeout(Duration::from_millis(400))
        .with_quorum_timeout(Duration::from_millis(1500))
        .with_commit_timeout(Duration::from_millis(1500))
}

struct LevelResult {
    clients: usize,
    transactions: usize,
    txn_per_sec: f64,
    committed: usize,
}

/// Runs one multiprogramming level: `clients` concurrent client threads,
/// each committing `txns_per_client` single-increment transactions against
/// its own item.
fn run_level(clients: usize, txns_per_client: usize) -> LevelResult {
    let config = ClusterConfig::quick(3, clients, 3)
        .expect("cluster config")
        .with_stack(pipeline_stack())
        .with_client_timeout(Duration::from_secs(20));
    let cluster = Cluster::start(config).expect("start cluster");

    // Warm up the conversation path (schema fetch, lazily built client
    // cores) outside the timed window.
    let warm = cluster.submit(TxnSpec::new("warmup", vec![Operation::increment("x0", 0)]));
    assert!(warm.committed(), "warmup must commit: {:?}", warm.outcome);

    let start = Instant::now();
    let committed: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let cluster = &cluster;
                scope.spawn(move || {
                    let mut committed = 0usize;
                    for i in 0..txns_per_client {
                        let result = cluster.submit(TxnSpec::new(
                            format!("p-{c}-{i}"),
                            vec![Operation::increment(format!("x{c}"), 1)],
                        ));
                        if result.committed() {
                            committed += 1;
                        }
                    }
                    committed
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let elapsed = start.elapsed();

    let transactions = clients * txns_per_client;
    assert!(
        committed * 10 >= transactions * 9,
        "at {clients} clients: only {committed}/{transactions} committed"
    );
    LevelResult {
        clients,
        transactions,
        txn_per_sec: committed as f64 / elapsed.as_secs_f64(),
        committed,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // (clients, txns_per_client).
    let levels: &[(usize, usize)] = if quick {
        &[(64, 8), (256, 3), (1024, 1)]
    } else {
        &[(64, 32), (256, 12), (1024, 4)]
    };

    println!("commit-pipeline throughput (3 sites, memory engine, one increment+commit per txn)\n");
    println!("{:>8} {:>8} {:>14}", "clients", "txns", "txn/s");

    let mut level_json = Vec::new();
    for &(clients, txns_per_client) in levels {
        let level = run_level(clients, txns_per_client);
        println!(
            "{:>8} {:>8} {:>14.0} ({:>4}c)",
            level.clients, level.transactions, level.txn_per_sec, level.committed
        );
        level_json.push(format!(
            "    {{\"clients\": {}, \"transactions\": {}, \"txn_per_sec\": {:.0}}}",
            level.clients, level.transactions, level.txn_per_sec
        ));
    }
    let json = format!(
        "{{\n  \"config\": {{\"sites\": 3, \"replication_degree\": 3, \"engine\": \"memory\", \"ops_per_txn\": 1, \"quick\": {quick}}},\n  \"levels\": [\n{}\n  ]\n}}\n",
        level_json.join(",\n")
    );

    if quick {
        // Smoke runs (CI) must not clobber the committed full-run numbers.
        println!("\nquick run: BENCH_pipeline.json left untouched");
        return;
    }
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    match std::fs::write(out, &json) {
        Ok(()) => println!("\nresults written to BENCH_pipeline.json"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }
}
