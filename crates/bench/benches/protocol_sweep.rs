//! Experiment E-SWEEP — the replication-control protocol matrix.
//!
//! Runs the full (protocol × workload profile × fault scenario) grid over
//! all five replication protocols (ROWA, QC, AC, TQ, PC) and the standard
//! fault scenarios (healthy, one site down, partitioned minority), printing
//! one table row per cell and writing the machine-readable results to
//! `BENCH_protocols.json` at the repo root. Each cell there carries its
//! per-phase latency percentiles (`phases`: lock-wait, quorum-read, prepare,
//! commit-apply, wal-force, queue-delay; count, p50/p95/p99/p999).
//!
//! Expected shape of the results:
//!
//! * **healthy** — everyone commits; ROWA/AC/TQ/PC reads are one-copy cheap,
//!   QC pays quorum-sized reads, ROWA/AC pay write-all.
//! * **one site down** — ROWA writes block (every copy required) and TQ
//!   writes block when the victim is the tree root; QC, AC and PC keep
//!   committing.
//! * **partitioned minority** — QC keeps committing from the majority side;
//!   the all-available protocols (AC, PC) and ROWA/TQ time out on writes
//!   because the partitioned holders are alive-but-unreachable, and
//!   transactions homed at isolated sites become orphans.
//!
//! Run with: `cargo bench --bench protocol_sweep` (add `-- --quick` for the
//! CI smoke run: the full protocol × fault grid on the write-heavy workload
//! with fewer transactions per cell, leaving the committed JSON untouched).

use rainbow_control::{run_protocol_sweep, sweep_table, sweep_to_json, FaultScenario, SweepConfig};
use rainbow_wlg::WorkloadProfile;

fn main() {
    let quick = std::env::args().any(|arg| arg == "--quick");

    let config = SweepConfig {
        // The protocol and fault axes are pinned explicitly: quick or not,
        // this bench must cover all five RCPs against the one-site-down and
        // minority-partition scenarios (the acceptance grid).
        protocols: rainbow_common::protocol::RcpKind::ALL.to_vec(),
        faults: vec![
            FaultScenario::Healthy,
            FaultScenario::SiteDown { count: 1 },
            FaultScenario::MinorityPartition,
        ],
        profiles: if quick {
            vec![WorkloadProfile::WriteHeavy]
        } else {
            vec![
                WorkloadProfile::ReadHeavy,
                WorkloadProfile::WriteHeavy,
                WorkloadProfile::HotSpotContention,
            ]
        },
        transactions: if quick { 16 } else { 80 },
        ..SweepConfig::default()
    };

    println!("Experiment E-SWEEP: replication protocol matrix under faults");
    println!(
        "grid: {} protocols x {} workloads x {} fault scenarios, {} txns/cell{}\n",
        config.protocols.len(),
        config.profiles.len(),
        config.faults.len(),
        config.transactions,
        if quick { " (quick)" } else { "" }
    );
    let report = run_protocol_sweep(&config).expect("protocol sweep failed");
    println!(
        "{}",
        sweep_table("protocol x workload x fault grid", &report).render()
    );

    let json = sweep_to_json(&report).expect("serialize sweep report");
    if quick {
        // Smoke runs (CI) must not clobber the committed full-grid numbers.
        println!("quick run: BENCH_protocols.json left untouched");
        return;
    }
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_protocols.json");
    match std::fs::write(out, &json) {
        Ok(()) => println!("results written to BENCH_protocols.json"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }
}
