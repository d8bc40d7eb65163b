//! The chaos-matrix driver CI runs: seeded nemesis runs over a seed range ×
//! a set of replication protocols, with the serializability checker as the
//! oracle. Exits non-zero when any seed fails, after writing the failing
//! seed's artifacts (schedule, serialized history, checker verdict) to
//! `chaos-artifacts/` for upload and local replay.
//!
//! ```text
//! cargo run --release --example chaos -- --seeds 8 --rcps TQ,PC
//! cargo run --release --example chaos -- --seeds 64 --rcps ALL --events 8
//! cargo run --release --example chaos -- --rcps PC --seed-start 17 --seeds 1   # replay one seed
//! ```

use rainbow_common::protocol::{CcpKind, RcpKind};
use rainbow_control::{format_schedule, run_nemesis, NemesisConfig, NemesisReport};
use rainbow_core::StorageConfig;
use std::path::Path;

struct Args {
    seeds: u64,
    seed_start: u64,
    rcps: Vec<RcpKind>,
    ccps: Vec<CcpKind>,
    events: usize,
    spec_transactions: usize,
    interactive_transactions: usize,
    engine: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 4,
        seed_start: 0,
        rcps: vec![RcpKind::TreeQuorum, RcpKind::PrimaryCopy],
        ccps: vec![CcpKind::TwoPhaseLocking],
        events: 6,
        spec_transactions: 32,
        interactive_transactions: 8,
        engine: std::env::var("RAINBOW_ENGINE").unwrap_or_else(|_| "memory".into()),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--seeds" => args.seeds = value().parse().expect("--seeds takes a number"),
            "--seed-start" => {
                args.seed_start = value().parse().expect("--seed-start takes a number")
            }
            "--events" => args.events = value().parse().expect("--events takes a number"),
            "--txns" => args.spec_transactions = value().parse().expect("--txns takes a number"),
            "--conversations" => {
                args.interactive_transactions =
                    value().parse().expect("--conversations takes a number")
            }
            "--rcps" => {
                let list = value();
                args.rcps = if list.eq_ignore_ascii_case("all") {
                    RcpKind::ALL.to_vec()
                } else {
                    list.split(',')
                        .map(|name| name.parse().expect("unknown RCP in --rcps"))
                        .collect()
                };
            }
            "--engine" => {
                args.engine = value();
                assert!(
                    args.engine == "memory" || args.engine == "disk",
                    "--engine takes memory|disk"
                );
            }
            "--ccps" => {
                let list = value();
                args.ccps = if list.eq_ignore_ascii_case("all") {
                    vec![
                        CcpKind::TwoPhaseLocking,
                        CcpKind::TimestampOrdering,
                        CcpKind::MultiversionTimestampOrdering,
                    ]
                } else {
                    list.split(',')
                        .map(|name| match name.trim().to_ascii_uppercase().as_str() {
                            "2PL" => CcpKind::TwoPhaseLocking,
                            "TSO" => CcpKind::TimestampOrdering,
                            "MVTO" => CcpKind::MultiversionTimestampOrdering,
                            other => panic!("unknown CCP {other} in --ccps"),
                        })
                        .collect()
                };
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// The span trees of every transaction a violation implicates, rendered
/// next to the verdict so the artifact shows *where* each anomalous
/// transaction spent its time.
fn format_anomaly_traces(report: &NemesisReport) -> String {
    if report.anomaly_traces.is_empty() {
        return String::new();
    }
    let mut out = String::from("\nanomalous transaction traces:\n");
    for (txn, tree) in &report.anomaly_traces {
        out.push_str(&format!("\n--- {txn} ---\n{tree}"));
    }
    out
}

fn write_artifacts(dir: &Path, report: &NemesisReport, args: &Args) {
    std::fs::create_dir_all(dir).expect("create chaos-artifacts/");
    let tag = format!("{}-seed{}", report.stack.replace('+', "_"), report.seed);
    let seed_file = dir.join(format!("failing-{tag}.txt"));
    let mut layers = report.stack.split('+');
    let rcp = layers.next().unwrap_or("QC");
    let ccp = layers.next().unwrap_or("2PL");
    // The replay command must pin *everything* the schedule and workload
    // derive from — seed, event budget, workload volume, engine — or the
    // local run would rebuild a different scenario than the one that
    // failed. No environment variable takes part.
    let replay = format!(
        "{}\n\nreplay locally:\n  \
         cargo run --release --example chaos -- \
         --rcps {rcp} --ccps {ccp} --seed-start {} --seeds 1 \
         --events {} --txns {} --conversations {} --engine {}\n\nschedule:\n{}\n\nverdict:\n{}\n{}",
        report.summary(),
        report.seed,
        args.events,
        args.spec_transactions,
        args.interactive_transactions,
        args.engine,
        format_schedule(&report.schedule),
        serde_json::to_string_pretty(&report.check).expect("verdict serializes"),
        format_anomaly_traces(report),
    );
    std::fs::write(&seed_file, replay).expect("write failing-seed artifact");
    let history_file = dir.join(format!("history-{tag}.json"));
    std::fs::write(
        &history_file,
        serde_json::to_string_pretty(&report.history).expect("history serializes"),
    )
    .expect("write history artifact");
    eprintln!(
        "wrote {} and {}",
        seed_file.display(),
        history_file.display()
    );
}

fn main() {
    let args = parse_args();
    let artifacts = Path::new("chaos-artifacts");
    let mut failures = 0usize;
    let mut runs = 0usize;

    // Disk runs share one prefix under the system temp dir; `run_nemesis`
    // gives every (stack, seed) run its own ephemeral directory beside it
    // (`<prefix>-nemesis-<stack>-seed<n>`), which the cluster removes at
    // shutdown.
    let storage = if args.engine == "disk" {
        StorageConfig::disk(
            std::env::temp_dir().join(format!("rainbow-chaos-{}", std::process::id())),
        )
    } else {
        StorageConfig::memory()
    };

    for rcp in &args.rcps {
        for ccp in &args.ccps {
            let config = NemesisConfig {
                spec_transactions: args.spec_transactions,
                interactive_transactions: args.interactive_transactions,
                ..NemesisConfig::default()
            }
            .with_rcp(*rcp)
            .with_ccp(*ccp)
            .with_events(args.events)
            .with_storage(storage.clone());
            for seed in args.seed_start..args.seed_start + args.seeds {
                let report = run_nemesis(&config, seed).expect("nemesis run");
                runs += 1;
                println!("{}", report.summary());
                if !report.passed() {
                    failures += 1;
                    eprintln!("FAILING SEED {seed} ({rcp}+{ccp}) — schedule:");
                    eprintln!("{}", format_schedule(&report.schedule));
                    for violation in &report.check.violations {
                        eprintln!("  violation: {violation}");
                    }
                    write_artifacts(artifacts, &report, &args);
                }
            }
        }
    }

    println!(
        "chaos matrix: {runs} runs, {failures} failure(s) ({} engine)",
        args.engine
    );
    if failures > 0 {
        eprintln!(
            "replay any failing seed with the command inside its \
             chaos-artifacts/failing-*.txt"
        );
        std::process::exit(1);
    }
}
