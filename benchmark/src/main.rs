//! The Rainbow benchmark: five workloads, absolute commits/s and latency,
//! and a per-layer ledger, all measured from outside the program. See
//! `README.md` next to this crate for the load model and every fixed knob.

mod audit;
mod machine;
mod metrics;
mod probes;
mod procfs;
mod report;
mod round;
mod run;
mod stats;
mod workload;

use report::{compare, render, results_json};
use run::{full_plan, run, smoke_plan, Plan};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Workload, CLIENTS, ITEMS, REPLICATION, SITES};

/// Measured seconds per workload and pass unless `--seconds` says otherwise
/// (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 15;

const USAGE: &str = "\
usage: rainbow-benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
                         [--smoke] [--out PATH]
       rainbow-benchmark compare BASELINE.json CANDIDATE.json

  --workload NAME  run only this workload (repeatable; default: all five)
  --seed N         seed of every generated input (default 1)
  --seconds S      measured seconds per workload and pass (default 15)
  --trace 0|1      0: only the end-to-end pass (untraced); 1: only the per-layer
                   pass (traced rounds and layer probes); default: both
  --smoke          one round of one second per workload: checks that everything
                   runs and prints every name, measures nothing worth keeping
  --out PATH       also write the results to PATH as JSON
  compare A B      judge results file B against baseline A by the benchmark's bounds";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
        out: None,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let workload = Workload::from_name(name).ok_or(format!(
                    "unknown workload {name}; the workloads are {}",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?;
                if !parsed.workloads.contains(&workload) {
                    parsed.workloads.push(workload);
                }
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=3600).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 3600".to_string());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = Workload::ALL.to_vec();
    }
    Ok(parsed)
}

/// Throw-away data lives next to the executable, inside the build's target
/// directory: always within the checkout, never in the system's temp dir.
fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the executable has a path");
    exe.parent()
        .expect("the executable lives in a directory")
        .join("rainbow-benchmark-data")
}

fn header(plan: &Plan, smoke: bool) -> Vec<(&'static str, String)> {
    // The stack of the very configuration the rounds run on; nothing here
    // names a coordinator mode or a quorum path.
    let config = Workload::UpdateDisjoint.cluster_config(false, &plan.scratch);
    let quoted = |text: String| format!("\"{text}\"");
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        ("benchmark", quoted("rainbow".to_string())),
        (
            "note",
            quoted(
                "absolute figures of one machine; they claim no gain and are the baseline later changes are measured against"
                    .to_string(),
            ),
        ),
        ("smoke", smoke.to_string()),
        ("seed", plan.seed.to_string()),
        ("seconds_per_pass", plan.seconds.as_secs_f64().to_string()),
        ("warmup_seconds", plan.warmup.as_secs_f64().to_string()),
        ("end_to_end_rounds", plan.rounds.to_string()),
        ("per_layer_round_pairs", plan.pairs.to_string()),
        ("stack", quoted(config.stack.label())),
        ("coordinator", quoted(config.stack.coordinator.to_string())),
        ("sites", SITES.to_string()),
        ("items", ITEMS.to_string()),
        ("replication", REPLICATION.to_string()),
        ("clients", CLIENTS.to_string()),
        ("cores", cores.to_string()),
    ]
}

fn run_benchmark(args: Args) -> ExitCode {
    let scratch = scratch_dir();
    let mut plan = if args.smoke {
        smoke_plan(args.workloads, args.seed, scratch)
    } else {
        full_plan(args.workloads, args.seed, args.seconds, scratch)
    };
    match args.trace {
        Some(false) => plan.pairs = 0,
        Some(true) => plan.rounds = 0,
        None => {}
    }
    let header = header(&plan, args.smoke);
    println!("Rainbow benchmark (absolute figures of this machine; no gain is claimed)");
    let line: Vec<String> = header[2..]
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("{}", line.join(" "));
    println!(
        "every value is the median over rounds; end-to-end times of the machine-bound workloads are \
         scaled to the reference machine's speed (raw.* and machine.speed: as measured); \
         fsync and link delays are this sandbox's, not a device's\n"
    );

    let (reports, traces) = run(&plan);
    let _ = std::fs::remove_dir(&plan.scratch);

    if plan.pairs > 0 {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        for trace in &traces {
            let path = dir.join(format!("trace-{}.json", trace.workload.name()));
            let written =
                std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &trace.json));
            match written {
                Ok(()) => println!("spans of the traced rounds: {}", path.display()),
                Err(e) => eprintln!("could not write {}: {e}", path.display()),
            }
        }
        println!();
    }
    for report in &reports {
        println!("{}", render(report));
    }
    if let Some(path) = &args.out {
        match std::fs::write(path, results_json(&header, &reports)) {
            Ok(()) => println!("results written to {}", path.display()),
            Err(e) => {
                eprintln!("could not write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    // One result line per workload; with a single workload it is the last
    // line of the output.
    for report in &reports {
        if reports.len() > 1 {
            println!("{}:", report.workload.name());
        }
        println!("{}", report.result_line());
    }
    if reports.iter().all(|r| r.correct()) {
        ExitCode::SUCCESS
    } else {
        eprintln!("correctness checks failed");
        ExitCode::FAILURE
    }
}

fn run_compare(baseline: &str, candidate: &str) -> ExitCode {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let outcome = read(baseline)
        .and_then(|a| read(candidate).map(|b| (a, b)))
        .and_then(|(a, b)| compare(&a, &b));
    match outcome {
        Ok((table, any_worse)) => {
            print!("{table}");
            if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(problem) => {
            eprintln!("{problem}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [command, baseline, candidate] if command == "compare" => run_compare(baseline, candidate),
        [flag] if flag == "--help" || flag == "-h" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => match parse_args(&args) {
            Ok(parsed) => run_benchmark(parsed),
            Err(problem) => {
                eprintln!("{problem}\n\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{Better, END_TO_END, PER_LAYER};
    use report::{field, number, Json};
    use serde::Content;
    use std::time::Duration;

    fn benchmark_json() -> Content {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str::<Json>(&text).expect("valid JSON").0
    }

    fn strings(list: &Content, key: &str) -> Vec<String> {
        let entries = list.as_seq().expect("a list").iter();
        entries
            .map(|entry| {
                field(entry, key)
                    .and_then(Content::as_str)
                    .expect(key)
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_and_the_program_name_the_same_things() {
        let json = benchmark_json();
        assert_eq!(
            strings(field(&json, "workloads").unwrap(), "name"),
            Workload::ALL.map(Workload::name)
        );
        assert_eq!(
            number(field(&json, "run_seconds").unwrap()),
            Some(DEFAULT_SECONDS as f64)
        );

        let better = |def: &metrics::MetricDef| match def.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let end_to_end = field(&json, "end_to_end").unwrap();
        assert_eq!(
            strings(end_to_end, "name"),
            END_TO_END.map(|(def, _)| def.name)
        );
        assert_eq!(
            strings(end_to_end, "unit"),
            END_TO_END.map(|(def, _)| def.unit)
        );
        assert_eq!(
            strings(end_to_end, "better"),
            END_TO_END.map(|(def, _)| better(&def))
        );
        let bounds: Vec<f64> = end_to_end
            .as_seq()
            .unwrap()
            .iter()
            .map(|entry| number(field(entry, "bound").unwrap()).unwrap())
            .collect();
        assert_eq!(bounds, END_TO_END.map(|(_, bound)| bound));

        let per_layer = field(&json, "per_layer").unwrap();
        assert_eq!(strings(per_layer, "name"), PER_LAYER.map(|def| def.name));
        assert_eq!(strings(per_layer, "unit"), PER_LAYER.map(|def| def.unit));
        assert_eq!(
            strings(per_layer, "better"),
            PER_LAYER.map(|def| better(&def))
        );
    }

    /// A smoke run in miniature through the real rounds, probes and report:
    /// the names it prints are exactly those of `BENCHMARK.json`, and every
    /// check passes on every workload.
    #[test]
    fn a_smoke_run_prints_the_names_of_benchmark_json() {
        let plan = Plan {
            seconds: Duration::from_millis(600),
            warmup: Duration::from_millis(50),
            probe_budget: Duration::from_millis(5),
            ..smoke_plan(Workload::ALL.to_vec(), 1, scratch_dir())
        };
        let (reports, traces) = run(&plan);
        assert_eq!(reports.len(), 5);
        assert_eq!(traces.len(), 5);

        let json = benchmark_json();
        let mut expected = strings(field(&json, "end_to_end").unwrap(), "name");
        expected.extend(strings(field(&json, "per_layer").unwrap(), "name"));
        for (report, trace) in reports.iter().zip(&traces) {
            assert!(
                report.correct(),
                "{}: {:?}",
                report.workload.name(),
                report.errors
            );
            assert!(report.attempted > 0);
            let line = serde_json::from_str::<Json>(&report.result_line())
                .unwrap()
                .0;
            let metrics = field(&line, "metrics").unwrap().as_map().unwrap();
            let printed: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
            assert_eq!(printed, expected, "{}", report.workload.name());
            let table = render(report);
            for name in &expected {
                assert!(
                    table.contains(name.as_str()),
                    "{name} missing from the table"
                );
            }
            let spans = serde_json::from_str::<Json>(&trace.json)
                .expect("trace is valid JSON")
                .0;
            assert!(!field(&spans, "transactions")
                .unwrap()
                .as_seq()
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args =
            |list: &[&str]| parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let parsed = args(&[
            "--workload",
            "update_lan",
            "--workload",
            "read_mostly",
            "--workload",
            "update_lan",
            "--seed",
            "9",
            "--seconds",
            "7",
            "--trace",
            "1",
            "--out",
            "x.json",
        ])
        .unwrap();
        assert_eq!(
            parsed.workloads,
            [Workload::UpdateLan, Workload::ReadMostly]
        );
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (9, 7, Some(true))
        );
        assert_eq!(parsed.out, Some(PathBuf::from("x.json")));
        assert_eq!(args(&[]).unwrap().workloads, Workload::ALL);
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }
}
