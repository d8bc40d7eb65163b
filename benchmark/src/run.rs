//! The run shape: which rounds run in which order, and how their results
//! become the report.

use crate::metrics::{commits, end_to_end, per_layer};
use crate::probes::run_probes;
use crate::report::WorkloadReport;
use crate::round::{run_round, OpRecord, RoundResult, RoundSpec};
use crate::stats::micros;
use crate::workload::Workload;
use std::fmt::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct Plan {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    /// Measured time per workload in each pass, split evenly over its rounds.
    pub seconds: Duration,
    /// Untimed closed-loop time at the start of every round.
    pub warmup: Duration,
    /// End-to-end pass: untraced rounds per workload (0 skips the pass).
    pub rounds: u32,
    /// Per-layer pass: (plain, traced) pairs of rounds per workload (0 skips
    /// the pass). The plain round of a pair is what the traced one's
    /// throughput is compared with for `trace.overhead_pct`.
    pub pairs: u32,
    /// Time each layer probe runs for.
    pub probe_budget: Duration,
    /// Where disk rounds and probes put their data, and remove it again.
    pub scratch: PathBuf,
    /// Zero of the span timestamps.
    pub epoch: Instant,
}

/// The spans of one workload's traced rounds, as the JSON document written
/// to `out/trace-<workload>.json`.
pub struct Trace {
    pub workload: Workload,
    pub json: String,
}

/// Runs the plan. Rounds are interleaved across workloads (A B C, A B C, …)
/// so that a slow spell of a shared machine lands on one round of each
/// workload, not on all rounds of one.
pub fn run(plan: &Plan) -> (Vec<WorkloadReport>, Vec<Trace>) {
    let mut reports: Vec<WorkloadReport> = plan
        .workloads
        .iter()
        .map(|w| WorkloadReport::new(*w))
        .collect();
    let mut traces: Vec<Trace> = plan
        .workloads
        .iter()
        .map(|w| Trace {
            workload: *w,
            json: String::new(),
        })
        .collect();
    let round = |workload, tag: &str, measure, traced, calibrated| {
        eprintln!("  round {tag} of {} ...", Workload::name(workload));
        run_round(&RoundSpec {
            workload,
            seed: plan.seed,
            tag,
            warmup: plan.warmup,
            measure,
            traced,
            calibrated,
            scratch: &plan.scratch,
        })
    };

    for index in 0..plan.rounds {
        for report in &mut reports {
            let result = round(
                report.workload,
                &format!("e{index}"),
                plan.seconds / plan.rounds,
                false,
                true,
            );
            tally(report, &result);
            report.push_end_to_end(&end_to_end(&result, report.workload));
        }
    }

    if plan.pairs > 0 {
        eprintln!("  layer probes ...");
        let probes = run_probes(plan.probe_budget, &plan.scratch);
        let measure = plan.seconds / (2 * plan.pairs);
        for index in 0..plan.pairs {
            for (report, trace) in reports.iter_mut().zip(&mut traces) {
                let plain = round(report.workload, &format!("p{index}"), measure, false, false);
                let traced = round(report.workload, &format!("t{index}"), measure, true, false);
                tally(report, &plain);
                tally(report, &traced);
                let mut values = per_layer(&traced, report.workload);
                let rate = |r: &RoundResult| commits(r) as f64 / r.elapsed_s;
                values.insert(
                    "trace.overhead_pct",
                    Some((1.0 - rate(&traced) / rate(&plain)) * 100.0),
                );
                values.extend(probes.clone());
                report.push_per_layer(&values);
                write_spans(
                    &mut trace.json,
                    &format!("t{index}"),
                    &traced.ops,
                    plan.epoch,
                );
            }
        }
    }
    for trace in &mut traces {
        trace.json = format!(
            "{{\"workload\": \"{}\", \"unit\": \"us\", \"parent\": \"each transaction's first span, txn, contains its others\", \"transactions\": [\n{}\n]}}\n",
            trace.workload.name(),
            trace.json.trim_end_matches(",\n")
        );
    }
    (reports, traces)
}

fn tally(report: &mut WorkloadReport, result: &RoundResult) {
    let ops = || result.ops.iter().flatten();
    report.attempted += ops().count() as u64;
    report.failed += ops().filter(|op| !op.committed).count() as u64;
    report.errors.extend(result.errors.iter().cloned());
}

/// Appends one line per transaction: the whole operation (`txn`) and the
/// three client calls inside it. `begin` of a retried operation also
/// covers the earlier attempts and their back-off.
fn write_spans(out: &mut String, round: &str, clients: &[Vec<OpRecord>], epoch: Instant) {
    let us = |at: Instant| micros(at.saturating_duration_since(epoch));
    for (client, ops) in clients.iter().enumerate() {
        for (index, op) in ops.iter().enumerate() {
            let spans = [
                ("txn", op.start, op.end),
                ("begin", op.start, op.body.start),
                ("op", op.body.start, op.body.end),
                ("commit", op.body.end, op.end),
            ]
            .map(|(name, from, to)| {
                format!(
                    "{{\"name\": \"{name}\", \"start\": {:.1}, \"end\": {:.1}}}",
                    us(from),
                    us(to)
                )
            });
            let _ = writeln!(
                out,
                "{{\"id\": \"{round}/c{client}/{index}\", \"committed\": {}, \"restarts\": {}, \"spans\": [{}]}},",
                op.committed,
                op.restarts,
                spans.join(", ")
            );
        }
    }
}

/// The plan of a full run (`seconds` of measurement per workload and pass).
pub fn full_plan(workloads: Vec<Workload>, seed: u64, seconds: u64, scratch: PathBuf) -> Plan {
    Plan {
        workloads,
        seed,
        seconds: Duration::from_secs(seconds),
        warmup: Duration::from_millis(500),
        rounds: 5,
        pairs: 2,
        probe_budget: Duration::from_millis(250),
        scratch,
        epoch: Instant::now(),
    }
}

/// `--smoke`: one round of one second, same names, seconds not minutes.
pub fn smoke_plan(workloads: Vec<Workload>, seed: u64, scratch: PathBuf) -> Plan {
    Plan {
        warmup: Duration::from_millis(200),
        rounds: 1,
        pairs: 1,
        probe_budget: Duration::from_millis(50),
        ..full_plan(workloads, seed, 1, scratch)
    }
}
