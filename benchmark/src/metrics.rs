//! The metric names, and how each is derived from one round.
//!
//! The tables here are the program's copy of `BENCHMARK.json` (a test keeps
//! the two equal): every name that is printed comes from them.

use crate::procfs::peak_rss_mb;
use crate::round::{OpRecord, RoundResult};
use crate::stats::{micros, percentile};
use crate::workload::{Workload, CLIENTS, LAN_DELAY};
use rainbow_common::txn::AbortLayer;
use rainbow_common::StatsSnapshot;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees, with the share of the baseline's median
/// by which each may worsen before it counts as a regression. Times of a
/// machine-bound workload are in the reference machine's time (see
/// [`crate::machine`]).
pub const END_TO_END: [(MetricDef, f64); 4] = [
    (higher("commit_per_s", "1/s"), 0.20),
    (lower("p50_us", "us"), 0.20),
    (lower("p95_us", "us"), 0.25),
    (lower("setup_s", "s"), 0.25),
];

/// Printed and written with the end-to-end metrics, but neither bounded nor
/// part of the result line: the tail beyond p95 (on the sandbox it sits on
/// the knee of the latency distribution and spreads by 25 % and more between
/// runs), the machine's speed, and the headline figures as measured.
pub const INFORMATIONAL: [MetricDef; 5] = [
    lower("p99_us", "us"),
    lower("p999_us", "us"),
    higher("machine.speed", "ratio"),
    higher("raw.commit_per_s", "1/s"),
    lower("raw.p50_us", "us"),
];

/// `setup_s` is a few milliseconds, so a regression must also exceed this
/// many seconds (the `compare` subcommand applies both conditions).
pub const SETUP_FLOOR_S: f64 = 0.05;

/// Single layers; the layers are the crates. The probes (`*_ns` and the
/// two `storage.*_commit_us`) time a crate's public functions directly, the
/// rest comes from a traced round.
pub const PER_LAYER: [MetricDef; 37] = [
    lower("core.begin_us", "us"),
    lower("core.op_us", "us"),
    lower("core.commit_us", "us"),
    lower("core.update_p50_us", "us"),
    lower("core.threads_spawned_per_txn", "count"),
    lower("core.attempts_per_commit", "count"),
    lower("core.client_msgs_per_commit", "count"),
    lower("proc.cpu_us_per_commit", "us"),
    lower("proc.peak_rss_mb", "MB"),
    lower("ledger.layer_busy_us_per_commit", "us"),
    lower("ledger.unattributed_share", "ratio"),
    lower("net.msgs_per_commit", "count"),
    lower("net.bytes_per_commit", "B"),
    lower("net.queue_delay_us", "us"),
    lower("net.delay_units_per_txn", "count"),
    lower("net.hop_ns", "ns"),
    lower("net.delayed_hop_overhead_us", "us"),
    lower("replication.quorum_leg_us", "us"),
    lower("replication.copy_msgs_per_commit", "count"),
    lower("replication.plan_ns", "ns"),
    lower("cc.lock_wait_us", "us"),
    lower("cc.lock_wait_p99_us", "us"),
    lower("cc.aborts_per_commit", "count"),
    lower("cc.lock_cycle_ns", "ns"),
    lower("commit.prepare_us", "us"),
    lower("commit.apply_us", "us"),
    lower("commit.acp_msgs_per_commit", "count"),
    lower("commit.acp_walk_ns", "ns"),
    lower("storage.wal_force_us", "us"),
    lower("storage.fsync_us", "us"),
    lower("storage.forces_per_commit", "count"),
    higher("storage.forces_per_fsync", "count"),
    lower("storage.bytes_per_commit", "B"),
    lower("storage.mem_commit_us", "us"),
    lower("storage.disk_commit_us", "us"),
    lower("trace.overhead_pct", "%"),
    lower("check.dsg_us_per_txn", "us"),
];

/// Metric values by name; `None` is "not applicable on this workload or
/// platform" and prints as `n/a`.
pub type Values = BTreeMap<&'static str, Option<f64>>;

/// Nearest-rank percentile of `part` over `ops`, in microseconds.
fn percentile_us<'a>(
    ops: impl Iterator<Item = &'a OpRecord>,
    p: f64,
    part: impl Fn(&OpRecord) -> f64,
) -> Option<f64> {
    let mut samples: Vec<f64> = ops.map(part).collect();
    samples.sort_by(f64::total_cmp);
    percentile(&samples, p)
}

/// The operations the headline latencies are taken over: the read-only
/// transactions where the workload has any (its updates are reported as
/// `core.update_p50_us`), otherwise all; committed ones only.
fn headline_ops(round: &RoundResult, workload: Workload) -> impl Iterator<Item = &OpRecord> {
    let reads_only = workload == Workload::ReadMostly;
    round
        .ops
        .iter()
        .flatten()
        .filter(move |op| op.committed && (op.read_only || !reads_only))
}

pub fn commits(round: &RoundResult) -> usize {
    round.ops.iter().flatten().filter(|op| op.committed).count()
}

/// The end-to-end metrics of one round, and the informational ones.
pub fn end_to_end(round: &RoundResult, workload: Workload) -> Values {
    // Reference-machine seconds per measured second.
    let scale = match round.machine_speed {
        Some(speed) if workload.machine_bound() => speed,
        _ => 1.0,
    };
    let total = |op: &OpRecord| micros(op.end - op.start);
    let latency = |p: f64| percentile_us(headline_ops(round, workload), p, total);
    let raw_rate = commits(round) as f64 / round.elapsed_s;
    Values::from([
        ("commit_per_s", Some(raw_rate / scale)),
        ("p50_us", latency(0.50).map(|us| us * scale)),
        ("p95_us", latency(0.95).map(|us| us * scale)),
        ("setup_s", Some(round.setup_s * scale)),
        ("p99_us", latency(0.99).map(|us| us * scale)),
        // Only where at least ten samples lie beyond it.
        (
            "p999_us",
            latency(0.999)
                .filter(|_| headline_ops(round, workload).count() >= 10_000)
                .map(|us| us * scale),
        ),
        ("machine.speed", round.machine_speed),
        ("raw.commit_per_s", Some(raw_rate)),
        ("raw.p50_us", latency(0.50)),
    ])
}

/// Samples and summed microseconds a tracer phase gained between two
/// snapshots, so that the warm-up does not count. Means come from these; the
/// tracer's percentiles are bucketed in whole microseconds and cover the
/// cluster's whole life (histograms do not subtract), so only the lock
/// wait's p99 is taken from them.
struct PhaseDelta {
    count: f64,
    sum_us: f64,
    lifetime_p99_us: Option<f64>,
}

impl PhaseDelta {
    fn between(before: &StatsSnapshot, after: &StatsSnapshot, phase: &str) -> Self {
        let totals = |stats: &StatsSnapshot| {
            stats
                .phases
                .get(phase)
                .map_or((0.0, 0.0), |s| (s.count as f64, s.count as f64 * s.mean_us))
        };
        let (count_before, sum_before) = totals(before);
        let (count_after, sum_after) = totals(after);
        let seen = after.phases.get(phase).filter(|s| s.count > 0);
        PhaseDelta {
            count: count_after - count_before,
            sum_us: sum_after - sum_before,
            lifetime_p99_us: seen.map(|s| s.p99_us as f64),
        }
    }

    fn mean_us(&self) -> Option<f64> {
        (self.count > 0.0).then(|| self.sum_us / self.count)
    }
}

/// The per-layer metrics one traced round yields (the probes and the
/// tracing overhead are measured elsewhere and merged in by the caller).
pub fn per_layer(round: &RoundResult, workload: Workload) -> Values {
    let (before, after) = (&round.before.stats, &round.after.stats);
    let commits = commits(round) as f64;
    let per_commit = |amount: f64| (commits > 0.0).then(|| amount / commits);
    let attempts = (after.submitted - before.submitted) as f64;
    let phase = |name: &str| PhaseDelta::between(before, after, name);
    let messages = |prefix: &str| -> f64 {
        let sum = |stats: &StatsSnapshot| -> u64 {
            let kinds = stats.messages.by_kind.iter();
            kinds
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(_, n)| n)
                .sum()
        };
        (sum(after) - sum(before)) as f64
    };

    let headline = || headline_ops(round, workload);
    let updates = round
        .ops
        .iter()
        .flatten()
        .filter(|op| op.committed && !op.read_only);
    let p50_us = percentile_us(headline(), 0.50, |op| micros(op.end - op.start));

    let cpu_us_per_commit = match (round.before.proc.cpu_s, round.after.proc.cpu_s) {
        (Some(from), Some(to)) => per_commit((to - from) * 1e6),
        _ => None,
    };
    let spawned = match (round.before.proc.forks, round.after.proc.forks) {
        // The round's own client threads are not the program's.
        (Some(from), Some(to)) if attempts > 0.0 => {
            Some((to.saturating_sub(from) as f64 - CLIENTS as f64).max(0.0) / attempts)
        }
        _ => None,
    };

    let (lock_wait, prepare, apply) = (phase("lock-wait"), phase("prepare"), phase("commit-apply"));
    let (wal_force, fsync, queue) = (
        phase("wal-force"),
        phase("fsync-batch"),
        phase("queue-delay"),
    );
    let layer_busy = per_commit(lock_wait.sum_us + prepare.sum_us + apply.sum_us);
    let on_disk = workload == Workload::UpdateDisk;

    Values::from([
        // begin is only a span of its own when there was no retry before it.
        (
            "core.begin_us",
            percentile_us(headline().filter(|op| op.restarts == 0), 0.50, |op| {
                micros(op.body.start - op.start)
            }),
        ),
        (
            "core.op_us",
            percentile_us(headline(), 0.50, |op| micros(op.body.end - op.body.start)),
        ),
        (
            "core.commit_us",
            percentile_us(headline(), 0.50, |op| micros(op.end - op.body.end)),
        ),
        (
            "core.update_p50_us",
            percentile_us(updates, 0.50, |op| micros(op.end - op.start)),
        ),
        ("core.threads_spawned_per_txn", spawned),
        ("core.attempts_per_commit", per_commit(attempts)),
        ("core.client_msgs_per_commit", per_commit(messages("TXN_"))),
        ("proc.cpu_us_per_commit", cpu_us_per_commit),
        ("proc.peak_rss_mb", peak_rss_mb()),
        ("ledger.layer_busy_us_per_commit", layer_busy),
        // On disk the layers' time is mostly fsync wait, which is not CPU:
        // the share would come out negative.
        (
            "ledger.unattributed_share",
            layer_busy
                .zip(cpu_us_per_commit)
                .filter(|_| !on_disk)
                .map(|(busy, cpu)| 1.0 - busy / cpu),
        ),
        (
            "net.msgs_per_commit",
            per_commit((after.messages.sent - before.messages.sent) as f64),
        ),
        (
            "net.bytes_per_commit",
            per_commit((after.messages.bytes - before.messages.bytes) as f64),
        ),
        ("net.queue_delay_us", queue.mean_us()),
        (
            "net.delay_units_per_txn",
            p50_us
                .filter(|_| workload == Workload::UpdateLan)
                .map(|p50| p50 / micros(LAN_DELAY)),
        ),
        ("replication.quorum_leg_us", phase("quorum-read").mean_us()),
        (
            "replication.copy_msgs_per_commit",
            per_commit(messages("RCP_")),
        ),
        ("cc.lock_wait_us", lock_wait.mean_us()),
        ("cc.lock_wait_p99_us", lock_wait.lifetime_p99_us),
        (
            "cc.aborts_per_commit",
            per_commit(
                (after.aborts.layer(AbortLayer::Ccp) - before.aborts.layer(AbortLayer::Ccp)) as f64,
            ),
        ),
        ("commit.prepare_us", prepare.mean_us()),
        ("commit.apply_us", apply.mean_us()),
        ("commit.acp_msgs_per_commit", per_commit(messages("ACP_"))),
        ("storage.wal_force_us", wal_force.mean_us()),
        ("storage.fsync_us", fsync.mean_us()),
        ("storage.forces_per_commit", per_commit(wal_force.count)),
        (
            "storage.forces_per_fsync",
            (fsync.count > 0.0).then(|| wal_force.count / fsync.count),
        ),
        (
            "storage.bytes_per_commit",
            per_commit(
                round
                    .after
                    .data_bytes
                    .saturating_sub(round.before.data_bytes) as f64,
            )
            .filter(|_| on_disk),
        ),
        (
            "check.dsg_us_per_txn",
            round
                .history
                .as_ref()
                .filter(|check| check.txns > 0)
                .map(|check| check.check_s * 1e6 / check.txns as f64),
        ),
    ])
}
