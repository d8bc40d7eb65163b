//! Middle-tier runner facades.
//!
//! The paper's middle tier consists of servlets with narrowly scoped roles:
//! the WLGlet "transfers transaction processing related requests ... to
//! Rainbow sites" and the PMlet "brings progress related requests to and
//! results back from both the name server and the Rainbow sites". These
//! facades preserve that separation of concerns for callers that want to
//! hand a *workload-only* or *monitoring-only* capability to part of their
//! code (for example, a classroom harness that lets students submit
//! transactions but not reconfigure the system).

use crate::session::{Session, WorkloadReport};
use rainbow_common::protocol::{ProtocolStack, RcpKind};
use rainbow_common::stats::{LatencyStats, StatsSnapshot};
use rainbow_common::txn::{AbortCause, TxnResult, TxnSpec};
use rainbow_common::{ItemId, RainbowResult, SiteId, Value, Version};
use rainbow_trace::TraceConfig;
use rainbow_wlg::{ArrivalProcess, WorkloadParams, WorkloadProfile};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// Workload-submission facade (the WLGlet role).
pub struct WorkloadRunner<'a> {
    session: &'a Session,
}

impl<'a> WorkloadRunner<'a> {
    /// Wraps a running session.
    pub fn new(session: &'a Session) -> Self {
        WorkloadRunner { session }
    }

    /// Submits one transaction.
    pub fn submit(&self, spec: TxnSpec) -> RainbowResult<TxnResult> {
        self.session.submit(spec)
    }

    /// Submits a batch of manual transactions.
    pub fn submit_all(&self, specs: Vec<TxnSpec>) -> RainbowResult<Vec<TxnResult>> {
        self.session.submit_manual(specs)
    }

    /// Runs a named workload profile.
    pub fn run_profile(
        &self,
        profile: WorkloadProfile,
        transactions: usize,
        arrival: ArrivalProcess,
    ) -> RainbowResult<WorkloadReport> {
        self.session.run_generated(profile, transactions, arrival)
    }

    /// Runs an explicitly parameterized workload.
    pub fn run_params(
        &self,
        params: WorkloadParams,
        arrival: ArrivalProcess,
    ) -> RainbowResult<WorkloadReport> {
        self.session.run_params(params, arrival)
    }

    /// Runs a named conversational (interactive) workload profile.
    pub fn run_interactive(
        &self,
        profile: rainbow_wlg::InteractiveProfile,
        transactions: usize,
    ) -> RainbowResult<WorkloadReport> {
        self.session.run_interactive(profile, transactions)
    }
}

/// Monitoring facade (the PMlet role).
pub struct ProgressRunner<'a> {
    session: &'a Session,
}

impl<'a> ProgressRunner<'a> {
    /// Wraps a running session.
    pub fn new(session: &'a Session) -> Self {
        ProgressRunner { session }
    }

    /// The cumulative statistics snapshot.
    pub fn statistics(&self) -> RainbowResult<StatsSnapshot> {
        self.session.statistics()
    }

    /// Renders the text output panel.
    pub fn render(&self, title: &str) -> RainbowResult<String> {
        self.session.render_statistics(title)
    }

    /// The committed database state at one site.
    pub fn database_view(&self, site: SiteId) -> RainbowResult<Vec<(ItemId, Value, Version)>> {
        self.session.database_view(site)
    }

    /// Checks that every copy of every item has converged to the same value
    /// at every holder site (used after failure/recovery experiments).
    /// Returns the list of items whose copies diverge, with the differing
    /// `(site, value, version)` triples.
    #[allow(clippy::type_complexity)]
    pub fn replica_divergence(
        &self,
    ) -> RainbowResult<Vec<(ItemId, Vec<(SiteId, Value, Version)>)>> {
        let mut per_item: std::collections::BTreeMap<ItemId, Vec<(SiteId, Value, Version)>> =
            std::collections::BTreeMap::new();
        for site in self.session.site_ids() {
            for (item, value, version) in self.session.database_view(site)? {
                per_item
                    .entry(item)
                    .or_default()
                    .push((site, value, version));
            }
        }
        Ok(per_item
            .into_iter()
            .filter(|(_, copies)| {
                // Copies may legitimately differ in version under quorum
                // consensus (stale minority copies); divergence means two
                // copies claim the same version with different values.
                let mut by_version: std::collections::BTreeMap<Version, &Value> =
                    std::collections::BTreeMap::new();
                for (_, value, version) in copies {
                    match by_version.get(version) {
                        Some(existing) if *existing != value => return true,
                        _ => {
                            by_version.insert(*version, value);
                        }
                    }
                }
                false
            })
            .collect())
    }
}

// ---------------------------------------------------------------------------
// Protocol sweeps: (protocol × workload × fault scenario) grids
// ---------------------------------------------------------------------------

/// A fault scenario applied to a fresh session for the duration of one
/// sweep cell — the programmatic version of the paper's failure-injection
/// panel, packaged so experiment grids can iterate over it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultScenario {
    /// No faults: the availability baseline.
    Healthy,
    /// Crash the `count` highest-numbered sites before the workload starts
    /// (at least one site always survives).
    SiteDown {
        /// Number of sites to crash.
        count: usize,
    },
    /// Partition a minority of the sites (the highest-numbered
    /// `(n - 1) / 2`) away from the rest of the cluster — and from the
    /// clients, which stay with the majority.
    MinorityPartition,
}

impl FaultScenario {
    /// The canonical scenario set sweeps run by default.
    pub fn standard() -> Vec<FaultScenario> {
        vec![
            FaultScenario::Healthy,
            FaultScenario::SiteDown { count: 1 },
            FaultScenario::MinorityPartition,
        ]
    }

    /// A short, file-name-safe label for tables and JSON.
    pub fn name(&self) -> String {
        match self {
            FaultScenario::Healthy => "healthy".into(),
            FaultScenario::SiteDown { count } => format!("{count}-site-down"),
            FaultScenario::MinorityPartition => "minority-partition".into(),
        }
    }

    /// Injects the scenario into a running session and returns the affected
    /// sites.
    pub fn apply(&self, session: &Session) -> RainbowResult<Vec<SiteId>> {
        let sites = session.site_ids();
        match self {
            FaultScenario::Healthy => Ok(Vec::new()),
            FaultScenario::SiteDown { count } => {
                let count = (*count).min(sites.len().saturating_sub(1));
                let victims: Vec<SiteId> = sites.iter().rev().take(count).copied().collect();
                for site in &victims {
                    session.crash_site(*site)?;
                }
                Ok(victims)
            }
            FaultScenario::MinorityPartition => {
                let minority = sites.len().saturating_sub(1) / 2;
                let isolated: Vec<SiteId> = sites.iter().rev().take(minority).copied().collect();
                if !isolated.is_empty() {
                    session.partition(std::slice::from_ref(&isolated))?;
                }
                Ok(isolated)
            }
        }
    }
}

/// Configuration of one protocol sweep: the grid axes plus the fixed
/// cluster and workload shape every cell shares.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Replication protocols to sweep (the RCP axis).
    pub protocols: Vec<RcpKind>,
    /// Workload profiles to sweep.
    pub profiles: Vec<WorkloadProfile>,
    /// Fault scenarios to sweep.
    pub faults: Vec<FaultScenario>,
    /// Number of sites.
    pub sites: usize,
    /// Number of database items.
    pub items: usize,
    /// Replication degree (copies per item).
    pub replication_degree: usize,
    /// Transactions per cell.
    pub transactions: usize,
    /// Multiprogramming level.
    pub mpl: usize,
    /// Base workload seed (each cell derives its own from it).
    pub seed: u64,
    /// Base protocol stack; each cell overrides the RCP.
    pub stack: ProtocolStack,
    /// Client timeout after which an unanswered transaction counts as an
    /// orphan. Kept short so cells with unreachable home sites finish.
    pub client_timeout: Duration,
    /// Tracing configuration for every cell. Defaults to
    /// [`TraceConfig::histograms_only`] so each cell records its per-phase
    /// latency breakdown without storing span trees.
    pub tracing: TraceConfig,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            protocols: RcpKind::ALL.to_vec(),
            profiles: vec![WorkloadProfile::WriteHeavy],
            faults: FaultScenario::standard(),
            sites: 5,
            items: 24,
            replication_degree: 5,
            transactions: 40,
            mpl: 6,
            seed: 42,
            stack: ProtocolStack::rainbow_default()
                .with_lock_wait_timeout(Duration::from_millis(150))
                .with_quorum_timeout(Duration::from_millis(400))
                .with_commit_timeout(Duration::from_millis(400)),
            client_timeout: Duration::from_millis(1500),
            tracing: TraceConfig::histograms_only(),
        }
    }
}

/// Response-time percentiles of one sweep cell, in milliseconds, over every
/// transaction that reached a decision (committed or aborted).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Mean.
    pub mean_ms: f64,
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
}

impl LatencySummary {
    /// Summarizes a set of response times.
    pub fn from_millis(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let percentile = |p: f64| -> f64 {
            let rank = ((samples.len() - 1) as f64 * p).round() as usize;
            samples[rank]
        };
        LatencySummary {
            mean_ms: samples.iter().sum::<f64>() / samples.len() as f64,
            p50_ms: percentile(0.50),
            p95_ms: percentile(0.95),
            p99_ms: percentile(0.99),
        }
    }
}

/// One cell of a protocol sweep: a (protocol, workload, fault) combination
/// and everything measured while running it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepCell {
    /// Replication protocol (short name, e.g. `QC`).
    pub protocol: String,
    /// Workload profile name.
    pub profile: String,
    /// Fault scenario name.
    pub fault: String,
    /// Sites affected by the fault scenario.
    pub affected_sites: Vec<u32>,
    /// Transactions submitted.
    pub transactions: usize,
    /// Transactions committed.
    pub committed: usize,
    /// Transactions aborted.
    pub aborted: usize,
    /// Transactions orphaned (home site unreachable).
    pub orphans: usize,
    /// Commit rate over decided (committed + aborted) transactions.
    pub commit_rate: f64,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Abort counts keyed by cause.
    pub abort_causes: BTreeMap<String, u64>,
    /// Response-time percentiles.
    pub latency: LatencySummary,
    /// Messages per decided transaction.
    pub messages_per_txn: f64,
    /// Per-phase latency breakdown (lock-wait, quorum-read, prepare,
    /// commit-apply, wal-force, queue-delay), keyed by phase name. Empty
    /// when the sweep ran with tracing disabled.
    pub phases: BTreeMap<String, LatencyStats>,
}

/// A completed protocol sweep: the grid shape plus every cell, ready to be
/// rendered as a table or serialized to `BENCH_protocols.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// Number of sites every cell ran with.
    pub sites: usize,
    /// Number of items.
    pub items: usize,
    /// Replication degree.
    pub replication_degree: usize,
    /// Transactions per cell.
    pub transactions_per_cell: usize,
    /// Multiprogramming level.
    pub mpl: usize,
    /// Base seed.
    pub seed: u64,
    /// The measured cells, in protocol-major grid order.
    pub cells: Vec<SweepCell>,
}

impl SweepReport {
    /// The cell for a (protocol, profile, fault) combination, if measured.
    pub fn cell(&self, protocol: RcpKind, profile: &str, fault: &str) -> Option<&SweepCell> {
        let name = protocol.to_string();
        self.cells
            .iter()
            .find(|c| c.protocol == name && c.profile == profile && c.fault == fault)
    }
}

/// A short stable key for an abort cause, used to aggregate the per-cell
/// abort breakdown. Exhaustive on purpose: a new abort cause must pick a
/// key here before it can ship.
fn abort_cause_key(cause: &AbortCause) -> &'static str {
    match cause {
        AbortCause::RcpQuorumUnavailable { .. } => "rcp-quorum-unavailable",
        AbortCause::RcpTimeout { .. } => "rcp-timeout",
        AbortCause::CcpLockConflict { .. } => "ccp-lock-conflict",
        AbortCause::CcpDeadlock { .. } => "ccp-deadlock",
        AbortCause::CcpTimestampViolation { .. } => "ccp-timestamp",
        AbortCause::AcpVotedNo { .. } => "acp-voted-no",
        AbortCause::AcpTimeout { .. } => "acp-timeout",
        AbortCause::SiteFailure { .. } => "site-failure",
        AbortCause::ClientTimeout => "client-timeout",
        AbortCause::UserAbort => "user-abort",
    }
}

/// Runs one sweep cell on a fresh session.
fn run_sweep_cell(
    config: &SweepConfig,
    rcp: RcpKind,
    profile: WorkloadProfile,
    fault: &FaultScenario,
    seed: u64,
) -> RainbowResult<SweepCell> {
    let mut session = Session::new();
    session.configure_sites(config.sites)?;
    session.configure_protocols(config.stack.clone().with_rcp(rcp))?;
    session.configure_uniform_database(config.items, 100, config.replication_degree)?;
    session.set_seed(seed);
    session.set_client_timeout(config.client_timeout);
    session.set_tracing(config.tracing.clone());
    session.start()?;

    let affected = fault.apply(&session)?;
    let report = session.run_generated(
        profile,
        config.transactions,
        ArrivalProcess::Closed { mpl: config.mpl },
    )?;

    let mut abort_causes: BTreeMap<String, u64> = BTreeMap::new();
    let mut decided_latencies_ms = Vec::new();
    for result in &report.results {
        if let Some(cause) = result.outcome.abort_cause() {
            *abort_causes
                .entry(abort_cause_key(cause).to_string())
                .or_insert(0) += 1;
        }
        if !result.outcome.is_orphaned() {
            decided_latencies_ms.push(result.response_time.as_secs_f64() * 1000.0);
        }
    }

    Ok(SweepCell {
        protocol: rcp.to_string(),
        profile: profile.name().to_string(),
        fault: fault.name(),
        affected_sites: affected.iter().map(|s| s.0).collect(),
        transactions: config.transactions,
        committed: report.committed(),
        aborted: report.aborted(),
        orphans: report.orphaned(),
        commit_rate: report.commit_rate(),
        throughput: report.throughput(),
        abort_causes,
        latency: LatencySummary::from_millis(decided_latencies_ms),
        messages_per_txn: report.messages_per_txn(),
        phases: report.stats.phases.clone(),
    })
}

/// Runs the full (protocol × workload profile × fault scenario) grid, one
/// fresh Rainbow instance per cell so scenarios cannot contaminate each
/// other. Cells are produced in protocol-major order.
pub fn run_protocol_sweep(config: &SweepConfig) -> RainbowResult<SweepReport> {
    let mut cells = Vec::new();
    for (i, rcp) in config.protocols.iter().enumerate() {
        for (j, profile) in config.profiles.iter().enumerate() {
            for (k, fault) in config.faults.iter().enumerate() {
                // Derive a distinct seed per cell so cells are independent
                // but the whole sweep stays reproducible.
                let seed = config
                    .seed
                    .wrapping_add((i as u64) << 16)
                    .wrapping_add((j as u64) << 8)
                    .wrapping_add(k as u64);
                cells.push(run_sweep_cell(config, *rcp, *profile, fault, seed)?);
            }
        }
    }
    Ok(SweepReport {
        sites: config.sites,
        items: config.items,
        replication_degree: config.replication_degree,
        transactions_per_cell: config.transactions,
        mpl: config.mpl,
        seed: config.seed,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbow_common::protocol::ProtocolStack;
    use rainbow_common::Operation;
    use std::time::Duration;

    fn session() -> Session {
        let mut session = Session::new();
        session.configure_sites(3).unwrap();
        session
            .configure_protocols(
                ProtocolStack::rainbow_default()
                    .with_lock_wait_timeout(Duration::from_millis(200))
                    .with_quorum_timeout(Duration::from_millis(500))
                    .with_commit_timeout(Duration::from_millis(500)),
            )
            .unwrap();
        session.configure_uniform_database(6, 50, 3).unwrap();
        session.start().unwrap();
        session
    }

    #[test]
    fn workload_runner_submits_and_runs_profiles() {
        let session = session();
        let wlg = WorkloadRunner::new(&session);
        let result = wlg
            .submit(TxnSpec::new("t", vec![Operation::increment("x0", 5)]))
            .unwrap();
        assert!(result.committed());
        let report = wlg
            .run_profile(
                WorkloadProfile::ReadHeavy,
                10,
                ArrivalProcess::Closed { mpl: 2 },
            )
            .unwrap();
        assert_eq!(report.results.len(), 10);
    }

    #[test]
    fn fault_scenarios_have_stable_names_and_apply_cleanly() {
        let session = session();
        assert_eq!(FaultScenario::Healthy.name(), "healthy");
        assert_eq!(FaultScenario::SiteDown { count: 2 }.name(), "2-site-down");
        assert_eq!(
            FaultScenario::MinorityPartition.name(),
            "minority-partition"
        );

        assert!(FaultScenario::Healthy.apply(&session).unwrap().is_empty());
        // 3 sites: one crash victim, chosen from the top.
        let down = FaultScenario::SiteDown { count: 1 }
            .apply(&session)
            .unwrap();
        assert_eq!(down, vec![SiteId(2)]);
        // Crashing "all" sites still leaves one alive.
        let down = FaultScenario::SiteDown { count: 99 }
            .apply(&session)
            .unwrap();
        assert_eq!(down.len(), 2);
    }

    #[test]
    fn a_small_protocol_sweep_covers_the_whole_grid() {
        let config = SweepConfig {
            protocols: vec![
                rainbow_common::protocol::RcpKind::QuorumConsensus,
                rainbow_common::protocol::RcpKind::AvailableCopies,
            ],
            profiles: vec![rainbow_wlg::WorkloadProfile::ReadHeavy],
            faults: vec![FaultScenario::Healthy, FaultScenario::SiteDown { count: 1 }],
            sites: 3,
            items: 6,
            replication_degree: 3,
            transactions: 6,
            mpl: 3,
            seed: 7,
            client_timeout: Duration::from_millis(1000),
            ..SweepConfig::default()
        };
        let report = run_protocol_sweep(&config).unwrap();
        assert_eq!(report.cells.len(), 4, "2 protocols × 1 profile × 2 faults");
        for cell in &report.cells {
            assert_eq!(
                cell.committed + cell.aborted + cell.orphans,
                cell.transactions,
                "{cell:?} lost transactions"
            );
        }
        // Both protocols keep committing reads with a minority crash.
        let qc = report
            .cell(
                rainbow_common::protocol::RcpKind::QuorumConsensus,
                "read-heavy",
                "1-site-down",
            )
            .unwrap();
        assert!(qc.committed > 0, "QC under one crash: {qc:?}");
        assert!(qc.latency.p95_ms >= qc.latency.p50_ms);
        assert!(qc.latency.mean_ms > 0.0);
        // The default histograms-only tracing gives every cell a per-phase
        // breakdown; a read-heavy committed workload must have exercised
        // quorum reads and prepares (a READ-ONLY vote is validation, which is
        // the prepare phase). The log is forced only where a write commits.
        let count = |phase: &str| qc.phases.get(phase).map_or(0, |s| s.count);
        for phase in ["quorum-read", "prepare"] {
            assert!(count(phase) > 0, "phase {phase} missing in {:?}", qc.phases);
        }
        if count("commit-apply") > 0 {
            assert!(count("wal-force") > 0, "a write committed unforced");
        }
    }

    #[test]
    fn latency_summary_percentiles_are_ordered() {
        let samples: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        let summary = LatencySummary::from_millis(samples);
        assert_eq!(summary.p50_ms, 50.0);
        assert_eq!(summary.p95_ms, 95.0);
        assert_eq!(summary.p99_ms, 99.0);
        assert!((summary.mean_ms - 50.0).abs() < 1e-9);
        assert_eq!(
            LatencySummary::from_millis(vec![]),
            LatencySummary::default()
        );
    }

    #[test]
    fn progress_runner_reports_statistics_and_convergence() {
        let session = session();
        let wlg = WorkloadRunner::new(&session);
        wlg.submit_all(vec![
            TxnSpec::new("w1", vec![Operation::write("x0", 1i64)]),
            TxnSpec::new("w2", vec![Operation::write("x1", 2i64)]),
        ])
        .unwrap();
        let pm = ProgressRunner::new(&session);
        let stats = pm.statistics().unwrap();
        assert_eq!(stats.submitted, 2);
        assert!(pm.render("runner test").unwrap().contains("committed"));
        assert!(!pm.database_view(SiteId(0)).unwrap().is_empty());
        let divergence = pm.replica_divergence().unwrap();
        assert!(divergence.is_empty(), "replicas diverged: {divergence:?}");
    }
}
