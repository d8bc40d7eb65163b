//! Experiment harness shared by every benchmark target.
//!
//! Each experiment is regenerated by one bench target under `benches/`. Those targets all follow the same shape:
//! build a Rainbow instance from a [`RunSpec`], drive a generated workload
//! through it, and summarize the outcome as an [`ExperimentPoint`]. This
//! library holds that shared machinery (plus its own unit tests) so the
//! bench files stay small and uniform.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod regression;

use rainbow_common::protocol::{AcpKind, CcpKind, ProtocolStack, RcpKind};
use rainbow_common::stats::StatsSnapshot;
use rainbow_common::txn::AbortLayer;
use rainbow_common::SiteId;
use rainbow_control::{ExperimentTable, Session, SessionConfig};
use rainbow_net::{LatencyModel, LinkConfig, NetworkConfig};
use rainbow_wlg::{ArrivalProcess, WorkloadProfile};
use std::time::Duration;

/// One experiment configuration: a Rainbow instance plus a workload.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// A short label identifying this point in the experiment table.
    pub label: String,
    /// Number of sites (one per host).
    pub sites: usize,
    /// Number of database items.
    pub items: usize,
    /// Replication degree (copies per item).
    pub replication_degree: usize,
    /// Protocol stack.
    pub stack: ProtocolStack,
    /// Network configuration.
    pub network: NetworkConfig,
    /// Workload profile.
    pub profile: WorkloadProfile,
    /// Number of transactions to run.
    pub transactions: usize,
    /// Multiprogramming level.
    pub mpl: usize,
    /// Workload seed.
    pub seed: u64,
    /// Sites (by index) crashed before the workload starts.
    pub crash_sites: Vec<u32>,
}

impl RunSpec {
    /// A baseline spec: 4 sites, 16 items × 3 replicas, default protocols,
    /// LAN-like latency, 200 read-heavy transactions at MPL 8.
    pub fn baseline(label: impl Into<String>) -> Self {
        RunSpec {
            label: label.into(),
            sites: 4,
            items: 16,
            replication_degree: 3,
            stack: experiment_stack(),
            network: lan_network(1),
            profile: WorkloadProfile::ReadHeavy,
            transactions: 200,
            mpl: 8,
            seed: 42,
            crash_sites: Vec::new(),
        }
    }

    /// Builder-style overrides.
    pub fn with_sites(mut self, sites: usize) -> Self {
        self.sites = sites;
        self
    }
    /// Sets the number of items.
    pub fn with_items(mut self, items: usize) -> Self {
        self.items = items;
        self
    }
    /// Sets the replication degree.
    pub fn with_replication(mut self, degree: usize) -> Self {
        self.replication_degree = degree;
        self
    }
    /// Sets the protocol stack.
    pub fn with_stack(mut self, stack: ProtocolStack) -> Self {
        self.stack = stack;
        self
    }
    /// Sets the workload profile.
    pub fn with_profile(mut self, profile: WorkloadProfile) -> Self {
        self.profile = profile;
        self
    }
    /// Sets the transaction count.
    pub fn with_transactions(mut self, transactions: usize) -> Self {
        self.transactions = transactions;
        self
    }
    /// Sets the multiprogramming level.
    pub fn with_mpl(mut self, mpl: usize) -> Self {
        self.mpl = mpl;
        self
    }
    /// Sets the network configuration.
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }
    /// Crashes the given sites (by index) before the workload runs.
    pub fn with_crashed_sites(mut self, sites: Vec<u32>) -> Self {
        self.crash_sites = sites;
        self
    }
    /// Sets the workload seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The protocol timeouts used by every experiment (short enough that abort
/// paths do not dominate wall-clock time, long enough for LAN latencies).
pub fn experiment_stack() -> ProtocolStack {
    ProtocolStack::rainbow_default()
        .with_lock_wait_timeout(Duration::from_millis(150))
        .with_quorum_timeout(Duration::from_millis(400))
        .with_commit_timeout(Duration::from_millis(400))
}

/// A LAN-like network: 0.2–1.0 ms one-way latency, no loss.
pub fn lan_network(seed: u64) -> NetworkConfig {
    NetworkConfig::default()
        .with_default_link(LinkConfig::with_latency(LatencyModel::uniform(
            Duration::from_micros(200),
            Duration::from_millis(1),
        )))
        .with_seed(seed)
}

/// Summary of one experiment run — the columns the experiment tables print.
#[derive(Debug, Clone)]
pub struct ExperimentPoint {
    /// The spec's label.
    pub label: String,
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions.
    pub aborted: u64,
    /// Orphaned transactions.
    pub orphans: u64,
    /// Commit rate (committed / finished).
    pub commit_rate: f64,
    /// Abort rate attributed to the RCP.
    pub abort_rate_rcp: f64,
    /// Abort rate attributed to the CCP.
    pub abort_rate_ccp: f64,
    /// Abort rate attributed to the ACP.
    pub abort_rate_acp: f64,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Mean response time in milliseconds.
    pub mean_response_ms: f64,
    /// 95th-percentile response time in milliseconds.
    pub p95_response_ms: f64,
    /// Total messages sent on the simulated network.
    pub messages_total: u64,
    /// Messages per finished transaction.
    pub messages_per_txn: f64,
    /// Load imbalance (coefficient of variation of per-site served
    /// requests).
    pub load_imbalance: f64,
    /// The full statistics snapshot, for benches that need more detail.
    pub stats: StatsSnapshot,
}

impl ExperimentPoint {
    fn from_stats(label: String, stats: StatsSnapshot) -> Self {
        ExperimentPoint {
            label,
            committed: stats.committed,
            aborted: stats.aborted,
            orphans: stats.orphans,
            commit_rate: stats.commit_rate(),
            abort_rate_rcp: stats.abort_rate_for(AbortLayer::Rcp),
            abort_rate_ccp: stats.abort_rate_for(AbortLayer::Ccp),
            abort_rate_acp: stats.abort_rate_for(AbortLayer::Acp),
            throughput: stats.throughput(),
            mean_response_ms: stats.response_time.mean_us / 1000.0,
            p95_response_ms: stats.response_time.p95_us as f64 / 1000.0,
            messages_total: stats.messages.sent,
            messages_per_txn: stats.messages_per_txn(),
            load_imbalance: stats.load.imbalance(),
            stats,
        }
    }
}

/// Builds a session from a [`RunSpec`] (without starting a workload).
pub fn build_session(spec: &RunSpec) -> Session {
    let config = SessionConfig {
        seed: spec.seed,
        network: spec.network.clone(),
        stack: spec.stack.clone(),
        client_timeout_ms: 5_000,
        ..SessionConfig::default()
    };
    let mut session = Session::from_config(config);
    session
        .configure_sites(spec.sites)
        .expect("configure sites");
    session
        .configure_uniform_database(spec.items, 100, spec.replication_degree)
        .expect("configure database");
    session.set_seed(spec.seed);
    session.start().expect("start session");
    session
}

/// Runs one experiment point end to end.
pub fn run_experiment(spec: &RunSpec) -> ExperimentPoint {
    let session = build_session(spec);
    for site in &spec.crash_sites {
        session
            .crash_site(SiteId(*site))
            .expect("crash requested site");
    }
    let _report = session
        .run_generated(
            spec.profile,
            spec.transactions,
            ArrivalProcess::Closed { mpl: spec.mpl },
        )
        .expect("run workload");
    let stats = session.statistics().expect("statistics");
    ExperimentPoint::from_stats(spec.label.clone(), stats)
}

/// Renders a list of points into an [`ExperimentTable`] with the standard
/// columns.
pub fn standard_table(title: &str, points: &[ExperimentPoint]) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        title,
        &[
            "config",
            "committed",
            "aborted",
            "commit%",
            "abort%RCP",
            "abort%CCP",
            "abort%ACP",
            "tput/s",
            "rt-mean ms",
            "rt-p95 ms",
            "msgs",
            "msgs/txn",
            "imbalance",
        ],
    );
    for p in points {
        table.row(&[
            p.label.clone(),
            p.committed.to_string(),
            p.aborted.to_string(),
            format!("{:.1}", p.commit_rate * 100.0),
            format!("{:.1}", p.abort_rate_rcp * 100.0),
            format!("{:.1}", p.abort_rate_ccp * 100.0),
            format!("{:.1}", p.abort_rate_acp * 100.0),
            format!("{:.1}", p.throughput),
            format!("{:.2}", p.mean_response_ms),
            format!("{:.2}", p.p95_response_ms),
            p.messages_total.to_string(),
            format!("{:.1}", p.messages_per_txn),
            format!("{:.3}", p.load_imbalance),
        ]);
    }
    table
}

/// Convenience constructor for a protocol stack with the experiment
/// timeouts and the given layer choices.
pub fn stack(rcp: RcpKind, ccp: CcpKind, acp: AcpKind) -> ProtocolStack {
    experiment_stack().with_rcp(rcp).with_ccp(ccp).with_acp(acp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_spec_builders_compose() {
        let spec = RunSpec::baseline("b")
            .with_sites(3)
            .with_items(8)
            .with_replication(2)
            .with_transactions(10)
            .with_mpl(2)
            .with_seed(7)
            .with_profile(WorkloadProfile::WriteHeavy)
            .with_network(NetworkConfig::perfect())
            .with_crashed_sites(vec![2])
            .with_stack(stack(
                RcpKind::Rowa,
                CcpKind::TimestampOrdering,
                AcpKind::ThreePhaseCommit,
            ));
        assert_eq!(spec.sites, 3);
        assert_eq!(spec.items, 8);
        assert_eq!(spec.replication_degree, 2);
        assert_eq!(spec.transactions, 10);
        assert_eq!(spec.mpl, 2);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.crash_sites, vec![2]);
        assert_eq!(spec.stack.rcp, RcpKind::Rowa);
    }

    #[test]
    fn a_small_experiment_runs_end_to_end() {
        let spec = RunSpec::baseline("smoke")
            .with_sites(2)
            .with_items(4)
            .with_replication(2)
            .with_transactions(8)
            .with_mpl(2)
            .with_network(NetworkConfig::perfect());
        let point = run_experiment(&spec);
        assert_eq!(point.label, "smoke");
        assert_eq!(point.committed + point.aborted + point.orphans, 8);
        assert!(point.commit_rate > 0.0);
        let table = standard_table("smoke table", &[point]);
        let rendered = table.render();
        assert!(rendered.contains("smoke"));
        assert!(rendered.contains("commit%"));
    }

    #[test]
    fn standard_table_has_a_row_per_point() {
        let spec = RunSpec::baseline("p")
            .with_sites(2)
            .with_items(4)
            .with_replication(1)
            .with_transactions(4)
            .with_mpl(2)
            .with_network(NetworkConfig::perfect());
        let a = run_experiment(&spec.clone().with_seed(1));
        let b = run_experiment(&spec.with_seed(2));
        let table = standard_table("two", &[a, b]);
        assert_eq!(table.len(), 2);
    }
}
