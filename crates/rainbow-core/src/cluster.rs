//! Building and driving a complete Rainbow instance.
//!
//! A [`Cluster`] is the programmatic equivalent of a configured Rainbow
//! session: a simulated network, the name server, and a set of Rainbow
//! sites, plus the client nodes through which transactions are submitted
//! and results collected (the role the GUI + WLGlet/PMlet play in the
//! paper). The workload generator, the Session API, the examples and every
//! bench drive the system through this type.

use crate::client::{Client, Clients};
use crate::messages::Msg;
use crate::metrics::{ProgressMonitor, SiteMetrics};
use crate::name_server::NameServer;
use crate::site::SiteHandle;
use parking_lot::Mutex;
use rainbow_common::config::{DatabaseSchema, DistributionSchema};
use rainbow_common::history::{History, HistorySink};
use rainbow_common::protocol::ProtocolStack;
use rainbow_common::stats::StatsSnapshot;
use rainbow_common::txn::{TxnResult, TxnSpec};
use rainbow_common::{ItemId, RainbowError, RainbowResult, SiteId, Value, Version};
use rainbow_net::{FaultController, NetworkConfig, NetworkCounters, NodeId, SimNetwork};
use rainbow_storage::{PowerLossFault, StorageConfig};
use rainbow_trace::{TraceConfig, Tracer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Full configuration of a Rainbow instance.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Sites and the hosts they live on.
    pub distribution: DistributionSchema,
    /// Items, initial values and the replication scheme.
    pub database: DatabaseSchema,
    /// The protocol stack (RCP + CCP + ACP and their timeouts).
    pub stack: ProtocolStack,
    /// The simulated network.
    pub network: NetworkConfig,
    /// How long a client waits for a transaction result before declaring the
    /// transaction orphaned.
    pub client_timeout: Duration,
    /// When true, every coordinator records its transaction's footprint
    /// (reads with observed versions, installed writes, outcome) into a
    /// cluster-wide [`History`] for the serializability checker. Off by
    /// default: the bench hot path pays nothing.
    pub record_history: bool,
    /// End-to-end tracing: per-transaction span trees and per-phase latency
    /// histograms (see [`rainbow_trace`]). Disabled by default, in which
    /// case no tracer is constructed anywhere and every instrumentation
    /// point reduces to a `None` check.
    pub tracing: TraceConfig,
    /// Storage medium every site's log runs on: byte vectors in memory (the
    /// fast default) or segment files on disk; the log engine is the same.
    /// [`ClusterConfig::quick`] reads the `RAINBOW_ENGINE` environment
    /// variable so the whole test suite can be pointed at either medium.
    pub storage: StorageConfig,
}

impl ClusterConfig {
    /// A convenient classroom-scale configuration: `n_sites` sites (one per
    /// host), `n_items` integer items initialised to 100 and replicated on
    /// `replication_degree` sites with majority quorums, default protocol
    /// stack, perfect network.
    pub fn quick(n_sites: usize, n_items: usize, replication_degree: usize) -> RainbowResult<Self> {
        let distribution = DistributionSchema::one_site_per_host(n_sites);
        let database =
            DatabaseSchema::uniform(n_items, 100, &distribution.site_ids(), replication_degree)?;
        Ok(ClusterConfig {
            distribution,
            database,
            stack: ProtocolStack::rainbow_default()
                .with_lock_wait_timeout(Duration::from_millis(200))
                .with_quorum_timeout(Duration::from_millis(500))
                .with_commit_timeout(Duration::from_millis(500)),
            network: NetworkConfig::perfect(),
            client_timeout: Duration::from_secs(10),
            record_history: false,
            tracing: TraceConfig::disabled(),
            storage: StorageConfig::from_env(),
        })
    }

    /// Builder-style protocol-stack override.
    pub fn with_stack(mut self, stack: ProtocolStack) -> Self {
        self.stack = stack;
        self
    }

    /// Builder-style network override.
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Builder-style client timeout.
    pub fn with_client_timeout(mut self, timeout: Duration) -> Self {
        self.client_timeout = timeout;
        self
    }

    /// Builder-style history recording toggle (see
    /// [`ClusterConfig::record_history`]).
    pub fn with_history_recording(mut self, record: bool) -> Self {
        self.record_history = record;
        self
    }

    /// Builder-style tracing configuration (see [`ClusterConfig::tracing`]).
    pub fn with_tracing(mut self, tracing: TraceConfig) -> Self {
        self.tracing = tracing;
        self
    }

    /// Builder-style storage-engine override (see [`ClusterConfig::storage`]).
    pub fn with_storage(mut self, storage: StorageConfig) -> Self {
        self.storage = storage;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> RainbowResult<()> {
        self.distribution.validate()?;
        self.database.validate()?;
        self.storage.validate()?;
        if self.distribution.is_empty() {
            return Err(RainbowError::InvalidConfig("no sites configured".into()));
        }
        // Every copy holder must be a configured site.
        let sites = self.distribution.site_ids();
        for holder in self.database.replication.copy_holders() {
            if !sites.contains(&holder) {
                return Err(RainbowError::InvalidConfig(format!(
                    "replication scheme references unknown site {holder}"
                )));
            }
        }
        Ok(())
    }
}

/// A running Rainbow instance.
pub struct Cluster {
    config: ClusterConfig,
    network: SimNetwork<Msg>,
    #[allow(dead_code)]
    name_server: NameServer,
    sites: BTreeMap<SiteId, SiteHandle>,
    clients: Clients,
    shut_down: AtomicBool,
    history: Option<Arc<HistorySink>>,
    tracer: Option<Arc<Tracer>>,
    /// Taken by each copier catch-up pass, so they run one at a time.
    catch_ups: Mutex<()>,
}

impl Cluster {
    /// Builds and starts a Rainbow instance from a configuration.
    pub fn start(config: ClusterConfig) -> RainbowResult<Self> {
        config.validate()?;
        let tracer = config
            .tracing
            .enabled
            .then(|| Arc::new(Tracer::new(config.tracing.clone())));
        let network = SimNetwork::<Msg>::traced(config.network.clone(), tracer.clone());
        let monitor = Arc::new(ProgressMonitor::with_tracer(
            network.counters(),
            tracer.clone(),
        ));

        // Name server first: sites fetch their schema from it at startup.
        let ns_mailbox = network.register(NodeId::NameServer);
        let name_server = NameServer::spawn(
            network.handle(),
            ns_mailbox,
            config.database.clone(),
            config.distribution.clone(),
        );

        let history = config.record_history.then(|| Arc::new(HistorySink::new()));

        let mut sites = BTreeMap::new();
        for spec in &config.distribution.sites {
            let mailbox = network.register(NodeId::Site(spec.id));
            let metrics = Arc::new(SiteMetrics::new());
            monitor.register_site(spec.id, Arc::clone(&metrics));
            let site = SiteHandle::spawn(
                spec.id,
                config.stack.clone(),
                &config.storage,
                network.handle(),
                mailbox,
                metrics,
                history.clone(),
                tracer.clone(),
            )?;
            sites.insert(spec.id, site);
        }

        let clients = Clients {
            net: network.handle(),
            monitor,
            sites: sites.keys().copied().collect(),
            timeout: config.client_timeout,
            counters: Default::default(),
        };
        Ok(Cluster {
            config,
            network,
            name_server,
            sites,
            clients,
            shut_down: AtomicBool::new(false),
            history,
            tracer,
            catch_ups: Mutex::new(()),
        })
    }

    /// An interactive client of this cluster: `begin → read/write → commit`
    /// conversations with typed, layer-attributed errors (see the
    /// [`crate::client`] module). Its node leaves the network when the
    /// client is dropped.
    pub fn client(&self) -> Client<'_> {
        Client::new(self.clients.node())
    }

    /// The configuration the cluster was built from.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The ids of the configured sites.
    pub fn site_ids(&self) -> Vec<SiteId> {
        self.sites.keys().copied().collect()
    }

    /// The fault controller (crash/recover/partition injection).
    pub fn faults(&self) -> Arc<FaultController> {
        self.network.faults()
    }

    /// The raw network traffic counters.
    pub fn network_counters(&self) -> Arc<NetworkCounters> {
        self.network.counters()
    }

    /// The progress monitor.
    pub fn monitor(&self) -> Arc<ProgressMonitor> {
        Arc::clone(&self.clients.monitor)
    }

    /// The tracer, or `None` when the cluster was started without
    /// [`ClusterConfig::tracing`] enabled. Exporters (Chrome trace JSON,
    /// ASCII span trees) and the phase-latency tables read from here.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.tracer.clone()
    }

    /// The current statistics snapshot (the Figure 5 panel).
    pub fn stats(&self) -> StatsSnapshot {
        self.clients.monitor.snapshot()
    }

    /// Total number of stale participant entries the janitors of all sites
    /// have cleaned up. A non-zero value after a healthy (no-fault) workload
    /// means some coordinator abandoned resources that only the janitor
    /// recovered — a leak indicator for tests.
    pub fn janitor_cleanups(&self) -> u64 {
        self.sum_over_sites(|metrics| &metrics.janitor_cleanups)
    }

    /// Copy accesses the CCP decided the first time it was asked, summed
    /// over all sites.
    pub fn copy_accesses_inline(&self) -> u64 {
        self.sum_over_sites(|metrics| &metrics.copy_accesses_inline)
    }

    /// Copy accesses that had to wait (for a lock, or behind an earlier
    /// pending pre-write) and were parked at their site, summed over all
    /// sites.
    pub fn copy_accesses_parked(&self) -> u64 {
        self.sum_over_sites(|metrics| &metrics.copy_accesses_parked)
    }

    /// Prepares answered READ-ONLY — the transaction wrote nothing at the
    /// site, which released it at once and left the commit protocol —
    /// summed over all sites.
    pub fn votes_read_only(&self) -> u64 {
        self.sum_over_sites(|metrics| &metrics.votes_read_only)
    }

    fn sum_over_sites(&self, counter: impl Fn(&SiteMetrics) -> &AtomicU64) -> u64 {
        self.sites
            .values()
            .map(|site| counter(&site.metrics()).load(Ordering::Relaxed))
            .sum()
    }

    /// Number of transactions currently holding concurrency-control
    /// resources at each site. Useful in tests and experiment teardown to
    /// verify that no transaction leaked locks after a workload finished.
    pub fn active_cc_transactions(&self) -> std::collections::BTreeMap<SiteId, usize> {
        self.sites
            .iter()
            .map(|(id, handle)| (*id, handle.active_transactions()))
            .collect()
    }

    /// Diagnostic view of participant-side transactions still registered at
    /// each site (see [`SiteHandle::lingering_participants`]).
    pub fn lingering_participants(
        &self,
    ) -> std::collections::BTreeMap<SiteId, Vec<(rainbow_common::TxnId, String, f64)>> {
        self.sites
            .iter()
            .map(|(id, handle)| (*id, handle.lingering_participants()))
            .collect()
    }

    /// Conversations the coordinators are still driving, summed over all
    /// sites (see [`SiteHandle::open_conversations`]): zero once every
    /// transaction has been answered *and* its acknowledgements collected.
    /// For tests of the coordinator's clean-up.
    #[doc(hidden)]
    pub fn open_conversations(&self) -> usize {
        self.sites
            .values()
            .map(|site| site.open_conversations())
            .sum()
    }

    /// The committed database state stored at one site.
    pub fn database_snapshot(&self, site: SiteId) -> RainbowResult<Vec<(ItemId, Value, Version)>> {
        self.sites
            .get(&site)
            .map(|s| s.database_snapshot())
            .ok_or(RainbowError::UnknownSite(site))
    }

    /// The transaction history recorded so far, or `None` when the cluster
    /// was started without [`ClusterConfig::record_history`]. The snapshot
    /// carries the initial database state so the checker can validate reads
    /// of version 0.
    pub fn history(&self) -> Option<History> {
        self.history.as_ref().map(|sink| {
            sink.snapshot(
                self.config
                    .database
                    .items
                    .iter()
                    .map(|spec| (spec.id.clone(), spec.initial.clone())),
            )
        })
    }

    /// Waits until every conversation that ever began has recorded its
    /// final outcome into the history sink (or `deadline_after` elapses).
    /// Returns true on quiescence. Chaos runs call this before snapshotting
    /// so the history cannot miss a committed transaction whose coordinator
    /// was still finishing — a gap the checker would misread as an
    /// unexplained version.
    pub fn await_history_quiescence(&self, deadline_after: Duration) -> bool {
        let Some(sink) = self.history.as_ref() else {
            return true;
        };
        let deadline = std::time::Instant::now() + deadline_after;
        while sink.in_flight() > 0 {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        true
    }

    /// Crashes a site: its messages are dropped by the network until it is
    /// recovered.
    pub fn crash_site(&self, site: SiteId) -> RainbowResult<()> {
        if !self.sites.contains_key(&site) {
            return Err(RainbowError::UnknownSite(site));
        }
        self.network.faults().crash(NodeId::Site(site));
        Ok(())
    }

    /// Recovers a crashed site: volatile state is discarded, the committed
    /// state is rebuilt from its log, in-doubt transactions are resolved
    /// with their coordinators, and the site rejoins the network. The
    /// restart is a call on the site's loop, between two messages.
    pub fn recover_site(&self, site: SiteId) -> RainbowResult<()> {
        let handle = self
            .sites
            .get(&site)
            .ok_or(RainbowError::UnknownSite(site))?;
        handle.recover_from_crash()?;
        self.network.faults().recover(NodeId::Site(site));
        Ok(())
    }

    /// Recovers a crashed site like [`Cluster::recover_site`], then runs the
    /// **copier catch-up** the classic Available Copies algorithm requires:
    /// the recovered site's copies are refreshed from the latest committed
    /// versions held by live peers, so read-one protocols (Available
    /// Copies, Primary Copy) cannot serve reads from the staleness window
    /// the crash opened. Two passes close the race with in-flight writes:
    ///
    /// 1. the site rejoins the network during the first pass, a call on its
    ///    loop that reads the peers' copies and installs them: it handles
    ///    nothing before the repair, and every write planned from then on
    ///    includes it;
    /// 2. writes *planned while it was still marked crashed* may commit
    ///    without it for up to one quorum + commit window; the call waits
    ///    that window out and repairs once more.
    ///
    /// The repair reads peer state directly (the simulator's privilege,
    /// standing in for the copier transactions a real deployment would
    /// run); only strictly newer versions are installed, so racing with
    /// live writes is safe. Quorum-intersecting protocols (ROWA, QC, Tree
    /// Quorum) do not need this — their reads mask stale copies by version
    /// — but it is harmless under them.
    ///
    /// Each repair is a call on the site's loop, as a restart is, so its
    /// checkpoint never runs beside a commit the loop is forcing.
    pub fn recover_site_with_catchup(&self, site: SiteId) -> RainbowResult<()> {
        let handle = self
            .sites
            .get(&site)
            .ok_or(RainbowError::UnknownSite(site))?;
        handle.recover_from_crash()?;
        self.rejoin_with_catch_up(site)
    }

    /// The power-loss nemesis, the durable sibling of
    /// [`Cluster::recover_site_with_catchup`]: marks the site crashed,
    /// drops **all** of its volatile state (including anything its storage
    /// engine had buffered but not yet synced), optionally injects a torn
    /// or corrupted tail write into its log, restarts it from its log alone,
    /// and rejoins the network with the same two-pass copier catch-up.
    /// Like a crash restart, it is a call on the site's loop, between two
    /// messages. The memory medium tears like a file.
    ///
    /// Recovery errors — e.g. a
    /// corrupted record *before* the log tail — surface as typed
    /// [`RainbowError::CorruptLog`] values rather than panics.
    pub fn power_loss_site(&self, site: SiteId, fault: PowerLossFault) -> RainbowResult<()> {
        let handle = self
            .sites
            .get(&site)
            .ok_or(RainbowError::UnknownSite(site))?;
        self.network.faults().crash(NodeId::Site(site));
        handle.power_loss(fault)?;
        self.rejoin_with_catch_up(site)
    }

    /// The two-pass copier catch-up a restarted site rejoins the network
    /// with (see [`Cluster::recover_site_with_catchup`]).
    fn rejoin_with_catch_up(&self, site: SiteId) -> RainbowResult<()> {
        self.catch_up(site, true)?;
        std::thread::sleep(self.config.stack.quorum_timeout + self.config.stack.commit_timeout);
        self.catch_up(site, false)
    }

    /// One catch-up pass: a call on the recovering site's loop (after it
    /// rejoins the network, with `rejoin`) collects the highest committed
    /// version of every item from the peers that are currently up, and
    /// installs the ones the site is behind on. Reading a peer is a call on
    /// that peer's loop, and the site handles nothing meanwhile: a read it
    /// served between the fetch and the install could be stale.
    ///
    /// Passes run one at a time: each holds its site while it waits for
    /// its peers, and two passes holding each other's site would wait
    /// forever.
    fn catch_up(&self, site: SiteId, rejoin: bool) -> RainbowResult<()> {
        let handle = self
            .sites
            .get(&site)
            .ok_or(RainbowError::UnknownSite(site))?;
        let _one_at_a_time = self.catch_ups.lock();
        let faults = self.network.faults();
        let peers = self.sites.iter().filter(|(peer, _)| **peer != site);
        let peers: Vec<_> = peers.map(|(peer, h)| (*peer, h.caller.clone())).collect();
        handle.repair_copies(move || {
            if rejoin {
                faults.recover(NodeId::Site(site));
            }
            let mut latest: BTreeMap<ItemId, (Value, Version)> = BTreeMap::new();
            for (peer, caller) in &peers {
                if faults.is_crashed(NodeId::Site(*peer)) {
                    continue;
                }
                for (item, value, version) in caller.database_snapshot().unwrap_or_default() {
                    match latest.get(&item) {
                        Some((_, seen)) if *seen >= version => {}
                        _ => {
                            latest.insert(item, (value, version));
                        }
                    }
                }
            }
            latest
                .into_iter()
                .map(|(item, (value, version))| (item, value, version))
                .collect()
        });
        Ok(())
    }

    /// Jumps a site's logical clock `ticks` ahead — the nemesis clock-skew
    /// fault. Harmless for 2PL stacks; under (MV)TSO it makes the skewed
    /// site issue far-future timestamps, aborting concurrent old-timestamp
    /// transactions, which is exactly the behavior the experiment observes.
    pub fn skew_site_clock(&self, site: SiteId, ticks: u64) -> RainbowResult<()> {
        self.sites
            .get(&site)
            .map(|handle| handle.skew_clock(ticks))
            .ok_or(RainbowError::UnknownSite(site))
    }

    /// Partitions the network into the given site groups (sites not listed
    /// end up in an implicit extra group).
    pub fn partition(&self, groups: &[Vec<SiteId>]) {
        let node_groups: Vec<Vec<NodeId>> = groups
            .iter()
            .map(|group| group.iter().map(|s| NodeId::Site(*s)).collect())
            .collect();
        self.network.faults().partition(&node_groups);
    }

    /// Heals all partitions.
    pub fn heal_partition(&self) {
        self.network.faults().heal_partition();
    }

    /// Submits a one-shot transaction and waits for its result. The home
    /// site is the one named in the spec, or chosen round-robin. A
    /// transaction whose home site never answers (crash, partition) is
    /// reported as orphaned after the configured client timeout — the
    /// paper's "orphan transactions" statistic.
    pub fn submit(&self, spec: TxnSpec) -> TxnResult {
        let mut results = self.run_arrivals(vec![(Duration::ZERO, spec)], 1);
        results.pop().expect("one result per spec")
    }

    /// Runs a batch of transactions with at most `mpl` (multiprogramming
    /// level) outstanding at any time and returns all results.
    pub fn run_workload(&self, specs: Vec<TxnSpec>, mpl: usize) -> Vec<TxnResult> {
        let arrivals = specs.into_iter().map(|spec| (Duration::ZERO, spec));
        let mut results = self.run_arrivals(arrivals.collect(), mpl);
        results.sort_by_key(|r| r.id);
        results
    }

    /// Runs one-shot transactions on one client endpoint, on the calling
    /// thread (see [`crate::client`]): each spec opens its conversation at
    /// its offset from the call (offsets in order), or later while `mpl`
    /// conversations are open. Every spec comes back with exactly one
    /// result, an unanswered one as orphaned; results are in completion
    /// order.
    pub fn run_arrivals(&self, arrivals: Vec<(Duration, TxnSpec)>, mpl: usize) -> Vec<TxnResult> {
        self.clients.node().run_specs(arrivals, mpl)
    }

    /// Stops every component: sites, the name server, the network.
    /// Transactions still in flight are abandoned (each site's event loop
    /// fails its own with a site failure on the way out).
    ///
    /// Idempotent: the first call tears everything down, later calls (and
    /// the [`Drop`] impl, which delegates here) are no-ops — so examples
    /// and early-return test paths can never leak site or coordinator
    /// threads, whether they shut down explicitly or just let the cluster
    /// fall out of scope.
    pub fn shutdown(&mut self) {
        if self.shut_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Each site joins its loop, then flushes and fsyncs its engine.
        for site in self.sites.values_mut() {
            site.shutdown();
        }
        self.name_server.shutdown();
        self.network.shutdown();
        // Throwaway data directories (RAINBOW_ENGINE=disk test runs) are
        // removed once nothing is writing to them any more.
        if self.config.storage.ephemeral {
            if let Some(dir) = &self.config.storage.data_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbow_common::protocol::{AcpKind, CcpKind, RcpKind};
    use rainbow_common::Operation;
    use std::time::Instant;

    fn quick_cluster(n_sites: usize) -> Cluster {
        Cluster::start(ClusterConfig::quick(n_sites, 8, n_sites.min(3)).unwrap()).unwrap()
    }

    #[test]
    fn read_only_transaction_commits_and_reads_initial_values() {
        let cluster = quick_cluster(3);
        let result = cluster.submit(TxnSpec::new(
            "read-only",
            vec![Operation::read("x0"), Operation::read("x1")],
        ));
        assert!(result.committed(), "outcome was {:?}", result.outcome);
        assert_eq!(result.reads.get(&ItemId::new("x0")), Some(&Value::Int(100)));
        assert_eq!(result.reads.get(&ItemId::new("x1")), Some(&Value::Int(100)));
        let stats = cluster.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.committed, 1);
    }

    #[test]
    fn update_transaction_is_visible_to_later_readers() {
        let cluster = quick_cluster(3);
        let write = cluster.submit(TxnSpec::new("writer", vec![Operation::write("x0", 555i64)]));
        assert!(write.committed(), "outcome was {:?}", write.outcome);
        let read = cluster.submit(TxnSpec::new("reader", vec![Operation::read("x0")]));
        assert!(read.committed());
        assert_eq!(read.reads.get(&ItemId::new("x0")), Some(&Value::Int(555)));
    }

    #[test]
    fn increments_accumulate_across_transactions() {
        let cluster = quick_cluster(2);
        for _ in 0..5 {
            let result = cluster.submit(TxnSpec::new("inc", vec![Operation::increment("x2", 10)]));
            assert!(result.committed(), "outcome was {:?}", result.outcome);
        }
        let read = cluster.submit(TxnSpec::new("check", vec![Operation::read("x2")]));
        assert_eq!(read.reads.get(&ItemId::new("x2")), Some(&Value::Int(150)));
    }

    #[test]
    fn unknown_item_aborts_with_rcp_cause() {
        let cluster = quick_cluster(2);
        let result = cluster.submit(TxnSpec::new("bad", vec![Operation::read("does-not-exist")]));
        assert!(result.outcome.is_aborted());
        let stats = cluster.stats();
        assert_eq!(stats.aborted, 1);
    }

    #[test]
    fn pinned_home_site_is_respected() {
        let cluster = quick_cluster(3);
        let result =
            cluster.submit(TxnSpec::new("pinned", vec![Operation::read("x0")]).at_site(SiteId(2)));
        assert!(result.committed());
        assert_eq!(result.id.home, SiteId(2));
    }

    #[test]
    fn workload_batch_runs_to_completion() {
        let cluster = quick_cluster(3);
        let specs: Vec<TxnSpec> = (0..20)
            .map(|i| {
                TxnSpec::new(
                    format!("t{i}"),
                    vec![
                        Operation::read(format!("x{}", i % 8)),
                        Operation::increment(format!("x{}", (i + 1) % 8), 1),
                    ],
                )
            })
            .collect();
        let results = cluster.run_workload(specs, 4);
        assert_eq!(results.len(), 20);
        let stats = cluster.stats();
        assert_eq!(stats.submitted, 20);
        assert_eq!(stats.committed + stats.aborted + stats.orphans, 20);
        assert!(stats.committed > 0);
        assert!(stats.messages.sent > 0);
    }

    #[test]
    fn rowa_and_alternative_ccp_stacks_work_end_to_end() {
        for (rcp, ccp, acp) in [
            (
                RcpKind::Rowa,
                CcpKind::TwoPhaseLocking,
                AcpKind::TwoPhaseCommit,
            ),
            (
                RcpKind::QuorumConsensus,
                CcpKind::TimestampOrdering,
                AcpKind::TwoPhaseCommit,
            ),
            (
                RcpKind::QuorumConsensus,
                CcpKind::MultiversionTimestampOrdering,
                AcpKind::ThreePhaseCommit,
            ),
        ] {
            let config = ClusterConfig::quick(3, 6, 3).unwrap().with_stack(
                ProtocolStack::rainbow_default()
                    .with_rcp(rcp)
                    .with_ccp(ccp)
                    .with_acp(acp)
                    .with_lock_wait_timeout(Duration::from_millis(200))
                    .with_quorum_timeout(Duration::from_millis(500))
                    .with_commit_timeout(Duration::from_millis(500)),
            );
            let cluster = Cluster::start(config).unwrap();
            let write = cluster.submit(TxnSpec::new("w", vec![Operation::write("x0", 9i64)]));
            assert!(
                write.committed(),
                "stack {rcp:?}+{ccp:?}+{acp:?} failed: {:?}",
                write.outcome
            );
            let read = cluster.submit(TxnSpec::new("r", vec![Operation::read("x0")]));
            assert_eq!(
                read.reads.get(&ItemId::new("x0")),
                Some(&Value::Int(9)),
                "stack {rcp:?}+{ccp:?}+{acp:?}"
            );
        }
    }

    #[test]
    fn crashing_a_majority_blocks_writes_under_qc() {
        let cluster = quick_cluster(3);
        cluster.crash_site(SiteId(1)).unwrap();
        cluster.crash_site(SiteId(2)).unwrap();
        let result = cluster.submit(TxnSpec::new("blocked", vec![Operation::write("x0", 1i64)]));
        assert!(
            !result.committed(),
            "write must not commit without a quorum: {:?}",
            result.outcome
        );
        // Recover and retry: the system heals.
        cluster.recover_site(SiteId(1)).unwrap();
        cluster.recover_site(SiteId(2)).unwrap();
        let retry = cluster.submit(TxnSpec::new("retry", vec![Operation::write("x0", 2i64)]));
        assert!(retry.committed(), "outcome was {:?}", retry.outcome);
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let mut cluster = quick_cluster(2);
        let result = cluster.submit(TxnSpec::new("t", vec![Operation::read("x0")]));
        assert!(result.committed());
        // Explicit shutdown, then again, then the Drop impl on scope exit:
        // every path must be a no-op after the first.
        cluster.shutdown();
        cluster.shutdown();
        // Submitting against a torn-down cluster reports an orphan instead
        // of hanging or panicking.
        let late = cluster.submit(TxnSpec::new("late", vec![Operation::read("x0")]));
        assert!(late.outcome.is_orphaned());
        drop(cluster);
    }

    #[test]
    fn history_recording_captures_footprints_with_versions() {
        let config = ClusterConfig::quick(3, 4, 3)
            .unwrap()
            .with_history_recording(true);
        let cluster = Cluster::start(config).unwrap();
        let w = cluster.submit(TxnSpec::new("w", vec![Operation::write("x0", 7i64)]));
        assert!(w.committed());
        let r = cluster.submit(TxnSpec::new(
            "r",
            vec![Operation::read("x0"), Operation::increment("x1", 1)],
        ));
        assert!(r.committed());
        assert!(cluster.await_history_quiescence(Duration::from_secs(5)));

        let history = cluster.history().expect("recording is on");
        assert_eq!(history.len(), 2);
        assert_eq!(history.initial.len(), 4, "initial state travels along");
        let writer = &history.records[0];
        assert_eq!(writer.label, "w");
        assert!(writer.committed());
        assert_eq!(writer.writes.len(), 1);
        assert_eq!(writer.writes[0].value, Value::Int(7));
        assert!(writer.writes[0].version > Version(0));
        let reader = &history.records[1];
        assert_eq!(reader.reads.len(), 2, "read + increment observation");
        assert_eq!(reader.reads[0].value, Value::Int(7));
        assert_eq!(reader.reads[0].version, writer.writes[0].version);
        assert_eq!(reader.writes.len(), 1, "the increment's install");
    }

    #[test]
    fn history_is_absent_when_recording_is_off() {
        let cluster = quick_cluster(2);
        let result = cluster.submit(TxnSpec::new("t", vec![Operation::read("x0")]));
        assert!(result.committed());
        assert!(cluster.history().is_none());
        assert!(cluster.await_history_quiescence(Duration::from_millis(10)));
    }

    #[test]
    fn recovery_with_catchup_refreshes_stale_copies() {
        let cluster = quick_cluster(3);
        cluster.crash_site(SiteId(2)).unwrap();
        let write = cluster.submit(TxnSpec::new("w", vec![Operation::write("x0", 42i64)]));
        assert!(write.committed(), "{:?}", write.outcome);
        // Raw recovery would leave site 2's copy of x0 at the initial
        // version; the catch-up variant repairs it from live peers.
        cluster.recover_site_with_catchup(SiteId(2)).unwrap();
        let snapshot = cluster.database_snapshot(SiteId(2)).unwrap();
        let copy = snapshot
            .iter()
            .find(|(item, _, _)| *item == ItemId::new("x0"))
            .expect("site 2 holds x0");
        assert_eq!(copy.1, Value::Int(42), "stale copy must be repaired");
        assert!(copy.2 > Version(0));
        assert!(cluster.recover_site_with_catchup(SiteId(9)).is_err());
    }

    #[test]
    fn clock_skew_targets_known_sites_only() {
        let cluster = quick_cluster(2);
        cluster.skew_site_clock(SiteId(0), 10_000).unwrap();
        assert!(cluster.skew_site_clock(SiteId(9), 1).is_err());
        // The cluster still processes transactions after the jump.
        let result = cluster.submit(TxnSpec::new("t", vec![Operation::read("x0")]));
        assert!(result.committed());
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let mut config = ClusterConfig::quick(2, 2, 2).unwrap();
        config.database.replication.place(
            "x0",
            rainbow_common::config::ItemPlacement::majority(vec![SiteId(9)]),
        );
        assert!(Cluster::start(config).is_err());
    }

    #[test]
    fn traced_cluster_captures_span_trees_and_phase_histograms() {
        let config = ClusterConfig::quick(3, 4, 3)
            .unwrap()
            .with_tracing(rainbow_trace::TraceConfig::sample_all());
        let cluster = Cluster::start(config).unwrap();
        let w = cluster.submit(TxnSpec::new("w", vec![Operation::write("x0", 7i64)]));
        assert!(w.committed(), "{:?}", w.outcome);
        let r = cluster.submit(TxnSpec::new(
            "r",
            vec![Operation::read("x0"), Operation::increment("x1", 2)],
        ));
        assert!(r.committed(), "{:?}", r.outcome);
        // The client is answered at the decision; the participants record
        // `apply:commit` and `wal:force` when it reaches them, before they
        // ack, and the coordinator retires once the acks are in.
        let deadline = Instant::now() + Duration::from_secs(10);
        while cluster.open_conversations() > 0 {
            assert!(Instant::now() < deadline, "a coordinator never retired");
            std::thread::sleep(Duration::from_millis(1));
        }

        let tracer = cluster.tracer().expect("tracing is on");
        let traced = tracer.traced_txns();
        assert!(
            traced.len() >= 2,
            "both transactions sampled, got {traced:?}"
        );
        let labels: Vec<String> = tracer.events().iter().map(|e| e.label.clone()).collect();
        for expected in [
            "txn",
            "op:commit",
            "quorum:leg",
            "ccp:grant",
            "acp:prepare",
            "acp:vote",
            "apply:commit",
            "wal:force",
        ] {
            assert!(
                labels.iter().any(|l| l == expected),
                "missing {expected} in {labels:?}"
            );
        }
        // Read + increment contribute to the quorum-read phase; commits
        // exercise prepare / commit-apply / wal-force everywhere.
        let phases = cluster.stats().phases;
        for phase in [
            "quorum-read",
            "lock-wait",
            "prepare",
            "commit-apply",
            "wal-force",
        ] {
            assert!(
                phases.get(phase).is_some_and(|s| s.count > 0),
                "phase {phase} empty: {phases:?}"
            );
        }
        // The untraced path stays tracer-free.
        let plain = quick_cluster(2);
        assert!(plain.tracer().is_none());
        assert!(plain.stats().phases.is_empty());
    }

    #[test]
    fn stats_snapshot_exposes_load_balance_per_site() {
        let cluster = quick_cluster(2);
        for i in 0..6 {
            cluster.submit(TxnSpec::new(format!("t{i}"), vec![Operation::read("x0")]));
        }
        let stats = cluster.stats();
        let total_home: u64 = stats.load.home_transactions.values().sum();
        assert_eq!(total_home, 6);
    }
}
