//! The Rainbow session: configure → start → submit workloads → inject
//! failures → monitor. One `Session` is the programmatic equivalent of one
//! GUI session in the paper ("When a new session starts, the user should
//! first configure Rainbow and then submit a workload").

use crate::config::SessionConfig;
use crate::report::render_stats_panel;
use rainbow_common::config::{DatabaseSchema, DistributionSchema, ItemPlacement};
use rainbow_common::protocol::ProtocolStack;
use rainbow_common::stats::{is_finished, StatsSnapshot};
use rainbow_common::txn::{TxnError, TxnOutcome, TxnResult, TxnSpec};
use rainbow_common::{ItemId, RainbowError, RainbowResult, SiteId, Value, Version};
use rainbow_core::{Client, Cluster, Txn};
use rainbow_net::NetworkConfig;
use rainbow_wlg::{
    ArrivalProcess, InteractiveProfile, InteractiveScript, WorkloadGenerator, WorkloadParams,
    WorkloadProfile,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The result of running a workload through a session.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Per-transaction results, in completion order.
    pub results: Vec<TxnResult>,
    /// The statistics snapshot taken right after the workload finished
    /// (cumulative for the session).
    pub stats: StatsSnapshot,
    /// Wall-clock time the workload took.
    pub elapsed: Duration,
}

impl WorkloadReport {
    /// Number of committed transactions in this workload.
    pub fn committed(&self) -> usize {
        self.results.iter().filter(|r| r.committed()).count()
    }

    /// Number of aborted transactions in this workload.
    pub fn aborted(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.outcome.is_aborted())
            .count()
    }

    /// Number of orphaned transactions in this workload.
    pub fn orphaned(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.outcome.is_orphaned())
            .count()
    }

    /// Transactions that finished, per the single workspace-wide definition
    /// in [`rainbow_common::stats::is_finished`]: committed + aborted,
    /// orphans excluded. Every rate below uses this same definition, so
    /// `commit_rate` and `throughput` can never disagree about which
    /// transactions count.
    pub fn finished(&self) -> usize {
        self.results
            .iter()
            .filter(|r| is_finished(&r.outcome))
            .count()
    }

    /// Commit rate of this workload: committed / [`WorkloadReport::finished`].
    pub fn commit_rate(&self) -> f64 {
        let finished = self.finished();
        if finished == 0 {
            0.0
        } else {
            self.committed() as f64 / finished as f64
        }
    }

    /// Committed transactions per second of wall-clock time (the numerator
    /// is the committed subset of [`WorkloadReport::finished`]).
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.committed() as f64 / secs
        }
    }

    /// Mean response time over finished transactions.
    pub fn mean_response_time(&self) -> Duration {
        let finished: Vec<&TxnResult> = self
            .results
            .iter()
            .filter(|r| is_finished(&r.outcome))
            .collect();
        if finished.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = finished.iter().map(|r| r.response_time).sum();
        total / finished.len() as u32
    }

    /// Total messages attributed to the workload's transactions.
    pub fn total_messages(&self) -> u64 {
        self.results.iter().map(|r| r.messages).sum()
    }

    /// Messages per finished transaction.
    pub fn messages_per_txn(&self) -> f64 {
        let finished = self.finished() as f64;
        if finished == 0.0 {
            0.0
        } else {
            self.total_messages() as f64 / finished
        }
    }
}

/// A Rainbow session: configuration plus (once started) the running core.
pub struct Session {
    config: SessionConfig,
    cluster: Option<Cluster>,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// A new, unstarted session with the default configuration (4 sites,
    /// empty database, default protocols, perfect network).
    pub fn new() -> Self {
        Session {
            config: SessionConfig::default(),
            cluster: None,
        }
    }

    /// A session from a saved configuration.
    pub fn from_config(config: SessionConfig) -> Self {
        Session {
            config,
            cluster: None,
        }
    }

    /// Loads a session configuration from a JSON file.
    pub fn load_config(path: impl AsRef<Path>) -> RainbowResult<Self> {
        Ok(Session::from_config(SessionConfig::load(path)?))
    }

    /// Saves the current configuration to a JSON file.
    pub fn save_config(&self, path: impl AsRef<Path>) -> RainbowResult<()> {
        self.config.save(path)
    }

    /// The current configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Whether the Rainbow core has been started.
    pub fn is_running(&self) -> bool {
        self.cluster.is_some()
    }

    fn ensure_not_running(&self) -> RainbowResult<()> {
        if self.is_running() {
            Err(RainbowError::InvalidConfig(
                "the session is already running; stop it before reconfiguring".into(),
            ))
        } else {
            Ok(())
        }
    }

    fn cluster(&self) -> RainbowResult<&Cluster> {
        self.cluster.as_ref().ok_or_else(|| {
            RainbowError::InvalidConfig("the session has not been started yet".into())
        })
    }

    // ------------------------------------------------------------------
    // Configuration (the GUI panels)
    // ------------------------------------------------------------------

    /// Configures the network simulation (latency, loss, seed). Must be done
    /// before starting, exactly as the paper requires networking simulation
    /// to be configured first.
    pub fn configure_network(&mut self, network: NetworkConfig) -> RainbowResult<&mut Self> {
        self.ensure_not_running()?;
        self.config.network = network;
        Ok(self)
    }

    /// Configures `n` sites, one per simulated host.
    pub fn configure_sites(&mut self, n: usize) -> RainbowResult<&mut Self> {
        self.ensure_not_running()?;
        self.config.distribution = DistributionSchema::one_site_per_host(n);
        Ok(self)
    }

    /// Configures an explicit distribution schema.
    pub fn configure_distribution(
        &mut self,
        distribution: DistributionSchema,
    ) -> RainbowResult<&mut Self> {
        self.ensure_not_running()?;
        self.config.distribution = distribution;
        Ok(self)
    }

    /// Selects the transaction-processing protocols (RCP, CCP, ACP and
    /// their timeouts) — the Figure 4 panel.
    pub fn configure_protocols(&mut self, stack: ProtocolStack) -> RainbowResult<&mut Self> {
        self.ensure_not_running()?;
        self.config.stack = stack;
        Ok(self)
    }

    /// Declares a database item with its initial value and copy-holder
    /// sites (majority quorums) — one row of the Figure A-1 panel.
    pub fn declare_item(
        &mut self,
        item: impl Into<ItemId>,
        initial: impl Into<Value>,
        holders: &[SiteId],
    ) -> RainbowResult<&mut Self> {
        self.ensure_not_running()?;
        self.config
            .database
            .declare(item, initial, ItemPlacement::majority(holders.to_vec()));
        Ok(self)
    }

    /// Declares a database item with an explicit weighted placement.
    pub fn declare_item_with_placement(
        &mut self,
        item: impl Into<ItemId>,
        initial: impl Into<Value>,
        placement: ItemPlacement,
    ) -> RainbowResult<&mut Self> {
        self.ensure_not_running()?;
        self.config.database.declare(item, initial, placement);
        Ok(self)
    }

    /// Replaces the database with `n_items` uniform integer items replicated
    /// on `degree` sites each.
    pub fn configure_uniform_database(
        &mut self,
        n_items: usize,
        initial: i64,
        degree: usize,
    ) -> RainbowResult<&mut Self> {
        self.ensure_not_running()?;
        let sites = self.config.distribution.site_ids();
        self.config.database = DatabaseSchema::uniform(n_items, initial, &sites, degree)?;
        Ok(self)
    }

    /// Sets the workload seed for this session.
    pub fn set_seed(&mut self, seed: u64) -> &mut Self {
        self.config.seed = seed;
        self
    }

    /// Sets the client timeout after which an unanswered transaction is
    /// reported as orphaned.
    pub fn set_client_timeout(&mut self, timeout: Duration) -> &mut Self {
        self.config.client_timeout_ms = timeout.as_millis() as u64;
        self
    }

    /// Toggles history recording for the serializability checker (takes
    /// effect at the next [`Session::start`]).
    pub fn set_history_recording(&mut self, record: bool) -> &mut Self {
        self.config.record_history = record;
        self
    }

    /// Configures end-to-end tracing (takes effect at the next
    /// [`Session::start`]). Use [`rainbow_trace::TraceConfig::sample_all`]
    /// for span trees of every transaction,
    /// [`rainbow_trace::TraceConfig::histograms_only`] for the per-phase
    /// latency breakdown without span storage.
    pub fn set_tracing(&mut self, tracing: rainbow_trace::TraceConfig) -> &mut Self {
        self.config.tracing = tracing;
        self
    }

    // ------------------------------------------------------------------
    // Lifecycle (NSRunnerlet / SiteRunnerlet)
    // ------------------------------------------------------------------

    /// Starts the Rainbow core: network, name server and every configured
    /// site.
    pub fn start(&mut self) -> RainbowResult<&mut Self> {
        self.ensure_not_running()?;
        self.config.validate()?;
        let cluster = Cluster::start(self.config.to_cluster_config())?;
        self.cluster = Some(cluster);
        Ok(self)
    }

    /// Stops the Rainbow core; the configuration is kept and the session can
    /// be started again.
    pub fn stop(&mut self) {
        if let Some(mut cluster) = self.cluster.take() {
            cluster.shutdown();
        }
    }

    /// The ids of the running sites.
    pub fn site_ids(&self) -> Vec<SiteId> {
        match &self.cluster {
            Some(cluster) => cluster.site_ids(),
            None => self.config.distribution.site_ids(),
        }
    }

    // ------------------------------------------------------------------
    // Workload submission (manual panel + WLGlet)
    // ------------------------------------------------------------------

    /// An interactive client of the running core: `begin → read/write →
    /// commit` conversations with typed, layer-attributed errors and a
    /// retry combinator (see `rainbow_core::client`). The one-shot
    /// `submit*` methods below are adapters over the same conversations.
    pub fn client(&self) -> RainbowResult<Client<'_>> {
        Ok(self.cluster()?.client())
    }

    /// Submits one transaction and waits for its result.
    pub fn submit(&self, spec: TxnSpec) -> RainbowResult<TxnResult> {
        Ok(self.cluster()?.submit(spec))
    }

    /// Submits hand-composed transactions sequentially (the manual panel
    /// submits one at a time) and returns their results.
    pub fn submit_manual(&self, specs: Vec<TxnSpec>) -> RainbowResult<Vec<TxnResult>> {
        let cluster = self.cluster()?;
        Ok(specs.into_iter().map(|spec| cluster.submit(spec)).collect())
    }

    /// Generates and runs a workload from explicit generator parameters.
    pub fn run_params(
        &self,
        params: WorkloadParams,
        arrival: ArrivalProcess,
    ) -> RainbowResult<WorkloadReport> {
        let cluster = self.cluster()?;
        let specs = WorkloadGenerator::new(params).generate();
        let started = Instant::now();
        let results = match arrival {
            ArrivalProcess::Closed { mpl } => cluster.run_workload(specs, mpl),
            open => {
                let delays = open.delays(specs.len(), self.config.seed);
                let mut receivers = Vec::with_capacity(specs.len());
                for (spec, delay) in specs.into_iter().zip(delays) {
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    receivers.push(cluster.submit_async(spec));
                }
                let timeout = Duration::from_millis(self.config.client_timeout_ms);
                receivers
                    .into_iter()
                    .filter_map(|rx| rx.recv_timeout(timeout).ok())
                    .collect()
            }
        };
        Ok(WorkloadReport {
            results,
            stats: cluster.stats(),
            elapsed: started.elapsed(),
        })
    }

    /// Generates and runs one of the named workload profiles.
    pub fn run_generated(
        &self,
        profile: WorkloadProfile,
        transactions: usize,
        arrival: ArrivalProcess,
    ) -> RainbowResult<WorkloadReport> {
        let items = self.config.database.item_ids();
        let sites = self.site_ids();
        let params = profile.params(items, sites, transactions, self.config.seed);
        self.run_params(params, arrival)
    }

    /// Generates and runs one of the *conversational* workload profiles:
    /// every transaction is a closure-driven conversation (read → decide →
    /// write) interpreted against a live interactive `Txn` handle through
    /// the retry combinator, so aborted attempts restart with backoff. No
    /// pre-declared `TxnSpec` can express these workloads.
    pub fn run_interactive(
        &self,
        profile: InteractiveProfile,
        transactions: usize,
    ) -> RainbowResult<WorkloadReport> {
        let cluster = self.cluster()?;
        let items = self.config.database.item_ids();
        let specs = profile.generate(&items, transactions, self.config.seed);
        let started = Instant::now();
        let mut client = cluster.client();
        let mut results = Vec::with_capacity(specs.len());
        for spec in &specs {
            let conversation_started = Instant::now();
            let conversation =
                client.run(&spec.label, |txn| run_interactive_script(txn, &spec.script));
            results.push(match conversation {
                Ok(((), receipt)) => TxnResult {
                    id: receipt.id,
                    label: receipt.label,
                    outcome: TxnOutcome::Committed,
                    reads: receipt.reads,
                    response_time: receipt.response_time,
                    restarts: receipt.restarts,
                    messages: receipt.messages,
                },
                Err(error) => TxnResult {
                    id: rainbow_common::TxnId::new(SiteId(u32::MAX), 0),
                    label: spec.label.clone(),
                    outcome: match error {
                        TxnError::Orphaned { .. } => TxnOutcome::Orphaned,
                        TxnError::Aborted(cause) => TxnOutcome::Aborted(cause),
                        TxnError::Expired | TxnError::Finished => TxnOutcome::Orphaned,
                    },
                    reads: BTreeMap::new(),
                    // This conversation's span (every retry attempt
                    // included), not the whole run's elapsed time.
                    response_time: conversation_started.elapsed(),
                    restarts: 0,
                    messages: 0,
                },
            });
        }
        drop(client);
        Ok(WorkloadReport {
            results,
            stats: cluster.stats(),
            elapsed: started.elapsed(),
        })
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Crashes a site.
    pub fn crash_site(&self, site: SiteId) -> RainbowResult<()> {
        self.cluster()?.crash_site(site)
    }

    /// Recovers a crashed site.
    pub fn recover_site(&self, site: SiteId) -> RainbowResult<()> {
        self.cluster()?.recover_site(site)
    }

    /// Partitions the network into site groups.
    pub fn partition(&self, groups: &[Vec<SiteId>]) -> RainbowResult<()> {
        self.cluster()?.partition(groups);
        Ok(())
    }

    /// Heals every partition.
    pub fn heal_partition(&self) -> RainbowResult<()> {
        self.cluster()?.heal_partition();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Monitoring (PMlet / Tx Processing menu)
    // ------------------------------------------------------------------

    /// The cumulative statistics snapshot of this session.
    pub fn statistics(&self) -> RainbowResult<StatsSnapshot> {
        Ok(self.cluster()?.stats())
    }

    /// Renders the Figure-5-style output panel for this session.
    pub fn render_statistics(&self, title: &str) -> RainbowResult<String> {
        Ok(render_stats_panel(title, &self.statistics()?))
    }

    /// The committed database state at one site (the Display menu's
    /// database view).
    pub fn database_view(&self, site: SiteId) -> RainbowResult<Vec<(ItemId, Value, Version)>> {
        self.cluster()?.database_snapshot(site)
    }

    /// The transaction history recorded so far; `None` when the session was
    /// started without [`Session::set_history_recording`].
    pub fn history(&self) -> RainbowResult<Option<rainbow_common::History>> {
        Ok(self.cluster()?.history())
    }

    /// The tracer of the running core; `None` when the session was started
    /// without [`Session::set_tracing`].
    pub fn tracer(&self) -> RainbowResult<Option<std::sync::Arc<rainbow_trace::Tracer>>> {
        Ok(self.cluster()?.tracer())
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Interprets one generated [`InteractiveScript`] against a live transaction
/// handle, making the conversation's decisions from the values the read
/// quorums actually observed. Used by [`Session::run_interactive`] and
/// available to examples and experiment harnesses.
pub fn run_interactive_script(txn: &mut Txn, script: &InteractiveScript) -> Result<(), TxnError> {
    match script {
        InteractiveScript::ConditionalTransfer {
            source,
            target,
            amount,
        } => {
            let balance = txn.read(source.clone())?;
            if balance.as_int().unwrap_or(0) >= *amount {
                txn.increment(source.clone(), -*amount)?;
                txn.increment(target.clone(), *amount)?;
            }
            Ok(())
        }
        InteractiveScript::AuditAndFlag {
            inputs,
            flag,
            threshold,
        } => {
            let mut sum = 0i64;
            for item in inputs {
                sum += txn.read(item.clone())?.as_int().unwrap_or(0);
            }
            if sum < *threshold {
                txn.write(flag.clone(), sum)?;
            }
            Ok(())
        }
        InteractiveScript::Replenish {
            item,
            low_water,
            refill,
        } => {
            let stock = txn.read(item.clone())?;
            if stock.as_int().unwrap_or(0) < *low_water {
                txn.increment(item.clone(), *refill)?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbow_common::Operation;
    use rainbow_wlg::ManualWorkloadBuilder;

    fn quick_session(sites: usize, items: usize) -> Session {
        let mut session = Session::new();
        session.configure_sites(sites).unwrap();
        session
            .configure_protocols(
                ProtocolStack::rainbow_default()
                    .with_lock_wait_timeout(Duration::from_millis(200))
                    .with_quorum_timeout(Duration::from_millis(500))
                    .with_commit_timeout(Duration::from_millis(500)),
            )
            .unwrap();
        session
            .configure_uniform_database(items, 100, sites.min(3))
            .unwrap();
        session.start().unwrap();
        session
    }

    #[test]
    fn configure_start_submit_monitor_cycle() {
        let session = quick_session(3, 8);
        assert!(session.is_running());
        assert_eq!(session.site_ids().len(), 3);

        let result = session
            .submit(TxnSpec::new("t", vec![Operation::read("x0")]))
            .unwrap();
        assert!(result.committed());

        let stats = session.statistics().unwrap();
        assert_eq!(stats.submitted, 1);
        let panel = session.render_statistics("smoke").unwrap();
        assert!(panel.contains("committed transactions"));
        let view = session.database_view(SiteId(0)).unwrap();
        assert!(!view.is_empty());
    }

    #[test]
    fn reconfiguring_a_running_session_is_rejected() {
        let mut session = quick_session(2, 2);
        assert!(session.configure_sites(5).is_err());
        assert!(session.configure_uniform_database(4, 0, 1).is_err());
        assert!(session.start().is_err());
        session.stop();
        assert!(!session.is_running());
        // After stopping, reconfiguration works again.
        assert!(session.configure_sites(2).is_ok());
    }

    #[test]
    fn submitting_before_start_fails() {
        let session = Session::new();
        assert!(session
            .submit(TxnSpec::new("t", vec![Operation::read("x")]))
            .is_err());
        assert!(session.statistics().is_err());
    }

    #[test]
    fn manual_workload_round_trip() {
        let session = quick_session(2, 4);
        let txns = ManualWorkloadBuilder::new()
            .begin("transfer")
            .increment("x0", -10)
            .increment("x1", 10)
            .begin("audit")
            .read("x0")
            .read("x1")
            .build();
        let results = session.submit_manual(txns).unwrap();
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.committed()));
        // Money is conserved.
        let audit = &results[1];
        let sum: i64 = audit.reads.values().map(|v| v.as_int().unwrap_or(0)).sum();
        assert_eq!(sum, 200);
    }

    #[test]
    fn generated_workload_produces_a_report() {
        let session = quick_session(3, 8);
        let report = session
            .run_generated(
                WorkloadProfile::ReadHeavy,
                20,
                ArrivalProcess::Closed { mpl: 4 },
            )
            .unwrap();
        assert_eq!(report.results.len(), 20);
        assert!(report.committed() > 0);
        assert!(report.commit_rate() > 0.0);
        assert!(report.throughput() > 0.0);
        assert!(report.mean_response_time() > Duration::ZERO);
        assert_eq!(report.orphaned(), 0);
    }

    #[test]
    fn open_arrival_workload_also_completes() {
        let session = quick_session(2, 4);
        let report = session
            .run_generated(
                WorkloadProfile::ReadHeavy,
                10,
                ArrivalProcess::Uniform { gap_micros: 500 },
            )
            .unwrap();
        assert_eq!(report.results.len(), 10);
    }

    #[test]
    fn interactive_client_conversation_through_the_session() {
        let session = quick_session(3, 6);
        let mut client = session.client().unwrap();
        let mut txn = client.begin("conversation");
        let before = txn.read("x0").unwrap();
        assert_eq!(before.as_int(), Some(100));
        // Decide from the observed value — impossible with a TxnSpec.
        txn.write("x1", before.as_int().unwrap() + 23).unwrap();
        let receipt = txn.commit().unwrap();
        assert_eq!(receipt.label, "conversation");

        let audit = session
            .submit(TxnSpec::new("audit", vec![Operation::read("x1")]))
            .unwrap();
        assert_eq!(audit.reads.get(&ItemId::new("x1")), Some(&Value::Int(123)));
    }

    #[test]
    fn interactive_profiles_run_to_completion() {
        let session = quick_session(3, 8);
        for profile in rainbow_wlg::InteractiveProfile::all() {
            let report = session.run_interactive(profile, 6).unwrap();
            assert_eq!(report.results.len(), 6, "{}", profile.name());
            assert!(
                report.committed() > 0,
                "{} should commit conversations",
                profile.name()
            );
            assert_eq!(report.orphaned(), 0, "{}", profile.name());
            // The shared finished definition keeps the rates coherent.
            assert_eq!(report.finished(), report.committed() + report.aborted());
        }
    }

    #[test]
    fn workload_report_rates_share_one_finished_definition() {
        use rainbow_common::txn::AbortCause;
        use rainbow_common::TxnId;
        let result = |outcome| TxnResult {
            id: TxnId::new(SiteId(0), 1),
            label: "t".into(),
            outcome,
            reads: BTreeMap::new(),
            response_time: Duration::from_millis(10),
            restarts: 0,
            messages: 4,
        };
        let report = WorkloadReport {
            results: vec![
                result(TxnOutcome::Committed),
                result(TxnOutcome::Committed),
                result(TxnOutcome::Aborted(AbortCause::UserAbort)),
                result(TxnOutcome::Orphaned),
            ],
            stats: StatsSnapshot::default(),
            elapsed: Duration::from_secs(2),
        };
        assert_eq!(report.finished(), 3, "orphans never finished");
        assert!((report.commit_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert!((report.throughput() - 1.0).abs() < 1e-9, "committed / sec");
        // Orphans contribute neither latency nor the message denominator.
        assert_eq!(report.mean_response_time(), Duration::from_millis(10));
        assert!((report.messages_per_txn() - 16.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn fault_injection_via_the_session() {
        let session = quick_session(3, 6);
        session.crash_site(SiteId(2)).unwrap();
        let result = session
            .submit(TxnSpec::new("r", vec![Operation::read("x0")]))
            .unwrap();
        // A single crashed site must not block quorum reads.
        assert!(result.committed(), "outcome: {:?}", result.outcome);
        session.recover_site(SiteId(2)).unwrap();
        session
            .partition(&[vec![SiteId(0)], vec![SiteId(1), SiteId(2)]])
            .unwrap();
        session.heal_partition().unwrap();
    }

    #[test]
    fn config_save_load_start_round_trip() {
        let mut session = Session::new();
        session.configure_sites(2).unwrap();
        session.configure_uniform_database(4, 7, 2).unwrap();
        session
            .set_seed(9)
            .set_client_timeout(Duration::from_secs(5));
        let dir = std::env::temp_dir().join("rainbow-session-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("saved.json");
        session.save_config(&path).unwrap();

        let mut reloaded = Session::load_config(&path).unwrap();
        assert_eq!(reloaded.config(), session.config());
        reloaded.start().unwrap();
        let result = reloaded
            .submit(TxnSpec::new("t", vec![Operation::read("x0")]))
            .unwrap();
        assert!(result.committed());
        std::fs::remove_file(path).ok();
    }
}
