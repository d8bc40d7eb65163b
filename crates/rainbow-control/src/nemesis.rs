//! The seeded nemesis: a replayable chaos schedule driven against a live
//! cluster, judged by the `rainbow-check` serializability checker.
//!
//! The paper's GUI lets a user "inject network and site failures and
//! recoveries" by hand; the nemesis is that panel industrialised. From one
//! seed it derives — purely, so any seed replays the identical plan
//! bit-for-bit —
//!
//! 1. an **event schedule** interleaving crash / recover / partition / heal
//!    / clock-skew events ([`generate_schedule`]), and
//! 2. a **workload** mixing one-shot spec transactions with interactive
//!    retry-looped conversations (both generators were already pure and
//!    seeded).
//!
//! [`run_nemesis`] plays schedule and workload against a fresh cluster with
//! history recording on, waits for every conversation to reach its final
//! outcome, and hands the complete [`History`] to
//! [`rainbow_check::check_history`]. A failing seed is fully described by
//! its [`NemesisReport`]: the seed, the schedule it (re)produces, the
//! serialized history and the checker's verdict — everything CI needs to
//! upload and everything a developer needs to replay locally.
//!
//! Recoveries use [`Cluster::recover_site_with_catchup`] — the copier
//! catch-up the read-one protocols (Available Copies, Primary Copy) require
//! before a recovered site may serve reads. Recovering without it is not a
//! harness bug but a protocol lesson; the checker turns that lesson into a
//! reproducible red verdict, which is exactly what a laboratory is for.

use rainbow_check::{check_history, CheckReport, Violation};
use rainbow_common::config::{DatabaseSchema, DistributionSchema};
use rainbow_common::history::History;
use rainbow_common::protocol::{CcpKind, ProtocolStack, RcpKind};
use rainbow_common::rng::{derive_seed, seeded_rng};
use rainbow_common::{RainbowResult, SiteId, TxnId};
use rainbow_core::{Cluster, ClusterConfig, EngineKind, PowerLossFault, StorageConfig};
use rainbow_net::NetworkConfig;
use rainbow_trace::{ascii_span_tree, TraceConfig};
use rainbow_wlg::{InteractiveProfile, WorkloadGenerator, WorkloadProfile};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::{Duration, Instant};

use crate::session::run_interactive_script;

/// One fault (or fault-adjacent) event the nemesis injects.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NemesisEvent {
    /// Crash a site.
    Crash(SiteId),
    /// Recover a crashed site (with copier catch-up).
    Recover(SiteId),
    /// Partition the listed minority away from the rest of the cluster
    /// (clients and the name server stay with the majority).
    PartitionMinority(Vec<SiteId>),
    /// Heal all partitions.
    Heal,
    /// Jump a site's logical clock ahead by `ticks` — a clock-skewed load
    /// burst that stresses timestamp-ordering stacks.
    ClockSkew {
        /// The skewed site.
        site: SiteId,
        /// How far ahead the clock jumps.
        ticks: u64,
    },
    /// Pull the plug on a site: drop **all** of its volatile state
    /// (including storage-engine buffers), optionally tear or corrupt the
    /// tail of its durable log, and restart it from its log alone (with
    /// copier catch-up), on either storage medium. A recovery error — forgotten committed writes show up
    /// later as checker violations, corruption before the tail as a typed
    /// error — is collected into [`NemesisReport::event_errors`].
    PowerLoss {
        /// The site losing power.
        site: SiteId,
        /// What happens to the log tail.
        fault: PowerLossFault,
    },
}

impl fmt::Display for NemesisEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NemesisEvent::Crash(site) => write!(f, "crash {site}"),
            NemesisEvent::Recover(site) => write!(f, "recover {site}"),
            NemesisEvent::PartitionMinority(sites) => {
                write!(f, "partition-minority [")?;
                for (i, site) in sites.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{site}")?;
                }
                write!(f, "]")
            }
            NemesisEvent::Heal => write!(f, "heal"),
            NemesisEvent::ClockSkew { site, ticks } => write!(f, "clock-skew {site} +{ticks}"),
            NemesisEvent::PowerLoss { site, fault } => {
                write!(f, "power-loss {site} ({})", fault.name())
            }
        }
    }
}

/// A nemesis event with the offset (from run start) it fires at.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledEvent {
    /// Offset from the start of the run.
    pub at: Duration,
    /// The event.
    pub event: NemesisEvent,
}

impl fmt::Display for ScheduledEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:>5}ms {}", self.at.as_millis(), self.event)
    }
}

/// Shape of one nemesis run: cluster size, workload volume, fault budget.
/// The protocol under test is the `stack`'s RCP/CCP (use
/// [`NemesisConfig::with_rcp`] / [`NemesisConfig::with_ccp`] to sweep).
#[derive(Debug, Clone)]
pub struct NemesisConfig {
    /// Number of sites.
    pub sites: usize,
    /// Number of database items (each initialised to 100).
    pub items: usize,
    /// Copies per item.
    pub replication_degree: usize,
    /// One-shot spec transactions in the workload.
    pub spec_transactions: usize,
    /// Interactive (retry-looped) conversations in the workload.
    pub interactive_transactions: usize,
    /// Multiprogramming level of the spec workload.
    pub mpl: usize,
    /// Number of scheduled fault events (closing heal/recover events are
    /// appended on top).
    pub events: usize,
    /// Gap between consecutive scheduled events.
    pub event_gap: Duration,
    /// The protocol stack under test.
    pub stack: ProtocolStack,
    /// Client timeout (kept short so conversations whose home site crashed
    /// orphan out quickly and retry elsewhere).
    pub client_timeout: Duration,
    /// Storage engine the cluster under test runs on. Disk engines get a
    /// unique per-run subdirectory so concurrent seeds never share files.
    pub storage: StorageConfig,
    /// Include power-loss events (kill-and-restart-from-the-log, possibly
    /// with a torn or corrupted log tail) in generated schedules.
    pub power_loss: bool,
}

impl Default for NemesisConfig {
    fn default() -> Self {
        NemesisConfig {
            sites: 5,
            items: 10,
            replication_degree: 5,
            spec_transactions: 40,
            interactive_transactions: 10,
            mpl: 4,
            events: 6,
            event_gap: Duration::from_millis(40),
            stack: ProtocolStack::rainbow_default()
                .with_lock_wait_timeout(Duration::from_millis(150))
                .with_quorum_timeout(Duration::from_millis(400))
                .with_commit_timeout(Duration::from_millis(400)),
            client_timeout: Duration::from_millis(800),
            storage: StorageConfig::from_env(),
            power_loss: true,
        }
    }
}

impl NemesisConfig {
    /// Builder-style replication-protocol selection.
    pub fn with_rcp(mut self, rcp: RcpKind) -> Self {
        self.stack = self.stack.with_rcp(rcp);
        self
    }

    /// Builder-style concurrency-protocol selection.
    pub fn with_ccp(mut self, ccp: CcpKind) -> Self {
        self.stack = self.stack.with_ccp(ccp);
        self
    }

    /// Builder-style fault-event budget.
    pub fn with_events(mut self, events: usize) -> Self {
        self.events = events;
        self
    }

    /// Builder-style storage-engine selection.
    pub fn with_storage(mut self, storage: StorageConfig) -> Self {
        self.storage = storage;
        self
    }

    /// Builder-style power-loss toggle.
    pub fn with_power_loss(mut self, enabled: bool) -> Self {
        self.power_loss = enabled;
        self
    }
}

/// Derives the event schedule for a seed — a *pure* function: the same
/// `(config, seed)` always yields the identical schedule, which is what
/// makes a CI failure replayable bit-for-bit.
///
/// The generator keeps the cluster viable by construction: at most a
/// minority of sites is crashed at any instant, at most one partition is
/// active, and the schedule closes by healing and recovering everything so
/// the run ends fault-free (protocols may still abort freely in between —
/// aborts are never violations).
pub fn generate_schedule(config: &NemesisConfig, seed: u64) -> Vec<ScheduledEvent> {
    let mut rng = seeded_rng(derive_seed(seed, "nemesis-schedule"));
    let sites: Vec<SiteId> = (0..config.sites as u32).map(SiteId).collect();
    let max_down = config.sites.saturating_sub(1) / 2;
    let mut crashed: Vec<SiteId> = Vec::new();
    let mut partitioned = false;
    let mut events = Vec::new();
    let mut at = Duration::ZERO;

    for _ in 0..config.events {
        at += config.event_gap;
        // Legal moves in the current model state; clock skew always is.
        let mut moves: Vec<u8> = vec![4];
        if crashed.len() < max_down {
            moves.push(0);
        }
        if !crashed.is_empty() {
            moves.push(1);
        }
        if !partitioned && max_down >= 1 {
            moves.push(2);
        }
        if partitioned {
            moves.push(3);
        }
        // A power loss crashes its target only for the duration of the
        // event, but that still counts against the minority-down envelope.
        if config.power_loss && crashed.len() < max_down {
            moves.push(5);
        }
        let event = match moves[rng.gen_range(0..moves.len())] {
            0 => {
                let live: Vec<SiteId> = sites
                    .iter()
                    .filter(|s| !crashed.contains(s))
                    .copied()
                    .collect();
                let victim = live[rng.gen_range(0..live.len())];
                crashed.push(victim);
                NemesisEvent::Crash(victim)
            }
            1 => {
                let victim = crashed.remove(rng.gen_range(0..crashed.len()));
                NemesisEvent::Recover(victim)
            }
            2 => {
                let count = rng.gen_range(1..=max_down);
                let mut isolated = Vec::with_capacity(count);
                while isolated.len() < count {
                    let candidate = sites[rng.gen_range(0..sites.len())];
                    if !isolated.contains(&candidate) {
                        isolated.push(candidate);
                    }
                }
                isolated.sort();
                partitioned = true;
                NemesisEvent::PartitionMinority(isolated)
            }
            3 => {
                partitioned = false;
                NemesisEvent::Heal
            }
            5 => {
                let live: Vec<SiteId> = sites
                    .iter()
                    .filter(|s| !crashed.contains(s))
                    .copied()
                    .collect();
                NemesisEvent::PowerLoss {
                    site: live[rng.gen_range(0..live.len())],
                    fault: PowerLossFault::ALL[rng.gen_range(0..PowerLossFault::ALL.len())],
                }
            }
            _ => NemesisEvent::ClockSkew {
                site: sites[rng.gen_range(0..sites.len())],
                ticks: rng.gen_range(1_000..100_000),
            },
        };
        events.push(ScheduledEvent { at, event });
    }

    // Close the run fault-free: heal, then recover every crashed site.
    if partitioned {
        at += config.event_gap;
        events.push(ScheduledEvent {
            at,
            event: NemesisEvent::Heal,
        });
    }
    crashed.sort();
    for site in crashed {
        at += config.event_gap;
        events.push(ScheduledEvent {
            at,
            event: NemesisEvent::Recover(site),
        });
    }
    events
}

/// Renders a schedule one event per line (printed for failing seeds).
pub fn format_schedule(schedule: &[ScheduledEvent]) -> String {
    schedule
        .iter()
        .map(|event| event.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Everything one nemesis run produced: the replayable inputs (seed +
/// schedule), the recorded history and the checker's verdict.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NemesisReport {
    /// The seed the run was derived from.
    pub seed: u64,
    /// The protocol stack label (e.g. `AC+2PL+2PC`).
    pub stack: String,
    /// The event schedule the seed produced.
    pub schedule: Vec<ScheduledEvent>,
    /// Whether every conversation reached its recorded outcome before the
    /// history snapshot (a run that fails to quiesce is reported failed).
    pub quiesced: bool,
    /// Transactions committed / aborted / orphaned, per the history.
    pub committed: usize,
    /// Aborted transactions.
    pub aborted: usize,
    /// Orphaned transactions.
    pub orphaned: usize,
    /// The complete recorded history (serialized into CI artifacts on
    /// failure).
    pub history: History,
    /// The checker's verdict.
    pub check: CheckReport,
    /// ASCII span trees of every transaction implicated in a violation,
    /// keyed by transaction id — the forensic view uploaded next to the
    /// verdict so a failing seed shows *where* the anomalous transactions
    /// spent their time. Empty for passing runs.
    pub anomaly_traces: BTreeMap<String, String>,
    /// Errors surfaced while applying nemesis events — above all power-loss
    /// recoveries that failed (e.g. a disk engine reporting mid-log
    /// corruption). A run with event errors did not survive its faults and
    /// is reported failed even when the history happens to check out.
    pub event_errors: Vec<String>,
}

impl NemesisReport {
    /// True when the run quiesced, every nemesis event applied cleanly and
    /// the checker found no violation.
    pub fn passed(&self) -> bool {
        self.quiesced && self.event_errors.is_empty() && self.check.is_serializable()
    }

    /// One-line summary for matrix logs.
    pub fn summary(&self) -> String {
        format!(
            "[{}] seed {:>4}: {} events, {} committed, {} aborted, {} orphaned — {}",
            self.stack,
            self.seed,
            self.schedule.len(),
            self.committed,
            self.aborted,
            self.orphaned,
            if self.passed() {
                "OK".to_string()
            } else if !self.quiesced {
                "FAILED (history did not quiesce)".to_string()
            } else if !self.event_errors.is_empty() {
                format!("FAILED (event errors: {})", self.event_errors.join("; "))
            } else {
                format!("FAILED ({})", self.check.summary())
            }
        )
    }
}

/// Applies one nemesis event to a running cluster. Most events are
/// best-effort (a recover racing a concurrent shutdown is ignored; the
/// checker judges outcomes, not event bookkeeping) — except a power loss,
/// whose recovery failure is the exact bug class this nemesis hunts and is
/// therefore reported back.
fn apply_event(cluster: &Cluster, event: &NemesisEvent) -> Result<(), String> {
    match event {
        NemesisEvent::Crash(site) => {
            let _ = cluster.crash_site(*site);
        }
        NemesisEvent::Recover(site) => {
            let _ = cluster.recover_site_with_catchup(*site);
        }
        NemesisEvent::PartitionMinority(sites) => {
            cluster.partition(std::slice::from_ref(sites));
        }
        NemesisEvent::Heal => cluster.heal_partition(),
        NemesisEvent::ClockSkew { site, ticks } => {
            let _ = cluster.skew_site_clock(*site, *ticks);
        }
        NemesisEvent::PowerLoss { site, fault } => {
            cluster
                .power_loss_site(*site, *fault)
                .map_err(|err| format!("{event}: {err}"))?;
        }
    }
    Ok(())
}

/// Runs one seeded nemesis experiment: fresh cluster, seed-derived schedule
/// and workload, full-history verdict. See the module docs.
pub fn run_nemesis(config: &NemesisConfig, seed: u64) -> RainbowResult<NemesisReport> {
    let distribution = DistributionSchema::one_site_per_host(config.sites);
    let database = DatabaseSchema::uniform(
        config.items,
        100,
        &distribution.site_ids(),
        config.replication_degree,
    )?;
    let items = database.item_ids();
    // Disk engines get a unique per-run subdirectory (cleaned up with the
    // cluster): concurrent seeds and stacked runs must never share files.
    let mut storage = config.storage.clone();
    if storage.engine == EngineKind::Disk {
        if let Some(dir) = storage.data_dir.take() {
            storage.data_dir = Some(dir.join(format!(
                "nemesis-{}-seed{seed}",
                config.stack.label().replace('+', "_")
            )));
        }
        storage.ephemeral = true;
    }
    let cluster = Cluster::start(ClusterConfig {
        distribution,
        database,
        stack: config.stack.clone(),
        network: NetworkConfig::perfect(),
        client_timeout: config.client_timeout,
        record_history: true,
        // Trace every transaction: which ones turn out anomalous is only
        // known after the checker runs, and failed seeds must ship their
        // span trees.
        tracing: TraceConfig::sample_all(),
        storage,
    })?;

    let schedule = generate_schedule(config, seed);
    let specs = WorkloadGenerator::new(WorkloadProfile::WriteHeavy.params(
        items.clone(),
        cluster.site_ids(),
        config.spec_transactions,
        derive_seed(seed, "nemesis-specs"),
    ))
    .generate();
    let conversations = InteractiveProfile::ConditionalTransfer.generate(
        &items,
        config.interactive_transactions,
        derive_seed(seed, "nemesis-conversations"),
    );

    let mut event_errors: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let cluster = &cluster;
        let mpl = config.mpl;
        scope.spawn(move || {
            cluster.run_workload(specs, mpl);
        });
        scope.spawn(move || {
            let mut client = cluster.client();
            for conversation in &conversations {
                // Failures (abort-retry exhaustion, orphans) are fine: the
                // coordinator records whatever actually happened.
                let _ = client.run(&conversation.label, |txn| {
                    run_interactive_script(txn, &conversation.script)
                });
            }
        });
        // This thread is the nemesis: fire each event at its offset.
        let started = Instant::now();
        for event in &schedule {
            let wait = event.at.saturating_sub(started.elapsed());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
            if let Err(err) = apply_event(cluster, &event.event) {
                event_errors.push(err);
            }
        }
    });

    // The schedule already closed fault-free; make it unconditional so a
    // history snapshot can never observe a faulted cluster.
    cluster.heal_partition();
    let faults = cluster.faults();
    for site in cluster.site_ids() {
        if faults.is_crashed(rainbow_net::NodeId::Site(site)) {
            let _ = cluster.recover_site_with_catchup(site);
        }
    }

    // Every conversation that began must record its outcome; the deadline
    // is the coordinator's own idle-abort horizon (shared definition on the
    // stack, so the two can never drift apart) plus slack.
    let horizon = config.stack.janitor_horizon() + Duration::from_secs(2);
    let quiesced = cluster.await_history_quiescence(horizon);
    let history = cluster.history().expect("nemesis runs record history");
    let (committed, aborted, orphaned) = history.outcome_counts();
    let check = check_history(&history);

    let mut anomaly_traces = BTreeMap::new();
    if let Some(tracer) = cluster.tracer() {
        let mut anomalous: BTreeSet<TxnId> = BTreeSet::new();
        for violation in &check.violations {
            anomalous.extend(violation_txns(violation));
        }
        for txn in anomalous {
            let events = tracer.txn_events(txn);
            if !events.is_empty() {
                anomaly_traces.insert(txn.to_string(), ascii_span_tree(&events));
            }
        }
    }

    Ok(NemesisReport {
        seed,
        stack: config.stack.label(),
        schedule,
        quiesced,
        committed,
        aborted,
        orphaned,
        history,
        check,
        anomaly_traces,
        event_errors,
    })
}

/// The transactions a violation implicates — the ones whose span trees are
/// attached to a failing report.
fn violation_txns(violation: &Violation) -> Vec<TxnId> {
    match violation {
        Violation::DirtyRead { reader, writer, .. } => vec![*reader, *writer],
        Violation::UnknownVersion { reader, .. } => vec![*reader],
        Violation::ValueMismatch { reader, .. } => vec![*reader],
        Violation::ConflictingVersions { writers, .. } => writers.clone(),
        Violation::Cycle { steps } => steps.iter().map(|s| s.txn).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_pure_functions_of_the_seed() {
        let config = NemesisConfig::default();
        for seed in [0u64, 1, 7, 42, 1337] {
            let a = generate_schedule(&config, seed);
            let b = generate_schedule(&config, seed);
            assert_eq!(a, b, "seed {seed} must replay bit-for-bit");
            assert!(a.len() >= config.events, "closing events are appended");
        }
        assert_ne!(
            generate_schedule(&config, 1),
            generate_schedule(&config, 2),
            "different seeds explore different schedules"
        );
    }

    #[test]
    fn schedules_respect_the_safety_envelope() {
        let config = NemesisConfig::default().with_events(40);
        for seed in 0..20u64 {
            let schedule = generate_schedule(&config, seed);
            let max_down = (config.sites - 1) / 2;
            let mut crashed = std::collections::BTreeSet::new();
            let mut partitioned = false;
            let mut last_at = Duration::ZERO;
            for ScheduledEvent { at, event } in &schedule {
                assert!(*at >= last_at, "events fire in order");
                last_at = *at;
                match event {
                    NemesisEvent::Crash(site) => {
                        assert!(crashed.insert(*site), "no double crash");
                        assert!(crashed.len() <= max_down, "never a majority down");
                    }
                    NemesisEvent::Recover(site) => {
                        assert!(crashed.remove(site), "only crashed sites recover");
                    }
                    NemesisEvent::PartitionMinority(sites) => {
                        assert!(!partitioned, "one partition at a time");
                        assert!(!sites.is_empty() && sites.len() <= max_down);
                        partitioned = true;
                    }
                    NemesisEvent::Heal => {
                        partitioned = false;
                    }
                    NemesisEvent::ClockSkew { ticks, .. } => assert!(*ticks > 0),
                    NemesisEvent::PowerLoss { site, .. } => {
                        // Transiently down during the event: counts against
                        // the minority-down envelope and never hits a site
                        // that is already crashed.
                        assert!(!crashed.contains(site), "no power loss on a crashed site");
                        assert!(crashed.len() < max_down, "envelope leaves room");
                    }
                }
            }
            assert!(crashed.is_empty(), "seed {seed} must end fully recovered");
            assert!(!partitioned, "seed {seed} must end healed");
        }
    }

    #[test]
    fn power_loss_events_are_generated_and_optional() {
        // The CI smoke runs 8 seeds: every fault kind must actually show
        // up across a window that small, or the power-loss path rides
        // along untested.
        let config = NemesisConfig::default();
        let mut faults_seen = std::collections::BTreeSet::new();
        for seed in 0..8u64 {
            for ScheduledEvent { event, .. } in &generate_schedule(&config, seed) {
                if let NemesisEvent::PowerLoss { fault, .. } = event {
                    faults_seen.insert(fault.name());
                }
            }
        }
        for fault in PowerLossFault::ALL {
            assert!(
                faults_seen.contains(fault.name()),
                "seeds 0..8 never generated a {} power loss",
                fault.name()
            );
        }

        // And the knob really disables them.
        let disabled = NemesisConfig::default().with_power_loss(false);
        for seed in 0..8u64 {
            for ScheduledEvent { event, .. } in &generate_schedule(&disabled, seed) {
                assert!(
                    !matches!(event, NemesisEvent::PowerLoss { .. }),
                    "power loss generated while disabled"
                );
            }
        }
    }

    #[test]
    fn schedule_rendering_is_line_per_event() {
        let config = NemesisConfig::default();
        let schedule = generate_schedule(&config, 3);
        let text = format_schedule(&schedule);
        assert_eq!(text.lines().count(), schedule.len());
        assert!(text.contains("t+"));
    }
}
