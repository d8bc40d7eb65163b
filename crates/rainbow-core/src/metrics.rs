//! Per-site metrics and the global progress monitor.
//!
//! The progress monitor is the PM role of the paper's middle tier (the
//! "PMlet"): it aggregates per-site counters, transaction results and
//! network-simulator counters into the [`StatsSnapshot`] that drives the
//! transaction-processing output panel (Figure 5), the session's experiment
//! runners and reports (`rainbow-control`) and the benchmark's per-layer
//! metrics.

use parking_lot::Mutex;
use rainbow_common::stats::{AbortBreakdown, LoadBalance, StatsSnapshot};
use rainbow_common::txn::{TxnOutcome, TxnResult};
use rainbow_common::SiteId;
use rainbow_net::NetworkCounters;
use rainbow_trace::{LogHistogram, Tracer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lightweight per-site counters, shared between a site runtime and the
/// progress monitor.
#[derive(Debug, Default)]
pub struct SiteMetrics {
    /// Transactions for which this site was the home site.
    pub home_transactions: AtomicU64,
    /// Copy-access and commit-protocol requests served for other sites.
    pub served_requests: AtomicU64,
    /// Participant-side prepares voted READ-ONLY (nothing written here).
    pub votes_read_only: AtomicU64,
    /// Stale transactions the janitor cleaned up (coordinator never came
    /// back with a decision).
    pub janitor_cleanups: AtomicU64,
    /// Copy accesses the CCP decided the first time it was asked.
    pub copy_accesses_inline: AtomicU64,
    /// Copy accesses the CCP said must wait, parked at the site and asked
    /// again.
    pub copy_accesses_parked: AtomicU64,
}

impl SiteMetrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        SiteMetrics::default()
    }

    /// Increment helper.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// The global progress monitor: collects transaction results and renders
/// statistics snapshots.
pub struct ProgressMonitor {
    started: Instant,
    submitted: AtomicU64,
    restarted: AtomicU64,
    orphans: AtomicU64,
    committed: AtomicU64,
    aborted: AtomicU64,
    /// Response-time distribution. A constant-memory log-bucketed histogram
    /// rather than a sample vector: long chaos runs used to grow an
    /// unbounded `Vec<Duration>` here.
    response_times: Mutex<LogHistogram>,
    aborts: Mutex<AbortBreakdown>,
    per_site: Mutex<BTreeMap<SiteId, Arc<SiteMetrics>>>,
    network: Arc<NetworkCounters>,
    tracer: Option<Arc<Tracer>>,
}

impl ProgressMonitor {
    /// Creates a monitor reading message counters from `network`.
    pub fn new(network: Arc<NetworkCounters>) -> Self {
        Self::with_tracer(network, None)
    }

    /// Creates a monitor that additionally reads per-phase latency
    /// histograms from `tracer` when rendering snapshots.
    pub fn with_tracer(network: Arc<NetworkCounters>, tracer: Option<Arc<Tracer>>) -> Self {
        ProgressMonitor {
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            restarted: AtomicU64::new(0),
            orphans: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            response_times: Mutex::new(LogHistogram::new()),
            aborts: Mutex::new(AbortBreakdown::default()),
            per_site: Mutex::new(BTreeMap::new()),
            network,
            tracer,
        }
    }

    /// Registers the metrics handle of a site.
    pub fn register_site(&self, site: SiteId, metrics: Arc<SiteMetrics>) {
        self.per_site.lock().insert(site, metrics);
    }

    /// Records that a transaction was submitted.
    pub fn record_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a completed transaction result.
    pub fn record_result(&self, result: &TxnResult) {
        match &result.outcome {
            TxnOutcome::Committed => {
                self.committed.fetch_add(1, Ordering::Relaxed);
            }
            TxnOutcome::Aborted(cause) => {
                self.aborted.fetch_add(1, Ordering::Relaxed);
                self.aborts.lock().record(cause.layer(), cause.to_string());
            }
            TxnOutcome::Orphaned => {
                self.orphans.fetch_add(1, Ordering::Relaxed);
            }
        }
        if result.restarts > 0 {
            self.restarted.fetch_add(1, Ordering::Relaxed);
        }
        if !result.outcome.is_orphaned() {
            self.response_times
                .lock()
                .record_duration(result.response_time);
        }
    }

    /// Time elapsed since the monitor was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Renders the current statistics snapshot (the Figure 5 panel).
    pub fn snapshot(&self) -> StatsSnapshot {
        let response_time = self.response_times.lock().to_latency_stats();
        let phases = self
            .tracer
            .as_ref()
            .map(|t| t.phase_stats())
            .unwrap_or_default();
        let mut load = LoadBalance::default();
        for (site, metrics) in self.per_site.lock().iter() {
            load.home_transactions
                .insert(site.0, metrics.home_transactions.load(Ordering::Relaxed));
            load.served_requests
                .insert(site.0, metrics.served_requests.load(Ordering::Relaxed));
        }
        StatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            committed: self.committed.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            orphans: self.orphans.load(Ordering::Relaxed),
            restarted: self.restarted.load(Ordering::Relaxed),
            aborts: self.aborts.lock().clone(),
            messages: self.network.snapshot(),
            response_time,
            phases,
            elapsed_secs: self.started.elapsed().as_secs_f64(),
            load,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbow_common::txn::AbortCause;
    use rainbow_common::TxnId;
    use std::collections::BTreeMap as Map;

    fn result(outcome: TxnOutcome, ms: u64) -> TxnResult {
        TxnResult {
            id: TxnId::new(SiteId(0), 1),
            label: "t".into(),
            outcome,
            reads: Map::new(),
            response_time: Duration::from_millis(ms),
            restarts: 0,
            messages: 3,
        }
    }

    #[test]
    fn monitor_counts_outcomes() {
        let monitor = ProgressMonitor::new(Arc::new(NetworkCounters::new()));
        monitor.record_submitted();
        monitor.record_submitted();
        monitor.record_submitted();
        monitor.record_result(&result(TxnOutcome::Committed, 5));
        monitor.record_result(&result(TxnOutcome::Aborted(AbortCause::UserAbort), 7));
        monitor.record_result(&result(TxnOutcome::Orphaned, 0));

        let snap = monitor.snapshot();
        assert_eq!(snap.submitted, 3);
        assert_eq!(snap.committed, 1);
        assert_eq!(snap.aborted, 1);
        assert_eq!(snap.orphans, 1);
        assert_eq!(
            snap.response_time.count, 2,
            "orphans do not contribute latency"
        );
        assert!(snap.commit_rate() > 0.49 && snap.commit_rate() < 0.51);
        assert!(snap.elapsed_secs >= 0.0);
    }

    #[test]
    fn abort_breakdown_follows_cause_layers() {
        let monitor = ProgressMonitor::new(Arc::new(NetworkCounters::new()));
        monitor.record_result(&result(
            TxnOutcome::Aborted(AbortCause::CcpDeadlock {
                item: rainbow_common::ItemId::new("x"),
            }),
            1,
        ));
        monitor.record_result(&result(
            TxnOutcome::Aborted(AbortCause::AcpTimeout {
                phase: "prepare".into(),
            }),
            1,
        ));
        let snap = monitor.snapshot();
        assert_eq!(snap.aborts.layer(rainbow_common::txn::AbortLayer::Ccp), 1);
        assert_eq!(snap.aborts.layer(rainbow_common::txn::AbortLayer::Acp), 1);
    }

    #[test]
    fn restarted_transactions_are_counted() {
        let monitor = ProgressMonitor::new(Arc::new(NetworkCounters::new()));
        let mut r = result(TxnOutcome::Committed, 2);
        r.restarts = 2;
        monitor.record_result(&r);
        assert_eq!(monitor.snapshot().restarted, 1);
    }

    #[test]
    fn per_site_metrics_feed_load_balance() {
        let monitor = ProgressMonitor::new(Arc::new(NetworkCounters::new()));
        let m0 = Arc::new(SiteMetrics::new());
        let m1 = Arc::new(SiteMetrics::new());
        m0.home_transactions.store(10, Ordering::Relaxed);
        m0.served_requests.store(100, Ordering::Relaxed);
        m1.served_requests.store(20, Ordering::Relaxed);
        monitor.register_site(SiteId(0), m0);
        monitor.register_site(SiteId(1), m1);
        let snap = monitor.snapshot();
        assert_eq!(snap.load.home_transactions.get(&0), Some(&10));
        assert_eq!(snap.load.served_requests.get(&1), Some(&20));
        assert!(snap.load.imbalance() > 0.0);
    }

    #[test]
    fn network_counters_are_included() {
        let counters = Arc::new(NetworkCounters::new());
        counters.record_sent(
            rainbow_net::NodeId::site(0),
            rainbow_net::NodeId::site(1),
            "X",
            10,
        );
        let monitor = ProgressMonitor::new(Arc::clone(&counters));
        assert_eq!(monitor.snapshot().messages.sent, 1);
    }

    #[test]
    fn snapshot_includes_tracer_phase_breakdown() {
        let tracer = Arc::new(rainbow_trace::Tracer::new(
            rainbow_trace::TraceConfig::histograms_only(),
        ));
        let monitor = ProgressMonitor::with_tracer(
            Arc::new(NetworkCounters::new()),
            Some(Arc::clone(&tracer)),
        );
        tracer.record_phase(rainbow_trace::Phase::LockWait, Duration::from_micros(120));
        monitor.record_result(&result(TxnOutcome::Committed, 5));
        let snap = monitor.snapshot();
        assert_eq!(snap.phases["lock-wait"].count, 1);
        assert_eq!(snap.response_time.count, 1);
        // Without a tracer the phase map stays empty.
        let plain = ProgressMonitor::new(Arc::new(NetworkCounters::new()));
        assert!(plain.snapshot().phases.is_empty());
    }

    #[test]
    fn site_metrics_bump_helper() {
        let m = SiteMetrics::new();
        SiteMetrics::bump(&m.served_requests);
        SiteMetrics::bump(&m.served_requests);
        assert_eq!(m.served_requests.load(Ordering::Relaxed), 2);
    }
}
