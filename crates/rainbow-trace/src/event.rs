//! Trace event and phase vocabulary.
//!
//! A trace is a flat list of [`TraceEvent`]s, each tagged with the
//! transaction it belongs to and the *track* (coordinator thread, one
//! participant site, or the network) it ran on. Span trees are
//! reconstructed at export time from track + time containment, so the
//! protocol messages never have to carry trace context.

use rainbow_common::TxnId;
use serde::{Deserialize, Serialize};

/// Where a span ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Track {
    /// The transaction's coordinator machine at its home site.
    Coordinator,
    /// A participant site's event loop (CCP decisions, ACP votes, WAL).
    Site {
        /// The participant site id.
        site: u32,
    },
    /// The simulated network (queue delay between send and delivery).
    Net,
}

impl Track {
    /// Human-readable track name used by the exporters.
    pub fn name(&self) -> String {
        match self {
            Track::Coordinator => "coordinator".to_string(),
            Track::Site { site } => format!("site-{site}"),
            Track::Net => "net".to_string(),
        }
    }

    /// A stable small integer for Chrome-trace `tid` assignment.
    pub fn lane_base(&self) -> u64 {
        match self {
            Track::Coordinator => 0,
            Track::Net => 1,
            Track::Site { site } => 10 + *site as u64,
        }
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// The transaction the span belongs to.
    pub txn: TxnId,
    /// The track the span ran on.
    pub track: Track,
    /// Short label, e.g. `conversation`, `op:read(x0)`, `quorum-leg`,
    /// `ccp:grant`, `acp:vote-yes`, `wal:force`.
    pub label: String,
    /// Start, in microseconds since the tracer's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Free-form detail (item names, decisions, message kinds).
    pub detail: String,
}

impl TraceEvent {
    /// End of the span (`start_us + dur_us`).
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }

    /// True when this span fully contains `other` in time.
    pub fn contains(&self, other: &TraceEvent) -> bool {
        self.start_us <= other.start_us && other.end_us() <= self.end_us()
    }
}

/// The measured protocol phases, each backed by one histogram in the
/// tracer. These are the columns of the per-phase breakdown in
/// `StatsSnapshot::phases` and in each cell of `BENCH_protocols.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Phase {
    /// Time a CCP access spent blocked before its lock / validation
    /// decision (2PL lock acquisition; zero for immediate grants).
    LockWait,
    /// Round-trip time of one quorum leg: copy request sent → reply
    /// received by the coordinator.
    QuorumRead,
    /// Participant-side prepare: CCP validation + staging + forced
    /// prepare log record.
    Prepare,
    /// Participant-side commit apply: installing staged writes + forced
    /// commit log record.
    CommitApply,
    /// One forced WAL append (the simulated fsync).
    WalForce,
    /// Network queue delay: message enqueue → delivery.
    QueueDelay,
    /// One real `fsync` issued by the disk engine's group-commit leader;
    /// each sample covers every forced append coalesced into that sync.
    FsyncBatch,
}

impl Phase {
    /// All phases, in breakdown-table order.
    pub const ALL: [Phase; 7] = [
        Phase::LockWait,
        Phase::QuorumRead,
        Phase::Prepare,
        Phase::CommitApply,
        Phase::WalForce,
        Phase::QueueDelay,
        Phase::FsyncBatch,
    ];

    /// The stable key used in `StatsSnapshot::phases` and JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::LockWait => "lock-wait",
            Phase::QuorumRead => "quorum-read",
            Phase::Prepare => "prepare",
            Phase::CommitApply => "commit-apply",
            Phase::WalForce => "wal-force",
            Phase::QueueDelay => "queue-delay",
            Phase::FsyncBatch => "fsync-batch",
        }
    }

    /// Index into the tracer's phase histogram array.
    pub(crate) fn index(&self) -> usize {
        *self as usize
    }
}

/// Dimensionless gauges sampled by the runtime — counts, not latencies.
/// Each is backed by one histogram in the tracer, like a [`Phase`], but
/// the recorded values are raw magnitudes (queue lengths, batch sizes)
/// rather than durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Meter {
    /// Messages one drain of a site's event loop handled — the site's
    /// instantaneous backlog. (The name is kept from the coordinator loops
    /// the site loop replaced.)
    ReactorQueueDepth,
    /// Logical messages coalesced into the largest batch envelope of one
    /// drain's outbox flush.
    ReactorBatchSize,
}

impl Meter {
    /// All meters, in breakdown-table order.
    pub const ALL: [Meter; 2] = [Meter::ReactorQueueDepth, Meter::ReactorBatchSize];

    /// The stable key used in stats snapshots and JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            Meter::ReactorQueueDepth => "reactor-queue-depth",
            Meter::ReactorBatchSize => "reactor-batch-size",
        }
    }

    /// Index into the tracer's meter histogram array.
    pub(crate) fn index(&self) -> usize {
        *self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbow_common::SiteId;

    #[test]
    fn track_names_and_lanes_are_stable() {
        assert_eq!(Track::Coordinator.name(), "coordinator");
        assert_eq!(Track::Site { site: 3 }.name(), "site-3");
        assert_eq!(Track::Net.name(), "net");
        assert_eq!(Track::Coordinator.lane_base(), 0);
        assert_eq!(Track::Net.lane_base(), 1);
        assert_eq!(Track::Site { site: 2 }.lane_base(), 12);
    }

    #[test]
    fn phase_names_cover_all_variants() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 7);
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
        assert!(names.contains(&"lock-wait"));
        assert!(names.contains(&"wal-force"));
        assert!(names.contains(&"fsync-batch"));
    }

    #[test]
    fn containment_is_inclusive() {
        let txn = TxnId::new(SiteId(0), 1);
        let outer = TraceEvent {
            txn,
            track: Track::Coordinator,
            label: "outer".into(),
            start_us: 10,
            dur_us: 100,
            detail: String::new(),
        };
        let inner = TraceEvent {
            start_us: 10,
            dur_us: 100,
            label: "inner".into(),
            ..outer.clone()
        };
        assert!(outer.contains(&inner));
        assert_eq!(outer.end_us(), 110);
        let disjoint = TraceEvent {
            start_us: 200,
            ..inner.clone()
        };
        assert!(!outer.contains(&disjoint));
    }
}
