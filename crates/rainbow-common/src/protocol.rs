//! Protocol selection, mirroring the paper's "Protocols Configuration"
//! window (Figure 4).
//!
//! Rainbow supports, per Section 2.1:
//!
//! 1. replication control protocols (RCP): Read-One-Write-All and Quorum
//!    Consensus (the default);
//! 2. concurrency control protocols (CCP): Two-Phase Locking and Timestamp
//!    Ordering (we also provide multi-version timestamp ordering, listed in
//!    Section 5 as a term-project extension);
//! 3. the atomic commit protocol (ACP): Two-Phase Commit (we also provide
//!    Three-Phase Commit, another suggested extension).

use crate::error::RainbowError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// Replication control protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum RcpKind {
    /// Read-One-Write-All: reads touch any single copy, writes touch every
    /// copy. Cheap reads, but a single unavailable copy blocks writes.
    Rowa,
    /// Quorum Consensus (the Rainbow default): every copy carries a vote and
    /// a version number; reads and writes assemble intersecting quorums.
    #[default]
    QuorumConsensus,
    /// Available Copies: reads touch any single copy, writes touch every
    /// copy the fault controller believes is up. Keeps both reads and
    /// writes available under site crashes, at the price of needing a
    /// copier/catch-up protocol when a crashed holder recovers.
    AvailableCopies,
    /// Tree Quorum: the copy sites form a logical tree; reads take the root
    /// (degrading to a majority of children, recursively, when the root is
    /// down) and writes take the root plus a majority of children at every
    /// selected level. Reads stay one-copy cheap while write quorums shrink
    /// below write-all.
    TreeQuorum,
    /// Primary Copy: all reads and writes are routed through a per-item
    /// primary site, with lease-based failover to the next live copy holder
    /// when the primary crashes; writes are propagated synchronously to
    /// every available backup.
    PrimaryCopy,
}

impl RcpKind {
    /// Every replication protocol, in presentation order — used by sweeps,
    /// tests and the CLI-style config parser.
    pub const ALL: [RcpKind; 5] = [
        RcpKind::Rowa,
        RcpKind::QuorumConsensus,
        RcpKind::AvailableCopies,
        RcpKind::TreeQuorum,
        RcpKind::PrimaryCopy,
    ];

    /// The long configuration name (`Display` prints the short one).
    pub fn config_name(&self) -> &'static str {
        match self {
            RcpKind::Rowa => "read-one-write-all",
            RcpKind::QuorumConsensus => "quorum-consensus",
            RcpKind::AvailableCopies => "available-copies",
            RcpKind::TreeQuorum => "tree-quorum",
            RcpKind::PrimaryCopy => "primary-copy",
        }
    }
}

// Adding an `RcpKind` variant must extend `ALL` (and with it `FromStr`,
// which parses by iterating `ALL`): this exhaustive match (deliberately no
// wildcard arm) breaks the build until the new variant is indexed, and the
// length assertion breaks it until `ALL` actually lists it.
const _: () = {
    const fn ordinal(kind: RcpKind) -> usize {
        match kind {
            RcpKind::Rowa => 0,
            RcpKind::QuorumConsensus => 1,
            RcpKind::AvailableCopies => 2,
            RcpKind::TreeQuorum => 3,
            RcpKind::PrimaryCopy => 4,
        }
    }
    assert!(RcpKind::ALL.len() == ordinal(RcpKind::PrimaryCopy) + 1);
};

impl fmt::Display for RcpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RcpKind::Rowa => write!(f, "ROWA"),
            RcpKind::QuorumConsensus => write!(f, "QC"),
            RcpKind::AvailableCopies => write!(f, "AC"),
            RcpKind::TreeQuorum => write!(f, "TQ"),
            RcpKind::PrimaryCopy => write!(f, "PC"),
        }
    }
}

impl FromStr for RcpKind {
    type Err = RainbowError;

    /// Parses either the short display name (`QC`) or the long config name
    /// (`quorum-consensus`), case-insensitively. Parsing is driven off
    /// [`RcpKind::ALL`] + [`fmt::Display`], so the round-trip
    /// `kind.to_string().parse()` holds for every variant by construction.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let wanted = s.trim();
        RcpKind::ALL
            .into_iter()
            .find(|kind| {
                wanted.eq_ignore_ascii_case(&kind.to_string())
                    || wanted.eq_ignore_ascii_case(kind.config_name())
            })
            .ok_or_else(|| {
                RainbowError::InvalidConfig(format!(
                    "unknown replication protocol {wanted:?} (expected one of {})",
                    RcpKind::ALL
                        .iter()
                        .map(|k| k.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            })
    }
}

/// Concurrency control protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum CcpKind {
    /// Strict two-phase locking with deadlock handling.
    #[default]
    TwoPhaseLocking,
    /// Basic timestamp ordering.
    TimestampOrdering,
    /// Multi-version timestamp ordering (term-project extension from
    /// Section 5 of the paper).
    MultiversionTimestampOrdering,
}

impl fmt::Display for CcpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CcpKind::TwoPhaseLocking => write!(f, "2PL"),
            CcpKind::TimestampOrdering => write!(f, "TSO"),
            CcpKind::MultiversionTimestampOrdering => write!(f, "MVTO"),
        }
    }
}

/// Atomic commitment protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum AcpKind {
    /// Two-phase commit (the Rainbow default).
    #[default]
    TwoPhaseCommit,
    /// Three-phase commit (non-blocking extension, Section 5).
    ThreePhaseCommit,
}

impl fmt::Display for AcpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcpKind::TwoPhaseCommit => write!(f, "2PC"),
            AcpKind::ThreePhaseCommit => write!(f, "3PC"),
        }
    }
}

/// Deadlock handling policy for the two-phase-locking CCP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum DeadlockPolicy {
    /// Maintain a wait-for graph and abort a victim when a cycle appears.
    #[default]
    WaitForGraph,
    /// Wait-die: an older transaction may wait for a younger one; a younger
    /// requester is aborted ("dies") instead of waiting.
    WaitDie,
    /// Wound-wait: an older requester aborts ("wounds") the younger holder; a
    /// younger requester waits.
    WoundWait,
    /// No detection — rely purely on lock-wait timeouts.
    TimeoutOnly,
}

impl fmt::Display for DeadlockPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeadlockPolicy::WaitForGraph => write!(f, "wait-for-graph"),
            DeadlockPolicy::WaitDie => write!(f, "wait-die"),
            DeadlockPolicy::WoundWait => write!(f, "wound-wait"),
            DeadlockPolicy::TimeoutOnly => write!(f, "timeout-only"),
        }
    }
}

/// The coordinator runtime, of which there is one: every transaction is a
/// state machine on its home site's one event loop. (`Reactor` names the
/// pool of coordinator loops that loop replaced.)
///
/// The type has a single value and nothing selects it. It survives only
/// because `benchmark/src/main.rs` prints `stack.coordinator` in its header
/// and a change outside `benchmark/` may not edit that file: ROADMAP item
/// 1(a)'s benchmark-only change drops that header line, the stale "threads
/// coordinator" sentence in `benchmark/README.md`, this type and
/// [`ProtocolStack::coordinator`] together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoordinatorMode {
    /// The site's event loop, with per-drain message + group-commit
    /// batching.
    Reactor,
}

impl fmt::Display for CoordinatorMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "reactor")
    }
}

/// The complete protocol stack of one Rainbow instance, as selected in the
/// protocols configuration panel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolStack {
    /// Replication control protocol.
    pub rcp: RcpKind,
    /// Concurrency control protocol.
    pub ccp: CcpKind,
    /// Atomic commitment protocol.
    pub acp: AcpKind,
    /// Deadlock policy (only meaningful when `ccp` is 2PL).
    pub deadlock: DeadlockPolicy,
    /// How long a transaction waits for a lock / quorum / vote before the
    /// corresponding layer declares a timeout abort.
    pub lock_wait_timeout: Duration,
    /// Timeout used by the commit coordinator when collecting votes/acks.
    pub commit_timeout: Duration,
    /// Timeout used by the RCP when collecting copies/votes from copy
    /// holders.
    pub quorum_timeout: Duration,
    /// Read-only, for the benchmark's header (see [`CoordinatorMode`]).
    pub coordinator: CoordinatorMode,
}

impl Default for ProtocolStack {
    fn default() -> Self {
        ProtocolStack {
            rcp: RcpKind::default(),
            ccp: CcpKind::default(),
            acp: AcpKind::default(),
            deadlock: DeadlockPolicy::default(),
            lock_wait_timeout: Duration::from_millis(500),
            commit_timeout: Duration::from_millis(1000),
            quorum_timeout: Duration::from_millis(1000),
            coordinator: CoordinatorMode::Reactor,
        }
    }
}

impl ProtocolStack {
    /// The paper's default stack: QC + 2PL + 2PC.
    pub fn rainbow_default() -> Self {
        ProtocolStack::default()
    }

    /// Builder-style RCP selection.
    pub fn with_rcp(mut self, rcp: RcpKind) -> Self {
        self.rcp = rcp;
        self
    }

    /// Builder-style CCP selection.
    pub fn with_ccp(mut self, ccp: CcpKind) -> Self {
        self.ccp = ccp;
        self
    }

    /// Builder-style ACP selection.
    pub fn with_acp(mut self, acp: AcpKind) -> Self {
        self.acp = acp;
        self
    }

    /// Builder-style deadlock-policy selection.
    pub fn with_deadlock_policy(mut self, policy: DeadlockPolicy) -> Self {
        self.deadlock = policy;
        self
    }

    /// Builder-style lock-wait timeout.
    pub fn with_lock_wait_timeout(mut self, timeout: Duration) -> Self {
        self.lock_wait_timeout = timeout;
        self
    }

    /// Builder-style commit timeout.
    pub fn with_commit_timeout(mut self, timeout: Duration) -> Self {
        self.commit_timeout = timeout;
        self
    }

    /// Builder-style quorum timeout.
    pub fn with_quorum_timeout(mut self, timeout: Duration) -> Self {
        self.quorum_timeout = timeout;
        self
    }

    /// How long a participant entry — or an idle interactive conversation —
    /// may sit without activity before a site presumes its driver dead and
    /// aborts it: three full protocol-timeout windows. The site janitor,
    /// the coordinator's idle-client deadline and the chaos harness's
    /// quiescence deadline all share this one definition, so a vanished
    /// client frees resources everywhere on the same clock and the harness
    /// never declares a run stuck while a coordinator is still legitimately
    /// waiting out the horizon.
    pub fn janitor_horizon(&self) -> Duration {
        (self.commit_timeout + self.quorum_timeout + self.lock_wait_timeout) * 3
    }

    /// A compact label such as `QC+2PL+2PC`, used in reports and bench
    /// output so series are easy to identify.
    pub fn label(&self) -> String {
        format!("{}+{}+{}", self.rcp, self.ccp, self.acp)
    }
}

impl fmt::Display for ProtocolStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let stack = ProtocolStack::rainbow_default();
        assert_eq!(stack.rcp, RcpKind::QuorumConsensus);
        assert_eq!(stack.ccp, CcpKind::TwoPhaseLocking);
        assert_eq!(stack.acp, AcpKind::TwoPhaseCommit);
        assert_eq!(stack.label(), "QC+2PL+2PC");
    }

    #[test]
    fn builders_override_each_layer_independently() {
        let stack = ProtocolStack::default()
            .with_rcp(RcpKind::Rowa)
            .with_ccp(CcpKind::TimestampOrdering)
            .with_acp(AcpKind::ThreePhaseCommit)
            .with_deadlock_policy(DeadlockPolicy::WoundWait);
        assert_eq!(stack.rcp, RcpKind::Rowa);
        assert_eq!(stack.ccp, CcpKind::TimestampOrdering);
        assert_eq!(stack.acp, AcpKind::ThreePhaseCommit);
        assert_eq!(stack.deadlock, DeadlockPolicy::WoundWait);
        assert_eq!(stack.label(), "ROWA+TSO+3PC");
    }

    #[test]
    fn timeout_builders() {
        let stack = ProtocolStack::default()
            .with_lock_wait_timeout(Duration::from_millis(10))
            .with_commit_timeout(Duration::from_millis(20))
            .with_quorum_timeout(Duration::from_millis(30));
        assert_eq!(stack.lock_wait_timeout, Duration::from_millis(10));
        assert_eq!(stack.commit_timeout, Duration::from_millis(20));
        assert_eq!(stack.quorum_timeout, Duration::from_millis(30));
    }

    #[test]
    fn rcp_kind_round_trips_through_from_str() {
        for kind in RcpKind::ALL {
            // Short display name.
            assert_eq!(kind.to_string().parse::<RcpKind>().unwrap(), kind);
            // Long config name, case-insensitively and with padding.
            let sloppy = format!("  {}  ", kind.config_name().to_ascii_uppercase());
            assert_eq!(sloppy.parse::<RcpKind>().unwrap(), kind);
        }
        assert!("paxos".parse::<RcpKind>().is_err());
        assert!("".parse::<RcpKind>().is_err());
    }

    #[test]
    fn rcp_kind_all_has_no_duplicates() {
        for (i, a) in RcpKind::ALL.iter().enumerate() {
            for b in RcpKind::ALL.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn coordinator_mode_names_are_stable_and_round_trip() {
        assert_eq!(CoordinatorMode::Reactor.to_string(), "reactor");
        let stack = ProtocolStack::default();
        assert_eq!(stack.coordinator, CoordinatorMode::Reactor);
        let json = serde_json::to_string(&stack).unwrap();
        let back: ProtocolStack = serde_json::from_str(&json).unwrap();
        assert_eq!(back.coordinator, CoordinatorMode::Reactor);
    }

    #[test]
    fn display_names_match_the_literature() {
        assert_eq!(RcpKind::Rowa.to_string(), "ROWA");
        assert_eq!(RcpKind::QuorumConsensus.to_string(), "QC");
        assert_eq!(RcpKind::AvailableCopies.to_string(), "AC");
        assert_eq!(RcpKind::TreeQuorum.to_string(), "TQ");
        assert_eq!(RcpKind::PrimaryCopy.to_string(), "PC");
        assert_eq!(CcpKind::TwoPhaseLocking.to_string(), "2PL");
        assert_eq!(CcpKind::TimestampOrdering.to_string(), "TSO");
        assert_eq!(CcpKind::MultiversionTimestampOrdering.to_string(), "MVTO");
        assert_eq!(AcpKind::TwoPhaseCommit.to_string(), "2PC");
        assert_eq!(AcpKind::ThreePhaseCommit.to_string(), "3PC");
        assert_eq!(DeadlockPolicy::WaitDie.to_string(), "wait-die");
    }

    #[test]
    fn protocol_stack_serde_round_trip() {
        let stack = ProtocolStack::default().with_ccp(CcpKind::MultiversionTimestampOrdering);
        let json = serde_json::to_string(&stack).unwrap();
        let back: ProtocolStack = serde_json::from_str(&json).unwrap();
        assert_eq!(stack, back);
    }
}
