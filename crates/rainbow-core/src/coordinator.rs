//! The home-site transaction manager: one state machine per transaction.
//!
//! A `TxnMachine` drives its transaction through the flow of Section 2.1
//! of the paper — RCP, CCP, ACP — as an **op-driven state machine**: it
//! learns the transaction one command at a time from the client's
//! interactive handle (first command → read/write/increment → commit/abort)
//! instead of iterating a pre-declared operation list. Each command flows
//! through the layers:
//!
//! 1. the RCP builds a read or write quorum **per item**, contacting
//!    copy-holder sites whose CCP arbitrates each copy access — reads run
//!    immediately and return the observed value mid-transaction, plain
//!    writes are buffered and their quorums run at commit. The copy accesses
//!    of *all* the items of one command (a `ReadMany` batch, the buffered
//!    writes at commit) go out together and their replies are collected
//!    under one deadline, so the command's RCP latency is its slowest quorum
//!    instead of the sum of them; a one-item command is a fan-out of one.
//!    A round asks only the sites its collector contacts — for QC exactly a
//!    quorum, the home's own copy first — and keeps the other holders as
//!    spares: a denial or a missing copy that leaves the round short asks
//!    spares until it can assemble again (a deadlock victim gives up
//!    instead), and halfway to the deadline, the *hedge point*, every round
//!    still short asks all its spares, once;
//! 2. at commit the buffered write quorums are installed and the home site
//!    runs the ACP (2PC by default, 3PC optionally);
//! 3. the result — committed, aborted (with the responsible layer) or
//!    orphaned — is reported back to the driving client together with the
//!    values read, the response time and the number of messages the
//!    transaction generated.
//!
//! A one-increment transaction is **eight sequential hops**:
//! `TxnBegin(op)` → `CopyRead` → `CopyReply` → `TxnOpReply`,
//! `TxnOp(Commit)` → `AcpPrepare` → `AcpVote` → (`AcpDecision` ∥ `TxnDone`).
//! On three copies with majority quorums it is **ten messages**: the four
//! client messages, and six between the home and the one remote copy in
//! its quorum — `CopyRead`, `CopyReply`, `AcpPrepare`, `AcpVote`,
//! `AcpDecision`, `AcpAck`. The home's own copy is asked and answers in
//! the home's loop: what a site sends itself never enters the network, so
//! it costs no hop and is not counted, as in the paper. The third copy
//! hears nothing, unless the second fails or is slow
//! (`tests/interactive_api.rs`,
//! `one_increment_asks_one_remote_copy_and_leaves_the_spare_alone`).
//! The conversation opens with its first command (the site allocates the id
//! and runs the command in one trip), and the client is answered **at the
//! decision**: once the decision is on the coordinator's record
//! (`Effects::record_decision`) and the `AcpDecision`s are on their
//! way, no acknowledgement can change the outcome, so `TxnDone` leaves right
//! behind them. Participants still hold every lock and pre-write until the
//! decision reaches them; the machine lives on in `Committing` only to
//! collect `AcpAck`s and retire.
//!
//! A participant the transaction wrote nothing at answers `AcpPrepare` with
//! a READ-ONLY vote, having released what it held: it is out of the
//! protocol, and the decision and its acknowledgement are exchanged with
//! the YES voters only. A wholly read-only transaction is still eight hops,
//! but nothing follows its votes: the last one decides commit with nobody
//! to tell — `perform_action` records it and answers the client, exactly as
//! for any other decision — and the machine retires in the same drain.
//!
//! A machine never waits and never reads a clock. It is advanced by events
//! — a client command, a copy reply, a vote, an acknowledgement, a
//! deadline — that its home site (`site.rs`) feeds it, each with the time
//! it happens at. Everything it sends is queued in the site's outbox and
//! leaves when the drain ends (an answer to the client right after the
//! message that produced it), and it records its decision beside that
//! outbox, in the same `&mut Effects` every transition is handed.
//! This is the one deliberate **deviation from the paper**, whose site
//! "dedicates one thread to process" each transaction: here a site is one
//! thread, and a transaction is a machine on it, not given a thread. It was
//! measured, not assumed — with a thread lent to every conversation the
//! same protocol steps committed 15.1k / 11.5k / 6.2k transactions/s at
//! 64 / 256 / 1024 clients where the event loops commit 28.7k / 31.6k /
//! 19.2k, and on the repository's two-client benchmark the
//! thread-per-conversation coordinator won on no workload (`hot_transfer`
//! 3.9k → 4.6k commits/s on the event loops, the others within the
//! run-to-run spread). The machines once ran on a pool of coordinator loops
//! beside the thread serving participants; folding them into that one
//! thread lost nothing either (README, *One loop per site*).
//!
//! One-shot `TxnSpec` submission is a *client-side* adapter replaying the
//! spec through this same conversation; there is no second execution path.
//!
//! The file reads top to bottom: the transaction's data (`TxnExecution`),
//! quorum planning, the machine and its transitions, then the steps every
//! outcome goes through — `perform_action` at the decision,
//! `abort_everywhere` before one, `answer_client`.

use crate::messages::{CopyAccessResult, Msg, NextOp, OpReply};
use crate::site::{Effects, SiteShared};
use rainbow_commit::{Coordinator, CoordinatorAction, CoordinatorState, Decision, Vote};
use rainbow_common::history::{ReadObservation, TxnRecord, WriteRecord};
use rainbow_common::protocol::CcpKind;
use rainbow_common::txn::{AbortCause, TxnOutcome, TxnResult};
use rainbow_common::{ItemId, SiteId, Timestamp, TxnId, Value, Version};
use rainbow_net::NodeId;
use rainbow_replication::{QuorumCollector, QuorumOutcome, QuorumResponse};
use rainbow_trace::{Phase, TraceEvent, Track};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// What a machine's transition is handed besides the machine: its home
/// site, the effects it has there, and the time it happens at.
pub(crate) struct Cx<'a> {
    pub shared: &'a SiteShared,
    pub out: &'a mut Effects,
    pub now: Instant,
}

// ----------------------------------------------------------------------
// The transaction's data
// ----------------------------------------------------------------------

/// An update the conversation has staged, in client order. Install order
/// must follow the order the client issued the updates in, even though
/// read-modify-writes assemble their quorums immediately while plain writes
/// defer theirs to commit.
enum StagedWrite {
    /// A plain write: the quorum runs at commit.
    Deferred {
        /// The item.
        item: ItemId,
        /// The value to install.
        value: Value,
    },
    /// A read-modify-write whose (read-for-update) quorum already assembled
    /// when the operation ran.
    Assembled {
        /// The item.
        item: ItemId,
        /// The computed value to install.
        value: Value,
        /// The quorum's responders (where the write must be installed).
        sites: Vec<SiteId>,
        /// The version the write installs.
        version: Version,
    },
}

/// Mutable execution state of one transaction at its coordinator.
struct TxnExecution {
    txn: TxnId,
    ts: Timestamp,
    /// The client-chosen label, for reports.
    label: String,
    /// The driving client and the request id it named the conversation by.
    client: NodeId,
    request: u64,
    started: Instant,
    /// Tracer time the conversation opened at (start of the root span).
    trace_start: u64,
    /// Detail of the root span — label and outcome — noted when the client
    /// is answered; the span itself closes when the coordinator retires.
    /// Stays `None` without a tracer.
    root_detail: Option<String>,
    /// Values observed by read operations.
    reads: BTreeMap<ItemId, Value>,
    /// Updates staged by the conversation, in client order.
    staged: Vec<StagedWrite>,
    /// Writes to install per participant site (built when the staged
    /// updates are folded at commit).
    writes_per_site: BTreeMap<SiteId, Vec<(ItemId, Value, Version)>>,
    /// Every site that granted this transaction an access (they all hold CCP
    /// resources and must see the final decision). A responder is booked the
    /// moment its grant arrives, whether or not its quorum ends up
    /// assembling.
    touched: BTreeSet<SiteId>,
    /// Every site the transaction sent a copy access to (a round's first
    /// contacts and the spares it widened to), whether or not it answered
    /// in time. Contacted-but-untouched sites may have granted a lock after
    /// the quorum was already assembled, or denied one; they receive a
    /// release notice when the transaction finishes so their resources do
    /// not linger until the janitor.
    contacted: BTreeSet<SiteId>,
    /// Messages sent on behalf of this transaction (remote only; the home's
    /// messages to itself are free, as in the paper's message accounting;
    /// client conversation round trips are excluded, like `SubmitTxn` round
    /// trips were).
    messages: u64,
    /// Whether the cluster records transaction histories; when false the
    /// two vectors below stay empty and untouched (the default).
    record_history: bool,
    /// Every read with its observed version, in execution order — the
    /// history footprint the serializability checker consumes.
    observed: Vec<ReadObservation>,
    /// Every write with its installed version, in client order (filled when
    /// the staged writes are folded at commit).
    installed: Vec<WriteRecord>,
    /// Coordinator-side spans buffered locally while the transaction runs.
    /// Handed to the tracer's `finish_txn` at the end, which keeps them if
    /// the transaction is sampled *or* slow enough for the worst-N ring.
    /// Empty (never pushed to) when the cluster runs without a tracer.
    spans: Vec<TraceEvent>,
}

impl TxnExecution {
    /// Notes the value a read (or the read half of a read-modify-write)
    /// observed: for the client's receipt and, when recorded, the history.
    fn observe_read(&mut self, item: &ItemId, value: &Value, version: Version) {
        self.reads.insert(item.clone(), value.clone());
        if self.record_history {
            self.observed.push(ReadObservation {
                item: item.clone(),
                value: value.clone(),
                version,
            });
        }
    }

    /// Books one write for installation at `sites` (and in the history,
    /// when recorded).
    fn install_write(&mut self, item: ItemId, value: Value, version: Version, sites: Vec<SiteId>) {
        if self.record_history {
            self.installed.push(WriteRecord {
                item: item.clone(),
                value: value.clone(),
                version,
            });
        }
        for site in sites {
            self.writes_per_site.entry(site).or_default().push((
                item.clone(),
                value.clone(),
                version,
            ));
        }
    }
}

/// Buffers one coordinator-side span ending now. No-op without a tracer;
/// the detail is a closure so untraced runs never pay for formatting.
fn push_span(
    shared: &SiteShared,
    exec: &mut TxnExecution,
    label: &str,
    start_us: u64,
    detail: impl FnOnce() -> String,
) {
    if let Some(tracer) = shared.tracer.as_ref() {
        let dur_us = tracer.now_us().saturating_sub(start_us);
        exec.spans.push(TraceEvent {
            txn: exec.txn,
            track: Track::Coordinator,
            label: label.to_string(),
            start_us,
            dur_us,
            detail: detail(),
        });
    }
}

// ----------------------------------------------------------------------
// Quorums
// ----------------------------------------------------------------------

/// The three copy-access patterns the coordinator issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QuorumAccess {
    /// Read quorum, shared access.
    Read,
    /// Write quorum, pre-write access (version numbers only).
    Write,
    /// Write quorum whose accesses also return the current value
    /// (read-modify-write operations).
    ReadForUpdate,
}

/// One quorum being assembled.
struct QuorumRound {
    item: ItemId,
    access: QuorumAccess,
    collector: QuorumCollector,
    assembled: bool,
    /// First CCP denial observed by *this* round (abort causes stay
    /// per-quorum so the abort names the layer and item that caused it).
    ccp_cause: Option<AbortCause>,
}

impl QuorumRound {
    /// Whether an incoming `CopyReply` from `site` belongs to this round:
    /// the item and the exact access kind must match, the site must be one
    /// this round actually contacted, and the round must not have heard
    /// from the site yet. The last rule makes duplicate operations on the
    /// same item each collect their own copy of every site's answer instead
    /// of the first round swallowing all of them; the contacted rule keeps a
    /// wider quorum's replies (e.g. a write fan-out) from being absorbed by
    /// a narrower one on the same item (e.g. a one-site ROWA read whose
    /// vote map nevertheless lists every holder).
    fn matches(&self, item: &ItemId, prewrite: bool, for_update: bool, site: SiteId) -> bool {
        !self.assembled
            && self.item == *item
            && (self.access == QuorumAccess::Write) == prewrite
            && (self.access == QuorumAccess::ReadForUpdate) == for_update
            && self.collector.is_contacted(site)
            && !self.collector.has_response(site)
            && !self.collector.has_failure(site)
    }

    /// What to abort with when this round cannot assemble: the CCP's own
    /// denial if one arrived, else `otherwise`.
    fn failure(&self, otherwise: impl FnOnce() -> AbortCause) -> AbortCause {
        self.ccp_cause.clone().unwrap_or_else(otherwise)
    }
}

/// The replica version number a write must install.
///
/// Under 2PL, write quorums are serialized by exclusive locks, so
/// `max(version in quorum) + 1` is strictly increasing in commit order.
/// Under (MV)TSO, conflicting pre-writes are *not* serialized before commit
/// — two concurrent writers could both observe the same committed version
/// and install colliding numbers — so the version is derived from the
/// transaction's globally unique timestamp instead, which is exactly the
/// order those protocols serialize by.
fn new_write_version(
    shared: &SiteShared,
    exec: &TxnExecution,
    collector: &QuorumCollector,
) -> Version {
    match shared.stack.ccp {
        CcpKind::TwoPhaseLocking => collector.next_version(),
        CcpKind::TimestampOrdering | CcpKind::MultiversionTimestampOrdering => {
            // Encode (counter, site) into a single monotonic number; site ids
            // are far below 1024 in any Rainbow configuration.
            Version(exec.ts.counter * 1024 + u64::from(exec.ts.site % 1024))
        }
    }
}

/// Plans one quorum and queues its copy-access requests for the sites its
/// collector contacts first — exactly a quorum for QC, every target for the
/// read-one and all-of plans — returning the collector the replies feed
/// into. The other targets are the round's spares.
fn start_quorum(
    cx: &mut Cx,
    exec: &mut TxnExecution,
    item: &ItemId,
    access: QuorumAccess,
) -> Result<QuorumCollector, AbortCause> {
    let placement = match cx.shared.schema.replication.placement(item) {
        Some(p) => p.clone(),
        None => {
            return Err(AbortCause::RcpQuorumUnavailable {
                item: item.clone(),
                collected: 0,
                required: 0,
            })
        }
    };

    // The fault controller's live site-status view: the planners route
    // around (reads), shrink their write sets to (available copies, primary
    // copy) or degrade their quorum trees around (tree quorum) the sites
    // known to be down. Partitioned-but-alive sites are deliberately *not*
    // in this list — treating them as down would let write sets shrink on
    // both sides of a partition and diverge; instead they stay targets and
    // the quorum times out, aborting the transaction.
    let suspected_down: Vec<SiteId> = cx.shared.faults.crashed_sites();
    let plan = match access {
        QuorumAccess::Read => {
            cx.shared
                .rcp
                .plan_read(item, &placement, Some(cx.shared.id), &suspected_down)
        }
        QuorumAccess::Write | QuorumAccess::ReadForUpdate => {
            let home = Some(cx.shared.id);
            let rcp = &cx.shared.rcp;
            rcp.plan_write_from(item, &placement, home, &suspected_down)
        }
    };
    let collector = plan.collector();
    ask_copies(cx, exec, item, access, collector.contacted().to_vec());
    Ok(collector)
}

/// Queues one copy-access request for each of `sites` (same-drain requests
/// to one site leave in one envelope) and books them as contacted.
fn ask_copies(
    cx: &mut Cx,
    exec: &mut TxnExecution,
    item: &ItemId,
    access: QuorumAccess,
    sites: Vec<SiteId>,
) {
    let (txn, ts) = (exec.txn, exec.ts);
    exec.contacted.extend(&sites);
    send_to_sites(cx, exec, sites, |_| match access {
        QuorumAccess::Write => Msg::CopyPrewrite {
            txn,
            ts,
            item: item.clone(),
        },
        QuorumAccess::Read | QuorumAccess::ReadForUpdate => Msg::CopyRead {
            txn,
            ts,
            item: item.clone(),
            for_update: access == QuorumAccess::ReadForUpdate,
        },
    });
}

// ----------------------------------------------------------------------
// The machine
// ----------------------------------------------------------------------

/// Which quorum-driven client operation a [`QuorumOp`] serves.
enum OpKind {
    /// A single read.
    Read,
    /// A batched multi-get.
    ReadMany,
    /// A read-modify-write.
    Increment {
        /// The increment delta, applied once the quorum value is known.
        delta: i64,
    },
    /// The deferred write quorums assembled at commit, followed by the ACP.
    CommitInstall,
}

/// The quorum fan-out of one client operation in flight: every item's
/// round started up front, one deadline for all of them.
struct QuorumOp {
    kind: OpKind,
    /// The items, in request order; `rounds[i]` serves `items[i]`.
    items: Vec<ItemId>,
    rounds: Vec<QuorumRound>,
    /// Halfway to the deadline: every round still unassembled then asks all
    /// its spares. `None` once that happened.
    hedge: Option<Instant>,
    deadline: Instant,
    /// Start of the whole client operation (the `op:*` span).
    op_start: u64,
    /// Start of the fan-out (the `quorum:*` spans).
    fanout_start: u64,
}

/// The commit protocol in flight.
struct AcpRun {
    coordinator: Coordinator,
    abort_cause: Option<AbortCause>,
    deadline: Instant,
    acp_start: u64,
    /// Set when the decision goes out: closes the voting span, opens the
    /// decision-distribution span.
    decision_start: Option<u64>,
    /// Start of the commit client operation (the `op:commit` span).
    op_start: u64,
}

/// What a machine is waiting for.
enum MachineState {
    /// Awaiting the client's next command. The idle-client horizon only
    /// runs in this state (quorum and commit phases are bounded by their
    /// own deadlines).
    Idle,
    /// Assembling quorums for one client operation.
    Quorums(QuorumOp),
    /// Running the atomic commit protocol.
    Committing(AcpRun),
}

/// One transaction's coordinator, owned by its home site's event loop.
pub(crate) struct TxnMachine {
    exec: TxnExecution,
    last_activity: Instant,
    /// How long the machine lets an open conversation sit idle before
    /// presuming the client gone and aborting. Deliberately the same horizon
    /// the participant janitor uses, so a vanished client frees resources
    /// everywhere on the same clock.
    horizon: Duration,
    state: MachineState,
    /// Set by [`TxnMachine::retire`]; the site loop reaps done machines at
    /// the end of the drain.
    done: bool,
}

impl TxnMachine {
    /// Opens the machine of a new conversation (and counts it with the
    /// history sink, which expects one record per conversation begun); its
    /// first command follows through [`TxnMachine::on_client_op`].
    pub(crate) fn open(
        cx: &Cx,
        txn: TxnId,
        ts: Timestamp,
        label: String,
        client: NodeId,
        request: u64,
    ) -> TxnMachine {
        if let Some(sink) = cx.shared.history.as_ref() {
            sink.begin();
        }
        let exec = TxnExecution {
            txn,
            ts,
            label,
            client,
            request,
            started: cx.now,
            trace_start: cx.shared.trace_now(),
            root_detail: None,
            reads: BTreeMap::new(),
            staged: Vec::new(),
            writes_per_site: BTreeMap::new(),
            touched: BTreeSet::new(),
            contacted: BTreeSet::new(),
            messages: 0,
            record_history: cx.shared.history.is_some(),
            observed: Vec::new(),
            installed: Vec::new(),
            spans: Vec::new(),
        };
        TxnMachine {
            exec,
            last_activity: cx.now,
            horizon: cx.shared.stack.janitor_horizon(),
            state: MachineState::Idle,
            done: false,
        }
    }

    /// True once the machine has nothing left to do and can be dropped.
    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// Takes the state out for a transition, leaving `Idle` behind.
    fn take_state(&mut self) -> MachineState {
        std::mem::replace(&mut self.state, MachineState::Idle)
    }

    /// Routes one protocol message into the machine. Messages that do not
    /// fit the current state are stale leftovers of an earlier operation
    /// and are dropped.
    pub(crate) fn on_message(&mut self, cx: &mut Cx, from: NodeId, msg: Msg) {
        match (msg, from.as_site()) {
            (Msg::TxnOp { op, .. }, _) => {
                // Mid-operation pipelining is unsupported: a command is only
                // taken once the previous one has been answered.
                if matches!(self.state, MachineState::Idle) {
                    self.last_activity = cx.now;
                    self.on_client_op(cx, op);
                }
            }
            // Everything else a machine hears is a site's answer.
            (
                Msg::CopyReply {
                    item,
                    prewrite,
                    for_update,
                    result,
                    ..
                },
                Some(site),
            ) => self.on_copy_reply(cx, site, item, prewrite, for_update, result),
            (Msg::AcpVote { vote, .. }, Some(site)) => self.on_acp_reply(cx, |run| {
                if vote == Vote::No && run.abort_cause.is_none() {
                    run.abort_cause = Some(AbortCause::AcpVotedNo { participant: site });
                }
                run.coordinator.on_vote(site, vote)
            }),
            (Msg::AcpPreCommitAck { .. }, Some(site)) => {
                self.on_acp_reply(cx, |run| run.coordinator.on_precommit_ack(site))
            }
            (Msg::AcpAck { .. }, Some(site)) => {
                self.on_acp_reply(cx, |run| run.coordinator.on_ack(site))
            }
            _ => {}
        }
    }

    /// Executes the client's next command (state: Idle).
    pub(crate) fn on_client_op(&mut self, cx: &mut Cx, op: NextOp) {
        let op_start = cx.shared.trace_now();
        let (kind, items, access) = match op {
            NextOp::Read { item } => (OpKind::Read, vec![item], QuorumAccess::Read),
            NextOp::ReadMany { items } => (OpKind::ReadMany, items, QuorumAccess::Read),
            NextOp::Increment { item, delta } => (
                OpKind::Increment { delta },
                vec![item],
                QuorumAccess::ReadForUpdate,
            ),
            NextOp::BufferWrite { item, value } => {
                self.exec.staged.push(StagedWrite::Deferred { item, value });
                return reply_to_client(cx, &self.exec, OpReply::Buffered);
            }
            NextOp::Commit => {
                let staged = self.exec.staged.iter();
                let deferred: Vec<ItemId> = staged
                    .filter_map(|w| match w {
                        StagedWrite::Deferred { item, .. } => Some(item.clone()),
                        StagedWrite::Assembled { .. } => None,
                    })
                    .collect();
                (OpKind::CommitInstall, deferred, QuorumAccess::Write)
            }
            NextOp::Abort => return self.abort(cx, AbortCause::UserAbort),
        };
        self.begin_quorums(cx, kind, items, access, op_start);
    }

    /// Plans every item's quorum and queues all their copy accesses at once,
    /// transitioning into `MachineState::Quorums` — or straight through it
    /// when nothing has to be waited for (a commit without deferred writes,
    /// single-site placements whose plan needs no vote).
    fn begin_quorums(
        &mut self,
        cx: &mut Cx,
        kind: OpKind,
        items: Vec<ItemId>,
        access: QuorumAccess,
        op_start: u64,
    ) {
        let timeout = cx.shared.stack.quorum_timeout;
        let mut op = QuorumOp {
            kind,
            rounds: Vec::with_capacity(items.len()),
            items,
            hedge: Some(cx.now + timeout / 2),
            deadline: cx.now + timeout,
            op_start,
            fanout_start: cx.shared.trace_now(),
        };
        for item in &op.items {
            // A plan that is unsatisfiable from the start (e.g. a tree-quorum
            // write while the tree root is down plans zero targets) must
            // abort now, not when the deadline expires.
            let started =
                start_quorum(cx, &mut self.exec, item, access).and_then(
                    |collector| match collector.outcome() {
                        QuorumOutcome::Impossible => Err(collector.abort_cause()),
                        _ => Ok(collector),
                    },
                );
            let collector = match started {
                Ok(collector) => collector,
                Err(cause) => return self.quorum_op_failed(cx, op, cause),
            };
            let mut round = QuorumRound {
                item: item.clone(),
                access,
                collector,
                assembled: false,
                ccp_cause: None,
            };
            if round.collector.is_assembled() {
                self.round_assembled(cx.shared, &mut round, op.fanout_start);
            }
            op.rounds.push(round);
        }
        if op.rounds.iter().all(|r| r.assembled) {
            self.quorum_op_complete(cx, op);
        } else {
            self.state = MachineState::Quorums(op);
        }
    }

    /// Marks one round assembled, recording its span and — for reads — the
    /// `quorum-read` phase histogram entry.
    fn round_assembled(&mut self, shared: &SiteShared, round: &mut QuorumRound, fanout_start: u64) {
        round.assembled = true;
        let Some(tracer) = shared.tracer.as_ref() else {
            return;
        };
        let dur_us = tracer.now_us().saturating_sub(fanout_start);
        if round.access != QuorumAccess::Write {
            tracer.record_phase(Phase::QuorumRead, Duration::from_micros(dur_us));
        }
        let label = match round.access {
            QuorumAccess::Read => "quorum:read",
            QuorumAccess::Write => "quorum:write",
            QuorumAccess::ReadForUpdate => "quorum:read-for-update",
        };
        let responders = round.collector.responders().len();
        self.exec.spans.push(TraceEvent {
            txn: self.exec.txn,
            track: Track::Coordinator,
            label: label.to_string(),
            start_us: fanout_start,
            dur_us,
            detail: format!("{} ({responders} responders)", round.item),
        });
    }

    /// Feeds one `CopyReply` into the in-flight quorum fan-out.
    fn on_copy_reply(
        &mut self,
        cx: &mut Cx,
        site: SiteId,
        item: ItemId,
        prewrite: bool,
        for_update: bool,
        result: CopyAccessResult,
    ) {
        let mut op = match self.take_state() {
            MachineState::Quorums(op) => op,
            // A stale reply from an earlier operation.
            other => return self.state = other,
        };
        // Route the reply to the first still-pending round it can serve.
        // Duplicate items each sent their own requests, so reply counts line
        // up even when keys collide.
        let Some(index) = op
            .rounds
            .iter()
            .position(|r| r.matches(&item, prewrite, for_update, site))
        else {
            // Stale reply for an already-assembled quorum.
            self.state = MachineState::Quorums(op);
            return;
        };
        if site != cx.shared.id {
            cx.shared.net.counters().record_round_trip();
        }
        push_span(
            cx.shared,
            &mut self.exec,
            "quorum:leg",
            op.fanout_start,
            || format!("site{} {item}", site.0),
        );

        let round = &mut op.rounds[index];
        let outcome = match result {
            CopyAccessResult::Granted { value, version } => {
                // The responder holds CCP resources on our behalf from this
                // moment, whether or not its quorum ends up assembling.
                self.exec.touched.insert(site);
                round.collector.record_response(QuorumResponse {
                    site,
                    version,
                    value,
                })
            }
            CopyAccessResult::Denied(cause) => {
                // A deadlock victim gives its round up rather than ask a
                // spare: it still holds its other locks, so waiting at a
                // spare would close the cycle it was chosen to break again,
                // across sites, where only a lock timeout ends it.
                let victim = matches!(cause, AbortCause::CcpDeadlock { .. });
                round.ccp_cause.get_or_insert(cause);
                match round.collector.record_failure(site) {
                    QuorumOutcome::Pending if victim => QuorumOutcome::Impossible,
                    outcome => outcome,
                }
            }
            CopyAccessResult::NoSuchCopy => round.collector.record_failure(site),
        };
        match outcome {
            QuorumOutcome::Assembled => {
                self.round_assembled(cx.shared, round, op.fanout_start);
                if op.rounds.iter().all(|r| r.assembled) {
                    return self.quorum_op_complete(cx, op);
                }
            }
            QuorumOutcome::Impossible => {
                let cause = round.failure(|| round.collector.abort_cause());
                return self.quorum_op_failed(cx, op, cause);
            }
            // A failure that left the round short asks spares (the round
            // keeps its CCP cause for the abort it may still end in).
            QuorumOutcome::Pending => {
                let spares = round.collector.widen();
                ask_copies(cx, &mut self.exec, &round.item, round.access, spares);
            }
        }
        self.state = MachineState::Quorums(op);
    }

    /// Aborts the transaction because a quorum failed: the operation's
    /// span, then the abort fan-out and the answer to the client.
    fn quorum_op_failed(&mut self, cx: &mut Cx, op: QuorumOp, cause: AbortCause) {
        self.push_op_span(cx.shared, &op);
        self.abort(cx, cause);
    }

    /// Buffers the operation's coordinator span (`op:read`, `op:read-many`,
    /// `op:increment`, or `op:commit` when its write quorums failed).
    fn push_op_span(&mut self, shared: &SiteShared, op: &QuorumOp) {
        if shared.tracer.is_none() {
            return;
        }
        let (label, detail) = match op.kind {
            OpKind::Read => ("op:read", op.items[0].to_string()),
            OpKind::ReadMany => ("op:read-many", format!("{} items", op.items.len())),
            OpKind::Increment { .. } => ("op:increment", op.items[0].to_string()),
            OpKind::CommitInstall => ("op:commit", "aborted".to_string()),
        };
        push_span(shared, &mut self.exec, label, op.op_start, || detail);
    }

    /// Every quorum of the operation assembled: complete the client
    /// operation (observe values, stage writes, reply — or move into the
    /// commit protocol).
    fn quorum_op_complete(&mut self, cx: &mut Cx, op: QuorumOp) {
        if let OpKind::CommitInstall = op.kind {
            let collectors = op.rounds.into_iter().map(|r| r.collector);
            self.fold_staged(cx.shared, collectors);
            return self.start_acp(cx, op.op_start);
        }
        let reply = self.read_reply(cx.shared, &op);
        self.push_op_span(cx.shared, &op);
        match reply {
            Ok(reply) => reply_to_client(cx, &self.exec, reply),
            Err(cause) => self.abort(cx, cause),
        }
    }

    /// The answer to a reading operation whose quorums all assembled: every
    /// round's highest-versioned value, in request order. A read-modify-write
    /// (write access was taken up front, so no shared→exclusive upgrade is
    /// needed later) also stages its new value, in client order.
    fn read_reply(&mut self, shared: &SiteShared, op: &QuorumOp) -> Result<OpReply, AbortCause> {
        let mut values = Vec::with_capacity(op.rounds.len());
        for round in &op.rounds {
            let item = &round.item;
            let (value, version) = round
                .collector
                .latest_value()
                .ok_or_else(|| AbortCause::RcpTimeout { item: item.clone() })?;
            if let OpKind::Increment { delta } = op.kind {
                self.exec.staged.push(StagedWrite::Assembled {
                    item: item.clone(),
                    value: value.add_int(delta).ok_or(AbortCause::UserAbort)?,
                    sites: round.collector.responders(),
                    version: new_write_version(shared, &self.exec, &round.collector),
                });
            }
            self.exec.observe_read(item, &value, version);
            values.push((item.clone(), value));
        }
        Ok(match op.kind {
            OpKind::ReadMany => OpReply::Values { values },
            _ => {
                let (item, value) = values.pop().expect("a one-item operation has one round");
                OpReply::Value { item, value }
            }
        })
    }

    /// Folds the staged updates — in client order — into the per-site
    /// write sets the ACP will distribute. `collectors` are the assembled
    /// write quorums of the deferred writes, in the same order.
    fn fold_staged(
        &mut self,
        shared: &SiteShared,
        mut collectors: impl Iterator<Item = QuorumCollector>,
    ) {
        for staged in std::mem::take(&mut self.exec.staged) {
            match staged {
                StagedWrite::Deferred { item, value } => {
                    let collector = collectors.next().expect("one collector per deferred write");
                    let version = new_write_version(shared, &self.exec, &collector);
                    self.exec
                        .install_write(item, value, version, collector.responders());
                }
                StagedWrite::Assembled {
                    item,
                    value,
                    sites,
                    version,
                } => self.exec.install_write(item, value, version, sites),
            }
        }
    }

    /// Starts the atomic commit protocol over every touched site.
    fn start_acp(&mut self, cx: &mut Cx, op_start: u64) {
        let acp_start = cx.shared.trace_now();
        let exec = &mut self.exec;
        let mut coordinator =
            Coordinator::new(exec.txn, cx.shared.stack.acp, exec.touched.iter().copied());
        let action = coordinator.start();
        if let CoordinatorAction::Complete(decision) = action {
            // Nobody to run the protocol with: a transaction that touched
            // nothing commits trivially.
            cx.out.record_decision(exec.txn, decision);
            answer_client(cx, exec, decided_outcome(decision, &mut None));
            push_commit_span(cx.shared, exec, op_start, true);
            return self.retire(cx);
        }
        let run = AcpRun {
            coordinator,
            abort_cause: None,
            deadline: cx.now + cx.shared.stack.commit_timeout,
            acp_start,
            decision_start: None,
            op_start,
        };
        self.advance_acp(cx, run, action);
    }

    /// Feeds one vote or acknowledgement into the in-flight commit protocol
    /// (`event` hands it to the ACP coordinator).
    fn on_acp_reply(&mut self, cx: &mut Cx, event: impl FnOnce(&mut AcpRun) -> CoordinatorAction) {
        let mut run = match self.take_state() {
            MachineState::Committing(run) => run,
            // A stale vote or acknowledgement.
            other => return self.state = other,
        };
        let action = event(&mut run);
        self.advance_acp(cx, run, action);
    }

    /// Applies one coordinator action, refreshing phase deadlines and
    /// spans, and either completes the protocol or re-enters the
    /// `Committing` state.
    fn advance_acp(&mut self, cx: &mut Cx, mut run: AcpRun, action: CoordinatorAction) {
        // Phase transitions get a fresh timeout window.
        match action {
            CoordinatorAction::SendPreCommit(_) | CoordinatorAction::SendDecision(..) => {
                run.deadline = cx.now + cx.shared.stack.commit_timeout;
            }
            _ => {}
        }
        if matches!(action, CoordinatorAction::SendDecision(..)) {
            let n = run.coordinator.participants().len();
            let detail = || format!("{n} participants");
            push_span(
                cx.shared,
                &mut self.exec,
                "acp:prepare",
                run.acp_start,
                detail,
            );
            run.decision_start = Some(cx.shared.trace_now());
        }
        perform_action(cx, &mut self.exec, action, &mut run.abort_cause);
        if run.coordinator.state() != CoordinatorState::Completed {
            self.state = MachineState::Committing(run);
            return;
        }
        // Every acknowledgement is in (or timed out); the client was
        // answered at the decision. Close the spans and retire.
        let decision = run.coordinator.decision();
        if let Some(start) = run.decision_start {
            push_span(cx.shared, &mut self.exec, "acp:decision", start, || {
                format!("{decision:?}")
            });
        }
        let committed = decision == Some(Decision::Commit);
        push_commit_span(cx.shared, &mut self.exec, run.op_start, committed);
        self.retire(cx);
    }

    /// When the machine's current state times out (or, assembling quorums,
    /// hedges).
    fn due(&self) -> Instant {
        match &self.state {
            MachineState::Idle => self.last_activity + self.horizon,
            MachineState::Quorums(op) => op.hedge.unwrap_or(op.deadline),
            MachineState::Committing(run) => run.deadline,
        }
    }

    /// Deadline scan, run at the end of every drain of the site loop: acts
    /// on a deadline that has passed, and returns when the machine is next
    /// due (`None` once it is done).
    pub(crate) fn on_tick(&mut self, cx: &mut Cx) -> Option<Instant> {
        if self.done || cx.now < self.due() {
            return (!self.done).then(|| self.due());
        }
        match self.take_state() {
            // The client went quiet past the janitor horizon: presume it
            // gone and free resources everywhere on the same clock the
            // participant janitor uses.
            MachineState::Idle => self.abort(cx, AbortCause::ClientTimeout),
            // Halfway to the deadline: a contacted copy is slow, so every
            // round still short asks all its spares, once.
            MachineState::Quorums(mut op) if cx.now < op.deadline => {
                op.hedge = None;
                for round in op.rounds.iter_mut().filter(|r| !r.assembled) {
                    let spares = round.collector.widen_to_all();
                    ask_copies(cx, &mut self.exec, &round.item, round.access, spares);
                }
                self.state = MachineState::Quorums(op);
            }
            MachineState::Quorums(op) => {
                let slowest = op.rounds.iter().find(|r| !r.assembled);
                let slowest = slowest.expect("an unassembled round on expiry");
                let cause = slowest.failure(|| AbortCause::RcpTimeout {
                    item: slowest.item.clone(),
                });
                self.quorum_op_failed(cx, op, cause);
            }
            MachineState::Committing(mut run) => {
                if run.abort_cause.is_none() {
                    run.abort_cause = Some(AbortCause::AcpTimeout {
                        phase: timed_out_phase(run.coordinator.state()),
                    });
                }
                let action = run.coordinator.on_timeout();
                self.advance_acp(cx, run, action);
            }
        }
        (!self.done).then(|| self.due())
    }

    /// Site shutdown with the machine still alive: an open conversation is
    /// aborted everywhere and told of the site failure; one that was
    /// already answered and only collecting acknowledgements retires.
    pub(crate) fn fail_site_down(&mut self, cx: &mut Cx) {
        if self.done {
            return;
        }
        let answered = matches!(&self.state, MachineState::Committing(run) if run.coordinator.decision().is_some());
        if answered {
            self.retire(cx);
        } else {
            self.abort(cx, AbortCause::SiteFailure { site: cx.shared.id });
        }
    }

    /// Ends the transaction before any decision: abort fan-out and the
    /// answer to the client through the outbox, then nothing is left to
    /// wait for.
    fn abort(&mut self, cx: &mut Cx, cause: AbortCause) {
        abort_everywhere(cx, &mut self.exec, cause);
        self.retire(cx);
    }

    /// The coordinator is done with the transaction — the client was
    /// answered and no acknowledgement is awaited any more: closes the root
    /// span and hands the buffered spans to the tracer. The site reaps the
    /// machine.
    fn retire(&mut self, cx: &mut Cx) {
        self.done = true;
        self.state = MachineState::Idle;
        let exec = &mut self.exec;
        if let Some(tracer) = cx.shared.tracer.as_ref() {
            let mut spans = std::mem::take(&mut exec.spans);
            spans.push(TraceEvent {
                txn: exec.txn,
                track: Track::Coordinator,
                label: "txn".to_string(),
                start_us: exec.trace_start,
                dur_us: tracer.now_us().saturating_sub(exec.trace_start),
                detail: exec.root_detail.take().unwrap_or_default(),
            });
            tracer.finish_txn(exec.txn, cx.now.duration_since(exec.started), spans);
        }
    }
}

// ----------------------------------------------------------------------
// The steps every outcome goes through
// ----------------------------------------------------------------------

/// Answers a command that leaves the transaction open.
fn reply_to_client(cx: &mut Cx, exec: &TxnExecution, reply: OpReply) {
    let (request, txn) = (exec.request, exec.txn);
    let reply = Msg::TxnOpReply {
        request,
        txn,
        reply,
    };
    cx.out.outbox.push(exec.client, reply);
}

/// Buffers the `op:commit` span.
fn push_commit_span(shared: &SiteShared, exec: &mut TxnExecution, op_start: u64, committed: bool) {
    push_span(shared, exec, "op:commit", op_start, || {
        if committed { "committed" } else { "aborted" }.to_string()
    });
}

/// What the ACP phase that just timed out is called in an abort cause.
fn timed_out_phase(state: CoordinatorState) -> String {
    match state {
        CoordinatorState::CollectingVotes => "prepare",
        CoordinatorState::CollectingPreCommitAcks => "pre-commit",
        _ => "ack",
    }
    .into()
}

/// The outcome a decision means for the client; an abort carries the cause
/// the protocol run noted (a NO vote, the phase that timed out).
fn decided_outcome(decision: Decision, abort_cause: &mut Option<AbortCause>) -> TxnOutcome {
    match decision {
        Decision::Commit => TxnOutcome::Committed,
        Decision::Abort => {
            TxnOutcome::Aborted(abort_cause.take().unwrap_or(AbortCause::AcpTimeout {
                phase: "prepare".into(),
            }))
        }
    }
}

/// Performs one action of the ACP coordinator.
///
/// `SendDecision` is the **decision point**, in this order and no other:
/// the decision goes on the coordinator's record, the `AcpDecision`s (and
/// the release notices for sites that are not participants) are queued, the
/// history entry is written, and only then is the client's `TxnDone` queued
/// — in the same outbox, whose flush sends every site-bound envelope before
/// any client-bound message, so the answer cannot overtake the decisions.
/// Acknowledgements arriving afterwards change nothing the client was told.
fn perform_action(
    cx: &mut Cx,
    exec: &mut TxnExecution,
    action: CoordinatorAction,
    abort_cause: &mut Option<AbortCause>,
) {
    let (txn, ts) = (exec.txn, exec.ts);
    match action {
        CoordinatorAction::SendPrepare(targets) => {
            // Each participant's write set is sent once; move it out.
            let mut writes = std::mem::take(&mut exec.writes_per_site);
            send_to_sites(cx, exec, targets, |target| Msg::AcpPrepare {
                txn,
                ts,
                writes: writes.remove(&target).unwrap_or_default(),
            });
        }
        CoordinatorAction::SendPreCommit(targets) => {
            send_to_sites(cx, exec, targets, |_| Msg::AcpPreCommit { txn });
        }
        CoordinatorAction::SendDecision(decision, targets) => {
            cx.out.record_decision(txn, decision);
            send_to_sites(cx, exec, targets, |_| Msg::AcpDecision { txn, decision });
            release_stragglers(cx, exec);
            answer_client(cx, exec, decided_outcome(decision, abort_cause));
        }
        // All acknowledgements are in (the trivial commit without
        // participants never gets here, see `TxnMachine::start_acp`).
        CoordinatorAction::Complete(_) | CoordinatorAction::Wait => {}
    }
}

/// Queues one protocol message for each of `targets`, counting the remote
/// ones towards the transaction's message cost (the home's own copy is
/// free, as in the paper's accounting: the home's loop steps it in place).
fn send_to_sites(
    cx: &mut Cx,
    exec: &mut TxnExecution,
    targets: impl IntoIterator<Item = SiteId>,
    mut msg: impl FnMut(SiteId) -> Msg,
) {
    for target in targets {
        cx.out.outbox.push(NodeId::Site(target), msg(target));
        if target != cx.shared.id {
            exec.messages += 1;
        }
    }
}

/// Sends a release notice (an abort decision) to every site that was
/// contacted but is not a commit-protocol participant. Such a site may have
/// granted a copy access *after* the quorum was already assembled (or after
/// it became impossible); it holds locks for this transaction but will never
/// hear from the commit protocol, so it is told to drop them — together with
/// the decision, before the client is answered, so that the client's next
/// transaction finds them released. Aborting at a non-participant is always
/// safe: the site has no staged writes for this transaction.
fn release_stragglers(cx: &mut Cx, exec: &mut TxnExecution) {
    let txn = exec.txn;
    let stragglers: Vec<SiteId> = exec.contacted.difference(&exec.touched).copied().collect();
    send_to_sites(cx, exec, stragglers, |_| Msg::AcpDecision {
        txn,
        decision: Decision::Abort,
    });
}

/// Ends a transaction that fails before the commit protocol decides (a
/// failed operation, a user abort, a vanished client, a site going down):
/// the abort goes on the coordinator's record, every site holding anything
/// for the transaction is told to release it and discard staged state —
/// fire and forget — and the client is answered.
fn abort_everywhere(cx: &mut Cx, exec: &mut TxnExecution, cause: AbortCause) {
    let txn = exec.txn;
    cx.out.record_decision(txn, Decision::Abort);
    let touched: Vec<SiteId> = exec.touched.iter().copied().collect();
    send_to_sites(cx, exec, touched, |_| Msg::AcpDecision {
        txn,
        decision: Decision::Abort,
    });
    release_stragglers(cx, exec);
    answer_client(cx, exec, TxnOutcome::Aborted(cause));
}

/// Tells the client how its transaction ended — after writing the history
/// entry, and through the outbox, behind whatever decisions were queued in
/// it. Every outcome passes through here exactly once, always after
/// [`Effects::record_decision`].
fn answer_client(cx: &mut Cx, exec: &mut TxnExecution, outcome: TxnOutcome) {
    // The coordinator is the authoritative observer: it records the real
    // outcome even when the driving client timed out and reported an
    // orphan. Spec replay and interactive conversations both run through
    // this single path, so their histories are identical by construction.
    if let Some(sink) = cx.shared.history.as_ref() {
        sink.record(TxnRecord {
            txn: exec.txn,
            label: exec.label.clone(),
            reads: std::mem::take(&mut exec.observed),
            writes: std::mem::take(&mut exec.installed),
            outcome: outcome.clone(),
            completion_seq: 0,
        });
    }
    if cx.shared.tracer.is_some() {
        exec.root_detail = Some(format!("{}: {:?}", exec.label, outcome));
    }
    let result = TxnResult {
        id: exec.txn,
        label: std::mem::take(&mut exec.label),
        outcome,
        reads: std::mem::take(&mut exec.reads),
        response_time: cx.now.duration_since(exec.started),
        restarts: 0,
        messages: exec.messages,
    };
    cx.out.outbox.push(
        exec.client,
        Msg::TxnDone {
            request: exec.request,
            result: Box::new(result),
            clock: exec.ts.counter,
        },
    );
}
