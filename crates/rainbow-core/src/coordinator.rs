//! The home-site transaction manager (coordinator worker).
//!
//! One of the home site's reused workers drives each transaction through
//! the flow of Section 2.1 of the paper — but as an **op-driven state
//! machine**: the coordinator learns the transaction one command at a time
//! from the client's interactive handle (first command → read/write/
//! increment → commit/abort) instead of iterating a pre-declared operation
//! list. Each command flows through the layers:
//!
//! 1. the RCP builds a read or write quorum **per operation**, contacting
//!    copy-holder sites whose CCP arbitrates each copy access — reads run
//!    immediately and return the observed value mid-transaction, plain
//!    writes are buffered and their quorums run at commit;
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
//! The conversation opens with its first command (the site allocates the id
//! and runs the command in one trip), and the client is answered **at the
//! decision**: once the decision is on the coordinator's record
//! (`SiteShared::record_decision`) and the `AcpDecision`s are on their
//! way, no acknowledgement can change the outcome, so `TxnDone` leaves right
//! behind them. Participants still hold every lock and pre-write until the
//! decision reaches them; the coordinator keeps collecting `AcpAck`s only to
//! retire its own state. The steps every outcome goes through —
//! `perform_action` at the decision, `abort_everywhere` before one,
//! `answer_client`, `retire` — are shared with the reactor coordinator.
//!
//! One-shot `TxnSpec` submission is a *client-side* adapter replaying the
//! spec through this same conversation; there is no second execution path.

pub(crate) mod reactor;

use crate::messages::{CopyAccessResult, Msg, NextOp, OpReply};
use crate::site::SiteShared;
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError};
use rainbow_commit::{Coordinator, CoordinatorAction, CoordinatorState, Decision, Vote};
use rainbow_common::history::{ReadObservation, TxnRecord, WriteRecord};
use rainbow_common::txn::{AbortCause, TxnOutcome, TxnResult};
use rainbow_common::{ItemId, SiteId, Timestamp, TxnId, Value, Version};
use rainbow_net::{Envelope, NodeId};
use rainbow_replication::{QuorumCollector, QuorumOutcome, QuorumResponse};
use rainbow_trace::{Phase, TraceEvent, Track};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// resources and must see the final decision).
    touched: BTreeSet<SiteId>,
    /// Every site the transaction *contacted* (quorum targets), whether or
    /// not it answered in time. Contacted-but-untouched sites may have
    /// granted a lock after the quorum was already assembled; they receive a
    /// release notice when the transaction finishes so their resources do
    /// not linger until the janitor.
    contacted: BTreeSet<SiteId>,
    /// Messages sent on behalf of this transaction (remote only; loopback is
    /// free, as in the paper's message accounting; client conversation round
    /// trips are excluded, like `SubmitTxn` round trips were).
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
    /// Opens a conversation's state at its home site (and counts it with
    /// the history sink, which expects one record per conversation begun).
    fn open(
        shared: &SiteShared,
        txn: TxnId,
        ts: Timestamp,
        label: String,
        client: NodeId,
        request: u64,
    ) -> Self {
        if let Some(sink) = shared.history.as_ref() {
            sink.begin();
        }
        TxnExecution {
            txn,
            ts,
            label,
            client,
            request,
            started: Instant::now(),
            trace_start: trace_now(shared),
            root_detail: None,
            reads: BTreeMap::new(),
            staged: Vec::new(),
            writes_per_site: BTreeMap::new(),
            touched: BTreeSet::new(),
            contacted: BTreeSet::new(),
            messages: 0,
            record_history: shared.history.is_some(),
            observed: Vec::new(),
            installed: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Records one read observation (history recording only).
    fn observe_read(&mut self, item: &ItemId, value: &Value, version: Version) {
        if self.record_history {
            self.observed.push(ReadObservation {
                item: item.clone(),
                value: value.clone(),
                version,
            });
        }
    }

    /// Records one installed write (history recording only).
    fn observe_write(&mut self, item: &ItemId, value: &Value, version: Version) {
        if self.record_history {
            self.installed.push(WriteRecord {
                item: item.clone(),
                value: value.clone(),
                version,
            });
        }
    }
}

/// Tracer clock, or 0 when tracing is off (every span built from it is
/// discarded unconditionally in that case).
fn trace_now(shared: &SiteShared) -> u64 {
    shared.tracer.as_ref().map_or(0, |t| t.now_us())
}

/// Buffers one coordinator-side span ending now. No-op without a tracer;
/// the detail is a closure so untraced runs never pay for formatting.
fn push_span(
    shared: &SiteShared,
    exec: &mut TxnExecution,
    track: Track,
    label: &str,
    start_us: u64,
    detail: impl FnOnce() -> String,
) {
    if let Some(tracer) = shared.tracer.as_ref() {
        let dur_us = tracer.now_us().saturating_sub(start_us);
        exec.spans.push(TraceEvent {
            txn: exec.txn,
            track,
            label: label.to_string(),
            start_us,
            dur_us,
            detail: detail(),
        });
    }
}

/// Records the span + phase histogram entry for one assembled quorum.
/// Write quorums get a span but no `quorum-read` histogram entry.
fn finish_quorum_span(
    shared: &SiteShared,
    exec: &mut TxnExecution,
    access: QuorumAccess,
    item: &ItemId,
    start_us: u64,
    responders: usize,
) {
    let Some(tracer) = shared.tracer.as_ref() else {
        return;
    };
    let dur_us = tracer.now_us().saturating_sub(start_us);
    if access != QuorumAccess::Write {
        tracer.record_phase(Phase::QuorumRead, Duration::from_micros(dur_us));
    }
    let label = match access {
        QuorumAccess::Read => "quorum:read",
        QuorumAccess::Write => "quorum:write",
        QuorumAccess::ReadForUpdate => "quorum:read-for-update",
    };
    exec.spans.push(TraceEvent {
        txn: exec.txn,
        track: Track::Coordinator,
        label: label.to_string(),
        start_us,
        dur_us,
        detail: format!("{item} ({responders} responders)"),
    });
}

/// A `send` for the steps shared with the reactor: straight onto the
/// network, as the threads coordinator sends everything.
fn direct(shared: &SiteShared) -> impl FnMut(NodeId, Msg) + '_ {
    |to, msg| shared.send(to, msg)
}

/// The job a site worker runs for one transaction: names it, executes the
/// first command (which arrived with the begin) and then every further one
/// until the client commits or aborts (or the conversation idles out). The
/// client is answered from inside — at the decision, or when an abort is
/// distributed; what follows here is only the coordinator retiring.
pub(crate) fn run_interactive(
    shared: Arc<SiteShared>,
    label: String,
    client: NodeId,
    request: u64,
    first: NextOp,
) {
    let txn = TxnId::new(
        shared.id,
        shared
            .txn_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
    );
    let ts = shared.clock.next();
    let (reply_tx, reply_rx) = unbounded();
    // Register before the first reply names the transaction to the client,
    // so its next command cannot outrun the routing entry.
    shared.register_reply_channel(txn, reply_tx);
    let mut exec = TxnExecution::open(&shared, txn, ts, label, client, request);
    drive_conversation(&shared, &mut exec, &reply_rx, first);
    shared.unregister_reply_channel(txn);
    retire(&shared, &mut exec);
}

/// The conversation loop: executes the command in hand, then waits for the
/// client's next one — until a terminal command (commit/abort), an operation
/// failure, or the idle horizon ends the transaction. Returns once the
/// client has been answered and, after a commit protocol, the
/// acknowledgements are in (or timed out).
fn drive_conversation(
    shared: &Arc<SiteShared>,
    exec: &mut TxnExecution,
    replies: &Receiver<Envelope<Msg>>,
    first: NextOp,
) {
    // How long the coordinator lets an open conversation sit idle before
    // presuming the client gone and aborting. Deliberately the same horizon
    // the participant janitor uses, so a vanished client frees resources
    // everywhere on the same clock.
    let horizon = shared.stack.janitor_horizon();
    let mut op = first;
    loop {
        if execute_op(shared, exec, replies, op) {
            return;
        }
        let last_activity = Instant::now();
        op = loop {
            let site_down = AbortCause::SiteFailure { site: shared.id };
            if shared.shutdown.load(std::sync::atomic::Ordering::Relaxed) {
                return abort_everywhere(shared, exec, site_down, &mut direct(shared));
            }
            if last_activity.elapsed() >= horizon {
                let cause = AbortCause::ClientTimeout;
                return abort_everywhere(shared, exec, cause, &mut direct(shared));
            }
            match replies.recv_timeout(Duration::from_millis(50)) {
                Ok(Envelope {
                    payload: Msg::TxnOp { op, .. },
                    ..
                }) => break op,
                // Stale quorum replies / votes from an earlier operation.
                Ok(_) | Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    return abort_everywhere(shared, exec, site_down, &mut direct(shared));
                }
            }
        };
    }
}

/// Answers a command that leaves the transaction open. Always sent
/// directly, by both coordinators: the client is waiting for exactly this.
fn reply_to_client(shared: &SiteShared, exec: &TxnExecution, reply: OpReply) {
    shared.send(
        exec.client,
        Msg::TxnOpReply {
            request: exec.request,
            txn: exec.txn,
            reply,
        },
    );
}

/// Executes one client command. Returns true when it ended the transaction
/// (the client has then been answered with its `TxnDone`).
fn execute_op(
    shared: &Arc<SiteShared>,
    exec: &mut TxnExecution,
    replies: &Receiver<Envelope<Msg>>,
    op: NextOp,
) -> bool {
    let op_start = trace_now(shared);
    // Span details are only worth formatting when somebody records them.
    let traced = |detail: &dyn Fn() -> String| shared.tracer.as_ref().map(|_| detail());
    // The three quorum-driven operations differ in what they run and what
    // their span says; success replies, failure aborts everywhere.
    let (span, detail, result) = match op {
        NextOp::Read { item } => {
            let res = single_quorum(shared, exec, replies, &item, QuorumAccess::Read).and_then(
                |collector| {
                    collector
                        .latest_value()
                        .ok_or_else(|| AbortCause::RcpTimeout { item: item.clone() })
                },
            );
            let detail = traced(&|| item.to_string());
            let reply = res.map(|(value, version)| {
                exec.observe_read(&item, &value, version);
                exec.reads.insert(item.clone(), value.clone());
                OpReply::Value { item, value }
            });
            ("op:read", detail, reply)
        }
        NextOp::ReadMany { items } => {
            let reply =
                read_many(shared, exec, replies, &items).map(|values| OpReply::Values { values });
            let detail = traced(&|| format!("{} items", items.len()));
            ("op:read-many", detail, reply)
        }
        NextOp::Increment { item, delta } => {
            let res = interactive_increment(shared, exec, replies, &item, delta);
            let detail = traced(&|| item.to_string());
            let reply = res.map(|value| OpReply::Value { item, value });
            ("op:increment", detail, reply)
        }
        NextOp::BufferWrite { item, value } => {
            exec.staged.push(StagedWrite::Deferred { item, value });
            reply_to_client(shared, exec, OpReply::Buffered);
            return false;
        }
        NextOp::Commit => {
            let committed = match install_staged_writes(shared, exec, replies) {
                Ok(()) => run_commit_protocol(shared, exec, replies),
                Err(cause) => {
                    abort_everywhere(shared, exec, cause, &mut direct(shared));
                    false
                }
            };
            push_commit_span(shared, exec, op_start, committed);
            return true;
        }
        NextOp::Abort => {
            abort_everywhere(shared, exec, AbortCause::UserAbort, &mut direct(shared));
            return true;
        }
    };
    push_span(shared, exec, Track::Coordinator, span, op_start, || {
        detail.unwrap_or_default()
    });
    match result {
        Ok(reply) => {
            reply_to_client(shared, exec, reply);
            false
        }
        Err(cause) => {
            abort_everywhere(shared, exec, cause, &mut direct(shared));
            true
        }
    }
}

/// Executes a batched multi-get: the read quorums of every item assemble
/// under the configured fan-out strategy (parallel by default, so the
/// batch's RCP latency is the slowest quorum instead of the sum), and the
/// observed values come back in request order.
fn read_many(
    shared: &Arc<SiteShared>,
    exec: &mut TxnExecution,
    replies: &Receiver<Envelope<Msg>>,
    items: &[ItemId],
) -> Result<Vec<(ItemId, Value)>, AbortCause> {
    let collectors: Vec<QuorumCollector> = if shared.stack.parallel_quorums && items.len() > 1 {
        assemble_quorums_parallel(shared, exec, replies, items, QuorumAccess::Read)?
    } else {
        let mut collectors = Vec::with_capacity(items.len());
        for item in items {
            collectors.push(single_quorum(
                shared,
                exec,
                replies,
                item,
                QuorumAccess::Read,
            )?);
        }
        collectors
    };
    let mut values = Vec::with_capacity(items.len());
    for (item, collector) in items.iter().zip(collectors) {
        let (value, version) = collector
            .latest_value()
            .ok_or_else(|| AbortCause::RcpTimeout { item: item.clone() })?;
        exec.observe_read(item, &value, version);
        exec.reads.insert(item.clone(), value.clone());
        values.push((item.clone(), value));
    }
    Ok(values)
}

/// Executes a read-modify-write: one read-for-update quorum (write access up
/// front, so no shared→exclusive upgrade is needed later), the new value
/// staged in client order, the observed value returned.
fn interactive_increment(
    shared: &Arc<SiteShared>,
    exec: &mut TxnExecution,
    replies: &Receiver<Envelope<Msg>>,
    item: &ItemId,
    delta: i64,
) -> Result<Value, AbortCause> {
    let collector = single_quorum(shared, exec, replies, item, QuorumAccess::ReadForUpdate)?;
    let (current, observed_version) = collector
        .latest_value()
        .ok_or_else(|| AbortCause::RcpTimeout { item: item.clone() })?;
    let new_value = current.add_int(delta).ok_or(AbortCause::UserAbort)?;
    exec.observe_read(item, &current, observed_version);
    exec.reads.insert(item.clone(), current.clone());
    let version = new_write_version(shared, exec, &collector);
    exec.staged.push(StagedWrite::Assembled {
        item: item.clone(),
        value: new_value,
        sites: collector.responders(),
        version,
    });
    Ok(current)
}

/// Runs the write quorums of every deferred write (fan-out strategy below)
/// and folds the staged updates — in client order — into the per-site write
/// sets the ACP will distribute.
///
/// Two fan-out strategies exist, controlled by the protocol-stack knob
/// `parallel_quorums`. The default **parallel fan-out** sends the copy
/// accesses of *all* deferred writes up front and drains replies under one
/// deadline, so the commit's RCP latency is the slowest quorum instead of
/// the sum of all quorums. The **sequential** path assembles one quorum at
/// a time, exactly as the paper describes the RCP loop; it is kept both as
/// an experiment baseline and as a differential-testing oracle.
fn install_staged_writes(
    shared: &Arc<SiteShared>,
    exec: &mut TxnExecution,
    replies: &Receiver<Envelope<Msg>>,
) -> Result<(), AbortCause> {
    let deferred: Vec<ItemId> = exec
        .staged
        .iter()
        .filter_map(|w| match w {
            StagedWrite::Deferred { item, .. } => Some(item.clone()),
            StagedWrite::Assembled { .. } => None,
        })
        .collect();

    let collectors: Vec<QuorumCollector> = if deferred.is_empty() {
        Vec::new()
    } else if shared.stack.parallel_quorums && deferred.len() > 1 {
        assemble_quorums_parallel(shared, exec, replies, &deferred, QuorumAccess::Write)?
    } else {
        let mut collectors = Vec::with_capacity(deferred.len());
        for item in &deferred {
            collectors.push(single_quorum(
                shared,
                exec,
                replies,
                item,
                QuorumAccess::Write,
            )?);
        }
        collectors
    };

    let mut next_collector = collectors.into_iter();
    for staged in std::mem::take(&mut exec.staged) {
        match staged {
            StagedWrite::Deferred { item, value } => {
                let collector = next_collector
                    .next()
                    .expect("one collector per deferred write");
                let version = new_write_version(shared, exec, &collector);
                exec.observe_write(&item, &value, version);
                for site in collector.responders() {
                    exec.writes_per_site.entry(site).or_default().push((
                        item.clone(),
                        value.clone(),
                        version,
                    ));
                }
            }
            StagedWrite::Assembled {
                item,
                value,
                sites,
                version,
            } => {
                exec.observe_write(&item, &value, version);
                for site in sites {
                    exec.writes_per_site.entry(site).or_default().push((
                        item.clone(),
                        value.clone(),
                        version,
                    ));
                }
            }
        }
    }
    Ok(())
}

/// One quorum being assembled during parallel fan-out.
struct QuorumRound {
    item: ItemId,
    access: QuorumAccess,
    collector: QuorumCollector,
    assembled: bool,
    /// First CCP denial observed by *this* round (abort causes must stay
    /// per-quorum so layer attribution matches the sequential path).
    ccp_cause: Option<AbortCause>,
}

impl QuorumRound {
    /// Whether an incoming `CopyReply` from `site` belongs to this round:
    /// the item and the exact access kind must match, the site must be one
    /// this round actually contacted, and the round must not have heard
    /// from the site yet. The last rule makes duplicate operations on the
    /// same item each collect their own copy of every site's answer instead
    /// of the first round swallowing all of them; the target rule keeps a
    /// wider quorum's replies (e.g. a write fan-out) from being absorbed by
    /// a narrower one on the same item (e.g. a one-site ROWA read whose
    /// vote map nevertheless lists every holder).
    fn matches(&self, item: &ItemId, prewrite: bool, for_update: bool, site: SiteId) -> bool {
        !self.assembled
            && self.item == *item
            && (self.access == QuorumAccess::Write) == prewrite
            && (self.access == QuorumAccess::ReadForUpdate) == for_update
            && self.collector.is_target(site)
            && !self.collector.has_response(site)
            && !self.collector.has_failure(site)
    }
}

/// Parallel fan-out over a batch of same-kind quorums (a `ReadMany` batch
/// or the deferred writes at commit): send the copy accesses of every
/// quorum first, then drain replies for all of them under a single
/// deadline. Returns the assembled collectors in input order.
fn assemble_quorums_parallel(
    shared: &Arc<SiteShared>,
    exec: &mut TxnExecution,
    replies: &Receiver<Envelope<Msg>>,
    items: &[ItemId],
    access: QuorumAccess,
) -> Result<Vec<QuorumCollector>, AbortCause> {
    // Phase 1: plan and send everything.
    let fanout_start = trace_now(shared);
    let mut rounds: Vec<QuorumRound> = Vec::with_capacity(items.len());
    for item in items {
        let collector = start_quorum(shared, exec, item, access, &mut |site, msg| {
            shared.send(NodeId::Site(site), msg)
        })?;
        // A plan that is unsatisfiable from the start (e.g. a tree-quorum
        // write while the tree root is down plans zero targets) must abort
        // now, not after the fan-out deadline expires.
        if collector.outcome() == QuorumOutcome::Impossible {
            return Err(collector.abort_cause());
        }
        let assembled = collector.is_assembled();
        if assembled {
            let responders = collector.responders().len();
            finish_quorum_span(shared, exec, access, item, fanout_start, responders);
        }
        rounds.push(QuorumRound {
            item: item.clone(),
            access,
            collector,
            assembled,
            ccp_cause: None,
        });
    }

    // Phase 2: one deadline for the whole fan-out.
    let deadline = Instant::now() + shared.stack.quorum_timeout;
    let mut outstanding = rounds.iter().filter(|r| !r.assembled).count();

    while outstanding > 0 {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            let slowest = rounds
                .iter()
                .find(|r| !r.assembled)
                .expect("outstanding > 0");
            return Err(slowest.ccp_cause.clone().unwrap_or(AbortCause::RcpTimeout {
                item: slowest.item.clone(),
            }));
        }
        let envelope = match replies.recv_timeout(remaining) {
            Ok(envelope) => envelope,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => {
                return Err(AbortCause::SiteFailure { site: shared.id })
            }
        };
        let from = envelope.from;
        let Msg::CopyReply {
            item: reply_item,
            prewrite,
            for_update,
            result,
            ..
        } = envelope.payload
        else {
            // Late votes/acks from an earlier operation: ignore.
            continue;
        };
        let Some(site) = from.as_site() else { continue };
        // Route the reply to the first still-pending round it can serve.
        // Duplicate items each sent their own requests, so reply counts
        // line up even when keys collide.
        let Some(round) = rounds
            .iter_mut()
            .find(|r| r.matches(&reply_item, prewrite, for_update, site))
        else {
            continue; // stale reply for an already-assembled quorum
        };
        if from != shared.node {
            shared.net.counters().record_round_trip();
        }
        push_span(
            shared,
            exec,
            Track::Coordinator,
            "quorum:leg",
            fanout_start,
            || format!("site{} {reply_item}", site.0),
        );
        match result {
            CopyAccessResult::Granted { value, version } => {
                // The responder holds CCP resources on our behalf from this
                // moment, whether or not its quorum ends up assembling.
                exec.touched.insert(site);
                round.collector.record_response(QuorumResponse {
                    site,
                    version,
                    value,
                });
            }
            CopyAccessResult::Denied(cause) => {
                if round.ccp_cause.is_none() {
                    round.ccp_cause = Some(cause);
                }
                round.collector.record_failure(site);
            }
            CopyAccessResult::NoSuchCopy => {
                round.collector.record_failure(site);
            }
        }
        match round.collector.outcome() {
            QuorumOutcome::Assembled => {
                round.assembled = true;
                outstanding -= 1;
                let item = round.item.clone();
                let responders = round.collector.responders().len();
                finish_quorum_span(shared, exec, access, &item, fanout_start, responders);
            }
            QuorumOutcome::Impossible => {
                return Err(round
                    .ccp_cause
                    .clone()
                    .unwrap_or_else(|| round.collector.abort_cause()));
            }
            QuorumOutcome::Pending => {}
        }
    }

    // Every quorum assembled: all responders hold resources on our behalf.
    for round in &rounds {
        for site in round.collector.responders() {
            exec.touched.insert(site);
        }
    }
    Ok(rounds.into_iter().map(|r| r.collector).collect())
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
    shared: &Arc<SiteShared>,
    exec: &TxnExecution,
    collector: &QuorumCollector,
) -> Version {
    match shared.stack.ccp {
        rainbow_common::protocol::CcpKind::TwoPhaseLocking => collector.next_version(),
        rainbow_common::protocol::CcpKind::TimestampOrdering
        | rainbow_common::protocol::CcpKind::MultiversionTimestampOrdering => {
            // Encode (counter, site) into a single monotonic number; site ids
            // are far below 1024 in any Rainbow configuration.
            Version(exec.ts.counter * 1024 + u64::from(exec.ts.site % 1024))
        }
    }
}

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

/// Plans one quorum and sends its copy-access requests to every target
/// site, returning the collector the replies feed into. Shared by the
/// sequential and the parallel fan-out paths, and by the reactor (which
/// passes an outbox-queueing `send` so same-tick requests to one site
/// coalesce into a single envelope; the threads path sends directly).
fn start_quorum(
    shared: &Arc<SiteShared>,
    exec: &mut TxnExecution,
    item: &ItemId,
    access: QuorumAccess,
    send: &mut dyn FnMut(SiteId, Msg),
) -> Result<QuorumCollector, AbortCause> {
    let schema = shared.schema.read();
    let placement = match schema.replication.placement(item) {
        Some(p) => p.clone(),
        None => {
            return Err(AbortCause::RcpQuorumUnavailable {
                item: item.clone(),
                collected: 0,
                required: 0,
            })
        }
    };
    drop(schema);

    // The fault controller's live site-status view: the planners route
    // around (reads), shrink their write sets to (available copies, primary
    // copy) or degrade their quorum trees around (tree quorum) the sites
    // known to be down. Partitioned-but-alive sites are deliberately *not*
    // in this list — treating them as down would let write sets shrink on
    // both sides of a partition and diverge; instead they stay targets and
    // the quorum times out, aborting the transaction.
    let suspected_down: Vec<SiteId> = shared.net.faults().crashed_sites();
    let plan = match access {
        QuorumAccess::Read => {
            shared
                .rcp
                .plan_read(item, &placement, Some(shared.id), &suspected_down)
        }
        QuorumAccess::Write | QuorumAccess::ReadForUpdate => {
            shared.rcp.plan_write(item, &placement, &suspected_down)
        }
    };
    let targets = plan.targets.clone();
    let collector = plan.collector();

    for target in &targets {
        let msg = match access {
            QuorumAccess::Write => Msg::CopyPrewrite {
                txn: exec.txn,
                ts: exec.ts,
                item: item.clone(),
            },
            QuorumAccess::Read => Msg::CopyRead {
                txn: exec.txn,
                ts: exec.ts,
                item: item.clone(),
                for_update: false,
            },
            QuorumAccess::ReadForUpdate => Msg::CopyRead {
                txn: exec.txn,
                ts: exec.ts,
                item: item.clone(),
                for_update: true,
            },
        };
        send(*target, msg);
        exec.contacted.insert(*target);
        if *target != shared.id {
            exec.messages += 1;
        }
    }
    Ok(collector)
}

/// Sends the copy-access requests for one quorum and collects responses
/// until the quorum is assembled, impossible, or the quorum timeout expires.
fn single_quorum(
    shared: &Arc<SiteShared>,
    exec: &mut TxnExecution,
    replies: &Receiver<Envelope<Msg>>,
    item: &ItemId,
    access: QuorumAccess,
) -> Result<QuorumCollector, AbortCause> {
    // Only plain pre-writes come back flagged as pre-write replies;
    // read-for-update accesses reply like reads (they carry the value).
    let is_prewrite = access == QuorumAccess::Write;
    let fanout_start = trace_now(shared);
    let mut collector = start_quorum(shared, exec, item, access, &mut |site, msg| {
        shared.send(NodeId::Site(site), msg)
    })?;

    let deadline = Instant::now() + shared.stack.quorum_timeout;
    let mut first_ccp_cause: Option<AbortCause> = None;

    loop {
        match collector.outcome() {
            QuorumOutcome::Assembled => {
                // Every responder holds CCP resources on our behalf.
                for site in collector.responders() {
                    exec.touched.insert(site);
                }
                let responders = collector.responders().len();
                finish_quorum_span(shared, exec, access, item, fanout_start, responders);
                return Ok(collector);
            }
            QuorumOutcome::Impossible => {
                // Responders so far still hold resources and must be released
                // by the caller's abort path.
                for site in collector.responders() {
                    exec.touched.insert(site);
                }
                return Err(first_ccp_cause.unwrap_or_else(|| collector.abort_cause()));
            }
            QuorumOutcome::Pending => {}
        }

        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            for site in collector.responders() {
                exec.touched.insert(site);
            }
            return Err(first_ccp_cause.unwrap_or(AbortCause::RcpTimeout { item: item.clone() }));
        }
        match replies.recv_timeout(remaining) {
            Ok(envelope) => {
                let from_site = envelope.from.as_site();
                if let Msg::CopyReply {
                    item: reply_item,
                    prewrite,
                    for_update,
                    result,
                    ..
                } = envelope.payload
                {
                    if reply_item != *item
                        || prewrite != is_prewrite
                        || for_update != (access == QuorumAccess::ReadForUpdate)
                    {
                        continue; // stale reply from an earlier operation
                    }
                    let Some(site) = from_site else { continue };
                    if envelope.from != shared.node {
                        shared.net.counters().record_round_trip();
                    }
                    push_span(
                        shared,
                        exec,
                        Track::Coordinator,
                        "quorum:leg",
                        fanout_start,
                        || format!("site{} {reply_item}", site.0),
                    );
                    match result {
                        CopyAccessResult::Granted { value, version } => {
                            collector.record_response(QuorumResponse {
                                site,
                                version,
                                value,
                            });
                        }
                        CopyAccessResult::Denied(cause) => {
                            if first_ccp_cause.is_none() {
                                first_ccp_cause = Some(cause);
                            }
                            collector.record_failure(site);
                        }
                        CopyAccessResult::NoSuchCopy => {
                            collector.record_failure(site);
                        }
                    }
                }
                // Other message kinds (late votes/acks from a previous
                // operation set) are ignored.
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => {
                return Err(AbortCause::SiteFailure { site: shared.id })
            }
        }
    }
}

/// Buffers the `op:commit` span.
fn push_commit_span(shared: &SiteShared, exec: &mut TxnExecution, op_start: u64, committed: bool) {
    push_span(
        shared,
        exec,
        Track::Coordinator,
        "op:commit",
        op_start,
        || if committed { "committed" } else { "aborted" }.to_string(),
    );
}

/// Creates the ACP coordinator over every touched site and starts it,
/// returning it with its first action. `None` when there is nobody to run
/// the protocol with: a transaction that touched nothing commits trivially,
/// and the client has been answered.
fn start_acp(
    shared: &SiteShared,
    exec: &mut TxnExecution,
    send: &mut dyn FnMut(NodeId, Msg),
) -> Option<(Coordinator, CoordinatorAction)> {
    let mut coordinator =
        Coordinator::new(exec.txn, shared.stack.acp, exec.touched.iter().copied());
    match coordinator.start() {
        CoordinatorAction::Complete(decision) => {
            shared.record_decision(exec.txn, decision);
            answer_client(shared, exec, decided_outcome(decision, &mut None), send);
            None
        }
        action => Some((coordinator, action)),
    }
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

/// Runs the atomic commit protocol over every touched site: the client is
/// answered the moment the decision is made, and the function returns —
/// whether that decision was commit — once every acknowledgement is in or
/// has timed out.
fn run_commit_protocol(
    shared: &Arc<SiteShared>,
    exec: &mut TxnExecution,
    replies: &Receiver<Envelope<Msg>>,
) -> bool {
    let acp_start = trace_now(shared);
    let send = &mut direct(shared);
    let Some((mut coordinator, action)) = start_acp(shared, exec, send) else {
        return true;
    };
    let mut abort_cause: Option<AbortCause> = None;
    // Set when the decision goes out: closes the voting span, opens the
    // decision-distribution span.
    let mut decision_start: Option<u64> = None;
    perform_action(shared, exec, action, &mut abort_cause, send);

    let mut deadline = Instant::now() + shared.stack.commit_timeout;
    while coordinator.state() != CoordinatorState::Completed {
        let remaining = deadline.saturating_duration_since(Instant::now());
        let event = if remaining.is_zero() {
            None
        } else {
            replies.recv_timeout(remaining).ok()
        };
        let action = match event {
            Some(envelope) => {
                let from_site = envelope.from.as_site();
                match (envelope.payload, from_site) {
                    (Msg::AcpVote { vote, .. }, Some(site)) => {
                        if vote == Vote::No && abort_cause.is_none() {
                            abort_cause = Some(AbortCause::AcpVotedNo { participant: site });
                        }
                        coordinator.on_vote(site, vote)
                    }
                    (Msg::AcpPreCommitAck { .. }, Some(site)) => coordinator.on_precommit_ack(site),
                    (Msg::AcpAck { .. }, Some(site)) => coordinator.on_ack(site),
                    _ => CoordinatorAction::Wait,
                }
            }
            None => {
                if abort_cause.is_none() {
                    abort_cause = Some(AbortCause::AcpTimeout {
                        phase: timed_out_phase(coordinator.state()),
                    });
                }
                coordinator.on_timeout()
            }
        };
        // Phase transitions get a fresh timeout window.
        match action {
            CoordinatorAction::SendPreCommit(_) | CoordinatorAction::SendDecision(..) => {
                deadline = Instant::now() + shared.stack.commit_timeout;
            }
            _ => {}
        }
        if matches!(action, CoordinatorAction::SendDecision(..)) {
            let n = coordinator.participants().len();
            push_span(
                shared,
                exec,
                Track::Coordinator,
                "acp:prepare",
                acp_start,
                || format!("{n} participants"),
            );
            decision_start = Some(trace_now(shared));
        }
        perform_action(shared, exec, action, &mut abort_cause, send);
    }

    if let Some(start) = decision_start {
        push_span(
            shared,
            exec,
            Track::Coordinator,
            "acp:decision",
            start,
            || format!("{:?}", coordinator.decision()),
        );
    }
    coordinator.decision() == Some(Decision::Commit)
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

/// Performs one coordinator action, shared by both coordinators (`send` is
/// the network for the threads coordinator and the tick's outbox for the
/// reactor).
///
/// `SendDecision` is the **decision point**, in this order and no other:
/// the decision goes on the coordinator's record, the `AcpDecision`s (and
/// the release notices for sites that are not participants) leave, the
/// history entry is written, and only then is the client told, through the
/// same `send` so its `TxnDone` cannot overtake them. Acknowledgements
/// arriving afterwards change nothing the client was told.
fn perform_action(
    shared: &SiteShared,
    exec: &mut TxnExecution,
    action: CoordinatorAction,
    abort_cause: &mut Option<AbortCause>,
    send: &mut dyn FnMut(NodeId, Msg),
) {
    let (txn, ts) = (exec.txn, exec.ts);
    match action {
        CoordinatorAction::SendPrepare(targets) => {
            // Each participant's write set is sent once; move it out.
            let mut writes = std::mem::take(&mut exec.writes_per_site);
            send_to_sites(shared, exec, targets, send, |target| Msg::AcpPrepare {
                txn,
                ts,
                writes: writes.remove(&target).unwrap_or_default(),
            });
        }
        CoordinatorAction::SendPreCommit(targets) => {
            send_to_sites(shared, exec, targets, send, |_| Msg::AcpPreCommit { txn });
        }
        CoordinatorAction::SendDecision(decision, targets) => {
            shared.record_decision(txn, decision);
            send_to_sites(shared, exec, targets, send, |_| Msg::AcpDecision {
                txn,
                decision,
            });
            release_stragglers(shared, exec, send);
            answer_client(shared, exec, decided_outcome(decision, abort_cause), send);
        }
        // All acknowledgements are in (the trivial commit without
        // participants never gets here, see `start_acp`).
        CoordinatorAction::Complete(_) | CoordinatorAction::Wait => {}
    }
}

/// Sends one protocol message to each of `targets`, counting the remote
/// ones towards the transaction's message cost (loopback is free, as in the
/// paper's accounting).
fn send_to_sites(
    shared: &SiteShared,
    exec: &mut TxnExecution,
    targets: impl IntoIterator<Item = SiteId>,
    send: &mut dyn FnMut(NodeId, Msg),
    mut msg: impl FnMut(SiteId) -> Msg,
) {
    for target in targets {
        send(NodeId::Site(target), msg(target));
        if target != shared.id {
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
fn release_stragglers(
    shared: &SiteShared,
    exec: &mut TxnExecution,
    send: &mut dyn FnMut(NodeId, Msg),
) {
    let txn = exec.txn;
    let stragglers: Vec<SiteId> = exec.contacted.difference(&exec.touched).copied().collect();
    send_to_sites(shared, exec, stragglers, send, |_| Msg::AcpDecision {
        txn,
        decision: Decision::Abort,
    });
}

/// Ends a transaction that fails before the commit protocol decides (a
/// failed operation, a user abort, a vanished client, a site going down):
/// the abort goes on the coordinator's record, every site holding anything
/// for the transaction is told to release it and discard staged state —
/// fire and forget — and the client is answered.
fn abort_everywhere(
    shared: &SiteShared,
    exec: &mut TxnExecution,
    cause: AbortCause,
    send: &mut dyn FnMut(NodeId, Msg),
) {
    let txn = exec.txn;
    shared.record_decision(txn, Decision::Abort);
    let touched: Vec<SiteId> = exec.touched.iter().copied().collect();
    send_to_sites(shared, exec, touched, send, |_| Msg::AcpDecision {
        txn,
        decision: Decision::Abort,
    });
    release_stragglers(shared, exec, send);
    answer_client(shared, exec, TxnOutcome::Aborted(cause), send);
}

/// Tells the client how its transaction ended — after writing the history
/// entry, and through `send`, behind whatever decisions were sent through
/// it. Every outcome passes through here exactly once, always after
/// [`SiteShared::record_decision`].
fn answer_client(
    shared: &SiteShared,
    exec: &mut TxnExecution,
    outcome: TxnOutcome,
    send: &mut dyn FnMut(NodeId, Msg),
) {
    // The coordinator is the authoritative observer: it records the real
    // outcome even when the driving client timed out and reported an
    // orphan. Spec replay and interactive conversations both run through
    // this single path, so their histories are identical by construction.
    if let Some(sink) = shared.history.as_ref() {
        sink.record(TxnRecord {
            txn: exec.txn,
            label: exec.label.clone(),
            reads: std::mem::take(&mut exec.observed),
            writes: std::mem::take(&mut exec.installed),
            outcome: outcome.clone(),
            completion_seq: 0,
        });
    }
    if shared.tracer.is_some() {
        exec.root_detail = Some(format!("{}: {:?}", exec.label, outcome));
    }
    let result = TxnResult {
        id: exec.txn,
        label: std::mem::take(&mut exec.label),
        outcome,
        reads: std::mem::take(&mut exec.reads),
        response_time: exec.started.elapsed(),
        restarts: 0,
        messages: exec.messages,
    };
    send(
        exec.client,
        Msg::TxnDone {
            request: exec.request,
            result,
        },
    );
}

/// The coordinator is done with the transaction — the client was answered
/// and no acknowledgement is awaited any more: closes the root span and
/// hands the buffered spans to the tracer.
fn retire(shared: &SiteShared, exec: &mut TxnExecution) {
    if let Some(tracer) = shared.tracer.as_ref() {
        let mut spans = std::mem::take(&mut exec.spans);
        spans.push(TraceEvent {
            txn: exec.txn,
            track: Track::Coordinator,
            label: "txn".to_string(),
            start_us: exec.trace_start,
            dur_us: tracer.now_us().saturating_sub(exec.trace_start),
            detail: exec.root_detail.take().unwrap_or_default(),
        });
        tracer.finish_txn(exec.txn, exec.started.elapsed(), spans);
    }
}
