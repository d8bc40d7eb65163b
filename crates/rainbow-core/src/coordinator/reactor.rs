//! The sharded reactor coordinator.
//!
//! The thread-per-conversation coordinator (the parent module) dedicates
//! one worker thread to every in-flight transaction, exactly as the paper
//! describes. That is faithful but tops out early under high multiprogramming:
//! a thousand concurrent conversations mean a thousand blocked threads, a
//! thousand per-transaction reply channels, and one network envelope per
//! protocol message.
//!
//! This module is the alternative the `RAINBOW_COORDINATOR=reactor` knob
//! (or [`rainbow_common::CoordinatorMode::Reactor`]) selects: **N reactor
//! event-loop threads**, each owning the transactions pinned to it by
//! `txn.seq % N`. Each reactor drains one MPSC queue of
//! [`ReactorEvent`]s — new conversations (with their first command) and
//! routed protocol messages — and drives a [`TxnMachine`] state machine per
//! transaction through the *same* protocol steps as `run_interactive`: the
//! two paths share the quorum planner, version rules, the decision point
//! (`perform_action`), the abort fan-out, the answer to the client and the
//! retirement, so the spec-vs-handle differential holds under either
//! coordinator. A machine answers its client at the decision and lives on
//! in `Committing` only until the acknowledgements are in.
//!
//! Batching falls out of the tick structure: every site-bound message a
//! tick produces is staged in a per-reactor [`Outbox`] and flushed once at
//! the end of the tick, coalescing same-destination messages into one
//! `Msg::Batch` envelope. The receiving site unpacks the batch and groups
//! the prepare/commit WAL forces (`SiteStorage::prepare_many` /
//! `commit_many`), so commit-time appends from different transactions ride
//! one fsync. Replies to client commands are latency-sensitive one-offs and
//! are always sent directly; the final `TxnDone` queues in the outbox behind
//! the decisions it reports, so it cannot overtake them. The outbox wraps
//! only site-bound messages — a client does not unpack a batch — and sends
//! each client-bound one as itself once the site envelopes have left.

use super::{
    abort_everywhere, finish_quorum_span, new_write_version, perform_action, push_commit_span,
    push_span, reply_to_client, retire, start_acp, start_quorum, timed_out_phase, trace_now,
    QuorumAccess, QuorumRound, StagedWrite, TxnExecution,
};
use crate::messages::{CopyAccessResult, Msg, NextOp, OpReply};
use crate::site::SiteShared;
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use rainbow_commit::{Coordinator, CoordinatorAction, CoordinatorState, Decision, Vote};
use rainbow_common::txn::AbortCause;
use rainbow_common::{ItemId, Timestamp, TxnId};
use rainbow_net::{Envelope, NodeId, Outbox};
use rainbow_replication::{QuorumCollector, QuorumOutcome, QuorumResponse};
use rainbow_trace::{Meter, Track};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a reactor blocks waiting for its first event before running a
/// deadline-scan tick anyway. Bounds timer granularity for quorum/commit
/// deadlines and the idle-client horizon.
const TICK: Duration = Duration::from_millis(1);

/// Upper bound on events drained per tick, so a flooded queue cannot
/// starve the deadline scan (the rest is picked up next tick).
const MAX_EVENTS_PER_TICK: u64 = 512;

/// One unit of work routed to a reactor.
pub(crate) enum ReactorEvent {
    /// A new conversation and its first command: the dispatcher already
    /// allocated the id and timestamp (it needs `txn.seq` to pick the
    /// reactor).
    Begin {
        /// The new transaction's id.
        txn: TxnId,
        /// Its timestamp.
        ts: Timestamp,
        /// The client-chosen label.
        label: String,
        /// The driving client.
        client: NodeId,
        /// The client's request correlation number.
        request: u64,
        /// The first command, which arrived with the begin.
        op: NextOp,
    },
    /// A protocol message for a transaction pinned to this reactor
    /// (client ops, quorum replies, votes, acks).
    Deliver(Envelope<Msg>),
}

/// The reactor thread pool of one site. Created at site spawn when the
/// stack selects [`rainbow_common::CoordinatorMode::Reactor`].
pub(crate) struct ReactorPool {
    queues: Vec<Sender<ReactorEvent>>,
    /// Per reactor, the machines it held at the end of its last tick.
    open: Vec<Arc<AtomicUsize>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl ReactorPool {
    /// Spawns the reactor threads for `shared`'s site.
    pub(crate) fn spawn(shared: &Arc<SiteShared>) -> ReactorPool {
        let n = reactor_count();
        let mut queues = Vec::with_capacity(n);
        let mut open = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for index in 0..n {
            let (tx, rx) = unbounded();
            queues.push(tx);
            let count = Arc::new(AtomicUsize::new(0));
            open.push(Arc::clone(&count));
            let reactor_shared = Arc::clone(shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rainbow-reactor-{}-{index}", shared.id.0))
                    .spawn(move || reactor_loop(reactor_shared, rx, count))
                    .expect("failed to spawn reactor"),
            );
        }
        ReactorPool {
            queues,
            open,
            handles: Mutex::new(handles),
        }
    }

    /// Transaction machines the reactors held when each last finished a
    /// tick: open conversations, and answered ones still collecting
    /// acknowledgements.
    pub(crate) fn open_machines(&self) -> usize {
        self.open
            .iter()
            .map(|count| count.load(Ordering::Relaxed))
            .sum()
    }

    /// Routes an event to the reactor owning transaction sequence `seq`.
    /// Sends after shutdown are dropped (the protocols' timeouts cover the
    /// teardown window).
    pub(crate) fn route(&self, seq: u64, event: ReactorEvent) {
        let slot = (seq % self.queues.len() as u64) as usize;
        let _ = self.queues[slot].send(event);
    }

    /// Joins every reactor thread; called by site shutdown after the
    /// shutdown flag is set (the threads observe it within one tick).
    pub(crate) fn join(&self) {
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.handles.lock());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Number of reactor threads: `RAINBOW_REACTORS` when set (clamped to
/// 1..=64), otherwise the machine's parallelism clamped to 2..=8.
fn reactor_count() -> usize {
    if let Ok(raw) = std::env::var("RAINBOW_REACTORS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(64);
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8)
}

/// One reactor's event loop: drain the queue, advance machines, scan
/// deadlines, flush the outbox — once per tick.
fn reactor_loop(shared: Arc<SiteShared>, mailbox: Receiver<ReactorEvent>, open: Arc<AtomicUsize>) {
    let mut machines: HashMap<TxnId, TxnMachine> = HashMap::new();
    let mut outbox: Outbox<Msg> = Outbox::new();
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            for (_, mut machine) in machines.drain() {
                machine.fail_site_down(&shared, &mut outbox);
            }
            let _ = outbox.flush(&shared.net, shared.node, Msg::Batch);
            open.store(0, Ordering::Relaxed);
            return;
        }
        let mut drained: u64 = 0;
        match mailbox.recv_timeout(TICK) {
            Ok(event) => {
                drained += 1;
                handle_event(&shared, &mut machines, &mut outbox, event);
                while drained < MAX_EVENTS_PER_TICK {
                    match mailbox.try_recv() {
                        Ok(event) => {
                            drained += 1;
                            handle_event(&shared, &mut machines, &mut outbox, event);
                        }
                        Err(_) => break,
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        if drained > 0 {
            if let Some(tracer) = shared.tracer.as_ref() {
                tracer.record_meter(Meter::ReactorQueueDepth, drained);
            }
        }
        let now = Instant::now();
        for machine in machines.values_mut() {
            machine.on_tick(&shared, &mut outbox, now);
        }
        let stats = outbox.flush(&shared.net, shared.node, Msg::Batch);
        if stats.envelopes > 0 {
            if let Some(tracer) = shared.tracer.as_ref() {
                tracer.record_meter(Meter::ReactorBatchSize, stats.largest_batch as u64);
            }
        }
        machines.retain(|_, machine| !machine.done);
        open.store(machines.len(), Ordering::Relaxed);
    }
}

/// Processes one queued event.
fn handle_event(
    shared: &Arc<SiteShared>,
    machines: &mut HashMap<TxnId, TxnMachine>,
    outbox: &mut Outbox<Msg>,
    event: ReactorEvent,
) {
    match event {
        ReactorEvent::Begin {
            txn,
            ts,
            label,
            client,
            request,
            op,
        } => {
            let mut machine = TxnMachine::new(shared, txn, ts, label, client, request);
            machine.on_client_op(shared, outbox, op);
            // A first command that ended the transaction (a lone commit, an
            // unsatisfiable quorum) leaves nothing to keep.
            if !machine.done {
                machines.insert(txn, machine);
            }
        }
        ReactorEvent::Deliver(envelope) => {
            let Some(txn) = envelope.payload.txn() else {
                return;
            };
            match machines.get_mut(&txn) {
                Some(machine) if !machine.done => machine.on_message(shared, outbox, envelope),
                _ => {
                    // The conversation is gone (idled out, finished, or the
                    // site recovered). Tell a waiting client instead of
                    // leaving it to its timeout; drop stale protocol
                    // messages, exactly like the threads path.
                    if let Msg::TxnOp { request, .. } = envelope.payload {
                        shared.send(
                            envelope.from,
                            Msg::TxnOpReply {
                                request,
                                txn,
                                reply: OpReply::Gone,
                            },
                        );
                    }
                }
            }
        }
    }
}

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

/// A quorum fan-out in flight — the event-driven analogue of
/// `single_quorum` (sequential) and `assemble_quorums_parallel`.
struct QuorumOp {
    kind: OpKind,
    access: QuorumAccess,
    /// Parallel fan-out (all quorums at once, one shared deadline) vs the
    /// sequential baseline (one quorum at a time, fresh deadline each).
    parallel: bool,
    /// The items, in request order; `rounds[i]` serves `items[i]`.
    items: Vec<ItemId>,
    /// Started rounds. Sequential mode grows this one round at a time.
    rounds: Vec<QuorumRound>,
    deadline: Instant,
    /// Start of the whole client operation (the `op:*` span).
    op_start: u64,
    /// Start of the current fan-out (per-round in sequential mode).
    fanout_start: u64,
}

/// The commit protocol in flight — the event-driven analogue of
/// `run_commit_protocol`'s loop state.
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

/// An ACP event extracted from a routed message.
enum AcpEvent {
    Vote(Vote),
    PreCommitAck,
    Ack,
}

/// What a machine is waiting for.
enum MachineState {
    /// Awaiting the client's next command. The idle-client horizon only
    /// ticks in this state, matching the threads path (quorum and commit
    /// phases are bounded by their own deadlines).
    Idle,
    /// Assembling quorums for one client operation.
    Quorums(QuorumOp),
    /// Running the atomic commit protocol.
    Committing(AcpRun),
}

/// Which deadline fired on a tick (computed under a shared borrow, acted
/// on after it ends).
enum Due {
    No,
    IdleClient,
    Quorum,
    Acp,
}

/// One transaction's coordinator, as a state machine owned by a reactor.
/// Drives the exact protocol sequence of `run_interactive` /
/// `drive_conversation`, re-expressed event-driven.
struct TxnMachine {
    exec: TxnExecution,
    last_activity: Instant,
    horizon: Duration,
    state: MachineState,
    /// Set by [`TxnMachine::finish`]; the reactor reaps done machines at
    /// the end of the tick.
    done: bool,
}

impl TxnMachine {
    fn new(
        shared: &Arc<SiteShared>,
        txn: TxnId,
        ts: Timestamp,
        label: String,
        client: NodeId,
        request: u64,
    ) -> TxnMachine {
        TxnMachine {
            exec: TxnExecution::open(shared, txn, ts, label, client, request),
            last_activity: Instant::now(),
            horizon: shared.stack.janitor_horizon(),
            state: MachineState::Idle,
            done: false,
        }
    }

    /// Routes one protocol message into the machine. Messages that do not
    /// fit the current state are stale leftovers of an earlier operation
    /// and are dropped, exactly as the threads path ignores them.
    fn on_message(
        &mut self,
        shared: &Arc<SiteShared>,
        outbox: &mut Outbox<Msg>,
        envelope: Envelope<Msg>,
    ) {
        let from = envelope.from;
        match envelope.payload {
            Msg::TxnOp { op, .. } => {
                if !matches!(self.state, MachineState::Idle) {
                    return; // mid-operation pipelining is unsupported, as in the threads path
                }
                self.last_activity = Instant::now();
                self.on_client_op(shared, outbox, op);
            }
            Msg::CopyReply {
                item,
                prewrite,
                for_update,
                result,
                ..
            } => self.on_copy_reply(shared, outbox, from, item, prewrite, for_update, result),
            Msg::AcpVote { vote, .. } => {
                self.on_acp_event(shared, outbox, from, AcpEvent::Vote(vote))
            }
            Msg::AcpPreCommitAck { .. } => {
                self.on_acp_event(shared, outbox, from, AcpEvent::PreCommitAck)
            }
            Msg::AcpAck { .. } => self.on_acp_event(shared, outbox, from, AcpEvent::Ack),
            _ => {}
        }
    }

    /// Executes the client's next command (state: Idle).
    fn on_client_op(&mut self, shared: &Arc<SiteShared>, outbox: &mut Outbox<Msg>, op: NextOp) {
        match op {
            NextOp::Read { item } => {
                self.begin_quorum_op(shared, outbox, OpKind::Read, vec![item], QuorumAccess::Read)
            }
            NextOp::ReadMany { items } => {
                self.begin_quorum_op(shared, outbox, OpKind::ReadMany, items, QuorumAccess::Read)
            }
            NextOp::BufferWrite { item, value } => {
                self.exec.staged.push(StagedWrite::Deferred { item, value });
                reply_to_client(shared, &self.exec, OpReply::Buffered);
            }
            NextOp::Increment { item, delta } => self.begin_quorum_op(
                shared,
                outbox,
                OpKind::Increment { delta },
                vec![item],
                QuorumAccess::ReadForUpdate,
            ),
            NextOp::Commit => {
                let op_start = trace_now(shared);
                let deferred: Vec<ItemId> = self
                    .exec
                    .staged
                    .iter()
                    .filter_map(|w| match w {
                        StagedWrite::Deferred { item, .. } => Some(item.clone()),
                        StagedWrite::Assembled { .. } => None,
                    })
                    .collect();
                if deferred.is_empty() {
                    self.fold_staged(shared, Vec::new());
                    self.start_acp(shared, outbox, op_start);
                } else {
                    self.begin_quorums(
                        shared,
                        outbox,
                        OpKind::CommitInstall,
                        deferred,
                        QuorumAccess::Write,
                        op_start,
                    );
                }
            }
            NextOp::Abort => self.abort(shared, outbox, AbortCause::UserAbort),
        }
    }

    /// Starts a quorum-driven operation (op span clock starts now).
    fn begin_quorum_op(
        &mut self,
        shared: &Arc<SiteShared>,
        outbox: &mut Outbox<Msg>,
        kind: OpKind,
        items: Vec<ItemId>,
        access: QuorumAccess,
    ) {
        let op_start = trace_now(shared);
        self.begin_quorums(shared, outbox, kind, items, access, op_start);
    }

    /// Plans and sends the quorum fan-out, transitioning into
    /// `MachineState::Quorums` (or straight through it when every quorum
    /// assembles synchronously, e.g. single-site placements).
    fn begin_quorums(
        &mut self,
        shared: &Arc<SiteShared>,
        outbox: &mut Outbox<Msg>,
        kind: OpKind,
        items: Vec<ItemId>,
        access: QuorumAccess,
        op_start: u64,
    ) {
        let parallel = shared.stack.parallel_quorums && items.len() > 1;
        let fanout_start = trace_now(shared);
        let mut op = QuorumOp {
            kind,
            access,
            parallel,
            items,
            rounds: Vec::new(),
            deadline: Instant::now() + shared.stack.quorum_timeout,
            op_start,
            fanout_start,
        };
        let result = if parallel {
            self.start_all_rounds(shared, outbox, &mut op)
        } else {
            self.start_rounds_sequentially(shared, outbox, &mut op)
        };
        match result {
            Err(cause) => self.quorum_op_failed(shared, outbox, op, cause),
            Ok(true) => self.quorum_op_complete(shared, outbox, op),
            Ok(false) => self.state = MachineState::Quorums(op),
        }
    }

    /// Parallel fan-out phase 1: start every round up front (mirrors
    /// `assemble_quorums_parallel`). Returns `Ok(true)` when everything
    /// assembled synchronously.
    fn start_all_rounds(
        &mut self,
        shared: &Arc<SiteShared>,
        outbox: &mut Outbox<Msg>,
        op: &mut QuorumOp,
    ) -> Result<bool, AbortCause> {
        for item in op.items.clone() {
            let collector = start_quorum(
                shared,
                &mut self.exec,
                &item,
                op.access,
                &mut |site, msg| outbox.push(NodeId::Site(site), msg),
            )?;
            // A plan that is unsatisfiable from the start must abort now,
            // not after the fan-out deadline expires.
            if collector.outcome() == QuorumOutcome::Impossible {
                return Err(collector.abort_cause());
            }
            let assembled = collector.is_assembled();
            if assembled {
                let responders = collector.responders().len();
                finish_quorum_span(
                    shared,
                    &mut self.exec,
                    op.access,
                    &item,
                    op.fanout_start,
                    responders,
                );
            }
            op.rounds.push(QuorumRound {
                item,
                access: op.access,
                collector,
                assembled,
                ccp_cause: None,
            });
        }
        if op.rounds.iter().all(|r| r.assembled) {
            for round in &op.rounds {
                for site in round.collector.responders() {
                    self.exec.touched.insert(site);
                }
            }
            return Ok(true);
        }
        Ok(false)
    }

    /// Sequential baseline: start rounds one at a time, each with a fresh
    /// deadline (mirrors `single_quorum` called in a loop). Returns
    /// `Ok(true)` when every item's quorum has assembled.
    fn start_rounds_sequentially(
        &mut self,
        shared: &Arc<SiteShared>,
        outbox: &mut Outbox<Msg>,
        op: &mut QuorumOp,
    ) -> Result<bool, AbortCause> {
        while op.rounds.len() < op.items.len() {
            let item = op.items[op.rounds.len()].clone();
            op.fanout_start = trace_now(shared);
            let collector = start_quorum(
                shared,
                &mut self.exec,
                &item,
                op.access,
                &mut |site, msg| outbox.push(NodeId::Site(site), msg),
            )?;
            op.deadline = Instant::now() + shared.stack.quorum_timeout;
            let round = QuorumRound {
                item,
                access: op.access,
                collector,
                assembled: false,
                ccp_cause: None,
            };
            match round.collector.outcome() {
                QuorumOutcome::Assembled => {
                    let responders = round.collector.responders();
                    for site in &responders {
                        self.exec.touched.insert(*site);
                    }
                    finish_quorum_span(
                        shared,
                        &mut self.exec,
                        op.access,
                        &round.item,
                        op.fanout_start,
                        responders.len(),
                    );
                    let mut round = round;
                    round.assembled = true;
                    op.rounds.push(round);
                }
                QuorumOutcome::Impossible => {
                    for site in round.collector.responders() {
                        self.exec.touched.insert(site);
                    }
                    return Err(round.collector.abort_cause());
                }
                QuorumOutcome::Pending => {
                    op.rounds.push(round);
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Feeds one `CopyReply` into the in-flight quorum fan-out.
    #[allow(clippy::too_many_arguments)]
    fn on_copy_reply(
        &mut self,
        shared: &Arc<SiteShared>,
        outbox: &mut Outbox<Msg>,
        from: NodeId,
        item: ItemId,
        prewrite: bool,
        for_update: bool,
        result: CopyAccessResult,
    ) {
        if !matches!(self.state, MachineState::Quorums(_)) {
            return; // stale reply from an earlier operation
        }
        let Some(site) = from.as_site() else { return };
        let MachineState::Quorums(mut op) = std::mem::replace(&mut self.state, MachineState::Idle)
        else {
            unreachable!("state checked above")
        };

        // Route the reply to the round it belongs to.
        let round_index = if op.parallel {
            match op
                .rounds
                .iter()
                .position(|r| r.matches(&item, prewrite, for_update, site))
            {
                Some(index) => index,
                None => {
                    // stale reply for an already-assembled quorum
                    self.state = MachineState::Quorums(op);
                    return;
                }
            }
        } else {
            let current = op.rounds.len() - 1;
            let stale = {
                let round = &op.rounds[current];
                round.assembled
                    || round.item != item
                    || prewrite != (op.access == QuorumAccess::Write)
                    || for_update != (op.access == QuorumAccess::ReadForUpdate)
            };
            if stale {
                self.state = MachineState::Quorums(op);
                return;
            }
            current
        };

        if from != shared.node {
            shared.net.counters().record_round_trip();
        }
        let fanout_start = op.fanout_start;
        push_span(
            shared,
            &mut self.exec,
            Track::Coordinator,
            "quorum:leg",
            fanout_start,
            || format!("site{} {item}", site.0),
        );

        {
            let round = &mut op.rounds[round_index];
            match result {
                CopyAccessResult::Granted { value, version } => {
                    if op.parallel {
                        // The responder holds CCP resources on our behalf
                        // from this moment, whether or not its quorum ends
                        // up assembling.
                        self.exec.touched.insert(site);
                    }
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
        }

        match op.rounds[round_index].collector.outcome() {
            QuorumOutcome::Assembled => {
                op.rounds[round_index].assembled = true;
                let responders = op.rounds[round_index].collector.responders();
                if !op.parallel {
                    // The sequential baseline books responders at terminal
                    // states, like `single_quorum`.
                    for site in &responders {
                        self.exec.touched.insert(*site);
                    }
                }
                let round_item = op.rounds[round_index].item.clone();
                finish_quorum_span(
                    shared,
                    &mut self.exec,
                    op.access,
                    &round_item,
                    op.fanout_start,
                    responders.len(),
                );
                if op.parallel {
                    if op.rounds.iter().all(|r| r.assembled) {
                        for round in &op.rounds {
                            for site in round.collector.responders() {
                                self.exec.touched.insert(site);
                            }
                        }
                        self.quorum_op_complete(shared, outbox, op);
                    } else {
                        self.state = MachineState::Quorums(op);
                    }
                } else {
                    match self.start_rounds_sequentially(shared, outbox, &mut op) {
                        Ok(true) => self.quorum_op_complete(shared, outbox, op),
                        Ok(false) => self.state = MachineState::Quorums(op),
                        Err(cause) => self.quorum_op_failed(shared, outbox, op, cause),
                    }
                }
            }
            QuorumOutcome::Impossible => {
                if !op.parallel {
                    for site in op.rounds[round_index].collector.responders() {
                        self.exec.touched.insert(site);
                    }
                }
                let cause = op.rounds[round_index]
                    .ccp_cause
                    .clone()
                    .unwrap_or_else(|| op.rounds[round_index].collector.abort_cause());
                self.quorum_op_failed(shared, outbox, op, cause);
            }
            QuorumOutcome::Pending => {
                self.state = MachineState::Quorums(op);
            }
        }
    }

    /// The quorum deadline fired before assembly completed.
    fn quorum_deadline_expired(
        &mut self,
        shared: &Arc<SiteShared>,
        outbox: &mut Outbox<Msg>,
        op: QuorumOp,
    ) {
        let cause = if op.parallel {
            let slowest = op
                .rounds
                .iter()
                .find(|r| !r.assembled)
                .expect("an unassembled round on expiry");
            slowest.ccp_cause.clone().unwrap_or(AbortCause::RcpTimeout {
                item: slowest.item.clone(),
            })
        } else {
            let round = op.rounds.last().expect("a started round on expiry");
            for site in round.collector.responders() {
                self.exec.touched.insert(site);
            }
            round.ccp_cause.clone().unwrap_or(AbortCause::RcpTimeout {
                item: round.item.clone(),
            })
        };
        self.quorum_op_failed(shared, outbox, op, cause);
    }

    /// Aborts the transaction because a quorum failed: the operation's
    /// span, then the abort fan-out and the answer to the client.
    fn quorum_op_failed(
        &mut self,
        shared: &Arc<SiteShared>,
        outbox: &mut Outbox<Msg>,
        op: QuorumOp,
        cause: AbortCause,
    ) {
        self.push_op_span(shared, &op);
        self.abort(shared, outbox, cause);
    }

    /// Buffers the operation's coordinator span (`op:read`, `op:read-many`,
    /// `op:increment`, or `op:commit` when its write quorums failed).
    fn push_op_span(&mut self, shared: &Arc<SiteShared>, op: &QuorumOp) {
        if shared.tracer.is_none() {
            return;
        }
        let (label, detail): (&str, String) = match &op.kind {
            OpKind::Read => ("op:read", op.items[0].to_string()),
            OpKind::ReadMany => ("op:read-many", format!("{} items", op.items.len())),
            OpKind::Increment { .. } => ("op:increment", op.items[0].to_string()),
            OpKind::CommitInstall => ("op:commit", "aborted".to_string()),
        };
        push_span(
            shared,
            &mut self.exec,
            Track::Coordinator,
            label,
            op.op_start,
            || detail,
        );
    }

    /// Every quorum of the operation assembled: complete the client
    /// operation (observe values, stage writes, reply — or move into the
    /// commit protocol).
    fn quorum_op_complete(
        &mut self,
        shared: &Arc<SiteShared>,
        outbox: &mut Outbox<Msg>,
        op: QuorumOp,
    ) {
        match &op.kind {
            OpKind::Read => {
                let item = op.rounds[0].item.clone();
                let res = op.rounds[0]
                    .collector
                    .latest_value()
                    .ok_or_else(|| AbortCause::RcpTimeout { item: item.clone() });
                self.push_op_span(shared, &op);
                match res {
                    Ok((value, version)) => {
                        self.exec.observe_read(&item, &value, version);
                        self.exec.reads.insert(item.clone(), value.clone());
                        reply_to_client(shared, &self.exec, OpReply::Value { item, value });
                        self.state = MachineState::Idle;
                    }
                    Err(cause) => self.abort(shared, outbox, cause),
                }
            }
            OpKind::ReadMany => {
                let mut values = Vec::with_capacity(op.rounds.len());
                let mut failure: Option<AbortCause> = None;
                for round in &op.rounds {
                    match round.collector.latest_value() {
                        Some((value, version)) => {
                            self.exec.observe_read(&round.item, &value, version);
                            self.exec.reads.insert(round.item.clone(), value.clone());
                            values.push((round.item.clone(), value));
                        }
                        None => {
                            failure = Some(AbortCause::RcpTimeout {
                                item: round.item.clone(),
                            });
                            break;
                        }
                    }
                }
                self.push_op_span(shared, &op);
                match failure {
                    None => {
                        reply_to_client(shared, &self.exec, OpReply::Values { values });
                        self.state = MachineState::Idle;
                    }
                    Some(cause) => self.abort(shared, outbox, cause),
                }
            }
            OpKind::Increment { delta } => {
                let delta = *delta;
                let item = op.rounds[0].item.clone();
                let res = match op.rounds[0].collector.latest_value() {
                    None => Err(AbortCause::RcpTimeout { item: item.clone() }),
                    Some((current, observed_version)) => match current.add_int(delta) {
                        None => Err(AbortCause::UserAbort),
                        Some(new_value) => {
                            self.exec.observe_read(&item, &current, observed_version);
                            self.exec.reads.insert(item.clone(), current.clone());
                            let version =
                                new_write_version(shared, &self.exec, &op.rounds[0].collector);
                            self.exec.staged.push(StagedWrite::Assembled {
                                item: item.clone(),
                                value: new_value,
                                sites: op.rounds[0].collector.responders(),
                                version,
                            });
                            Ok(current)
                        }
                    },
                };
                self.push_op_span(shared, &op);
                match res {
                    Ok(value) => {
                        reply_to_client(shared, &self.exec, OpReply::Value { item, value });
                        self.state = MachineState::Idle;
                    }
                    Err(cause) => self.abort(shared, outbox, cause),
                }
            }
            OpKind::CommitInstall => {
                let op_start = op.op_start;
                let collectors: Vec<QuorumCollector> =
                    op.rounds.into_iter().map(|r| r.collector).collect();
                self.fold_staged(shared, collectors);
                self.start_acp(shared, outbox, op_start);
            }
        }
    }

    /// Folds the staged updates — in client order — into the per-site
    /// write sets the ACP will distribute (mirrors the tail of
    /// `install_staged_writes`).
    fn fold_staged(&mut self, shared: &Arc<SiteShared>, collectors: Vec<QuorumCollector>) {
        let mut next_collector = collectors.into_iter();
        for staged in std::mem::take(&mut self.exec.staged) {
            match staged {
                StagedWrite::Deferred { item, value } => {
                    let collector = next_collector
                        .next()
                        .expect("one collector per deferred write");
                    let version = new_write_version(shared, &self.exec, &collector);
                    self.exec.observe_write(&item, &value, version);
                    for site in collector.responders() {
                        self.exec.writes_per_site.entry(site).or_default().push((
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
                    self.exec.observe_write(&item, &value, version);
                    for site in sites {
                        self.exec.writes_per_site.entry(site).or_default().push((
                            item.clone(),
                            value.clone(),
                            version,
                        ));
                    }
                }
            }
        }
    }

    /// Starts the atomic commit protocol over every touched site.
    fn start_acp(&mut self, shared: &Arc<SiteShared>, outbox: &mut Outbox<Msg>, op_start: u64) {
        let acp_start = trace_now(shared);
        let started = start_acp(shared, &mut self.exec, &mut |to, msg| outbox.push(to, msg));
        let Some((coordinator, action)) = started else {
            // Nothing was touched: committed trivially, client answered.
            push_commit_span(shared, &mut self.exec, op_start, true);
            return self.retire(shared);
        };
        let run = AcpRun {
            coordinator,
            abort_cause: None,
            deadline: Instant::now() + shared.stack.commit_timeout,
            acp_start,
            decision_start: None,
            op_start,
        };
        self.advance_acp(shared, outbox, run, action);
    }

    /// Feeds one routed ACP reply into the in-flight commit protocol.
    fn on_acp_event(
        &mut self,
        shared: &Arc<SiteShared>,
        outbox: &mut Outbox<Msg>,
        from: NodeId,
        event: AcpEvent,
    ) {
        if !matches!(self.state, MachineState::Committing(_)) {
            return; // stale vote/ack from an earlier transaction phase
        }
        let Some(site) = from.as_site() else { return };
        let MachineState::Committing(mut run) =
            std::mem::replace(&mut self.state, MachineState::Idle)
        else {
            unreachable!("state checked above")
        };
        let action = match event {
            AcpEvent::Vote(vote) => {
                if vote == Vote::No && run.abort_cause.is_none() {
                    run.abort_cause = Some(AbortCause::AcpVotedNo { participant: site });
                }
                run.coordinator.on_vote(site, vote)
            }
            AcpEvent::PreCommitAck => run.coordinator.on_precommit_ack(site),
            AcpEvent::Ack => run.coordinator.on_ack(site),
        };
        self.advance_acp(shared, outbox, run, action);
    }

    /// Applies one coordinator action, refreshing phase deadlines and
    /// spans like the threads loop, and either completes the protocol or
    /// re-enters the `Committing` state.
    fn advance_acp(
        &mut self,
        shared: &Arc<SiteShared>,
        outbox: &mut Outbox<Msg>,
        mut run: AcpRun,
        action: CoordinatorAction,
    ) {
        // Phase transitions get a fresh timeout window.
        match action {
            CoordinatorAction::SendPreCommit(_) | CoordinatorAction::SendDecision(..) => {
                run.deadline = Instant::now() + shared.stack.commit_timeout;
            }
            _ => {}
        }
        if matches!(action, CoordinatorAction::SendDecision(..)) {
            let n = run.coordinator.participants().len();
            push_span(
                shared,
                &mut self.exec,
                Track::Coordinator,
                "acp:prepare",
                run.acp_start,
                || format!("{n} participants"),
            );
            run.decision_start = Some(trace_now(shared));
        }
        // Site-bound messages and the client's `TxnDone` queue in the
        // outbox, in that order, and leave together at the tick flush.
        perform_action(
            shared,
            &mut self.exec,
            action,
            &mut run.abort_cause,
            &mut |to, msg| outbox.push(to, msg),
        );
        if run.coordinator.state() == CoordinatorState::Completed {
            self.finish_acp(shared, run);
        } else {
            self.state = MachineState::Committing(run);
        }
    }

    /// Every acknowledgement is in (or timed out); the client was answered
    /// at the decision. Close the spans and retire.
    fn finish_acp(&mut self, shared: &Arc<SiteShared>, run: AcpRun) {
        let decision = run.coordinator.decision();
        if let Some(start) = run.decision_start {
            push_span(
                shared,
                &mut self.exec,
                Track::Coordinator,
                "acp:decision",
                start,
                || format!("{decision:?}"),
            );
        }
        let committed = decision == Some(Decision::Commit);
        push_commit_span(shared, &mut self.exec, run.op_start, committed);
        self.retire(shared);
    }

    /// Deadline scan, run once per tick.
    fn on_tick(&mut self, shared: &Arc<SiteShared>, outbox: &mut Outbox<Msg>, now: Instant) {
        if self.done {
            return;
        }
        let due = match &self.state {
            MachineState::Idle => {
                if now.duration_since(self.last_activity) >= self.horizon {
                    Due::IdleClient
                } else {
                    Due::No
                }
            }
            MachineState::Quorums(op) => {
                if now >= op.deadline {
                    Due::Quorum
                } else {
                    Due::No
                }
            }
            MachineState::Committing(run) => {
                if now >= run.deadline {
                    Due::Acp
                } else {
                    Due::No
                }
            }
        };
        match due {
            Due::No => {}
            Due::IdleClient => {
                // The client went quiet past the janitor horizon: presume
                // it gone and free resources everywhere on the same clock
                // the participant janitor uses.
                self.abort(shared, outbox, AbortCause::ClientTimeout);
            }
            Due::Quorum => {
                let MachineState::Quorums(op) =
                    std::mem::replace(&mut self.state, MachineState::Idle)
                else {
                    unreachable!("state checked above")
                };
                self.quorum_deadline_expired(shared, outbox, op);
            }
            Due::Acp => {
                let MachineState::Committing(mut run) =
                    std::mem::replace(&mut self.state, MachineState::Idle)
                else {
                    unreachable!("state checked above")
                };
                if run.abort_cause.is_none() {
                    run.abort_cause = Some(AbortCause::AcpTimeout {
                        phase: timed_out_phase(run.coordinator.state()),
                    });
                }
                let action = run.coordinator.on_timeout();
                self.advance_acp(shared, outbox, run, action);
            }
        }
    }

    /// Site shutdown with the machine still alive: an open conversation is
    /// aborted everywhere and told of the site failure, like a
    /// thread-per-conversation worker observing the shutdown flag; one that
    /// was already answered and only collecting acknowledgements retires.
    fn fail_site_down(&mut self, shared: &Arc<SiteShared>, outbox: &mut Outbox<Msg>) {
        if self.done {
            return;
        }
        let answered = matches!(&self.state, MachineState::Committing(run) if run.coordinator.decision().is_some());
        if answered {
            self.retire(shared);
        } else {
            self.abort(shared, outbox, AbortCause::SiteFailure { site: shared.id });
        }
    }

    /// Ends the transaction before any decision: abort fan-out and the
    /// answer to the client through the outbox, then nothing is left to
    /// wait for.
    fn abort(&mut self, shared: &Arc<SiteShared>, outbox: &mut Outbox<Msg>, cause: AbortCause) {
        abort_everywhere(shared, &mut self.exec, cause, &mut |to, msg| {
            outbox.push(to, msg)
        });
        self.retire(shared);
    }

    /// The machine has nothing left to do: close the trace; the reactor
    /// reaps it at the end of the tick.
    fn retire(&mut self, shared: &Arc<SiteShared>) {
        retire(shared, &mut self.exec);
        self.done = true;
        self.state = MachineState::Idle;
    }
}
