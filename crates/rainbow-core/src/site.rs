//! The Rainbow site runtime.
//!
//! A site is one node of the distributed database, cut in two the way
//! toyDB's Raft node is. **The state machine**, `Site`, holds everything
//! the site knows: `Site::step(now, envelope)` handles one message where it
//! lands, and `Site::tick(now)` acts on what fell due and says when to tick
//! it next. Both are told the time and only queue what they send, in the
//! site's one `Outbox`, so a test can drive a `Site` with no thread and no
//! clock. What a site queues for itself — the home's own copy accesses,
//! prepares and decisions, and their answers — is handled at the end of
//! the same step or tick, never sent. **The thread shell** ([`SiteHandle`]
//! and its loop) is the site's thread, started with the site and joined at
//! shutdown: it sleeps in the mailbox until a message arrives or `tick`'s
//! deadline passes, steps what it drained, ticks and flushes. When the
//! site's log needs a sync to be durable (segment files), the shell also
//! starts the site's **syncer** and joins it at shutdown: the loop writes a
//! group of log records and keeps serving, the syncer syncs it and tells
//! the loop by a [`Msg::Synced`] message, and only what must not leave
//! before the record is durable — a YES vote behind its prepare record, an
//! acknowledgement behind its commit record — is held until then. A vote
//! asks for its sync at once; a group only acknowledgements wait for rides
//! on the next vote's sync while a participant here is still to vote or a
//! sync runs (nobody on a client's path waits for an acknowledgement), and
//! asks for one of its own at a bound (`Site::sync_request`). Nothing else is ever
//! created or lent, and no thread is ever created for a transaction.
//!
//! * requests from coordinators — its own or other sites' — are served at
//!   once. The site never waits: a copy access asks the CCP, which never
//!   blocks, and is answered at once when the CCP decides it. When the CCP
//!   says the access must wait (its lock is held or, under the timestamp
//!   protocols, an earlier pre-write is pending), the request is **parked**:
//!   kept with a deadline, asked again — oldest first — after every message
//!   the site handled (a commit or an abort among them is what ends a wait),
//!   and given up when the deadline passes or its transaction ends first;
//! * the **coordinator** of every transaction whose home is this site is a
//!   state machine (`coordinator.rs`) in the site's own map: a new
//!   conversation opens one, and the client's commands, copy replies, votes
//!   and acknowledgements go to it. (The paper's site "dedicates one thread
//!   to process" each transaction; here a transaction is a machine on its
//!   home site's one thread, and no thread is ever created for it.)
//! * the **participant side** of the commit protocol for transactions
//!   coordinated elsewhere, including a janitor that cleans up transactions
//!   whose coordinator disappeared and the recovery path that resolves
//!   in-doubt transactions after a crash.
//!
//! The handle holds none of the site's state: each of its methods is a
//! [`Msg::Call`], a closure over the `Site` put straight into the mailbox
//! (so it reaches a site the fault injector marked crashed), which the loop
//! runs between two messages, never beside one. So the loop is the one
//! writer of the site's storage, clock and CCP, and none of them has a lock.

use crate::coordinator::{Cx, TxnMachine};
use crate::messages::{CopyAccessResult, Msg, OpReply};
use crate::metrics::SiteMetrics;
use crossbeam_channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use rainbow_cc::{make_ccp, CcDecision, CcProtocol, TxnContext};
use rainbow_commit::{Decision, Participant, ParticipantAction, ParticipantState, Vote};
use rainbow_common::config::DatabaseSchema;
use rainbow_common::history::HistorySink;
use rainbow_common::protocol::ProtocolStack;
use rainbow_common::txn::AbortCause;
use rainbow_common::{
    FxHashMap, FxHashSet, ItemId, MessageId, RainbowError, RainbowResult, SiteId, Timestamp,
    TimestampGenerator, TxnId, Value, Version,
};
use rainbow_net::{recv_soon, Envelope, FaultController, NetHandle, NodeId, Outbox};
use rainbow_replication::{make_rcp, ReplicationControl};
use rainbow_storage::recovery::InDoubtTxn;
use rainbow_storage::{PowerLossFault, SiteStorage, StorageConfig, SyncHandle};
use rainbow_trace::{Meter, Phase, TraceEvent, Tracer, Track};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on messages handled per drain, so a flooded mailbox cannot
/// starve the deadlines (the rest is picked up by the next drain).
const MAX_DRAIN: usize = 512;

/// How often the janitor runs.
const JANITOR_EVERY: Duration = Duration::from_millis(200);

/// How long a group only acknowledgements wait for rides on the next
/// vote's sync before it asks for a sync of its own (see
/// `SiteState::sync_due`): a tenth of the commit timeout, at which the
/// coordinator stops waiting for acknowledgements.
fn ack_ride(stack: &ProtocolStack) -> Duration {
    stack.commit_timeout / 10
}

/// The writes of one transaction destined for (or recovered at) this site.
pub(crate) type WriteSet = Vec<(ItemId, Value, Version)>;

/// Participant-side bookkeeping for one transaction at this site.
pub(crate) struct ParticipantEntry {
    pub machine: Participant,
    pub ctx: TxnContext,
    pub coordinator: NodeId,
    pub last_activity: Instant,
}

/// The in-doubt transactions found during crash recovery, waiting for a
/// status reply from their coordinator, with a per-item index so a copy
/// access finds out in O(1) whether its item is in one of their write sets.
#[derive(Default)]
pub(crate) struct InDoubt {
    writes: FxHashMap<TxnId, WriteSet>,
    /// Item → the in-doubt transactions whose prepared write set holds it
    /// (more than one is possible under the timestamp protocols).
    holders: FxHashMap<ItemId, Vec<TxnId>>,
}

impl InDoubt {
    fn insert(&mut self, txn: TxnId, writes: WriteSet) {
        self.remove(txn);
        for (item, _, _) in &writes {
            self.holders.entry(item.clone()).or_default().push(txn);
        }
        self.writes.insert(txn, writes);
    }

    fn remove(&mut self, txn: TxnId) -> Option<WriteSet> {
        let writes = self.writes.remove(&txn)?;
        for (item, _, _) in &writes {
            if let Some(holders) = self.holders.get_mut(item) {
                holders.retain(|holder| *holder != txn);
                if holders.is_empty() {
                    self.holders.remove(item);
                }
            }
        }
        Some(writes)
    }

    /// An in-doubt transaction other than `txn` with `item` in its prepared
    /// write set, if there is one.
    fn holder_blocking(&self, item: &ItemId, txn: TxnId) -> Option<TxnId> {
        self.holders
            .get(item)?
            .iter()
            .copied()
            .find(|holder| *holder != txn)
    }
}

/// What never changes after a site starts.
pub(crate) struct SiteShared {
    pub id: SiteId,
    pub stack: ProtocolStack,
    pub rcp: Arc<dyn ReplicationControl>,
    /// Fetched at start from the name server, which never changes it.
    pub schema: DatabaseSchema,
    pub net: NetHandle<Msg>,
    /// The network's fault controller: a site crashed in it drops what it
    /// sends itself, as the network drops what it sends others.
    pub faults: Arc<FaultController>,
    pub metrics: Arc<SiteMetrics>,
    /// The cluster-wide history sink the chaos laboratory snoops on, when
    /// history recording is enabled. `None` (the default) keeps every
    /// recording branch in the coordinator dead, so the hot path pays
    /// nothing.
    pub history: Option<Arc<HistorySink>>,
    /// The cluster-wide trace sink, `None` when tracing is disabled (the
    /// default) — same dead-branch pattern as `history`.
    pub tracer: Option<Arc<Tracer>>,
}

impl SiteShared {
    /// Microseconds since the tracer epoch, or 0 when tracing is off. The
    /// timestamp feeds [`SiteShared::trace_site_span`].
    pub fn trace_now(&self) -> u64 {
        self.tracer.as_ref().map_or(0, |t| t.now_us())
    }

    /// Records a participant-side span covering `start_us`..now on this
    /// site's track — into `phase`'s histogram when given, and as a span
    /// event when the transaction is sampled. No-op without a tracer; the
    /// detail is a closure so untraced runs never pay for formatting.
    pub fn trace_site_span(
        &self,
        txn: TxnId,
        phase: Option<Phase>,
        label: &str,
        start_us: u64,
        detail: impl FnOnce() -> String,
    ) {
        let Some(tracer) = self.tracer.as_ref() else {
            return;
        };
        let dur = tracer.now_us().saturating_sub(start_us);
        if let Some(phase) = phase {
            tracer.record_phase(phase, Duration::from_micros(dur));
        }
        if tracer.sampled(txn) {
            tracer.record(TraceEvent {
                txn,
                track: Track::Site { site: self.id.0 },
                label: label.to_string(),
                start_us,
                dur_us: dur,
                detail: detail(),
            });
        }
    }
}

/// Everything a site changes as it runs.
struct SiteState {
    /// Committed copies, staged writes and the log; a restart recovers it.
    storage: SiteStorage,
    /// Stamps the transactions opened here; a restart keeps it.
    clock: TimestampGenerator,
    /// The CCP in force; a restart replaces it.
    ccp: Box<dyn CcProtocol>,
    participants: FxHashMap<TxnId, ParticipantEntry>,
    /// How many of `participants` are still to vote: they accessed a copy
    /// here and have had no `AcpPrepare` yet. Kept at the participant
    /// transitions; while it is not 0, a vote is likely to ask for a sync
    /// soon, and a group only acknowledgements wait for rides on it.
    to_vote: usize,
    /// Transactions that have already been decided (or cleaned up) at this
    /// site *as a participant*. Late copy-access requests, prepares and late
    /// lock grants for these transactions are refused so they cannot
    /// resurrect a participant entry that nobody will ever release.
    finished: FxHashSet<TxnId>,
    in_doubt: InDoubt,
    /// The copy accesses waiting at this site, in arrival order: the CCP
    /// said they must wait, so the loop asks again after every message it
    /// handled. They die with the CCP they were waiting in.
    parked: Vec<Parked>,
    /// Messages that may leave only once the log is durable through their
    /// ticket, in ticket order: YES votes behind their prepare records,
    /// acknowledgements behind their commit records. A restart drops them:
    /// they never left.
    held: VecDeque<Held>,
    home: Home,
}

/// A message in `SiteState::held`.
struct Held {
    ticket: u64,
    /// When it was held.
    since: Instant,
    to: NodeId,
    msg: Msg,
    /// A YES vote's `acp:vote` span, which ends when the vote leaves.
    vote: Option<VoteSpan>,
}

/// Where a vote's `acp:vote` span began, and what its detail reports.
struct VoteSpan {
    start_us: u64,
    writes: usize,
    group: usize,
}

impl VoteSpan {
    /// Ends the span of `txn`'s `vote`, now.
    fn end(self, shared: &SiteShared, txn: TxnId, vote: Vote) {
        let (writes, group) = (self.writes, self.group);
        shared.trace_site_span(txn, Some(Phase::Prepare), "acp:vote", self.start_us, || {
            format!("{vote:?} ({writes} writes, group of {group})")
        });
    }
}

impl SiteState {
    /// Resets what a crash takes down, once the storage has recovered from
    /// its log:
    ///
    /// * a fresh CCP, with a recovery floor at the site's current logical
    ///   time. Every lock and timestamp table entry was volatile; the clock
    ///   observed the timestamp of every access granted before the crash, so
    ///   rejecting everything older conservatively restores the rts/wts
    ///   rejection surface the crash erased (without it, a recovered site
    ///   can admit an old write it had already ordered a younger read past —
    ///   a serializability violation the chaos harness reproduces);
    /// * nothing parked: the accesses parked in the old CCP go with it;
    /// * no participants: every transaction with grants here just lost them
    ///   and is refused from now on. One that came back could take a *new*
    ///   lock, and holding something is all `validate` asks before this site
    ///   vouches for accesses it no longer protects (the chaos lab caught
    ///   the resulting non-repeatable read under load);
    /// * the in-doubt transactions the log recovered, each coordinator asked
    ///   for the decision (the janitor asks again until an answer arrives).
    ///
    /// The storage, the clock, `finished` and the coordinators' machines
    /// and decisions survive a restart.
    fn restart(&mut self, shared: &SiteShared, in_doubt: Vec<InDoubtTxn>) {
        let stack = &shared.stack;
        self.ccp = make_ccp(stack.ccp, stack.deadlock, stack.lock_wait_timeout);
        let floor = Timestamp::new(self.clock.now(), shared.id.0);
        self.ccp.install_recovery_floor(floor);
        self.parked.clear();
        self.held.clear();
        self.finished
            .extend(self.participants.drain().map(|(txn, _)| txn));
        self.to_vote = 0;
        self.in_doubt = InDoubt::default();
        for InDoubtTxn { txn, writes } in in_doubt {
            self.in_doubt.insert(txn, writes);
            self.send(NodeId::Site(txn.home), Msg::AcpStatusQuery { txn });
        }
    }

    /// Queues a message in the site's outbox; it leaves when the drain ends.
    fn send(&mut self, to: NodeId, msg: Msg) {
        self.home.out.outbox.push(to, msg);
    }

    /// Queues a message that may leave only once the log is durable
    /// through `ticket`: at the first flush after that, or with the drain
    /// when `ticket` is `None`; `now` is when it is held. A vote's span
    /// ends when the vote leaves.
    fn send_when_durable(
        &mut self,
        shared: &SiteShared,
        now: Instant,
        ticket: Option<u64>,
        to: NodeId,
        msg: Msg,
        vote: Option<VoteSpan>,
    ) {
        match ticket {
            Some(ticket) => self.held.push_back(Held {
                ticket,
                since: now,
                to,
                msg,
                vote,
            }),
            None => self.release(shared, to, msg, vote),
        }
    }

    /// When the groups written since the last sync request should be asked
    /// a sync for, given `now`; `None` when no held message waits for one.
    ///
    /// * a YES vote waits among them: `now`, since the vote's coordinator
    ///   waits for it. The request covers every written group, so the
    ///   acknowledgements written before ride with it;
    /// * only acknowledgements wait, no participant here is still to vote
    ///   and no sync runs: `now`, since no vote is coming to ride on;
    /// * only acknowledgements wait, and a participant is still to vote or
    ///   a sync runs: `ride` after the oldest of them was held. Nobody on a
    ///   client's path waits for an acknowledgement (the client was
    ///   answered at the decision, the locks went when it arrived), so it
    ///   waits for the next vote's sync, and asks for one of its own only
    ///   at that bound. A running sync's answer comes well before: the
    ///   choice is made again then, and a participant that arrived
    ///   meanwhile keeps the acknowledgements waiting for its vote (asked
    ///   at once, they would have waited for that sync all the same, and
    ///   then been synced alone).
    fn sync_due(&self, now: Instant, ride: Duration) -> Option<Instant> {
        if self.held.is_empty() {
            return None;
        }
        let asked = self.storage.requested();
        let waiting = self
            .held
            .iter()
            .rev()
            .take_while(|held| held.ticket > asked);
        let (mut oldest, mut vote) = (None, false);
        for held in waiting {
            vote |= matches!(held.msg, Msg::AcpVote { .. });
            oldest = Some(held.since);
        }
        let oldest = oldest?;
        let syncing = asked > self.storage.durable();
        Some(if vote || (self.to_vote == 0 && !syncing) {
            now
        } else {
            (oldest + ride).max(now)
        })
    }

    /// Removes `txn`'s participant entry, if it has one.
    fn remove_participant(&mut self, txn: TxnId) -> Option<ParticipantEntry> {
        let entry = self.participants.remove(&txn)?;
        if entry.machine.state() == ParticipantState::Working {
            self.to_vote -= 1;
        }
        Some(entry)
    }

    /// Moves every held message whose ticket is durable into the outbox.
    fn release_durable(&mut self, shared: &SiteShared) {
        if self.held.is_empty() {
            return;
        }
        let durable = self.storage.durable();
        while self.held.front().is_some_and(|held| held.ticket <= durable) {
            let Held { to, msg, vote, .. } = self.held.pop_front().expect("a front");
            self.release(shared, to, msg, vote);
        }
    }

    /// Queues a message that may leave, ending its vote's span.
    fn release(&mut self, shared: &SiteShared, to: NodeId, msg: Msg, vote: Option<VoteSpan>) {
        if let (Some(span), Msg::AcpVote { txn, vote }) = (vote, &msg) {
            span.end(shared, *txn, *vote);
        }
        self.send(to, msg);
    }

    /// Settles a transaction crash recovery found in doubt, now that its
    /// decision is known; false when `txn` is not one. A commit stages the
    /// recovered writes and commits them like any other.
    fn resolve_in_doubt(&mut self, txn: TxnId, decision: Decision) -> bool {
        let Some(writes) = self.in_doubt.remove(txn) else {
            return false;
        };
        match decision {
            Decision::Commit => {
                for (item, value, version) in writes {
                    self.storage.stage_write(txn, item, value, version);
                }
                self.storage.commit(txn);
            }
            Decision::Abort => self.storage.abort(txn),
        }
        true
    }

    /// Ensures a participant entry exists for `txn`, active at `now`, and
    /// returns its context.
    fn ensure_participant(
        &mut self,
        shared: &SiteShared,
        now: Instant,
        txn: TxnId,
        ts: Timestamp,
        coordinator: NodeId,
    ) -> TxnContext {
        let (participants, to_vote) = (&mut self.participants, &mut self.to_vote);
        let entry = participants.entry(txn).or_insert_with(|| {
            *to_vote += 1;
            ParticipantEntry {
                machine: Participant::new(
                    txn,
                    coordinator.as_site().unwrap_or(shared.id),
                    shared.stack.acp,
                ),
                ctx: TxnContext::new(txn, ts),
                coordinator,
                last_activity: now,
            }
        });
        entry.last_activity = now;
        entry.ctx
    }
}

/// A site: everything it knows, stepped one message at a time by the loop
/// that is its only owner, so nothing in it is shared or locked.
pub(crate) struct Site {
    shared: SiteShared,
    state: SiteState,
    /// When the janitor runs next.
    janitor_due: Instant,
}

impl Site {
    /// Opens the site's storage and builds the site as it is at `now`, with
    /// no thread; it starts as a restart (see `SiteHandle::spawn_with_schema`).
    fn open(shared: SiteShared, storage: &StorageConfig, now: Instant) -> RainbowResult<Site> {
        let (id, schema) = (shared.id, &shared.schema);
        let (storage, outcome) = SiteStorage::open(id, storage, shared.tracer.clone())?;
        let local_items: Vec<(ItemId, Value)> = schema
            .items
            .iter()
            .filter(|spec| {
                let placement = schema.replication.placement(&spec.id);
                placement.is_some_and(|p| p.holds_copy(id))
            })
            .map(|spec| (spec.id.clone(), spec.initial.clone()))
            .collect();
        storage.initialize(&local_items);
        let stack = &shared.stack;
        let mut state = SiteState {
            storage,
            clock: TimestampGenerator::new(id),
            ccp: make_ccp(stack.ccp, stack.deadlock, stack.lock_wait_timeout),
            participants: FxHashMap::default(),
            to_vote: 0,
            finished: FxHashSet::default(),
            in_doubt: InDoubt::default(),
            parked: Vec::new(),
            held: VecDeque::new(),
            home: Home::default(),
        };
        state.restart(&shared, outcome.in_doubt);
        let janitor_due = now + JANITOR_EVERY;
        Ok(Site {
            shared,
            state,
            janitor_due,
        })
    }

    /// Handles one message at `now`, then what the site sent itself while
    /// handling it (see `Site::step_own`).
    pub(crate) fn step(&mut self, now: Instant, envelope: Envelope<Msg>) {
        self.handle(now, envelope);
        self.step_own(now);
    }

    /// Handles one message at `now` (a handle's call runs), then asks the
    /// parked accesses again: the message may have ended their wait.
    fn handle(&mut self, now: Instant, envelope: Envelope<Msg>) {
        match envelope.payload {
            Msg::Call(Call(call)) => call(self),
            Msg::Synced { ticket, result } => self.synced(ticket, result),
            msg => dispatch(&self.shared, &mut self.state, now, envelope.from, msg),
        }
        ask_parked_again(&self.shared, &mut self.state, now);
    }

    /// Handles at `now` what the site queued for itself — its own copy
    /// accesses, prepares, decisions and their answers, and the votes and
    /// acks a sync released — and what that queues for it, until nothing
    /// is left: the messages of a site to itself never leave its loop.
    /// They are what the network's loopback would have delivered: one
    /// envelope per group, a `Msg::Batch` for two or more (so a home's own
    /// prepares, or commits, are one log group), in the order queued,
    /// counted nowhere, and dropped while the fault controller reports the
    /// site crashed. Returns whether it handled any.
    fn step_own(&mut self, now: Instant) -> bool {
        let me = NodeId::Site(self.shared.id);
        let mut handled = false;
        loop {
            self.state.release_durable(&self.shared);
            let Some(mut group) = self.state.home.out.outbox.take(me) else {
                return handled;
            };
            if self.shared.faults.is_crashed(me) {
                continue;
            }
            let payload = match group.len() {
                1 => group.pop().expect("a group of one"),
                _ => Msg::Batch(group),
            };
            let (id, from, to) = (MessageId(0), me, me);
            self.handle(
                now,
                Envelope {
                    id,
                    from,
                    to,
                    payload,
                },
            );
            handled = true;
        }
    }

    /// Acts on what fell due by `now` — the janitor, parked accesses whose
    /// deadline passed, the coordinators' deadlines — reaps the machines
    /// that are done, handles what that sent the site itself, and returns
    /// when the site wants to be ticked again (at the latest when held
    /// acknowledgements stop riding on a vote's sync: see
    /// [`Site::sync_request`]).
    pub(crate) fn tick(&mut self, now: Instant) -> Instant {
        if now >= self.janitor_due {
            self.janitor_due = now + JANITOR_EVERY;
            run_janitor(&self.shared, &mut self.state, now);
        }
        loop {
            let (shared, state) = (&self.shared, &mut self.state);
            let parked_due = ask_parked_again(shared, state, now);
            // The machines' deadlines; the machines that are done are reaped.
            let (machines, out) = (&mut state.home.machines, &mut state.home.out);
            let on_tick = |machine: &mut TxnMachine| machine.on_tick(&mut Cx { shared, out, now });
            let machine_due = machines.values_mut().filter_map(on_tick).min();
            machines.retain(|_, machine| !machine.is_done());
            // What the site sent itself may move a deadline: ask again.
            if !self.step_own(now) {
                let ride = ack_ride(&self.shared.stack);
                let sync_due = self.state.sync_due(now, ride).filter(|due| *due > now);
                let due = parked_due.into_iter().chain(machine_due).chain(sync_due);
                return due.fold(self.janitor_due, Instant::min);
            }
        }
    }

    /// The sync to ask the syncer for at `now`, if any: the newest written
    /// group's ticket and a handle that syncs its segment, when a held
    /// message waits for a group no sync was asked for yet — at once for a
    /// YES vote, and for acknowledgements when no participant here is
    /// still to vote and no sync runs; otherwise the acknowledgements ride
    /// on the next vote's sync, or ask at their bound
    /// (`SiteState::sync_due`).
    pub(crate) fn sync_request(&mut self, now: Instant) -> Option<(u64, SyncHandle)> {
        let state = &self.state;
        debug_assert_eq!(
            state.to_vote,
            state
                .participants
                .values()
                .filter(|entry| entry.machine.state() == ParticipantState::Working)
                .count(),
            "participants still to vote"
        );
        let due = state.sync_due(now, ack_ride(&self.shared.stack))?;
        (due <= now).then(|| state.storage.sync_request()).flatten()
    }

    /// Notes that a sync made the log durable through `ticket` (the held
    /// messages it covers leave at the next flush). A sync that failed
    /// takes the site down: after a failed fsync the kernel may have
    /// dropped the written pages, so nothing can vouch for them.
    fn synced(&mut self, ticket: u64, result: Result<(), String>) {
        result.expect("log engine: sync failed; cannot guarantee durability");
        self.state.storage.synced(ticket);
    }

    /// The power-loss nemesis on this site: drops every volatile thing,
    /// injects `fault` into the log, and restarts the site from its log.
    fn power_loss(&mut self, fault: PowerLossFault) -> RainbowResult<()> {
        let storage = &self.state.storage;
        storage.power_loss(fault);
        let outcome = storage.recover()?;
        self.state.restart(&self.shared, outcome.in_doubt);
        Ok(())
    }

    /// Sends what the drain queued, and every held message the log is now
    /// durable for; `drained` is how many messages the drain had.
    fn flush(&mut self, drained: u64) {
        let shared = &self.shared;
        self.state.release_durable(shared);
        let tracer = shared.tracer.as_ref();
        if let Some(tracer) = tracer.filter(|_| drained > 0) {
            tracer.record_meter(Meter::ReactorQueueDepth, drained);
        }
        let (outbox, me) = (&mut self.state.home.out.outbox, NodeId::Site(shared.id));
        // The loop has stepped everything the site sent itself; only a
        // closing site leaves some, and nobody is left to handle them.
        outbox.take(me);
        let stats = outbox.flush(&shared.net, me, Msg::Batch);
        if let Some(tracer) = tracer.filter(|_| stats.envelopes > 0) {
            tracer.record_meter(Meter::ReactorBatchSize, stats.largest_batch as u64);
        }
    }

    /// Shuts the site down at `now`: every machine still alive fails
    /// site-down; the engine is flushed and fsynced, so a reopened data
    /// directory has every record appended; then what was queued and what
    /// was held for the sync leaves (what is parked or still in the
    /// mailbox is dropped unanswered).
    fn close(mut self, now: Instant) {
        let (shared, out) = (&self.shared, &mut self.state.home.out);
        for (_, mut machine) in self.state.home.machines.drain() {
            machine.fail_site_down(&mut Cx { shared, out, now });
        }
        if let Err(err) = self.state.storage.flush_and_sync() {
            let id = self.shared.id;
            eprintln!("rainbow: flush on shutdown failed for {id}: {err}");
        }
        self.flush(0);
    }
}

/// A handle's request to a site ([`Msg::Call`]): a closure the site's loop
/// runs between two messages, which carries its own reply.
pub struct Call(pub(crate) Box<dyn FnOnce(&mut Site) + Send>);

impl std::fmt::Debug for Call {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Call")
    }
}

/// The way into a site's loop, past the network; a call can carry others.
#[derive(Clone)]
pub(crate) struct SiteCaller {
    id: SiteId,
    net: NetHandle<Msg>,
}

impl SiteCaller {
    /// Runs `f` on the site's loop, between two messages, and returns what
    /// it returned; fails when the loop is gone (stopped, or panicked).
    pub(crate) fn call<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut Site) -> R + Send + 'static,
    ) -> RainbowResult<R> {
        let (reply, answer) = bounded(1);
        let call = Call(Box::new(move |site: &mut Site| {
            let _ = reply.send(f(site));
        }));
        // A loop that is gone drops the call, unrun, and the reply with it.
        self.net.post(NodeId::Site(self.id), Msg::Call(call));
        let gone = RainbowError::SiteUnavailable(self.id);
        answer.recv().map_err(|_| gone)
    }

    /// A call for a reader that has no error to return: panics, naming the
    /// site, when the loop is gone.
    fn ask<R: Send + 'static>(&self, f: impl FnOnce(&mut Site) -> R + Send + 'static) -> R {
        self.call(f)
            .unwrap_or_else(|_| panic!("the loop of {} is gone", self.id))
    }

    /// The committed copies at the site.
    pub(crate) fn database_snapshot(&self) -> RainbowResult<Vec<(ItemId, Value, Version)>> {
        self.call(|site| site.state.storage.snapshot())
    }
}

/// Handle to a running Rainbow site: its threads, and the caller every
/// method talks to the site's loop through.
pub struct SiteHandle {
    pub(crate) caller: SiteCaller,
    metrics: Arc<SiteMetrics>,
    thread: Option<JoinHandle<()>>,
    /// The site's syncer, when its log needs a sync to be durable.
    syncer: Option<JoinHandle<()>>,
}

impl SiteHandle {
    /// Spawns a site that first fetches its schema from the name server.
    /// `history` is the cluster-wide transaction-history sink, `None` when
    /// recording is disabled.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        id: SiteId,
        stack: ProtocolStack,
        storage: &StorageConfig,
        net: NetHandle<Msg>,
        mailbox: Receiver<Envelope<Msg>>,
        metrics: Arc<SiteMetrics>,
        history: Option<Arc<HistorySink>>,
        tracer: Option<Arc<Tracer>>,
    ) -> RainbowResult<Self> {
        let node = NodeId::Site(id);
        // Ask the name server for the schema before serving anything.
        let mut schema = None;
        for _attempt in 0..10 {
            net.send(node, NodeId::NameServer, Msg::NsGetSchema)?;
            match mailbox.recv_timeout(Duration::from_millis(300)) {
                Ok(envelope) => {
                    if let Msg::NsSchema { database, .. } = envelope.payload {
                        schema = Some(database);
                        break;
                    }
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(RainbowError::Network("site mailbox closed".into()))
                }
            }
        }
        let schema = schema.ok_or_else(|| {
            RainbowError::Timeout(format!("site {id} could not fetch the schema"))
        })?;
        Self::spawn_with_schema(
            id, stack, storage, schema, net, mailbox, metrics, history, tracer,
        )
    }

    /// Spawns a site with an explicitly provided schema (no name-server
    /// round trip); used by tests and by recovery.
    ///
    /// A disk engine reopening an existing data directory comes back with
    /// its committed state; items recovered from the log are *not*
    /// re-initialized, and in-doubt transactions found in the log get a
    /// status query to their coordinator (retried by the janitor until an
    /// answer arrives).
    #[allow(clippy::too_many_arguments)]
    pub fn spawn_with_schema(
        id: SiteId,
        stack: ProtocolStack,
        storage_config: &StorageConfig,
        schema: DatabaseSchema,
        net: NetHandle<Msg>,
        mailbox: Receiver<Envelope<Msg>>,
        metrics: Arc<SiteMetrics>,
        history: Option<Arc<HistorySink>>,
        tracer: Option<Arc<Tracer>>,
    ) -> RainbowResult<Self> {
        let caller = SiteCaller {
            id,
            net: net.clone(),
        };
        let shared = SiteShared {
            id,
            rcp: make_rcp(stack.rcp),
            stack,
            schema,
            faults: net.faults(),
            net,
            metrics: Arc::clone(&metrics),
            history,
            tracer,
        };
        let site = Site::open(shared, storage_config, Instant::now())?;
        let needs_sync = site.state.storage.needs_sync();
        let (requests, syncer) = needs_sync
            .then(|| start_syncer(id, caller.net.clone()))
            .unzip();
        let thread = std::thread::Builder::new()
            .name(format!("rainbow-site-{}", id.0))
            .spawn(move || run(site, mailbox, requests))
            .expect("failed to spawn the site loop");
        Ok(SiteHandle {
            caller,
            metrics,
            thread: Some(thread),
            syncer,
        })
    }

    /// The site's id.
    pub fn id(&self) -> SiteId {
        self.caller.id
    }

    /// The site's metrics handle.
    pub fn metrics(&self) -> Arc<SiteMetrics> {
        Arc::clone(&self.metrics)
    }

    /// A snapshot of the committed database state at this site. Like every
    /// reader below, it panics, naming the site, when its loop is gone.
    pub fn database_snapshot(&self) -> Vec<(ItemId, Value, Version)> {
        self.caller.ask(|site| site.state.storage.snapshot())
    }

    /// Number of transactions currently holding resources at this site's
    /// CCP.
    pub fn active_transactions(&self) -> usize {
        self.caller.ask(|site| site.state.ccp.active_transactions())
    }

    /// Diagnostic view of the transactions still registered as participants
    /// at this site: `(transaction, state, seconds since last activity)`.
    /// Used by tests and operational tooling to spot transactions whose
    /// coordinator disappeared.
    pub fn lingering_participants(&self) -> Vec<(TxnId, String, f64)> {
        let asked = Instant::now();
        self.caller.ask(move |site| {
            let participants = site.state.participants.iter();
            participants
                .map(|(txn, entry)| {
                    let idle = asked.duration_since(entry.last_activity).as_secs_f64();
                    (*txn, format!("{:?}", entry.machine.state()), idle)
                })
                .collect()
        })
    }

    /// Number of conversations this site's coordinator is still driving
    /// (open, or answered and collecting acknowledgements): the site's
    /// transaction machines. For tests of the coordinator's clean-up.
    #[doc(hidden)]
    pub fn open_conversations(&self) -> usize {
        self.caller.ask(|site| site.state.home.machines.len())
    }

    /// Simulates the volatile-state loss of a crash and immediately runs
    /// recovery: the committed state is rebuilt from the write-ahead log,
    /// concurrency-control state is reset, and status queries are sent to
    /// the coordinators of in-doubt transactions. A crash is a power loss
    /// that tears nothing (see [`SiteHandle::power_loss`]).
    ///
    /// The caller (normally the cluster / fault injector) is responsible for
    /// marking the site crashed in the [`rainbow_net::FaultController`]
    /// before, and recovering it after, so that no messages flow while the
    /// site is "down".
    pub fn recover_from_crash(&self) -> RainbowResult<()> {
        self.power_loss(PowerLossFault::Clean)
    }

    /// The power-loss nemesis: drops **all** of the site's volatile state —
    /// including whatever the durable engine had buffered but not yet
    /// synced — optionally injecting a torn or corrupted tail write into
    /// the log, then restarts the site from its log alone, on either
    /// storage medium.
    ///
    /// The restart is a call, so no message is handled half before and half
    /// after it. Errors surface recovery failures: a corrupted record
    /// *before* the tail is a typed [`RainbowError::CorruptLog`], not a
    /// panic; a site whose loop is gone is [`RainbowError::SiteUnavailable`].
    pub fn power_loss(&self, fault: PowerLossFault) -> RainbowResult<()> {
        self.caller.call(move |site| site.power_loss(fault))?
    }

    /// Installs committed copies fetched from live peers — the catch-up
    /// ("copier") half of crash recovery for read-one replication protocols
    /// (Available Copies, Primary Copy), driven by the cluster. Only copies
    /// newer than the local ones are installed; returns how many were.
    ///
    /// Like a restart, the repair is a call: its checkpoint rewrites the
    /// log, and a commit forced beside it would be dropped from the log.
    /// `fetch`, which gathers the copies, runs in the call too, so what
    /// reaches the site meanwhile waits until they are installed.
    pub fn repair_copies(
        &self,
        fetch: impl FnOnce() -> Vec<(ItemId, Value, Version)> + Send + 'static,
    ) -> usize {
        self.caller
            .ask(|site| site.state.storage.repair_copies(&fetch()))
    }

    /// Jumps this site's logical clock `ticks` ahead of its current value —
    /// the nemesis "clock skew" fault. Lamport clocks tolerate arbitrary
    /// forward jumps by construction; the skew stresses timestamp-ordering
    /// CCPs (transactions from the skewed site suddenly carry much larger
    /// timestamps, aborting concurrent old-timestamp transactions).
    pub fn skew_clock(&self, ticks: u64) {
        self.caller.ask(move |site| {
            let clock = &mut site.state.clock;
            let ahead = clock.now().saturating_add(ticks);
            clock.observe(Timestamp::new(ahead, site.shared.id.0));
        })
    }

    /// Stops the site and joins its threads: the loop, reaching
    /// [`Msg::Stop`], closes the site (`Site::close`) and ends, and so its
    /// syncer's requests end too.
    pub fn shutdown(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.caller.net.post(NodeId::Site(self.id()), Msg::Stop);
        let _ = thread.join();
        if let Some(syncer) = self.syncer.take() {
            let _ = syncer.join();
        }
    }
}

impl Drop for SiteHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What the loop asks its syncer for: sync the segment the handle holds,
/// and then say that the log is durable through the ticket.
type SyncRequest = (u64, SyncHandle);

/// Starts the syncer of site `id`: a thread that waits for the loop's sync
/// requests, syncs the newest one waiting (a group written while a sync
/// runs rides the next one, and so does a group the loop asked no sync for:
/// acknowledgements waiting for a vote's), and tells the loop by a
/// [`Msg::Synced`]. It ends when the loop drops the sender.
fn start_syncer(id: SiteId, net: NetHandle<Msg>) -> (Sender<SyncRequest>, JoinHandle<()>) {
    let (requests, waiting) = unbounded::<SyncRequest>();
    let syncer = std::thread::Builder::new()
        .name(format!("rainbow-sync-{}", id.0))
        .spawn(move || {
            while let Ok(oldest) = waiting.recv() {
                let newer = std::iter::from_fn(|| waiting.try_recv().ok());
                let (ticket, segment) = newer.last().unwrap_or(oldest);
                let result = segment.sync().map_err(|e| e.to_string());
                net.post(NodeId::Site(id), Msg::Synced { ticket, result });
            }
        })
        .expect("failed to spawn the site's syncer");
    (requests, syncer)
}

/// The thread shell: waits in the mailbox until a message arrives or the
/// last tick's deadline passes (`recv_soon`: a few checks with a yield
/// between them, since the next hop of a transaction usually arrives within
/// microseconds, then a sleep); steps what it drained (at most
/// [`MAX_DRAIN`] messages, each at the time it is taken), ticks, asks the
/// syncer (when there is one) for the sync [`Site::sync_request`] says is
/// due — what the drain wrote for a YES vote at once, a group only
/// acknowledgements wait for on the next vote's sync or at its bound,
/// which the tick's deadline covers — and flushes (and flushes after a
/// step that answered a client, who waits for it). `Msg::Stop`, or a
/// mailbox nobody can send to, closes the site.
fn run(mut site: Site, mailbox: Receiver<Envelope<Msg>>, syncer: Option<Sender<SyncRequest>>) {
    let mut due = Instant::now();
    loop {
        let first = match recv_soon(&mailbox, due.saturating_duration_since(Instant::now())) {
            Ok(envelope) => Some(envelope),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => return site.close(Instant::now()),
        };
        let rest = std::iter::from_fn(|| mailbox.try_recv().ok());
        let mut drained = 0;
        for envelope in first.into_iter().chain(rest).take(MAX_DRAIN) {
            let now = Instant::now();
            if let Msg::Stop = envelope.payload {
                return site.close(now);
            }
            site.step(now, envelope);
            drained += 1;
            // A client waits for what was just queued for it.
            if site.state.home.out.outbox.holds_non_site() {
                site.flush(0);
            }
        }
        let now = Instant::now();
        due = site.tick(now);
        if let Some(syncer) = &syncer {
            if let Some(request) = site.sync_request(now) {
                let _ = syncer.send(request);
            }
        }
        site.flush(drained);
    }
}

/// The coordinators of the transactions whose home is this site — one
/// machine each, in the site's own map — and what their transitions change
/// besides themselves.
#[derive(Default)]
struct Home {
    machines: FxHashMap<TxnId, TxnMachine>,
    out: Effects,
    /// The sequence number of the next transaction this site opens.
    next_seq: u64,
}

/// What a coordinator's transitions change besides their own machine: the
/// site's outbox, where everything they send waits for the loop's flush,
/// and the decision record status queries answer from.
#[derive(Default)]
pub(crate) struct Effects {
    pub outbox: Outbox<Msg>,
    decided: FxHashMap<TxnId, Decision>,
}

impl Effects {
    /// The coordinator's **forced decision record**: notes the fate of a
    /// transaction whose home is this site, where `AcpStatusQuery` answers
    /// from — at once, so a status query later in the same drain sees it.
    /// The coordinator calls it at the decision point (and the abort
    /// fan-out calls it for transactions that never reached one), and
    /// nothing that tells anybody the outcome — no `AcpDecision`, no
    /// `TxnDone` — may leave before it returns: the client is answered at
    /// the decision, so a path that skipped this would promise a commit
    /// that a recovering participant, asking later, is told was aborted.
    /// Today the record is an in-memory map; this is the single place
    /// ROADMAP 11 turns into a forced WAL append.
    pub fn record_decision(&mut self, txn: TxnId, decision: Decision) {
        self.decided.insert(txn, decision);
    }
}

impl Home {
    /// Hands a client command or a site's answer to the machine driving its
    /// transaction, and reaps the machine if that finished it.
    fn deliver(&mut self, shared: &SiteShared, now: Instant, from: NodeId, msg: Msg) {
        let Some(txn) = msg.txn() else {
            return;
        };
        let out = &mut self.out;
        match self.machines.get_mut(&txn) {
            Some(machine) => {
                machine.on_message(&mut Cx { shared, out, now }, from, msg);
                if machine.is_done() {
                    self.machines.remove(&txn);
                }
            }
            // The conversation is gone (idled out, finished, or the site
            // recovered). Tell a waiting client instead of leaving it to its
            // timeout; drop stale protocol messages.
            None => {
                if let Msg::TxnOp { request, .. } = msg {
                    let reply = OpReply::Gone;
                    let gone = Msg::TxnOpReply {
                        request,
                        txn,
                        reply,
                    };
                    out.outbox.push(from, gone);
                }
            }
        }
    }
}

fn dispatch(shared: &SiteShared, state: &mut SiteState, now: Instant, from: NodeId, msg: Msg) {
    // Client commands and responses go straight to the machine driving the
    // transaction they belong to (which answers a command `Gone` when it no
    // longer is: the conversation idled out and was aborted, or the site
    // crashed and recovered).
    if matches!(msg, Msg::TxnOp { .. }) || msg.is_coordinator_response() {
        return state.home.deliver(shared, now, from, msg);
    }
    match msg {
        // A new conversation: allocate its id, and run the first command,
        // which arrived with the begin.
        Msg::TxnBegin {
            request,
            label,
            op,
            clock,
        } => {
            SiteMetrics::bump(&shared.metrics.home_transactions);
            state.clock.observe(Timestamp::new(clock, 0));
            let (ts, home) = (state.clock.issue(), &mut state.home);
            let txn = TxnId::new(shared.id, home.next_seq);
            home.next_seq += 1;
            let out = &mut home.out;
            let cx = &mut Cx { shared, out, now };
            let mut machine = TxnMachine::open(cx, txn, ts, label, from, request);
            machine.on_client_op(cx, op);
            // A first command that ended the transaction (a lone commit, an
            // unsatisfiable quorum) leaves nothing to keep.
            if !machine.is_done() {
                home.machines.insert(txn, machine);
            }
        }
        Msg::CopyRead {
            txn,
            ts,
            item,
            for_update,
        } => {
            SiteMetrics::bump(&shared.metrics.served_requests);
            let access = CopyAccess::Read { for_update };
            handle_copy_access(shared, state, now, from, txn, ts, item, access);
        }
        Msg::CopyPrewrite { txn, ts, item } => {
            SiteMetrics::bump(&shared.metrics.served_requests);
            let access = CopyAccess::Prewrite;
            handle_copy_access(shared, state, now, from, txn, ts, item, access);
        }
        // A lone prepare or commit decision is a group of one.
        Msg::AcpPrepare { txn, ts, writes } => {
            handle_prepare_batch(shared, state, now, from, vec![(txn, ts, writes)]);
        }
        Msg::AcpPreCommit { txn } => {
            handle_precommit(state, now, from, txn);
        }
        Msg::AcpDecision {
            txn,
            decision: Decision::Commit,
        } => handle_decision_commit_batch(shared, state, now, from, vec![txn]),
        Msg::AcpDecision {
            txn,
            decision: Decision::Abort,
        } => handle_abort_decision(shared, state, from, txn),
        Msg::AcpStatusQuery { txn } => {
            let decision = state.home.out.decided.get(&txn).copied();
            state.send(from, Msg::AcpStatusReply { txn, decision });
        }
        // Presumed abort: no decision on record means abort.
        Msg::AcpStatusReply { txn, decision } => {
            handle_status_reply(shared, state, txn, decision.unwrap_or(Decision::Abort));
        }
        Msg::Batch(msgs) => {
            // A coalesced envelope from a site's outbox flush. Prepares and
            // commit decisions are pulled out and handled as groups so their
            // log records are one write (and one sync) each; everything else goes through
            // the normal per-message path (which also routes any coordinator
            // responses the batch carried).
            let mut prepares = Vec::new();
            let mut commits = Vec::new();
            let mut rest = Vec::new();
            for msg in msgs {
                match msg {
                    Msg::AcpPrepare { txn, ts, writes } => prepares.push((txn, ts, writes)),
                    Msg::AcpDecision {
                        txn,
                        decision: Decision::Commit,
                    } => commits.push(txn),
                    other => rest.push(other),
                }
            }
            if !prepares.is_empty() {
                handle_prepare_batch(shared, state, now, from, prepares);
            }
            if !commits.is_empty() {
                handle_decision_commit_batch(shared, state, now, from, commits);
            }
            for msg in rest {
                dispatch(shared, state, now, from, msg);
            }
        }
        // Messages a site never receives (or that only matter to clients /
        // the name server) are ignored; those for a machine went to it
        // above, and a call, a sync's answer or a stop never reaches here.
        // The schema arrived before the loop started: a late answer to a
        // repeated `NsGetSchema` carries the same one.
        Msg::TxnOp { .. }
        | Msg::TxnOpReply { .. }
        | Msg::TxnDone { .. }
        | Msg::NsGetSchema
        | Msg::NsSchema { .. }
        | Msg::CopyReply { .. }
        | Msg::AcpVote { .. }
        | Msg::AcpPreCommitAck { .. }
        | Msg::AcpAck { .. }
        | Msg::Call(..)
        | Msg::Synced { .. }
        | Msg::Stop => {}
    }
}

/// The kind of copy access requested by the RCP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyAccess {
    /// A plain read (shared access).
    Read {
        /// Read on behalf of a read-modify-write: take write access first so
        /// no shared→exclusive upgrade is needed later.
        for_update: bool,
    },
    /// A pre-write (exclusive access, returns the version only).
    Prewrite,
}

/// A copy access the CCP is being asked about.
struct CopyRequest {
    from: NodeId,
    ctx: TxnContext,
    item: ItemId,
    access: CopyAccess,
    /// The committed copy when the request arrived.
    current: (Value, Version),
    /// Tracer time when the CCP was first asked.
    lock_start: u64,
}

impl CopyRequest {
    /// Asks the CCP, which never blocks; `None` means the access must wait
    /// and is to be asked again.
    fn ask(&self, ccp: &mut dyn CcProtocol) -> Option<CcDecision> {
        let (ctx, item, current) = (&self.ctx, &self.item, || self.current.clone());
        match self.access {
            CopyAccess::Prewrite => ccp.prewrite(ctx, item, current()),
            CopyAccess::Read { for_update: false } => ccp.read(ctx, item, current()),
            // Write access first (exclusive lock / pre-write validation),
            // then the read; this avoids the classic shared→exclusive
            // upgrade deadlock for read-modify-write operations. If the read
            // half must wait after the pre-write was granted, the whole
            // access is asked again; granting a pre-write twice equals
            // granting it once in every CCP.
            CopyAccess::Read { for_update: true } => match ccp.prewrite(ctx, item, current())? {
                CcDecision::Granted { .. } => ccp.read(ctx, item, current()),
                rejected => Some(rejected),
            },
        }
    }

    /// Turns the CCP's decision on the access, at `now`, into the reply.
    fn finish(
        self,
        shared: &SiteShared,
        state: &mut SiteState,
        now: Instant,
        decision: CcDecision,
    ) {
        let CopyRequest {
            from,
            ctx,
            item,
            access,
            current,
            lock_start,
        } = self;
        // From the first time the CCP was asked to its decision is where lock
        // waits happen (parked time included): that *is* the lock-acquisition
        // phase, granted or not.
        shared.trace_site_span(
            ctx.id,
            Some(Phase::LockWait),
            if decision.is_granted() {
                "ccp:grant"
            } else {
                "ccp:deny"
            },
            lock_start,
            || format!("{item} {access:?}"),
        );
        let result = match decision {
            CcDecision::Granted { value_override } => {
                // The access may have waited (parked behind a lock). Two
                // things follow. First, the transaction may have been decided
                // (committed or aborted) in the meantime — its participant
                // entry is gone and nobody will ever release what we just
                // acquired, so release it right now and refuse the access.
                // Second, re-read the committed state *after* the grant so the
                // value reflects every transaction serialized before us.
                match state.participants.get_mut(&ctx.id) {
                    None => {
                        state.ccp.abort(&ctx);
                        lock_conflict(&item, None)
                    }
                    Some(entry) => {
                        entry.last_activity = now;
                        let (value, version) = match value_override {
                            Some(pair) => pair,
                            None => state.storage.read(&item).unwrap_or(current),
                        };
                        CopyAccessResult::Granted {
                            value: (access != CopyAccess::Prewrite).then_some(value),
                            version,
                        }
                    }
                }
            }
            CcDecision::Rejected(cause) => CopyAccessResult::Denied(cause),
        };
        state.send(from, access.reply(ctx.id, item, result));
    }
}

/// A copy access the CCP said must wait, and until when the site keeps
/// asking.
struct Parked {
    request: CopyRequest,
    deadline: Instant,
}

impl CopyAccess {
    /// The answer to this access of `txn`'s to `item`.
    fn reply(self, txn: TxnId, item: ItemId, result: CopyAccessResult) -> Msg {
        let prewrite = self == CopyAccess::Prewrite;
        let for_update = self == CopyAccess::Read { for_update: true };
        Msg::CopyReply {
            txn,
            item,
            prewrite,
            for_update,
            result,
        }
    }
}

fn lock_conflict(item: &ItemId, holder: Option<TxnId>) -> CopyAccessResult {
    CopyAccessResult::Denied(AbortCause::CcpLockConflict {
        item: item.clone(),
        holder,
    })
}

/// Handles a copy read or pre-write request at `now`: the request is
/// refused, or answered with what the CCP decided, or — when the CCP says
/// it must wait — parked until `now` plus the CCP's wait budget.
#[allow(clippy::too_many_arguments)]
fn handle_copy_access(
    shared: &SiteShared,
    state: &mut SiteState,
    now: Instant,
    from: NodeId,
    txn: TxnId,
    ts: Timestamp,
    item: ItemId,
    access: CopyAccess,
) {
    state.clock.observe(ts);
    let refuse =
        |state: &mut SiteState, item, result| state.send(from, access.reply(txn, item, result));
    // Refuse accesses for transactions that already finished at this site
    // (their decision raced ahead of this request); granting would leak a
    // lock nobody releases.
    if state.finished.contains(&txn) {
        let denied = lock_conflict(&item, None);
        return refuse(state, item, denied);
    }
    // Items in an in-doubt transaction's prepared write set are
    // untouchable: the crash destroyed the locks that protected them, the
    // prepared (pre-commit) version is what a read would return, and the
    // outcome is unknown until ACP termination resolves it. Granting any
    // access here lets a reader serialize against state that may be about
    // to change — the write-skew anomaly the chaos lab convicts — so deny
    // and let the client retry after the in-doubt window closes.
    let in_doubt_holder = state.in_doubt.holder_blocking(&item, txn);
    if in_doubt_holder.is_some() {
        let denied = lock_conflict(&item, in_doubt_holder);
        return refuse(state, item, denied);
    }
    // Register the participant entry before asking, so a decision that is
    // already queued behind this request finds the entry and cleans it up.
    let ctx = state.ensure_participant(shared, now, txn, ts, from);
    let Ok(current) = state.storage.read(&item) else {
        return refuse(state, item, CopyAccessResult::NoSuchCopy);
    };
    let request = CopyRequest {
        from,
        ctx,
        item,
        access,
        current,
        lock_start: shared.trace_now(),
    };
    match request.ask(state.ccp.as_mut()) {
        Some(decision) => {
            SiteMetrics::bump(&shared.metrics.copy_accesses_inline);
            request.finish(shared, state, now, decision);
        }
        None => {
            SiteMetrics::bump(&shared.metrics.copy_accesses_parked);
            let deadline = now + state.ccp.wait_budget();
            state.parked.push(Parked { request, deadline });
        }
    }
}

/// Asks the CCP again about every parked copy access, oldest first: the
/// ones it now decides are answered, and the ones whose deadline passed by
/// `now`, or whose transaction was decided or cleaned up while they
/// waited, give up and are denied. Returns the earliest deadline among
/// those still parked.
fn ask_parked_again(shared: &SiteShared, state: &mut SiteState, now: Instant) -> Option<Instant> {
    if state.parked.is_empty() {
        return None;
    }
    for Parked { request, deadline } in std::mem::take(&mut state.parked) {
        let abandoned = !state.participants.contains_key(&request.ctx.id);
        let answer = if abandoned {
            None
        } else {
            request.ask(state.ccp.as_mut())
        };
        match answer {
            Some(decision) => request.finish(shared, state, now, decision),
            None if abandoned || now >= deadline => {
                let cause = state.ccp.give_up(&request.ctx, &request.item);
                request.finish(shared, state, now, CcDecision::Rejected(cause));
            }
            None => state.parked.push(Parked { request, deadline }),
        }
    }
    state.parked.iter().map(|waiting| waiting.deadline).min()
}

/// Handles the PREPARE requests of the commit protocol that arrived in one
/// envelope (one, or a coalesced batch): each transaction is validated and
/// staged individually, but the prepare records of every YES-voter are
/// written with a **single** [`rainbow_storage::SiteStorage::prepare_group`]
/// group append — the group-commit half of the outbox pipeline. The votes
/// go to the outbox, which sends the coordinator node one envelope; a YES
/// vote goes once the group is durable (on segment files, once the
/// site's syncer has synced it), NO and READ-ONLY votes at once.
///
/// A transaction that wrote nothing here and validates votes **READ-ONLY**:
/// it is released at once, stages and logs nothing, and leaves — no
/// participant entry is kept and it joins `finished`, so a late access is
/// refused exactly as after a decision, and no decision will come. The
/// validation is not skipped for it: under 2PL it is what notices read
/// locks a crash wiped since the read.
///
/// A transaction already in `finished` votes NO and opens no entry: it was
/// decided or cleaned up here, or lost its grants in a crash, so nothing
/// protects a write it would stage now. A coordinator sends its prepare
/// once, so a legitimate one never meets `finished`.
fn handle_prepare_batch(
    shared: &SiteShared,
    state: &mut SiteState,
    now: Instant,
    from: NodeId,
    prepares: Vec<(TxnId, Timestamp, WriteSet)>,
) {
    let prepare_start = shared.trace_now();
    let group = prepares.len();
    // Phase 1: validate through the CCP and stage the writes of every
    // transaction that can commit.
    let mut rounds: Vec<(TxnId, TxnContext, Vote, usize)> = Vec::with_capacity(group);
    let mut yes_voters: Vec<TxnId> = Vec::with_capacity(group);
    for (txn, ts, writes) in prepares {
        SiteMetrics::bump(&shared.metrics.served_requests);
        state.clock.observe(ts);
        if state.finished.contains(&txn) {
            let vote = Vote::No;
            state.send(from, Msg::AcpVote { txn, vote });
            continue;
        }
        let ctx = state.ensure_participant(shared, now, txn, ts, from);
        let vote = if !state.ccp.validate(&ctx).is_granted() {
            Vote::No
        } else if writes.is_empty() {
            Vote::ReadOnly
        } else {
            for (item, value, version) in &writes {
                let (item, value) = (item.clone(), value.clone());
                state.storage.stage_write(txn, item, value, *version);
            }
            yes_voters.push(txn);
            Vote::Yes
        };
        rounds.push((txn, ctx, vote, writes.len()));
    }
    // Phase 2: one group holds every YES-voter's prepare record. A YES
    // vote leaves this site only once the group is durable.
    let (_, ticket) = state.storage.prepare_group(&yes_voters);
    // Phase 3: advance the participant machines and vote.
    for (txn, ctx, vote, writes) in rounds {
        let entry = state.participants.get_mut(&txn);
        let entry = entry.expect("entry ensured above");
        entry.last_activity = now;
        if entry.machine.state() == ParticipantState::Working {
            // Its first prepare: whatever it votes, it is no longer to vote.
            state.to_vote -= 1;
        }
        if let ParticipantAction::SendVote(vote) = entry.machine.on_prepare(vote) {
            match vote {
                Vote::Yes => {}
                Vote::No => {
                    // Voting NO releases local resources immediately.
                    state.storage.abort(txn);
                    state.ccp.abort(&ctx);
                }
                Vote::ReadOnly => {
                    SiteMetrics::bump(&shared.metrics.votes_read_only);
                    state.finished.insert(txn);
                    state.remove_participant(txn);
                    state.ccp.commit(&ctx, &[]);
                }
            }
            let span = VoteSpan {
                start_us: prepare_start,
                writes,
                group,
            };
            let ticket = ticket.filter(|_| vote == Vote::Yes);
            let msg = Msg::AcpVote { txn, vote };
            state.send_when_durable(shared, now, ticket, from, msg, Some(span));
        }
    }
}

/// Handles the COMMIT decisions that arrived in one envelope (one, or a
/// coalesced batch): every participant machine advances individually, then
/// all the commit records are written with a single
/// [`rainbow_storage::SiteStorage::commit_group`] group append, which
/// installs the writes and releases the locks. The acks leave once the
/// group is durable, in one envelope to the coordinator node; `now` is
/// when they are held.
fn handle_decision_commit_batch(
    shared: &SiteShared,
    state: &mut SiteState,
    now: Instant,
    from: NodeId,
    txns: Vec<TxnId>,
) {
    let apply_start = shared.trace_now();
    let group = txns.len();
    let mut to_apply: Vec<(TxnId, TxnContext)> = Vec::with_capacity(group);
    for &txn in &txns {
        state.finished.insert(txn);
        if let Some(mut entry) = state.remove_participant(txn) {
            match entry.machine.on_decision(Decision::Commit) {
                ParticipantAction::ApplyAndAck(Decision::Commit) => {
                    to_apply.push((txn, entry.ctx));
                }
                ParticipantAction::ApplyAndAck(Decision::Abort) => {
                    apply_decision(shared, state, &entry.ctx, Decision::Abort);
                }
                _ => {}
            }
        } else {
            state.resolve_in_doubt(txn, Decision::Commit);
        }
    }
    let apply_ids: Vec<TxnId> = to_apply.iter().map(|(txn, _)| *txn).collect();
    let (write_sets, ticket) = state.storage.commit_group(&apply_ids);
    // Ack even without a participant entry (already applied, cleaned up, or
    // crashed and recovered — then the decision may be the answer an
    // in-doubt transaction is waiting for), so the coordinator can finish.
    for txn in txns {
        state.send_when_durable(shared, now, ticket, from, Msg::AcpAck { txn }, None);
    }
    for ((txn, ctx), writes) in to_apply.iter().zip(write_sets.iter()) {
        state.ccp.commit(ctx, writes);
        shared.trace_site_span(
            *txn,
            Some(Phase::CommitApply),
            "apply:commit",
            apply_start,
            || format!("{} writes installed (group of {group})", writes.len()),
        );
    }
}

/// Handles the 3PC PRE-COMMIT message.
fn handle_precommit(state: &mut SiteState, now: Instant, from: NodeId, txn: TxnId) {
    let action = match state.participants.get_mut(&txn) {
        Some(entry) => {
            entry.last_activity = now;
            entry.machine.on_precommit()
        }
        None => ParticipantAction::Wait,
    };
    if action == ParticipantAction::SendPreCommitAck {
        state.send(from, Msg::AcpPreCommitAck { txn });
    }
}

/// Handles the coordinator's ABORT decision (or release notice).
fn handle_abort_decision(shared: &SiteShared, state: &mut SiteState, from: NodeId, txn: TxnId) {
    state.finished.insert(txn);
    match state.remove_participant(txn) {
        Some(mut entry) => {
            let action = entry.machine.on_decision(Decision::Abort);
            if let ParticipantAction::ApplyAndAck(applied) = action {
                apply_decision(shared, state, &entry.ctx, applied);
            }
        }
        // We have no record (already applied, cleaned up, or we crashed
        // and recovered): acknowledge all the same.
        None => {
            state.resolve_in_doubt(txn, Decision::Abort);
        }
    }
    state.send(from, Msg::AcpAck { txn });
}

/// Handles the reply to a status query sent for an in-doubt transaction (or
/// by a blocked participant).
fn handle_status_reply(shared: &SiteShared, state: &mut SiteState, txn: TxnId, decision: Decision) {
    // Case 1: an in-doubt transaction from crash recovery.
    if state.resolve_in_doubt(txn, decision) {
        return;
    }

    // Case 2: a blocked (prepared) participant resolving via its coordinator.
    if let Some(mut entry) = state.remove_participant(txn) {
        state.finished.insert(txn);
        if let ParticipantAction::ApplyAndAck(applied) = entry.machine.on_decision(decision) {
            apply_decision(shared, state, &entry.ctx, applied);
        }
    }
}

/// Applies a commit/abort decision to storage and the CCP.
fn apply_decision(
    shared: &SiteShared,
    state: &mut SiteState,
    ctx: &TxnContext,
    decision: Decision,
) {
    let apply_start = shared.trace_now();
    match decision {
        Decision::Commit => {
            let writes = state.storage.commit(ctx.id);
            state.ccp.commit(ctx, &writes);
            shared.trace_site_span(
                ctx.id,
                Some(Phase::CommitApply),
                "apply:commit",
                apply_start,
                || format!("{} writes installed", writes.len()),
            );
        }
        Decision::Abort => {
            state.storage.abort(ctx.id);
            state.ccp.abort(ctx);
            shared.trace_site_span(ctx.id, None, "apply:abort", apply_start, String::new);
        }
    }
}

/// Cleans up transactions whose coordinator never came back, so their locks
/// do not wedge the site forever. Prepared participants ask the coordinator
/// for the decision (cooperative termination); working participants are
/// aborted unilaterally. `now` is when it runs.
fn run_janitor(shared: &SiteShared, state: &mut SiteState, now: Instant) {
    let horizon = shared.stack.janitor_horizon();
    let mut stale_working: Vec<(TxnId, TxnContext)> = Vec::new();
    let mut stale_prepared: Vec<(TxnId, NodeId)> = Vec::new();
    state.participants.retain(|txn, entry| {
        if now.duration_since(entry.last_activity) < horizon {
            return true;
        }
        match entry.machine.state() {
            ParticipantState::Working => {
                stale_working.push((*txn, entry.ctx));
                state.to_vote -= 1;
                false
            }
            ParticipantState::Prepared | ParticipantState::PreCommitted => {
                // Keep the entry (still blocked / uncertain) but ask the
                // coordinator what happened; refresh the activity stamp so
                // we do not spam queries every janitor pass.
                stale_prepared.push((*txn, entry.coordinator));
                entry.last_activity = now;
                true
            }
            ParticipantState::Committed | ParticipantState::Aborted => false,
        }
    });
    for (txn, ctx) in stale_working {
        SiteMetrics::bump(&shared.metrics.janitor_cleanups);
        state.finished.insert(txn);
        apply_decision(shared, state, &ctx, Decision::Abort);
    }
    for (txn, coordinator) in stale_prepared {
        state.send(coordinator, Msg::AcpStatusQuery { txn });
    }
    // In-doubt transactions found during crash recovery keep asking their
    // coordinator until an answer arrives. The initial query (sent by the
    // restart) is dropped whenever the fault controller still marks this
    // site crashed — the normal recovery order — so without this retry an
    // in-doubt commit could stay uninstalled forever.
    let outbox = &mut state.home.out.outbox;
    for &txn in state.in_doubt.writes.keys() {
        outbox.push(NodeId::Site(txn.home), Msg::AcpStatusQuery { txn });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::NextOp;
    use rainbow_common::txn::{TxnOutcome, TxnResult};
    use rainbow_common::MessageId;
    use rainbow_net::{NetworkConfig, SimNetwork};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn build_site(
        net: &SimNetwork<Msg>,
        id: u32,
        schema: &DatabaseSchema,
        stack: ProtocolStack,
        storage: &StorageConfig,
    ) -> SiteHandle {
        let mailbox = net.register(NodeId::site(id));
        SiteHandle::spawn_with_schema(
            SiteId(id),
            stack,
            storage,
            schema.clone(),
            net.handle(),
            mailbox,
            Arc::new(SiteMetrics::new()),
            None,
            None,
        )
        .expect("spawn site")
    }

    fn quick_stack() -> ProtocolStack {
        ProtocolStack::default()
            .with_lock_wait_timeout(Duration::from_millis(100))
            .with_commit_timeout(Duration::from_millis(300))
            .with_quorum_timeout(Duration::from_millis(300))
    }

    fn schema_for(sites: &[SiteId]) -> DatabaseSchema {
        DatabaseSchema::uniform(4, 100, sites, sites.len()).unwrap()
    }

    /// One site holding `x0`..`x3` (100 each), and a node playing the
    /// coordinators of transactions `(9, n)` with timestamp `n`.
    struct OneSite {
        net: SimNetwork<Msg>,
        site: SiteHandle,
        replies: Receiver<Envelope<Msg>>,
    }

    impl OneSite {
        fn new(stack: ProtocolStack) -> Self {
            Self::on(stack, &StorageConfig::memory())
        }

        fn on(stack: ProtocolStack, storage: &StorageConfig) -> Self {
            let net = SimNetwork::<Msg>::new(NetworkConfig::perfect());
            let site = build_site(&net, 0, &schema_for(&[SiteId(0)]), stack, storage);
            let replies = net.register(NodeId::Client(0));
            OneSite { net, site, replies }
        }

        fn txn(n: u64) -> (TxnId, Timestamp) {
            (TxnId::new(SiteId(9), n), Timestamp::new(n, 9))
        }

        fn send(&self, msg: Msg) {
            let net = self.net.handle();
            net.send(NodeId::Client(0), NodeId::site(0), msg).unwrap();
        }

        fn read(&self, n: u64, item: &str) {
            let ((txn, ts), item) = (Self::txn(n), ItemId::new(item));
            self.send(Msg::CopyRead {
                txn,
                ts,
                item,
                for_update: false,
            });
        }

        fn prewrite(&self, n: u64, item: &str) {
            let ((txn, ts), item) = (Self::txn(n), ItemId::new(item));
            self.send(Msg::CopyPrewrite { txn, ts, item });
        }

        fn decide(&self, n: u64, decision: Decision) {
            let txn = Self::txn(n).0;
            self.send(Msg::AcpDecision { txn, decision });
        }

        fn abort(&self, n: u64) {
            self.decide(n, Decision::Abort);
        }

        /// Sends T`n`'s prepare with no writes for this site.
        fn prepare_nothing(&self, n: u64) {
            let (txn, ts) = Self::txn(n);
            let writes = Vec::new();
            self.send(Msg::AcpPrepare { txn, ts, writes });
        }

        /// Sends T`n`'s prepare with one write of `item`.
        fn prepare_writing(&self, n: u64, item: &str) {
            let (txn, ts) = Self::txn(n);
            let writes = vec![(ItemId::new(item), Value::Int(7), Version(n))];
            self.send(Msg::AcpPrepare { txn, ts, writes });
        }

        /// The site's next message.
        fn next(&self) -> Msg {
            let next = self.replies.recv_timeout(Duration::from_secs(5));
            next.expect("the site answers").payload
        }

        /// The site's next message: which transaction it is about, and
        /// whether access was granted when it answers a copy access.
        fn reply(&self) -> (u64, Option<Result<(), AbortCause>>) {
            match self.next() {
                Msg::CopyReply { txn, result, .. } => match result {
                    CopyAccessResult::Granted { .. } => (txn.seq, Some(Ok(()))),
                    CopyAccessResult::Denied(cause) => (txn.seq, Some(Err(cause))),
                    CopyAccessResult::NoSuchCopy => panic!("no such copy"),
                },
                other => (other.txn().expect("about a transaction").seq, None),
            }
        }

        fn granted(&self, n: u64) {
            assert_eq!(self.reply(), (n, Some(Ok(()))));
        }

        fn acked(&self, n: u64) {
            assert!(matches!(self.next(), Msg::AcpAck { txn } if txn == Self::txn(n).0));
        }

        fn voted(&self, n: u64, expected: Vote) {
            let next = self.next();
            let txn = Self::txn(n).0;
            assert!(
                matches!(next, Msg::AcpVote { txn: t, vote } if t == txn && vote == expected),
                "{next:?}"
            );
        }

        fn silent_for(&self, quiet: Duration) {
            let reply = self.replies.recv_timeout(quiet);
            assert!(reply.is_err(), "unexpected {reply:?}");
        }
    }

    #[test]
    fn site_initializes_only_its_own_copies() {
        let net = SimNetwork::<Msg>::new(NetworkConfig::perfect());
        let sites: Vec<SiteId> = vec![SiteId(0), SiteId(1)];
        // Items replicated only on site 0.
        let mut schema = DatabaseSchema::new();
        schema.declare(
            "only-on-0",
            1i64,
            rainbow_common::config::ItemPlacement::majority(vec![SiteId(0)]),
        );
        schema.declare(
            "everywhere",
            2i64,
            rainbow_common::config::ItemPlacement::majority(sites.clone()),
        );
        let memory = StorageConfig::memory();
        let s0 = build_site(&net, 0, &schema, quick_stack(), &memory);
        let s1 = build_site(&net, 1, &schema, quick_stack(), &memory);
        assert_eq!(s0.database_snapshot().len(), 2);
        assert_eq!(s1.database_snapshot().len(), 1);
        assert_eq!(s0.id(), SiteId(0));
        assert_eq!(s1.active_transactions(), 0);
    }

    #[test]
    fn copy_read_request_is_served_through_ccp() {
        let one = OneSite::new(quick_stack());
        one.read(1, "x0");
        match one.next() {
            Msg::CopyReply {
                txn,
                prewrite,
                result: CopyAccessResult::Granted { value, version },
                ..
            } => {
                assert_eq!(txn, OneSite::txn(1).0);
                assert!(!prewrite);
                assert_eq!(value, Some(Value::Int(100)));
                assert_eq!(version, Version(0));
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn copy_access_to_unknown_item_reports_no_such_copy() {
        let one = OneSite::new(quick_stack());
        one.prewrite(1, "missing");
        assert!(matches!(
            one.next(),
            Msg::CopyReply {
                result: CopyAccessResult::NoSuchCopy,
                prewrite: true,
                ..
            }
        ));
    }

    #[test]
    fn prepare_and_commit_install_writes() {
        let one = OneSite::new(quick_stack());
        // Pre-write through the CCP first (as the RCP would).
        one.prewrite(1, "x1");
        one.granted(1);
        // Prepare with the write payload.
        let (txn, ts) = OneSite::txn(1);
        let written = (ItemId::new("x1"), Value::Int(777), Version(1));
        one.send(Msg::AcpPrepare {
            txn,
            ts,
            writes: vec![written.clone()],
        });
        let vote = one.next();
        assert!(matches!(
            vote,
            Msg::AcpVote {
                vote: Vote::Yes,
                ..
            }
        ));
        one.decide(1, Decision::Commit);
        one.acked(1);
        assert!(one.site.database_snapshot().contains(&written));
        assert_eq!(one.site.active_transactions(), 0, "locks must be released");
    }

    #[test]
    fn decision_for_unknown_transaction_is_acked_idempotently() {
        let one = OneSite::new(quick_stack());
        one.abort(42);
        one.acked(42);
    }

    #[test]
    fn status_query_answers_from_the_decision_log() {
        let one = OneSite::new(quick_stack());
        let txn = TxnId::new(SiteId(0), 7);
        let record =
            move |site: &mut Site| site.state.home.out.record_decision(txn, Decision::Commit);
        one.site.caller.ask(record);
        one.send(Msg::AcpStatusQuery { txn });
        assert!(matches!(
            one.next(),
            Msg::AcpStatusReply {
                decision: Some(Decision::Commit),
                ..
            }
        ));
        // Unknown transaction: presumed abort (no decision on record).
        one.send(Msg::AcpStatusQuery {
            txn: TxnId::new(SiteId(0), 999),
        });
        assert!(matches!(
            one.next(),
            Msg::AcpStatusReply { decision: None, .. }
        ));
    }

    #[test]
    fn a_parked_access_gives_up_at_its_deadline_and_names_the_holder() {
        let lock_wait = quick_stack().lock_wait_timeout;
        let one = OneSite::new(quick_stack());
        one.prewrite(1, "x0");
        one.granted(1);
        let asked = Instant::now();
        one.prewrite(2, "x0");
        let reply = one.reply();
        let waited = asked.elapsed();
        let denied = AbortCause::CcpLockConflict {
            item: ItemId::new("x0"),
            holder: Some(TxnId::new(SiteId(9), 1)),
        };
        assert_eq!(reply, (2, Some(Err(denied))));
        assert!(waited >= lock_wait, "gave up after {waited:?}");
        assert!(waited < lock_wait + Duration::from_millis(30), "{waited:?}");
        // Nothing of the request is left: T1 alone holds resources.
        assert_eq!(one.site.active_transactions(), 1);
        assert_eq!(
            one.site
                .metrics()
                .copy_accesses_parked
                .load(Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn parked_accesses_are_answered_in_arrival_order_and_an_abort_ends_a_wait() {
        let one = OneSite::new(quick_stack().with_lock_wait_timeout(Duration::from_secs(5)));
        one.prewrite(1, "x0");
        one.granted(1);
        for waiter in [2, 3, 4] {
            one.prewrite(waiter, "x0");
        }
        // T3 is aborted (by its coordinator's timeout, say) while it waits:
        // the pass after the abort denies its access.
        one.abort(3);
        one.acked(3);
        let (txn, answer) = one.reply();
        assert!(matches!(answer, Some(Err(_))), "{answer:?}");
        assert_eq!(txn, 3);
        // The pass after T1's abort finds the lock free: T2, first to
        // arrive, has it, and T4 keeps waiting.
        one.abort(1);
        one.acked(1);
        one.granted(2);
        // A newcomer does not pass T4 once T2 is gone, and no ghost of T3
        // stands between T4 and the lock.
        one.prewrite(5, "x0");
        one.abort(2);
        one.acked(2);
        one.granted(4);
        one.abort(4);
        one.acked(4);
        one.granted(5);
        one.abort(5);
        one.acked(5);
        assert_eq!(one.site.active_transactions(), 0);
    }

    #[test]
    fn a_crash_drops_what_was_parked_and_the_recovered_site_serves_the_item() {
        let one = OneSite::new(quick_stack());
        one.prewrite(1, "x0");
        one.granted(1);
        one.prewrite(2, "x0");
        one.silent_for(Duration::from_millis(20));
        one.site.recover_from_crash().unwrap();
        assert_eq!(one.site.active_transactions(), 0);
        // The lock table T2 was queued in is gone, and T2's request with it:
        // T3 has x0 at once and T2 is never answered, not even at what
        // would have been its deadline.
        one.prewrite(3, "x0");
        one.granted(3);
        one.silent_for(quick_stack().lock_wait_timeout + Duration::from_millis(50));
        assert_eq!(one.site.active_transactions(), 1);
    }

    #[test]
    fn a_parked_transaction_that_is_wounded_is_rejected_by_the_next_pass() {
        let stack = quick_stack()
            .with_deadlock_policy(rainbow_common::protocol::DeadlockPolicy::WoundWait)
            .with_lock_wait_timeout(Duration::from_secs(5));
        let one = OneSite::new(stack);
        one.prewrite(1, "x0");
        one.granted(1);
        one.prewrite(5, "x1");
        one.granted(5);
        // The younger T5 waits for the older T1 …
        one.prewrite(5, "x0");
        one.silent_for(Duration::from_millis(20));
        // … until the older T3 finds T5 holding x1 and wounds it: the pass
        // after T3's request rejects T5's parked access, nothing released.
        one.prewrite(3, "x1");
        let denied = AbortCause::CcpDeadlock {
            item: ItemId::new("x0"),
        };
        assert_eq!(one.reply(), (5, Some(Err(denied))));
        // T5's coordinator aborts it, which is what T3 was waiting for.
        one.abort(5);
        one.acked(5);
        one.granted(3);
    }

    #[test]
    fn a_transaction_that_lost_its_grants_in_a_crash_is_refused_afterwards() {
        let one = OneSite::new(quick_stack());
        // Granted a read lock on x0 before the crash …
        one.read(1, "x0");
        one.granted(1);
        // … which the crash takes away: x0 is free for anybody now.
        one.site.recover_from_crash().unwrap();
        assert_eq!(one.site.active_transactions(), 0);

        // Coming back for x1 must not succeed: holding *a* lock again would
        // let the site vouch (READ-ONLY, as T1 wrote nothing here) for a
        // read of x0 it no longer protects; holding nothing, it votes NO.
        one.read(1, "x1");
        let reply = one.reply();
        assert!(
            matches!(reply, (1, Some(Err(AbortCause::CcpLockConflict { .. })))),
            "{reply:?}"
        );
        one.prepare_nothing(1);
        one.voted(1, Vote::No);
        assert_eq!(one.site.active_transactions(), 0);
    }

    #[test]
    fn a_prepare_for_a_finished_transaction_votes_no_and_opens_no_entry() {
        use rainbow_common::protocol::CcpKind;
        for ccp in [
            CcpKind::TwoPhaseLocking,
            CcpKind::TimestampOrdering,
            CcpKind::MultiversionTimestampOrdering,
        ] {
            let one = OneSite::new(quick_stack().with_ccp(ccp));
            one.prewrite(1, "x0");
            one.granted(1);
            // The crash wipes the pre-write, and T1 is finished here: a
            // write staged now would have nothing protecting it.
            one.site.recover_from_crash().unwrap();
            one.prepare_writing(1, "x0");
            one.voted(1, Vote::No);
            let txn = OneSite::txn(1).0;
            let staged = one
                .site
                .caller
                .ask(move |site| site.state.storage.staged_writes(&txn));
            assert!(staged.is_empty(), "{ccp:?} staged {staged:?}");
            assert!(one.site.lingering_participants().is_empty(), "{ccp:?}");
            assert_eq!(one.site.active_transactions(), 0, "{ccp:?}");
        }
    }

    #[test]
    fn a_restart_never_runs_beside_a_message() {
        let dir = std::env::temp_dir().join(format!("rainbow-restart-{}", std::process::id()));
        let one = OneSite::on(quick_stack(), &StorageConfig::disk(&dir));
        let stop = AtomicBool::new(false);
        let died_at = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    one.site.recover_from_crash().unwrap();
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
            // A restart drops a parked access unanswered: read leniently.
            let answer = || one.replies.recv_timeout(Duration::from_millis(300));
            let died_at = (1..=3_000).find(|&n| {
                one.prewrite(n, "x0");
                let _ = answer();
                one.prepare_writing(n, "x0");
                let _ = answer();
                one.abort(n);
                let _ = answer();
                one.site.thread.as_ref().expect("started").is_finished()
            });
            stop.store(true, Ordering::Relaxed);
            died_at
        });
        assert_eq!(died_at, None, "the site loop died at this transaction");
        one.send(Msg::AcpStatusQuery {
            txn: TxnId::new(SiteId(0), 1),
        });
        let mut answers =
            std::iter::from_fn(|| one.replies.recv_timeout(Duration::from_secs(5)).ok());
        assert!(answers.any(|answer| matches!(answer.payload, Msg::AcpStatusReply { .. })));
        drop(one);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A repair checkpoints: it snapshots the store, then rewrites the log.
    /// Beside a commit it would keep neither the commit's log record nor
    /// its write. Each round ends with a restart from the log alone.
    #[test]
    fn a_repair_never_runs_beside_a_message() {
        let one = OneSite::new(quick_stack());
        let (mut n, mut version) = (0, 0);
        for round in 0..10 {
            let stop = AtomicBool::new(false);
            let last = std::thread::scope(|scope| {
                // x3 is touched by no transaction: each repair installs a
                // newer copy of it, so each one checkpoints.
                scope.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        version += 1;
                        let copy = (ItemId::new("x3"), Value::Int(0), Version(version));
                        assert_eq!(one.site.repair_copies(|| vec![copy]), 1);
                    }
                });
                let mut last = HashMap::new();
                for _ in 0..200 {
                    n += 1;
                    let ((txn, ts), item) = (OneSite::txn(n), format!("x{}", n % 3));
                    one.prewrite(n, &item);
                    one.granted(n);
                    let write = (ItemId::new(item), Value::Int(n as i64), Version(n));
                    let writes = vec![write.clone()];
                    one.send(Msg::AcpPrepare { txn, ts, writes });
                    one.voted(n, Vote::Yes);
                    one.decide(n, Decision::Commit);
                    one.acked(n);
                    last.insert(write.0.clone(), write);
                }
                stop.store(true, Ordering::Relaxed);
                last
            });
            one.site.recover_from_crash().unwrap();
            let snapshot = one.site.database_snapshot();
            for write in last.values() {
                assert!(snapshot.contains(write), "round {round} lost {write:?}");
            }
        }
    }

    #[test]
    fn a_read_only_vote_releases_at_once_and_a_parked_writer_is_granted_by_the_next_pass() {
        let one = OneSite::new(quick_stack().with_lock_wait_timeout(Duration::from_secs(5)));
        one.read(1, "x0");
        one.granted(1);
        one.prewrite(2, "x0");
        one.silent_for(Duration::from_millis(20));
        // T1 wrote nothing here: it validates, releases and votes READ-ONLY,
        // and the pass after the prepare hands x0 to T2.
        one.prepare_nothing(1);
        one.voted(1, Vote::ReadOnly);
        one.granted(2);
        assert_eq!(one.site.active_transactions(), 1, "T2 alone holds x0");
        assert_eq!(
            one.site.metrics().votes_read_only.load(Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn a_read_only_vote_leaves_no_entry_and_no_record_and_a_late_access_is_refused() {
        let one = OneSite::new(quick_stack());
        let log = || {
            one.site.caller.ask(|site| {
                let storage = &site.state.storage;
                (storage.record_count(), storage.force_count())
            })
        };
        one.read(1, "x0");
        one.granted(1);
        let before = log();
        one.prepare_nothing(1);
        one.voted(1, Vote::ReadOnly);
        assert!(one.site.lingering_participants().is_empty());
        assert_eq!(log(), before, "nothing is logged or forced");
        // No decision will come, so the site treats T1 as decided: a late
        // access is refused and takes nothing.
        one.read(1, "x1");
        let reply = one.reply();
        assert!(
            matches!(reply, (1, Some(Err(AbortCause::CcpLockConflict { .. })))),
            "{reply:?}"
        );
        assert_eq!(one.site.active_transactions(), 0);
        assert!(one.site.lingering_participants().is_empty());
    }

    #[test]
    fn crash_recovery_restores_committed_state_and_resets_ccp() {
        let net = SimNetwork::<Msg>::new(NetworkConfig::perfect());
        let sites = vec![SiteId(0)];
        let schema = schema_for(&sites);
        let site = build_site(&net, 0, &schema, quick_stack(), &StorageConfig::memory());
        // Commit a write directly through storage (simulating a completed
        // transaction), then crash and recover.
        let txn = TxnId::new(SiteId(0), 1);
        site.caller.ask(move |site| {
            let storage = &site.state.storage;
            storage.stage_write(txn, ItemId::new("x0"), Value::Int(5), Version(1));
            storage.prepare(txn);
            storage.commit(txn);
        });

        site.recover_from_crash().unwrap();
        let snapshot = site.database_snapshot();
        assert!(snapshot.contains(&(ItemId::new("x0"), Value::Int(5), Version(1))));
        assert_eq!(site.active_transactions(), 0);
    }

    /// The clock observed every access granted before a crash, so a restart
    /// keeps it: the new CCP's recovery floor is the clock's time, and an
    /// access stamped before the crash is refused.
    #[test]
    fn the_clock_survives_a_restart_and_the_floor_refuses_an_older_access() {
        use rainbow_common::protocol::CcpKind;
        for ccp in [
            CcpKind::TimestampOrdering,
            CcpKind::MultiversionTimestampOrdering,
        ] {
            let one = OneSite::new(quick_stack().with_ccp(ccp));
            one.site.skew_clock(1_000);
            one.read(5, "x0");
            one.granted(5);
            let clock = |site: &mut Site| site.state.clock.now();
            let before = one.site.caller.ask(clock);
            assert!(before > 1_000, "{ccp:?}: {before}");
            one.site.power_loss(PowerLossFault::Clean).unwrap();
            let after = one.site.caller.ask(clock);
            assert!(after >= before, "{ccp:?}: {after} < {before}");
            // T2 is stamped 2, long before the crash.
            one.read(2, "x1");
            let reply = one.reply();
            assert!(matches!(reply, (2, Some(Err(_)))), "{ccp:?}: {reply:?}");
        }
    }

    /// A loop that died on a panic leaves no caller waiting: the calls it
    /// had queued are dropped unrun, and so is every later one.
    #[test]
    fn a_call_to_a_dead_loop_fails_and_does_not_hang() {
        let one = OneSite::new(quick_stack());
        // From the loop itself, queue a call that panics and, behind it, one
        // whose caller waits for its answer.
        let waiting = one.site.caller.ask(|site| {
            let (reply, answer) = crossbeam_channel::bounded(1);
            let dies = Call(Box::new(|_: &mut Site| panic!("a call panics on the loop")));
            let queued = Call(Box::new(move |_: &mut Site| reply.send(()).unwrap()));
            for call in [dies, queued] {
                site.shared.net.post(NodeId::site(0), Msg::Call(call));
            }
            answer
        });
        let asked = Instant::now();
        let unanswered = waiting.recv_timeout(Duration::from_secs(1));
        let dropped = Err(crossbeam_channel::RecvTimeoutError::Disconnected);
        assert_eq!(unanswered, dropped, "the queued call is dropped unrun");
        assert!(one.site.recover_from_crash().is_err(), "a later call fails");
        let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            one.site.database_snapshot()
        }));
        let panicked = read.expect_err("a reader panics");
        let message = panicked.downcast_ref::<String>().expect("a message");
        assert!(message.contains("site0"), "{message}");
        let waited = asked.elapsed();
        assert!(waited < Duration::from_secs(1), "{waited:?}");
    }

    /// The node playing the coordinators of a `Stepped` site's transactions.
    const COORDINATOR: NodeId = NodeId::Site(SiteId(9));

    /// A `Site` driven by hand, with no thread and no mailbox: the test
    /// steps envelopes in at the times it chooses, and flushes the outbox
    /// to the coordinator's node to see what the site sends.
    struct Stepped {
        _net: SimNetwork<Msg>,
        coordinator: Receiver<Envelope<Msg>>,
        site: Site,
        t0: Instant,
    }

    impl Stepped {
        fn new(stack: ProtocolStack) -> Self {
            Self::on(stack, &StorageConfig::memory())
        }

        fn on(stack: ProtocolStack, storage: &StorageConfig) -> Self {
            let net = SimNetwork::<Msg>::new(NetworkConfig::perfect());
            let coordinator = net.register(COORDINATOR);
            let t0 = Instant::now();
            let shared = SiteShared {
                id: SiteId(0),
                rcp: make_rcp(stack.rcp),
                stack,
                schema: schema_for(&[SiteId(0)]),
                net: net.handle(),
                faults: net.faults(),
                metrics: Arc::new(SiteMetrics::new()),
                history: None,
                tracer: None,
            };
            let site = Site::open(shared, storage, t0).expect("open the site");
            Stepped {
                _net: net,
                coordinator,
                site,
                t0,
            }
        }

        fn step(&mut self, now: Instant, payload: Msg) {
            let (id, from, to) = (MessageId(1), COORDINATOR, NodeId::site(0));
            let envelope = Envelope {
                id,
                from,
                to,
                payload,
            };
            self.site.step(now, envelope);
        }

        fn prewrite(n: u64, item: &str) -> Msg {
            let ((txn, ts), item) = (OneSite::txn(n), ItemId::new(item));
            Msg::CopyPrewrite { txn, ts, item }
        }

        fn prepare_writing(n: u64, item: &str) -> Msg {
            let (txn, ts) = OneSite::txn(n);
            let writes = vec![(ItemId::new(item), Value::Int(7), Version(n))];
            Msg::AcpPrepare { txn, ts, writes }
        }

        /// What the loop asks its syncer for after a drain at `t0`: the
        /// ticket of the sync asked for, once the sync through its handle
        /// has returned.
        fn sync(&mut self) -> Option<u64> {
            self.sync_at(self.t0)
        }

        /// What the loop asks its syncer for after a drain at `now`.
        fn sync_at(&mut self, now: Instant) -> Option<u64> {
            let (ticket, segment) = self.site.sync_request(now)?;
            segment.sync().expect("the segment syncs");
            Some(ticket)
        }

        /// Tells the site, by the syncer's message, that the sync for
        /// `ticket` returned.
        fn synced(&mut self, ticket: u64) {
            let result = Ok(());
            self.step(self.t0, Msg::Synced { ticket, result });
        }

        /// Flushes the outbox: the envelopes the coordinator gets. (All of
        /// them have arrived when the flush returns: the network is perfect.)
        fn out(&mut self) -> Vec<Msg> {
            self.site.flush(0);
            let envelopes = std::iter::from_fn(|| self.coordinator.try_recv().ok());
            envelopes.map(|envelope| envelope.payload).collect()
        }
    }

    #[test]
    fn a_stepped_copy_read_of_a_free_item_leaves_one_granted_reply() {
        let mut one = Stepped::new(quick_stack());
        let (txn, ts) = OneSite::txn(1);
        let item = ItemId::new("x0");
        let for_update = false;
        let t0 = one.t0;
        one.step(
            t0,
            Msg::CopyRead {
                txn,
                ts,
                item,
                for_update,
            },
        );
        let out = one.out();
        let granted = |result: &CopyAccessResult| {
            let value = Some(Value::Int(100));
            matches!(result, CopyAccessResult::Granted { value: v, version: Version(0) } if *v == value)
        };
        assert!(
            matches!(out.as_slice(), [Msg::CopyReply { txn: t, prewrite: false, result, .. }] if *t == txn && granted(result)),
            "{out:?}"
        );
    }

    #[test]
    fn a_stepped_parked_prewrite_is_denied_by_the_tick_at_its_deadline() {
        let stack = quick_stack();
        let mut one = Stepped::new(stack.clone());
        let t0 = one.t0;
        one.step(t0, Stepped::prewrite(1, "x0"));
        assert_eq!(one.out().len(), 1, "T1 is granted x0");
        one.step(t0, Stepped::prewrite(2, "x0"));
        assert!(one.out().is_empty(), "T2 waits for T1");
        let deadline = t0 + stack.lock_wait_timeout;
        one.site.tick(deadline - Duration::from_micros(1));
        assert!(one.out().is_empty(), "T2 still waits");
        one.site.tick(deadline);
        let out = one.out();
        let [Msg::CopyReply {
            txn,
            result: CopyAccessResult::Denied(cause),
            ..
        }] = out.as_slice()
        else {
            panic!("{out:?}")
        };
        assert_eq!(*txn, OneSite::txn(2).0);
        let holder = Some(OneSite::txn(1).0);
        let item = ItemId::new("x0");
        assert_eq!(*cause, AbortCause::CcpLockConflict { item, holder });
    }

    #[test]
    fn a_stepped_participant_whose_coordinator_vanished_is_asked_about_past_the_horizon() {
        let stack = quick_stack();
        let mut one = Stepped::new(stack.clone());
        let t0 = one.t0;
        one.step(t0, Stepped::prewrite(1, "x0"));
        one.step(t0, Stepped::prepare_writing(1, "x0"));
        let out = one.out();
        let granted_and_voted = matches!(out.as_slice(), [Msg::Batch(two)] if two.len() == 2);
        assert!(granted_and_voted, "{out:?}");
        // The coordinator is never heard from again.
        let before = t0 + stack.janitor_horizon() - Duration::from_micros(1);
        let due = one.site.tick(before);
        assert!(one.out().is_empty(), "nothing is stale yet");
        assert!(due > before);
        one.site.tick(due);
        let out = one.out();
        let txn = OneSite::txn(1).0;
        assert!(
            matches!(out.as_slice(), [Msg::AcpStatusQuery { txn: t }] if *t == txn),
            "{out:?}"
        );
    }

    #[test]
    fn a_stepped_batch_of_two_prepares_leaves_one_batch_of_two_votes() {
        let mut one = Stepped::new(quick_stack());
        let t0 = one.t0;
        one.step(t0, Stepped::prewrite(1, "x0"));
        one.step(t0, Stepped::prewrite(2, "x1"));
        one.out();
        let prepares = vec![
            Stepped::prepare_writing(1, "x0"),
            Stepped::prepare_writing(2, "x1"),
        ];
        one.step(t0, Msg::Batch(prepares));
        let out = one.out();
        let [Msg::Batch(votes)] = out.as_slice() else {
            panic!("{out:?}")
        };
        let yes = |msg: &Msg, n| matches!(msg, Msg::AcpVote { txn, vote: Vote::Yes } if *txn == OneSite::txn(n).0);
        assert!(
            votes.len() == 2 && yes(&votes[0], 1) && yes(&votes[1], 2),
            "{votes:?}"
        );
    }

    /// A data directory of its own for a stepped site on segment files.
    fn segment_files(name: &str) -> (std::path::PathBuf, StorageConfig) {
        let dir = std::env::temp_dir().join(format!("rainbow-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let storage = StorageConfig::disk(&dir);
        (dir, storage)
    }

    /// On segment files, a YES vote leaves only once its prepare record is
    /// synced, and an acknowledgement only once its commit record is.
    #[test]
    fn a_stepped_yes_vote_and_ack_wait_for_their_records_sync() {
        let (dir, storage) = segment_files("stepped-sync");
        let mut one = Stepped::on(quick_stack(), &storage);
        let (t0, txn) = (one.t0, OneSite::txn(1).0);
        one.step(t0, Stepped::prewrite(1, "x0"));
        assert_eq!(one.out().len(), 1, "T1 is granted x0");
        assert_eq!(one.sync(), None, "a pre-write writes no log record");
        one.step(t0, Stepped::prepare_writing(1, "x0"));
        assert!(
            one.out().is_empty(),
            "the vote waits for the prepare's sync"
        );
        let ticket = one.sync().expect("the prepare waits for a sync");
        assert!(one.out().is_empty(), "synced, but the loop was not told");
        one.synced(ticket);
        let out = one.out();
        let yes = matches!(out.as_slice(), [Msg::AcpVote { txn: t, vote: Vote::Yes }] if *t == txn);
        assert!(yes, "{out:?}");

        let decision = Decision::Commit;
        one.step(t0, Msg::AcpDecision { txn, decision });
        assert!(one.out().is_empty(), "the ack waits for the commit's sync");
        let installed = one.site.state.storage.read(&ItemId::new("x0"));
        assert_eq!(installed.unwrap().0, Value::Int(7), "installed at once");
        let ticket = one.sync().expect("the commit waits for a sync");
        one.synced(ticket);
        let out = one.out();
        let acked = matches!(out.as_slice(), [Msg::AcpAck { txn: t }] if *t == txn);
        assert!(acked, "{out:?}");
        drop(one);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// On a memory log a write is durable at once: the vote and the ack
    /// leave in the drain that produced them, and nothing asks for a sync.
    #[test]
    fn a_stepped_yes_vote_and_ack_leave_at_once_on_a_memory_log() {
        let mut one = Stepped::new(quick_stack());
        let (t0, txn) = (one.t0, OneSite::txn(1).0);
        assert!(!one.site.state.storage.needs_sync());
        one.step(t0, Stepped::prewrite(1, "x0"));
        one.out();
        one.step(t0, Stepped::prepare_writing(1, "x0"));
        assert_eq!(one.sync(), None);
        let out = one.out();
        let yes = matches!(out.as_slice(), [Msg::AcpVote { txn: t, vote: Vote::Yes }] if *t == txn);
        assert!(yes, "{out:?}");
        let decision = Decision::Commit;
        one.step(t0, Msg::AcpDecision { txn, decision });
        assert_eq!(one.sync(), None);
        let out = one.out();
        let acked = matches!(out.as_slice(), [Msg::AcpAck { txn: t }] if *t == txn);
        assert!(acked, "{out:?}");
    }

    /// A power loss between the prepare's write and its sync drops the held
    /// vote: it never left. The recovered site asks about T1, which its log
    /// holds in doubt, and the sync's late answer sends nothing.
    #[test]
    fn a_stepped_power_loss_before_the_sync_drops_the_held_vote() {
        let (dir, storage) = segment_files("stepped-power-loss");
        let mut one = Stepped::on(quick_stack(), &storage);
        let (t0, txn) = (one.t0, OneSite::txn(1).0);
        one.step(t0, Stepped::prewrite(1, "x0"));
        one.out();
        one.step(t0, Stepped::prepare_writing(1, "x0"));
        assert!(
            one.out().is_empty(),
            "the vote waits for the prepare's sync"
        );
        let ticket = one.sync().expect("the prepare waits for a sync");
        one.site.power_loss(PowerLossFault::Clean).unwrap();
        let out = one.out();
        let asked = matches!(out.as_slice(), [Msg::AcpStatusQuery { txn: t }] if *t == txn);
        assert!(asked, "{out:?}");
        one.synced(ticket);
        let out = one.out();
        assert!(out.is_empty(), "{out:?}");
        drop(one);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// T1 and T2 pre-write x0 and x1; T1 is prepared, votes YES and
    /// commits, and its acknowledgement waits in `held` for its commit
    /// record while T2 is still to vote. Returns T1 and T2.
    fn commit_t1_while_t2_is_to_vote(one: &mut Stepped) -> (TxnId, TxnId) {
        let (t0, t1, t2) = (one.t0, OneSite::txn(1).0, OneSite::txn(2).0);
        one.step(t0, Stepped::prewrite(1, "x0"));
        one.step(t0, Stepped::prewrite(2, "x1"));
        one.out();
        one.step(t0, Stepped::prepare_writing(1, "x0"));
        let ticket = one.sync().expect("T1's YES vote asks for its sync at once");
        one.synced(ticket);
        let out = one.out();
        let yes = matches!(out.as_slice(), [Msg::AcpVote { txn, vote: Vote::Yes }] if *txn == t1);
        assert!(yes, "{out:?}");
        let decision = Decision::Commit;
        one.step(t0, Msg::AcpDecision { txn: t1, decision });
        assert_eq!(one.sync(), None, "T2 is still to vote: T1's ack rides");
        assert!(one.out().is_empty(), "the ack waits for its commit record");
        let installed = one.site.state.storage.read(&ItemId::new("x0"));
        assert_eq!(installed.unwrap().0, Value::Int(7), "installed at once");
        (t1, t2)
    }

    /// On segment files an acknowledgement's group asks for no sync while
    /// a participant here is still to vote: the next YES vote's one sync
    /// makes both groups durable, and the ack and the vote leave together.
    /// (An ack's group synced on its own costs a second sync.)
    #[test]
    fn a_stepped_ack_rides_on_the_next_yes_votes_sync() {
        let (dir, storage) = segment_files("stepped-ride");
        let mut one = Stepped::on(quick_stack(), &storage);
        let t0 = one.t0;
        let (t1, t2) = commit_t1_while_t2_is_to_vote(&mut one);
        let forces = one.site.state.storage.force_count();
        one.step(t0, Stepped::prepare_writing(2, "x1"));
        let ticket = one.sync().expect("T2's YES vote asks for its sync at once");
        assert_eq!(one.sync(), None, "one sync covers both groups");
        assert!(one.out().is_empty(), "both wait for the sync");
        one.synced(ticket);
        assert_eq!(one.site.state.storage.force_count(), forces + 1);
        let out = one.out();
        let [Msg::Batch(both)] = out.as_slice() else {
            panic!("{out:?}")
        };
        assert!(
            matches!(both.as_slice(), [Msg::AcpAck { txn: a }, Msg::AcpVote { txn: v, vote: Vote::Yes }] if *a == t1 && *v == t2),
            "{both:?}"
        );
        drop(one);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An acknowledgement waiting for a vote that does not come asks for
    /// its sync at its bound, which the tick returns so the loop sleeps
    /// until then; and at once when the last participant still to vote
    /// leaves without voting.
    #[test]
    fn a_stepped_ack_asks_for_its_sync_at_its_bound_or_when_no_vote_is_coming() {
        let (dir, storage) = segment_files("stepped-ride-bound");
        let stack = quick_stack();
        let bound = ack_ride(&stack);
        let mut one = Stepped::on(stack.clone(), &storage);
        let t0 = one.t0;
        let (t1, _) = commit_t1_while_t2_is_to_vote(&mut one);
        let before = t0 + bound - Duration::from_micros(1);
        assert_eq!(one.site.tick(before), t0 + bound, "the tick's deadline");
        assert_eq!(one.sync_at(before), None, "too early");
        let ticket = one.sync_at(t0 + bound).expect("the bound passed");
        one.synced(ticket);
        let out = one.out();
        let acked = matches!(out.as_slice(), [Msg::AcpAck { txn }] if *txn == t1);
        assert!(acked, "{out:?}");
        drop(one);
        let _ = std::fs::remove_dir_all(&dir);

        let (dir, storage) = segment_files("stepped-ride-release");
        let mut one = Stepped::on(stack, &storage);
        let (t0, (t1, t2)) = (one.t0, commit_t1_while_t2_is_to_vote(&mut one));
        let decision = Decision::Abort;
        one.step(t0, Msg::AcpDecision { txn: t2, decision });
        let ticket = one
            .sync()
            .expect("T2 left without voting: no vote is coming");
        one.synced(ticket);
        let out = one.out();
        let acks: Vec<TxnId> = out
            .into_iter()
            .flat_map(|msg| match msg {
                Msg::Batch(msgs) => msgs,
                msg => vec![msg],
            })
            .filter_map(|msg| match msg {
                Msg::AcpAck { txn } => Some(txn),
                _ => None,
            })
            .collect();
        assert_eq!(
            acks,
            [t2, t1],
            "T2's abort is acked at once, T1's commit once synced"
        );
        drop(one);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// T1 and T2 pre-write x0 and x1 and are prepared; T1's vote is synced
    /// and sent, T2's sync is asked for and still runs when T1's commit
    /// decision arrives, so T1's ack is written while a sync runs and no
    /// participant is still to vote. Returns T1, T2 and the running sync.
    fn commit_t1_while_t2s_sync_runs(one: &mut Stepped) -> (TxnId, TxnId, u64) {
        let (t0, t1, t2) = (one.t0, OneSite::txn(1).0, OneSite::txn(2).0);
        one.step(t0, Stepped::prewrite(1, "x0"));
        one.step(t0, Stepped::prewrite(2, "x1"));
        one.step(t0, Stepped::prepare_writing(1, "x0"));
        let ticket = one.sync().expect("T1's YES vote asks at once");
        one.synced(ticket);
        one.out();
        one.step(t0, Stepped::prepare_writing(2, "x1"));
        let running = one.sync().expect("T2's YES vote asks at once");
        let decision = Decision::Commit;
        one.step(t0, Msg::AcpDecision { txn: t1, decision });
        assert_eq!(one.sync(), None, "T1's ack waits for the running sync");
        (t1, t2, running)
    }

    /// An acknowledgement written while a sync runs waits for that sync's
    /// answer before its group asks for one, even with no participant here
    /// still to vote (asked at once, it would have waited for the running
    /// sync all the same). At the answer it asks, or, if a participant
    /// arrived meanwhile, rides on that participant's vote.
    #[test]
    fn a_stepped_ack_written_while_a_sync_runs_chooses_at_its_answer() {
        let (dir, storage) = segment_files("stepped-ride-running");
        let mut one = Stepped::on(quick_stack(), &storage);
        let (t1, t2, running) = commit_t1_while_t2s_sync_runs(&mut one);
        one.synced(running);
        let out = one.out();
        let yes = matches!(out.as_slice(), [Msg::AcpVote { txn, vote: Vote::Yes }] if *txn == t2);
        assert!(yes, "{out:?}");
        let ticket = one.sync().expect("no sync runs and no vote is coming");
        one.synced(ticket);
        let out = one.out();
        let acked = matches!(out.as_slice(), [Msg::AcpAck { txn }] if *txn == t1);
        assert!(acked, "{out:?}");
        drop(one);
        let _ = std::fs::remove_dir_all(&dir);

        let (dir, storage) = segment_files("stepped-ride-arrival");
        let mut one = Stepped::on(quick_stack(), &storage);
        let t0 = one.t0;
        let (t1, _, running) = commit_t1_while_t2s_sync_runs(&mut one);
        one.step(t0, Stepped::prewrite(3, "x2"));
        one.synced(running);
        assert_eq!(one.sync(), None, "T3 arrived: T1's ack rides on its vote");
        one.out();
        one.step(t0, Stepped::prepare_writing(3, "x2"));
        let ticket = one.sync().expect("T3's YES vote asks at once");
        one.synced(ticket);
        let out = one.out();
        let t3 = OneSite::txn(3).0;
        let [Msg::Batch(both)] = out.as_slice() else {
            panic!("{out:?}")
        };
        assert!(
            matches!(both.as_slice(), [Msg::AcpAck { txn: a }, Msg::AcpVote { txn: v, .. }] if *a == t1 && *v == t3),
            "{both:?}"
        );
        drop(one);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A sync that failed takes the site down: the held vote never leaves,
    /// because nothing can vouch for the pages the failed fsync dropped.
    #[test]
    #[should_panic(expected = "sync failed")]
    fn a_stepped_failed_sync_takes_the_site_down() {
        let (dir, storage) = segment_files("stepped-failed-sync");
        let mut one = Stepped::on(quick_stack(), &storage);
        let t0 = one.t0;
        one.step(t0, Stepped::prewrite(1, "x0"));
        one.out();
        one.step(t0, Stepped::prepare_writing(1, "x0"));
        let ticket = one.sync().expect("the prepare waits for a sync");
        let _ = std::fs::remove_dir_all(&dir);
        let result = Err("the disk is gone".to_string());
        one.step(t0, Msg::Synced { ticket, result });
    }

    /// The node playing a `SteppedHome`'s client.
    const CLIENT: NodeId = NodeId::Client(0);

    /// A home site — site 0 of three, every item on all three — driven by
    /// hand like `Stepped`: the test plays the client and sites 1 and 2.
    /// What the home sends itself never reaches its node's mailbox: the
    /// step handles it in place.
    struct SteppedHome {
        net: SimNetwork<Msg>,
        own: Receiver<Envelope<Msg>>,
        client: Receiver<Envelope<Msg>>,
        remotes: [Receiver<Envelope<Msg>>; 2],
        site: Site,
        t0: Instant,
    }

    impl SteppedHome {
        fn new(stack: ProtocolStack) -> Self {
            Self::on(stack, &StorageConfig::memory())
        }

        fn on(stack: ProtocolStack, storage: &StorageConfig) -> Self {
            let net = SimNetwork::<Msg>::new(NetworkConfig::perfect());
            let own = net.register(NodeId::site(0));
            let remotes = [1, 2].map(|n| net.register(NodeId::site(n)));
            let client = net.register(CLIENT);
            let t0 = Instant::now();
            let shared = SiteShared {
                id: SiteId(0),
                rcp: make_rcp(stack.rcp),
                stack,
                schema: schema_for(&[SiteId(0), SiteId(1), SiteId(2)]),
                net: net.handle(),
                faults: net.faults(),
                metrics: Arc::new(SiteMetrics::new()),
                history: None,
                tracer: None,
            };
            let site = Site::open(shared, storage, t0).expect("open the site");
            SteppedHome {
                net,
                own,
                client,
                remotes,
                site,
                t0,
            }
        }

        /// Steps `payload` from `from` in at `now` and flushes.
        fn step(&mut self, now: Instant, from: NodeId, payload: Msg) {
            let to = NodeId::site(0);
            let id = MessageId(1);
            self.site.step(
                now,
                Envelope {
                    id,
                    from,
                    to,
                    payload,
                },
            );
            self.flush();
        }

        /// Ticks at `now` and flushes.
        fn tick(&mut self, now: Instant) {
            self.site.tick(now);
            self.flush();
        }

        fn flush(&mut self) {
            self.site.flush(0);
            let own = self.own.try_recv().map(|envelope| envelope.payload);
            assert!(own.is_err(), "the home sent itself {own:?}");
        }

        /// What site `n` (1 or 2) was sent since last asked, unbatched.
        fn sent_to(&self, n: usize) -> Vec<Msg> {
            let envelopes = std::iter::from_fn(|| self.remotes[n - 1].try_recv().ok());
            let unbatch = |envelope: Envelope<Msg>| match envelope.payload {
                Msg::Batch(msgs) => msgs,
                msg => vec![msg],
            };
            envelopes.flat_map(unbatch).collect()
        }

        /// What the client was sent since last asked.
        fn answers(&self) -> Vec<Msg> {
            let envelopes = std::iter::from_fn(|| self.client.try_recv().ok());
            envelopes.map(|envelope| envelope.payload).collect()
        }

        /// Opens a transaction reading `x0`; returns its id, taken from the
        /// copy read its quorum's one remote copy, site 1, was sent.
        fn begin_reading_x0(&mut self) -> TxnId {
            let item = ItemId::new("x0");
            let op = NextOp::Read { item };
            let (request, label, clock) = (1, "t".to_string(), 0);
            let begin = Msg::TxnBegin {
                request,
                label,
                op,
                clock,
            };
            self.step(self.t0, CLIENT, begin);
            let sent = self.sent_to(1);
            let [Msg::CopyRead { txn, .. }] = sent.as_slice() else {
                panic!("site 1 was sent {sent:?}")
            };
            assert!(self.sent_to(2).is_empty(), "site 2 is a spare");
            assert!(self.answers().is_empty(), "one vote of two is in");
            *txn
        }

        /// Site `n`'s answer to the read of `x0`.
        fn copy_reply(&mut self, now: Instant, n: u32, txn: TxnId, result: CopyAccessResult) {
            let item = ItemId::new("x0");
            let (prewrite, for_update) = (false, false);
            let reply = Msg::CopyReply {
                txn,
                item,
                prewrite,
                for_update,
                result,
            };
            self.step(now, NodeId::site(n), reply);
        }

        /// Increments `x0` at `t0` in a transaction whose copies are the
        /// home's and site 1's, and commits it up to the home's own vote:
        /// site 1 grants and votes YES, and the home's vote to itself is
        /// held for its prepare record. Returns the transaction.
        fn increment_x0_to_its_own_vote(&mut self) -> TxnId {
            let t0 = self.t0;
            self.step(t0, CLIENT, begin_incrementing_x0());
            let sent = self.sent_to(1);
            let [Msg::CopyRead { txn, .. }] = sent.as_slice() else {
                panic!("site 1 was sent {sent:?}")
            };
            let txn = *txn;
            let (item, prewrite, for_update) = (ItemId::new("x0"), false, true);
            let (value, version) = (Some(Value::Int(100)), Version(0));
            let result = CopyAccessResult::Granted { value, version };
            let granted = Msg::CopyReply {
                txn,
                item,
                prewrite,
                for_update,
                result,
            };
            self.step(t0, NodeId::site(1), granted);
            let answers = self.answers();
            assert!(
                matches!(answers.as_slice(), [Msg::TxnOpReply { .. }]),
                "{answers:?}"
            );

            let (request, op) = (1, NextOp::Commit);
            self.step(t0, CLIENT, Msg::TxnOp { request, txn, op });
            let sent = self.sent_to(1);
            assert!(
                matches!(sent.as_slice(), [Msg::AcpPrepare { txn: t, .. }] if *t == txn),
                "{sent:?}"
            );
            let vote = Vote::Yes;
            self.step(t0, NodeId::site(1), Msg::AcpVote { txn, vote });
            assert!(self.answers().is_empty(), "the home's own vote is held");
            txn
        }

        /// Commits `txn`, whose read quorum was the home and site 2: site 2
        /// is prepared and votes READ-ONLY, and the client hears it
        /// committed; returns what site 1, outside the quorum, was sent.
        fn commit_with_site_2(&mut self, now: Instant, txn: TxnId) -> Vec<Msg> {
            let (request, op) = (1, NextOp::Commit);
            self.step(now, CLIENT, Msg::TxnOp { request, txn, op });
            let sent = self.sent_to(2);
            assert!(
                matches!(sent.as_slice(), [Msg::AcpPrepare { txn: t, .. }] if *t == txn),
                "{sent:?}"
            );
            let vote = Vote::ReadOnly;
            self.step(now, NodeId::site(2), Msg::AcpVote { txn, vote });
            let answers = self.answers();
            let committed = |result: &TxnResult| result.outcome == TxnOutcome::Committed;
            assert!(
                matches!(answers.as_slice(), [Msg::TxnDone { result, .. }] if committed(result)),
                "{answers:?}"
            );
            self.sent_to(1)
        }
    }

    /// The release notice a contacted copy outside the quorum is sent.
    fn released(sent: &[Msg], txn: TxnId) -> bool {
        let decision = Decision::Abort;
        matches!(sent, [Msg::AcpDecision { txn: t, decision: d }] if *t == txn && *d == decision)
    }

    #[test]
    fn a_stepped_denial_asks_the_spare_and_the_transaction_commits() {
        let mut home = SteppedHome::new(quick_stack());
        let t0 = home.t0;
        let txn = home.begin_reading_x0();
        let denied = lock_conflict(&ItemId::new("x0"), None);
        home.copy_reply(t0, 1, txn, denied);
        let sent = home.sent_to(2);
        assert!(
            matches!(sent.as_slice(), [Msg::CopyRead { txn: t, .. }] if *t == txn),
            "the spare is asked: {sent:?}"
        );
        assert!(home.answers().is_empty());

        let (value, version) = (Some(Value::Int(100)), Version(0));
        home.copy_reply(t0, 2, txn, CopyAccessResult::Granted { value, version });
        let answers = home.answers();
        assert!(
            matches!(
                answers.as_slice(),
                [Msg::TxnOpReply {
                    reply: OpReply::Value {
                        value: Value::Int(100),
                        ..
                    },
                    ..
                }]
            ),
            "{answers:?}"
        );
        let sent = home.commit_with_site_2(t0, txn);
        assert!(released(&sent, txn), "site 1 denied: {sent:?}");
    }

    #[test]
    fn a_stepped_deadlock_victim_gives_up_without_asking_the_spare() {
        let mut home = SteppedHome::new(quick_stack());
        let t0 = home.t0;
        let txn = home.begin_reading_x0();
        let item = ItemId::new("x0");
        let victim = CopyAccessResult::Denied(AbortCause::CcpDeadlock { item });
        home.copy_reply(t0, 1, txn, victim);
        assert!(home.sent_to(2).is_empty(), "the spare is not asked");
        let answers = home.answers();
        let deadlock = |result: &TxnResult| {
            matches!(
                result.outcome,
                TxnOutcome::Aborted(AbortCause::CcpDeadlock { .. })
            )
        };
        assert!(
            matches!(answers.as_slice(), [Msg::TxnDone { result, .. }] if deadlock(result)),
            "{answers:?}"
        );
        let sent = home.sent_to(1);
        assert!(released(&sent, txn), "site 1 is told: {sent:?}");
    }

    #[test]
    fn a_stepped_silent_copy_is_hedged_at_half_the_quorum_timeout() {
        let stack = quick_stack();
        let hedge = stack.quorum_timeout / 2;
        let mut home = SteppedHome::new(stack);
        let t0 = home.t0;
        let txn = home.begin_reading_x0();
        home.tick(t0 + hedge - Duration::from_micros(1));
        assert!(home.sent_to(2).is_empty(), "too early to hedge");
        home.tick(t0 + hedge);
        let sent = home.sent_to(2);
        assert!(
            matches!(sent.as_slice(), [Msg::CopyRead { txn: t, .. }] if *t == txn),
            "the spare is asked: {sent:?}"
        );
        home.tick(t0 + hedge + Duration::from_micros(1));
        assert!(home.sent_to(2).is_empty(), "the hedge fires once");

        let (value, version) = (Some(Value::Int(100)), Version(0));
        let later = t0 + hedge;
        home.copy_reply(later, 2, txn, CopyAccessResult::Granted { value, version });
        assert_eq!(home.answers().len(), 1, "the read is answered");
        let sent = home.commit_with_site_2(later, txn);
        assert!(released(&sent, txn), "site 1 may grant late: {sent:?}");
    }

    /// A client's first command: increment `x0`.
    fn begin_incrementing_x0() -> Msg {
        let (item, delta) = (ItemId::new("x0"), 1);
        let op = NextOp::Increment { item, delta };
        let (request, label, clock) = (1, "t".to_string(), 0);
        Msg::TxnBegin {
            request,
            label,
            op,
            clock,
        }
    }

    /// An increment at a home holding a copy asks its own copy in place:
    /// the flush carries one envelope, the remote copy read, and the home's
    /// lock is already held. (Sent through the network, the own copy read
    /// was a second envelope, to the home's own mailbox.)
    #[test]
    fn a_stepped_increment_leaves_one_envelope_the_remote_copy_read() {
        let mut home = SteppedHome::new(quick_stack());
        let (id, from, to) = (MessageId(1), CLIENT, NodeId::site(0));
        let payload = begin_incrementing_x0();
        let begin = Envelope {
            id,
            from,
            to,
            payload,
        };
        home.site.step(home.t0, begin);
        home.site.flush(0);
        let own = home.own.try_recv().map(|envelope| envelope.payload);
        assert!(own.is_err(), "the home sent itself {own:?}");
        let sent = home.sent_to(1);
        assert!(
            matches!(
                sent.as_slice(),
                [Msg::CopyRead {
                    for_update: true,
                    ..
                }]
            ),
            "{sent:?}"
        );
        assert!(home.sent_to(2).is_empty(), "site 2 is a spare");
        assert!(home.answers().is_empty(), "one grant of two is in");
        let counters = home.net.counters();
        assert_eq!((counters.envelopes(), counters.sent()), (1, 1));
        let held = home.site.state.ccp.active_transactions();
        assert_eq!(held, 1, "the home's own copy is locked");
    }

    /// A site the fault controller reports crashed drops what it sent
    /// itself, as the network drops what it sends the others: a restart
    /// while crashed asks the home of an in-doubt transaction, itself here,
    /// in vain, and the janitor asks again once the site is back.
    #[test]
    fn a_stepped_crashed_site_drops_what_it_sent_itself() {
        let mut one = Stepped::new(quick_stack());
        let (t0, me) = (one.t0, NodeId::site(0));
        let own = one._net.register(me);
        let (txn, ts, item) = (
            TxnId::new(SiteId(0), 1),
            Timestamp::new(1, 0),
            ItemId::new("x0"),
        );
        one.step(
            t0,
            Msg::CopyPrewrite {
                txn,
                ts,
                item: item.clone(),
            },
        );
        let writes = vec![(item.clone(), Value::Int(7), Version(1))];
        one.step(t0, Msg::AcpPrepare { txn, ts, writes });
        assert_eq!(one.out().len(), 1, "granted and voted YES");

        one.site.shared.faults.crash(me);
        let restart = |site: &mut Site| site.power_loss(PowerLossFault::Clean).unwrap();
        one.step(t0, Msg::Call(Call(Box::new(restart))));
        let in_doubt = |one: &Stepped| one.site.state.in_doubt.writes.contains_key(&txn);
        assert!(
            in_doubt(&one),
            "the query to itself was dropped, unanswered"
        );
        one.site.shared.faults.recover(me);
        one.site.tick(t0 + JANITOR_EVERY);
        assert!(!in_doubt(&one), "no decision on record: presumed abort");
        assert_eq!(
            one.site.state.storage.read(&item).unwrap().0,
            Value::Int(100)
        );
        assert!(one.out().is_empty());
        let sent = own.try_recv().map(|envelope| envelope.payload);
        assert!(sent.is_err(), "the site sent itself {sent:?}");
    }

    /// On segment files the home's YES vote to itself waits for its
    /// prepare's sync, like a vote to another site: the client hears the
    /// commit only once the sync's answer released it.
    #[test]
    fn a_stepped_home_on_segment_files_waits_for_its_own_vote_sync() {
        let (dir, storage) = segment_files("stepped-home-vote");
        let mut home = SteppedHome::on(quick_stack(), &storage);
        let (t0, me) = (home.t0, NodeId::site(0));
        let txn = home.increment_x0_to_its_own_vote();

        let (ticket, segment) = home.site.state.storage.sync_request().expect("a sync");
        segment.sync().expect("the segment syncs");
        let result = Ok(());
        home.step(t0, me, Msg::Synced { ticket, result });
        let answers = home.answers();
        let committed = |result: &TxnResult| result.outcome == TxnOutcome::Committed;
        assert!(
            matches!(answers.as_slice(), [Msg::TxnDone { result, .. }] if committed(result)),
            "{answers:?}"
        );
        let sent = home.sent_to(1);
        let commit = Decision::Commit;
        assert!(
            matches!(sent.as_slice(), [Msg::AcpDecision { txn: t, decision }] if *t == txn && *decision == commit),
            "{sent:?}"
        );
        drop(home);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A held acknowledgement dies with its site. The home commits T1 while
    /// T2, which site 2 coordinates, is still to vote there, so the home's
    /// ack to itself rides on a vote that has not come when the home
    /// crashes. The restart drops the ack, never delivered; T1's machine
    /// retires when its wait for acknowledgements times out; and the
    /// recovered home holds T1's write, from its commit record or from the
    /// answer to its status query.
    #[test]
    fn a_stepped_crash_drops_a_held_ack_and_its_coordinator_retires_at_the_timeout() {
        let (dir, storage) = segment_files("stepped-held-ack-crash");
        let stack = quick_stack();
        let mut home = SteppedHome::on(stack.clone(), &storage);
        let (t0, me, item) = (home.t0, NodeId::site(0), ItemId::new("x1"));
        let (t2, ts) = (TxnId::new(SiteId(2), 1), Timestamp::new(1, 2));
        home.step(t0, NodeId::site(2), Msg::CopyPrewrite { txn: t2, ts, item });
        let sent = home.sent_to(2);
        assert!(
            matches!(sent.as_slice(), [Msg::CopyReply { .. }]),
            "{sent:?}"
        );

        let txn = home.increment_x0_to_its_own_vote();
        let (ticket, segment) = home.site.sync_request(t0).expect("a YES vote asks at once");
        segment.sync().expect("the segment syncs");
        let result = Ok(());
        home.step(t0, me, Msg::Synced { ticket, result });
        let answers = home.answers();
        assert!(
            matches!(answers.as_slice(), [Msg::TxnDone { .. }]),
            "{answers:?}"
        );
        home.step(t0, NodeId::site(1), Msg::AcpAck { txn });
        let held = |home: &SteppedHome| home.site.state.held.len();
        let machines = |home: &SteppedHome| home.site.state.home.machines.len();
        assert!(home.site.sync_request(t0).is_none(), "T2 is still to vote");
        assert_eq!(held(&home), 1, "the home's ack to itself waits");
        assert_eq!(machines(&home), 1, "T1's machine waits for it");
        let durable = home.site.state.storage.durable();
        assert_eq!(
            durable, ticket,
            "the commit record, written after the vote's, is not"
        );

        home.site.shared.faults.crash(me);
        home.site.power_loss(PowerLossFault::Clean).unwrap();
        assert_eq!(held(&home), 0, "the restart drops the held ack");
        home.site.shared.faults.recover(me);
        home.tick(t0 + JANITOR_EVERY);
        let x0 = home.site.state.storage.read(&ItemId::new("x0")).unwrap();
        assert_eq!(x0.0, Value::Int(101), "T1's write survives the crash");

        let timeout = t0 + stack.commit_timeout;
        home.tick(timeout - Duration::from_micros(1));
        assert_eq!(machines(&home), 1, "the ack never arrived");
        home.tick(timeout);
        assert_eq!(machines(&home), 0, "T1's machine retires at its timeout");
        let acked = |sent: Vec<Msg>| sent.iter().any(|msg| matches!(msg, Msg::AcpAck { .. }));
        assert!(!acked(home.sent_to(1)) && !acked(home.sent_to(2)));
        drop(home);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A site's maps iterate in an order fixed by their contents, not by a
    /// hasher keyed per thread: the same messages stepped into two sites
    /// built on two threads leave the same outboxes. The janitor's status
    /// queries come in the participant map's order.
    #[test]
    fn two_sites_stepped_alike_on_two_threads_send_alike() {
        use rainbow_common::protocol::CcpKind;
        let run = || {
            let stack = quick_stack().with_ccp(CcpKind::TimestampOrdering);
            let horizon = stack.janitor_horizon();
            let mut one = Stepped::new(stack);
            let t0 = one.t0;
            let mut outboxes = Vec::new();
            for n in 1..=32 {
                let item = format!("x{}", n % 4);
                one.step(t0, Stepped::prewrite(n, &item));
                one.step(t0, Stepped::prepare_writing(n, &item));
                outboxes.push(format!("{:?}", one.out()));
            }
            // Every participant is prepared, and its coordinator silent.
            let due = one.site.tick(t0 + horizon);
            one.site.tick(due);
            let queries = one.out();
            let [Msg::Batch(queries)] = queries.as_slice() else {
                panic!("{queries:?}")
            };
            let asked = queries.iter().filter_map(|query| match query {
                Msg::AcpStatusQuery { txn } => Some(txn.seq),
                _ => None,
            });
            (outboxes, asked.collect::<Vec<_>>())
        };
        let (here, asked_here) = std::thread::spawn(run).join().unwrap();
        let (there, asked_there) = std::thread::spawn(run).join().unwrap();
        assert_eq!(asked_here.len(), 32, "{asked_here:?}");
        assert_eq!(asked_here, asked_there, "the janitor's status queries");
        assert_eq!(here, there);
    }
}
