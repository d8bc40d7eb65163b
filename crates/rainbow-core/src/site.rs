//! The Rainbow site runtime.
//!
//! A site is one node of the distributed database. Its thread is its
//! **event loop**, started with the site and joined at shutdown; nothing
//! else is ever created or lent. The loop drains the site's network mailbox
//! and handles each message where it lands:
//!
//! * requests from coordinators — its own or other sites' — are served at
//!   once. The loop never waits: a copy access asks the CCP, which never
//!   blocks, and is answered at once when the CCP decides it. When the CCP
//!   says the access must wait (its lock is held or, under the timestamp
//!   protocols, an earlier pre-write is pending), the request is **parked**:
//!   kept with a deadline, asked again — oldest first — after every message
//!   the loop handled (a commit or an abort among them is what ends a wait),
//!   and given up when the deadline passes or its transaction ends first;
//! * the **coordinator** of every transaction whose home is this site is a
//!   state machine (`coordinator.rs`) in the loop's own map: a new
//!   conversation opens one, and the client's commands, copy replies, votes
//!   and acknowledgements go to it. At the end of each drain the loop scans
//!   the machines' deadlines and flushes what they queued, once. (The
//!   paper's site "dedicates one thread to process" each transaction; here a
//!   transaction is a machine on its home site's one thread, and no thread
//!   is ever created for it.)
//! * the **participant side** of the commit protocol for transactions
//!   coordinated elsewhere, including a janitor that cleans up transactions
//!   whose coordinator disappeared and the recovery path that resolves
//!   in-doubt transactions after a crash.
//!
//! Everything the loop changes — the CCP, the participant entries, the
//! parked accesses, the in-doubt set and the coordinators' machines — is one
//! value, `SiteState`, behind the site's one lock. The loop takes the lock
//! when a drain starts and lets go of it before it sleeps. What the handle
//! does with the state (a diagnostic read, a crash restart) takes the same
//! lock, so it runs between two drains, never beside a message.

use crate::coordinator::TxnMachine;
use crate::messages::{CopyAccessResult, Msg, NextOp, OpReply};
use crate::metrics::SiteMetrics;
use crossbeam_channel::{Receiver, RecvTimeoutError};
use parking_lot::Mutex;
use rainbow_cc::{make_ccp, CcDecision, CcProtocol, TxnContext};
use rainbow_commit::{Decision, Participant, ParticipantAction, ParticipantState, Vote};
use rainbow_common::config::DatabaseSchema;
use rainbow_common::history::HistorySink;
use rainbow_common::protocol::ProtocolStack;
use rainbow_common::txn::AbortCause;
use rainbow_common::{
    ItemId, RainbowError, RainbowResult, SiteId, Timestamp, TimestampGenerator, TxnId, Value,
    Version,
};
use rainbow_net::{Envelope, NetHandle, NodeId, Outbox};
use rainbow_replication::{make_rcp, ReplicationControl};
use rainbow_storage::recovery::InDoubtTxn;
use rainbow_storage::{PowerLossFault, SiteStorage, StorageConfig};
use rainbow_trace::{Meter, Phase, TraceEvent, Tracer, Track};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the site loop sleeps at most when nothing falls due sooner:
/// bounds how late it notices shutdown and runs the janitor.
const IDLE: Duration = Duration::from_millis(25);

/// Upper bound on messages handled per drain, so a flooded mailbox cannot
/// starve the deadline scan (the rest is picked up by the next drain).
const MAX_DRAIN: usize = 512;

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
    writes: HashMap<TxnId, WriteSet>,
    /// Item → the in-doubt transactions whose prepared write set holds it
    /// (more than one is possible under the timestamp protocols).
    holders: HashMap<ItemId, Vec<TxnId>>,
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

    /// Settles a transaction crash recovery found in doubt, now that its
    /// decision is known; false when `txn` is not one.
    fn resolve(&mut self, storage: &SiteStorage, txn: TxnId, decision: Decision) -> bool {
        let Some(writes) = self.remove(txn) else {
            return false;
        };
        match decision {
            Decision::Commit => storage.commit_writes(txn, writes),
            Decision::Abort => storage.abort(txn),
        }
        true
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

/// What a site's loop and its handle share: what never changes or keeps
/// itself consistent. What the site changes as it runs is `SiteState`.
pub(crate) struct SiteShared {
    pub id: SiteId,
    pub node: NodeId,
    pub stack: ProtocolStack,
    pub storage: SiteStorage,
    pub rcp: Arc<dyn ReplicationControl>,
    /// Fetched at start from the name server, which never changes it.
    pub schema: DatabaseSchema,
    pub net: NetHandle<Msg>,
    pub metrics: Arc<SiteMetrics>,
    pub clock: TimestampGenerator,
    pub shutdown: Arc<AtomicBool>,
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
    /// Sends a message from this site, ignoring network shutdown errors
    /// (which only occur while the whole instance is being torn down).
    pub fn send(&self, to: NodeId, msg: Msg) {
        let _ = self.net.send(self.node, to, msg);
    }

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

/// The site's one lock. A site's state belongs to its loop, which holds the
/// lock one drain at a time and never while it sleeps; the handle waits for
/// a drain boundary.
type SiteLock = Arc<Mutex<SiteState>>;

/// Everything a site changes as it runs.
struct SiteState {
    /// The CCP in force; a restart replaces it.
    ccp: Arc<dyn CcProtocol>,
    participants: HashMap<TxnId, ParticipantEntry>,
    /// Transactions that have already been decided (or cleaned up) at this
    /// site *as a participant*. Late copy-access requests, prepares and late
    /// lock grants for these transactions are refused so they cannot
    /// resurrect a participant entry that nobody will ever release.
    finished: HashSet<TxnId>,
    in_doubt: InDoubt,
    /// The copy accesses waiting at this site, in arrival order: the CCP
    /// said they must wait, so the loop asks again after every message it
    /// handled. They die with the CCP they were waiting in.
    parked: Vec<Parked>,
    home: Home,
}

impl SiteState {
    /// Builds a site's volatile state — at start, and again at a crash
    /// restart, which hands in the state the crash took down:
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
    /// The coordinators' machines and decisions survive a restart.
    fn start(shared: &SiteShared, crashed: Option<&mut Self>, in_doubt: Vec<InDoubtTxn>) -> Self {
        let stack = &shared.stack;
        let ccp = make_ccp(stack.ccp, stack.deadlock, stack.lock_wait_timeout);
        ccp.install_recovery_floor(Timestamp::new(shared.clock.now(), shared.id.0));
        let mut state = SiteState {
            ccp,
            participants: HashMap::new(),
            finished: HashSet::new(),
            in_doubt: InDoubt::default(),
            parked: Vec::new(),
            home: Home::default(),
        };
        if let Some(crashed) = crashed {
            state.home = std::mem::take(&mut crashed.home);
            state.finished = std::mem::take(&mut crashed.finished);
            state.finished.extend(crashed.participants.keys().copied());
        }
        for InDoubtTxn { txn, writes } in in_doubt {
            state.in_doubt.insert(txn, writes);
            shared.send(NodeId::Site(txn.home), Msg::AcpStatusQuery { txn });
        }
        state
    }

    /// Ensures a participant entry exists for `txn` and returns its context.
    fn ensure_participant(
        &mut self,
        shared: &SiteShared,
        txn: TxnId,
        ts: Timestamp,
        coordinator: NodeId,
    ) -> TxnContext {
        let participants = &mut self.participants;
        let entry = participants.entry(txn).or_insert_with(|| ParticipantEntry {
            machine: Participant::new(
                txn,
                coordinator.as_site().unwrap_or(shared.id),
                shared.stack.acp,
            ),
            ctx: TxnContext::new(txn, ts),
            coordinator,
            last_activity: Instant::now(),
        });
        entry.last_activity = Instant::now();
        entry.ctx
    }
}

/// Handle to a running Rainbow site.
pub struct SiteHandle {
    shared: Arc<SiteShared>,
    state: SiteLock,
    thread: Option<JoinHandle<()>>,
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
        let (storage, outcome) = SiteStorage::open(id, storage_config, tracer.clone())?;
        let local_items: Vec<(ItemId, Value)> = schema
            .items
            .iter()
            .filter(|spec| {
                schema
                    .replication
                    .placement(&spec.id)
                    .map(|p| p.holds_copy(id))
                    .unwrap_or(false)
            })
            .map(|spec| (spec.id.clone(), spec.initial.clone()))
            .collect();
        storage.initialize(&local_items);

        let rcp = make_rcp(stack.rcp);
        let shared = Arc::new(SiteShared {
            id,
            node: NodeId::Site(id),
            stack,
            storage,
            rcp,
            schema,
            net,
            metrics,
            clock: TimestampGenerator::new(id),
            shutdown: Arc::new(AtomicBool::new(false)),
            history,
            tracer,
        });

        // A restart from an existing durable log may come back with in-doubt
        // transactions (prepared, never decided before the previous process
        // died): they are chased exactly like after a crash.
        let state = SiteState::start(&shared, None, outcome.in_doubt);
        let state = Arc::new(Mutex::new(state));
        let (loop_shared, loop_state) = (Arc::clone(&shared), Arc::clone(&state));
        let thread = std::thread::Builder::new()
            .name(format!("rainbow-site-{}", id.0))
            .spawn(move || site_loop(loop_shared, loop_state, mailbox))
            .expect("failed to spawn the site loop");

        Ok(SiteHandle {
            shared,
            state,
            thread: Some(thread),
        })
    }

    /// The site's id.
    pub fn id(&self) -> SiteId {
        self.shared.id
    }

    /// The site's metrics handle.
    pub fn metrics(&self) -> Arc<SiteMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// A snapshot of the committed database state at this site.
    pub fn database_snapshot(&self) -> Vec<(ItemId, Value, Version)> {
        self.shared.storage.snapshot()
    }

    /// Number of transactions currently holding resources at this site's
    /// CCP, read between two drains.
    pub fn active_transactions(&self) -> usize {
        self.state.lock().ccp.active_transactions()
    }

    /// Diagnostic view of the transactions still registered as participants
    /// at this site: `(transaction, state, seconds since last activity)`,
    /// read between two drains. Used by tests and operational tooling to
    /// spot transactions whose coordinator disappeared.
    pub fn lingering_participants(&self) -> Vec<(TxnId, String, f64)> {
        self.state
            .lock()
            .participants
            .iter()
            .map(|(txn, entry)| {
                (
                    *txn,
                    format!("{:?}", entry.machine.state()),
                    entry.last_activity.elapsed().as_secs_f64(),
                )
            })
            .collect()
    }

    /// Number of conversations this site's coordinator is still driving
    /// (open, or answered and collecting acknowledgements): the site loop's
    /// transaction machines, read between two drains (a drain reaps the
    /// machines that are done before it ends). For tests of the
    /// coordinator's clean-up.
    #[doc(hidden)]
    pub fn open_conversations(&self) -> usize {
        self.state.lock().home.machines.len()
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
    /// the log, then restarts the site from the disk image alone. On the
    /// memory engine this degrades to [`SiteHandle::recover_from_crash`]
    /// (its simulated log has no tail to tear).
    ///
    /// The restart waits for the drain in progress and runs before the next
    /// one, so no message is handled half before and half after it.
    ///
    /// Errors surface recovery failures: a corrupted record *before* the
    /// tail is a typed [`RainbowError::CorruptLog`], not a panic.
    pub fn power_loss(&self, fault: PowerLossFault) -> RainbowResult<()> {
        let mut state = self.state.lock();
        self.shared.storage.power_loss(fault);
        let outcome = self.shared.storage.recover()?;
        *state = SiteState::start(&self.shared, Some(&mut *state), outcome.in_doubt);
        Ok(())
    }

    /// Flushes and fsyncs the durable engine: every record appended so far
    /// is on stable storage when this returns. Called by cluster shutdown
    /// so a data directory reopened later finds every committed write.
    pub fn flush_and_sync(&self) -> RainbowResult<()> {
        self.shared.storage.flush_and_sync()
    }

    /// Which storage engine this site runs on.
    pub fn engine_kind(&self) -> rainbow_storage::EngineKind {
        self.shared.storage.engine_kind()
    }

    /// Number of real sync (fsync) operations the site's engine performed.
    pub fn storage_force_count(&self) -> u64 {
        self.shared.storage.force_count()
    }

    /// Installs committed copies fetched from live peers — the catch-up
    /// ("copier") half of crash recovery for read-one replication protocols
    /// (Available Copies, Primary Copy), driven by the cluster. Only copies
    /// newer than the local ones are installed; returns how many were.
    pub fn repair_copies(&self, copies: &[(ItemId, Value, Version)]) -> usize {
        self.shared.storage.repair_copies(copies)
    }

    /// Jumps this site's logical clock `ticks` ahead of its current value —
    /// the nemesis "clock skew" fault. Lamport clocks tolerate arbitrary
    /// forward jumps by construction; the skew stresses timestamp-ordering
    /// CCPs (transactions from the skewed site suddenly carry much larger
    /// timestamps, aborting concurrent old-timestamp transactions).
    pub fn skew_clock(&self, ticks: u64) {
        let clock = &self.shared.clock;
        clock.observe(Timestamp::new(
            clock.now().saturating_add(ticks),
            self.shared.id.0,
        ));
    }

    /// Stops the site loop and joins its thread. The loop observes the flag
    /// within `IDLE`, fails its in-flight conversations and flushes their
    /// outbox; what is still parked is dropped unanswered, like everything
    /// else in flight.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        // Stop the background compaction thread (a no-op on the memory
        // engine, which never spawns one).
        self.shared.storage.shutdown_compactor();
    }
}

impl Drop for SiteHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The site's one event loop. A pass sleeps until the next message or the
/// earliest deadline, at most [`IDLE`]; then it takes the site's state and
/// drains the mailbox — at most [`MAX_DRAIN`] messages, each handled where
/// it lands — runs the janitor when it is due and ends the drain
/// ([`Home::end_drain`]), and lets go of the state before it sleeps again.
fn site_loop(shared: Arc<SiteShared>, lock: SiteLock, mailbox: Receiver<Envelope<Msg>>) {
    let mut last_janitor = Instant::now();
    let janitor_every = Duration::from_millis(200);
    // When something next falls due: a machine's deadline or a parked copy
    // access's.
    let mut next_due: Option<Instant> = None;
    while !shared.shutdown.load(Ordering::Relaxed) {
        let wait = next_due.map_or(IDLE, |due| {
            IDLE.min(due.saturating_duration_since(Instant::now()))
        });
        let first = match mailbox.recv_timeout(wait) {
            Ok(envelope) => Some(envelope),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let mut state = lock.lock();
        let rest = std::iter::from_fn(|| mailbox.try_recv().ok());
        let mut drained = 0;
        for envelope in first.into_iter().chain(rest).take(MAX_DRAIN) {
            dispatch(&shared, &mut state, envelope);
            drained += 1;
            // Whatever was just handled may have ended a wait (a commit or
            // an abort released something).
            ask_parked_again(&shared, &mut state);
        }
        if last_janitor.elapsed() >= janitor_every {
            last_janitor = Instant::now();
            run_janitor(&shared, &mut state);
        }
        // So may the janitor, and time.
        let parked_due = ask_parked_again(&shared, &mut state);
        let machine_due = state.home.end_drain(&shared, drained);
        next_due = parked_due.into_iter().chain(machine_due).min();
    }
    lock.lock().home.close(&shared);
}

/// The coordinators of the transactions whose home is this site — one
/// machine each, in the loop's own map — and what their transitions change
/// besides themselves.
#[derive(Default)]
struct Home {
    machines: HashMap<TxnId, TxnMachine>,
    out: Effects,
    /// The sequence number of the next transaction this site opens.
    next_seq: u64,
}

/// What a coordinator's transitions change besides their own machine: the
/// outbox everything they send to a site waits in until the drain ends, and
/// the decision record status queries answer from.
#[derive(Default)]
pub(crate) struct Effects {
    pub outbox: Outbox<Msg>,
    decided: HashMap<TxnId, Decision>,
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
    /// ROADMAP 5(a) turns into a forced WAL append.
    pub fn record_decision(&mut self, txn: TxnId, decision: Decision) {
        self.decided.insert(txn, decision);
    }
}

impl Home {
    /// Opens a new conversation: allocates its id and timestamp, and runs
    /// the first command, which arrived with the begin.
    fn begin(
        &mut self,
        shared: &SiteShared,
        client: NodeId,
        request: u64,
        label: String,
        op: NextOp,
    ) {
        SiteMetrics::bump(&shared.metrics.home_transactions);
        let txn = TxnId::new(shared.id, self.next_seq);
        self.next_seq += 1;
        let ts = shared.clock.next();
        let mut machine = TxnMachine::open(shared, txn, ts, label, client, request);
        machine.on_client_op(shared, &mut self.out, op);
        // A first command that ended the transaction (a lone commit, an
        // unsatisfiable quorum) leaves nothing to keep.
        if !machine.is_done() {
            self.machines.insert(txn, machine);
        }
    }

    /// Hands a client command or a site's answer to the machine driving its
    /// transaction.
    fn deliver(&mut self, shared: &SiteShared, envelope: Envelope<Msg>) {
        let Some(txn) = envelope.payload.txn() else {
            return;
        };
        match self.machines.get_mut(&txn) {
            Some(machine) if !machine.is_done() => {
                machine.on_message(shared, &mut self.out, envelope)
            }
            _ => {
                // The conversation is gone (idled out, finished, or the
                // site recovered). Tell a waiting client instead of leaving
                // it to its timeout; drop stale protocol messages.
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

    /// Ends a drain: scans every machine's deadline, flushes the outbox
    /// once and reaps the machines that are done. Returns when the earliest
    /// remaining machine falls due.
    fn end_drain(&mut self, shared: &SiteShared, drained: u64) -> Option<Instant> {
        let tracer = shared.tracer.as_ref();
        if let Some(tracer) = tracer.filter(|_| drained > 0) {
            tracer.record_meter(Meter::ReactorQueueDepth, drained);
        }
        let now = Instant::now();
        let due = self
            .machines
            .values_mut()
            .filter_map(|machine| machine.on_tick(shared, &mut self.out, now))
            .min();
        let stats = self.out.outbox.flush(&shared.net, shared.node, Msg::Batch);
        if let Some(tracer) = tracer.filter(|_| stats.envelopes > 0) {
            tracer.record_meter(Meter::ReactorBatchSize, stats.largest_batch as u64);
        }
        self.machines.retain(|_, machine| !machine.is_done());
        due
    }

    /// Site shutdown: every machine still alive fails site-down, and what
    /// that queued leaves.
    fn close(&mut self, shared: &SiteShared) {
        for (_, mut machine) in self.machines.drain() {
            machine.fail_site_down(shared, &mut self.out);
        }
        let _ = self.out.outbox.flush(&shared.net, shared.node, Msg::Batch);
    }
}

fn dispatch(shared: &SiteShared, state: &mut SiteState, envelope: Envelope<Msg>) {
    // Client commands and responses go straight to the machine driving the
    // transaction they belong to (which answers a command `Gone` when it no
    // longer is: the conversation idled out and was aborted, or the site
    // crashed and recovered).
    let payload = &envelope.payload;
    if matches!(payload, Msg::TxnOp { .. }) || payload.is_coordinator_response() {
        return state.home.deliver(shared, envelope);
    }

    let Envelope {
        id,
        from,
        to,
        payload,
    } = envelope;
    match payload {
        Msg::TxnBegin { request, label, op } => state.home.begin(shared, from, request, label, op),
        Msg::CopyRead {
            txn,
            ts,
            item,
            for_update,
        } => {
            SiteMetrics::bump(&shared.metrics.served_requests);
            let access = CopyAccess::Read { for_update };
            handle_copy_access(shared, state, from, txn, ts, item, access);
        }
        Msg::CopyPrewrite { txn, ts, item } => {
            SiteMetrics::bump(&shared.metrics.served_requests);
            handle_copy_access(shared, state, from, txn, ts, item, CopyAccess::Prewrite);
        }
        // A lone prepare or commit decision is a group of one.
        Msg::AcpPrepare { txn, ts, writes } => {
            handle_prepare_batch(shared, state, from, vec![(txn, ts, writes)]);
        }
        Msg::AcpPreCommit { txn } => {
            handle_precommit(shared, state, from, txn);
        }
        Msg::AcpDecision {
            txn,
            decision: Decision::Commit,
        } => handle_decision_commit_batch(shared, state, from, vec![txn]),
        Msg::AcpDecision {
            txn,
            decision: Decision::Abort,
        } => handle_abort_decision(shared, state, from, txn),
        Msg::AcpStatusQuery { txn } => {
            let decision = state.home.out.decided.get(&txn).copied();
            shared.send(from, Msg::AcpStatusReply { txn, decision });
        }
        // Presumed abort: no decision on record means abort.
        Msg::AcpStatusReply { txn, decision } => {
            handle_status_reply(shared, state, txn, decision.unwrap_or(Decision::Abort));
        }
        Msg::Batch(msgs) => {
            // A coalesced envelope from a site's outbox flush. Prepares and
            // commit decisions are pulled out and handled as groups so their
            // WAL forces ride one fsync each; everything else goes through
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
                handle_prepare_batch(shared, state, from, prepares);
            }
            if !commits.is_empty() {
                handle_decision_commit_batch(shared, state, from, commits);
            }
            for payload in rest {
                dispatch(
                    shared,
                    state,
                    Envelope {
                        id,
                        from,
                        to,
                        payload,
                    },
                );
            }
        }
        // Messages a site never receives (or that only matter to clients /
        // the name server) are ignored; those for a machine went to it
        // above. The schema arrived before the loop started: a late answer
        // to a repeated `NsGetSchema` carries the same one.
        Msg::TxnOp { .. }
        | Msg::TxnOpReply { .. }
        | Msg::TxnDone { .. }
        | Msg::NsGetSchema
        | Msg::NsSchema { .. }
        | Msg::CopyReply { .. }
        | Msg::AcpVote { .. }
        | Msg::AcpPreCommitAck { .. }
        | Msg::AcpAck { .. } => {}
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
    fn ask(&self, ccp: &dyn CcProtocol) -> Option<CcDecision> {
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

    /// Turns the CCP's decision on the access into the reply.
    fn finish(self, shared: &SiteShared, state: &mut SiteState, decision: CcDecision) {
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
                        entry.last_activity = Instant::now();
                        let (value, version) = match value_override {
                            Some(pair) => pair,
                            None => shared.storage.read(&item).unwrap_or(current),
                        };
                        CopyAccessResult::Granted {
                            value: (access != CopyAccess::Prewrite).then_some(value),
                            version,
                        }
                    }
                }
            }
            CcDecision::Rejected(cause) => {
                SiteMetrics::bump(&shared.metrics.ccp_rejections);
                CopyAccessResult::Denied(cause)
            }
        };
        send_copy_reply(shared, from, ctx.id, item, access, result);
    }
}

/// A copy access the CCP said must wait, and until when the site keeps
/// asking.
struct Parked {
    request: CopyRequest,
    deadline: Instant,
}

fn send_copy_reply(
    shared: &SiteShared,
    from: NodeId,
    txn: TxnId,
    item: ItemId,
    access: CopyAccess,
    result: CopyAccessResult,
) {
    shared.send(
        from,
        Msg::CopyReply {
            txn,
            item,
            prewrite: access == CopyAccess::Prewrite,
            for_update: access == CopyAccess::Read { for_update: true },
            result,
        },
    );
}

fn lock_conflict(item: &ItemId, holder: Option<TxnId>) -> CopyAccessResult {
    CopyAccessResult::Denied(AbortCause::CcpLockConflict {
        item: item.clone(),
        holder,
    })
}

/// Handles a copy read or pre-write request: the request is refused, or
/// answered with what the CCP decided, or — when the CCP says it must wait —
/// parked.
fn handle_copy_access(
    shared: &SiteShared,
    state: &mut SiteState,
    from: NodeId,
    txn: TxnId,
    ts: Timestamp,
    item: ItemId,
    access: CopyAccess,
) {
    shared.clock.observe(ts);
    let refuse = |item: ItemId, result| send_copy_reply(shared, from, txn, item, access, result);
    // Refuse accesses for transactions that already finished at this site
    // (their decision raced ahead of this request); granting would leak a
    // lock nobody releases.
    if state.finished.contains(&txn) {
        let denied = lock_conflict(&item, None);
        return refuse(item, denied);
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
        return refuse(item, denied);
    }
    // Register the participant entry before asking, so a decision that is
    // already queued behind this request finds the entry and cleans it up.
    let ctx = state.ensure_participant(shared, txn, ts, from);
    let Ok(current) = shared.storage.read(&item) else {
        return refuse(item, CopyAccessResult::NoSuchCopy);
    };
    let request = CopyRequest {
        from,
        ctx,
        item,
        access,
        current,
        lock_start: shared.trace_now(),
    };
    match request.ask(&*state.ccp) {
        Some(decision) => {
            SiteMetrics::bump(&shared.metrics.copy_accesses_inline);
            request.finish(shared, state, decision);
        }
        None => {
            SiteMetrics::bump(&shared.metrics.copy_accesses_parked);
            let deadline = Instant::now() + state.ccp.wait_budget();
            state.parked.push(Parked { request, deadline });
        }
    }
}

/// Asks the CCP again about every parked copy access, oldest first: the
/// ones it now decides are answered, and the ones that ran out of time, or
/// whose transaction was decided or cleaned up while they waited, give up
/// and are denied. Returns the earliest deadline among those still parked.
fn ask_parked_again(shared: &SiteShared, state: &mut SiteState) -> Option<Instant> {
    if state.parked.is_empty() {
        return None;
    }
    let ccp = Arc::clone(&state.ccp);
    let now = Instant::now();
    for Parked { request, deadline } in std::mem::take(&mut state.parked) {
        let abandoned = !state.participants.contains_key(&request.ctx.id);
        let answer = if abandoned { None } else { request.ask(&*ccp) };
        match answer {
            Some(decision) => request.finish(shared, state, decision),
            None if abandoned || now >= deadline => {
                let cause = ccp.give_up(&request.ctx, &request.item);
                request.finish(shared, state, CcDecision::Rejected(cause));
            }
            None => state.parked.push(Parked { request, deadline }),
        }
    }
    state.parked.iter().map(|waiting| waiting.deadline).min()
}

/// Handles the PREPARE requests of the commit protocol that arrived in one
/// envelope (one, or a coalesced batch): each transaction is validated and
/// staged individually, but the prepare records of every YES-voter are
/// forced with a **single** [`rainbow_storage::SiteStorage::prepare_many`]
/// group append — the group-commit half of the outbox pipeline. Votes
/// travel back to the coordinator node in one batch envelope when there is
/// more than one.
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
    from: NodeId,
    prepares: Vec<(TxnId, Timestamp, WriteSet)>,
) {
    let prepare_start = shared.trace_now();
    let group = prepares.len();
    // Phase 1: validate through the CCP and stage the writes of every
    // transaction that can commit.
    let mut rounds: Vec<(TxnId, TxnContext, Vote, usize)> = Vec::with_capacity(group);
    let mut yes_voters: Vec<TxnId> = Vec::with_capacity(group);
    let mut votes: Vec<Msg> = Vec::with_capacity(group);
    for (txn, ts, writes) in prepares {
        SiteMetrics::bump(&shared.metrics.served_requests);
        shared.clock.observe(ts);
        if state.finished.contains(&txn) {
            SiteMetrics::bump(&shared.metrics.votes_no);
            votes.push(Msg::AcpVote {
                txn,
                vote: Vote::No,
            });
            continue;
        }
        let ctx = state.ensure_participant(shared, txn, ts, from);
        let vote = if !state.ccp.validate(&ctx).is_granted() {
            Vote::No
        } else if writes.is_empty() {
            Vote::ReadOnly
        } else {
            for (item, value, version) in &writes {
                shared
                    .storage
                    .stage_write(txn, item.clone(), value.clone(), *version);
            }
            yes_voters.push(txn);
            Vote::Yes
        };
        rounds.push((txn, ctx, vote, writes.len()));
    }
    // Phase 2: one forced append covers every YES-voter's prepare record —
    // still strictly before any YES vote leaves this site.
    shared.storage.prepare_many(&yes_voters);
    // Phase 3: advance the participant machines and vote.
    for (txn, ctx, vote, n_writes) in rounds {
        let entry = state.participants.get_mut(&txn);
        let entry = entry.expect("entry ensured above");
        entry.last_activity = Instant::now();
        if let ParticipantAction::SendVote(vote) = entry.machine.on_prepare(vote) {
            match vote {
                Vote::Yes => SiteMetrics::bump(&shared.metrics.votes_yes),
                Vote::No => {
                    SiteMetrics::bump(&shared.metrics.votes_no);
                    // Voting NO releases local resources immediately.
                    shared.storage.abort(txn);
                    state.ccp.abort(&ctx);
                }
                Vote::ReadOnly => {
                    SiteMetrics::bump(&shared.metrics.votes_read_only);
                    state.finished.insert(txn);
                    state.participants.remove(&txn);
                    state.ccp.commit(&ctx, &[]);
                }
            }
            shared.trace_site_span(txn, Some(Phase::Prepare), "acp:vote", prepare_start, || {
                format!("{vote:?} ({n_writes} writes, group of {group})")
            });
            votes.push(Msg::AcpVote { txn, vote });
        }
    }
    match votes.len() {
        0 => {}
        1 => shared.send(from, votes.pop().expect("one vote")),
        _ => shared.send(from, Msg::Batch(votes)),
    }
}

/// Handles the COMMIT decisions that arrived in one envelope (one, or a
/// coalesced batch): every participant machine advances individually, then
/// all the commit records are forced with a single
/// [`rainbow_storage::SiteStorage::commit_many`] group append and the writes
/// installed under one store lock. Acks travel back in one batch envelope
/// when there is more than one.
fn handle_decision_commit_batch(
    shared: &SiteShared,
    state: &mut SiteState,
    from: NodeId,
    txns: Vec<TxnId>,
) {
    let apply_start = shared.trace_now();
    let group = txns.len();
    let mut to_apply: Vec<(TxnId, TxnContext)> = Vec::with_capacity(group);
    let mut acks: Vec<Msg> = Vec::with_capacity(group);
    for txn in txns {
        state.finished.insert(txn);
        if let Some(mut entry) = state.participants.remove(&txn) {
            match entry.machine.on_decision(Decision::Commit) {
                ParticipantAction::ApplyAndAck(Decision::Commit) => {
                    to_apply.push((txn, entry.ctx));
                }
                ParticipantAction::ApplyAndAck(Decision::Abort) => {
                    apply_decision(shared, &*state.ccp, &entry.ctx, Decision::Abort);
                }
                _ => {}
            }
        } else {
            state
                .in_doubt
                .resolve(&shared.storage, txn, Decision::Commit);
        }
        // Ack even without a participant entry (already applied, cleaned
        // up, or crashed and recovered — then the decision may be the answer
        // an in-doubt transaction is waiting for), so the coordinator can
        // finish.
        acks.push(Msg::AcpAck { txn });
    }
    let apply_ids: Vec<TxnId> = to_apply.iter().map(|(txn, _)| *txn).collect();
    let write_sets = shared.storage.commit_many(&apply_ids);
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
    match acks.len() {
        0 => {}
        1 => shared.send(from, acks.pop().expect("one ack")),
        _ => shared.send(from, Msg::Batch(acks)),
    }
}

/// Handles the 3PC PRE-COMMIT message.
fn handle_precommit(shared: &SiteShared, state: &mut SiteState, from: NodeId, txn: TxnId) {
    let action = match state.participants.get_mut(&txn) {
        Some(entry) => {
            entry.last_activity = Instant::now();
            entry.machine.on_precommit()
        }
        None => ParticipantAction::Wait,
    };
    if action == ParticipantAction::SendPreCommitAck {
        shared.send(from, Msg::AcpPreCommitAck { txn });
    }
}

/// Handles the coordinator's ABORT decision (or release notice).
fn handle_abort_decision(shared: &SiteShared, state: &mut SiteState, from: NodeId, txn: TxnId) {
    state.finished.insert(txn);
    match state.participants.remove(&txn) {
        Some(mut entry) => {
            let action = entry.machine.on_decision(Decision::Abort);
            if let ParticipantAction::ApplyAndAck(applied) = action {
                apply_decision(shared, &*state.ccp, &entry.ctx, applied);
            }
        }
        // We have no record (already applied, cleaned up, or we crashed
        // and recovered): acknowledge all the same.
        None => {
            state
                .in_doubt
                .resolve(&shared.storage, txn, Decision::Abort);
        }
    }
    shared.send(from, Msg::AcpAck { txn });
}

/// Handles the reply to a status query sent for an in-doubt transaction (or
/// by a blocked participant).
fn handle_status_reply(shared: &SiteShared, state: &mut SiteState, txn: TxnId, decision: Decision) {
    // Case 1: an in-doubt transaction from crash recovery.
    if state.in_doubt.resolve(&shared.storage, txn, decision) {
        return;
    }

    // Case 2: a blocked (prepared) participant resolving via its coordinator.
    if let Some(mut entry) = state.participants.remove(&txn) {
        state.finished.insert(txn);
        if let ParticipantAction::ApplyAndAck(applied) = entry.machine.on_decision(decision) {
            apply_decision(shared, &*state.ccp, &entry.ctx, applied);
        }
    }
}

/// Applies a commit/abort decision to storage and the CCP.
fn apply_decision(shared: &SiteShared, ccp: &dyn CcProtocol, ctx: &TxnContext, decision: Decision) {
    let apply_start = shared.trace_now();
    match decision {
        Decision::Commit => {
            let writes = shared.storage.commit(ctx.id);
            ccp.commit(ctx, &writes);
            shared.trace_site_span(
                ctx.id,
                Some(Phase::CommitApply),
                "apply:commit",
                apply_start,
                || format!("{} writes installed", writes.len()),
            );
        }
        Decision::Abort => {
            shared.storage.abort(ctx.id);
            ccp.abort(ctx);
            shared.trace_site_span(ctx.id, None, "apply:abort", apply_start, String::new);
        }
    }
}

/// Cleans up transactions whose coordinator never came back, so their locks
/// do not wedge the site forever. Prepared participants ask the coordinator
/// for the decision (cooperative termination); working participants are
/// aborted unilaterally.
fn run_janitor(shared: &SiteShared, state: &mut SiteState) {
    let horizon = shared.stack.janitor_horizon();
    let now = Instant::now();
    let mut stale_working: Vec<(TxnId, TxnContext)> = Vec::new();
    let mut stale_prepared: Vec<(TxnId, NodeId)> = Vec::new();
    state.participants.retain(|txn, entry| {
        if now.duration_since(entry.last_activity) < horizon {
            return true;
        }
        match entry.machine.state() {
            ParticipantState::Working => {
                stale_working.push((*txn, entry.ctx));
                false
            }
            ParticipantState::Prepared | ParticipantState::PreCommitted => {
                // Keep the entry (still blocked / uncertain) but ask the
                // coordinator what happened; refresh the activity stamp so
                // we do not spam queries every janitor pass.
                stale_prepared.push((*txn, entry.coordinator));
                entry.last_activity = Instant::now();
                true
            }
            ParticipantState::Committed | ParticipantState::Aborted => false,
        }
    });
    for (txn, ctx) in stale_working {
        SiteMetrics::bump(&shared.metrics.janitor_cleanups);
        state.finished.insert(txn);
        apply_decision(shared, &*state.ccp, &ctx, Decision::Abort);
    }
    for (txn, coordinator) in stale_prepared {
        shared.send(coordinator, Msg::AcpStatusQuery { txn });
    }
    // In-doubt transactions found during crash recovery keep asking their
    // coordinator until an answer arrives. The initial query (sent by the
    // restart) is dropped whenever the fault controller still marks this
    // site crashed — the normal recovery order — so without this retry an
    // in-doubt commit could stay uninstalled forever.
    for &txn in state.in_doubt.writes.keys() {
        shared.send(NodeId::Site(txn.home), Msg::AcpStatusQuery { txn });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbow_net::{NetworkConfig, SimNetwork};

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
        one.site
            .state
            .lock()
            .home
            .out
            .record_decision(txn, Decision::Commit);
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
            let staged = one.site.shared.storage.staged_writes(&OneSite::txn(1).0);
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
        let storage = &one.site.shared.storage;
        one.read(1, "x0");
        one.granted(1);
        let (records, forces) = (storage.record_count(), storage.force_count());
        one.prepare_nothing(1);
        one.voted(1, Vote::ReadOnly);
        assert!(one.site.lingering_participants().is_empty());
        assert_eq!(storage.record_count(), records, "nothing is logged");
        assert_eq!(storage.force_count(), forces, "nothing is forced");
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
        site.shared
            .storage
            .stage_write(txn, ItemId::new("x0"), Value::Int(5), Version(1));
        site.shared.storage.prepare(txn);
        site.shared.storage.commit(txn);

        site.recover_from_crash().unwrap();
        let snapshot = site.database_snapshot();
        assert!(snapshot.contains(&(ItemId::new("x0"), Value::Int(5), Version(1))));
        assert_eq!(site.active_transactions(), 0);
    }
}
