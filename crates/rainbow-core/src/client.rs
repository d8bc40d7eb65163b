//! The client: interactive `Client` / `Txn` handles, and the endpoint that
//! runs one-shot transactions.
//!
//! The paper's Rainbow is an *interactive* teaching system — a session
//! configures the stack, then users drive transactions and watch each layer
//! react. This module is that interaction model as a first-class API:
//!
//! ```text
//! let mut client = cluster.client();
//! let mut txn = client.begin("transfer");     // local: nothing is sent
//! let balance = txn.read("checking")?;        // opens the conversation; read quorum runs NOW
//! if balance.as_int().unwrap_or(0) >= 100 {
//!     txn.increment("checking", -100)?;       // read-for-update quorum
//!     txn.increment("savings", 100)?;
//! }
//! let receipt = txn.commit()?;                // write quorums + ACP
//! ```
//!
//! Every step can fail with a typed, layer-attributed [`TxnError`] (CCP
//! deadlock/conflict, RCP quorum unreachable, ACP termination), an
//! unfinished [`Txn`] **aborts on
//! drop** so CCP resources never linger, and [`Client::run`] packages the
//! abort-and-retry loop (fresh transaction, seeded exponential backoff,
//! rotating home site) that conversational workloads need under contention
//! and faults.
//!
//! On the wire a conversation is named by a client-chosen request id. `begin`
//! only picks the home site and that id; the **first command opens the
//! conversation** (`TxnBegin { request, label, op, clock }`), and its answer brings
//! the transaction id the home site assigned. Later commands travel as
//! `TxnOp`; each is answered by a `TxnOpReply`, or by the `TxnDone` that ends
//! the transaction. So `begin` cannot fail — an unreachable home surfaces on
//! the first command as [`TxnError::Orphaned`], which [`Client::run`] retries
//! — and a handle dropped before its first command has told no site anything.
//! `commit` returns when the coordinator has **decided**: the decision is on
//! its record and on its way to participants that are all prepared. It does
//! not wait for their acknowledgements; they hold every lock until the
//! decision reaches them, so a later transaction sees the write or waits for
//! it.
//!
//! The client is cut the way a site is. A sans-IO `Conversation` holds
//! one transaction's request id, home, label, assigned id, start time and
//! the deadline of the answer it awaits; it turns a command into the
//! message to send, and a message, or a `now` past its deadline, into what
//! it heard. Two shells drive it on their caller's thread, over one client
//! node and its mailbox: a [`Txn`] is one conversation that waits for each
//! answer, and the *endpoint* (`Cluster::submit`, `run_workload`,
//! `run_arrivals`) drives many one-shot [`TxnSpec`]s keyed by request id,
//! each from its arrival offset and at most a cap at once. Both wait in
//! `rainbow_net::recv_soon`, which checks the mailbox a few times, yielding
//! between checks, before it sleeps: an answer usually comes within
//! microseconds, and a sleeping thread costs a kernel wake-up per answer.
//! The node registers when the client or endpoint run is made and leaves
//! when it is dropped; no thread is created for a request.

use crate::messages::{Msg, NextOp, OpReply};
use crate::metrics::ProgressMonitor;
use crossbeam_channel::Receiver;
use parking_lot::Mutex;
use rainbow_common::txn::{AbortCause, TxnError, TxnOutcome, TxnReceipt, TxnResult, TxnSpec};
use rainbow_common::{ItemId, Operation, SiteId, TxnId, Value};
use rainbow_net::{recv_soon, Envelope, NetHandle, NodeId};
use std::collections::{BTreeMap, HashMap};
use std::iter::Peekable;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The sentinel transaction id reported for conversations that never got an
/// id assigned (no command was sent, or the home site never answered the
/// first one).
fn orphan_txn_id() -> TxnId {
    TxnId::new(SiteId(u32::MAX), 0)
}

/// The request a message to a client belongs to.
fn request_of(msg: &Msg) -> Option<u64> {
    match msg {
        Msg::TxnOpReply { request, .. } | Msg::TxnDone { request, .. } => Some(*request),
        _ => None,
    }
}

/// One transaction's conversation with its home site, with no I/O: the
/// caller sends what [`Conversation::send`] returns, hands it every message
/// ([`Conversation::step`]) and tells it the time ([`Conversation::tick`]).
#[derive(Debug)]
pub(crate) struct Conversation {
    request: u64,
    home: SiteId,
    label: String,
    /// Assigned by the home site; learned from the first answer.
    id: Option<TxnId>,
    started: Instant,
    /// When the answer to the last command is due.
    deadline: Instant,
}

/// What a conversation heard after one command.
#[derive(Debug)]
pub(crate) enum Event {
    /// A non-terminal reply from the coordinator.
    Reply(OpReply),
    /// The terminal result, with the transaction's timestamp counter for
    /// the clients' clock: the transaction is over.
    Done { result: TxnResult, clock: u64 },
    /// No coordinator is driving the transaction any more.
    Gone,
    /// Nothing within the client timeout (or the network is down).
    NoAnswer,
}

impl Conversation {
    /// The message that carries `op`, whose answer is due by `now +
    /// timeout`. The first command travels as the `TxnBegin` that opens the
    /// conversation, stamped with the clients' `clock`.
    pub(crate) fn send(&mut self, op: NextOp, clock: u64, now: Instant, timeout: Duration) -> Msg {
        self.deadline = now + timeout;
        let request = self.request;
        match self.id {
            Some(txn) => Msg::TxnOp { request, txn, op },
            None => Msg::TxnBegin {
                request,
                label: self.label.clone(),
                op,
                clock,
            },
        }
    }

    /// What `msg` means to this conversation; `None` for a leftover of
    /// another request (e.g. the `TxnDone` of a dropped handle).
    pub(crate) fn step(&mut self, msg: Msg) -> Option<Event> {
        if request_of(&msg) != Some(self.request) {
            return None;
        }
        match msg {
            Msg::TxnOpReply {
                reply: OpReply::Gone,
                ..
            } => Some(Event::Gone),
            Msg::TxnOpReply { txn, reply, .. } => {
                self.id = Some(txn);
                Some(Event::Reply(reply))
            }
            Msg::TxnDone { result, clock, .. } => Some(Event::Done {
                result: *result,
                clock,
            }),
            _ => None,
        }
    }

    /// How long the awaited answer still has at `now`; `None` once it is
    /// overdue, which the conversation hears as [`Event::NoAnswer`].
    pub(crate) fn tick(&self, now: Instant) -> Option<Duration> {
        let left = self.deadline.checked_duration_since(now)?;
        (!left.is_zero()).then_some(left)
    }

    /// A result the client makes up itself at `now` (an orphan, a
    /// drop-abort).
    pub(crate) fn synthetic(&self, outcome: TxnOutcome, now: Instant) -> TxnResult {
        TxnResult {
            id: self.id.unwrap_or_else(orphan_txn_id),
            label: self.label.clone(),
            outcome,
            reads: BTreeMap::new(),
            response_time: now.saturating_duration_since(self.started),
            restarts: 0,
            messages: 0,
        }
    }
}

/// What every client of a cluster shares: the way to its sites and the
/// client timeout, after which an unanswered transaction is orphaned (each
/// round trip gets a fresh window).
pub(crate) struct Clients {
    pub(crate) net: NetHandle<Msg>,
    pub(crate) monitor: Arc<ProgressMonitor>,
    pub(crate) sites: Vec<SiteId>,
    pub(crate) timeout: Duration,
    pub(crate) counters: Counters,
}

/// The clients' shared counters.
#[derive(Default)]
pub(crate) struct Counters {
    /// Round-robin cursor for home-site selection.
    round_robin: AtomicU64,
    next_request: AtomicU64,
    /// The clients' Lamport clock (see [`Msg::TxnBegin`]), shared as by the
    /// threads of one process: a transaction one client begins after
    /// another client's ended is stamped after it.
    clock: AtomicU64,
    /// Client node ids: the next new one, and those of dropped nodes, which
    /// are reused, so the ids in use are as few as the clients alive at
    /// once (a link override for `NodeId::Client(0)` reaches every one-shot
    /// client of a serial run).
    next_node: AtomicU32,
    free_nodes: Mutex<Vec<u32>>,
}

impl Clients {
    /// Registers a client node on the network, with its mailbox.
    pub(crate) fn node(&self) -> ClientCore<'_> {
        let index = self.counters.free_nodes.lock().pop();
        let next = || self.counters.next_node.fetch_add(1, Ordering::Relaxed);
        let node = NodeId::Client(index.unwrap_or_else(next));
        let mailbox = self.net.register(node);
        ClientCore {
            clients: self,
            node,
            mailbox,
        }
    }
}

/// One client node on the network and its mailbox; it leaves the network
/// when dropped.
pub(crate) struct ClientCore<'a> {
    clients: &'a Clients,
    node: NodeId,
    mailbox: Receiver<Envelope<Msg>>,
}

impl ClientCore<'_> {
    /// Opens a conversation *on the client only*: picks the home site
    /// (round robin unless pinned) and the request id, counts the
    /// submission, and sends nothing.
    fn open(&self, label: String, home: Option<SiteId>, now: Instant) -> Conversation {
        let (clients, counters) = (self.clients, &self.clients.counters);
        let home = home.unwrap_or_else(|| {
            let index = counters.round_robin.fetch_add(1, Ordering::Relaxed) as usize;
            clients.sites[index % clients.sites.len()]
        });
        clients.monitor.record_submitted();
        Conversation {
            request: counters.next_request.fetch_add(1, Ordering::Relaxed),
            home,
            label,
            id: None,
            started: now,
            deadline: now,
        }
    }

    fn begin(&self, label: String, home: Option<SiteId>) -> Txn<'_> {
        Txn {
            core: self,
            conversation: self.open(label, home, Instant::now()),
            finished: false,
        }
    }

    /// Sends `op` on `conversation`; false when the network is down.
    fn send(&self, conversation: &mut Conversation, op: NextOp, now: Instant) -> bool {
        let clients = self.clients;
        let clock = clients.counters.clock.load(Ordering::Relaxed);
        let msg = conversation.send(op, clock, now, clients.timeout);
        let home = NodeId::Site(conversation.home);
        clients.net.send(self.node, home, msg).is_ok()
    }

    /// What `msg` means to `conversation`; a `TxnDone` also moves the
    /// clients' clock.
    fn hear(&self, conversation: &mut Conversation, msg: Msg) -> Option<Event> {
        let event = conversation.step(msg)?;
        if let Event::Done { clock, .. } = &event {
            let shared = &self.clients.counters.clock;
            shared.fetch_max(*clock, Ordering::Relaxed);
        }
        Some(event)
    }

    /// The endpoint: runs one-shot specs as conversations on this node (see
    /// `Cluster::run_arrivals`).
    pub(crate) fn run_specs(&self, specs: Vec<(Duration, TxnSpec)>, cap: usize) -> Vec<TxnResult> {
        let (start, cap) = (Instant::now(), cap.max(1));
        let mut results = Vec::with_capacity(specs.len());
        let mut arrivals = specs.into_iter().peekable();
        let mut open: HashMap<u64, Replay> = HashMap::new();
        loop {
            let now = Instant::now();
            open.retain(|_, replay| {
                let overdue = replay.conversation.tick(now).is_none();
                if overdue {
                    results.extend(self.carry_on(replay, Some(Event::NoAnswer), now));
                }
                !overdue
            });
            while open.len() < cap {
                let Some((_, spec)) = arrivals.next_if(|(at, _)| start + *at <= now) else {
                    break;
                };
                let mut replay = Replay {
                    conversation: self.open(spec.label, spec.home, now),
                    ops: spec.operations.into_iter().peekable(),
                    committing: false,
                };
                match self.carry_on(&mut replay, None, now) {
                    Some(result) => results.push(result),
                    None => _ = open.insert(replay.conversation.request, replay),
                }
            }
            let next = arrivals.peek().filter(|_| open.len() < cap);
            let deadlines = open.values().map(|replay| replay.conversation.deadline);
            let Some(wake) = deadlines.chain(next.map(|(at, _)| start + *at)).min() else {
                return results;
            };
            let Ok(envelope) = recv_soon(&self.mailbox, wake - now) else {
                continue;
            };
            let Some(request) = request_of(&envelope.payload) else {
                continue;
            };
            let Some(replay) = open.get_mut(&request) else {
                continue;
            };
            let event = self.hear(&mut replay.conversation, envelope.payload);
            if let Some(result) = self.carry_on(replay, event, Instant::now()) {
                open.remove(&request);
                results.push(result);
            }
        }
    }

    /// Carries a spec on after `event` (`None`: it has just opened): sends
    /// its next command and returns `None`, or returns its result when its
    /// conversation is over.
    fn carry_on(&self, run: &mut Replay, event: Option<Event>, now: Instant) -> Option<TxnResult> {
        let result = match event {
            None | Some(Event::Reply(_)) if !run.committing => {
                let op = run.next_op();
                if self.send(&mut run.conversation, op, now) {
                    return None;
                }
                run.conversation.synthetic(TxnOutcome::Orphaned, now)
            }
            Some(Event::Done { result, .. }) => result,
            // A commit answered by a reply, a vanished coordinator, no answer.
            _ => run.conversation.synthetic(TxnOutcome::Orphaned, now),
        };
        self.clients.monitor.record_result(&result);
        Some(result)
    }
}

impl Drop for ClientCore<'_> {
    fn drop(&mut self) {
        self.clients.net.unregister(self.node);
        if let NodeId::Client(index) = self.node {
            self.clients.counters.free_nodes.lock().push(index);
        }
    }
}

/// A one-shot spec on the endpoint: its conversation, and the operations
/// it has not sent yet.
struct Replay {
    conversation: Conversation,
    ops: Peekable<std::vec::IntoIter<Operation>>,
    committing: bool,
}

impl Replay {
    /// The next command: consecutive reads go as one `ReadMany` (so a
    /// one-shot spec keeps its parallel quorum fan-out), and after the last
    /// operation comes the commit.
    fn next_op(&mut self) -> NextOp {
        match self.ops.next() {
            Some(Operation::Read { item }) => {
                let mut items = vec![item];
                let is_read = |op: &Operation| matches!(op, Operation::Read { .. });
                while let Some(Operation::Read { item }) = self.ops.next_if(is_read) {
                    items.push(item);
                }
                NextOp::ReadMany { items }
            }
            Some(Operation::Write { item, value }) => NextOp::BufferWrite { item, value },
            Some(Operation::Increment { item, delta }) => NextOp::Increment { item, delta },
            None => {
                self.committing = true;
                NextOp::Commit
            }
        }
    }
}

/// Retry behaviour of [`Client::run`]: bounded attempts with seeded
/// exponential backoff, so abort-and-retry experiments stay reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum transaction attempts (including the first).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles every further attempt.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(200),
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// The sleep before attempt number `attempt` (1-based for retries):
    /// exponential in the attempt, plus deterministic jitter so colliding
    /// retriers de-synchronize identically across runs with the same seed.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let jitter_space = self.base_backoff.as_micros() as u64;
        let jitter = if jitter_space == 0 {
            0
        } else {
            splitmix64(self.seed.wrapping_add(attempt as u64)) % jitter_space
        };
        (exp + Duration::from_micros(jitter)).min(self.max_backoff)
    }
}

/// SplitMix64: a tiny, dependency-free deterministic mixer for backoff
/// jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// An interactive client of a running cluster. Obtained from
/// `Cluster::client()`; one client drives one transaction at a time
/// (enforced by the borrow checker: [`Txn`] borrows the client mutably).
pub struct Client<'a> {
    core: ClientCore<'a>,
    retry: RetryPolicy,
}

impl<'a> Client<'a> {
    pub(crate) fn new(core: ClientCore<'a>) -> Self {
        Client {
            core,
            retry: RetryPolicy::default(),
        }
    }

    /// Replaces the retry policy used by [`Client::run`].
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Begins an interactive transaction at a round-robin-chosen home site.
    ///
    /// Nothing is sent yet, so this cannot fail: the home site is contacted
    /// by the first command, and an unreachable home surfaces there, as
    /// [`TxnError::Orphaned`].
    pub fn begin(&mut self, label: impl Into<String>) -> Txn<'_> {
        self.core.begin(label.into(), None)
    }

    /// Begins an interactive transaction pinned to a home site, like the
    /// manual workload panel does. Sends nothing, like [`Client::begin`].
    pub fn begin_at(&mut self, label: impl Into<String>, home: SiteId) -> Txn<'_> {
        self.core.begin(label.into(), Some(home))
    }

    /// Runs `body` inside a transaction, committing when it returns `Ok` —
    /// and retrying the whole conversation (fresh transaction, rotated home
    /// site, seeded exponential backoff) when the attempt fails with a
    /// retryable [`TxnError`]. This is the abort-and-retry combinator for
    /// conversational workloads: deadlock victims, quorum timeouts and
    /// orphaned conversations are retried; deliberate aborts are not.
    ///
    /// On success, returns the body's value together with the commit
    /// receipt; `receipt.restarts` counts the aborted attempts.
    pub fn run<T>(
        &mut self,
        label: impl Into<String>,
        mut body: impl FnMut(&mut Txn) -> Result<T, TxnError>,
    ) -> Result<(T, TxnReceipt), TxnError> {
        let label = label.into();
        let retry = self.retry.clone();
        let mut last_error: Option<TxnError> = None;
        for attempt in 0..retry.max_attempts {
            if attempt > 0 {
                std::thread::sleep(retry.backoff(attempt));
            }
            let mut txn = self.core.begin(label.clone(), None);
            match body(&mut txn) {
                Ok(value) => match txn.commit() {
                    Ok(mut receipt) => {
                        receipt.restarts = attempt;
                        return Ok((value, receipt));
                    }
                    Err(error) if error.is_retryable() => {
                        last_error = Some(error);
                        continue;
                    }
                    Err(error) => return Err(error),
                },
                Err(error) => {
                    txn.abort();
                    if error.is_retryable() {
                        last_error = Some(error);
                        continue;
                    }
                    return Err(error);
                }
            }
        }
        Err(last_error.unwrap_or(TxnError::Finished))
    }
}

/// An open interactive transaction. Operations run through the protocol
/// stack as they are issued: reads assemble their read quorum immediately
/// and return the observed value, writes buffer until [`Txn::commit`]
/// installs them through write quorums and the ACP, increments assemble a
/// read-for-update quorum immediately. Dropping an unfinished handle aborts
/// the transaction so no CCP resource outlives the conversation.
pub struct Txn<'c> {
    core: &'c ClientCore<'c>,
    conversation: Conversation,
    /// Whether the conversation has terminated (its one result is recorded
    /// with the progress monitor).
    finished: bool,
}

impl Txn<'_> {
    /// The transaction id the home site assigned: `None` until the first
    /// command has been answered.
    pub fn id(&self) -> Option<TxnId> {
        self.conversation.id
    }

    /// The home site coordinating this transaction.
    pub fn home(&self) -> SiteId {
        self.conversation.home
    }

    /// The label the transaction was begun with.
    pub fn label(&self) -> &str {
        &self.conversation.label
    }

    /// Terminates the conversation with `result` (each conversation records
    /// exactly one result).
    fn finish(&mut self, result: TxnResult) {
        if !self.finished {
            self.core.clients.monitor.record_result(&result);
            self.finished = true;
        }
    }

    /// Terminates with a client-synthesized outcome (orphan, drop-abort).
    fn finish_synthetic(&mut self, outcome: TxnOutcome) {
        let result = self.conversation.synthetic(outcome, Instant::now());
        self.finish(result);
    }

    /// Sends one command and waits for the conversation's next event: the
    /// coordinator's reply, the terminal `TxnDone`, a `Gone` notice, or no
    /// answer within the client timeout. Every operation shares this loop;
    /// callers differ only in how they map the event to their outcome.
    fn send_and_await(&mut self, op: NextOp) -> Event {
        let core = self.core;
        if !core.send(&mut self.conversation, op, Instant::now()) {
            return Event::NoAnswer;
        }
        loop {
            let Some(wait) = self.conversation.tick(Instant::now()) else {
                return Event::NoAnswer;
            };
            let Ok(envelope) = recv_soon(&core.mailbox, wait) else {
                return Event::NoAnswer;
            };
            if let Some(event) = core.hear(&mut self.conversation, envelope.payload) {
                return event;
            }
        }
    }

    /// Ends the conversation with the coordinator's `result`: its receipt
    /// when it committed, otherwise why not.
    fn end(&mut self, result: TxnResult) -> Result<TxnReceipt, TxnError> {
        let home = self.conversation.home;
        let ended = match &result.outcome {
            TxnOutcome::Committed => Ok(TxnReceipt::from_result(&result).expect("committed")),
            TxnOutcome::Aborted(cause) => Err(TxnError::Aborted(cause.clone())),
            TxnOutcome::Orphaned => Err(TxnError::Orphaned { home }),
        };
        self.finish(result);
        ended
    }

    /// Ends the conversation as orphaned after `event` lost it: no answer,
    /// or (`Expired`) a coordinator that no longer knows the transaction, so
    /// its fate never became visible to this client.
    fn lost(&mut self, event: Event) -> TxnError {
        self.finish_synthetic(TxnOutcome::Orphaned);
        match event {
            Event::NoAnswer => TxnError::Orphaned {
                home: self.conversation.home,
            },
            _ => TxnError::Expired,
        }
    }

    /// Sends one non-terminal command and returns its reply. Terminal
    /// events (a `TxnDone`, a vanished coordinator, a client timeout)
    /// finish the handle and surface as errors.
    fn command(&mut self, op: NextOp) -> Result<OpReply, TxnError> {
        if self.finished {
            return Err(TxnError::Finished);
        }
        match self.send_and_await(op) {
            Event::Reply(reply) => Ok(reply),
            // A commit decision can only answer a Commit command.
            Event::Done { result, .. } => Err(self.end(result).err().unwrap_or(TxnError::Finished)),
            event => Err(self.lost(event)),
        }
    }

    /// Reads `item`: the read quorum runs immediately and the observed
    /// (highest-versioned in-quorum) value is returned mid-transaction.
    pub fn read(&mut self, item: impl Into<ItemId>) -> Result<Value, TxnError> {
        match self.command(NextOp::Read { item: item.into() })? {
            OpReply::Value { value, .. } => Ok(value),
            _ => Err(TxnError::Expired),
        }
    }

    /// Reads several items as one batch: their read quorums assemble
    /// together (parallel fan-out when enabled, so the batch costs one
    /// slowest-quorum latency instead of the sum) and the observed values
    /// come back in request order. The multi-get of the interactive API.
    pub fn read_many(
        &mut self,
        items: impl IntoIterator<Item = impl Into<ItemId>>,
    ) -> Result<Vec<(ItemId, Value)>, TxnError> {
        let items: Vec<ItemId> = items.into_iter().map(Into::into).collect();
        if items.is_empty() {
            return Ok(Vec::new());
        }
        match self.command(NextOp::ReadMany { items })? {
            OpReply::Values { values } => Ok(values),
            _ => Err(TxnError::Expired),
        }
    }

    /// Buffers a write of `value` into `item`. The write quorum runs when
    /// the transaction commits; the value is installed through the ACP.
    pub fn write(
        &mut self,
        item: impl Into<ItemId>,
        value: impl Into<Value>,
    ) -> Result<(), TxnError> {
        let item = item.into();
        let value = value.into();
        match self.command(NextOp::BufferWrite { item, value })? {
            OpReply::Buffered => Ok(()),
            _ => Err(TxnError::Expired),
        }
    }

    /// Read-modify-write: adds `delta` to the integer value of `item` and
    /// returns the observed pre-increment value. The write access is taken
    /// up front (read-for-update), so no shared→exclusive upgrade is needed
    /// later.
    pub fn increment(&mut self, item: impl Into<ItemId>, delta: i64) -> Result<Value, TxnError> {
        let item = item.into();
        match self.command(NextOp::Increment { item, delta })? {
            OpReply::Value { value, .. } => Ok(value),
            _ => Err(TxnError::Expired),
        }
    }

    /// Commits: the buffered writes are installed through their write
    /// quorums, then the atomic commit protocol decides. Consumes the
    /// handle; on success the receipt carries everything the conversation
    /// observed and cost.
    pub fn commit(mut self) -> Result<TxnReceipt, TxnError> {
        if self.finished {
            return Err(TxnError::Finished);
        }
        match self.send_and_await(NextOp::Commit) {
            Event::Done { result, .. } => self.end(result),
            // A Commit command is only ever answered with TxnDone or Gone;
            // any other event means the coordinator is unreachable or lost.
            event => Err(self.lost(event)),
        }
    }

    /// Aborts the transaction, waiting for the coordinator to confirm that
    /// every CCP resource is released (best effort: a vanished coordinator
    /// is recorded as an abort anyway and its sites are cleaned by the
    /// janitor).
    pub fn abort(mut self) {
        if self.finished {
            return;
        }
        if self.conversation.id.is_none() {
            // No command was ever sent: there is no confirmation to wait for.
            return self.abandon();
        }
        match self.send_and_await(NextOp::Abort) {
            Event::Done { result, .. } => self.finish(result),
            // No confirmation: the abort was still initiated (or the
            // coordinator is already gone and the janitor cleans up), so the
            // conversation is truthfully an abort.
            _ => self.finish_synthetic(TxnOutcome::Aborted(AbortCause::UserAbort)),
        }
    }

    /// Fire-and-forget abort used by drop paths: the coordinator releases
    /// CCP resources as soon as the command arrives; nobody waits on a
    /// dropped handle. A handle that never sent a command has nothing to
    /// release anywhere and sends nothing.
    fn abandon(&mut self) {
        if let Some(txn) = self.conversation.id {
            let (request, op) = (self.conversation.request, NextOp::Abort);
            let home = NodeId::Site(self.conversation.home);
            let msg = Msg::TxnOp { request, txn, op };
            let _ = self.core.clients.net.send(self.core.node, home, msg);
        }
        self.finish_synthetic(TxnOutcome::Aborted(AbortCause::UserAbort));
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.abandon();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_growing() {
        let policy = RetryPolicy::default();
        let a1 = policy.backoff(1);
        let a2 = policy.backoff(2);
        assert_eq!(a1, policy.backoff(1), "same seed, same jitter");
        assert!(a2 >= a1, "backoff grows with the attempt");
        for attempt in 1..64 {
            assert!(policy.backoff(attempt) <= policy.max_backoff);
        }
        let other_seed = RetryPolicy {
            seed: 7,
            ..RetryPolicy::default()
        };
        // Different seeds may produce different jitter (not asserted equal).
        let _ = other_seed.backoff(1);
    }

    #[test]
    fn splitmix_spreads_consecutive_seeds() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert_ne!(a & 0xffff, b & 0xffff, "low bits differ too");
    }

    const SECOND: Duration = Duration::from_secs(1);

    /// Request 7 at site 1, opened at `t0`. These tests hand it messages and
    /// times: no thread, no network, no clock.
    fn conversation(t0: Instant) -> Conversation {
        Conversation {
            request: 7,
            home: SiteId(1),
            label: "t".into(),
            id: None,
            started: t0,
            deadline: t0,
        }
    }

    fn done(request: u64, id: TxnId, outcome: TxnOutcome) -> Msg {
        let result = TxnResult {
            id,
            label: "t".into(),
            outcome,
            reads: BTreeMap::new(),
            response_time: Duration::from_millis(3),
            restarts: 0,
            messages: 10,
        };
        Msg::TxnDone {
            request,
            result: Box::new(result),
            clock: 9,
        }
    }

    #[test]
    fn a_stepped_commit_is_answered_by_its_txn_done() {
        let (t0, txn) = (Instant::now(), TxnId::new(SiteId(1), 3));
        let mut conversation = conversation(t0);
        let item = ItemId::new("x");
        let begin = conversation.send(NextOp::Increment { item, delta: 1 }, 5, t0, SECOND);
        assert!(
            matches!(begin, Msg::TxnBegin { request: 7, clock: 5, ref label, .. } if label == "t"),
            "the first command opens the conversation: {begin:?}"
        );
        let value = OpReply::Value {
            item: ItemId::new("x"),
            value: Value::Int(100),
        };
        let reply = Msg::TxnOpReply {
            request: 7,
            txn,
            reply: value,
        };
        let heard = conversation.step(reply);
        assert!(matches!(heard, Some(Event::Reply(OpReply::Value { .. }))));
        assert_eq!(
            conversation.id,
            Some(txn),
            "the answer names the transaction"
        );

        let t1 = t0 + Duration::from_millis(10);
        let commit = conversation.send(NextOp::Commit, 5, t1, SECOND);
        assert!(
            matches!(commit, Msg::TxnOp { request: 7, txn: t, op: NextOp::Commit } if t == txn),
            "{commit:?}"
        );
        let half_way = t1 + SECOND / 2;
        assert_eq!(conversation.tick(half_way), Some(SECOND / 2));
        match conversation.step(done(7, txn, TxnOutcome::Committed)) {
            Some(Event::Done { result, clock: 9 }) => assert!(result.committed()),
            other => panic!("a commit ends in its TxnDone: {other:?}"),
        }
    }

    #[test]
    fn a_stepped_conversation_skips_an_earlier_requests_leftovers() {
        let t0 = Instant::now();
        let mut conversation = conversation(t0);
        let item = ItemId::new("x");
        conversation.send(NextOp::Read { item }, 0, t0, SECOND);
        // What request 6, an earlier transaction on the same node, left
        // behind: the TxnDone of a dropped handle, a late Gone.
        let earlier = TxnId::new(SiteId(1), 2);
        let dropped = done(6, earlier, TxnOutcome::Aborted(AbortCause::UserAbort));
        assert!(conversation.step(dropped).is_none());
        let gone = Msg::TxnOpReply {
            request: 6,
            txn: earlier,
            reply: OpReply::Gone,
        };
        assert!(conversation.step(gone).is_none());
        assert_eq!(conversation.id, None, "a leftover names no transaction");

        let txn = TxnId::new(SiteId(1), 3);
        let own = done(7, txn, TxnOutcome::Aborted(AbortCause::UserAbort));
        let heard = conversation.step(own);
        assert!(matches!(heard, Some(Event::Done { result, .. }) if result.id == txn));
    }

    #[test]
    fn a_stepped_lost_reply_times_out_into_an_orphan() {
        let t0 = Instant::now();
        let mut conversation = conversation(t0);
        let item = ItemId::new("x");
        conversation.send(NextOp::Increment { item, delta: 1 }, 0, t0, SECOND);
        let almost = t0 + SECOND - Duration::from_millis(1);
        assert_eq!(conversation.tick(almost), Some(Duration::from_millis(1)));
        // The reply was lost: at its deadline there is no answer.
        assert_eq!(conversation.tick(t0 + SECOND), None);
        assert_eq!(conversation.tick(t0 + 2 * SECOND), None);
        let orphan = conversation.synthetic(TxnOutcome::Orphaned, t0 + SECOND);
        assert!(orphan.outcome.is_orphaned());
        assert_eq!(orphan.id, orphan_txn_id(), "the home never named it");
        assert_eq!(orphan.response_time, SECOND);
        assert_eq!(orphan.label, "t");
    }
}
