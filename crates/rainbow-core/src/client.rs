//! The interactive client API: `Client` / `Txn` handles.
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
//! One-shot [`TxnSpec`] submission (`Cluster::submit`, the Session API, the
//! workload runners) is a thin adapter that replays the spec through one of
//! these conversations — the coordinator has exactly one execution path.

use crate::messages::{Msg, NextOp, OpReply};
use crate::metrics::ProgressMonitor;
use crossbeam_channel::Receiver;
use parking_lot::Mutex;
use rainbow_common::txn::{AbortCause, TxnError, TxnOutcome, TxnReceipt, TxnResult, TxnSpec};
use rainbow_common::{ItemId, Operation, SiteId, TxnId, Value};
use rainbow_net::{Envelope, NetHandle, NodeId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The sentinel transaction id reported for conversations that never got an
/// id assigned (no command was sent, or the home site never answered the
/// first one).
fn orphan_txn_id() -> TxnId {
    TxnId::new(SiteId(u32::MAX), 0)
}

/// A client endpoint registered on the simulated network: its node identity,
/// its mailbox, and everything a conversation needs to reach the cluster.
/// Cores are pooled by the cluster so repeated `Cluster::client()` /
/// `Cluster::submit` calls do not grow the network registry without bound.
pub(crate) struct ClientCore {
    pub(crate) node: NodeId,
    pub(crate) mailbox: Receiver<Envelope<Msg>>,
    pub(crate) net: NetHandle<Msg>,
    pub(crate) monitor: Arc<ProgressMonitor>,
    pub(crate) sites: Vec<SiteId>,
    /// Round-robin cursor for home-site selection, shared with the cluster
    /// so interleaved clients spread load the way `Cluster::submit` always
    /// did.
    pub(crate) round_robin: Arc<AtomicU64>,
    /// Request-id source, shared across every client of the cluster.
    pub(crate) next_request: Arc<AtomicU64>,
    /// The clients' Lamport clock (see [`Msg::TxnBegin`]), shared across
    /// every client of the cluster as by the threads of one process: a
    /// transaction one client begins after another client's ended is
    /// stamped after it.
    pub(crate) clock: Arc<AtomicU64>,
    /// How long the client waits for any single conversation reply before
    /// declaring the transaction orphaned. The timeout now spans an open
    /// conversation: each round trip gets a fresh window.
    pub(crate) timeout: Duration,
}

impl ClientCore {
    /// Picks the next round-robin home site.
    fn pick_home(&self) -> SiteId {
        let index = self.round_robin.fetch_add(1, Ordering::Relaxed) as usize % self.sites.len();
        self.sites[index]
    }

    /// Starts a conversation *on the client only*: picks the home site and
    /// the request id, counts the submission, and sends nothing. The home
    /// site first hears of the transaction when the first command arrives,
    /// inside the opening `TxnBegin`.
    pub(crate) fn begin_conversation(&mut self, label: &str, home: Option<SiteId>) -> Txn<'_> {
        let home = home.unwrap_or_else(|| self.pick_home());
        let request = self.next_request.fetch_add(1, Ordering::Relaxed);
        self.monitor.record_submitted();
        Txn {
            core: self,
            request,
            id: None,
            home,
            label: label.to_string(),
            started: Instant::now(),
            finished: None,
        }
    }

    /// Replays a one-shot [`TxnSpec`] through an interactive conversation —
    /// the single adapter behind `Cluster::submit`, `Cluster::run_workload`
    /// and the Session API. Operation semantics match the conversation
    /// exactly: reads run their quorum immediately, writes buffer until
    /// commit, increments read-for-update; the first failing operation
    /// aborts the transaction.
    pub(crate) fn replay(&mut self, spec: &TxnSpec) -> TxnResult {
        let mut txn = self.begin_conversation(&spec.label, spec.home);
        let ops = &spec.operations;
        let mut index = 0;
        while index < ops.len() {
            // Consecutive reads replay as one ReadMany batch, so a one-shot
            // spec keeps the parallel quorum fan-out it always had.
            let step = match &ops[index] {
                Operation::Read { .. } => {
                    let mut items = Vec::new();
                    while let Some(Operation::Read { item }) = ops.get(index) {
                        items.push(item.clone());
                        index += 1;
                    }
                    txn.read_many(items).map(|_| ())
                }
                Operation::Write { item, value } => {
                    index += 1;
                    txn.write(item.clone(), value.clone())
                }
                Operation::Increment { item, delta } => {
                    index += 1;
                    txn.increment(item.clone(), *delta).map(|_| ())
                }
            };
            if step.is_err() {
                return txn.into_result();
            }
        }
        let _ = txn.finish_commit();
        txn.into_result()
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

/// Shared pool of client endpoints, owned by the cluster. Checked-out cores
/// return here when their [`Client`] drops, so client nodes are reused
/// instead of accumulating in the network registry.
pub(crate) struct ClientPool {
    cores: Mutex<Vec<ClientCore>>,
}

impl ClientPool {
    pub(crate) fn new() -> Self {
        ClientPool {
            cores: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn take(&self) -> Option<ClientCore> {
        self.cores.lock().pop()
    }

    pub(crate) fn put(&self, core: ClientCore) {
        self.cores.lock().push(core);
    }
}

/// An interactive client of a running cluster. Obtained from
/// `Cluster::client()`; one client drives one transaction at a time
/// (enforced by the borrow checker: [`Txn`] borrows the client mutably).
pub struct Client<'a> {
    pool: &'a ClientPool,
    core: Option<ClientCore>,
    retry: RetryPolicy,
}

impl<'a> Client<'a> {
    pub(crate) fn new(pool: &'a ClientPool, core: ClientCore) -> Self {
        Client {
            pool,
            core: Some(core),
            retry: RetryPolicy::default(),
        }
    }

    fn core_mut(&mut self) -> &mut ClientCore {
        self.core.as_mut().expect("core present until drop")
    }

    /// Replaces the retry policy used by [`Client::run`].
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The current retry policy.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Begins an interactive transaction at a round-robin-chosen home site.
    ///
    /// Nothing is sent yet, so this cannot fail: the home site is contacted
    /// by the first command, and an unreachable home surfaces there, as
    /// [`TxnError::Orphaned`].
    pub fn begin(&mut self, label: impl Into<String>) -> Txn<'_> {
        let label = label.into();
        self.core_mut().begin_conversation(&label, None)
    }

    /// Begins an interactive transaction pinned to a home site, like the
    /// manual workload panel does. Sends nothing, like [`Client::begin`].
    pub fn begin_at(&mut self, label: impl Into<String>, home: SiteId) -> Txn<'_> {
        let label = label.into();
        self.core_mut().begin_conversation(&label, Some(home))
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
            let mut txn = self.core_mut().begin_conversation(&label, None);
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

    /// Replays a one-shot [`TxnSpec`] through an interactive conversation
    /// and returns its full result — the adapter `Cluster::submit` and the
    /// Session layer are built on.
    pub fn replay_spec(&mut self, spec: &TxnSpec) -> TxnResult {
        self.core_mut().replay(spec)
    }
}

impl Drop for Client<'_> {
    fn drop(&mut self) {
        if let Some(core) = self.core.take() {
            self.pool.put(core);
        }
    }
}

/// An open interactive transaction. Operations run through the protocol
/// stack as they are issued: reads assemble their read quorum immediately
/// and return the observed value, writes buffer until [`Txn::commit`]
/// installs them through write quorums and the ACP, increments assemble a
/// read-for-update quorum immediately. Dropping an unfinished handle aborts
/// the transaction so no CCP resource outlives the conversation.
pub struct Txn<'c> {
    core: &'c mut ClientCore,
    request: u64,
    /// Assigned by the home site; learned from the first answer.
    id: Option<TxnId>,
    home: SiteId,
    label: String,
    started: Instant,
    /// The final result, once the conversation terminated (set exactly once;
    /// also recorded with the progress monitor exactly once).
    finished: Option<TxnResult>,
}

/// What the conversation heard back after sending one command; produced by
/// the single shared send/receive loop (`Txn::send_and_await`).
enum ConversationEvent {
    /// A non-terminal reply from the coordinator.
    Reply(OpReply),
    /// The terminal result: the transaction is over.
    Done(TxnResult),
    /// No coordinator is driving the transaction any more.
    Gone,
    /// Nothing within the client timeout (or the network is down).
    NoAnswer,
}

impl Txn<'_> {
    /// The transaction id the home site assigned: `None` until the first
    /// command has been answered.
    pub fn id(&self) -> Option<TxnId> {
        self.id
    }

    /// The home site coordinating this transaction.
    pub fn home(&self) -> SiteId {
        self.home
    }

    /// The label the transaction was begun with.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Terminates the conversation with `result`, recording it with the
    /// progress monitor (each conversation records exactly one result).
    fn finish(&mut self, result: TxnResult) {
        if self.finished.is_none() {
            self.core.monitor.record_result(&result);
            self.finished = Some(result);
        }
    }

    /// Terminates with a client-synthesized outcome (orphan, drop-abort).
    fn finish_synthetic(&mut self, outcome: TxnOutcome) {
        let result = TxnResult {
            id: self.id.unwrap_or_else(orphan_txn_id),
            label: self.label.clone(),
            outcome,
            reads: BTreeMap::new(),
            response_time: self.started.elapsed(),
            restarts: 0,
            messages: 0,
        };
        self.finish(result);
    }

    /// Sends one command and waits for the conversation's next relevant
    /// event: the coordinator's reply, the terminal `TxnDone`, a `Gone`
    /// notice, or no answer within the client timeout. This is the single
    /// send/receive loop every operation shares; callers differ only in how
    /// they map the event to their outcome. The first command of a
    /// conversation travels as the `TxnBegin` that opens it.
    fn send_and_await(&mut self, op: NextOp) -> ConversationEvent {
        let request = self.request;
        let msg = match self.id {
            Some(txn) => Msg::TxnOp { request, txn, op },
            None => Msg::TxnBegin {
                request,
                label: self.label.clone(),
                op,
                clock: self.core.clock.load(Ordering::Relaxed),
            },
        };
        let send = self
            .core
            .net
            .send(self.core.node, NodeId::Site(self.home), msg);
        if send.is_err() {
            return ConversationEvent::NoAnswer;
        }
        let deadline = Instant::now() + self.core.timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return ConversationEvent::NoAnswer;
            }
            let Ok(envelope) = self.core.mailbox.recv_timeout(remaining) else {
                return ConversationEvent::NoAnswer;
            };
            match envelope.payload {
                Msg::TxnOpReply {
                    request: r,
                    reply: OpReply::Gone,
                    ..
                } if r == request => return ConversationEvent::Gone,
                Msg::TxnOpReply {
                    request: r,
                    txn,
                    reply,
                } if r == request => {
                    self.id = Some(txn);
                    return ConversationEvent::Reply(reply);
                }
                Msg::TxnDone {
                    request: r,
                    result,
                    clock,
                } if r == request => {
                    self.core.clock.fetch_max(clock, Ordering::Relaxed);
                    return ConversationEvent::Done(result);
                }
                // Leftovers of earlier conversations on this core (e.g. the
                // TxnDone of a dropped handle): skip.
                _ => continue,
            }
        }
    }

    /// Sends one non-terminal command and returns its reply. Terminal
    /// events (a `TxnDone`, a vanished coordinator, a client timeout)
    /// finish the handle and surface as errors.
    fn command(&mut self, op: NextOp) -> Result<OpReply, TxnError> {
        if self.finished.is_some() {
            return Err(TxnError::Finished);
        }
        match self.send_and_await(op) {
            ConversationEvent::Reply(reply) => Ok(reply),
            ConversationEvent::Done(result) => {
                let error = match &result.outcome {
                    TxnOutcome::Aborted(cause) => TxnError::Aborted(cause.clone()),
                    TxnOutcome::Orphaned => TxnError::Orphaned { home: self.home },
                    // A commit decision can only answer a Commit command,
                    // which is handled by `finish_commit`.
                    TxnOutcome::Committed => TxnError::Finished,
                };
                self.finish(result);
                Err(error)
            }
            ConversationEvent::Gone => {
                // The coordinator no longer knows the transaction: its fate
                // never became visible to this client.
                self.finish_synthetic(TxnOutcome::Orphaned);
                Err(TxnError::Expired)
            }
            ConversationEvent::NoAnswer => {
                self.finish_synthetic(TxnOutcome::Orphaned);
                Err(TxnError::Orphaned { home: self.home })
            }
        }
    }

    /// Reads `item`: the read quorum runs immediately and the observed
    /// (highest-versioned in-quorum) value is returned mid-transaction.
    pub fn read(&mut self, item: impl Into<ItemId>) -> Result<Value, TxnError> {
        let item = item.into();
        match self.command(NextOp::Read { item })? {
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

    /// Drives the commit and stores the final result; shared by
    /// [`Txn::commit`] and the spec-replay adapter.
    fn finish_commit(&mut self) -> Result<(), TxnError> {
        if self.finished.is_some() {
            return Err(TxnError::Finished);
        }
        match self.send_and_await(NextOp::Commit) {
            ConversationEvent::Done(result) => {
                let outcome = match &result.outcome {
                    TxnOutcome::Committed => Ok(()),
                    TxnOutcome::Aborted(cause) => Err(TxnError::Aborted(cause.clone())),
                    TxnOutcome::Orphaned => Err(TxnError::Orphaned { home: self.home }),
                };
                self.finish(result);
                outcome
            }
            // A Commit command is only ever answered with TxnDone or Gone;
            // any other event means the coordinator is unreachable or lost.
            ConversationEvent::Gone | ConversationEvent::Reply(_) => {
                self.finish_synthetic(TxnOutcome::Orphaned);
                Err(TxnError::Expired)
            }
            ConversationEvent::NoAnswer => {
                self.finish_synthetic(TxnOutcome::Orphaned);
                Err(TxnError::Orphaned { home: self.home })
            }
        }
    }

    /// Commits: the buffered writes are installed through their write
    /// quorums, then the atomic commit protocol decides. Consumes the
    /// handle; on success the receipt carries everything the conversation
    /// observed and cost.
    pub fn commit(mut self) -> Result<TxnReceipt, TxnError> {
        self.finish_commit()?;
        let result = self
            .finished
            .as_ref()
            .expect("finish_commit set the result");
        Ok(TxnReceipt::from_result(result).expect("finish_commit Ok means committed"))
    }

    /// Aborts the transaction, waiting for the coordinator to confirm that
    /// every CCP resource is released (best effort: a vanished coordinator
    /// is recorded as an abort anyway and its sites are cleaned by the
    /// janitor).
    pub fn abort(mut self) {
        self.finish_abort();
    }

    fn finish_abort(&mut self) {
        if self.finished.is_some() {
            return;
        }
        if self.id.is_none() {
            // No command was ever sent: there is no confirmation to wait for.
            return self.abandon();
        }
        match self.send_and_await(NextOp::Abort) {
            ConversationEvent::Done(result) => self.finish(result),
            // No confirmation: the abort was still initiated (or the
            // coordinator is already gone and the janitor cleans up), so the
            // conversation is truthfully an abort.
            ConversationEvent::Gone | ConversationEvent::Reply(_) | ConversationEvent::NoAnswer => {
                self.finish_synthetic(TxnOutcome::Aborted(AbortCause::UserAbort))
            }
        }
    }

    /// The final result of the conversation, consuming the handle. An
    /// unfinished handle is aborted first (like drop, but returning the
    /// synthesized result). Used by the spec-replay adapter.
    pub(crate) fn into_result(mut self) -> TxnResult {
        if self.finished.is_none() {
            self.abandon();
        }
        // Clone instead of take: drop glue still runs on `self`, and it must
        // keep seeing a finished handle (a taken result would make it record
        // a second, synthetic abort for the same conversation).
        self.finished.clone().expect("terminal after abandon")
    }

    /// Fire-and-forget abort used by drop paths: the coordinator releases
    /// CCP resources as soon as the command arrives; nobody waits on a
    /// dropped handle. A handle that never sent a command has nothing to
    /// release anywhere and sends nothing.
    fn abandon(&mut self) {
        if let Some(txn) = self.id {
            let _ = self.core.net.send(
                self.core.node,
                NodeId::Site(self.home),
                Msg::TxnOp {
                    request: self.request,
                    txn,
                    op: NextOp::Abort,
                },
            );
        }
        self.finish_synthetic(TxnOutcome::Aborted(AbortCause::UserAbort));
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if self.finished.is_none() {
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
}
