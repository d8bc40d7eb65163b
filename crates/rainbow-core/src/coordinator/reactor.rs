//! The event loops a site's transaction machines live on.
//!
//! A site runs **N reactor threads**, each owning the transactions pinned
//! to it by `txn.seq % N` for their whole lifetime. Each reactor drains one
//! MPSC queue of [`ReactorEvent`]s — new conversations (with their first
//! command) and the messages the dispatcher routes to a transaction's
//! coordinator — hands each to the transaction's [`TxnMachine`], scans the
//! machines' deadlines, and flushes what they queued: once per tick, which
//! is an event's arrival or at the latest [`TICK`].
//!
//! Batching falls out of the tick structure: every site-bound message a
//! tick produces is staged in the reactor's [`Outbox`] and flushed once at
//! the end of the tick, coalescing same-destination messages into one
//! `Msg::Batch` envelope. The receiving site unpacks the batch and groups
//! the prepare/commit WAL forces (`SiteStorage::prepare_many` /
//! `commit_many`), so commit-time appends from different transactions ride
//! one fsync. Replies to client commands are latency-sensitive one-offs and
//! are always sent directly; the final `TxnDone` queues in the outbox behind
//! the decisions it reports, so it cannot overtake them. The outbox wraps
//! only site-bound messages — a client does not unpack a batch — and sends
//! each client-bound one as itself once the site envelopes have left.

use super::TxnMachine;
use crate::messages::{Msg, NextOp, OpReply};
use crate::site::SiteShared;
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use rainbow_common::{Timestamp, TxnId};
use rainbow_net::{Envelope, NodeId, Outbox};
use rainbow_trace::Meter;
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

/// The reactors of one site: their queues from the moment the site's shared
/// state exists, their threads once [`ReactorPool::start`] has run.
pub(crate) struct ReactorPool {
    queues: Vec<Sender<ReactorEvent>>,
    /// Per reactor, the machines it held at the end of its last tick.
    open: Vec<Arc<AtomicUsize>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl ReactorPool {
    /// The pool and the receiving ends of its queues, which
    /// [`ReactorPool::start`] takes: the threads need the site's shared
    /// state, and the shared state holds the pool.
    pub(crate) fn new() -> (ReactorPool, Vec<Receiver<ReactorEvent>>) {
        let (queues, mailboxes): (Vec<_>, Vec<_>) =
            (0..reactor_count()).map(|_| unbounded()).unzip();
        let pool = ReactorPool {
            open: queues.iter().map(|_| Arc::default()).collect(),
            queues,
            handles: Mutex::new(Vec::new()),
        };
        (pool, mailboxes)
    }

    /// Spawns the reactor threads of `shared`'s site, one per mailbox.
    pub(crate) fn start(&self, shared: &Arc<SiteShared>, mailboxes: Vec<Receiver<ReactorEvent>>) {
        let mut handles = self.handles.lock();
        for (index, (mailbox, open)) in mailboxes.into_iter().zip(&self.open).enumerate() {
            let (shared, open) = (Arc::clone(shared), Arc::clone(open));
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rainbow-reactor-{}-{index}", shared.id.0))
                    .spawn(move || reactor_loop(shared, mailbox, open))
                    .expect("failed to spawn reactor"),
            );
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
        machines.retain(|_, machine| !machine.is_done());
        open.store(machines.len(), Ordering::Relaxed);
    }
}

/// Processes one queued event.
fn handle_event(
    shared: &SiteShared,
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
            let mut machine = TxnMachine::open(shared, txn, ts, label, client, request);
            machine.on_client_op(shared, outbox, op);
            // A first command that ended the transaction (a lone commit, an
            // unsatisfiable quorum) leaves nothing to keep.
            if !machine.is_done() {
                machines.insert(txn, machine);
            }
        }
        ReactorEvent::Deliver(envelope) => {
            let Some(txn) = envelope.payload.txn() else {
                return;
            };
            match machines.get_mut(&txn) {
                Some(machine) if !machine.is_done() => machine.on_message(shared, outbox, envelope),
                _ => {
                    // The conversation is gone (idled out, finished, or the
                    // site recovered). Tell a waiting client instead of
                    // leaving it to its timeout; drop stale protocol
                    // messages.
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
