//! The in-process simulated network.
//!
//! [`SimNetwork`] connects Rainbow nodes (sites, the name server, clients)
//! with unbounded channels and a background *delivery thread* that applies
//! the configured latency model, random loss, partitions and crash faults to
//! every message. All traffic is counted in [`NetworkCounters`] so
//! experiments can report message costs exactly.
//!
//! A message on a link with no latency is handed over inside `send`, past
//! one check of the faults. Only a delayed one goes to the delivery thread,
//! which checks the faults again when it is due. It holds delayed messages
//! in a heap by due time, sleeps until a short margin before the earliest
//! due time and yields the rest of the wait, because a timed sleep wakes
//! late by the kernel's timer slack and wake-up latency (75–135 µs on a
//! 500 µs link). It delivers nothing before its due time. Holding nothing,
//! it blocks until a message or a stop job comes, so an idle network does
//! not poll and a shutdown does not wait.
//!
//! On a healthy network the only lock a message takes before its
//! receiver's mailbox is the registry's read lock that finds that mailbox:
//! the fault controller answers from an atomic summary, the counters are
//! atomics, and the seeded generator is locked only for a link that draws
//! (a loss probability, or a uniform or normal latency). A node's message to itself is loopback, handed over and
//! not counted: in the paper only inter-site messages count. A site does
//! not even send those; its loop steps its own messages in place.
//!
//! The payload type is generic: `rainbow-core` instantiates the network with
//! its protocol message enum. The only requirement is the [`NetMessage`]
//! trait, which labels messages with a kind (for per-kind counting) and an
//! approximate size (for byte accounting).

use crate::config::NetworkConfig;
use crate::counters::NetworkCounters;
use crate::fault::FaultController;
use crate::node::NodeId;
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};
use rainbow_common::rng::seeded_rng;
use rainbow_common::{MessageId, RainbowError, RainbowResult, TxnId};
use rainbow_trace::{Phase, TraceEvent, Tracer, Track};
use rand::rngs::StdRng;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Trait implemented by network payloads so the simulator can label and
/// size-account them without knowing their concrete type.
pub trait NetMessage: Send + Sized + 'static {
    /// Short, stable label of the message kind (e.g. `"2PC_PREPARE"`).
    fn kind(&self) -> &'static str;

    /// Approximate serialized size in bytes (headers included), used only
    /// for byte counters.
    fn size_hint(&self) -> usize {
        64
    }

    /// The transaction this message belongs to, when it belongs to one.
    /// Used by the tracer to attribute queue-delay spans; `None` (the
    /// default) means the message is never traced.
    fn txn(&self) -> Option<TxnId> {
        None
    }

    /// The messages this one carries, when it is a batch envelope (see
    /// [`crate::Outbox`]); empty (the default) for a message that is only
    /// itself. Envelopes do not nest. The counters count what is carried,
    /// not the envelope.
    fn carried(&self) -> &[Self] {
        &[]
    }
}

/// The logical messages `payload` stands for: what it carries when it is a
/// batch envelope, itself otherwise.
fn logical<M: NetMessage>(payload: &M) -> &[M] {
    match payload.carried() {
        [] => std::slice::from_ref(payload),
        carried => carried,
    }
}

/// A message in flight: payload plus addressing metadata.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Unique id assigned by the simulator.
    pub id: MessageId,
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// The payload.
    pub payload: M,
}

/// A delivery scheduled for a future instant.
struct ScheduledDelivery<M> {
    deliver_at: Instant,
    seq: u64,
    envelope: Envelope<M>,
    /// `(txn, enqueue time)` when the network tracer wants a queue-delay
    /// span for this message.
    trace: Option<(TxnId, u64)>,
}

impl<M> PartialEq for ScheduledDelivery<M> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl<M> Eq for ScheduledDelivery<M> {}
impl<M> PartialOrd for ScheduledDelivery<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for ScheduledDelivery<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

struct Shared<M: NetMessage> {
    config: NetworkConfig,
    faults: Arc<FaultController>,
    counters: Arc<NetworkCounters>,
    registry: RwLock<HashMap<NodeId, Sender<Envelope<M>>>>,
    scheduler: Sender<Job<M>>,
    next_id: AtomicU64,
    next_seq: AtomicU64,
    rng: Mutex<StdRng>,
    shutdown: AtomicBool,
    tracer: Option<Arc<Tracer>>,
}

impl<M: NetMessage> Shared<M> {
    /// Records one message's queue delay (latency model + scheduler lag)
    /// into the tracer: always into the queue-delay histogram, and as a
    /// net-track span when the transaction is sampled.
    fn trace_delivery(&self, envelope: &Envelope<M>, txn: TxnId, enqueued_us: u64) {
        let Some(tracer) = self.tracer.as_ref() else {
            return;
        };
        let now = tracer.now_us();
        let delay = now.saturating_sub(enqueued_us);
        tracer.record_phase(Phase::QueueDelay, Duration::from_micros(delay));
        if tracer.sampled(txn) {
            tracer.record(TraceEvent {
                txn,
                track: Track::Net,
                label: format!("net:{}", envelope.payload.kind()),
                start_us: enqueued_us,
                dur_us: delay,
                detail: format!("{} -> {}", envelope.from, envelope.to),
            });
        }
    }

    fn next_message_id(&self) -> MessageId {
        MessageId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Hands a delayed envelope, now due, to the receiver's channel if the
    /// receiver is still registered and reachable.
    fn deliver_due(&self, envelope: Envelope<M>) {
        let messages = logical(&envelope.payload).len() as u64;
        // Re-check faults at delivery time: the receiver may have crashed or
        // been partitioned away while the message was "on the wire".
        if self.faults.is_crashed(envelope.to) || self.faults.is_crashed(envelope.from) {
            self.counters.record_dropped_crash(messages);
            return;
        }
        if self.faults.is_partitioned(envelope.from, envelope.to) {
            self.counters.record_dropped_partition(messages);
            return;
        }
        self.deliver(envelope, messages);
    }

    /// Hands `envelope`, carrying `messages` messages, to its receiver's
    /// channel. An unregistered destination drops it silently (not counted
    /// as a fault drop — it is a configuration situation, e.g. a site not
    /// yet started).
    fn deliver(&self, envelope: Envelope<M>, messages: u64) {
        if self.hand_over(envelope) {
            self.counters.record_delivered(messages);
        }
    }

    /// Puts `envelope` into its receiver's mailbox; false when nobody takes
    /// from it (not registered, or its receiver is gone).
    fn hand_over(&self, envelope: Envelope<M>) -> bool {
        let registry = self.registry.read();
        let mailbox = registry.get(&envelope.to);
        mailbox.is_some_and(|mailbox| mailbox.send(envelope).is_ok())
    }
}

/// A cloneable handle for sending messages through the simulator.
pub struct NetHandle<M: NetMessage> {
    shared: Arc<Shared<M>>,
}

impl<M: NetMessage> Clone for NetHandle<M> {
    fn clone(&self) -> Self {
        NetHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<M: NetMessage> NetHandle<M> {
    /// Sends `payload` from `from` to `to`.
    ///
    /// The returned id identifies the message in traces; a successful return
    /// does **not** mean the message will be delivered (it may be lost to
    /// faults or random loss — exactly like UDP on a real network).
    pub fn send(&self, from: NodeId, to: NodeId, payload: M) -> RainbowResult<MessageId> {
        let shared = &self.shared;
        if shared.shutdown.load(Ordering::Relaxed) {
            return Err(RainbowError::Shutdown);
        }
        let id = shared.next_message_id();
        let envelope = Envelope {
            id,
            from,
            to,
            payload,
        };

        // Loopback: a node talking to itself does not use the network, so
        // it costs and counts no message (Rainbow counts only inter-site
        // traffic). A site never comes here: its loop steps what it sends
        // itself in place (`rainbow-core`'s `site.rs`).
        if from == to {
            if !shared.faults.is_crashed(to) {
                shared.hand_over(envelope);
            }
            return Ok(id);
        }

        // One envelope; each message it carries under its own kind and size.
        shared.counters.record_envelope();
        let messages = logical(&envelope.payload);
        for message in messages {
            shared
                .counters
                .record_sent(message.kind(), message.size_hint());
        }
        let messages = messages.len() as u64;

        // Crash / partition checks at send time; the only ones a message
        // on a link with no latency meets.
        if shared.faults.is_crashed(from) || shared.faults.is_crashed(to) {
            shared.counters.record_dropped_crash(messages);
            return Ok(id);
        }
        if shared.faults.is_partitioned(from, to) {
            shared.counters.record_dropped_partition(messages);
            return Ok(id);
        }

        // Only a lossy link or a random delay draws, so only they take the
        // generator: the draws, and the seeded stream, are what they were.
        let link = shared.config.link(from, to);
        let (lost, latency) = match link.latency.fixed() {
            Some(latency) if link.loss_probability <= 0.0 => (false, latency),
            _ => {
                let mut rng = shared.rng.lock();
                let lost = link.loss_probability > 0.0 && rng.gen::<f64>() < link.loss_probability;
                (lost, link.latency.sample(&mut *rng))
            }
        };
        if lost {
            shared.counters.record_dropped_loss(messages);
            return Ok(id);
        }

        // Queue-delay tracing: stamp the enqueue time for transaction
        // messages when a tracer is attached.
        let trace = match shared.tracer.as_ref() {
            Some(tracer) => envelope.payload.txn().map(|txn| (txn, tracer.now_us())),
            None => None,
        };

        if latency.is_zero() {
            if let Some((txn, enqueued_us)) = trace {
                shared.trace_delivery(&envelope, txn, enqueued_us);
            }
            shared.deliver(envelope, messages);
        } else {
            let job = Job::Deliver(ScheduledDelivery {
                deliver_at: Instant::now() + latency,
                seq: shared.next_seq.fetch_add(1, Ordering::Relaxed),
                envelope,
                trace,
            });
            shared
                .scheduler
                .send(job)
                .map_err(|_| RainbowError::Network("delivery thread stopped".into()))?;
        }
        Ok(id)
    }

    /// The fault controller shared with this network.
    pub fn faults(&self) -> Arc<FaultController> {
        Arc::clone(&self.shared.faults)
    }

    /// Puts `payload` into `node`'s mailbox from `node` itself, past faults
    /// and counters (it reaches a crashed node); dropped if nobody takes it.
    pub fn post(&self, node: NodeId, payload: M) {
        let (id, from, to) = (MessageId(0), node, node);
        self.shared.hand_over(Envelope {
            id,
            from,
            to,
            payload,
        });
    }

    /// Registers a node and returns its mailbox (see
    /// [`SimNetwork::register`]).
    pub fn register(&self, node: NodeId) -> Receiver<Envelope<M>> {
        let (tx, rx) = unbounded();
        self.shared.registry.write().insert(node, tx);
        rx
    }

    /// Removes a node from the network: what is sent to it from now on is
    /// dropped.
    pub fn unregister(&self, node: NodeId) {
        self.shared.registry.write().remove(&node);
    }

    /// The traffic counters shared with this network.
    pub fn counters(&self) -> Arc<NetworkCounters> {
        Arc::clone(&self.shared.counters)
    }

    /// The network configuration (immutable once the network is built).
    pub fn config(&self) -> &NetworkConfig {
        &self.shared.config
    }
}

/// The simulated network: owns the delivery thread and the node registry.
pub struct SimNetwork<M: NetMessage> {
    shared: Arc<Shared<M>>,
    delivery_thread: Option<JoinHandle<()>>,
}

impl<M: NetMessage> SimNetwork<M> {
    /// Builds a network from a configuration, spawning the delivery thread.
    pub fn new(config: NetworkConfig) -> Self {
        Self::traced(config, None)
    }

    /// Builds a network that records every transaction message's queue
    /// delay into `tracer` (`None` behaves exactly like [`SimNetwork::new`]).
    pub fn traced(config: NetworkConfig, tracer: Option<Arc<Tracer>>) -> Self {
        let (tx, rx) = unbounded::<Job<M>>();
        let seed = config.seed;
        let shared = Arc::new(Shared {
            config,
            faults: Arc::new(FaultController::new()),
            counters: Arc::new(NetworkCounters::new()),
            registry: RwLock::new(HashMap::new()),
            scheduler: tx,
            next_id: AtomicU64::new(1),
            next_seq: AtomicU64::new(0),
            rng: Mutex::new(seeded_rng(seed)),
            shutdown: AtomicBool::new(false),
            tracer,
        });
        let thread_shared = Arc::clone(&shared);
        let delivery_thread = std::thread::Builder::new()
            .name("rainbow-net-delivery".into())
            .spawn(move || delivery_loop(thread_shared, rx))
            .expect("failed to spawn network delivery thread");
        SimNetwork {
            shared,
            delivery_thread: Some(delivery_thread),
        }
    }

    /// Registers a node and returns the receiving end of its mailbox.
    /// Registering the same node again replaces its mailbox (the old
    /// receiver stops getting messages), which is how a site "reboots" after
    /// a crash with an empty volatile queue.
    pub fn register(&self, node: NodeId) -> Receiver<Envelope<M>> {
        self.handle().register(node)
    }

    /// Removes a node from the network.
    pub fn unregister(&self, node: NodeId) {
        self.handle().unregister(node)
    }

    /// A cloneable sending handle.
    pub fn handle(&self) -> NetHandle<M> {
        NetHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The fault controller.
    pub fn faults(&self) -> Arc<FaultController> {
        Arc::clone(&self.shared.faults)
    }

    /// The traffic counters.
    pub fn counters(&self) -> Arc<NetworkCounters> {
        Arc::clone(&self.shared.counters)
    }

    /// Stops the delivery thread. In-flight delayed messages are dropped.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.delivery_thread.take() {
            // The scheduler's sender lives in `Shared`, which the thread
            // holds too, so the channel never closes: a stop job wakes it.
            let _ = self.shared.scheduler.send(Job::Stop);
            let _ = handle.join();
        }
    }
}

impl<M: NetMessage> Drop for SimNetwork<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How much of a wait the delivery thread does not sleep. The kernel wakes
/// a timed sleeper late by its timer slack (50 µs by default) plus the
/// scheduler's wake-up latency, about 76 µs at the median on a 2-core VM;
/// sleeping only until `MARGIN` before a due time and yielding the rest
/// delivers at the due time instead. On the benchmark's `update_lan`
/// (500 µs links, 2-core VM) a hop overshot its link by 5.5 µs with 100 µs
/// and by 33 µs with 60 µs (157 µs sleeping all the way); the yields cost
/// 372 and 309 µs of CPU per commit (290 µs sleeping all the way).
const MARGIN: Duration = Duration::from_micros(100);

/// What the delivery thread takes from its scheduler channel.
enum Job<M> {
    /// A delayed message to hold until it is due.
    Deliver(ScheduledDelivery<M>),
    /// Stop now; what is held is dropped ([`SimNetwork::shutdown`]).
    Stop,
}

/// The delivery loop: holds the delayed messages in a heap by due time and
/// hands each over once its due time has passed, never before.
///
/// With nothing held it blocks in `recv` until a job comes. Otherwise it
/// sleeps until [`MARGIN`] before the earliest due time and then yields
/// until that time, taking the jobs sent meanwhile between yields: a sleep
/// to the due time itself wakes late by the kernel's timer slack and
/// wake-up latency, 75–135 µs a hop on 500 µs links.
fn delivery_loop<M: NetMessage>(shared: Arc<Shared<M>>, rx: Receiver<Job<M>>) {
    let mut pending: BinaryHeap<Reverse<ScheduledDelivery<M>>> = BinaryHeap::new();
    loop {
        let left = pending
            .peek()
            .map(|Reverse(job)| job.deliver_at.saturating_duration_since(Instant::now()));
        let first = match left {
            // Nothing held: block until a job comes.
            None => match rx.recv() {
                Ok(job) => Some(job),
                Err(_) => return,
            },
            // Sleep until `MARGIN` before the earliest due time...
            Some(left) if left > MARGIN => match rx.recv_timeout(left - MARGIN) {
                Ok(job) => Some(job),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => return,
            },
            // ...and yield the rest of the wait.
            Some(left) => {
                if !left.is_zero() {
                    std::thread::yield_now();
                }
                None
            }
        };
        // Take every job already sent.
        let sent = std::iter::from_fn(|| rx.try_recv().ok());
        for job in first.into_iter().chain(sent) {
            match job {
                Job::Deliver(delivery) => pending.push(Reverse(delivery)),
                Job::Stop => return,
            }
        }
        // Deliver everything that is due.
        let now = Instant::now();
        while let Some(Reverse(job)) = pending.peek() {
            if job.deliver_at > now {
                break;
            }
            let Reverse(job) = pending.pop().expect("peeked job must exist");
            if let Some((txn, enqueued_us)) = job.trace {
                shared.trace_delivery(&job.envelope, txn, enqueued_us);
            }
            shared.deliver_due(job.envelope);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LatencyModel, LinkConfig};
    use std::time::Duration;

    #[derive(Debug, Clone, PartialEq)]
    enum TestMsg {
        Ping(u32),
        Pong(u32),
        Batch(Vec<TestMsg>),
    }

    impl NetMessage for TestMsg {
        fn kind(&self) -> &'static str {
            match self {
                TestMsg::Ping(_) => "PING",
                TestMsg::Pong(_) => "PONG",
                TestMsg::Batch(_) => "BATCH",
            }
        }
        fn carried(&self) -> &[Self] {
            match self {
                TestMsg::Batch(msgs) => msgs,
                _ => &[],
            }
        }
        fn size_hint(&self) -> usize {
            16
        }
        fn txn(&self) -> Option<TxnId> {
            match self {
                TestMsg::Ping(n) => Some(TxnId::new(rainbow_common::SiteId(0), *n as u64)),
                TestMsg::Pong(_) | TestMsg::Batch(_) => None,
            }
        }
    }

    fn recv_with_timeout(rx: &Receiver<Envelope<TestMsg>>, ms: u64) -> Option<Envelope<TestMsg>> {
        rx.recv_timeout(Duration::from_millis(ms)).ok()
    }

    #[test]
    fn messages_are_delivered_between_registered_nodes() {
        let net = SimNetwork::<TestMsg>::new(NetworkConfig::perfect());
        let a = NodeId::site(0);
        let b = NodeId::site(1);
        let _rx_a = net.register(a);
        let rx_b = net.register(b);
        let handle = net.handle();

        handle.send(a, b, TestMsg::Ping(1)).unwrap();
        let env = recv_with_timeout(&rx_b, 500).expect("message not delivered");
        assert_eq!(env.from, a);
        assert_eq!(env.to, b);
        assert_eq!(env.payload, TestMsg::Ping(1));
        assert_eq!(net.counters().sent(), 1);
        assert_eq!(net.counters().delivered(), 1);
        assert_eq!(net.counters().kind("PING"), 1);
    }

    #[test]
    fn a_batch_is_counted_message_by_message_and_as_one_envelope() {
        let net = SimNetwork::<TestMsg>::new(NetworkConfig::perfect());
        let a = NodeId::site(0);
        let b = NodeId::site(1);
        net.register(a);
        let rx_b = net.register(b);
        let batch = TestMsg::Batch(vec![TestMsg::Ping(1), TestMsg::Pong(2)]);
        net.handle().send(a, b, batch.clone()).unwrap();
        assert_eq!(recv_with_timeout(&rx_b, 500).unwrap().payload, batch);

        let counters = net.counters();
        assert_eq!(counters.sent(), 2);
        assert_eq!(counters.envelopes(), 1);
        assert_eq!(counters.kind("PING"), 1);
        assert_eq!(counters.kind("PONG"), 1);
        assert_eq!(counters.kind("BATCH"), 0, "an envelope is not a kind");
        assert_eq!(counters.delivered(), 2);
        assert_eq!(counters.snapshot().bytes, 32, "each under its own size");

        // Dropped, it is two messages lost.
        net.faults().crash(b);
        net.handle().send(a, b, batch).unwrap();
        assert_eq!((counters.sent(), counters.dropped()), (4, 2));
        assert_eq!(counters.envelopes(), 2);
    }

    #[test]
    fn latency_delays_delivery() {
        let cfg = NetworkConfig::default()
            .with_default_link(LinkConfig::with_latency(LatencyModel::constant(
                Duration::from_millis(30),
            )))
            .with_seed(1);
        let net = SimNetwork::<TestMsg>::new(cfg);
        let a = NodeId::site(0);
        let b = NodeId::site(1);
        let rx_b = net.register(b);
        net.register(a);
        let start = Instant::now();
        net.handle().send(a, b, TestMsg::Ping(7)).unwrap();
        let env = recv_with_timeout(&rx_b, 1000).expect("delayed message never arrived");
        assert_eq!(env.payload, TestMsg::Ping(7));
        // `start` is taken before `send`, which stamps the due time.
        assert!(
            start.elapsed() >= Duration::from_millis(30),
            "message arrived too early: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn a_delayed_message_is_never_early_and_keeps_its_order() {
        let latency = Duration::from_micros(500);
        let cfg = NetworkConfig::default()
            .with_default_link(LinkConfig::with_latency(LatencyModel::constant(latency)))
            .with_seed(1);
        let net = SimNetwork::<TestMsg>::new(cfg);
        let a = NodeId::site(0);
        let b = NodeId::site(1);
        net.register(a);
        let rx_b = net.register(b);
        let handle = net.handle();
        // Sends spaced a little, so that the delivery thread holds several
        // messages at once and takes new ones while it waits.
        let sender = std::thread::spawn(move || {
            (0..200)
                .map(|i| {
                    let sent = Instant::now();
                    handle.send(a, b, TestMsg::Ping(i)).unwrap();
                    std::thread::sleep(Duration::from_micros(20));
                    sent
                })
                .collect::<Vec<_>>()
        });
        let arrivals: Vec<(u32, Instant)> = (0..200)
            .map(|_| {
                let env = recv_with_timeout(&rx_b, 5_000).expect("delayed message never arrived");
                let TestMsg::Ping(i) = env.payload else {
                    panic!("unexpected payload {:?}", env.payload)
                };
                (i, Instant::now())
            })
            .collect();
        let sent = sender.join().unwrap();
        for (position, (i, arrived)) in arrivals.into_iter().enumerate() {
            assert_eq!(
                i as usize, position,
                "message {i} arrived out of send order"
            );
            let took = arrived - sent[position];
            assert!(took >= latency, "message {i} arrived after {took:?}");
        }
    }

    #[test]
    fn dropping_an_idle_network_does_not_wait_for_a_poll() {
        let net = SimNetwork::<TestMsg>::new(NetworkConfig::perfect());
        // Let the delivery thread go to sleep.
        std::thread::sleep(Duration::from_millis(5));
        let start = Instant::now();
        drop(net);
        assert!(
            start.elapsed() < Duration::from_millis(20),
            "dropping an idle network took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn messages_to_crashed_nodes_are_dropped() {
        let net = SimNetwork::<TestMsg>::new(NetworkConfig::perfect());
        let a = NodeId::site(0);
        let b = NodeId::site(1);
        net.register(a);
        let rx_b = net.register(b);
        net.faults().crash(b);
        net.handle().send(a, b, TestMsg::Ping(1)).unwrap();
        assert!(recv_with_timeout(&rx_b, 50).is_none());
        assert_eq!(net.counters().dropped(), 1);
        assert_eq!(net.counters().delivered(), 0);

        net.faults().recover(b);
        net.handle().send(a, b, TestMsg::Ping(2)).unwrap();
        assert!(recv_with_timeout(&rx_b, 500).is_some());
    }

    /// A message on a link with no latency meets the faults once, at
    /// `send`: it is dropped there, under the reason that dropped it.
    #[test]
    fn a_zero_latency_message_meets_the_faults_and_is_dropped_by_reason() {
        let net = SimNetwork::<TestMsg>::new(NetworkConfig::perfect());
        let (a, b, c) = (NodeId::site(0), NodeId::site(1), NodeId::site(2));
        let _rx_a = net.register(a);
        let rx_b = net.register(b);
        let rx_c = net.register(c);
        let (handle, counters) = (net.handle(), net.counters());
        let batch = TestMsg::Batch(vec![TestMsg::Ping(1), TestMsg::Pong(2)]);

        net.faults().crash(b);
        handle.send(a, b, TestMsg::Ping(1)).unwrap();
        handle.send(b, c, batch.clone()).unwrap();
        assert_eq!(counters.dropped_crash(), 3, "to and from a crashed node");
        net.faults().recover(b);

        net.faults().partition(&[vec![a], vec![b, c]]);
        handle.send(a, c, batch).unwrap();
        handle.send(b, c, TestMsg::Pong(3)).unwrap();
        assert_eq!(counters.dropped_partition(), 2, "across the partition");
        assert_eq!((counters.dropped_crash(), counters.dropped_loss()), (3, 0));
        assert!(rx_b.try_recv().is_err());
        let delivered = rx_c.try_recv().expect("same-group traffic flows");
        assert_eq!(delivered.payload, TestMsg::Pong(3));
        assert!(rx_c.try_recv().is_err());
        assert_eq!(counters.delivered(), 1);
        assert_eq!(counters.sent(), 6);
    }

    #[test]
    fn partitions_block_cross_group_traffic_until_healed() {
        let net = SimNetwork::<TestMsg>::new(NetworkConfig::perfect());
        let a = NodeId::site(0);
        let b = NodeId::site(1);
        let c = NodeId::site(2);
        net.register(a);
        let rx_b = net.register(b);
        let rx_c = net.register(c);
        net.faults().partition(&[vec![a, b], vec![c]]);

        let handle = net.handle();
        handle.send(a, b, TestMsg::Ping(1)).unwrap();
        handle.send(a, c, TestMsg::Ping(2)).unwrap();
        assert!(
            recv_with_timeout(&rx_b, 500).is_some(),
            "same-group traffic must flow"
        );
        assert!(
            recv_with_timeout(&rx_c, 50).is_none(),
            "cross-group traffic must be blocked"
        );

        net.faults().heal_partition();
        handle.send(a, c, TestMsg::Ping(3)).unwrap();
        assert!(recv_with_timeout(&rx_c, 500).is_some());
    }

    #[test]
    fn lossy_links_drop_roughly_the_configured_fraction() {
        let cfg = NetworkConfig::default()
            .with_default_link(LinkConfig::perfect().with_loss(0.5))
            .with_seed(42);
        let net = SimNetwork::<TestMsg>::new(cfg);
        let a = NodeId::site(0);
        let b = NodeId::site(1);
        net.register(a);
        let rx_b = net.register(b);
        let handle = net.handle();
        for i in 0..400 {
            handle.send(a, b, TestMsg::Ping(i)).unwrap();
        }
        // Drain everything that made it through.
        let mut received = 0;
        while recv_with_timeout(&rx_b, 20).is_some() {
            received += 1;
        }
        let dropped = net.counters().dropped();
        assert_eq!(received + dropped as i32, 400);
        assert!(
            (120..=280).contains(&received),
            "with 50% loss, received {received} of 400"
        );
    }

    #[test]
    fn loopback_is_free_and_uncounted() {
        let net = SimNetwork::<TestMsg>::new(NetworkConfig::perfect());
        let a = NodeId::site(0);
        let rx_a = net.register(a);
        net.handle().send(a, a, TestMsg::Ping(1)).unwrap();
        assert!(recv_with_timeout(&rx_a, 500).is_some());
        assert_eq!(net.counters().sent(), 0, "loopback must not be counted");
    }

    #[test]
    fn unregistered_destination_is_silently_dropped() {
        let net = SimNetwork::<TestMsg>::new(NetworkConfig::perfect());
        let a = NodeId::site(0);
        net.register(a);
        // site1 never registered.
        net.handle()
            .send(a, NodeId::site(1), TestMsg::Ping(0))
            .unwrap();
        assert_eq!(net.counters().sent(), 1);
        assert_eq!(net.counters().delivered(), 0);
    }

    #[test]
    fn re_registering_replaces_the_mailbox() {
        let net = SimNetwork::<TestMsg>::new(NetworkConfig::perfect());
        let a = NodeId::site(0);
        let b = NodeId::site(1);
        net.register(a);
        let rx_old = net.register(b);
        let rx_new = net.register(b);
        net.handle().send(a, b, TestMsg::Ping(5)).unwrap();
        assert!(recv_with_timeout(&rx_new, 500).is_some());
        assert!(recv_with_timeout(&rx_old, 50).is_none());
        net.unregister(b);
        net.handle().send(a, b, TestMsg::Ping(6)).unwrap();
        assert!(recv_with_timeout(&rx_new, 50).is_none());
        assert_eq!(net.counters().delivered(), 1);
    }

    #[test]
    fn send_after_shutdown_fails() {
        let mut net = SimNetwork::<TestMsg>::new(NetworkConfig::perfect());
        let a = NodeId::site(0);
        let b = NodeId::site(1);
        net.register(a);
        net.register(b);
        let handle = net.handle();
        net.shutdown();
        assert!(matches!(
            handle.send(a, b, TestMsg::Ping(1)),
            Err(RainbowError::Shutdown)
        ));
    }

    #[test]
    fn per_link_override_applies_to_one_direction_only() {
        let a = NodeId::site(0);
        let b = NodeId::site(1);
        let cfg = NetworkConfig::perfect()
            .override_link(a, b, LinkConfig::perfect().with_loss(1.0))
            .with_seed(3);
        let net = SimNetwork::<TestMsg>::new(cfg);
        net.register(a);
        let rx_b = net.register(b);
        let rx_a = net.register(a);
        let handle = net.handle();
        handle.send(a, b, TestMsg::Ping(1)).unwrap();
        handle.send(b, a, TestMsg::Pong(2)).unwrap();
        assert!(
            recv_with_timeout(&rx_b, 50).is_none(),
            "a->b is fully lossy"
        );
        assert!(recv_with_timeout(&rx_a, 500).is_some(), "b->a is perfect");
    }

    #[test]
    fn traced_network_records_queue_delay_spans_and_histogram() {
        let cfg = NetworkConfig::default()
            .with_default_link(LinkConfig::with_latency(LatencyModel::constant(
                Duration::from_millis(10),
            )))
            .with_seed(1);
        let tracer = Arc::new(Tracer::new(rainbow_trace::TraceConfig::sample_all()));
        let net = SimNetwork::<TestMsg>::traced(cfg, Some(Arc::clone(&tracer)));
        let a = NodeId::site(0);
        let b = NodeId::site(1);
        net.register(a);
        let rx_b = net.register(b);
        let handle = net.handle();
        handle.send(a, b, TestMsg::Ping(3)).unwrap();
        // Pong carries no transaction: it must not be traced.
        handle.send(a, b, TestMsg::Pong(1)).unwrap();
        assert!(recv_with_timeout(&rx_b, 1000).is_some());
        assert!(recv_with_timeout(&rx_b, 1000).is_some());

        let stats = tracer.phase_stats();
        assert_eq!(stats["queue-delay"].count, 1);
        assert!(
            stats["queue-delay"].min_us >= 5_000,
            "10ms link latency must dominate the queue delay: {:?}",
            stats["queue-delay"]
        );
        let events = tracer.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].track, Track::Net);
        assert_eq!(events[0].label, "net:PING");
        assert_eq!(events[0].detail, "site0 -> site1");
    }

    #[test]
    fn message_ids_are_unique_and_increasing() {
        let net = SimNetwork::<TestMsg>::new(NetworkConfig::perfect());
        let a = NodeId::site(0);
        let b = NodeId::site(1);
        net.register(a);
        net.register(b);
        let handle = net.handle();
        let id1 = handle.send(a, b, TestMsg::Ping(1)).unwrap();
        let id2 = handle.send(a, b, TestMsg::Ping(2)).unwrap();
        assert!(id2.0 > id1.0);
    }
}
