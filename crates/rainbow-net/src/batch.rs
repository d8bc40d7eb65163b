//! Per-drain message coalescing for event-loop senders.
//!
//! One drain of a site's event loop can produce many protocol messages
//! bound for the same site — quorum requests for several transactions, a
//! handful of commit decisions, prepared-write fan-outs. Sending each one
//! separately pays a full trip through the network simulator (scheduling,
//! latency draw, counter bookkeeping) per message. An [`Outbox`] instead
//! queues messages per destination during the drain and flushes once at
//! the end: a lone message is sent as itself, while two or more for one
//! *site* are wrapped into a single batch envelope by a caller-supplied
//! constructor (the core's `Msg::Batch`).
//!
//! Only sites unpack a batch. Messages queued for any other node (a
//! client's `TxnDone`) are never wrapped: they leave one by one, after every
//! site-bound envelope of the same flush, so an answer queued behind the
//! decisions it reports still cannot overtake them.
//!
//! The outbox is deliberately generic over the message type — this crate
//! knows nothing about the Rainbow protocol.

use crate::network::{NetHandle, NetMessage};
use crate::node::NodeId;

/// Statistics of one [`Outbox::flush`], fed to the site loop's batch-size
/// histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushStats {
    /// Envelopes actually handed to the network.
    pub envelopes: usize,
    /// Logical messages those envelopes carried.
    pub messages: usize,
    /// The largest single batch (1 when nothing was coalesced).
    pub largest_batch: usize,
}

/// A per-destination queue of outbound messages, flushed once per drain.
#[derive(Debug)]
pub struct Outbox<M> {
    // A Vec keyed by first-push order: a drain talks to a handful of sites,
    // so a linear scan beats a map — and flush order stays deterministic.
    queued: Vec<(NodeId, Vec<M>)>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox { queued: Vec::new() }
    }
}

impl<M: NetMessage> Outbox<M> {
    /// An empty outbox.
    pub fn new() -> Self {
        Outbox::default()
    }

    /// Queues `msg` for `to`; it travels at the next [`Outbox::flush`].
    pub fn push(&mut self, to: NodeId, msg: M) {
        match self.queued.iter_mut().find(|(node, _)| *node == to) {
            Some((_, msgs)) => msgs.push(msg),
            None => self.queued.push((to, vec![msg])),
        }
    }

    /// Takes the messages queued for `to` out of the outbox, in the order
    /// they were queued; `None` when nothing is. A loop that steps its own
    /// messages in place takes them with its own node.
    pub fn take(&mut self, to: NodeId) -> Option<Vec<M>> {
        let at = self.queued.iter().position(|(node, _)| *node == to)?;
        Some(self.queued.remove(at).1)
    }

    /// Number of queued logical messages.
    pub fn len(&self) -> usize {
        self.queued.iter().map(|(_, msgs)| msgs.len()).sum()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queued.is_empty()
    }

    /// True when a message for a node other than a site (a client) waits.
    pub fn holds_non_site(&self) -> bool {
        self.queued.iter().any(|(to, _)| to.as_site().is_none())
    }

    /// Sends everything queued. First one envelope per destination site,
    /// wrapping multi-message groups with `wrap` (single messages travel as
    /// themselves — a batch of one would only add header bytes); then the
    /// messages for every other node, each as itself, because only a site
    /// knows how to unpack a batch. Send errors are ignored, matching the
    /// sites' fire-and-forget semantics: an unreachable destination is
    /// indistinguishable from a lost message, and the protocols' timeouts
    /// handle both.
    pub fn flush(
        &mut self,
        net: &NetHandle<M>,
        from: NodeId,
        wrap: impl Fn(Vec<M>) -> M,
    ) -> FlushStats {
        let mut stats = FlushStats::default();
        let mut others = Vec::new();
        for (to, msgs) in self.queued.drain(..) {
            if !matches!(to, NodeId::Site(_)) {
                others.push((to, msgs));
                continue;
            }
            stats.envelopes += 1;
            stats.messages += msgs.len();
            stats.largest_batch = stats.largest_batch.max(msgs.len());
            let payload = if msgs.len() == 1 {
                msgs.into_iter().next().expect("group is non-empty")
            } else {
                wrap(msgs)
            };
            let _ = net.send(from, to, payload);
        }
        for (to, msgs) in others {
            stats.envelopes += msgs.len();
            stats.messages += msgs.len();
            stats.largest_batch = stats.largest_batch.max(1);
            for msg in msgs {
                let _ = net.send(from, to, msg);
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::network::SimNetwork;
    use std::time::Duration;

    #[derive(Debug, Clone, PartialEq)]
    enum TestMsg {
        One(u32),
        Many(Vec<TestMsg>),
    }

    impl NetMessage for TestMsg {
        fn kind(&self) -> &'static str {
            match self {
                TestMsg::One(_) => "ONE",
                TestMsg::Many(_) => "MANY",
            }
        }

        fn size_hint(&self) -> usize {
            16
        }
    }

    #[test]
    fn flush_coalesces_per_destination_and_reports_stats() {
        let mut network: SimNetwork<TestMsg> = SimNetwork::new(NetworkConfig::perfect());
        let a = network.register(NodeId::Site(rainbow_common::SiteId(1)));
        let b = network.register(NodeId::Site(rainbow_common::SiteId(2)));
        let handle = network.handle();
        let from = NodeId::Site(rainbow_common::SiteId(0));
        network.register(from);

        let mut outbox = Outbox::new();
        assert!(outbox.is_empty());
        outbox.push(NodeId::Site(rainbow_common::SiteId(1)), TestMsg::One(1));
        outbox.push(NodeId::Site(rainbow_common::SiteId(1)), TestMsg::One(2));
        outbox.push(NodeId::Site(rainbow_common::SiteId(2)), TestMsg::One(3));
        assert_eq!(outbox.len(), 3);

        let stats = outbox.flush(&handle, from, TestMsg::Many);
        assert_eq!(stats.envelopes, 2);
        assert_eq!(stats.messages, 3);
        assert_eq!(stats.largest_batch, 2);
        assert!(outbox.is_empty(), "flush drains the outbox");

        let batched = a.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(
            batched.payload,
            TestMsg::Many(vec![TestMsg::One(1), TestMsg::One(2)])
        );
        let single = b.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(single.payload, TestMsg::One(3), "no batch-of-one wrapping");

        // An empty flush sends nothing.
        let stats = outbox.flush(&handle, from, TestMsg::Many);
        assert_eq!(stats, FlushStats::default());
        network.shutdown();
    }

    #[test]
    fn take_removes_one_destinations_group_in_queue_order() {
        let (a, b) = (NodeId::site(0), NodeId::site(1));
        let mut outbox = Outbox::new();
        outbox.push(a, TestMsg::One(1));
        outbox.push(b, TestMsg::One(2));
        outbox.push(a, TestMsg::One(3));
        assert_eq!(outbox.take(a), Some(vec![TestMsg::One(1), TestMsg::One(3)]));
        assert_eq!(outbox.take(a), None);
        assert_eq!(outbox.len(), 1, "the other group stays");
        assert_eq!(outbox.take(b), Some(vec![TestMsg::One(2)]));
        assert!(outbox.is_empty());
    }

    #[test]
    fn messages_for_a_client_are_never_wrapped_and_leave_after_the_sites() {
        let mut network: SimNetwork<TestMsg> = SimNetwork::new(NetworkConfig::perfect());
        let site = network.register(NodeId::Site(rainbow_common::SiteId(1)));
        let client = network.register(NodeId::Client(7));
        let from = NodeId::Site(rainbow_common::SiteId(0));
        network.register(from);
        let handle = network.handle();

        // The client's group is opened first and still goes out last.
        let mut outbox = Outbox::new();
        outbox.push(NodeId::Client(7), TestMsg::One(1));
        outbox.push(NodeId::Site(rainbow_common::SiteId(1)), TestMsg::One(2));
        outbox.push(NodeId::Client(7), TestMsg::One(3));
        let stats = outbox.flush(&handle, from, TestMsg::Many);
        assert_eq!(stats.envelopes, 3);
        assert_eq!(stats.messages, 3);
        assert_eq!(stats.largest_batch, 1);

        let to_site = site.recv_timeout(Duration::from_secs(2)).unwrap();
        let first = client.recv_timeout(Duration::from_secs(2)).unwrap();
        let second = client.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(first.payload, TestMsg::One(1));
        assert_eq!(second.payload, TestMsg::One(3));
        assert!(
            to_site.id.0 < first.id.0,
            "site-bound envelopes are handed to the network first"
        );
        network.shutdown();
    }
}
