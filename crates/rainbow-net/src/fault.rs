//! Fault and recovery injection.
//!
//! The Rainbow GUI lets the user "inject network and site failures and
//! recoveries" while a workload is running; [`FaultController`] is the
//! programmatic version of that panel. The controller is shared between the
//! network simulator (which consults it on every send/delivery) and the
//! Session API / experiment scripts (which mutate it).
//!
//! The network asks on every message and a fault is rare, so the
//! controller keeps a summary in atomics beside its locked sets — how many
//! nodes are crashed, whether a partition exists — and a question about a
//! healthy network is answered from the summary, taking no lock.

use crate::node::NodeId;
use parking_lot::RwLock;
use rainbow_common::SiteId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Shared fault state: crashed nodes and network partitions.
///
/// A *crash* makes a node stop sending and receiving: messages to and from
/// it are dropped until it recovers. A *partition* assigns nodes to groups;
/// messages crossing group boundaries are dropped until the partition heals.
/// Nodes not mentioned in the partition map remain in the default group 0.
#[derive(Debug, Default)]
pub struct FaultController {
    crashed: RwLock<BTreeSet<NodeId>>,
    partition: RwLock<BTreeMap<NodeId, u32>>,
    /// `crashed.len()`, stored under `crashed`'s write lock: 0 answers
    /// `is_crashed` without the lock.
    crashed_count: AtomicUsize,
    /// `!partition.is_empty()`, stored under `partition`'s write lock.
    partitioned: AtomicBool,
    /// Epoch bumped on every crash, used by sites to detect that they were
    /// restarted (volatile state must be discarded on recovery).
    crash_epochs: RwLock<BTreeMap<NodeId, u64>>,
    injected_crashes: AtomicU64,
    injected_recoveries: AtomicU64,
    injected_partitions: AtomicU64,
}

impl FaultController {
    /// A controller with no faults injected.
    pub fn new() -> Self {
        FaultController::default()
    }

    /// Crashes a node. Messages to/from it are dropped until
    /// [`FaultController::recover`] is called. Crashing an already-crashed
    /// node is a no-op (the epoch is not bumped twice).
    pub fn crash(&self, node: NodeId) {
        let mut crashed = self.crashed.write();
        if crashed.insert(node) {
            self.crashed_count.store(crashed.len(), Ordering::SeqCst);
            *self.crash_epochs.write().entry(node).or_insert(0) += 1;
            self.injected_crashes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Recovers a crashed node. Recovering a live node is a no-op.
    pub fn recover(&self, node: NodeId) {
        let mut crashed = self.crashed.write();
        if crashed.remove(&node) {
            self.crashed_count.store(crashed.len(), Ordering::SeqCst);
            self.injected_recoveries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether any node is crashed; false takes no lock.
    fn any_crashed(&self) -> bool {
        self.crashed_count.load(Ordering::SeqCst) > 0
    }

    /// Whether a node is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.any_crashed() && self.crashed.read().contains(&node)
    }

    /// Currently crashed nodes.
    pub fn crashed_nodes(&self) -> Vec<NodeId> {
        self.crashed.read().iter().copied().collect()
    }

    /// Currently crashed *sites* — the "suspected down" view the
    /// replication planners consult when assembling quorums. Crashes are
    /// ground truth in the simulator (the paper's fault-injection panel),
    /// so this is the strongest failure knowledge a protocol may safely
    /// use; partitions are intentionally excluded (see
    /// [`FaultController::unreachable_from`]).
    pub fn crashed_sites(&self) -> Vec<SiteId> {
        if !self.any_crashed() {
            return Vec::new();
        }
        self.crashed
            .read()
            .iter()
            .filter_map(|n| n.as_site())
            .collect()
    }

    /// Every node `origin` currently cannot exchange messages with, whether
    /// crashed or separated by a partition, out of `peers`. Useful for
    /// experiment scripts and diagnostics; *not* fed to the replication
    /// planners, because acting on partition-local unreachability would let
    /// both sides of a split shrink their write sets and diverge.
    pub fn unreachable_from(&self, origin: NodeId, peers: &[NodeId]) -> Vec<NodeId> {
        peers
            .iter()
            .filter(|peer| **peer != origin && !self.can_communicate(origin, **peer))
            .copied()
            .collect()
    }

    /// Number of times `node` has crashed so far (its crash epoch).
    pub fn crash_epoch(&self, node: NodeId) -> u64 {
        self.crash_epochs.read().get(&node).copied().unwrap_or(0)
    }

    /// Splits the network: every node in `groups[i]` joins partition group
    /// `i + 1`; unmentioned nodes stay in group 0. Any previous partition is
    /// replaced.
    pub fn partition(&self, groups: &[Vec<NodeId>]) {
        let mut map = BTreeMap::new();
        for (i, group) in groups.iter().enumerate() {
            for node in group {
                map.insert(*node, i as u32 + 1);
            }
        }
        self.set_partition(map);
        self.injected_partitions.fetch_add(1, Ordering::Relaxed);
    }

    /// Replaces the partition map, and its summary with it.
    fn set_partition(&self, map: BTreeMap<NodeId, u32>) {
        let mut partition = self.partition.write();
        *partition = map;
        self.partitioned
            .store(!partition.is_empty(), Ordering::SeqCst);
    }

    /// Isolates a single node from everyone else (a common experiment step).
    pub fn isolate(&self, node: NodeId) {
        self.partition(&[vec![node]]);
    }

    /// Heals all partitions.
    pub fn heal_partition(&self) {
        self.set_partition(BTreeMap::new());
    }

    /// Whether a partition currently separates `a` from `b`.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        if a == b || !self.partitioned.load(Ordering::SeqCst) {
            return false;
        }
        let map = self.partition.read();
        let ga = map.get(&a).copied().unwrap_or(0);
        let gb = map.get(&b).copied().unwrap_or(0);
        ga != gb
    }

    /// Whether `from` can currently reach `to` (neither crashed nor
    /// partitioned apart).
    pub fn can_communicate(&self, from: NodeId, to: NodeId) -> bool {
        !self.is_crashed(from) && !self.is_crashed(to) && !self.is_partitioned(from, to)
    }

    /// Clears every fault (crashes and partitions), keeping the injection
    /// counters consistent: each crashed node removed here counts as a
    /// recovery, exactly as if [`FaultController::recover`] had been called
    /// for it. The nemesis harness audits its runs with
    /// `injected_crashes == injected_recoveries` after a clear-all, so the
    /// accounting must be exact. (`injected_partitions` counts partition
    /// *events* and is unaffected by healing, which has no counter.)
    pub fn clear(&self) {
        let mut crashed = self.crashed.write();
        let recovered = crashed.len() as u64;
        crashed.clear();
        self.crashed_count.store(0, Ordering::SeqCst);
        drop(crashed);
        if recovered > 0 {
            self.injected_recoveries
                .fetch_add(recovered, Ordering::Relaxed);
        }
        self.heal_partition();
    }

    /// Total crash events injected so far.
    pub fn injected_crashes(&self) -> u64 {
        self.injected_crashes.load(Ordering::Relaxed)
    }

    /// Total recovery events injected so far.
    pub fn injected_recoveries(&self) -> u64 {
        self.injected_recoveries.load(Ordering::Relaxed)
    }

    /// Total partition events injected so far.
    pub fn injected_partitions(&self) -> u64 {
        self.injected_partitions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_and_recover_cycle() {
        let f = FaultController::new();
        let s0 = NodeId::site(0);
        assert!(!f.is_crashed(s0));
        assert!(f.can_communicate(s0, NodeId::site(1)));

        f.crash(s0);
        assert!(f.is_crashed(s0));
        assert_eq!(f.crashed_nodes(), vec![s0]);
        assert!(!f.can_communicate(s0, NodeId::site(1)));
        assert!(!f.can_communicate(NodeId::site(1), s0));
        assert_eq!(f.crash_epoch(s0), 1);

        // Double crash does not bump the epoch or the counter.
        f.crash(s0);
        assert_eq!(f.crash_epoch(s0), 1);
        assert_eq!(f.injected_crashes(), 1);

        f.recover(s0);
        assert!(!f.is_crashed(s0));
        assert!(f.can_communicate(s0, NodeId::site(1)));
        assert_eq!(f.injected_recoveries(), 1);

        // Recovering a live node is a no-op.
        f.recover(s0);
        assert_eq!(f.injected_recoveries(), 1);

        // A second crash bumps the epoch.
        f.crash(s0);
        assert_eq!(f.crash_epoch(s0), 2);
    }

    #[test]
    fn partitions_separate_groups_only() {
        let f = FaultController::new();
        let (a, b, c, d) = (
            NodeId::site(0),
            NodeId::site(1),
            NodeId::site(2),
            NodeId::site(3),
        );
        f.partition(&[vec![a, b], vec![c]]);
        // a and b are together.
        assert!(!f.is_partitioned(a, b));
        assert!(f.can_communicate(a, b));
        // c is alone in its group.
        assert!(f.is_partitioned(a, c));
        assert!(f.is_partitioned(b, c));
        // d was not mentioned: it sits in group 0, separated from all named groups.
        assert!(f.is_partitioned(a, d));
        assert!(f.is_partitioned(c, d));
        // A node is never partitioned from itself.
        assert!(!f.is_partitioned(a, a));
        assert_eq!(f.injected_partitions(), 1);

        f.heal_partition();
        assert!(!f.is_partitioned(a, c));
        assert!(f.can_communicate(a, d));
    }

    #[test]
    fn isolate_cuts_one_node_off() {
        let f = FaultController::new();
        let ns = NodeId::NameServer;
        f.isolate(ns);
        assert!(f.is_partitioned(ns, NodeId::site(0)));
        assert!(!f.is_partitioned(NodeId::site(0), NodeId::site(1)));
        assert!(!f.is_crashed(ns), "isolation is not a crash");
    }

    #[test]
    fn clear_removes_all_faults() {
        let f = FaultController::new();
        f.crash(NodeId::site(0));
        f.partition(&[vec![NodeId::site(1)]]);
        f.clear();
        assert!(!f.is_crashed(NodeId::site(0)));
        assert!(!f.is_partitioned(NodeId::site(1), NodeId::site(2)));
    }

    #[test]
    fn clear_keeps_crash_and_recovery_counters_balanced() {
        let f = FaultController::new();
        f.crash(NodeId::site(0));
        f.crash(NodeId::site(1));
        f.recover(NodeId::site(0));
        f.partition(&[vec![NodeId::site(2)]]);
        f.clear();
        // Clearing site 1's crash counted as a recovery: after a clear-all,
        // every injected crash has a matching recovery on record.
        assert_eq!(f.injected_crashes(), 2);
        assert_eq!(f.injected_recoveries(), 2);
        // A clear with nothing crashed adds no phantom recoveries.
        f.clear();
        assert_eq!(f.injected_recoveries(), 2);
        assert_eq!(f.injected_partitions(), 1, "partition events stay counted");
    }

    #[test]
    fn crashed_sites_and_unreachable_views() {
        let f = FaultController::new();
        f.crash(NodeId::site(1));
        f.crash(NodeId::NameServer);
        // Only site nodes show up in the planner-facing view.
        assert_eq!(f.crashed_sites(), vec![SiteId(1)]);

        f.partition(&[vec![NodeId::site(2)]]);
        let peers = [NodeId::site(0), NodeId::site(1), NodeId::site(2)];
        let unreachable = f.unreachable_from(NodeId::site(0), &peers);
        // Site 1 is crashed, site 2 is across the partition; site 0 itself
        // is never listed.
        assert_eq!(unreachable, vec![NodeId::site(1), NodeId::site(2)]);
        // ...but the planner view still only suspects the crash.
        assert_eq!(f.crashed_sites(), vec![SiteId(1)]);
    }

    #[test]
    fn empty_partition_map_means_fully_connected() {
        let f = FaultController::new();
        assert!(!f.is_partitioned(NodeId::site(0), NodeId::Client(1)));
        assert!(f.can_communicate(NodeId::NameServer, NodeId::Client(0)));
    }

    /// The answers read from the locked sets alone, summary ignored.
    fn locked_answers(
        f: &FaultController,
        nodes: &[NodeId],
    ) -> (Vec<bool>, Vec<bool>, Vec<SiteId>) {
        let crashed = f.crashed.read().clone();
        let partition = f.partition.read().clone();
        let group = |n: &NodeId| partition.get(n).copied().unwrap_or(0);
        let mut partitioned = Vec::new();
        let mut reachable = Vec::new();
        for a in nodes {
            for b in nodes {
                let apart = a != b && group(a) != group(b);
                partitioned.push(apart);
                reachable.push(!crashed.contains(a) && !crashed.contains(b) && !apart);
            }
        }
        let sites = crashed.iter().filter_map(|n| n.as_site()).collect();
        (partitioned, reachable, sites)
    }

    #[test]
    fn the_summary_answers_what_the_locked_sets_answer_after_every_step() {
        use rand::Rng;
        let nodes = [
            NodeId::site(0),
            NodeId::site(1),
            NodeId::site(2),
            NodeId::NameServer,
            NodeId::Client(0),
        ];
        let mut rng = rainbow_common::rng::seeded_rng(44);
        let f = FaultController::new();
        let (mut faulty, mut healthy) = (0, 0);
        for _ in 0..2_000 {
            let node = nodes[rng.gen_range(0..nodes.len())];
            match rng.gen_range(0..6) {
                0 => f.crash(node),
                1 => f.recover(node),
                2 => f.clear(),
                3 => {
                    let other = nodes[rng.gen_range(0..nodes.len())];
                    f.partition(&[vec![node], vec![other]]);
                }
                4 => f.isolate(node),
                _ => f.heal_partition(),
            }
            let (partitioned, reachable, sites) = locked_answers(&f, &nodes);
            let crashed = f.crashed.read().clone();
            for n in &nodes {
                assert_eq!(f.is_crashed(*n), crashed.contains(n));
            }
            let pairs = nodes
                .iter()
                .flat_map(|a| nodes.iter().map(move |b| (*a, *b)));
            for ((a, b), (apart, reach)) in pairs.zip(partitioned.into_iter().zip(reachable)) {
                assert_eq!(f.is_partitioned(a, b), apart, "{a} / {b}");
                assert_eq!(f.can_communicate(a, b), reach, "{a} -> {b}");
            }
            assert_eq!(f.crashed_sites(), sites);
            if crashed.is_empty() && f.partition.read().is_empty() {
                healthy += 1;
            } else {
                faulty += 1;
            }
        }
        assert!(
            healthy > 100 && faulty > 100,
            "{healthy} healthy, {faulty} faulty"
        );
    }
}
