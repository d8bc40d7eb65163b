//! The replication-control planners: ROWA, Quorum Consensus, Available
//! Copies, Tree Quorum and Primary Copy.

use crate::plan::{votes_of, QuorumKind, QuorumPlan};
use parking_lot::Mutex;
use rainbow_common::config::ItemPlacement;
use rainbow_common::protocol::RcpKind;
use rainbow_common::{ItemId, SiteId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A replication control protocol plans which copies must be touched for a
/// read or a write of an item.
///
/// The planner decides *which* sites to contact, and in what order, using
/// the fault controller's live view of the cluster (`suspected_down`); the
/// transaction manager executes the plan (sending copy-access requests to
/// the sites the [`crate::plan::QuorumCollector`] contacts, and to its
/// spares when a contacted site fails or is slow).
pub trait ReplicationControl: Send + Sync {
    /// Plans a read of `item`. `prefer` is the site the transaction would
    /// like to read from when the protocol allows a choice (its home site),
    /// and `suspected_down` lists sites the caller believes are unavailable
    /// so the planner can route around them when it has freedom to.
    fn plan_read(
        &self,
        item: &ItemId,
        placement: &ItemPlacement,
        prefer: Option<SiteId>,
        suspected_down: &[SiteId],
    ) -> QuorumPlan;

    /// Plans a write (pre-write) of `item` with no preferred site: the same
    /// as [`ReplicationControl::plan_write_from`] with `prefer` = `None`.
    fn plan_write(
        &self,
        item: &ItemId,
        placement: &ItemPlacement,
        suspected_down: &[SiteId],
    ) -> QuorumPlan;

    /// Plans a write (pre-write) of `item` issued by `prefer` (its home
    /// site). `suspected_down` carries the same live site-status view as
    /// reads: protocols that adapt their write set to failures (Available
    /// Copies, Tree Quorum, Primary Copy) consult it, QC asks the suspected
    /// holders last, and ROWA ignores it. Only QC has a choice of copies to
    /// prefer; the others plan as [`ReplicationControl::plan_write`] does.
    fn plan_write_from(
        &self,
        item: &ItemId,
        placement: &ItemPlacement,
        _prefer: Option<SiteId>,
        suspected_down: &[SiteId],
    ) -> QuorumPlan {
        self.plan_write(item, placement, suspected_down)
    }

    /// Human-readable name.
    fn name(&self) -> &'static str;
}

/// Shared read-one planner: pick a single copy, preferring `prefer` when it
/// holds a live copy, then any live holder, then (as a last resort) a
/// suspected-down holder so the request at least gets a chance. Used by the
/// ROWA and Available Copies read paths.
fn read_one_plan(
    item: &ItemId,
    placement: &ItemPlacement,
    prefer: Option<SiteId>,
    suspected_down: &[SiteId],
) -> QuorumPlan {
    let holders = placement.holders();
    let chosen = prefer
        .filter(|p| placement.holds_copy(*p) && !suspected_down.contains(p))
        .or_else(|| {
            holders
                .iter()
                .find(|s| !suspected_down.contains(s))
                .copied()
        })
        .or_else(|| holders.first().copied());
    let targets: Vec<SiteId> = chosen.into_iter().collect();
    let votes = votes_of(placement);
    let required_votes = targets
        .iter()
        .map(|s| votes.get(s).copied().unwrap_or(1))
        .sum();
    QuorumPlan {
        item: item.clone(),
        kind: QuorumKind::Read,
        targets,
        votes,
        required_votes,
    }
}

/// Builds an all-of-targets plan: one vote per target, every target's
/// response required. Used by the fault-adaptive write paths and the tree
/// quorum planner, where the target set itself encodes the quorum.
fn all_of_plan(item: &ItemId, kind: QuorumKind, targets: Vec<SiteId>) -> QuorumPlan {
    let votes: BTreeMap<SiteId, u32> = targets.iter().map(|s| (*s, 1)).collect();
    // An empty target set must come out *impossible*, not trivially
    // assembled: requiring one unobtainable vote makes the collector abort
    // the transaction immediately instead of committing a write nowhere.
    let required_votes = (votes.len() as u32).max(1);
    QuorumPlan {
        item: item.clone(),
        kind,
        targets,
        votes,
        required_votes,
    }
}

/// Read-One-Write-All.
///
/// Reads touch a single copy (preferably a local one); writes must touch
/// every copy, so a single unavailable copy holder blocks all writes of the
/// item — the availability weakness the quorum experiments demonstrate.
#[derive(Debug, Default)]
pub struct ReadOneWriteAll;

impl ReadOneWriteAll {
    /// Creates the planner.
    pub fn new() -> Self {
        ReadOneWriteAll
    }
}

impl ReplicationControl for ReadOneWriteAll {
    fn plan_read(
        &self,
        item: &ItemId,
        placement: &ItemPlacement,
        prefer: Option<SiteId>,
        suspected_down: &[SiteId],
    ) -> QuorumPlan {
        read_one_plan(item, placement, prefer, suspected_down)
    }

    fn plan_write(
        &self,
        item: &ItemId,
        placement: &ItemPlacement,
        _suspected_down: &[SiteId],
    ) -> QuorumPlan {
        // Every copy, live or not: a single unavailable holder makes the
        // write impossible, which is exactly the ROWA trade-off.
        let votes = votes_of(placement);
        let required_votes = votes.values().sum();
        QuorumPlan {
            item: item.clone(),
            kind: QuorumKind::Write,
            targets: placement.holders(),
            votes,
            required_votes,
        }
    }

    fn name(&self) -> &'static str {
        "ROWA"
    }
}

/// Quorum Consensus (weighted voting), the Rainbow default RCP.
///
/// Reads and writes ask exactly a quorum: the plan lists every holder in
/// the order it asks them in — the home's own copy first, then the heaviest
/// votes, ties in ring order after the home, holders suspected down last —
/// and the collector contacts the shortest prefix whose votes reach the
/// threshold. The other holders are spares, asked only when a contacted
/// copy denies, has no copy, or has not answered by the hedge point
/// (Gifford, *Weighted Voting for Replicated Data*, SOSP 1979). The
/// quorum thresholds in the [`ItemPlacement`] guarantee that read quorums
/// intersect write quorums and write quorums intersect each other, whichever
/// holders answer.
#[derive(Debug, Default)]
pub struct QuorumConsensus;

impl QuorumConsensus {
    /// Creates the planner.
    pub fn new() -> Self {
        QuorumConsensus
    }

    fn plan(
        item: &ItemId,
        kind: QuorumKind,
        placement: &ItemPlacement,
        prefer: Option<SiteId>,
        suspected_down: &[SiteId],
    ) -> QuorumPlan {
        QuorumPlan {
            item: item.clone(),
            kind,
            targets: quorum_order(placement, prefer, suspected_down),
            votes: votes_of(placement),
            required_votes: match kind {
                QuorumKind::Read => placement.read_quorum,
                QuorumKind::Write => placement.write_quorum,
            },
        }
    }
}

/// The order Quorum Consensus asks an item's holders in: the preferred site
/// (the home) first; then by vote weight, heaviest first; ties in ring order
/// after the home (holders by id, rotated to start just after it), which
/// spreads the remote copy load evenly when homes rotate; and the holders
/// suspected down last.
fn quorum_order(
    placement: &ItemPlacement,
    prefer: Option<SiteId>,
    suspected_down: &[SiteId],
) -> Vec<SiteId> {
    let mut holders = placement.holders();
    if let Some(home) = prefer {
        let after_home = holders.partition_point(|s| *s <= home);
        holders.rotate_left(after_home);
    }
    // A stable sort: the ring order breaks the ties.
    holders.sort_by_key(|s| {
        let suspected = suspected_down.contains(s);
        (suspected, Some(*s) != prefer, Reverse(placement.copies[s]))
    });
    holders
}

impl ReplicationControl for QuorumConsensus {
    fn plan_read(
        &self,
        item: &ItemId,
        placement: &ItemPlacement,
        prefer: Option<SiteId>,
        suspected_down: &[SiteId],
    ) -> QuorumPlan {
        Self::plan(item, QuorumKind::Read, placement, prefer, suspected_down)
    }

    fn plan_write(
        &self,
        item: &ItemId,
        placement: &ItemPlacement,
        suspected_down: &[SiteId],
    ) -> QuorumPlan {
        self.plan_write_from(item, placement, None, suspected_down)
    }

    fn plan_write_from(
        &self,
        item: &ItemId,
        placement: &ItemPlacement,
        prefer: Option<SiteId>,
        suspected_down: &[SiteId],
    ) -> QuorumPlan {
        Self::plan(item, QuorumKind::Write, placement, prefer, suspected_down)
    }

    fn name(&self) -> &'static str {
        "QC"
    }
}

/// Available Copies: read-any / write-all-*available*.
///
/// Reads touch a single copy like ROWA; writes touch every copy the fault
/// controller currently believes is up and require all of them to answer.
/// This keeps writes available under site crashes (ROWA's weakness) while
/// keeping reads one-copy cheap (QC's weakness). The validation half of the
/// classic protocol is inherited from the machinery around the planner: a
/// contacted copy that turns out to be dead fails the quorum (the write
/// aborts rather than silently shrinking), and under a network partition
/// the partitioned-but-not-crashed holders stay in the target set, so
/// cross-partition writes time out instead of committing on both sides.
///
/// Known limitation, as in the literature: a holder that crashes and later
/// recovers has missed the writes committed while it was down and must not
/// serve reads until a copier protocol has caught it up. The simulator's
/// recovery path replays only the local log, so experiments that recover a
/// site under AC should expect stale reads from it — that window is exactly
/// the lesson the protocol teaches.
#[derive(Debug, Default)]
pub struct AvailableCopies;

impl AvailableCopies {
    /// Creates the planner.
    pub fn new() -> Self {
        AvailableCopies
    }
}

impl ReplicationControl for AvailableCopies {
    fn plan_read(
        &self,
        item: &ItemId,
        placement: &ItemPlacement,
        prefer: Option<SiteId>,
        suspected_down: &[SiteId],
    ) -> QuorumPlan {
        read_one_plan(item, placement, prefer, suspected_down)
    }

    fn plan_write(
        &self,
        item: &ItemId,
        placement: &ItemPlacement,
        suspected_down: &[SiteId],
    ) -> QuorumPlan {
        let holders = placement.holders();
        let mut targets: Vec<SiteId> = holders
            .iter()
            .filter(|s| !suspected_down.contains(s))
            .copied()
            .collect();
        if targets.is_empty() {
            // Every copy suspected down: contact them all anyway so the
            // write fails honestly (timeout/denial) instead of "committing"
            // to an empty copy set.
            targets = holders;
        }
        all_of_plan(item, QuorumKind::Write, targets)
    }

    fn name(&self) -> &'static str {
        "AC"
    }
}

/// Tree Quorum (Agrawal & El Abbadi): the copy holders form a logical tree
/// (sorted site order, heap layout, [`TreeQuorum::ARITY`] children per
/// node).
///
/// * A **read quorum** is the root alone; when the root is suspected down
///   the read degrades to a majority of its children's read quorums,
///   recursively.
/// * A **write quorum** is the root plus, recursively, a majority of the
///   children of every selected node. The root (and every selected inner
///   node) is mandatory, so writes block while the root is down — in
///   exchange, reads never pay more than one copy in the failure-free case
///   and every read quorum provably intersects every write quorum.
#[derive(Debug, Default)]
pub struct TreeQuorum;

impl TreeQuorum {
    /// Children per node: the classic ternary tree.
    pub const ARITY: usize = 3;

    /// Creates the planner.
    pub fn new() -> Self {
        TreeQuorum
    }

    /// The child indices of node `i` in a heap-shaped tree over `n` nodes.
    fn children(&self, i: usize, n: usize) -> std::ops::Range<usize> {
        let first = (i * Self::ARITY + 1).min(n);
        let last = (i * Self::ARITY + Self::ARITY).min(n.saturating_sub(1));
        if first >= n {
            first..first
        } else {
            first..last + 1
        }
    }

    /// The read quorum of the subtree rooted at `i`: the root when live,
    /// otherwise a majority of the children's read quorums.
    fn read_quorum(
        &self,
        holders: &[SiteId],
        suspected_down: &[SiteId],
        i: usize,
    ) -> Option<Vec<SiteId>> {
        if !suspected_down.contains(&holders[i]) {
            return Some(vec![holders[i]]);
        }
        let kids = self.children(i, holders.len());
        if kids.is_empty() {
            return None;
        }
        let need = kids.len() / 2 + 1;
        let mut union = Vec::new();
        let mut got = 0;
        for kid in kids {
            if let Some(sub) = self.read_quorum(holders, suspected_down, kid) {
                union.extend(sub);
                got += 1;
                if got == need {
                    union.sort();
                    union.dedup();
                    return Some(union);
                }
            }
        }
        None
    }

    /// The write quorum of the subtree rooted at `i`: the (mandatory) root
    /// plus a majority of the children's write quorums. `None` when the
    /// root of the subtree is down or too few child subtrees are writable.
    fn write_quorum(
        &self,
        holders: &[SiteId],
        suspected_down: &[SiteId],
        i: usize,
    ) -> Option<Vec<SiteId>> {
        if suspected_down.contains(&holders[i]) {
            return None;
        }
        let kids = self.children(i, holders.len());
        if kids.is_empty() {
            return Some(vec![holders[i]]);
        }
        let need = kids.len() / 2 + 1;
        let mut union = vec![holders[i]];
        let mut got = 0;
        for kid in kids {
            if let Some(sub) = self.write_quorum(holders, suspected_down, kid) {
                union.extend(sub);
                got += 1;
                if got == need {
                    union.sort();
                    union.dedup();
                    return Some(union);
                }
            }
        }
        None
    }
}

impl ReplicationControl for TreeQuorum {
    fn plan_read(
        &self,
        item: &ItemId,
        placement: &ItemPlacement,
        _prefer: Option<SiteId>,
        suspected_down: &[SiteId],
    ) -> QuorumPlan {
        let holders = placement.holders();
        let targets = if holders.is_empty() {
            Vec::new()
        } else {
            self.read_quorum(&holders, suspected_down, 0)
                .unwrap_or_default()
        };
        all_of_plan(item, QuorumKind::Read, targets)
    }

    fn plan_write(
        &self,
        item: &ItemId,
        placement: &ItemPlacement,
        suspected_down: &[SiteId],
    ) -> QuorumPlan {
        let holders = placement.holders();
        let targets = if holders.is_empty() {
            Vec::new()
        } else {
            self.write_quorum(&holders, suspected_down, 0)
                .unwrap_or_default()
        };
        all_of_plan(item, QuorumKind::Write, targets)
    }

    fn name(&self) -> &'static str {
        "TQ"
    }
}

/// Primary Copy with lease-based failover.
///
/// Every read and write of an item is routed through the item's *primary* —
/// the lowest-numbered copy holder. Writes are propagated synchronously to
/// every available backup (eager primary copy), so a failover never loses a
/// committed write as long as the new primary was up when it committed.
/// When the primary is suspected down, the planner fails over to the next
/// live holder and records a **lease**: the replacement stays primary while
/// the lease keeps being renewed (every plan renews it), even after the old
/// primary recovers, because the recovered site may have missed writes.
/// Only when the leased site itself dies — or the item goes unaccessed past
/// the lease duration — is the role recomputed.
///
/// Known limitation, as in the literature (and shared with
/// [`AvailableCopies`]): a recovered primary is stale until it catches up,
/// and nothing here performs that catch-up. The lease only *mitigates* the
/// window, and only within one coordinator — leases live in the
/// per-coordinator planner instance, and an idle lease expires — so a read
/// planned after recovery by a coordinator without a fresh lease is routed
/// to the recovered (stale) primary until the item's next committed write
/// re-synchronizes it. A real deployment would gate re-election on a
/// log-shipping catch-up protocol; that window is exactly the lesson this
/// protocol teaches in failover experiments.
pub struct PrimaryCopy {
    lease_duration: Duration,
    leases: Mutex<HashMap<ItemId, (SiteId, Instant)>>,
}

impl std::fmt::Debug for PrimaryCopy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrimaryCopy")
            .field("lease_duration", &self.lease_duration)
            .finish_non_exhaustive()
    }
}

impl Default for PrimaryCopy {
    fn default() -> Self {
        PrimaryCopy::new()
    }
}

impl PrimaryCopy {
    /// Creates the planner with a 2-second lease.
    pub fn new() -> Self {
        PrimaryCopy {
            lease_duration: Duration::from_secs(2),
            leases: Mutex::new(HashMap::new()),
        }
    }

    /// Overrides the lease duration.
    pub fn with_lease_duration(mut self, lease: Duration) -> Self {
        self.lease_duration = lease;
        self
    }

    /// The site currently acting as primary for `item`, renewing or
    /// (re)granting the lease as a side effect.
    pub fn leader(
        &self,
        item: &ItemId,
        placement: &ItemPlacement,
        suspected_down: &[SiteId],
    ) -> Option<SiteId> {
        let holders = placement.holders();
        let fallback = *holders.first()?;
        let mut leases = self.leases.lock();
        if let Some((holder, granted)) = leases.get_mut(item) {
            if placement.holds_copy(*holder)
                && !suspected_down.contains(holder)
                && granted.elapsed() < self.lease_duration
            {
                *granted = Instant::now();
                return Some(*holder);
            }
        }
        let chosen = holders
            .iter()
            .find(|s| !suspected_down.contains(s))
            .copied()
            .unwrap_or(fallback);
        leases.insert(item.clone(), (chosen, Instant::now()));
        Some(chosen)
    }
}

impl ReplicationControl for PrimaryCopy {
    fn plan_read(
        &self,
        item: &ItemId,
        placement: &ItemPlacement,
        _prefer: Option<SiteId>,
        suspected_down: &[SiteId],
    ) -> QuorumPlan {
        let targets = match self.leader(item, placement, suspected_down) {
            Some(leader) => vec![leader],
            None => Vec::new(),
        };
        all_of_plan(item, QuorumKind::Read, targets)
    }

    fn plan_write(
        &self,
        item: &ItemId,
        placement: &ItemPlacement,
        suspected_down: &[SiteId],
    ) -> QuorumPlan {
        let targets = match self.leader(item, placement, suspected_down) {
            Some(leader) => {
                // The leader first (preference order), then every live
                // backup: all of them must acknowledge so that any future
                // failover target holds every committed write.
                let mut targets = vec![leader];
                targets.extend(
                    placement
                        .holders()
                        .into_iter()
                        .filter(|s| *s != leader && !suspected_down.contains(s)),
                );
                targets
            }
            None => Vec::new(),
        };
        all_of_plan(item, QuorumKind::Write, targets)
    }

    fn name(&self) -> &'static str {
        "PC"
    }
}

/// Builds an RCP planner from the configured kind.
pub fn make_rcp(kind: RcpKind) -> Arc<dyn ReplicationControl> {
    match kind {
        RcpKind::Rowa => Arc::new(ReadOneWriteAll::new()),
        RcpKind::QuorumConsensus => Arc::new(QuorumConsensus::new()),
        RcpKind::AvailableCopies => Arc::new(AvailableCopies::new()),
        RcpKind::TreeQuorum => Arc::new(TreeQuorum::new()),
        RcpKind::PrimaryCopy => Arc::new(PrimaryCopy::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{QuorumOutcome, QuorumResponse};
    use rainbow_common::Version;

    fn sites(n: u32) -> Vec<SiteId> {
        (0..n).map(SiteId).collect()
    }

    fn item() -> ItemId {
        ItemId::new("x")
    }

    #[test]
    fn rowa_reads_touch_one_copy_preferring_home() {
        let rcp = ReadOneWriteAll::new();
        let placement = ItemPlacement::majority(sites(3));
        let plan = rcp.plan_read(&item(), &placement, Some(SiteId(2)), &[]);
        assert_eq!(plan.targets, vec![SiteId(2)]);
        assert_eq!(plan.required_votes, 1);
        assert_eq!(plan.kind, QuorumKind::Read);

        // Preferred site not a holder: falls back to some holder.
        let plan = rcp.plan_read(&item(), &placement, Some(SiteId(9)), &[]);
        assert_eq!(plan.targets.len(), 1);
        assert!(placement.holds_copy(plan.targets[0]));
    }

    #[test]
    fn rowa_read_routes_around_suspected_down_sites() {
        let rcp = ReadOneWriteAll::new();
        let placement = ItemPlacement::majority(sites(3));
        let plan = rcp.plan_read(
            &item(),
            &placement,
            Some(SiteId(0)),
            &[SiteId(0), SiteId(1)],
        );
        assert_eq!(plan.targets, vec![SiteId(2)]);
        // All holders down: still pick someone rather than nobody.
        let plan = rcp.plan_read(
            &item(),
            &placement,
            None,
            &[SiteId(0), SiteId(1), SiteId(2)],
        );
        assert_eq!(plan.targets.len(), 1);
    }

    #[test]
    fn rowa_writes_require_every_copy() {
        let rcp = ReadOneWriteAll::new();
        let placement = ItemPlacement::majority(sites(4));
        let plan = rcp.plan_write(&item(), &placement, &[]);
        assert_eq!(plan.targets.len(), 4);
        assert_eq!(plan.required_votes, 4);
        assert_eq!(plan.kind, QuorumKind::Write);

        // One failure makes a ROWA write impossible.
        let mut collector = plan.collector();
        collector.record_failure(SiteId(1));
        assert_eq!(collector.outcome(), QuorumOutcome::Impossible);
    }

    #[test]
    fn qc_uses_placement_thresholds() {
        let rcp = QuorumConsensus::new();
        let placement = ItemPlacement::majority(sites(5));
        let read = rcp.plan_read(&item(), &placement, Some(SiteId(0)), &[]);
        let write = rcp.plan_write(&item(), &placement, &[]);
        assert_eq!(read.targets.len(), 5);
        assert_eq!(read.required_votes, 3);
        assert_eq!(write.required_votes, 3);
    }

    #[test]
    fn qc_asks_the_home_then_its_ring_successor_and_keeps_the_third_copy_spare() {
        let rcp = QuorumConsensus::new();
        let placement = ItemPlacement::majority(sites(3));
        for (home, next, spare) in [(0, 1, 2), (1, 2, 0), (2, 0, 1)] {
            let home = SiteId(home);
            let read = rcp.plan_read(&item(), &placement, Some(home), &[]);
            let write = rcp.plan_write_from(&item(), &placement, Some(home), &[]);
            for collector in [read.collector(), write.collector()] {
                let contacted = collector.contacted();
                assert_eq!(contacted, [home, SiteId(next)], "home {home}");
                assert_eq!(collector.plan().targets[2], SiteId(spare));
            }
        }
    }

    #[test]
    fn qc_makes_a_suspected_holder_a_spare() {
        let rcp = QuorumConsensus::new();
        let placement = ItemPlacement::majority(sites(3));
        let down = [SiteId(1)];
        let plan = rcp.plan_read(&item(), &placement, Some(SiteId(0)), &down);
        assert_eq!(plan.targets, vec![SiteId(0), SiteId(2), SiteId(1)]);
        let collector = plan.collector();
        assert_eq!(collector.contacted(), [SiteId(0), SiteId(2)]);

        // Suspected last even when it is the home.
        let plan = rcp.plan_write_from(&item(), &placement, Some(SiteId(1)), &down);
        assert_eq!(plan.targets, vec![SiteId(2), SiteId(0), SiteId(1)]);
    }

    #[test]
    fn weighted_qc_asks_the_heaviest_copies_first() {
        // Nine votes, quorums of five: the home (1 vote) and then the
        // heaviest holders, ring order after the home breaking the tie.
        let copies = [(0, 1), (1, 3), (2, 1), (3, 3), (4, 1)];
        let copies = copies.map(|(s, v)| (SiteId(s), v)).into_iter().collect();
        let placement = ItemPlacement::weighted(copies, 5, 5);
        let rcp = QuorumConsensus::new();
        let plan = rcp.plan_write_from(&item(), &placement, Some(SiteId(2)), &[]);
        assert_eq!(plan.targets[..3], [SiteId(2), SiteId(3), SiteId(1)]);
        assert_eq!(plan.targets[3..], [SiteId(4), SiteId(0)]);
        let collector = plan.collector();
        assert_eq!(collector.contacted(), [SiteId(2), SiteId(3), SiteId(1)]);

        let plan = rcp.plan_read(&item(), &placement, Some(SiteId(1)), &[]);
        assert_eq!(plan.collector().contacted(), [SiteId(1), SiteId(3)]);
    }

    #[test]
    fn only_qc_plans_have_spares() {
        let placement = ItemPlacement::majority(sites(5));
        let views: [&[SiteId]; 3] = [&[], &[SiteId(0)], &[SiteId(1), SiteId(4)]];
        for kind in RcpKind::ALL {
            let rcp = make_rcp(kind);
            for down in views {
                let home = Some(SiteId(2));
                let read = rcp.plan_read(&item(), &placement, home, down);
                let write = rcp.plan_write_from(&item(), &placement, home, down);
                for plan in [read, write] {
                    let targets = plan.targets.clone();
                    let contacted = plan.collector().contacted().to_vec();
                    if kind == RcpKind::QuorumConsensus {
                        assert_eq!(contacted.len(), 3, "{kind} {down:?}");
                        assert_eq!(targets.len(), 5, "{kind} {down:?}");
                    } else {
                        assert_eq!(contacted, targets, "{kind} {down:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn qc_write_survives_minority_failures() {
        let rcp = QuorumConsensus::new();
        let placement = ItemPlacement::majority(sites(5));
        let mut collector = rcp.plan_write(&item(), &placement, &[]).collector();
        collector.record_failure(SiteId(0));
        collector.record_failure(SiteId(1));
        for s in 2..5 {
            collector.record_response(QuorumResponse {
                site: SiteId(s),
                version: Version(1),
                value: None,
            });
        }
        assert!(collector.is_assembled());
    }

    #[test]
    fn qc_read_and_write_quorums_intersect() {
        // For every replication degree, any assembled read quorum shares at
        // least one site with any assembled write quorum.
        for n in 1..=7u32 {
            let placement = ItemPlacement::majority(sites(n));
            let read_q = placement.read_quorum as usize;
            let write_q = placement.write_quorum as usize;
            assert!(read_q + write_q > n as usize, "degree {n}");
        }
    }

    #[test]
    fn rowa_read_quorum_is_cheaper_than_qc() {
        let placement = ItemPlacement::majority(sites(5));
        let rowa_read = ReadOneWriteAll::new().plan_read(&item(), &placement, None, &[]);
        let qc_read = QuorumConsensus::new().plan_read(&item(), &placement, None, &[]);
        assert!(rowa_read.targets.len() < qc_read.targets.len());
    }

    #[test]
    fn factory_produces_the_requested_protocol() {
        // The factory's name must agree with the config `Display` name for
        // every protocol, so sweep reports and config files line up.
        for kind in RcpKind::ALL {
            assert_eq!(make_rcp(kind).name(), kind.to_string());
        }
    }

    #[test]
    fn available_copies_writes_route_around_crashed_holders() {
        let rcp = AvailableCopies::new();
        let placement = ItemPlacement::majority(sites(4));
        let plan = rcp.plan_write(&item(), &placement, &[SiteId(3)]);
        assert_eq!(plan.targets, vec![SiteId(0), SiteId(1), SiteId(2)]);
        assert_eq!(plan.required_votes, 3, "all available copies must answer");

        // Unlike ROWA, the write assembles with the crashed holder absent.
        let mut collector = plan.collector();
        for s in 0..3 {
            collector.record_response(QuorumResponse {
                site: SiteId(s),
                version: Version(1),
                value: None,
            });
        }
        assert!(collector.is_assembled());

        // But a *contacted* copy that fails mid-quorum kills the write
        // (write-all-available validation, no silent shrinking).
        let plan = rcp.plan_write(&item(), &placement, &[]);
        let mut collector = plan.collector();
        collector.record_failure(SiteId(2));
        assert_eq!(collector.outcome(), QuorumOutcome::Impossible);
    }

    #[test]
    fn available_copies_with_every_holder_down_cannot_commit_nowhere() {
        let rcp = AvailableCopies::new();
        let placement = ItemPlacement::majority(sites(2));
        let down = vec![SiteId(0), SiteId(1)];
        let plan = rcp.plan_write(&item(), &placement, &down);
        // Falls back to contacting everyone; the quorum is still >= 1 vote,
        // so with nobody answering the transaction aborts instead of
        // committing a write that touched zero copies.
        assert_eq!(plan.targets.len(), 2);
        assert!(plan.required_votes >= 1);
    }

    #[test]
    fn tree_quorum_reads_cost_one_copy_and_degrade_to_children() {
        let rcp = TreeQuorum::new();
        let placement = ItemPlacement::majority(sites(7));
        // Root alive: the read quorum is the root alone.
        let read = rcp.plan_read(&item(), &placement, None, &[]);
        assert_eq!(read.targets, vec![SiteId(0)]);
        assert_eq!(read.required_votes, 1);

        // Root down: degrade to a majority of its children (arity 3 → 2 of
        // {1, 2, 3}).
        let read = rcp.plan_read(&item(), &placement, None, &[SiteId(0)]);
        assert_eq!(read.targets.len(), 2);
        assert!(read.targets.iter().all(|s| s.0 >= 1 && s.0 <= 3));
        assert_eq!(read.required_votes, 2, "every degraded target is required");

        // Root and one child down: still a majority of children, picked
        // around the failure (child 1's subtree degrades to its children).
        let read = rcp.plan_read(&item(), &placement, None, &[SiteId(0), SiteId(1)]);
        assert!(read.targets.len() >= 2);
        assert!(!read.targets.contains(&SiteId(0)));
        assert!(!read.targets.contains(&SiteId(1)));
    }

    #[test]
    fn tree_quorum_writes_include_root_and_child_majorities() {
        let rcp = TreeQuorum::new();
        let placement = ItemPlacement::majority(sites(7));
        let write = rcp.plan_write(&item(), &placement, &[]);
        // Root + 2 of its 3 children + (leaf children have no subtrees to
        // recurse into beyond themselves).
        assert!(write.targets.contains(&SiteId(0)), "the root is mandatory");
        assert!(write.targets.len() < 7, "cheaper than write-all");
        assert_eq!(write.required_votes, write.targets.len() as u32);

        // A down root blocks writes entirely (reads keep the availability).
        let blocked = rcp.plan_write(&item(), &placement, &[SiteId(0)]);
        assert!(blocked.targets.is_empty());
        assert_eq!(blocked.collector().outcome(), QuorumOutcome::Impossible);
    }

    #[test]
    fn tree_quorum_read_and_write_quorums_intersect_under_failures() {
        // For every single-site failure view, any read quorum the planner
        // builds must share a site with any write quorum built under any
        // (possibly different) single-site failure view — the property that
        // makes version-number reads safe.
        let rcp = TreeQuorum::new();
        for n in 1..=9u32 {
            let placement = ItemPlacement::majority(sites(n));
            let mut views: Vec<Vec<SiteId>> = vec![vec![]];
            views.extend((0..n).map(|s| vec![SiteId(s)]));
            for read_view in &views {
                for write_view in &views {
                    let read = rcp.plan_read(&item(), &placement, None, read_view);
                    let write = rcp.plan_write(&item(), &placement, write_view);
                    if read.targets.is_empty() || write.targets.is_empty() {
                        continue; // that side aborts; nothing to intersect
                    }
                    assert!(
                        read.targets.iter().any(|s| write.targets.contains(s)),
                        "degree {n}: read {read_view:?}→{:?} misses write {write_view:?}→{:?}",
                        read.targets,
                        write.targets
                    );
                }
            }
        }
    }

    #[test]
    fn primary_copy_routes_reads_and_writes_through_the_primary() {
        let rcp = PrimaryCopy::new();
        let placement = ItemPlacement::majority(sites(3));
        let read = rcp.plan_read(&item(), &placement, Some(SiteId(2)), &[]);
        assert_eq!(read.targets, vec![SiteId(0)], "home preference is ignored");
        let write = rcp.plan_write(&item(), &placement, &[]);
        assert_eq!(write.targets[0], SiteId(0), "primary leads the write");
        assert_eq!(write.targets.len(), 3, "backups are updated synchronously");
        assert_eq!(write.required_votes, 3);
    }

    #[test]
    fn primary_copy_fails_over_and_holds_the_lease_after_recovery() {
        let rcp = PrimaryCopy::new();
        let placement = ItemPlacement::majority(sites(3));
        // Primary crashes: the next live holder takes over.
        let read = rcp.plan_read(&item(), &placement, None, &[SiteId(0)]);
        assert_eq!(read.targets, vec![SiteId(1)]);
        // Primary recovers: the lease keeps the replacement in charge (the
        // recovered site may have missed writes and must catch up first).
        let read = rcp.plan_read(&item(), &placement, None, &[]);
        assert_eq!(read.targets, vec![SiteId(1)], "lease is sticky");
        // Writes during the failover exclude the crashed primary but still
        // reach every live backup.
        let write = rcp.plan_write(&item(), &placement, &[SiteId(0)]);
        assert_eq!(write.targets, vec![SiteId(1), SiteId(2)]);
        // The leased replacement dying hands the role to the next live site.
        let read = rcp.plan_read(&item(), &placement, None, &[SiteId(1)]);
        assert_eq!(read.targets, vec![SiteId(0)]);
    }

    #[test]
    fn primary_copy_lease_expires_when_unused() {
        let rcp = PrimaryCopy::new().with_lease_duration(Duration::from_millis(20));
        let placement = ItemPlacement::majority(sites(2));
        let read = rcp.plan_read(&item(), &placement, None, &[SiteId(0)]);
        assert_eq!(read.targets, vec![SiteId(1)]);
        std::thread::sleep(Duration::from_millis(40));
        // Lease lapsed without renewal: the role reverts to the true
        // primary once it is live again.
        let read = rcp.plan_read(&item(), &placement, None, &[]);
        assert_eq!(read.targets, vec![SiteId(0)]);
    }

    #[test]
    fn weighted_qc_respects_vote_weights() {
        let mut copies = std::collections::BTreeMap::new();
        copies.insert(SiteId(0), 3u32);
        copies.insert(SiteId(1), 1u32);
        copies.insert(SiteId(2), 1u32);
        let placement = ItemPlacement::weighted(copies, 3, 3);
        let rcp = QuorumConsensus::new();
        let plan = rcp.plan_write(&item(), &placement, &[]);
        let mut collector = plan.collector();
        // The heavyweight site alone is a write quorum.
        collector.record_response(QuorumResponse {
            site: SiteId(0),
            version: Version(4),
            value: None,
        });
        assert!(collector.is_assembled());
        assert_eq!(collector.next_version(), Version(5));
    }

    #[test]
    fn single_replica_degenerates_to_primary_copy() {
        let placement = ItemPlacement::majority(vec![SiteId(3)]);
        for rcp in RcpKind::ALL.map(make_rcp) {
            let read = rcp.plan_read(&item(), &placement, None, &[]);
            let write = rcp.plan_write(&item(), &placement, &[]);
            assert_eq!(read.targets, vec![SiteId(3)]);
            assert_eq!(write.targets, vec![SiteId(3)]);
            assert_eq!(read.required_votes, 1);
            assert_eq!(write.required_votes, 1);
        }
    }
}
