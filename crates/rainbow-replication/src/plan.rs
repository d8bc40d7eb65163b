//! Quorum plans and response collection.

use rainbow_common::config::ItemPlacement;
use rainbow_common::txn::AbortCause;
use rainbow_common::{ItemId, SiteId, Value, Version};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Whether a quorum is being built for a read or a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuorumKind {
    /// Read quorum: copies return their current value and version.
    Read,
    /// Write quorum: copies are pre-written and return their current version
    /// number.
    Write,
}

/// The plan for building one quorum: the sites that may be asked, in the
/// order they are asked in, and how many votes must answer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuorumPlan {
    /// The item the quorum is for.
    pub item: ItemId,
    /// Read or write.
    pub kind: QuorumKind,
    /// Sites to contact, in preference order. The collector asks the
    /// shortest prefix whose votes reach `required_votes`; the rest are
    /// spares, asked only when a contacted site fails or is slow (see
    /// [`QuorumCollector::widen`]).
    pub targets: Vec<SiteId>,
    /// Vote weight of each target.
    pub votes: BTreeMap<SiteId, u32>,
    /// Votes required for the quorum to be assembled.
    pub required_votes: u32,
}

impl QuorumPlan {
    /// Total votes obtainable from the planned targets.
    pub fn obtainable_votes(&self) -> u32 {
        self.targets
            .iter()
            .map(|s| self.votes.get(s).copied().unwrap_or(0))
            .sum()
    }

    /// Starts collecting responses for this plan.
    pub fn collector(self) -> QuorumCollector {
        QuorumCollector::new(self)
    }
}

/// A copy-holder's answer to a quorum request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuorumResponse {
    /// The responding site.
    pub site: SiteId,
    /// The copy's current version number.
    pub version: Version,
    /// The copy's current value (read quorums only; `None` for pre-writes).
    pub value: Option<Value>,
}

/// The state of quorum assembly after a response or failure is recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuorumOutcome {
    /// Enough votes have been collected.
    Assembled,
    /// More responses are needed and can still arrive, from the contacted
    /// sites or, once [`QuorumCollector::widen`] asks them, from spares.
    Pending,
    /// Even if every outstanding site and every spare answered, the quorum
    /// could not be reached (too many failures/denials).
    Impossible,
}

/// Tracks responses and failures while a quorum is being assembled.
///
/// The collector contacts a prefix of the plan's targets: at first the
/// shortest one whose votes reach the threshold (Gifford's weighted voting
/// asks just enough copies), and the targets behind it are spares. For a
/// read-one or all-of plan that prefix is every target, so it has none.
#[derive(Debug, Clone)]
pub struct QuorumCollector {
    plan: QuorumPlan,
    responses: BTreeMap<SiteId, QuorumResponse>,
    failed: BTreeSet<SiteId>,
    /// How many of `plan.targets`, from the front, have been contacted.
    contacted: usize,
}

impl QuorumCollector {
    /// Creates a collector for a plan, contacting its initial prefix (see
    /// [`QuorumCollector::contacted`]).
    pub fn new(plan: QuorumPlan) -> Self {
        let mut collector = QuorumCollector {
            plan,
            responses: BTreeMap::new(),
            failed: BTreeSet::new(),
            contacted: 0,
        };
        collector.widen();
        collector
    }

    /// The plan being collected.
    pub fn plan(&self) -> &QuorumPlan {
        &self.plan
    }

    /// Records a positive response from a site. Responses from sites that
    /// are not targets (or duplicate responses) are ignored.
    pub fn record_response(&mut self, response: QuorumResponse) -> QuorumOutcome {
        if self.plan.votes.contains_key(&response.site) && !self.failed.contains(&response.site) {
            self.responses.insert(response.site, response);
        }
        self.outcome()
    }

    /// Records that a site failed, refused, or timed out.
    pub fn record_failure(&mut self, site: SiteId) -> QuorumOutcome {
        if !self.responses.contains_key(&site) {
            self.failed.insert(site);
        }
        self.outcome()
    }

    /// Whether a positive response from `site` has already been recorded.
    pub fn has_response(&self, site: SiteId) -> bool {
        self.responses.contains_key(&site)
    }

    /// The sites contacted so far, in preference order: the requests to
    /// send when the quorum starts.
    pub fn contacted(&self) -> &[SiteId] {
        &self.plan.targets[..self.contacted]
    }

    /// Whether `site` is one of the sites this collector contacted. (The
    /// votes map can cover *all* copy holders — e.g. a ROWA read plan
    /// targets one site — and a spare is a target nobody asked, so response
    /// routing must check this, not votes or targets.)
    pub fn is_contacted(&self, site: SiteId) -> bool {
        self.contacted().contains(&site)
    }

    /// Contacts spares, in preference order, until the votes collected plus
    /// those still awaited from contacted sites can reach the threshold
    /// again — after a failure, say. Returns the sites to send to: none
    /// while the contacted sites can still assemble the quorum, or when no
    /// spare is left (the outcome then reads `Impossible`).
    pub fn widen(&mut self) -> Vec<SiteId> {
        let start = self.contacted;
        let mut reachable = self.collected_votes() + self.awaited_votes(self.contacted());
        while self.contacted < self.plan.targets.len() && reachable < self.plan.required_votes {
            reachable += self.awaited_votes(&self.plan.targets[self.contacted..=self.contacted]);
            self.contacted += 1;
        }
        self.newly_contacted(start)
    }

    /// Contacts every spare left — the hedge against a contacted site that
    /// is slow to answer — and returns the sites to send to.
    pub fn widen_to_all(&mut self) -> Vec<SiteId> {
        let start = self.contacted;
        self.contacted = self.plan.targets.len();
        self.newly_contacted(start)
    }

    /// The targets contacted from index `start` on that have neither
    /// answered nor failed (a spare may have: any holder's answer counts).
    fn newly_contacted(&self, start: usize) -> Vec<SiteId> {
        let sites = self.plan.targets[start..self.contacted].iter();
        sites.filter(|s| self.is_awaited(s)).copied().collect()
    }

    /// Whether `site` has neither responded nor failed.
    fn is_awaited(&self, site: &SiteId) -> bool {
        !self.responses.contains_key(site) && !self.failed.contains(site)
    }

    /// The votes of those of `sites` that have neither responded nor failed.
    fn awaited_votes(&self, sites: &[SiteId]) -> u32 {
        let awaited = sites.iter().filter(|s| self.is_awaited(s));
        awaited
            .map(|s| self.plan.votes.get(s).copied().unwrap_or(0))
            .sum()
    }

    /// Whether `site` has already been recorded as failed.
    pub fn has_failure(&self, site: SiteId) -> bool {
        self.failed.contains(&site)
    }

    /// Votes collected so far.
    pub fn collected_votes(&self) -> u32 {
        self.responses
            .keys()
            .map(|s| self.plan.votes.get(s).copied().unwrap_or(0))
            .sum()
    }

    /// Votes that could still arrive from targets — contacted or spare —
    /// that have neither responded nor failed.
    pub fn outstanding_votes(&self) -> u32 {
        self.awaited_votes(&self.plan.targets)
    }

    /// Current assembly state.
    pub fn outcome(&self) -> QuorumOutcome {
        let collected = self.collected_votes();
        if collected >= self.plan.required_votes {
            QuorumOutcome::Assembled
        } else if collected + self.outstanding_votes() < self.plan.required_votes {
            QuorumOutcome::Impossible
        } else {
            QuorumOutcome::Pending
        }
    }

    /// True when assembled.
    pub fn is_assembled(&self) -> bool {
        self.outcome() == QuorumOutcome::Assembled
    }

    /// Sites that answered positively so far.
    pub fn responders(&self) -> Vec<SiteId> {
        self.responses.keys().copied().collect()
    }

    /// The read result: value and version of the highest-versioned copy in
    /// the quorum. `None` when no response carried a value.
    pub fn latest_value(&self) -> Option<(Value, Version)> {
        self.responses
            .values()
            .filter(|r| r.value.is_some())
            .max_by_key(|r| r.version)
            .map(|r| (r.value.clone().expect("filtered on is_some"), r.version))
    }

    /// The highest version number observed in the quorum (0 when empty).
    pub fn max_version(&self) -> Version {
        self.responses
            .values()
            .map(|r| r.version)
            .max()
            .unwrap_or(Version::INITIAL)
    }

    /// The version a write assembled on this quorum must install:
    /// `max observed + 1`.
    pub fn next_version(&self) -> Version {
        self.max_version().next()
    }

    /// The abort cause to report when the quorum is impossible or timed out.
    pub fn abort_cause(&self) -> AbortCause {
        AbortCause::RcpQuorumUnavailable {
            item: self.plan.item.clone(),
            collected: self.collected_votes(),
            required: self.plan.required_votes,
        }
    }
}

/// Builds the vote map of a placement (helper shared by the planners).
pub(crate) fn votes_of(placement: &ItemPlacement) -> BTreeMap<SiteId, u32> {
    placement.copies.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(kind: QuorumKind, sites: &[(u32, u32)], required: u32) -> QuorumPlan {
        QuorumPlan {
            item: ItemId::new("x"),
            kind,
            targets: sites.iter().map(|(s, _)| SiteId(*s)).collect(),
            votes: sites.iter().map(|(s, v)| (SiteId(*s), *v)).collect(),
            required_votes: required,
        }
    }

    fn response(site: u32, version: u64, value: Option<i64>) -> QuorumResponse {
        QuorumResponse {
            site: SiteId(site),
            version: Version(version),
            value: value.map(Value::Int),
        }
    }

    #[test]
    fn quorum_assembles_when_votes_reach_threshold() {
        let mut collector = plan(QuorumKind::Read, &[(0, 1), (1, 1), (2, 1)], 2).collector();
        assert_eq!(collector.outcome(), QuorumOutcome::Pending);
        assert_eq!(
            collector.record_response(response(0, 1, Some(10))),
            QuorumOutcome::Pending
        );
        assert_eq!(
            collector.record_response(response(1, 2, Some(20))),
            QuorumOutcome::Assembled
        );
        assert!(collector.is_assembled());
        assert_eq!(collector.collected_votes(), 2);
        assert_eq!(collector.responders(), vec![SiteId(0), SiteId(1)]);
    }

    #[test]
    fn quorum_becomes_impossible_when_too_many_sites_fail() {
        let mut collector = plan(QuorumKind::Write, &[(0, 1), (1, 1), (2, 1)], 2).collector();
        assert_eq!(collector.record_failure(SiteId(0)), QuorumOutcome::Pending);
        assert_eq!(
            collector.record_failure(SiteId(1)),
            QuorumOutcome::Impossible
        );
        assert!(!collector.is_assembled());
        let cause = collector.abort_cause();
        assert!(matches!(
            cause,
            AbortCause::RcpQuorumUnavailable {
                collected: 0,
                required: 2,
                ..
            }
        ));
    }

    #[test]
    fn duplicate_and_unknown_responses_are_ignored() {
        let mut collector = plan(QuorumKind::Read, &[(0, 1), (1, 1)], 2).collector();
        collector.record_response(response(0, 1, Some(1)));
        collector.record_response(response(0, 1, Some(1))); // duplicate
        collector.record_response(response(9, 5, Some(9))); // not a target
        assert_eq!(collector.collected_votes(), 1);
        assert_eq!(collector.outcome(), QuorumOutcome::Pending);
    }

    #[test]
    fn failure_after_response_does_not_unassemble() {
        let mut collector = plan(QuorumKind::Read, &[(0, 1), (1, 1)], 1).collector();
        collector.record_response(response(0, 1, Some(1)));
        assert!(collector.is_assembled());
        collector.record_failure(SiteId(0));
        assert!(
            collector.is_assembled(),
            "a received response keeps counting"
        );
    }

    #[test]
    fn latest_value_picks_highest_version() {
        let mut collector = plan(QuorumKind::Read, &[(0, 1), (1, 1), (2, 1)], 3).collector();
        collector.record_response(response(0, 3, Some(30)));
        collector.record_response(response(1, 5, Some(50)));
        collector.record_response(response(2, 4, Some(40)));
        assert_eq!(collector.latest_value(), Some((Value::Int(50), Version(5))));
        assert_eq!(collector.max_version(), Version(5));
        assert_eq!(collector.next_version(), Version(6));
    }

    #[test]
    fn prewrite_responses_have_no_value_but_versions_count() {
        let mut collector = plan(QuorumKind::Write, &[(0, 1), (1, 1)], 2).collector();
        collector.record_response(response(0, 7, None));
        collector.record_response(response(1, 9, None));
        assert!(collector.is_assembled());
        assert_eq!(collector.latest_value(), None);
        assert_eq!(collector.next_version(), Version(10));
    }

    #[test]
    fn weighted_votes_are_summed() {
        let mut collector = plan(QuorumKind::Write, &[(0, 3), (1, 1), (2, 1)], 3).collector();
        assert_eq!(
            collector.record_response(response(0, 1, None)),
            QuorumOutcome::Assembled
        );
        assert_eq!(collector.collected_votes(), 3);

        let mut collector = plan(QuorumKind::Write, &[(0, 3), (1, 1), (2, 1)], 3).collector();
        collector.record_response(response(1, 1, None));
        collector.record_response(response(2, 1, None));
        assert_eq!(collector.outcome(), QuorumOutcome::Pending);
        collector.record_failure(SiteId(0));
        assert_eq!(collector.outcome(), QuorumOutcome::Impossible);
    }

    #[test]
    fn empty_collector_with_zero_required_is_assembled() {
        let collector = plan(QuorumKind::Read, &[], 0).collector();
        assert!(collector.is_assembled());
        assert_eq!(collector.max_version(), Version(0));
        assert_eq!(collector.next_version(), Version(1));
    }

    #[test]
    fn the_shortest_prefix_reaching_the_threshold_is_contacted_and_the_rest_are_spares() {
        let collector = plan(QuorumKind::Read, &[(0, 1), (1, 1), (2, 1)], 2).collector();
        assert_eq!(collector.contacted(), [SiteId(0), SiteId(1)]);
        assert!(collector.is_contacted(SiteId(1)));
        assert!(!collector.is_contacted(SiteId(2)), "site 2 is a spare");

        let heavy_first = plan(QuorumKind::Write, &[(0, 3), (1, 1), (2, 1)], 3).collector();
        assert_eq!(heavy_first.contacted(), [SiteId(0)]);

        // Every target is required: nothing is spare.
        let all_of = plan(QuorumKind::Write, &[(0, 1), (1, 1), (2, 1)], 3).collector();
        assert_eq!(all_of.contacted(), [SiteId(0), SiteId(1), SiteId(2)]);
    }

    #[test]
    fn a_failure_with_a_spare_left_is_pending_and_widens_to_the_spare() {
        let mut collector = plan(QuorumKind::Read, &[(0, 1), (1, 1), (2, 1)], 2).collector();
        assert_eq!(collector.widen(), vec![], "nothing failed, nothing to add");
        collector.record_response(response(0, 1, Some(1)));
        assert_eq!(collector.record_failure(SiteId(1)), QuorumOutcome::Pending);
        assert_eq!(collector.widen(), vec![SiteId(2)]);
        assert!(collector.is_contacted(SiteId(2)));
        assert_eq!(collector.widen(), vec![], "widened once");
        assert_eq!(
            collector.record_response(response(2, 2, Some(2))),
            QuorumOutcome::Assembled
        );
        assert_eq!(collector.latest_value(), Some((Value::Int(2), Version(2))));
    }

    #[test]
    fn a_failure_with_no_spare_left_is_impossible() {
        let mut collector = plan(QuorumKind::Read, &[(0, 1), (1, 1), (2, 1)], 2).collector();
        collector.record_failure(SiteId(1));
        assert_eq!(collector.widen(), vec![SiteId(2)]);
        assert_eq!(
            collector.record_failure(SiteId(2)),
            QuorumOutcome::Impossible
        );
        assert_eq!(collector.widen(), vec![], "no spare is left");

        // An all-of plan has no spare to begin with.
        let mut collector = plan(QuorumKind::Write, &[(0, 1), (1, 1)], 2).collector();
        assert_eq!(
            collector.record_failure(SiteId(0)),
            QuorumOutcome::Impossible
        );
        assert_eq!(collector.widen(), vec![]);
    }

    #[test]
    fn widening_skips_spares_that_already_failed_and_the_hedge_takes_the_rest() {
        let sites = [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)];
        let mut collector = plan(QuorumKind::Write, &sites, 3).collector();
        assert_eq!(collector.contacted().len(), 3);
        collector.record_failure(SiteId(3));
        collector.record_failure(SiteId(1));
        assert_eq!(collector.widen(), vec![SiteId(4)], "site 3 already failed");
        assert_eq!(collector.widen_to_all(), vec![]);

        let mut collector = plan(QuorumKind::Write, &sites, 3).collector();
        assert_eq!(collector.widen_to_all(), vec![SiteId(3), SiteId(4)]);
        assert_eq!(collector.widen_to_all(), vec![], "the hedge fires once");
    }

    #[test]
    fn obtainable_votes_matches_targets() {
        let p = plan(QuorumKind::Read, &[(0, 2), (1, 1)], 2);
        assert_eq!(p.obtainable_votes(), 3);
    }
}
