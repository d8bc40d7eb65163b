//! The commit coordinator state machine (home-site side).
//!
//! The machine is message-agnostic: the caller feeds it votes,
//! acknowledgements and timeouts, and it answers with the
//! [`CoordinatorAction`]s the caller must perform (send messages, force log
//! records, complete the transaction). Running 2PC or 3PC is a constructor
//! parameter; 3PC inserts the pre-commit round between voting and the final
//! decision distribution.
//!
//! A participant that votes READ-ONLY leaves the protocol with its vote: it
//! gets no PRE-COMMIT and no decision and owes no acknowledgement, so every
//! later round runs over the participants that did not (*phase two*). A
//! READ-ONLY vote counts as not-NO: the transaction commits when every
//! vote is in and none is NO. When nobody voted YES, phase two is empty —
//! the decision is commit with no target, and the machine is `Completed`
//! the moment it is made, under 2PC and 3PC alike.

use crate::types::{Decision, Vote};
use rainbow_common::protocol::AcpKind;
use rainbow_common::{SiteId, TxnId};
use std::collections::{BTreeMap, BTreeSet};

/// Phase of the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordinatorState {
    /// Waiting for votes (after sending PREPARE / CAN-COMMIT).
    CollectingVotes,
    /// 3PC only: waiting for PRE-COMMIT acknowledgements.
    CollectingPreCommitAcks,
    /// Decision made and distributed; waiting for final acknowledgements.
    CollectingAcks,
    /// Protocol finished: all acks in (or given up on), or nobody was left
    /// to tell the decision because every participant voted READ-ONLY.
    Completed,
}

/// What the caller must do after feeding an event to the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordinatorAction {
    /// Send a PREPARE (2PC) / CAN-COMMIT (3PC) request to these participants.
    SendPrepare(Vec<SiteId>),
    /// 3PC only: send PRE-COMMIT to these participants.
    SendPreCommit(Vec<SiteId>),
    /// Force the decision to the coordinator log, then send it to these
    /// participants (none when every participant voted READ-ONLY).
    SendDecision(Decision, Vec<SiteId>),
    /// Every acknowledgement has arrived: the transaction is finished at the
    /// coordinator with this decision.
    Complete(Decision),
    /// Nothing to do yet (waiting for more events).
    Wait,
}

/// The coordinator state machine for one transaction.
#[derive(Debug)]
pub struct Coordinator {
    txn: TxnId,
    protocol: AcpKind,
    participants: BTreeSet<SiteId>,
    /// The participants that have not voted READ-ONLY: who gets PRE-COMMIT
    /// and the decision, and owes an acknowledgement.
    phase_two: BTreeSet<SiteId>,
    votes: BTreeMap<SiteId, Vote>,
    precommit_acks: BTreeSet<SiteId>,
    acks: BTreeSet<SiteId>,
    decision: Option<Decision>,
    state: CoordinatorState,
}

impl Coordinator {
    /// Creates a coordinator for `txn` over the given participant set.
    ///
    /// The participant set may include the coordinator's own site; the
    /// caller is expected to deliver its own vote/ack locally like any other
    /// participant (that is how Rainbow counts messages: local calls are
    /// free, remote calls go through the simulator).
    pub fn new(
        txn: TxnId,
        protocol: AcpKind,
        participants: impl IntoIterator<Item = SiteId>,
    ) -> Self {
        let participants: BTreeSet<SiteId> = participants.into_iter().collect();
        Coordinator {
            txn,
            protocol,
            phase_two: participants.clone(),
            participants,
            votes: BTreeMap::new(),
            precommit_acks: BTreeSet::new(),
            acks: BTreeSet::new(),
            decision: None,
            state: CoordinatorState::CollectingVotes,
        }
    }

    /// The transaction this coordinator handles.
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// The protocol being run.
    pub fn protocol(&self) -> AcpKind {
        self.protocol
    }

    /// Current phase.
    pub fn state(&self) -> CoordinatorState {
        self.state
    }

    /// The decision, once made.
    pub fn decision(&self) -> Option<Decision> {
        self.decision
    }

    /// The participant set.
    pub fn participants(&self) -> Vec<SiteId> {
        self.participants.iter().copied().collect()
    }

    /// Starts the protocol: returns the initial PREPARE broadcast. An empty
    /// participant set (a purely local, read-only transaction) commits
    /// immediately.
    pub fn start(&mut self) -> CoordinatorAction {
        if self.participants.is_empty() {
            self.decision = Some(Decision::Commit);
            self.state = CoordinatorState::Completed;
            return CoordinatorAction::Complete(Decision::Commit);
        }
        CoordinatorAction::SendPrepare(self.participants())
    }

    /// Records a vote. When the last vote arrives the machine moves to the
    /// decision (2PC, or nobody voted YES) or the pre-commit round (3PC).
    pub fn on_vote(&mut self, from: SiteId, vote: Vote) -> CoordinatorAction {
        if self.state != CoordinatorState::CollectingVotes || !self.participants.contains(&from) {
            return CoordinatorAction::Wait;
        }
        self.votes.insert(from, vote);
        if vote == Vote::ReadOnly {
            self.phase_two.remove(&from);
        }

        // A single NO decides abort immediately — no need to wait for the
        // remaining votes.
        if vote == Vote::No {
            return self.decide(Decision::Abort);
        }
        if self.votes.len() < self.participants.len() {
            return CoordinatorAction::Wait;
        }
        // Every vote is in and none is NO.
        if self.phase_two.is_empty() || self.protocol == AcpKind::TwoPhaseCommit {
            return self.decide(Decision::Commit);
        }
        self.state = CoordinatorState::CollectingPreCommitAcks;
        CoordinatorAction::SendPreCommit(self.phase_two.iter().copied().collect())
    }

    /// Records a 3PC pre-commit acknowledgement; when all are in, the final
    /// COMMIT is distributed.
    pub fn on_precommit_ack(&mut self, from: SiteId) -> CoordinatorAction {
        if self.state != CoordinatorState::CollectingPreCommitAcks
            || !self.phase_two.contains(&from)
        {
            return CoordinatorAction::Wait;
        }
        self.precommit_acks.insert(from);
        if self.precommit_acks.len() == self.phase_two.len() {
            return self.decide(Decision::Commit);
        }
        CoordinatorAction::Wait
    }

    /// Records a final acknowledgement of the decision.
    pub fn on_ack(&mut self, from: SiteId) -> CoordinatorAction {
        if self.state != CoordinatorState::CollectingAcks || !self.phase_two.contains(&from) {
            return CoordinatorAction::Wait;
        }
        self.acks.insert(from);
        if self.acks.len() == self.phase_two.len() {
            self.state = CoordinatorState::Completed;
            return CoordinatorAction::Complete(
                self.decision
                    .expect("decision must exist in CollectingAcks"),
            );
        }
        CoordinatorAction::Wait
    }

    /// The coordinator timed out waiting for the current phase.
    ///
    /// * waiting for votes — decide abort (a missing vote is a NO);
    /// * waiting for 3PC pre-commit acks — the protocol still commits (the
    ///   cohort is all prepared-to-commit); unreachable participants will
    ///   learn the decision from the termination protocol;
    /// * waiting for final acks — give up waiting and complete; participants
    ///   that missed the decision resolve it on recovery.
    pub fn on_timeout(&mut self) -> CoordinatorAction {
        match self.state {
            CoordinatorState::CollectingVotes => self.decide(Decision::Abort),
            CoordinatorState::CollectingPreCommitAcks => self.decide(Decision::Commit),
            CoordinatorState::CollectingAcks => {
                self.state = CoordinatorState::Completed;
                CoordinatorAction::Complete(
                    self.decision
                        .expect("decision must exist in CollectingAcks"),
                )
            }
            CoordinatorState::Completed => CoordinatorAction::Wait,
        }
    }

    /// Votes received so far (for the progress monitor).
    pub fn votes_received(&self) -> usize {
        self.votes.len()
    }

    /// Acks received so far.
    pub fn acks_received(&self) -> usize {
        self.acks.len()
    }

    fn decide(&mut self, decision: Decision) -> CoordinatorAction {
        self.decision = Some(decision);
        let targets: Vec<SiteId> = self.phase_two.iter().copied().collect();
        // Nobody left to tell: a transaction that only read is over here.
        self.state = if targets.is_empty() {
            CoordinatorState::Completed
        } else {
            CoordinatorState::CollectingAcks
        };
        CoordinatorAction::SendDecision(decision, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbow_common::SiteId;

    fn txn() -> TxnId {
        TxnId::new(SiteId(0), 1)
    }

    fn sites(n: u32) -> Vec<SiteId> {
        (0..n).map(SiteId).collect()
    }

    #[test]
    fn two_pc_happy_path() {
        let mut c = Coordinator::new(txn(), AcpKind::TwoPhaseCommit, sites(3));
        assert_eq!(c.start(), CoordinatorAction::SendPrepare(sites(3)));
        assert_eq!(c.state(), CoordinatorState::CollectingVotes);

        assert_eq!(c.on_vote(SiteId(0), Vote::Yes), CoordinatorAction::Wait);
        assert_eq!(c.on_vote(SiteId(1), Vote::Yes), CoordinatorAction::Wait);
        assert_eq!(
            c.on_vote(SiteId(2), Vote::Yes),
            CoordinatorAction::SendDecision(Decision::Commit, sites(3))
        );
        assert_eq!(c.decision(), Some(Decision::Commit));
        assert_eq!(c.state(), CoordinatorState::CollectingAcks);

        assert_eq!(c.on_ack(SiteId(0)), CoordinatorAction::Wait);
        assert_eq!(c.on_ack(SiteId(1)), CoordinatorAction::Wait);
        assert_eq!(
            c.on_ack(SiteId(2)),
            CoordinatorAction::Complete(Decision::Commit)
        );
        assert_eq!(c.state(), CoordinatorState::Completed);
        assert_eq!(c.votes_received(), 3);
        assert_eq!(c.acks_received(), 3);
    }

    #[test]
    fn a_single_no_vote_aborts_immediately() {
        let mut c = Coordinator::new(txn(), AcpKind::TwoPhaseCommit, sites(3));
        c.start();
        assert_eq!(c.on_vote(SiteId(0), Vote::Yes), CoordinatorAction::Wait);
        assert_eq!(
            c.on_vote(SiteId(1), Vote::No),
            CoordinatorAction::SendDecision(Decision::Abort, sites(3))
        );
        assert_eq!(c.decision(), Some(Decision::Abort));
        // A late vote is ignored.
        assert_eq!(c.on_vote(SiteId(2), Vote::Yes), CoordinatorAction::Wait);
        assert_eq!(c.decision(), Some(Decision::Abort));
    }

    #[test]
    fn vote_timeout_aborts() {
        let mut c = Coordinator::new(txn(), AcpKind::TwoPhaseCommit, sites(2));
        c.start();
        c.on_vote(SiteId(0), Vote::Yes);
        assert_eq!(
            c.on_timeout(),
            CoordinatorAction::SendDecision(Decision::Abort, sites(2))
        );
        assert_eq!(c.decision(), Some(Decision::Abort));
    }

    #[test]
    fn ack_timeout_completes_with_existing_decision() {
        let mut c = Coordinator::new(txn(), AcpKind::TwoPhaseCommit, sites(2));
        c.start();
        c.on_vote(SiteId(0), Vote::Yes);
        c.on_vote(SiteId(1), Vote::Yes);
        c.on_ack(SiteId(0));
        assert_eq!(
            c.on_timeout(),
            CoordinatorAction::Complete(Decision::Commit)
        );
        assert_eq!(c.state(), CoordinatorState::Completed);
        // Further events are ignored.
        assert_eq!(c.on_timeout(), CoordinatorAction::Wait);
        assert_eq!(c.on_ack(SiteId(1)), CoordinatorAction::Wait);
    }

    #[test]
    fn empty_participant_set_commits_immediately() {
        let mut c = Coordinator::new(txn(), AcpKind::TwoPhaseCommit, Vec::<SiteId>::new());
        assert_eq!(c.start(), CoordinatorAction::Complete(Decision::Commit));
        assert_eq!(c.state(), CoordinatorState::Completed);
    }

    #[test]
    fn three_pc_inserts_precommit_round() {
        let mut c = Coordinator::new(txn(), AcpKind::ThreePhaseCommit, sites(2));
        assert_eq!(c.start(), CoordinatorAction::SendPrepare(sites(2)));
        c.on_vote(SiteId(0), Vote::Yes);
        assert_eq!(
            c.on_vote(SiteId(1), Vote::Yes),
            CoordinatorAction::SendPreCommit(sites(2))
        );
        assert_eq!(c.state(), CoordinatorState::CollectingPreCommitAcks);
        assert_eq!(
            c.decision(),
            None,
            "3PC must not decide before pre-commit acks"
        );

        assert_eq!(c.on_precommit_ack(SiteId(0)), CoordinatorAction::Wait);
        assert_eq!(
            c.on_precommit_ack(SiteId(1)),
            CoordinatorAction::SendDecision(Decision::Commit, sites(2))
        );
        assert_eq!(c.on_ack(SiteId(0)), CoordinatorAction::Wait);
        assert_eq!(
            c.on_ack(SiteId(1)),
            CoordinatorAction::Complete(Decision::Commit)
        );
    }

    #[test]
    fn three_pc_no_vote_skips_precommit_and_aborts() {
        let mut c = Coordinator::new(txn(), AcpKind::ThreePhaseCommit, sites(2));
        c.start();
        assert_eq!(
            c.on_vote(SiteId(0), Vote::No),
            CoordinatorAction::SendDecision(Decision::Abort, sites(2))
        );
        assert_eq!(c.decision(), Some(Decision::Abort));
    }

    #[test]
    fn three_pc_precommit_timeout_still_commits() {
        let mut c = Coordinator::new(txn(), AcpKind::ThreePhaseCommit, sites(3));
        c.start();
        for s in sites(3) {
            c.on_vote(s, Vote::Yes);
        }
        c.on_precommit_ack(SiteId(0));
        assert_eq!(
            c.on_timeout(),
            CoordinatorAction::SendDecision(Decision::Commit, sites(3))
        );
    }

    #[test]
    fn votes_from_unknown_sites_are_ignored() {
        let mut c = Coordinator::new(txn(), AcpKind::TwoPhaseCommit, sites(2));
        c.start();
        assert_eq!(c.on_vote(SiteId(9), Vote::No), CoordinatorAction::Wait);
        assert_eq!(c.decision(), None);
        assert_eq!(c.on_ack(SiteId(9)), CoordinatorAction::Wait);
    }

    #[test]
    fn all_read_only_commits_with_nobody_to_tell_and_completes_at_once() {
        for protocol in [AcpKind::TwoPhaseCommit, AcpKind::ThreePhaseCommit] {
            let mut c = Coordinator::new(txn(), protocol, sites(3));
            c.start();
            assert_eq!(
                c.on_vote(SiteId(0), Vote::ReadOnly),
                CoordinatorAction::Wait
            );
            assert_eq!(
                c.on_vote(SiteId(1), Vote::ReadOnly),
                CoordinatorAction::Wait
            );
            assert_eq!(
                c.on_vote(SiteId(2), Vote::ReadOnly),
                CoordinatorAction::SendDecision(Decision::Commit, vec![])
            );
            assert_eq!(c.state(), CoordinatorState::Completed);
            assert_eq!(c.decision(), Some(Decision::Commit));
            // Nothing is owed afterwards.
            assert_eq!(c.on_ack(SiteId(0)), CoordinatorAction::Wait);
            assert_eq!(c.on_timeout(), CoordinatorAction::Wait);
        }
    }

    #[test]
    fn mixed_yes_and_read_only_decides_and_collects_acks_from_yes_voters_only() {
        let mut c = Coordinator::new(txn(), AcpKind::TwoPhaseCommit, sites(3));
        c.start();
        c.on_vote(SiteId(0), Vote::Yes);
        c.on_vote(SiteId(1), Vote::ReadOnly);
        assert_eq!(
            c.on_vote(SiteId(2), Vote::Yes),
            CoordinatorAction::SendDecision(Decision::Commit, vec![SiteId(0), SiteId(2)])
        );
        assert_eq!(c.state(), CoordinatorState::CollectingAcks);
        // The READ-ONLY voter's "ack" counts for nothing.
        assert_eq!(c.on_ack(SiteId(1)), CoordinatorAction::Wait);
        assert_eq!(c.on_ack(SiteId(0)), CoordinatorAction::Wait);
        assert_eq!(
            c.on_ack(SiteId(2)),
            CoordinatorAction::Complete(Decision::Commit)
        );
        assert_eq!(c.acks_received(), 2);
    }

    #[test]
    fn a_no_after_a_read_only_vote_aborts_only_the_rest() {
        let mut c = Coordinator::new(txn(), AcpKind::TwoPhaseCommit, sites(3));
        c.start();
        c.on_vote(SiteId(0), Vote::ReadOnly);
        assert_eq!(
            c.on_vote(SiteId(1), Vote::No),
            CoordinatorAction::SendDecision(Decision::Abort, vec![SiteId(1), SiteId(2)])
        );
        // The same holds for a vote that never came.
        let mut c = Coordinator::new(txn(), AcpKind::TwoPhaseCommit, sites(3));
        c.start();
        c.on_vote(SiteId(2), Vote::ReadOnly);
        assert_eq!(
            c.on_timeout(),
            CoordinatorAction::SendDecision(Decision::Abort, vec![SiteId(0), SiteId(1)])
        );
    }

    #[test]
    fn three_pc_precommit_skips_read_only_voters() {
        let mut c = Coordinator::new(txn(), AcpKind::ThreePhaseCommit, sites(3));
        c.start();
        c.on_vote(SiteId(0), Vote::Yes);
        c.on_vote(SiteId(1), Vote::ReadOnly);
        let phase_two = vec![SiteId(0), SiteId(2)];
        assert_eq!(
            c.on_vote(SiteId(2), Vote::Yes),
            CoordinatorAction::SendPreCommit(phase_two.clone())
        );
        assert_eq!(c.on_precommit_ack(SiteId(1)), CoordinatorAction::Wait);
        assert_eq!(c.on_precommit_ack(SiteId(0)), CoordinatorAction::Wait);
        assert_eq!(
            c.on_precommit_ack(SiteId(2)),
            CoordinatorAction::SendDecision(Decision::Commit, phase_two)
        );
    }

    #[test]
    fn accessors_report_configuration() {
        let c = Coordinator::new(txn(), AcpKind::ThreePhaseCommit, sites(2));
        assert_eq!(c.txn(), txn());
        assert_eq!(c.protocol(), AcpKind::ThreePhaseCommit);
        assert_eq!(c.participants(), sites(2));
    }
}
