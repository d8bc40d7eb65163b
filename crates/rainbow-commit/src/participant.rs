//! The commit participant state machine (copy-holder side).
//!
//! A participant votes once, on PREPARE (CAN-COMMIT under 3PC), with the
//! verdict its site reached:
//!
//! * **YES** — the CCP validated the transaction's accesses here and the
//!   prepare record holding its writes was forced; the participant then
//!   waits, blocked under 2PC, for the decision;
//! * **NO** — validation failed; the participant aborts at once;
//! * **READ-ONLY** — the transaction wrote nothing here and validation
//!   passed. Nothing the participant holds can change whatever the
//!   decision, so it releases at once, logs nothing and leaves the protocol:
//!   no PRE-COMMIT, no decision, no acknowledgement. Validation is not
//!   skipped for it: under 2PL it is what notices read locks a crash wiped
//!   between the read and the prepare, and vouching for such reads lets
//!   them form the cyclic history the chaos lab convicts.
//!
//! A READ-ONLY participant reports itself [`ParticipantState::Prepared`]:
//! it has voted and does not know the outcome, which is exactly what the
//! cooperative termination rules ([`crate::resolve_by_peers`]) may learn
//! from it. It must never look `Committed` (a blocked peer would commit a
//! transaction its coordinator aborted), `Aborted` or `Working` (a blocked
//! peer would abort one its coordinator committed). Unlike a YES voter it
//! is never blocked, and timeouts, PRE-COMMITs and decisions are nothing to
//! it.

use crate::types::{Decision, Vote};
use rainbow_common::protocol::AcpKind;
use rainbow_common::{SiteId, TxnId};

/// Phase of a participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParticipantState {
    /// Still executing operations; no prepare request seen yet.
    Working,
    /// Voted YES and is waiting for the decision (the 2PC *uncertainty
    /// window*: the participant is blocked while in this state).
    Prepared,
    /// 3PC only: received PRE-COMMIT; the decision is guaranteed to be
    /// commit.
    PreCommitted,
    /// Decision commit applied.
    Committed,
    /// Decision abort applied (or voted NO).
    Aborted,
}

/// What the caller must do after feeding an event to the participant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParticipantAction {
    /// Send this vote back to the coordinator. A YES vote must only be sent
    /// after the caller has force-logged a prepare record.
    SendVote(Vote),
    /// 3PC: acknowledge the PRE-COMMIT.
    SendPreCommitAck,
    /// Apply the decision locally (install or discard staged writes, release
    /// CCP resources) and acknowledge it to the coordinator.
    ApplyAndAck(Decision),
    /// The participant is blocked waiting for the decision (2PC uncertainty
    /// window after a timeout): it must run the termination protocol.
    RunTermination,
    /// Nothing to do.
    Wait,
}

/// The participant state machine for one transaction at one site.
#[derive(Debug)]
pub struct Participant {
    txn: TxnId,
    coordinator: SiteId,
    protocol: AcpKind,
    state: ParticipantState,
    /// Voted READ-ONLY: out of the protocol since its vote.
    read_only: bool,
}

impl Participant {
    /// Creates a participant for `txn` whose coordinator lives at
    /// `coordinator`.
    pub fn new(txn: TxnId, coordinator: SiteId, protocol: AcpKind) -> Self {
        Participant {
            txn,
            coordinator,
            protocol,
            state: ParticipantState::Working,
            read_only: false,
        }
    }

    /// The transaction.
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// The coordinator's site.
    pub fn coordinator(&self) -> SiteId {
        self.coordinator
    }

    /// Current phase.
    pub fn state(&self) -> ParticipantState {
        self.state
    }

    /// True while the participant is in the 2PC uncertainty window (a
    /// READ-ONLY voter never is).
    pub fn is_blocked(&self) -> bool {
        self.state == ParticipantState::Prepared && !self.read_only
    }

    /// Handles the PREPARE / CAN-COMMIT request. `vote` is the local
    /// verdict (see the module documentation); a `bool` converts, `true`
    /// being YES.
    pub fn on_prepare(&mut self, vote: impl Into<Vote>) -> ParticipantAction {
        if self.read_only {
            return ParticipantAction::SendVote(Vote::ReadOnly);
        }
        if self.state != ParticipantState::Working {
            // Duplicate prepare: re-send the vote implied by our state.
            return match self.state {
                ParticipantState::Prepared | ParticipantState::PreCommitted => {
                    ParticipantAction::SendVote(Vote::Yes)
                }
                ParticipantState::Aborted => ParticipantAction::SendVote(Vote::No),
                _ => ParticipantAction::Wait,
            };
        }
        let vote = vote.into();
        self.read_only = vote == Vote::ReadOnly;
        self.state = match vote {
            Vote::Yes | Vote::ReadOnly => ParticipantState::Prepared,
            Vote::No => ParticipantState::Aborted,
        };
        ParticipantAction::SendVote(vote)
    }

    /// Handles the 3PC PRE-COMMIT message.
    pub fn on_precommit(&mut self) -> ParticipantAction {
        if self.read_only {
            return ParticipantAction::Wait;
        }
        match (self.protocol, self.state) {
            (AcpKind::ThreePhaseCommit, ParticipantState::Prepared) => {
                self.state = ParticipantState::PreCommitted;
                ParticipantAction::SendPreCommitAck
            }
            // Duplicate pre-commit.
            (AcpKind::ThreePhaseCommit, ParticipantState::PreCommitted) => {
                ParticipantAction::SendPreCommitAck
            }
            _ => ParticipantAction::Wait,
        }
    }

    /// Handles the coordinator's decision.
    pub fn on_decision(&mut self, decision: Decision) -> ParticipantAction {
        if self.read_only {
            return ParticipantAction::Wait;
        }
        match self.state {
            ParticipantState::Working
            | ParticipantState::Prepared
            | ParticipantState::PreCommitted => {
                self.state = match decision {
                    Decision::Commit => ParticipantState::Committed,
                    Decision::Abort => ParticipantState::Aborted,
                };
                ParticipantAction::ApplyAndAck(decision)
            }
            // Already decided: re-ack idempotently (the coordinator may have
            // retransmitted because our ack was lost).
            ParticipantState::Committed => ParticipantAction::ApplyAndAck(Decision::Commit),
            ParticipantState::Aborted => ParticipantAction::ApplyAndAck(Decision::Abort),
        }
    }

    /// The participant timed out waiting for the coordinator.
    ///
    /// * Working: no prepare ever arrived — unilateral abort is safe;
    /// * Prepared under 2PC: **blocked**; the caller must run the
    ///   termination protocol (ask peers / wait for the coordinator);
    /// * Prepared under 3PC: abort (no pre-commit was received, so no
    ///   operational participant can have committed);
    /// * PreCommitted under 3PC: commit (every operational participant is
    ///   pre-committed, the decision can only be commit);
    /// * already decided, or voted READ-ONLY: nothing.
    pub fn on_timeout(&mut self) -> ParticipantAction {
        if self.read_only {
            return ParticipantAction::Wait;
        }
        match (self.protocol, self.state) {
            (_, ParticipantState::Working) => {
                self.state = ParticipantState::Aborted;
                ParticipantAction::ApplyAndAck(Decision::Abort)
            }
            (AcpKind::TwoPhaseCommit, ParticipantState::Prepared) => {
                ParticipantAction::RunTermination
            }
            (AcpKind::ThreePhaseCommit, ParticipantState::Prepared) => {
                self.state = ParticipantState::Aborted;
                ParticipantAction::ApplyAndAck(Decision::Abort)
            }
            (AcpKind::ThreePhaseCommit, ParticipantState::PreCommitted) => {
                self.state = ParticipantState::Committed;
                ParticipantAction::ApplyAndAck(Decision::Commit)
            }
            _ => ParticipantAction::Wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbow_common::SiteId;

    fn participant(protocol: AcpKind) -> Participant {
        Participant::new(TxnId::new(SiteId(1), 7), SiteId(0), protocol)
    }

    #[test]
    fn two_pc_commit_path() {
        let mut p = participant(AcpKind::TwoPhaseCommit);
        assert_eq!(p.state(), ParticipantState::Working);
        assert_eq!(p.on_prepare(true), ParticipantAction::SendVote(Vote::Yes));
        assert_eq!(p.state(), ParticipantState::Prepared);
        assert!(p.is_blocked());
        assert_eq!(
            p.on_decision(Decision::Commit),
            ParticipantAction::ApplyAndAck(Decision::Commit)
        );
        assert_eq!(p.state(), ParticipantState::Committed);
        assert!(!p.is_blocked());
    }

    #[test]
    fn vote_no_goes_straight_to_aborted() {
        let mut p = participant(AcpKind::TwoPhaseCommit);
        assert_eq!(p.on_prepare(false), ParticipantAction::SendVote(Vote::No));
        assert_eq!(p.state(), ParticipantState::Aborted);
        // The abort decision later is idempotent.
        assert_eq!(
            p.on_decision(Decision::Abort),
            ParticipantAction::ApplyAndAck(Decision::Abort)
        );
    }

    #[test]
    fn duplicate_prepare_resends_the_same_vote() {
        let mut p = participant(AcpKind::TwoPhaseCommit);
        p.on_prepare(true);
        assert_eq!(p.on_prepare(true), ParticipantAction::SendVote(Vote::Yes));
        let mut p = participant(AcpKind::TwoPhaseCommit);
        p.on_prepare(false);
        assert_eq!(p.on_prepare(true), ParticipantAction::SendVote(Vote::No));
    }

    #[test]
    fn a_read_only_voter_leaves_the_protocol_knowing_nothing() {
        for protocol in [AcpKind::TwoPhaseCommit, AcpKind::ThreePhaseCommit] {
            let mut p = participant(protocol);
            assert_eq!(
                p.on_prepare(Vote::ReadOnly),
                ParticipantAction::SendVote(Vote::ReadOnly)
            );
            // Voted, outcome unknown: what a peer asking may learn from it.
            assert_eq!(p.state(), ParticipantState::Prepared);
            assert!(!p.is_blocked());
            // A duplicate prepare re-sends the same vote.
            assert_eq!(
                p.on_prepare(true),
                ParticipantAction::SendVote(Vote::ReadOnly)
            );
            // Nothing that follows the vote concerns it.
            assert_eq!(p.on_precommit(), ParticipantAction::Wait);
            assert_eq!(p.on_timeout(), ParticipantAction::Wait);
            assert_eq!(p.on_decision(Decision::Abort), ParticipantAction::Wait);
            assert_eq!(p.state(), ParticipantState::Prepared);
        }
    }

    #[test]
    fn duplicate_decision_reacks_idempotently() {
        let mut p = participant(AcpKind::TwoPhaseCommit);
        p.on_prepare(true);
        p.on_decision(Decision::Commit);
        assert_eq!(
            p.on_decision(Decision::Commit),
            ParticipantAction::ApplyAndAck(Decision::Commit)
        );
        assert_eq!(p.state(), ParticipantState::Committed);
    }

    #[test]
    fn working_timeout_is_a_unilateral_abort() {
        let mut p = participant(AcpKind::TwoPhaseCommit);
        assert_eq!(
            p.on_timeout(),
            ParticipantAction::ApplyAndAck(Decision::Abort)
        );
        assert_eq!(p.state(), ParticipantState::Aborted);
    }

    #[test]
    fn two_pc_prepared_timeout_blocks() {
        let mut p = participant(AcpKind::TwoPhaseCommit);
        p.on_prepare(true);
        assert_eq!(p.on_timeout(), ParticipantAction::RunTermination);
        // Still prepared, still blocked.
        assert_eq!(p.state(), ParticipantState::Prepared);
        assert!(p.is_blocked());
    }

    #[test]
    fn three_pc_prepared_timeout_aborts() {
        let mut p = participant(AcpKind::ThreePhaseCommit);
        p.on_prepare(true);
        assert_eq!(
            p.on_timeout(),
            ParticipantAction::ApplyAndAck(Decision::Abort)
        );
        assert_eq!(p.state(), ParticipantState::Aborted);
    }

    #[test]
    fn three_pc_precommitted_timeout_commits() {
        let mut p = participant(AcpKind::ThreePhaseCommit);
        p.on_prepare(true);
        assert_eq!(p.on_precommit(), ParticipantAction::SendPreCommitAck);
        assert_eq!(p.state(), ParticipantState::PreCommitted);
        assert_eq!(
            p.on_timeout(),
            ParticipantAction::ApplyAndAck(Decision::Commit)
        );
        assert_eq!(p.state(), ParticipantState::Committed);
    }

    #[test]
    fn precommit_is_ignored_under_two_pc_and_when_not_prepared() {
        let mut p = participant(AcpKind::TwoPhaseCommit);
        p.on_prepare(true);
        assert_eq!(p.on_precommit(), ParticipantAction::Wait);
        let mut p = participant(AcpKind::ThreePhaseCommit);
        assert_eq!(p.on_precommit(), ParticipantAction::Wait);
    }

    #[test]
    fn duplicate_precommit_is_reacked() {
        let mut p = participant(AcpKind::ThreePhaseCommit);
        p.on_prepare(true);
        p.on_precommit();
        assert_eq!(p.on_precommit(), ParticipantAction::SendPreCommitAck);
    }

    #[test]
    fn timeout_after_decision_is_a_no_op() {
        let mut p = participant(AcpKind::TwoPhaseCommit);
        p.on_prepare(true);
        p.on_decision(Decision::Commit);
        assert_eq!(p.on_timeout(), ParticipantAction::Wait);
    }

    #[test]
    fn accessors() {
        let p = participant(AcpKind::TwoPhaseCommit);
        assert_eq!(p.txn(), TxnId::new(SiteId(1), 7));
        assert_eq!(p.coordinator(), SiteId(0));
    }
}
