//! The cooperative termination protocol.
//!
//! A 2PC participant that is blocked in its uncertainty window (prepared,
//! coordinator unreachable) may ask the other participants what they know.
//! The classic rules, implemented by [`resolve_by_peers`]:
//!
//! * if any peer has **committed** or **aborted**, adopt that decision;
//! * if any peer has **not voted yet** (still `Working`), the coordinator
//!   cannot have decided commit — abort is safe (and that peer will abort
//!   too);
//! * if every reachable peer is also prepared (or pre-committed without a
//!   decision under 3PC we treat conservatively), nobody knows — the
//!   participant stays **blocked** and must wait for the coordinator to
//!   recover.
//!
//! A peer that voted READ-ONLY reports `Prepared`: it voted, so it is no
//! evidence for abort, and it left the protocol before any decision, so it
//! is no evidence for commit — it knows nothing, and a participant that
//! finds only such peers stays blocked.

use crate::participant::ParticipantState;
use crate::types::Decision;

/// Applies the cooperative termination rules to the states reported by the
/// reachable peers. Returns the decision to adopt, or `None` when the
/// participant remains blocked.
pub fn resolve_by_peers(peer_states: &[ParticipantState]) -> Option<Decision> {
    // Rule 1: somebody already knows the decision.
    if peer_states.contains(&ParticipantState::Committed) {
        return Some(Decision::Commit);
    }
    if peer_states.contains(&ParticipantState::Aborted) {
        return Some(Decision::Abort);
    }
    // Rule 2: somebody has not voted — commit cannot have been decided.
    if peer_states.contains(&ParticipantState::Working) {
        return Some(Decision::Abort);
    }
    // Rule 3: everyone reachable is uncertain too.
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Participant, Vote};
    use rainbow_common::protocol::AcpKind;
    use rainbow_common::{SiteId, TxnId};

    #[test]
    fn committed_peer_propagates_commit() {
        let peers = [ParticipantState::Prepared, ParticipantState::Committed];
        assert_eq!(resolve_by_peers(&peers), Some(Decision::Commit));
    }

    #[test]
    fn aborted_peer_propagates_abort() {
        let peers = [ParticipantState::Prepared, ParticipantState::Aborted];
        assert_eq!(resolve_by_peers(&peers), Some(Decision::Abort));
    }

    #[test]
    fn unvoted_peer_allows_abort() {
        let peers = [ParticipantState::Working, ParticipantState::Prepared];
        assert_eq!(resolve_by_peers(&peers), Some(Decision::Abort));
    }

    #[test]
    fn all_prepared_peers_stay_blocked() {
        let peers = [ParticipantState::Prepared, ParticipantState::Prepared];
        assert_eq!(resolve_by_peers(&peers), None);
    }

    #[test]
    fn a_read_only_peer_and_a_prepared_one_stay_blocked() {
        let mut read_only =
            Participant::new(TxnId::new(SiteId(0), 1), SiteId(0), AcpKind::TwoPhaseCommit);
        read_only.on_prepare(Vote::ReadOnly);
        let peers = [read_only.state(), ParticipantState::Prepared];
        assert_eq!(resolve_by_peers(&peers), None);
    }

    #[test]
    fn no_reachable_peers_stays_blocked() {
        assert_eq!(resolve_by_peers(&[]), None);
    }

    #[test]
    fn precommitted_peers_alone_do_not_unblock_conservatively() {
        // A pre-committed peer guarantees the decision will be commit under
        // 3PC, but our conservative rule set only adopts decisions that were
        // actually applied; blocked is the safe answer for mixed stacks.
        let peers = [ParticipantState::PreCommitted, ParticipantState::Prepared];
        assert_eq!(resolve_by_peers(&peers), None);
    }

    #[test]
    fn committed_beats_working_if_both_present() {
        // (Should not happen in a correct run, but the rule order must pick
        // the applied decision rather than inferring an abort.)
        let peers = [ParticipantState::Working, ParticipantState::Committed];
        assert_eq!(resolve_by_peers(&peers), Some(Decision::Commit));
    }
}
