//! Shared vocabulary of the atomic commitment protocols.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A participant's vote in the voting phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Vote {
    /// The participant can commit (it has force-logged a prepare record).
    Yes,
    /// The participant cannot commit; the transaction must abort.
    No,
    /// The participant wrote nothing and its CCP validated the reads it
    /// served (the read-only optimisation of R*, Mohan, Lindsay &
    /// Obermarck 1986): whatever the decision, nothing it holds can change,
    /// so it has already released everything, logged nothing, and takes no
    /// part in phase 2 — it gets no PRE-COMMIT and no decision and owes no
    /// acknowledgement. For the decision it counts as not-NO.
    ReadOnly,
}

impl Vote {
    /// True for [`Vote::Yes`].
    pub fn is_yes(self) -> bool {
        matches!(self, Vote::Yes)
    }
}

/// The local verdict of a participant that has no read-only case to report:
/// `true` is YES, `false` is NO.
impl From<bool> for Vote {
    fn from(can_commit: bool) -> Self {
        if can_commit {
            Vote::Yes
        } else {
            Vote::No
        }
    }
}

impl fmt::Display for Vote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Vote::Yes => write!(f, "YES"),
            Vote::No => write!(f, "NO"),
            Vote::ReadOnly => write!(f, "READ-ONLY"),
        }
    }
}

/// The coordinator's decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Decision {
    /// Commit everywhere.
    Commit,
    /// Abort everywhere.
    Abort,
}

impl Decision {
    /// True for [`Decision::Commit`].
    pub fn is_commit(self) -> bool {
        matches!(self, Decision::Commit)
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Commit => write!(f, "COMMIT"),
            Decision::Abort => write!(f, "ABORT"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vote_predicates_and_display() {
        assert!(Vote::Yes.is_yes());
        assert!(!Vote::No.is_yes());
        assert!(!Vote::ReadOnly.is_yes());
        assert_eq!(Vote::Yes.to_string(), "YES");
        assert_eq!(Vote::No.to_string(), "NO");
        assert_eq!(Vote::ReadOnly.to_string(), "READ-ONLY");
        assert_eq!(Vote::from(true), Vote::Yes);
        assert_eq!(Vote::from(false), Vote::No);
    }

    #[test]
    fn decision_predicates_and_display() {
        assert!(Decision::Commit.is_commit());
        assert!(!Decision::Abort.is_commit());
        assert_eq!(Decision::Commit.to_string(), "COMMIT");
        assert_eq!(Decision::Abort.to_string(), "ABORT");
    }
}
