//! # rainbow-commit
//!
//! Atomic commitment protocols (ACP) of the Rainbow reproduction: Two-Phase
//! Commit (2PC, the Rainbow default) and Three-Phase Commit (3PC, the
//! non-blocking extension the paper suggests as a term project).
//!
//! Section 2.1: "When all operations of a transaction are processed by the
//! RCP, the home site initiates a two-phase commit session, the default ACP
//! in Rainbow. When commitment terminates, the transaction is complete and
//! the thread finishes."
//!
//! The crate contains the *pure* coordinator and participant state machines,
//! decoupled from messaging and storage so they can be tested exhaustively
//! (including the blocking window of 2PC and the timeout transitions of 3PC):
//!
//! * [`types`] — votes (YES, NO, READ-ONLY), decisions and the actions the
//!   state machines emit;
//! * [`coordinator`] — the home-site side: collect votes, decide, distribute
//!   the decision, collect acknowledgements (with the extra pre-commit round
//!   when running 3PC);
//! * [`participant`] — the copy-holder side: vote, wait for the decision,
//!   and apply the 2PC/3PC timeout rules (2PC prepared ⇒ blocked, 3PC
//!   prepared ⇒ abort, 3PC pre-committed ⇒ commit);
//! * [`termination`] — the cooperative termination protocol a recovering or
//!   blocked participant runs against its peers.
//!
//! Both protocols carry the **read-only optimisation** of R* (Mohan,
//! Lindsay & Obermarck, TODS 1986): a participant where the transaction
//! wrote nothing validates its reads, releases them and votes READ-ONLY,
//! and drops out — no log record, no decision, no acknowledgement. The
//! coordinator decides over the rest; a transaction that only read commits
//! at its last vote with nobody to tell. It is how the protocols work, not
//! a switch: nothing a READ-ONLY participant holds can be changed by the
//! outcome, so phase two has nothing to teach there. Validation is what
//! stays: under 2PL it catches the read locks a crash wiped between the
//! read and the prepare.
//!
//! The transaction manager in `rainbow-core` drives these machines over the
//! simulated network and performs the log forces the protocol requires
//! (force-prepare before voting YES, force-commit before acknowledging).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coordinator;
pub mod participant;
pub mod termination;
pub mod types;

pub use coordinator::{Coordinator, CoordinatorAction, CoordinatorState};
pub use participant::{Participant, ParticipantAction, ParticipantState};
pub use termination::resolve_by_peers;
pub use types::{Decision, Vote};
