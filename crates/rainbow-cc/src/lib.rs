//! # rainbow-cc
//!
//! Concurrency control protocols (CCP) of the Rainbow reproduction.
//!
//! Section 2.1 of the paper: Rainbow supports "Concurrency Control Protocols
//! (CCP) including Two-phase locking (2PL) and Timestamp ordering", and
//! Section 5 suggests multi-version timestamp ordering as a term-project
//! extension. All three are implemented here behind one trait,
//! [`CcProtocol`], so the site runtime (and a student replacing a protocol)
//! can swap them with a single configuration change — mirroring the paper's
//! goal that protocols be replaceable "with minimum system-wide
//! modifications".
//!
//! * [`lock`] — the strict two-phase-locking lock manager: shared/exclusive
//!   locks, upgrades, first-come-first-served wait queues (no call ever
//!   blocks: a queued request is asked again by its caller), and the
//!   deadlock handling policies (wait-for-graph victim selection, wait-die,
//!   wound-wait, timeout-only);
//! * [`two_phase_locking`] — the 2PL [`CcProtocol`] built on the lock
//!   manager;
//! * [`tso`] — basic timestamp ordering;
//! * [`mvto`] — multi-version timestamp ordering;
//! * [`types`] — the protocol trait (two access methods that answer
//!   granted, rejected or *must wait*, a give-up, `validate`, `commit` /
//!   `abort`), grant/decision types and the factory that builds a CCP from a
//!   [`rainbow_common::protocol::CcpKind`].
//!
//! The CCP instance lives *per site* and manages that site's local copies,
//! exactly as in Rainbow where remote copies are "read ... or pre-written
//! ... through CCP" at the copy-holder site. It is a plain value with one
//! owner, the site's event loop: the protocols keep plain maps, take no
//! lock, and change state through `&mut self`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod lock;
pub mod mvto;
#[cfg(test)]
mod non_waiting_tests;
pub mod tso;
pub mod two_phase_locking;
pub mod types;

pub use lock::{Acquired, LockError, LockManager, LockMode};
pub use mvto::MultiversionTimestampOrdering;
pub use tso::TimestampOrdering;
pub use two_phase_locking::TwoPhaseLocking;
pub use types::{make_ccp, CcDecision, CcProtocol, TxnContext};
