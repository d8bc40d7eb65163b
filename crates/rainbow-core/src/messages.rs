//! The message set of the Rainbow core.
//!
//! Every interaction between clients, the name server and Rainbow sites is a
//! [`Msg`] travelling through the `rainbow-net` simulator, so the paper's
//! "total number of messages generated per time unit" statistic and the
//! quorum message-traffic experiment count exactly what the protocols
//! exchange.
//!
//! The client conversation is four kinds of message, each with a reason a
//! student can be told: [`Msg::TxnBegin`] carries the first command (the
//! home site cannot start work without one, so opening and commanding are
//! one trip), [`Msg::TxnOp`] carries each later command, [`Msg::TxnOpReply`]
//! answers a command that left the transaction open (the first answer also
//! names the transaction), and [`Msg::TxnDone`] reports the end — for a
//! commit, the moment the decision is recorded and sent, because nothing a
//! participant's acknowledgement says could change it.

use rainbow_commit::{Decision, Vote};
use rainbow_common::config::{DatabaseSchema, DistributionSchema};
use rainbow_common::txn::{AbortCause, TxnResult};
use rainbow_common::{ItemId, Timestamp, TxnId, Value, Version};
use rainbow_net::NetMessage;

/// Result of a copy access at a holder site: either the copy's
/// `(value, version)` (value is `None` for pre-writes) or the abort cause
/// produced by the holder's CCP.
#[derive(Debug, Clone)]
pub enum CopyAccessResult {
    /// Access granted.
    Granted {
        /// The copy's value; `None` for pre-write (version-only) accesses.
        value: Option<Value>,
        /// The copy's current version number.
        version: Version,
    },
    /// Access denied by the holder's concurrency control.
    Denied(AbortCause),
    /// The item is not stored at the contacted site (configuration error or
    /// stale schema).
    NoSuchCopy,
}

/// One step of an interactive transaction conversation, sent by a client
/// handle (`Txn`) to the coordinator driving the transaction at its home
/// site. The coordinator is an op-driven state machine: it learns the
/// transaction one command at a time instead of receiving a pre-declared
/// operation list.
#[derive(Debug, Clone)]
pub enum NextOp {
    /// Run the read quorum for `item` *now* and return the observed value
    /// to the client mid-transaction.
    Read {
        /// The item to read.
        item: ItemId,
    },
    /// Run the read quorums of several items as one batch (all fanned out
    /// at once, under one deadline) and return every observed value. The multi-get of the
    /// interactive API; also how the spec adapter replays consecutive
    /// reads without giving up the fan-out optimization.
    ReadMany {
        /// The items to read, in reply order.
        items: Vec<ItemId>,
    },
    /// Buffer a write. Its write quorum runs when the transaction commits;
    /// the value is installed through the ACP as always.
    BufferWrite {
        /// The item to write.
        item: ItemId,
        /// The value to install at commit.
        value: Value,
    },
    /// Read-modify-write: assemble a write quorum whose accesses return the
    /// current value (read-for-update), buffer `current + delta`, and return
    /// the observed pre-increment value.
    Increment {
        /// The item to increment.
        item: ItemId,
        /// The (possibly negative) delta.
        delta: i64,
    },
    /// Install the buffered writes through their write quorums, then run
    /// the atomic commit protocol. Ends the conversation.
    Commit,
    /// Abort: release every CCP resource the conversation acquired. Ends
    /// the conversation.
    Abort,
}

impl NextOp {
    /// Payload bytes of the command in the wire-size model.
    fn payload_size(&self) -> usize {
        match self {
            NextOp::Read { item } | NextOp::Increment { item, .. } => item.name().len() + 8,
            NextOp::ReadMany { items } => items.iter().map(|item| item.name().len() + 8).sum(),
            NextOp::BufferWrite { item, value } => item.name().len() + value.payload_size(),
            NextOp::Commit | NextOp::Abort => 0,
        }
    }
}

/// Reply to a [`NextOp`] that did *not* end the conversation (terminal
/// commands and op failures are answered with [`Msg::TxnDone`] instead).
#[derive(Debug, Clone)]
pub enum OpReply {
    /// Value observed by a read or read-modify-write operation.
    Value {
        /// The item that was read.
        item: ItemId,
        /// Its observed (highest-versioned in-quorum) value.
        value: Value,
    },
    /// Values observed by a [`NextOp::ReadMany`] batch, in request order.
    Values {
        /// The observed `(item, value)` pairs.
        values: Vec<(ItemId, Value)>,
    },
    /// The write was buffered; its quorum runs at commit.
    Buffered,
    /// No coordinator is driving this transaction any more (the
    /// conversation idled past the coordinator's horizon, or the home site
    /// lost its volatile state in a crash).
    Gone,
}

/// The Rainbow protocol messages (and two a node's handle posts to it).
#[derive(Debug)]
pub enum Msg {
    // ------------------------------------------------------------------
    // Client ↔ site: the interactive transaction conversation (the WLGlet /
    // manual-panel paths of the middle tier). One-shot `TxnSpec` submission
    // is a client-side adapter replaying the spec through this same
    // conversation, so there is exactly one execution path.
    // ------------------------------------------------------------------
    /// A client opens an interactive transaction at its home site *with its
    /// first command*: the home site allocates the transaction id, runs the
    /// command and answers it like any other ([`Msg::TxnOpReply`], or
    /// [`Msg::TxnDone`] when the command ends the transaction). There is no
    /// acknowledgement of the begin on its own.
    TxnBegin {
        /// Client-chosen request id naming the conversation; every later
        /// message of the conversation, in either direction, carries it.
        request: u64,
        /// Human-readable label used in reports.
        label: String,
        /// The first command.
        op: NextOp,
        /// The client's Lamport clock: the newest transaction timestamp
        /// counter any client of the cluster has seen end
        /// ([`Msg::TxnDone`]'s `clock`). The home takes it in before it
        /// stamps the transaction, so a transaction begun after another
        /// ended is stamped after it even when the home heard from neither
        /// that transaction nor the copies it touched (a quorum asks only
        /// some of the holders).
        clock: u64,
    },
    /// The client's next command for an open transaction.
    TxnOp {
        /// The client request id from [`Msg::TxnBegin`].
        request: u64,
        /// The transaction (learned from the first [`Msg::TxnOpReply`]).
        txn: TxnId,
        /// The command.
        op: NextOp,
    },
    /// The coordinator's answer to a command that did not end the
    /// transaction. The answer to the first command is how the client learns
    /// the transaction id the home site assigned.
    TxnOpReply {
        /// The client request id from [`Msg::TxnBegin`].
        request: u64,
        /// The transaction.
        txn: TxnId,
        /// The outcome of the command.
        reply: OpReply,
    },
    /// The home site reports the final result of a transaction back to the
    /// client that drove it: after an abort or a failed operation, or — for
    /// a commit — as soon as the decision is on the coordinator's record and
    /// on its way to the participants, not when their acknowledgements are
    /// in.
    TxnDone {
        /// The client request id from [`Msg::TxnBegin`].
        request: u64,
        /// The result, boxed: it is the largest payload of any message,
        /// and inline it would make every message as big.
        result: Box<TxnResult>,
        /// The transaction's timestamp counter, for the client's clock.
        clock: u64,
    },

    // ------------------------------------------------------------------
    // Name server
    // ------------------------------------------------------------------
    /// A site (or client) asks the name server for the schemas.
    NsGetSchema,
    /// The name server's reply.
    NsSchema {
        /// The database + replication schema.
        database: DatabaseSchema,
        /// The site/host distribution schema.
        distribution: DistributionSchema,
    },

    // ------------------------------------------------------------------
    // Replication control: copy accesses (executed through the CCP at the
    // holder site)
    // ------------------------------------------------------------------
    /// Read one copy of an item.
    CopyRead {
        /// The requesting transaction.
        txn: TxnId,
        /// Its timestamp.
        ts: Timestamp,
        /// The item.
        item: ItemId,
        /// When true the read is on behalf of a read-modify-write operation:
        /// the holder acquires *write* access (exclusive lock / pre-write
        /// validation) before returning the value, so the transaction never
        /// needs a shared→exclusive upgrade later.
        for_update: bool,
    },
    /// Pre-write one copy of an item (returns its current version).
    CopyPrewrite {
        /// The requesting transaction.
        txn: TxnId,
        /// Its timestamp.
        ts: Timestamp,
        /// The item.
        item: ItemId,
    },
    /// Reply to [`Msg::CopyRead`] / [`Msg::CopyPrewrite`].
    CopyReply {
        /// The transaction the reply belongs to.
        txn: TxnId,
        /// The item.
        item: ItemId,
        /// Whether the reply answers a pre-write (true) or a read (false).
        prewrite: bool,
        /// Whether the reply answers a read-for-update access. Together
        /// with `prewrite` this identifies the access kind exactly, so the
        /// coordinator can route concurrent quorums over the same item
        /// without cross-attributing a read's grant to a read-for-update's
        /// denial (or vice versa).
        for_update: bool,
        /// The outcome.
        result: CopyAccessResult,
    },

    // ------------------------------------------------------------------
    // Atomic commitment
    // ------------------------------------------------------------------
    /// 2PC PREPARE / 3PC CAN-COMMIT, carrying the writes this participant
    /// must install if the decision is commit.
    AcpPrepare {
        /// The transaction.
        txn: TxnId,
        /// Its timestamp.
        ts: Timestamp,
        /// Writes destined for this participant.
        writes: Vec<(ItemId, Value, Version)>,
    },
    /// A participant's vote.
    AcpVote {
        /// The transaction.
        txn: TxnId,
        /// The vote.
        vote: Vote,
    },
    /// 3PC PRE-COMMIT.
    AcpPreCommit {
        /// The transaction.
        txn: TxnId,
    },
    /// 3PC PRE-COMMIT acknowledgement.
    AcpPreCommitAck {
        /// The transaction.
        txn: TxnId,
    },
    /// The coordinator's decision.
    AcpDecision {
        /// The transaction.
        txn: TxnId,
        /// Commit or abort.
        decision: Decision,
    },
    /// A participant's acknowledgement of the decision.
    AcpAck {
        /// The transaction.
        txn: TxnId,
    },
    /// A recovering / blocked participant asks a coordinator (or peer) for
    /// the fate of a transaction.
    AcpStatusQuery {
        /// The transaction.
        txn: TxnId,
    },
    /// Answer to a status query. `None` means the queried site has no record
    /// of a decision (presumed abort applies at the coordinator).
    AcpStatusReply {
        /// The transaction.
        txn: TxnId,
        /// The decision, if known.
        decision: Option<Decision>,
    },

    // ------------------------------------------------------------------
    // Batching
    // ------------------------------------------------------------------
    /// Several protocol messages for the same destination site coalesced
    /// into one envelope. A site's event loop flushes its per-drain outbox
    /// this way (and a site answers a batch of prepares with a batch of
    /// votes), so N messages to one site pay one trip through the network
    /// simulator instead of N. The receiving site loop unpacks the batch
    /// and handles each message exactly as if it had arrived alone — except
    /// that the prepares and the commit decisions of one batch share a
    /// forced log append each. The network's counters count the messages
    /// carried, each under its own kind and size, and the envelope only as
    /// an envelope, never as a kind.
    Batch(Vec<Msg>),
    /// A site handle's request, run by the site's loop between two messages.
    Call(crate::site::Call),
    /// The site's syncer to its loop: a sync of the log returned, so every
    /// group written up to `ticket` is durable — unless `result` says the
    /// sync failed.
    Synced {
        /// The newest group the sync covered.
        ticket: u64,
        /// What the sync returned: the error's text when it failed, so the
        /// message is plain data.
        result: Result<(), String>,
    },
    /// Stops the node whose mailbox it is in.
    Stop,
}

impl Msg {
    /// The transaction a message refers to, for response routing.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            Msg::TxnOp { txn, .. }
            | Msg::TxnOpReply { txn, .. }
            | Msg::CopyRead { txn, .. }
            | Msg::CopyPrewrite { txn, .. }
            | Msg::CopyReply { txn, .. }
            | Msg::AcpPrepare { txn, .. }
            | Msg::AcpVote { txn, .. }
            | Msg::AcpPreCommit { txn }
            | Msg::AcpPreCommitAck { txn }
            | Msg::AcpDecision { txn, .. }
            | Msg::AcpAck { txn }
            | Msg::AcpStatusQuery { txn }
            | Msg::AcpStatusReply { txn, .. } => Some(*txn),
            _ => None,
        }
    }

    /// True for messages that are *responses* routed back to a waiting
    /// transaction coordinator. ([`Msg::AcpStatusReply`] is not included:
    /// status replies answer a *participant* that is blocked or recovering,
    /// and are handled by the site loop itself.)
    pub fn is_coordinator_response(&self) -> bool {
        matches!(
            self,
            Msg::CopyReply { .. }
                | Msg::AcpVote { .. }
                | Msg::AcpPreCommitAck { .. }
                | Msg::AcpAck { .. }
        )
    }
}

impl NetMessage for Msg {
    fn kind(&self) -> &'static str {
        match self {
            Msg::TxnBegin { .. } => "TXN_BEGIN",
            Msg::TxnOp { .. } => "TXN_OP",
            Msg::TxnOpReply { .. } => "TXN_OP_REPLY",
            Msg::TxnDone { .. } => "TXN_DONE",
            Msg::NsGetSchema => "NS_GET_SCHEMA",
            Msg::NsSchema { .. } => "NS_SCHEMA",
            Msg::CopyRead { .. } => "RCP_READ",
            Msg::CopyPrewrite { .. } => "RCP_PREWRITE",
            Msg::CopyReply { .. } => "RCP_REPLY",
            Msg::AcpPrepare { .. } => "ACP_PREPARE",
            Msg::AcpVote { .. } => "ACP_VOTE",
            Msg::AcpPreCommit { .. } => "ACP_PRECOMMIT",
            Msg::AcpPreCommitAck { .. } => "ACP_PRECOMMIT_ACK",
            Msg::AcpDecision { .. } => "ACP_DECISION",
            Msg::AcpAck { .. } => "ACP_ACK",
            Msg::AcpStatusQuery { .. } => "ACP_STATUS_QUERY",
            Msg::AcpStatusReply { .. } => "ACP_STATUS_REPLY",
            Msg::Batch(..) => "BATCH",
            Msg::Call(..) => "CALL",
            Msg::Synced { .. } => "SYNCED",
            Msg::Stop => "STOP",
        }
    }

    fn size_hint(&self) -> usize {
        // A rough wire-size model: fixed header plus payload-dependent parts.
        const HEADER: usize = 48;
        match self {
            Msg::TxnBegin { label, op, .. } => HEADER + label.len() + op.payload_size(),
            Msg::TxnOp { op, .. } => HEADER + op.payload_size(),
            Msg::TxnOpReply { reply, .. } => {
                HEADER
                    + match reply {
                        OpReply::Value { item, value } => item.name().len() + value.payload_size(),
                        OpReply::Values { values } => values
                            .iter()
                            .map(|(item, value)| item.name().len() + value.payload_size())
                            .sum(),
                        OpReply::Buffered | OpReply::Gone => 8,
                    }
            }
            Msg::TxnDone { result, .. } => HEADER + 64 + result.reads.len() * 24,
            Msg::NsGetSchema => HEADER,
            Msg::NsSchema { database, .. } => HEADER + database.items.len() * 48,
            Msg::CopyRead { item, .. } | Msg::CopyPrewrite { item, .. } => {
                HEADER + item.name().len()
            }
            Msg::CopyReply { item, result, .. } => {
                let payload = match result {
                    CopyAccessResult::Granted { value, .. } => {
                        value.as_ref().map(|v| v.payload_size()).unwrap_or(0) + 8
                    }
                    _ => 16,
                };
                HEADER + item.name().len() + payload
            }
            Msg::AcpPrepare { writes, .. } => {
                HEADER
                    + writes
                        .iter()
                        .map(|(item, value, _)| item.name().len() + value.payload_size() + 8)
                        .sum::<usize>()
            }
            // One envelope header plus every coalesced message's own size:
            // batching saves trips, not bytes.
            Msg::Batch(msgs) => HEADER + msgs.iter().map(Msg::size_hint).sum::<usize>(),
            _ => HEADER,
        }
    }

    fn txn(&self) -> Option<TxnId> {
        // Delegates to the inherent method so the network tracer attributes
        // queue-delay spans to the right transaction.
        Msg::txn(self)
    }

    fn carried(&self) -> &[Self] {
        match self {
            Msg::Batch(msgs) => msgs,
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbow_common::SiteId;

    fn txn() -> TxnId {
        TxnId::new(SiteId(1), 4)
    }

    #[test]
    fn txn_extraction_covers_protocol_messages() {
        assert_eq!(
            Msg::CopyRead {
                txn: txn(),
                ts: Timestamp::new(1, 1),
                item: ItemId::new("x"),
                for_update: false,
            }
            .txn(),
            Some(txn())
        );
        assert_eq!(Msg::AcpAck { txn: txn() }.txn(), Some(txn()));
        assert_eq!(
            Msg::TxnOp {
                request: 1,
                txn: txn(),
                op: NextOp::Commit,
            }
            .txn(),
            Some(txn())
        );
        assert_eq!(
            Msg::TxnOpReply {
                request: 1,
                txn: txn(),
                reply: OpReply::Buffered,
            }
            .txn(),
            Some(txn())
        );
        assert_eq!(Msg::NsGetSchema.txn(), None);
        // The opening message is sent before the transaction has an id.
        assert_eq!(
            Msg::TxnBegin {
                request: 1,
                label: "t".into(),
                op: NextOp::Commit,
                clock: 0,
            }
            .txn(),
            None
        );
    }

    #[test]
    fn coordinator_response_classification() {
        assert!(Msg::AcpVote {
            txn: txn(),
            vote: Vote::Yes
        }
        .is_coordinator_response());
        assert!(Msg::CopyReply {
            txn: txn(),
            item: ItemId::new("x"),
            prewrite: false,
            for_update: false,
            result: CopyAccessResult::NoSuchCopy,
        }
        .is_coordinator_response());
        assert!(!Msg::AcpPrepare {
            txn: txn(),
            ts: Timestamp::ZERO,
            writes: vec![],
        }
        .is_coordinator_response());
        assert!(!Msg::NsGetSchema.is_coordinator_response());
        assert!(!Msg::AcpStatusReply {
            txn: txn(),
            decision: None,
        }
        .is_coordinator_response());
    }

    #[test]
    fn conversation_ops_are_not_coordinator_responses() {
        // Client commands are routed to their machine explicitly by the site
        // loop, not through the coordinator-response fast path, and
        // client-bound replies are never routed by a site at all.
        assert!(!Msg::TxnOp {
            request: 1,
            txn: txn(),
            op: NextOp::Read {
                item: ItemId::new("x"),
            },
        }
        .is_coordinator_response());
        assert!(!Msg::TxnOpReply {
            request: 1,
            txn: txn(),
            reply: OpReply::Gone,
        }
        .is_coordinator_response());
    }

    #[test]
    fn kinds_are_distinct_for_the_traffic_experiments() {
        let kinds = [
            Msg::NsGetSchema.kind(),
            Msg::TxnBegin {
                request: 1,
                label: "t".into(),
                op: NextOp::Abort,
                clock: 0,
            }
            .kind(),
            Msg::TxnOp {
                request: 1,
                txn: txn(),
                op: NextOp::Abort,
            }
            .kind(),
            Msg::TxnOpReply {
                request: 1,
                txn: txn(),
                reply: OpReply::Buffered,
            }
            .kind(),
            Msg::CopyRead {
                txn: txn(),
                ts: Timestamp::ZERO,
                item: ItemId::new("x"),
                for_update: false,
            }
            .kind(),
            Msg::CopyPrewrite {
                txn: txn(),
                ts: Timestamp::ZERO,
                item: ItemId::new("x"),
            }
            .kind(),
            Msg::AcpPrepare {
                txn: txn(),
                ts: Timestamp::ZERO,
                writes: vec![],
            }
            .kind(),
            Msg::AcpDecision {
                txn: txn(),
                decision: Decision::Commit,
            }
            .kind(),
        ];
        let unique: std::collections::BTreeSet<_> = kinds.iter().collect();
        assert_eq!(unique.len(), kinds.len());
    }

    #[test]
    fn batch_sums_sizes_and_routes_to_no_single_txn() {
        let inner = vec![
            Msg::AcpDecision {
                txn: txn(),
                decision: Decision::Commit,
            },
            Msg::AcpPrepare {
                txn: txn(),
                ts: Timestamp::ZERO,
                writes: vec![(ItemId::new("x"), Value::Int(1), Version(1))],
            },
        ];
        let summed: usize = inner.iter().map(|m| m.size_hint()).sum();
        let batch = Msg::Batch(inner);
        assert_eq!(batch.kind(), "BATCH");
        assert_eq!(batch.carried().len(), 2, "counted message by message");
        assert!(batch.size_hint() > summed, "envelope header is extra");
        // A batch spans transactions; the site loop unpacks it before any
        // per-transaction routing happens.
        assert_eq!(batch.txn(), None);
        assert!(!batch.is_coordinator_response());
    }

    #[test]
    fn size_hints_grow_with_payload() {
        let small = Msg::AcpPrepare {
            txn: txn(),
            ts: Timestamp::ZERO,
            writes: vec![],
        };
        let large = Msg::AcpPrepare {
            txn: txn(),
            ts: Timestamp::ZERO,
            writes: vec![
                (ItemId::new("x"), Value::Int(1), Version(1)),
                (ItemId::new("y"), Value::Text("hello".into()), Version(2)),
            ],
        };
        assert!(large.size_hint() > small.size_hint());
        assert!(Msg::NsGetSchema.size_hint() > 0);
        // The opening message pays for the command it carries.
        let begin = |op| Msg::TxnBegin {
            request: 1,
            label: "t".into(),
            op,
            clock: 0,
        };
        let read = NextOp::Read {
            item: ItemId::new("x"),
        };
        assert!(begin(read).size_hint() > begin(NextOp::Commit).size_hint());
    }
}
