//! raft-lite wire messages and their gossip identities.

use semantic_gossip::{GossipItem, MessageId, NodeId};

use crate::types::{Command, LogIndex, Term};

/// One replicated log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The term in which the leader appended the entry.
    pub term: Term,
    /// The entry's position.
    pub index: LogIndex,
    /// The client command it carries.
    pub command: Command,
}

/// A raft-lite protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaftMessage {
    /// A client command forwarded toward the leader.
    ClientCommand {
        /// Forwarding process.
        forwarder: NodeId,
        /// The command.
        command: Command,
    },
    /// The leader replicates one entry (broadcast; one entry per message so
    /// gossip dedup works per entry).
    Append {
        /// Leader's term.
        term: Term,
        /// The leader.
        leader: NodeId,
        /// The replicated entry.
        entry: Entry,
    },
    /// Cumulative acknowledgement: every `voter` holds all entries of
    /// `term` up to and including `index`.
    ///
    /// `voters.len() > 1` is a semantically aggregated ack (reversible).
    Ack {
        /// The acknowledged term.
        term: Term,
        /// Highest contiguous index held.
        index: LogIndex,
        /// The acknowledging followers. Invariant: non-empty, sorted,
        /// duplicate-free.
        voters: Vec<NodeId>,
    },
    /// The leader announces that entries up to `index` are committed.
    Commit {
        /// The committing term.
        term: Term,
        /// Highest committed index.
        index: LogIndex,
        /// The announcing leader.
        sender: NodeId,
    },
}

impl RaftMessage {
    /// Splits an aggregated ack into per-voter acks (reversible rule).
    pub fn disaggregate_acks(self) -> Vec<RaftMessage> {
        match self {
            RaftMessage::Ack {
                term,
                index,
                voters,
            } if voters.len() > 1 => voters
                .into_iter()
                .map(|voter| RaftMessage::Ack {
                    term,
                    index,
                    voters: vec![voter],
                })
                .collect(),
            other => vec![other],
        }
    }

    /// Checks the ack-voters invariant.
    pub fn is_well_formed(&self) -> bool {
        match self {
            RaftMessage::Ack { voters, .. } => {
                !voters.is_empty() && voters.windows(2).all(|w| w[0] < w[1])
            }
            _ => true,
        }
    }
}

const KIND_SHIFT: u32 = 56;

fn id(kind: u64, high_extra: u64, low: u64) -> MessageId {
    debug_assert!(high_extra < (1 << KIND_SHIFT));
    MessageId::from_parts((kind << KIND_SHIFT) | high_extra, low)
}

impl GossipItem for RaftMessage {
    /// Structural ids, mirroring the Paxos scheme:
    /// `ClientCommand(origin, seq)`, `Append(term, index)`,
    /// `Ack(term₂₄, voter, index)` for single-voter acks (hash-extended for
    /// aggregates, which are disaggregated before dedup anyway),
    /// `Commit(term, index)`.
    fn message_id(&self) -> MessageId {
        match self {
            RaftMessage::ClientCommand { command, .. } => {
                id(0x11, command.id().origin.as_u32() as u64, command.id().seq)
            }
            RaftMessage::Append { term, entry, .. } => {
                id(0x12, term.as_u32() as u64, entry.index.as_u64())
            }
            RaftMessage::Ack {
                term,
                index,
                voters,
            } => {
                if voters.len() == 1 {
                    let high =
                        ((voters[0].as_u32() as u64) << 24) | (term.as_u32() as u64 & 0xff_ffff);
                    id(0x13, high, index.as_u64())
                } else {
                    let mut h = term.as_u32() as u64;
                    for v in voters {
                        h = h
                            .wrapping_mul(0x100_0000_01b3)
                            .wrapping_add(v.as_u32() as u64 + 1);
                    }
                    id(0x14, h & ((1 << KIND_SHIFT) - 1), index.as_u64())
                }
            }
            RaftMessage::Commit { term, index, .. } => {
                id(0x15, term.as_u32() as u64, index.as_u64())
            }
        }
    }

    fn wire_size(&self) -> usize {
        use semantic_gossip::codec::Wire;
        self.encoded_len()
    }

    /// Acks for the same `(term, index)` differ only in their voters and
    /// may merge (see `RaftSemantics::aggregate`); nothing else does.
    fn aggregation_key(&self) -> Option<u64> {
        match self {
            RaftMessage::Ack { term, index, .. } => Some(semantic_gossip::hash::mix_words(&[
                term.as_u32() as u64,
                index.as_u64(),
            ])),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn cmd(seq: u64) -> Command {
        Command::new(NodeId::new(1), seq, vec![0; 8])
    }

    fn ack(term: u32, index: u64, voter: u32) -> RaftMessage {
        RaftMessage::Ack {
            term: Term::new(term),
            index: LogIndex::new(index),
            voters: vec![NodeId::new(voter)],
        }
    }

    #[test]
    fn ids_are_distinct_across_kinds_and_fields() {
        let msgs = [
            RaftMessage::ClientCommand {
                forwarder: NodeId::new(0),
                command: cmd(1),
            },
            RaftMessage::Append {
                term: Term::ZERO,
                leader: NodeId::new(0),
                entry: Entry {
                    term: Term::ZERO,
                    index: LogIndex::new(1),
                    command: cmd(1),
                },
            },
            ack(0, 1, 2),
            ack(0, 1, 3),
            ack(0, 2, 2),
            ack(1, 1, 2),
            RaftMessage::Commit {
                term: Term::ZERO,
                index: LogIndex::new(1),
                sender: NodeId::new(0),
            },
        ];
        let ids: HashSet<MessageId> = msgs.iter().map(|m| m.message_id()).collect();
        assert_eq!(ids.len(), msgs.len());
    }

    #[test]
    fn disaggregation_restores_single_ack_ids() {
        let agg = RaftMessage::Ack {
            term: Term::new(1),
            index: LogIndex::new(5),
            voters: vec![NodeId::new(2), NodeId::new(4)],
        };
        let parts = agg.disaggregate_acks();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].message_id(), ack(1, 5, 2).message_id());
        assert_eq!(parts[1].message_id(), ack(1, 5, 4).message_id());
    }

    #[test]
    fn well_formedness() {
        assert!(ack(0, 1, 2).is_well_formed());
        let bad = RaftMessage::Ack {
            term: Term::ZERO,
            index: LogIndex::ZERO,
            voters: vec![],
        };
        assert!(!bad.is_well_formed());
        let unsorted = RaftMessage::Ack {
            term: Term::ZERO,
            index: LogIndex::ZERO,
            voters: vec![NodeId::new(3), NodeId::new(1)],
        };
        assert!(!unsorted.is_well_formed());
    }

    #[test]
    fn wire_size_tracks_payload() {
        let small = RaftMessage::ClientCommand {
            forwarder: NodeId::new(0),
            command: Command::new(NodeId::new(0), 0, vec![0; 10]),
        };
        let big = RaftMessage::ClientCommand {
            forwarder: NodeId::new(0),
            command: Command::new(NodeId::new(0), 0, vec![0; 1000]),
        };
        assert!(big.wire_size() > small.wire_size() + 900);
    }
}
