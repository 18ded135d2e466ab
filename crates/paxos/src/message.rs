//! The Paxos wire messages and their gossip identities.
//!
//! Six message types cover the paper's communication patterns: client values
//! forwarded to the coordinator (many-to-one), Phase 1a / 2a from the
//! coordinator to all (one-to-many), Phase 1b / 2b back to the coordinator
//! (many-to-one — but visible to everyone under gossip), and Decisions
//! (one-to-many).
//!
//! [`PaxosMessage::Phase2b`] is a *thin* vote: it names the accepted value
//! by its [`ValueId`] and never carries the payload, which every process
//! already holds from the `Phase2a` of the same `(instance, round)` (the
//! [`Learner`](crate::Learner) joins the two). It carries a *set* of voters:
//! one voter is an ordinary Phase 2b; more make it a semantically aggregated
//! Phase 2b ("any of the original Phase 2b messages plus a field to store
//! the multiple senders", §3.2). Aggregation is reversible via
//! [`PaxosMessage::disaggregate_votes`]. With the payload gone and the
//! voters an inline [`VoterSet`], a vote is a plain small value: cloning,
//! splitting, merging and decoding one allocates nothing.
//!
//! [`PaxosMessage::Phase2a`] is thin on the gossip substrates: there the
//! value reaches every process in its own `ClientValue` broadcast
//! ([`PaxosConfig::values_broadcast`](crate::PaxosConfig)), so a fresh
//! proposal names it by id ([`Proposal::Id`]), plus the part ids of a
//! batch; the [`PaxosProcess`](crate::PaxosProcess) joins the two.
//! Re-proposals, retransmissions, every proposal on direct channels, and
//! Decisions carry the value ([`Proposal::Value`]).
//!
//! Message identifiers are structural, defined by the consensus protocol as
//! the paper prescribes (§3.3), so the recently-seen cache never suffers
//! hash collisions between distinct protocol messages.

use semantic_gossip::codec::{decode_seq, encode_seq, seq_len, Reader, Wire, WireError};
use semantic_gossip::hash::mix_words;
use semantic_gossip::{GossipItem, MessageId, NodeId, TraceTag};

use crate::types::{InstanceId, Round, Value, ValueId};
use crate::voters::VoterSet;

/// One accepted-value report inside a Phase 1b message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcceptedEntry {
    /// Instance the value was accepted in.
    pub instance: InstanceId,
    /// Round in which it was accepted.
    pub round: Round,
    /// The accepted value.
    pub value: Value,
}

impl Wire for AcceptedEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.instance.encode(buf);
        self.round.encode(buf);
        self.value.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(AcceptedEntry {
            instance: InstanceId::decode(r)?,
            round: Round::decode(r)?,
            value: Value::decode(r)?,
        })
    }
    fn encoded_len(&self) -> usize {
        self.instance.encoded_len() + self.round.encoded_len() + self.value.encoded_len()
    }
}

/// What a [`PaxosMessage::Phase2a`] proposes: the value itself, or its
/// name when the value travels in its own `ClientValue` message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Proposal {
    /// The value itself (1 KiB and more on the wire).
    Value(Value),
    /// The value named by its id. A batch also names its parts, in order,
    /// so a process that holds them rebuilds the batch byte for byte
    /// ([`Value::batch`]); a plain value has no parts. Invariant: `parts`
    /// is non-empty exactly when `id` is batch-tagged, and then holds at
    /// least two plain ids ([`PaxosMessage::validate`]).
    Id {
        /// The proposed value's id.
        id: ValueId,
        /// A batch's part ids, in batch order; empty for a plain value.
        parts: Vec<ValueId>,
    },
}

impl Proposal {
    /// A thin proposal naming `value`: its id, and its parts' ids when it
    /// is a batch.
    pub fn naming(value: &Value) -> Self {
        Proposal::Id {
            id: value.id(),
            parts: value.component_ids(),
        }
    }

    /// The proposed value's id.
    pub fn id(&self) -> ValueId {
        match self {
            Proposal::Value(value) => value.id(),
            Proposal::Id { id, .. } => *id,
        }
    }
}

impl From<Value> for Proposal {
    fn from(value: Value) -> Self {
        Proposal::Value(value)
    }
}

/// Wire tag of a [`PaxosMessage::Phase2a`] carrying a [`Proposal::Id`]. A
/// proposal carrying its value keeps [`Kind::Phase2a`]'s tag, and with it
/// the encoding it had before proposals could be thin.
const THIN_PHASE2A_TAG: u8 = 8;

/// A Paxos protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PaxosMessage {
    /// A client value forwarded to the coordinator by the process that
    /// received it (§4.2).
    ClientValue {
        /// Process forwarding the value.
        forwarder: NodeId,
        /// The client's value.
        value: Value,
    },
    /// Phase 1a: the round coordinator probes all instances from
    /// `from_instance` on.
    Phase1a {
        /// Round being started.
        round: Round,
        /// First instance covered by this round.
        from_instance: InstanceId,
        /// The coordinator starting the round.
        sender: NodeId,
    },
    /// Phase 1b: an acceptor's promise plus its previously accepted values.
    Phase1b {
        /// Round being answered.
        round: Round,
        /// The promising acceptor.
        sender: NodeId,
        /// Values this acceptor had accepted, for instances covered by the
        /// round.
        accepted: Vec<AcceptedEntry>,
    },
    /// Phase 2a: the coordinator asks acceptors to accept `value` in
    /// `instance` at `round`. The value is carried or, when it travels in
    /// its own `ClientValue`, named ([`Proposal`]).
    Phase2a {
        /// Target instance.
        instance: InstanceId,
        /// The coordinator's round.
        round: Round,
        /// The value to accept, carried or named.
        value: Proposal,
        /// The coordinator.
        sender: NodeId,
    },
    /// Phase 2b: vote(s) that the value named `value` was accepted in
    /// `instance` at `round`. The value itself travels in the `Phase2a` of
    /// the same `(instance, round)` and in the `Decision`.
    ///
    /// `voters.len() == 1` is an ordinary vote; more members form a
    /// semantically aggregated vote. Invariant: `voters` is non-empty
    /// ([`PaxosMessage::validate`]).
    Phase2b {
        /// Target instance.
        instance: InstanceId,
        /// Round the vote belongs to.
        round: Round,
        /// Id of the accepted value.
        value: ValueId,
        /// The acceptors that cast this vote.
        voters: VoterSet,
    },
    /// The coordinator announces that `instance` decided `value`.
    Decision {
        /// Decided instance.
        instance: InstanceId,
        /// Decided value.
        value: Value,
        /// The announcing coordinator.
        sender: NodeId,
    },
}

/// Message-kind discriminants (wire tags and id namespaces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// [`PaxosMessage::ClientValue`].
    ClientValue = 1,
    /// [`PaxosMessage::Phase1a`].
    Phase1a = 2,
    /// [`PaxosMessage::Phase1b`].
    Phase1b = 3,
    /// [`PaxosMessage::Phase2a`].
    Phase2a = 4,
    /// [`PaxosMessage::Phase2b`] with a single voter.
    Phase2b = 5,
    /// [`PaxosMessage::Phase2b`] with multiple voters (aggregated).
    Phase2bAggregated = 6,
    /// [`PaxosMessage::Decision`].
    Decision = 7,
}

impl Kind {
    /// A compact array index for per-kind counters (0..=6).
    pub const fn index(self) -> usize {
        self as usize - 1
    }

    /// Number of distinct kinds.
    pub const COUNT: usize = 7;

    /// Human-readable kind name.
    pub const fn name(self) -> &'static str {
        match self {
            Kind::ClientValue => "ClientValue",
            Kind::Phase1a => "Phase1a",
            Kind::Phase1b => "Phase1b",
            Kind::Phase2a => "Phase2a",
            Kind::Phase2b => "Phase2b",
            Kind::Phase2bAggregated => "Phase2b(agg)",
            Kind::Decision => "Decision",
        }
    }

    /// All kinds in index order.
    pub const ALL: [Kind; Kind::COUNT] = [
        Kind::ClientValue,
        Kind::Phase1a,
        Kind::Phase1b,
        Kind::Phase2a,
        Kind::Phase2b,
        Kind::Phase2bAggregated,
        Kind::Decision,
    ];
}

impl PaxosMessage {
    /// The message's kind.
    pub fn kind(&self) -> Kind {
        match self {
            PaxosMessage::ClientValue { .. } => Kind::ClientValue,
            PaxosMessage::Phase1a { .. } => Kind::Phase1a,
            PaxosMessage::Phase1b { .. } => Kind::Phase1b,
            PaxosMessage::Phase2a { .. } => Kind::Phase2a,
            PaxosMessage::Phase2b { voters, .. } if voters.len() == 1 => Kind::Phase2b,
            PaxosMessage::Phase2b { .. } => Kind::Phase2bAggregated,
            PaxosMessage::Decision { .. } => Kind::Decision,
        }
    }

    /// The instance this message concerns, if any.
    pub fn instance(&self) -> Option<InstanceId> {
        match self {
            PaxosMessage::Phase2a { instance, .. }
            | PaxosMessage::Phase2b { instance, .. }
            | PaxosMessage::Decision { instance, .. } => Some(*instance),
            PaxosMessage::Phase1a { from_instance, .. } => Some(*from_instance),
            _ => None,
        }
    }

    /// Checks structural invariants: a vote has a voter (a [`VoterSet`]
    /// cannot be unsorted or hold duplicates); every carried value passes
    /// [`Value::validate`], so a batch-tagged one is a well-formed list of
    /// at least two plain values; and a thin proposal names parts exactly
    /// when its id is a batch's, at least two and none a batch.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] describing the violated invariant.
    pub fn validate(&self) -> Result<(), WireError> {
        match self {
            PaxosMessage::Phase2b { voters, .. } if voters.is_empty() => {
                Err(WireError::Invalid("Phase2b without voters"))
            }
            PaxosMessage::Phase2b { .. } | PaxosMessage::Phase1a { .. } => Ok(()),
            PaxosMessage::ClientValue { value, .. }
            | PaxosMessage::Decision { value, .. }
            | PaxosMessage::Phase2a {
                value: Proposal::Value(value),
                ..
            } => value.validate(),
            PaxosMessage::Phase1b { accepted, .. } => {
                accepted.iter().try_for_each(|entry| entry.value.validate())
            }
            PaxosMessage::Phase2a {
                value: Proposal::Id { id, parts },
                ..
            } => {
                let fits = if id.is_batch() {
                    parts.len() >= 2 && !parts.iter().any(ValueId::is_batch)
                } else {
                    parts.is_empty()
                };
                if fits {
                    Ok(())
                } else {
                    Err(WireError::Invalid("thin Phase2a parts do not fit its id"))
                }
            }
        }
    }

    /// Splits an aggregated Phase 2b into the original single-voter votes
    /// (the paper's reversible disaggregation rule). Non-aggregated messages
    /// are returned unchanged.
    pub fn disaggregate_votes(self) -> Vec<PaxosMessage> {
        match self {
            PaxosMessage::Phase2b {
                instance,
                round,
                value,
                voters,
            } if voters.len() > 1 => voters
                .iter()
                .map(|voter| PaxosMessage::Phase2b {
                    instance,
                    round,
                    value,
                    voters: VoterSet::single(voter),
                })
                .collect(),
            other => vec![other],
        }
    }
}

const KIND_SHIFT: u32 = 56;

fn id(kind: Kind, high_extra: u64, low: u64) -> MessageId {
    debug_assert!(high_extra < (1 << KIND_SHIFT), "id payload overflows");
    MessageId::from_parts(((kind as u64) << KIND_SHIFT) | high_extra, low)
}

impl GossipItem for PaxosMessage {
    /// Structural, collision-free message ids:
    ///
    /// * `ClientValue(forwarder₂₄, origin, seq)` — the same value forwarded
    ///   twice by one process dedups, but a *re*-forward by a different
    ///   process (a demoted coordinator re-targeting the new round's
    ///   coordinator) is a distinct item: deduping it against the original
    ///   forward would strand the value at nodes that already relayed it
    ///   (forwarder ids are truncated to 24 bits in the id);
    /// * `Phase1a(round)`, `Phase1b(round, sender)`;
    /// * `Phase2a(round, instance)` — one proposal per round and instance;
    /// * `Phase2b(round₂₄, voter, instance)` — one vote per acceptor, round
    ///   and instance (rounds are truncated to 24 bits in the id; rounds
    ///   beyond 16M would alias, far beyond any practical execution);
    /// * aggregated `Phase2b` — a fold of `(round, voters)`, but these ids
    ///   are only informational: aggregates are disaggregated before
    ///   duplicate-checking;
    /// * `Decision(instance)` — decisions for an instance are identical by
    ///   Paxos safety, so deduping across senders is correct.
    fn message_id(&self) -> MessageId {
        match self {
            PaxosMessage::ClientValue { forwarder, value } => {
                let high = ((forwarder.as_u32() as u64 & 0xff_ffff) << 32)
                    | value.id().origin.as_u32() as u64;
                id(Kind::ClientValue, high, value.id().seq)
            }
            PaxosMessage::Phase1a {
                round,
                from_instance,
                ..
            } => id(Kind::Phase1a, round.as_u32() as u64, from_instance.as_u64()),
            PaxosMessage::Phase1b { round, sender, .. } => {
                id(Kind::Phase1b, round.as_u32() as u64, sender.as_u32() as u64)
            }
            PaxosMessage::Phase2a {
                instance, round, ..
            } => id(Kind::Phase2a, round.as_u32() as u64, instance.as_u64()),
            PaxosMessage::Phase2b {
                instance,
                round,
                voters,
                ..
            } => match voters.first() {
                Some(voter) if voters.len() == 1 => {
                    let high =
                        ((voter.as_u32() as u64) << 24) | (round.as_u32() as u64 & 0xff_ffff);
                    id(Kind::Phase2b, high, instance.as_u64())
                }
                _ => {
                    let h = mix_words(&[round.as_u32() as u64, voters.digest()])
                        & ((1 << KIND_SHIFT) - 1);
                    id(Kind::Phase2bAggregated, h, instance.as_u64())
                }
            },
            PaxosMessage::Decision { instance, .. } => id(Kind::Decision, 0, instance.as_u64()),
        }
    }

    fn wire_size(&self) -> usize {
        self.encoded_len()
    }

    /// Consensus identity for the `wire_tagged` correlation event: the
    /// message kind, the instance it concerns (sentinel when none), and
    /// the carried value's `(origin, seq)` when it carries one. This is
    /// what lets trace analysis stitch the causal chain gating a decision
    /// — client forward → proposal → votes — across wire message ids.
    fn trace_tag(&self) -> Option<TraceTag> {
        let instance = self
            .instance()
            .map_or(TraceTag::NO_INSTANCE, |i| i.as_u64());
        let value_id = match self {
            PaxosMessage::ClientValue { value, .. } | PaxosMessage::Decision { value, .. } => {
                Some(value.id())
            }
            PaxosMessage::Phase2a { value, .. } => Some(value.id()),
            PaxosMessage::Phase2b { value, .. } => Some(*value),
            PaxosMessage::Phase1a { .. } | PaxosMessage::Phase1b { .. } => None,
        };
        Some(TraceTag {
            kind: self.kind().name(),
            instance,
            origin: value_id.map_or(0, |id| id.origin.as_u32()),
            seq: value_id.map_or(0, |id| id.seq),
        })
    }

    /// Phase 2b votes for the same `(instance, round, value)` are identical
    /// except for their voters and may merge (§3.2); nothing else does.
    fn aggregation_key(&self) -> Option<u64> {
        match self {
            PaxosMessage::Phase2b {
                instance,
                round,
                value,
                ..
            } => Some(mix_words(&[
                instance.as_u64(),
                round.as_u32() as u64,
                value.origin.as_u32() as u64,
                value.seq,
            ])),
            _ => None,
        }
    }
}

impl Wire for PaxosMessage {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            PaxosMessage::ClientValue { forwarder, value } => {
                buf.push(Kind::ClientValue as u8);
                forwarder.encode(buf);
                value.encode(buf);
            }
            PaxosMessage::Phase1a {
                round,
                from_instance,
                sender,
            } => {
                buf.push(Kind::Phase1a as u8);
                round.encode(buf);
                from_instance.encode(buf);
                sender.encode(buf);
            }
            PaxosMessage::Phase1b {
                round,
                sender,
                accepted,
            } => {
                buf.push(Kind::Phase1b as u8);
                round.encode(buf);
                sender.encode(buf);
                encode_seq(accepted, buf);
            }
            PaxosMessage::Phase2a {
                instance,
                round,
                value,
                sender,
            } => {
                match value {
                    Proposal::Value(value) => {
                        buf.push(Kind::Phase2a as u8);
                        instance.encode(buf);
                        round.encode(buf);
                        value.encode(buf);
                    }
                    Proposal::Id { id, parts } => {
                        buf.push(THIN_PHASE2A_TAG);
                        instance.encode(buf);
                        round.encode(buf);
                        id.encode(buf);
                        if id.is_batch() {
                            encode_seq(parts, buf);
                        }
                    }
                }
                sender.encode(buf);
            }
            PaxosMessage::Phase2b {
                instance,
                round,
                value,
                voters,
            } => {
                buf.push(Kind::Phase2b as u8);
                instance.encode(buf);
                round.encode(buf);
                value.encode(buf);
                voters.encode(buf);
            }
            PaxosMessage::Decision {
                instance,
                value,
                sender,
            } => {
                buf.push(Kind::Decision as u8);
                instance.encode(buf);
                value.encode(buf);
                sender.encode(buf);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.u8()?;
        let msg = match tag {
            t if t == Kind::ClientValue as u8 => PaxosMessage::ClientValue {
                forwarder: NodeId::decode(r)?,
                value: Value::decode(r)?,
            },
            t if t == Kind::Phase1a as u8 => PaxosMessage::Phase1a {
                round: Round::decode(r)?,
                from_instance: InstanceId::decode(r)?,
                sender: NodeId::decode(r)?,
            },
            t if t == Kind::Phase1b as u8 => PaxosMessage::Phase1b {
                round: Round::decode(r)?,
                sender: NodeId::decode(r)?,
                accepted: decode_seq(r)?,
            },
            t if t == Kind::Phase2a as u8 => PaxosMessage::Phase2a {
                instance: InstanceId::decode(r)?,
                round: Round::decode(r)?,
                value: Proposal::Value(Value::decode(r)?),
                sender: NodeId::decode(r)?,
            },
            THIN_PHASE2A_TAG => {
                let instance = InstanceId::decode(r)?;
                let round = Round::decode(r)?;
                let id = ValueId::decode(r)?;
                // Only a batch names parts; a plain id ends the proposal.
                let parts = if id.is_batch() {
                    decode_seq(r)?
                } else {
                    Vec::new()
                };
                PaxosMessage::Phase2a {
                    instance,
                    round,
                    value: Proposal::Id { id, parts },
                    sender: NodeId::decode(r)?,
                }
            }
            t if t == Kind::Phase2b as u8 => PaxosMessage::Phase2b {
                instance: InstanceId::decode(r)?,
                round: Round::decode(r)?,
                value: ValueId::decode(r)?,
                voters: VoterSet::decode(r)?,
            },
            t if t == Kind::Decision as u8 => PaxosMessage::Decision {
                instance: InstanceId::decode(r)?,
                value: Value::decode(r)?,
                sender: NodeId::decode(r)?,
            },
            t => return Err(WireError::InvalidTag(t)),
        };
        msg.validate()?;
        Ok(msg)
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            PaxosMessage::ClientValue { forwarder, value } => {
                forwarder.encoded_len() + value.encoded_len()
            }
            PaxosMessage::Phase1a {
                round,
                from_instance,
                sender,
            } => round.encoded_len() + from_instance.encoded_len() + sender.encoded_len(),
            PaxosMessage::Phase1b {
                round,
                sender,
                accepted,
            } => round.encoded_len() + sender.encoded_len() + seq_len(accepted),
            PaxosMessage::Phase2a {
                instance,
                round,
                value,
                sender,
            } => {
                let value_len = match value {
                    Proposal::Value(value) => value.encoded_len(),
                    Proposal::Id { id, parts } if id.is_batch() => {
                        id.encoded_len() + seq_len(parts)
                    }
                    Proposal::Id { id, .. } => id.encoded_len(),
                };
                instance.encoded_len() + round.encoded_len() + value_len + sender.encoded_len()
            }
            PaxosMessage::Phase2b {
                instance,
                round,
                value,
                voters,
            } => {
                instance.encoded_len()
                    + round.encoded_len()
                    + value.encoded_len()
                    + voters.encoded_len()
            }
            PaxosMessage::Decision {
                instance,
                value,
                sender,
            } => instance.encoded_len() + value.encoded_len() + sender.encoded_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn value(seq: u64) -> Value {
        Value::new(NodeId::new(1), seq, vec![0xab; 16])
    }

    fn sample_messages() -> Vec<PaxosMessage> {
        vec![
            PaxosMessage::ClientValue {
                forwarder: NodeId::new(3),
                value: value(1),
            },
            PaxosMessage::Phase1a {
                round: Round::new(2),
                from_instance: InstanceId::new(10),
                sender: NodeId::new(0),
            },
            PaxosMessage::Phase1b {
                round: Round::new(2),
                sender: NodeId::new(4),
                accepted: vec![AcceptedEntry {
                    instance: InstanceId::new(3),
                    round: Round::new(1),
                    value: value(9),
                }],
            },
            PaxosMessage::Phase2a {
                instance: InstanceId::new(5),
                round: Round::new(2),
                value: value(1).into(),
                sender: NodeId::new(0),
            },
            PaxosMessage::Phase2b {
                instance: InstanceId::new(5),
                round: Round::new(2),
                value: value(1).id(),
                voters: vec![NodeId::new(4)].into(),
            },
            PaxosMessage::Phase2b {
                instance: InstanceId::new(5),
                round: Round::new(2),
                value: value(1).id(),
                voters: vec![NodeId::new(2), NodeId::new(4), NodeId::new(7)].into(),
            },
            PaxosMessage::Decision {
                instance: InstanceId::new(5),
                value: value(1),
                sender: NodeId::new(0),
            },
        ]
    }

    #[test]
    fn wire_round_trip_all_variants() {
        for msg in sample_messages() {
            let bytes = msg.to_bytes();
            assert_eq!(bytes.len(), msg.encoded_len(), "len mismatch for {msg:?}");
            assert_eq!(PaxosMessage::from_bytes(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn message_ids_are_distinct() {
        let ids: HashSet<MessageId> = sample_messages().iter().map(|m| m.message_id()).collect();
        assert_eq!(ids.len(), sample_messages().len());
    }

    #[test]
    fn phase2b_ids_distinguish_voters_rounds_instances() {
        let base = |voter: u32, round: u32, inst: u64| {
            PaxosMessage::Phase2b {
                instance: InstanceId::new(inst),
                round: Round::new(round),
                value: value(0).id(),
                voters: vec![NodeId::new(voter)].into(),
            }
            .message_id()
        };
        assert_ne!(base(1, 0, 0), base(2, 0, 0));
        assert_ne!(base(1, 0, 0), base(1, 1, 0));
        assert_ne!(base(1, 0, 0), base(1, 0, 1));
    }

    #[test]
    fn decision_id_ignores_sender() {
        let d = |sender: u32| {
            PaxosMessage::Decision {
                instance: InstanceId::new(9),
                value: value(0),
                sender: NodeId::new(sender),
            }
            .message_id()
        };
        assert_eq!(d(0), d(5));
    }

    #[test]
    fn client_value_id_distinguishes_forwarders() {
        let m = |fwd: u32| {
            PaxosMessage::ClientValue {
                forwarder: NodeId::new(fwd),
                value: value(3),
            }
            .message_id()
        };
        // The same forwarder's duplicate submits dedup...
        assert_eq!(m(1), m(1));
        // ...but a re-forward by another process (demoted coordinator
        // re-targeting the new coordinator) must gossip as a fresh item,
        // or dedup would strand it at nodes that relayed the original.
        assert_ne!(m(1), m(2));
    }

    #[test]
    fn disaggregate_splits_votes() {
        let agg = PaxosMessage::Phase2b {
            instance: InstanceId::new(1),
            round: Round::ZERO,
            value: value(0).id(),
            voters: vec![NodeId::new(1), NodeId::new(3)].into(),
        };
        let parts = agg.disaggregate_votes();
        assert_eq!(parts.len(), 2);
        for (part, voter) in parts.iter().zip([1u32, 3]) {
            match part {
                PaxosMessage::Phase2b { voters, .. } => {
                    assert_eq!(voters, &vec![NodeId::new(voter)]);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // Parts carry the ids single votes would have had.
        let single = PaxosMessage::Phase2b {
            instance: InstanceId::new(1),
            round: Round::ZERO,
            value: value(0).id(),
            voters: vec![NodeId::new(1)].into(),
        };
        assert_eq!(parts[0].message_id(), single.message_id());
    }

    #[test]
    fn disaggregate_keeps_singles_and_others() {
        let single = PaxosMessage::Phase2b {
            instance: InstanceId::new(1),
            round: Round::ZERO,
            value: value(0).id(),
            voters: vec![NodeId::new(1)].into(),
        };
        assert_eq!(single.clone().disaggregate_votes(), vec![single]);
        let dec = PaxosMessage::Decision {
            instance: InstanceId::new(1),
            value: value(0),
            sender: NodeId::new(0),
        };
        assert_eq!(dec.clone().disaggregate_votes(), vec![dec]);
    }

    #[test]
    fn invalid_votes_rejected() {
        let vote = |voters: Vec<NodeId>| PaxosMessage::Phase2b {
            instance: InstanceId::new(1),
            round: Round::ZERO,
            value: value(0).id(),
            voters: voters.into(),
        };
        let empty = vote(vec![]);
        assert!(empty.validate().is_err());
        // Decoding enforces validation...
        assert!(PaxosMessage::from_bytes(&empty.to_bytes()).is_err());
        // ...and the one canonical voter order: the structural id of a vote
        // is built from its voters, so [3, 1] must not decode to the same
        // message as [1, 3] — nor [1, 1] to the same as [1].
        let sorted = vote(vec![NodeId::new(1), NodeId::new(3)]).to_bytes();
        assert!(PaxosMessage::from_bytes(&sorted).is_ok());
        let (head, voters) = sorted.split_at(sorted.len() - 2);
        assert_eq!(voters, [1, 3]);
        for bad in [[3, 1], [1, 1]] {
            let frame = [head, &bad].concat();
            assert!(matches!(
                PaxosMessage::from_bytes(&frame),
                Err(WireError::Invalid(_))
            ));
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            PaxosMessage::from_bytes(&[99]),
            Err(WireError::InvalidTag(99))
        ));
    }

    #[test]
    fn kind_and_instance_accessors() {
        let msgs = sample_messages();
        assert_eq!(msgs[0].kind(), Kind::ClientValue);
        assert_eq!(msgs[0].instance(), None);
        assert_eq!(msgs[4].kind(), Kind::Phase2b);
        assert_eq!(msgs[5].kind(), Kind::Phase2bAggregated);
        assert_eq!(msgs[6].instance(), Some(InstanceId::new(5)));
    }

    #[test]
    fn trace_tags_carry_kind_instance_and_value_identity() {
        let msgs = sample_messages();
        let p2a = msgs[3].trace_tag().unwrap();
        assert_eq!(p2a.kind, "Phase2a");
        assert_eq!(p2a.instance, 5);
        assert_eq!((p2a.origin, p2a.seq), (1, 1));
        let cv = msgs[0].trace_tag().unwrap();
        assert_eq!(cv.kind, "ClientValue");
        assert_eq!(cv.instance, TraceTag::NO_INSTANCE);
        assert_eq!((cv.origin, cv.seq), (1, 1));
        // Phase 1 messages carry no value: origin/seq are zeroed.
        let p1a = msgs[1].trace_tag().unwrap();
        assert_eq!(p1a.instance, 10);
        assert_eq!((p1a.origin, p1a.seq), (0, 0));
    }

    #[test]
    fn aggregated_size_is_smaller_than_parts() {
        // The paper: an aggregated vote is "an original Phase 2b plus a
        // senders field". With thin votes the original is a dozen bytes, so
        // what aggregation still saves is the repeated header.
        let agg = PaxosMessage::Phase2b {
            instance: InstanceId::new(1),
            round: Round::ZERO,
            value: ValueId::new(NodeId::new(0), 0),
            voters: (0..50).map(NodeId::new).collect(),
        };
        let agg_size = agg.wire_size();
        let parts_size: usize = agg.disaggregate_votes().iter().map(|p| p.wire_size()).sum();
        assert!(agg_size < parts_size / 4, "{agg_size} vs {parts_size}");
    }

    #[test]
    fn a_vote_is_a_dozen_bytes_whatever_the_value_size() {
        let big = Value::new(NodeId::new(3), 700, vec![0; 1024]);
        let vote = PaxosMessage::Phase2b {
            instance: InstanceId::new(70_000),
            round: Round::new(2),
            value: big.id(),
            voters: VoterSet::single(NodeId::new(26)),
        };
        assert!(vote.wire_size() <= 12, "{}", vote.wire_size());
        let proposal = PaxosMessage::Phase2a {
            instance: InstanceId::new(70_000),
            round: Round::new(2),
            value: Proposal::naming(&big),
            sender: NodeId::new(2),
        };
        assert!(proposal.wire_size() <= 12, "{}", proposal.wire_size());
        let proposal = PaxosMessage::Phase2a {
            instance: InstanceId::new(70_000),
            round: Round::new(2),
            value: big.into(),
            sender: NodeId::new(2),
        };
        assert!(proposal.wire_size() > 1024);
    }

    #[test]
    fn a_thin_proposal_names_a_batch_by_its_parts() {
        let batch = Value::batch(NodeId::new(0), 4, &[value(1), value(2), value(3)]);
        let thin = PaxosMessage::Phase2a {
            instance: InstanceId::new(9),
            round: Round::new(1),
            value: Proposal::naming(&batch),
            sender: NodeId::new(0),
        };
        let bytes = thin.to_bytes();
        assert_eq!(bytes.len(), thin.encoded_len());
        assert_eq!(PaxosMessage::from_bytes(&bytes).unwrap(), thin);
        assert_eq!(thin.kind(), Kind::Phase2a);
        assert_eq!(thin.trace_tag().unwrap().seq, batch.id().seq);
        // A thin proposal and the fat one of the same instance and round
        // are one gossip item: a fat retransmission dedups against it.
        let fat = PaxosMessage::Phase2a {
            instance: InstanceId::new(9),
            round: Round::new(1),
            value: batch.clone().into(),
            sender: NodeId::new(0),
        };
        assert_eq!(thin.message_id(), fat.message_id());
        // Parts must fit the id: none for a plain id, two or more plain ids
        // for a batch.
        let named = |id: ValueId, parts: Vec<ValueId>| PaxosMessage::Phase2a {
            instance: InstanceId::new(9),
            round: Round::new(1),
            value: Proposal::Id { id, parts },
            sender: NodeId::new(0),
        };
        let plain = value(1).id();
        assert!(named(plain, vec![]).validate().is_ok());
        for bad in [
            named(plain, vec![value(2).id(), value(3).id()]),
            named(batch.id(), vec![]),
            named(batch.id(), vec![plain]),
            named(batch.id(), vec![plain, batch.id()]),
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }
}
