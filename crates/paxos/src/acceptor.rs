//! The acceptor role.
//!
//! An acceptor answers Phase 1a messages with promises (Phase 1b) and
//! Phase 2a messages with votes (Phase 2b), never accepting proposals from
//! rounds older than its promise. The promise covers *all* instances — the
//! multi-instance formulation the paper uses, where a new coordinator starts
//! its round "in multiple instances of consensus at once" (§2.3).

use std::collections::BTreeMap;

use semantic_gossip::NodeId;

use crate::message::{AcceptedEntry, PaxosMessage};
use crate::storage::{MemoryStorage, StableStorage};
use crate::types::{InstanceId, Round, Value};
use crate::voters::VoterSet;

/// The acceptor state machine of one process.
///
/// Writes through a [`StableStorage`] before answering, so a crashed
/// acceptor can be [recovered](Acceptor::recover) without endangering
/// safety.
///
/// # Example
///
/// ```
/// use paxos::{Acceptor, InstanceId, Round, Value};
/// use semantic_gossip::NodeId;
///
/// let mut acc = Acceptor::new(NodeId::new(1));
/// let vote = acc
///     .on_phase2a(InstanceId::ZERO, Round::ZERO, Value::new(NodeId::new(0), 0, vec![]))
///     .expect("first proposal is accepted");
/// assert!(matches!(vote, paxos::PaxosMessage::Phase2b { .. }));
/// ```
#[derive(Debug)]
pub struct Acceptor<S = MemoryStorage> {
    id: NodeId,
    storage: S,
    promised: Round,
    accepted: BTreeMap<InstanceId, (Round, Value)>,
}

impl Acceptor<MemoryStorage> {
    /// Creates a fresh acceptor with in-memory storage.
    pub fn new(id: NodeId) -> Self {
        Acceptor::with_storage(id, MemoryStorage::default())
    }
}

impl<S: StableStorage> Acceptor<S> {
    /// Creates an acceptor over the given storage, restoring any persisted
    /// state (this is also the crash-recovery path).
    pub fn with_storage(id: NodeId, storage: S) -> Self {
        let (promised, entries) = storage.load();
        let accepted = entries.into_iter().map(|(i, r, v)| (i, (r, v))).collect();
        Acceptor {
            id,
            storage,
            promised,
            accepted,
        }
    }

    /// Rebuilds an acceptor from its storage after a crash.
    pub fn recover(id: NodeId, storage: S) -> Self {
        Acceptor::with_storage(id, storage)
    }

    /// This acceptor's process id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The highest round promised so far.
    pub fn promised(&self) -> Round {
        self.promised
    }

    /// The value (and round) accepted in `instance`, if any.
    pub fn accepted(&self, instance: InstanceId) -> Option<&(Round, Value)> {
        self.accepted.get(&instance)
    }

    /// Consumes the acceptor, returning its storage (used by crash
    /// simulations to keep the durable part).
    pub fn into_storage(self) -> S {
        self.storage
    }

    /// Handles a Phase 1a message: promises `round` and reports accepted
    /// values for instances `>= from_instance`.
    ///
    /// Returns `None` — no reply, as the paper's algorithm stays silent — if
    /// a higher round was already promised.
    pub fn on_phase1a(&mut self, round: Round, from_instance: InstanceId) -> Option<PaxosMessage> {
        if round < self.promised {
            return None;
        }
        if round > self.promised {
            self.storage.save_promise(round);
            self.promised = round;
        }
        let accepted = self
            .accepted
            .range(from_instance..)
            .map(|(&instance, (r, v))| AcceptedEntry {
                instance,
                round: *r,
                value: v.clone(),
            })
            .collect();
        Some(PaxosMessage::Phase1b {
            round,
            sender: self.id,
            accepted,
        })
    }

    /// Handles a Phase 2a message: accepts `value` in `instance` unless a
    /// higher round was promised, and returns the Phase 2b vote, which
    /// names the value by its id.
    pub fn on_phase2a(
        &mut self,
        instance: InstanceId,
        round: Round,
        value: Value,
    ) -> Option<PaxosMessage> {
        if round < self.promised {
            return None;
        }
        if round > self.promised {
            self.storage.save_promise(round);
            self.promised = round;
        }
        self.storage.save_accept(instance, round, &value);
        let vote = PaxosMessage::Phase2b {
            instance,
            round,
            value: value.id(),
            voters: VoterSet::single(self.id),
        };
        self.accepted.insert(instance, (round, value));
        Some(vote)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(seq: u64) -> Value {
        Value::new(NodeId::new(9), seq, vec![7; 8])
    }

    #[test]
    fn first_phase1a_promises_with_empty_report() {
        let mut acc = Acceptor::new(NodeId::new(1));
        let reply = acc.on_phase1a(Round::new(1), InstanceId::ZERO).unwrap();
        match reply {
            PaxosMessage::Phase1b {
                round,
                sender,
                accepted,
            } => {
                assert_eq!(round, Round::new(1));
                assert_eq!(sender, NodeId::new(1));
                assert!(accepted.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(acc.promised(), Round::new(1));
    }

    #[test]
    fn stale_phase1a_is_ignored() {
        let mut acc = Acceptor::new(NodeId::new(1));
        acc.on_phase1a(Round::new(5), InstanceId::ZERO);
        assert!(acc.on_phase1a(Round::new(3), InstanceId::ZERO).is_none());
        // Re-answering the same round is allowed (idempotent promise).
        assert!(acc.on_phase1a(Round::new(5), InstanceId::ZERO).is_some());
    }

    #[test]
    fn phase2a_accepts_and_votes() {
        let mut acc = Acceptor::new(NodeId::new(2));
        let vote = acc
            .on_phase2a(InstanceId::new(3), Round::ZERO, value(1))
            .unwrap();
        match vote {
            PaxosMessage::Phase2b {
                instance,
                round,
                value: v,
                voters,
            } => {
                assert_eq!(instance, InstanceId::new(3));
                assert_eq!(round, Round::ZERO);
                assert_eq!(v, value(1).id());
                assert_eq!(voters, vec![NodeId::new(2)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(acc.accepted(InstanceId::new(3)).unwrap().1, value(1));
    }

    #[test]
    fn stale_phase2a_rejected_after_promise() {
        let mut acc = Acceptor::new(NodeId::new(1));
        acc.on_phase1a(Round::new(4), InstanceId::ZERO);
        assert!(acc
            .on_phase2a(InstanceId::ZERO, Round::new(2), value(1))
            .is_none());
        assert!(acc.accepted(InstanceId::ZERO).is_none());
    }

    #[test]
    fn phase2a_with_newer_round_raises_promise() {
        let mut acc = Acceptor::new(NodeId::new(1));
        acc.on_phase2a(InstanceId::ZERO, Round::new(3), value(1));
        assert_eq!(acc.promised(), Round::new(3));
        // A subsequent 1a for an older round is now refused.
        assert!(acc.on_phase1a(Round::new(2), InstanceId::ZERO).is_none());
    }

    #[test]
    fn phase1b_reports_only_requested_range() {
        let mut acc = Acceptor::new(NodeId::new(1));
        acc.on_phase2a(InstanceId::new(1), Round::ZERO, value(1));
        acc.on_phase2a(InstanceId::new(5), Round::ZERO, value(5));
        let reply = acc.on_phase1a(Round::new(1), InstanceId::new(2)).unwrap();
        match reply {
            PaxosMessage::Phase1b { accepted, .. } => {
                assert_eq!(accepted.len(), 1);
                assert_eq!(accepted[0].instance, InstanceId::new(5));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn later_accept_overwrites_in_same_instance() {
        let mut acc = Acceptor::new(NodeId::new(1));
        acc.on_phase2a(InstanceId::ZERO, Round::ZERO, value(1));
        acc.on_phase2a(InstanceId::ZERO, Round::new(2), value(2));
        let (round, v) = acc.accepted(InstanceId::ZERO).unwrap().clone();
        assert_eq!(round, Round::new(2));
        assert_eq!(v, value(2));
    }

    #[test]
    fn recovery_restores_promise_and_accepts() {
        let mut acc = Acceptor::new(NodeId::new(1));
        acc.on_phase1a(Round::new(7), InstanceId::ZERO);
        acc.on_phase2a(InstanceId::new(2), Round::new(7), value(9));
        let storage = acc.into_storage();

        // Crash, then recover from storage.
        let mut recovered = Acceptor::recover(NodeId::new(1), storage);
        assert_eq!(recovered.promised(), Round::new(7));
        assert_eq!(recovered.accepted(InstanceId::new(2)).unwrap().1, value(9));
        // The recovered acceptor still refuses stale rounds.
        assert!(recovered
            .on_phase1a(Round::new(3), InstanceId::ZERO)
            .is_none());
        // And reports its accepted value in Phase 1b for newer rounds.
        let reply = recovered
            .on_phase1a(Round::new(8), InstanceId::ZERO)
            .unwrap();
        match reply {
            PaxosMessage::Phase1b { accepted, .. } => {
                assert_eq!(accepted.len(), 1);
                assert_eq!(accepted[0].value, value(9));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
