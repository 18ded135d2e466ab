//! The learner role.
//!
//! A learner discovers decided values in two ways (§3.1 of the paper):
//! directly, from the coordinator's Decision message, or — when Phase 2b
//! votes are visible to everyone, as under gossip — by counting *identical*
//! Phase 2b messages from a majority of acceptors, which "may actually speed
//! up decisions". Decided values are released in instance order with no
//! gaps, the contract state machine replication requires.

use std::collections::{BTreeMap, HashMap, HashSet};

use semantic_gossip::hash::MixState;
use semantic_gossip::NodeId;

use crate::config::PaxosConfig;
use crate::types::{InstanceId, Round, Value, ValueId};
use crate::voters::VoterSet;

/// One in-order delivery slot released by the learner.
///
/// `duplicate` marks a value this learner has already released at a lower
/// instance. Coordinators of different rounds can assign one client value
/// to two instances — e.g. a partitioned round-0 coordinator proposes it on
/// one side while the next round's coordinator, never having seen that
/// proposal, assigns it a fresh instance on the other — and once both
/// instances have acceptances, Paxos safety *requires* later rounds to
/// re-propose the value at both. The learner still releases both slots (the
/// log stays gap-free and identical everywhere), but flags the repeat so the
/// application layer applies each value at most once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered {
    /// The consensus instance this slot decides.
    pub instance: InstanceId,
    /// The decided value.
    pub value: Value,
    /// Whether the value already occupied an earlier slot (apply as no-op).
    pub duplicate: bool,
}

/// The learner state machine of one process.
///
/// # Example
///
/// ```
/// use paxos::{InstanceId, Learner, PaxosConfig, Round, Value};
/// use semantic_gossip::NodeId;
///
/// let mut learner = Learner::new(PaxosConfig::new(3));
/// let v = Value::new(NodeId::new(0), 0, vec![1]);
/// // Two of three processes vote for v: decided.
/// assert!(learner
///     .on_phase2b(InstanceId::ZERO, Round::ZERO, &v, NodeId::new(0))
///     .is_none());
/// assert!(learner
///     .on_phase2b(InstanceId::ZERO, Round::ZERO, &v, NodeId::new(1))
///     .is_some());
/// assert_eq!(learner.take_ordered().len(), 1);
/// ```
/// Per-instance vote bookkeeping: (round, value-id) → (value, voters).
type Tally = HashMap<(Round, ValueId), (Value, VoterSet), MixState>;

#[derive(Debug)]
pub struct Learner {
    config: PaxosConfig,
    /// Vote tallies for undecided instances:
    /// instance → (round, value-id) → (value, voters).
    votes: HashMap<InstanceId, Tally, MixState>,
    decided: BTreeMap<InstanceId, Value>,
    next_to_deliver: InstanceId,
    /// Ids of values already released, to flag cross-instance duplicates.
    delivered_ids: HashSet<ValueId>,
    delivered: u64,
}

impl Learner {
    /// Creates a learner for a deployment.
    pub fn new(config: PaxosConfig) -> Self {
        Learner {
            config,
            votes: HashMap::default(),
            decided: BTreeMap::new(),
            next_to_deliver: InstanceId::ZERO,
            delivered_ids: HashSet::new(),
            delivered: 0,
        }
    }

    /// Records one Phase 2b vote. Returns the decided value when this vote
    /// completes a majority of identical votes for the instance (at most
    /// once per instance).
    pub fn on_phase2b(
        &mut self,
        instance: InstanceId,
        round: Round,
        value: &Value,
        voter: NodeId,
    ) -> Option<Value> {
        if self.is_decided(instance) {
            return None;
        }
        let n = self.config.n;
        let tally = self
            .votes
            .entry(instance)
            .or_default()
            .entry((round, value.id()))
            .or_insert_with(|| (value.clone(), VoterSet::new(n)));
        tally.1.insert(voter);
        if self.config.is_quorum(tally.1.len()) {
            let value = tally.0.clone();
            self.mark_decided(instance, value.clone());
            Some(value)
        } else {
            None
        }
    }

    /// Records a Decision message. Returns the value when the instance was
    /// not already known to be decided.
    pub fn on_decision(&mut self, instance: InstanceId, value: &Value) -> Option<Value> {
        if self.is_decided(instance) {
            return None;
        }
        self.mark_decided(instance, value.clone());
        Some(value.clone())
    }

    fn mark_decided(&mut self, instance: InstanceId, value: Value) {
        debug_assert!(
            !self.decided.contains_key(&instance),
            "instance decided twice"
        );
        self.votes.remove(&instance);
        self.decided.insert(instance, value);
    }

    /// Whether `instance` is known decided (delivered or awaiting delivery).
    pub fn is_decided(&self, instance: InstanceId) -> bool {
        instance < self.next_to_deliver || self.decided.contains_key(&instance)
    }

    /// The decided value of `instance` if still awaiting ordered delivery.
    pub fn decided_value(&self, instance: InstanceId) -> Option<&Value> {
        self.decided.get(&instance)
    }

    /// Releases decided slots in instance order, without gaps: stops at the
    /// first undecided instance. A slot whose value already occupied an
    /// earlier one comes back with [`Delivered::duplicate`] set; it does not
    /// count towards [`delivered_count`](Self::delivered_count).
    pub fn take_ordered(&mut self) -> Vec<Delivered> {
        let mut out = Vec::new();
        while let Some(value) = self.decided.remove(&self.next_to_deliver) {
            let duplicate = !self.delivered_ids.insert(value.id());
            if !duplicate {
                self.delivered += 1;
            }
            out.push(Delivered {
                instance: self.next_to_deliver,
                value,
                duplicate,
            });
            self.next_to_deliver = self.next_to_deliver.next();
        }
        out
    }

    /// The first instance not yet delivered in order.
    pub fn next_to_deliver(&self) -> InstanceId {
        self.next_to_deliver
    }

    /// Total distinct values delivered in order so far (duplicate slots,
    /// applied as no-ops, are not counted).
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Instances decided but blocked behind an undecided gap.
    pub fn blocked_count(&self) -> usize {
        self.decided.len()
    }

    /// The instance window: instances being voted on plus instances
    /// decided but not yet released in order. This is the learner's live
    /// working-set size — the `instance_window` gauge on `/metrics`.
    pub fn open_window(&self) -> usize {
        self.votes.len() + self.decided.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(seq: u64) -> Value {
        Value::new(NodeId::new(9), seq, vec![0; 4])
    }

    fn learner(n: usize) -> Learner {
        Learner::new(PaxosConfig::new(n))
    }

    #[test]
    fn decides_on_majority_of_identical_votes() {
        let mut l = learner(5);
        let v = value(1);
        let i = InstanceId::ZERO;
        assert!(l.on_phase2b(i, Round::ZERO, &v, NodeId::new(0)).is_none());
        assert!(l.on_phase2b(i, Round::ZERO, &v, NodeId::new(1)).is_none());
        let decided = l.on_phase2b(i, Round::ZERO, &v, NodeId::new(2));
        assert_eq!(decided, Some(v));
    }

    #[test]
    fn duplicate_votes_from_same_acceptor_ignored() {
        let mut l = learner(5);
        let v = value(1);
        for _ in 0..10 {
            assert!(l
                .on_phase2b(InstanceId::ZERO, Round::ZERO, &v, NodeId::new(0))
                .is_none());
        }
    }

    #[test]
    fn votes_for_different_values_do_not_mix() {
        let mut l = learner(3);
        let i = InstanceId::ZERO;
        assert!(l
            .on_phase2b(i, Round::ZERO, &value(1), NodeId::new(0))
            .is_none());
        assert!(l
            .on_phase2b(i, Round::ZERO, &value(2), NodeId::new(1))
            .is_none());
        // Identical value from a second voter decides.
        assert!(l
            .on_phase2b(i, Round::ZERO, &value(1), NodeId::new(2))
            .is_some());
    }

    #[test]
    fn votes_from_different_rounds_do_not_mix() {
        let mut l = learner(3);
        let i = InstanceId::ZERO;
        let v = value(1);
        assert!(l.on_phase2b(i, Round::ZERO, &v, NodeId::new(0)).is_none());
        assert!(l.on_phase2b(i, Round::new(1), &v, NodeId::new(1)).is_none());
        assert!(l.on_phase2b(i, Round::new(1), &v, NodeId::new(2)).is_some());
    }

    #[test]
    fn decision_message_short_circuits() {
        let mut l = learner(5);
        assert_eq!(l.on_decision(InstanceId::new(3), &value(9)), Some(value(9)));
        assert!(l.is_decided(InstanceId::new(3)));
        // Further votes or decisions for the instance are ignored.
        assert!(l.on_decision(InstanceId::new(3), &value(9)).is_none());
        assert!(l
            .on_phase2b(InstanceId::new(3), Round::ZERO, &value(9), NodeId::new(0))
            .is_none());
    }

    #[test]
    fn ordered_delivery_has_no_gaps() {
        let mut l = learner(1);
        l.on_decision(InstanceId::new(1), &value(1));
        l.on_decision(InstanceId::new(2), &value(2));
        // Instance 0 undecided: nothing delivered.
        assert!(l.take_ordered().is_empty());
        assert_eq!(l.blocked_count(), 2);
        l.on_decision(InstanceId::ZERO, &value(0));
        let delivered = l.take_ordered();
        let instances: Vec<u64> = delivered.iter().map(|d| d.instance.as_u64()).collect();
        assert_eq!(instances, vec![0, 1, 2]);
        assert!(delivered.iter().all(|d| !d.duplicate));
        assert_eq!(l.delivered_count(), 3);
        assert_eq!(l.next_to_deliver(), InstanceId::new(3));
        assert_eq!(l.blocked_count(), 0);
    }

    #[test]
    fn value_decided_at_two_instances_is_flagged_duplicate() {
        // Two coordinators (different rounds, e.g. across a partition) can
        // assign the same client value to two instances; both decide. The
        // learner must release both slots — the log stays gap-free — but
        // flag the repeat so the application applies the value once.
        let mut l = learner(1);
        l.on_decision(InstanceId::ZERO, &value(7));
        l.on_decision(InstanceId::new(1), &value(8));
        l.on_decision(InstanceId::new(2), &value(7));
        let delivered = l.take_ordered();
        assert_eq!(delivered.len(), 3);
        let flags: Vec<bool> = delivered.iter().map(|d| d.duplicate).collect();
        assert_eq!(flags, vec![false, false, true]);
        assert_eq!(l.delivered_count(), 2, "duplicate slot is a no-op");
        assert_eq!(l.next_to_deliver(), InstanceId::new(3));
    }

    #[test]
    fn decided_instance_is_remembered_after_delivery() {
        let mut l = learner(1);
        l.on_decision(InstanceId::ZERO, &value(0));
        l.take_ordered();
        assert!(l.is_decided(InstanceId::ZERO));
        assert!(l.on_decision(InstanceId::ZERO, &value(0)).is_none());
    }

    #[test]
    fn quorum_respects_system_size() {
        // n = 105 needs 53 identical votes.
        let mut l = learner(105);
        let v = value(1);
        for voter in 0..52 {
            assert!(l
                .on_phase2b(InstanceId::ZERO, Round::ZERO, &v, NodeId::new(voter))
                .is_none());
        }
        assert!(l
            .on_phase2b(InstanceId::ZERO, Round::ZERO, &v, NodeId::new(52))
            .is_some());
    }

    #[test]
    fn tallies_are_dropped_after_decision() {
        let mut l = learner(3);
        let v = value(1);
        l.on_phase2b(InstanceId::ZERO, Round::ZERO, &v, NodeId::new(0));
        l.on_phase2b(InstanceId::ZERO, Round::ZERO, &v, NodeId::new(1));
        assert!(l.votes.is_empty(), "tally should be garbage-collected");
    }
}
