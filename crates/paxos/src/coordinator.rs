//! The coordinator (proposer) role.
//!
//! A coordinator owns one round. It runs Phase 1 once, covering every
//! instance from its low-water mark on; once a majority has promised, it is
//! *prepared*: values reported in Phase 1b are re-proposed at their
//! instances, and fresh client values are proposed in Phase 2 of subsequent
//! instances — the paper's regular operation, where "the decision of a value
//! only requires the execution of Phase 2" (§2.3).
//!
//! A fresh proposal names its value by id when
//! [`PaxosConfig::values_broadcast`] says every process already received
//! the value in its `ClientValue` ([`Proposal::Id`]). Re-proposals of
//! Phase 1b reports and retransmissions always carry the value: the flood
//! that brought it may be long over.

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

use semantic_gossip::NodeId;

use crate::config::PaxosConfig;
use crate::message::{AcceptedEntry, PaxosMessage, Proposal};
use crate::types::{InstanceId, Round, Value, ValueId};

/// The coordinator state machine for one round.
///
/// Created by [`Coordinator::start`], which yields the Phase 1a message to
/// broadcast. Not prepared until [`Coordinator::on_phase1b`] has seen a
/// majority of promises; client values submitted before that queue up.
#[derive(Debug)]
pub struct Coordinator {
    id: NodeId,
    config: PaxosConfig,
    round: Round,
    from_instance: InstanceId,
    prepared: bool,
    promises: BTreeSet<NodeId>,
    /// Highest-round accepted value reported per instance (Phase 1b data).
    reports: BTreeMap<InstanceId, (Round, Value)>,
    next_instance: InstanceId,
    pending: VecDeque<Value>,
    proposed_ids: HashSet<ValueId>,
    /// Proposed but not yet decided: instance → value (for retransmission).
    open: BTreeMap<InstanceId, Value>,
    /// Per-round counter feeding [`Value::batch`] ids (round-qualified so a
    /// process coordinating a later round never reuses a batch id).
    batch_counter: u64,
}

impl Coordinator {
    /// Starts a round: returns the coordinator and the Phase 1a message to
    /// send to all processes, covering instances `>= from_instance`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the coordinator of `round` in this config's
    /// group (see [`Round::coordinator_at`]).
    pub fn start(
        id: NodeId,
        config: PaxosConfig,
        round: Round,
        from_instance: InstanceId,
    ) -> (Self, PaxosMessage) {
        assert_eq!(
            round.coordinator_at(config.group, config.n),
            id,
            "process {id} cannot coordinate {round} of group {}",
            config.group
        );
        let coordinator = Coordinator {
            id,
            config,
            round,
            from_instance,
            prepared: false,
            promises: BTreeSet::new(),
            reports: BTreeMap::new(),
            next_instance: from_instance,
            pending: VecDeque::new(),
            proposed_ids: HashSet::new(),
            open: BTreeMap::new(),
            batch_counter: 0,
        };
        let phase1a = PaxosMessage::Phase1a {
            round,
            from_instance,
            sender: id,
        };
        (coordinator, phase1a)
    }

    /// The round this coordinator drives.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The first instance covered by this round's Phase 1.
    pub fn covered_from(&self) -> InstanceId {
        self.from_instance
    }

    /// Whether Phase 1 completed (a majority promised).
    pub fn is_prepared(&self) -> bool {
        self.prepared
    }

    /// Number of proposed-but-undecided instances.
    pub fn open_instances(&self) -> usize {
        self.open.len()
    }

    /// Number of client values queued behind the open-instance window.
    pub fn queued_values(&self) -> usize {
        self.pending.len()
    }

    /// Handles a Phase 1b promise for this round. Returns the Phase 2a
    /// messages unlocked by it: on reaching a majority, re-proposals of
    /// every reported value followed by any queued client values.
    pub fn on_phase1b(
        &mut self,
        round: Round,
        sender: NodeId,
        accepted: &[AcceptedEntry],
    ) -> Vec<PaxosMessage> {
        if round != self.round || self.prepared {
            return Vec::new();
        }
        if !self.promises.insert(sender) {
            return Vec::new(); // duplicate promise
        }
        for entry in accepted {
            let update = match self.reports.get(&entry.instance) {
                Some((r, _)) => entry.round > *r,
                None => true,
            };
            if update {
                self.reports
                    .insert(entry.instance, (entry.round, entry.value.clone()));
            }
        }
        if !self.config.is_quorum(self.promises.len()) {
            return Vec::new();
        }
        self.prepared = true;

        // Re-propose every reported value at its instance (Paxos safety:
        // a value possibly chosen in a lower round must be proposed again).
        let mut out = Vec::new();
        let reports = std::mem::take(&mut self.reports);
        for (instance, (_, value)) in reports {
            self.proposed_ids.insert(value.id());
            self.open.insert(instance, value.clone());
            self.next_instance = self.next_instance.max(instance.next());
            out.push(PaxosMessage::Phase2a {
                instance,
                round: self.round,
                value: value.into(),
                sender: self.id,
            });
        }
        out.extend(self.flush_pending());
        out
    }

    /// Proposes a client value: immediately (Phase 2a) when prepared and the
    /// open-instance window allows, queued otherwise. Values already
    /// proposed (same [`ValueId`]) are ignored.
    pub fn propose(&mut self, value: Value) -> Vec<PaxosMessage> {
        if self.proposed_ids.contains(&value.id()) {
            return Vec::new();
        }
        self.pending.push_back(value);
        self.flush_pending()
    }

    /// Marks `instance` decided, shrinking the open window and possibly
    /// unlocking queued proposals.
    pub fn on_decided(&mut self, instance: InstanceId) -> Vec<PaxosMessage> {
        self.open.remove(&instance);
        self.flush_pending()
    }

    /// Re-emits Phase 2a for every open instance (coordinator-side
    /// retransmission; disabled in the paper's reliability experiments).
    pub fn retransmit(&self) -> Vec<PaxosMessage> {
        self.open
            .iter()
            .map(|(&instance, value)| PaxosMessage::Phase2a {
                instance,
                round: self.round,
                value: value.clone().into(),
                sender: self.id,
            })
            .collect()
    }

    /// The first instance not yet assigned by this coordinator.
    pub fn next_instance(&self) -> InstanceId {
        self.next_instance
    }

    /// Tears a superseded coordinator down, yielding every value it was
    /// still responsible for: proposed-but-undecided instances first, then
    /// the queued backlog, deduplicated by value id.
    ///
    /// Paxos safety never needs these — anything possibly chosen is
    /// re-proposed by the new round's Phase 1. Liveness does: a value that
    /// never reached a quorum of acceptors is reported by no Phase 1b and
    /// would die with the demoted coordinator unless the caller re-forwards
    /// it to the new one.
    pub fn into_undecided(self) -> Vec<Value> {
        let mut seen = HashSet::new();
        self.open
            .into_values()
            .chain(self.pending)
            .filter(|v| seen.insert(v.id()))
            .collect()
    }

    /// A fresh batch-value sequence number, unique across this process's
    /// coordinator incarnations: the round rides in the high bits, a
    /// per-round counter in the low 24 (see [`crate::types::BATCH_SEQ_BIT`]
    /// for the tag above both).
    ///
    /// # Panics
    ///
    /// Panics if the round exceeds 15 bits or 2²⁴ batches were built in one
    /// round — both far beyond any realistic run.
    fn next_batch_seq(&mut self) -> u64 {
        let round = self.round.as_u32() as u64;
        assert!(round < (1 << 15), "round too high for batch ids");
        assert!(self.batch_counter < (1 << 24), "batch counter overflow");
        let seq = (round << 24) | self.batch_counter;
        self.batch_counter += 1;
        seq
    }

    fn flush_pending(&mut self) -> Vec<PaxosMessage> {
        let mut out = Vec::new();
        if !self.prepared {
            return out;
        }
        let max_batch = self.config.batch_values.max(1);
        while self.open.len() < self.config.max_open_instances {
            // Drain up to `batch_values` fresh client values for the next
            // instance. A salvaged batch value (re-forwarded whole from a
            // demoted coordinator) travels alone — batches never nest.
            let mut batch: Vec<Value> = Vec::new();
            while batch.len() < max_batch {
                let Some(value) = self.pending.pop_front() else {
                    break;
                };
                if self.proposed_ids.contains(&value.id()) {
                    continue;
                }
                if value.is_batch() && !batch.is_empty() {
                    self.pending.push_front(value);
                    break;
                }
                let close = value.is_batch();
                self.proposed_ids.insert(value.id());
                batch.push(value);
                if close {
                    break;
                }
            }
            let value = match batch.len() {
                0 => break,
                1 => batch.pop().expect("len checked"),
                _ => {
                    let v = Value::batch(self.id, self.next_batch_seq(), &batch);
                    self.proposed_ids.insert(v.id());
                    v
                }
            };
            let instance = self.next_instance;
            self.next_instance = instance.next();
            let proposal = if self.config.values_broadcast {
                Proposal::naming(&value)
            } else {
                Proposal::Value(value.clone())
            };
            self.open.insert(instance, value);
            out.push(PaxosMessage::Phase2a {
                instance,
                round: self.round,
                value: proposal,
                sender: self.id,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(seq: u64) -> Value {
        Value::new(NodeId::new(7), seq, vec![seq as u8; 4])
    }

    fn entry(instance: u64, round: u32, seq: u64) -> AcceptedEntry {
        AcceptedEntry {
            instance: InstanceId::new(instance),
            round: Round::new(round),
            value: value(seq),
        }
    }

    fn prepared_coordinator(n: usize) -> Coordinator {
        let config = PaxosConfig::new(n);
        let (mut c, _) = Coordinator::start(
            NodeId::new(0),
            config.clone(),
            Round::ZERO,
            InstanceId::ZERO,
        );
        for i in 0..config.quorum() {
            c.on_phase1b(Round::ZERO, NodeId::new(i as u32), &[]);
        }
        assert!(c.is_prepared());
        c
    }

    #[test]
    fn start_emits_phase1a() {
        let (c, msg) = Coordinator::start(
            NodeId::new(0),
            PaxosConfig::new(3),
            Round::ZERO,
            InstanceId::new(5),
        );
        assert!(!c.is_prepared());
        match msg {
            PaxosMessage::Phase1a {
                round,
                from_instance,
                sender,
            } => {
                assert_eq!(round, Round::ZERO);
                assert_eq!(from_instance, InstanceId::new(5));
                assert_eq!(sender, NodeId::new(0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "cannot coordinate")]
    fn wrong_coordinator_panics() {
        Coordinator::start(
            NodeId::new(1),
            PaxosConfig::new(3),
            Round::ZERO,
            InstanceId::ZERO,
        );
    }

    #[test]
    fn prepares_on_majority_not_before() {
        let (mut c, _) = Coordinator::start(
            NodeId::new(0),
            PaxosConfig::new(5),
            Round::ZERO,
            InstanceId::ZERO,
        );
        assert!(c.on_phase1b(Round::ZERO, NodeId::new(0), &[]).is_empty());
        assert!(!c.is_prepared());
        assert!(c.on_phase1b(Round::ZERO, NodeId::new(1), &[]).is_empty());
        assert!(!c.is_prepared());
        c.on_phase1b(Round::ZERO, NodeId::new(2), &[]);
        assert!(c.is_prepared());
    }

    #[test]
    fn duplicate_promises_do_not_count() {
        let (mut c, _) = Coordinator::start(
            NodeId::new(0),
            PaxosConfig::new(5),
            Round::ZERO,
            InstanceId::ZERO,
        );
        for _ in 0..5 {
            c.on_phase1b(Round::ZERO, NodeId::new(1), &[]);
        }
        assert!(!c.is_prepared());
    }

    #[test]
    fn wrong_round_promises_ignored() {
        let (mut c, _) = Coordinator::start(
            NodeId::new(0),
            PaxosConfig::new(3),
            Round::ZERO,
            InstanceId::ZERO,
        );
        c.on_phase1b(Round::new(3), NodeId::new(0), &[]);
        c.on_phase1b(Round::new(3), NodeId::new(1), &[]);
        assert!(!c.is_prepared());
    }

    #[test]
    fn reported_values_are_reproposed_highest_round_wins() {
        let (mut c, _) = Coordinator::start(
            NodeId::new(0),
            PaxosConfig::new(3),
            Round::new(3),
            InstanceId::ZERO,
        );
        // Two acceptors report different values for instance 1 from
        // different rounds; the higher round must win.
        c.on_phase1b(Round::new(3), NodeId::new(1), &[entry(1, 1, 100)]);
        let out = c.on_phase1b(Round::new(3), NodeId::new(2), &[entry(1, 2, 200)]);
        assert_eq!(out.len(), 1);
        match &out[0] {
            PaxosMessage::Phase2a {
                instance,
                round,
                value: v,
                ..
            } => {
                assert_eq!(*instance, InstanceId::new(1));
                assert_eq!(*round, Round::new(3));
                assert_eq!(v.id(), value(200).id());
            }
            other => panic!("unexpected {other:?}"),
        }
        // New client values go to instances after the reported ones.
        let out = c.propose(value(7));
        assert_eq!(out.len(), 1);
        match &out[0] {
            PaxosMessage::Phase2a { instance, .. } => {
                assert_eq!(*instance, InstanceId::new(2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn values_queue_until_prepared() {
        let (mut c, _) = Coordinator::start(
            NodeId::new(0),
            PaxosConfig::new(3),
            Round::ZERO,
            InstanceId::ZERO,
        );
        assert!(c.propose(value(1)).is_empty());
        assert_eq!(c.queued_values(), 1);
        c.on_phase1b(Round::ZERO, NodeId::new(0), &[]);
        let out = c.on_phase1b(Round::ZERO, NodeId::new(1), &[]);
        assert_eq!(out.len(), 1);
        assert_eq!(c.queued_values(), 0);
        assert_eq!(c.open_instances(), 1);
    }

    #[test]
    fn duplicate_values_proposed_once() {
        let mut c = prepared_coordinator(3);
        assert_eq!(c.propose(value(1)).len(), 1);
        assert!(c.propose(value(1)).is_empty());
        assert_eq!(c.open_instances(), 1);
    }

    #[test]
    fn instances_are_assigned_sequentially() {
        let mut c = prepared_coordinator(3);
        let instances: Vec<InstanceId> = (0..5)
            .flat_map(|i| c.propose(value(i)))
            .map(|m| match m {
                PaxosMessage::Phase2a { instance, .. } => instance,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(instances, (0..5).map(InstanceId::new).collect::<Vec<_>>());
    }

    #[test]
    fn open_window_limits_proposals() {
        let config = PaxosConfig {
            max_open_instances: 2,
            ..PaxosConfig::new(3)
        };
        let (mut c, _) = Coordinator::start(NodeId::new(0), config, Round::ZERO, InstanceId::ZERO);
        c.on_phase1b(Round::ZERO, NodeId::new(0), &[]);
        c.on_phase1b(Round::ZERO, NodeId::new(1), &[]);
        for i in 0..4 {
            c.propose(value(i));
        }
        assert_eq!(c.open_instances(), 2);
        assert_eq!(c.queued_values(), 2);
        // Deciding one instance unlocks one queued value.
        let out = c.on_decided(InstanceId::ZERO);
        assert_eq!(out.len(), 1);
        assert_eq!(c.open_instances(), 2);
        assert_eq!(c.queued_values(), 1);
    }

    #[test]
    fn group_offset_rotates_leadership() {
        // Group 2 of a 3-process system: round 0 is led by process 2.
        let config = PaxosConfig::new(3).with_group(2);
        let (c, _) = Coordinator::start(NodeId::new(2), config, Round::ZERO, InstanceId::ZERO);
        assert_eq!(c.round(), Round::ZERO);
    }

    #[test]
    #[should_panic(expected = "cannot coordinate")]
    fn group_offset_rejects_the_ungrouped_leader() {
        // Process 0 leads round 0 of group 0, but not of group 2.
        let config = PaxosConfig::new(3).with_group(2);
        Coordinator::start(NodeId::new(0), config, Round::ZERO, InstanceId::ZERO);
    }

    fn prepared_with(config: PaxosConfig) -> Coordinator {
        let quorum = config.quorum();
        let (mut c, _) = Coordinator::start(NodeId::new(0), config, Round::ZERO, InstanceId::ZERO);
        for i in 0..quorum {
            c.on_phase1b(Round::ZERO, NodeId::new(i as u32), &[]);
        }
        assert!(c.is_prepared());
        c
    }

    #[test]
    fn backlogged_values_flush_as_one_batch() {
        // Window 1, batch 3: the first value opens instance 0 alone; the
        // backlog behind it is packed three-per-instance once it closes.
        let config = PaxosConfig::new(3)
            .with_max_open_instances(1)
            .with_batch_values(3);
        let mut c = prepared_with(config);
        for i in 0..7 {
            c.propose(value(i));
        }
        assert_eq!(c.open_instances(), 1);
        assert_eq!(c.queued_values(), 6);
        let out = c.on_decided(InstanceId::ZERO);
        assert_eq!(out.len(), 1);
        let PaxosMessage::Phase2a {
            instance, value: v, ..
        } = &out[0]
        else {
            panic!("unexpected {out:?}");
        };
        assert_eq!(*instance, InstanceId::new(1));
        // The batch is named by its id and its parts' ids, in order.
        let Proposal::Id { id, parts } = v else {
            panic!("a fresh batch proposal names its value: {v:?}");
        };
        assert!(id.is_batch());
        assert_eq!(parts, &vec![value(1).id(), value(2).id(), value(3).id()]);
        assert_eq!(c.queued_values(), 3);
        // Distinct batches get distinct ids.
        let out2 = c.on_decided(InstanceId::new(1));
        let PaxosMessage::Phase2a { value: v2, .. } = &out2[0] else {
            panic!("unexpected {out2:?}");
        };
        assert!(v2.id().is_batch());
        assert_ne!(v2.id(), v.id());
        // A retransmission carries the batch itself, parts and all.
        let again = c.retransmit();
        let PaxosMessage::Phase2a {
            value: Proposal::Value(whole),
            ..
        } = &again[0]
        else {
            panic!("unexpected {again:?}");
        };
        assert_eq!(whole.id(), v2.id());
        assert_eq!(whole.components().unwrap().len(), 3);
    }

    #[test]
    fn batch_of_one_stays_plain() {
        let config = PaxosConfig::new(3).with_batch_values(4);
        let mut c = prepared_with(config);
        let out = c.propose(value(1));
        let PaxosMessage::Phase2a { value: v, .. } = &out[0] else {
            panic!("unexpected {out:?}");
        };
        assert_eq!(v, &Proposal::naming(&value(1)));
        assert!(!v.id().is_batch());
    }

    #[test]
    fn salvaged_batches_are_never_nested() {
        // A batch value re-forwarded from a demoted coordinator must be
        // proposed whole, not packed inside a fresh batch.
        let inner = Value::batch(NodeId::new(1), 0, &[value(10), value(11)]);
        let config = PaxosConfig::new(3)
            .with_max_open_instances(1)
            .with_batch_values(3);
        let mut c = prepared_with(config);
        c.propose(value(0)); // opens instance 0
        c.propose(value(1));
        c.propose(inner.clone());
        c.propose(value(2));
        // Backlog: [v1, batch, v2]. v1 flushes alone (the batch closes the
        // run), then the salvaged batch alone, then v2.
        let out = c.on_decided(InstanceId::ZERO);
        let PaxosMessage::Phase2a { value: first, .. } = &out[0] else {
            panic!("unexpected {out:?}");
        };
        assert_eq!(first.id(), value(1).id());
        let out = c.on_decided(InstanceId::new(1));
        let PaxosMessage::Phase2a { value: second, .. } = &out[0] else {
            panic!("unexpected {out:?}");
        };
        assert_eq!(second, &Proposal::naming(&inner));
        let Proposal::Id { parts, .. } = second else {
            panic!("unexpected {second:?}");
        };
        assert_eq!(parts, &vec![value(10).id(), value(11).id()]);
    }

    #[test]
    fn only_fresh_proposals_name_their_value_and_only_when_values_are_broadcast() {
        let fresh = |config: PaxosConfig| {
            let mut c = prepared_with(config);
            let out = c.propose(value(1));
            let PaxosMessage::Phase2a { value, .. } = &out[0] else {
                panic!("unexpected {out:?}");
            };
            value.clone()
        };
        assert_eq!(fresh(PaxosConfig::new(3)), Proposal::naming(&value(1)));
        let direct = PaxosConfig {
            values_broadcast: false,
            ..PaxosConfig::new(3)
        };
        assert_eq!(fresh(direct), Proposal::Value(value(1)));
        // A value reported in Phase 1b is re-proposed with its value.
        let (mut c, _) = Coordinator::start(
            NodeId::new(0),
            PaxosConfig::new(3),
            Round::new(3),
            InstanceId::ZERO,
        );
        c.on_phase1b(Round::new(3), NodeId::new(1), &[entry(0, 1, 100)]);
        let out = c.on_phase1b(Round::new(3), NodeId::new(2), &[]);
        assert!(matches!(
            &out[0],
            PaxosMessage::Phase2a { value: Proposal::Value(v), .. } if v == &value(100)
        ));
    }

    #[test]
    fn into_undecided_returns_open_then_queued_without_duplicates() {
        let config = PaxosConfig {
            max_open_instances: 1,
            ..PaxosConfig::new(3)
        };
        let (mut c, _) = Coordinator::start(NodeId::new(0), config, Round::ZERO, InstanceId::ZERO);
        c.on_phase1b(Round::ZERO, NodeId::new(0), &[]);
        c.on_phase1b(Round::ZERO, NodeId::new(1), &[]);
        c.propose(value(1)); // open at instance 0
        c.propose(value(2)); // queued behind the window
        c.propose(value(1)); // duplicate, ignored
        let salvaged = c.into_undecided();
        let ids: Vec<ValueId> = salvaged.iter().map(Value::id).collect();
        assert_eq!(ids, vec![value(1).id(), value(2).id()]);
    }

    #[test]
    fn into_undecided_skips_decided_instances() {
        let mut c = prepared_coordinator(3);
        c.propose(value(1));
        c.propose(value(2));
        c.on_decided(InstanceId::ZERO);
        let salvaged = c.into_undecided();
        assert_eq!(salvaged.len(), 1);
        assert_eq!(salvaged[0].id(), value(2).id());
    }

    #[test]
    fn retransmit_covers_open_instances() {
        let mut c = prepared_coordinator(3);
        c.propose(value(1));
        c.propose(value(2));
        c.on_decided(InstanceId::ZERO);
        let again = c.retransmit();
        assert_eq!(again.len(), 1);
        match &again[0] {
            PaxosMessage::Phase2a { instance, .. } => {
                assert_eq!(*instance, InstanceId::new(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
