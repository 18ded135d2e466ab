//! The learner role.
//!
//! A learner discovers decided values in two ways (§3.1 of the paper):
//! directly, from the coordinator's Decision message, or — when Phase 2b
//! votes are visible to everyone, as under gossip — by counting *identical*
//! Phase 2b messages from a majority of acceptors, which "may actually speed
//! up decisions". Decided values are released in instance order with no
//! gaps, the contract state machine replication requires.
//!
//! Votes are thin: a Phase 2b names its value by id. The learner therefore
//! also keeps the value each `Phase2a` proposed, per `(instance, round)`,
//! and joins a quorum to the proposal of the *same* round — never by value
//! id alone, so an id that turns up again in another round cannot alias. A
//! quorum that completes before its proposal arrives is held ("chosen,
//! awaiting value") until that `Phase2a`, or a Decision, supplies the value.

use std::collections::{BTreeMap, HashMap, HashSet};

use semantic_gossip::hash::MixState;

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

/// What the learner holds for one undecided instance. Both lists have one
/// entry unless rounds compete for the instance.
#[derive(Debug, Default)]
struct OpenInstance {
    /// The value each round's `Phase2a` proposed.
    proposals: Vec<(Round, Value)>,
    /// Distinct voters per `(round, value id)`.
    tallies: Vec<(Round, ValueId, VoterSet)>,
    /// A tally reached a quorum before its round's proposal arrived.
    awaiting_value: bool,
}

/// The learner state machine of one process.
///
/// # Example
///
/// ```
/// use paxos::{InstanceId, Learner, PaxosConfig, Round, Value, VoterSet};
/// use semantic_gossip::NodeId;
///
/// let mut learner = Learner::new(PaxosConfig::new(3));
/// let v = Value::new(NodeId::new(0), 0, vec![1]);
/// let vote = |voter| VoterSet::single(NodeId::new(voter));
/// // The proposal supplies the value; two of three processes voting for
/// // its id decide it.
/// assert!(learner.on_phase2a(InstanceId::ZERO, Round::ZERO, &v).is_none());
/// assert!(learner
///     .on_phase2b(InstanceId::ZERO, Round::ZERO, v.id(), &vote(0))
///     .is_none());
/// assert_eq!(
///     learner.on_phase2b(InstanceId::ZERO, Round::ZERO, v.id(), &vote(1)),
///     Some(v)
/// );
/// assert_eq!(learner.take_ordered().len(), 1);
/// ```
#[derive(Debug)]
pub struct Learner {
    config: PaxosConfig,
    /// Proposals and vote tallies of undecided instances.
    open: HashMap<InstanceId, OpenInstance, MixState>,
    decided: BTreeMap<InstanceId, Value>,
    next_to_deliver: InstanceId,
    /// Ids of values already released, to flag cross-instance duplicates.
    delivered_ids: HashSet<ValueId>,
    delivered: u64,
    value_waits: u64,
}

impl Learner {
    /// Creates a learner for a deployment.
    pub fn new(config: PaxosConfig) -> Self {
        Learner {
            config,
            open: HashMap::default(),
            decided: BTreeMap::new(),
            next_to_deliver: InstanceId::ZERO,
            delivered_ids: HashSet::new(),
            delivered: 0,
            value_waits: 0,
        }
    }

    /// Records the value `round`'s coordinator proposed for `instance` —
    /// whether or not the local acceptor goes on to accept it. Returns the
    /// value when a quorum of votes for it in this round was already held
    /// (at most once per instance).
    pub fn on_phase2a(
        &mut self,
        instance: InstanceId,
        round: Round,
        value: &Value,
    ) -> Option<Value> {
        if self.is_decided(instance) {
            return None;
        }
        let open = self.open.entry(instance).or_default();
        // A round proposes one value per instance; a repeat is a retransmit.
        if open.proposals.iter().all(|(r, _)| *r != round) {
            open.proposals.push((round, value.clone()));
        }
        let chosen = open.tallies.iter().any(|(r, id, voters)| {
            *r == round && *id == value.id() && self.config.is_quorum(voters.len())
        });
        chosen.then(|| self.mark_decided(instance, value.clone()))
    }

    /// Records Phase 2b votes. Returns the decided value when these votes
    /// complete a majority of identical votes for the instance and the
    /// round's proposal is known (at most once per instance); a majority
    /// without its proposal is held until [`on_phase2a`](Self::on_phase2a)
    /// or [`on_decision`](Self::on_decision) brings the value.
    pub fn on_phase2b(
        &mut self,
        instance: InstanceId,
        round: Round,
        value: ValueId,
        voters: &VoterSet,
    ) -> Option<Value> {
        if self.is_decided(instance) {
            return None;
        }
        let open = self.open.entry(instance).or_default();
        let at = open
            .tallies
            .iter()
            .position(|(r, id, _)| *r == round && *id == value)
            .unwrap_or_else(|| {
                open.tallies.push((round, value, VoterSet::new()));
                open.tallies.len() - 1
            });
        let tally = &mut open.tallies[at].2;
        tally.union_with(voters);
        if !self.config.is_quorum(tally.len()) {
            return None;
        }
        let proposed = open
            .proposals
            .iter()
            .find(|(r, v)| *r == round && v.id() == value);
        match proposed {
            Some((_, v)) => {
                let v = v.clone();
                Some(self.mark_decided(instance, v))
            }
            None => {
                if !open.awaiting_value {
                    open.awaiting_value = true;
                    self.value_waits += 1;
                }
                None
            }
        }
    }

    /// Records a Decision message. Returns the value when the instance was
    /// not already known to be decided.
    pub fn on_decision(&mut self, instance: InstanceId, value: &Value) -> Option<Value> {
        if self.is_decided(instance) {
            return None;
        }
        Some(self.mark_decided(instance, value.clone()))
    }

    fn mark_decided(&mut self, instance: InstanceId, value: Value) -> Value {
        debug_assert!(
            !self.decided.contains_key(&instance),
            "instance decided twice"
        );
        self.open.remove(&instance);
        self.decided.insert(instance, value.clone());
        value
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

    /// The instance window: instances proposed or being voted on plus
    /// instances decided but not yet released in order. This is the
    /// learner's live working-set size — the `instance_window` gauge on
    /// `/metrics`.
    pub fn open_window(&self) -> usize {
        self.open.len() + self.decided.len()
    }

    /// How many instances held a quorum of votes before the value those
    /// votes name was known here — "the learner had the votes but not the
    /// value". Each such instance counts once, whether a `Phase2a` or a
    /// Decision released it (or nothing has yet).
    pub fn value_waits(&self) -> u64 {
        self.value_waits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use semantic_gossip::NodeId;

    const I0: InstanceId = InstanceId::ZERO;
    const R0: Round = Round::ZERO;

    fn value(seq: u64) -> Value {
        Value::new(NodeId::new(9), seq, vec![0; 4])
    }

    fn learner(n: usize) -> Learner {
        Learner::new(PaxosConfig::new(n))
    }

    fn voters(ids: &[u32]) -> VoterSet {
        ids.iter().copied().map(NodeId::new).collect()
    }

    /// One vote by `voter` for `v` (its id is all the vote carries).
    fn vote(l: &mut Learner, i: InstanceId, r: Round, v: &Value, voter: u32) -> Option<Value> {
        l.on_phase2b(i, r, v.id(), &voters(&[voter]))
    }

    #[test]
    fn decides_on_majority_of_identical_votes() {
        let mut l = learner(5);
        let v = value(1);
        assert!(l.on_phase2a(I0, R0, &v).is_none());
        assert!(vote(&mut l, I0, R0, &v, 0).is_none());
        assert!(vote(&mut l, I0, R0, &v, 1).is_none());
        assert_eq!(vote(&mut l, I0, R0, &v, 2), Some(v));
        assert_eq!(l.value_waits(), 0);
    }

    #[test]
    fn duplicate_votes_from_same_acceptor_ignored() {
        let mut l = learner(5);
        let v = value(1);
        l.on_phase2a(I0, R0, &v);
        for _ in 0..10 {
            assert!(vote(&mut l, I0, R0, &v, 0).is_none());
        }
    }

    #[test]
    fn votes_for_different_values_do_not_mix() {
        let mut l = learner(3);
        l.on_phase2a(I0, R0, &value(1));
        assert!(vote(&mut l, I0, R0, &value(1), 0).is_none());
        assert!(vote(&mut l, I0, R0, &value(2), 1).is_none());
        // Identical value from a second voter decides.
        assert!(vote(&mut l, I0, R0, &value(1), 2).is_some());
    }

    #[test]
    fn votes_from_different_rounds_do_not_mix() {
        let mut l = learner(3);
        let v = value(1);
        l.on_phase2a(I0, R0, &v);
        l.on_phase2a(I0, Round::new(1), &v);
        assert!(vote(&mut l, I0, R0, &v, 0).is_none());
        assert!(vote(&mut l, I0, Round::new(1), &v, 1).is_none());
        assert!(vote(&mut l, I0, Round::new(1), &v, 2).is_some());
    }

    #[test]
    fn aggregated_votes_count_every_voter() {
        let mut l = learner(5);
        let v = value(1);
        l.on_phase2a(I0, R0, &v);
        assert!(l.on_phase2b(I0, R0, v.id(), &voters(&[0, 3])).is_none());
        assert_eq!(l.on_phase2b(I0, R0, v.id(), &voters(&[3, 4])), Some(v));
    }

    #[test]
    fn decision_message_short_circuits() {
        let mut l = learner(5);
        let i = InstanceId::new(3);
        assert_eq!(l.on_decision(i, &value(9)), Some(value(9)));
        assert!(l.is_decided(i));
        // Further proposals, votes or decisions for the instance are ignored.
        assert!(l.on_decision(i, &value(9)).is_none());
        assert!(l.on_phase2a(i, R0, &value(9)).is_none());
        assert!(vote(&mut l, i, R0, &value(9), 0).is_none());
        assert_eq!(l.open_window(), 1, "just the decided slot");
    }

    #[test]
    fn quorum_before_its_proposal_is_held_and_released_by_the_proposal() {
        let mut l = learner(3);
        let v = value(1);
        assert!(vote(&mut l, I0, R0, &v, 0).is_none());
        assert!(
            vote(&mut l, I0, R0, &v, 1).is_none(),
            "chosen, value unknown"
        );
        assert!(!l.is_decided(I0));
        assert!(l.take_ordered().is_empty());
        assert_eq!(l.value_waits(), 1);
        // More votes change nothing; the wait is counted once.
        assert!(vote(&mut l, I0, R0, &v, 2).is_none());
        assert_eq!(l.value_waits(), 1);
        assert_eq!(l.on_phase2a(I0, R0, &v), Some(v.clone()));
        assert_eq!(l.take_ordered()[0].value, v);
        assert_eq!(l.value_waits(), 1);
    }

    #[test]
    fn held_quorum_is_released_by_a_decision() {
        let mut l = learner(3);
        let v = value(1);
        vote(&mut l, I0, R0, &v, 0);
        vote(&mut l, I0, R0, &v, 1);
        assert_eq!(l.value_waits(), 1);
        assert_eq!(l.on_decision(I0, &v), Some(v.clone()));
        // The late proposal finds the instance settled.
        assert!(l.on_phase2a(I0, R0, &v).is_none());
        assert_eq!(l.take_ordered().len(), 1);
        assert_eq!(l.value_waits(), 1);
    }

    #[test]
    fn a_proposal_of_another_round_does_not_release_a_held_quorum() {
        // The quorum is for (round 0, id); round 1 proposing a value with
        // that id — a re-proposal, or a re-used batch id — proves nothing
        // about what round 0 voted on.
        let mut l = learner(3);
        let v = value(1);
        vote(&mut l, I0, R0, &v, 0);
        vote(&mut l, I0, R0, &v, 1);
        assert!(l.on_phase2a(I0, Round::new(1), &v).is_none());
        assert!(!l.is_decided(I0));
        // Round 1 reaching its own quorum does decide: its proposal is here.
        assert!(vote(&mut l, I0, Round::new(1), &v, 1).is_none());
        assert_eq!(vote(&mut l, I0, Round::new(1), &v, 2), Some(v));
        assert_eq!(l.value_waits(), 1);
    }

    #[test]
    fn a_proposal_with_another_id_does_not_release_a_held_quorum() {
        let mut l = learner(3);
        vote(&mut l, I0, R0, &value(1), 0);
        vote(&mut l, I0, R0, &value(1), 1);
        assert!(l.on_phase2a(I0, R0, &value(2)).is_none());
        assert!(!l.is_decided(I0));
    }

    #[test]
    fn duplicate_proposals_are_idempotent() {
        let mut l = learner(3);
        let v = value(1);
        for _ in 0..3 {
            assert!(l.on_phase2a(I0, R0, &v).is_none());
        }
        assert_eq!(l.open[&I0].proposals.len(), 1);
        vote(&mut l, I0, R0, &v, 0);
        assert_eq!(vote(&mut l, I0, R0, &v, 1), Some(v.clone()));
        // Retransmits after the decision: nothing is decided twice.
        assert!(l.on_phase2a(I0, R0, &v).is_none());
        assert!(vote(&mut l, I0, R0, &v, 2).is_none());
        assert_eq!(l.take_ordered().len(), 1);
    }

    #[test]
    fn value_waits_counts_exactly_the_held_decisions() {
        let mut l = learner(3);
        for i in 0..6 {
            let (inst, v) = (InstanceId::new(i), value(i));
            if i % 2 == 0 {
                l.on_phase2a(inst, R0, &v);
            }
            vote(&mut l, inst, R0, &v, 0);
            vote(&mut l, inst, R0, &v, 1);
        }
        assert_eq!(l.value_waits(), 3, "instances 1, 3 and 5");
        assert_eq!(l.take_ordered().len(), 1, "instance 1 blocks the rest");
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
        l.on_phase2a(I0, R0, &v);
        for voter in 0..52 {
            assert!(vote(&mut l, I0, R0, &v, voter).is_none());
        }
        assert!(vote(&mut l, I0, R0, &v, 52).is_some());
    }

    #[test]
    fn open_state_is_dropped_after_decision() {
        let mut l = learner(3);
        let v = value(1);
        l.on_phase2a(I0, R0, &v);
        vote(&mut l, I0, R0, &v, 0);
        vote(&mut l, I0, R0, &v, 1);
        assert!(
            l.open.is_empty(),
            "proposal and tally should be garbage-collected"
        );
    }

    // --- thin votes against an oracle fed the fat information ----------------

    /// What a fat-vote learner needs and nothing else: every vote carries
    /// its value, so a quorum decides on the spot.
    #[derive(Default)]
    struct FatOracle {
        tallies: HashMap<(u64, u32, ValueId), VoterSet>,
        decided: BTreeMap<u64, Value>,
    }

    impl FatOracle {
        fn vote(&mut self, instance: u64, round: u32, value: &Value, voter: u32, quorum: usize) {
            let tally = self
                .tallies
                .entry((instance, round, value.id()))
                .or_default();
            tally.insert(NodeId::new(voter));
            if tally.len() >= quorum {
                self.decided
                    .entry(instance)
                    .or_insert_with(|| value.clone());
            }
        }

        fn decision(&mut self, instance: u64, value: &Value) {
            self.decided
                .entry(instance)
                .or_insert_with(|| value.clone());
        }

        /// The gap-free prefix of the decided log.
        fn log(&self) -> Vec<Value> {
            (0..).map_while(|i| self.decided.get(&i).cloned()).collect()
        }
    }

    /// One message of a safe Paxos execution over `INSTANCES` instances and
    /// `ROUNDS` rounds: instance `i` only ever carries the value `i`
    /// (rounds re-propose it, as Phase 1 would make them).
    #[derive(Debug, Clone)]
    enum Step {
        Proposal {
            instance: u64,
            round: u32,
        },
        Vote {
            instance: u64,
            round: u32,
            voter: u32,
        },
        Decision {
            instance: u64,
        },
    }

    const N: usize = 5;
    const INSTANCES: u64 = 4;
    const ROUNDS: u32 = 3;

    fn arb_step() -> impl Strategy<Value = Step> {
        let place = || (0..INSTANCES, 0..ROUNDS);
        prop_oneof![
            place().prop_map(|(instance, round)| Step::Proposal { instance, round }),
            (place(), 0..N as u32).prop_map(|((instance, round), voter)| Step::Vote {
                instance,
                round,
                voter
            }),
            (place(), 0..N as u32).prop_map(|((instance, round), voter)| Step::Vote {
                instance,
                round,
                voter
            }),
            (place(), 0..N as u32).prop_map(|((instance, round), voter)| Step::Vote {
                instance,
                round,
                voter
            }),
            (0..INSTANCES).prop_map(|instance| Step::Decision { instance }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any interleaving of proposals, thin votes and decisions — the
        /// strategy repeats and omits messages freely, which is duplication
        /// and loss — makes the learner deliver a prefix of the log an
        /// oracle builds from the same steps with the value inside every
        /// vote: never another value, never ahead of the oracle. Once every
        /// proposal has been seen the two logs are equal.
        #[test]
        fn prop_thin_votes_deliver_a_prefix_of_the_fat_log(
            steps in proptest::collection::vec(arb_step(), 0..120),
        ) {
            let config = PaxosConfig::new(N);
            let quorum = config.quorum();
            let mut thin = Learner::new(config);
            let mut fat = FatOracle::default();
            let mut delivered = Vec::new();
            for step in &steps {
                match *step {
                    Step::Proposal { instance, round } => {
                        thin.on_phase2a(InstanceId::new(instance), Round::new(round), &value(instance));
                    }
                    Step::Vote { instance, round, voter } => {
                        let v = value(instance);
                        fat.vote(instance, round, &v, voter, quorum);
                        thin.on_phase2b(
                            InstanceId::new(instance),
                            Round::new(round),
                            v.id(),
                            &voters(&[voter]),
                        );
                    }
                    Step::Decision { instance } => {
                        fat.decision(instance, &value(instance));
                        thin.on_decision(InstanceId::new(instance), &value(instance));
                    }
                }
                delivered.extend(thin.take_ordered().into_iter().map(|d| d.value));
                let oracle = fat.log();
                prop_assert!(delivered.len() <= oracle.len(), "thin learner ran ahead");
                prop_assert_eq!(&delivered[..], &oracle[..delivered.len()]);
            }
            // Catch-up: with every proposal delivered nothing stays held.
            for instance in 0..INSTANCES {
                for round in 0..ROUNDS {
                    thin.on_phase2a(InstanceId::new(instance), Round::new(round), &value(instance));
                }
            }
            delivered.extend(thin.take_ordered().into_iter().map(|d| d.value));
            prop_assert_eq!(delivered, fat.log());
            prop_assert!(thin.value_waits() <= INSTANCES);
        }
    }
}
