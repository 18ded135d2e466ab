//! Semantic Gossip rules for Paxos (§3.2 of the paper).
//!
//! [`PaxosSemantics`] implements [`semantic_gossip::Semantics`] for
//! [`paxos::PaxosMessage`] — without touching the Paxos implementation, the
//! modularity the paper insists on. Two techniques:
//!
//! **Semantic filtering** (send path). Decision and Phase 2b messages stop
//! flowing to a peer once that peer is *expected to already know the
//! decision from the messages previously sent to it*: either a Decision for
//! the instance was sent, or identical Phase 2b votes from a majority of
//! acceptors were sent *and the peer holds the value they name*. Votes are
//! thin — they carry the value's id — so a learner decides from a majority
//! of them only together with the `Phase2a` of the same `(instance, round)`.
//! A peer is known to hold that proposal when its own vote for the round
//! was observed: an acceptor votes only on a proposal it handled. (Having
//! *sent* the peer the proposal is not evidence — a link may drop the frame
//! after the rule ran, and the filtered Decision would have been the only
//! other message carrying the value.) Without that evidence a quorum of
//! votes sent makes further votes redundant for the peer, but not the
//! Decision. Evaluating the rules
//! is "a lightweight execution of the consensus protocol on behalf of a
//! peer": the implementation keeps, per instance, the set of peers that
//! must know its decision, per round the peers holding its proposal and,
//! per (peer, round, value), the votes already forwarded.
//!
//! **Semantic aggregation** (send path, opportunistic). Pending Phase 2b
//! messages for the same `(instance, round, value)` — identical except for
//! their voters — collapse into one Phase 2b carrying the merged voter list.
//! The rule is *reversible*: [`Semantics::disaggregate`] reconstructs the
//! original single-voter votes on receipt, so Paxos never sees an aggregate.
//!
//! Either technique can be disabled individually ([`SemanticMode`]), which
//! the ablation benchmarks exploit.
//!
//! # State layout
//!
//! `validate` runs once per (message, peer) pair and `observe` once per
//! fresh message, so the summary is built for lookups without hashing or
//! allocation: instances live in a window sliding with the GC watermark
//! (slot `instance − watermark`), and every set of processes — the peers
//! that know a decision, the voters of a tally — is a [`VoterSet`] bitset
//! indexed by the dense process ids `0..n`. A quorum test is a popcount.
//!
//! # Example
//!
//! ```
//! use paxos::{InstanceId, PaxosConfig, PaxosMessage, Round, Value};
//! use paxos_semantics::PaxosSemantics;
//! use semantic_gossip::{NodeId, Semantics};
//!
//! let mut sem = PaxosSemantics::full(PaxosConfig::new(3));
//! let v = Value::new(NodeId::new(0), 0, vec![1]);
//! let peer = NodeId::new(1);
//!
//! let vote = PaxosMessage::Phase2b { instance: InstanceId::ZERO, round: Round::ZERO, value: v.id(), voters: vec![NodeId::new(2)].into() };
//! let decision = PaxosMessage::Decision { instance: InstanceId::ZERO, value: v, sender: NodeId::new(0) };
//!
//! // After the decision is sent to the peer, votes for the instance are filtered.
//! assert!(sem.validate(&decision, peer));
//! assert!(!sem.validate(&vote, peer));
//! ```

use std::collections::VecDeque;

use paxos::{InstanceId, Kind, PaxosConfig, PaxosMessage, Round, ValueId, VoterSet};
use semantic_gossip::{NodeId, Semantics};

#[cfg(test)]
mod reference;

/// Which of the two semantic techniques are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SemanticMode {
    /// Drop obsolete/redundant Decision and Phase 2b messages on the send
    /// path.
    pub filtering: bool,
    /// Merge identical pending Phase 2b messages into multi-voter votes.
    pub aggregation: bool,
}

impl SemanticMode {
    /// Both techniques (the paper's Semantic Gossip setup).
    pub const FULL: SemanticMode = SemanticMode {
        filtering: true,
        aggregation: true,
    };
    /// Filtering only (ablation).
    pub const FILTERING_ONLY: SemanticMode = SemanticMode {
        filtering: true,
        aggregation: false,
    };
    /// Aggregation only (ablation).
    pub const AGGREGATION_ONLY: SemanticMode = SemanticMode {
        filtering: false,
        aggregation: true,
    };
}

/// Instances summarised at once, counted from the GC watermark.
///
/// Hosts collect every 256 instances and keep 1024, so a live window spans
/// about 1300 slots plus the open instances. The limit only bounds what a
/// frame naming an absurd instance can make the window allocate; instances
/// past it are not summarised, and what is not summarised is never
/// filtered.
const MAX_WINDOW: u64 = 1 << 16;

/// Distinct voters seen for one `(round, value)` of an instance.
#[derive(Debug)]
struct Tally {
    round: Round,
    value: ValueId,
    voters: VoterSet,
}

/// Everything the filter knows about one instance.
#[derive(Debug, Default)]
struct InstanceSummary {
    /// This node knows the instance is decided (observed a Decision or a
    /// majority of identical votes).
    decided: bool,
    /// Votes observed while undecided, one tally per competing
    /// `(round, value)`. Dropped on decision.
    tallies: Vec<Tally>,
    /// Peers expected to know the decision from what was sent to them.
    informed: VoterSet,
    /// Per round, the peers known to hold the value its `Phase2a` proposed:
    /// they voted in that round.
    holders: Vec<(Round, VoterSet)>,
    /// Votes forwarded to peers that do not know the decision yet. All of a
    /// peer's entries go once it joins `informed`.
    sent: Vec<(NodeId, Tally)>,
}

impl InstanceSummary {
    fn decide(&mut self) {
        self.decided = true;
        self.tallies = Vec::new();
    }

    /// The holders of `round`'s proposal, to add to.
    fn holders_mut(&mut self, round: Round) -> &mut VoterSet {
        let at = self
            .holders
            .iter()
            .position(|(r, _)| *r == round)
            .unwrap_or_else(|| {
                self.holders.push((round, VoterSet::new()));
                self.holders.len() - 1
            });
        &mut self.holders[at].1
    }

    /// Accounts for a message about to be forwarded to `peer` — a Decision
    /// (`vote` is `None`) or votes for one `(round, value)` — and returns
    /// whether it is still worth sending.
    ///
    /// Votes are redundant once a quorum of them was sent. The Decision is
    /// redundant once such a quorum was sent *and* the peer holds that
    /// round's proposal: a quorum of ids decides nothing without the value.
    /// A peer that holds the decision either way is `informed`, and every
    /// vote entry kept for it — winning round or not — is dropped: nothing
    /// for this instance will be sent to it again.
    fn forward(
        &mut self,
        peer: NodeId,
        vote: Option<(Round, ValueId, &VoterSet)>,
        quorum: usize,
    ) -> bool {
        let holds = |holders: &[(Round, VoterSet)], round| {
            holders.iter().any(|(r, h)| *r == round && h.contains(peer))
        };
        let (pass, knows) = match vote {
            None => {
                let redundant = self.sent.iter().any(|(p, t)| {
                    *p == peer && t.voters.len() >= quorum && holds(&self.holders, t.round)
                });
                (!redundant, true)
            }
            Some((round, value, voters)) => {
                let at = self
                    .sent
                    .iter()
                    .position(|(p, t)| *p == peer && t.round == round && t.value == value)
                    .unwrap_or_else(|| {
                        let voters = VoterSet::new();
                        self.sent.push((
                            peer,
                            Tally {
                                round,
                                value,
                                voters,
                            },
                        ));
                        self.sent.len() - 1
                    });
                let sent = &mut self.sent[at].1.voters;
                let redundant = sent.len() >= quorum;
                if !redundant {
                    sent.union_with(voters);
                }
                let knows = sent.len() >= quorum && holds(&self.holders, round);
                (!redundant, knows)
            }
        };
        if knows {
            self.informed.insert(peer);
            self.sent.retain(|(p, _)| *p != peer);
            if self.sent.is_empty() {
                // A settled instance stays in the window until the next
                // GC: give the buffer back rather than hold it that long.
                self.sent = Vec::new();
            }
        }
        pass
    }

    fn occupancy(&self) -> usize {
        self.decided as usize
            + self.tallies.len()
            + self.informed.len()
            + self.holders.len()
            + self.sent.len()
    }
}

/// Paxos-aware [`Semantics`] implementation (see the [crate docs](crate)).
#[derive(Debug)]
pub struct PaxosSemantics {
    config: PaxosConfig,
    mode: SemanticMode,
    /// `window[i]` summarises instance `gc_watermark + i`.
    window: VecDeque<InstanceSummary>,
    /// Everything below this instance has been garbage-collected.
    gc_watermark: InstanceId,
    /// Messages suppressed by the filter, indexed by [`Kind::index`] — the
    /// per-class view of the paper's filtering savings (which classes the
    /// semantic rules actually touch). Plain adds, always on.
    filtered_by_kind: [u64; Kind::COUNT],
}

impl PaxosSemantics {
    /// Creates semantics with an explicit mode.
    pub fn new(config: PaxosConfig, mode: SemanticMode) -> Self {
        PaxosSemantics {
            config,
            mode,
            window: VecDeque::new(),
            gc_watermark: InstanceId::ZERO,
            filtered_by_kind: [0; Kind::COUNT],
        }
    }

    /// Messages the filter suppressed so far, indexed by [`Kind::index`]
    /// (pair with [`Kind::ALL`] to name the classes). Only Phase 2b and
    /// Decision entries can be non-zero — the filtering rules never touch
    /// the other classes.
    pub fn filtered_by_kind(&self) -> &[u64; Kind::COUNT] {
        &self.filtered_by_kind
    }

    /// Both filtering and aggregation (the paper's Semantic Gossip).
    pub fn full(config: PaxosConfig) -> Self {
        PaxosSemantics::new(config, SemanticMode::FULL)
    }

    /// The active mode.
    pub fn mode(&self) -> SemanticMode {
        self.mode
    }

    /// Whether this node knows `instance` is decided.
    pub fn knows_decided(&self, instance: InstanceId) -> bool {
        instance < self.gc_watermark || self.slot(instance).is_some_and(|s| s.decided)
    }

    /// Drops per-peer and tally state for instances below `watermark`
    /// (which must be globally decided — e.g. the minimum ordered-delivery
    /// point across local consumers). Keeps long runs at bounded memory.
    pub fn gc(&mut self, watermark: InstanceId) {
        if watermark <= self.gc_watermark {
            return;
        }
        let below = watermark.as_u64() - self.gc_watermark.as_u64();
        let dropped = below.min(self.window.len() as u64) as usize;
        self.window.drain(..dropped);
        self.gc_watermark = watermark;
    }

    /// Entries currently held: decided marks, vote tallies, informed peers,
    /// per-round holder sets and per-peer forwarded-vote records, summed
    /// over the instance window. The occupancy gauge of the semantic summary; with the hosts'
    /// GC cadence it stays flat however long the run.
    pub fn occupancy(&self) -> usize {
        self.window.iter().map(InstanceSummary::occupancy).sum()
    }

    /// The summary of `instance`, if it has one.
    fn slot(&self, instance: InstanceId) -> Option<&InstanceSummary> {
        let offset = instance.as_u64().checked_sub(self.gc_watermark.as_u64())?;
        self.window.get(usize::try_from(offset).ok()?)
    }

    /// The summary of `instance`, growing the window up to it. `None` below
    /// the watermark and past [`MAX_WINDOW`].
    fn slot_mut(&mut self, instance: InstanceId) -> Option<&mut InstanceSummary> {
        let offset = instance.as_u64().checked_sub(self.gc_watermark.as_u64())?;
        if offset >= MAX_WINDOW {
            return None;
        }
        let offset = offset as usize;
        if offset >= self.window.len() {
            self.window
                .resize_with(offset + 1, InstanceSummary::default);
        }
        self.window.get_mut(offset)
    }
}

impl Semantics<PaxosMessage> for PaxosSemantics {
    fn observe(&mut self, msg: &PaxosMessage) {
        match msg {
            PaxosMessage::Decision { instance, .. } => {
                if let Some(slot) = self.slot_mut(*instance) {
                    slot.decide();
                }
            }
            PaxosMessage::Phase2b {
                instance,
                round,
                value,
                voters,
            } => {
                let quorum = self.config.quorum();
                let Some(slot) = self.slot_mut(*instance) else {
                    return;
                };
                // An acceptor votes only on a proposal it handled.
                slot.holders_mut(*round).union_with(voters);
                if slot.decided {
                    return;
                }
                let at = slot
                    .tallies
                    .iter()
                    .position(|t| t.round == *round && t.value == *value)
                    .unwrap_or_else(|| {
                        slot.tallies.push(Tally {
                            round: *round,
                            value: *value,
                            voters: VoterSet::new(),
                        });
                        slot.tallies.len() - 1
                    });
                let tally = &mut slot.tallies[at].voters;
                tally.union_with(voters);
                if tally.len() >= quorum {
                    slot.decide();
                }
            }
            _ => {}
        }
    }

    fn validate(&mut self, msg: &PaxosMessage, peer: NodeId) -> bool {
        if !self.mode.filtering {
            return true;
        }
        let (instance, vote) = match msg {
            PaxosMessage::Phase2b {
                instance,
                round,
                value,
                voters,
            } => (*instance, Some((*round, *value, voters))),
            PaxosMessage::Decision { instance, .. } => (*instance, None),
            _ => return true,
        };
        // Below the watermark everything is decided everywhere.
        let pass = instance >= self.gc_watermark && {
            let quorum = self.config.quorum();
            match self.slot_mut(instance) {
                None => true,
                Some(slot) if slot.informed.contains(peer) => false,
                // Forward unless redundant, and account for what the peer
                // now knows.
                Some(slot) => slot.forward(peer, vote, quorum),
            }
        };
        if !pass {
            self.filtered_by_kind[msg.kind().index()] += 1;
        }
        pass
    }

    /// Merges in place: each vote joins the first pending vote with its
    /// `(instance, round, value)`, which keeps that position; everything
    /// else stays where it was. The input comes back untouched when fewer
    /// than two votes are pending.
    fn aggregate(&mut self, mut pending: Vec<PaxosMessage>, _peer: NodeId) -> Vec<PaxosMessage> {
        let is_vote = |m: &PaxosMessage| matches!(m, PaxosMessage::Phase2b { .. });
        if !self.mode.aggregation || pending.iter().filter(|m| is_vote(m)).nth(1).is_none() {
            return pending;
        }
        // pending[..kept] is the output so far; merged-away votes collect
        // behind it and fall off with the final truncate.
        let mut kept = 0;
        for at in 0..pending.len() {
            let (head, tail) = pending.split_at_mut(at);
            if let PaxosMessage::Phase2b {
                instance,
                round,
                value,
                voters,
            } = &tail[0]
            {
                let first = head[..kept].iter_mut().find_map(|m| match m {
                    PaxosMessage::Phase2b {
                        instance: i,
                        round: r,
                        value: v,
                        voters: into,
                    } if i == instance && r == round && v == value => Some(into),
                    _ => None,
                });
                if let Some(into) = first {
                    into.union_with(voters);
                    continue;
                }
            }
            pending.swap(kept, at);
            kept += 1;
        }
        pending.truncate(kept);
        pending
    }

    fn disaggregate(&mut self, msg: PaxosMessage) -> Vec<PaxosMessage> {
        msg.disaggregate_votes()
    }

    /// One group's semantics: the group id was the dispatcher's concern.
    fn on_progress(&mut self, _group: u32, watermark: u64) {
        self.gc(InstanceId::new(watermark));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxos::Value;

    fn value(seq: u64) -> Value {
        Value::new(NodeId::new(9), seq, vec![seq as u8; 4])
    }

    fn votes(instance: u64, round: u32, seq: u64, voters: &[u32]) -> PaxosMessage {
        PaxosMessage::Phase2b {
            instance: InstanceId::new(instance),
            round: Round::new(round),
            value: value(seq).id(),
            voters: voters.iter().copied().map(NodeId::new).collect(),
        }
    }

    fn proposal(instance: u64, round: u32, seq: u64) -> PaxosMessage {
        PaxosMessage::Phase2a {
            instance: InstanceId::new(instance),
            round: Round::new(round),
            value: value(seq).into(),
            sender: NodeId::new(0),
        }
    }

    fn vote(instance: u64, round: u32, seq: u64, voter: u32) -> PaxosMessage {
        votes(instance, round, seq, &[voter])
    }

    fn decision(instance: u64, seq: u64) -> PaxosMessage {
        PaxosMessage::Decision {
            instance: InstanceId::new(instance),
            value: value(seq),
            sender: NodeId::new(0),
        }
    }

    fn sem(n: usize) -> PaxosSemantics {
        PaxosSemantics::full(PaxosConfig::new(n))
    }

    const PEER: NodeId = NodeId::new(42);

    // --- filtering ----------------------------------------------------------

    #[test]
    fn votes_flow_until_decision_sent() {
        let mut s = sem(5);
        assert!(s.validate(&vote(0, 0, 1, 1), PEER));
        assert!(s.validate(&decision(0, 1), PEER));
        assert!(!s.validate(&vote(0, 0, 1, 2), PEER));
        // Other instances are unaffected.
        assert!(s.validate(&vote(1, 0, 2, 1), PEER));
    }

    #[test]
    fn duplicate_decisions_are_filtered() {
        let mut s = sem(3);
        assert!(s.validate(&decision(0, 1), PEER));
        assert!(!s.validate(&decision(0, 1), PEER));
    }

    #[test]
    fn filtered_counts_are_tracked_per_kind() {
        let mut s = sem(5);
        assert_eq!(s.filtered_by_kind().iter().sum::<u64>(), 0);
        assert!(s.validate(&decision(0, 1), PEER));
        assert!(!s.validate(&vote(0, 0, 1, 2), PEER)); // Phase2b filtered
        assert!(!s.validate(&decision(0, 1), PEER)); // Decision filtered
        assert!(!s.validate(&votes(0, 0, 1, &[2, 3]), PEER)); // aggregated vote filtered
        let counts = s.filtered_by_kind();
        assert_eq!(counts[Kind::Phase2b.index()], 1);
        assert_eq!(counts[Kind::Phase2bAggregated.index()], 1);
        assert_eq!(counts[Kind::Decision.index()], 1);
        assert_eq!(counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn quorum_of_sent_votes_makes_further_votes_redundant() {
        let mut s = sem(5); // quorum = 3
        s.observe(&vote(0, 0, 1, PEER.as_u32()));
        assert!(s.validate(&vote(0, 0, 1, 1), PEER));
        assert!(s.validate(&vote(0, 0, 1, 2), PEER));
        assert!(s.validate(&vote(0, 0, 1, 3), PEER)); // peer reaches quorum
        assert!(!s.validate(&vote(0, 0, 1, 4), PEER));
        // ... and the decision for that instance is also redundant now: the
        // peer voted in that round, so it holds the value those votes name.
        assert!(!s.validate(&decision(0, 1), PEER));
    }

    /// The rule thin votes moved: a quorum of vote *ids* tells the peer
    /// that a value is chosen, not which. The Decision is redundant only
    /// when the proposal of the votes' round is known to be at the peer —
    /// known from the peer's own vote, not from having sent it the proposal.
    #[test]
    fn quorum_of_sent_votes_filters_the_decision_only_with_the_proposal() {
        let quorum_sent = |s: &mut PaxosSemantics| {
            for voter in 1..=3 {
                assert!(s.validate(&vote(0, 1, 7, voter), PEER));
            }
            assert!(!s.validate(&vote(0, 1, 7, 4), PEER), "votes are redundant");
        };
        // No proposal at the peer: the Decision is what brings the value.
        let mut s = sem(5);
        quorum_sent(&mut s);
        assert!(s.validate(&decision(0, 7), PEER));
        assert!(!s.validate(&decision(0, 7), PEER), "once");
        // Having sent it the proposal proves nothing: a link may drop the
        // frame, and the Decision would be the last carrier of the value.
        let mut s = sem(5);
        assert!(s.validate(&proposal(0, 1, 7), PEER));
        quorum_sent(&mut s);
        assert!(s.validate(&decision(0, 7), PEER));
        // The peer's vote in another round does not count either.
        let mut s = sem(5);
        s.observe(&vote(0, 0, 7, PEER.as_u32()));
        quorum_sent(&mut s);
        assert!(s.validate(&decision(0, 7), PEER));
        // The peer's own vote for the round, seen before or after the
        // quorum went out: it handled the proposal.
        let mut s = sem(5);
        s.observe(&vote(0, 1, 7, PEER.as_u32()));
        quorum_sent(&mut s);
        assert!(!s.validate(&decision(0, 7), PEER));
        let mut s = sem(5);
        quorum_sent(&mut s);
        s.observe(&vote(0, 1, 7, PEER.as_u32()));
        assert!(!s.validate(&decision(0, 7), PEER));
        // Another peer's vote is not this peer's.
        let mut s = sem(5);
        s.observe(&vote(0, 1, 7, 43));
        quorum_sent(&mut s);
        assert!(s.validate(&decision(0, 7), PEER));
    }

    #[test]
    fn vote_counting_is_per_peer() {
        let mut s = sem(3); // quorum = 2
        let peer_b = NodeId::new(43);
        assert!(s.validate(&vote(0, 0, 1, 1), PEER));
        assert!(s.validate(&vote(0, 0, 1, 2), PEER));
        // PEER now knows; peer_b does not.
        assert!(!s.validate(&vote(0, 0, 1, 1), PEER));
        assert!(s.validate(&vote(0, 0, 1, 1), peer_b));
    }

    #[test]
    fn votes_for_different_values_count_separately() {
        let mut s = sem(3); // quorum = 2
        s.observe(&vote(0, 0, 1, PEER.as_u32()));
        assert!(s.validate(&vote(0, 0, 1, 1), PEER));
        assert!(s.validate(&vote(0, 0, 2, 2), PEER)); // different value
        assert!(s.validate(&vote(0, 0, 1, 3), PEER)); // value 1 reaches quorum
        assert!(!s.validate(&vote(0, 0, 2, 3), PEER));
    }

    #[test]
    fn duplicate_voters_do_not_inflate_the_count() {
        let mut s = sem(5); // quorum = 3
        for _ in 0..10 {
            assert!(s.validate(&vote(0, 0, 1, 1), PEER));
        }
        // Still below quorum: only one distinct voter was sent.
        assert!(s.validate(&vote(0, 0, 1, 2), PEER));
    }

    #[test]
    fn aggregated_votes_advance_peer_knowledge_at_once() {
        let mut s = sem(3); // quorum = 2
        assert!(s.validate(&votes(0, 0, 1, &[1, 2]), PEER));
        assert!(!s.validate(&vote(0, 0, 1, 3), PEER));
    }

    #[test]
    fn non_vote_messages_always_pass() {
        let mut s = sem(3);
        s.validate(&decision(0, 1), PEER);
        assert!(s.validate(&proposal(0, 0, 1), PEER)); // same instance, still passes
    }

    #[test]
    fn filtering_disabled_passes_everything() {
        let mut s = PaxosSemantics::new(PaxosConfig::new(3), SemanticMode::AGGREGATION_ONLY);
        assert!(s.validate(&decision(0, 1), PEER));
        assert!(s.validate(&decision(0, 1), PEER));
        assert!(s.validate(&vote(0, 0, 1, 1), PEER));
    }

    #[test]
    fn quorum_counts_across_a_word_boundary() {
        // n = 105 needs 53 identical votes; voters 40..93 straddle bit 64.
        let mut s = sem(105);
        for voter in 40..92 {
            assert!(s.validate(&vote(0, 0, 1, voter), PEER));
            s.observe(&vote(0, 0, 1, voter));
        }
        assert!(!s.knows_decided(InstanceId::ZERO));
        s.observe(&vote(0, 0, 1, 92));
        assert!(s.knows_decided(InstanceId::ZERO));
        assert!(s.validate(&vote(0, 0, 1, 92), PEER)); // the 53rd: peer knows now
        assert!(!s.validate(&vote(0, 0, 1, 93), PEER));
    }

    #[test]
    fn instances_past_the_window_are_passed_not_summarised() {
        let mut s = sem(3);
        let far = (1u64 << 40) + 7;
        s.observe(&decision(far, 1));
        assert!(!s.knows_decided(InstanceId::new(far)));
        // Never filtered, never recorded, and the window did not grow.
        assert!(s.validate(&decision(far, 1), PEER));
        assert!(s.validate(&decision(far, 1), PEER));
        assert!(s.validate(&vote(far, 0, 1, 1), PEER));
        assert_eq!(s.occupancy(), 0);
        assert!(s.window.is_empty());
        assert_eq!(s.filtered_by_kind().iter().sum::<u64>(), 0);
        // The last slot inside the window is still summarised.
        let edge = MAX_WINDOW - 1;
        assert!(s.validate(&decision(edge, 1), PEER));
        assert!(!s.validate(&decision(edge, 1), PEER));
    }

    // --- observation --------------------------------------------------------

    #[test]
    fn observe_decision_marks_instance() {
        let mut s = sem(3);
        assert!(!s.knows_decided(InstanceId::ZERO));
        s.observe(&decision(0, 1));
        assert!(s.knows_decided(InstanceId::ZERO));
    }

    #[test]
    fn observe_vote_quorum_marks_instance() {
        let mut s = sem(3); // quorum = 2
        s.observe(&vote(0, 0, 1, 1));
        assert!(!s.knows_decided(InstanceId::ZERO));
        s.observe(&vote(0, 0, 1, 2));
        assert!(s.knows_decided(InstanceId::ZERO));
    }

    #[test]
    fn observe_mixed_values_requires_identical_votes() {
        let mut s = sem(3);
        s.observe(&vote(0, 0, 1, 1));
        s.observe(&vote(0, 0, 2, 2));
        assert!(!s.knows_decided(InstanceId::ZERO));
    }

    // --- aggregation --------------------------------------------------------

    #[test]
    fn identical_votes_merge_into_one() {
        let mut s = sem(5);
        let pending = vec![vote(0, 0, 1, 1), vote(0, 0, 1, 3), vote(0, 0, 1, 2)];
        let out = s.aggregate(pending, PEER);
        assert_eq!(out, vec![votes(0, 0, 1, &[1, 2, 3])]);
        // The aggregate passes the wire-format invariant.
        out[0].validate().unwrap();
    }

    #[test]
    fn different_instances_do_not_merge() {
        let mut s = sem(5);
        let out = s.aggregate(vec![vote(0, 0, 1, 1), vote(1, 0, 1, 2)], PEER);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn different_rounds_or_values_do_not_merge() {
        let mut s = sem(5);
        let out = s.aggregate(
            vec![vote(0, 0, 1, 1), vote(0, 1, 1, 2), vote(0, 0, 2, 3)],
            PEER,
        );
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn non_votes_are_left_in_place() {
        let mut s = sem(5);
        let p1a = PaxosMessage::Phase1a {
            round: Round::ZERO,
            from_instance: InstanceId::ZERO,
            sender: NodeId::new(0),
        };
        let out = s.aggregate(
            vec![
                vote(0, 0, 1, 1),
                p1a.clone(),
                vote(0, 0, 1, 2),
                decision(1, 2),
            ],
            PEER,
        );
        assert_eq!(out, vec![votes(0, 0, 1, &[1, 2]), p1a, decision(1, 2)]);
    }

    #[test]
    fn merged_votes_keep_their_first_occurrence_position() {
        // A Decision emitted before a vote filters that vote, so where the
        // aggregate lands is part of the contract.
        let mut s = sem(7);
        let out = s.aggregate(
            vec![
                vote(1, 0, 2, 5),
                vote(0, 0, 1, 1),
                decision(0, 1),
                vote(1, 0, 2, 4),
                vote(0, 0, 1, 2),
                vote(2, 0, 3, 6),
            ],
            PEER,
        );
        assert_eq!(
            out,
            vec![
                votes(1, 0, 2, &[4, 5]),
                votes(0, 0, 1, &[1, 2]),
                decision(0, 1),
                vote(2, 0, 3, 6),
            ]
        );
    }

    #[test]
    fn aggregation_disabled_returns_input() {
        let mut s = PaxosSemantics::new(PaxosConfig::new(5), SemanticMode::FILTERING_ONLY);
        let pending = vec![vote(0, 0, 1, 1), vote(0, 0, 1, 2)];
        assert_eq!(s.aggregate(pending.clone(), PEER), pending);
    }

    #[test]
    fn aggregation_merges_already_aggregated_votes() {
        let mut s = sem(7);
        let out = s.aggregate(vec![votes(0, 0, 1, &[1, 4]), vote(0, 0, 1, 2)], PEER);
        assert_eq!(out, vec![votes(0, 0, 1, &[1, 2, 4])]);
    }

    #[test]
    fn disaggregate_round_trips() {
        let mut s = sem(5);
        let pending = vec![vote(0, 0, 1, 1), vote(0, 0, 1, 2)];
        let out = s.aggregate(pending.clone(), PEER);
        assert_eq!(out.len(), 1);
        let parts = s.disaggregate(out.into_iter().next().unwrap());
        assert_eq!(parts, pending);
    }

    // --- garbage collection and bounded state ---------------------------------

    #[test]
    fn gc_drops_old_state_but_keeps_filtering_below_watermark() {
        let mut s = sem(3);
        s.observe(&decision(0, 1));
        s.validate(&decision(0, 1), PEER);
        assert_eq!(s.occupancy(), 2); // decided mark + one informed peer
        s.gc(InstanceId::new(1));
        // Below the watermark everything is known-decided: still filtered.
        assert!(!s.validate(&vote(0, 0, 1, 1), PEER));
        assert!(!s.validate(&decision(0, 1), PEER));
        assert!(s.knows_decided(InstanceId::ZERO));
        // The summary no longer holds the instance.
        assert_eq!(s.occupancy(), 0);
        assert!(s.window.is_empty());
    }

    #[test]
    fn gc_watermark_never_regresses() {
        let mut s = sem(3);
        s.gc(InstanceId::new(5));
        s.gc(InstanceId::new(2)); // ignored
        assert!(s.knows_decided(InstanceId::new(4)));
    }

    #[test]
    fn gc_past_the_window_empties_it_and_rebases() {
        let mut s = sem(3);
        s.observe(&decision(2, 1));
        s.gc(InstanceId::new(100));
        assert!(s.window.is_empty());
        s.observe(&decision(101, 1));
        assert!(s.knows_decided(InstanceId::new(101)));
        assert!(!s.knows_decided(InstanceId::new(100)));
        assert_eq!(s.window.len(), 2);
    }

    #[test]
    fn an_informed_peer_leaves_no_vote_records_behind() {
        // n = 5: a quorum is 3. Round 0 stalls at two votes, round 1
        // competes with another value.
        let mut s = sem(5);
        assert!(s.validate(&vote(0, 0, 1, 1), PEER));
        assert!(s.validate(&vote(0, 0, 1, 2), PEER));
        s.observe(&vote(0, 1, 2, PEER.as_u32()));
        assert!(s.validate(&vote(0, 1, 2, 1), PEER));
        assert_eq!(
            s.occupancy(),
            4,
            "two vote records; the peer's own vote as a tally and as round 1's holder"
        );
        // Round 1 reaches a quorum at the peer, which voted in it and so
        // holds its proposal: the losing round's record goes with the
        // winning one.
        assert!(s.validate(&votes(0, 1, 2, &[2, 3]), PEER));
        assert_eq!(s.occupancy(), 3, "the informed mark replaced both records");
        // Same when a Decision, not a quorum, informs the peer.
        assert!(s.validate(&vote(1, 0, 1, 1), PEER));
        assert!(s.validate(&vote(1, 1, 1, 2), PEER));
        assert!(s.validate(&decision(1, 1), PEER));
        assert_eq!(s.occupancy(), 4, "one informed mark more");
    }

    /// Ten times the hosts' retention (`GC_KEEP` = 1024 instances, collected
    /// every 256) with competing rounds in every instance: the occupancy
    /// high-water mark is reached within the first retention period and
    /// never exceeded.
    #[test]
    fn occupancy_stays_flat_over_ten_retention_periods() {
        const GC_EVERY: u64 = 256;
        const GC_KEEP: u64 = 1024;
        let peers = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        let mut s = sem(5); // quorum = 3
        let mut high_water = Vec::new();
        for i in 0..10 * GC_KEEP {
            // Round 0 splits between two values and stalls; round 1 decides
            // on the peers' own votes.
            for msg in [vote(i, 0, 1, 0), vote(i, 0, 2, 1), vote(i, 0, 1, 2)] {
                s.observe(&msg);
                for peer in peers {
                    s.validate(&msg, peer);
                }
            }
            for voter in 1..=3 {
                let msg = vote(i, 1, 1, voter);
                s.observe(&msg);
                for peer in peers {
                    s.validate(&msg, peer);
                }
            }
            for peer in peers {
                assert!(!s.validate(&decision(i, 1), peer), "peer already knows");
            }
            let delivered = i + 1;
            if delivered.is_multiple_of(GC_EVERY) {
                s.gc(InstanceId::new(delivered.saturating_sub(GC_KEEP)));
            }
            high_water.push(s.occupancy());
        }
        // A settled instance holds its decided mark, three informed peers
        // and one holder set per round — no tallies, no per-peer vote
        // records.
        let per_instance = 1 + peers.len() + 2;
        let bound = (GC_KEEP + GC_EVERY) as usize * per_instance;
        let first_period = *high_water[..(GC_KEEP + GC_EVERY) as usize]
            .iter()
            .max()
            .unwrap();
        let overall = *high_water.iter().max().unwrap();
        assert_eq!(overall, first_period, "occupancy kept growing");
        assert!(overall <= bound, "{overall} entries exceed {bound}");
    }

    // --- equivalence with the reference model --------------------------------

    mod equivalence {
        use super::*;
        use crate::reference::ReferenceSemantics;
        use proptest::prelude::*;

        /// One call into the semantics; ids are reduced modulo the run's
        /// `n` when the op is applied.
        #[derive(Debug, Clone)]
        enum Op {
            Observe(Msg),
            Validate(Msg, u32),
            Aggregate(Vec<Msg>, u32),
            Disaggregate(Msg),
            Gc(u64),
        }

        #[derive(Debug, Clone)]
        enum Msg {
            Vote {
                instance: u64,
                round: u32,
                seq: u64,
                voters: Vec<u32>,
            },
            Decision {
                instance: u64,
                seq: u64,
            },
            Phase2a {
                instance: u64,
                round: u32,
            },
        }

        impl Msg {
            /// Voter ids range over `0..n + 3`: mostly configured
            /// processes, now and then an id the bitset has no bit for.
            fn build(&self, n: usize) -> PaxosMessage {
                match self {
                    Msg::Vote {
                        instance,
                        round,
                        seq,
                        voters,
                    } => {
                        let mut ids: Vec<u32> = voters.iter().map(|v| v % (n as u32 + 3)).collect();
                        ids.sort_unstable();
                        ids.dedup();
                        votes(*instance, *round, *seq, &ids)
                    }
                    Msg::Decision { instance, seq } => decision(*instance, *seq),
                    Msg::Phase2a { instance, round } => proposal(*instance, *round, 0),
                }
            }
        }

        fn arb_msg() -> impl Strategy<Value = Msg> {
            prop_oneof![
                (
                    0u64..14,
                    0u32..3,
                    0u64..3,
                    proptest::collection::vec(0u32..400, 1..5)
                )
                    .prop_map(|(instance, round, seq, voters)| Msg::Vote {
                        instance,
                        round,
                        seq,
                        voters,
                    }),
                // Votes are most of the traffic: weight them double.
                (
                    0u64..14,
                    0u32..2,
                    0u64..2,
                    proptest::collection::vec(0u32..400, 1..3)
                )
                    .prop_map(|(instance, round, seq, voters)| Msg::Vote {
                        instance,
                        round,
                        seq,
                        voters,
                    }),
                (0u64..14, 0u64..3).prop_map(|(instance, seq)| Msg::Decision { instance, seq }),
                (0u64..14, 0u32..3).prop_map(|(instance, round)| Msg::Phase2a { instance, round }),
            ]
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                arb_msg().prop_map(Op::Observe),
                (arb_msg(), 0u32..5).prop_map(|(m, p)| Op::Validate(m, p)),
                (arb_msg(), 0u32..5).prop_map(|(m, p)| Op::Validate(m, p)),
                (proptest::collection::vec(arb_msg(), 0..9), 0u32..5)
                    .prop_map(|(ms, p)| Op::Aggregate(ms, p)),
                arb_msg().prop_map(Op::Disaggregate),
                (0u64..12).prop_map(Op::Gc),
            ]
        }

        /// Peers 0..3 are configured processes; 4 maps to an id past `n`.
        fn peer(index: u32, n: usize) -> NodeId {
            if index == 4 {
                NodeId::new(n as u32 + 40)
            } else {
                NodeId::new(index % n as u32)
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            /// Any interleaving of the five calls leaves the dense
            /// implementation and the reference model indistinguishable:
            /// same verdicts, same aggregates in the same order, same
            /// per-kind filter counters, same decided instances.
            #[test]
            fn prop_dense_state_matches_reference(
                n in prop_oneof![Just(3usize), Just(27), Just(130)],
                mode in prop_oneof![
                    Just(SemanticMode::FULL),
                    Just(SemanticMode::FULL),
                    Just(SemanticMode::FILTERING_ONLY),
                    Just(SemanticMode::AGGREGATION_ONLY),
                ],
                ops in proptest::collection::vec(arb_op(), 1..80),
            ) {
                let mut fast = PaxosSemantics::new(PaxosConfig::new(n), mode);
                let mut model = ReferenceSemantics::new(PaxosConfig::new(n), mode);
                for op in &ops {
                    match op {
                        Op::Observe(m) => {
                            let msg = m.build(n);
                            fast.observe(&msg);
                            model.observe(&msg);
                        }
                        Op::Validate(m, p) => {
                            let msg = m.build(n);
                            prop_assert_eq!(
                                fast.validate(&msg, peer(*p, n)),
                                model.validate(&msg, peer(*p, n)),
                                "verdict on {:?}", msg
                            );
                        }
                        Op::Aggregate(ms, p) => {
                            let pending: Vec<PaxosMessage> =
                                ms.iter().map(|m| m.build(n)).collect();
                            prop_assert_eq!(
                                fast.aggregate(pending.clone(), peer(*p, n)),
                                model.aggregate(pending, peer(*p, n))
                            );
                        }
                        Op::Disaggregate(m) => {
                            let msg = m.build(n);
                            prop_assert_eq!(
                                fast.disaggregate(msg.clone()),
                                model.disaggregate(msg)
                            );
                        }
                        Op::Gc(watermark) => {
                            fast.gc(InstanceId::new(*watermark));
                            model.gc(InstanceId::new(*watermark));
                        }
                    }
                    for instance in 0..16 {
                        prop_assert_eq!(
                            fast.knows_decided(InstanceId::new(instance)),
                            model.knows_decided(InstanceId::new(instance)),
                            "knows_decided({})", instance
                        );
                    }
                }
                prop_assert_eq!(fast.filtered_by_kind(), model.filtered_by_kind());
            }
        }
    }
}
