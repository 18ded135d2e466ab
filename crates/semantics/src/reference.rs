//! Reference model of [`PaxosSemantics`](crate::PaxosSemantics): the
//! `HashMap`/`BTreeSet` implementation the crate shipped before its state
//! went dense, kept in that style (test builds only) so the property tests
//! can demand identical verdicts, aggregates and counters from the fast one.
//! It follows the rules, not the layout: when votes went thin it gained the
//! per-round sets of observed voters the Decision rule now needs, as plain
//! maps.

use std::collections::{BTreeSet, HashMap, HashSet};

use paxos::{InstanceId, Kind, PaxosConfig, PaxosMessage, Round, ValueId, VoterSet};
use semantic_gossip::{NodeId, Semantics};

use crate::SemanticMode;

#[derive(Debug, Default)]
struct PeerState {
    knows_decided: HashSet<InstanceId>,
    sent_votes: HashMap<(InstanceId, Round, ValueId), BTreeSet<NodeId>>,
}

#[derive(Debug)]
pub struct ReferenceSemantics {
    config: PaxosConfig,
    mode: SemanticMode,
    peers: HashMap<NodeId, PeerState>,
    decided: HashSet<InstanceId>,
    tallies: HashMap<(InstanceId, Round, ValueId), BTreeSet<NodeId>>,
    /// Processes seen voting in `(instance, round)`: they hold its proposal.
    holders: HashMap<(InstanceId, Round), BTreeSet<NodeId>>,
    gc_watermark: InstanceId,
    filtered_by_kind: [u64; Kind::COUNT],
}

impl ReferenceSemantics {
    pub fn new(config: PaxosConfig, mode: SemanticMode) -> Self {
        ReferenceSemantics {
            config,
            mode,
            peers: HashMap::new(),
            decided: HashSet::new(),
            tallies: HashMap::new(),
            holders: HashMap::new(),
            gc_watermark: InstanceId::ZERO,
            filtered_by_kind: [0; Kind::COUNT],
        }
    }

    pub fn filtered_by_kind(&self) -> &[u64; Kind::COUNT] {
        &self.filtered_by_kind
    }

    pub fn knows_decided(&self, instance: InstanceId) -> bool {
        instance < self.gc_watermark || self.decided.contains(&instance)
    }

    pub fn gc(&mut self, watermark: InstanceId) {
        if watermark <= self.gc_watermark {
            return;
        }
        self.gc_watermark = watermark;
        self.decided.retain(|&i| i >= watermark);
        self.tallies.retain(|&(i, _, _), _| i >= watermark);
        self.holders.retain(|&(i, _), _| i >= watermark);
        for peer in self.peers.values_mut() {
            peer.knows_decided.retain(|&i| i >= watermark);
            peer.sent_votes.retain(|&(i, _, _), _| i >= watermark);
        }
    }

    fn peer_knows(&self, peer: NodeId, instance: InstanceId) -> bool {
        if instance < self.gc_watermark {
            return true;
        }
        self.peers
            .get(&peer)
            .is_some_and(|p| p.knows_decided.contains(&instance))
    }

    fn record_decision_sent(&mut self, peer: NodeId, instance: InstanceId) {
        self.peers
            .entry(peer)
            .or_default()
            .knows_decided
            .insert(instance);
    }

    fn holds(&self, peer: NodeId, instance: InstanceId, round: Round) -> bool {
        self.holders
            .get(&(instance, round))
            .is_some_and(|h| h.contains(&peer))
    }

    /// Whether a quorum of identical votes of some round was sent to `peer`
    /// and the peer holds that round's proposal.
    fn quorum_and_value_sent(&self, peer: NodeId, instance: InstanceId) -> bool {
        let quorum = self.config.quorum();
        self.peers.get(&peer).is_some_and(|state| {
            state.sent_votes.iter().any(|(&(i, round, _), sent)| {
                i == instance && sent.len() >= quorum && self.holds(peer, instance, round)
            })
        })
    }

    /// Returns whether the votes are still worth sending.
    fn record_votes_sent(
        &mut self,
        peer: NodeId,
        instance: InstanceId,
        round: Round,
        value: ValueId,
        voters: &VoterSet,
    ) -> bool {
        let quorum = self.config.quorum();
        let sent = self
            .peers
            .entry(peer)
            .or_default()
            .sent_votes
            .entry((instance, round, value))
            .or_default();
        let redundant = sent.len() >= quorum;
        if !redundant {
            sent.extend(voters.iter());
        }
        if self.quorum_and_value_sent(peer, instance) {
            self.record_decision_sent(peer, instance);
        }
        !redundant
    }
}

impl Semantics<PaxosMessage> for ReferenceSemantics {
    fn observe(&mut self, msg: &PaxosMessage) {
        match msg {
            PaxosMessage::Decision { instance, .. } if *instance >= self.gc_watermark => {
                self.decided.insert(*instance);
                self.tallies.retain(|&(i, _, _), _| i != *instance);
            }
            PaxosMessage::Phase2b {
                instance,
                round,
                value,
                voters,
            } => {
                if *instance < self.gc_watermark {
                    return;
                }
                self.holders
                    .entry((*instance, *round))
                    .or_default()
                    .extend(voters.iter());
                if self.decided.contains(instance) {
                    return;
                }
                let tally = self.tallies.entry((*instance, *round, *value)).or_default();
                tally.extend(voters.iter());
                if self.config.is_quorum(tally.len()) {
                    self.decided.insert(*instance);
                    let inst = *instance;
                    self.tallies.retain(|&(i, _, _), _| i != inst);
                }
            }
            _ => {}
        }
    }

    fn validate(&mut self, msg: &PaxosMessage, peer: NodeId) -> bool {
        if !self.mode.filtering {
            return true;
        }
        match msg {
            PaxosMessage::Phase2b {
                instance,
                round,
                value,
                voters,
            } => {
                let pass = !self.peer_knows(peer, *instance)
                    && self.record_votes_sent(peer, *instance, *round, *value, voters);
                if !pass {
                    self.filtered_by_kind[msg.kind().index()] += 1;
                }
                pass
            }
            PaxosMessage::Decision { instance, .. } => {
                let pass = !self.peer_knows(peer, *instance)
                    && !self.quorum_and_value_sent(peer, *instance);
                if !pass {
                    self.filtered_by_kind[Kind::Decision.index()] += 1;
                }
                if *instance >= self.gc_watermark {
                    self.record_decision_sent(peer, *instance);
                }
                pass
            }
            _ => true,
        }
    }

    fn aggregate(&mut self, pending: Vec<PaxosMessage>, _peer: NodeId) -> Vec<PaxosMessage> {
        if !self.mode.aggregation {
            return pending;
        }
        let mut merged: HashMap<(InstanceId, Round, ValueId), BTreeSet<NodeId>> = HashMap::new();
        for msg in &pending {
            if let PaxosMessage::Phase2b {
                instance,
                round,
                value,
                voters,
            } = msg
            {
                merged
                    .entry((*instance, *round, *value))
                    .or_default()
                    .extend(voters.iter());
            }
        }
        let mut emitted: HashSet<(InstanceId, Round, ValueId)> = HashSet::new();
        let mut out = Vec::with_capacity(pending.len());
        for msg in pending {
            match msg {
                PaxosMessage::Phase2b {
                    instance,
                    round,
                    value,
                    ..
                } => {
                    let key = (instance, round, value);
                    if emitted.insert(key) {
                        let voters = merged[&key].iter().copied().collect();
                        out.push(PaxosMessage::Phase2b {
                            instance,
                            round,
                            value,
                            voters,
                        });
                    }
                }
                other => out.push(other),
            }
        }
        out
    }

    fn disaggregate(&mut self, msg: PaxosMessage) -> Vec<PaxosMessage> {
        msg.disaggregate_votes()
    }
}
