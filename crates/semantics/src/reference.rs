//! Reference model of [`PaxosSemantics`](crate::PaxosSemantics): the
//! `HashMap`/`BTreeSet` implementation the crate shipped before its state
//! went dense, kept verbatim (test builds only) so the property tests can
//! demand identical verdicts, aggregates and counters from the fast one.

use std::collections::{BTreeSet, HashMap, HashSet};

use paxos::{InstanceId, Kind, PaxosConfig, PaxosMessage, Round, ValueId};
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

    fn record_votes_sent(
        &mut self,
        peer: NodeId,
        instance: InstanceId,
        round: Round,
        value: ValueId,
        voters: &[NodeId],
    ) -> bool {
        let quorum = self.config.quorum();
        let state = self.peers.entry(peer).or_default();
        let sent = state
            .sent_votes
            .entry((instance, round, value))
            .or_default();
        sent.extend(voters.iter().copied());
        if sent.len() >= quorum {
            state.knows_decided.insert(instance);
            state.sent_votes.remove(&(instance, round, value));
            true
        } else {
            false
        }
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
                if *instance < self.gc_watermark || self.decided.contains(instance) {
                    return;
                }
                let tally = self
                    .tallies
                    .entry((*instance, *round, value.id()))
                    .or_default();
                tally.extend(voters.iter().copied());
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
                if self.peer_knows(peer, *instance) {
                    self.filtered_by_kind[msg.kind().index()] += 1;
                    return false;
                }
                self.record_votes_sent(peer, *instance, *round, value.id(), voters);
                true
            }
            PaxosMessage::Decision { instance, .. } => {
                if self.peer_knows(peer, *instance) {
                    self.filtered_by_kind[Kind::Decision.index()] += 1;
                    return false;
                }
                self.record_decision_sent(peer, *instance);
                true
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
                    .entry((*instance, *round, value.id()))
                    .or_default()
                    .extend(voters.iter().copied());
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
                    let key = (instance, round, value.id());
                    if emitted.insert(key) {
                        let voters: Vec<NodeId> = merged[&key].iter().copied().collect();
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
