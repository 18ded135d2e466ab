//! Shared harness code for the Criterion benchmarks.
//!
//! The benchmarks regenerate the paper's tables and figures at reduced
//! scale (small `n`, short windows) so a full `cargo bench` finishes in
//! minutes; the `repro` binary (`crates/testbed`) produces the full-scale
//! reports. Everything here is deterministic per seed.

use paxos::{PaxosConfig, PaxosMessage, ValueId, VoterSet};
use paxos_semantics::PaxosSemantics;
use raft_lite::{RaftConfig, RaftMessage, RaftNode, RaftSemantics, Term};
use rand::rngs::StdRng;
use rand::SeedableRng;
use semantic_gossip::{DuplicateFilter, GossipConfig, GossipItem, GossipNode, NodeId};
use testbed::{run_cluster, ClusterParams, RunMetrics, Setup};

/// A small, fast cluster run used by the figure benches.
pub fn mini_cluster(setup: Setup, n: usize, rate: f64, loss: f64, seed: u64) -> RunMetrics {
    let params = ClusterParams::paper(n, setup)
        .with_rate(rate)
        .with_seconds(1.0, 0.5)
        .with_loss(loss)
        .with_seed(seed);
    let m = run_cluster(&params);
    assert!(m.safety_ok, "bench run violated safety");
    m
}

/// Floods `count` distinct vote messages through a duplicate filter,
/// re-offering each `copies` times — the duplicate-suppression hot path.
pub fn dedup_workload<F: DuplicateFilter>(filter: &mut F, count: usize, copies: usize) -> usize {
    let mut fresh = 0;
    for c in 0..count {
        let msg = PaxosMessage::Phase2b {
            instance: paxos::InstanceId::new((c / 32) as u64),
            round: paxos::Round::ZERO,
            value: ValueId::new(NodeId::new(0), (c / 32) as u64),
            voters: VoterSet::single(NodeId::new((c % 32) as u32)),
        };
        let id = msg.message_id();
        for _ in 0..copies {
            if filter.insert(id) {
                fresh += 1;
            }
        }
    }
    fresh
}

/// Builds a batch of identical votes differing by voter, for aggregation
/// benches.
pub fn vote_batch(voters: usize) -> Vec<PaxosMessage> {
    (0..voters)
        .map(|v| PaxosMessage::Phase2b {
            instance: paxos::InstanceId::ZERO,
            round: paxos::Round::ZERO,
            value: ValueId::new(NodeId::new(0), 0),
            voters: VoterSet::single(NodeId::new(v as u32)),
        })
        .collect()
}

/// A fresh full-rules semantics instance for `n` processes.
pub fn semantics(n: usize) -> PaxosSemantics {
    PaxosSemantics::full(PaxosConfig::new(n))
}

/// Runs the raft-lite protocol over a gossip mesh on a random overlay;
/// returns the total messages the gossip layers sent. Used by the
/// `ablation_raft` bench to quantify how much the semantic techniques save
/// for a second consensus protocol (the paper's §5 claim).
pub fn raft_mesh_sent(n: usize, commands: usize, semantic: bool, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = overlay::connected_k_out(n, overlay::paper_fanout(n), &mut rng, 100)
        .expect("connected overlay");
    let config = RaftConfig::new(n);
    let mut gossips: Vec<GossipNode<RaftMessage, RaftSemantics>> = (0..n)
        .map(|i| {
            let peers = graph
                .neighbors(i)
                .iter()
                .map(|&p| NodeId::new(p as u32))
                .collect();
            let sem = if semantic {
                RaftSemantics::full(config.clone())
            } else {
                RaftSemantics::disabled(config.clone())
            };
            GossipNode::new(NodeId::new(i as u32), peers, GossipConfig::default(), sem)
        })
        .collect();
    let mut nodes: Vec<RaftNode> = (0..n as u32)
        .map(|i| RaftNode::new(NodeId::new(i), config.clone()))
        .collect();

    for m in nodes[0].become_leader(Term::ZERO) {
        gossips[0].broadcast(m);
    }
    let mut deliveries: Vec<RaftMessage> = Vec::new();
    let mut outgoing: Vec<(NodeId, RaftMessage)> = Vec::new();
    let mut settle = |gossips: &mut Vec<GossipNode<RaftMessage, RaftSemantics>>,
                      nodes: &mut Vec<RaftNode>| loop {
        let mut progressed = false;
        for i in 0..n {
            loop {
                gossips[i].take_deliveries_into(&mut deliveries);
                if deliveries.is_empty() {
                    break;
                }
                progressed = true;
                for msg in deliveries.drain(..) {
                    for m in nodes[i].handle(msg) {
                        gossips[i].broadcast(m);
                    }
                }
            }
            gossips[i].take_outgoing_into(&mut outgoing);
            for (peer, msg) in outgoing.drain(..) {
                gossips[peer.as_index()].on_receive(NodeId::new(i as u32), msg);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    };
    for c in 0..commands {
        let origin = c % n;
        for m in nodes[origin].submit(vec![c as u8; 64]) {
            gossips[origin].broadcast(m);
        }
        if c % 3 == 2 {
            settle(&mut gossips, &mut nodes);
        }
    }
    settle(&mut gossips, &mut nodes);
    let committed = nodes[0].take_committed().len();
    assert_eq!(committed, commands, "every command must commit");
    gossips.iter().map(|g| g.stats().sent.get()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use semantic_gossip::RecentCache;

    #[test]
    fn mini_cluster_runs_every_setup() {
        for setup in [
            Setup::Baseline,
            Setup::Gossip,
            Setup::SemanticGossip,
            Setup::EagerLazyGossip,
        ] {
            let m = mini_cluster(setup, 13, 13.0, 0.0, 1);
            assert!(m.ordered > 0, "{setup:?}");
        }
    }

    #[test]
    fn dedup_workload_counts_fresh_once() {
        let mut cache = RecentCache::new(1 << 12);
        let fresh = dedup_workload(&mut cache, 100, 3);
        assert_eq!(fresh, 100);
    }

    #[test]
    fn vote_batch_aggregates_to_one() {
        use semantic_gossip::Semantics;
        let mut sem = semantics(64);
        let out = sem.aggregate(vote_batch(32), NodeId::new(63));
        assert_eq!(out.len(), 1);
    }
}
