//! Cross-crate integration of the gossip layer with the Paxos semantic
//! rules: a synchronous in-memory mesh of `GossipNode<PaxosMessage,
//! PaxosSemantics>` instances, checked against classic gossip on the same
//! topology and inputs.

use gossip_consensus::prelude::*;

/// A little synchronous gossip network over an arbitrary topology.
struct Mesh<S: Semantics<PaxosMessage>> {
    nodes: Vec<GossipNode<PaxosMessage, S>>,
}

impl<S: Semantics<PaxosMessage>> Mesh<S> {
    fn with(
        graph: &Graph,
        make: impl Fn(NodeId, Vec<NodeId>) -> GossipNode<PaxosMessage, S>,
    ) -> Self {
        let nodes = (0..graph.len())
            .map(|i| {
                let peers = graph
                    .neighbors(i)
                    .iter()
                    .map(|&p| NodeId::new(p as u32))
                    .collect();
                make(NodeId::new(i as u32), peers)
            })
            .collect();
        Mesh { nodes }
    }

    /// Runs dissemination to quiescence; returns per-node delivered counts.
    fn settle(&mut self) -> Vec<Vec<PaxosMessage>> {
        let mut delivered: Vec<Vec<PaxosMessage>> = vec![Vec::new(); self.nodes.len()];
        loop {
            let mut progressed = false;
            for (i, d) in delivered.iter_mut().enumerate() {
                d.extend(self.nodes[i].take_deliveries());
                for (peer, msg) in self.nodes[i].take_outgoing() {
                    self.nodes[peer.as_index()].on_receive(NodeId::new(i as u32), msg);
                    progressed = true;
                }
            }
            if !progressed {
                for (i, d) in delivered.iter_mut().enumerate() {
                    d.extend(self.nodes[i].take_deliveries());
                }
                return delivered;
            }
        }
    }
}

fn ring(n: usize) -> Graph {
    Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)))
}

fn vote(instance: u64, voter: u32) -> PaxosMessage {
    PaxosMessage::Phase2b {
        instance: InstanceId::new(instance),
        round: Round::ZERO,
        value: ValueId::new(NodeId::new(0), instance),
        voters: vec![NodeId::new(voter)].into(),
    }
}

fn decision(instance: u64) -> PaxosMessage {
    PaxosMessage::Decision {
        instance: InstanceId::new(instance),
        value: Value::new(NodeId::new(0), instance, vec![1; 64]),
        sender: NodeId::new(0),
    }
}

#[test]
fn classic_gossip_floods_votes_to_every_node() {
    let g = ring(7);
    let mut mesh = Mesh::with(&g, |id, peers| {
        GossipNode::new(id, peers, GossipConfig::default(), NoSemantics)
    });
    for voter in 0..4u32 {
        mesh.nodes[voter as usize].broadcast(vote(0, voter));
    }
    let delivered = mesh.settle();
    for (i, msgs) in delivered.iter().enumerate() {
        assert_eq!(msgs.len(), 4, "node {i} must deliver all 4 votes");
    }
}

#[test]
fn semantic_mesh_delivers_votes_possibly_aggregated() {
    let config = PaxosConfig::new(7);
    let g = ring(7);
    let mut mesh = Mesh::with(&g, |id, peers| {
        GossipNode::new(
            id,
            peers,
            GossipConfig::default(),
            PaxosSemantics::full(config.clone()),
        )
    });
    for voter in 0..3u32 {
        mesh.nodes[voter as usize].broadcast(vote(0, voter));
    }
    let delivered = mesh.settle();
    // Every node learns every distinct vote (disaggregation reverses any
    // aggregation on the path).
    for (i, msgs) in delivered.iter().enumerate() {
        let mut voters: Vec<u32> = msgs
            .iter()
            .filter_map(|m| match m {
                PaxosMessage::Phase2b { voters, .. } => voters.first().map(NodeId::as_u32),
                _ => None,
            })
            .collect();
        voters.sort_unstable();
        voters.dedup();
        assert_eq!(voters, vec![0, 1, 2], "node {i} missed votes");
    }
}

#[test]
fn decision_stops_vote_propagation() {
    let config = PaxosConfig::new(5); // quorum 3
    let g = ring(5);
    let mut mesh = Mesh::with(&g, |id, peers| {
        GossipNode::new(
            id,
            peers,
            GossipConfig::default(),
            PaxosSemantics::full(config.clone()),
        )
    });
    // Node 0 broadcasts the decision first, then votes arrive behind it.
    mesh.nodes[0].broadcast(decision(0));
    mesh.nodes[0].broadcast(vote(0, 1));
    mesh.nodes[0].broadcast(vote(0, 2));
    let _ = mesh.settle();
    // Votes queued behind the decision were filtered on node 0's send path.
    let filtered: u64 = mesh.nodes.iter().map(|n| n.stats().filtered.get()).sum();
    assert!(
        filtered > 0,
        "decisions must make trailing votes filterable"
    );
}

#[test]
fn semantic_mesh_sends_fewer_messages_than_classic() {
    let config = PaxosConfig::new(9);
    let g = ring(9);

    let mut classic = Mesh::with(&g, |id, peers| {
        GossipNode::new(id, peers, GossipConfig::default(), NoSemantics)
    });
    let mut semantic = Mesh::with(&g, |id, peers| {
        GossipNode::new(
            id,
            peers,
            GossipConfig::default(),
            PaxosSemantics::full(config.clone()),
        )
    });

    // A full instance worth of traffic: 9 votes + the decision, injected
    // at the same node in the same order.
    for voter in 0..9u32 {
        classic.nodes[0].broadcast(vote(0, voter));
        semantic.nodes[0].broadcast(vote(0, voter));
    }
    classic.nodes[0].broadcast(decision(0));
    semantic.nodes[0].broadcast(decision(0));
    let _ = classic.settle();
    let _ = semantic.settle();

    let classic_sent: u64 = classic.nodes.iter().map(|n| n.stats().sent.get()).sum();
    let semantic_sent: u64 = semantic.nodes.iter().map(|n| n.stats().sent.get()).sum();
    assert!(
        semantic_sent < classic_sent,
        "semantic {semantic_sent} must send less than classic {classic_sent}"
    );
}

#[test]
fn aggregation_round_trips_through_the_wire_codec() {
    use gossip_consensus::gossip::codec::Wire;

    let config = PaxosConfig::new(5);
    let mut sem = PaxosSemantics::full(config);
    let pending = vec![vote(3, 0), vote(3, 2), vote(3, 4)];
    let out = sem.aggregate(pending, NodeId::new(9));
    assert_eq!(out.len(), 1);
    // Encode, decode, disaggregate: the original votes come back.
    let bytes = out[0].to_bytes();
    let decoded = PaxosMessage::from_bytes(&bytes).unwrap();
    let parts = sem.disaggregate(decoded);
    assert_eq!(parts.len(), 3);
    assert_eq!(parts[0], vote(3, 0));
    assert_eq!(parts[2], vote(3, 4));
}

#[test]
fn partially_connected_topology_still_reaches_everyone() {
    // A line graph is the worst case for dissemination.
    let g = Graph::from_edges(10, (0..9).map(|i| (i, i + 1)));
    let config = PaxosConfig::new(10);
    let mut mesh = Mesh::with(&g, |id, peers| {
        GossipNode::new(
            id,
            peers,
            GossipConfig::default(),
            PaxosSemantics::full(config.clone()),
        )
    });
    mesh.nodes[0].broadcast(decision(0));
    let delivered = mesh.settle();
    for (i, msgs) in delivered.iter().enumerate() {
        assert_eq!(msgs.len(), 1, "node {i} must receive the decision");
    }
}

/// Votes carry a value id, so a learner needs the proposal or a Decision
/// besides a quorum of them. A link can drop every copy of the proposal to
/// one process after the sender's filter ran (a full send queue); the
/// filter must then not hold the Decision back from that process on the
/// strength of "a quorum of votes was sent to it": having sent the
/// proposal is no evidence that the process holds the value.
#[test]
fn a_process_that_lost_every_copy_of_the_proposal_still_learns_from_the_decision() {
    const N: usize = 5;
    const VICTIM: usize = 4;
    let everyone = Graph::from_edges(N, (0..N).flat_map(|a| (a + 1..N).map(move |b| (a, b))));
    let config = PaxosConfig::new(N);
    let mut mesh = Mesh::with(&everyone, |id, peers| {
        GossipNode::new(
            id,
            peers,
            GossipConfig::default(),
            PaxosSemantics::full(config.clone()),
        )
    });
    let mut processes: Vec<PaxosProcess> = (0..N as u32)
        .map(|i| PaxosProcess::new(NodeId::new(i), config.clone()))
        .collect();

    let mut pending: Vec<(usize, PaxosMessage)> = Vec::new();
    for out in processes[0].start_round(Round::ZERO) {
        pending.push((0, out.msg));
    }
    let (value, out) = processes[0].submit_payload(vec![7; 32]);
    pending.extend(out.into_iter().map(|o| (0, o.msg)));

    loop {
        for (at, msg) in pending.drain(..) {
            mesh.nodes[at].broadcast(msg);
        }
        let mut progressed = false;
        for (i, process) in processes.iter_mut().enumerate() {
            for msg in mesh.nodes[i].take_deliveries() {
                let out = process.handle(msg);
                pending.extend(out.into_iter().map(|o| (i, o.msg)));
                progressed = true;
            }
            for (peer, msg) in mesh.nodes[i].take_outgoing() {
                let lost = peer.as_index() == VICTIM && matches!(msg, PaxosMessage::Phase2a { .. });
                if !lost {
                    mesh.nodes[peer.as_index()].on_receive(NodeId::new(i as u32), msg);
                }
                progressed = true;
            }
        }
        if !progressed && pending.is_empty() {
            break;
        }
    }

    for (i, process) in processes.iter_mut().enumerate() {
        let decided = process.take_decisions();
        assert_eq!(
            decided,
            vec![(InstanceId::ZERO, value.clone())],
            "process {i}"
        );
    }
    assert_eq!(
        processes[VICTIM].value_waits(),
        1,
        "the quorum of vote ids was held until the Decision brought the value"
    );
}
