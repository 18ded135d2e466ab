//! Integration of the wire codec with the TCP transport: real Paxos
//! messages over real sockets.

use std::time::Duration;

use gossip_consensus::gossip::codec::Wire;
use gossip_consensus::prelude::*;
use gossip_consensus::transport::{Endpoint, EndpointConfig, PeerEvent};

fn sample_messages() -> Vec<PaxosMessage> {
    let value = Value::new(NodeId::new(3), 7, vec![0xCD; 1024]);
    vec![
        PaxosMessage::ClientValue {
            forwarder: NodeId::new(1),
            value: value.clone(),
        },
        PaxosMessage::Phase1a {
            round: Round::new(1),
            from_instance: InstanceId::ZERO,
            sender: NodeId::new(0),
        },
        PaxosMessage::Phase2a {
            instance: InstanceId::new(5),
            round: Round::new(1),
            value: value.clone().into(),
            sender: NodeId::new(0),
        },
        PaxosMessage::Phase2a {
            instance: InstanceId::new(6),
            round: Round::new(1),
            value: Proposal::naming(&value),
            sender: NodeId::new(0),
        },
        PaxosMessage::Phase2b {
            instance: InstanceId::new(5),
            round: Round::new(1),
            value: value.id(),
            voters: vec![NodeId::new(2), NodeId::new(4), NodeId::new(6)].into(),
        },
        PaxosMessage::Decision {
            instance: InstanceId::new(5),
            value,
            sender: NodeId::new(0),
        },
    ]
}

#[test]
fn paxos_messages_survive_the_socket() {
    let a = Endpoint::bind(EndpointConfig::new(NodeId::new(0)), "127.0.0.1:0").unwrap();
    let b = Endpoint::bind(EndpointConfig::new(NodeId::new(1)), "127.0.0.1:0").unwrap();
    b.dial(a.local_addr()).unwrap();

    let originals = sample_messages();
    for msg in &originals {
        assert!(b.send(NodeId::new(0), msg.to_bytes()));
    }

    let mut received = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while received.len() < originals.len() {
        assert!(std::time::Instant::now() < deadline, "timed out");
        match a.recv_timeout(Duration::from_millis(100)) {
            Some(PeerEvent::Frame { from, payload }) => {
                assert_eq!(from, NodeId::new(1));
                received.push(PaxosMessage::from_bytes(&payload).unwrap());
            }
            _ => continue,
        }
    }
    assert_eq!(received, originals);
}

#[test]
fn corrupted_frames_are_rejected_not_crashing() {
    let a = Endpoint::bind(EndpointConfig::new(NodeId::new(0)), "127.0.0.1:0").unwrap();
    let b = Endpoint::bind(EndpointConfig::new(NodeId::new(1)), "127.0.0.1:0").unwrap();
    b.dial(a.local_addr()).unwrap();
    b.send(NodeId::new(0), vec![0xFF, 0x00, 0x13]);

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        assert!(std::time::Instant::now() < deadline, "timed out");
        if let Some(PeerEvent::Frame { payload, .. }) = a.recv_timeout(Duration::from_millis(100)) {
            assert!(PaxosMessage::from_bytes(&payload).is_err());
            break;
        }
    }
}

#[test]
fn gossip_over_tcp_disseminates_across_two_hops() {
    // Chain topology: 0 - 1 - 2; node 0's broadcast must reach node 2
    // through node 1's gossip relay.
    let endpoints: Vec<Endpoint> = (0..3u32)
        .map(|i| Endpoint::bind(EndpointConfig::new(NodeId::new(i)), "127.0.0.1:0").unwrap())
        .collect();
    endpoints[0].dial(endpoints[1].local_addr()).unwrap();
    endpoints[1].dial(endpoints[2].local_addr()).unwrap();

    let config = PaxosConfig::new(3);
    let peers = [vec![1u32], vec![0, 2], vec![1]];
    let mut gossips: Vec<GossipNode<PaxosMessage, PaxosSemantics>> = (0..3usize)
        .map(|i| {
            GossipNode::new(
                NodeId::new(i as u32),
                peers[i].iter().map(|&p| NodeId::new(p)).collect(),
                GossipConfig::default(),
                PaxosSemantics::full(config.clone()),
            )
        })
        .collect();

    // Wait for the two links.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while endpoints[1].peers().len() < 2 {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(10));
    }

    let decision = PaxosMessage::Decision {
        instance: InstanceId::ZERO,
        value: Value::new(NodeId::new(0), 0, b"x".to_vec()),
        sender: NodeId::new(0),
    };
    gossips[0].broadcast(decision.clone());

    let mut node2_got = false;
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !node2_got {
        assert!(
            std::time::Instant::now() < deadline,
            "dissemination timed out"
        );
        for i in 0..3 {
            for (peer, msg) in gossips[i].take_outgoing() {
                endpoints[i].send(peer, msg.to_bytes());
            }
            if let Some(PeerEvent::Frame { from, payload }) =
                endpoints[i].recv_timeout(Duration::from_millis(10))
            {
                gossips[i].on_receive(from, PaxosMessage::from_bytes(&payload).unwrap());
            }
            if i == 2 {
                for msg in gossips[2].take_deliveries() {
                    assert_eq!(msg, decision);
                    node2_got = true;
                }
            }
        }
    }
}
