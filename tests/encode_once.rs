//! Properties of the encode-once broadcast path: sharing payloads by
//! handle and frame bytes by `Bytes` must be observationally identical to
//! the old clone-per-peer, encode-per-peer implementation.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use gossip_consensus::gossip::codec::Wire;
use gossip_consensus::prelude::*;
use gossip_consensus::transport::Bytes;

fn arb_value() -> impl Strategy<Value = Value> {
    (
        0u32..50,
        0u64..1000,
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(origin, seq, payload)| Value::new(NodeId::new(origin), seq, payload))
}

fn arb_message() -> impl Strategy<Value = PaxosMessage> {
    let voters = proptest::collection::btree_set(0u32..64, 1..8)
        .prop_map(|s| s.into_iter().map(NodeId::new).collect::<Vec<_>>());
    prop_oneof![
        (0u32..50, arb_value()).prop_map(|(f, value)| PaxosMessage::ClientValue {
            forwarder: NodeId::new(f),
            value,
        }),
        (0u32..100, 0u64..1000, 0u32..50).prop_map(|(r, i, s)| PaxosMessage::Phase1a {
            round: Round::new(r),
            from_instance: InstanceId::new(i),
            sender: NodeId::new(s),
        }),
        (0u64..1000, 0u32..100, arb_value(), 0u32..50).prop_map(|(i, r, value, s)| {
            PaxosMessage::Phase2a {
                instance: InstanceId::new(i),
                round: Round::new(r),
                value: value.into(),
                sender: NodeId::new(s),
            }
        }),
        (0u64..1000, 0u32..100, arb_value(), 0u32..50).prop_map(|(i, r, value, s)| {
            PaxosMessage::Phase2a {
                instance: InstanceId::new(i),
                round: Round::new(r),
                value: Proposal::naming(&value),
                sender: NodeId::new(s),
            }
        }),
        (0u64..1000, 0u32..100, arb_value(), voters).prop_map(|(i, r, value, voters)| {
            PaxosMessage::Phase2b {
                instance: InstanceId::new(i),
                round: Round::new(r),
                value: value.id(),
                voters: voters.into(),
            }
        }),
        (0u64..1000, arb_value(), 0u32..50).prop_map(|(i, value, s)| PaxosMessage::Decision {
            instance: InstanceId::new(i),
            value,
            sender: NodeId::new(s),
        }),
    ]
}

fn classic_node(peers: u32) -> GossipNode<PaxosMessage, NoSemantics> {
    GossipNode::classic(
        NodeId::new(0),
        (1..=peers).map(NodeId::new).collect(),
        GossipConfig::default(),
    )
}

fn semantic_node(n: usize, peers: u32) -> GossipNode<PaxosMessage, PaxosSemantics> {
    GossipNode::new(
        NodeId::new(0),
        (1..=peers).map(NodeId::new).collect(),
        GossipConfig::default(),
        PaxosSemantics::full(PaxosConfig::new(n)),
    )
}

/// Only messages that can merge leave their shared handle in a drain: a
/// message alone in its aggregation class — anything but a vote, or a vote
/// nothing pending can merge with — reaches every peer as the *same*
/// `Arc`, so a transport still encodes it once, while the votes queued
/// beside it collapse into one aggregate per peer.
#[test]
fn lone_messages_stay_shared_while_votes_beside_them_merge() {
    let value = |seq: u64| Value::new(NodeId::new(1), seq, vec![seq as u8; 32]);
    let vote = |instance: u64, voter: u32| PaxosMessage::Phase2b {
        instance: InstanceId::new(instance),
        round: Round::ZERO,
        value: value(instance).id(),
        voters: vec![NodeId::new(voter)].into(),
    };
    let peers = 3usize;
    let mut node = semantic_node(9, peers as u32);
    let queued = [
        PaxosMessage::ClientValue {
            forwarder: NodeId::new(0),
            value: value(7),
        },
        vote(4, 1),
        PaxosMessage::Phase2a {
            instance: InstanceId::new(5),
            round: Round::ZERO,
            value: value(5).into(),
            sender: NodeId::new(0),
        },
        vote(4, 2),
        vote(6, 3), // alone in its class
        vote(4, 0),
        PaxosMessage::Decision {
            instance: InstanceId::new(3),
            value: value(3),
            sender: NodeId::new(0),
        },
    ];
    for msg in &queued {
        node.broadcast(msg.clone());
    }
    let mut shared = Vec::new();
    node.take_outgoing_shared_into(&mut shared);

    // Per peer: ClientValue, votes(4; 0 1 2) where the first vote stood,
    // Phase2a, the lone vote, Decision.
    let per_peer = 5;
    assert_eq!(shared.len(), peers * per_peer);
    let merged = PaxosMessage::Phase2b {
        instance: InstanceId::new(4),
        round: Round::ZERO,
        value: value(4).id(),
        voters: vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)].into(),
    };
    let expected = [
        queued[0].clone(),
        merged,
        queued[2].clone(),
        queued[4].clone(),
        queued[6].clone(),
    ];
    for (at, (peer, msg)) in shared.iter().enumerate() {
        assert_eq!(peer.as_index(), 1 + at / per_peer);
        assert_eq!(**msg, expected[at % per_peer]);
        // Aggregates (slot 1) are built per peer; everything else is the
        // first peer's handle again.
        let is_aggregate = at % per_peer == 1;
        if at >= per_peer {
            assert_eq!(
                Arc::ptr_eq(msg, &shared[at % per_peer].1),
                !is_aggregate,
                "slot {}",
                at % per_peer
            );
        }
    }
    assert_eq!(node.stats().aggregated_away.get(), (2 * peers) as u64);
}

proptest! {
    /// With the Paxos rules filtering and merging, the owned and the shared
    /// drain still hand out the same `(peer, message)` sequence and count
    /// the same sends, filter drops and merges — whatever mix of messages
    /// piled up between drains.
    #[test]
    fn prop_owned_and_shared_semantic_drains_agree(
        rounds in proptest::collection::vec(
            proptest::collection::vec((arb_message(), any::<bool>(), 1u32..8), 1..12),
            1..6,
        ),
        peers in 1u32..6,
    ) {
        let mut owned = semantic_node(64, peers);
        let mut shared = semantic_node(64, peers);
        for ops in &rounds {
            for (msg, is_broadcast, from) in ops {
                let from = NodeId::new(from % peers + 1);
                if *is_broadcast {
                    owned.broadcast(msg.clone());
                    shared.broadcast(msg.clone());
                } else {
                    owned.on_receive(from, msg.clone());
                    shared.on_receive(from, msg.clone());
                }
            }
            let out_owned = owned.take_outgoing();
            let out_shared: Vec<(NodeId, PaxosMessage)> = shared
                .take_outgoing_shared()
                .into_iter()
                .map(|(peer, msg)| (peer, (*msg).clone()))
                .collect();
            prop_assert_eq!(out_owned, out_shared);
            prop_assert_eq!(owned.take_deliveries(), shared.take_deliveries());
        }
        for (a, b) in [
            (owned.stats().sent.get(), shared.stats().sent.get()),
            (owned.stats().filtered.get(), shared.stats().filtered.get()),
            (owned.stats().aggregated_away.get(), shared.stats().aggregated_away.get()),
        ] {
            prop_assert_eq!(a, b);
        }
    }

    /// `encode_into` (the reusable-buffer path) produces exactly the bytes
    /// of the allocating `to_bytes`, for arbitrary messages, regardless of
    /// what the scratch buffer held before.
    #[test]
    fn prop_encode_into_matches_to_bytes(
        msgs in proptest::collection::vec(arb_message(), 1..8),
    ) {
        let mut buf: Vec<u8> = vec![0xFF; 7]; // stale garbage to overwrite
        for msg in &msgs {
            let len = msg.encode_into(&mut buf);
            prop_assert_eq!(len, buf.len());
            prop_assert_eq!(&buf, &msg.to_bytes());
        }
    }

    /// The encode-once shared-frame path — drain shared handles, serialize
    /// each distinct message a single time into a reused buffer, fan the
    /// same `Bytes` out to every peer — puts byte-identical frames on the
    /// wire to encoding independently for every peer (the old path).
    #[test]
    fn prop_shared_frames_byte_identical_to_per_peer_encoding(
        msgs in proptest::collection::vec(arb_message(), 1..10),
        peers in 1u32..8,
    ) {
        let mut node = classic_node(peers);
        for msg in &msgs {
            node.broadcast(msg.clone());
        }
        let shared = node.take_outgoing_shared();

        // Encode-once: one frame per distinct message id, shared by handle.
        let mut scratch = Vec::new();
        let mut frames: HashMap<MessageId, Bytes> = HashMap::new();
        let encoded_once: Vec<(NodeId, Bytes)> = shared
            .iter()
            .map(|(peer, msg)| {
                let frame = frames
                    .entry(msg.message_id())
                    .or_insert_with(|| {
                        msg.encode_into(&mut scratch);
                        Bytes::from(&scratch[..])
                    })
                    .clone();
                (*peer, frame)
            })
            .collect();

        // Per-peer: every (peer, message) pair encoded independently.
        let per_peer: Vec<(NodeId, Vec<u8>)> = shared
            .iter()
            .map(|(peer, msg)| (*peer, (**msg).to_bytes()))
            .collect();

        prop_assert_eq!(encoded_once.len(), per_peer.len());
        for ((p1, shared_frame), (p2, owned_frame)) in
            encoded_once.iter().zip(per_peer.iter())
        {
            prop_assert_eq!(p1, p2);
            prop_assert_eq!(&shared_frame[..], &owned_frame[..]);
        }
    }

    /// The `_into` drain variants agree exactly with the allocating drains:
    /// two nodes fed the same operations yield the same deliveries and the
    /// same outgoing pairs whichever way they are drained, and the scratch
    /// buffers are appended to, never clobbered.
    #[test]
    fn prop_into_drains_agree_with_allocating_drains(
        ops in proptest::collection::vec((arb_message(), any::<bool>(), 1u32..8), 1..20),
        peers in 1u32..8,
    ) {
        let mut a = classic_node(peers);
        let mut b = classic_node(peers);
        let mut deliveries: Vec<PaxosMessage> = Vec::new();
        let mut outgoing: Vec<(NodeId, PaxosMessage)> = Vec::new();
        for (msg, is_broadcast, from) in &ops {
            let from = NodeId::new(from % peers + 1);
            if *is_broadcast {
                a.broadcast(msg.clone());
                b.broadcast(msg.clone());
            } else {
                a.on_receive(from, msg.clone());
                b.on_receive(from, msg.clone());
            }
            let del_a = a.take_deliveries();
            let out_a = a.take_outgoing();
            let del_start = deliveries.len();
            let out_start = outgoing.len();
            b.take_deliveries_into(&mut deliveries);
            b.take_outgoing_into(&mut outgoing);
            prop_assert_eq!(&deliveries[del_start..], &del_a[..]);
            prop_assert_eq!(&outgoing[out_start..], &out_a[..]);
        }
        prop_assert_eq!(a.stats().sent.get(), b.stats().sent.get());
        prop_assert_eq!(a.stats().delivered.get(), b.stats().delivered.get());
    }
}
