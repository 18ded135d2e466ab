//! Cross-crate property-based tests: gossip dissemination and Paxos safety
//! under adversarial schedules.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

use gossip_consensus::prelude::*;

// ---------------------------------------------------------------------------
// Gossip dissemination properties
// ---------------------------------------------------------------------------

/// Synchronously settles a mesh of classic gossip nodes over `graph` after
/// the given broadcasts; returns per-node delivered message counts.
fn settle_classic(graph: &Graph, broadcasts: &[(usize, u64)]) -> Vec<Vec<PaxosMessage>> {
    let mut nodes: Vec<GossipNode<PaxosMessage, NoSemantics>> = (0..graph.len())
        .map(|i| {
            let peers = graph
                .neighbors(i)
                .iter()
                .map(|&p| NodeId::new(p as u32))
                .collect();
            GossipNode::new(
                NodeId::new(i as u32),
                peers,
                GossipConfig::default(),
                NoSemantics,
            )
        })
        .collect();
    for &(origin, seq) in broadcasts {
        nodes[origin].broadcast(PaxosMessage::ClientValue {
            forwarder: NodeId::new(origin as u32),
            value: Value::new(NodeId::new(origin as u32), seq, vec![0; 8]),
        });
    }
    let mut delivered: Vec<Vec<PaxosMessage>> = vec![Vec::new(); graph.len()];
    loop {
        let mut progressed = false;
        for i in 0..nodes.len() {
            delivered[i].extend(nodes[i].take_deliveries());
            for (peer, msg) in nodes[i].take_outgoing() {
                nodes[peer.as_index()].on_receive(NodeId::new(i as u32), msg);
                progressed = true;
            }
        }
        if !progressed {
            for (i, d) in delivered.iter_mut().enumerate() {
                d.extend(nodes[i].take_deliveries());
            }
            return delivered;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On any connected overlay, every broadcast reaches every node exactly
    /// once (classic push gossip with duplicate suppression).
    #[test]
    fn prop_gossip_reaches_everyone_exactly_once(
        seed in 0u64..500,
        n in 4usize..20,
        broadcasts in proptest::collection::vec((0usize..20, 0u64..1000), 1..10),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = connected_k_out(n, paper_fanout(n), &mut rng, 100).unwrap();
        let broadcasts: Vec<(usize, u64)> = broadcasts
            .into_iter()
            .map(|(origin, seq)| (origin % n, seq))
            .collect();
        // Distinct (origin, seq) pairs produce distinct message ids.
        let mut unique = broadcasts.clone();
        unique.sort_unstable();
        unique.dedup();
        let delivered = settle_classic(&graph, &unique);
        for (i, msgs) in delivered.iter().enumerate() {
            prop_assert_eq!(msgs.len(), unique.len(), "node {} delivery count", i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Semantic gossip never hides a decision: on any connected overlay, if
    /// a quorum of votes plus the decision are injected, every node ends up
    /// knowing the decided instance even though filtering drops messages.
    #[test]
    fn prop_semantic_filtering_preserves_decision_knowledge(
        seed in 0u64..500,
        n in 4usize..16,
        injectors in proptest::collection::vec(0usize..16, 1..5),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = connected_k_out(n, paper_fanout(n), &mut rng, 100).unwrap();
        let config = PaxosConfig::new(n);
        let mut nodes: Vec<GossipNode<PaxosMessage, PaxosSemantics>> = (0..n)
            .map(|i| {
                let peers = graph
                    .neighbors(i)
                    .iter()
                    .map(|&p| NodeId::new(p as u32))
                    .collect();
                GossipNode::new(
                    NodeId::new(i as u32),
                    peers,
                    GossipConfig::default(),
                    PaxosSemantics::full(config.clone()),
                )
            })
            .collect();
        // A quorum of identical votes, each injected at some node, then the
        // decision injected at the first node.
        let value = Value::new(NodeId::new(0), 7, vec![9; 16]);
        for (k, &at) in injectors.iter().enumerate() {
            nodes[at % n].broadcast(PaxosMessage::Phase2b {
                instance: InstanceId::ZERO,
                round: Round::ZERO,
                value: value.id(),
                voters: vec![NodeId::new(k as u32)].into(),
            });
        }
        nodes[injectors[0] % n].broadcast(PaxosMessage::Decision {
            instance: InstanceId::ZERO,
            value,
            sender: NodeId::new(0),
        });
        // Settle.
        loop {
            let mut progressed = false;
            for i in 0..n {
                let _ = nodes[i].take_deliveries();
                for (peer, msg) in nodes[i].take_outgoing() {
                    nodes[peer.as_index()].on_receive(NodeId::new(i as u32), msg);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        for (i, node) in nodes.iter().enumerate() {
            prop_assert!(
                node.semantics().knows_decided(InstanceId::ZERO),
                "node {} never learned the decision",
                i
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Paxos safety under adversarial delivery
// ---------------------------------------------------------------------------

/// Runs Paxos with a randomized delivery schedule: messages may be dropped,
/// duplicated, and reordered arbitrarily. Returns every process's delivered
/// sequence.
fn chaos_run(
    n: usize,
    values: usize,
    seed: u64,
    drop_rate: f64,
    dup_rate: f64,
) -> Vec<Vec<(InstanceId, ValueId)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = PaxosConfig::new(n);
    let mut procs: Vec<PaxosProcess> = (0..n as u32)
        .map(|i| PaxosProcess::new(NodeId::new(i), config.clone()))
        .collect();
    // (destination, message) pool; "broadcast" fans out to every process.
    let mut pool: VecDeque<(usize, PaxosMessage)> = VecDeque::new();
    let fan_out = |out: Vec<paxos::Outbound>, pool: &mut VecDeque<(usize, PaxosMessage)>| {
        for o in out {
            for dst in 0..n {
                pool.push_back((dst, o.msg.clone()));
            }
        }
    };

    fan_out(procs[0].start_round(Round::ZERO), &mut pool);
    for v in 0..values {
        let origin = v % n;
        let (_, out) = procs[origin].submit_payload(vec![v as u8]);
        fan_out(out, &mut pool);
    }

    let mut delivered: Vec<Vec<(InstanceId, ValueId)>> = vec![Vec::new(); n];
    let mut steps = 0usize;
    while let Some(pos) = pick(&mut rng, pool.len()) {
        steps += 1;
        if steps > 500_000 {
            break; // safety-net; the property only checks consistency
        }
        let (dst, msg) = pool.remove(pos).expect("index in range");
        if rng.gen::<f64>() < drop_rate {
            continue;
        }
        if rng.gen::<f64>() < dup_rate {
            pool.push_back((dst, msg.clone()));
        }
        fan_out(procs[dst].handle(msg), &mut pool);
        delivered[dst].extend(
            procs[dst]
                .take_decisions()
                .into_iter()
                .map(|(i, v)| (i, v.id())),
        );
    }
    delivered
}

fn pick(rng: &mut StdRng, len: usize) -> Option<usize> {
    if len == 0 {
        None
    } else {
        Some(rng.gen_range(0..len))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under arbitrary drops, duplications and reorderings, all processes
    /// deliver consistent prefixes: no two processes ever disagree on the
    /// value of an instance.
    #[test]
    fn prop_paxos_prefix_consistency(
        seed in 0u64..10_000,
        n in 3usize..8,
        values in 1usize..6,
        drop in 0.0f64..0.4,
        dup in 0.0f64..0.3,
    ) {
        let delivered = chaos_run(n, values, seed, drop, dup);
        let longest = delivered.iter().max_by_key(|d| d.len()).unwrap().clone();
        for (p, log) in delivered.iter().enumerate() {
            for (a, b) in log.iter().zip(longest.iter()) {
                prop_assert_eq!(a, b, "process {} diverged", p);
            }
        }
    }

    /// With no loss, every submitted value is eventually delivered by every
    /// process, in the same order.
    #[test]
    fn prop_paxos_liveness_without_loss(
        seed in 0u64..10_000,
        n in 3usize..8,
        values in 1usize..6,
    ) {
        let delivered = chaos_run(n, values, seed, 0.0, 0.0);
        for (p, log) in delivered.iter().enumerate() {
            prop_assert_eq!(log.len(), values, "process {} must deliver all", p);
            prop_assert_eq!(log, &delivered[0], "process {} order differs", p);
        }
    }
}

// ---------------------------------------------------------------------------
// Wire-format properties
// ---------------------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    (
        0u32..50,
        0u64..1000,
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(origin, seq, payload)| Value::new(NodeId::new(origin), seq, payload))
}

proptest! {
    /// Disaggregating an aggregated vote yields votes whose ids match what
    /// the original senders would have produced, and re-aggregation is
    /// stable.
    #[test]
    fn prop_aggregation_reversible(
        i in 0u64..100,
        r in 0u32..50,
        value in arb_value(),
        voters in proptest::collection::btree_set(0u32..32, 2..10),
    ) {
        let voters: Vec<NodeId> = voters.into_iter().map(NodeId::new).collect();
        let agg = PaxosMessage::Phase2b {
            instance: InstanceId::new(i),
            round: Round::new(r),
            value: value.id(),
            voters: voters.clone().into(),
        };
        let parts = agg.clone().disaggregate_votes();
        prop_assert_eq!(parts.len(), voters.len());
        let mut sem = PaxosSemantics::full(PaxosConfig::new(64));
        let re = sem.aggregate(parts, NodeId::new(63));
        prop_assert_eq!(re.len(), 1);
        prop_assert_eq!(re.into_iter().next().unwrap(), agg);
    }
}

// ---------------------------------------------------------------------------
// Observer neutrality
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Attaching a `RingObserver` must not change gossip behavior: fed the
    /// same operation sequence, an instrumented node's delivery and outgoing
    /// queues stay byte-identical to an uninstrumented node's.
    #[test]
    fn prop_observer_is_behavior_neutral(
        ops in proptest::collection::vec(
            (0u32..8, 0u64..64, any::<bool>()),
            1..60,
        ),
    ) {
        use gossip_consensus::gossip::codec::Wire;
        use gossip_consensus::gossip::RecentCache;
        use gossip_consensus::obs::RingObserver;

        let peers: Vec<NodeId> = (1..8).map(NodeId::new).collect();
        let config = GossipConfig::default();
        let mut plain: GossipNode<PaxosMessage, NoSemantics> =
            GossipNode::new(NodeId::new(0), peers.clone(), config, NoSemantics);
        let mut traced: GossipNode<PaxosMessage, NoSemantics, RecentCache, RingObserver> =
            GossipNode::with_observer(
                NodeId::new(0),
                peers,
                config,
                NoSemantics,
                RecentCache::new(config.recent_cache_size),
                RingObserver::with_capacity(1024),
            );

        let mut recorded = 0usize;
        for &(origin, seq, is_broadcast) in &ops {
            let value = Value::new(NodeId::new(origin), seq, vec![origin as u8; 16]);
            let msg = PaxosMessage::ClientValue { forwarder: NodeId::new(origin), value };
            if is_broadcast {
                plain.broadcast(msg.clone());
                traced.broadcast(msg);
            } else {
                let from = NodeId::new(origin % 7 + 1);
                plain.on_receive(from, msg.clone());
                traced.on_receive(from, msg);
            }

            let plain_out: Vec<(u32, Vec<u8>)> = plain
                .take_outgoing()
                .into_iter()
                .map(|(p, m)| (p.as_u32(), m.to_bytes()))
                .collect();
            let traced_out: Vec<(u32, Vec<u8>)> = traced
                .take_outgoing()
                .into_iter()
                .map(|(p, m)| (p.as_u32(), m.to_bytes()))
                .collect();
            prop_assert_eq!(plain_out, traced_out);

            let plain_del: Vec<Vec<u8>> =
                plain.take_deliveries().iter().map(Wire::to_bytes).collect();
            let traced_del: Vec<Vec<u8>> =
                traced.take_deliveries().iter().map(Wire::to_bytes).collect();
            prop_assert_eq!(plain_del, traced_del);

            recorded = traced.observer().len() + traced.observer().discarded() as usize;
        }
        // The ring really was recording while behavior stayed identical.
        prop_assert!(recorded > 0);
    }
}

// ---------------------------------------------------------------------------
// Observability: bounded histograms and the trace codec
// ---------------------------------------------------------------------------

proptest! {
    /// A `LogHistogram` quantile estimate always lands inside the bucket of
    /// the exact nearest-rank percentile over the same samples — the
    /// bounded-memory summary is never more than one bucket (≤ 6.25%
    /// relative error) away from the truth.
    #[test]
    fn prop_log_quantile_within_one_bucket_of_exact(
        vals in proptest::collection::vec(any::<u64>(), 1..300),
        p in 0.0f64..=100.0,
    ) {
        use gossip_consensus::obs::hist::{bucket_bounds, nearest_rank};
        use gossip_consensus::obs::LogHistogram;

        let mut hist = LogHistogram::new();
        for &v in &vals {
            hist.record(v);
        }
        let mut sorted = vals;
        sorted.sort_unstable();
        let exact = nearest_rank(&sorted, p).unwrap();
        let (lo, hi) = bucket_bounds(exact);
        let est = hist.quantile(p / 100.0).unwrap();
        prop_assert!(
            (lo..=hi).contains(&est),
            "estimate {} outside bucket [{}, {}] of exact {}",
            est, lo, hi, exact
        );
    }

    /// Merging histograms is associative and commutative, and preserves
    /// count, sum and extremes — the partial aggregates a fleet of nodes
    /// ships can be combined in any order.
    #[test]
    fn prop_log_merge_order_independent(
        a in proptest::collection::vec(any::<u64>(), 0..80),
        b in proptest::collection::vec(any::<u64>(), 0..80),
        c in proptest::collection::vec(any::<u64>(), 0..80),
    ) {
        use gossip_consensus::obs::LogHistogram;

        let build = |vals: &[u64]| {
            let mut h = LogHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (ha, hb, hc) = (build(&a), build(&b), build(&c));

        // (a ⊕ b) ⊕ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a ⊕ (b ⊕ c)
        let mut right_inner = hb.clone();
        right_inner.merge(&hc);
        let mut right = ha.clone();
        right.merge(&right_inner);
        prop_assert_eq!(&left, &right);

        // b ⊕ a == a ⊕ b
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);

        // The merged summary matches recording everything into one.
        let mut all = a.clone();
        all.extend(&b);
        all.extend(&c);
        prop_assert_eq!(&left, &build(&all));
    }

    /// Every `Event` variant — including the live-gauge samples — survives
    /// the JSONL round trip with randomized field values, and the generated
    /// examples cover every declared kind.
    #[test]
    fn prop_event_jsonl_round_trip_all_variants(
        nums in proptest::collection::vec(any::<u64>(), 16..17),
        // Printable ASCII including `"` and `\`, to exercise JSON escaping.
        label in proptest::collection::vec(32u8..127u8, 0..25)
            .prop_map(|b| b.into_iter().map(char::from).collect::<String>()),
        at in any::<u64>(),
    ) {
        use gossip_consensus::obs::json::JsonValue;
        use gossip_consensus::obs::{Event, TimedEvent};

        let examples = Event::examples();
        let kinds: std::collections::BTreeSet<&str> =
            examples.iter().map(|e| e.kind()).collect();
        prop_assert_eq!(kinds.len(), Event::KINDS.len());
        for kind in Event::KINDS {
            prop_assert!(kinds.contains(kind), "example missing for {}", kind);
        }
        for required in [
            "queue_depth_sampled",
            "cache_occupancy_sampled",
            "instance_window_sampled",
        ] {
            prop_assert!(Event::KINDS.contains(&required), "{} kind is gone", required);
        }

        for (i, example) in examples.iter().enumerate() {
            // Randomize every field through the JSON codec. The example
            // value reveals the field's width: u64 examples are above
            // 2^53, so anything small is a u32 field and the random value
            // is reduced into range.
            let JsonValue::Obj(mut obj) = example.to_json_value() else {
                return Err(TestCaseError::fail("event did not encode as an object"));
            };
            let mut slot = i;
            for (key, value) in obj.iter_mut() {
                if key == "type" {
                    continue;
                }
                match value {
                    JsonValue::Int(old) => {
                        let fresh = nums[slot % nums.len()];
                        let fresh = if *old <= u32::MAX as i128 {
                            fresh % (u32::MAX as u64 + 1)
                        } else {
                            fresh
                        };
                        *value = JsonValue::Int(fresh as i128);
                        slot += 1;
                    }
                    JsonValue::Str(_) => *value = JsonValue::Str(label.clone()),
                    _ => {}
                }
            }
            let randomized = Event::from_json_value(&JsonValue::Obj(obj))
                .map_err(|e| TestCaseError::fail(format!("decode randomized: {e}")))?;
            let timed = TimedEvent { at, event: randomized };
            let line = timed.to_json();
            prop_assert!(!line.contains('\n'), "JSONL event must be one line");
            let back = TimedEvent::from_json(&line)
                .map_err(|e| TestCaseError::fail(format!("round trip: {e}")))?;
            prop_assert_eq!(back, timed);
        }
    }
}
