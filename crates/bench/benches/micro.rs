//! Micro-benchmarks of the hot-path primitives: wire codec, duplicate
//! filters, the semantic vote path, and the gossip node's forwarding loop.
//!
//! `cargo bench -p bench --bench micro` prints one line per routine; under
//! `cargo test` each routine runs once as a smoke test. These timings are
//! for quoting beside a change: regressions are judged by the whole-system
//! benchmark's `bench_e2e --compare`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use bench::{semantics, vote_batch};
use paxos::{InstanceId, PaxosMessage, Round, Value};
use semantic_gossip::codec::Wire;
use semantic_gossip::{
    DuplicateFilter, GossipConfig, GossipItem, GossipNode, MessageId, NoSemantics, NodeId,
    RecentCache, Semantics,
};

/// The message that carries the value: a proposal with `payload` bytes.
fn sample_proposal(payload: usize) -> PaxosMessage {
    PaxosMessage::Phase2a {
        instance: InstanceId::new(42),
        round: Round::new(1),
        value: Value::new(NodeId::new(3), 7, vec![0xAB; payload]).into(),
        sender: NodeId::new(1),
    }
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    let vote = vote_batch(1).pop().expect("one vote");
    let samples = [64usize, 1024]
        .map(|payload| (payload.to_string(), sample_proposal(payload)))
        .into_iter()
        .chain([("vote".to_string(), vote)]);
    for (name, msg) in samples {
        let bytes = msg.to_bytes();
        g.throughput(Throughput::Bytes(bytes.len() as u64));
        g.bench_with_input(BenchmarkId::new("encode", &name), &msg, |b, msg| {
            b.iter(|| black_box(msg.to_bytes()))
        });
        g.bench_with_input(BenchmarkId::new("decode", &name), &bytes, |b, bytes| {
            b.iter(|| black_box(PaxosMessage::from_bytes(bytes).unwrap()))
        });
    }
    g.finish();
}

fn bench_aggregation(c: &mut Criterion) {
    let mut g = c.benchmark_group("aggregation");
    for voters in [4usize, 16, 27, 52] {
        let batch = vote_batch(voters);
        g.bench_with_input(BenchmarkId::new("aggregate", voters), &batch, |b, batch| {
            b.iter_batched(
                || (semantics(105), batch.clone()),
                |(mut sem, batch)| black_box(sem.aggregate(batch, NodeId::new(104))),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    // Disaggregation of a 52-voter aggregate (n=105 quorum).
    let mut sem = semantics(105);
    let agg = sem
        .aggregate(vote_batch(52), NodeId::new(104))
        .pop()
        .expect("one aggregate");
    g.bench_function("disaggregate_52", |b| {
        b.iter_batched(
            || (semantics(105), agg.clone()),
            |(mut sem, agg)| black_box(sem.disaggregate(agg)),
            criterion::BatchSize::SmallInput,
        )
    });
    // Filtering at the n = 27 of the whole-system benchmark: every
    // acceptor's vote offered to each of 3 peers, instance after instance.
    // The peers are acceptors 0..3 and their own votes are observed on
    // arrival, the evidence that they hold the proposal, so past the quorum
    // the rule filters. Collected the way the hosts do: every 256
    // instances, keeping 1 024.
    g.bench_function("validate_27", |b| {
        const N: u64 = 27;
        const PEERS: u64 = 3;
        let mut sem = semantics(N as usize);
        // One vote per acceptor, built once: only the instance moves.
        let mut votes = vote_batch(N as usize);
        let mut calls = 0u64;
        b.iter(|| {
            let (at, peer) = (calls / PEERS, calls % PEERS);
            let (number, voter) = (at / N, at % N);
            if calls.is_multiple_of(N * PEERS) && number.is_multiple_of(256) {
                sem.gc(InstanceId::new(number.saturating_sub(1024)));
            }
            calls += 1;
            let vote = &mut votes[voter as usize];
            if let PaxosMessage::Phase2b { instance, .. } = vote {
                *instance = InstanceId::new(number);
            }
            if voter < PEERS && peer == 0 {
                sem.observe(vote);
            }
            black_box(sem.validate(vote, NodeId::new(peer as u32)))
        })
    });
    g.finish();
}

fn bench_gossip_node(c: &mut Criterion) {
    let mut g = c.benchmark_group("gossip_node");
    g.bench_function("duplicate_suppression_hit", |b| {
        let peers: Vec<NodeId> = (1..=7).map(NodeId::new).collect();
        let mut node: GossipNode<PaxosMessage, NoSemantics> =
            GossipNode::classic(NodeId::new(0), peers, GossipConfig::default());
        let msg = sample_proposal(1024);
        node.on_receive(NodeId::new(1), msg.clone());
        node.take_outgoing();
        node.take_deliveries();
        b.iter(|| {
            node.on_receive(NodeId::new(2), black_box(msg.clone()));
        })
    });
    // The dedup cache at capacity with the mesh's 64 % duplicate share: 9
    // fresh vote ids, each evicting the oldest, for every 16 re-offers of
    // recent ones.
    g.bench_function("recent_cache_insert_at_capacity", |b| {
        let vote_id = |k: u64| MessageId::from_parts((5 << 56) | ((k % 27) << 24), k / 27);
        let capacity = GossipConfig::default().recent_cache_size;
        let mut cache = RecentCache::new(capacity);
        let mut fresh = 0u64;
        while cache.len() < capacity {
            fresh += 1;
            cache.insert(vote_id(fresh));
        }
        let mut calls = 0u64;
        b.iter(|| {
            calls += 1;
            let id = if calls % 25 < 9 {
                fresh += 1;
                vote_id(fresh)
            } else {
                vote_id(fresh - calls % 1000)
            };
            black_box(cache.insert(id))
        })
    });
    g.finish();
}

fn bench_message_id(c: &mut Criterion) {
    let msg = sample_proposal(1024);
    c.bench_function("message_id", |b| b.iter(|| black_box(msg.message_id())));
}

/// Instrumented vs uninstrumented gossip node on the same broadcast/drain
/// workload. `NoopObserver` must monomorphize to the pre-instrumentation
/// hot path; `RingObserver` shows the cost of actually buffering events.
fn bench_obs_overhead(c: &mut Criterion) {
    use obs::RingObserver;

    fn workload<O: obs::Observer>(
        node: &mut GossipNode<PaxosMessage, NoSemantics, RecentCache, O>,
        seq: &mut u64,
    ) {
        *seq += 1;
        node.broadcast(PaxosMessage::ClientValue {
            forwarder: NodeId::new(0),
            value: Value::new(NodeId::new(0), *seq, vec![0; 1024]),
        });
        black_box(node.take_deliveries());
        black_box(node.take_outgoing());
    }

    let mut g = c.benchmark_group("obs_overhead");
    g.throughput(Throughput::Elements(1));
    let peers: Vec<NodeId> = (1..=7).map(NodeId::new).collect();
    g.bench_function("noop_observer", |b| {
        let mut node: GossipNode<PaxosMessage, NoSemantics> =
            GossipNode::classic(NodeId::new(0), peers.clone(), GossipConfig::default());
        let mut seq = 0u64;
        b.iter(|| workload(&mut node, &mut seq))
    });
    g.bench_function("ring_observer", |b| {
        let config = GossipConfig::default();
        let mut node: GossipNode<PaxosMessage, NoSemantics, RecentCache, RingObserver> =
            GossipNode::with_observer(
                NodeId::new(0),
                peers.clone(),
                config,
                NoSemantics,
                RecentCache::new(config.recent_cache_size),
                RingObserver::with_capacity(4096),
            );
        let mut seq = 0u64;
        b.iter(|| workload(&mut node, &mut seq))
    });
    g.finish();
}

/// The broadcast fan-out itself: the pre-sharing implementation deep-cloned
/// the payload once per peer plus once for local delivery; the shared
/// implementation bumps a reference count per queue. Same logical work —
/// one fresh 1 KiB message reaching 7 peer queues and the delivery queue.
fn bench_fanout(c: &mut Criterion) {
    use std::sync::Arc;

    const BATCH: usize = 16;
    let mut g = c.benchmark_group("fanout");
    g.throughput(Throughput::Elements(BATCH as u64));
    let peers: Vec<NodeId> = (1..=7).map(NodeId::new).collect();

    // Both routines receive a batch of owned fresh messages (built in
    // setup, outside the timing) and distribute each to the delivery queue
    // plus 7 peer queues, reusing one scratch buffer the way the node
    // reuses its queues — the baseline by deep clone, the shared path by
    // handle. The message is a Phase 2a with a 1 KiB value — with thin
    // votes, the proposal is the payload-carrying broadcast of steady
    // state. A batch of 16 amortizes timer overhead.
    let proposal = || sample_proposal(1024);

    g.bench_function("clone_per_peer", |b| {
        let msg = proposal();
        let mut out: Vec<(NodeId, PaxosMessage)> = Vec::with_capacity(peers.len() + 1);
        b.iter_batched(
            || vec![msg.clone(); BATCH],
            |batch| {
                for owned in batch {
                    out.clear();
                    out.push((NodeId::new(0), owned.clone())); // delivery
                    for &p in &peers {
                        out.push((p, owned.clone()));
                    }
                    black_box(&out);
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });

    g.bench_function("share_handles", |b| {
        let msg = proposal();
        let mut out: Vec<(NodeId, Arc<PaxosMessage>)> = Vec::with_capacity(peers.len() + 1);
        b.iter_batched(
            || vec![msg.clone(); BATCH],
            |batch| {
                for owned in batch {
                    let shared = Arc::new(owned);
                    out.clear();
                    out.push((NodeId::new(0), Arc::clone(&shared))); // delivery
                    for &p in &peers {
                        out.push((p, Arc::clone(&shared)));
                    }
                    black_box(&out);
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });

    // The same comparison through the real node: a broadcast followed by
    // the zero-copy shared drain (what the TCP runtime now does).
    g.bench_function("node_broadcast_shared_drain", |b| {
        let mut node: GossipNode<PaxosMessage, NoSemantics> =
            GossipNode::classic(NodeId::new(0), peers.clone(), GossipConfig::default());
        let mut seq = 0u64;
        let mut outgoing: Vec<(NodeId, std::sync::Arc<PaxosMessage>)> = Vec::new();
        let mut deliveries: Vec<PaxosMessage> = Vec::new();
        b.iter(|| {
            seq += 1;
            node.broadcast(PaxosMessage::ClientValue {
                forwarder: NodeId::new(0),
                value: Value::new(NodeId::new(0), seq, vec![0; 1024]),
            });
            outgoing.clear();
            node.take_outgoing_shared_into(&mut outgoing);
            deliveries.clear();
            node.take_deliveries_into(&mut deliveries);
            black_box((&outgoing, &deliveries));
        })
    });
    g.finish();
}

/// Serializing a broadcast for its whole fan-out: encoding the same message
/// once per peer versus encoding once into a reused buffer and sharing the
/// frame bytes by handle.
fn bench_encode_fanout(c: &mut Criterion) {
    use transport::Bytes;

    const FANOUT: usize = 7;
    let msg = sample_proposal(1024);
    let mut g = c.benchmark_group("encode_fanout");
    g.throughput(Throughput::Elements(FANOUT as u64));

    g.bench_function("encode_per_peer", |b| {
        b.iter(|| {
            for _ in 0..FANOUT {
                black_box(msg.to_bytes());
            }
        })
    });

    g.bench_function("encode_once_share", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            msg.encode_into(&mut buf);
            let frame = Bytes::from(&buf[..]);
            for _ in 0..FANOUT {
                black_box(frame.clone());
            }
        })
    });
    g.finish();
}

/// Flushing a burst of pending frames to a real socket: one syscall per
/// frame versus the drain-then-flush batch (all frames assembled in a
/// reused buffer, one write). A reader thread keeps the socket drained.
fn bench_frame_writes(c: &mut Criterion) {
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;
    use transport::{write_frame, write_frame_into};

    const FRAMES: usize = 16;
    let payloads: Vec<Vec<u8>> = (0..FRAMES).map(|i| vec![i as u8; 512]).collect();

    let drained_socket = || {
        let (writer, mut reader) = UnixStream::pair().expect("socketpair");
        std::thread::spawn(move || {
            let mut sink = [0u8; 65536];
            while reader.read(&mut sink).map(|n| n > 0).unwrap_or(false) {}
        });
        writer
    };

    let mut g = c.benchmark_group("frame_writes");
    g.throughput(Throughput::Elements(FRAMES as u64));

    g.bench_function("unbatched", |b| {
        let mut socket = drained_socket();
        b.iter(|| {
            for p in &payloads {
                write_frame(&mut socket, p).unwrap();
            }
        })
    });

    g.bench_function("batched", |b| {
        let mut socket = drained_socket();
        let mut batch: Vec<u8> = Vec::new();
        b.iter(|| {
            batch.clear();
            for p in &payloads {
                write_frame_into(&mut batch, p).unwrap();
            }
            socket.write_all(&batch).unwrap();
        })
    });
    g.finish();
}

criterion_group!(
    micro,
    bench_codec,
    bench_aggregation,
    bench_gossip_node,
    bench_message_id,
    bench_obs_overhead,
    bench_fanout,
    bench_encode_fanout,
    bench_frame_writes
);
criterion_main!(micro);
