//! bench-smoke: a fast, machine-readable snapshot of the gossip hot path.
//!
//! Times the broadcast fan-out (clone-per-peer vs shared handles), the
//! encode path (per-peer encode vs encode-once + shared frame bytes), and
//! the end-to-end node broadcast/drain loop with plain `Instant` timing —
//! no criterion — and writes the numbers to `BENCH_gossip.json` so the
//! perf trajectory is tracked across PRs.
//!
//! ```text
//! cargo run --release -p bench --bin bench_smoke [--out BENCH_gossip.json]
//!     [--history BENCH_history.jsonl] [--check] [--label NAME]
//!     [--inject-slowdown MULT]
//! ```
//!
//! The workload mirrors `benches/micro.rs`: a Phase 2a carrying a 1 KiB
//! value (votes are thin, so the proposal is the payload-carrying
//! steady-state broadcast), fanned out to 7 peers plus local delivery.
//!
//! Three more timings cover the semantic vote path at the n = 27 of the
//! whole-system benchmark: one `PaxosSemantics::validate` (votes of 27
//! acceptors streamed to 3 peers whose own votes were observed, with the
//! hosts' GC cadence), one `aggregate` of 27 single-voter votes into one,
//! and one `RecentCache` insert at capacity with the mesh's 64% duplicate
//! share.
//!
//! Beyond the hot-path timings, the run also measures **wire redundancy**
//! per dissemination substrate: a small deterministic WAN sim (13 nodes,
//! Paxos at 13 values/s) runs once on push gossip and once on eager/lazy
//! (Plumtree-style) dissemination, and each trace is reduced to bytes
//! sent per byte encoded by the same analysis that backs
//! `tracetool report`. The eager/lazy ratio is a gated metric: the tree
//! quietly un-converging (payloads flooding again) is a perf regression
//! just like a slower encode path.
//!
//! A **shard-count sweep** then runs the pipeline-limited sim with client
//! values sharded over 1, 2 and 4 consensus groups on one substrate and
//! records `ordered_throughput_groups_{1,2,4}`. These are gated on
//! absolute floors (≥1.6× at 2 groups, ≥3× at 4 groups over the
//! single-group baseline) rather than the trajectory minimum: a sharded
//! runtime that stops scaling is a regression even if every hot-path
//! timing is unchanged.
//!
//! With `--history FILE` each run also appends one JSONL line to an
//! append-only trajectory file, so the hot-path numbers are comparable
//! across commits. With `--check`, the current run is compared against the
//! **best** (minimum) recorded value of each gated metric before the new
//! entry is appended: any metric more than 15% slower than its recorded
//! best exits non-zero — the perf-regression CI gate. `--inject-slowdown
//! MULT` multiplies the measured numbers (validating that the gate
//! actually fails; such runs are never appended to the history).

use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use paxos::{InstanceId, PaxosMessage, Round, Value};
use semantic_gossip::codec::Wire;
use semantic_gossip::{
    DuplicateFilter, GossipConfig, GossipNode, MessageId, NoSemantics, NodeId, RecentCache,
    Semantics,
};
use transport::Bytes;

const FANOUT: usize = 7;
const BATCH: usize = 16;

/// Metrics the `--check` gate compares against the recorded baseline
/// (the hot-path costs; the ratios derived from them are informational).
const GATED: [&str; 7] = [
    "ns_per_fanout_shared",
    "ns_per_encode_once",
    "ns_per_broadcast_drain",
    "ns_per_semantics_validate",
    "ns_per_semantics_aggregate_n27",
    "ns_per_recent_cache_insert",
    "bytes_sent_per_byte_encoded_eager_lazy",
];

/// A run fails the gate when a gated metric exceeds its recorded best by
/// more than this factor.
const TOLERANCE: f64 = 1.15;

/// Whole-run wire redundancy (bytes sent per byte encoded) of one
/// dissemination substrate: a deterministic 13-node WAN sim driving Paxos
/// at 13 values/s for 2 s after a 1 s warmup, reduced from its trace by
/// the same analysis behind `tracetool report`. Deterministic, so the
/// trajectory gate compares exact reruns, not noisy timings.
fn wire_redundancy(setup: testbed::cluster::Setup) -> f64 {
    use testbed::cluster::{run_cluster, ClusterParams};
    let mut params = ClusterParams::paper(13, setup)
        .with_rate(13.0)
        .with_seconds(2.0, 1.0);
    params.trace_capacity = 1 << 20;
    let metrics = run_cluster(&params);
    let trace = metrics.trace_jsonl.expect("tracing was enabled");
    let analysis = testbed::analysis::analyze_str(&trace).expect("sim trace parses");
    analysis.wire_merged().bytes_sent_per_byte_encoded()
}

/// Ordered throughput of the deterministic WAN sim with its client values
/// sharded over `groups` consensus groups on one gossip substrate. The
/// deployment is pipeline-limited (a small open-instance window), so one
/// group's ordered throughput is RTT-bound at ~window/RTT while G
/// independent groups multiply the aggregate window — the scaling the
/// sharded group runtime exists to deliver (ROADMAP item 1). Each shard is
/// audited independently; a run that fails any shard's audit panics.
fn shard_ordered(groups: usize) -> u64 {
    use testbed::cluster::{run_cluster, ClusterParams, Setup};
    let params = ClusterParams::paper(13, Setup::Gossip)
        .with_groups(groups)
        .with_max_open_instances(4)
        .with_rate(60.0)
        .with_seconds(2.0, 1.0);
    let metrics = run_cluster(&params);
    assert!(
        metrics.safety_ok,
        "shard sweep at {groups} group(s) must audit clean: {:?}",
        metrics.violations
    );
    metrics.ordered
}

fn proposal() -> PaxosMessage {
    PaxosMessage::Phase2a {
        instance: InstanceId::new(42),
        round: Round::new(1),
        value: Value::new(NodeId::new(3), 7, vec![0xAB; 1024]),
        sender: NodeId::new(1),
    }
}

/// Timing windows per metric: each metric is measured as the minimum of
/// this many ~40 ms means. A single mean soaks up whatever the scheduler
/// does during its window; the min over several windows discards those
/// outliers, which is what a 15% regression gate needs to not flake on a
/// shared box.
const REPEATS: usize = 5;

/// Best (minimum) mean ns per call of `f` over [`REPEATS`] windows, with
/// a warm-up and an adaptive per-window iteration count (~200 ms total
/// measurement budget).
fn time_ns(mut f: impl FnMut()) -> f64 {
    let warmup = Instant::now();
    f();
    let once = warmup.elapsed().max(Duration::from_nanos(100));
    let n = (Duration::from_millis(40).as_nanos() / once.as_nanos()).clamp(10, 400_000) as u64;
    let mut best = f64::INFINITY;
    for _ in 0..REPEATS {
        let start = Instant::now();
        for _ in 0..n {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / n as f64);
    }
    best
}

/// Like [`time_ns`], but each sample consumes a fresh input built by
/// `setup` *outside* the measurement — the fan-out comparison hands both
/// routines owned messages without timing their construction.
fn time_ns_batched<I>(mut setup: impl FnMut() -> I, mut routine: impl FnMut(I)) -> f64 {
    let warmup = Instant::now();
    routine(setup());
    let once = warmup.elapsed().max(Duration::from_nanos(100));
    let n = (Duration::from_millis(40).as_nanos() / once.as_nanos()).clamp(10, 400_000) as u64;
    let mut best = f64::INFINITY;
    for _ in 0..REPEATS {
        let mut total = Duration::ZERO;
        for _ in 0..n {
            let input = setup();
            let start = Instant::now();
            routine(input);
            total += start.elapsed();
        }
        best = best.min(total.as_nanos() as f64 / n as f64);
    }
    best
}

fn main() -> ExitCode {
    let mut out_path = String::from("BENCH_gossip.json");
    let mut history_path: Option<String> = None;
    let mut check = false;
    let mut label = String::from("local");
    let mut slowdown = 1.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--history" => history_path = Some(args.next().expect("--history needs a path")),
            "--check" => check = true,
            "--label" => label = args.next().expect("--label needs a name"),
            "--inject-slowdown" => {
                slowdown = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&m| m >= 1.0)
                    .expect("--inject-slowdown needs a multiplier >= 1")
            }
            other => panic!("unknown argument: {other}"),
        }
    }

    let peers: Vec<NodeId> = (1..=FANOUT as u32).map(NodeId::new).collect();
    let msg = proposal();

    // Fan-out: distribute BATCH owned messages to delivery + 7 peer slots,
    // by deep clone (the pre-sharing implementation) vs by Arc handle.
    let ns_fanout_cloned = {
        let mut out: Vec<(NodeId, PaxosMessage)> = Vec::with_capacity(FANOUT + 1);
        let msg = msg.clone();
        let peers = peers.clone();
        time_ns_batched(
            move || vec![msg.clone(); BATCH],
            move |batch| {
                for owned in batch {
                    out.clear();
                    out.push((NodeId::new(0), owned.clone()));
                    for &p in &peers {
                        out.push((p, owned.clone()));
                    }
                    black_box(&out);
                }
            },
        ) / BATCH as f64
    };
    let ns_fanout_shared = {
        let mut out: Vec<(NodeId, Arc<PaxosMessage>)> = Vec::with_capacity(FANOUT + 1);
        let msg = msg.clone();
        let peers = peers.clone();
        time_ns_batched(
            move || vec![msg.clone(); BATCH],
            move |batch| {
                for owned in batch {
                    let shared = Arc::new(owned);
                    out.clear();
                    out.push((NodeId::new(0), Arc::clone(&shared)));
                    for &p in &peers {
                        out.push((p, Arc::clone(&shared)));
                    }
                    black_box(&out);
                }
            },
        ) / BATCH as f64
    };

    // Encode: serialize the broadcast once per peer vs once per message,
    // sharing the frame bytes by handle.
    let ns_encode_per_peer = {
        let msg = msg.clone();
        time_ns(move || {
            for _ in 0..FANOUT {
                black_box(msg.to_bytes());
            }
        })
    };
    let ns_encode_once = {
        let msg = msg.clone();
        let mut buf = Vec::new();
        time_ns(move || {
            msg.encode_into(&mut buf);
            let frame = Bytes::from(&buf[..]);
            for _ in 0..FANOUT {
                black_box(frame.clone());
            }
        })
    };

    // End-to-end: broadcast through the real node, zero-copy shared drain
    // plus delivery drain — what one broadcast costs the TCP runtime.
    let ns_broadcast_drain = {
        let mut node: GossipNode<PaxosMessage, NoSemantics> =
            GossipNode::classic(NodeId::new(0), peers.clone(), GossipConfig::default());
        let mut outgoing: Vec<(NodeId, Arc<PaxosMessage>)> = Vec::new();
        let mut deliveries: Vec<PaxosMessage> = Vec::new();
        let mut seq = 0u64;
        time_ns(move || {
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
    };

    // Semantic filtering: every acceptor's vote offered to each of 3 peers,
    // instance after instance; the peers are acceptors 0..3, and their own
    // votes are observed on arrival as a receiving node would (the evidence
    // that they hold the proposal); past the quorum the rule filters.
    // Collected the way the hosts do (every 256 instances, keeping 1024).
    let ns_semantics_validate = {
        const N: u64 = 27;
        const PEERS: u64 = 3;
        let mut sem = bench::semantics(N as usize);
        // One vote per acceptor, built once: only the instance moves.
        let mut votes = bench::vote_batch(N as usize);
        let mut calls = 0u64;
        time_ns(move || {
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
            black_box(sem.validate(vote, NodeId::new(peer as u32)));
        })
    };

    // Semantic aggregation: 27 pending single-voter votes become one.
    let ns_semantics_aggregate = {
        let mut sem = bench::semantics(27);
        let batch = bench::vote_batch(27);
        time_ns_batched(
            move || batch.clone(),
            move |pending| {
                black_box(sem.aggregate(pending, NodeId::new(1)));
            },
        )
    };

    // Duplicate suppression at capacity: 9 fresh structural ids (each
    // evicting the oldest) for every 16 re-offers of recent ones.
    let ns_recent_cache_insert = {
        let vote_id = |k: u64| MessageId::from_parts((5 << 56) | ((k % 27) << 24), k / 27);
        let capacity = GossipConfig::default().recent_cache_size;
        let mut cache = RecentCache::new(capacity);
        let mut fresh = 0u64;
        while cache.len() < capacity {
            fresh += 1;
            cache.insert(vote_id(fresh));
        }
        let mut calls = 0u64;
        time_ns(move || {
            calls += 1;
            let id = if calls % 25 < 9 {
                fresh += 1;
                vote_id(fresh)
            } else {
                vote_id(fresh - calls % 1000)
            };
            black_box(cache.insert(id));
        })
    };

    // The injected slowdown scales every measured cost — a synthetic
    // regression for validating that `--check` actually fails.
    let ns_fanout_cloned = ns_fanout_cloned * slowdown;
    let ns_fanout_shared = ns_fanout_shared * slowdown;
    let ns_encode_per_peer = ns_encode_per_peer * slowdown;
    let ns_encode_once = ns_encode_once * slowdown;
    let ns_broadcast_drain = ns_broadcast_drain * slowdown;
    let ns_semantics_validate = ns_semantics_validate * slowdown;
    let ns_semantics_aggregate = ns_semantics_aggregate * slowdown;
    let ns_recent_cache_insert = ns_recent_cache_insert * slowdown;

    let frame_bytes = msg.to_bytes().len();
    let broadcasts_per_sec = 1e9 / ns_broadcast_drain;
    let fanout_speedup = ns_fanout_cloned / ns_fanout_shared;
    let encode_speedup = ns_encode_per_peer / ns_encode_once;

    // Substrate redundancy: deterministic sims, so the injected slowdown
    // (a timing knob) does not apply.
    let redundancy_push = wire_redundancy(testbed::cluster::Setup::Gossip);
    let redundancy_eager_lazy = wire_redundancy(testbed::cluster::Setup::EagerLazyGossip);

    // Shard-count sweep: ordered throughput of the pipeline-limited sim at
    // 1, 2 and 4 consensus groups. Deterministic; gated on absolute
    // scaling floors rather than the trajectory minimum, since higher is
    // better here.
    let ordered_groups_1 = shard_ordered(1);
    let ordered_groups_2 = shard_ordered(2);
    let ordered_groups_4 = shard_ordered(4);
    let shard_speedup_2 = ordered_groups_2 as f64 / ordered_groups_1.max(1) as f64;
    let shard_speedup_4 = ordered_groups_4 as f64 / ordered_groups_1.max(1) as f64;

    let json = format!(
        "{{\n  \"bench\": \"gossip_hot_path\",\n  \"fanout\": {FANOUT},\n  \
         \"payload_bytes\": 1024,\n  \
         \"ns_per_fanout_cloned\": {ns_fanout_cloned:.1},\n  \
         \"ns_per_fanout_shared\": {ns_fanout_shared:.1},\n  \
         \"fanout_speedup\": {fanout_speedup:.2},\n  \
         \"ns_per_encode_per_peer\": {ns_encode_per_peer:.1},\n  \
         \"ns_per_encode_once\": {ns_encode_once:.1},\n  \
         \"encode_speedup\": {encode_speedup:.2},\n  \
         \"ns_per_broadcast_drain\": {ns_broadcast_drain:.1},\n  \
         \"broadcast_throughput_per_sec\": {broadcasts_per_sec:.0},\n  \
         \"ns_per_semantics_validate\": {ns_semantics_validate:.1},\n  \
         \"ns_per_semantics_aggregate_n27\": {ns_semantics_aggregate:.1},\n  \
         \"ns_per_recent_cache_insert\": {ns_recent_cache_insert:.1},\n  \
         \"bytes_encoded_per_broadcast\": {frame_bytes},\n  \
         \"bytes_sent_per_broadcast\": {},\n  \
         \"bytes_sent_per_byte_encoded_push\": {redundancy_push:.2},\n  \
         \"bytes_sent_per_byte_encoded_eager_lazy\": {redundancy_eager_lazy:.2},\n  \
         \"ordered_throughput_groups_1\": {ordered_groups_1},\n  \
         \"ordered_throughput_groups_2\": {ordered_groups_2},\n  \
         \"ordered_throughput_groups_4\": {ordered_groups_4},\n  \
         \"shard_speedup_groups_2\": {shard_speedup_2:.2},\n  \
         \"shard_speedup_groups_4\": {shard_speedup_4:.2}\n}}\n",
        frame_bytes * FANOUT
    );
    print!("{json}");

    // Absolute scaling floors for the shard sweep: sharding must buy real
    // ordered throughput, not just spread CPU. The sims are deterministic,
    // so these are exact across reruns.
    let mut shard_floor_failed = false;
    for (groups, speedup, floor) in [(2, shard_speedup_2, 1.6), (4, shard_speedup_4, 3.0)] {
        if speedup < floor {
            eprintln!(
                "error: {groups}-group ordered throughput is {speedup:.2}x the \
                 single-group baseline (floor {floor:.1}x)"
            );
            shard_floor_failed = true;
        }
    }

    if slowdown == 1.0 {
        std::fs::write(&out_path, &json).expect("write bench json");
        eprintln!("wrote {out_path}");
    } else {
        eprintln!("--inject-slowdown set; not overwriting {out_path}");
    }

    let Some(history_path) = history_path else {
        return if shard_floor_failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    };

    use obs::json::JsonValue as J;
    let measured: [(&str, f64); 12] = [
        ("ns_per_fanout_cloned", ns_fanout_cloned),
        ("ns_per_fanout_shared", ns_fanout_shared),
        ("ns_per_encode_per_peer", ns_encode_per_peer),
        ("ns_per_encode_once", ns_encode_once),
        ("ns_per_broadcast_drain", ns_broadcast_drain),
        ("ns_per_semantics_validate", ns_semantics_validate),
        ("ns_per_semantics_aggregate_n27", ns_semantics_aggregate),
        ("ns_per_recent_cache_insert", ns_recent_cache_insert),
        ("bytes_sent_per_byte_encoded_push", redundancy_push),
        (
            "bytes_sent_per_byte_encoded_eager_lazy",
            redundancy_eager_lazy,
        ),
        ("shard_speedup_groups_2", shard_speedup_2),
        ("shard_speedup_groups_4", shard_speedup_4),
    ];

    // The trajectory on disk: one JSON object per line, append-only.
    let history = std::fs::read_to_string(&history_path).unwrap_or_default();
    let entries: Vec<std::collections::BTreeMap<String, J>> = history
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| J::parse(l).ok()?.as_obj().cloned())
        .collect();

    let mut regressed = false;
    if check {
        if entries.is_empty() {
            eprintln!("{history_path}: no recorded runs yet; check passes vacuously");
        } else {
            println!(
                "perf trajectory check vs {} recorded run(s) in {history_path}:",
                entries.len()
            );
            for name in GATED {
                let current = measured
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, v)| v)
                    .expect("gated metric is measured");
                let best = entries
                    .iter()
                    .filter_map(|e| e.get(name)?.as_f64())
                    .fold(f64::INFINITY, f64::min);
                if !best.is_finite() {
                    println!("  {name:<24} no baseline recorded; skipped");
                    continue;
                }
                let delta = (current / best - 1.0) * 100.0;
                let verdict = if current > best * TOLERANCE {
                    regressed = true;
                    "REGRESSION"
                } else {
                    "ok"
                };
                println!(
                    "  {name:<24} {current:>10.1} ns  vs best {best:>10.1} ns  \
                     ({delta:+6.1}%)  {verdict}"
                );
            }
        }
    }

    if slowdown == 1.0 {
        let at_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut entry = std::collections::BTreeMap::new();
        entry.insert("at_unix".to_string(), J::Int(at_unix as i128));
        entry.insert("label".to_string(), J::Str(label));
        for (name, value) in measured {
            entry.insert(name.to_string(), J::Float(value));
        }
        let line = format!("{}\n", J::Obj(entry).render());
        let mut appended = history;
        appended.push_str(&line);
        std::fs::write(&history_path, appended).expect("append bench history");
        eprintln!("appended run to {history_path}");
    } else {
        eprintln!("--inject-slowdown set; not appending the synthetic run to {history_path}");
    }

    if regressed {
        eprintln!(
            "error: hot-path cost regressed more than {:.0}% past the recorded best",
            (TOLERANCE - 1.0) * 100.0
        );
        return ExitCode::FAILURE;
    }
    if shard_floor_failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
