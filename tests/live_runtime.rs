//! The TCP host across the matrix the simulator already covers: five
//! `NodeRuntime`s over loopback `transport::Endpoint`s through
//! `gossip_consensus::live`, for every substrate × one and two consensus
//! groups, plus a coordinator loss with failover. Before the shared runtime
//! only push gossip with one group, no failover and no retransmit could be
//! reached over TCP at all.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gossip_consensus::gossip::{Direct, EagerLazyConfig, EagerLazyNode, Substrate, Wire};
use gossip_consensus::live::{loopback_endpoints, LiveNode};
use gossip_consensus::obs::{NoopObserver, SharedRing};
use gossip_consensus::prelude::*;
use gossip_consensus::testbed::analysis::analyze;
use gossip_consensus::testbed::critical_path::critical_paths;
use gossip_consensus::testbed::{shard_of, RunAudit, SafetyAuditor, WireMsg};
use gossip_consensus::transport::Endpoint;

const N: usize = 5;

/// Values each node submits (its own client's sequence 0..).
const PER_NODE: u64 = 6;

/// One node's delivery log per group, in the auditor's shape.
type Logs = Vec<Vec<(u64, ValueId, bool)>>;

fn configs(groups: u32) -> Vec<PaxosConfig> {
    (0..groups)
        .map(|g| PaxosConfig::new(N).with_group(g))
        .collect()
}

/// The ring + chord overlay of `examples/live_tcp.rs`.
fn ring_and_chord() -> Graph {
    let mut overlay = Graph::new(N);
    for i in 0..N {
        overlay.add_edge(i, (i + 1) % N);
    }
    overlay.add_edge(1, 3);
    overlay
}

fn full_mesh() -> Graph {
    let mut overlay = Graph::new(N);
    for a in 0..N {
        for b in a + 1..N {
            overlay.add_edge(a, b);
        }
    }
    overlay
}

fn neighbors(overlay: &Graph, i: usize) -> Vec<NodeId> {
    overlay
        .neighbors(i)
        .iter()
        .map(|&p| NodeId::new(p as u32))
        .collect()
}

fn logs_of<S: Substrate<WireMsg>>(runtime: &NodeRuntime<S>) -> Logs {
    runtime
        .groups()
        .iter()
        .map(|g| {
            g.delivered_log
                .iter()
                .map(|&(i, v, dup)| (i.as_u64(), v, dup))
                .collect()
        })
        .collect()
}

/// Runs one node per endpoint, each on its own thread: every group's
/// round-0 leader starts its round, every node submits [`PER_NODE`] values,
/// and all keep relaying until every node has ordered everything. Returns
/// each node's per-group delivery logs. Endpoints and hosts record into
/// `trace` when one is given.
fn run_cluster_over_tcp<S>(
    overlay: &Graph,
    groups: u32,
    trace: Option<&SharedRing>,
    build: impl Fn(usize, Vec<NodeId>) -> NodeRuntime<S>,
) -> Vec<Logs>
where
    S: Substrate<WireMsg> + Send + 'static,
    S::Frame: Wire + Send,
    S::Observer: Send,
{
    let endpoints = loopback_endpoints(overlay, trace).expect("connect the overlay");
    let finished = Arc::new(AtomicUsize::new(0));
    let workers: Vec<_> = endpoints
        .into_iter()
        .enumerate()
        .map(|(i, endpoint)| {
            let runtime = build(i, neighbors(overlay, i));
            let finished = Arc::clone(&finished);
            let trace = trace.cloned().unwrap_or_else(|| SharedRing::new(0));
            std::thread::spawn(move || {
                let mut node = LiveNode::new(runtime, endpoint, trace);
                let now = node.now_ns();
                for g in (0..groups).filter(|g| *g as usize % N == i) {
                    node.runtime_mut().start_round(g, Round::ZERO, now);
                }
                for seq in 0..PER_NODE {
                    let value = Value::new(NodeId::new(i as u32), seq, vec![i as u8; 32]);
                    node.runtime_mut().submit(value, now);
                }
                let expected = N * PER_NODE as usize;
                let deadline = Instant::now() + Duration::from_secs(30);
                let mut ordered = 0;
                let mut reported = false;
                // Keep relaying for the others after this node is done.
                while finished.load(Ordering::SeqCst) < N {
                    assert!(Instant::now() < deadline, "node {i}: {ordered}/{expected}");
                    node.step(Duration::from_millis(20));
                    ordered += node.runtime_mut().drain_ordered().count();
                    if ordered == expected && !reported {
                        reported = true;
                        finished.fetch_add(1, Ordering::SeqCst);
                    }
                }
                node.flush();
                assert!(node.decode_errors().is_empty(), "clean peers, clean frames");
                logs_of(node.runtime())
            })
        })
        .collect();
    workers
        .into_iter()
        .map(|w| w.join().expect("node thread panicked"))
        .collect()
}

/// Every submitted value ordered, identical logs everywhere, and a clean
/// safety audit — per group.
fn assert_consistent(logs: &[Logs], groups: u32, submitted: &BTreeSet<ValueId>) {
    let mut decided = BTreeSet::new();
    for g in 0..groups as usize {
        let per_node: Vec<_> = logs.iter().map(|node| node[g].clone()).collect();
        for (i, log) in per_node.iter().enumerate() {
            assert_eq!(log, &per_node[0], "group {g}: node {i} diverged");
        }
        let shard: BTreeSet<ValueId> = submitted
            .iter()
            .copied()
            .filter(|&id| shard_of(id, groups as usize) as usize == g)
            .collect();
        let report = SafetyAuditor::audit(&RunAudit {
            n: per_node.len(),
            delivered: per_node.clone(),
            promises: vec![Vec::new(); per_node.len()],
            submitted: shard.clone(),
        });
        assert!(report.is_clean(), "group {g}: {:?}", report.violations);
        let ordered: BTreeSet<ValueId> = per_node[0].iter().map(|&(_, v, _)| v).collect();
        assert_eq!(ordered, shard, "group {g} ordered exactly its shard");
        decided.extend(ordered);
    }
    assert_eq!(&decided, submitted, "every submitted value is ordered");
}

fn all_submitted() -> BTreeSet<ValueId> {
    (0..N as u32)
        .flat_map(|i| (0..PER_NODE).map(move |seq| ValueId::new(NodeId::new(i), seq)))
        .collect()
}

#[test]
fn semantic_push_orders_everything_over_tcp() {
    for groups in [1, 2] {
        let logs = run_cluster_over_tcp(&ring_and_chord(), groups, None, |i, peers| {
            NodeRuntime::semantic_gossip(
                NodeId::new(i as u32),
                peers,
                configs(groups),
                Timers::default(),
                || NoopObserver,
            )
        });
        assert_consistent(&logs, groups, &all_submitted());
    }
}

/// A live trace goes through the same replay as a simulated one: every
/// thread stamps into one ring under its lock, so the file is one run, its
/// wire bytes join to their classes and the value-carrying legs of every
/// decision resolve hop by hop (a vote may arrive aggregated, under a
/// fresh wire id).
#[test]
fn a_traced_run_replays_like_a_simulated_one() {
    let ring = SharedRing::new(1 << 18);
    let logs = run_cluster_over_tcp(&ring_and_chord(), 1, Some(&ring), |i, peers| {
        NodeRuntime::semantic_gossip(
            NodeId::new(i as u32),
            peers,
            configs(1),
            Timers::default(),
            || ring.clone(),
        )
    });
    assert_consistent(&logs, 1, &all_submitted());

    let events = ring.snapshot();
    assert_eq!(ring.discarded(), 0);
    let analysis = analyze(&events);
    assert_eq!(analysis.runs, 1, "a live trace is non-decreasing in ts");
    let attributed = analysis.ledger.attribution_ratio();
    assert!(attributed >= 0.95, "only {attributed:.3} of wire bytes");
    let paths = critical_paths(&events);
    assert_eq!(paths.len(), all_submitted().len());
    for p in &paths {
        assert!(p.submit_node.is_some() && p.coordinator.is_some(), "{p:?}");
        for leg in p.legs.iter().filter(|l| l.kind != "Phase2b") {
            assert!(leg.resolved, "instance {}: {leg:?}", p.instance);
        }
    }
}

#[test]
fn eager_lazy_orders_everything_over_tcp() {
    for groups in [1, 2] {
        let logs = run_cluster_over_tcp(&ring_and_chord(), groups, None, |i, peers| {
            let id = NodeId::new(i as u32);
            let substrate: EagerLazyNode<WireMsg> =
                EagerLazyNode::new(id, peers, EagerLazyConfig::default());
            NodeRuntime::new(id, substrate, configs(groups), Timers::default(), || {
                NoopObserver
            })
        });
        assert_consistent(&logs, groups, &all_submitted());
    }
}

#[test]
fn direct_channels_order_everything_over_tcp() {
    for groups in [1, 2] {
        let logs = run_cluster_over_tcp(&full_mesh(), groups, None, |i, _peers| {
            let id = NodeId::new(i as u32);
            let substrate: Direct<WireMsg> = Direct::new(N, NoopObserver);
            NodeRuntime::new(id, substrate, configs(groups), Timers::default(), || {
                NoopObserver
            })
        });
        assert_consistent(&logs, groups, &all_submitted());
    }
}

/// The round-0 coordinator's thread stops after its first decisions; the
/// next process in the rotation times out, starts round 1, and the
/// survivors keep ordering what they submit from then on.
#[test]
fn survivors_keep_ordering_after_the_coordinator_stops() {
    const BEFORE: usize = 4;
    const AFTER: usize = 8;
    let overlay = ring_and_chord();
    let endpoints = loopback_endpoints(&overlay, None).expect("connect the overlay");
    let timers = Timers {
        failover: Some(Duration::from_millis(300).as_nanos() as u64),
        retransmit: Some(Duration::from_millis(100).as_nanos() as u64),
    };
    let coordinator_gone = Arc::new(AtomicBool::new(false));
    let finished = Arc::new(AtomicUsize::new(0));
    let survivors = N - 1;

    let run = |i: usize, endpoint: Endpoint| {
        let id = NodeId::new(i as u32);
        let runtime = NodeRuntime::new(
            id,
            GossipNode::<WireMsg, _>::new(
                id,
                neighbors(&overlay, i),
                GossipConfig::default(),
                GroupedSemantics::new(vec![NoSemantics]),
            ),
            configs(1),
            timers,
            || NoopObserver,
        );
        let coordinator_gone = Arc::clone(&coordinator_gone);
        let finished = Arc::clone(&finished);
        std::thread::spawn(move || {
            let mut node = LiveNode::new(runtime, endpoint, SharedRing::new(0));
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut ordered = 0;
            if i == 0 {
                // The round-0 coordinator orders its own first values, then
                // its thread — and with it its sockets — goes away.
                let now = node.now_ns();
                node.runtime_mut().start_round(0, Round::ZERO, now);
                for seq in 0..BEFORE as u64 {
                    node.runtime_mut()
                        .submit(Value::new(id, seq, vec![0; 16]), now);
                }
                while ordered < BEFORE {
                    assert!(Instant::now() < deadline, "coordinator stuck");
                    node.step(Duration::from_millis(20));
                    ordered += node.runtime_mut().drain_ordered().count();
                }
                node.flush();
                coordinator_gone.store(true, Ordering::SeqCst);
                return logs_of(node.runtime());
            }
            // Once the coordinator is gone a survivor submits one value at
            // a time. What it hands in while nobody coordinates is lost
            // (clients here do not retry), so it goes on until AFTER values
            // of survivors — all submitted after the loss — are ordered.
            let mut seq = 0;
            let mut last_submit = Instant::now();
            let mut from_survivors = 0;
            let mut reported = false;
            while finished.load(Ordering::SeqCst) < survivors {
                assert!(
                    Instant::now() < deadline,
                    "node {i}: ordered {from_survivors}"
                );
                node.step(Duration::from_millis(20));
                from_survivors += node
                    .runtime_mut()
                    .drain_ordered()
                    .filter(|(_, d)| d.value.id().origin != NodeId::new(0))
                    .count();
                if from_survivors >= AFTER && !reported {
                    reported = true;
                    finished.fetch_add(1, Ordering::SeqCst);
                }
                if coordinator_gone.load(Ordering::SeqCst)
                    && !reported
                    && last_submit.elapsed() > Duration::from_millis(30)
                {
                    last_submit = Instant::now();
                    let now = node.now_ns();
                    node.runtime_mut()
                        .submit(Value::new(id, seq, vec![i as u8; 16]), now);
                    seq += 1;
                }
            }
            node.flush();
            assert!(
                node.runtime().groups()[0].paxos.current_round() > Round::ZERO,
                "node {i} never saw the new round"
            );
            logs_of(node.runtime())
        })
    };
    let workers: Vec<_> = endpoints
        .into_iter()
        .enumerate()
        .map(|(i, e)| run(i, e))
        .collect();
    let logs: Vec<Logs> = workers
        .into_iter()
        .map(|w| w.join().expect("node thread panicked"))
        .collect();

    // Agreement across everyone, the stopped coordinator's shorter log
    // included, and every survivor ordered values nobody could have
    // proposed before the new round.
    let delivered: Vec<_> = logs.iter().map(|node| node[0].clone()).collect();
    let submitted: BTreeSet<ValueId> = delivered
        .iter()
        .flat_map(|log| log.iter().map(|&(_, v, _)| v))
        .collect();
    let report = SafetyAuditor::audit(&RunAudit {
        n: N,
        delivered: delivered.clone(),
        promises: vec![Vec::new(); N],
        submitted,
    });
    assert!(report.is_clean(), "{:?}", report.violations);
    assert_eq!(delivered[0].len(), BEFORE);
    for log in &delivered[1..] {
        let after = log.iter().filter(|(_, v, _)| v.origin != NodeId::new(0));
        assert!(after.count() >= AFTER, "survivor log: {log:?}");
    }
}
