//! The in-process mesh: every node of the cluster pumped round-robin by one
//! thread, frames encoded on send and decoded on receipt, delivery instant.
//!
//! With no simulator, no sockets and no threads in the way, what this host
//! measures is the processor time the stack itself needs per decision —
//! its latency numbers are processor time only and say nothing about a
//! network.
//!
//! Load is a closed loop: each client keeps exactly one value outstanding
//! and submits the next when its own node delivers the previous one in
//! order. Each visit drains the node's inbox completely (a capped drain
//! lets inboxes grow without bound once the pump falls behind).

use std::collections::{BTreeSet, VecDeque};
use std::time::{Duration, Instant};

use overlay::{connected_k_out, paper_fanout, Graph};
use paxos::ValueId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use semantic_gossip::NodeId;
use transport::Bytes;

use crate::node::{GossipCounts, Node, NodeCounts, WindowCounts};
use crate::span::{Mode, Op, SpanReport, SpanSink};
use crate::spec::{MeshSpec, VALUE_SIZE};
use crate::sys;

/// A built, bootstrapped cluster that has not seen a client value yet.
pub struct Mesh<M: Mode> {
    nodes: Vec<Node<M>>,
    inboxes: Vec<VecDeque<(NodeId, Bytes)>>,
    pub overlay: Graph,
    /// Time spent generating the overlay (part of the set-up time).
    pub overlay_build: Duration,
    /// Nodes a client is attached to.
    pub clients: Vec<usize>,
    payload: Vec<u8>,
    rss_at: u64,
}

/// What a measured mesh run observed.
pub struct MeshRun {
    /// Values submitted inside the measured window.
    pub attempted: u64,
    /// Every node's ordered delivery log and every value submitted, for
    /// [`audit_logs`](crate::node::audit_logs).
    pub logs: Vec<Vec<(u64, ValueId, bool)>>,
    pub submitted: BTreeSet<ValueId>,
    pub cpu: Duration,
    /// Every value decided in the window: `(decided at, ns after the window
    /// opened; submit-to-ordered latency in ms)`.
    pub samples: Vec<(u64, f64)>,
    pub window: WindowCounts,
    /// Resident set (kB) when the cluster had decided `rss_at` values;
    /// `None` if the run ended first.
    pub rss_kb: Option<u64>,
    /// The RSS guard tripped and the run was cut short.
    pub aborted: bool,
}

impl<M: Mode> Mesh<M> {
    /// Generates the workload's pinned overlay, draws client placement and
    /// payload bytes from `seed`, builds the nodes and runs Phase 1 of round
    /// 0 to quiescence.
    pub fn build(spec: MeshSpec, seed: u64) -> Mesh<M> {
        let MeshSpec {
            n,
            clients,
            overlay_seed,
            rss_at,
        } = spec;
        let started = Instant::now();
        let mut overlay_rng = StdRng::seed_from_u64(overlay_seed);
        let overlay = connected_k_out(n, paper_fanout(n), &mut overlay_rng, 100)
            .expect("could not generate a connected overlay");
        let overlay_build = started.elapsed();

        let mut rng = StdRng::seed_from_u64(sys::mix(seed, 1));
        let mut placement: Vec<usize> = (0..n).collect();
        sys::shuffle(&mut rng, &mut placement);
        placement.truncate(clients);
        placement.sort_unstable();
        let mut payload = vec![0u8; VALUE_SIZE];
        sys::fill_bytes(&mut rng, &mut payload);

        let epoch = Instant::now();
        let nodes = (0..n)
            .map(|i| {
                let peers = overlay
                    .neighbors(i)
                    .iter()
                    .map(|&p| NodeId::new(p as u32))
                    .collect();
                Node::new(i as u32, n, peers, SpanSink::new(i as u32, epoch))
            })
            .collect();
        let mut mesh = Mesh {
            nodes,
            inboxes: vec![VecDeque::new(); n],
            overlay,
            overlay_build,
            clients: placement,
            payload,
            rss_at,
        };
        mesh.nodes[0].start_round_zero();
        mesh.quiesce();
        mesh
    }

    /// One visit: drain the inbox, run consensus, ship what it produced.
    /// Returns whether the node moved any frame.
    fn visit(&mut self, i: usize) -> bool {
        let node = &mut self.nodes[i];
        let inbox = &mut self.inboxes[i];
        let mut moved = !inbox.is_empty();
        while let Some((from, frame)) = inbox.pop_front() {
            node.receive(from, &frame);
        }
        node.step();
        let from = NodeId::new(i as u32);
        let before = node.counts.frames_out;
        // Split borrow: a node never sends to itself, so its own inbox is
        // not touched while the others are filled.
        let (left, right) = self.inboxes.split_at_mut(i);
        let (_, right) = right.split_first_mut().expect("node has an inbox");
        node.ship(|peer, frame| {
            let p = peer.as_index();
            let target = if p < i {
                &mut left[p]
            } else {
                &mut right[p - i - 1]
            };
            target.push_back((from, frame));
            true
        });
        moved |= node.counts.frames_out != before;
        moved
    }

    /// Pumps until a full round over all nodes moves nothing.
    fn quiesce(&mut self) {
        loop {
            let mut moved = false;
            for i in 0..self.nodes.len() {
                moved |= self.visit(i);
            }
            if !moved {
                return;
            }
        }
    }

    fn totals(&self) -> (NodeCounts, GossipCounts) {
        let mut nodes = NodeCounts::default();
        let mut gossip = GossipCounts::default();
        for n in &self.nodes {
            nodes.merge(&n.counts);
            gossip.merge(&n.gossip_counts());
        }
        (nodes, gossip)
    }

    /// Runs the closed loop: `warmup` unmeasured, then `measure` measured,
    /// then drains every outstanding value and audits the logs.
    pub fn run(mut self, warmup: Duration, measure: Duration) -> MeshRun {
        let rss_at = self.rss_at;
        let n = self.nodes.len();
        let mut is_client = vec![false; n];
        for &c in &self.clients {
            is_client[c] = true;
        }
        // Per client node: when its outstanding value was submitted.
        let mut outstanding: Vec<Option<Instant>> = vec![None; n];
        let mut sent = vec![0u64; n];
        let mut submitted: BTreeSet<ValueId> = BTreeSet::new();
        let mut samples = Vec::new();
        let mut attempted = 0u64;
        let mut aborted = false;

        let start = Instant::now();
        let measure_from = start + warmup;
        let stop_at = measure_from + measure;
        let mut measuring = false;
        let mut base = self.totals();
        let mut cpu_base = sys::thread_cpu();
        let mut window_start = start;
        let mut visits = 0u64;
        let mut rss_kb = None;

        'pump: loop {
            for i in 0..n {
                let visit_span = self.nodes[i].probe().clone();
                let _v = visit_span.span(Op::Visit);
                self.visit(i);
                if !is_client[i] {
                    continue;
                }
                let now = Instant::now();
                if !measuring && now >= measure_from {
                    measuring = true;
                    base = self.totals();
                    cpu_base = sys::thread_cpu();
                    window_start = now;
                    for node in &self.nodes {
                        node.probe().sink().reset();
                    }
                }
                if now >= stop_at {
                    break 'pump;
                }
                let node = &mut self.nodes[i];
                if !node.own_decided.is_empty() {
                    node.own_decided.clear();
                    if let Some(at) = outstanding[i].take() {
                        if measuring {
                            let decided_ns = (now - window_start).as_nanos() as u64;
                            samples.push((decided_ns, (now - at).as_secs_f64() * 1e3));
                        }
                    }
                }
                if outstanding[i].is_none() {
                    let mut payload = self.payload.clone();
                    payload[..8].copy_from_slice(&sent[i].to_le_bytes());
                    sent[i] += 1;
                    let seq = node.submit(payload);
                    submitted.insert(ValueId::new(NodeId::new(i as u32), seq));
                    outstanding[i] = Some(now);
                    attempted += u64::from(measuring);
                }
            }
            visits += n as u64;
            if rss_kb.is_none() && self.nodes[0].counts.decisions >= rss_at {
                rss_kb = Some(sys::rss_kb());
            }
            if visits % 8192 < n as u64 && sys::rss_kb() > sys::RSS_GUARD_KB {
                aborted = true;
                break;
            }
        }
        let wall = window_start.elapsed();
        let cpu = sys::thread_cpu().saturating_sub(cpu_base);
        let (nodes_end, gossip_end) = self.totals();
        let mut spans = SpanReport::default();
        for node in &self.nodes {
            spans.merge(node.probe().sink().report());
        }

        // Let the values still in flight finish before the logs are read.
        if !aborted {
            self.quiesce();
        }

        MeshRun {
            attempted,
            logs: self
                .nodes
                .iter_mut()
                .map(|node| std::mem::take(&mut node.log))
                .collect(),
            submitted,
            cpu,
            samples,
            window: WindowCounts {
                nodes: nodes_end.since(&base.0),
                gossip: gossip_end.since(&base.1),
                spans,
                loop_ns: wall.as_nanos() as u64,
            },
            rss_kb,
            aborted,
        }
    }
}
