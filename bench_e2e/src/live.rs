//! The live host: five nodes, one thread each, over `transport::Endpoint`
//! on host loopback — the ring + chord overlay of `examples/live_tcp.rs`.
//!
//! Load is generated inside the node loops, so no thread exists that a real
//! deployment would not have. Traffic crosses the loopback interface: the
//! numbers include the kernel's socket path and the endpoint's send and
//! receive threads, but no wire.

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use overlay::Graph;
use paxos::ValueId;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use semantic_gossip::NodeId;
use transport::{Endpoint, EndpointConfig, PeerEvent};

use crate::node::{audit_logs, GossipCounts, Node, NodeCounts, WindowCounts};
use crate::span::{Mode, Op, Probe, SpanReport, SpanSink};
use crate::spec::{Load, LIVE_NODES, VALUE_SIZE};
use crate::sys;

/// How long a node waits for its last values after submissions stop before
/// the run is failed instead of left hanging.
const GIVE_UP_AFTER: Duration = Duration::from_secs(5);

/// Longest a node loop blocks in `recv_timeout`, which bounds how late it
/// notices a phase change.
const MAX_WAIT: Duration = Duration::from_millis(5);

/// Frames handled per loop iteration before the send queues are serviced.
const RECV_BURST: usize = 64;

/// A connected cluster that has not carried a protocol message yet.
pub struct LiveCluster {
    endpoints: Vec<Endpoint>,
    pub overlay: Graph,
}

impl LiveCluster {
    /// Binds every endpoint on an ephemeral loopback port, dials one TCP
    /// connection per overlay edge and waits for every handshake.
    pub fn connect() -> io::Result<LiveCluster> {
        let n = LIVE_NODES;
        let mut overlay = Graph::new(n);
        for i in 0..n {
            overlay.add_edge(i, (i + 1) % n);
        }
        overlay.add_edge(1, 3);

        let endpoints = (0..n as u32)
            .map(|i| Endpoint::bind(EndpointConfig::new(NodeId::new(i)), "127.0.0.1:0"))
            .collect::<io::Result<Vec<Endpoint>>>()?;
        for (a, b) in overlay.edges() {
            endpoints[a].dial(endpoints[b].local_addr())?;
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        for (i, e) in endpoints.iter().enumerate() {
            while e.peers().len() < overlay.degree(i) {
                if Instant::now() > deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "handshakes timed out",
                    ));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(LiveCluster { endpoints, overlay })
    }
}

/// The timeline every node thread follows: `warmup` unmeasured, `window`
/// measured, then no new values while the outstanding ones finish.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup: Duration,
    pub window: Duration,
}

/// State the node threads coordinate through.
struct Shared {
    /// Values each node submitted, published once its generator stopped.
    submitted: Vec<AtomicU64>,
    generators_stopped: AtomicUsize,
    /// Nodes whose log holds every submitted value.
    complete: AtomicUsize,
    abort: AtomicBool,
}

/// What one node thread hands back.
struct NodeResult {
    log: Vec<(u64, ValueId, bool)>,
    submitted: u64,
    /// Own values submitted inside the measured window.
    attempted: u64,
    /// Own values still undecided when the node stopped.
    unfinished: u64,
    /// `(decided at, ns after the window opened; latency ms)` of own values.
    samples: Vec<(u64, f64)>,
    generator_lag_ms: Vec<f64>,
    nodes: NodeCounts,
    gossip: GossipCounts,
    spans: SpanReport,
    loop_ns: u64,
    dropped: u64,
    queue_depth_max: u64,
    /// Node 0 only: resident set when its `rss_at`-th decision arrived.
    rss_kb: Option<u64>,
    /// Kept alive until every thread has finished: a dropped endpoint
    /// disconnects its peers.
    endpoint: Endpoint,
}

/// What a measured live run observed.
pub struct LiveRun {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub cpu: Duration,
    /// `(decided at, ns after the window opened; latency ms)`, all nodes.
    pub samples: Vec<(u64, f64)>,
    pub generator_lag_ms: Vec<f64>,
    pub window: WindowCounts,
    pub frames_dropped: u64,
    pub queue_depth_max: u64,
    /// Resident set (kB) when the cluster had decided `rss_at` values;
    /// `None` if the run ended first.
    pub rss_kb: Option<u64>,
    /// A node gave up waiting or the RSS guard tripped.
    pub aborted: bool,
}

/// Runs `load` on a connected cluster, following `plan`.
pub fn run<M: Mode>(
    cluster: LiveCluster,
    load: Load,
    rss_at: u64,
    seed: u64,
    plan: Plan,
) -> LiveRun {
    let n = cluster.endpoints.len();
    let shared = Arc::new(Shared {
        submitted: (0..n).map(|_| AtomicU64::new(0)).collect(),
        generators_stopped: AtomicUsize::new(0),
        complete: AtomicUsize::new(0),
        abort: AtomicBool::new(false),
    });
    let start = Instant::now() + Duration::from_millis(20);
    let window_from = start + plan.warmup;
    let window_until = window_from + plan.window;

    let workers: Vec<_> = cluster
        .endpoints
        .into_iter()
        .enumerate()
        .map(|(i, endpoint)| {
            let peers = cluster
                .overlay
                .neighbors(i)
                .iter()
                .map(|&p| NodeId::new(p as u32));
            let peers: Vec<NodeId> = peers.collect();
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                node_main::<M>(
                    i, n, endpoint, peers, load, rss_at, seed, start, plan, &shared,
                )
            })
        })
        .collect();

    // The process's CPU time over exactly the measured window.
    std::thread::sleep(window_from.saturating_duration_since(Instant::now()));
    let cpu_from = sys::process_cpu();
    std::thread::sleep(window_until.saturating_duration_since(Instant::now()));
    let cpu = sys::process_cpu().saturating_sub(cpu_from);

    let results: Vec<NodeResult> = workers
        .into_iter()
        .map(|w| w.join().expect("node thread panicked"))
        .collect();

    let mut run = LiveRun {
        correct: false,
        attempted: 0,
        failed: 0,
        cpu,
        samples: Vec::new(),
        generator_lag_ms: Vec::new(),
        window: WindowCounts::default(),
        frames_dropped: 0,
        queue_depth_max: 0,
        rss_kb: None,
        aborted: shared.abort.load(Ordering::SeqCst),
    };
    let mut submitted = BTreeSet::new();
    let mut logs = Vec::with_capacity(n);
    let mut unfinished = 0;
    for (i, r) in results.into_iter().enumerate() {
        submitted.extend((0..r.submitted).map(|seq| ValueId::new(NodeId::new(i as u32), seq)));
        run.attempted += r.attempted;
        unfinished += r.unfinished;
        run.samples.extend(r.samples);
        run.generator_lag_ms.extend(r.generator_lag_ms);
        run.window.nodes.merge(&r.nodes);
        run.window.gossip.merge(&r.gossip);
        run.window.spans.merge(r.spans);
        run.window.loop_ns += r.loop_ns;
        run.frames_dropped += r.dropped;
        run.queue_depth_max = run.queue_depth_max.max(r.queue_depth_max);
        run.rss_kb = run.rss_kb.or(r.rss_kb);
        logs.push(r.log);
        drop(r.endpoint);
    }
    let (clean, not_decided) = audit_logs(&logs, &submitted).reported();
    run.correct = clean && !run.aborted;
    // A value still in flight when its node gave up counts as not ordered,
    // whether or not some other node decided it meanwhile.
    run.failed = not_decided.max(unfinished);
    run
}

/// The clients attached to one node.
struct Clients {
    payload: Vec<u8>,
    /// Submit (or due) time of every own value not decided yet, by seq.
    pending: HashMap<u64, Instant>,
    submitted: u64,
    /// Of those, values due inside the measured window.
    attempted: u64,
}

impl Clients {
    fn submit<M: Mode>(&mut self, node: &mut Node<M>, since: Instant, window_from: Instant) {
        let mut value = self.payload.clone();
        value[..8].copy_from_slice(&self.submitted.to_le_bytes());
        let seq = node.submit(value);
        self.pending.insert(seq, since);
        self.submitted += 1;
        self.attempted += u64::from(since >= window_from);
    }
}

#[allow(clippy::too_many_arguments)]
fn node_main<M: Mode>(
    id: usize,
    n: usize,
    endpoint: Endpoint,
    peers: Vec<NodeId>,
    load: Load,
    rss_at: u64,
    seed: u64,
    start: Instant,
    plan: Plan,
    shared: &Shared,
) -> NodeResult {
    let sink = SpanSink::new(id as u32, start);
    let probe: Probe<M> = Probe::new(sink.clone());
    let mut node: Node<M> = Node::new(id as u32, n, peers, sink.clone());
    let mut rng = StdRng::seed_from_u64(sys::mix(seed, 100 + id as u64));
    let mut payload = vec![0u8; VALUE_SIZE];
    sys::fill_bytes(&mut rng, &mut payload);

    let window_from = start + plan.warmup;
    let stop_at = window_from + plan.window;
    let give_up_at = stop_at + GIVE_UP_AFTER;

    // Open loop: this node's share of the aggregate rate on a fixed
    // schedule, its phase within the interval drawn from the seed.
    let interval = match load {
        Load::Open { rate } => Some(Duration::from_secs_f64(n as f64 / rate)),
        Load::Closed { .. } => None,
    };
    let mut next_due = interval.map(|iv| {
        let phase = (id as f64 + (rng.next_u32() as f64 / u32::MAX as f64)) / n as f64;
        start + iv.mul_f64(phase)
    });

    let mut clients = Clients {
        payload,
        pending: HashMap::new(),
        submitted: 0,
        attempted: 0,
    };
    let mut samples = Vec::new();
    let mut generator_lag_ms = Vec::new();
    let mut queue_depth_max = 0u64;
    let mut rss_kb = None;

    let mut generating = true;
    let mut reported_complete = false;
    let mut base: Option<(NodeCounts, GossipCounts, Instant)> = None;
    let mut window: Option<(NodeCounts, GossipCounts, SpanReport, u64)> = None;
    let mut iterations = 0u64;

    if id == 0 {
        node.start_round_zero();
    }
    std::thread::sleep(start.saturating_duration_since(Instant::now()));

    loop {
        let _visit = probe.span(Op::Visit);
        let now = Instant::now();
        iterations += 1;

        // Phase changes.
        if base.is_none() && now >= window_from {
            sink.reset();
            base = Some((node.counts, node.gossip_counts(), now));
        }
        if window.is_none() && now >= stop_at {
            let (nodes0, gossip0, from) = base.expect("window opened before it closed");
            window = Some((
                node.counts.since(&nodes0),
                node.gossip_counts().since(&gossip0),
                sink.report(),
                (now - from).as_nanos() as u64,
            ));
        }
        if generating && now >= stop_at {
            generating = false;
            shared.submitted[id].store(clients.submitted, Ordering::SeqCst);
            shared.generators_stopped.fetch_add(1, Ordering::SeqCst);
        }
        if now >= give_up_at {
            shared.abort.store(true, Ordering::SeqCst);
        }
        if shared.abort.load(Ordering::SeqCst) {
            break;
        }

        // Generator.
        if generating {
            match (load, next_due.as_mut(), interval) {
                (Load::Open { .. }, Some(due), Some(iv)) => {
                    while *due <= now {
                        generator_lag_ms.push((now - *due).as_secs_f64() * 1e3);
                        clients.submit(&mut node, *due, window_from);
                        *due += iv;
                    }
                }
                (Load::Closed { outstanding }, _, _) => {
                    while clients.pending.len() < outstanding {
                        clients.submit(&mut node, now, window_from);
                    }
                }
                _ => unreachable!("open loop without a schedule"),
            }
        }

        // Out: everything gossip queued goes to the sockets.
        node.ship(|peer, frame| {
            let _s = probe.span(Op::Send);
            endpoint.send_shared(peer, frame)
        });

        // In: block for the first event, then take what else is there.
        let wait = match next_due {
            Some(due) if generating => due.saturating_duration_since(now).min(MAX_WAIT),
            _ => MAX_WAIT,
        };
        let mut event = {
            let _s = probe.span(Op::RecvWait);
            endpoint.recv_timeout(wait)
        };
        let mut burst = 0;
        while let Some(ev) = event {
            if let PeerEvent::Frame { from, payload } = ev {
                node.receive(from, &payload);
            }
            burst += 1;
            if burst == RECV_BURST {
                break;
            }
            event = endpoint.recv_timeout(Duration::ZERO);
        }
        node.step();

        if id == 0 && rss_kb.is_none() && node.counts.decisions >= rss_at {
            rss_kb = Some(sys::rss_kb());
        }

        // Own values that were just ordered here.
        if !node.own_decided.is_empty() {
            let decided_at = Instant::now();
            for seq in node.own_decided.drain(..) {
                if let Some(since) = clients.pending.remove(&seq) {
                    if decided_at >= window_from && decided_at < stop_at {
                        samples.push((
                            (decided_at - window_from).as_nanos() as u64,
                            (decided_at - since).as_secs_f64() * 1e3,
                        ));
                    }
                }
            }
        }

        // End of run: every node keeps relaying until all logs are whole.
        if !generating
            && !reported_complete
            && shared.generators_stopped.load(Ordering::SeqCst) == n
        {
            let total: u64 = shared
                .submitted
                .iter()
                .map(|s| s.load(Ordering::SeqCst))
                .sum();
            if node.counts.decisions >= total {
                reported_complete = true;
                shared.complete.fetch_add(1, Ordering::SeqCst);
            }
        }
        if shared.complete.load(Ordering::SeqCst) == n {
            break;
        }

        if iterations.is_multiple_of(64) {
            let depth = endpoint.queue_depths().into_iter().map(|(_, d)| d).max();
            queue_depth_max = queue_depth_max.max(depth.unwrap_or(0));
        }
        if iterations.is_multiple_of(4096) && sys::rss_kb() > sys::RSS_GUARD_KB {
            shared.abort.store(true, Ordering::SeqCst);
        }
    }

    let (nodes, gossip, spans, loop_ns) = window.unwrap_or_default();
    NodeResult {
        log: std::mem::take(&mut node.log),
        submitted: clients.submitted,
        attempted: clients.attempted,
        unfinished: clients.pending.len() as u64,
        samples,
        generator_lag_ms,
        nodes,
        gossip,
        spans,
        loop_ns,
        dropped: endpoint.dropped(),
        queue_depth_max,
        rss_kb,
        endpoint,
    }
}
