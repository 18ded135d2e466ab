//! Paxos over Semantic Gossip on a real network: five OS processes' worth
//! of nodes, each with its own TCP endpoint on loop-back, a partially
//! connected overlay, and the full gossip + semantics + Paxos stack.
//!
//! Every node is a `testbed::NodeRuntime` — the same sans-IO runtime the
//! simulator hosts — driven by `gossip_consensus::live`: frames are encoded
//! with the hand-written wire codec, each distinct message once per flush,
//! and pushed over real sockets by per-peer send threads with bounded
//! queues. Frames travel in the multi-group wire format
//! (`Grouped<PaxosMessage>`: a leading group-id byte), so this single-group
//! deployment speaks the same protocol as a sharded one.
//!
//! Run with:
//! ```text
//! cargo run --example live_tcp [--trace out.jsonl] \
//!     [--metrics-addr 127.0.0.1:9300] [--linger SECS]
//! ```
//!
//! With `--trace`, every node records transport lifecycle, frame traffic
//! and Paxos phase transitions (wall-clock timestamps) into one shared
//! ring; the merged JSONL stream is written to the given file and a
//! per-phase latency breakdown is printed.
//!
//! With `--metrics-addr`, a `/metrics` HTTP endpoint serves live
//! Prometheus text while the run is in flight: per-peer send-queue depth,
//! duplicate-cache occupancy, the open Paxos instance window, dropped
//! frames, undecodable frames per peer (`live_decode_errors_total`), an
//! outgoing frame-size histogram, the health engine's liveness gauges
//! (`health_stalls_detected`, `health_oldest_open_age_ms`,
//! `health_open_instances`), and windowed resource rates —
//! `bytes_per_sec{node,class}` per message class and
//! `cpu_ns_per_sec{node,subsystem}` for the transport and runtime hot
//! sections, both smoothed over a 10 s sliding [`Series`] window.
//! `--linger` keeps the endpoint up for that many seconds after
//! consensus completes, so the final state can be scraped with `curl`.
//!
//! Health is always on, metrics or not: every node tees its event stream
//! into a private flight ring, replays it through a [`HealthTracker`]
//! every 250 ms, and — should the log stop advancing — prints the stall
//! and dumps the ring's tail to `live-flight-node<id>.jsonl` for
//! `tracetool` to dissect.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use gossip_consensus::live::{loopback_endpoints, LiveNode};
use gossip_consensus::obs::{
    Event, FlightRecorder, HealthConfig, HealthTracker, MetricsServer, Registry, Series,
    SharedGauge, SharedRing, SpanTracker, Tee,
};
use gossip_consensus::prelude::*;
use gossip_consensus::simnet::trace::render_event;
use gossip_consensus::testbed::report::span_table;
use gossip_consensus::testbed::SemanticPush;
use gossip_consensus::transport::Endpoint;

const N: usize = 5;

/// Per-node flight-recorder ring: enough to hold the full event tail of a
/// short run, bounded on a long one.
const FLIGHT_CAPACITY: usize = 4096;

/// How often a node replays its flight ring through the stall detector
/// and refreshes its trace samples and rate gauges.
const POLL: Duration = Duration::from_millis(250);

/// The fully instrumented node of this example: every observer records
/// into the global trace ring *and* the node's private flight ring.
type Node = LiveNode<SemanticPush<Tee<SharedRing, SharedRing>>>;

fn main() {
    let mut trace_path: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut linger = Duration::ZERO;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => trace_path = Some(args.next().expect("--trace needs a file path")),
            "--metrics-addr" => {
                metrics_addr = Some(args.next().expect("--metrics-addr needs host:port"));
            }
            "--linger" => {
                let secs: u64 = args
                    .next()
                    .expect("--linger needs seconds")
                    .parse()
                    .expect("--linger needs an integer");
                linger = Duration::from_secs(secs);
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    // One ring shared by every node and thread; capacity 0 (when not
    // tracing) records nothing.
    let ring = SharedRing::new(if trace_path.is_some() { 1 << 16 } else { 0 });

    // Live metrics, scrapeable while the run is in flight.
    let registry = metrics_addr.as_ref().map(|_| Registry::new());
    let server = metrics_addr.as_ref().map(|addr| {
        let server = MetricsServer::bind(addr.as_str(), registry.clone().unwrap())
            .expect("bind metrics endpoint");
        println!("metrics: http://{}/metrics", server.local_addr());
        server
    });

    // Ring + chord overlay: nobody is connected to everyone.
    let mut overlay = Graph::new(N);
    for i in 0..N {
        overlay.add_edge(i, (i + 1) % N);
    }
    overlay.add_edge(1, 3);
    let endpoints = loopback_endpoints(&overlay, Some(&ring)).expect("connect the overlay");
    let links = overlay.num_edges();
    println!("overlay connected: {N} nodes, {links} TCP links");

    let workers: Vec<_> = endpoints
        .into_iter()
        .enumerate()
        .map(|(i, endpoint)| {
            let (ring, registry) = (ring.clone(), registry.clone());
            let neighbors = overlay.neighbors(i).iter().map(|&p| NodeId::new(p as u32));
            let neighbors: Vec<NodeId> = neighbors.collect();
            std::thread::spawn(move || node_main(i, endpoint, neighbors, ring, registry))
        })
        .collect();

    // Every node returns its delivered sequence; they must all match.
    let sequences: Vec<Vec<(InstanceId, ValueId)>> = workers
        .into_iter()
        .map(|w| w.join().expect("node thread panicked"))
        .collect();
    let reference = &sequences[0];
    assert_eq!(reference.len(), N, "every submitted command is ordered");
    for (id, seq) in sequences.iter().enumerate() {
        assert_eq!(seq, reference, "node {id} diverged");
        let count = seq.len();
        println!("node {id} delivered {count} commands in the agreed order ✓");
    }
    println!("\nconsensus over real TCP sockets: all {N} nodes agree.");

    if let Some(path) = &trace_path {
        let events = ring.snapshot();
        let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
        std::fs::write(path, &jsonl).expect("write trace file");
        println!("wrote {} trace events to {path}", events.len());
        let mut spans = SpanTracker::new();
        spans.observe_all(&events);
        println!(
            "\nper-phase latency (wall clock):\n{}",
            span_table(&spans.summary()).render()
        );
    }

    if let Some(server) = server.filter(|_| !linger.is_zero()) {
        let (addr, secs) = (server.local_addr(), linger.as_secs());
        println!("serving final metrics at http://{addr}/metrics for {secs}s");
        std::thread::sleep(linger);
    }
}

/// Sliding window the `/metrics` rates are computed over.
const RATE_WINDOW_NS: u64 = 10_000_000_000;

/// Samples held per rate series: 250 ms cadence times the 10 s window,
/// with slack for jittery ticks.
const RATE_CAPACITY: usize = 64;

/// Help text of every gauge this example exports.
fn help(name: &str) -> &'static str {
    match name {
        "transport_send_queue_depth" => "Frames queued for a peer's send thread.",
        "live_decode_errors_total" => "Undecodable frames received from a peer (dropped).",
        "gossip_seen_cache_entries" => "Entries in the duplicate-suppression cache.",
        "paxos_open_instances" => "Instances with votes or undelivered decisions.",
        "paxos_value_waits_total" => "Instances whose quorum of votes arrived before the value.",
        "paxos_pooled_values" => "Client values held to resolve proposals that name them.",
        "paxos_parked_proposals" => "Proposals waiting for the value they name.",
        "paxos_proposals_parked_total" => "Proposals that arrived before the value they name.",
        "transport_frames_dropped_total" => "Frames dropped (unknown peer or full queue).",
        "transport_bytes_encoded_total" => "Payload bytes serialized (once per broadcast).",
        "transport_bytes_sent_total" => "Payload bytes enqueued to peers (encoded × fan-out).",
        "gossip_clones_avoided_total" => "Payload deep-copies saved by shared fan-out.",
        "health_stalls_detected" => "Progress stalls the node's health tracker has raised.",
        "health_open_instances" => "Instances the health tracker still sees as open.",
        "health_oldest_open_age_ms" => "Age of the oldest unresolved instance or value.",
        "bytes_per_sec" => "Wire bytes per second by message class (10s window).",
        "cpu_ns_per_sec" => "CPU ns per second in a subsystem's hot section (10s window).",
        other => unreachable!("gauge {other} has no help text"),
    }
}

/// Per-node live gauges, registered lazily against the shared
/// [`Registry`]: plain and per-peer gauges by `(name, peer)`, windowed
/// rates by `(name, label value)`.
struct NodeMetrics {
    registry: Registry,
    node: String,
    gauges: HashMap<(&'static str, Option<NodeId>), SharedGauge>,
    rates: HashMap<(&'static str, &'static str), (Series, SharedGauge)>,
}

impl NodeMetrics {
    fn new(registry: Registry, id: usize, node: &mut Node) -> Self {
        let label = id.to_string();
        node.frame_bytes = Some(registry.histogram(
            "transport_frame_bytes",
            "Outgoing frame sizes in bytes.",
            &[("node", &label)],
            1.0,
        ));
        NodeMetrics {
            registry,
            node: label,
            gauges: HashMap::new(),
            rates: HashMap::new(),
        }
    }

    /// Registers gauge `name`, labelled with this node and `extra`.
    fn register(&self, name: &str, extra: Option<(&str, &str)>) -> SharedGauge {
        let labels = [("node", self.node.as_str()), extra.unwrap_or_default()];
        let used = if extra.is_some() { 2 } else { 1 };
        self.registry.gauge(name, help(name), &labels[..used])
    }

    fn set(&mut self, name: &'static str, peer: Option<NodeId>, value: u64) {
        if !self.gauges.contains_key(&(name, peer)) {
            let label = peer.map(|p| p.as_u32().to_string());
            let gauge = self.register(name, label.as_deref().map(|p| ("peer", p)));
            self.gauges.insert((name, peer), gauge);
        }
        self.gauges[&(name, peer)].set(value);
    }

    /// Pushes a cumulative counter into its sliding series and refreshes
    /// the gauge from the window's delta rate.
    fn rate(&mut self, name: &'static str, label: (&str, &'static str), now_ns: u64, total: u64) {
        if !self.rates.contains_key(&(name, label.1)) {
            let series = Series::new(RATE_CAPACITY, RATE_WINDOW_NS);
            let entry = (series, self.register(name, Some(label)));
            self.rates.insert((name, label.1), entry);
        }
        let (series, gauge) = self.rates.get_mut(&(name, label.1)).expect("just inserted");
        series.push(now_ns, total);
        if let Some(rate) = series.delta_rate_per_sec() {
            gauge.set(rate.round() as u64);
        }
    }

    /// Refreshes every plain gauge from the live components.
    fn sample(&mut self, node: &Node) {
        for (peer, depth) in node.endpoint().queue_depths() {
            self.set("transport_send_queue_depth", Some(peer), depth);
        }
        for (&peer, &count) in node.decode_errors() {
            self.set("live_decode_errors_total", Some(peer), count);
        }
        let gossip = node.runtime().substrate();
        let (cached, avoided) = (gossip.cache_occupancy(), gossip.stats().clones_avoided());
        let paxos = &node.runtime().groups()[0].paxos;
        let (open, value_waits) = (paxos.instance_window(), paxos.value_waits());
        let (pooled, parked) = (paxos.pooled_values(), paxos.parked_proposals());
        let dropped = node.endpoint().dropped();
        self.set("gossip_seen_cache_entries", None, cached as u64);
        self.set("gossip_clones_avoided_total", None, avoided);
        self.set("paxos_open_instances", None, open as u64);
        self.set("paxos_value_waits_total", None, value_waits);
        self.set("paxos_pooled_values", None, pooled as u64);
        self.set("paxos_parked_proposals", None, parked as u64);
        self.set(
            "paxos_proposals_parked_total",
            None,
            paxos.proposals_parked(),
        );
        self.set("transport_frames_dropped_total", None, dropped);
        self.set("transport_bytes_encoded_total", None, node.wire().encoded);
        self.set("transport_bytes_sent_total", None, node.wire().sent);
    }

    /// The 250 ms tick: gauge samples into the trace ring, windowed rates,
    /// and the liveness gauges from the node's health tracker.
    fn poll(&mut self, node: &mut Node, ring: &SharedRing, health: &HealthTracker, now_ns: u64) {
        node.runtime_mut().substrate_mut().sample_gauges();
        ring.record_shared(Event::InstanceWindowSampled {
            node: self.node.parse().unwrap_or(0),
            open: node.runtime().groups()[0].paxos.instance_window() as u64,
        });
        let wire = node.wire();
        for (&class, &total) in &wire.by_class {
            self.rate("bytes_per_sec", ("class", class), now_ns, total);
        }
        let cpu = [
            ("transport", wire.cpu_transport_ns),
            ("runtime", wire.cpu_runtime_ns),
        ];
        for (subsystem, total_ns) in cpu {
            self.rate("cpu_ns_per_sec", ("subsystem", subsystem), now_ns, total_ns);
        }
        let s = health.summary();
        self.set("health_stalls_detected", None, s.stalls_detected);
        self.set("health_open_instances", None, s.open_instances);
        let age_ms = health.oldest_open_age(now_ns) / 1_000_000;
        self.set("health_oldest_open_age_ms", None, age_ms);
    }
}

/// One node: the shared runtime behind the TCP host, plus this example's
/// load (node 0 coordinates; every node submits one command), metrics and
/// health polling.
fn node_main(
    id: usize,
    endpoint: Endpoint,
    neighbors: Vec<NodeId>,
    ring: SharedRing,
    registry: Option<Registry>,
) -> Vec<(InstanceId, ValueId)> {
    // The node's private event stream: the tee feeds the global trace ring
    // and this flight ring from the same instrumentation points.
    let local = SharedRing::new(FLIGHT_CAPACITY);
    let me = NodeId::new(id as u32);
    let runtime = NodeRuntime::semantic_gossip(
        me,
        neighbors,
        vec![PaxosConfig::new(N)],
        Timers::default(),
        || Tee::new(ring.clone(), local.clone()),
    );
    let mut node: Node = LiveNode::new(runtime, endpoint, ring.clone());
    let mut metrics = registry.map(|r| NodeMetrics::new(r, id, &mut node));
    let mut delivered: Vec<(InstanceId, ValueId)> = Vec::new();
    let mut health = HealthTracker::new(HealthConfig::default());
    let mut flight = FlightRecorder::with_capacity(FLIGHT_CAPACITY);
    let mut flight_dumped = false;
    let mut last_poll: Option<Instant> = None;

    let now = node.now_ns();
    if id == 0 {
        node.runtime_mut().start_round(0, Round::ZERO, now);
    }
    let payload = format!("command-from-node-{id}").into_bytes();
    node.runtime_mut().submit(Value::new(me, 0, payload), now);

    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        // Sleep until a frame, a runtime timer or the next poll is due.
        let until_poll = last_poll.map_or(Duration::ZERO, |t| POLL.saturating_sub(t.elapsed()));
        node.step(until_poll);
        for (_, d) in node.runtime_mut().drain_ordered() {
            if !d.duplicate {
                delivered.push((d.instance, d.value.id()));
            }
        }
        if let Some(m) = &mut metrics {
            m.sample(&node);
        }
        // Health poll, with or without metrics: drain the flight ring
        // through the stall detector. The last turn polls too, so the
        // gauges served while lingering are final.
        let done = delivered.len() >= N || Instant::now() >= deadline;
        if !done && last_poll.is_some_and(|t| t.elapsed() < POLL) {
            continue;
        }
        last_poll = Some(Instant::now());
        let now_ns = node.now_ns();
        let drained = local.drain();
        health.observe_all(&drained);
        flight.extend(drained);
        health.finalize(now_ns);
        for stall in health.take_events() {
            // Printed the way the simulator's timeline prints them, and
            // merged into the global stream for `tracetool health`.
            eprintln!("{}", render_event(&stall));
            ring.record_shared(stall.event);
        }
        if health.is_stalled() && !flight_dumped {
            flight_dumped = true;
            let path = format!("live-flight-node{id}.jsonl");
            match flight.write_dump(&path, &format!("node {id} progress stall")) {
                Ok(n) => eprintln!("node {id}: flight: {path} ({n} events)"),
                Err(e) => eprintln!("node {id}: cannot write {path}: {e}"),
            }
        }
        if let Some(m) = &mut metrics {
            m.poll(&mut node, &ring, &health, now_ns);
        }
        if done {
            break;
        }
    }
    // What the last frame made this node forward still has to leave.
    node.flush();
    delivered
}
