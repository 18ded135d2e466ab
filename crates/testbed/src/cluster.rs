//! The simulated deployment: Paxos over Baseline / Gossip / Semantic Gossip
//! / Eager-Lazy communication, driven by the discrete-event simulator.
//!
//! One [`run_cluster`] call reproduces one experiment execution of the paper
//! (§4.2): `n` processes spread over the 13 AWS regions (coordinator pinned
//! to North Virginia), 13 open-loop clients submitting 1 KiB values at a
//! fixed aggregate rate to the process of their region, and one
//! communication substrate:
//!
//! * [`Setup::Baseline`] — the coordinator talks to every process over
//!   direct channels (full connectivity, the paper's best-case reference);
//! * [`Setup::Gossip`] — every protocol message is broadcast through classic
//!   push gossip over a random partially connected overlay;
//! * [`Setup::SemanticGossip`] — same overlay, gossip augmented with the
//!   semantic filtering/aggregation rules;
//! * [`Setup::EagerLazyGossip`] — same overlay, Plumtree-style trees.
//!
//! Every process is a [`NodeRuntime`] over its substrate; this module is
//! the runtime's *simulation host* and holds only what is simulation. Every
//! process is a single-server queue ([`simnet::NodeCpu`]): each received or
//! sent frame costs CPU time, which is what makes throughput saturate
//! (Figures 3/4). Message loss can be injected at the receiver (Figure 6).
//! Runs are deterministic per seed.

use obs::ledger::{SUBSYS_PAXOS, SUBSYS_SEMANTICS, SUBSYS_TRANSPORT};
use obs::{
    Event as ObsEvent, HealthConfig, HealthTracker, ResourceLedger, RingObserver, SpanTracker,
    TimedEvent,
};
use overlay::{connected_k_out, paper_fanout, Graph};
use paxos::message::Kind;
use paxos::{MemoryStorage, PaxosMessage, PaxosProcess, Round, Value, ValueId};
use paxos_semantics::{PaxosSemantics, SemanticMode};
use semantic_gossip::{
    Direct, DuplicateFilter, EagerLazyConfig, EagerLazyNode, GossipItem, GossipNode,
    GroupedSemantics, LinkFrame, MessageId, NoSemantics, NodeId, RecentCache, Semantics,
    SlidingBloom, Substrate, MAX_GROUPS,
};
use simnet::fault::CrashSchedule;
use simnet::trace::Tracer;
use simnet::{EventQueue, LossInjector, NodeCpu, RegionMap, SeedSplitter, SimDuration, SimTime};
use std::collections::HashMap;

use crate::audit::{RunAudit, SafetyAuditor};
use crate::group_runtime::shard_of;
use crate::metrics::{RunMetrics, ValueFate};
use crate::node_runtime::{frame_class, NodeRuntime, Timers, WireMsg};
pub use crate::params::{ClusterParams, CpuCosts, DedupKind, Setup};

/// Duplicate-filter dispatch (exact cache vs sliding Bloom).
enum AnyFilter {
    Recent(RecentCache),
    Bloom(SlidingBloom),
}

impl AnyFilter {
    /// Builds the configured duplicate filter. The Bloom variant derives
    /// its geometry from the exact cache's size; both derived parameters
    /// are clamped to at least 1 so small cache sizes (e.g. 1, whose
    /// halved generation capacity would round down to 0) stay valid
    /// instead of panicking inside `SlidingBloom::new`.
    fn build(dedup: DedupKind, cache_size: usize) -> AnyFilter {
        match dedup {
            DedupKind::RecentCache => AnyFilter::Recent(RecentCache::new(cache_size)),
            DedupKind::SlidingBloom => AnyFilter::Bloom(SlidingBloom::new(
                (cache_size * 16).max(1),
                (cache_size / 2).max(1),
            )),
        }
    }
}

impl DuplicateFilter for AnyFilter {
    fn insert(&mut self, id: MessageId) -> bool {
        match self {
            AnyFilter::Recent(f) => f.insert(id),
            AnyFilter::Bloom(f) => f.insert(id),
        }
    }
    fn contains(&self, id: MessageId) -> bool {
        match self {
            AnyFilter::Recent(f) => f.contains(id),
            AnyFilter::Bloom(f) => f.contains(id),
        }
    }
    fn len(&self) -> usize {
        match self {
            AnyFilter::Recent(f) => f.len(),
            AnyFilter::Bloom(f) => f.len(),
        }
    }
}

/// Push gossip with per-group semantics `S`. Like the Paxos processes, the
/// node records into a [`RingObserver`]: with `trace_capacity` 0 (the
/// default) the ring holds the flight tail only, and with tracing on the
/// hot-path events (receive/dedup/filter/aggregate/send) land in the same
/// merged JSONL stream the analyzer consumes.
type Push<S> = GossipNode<WireMsg, GroupedSemantics<S>, AnyFilter, RingObserver>;

/// The eager/lazy node uses the same duplicate filter and observer plumbing
/// as the push node; there is no semantics hook (the tree already removes
/// the redundancy that filtering/aggregation suppress).
type Plumtree = EagerLazyNode<WireMsg, AnyFilter, RingObserver>;

/// A substrate the simulator can host: built from the run's parameters —
/// at start-up and again when a crashed process recovers — and tracing
/// into a ring. [`run_cluster`] picks the implementation from
/// [`ClusterParams::setup`]; nothing past that point knows which it is.
trait SimSubstrate: Substrate<WireMsg, Observer = RingObserver> + Sized {
    fn build(params: &ClusterParams, overlay: Option<&Graph>, node: u32) -> Self;

    /// Folds the sends the semantic filter suppressed, per message class,
    /// into the run's ledger (counts only: their bytes never hit a wire).
    fn fold_filtered(&self, _ledger: &mut ResourceLedger) {}
}

/// The overlay neighbours and duplicate filter of gossip node `node`.
fn gossip_parts(
    params: &ClusterParams,
    overlay: Option<&Graph>,
    node: u32,
) -> (Vec<NodeId>, AnyFilter) {
    let peers = overlay
        .expect("gossip setup has an overlay")
        .neighbors(node as usize)
        .iter()
        .map(|&p| NodeId::new(p as u32))
        .collect();
    let filter = AnyFilter::build(params.dedup, params.gossip.recent_cache_size);
    (peers, filter)
}

fn push_node<S: Semantics<PaxosMessage>>(
    params: &ClusterParams,
    overlay: Option<&Graph>,
    node: u32,
    semantics: impl FnMut(u32) -> S,
) -> Push<S> {
    let (peers, filter) = gossip_parts(params, overlay, node);
    // One semantic layer per group, dispatched on the wire group tag so
    // each group filters and aggregates in isolation.
    let semantics = GroupedSemantics::new((0..params.groups as u32).map(semantics).collect());
    GossipNode::with_observer(
        NodeId::new(node),
        peers,
        params.gossip,
        semantics,
        filter,
        RingObserver::with_capacity(params.ring_capacity()),
    )
}

impl SimSubstrate for Direct<WireMsg, RingObserver> {
    fn build(params: &ClusterParams, _overlay: Option<&Graph>, _node: u32) -> Self {
        // Direct channels record nothing: a ring without capacity.
        Direct::new(params.n, RingObserver::with_capacity(0))
    }
}

impl SimSubstrate for Push<NoSemantics> {
    fn build(params: &ClusterParams, overlay: Option<&Graph>, node: u32) -> Self {
        push_node(params, overlay, node, |_| NoSemantics)
    }
}

impl SimSubstrate for Push<PaxosSemantics> {
    fn build(params: &ClusterParams, overlay: Option<&Graph>, node: u32) -> Self {
        let mode = match params.setup {
            Setup::Custom(mode) => mode,
            _ => SemanticMode::FULL,
        };
        push_node(params, overlay, node, |g| {
            PaxosSemantics::new(params.group_config(g), mode)
        })
    }

    fn fold_filtered(&self, ledger: &mut ResourceLedger) {
        for s in self.semantics().iter() {
            for (kind, &count) in Kind::ALL.iter().zip(s.filtered_by_kind()) {
                if count > 0 {
                    ledger.add_messages(SUBSYS_SEMANTICS, kind.name(), count);
                }
            }
        }
    }
}

impl SimSubstrate for Plumtree {
    fn build(params: &ClusterParams, overlay: Option<&Graph>, node: u32) -> Self {
        let (peers, filter) = gossip_parts(params, overlay, node);
        let config = EagerLazyConfig {
            gossip: params.gossip,
            ..params.eager_lazy
        };
        EagerLazyNode::with_observer(
            NodeId::new(node),
            peers,
            config,
            filter,
            RingObserver::with_capacity(params.ring_capacity()),
        )
    }
}

/// A per-process Paxos count — [`PaxosProcess::value_waits`],
/// [`PaxosProcess::proposals_parked`], the pool and parking gauges — summed
/// over a process's groups.
///
/// [`PaxosProcess::value_waits`]: paxos::PaxosProcess::value_waits
/// [`PaxosProcess::proposals_parked`]: paxos::PaxosProcess::proposals_parked
fn group_sum<S: Substrate<WireMsg>>(
    runtime: &NodeRuntime<S>,
    count: impl Fn(&PaxosProcess<MemoryStorage, S::Observer>) -> u64,
) -> u64 {
    runtime.groups().iter().map(|g| count(&g.paxos)).sum()
}

/// Trace id of the message a frame carries (0 for control frames).
fn frame_trace_id<F: LinkFrame<WireMsg>>(frame: &F) -> u64 {
    frame.payload().map_or(0, |m| m.message_id().trace_id())
}

struct Node<S: SimSubstrate> {
    /// The process itself: its substrate and consensus groups. Everything
    /// else in this struct is the simulator's model of the machine it runs
    /// on.
    runtime: NodeRuntime<S>,
    cpu: NodeCpu,
    loss: LossInjector,
    /// Messages that physically arrived (post injected loss).
    raw_received: u64,
    /// Messages physically sent.
    raw_sent: u64,
    flush_scheduled: bool,
    /// When the pending [`Event::Tick`] of this process fires; a tick
    /// event at any other time was superseded by an earlier one.
    tick_at: Option<SimTime>,
    /// When this process is down (crash-recovery experiments).
    schedule: CrashSchedule,
}

/// Simulator events; `F` is the substrate's link frame.
enum Event<F> {
    /// Wire arrival at `dst` (loss checked here, then CPU charged).
    Arrival { dst: u32, from: u32, frame: F },
    /// CPU finished receiving: hand to the process.
    Handle { dst: u32, from: u32, frame: F },
    /// `node`'s runtime reached its next deadline: its timers run.
    Tick { node: u32 },
    /// Client of region-slot `client` submits its next value.
    Submit { client: usize },
    /// CPU finished absorbing a client value at `node`.
    ClientDeliver { node: u32, value: Value },
    /// The send routine of `node` flushes its send queues.
    Flush { node: u32 },
    /// A process goes down at the start of a crash window (bookkeeping
    /// only: `is_up` already silences it; this records the trace mark and
    /// snapshots the durable promise for the audit).
    Crash { node: u32 },
    /// A crashed process comes back up, rebuilt from stable storage.
    Recover { node: u32 },
}

struct Client {
    region_slot: usize,
    attach: u32,
    next_seq: u64,
    interval: SimDuration,
}

/// One in-flight or completed client value.
struct Tracked {
    submitted_at: SimTime,
    ordered_at: Option<SimTime>,
    region_slot: usize,
    in_window: bool,
}

/// The simulation host: it owns what is simulation — the event queue, the
/// CPU/loss/partition/link-cut models, the clients and their latency
/// bookkeeping, the ledger and tracer — and moves frames between the
/// processes' [`NodeRuntime`]s.
struct Cluster<S: SimSubstrate> {
    params: ClusterParams,
    regions: RegionMap,
    overlay: Option<Graph>,
    nodes: Vec<Node<S>>,
    clients: Vec<Client>,
    queue: EventQueue<Event<S::Frame>>,
    link_rng: rand::rngs::StdRng,
    tracked: HashMap<ValueId, Tracked>,
    tracer: Tracer,
    /// Per process, per group: `(time ns, promised round)` observations
    /// for the promise-monotonicity audit, sampled at crash instants,
    /// after recovery, and at the end of the run.
    promise_log: Vec<Vec<Vec<(u64, u32)>>>,
    /// Events salvaged from processes replaced on crash recovery.
    trace_backlog: Vec<TimedEvent>,
    received_by_kind: [u64; Kind::COUNT],
    /// Value waits and parked proposals of incarnations that crashed (a
    /// recovered process's counters start from zero).
    value_waits_before_crash: u64,
    proposals_parked_before_crash: u64,
    /// Per-`(subsystem, class)` byte/CPU attribution for the run: wire
    /// bytes and modelled send/receive CPU land at the physical send and
    /// arrival points; per-kind protocol counters are folded in at
    /// collection time.
    ledger: ResourceLedger,
    end: SimTime,
    window_start: SimTime,
    window_end: SimTime,
    /// Scratch buffer for flush drains, reused across every flush (its
    /// capacity stabilizes after warmup, so steady state doesn't allocate
    /// per flush).
    scratch_outgoing: Vec<(NodeId, S::Frame)>,
}

impl<S: SimSubstrate> Cluster<S> {
    fn build(params: ClusterParams) -> Self {
        assert!(params.n > 0, "cluster needs processes");
        assert!(params.rate > 0.0, "submission rate must be positive");
        assert!(
            params.groups >= 1 && params.groups <= MAX_GROUPS as usize,
            "groups must be 1..={MAX_GROUPS}"
        );
        let seeds = SeedSplitter::new(params.seed);
        let regions = RegionMap::paper_placement(params.n);

        let overlay = if params.setup.uses_gossip() {
            Some(params.overlay.clone().unwrap_or_else(|| {
                let mut rng = seeds.rng("overlay", 0);
                connected_k_out(params.n, paper_fanout(params.n), &mut rng, 100)
                    .expect("could not generate a connected overlay")
            }))
        } else {
            None
        };

        // Per-process crash schedules.
        let mut windows: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); params.n];
        for &(node, from, to) in &params.crashes {
            assert!(
                (node as usize) < params.n,
                "crash window for unknown process"
            );
            windows[node as usize].push((SimTime::ZERO + from, SimTime::ZERO + to));
        }
        for w in &mut windows {
            w.sort();
        }

        let timers = Timers {
            failover: params.failover.map(|t| t.as_nanos()),
            retransmit: params.retransmit.map(|t| t.as_nanos()),
        };
        let nodes = (0..params.n as u32)
            .map(|i| Node {
                runtime: NodeRuntime::new(
                    NodeId::new(i),
                    S::build(&params, overlay.as_ref(), i),
                    (0..params.groups as u32).map(|g| params.group_config(g)),
                    timers,
                    || RingObserver::with_capacity(params.ring_capacity()),
                ),
                cpu: NodeCpu::new(params.cpu.recv),
                loss: LossInjector::new(params.loss_rate, seeds.rng("loss-injector", i as u64)),
                raw_received: 0,
                raw_sent: 0,
                flush_scheduled: false,
                tick_at: None,
                schedule: CrashSchedule::new(std::mem::take(&mut windows[i as usize])),
            })
            .collect();

        // One client per region, attached to the lowest-id process there.
        let attach_points = regions.client_attach_points();
        let per_client = params.rate / attach_points.len() as f64;
        let interval = SimDuration::from_secs_f64(1.0 / per_client);
        let clients = attach_points
            .iter()
            .enumerate()
            .map(|(slot, &(_region, process))| Client {
                region_slot: slot,
                attach: process as u32,
                next_seq: 0,
                interval,
            })
            .collect();

        let end = params.end_time();
        let window_start = SimTime::ZERO + params.warmup;
        let window_end = window_start + params.window;
        Cluster {
            regions,
            overlay,
            nodes,
            clients,
            queue: EventQueue::new(),
            link_rng: seeds.rng("links", 0),
            tracked: HashMap::new(),
            promise_log: vec![vec![Vec::new(); params.groups]; params.n],
            trace_backlog: Vec::new(),
            tracer: if params.trace_capacity > 0 {
                Tracer::enabled(params.trace_capacity)
            } else {
                Tracer::disabled()
            },
            received_by_kind: [0; Kind::COUNT],
            value_waits_before_crash: 0,
            proposals_parked_before_crash: 0,
            ledger: ResourceLedger::new(),
            end,
            window_start,
            window_end,
            scratch_outgoing: Vec::new(),
            params,
        }
    }

    fn bootstrap(&mut self) {
        // Each group's elected round-0 coordinator — process `g mod n`,
        // the rotation's offset — starts its round 0. A single-group run
        // reproduces the paper: process 0 (North Virginia) coordinates.
        for g in 0..self.params.groups as u32 {
            let leader = g % self.params.n as u32;
            self.nodes[leader as usize]
                .runtime
                .start_round(g, Round::ZERO, 0);
            self.settle(leader, SimTime::ZERO);
        }

        // Stagger client start within one interval to avoid lockstep.
        let n_clients = self.clients.len();
        for c in 0..n_clients {
            let offset = SimDuration::from_nanos(
                self.clients[c].interval.as_nanos() * c as u64 / n_clients as u64,
            );
            // Clients start submitting right away (warm-up traffic).
            self.queue
                .schedule(SimTime::ZERO + offset, Event::Submit { client: c });
        }

        for i in 0..self.params.n as u32 {
            self.arm_tick(i, SimTime::ZERO);
            let crashes: Vec<SimTime> = self.nodes[i as usize].schedule.crash_times().collect();
            for at in crashes {
                self.queue.schedule(at, Event::Crash { node: i });
            }
            let recoveries: Vec<SimTime> =
                self.nodes[i as usize].schedule.recovery_times().collect();
            for at in recoveries {
                self.queue.schedule(at, Event::Recover { node: i });
            }
        }
    }

    fn is_up(&self, node: u32, now: SimTime) -> bool {
        self.nodes[node as usize].schedule.is_up(now)
    }

    fn run(mut self) -> RunMetrics {
        self.bootstrap();
        while let Some((now, event)) = self.queue.pop() {
            if now > self.end {
                break;
            }
            self.handle_event(now, event);
        }
        self.collect()
    }

    /// Records a frame dropped on its way to `dst`.
    fn trace_loss(&mut self, now: SimTime, dst: u32, frame: &S::Frame, reason: &str) {
        if self.tracer.is_enabled() {
            self.tracer.record(
                now,
                ObsEvent::MessageLost {
                    node: dst,
                    msg: frame_trace_id(frame),
                    reason: reason.to_string(),
                },
            );
        }
    }

    fn handle_event(&mut self, now: SimTime, event: Event<S::Frame>) {
        match event {
            Event::Arrival { dst, from, frame } => {
                if !self.is_up(dst, now) {
                    return;
                }
                // A frame a process addressed to itself (direct channels)
                // crosses no link: nothing can cut or lose it.
                if from != dst
                    && (self.params.partitions.is_blocked(from, dst, now)
                        || self.params.link_cuts.is_blocked(from, dst, now))
                {
                    self.trace_loss(now, dst, &frame, "partition");
                    return;
                }
                if from != dst && self.nodes[dst as usize].loss.should_drop() {
                    self.trace_loss(now, dst, &frame, "injected loss");
                    return;
                }
                let node = &mut self.nodes[dst as usize];
                node.raw_received += 1;
                let size = frame.wire_size();
                let class = frame_class(&frame);
                let parts = match frame.payload() {
                    Some(m) => {
                        self.received_by_kind[m.inner.kind().index()] += 1;
                        match &m.inner {
                            PaxosMessage::Phase2b { voters, .. } => voters.len(),
                            _ => 1,
                        }
                    }
                    None => 1,
                };
                let base = self.params.cpu.recv.service_time(size);
                let extra = self
                    .params
                    .cpu
                    .per_extra_part
                    .saturating_mul(parts as u64 - 1);
                // Attribute the arrival: bytes and the base receive cost to
                // the transport cell of this class; the per-extra-part
                // disaggregation overhead (only non-zero for aggregated
                // votes) is the semantic layer's coordination work.
                self.ledger.add_in(SUBSYS_TRANSPORT, class, size as u64);
                self.ledger
                    .charge_cpu(SUBSYS_TRANSPORT, class, base.as_nanos());
                if extra.as_nanos() > 0 {
                    self.ledger
                        .charge_cpu(SUBSYS_SEMANTICS, class, extra.as_nanos());
                }
                let done = node.cpu.admit_work(now, base + extra);
                self.queue
                    .schedule(done, Event::Handle { dst, from, frame });
            }
            Event::Handle { dst, from, frame } => {
                if !self.is_up(dst, now) {
                    return;
                }
                self.nodes[dst as usize]
                    .runtime
                    .on_frame(NodeId::new(from), frame, now.as_nanos());
                self.settle(dst, now);
            }
            Event::Tick { node } => {
                let n = &mut self.nodes[node as usize];
                if n.tick_at != Some(now) {
                    return;
                }
                n.tick_at = None;
                if self.is_up(node, now) {
                    self.nodes[node as usize].runtime.on_tick(now.as_nanos());
                    self.settle(node, now);
                }
            }
            Event::Submit { client } => {
                if now >= self.window_end {
                    return; // submissions stop at the end of the window
                }
                let c = &mut self.clients[client];
                let attach = c.attach;
                let value = Value::new(
                    NodeId::new(attach),
                    c.next_seq,
                    vec![0u8; self.params.value_size],
                );
                c.next_seq += 1;
                let next = now + c.interval;
                let slot = c.region_slot;
                self.queue.schedule(next, Event::Submit { client });
                self.tracked.insert(
                    value.id(),
                    Tracked {
                        submitted_at: now,
                        ordered_at: None,
                        region_slot: slot,
                        in_window: now >= self.window_start && now < self.window_end,
                    },
                );
                // The attach process absorbs the client request (CPU).
                let done = self.nodes[attach as usize]
                    .cpu
                    .admit(now, self.params.value_size);
                // Same service time `admit` charged, attributed to the
                // protocol's client-value intake.
                self.ledger.charge_cpu(
                    SUBSYS_PAXOS,
                    Kind::ClientValue.name(),
                    self.params
                        .cpu
                        .recv
                        .service_time(self.params.value_size)
                        .as_nanos(),
                );
                self.queue.schedule(
                    done,
                    Event::ClientDeliver {
                        node: attach,
                        value,
                    },
                );
            }
            Event::ClientDeliver { node, value } => {
                if !self.is_up(node, now) {
                    return;
                }
                self.nodes[node as usize]
                    .runtime
                    .submit(value, now.as_nanos());
                self.settle(node, now);
            }
            Event::Flush { node } => {
                self.nodes[node as usize].flush_scheduled = false;
                if self.is_up(node, now) {
                    self.flush(node, now);
                    self.arm_tick(node, now);
                }
            }
            Event::Crash { node } => {
                // The process is already silenced by `is_up`; record the
                // mark and snapshot the durable promise so the audit can
                // check it never regresses across the outage.
                self.tracer.record(now, ObsEvent::Crashed { node });
                self.snapshot_promise(node, now);
            }
            Event::Recover { node } => self.recover_node(node),
        }
    }

    /// Wakes `node` at its runtime's next deadline. A deadline at or
    /// before `now` is a due announcement batch waiting for the send
    /// routine, whose flush arms the tick again.
    fn arm_tick(&mut self, node: u32, now: SimTime) {
        let deadline = self.nodes[node as usize].runtime.next_deadline();
        if let Some(at) = deadline.map(SimTime::from_nanos).filter(|&at| at > now) {
            self.wake_at(node, at);
        }
    }

    /// Schedules a tick of `node` at `at` unless one is pending no later.
    fn wake_at(&mut self, node: u32, at: SimTime) {
        let n = &mut self.nodes[node as usize];
        if n.tick_at.is_none_or(|t| at < t) {
            n.tick_at = Some(at);
            self.queue.schedule(at, Event::Tick { node });
        }
    }

    /// Records a `(time, promised round)` observation of every group's
    /// durable promise at a process, for the promise-monotonicity audit.
    fn snapshot_promise(&mut self, node: u32, now: SimTime) {
        for (g, rt) in self.nodes[node as usize]
            .runtime
            .groups()
            .iter()
            .enumerate()
        {
            let promised = rt.paxos.promised_round();
            self.promise_log[node as usize][g].push((now.as_nanos(), promised.as_u32()));
        }
    }

    /// Rebuilds a recovered process from its acceptors' stable storage:
    /// learners, coordinators and the substrate (dedup cache, semantic
    /// summaries, tree state) are volatile and start fresh. An eager/lazy
    /// node restarts with all links eager: payloads it missed while down
    /// arrive as duplicates on several links and PRUNE re-converges the
    /// trees around it.
    fn recover_node(&mut self, node: u32) {
        let now = self.queue.now();
        self.tracer.record(now, ObsEvent::Recovered { node });
        let fresh = S::build(&self.params, self.overlay.as_ref(), node);
        let n = &mut self.nodes[node as usize];
        self.value_waits_before_crash += group_sum(&n.runtime, PaxosProcess::value_waits);
        self.proposals_parked_before_crash += group_sum(&n.runtime, PaxosProcess::proposals_parked);
        // The crashed incarnation's events stay in the run's trace.
        n.runtime
            .recover(fresh, self.params.ring_capacity(), &mut self.trace_backlog);
        n.flush_scheduled = false;
        // The rebuilt acceptor's promise must match or exceed what was
        // durable at the crash; snapshot it for the monotonicity audit.
        self.snapshot_promise(node, now);
        // Its ticks lapsed while it was down: whatever fell due then runs
        // now.
        let deadline = self.nodes[node as usize].runtime.next_deadline();
        if let Some(at) = deadline {
            self.wake_at(node, SimTime::from_nanos(at).max(now));
        }
    }

    /// After the process at `node` handled an event: note what it ordered
    /// and get its frames onto the wire.
    fn settle(&mut self, node: u32, now: SimTime) {
        let is_attach = self.clients.iter().any(|c| c.attach == node);
        let n = &mut self.nodes[node as usize];
        for (_, d) in n.runtime.drain_ordered() {
            // A duplicate slot re-decides an already-applied value (two
            // rounds' coordinators assigned it two instances): a no-op for
            // the application. The client of this process measures latency
            // when its own value is delivered in total order (§4.2).
            let id = d.value.id();
            if d.duplicate || !is_attach || id.origin.as_u32() != node {
                continue;
            }
            if let Some(t) = self.tracked.get_mut(&id) {
                if t.ordered_at.is_none() {
                    t.ordered_at = Some(now);
                }
            }
        }
        if !S::SEND_ROUTINE {
            // No send routine: frames leave in the step that produced them.
            self.flush(node, now);
        } else if n.runtime.has_outgoing() && !n.flush_scheduled {
            // Model the send routine: the queues flush when the CPU frees
            // up, so messages accumulate while the node is busy — which is
            // exactly when semantic aggregation finds multiple pending
            // messages (§3.2).
            n.flush_scheduled = true;
            let at = n
                .cpu
                .busy_until()
                .min(now + self.params.flush_quantum)
                .max(now);
            self.queue.schedule(at, Event::Flush { node });
        }
        self.arm_tick(node, now);
    }

    /// Runs `node`'s send routine: every pending frame goes onto its link.
    fn flush(&mut self, node: u32, now: SimTime) {
        // Temporarily take the scratch so `send_physical` can borrow `self`
        // while we iterate; the capacity survives the round trip.
        let mut outgoing = std::mem::take(&mut self.scratch_outgoing);
        self.nodes[node as usize]
            .runtime
            .take_outgoing_into(&mut outgoing, now.as_nanos());
        for (peer, frame) in outgoing.drain(..) {
            self.send_physical(node, peer.as_u32(), frame, now);
        }
        self.scratch_outgoing = outgoing;
    }

    fn send_physical(&mut self, from: u32, to: u32, frame: S::Frame, now: SimTime) {
        if from == to {
            // Local loop-back (direct mode self-delivery): no link, no send
            // cost — the message is handled as soon as the CPU allows.
            self.queue.schedule(
                now,
                Event::Arrival {
                    dst: to,
                    from,
                    frame,
                },
            );
            return;
        }
        let size = frame.wire_size();
        let node = &mut self.nodes[from as usize];
        node.raw_sent += 1;
        let send_cost = self.params.cpu.send.service_time(size);
        let departs = node.cpu.admit_work(now, send_cost);
        // Attribute the wire bytes and the modelled send cost to this
        // frame's class, and — when tracing — emit the byte-carrying
        // `wire_frame` event `tracetool ledger` replays. The class rides
        // inline so attribution survives ring eviction and covers
        // drain-time aggregates whose fresh wire ids are never tagged.
        let class = frame_class(&frame);
        self.ledger.add_out(SUBSYS_TRANSPORT, class, size as u64);
        self.ledger
            .charge_cpu(SUBSYS_TRANSPORT, class, send_cost.as_nanos());
        if self.tracer.is_enabled() {
            self.tracer.record(
                now,
                ObsEvent::WireFrame {
                    node: from,
                    peer: to,
                    msg: frame_trace_id(&frame),
                    kind: class.to_string(),
                    bytes: size as u64,
                },
            );
        }
        let base = self.regions.one_way(from as usize, to as usize);
        let link = simnet::LinkConfig::reliable(base);
        let delay = link.sample_delay(&mut self.link_rng);
        self.queue.schedule(
            departs + delay,
            Event::Arrival {
                dst: to,
                from,
                frame,
            },
        );
    }

    fn collect(mut self) -> RunMetrics {
        let mut metrics = RunMetrics::new(
            self.params.setup.name(),
            self.params.n,
            self.params.rate,
            self.params.window,
        );

        for (id, t) in &self.tracked {
            let fate = ValueFate {
                value: *id,
                region_slot: t.region_slot,
                submitted_at: t.submitted_at,
                ordered_at: t.ordered_at,
                in_window: t.in_window,
            };
            metrics.record_value(&fate);
        }

        // End-of-run promise snapshot for every process, then the
        // cross-process safety audit (agreement, integrity, gap-free
        // prefixes, promise monotonicity) — run independently on every
        // consensus group.
        let end = self.end;
        for i in 0..self.params.n as u32 {
            self.snapshot_promise(i, end);
        }
        let promise_log = std::mem::take(&mut self.promise_log);
        let groups = self.params.groups;
        let mut ordered_by_group = vec![0u64; groups];
        for (id, t) in &self.tracked {
            if t.in_window && t.ordered_at.is_some() {
                ordered_by_group[shard_of(*id, groups) as usize] += 1;
            }
        }
        metrics.ordered_by_group = ordered_by_group;
        let mut audits = Vec::with_capacity(groups);
        let mut safety_ok = true;
        let mut violations = Vec::new();
        for g in 0..groups {
            let audit = RunAudit {
                n: self.params.n,
                delivered: self
                    .nodes
                    .iter()
                    .map(|n| {
                        n.runtime.groups()[g]
                            .delivered_log
                            .iter()
                            .map(|&(i, v, dup)| (i.as_u64(), v, dup))
                            .collect()
                    })
                    .collect(),
                promises: promise_log
                    .iter()
                    .map(|per_node| per_node[g].clone())
                    .collect(),
                submitted: self
                    .tracked
                    .keys()
                    .copied()
                    .filter(|&id| shard_of(id, groups) as usize == g)
                    .collect(),
            };
            let report = SafetyAuditor::audit(&audit);
            if self.tracer.is_enabled() {
                for v in &report.violations {
                    self.tracer.record(
                        end,
                        ObsEvent::AuditViolation {
                            node: v.node(),
                            detail: v.to_string(),
                        },
                    );
                }
            }
            safety_ok &= report.is_clean();
            violations.extend(report.violations);
            audits.push(audit);
        }
        metrics.safety_ok = safety_ok;
        metrics.violations = violations;
        metrics.audit = audits[0].clone();
        metrics.audits = audits;

        for (i, node) in self.nodes.iter().enumerate() {
            metrics.record_node(
                i,
                node.raw_received,
                node.raw_sent,
                Some(node.runtime.substrate().stats()),
            );
            metrics
                .plumtree
                .merge(&node.runtime.substrate().plumtree_stats());
        }
        metrics.received_by_kind = self.received_by_kind;
        let sum = |count: fn(&PaxosProcess<MemoryStorage, S::Observer>) -> u64| {
            self.nodes
                .iter()
                .map(|n| group_sum(&n.runtime, count))
                .sum::<u64>()
        };
        metrics.value_waits = self.value_waits_before_crash + sum(PaxosProcess::value_waits);
        metrics.proposals_parked =
            self.proposals_parked_before_crash + sum(PaxosProcess::proposals_parked);
        metrics.pooled_values = sum(|p| p.pooled_values() as u64);
        metrics.parked_proposals = sum(|p| p.parked_proposals() as u64);

        // Fold the per-kind protocol counters into the ledger: how many
        // messages each Paxos step function handled, and how many sends
        // the semantic filter suppressed, per class. Counts only — their
        // CPU and bytes were already attributed at the arrival and send
        // points.
        for node in &self.nodes {
            for rt in node.runtime.groups() {
                for (kind, &count) in Kind::ALL.iter().zip(rt.paxos.handled_by_kind()) {
                    if count > 0 {
                        self.ledger.add_messages(SUBSYS_PAXOS, kind.name(), count);
                    }
                }
            }
            node.runtime.substrate().fold_filtered(&mut self.ledger);
        }
        if self.tracer.is_enabled() {
            // End-of-run CPU summaries so a replayed trace can attribute
            // CPU alongside bytes (recorded last: never evicted by the
            // ring before the trace is drained below).
            for c in self.ledger.cells() {
                if c.cpu_ns > 0 {
                    self.tracer.record(
                        end,
                        ObsEvent::CpuCharged {
                            node: 0,
                            subsystem: c.subsystem.clone(),
                            class: c.class.clone(),
                            ns: c.cpu_ns,
                        },
                    );
                }
            }
        }
        metrics.ledger = self.ledger.clone();

        let tracing = self.tracer.is_enabled();
        if tracing || self.params.ring_capacity() > 0 {
            // Merge the cluster-level trace (losses, recoveries) with every
            // process's observers into one time-ordered stream; stable sort
            // keeps each process's events in emission order.
            let mut events = std::mem::take(&mut self.trace_backlog);
            for node in &mut self.nodes {
                node.runtime.drain_events_into(&mut events);
            }
            events.extend(self.tracer.events().cloned());
            if !tracing {
                // The tracer records audit violations when enabled; keep
                // them visible in flight-recorder dumps when it is not.
                for v in &metrics.violations {
                    events.push(TimedEvent {
                        at: end.as_nanos(),
                        event: ObsEvent::AuditViolation {
                            node: v.node(),
                            detail: v.to_string(),
                        },
                    });
                }
            }
            events.sort_by_key(|e| e.at);

            if tracing {
                // The health tracker needs the complete event stream; a
                // flight-sized partial ring would fake progress gaps, so it
                // runs only when tracing captured everything.
                let mut health = HealthTracker::new(HealthConfig {
                    stall_after: self.params.stall_after.as_nanos(),
                });
                health.observe_all(&events);
                health.finalize(end.as_nanos());
                metrics.health = Some(health.summary());
                // Stall events come out in time order: each goes behind
                // everything stamped up to its instant, as a stable sort
                // of the appended stream would place it.
                for stall in health.take_events() {
                    let behind = events.partition_point(|e| e.at <= stall.at);
                    events.insert(behind, stall);
                }

                let mut spans = SpanTracker::new();
                spans.observe_all(&events);
                metrics.span_summary = Some(spans.summary());
                metrics.trace_kinds = obs::prom::event_kind_counts(&events).into_iter().collect();

                let mut jsonl = String::new();
                for e in &events {
                    jsonl.push_str(&e.to_json());
                    jsonl.push('\n');
                }
                metrics.trace_jsonl = Some(jsonl);
            }

            if self.params.flight_capacity > 0 {
                let tail = events.len().saturating_sub(self.params.flight_capacity);
                metrics.flight = events.split_off(tail);
            }
        }
        metrics.seed = self.params.seed;
        metrics
    }
}

/// Runs one simulated experiment execution and returns its measurements.
///
/// The setup picks the substrate; from there on every process is the same
/// [`NodeRuntime`] and the simulator the same host, monomorphised per
/// substrate.
///
/// Deterministic: identical `params` (including seed) produce identical
/// metrics.
///
/// # Panics
///
/// Panics if the parameters are inconsistent (zero processes, non-positive
/// rate, gossip setup whose overlay has the wrong size).
pub fn run_cluster(params: &ClusterParams) -> RunMetrics {
    if let Some(g) = &params.overlay {
        assert_eq!(g.len(), params.n, "overlay size must match the cluster");
    }
    let params = params.clone();
    match params.setup {
        Setup::Baseline => Cluster::<Direct<WireMsg, RingObserver>>::build(params).run(),
        Setup::Gossip => Cluster::<Push<NoSemantics>>::build(params).run(),
        Setup::SemanticGossip | Setup::Custom(_) => {
            Cluster::<Push<PaxosSemantics>>::build(params).run()
        }
        Setup::EagerLazyGossip => Cluster::<Plumtree>::build(params).run(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Histogram;

    fn quick(n: usize, setup: Setup, rate: f64) -> RunMetrics {
        let params = ClusterParams::paper(n, setup)
            .with_rate(rate)
            .with_seconds(2.0, 1.0);
        run_cluster(&params)
    }

    #[test]
    fn baseline_orders_everything_at_low_load() {
        let m = quick(13, Setup::Baseline, 13.0);
        assert!(m.safety_ok);
        assert_eq!(m.not_ordered_in_window, 0, "{m:?}");
        assert!(m.ordered > 0);
        assert!(m.latency_stats().0 > SimDuration::from_millis(30));
    }

    #[test]
    fn gossip_orders_everything_at_low_load() {
        let m = quick(13, Setup::Gossip, 13.0);
        assert!(m.safety_ok);
        assert_eq!(m.not_ordered_in_window, 0);
    }

    #[test]
    fn semantic_gossip_orders_everything_at_low_load() {
        let m = quick(13, Setup::SemanticGossip, 13.0);
        assert!(m.safety_ok);
        assert_eq!(m.not_ordered_in_window, 0);
    }

    #[test]
    fn eager_lazy_orders_everything_at_low_load() {
        let m = quick(13, Setup::EagerLazyGossip, 13.0);
        assert!(m.safety_ok);
        assert_eq!(m.not_ordered_in_window, 0, "{m:?}");
        assert!(m.ordered > 0);
    }

    #[test]
    fn eager_lazy_runs_are_deterministic() {
        let a = quick(13, Setup::EagerLazyGossip, 26.0);
        let b = quick(13, Setup::EagerLazyGossip, 26.0);
        assert_eq!(a.ordered, b.ordered);
        assert_eq!(a.latency_stats(), b.latency_stats());
        assert_eq!(a.gossip.bytes_sent.get(), b.gossip.bytes_sent.get());
    }

    #[test]
    fn eager_lazy_sends_far_fewer_bytes_than_push() {
        let g = quick(13, Setup::Gossip, 26.0);
        let e = quick(13, Setup::EagerLazyGossip, 26.0);
        // Once the tree converges, payloads traverse each overlay edge at
        // most once instead of fanout times; whole-run bytes (including the
        // warmup flood) must come in well under half of pure push.
        assert!(
            e.gossip.bytes_sent.get() * 2 < g.gossip.bytes_sent.get(),
            "eager/lazy {} bytes vs push {} bytes",
            e.gossip.bytes_sent.get(),
            g.gossip.bytes_sent.get()
        );
        assert_eq!(e.not_ordered_in_window, 0);
    }

    /// Whole-run bytes sent per byte encoded on the 13-node sim at 13
    /// values/s, reduced from its trace by the analysis behind `tracetool
    /// report`.
    fn wire_redundancy(setup: Setup) -> f64 {
        let mut params = ClusterParams::paper(13, setup)
            .with_rate(13.0)
            .with_seconds(2.0, 1.0);
        params.trace_capacity = 1 << 20;
        let trace = run_cluster(&params).trace_jsonl.expect("tracing is on");
        crate::analysis::analyze_str(&trace)
            .expect("sim trace parses")
            .wire_merged()
            .bytes_sent_per_byte_encoded()
    }

    #[test]
    fn eager_lazy_trees_stay_converged() {
        // Push floods every payload over every overlay link (2.77); once the
        // trees converge, eager/lazy moves about one copy per delivery plus
        // small IHAVEs (1.12). The push floor keeps a trace that lost its
        // payload frames from passing the eager/lazy ceiling.
        let push = wire_redundancy(Setup::Gossip);
        let eager_lazy = wire_redundancy(Setup::EagerLazyGossip);
        assert!(push >= 2.0, "push redundancy {push:.2}");
        assert!(eager_lazy <= 1.29, "eager/lazy redundancy {eager_lazy:.2}");
    }

    /// The half phase of the `sim_eagerlazy_g4_n13` benchmark workload:
    /// 13 processes on the overlay pinned by seed 7, 4 groups, batches of
    /// 8, 400 values/s, 0.5 s warm-up, run seed 1; `window` and `drain` in
    /// seconds.
    fn eager_lazy_g4_half(window: f64, drain: f64) -> RunMetrics {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let overlay = connected_k_out(13, paper_fanout(13), &mut rng, 100).expect("connected");
        let mut params = ClusterParams::paper(13, Setup::EagerLazyGossip)
            .with_groups(4)
            .with_batch_values(8)
            .with_rate(400.0)
            .with_seconds(window, 0.5)
            .with_seed(1)
            .with_overlay(overlay);
        params.drain = SimDuration::from_secs_f64(drain);
        run_cluster(&params)
    }

    #[test]
    fn eager_lazy_trees_settle() {
        // A run is a prefix of every longer run with the same warm-up and
        // seed: cut at 1 s, it shares the full run's first second event for
        // event. Equal tree-edit counters therefore mean that none happened
        // in the full run after its first second.
        let first_second = eager_lazy_g4_half(0.5, 0.0);
        let full = eager_lazy_g4_half(2.0, 1.5);
        let (early, pt) = (&first_second.plumtree, &full.plumtree);
        assert!(early.prunes.get() > 0, "the trees formed");
        assert_eq!(pt.prunes, early.prunes, "PRUNE after the first second");
        assert_eq!(pt.grafts, early.grafts, "GRAFT after the first second");
        assert_eq!(
            pt.parent_changes, early.parent_changes,
            "parent change after the first second"
        );
        // Every process gets every source's payloads through its tree: no
        // id is requested or recovered, and no acceptor waits for a value.
        assert_eq!(pt.iwant_packets.get(), 0);
        assert_eq!(pt.recovered.get(), 0);
        assert_eq!(full.value_waits, 0);
        assert!(full.safety_ok);
        assert_eq!(full.not_ordered_in_window, 0);
    }

    #[test]
    fn eager_lazy_masks_moderate_loss_via_recovery() {
        // Drain long enough for a worst-case repair chain on a value
        // submitted at the window's edge: miss timer (400 ms) + IWANT
        // round-trip, possibly retried after the request itself is lost.
        let mut params = ClusterParams::paper(13, Setup::EagerLazyGossip)
            .with_rate(13.0)
            .with_seconds(2.0, 1.0)
            .with_loss(0.05);
        params.drain = SimDuration::from_secs(2);
        let m = run_cluster(&params);
        assert!(m.safety_ok);
        assert_eq!(
            m.not_ordered_in_window, 0,
            "5% loss should be repaired by IWANT/GRAFT"
        );
        // The repair path actually fired: some payloads were re-requested.
        assert!(m.gossip.sent.get() > 0);
    }

    #[test]
    fn eager_lazy_repairs_loss_on_every_seed() {
        // The single-seed test above is a tail check: at a 2 s drain a
        // handful of values in 150 seeds miss it. Here the drain covers
        // every repair chain, so every in-window value must be ordered on
        // each of 20 seeds, and the pooled median shows how fast repair
        // is: a pushed id that does not arrive is requested after the
        // grace (50 ms here), not after the 400 ms miss timer. Measured
        // over these seeds: 972 ms when the echo of a push was an
        // announcement like any other, 811 ms with the grace.
        let mut pooled = Histogram::new();
        for seed in 1..=20 {
            let mut params = ClusterParams::paper(13, Setup::EagerLazyGossip)
                .with_rate(13.0)
                .with_seconds(2.0, 1.0)
                .with_loss(0.05)
                .with_seed(seed);
            params.drain = SimDuration::from_secs(6);
            let m = run_cluster(&params);
            assert!(m.safety_ok, "seed {seed}: {:?}", m.violations);
            assert_eq!(m.not_ordered_in_window, 0, "seed {seed}");
            pooled.merge(&m.latency);
        }
        let p50 = pooled.percentile(50.0).expect("values were ordered");
        assert!(
            p50 < SimDuration::from_millis(900),
            "pooled p50 {} ms",
            p50.as_nanos() / 1_000_000
        );
    }

    #[test]
    fn eager_lazy_survives_crash_recovery() {
        let params = ClusterParams::paper(13, Setup::EagerLazyGossip)
            .with_rate(13.0)
            .with_seconds(2.0, 1.0)
            .with_crash(
                3,
                SimDuration::from_millis(1200),
                SimDuration::from_millis(1800),
            );
        let m = run_cluster(&params);
        assert!(m.safety_ok, "{:?}", m.violations);
    }

    #[test]
    fn gossip_latency_exceeds_baseline() {
        let b = quick(13, Setup::Baseline, 13.0);
        let g = quick(13, Setup::Gossip, 13.0);
        assert!(
            g.latency_stats().0 > b.latency_stats().0,
            "gossip {:?} vs baseline {:?}",
            g.latency_stats().0,
            b.latency_stats().0
        );
    }

    #[test]
    fn semantic_gossip_reduces_received_messages() {
        let g = quick(13, Setup::Gossip, 40.0);
        let s = quick(13, Setup::SemanticGossip, 40.0);
        assert!(
            s.gossip_received() < g.gossip_received(),
            "semantic {} vs classic {}",
            s.gossip_received(),
            g.gossip_received()
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = quick(13, Setup::SemanticGossip, 26.0);
        let b = quick(13, Setup::SemanticGossip, 26.0);
        assert_eq!(a.ordered, b.ordered);
        assert_eq!(a.latency_stats(), b.latency_stats());
        assert_eq!(a.gossip_received(), b.gossip_received());
    }

    #[test]
    fn different_seeds_differ() {
        let a = quick(13, Setup::Gossip, 26.0);
        let params = ClusterParams::paper(13, Setup::Gossip)
            .with_rate(26.0)
            .with_seconds(2.0, 1.0)
            .with_seed(99);
        let b = run_cluster(&params);
        assert_ne!(a.gossip_received(), b.gossip_received());
    }

    #[test]
    fn injected_loss_loses_values_without_timeouts() {
        let params = ClusterParams::paper(13, Setup::Gossip)
            .with_rate(26.0)
            .with_seconds(2.0, 1.0)
            .with_loss(0.4);
        let m = run_cluster(&params);
        assert!(m.safety_ok, "loss must never break safety");
        assert!(
            m.not_ordered_in_window > 0,
            "40% loss should lose some values"
        );
    }

    #[test]
    fn moderate_loss_is_masked_by_gossip_redundancy() {
        let params = ClusterParams::paper(13, Setup::Gossip)
            .with_rate(13.0)
            .with_seconds(2.0, 1.0)
            .with_loss(0.05);
        let m = run_cluster(&params);
        assert_eq!(m.not_ordered_in_window, 0, "5% loss should be masked");
    }

    #[test]
    fn enforced_overlay_is_used() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let g = connected_k_out(13, 2, &mut rng, 50).unwrap();
        let params = ClusterParams::paper(13, Setup::Gossip)
            .with_rate(13.0)
            .with_seconds(1.0, 1.0)
            .with_overlay(g);
        let m = run_cluster(&params);
        assert!(m.safety_ok);
    }

    #[test]
    #[should_panic(expected = "overlay size")]
    fn mismatched_overlay_panics() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let g = connected_k_out(10, 2, &mut rng, 50).unwrap();
        let params = ClusterParams::paper(13, Setup::Gossip).with_overlay(g);
        run_cluster(&params);
    }

    #[test]
    fn bloom_dedup_also_works() {
        let mut params = ClusterParams::paper(13, Setup::Gossip)
            .with_rate(13.0)
            .with_seconds(2.0, 1.0);
        params.dedup = DedupKind::SlidingBloom;
        let m = run_cluster(&params);
        assert!(m.safety_ok);
        assert_eq!(m.not_ordered_in_window, 0);
    }

    #[test]
    fn tiny_bloom_cache_does_not_panic() {
        // Regression: recent_cache_size = 1 used to derive a zero
        // generation capacity and panic inside SlidingBloom::new.
        let mut params = ClusterParams::paper(13, Setup::Gossip)
            .with_rate(13.0)
            .with_seconds(1.0, 0.5);
        params.dedup = DedupKind::SlidingBloom;
        params.gossip.recent_cache_size = 1;
        let m = run_cluster(&params);
        assert!(m.safety_ok);
    }

    #[test]
    fn partition_loses_values_while_active_but_never_safety() {
        // Cut the coordinator off mid-window; without retransmission the
        // values proposed during the cut are lost (and leave a gap nothing
        // ordered later can pass), but what was decided before the cut
        // stays ordered and no invariant breaks. The window opens at 1 s:
        // the cut starts half a second in, so several in-window values
        // finish their ~300 ms round trips first.
        let base = ClusterParams::paper(13, Setup::Gossip)
            .with_rate(26.0)
            .with_seconds(2.0, 1.0);
        let cut = base.clone().with_partition(
            [0],
            SimDuration::from_millis(1500),
            SimDuration::from_millis(2100),
        );
        let clean = run_cluster(&base);
        let m = run_cluster(&cut);
        assert!(m.safety_ok, "{:?}", m.violations);
        assert!(m.ordered > 0, "values decided before the cut are ordered");
        assert!(
            m.not_ordered_in_window > clean.not_ordered_in_window,
            "the cut should lose values: {} vs {}",
            m.not_ordered_in_window,
            clean.not_ordered_in_window
        );
    }

    #[test]
    fn partition_drops_are_traced() {
        let mut params = ClusterParams::paper(13, Setup::Gossip)
            .with_rate(26.0)
            .with_seconds(1.5, 0.75)
            .with_partition(
                [1, 2],
                SimDuration::from_millis(900),
                SimDuration::from_millis(1400),
            );
        params.trace_capacity = 1 << 16;
        let m = run_cluster(&params);
        let trace = m.trace_jsonl.expect("tracing enabled");
        assert!(
            trace.contains("\"reason\":\"partition\""),
            "no partition drops traced"
        );
    }

    #[test]
    fn crash_run_records_promise_observations() {
        let params = ClusterParams::paper(13, Setup::Gossip)
            .with_rate(26.0)
            .with_seconds(2.0, 1.0)
            .with_crash(
                3,
                SimDuration::from_millis(1200),
                SimDuration::from_millis(2000),
            );
        let m = run_cluster(&params);
        assert!(m.safety_ok, "{:?}", m.violations);
        // Crashed process: crash + recovery + end-of-run snapshots.
        assert_eq!(m.audit.promises[3].len(), 3);
        // Untouched process: just the end-of-run snapshot.
        assert_eq!(m.audit.promises[5].len(), 1);
        assert_eq!(m.audit.delivered.len(), 13);
        assert!(!m.audit.submitted.is_empty());
    }

    #[test]
    fn tracing_captures_deliveries_and_drops() {
        let mut params = ClusterParams::paper(13, Setup::Gossip)
            .with_rate(13.0)
            .with_seconds(1.5, 0.75)
            .with_loss(0.1);
        params.trace_capacity = 1 << 16;
        let m = run_cluster(&params);
        let trace = m.trace_jsonl.expect("tracing enabled");
        assert!(
            trace.contains("\"type\":\"ordered_delivered\""),
            "no deliveries traced"
        );
        assert!(
            trace.contains("\"reason\":\"injected loss\""),
            "no drops traced"
        );
        // Tracing must not perturb the run.
        let mut without = ClusterParams::paper(13, Setup::Gossip)
            .with_rate(13.0)
            .with_seconds(1.5, 0.75)
            .with_loss(0.1);
        without.trace_capacity = 0;
        let w = run_cluster(&without);
        assert_eq!(w.ordered, m.ordered);
        assert!(w.trace_jsonl.is_none());
        assert!(w.span_summary.is_none());
    }

    #[test]
    fn flight_recorder_captures_tail_without_tracing() {
        let mut params = ClusterParams::paper(13, Setup::Gossip)
            .with_rate(13.0)
            .with_seconds(1.0, 0.5);
        params.trace_capacity = 0;
        params.flight_capacity = 256;
        let m = run_cluster(&params);
        // Trace artifacts stay off, but the flight tail is populated and
        // bounded by its capacity.
        assert!(m.trace_jsonl.is_none());
        assert!(m.health.is_none());
        assert_eq!(m.flight.len(), 256);
        let dump = m.flight_dump("test trigger").expect("flight populated");
        for line in dump.lines() {
            obs::TimedEvent::from_json(line).expect("valid trace line");
        }
        assert!(dump.starts_with('{') && dump.contains("flight dump: test trigger"));
        // The tail is time-ordered.
        assert!(m.flight.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn clean_traced_run_reports_zero_stalls() {
        let mut params = ClusterParams::paper(13, Setup::Gossip)
            .with_rate(13.0)
            .with_seconds(1.5, 0.75);
        params.trace_capacity = 1 << 16;
        let m = run_cluster(&params);
        let health = m.health.expect("tracing enables the health tracker");
        assert_eq!(health.stalls_detected, 0, "clean run must not stall");
        assert_eq!(health.stalled_instance, None);
        assert_eq!(health.open_instances, 0);
    }

    #[test]
    fn trace_exports_jsonl_spans_and_prometheus() {
        let mut params = ClusterParams::paper(13, Setup::SemanticGossip)
            .with_rate(13.0)
            .with_seconds(1.0, 0.5);
        params.trace_capacity = 1 << 16;
        let m = run_cluster(&params);

        // Every JSONL line must round-trip through the obs codec.
        let jsonl = m.trace_jsonl.as_ref().expect("tracing enabled");
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            obs::TimedEvent::from_json(line).expect("valid trace line");
        }

        // The span tracker must stitch complete submit -> ordered pipelines.
        let summary = m.span_summary.as_ref().expect("span summary");
        assert!(summary.complete > 0, "no complete value spans");
        let total = summary.segments.last().expect("segments");
        assert_eq!(total.name, "total submit -> ordered");
        assert!(total.count > 0 && total.mean_ns > 0);
        let table = crate::report::span_table(summary).render();
        assert!(table.contains("total submit -> ordered"));

        // Kind counts cover the Paxos pipeline and the gossip hot path,
        // and feed the exposition.
        let kinds: Vec<&str> = m.trace_kinds.iter().map(|(k, _)| *k).collect();
        for expected in [
            "value_submitted",
            "phase2a",
            "phase2b",
            "decided",
            "ordered_delivered",
            "gossip_received",
            "gossip_delivered",
            "gossip_sent",
            "duplicate_dropped",
            "semantic_filtered",
        ] {
            assert!(
                kinds.contains(&expected),
                "missing kind {expected}: {kinds:?}"
            );
        }
        let prom = m.prometheus();
        assert!(prom.contains("# TYPE trace_events_total counter"));
        assert!(prom.contains("trace_phase_latency_seconds{"));
    }

    #[test]
    fn votes_dominate_gossip_traffic() {
        // §4.3 attributes gossip's redundancy mostly to Phase 2b votes.
        let m = quick(13, Setup::Gossip, 40.0);
        let (kind, count) = m.dominant_received_kind();
        assert_eq!(
            kind,
            paxos::message::Kind::Phase2b,
            "dominant: {kind:?} x{count}"
        );
    }

    #[test]
    fn aggregated_votes_appear_under_semantic_gossip() {
        let m = quick(13, Setup::SemanticGossip, 40.0);
        let agg = m.received_by_kind[paxos::message::Kind::Phase2bAggregated.index()];
        assert!(agg > 0, "aggregated votes should travel under load");
    }

    #[test]
    fn flush_quantum_bounds_aggregation() {
        // A longer accumulation window lets aggregation merge more votes.
        let base = ClusterParams::paper(13, Setup::SemanticGossip)
            .with_rate(60.0)
            .with_seconds(2.0, 1.0);
        let mut short = base.clone();
        short.flush_quantum = SimDuration::from_micros(10);
        let mut long = base;
        long.flush_quantum = SimDuration::from_millis(50);
        let short = run_cluster(&short);
        let long = run_cluster(&long);
        assert!(short.safety_ok && long.safety_ok);
        assert!(
            long.gossip.aggregated_away.get() > short.gossip.aggregated_away.get(),
            "longer quantum must aggregate more: {} vs {}",
            long.gossip.aggregated_away.get(),
            short.gossip.aggregated_away.get()
        );
    }

    #[test]
    fn crash_window_silences_process() {
        // Crash every non-coordinator process in one region slot; values
        // submitted at a crashed attach process during the window are lost.
        let params = ClusterParams::paper(13, Setup::Gossip)
            .with_rate(26.0)
            .with_seconds(2.0, 1.0)
            .with_crash(
                5,
                SimDuration::from_millis(1200),
                SimDuration::from_millis(2500),
            );
        let m = run_cluster(&params);
        assert!(m.safety_ok);
        // Client 5's submissions during the crash are not ordered.
        assert!(m.not_ordered_in_window > 0);
        // But the rest of the system kept going.
        assert!(m.ordered > m.not_ordered_in_window);
    }

    #[test]
    fn sharded_groups_order_everything_and_audit_clean() {
        let params = ClusterParams::paper(13, Setup::SemanticGossip)
            .with_groups(4)
            .with_rate(13.0)
            .with_seconds(2.0, 1.0);
        let m = run_cluster(&params);
        assert!(m.safety_ok, "{:?}", m.violations);
        assert_eq!(m.not_ordered_in_window, 0);
        assert_eq!(m.audits.len(), 4, "one audit per group");
        assert_eq!(m.audit, m.audits[0], "audit aliases group 0");
        assert_eq!(
            m.ordered_by_group.iter().sum::<u64>(),
            m.ordered,
            "per-group ordered counts must sum to the total"
        );
        assert!(
            m.ordered_by_group.iter().filter(|&&c| c > 0).count() >= 2,
            "hash sharding should spread values over groups: {:?}",
            m.ordered_by_group
        );
        // Every group made progress on its own log.
        for (g, audit) in m.audits.iter().enumerate() {
            assert!(
                audit.delivered.iter().any(|log| !log.is_empty()),
                "group {g} delivered nothing"
            );
        }
    }

    #[test]
    fn single_group_run_exposes_one_audit() {
        let m = quick(13, Setup::Gossip, 13.0);
        assert_eq!(m.audits.len(), 1);
        assert_eq!(m.ordered_by_group, vec![m.ordered]);
    }

    #[test]
    fn sharding_scales_a_pipeline_limited_deployment() {
        // With a small open-instance window a single group is RTT-bound;
        // independent groups multiply the aggregate window. The run is
        // deterministic and orders 13 / 88 / 116 values (6.77x and 8.92x).
        let base = ClusterParams::paper(13, Setup::Gossip)
            .with_max_open_instances(4)
            .with_rate(60.0)
            .with_seconds(2.0, 1.0);
        let ordered: Vec<u64> = [1, 2, 4]
            .into_iter()
            .map(|groups| {
                let m = run_cluster(&base.clone().with_groups(groups));
                assert!(m.safety_ok, "{groups} group(s): {:?}", m.violations);
                m.ordered
            })
            .collect();
        let speedup = |i: usize| ordered[i] as f64 / ordered[0].max(1) as f64;
        assert!(speedup(1) >= 1.6, "2 groups: {ordered:?}");
        assert!(speedup(2) >= 3.0, "4 groups: {ordered:?}");
        // A shard map that leaves groups idle can still clear both floors.
        assert!(
            ordered[0] < ordered[1] && ordered[1] < ordered[2],
            "every added group must order more: {ordered:?}"
        );
    }

    #[test]
    fn batching_packs_backlogged_values_into_fewer_instances() {
        let base = ClusterParams::paper(13, Setup::Baseline)
            .with_max_open_instances(1)
            .with_rate(60.0)
            .with_seconds(2.0, 1.0);
        let plain = run_cluster(&base);
        let batched = run_cluster(&base.clone().with_batch_values(8));
        assert!(plain.safety_ok, "{:?}", plain.violations);
        assert!(batched.safety_ok, "{:?}", batched.violations);
        assert!(
            batched.ordered > 2 * plain.ordered,
            "batching must lift a window-limited pipeline: {} vs {}",
            batched.ordered,
            plain.ordered
        );
    }

    #[test]
    fn retransmission_heals_heavy_loss() {
        let base = ClusterParams::paper(13, Setup::Gossip)
            .with_rate(13.0)
            .with_seconds(3.0, 1.0)
            .with_loss(0.35);
        let without = run_cluster(&base);
        let mut with = base.clone();
        with.retransmit = Some(SimDuration::from_millis(500));
        let with = run_cluster(&with);
        assert!(
            with.not_ordered_in_window <= without.not_ordered_in_window,
            "retransmission should not hurt: {} vs {}",
            with.not_ordered_in_window,
            without.not_ordered_in_window
        );
    }

    /// Once the bootstrap leader is gone for good, the process that took
    /// over its group is the one that re-pushes. Direct channels are the
    /// substrate on which a re-push leaves the coordinator, so the count
    /// of its `Phase2a` frames shows it.
    #[test]
    fn retransmission_follows_leadership() {
        let phase2a_frames_of_process_1 = |retransmit: Option<SimDuration>| {
            let mut params = ClusterParams::paper(13, Setup::Baseline)
                .with_rate(13.0)
                .with_seconds(3.0, 1.0)
                .with_failover(SimDuration::from_millis(400))
                .with_crash(
                    0,
                    SimDuration::from_millis(1_200),
                    SimDuration::from_secs(60),
                );
            params.retransmit = retransmit;
            params.trace_capacity = 1 << 20;
            let m = run_cluster(&params);
            assert!(m.safety_ok, "{:?}", m.violations);
            let trace = m.trace_jsonl.expect("traced run");
            trace
                .lines()
                .map(|line| obs::TimedEvent::from_json(line).expect("valid trace line"))
                .filter(|e| {
                    matches!(&e.event, ObsEvent::WireFrame { node: 1, kind, .. } if kind == "Phase2a")
                })
                .count()
        };
        let without = phase2a_frames_of_process_1(None);
        let with = phase2a_frames_of_process_1(Some(SimDuration::from_millis(300)));
        assert!(
            with > without,
            "the new coordinator re-pushes: {with} vs {without} Phase2a frames"
        );
    }

    /// A process ticks again at recovery. Process 1 is down from 0.5 s to
    /// 1 s while its retransmit and round-change deadlines pass; without a
    /// tick at recovery every later deadline of its runtime hides behind
    /// those stale ones and it never acts again. Its round-change timer
    /// saw no progress while it was down, so it starts round 1 once it is
    /// back, and leads it when process 0 dies for good at 1.5 s.
    #[test]
    fn a_recovered_process_still_fails_over() {
        let ms = SimDuration::from_millis;
        let mut params = ClusterParams::paper(13, Setup::Baseline)
            .with_rate(13.0)
            .with_seconds(3.0, 1.0)
            .with_failover(ms(400))
            .with_crash(1, ms(500), ms(1_000))
            .with_crash(0, ms(1_500), ms(60_000));
        params.retransmit = Some(ms(300));
        params.trace_capacity = 1 << 20;
        let m = run_cluster(&params);
        assert!(m.safety_ok, "{:?}", m.violations);
        let took_over = m
            .trace_jsonl
            .expect("traced run")
            .lines()
            .map(|line| obs::TimedEvent::from_json(line).expect("valid trace line"))
            .any(|e| matches!(e.event, ObsEvent::RoundStarted { node: 1, round: 1 }));
        assert!(took_over, "process 1 never started round 1");
    }
}
