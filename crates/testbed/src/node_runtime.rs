//! The sans-IO node: one substrate, the consensus groups multiplexed over
//! it, and their timers, behind an `(event, now) → effects` surface.
//!
//! A host — the discrete-event simulator in [`cluster`](crate::cluster),
//! the TCP driver in `gossip_consensus::live` — owns everything that is
//! I/O or modelling (links, clocks, CPU and loss models, clients) and feeds
//! the runtime events stamped with its clock: a frame arrived
//! ([`NodeRuntime::on_frame`]), a client submitted a value
//! ([`NodeRuntime::submit`]), time passed ([`NodeRuntime::on_tick`]). The
//! runtime answers with frames to put on links
//! ([`NodeRuntime::take_outgoing_into`]) and values ordered
//! ([`NodeRuntime::drain_ordered`]). In between it runs the one loop every
//! deployment of the paper needs and no host should spell out again:
//! substrate deliveries → `paxos.handle` → route the responses back into
//! the substrate → harvest in-order decisions.
//!
//! The runtime never looks inside the substrate beyond the
//! [`Substrate`] trait, which is the paper's modularity claim applied to
//! this harness: the same runtime, unmodified, over direct channels, push
//! gossip with or without semantics, and eager/lazy trees.

use obs::{Observer, RingObserver, TimedEvent};
use paxos::{
    Delivered, MemoryStorage, Outbound, PaxosConfig, PaxosMessage, PaxosProcess, Round, Route,
    Value,
};
use paxos_semantics::PaxosSemantics;
use semantic_gossip::{
    Dest, GossipConfig, GossipNode, Grouped, GroupedSemantics, LinkFrame, NodeId, RecentCache,
    Substrate,
};

use crate::group_runtime::{shard_of, GroupRuntime};

/// What travels on the shared substrate: a Paxos message tagged with its
/// consensus group. The tag keys the duplicate caches and the per-group
/// semantic state, so co-hosted groups never alias. A single-group
/// deployment tags everything group 0.
pub type WireMsg = Grouped<PaxosMessage>;

/// Ledger/trace class of a link frame: the Paxos kind of the message it
/// carries, or the substrate's own control class (IHAVE/IWANT/GRAFT/PRUNE),
/// so hosts can split tree maintenance from data bytes.
pub fn frame_class<F: LinkFrame<WireMsg>>(frame: &F) -> &'static str {
    match frame.payload() {
        Some(m) => m.inner.kind().name(),
        None => frame
            .control_class()
            .expect("a frame without payload names its class"),
    }
}

/// How often (in delivered instances per group) the runtime tells the
/// substrate that old instances can be forgotten.
pub const GC_EVERY: u64 = 256;

/// Instances below the delivery watermark the substrate keeps remembering:
/// late duplicates of recently decided instances are still filtered.
pub const GC_KEEP: u64 = 1024;

/// The runtime's own timers, in nanoseconds of the host's clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timers {
    /// Round-change timeout: after this much silence the next coordinator
    /// in a group's rotation starts a new round.
    pub failover: Option<u64>,
    /// Period at which [`NodeRuntime::on_tick`] makes every group this node
    /// coordinates re-push its open proposals.
    pub retransmit: Option<u64>,
}

/// One process of the deployment (see the [module docs](self)).
pub struct NodeRuntime<S: Substrate<WireMsg>> {
    groups: Vec<GroupRuntime<S::Observer>>,
    substrate: S,
    retransmit_every: Option<u64>,
    next_retransmit: u64,
    /// Values ordered since the host last drained them, one entry per
    /// client value (a batched instance contributes one per component).
    ordered: Vec<(u32, Delivered)>,
    /// Scratch for delivery drains, reused across pumps.
    deliveries: Vec<WireMsg>,
}

impl<S: Substrate<WireMsg>> NodeRuntime<S> {
    /// Wires process `id`'s consensus groups — one per config, group `g`
    /// at index `g` — to its substrate. `observer` makes one observer per
    /// group's Paxos process. Each config's
    /// [`values_broadcast`](PaxosConfig::values_broadcast) is set from the
    /// substrate ([`Substrate::BROADCASTS`]).
    pub fn new(
        id: NodeId,
        substrate: S,
        configs: impl IntoIterator<Item = PaxosConfig>,
        timers: Timers,
        mut observer: impl FnMut() -> S::Observer,
    ) -> Self {
        let groups: Vec<_> = configs
            .into_iter()
            .map(|config| PaxosConfig {
                values_broadcast: S::BROADCASTS,
                ..config
            })
            .map(|config| GroupRuntime::new(id, config, observer(), timers.failover))
            .collect();
        assert!(!groups.is_empty(), "a node hosts at least one group");
        debug_assert!(groups
            .iter()
            .enumerate()
            .all(|(g, rt)| rt.group == g as u32));
        NodeRuntime {
            substrate,
            groups,
            retransmit_every: timers.retransmit,
            next_retransmit: timers.retransmit.unwrap_or(0),
            ordered: Vec::new(),
            deliveries: Vec::new(),
        }
    }

    /// The communication substrate.
    pub fn substrate(&self) -> &S {
        &self.substrate
    }

    /// Exclusive access to the substrate (gauges, its observer).
    pub fn substrate_mut(&mut self) -> &mut S {
        &mut self.substrate
    }

    /// The consensus groups on this node, indexed by group id.
    pub fn groups(&self) -> &[GroupRuntime<S::Observer>] {
        &self.groups
    }

    /// A frame arrived from `from`.
    pub fn on_frame(&mut self, from: NodeId, frame: S::Frame, now_ns: u64) {
        self.stamp(now_ns);
        self.substrate.on_frame(from, frame);
        self.pump(now_ns);
    }

    /// A client submits `value` at this process; it shards to its group by
    /// [`shard_of`].
    pub fn submit(&mut self, value: Value, now_ns: u64) {
        let group = shard_of(value.id(), self.groups.len());
        self.drive(group, now_ns, |paxos| paxos.submit(value));
    }

    /// Makes this process the coordinator of `group`'s `round`.
    ///
    /// # Panics
    ///
    /// Panics if this process does not coordinate that round.
    pub fn start_round(&mut self, group: u32, round: Round, now_ns: u64) {
        self.drive(group, now_ns, |paxos| paxos.start_round(round));
    }

    /// One locally triggered step of `group`'s Paxos process: route what it
    /// sends and pump the consequences.
    fn drive(
        &mut self,
        group: u32,
        now_ns: u64,
        act: impl FnOnce(&mut PaxosProcess<MemoryStorage, S::Observer>) -> Vec<Outbound>,
    ) {
        self.stamp(now_ns);
        let out = act(&mut self.groups[group as usize].paxos);
        self.route(group, out);
        self.pump(now_ns);
    }

    /// Time passed: everything timer-driven that is due at `now_ns` —
    /// substrate timers, failover, retransmission. Hosts call it at
    /// [`next_deadline`](Self::next_deadline).
    pub fn on_tick(&mut self, now_ns: u64) {
        if self.substrate.next_timer().is_some_and(|d| d <= now_ns) {
            self.stamp(now_ns);
            self.substrate.on_timer();
            self.pump(now_ns);
        }
        for g in 0..self.groups.len() {
            let current = self.groups[g].paxos.current_round();
            let suspected = self.groups[g]
                .timer
                .as_mut()
                .and_then(|t| t.suspect(now_ns));
            if let Some(round) = suspected.filter(|&round| round > current) {
                self.start_round(g as u32, round, now_ns);
            }
        }
        if let Some(every) = self.retransmit_every {
            if now_ns >= self.next_retransmit {
                self.next_retransmit = now_ns + every;
                for g in 0..self.groups.len() as u32 {
                    self.drive(g, now_ns, |paxos| paxos.retransmit());
                }
            }
        }
    }

    /// The earliest clock value at which [`on_tick`](Self::on_tick) has
    /// something to do; `None` when only a frame or a submission can make
    /// progress.
    pub fn next_deadline(&self) -> Option<u64> {
        let timers = self
            .groups
            .iter()
            .filter_map(|g| g.timer.as_ref().and_then(|t| t.deadline()));
        let retransmit = self.retransmit_every.map(|_| self.next_retransmit);
        self.substrate
            .next_timer()
            .into_iter()
            .chain(timers)
            .chain(retransmit)
            .min()
    }

    /// Whether frames are waiting for [`take_outgoing_into`](Self::take_outgoing_into).
    pub fn has_outgoing(&self) -> bool {
        self.substrate.has_outgoing()
    }

    /// Drains the `(peer, frame)` pairs to put on links, appending to
    /// `out`. This is the send routine: on substrates that have one
    /// ([`Substrate::SEND_ROUTINE`]) the host decides how long frames
    /// accumulate before it runs.
    pub fn take_outgoing_into(&mut self, out: &mut Vec<(NodeId, S::Frame)>, now_ns: u64) {
        self.stamp(now_ns);
        self.substrate.take_outgoing_into(out);
    }

    /// The values ordered since the last drain, as `(group, slot)` in
    /// delivery order per group — one entry per client value, suppressed
    /// duplicates included and flagged.
    pub fn drain_ordered(&mut self) -> std::vec::Drain<'_, (u32, Delivered)> {
        self.ordered.drain(..)
    }

    /// Stamps every observer (and the substrate's clock) with the time of
    /// the event about to be processed.
    fn stamp(&mut self, now_ns: u64) {
        for g in &mut self.groups {
            g.paxos.observer_mut().set_now(now_ns);
        }
        self.substrate.set_clock(now_ns);
    }

    /// Hands one group's Paxos responses to the substrate, tagged with the
    /// group for the shared wire.
    fn route(&mut self, group: u32, out: Vec<Outbound>) {
        for o in out {
            let dest = match o.route {
                Route::ToAll => Dest::All,
                Route::ToCoordinator => {
                    Dest::One(self.groups[group as usize].paxos.current_coordinator())
                }
            };
            self.substrate.send(Grouped::new(group, o.msg), dest);
        }
    }

    /// Drains substrate deliveries into Paxos (which may send more) until
    /// quiescent, then collects what became deliverable in order.
    fn pump(&mut self, now_ns: u64) {
        let mut deliveries = std::mem::take(&mut self.deliveries);
        loop {
            self.substrate.take_deliveries_into(&mut deliveries);
            if deliveries.is_empty() {
                break;
            }
            for msg in deliveries.drain(..) {
                let out = self.groups[msg.group as usize].paxos.handle(msg.inner);
                self.route(msg.group, out);
            }
        }
        self.deliveries = deliveries;
        self.harvest(now_ns);
    }

    fn harvest(&mut self, now_ns: u64) {
        for (g, rt) in self.groups.iter_mut().enumerate() {
            // A round learned from a frame restarts the round-change timer,
            // so `next_deadline` is right without waiting for a tick.
            if let Some(timer) = rt.timer.as_mut() {
                timer.observe_round(rt.paxos.current_round(), now_ns);
            }
            let delivered = rt.paxos.take_delivered();
            if delivered.is_empty() {
                continue;
            }
            if let Some(timer) = rt.timer.as_mut() {
                timer.on_progress(now_ns);
            }
            let mut record = |d: Delivered| {
                rt.delivered_log
                    .push((d.instance, d.value.id(), d.duplicate));
                self.ordered.push((g as u32, d));
            };
            for d in delivered {
                // A batched instance decides several client values at once:
                // one entry per component, under the batch's instance slot.
                match d.value.components() {
                    Some(parts) => parts.into_iter().for_each(|value| {
                        record(Delivered {
                            instance: d.instance,
                            value,
                            duplicate: d.duplicate,
                        })
                    }),
                    None => record(d),
                }
            }
            // Periodically let the substrate forget this group's old
            // instances (per-peer semantic summaries, on push gossip).
            let watermark = rt.paxos.learner().next_to_deliver().as_u64();
            if watermark.is_multiple_of(GC_EVERY) {
                self.substrate
                    .on_progress(g as u32, watermark.saturating_sub(GC_KEEP));
            }
        }
    }
}

/// Push gossip with the Paxos semantic rules per group and the exact
/// duplicate cache — the paper's Semantic Gossip.
pub type SemanticPush<O> = GossipNode<WireMsg, GroupedSemantics<PaxosSemantics>, RecentCache, O>;

impl<O: Observer> NodeRuntime<SemanticPush<O>> {
    /// A Semantic Gossip process with default gossip settings: `peers` are
    /// its overlay neighbours, `configs` its consensus groups.
    pub fn semantic_gossip(
        id: NodeId,
        peers: Vec<NodeId>,
        configs: Vec<PaxosConfig>,
        timers: Timers,
        mut observer: impl FnMut() -> O,
    ) -> Self {
        let gossip = GossipConfig::default();
        let semantics =
            GroupedSemantics::new(configs.iter().cloned().map(PaxosSemantics::full).collect());
        let substrate = GossipNode::with_observer(
            id,
            peers,
            gossip,
            semantics,
            RecentCache::new(gossip.recent_cache_size),
            observer(),
        );
        NodeRuntime::new(id, substrate, configs, timers, observer)
    }
}

impl<S: Substrate<WireMsg, Observer = RingObserver>> NodeRuntime<S> {
    /// Moves everything the node's ring observers buffered into `out`:
    /// each group's Paxos events, then the substrate's.
    pub fn drain_events_into(&mut self, out: &mut Vec<TimedEvent>) {
        for g in &mut self.groups {
            out.extend(g.paxos.observer_mut().drain());
        }
        out.extend(self.substrate.observer_mut().drain());
    }

    /// Crash-recovery rebuild: the acceptors' stable storage is all that
    /// survives; learners, coordinators, delivery logs and the substrate
    /// (a fresh one, passed in) start over. Round-change timers keep
    /// running. The crashed incarnation's trace events go to `salvaged`.
    pub fn recover(&mut self, substrate: S, ring_capacity: usize, salvaged: &mut Vec<TimedEvent>) {
        self.drain_events_into(salvaged);
        self.groups = std::mem::take(&mut self.groups)
            .into_iter()
            .map(|g| g.recovered(RingObserver::with_capacity(ring_capacity)))
            .collect();
        self.substrate = substrate;
        self.ordered.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::NoopObserver;
    use semantic_gossip::{Direct, EagerLazyConfig, EagerLazyNode};

    type Push = SemanticPush<NoopObserver>;

    fn configs(n: usize, groups: u32) -> Vec<PaxosConfig> {
        (0..groups)
            .map(|g| PaxosConfig::new(n).with_group(g))
            .collect()
    }

    fn others(n: u32, i: u32) -> Vec<NodeId> {
        (0..n).filter(|&p| p != i).map(NodeId::new).collect()
    }

    fn push_mesh(n: u32, groups: u32) -> Vec<NodeRuntime<Push>> {
        (0..n)
            .map(|i| {
                NodeRuntime::semantic_gossip(
                    NodeId::new(i),
                    others(n, i),
                    configs(n as usize, groups),
                    Timers::default(),
                    || NoopObserver,
                )
            })
            .collect()
    }

    /// Moves frames between the runtimes with instant delivery until no
    /// node has anything left to send.
    fn settle<S: Substrate<WireMsg>>(nodes: &mut [NodeRuntime<S>], now_ns: u64) {
        settle_losing(nodes, now_ns, |_, _| false);
    }

    /// [`settle`], losing every frame `lost(to, frame)` picks.
    fn settle_losing<S: Substrate<WireMsg>>(
        nodes: &mut [NodeRuntime<S>],
        now_ns: u64,
        lost: impl Fn(NodeId, &S::Frame) -> bool,
    ) {
        let mut out = Vec::new();
        loop {
            for i in 0..nodes.len() {
                nodes[i].take_outgoing_into(&mut out, now_ns);
                for (peer, frame) in out.drain(..) {
                    if lost(peer, &frame) {
                        continue;
                    }
                    let from = NodeId::new(i as u32);
                    nodes[peer.as_index()].on_frame(from, frame, now_ns);
                }
            }
            if nodes.iter().all(|n| !n.has_outgoing()) {
                return;
            }
        }
    }

    fn value(origin: u32, seq: u64) -> Value {
        Value::new(NodeId::new(origin), seq, vec![seq as u8; 16])
    }

    /// Bootstraps every group at its round-0 leader, submits `values`
    /// values round-robin and returns every node's per-group ordered ids.
    fn order_values<S: Substrate<WireMsg>>(
        nodes: &mut [NodeRuntime<S>],
        values: u64,
    ) -> Vec<Vec<Vec<(u64, paxos::ValueId)>>> {
        let n = nodes.len();
        let groups = nodes[0].groups().len();
        for g in 0..groups {
            nodes[g % n].start_round(g as u32, Round::ZERO, 0);
        }
        settle(nodes, 0);
        for seq in 0..values {
            // Per-origin sequence numbers, as a client would issue them.
            let at = seq as usize % n;
            nodes[at].submit(value(at as u32, seq / n as u64), seq);
            settle(nodes, seq);
        }
        nodes
            .iter_mut()
            .map(|node| {
                let mut logs = vec![Vec::new(); groups];
                for (g, d) in node.drain_ordered() {
                    assert!(!d.duplicate);
                    logs[g as usize].push((d.instance.as_u64(), d.value.id()));
                }
                logs
            })
            .collect()
    }

    fn assert_all_ordered_identically(logs: &[Vec<Vec<(u64, paxos::ValueId)>>], values: u64) {
        for node in logs {
            assert_eq!(node, &logs[0], "nodes diverged");
        }
        let total: usize = logs[0].iter().map(Vec::len).sum();
        assert_eq!(total as u64, values, "every submitted value is ordered");
    }

    #[test]
    fn the_same_runtime_orders_values_over_every_substrate() {
        let (n, groups, values) = (4u32, 2u32, 24u64);

        let mut push = push_mesh(n, groups);
        let logs = order_values(&mut push, values);
        assert_all_ordered_identically(&logs, values);
        assert!(
            logs[0].iter().all(|log| !log.is_empty()),
            "both shards used"
        );

        let mut trees: Vec<NodeRuntime<EagerLazyNode<WireMsg>>> = (0..n)
            .map(|i| {
                let substrate =
                    EagerLazyNode::new(NodeId::new(i), others(n, i), EagerLazyConfig::default());
                NodeRuntime::new(
                    NodeId::new(i),
                    substrate,
                    configs(n as usize, groups),
                    Timers::default(),
                    || NoopObserver,
                )
            })
            .collect();
        assert_all_ordered_identically(&order_values(&mut trees, values), values);

        let mut direct: Vec<NodeRuntime<Direct<WireMsg>>> = (0..n)
            .map(|i| {
                NodeRuntime::new(
                    NodeId::new(i),
                    Direct::new(n as usize, NoopObserver),
                    configs(n as usize, groups),
                    Timers::default(),
                    || NoopObserver,
                )
            })
            .collect();
        assert_all_ordered_identically(&order_values(&mut direct, values), values);
    }

    /// On push gossip a proposal names its value; a node that loses every
    /// copy of every client value parks each proposal, is not seen voting,
    /// and so is sent the Decision, which carries the value. Once all is
    /// decided nothing stays pooled or parked anywhere.
    #[test]
    fn a_node_that_loses_every_client_value_still_delivers_through_the_decision() {
        const DEAF: NodeId = NodeId::new(3);
        let mut nodes = push_mesh(4, 1);
        nodes[0].start_round(0, Round::ZERO, 0);
        settle(&mut nodes, 0);
        let values = 9u64;
        for seq in 0..values {
            let at = seq as usize % 3;
            nodes[at].submit(value(at as u32, seq / 3), seq);
            settle_losing(&mut nodes, seq, |to, frame: &WireMsg| {
                to == DEAF && matches!(frame.inner, PaxosMessage::ClientValue { .. })
            });
        }
        let deaf = &nodes[DEAF.as_index()].groups()[0].paxos;
        assert_eq!(deaf.proposals_parked(), values, "every proposal waited");
        let logs: Vec<Vec<(u64, paxos::ValueId)>> = nodes
            .iter_mut()
            .map(|node| {
                node.drain_ordered()
                    .map(|(_, d)| (d.instance.as_u64(), d.value.id()))
                    .collect()
            })
            .collect();
        assert_eq!(logs[0].len() as u64, values);
        assert!(logs.iter().all(|log| log == &logs[0]), "{logs:?}");
        for node in &nodes {
            let paxos = &node.groups()[0].paxos;
            assert_eq!((paxos.pooled_values(), paxos.parked_proposals()), (0, 0));
        }
    }

    #[test]
    fn delivery_logs_match_what_the_host_drains() {
        let mut nodes = push_mesh(3, 1);
        order_values(&mut nodes, 6);
        for node in &nodes {
            assert_eq!(node.groups()[0].delivered_log.len(), 6);
        }
    }

    /// The PR 12 soak test one layer up: with the GC cadence inside the
    /// runtime, a long-lived node's semantic summaries reach their
    /// high-water mark within the first retention period whatever host
    /// drives it.
    #[test]
    fn semantic_summaries_stay_flat_over_ten_retention_periods() {
        let mut nodes = push_mesh(3, 1);
        nodes[0].start_round(0, Round::ZERO, 0);
        settle(&mut nodes, 0);
        let mut high_water = Vec::new();
        for seq in 0..10 * GC_KEEP {
            nodes[0].submit(value(0, seq), seq);
            settle(&mut nodes, seq);
            let occupancy = nodes
                .iter()
                .map(|n| n.substrate().semantics().get(0).occupancy())
                .max()
                .expect("three nodes");
            high_water.push(occupancy);
        }
        for node in &mut nodes {
            assert_eq!(node.drain_ordered().count() as u64, 10 * GC_KEEP);
        }
        let first_period = *high_water[..(GC_KEEP + GC_EVERY) as usize]
            .iter()
            .max()
            .expect("non-empty");
        let overall = *high_water.iter().max().expect("non-empty");
        assert!(first_period > 0, "the summaries are in use");
        assert_eq!(overall, first_period, "occupancy kept growing");
    }

    #[test]
    fn next_deadline_tracks_failover_and_retransmit_timers() {
        let timers = Timers {
            failover: Some(1_000),
            retransmit: Some(300),
        };
        // Process 1 of 3 leads group 0's round 1: it is the one to act.
        let mut node: NodeRuntime<Direct<WireMsg>> = NodeRuntime::new(
            NodeId::new(1),
            Direct::new(3, NoopObserver),
            configs(3, 1),
            timers,
            || NoopObserver,
        );
        assert_eq!(node.next_deadline(), Some(300), "first retransmit");
        node.on_tick(300);
        assert_eq!(node.next_deadline(), Some(600));
        node.on_tick(1_000);
        assert_eq!(
            node.groups()[0].paxos.current_round(),
            Round::new(1),
            "the silent round-0 coordinator was replaced"
        );
        assert!(node.has_outgoing(), "Phase 1a of the new round");
        assert_eq!(node.next_deadline(), Some(1_300), "only retransmit left");

        // A process that is not next in line never waits on the timer.
        let bystander: NodeRuntime<Direct<WireMsg>> = NodeRuntime::new(
            NodeId::new(2),
            Direct::new(3, NoopObserver),
            configs(3, 1),
            Timers {
                failover: Some(1_000),
                retransmit: None,
            },
            || NoopObserver,
        );
        assert_eq!(bystander.next_deadline(), None);
    }

    /// A round learned from a frame arms the round-change timer at once: a
    /// host that sleeps until `next_deadline` must wake the process next
    /// in line without a tick in between.
    #[test]
    fn a_round_learned_from_a_frame_arms_the_deadline() {
        let timers = Timers {
            failover: Some(1_000),
            retransmit: None,
        };
        let mut nodes: Vec<NodeRuntime<Direct<WireMsg>>> = (0..3)
            .map(|i| {
                NodeRuntime::new(
                    NodeId::new(i),
                    Direct::new(3, NoopObserver),
                    configs(3, 1),
                    timers,
                    || NoopObserver,
                )
            })
            .collect();
        nodes[1].start_round(0, Round::new(1), 100);
        let mut out = Vec::new();
        nodes[1].take_outgoing_into(&mut out, 100);
        let (_, phase1a) = out
            .into_iter()
            .find(|(to, _)| *to == NodeId::new(2))
            .expect("Phase 1a to process 2");
        assert_eq!(nodes[2].next_deadline(), None, "round 1 is not its to lead");
        nodes[2].on_frame(NodeId::new(1), phase1a, 200);
        assert_eq!(
            nodes[2].next_deadline(),
            Some(1_200),
            "process 2 leads round 2"
        );
    }
}
