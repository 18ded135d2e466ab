//! The gossip node: push dissemination with semantic extensions.
//!
//! Mirrors Figure 2 of the paper: a *broadcast queue* fed by the consensus
//! protocol, a *delivery queue* read by it, one *send queue* per peer, a
//! *duplication check* against the recently-seen cache, and a forwarding
//! module pushing every fresh message to all peers except its origin. The
//! semantic extensions hook the send path (`aggregate`, `validate`) and the
//! receive path (`disaggregate`).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use obs::{Event, NoopObserver, Observer};

use crate::cache::{DuplicateFilter, RecentCache};
use crate::config::GossipConfig;
use crate::hash::MixState;
use crate::id::{MessageId, NodeId};
use crate::semantics::{NoSemantics, Semantics};
use crate::stats::{MessageStats, Stat};

/// Moves a shared payload out of its handle: free when this was the last
/// reference, a counted deep clone when another queue still aliases it.
pub(crate) fn unwrap_or_clone<M: Clone>(shared: Arc<M>, drain_clones: &mut Stat) -> M {
    match Arc::try_unwrap(shared) {
        Ok(msg) => msg,
        Err(shared) => {
            drain_clones.incr();
            (*shared).clone()
        }
    }
}

/// A message type that can be gossiped.
///
/// The consensus protocol defines [`GossipItem::message_id`] so identifiers
/// are unique by construction (the paper stores consensus-defined unique ids
/// in the recently-seen cache to prevent hash collisions, §3.3).
/// [`GossipItem::wire_size`] is the encoded size in bytes, used by runtimes
/// for CPU/bandwidth accounting.
pub trait GossipItem: Clone {
    /// Globally unique identifier of this message.
    fn message_id(&self) -> MessageId;

    /// Size of the encoded message in bytes.
    fn wire_size(&self) -> usize;

    /// Consensus-level identity used to correlate this wire message with
    /// protocol events in traces: when `Some`, the node emits one
    /// `wire_tagged` event as the message enters the substrate at its
    /// broadcasting origin. `None` (the default) emits nothing.
    fn trace_tag(&self) -> Option<TraceTag> {
        None
    }

    /// The class of messages [`Semantics::aggregate`] may merge this one
    /// with: two pending messages can only collapse into one if they return
    /// the same `Some(key)`. `None` (the default) means the message never
    /// merges with anything.
    ///
    /// The node hands `aggregate` only the pending messages whose key
    /// occurs at least twice in a peer's queue; every other message stays
    /// in the shared handle its fan-out created, so a transport can still
    /// encode it once for all peers. A message type whose semantics
    /// aggregate must therefore override this. Keys only need to be equal
    /// *within* a class — a collision between classes costs one useless
    /// `aggregate` call, nothing else.
    fn aggregation_key(&self) -> Option<u64> {
        None
    }
}

/// One message waiting in a peer's send queue.
#[derive(Debug)]
struct Pending<M> {
    msg: Arc<M>,
    /// Wire size and aggregation class, computed once per broadcast —
    /// `wire_size()` walks the message (voter lists, payload) and must not
    /// be re-paid for every peer a shared handle fans out to.
    size: u32,
    class: Option<u64>,
    /// Set while draining: another message pending for this peer shares
    /// `class`, so both go through `aggregate`.
    merges: bool,
}

/// One pending message in a peer's drain plan.
#[derive(Debug)]
enum Planned<M> {
    /// Alone in its aggregation class: goes out in its shared handle.
    Shared(Arc<M>, u32),
    /// Handed to `aggregate`; the class key says which output belongs here.
    Merging(u64),
}

/// Consensus-level identity of a wire message, joining the gossip-layer
/// `gossip_sent` / `gossip_received` timeline (keyed by message id) to
/// protocol state (instance, value) for causal critical-path analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceTag {
    /// Protocol message kind (e.g. `"Phase2a"`).
    pub kind: &'static str,
    /// Consensus instance, or [`TraceTag::NO_INSTANCE`] when the message
    /// is not bound to one.
    pub instance: u64,
    /// Originating process of the carried value (0 when none).
    pub origin: u32,
    /// Client sequence number of the carried value (0 when none).
    pub seq: u64,
}

impl TraceTag {
    /// Sentinel `instance` for messages not bound to an instance.
    pub const NO_INSTANCE: u64 = u64::MAX;
}

/// A sans-IO gossip node (see the [crate docs](crate) for an example).
///
/// Type parameters: `M` the message type, `S` the [`Semantics`]
/// implementation (default classic), `F` the [`DuplicateFilter`] (default
/// the exact [`RecentCache`]), and `O` the [`Observer`] receiving trace
/// events (default the zero-cost [`NoopObserver`] — emission sites are
/// guarded on `O::ENABLED`, so the default compiles to the uninstrumented
/// hot path).
///
/// A runtime drives the node with four calls:
///
/// 1. [`broadcast`](Self::broadcast) when the local consensus protocol emits
///    a message;
/// 2. [`on_receive`](Self::on_receive) when a message arrives from a peer;
/// 3. [`take_outgoing`](Self::take_outgoing) to collect `(peer, message)`
///    pairs to transmit;
/// 4. [`take_deliveries`](Self::take_deliveries) to collect messages for the
///    local consensus protocol.
///
/// Internally the node is **encode-once friendly**: a fresh message is
/// wrapped in one [`Arc`] and every queue (delivery plus one per eligible
/// peer) holds a handle to that single payload, so fan-out costs reference
/// counts instead of deep clones. Owned drains ([`take_outgoing`](Self::take_outgoing),
/// [`take_deliveries`](Self::take_deliveries)) materialize copies only for
/// payloads still aliased elsewhere; the zero-copy
/// [`take_outgoing_shared_into`](Self::take_outgoing_shared_into) hands the
/// shared handles straight to a transport that serializes each message once.
#[derive(Debug)]
pub struct GossipNode<M, S = NoSemantics, F = RecentCache, O = NoopObserver> {
    id: NodeId,
    peers: Vec<NodeId>,
    /// Per-peer outgoing queues.
    send_queues: Vec<VecDeque<Pending<M>>>,
    /// When each send queue last went empty→non-empty (on the external
    /// clock), for head-of-line queue-lag gauges. `None` while empty.
    queue_busy_since: Vec<Option<u64>>,
    delivery: VecDeque<Arc<M>>,
    filter: F,
    semantics: S,
    stats: MessageStats,
    config: GossipConfig,
    /// External clock (nanoseconds), advanced by the runtime alongside the
    /// observer's; only read for queue-lag accounting.
    clock: u64,
    /// Drain scratch, kept across drains for its allocations: where each
    /// aggregation class first occurs in the queue being drained, the
    /// drain plan, and the owned messages handed to `aggregate`.
    classes: HashMap<u64, usize, MixState>,
    plan: Vec<Planned<M>>,
    merging: Vec<M>,
    observer: O,
}

impl<M: GossipItem> GossipNode<M, NoSemantics, RecentCache> {
    /// Creates a classic gossip node: no semantic extensions, exact
    /// duplicate cache.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid or `peers` contains `id` or duplicates.
    pub fn classic(id: NodeId, peers: Vec<NodeId>, config: GossipConfig) -> Self {
        GossipNode::new(id, peers, config, NoSemantics)
    }
}

impl<M: GossipItem, S: Semantics<M>> GossipNode<M, S, RecentCache> {
    /// Creates a node with the given semantics and the default exact
    /// duplicate cache.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid or `peers` contains `id` or duplicates.
    pub fn new(id: NodeId, peers: Vec<NodeId>, config: GossipConfig, semantics: S) -> Self {
        let filter = RecentCache::new(config.recent_cache_size);
        GossipNode::with_filter(id, peers, config, semantics, filter)
    }
}

impl<M: GossipItem, S: Semantics<M>, F: DuplicateFilter> GossipNode<M, S, F> {
    /// Creates a node with explicit semantics and duplicate filter (and the
    /// zero-cost [`NoopObserver`]).
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid, or `peers` contains `id` or duplicate
    /// entries.
    pub fn with_filter(
        id: NodeId,
        peers: Vec<NodeId>,
        config: GossipConfig,
        semantics: S,
        filter: F,
    ) -> Self {
        GossipNode::with_observer(id, peers, config, semantics, filter, NoopObserver)
    }
}

impl<M: GossipItem, S: Semantics<M>, F: DuplicateFilter, O: Observer> GossipNode<M, S, F, O> {
    /// Creates a fully explicit node: semantics, duplicate filter, and the
    /// observer receiving trace events.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid, or `peers` contains `id` or duplicate
    /// entries.
    pub fn with_observer(
        id: NodeId,
        peers: Vec<NodeId>,
        config: GossipConfig,
        semantics: S,
        filter: F,
        observer: O,
    ) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid gossip config: {e}");
        }
        assert!(!peers.contains(&id), "a node cannot be its own peer");
        let mut dedup = peers.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), peers.len(), "duplicate peer ids");
        let send_queues = peers.iter().map(|_| VecDeque::new()).collect();
        let queue_busy_since = vec![None; peers.len()];
        GossipNode {
            id,
            peers,
            send_queues,
            queue_busy_since,
            delivery: VecDeque::new(),
            filter,
            semantics,
            stats: MessageStats::default(),
            config,
            clock: 0,
            classes: HashMap::default(),
            plan: Vec::new(),
            merging: Vec::new(),
            observer,
        }
    }

    /// Advances the clock used for queue-lag accounting. Runtimes call
    /// this wherever they already advance the observer's clock; a node
    /// whose clock never moves simply reports zero lag.
    pub fn set_clock(&mut self, now_nanos: u64) {
        self.clock = now_nanos;
    }

    /// Shared access to the observer (e.g. to read a buffered trace).
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Exclusive access to the observer (e.g. to drain a
    /// [`obs::RingObserver`] or advance its clock).
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The peers this node pushes to.
    pub fn peers(&self) -> &[NodeId] {
        &self.peers
    }

    /// Message accounting so far.
    pub fn stats(&self) -> &MessageStats {
        &self.stats
    }

    /// Shared access to the semantics implementation (e.g. to inspect the
    /// summary it maintains).
    pub fn semantics(&self) -> &S {
        &self.semantics
    }

    /// Exclusive access to the semantics implementation (e.g. for periodic
    /// maintenance such as garbage-collecting per-peer summaries).
    pub fn semantics_mut(&mut self) -> &mut S {
        &mut self.semantics
    }

    /// Broadcasts a message from the local consensus protocol: it is
    /// registered, delivered locally, and enqueued to every peer.
    ///
    /// Re-broadcasting a recently seen message is a no-op (duplicate).
    pub fn broadcast(&mut self, msg: M) {
        self.register(msg, None);
    }

    /// Handles a message received from `from`: disaggregates it, and every
    /// fresh part is delivered locally and forwarded to all peers except
    /// `from`.
    pub fn on_receive(&mut self, from: NodeId, msg: M) {
        self.stats.received.incr();
        let incoming = if O::ENABLED {
            msg.message_id().trace_id()
        } else {
            0
        };
        if O::ENABLED {
            self.observer.record(Event::GossipReceived {
                node: self.id.as_u32(),
                from: from.as_u32(),
                msg: incoming,
            });
        }
        let parts = self.semantics.disaggregate(msg);
        if O::ENABLED && parts.len() > 1 {
            self.observer.record(Event::GossipDisaggregated {
                node: self.id.as_u32(),
                msg: incoming,
                parts: parts.len() as u64,
            });
        }
        for part in parts {
            self.stats.received_parts.incr();
            self.register(part, Some(from));
        }
    }

    /// Registers a message unless it is a duplicate: cache, observe,
    /// deliver, enqueue to peers (except the optional origin). The
    /// duplicate filter is probed exactly once.
    fn register(&mut self, msg: M, origin: Option<NodeId>) {
        let id = msg.message_id();
        let trace_id = if O::ENABLED { id.trace_id() } else { 0 };
        if !self.filter.insert(id) {
            // Seen before: another overlay path, or consensus re-broadcast.
            self.stats.duplicates.incr();
            if O::ENABLED {
                self.observer.record(Event::DuplicateDropped {
                    node: self.id.as_u32(),
                    msg: trace_id,
                });
            }
            return;
        }
        self.semantics.observe(&msg);
        // A locally broadcast message is its causal chain's origin: tag it
        // once here so traces can join the wire id to consensus state.
        if O::ENABLED && origin.is_none() {
            if let Some(tag) = msg.trace_tag() {
                self.observer.record(Event::WireTagged {
                    node: self.id.as_u32(),
                    msg: trace_id,
                    kind: tag.kind.to_string(),
                    instance: tag.instance,
                    origin: tag.origin,
                    seq: tag.seq,
                });
            }
        }
        // One allocation fans out everywhere: each enqueue below is a
        // reference-count bump where the pre-sharing node deep-cloned.
        let shared = Arc::new(msg);
        if self.delivery.len() >= self.config.delivery_queue_capacity {
            self.stats.delivery_overflow.incr();
            if O::ENABLED {
                self.observer.record(Event::DeliveryQueueOverflow {
                    node: self.id.as_u32(),
                    msg: trace_id,
                });
            }
        } else {
            self.delivery.push_back(Arc::clone(&shared));
            self.stats.delivered.incr();
            self.stats.shared_enqueues.incr();
            if O::ENABLED {
                self.observer.record(Event::GossipDelivered {
                    node: self.id.as_u32(),
                    msg: trace_id,
                });
            }
        }
        let size = shared.wire_size() as u32;
        let class = shared.aggregation_key();
        for i in 0..self.peers.len() {
            if Some(self.peers[i]) == origin {
                continue;
            }
            if self.send_queues[i].len() >= self.config.send_queue_capacity {
                self.stats.send_overflow.incr();
                if O::ENABLED {
                    self.observer.record(Event::SendQueueOverflow {
                        node: self.id.as_u32(),
                        to: self.peers[i].as_u32(),
                        msg: trace_id,
                    });
                }
            } else {
                if self.send_queues[i].is_empty() {
                    self.queue_busy_since[i] = Some(self.clock);
                }
                self.send_queues[i].push_back(Pending {
                    msg: Arc::clone(&shared),
                    size,
                    class,
                    merges: false,
                });
                self.stats.shared_enqueues.incr();
            }
        }
    }

    /// Drains and returns the messages pending for the consensus protocol.
    pub fn take_deliveries(&mut self) -> Vec<M> {
        let mut out = Vec::with_capacity(self.delivery.len());
        self.take_deliveries_into(&mut out);
        out
    }

    /// Drains pending deliveries into `out` (appending), so a tick loop can
    /// reuse one scratch buffer instead of allocating per tick.
    pub fn take_deliveries_into(&mut self, out: &mut Vec<M>) {
        out.reserve(self.delivery.len());
        while let Some(shared) = self.delivery.pop_front() {
            out.push(unwrap_or_clone(shared, &mut self.stats.drain_clones));
        }
    }

    /// Whether any send queue has pending messages.
    pub fn has_outgoing(&self) -> bool {
        self.send_queues.iter().any(|q| !q.is_empty())
    }

    /// Drains all send queues and returns the `(peer, message)` pairs to
    /// transmit, after applying semantic aggregation (when a peer has more
    /// than one pending message) and semantic filtering (per message).
    pub fn take_outgoing(&mut self) -> Vec<(NodeId, M)> {
        let mut out = Vec::new();
        self.take_outgoing_into(&mut out);
        out
    }

    /// Like [`take_outgoing`](Self::take_outgoing), but appends into a
    /// caller-owned scratch buffer, so a tick loop can reuse one allocation
    /// across ticks.
    pub fn take_outgoing_into(&mut self, out: &mut Vec<(NodeId, M)>) {
        self.drain_outgoing(|peer, shared, stats| {
            out.push((peer, unwrap_or_clone(shared, &mut stats.drain_clones)));
        });
    }

    /// Zero-copy drain: yields the *shared* payload handles, so a transport
    /// can serialize each distinct message once and reuse the bytes for
    /// every peer it fans out to. Entries for different peers that carry
    /// the same message alias the same `Arc`.
    pub fn take_outgoing_shared_into(&mut self, out: &mut Vec<(NodeId, Arc<M>)>) {
        self.drain_outgoing(|peer, shared, _| out.push((peer, shared)));
    }

    /// Allocating convenience for
    /// [`take_outgoing_shared_into`](Self::take_outgoing_shared_into).
    pub fn take_outgoing_shared(&mut self) -> Vec<(NodeId, Arc<M>)> {
        let mut out = Vec::new();
        self.take_outgoing_shared_into(&mut out);
        out
    }

    /// The one drain implementation behind the owned and shared variants:
    /// aggregation and per-message validation happen here; `emit` decides
    /// whether the surviving handle is passed on shared or unwrapped into
    /// an owned copy.
    ///
    /// Only messages that can actually merge — those sharing an
    /// [`aggregation_key`](GossipItem::aggregation_key) with another
    /// message pending for the same peer — leave their shared handle to be
    /// handed (owned) to the semantics hook. Each merged output is emitted
    /// at the position of its class's first member; everything else goes
    /// out in queue order, untouched.
    fn drain_outgoing(&mut self, mut emit: impl FnMut(NodeId, Arc<M>, &mut MessageStats)) {
        for i in 0..self.peers.len() {
            let peer = self.peers[i];
            let before = self.send_queues[i].len();
            if before == 0 {
                continue;
            }
            // The whole queue drains below, ending its busy period.
            self.queue_busy_since[i] = None;
            if before == 1 {
                let only = self.send_queues[i].pop_front().expect("non-empty queue");
                self.emit_validated(peer, only.msg, only.size as u64, &mut emit);
                continue;
            }
            // Mark every message whose class occurs more than once: each
            // repeat marks itself and the class's first member.
            let queue = &mut self.send_queues[i];
            self.classes.clear();
            for at in 0..before {
                let Some(key) = queue[at].class else { continue };
                let first = *self.classes.entry(key).or_insert(at);
                if first != at {
                    queue[at].merges = true;
                    queue[first].merges = true;
                }
            }
            let mut plan = std::mem::take(&mut self.plan);
            let mut merging = std::mem::take(&mut self.merging);
            for pending in queue.drain(..) {
                match pending.class {
                    Some(key) if pending.merges => {
                        // The hook consumes owned messages, so an aliased
                        // payload is materialized (and counted) here.
                        merging.push(unwrap_or_clone(pending.msg, &mut self.stats.drain_clones));
                        plan.push(Planned::Merging(key));
                    }
                    _ => plan.push(Planned::Shared(pending.msg, pending.size)),
                }
            }
            let handed = merging.len();
            let mut merged = if handed == 0 {
                merging
            } else {
                self.semantics.aggregate(merging, peer)
            };
            debug_assert!(
                merged.len() <= handed,
                "aggregation must not grow the pending list"
            );
            let after = before - handed + merged.len();
            self.stats.aggregated_away.add((before - after) as u64);
            if O::ENABLED {
                self.observer.record(Event::VotesAggregated {
                    node: self.id.as_u32(),
                    before: before as u64,
                    after: after as u64,
                });
            }
            // Aggregation may have rewritten a message, so its queue-time
            // size no longer applies; each output is sized once and emitted
            // to a single peer. `aggregate` keeps first-occurrence order, so
            // walking the plan meets each class's output at the position of
            // its first member.
            let mut outputs = merged
                .drain(..)
                .map(|m| (m.aggregation_key(), m))
                .peekable();
            for planned in plan.drain(..) {
                let (shared, size) = match planned {
                    Planned::Shared(shared, size) => (shared, size as u64),
                    Planned::Merging(key) => {
                        // A member merged into an earlier one has no output.
                        let Some((_, msg)) = outputs.next_if(|(class, _)| *class == Some(key))
                        else {
                            continue;
                        };
                        let size = msg.wire_size() as u64;
                        (Arc::new(msg), size)
                    }
                };
                self.emit_validated(peer, shared, size, &mut emit);
            }
            // Outputs a hook moved to another class (none of ours does).
            for (_, msg) in outputs {
                let size = msg.wire_size() as u64;
                self.emit_validated(peer, Arc::new(msg), size, &mut emit);
            }
            self.plan = plan;
            self.merging = merged;
        }
    }

    /// Validates one outgoing shared payload and hands it to `emit`, or
    /// counts it as filtered. `size` is the message's wire size, computed
    /// by the caller (once per broadcast on the shared fan-out path).
    fn emit_validated(
        &mut self,
        peer: NodeId,
        shared: Arc<M>,
        size: u64,
        emit: &mut impl FnMut(NodeId, Arc<M>, &mut MessageStats),
    ) {
        if self.semantics.validate(&shared, peer) {
            self.stats.sent.incr();
            self.stats.bytes_sent.add(size);
            if O::ENABLED {
                self.observer.record(Event::GossipSent {
                    node: self.id.as_u32(),
                    to: peer.as_u32(),
                    msg: shared.message_id().trace_id(),
                });
            }
            emit(peer, shared, &mut self.stats);
        } else {
            self.stats.filtered.incr();
            self.stats.bytes_filtered.add(size);
            if O::ENABLED {
                self.observer.record(Event::SemanticFiltered {
                    node: self.id.as_u32(),
                    msg: shared.message_id().trace_id(),
                });
            }
        }
    }

    /// Messages currently queued toward each peer, as `(peer, depth)`
    /// pairs in peer order — the live send-queue gauge.
    pub fn send_queue_depths(&self) -> Vec<(NodeId, usize)> {
        self.peers
            .iter()
            .zip(&self.send_queues)
            .map(|(&p, q)| (p, q.len()))
            .collect()
    }

    /// The deepest per-peer send queue right now.
    pub fn max_send_queue_depth(&self) -> usize {
        self.send_queues
            .iter()
            .map(VecDeque::len)
            .max()
            .unwrap_or(0)
    }

    /// Message ids currently remembered by the duplicate-suppression
    /// cache — the seen-cache occupancy gauge.
    pub fn cache_occupancy(&self) -> usize {
        self.filter.len()
    }

    /// Messages waiting for the consensus layer to collect.
    pub fn delivery_queue_depth(&self) -> usize {
        self.delivery.len()
    }

    /// Head-of-line wait per continuously busy peer queue at the current
    /// clock, as `(peer, lag_ns)` pairs (empty queues are omitted). A
    /// queue that stays non-empty across drains accumulates lag from the
    /// moment it last went empty→non-empty — the per-peer backpressure
    /// gauge behind `queue_lag_sampled`.
    pub fn queue_lags(&self) -> Vec<(NodeId, u64)> {
        self.peers
            .iter()
            .zip(&self.queue_busy_since)
            .filter_map(|(&peer, busy)| busy.map(|since| (peer, self.clock.saturating_sub(since))))
            .collect()
    }

    /// Records one gauge snapshot per peer queue plus the cache occupancy
    /// into the observer. A no-op for disabled observers; runtimes call
    /// this periodically so traces carry queue-pressure samples alongside
    /// the per-message events.
    pub fn sample_gauges(&mut self) {
        if !O::ENABLED {
            return;
        }
        let node = self.id.as_u32();
        for i in 0..self.peers.len() {
            self.observer.record(Event::QueueDepthSampled {
                node,
                peer: self.peers[i].as_u32(),
                depth: self.send_queues[i].len() as u64,
            });
            if let Some(since) = self.queue_busy_since[i] {
                self.observer.record(Event::QueueLagSampled {
                    node,
                    peer: self.peers[i].as_u32(),
                    lag_ns: self.clock.saturating_sub(since),
                });
            }
        }
        self.observer.record(Event::CacheOccupancySampled {
            node,
            entries: self.filter.len() as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Msg(u64);

    impl GossipItem for Msg {
        fn message_id(&self) -> MessageId {
            MessageId::from_u128(self.0 as u128)
        }
        fn wire_size(&self) -> usize {
            8
        }
        /// Every `Msg` may merge with every other (see `TestSemantics`).
        fn aggregation_key(&self) -> Option<u64> {
            Some(0)
        }
    }

    fn node_with_peers(n: u32) -> GossipNode<Msg> {
        let peers = (1..=n).map(NodeId::new).collect();
        GossipNode::classic(NodeId::new(0), peers, GossipConfig::default())
    }

    #[test]
    fn construction_allocates_nothing_by_a_bound() {
        let peers: Vec<NodeId> = (1..=4).map(NodeId::new).collect();
        crate::test_alloc::assert_allocation_ignores_bound("GossipNode::new", |bound| {
            let config = GossipConfig {
                recent_cache_size: bound,
                send_queue_capacity: bound,
                delivery_queue_capacity: bound,
            };
            GossipNode::<Msg>::new(NodeId::new(0), peers.clone(), config, NoSemantics)
        });
    }

    #[test]
    fn broadcast_delivers_locally_and_pushes_to_all_peers() {
        let mut node = node_with_peers(3);
        node.broadcast(Msg(1));
        assert_eq!(node.take_deliveries(), vec![Msg(1)]);
        let out = node.take_outgoing();
        assert_eq!(out.len(), 3);
        let peers: Vec<NodeId> = out.iter().map(|(p, _)| *p).collect();
        assert_eq!(peers, vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)]);
    }

    #[test]
    fn receive_forwards_to_all_but_origin() {
        let mut node = node_with_peers(3);
        node.on_receive(NodeId::new(2), Msg(5));
        assert_eq!(node.take_deliveries(), vec![Msg(5)]);
        let out = node.take_outgoing();
        let peers: Vec<NodeId> = out.iter().map(|(p, _)| *p).collect();
        assert_eq!(peers, vec![NodeId::new(1), NodeId::new(3)]);
    }

    #[test]
    fn duplicates_are_suppressed() {
        let mut node = node_with_peers(2);
        node.on_receive(NodeId::new(1), Msg(9));
        node.on_receive(NodeId::new(2), Msg(9));
        assert_eq!(node.take_deliveries().len(), 1);
        assert_eq!(node.stats().duplicates.get(), 1);
        assert_eq!(node.stats().received.get(), 2);
        // Only forwarded once (to peer 2, from the first reception).
        assert_eq!(node.take_outgoing().len(), 1);
    }

    #[test]
    fn rebroadcast_of_seen_message_is_duplicate() {
        let mut node = node_with_peers(1);
        node.broadcast(Msg(1));
        node.broadcast(Msg(1));
        assert_eq!(node.stats().duplicates.get(), 1);
        assert_eq!(node.take_deliveries().len(), 1);
    }

    #[test]
    fn receive_from_unknown_peer_forwards_everywhere() {
        let mut node = node_with_peers(2);
        node.on_receive(NodeId::new(99), Msg(1));
        assert_eq!(node.take_outgoing().len(), 2);
    }

    #[test]
    fn send_queue_overflow_drops_and_counts() {
        let config = GossipConfig {
            send_queue_capacity: 2,
            ..GossipConfig::default()
        };
        let mut node: GossipNode<Msg> =
            GossipNode::classic(NodeId::new(0), vec![NodeId::new(1)], config);
        for v in 0..5 {
            node.broadcast(Msg(v));
        }
        assert_eq!(node.stats().send_overflow.get(), 3);
        assert_eq!(node.take_outgoing().len(), 2);
    }

    #[test]
    fn delivery_queue_overflow_drops_and_counts() {
        let config = GossipConfig {
            delivery_queue_capacity: 1,
            ..GossipConfig::default()
        };
        let mut node: GossipNode<Msg> =
            GossipNode::classic(NodeId::new(0), vec![NodeId::new(1)], config);
        node.broadcast(Msg(1));
        node.broadcast(Msg(2));
        assert_eq!(node.stats().delivery_overflow.get(), 1);
        assert_eq!(node.take_deliveries(), vec![Msg(1)]);
        // The overflowed message was still forwarded to peers.
        assert_eq!(node.take_outgoing().len(), 2);
    }

    #[test]
    fn has_outgoing_reflects_queues() {
        let mut node = node_with_peers(1);
        assert!(!node.has_outgoing());
        node.broadcast(Msg(1));
        assert!(node.has_outgoing());
        node.take_outgoing();
        assert!(!node.has_outgoing());
    }

    #[test]
    #[should_panic(expected = "own peer")]
    fn self_peer_panics() {
        let _: GossipNode<Msg> = GossipNode::classic(
            NodeId::new(0),
            vec![NodeId::new(0)],
            GossipConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "duplicate peer")]
    fn duplicate_peer_panics() {
        let _: GossipNode<Msg> = GossipNode::classic(
            NodeId::new(0),
            vec![NodeId::new(1), NodeId::new(1)],
            GossipConfig::default(),
        );
    }

    // --- semantic hooks ----------------------------------------------------

    /// Filters odd payloads; aggregates by summing; disaggregates multiples
    /// of 1000 into two halves.
    struct TestSemantics;

    impl Semantics<Msg> for TestSemantics {
        fn validate(&mut self, msg: &Msg, _peer: NodeId) -> bool {
            msg.0.is_multiple_of(2)
        }
        fn aggregate(&mut self, pending: Vec<Msg>, _peer: NodeId) -> Vec<Msg> {
            vec![Msg(pending.iter().map(|m| m.0).sum())]
        }
        fn disaggregate(&mut self, msg: Msg) -> Vec<Msg> {
            if msg.0 >= 1000 {
                vec![Msg(msg.0 - 1000), Msg(1000)]
            } else {
                vec![msg]
            }
        }
    }

    fn semantic_node(peers: u32) -> GossipNode<Msg, TestSemantics> {
        let peers = (1..=peers).map(NodeId::new).collect();
        GossipNode::new(
            NodeId::new(0),
            peers,
            GossipConfig::default(),
            TestSemantics,
        )
    }

    #[test]
    fn filtering_drops_on_send_path_only() {
        let mut node = semantic_node(1);
        node.broadcast(Msg(3)); // odd: filtered on send, still delivered locally
        assert_eq!(node.take_deliveries(), vec![Msg(3)]);
        assert!(node.take_outgoing().is_empty());
        assert_eq!(node.stats().filtered.get(), 1);
        assert_eq!(node.stats().sent.get(), 0);
    }

    #[test]
    fn byte_counters_track_sent_and_filtered_wire_sizes() {
        // Msg wire_size is 8: one filtered broadcast and one sent broadcast
        // to a single peer must land their bytes in the right counter
        // (drained separately so aggregation does not merge them).
        let mut node = semantic_node(1);
        node.broadcast(Msg(3)); // odd: filtered
        node.take_outgoing();
        node.broadcast(Msg(4)); // even: sent
        node.take_outgoing();
        assert_eq!(node.stats().bytes_filtered.get(), 8);
        assert_eq!(node.stats().bytes_sent.get(), 8);
        // Fan-out counts bytes once per emitted copy.
        let mut wide = semantic_node(3);
        wide.broadcast(Msg(6));
        wide.take_outgoing();
        assert_eq!(wide.stats().bytes_sent.get(), 24);
    }

    #[test]
    fn aggregation_merges_pending_messages() {
        let mut node = semantic_node(1);
        node.broadcast(Msg(2));
        node.broadcast(Msg(4));
        node.broadcast(Msg(6));
        let out = node.take_outgoing();
        assert_eq!(out, vec![(NodeId::new(1), Msg(12))]);
        assert_eq!(node.stats().aggregated_away.get(), 2);
        assert_eq!(node.stats().sent.get(), 1);
    }

    #[test]
    fn single_pending_message_skips_aggregation() {
        let mut node = semantic_node(1);
        node.broadcast(Msg(2));
        let out = node.take_outgoing();
        assert_eq!(out, vec![(NodeId::new(1), Msg(2))]);
        assert_eq!(node.stats().aggregated_away.get(), 0);
    }

    #[test]
    fn observer_sees_hot_path_events() {
        use obs::RingObserver;
        let mut node: GossipNode<Msg, TestSemantics, RecentCache, RingObserver> =
            GossipNode::with_observer(
                NodeId::new(0),
                vec![NodeId::new(1), NodeId::new(2)],
                GossipConfig::default(),
                TestSemantics,
                RecentCache::new(64),
                RingObserver::with_capacity(128),
            );
        node.observer_mut().set_now(7);
        node.on_receive(NodeId::new(1), Msg(1042)); // parts: 42, 1000
        node.on_receive(NodeId::new(2), Msg(2000)); // parts: 1000 (dup), 1000 (dup)
        node.broadcast(Msg(2));
        node.broadcast(Msg(4));
        node.take_outgoing();
        let events = node.observer_mut().drain();
        assert!(events.iter().all(|e| e.at == 7));
        let count = |kind: &str| events.iter().filter(|e| e.event.kind() == kind).count();
        assert_eq!(count("gossip_received"), 2);
        assert_eq!(count("gossip_disaggregated"), 2);
        assert_eq!(count("duplicate_dropped"), 2);
        assert_eq!(count("gossip_delivered"), 4);
        // Peer 1 was origin of 42/1000, so its queue holds 2+2 broadcasts
        // aggregated to 1; peer 2's holds 42, 1000, 2, 4 aggregated to 1.
        assert_eq!(count("votes_aggregated"), 2);
        // Aggregates: peer1 gets Msg(6), peer2 gets Msg(1048) — both even.
        assert_eq!(count("gossip_sent"), 2);
    }

    /// A message carrying a consensus identity for wire tagging.
    #[derive(Clone, Debug, PartialEq)]
    struct Tagged(u64);

    impl GossipItem for Tagged {
        fn message_id(&self) -> MessageId {
            MessageId::from_u128(self.0 as u128)
        }
        fn wire_size(&self) -> usize {
            8
        }
        fn trace_tag(&self) -> Option<TraceTag> {
            Some(TraceTag {
                kind: "Test",
                instance: self.0,
                origin: 9,
                seq: self.0 + 1,
            })
        }
    }

    #[test]
    fn local_broadcast_of_tagged_message_emits_wire_tagged() {
        use obs::RingObserver;
        let mut node: GossipNode<Tagged, NoSemantics, RecentCache, RingObserver> =
            GossipNode::with_observer(
                NodeId::new(0),
                vec![NodeId::new(1)],
                GossipConfig::default(),
                NoSemantics,
                RecentCache::new(64),
                RingObserver::with_capacity(32),
            );
        node.broadcast(Tagged(5));
        // Forwarded (received) messages keep their origin's tag: no re-tag.
        node.on_receive(NodeId::new(1), Tagged(6));
        let events = node.observer_mut().drain();
        let tags: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.event {
                Event::WireTagged {
                    msg,
                    kind,
                    instance,
                    origin,
                    seq,
                    ..
                } => Some((*msg, kind.clone(), *instance, *origin, *seq)),
                _ => None,
            })
            .collect();
        assert_eq!(
            tags,
            vec![(
                Tagged(5).message_id().trace_id(),
                "Test".to_string(),
                5,
                9,
                6
            )]
        );
    }

    #[test]
    fn queue_lag_tracks_busy_periods() {
        use obs::RingObserver;
        let mut node: GossipNode<Msg, NoSemantics, RecentCache, RingObserver> =
            GossipNode::with_observer(
                NodeId::new(0),
                vec![NodeId::new(1), NodeId::new(2)],
                GossipConfig::default(),
                NoSemantics,
                RecentCache::new(64),
                RingObserver::with_capacity(64),
            );
        assert!(node.queue_lags().is_empty());
        node.set_clock(100);
        node.broadcast(Msg(1));
        node.set_clock(350);
        // Still busy since 100 on both peer queues.
        assert_eq!(
            node.queue_lags(),
            vec![(NodeId::new(1), 250), (NodeId::new(2), 250)]
        );
        node.sample_gauges();
        let events = node.observer_mut().drain();
        let lags: Vec<(u32, u64)> = events
            .iter()
            .filter_map(|e| match e.event {
                Event::QueueLagSampled { peer, lag_ns, .. } => Some((peer, lag_ns)),
                _ => None,
            })
            .collect();
        assert_eq!(lags, vec![(1, 250), (2, 250)]);
        // Draining ends the busy period; the next enqueue restarts it.
        node.take_outgoing();
        assert!(node.queue_lags().is_empty());
        node.set_clock(400);
        node.broadcast(Msg(2));
        node.set_clock(450);
        assert_eq!(
            node.queue_lags(),
            vec![(NodeId::new(1), 50), (NodeId::new(2), 50)]
        );
    }

    #[test]
    fn gauges_track_queues_and_cache() {
        use obs::RingObserver;
        let mut node: GossipNode<Msg, NoSemantics, RecentCache, RingObserver> =
            GossipNode::with_observer(
                NodeId::new(0),
                vec![NodeId::new(1), NodeId::new(2)],
                GossipConfig::default(),
                NoSemantics,
                RecentCache::new(64),
                RingObserver::with_capacity(64),
            );
        node.broadcast(Msg(1));
        node.on_receive(NodeId::new(1), Msg(2));
        assert_eq!(
            node.send_queue_depths(),
            vec![(NodeId::new(1), 1), (NodeId::new(2), 2)]
        );
        assert_eq!(node.max_send_queue_depth(), 2);
        assert_eq!(node.cache_occupancy(), 2);
        assert_eq!(node.delivery_queue_depth(), 2);
        node.sample_gauges();
        let events = node.observer_mut().drain();
        let depths: Vec<(u32, u64)> = events
            .iter()
            .filter_map(|e| match e.event {
                Event::QueueDepthSampled { peer, depth, .. } => Some((peer, depth)),
                _ => None,
            })
            .collect();
        assert_eq!(depths, vec![(1, 1), (2, 2)]);
        assert!(events
            .iter()
            .any(|e| matches!(e.event, Event::CacheOccupancySampled { entries: 2, .. })));
        node.take_outgoing();
        assert_eq!(node.max_send_queue_depth(), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Reference model: which ids a node must deliver and forward.
        #[derive(Debug, Clone, Copy)]
        enum Op {
            Broadcast(u64),
            Receive { from: u32, id: u64 },
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u64..40).prop_map(Op::Broadcast),
                (1u32..5, 0u64..40).prop_map(|(from, id)| Op::Receive { from, id }),
            ]
        }

        proptest! {
            /// Against a reference model: each distinct id is delivered
            /// exactly once, and every delivery is forwarded to every peer
            /// except the origin — regardless of the op sequence.
            #[test]
            fn prop_node_matches_reference_model(ops in proptest::collection::vec(arb_op(), 1..60)) {
                let peers: Vec<NodeId> = (1..5).map(NodeId::new).collect();
                let mut node: GossipNode<Msg> =
                    GossipNode::classic(NodeId::new(0), peers.clone(), GossipConfig::default());
                let mut seen = std::collections::HashSet::new();
                let mut expected_deliveries = Vec::new();
                let mut expected_sends = 0usize;
                for op in ops {
                    match op {
                        Op::Broadcast(id) => {
                            node.broadcast(Msg(id));
                            if seen.insert(id) {
                                expected_deliveries.push(id);
                                expected_sends += peers.len();
                            }
                        }
                        Op::Receive { from, id } => {
                            node.on_receive(NodeId::new(from), Msg(id));
                            if seen.insert(id) {
                                expected_deliveries.push(id);
                                expected_sends += peers.len() - 1;
                            }
                        }
                    }
                }
                let delivered: Vec<u64> =
                    node.take_deliveries().into_iter().map(|m| m.0).collect();
                prop_assert_eq!(delivered, expected_deliveries);
                prop_assert_eq!(node.take_outgoing().len(), expected_sends);
            }
        }
    }

    #[test]
    fn fanout_shares_one_payload_across_queues() {
        let mut node = node_with_peers(3);
        node.broadcast(Msg(1));
        // One delivery enqueue + three peer enqueues, all by handle.
        assert_eq!(node.stats().shared_enqueues.get(), 4);
        assert_eq!(node.stats().drain_clones.get(), 0);
        let shared = node.take_outgoing_shared();
        assert_eq!(shared.len(), 3);
        // Every peer's entry aliases the same allocation: zero-copy fan-out.
        assert!(Arc::ptr_eq(&shared[0].1, &shared[1].1));
        assert!(Arc::ptr_eq(&shared[1].1, &shared[2].1));
        assert_eq!(node.stats().drain_clones.get(), 0);
        // The delivery queue still aliases it, so the owned drain clones
        // exactly once (the three shared handles above keep it alive).
        assert_eq!(node.take_deliveries(), vec![Msg(1)]);
        assert_eq!(node.stats().drain_clones.get(), 1);
        assert_eq!(node.stats().clones_avoided(), 3);
    }

    #[test]
    fn owned_drain_unwraps_last_handle_for_free() {
        let mut node = node_with_peers(2);
        node.broadcast(Msg(7));
        // 3 handles (delivery + 2 peers). Draining deliveries first clones
        // (peers still alias); the final peer drain moves the payload out.
        assert_eq!(node.take_deliveries(), vec![Msg(7)]);
        assert_eq!(node.stats().drain_clones.get(), 1);
        assert_eq!(node.take_outgoing().len(), 2);
        assert_eq!(node.stats().drain_clones.get(), 2);
        assert_eq!(node.stats().shared_enqueues.get(), 3);
        assert_eq!(node.stats().clones_avoided(), 1);
    }

    #[test]
    fn into_variants_agree_with_allocating_drains() {
        let mut a = node_with_peers(3);
        let mut b = node_with_peers(3);
        for v in [1u64, 2, 3] {
            a.broadcast(Msg(v));
            b.broadcast(Msg(v));
            a.on_receive(NodeId::new(2), Msg(v + 10));
            b.on_receive(NodeId::new(2), Msg(v + 10));
        }
        let mut deliveries = Vec::new();
        let mut outgoing = Vec::new();
        b.take_deliveries_into(&mut deliveries);
        b.take_outgoing_into(&mut outgoing);
        assert_eq!(deliveries, a.take_deliveries());
        assert_eq!(outgoing, a.take_outgoing());
        // The scratch buffers keep their capacity and append on reuse.
        let cap = outgoing.capacity();
        outgoing.clear();
        deliveries.clear();
        b.broadcast(Msg(99));
        b.take_deliveries_into(&mut deliveries);
        b.take_outgoing_into(&mut outgoing);
        assert_eq!(deliveries, vec![Msg(99)]);
        assert_eq!(outgoing.len(), 3);
        assert!(outgoing.capacity() >= cap);
    }

    #[test]
    fn filtered_messages_are_never_deep_cloned() {
        // Odd payloads are filtered on the send path; with shared fan-out
        // the filtered copies must not cost a clone either.
        let mut node = semantic_node(3);
        node.broadcast(Msg(3));
        assert!(node.take_outgoing().is_empty());
        assert_eq!(node.stats().filtered.get(), 3);
        // Only the delivery drain can clone; queues dropped their handles.
        assert_eq!(node.take_deliveries(), vec![Msg(3)]);
        assert_eq!(node.stats().drain_clones.get(), 0);
    }

    #[test]
    fn shared_drain_aggregates_like_owned_drain() {
        let mut owned = semantic_node(2);
        let mut shared = semantic_node(2);
        for v in [2u64, 4, 6] {
            owned.broadcast(Msg(v));
            shared.broadcast(Msg(v));
        }
        let owned_out = owned.take_outgoing();
        let shared_out: Vec<(NodeId, Msg)> = shared
            .take_outgoing_shared()
            .into_iter()
            .map(|(p, m)| (p, (*m).clone()))
            .collect();
        assert_eq!(owned_out, shared_out);
        assert_eq!(
            owned.stats().aggregated_away.get(),
            shared.stats().aggregated_away.get()
        );
    }

    /// A message with an explicit aggregation class (`None`: never merges).
    #[derive(Clone, Debug, PartialEq)]
    struct Classed {
        id: u64,
        class: Option<u64>,
    }

    impl GossipItem for Classed {
        fn message_id(&self) -> MessageId {
            MessageId::from_u128(self.id as u128)
        }
        fn wire_size(&self) -> usize {
            8
        }
        fn aggregation_key(&self) -> Option<u64> {
            self.class
        }
    }

    /// Sums the ids of each class into its first member, like the Paxos
    /// rules merge voters; records what it was handed.
    #[derive(Default)]
    struct SumPerClass {
        handed: Vec<Vec<u64>>,
    }

    impl Semantics<Classed> for SumPerClass {
        fn aggregate(&mut self, pending: Vec<Classed>, _peer: NodeId) -> Vec<Classed> {
            self.handed.push(pending.iter().map(|m| m.id).collect());
            let mut out: Vec<Classed> = Vec::new();
            for msg in pending {
                match out.iter_mut().find(|m| m.class == msg.class) {
                    Some(first) => first.id += msg.id,
                    None => out.push(msg),
                }
            }
            out
        }
    }

    fn classed(id: u64, class: Option<u64>) -> Classed {
        Classed { id, class }
    }

    #[test]
    fn only_mergeable_messages_leave_their_shared_handle() {
        let peers: Vec<NodeId> = (1..=3).map(NodeId::new).collect();
        let mut node = GossipNode::new(
            NodeId::new(0),
            peers,
            GossipConfig::default(),
            SumPerClass::default(),
        );
        for msg in [
            classed(1, Some(7)),
            classed(2, None),
            classed(4, Some(9)),
            classed(8, Some(7)),
            classed(16, Some(7)),
        ] {
            node.broadcast(msg);
        }
        node.take_deliveries();
        let delivery_clones = node.stats().drain_clones.get();
        let out = node.take_outgoing_shared();
        // Per peer: the class-7 aggregate where its first member stood,
        // then the two loners in place.
        let ids: Vec<(u32, u64)> = out.iter().map(|(p, m)| (p.as_u32(), m.id)).collect();
        let per_peer = [25, 2, 4];
        let expected: Vec<(u32, u64)> = (1..=3)
            .flat_map(|p| per_peer.iter().map(move |&id| (p, id)))
            .collect();
        assert_eq!(ids, expected);
        // The loners still alias one allocation across all three peers...
        for at in [1, 2] {
            assert!(Arc::ptr_eq(&out[at].1, &out[at + 3].1));
            assert!(Arc::ptr_eq(&out[at].1, &out[at + 6].1));
        }
        // ...the aggregates are per-peer products.
        assert!(!Arc::ptr_eq(&out[0].1, &out[3].1));
        // Only the class with two or more members was handed over, and
        // only its members were cloned (the last peer unwraps for free).
        assert_eq!(node.semantics().handed, vec![vec![1, 8, 16]; 3]);
        assert_eq!(node.stats().drain_clones.get() - delivery_clones, 6);
        assert_eq!(node.stats().aggregated_away.get(), 6);
        assert_eq!(node.stats().sent.get(), 9);
    }

    #[test]
    fn queues_without_a_repeated_class_skip_the_hook() {
        let mut node = GossipNode::new(
            NodeId::new(0),
            vec![NodeId::new(1), NodeId::new(2)],
            GossipConfig::default(),
            SumPerClass::default(),
        );
        node.broadcast(classed(1, Some(7)));
        node.broadcast(classed(2, Some(9)));
        node.broadcast(classed(3, None));
        node.take_deliveries();
        let delivery_clones = node.stats().drain_clones.get();
        let out = node.take_outgoing_shared();
        assert_eq!(out.len(), 6);
        assert!(node.semantics().handed.is_empty());
        assert_eq!(node.stats().drain_clones.get(), delivery_clones);
        for at in 0..3 {
            assert!(Arc::ptr_eq(&out[at].1, &out[at + 3].1));
        }
    }

    #[test]
    fn interleaved_classes_keep_first_occurrence_order() {
        let mut node = GossipNode::new(
            NodeId::new(0),
            vec![NodeId::new(1)],
            GossipConfig::default(),
            SumPerClass::default(),
        );
        // a b x a b  →  (a+a) (b+b) x
        for msg in [
            classed(1, Some(1)),
            classed(10, Some(2)),
            classed(100, None),
            classed(2, Some(1)),
            classed(20, Some(2)),
        ] {
            node.broadcast(msg);
        }
        let ids: Vec<u64> = node
            .take_outgoing()
            .into_iter()
            .map(|(_, m)| m.id)
            .collect();
        assert_eq!(ids, vec![3, 30, 100]);
    }

    #[test]
    fn disaggregation_expands_and_dedups_parts() {
        let mut node = semantic_node(2);
        node.on_receive(NodeId::new(1), Msg(1042));
        // Parts: Msg(42), Msg(1000); both fresh and delivered.
        assert_eq!(node.take_deliveries(), vec![Msg(42), Msg(1000)]);
        assert_eq!(node.stats().received.get(), 1);
        assert_eq!(node.stats().received_parts.get(), 2);
        // Receiving an aggregate overlapping in parts dedups per part.
        node.on_receive(NodeId::new(2), Msg(2000)); // parts: 1000 (dup), 1000 (dup)
        assert_eq!(node.stats().duplicates.get(), 2);
        assert!(node.take_deliveries().is_empty());
    }
}
