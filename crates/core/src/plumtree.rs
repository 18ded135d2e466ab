//! Plumtree-style eager/lazy dissemination: epidemic broadcast trees.
//!
//! Pure push gossip (the [`GossipNode`](crate::GossipNode)) resends every
//! full payload to every peer, so a message crosses each overlay link once
//! per direction and most receptions are duplicates — roughly `fanout`
//! bytes on the wire per byte encoded. Epidemic broadcast trees (Leitão,
//! Pereira, Rodrigues, *Plumtree*, SRDS '07; see also OPTIMUMP2P in
//! PAPERS.md) keep gossip's fault tolerance at near-1× payload cost by
//! splitting each node's peers into two sets:
//!
//! * **eager** peers receive the full payload immediately ([`Packet::Payload`]),
//! * **lazy** peers receive a compact batched announcement of message ids
//!   ([`Packet::IHave`]).
//!
//! # A tree per broadcast source
//!
//! Plumtree's original setting is a single broadcast root, where one shared
//! eager set per node converges to one spanning tree. Consensus traffic is
//! different: *every* process broadcasts concurrently (2b votes from each
//! acceptor, 2a/1a from the coordinator), and the best spanning tree for
//! one root is a cycle for another. With one shared eager set the prune
//! decisions of different sources fight each other — an edge that is
//! redundant for source A is the tree edge for source B — and the mesh
//! churns forever. This node therefore keeps the eager/lazy split **per
//! `(peer, source)`**: each payload carries the id of the node that
//! originally broadcast it, and a duplicate only demotes the delivering
//! link *for that source's tree*. Each source's tree then converges
//! independently under classic single-source Plumtree dynamics and the
//! forest is stable — in steady state a message travels exactly `n-1`
//! links.
//!
//! Every link starts eager for every source; the first duplicate a node
//! receives over an eager link demotes it for the duplicate's source
//! ([`Packet::Prune`]), so each source's eager subgraph converges to a
//! spanning tree along which that source's payloads travel exactly once.
//! When an announced id fails to arrive before a timer, the node requests
//! it from an announcer ([`Packet::IWant`]); a lazy link that delivers a
//! missed payload is promoted back into the missed message's tree
//! ([`Packet::Graft`]), repairing partitions and crashed branches.
//!
//! Like [`GossipNode`](crate::GossipNode), the [`EagerLazyNode`] is
//! *sans-IO*: the runtime feeds it [`EagerLazyNode::broadcast`] /
//! [`EagerLazyNode::on_packet`] calls, advances its clock with
//! [`EagerLazyNode::set_clock`] + [`EagerLazyNode::on_timer`], and drains
//! [`EagerLazyNode::take_outgoing`] / [`EagerLazyNode::take_deliveries`].
//! Payloads fan out as `Arc`-shared encode-once handles (PR 3), and IHAVE
//! announcements carry the 64-bit [`MessageId::trace_id`] fold — 8 bytes
//! per id.
//!
//! # Announcements leave in batches
//!
//! The ids owed to a peer wait in a per-peer batch that leaves as **one**
//! IHAVE frame when it is due: an eighth of `ihave_timeout_ns` after its
//! first id, or at once when it holds `max_ihave_batch` ids. A frame costs
//! the receiver the same CPU whatever its size, so one frame per peer per
//! deadline instead of one per drain is what keeps announcements cheap.
//!
//! The frame carries two lists. *Announced* ids went lazily: the receiver
//! waits the full `ihave_timeout_ns` for an eager copy from elsewhere
//! before it asks. *Pushed* ids are the loss-detection echo of payloads
//! this link carried eagerly. Such a payload left no later than the batch
//! that names it, on the same link, so a pushed id the receiver still
//! lacks was most likely lost: it is requested after a grace of the same
//! eighth of `ihave_timeout_ns`, which need only cover the link jitter
//! that lets a frame overtake its predecessor.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use obs::{Event, NoopObserver, Observer};

use crate::cache::{DuplicateFilter, RecentCache};
use crate::codec::{Reader, Wire, WireError};
use crate::config::GossipConfig;
use crate::id::NodeId;
use crate::node::{unwrap_or_clone, GossipItem};
use crate::stats::{MessageStats, Stat};

/// Class label of IHAVE control frames in ledgers and traces.
pub const CLASS_IHAVE: &str = "IHAVE";
/// Class label of IWANT control frames in ledgers and traces.
pub const CLASS_IWANT: &str = "IWANT";
/// Class label of GRAFT control frames in ledgers and traces.
pub const CLASS_GRAFT: &str = "GRAFT";
/// Class label of PRUNE control frames in ledgers and traces.
pub const CLASS_PRUNE: &str = "PRUNE";

/// Every control class, for iteration in reports.
pub const CONTROL_CLASSES: [&str; 4] = [CLASS_IHAVE, CLASS_IWANT, CLASS_GRAFT, CLASS_PRUNE];

/// One wire packet of the eager/lazy substrate.
///
/// Payloads carry the consensus message unchanged plus the 4-byte id of
/// its broadcast source (the root of the tree it travels); control packets
/// carry 64-bit announce ids
/// ([`MessageId::trace_id`](crate::MessageId::trace_id) folds of the full
/// 128-bit message id — 8 bytes on the wire instead of 16, at
/// Bloom-filter-grade collision odds the paper already accepts for
/// duplicate suppression). PRUNE and GRAFT name the source whose tree
/// they edit.
#[derive(Debug, Clone, PartialEq)]
pub enum Packet<M> {
    /// A full consensus message and the node id that broadcast it, pushed
    /// along a link that is eager for that source (or served in response
    /// to an IWANT/GRAFT request).
    Payload(u32, M),
    /// Batched announcement: "I have the messages with these ids". The
    /// ids in `pushed` also went to the receiver as payloads over this
    /// link (the loss-detection echo); those in `announced` did not.
    IHave {
        /// Ids this link carried eagerly.
        pushed: Vec<u64>,
        /// Ids announced lazily.
        announced: Vec<u64>,
    },
    /// Request for the payloads of these announced-but-missing ids.
    IWant(Vec<u64>),
    /// Promote the sending link into this source's tree; any carried ids
    /// are also payload requests (served like an IWANT).
    Graft(u32, Vec<u64>),
    /// Demote the sending link from this source's tree: stop eager-pushing
    /// that source's payloads to me.
    Prune(u32),
}

/// Per-packet framing overhead: a 1-byte discriminant.
const PACKET_HEADER: usize = 1;
/// Bytes of the broadcast-source id carried by payloads, PRUNEs and GRAFTs.
pub const SOURCE_BYTES: usize = 4;
/// Id-list framing: a 2-byte count, then 8 bytes per id.
const IDLIST_HEADER: usize = 2;
/// Bytes per announce id on the wire.
pub const ANNOUNCE_ID_BYTES: usize = 8;

impl<M: GossipItem> Packet<M> {
    /// Encoded size in bytes (header + body), the unit of all byte
    /// accounting for this substrate.
    pub fn wire_size(&self) -> usize {
        match self {
            Packet::Payload(_, m) => PACKET_HEADER + SOURCE_BYTES + m.wire_size(),
            Packet::IHave { pushed, announced } => {
                PACKET_HEADER
                    + 2 * IDLIST_HEADER
                    + ANNOUNCE_ID_BYTES * (pushed.len() + announced.len())
            }
            Packet::IWant(ids) => PACKET_HEADER + IDLIST_HEADER + ANNOUNCE_ID_BYTES * ids.len(),
            Packet::Graft(_, ids) => {
                PACKET_HEADER + SOURCE_BYTES + IDLIST_HEADER + ANNOUNCE_ID_BYTES * ids.len()
            }
            Packet::Prune(_) => PACKET_HEADER + SOURCE_BYTES,
        }
    }

    /// Ledger/trace class of this packet: `None` for payloads (classed by
    /// the inner message's own kind), the control-class constant otherwise.
    pub fn control_class(&self) -> Option<&'static str> {
        match self {
            Packet::Payload(_, _) => None,
            Packet::IHave { .. } => Some(CLASS_IHAVE),
            Packet::IWant(_) => Some(CLASS_IWANT),
            Packet::Graft(_, _) => Some(CLASS_GRAFT),
            Packet::Prune(_) => Some(CLASS_PRUNE),
        }
    }
}

const TAG_PAYLOAD: u8 = 0;
const TAG_IHAVE: u8 = 1;
const TAG_IWANT: u8 = 2;
const TAG_GRAFT: u8 = 3;
const TAG_PRUNE: u8 = 4;

fn put_count(buf: &mut Vec<u8>, ids: &[u64]) {
    let count = u16::try_from(ids.len()).expect("id list fits its 2-byte count");
    buf.extend_from_slice(&count.to_le_bytes());
}

fn put_id_body(buf: &mut Vec<u8>, ids: &[u64]) {
    for id in ids {
        buf.extend_from_slice(&id.to_le_bytes());
    }
}

fn put_ids(buf: &mut Vec<u8>, ids: &[u64]) {
    put_count(buf, ids);
    put_id_body(buf, ids);
}

fn read_u32(r: &mut Reader<'_>) -> Result<u32, WireError> {
    let b = r.bytes(SOURCE_BYTES)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn read_count(r: &mut Reader<'_>) -> Result<usize, WireError> {
    let b = r.bytes(IDLIST_HEADER)?;
    Ok(u16::from_le_bytes([b[0], b[1]]) as usize)
}

fn ids_of(body: &[u8]) -> Vec<u64> {
    body.chunks_exact(ANNOUNCE_ID_BYTES)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

fn read_ids(r: &mut Reader<'_>) -> Result<Vec<u64>, WireError> {
    let count = read_count(r)?;
    // The slice is bounds-checked against the frame before anything is
    // allocated, so a hostile count cannot size an allocation.
    Ok(ids_of(r.bytes(count * ANNOUNCE_ID_BYTES)?))
}

/// The two lists of an IHAVE: both counts first, then both bodies, so the
/// pair of counts is checked against the frame before either list is
/// allocated.
fn read_ihave<M>(r: &mut Reader<'_>) -> Result<Packet<M>, WireError> {
    let pushed = read_count(r)?;
    let announced = read_count(r)?;
    let body = r.bytes((pushed + announced) * ANNOUNCE_ID_BYTES)?;
    let (p, a) = body.split_at(pushed * ANNOUNCE_ID_BYTES);
    Ok(Packet::IHave {
        pushed: ids_of(p),
        announced: ids_of(a),
    })
}

/// The on-wire form is exactly what [`Packet::wire_size`] accounts for:
/// fixed-width header fields, then the inner encoding for payloads.
impl<M: Wire> Wire for Packet<M> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Packet::Payload(source, m) => {
                buf.push(TAG_PAYLOAD);
                buf.extend_from_slice(&source.to_le_bytes());
                m.encode(buf);
            }
            Packet::IHave { pushed, announced } => {
                buf.push(TAG_IHAVE);
                put_count(buf, pushed);
                put_count(buf, announced);
                put_id_body(buf, pushed);
                put_id_body(buf, announced);
            }
            Packet::IWant(ids) => {
                buf.push(TAG_IWANT);
                put_ids(buf, ids);
            }
            Packet::Graft(source, ids) => {
                buf.push(TAG_GRAFT);
                buf.extend_from_slice(&source.to_le_bytes());
                put_ids(buf, ids);
            }
            Packet::Prune(source) => {
                buf.push(TAG_PRUNE);
                buf.extend_from_slice(&source.to_le_bytes());
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            TAG_PAYLOAD => Ok(Packet::Payload(read_u32(r)?, M::decode(r)?)),
            TAG_IHAVE => read_ihave(r),
            TAG_IWANT => Ok(Packet::IWant(read_ids(r)?)),
            TAG_GRAFT => Ok(Packet::Graft(read_u32(r)?, read_ids(r)?)),
            TAG_PRUNE => Ok(Packet::Prune(read_u32(r)?)),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

/// Tunables of an [`EagerLazyNode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EagerLazyConfig {
    /// Queue capacities and seen-cache size, shared with classic gossip.
    pub gossip: GossipConfig,
    /// How long an announced id may stay missing before the first IWANT
    /// fires (nanoseconds). Must exceed the typical eager-path delivery
    /// spread, or races between announcements and payloads trigger
    /// spurious requests. An eighth of it is both how long a peer's
    /// announcement batch waits to fill and the grace of a pushed id that
    /// has not arrived (see the module docs).
    pub ihave_timeout_ns: u64,
    /// Retry interval between IWANTs to successive announcers of a still
    /// missing id (nanoseconds).
    pub iwant_retry_ns: u64,
    /// Recently seen payloads retained (by announce id) to serve
    /// IWANT/GRAFT requests.
    pub payload_store_capacity: usize,
    /// Maximum announce ids per IHAVE packet; a peer's batch leaves at
    /// once when it holds this many, and longer batches split.
    pub max_ihave_batch: usize,
}

impl Default for EagerLazyConfig {
    fn default() -> Self {
        EagerLazyConfig {
            gossip: GossipConfig::default(),
            ihave_timeout_ns: 50_000_000, // 50 ms
            iwant_retry_ns: 50_000_000,   // 50 ms
            payload_store_capacity: 4096,
            max_ihave_batch: 64,
        }
    }
}

impl EagerLazyConfig {
    /// Checks the configuration for nonsensical values.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.gossip.validate()?;
        if self.ihave_timeout_ns == 0 {
            return Err("ihave_timeout_ns must be positive".into());
        }
        if self.iwant_retry_ns == 0 {
            return Err("iwant_retry_ns must be positive".into());
        }
        if self.payload_store_capacity == 0 {
            return Err("payload_store_capacity must be positive".into());
        }
        if self.max_ihave_batch == 0 {
            return Err("max_ihave_batch must be positive".into());
        }
        Ok(())
    }
}

/// Eager/lazy-specific counters, alongside the shared [`MessageStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlumtreeStats {
    /// Full payloads handed to the transport (eager pushes + request
    /// responses).
    pub eager_sent: Stat,
    /// IHAVE packets handed to the transport.
    pub ihave_packets: Stat,
    /// Announce ids carried by those IHAVE packets.
    pub ihave_entries: Stat,
    /// IWANT packets queued by the miss timer.
    pub iwant_packets: Stat,
    /// GRAFT packets queued (lazy link promoted after delivering a missed
    /// id).
    pub grafts: Stat,
    /// PRUNE packets queued (eager link demoted after delivering a
    /// duplicate).
    pub prunes: Stat,
    /// Missing announced ids recovered via the lazy path.
    pub recovered: Stat,
    /// Sources evicted from a full per-peer pruned set to admit a newer
    /// demotion (the evicted source's link silently turns eager again).
    pub pruned_evictions: Stat,
    /// Control bytes (IHAVE/IWANT/GRAFT/PRUNE) handed to the transport;
    /// payload bytes are in [`MessageStats::bytes_sent`]'s remainder.
    pub control_bytes: Stat,
    /// IWANT/GRAFT ids answered with a payload from the store.
    pub requests_served: Stat,
    /// IWANT/GRAFT ids whose payload the store no longer holds (evicted):
    /// the request goes unanswered and the requester must ask elsewhere.
    pub requests_unserved: Stat,
}

impl PlumtreeStats {
    /// Merges another node's counters into this one.
    pub fn merge(&mut self, other: &PlumtreeStats) {
        self.eager_sent += other.eager_sent;
        self.ihave_packets += other.ihave_packets;
        self.ihave_entries += other.ihave_entries;
        self.iwant_packets += other.iwant_packets;
        self.grafts += other.grafts;
        self.prunes += other.prunes;
        self.recovered += other.recovered;
        self.pruned_evictions += other.pruned_evictions;
        self.control_bytes += other.control_bytes;
        self.requests_served += other.requests_served;
        self.requests_unserved += other.requests_unserved;
    }
}

/// Bounded FIFO of recently seen payloads (and their broadcast source),
/// keyed by announce id, serving IWANT/GRAFT requests — the pull half of
/// the substrate.
#[derive(Debug)]
struct PayloadStore<M> {
    by_fold: HashMap<u64, (u32, Arc<M>)>,
    order: VecDeque<u64>,
    capacity: usize,
}

impl<M> PayloadStore<M> {
    fn new(capacity: usize) -> Self {
        PayloadStore {
            by_fold: HashMap::with_capacity(capacity.min(1024)),
            order: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
        }
    }

    fn insert(&mut self, fold: u64, source: u32, payload: Arc<M>) {
        if self.by_fold.insert(fold, (source, payload)).is_none() {
            self.order.push_back(fold);
            while self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.by_fold.remove(&old);
                }
            }
        }
    }

    fn get(&self, fold: u64) -> Option<&(u32, Arc<M>)> {
        self.by_fold.get(&fold)
    }
}

/// Bounded FIFO set of announce ids already seen, answering IHAVE checks
/// without the full 128-bit message id.
#[derive(Debug)]
struct FoldSet {
    set: HashSet<u64>,
    order: VecDeque<u64>,
    capacity: usize,
}

impl FoldSet {
    fn new(capacity: usize) -> Self {
        FoldSet {
            set: HashSet::with_capacity(capacity.min(1024)),
            order: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
        }
    }

    fn contains(&self, fold: u64) -> bool {
        self.set.contains(&fold)
    }

    fn insert(&mut self, fold: u64) {
        if self.set.insert(fold) {
            self.order.push_back(fold);
            while self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.set.remove(&old);
                }
            }
        }
    }
}

/// Tracking state of one announced-but-not-yet-received id.
#[derive(Debug)]
struct Missing {
    /// Peers that announced the id, in announcement order.
    announcers: Vec<NodeId>,
    /// Which announcer the next IWANT goes to (round-robin).
    next: usize,
    /// Clock deadline (ns) of the next IWANT.
    deadline: u64,
}

/// Announcers remembered per missing id; later announcements are dropped.
const MAX_ANNOUNCERS: usize = 8;

/// Per-peer bound on demoted sources; at the cap the smallest remembered
/// source is evicted to make room (its link flips back to eager — wasteful
/// but safe), counted in [`PlumtreeStats::pruned_evictions`].
const MAX_PRUNED_SOURCES: usize = 1024;

/// The announce ids owed to one peer, waiting for its next IHAVE frame.
#[derive(Debug, Default)]
struct Batch {
    /// Ids whose payloads this link carried eagerly.
    pushed: Vec<u64>,
    /// Ids announced lazily.
    announced: Vec<u64>,
    /// Clock value (ns) at which the batch leaves; meaningful while the
    /// batch is not empty.
    due: u64,
}

impl Batch {
    fn len(&self) -> usize {
        self.pushed.len() + self.announced.len()
    }

    fn is_empty(&self) -> bool {
        self.pushed.is_empty() && self.announced.is_empty()
    }

    fn is_due(&self, now: u64) -> bool {
        !self.is_empty() && self.due <= now
    }
}

/// One entry of a per-peer send queue.
#[derive(Debug)]
enum OutEntry<M> {
    /// Broadcast source, shared payload handle, and its wire size —
    /// computed once per broadcast (PR 3's encode-once discipline).
    Payload(u32, Arc<M>, u32),
    /// A control packet with its precomputed wire size.
    Control(Packet<M>, u32),
}

/// A sans-IO eager/lazy (Plumtree-style) gossip node maintaining one
/// broadcast tree per source (see the module docs for why consensus
/// traffic needs a forest, not a single shared tree).
///
/// Type parameters mirror [`GossipNode`](crate::GossipNode): `M` the
/// message type, `F` the [`DuplicateFilter`], `O` the [`Observer`]. There
/// is no semantics hook — eager/lazy dissemination already avoids the
/// redundant transmissions that semantic filtering/aggregation suppress,
/// and keeping payloads opaque lets the trees carry them unchanged.
///
/// A runtime drives the node with six calls:
///
/// 1. [`broadcast`](Self::broadcast) when the local consensus protocol
///    emits a message;
/// 2. [`on_packet`](Self::on_packet) when a packet arrives from a peer;
/// 3. [`set_clock`](Self::set_clock) + [`on_timer`](Self::on_timer) to
///    advance the miss-timer state machine ([`next_timer`](Self::next_timer)
///    tells the runtime when the next wakeup is due);
/// 4. [`take_outgoing`](Self::take_outgoing) to collect `(peer, packet)`
///    pairs to transmit;
/// 5. [`take_deliveries`](Self::take_deliveries) to collect messages for
///    the local consensus protocol.
#[derive(Debug)]
pub struct EagerLazyNode<M, F = RecentCache, O = NoopObserver> {
    id: NodeId,
    peers: Vec<NodeId>,
    /// Parallel to `peers`: the sources for which this link has been
    /// demoted to lazy. Absence means eager — every link starts eager for
    /// every source; PRUNEs (received, or sent on a duplicate) demote,
    /// GRAFTs and recovered misses promote.
    pruned: Vec<HashSet<u32>>,
    send_queues: Vec<VecDeque<OutEntry<M>>>,
    /// Parallel to `peers`: announce ids pending in the next IHAVE batch
    /// toward that peer.
    ihave_buf: Vec<Batch>,
    delivery: VecDeque<Arc<M>>,
    store: PayloadStore<M>,
    seen_folds: FoldSet,
    /// Announced-but-unreceived ids, by fold.
    missing: BTreeMap<u64, Missing>,
    /// `(deadline, fold)` of every `missing` entry's next IWANT: timers
    /// expire in this order, and the earliest is read without a scan.
    deadlines: BTreeSet<(u64, u64)>,
    filter: F,
    stats: MessageStats,
    pt: PlumtreeStats,
    config: EagerLazyConfig,
    clock: u64,
    observer: O,
}

impl<M: GossipItem> EagerLazyNode<M, RecentCache, NoopObserver> {
    /// Creates a node with the default exact duplicate cache and no
    /// observer.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid or `peers` contains `id` or
    /// duplicates.
    pub fn new(id: NodeId, peers: Vec<NodeId>, config: EagerLazyConfig) -> Self {
        let filter = RecentCache::new(config.gossip.recent_cache_size);
        EagerLazyNode::with_observer(id, peers, config, filter, NoopObserver)
    }
}

impl<M: GossipItem, F: DuplicateFilter, O: Observer> EagerLazyNode<M, F, O> {
    /// Creates a fully explicit node: duplicate filter and observer.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid or `peers` contains `id` or
    /// duplicates.
    pub fn with_observer(
        id: NodeId,
        peers: Vec<NodeId>,
        config: EagerLazyConfig,
        filter: F,
        observer: O,
    ) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid eager/lazy config: {e}");
        }
        assert!(!peers.contains(&id), "a node cannot be its own peer");
        let mut dedup = peers.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), peers.len(), "duplicate peer ids");
        let n = peers.len();
        EagerLazyNode {
            id,
            peers,
            pruned: vec![HashSet::new(); n],
            send_queues: (0..n).map(|_| VecDeque::new()).collect(),
            ihave_buf: (0..n).map(|_| Batch::default()).collect(),
            delivery: VecDeque::new(),
            store: PayloadStore::new(config.payload_store_capacity),
            seen_folds: FoldSet::new(config.gossip.recent_cache_size),
            missing: BTreeMap::new(),
            deadlines: BTreeSet::new(),
            filter,
            stats: MessageStats::default(),
            pt: PlumtreeStats::default(),
            config,
            clock: 0,
            observer,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// All peers, eager and lazy.
    pub fn peers(&self) -> &[NodeId] {
        &self.peers
    }

    /// Peers currently in the eager (tree) set of `source`'s broadcast
    /// tree.
    pub fn eager_peers(&self, source: NodeId) -> Vec<NodeId> {
        let s = source.as_u32();
        self.peers
            .iter()
            .zip(&self.pruned)
            .filter_map(|(&p, pruned)| (!pruned.contains(&s)).then_some(p))
            .collect()
    }

    /// Peers currently in the lazy (announcement) set of `source`'s
    /// broadcast tree.
    pub fn lazy_peers(&self, source: NodeId) -> Vec<NodeId> {
        let s = source.as_u32();
        self.peers
            .iter()
            .zip(&self.pruned)
            .filter_map(|(&p, pruned)| pruned.contains(&s).then_some(p))
            .collect()
    }

    /// Shared message accounting (received/duplicates/delivered/sent; the
    /// byte counters include control packets).
    pub fn stats(&self) -> &MessageStats {
        &self.stats
    }

    /// Eager/lazy-specific counters.
    pub fn plumtree_stats(&self) -> &PlumtreeStats {
        &self.pt
    }

    /// Shared access to the observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Exclusive access to the observer (e.g. to drain a ring).
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Advances the node's clock (nanoseconds). Timers are evaluated by
    /// [`on_timer`](Self::on_timer), not here, so runtimes control when
    /// the (possibly packet-producing) expiry work runs.
    pub fn set_clock(&mut self, now_nanos: u64) {
        self.clock = now_nanos;
    }

    /// The earliest pending miss-timer or announcement-batch deadline, if
    /// any — when the runtime should next call [`on_timer`](Self::on_timer)
    /// and then drain [`take_outgoing`](Self::take_outgoing).
    pub fn next_timer(&self) -> Option<u64> {
        let batches = self
            .ihave_buf
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| b.due);
        self.deadlines
            .first()
            .map(|&(deadline, _)| deadline)
            .into_iter()
            .chain(batches)
            .min()
    }

    /// How long an announcement batch waits to fill, and the grace of a
    /// pushed id that has not arrived: an eighth of the miss timer.
    fn batch_delay(&self) -> u64 {
        self.config.ihave_timeout_ns / 8
    }

    /// Announced ids currently missing (awaiting payload or IWANT).
    pub fn missing_count(&self) -> usize {
        self.missing.len()
    }

    /// Messages waiting for the consensus layer to collect.
    pub fn delivery_queue_depth(&self) -> usize {
        self.delivery.len()
    }

    /// Message ids currently remembered by the duplicate cache.
    pub fn cache_occupancy(&self) -> usize {
        self.filter.len()
    }

    fn peer_index(&self, peer: NodeId) -> Option<usize> {
        self.peers.iter().position(|&p| p == peer)
    }

    fn is_eager(&self, i: usize, source: u32) -> bool {
        !self.pruned[i].contains(&source)
    }

    /// Demotes `source` on peer `i`'s link. A full pruned set evicts its
    /// smallest source — deterministically: `HashSet` iteration order is
    /// randomly keyed per process, and an arbitrary victim would make
    /// simulated runs irreproducible.
    fn remember_pruned(&mut self, i: usize, source: u32) {
        if self.pruned[i].len() >= MAX_PRUNED_SOURCES && !self.pruned[i].contains(&source) {
            if let Some(&victim) = self.pruned[i].iter().min() {
                self.pruned[i].remove(&victim);
                self.pt.pruned_evictions.incr();
            }
        }
        self.pruned[i].insert(source);
    }

    /// Broadcasts a message from the local consensus protocol: payload to
    /// this node's tree (it is the source), announcement to lazy peers,
    /// local delivery.
    ///
    /// Re-broadcasting a recently seen message is a no-op (duplicate).
    pub fn broadcast(&mut self, msg: M) {
        let mid = msg.message_id();
        if !self.filter.insert(mid) {
            self.stats.duplicates.incr();
            if O::ENABLED {
                self.observer.record(Event::DuplicateDropped {
                    node: self.id.as_u32(),
                    msg: mid.trace_id(),
                });
            }
            return;
        }
        self.register_fresh(self.id.as_u32(), msg, None);
    }

    /// Handles one packet received from `from`.
    pub fn on_packet(&mut self, from: NodeId, packet: Packet<M>) {
        match packet {
            Packet::Payload(source, msg) => self.on_payload(from, source, msg),
            Packet::IHave { pushed, announced } => self.on_ihave(from, &pushed, &announced),
            Packet::IWant(ids) => self.on_request(from, &ids),
            Packet::Graft(source, ids) => {
                if let Some(i) = self.peer_index(from) {
                    self.pruned[i].remove(&source);
                }
                self.on_request(from, &ids);
            }
            Packet::Prune(source) => {
                if let Some(i) = self.peer_index(from) {
                    self.remember_pruned(i, source);
                }
            }
        }
    }

    fn on_payload(&mut self, from: NodeId, source: u32, msg: M) {
        self.stats.received.incr();
        self.stats.received_parts.incr();
        let mid = msg.message_id();
        let fold = mid.trace_id();
        if O::ENABLED {
            self.observer.record(Event::GossipReceived {
                node: self.id.as_u32(),
                from: from.as_u32(),
                msg: fold,
            });
        }
        if !self.filter.insert(mid) {
            // Duplicate over a link that is eager for this source: the
            // link is a cycle edge of that source's tree — demote it for
            // this source only and tell the peer to stop.
            self.stats.duplicates.incr();
            if O::ENABLED {
                self.observer.record(Event::DuplicateDropped {
                    node: self.id.as_u32(),
                    msg: fold,
                });
            }
            if let Some(i) = self.peer_index(from) {
                if self.is_eager(i, source) {
                    self.remember_pruned(i, source);
                    self.queue_control(i, Packet::Prune(source));
                    self.pt.prunes.incr();
                    if O::ENABLED {
                        self.observer.record(Event::Prune {
                            node: self.id.as_u32(),
                            peer: from.as_u32(),
                            msg: fold,
                        });
                    }
                }
            }
            return;
        }
        // A *real* miss is one the timer acted on (an IWANT fired). An
        // armed-but-unexpired entry just means an announcement outran the
        // payload — the echo IHAVE on eager links does this routinely.
        let was_missing = self.forget_missing(fold).is_some_and(|m| m.next > 0);
        if was_missing {
            self.pt.recovered.incr();
            if let Some(i) = self.peer_index(from) {
                if !self.is_eager(i, source) {
                    // A lazy link recovered a timer-detected miss: this
                    // source's tree is broken upstream of us. Promote the
                    // link and make the promotion mutual so the peer
                    // eager-pushes the source's next messages immediately.
                    // (A fresh payload over a lazy link *without* a miss is
                    // a prune/push crossing still in flight — no promotion,
                    // or the edge flaps.)
                    self.pruned[i].remove(&source);
                    self.queue_control(i, Packet::Graft(source, Vec::new()));
                    self.pt.grafts.incr();
                    if O::ENABLED {
                        self.observer.record(Event::Graft {
                            node: self.id.as_u32(),
                            peer: from.as_u32(),
                            msg: fold,
                        });
                    }
                }
            }
        }
        self.register_fresh(source, msg, Some(from));
    }

    fn on_ihave(&mut self, from: NodeId, pushed: &[u64], announced: &[u64]) {
        // A pushed payload left `from` no later than this batch, on this
        // link: if it is still missing once the grace has covered the
        // link jitter, it was lost. An announced id may yet arrive eagerly
        // from elsewhere, so it waits the full miss timer.
        let grace = self.clock + self.batch_delay();
        for &fold in pushed {
            self.await_id(from, fold, grace);
        }
        let timeout = self.clock + self.config.ihave_timeout_ns;
        for &fold in announced {
            self.await_id(from, fold, timeout);
        }
    }

    /// Notes that `from` holds `fold`; unless it arrives first, the first
    /// IWANT fires at `deadline` (or earlier, if another announcement set
    /// an earlier one).
    fn await_id(&mut self, from: NodeId, fold: u64, deadline: u64) {
        if self.seen_folds.contains(fold) {
            return;
        }
        if let Some(m) = self.missing.get_mut(&fold) {
            if m.announcers.len() < MAX_ANNOUNCERS && !m.announcers.contains(&from) {
                m.announcers.push(from);
            }
            if m.next == 0 && deadline < m.deadline {
                self.deadlines.remove(&(m.deadline, fold));
                m.deadline = deadline;
                self.deadlines.insert((deadline, fold));
            }
        } else if self.missing.len() < self.config.payload_store_capacity {
            self.missing.insert(
                fold,
                Missing {
                    announcers: vec![from],
                    next: 0,
                    deadline,
                },
            );
            self.deadlines.insert((deadline, fold));
        }
    }

    /// Stops awaiting `fold`, returning its tracking state if it was
    /// missing.
    fn forget_missing(&mut self, fold: u64) -> Option<Missing> {
        let m = self.missing.remove(&fold)?;
        self.deadlines.remove(&(m.deadline, fold));
        Some(m)
    }

    /// Serves the payloads of `ids` (from an IWANT or GRAFT) to `from`.
    fn on_request(&mut self, from: NodeId, ids: &[u64]) {
        let Some(i) = self.peer_index(from) else {
            return;
        };
        for &fold in ids {
            let Some((source, shared)) = self.store.get(fold) else {
                self.pt.requests_unserved.incr();
                continue;
            };
            let source = *source;
            let shared = Arc::clone(shared);
            let size = (PACKET_HEADER + SOURCE_BYTES + shared.wire_size()) as u32;
            self.pt.requests_served.incr();
            self.queue_payload(i, source, shared, size);
        }
    }

    /// Fires expired miss timers in `(deadline, fold)` order: each sends
    /// one IWANT to the next announcer (round-robin) and reschedules at the
    /// retry interval. Call after [`set_clock`](Self::set_clock).
    pub fn on_timer(&mut self) {
        let now = self.clock;
        let later = self.deadlines.split_off(&(now.saturating_add(1), 0));
        let expired = std::mem::replace(&mut self.deadlines, later);
        let retry = now + self.config.iwant_retry_ns;
        for (_, fold) in expired {
            let to = {
                let m = self.missing.get_mut(&fold).expect("expired id present");
                let idx = m.next % m.announcers.len();
                m.next += 1;
                m.deadline = retry;
                m.announcers[idx]
            };
            self.deadlines.insert((retry, fold));
            if let Some(i) = self.peer_index(to) {
                self.queue_control(i, Packet::IWant(vec![fold]));
                self.pt.iwant_packets.incr();
                if O::ENABLED {
                    self.observer.record(Event::IwantSent {
                        node: self.id.as_u32(),
                        to: to.as_u32(),
                        entries: 1,
                    });
                }
            }
        }
    }

    /// Registers a fresh message: cache, store, deliver, eager-push along
    /// the source's tree links and announce to its lazy links (except the
    /// origin and the source itself).
    fn register_fresh(&mut self, source: u32, msg: M, origin: Option<NodeId>) {
        let mid = msg.message_id();
        let fold = mid.trace_id();
        self.seen_folds.insert(fold);
        self.forget_missing(fold);
        // A locally broadcast message is its causal chain's origin: tag it
        // once so traces can join the wire id to consensus state.
        if O::ENABLED && origin.is_none() {
            if let Some(tag) = msg.trace_tag() {
                self.observer.record(Event::WireTagged {
                    node: self.id.as_u32(),
                    msg: fold,
                    kind: tag.kind.to_string(),
                    instance: tag.instance,
                    origin: tag.origin,
                    seq: tag.seq,
                });
            }
        }
        let shared = Arc::new(msg);
        self.store.insert(fold, source, Arc::clone(&shared));
        if self.delivery.len() >= self.config.gossip.delivery_queue_capacity {
            self.stats.delivery_overflow.incr();
            if O::ENABLED {
                self.observer.record(Event::DeliveryQueueOverflow {
                    node: self.id.as_u32(),
                    msg: fold,
                });
            }
        } else {
            self.delivery.push_back(Arc::clone(&shared));
            self.stats.delivered.incr();
            self.stats.shared_enqueues.incr();
            if O::ENABLED {
                self.observer.record(Event::GossipDelivered {
                    node: self.id.as_u32(),
                    msg: fold,
                });
            }
        }
        let size = (PACKET_HEADER + SOURCE_BYTES + shared.wire_size()) as u32;
        let (now, delay) = (self.clock, self.batch_delay());
        for i in 0..self.peers.len() {
            // The source has its own message. Pushed back, it would arrive
            // there as a duplicate and prune the link from the source's own
            // tree: a source whose every link is pruned so can reach its
            // peers only by announcement, and a message whose few
            // announcements are all lost is never repaired.
            if Some(self.peers[i]) == origin || self.peers[i].as_u32() == source {
                continue;
            }
            let eager = self.is_eager(i, source);
            if eager {
                self.queue_payload(i, source, Arc::clone(&shared), size);
            }
            // Batch the announce id: for lazy links the only signal; for
            // eager links the loss-detection echo. Plumtree assumes
            // reliable links; over lossy ones a node whose overlay links
            // are all tree edges for this source has no lazy neighbor to
            // announce to it, so a lost eager payload would go undetected
            // forever. The echo turns it into a detected loss (grace +
            // IWANT recover it) at 8 bytes in a frame that leaves anyway.
            let batch = &mut self.ihave_buf[i];
            if batch.len() >= self.config.gossip.send_queue_capacity {
                self.stats.send_overflow.incr();
                continue;
            }
            if batch.is_empty() {
                batch.due = now + delay;
            }
            if eager {
                batch.pushed.push(fold);
            } else {
                batch.announced.push(fold);
            }
            if batch.len() >= self.config.max_ihave_batch {
                batch.due = batch.due.min(now);
            }
        }
    }

    fn queue_payload(&mut self, i: usize, source: u32, shared: Arc<M>, size: u32) {
        if self.send_queues[i].len() >= self.config.gossip.send_queue_capacity {
            self.stats.send_overflow.incr();
            if O::ENABLED {
                self.observer.record(Event::SendQueueOverflow {
                    node: self.id.as_u32(),
                    to: self.peers[i].as_u32(),
                    msg: shared.message_id().trace_id(),
                });
            }
            return;
        }
        self.stats.shared_enqueues.incr();
        self.send_queues[i].push_back(OutEntry::Payload(source, shared, size));
    }

    fn queue_control(&mut self, i: usize, packet: Packet<M>) {
        if self.send_queues[i].len() >= self.config.gossip.send_queue_capacity {
            self.stats.send_overflow.incr();
            return;
        }
        let size = packet.wire_size() as u32;
        self.send_queues[i].push_back(OutEntry::Control(packet, size));
    }

    /// Whether any packet (payload, control, or due announcement batch) is
    /// pending for the transport. A batch that is not yet due does not
    /// count: [`next_timer`](Self::next_timer) names when it will be.
    pub fn has_outgoing(&self) -> bool {
        self.send_queues.iter().any(|q| !q.is_empty())
            || self.ihave_buf.iter().any(|b| b.is_due(self.clock))
    }

    /// Drains all pending packets into `(peer, packet)` pairs, turning each
    /// due announcement batch into an IHAVE packet behind the peer's
    /// queued payloads.
    pub fn take_outgoing(&mut self) -> Vec<(NodeId, Packet<M>)> {
        let mut out = Vec::new();
        self.take_outgoing_into(&mut out);
        out
    }

    /// Like [`take_outgoing`](Self::take_outgoing), appending into a
    /// caller-owned scratch buffer.
    pub fn take_outgoing_into(&mut self, out: &mut Vec<(NodeId, Packet<M>)>) {
        for i in 0..self.peers.len() {
            // A due batch leaves as one IHAVE (split at max_ihave_batch)
            // queued behind this drain's payloads, so no pushed id leaves
            // before its payload.
            while self.ihave_buf[i].is_due(self.clock) {
                let max = self.config.max_ihave_batch;
                let batch = &mut self.ihave_buf[i];
                let p = batch.pushed.len().min(max);
                let a = batch.announced.len().min(max - p);
                let pushed: Vec<u64> = batch.pushed.drain(..p).collect();
                let announced: Vec<u64> = batch.announced.drain(..a).collect();
                let entries = (p + a) as u64;
                self.pt.ihave_packets.incr();
                self.pt.ihave_entries.add(entries);
                if O::ENABLED {
                    self.observer.record(Event::IhaveSent {
                        node: self.id.as_u32(),
                        to: self.peers[i].as_u32(),
                        entries,
                    });
                }
                self.queue_control(i, Packet::IHave { pushed, announced });
            }
            while let Some(entry) = self.send_queues[i].pop_front() {
                match entry {
                    OutEntry::Payload(source, shared, size) => {
                        self.stats.sent.incr();
                        self.stats.bytes_sent.add(size as u64);
                        self.pt.eager_sent.incr();
                        if O::ENABLED {
                            self.observer.record(Event::EagerSent {
                                node: self.id.as_u32(),
                                to: self.peers[i].as_u32(),
                                msg: shared.message_id().trace_id(),
                            });
                        }
                        let msg = unwrap_or_clone(shared, &mut self.stats.drain_clones);
                        out.push((self.peers[i], Packet::Payload(source, msg)));
                    }
                    OutEntry::Control(packet, size) => {
                        self.stats.bytes_sent.add(size as u64);
                        self.pt.control_bytes.add(size as u64);
                        out.push((self.peers[i], packet));
                    }
                }
            }
        }
    }

    /// Drains and returns the messages pending for the consensus protocol.
    pub fn take_deliveries(&mut self) -> Vec<M> {
        let mut out = Vec::with_capacity(self.delivery.len());
        self.take_deliveries_into(&mut out);
        out
    }

    /// Drains pending deliveries into `out` (appending).
    pub fn take_deliveries_into(&mut self, out: &mut Vec<M>) {
        out.reserve(self.delivery.len());
        while let Some(shared) = self.delivery.pop_front() {
            out.push(unwrap_or_clone(shared, &mut self.stats.drain_clones));
        }
    }

    /// Records one gauge snapshot per peer queue plus the cache occupancy
    /// into the observer (mirrors
    /// [`GossipNode::sample_gauges`](crate::GossipNode::sample_gauges)).
    pub fn sample_gauges(&mut self) {
        if !O::ENABLED {
            return;
        }
        let node = self.id.as_u32();
        for i in 0..self.peers.len() {
            self.observer.record(Event::QueueDepthSampled {
                node,
                peer: self.peers[i].as_u32(),
                depth: (self.send_queues[i].len() + self.ihave_buf[i].len()) as u64,
            });
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
    use crate::id::MessageId;

    #[derive(Clone, Debug, PartialEq)]
    struct Msg(u64);

    impl GossipItem for Msg {
        fn message_id(&self) -> MessageId {
            MessageId::from_u128(self.0 as u128)
        }
        fn wire_size(&self) -> usize {
            100
        }
    }

    fn fold(v: u64) -> u64 {
        MessageId::from_u128(v as u128).trace_id()
    }

    fn node_with_peers(n: u32) -> EagerLazyNode<Msg> {
        let peers = (1..=n).map(NodeId::new).collect();
        EagerLazyNode::new(NodeId::new(0), peers, EagerLazyConfig::default())
    }

    /// The source id most tests broadcast under.
    const SRC: u32 = 7;

    fn src() -> NodeId {
        NodeId::new(SRC)
    }

    /// A lazy announcement of `ids`, as a peer that did not push them sends.
    fn announce(ids: &[u64]) -> Packet<Msg> {
        Packet::IHave {
            pushed: Vec::new(),
            announced: ids.to_vec(),
        }
    }

    /// `(peer, pushed, announced)` of every IHAVE in `out`.
    fn ihaves(out: &[(NodeId, Packet<Msg>)]) -> Vec<(NodeId, Vec<u64>, Vec<u64>)> {
        out.iter()
            .filter_map(|(p, pkt)| match pkt {
                Packet::IHave { pushed, announced } => {
                    Some((*p, pushed.clone(), announced.clone()))
                }
                _ => None,
            })
            .collect()
    }

    /// Advances the clock to when batches started now are due, then drains.
    fn drain_when_due<F: DuplicateFilter, O: Observer>(
        node: &mut EagerLazyNode<Msg, F, O>,
    ) -> Vec<(NodeId, Packet<Msg>)> {
        node.set_clock(node.clock + node.batch_delay());
        node.take_outgoing()
    }

    fn payloads(out: &[(NodeId, Packet<Msg>)]) -> Vec<(NodeId, u64)> {
        out.iter()
            .filter_map(|(p, pkt)| match pkt {
                Packet::Payload(_, m) => Some((*p, m.0)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn all_links_start_eager_and_broadcast_floods() {
        let mut node = node_with_peers(3);
        assert_eq!(node.eager_peers(NodeId::new(0)).len(), 3);
        node.broadcast(Msg(1));
        assert_eq!(node.take_deliveries(), vec![Msg(1)]);
        let out = node.take_outgoing();
        assert_eq!(payloads(&out).len(), 3);
        // A local broadcast is pushed under this node's own source id.
        assert!(out
            .iter()
            .all(|(_, pkt)| !matches!(pkt, Packet::Payload(s, _) if *s != 0)));
    }

    #[test]
    fn fresh_payload_forwards_to_all_eager_but_origin() {
        let mut node = node_with_peers(3);
        node.on_packet(NodeId::new(2), Packet::Payload(SRC, Msg(5)));
        assert_eq!(node.take_deliveries(), vec![Msg(5)]);
        let out = node.take_outgoing();
        let peers: Vec<NodeId> = payloads(&out).iter().map(|&(p, _)| p).collect();
        assert_eq!(peers, vec![NodeId::new(1), NodeId::new(3)]);
        // Forwards keep the original source id.
        assert!(out
            .iter()
            .all(|(_, pkt)| !matches!(pkt, Packet::Payload(s, _) if *s != SRC)));
    }

    #[test]
    fn nothing_goes_back_to_the_source() {
        let mut node = node_with_peers(3);
        // Peer 3 broadcast it; peer 2 forwarded it here.
        node.on_packet(NodeId::new(2), Packet::Payload(3, Msg(5)));
        let mut out = node.take_outgoing();
        out.extend(drain_when_due(&mut node));
        assert_eq!(payloads(&out), vec![(NodeId::new(1), 5)]);
        assert_eq!(ihaves(&out), vec![(NodeId::new(1), vec![fold(5)], vec![])]);
    }

    #[test]
    fn duplicate_over_eager_link_prunes_it_for_that_source_only() {
        let mut node = node_with_peers(2);
        node.on_packet(NodeId::new(1), Packet::Payload(SRC, Msg(9)));
        node.take_outgoing();
        node.on_packet(NodeId::new(2), Packet::Payload(SRC, Msg(9)));
        // Peer 2's link delivered a duplicate of SRC's message: demoted
        // from SRC's tree + PRUNE sent, but still eager for other sources.
        assert_eq!(node.lazy_peers(src()), vec![NodeId::new(2)]);
        assert!(node.lazy_peers(NodeId::new(3)).is_empty());
        assert_eq!(node.plumtree_stats().prunes.get(), 1);
        let out = node.take_outgoing();
        assert!(out.contains(&(NodeId::new(2), Packet::Prune(SRC))));
        // A second duplicate over the now-lazy link does not re-prune.
        node.on_packet(NodeId::new(2), Packet::Payload(SRC, Msg(9)));
        assert_eq!(node.plumtree_stats().prunes.get(), 1);
    }

    #[test]
    fn lazy_links_get_batched_ihave_not_payload() {
        let mut node = node_with_peers(2);
        // Peer 2 pruned us from *our own* (node 0's) broadcast tree.
        node.on_packet(NodeId::new(2), Packet::Prune(0));
        assert_eq!(node.lazy_peers(NodeId::new(0)), vec![NodeId::new(2)]);
        node.broadcast(Msg(1));
        node.broadcast(Msg(2));
        let mut out = node.take_outgoing();
        out.extend(drain_when_due(&mut node));
        // Peer 1 (eager) gets both payloads; peer 2 gets one batched IHAVE.
        assert_eq!(
            payloads(&out),
            vec![(NodeId::new(1), 1), (NodeId::new(1), 2)]
        );
        // Peer 1's batch is the eager-push loss-detection echo; peer 2's
        // is its only signal.
        assert_eq!(
            ihaves(&out),
            vec![
                (NodeId::new(1), vec![fold(1), fold(2)], vec![]),
                (NodeId::new(2), vec![], vec![fold(1), fold(2)])
            ]
        );
        assert_eq!(node.plumtree_stats().ihave_packets.get(), 2);
        assert_eq!(node.plumtree_stats().ihave_entries.get(), 4);
    }

    #[test]
    fn ihave_batches_split_at_max() {
        let config = EagerLazyConfig {
            max_ihave_batch: 3,
            ..EagerLazyConfig::default()
        };
        let mut node: EagerLazyNode<Msg> =
            EagerLazyNode::new(NodeId::new(0), vec![NodeId::new(1)], config);
        node.on_packet(NodeId::new(1), Packet::Prune(0));
        for v in 0..7 {
            node.broadcast(Msg(v));
        }
        let out = node.take_outgoing();
        // A full batch is due at once, with no clock advance.
        let sizes: Vec<usize> = ihaves(&out)
            .iter()
            .map(|(_, p, a)| p.len() + a.len())
            .collect();
        assert_eq!(sizes, vec![3, 3, 1]);
    }

    #[test]
    fn unseen_ihave_arms_timer_then_iwant_fires() {
        let mut node = node_with_peers(2);
        node.set_clock(1_000);
        node.on_packet(NodeId::new(1), announce(&[fold(7)]));
        assert_eq!(node.missing_count(), 1);
        assert_eq!(
            node.next_timer(),
            Some(1_000 + EagerLazyConfig::default().ihave_timeout_ns)
        );
        // Not yet expired: no IWANT.
        node.on_timer();
        assert!(node.take_outgoing().is_empty());
        // Expired: one IWANT to the announcer.
        node.set_clock(node.next_timer().unwrap());
        node.on_timer();
        let out = node.take_outgoing();
        assert_eq!(out, vec![(NodeId::new(1), Packet::IWant(vec![fold(7)]))]);
        assert_eq!(node.plumtree_stats().iwant_packets.get(), 1);
    }

    #[test]
    fn next_timer_is_the_earliest_outstanding_miss_deadline() {
        let config = EagerLazyConfig::default();
        let (timeout, retry) = (config.ihave_timeout_ns, config.iwant_retry_ns);
        let grace = timeout / 8;
        // One peer: a payload from it goes nowhere else, so no announcement
        // batch adds a deadline of its own.
        let mut node = node_with_peers(1);
        let peer = NodeId::new(1);
        node.set_clock(1_000);
        node.on_packet(peer, announce(&[fold(1)]));
        node.set_clock(2_000);
        node.on_packet(peer, announce(&[fold(2), fold(3)]));
        assert_eq!(node.next_timer(), Some(1_000 + timeout));
        // The earliest id's payload arrives: the next one is due next.
        node.on_packet(peer, Packet::Payload(SRC, Msg(1)));
        assert_eq!(node.next_timer(), Some(2_000 + timeout));
        // A pushed echo re-announces id 3 with an earlier deadline.
        node.set_clock(3_000);
        node.on_packet(
            peer,
            Packet::IHave {
                pushed: vec![fold(3)],
                announced: vec![],
            },
        );
        assert_eq!(node.next_timer(), Some(3_000 + grace));
        // Once asked for, id 3 waits a retry: id 2 is the earliest again.
        node.set_clock(3_000 + grace);
        node.on_timer();
        assert_eq!(
            node.take_outgoing(),
            vec![(peer, Packet::IWant(vec![fold(3)]))]
        );
        assert_eq!(node.next_timer(), Some(2_000 + timeout));
        node.set_clock(2_000 + timeout);
        node.on_timer();
        assert_eq!(
            node.take_outgoing(),
            vec![(peer, Packet::IWant(vec![fold(2)]))]
        );
        assert_eq!(node.next_timer(), Some(3_000 + grace + retry));
    }

    #[test]
    fn expired_timers_fire_in_deadline_order_and_leave_the_rest() {
        let timeout = EagerLazyConfig::default().ihave_timeout_ns;
        let mut node = node_with_peers(1);
        let peer = NodeId::new(1);
        // `first` is announced first but folds above `second`, so fold
        // order and deadline order disagree.
        let (first, second) = if fold(1) > fold(2) {
            (fold(1), fold(2))
        } else {
            (fold(2), fold(1))
        };
        node.set_clock(1_000);
        node.on_packet(peer, announce(&[first]));
        node.set_clock(2_000);
        node.on_packet(peer, announce(&[second]));
        node.set_clock(3_000);
        node.on_packet(peer, announce(&[fold(3)]));
        node.set_clock(2_000 + timeout);
        node.on_timer();
        assert_eq!(
            node.take_outgoing(),
            vec![
                (peer, Packet::IWant(vec![first])),
                (peer, Packet::IWant(vec![second]))
            ]
        );
        let unexpired = &node.missing[&fold(3)];
        assert_eq!((unexpired.next, unexpired.deadline), (0, 3_000 + timeout));
        assert_eq!(node.next_timer(), Some(3_000 + timeout));
    }

    #[test]
    fn iwant_retries_rotate_announcers() {
        let mut node = node_with_peers(3);
        node.set_clock(0);
        node.on_packet(NodeId::new(1), announce(&[fold(7)]));
        node.on_packet(NodeId::new(2), announce(&[fold(7)]));
        // Two announcers, one missing entry.
        assert_eq!(node.missing_count(), 1);
        let mut targets = Vec::new();
        for _ in 0..3 {
            node.set_clock(node.next_timer().unwrap());
            node.on_timer();
            for (p, pkt) in node.take_outgoing() {
                if matches!(pkt, Packet::IWant(_)) {
                    targets.push(p.as_u32());
                }
            }
        }
        assert_eq!(targets, vec![1, 2, 1]);
    }

    #[test]
    fn seen_ihave_is_ignored() {
        let mut node = node_with_peers(2);
        node.broadcast(Msg(3));
        node.on_packet(NodeId::new(1), announce(&[fold(3)]));
        assert_eq!(node.missing_count(), 0);
    }

    #[test]
    fn iwant_is_served_from_the_payload_store() {
        let mut node = node_with_peers(2);
        node.broadcast(Msg(4));
        node.take_outgoing();
        node.on_packet(NodeId::new(2), Packet::IWant(vec![fold(4)]));
        let out = node.take_outgoing();
        assert_eq!(payloads(&out), vec![(NodeId::new(2), 4)]);
        // Served payloads carry their original broadcast source.
        assert!(out
            .iter()
            .any(|(_, pkt)| matches!(pkt, Packet::Payload(0, _))));
        // Unknown ids are ignored.
        node.on_packet(NodeId::new(2), Packet::IWant(vec![fold(99)]));
        assert!(node.take_outgoing().is_empty());
    }

    #[test]
    fn recovery_promotes_and_grafts_the_lazy_link() {
        let mut node = node_with_peers(2);
        node.on_packet(NodeId::new(2), Packet::Prune(SRC));
        node.set_clock(0);
        node.on_packet(NodeId::new(2), announce(&[fold(8)]));
        node.set_clock(node.next_timer().unwrap());
        node.on_timer();
        node.take_outgoing(); // the IWANT
        node.on_packet(NodeId::new(2), Packet::Payload(SRC, Msg(8)));
        // The lazy link recovered the miss: promoted back into SRC's tree
        // + mutual GRAFT.
        assert!(node.eager_peers(src()).contains(&NodeId::new(2)));
        assert_eq!(node.plumtree_stats().recovered.get(), 1);
        assert_eq!(node.plumtree_stats().grafts.get(), 1);
        let out = node.take_outgoing();
        assert!(out.contains(&(NodeId::new(2), Packet::Graft(SRC, vec![]))));
        assert_eq!(node.take_deliveries(), vec![Msg(8)]);
        assert_eq!(node.missing_count(), 0);
    }

    #[test]
    fn fresh_payload_from_lazy_link_does_not_promote() {
        // A fresh payload over a lazy link *without* a timer-detected miss
        // is a prune/push crossing still in flight: deliver and forward,
        // but leave the link lazy — promoting here makes the edge flap
        // (promote, duplicate, prune, promote, ...). Only recovered misses
        // promote (see recovery_promotes_and_grafts_the_lazy_link).
        let mut node = node_with_peers(2);
        node.on_packet(NodeId::new(2), Packet::Prune(SRC));
        node.on_packet(NodeId::new(2), Packet::Payload(SRC, Msg(6)));
        assert_eq!(node.lazy_peers(src()), vec![NodeId::new(2)]);
        assert_eq!(node.plumtree_stats().grafts.get(), 0);
        assert_eq!(node.take_deliveries(), vec![Msg(6)]);
        // Still forwarded to the other (eager) peer.
        assert_eq!(payloads(&node.take_outgoing()), vec![(NodeId::new(1), 6)]);
    }

    #[test]
    fn graft_promotes_and_serves_requested_ids() {
        let mut node = node_with_peers(2);
        node.broadcast(Msg(5));
        node.take_outgoing();
        node.on_packet(NodeId::new(1), Packet::Prune(0));
        assert_eq!(node.lazy_peers(NodeId::new(0)), vec![NodeId::new(1)]);
        node.on_packet(NodeId::new(1), Packet::Graft(0, vec![fold(5)]));
        assert!(node.eager_peers(NodeId::new(0)).contains(&NodeId::new(1)));
        let out = node.take_outgoing();
        assert_eq!(payloads(&out), vec![(NodeId::new(1), 5)]);
    }

    #[test]
    fn prune_is_scoped_to_its_source() {
        let mut node = node_with_peers(1);
        node.on_packet(NodeId::new(1), Packet::Prune(3));
        // Source 3's tree lost the link; source 4's still has it.
        node.on_packet(NodeId::new(99), Packet::Payload(3, Msg(1)));
        node.on_packet(NodeId::new(99), Packet::Payload(4, Msg(2)));
        let mut out = node.take_outgoing();
        out.extend(drain_when_due(&mut node));
        assert_eq!(payloads(&out), vec![(NodeId::new(1), 2)]);
        assert_eq!(ihaves(&out).len(), 1);
    }

    #[test]
    fn packet_wire_sizes() {
        let p: Packet<Msg> = Packet::Payload(0, Msg(1));
        assert_eq!(p.wire_size(), 105);
        let p: Packet<Msg> = Packet::IHave {
            pushed: vec![1],
            announced: vec![2, 3],
        };
        assert_eq!(p.wire_size(), 1 + 2 + 2 + 24);
        assert_eq!(p.control_class(), Some(CLASS_IHAVE));
        let p: Packet<Msg> = Packet::IWant(vec![1]);
        assert_eq!(p.wire_size(), 11);
        let p: Packet<Msg> = Packet::Graft(0, vec![1]);
        assert_eq!(p.wire_size(), 1 + 4 + 2 + 8);
        let p: Packet<Msg> = Packet::Prune(0);
        assert_eq!(p.wire_size(), 5);
        assert_eq!(p.control_class(), Some(CLASS_PRUNE));
        let p: Packet<Msg> = Packet::Payload(0, Msg(1));
        assert_eq!(p.control_class(), None);
    }

    #[test]
    fn byte_counters_cover_payload_and_control() {
        let mut node = node_with_peers(2);
        node.on_packet(NodeId::new(2), Packet::Prune(0));
        node.broadcast(Msg(1));
        node.take_outgoing();
        drain_when_due(&mut node);
        // One payload (105 B) plus its echo IHAVE (1+2+2+8 B) to peer 1,
        // one IHAVE (13 B) to peer 2.
        assert_eq!(node.stats().bytes_sent.get(), 105 + 13 + 13);
        assert_eq!(node.plumtree_stats().control_bytes.get(), 26);
        assert_eq!(node.stats().sent.get(), 1);
        assert_eq!(node.plumtree_stats().eager_sent.get(), 1);
    }

    #[test]
    fn store_eviction_bounds_served_history() {
        let config = EagerLazyConfig {
            payload_store_capacity: 2,
            ..EagerLazyConfig::default()
        };
        let mut node: EagerLazyNode<Msg> =
            EagerLazyNode::new(NodeId::new(0), vec![NodeId::new(1)], config);
        for v in 0..3 {
            node.broadcast(Msg(v));
        }
        node.take_outgoing();
        // Msg(0) was evicted; only 1 and 2 can still be served.
        node.on_packet(
            NodeId::new(1),
            Packet::IWant(vec![fold(0), fold(1), fold(2)]),
        );
        let served: Vec<u64> = payloads(&node.take_outgoing())
            .iter()
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(served, vec![1, 2]);
    }

    #[test]
    fn rebroadcast_is_duplicate() {
        let mut node = node_with_peers(1);
        node.broadcast(Msg(1));
        node.broadcast(Msg(1));
        assert_eq!(node.stats().duplicates.get(), 1);
        assert_eq!(node.take_deliveries().len(), 1);
    }

    #[test]
    fn unknown_peer_payload_is_delivered_and_forwarded() {
        let mut node = node_with_peers(2);
        node.on_packet(NodeId::new(99), Packet::Payload(SRC, Msg(1)));
        assert_eq!(node.take_deliveries(), vec![Msg(1)]);
        assert_eq!(payloads(&node.take_outgoing()).len(), 2);
    }

    #[test]
    fn observer_sees_protocol_events() {
        use obs::RingObserver;
        let mut node: EagerLazyNode<Msg, RecentCache, RingObserver> = EagerLazyNode::with_observer(
            NodeId::new(0),
            vec![NodeId::new(1), NodeId::new(2)],
            EagerLazyConfig::default(),
            RecentCache::new(64),
            RingObserver::with_capacity(128),
        );
        node.observer_mut().set_now(5);
        node.on_packet(NodeId::new(2), Packet::Prune(0));
        node.broadcast(Msg(1));
        node.take_outgoing();
        drain_when_due(&mut node);
        node.on_packet(NodeId::new(1), Packet::Payload(0, Msg(1))); // dup -> prune
        node.set_clock(0);
        node.on_packet(NodeId::new(1), announce(&[fold(9)]));
        node.set_clock(node.next_timer().unwrap());
        node.on_timer();
        // Drain the IWANT. Peer 1 was just pruned from source 0's tree
        // (the dup above), so its recovery of a source-0 payload
        // promotes it back: graft.
        node.take_outgoing();
        node.on_packet(NodeId::new(1), Packet::Payload(0, Msg(9)));
        node.take_outgoing();
        drain_when_due(&mut node);
        let events = node.observer_mut().drain();
        let count = |kind: &str| events.iter().filter(|e| e.event.kind() == kind).count();
        assert_eq!(count("eager_sent"), 1);
        // Msg(1)'s broadcast announces to both peers (peer 1's batch is
        // the eager echo); Msg(9)'s fresh arrival announces to peer 2.
        assert_eq!(count("ihave_sent"), 3);
        assert_eq!(count("iwant_sent"), 1);
        assert_eq!(count("prune"), 1);
        assert_eq!(count("graft"), 1);
        assert_eq!(count("gossip_delivered"), 2);
        assert_eq!(count("duplicate_dropped"), 1);
    }

    #[test]
    #[should_panic(expected = "own peer")]
    fn self_peer_panics() {
        let _: EagerLazyNode<Msg> = EagerLazyNode::new(
            NodeId::new(0),
            vec![NodeId::new(0)],
            EagerLazyConfig::default(),
        );
    }

    #[test]
    fn config_validation_rejects_zeros() {
        let c = EagerLazyConfig {
            ihave_timeout_ns: 0,
            ..EagerLazyConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("ihave_timeout_ns"));
        let c = EagerLazyConfig {
            max_ihave_batch: 0,
            ..EagerLazyConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("max_ihave_batch"));
    }

    /// Delivers every in-flight packet in deterministic rounds; returns
    /// the number of payload transmissions.
    fn run_rounds(nodes: &mut [EagerLazyNode<Msg>]) -> u64 {
        let mut payload_sends = 0u64;
        loop {
            let mut inflight = Vec::new();
            for n in nodes.iter_mut() {
                let from = n.id();
                for (to, pkt) in n.take_outgoing() {
                    if matches!(pkt, Packet::Payload(_, _)) {
                        payload_sends += 1;
                    }
                    inflight.push((from, to, pkt));
                }
            }
            if inflight.is_empty() {
                break;
            }
            for (from, to, pkt) in inflight {
                nodes[to.as_index()].on_packet(from, pkt);
            }
        }
        payload_sends
    }

    fn full_mesh(n: usize) -> Vec<EagerLazyNode<Msg>> {
        let ids: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
        (0..n)
            .map(|i| {
                let peers = ids.iter().copied().filter(|p| p.as_index() != i).collect();
                EagerLazyNode::new(ids[i], peers, EagerLazyConfig::default())
            })
            .collect()
    }

    /// Three nodes in a triangle: after one round of duplicates the eager
    /// graph of node 0's tree loses its cycle edge, and 0's second
    /// broadcast travels each tree edge exactly once with announcements
    /// on the pruned link.
    #[test]
    fn triangle_converges_to_a_tree() {
        let mut nodes = full_mesh(3);

        nodes[0].broadcast(Msg(1));
        let first = run_rounds(&mut nodes);
        // Flooding: 0 pushes to both, 1 and 2 re-push to each other (and
        // further duplicates die at the filter).
        assert!(first >= 3);
        for n in nodes.iter_mut() {
            assert_eq!(n.take_deliveries(), vec![Msg(1)]);
        }

        nodes[0].broadcast(Msg(2));
        let second = run_rounds(&mut nodes);
        // Converged: exactly n-1 = 2 payload transmissions.
        assert_eq!(second, 2);
        for n in nodes.iter_mut() {
            assert_eq!(n.take_deliveries(), vec![Msg(2)]);
        }
    }

    /// The forest property: each source's tree converges independently,
    /// so with every node broadcasting, per-source steady state is still
    /// n-1 payload transmissions — one shared tree cannot do this, since
    /// no single spanning tree is duplicate-free for all roots at once.
    #[test]
    fn per_source_trees_converge_independently() {
        let n = 5;
        let mut nodes = full_mesh(n);

        // Round 1: every node broadcasts once; trees form under dup-prune.
        for (i, node) in nodes.iter_mut().enumerate() {
            node.broadcast(Msg(100 + i as u64));
        }
        run_rounds(&mut nodes);
        for node in nodes.iter_mut() {
            assert_eq!(node.take_deliveries().len(), n);
        }

        // Round 2: converged — each source's message travels exactly its
        // own tree's n-1 edges.
        for (i, node) in nodes.iter_mut().enumerate() {
            node.broadcast(Msg(200 + i as u64));
        }
        let sends = run_rounds(&mut nodes);
        assert_eq!(sends as usize, n * (n - 1));
        for node in nodes.iter_mut() {
            assert_eq!(node.take_deliveries().len(), n);
        }
    }

    /// Regression: a full per-peer pruned set used to silently drop the
    /// newest PRUNE, leaving the link eager for that source forever. Now
    /// the smallest remembered source is evicted to admit the new one.
    #[test]
    fn prune_at_cap_evicts_oldest_instead_of_dropping() {
        let mut node = node_with_peers(1);
        let peer = NodeId::new(1);
        for source in 0..MAX_PRUNED_SOURCES as u32 {
            node.on_packet(peer, Packet::Prune(source));
        }
        assert_eq!(node.plumtree_stats().pruned_evictions.get(), 0);
        assert_eq!(node.lazy_peers(NodeId::new(0)), vec![peer]);

        // One past the cap: the new source must be demoted (not silently
        // ignored) at the cost of the smallest remembered source.
        let extra = 50_000;
        node.on_packet(peer, Packet::Prune(extra));
        assert_eq!(node.lazy_peers(NodeId::new(extra)), vec![peer]);
        assert!(node.lazy_peers(NodeId::new(0)).is_empty(), "victim evicted");
        assert_eq!(node.lazy_peers(NodeId::new(1)), vec![peer]);
        assert_eq!(node.plumtree_stats().pruned_evictions.get(), 1);

        // Re-pruning an already-demoted source at the cap is a no-op.
        node.on_packet(peer, Packet::Prune(extra));
        assert_eq!(node.plumtree_stats().pruned_evictions.get(), 1);

        // The duplicate-demote path shares the eviction policy: a dup of a
        // brand-new source over the (still eager) link prunes it too.
        let fresh = 60_000;
        node.on_packet(peer, Packet::Payload(fresh, Msg(424242)));
        node.take_outgoing();
        node.on_packet(peer, Packet::Payload(fresh, Msg(424242)));
        assert_eq!(node.lazy_peers(NodeId::new(fresh)), vec![peer]);
        assert_eq!(node.plumtree_stats().pruned_evictions.get(), 2);
    }

    impl Wire for Msg {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&[0xAB; 92]);
            buf.extend_from_slice(&self.0.to_le_bytes());
        }
        fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
            r.bytes(92)?;
            let b = r.bytes(8)?;
            Ok(Msg(u64::from_le_bytes(b.try_into().expect("8 bytes"))))
        }
    }

    #[test]
    fn packets_encode_to_their_accounted_size_and_round_trip() {
        let packets = [
            Packet::Payload(SRC, Msg(5)),
            Packet::IHave {
                pushed: vec![1, u64::MAX, 3],
                announced: vec![],
            },
            Packet::IHave {
                pushed: vec![],
                announced: vec![8],
            },
            Packet::IHave {
                pushed: vec![2],
                announced: vec![u64::MAX, 4],
            },
            Packet::IWant(vec![9]),
            Packet::Graft(SRC, vec![]),
            Packet::Graft(SRC, vec![4, 5]),
            Packet::Prune(u32::MAX),
        ];
        for packet in packets {
            let bytes = packet.to_bytes();
            assert_eq!(bytes.len(), packet.wire_size(), "{packet:?}");
            assert_eq!(Packet::<Msg>::from_bytes(&bytes).unwrap(), packet);
            // Every strict prefix is a truncated frame, never a panic.
            for cut in 0..bytes.len() {
                assert!(Packet::<Msg>::from_bytes(&bytes[..cut]).is_err());
            }
        }
        // An id count far beyond the frame is rejected before allocating.
        assert!(Packet::<Msg>::from_bytes(&[TAG_IHAVE, 0xFF, 0xFF, 1, 2, 3]).is_err());
        assert!(Packet::<Msg>::from_bytes(&[9]).is_err());
    }

    thread_local! {
        /// Allocations this thread made; per thread, so tests running in
        /// parallel do not disturb a count.
        static ALLOCATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    struct Counting;

    // SAFETY: every call is forwarded unchanged to `System`; the count
    // beside it touches only a const-initialised thread-local `Cell`, which
    // neither allocates nor unwinds.
    unsafe impl std::alloc::GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            // `try_with`: a thread tearing down has no counter left.
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
            // SAFETY: `layout` is the caller's, passed through.
            unsafe { std::alloc::System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            // SAFETY: `ptr` came from `System` with this `layout`.
            unsafe { std::alloc::System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: Counting = Counting;

    #[test]
    fn a_hostile_ihave_count_is_refused_before_any_allocation() {
        let frames: [&[u8]; 4] = [
            // The pushed count promises 65 535 ids, the frame holds one.
            &[TAG_IHAVE, 0xFF, 0xFF, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8],
            // The announced count does.
            &[TAG_IHAVE, 0, 0, 0xFF, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8],
            // Each count fits alone; together they overrun by one id.
            &[TAG_IHAVE, 1, 0, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8],
            // Both counts, no room for even the second one.
            &[TAG_IHAVE, 0xFF, 0xFF],
        ];
        for frame in frames {
            let before = ALLOCATIONS.with(|n| n.get());
            let decoded = Packet::<Msg>::from_bytes(frame);
            let allocated = ALLOCATIONS.with(|n| n.get()) - before;
            assert!(decoded.is_err(), "{frame:?} decoded to {decoded:?}");
            assert_eq!(allocated, 0, "{frame:?} allocated before it was refused");
        }
        // The counter does see a decode that allocates: both id lists.
        let frame = Packet::<Msg>::IHave {
            pushed: vec![1],
            announced: vec![2],
        }
        .to_bytes();
        let before = ALLOCATIONS.with(|n| n.get());
        assert!(Packet::<Msg>::from_bytes(&frame).is_ok());
        assert_eq!(ALLOCATIONS.with(|n| n.get()) - before, 2);
    }

    /// A node whose two peers are eager (peer 1) and lazy (peer 2) for its
    /// own broadcasts, with the clock at `now`.
    fn eager_and_lazy_peer(now: u64) -> EagerLazyNode<Msg> {
        let mut node = node_with_peers(2);
        node.on_packet(NodeId::new(2), Packet::Prune(0));
        node.set_clock(now);
        node
    }

    #[test]
    fn a_batch_never_leaves_before_it_is_due() {
        let mut node = eager_and_lazy_peer(1_000);
        let delay = node.batch_delay();
        node.broadcast(Msg(1));
        // The payload leaves now; the announcements wait for the deadline,
        // which the runtime learns from next_timer, not has_outgoing.
        assert_eq!(payloads(&node.take_outgoing()), vec![(NodeId::new(1), 1)]);
        assert!(!node.has_outgoing());
        assert_eq!(node.next_timer(), Some(1_000 + delay));
        // A later id joins the batch without moving its deadline.
        node.set_clock(1_000 + delay / 2);
        node.broadcast(Msg(2));
        node.take_outgoing();
        assert_eq!(node.next_timer(), Some(1_000 + delay));
        node.set_clock(1_000 + delay - 1);
        assert!(!node.has_outgoing());
        assert!(ihaves(&node.take_outgoing()).is_empty());
        // Due: one frame per peer with both ids.
        node.set_clock(1_000 + delay);
        assert!(node.has_outgoing());
        assert_eq!(
            ihaves(&node.take_outgoing()),
            vec![
                (NodeId::new(1), vec![fold(1), fold(2)], vec![]),
                (NodeId::new(2), vec![], vec![fold(1), fold(2)])
            ]
        );
        assert_eq!(node.next_timer(), None);
        assert!(!node.has_outgoing());
    }

    #[test]
    fn a_pushed_id_never_leaves_before_its_payload() {
        let config = EagerLazyConfig {
            max_ihave_batch: 3,
            ..EagerLazyConfig::default()
        };
        let mut node: EagerLazyNode<Msg> =
            EagerLazyNode::new(NodeId::new(0), vec![NodeId::new(1)], config);
        let delay = node.batch_delay();
        let mut payloads_sent = HashSet::new();
        let mut echoed = 0;
        // Broadcasts and drains interleave at every offset of the batch
        // deadline; full batches leave at once, in the same drain as the
        // payload that filled them.
        for v in 0..40u64 {
            node.set_clock(v * delay / 3);
            node.broadcast(Msg(v));
            if v % 2 == 0 {
                continue;
            }
            let out = node.take_outgoing();
            for (_, pkt) in &out {
                match pkt {
                    Packet::Payload(_, m) => {
                        payloads_sent.insert(fold(m.0));
                    }
                    Packet::IHave { pushed, .. } => {
                        for id in pushed {
                            assert!(payloads_sent.contains(id), "echo before payload");
                            echoed += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
        assert!(echoed > 30, "{echoed} ids echoed");
    }

    #[test]
    fn a_missing_pushed_id_waits_the_grace_an_announced_one_the_timeout() {
        let mut node = node_with_peers(2);
        let config = EagerLazyConfig::default();
        let grace = config.ihave_timeout_ns / 8;
        node.set_clock(1_000);
        node.on_packet(
            NodeId::new(1),
            Packet::IHave {
                pushed: vec![fold(1)],
                announced: vec![fold(2)],
            },
        );
        assert_eq!(node.missing_count(), 2);
        assert_eq!(node.next_timer(), Some(1_000 + grace));
        node.set_clock(1_000 + grace - 1);
        node.on_timer();
        assert!(node.take_outgoing().is_empty());
        // The pushed id was lost on the way: asked for after the grace.
        node.set_clock(1_000 + grace);
        node.on_timer();
        assert_eq!(
            node.take_outgoing(),
            vec![(NodeId::new(1), Packet::IWant(vec![fold(1)]))]
        );
        // The announced one may still come eagerly from elsewhere.
        assert_eq!(node.next_timer(), Some(1_000 + config.ihave_timeout_ns));
        node.set_clock(1_000 + config.ihave_timeout_ns - 1);
        node.on_timer();
        let early: Vec<_> = node
            .take_outgoing()
            .into_iter()
            .filter(|(_, p)| *p == Packet::IWant(vec![fold(2)]))
            .collect();
        assert!(early.is_empty());
        node.set_clock(1_000 + config.ihave_timeout_ns);
        node.on_timer();
        assert!(node
            .take_outgoing()
            .contains(&(NodeId::new(1), Packet::IWant(vec![fold(2)]))));
        // A pushed id already awaited as announced gets the grace too.
        node.set_clock(10_000_000_000);
        node.on_packet(NodeId::new(2), announce(&[fold(3)]));
        node.on_packet(
            NodeId::new(1),
            Packet::IHave {
                pushed: vec![fold(3)],
                announced: vec![],
            },
        );
        assert_eq!(
            node.missing.get(&fold(3)).map(|m| m.deadline),
            Some(10_000_000_000 + grace)
        );
    }
}
