//! The one interface a consensus runtime needs from a communication
//! substrate.
//!
//! The paper's claim is that the *same unmodified* consensus protocol runs
//! over direct channels, classic gossip and Semantic Gossip. [`Substrate`]
//! is that claim as a trait: consensus messages go in ([`Substrate::send`]),
//! link frames come in ([`Substrate::on_frame`]) and go out
//! ([`Substrate::take_outgoing_into`]), and messages for the local consensus
//! process come out ([`Substrate::take_deliveries_into`]). A host — the
//! simulator, a TCP driver — moves frames between substrates and never
//! looks inside them beyond what [`LinkFrame`] exposes.
//!
//! Implemented by [`GossipNode`] (push, with or without semantics),
//! [`EagerLazyNode`] (Plumtree-style trees) and [`Direct`] (fully connected
//! channels). The inherent methods of the two gossip nodes stay the primary
//! API for code that owns a concrete node; the trait impls only delegate.

use obs::{NoopObserver, Observer};

use crate::cache::DuplicateFilter;
use crate::id::NodeId;
use crate::node::{GossipItem, GossipNode};
use crate::plumtree::{EagerLazyNode, Packet, PlumtreeStats};
use crate::semantics::Semantics;
use crate::stats::MessageStats;

/// Where a consensus message is addressed.
///
/// Gossip substrates broadcast whatever the destination (§3.1: under gossip
/// every message reaches every process); only [`Direct`] routes on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// Every process, the sender included.
    All,
    /// One process (possibly the sender itself).
    One(NodeId),
}

/// What a host may ask of a link frame without knowing which substrate
/// produced it: its size for cost models, and whether it carries a
/// consensus message or is substrate control traffic.
pub trait LinkFrame<M> {
    /// Encoded size in bytes.
    fn wire_size(&self) -> usize;

    /// The consensus message this frame carries, if any.
    fn payload(&self) -> Option<&M>;

    /// Ledger/trace class of a frame that carries no consensus message.
    fn control_class(&self) -> Option<&'static str> {
        None
    }
}

/// A consensus message is its own frame on substrates that add no framing.
impl<M: GossipItem> LinkFrame<M> for M {
    fn wire_size(&self) -> usize {
        GossipItem::wire_size(self)
    }

    fn payload(&self) -> Option<&M> {
        Some(self)
    }
}

impl<M: GossipItem> LinkFrame<M> for Packet<M> {
    fn wire_size(&self) -> usize {
        Packet::wire_size(self)
    }

    fn payload(&self) -> Option<&M> {
        match self {
            Packet::Payload(_, m) => Some(m),
            _ => None,
        }
    }

    fn control_class(&self) -> Option<&'static str> {
        Packet::control_class(self)
    }
}

/// A sans-IO communication substrate carrying consensus messages `M`.
///
/// `Frame` is an associated type because what crosses a link differs per
/// substrate — the message itself for direct channels and push gossip, a
/// [`Packet`] (payload *or* IHAVE/IWANT/GRAFT/PRUNE control) for eager/lazy
/// — and the wire cost of a run is the cost of exactly those frames.
pub trait Substrate<M> {
    /// What this substrate puts on a link.
    type Frame: LinkFrame<M>;

    /// The observer receiving this substrate's trace events.
    type Observer: Observer;

    /// Whether outgoing frames wait in send queues for a host-paced send
    /// routine (the paper's Figure 2, where accumulation is what lets
    /// aggregation find batches). `false` means a host must put frames on
    /// their links in the same step that produced them.
    const SEND_ROUTINE: bool = true;

    /// Whether every message reaches every process whatever its [`Dest`]
    /// (§3.1). A consensus process over such a substrate can send a value
    /// once and name it by id afterwards: every process receives the value
    /// too, though not necessarily first.
    const BROADCASTS: bool;

    /// Hands a message from the local consensus process to the substrate.
    fn send(&mut self, msg: M, dest: Dest);

    /// Handles one frame received from `from`.
    fn on_frame(&mut self, from: NodeId, frame: Self::Frame);

    /// Drains the `(peer, frame)` pairs to transmit, appending to `out`.
    fn take_outgoing_into(&mut self, out: &mut Vec<(NodeId, Self::Frame)>);

    /// Drains the messages for the local consensus process, appending to
    /// `out`.
    fn take_deliveries_into(&mut self, out: &mut Vec<M>);

    /// Whether [`take_outgoing_into`](Self::take_outgoing_into) would yield
    /// anything.
    fn has_outgoing(&self) -> bool;

    /// The earliest clock value at which [`on_timer`](Self::on_timer) has
    /// work to do, if any.
    fn next_timer(&self) -> Option<u64> {
        None
    }

    /// Runs timer-driven work due at the current clock.
    fn on_timer(&mut self) {}

    /// Advances the substrate's clock and its observer's (nanoseconds).
    fn set_clock(&mut self, now_ns: u64);

    /// Message accounting so far (all zero for a substrate that keeps
    /// none).
    fn stats(&self) -> MessageStats;

    /// Eager/lazy tree accounting so far (all zero for a substrate that
    /// builds no trees).
    fn plumtree_stats(&self) -> PlumtreeStats {
        PlumtreeStats::default()
    }

    /// Exclusive access to the observer (e.g. to drain a ring).
    fn observer_mut(&mut self) -> &mut Self::Observer;

    /// Progress hook: the local consensus process of `group` no longer
    /// needs anything the substrate remembers about instances below
    /// `watermark`. Push gossip passes it to its semantics, which drop
    /// their per-peer summaries; everyone else ignores it.
    fn on_progress(&mut self, group: u32, watermark: u64) {
        let _ = (group, watermark);
    }
}

impl<M, S, F, O> Substrate<M> for GossipNode<M, S, F, O>
where
    M: GossipItem,
    S: Semantics<M>,
    F: DuplicateFilter,
    O: Observer,
{
    type Frame = M;
    type Observer = O;

    const BROADCASTS: bool = true;

    fn send(&mut self, msg: M, _dest: Dest) {
        self.broadcast(msg);
    }

    fn on_frame(&mut self, from: NodeId, frame: M) {
        self.on_receive(from, frame);
    }

    fn take_outgoing_into(&mut self, out: &mut Vec<(NodeId, M)>) {
        GossipNode::take_outgoing_into(self, out);
    }

    fn take_deliveries_into(&mut self, out: &mut Vec<M>) {
        GossipNode::take_deliveries_into(self, out);
    }

    fn has_outgoing(&self) -> bool {
        GossipNode::has_outgoing(self)
    }

    fn set_clock(&mut self, now_ns: u64) {
        GossipNode::observer_mut(self).set_now(now_ns);
        GossipNode::set_clock(self, now_ns);
    }

    fn stats(&self) -> MessageStats {
        *GossipNode::stats(self)
    }

    fn observer_mut(&mut self) -> &mut O {
        GossipNode::observer_mut(self)
    }

    fn on_progress(&mut self, group: u32, watermark: u64) {
        self.semantics_mut().on_progress(group, watermark);
    }
}

impl<M, F, O> Substrate<M> for EagerLazyNode<M, F, O>
where
    M: GossipItem,
    F: DuplicateFilter,
    O: Observer,
{
    type Frame = Packet<M>;
    type Observer = O;

    const BROADCASTS: bool = true;

    fn send(&mut self, msg: M, _dest: Dest) {
        self.broadcast(msg);
    }

    fn on_frame(&mut self, from: NodeId, frame: Packet<M>) {
        self.on_packet(from, frame);
    }

    fn take_outgoing_into(&mut self, out: &mut Vec<(NodeId, Packet<M>)>) {
        EagerLazyNode::take_outgoing_into(self, out);
    }

    fn take_deliveries_into(&mut self, out: &mut Vec<M>) {
        EagerLazyNode::take_deliveries_into(self, out);
    }

    fn has_outgoing(&self) -> bool {
        EagerLazyNode::has_outgoing(self)
    }

    fn next_timer(&self) -> Option<u64> {
        EagerLazyNode::next_timer(self)
    }

    fn on_timer(&mut self) {
        EagerLazyNode::on_timer(self);
    }

    fn set_clock(&mut self, now_ns: u64) {
        EagerLazyNode::observer_mut(self).set_now(now_ns);
        EagerLazyNode::set_clock(self, now_ns);
    }

    fn stats(&self) -> MessageStats {
        *EagerLazyNode::stats(self)
    }

    fn plumtree_stats(&self) -> PlumtreeStats {
        *EagerLazyNode::plumtree_stats(self)
    }

    fn observer_mut(&mut self) -> &mut O {
        EagerLazyNode::observer_mut(self)
    }
}

/// Direct channels between every pair of processes: the paper's Baseline.
///
/// No duplicate suppression, no forwarding, no semantics: a message goes to
/// exactly the processes it is addressed to, and a received frame is
/// delivered as it is. A message addressed to the sender itself leaves as a
/// frame to `self` like any other — the host loops it back — so the local
/// consensus process handles its own messages on the receive path, after
/// whatever the host charges a reception.
///
/// There is no send routine ([`Substrate::SEND_ROUTINE`] is `false`):
/// nothing accumulates, because nothing could be merged.
#[derive(Debug)]
pub struct Direct<M, O = NoopObserver> {
    n: u32,
    outgoing: Vec<(NodeId, M)>,
    delivery: Vec<M>,
    observer: O,
}

impl<M, O> Direct<M, O> {
    /// The channel endpoints of one process in a system of `n`. The
    /// observer is only carried — direct channels record no events.
    pub fn new(n: usize, observer: O) -> Self {
        Direct {
            n: n as u32,
            outgoing: Vec::new(),
            delivery: Vec::new(),
            observer,
        }
    }
}

impl<M: GossipItem, O: Observer> Substrate<M> for Direct<M, O> {
    type Frame = M;
    type Observer = O;

    const SEND_ROUTINE: bool = false;
    const BROADCASTS: bool = false;

    fn send(&mut self, msg: M, dest: Dest) {
        match dest {
            Dest::One(peer) => self.outgoing.push((peer, msg)),
            Dest::All => {
                for peer in 0..self.n {
                    self.outgoing.push((NodeId::new(peer), msg.clone()));
                }
            }
        }
    }

    fn on_frame(&mut self, _from: NodeId, frame: M) {
        self.delivery.push(frame);
    }

    fn take_outgoing_into(&mut self, out: &mut Vec<(NodeId, M)>) {
        out.append(&mut self.outgoing);
    }

    fn take_deliveries_into(&mut self, out: &mut Vec<M>) {
        out.append(&mut self.delivery);
    }

    fn has_outgoing(&self) -> bool {
        !self.outgoing.is_empty()
    }

    fn set_clock(&mut self, now_ns: u64) {
        self.observer.set_now(now_ns);
    }

    fn stats(&self) -> MessageStats {
        MessageStats::default()
    }

    fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GossipConfig;
    use crate::id::MessageId;

    #[derive(Clone, Debug, PartialEq)]
    struct Msg(u64);

    impl GossipItem for Msg {
        fn message_id(&self) -> MessageId {
            MessageId::from_u128(self.0 as u128)
        }
        fn wire_size(&self) -> usize {
            8
        }
    }

    fn drain<S: Substrate<Msg>>(s: &mut S) -> (Vec<(NodeId, S::Frame)>, Vec<Msg>) {
        let (mut out, mut delivered) = (Vec::new(), Vec::new());
        s.take_outgoing_into(&mut out);
        s.take_deliveries_into(&mut delivered);
        (out, delivered)
    }

    #[test]
    fn direct_routes_on_the_destination_and_loops_back_through_the_host() {
        let mut d: Direct<Msg> = Direct::new(3, NoopObserver);
        d.send(Msg(1), Dest::All);
        d.send(Msg(2), Dest::One(NodeId::new(1)));
        assert!(d.has_outgoing());
        let (out, delivered) = drain(&mut d);
        let to: Vec<u32> = out.iter().map(|(p, _)| p.as_u32()).collect();
        assert_eq!(to, vec![0, 1, 2, 1], "self included, in id order");
        assert!(delivered.is_empty(), "nothing is delivered locally");
        // The host hands the self-addressed frame back like any other.
        d.on_frame(NodeId::new(1), Msg(2));
        d.on_frame(NodeId::new(1), Msg(2));
        assert_eq!(drain(&mut d).1, vec![Msg(2), Msg(2)], "no dedup");
        assert_eq!(d.stats(), MessageStats::default());
    }

    #[test]
    fn gossip_substrates_broadcast_whatever_the_destination() {
        let peers = vec![NodeId::new(1), NodeId::new(2)];
        let mut push: GossipNode<Msg> =
            GossipNode::classic(NodeId::new(0), peers.clone(), GossipConfig::default());
        Substrate::send(&mut push, Msg(7), Dest::One(NodeId::new(2)));
        let (out, delivered) = drain(&mut push);
        assert_eq!(out.len(), 2);
        assert_eq!(delivered, vec![Msg(7)]);

        let mut tree: EagerLazyNode<Msg> =
            EagerLazyNode::new(NodeId::new(0), peers, Default::default());
        Substrate::send(&mut tree, Msg(7), Dest::One(NodeId::new(2)));
        let (mut out, delivered) = drain(&mut tree);
        // The echo IHAVEs leave once their batch is due.
        let due = Substrate::next_timer(&tree).expect("a batch is pending");
        Substrate::set_clock(&mut tree, due);
        out.extend(drain(&mut tree).0);
        let payloads = out.iter().filter(|(_, f)| f.payload().is_some()).count();
        assert_eq!(payloads, 2);
        assert!(out
            .iter()
            .any(|(_, f)| f.control_class() == Some(crate::plumtree::CLASS_IHAVE)));
        assert_eq!(delivered, vec![Msg(7)]);
    }
}
