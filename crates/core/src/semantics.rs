//! The consensus-facing extension interface of the gossip layer.
//!
//! The paper's gossip layer "offers two ways to control its behavior":
//! semantic filtering, via a `validate(Message, Peer)` method, and semantic
//! aggregation, via an `aggregate(Message[], Peer)` / `disaggregate(Message)`
//! pair (§3.3). [`Semantics`] is the Rust rendition of that interface; the
//! gossip node calls it at exactly the points the paper prescribes:
//!
//! * [`Semantics::observe`] — when a message is registered locally (first
//!   seen), so the implementation can track consensus progress without
//!   touching the consensus protocol itself;
//! * [`Semantics::aggregate`] — when a send routine finds *several* messages
//!   pending for one peer that share an aggregation class
//!   ([`GossipItem::aggregation_key`](crate::GossipItem::aggregation_key));
//! * [`Semantics::validate`] — when a send routine is about to transmit one
//!   message to one peer (false ⇒ the message is dropped for that peer);
//! * [`Semantics::disaggregate`] — when a message arrives from a peer,
//!   before duplicate checking; reversible aggregations reconstruct the
//!   original messages here.
//!
//! [`NoSemantics`] implements the defaults — classic gossip.

use crate::id::NodeId;

/// Consensus-provided semantic extensions for a gossip node.
///
/// All methods have defaults matching classic gossip, so an implementation
/// can adopt filtering, aggregation, or both (the paper evaluates each
/// combination; see the `ablation_semantics` bench).
///
/// Implementations must be fast and non-blocking: `validate` runs once per
/// (message, peer) pair on the send path.
pub trait Semantics<M> {
    /// Called once per message registered at this node (local broadcast or
    /// first reception), *before* the message is delivered and forwarded.
    /// Lets the implementation maintain its summary of consensus progress.
    fn observe(&mut self, msg: &M) {
        let _ = msg;
    }

    /// Semantic filtering: whether `msg` is still worth sending to `peer`.
    ///
    /// Returning `false` drops the message for this peer only. The
    /// implementation should base the decision on what it already forwarded
    /// to `peer` (a lightweight execution of the consensus protocol on the
    /// peer's behalf, as the paper puts it).
    fn validate(&mut self, msg: &M, peer: NodeId) -> bool {
        let _ = (msg, peer);
        true
    }

    /// Semantic aggregation: may replace several `pending` messages for
    /// `peer` with fewer, semantically equivalent messages.
    ///
    /// `pending` is not necessarily everything queued for the peer: the
    /// node hands over, in queue order, only the messages whose
    /// [`aggregation_key`](crate::GossipItem::aggregation_key) occurs at
    /// least twice in the queue, and leaves the rest in their shared
    /// handles. The output must **preserve first-occurrence order** — a
    /// merged message stands where the first of its members stood — because
    /// the node puts each output back at that queue position and sends in
    /// that order (a Decision sent before a vote filters that vote). It
    /// must not return more messages than it was given. The default
    /// returns the input unchanged.
    fn aggregate(&mut self, pending: Vec<M>, peer: NodeId) -> Vec<M> {
        let _ = peer;
        pending
    }

    /// Reverses a reversible aggregation: expands `msg` into the original
    /// messages it carries. Non-aggregated messages are returned as-is (the
    /// default).
    fn disaggregate(&mut self, msg: M) -> Vec<M> {
        vec![msg]
    }

    /// Progress hook: the local consensus process of `group` has delivered,
    /// in order, everything the caller still needs below instance
    /// `watermark`, so whatever the implementation summarised about older
    /// instances can go. Called by node runtimes on their GC cadence; the
    /// default keeps no such state.
    fn on_progress(&mut self, group: u32, watermark: u64) {
        let _ = (group, watermark);
    }
}

/// Classic gossip: no filtering, no aggregation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoSemantics;

impl<M> Semantics<M> for NoSemantics {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_semantics_is_identity() {
        let mut s = NoSemantics;
        let peer = NodeId::new(1);
        assert!(Semantics::<u64>::validate(&mut s, &7, peer));
        assert_eq!(s.aggregate(vec![1u64, 2, 3], peer), vec![1, 2, 3]);
        assert_eq!(s.disaggregate(9u64), vec![9]);
        Semantics::<u64>::observe(&mut s, &1); // no-op, must not panic
    }

    /// A toy semantics used to pin down the trait's contract.
    #[derive(Default)]
    struct DropOdd {
        observed: Vec<u64>,
    }

    impl Semantics<u64> for DropOdd {
        fn observe(&mut self, msg: &u64) {
            self.observed.push(*msg);
        }
        fn validate(&mut self, msg: &u64, _peer: NodeId) -> bool {
            msg.is_multiple_of(2)
        }
        fn aggregate(&mut self, pending: Vec<u64>, _peer: NodeId) -> Vec<u64> {
            // Sum everything into a single message.
            vec![pending.iter().sum()]
        }
        fn disaggregate(&mut self, msg: u64) -> Vec<u64> {
            if msg > 100 {
                vec![msg - 100, 100]
            } else {
                vec![msg]
            }
        }
    }

    #[test]
    fn custom_semantics_hooks() {
        let mut s = DropOdd::default();
        let peer = NodeId::new(0);
        assert!(!s.validate(&3, peer));
        assert!(s.validate(&4, peer));
        assert_eq!(s.aggregate(vec![1, 2, 3], peer), vec![6]);
        assert_eq!(s.disaggregate(150), vec![50, 100]);
        s.observe(&8);
        assert_eq!(s.observed, vec![8]);
    }
}
