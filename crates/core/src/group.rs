//! Multiplexing many consensus groups over one gossip substrate.
//!
//! The paper evaluates a single Paxos group per overlay; scaling past one
//! coordinator's pipeline requires many independent groups *sharing* the
//! gossip layer (ROADMAP item 1, cf. OPTIMUMP2P's multi-stream gossip).
//! [`Grouped`] wraps any [`GossipItem`] with a group id and keeps the two
//! substrate-level namespaces disjoint per group:
//!
//! * **message identity** — the group id is packed into the top bits of the
//!   inner [`MessageId`], so the recently-seen cache, the Plumtree per-source
//!   trees, and every dedup filter treat equal messages from different
//!   groups as distinct;
//! * **trace identity** — [`TraceTag::instance`] is rewritten to the
//!   group-scoped instance id (`group << 56 | instance`), matching how the
//!   runtimes scope protocol events, so critical-path joins stay exact.
//!
//! [`GroupedSemantics`] lifts a per-group [`Semantics`] implementation to
//! `Semantics<Grouped<M>>` by dispatching every hook to the message's group:
//! filtering state, aggregation tallies, and GC watermarks stay fully
//! isolated between groups while sharing one send path.

use crate::codec::{Reader, Wire, WireError};
use crate::hash::mix_words;
use crate::id::{MessageId, NodeId};
use crate::node::{GossipItem, TraceTag};
use crate::semantics::Semantics;

/// Maximum number of groups multiplexed over one substrate.
///
/// Group ids occupy the top [`GROUP_BITS`] bits of the 128-bit message id;
/// inner message ids must leave them clear (checked in debug builds).
pub const MAX_GROUPS: u32 = 1 << GROUP_BITS;

/// Bits of the message id reserved for the group.
pub const GROUP_BITS: u32 = 5;

const GROUP_SHIFT: u32 = 128 - GROUP_BITS;

/// Bits of a protocol `instance` field reserved for the group when scoping
/// instances (`group << INSTANCE_GROUP_SHIFT | instance`). Group 0 is the
/// identity, so single-group traces are unchanged.
pub const INSTANCE_GROUP_SHIFT: u32 = 56;

/// Scopes a protocol instance id to a group: `group << 56 | instance`.
///
/// Identity for group 0, so existing single-group traces, fixtures, and
/// health tracking are unaffected.
#[inline]
pub fn group_scoped_instance(group: u32, instance: u64) -> u64 {
    debug_assert!(group < MAX_GROUPS, "group {group} out of range");
    debug_assert!(
        instance < (1 << INSTANCE_GROUP_SHIFT),
        "instance {instance} overflows the group-scoped encoding"
    );
    ((group as u64) << INSTANCE_GROUP_SHIFT) | instance
}

/// A gossip message tagged with the consensus group it belongs to.
///
/// The wrapper is what actually travels on a shared substrate: one byte of
/// group id on the wire, and group-disjoint message/trace identities (see
/// the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grouped<M> {
    /// The consensus group this message belongs to (`< MAX_GROUPS`).
    pub group: u32,
    /// The protocol message.
    pub inner: M,
}

impl<M> Grouped<M> {
    /// Wraps `inner` for `group`.
    ///
    /// # Panics
    ///
    /// Panics if `group >= MAX_GROUPS`.
    pub fn new(group: u32, inner: M) -> Self {
        assert!(
            group < MAX_GROUPS,
            "group {group} out of range (max {MAX_GROUPS})"
        );
        Self { group, inner }
    }
}

impl<M: GossipItem> GossipItem for Grouped<M> {
    fn message_id(&self) -> MessageId {
        let raw = self.inner.message_id().as_u128();
        debug_assert_eq!(
            raw >> GROUP_SHIFT,
            0,
            "inner message id uses the group bits"
        );
        MessageId::from_u128(((self.group as u128) << GROUP_SHIFT) | raw)
    }

    fn wire_size(&self) -> usize {
        // One group-id byte on top of the inner encoding.
        self.inner.wire_size() + 1
    }

    fn trace_tag(&self) -> Option<TraceTag> {
        let mut tag = self.inner.trace_tag()?;
        if tag.instance != TraceTag::NO_INSTANCE {
            tag.instance = group_scoped_instance(self.group, tag.instance);
        }
        Some(tag)
    }

    /// Messages of different groups never merge: the group is folded into
    /// the inner class.
    fn aggregation_key(&self) -> Option<u64> {
        let inner = self.inner.aggregation_key()?;
        Some(mix_words(&[inner, self.group as u64]))
    }
}

/// The on-wire form is exactly what [`GossipItem::wire_size`] accounts
/// for: one group-id byte followed by the inner encoding.
impl<M: Wire> Wire for Grouped<M> {
    fn encode(&self, buf: &mut Vec<u8>) {
        debug_assert!(self.group < MAX_GROUPS, "group {} out of range", self.group);
        buf.push(self.group as u8);
        self.inner.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let group = r.u8()? as u32;
        if group >= MAX_GROUPS {
            return Err(WireError::Invalid("group id out of range"));
        }
        let inner = M::decode(r)?;
        Ok(Grouped { group, inner })
    }

    fn encoded_len(&self) -> usize {
        1 + self.inner.encoded_len()
    }
}

/// Lifts per-group [`Semantics`] over a shared substrate: hook calls are
/// dispatched to the group of each [`Grouped`] message, so each group's
/// filtering/aggregation state evolves exactly as it would on a dedicated
/// substrate.
#[derive(Debug)]
pub struct GroupedSemantics<S> {
    groups: Vec<S>,
}

impl<S> GroupedSemantics<S> {
    /// One inner semantics per group; group `g` dispatches to `groups[g]`.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty or larger than [`MAX_GROUPS`].
    pub fn new(groups: Vec<S>) -> Self {
        assert!(!groups.is_empty(), "at least one group required");
        assert!(
            groups.len() <= MAX_GROUPS as usize,
            "{} groups exceed MAX_GROUPS ({MAX_GROUPS})",
            groups.len()
        );
        Self { groups }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether there are no groups (never true — `new` requires one).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The inner semantics of one group.
    pub fn get(&self, group: u32) -> &S {
        &self.groups[group as usize]
    }

    /// Mutable inner semantics of one group (e.g. for GC watermarks).
    pub fn get_mut(&mut self, group: u32) -> &mut S {
        &mut self.groups[group as usize]
    }

    /// Iterates over the per-group inner semantics.
    pub fn iter(&self) -> impl Iterator<Item = &S> {
        self.groups.iter()
    }

    /// Mutably iterates over the per-group inner semantics.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut S> {
        self.groups.iter_mut()
    }
}

impl<M, S: Semantics<M>> Semantics<Grouped<M>> for GroupedSemantics<S> {
    fn observe(&mut self, msg: &Grouped<M>) {
        self.groups[msg.group as usize].observe(&msg.inner);
    }

    fn validate(&mut self, msg: &Grouped<M>, peer: NodeId) -> bool {
        self.groups[msg.group as usize].validate(&msg.inner, peer)
    }

    fn aggregate(&mut self, pending: Vec<Grouped<M>>, peer: NodeId) -> Vec<Grouped<M>> {
        // Fast path: a batch from a single group (the common case at low
        // group counts) avoids the partition step entirely.
        if let Some(first) = pending.first() {
            let g = first.group;
            if pending.iter().all(|m| m.group == g) {
                let inner: Vec<M> = pending.into_iter().map(|m| m.inner).collect();
                return self.groups[g as usize]
                    .aggregate(inner, peer)
                    .into_iter()
                    .map(|m| Grouped { group: g, inner: m })
                    .collect();
            }
        } else {
            return pending;
        }
        // Mixed batch: aggregate each group's run independently, emitting
        // groups in order of first appearance so the relative order of each
        // group's messages is preserved.
        let mut order: Vec<u32> = Vec::new();
        let mut buckets: Vec<Vec<M>> = (0..self.groups.len()).map(|_| Vec::new()).collect();
        for m in pending {
            let idx = m.group as usize;
            if buckets[idx].is_empty() {
                order.push(m.group);
            }
            buckets[idx].push(m.inner);
        }
        let mut out = Vec::new();
        for g in order {
            let inner = std::mem::take(&mut buckets[g as usize]);
            out.extend(
                self.groups[g as usize]
                    .aggregate(inner, peer)
                    .into_iter()
                    .map(|m| Grouped { group: g, inner: m }),
            );
        }
        out
    }

    fn disaggregate(&mut self, msg: Grouped<M>) -> Vec<Grouped<M>> {
        let g = msg.group;
        self.groups[g as usize]
            .disaggregate(msg.inner)
            .into_iter()
            .map(|m| Grouped { group: g, inner: m })
            .collect()
    }

    fn on_progress(&mut self, group: u32, watermark: u64) {
        if let Some(inner) = self.groups.get_mut(group as usize) {
            inner.on_progress(group, watermark);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Item(u64);

    impl GossipItem for Item {
        fn message_id(&self) -> MessageId {
            MessageId::from_u128(self.0 as u128)
        }
        fn wire_size(&self) -> usize {
            8
        }
        fn trace_tag(&self) -> Option<TraceTag> {
            Some(TraceTag {
                kind: "item",
                instance: self.0,
                origin: 1,
                seq: self.0,
            })
        }
    }

    #[test]
    fn group_bits_disambiguate_equal_inner_ids() {
        let a = Grouped::new(0, Item(7));
        let b = Grouped::new(1, Item(7));
        assert_ne!(a.message_id(), b.message_id());
        // Group 0 is the identity encoding.
        assert_eq!(a.message_id(), Item(7).message_id());
        assert_eq!(
            b.message_id().as_u128() >> GROUP_SHIFT,
            1,
            "group rides in the top bits"
        );
    }

    #[test]
    fn wire_size_adds_one_group_byte() {
        assert_eq!(Grouped::new(3, Item(9)).wire_size(), 9);
    }

    #[test]
    fn trace_tag_scopes_instance_by_group() {
        let tag = Grouped::new(2, Item(5)).trace_tag().unwrap();
        assert_eq!(tag.instance, (2u64 << INSTANCE_GROUP_SHIFT) | 5);
        // Group 0 leaves instances untouched.
        let tag0 = Grouped::new(0, Item(5)).trace_tag().unwrap();
        assert_eq!(tag0.instance, 5);
    }

    #[test]
    fn no_instance_sentinel_passes_through() {
        #[derive(Clone)]
        struct Unbound;
        impl GossipItem for Unbound {
            fn message_id(&self) -> MessageId {
                MessageId::from_u128(1)
            }
            fn wire_size(&self) -> usize {
                1
            }
            fn trace_tag(&self) -> Option<TraceTag> {
                Some(TraceTag {
                    kind: "unbound",
                    instance: TraceTag::NO_INSTANCE,
                    origin: 0,
                    seq: 0,
                })
            }
        }
        let tag = Grouped::new(3, Unbound).trace_tag().unwrap();
        assert_eq!(tag.instance, TraceTag::NO_INSTANCE);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_group_panics() {
        let _ = Grouped::new(MAX_GROUPS, Item(0));
    }

    #[test]
    fn wire_roundtrip_carries_one_group_byte() {
        let msg = Grouped::new(5, 0xDEAD_BEEFu64);
        let bytes = msg.to_bytes();
        assert_eq!(bytes[0], 5, "the group id leads the frame");
        assert_eq!(bytes.len(), msg.encoded_len());
        assert_eq!(bytes.len(), 1 + 0xDEAD_BEEFu64.encoded_len());
        let decoded = Grouped::<u64>::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(decoded, msg);

        // A frame claiming an impossible group is rejected, not wrapped.
        let mut bad = bytes.clone();
        bad[0] = MAX_GROUPS as u8;
        assert_eq!(
            Grouped::<u64>::decode(&mut Reader::new(&bad)),
            Err(WireError::Invalid("group id out of range"))
        );
    }

    /// Per-group counter semantics: observe counts, validate drops odd
    /// values, aggregate sums, disaggregate splits >100.
    #[derive(Default, Clone)]
    struct Counting {
        observed: Vec<u64>,
    }

    impl Semantics<u64> for Counting {
        fn observe(&mut self, msg: &u64) {
            self.observed.push(*msg);
        }
        fn validate(&mut self, msg: &u64, _peer: NodeId) -> bool {
            msg.is_multiple_of(2)
        }
        fn aggregate(&mut self, pending: Vec<u64>, _peer: NodeId) -> Vec<u64> {
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

    fn wrap(group: u32, values: &[u64]) -> Vec<Grouped<u64>> {
        values.iter().map(|&v| Grouped::new(group, v)).collect()
    }

    #[test]
    fn hooks_dispatch_to_the_message_group() {
        let mut s = GroupedSemantics::new(vec![Counting::default(), Counting::default()]);
        s.observe(&Grouped::new(0, 10));
        s.observe(&Grouped::new(1, 20));
        s.observe(&Grouped::new(1, 21));
        assert_eq!(s.get(0).observed, vec![10]);
        assert_eq!(s.get(1).observed, vec![20, 21]);

        let peer = NodeId::new(4);
        assert!(s.validate(&Grouped::new(0, 2), peer));
        assert!(!s.validate(&Grouped::new(1, 3), peer));

        assert_eq!(
            s.disaggregate(Grouped::new(1, 150)),
            vec![Grouped::new(1, 50), Grouped::new(1, 100)]
        );
    }

    #[test]
    fn aggregation_is_isolated_per_group() {
        let mut s = GroupedSemantics::new(vec![Counting::default(), Counting::default()]);
        let peer = NodeId::new(0);
        // Single-group batch takes the fast path.
        assert_eq!(
            s.aggregate(wrap(1, &[1, 2, 3]), peer),
            vec![Grouped::new(1, 6)]
        );
        // Mixed batch: each group sums only its own values, groups emitted
        // in first-appearance order.
        let mixed = vec![
            Grouped::new(1, 5),
            Grouped::new(0, 7),
            Grouped::new(1, 6),
            Grouped::new(0, 8),
        ];
        assert_eq!(
            s.aggregate(mixed, peer),
            vec![Grouped::new(1, 11), Grouped::new(0, 15)]
        );
        // Empty input stays empty.
        assert_eq!(s.aggregate(Vec::new(), peer), Vec::<Grouped<u64>>::new());
    }
}
