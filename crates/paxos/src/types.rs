//! Core Paxos value and identifier types.

use std::fmt;
use std::sync::Arc;

use semantic_gossip::codec::{Reader, Wire, WireError};
use semantic_gossip::NodeId;

/// Identifier of one consensus instance.
///
/// Instances are decided independently; their identifiers establish the
/// total order of the decided sequence (delivered gap-free in increasing
/// order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct InstanceId(u64);

impl InstanceId {
    /// The first instance.
    pub const ZERO: InstanceId = InstanceId(0);

    /// Builds an instance id.
    pub const fn new(id: u64) -> Self {
        InstanceId(id)
    }

    /// Raw value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The next instance.
    pub const fn next(self) -> InstanceId {
        InstanceId(self.0 + 1)
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl Wire for InstanceId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(InstanceId(u64::decode(r)?))
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

/// A Paxos round (ballot) number.
///
/// Each round is orchestrated by one coordinator; higher rounds supersede
/// lower ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Round(u32);

impl Round {
    /// The initial round.
    pub const ZERO: Round = Round(0);

    /// Builds a round number.
    pub const fn new(r: u32) -> Self {
        Round(r)
    }

    /// Raw value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// The next round.
    pub const fn next(self) -> Round {
        Round(self.0 + 1)
    }

    /// The coordinator of this round among `n` processes: round `r` is led
    /// by process `r mod n`, so process 0 (North Virginia in the paper's
    /// deployment) leads round 0 and leadership rotates deterministically on
    /// round changes.
    ///
    /// The raw modulo deliberately assumes **dense process ids `0..n`** —
    /// that is the deployment model everywhere in this codebase (ids index
    /// overlay nodes and region maps). This is the single-group case of
    /// [`Round::coordinator_at`] with offset 0; sharded deployments pass the
    /// group id as the offset so each group's leadership rotation starts at
    /// a different process.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn coordinator(self, n: usize) -> NodeId {
        self.coordinator_at(0, n)
    }

    /// The coordinator of this round with a rotation `offset`: round `r` is
    /// led by process `(r + offset) mod n`. Consensus group `g` of a sharded
    /// deployment uses `offset = g`, so at any moment the `G` groups' round-0
    /// coordinators are spread over `min(G, n)` distinct processes instead
    /// of all landing on process 0.
    ///
    /// The sum is computed in `u64`, so `r + offset` cannot wrap for any
    /// `u32` pair.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn coordinator_at(self, offset: u32, n: usize) -> NodeId {
        assert!(n > 0, "coordinator of an empty system");
        NodeId::new(((self.0 as u64 + offset as u64) % n as u64) as u32)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl Wire for Round {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Round(u32::decode(r)?))
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

/// Globally unique identifier of a client value: the process where the value
/// entered the system plus a per-process sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId {
    /// Process at which the client submitted the value.
    pub origin: NodeId,
    /// Submission sequence number at that process.
    pub seq: u64,
}

impl ValueId {
    /// Builds a value id.
    pub const fn new(origin: NodeId, seq: u64) -> Self {
        ValueId { origin, seq }
    }

    /// Whether this names a coordinator-built batch ([`BATCH_SEQ_BIT`]).
    pub const fn is_batch(&self) -> bool {
        self.seq & BATCH_SEQ_BIT != 0
    }

    /// Packs the id into a single u64 (origin in the high 24 bits).
    pub const fn as_u64(self) -> u64 {
        ((self.origin.as_u32() as u64) << 40) | (self.seq & 0xff_ffff_ffff)
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

impl Wire for ValueId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.origin.encode(buf);
        self.seq.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ValueId {
            origin: NodeId::decode(r)?,
            seq: u64::decode(r)?,
        })
    }
    fn encoded_len(&self) -> usize {
        self.origin.encoded_len() + self.seq.encoded_len()
    }
}

/// Tag bit in [`ValueId::seq`] marking a coordinator-built *batch* value.
///
/// [`ValueId::as_u64`] packs the sequence number into 40 bits; client
/// submission counters never reach bit 39, so the bit cleanly separates the
/// batch id space (origin = the batching coordinator) from client ids.
pub const BATCH_SEQ_BIT: u64 = 1 << 39;

/// A client-proposed value.
///
/// The payload is reference-counted so cloning a value — which gossip does
/// once per peer queue — is cheap even for the paper's 1 KiB values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Value {
    id: ValueId,
    payload: Arc<Vec<u8>>,
}

impl Value {
    /// Creates a value submitted at `origin` with sequence number `seq`.
    ///
    /// # Example
    ///
    /// ```
    /// use paxos::Value;
    /// use semantic_gossip::NodeId;
    ///
    /// let v = Value::new(NodeId::new(3), 7, vec![0u8; 1024]);
    /// assert_eq!(v.payload().len(), 1024);
    /// assert_eq!(v.id().seq, 7);
    /// ```
    pub fn new(origin: NodeId, seq: u64, payload: Vec<u8>) -> Self {
        Value {
            id: ValueId::new(origin, seq),
            payload: Arc::new(payload),
        }
    }

    /// The value's unique id.
    pub fn id(&self) -> ValueId {
        self.id
    }

    /// The client payload.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Encoded size of this value on the wire.
    pub fn wire_size(&self) -> usize {
        self.encoded_len()
    }

    /// Packs several client values into one *batch* value deciding them all
    /// in a single instance. The id's origin is the batching coordinator and
    /// its sequence number carries [`BATCH_SEQ_BIT`]; the payload is the
    /// wire encoding of the component list, recovered by
    /// [`Value::components`] at delivery.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two components are given, if `batch_seq`
    /// overflows the 39-bit space below the tag bit, or (debug) if a
    /// component is itself a batch — batches never nest.
    pub fn batch(coordinator: NodeId, batch_seq: u64, components: &[Value]) -> Value {
        assert!(components.len() >= 2, "a batch needs at least two values");
        assert!(batch_seq < BATCH_SEQ_BIT, "batch sequence overflow");
        debug_assert!(
            components.iter().all(|c| !c.is_batch()),
            "batches must not nest"
        );
        let mut payload = Vec::new();
        (components.len() as u64).encode(&mut payload);
        for c in components {
            c.encode(&mut payload);
        }
        Value {
            id: ValueId::new(coordinator, BATCH_SEQ_BIT | batch_seq),
            payload: Arc::new(payload),
        }
    }

    /// Whether this value is a coordinator-built batch.
    pub fn is_batch(&self) -> bool {
        self.id.is_batch()
    }

    /// Checks what the wire format alone cannot: a batch-tagged value is at
    /// least two plain values whose encodings consume its payload exactly,
    /// so [`Value::components`] cannot fail on it. A plain value always
    /// passes. [`PaxosMessage::validate`](crate::PaxosMessage::validate)
    /// runs this on every value a frame carries.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] naming the first way the payload is not a
    /// component list.
    pub fn validate(&self) -> Result<(), WireError> {
        if self.is_batch() {
            self.walk_components(|_| ())?;
        }
        Ok(())
    }

    /// The ids of the values packed by [`Value::batch`], in order, read
    /// without copying their payloads; empty for a plain value.
    ///
    /// # Panics
    ///
    /// Panics if a batch payload is not a component list, as
    /// [`Value::components`] does.
    pub fn component_ids(&self) -> Vec<ValueId> {
        let mut ids = Vec::new();
        if self.is_batch() {
            self.walk_components(|id| ids.push(id))
                .expect("corrupt batch payload");
        }
        ids
    }

    /// Walks a batch payload part by part, handing each part's id to `f`.
    fn walk_components(&self, mut f: impl FnMut(ValueId)) -> Result<(), WireError> {
        let mut r = Reader::new(&self.payload);
        let count = r.varint()?;
        if count < 2 {
            return Err(WireError::Invalid("a batch of fewer than two values"));
        }
        for _ in 0..count {
            let id = ValueId::decode(&mut r)?;
            if id.is_batch() {
                return Err(WireError::Invalid("a batch inside a batch"));
            }
            let len = usize::try_from(r.varint()?).map_err(|_| WireError::UnexpectedEnd)?;
            r.bytes(len)?;
            f(id);
        }
        if !r.is_empty() {
            return Err(WireError::Invalid("bytes after the last batch part"));
        }
        Ok(())
    }

    /// The client values packed by [`Value::batch`], or `None` for a plain
    /// value.
    ///
    /// # Panics
    ///
    /// Panics if the payload does not decode as a component list. Batch
    /// payloads are produced by `Value::batch`, and every value a frame
    /// carries passed [`Value::validate`] on decoding, so a mismatch is
    /// corruption, not input.
    pub fn components(&self) -> Option<Vec<Value>> {
        if !self.is_batch() {
            return None;
        }
        let mut r = Reader::new(&self.payload);
        let count = u64::decode(&mut r).expect("corrupt batch header");
        let mut out = Vec::with_capacity(count as usize);
        for _ in 0..count {
            out.push(Value::decode(&mut r).expect("corrupt batch component"));
        }
        Some(out)
    }
}

impl Wire for Value {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        semantic_gossip::codec::put_byte_string(buf, &self.payload);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let id = ValueId::decode(r)?;
        let payload = r.byte_string()?;
        Ok(Value {
            id,
            payload: Arc::new(payload),
        })
    }
    fn encoded_len(&self) -> usize {
        self.id.encoded_len()
            + semantic_gossip::codec::varint_len(self.payload.len() as u64)
            + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_ordering_and_next() {
        assert!(InstanceId::new(2) > InstanceId::new(1));
        assert_eq!(InstanceId::ZERO.next(), InstanceId::new(1));
        assert_eq!(InstanceId::new(5).to_string(), "i5");
    }

    #[test]
    fn round_coordinator_rotates() {
        assert_eq!(Round::ZERO.coordinator(5), NodeId::new(0));
        assert_eq!(Round::new(1).coordinator(5), NodeId::new(1));
        assert_eq!(Round::new(7).coordinator(5), NodeId::new(2));
        assert_eq!(Round::new(3).next(), Round::new(4));
    }

    #[test]
    #[should_panic(expected = "empty system")]
    fn coordinator_of_empty_panics() {
        Round::ZERO.coordinator(0);
    }

    /// Pins the group-aware mapping: group `g`'s round `r` is led by
    /// `(r + g) mod n`, group 0 matches the plain rotation exactly, and
    /// the u64 sum never wraps even at the u32 extremes.
    #[test]
    fn coordinator_offset_staggers_groups() {
        for r in 0..20u32 {
            assert_eq!(
                Round::new(r).coordinator_at(0, 5),
                Round::new(r).coordinator(5)
            );
        }
        assert_eq!(Round::ZERO.coordinator_at(0, 5), NodeId::new(0));
        assert_eq!(Round::ZERO.coordinator_at(1, 5), NodeId::new(1));
        assert_eq!(Round::ZERO.coordinator_at(7, 5), NodeId::new(2));
        assert_eq!(Round::new(3).coordinator_at(4, 5), NodeId::new(2));
        // No u32 overflow: (u32::MAX + u32::MAX) mod 5 computed in u64.
        assert_eq!(
            Round::new(u32::MAX).coordinator_at(u32::MAX, 5),
            NodeId::new(((u32::MAX as u64 * 2) % 5) as u32)
        );
    }

    #[test]
    fn value_id_packing_distinct() {
        let a = ValueId::new(NodeId::new(1), 5).as_u64();
        let b = ValueId::new(NodeId::new(5), 1).as_u64();
        assert_ne!(a, b);
        assert_eq!(ValueId::new(NodeId::new(2), 9).to_string(), "p2#9");
    }

    #[test]
    fn value_clone_shares_payload() {
        let v = Value::new(NodeId::new(0), 0, vec![7u8; 1024]);
        let w = v.clone();
        assert!(Arc::ptr_eq(&v.payload, &w.payload));
        assert_eq!(v, w);
    }

    #[test]
    fn wire_round_trips() {
        let v = Value::new(NodeId::new(9), 1234, b"payload".to_vec());
        let decoded = Value::from_bytes(&v.to_bytes()).unwrap();
        assert_eq!(decoded, v);
        assert_eq!(v.to_bytes().len(), v.encoded_len());

        let i = InstanceId::new(300);
        assert_eq!(InstanceId::from_bytes(&i.to_bytes()).unwrap(), i);
        let r = Round::new(7);
        assert_eq!(Round::from_bytes(&r.to_bytes()).unwrap(), r);
        let vid = ValueId::new(NodeId::new(3), 42);
        assert_eq!(ValueId::from_bytes(&vid.to_bytes()).unwrap(), vid);
    }

    #[test]
    fn batch_round_trips_components() {
        let a = Value::new(NodeId::new(1), 5, b"aaa".to_vec());
        let b = Value::new(NodeId::new(2), 9, b"bbbb".to_vec());
        let batch = Value::batch(NodeId::new(0), 3, &[a.clone(), b.clone()]);
        assert!(batch.is_batch());
        assert!(!a.is_batch());
        assert_eq!(batch.id(), ValueId::new(NodeId::new(0), BATCH_SEQ_BIT | 3));
        assert_eq!(batch.components().unwrap(), vec![a.clone(), b.clone()]);
        assert_eq!(a.components(), None);
        // Batches survive the wire like any other value.
        let decoded = Value::from_bytes(&batch.to_bytes()).unwrap();
        assert_eq!(decoded.components().unwrap(), vec![a, b]);
    }

    #[test]
    fn only_a_well_formed_component_list_validates_as_a_batch() {
        let a = Value::new(NodeId::new(1), 5, b"aaa".to_vec());
        let b = Value::new(NodeId::new(2), 9, b"bbbb".to_vec());
        let batch = Value::batch(NodeId::new(0), 3, &[a.clone(), b.clone()]);
        assert_eq!(batch.validate(), Ok(()));
        assert_eq!(batch.component_ids(), vec![a.id(), b.id()]);
        assert_eq!(a.validate(), Ok(()));
        assert!(a.component_ids().is_empty());
        let tagged = |payload: Vec<u8>| Value {
            id: ValueId::new(NodeId::new(0), BATCH_SEQ_BIT | 7),
            payload: Arc::new(payload),
        };
        let parts = |values: &[Value]| {
            let mut payload = Vec::new();
            (values.len() as u64).encode(&mut payload);
            values.iter().for_each(|v| v.encode(&mut payload));
            payload
        };
        let mut trailing = parts(&[a.clone(), b.clone()]);
        trailing.push(0);
        let mut short = parts(&[a.clone(), b.clone()]);
        short.pop();
        for bad in [
            vec![0xff; 3],
            parts(&[]),
            parts(std::slice::from_ref(&a)),
            parts(&[a.clone(), batch.clone()]),
            trailing,
            short,
        ] {
            assert!(tagged(bad.clone()).validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn singleton_batch_panics() {
        let v = Value::new(NodeId::new(0), 0, vec![]);
        let _ = Value::batch(NodeId::new(0), 0, &[v]);
    }

    #[test]
    fn value_wire_size_includes_payload() {
        let small = Value::new(NodeId::new(0), 0, vec![0; 10]);
        let big = Value::new(NodeId::new(0), 0, vec![0; 1024]);
        assert!(big.wire_size() > small.wire_size() + 1000);
    }
}
