//! Sets of process ids as bitsets.
//!
//! Every quorum test in the stack — the learner's vote tally and the
//! semantic layer's per-peer summaries — is "how many distinct processes
//! are in this set", and every Phase 2b carries one as its voters. Process
//! ids are dense `0..n` (see [`Round::coordinator`](crate::Round::coordinator)),
//! so a bitset answers with a popcount, adds a member with one OR and merges
//! two sets word by word, where a `BTreeSet` allocates a node per set and a
//! sorted `Vec` an array per message.

use semantic_gossip::codec::{put_varint, varint_len, Reader, Wire, WireError};
use semantic_gossip::hash::mix_words;
use semantic_gossip::NodeId;

/// Words held inline: ids below `64 * INLINE_WORDS` never allocate.
const INLINE_WORDS: usize = 2;
const INLINE_BITS: usize = 64 * INLINE_WORDS;

/// A set of process ids: an inline bitset over `0..128` plus a sorted spill
/// list.
///
/// Every deployment the experiments run (up to n = 105) fits the inline
/// words, so creating, cloning, merging and dropping a set touches no
/// allocator — which is what lets a Phase 2b hold its voters by value. Ids
/// at or past 128 are kept exactly in a sorted list, at the cost of one
/// entry each: larger deployments still count correctly, and an id that no
/// configured process has can arrive in a frame without growing the bitset
/// to an attacker-chosen length or being silently dropped.
///
/// The representation is canonical — one set, one value — so the derived
/// equality and the structural message ids built from a set agree.
///
/// # Example
///
/// ```
/// use paxos::VoterSet;
/// use semantic_gossip::NodeId;
///
/// let mut voters = VoterSet::new();
/// assert!(voters.insert(NodeId::new(64)));
/// assert!(voters.insert(NodeId::new(3)));
/// assert!(!voters.insert(NodeId::new(64))); // already present
/// assert_eq!(voters.len(), 2);
/// assert!(voters.contains(NodeId::new(3)) && !voters.contains(NodeId::new(4)));
/// assert_eq!(voters, VoterSet::from(vec![NodeId::new(3), NodeId::new(64)]));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct VoterSet {
    words: [u64; INLINE_WORDS],
    /// Members with `id >= INLINE_BITS`, ascending.
    spill: Vec<NodeId>,
}

impl VoterSet {
    /// An empty set.
    #[inline]
    pub fn new() -> Self {
        VoterSet::default()
    }

    /// The set holding just `id`.
    #[inline]
    pub fn single(id: NodeId) -> Self {
        let mut set = VoterSet::new();
        set.insert(id);
        set
    }

    /// Adds `id`; returns whether it was absent.
    #[inline]
    pub fn insert(&mut self, id: NodeId) -> bool {
        let bit = id.as_index();
        match self.words.get_mut(bit / 64) {
            Some(word) => {
                let mask = 1u64 << (bit % 64);
                let fresh = *word & mask == 0;
                *word |= mask;
                fresh
            }
            None => match self.spill.binary_search(&id) {
                Ok(_) => false,
                Err(at) => {
                    self.spill.insert(at, id);
                    true
                }
            },
        }
    }

    /// Adds every member of `other`: a word-wise OR (plus a sorted merge of
    /// the spill lists, empty in every configured deployment).
    #[inline]
    pub fn union_with(&mut self, other: &VoterSet) {
        for (word, more) in self.words.iter_mut().zip(other.words) {
            *word |= more;
        }
        for &id in &other.spill {
            self.insert(id);
        }
    }

    /// Whether `id` is a member.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        let bit = id.as_index();
        match self.words.get(bit / 64) {
            Some(word) => word & (1u64 << (bit % 64)) != 0,
            None => self.spill.binary_search(&id).is_ok(),
        }
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        let bits: u32 = self.words.iter().map(|w| w.count_ones()).sum();
        bits as usize + self.spill.len()
    }

    /// Whether the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.spill.is_empty() && self.words.iter().all(|&w| w == 0)
    }

    /// A 64-bit fold of the members: equal sets fold equal, on every
    /// process (it feeds the structural id of an aggregated vote).
    pub fn digest(&self) -> u64 {
        let spill = self
            .spill
            .iter()
            .fold(0, |h, id| mix_words(&[h, id.as_u32() as u64]));
        mix_words(&[self.words[0], self.words[1], spill])
    }

    /// The smallest member.
    pub fn first(&self) -> Option<NodeId> {
        self.iter().next()
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        let bits = self.words.iter().enumerate().flat_map(|(at, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    NodeId::new(at as u32 * 64 + bit)
                })
            })
        });
        bits.chain(self.spill.iter().copied())
    }
}

impl Extend<NodeId> for VoterSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, ids: I) {
        for id in ids {
            self.insert(id);
        }
    }
}

impl FromIterator<NodeId> for VoterSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(ids: I) -> Self {
        let mut set = VoterSet::new();
        set.extend(ids);
        set
    }
}

impl From<Vec<NodeId>> for VoterSet {
    fn from(ids: Vec<NodeId>) -> Self {
        ids.into_iter().collect()
    }
}

/// A set equals the list of its members in ascending order.
impl PartialEq<Vec<NodeId>> for VoterSet {
    fn eq(&self, ids: &Vec<NodeId>) -> bool {
        self.len() == ids.len() && self.iter().eq(ids.iter().copied())
    }
}

/// On the wire a set is its member count followed by the members in
/// strictly ascending order, each a varint — one byte per voter in every
/// configured deployment. Decoding rejects any other order, so one set has
/// one encoding.
impl Wire for VoterSet {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        for id in self.iter() {
            id.encode(buf);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let count = r.varint()?;
        // Every member takes at least one byte, so a count the rest of the
        // frame cannot hold is refused before anything is sized from it.
        if count > r.remaining() as u64 {
            return Err(WireError::UnexpectedEnd);
        }
        let mut set = VoterSet::new();
        let mut last = None;
        for _ in 0..count {
            let id = NodeId::decode(r)?;
            if last.is_some_and(|last| id <= last) {
                return Err(WireError::Invalid("voters not sorted/unique"));
            }
            last = Some(id);
            if id.as_index() < INLINE_BITS {
                set.insert(id);
            } else {
                // Ascending order keeps the spill sorted; it grows only as
                // members actually decode, so the frame's length bounds it.
                set.spill.push(id);
            }
        }
        Ok(set)
    }

    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(|id| id.encoded_len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn set(ids: &[u32]) -> VoterSet {
        ids.iter().copied().map(NodeId::new).collect()
    }

    fn ids(set: &VoterSet) -> Vec<u32> {
        set.iter().map(NodeId::as_u32).collect()
    }

    #[test]
    fn crosses_word_boundaries_inline() {
        // n = 105 — the largest deployment the experiments run — needs two
        // words; members on both sides of bit 64 must count.
        let s = set(&[104, 0, 64, 63]);
        assert_eq!(s.len(), 4);
        assert_eq!(ids(&s), vec![0, 63, 64, 104]);
        assert!(s.contains(NodeId::new(64)) && !s.contains(NodeId::new(65)));
        assert!(s.spill.is_empty());
    }

    #[test]
    fn ids_past_the_bitset_are_kept_exactly_without_growing_it() {
        let mut s = VoterSet::new();
        assert!(s.insert(NodeId::new(u32::MAX)));
        assert!(s.insert(NodeId::new(128)));
        assert!(s.insert(NodeId::new(1)));
        assert!(!s.insert(NodeId::new(128)));
        assert_eq!(s.len(), 3);
        assert_eq!(ids(&s), vec![1, 128, u32::MAX]);
        assert!(s.contains(NodeId::new(u32::MAX)) && !s.contains(NodeId::new(129)));
        assert_eq!(s.spill.len(), 2);
    }

    #[test]
    fn empty_and_single() {
        let s = VoterSet::new();
        assert!(s.is_empty());
        assert_eq!((s.len(), s.first()), (0, None));
        let one = VoterSet::single(NodeId::new(27));
        assert_eq!((one.len(), one.first()), (1, Some(NodeId::new(27))));
    }

    #[test]
    fn equals_its_sorted_member_list_whatever_the_insertion_order() {
        let from_vec = VoterSet::from(vec![NodeId::new(200), NodeId::new(7), NodeId::new(7)]);
        assert_eq!(from_vec, set(&[7, 200]));
        assert_eq!(from_vec, vec![NodeId::new(7), NodeId::new(200)]);
        assert_ne!(from_vec, vec![NodeId::new(200), NodeId::new(7)]);
        assert_ne!(from_vec, vec![NodeId::new(7)]);
    }

    #[test]
    fn a_configured_deployments_set_never_allocates() {
        let s = set(&(0..105).collect::<Vec<_>>());
        assert_eq!(s.spill.capacity(), 0);
        assert_eq!(s.clone().spill.capacity(), 0);
    }

    #[test]
    fn decode_rejects_non_canonical_encodings() {
        let unsorted = [2u8, 5, 3];
        assert!(matches!(
            VoterSet::from_bytes(&unsorted),
            Err(WireError::Invalid(_))
        ));
        let duplicated = [2u8, 5, 5];
        assert!(matches!(
            VoterSet::from_bytes(&duplicated),
            Err(WireError::Invalid(_))
        ));
        // A count the frame cannot hold is refused up front.
        let mut huge = Vec::new();
        put_varint(&mut huge, 1 << 40);
        huge.push(1);
        assert_eq!(VoterSet::from_bytes(&huge), Err(WireError::UnexpectedEnd));
        // So is a spill the frame cannot hold: 100 members announced, the
        // first already past the bitset, and three bytes left.
        let short_spill = [100u8, 0x80, 0x01, 0x81, 0x01];
        assert_eq!(
            VoterSet::from_bytes(&short_spill),
            Err(WireError::UnexpectedEnd)
        );
        // A spill that does fit decodes, in order.
        let spill = [3u8, 5, 0x80, 0x01, 0xac, 0x02];
        assert_eq!(ids(&VoterSet::from_bytes(&spill).unwrap()), [5, 128, 300]);
    }

    proptest! {
        /// Same answers as a `BTreeSet` for any ids, in or out of the bitset.
        #[test]
        fn prop_matches_btreeset(ops in proptest::collection::vec(0u32..200, 0..120)) {
            let mut set = VoterSet::new();
            let mut model = BTreeSet::new();
            for v in ops {
                prop_assert_eq!(set.insert(NodeId::new(v)), model.insert(v));
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(set.is_empty(), model.is_empty());
                prop_assert_eq!(set.first().map(NodeId::as_u32), model.first().copied());
            }
            prop_assert_eq!(ids(&set), model.iter().copied().collect::<Vec<_>>());
        }

        /// A union is the union, and the wire form round-trips it at the
        /// length `encoded_len` promises.
        #[test]
        fn prop_union_and_wire_round_trip(
            a in proptest::collection::vec(0u32..300, 0..40),
            b in proptest::collection::vec(0u32..300, 0..40),
        ) {
            let mut merged = set(&a);
            merged.union_with(&set(&b));
            let model: BTreeSet<u32> = a.iter().chain(&b).copied().collect();
            prop_assert_eq!(ids(&merged), model.into_iter().collect::<Vec<_>>());
            let bytes = merged.to_bytes();
            prop_assert_eq!(bytes.len(), merged.encoded_len());
            prop_assert_eq!(VoterSet::from_bytes(&bytes).unwrap(), merged);
        }
    }
}
