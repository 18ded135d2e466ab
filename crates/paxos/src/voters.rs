//! Sets of process ids as bitsets.
//!
//! Every quorum test in the stack — the learner's vote tally and the
//! semantic layer's per-peer summaries — is "how many distinct processes
//! are in this set". Process ids are dense `0..n` (see
//! [`Round::coordinator`](crate::Round::coordinator)), so a bitset sized
//! from [`PaxosConfig::n`](crate::PaxosConfig) answers with a popcount and
//! adds a member with one OR, where a `BTreeSet` allocates a node per set.

use semantic_gossip::NodeId;

/// Words held inline: ids below `64 * INLINE_WORDS` never allocate.
const INLINE_WORDS: usize = 2;
const INLINE_BITS: usize = 64 * INLINE_WORDS;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

/// A set of process ids: a bitset over `0..n` plus a sorted spill list.
///
/// The bitset is sized once, from the deployment's `n` — inline up to 128
/// processes, one heap block beyond, with no upper limit. Ids at or past
/// that size cannot come from a configured process; they can arrive in a
/// frame, though, so they are kept exactly (in a sorted list, at the cost of
/// one entry each) rather than growing the bitset to an attacker-chosen
/// length or being silently dropped.
///
/// # Example
///
/// ```
/// use paxos::VoterSet;
/// use semantic_gossip::NodeId;
///
/// let mut voters = VoterSet::new(105);
/// assert!(voters.insert(NodeId::new(64)));
/// assert!(voters.insert(NodeId::new(3)));
/// assert!(!voters.insert(NodeId::new(64))); // already present
/// assert_eq!(voters.len(), 2);
/// assert!(voters.contains(NodeId::new(3)) && !voters.contains(NodeId::new(4)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoterSet {
    words: Words,
    /// Members with `id >= 64 * words.len()`, ascending.
    spill: Vec<NodeId>,
}

impl VoterSet {
    /// An empty set with a bitset covering process ids `0..n`.
    pub fn new(n: usize) -> Self {
        let words = if n <= INLINE_BITS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0; n.div_ceil(64)].into_boxed_slice())
        };
        VoterSet {
            words,
            spill: Vec::new(),
        }
    }

    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => w,
            Words::Heap(w) => w,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(w) => w,
            Words::Heap(w) => w,
        }
    }

    /// Adds `id`; returns whether it was absent.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let bit = id.as_index();
        match self.words_mut().get_mut(bit / 64) {
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

    /// Whether `id` is a member.
    pub fn contains(&self, id: NodeId) -> bool {
        let bit = id.as_index();
        match self.words().get(bit / 64) {
            Some(word) => word & (1u64 << (bit % 64)) != 0,
            None => self.spill.binary_search(&id).is_ok(),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        let bits: u32 = self.words().iter().map(|w| w.count_ones()).sum();
        bits as usize + self.spill.len()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.spill.is_empty() && self.words().iter().all(|&w| w == 0)
    }
}

impl Extend<NodeId> for VoterSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, ids: I) {
        for id in ids {
            self.insert(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The members below 200, plus `u32::MAX` if present.
    fn ids(set: &VoterSet) -> Vec<u32> {
        (0..200)
            .chain([u32::MAX])
            .filter(|&v| set.contains(NodeId::new(v)))
            .collect()
    }

    #[test]
    fn crosses_word_boundaries_inline() {
        // n = 105 — the largest deployment the experiments run — needs two
        // words; members on both sides of bit 64 must count.
        let mut s = VoterSet::new(105);
        for v in [0u32, 63, 64, 104] {
            assert!(s.insert(NodeId::new(v)));
        }
        assert_eq!(s.len(), 4);
        assert_eq!(ids(&s), vec![0, 63, 64, 104]);
        assert!(s.contains(NodeId::new(64)) && !s.contains(NodeId::new(65)));
        assert!(matches!(s.words, Words::Inline(_)));
    }

    #[test]
    fn large_deployments_use_one_heap_block() {
        let mut s = VoterSet::new(130);
        assert!(matches!(s.words, Words::Heap(ref w) if w.len() == 3));
        for v in [127u32, 128, 129] {
            assert!(s.insert(NodeId::new(v)));
        }
        assert_eq!(ids(&s), vec![127, 128, 129]);
        assert!(s.spill.is_empty());
    }

    #[test]
    fn ids_past_the_bitset_are_kept_exactly_without_growing_it() {
        let mut s = VoterSet::new(3);
        assert!(s.insert(NodeId::new(u32::MAX)));
        assert!(s.insert(NodeId::new(128)));
        assert!(s.insert(NodeId::new(1)));
        assert!(!s.insert(NodeId::new(128)));
        assert_eq!(s.len(), 3);
        assert_eq!(ids(&s), vec![1, 128, u32::MAX]);
        assert!(s.contains(NodeId::new(u32::MAX)));
        assert!(matches!(s.words, Words::Inline(_)));
    }

    #[test]
    fn empty_set() {
        let s = VoterSet::new(27);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(ids(&s), Vec::<u32>::new());
    }

    proptest! {
        /// Same answers as a `BTreeSet` for any `n` and any ids, in or out
        /// of range.
        #[test]
        fn prop_matches_btreeset(
            n in prop_oneof![Just(3usize), Just(27), Just(130)],
            ops in proptest::collection::vec(0u32..200, 0..120),
        ) {
            let mut set = VoterSet::new(n);
            let mut model = BTreeSet::new();
            for v in ops {
                prop_assert_eq!(set.insert(NodeId::new(v)), model.insert(v));
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(set.is_empty(), model.is_empty());
            }
            prop_assert_eq!(ids(&set), model.iter().copied().collect::<Vec<_>>());
        }
    }
}
