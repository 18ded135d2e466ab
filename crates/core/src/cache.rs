//! Duplicate suppression: the *recently seen* cache.
//!
//! With push dissemination the same message reaches a process several times,
//! once per overlay path. The paper controls flooding with a cache of
//! recently seen message identifiers: a message whose id is still in the
//! cache is dropped without being delivered or forwarded (§3.3). The cache
//! stores ids, not messages, so its footprint is small and constant; the
//! paper notes a sliding Bloom filter would work as well — both structures
//! are provided here.

use std::collections::{HashSet, VecDeque};

use crate::hash::MixState;
use crate::id::MessageId;

/// A set-like structure answering "was this message seen recently?".
///
/// `insert` returns `true` when the id was **not** present (the message is
/// fresh and must be delivered/forwarded), `false` when it is a duplicate.
pub trait DuplicateFilter {
    /// Registers `id`; returns whether it was fresh.
    fn insert(&mut self, id: MessageId) -> bool;

    /// Whether `id` is currently considered seen (no side effects).
    fn contains(&self, id: MessageId) -> bool;

    /// Number of ids currently tracked (approximate for probabilistic
    /// filters).
    fn len(&self) -> usize;

    /// Whether the filter currently tracks nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An exact FIFO cache of the `capacity` most recently seen ids.
///
/// The default duplicate filter: exact (no false positives), with the oldest
/// id evicted once capacity is reached — so a message can be re-delivered
/// only if it arrives again after `capacity` fresher messages, which the
/// paper accepts ("there is no actual guarantee of a deliver-and-forward
/// once behavior").
///
/// The set is hashed with the keyed [`MixState`] mixer rather than SipHash:
/// the node probes it once per received message part, and for 128-bit ids
/// the default hasher costs more than the probe. Eviction order comes from
/// the queue, never from the set's iteration order.
///
/// # Example
///
/// ```
/// use semantic_gossip::{DuplicateFilter, MessageId, RecentCache};
///
/// let mut cache = RecentCache::new(2);
/// let id = |v| MessageId::from_u128(v);
/// assert!(cache.insert(id(1)));
/// assert!(!cache.insert(id(1))); // duplicate
/// cache.insert(id(2));
/// cache.insert(id(3));           // evicts id 1
/// assert!(cache.insert(id(1))); // fresh again
/// ```
#[derive(Debug, Clone)]
pub struct RecentCache {
    set: HashSet<MessageId, MixState>,
    order: VecDeque<MessageId>,
    capacity: usize,
}

impl RecentCache {
    /// Creates a cache remembering up to `capacity` ids.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        RecentCache {
            set: HashSet::with_capacity_and_hasher(capacity, MixState::new()),
            order: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl DuplicateFilter for RecentCache {
    fn insert(&mut self, id: MessageId) -> bool {
        if !self.set.insert(id) {
            return false;
        }
        if self.order.len() == self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        self.order.push_back(id);
        true
    }

    fn contains(&self, id: MessageId) -> bool {
        self.set.contains(&id)
    }

    fn len(&self) -> usize {
        self.set.len()
    }
}

/// A sliding Bloom filter: two alternating Bloom generations.
///
/// Inserts go to the current generation; lookups consult both. When the
/// current generation has absorbed `generation_capacity` inserts, the older
/// generation is cleared and the roles swap — ids older than one full
/// generation are forgotten, like the FIFO cache but in O(bits) memory with
/// a small false-positive rate (a false positive drops a fresh message,
/// which gossip's redundancy masks). This is the "sliding Bloom filter"
/// alternative mentioned in §3.3 of the paper.
///
/// # Example
///
/// ```
/// use semantic_gossip::{DuplicateFilter, MessageId, SlidingBloom};
///
/// let mut bloom = SlidingBloom::new(1024, 100);
/// assert!(bloom.insert(MessageId::from_u128(1)));
/// assert!(!bloom.insert(MessageId::from_u128(1)));
/// ```
#[derive(Debug, Clone)]
pub struct SlidingBloom {
    generations: [Vec<u64>; 2],
    bits: usize,
    current: usize,
    inserted_current: usize,
    generation_capacity: usize,
    approx_len: usize,
}

impl SlidingBloom {
    /// Number of hash probes per id.
    const PROBES: usize = 4;

    /// Creates a filter with `bits` bits per generation, sliding every
    /// `generation_capacity` inserts.
    ///
    /// # Panics
    ///
    /// Panics if `bits` or `generation_capacity` is zero.
    pub fn new(bits: usize, generation_capacity: usize) -> Self {
        assert!(bits > 0, "bloom filter needs at least one bit");
        assert!(
            generation_capacity > 0,
            "generation capacity must be positive"
        );
        let words = bits.div_ceil(64);
        SlidingBloom {
            generations: [vec![0u64; words], vec![0u64; words]],
            bits: words * 64,
            current: 0,
            inserted_current: 0,
            generation_capacity,
            approx_len: 0,
        }
    }

    fn probe_positions(&self, id: MessageId) -> [usize; Self::PROBES] {
        // Double hashing from the two words of the id. The words are mixed
        // (SplitMix64 finalizer) so that structured ids differing only in
        // high bits still probe different positions after the modulo, which
        // only keeps low bits.
        fn mix(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let h1 = mix(id.low() ^ mix(id.high()));
        let h2 = mix(id.high().wrapping_mul(0xc2b2_ae3d_27d4_eb4f) ^ id.low()) | 1;
        let mut out = [0usize; Self::PROBES];
        for (i, slot) in out.iter_mut().enumerate() {
            let h = h1.wrapping_add(h2.wrapping_mul(i as u64));
            *slot = (h % self.bits as u64) as usize;
        }
        out
    }

    fn generation_contains(gen: &[u64], positions: &[usize]) -> bool {
        positions
            .iter()
            .all(|&p| gen[p / 64] & (1 << (p % 64)) != 0)
    }

    fn set_bits(gen: &mut [u64], positions: &[usize]) {
        for &p in positions {
            gen[p / 64] |= 1 << (p % 64);
        }
    }
}

impl DuplicateFilter for SlidingBloom {
    fn insert(&mut self, id: MessageId) -> bool {
        let positions = self.probe_positions(id);
        if Self::generation_contains(&self.generations[self.current], &positions)
            || Self::generation_contains(&self.generations[1 - self.current], &positions)
        {
            return false;
        }
        if self.inserted_current == self.generation_capacity {
            // Slide: forget the old generation, start filling it anew.
            self.current = 1 - self.current;
            self.generations[self.current].fill(0);
            self.approx_len = self.approx_len.min(self.generation_capacity);
            self.inserted_current = 0;
        }
        Self::set_bits(&mut self.generations[self.current], &positions);
        self.inserted_current += 1;
        self.approx_len += 1;
        true
    }

    fn contains(&self, id: MessageId) -> bool {
        let positions = self.probe_positions(id);
        Self::generation_contains(&self.generations[0], &positions)
            || Self::generation_contains(&self.generations[1], &positions)
    }

    fn len(&self) -> usize {
        self.approx_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn id(v: u128) -> MessageId {
        MessageId::from_u128(v)
    }

    #[test]
    fn recent_cache_detects_duplicates() {
        let mut c = RecentCache::new(10);
        assert!(c.insert(id(1)));
        assert!(c.contains(id(1)));
        assert!(!c.insert(id(1)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn recent_cache_evicts_fifo() {
        let mut c = RecentCache::new(3);
        for v in 1..=3 {
            c.insert(id(v));
        }
        c.insert(id(4)); // evicts 1
        assert!(!c.contains(id(1)));
        assert!(c.contains(id(2)));
        assert_eq!(c.len(), 3);
        assert!(c.insert(id(1))); // fresh again
    }

    #[test]
    fn duplicate_insert_does_not_evict() {
        let mut c = RecentCache::new(2);
        c.insert(id(1));
        c.insert(id(2));
        // Re-inserting a present id must not push anything out.
        assert!(!c.insert(id(2)));
        assert!(c.contains(id(1)));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        RecentCache::new(0);
    }

    #[test]
    fn bloom_basic_duplicate_detection() {
        let mut b = SlidingBloom::new(4096, 100);
        assert!(b.insert(id(42)));
        assert!(b.contains(id(42)));
        assert!(!b.insert(id(42)));
    }

    #[test]
    fn bloom_slides_and_forgets() {
        let mut b = SlidingBloom::new(1 << 14, 50);
        for v in 0..150u128 {
            b.insert(id(v));
        }
        // Ids from the first generation (0..50) have been forgotten after
        // two slides.
        let forgotten = (0..50u128).filter(|&v| !b.contains(id(v))).count();
        assert!(forgotten > 40, "only {forgotten} of 50 forgotten");
        // The most recent generation is always remembered.
        assert!((100..150u128).all(|v| b.contains(id(v))));
    }

    #[test]
    fn bloom_false_positive_rate_is_low() {
        let mut b = SlidingBloom::new(1 << 16, 1000);
        for v in 0..1000u128 {
            b.insert(id(v));
        }
        let fp = (1_000_000..1_002_000u128)
            .filter(|&v| b.contains(id(v)))
            .count();
        assert!(fp < 20, "false positive count {fp} too high");
    }

    #[test]
    fn bloom_len_is_tracked() {
        let mut b = SlidingBloom::new(4096, 10);
        for v in 0..5u128 {
            b.insert(id(v));
        }
        assert_eq!(b.len(), 5);
        assert!(!b.is_empty());
    }

    proptest! {
        /// Against a `VecDeque` model: an id is fresh exactly when it is not
        /// among the `capacity` most recently admitted ids, eviction is
        /// strictly first-in-first-out, an evicted id is admitted again,
        /// and `len`/`contains` agree with the model after every step. The
        /// ids are structural (kind in the top bits) like the protocol's.
        #[test]
        fn prop_recent_cache_matches_fifo_model(ids in proptest::collection::vec(0u128..50, 1..200), cap in 1usize..20) {
            let structural = |v: u128| id(((v % 7) << 120) | (v << 64) | (v * 3));
            let mut c = RecentCache::new(cap);
            let mut recent: VecDeque<u128> = VecDeque::new();
            for &v in &ids {
                let expected_fresh = !recent.contains(&v);
                let fresh = c.insert(structural(v));
                prop_assert_eq!(fresh, expected_fresh);
                if expected_fresh {
                    recent.push_back(v);
                    if recent.len() > cap {
                        recent.pop_front();
                    }
                }
                prop_assert_eq!(c.len(), recent.len());
                for probe in 0u128..50 {
                    prop_assert_eq!(c.contains(structural(probe)), recent.contains(&probe));
                }
            }
        }

        /// The Bloom filter never yields a false negative within the current
        /// generation.
        #[test]
        fn prop_bloom_no_false_negative(ids in proptest::collection::hash_set(0u128..10_000, 1..100)) {
            let mut b = SlidingBloom::new(1 << 15, 10_000);
            for &v in &ids {
                b.insert(id(v));
            }
            for &v in &ids {
                prop_assert!(b.contains(id(v)));
            }
        }
    }
}
