//! A cheap keyed hasher for the hot-path tables.
//!
//! The duplicate cache and the semantic summaries are probed several
//! thousand times per decision with small fixed-width keys (128-bit message
//! ids, instance numbers). `std`'s SipHash-1-3 costs more than the table
//! probe it feeds; [`MixHasher`] replaces it with one folded 64×64→128-bit
//! multiply per word, which avalanches into both the low bits (bucket
//! index) and the high bits (control bytes) a `HashMap` reads.
//!
//! Message ids are *structural* — a peer chooses the instance, round and
//! voter that make up an id — so an unkeyed mixer could be aimed at one
//! bucket. Every [`MixState`] therefore draws a seed from
//! [`RandomState`] once, when its table is built. Nothing may depend on the
//! iteration order of a table hashed this way; the simulator's bit-exact
//! replay relies on that.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// Odd constants from the golden ratio and π; any odd, bit-dense pair works.
const K0: u64 = 0x9e37_79b9_7f4a_7c15;
const K1: u64 = 0x243f_6a88_85a3_08d3;

/// `a × b` as 128 bits, high half folded onto the low half.
#[inline]
const fn folded_mul(a: u64, b: u64) -> u64 {
    let wide = (a as u128).wrapping_mul(b as u128);
    (wide as u64) ^ ((wide >> 64) as u64)
}

/// Unkeyed 64-bit fold of a few words, for grouping keys that never index a
/// long-lived table (e.g. [`GossipItem::aggregation_key`]).
///
/// [`GossipItem::aggregation_key`]: crate::GossipItem::aggregation_key
#[inline]
pub fn mix_words(words: &[u64]) -> u64 {
    words.iter().fold(K1, |state, &w| folded_mul(state ^ w, K0))
}

/// [`BuildHasher`] handing out [`MixHasher`]s that share one random seed.
#[derive(Debug, Clone)]
pub struct MixState {
    seed: u64,
}

impl MixState {
    /// A state with a fresh seed from the process's entropy source.
    pub fn new() -> Self {
        // RandomState is the only entropy source std offers; hashing a
        // constant through it yields 64 seed-dependent bits.
        MixState {
            seed: RandomState::new().hash_one(K1),
        }
    }
}

impl Default for MixState {
    fn default() -> Self {
        MixState::new()
    }
}

impl BuildHasher for MixState {
    type Hasher = MixHasher;

    #[inline]
    fn build_hasher(&self) -> MixHasher {
        MixHasher { state: self.seed }
    }
}

/// Multiply-xor hasher for small integer keys (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct MixHasher {
    state: u64,
}

impl MixHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.state = folded_mul(self.state ^ w, K0);
    }
}

impl Hasher for MixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // One more round so the last word written reaches every output bit.
        folded_mul(self.state, K1)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            // The length keeps "ab" and "ab\0" apart.
            self.word(u64::from_le_bytes(last) ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.word(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }
    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.word(i as u64);
        self.word((i >> 64) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn hash_u128(state: &MixState, v: u128) -> u64 {
        state.hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_seeds_differ() {
        let a = MixState::new();
        assert_eq!(hash_u128(&a, 42), hash_u128(&a.clone(), 42));
        // Two tables draw two seeds (64 random bits: a clash is a bug).
        let b = MixState::new();
        assert_ne!(hash_u128(&a, 42), hash_u128(&b, 42));
    }

    /// Structural ids differ in a few high or low bits only; both the
    /// bucket index (low bits) and the control byte (top 7 bits) must
    /// still spread.
    #[test]
    fn structured_ids_spread_over_low_and_high_bits() {
        let state = MixState::new();
        let mut low = HashSet::new();
        let mut high = HashSet::new();
        for voter in 0..64u128 {
            for instance in 0..64u128 {
                let id = (5u128 << 120) | (voter << 88) | instance;
                let h = hash_u128(&state, id);
                low.insert(h & 0xfff);
                high.insert(h >> 57);
            }
        }
        // 4096 keys into 4096 low buckets: a uniform hash fills ~63%.
        assert!(low.len() > 2300, "low bits clump: {}", low.len());
        assert_eq!(high.len(), 128, "control bytes clump");
    }

    #[test]
    fn byte_strings_of_different_length_differ() {
        let state = MixState::new();
        let hash = |bytes: &[u8]| {
            let mut h = state.build_hasher();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(b"ab"), hash(b"ab\0"));
        assert_ne!(hash(b"12345678"), hash(b"12345678\0"));
        assert_eq!(hash(b"123456789"), hash(b"123456789"));
    }

    #[test]
    fn mix_words_is_stable_and_order_sensitive() {
        assert_eq!(mix_words(&[1, 2, 3]), mix_words(&[1, 2, 3]));
        assert_ne!(mix_words(&[1, 2, 3]), mix_words(&[3, 2, 1]));
        assert_ne!(mix_words(&[0]), mix_words(&[0, 0]));
    }
}
