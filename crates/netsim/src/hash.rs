//! Keyed fast hashing for the simulator's and the cloud's maps.
//!
//! std's `HashMap` hashes with SipHash-1-3, which costs more than the rest
//! of a lookup for the small integer and 16-byte keys these maps hold
//! (node ids, device ids, tokens). [`KeyedState`] folds each word into the
//! state with one 64×64→128-bit multiply instead. Every map draws a fresh
//! random key from std's [`RandomState`], as std does, so two things stay
//! as they are with SipHash:
//!
//! * device ids are attacker-chosen, and without the key no one can
//!   precompute a set of ids that collide;
//! * iteration order differs between maps and between runs, so code that
//!   depends on it keeps failing its tests instead of passing by luck.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` hashed with [`KeyedState`].
pub type HashMap<K, V> = std::collections::HashMap<K, V, KeyedState>;
/// A `HashSet` hashed with [`KeyedState`].
pub type HashSet<T> = std::collections::HashSet<T, KeyedState>;

/// An odd 64-bit constant with no structure in its bits (the fractional
/// part of the golden ratio).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Builds [`FoldHasher`]s that start from one random per-map key.
#[derive(Debug, Clone)]
pub struct KeyedState {
    key: u64,
}

impl Default for KeyedState {
    fn default() -> Self {
        KeyedState {
            key: RandomState::new().build_hasher().finish(),
        }
    }
}

impl BuildHasher for KeyedState {
    type Hasher = FoldHasher;
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { state: self.key }
    }
}

/// The hasher: each 64-bit word is XORed into the state, and the state
/// becomes the XOR of both halves of its 128-bit product with a fixed odd
/// constant.
#[derive(Debug, Clone)]
pub struct FoldHasher {
    state: u64,
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        // The length goes first, so zero padding of the tail cannot make
        // two byte strings ("a" and "a\0") fold the same words.
        self.write_usize(bytes.len());
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut w = [0u8; 8];
            w.copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(w));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.state ^ n) * u128::from(MUL);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write_u128(&mut self, n: u128) {
        self.write_u64(n as u64);
        self.write_u64((n >> 64) as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_keys_hash_apart() {
        let state = KeyedState::default();
        let hashes: HashSet<u64> = (0..10_000u64).map(|n| state.hash_one(n)).collect();
        assert_eq!(hashes.len(), 10_000);
        // The low bits pick the bucket: they must spread too.
        let buckets: HashSet<u64> = (0..256u64).map(|n| state.hash_one(n) & 0xff).collect();
        assert!(buckets.len() > 128, "{} of 256 buckets used", buckets.len());
    }

    #[test]
    fn every_map_draws_its_own_key() {
        let (a, b) = (KeyedState::default(), KeyedState::default());
        assert_ne!(a.hash_one(7u64), b.hash_one(7u64));
        assert_eq!(a.hash_one(7u64), a.clone().hash_one(7u64));
    }

    #[test]
    fn byte_tails_are_hashed() {
        let state = KeyedState::default();
        assert_ne!(state.hash_one("abcdefgh1"), state.hash_one("abcdefgh2"));
        assert_ne!(state.hash_one("a"), state.hash_one("b"));
        assert_ne!(state.hash_one("a"), state.hash_one("a\0"));
    }
}
