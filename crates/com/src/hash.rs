//! A keyed hasher for the runtime's id-keyed maps.
//!
//! The standard `RandomState` runs SipHash-1-3, whose per-key cost dominates
//! maps keyed by small integers and GUIDs on the call path. [`FoldState`]
//! replaces it with one folded 64×64→128-bit multiply per word. Its seed is
//! drawn per map, exactly like `RandomState`'s keys, so keys read from an
//! image (a hostile input) cannot be chosen to collide in a map they do not
//! know the seed of.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// Odd constant mixed into the seed so a zero seed still multiplies.
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiplies in 128 bits and folds the halves together.
fn fold(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    (wide as u64) ^ ((wide >> 64) as u64)
}

/// Builds [`FoldHasher`]s that share one seed, drawn when the map is made.
#[derive(Clone, Debug)]
pub struct FoldState {
    seed: u64,
}

impl Default for FoldState {
    fn default() -> Self {
        FoldState {
            seed: RandomState::new().hash_one(0u64),
        }
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            acc: self.seed,
            key: self.seed ^ MIX,
        }
    }
}

/// One folded multiply per 64-bit word written, keyed by the map's seed.
#[derive(Debug)]
pub struct FoldHasher {
    acc: u64,
    key: u64,
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.write_u64(u64::from_le_bytes(tail) ^ (bytes.len() as u64).rotate_left(56));
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.acc = fold(self.acc ^ x, self.key);
    }

    fn write_u128(&mut self, x: u128) {
        self.write_u64(x as u64);
        self.write_u64((x >> 64) as u64);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        fold(self.acc, MIX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn each_map_draws_its_own_seed() {
        let (a, b) = (FoldState::default(), FoldState::default());
        assert_ne!(a.hash_one(42u64), b.hash_one(42u64));
        // One map hashes a key the same way every time.
        assert_eq!(a.hash_one(42u64), a.hash_one(42u64));
        assert_eq!(a.clone().hash_one(42u64), a.hash_one(42u64));
    }

    #[test]
    fn distinct_keys_hash_apart() {
        let state = FoldState::default();
        let hashes: HashSet<u64> = (0u64..1000).map(|k| state.hash_one(k)).collect();
        assert_eq!(hashes.len(), 1000);
        assert_ne!(state.hash_one([1u8, 2]), state.hash_one([1u8, 2, 0]));
    }
}
