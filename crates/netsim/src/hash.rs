//! A fast hash for maps keyed by the program's own integers.

use std::hash::{BuildHasherDefault, Hasher};

/// The rustc "Fx" hash with a final rotation: one multiply per word.
/// For keys the program makes itself (ids, addresses), which no input
/// can craft to collide, so no DoS resistance is needed; keep the
/// default hasher for keys from outside the program. The rotation moves
/// the well-mixed high product bits to where the hash table takes its
/// bucket index from.
#[derive(Default)]
pub struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s, for `HashMap<K, V, FxBuildHasher>`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
