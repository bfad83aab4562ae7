//! Hash maps keyed by task, group and document ids.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` from a `u64` task, group or document id, hashed by a fixed
/// full-avalanche finalizer instead of `std`'s keyed SipHash, which costs
/// most of a probe and protects nothing here: the ids are the program's own
/// counters (`doc · 2`, `doc · stride + k`), looked up several times per
/// task. Build one with `IdMap::default()`.
///
/// Not for keys from outside the program (the hash is unkeyed, so crafted
/// keys can collide). As with any `HashMap`, iteration order is not part of
/// the contract: the simulator only uses `get`, `insert`, `entry`,
/// `remove`, `retain` and `clear` on these maps, never an iteration that
/// reaches a report.
pub type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// MurmurHash3's 64-bit finalizer (two multiplies, three xor-shifts): every
/// input bit reaches every output bit, which strided ids need — hashbrown
/// takes a key's bucket from the hash's low bits and its in-group tag from
/// the top seven, so an identity or single-multiply hash would pile
/// `i << 32` into one bucket or one tag.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, id: u64) {
        let mut x = self.0 ^ id;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        self.0 = x ^ (x >> 33);
    }

    /// Any other input goes through `write_u64` eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}
