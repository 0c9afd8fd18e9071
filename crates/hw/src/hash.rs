//! One fixed, deterministic hasher for the crate's `u64`-keyed maps.
//!
//! `std`'s default SipHash is randomly keyed and costs tens of cycles per
//! key. The maps that use [`U64Map`] sit on per-DMA and per-page paths
//! (the [`crate::mem::PhysMem`] object table and the
//! [`crate::block::BlockStore`] page map), so they hash with one 128-bit
//! folded multiply instead.
//!
//! A fixed hasher is safe here only because neither map is ever iterated
//! for a result: lookups, inserts and removals return the same answers
//! under any hasher, so swapping it cannot move a simulated outcome. Keep
//! it that way — a map whose iteration order feeds a result needs an
//! ordered container, not this one.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by `u64` with the fixed [`U64Hasher`].
pub(crate) type U64Map<V> = HashMap<u64, V, BuildHasherDefault<U64Hasher>>;

/// Folded-multiply hasher for one `u64` key: the high and low halves of
/// `key × K` xored, so both the bucket index (low bits) and the control
/// byte (high bits) depend on every key bit — addresses spaced by
/// `0x1000` still spread.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct U64Hasher(u64);

impl Hasher for U64Hasher {
    fn finish(&self) -> u64 {
        let p = u128::from(self.0) * 0x9E37_79B9_7F4A_7C15;
        (p as u64) ^ ((p >> 64) as u64)
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys use this hasher; fold any other input byte-wise
        // so it stays a correct (if slower) hasher.
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 ^= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_strided_keys_spread_over_buckets() {
        // PhysMem hands out addresses 0x1000 apart: their low bucket bits
        // must still differ.
        let buckets: std::collections::HashSet<u64> = (0..256u64)
            .map(|i| {
                let mut h = U64Hasher::default();
                h.write_u64(0x1000_0000 + i * 0x1000);
                h.finish() & 0xff
            })
            .collect();
        assert!(buckets.len() > 128, "{} of 256 buckets used", buckets.len());
    }
}
