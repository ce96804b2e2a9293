//! The one hasher for maps keyed by a block address or an internal id.
//!
//! Every such key is a single integer the simulator itself produced — an
//! [`Lba`](crate::block::Lba), a slot number, a slab index — so std's
//! SipHash buys nothing (nobody crafts these keys: even a replayed trace's
//! addresses come from a file the operator chose to run) and costs several
//! dozen cycles on every lookup. Keys that arrive from an untrusted party keep
//! std's `HashMap`. [`AddrHasher`] is one 64 × 64 → 128-bit multiply
//! whose halves are xor-folded: the high half carries every input bit down
//! into the low bits `hashbrown` picks a bucket from, the low half carries
//! them up into the top 7 it tags a bucket with, so sequential addresses,
//! power-of-two strides and VM-tagged clones (only the top byte differs)
//! all spread. It is fixed, not per-process random, so iteration order is
//! reproducible — which no result may lean on all the same (DESIGN.md §9).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by an address or id, hashed with [`AddrHasher`].
pub type AddrMap<K, V> = HashMap<K, V, BuildHasherDefault<AddrHasher>>;
/// A `HashSet` of addresses or ids, hashed with [`AddrHasher`].
pub type AddrSet<K> = HashSet<K, BuildHasherDefault<AddrHasher>>;

/// Multiply-fold hasher for integer keys; see the module docs.
///
/// # Examples
///
/// ```
/// use icash_storage::hash::AddrMap;
/// use icash_storage::Lba;
///
/// let mut slots: AddrMap<Lba, u64> = AddrMap::default();
/// slots.insert(Lba::new(7), 3);
/// assert_eq!(slots.get(&Lba::new(7)), Some(&3));
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct AddrHasher(u64);

impl AddrHasher {
    /// 2⁶⁴ / φ: odd, and no run of equal bits long enough to let a
    /// power-of-two stride cancel.
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
}

impl Hasher for AddrHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let wide = u128::from(self.0 ^ x) * u128::from(Self::K);
        self.0 = wide as u64 ^ (wide >> 64) as u64;
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Fallback for keys that are not one integer (`LruMap` is generic):
    /// eight bytes a step, the tail zero-padded into one more.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Lba;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(key: T) -> u64 {
        BuildHasherDefault::<AddrHasher>::default().hash_one(key)
    }

    /// The fullest of `2^bits` buckets when `keys` are filed by `bucket_of`
    /// their hash.
    fn max_load(keys: &[u64], bits: u32, bucket_of: impl Fn(u64) -> usize) -> usize {
        let mut load = vec![0usize; 1 << bits];
        for &k in keys {
            load[bucket_of(hash_of(Lba::new(k)))] += 1;
        }
        load.into_iter().max().unwrap_or(0)
    }

    /// `hashbrown` picks a group from the low bits and tags the entry with
    /// the top 7; a key pattern must spread over both. With `n` keys over
    /// `b` buckets a uniform hash has a mean load of `n / b`; the bound is
    /// twice that plus a constant for the sparse tables (a random function
    /// fills some bucket of 2¹⁶ with 7 or 8 of 2¹⁶ keys).
    fn assert_spreads(what: &str, keys: &[u64]) {
        for k in [4u32, 8, 12, 16] {
            let mean = keys.len() >> k;
            let low = max_load(keys, k, |h| (h & ((1 << k) - 1)) as usize);
            assert!(
                low <= 2 * mean + 8,
                "{what}: low {k} bits: max load {low}, mean {mean}"
            );
        }
        let mean = keys.len() >> 7;
        let top = max_load(keys, 7, |h| (h >> 57) as usize);
        assert!(
            top <= 2 * mean + 8,
            "{what}: top 7 bits: max load {top}, mean {mean}"
        );
    }

    #[test]
    fn sequential_and_strided_addresses_spread() {
        const N: u64 = 1 << 16;
        assert_spreads("sequential", &(0..N).collect::<Vec<_>>());
        // Family, shard-inner, span and segment strides.
        for stride in [32u64, 64, 512, 1 << 16] {
            let keys: Vec<u64> = (0..N).map(|i| 0x1234 + i * stride).collect();
            assert_spreads(&format!("stride {stride}"), &keys);
        }
    }

    #[test]
    fn vm_tagged_clones_of_one_offset_spread() {
        // 256 VMs × 256 offsets: within one offset only the top byte moves.
        let keys: Vec<u64> = (0..=255u8)
            .flat_map(|vm| (0..256u64).map(move |off| Lba::new(off * 64).with_vm(vm).raw()))
            .collect();
        assert_spreads("vm clones", &keys);
        let one_offset: Vec<u64> = (0..=255u8)
            .map(|vm| Lba::new(77).with_vm(vm).raw())
            .collect();
        for k in [4u32, 8] {
            let low = max_load(&one_offset, k, |h| (h & ((1 << k) - 1)) as usize);
            assert!(low <= (256 >> k) * 2 + 4, "one offset, low {k}: {low}");
        }
        let top = max_load(&one_offset, 7, |h| (h >> 57) as usize);
        assert!(top <= 8, "one offset, top 7: {top}");
    }

    #[test]
    fn integer_widths_agree_and_distinct_keys_differ() {
        assert_eq!(hash_of(9u32), hash_of(9u64));
        assert_eq!(hash_of(9usize), hash_of(9u64));
        assert_eq!(hash_of(Lba::new(9)), hash_of(9u64));
        assert_ne!(hash_of(9u64), hash_of(10u64));
    }

    #[test]
    fn byte_slices_fold_eight_bytes_a_step() {
        // `str` hashes as its bytes, then a 0xff terminator byte.
        let by_hand = |s: &str| {
            let mut h = AddrHasher::default();
            for chunk in s.as_bytes().chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                h.write_u64(u64::from_le_bytes(word));
            }
            h.write_u64(0xff);
            h.finish()
        };
        for s in [
            "",
            "a",
            "eight_by",
            "nine_byte",
            "a key well past sixteen bytes",
        ] {
            assert_eq!(hash_of(s), by_hand(s), "{s:?}");
        }
        // Order and length both reach the result.
        assert_ne!(hash_of("ab"), hash_of("ba"));
        assert_ne!(hash_of("eight_byeight_by"), hash_of("eight_by"));

        let mut map: AddrMap<&str, u32> = AddrMap::default();
        for (i, s) in ["alpha", "beta", "gamma", "a much longer key"]
            .iter()
            .enumerate()
        {
            map.insert(s, i as u32);
        }
        assert_eq!(map.get("gamma"), Some(&2));
        assert_eq!(map.get("a much longer key"), Some(&3));
        assert_eq!(map.get("delta"), None);
    }
}
