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
//!
//! Spreading is what a map wants when its lookups are independent. When
//! they come in runs of neighbouring addresses — a log fetch walking the
//! entries of up to sixteen packed blocks, the table trim evicting blocks
//! that were admitted together — each probe of an [`AddrMap`] is a cache
//! miss on a bucket of its own. [`AddrPages`] files [`PAGE_LBAS`] consecutive
//! addresses under one key instead, so a run of neighbours is one bucket.

use crate::block::Lba;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by an address or id, hashed with [`AddrHasher`].
pub type AddrMap<K, V> = HashMap<K, V, BuildHasherDefault<AddrHasher>>;
/// A `HashSet` of addresses or ids, hashed with [`AddrHasher`].
pub type AddrSet<K> = HashSet<K, BuildHasherDefault<AddrHasher>>;

/// A page's occupancy: bit `i` set iff slot `i` holds a value.
type Mask = u16;

/// Consecutive addresses one [`AddrPages`] page covers, one per bit of its
/// occupancy mask. 64-address pages measured no faster and raised one
/// workload's peak memory by 2 MB (DESIGN.md §9, "Tried and not kept").
pub const PAGE_LBAS: usize = Mask::BITS as usize;

/// One [`AddrPages`] bucket: the values of [`PAGE_LBAS`] consecutive
/// addresses, and which of them are present. A slot whose bit is clear
/// holds a stale copy, never read: so a page of `u32`s is one 64-byte line
/// plus the mask, with no value set aside to mean "empty".
#[derive(Debug, Clone)]
struct Page<V> {
    slots: [V; PAGE_LBAS],
    live: Mask,
}

/// A map from [`Lba`] to `V` whose buckets are pages of [`PAGE_LBAS`]
/// consecutive addresses: an [`AddrMap`] from page number to page, a page
/// dropped when its last value goes. Lookups of neighbouring addresses land
/// in one bucket; a lone address costs a whole page.
///
/// # Examples
///
/// ```
/// use icash_storage::hash::AddrPages;
/// use icash_storage::Lba;
///
/// let mut slab: AddrPages<u32> = AddrPages::default();
/// slab.insert(Lba::new(15), 3);
/// slab.insert(Lba::new(16), 4); // the next page
/// assert_eq!(slab.get(Lba::new(15)), Some(&3));
/// assert_eq!(slab.remove(Lba::new(16)), Some(4));
/// assert_eq!(slab.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct AddrPages<V> {
    pages: AddrMap<u64, Page<V>>,
    len: usize,
}

impl<V> Default for AddrPages<V> {
    fn default() -> Self {
        AddrPages {
            pages: AddrMap::default(),
            len: 0,
        }
    }
}

/// The page number of `lba` and its slot's bit in that page.
#[inline]
fn page_of(lba: Lba) -> (u64, usize) {
    let raw = lba.raw();
    (raw / PAGE_LBAS as u64, (raw % PAGE_LBAS as u64) as usize)
}

/// The `slots` of page `key` whose bit is set in `live`, with their
/// addresses.
fn live_slots<V, I: IntoIterator<Item = V>>(
    key: u64,
    live: Mask,
    slots: I,
) -> impl Iterator<Item = (Lba, V)> {
    let first = key * PAGE_LBAS as u64;
    (0..)
        .zip(slots)
        .filter(move |&(i, _)| live >> i & 1 == 1)
        .map(move |(i, v)| (Lba::new(first + i), v))
}

impl<V: Copy> AddrPages<V> {
    /// Bytes one page takes; its bucket adds the `u64` page number.
    pub const PAGE_BYTES: usize = std::mem::size_of::<Page<V>>();

    /// Number of addresses with a value.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no address has a value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value at `lba`.
    #[inline]
    pub fn get(&self, lba: Lba) -> Option<&V> {
        let (key, slot) = page_of(lba);
        let page = self.pages.get(&key)?;
        (page.live >> slot & 1 == 1).then(|| &page.slots[slot])
    }

    /// The value at `lba`, for update in place.
    #[inline]
    pub fn get_mut(&mut self, lba: Lba) -> Option<&mut V> {
        let (key, slot) = page_of(lba);
        let page = self.pages.get_mut(&key)?;
        (page.live >> slot & 1 == 1).then(|| &mut page.slots[slot])
    }

    /// Sets the value at `lba`, returning the one it replaces.
    pub fn insert(&mut self, lba: Lba, value: V) -> Option<V> {
        let (key, slot) = page_of(lba);
        let bit = 1 << slot;
        let page = self.pages.entry(key).or_insert_with(|| Page {
            slots: [value; PAGE_LBAS],
            live: 0,
        });
        let old = std::mem::replace(&mut page.slots[slot], value);
        if page.live & bit != 0 {
            return Some(old);
        }
        page.live |= bit;
        self.len += 1;
        None
    }

    /// Takes the value at `lba` out, dropping its page if it was the last.
    pub fn remove(&mut self, lba: Lba) -> Option<V> {
        let (key, slot) = page_of(lba);
        let page = self.pages.get_mut(&key)?;
        let bit = 1 << slot;
        if page.live & bit == 0 {
            return None;
        }
        page.live &= !bit;
        self.len -= 1;
        let old = page.slots[slot];
        if page.live == 0 {
            self.pages.remove(&key);
        }
        Some(old)
    }

    /// Every address with its value: pages in hash order, addresses
    /// ascending within a page. No result may depend on the order.
    pub fn iter(&self) -> impl Iterator<Item = (Lba, &V)> + '_ {
        self.pages
            .iter()
            .flat_map(|(&key, page)| live_slots(key, page.live, &page.slots))
    }

    /// [`iter`](Self::iter), with each value open for update in place.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Lba, &mut V)> + '_ {
        self.pages
            .iter_mut()
            .flat_map(|(&key, page)| live_slots(key, page.live, &mut page.slots))
    }

    /// Asserts that no empty page is kept and that `len` is the sum of the
    /// pages' live counts. (A page's count *is* its occupancy — the bits
    /// of its mask — so the two cannot disagree.)
    ///
    /// # Panics
    ///
    /// Panics if either does not hold.
    pub fn validate(&self) {
        let mut sum = 0;
        for (&key, page) in &self.pages {
            assert_ne!(page.live, 0, "page {key}: kept empty");
            sum += page.live.count_ones() as usize;
        }
        assert_eq!(self.len, sum, "len is not the sum of the pages' counts");
    }
}

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

    /// An address from one of four neighbourhoods, each with page edges in
    /// reach: the first pages (15 / 16 / 17, 31 / 32), VM-tagged clones of
    /// those offsets, the top of the address space, and the seam below the
    /// first VM tag.
    fn clustered(hood: u8, off: u64, vm: u8) -> Lba {
        match hood {
            0 => Lba::new(off),
            1 => Lba::new(off).with_vm(vm),
            2 => Lba::new(u64::MAX - off),
            _ => Lba::new((1 << 56) - 20 + off),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// `AddrPages` against `AddrMap` as the oracle: after every insert,
        /// remove or update in place, `get` agrees at the address touched
        /// and its neighbours, `iter` agrees as a set, and `validate` holds.
        #[test]
        fn pages_match_an_addr_map(
            ops in proptest::collection::vec(
                ((0u8..4, 0u64..40, 0u8..3), 0u8..3, proptest::strategy::any::<u32>()),
                1..400,
            ),
        ) {
            let mut pages: AddrPages<u32> = AddrPages::default();
            let mut oracle: AddrMap<Lba, u32> = AddrMap::default();
            for ((hood, off, vm), kind, value) in ops {
                let lba = clustered(hood, off, vm);
                match kind {
                    0 => proptest::prop_assert_eq!(
                        pages.insert(lba, value),
                        oracle.insert(lba, value)
                    ),
                    1 => proptest::prop_assert_eq!(pages.remove(lba), oracle.remove(&lba)),
                    _ => {
                        if let Some(v) = pages.get_mut(lba) {
                            *v ^= value;
                        }
                        if let Some(v) = oracle.get_mut(&lba) {
                            *v ^= value;
                        }
                    }
                }
                pages.validate();
                proptest::prop_assert_eq!(pages.len(), oracle.len());
                for near in [lba.raw().wrapping_sub(1), lba.raw(), lba.raw().wrapping_add(1)] {
                    let near = Lba::new(near);
                    proptest::prop_assert_eq!(pages.get(near), oracle.get(&near));
                }
                let mut got: Vec<(Lba, u32)> = pages.iter().map(|(l, &v)| (l, v)).collect();
                let mut want: Vec<(Lba, u32)> = oracle.iter().map(|(&l, &v)| (l, v)).collect();
                got.sort_unstable();
                want.sort_unstable();
                proptest::prop_assert_eq!(got, want);
            }
            // `iter_mut` reaches every value once, at its own address.
            for (lba, v) in pages.iter_mut() {
                *v = lba.raw() as u32;
            }
            for &lba in oracle.keys() {
                proptest::prop_assert_eq!(pages.get(lba), Some(&(lba.raw() as u32)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "kept empty")]
    fn validate_catches_a_kept_empty_page() {
        let mut pages: AddrPages<u32> = AddrPages::default();
        pages.insert(Lba::new(3), 1);
        pages.pages.get_mut(&0).expect("page 0").live = 0;
        pages.len = 0;
        pages.validate();
    }

    #[test]
    #[should_panic(expected = "sum of the pages")]
    fn validate_catches_a_wrong_len() {
        let mut pages: AddrPages<u32> = AddrPages::default();
        pages.insert(Lba::new(3), 1);
        pages.insert(Lba::new(40), 1);
        pages.len = 1;
        pages.validate();
    }
}
