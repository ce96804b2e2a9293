//! Cached chunk indexes for reference blocks.
//!
//! One SSD-pinned reference block serves many delta encodes: its own
//! re-writes, every associate bound to it, scanner re-bind attempts, and
//! offline preload. The chunk codec's reference index (a window-hash table
//! over ~1000 windows, see `icash_delta::codec::ChunkIndex`) costs about as
//! much to build as a probe pass, so rebuilding it per encode — what the
//! seed controller did implicitly inside `chunk::encode` — dominated the
//! encode hot path. [`RefIndexCache`] keeps those indexes alive across
//! calls.
//!
//! ## Lifecycle and invalidation rules
//!
//! * Keyed by **SSD slot**, because the slot's pinned content *is* the
//!   encode base everywhere the controller encodes against a reference
//!   (the slot store's pinned content). An encode borrows the slot's
//!   `Option<ChunkIndex>` through [`RefIndexCache::with_slot`] and hands it
//!   to `DeltaCodec::encode_cached`/`encode_shared`, which builds the index
//!   lazily — sparse-path encodes never pay for it, and only built indexes
//!   are kept.
//! * **Invalidated whenever a slot's content changes or the slot is
//!   freed**: direct SSD writes, reference retirement overwrites,
//!   promotion installs, slot releases, preload installs. Slot content
//!   changes only through `SlotStore::install` / `SlotStore::release`,
//!   and both take this cache and invalidate here first — slot reuse
//!   after a free therefore starts cold, never stale.
//! * The **zero reference** (log-resident independents encode against an
//!   all-zero block) has constant content, so its index is cached under a
//!   dedicated entry and never invalidated.
//! * A crash loses the cache with the rest of RAM; recovery starts cold.
//!
//! The cache is bounded in **bytes** of index heap (`REF_INDEX_CACHE_BYTES`,
//! counted by `ChunkIndex::heap_size`), and over budget it drops the
//! least-recently-used slot first. Recency is the shared [`LruMap`]'s, per
//! controller, so `ICASH_THREADS` fan-out cannot reorder it.

use icash_delta::codec::ChunkIndex;
use icash_storage::lru::LruMap;

/// Index heap one controller may keep cached: what the cache it replaces
/// could grow to (128 indexes of ≈ 57 KB). At ≈ 16 KB per 4 KB reference
/// that is ≈ 450 references.
const REF_INDEX_CACHE_BYTES: usize = 7 << 20;
const _: () = assert!(REF_INDEX_CACHE_BYTES <= 128 * 57 * 1024);

/// Byte-bounded cache of per-slot chunk indexes plus the zero-reference
/// index.
#[derive(Debug)]
pub struct RefIndexCache {
    /// Built indexes only: every value is `Some`. They are stored as the
    /// `Option` the codec's cached entry points take.
    slots: LruMap<u64, Option<ChunkIndex>>,
    /// Sum of `heap_size()` over `slots`.
    bytes: usize,
    budget: usize,
    zero: Option<ChunkIndex>,
}

impl RefIndexCache {
    /// A cache holding at most 7 MiB of slot indexes (the zero-reference
    /// entry is separate and permanent).
    pub fn new() -> Self {
        Self::with_budget(REF_INDEX_CACHE_BYTES)
    }

    fn with_budget(budget: usize) -> Self {
        RefIndexCache {
            slots: LruMap::new(),
            bytes: 0,
            budget,
            zero: None,
        }
    }

    /// Runs `encode` on the (lazily built) index of SSD slot `slot`: the
    /// cached one, marked most recently used, or `None`. An index `encode`
    /// leaves behind is kept, and least-recently-used ones are dropped
    /// until the cache is within its budget again.
    pub fn with_slot<R>(
        &mut self,
        slot: u64,
        encode: impl FnOnce(&mut Option<ChunkIndex>) -> R,
    ) -> R {
        if let Some(index) = self.slots.get_mut(&slot) {
            return encode(index);
        }
        let mut index = None;
        let result = encode(&mut index);
        if index.is_some() {
            self.bytes += heap_size(&index);
            self.slots.insert(slot, index);
            while self.bytes > self.budget {
                let Some((_, evicted)) = self.slots.pop_lru() else {
                    break;
                };
                self.bytes -= heap_size(&evicted);
            }
        }
        result
    }

    /// The (lazily built) index slot for the all-zero reference block.
    pub(crate) fn zero_entry(&mut self) -> &mut Option<ChunkIndex> {
        &mut self.zero
    }

    /// Drops any cached index for `slot`. Must be called before the slot's
    /// pinned content changes or the slot is freed.
    pub(crate) fn invalidate_slot(&mut self, slot: u64) {
        if let Some(index) = self.slots.remove(&slot) {
            self.bytes -= heap_size(&index);
        }
    }

    /// Bytes of index heap currently cached, the zero entry excluded
    /// (tests).
    #[cfg(test)]
    fn cached_bytes(&self) -> usize {
        self.bytes
    }
}

fn heap_size(index: &Option<ChunkIndex>) -> usize {
    index.as_ref().map_or(0, ChunkIndex::heap_size)
}

impl Default for RefIndexCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLOCK: [u8; 4096] = [7; 4096];

    fn index_bytes() -> usize {
        ChunkIndex::build(&BLOCK).heap_size()
    }

    /// One encode against `slot` that needs the chunk codec: reports
    /// whether the index was cached and leaves one built.
    fn touch(cache: &mut RefIndexCache, slot: u64) -> bool {
        cache.with_slot(slot, |index| {
            let hit = index.is_some();
            index.get_or_insert_with(|| ChunkIndex::build(&BLOCK));
            hit
        })
    }

    #[test]
    fn entries_persist_until_invalidated() {
        let mut cache = RefIndexCache::new();
        assert!(!touch(&mut cache, 3), "entries start cold");
        assert!(touch(&mut cache, 3), "entry survives re-lookup");
        assert_eq!(cache.cached_bytes(), index_bytes());
        cache.invalidate_slot(3);
        assert_eq!(cache.cached_bytes(), 0);
        assert!(!touch(&mut cache, 3), "invalidation clears it");
    }

    #[test]
    fn sparse_only_encodes_cache_nothing() {
        let mut cache = RefIndexCache::new();
        for slot in 0..1000 {
            cache.with_slot(slot, |index| assert!(index.is_none()));
        }
        assert_eq!(cache.slots.len(), 0);
        assert_eq!(cache.cached_bytes(), 0);
    }

    #[test]
    fn byte_budget_is_respected() {
        let budget = 5 * index_bytes() + index_bytes() / 2;
        let mut cache = RefIndexCache::with_budget(budget);
        for slot in 0..64 {
            touch(&mut cache, slot);
            assert!(cache.cached_bytes() <= budget);
            let held: usize = cache.slots.iter().map(|(_, index)| heap_size(index)).sum();
            assert_eq!(held, cache.cached_bytes(), "accounting drifted");
        }
        assert_eq!(cache.slots.len(), 5);
        assert!(REF_INDEX_CACHE_BYTES / index_bytes() >= 440);
    }

    /// What the cache holds, and so what `delta.ref_cache_hit_ratio` and
    /// the `RefCache` events report, follows from an index's size alone. The
    /// group bitmap took the place of the window-hash bitmap bit for bit:
    /// 256 + 1021 words and 2048 + 1021 links, as before it. A layout
    /// change that moves this number moves those reports and says so.
    #[test]
    fn a_block_index_is_as_large_as_before_the_group_bitmap() {
        assert_eq!(index_bytes(), (256 + 1021) * 8 + (2048 + 1021) * 2);
        assert_eq!(ChunkIndex::build(&[0u8; 4096]).heap_size(), index_bytes());
        assert_eq!(REF_INDEX_CACHE_BYTES / index_bytes(), 448);
    }

    /// The cache this one replaced: a tick per access, and on a miss at
    /// capacity an O(capacity) scan for the oldest tick (lowest slot on
    /// ties). Kept as the oracle for eviction order.
    struct TickLru {
        last_used: std::collections::HashMap<u64, u64>,
        tick: u64,
        capacity: usize,
    }

    impl TickLru {
        fn touch(&mut self, slot: u64) -> bool {
            self.tick += 1;
            let hit = self.last_used.contains_key(&slot);
            if !hit && self.last_used.len() >= self.capacity {
                let victim = self
                    .last_used
                    .iter()
                    .map(|(&s, &t)| (t, s))
                    .min()
                    .map(|(_, s)| s)
                    .expect("capacity is at least one");
                self.last_used.remove(&victim);
            }
            self.last_used.insert(slot, self.tick);
            hit
        }
    }

    #[test]
    fn eviction_order_equals_the_tick_lru() {
        let capacity = 8;
        let mut cache = RefIndexCache::with_budget(capacity * index_bytes());
        let mut oracle = TickLru {
            last_used: Default::default(),
            tick: 0,
            capacity,
        };
        // A recorded sequence: a skewed walk over 24 slots, so hits,
        // capacity misses and re-references of evicted slots all occur,
        // with an invalidation every 37th step.
        let mut x = 0x1CA5_4001u64;
        for step in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x % 24).min(x >> 8 & 31);
            if step % 37 == 0 {
                cache.invalidate_slot(slot);
                oracle.last_used.remove(&slot);
            }
            assert_eq!(
                touch(&mut cache, slot),
                oracle.touch(slot),
                "step {step}, slot {slot}"
            );
        }
    }

    #[test]
    fn zero_entry_is_permanent() {
        let mut cache = RefIndexCache::with_budget(index_bytes());
        *cache.zero_entry() = Some(ChunkIndex::build(&[0u8; 4096]));
        for s in 0..16 {
            touch(&mut cache, s);
            cache.invalidate_slot(s);
        }
        assert!(cache.zero_entry().is_some());
        assert_eq!(cache.cached_bytes(), 0);
    }
}
