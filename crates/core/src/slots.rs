//! The SSD slot store: which block owns which flash slot, what the slot
//! holds, and the stamp that orders slot installs against log entries.
//!
//! Everything here is *durable* controller state — pinned content, the
//! slot directory (the paper's periodically flushed metadata) and the
//! allocator survive [`crate::Icash::crash_and_recover`] untouched. The
//! fields are private, so the rules below hold by construction:
//!
//! * slot content changes only through [`SlotStore::install`] and
//!   [`SlotStore::release`];
//! * a pinned slot always has its directory record, and a free slot has
//!   neither record nor content;
//! * a block has one directory record — a pin, or the tombstone the pin
//!   leaves behind — never both.

use icash_storage::block::{BlockBuf, Lba};
use icash_storage::fault::crc32;
use icash_storage::hash::{AddrMap, AddrSet};

/// A block's slot-directory record: the SSD slot it owns and the controller
/// generation at which the slot's content was installed — or, with no slot,
/// a tombstone: the generation at which the block left a slot (or was
/// written home by a degraded write) with no newer pin or log entry to say
/// so. Log entries carry the same monotonic stamps, so recovery orders a
/// logged delta against the record by one comparison: an entry stamped at
/// or below it is dead — a reused or rewritten slot must never resurrect
/// stale log data, nor a reference's self-delta outlive the pin it decodes
/// against ("latest per LBA" alone is not enough once slots are reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotRecord {
    /// The SSD slot (logical page) holding the content; `None`: a tombstone.
    pub slot: Option<u64>,
    /// Generation stamp of the install that wrote the current content, or
    /// of the departure.
    pub generation: u64,
}

/// Pinned SSD content, its directory and the slot allocator.
#[derive(Debug)]
pub(crate) struct SlotStore {
    /// Slot → pinned content (reference blocks and direct writes).
    content: AddrMap<u64, BlockBuf>,
    /// Which LBA owns which slot, and since which generation; tombstones
    /// last until the block is pinned again or the log is cleaned.
    dir: AddrMap<Lba, SlotRecord>,
    /// Slots the SSD offers (`IcashConfig::ssd_slots`).
    capacity: u64,
    /// Slots `0..next_slot` have been handed out at least once.
    next_slot: u64,
    free_slots: Vec<u64>,
    next_generation: u64,
}

impl SlotStore {
    /// An empty store over `capacity` slots.
    pub fn new(capacity: u64) -> Self {
        SlotStore {
            content: AddrMap::default(),
            dir: AddrMap::default(),
            capacity,
            next_slot: 0,
            free_slots: Vec::new(),
            next_generation: 1,
        }
    }

    /// Draws the next generation stamp. Log entries draw from the same
    /// sequence as slot installs — that shared order is what recovery
    /// compares.
    pub fn stamp(&mut self) -> u64 {
        let g = self.next_generation;
        self.next_generation += 1;
        g
    }

    /// The log was just compacted to its live entries: there is nothing
    /// older left for a tombstone to refuse. (Order-free: a filter.)
    pub fn log_cleaned(&mut self) {
        self.dir.retain(|_, record| record.slot.is_some());
    }

    /// Hands out a free slot, most recently freed first.
    pub fn alloc(&mut self) -> Option<u64> {
        if let Some(s) = self.free_slots.pop() {
            return Some(s);
        }
        (self.next_slot < self.capacity).then(|| {
            self.next_slot += 1;
            self.next_slot - 1
        })
    }

    /// Returns a slot [`alloc`](Self::alloc) handed out that was never
    /// installed (the flash refused the program).
    pub fn unalloc(&mut self, slot: u64) {
        debug_assert!(!self.content.contains_key(&slot));
        self.free_slots.push(slot);
    }

    /// Slots handed out at least once (preload keeps headroom against it).
    pub fn high_water(&self) -> u64 {
        self.next_slot
    }

    /// Pins `content` in `slot` as `lba`'s copy, stamped with a fresh
    /// generation. Overwrites whatever the slot held.
    pub fn install(&mut self, lba: Lba, slot: u64, content: BlockBuf) {
        self.content.insert(slot, content);
        let (slot, generation) = (Some(slot), self.stamp());
        self.dir.insert(lba, SlotRecord { slot, generation });
    }

    /// Unpins `lba`'s slot, if it owns one, and frees it. `left_at` is the
    /// stamp at which the block gave the slot up for a delta, or was written
    /// home (no slot needed for that): it stays behind as a tombstone, in
    /// force from now on. Returns the freed slot.
    pub fn release(&mut self, lba: Lba, left_at: Option<u64>) -> Option<u64> {
        let slot = None;
        let old = match left_at {
            Some(generation) => self.dir.insert(lba, SlotRecord { slot, generation }),
            None => self.dir.remove(&lba),
        };
        let slot = old?.slot?;
        self.content.remove(&slot);
        self.free_slots.push(slot);
        Some(slot)
    }

    /// The content pinned in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if nothing is pinned there: callers hold the slot through a
    /// table entry, an eviction record or the directory.
    pub fn content(&self, slot: u64) -> &BlockBuf {
        &self.content[&slot]
    }

    /// The CRC32 of the content pinned in `slot`, computed where it is
    /// read: repair-from-home refuses to "heal" a slot with bytes that do
    /// not match it.
    pub fn sum(&self, slot: u64) -> Option<u32> {
        self.content.get(&slot).map(|c| crc32(c.as_slice()))
    }

    /// `lba`'s directory record: a pin or a tombstone.
    pub fn record(&self, lba: Lba) -> Option<SlotRecord> {
        self.dir.get(&lba).copied()
    }

    /// The slot `lba` owns, if any.
    pub fn pin(&self, lba: Lba) -> Option<u64> {
        self.dir.get(&lba)?.slot
    }

    /// Every `(lba, slot)` pinning, ascending by LBA so nothing downstream
    /// depends on hash order.
    pub fn pinned_sorted(&self) -> Vec<(Lba, u64)> {
        let mut pinned: Vec<(Lba, u64)> = (self.dir.iter())
            .filter_map(|(&l, r)| Some((l, r.slot?)))
            .collect();
        pinned.sort_by_key(|&(l, _)| l.raw());
        pinned
    }

    /// Asserts the store's own invariants: directory and content cover the
    /// same slots, no slot has two owners, and nothing pinned is
    /// on the free list.
    pub fn validate(&self) {
        let mut owned: AddrSet<u64> = AddrSet::default();
        for (lba, slot) in self.pinned_sorted() {
            assert!(
                owned.insert(slot),
                "slot {slot} has two owners (one is {lba:?})"
            );
            assert!(
                self.content.contains_key(&slot),
                "{lba:?} owns slot {slot} but nothing is pinned there"
            );
            assert!(slot < self.next_slot, "slot {slot} never allocated");
        }
        assert_eq!(
            self.content.len(),
            owned.len(),
            "pinned content nobody owns"
        );
        for slot in &self.free_slots {
            assert!(
                !owned.contains(slot),
                "live slot {slot} is on the free list"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slot_sum_follows_its_content() {
        let mut slots = SlotStore::new(4);
        let lba = Lba::new(7);
        let slot = slots.alloc().expect("a free slot");
        assert_eq!(slots.sum(slot), None, "nothing pinned yet");
        let first = BlockBuf::filled(0xAA);
        slots.install(lba, slot, first.clone());
        assert_eq!(slots.sum(slot), Some(crc32(first.as_slice())));
        let second = BlockBuf::filled(0x55);
        slots.install(lba, slot, second.clone());
        assert_eq!(slots.sum(slot), Some(crc32(second.as_slice())));
        assert_ne!(slots.sum(slot), Some(crc32(first.as_slice())));
        slots.validate();
        assert_eq!(slots.release(lba, None), Some(slot));
        assert_eq!(slots.sum(slot), None, "a released slot has no sum");
    }
}
