//! The reference model of the read contract every [`StorageSystem`]
//! promises: *a read returns a version the system acknowledged, or a typed
//! error — never a splice, never another block's bytes*.
//!
//! [`VersionModel`] is `address → the versions a read may return`, kept
//! trivially: a write joins a block's history when the system acknowledged
//! it (a refusal with a typed error leaves the block on its old versions),
//! every block starts out as zeroes, and a durability barrier that has
//! returned drops everything older than each block's newest version.
//! Campaigns and property suites drive a system and the model side by side
//! and ask [`VersionModel::allows`] about every read that returned data.
//!
//! [`StorageSystem`]: crate::system::StorageSystem

use crate::block::BlockBuf;
use crate::hash::AddrMap;
use std::collections::BTreeMap;

/// Which of a block's versions a read may return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allow {
    /// Only the newest acknowledged version: live service with nothing lost.
    Latest,
    /// Any version still held — the newest one a barrier covered and every
    /// one acknowledged since: what a crash or a device death may legally
    /// roll a block back to.
    Held,
}

/// Per block address, the versions a read may return; see the module docs.
///
/// # Examples
///
/// ```
/// use icash_storage::model::{Allow, VersionModel};
/// use icash_storage::BlockBuf;
///
/// let mut model = VersionModel::new();
/// model.ack(7, BlockBuf::filled(1));
/// model.ack(7, BlockBuf::filled(2));
/// assert!(model.allows(7, &BlockBuf::filled(1), Allow::Held));
/// assert!(!model.allows(7, &BlockBuf::filled(1), Allow::Latest));
/// model.barrier();
/// assert!(!model.allows(7, &BlockBuf::filled(1), Allow::Held));
/// ```
#[derive(Debug, Clone)]
pub struct VersionModel {
    /// Versions held per written block, oldest first; never empty.
    held: BTreeMap<u64, Vec<BlockBuf>>,
    /// Version numbers handed out per block, acknowledged or not.
    attempts: AddrMap<u64, u32>,
    /// What a never-written block reads as.
    unwritten: [BlockBuf; 1],
}

impl Default for VersionModel {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionModel {
    /// A model in which every block is still zeroes.
    pub fn new() -> Self {
        VersionModel {
            held: BTreeMap::new(),
            attempts: AddrMap::default(),
            unwritten: [BlockBuf::zeroed()],
        }
    }

    /// The number of the version the next write of `lba` carries (1 for the
    /// first). Consumed whether or not the write is then acknowledged, so
    /// no two attempts on a block ever share content.
    pub fn attempt(&mut self, lba: u64) -> u32 {
        let version = self.attempts.entry(lba).or_insert(0);
        *version += 1;
        *version
    }

    /// The system acknowledged a write of `content` to `lba`.
    pub fn ack(&mut self, lba: u64, content: BlockBuf) {
        self.held
            .entry(lba)
            .or_insert_with(|| vec![BlockBuf::zeroed()])
            .push(content);
    }

    /// A durability barrier covering every acknowledged write has returned:
    /// each written block keeps only its newest version, and no longer its
    /// pre-history zeroes.
    pub fn barrier(&mut self) {
        for held in self.held.values_mut() {
            held.drain(..held.len() - 1);
        }
    }

    /// The newest acknowledged version of `lba` (zeroes if never written).
    pub fn latest(&self, lba: u64) -> &BlockBuf {
        &self.allowed(lba, Allow::Latest)[0]
    }

    /// The versions a read of `lba` may return under `allow`, oldest first.
    pub fn allowed(&self, lba: u64, allow: Allow) -> &[BlockBuf] {
        let held = self
            .held
            .get(&lba)
            .map_or(&self.unwritten[..], Vec::as_slice);
        match allow {
            Allow::Latest => &held[held.len() - 1..],
            Allow::Held => held,
        }
    }

    /// Whether a read of `lba` that returned `got` kept the contract.
    pub fn allows(&self, lba: u64, got: &BlockBuf, allow: Allow) -> bool {
        self.allowed(lba, allow).contains(got)
    }

    /// Every block with an acknowledged write, in address order.
    pub fn written(&self) -> impl Iterator<Item = u64> + '_ {
        self.held.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_blocks_read_as_zeroes_under_either_rule() {
        let model = VersionModel::new();
        for allow in [Allow::Latest, Allow::Held] {
            assert!(model.allows(3, &BlockBuf::zeroed(), allow));
            assert!(!model.allows(3, &BlockBuf::filled(1), allow));
        }
        assert_eq!(*model.latest(3), BlockBuf::zeroed());
        assert_eq!(model.written().count(), 0);
    }

    #[test]
    fn held_allows_every_acknowledged_version_and_nothing_else() {
        let mut model = VersionModel::new();
        for fill in 1..=3 {
            model.ack(9, BlockBuf::filled(fill));
        }
        model.ack(2, BlockBuf::filled(7));
        for fill in 1..=3 {
            assert!(model.allows(9, &BlockBuf::filled(fill), Allow::Held));
        }
        assert!(model.allows(9, &BlockBuf::zeroed(), Allow::Held));
        assert!(!model.allows(9, &BlockBuf::filled(7), Allow::Held));
        assert!(!model.allows(9, &BlockBuf::filled(4), Allow::Held));
        assert_eq!(model.allowed(9, Allow::Latest), [BlockBuf::filled(3)]);
        assert_eq!(*model.latest(9), BlockBuf::filled(3));
        assert_eq!(model.written().collect::<Vec<_>>(), [2, 9]);
    }

    #[test]
    fn barrier_prunes_to_the_newest_version_and_drops_the_zeroes() {
        let mut model = VersionModel::new();
        model.ack(5, BlockBuf::filled(1));
        model.ack(5, BlockBuf::filled(2));
        model.barrier();
        assert_eq!(model.allowed(5, Allow::Held), [BlockBuf::filled(2)]);
        // A block first written after the barrier may still roll back to
        // its zeroes; one the barrier covered may only roll back to it.
        model.ack(5, BlockBuf::filled(3));
        model.ack(6, BlockBuf::filled(4));
        assert_eq!(
            model.allowed(5, Allow::Held),
            [BlockBuf::filled(2), BlockBuf::filled(3)]
        );
        assert!(model.allows(6, &BlockBuf::zeroed(), Allow::Held));
        // Unwritten blocks have nothing to prune.
        assert!(model.allows(8, &BlockBuf::zeroed(), Allow::Held));
    }

    #[test]
    fn a_refused_write_consumes_a_version_number_but_not_a_history_slot() {
        let mut model = VersionModel::new();
        assert_eq!(model.attempt(4), 1);
        // Refused: nothing acknowledged.
        assert_eq!(model.attempt(4), 2);
        model.ack(4, BlockBuf::filled(2));
        assert_eq!(model.attempt(1), 1);
        assert_eq!(
            model.allowed(4, Allow::Held),
            [BlockBuf::zeroed(), BlockBuf::filled(2)]
        );
        assert_eq!(model.written().collect::<Vec<_>>(), [4]);
    }
}
