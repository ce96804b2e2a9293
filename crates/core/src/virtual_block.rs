//! Virtual blocks — the controller's per-LBA metadata (paper §4.3).
//!
//! Every block the controller has seen is tracked by a [`VirtualBlock`]
//! holding its signature, role, cached content, cached delta, and pointers
//! into the persistent stores (SSD slot, HDD log location). A virtual block
//! is one of three kinds:
//!
//! * **Reference** — content lives in the SSD; associates are delta-encoded
//!   against it. If written after selection, its *own* changes live in a
//!   delta too (the SSD copy is immutable while referenced).
//! * **Associate** — paired with a reference; its content is
//!   `decode(reference, delta)`.
//! * **Independent** — no useful similarity found (yet); content is a full
//!   block in RAM, the SSD (after an oversized-delta direct write), or the
//!   HDD home area.

use icash_delta::codec::Delta;
use icash_delta::signature::BlockSignature;
use icash_storage::block::{BlockBuf, Lba};

/// The role a virtual block currently plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// No associated reference block (paper: "independent block").
    Independent,
    /// A block others are delta-encoded against; content pinned in SSD.
    Reference,
    /// Delta-encoded against a reference block.
    Associate,
}

/// A delta held in the RAM segment pool.
#[derive(Debug, Clone)]
pub struct CachedDelta {
    /// The encoded difference from the reference content.
    pub delta: Delta,
    /// Bytes charged to the segment pool (whole 64-byte segments).
    pub charge: usize,
}

/// Controller metadata for one logical block.
#[derive(Debug, Clone)]
pub struct VirtualBlock {
    /// The block's logical address.
    pub lba: Lba,
    /// Signature of the block's current content.
    pub sig: BlockSignature,
    /// Current role.
    pub role: Role,
    /// The reference this associate is encoded against (associates only).
    pub reference: Option<Lba>,
    /// Cached full content, if resident.
    pub data: Option<BlockBuf>,
    /// Pool bytes charged for `data`.
    pub data_charge: usize,
    /// Cached delta, if resident.
    pub delta: Option<CachedDelta>,
    /// Whether the cached delta has not yet been flushed to the HDD log.
    pub dirty_delta: bool,
    /// Whether the block's latest delta sits encoded in the staging buffer
    /// awaiting group commit (not yet on stable media, but re-installable
    /// from RAM without a device operation). Never set at
    /// `group_commit_depth = 1`.
    pub staged: bool,
    /// SSD slot holding this block's pinned content (references and
    /// direct-written independents).
    pub ssd_slot: Option<u64>,
    /// Delta-log block holding this block's latest flushed delta.
    pub log_loc: Option<u32>,
    /// Associates currently encoded against this block (references only).
    pub dependants: u32,
}

impl VirtualBlock {
    /// Creates an independent block with the given signature.
    pub fn independent(lba: Lba, sig: BlockSignature) -> Self {
        VirtualBlock {
            lba,
            sig,
            role: Role::Independent,
            reference: None,
            data: None,
            data_charge: 0,
            delta: None,
            dirty_delta: false,
            staged: false,
            ssd_slot: None,
            log_loc: None,
            dependants: 0,
        }
    }

    /// Whether the block has a delta of its own anywhere: resident in RAM,
    /// staged for group commit, or in the log.
    pub fn has_delta(&self) -> bool {
        self.delta.is_some() || self.log_loc.is_some() || self.staged
    }

    /// Whether this block may be evicted from the virtual-block table.
    /// References with live associates must stay (their SSD content is the
    /// decode source for every dependant).
    pub fn evictable(&self) -> bool {
        !(self.role == Role::Reference && self.dependants > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vb() -> VirtualBlock {
        VirtualBlock::independent(Lba::new(7), BlockSignature::from_raw([0; 8]))
    }

    #[test]
    fn fresh_block_is_clean_independent() {
        let b = vb();
        assert_eq!(b.role, Role::Independent);
        assert!(b.evictable());
    }

    #[test]
    fn referenced_blocks_are_pinned() {
        let mut b = vb();
        b.role = Role::Reference;
        b.dependants = 2;
        assert!(!b.evictable());
        b.dependants = 0;
        assert!(b.evictable());
    }
}
