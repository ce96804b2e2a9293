//! Virtual blocks — the controller's per-LBA metadata (paper §4.3).
//!
//! Every block the controller has seen is tracked by a [`VirtualBlock`]
//! holding its signature, its [`Placement`] — the one place its current
//! content lives — and whatever of it is cached in RAM. A virtual block is
//! one of three kinds ([`Role`], derived from the placement):
//!
//! * **Reference** — content lives in the SSD; associates are delta-encoded
//!   against it. If written after selection, its *own* changes live in a
//!   delta too (the SSD copy is immutable while referenced).
//! * **Associate** — paired with a reference; its content is
//!   `decode(reference, delta)`.
//! * **Independent** — no useful similarity found (yet); content is in the
//!   SSD (after an oversized-delta direct write), a zero-based delta, or
//!   the HDD home area.

use icash_delta::codec::{Delta, DeltaCodec};
use icash_delta::signature::BlockSignature;
use icash_storage::block::{BlockBuf, Lba};
use std::sync::{Arc, OnceLock};

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

/// Where the one authoritative copy of a block's current delta is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaHome {
    /// Only in RAM, as the block's resident delta; the block is in the
    /// dirty set until the next flush trigger.
    Dirty,
    /// Framed by a flush and awaiting its commit: not on stable media yet.
    /// Between triggers (`group_commit_depth > 1`) the staging buffer holds
    /// it, re-installable from RAM without a device operation; at depth 1
    /// only the commit's own batch does.
    Staged,
    /// In this packed block of the HDD delta log.
    Log(u32),
}

/// Where a block's current content lives: exactly one of these (DESIGN.md
/// §18). Also what an eviction record and a recovered table entry are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The HDD home position.
    Home,
    /// An SSD slot, whole (an independent after a direct write).
    Slot {
        /// The slot holding the content.
        slot: u64,
    },
    /// A reference: the immutable SSD copy others decode against, plus —
    /// once written after selection — its own delta on top of it.
    Reference {
        /// The slot holding the pinned copy.
        slot: u64,
        /// The reference's own changes since it was pinned, if any.
        own: Option<DeltaHome>,
    },
    /// `decode(reference's slot, delta)`.
    Associate {
        /// The reference block the delta is encoded against.
        reference: Lba,
        /// Where the delta is.
        delta: DeltaHome,
    },
    /// `decode(zero block, delta)`: an independent riding the delta log.
    Logged {
        /// Where the delta is.
        delta: DeltaHome,
    },
}

impl Placement {
    /// The paper's block kind, for the census and the statistics.
    pub fn role(self) -> Role {
        match self {
            Placement::Reference { .. } => Role::Reference,
            Placement::Associate { .. } => Role::Associate,
            Placement::Home | Placement::Slot { .. } | Placement::Logged { .. } => {
                Role::Independent
            }
        }
    }

    /// The SSD slot the block reads, if its content (or its base) is there.
    pub fn slot(self) -> Option<u64> {
        match self {
            Placement::Slot { slot } | Placement::Reference { slot, .. } => Some(slot),
            _ => None,
        }
    }

    /// The reference block this placement decodes against (associates).
    pub fn reference(self) -> Option<Lba> {
        match self {
            Placement::Associate { reference, .. } => Some(reference),
            _ => None,
        }
    }

    /// Where the block's own delta is, if it has one. The one answer to
    /// "does this block have a delta somewhere, and where".
    pub fn delta_home(mut self) -> Option<DeltaHome> {
        self.delta_home_mut().copied()
    }

    /// [`delta_home`](Self::delta_home), in place: how a flush moves a delta
    /// from RAM to staging to the log, and a log clean renumbers it.
    pub fn delta_home_mut(&mut self) -> Option<&mut DeltaHome> {
        match self {
            Placement::Reference { own, .. } => own.as_mut(),
            Placement::Associate { delta, .. } | Placement::Logged { delta } => Some(delta),
            Placement::Home | Placement::Slot { .. } => None,
        }
    }
}

/// A block's delta, resident in the RAM segment pool (DESIGN.md §7). Its
/// bytes are held here only while RAM holds the only copy — while the
/// placement says [`DeltaHome::Dirty`]. A clean resident delta is a pool
/// charge plus a claim on its home's bytes: the staged or logged entry,
/// which are those bytes by construction.
#[derive(Debug, Clone)]
pub struct CachedDelta {
    /// The encoded difference from the reference content, while dirty.
    pub payload: Option<Delta>,
    /// The encoded difference's length in bytes.
    pub len: u32,
    /// Bytes charged to the segment pool (whole 64-byte segments).
    pub charge: u32,
}

/// A block's content cached in RAM (DESIGN.md §9, "Decode on demand"):
/// its bytes, or what they are built from. A read of a delta-placed block
/// caches the recipe — a handle on the base it decodes against and one on
/// its delta, both immutable — and the bytes are built only for a consumer
/// that reads them ([`block`](Self::block)). The RAM pool charges a whole
/// block either way: the simulated controller holds the decoded bytes.
#[derive(Debug, Clone)]
pub enum CachedData {
    /// The bytes themselves.
    Ready(BlockBuf),
    /// `decode(base, delta)`, built on first use and kept.
    Recipe(Arc<Recipe>),
}

/// What [`CachedData::Recipe`] decodes, and what it decoded.
#[derive(Debug)]
pub struct Recipe {
    base: BlockBuf,
    delta: Delta,
    decoded: OnceLock<BlockBuf>,
}

impl CachedData {
    /// The recipe `decode(base, delta)`: two handles, no walk over the
    /// delta. Only the encoder builds a [`Delta`], so every one decodes.
    pub fn recipe(base: BlockBuf, delta: Delta) -> Self {
        CachedData::Recipe(Arc::new(Recipe {
            base,
            delta,
            decoded: OnceLock::new(),
        }))
    }

    /// The block's bytes, decoded on the first call for a recipe.
    pub fn block(&self) -> &BlockBuf {
        #[cfg(test)]
        tests::BYTES_READ.with(|n| n.set(n.get() + 1));
        match self {
            CachedData::Ready(block) => block,
            CachedData::Recipe(recipe) => recipe
                .decoded
                .get_or_init(|| decode(&recipe.base, &recipe.delta)),
        }
    }

    /// Whether the bytes exist yet: a recipe no consumer has read is not.
    #[cfg(test)]
    pub fn is_built(&self) -> bool {
        match self {
            CachedData::Ready(_) => true,
            CachedData::Recipe(recipe) => recipe.decoded.get().is_some(),
        }
    }
}

/// The block `delta` encodes against `base`. Only the encoder builds a
/// [`Delta`], so every one decodes.
pub(crate) fn decode(base: &BlockBuf, delta: &Delta) -> BlockBuf {
    let base = base.as_slice();
    BlockBuf::try_edit_copy(base, |out| {
        DeltaCodec::default().decode_into(base, delta, out)
    })
    .expect("an encoded delta decodes against its base")
}

/// Controller metadata for one logical block.
#[derive(Debug, Clone)]
pub struct VirtualBlock {
    /// The block's logical address.
    pub lba: Lba,
    /// Signature of the block's current content.
    pub sig: BlockSignature,
    /// Where the current content lives. Change it through
    /// [`BlockTable::set_placement`](crate::table::BlockTable::set_placement),
    /// which keeps the role census.
    pub placement: Placement,
    /// Cached full content, if resident.
    pub data: Option<CachedData>,
    /// Pool bytes charged for `data`.
    pub data_charge: u32,
    /// The block's delta, if resident: the only copy when the placement
    /// says [`DeltaHome::Dirty`], a droppable claim on its home otherwise.
    pub delta: Option<CachedDelta>,
    /// Associates currently encoded against this block (references only).
    pub dependants: u32,
}

impl VirtualBlock {
    /// Creates a home-resident independent block with the given signature.
    pub fn independent(lba: Lba, sig: BlockSignature) -> Self {
        VirtualBlock {
            lba,
            sig,
            placement: Placement::Home,
            data: None,
            data_charge: 0,
            delta: None,
            dependants: 0,
        }
    }

    /// Whether this block may be evicted from the virtual-block table.
    /// References with live associates must stay (their SSD content is the
    /// decode source for every dependant).
    pub fn evictable(&self) -> bool {
        !(self.placement.role() == Role::Reference && self.dependants > 0)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Calls of [`CachedData::block`] on this thread: every handle on a
        /// cached block's bytes is taken through it.
        pub(crate) static BYTES_READ: Cell<u64> = const { Cell::new(0) };
    }

    fn vb() -> VirtualBlock {
        VirtualBlock::independent(Lba::new(7), BlockSignature::from_raw([0; 8]))
    }

    #[test]
    fn fresh_block_is_clean_independent() {
        let b = vb();
        assert_eq!(b.placement.role(), Role::Independent);
        assert_eq!(b.placement.delta_home(), None);
        assert!(b.evictable());
    }

    /// One per tracked block, up to millions of them: a resident delta's
    /// length and charge ride in the space the payload handle leaves.
    #[test]
    fn a_virtual_block_stays_104_bytes() {
        assert_eq!(std::mem::size_of::<Option<CachedDelta>>(), 32);
        assert_eq!(std::mem::size_of::<VirtualBlock>(), 104);
    }

    /// A recipe decodes once, on first use, to what the codec gives.
    #[test]
    fn a_recipe_decodes_once_on_first_use() {
        let base = BlockBuf::filled(0x11);
        let mut target = base.as_slice().to_vec();
        target[7] = 0x22;
        let delta = DeltaCodec::default().encode(base.as_slice(), &target);
        let data = CachedData::recipe(base, delta);
        assert!(!data.is_built());
        assert_eq!(data.block().as_slice(), &target[..]);
        assert!(data.is_built());
        assert!(std::ptr::eq(data.block(), data.block()), "decoded again");
    }

    #[test]
    fn referenced_blocks_are_pinned() {
        let mut b = vb();
        b.placement = Placement::Reference { slot: 3, own: None };
        b.dependants = 2;
        assert!(!b.evictable());
        b.dependants = 0;
        assert!(b.evictable());
    }
}
