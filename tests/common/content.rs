//! The block contents the placement and whole-system suites write.

use icash::storage::BlockBuf;

/// What a written block holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// One shared base with a small per-tag tweak: binds to a reference.
    Similar,
    /// Incompressible bytes with nothing in common with any other block:
    /// overflows every delta threshold.
    Noise,
}

/// The content version `tag` of block `lba` in `family`. Every (lba, tag,
/// family) is distinguishable from every other, so a stale or spliced read
/// can never pass for the current version.
pub fn block_for(lba: u64, tag: u8, family: Family) -> BlockBuf {
    let mut v = vec![0xA7u8; 4096];
    if family == Family::Noise {
        let mut state = (lba << 16 | u64::from(tag) << 1 | 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for byte in &mut v {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *byte = state as u8;
        }
    }
    v[3] = tag;
    v[8..16].copy_from_slice(&lba.to_le_bytes());
    v[1500] = tag.wrapping_mul(3);
    v[3000] = tag.wrapping_add(101);
    BlockBuf::from_vec(v)
}
