//! Block-level addressing and content buffers.
//!
//! I-CASH manages storage in fixed 4 KB blocks (paper §4.2). [`Lba`] is the
//! logical block address a host request names; [`BlockBuf`] is a cheaply
//! clonable 4 KB content buffer.

use bytes::Bytes;
use core::convert::Infallible;
use core::fmt;
use serde::{Deserialize, Serialize};

/// Size of one cache/storage block in bytes (paper §4.2: fixed at 4 KB).
pub const BLOCK_SIZE: usize = 4096;

/// The first eight bytes of `bytes` as a little-endian word: one load, for
/// the loops that take a buffer a word at a time.
///
/// # Panics
///
/// Panics if there are fewer than eight.
#[inline(always)]
pub(crate) fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0; 8];
    word.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(word)
}

/// A logical block address in units of [`BLOCK_SIZE`] blocks.
///
/// The prototype uses the most significant byte of the 64-bit address as the
/// virtual-machine identifier (paper §4.1); [`Lba::with_vm`] and
/// [`Lba::vm_id`] implement that convention.
///
/// # Examples
///
/// ```
/// use icash_storage::block::Lba;
///
/// let lba = Lba::new(42).with_vm(3);
/// assert_eq!(lba.vm_id(), 3);
/// assert_eq!(lba.offset(), 42);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Lba(u64);

impl Lba {
    /// Creates an address from a raw 64-bit value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Lba(raw)
    }

    /// The raw 64-bit value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The address with the virtual-machine identifier placed in the most
    /// significant byte, following the prototype's convention.
    #[inline]
    pub const fn with_vm(self, vm: u8) -> Self {
        Lba((self.0 & 0x00ff_ffff_ffff_ffff) | ((vm as u64) << 56))
    }

    /// The virtual-machine identifier stored in the most significant byte.
    #[inline]
    pub const fn vm_id(self) -> u8 {
        (self.0 >> 56) as u8
    }

    /// The block offset within the owning virtual machine's address space.
    #[inline]
    pub const fn offset(self) -> u64 {
        self.0 & 0x00ff_ffff_ffff_ffff
    }

    /// The address `n` blocks later.
    #[inline]
    pub const fn plus(self, n: u64) -> Self {
        Lba(self.0 + n)
    }

    /// Byte offset of this block from the start of the device.
    #[inline]
    pub const fn byte_offset(self) -> u64 {
        self.offset() * BLOCK_SIZE as u64
    }
}

impl From<u64> for Lba {
    fn from(raw: u64) -> Self {
        Lba(raw)
    }
}

impl fmt::Display for Lba {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.vm_id() != 0 {
            write!(f, "vm{}:{}", self.vm_id(), self.offset())
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// An immutable, cheaply clonable 4 KB block content buffer.
///
/// Clones share the underlying allocation ([`Bytes`]), so passing block
/// content through the controller, caches, and delta codec never copies.
/// A block is also *built* in that allocation ([`BlockBuf::edit_copy`],
/// [`BlockBuf::try_edit_copy`]): the paths that materialise one per request
/// allocate once and copy once, where [`BlockBuf::from_vec`] allocates a
/// second time and copies the vector across.
///
/// # Examples
///
/// ```
/// use icash_storage::block::{BlockBuf, BLOCK_SIZE};
///
/// let zeroes = BlockBuf::zeroed();
/// assert_eq!(zeroes.as_slice().len(), BLOCK_SIZE);
/// let patterned = BlockBuf::filled(0xAB);
/// assert_eq!(patterned.as_slice()[100], 0xAB);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BlockBuf(Bytes);

impl BlockBuf {
    /// A block of all zero bytes.
    pub fn zeroed() -> Self {
        Self::filled(0)
    }

    /// A block with every byte set to `byte`.
    pub fn filled(byte: u8) -> Self {
        BlockBuf(std::iter::repeat_n(byte, BLOCK_SIZE).collect())
    }

    /// A copy of `src` that `edit` rewrites in place before the block is
    /// shared.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not exactly [`BLOCK_SIZE`] bytes.
    pub fn edit_copy(src: &[u8], edit: impl FnOnce(&mut [u8])) -> Self {
        let built = Self::try_edit_copy(src, |buf| {
            edit(buf);
            Ok::<(), Infallible>(())
        });
        built.unwrap_or_else(|never| match never {})
    }

    /// [`edit_copy`](Self::edit_copy) with an `edit` that can fail, in which
    /// case there is no block: a half-edited one is never handed out.
    ///
    /// # Errors
    ///
    /// Whatever `edit` returns.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not exactly [`BLOCK_SIZE`] bytes.
    pub fn try_edit_copy<E>(
        src: &[u8],
        edit: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<Self, E> {
        assert_eq!(
            src.len(),
            BLOCK_SIZE,
            "block buffers must be exactly {BLOCK_SIZE} bytes"
        );
        Bytes::try_edit_copy(src, edit).map(BlockBuf)
    }

    /// Wraps an owned vector as a block.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly [`BLOCK_SIZE`] bytes.
    pub fn from_vec(data: Vec<u8>) -> Self {
        assert_eq!(
            data.len(),
            BLOCK_SIZE,
            "block buffers must be exactly {BLOCK_SIZE} bytes"
        );
        BlockBuf(Bytes::from(data))
    }

    /// Copies a slice into a new block.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly [`BLOCK_SIZE`] bytes.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        assert_eq!(
            data.len(),
            BLOCK_SIZE,
            "block buffers must be exactly {BLOCK_SIZE} bytes"
        );
        BlockBuf(Bytes::copy_from_slice(data))
    }

    /// The block content.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// The underlying shared buffer.
    #[inline]
    pub fn as_bytes(&self) -> &Bytes {
        &self.0
    }

    /// A 64-bit content digest, used by the dedup baseline to identify
    /// identical blocks.
    ///
    /// Word-wise FNV-1a: the mix step absorbs eight bytes per multiply
    /// instead of one, which is ~8x cheaper than the byte-at-a-time variant
    /// on the 4 KB blocks this runs over (the dedup baseline digests every
    /// write). The baseline only ever compares digests for equality, so the
    /// function just has to be deterministic and well-distributed — the
    /// exact values are pinned by `digest_values_are_pinned` below so any
    /// accidental change to dedup behavior shows up as a test failure.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut chunks = self.0.chunks_exact(8);
        for chunk in &mut chunks {
            h ^= le_word(chunk);
            h = h.wrapping_mul(PRIME);
        }
        for &b in chunks.remainder() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        h
    }
}

impl Default for BlockBuf {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl AsRef<[u8]> for BlockBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for BlockBuf {
    fn from(data: Vec<u8>) -> Self {
        Self::from_vec(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_tagging_roundtrips() {
        let lba = Lba::new(0x1234).with_vm(7);
        assert_eq!(lba.vm_id(), 7);
        assert_eq!(lba.offset(), 0x1234);
        assert_eq!(lba.with_vm(2).vm_id(), 2);
        assert_eq!(lba.with_vm(2).offset(), 0x1234);
    }

    #[test]
    fn byte_offset_ignores_vm_tag() {
        let lba = Lba::new(3).with_vm(9);
        assert_eq!(lba.byte_offset(), 3 * BLOCK_SIZE as u64);
    }

    #[test]
    fn display_shows_vm() {
        assert_eq!(Lba::new(5).to_string(), "5");
        assert_eq!(Lba::new(5).with_vm(2).to_string(), "vm2:5");
    }

    #[test]
    fn blockbuf_invariants() {
        let b = BlockBuf::filled(0x5A);
        assert_eq!(b.as_slice().len(), BLOCK_SIZE);
        assert!(b.as_slice().iter().all(|&x| x == 0x5A));
        assert_eq!(b, b.clone());
    }

    #[test]
    #[should_panic(expected = "4096")]
    fn blockbuf_rejects_wrong_size() {
        let _ = BlockBuf::from_vec(vec![0; 100]);
    }

    #[test]
    fn digest_values_are_pinned() {
        // Pinned word-wise FNV values for known blocks: the dedup baseline
        // keys purely on digest equality, so any change to these values
        // means dedup behavior changed.
        let patterned = BlockBuf::from_vec(
            (0..BLOCK_SIZE)
                .map(|i| ((i * 31 + i / 7) % 256) as u8)
                .collect(),
        );
        assert_eq!(BlockBuf::zeroed().digest(), 0x7da1_44b9_7d05_4b25);
        assert_eq!(BlockBuf::filled(0xAB).digest(), 0x4f61_5941_4b85_9125);
        assert_eq!(patterned.digest(), 0xce38_ecc5_5bc6_35e8);
    }

    #[test]
    fn digest_distinguishes_content() {
        let a = BlockBuf::filled(1);
        let b = BlockBuf::filled(2);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), BlockBuf::filled(1).digest());
    }
}
