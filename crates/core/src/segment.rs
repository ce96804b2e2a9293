//! RAM budget accounting for the I-CASH buffer.
//!
//! The paper manages deltas as linked lists of 64-byte segments carved out
//! of the controller's DRAM, alongside whole cached data blocks. This module
//! tracks that budget: deltas are rounded up to whole segments, data blocks
//! cost a full 4 KB, and the controller consults [`SegmentPool::available`]
//! before allocating, running its replacement policies when space runs out.

use icash_storage::block::BLOCK_SIZE;

/// Granularity of RAM delta allocation: the paper's 64-byte segments.
pub const SEGMENT_BYTES: usize = 64;
const _: () = assert!(
    BLOCK_SIZE.is_multiple_of(SEGMENT_BYTES),
    "segments divide a block"
);

/// Byte-budget allocator for the controller RAM buffer.
///
/// # Examples
///
/// ```
/// use icash_core::segment::SegmentPool;
///
/// let mut pool = SegmentPool::new(4096);
/// let charged = pool.alloc_delta(100); // rounds up to 2 segments
/// assert_eq!(charged, 128);
/// assert_eq!(pool.used(), 128);
/// pool.free(charged);
/// assert_eq!(pool.used(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct SegmentPool {
    capacity: usize,
    used: usize,
}

impl SegmentPool {
    /// Creates a pool of `capacity` bytes allocated in [`SEGMENT_BYTES`]
    /// units.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "pool capacity must be nonzero");
        SegmentPool { capacity, used: 0 }
    }

    /// Total budget in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently charged.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Bytes still available.
    pub fn available(&self) -> usize {
        self.capacity - self.used
    }

    /// Bytes a delta of `len` bytes will be charged (whole segments).
    pub fn delta_charge(&self, len: usize) -> usize {
        len.div_ceil(SEGMENT_BYTES).max(1) * SEGMENT_BYTES
    }

    /// Whether a delta of `len` bytes fits right now.
    pub fn fits_delta(&self, len: usize) -> bool {
        self.delta_charge(len) <= self.available()
    }

    /// Charges a delta of `len` bytes; returns the bytes charged.
    ///
    /// # Panics
    ///
    /// Panics if the delta does not fit — callers must make room first.
    pub fn alloc_delta(&mut self, len: usize) -> usize {
        let charge = self.delta_charge(len);
        self.alloc_raw(charge);
        charge
    }

    /// Charges one whole data block; returns the bytes charged.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit — callers must make room first.
    pub fn alloc_block(&mut self) -> usize {
        self.alloc_raw(BLOCK_SIZE);
        BLOCK_SIZE
    }

    fn alloc_raw(&mut self, bytes: usize) {
        assert!(
            bytes <= self.available(),
            "pool overflow: want {bytes}, available {}",
            self.available()
        );
        self.used += bytes;
    }

    /// Returns previously charged bytes to the pool.
    ///
    /// # Panics
    ///
    /// Panics if more is freed than is in use.
    pub fn free(&mut self, bytes: usize) {
        assert!(bytes <= self.used, "freeing {bytes} > used {}", self.used);
        self.used -= bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_charges_round_to_segments() {
        let pool = SegmentPool::new(1 << 20);
        assert_eq!(pool.delta_charge(1), 64);
        assert_eq!(pool.delta_charge(64), 64);
        assert_eq!(pool.delta_charge(65), 128);
        assert_eq!(pool.delta_charge(0), 64, "even empty deltas hold a segment");
    }

    #[test]
    fn alloc_free_balance() {
        let mut pool = SegmentPool::new(8192);
        let a = pool.alloc_delta(100);
        let b = pool.alloc_block();
        assert_eq!(pool.used(), a + b);
        pool.free(a);
        pool.free(b);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn fits_checks_match_alloc() {
        let mut pool = SegmentPool::new(4096 + 64);
        pool.alloc_block();
        assert!(pool.fits_delta(64));
        assert!(!pool.fits_delta(65));
    }

    #[test]
    #[should_panic(expected = "pool overflow")]
    fn overflow_panics() {
        let mut pool = SegmentPool::new(100);
        pool.alloc_block();
    }

    #[test]
    #[should_panic(expected = "freeing")]
    fn over_free_panics() {
        let mut pool = SegmentPool::new(100);
        pool.free(1);
    }
}
