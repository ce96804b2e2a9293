//! NAND flash geometry, timing, and physical operations.
//!
//! Models the physical properties the paper's §2.1 background describes:
//! pages are the smallest programmable unit, erase blocks the smallest
//! erasable unit, reads/programs take tens to hundreds of microseconds while
//! erases take milliseconds, and each block survives a bounded number of
//! erase cycles (10 K MLC / 100 K SLC).

use crate::time::Ns;
use serde::{Deserialize, Serialize};

/// Physical geometry and timing of a NAND flash array.
///
/// Page size is fixed at [`BLOCK_SIZE`](crate::block::BLOCK_SIZE) (4 KB)
/// so one host block maps to one flash page.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlashConfig {
    /// Independent channels that can service operations in parallel.
    pub channels: u32,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// Total erase blocks across all channels (distributed round-robin).
    pub blocks: u32,
    /// Latency of one page read.
    pub page_read: Ns,
    /// Latency of one page program.
    pub page_program: Ns,
    /// Latency of one block erase.
    pub block_erase: Ns,
    /// Erase cycles a block survives before going bad.
    pub endurance: u32,
    /// Baseline power in Watts.
    pub idle_watts: f64,
    /// Additional power while busy in Watts.
    pub active_watts: f64,
}

impl FlashConfig {
    /// SLC flash in the class of the paper's Fusion-io ioDrive 80 G SLC:
    /// 25 µs reads, 200 µs programs, 1.5 ms erases, 100 K-cycle endurance,
    /// sized to hold `capacity_pages` logical pages plus `overprovision`
    /// spare space.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_pages` is zero or `overprovision` is negative.
    pub fn slc(capacity_pages: u64, overprovision: f64) -> Self {
        assert!(capacity_pages > 0, "capacity must be nonzero");
        assert!(overprovision >= 0.0, "overprovision must be non-negative");
        let pages_per_block = 64u32;
        let channels = 8u32;
        let phys_pages = (capacity_pages as f64 * (1.0 + overprovision)).ceil() as u64;
        let mut blocks = phys_pages.div_ceil(pages_per_block as u64) as u32;
        // Round blocks up to a channel multiple and keep headroom so every
        // channel always owns at least two spare blocks for GC.
        blocks = blocks.div_ceil(channels) * channels + 2 * channels;
        FlashConfig {
            channels,
            pages_per_block,
            blocks,
            page_read: Ns::from_us(25),
            page_program: Ns::from_us(200),
            block_erase: Ns::from_us(1500),
            endurance: 100_000,
            idle_watts: 2.0,
            active_watts: 6.0,
        }
    }

    /// Total physical pages.
    pub fn total_pages(&self) -> u64 {
        self.blocks as u64 * self.pages_per_block as u64
    }

    /// The channel that owns physical block `block`.
    #[inline]
    pub fn channel_of_block(&self, block: u32) -> u32 {
        block % self.channels
    }

    /// The channel that owns physical page `ppn`.
    #[inline]
    pub fn channel_of_page(&self, ppn: u64) -> u32 {
        self.channel_of_block(self.block_of_page(ppn))
    }

    /// The erase block containing physical page `ppn`.
    #[inline]
    pub fn block_of_page(&self, ppn: u64) -> u32 {
        (ppn / self.pages_per_block as u64) as u32
    }

    /// First physical page of erase block `block`.
    #[inline]
    pub fn first_page(&self, block: u32) -> u64 {
        block as u64 * self.pages_per_block as u64
    }
}

/// One physical flash operation emitted by the FTL for the device facade to
/// charge to its timing/energy model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashOp {
    /// Read one page (internal relocation reads during GC included).
    Read {
        /// Physical page number.
        ppn: u64,
    },
    /// Program one page. `host` distinguishes host writes (counted in
    /// Table 6) from GC relocation writes (counted as write amplification).
    Program {
        /// Physical page number.
        ppn: u64,
        /// Whether the host requested this program (vs internal GC traffic).
        host: bool,
    },
    /// Erase one block.
    Erase {
        /// Physical erase-block index.
        block: u32,
    },
}

impl FlashOp {
    /// Latency of this operation under `cfg`.
    pub fn latency(&self, cfg: &FlashConfig) -> Ns {
        match self {
            FlashOp::Read { .. } => cfg.page_read,
            FlashOp::Program { .. } => cfg.page_program,
            FlashOp::Erase { .. } => cfg.block_erase,
        }
    }

    /// The channel this operation occupies.
    pub fn channel(&self, cfg: &FlashConfig) -> u32 {
        match self {
            FlashOp::Read { ppn } | FlashOp::Program { ppn, .. } => cfg.channel_of_page(*ppn),
            FlashOp::Erase { block } => cfg.channel_of_block(*block),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slc_sizes_cover_capacity() {
        let cfg = FlashConfig::slc(10_000, 0.1);
        assert!(cfg.total_pages() >= 11_000);
        assert_eq!(cfg.blocks % cfg.channels, 0);
    }

    #[test]
    fn geometry_mappings_agree() {
        let cfg = FlashConfig::slc(10_000, 0.1);
        let ppn = cfg.first_page(5) + 3;
        assert_eq!(cfg.block_of_page(ppn), 5);
        assert_eq!(cfg.channel_of_page(ppn), cfg.channel_of_block(5));
    }

    #[test]
    fn op_latencies_follow_config() {
        let cfg = FlashConfig::slc(1_000, 0.1);
        assert_eq!(FlashOp::Read { ppn: 0 }.latency(&cfg), Ns::from_us(25));
        assert_eq!(
            FlashOp::Program { ppn: 0, host: true }.latency(&cfg),
            Ns::from_us(200)
        );
        assert_eq!(FlashOp::Erase { block: 0 }.latency(&cfg), Ns::from_us(1500));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = FlashConfig::slc(0, 0.1);
    }

    #[test]
    fn every_channel_has_spare_blocks() {
        for cap in [100u64, 5_000, 1 << 20] {
            let cfg = FlashConfig::slc(cap, 0.07);
            let per_channel = cfg.blocks / cfg.channels;
            let needed = cap.div_ceil(cfg.pages_per_block as u64 * cfg.channels as u64);
            assert!(per_channel as u64 >= needed + 2, "cap={cap}");
        }
    }
}
