//! Shared home-area helper for the caching baselines.
//!
//! Maps logical addresses onto a data disk and tracks a written-content
//! overlay over the backing image, so the LRU and dedup caches share the
//! same miss/write-back machinery. The disk itself is *not* owned here:
//! each system's [`DeviceArray`](icash_storage::array::DeviceArray) owns
//! the devices, and the helper borrows the HDD per operation.

use icash_storage::block::{BlockBuf, Lba};
use icash_storage::fault;
use icash_storage::hash::AddrMap;
use icash_storage::hdd::{Hdd, HddConfig, HddError};
use icash_storage::system::IoCtx;
use icash_storage::time::Ns;

/// Home-area addressing and written-content overlay for one data disk.
#[derive(Debug)]
pub struct HomeDisk {
    capacity_blocks: u64,
    overlay: AddrMap<Lba, BlockBuf>,
    /// Whether to retain written content for read-back verification.
    keep_content: bool,
}

impl HomeDisk {
    /// Creates a home area covering `capacity_blocks` of data.
    pub fn new(capacity_blocks: u64) -> Self {
        HomeDisk {
            capacity_blocks: capacity_blocks.max(1),
            overlay: AddrMap::default(),
            keep_content: true,
        }
    }

    /// The data disk matching this home area (for the owning
    /// `DeviceArray`).
    pub fn build_disk(capacity_blocks: u64) -> Hdd {
        Hdd::new(HddConfig::seagate_sata(capacity_blocks.max(1)))
    }

    /// Disables content retention (timing-only runs with flat memory).
    pub fn timing_only(mut self) -> Self {
        self.keep_content = false;
        self
    }

    /// Disk position backing `lba`.
    fn pos(&self, lba: Lba) -> u64 {
        lba.raw() % self.capacity_blocks
    }

    /// Reads `lba` from `disk`: mechanical latency plus current content.
    /// A media error gets one retry; a latent sector error persists across
    /// retries, so a second failure is reported to the caller instead of
    /// serving content the platter could not actually deliver.
    pub fn read(
        &mut self,
        disk: &mut Hdd,
        lba: Lba,
        at: Ns,
        ctx: &mut IoCtx<'_>,
    ) -> (Ns, Result<BlockBuf, HddError>) {
        let pos = self.pos(lba);
        let t = match fault::read_with_retry(|| disk.read(at, pos, 1)) {
            Ok(t) => t,
            Err(e) => return (at, Err(e)),
        };
        let content = self
            .overlay
            .get(&lba)
            .cloned()
            .unwrap_or_else(|| ctx.backing.initial_content(lba));
        (t, Ok(content))
    }

    /// Writes `content` to `lba` on `disk`. Write faults are transient
    /// (the drive remaps the sector on rewrite), so a bounded retry clears
    /// them; the overlay records the intended bytes either way.
    pub fn write(&mut self, disk: &mut Hdd, lba: Lba, content: BlockBuf, at: Ns) -> Ns {
        let t = Self::write_retry(disk, at, self.pos(lba), 1);
        if self.keep_content {
            self.overlay.insert(lba, content);
        }
        t
    }

    /// A disk write with bounded retries; residual failures fall back to
    /// the arrival instant (the drive remaps the sector on the next pass).
    fn write_retry(disk: &mut Hdd, at: Ns, pos: u64, blocks: u32) -> Ns {
        fault::write_with_retry(|| disk.write(at, pos, blocks)).unwrap_or(at)
    }

    /// Writes a run of consecutive blocks in one sequential disk operation
    /// (large streaming writes bypassing a cache).
    ///
    /// # Panics
    ///
    /// Panics if `payload` is empty.
    pub fn write_span(&mut self, disk: &mut Hdd, lba: Lba, payload: &[BlockBuf], at: Ns) -> Ns {
        assert!(!payload.is_empty(), "need at least one block");
        let start = self.pos(lba);
        let n = (payload.len() as u64).min(self.capacity_blocks - start) as u32;
        let t = Self::write_retry(disk, at, start, n.max(1));
        if self.keep_content {
            for (i, buf) in payload.iter().enumerate() {
                self.overlay.insert(lba.plus(i as u64), buf.clone());
            }
        }
        t
    }

    /// Charges one mechanical write without touching stored content —
    /// timing for write-backs whose logical address is unknown or
    /// irrelevant (e.g. a dedup store flushing a shared copy).
    pub fn writeback_timing(&mut self, disk: &mut Hdd, pos_hint: u64, at: Ns) -> Ns {
        Self::write_retry(disk, at, pos_hint % self.capacity_blocks, 1)
    }

    /// Records `lba`'s current content without charging a disk operation.
    /// Used by write-back caches: the bytes live in the cache for now; the
    /// mechanical write is charged at eviction/flush time.
    pub fn remember(&mut self, lba: Lba, content: BlockBuf) {
        if self.keep_content {
            self.overlay.insert(lba, content);
        }
    }

    /// The current content of `lba` without touching the disk (cache fills
    /// that already paid the mechanical read).
    pub fn content(&self, lba: Lba, ctx: &mut IoCtx<'_>) -> BlockBuf {
        self.overlay
            .get(&lba)
            .cloned()
            .unwrap_or_else(|| ctx.backing.initial_content(lba))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icash_storage::cpu::CpuModel;
    use icash_storage::system::ZeroSource;

    #[test]
    fn overlay_supersedes_backing() {
        let mut home = HomeDisk::new(1000);
        let mut disk = HomeDisk::build_disk(1000);
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);

        let (_, before) = home.read(&mut disk, Lba::new(5), Ns::ZERO, &mut ctx);
        assert_eq!(before.unwrap(), BlockBuf::zeroed());

        let t = home.write(&mut disk, Lba::new(5), BlockBuf::filled(9), Ns::from_ms(50));
        let (_, after) = home.read(&mut disk, Lba::new(5), t, &mut ctx);
        assert_eq!(after.unwrap(), BlockBuf::filled(9));
    }

    #[test]
    fn vm_tagged_lbas_map_in_range() {
        let mut home = HomeDisk::new(100);
        let mut disk = HomeDisk::build_disk(100);
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);
        // A VM-tagged address far beyond capacity still resolves.
        let lba = Lba::new(7).with_vm(3);
        let (t, _) = home.read(&mut disk, lba, Ns::ZERO, &mut ctx);
        assert!(t > Ns::ZERO);
    }
}
