//! I-CASH controller configuration.

use icash_storage::block::BLOCK_SIZE;
use icash_storage::fault::HealthPolicy;
use icash_storage::hdd::HddConfig;
use icash_storage::queue::QueueConfig;
use icash_storage::ssd::SsdConfig;
use serde::{Deserialize, Serialize};

/// Tunable parameters of the I-CASH controller.
///
/// Defaults follow the paper's prototype (§4.2–§4.3): 4 KB blocks, a
/// similarity scan every 2,000 I/Os over the 4,000 blocks at the head of
/// the LRU queue, a 2,048-byte delta threshold above which new data is
/// written directly to the SSD, and 64-byte delta segments.
///
/// # Examples
///
/// ```
/// use icash_core::config::IcashConfig;
///
/// let cfg = IcashConfig::builder(128 << 20, 32 << 20, 1 << 30).build();
/// assert_eq!(cfg.scan_interval, 2_000);
/// assert_eq!(cfg.delta_threshold, 2_048);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IcashConfig {
    /// SSD reference-store capacity in bytes.
    pub ssd_bytes: u64,
    /// RAM buffer (delta segments + cached data blocks) in bytes.
    pub ram_bytes: u64,
    /// Size of the data set the device exposes, in bytes.
    pub data_bytes: u64,
    /// Host I/Os between similarity scans (paper: 2,000).
    pub scan_interval: u64,
    /// Blocks examined from the head of the LRU per scan (paper: 4,000).
    pub scan_window: usize,
    /// Fraction of scanned blocks promotable to references per scan.
    pub ref_fraction: f64,
    /// Deltas larger than this go directly to the SSD as full blocks
    /// (paper: 2,048 bytes).
    pub delta_threshold: usize,
    /// Granularity of RAM delta allocation (paper: 64-byte segments).
    pub segment_bytes: usize,
    /// Host I/Os between periodic flushes of dirty deltas to the HDD log.
    pub flush_interval: u64,
    /// Dirty-delta bytes that force an early flush.
    pub flush_dirty_bytes: usize,
    /// HDD log capacity in 4 KB delta blocks.
    pub log_blocks: u64,
    /// Flush triggers batched per group commit. Every trigger drains the
    /// dirty set through the one flush. At 1 (the default) it commits what
    /// it drained at once — the classic synchronous cycle, byte-identical
    /// to the pre-pipeline controller. Above 1 it *stages* the encoded
    /// deltas instead; every `depth`-th trigger (or any barrier / eviction
    /// demand) commits the whole staging buffer in one sequential
    /// multi-entry log append.
    pub group_commit_depth: u64,
    /// Device-health policy: monitor thresholds (a `Failed` device gets
    /// degraded service and an online rebuild after
    /// [`crate::Icash::replace_ssd`]), retry budgets and pacing, and the
    /// staging admission cap. The default, [`HealthPolicy::inert`], moves no
    /// monitor, retries a read once and a write three times, unpaced.
    pub health: HealthPolicy,
    /// Device command queueing: when `Some`, the HDD services batched
    /// submissions through an NCQ-style seek-aware scheduler with request
    /// coalescing, and the SSD defers background erases behind host traffic
    /// on per-channel queues. `None` (the default) installs no queues —
    /// which no queue setting reproduces (DESIGN.md §15).
    #[serde(default)]
    pub queue: Option<QueueConfig>,
}

impl IcashConfig {
    /// Starts building a configuration from the three capacities that vary
    /// between experiments: SSD bytes, RAM bytes, and data-set bytes.
    pub fn builder(ssd_bytes: u64, ram_bytes: u64, data_bytes: u64) -> IcashConfigBuilder {
        IcashConfigBuilder {
            cfg: IcashConfig {
                ssd_bytes,
                ram_bytes,
                data_bytes,
                scan_interval: 2_000,
                scan_window: 4_000,
                ref_fraction: 0.02,
                delta_threshold: 2_048,
                segment_bytes: 64,
                flush_interval: 4_000,
                flush_dirty_bytes: 8 << 20,
                log_blocks: 1 << 20, // 4 GB of log space
                group_commit_depth: 1,
                health: HealthPolicy::inert(),
                queue: None,
            },
        }
    }

    /// Data-set size in 4 KB blocks.
    pub fn data_blocks(&self) -> u64 {
        self.data_bytes.div_ceil(BLOCK_SIZE as u64)
    }

    /// SSD reference-store capacity in 4 KB slots.
    pub fn ssd_slots(&self) -> u64 {
        (self.ssd_bytes / BLOCK_SIZE as u64).max(1)
    }

    /// RAM budget in bytes for deltas plus cached data blocks.
    pub fn ram_budget(&self) -> usize {
        self.ram_bytes as usize
    }

    /// The SSD device configuration for this controller. A configured
    /// command queue becomes per-channel erase deferral on the flash.
    pub fn ssd_config(&self) -> SsdConfig {
        let mut cfg = SsdConfig::fusion_io(self.ssd_bytes);
        cfg.flash.queue = self.queue;
        cfg
    }

    /// The HDD device configuration: home area for the data set plus the
    /// sequential delta-log region. A configured command queue becomes
    /// NCQ-style batch scheduling on the spindle.
    pub fn hdd_config(&self) -> HddConfig {
        let mut cfg = HddConfig::seagate_sata(self.data_blocks() + self.log_blocks);
        cfg.queue = self.queue;
        cfg
    }

    /// First HDD block of the delta-log region (home area precedes it).
    pub fn log_start(&self) -> u64 {
        self.data_blocks()
    }

    /// The per-shard slice of this configuration for an N-wide shard
    /// router: the data set shrinks to the shard's share of the striped
    /// block space (`ceil(data_blocks / N)`), and the SSD reference store,
    /// RAM delta buffer, dirty-flush threshold, HDD log and staging cap
    /// ([`HealthPolicy::shard_share`]) split evenly.
    /// Per-I/O cadences (scan and flush intervals, group-commit depth) are
    /// unchanged — each shard only ever sees its own request stream, so its
    /// controller behaves exactly like a small unsharded I-CASH. Floors
    /// keep degenerate slices valid at high shard counts.
    pub fn shard_slice(&self, shards: u32) -> IcashConfig {
        let n = (shards.max(1)) as u64;
        let mut cfg = self.clone();
        cfg.data_bytes = self.data_blocks().div_ceil(n) * BLOCK_SIZE as u64;
        cfg.ssd_bytes = (self.ssd_bytes / n).max(BLOCK_SIZE as u64);
        cfg.ram_bytes = (self.ram_bytes / n).max(64 << 10);
        cfg.flush_dirty_bytes = (self.flush_dirty_bytes / n as usize).max(BLOCK_SIZE);
        cfg.log_blocks = (self.log_blocks / n).max(64);
        cfg.health = self.health.shard_share(n);
        cfg.validate();
        cfg
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if a capacity is zero, the segment size does not divide the
    /// block size, or the health policy or queue is inconsistent.
    pub fn validate(&self) {
        assert!(self.ssd_bytes > 0, "SSD capacity must be nonzero");
        assert!(self.ram_bytes > 0, "RAM budget must be nonzero");
        assert!(self.data_bytes > 0, "data set must be nonzero");
        assert!(self.scan_interval > 0, "scan interval must be nonzero");
        assert!(
            self.group_commit_depth > 0,
            "group-commit depth must be nonzero"
        );
        assert!(self.segment_bytes > 0, "segments must be nonzero");
        assert_eq!(
            BLOCK_SIZE % self.segment_bytes,
            0,
            "segments must divide the block size"
        );
        assert!(
            (0.0..=1.0).contains(&self.ref_fraction),
            "ref_fraction must be in [0, 1]"
        );
        self.health.validate();
        if let Some(q) = &self.queue {
            q.validate();
        }
    }
}

/// Builder for [`IcashConfig`].
#[derive(Debug, Clone)]
pub struct IcashConfigBuilder {
    cfg: IcashConfig,
}

impl IcashConfigBuilder {
    /// Overrides the scan interval (host I/Os between scans).
    pub fn scan_interval(mut self, ios: u64) -> Self {
        self.cfg.scan_interval = ios;
        self
    }

    /// Overrides the scan window (LRU-head blocks examined per scan).
    pub fn scan_window(mut self, blocks: usize) -> Self {
        self.cfg.scan_window = blocks;
        self
    }

    /// Overrides the fraction of scanned blocks promotable to references.
    pub fn ref_fraction(mut self, fraction: f64) -> Self {
        self.cfg.ref_fraction = fraction;
        self
    }

    /// Overrides the oversize-delta threshold in bytes.
    pub fn delta_threshold(mut self, bytes: usize) -> Self {
        self.cfg.delta_threshold = bytes;
        self
    }

    /// Overrides the flush interval (host I/Os between log flushes).
    pub fn flush_interval(mut self, ios: u64) -> Self {
        self.cfg.flush_interval = ios;
        self
    }

    /// Overrides the dirty-byte threshold that forces an early flush.
    pub fn flush_dirty_bytes(mut self, bytes: usize) -> Self {
        self.cfg.flush_dirty_bytes = bytes;
        self
    }

    /// Overrides the HDD log capacity in 4 KB blocks.
    pub fn log_blocks(mut self, blocks: u64) -> Self {
        self.cfg.log_blocks = blocks;
        self
    }

    /// Overrides the group-commit depth (flush triggers batched per
    /// sequential log append; 1 = commit on every trigger).
    pub fn group_commit_depth(mut self, depth: u64) -> Self {
        self.cfg.group_commit_depth = depth;
        self
    }

    /// Overrides the device-health policy (default
    /// [`HealthPolicy::inert`]).
    pub fn health(mut self, policy: HealthPolicy) -> Self {
        self.cfg.health = policy;
        self
    }

    /// Switches on device command queueing (HDD NCQ batch scheduling with
    /// coalescing, SSD per-channel erase deferral).
    pub fn queue(mut self, queue: QueueConfig) -> Self {
        self.cfg.queue = Some(queue);
        self
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`IcashConfig::validate`]).
    pub fn build(self) -> IcashConfig {
        self.cfg.validate();
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let cfg = IcashConfig::builder(128 << 20, 32 << 20, 960 << 20).build();
        assert_eq!(cfg.scan_interval, 2_000);
        assert_eq!(cfg.scan_window, 4_000);
        assert_eq!(cfg.delta_threshold, 2_048);
        assert_eq!(cfg.segment_bytes, 64);
        assert_eq!(cfg.ssd_slots(), (128 << 20) / 4096);
    }

    #[test]
    fn builder_overrides() {
        let cfg = IcashConfig::builder(1 << 20, 1 << 20, 1 << 20)
            .scan_interval(500)
            .scan_window(100)
            .delta_threshold(1024)
            .flush_interval(64)
            .log_blocks(4096)
            .build();
        assert_eq!(cfg.scan_interval, 500);
        assert_eq!(cfg.scan_window, 100);
        assert_eq!(cfg.delta_threshold, 1024);
        assert_eq!(cfg.flush_interval, 64);
        assert_eq!(cfg.log_blocks, 4096);
    }

    #[test]
    fn hdd_layout_places_log_after_home() {
        let cfg = IcashConfig::builder(1 << 20, 1 << 20, 8 << 20).build();
        assert_eq!(cfg.log_start(), cfg.data_blocks());
        assert_eq!(
            cfg.hdd_config().capacity_blocks,
            cfg.data_blocks() + cfg.log_blocks
        );
    }

    #[test]
    fn shard_slices_stay_valid_and_cover_the_data() {
        let cfg = IcashConfig::builder(128 << 20, 32 << 20, 960 << 20).build();
        for n in [1u32, 2, 7, 64, 1024] {
            let slice = cfg.shard_slice(n);
            // validate() ran inside shard_slice; cover the striped share.
            assert!(slice.data_blocks() * n as u64 >= cfg.data_blocks());
            assert_eq!(slice.scan_interval, cfg.scan_interval);
            assert_eq!(slice.group_commit_depth, cfg.group_commit_depth);
        }
        assert_eq!(cfg.shard_slice(1).data_blocks(), cfg.data_blocks());
        assert_eq!(cfg.shard_slice(2).ssd_bytes, cfg.ssd_bytes / 2);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = IcashConfig::builder(0, 1, 1).build();
    }

    #[test]
    fn queue_knob_threads_into_both_device_configs() {
        let cfg = IcashConfig::builder(1 << 20, 1 << 20, 8 << 20)
            .queue(QueueConfig::depth(8))
            .build();
        assert_eq!(cfg.hdd_config().queue, Some(QueueConfig::depth(8)));
        assert_eq!(cfg.ssd_config().flash.queue, Some(QueueConfig::depth(8)));
        assert_eq!(cfg.shard_slice(4).queue, cfg.queue, "slices keep the queue");
        let off = IcashConfig::builder(1 << 20, 1 << 20, 8 << 20).build();
        assert_eq!(off.hdd_config().queue, None);
        assert_eq!(off.ssd_config().flash.queue, None);
    }

    #[test]
    #[should_panic(expected = "queue depth")]
    fn zero_queue_depth_rejected() {
        let _ = IcashConfig::builder(1, 1, 1)
            .queue(QueueConfig {
                depth: 0,
                sched: icash_storage::queue::QueuePolicy::Sptf,
            })
            .build();
    }
}
