//! Page-mapping flash translation layer.
//!
//! Implements out-of-place writes (every host write programs a fresh page
//! and invalidates the old mapping), per-channel allocation for parallelism,
//! greedy garbage collection, and wear tracking. The FTL is purely logical:
//! it emits [`FlashOp`]s describing the physical work, and the [`Ssd`]
//! facade charges them to its timing and energy models.
//!
//! [`Ssd`]: super::Ssd

use super::flash::{FlashConfig, FlashOp};
use super::wear::WearTracker;
use super::SsdError;
use serde::{Deserialize, Serialize};

const PPN_NONE: u64 = u64::MAX;
const LPN_NONE: u64 = u64::MAX;

/// Counters for internal garbage-collection traffic, used to compute write
/// amplification.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GcStats {
    /// GC passes executed.
    pub collections: u64,
    /// Valid pages relocated by GC.
    pub moved_pages: u64,
    /// Blocks erased (all causes).
    pub erases: u64,
    /// Pages programmed on behalf of the host.
    pub host_programs: u64,
    /// Pages programmed by GC relocation.
    pub gc_programs: u64,
}

impl GcStats {
    /// Total programs / host programs; 1.0 when no GC traffic has occurred.
    pub fn write_amplification(&self) -> f64 {
        if self.host_programs == 0 {
            1.0
        } else {
            (self.host_programs + self.gc_programs) as f64 / self.host_programs as f64
        }
    }

    /// Folds another FTL's counters into this one (sharded engines report
    /// the union of their per-shard SSDs).
    pub fn merge(&mut self, other: &GcStats) {
        self.collections += other.collections;
        self.moved_pages += other.moved_pages;
        self.erases += other.erases;
        self.host_programs += other.host_programs;
        self.gc_programs += other.gc_programs;
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BlockState {
    /// Currently valid (mapped) pages in this block.
    valid: u32,
    /// Pages programmed since the last erase.
    written: u32,
    /// Retired at the endurance limit.
    bad: bool,
}

#[derive(Debug, Clone, Copy)]
struct ActiveBlock {
    block: u32,
    next_page: u32,
}

/// A page-mapping FTL over a [`FlashConfig`] geometry.
///
/// # Examples
///
/// ```
/// use icash_storage::ssd::flash::FlashConfig;
/// use icash_storage::ssd::ftl::Ftl;
///
/// let mut ftl = Ftl::new(FlashConfig::slc(1024, 0.1), 1024);
/// let ops = ftl.write(7).unwrap();
/// assert!(!ops.is_empty());
/// assert!(ftl.map_read(7).is_some());
/// assert!(ftl.map_read(8).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct Ftl {
    cfg: FlashConfig,
    logical_pages: u64,
    l2p: Vec<u64>,
    p2l: Vec<u64>,
    blocks: Vec<BlockState>,
    free_blocks: Vec<Vec<u32>>,
    active: Vec<Option<ActiveBlock>>,
    /// Valid (mapped) pages per channel, kept incrementally so channel
    /// selection is O(channels) per write.
    ch_valid: Vec<u64>,
    /// Pages lost to retired (bad) blocks per channel.
    ch_dead: Vec<u64>,
    next_channel: u32,
    in_gc: bool,
    wear: WearTracker,
    gc: GcStats,
}

impl Ftl {
    /// Creates an FTL exposing `logical_pages` logical pages over `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry cannot hold the logical capacity.
    pub fn new(cfg: FlashConfig, logical_pages: u64) -> Self {
        assert!(
            cfg.total_pages() > logical_pages,
            "physical pages ({}) must exceed logical capacity ({logical_pages})",
            cfg.total_pages()
        );
        let mut free_blocks: Vec<Vec<u32>> = vec![Vec::new(); cfg.channels as usize];
        // Distribute blocks round-robin; reverse so pop() hands out low
        // block numbers first (deterministic, cache-friendly).
        for b in (0..cfg.blocks).rev() {
            free_blocks[cfg.channel_of_block(b) as usize].push(b);
        }
        let wear = WearTracker::new(cfg.blocks, cfg.endurance);
        Ftl {
            l2p: vec![PPN_NONE; logical_pages as usize],
            ch_valid: vec![0; cfg.channels as usize],
            ch_dead: vec![0; cfg.channels as usize],
            p2l: vec![LPN_NONE; cfg.total_pages() as usize],
            blocks: vec![BlockState::default(); cfg.blocks as usize],
            active: vec![None; cfg.channels as usize],
            free_blocks,
            next_channel: 0,
            in_gc: false,
            wear,
            gc: GcStats::default(),
            logical_pages,
            cfg,
        }
    }

    /// The flash geometry.
    pub fn config(&self) -> &FlashConfig {
        &self.cfg
    }

    /// Logical capacity in pages.
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// Physical page currently mapped for `lpn`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of the logical range.
    pub fn map_read(&self, lpn: u64) -> Option<u64> {
        let ppn = self.l2p[lpn as usize];
        (ppn != PPN_NONE).then_some(ppn)
    }

    /// Garbage-collection statistics.
    pub fn gc_stats(&self) -> &GcStats {
        &self.gc
    }

    /// Wear counters.
    pub fn wear(&self) -> &WearTracker {
        &self.wear
    }

    /// Mapped logical pages.
    pub fn mapped_pages(&self) -> u64 {
        self.l2p.iter().filter(|&&p| p != PPN_NONE).count() as u64
    }

    /// Writes `lpn`, returning the physical operations performed (GC reads,
    /// relocation programs, and erases included, in execution order).
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::WornOut`] when so many blocks have been retired
    /// that no free space remains, and [`SsdError::Full`] when GC cannot
    /// reclaim space.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of the logical range.
    pub fn write(&mut self, lpn: u64) -> Result<Vec<FlashOp>, SsdError> {
        assert!(lpn < self.logical_pages, "lpn {lpn} out of range");
        let mut ops = Vec::new();
        self.invalidate(lpn);
        // Allocate on the channel with the most free space (tie broken
        // round-robin). Strict round-robin would let valid pages drift onto
        // one channel until its GC has nothing reclaimable.
        let ch = self.pick_channel();
        self.next_channel = (ch + 1) % self.cfg.channels;
        let ppn = self.alloc_page(ch, &mut ops)?;
        self.l2p[lpn as usize] = ppn;
        self.p2l[ppn as usize] = lpn;
        self.blocks[self.cfg.block_of_page(ppn) as usize].valid += 1;
        self.ch_valid[self.cfg.channel_of_page(ppn) as usize] += 1;
        self.gc.host_programs += 1;
        ops.push(FlashOp::Program { ppn, host: true });
        Ok(ops)
    }

    /// Drops the mapping for `lpn` (e.g. a cache eviction), freeing its page
    /// for the next collection. No-op when unmapped.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of the logical range.
    pub fn trim(&mut self, lpn: u64) {
        self.invalidate(lpn);
    }

    /// Maps `lpn` as part of the factory-loaded image: the page becomes
    /// readable without counting as host write traffic (it happened before
    /// the measured run). No-op when already mapped.
    ///
    /// # Errors
    ///
    /// Returns an allocation error if the device is out of space.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of the logical range.
    pub fn prefill(&mut self, lpn: u64) -> Result<(), SsdError> {
        assert!(lpn < self.logical_pages, "lpn {lpn} out of range");
        if self.l2p[lpn as usize] != PPN_NONE {
            return Ok(());
        }
        let mut ops = Vec::new();
        let ch = self.pick_channel();
        self.next_channel = (ch + 1) % self.cfg.channels;
        let ppn = self.alloc_page(ch, &mut ops)?;
        self.l2p[lpn as usize] = ppn;
        self.p2l[ppn as usize] = lpn;
        self.blocks[self.cfg.block_of_page(ppn) as usize].valid += 1;
        self.ch_valid[self.cfg.channel_of_page(ppn) as usize] += 1;
        Ok(())
    }

    fn invalidate(&mut self, lpn: u64) {
        let old = self.l2p[lpn as usize];
        if old != PPN_NONE {
            self.l2p[lpn as usize] = PPN_NONE;
            self.p2l[old as usize] = LPN_NONE;
            let b = self.cfg.block_of_page(old) as usize;
            debug_assert!(self.blocks[b].valid > 0);
            self.blocks[b].valid -= 1;
            self.ch_valid[self.cfg.channel_of_page(old) as usize] -= 1;
        }
    }

    /// Allocates one free page on `ch`, running GC first if the channel is
    /// low on free blocks.
    fn alloc_page(&mut self, ch: u32, ops: &mut Vec<FlashOp>) -> Result<u64, SsdError> {
        if !self.in_gc && self.free_blocks[ch as usize].len() < 2 && self.active_full(ch) {
            self.collect(ch, ops)?;
        }
        loop {
            if let Some(active) = self.active[ch as usize].as_mut() {
                if active.next_page < self.cfg.pages_per_block {
                    let ppn = self.cfg.first_page(active.block) + active.next_page as u64;
                    active.next_page += 1;
                    self.blocks[active.block as usize].written += 1;
                    return Ok(ppn);
                }
            }
            // Need a fresh block for this channel.
            let block = self.free_blocks[ch as usize]
                .pop()
                .ok_or(SsdError::WornOut)?;
            self.active[ch as usize] = Some(ActiveBlock {
                block,
                next_page: 0,
            });
        }
    }

    /// Channel with the most eventually-reclaimable pages (free + stale),
    /// scanning round-robin from `next_channel` so ties rotate.
    fn pick_channel(&self) -> u32 {
        let mut best = self.next_channel;
        let mut best_free = -1i64;
        for i in 0..self.cfg.channels {
            let ch = (self.next_channel + i) % self.cfg.channels;
            // Blocks are distributed round-robin: channel `ch` owns block
            // indices ch, ch+C, ch+2C, ...
            let blocks_on_ch = (self.cfg.blocks / self.cfg.channels
                + u32::from(ch < self.cfg.blocks % self.cfg.channels))
                as u64;
            let total = blocks_on_ch * self.cfg.pages_per_block as u64;
            let free =
                total as i64 - self.ch_valid[ch as usize] as i64 - self.ch_dead[ch as usize] as i64;
            if free > best_free {
                best_free = free;
                best = ch;
            }
        }
        best
    }

    fn active_full(&self, ch: u32) -> bool {
        match self.active[ch as usize] {
            Some(a) => a.next_page >= self.cfg.pages_per_block,
            None => true,
        }
    }

    /// Greedy garbage collection on channel `ch`: pick the fully-written
    /// block with the fewest valid pages, relocate those pages, erase it.
    fn collect(&mut self, ch: u32, ops: &mut Vec<FlashOp>) -> Result<(), SsdError> {
        self.in_gc = true;
        let result = self.collect_inner(ch, ops);
        self.in_gc = false;
        result
    }

    fn collect_inner(&mut self, ch: u32, ops: &mut Vec<FlashOp>) -> Result<(), SsdError> {
        // Incremental GC: bound the relocation work charged to any single
        // host write. One reclaimed block is enough to make progress; the
        // next writes continue cleaning.
        let mut rounds = 0;
        while self.free_blocks[ch as usize].len() < 2 {
            if rounds >= 4 {
                if self.free_blocks[ch as usize].is_empty() {
                    return Err(SsdError::Full);
                }
                break;
            }
            rounds += 1;
            let victim = match self.pick_victim(ch) {
                Some(v) => v,
                None => return Err(SsdError::Full),
            };
            if self.blocks[victim as usize].valid >= self.cfg.pages_per_block {
                // Nothing reclaimable anywhere on this channel.
                return Err(SsdError::Full);
            }
            self.gc.collections += 1;
            // Relocate every valid page of the victim.
            let first = self.cfg.first_page(victim);
            for p in 0..self.cfg.pages_per_block as u64 {
                let ppn = first + p;
                let lpn = self.p2l[ppn as usize];
                if lpn == LPN_NONE {
                    continue;
                }
                ops.push(FlashOp::Read { ppn });
                let dest = self.alloc_page(ch, ops)?;
                self.p2l[ppn as usize] = LPN_NONE;
                self.l2p[lpn as usize] = dest;
                self.p2l[dest as usize] = lpn;
                self.blocks[victim as usize].valid -= 1;
                self.blocks[self.cfg.block_of_page(dest) as usize].valid += 1;
                self.gc.moved_pages += 1;
                self.gc.gc_programs += 1;
                ops.push(FlashOp::Program {
                    ppn: dest,
                    host: false,
                });
            }
            debug_assert_eq!(self.blocks[victim as usize].valid, 0);
            self.erase(victim, ops);
        }
        Ok(())
    }

    /// The fully-written, non-active block on `ch` with the fewest valid
    /// pages.
    fn pick_victim(&self, ch: u32) -> Option<u32> {
        let active = self.active[ch as usize].map(|a| a.block);
        let mut best: Option<(u32, u32)> = None;
        let mut b = ch;
        while b < self.cfg.blocks {
            let st = &self.blocks[b as usize];
            if !st.bad && Some(b) != active && st.written >= self.cfg.pages_per_block {
                match best {
                    Some((_, v)) if v <= st.valid => {}
                    _ => best = Some((b, st.valid)),
                }
            }
            b += self.cfg.channels;
        }
        best.map(|(b, _)| b)
    }

    fn erase(&mut self, block: u32, ops: &mut Vec<FlashOp>) {
        ops.push(FlashOp::Erase { block });
        self.gc.erases += 1;
        let retired = self.wear.count_erase(block);
        let st = &mut self.blocks[block as usize];
        st.written = 0;
        st.valid = 0;
        if retired {
            st.bad = true;
            self.ch_dead[self.cfg.channel_of_block(block) as usize] +=
                self.cfg.pages_per_block as u64;
        } else {
            let ch = self.cfg.channel_of_block(block) as usize;
            // LIFO reuse; wear-leveling comes from round-robin channels and
            // greedy victimization over all blocks.
            self.free_blocks[ch].insert(0, block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ftl() -> Ftl {
        // 4 channels * 8 blocks * 8 pages = 256 physical pages, 160 logical.
        let cfg = FlashConfig {
            channels: 4,
            pages_per_block: 8,
            blocks: 32,
            endurance: 1_000,
            ..FlashConfig::slc(1, 0.0)
        };
        Ftl::new(cfg, 160)
    }

    #[test]
    fn read_your_writes_mapping() {
        let mut f = small_ftl();
        f.write(5).unwrap();
        let p1 = f.map_read(5).unwrap();
        f.write(5).unwrap();
        let p2 = f.map_read(5).unwrap();
        assert_ne!(p1, p2, "writes must be out-of-place");
        assert!(f.map_read(6).is_none());
    }

    #[test]
    fn trim_unmaps() {
        let mut f = small_ftl();
        f.write(3).unwrap();
        f.trim(3);
        assert!(f.map_read(3).is_none());
        f.trim(3); // idempotent
    }

    /// Deterministic xorshift for uniform-random overwrite patterns.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn overwrite_churn_triggers_gc_and_stays_consistent() {
        let mut f = small_ftl();
        for lpn in 0..150u64 {
            f.write(lpn).unwrap();
        }
        // Uniform random overwrites mix ages within every block, so GC
        // victims always carry some valid pages to relocate.
        let mut rng = 0x1234_5678_9abc_def0u64;
        for step in 0..3_000u64 {
            f.write(xorshift(&mut rng) % 150).unwrap();
            if step % 500 == 0 {
                // Every logical page must stay mapped and unique.
                let mut seen = std::collections::HashSet::new();
                for lpn in 0..150u64 {
                    let ppn = f.map_read(lpn).unwrap();
                    assert!(seen.insert(ppn), "step {step}: duplicate ppn {ppn}");
                }
            }
        }
        assert!(f.gc_stats().collections > 0, "churn must trigger GC");
        assert!(f.gc_stats().write_amplification() > 1.0);
        assert!(f.wear().total_erases() > 0);
    }

    #[test]
    fn gc_emits_physical_ops_in_order() {
        let mut f = small_ftl();
        let mut saw_erase = false;
        for round in 0..60u64 {
            for lpn in 0..100u64 {
                let ops = f.write(lpn).unwrap();
                // The final op of a write is always the host program.
                match ops.last() {
                    Some(FlashOp::Program { host: true, .. }) => {}
                    other => panic!("round {round}: unexpected tail {other:?}"),
                }
                saw_erase |= ops.iter().any(|o| matches!(o, FlashOp::Erase { .. }));
            }
        }
        assert!(saw_erase);
    }

    #[test]
    fn full_device_reports_error() {
        let mut f = small_ftl();
        // 160 logical pages over 256 physical: fill everything valid, then
        // keep writing distinct pages. All logical pages mapped = 160 valid;
        // GC can still reclaim since physical > logical. This must NOT fail.
        for lpn in 0..160u64 {
            f.write(lpn).unwrap();
        }
        for lpn in 0..160u64 {
            f.write(lpn).unwrap();
        }
        assert!(f.mapped_pages() == 160);
    }

    #[test]
    fn wear_out_retires_blocks() {
        let cfg = FlashConfig {
            channels: 2,
            pages_per_block: 4,
            blocks: 8,
            endurance: 3,
            ..FlashConfig::slc(1, 0.0)
        };
        let mut f = Ftl::new(cfg, 16);
        let mut failed = false;
        'outer: for _ in 0..10_000 {
            for lpn in 0..16u64 {
                if f.write(lpn).is_err() {
                    failed = true;
                    break 'outer;
                }
            }
        }
        assert!(failed, "tiny endurance must eventually wear the device out");
        assert!(f.wear().bad_blocks() > 0);
    }

    #[test]
    fn write_amplification_is_one_without_gc() {
        let mut f = small_ftl();
        for lpn in 0..50u64 {
            f.write(lpn).unwrap();
        }
        assert_eq!(f.gc_stats().write_amplification(), 1.0);
    }
}
