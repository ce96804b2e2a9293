//! The dedup-cache baseline: a content-addressed SSD cache (paper §4.4,
//! baseline 3 — "data deduplication that saves only one copy of data in SSD
//! for identical blocks").
//!
//! Identical blocks share one flash copy, stretching the cache's effective
//! capacity; the price is a full content hash on every write and
//! copy-on-write behaviour when a shared block changes — the effects behind
//! the paper's SPECsfs and RUBiS dedup observations.

use crate::home::HomeDisk;
use icash_storage::array::DeviceArray;
use icash_storage::block::{Lba, BLOCK_SIZE};
use icash_storage::cpu::CpuOp;
use icash_storage::fault::{self, FaultPlan};
use icash_storage::hash::AddrMap;
use icash_storage::lru::LruMap;
use icash_storage::pipeline::{Ticket, WriteThrough};
use icash_storage::request::{Completion, IoErrorKind, Op, Request};
use icash_storage::ssd::{Ssd, SsdConfig};
use icash_storage::system::{IoCtx, StorageSystem, SystemReport};
use icash_storage::time::Ns;

/// Write requests at least this many blocks long bypass the cache and
/// stream to the disk sequentially (see the LRU baseline).
const WRITE_BYPASS_BLOCKS: u32 = 8;

#[derive(Debug, Clone, Copy)]
struct DigestEntry {
    slot: u64,
    /// Whether some block whose latest content lives only here has not yet
    /// reached the disk.
    dirty: bool,
    /// Blocks currently mapping to this copy.
    refs: u32,
}

/// A content-addressed (deduplicating) SSD cache over a single data disk.
///
/// # Examples
///
/// ```
/// use icash_baselines::DedupCache;
/// use icash_storage::cpu::CpuModel;
/// use icash_storage::{BlockBuf, IoCtx, Lba, Ns, Request, StorageSystem, ZeroSource};
///
/// let mut sys = DedupCache::new(1 << 20, 8 << 20);
/// let mut cpu = CpuModel::xeon();
/// let backing = ZeroSource;
/// let mut ctx = IoCtx::verifying(&backing, &mut cpu);
///
/// // Two different LBAs with identical content share one flash copy.
/// let w1 = Request::write(Lba::new(1), Ns::ZERO, BlockBuf::filled(7));
/// let t = sys.submit(&w1, &mut ctx).finished;
/// let w2 = Request::write(Lba::new(2), t, BlockBuf::filled(7));
/// sys.submit(&w2, &mut ctx);
/// assert_eq!(sys.shared_hits(), 1);
/// ```
#[derive(Debug)]
pub struct DedupCache {
    array: DeviceArray,
    home: HomeDisk,
    /// Digest → flash location of the single shared copy.
    store: LruMap<u64, DigestEntry>,
    /// LBA → digest of its current content.
    map: AddrMap<Lba, u64>,
    free_slots: Vec<u64>,
    hits: u64,
    misses: u64,
    shared_hits: u64,
    /// Shared write-through ticket bookkeeping ([`WriteThrough`]): every
    /// accepted write is on stable media when submit returns.
    tickets: WriteThrough,
}

impl DedupCache {
    /// Creates a dedup cache of `cache_bytes` flash over `data_bytes` disk.
    pub fn new(cache_bytes: u64, data_bytes: u64) -> Self {
        let ssd = Ssd::new(SsdConfig::fusion_io(cache_bytes));
        let slots = ssd.capacity_pages();
        let data_blocks = data_bytes.div_ceil(BLOCK_SIZE as u64);
        DedupCache {
            array: DeviceArray::coupled(ssd, HomeDisk::build_disk(data_blocks)),
            home: HomeDisk::new(data_blocks),
            store: LruMap::new(),
            map: AddrMap::default(),
            free_slots: (0..slots).rev().collect(),
            hits: 0,
            misses: 0,
            shared_hits: 0,
            tickets: WriteThrough::new(),
        }
    }

    /// Disables content retention (timing-only runs with flat memory).
    pub fn timing_only(mut self) -> Self {
        self.home = self.home.timing_only();
        self
    }

    /// Arms deterministic fault injection on both devices. A disabled plan
    /// installs nothing, keeping fault-free runs bit-identical.
    pub fn with_fault_plan(mut self, plan: &FaultPlan) -> Self {
        self.array.install_fault_plan(plan);
        self
    }

    /// The cache SSD.
    pub fn ssd(&self) -> &Ssd {
        self.array.ssd()
    }

    /// Times a write or fill found an existing identical copy to share.
    pub fn shared_hits(&self) -> u64 {
        self.shared_hits
    }

    /// (hits, misses) over the run so far.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Drops one reference from `digest`; frees the slot as soon as the
    /// last block stops pointing at it (stale versions must not clog the
    /// cache). A *superseded* version is obsolete data: it is discarded
    /// without a write-back — the block's new version carries the dirty
    /// duty.
    fn unref_superseded(&mut self, digest: u64) {
        let freeable = match self.store.get_mut(&digest) {
            Some(e) => {
                e.refs = e.refs.saturating_sub(1);
                e.refs == 0
            }
            None => false,
        };
        if freeable {
            if let Some(e) = self.store.remove(&digest) {
                self.array.ssd_mut().trim(e.slot);
                self.free_slots.push(e.slot);
            }
        }
    }

    fn take_slot(&mut self, at: Ns) -> u64 {
        if let Some(slot) = self.free_slots.pop() {
            return slot;
        }
        let (_, entry) = self.store.pop_lru().expect("cache cannot be empty");
        if entry.dirty {
            // Approximate write-back: the shared copy covered at least one
            // block whose latest content had not reached the disk. Charge
            // one mechanical write (timing only; content stays tracked in
            // the overlay).
            self.home
                .writeback_timing(self.array.hdd_mut(), entry.slot, at);
        }
        self.array.ssd_mut().trim(entry.slot);
        entry.slot
    }

    /// Ensures a flash copy of `content` exists; returns the completion
    /// instant of the work this required (just `at` when the copy was
    /// shared), or `None` when the flash program failed and no copy was
    /// interned — the caller's degraded path takes over.
    fn intern(&mut self, digest: u64, at: Ns, dirty: bool) -> Option<Ns> {
        match self.store.get_mut(&digest) {
            Some(entry) => {
                entry.dirty |= dirty;
                entry.refs += 1;
                self.shared_hits += 1;
                Some(at)
            }
            None => {
                let slot = self.take_slot(at);
                match self.array.ssd_mut().write(at, slot) {
                    Ok(t) => {
                        self.store.insert(
                            digest,
                            DigestEntry {
                                slot,
                                dirty,
                                refs: 1,
                            },
                        );
                        Some(t)
                    }
                    Err(_) => {
                        self.free_slots.push(slot);
                        None
                    }
                }
            }
        }
    }
}

impl StorageSystem for DedupCache {
    fn name(&self) -> &str {
        "Dedup"
    }

    fn submit(&mut self, req: &Request, ctx: &mut IoCtx<'_>) -> Completion {
        self.array.trace_request(req);
        let mut done = req.at;
        let mut data = Vec::new();
        let mut errors = Vec::new();
        if req.op == Op::Write && req.blocks >= WRITE_BYPASS_BLOCKS {
            for lba in req.lbas() {
                self.tickets.accept();
                if let Some(digest) = self.map.remove(&lba) {
                    self.unref_superseded(digest);
                }
            }
            let t = self
                .home
                .write_span(self.array.hdd_mut(), req.lba, &req.payload, req.at);
            self.array.trace_request_end(t);
            self.tickets.settle();
            return Completion::with_data(t, data);
        }
        for (i, lba) in req.lbas().enumerate() {
            match req.op {
                Op::Write => {
                    self.tickets.accept();
                    // Every write pays the identity hash (the dedup tax).
                    let hash_cost = ctx.cpu.charge(CpuOp::ContentHash);
                    let content = &req.payload[i];
                    let digest = content.digest();
                    if let Some(old) = self.map.insert(lba, digest) {
                        if old != digest {
                            self.unref_superseded(old);
                        }
                    }
                    // Response: hash + (shared: nothing | new: flash write).
                    let t = match self.intern(digest, req.at + hash_cost, true) {
                        Some(t) => t,
                        // Degraded write: the flash program failed, so the
                        // bytes go straight to the disk instead.
                        None => self.home.write(
                            self.array.hdd_mut(),
                            lba,
                            content.clone(),
                            req.at + hash_cost,
                        ),
                    };
                    self.home.remember(lba, content.clone());
                    done = done.max(t);
                }
                Op::Read => {
                    let cached = self
                        .map
                        .get(&lba)
                        .and_then(|d| self.store.get(d).map(|e| (*d, *e)));
                    let t = match cached {
                        Some((digest, entry)) => {
                            self.hits += 1;
                            let ssd = self.array.ssd_mut();
                            match fault::read_with_retry(|| ssd.read(req.at, entry.slot)) {
                                Ok(t) => t,
                                Err(_) => {
                                    // The shared copy is unreadable: retire
                                    // it so the slot stops serving anyone.
                                    if let Some(e) = self.store.remove(&digest) {
                                        self.array.ssd_mut().trim(e.slot);
                                        self.free_slots.push(e.slot);
                                    }
                                    if entry.dirty {
                                        // Some block's latest bytes lived
                                        // only in flash: report the loss.
                                        fault::report_lost(
                                            &mut errors,
                                            &mut data,
                                            ctx.collect_data,
                                            lba,
                                            IoErrorKind::SsdMedia,
                                        );
                                        continue;
                                    }
                                    // Clean copy: the disk still holds the
                                    // block; serve the home copy.
                                    match self.home.read(self.array.hdd_mut(), lba, req.at, ctx) {
                                        (t, Ok(_)) => t,
                                        (t, Err(_)) => {
                                            fault::report_lost(
                                                &mut errors,
                                                &mut data,
                                                ctx.collect_data,
                                                lba,
                                                IoErrorKind::HddMedia,
                                            );
                                            done = done.max(t);
                                            continue;
                                        }
                                    }
                                }
                            }
                        }
                        None => {
                            self.misses += 1;
                            match self.home.read(self.array.hdd_mut(), lba, req.at, ctx) {
                                (t, Ok(content)) => {
                                    let hash_cost = ctx.cpu.charge(CpuOp::ContentHash);
                                    let digest = content.digest();
                                    if let Some(old) = self.map.insert(lba, digest) {
                                        if old != digest {
                                            self.unref_superseded(old);
                                        }
                                    }
                                    // The fill program overlaps the host
                                    // response (best effort: a failed fill
                                    // just stays uncached).
                                    let _ = self.intern(digest, t, false);
                                    t + hash_cost
                                }
                                (t, Err(_)) => {
                                    fault::report_lost(
                                        &mut errors,
                                        &mut data,
                                        ctx.collect_data,
                                        lba,
                                        IoErrorKind::HddMedia,
                                    );
                                    done = done.max(t);
                                    continue;
                                }
                            }
                        }
                    };
                    if ctx.collect_data {
                        data.push(self.home.content(lba, ctx));
                    }
                    done = done.max(t);
                }
            }
        }
        self.array.trace_request_end(done);
        // Accepted writes are on flash or disk (both stable) when submit
        // returns, so accepted and durable watermarks advance together.
        self.tickets.settle();
        Completion::with_data(done, data).with_errors(errors)
    }

    fn write_ticket(&self) -> Ticket {
        self.tickets.write_ticket()
    }

    fn flushed_ticket(&self) -> Ticket {
        self.tickets.flushed_ticket()
    }

    fn flush(&mut self, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        let _ = ctx;
        let dirty: Vec<u64> = self
            .store
            .iter()
            .filter(|(_, e)| e.dirty)
            .map(|(d, _)| *d)
            .collect();
        let mut t = now;
        for digest in dirty {
            if let Some(e) = self.store.get_mut(&digest) {
                let slot = e.slot;
                e.dirty = false;
                t = self.home.writeback_timing(self.array.hdd_mut(), slot, t);
            }
        }
        t
    }

    fn set_tracer(&mut self, tracer: icash_storage::trace::Tracer) {
        self.array.install_tracer(tracer);
    }

    fn report(&self, elapsed: Ns) -> SystemReport {
        self.array.report(self.name(), elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icash_storage::block::BlockBuf;
    use icash_storage::cpu::CpuModel;
    use icash_storage::system::ZeroSource;

    #[test]
    fn identical_content_shares_flash() {
        let backing = ZeroSource;
        let mut cpu = CpuModel::xeon();
        let mut ctx = IoCtx::new(&backing, &mut cpu);
        let mut sys = DedupCache::new(1 << 20, 8 << 20).timing_only();
        let mut t = Ns::ZERO;
        for i in 0..20u64 {
            let w = Request::write(Lba::new(i), t, BlockBuf::filled(0xCC));
            t = sys.submit(&w, &mut ctx).finished;
        }
        assert_eq!(sys.shared_hits(), 19, "one copy, nineteen shares");
        assert_eq!(sys.ssd().stats().writes, 1, "only the first write programs");
    }

    #[test]
    fn distinct_content_allocates_separately() {
        let backing = ZeroSource;
        let mut cpu = CpuModel::xeon();
        let mut ctx = IoCtx::new(&backing, &mut cpu);
        let mut sys = DedupCache::new(1 << 20, 8 << 20).timing_only();
        let mut t = Ns::ZERO;
        for i in 0..5u64 {
            let w = Request::write(Lba::new(i), t, BlockBuf::filled(i as u8));
            t = sys.submit(&w, &mut ctx).finished;
        }
        assert_eq!(sys.shared_hits(), 0);
        assert_eq!(sys.ssd().stats().writes, 5);
    }

    #[test]
    fn writes_pay_the_hash_tax() {
        let backing = ZeroSource;
        let mut cpu = CpuModel::xeon();
        let mut ctx = IoCtx::new(&backing, &mut cpu);
        let mut sys = DedupCache::new(1 << 20, 8 << 20).timing_only();
        let w = Request::write(Lba::new(0), Ns::ZERO, BlockBuf::zeroed());
        sys.submit(&w, &mut ctx);
        assert_eq!(cpu.ops(), 1);
        assert!(cpu.storage_busy() >= Ns::from_us(5));
    }

    #[test]
    fn read_back_returns_written_content() {
        let backing = ZeroSource;
        let mut cpu = CpuModel::xeon();
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);
        let mut sys = DedupCache::new(16 << 10, 8 << 20);
        let mut t = Ns::ZERO;
        for i in 0..12u64 {
            let w = Request::write(Lba::new(i), t, BlockBuf::filled((i % 3) as u8));
            t = sys.submit(&w, &mut ctx).finished;
        }
        for i in 0..12u64 {
            let r = Request::read(Lba::new(i), t);
            let c = sys.submit(&r, &mut ctx);
            t = c.finished;
            assert_eq!(c.data[0], BlockBuf::filled((i % 3) as u8), "lba {i}");
        }
    }

    #[test]
    fn cold_reads_fill_and_dedupe() {
        let backing = ZeroSource; // all blocks identical (zeroes)
        let mut cpu = CpuModel::xeon();
        let mut ctx = IoCtx::new(&backing, &mut cpu);
        let mut sys = DedupCache::new(1 << 20, 8 << 20).timing_only();
        let mut t = Ns::ZERO;
        for i in 0..10u64 {
            let r = Request::read(Lba::new(i * 100), t);
            t = sys.submit(&r, &mut ctx).finished;
        }
        // All-zero backing: one flash copy serves every block.
        assert_eq!(sys.ssd().stats().writes, 1);
        assert_eq!(sys.shared_hits(), 9);
    }
}
