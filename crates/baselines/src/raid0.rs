//! The RAID0 baseline: data striped over four SATA disks (paper §4.4,
//! baseline 2 — Linux MD with 4 drives).
//!
//! Striping gives sequential bandwidth and spreads load, but every random
//! access still pays a full mechanical seek + rotation on its disk — which
//! is why the paper's RAID0 numbers trail everything with flash in it.

use crate::home::HomeDisk;
use icash_storage::array::DeviceArray;
use icash_storage::block::{BlockBuf, Lba};
use icash_storage::fault::{self, FaultPlan};
use icash_storage::hash::AddrMap;
use icash_storage::hdd::{Hdd, HddConfig};
use icash_storage::pipeline::{Ticket, WriteThrough};
use icash_storage::request::{Completion, IoErrorKind, Op, Request};
use icash_storage::system::{IoCtx, StorageSystem, SystemReport};
use icash_storage::time::Ns;
use icash_storage::trace::Tracer;

/// Stripe chunk in 4 KB blocks (64 KB chunks, the Linux MD default).
const CHUNK_BLOCKS: u64 = 16;

/// A four-disk striped array.
///
/// # Examples
///
/// ```
/// use icash_baselines::Raid0;
/// use icash_storage::cpu::CpuModel;
/// use icash_storage::{BlockBuf, IoCtx, Lba, Ns, Request, StorageSystem, ZeroSource};
///
/// let mut sys = Raid0::new(64 << 20, 4);
/// let mut cpu = CpuModel::xeon();
/// let backing = ZeroSource;
/// let mut ctx = IoCtx::verifying(&backing, &mut cpu);
/// let w = Request::write(Lba::new(9), Ns::ZERO, BlockBuf::filled(1));
/// let done = sys.submit(&w, &mut ctx).finished;
/// let r = Request::read(Lba::new(9), done);
/// assert_eq!(sys.submit(&r, &mut ctx).data[0], BlockBuf::filled(1));
/// ```
#[derive(Debug)]
pub struct Raid0 {
    array: DeviceArray,
    blocks_per_disk: u64,
    data_blocks: u64,
    overlay: AddrMap<Lba, BlockBuf>,
    keep_content: bool,
    /// Shared write-through ticket bookkeeping ([`WriteThrough`]): every
    /// accepted write is on stable media when submit returns.
    tickets: WriteThrough,
}

impl Raid0 {
    /// Creates an array of `disks` drives jointly holding `data_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `disks` is zero.
    pub fn new(data_bytes: u64, disks: u32) -> Self {
        assert!(disks > 0, "an array needs at least one disk");
        let data_blocks = data_bytes.div_ceil(4096).max(1);
        let blocks_per_disk = data_blocks.div_ceil(disks as u64) + CHUNK_BLOCKS;
        Raid0 {
            array: DeviceArray::striped(
                (0..disks)
                    .map(|_| Hdd::new(HddConfig::seagate_sata(blocks_per_disk)))
                    .collect(),
            ),
            blocks_per_disk,
            data_blocks,
            overlay: AddrMap::default(),
            keep_content: true,
            tickets: WriteThrough::new(),
        }
    }

    /// Disables content retention (timing-only runs with flat memory).
    pub fn timing_only(mut self) -> Self {
        self.keep_content = false;
        self
    }

    /// Arms deterministic fault injection on every member disk. A disabled
    /// plan installs nothing, keeping fault-free runs bit-identical.
    pub fn with_fault_plan(mut self, plan: &FaultPlan) -> Self {
        self.array.install_fault_plan(plan);
        self
    }

    /// Number of member disks.
    pub fn width(&self) -> usize {
        self.array.width()
    }

    /// Maps a logical block to `(disk index, disk-local position)`.
    fn locate(&self, lba: Lba) -> (usize, u64) {
        let block = lba.raw() % self.data_blocks;
        let chunk = block / CHUNK_BLOCKS;
        let disk = (chunk % self.array.width() as u64) as usize;
        let local_chunk = chunk / self.array.width() as u64;
        let pos = (local_chunk * CHUNK_BLOCKS + block % CHUNK_BLOCKS) % self.blocks_per_disk;
        (disk, pos)
    }
}

impl StorageSystem for Raid0 {
    fn name(&self) -> &str {
        "RAID0"
    }

    fn submit(&mut self, req: &Request, ctx: &mut IoCtx<'_>) -> Completion {
        self.array.trace_request(req);
        let mut done = req.at;
        let mut data = Vec::new();
        let mut errors = Vec::new();
        for (i, lba) in req.lbas().enumerate() {
            let (disk, pos) = self.locate(lba);
            match req.op {
                Op::Write => {
                    self.tickets.accept();
                    // Write faults are transient: the drive remaps on
                    // rewrite, so a bounded retry clears them.
                    let hdd = self.array.hdd_at_mut(disk);
                    let last = fault::write_with_retry(|| hdd.write(req.at, pos, 1));
                    done = done.max(last.unwrap_or(req.at));
                    if self.keep_content {
                        self.overlay.insert(lba, req.payload[i].clone());
                    }
                }
                Op::Read => {
                    // RAID0 has no redundancy: a latent sector error that
                    // survives the retry is an unrecoverable read.
                    let hdd = self.array.hdd_at_mut(disk);
                    match fault::read_with_retry(|| hdd.read(req.at, pos, 1)) {
                        Ok(t) => done = done.max(t),
                        Err(_) => {
                            fault::report_lost(
                                &mut errors,
                                &mut data,
                                ctx.collect_data,
                                lba,
                                IoErrorKind::HddMedia,
                            );
                            continue;
                        }
                    }
                    if ctx.collect_data {
                        data.push(
                            self.overlay
                                .get(&lba)
                                .cloned()
                                .unwrap_or_else(|| ctx.backing.initial_content(lba)),
                        );
                    }
                }
            }
        }
        self.array.trace_request_end(done);
        // Write-through: stripes are on the platters when submit returns,
        // so accepted and durable watermarks advance together.
        self.tickets.settle();
        Completion::with_data(done, data).with_errors(errors)
    }

    fn write_ticket(&self) -> Ticket {
        self.tickets.write_ticket()
    }

    fn flushed_ticket(&self) -> Ticket {
        self.tickets.flushed_ticket()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.array.install_tracer(tracer);
    }

    fn report(&self, elapsed: Ns) -> SystemReport {
        self.array.report(self.name(), elapsed)
    }
}

/// A single plain HDD (used by ablations; the paper's LRU/Dedup caches sit
/// on one of these).
pub type SingleDisk = HomeDisk;

#[cfg(test)]
mod tests {
    use super::*;
    use icash_storage::cpu::CpuModel;
    use icash_storage::system::ZeroSource;

    #[test]
    fn stripes_spread_over_all_disks() {
        let sys = Raid0::new(64 << 20, 4);
        let mut seen = std::collections::HashSet::new();
        for chunk in 0..8u64 {
            let (disk, _) = sys.locate(Lba::new(chunk * CHUNK_BLOCKS));
            seen.insert(disk);
        }
        assert_eq!(seen.len(), 4, "consecutive chunks visit all disks");
    }

    #[test]
    fn blocks_within_a_chunk_share_a_disk() {
        let sys = Raid0::new(64 << 20, 4);
        let (d0, p0) = sys.locate(Lba::new(0));
        let (d1, p1) = sys.locate(Lba::new(1));
        assert_eq!(d0, d1);
        assert_eq!(p1, p0 + 1);
    }

    #[test]
    fn parallel_chunks_overlap_in_time() {
        let backing = ZeroSource;
        let mut cpu = CpuModel::xeon();
        let mut ctx = IoCtx::new(&backing, &mut cpu);
        let mut sys = Raid0::new(64 << 20, 4).timing_only();
        // Four single-block reads on four different disks, same arrival.
        let mut latest = Ns::ZERO;
        for chunk in 0..4u64 {
            let r = Request::read(Lba::new(chunk * CHUNK_BLOCKS), Ns::ZERO);
            latest = latest.max(sys.submit(&r, &mut ctx).finished);
        }
        // Serial on one disk would be ~4×; parallel should be ~1× the worst
        // single access (certainly under 2×).
        let single = {
            let mut one = Raid0::new(64 << 20, 4).timing_only();
            let r = Request::read(Lba::new(0), Ns::ZERO);
            one.submit(&r, &mut ctx).finished
        };
        assert!(latest < single * 3);
    }

    #[test]
    fn report_aggregates_all_disks() {
        let backing = ZeroSource;
        let mut cpu = CpuModel::xeon();
        let mut ctx = IoCtx::new(&backing, &mut cpu);
        let mut sys = Raid0::new(64 << 20, 4).timing_only();
        let mut t = Ns::ZERO;
        for i in 0..64u64 {
            let w = Request::write(Lba::new(i * CHUNK_BLOCKS), t, BlockBuf::zeroed());
            t = sys.submit(&w, &mut ctx).finished;
        }
        let rep = sys.report(t);
        assert_eq!(rep.hdd.as_ref().unwrap().writes, 64);
        // Four spindles burn energy even when idle: more than one disk's
        // idle draw over the elapsed time.
        assert!(rep.device_energy.as_joules() > 8.0 * t.as_secs_f64());
    }
}
