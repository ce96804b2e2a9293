//! Mechanical hard-disk model.
//!
//! The substitute for the paper's Seagate SATA drives. The model keeps head
//! position and rotational phase as state, so the cost structure that I-CASH
//! exploits is faithfully reproduced: a random 4 KB access pays a
//! distance-dependent seek plus rotational latency (several milliseconds),
//! while a sequential continuation pays only media transfer time (tens of
//! microseconds). One packed delta-log write is therefore ~100× cheaper than
//! the many random writes it replaces.

use crate::block::BLOCK_SIZE;
use crate::energy::{EnergyMeter, MicroJoules};
use crate::fault::FaultInjector;
use crate::queue::{CommandQueue, QueueConfig};
use crate::stats::DeviceStats;
use crate::time::Ns;
use crate::trace::{TraceEvent, TraceKind, Tracer};
use core::fmt;
use serde::{Deserialize, Serialize};

/// A media-level disk failure.
///
/// Mirrors the failure modes of real mechanical drives: a *latent sector
/// error* surfaces on read (the sector's data is gone until something
/// rewrites it, at which point the drive remaps it), and a *write fault* is
/// a transient failure of one write operation (a retry normally succeeds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HddError {
    /// A read hit an unreadable (latent-error) sector at `lba`.
    LatentSector {
        /// First unreadable block of the access.
        lba: u64,
    },
    /// A write failed transiently at `lba`; retrying is reasonable.
    WriteFault {
        /// First block of the failed write.
        lba: u64,
    },
}

impl fmt::Display for HddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HddError::LatentSector { lba } => {
                write!(f, "latent sector error reading block {lba}")
            }
            HddError::WriteFault { lba } => {
                write!(f, "transient write fault at block {lba}")
            }
        }
    }
}

impl std::error::Error for HddError {}

/// Configuration of a simulated hard disk.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HddConfig {
    /// Usable capacity in 4 KB blocks.
    pub capacity_blocks: u64,
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
    /// Blocks per track; accesses within one track need no seek.
    pub blocks_per_track: u64,
    /// Single-track (minimum) seek time.
    pub min_seek: Ns,
    /// Full-stroke (maximum) seek time.
    pub max_seek: Ns,
    /// Sustained media transfer rate in bytes per second.
    pub transfer_bps: u64,
    /// Baseline spindle power in Watts.
    pub idle_watts: f64,
    /// Additional power while seeking/transferring in Watts.
    pub active_watts: f64,
    /// Native command queue, `None` by default: batched submissions are
    /// serviced strictly in order and the drive behaves exactly as it did
    /// before the queue layer existed. With `Some`, [`Hdd::write_batch`] /
    /// [`Hdd::read_batch`] admit commands against the configured depth and
    /// dispatch them shortest positioning time first, coalescing LBA-adjacent
    /// commands into single sequential transfers.
    #[serde(default)]
    pub queue: Option<QueueConfig>,
}

impl HddConfig {
    /// A 7200 RPM SATA drive comparable to the paper's 160 GB Seagate:
    /// ~0.8 ms single-track to ~16 ms full-stroke seek, ~110 MB/s media rate,
    /// ~8 W idle / +7 W active (≈15 W busy, the figure Table 5 uses per
    /// RAID0 spindle).
    pub fn seagate_sata(capacity_blocks: u64) -> Self {
        HddConfig {
            capacity_blocks,
            rpm: 7200,
            blocks_per_track: 256, // 1 MB tracks
            min_seek: Ns::from_us(800),
            max_seek: Ns::from_ms(16),
            transfer_bps: 110 * 1024 * 1024,
            idle_watts: 8.0,
            active_watts: 7.0,
            queue: None,
        }
    }

    /// Time for one full platter revolution.
    pub fn revolution(&self) -> Ns {
        Ns::from_ns(60_000_000_000 / self.rpm as u64)
    }

    /// Media transfer time for one 4 KB block.
    pub fn block_transfer(&self) -> Ns {
        Ns::from_ns(BLOCK_SIZE as u64 * 1_000_000_000 / self.transfer_bps)
    }
}

/// A simulated mechanical disk with head-position and rotational-phase state.
///
/// # Examples
///
/// ```
/// use icash_storage::hdd::{Hdd, HddConfig};
/// use icash_storage::time::Ns;
///
/// let mut disk = Hdd::new(HddConfig::seagate_sata(1 << 20));
/// let random = disk.read(Ns::ZERO, 500_000, 1)?;
/// let sequential = disk.read(random, 500_001, 1)? - random;
/// assert!(sequential < Ns::from_us(100)); // continuation: transfer only
/// # Ok::<(), icash_storage::hdd::HddError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Hdd {
    cfg: HddConfig,
    busy_until: Ns,
    /// Block the head will be positioned after when the current op finishes.
    head: u64,
    stats: DeviceStats,
    energy: EnergyMeter,
    /// Fault injection, absent by default (the common, zero-cost case).
    faults: Option<Box<FaultInjector>>,
    tracer: Tracer,
    /// Index of this spindle within its array, stamped into trace events.
    trace_disk: u8,
    /// The drive's write-behind cache (queue mode only): log appends parked
    /// by [`Hdd::write_behind`], drained as one seek-saving burst when the
    /// cache fills or a barrier ([`Hdd::flush_cache`]) arrives.
    wq: Vec<(u64, u32)>,
}

impl Hdd {
    /// Creates a disk with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configured capacity or track size is zero.
    pub fn new(cfg: HddConfig) -> Self {
        assert!(cfg.capacity_blocks > 0, "capacity must be nonzero");
        assert!(cfg.blocks_per_track > 0, "track size must be nonzero");
        let energy = EnergyMeter::new(cfg.idle_watts, cfg.active_watts);
        Hdd {
            cfg,
            busy_until: Ns::ZERO,
            head: 0,
            stats: DeviceStats::new(),
            energy,
            faults: None,
            tracer: Tracer::disabled(),
            trace_disk: 0,
            wq: Vec::new(),
        }
    }

    /// Installs a fault injector; subsequent reads/writes may fail
    /// according to its plan.
    pub fn install_faults(&mut self, mut injector: FaultInjector) {
        injector.set_tracer(self.tracer.clone());
        self.faults = Some(Box::new(injector));
    }

    /// Installs the tracer that receives per-access events, stamping this
    /// disk's array index `disk` into each. Propagates into any installed
    /// fault injector, whichever was installed first.
    pub fn set_tracer(&mut self, tracer: Tracer, disk: u8) {
        if let Some(f) = self.faults.as_mut() {
            f.set_tracer(tracer.clone());
        }
        self.tracer = tracer;
        self.trace_disk = disk;
    }

    /// The disk configuration.
    pub fn config(&self) -> &HddConfig {
        &self.cfg
    }

    /// Operation statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// The instant the disk becomes idle.
    pub fn busy_until(&self) -> Ns {
        self.busy_until
    }

    /// Total energy drawn over `elapsed` of virtual time.
    pub fn energy(&self, elapsed: Ns) -> MicroJoules {
        self.energy.total(elapsed, self.stats.busy)
    }

    /// Reads `blocks` consecutive blocks starting at `lba`, arriving at `at`.
    /// Returns the completion instant, or the latent sector error the access
    /// hit. A failed read still burned the mechanical time (the drive ground
    /// through its internal retries) and still counts in the device stats.
    ///
    /// # Panics
    ///
    /// Panics if the access runs past the end of the disk.
    pub fn read(&mut self, at: Ns, lba: u64, blocks: u32) -> Result<Ns, HddError> {
        if !self.wq.is_empty() {
            self.note_cache_overtake(at, lba);
        }
        let (queued, service, done) = self.access(at, lba, blocks);
        self.stats
            .record_read(blocks as usize * BLOCK_SIZE, queued, service);
        let mut failed = None;
        if let Some(f) = self.faults.as_mut() {
            failed = f.hdd_read(at, lba, blocks);
        }
        let disk = self.trace_disk;
        self.tracer.emit(|| TraceEvent {
            at,
            kind: TraceKind::HddRead {
                disk,
                lba,
                blocks,
                queued,
                service,
                ok: failed.is_none(),
            },
        });
        match failed {
            Some(bad) => Err(HddError::LatentSector { lba: bad }),
            None => Ok(done),
        }
    }

    /// Writes `blocks` consecutive blocks starting at `lba`, arriving at
    /// `at`. Returns the completion instant, or a transient write fault.
    /// A successful write remaps (clears) any latent errors it covers.
    ///
    /// # Panics
    ///
    /// Panics if the access runs past the end of the disk.
    pub fn write(&mut self, at: Ns, lba: u64, blocks: u32) -> Result<Ns, HddError> {
        if !self.wq.is_empty() {
            self.note_cache_overtake(at, lba);
        }
        let (queued, service, done) = self.access(at, lba, blocks);
        self.stats
            .record_write(blocks as usize * BLOCK_SIZE, queued, service);
        let mut failed = None;
        if let Some(f) = self.faults.as_mut() {
            failed = f.hdd_write(at, lba, blocks);
        }
        let disk = self.trace_disk;
        self.tracer.emit(|| TraceEvent {
            at,
            kind: TraceKind::HddWrite {
                disk,
                lba,
                blocks,
                queued,
                service,
                ok: failed.is_none(),
            },
        });
        match failed {
            Some(bad) => Err(HddError::WriteFault { lba: bad }),
            None => Ok(done),
        }
    }

    /// The seek + rotational cost the head would pay to start an access at
    /// `lba` at instant `now` (zero for a sequential continuation) — the
    /// SPTF scheduler's cost function.
    pub fn positioning_cost(&self, now: Ns, lba: u64) -> Ns {
        if lba == self.head {
            Ns::ZERO
        } else {
            self.seek_time(lba) + self.rotational_delay(now, lba)
        }
    }

    /// Submits a batch of reads (`(lba, blocks)` pairs) arriving together
    /// at `at`, through the native command queue when one is configured.
    /// Returns the completion instant of the last command, or the first
    /// media error hit (remaining commands are abandoned; callers retry the
    /// batch). Without a queue the batch is serviced strictly in
    /// submission order — bit-identical to the caller issuing the loop.
    pub fn read_batch(&mut self, at: Ns, reqs: &[(u64, u32)]) -> Result<Ns, HddError> {
        self.batch(at, reqs, false)
    }

    /// Submits a batch of writes arriving together at `at`; see
    /// [`Hdd::read_batch`] for queueing and error semantics.
    pub fn write_batch(&mut self, at: Ns, reqs: &[(u64, u32)]) -> Result<Ns, HddError> {
        self.batch(at, reqs, true)
    }

    /// How many writes currently sit parked in the write-behind cache.
    /// Zero after any durability barrier ([`Hdd::flush_cache`]).
    pub fn cached_writes(&self) -> usize {
        self.wq.len()
    }

    /// Whether [`Hdd::write_behind`] will actually park writes: requires a
    /// command queue and no fault injector (faults must surface on the
    /// access that caused them, so fault runs stay synchronous).
    pub fn write_cache_enabled(&self) -> bool {
        self.cfg.queue.is_some() && self.faults.is_none()
    }

    /// Parks a write in the drive's write-behind cache and returns `at`
    /// immediately — the host does not wait for the media. The cache
    /// drains as one scheduled burst when it reaches the configured queue
    /// depth or a barrier calls [`Hdd::flush_cache`]. With the cache
    /// disabled (no queue, or fault injection armed) this is a plain
    /// synchronous [`Hdd::write`].
    pub fn write_behind(&mut self, at: Ns, lba: u64, blocks: u32) -> Result<Ns, HddError> {
        if !self.write_cache_enabled() {
            return self.write(at, lba, blocks);
        }
        let qcfg = self.cfg.queue.expect("write cache requires a queue");
        self.wq.push((lba, blocks));
        let depth = self.wq.len() as u32;
        let dev = self.trace_disk.saturating_add(1);
        self.tracer.emit(|| TraceEvent {
            at,
            kind: TraceKind::QueueAdmit {
                dev,
                lba,
                blocks,
                depth,
            },
        });
        if depth >= qcfg.depth {
            self.flush_cache(at);
        }
        Ok(at)
    }

    /// Drains the write-behind cache as one scheduled burst (seek-aware
    /// order, adjacent appends coalesced) and returns the instant the
    /// media goes idle again — `at` itself when the cache was empty.
    pub fn flush_cache(&mut self, at: Ns) -> Ns {
        if self.wq.is_empty() {
            return at;
        }
        let reqs = std::mem::take(&mut self.wq);
        // The cache never holds writes while faults are armed
        // (`write_behind` degrades to synchronous writes), so the burst
        // cannot fail.
        self.batch_inner(at, &reqs, true, false).unwrap_or(at)
    }

    /// A foreground command issued while the write-behind cache holds
    /// parked writes overtakes all of them — the out-of-order completion
    /// the cache exists to permit.
    fn note_cache_overtake(&mut self, at: Ns, lba: u64) {
        let jumped = self.wq.len() as u32;
        let dev = self.trace_disk.saturating_add(1);
        self.tracer.emit(|| TraceEvent {
            at,
            kind: TraceKind::QueueReorder { dev, lba, jumped },
        });
    }

    /// The shared batch path: admit → schedule → coalesce → service.
    fn batch(&mut self, at: Ns, reqs: &[(u64, u32)], write: bool) -> Result<Ns, HddError> {
        self.batch_inner(at, reqs, write, true)
    }

    /// Batch machinery behind both foreground batches and the write-cache
    /// drain; `trace_admits` is false for the drain, whose commands were
    /// already admitted (and traced) by [`Hdd::write_behind`].
    fn batch_inner(
        &mut self,
        at: Ns,
        reqs: &[(u64, u32)],
        write: bool,
        trace_admits: bool,
    ) -> Result<Ns, HddError> {
        let one = |hdd: &mut Hdd, t, lba, blocks| {
            if write {
                hdd.write(t, lba, blocks)
            } else {
                hdd.read(t, lba, blocks)
            }
        };
        let Some(qcfg) = self.cfg.queue else {
            // No queue installed: strict submission order, exactly the
            // loop every call site ran before this layer existed.
            let mut t = at;
            for &(lba, blocks) in reqs {
                t = one(self, t, lba, blocks)?;
            }
            return Ok(t);
        };
        let dev = self.trace_disk.saturating_add(1);
        let mut q = CommandQueue::new(qcfg);
        let mut t = at;
        let mut source = reqs.iter().copied();
        // A command the full queue refused, waiting for the next free tag.
        let mut refused: Option<(u64, u32)> = None;
        loop {
            // Admission: fill the tag set until backpressure pushes back.
            while let Some((lba, blocks)) = refused.take().or_else(|| source.next()) {
                match q.admit(lba, blocks, write) {
                    Ok(depth) => {
                        if trace_admits {
                            self.tracer.emit(|| TraceEvent {
                                at: t,
                                kind: TraceKind::QueueAdmit {
                                    dev,
                                    lba,
                                    blocks,
                                    depth,
                                },
                            });
                        }
                    }
                    Err(_) => {
                        refused = Some((lba, blocks));
                        break;
                    }
                }
            }
            // Dispatch: cheapest positioning first, aging-bounded.
            let now = t.max(self.busy_until);
            let Some(d) = q.dispatch(|lba, _| self.positioning_cost(now, lba)) else {
                break;
            };
            if d.jumped > 0 {
                let (lba, jumped) = (d.cmd.lba, d.jumped);
                self.tracer.emit(|| TraceEvent {
                    at: t,
                    kind: TraceKind::QueueReorder { dev, lba, jumped },
                });
            }
            // Coalesce: pull LBA-adjacent same-direction commands so the
            // run becomes one sequential media transfer.
            let mut blocks = d.cmd.blocks;
            let mut spans = 1u32;
            while let Some(next) = q.take_adjacent(d.cmd.lba + blocks as u64, write) {
                blocks += next.blocks;
                spans += 1;
            }
            if spans > 1 {
                let lba = d.cmd.lba;
                self.tracer.emit(|| TraceEvent {
                    at: t,
                    kind: TraceKind::Coalesce {
                        dev,
                        lba,
                        spans,
                        blocks,
                    },
                });
            }
            t = one(self, t, d.cmd.lba, blocks)?;
        }
        Ok(t)
    }

    /// Positioning + transfer cost shared by reads and writes.
    fn access(&mut self, at: Ns, lba: u64, blocks: u32) -> (Ns, Ns, Ns) {
        assert!(blocks > 0, "accesses must cover at least one block");
        assert!(
            lba + blocks as u64 <= self.cfg.capacity_blocks,
            "access [{lba}, +{blocks}) past end of {}-block disk",
            self.cfg.capacity_blocks
        );
        let start = at.max(self.busy_until);
        let queued = start - at;

        let positioning = if lba == self.head {
            // Sequential continuation: the head is already there.
            Ns::ZERO
        } else {
            self.seek_time(lba) + self.rotational_delay(start, lba)
        };
        let transfer = self.cfg.block_transfer() * blocks as u64;
        let service = positioning + transfer;

        self.busy_until = start + service;
        self.head = lba + blocks as u64;
        (queued, service, self.busy_until)
    }

    /// Seek time from the current head track to the track holding `lba`,
    /// using the standard square-root-of-distance curve.
    fn seek_time(&self, lba: u64) -> Ns {
        let from = self.head / self.cfg.blocks_per_track;
        let to = lba / self.cfg.blocks_per_track;
        if from == to {
            return Ns::ZERO;
        }
        let dist = from.abs_diff(to) as f64;
        let max_dist = (self.cfg.capacity_blocks / self.cfg.blocks_per_track).max(1) as f64;
        let span = self.cfg.max_seek.saturating_sub(self.cfg.min_seek);
        self.cfg.min_seek + span.scale((dist / max_dist).sqrt())
    }

    /// Rotational delay until the target sector passes under the head,
    /// derived from the deterministic angular phase at `now`.
    fn rotational_delay(&self, now: Ns, lba: u64) -> Ns {
        let rev = self.cfg.revolution().as_ns();
        let phase_now = now.as_ns() % rev;
        let sector = lba % self.cfg.blocks_per_track;
        let target_phase = sector * rev / self.cfg.blocks_per_track;
        let wait = (target_phase + rev - phase_now) % rev;
        Ns::from_ns(wait)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultTrigger};
    use crate::trace::RingSink;
    use std::sync::{Arc, Mutex};

    fn disk() -> Hdd {
        Hdd::new(HddConfig::seagate_sata(10_000_000))
    }

    #[test]
    fn random_access_pays_mechanical_cost() {
        let mut d = disk();
        let done = d.read(Ns::ZERO, 5_000_000, 1).unwrap();
        // Must include a multi-millisecond seek for a half-stroke move.
        assert!(done > Ns::from_ms(5), "got {done}");
    }

    #[test]
    fn sequential_run_is_transfer_bound() {
        let mut d = disk();
        let first = d.write(Ns::ZERO, 1_000_000, 1).unwrap();
        let second = d.write(first, 1_000_001, 1).unwrap();
        let continuation = second - first;
        assert_eq!(continuation, d.config().block_transfer());
    }

    #[test]
    fn queueing_delays_later_arrivals() {
        let mut d = disk();
        let first_done = d.read(Ns::ZERO, 2_000_000, 1).unwrap();
        // Arrives while the first op is still in service.
        let second_done = d.read(Ns::from_us(1), 2_000_001, 1).unwrap();
        assert!(second_done > first_done);
        assert!(d.stats().queued > Ns::ZERO);
    }

    #[test]
    fn multiblock_transfer_scales() {
        let mut d = disk();
        let one = d.read(Ns::ZERO, 0, 1).unwrap();
        let mut d2 = disk();
        let eight = d2.read(Ns::ZERO, 0, 8).unwrap();
        assert_eq!(eight - one, d.config().block_transfer() * 7);
    }

    #[test]
    fn same_track_skips_seek() {
        let mut d = disk();
        let _ = d.read(Ns::ZERO, 100, 1).unwrap();
        // Different sector on the same track: rotational delay only.
        let before = d.busy_until();
        let done = d.read(before, 50, 1).unwrap();
        let service = done - before;
        assert!(service < d.config().revolution() + d.config().block_transfer() * 2);
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn out_of_range_access_panics() {
        let mut d = Hdd::new(HddConfig::seagate_sata(100));
        let _ = d.read(Ns::ZERO, 99, 2);
    }

    #[test]
    fn stats_and_energy_accumulate() {
        let mut d = disk();
        let t1 = d.read(Ns::ZERO, 0, 1).unwrap();
        let _ = d.write(t1, 500, 2).unwrap();
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().write_bytes, 2 * BLOCK_SIZE as u64);
        let e = d.energy(Ns::from_secs(1));
        // At least the idle draw for one second: 8 J.
        assert!(e.as_joules() >= 8.0);
    }

    #[test]
    fn triggered_read_fails_then_rewrite_remaps() {
        let mut d = disk();
        let (tracer, counts) = Tracer::counting();
        d.set_tracer(tracer, 0);
        d.install_faults(FaultInjector::new(
            FaultPlan::seeded(5).trigger(FaultTrigger::HddRead { op: 0 }),
            0,
        ));
        let err = d.read(Ns::ZERO, 42, 1).unwrap_err();
        assert_eq!(err, HddError::LatentSector { lba: 42 });
        // The sector stays bad until rewritten...
        assert!(d.read(Ns::ZERO, 42, 1).is_err());
        // ...and a write remaps it.
        let t = d.write(Ns::from_ms(1), 42, 1).unwrap();
        assert!(d.read(t, 42, 1).is_ok());
        let counts = counts.lock().unwrap();
        assert_eq!(counts.faults_remapped, 1);
        assert_eq!(counts.faults_hdd_read, 2);
    }

    #[test]
    fn failed_reads_still_burn_mechanical_time() {
        let mut d = disk();
        d.install_faults(FaultInjector::new(
            FaultPlan::seeded(5).trigger(FaultTrigger::HddRead { op: 0 }),
            0,
        ));
        let _ = d.read(Ns::ZERO, 5_000_000, 1);
        assert_eq!(d.stats().reads, 1, "failed op still counted");
        assert!(d.busy_until() > Ns::from_ms(5), "seek time still charged");
    }

    #[test]
    fn write_fault_is_transient() {
        let mut d = disk();
        d.install_faults(FaultInjector::new(
            FaultPlan::seeded(5).trigger(FaultTrigger::HddWrite { op: 0 }),
            0,
        ));
        let err = d.write(Ns::ZERO, 7, 1).unwrap_err();
        assert_eq!(err, HddError::WriteFault { lba: 7 });
        // The retry is a later operation and succeeds.
        assert!(d.write(Ns::from_ms(1), 7, 1).is_ok());
    }

    #[test]
    fn error_display_is_meaningful() {
        let e = HddError::LatentSector { lba: 9 };
        assert!(e.to_string().contains("latent"));
        let w = HddError::WriteFault { lba: 3 };
        assert!(w.to_string().contains("write fault"));
    }

    #[test]
    fn rotational_delay_is_bounded_by_revolution() {
        let d = disk();
        for t in [0u64, 123_456, 9_999_999] {
            for lba in [0u64, 17, 255, 4096] {
                let w = d.rotational_delay(Ns::from_ns(t), lba);
                assert!(w < d.config().revolution());
            }
        }
    }

    fn ncq_disk(depth: u32) -> Hdd {
        let mut cfg = HddConfig::seagate_sata(10_000_000);
        cfg.queue = Some(QueueConfig::depth(depth));
        Hdd::new(cfg)
    }

    /// Queue activity as the trace records it, the one place it is counted.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct Queued {
        admits: u64,
        depth_max: u32,
        reorders: u64,
        coalesced: u64,
    }

    /// Attaches a ring tracer to `d`; [`queued`] folds what it caught.
    fn traced(d: &mut Hdd) -> Arc<Mutex<RingSink>> {
        let (tracer, ring) = Tracer::ring(1 << 12);
        d.set_tracer(tracer, 0);
        ring
    }

    fn queued(ring: &Mutex<RingSink>) -> Queued {
        let mut q = Queued::default();
        for e in ring.lock().expect("ring").events() {
            match e.kind {
                TraceKind::QueueAdmit { depth, .. } => {
                    q.admits += 1;
                    q.depth_max = q.depth_max.max(depth);
                }
                TraceKind::QueueReorder { .. } => q.reorders += 1,
                TraceKind::Coalesce { spans, .. } => q.coalesced += u64::from(spans - 1),
                _ => {}
            }
        }
        q
    }

    #[test]
    fn unqueued_batch_is_bit_identical_to_a_caller_loop() {
        let reqs: Vec<(u64, u32)> = vec![(9_000_000, 1), (4, 2), (512_000, 1), (5, 1)];
        let mut looped = disk();
        let mut t = Ns::from_us(3);
        for &(lba, blocks) in &reqs {
            t = looped.write(t, lba, blocks).unwrap();
        }
        let mut batched = disk();
        let ring = traced(&mut batched);
        let done = batched.write_batch(Ns::from_us(3), &reqs).unwrap();
        assert_eq!(done, t);
        assert_eq!(batched.stats(), looped.stats());
        assert_eq!(queued(&ring), Queued::default(), "no queue, no admissions");
    }

    #[test]
    fn queued_batch_coalesces_adjacent_writes() {
        // Four adjacent single-block writes far from the head, admitted
        // together: the queue merges them into one 4-block transfer.
        let mut d = ncq_disk(8);
        let ring = traced(&mut d);
        let reqs: Vec<(u64, u32)> = (0..4).map(|i| (6_000_000 + i, 1)).collect();
        let done = d.write_batch(Ns::ZERO, &reqs).unwrap();
        assert_eq!(d.stats().writes, 1, "one media transfer, not four");
        assert_eq!(d.stats().write_bytes, 4 * BLOCK_SIZE as u64);
        let q = queued(&ring);
        assert_eq!((q.admits, q.coalesced), (4, 3));
        // One positioning cost + four block transfers bounds the service.
        let mut solo = disk();
        let one = solo.write(Ns::ZERO, 6_000_000, 4).unwrap();
        assert_eq!(done, one, "coalesced batch equals one sequential span");
    }

    #[test]
    fn sptf_batch_services_nearest_first_and_counts_reorders() {
        // Head starts at 0: a distant command admitted first is overtaken
        // by a near one.
        let mut d = ncq_disk(4);
        let ring = traced(&mut d);
        d.write_batch(Ns::ZERO, &[(9_000_000, 1), (100, 1)])
            .unwrap();
        let q = queued(&ring);
        assert_eq!((q.reorders, q.depth_max), (1, 2));
        let ring = ring.lock().expect("ring");
        let lbas: Vec<u64> = ring
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::HddWrite { lba, .. } => Some(lba),
                _ => None,
            })
            .collect();
        assert_eq!(lbas, vec![100, 9_000_000], "near command serviced first");
        assert!(ring.events().iter().any(|e| matches!(
            e.kind,
            TraceKind::QueueReorder {
                dev: 1,
                jumped: 1,
                ..
            }
        )));
    }

    #[test]
    fn queued_batch_never_beats_physics() {
        // Whatever the schedule, total service can't drop below the media
        // transfer time of all blocks.
        let mut d = ncq_disk(16);
        let reqs: Vec<(u64, u32)> = (0..20).map(|i| (i * 97_003, 1)).collect();
        let done = d.write_batch(Ns::ZERO, &reqs).unwrap();
        assert!(done >= d.config().block_transfer() * 20);
        assert_eq!(d.stats().write_bytes, 20 * BLOCK_SIZE as u64);
    }

    #[test]
    fn depth_one_queue_degenerates_to_fifo_timing() {
        let reqs: Vec<(u64, u32)> = vec![(7_000_000, 1), (12, 1), (900_000, 2)];
        let mut plain = disk();
        let base = plain.write_batch(Ns::ZERO, &reqs).unwrap();
        let mut d = ncq_disk(1);
        let ring = traced(&mut d);
        let done = d.write_batch(Ns::ZERO, &reqs).unwrap();
        assert_eq!(done, base, "depth 1 admits one command at a time");
        let q = queued(&ring);
        assert_eq!((q.reorders, q.coalesced), (0, 0));
    }

    #[test]
    fn write_behind_parks_and_returns_immediately() {
        let mut d = ncq_disk(8);
        let ring = traced(&mut d);
        let done = d.write_behind(Ns::from_us(5), 6_000_000, 1).unwrap();
        assert_eq!(done, Ns::from_us(5), "the host does not wait");
        assert_eq!(d.stats().writes, 0, "nothing hit the media yet");
        assert_eq!(queued(&ring).admits, 1);
        // The barrier pays the mechanical cost.
        let t = d.flush_cache(Ns::from_us(5));
        assert!(t > Ns::from_ms(1), "drain paid the seek: {t}");
        assert_eq!(d.stats().writes, 1);
        assert_eq!(queued(&ring).admits, 1, "the drain re-admits nothing");
    }

    #[test]
    fn write_behind_drains_at_depth_and_coalesces_appends() {
        let mut d = ncq_disk(4);
        let ring = traced(&mut d);
        for i in 0..4u64 {
            let done = d.write_behind(Ns::ZERO, 6_000_000 + i, 1).unwrap();
            assert_eq!(done, Ns::ZERO);
        }
        // Hitting the configured depth drained the cache as one burst, and
        // the four adjacent appends coalesced into a single transfer.
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().write_bytes, 4 * BLOCK_SIZE as u64);
        assert_eq!(queued(&ring).coalesced, 3);
        assert_eq!(d.flush_cache(Ns::ZERO), Ns::ZERO, "cache already empty");
        let mut solo = disk();
        let one = solo.write(Ns::ZERO, 6_000_000, 4).unwrap();
        assert_eq!(d.busy_until(), one, "burst equals one sequential span");
    }

    #[test]
    fn foreground_read_overtakes_cached_writes() {
        let mut d = ncq_disk(8);
        let ring = traced(&mut d);
        d.write_behind(Ns::ZERO, 6_000_000, 1).unwrap();
        d.write_behind(Ns::ZERO, 6_000_001, 1).unwrap();
        let read_done = d.read(Ns::ZERO, 100, 1).unwrap();
        assert_eq!(queued(&ring).reorders, 1);
        {
            let ring = ring.lock().expect("ring");
            assert!(ring.events().iter().any(|e| matches!(
                e.kind,
                TraceKind::QueueReorder {
                    dev: 1,
                    jumped: 2,
                    ..
                }
            )));
        }
        // The read completed without waiting behind the parked appends...
        let mut solo = disk();
        assert_eq!(read_done, solo.read(Ns::ZERO, 100, 1).unwrap());
        // ...which are still parked until the barrier.
        assert_eq!(d.stats().writes, 0);
        let t = d.flush_cache(read_done);
        assert!(t > read_done);
        assert_eq!(d.stats().writes, 1, "two adjacent appends, one transfer");
    }

    #[test]
    fn write_behind_without_queue_is_a_synchronous_write() {
        let mut plain = disk();
        let expected = plain.write(Ns::ZERO, 6_000_000, 2).unwrap();
        let mut d = disk();
        assert!(!d.write_cache_enabled());
        let done = d.write_behind(Ns::ZERO, 6_000_000, 2).unwrap();
        assert_eq!(done, expected);
        assert_eq!(d.stats(), plain.stats());
        assert_eq!(d.flush_cache(done), done, "nothing cached");
    }

    #[test]
    fn write_behind_with_faults_armed_degrades_to_synchronous() {
        let mut d = ncq_disk(8);
        let ring = traced(&mut d);
        d.install_faults(FaultInjector::new(
            FaultPlan::seeded(5).trigger(FaultTrigger::HddWrite { op: 0 }),
            0,
        ));
        assert!(!d.write_cache_enabled());
        // The fault surfaces on the access that caused it, not at a drain.
        let err = d.write_behind(Ns::ZERO, 7, 1).unwrap_err();
        assert_eq!(err, HddError::WriteFault { lba: 7 });
        assert!(d.write_behind(Ns::from_ms(1), 7, 1).is_ok());
        assert_eq!(queued(&ring).admits, 0);
    }

    #[test]
    fn batch_surfaces_media_errors() {
        let mut d = ncq_disk(4);
        d.install_faults(FaultInjector::new(
            FaultPlan::seeded(5).trigger(FaultTrigger::HddWrite { op: 0 }),
            0,
        ));
        let err = d.write_batch(Ns::ZERO, &[(10, 1), (11, 1)]).unwrap_err();
        assert!(matches!(err, HddError::WriteFault { .. }));
    }

    mod position_properties {
        use super::*;
        use crate::queue::AGING_BOUND;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// `seek_time` is monotone in track distance and, for any
            /// cross-track move, bounded by `[min_seek, max_seek]`.
            #[test]
            fn seek_time_is_monotone_and_bounded(
                tracks in prop::collection::vec(0u64..39_000, 2..24)
            ) {
                let d = disk(); // head on track 0
                let mut costs: Vec<(u64, Ns)> = tracks
                    .iter()
                    .map(|&track| (track, d.seek_time(track * d.cfg.blocks_per_track)))
                    .collect();
                costs.sort_by_key(|&(track, _)| track);
                let mut prev: Option<(u64, Ns)> = None;
                for (track, cost) in costs {
                    if track == 0 {
                        prop_assert_eq!(cost, Ns::ZERO, "same track: no seek");
                    } else {
                        prop_assert!(cost >= d.cfg.min_seek, "below single-track floor");
                        prop_assert!(cost <= d.cfg.max_seek, "above full-stroke ceiling");
                    }
                    if let Some((pt, pc)) = prev {
                        if pt < track {
                            prop_assert!(pc <= cost, "farther track {track} cheaper than {pt}");
                        }
                    }
                    prev = Some((track, cost));
                }
            }

            /// Rotational delay is always strictly less than one revolution,
            /// for any phase and any sector.
            #[test]
            fn rotational_delay_is_under_one_revolution(
                now in 0u64..60_000_000_000,
                lba in 0u64..10_000_000,
            ) {
                let d = disk();
                prop_assert!(d.rotational_delay(Ns::from_ns(now), lba) < d.cfg.revolution());
            }

            /// Scheduler aging bounds every queued command's wait: under an
            /// arbitrary admission stream scored by the real positioning
            /// model, a command is dispatched within `AGING_BOUND + depth`
            /// dispatches of its admission — no starvation.
            #[test]
            fn sptf_aging_prevents_starvation(
                depth in 1u32..32,
                lbas in prop::collection::vec(0u64..10_000_000, 1..160),
            ) {
                let mut d = disk();
                let mut q = CommandQueue::new(QueueConfig::depth(depth));
                let bound = (AGING_BOUND + depth) as u64;
                let mut dispatches = 0u64;
                let mut admitted_at: Vec<u64> = Vec::new(); // seq → dispatch count
                fn service(
                    d: &mut Hdd,
                    q: &mut CommandQueue,
                    dispatches: &mut u64,
                    admitted_at: &[u64],
                ) -> u64 {
                    let pick = q
                        .dispatch(|lba, _| d.positioning_cost(Ns::ZERO, lba))
                        .expect("queue was full");
                    *dispatches += 1;
                    d.head = pick.cmd.lba + pick.cmd.blocks as u64;
                    *dispatches - admitted_at[pick.cmd.seq as usize]
                }
                for &lba in &lbas {
                    while q.admit(lba, 1, true).is_err() {
                        let waited = service(&mut d, &mut q, &mut dispatches, &admitted_at);
                        prop_assert!(waited <= bound, "waited {waited}, bound {bound}");
                    }
                    admitted_at.push(dispatches);
                }
                while !q.is_empty() {
                    let waited = service(&mut d, &mut q, &mut dispatches, &admitted_at);
                    prop_assert!(waited <= bound, "waited {waited}, bound {bound}");
                }
            }
        }
    }
}
