//! The storage-system interface every architecture implements.
//!
//! I-CASH and the four baselines (pure SSD, RAID0, LRU SSD cache, dedup SSD
//! cache) all implement [`StorageSystem`], so the benchmark driver can run
//! identical workloads against each and compare the results the way the
//! paper's §5 does.

use crate::block::{BlockBuf, Lba};
use crate::cpu::CpuModel;
use crate::energy::MicroJoules;
use crate::fault::{FaultStats, HealthState};
use crate::pipeline::Ticket;
use crate::request::{Completion, Request};
use crate::ssd::ftl::GcStats;
use crate::stats::DeviceStats;
use crate::time::Ns;
use serde::{Deserialize, Serialize};

/// Source of the *initial* (pre-run) content of the backing data set.
///
/// The paper's prototype ran over a pre-populated virtual disk image. Here
/// the workload provides that image lazily: a storage system asks the
/// content source for a block's original bytes the first time it needs them
/// (a read miss of a never-written block). Blocks written during the run are
/// the system's own responsibility.
pub trait ContentSource {
    /// The original content of `lba` before the run started.
    fn initial_content(&self, lba: Lba) -> BlockBuf;
}

/// A content source whose every block is zeroes (tests and timing-only runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct ZeroSource;

impl ContentSource for ZeroSource {
    fn initial_content(&self, _lba: Lba) -> BlockBuf {
        BlockBuf::zeroed()
    }
}

/// Per-request execution context handed to [`StorageSystem::submit`].
#[allow(missing_debug_implementations)]
pub struct IoCtx<'a> {
    /// The initial data-set image.
    pub backing: &'a dyn ContentSource,
    /// The shared CPU account (signatures, codec work, hashing...).
    pub cpu: &'a mut CpuModel,
    /// Whether reads must materialise and return their data (integrity
    /// tests). Timing-only runs leave this off to keep memory flat.
    pub collect_data: bool,
}

impl<'a> IoCtx<'a> {
    /// Creates a timing-only context.
    pub fn new(backing: &'a dyn ContentSource, cpu: &'a mut CpuModel) -> Self {
        IoCtx {
            backing,
            cpu,
            collect_data: false,
        }
    }

    /// Creates a context that materialises read data for verification.
    pub fn verifying(backing: &'a dyn ContentSource, cpu: &'a mut CpuModel) -> Self {
        IoCtx {
            backing,
            cpu,
            collect_data: true,
        }
    }
}

/// Device-health and self-healing figures of one run, present only when the
/// controller ran under a health policy other than the inert one.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Final SSD health state.
    pub ssd: HealthState,
    /// Final HDD health state.
    pub hdd: HealthState,
    /// Health-state transitions taken across every device.
    pub transitions: u64,
    /// SSD slots repopulated by the online rebuild so far.
    pub rebuild_done: u64,
    /// Slots the rebuild set out to restore (0 = no rebuild ran).
    pub rebuild_total: u64,
    /// Rate-limited rebuild chunks processed.
    pub rebuild_chunks: u64,
    /// Reads served from HDD home copies while the SSD was down.
    pub degraded_reads: u64,
    /// Writes absorbed by the HDD-only degraded path.
    pub degraded_writes: u64,
    /// Writes refused admission by staging backpressure.
    pub busy_rejections: u64,
    /// Exponential-backoff retries of faulted device ops.
    pub retry_backoffs: u64,
}

impl HealthReport {
    /// Folds another shard's health figures into this one: states take the
    /// worst shard (one sick shard makes the merged device sick), counters
    /// add.
    pub fn merge(&mut self, other: &HealthReport) {
        self.ssd = self.ssd.worst(other.ssd);
        self.hdd = self.hdd.worst(other.hdd);
        self.transitions += other.transitions;
        self.rebuild_done += other.rebuild_done;
        self.rebuild_total += other.rebuild_total;
        self.rebuild_chunks += other.rebuild_chunks;
        self.degraded_reads += other.degraded_reads;
        self.degraded_writes += other.degraded_writes;
        self.busy_rejections += other.busy_rejections;
        self.retry_backoffs += other.retry_backoffs;
    }
}

/// End-of-run report of one storage system, aggregated by the harness.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct SystemReport {
    /// Architecture name as shown in the paper's figures.
    pub name: String,
    /// SSD host-level stats, if the architecture has an SSD.
    pub ssd: Option<DeviceStats>,
    /// Aggregated HDD stats, if the architecture has disks.
    pub hdd: Option<DeviceStats>,
    /// SSD garbage-collection stats, if applicable.
    pub gc: Option<GcStats>,
    /// Fraction of SSD endurance consumed, if applicable.
    pub ssd_life_used: Option<f64>,
    /// Energy drawn by the storage devices over the run (CPU energy is added
    /// by the driver, which owns the CPU model).
    pub device_energy: MicroJoules,
    /// Injected-fault counters merged over every device (all zero when the
    /// run carried no fault plan).
    pub faults: FaultStats,
    /// Device-health figures, if a non-inert health policy was in force.
    #[serde(default)]
    pub health: Option<HealthReport>,
}

impl SystemReport {
    /// Folds another shard's report into this one, producing the figures a
    /// single system over the same union of devices would have reported:
    /// device stats, energy and fault counters add; SSD life used is the
    /// worst shard (wear-out is per device, not amortizable); optional
    /// sections appear as soon as any shard has them. The name is kept from
    /// `self` — shards of one architecture all share it.
    pub fn merge(&mut self, other: &SystemReport) {
        fn merge_opt<T: Clone>(into: &mut Option<T>, from: &Option<T>, fold: impl Fn(&mut T, &T)) {
            match (into.as_mut(), from) {
                (Some(a), Some(b)) => fold(a, b),
                (None, Some(b)) => *into = Some(b.clone()),
                _ => {}
            }
        }
        merge_opt(&mut self.ssd, &other.ssd, |a, b| a.merge(b));
        merge_opt(&mut self.hdd, &other.hdd, |a, b| a.merge(b));
        merge_opt(&mut self.gc, &other.gc, |a, b| a.merge(b));
        merge_opt(&mut self.ssd_life_used, &other.ssd_life_used, |a, b| {
            *a = a.max(*b)
        });
        merge_opt(&mut self.health, &other.health, |a, b| a.merge(b));
        self.device_energy.add(other.device_energy);
        self.faults.merge(&other.faults);
    }
}

/// A complete disk I/O architecture under test.
///
/// Implementations process block requests against their simulated devices
/// and return the completion instant (and data when requested). The trait is
/// object-safe: the benchmark driver holds systems as `Box<dyn
/// StorageSystem>`. It also requires [`Send`], so the harness can run each
/// (system × workload) benchmark cell on its own worker thread — every
/// system owns its entire simulated world, so there is no shared state to
/// protect.
pub trait StorageSystem: Send {
    /// Architecture name as shown in the paper's figures ("I-CASH",
    /// "FusionIO", "RAID0", "LRU", "Dedup").
    fn name(&self) -> &str;

    /// Processes one request arriving at `req.at` and returns its
    /// completion. Implementations must be deterministic functions of the
    /// request stream.
    fn submit(&mut self, req: &Request, ctx: &mut IoCtx<'_>) -> Completion;

    /// Flushes buffered state (e.g. I-CASH's dirty delta blocks) as if at a
    /// clean shutdown; returns when the flush completes.
    fn flush(&mut self, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        let _ = ctx;
        now
    }

    /// The flush ticket covering the most recently accepted write (the
    /// write-acceptance watermark). Write-through architectures that never
    /// buffer may keep the default: [`Ticket::ZERO`] for both watermarks
    /// means "nothing is ever pending".
    fn write_ticket(&self) -> Ticket {
        Ticket::ZERO
    }

    /// The durability watermark: every write whose ticket is at or below
    /// it has reached stable media. Defaults to the write watermark
    /// (write-through: accepted means durable).
    fn flushed_ticket(&self) -> Ticket {
        self.write_ticket()
    }

    /// Durability barrier for one ticket: returns once every write with a
    /// ticket at or below `ticket` is on stable media, flushing buffered
    /// state if it must. The default covers write-through systems: if the
    /// ticket is already durable this is free, otherwise it falls back to
    /// a full [`flush`](StorageSystem::flush). A
    /// [`ShardRouter`](crate::shard::ShardRouter) barrier covers every
    /// shard: it is a [`sync`](StorageSystem::sync) of each, whatever the
    /// ticket.
    fn await_flush(&mut self, ticket: Ticket, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        if ticket <= self.flushed_ticket() {
            now
        } else {
            self.flush(now, ctx)
        }
    }

    /// Full durability barrier: every write accepted so far reaches stable
    /// media.
    fn sync(&mut self, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        let ticket = self.write_ticket();
        self.await_flush(ticket, now, ctx)
    }

    /// Offline image preparation before the measured run, given the address
    /// universe as `(vm id, blocks)` spans. The paper's prototype derives
    /// deltas and installs reference blocks when virtual-machine images are
    /// *created* (§3.2), long before any benchmark starts, so this charges
    /// no virtual time. Default: nothing to prepare.
    fn preload(&mut self, universe: &[(u8, u64)], ctx: &mut IoCtx<'_>) {
        let _ = (universe, ctx);
    }

    /// Installs a [`Tracer`](crate::trace::Tracer) receiving the system's
    /// structured event stream. Implementations forward it to their
    /// [`DeviceArray`](crate::array::DeviceArray) (and keep a copy for
    /// controller-level events). Default: tracing unsupported, dropped.
    fn set_tracer(&mut self, tracer: crate::trace::Tracer) {
        let _ = tracer;
    }

    /// End-of-run statistics for the report tables.
    fn report(&self, elapsed: Ns) -> SystemReport;
}

/// Boxed systems forward every method (including overridden defaults) to
/// the inner implementation, so generic containers like
/// [`ShardRouter`](crate::shard::ShardRouter) can hold `Box<dyn
/// StorageSystem>` shards without losing behaviour.
impl<T: StorageSystem + ?Sized> StorageSystem for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn submit(&mut self, req: &Request, ctx: &mut IoCtx<'_>) -> Completion {
        (**self).submit(req, ctx)
    }

    fn flush(&mut self, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        (**self).flush(now, ctx)
    }

    fn write_ticket(&self) -> Ticket {
        (**self).write_ticket()
    }

    fn flushed_ticket(&self) -> Ticket {
        (**self).flushed_ticket()
    }

    fn await_flush(&mut self, ticket: Ticket, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        (**self).await_flush(ticket, now, ctx)
    }

    fn sync(&mut self, now: Ns, ctx: &mut IoCtx<'_>) -> Ns {
        (**self).sync(now, ctx)
    }

    fn preload(&mut self, universe: &[(u8, u64)], ctx: &mut IoCtx<'_>) {
        (**self).preload(universe, ctx)
    }

    fn set_tracer(&mut self, tracer: crate::trace::Tracer) {
        (**self).set_tracer(tracer)
    }

    fn report(&self, elapsed: Ns) -> SystemReport {
        (**self).report(elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BLOCK_SIZE;
    use crate::request::Op;

    /// A trivial in-memory system used to exercise the trait contract.
    struct RamOnly {
        map: std::collections::HashMap<Lba, BlockBuf>,
    }

    impl StorageSystem for RamOnly {
        fn name(&self) -> &str {
            "RamOnly"
        }

        fn submit(&mut self, req: &Request, ctx: &mut IoCtx<'_>) -> Completion {
            let done = req.at + Ns::from_us(1) * req.blocks as u64;
            match req.op {
                Op::Write => {
                    for (lba, buf) in req.lbas().zip(req.payload.iter()) {
                        self.map.insert(lba, buf.clone());
                    }
                    Completion::at(done)
                }
                Op::Read => {
                    if !ctx.collect_data {
                        return Completion::at(done);
                    }
                    let data = req
                        .lbas()
                        .map(|lba| {
                            self.map
                                .get(&lba)
                                .cloned()
                                .unwrap_or_else(|| ctx.backing.initial_content(lba))
                        })
                        .collect();
                    Completion::with_data(done, data)
                }
            }
        }

        fn report(&self, _elapsed: Ns) -> SystemReport {
            SystemReport {
                name: self.name().to_string(),
                ..SystemReport::default()
            }
        }
    }

    #[test]
    fn trait_is_object_safe_and_roundtrips() {
        let mut sys: Box<dyn StorageSystem> = Box::new(RamOnly {
            map: Default::default(),
        });
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);

        let w = Request::write(Lba::new(4), Ns::ZERO, BlockBuf::filled(0xEE));
        let done = sys.submit(&w, &mut ctx).finished;

        let r = Request::read(Lba::new(4), done);
        let c = sys.submit(&r, &mut ctx);
        assert_eq!(c.data[0], BlockBuf::filled(0xEE));

        // Unwritten blocks come from the backing image.
        let r2 = Request::read(Lba::new(99), c.finished);
        let c2 = sys.submit(&r2, &mut ctx);
        assert_eq!(c2.data[0], BlockBuf::zeroed());
        assert_eq!(c2.data[0].as_slice().len(), BLOCK_SIZE);
    }

    #[test]
    fn default_flush_is_a_noop() {
        let mut sys = RamOnly {
            map: Default::default(),
        };
        let mut cpu = CpuModel::xeon();
        let backing = ZeroSource;
        let mut ctx = IoCtx::new(&backing, &mut cpu);
        assert_eq!(sys.flush(Ns::from_ms(3), &mut ctx), Ns::from_ms(3));
    }
}
