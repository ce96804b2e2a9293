//! Device health, degraded-mode service, and online rebuild.
//!
//! The controller runs one [`HealthMonitor`] per device under
//! [`crate::IcashConfig::health`], fed every SSD/HDD operation outcome. The
//! monitors walk the `Healthy → Degraded → Failed → Rebuilding` machine on
//! deterministic error-budget accounting (consecutive-failure streaks plus
//! an error-rate EWMA), and the controller adapts service to the state:
//!
//! * **SSD `Failed`** — reads of SSD-pinned content are served from the
//!   HDD home copy (checksum-verified against the slot directory's CRC),
//!   and writes bypass the delta machinery entirely: the block is detached
//!   from its reference/slot state and written to its home location.
//! * **HDD `Failed`** — writes are failed fast with a typed
//!   [`IoErrorKind::DeviceFailed`] error (no hardware is touched); reads
//!   keep serving from RAM and SSD-resident state.
//! * **Online rebuild** — [`Icash::replace_ssd`] swaps in a fresh device
//!   and, for a `Failed` one, starts a rate-limited task that repopulates
//!   every SSD slot from its HDD home copy under live traffic
//!   ([`Icash::rebuild_tick`], run from the per-I/O maintenance hook).
//!   Reads of not-yet-rebuilt slots stay on the degraded path.
//! * **Retry backoff** — with a nonzero `retry_base_ns`, retries wait out
//!   budgeted exponential backoff with seeded jitter (deterministic: the
//!   jitter stream is `fault_roll` over a dedicated salt and a draw
//!   counter) instead of retrying at once.
//! * **Backpressure** — when `staging_cap > 0`, writes arriving with the
//!   staging buffer at capacity are refused with a typed
//!   [`IoErrorKind::Busy`] error and the pipeline is drained, so the host
//!   sees admission control instead of unbounded buffering.
//!
//! Health is a value, never absent. [`HealthPolicy::inert`], the default,
//! is the identity: its thresholds are out of reach, so the monitors stay
//! `Healthy` and nothing above engages — a read is retried once and a write
//! three times, unpaced, no write is refused and no report grows a health
//! section. `tests/health_free.rs` pins that run, faulted and fault-free.

use crate::controller::Icash;
use crate::read::BlockRead;
use crate::table::VbId;
use crate::virtual_block::{Placement, Role};
use icash_storage::block::{BlockBuf, Lba};
use icash_storage::fault::{crc32, fault_roll, HealthMonitor, HealthPolicy, HealthState};
use icash_storage::hash::AddrSet;
use icash_storage::request::{IoErrorKind, Op};
use icash_storage::ssd::{Ssd, SsdError};
use icash_storage::system::{HealthReport, IoCtx};
use icash_storage::time::Ns;
use icash_storage::trace::{TraceEvent, TraceKind};
use std::collections::VecDeque;

/// Salt of the backoff-jitter draw stream (disjoint from the injector
/// salts: SSD reads use 1, HDD spindles use 16+i, torn writes their own).
const BACKOFF_SALT: u64 = 0xBAC0;

/// Device ids used in [`TraceKind::HealthTransition`] events.
pub(crate) const DEV_SSD: u8 = 0;
pub(crate) const DEV_HDD: u8 = 1;

/// The controller-side health state: one monitor per device, the active
/// rebuild task (if any), and the jitter draw counter.
#[derive(Debug)]
pub(crate) struct HealthCore {
    /// SSD health monitor.
    pub ssd: HealthMonitor,
    /// HDD health monitor.
    pub hdd: HealthMonitor,
    /// The in-flight online rebuild, if a replacement SSD is being
    /// repopulated.
    pub rebuild: Option<RebuildTask>,
    /// Monotonic jitter draw counter (deterministic backoff stream).
    pub retry_draws: u64,
}

impl HealthCore {
    /// Fresh monitors under `policy`.
    pub fn new(policy: HealthPolicy) -> Self {
        HealthCore {
            ssd: HealthMonitor::new(policy),
            hdd: HealthMonitor::new(policy),
            rebuild: None,
            retry_draws: 0,
        }
    }
}

/// The online-rebuild work list: SSD slots to repopulate from their HDD
/// home copies, processed `rebuild_rate` slots per host I/O.
#[derive(Debug)]
pub(crate) struct RebuildTask {
    /// `(lba, slot)` pairs still to rebuild, in ascending LBA order.
    pub pending: VecDeque<(Lba, u64)>,
    /// The slots in `pending` (reads of these stay on the degraded path).
    pub pending_slots: AddrSet<u64>,
    /// Slots processed so far.
    pub done: u64,
    /// Total slots the task started with.
    pub total: u64,
}

impl Icash {
    /// Whether the SSD is in the `Failed` state (degraded service).
    pub(crate) fn ssd_is_failed(&self) -> bool {
        self.volatile.health.ssd.is_failed()
    }

    /// Whether the HDD is in the `Failed` state (writes fail fast).
    pub(crate) fn hdd_is_failed(&self) -> bool {
        self.volatile.health.hdd.is_failed()
    }

    /// Whether reads of `slot` must avoid the SSD: the device is failed, or
    /// a rebuild is running and this slot has not been repopulated yet.
    pub(crate) fn slot_unavailable(&self, slot: u64) -> bool {
        let h = &self.volatile.health;
        match h.ssd.state() {
            HealthState::Failed => true,
            HealthState::Rebuilding => h
                .rebuild
                .as_ref()
                .is_some_and(|t| t.pending_slots.contains(&slot)),
            _ => false,
        }
    }

    /// Feeds one device-operation outcome to the owning monitor, tracing
    /// and counting the health transition if the state machine moved.
    pub(crate) fn note_device(&mut self, at: Ns, device: u8, ok: bool) {
        let h = &mut self.volatile.health;
        let monitor = if device == DEV_SSD {
            &mut h.ssd
        } else {
            &mut h.hdd
        };
        if let Some((from, to)) = monitor.note(ok) {
            self.note_transition(at, device, from, to);
        }
    }

    /// Traces and counts one health-state transition.
    pub(crate) fn note_transition(
        &mut self,
        at: Ns,
        device: u8,
        from: HealthState,
        to: HealthState,
    ) {
        self.stats.health_transitions += 1;
        self.durable.array.tracer().emit(|| TraceEvent {
            at,
            kind: TraceKind::HealthTransition { device, from, to },
        });
    }

    /// SSD read feeding the health monitor.
    pub(crate) fn ssd_read_op(&mut self, at: Ns, slot: u64) -> Result<Ns, SsdError> {
        let res = self.durable.array.ssd_mut().read(at, slot);
        self.note_device(at, DEV_SSD, res.is_ok());
        res
    }

    /// SSD program feeding the health monitor.
    pub(crate) fn ssd_write_op(&mut self, at: Ns, slot: u64) -> Result<Ns, SsdError> {
        let res = self.durable.array.ssd_mut().write(at, slot);
        self.note_device(at, DEV_SSD, res.is_ok());
        res
    }

    /// The backpressure admission check: `Some((queued, cap))` when the
    /// staging buffer is at capacity and the write must be refused.
    pub(crate) fn staging_over_cap(&self) -> Option<(u64, u64)> {
        let cap = self.cfg.health.staging_cap;
        let queued = self.volatile.staging.live() as u64;
        (cap > 0 && queued >= cap).then_some((queued, cap))
    }

    /// Refuses one write at admission: traces the event and counts the
    /// rejection. The caller reports [`IoErrorKind::Busy`] and drains.
    pub(crate) fn note_backpressure(&mut self, at: Ns, lba: Lba, queued: u64, cap: u64) {
        self.stats.busy_rejections += 1;
        self.durable.array.tracer().emit(|| TraceEvent {
            at,
            kind: TraceKind::Backpressure {
                lba: lba.raw(),
                queued,
                cap,
            },
        });
    }

    // ------------------------------------------------------------------
    // Retry with exponential backoff
    // ------------------------------------------------------------------

    /// The next backoff delay in nanoseconds: `base << (attempt-1)` plus a
    /// seeded jitter drawn from the plan's `fault_roll` stream (own salt,
    /// monotonic draw counter — deterministic and replayable).
    fn backoff_delay(&mut self, attempt: u32, addr: u64) -> u64 {
        let base = self.cfg.health.retry_base_ns << (attempt - 1).min(16);
        let h = &mut self.volatile.health;
        let draw = h.retry_draws;
        h.retry_draws += 1;
        let jitter =
            fault_roll(self.durable.fault_plan.seed, BACKOFF_SALT, draw, addr) % base.max(1);
        base + jitter
    }

    /// Traces and counts one backoff retry, returning the delayed instant.
    pub(crate) fn note_backoff(&mut self, at: Ns, addr: u64, attempt: u32, write: bool) -> Ns {
        let delay = self.backoff_delay(attempt, addr);
        self.stats.retry_backoffs += 1;
        self.durable.array.tracer().emit(|| TraceEvent {
            at,
            kind: TraceKind::RetryBackoff {
                lba: addr,
                attempt,
                delay,
                write,
            },
        });
        at + Ns::from_ns(delay)
    }

    // ------------------------------------------------------------------
    // Degraded-mode service
    // ------------------------------------------------------------------

    /// Serves SSD-pinned content for `lba` from its HDD home copy (the
    /// hardened redundant copy), verified against the slot directory's
    /// CRC. Used while the SSD is failed or the slot awaits rebuild; never
    /// touches the flash device.
    pub(crate) fn degraded_slot_read(
        &mut self,
        lba: Lba,
        slot: u64,
        at: Ns,
        ctx: &mut IoCtx<'_>,
    ) -> BlockRead {
        let pos = self.home_pos(lba);
        let t = match self.hdd_retry(Op::Read, at, pos, 1) {
            Ok(t) => t,
            Err(_) => {
                self.stats.unrecoverable_reads += 1;
                return (at, Err(IoErrorKind::SsdMedia));
            }
        };
        let content = self.home_content(lba, ctx);
        if self.durable.slots.sum(slot) != Some(crc32(content.as_slice())) {
            // The home copy does not match what the slot held: serving it
            // would be a silent splice. Report the loss instead.
            self.stats.unrecoverable_reads += 1;
            return (t, Err(IoErrorKind::SsdMedia));
        }
        self.stats.degraded_reads += 1;
        (t, Ok(content))
    }

    /// Whether a write to `id` must bypass the delta machinery and go home:
    /// the SSD is failed — unless `id` is a reference that still has
    /// associates, which keeps the RAM-encode delta path (its SSD copy is
    /// mirrored in the slot store, so no device op is needed and its
    /// associates stay decodable).
    pub(crate) fn writes_degraded(&self, id: VbId) -> bool {
        let vb = self.volatile.table.get(id);
        self.ssd_is_failed() && !(vb.placement.role() == Role::Reference && vb.dependants > 0)
    }

    /// The degraded write (SSD failed): detach the block from every
    /// reference/slot/delta relationship and write it straight to its HDD
    /// home location — no delta encode, no flash program. The block
    /// continues life as a home-resident independent. Returns the home
    /// write's completion instant.
    pub(crate) fn write_degraded(&mut self, id: VbId, content: &BlockBuf, at: Ns) -> Ns {
        self.stats.degraded_writes += 1;
        // Detach: the old delta/log/slot state describes superseded bytes.
        // (The slot content is unreachable on the dead device anyway;
        // releasing it lets a rebuilt device start from live state only.)
        let vb = self.volatile.table.get(id);
        let lba = vb.lba;
        if vb.placement.role() == Role::Reference {
            let sig_old = vb.sig;
            self.volatile.ref_index.remove(lba, &sig_old);
        }
        self.supersede_delta(id, Placement::Home);
        // The block's older log entries stay on the platter; the tombstone
        // keeps recovery from replaying them over the home write.
        let left_at = self.durable.slots.stamp();
        self.discard_slot(lba, Some(left_at));
        self.write_home_copy(lba, content, at)
    }

    // ------------------------------------------------------------------
    // Device replacement and online rebuild
    // ------------------------------------------------------------------

    /// Replaces the SSD with a fresh device. If the monitor had declared
    /// the old one `Failed`, this starts the online rebuild: a rate-limited
    /// background task ([`Icash::rebuild_tick`]) repopulates every
    /// directory-tracked slot from its HDD home copy under live traffic,
    /// and until a slot is rebuilt, reads of it stay on the degraded
    /// (home-copy) path. Otherwise (an inert policy never fails a device)
    /// there is no background task: reads self-heal through the
    /// repair-from-home path.
    pub fn replace_ssd(&mut self, at: Ns) {
        let ssd = Ssd::new(self.cfg.ssd_config());
        let plan = self.durable.fault_plan.clone();
        self.durable.array.replace_ssd(ssd, &plan);
        // The controller-side plan mirrors the array: the replacement has
        // no death trigger armed.
        self.durable.fault_plan.ssd_death_op = None;
        let Some((from, to)) = self.volatile.health.ssd.begin_rebuild() else {
            return;
        };
        let pending = self.durable.slots.pinned_sorted();
        let pending_slots: AddrSet<u64> = pending.iter().map(|&(_, s)| s).collect();
        self.volatile.health.rebuild = Some(RebuildTask {
            total: pending.len() as u64,
            pending: pending.into_iter().collect(),
            pending_slots,
            done: 0,
        });
        self.note_transition(at, DEV_SSD, from, to);
        // An empty directory completes immediately.
        self.rebuild_tick(at);
    }

    /// One rebuild step, run from the per-I/O maintenance hook: repopulate
    /// up to `rebuild_rate` pending slots from their HDD home copies (CRC
    /// verified; an unverifiable slot is skipped rather than repopulated
    /// with wrong bytes). Completes the `Rebuilding → Healthy` edge when
    /// the work list drains.
    pub(crate) fn rebuild_tick(&mut self, at: Ns) {
        let h = &mut self.volatile.health;
        if h.ssd.state() != HealthState::Rebuilding {
            return;
        }
        let rate = self.cfg.health.rebuild_rate;
        let Some(task) = h.rebuild.as_mut() else {
            return;
        };
        let batch: Vec<(Lba, u64)> = (0..rate).filter_map(|_| task.pending.pop_front()).collect();
        if !batch.is_empty() {
            let t = batch
                .iter()
                .fold(at, |t, &(lba, slot)| self.rebuild_slot(lba, slot, t));
            let Some(task) = self.volatile.health.rebuild.as_mut() else {
                return;
            };
            for &(_, slot) in &batch {
                task.pending_slots.remove(&slot);
            }
            task.done += batch.len() as u64;
            let (slots, done, total) = (batch.len() as u32, task.done, task.total);
            self.stats.rebuild_chunks += 1;
            self.stats.rebuilt_slots += u64::from(slots);
            self.durable.array.tracer().emit(|| TraceEvent {
                at: t,
                kind: TraceKind::RebuildChunk { slots, done, total },
            });
        }
        let h = &mut self.volatile.health;
        let finished = h
            .rebuild
            .as_ref()
            .is_some_and(|task| task.pending.is_empty());
        if finished {
            h.rebuild = None;
            if let Some((from, to)) = h.ssd.rebuild_complete() {
                self.note_transition(at, DEV_SSD, from, to);
            }
        }
    }

    /// Repopulates one slot on the replacement device from its HDD home
    /// copy. A home copy that fails to read or verify leaves the slot
    /// unprogrammed — the read path's repair ladder (or a later host
    /// write) deals with it; wrong bytes are never installed.
    fn rebuild_slot(&mut self, lba: Lba, slot: u64, at: Ns) -> Ns {
        let pos = self.home_pos(lba);
        let t = match self.hdd_retry(Op::Read, at, pos, 1) {
            Ok(t) => t,
            Err(_) => return at,
        };
        // Never hardened means nothing trustworthy to install.
        let verified = self
            .written_home(lba)
            .is_some_and(|c| self.durable.slots.sum(slot) == Some(crc32(c.as_slice())));
        if !verified {
            return t;
        }
        match self.ssd_write_op(t, slot) {
            Ok(t2) => t2,
            Err(_) => t,
        }
    }

    /// The health section of the system report: none under the inert
    /// policy, which has nothing to report.
    pub(crate) fn health_report(&self) -> Option<HealthReport> {
        if self.cfg.health == HealthPolicy::inert() {
            return None;
        }
        let h = &self.volatile.health;
        let (rebuild_done, rebuild_total) =
            h.rebuild.as_ref().map_or((0, 0), |t| (t.done, t.total));
        Some(HealthReport {
            ssd: h.ssd.state(),
            hdd: h.hdd.state(),
            transitions: self.stats.health_transitions,
            rebuild_done,
            rebuild_total,
            rebuild_chunks: self.stats.rebuild_chunks,
            degraded_reads: self.stats.degraded_reads,
            degraded_writes: self.stats.degraded_writes,
            busy_rejections: self.stats.busy_rejections,
            retry_backoffs: self.stats.retry_backoffs,
        })
    }
}
