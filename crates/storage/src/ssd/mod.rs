//! Simulated NAND-flash solid-state drive.
//!
//! The substitute for the paper's Fusion-io ioDrive 80 G SLC. The facade in
//! this module owns a [`Ftl`] (mapping, allocation, garbage collection, wear)
//! and charges the physical operations it emits to per-channel timing,
//! operation statistics, and the energy meter.
//!
//! The properties the evaluation depends on are all modelled:
//! fast random reads (~25 µs), slower programs (~200 µs), millisecond
//! erases that stall a channel, garbage-collection write amplification
//! under sustained random writes, and bounded per-block endurance.

pub mod flash;
pub mod ftl;
pub mod wear;

use crate::block::BLOCK_SIZE;
use crate::energy::{ssd_op_energy, EnergyMeter, MicroJoules};
use crate::fault::FaultInjector;
use crate::stats::DeviceStats;
use crate::time::Ns;
use crate::trace::{TraceEvent, TraceKind, Tracer};
use flash::{FlashConfig, FlashOp};
use ftl::Ftl;
use serde::{Deserialize, Serialize};

/// Errors reported by the SSD model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SsdError {
    /// Every page of every usable block is valid; nothing can be reclaimed.
    Full,
    /// So many blocks hit the endurance limit that no free space remains.
    WornOut,
    /// A read addressed a logical page with no mapping.
    Unmapped {
        /// The unmapped logical page.
        lpn: u64,
    },
    /// A read's bit errors exceeded ECC correction capability. The page
    /// stays unreadable until reprogrammed or trimmed.
    Uncorrectable {
        /// The uncorrectable logical page.
        lpn: u64,
    },
    /// The whole device has died (a `ssd_dies_at` fault trigger fired);
    /// every operation fails until the device is replaced.
    DeviceDead,
}

impl core::fmt::Display for SsdError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SsdError::Full => write!(f, "no reclaimable flash space"),
            SsdError::WornOut => write!(f, "flash endurance exhausted"),
            SsdError::Unmapped { lpn } => write!(f, "read of unmapped logical page {lpn}"),
            SsdError::Uncorrectable { lpn } => {
                write!(f, "uncorrectable bit errors reading logical page {lpn}")
            }
            SsdError::DeviceDead => write!(f, "flash device failed"),
        }
    }
}

impl std::error::Error for SsdError {}

/// Configuration of a simulated SSD.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SsdConfig {
    /// Logical capacity in 4 KB pages.
    pub capacity_pages: u64,
    /// Flash geometry and timing.
    pub flash: FlashConfig,
}

impl SsdConfig {
    /// An SLC drive in the paper's Fusion-io class with the given logical
    /// capacity in bytes (rounded up to whole pages) and 10 % spare area.
    pub fn fusion_io(capacity_bytes: u64) -> Self {
        let pages = capacity_bytes.div_ceil(BLOCK_SIZE as u64).max(1);
        SsdConfig {
            capacity_pages: pages,
            flash: FlashConfig::slc(pages, 0.10),
        }
    }
}

/// A timed NAND-flash SSD.
///
/// # Examples
///
/// ```
/// use icash_storage::ssd::{Ssd, SsdConfig};
/// use icash_storage::time::Ns;
///
/// let mut ssd = Ssd::new(SsdConfig::fusion_io(1 << 20));
/// let done = ssd.write(Ns::ZERO, 3)?;
/// let read_done = ssd.read(done, 3)?;
/// assert!(read_done > done);
/// # Ok::<(), icash_storage::ssd::SsdError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Ssd {
    ftl: Ftl,
    channel_busy: Vec<Ns>,
    stats: DeviceStats,
    energy: EnergyMeter,
    /// Fault injection, absent by default (the common, zero-cost case).
    faults: Option<Box<FaultInjector>>,
    /// Event emission, disabled by default (one `Option` check per op).
    tracer: Tracer,
}

impl Ssd {
    /// Creates a drive with the given configuration.
    pub fn new(cfg: SsdConfig) -> Self {
        let energy = EnergyMeter::new(cfg.flash.idle_watts, cfg.flash.active_watts);
        let channels = cfg.flash.channels as usize;
        Ssd {
            ftl: Ftl::new(cfg.flash, cfg.capacity_pages),
            channel_busy: vec![Ns::ZERO; channels],
            stats: DeviceStats::new(),
            energy,
            faults: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a fault injector; subsequent reads may report
    /// [`SsdError::Uncorrectable`] according to its plan.
    pub fn install_faults(&mut self, mut injector: FaultInjector) {
        injector.set_tracer(self.tracer.clone());
        self.faults = Some(Box::new(injector));
    }

    /// Attaches (or detaches) the trace event handle, propagating it into
    /// an already-installed fault injector.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        if let Some(f) = self.faults.as_mut() {
            f.set_tracer(tracer.clone());
        }
        self.tracer = tracer;
    }

    /// Logical capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.ftl.logical_pages()
    }

    /// Host-level operation statistics (Table 6 reads `stats().writes`).
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Wear counters.
    pub fn wear(&self) -> &wear::WearTracker {
        self.ftl.wear()
    }

    /// Whether `lpn` currently holds data.
    pub fn is_mapped(&self, lpn: u64) -> bool {
        self.ftl.map_read(lpn).is_some()
    }

    /// Total energy drawn over `elapsed` of virtual time.
    pub fn energy(&self, elapsed: Ns) -> MicroJoules {
        self.energy.total(elapsed, self.stats.busy)
    }

    /// Reads logical page `lpn`, arriving at `at`. Returns the completion
    /// instant.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::Unmapped`] if the page holds no data, or
    /// [`SsdError::Uncorrectable`] if fault injection failed the read (the
    /// flash time was still spent grinding through ECC retries).
    pub fn read(&mut self, at: Ns, lpn: u64) -> Result<Ns, SsdError> {
        let ppn = self.ftl.map_read(lpn).ok_or(SsdError::Unmapped { lpn })?;
        let op = FlashOp::Read { ppn };
        let (queued, service, done) = self.charge(at, &[op]);
        self.stats.record_read(BLOCK_SIZE, queued, service);
        self.energy.charge_op(ssd_op_energy::read_4k());
        let mut ok = true;
        if let Some(f) = self.faults.as_mut() {
            let life = self.ftl.wear().life_used();
            if f.ssd_read(at, lpn, life) {
                ok = false;
            }
        }
        self.tracer.emit(|| TraceEvent {
            at,
            kind: TraceKind::SsdRead {
                lpn,
                queued,
                service,
                ok,
            },
        });
        if !ok {
            return Err(SsdError::Uncorrectable { lpn });
        }
        Ok(done)
    }

    /// Reads `n` consecutive logical pages starting at `lpn`; channels
    /// overlap, so the completion is the latest channel finish.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::Unmapped`] if any page holds no data.
    pub fn read_span(&mut self, at: Ns, lpn: u64, n: u32) -> Result<Ns, SsdError> {
        let mut done = at;
        for i in 0..n as u64 {
            done = done.max(self.read(at, lpn + i)?);
        }
        Ok(done)
    }

    /// Writes logical page `lpn`, arriving at `at`. Returns the completion
    /// instant. Any garbage collection the write triggers is charged
    /// synchronously.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::Full`] or [`SsdError::WornOut`] when space cannot
    /// be allocated.
    pub fn write(&mut self, at: Ns, lpn: u64) -> Result<Ns, SsdError> {
        if let Some(f) = self.faults.as_mut() {
            // A dead device refuses the program before the FTL moves: the
            // mapping must not advance on a write the flash never took.
            if f.ssd_program_refused(at, lpn) {
                return Err(SsdError::DeviceDead);
            }
        }
        let ops = self.ftl.write(lpn)?;
        let (queued, service, done) = self.charge(at, &ops);
        self.stats.record_write(BLOCK_SIZE, queued, service);
        if let Some(f) = self.faults.as_mut() {
            // A fresh program clears any latent uncorrectable state.
            f.ssd_write(at, lpn);
        }
        self.tracer.emit(|| {
            let mut gc_reads = 0u32;
            let mut gc_programs = 0u32;
            let mut erases = 0u32;
            for op in &ops {
                match op {
                    FlashOp::Read { .. } => gc_reads += 1,
                    FlashOp::Program { host: false, .. } => gc_programs += 1,
                    FlashOp::Program { host: true, .. } => {}
                    FlashOp::Erase { .. } => erases += 1,
                }
            }
            TraceEvent {
                at,
                kind: TraceKind::SsdProgram {
                    lpn,
                    queued,
                    service,
                    gc_reads,
                    gc_programs,
                    erases,
                },
            }
        });
        for op in &ops {
            match op {
                FlashOp::Read { .. } => self.energy.charge_op(ssd_op_energy::read_4k()),
                FlashOp::Program { .. } => self.energy.charge_op(ssd_op_energy::write_4k()),
                FlashOp::Erase { .. } => {
                    // Erase energy folded into the program-side figure; the
                    // active-power term covers the stall.
                }
            }
        }
        Ok(done)
    }

    /// Writes `n` consecutive logical pages starting at `lpn`.
    ///
    /// # Errors
    ///
    /// Returns the first allocation error encountered.
    pub fn write_span(&mut self, at: Ns, lpn: u64, n: u32) -> Result<Ns, SsdError> {
        let mut done = at;
        for i in 0..n as u64 {
            done = done.max(self.write(at, lpn + i)?);
        }
        Ok(done)
    }

    /// Drops the mapping for `lpn` (cache eviction); frees the page for GC.
    pub fn trim(&mut self, lpn: u64) {
        let mapped = self.ftl.map_read(lpn).is_some();
        self.ftl.trim(lpn);
        if let Some(f) = self.faults.as_mut() {
            // The old physical page (and its bad bits) is gone.
            f.ssd_write(Ns::ZERO, lpn);
        }
        if mapped {
            self.tracer.emit(|| TraceEvent {
                at: Ns::ZERO,
                kind: TraceKind::SsdTrim { lpn },
            });
        }
    }

    /// Marks `lpn` as holding factory-loaded image data: readable, but not
    /// counted as host write traffic (it predates the measured run).
    ///
    /// # Errors
    ///
    /// Returns an allocation error if the device is out of space.
    pub fn prefill(&mut self, lpn: u64) -> Result<(), SsdError> {
        self.ftl.prefill(lpn)
    }

    /// Charges a sequence of physical ops to their channels. Ops on the same
    /// channel serialise in emission order; ops on different channels
    /// overlap. Returns (queue delay, summed service time, completion
    /// instant).
    fn charge(&mut self, at: Ns, ops: &[FlashOp]) -> (Ns, Ns, Ns) {
        let cfg = self.ftl.config();
        let mut first_start: Option<Ns> = None;
        let mut service_total = Ns::ZERO;
        let mut done = at;
        for op in ops {
            let ch = op.channel(cfg) as usize;
            let start = at.max(self.channel_busy[ch]);
            first_start.get_or_insert(start);
            let latency = op.latency(cfg);
            self.channel_busy[ch] = start + latency;
            service_total += latency;
            done = done.max(self.channel_busy[ch]);
        }
        let queued = first_start.unwrap_or(at) - at;
        (queued, service_total, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ssd() -> Ssd {
        Ssd::new(SsdConfig::fusion_io(1 << 20)) // 1 MB = 256 pages
    }

    #[test]
    fn read_of_unmapped_page_errors() {
        let mut s = small_ssd();
        assert_eq!(s.read(Ns::ZERO, 0), Err(SsdError::Unmapped { lpn: 0 }));
    }

    #[test]
    fn write_then_read_latencies() {
        let mut s = small_ssd();
        let w = s.write(Ns::ZERO, 0).unwrap();
        assert_eq!(w, Ns::from_us(200));
        let r = s.read(w, 0).unwrap();
        assert_eq!(r - w, Ns::from_us(25));
    }

    #[test]
    fn channel_parallelism_overlaps_span_reads() {
        let mut s = small_ssd();
        // Pages land on distinct channels via round-robin allocation.
        s.write_span(Ns::ZERO, 0, 8).unwrap();
        let t0 = Ns::from_ms(10);
        let done = s.read_span(t0, 0, 8).unwrap();
        // 8 reads over 8 channels: far less than 8 serial reads.
        assert!(done - t0 < Ns::from_us(25) * 8);
    }

    #[test]
    fn same_channel_ops_serialise() {
        let mut s = small_ssd();
        s.write(Ns::ZERO, 0).unwrap();
        let t0 = Ns::from_ms(1);
        let r1 = s.read(t0, 0).unwrap();
        let r2 = s.read(t0, 0).unwrap();
        assert_eq!(r2 - r1, Ns::from_us(25));
        assert!(s.stats().queued > Ns::ZERO);
    }

    /// An SSD with tight spare space so GC pressure is easy to create.
    fn tight_ssd() -> Ssd {
        let cfg = SsdConfig {
            capacity_pages: 160,
            flash: flash::FlashConfig {
                channels: 4,
                pages_per_block: 8,
                blocks: 32,
                endurance: 100_000,
                ..flash::FlashConfig::slc(1, 0.0)
            },
        };
        Ssd::new(cfg)
    }

    /// Deterministic xorshift for uniform-random overwrite patterns.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn trim_then_read_errors() {
        let mut s = small_ssd();
        s.write(Ns::ZERO, 9).unwrap();
        s.trim(9);
        assert!(matches!(
            s.read(Ns::from_ms(1), 9),
            Err(SsdError::Unmapped { .. })
        ));
    }

    #[test]
    fn stats_count_host_ops_only() {
        let mut s = tight_ssd();
        let (tracer, counts) = Tracer::counting();
        s.set_tracer(tracer);
        for lpn in 0..150u64 {
            s.write(Ns::ZERO, lpn).unwrap();
        }
        // Uniform random overwrites (and trims) mix page ages within
        // blocks, so GC must relocate live pages: writes amplify.
        let mut rng = 7u64;
        for step in 0..3_000u64 {
            s.write(Ns::from_us(step), xorshift(&mut rng) % 150)
                .unwrap();
            if step % 7 == 0 {
                s.trim(xorshift(&mut rng) % 150);
            }
        }
        // Host-level writes exactly equal the requests issued, regardless of
        // internal GC traffic (Table 6 semantics).
        assert_eq!(s.stats().writes, 3_150);
        // Each flash fact has one count; the trace agrees with every one.
        let counts = counts.lock().unwrap();
        assert_eq!(counts.ssd_programs, s.stats().writes);
        assert_eq!(counts.ssd_erases, s.wear().total_erases());
        assert!(counts.ssd_gc_programs > 0);
        assert!(counts.ssd_erases > 0);
    }

    #[test]
    fn energy_includes_op_charges() {
        let mut s = small_ssd();
        s.write(Ns::ZERO, 0).unwrap();
        s.read(Ns::from_ms(1), 0).unwrap();
        let e = s.energy(Ns::from_ms(1)).as_uj();
        // At least the per-op energies (idle term is tiny over 1 ms).
        assert!(e >= 76.1 + 9.5);
    }

    #[test]
    fn prefill_is_readable_but_uncounted() {
        let mut s = small_ssd();
        s.prefill(5).unwrap();
        s.prefill(5).unwrap(); // idempotent
        assert!(s.is_mapped(5));
        assert_eq!(s.stats().writes, 0, "factory image is not host traffic");
        assert!(s.read(Ns::ZERO, 5).is_ok());
        assert_eq!(s.stats().reads, 1);
    }

    #[test]
    fn error_display_is_meaningful() {
        assert_eq!(
            SsdError::Unmapped { lpn: 7 }.to_string(),
            "read of unmapped logical page 7"
        );
        assert_eq!(SsdError::Full.to_string(), "no reclaimable flash space");
        assert!(SsdError::Uncorrectable { lpn: 3 }
            .to_string()
            .contains("uncorrectable"));
    }

    #[test]
    fn uncorrectable_read_heals_on_reprogram() {
        use crate::fault::{FaultInjector, FaultPlan, FaultTrigger};
        let mut s = small_ssd();
        let (tracer, counts) = Tracer::counting();
        s.set_tracer(tracer);
        s.install_faults(FaultInjector::new(
            FaultPlan::seeded(1).trigger(FaultTrigger::SsdRead { op: 0 }),
            0,
        ));
        s.write(Ns::ZERO, 4).unwrap();
        assert_eq!(
            s.read(Ns::from_ms(1), 4),
            Err(SsdError::Uncorrectable { lpn: 4 })
        );
        // Stays bad until reprogrammed...
        assert!(s.read(Ns::from_ms(2), 4).is_err());
        s.write(Ns::from_ms(3), 4).unwrap();
        assert!(s.read(Ns::from_ms(4), 4).is_ok());
        let counts = counts.lock().unwrap();
        assert_eq!(counts.faults_ssd_read, 2);
        assert_eq!(counts.faults_remapped, 1);
    }
}
