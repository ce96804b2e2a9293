//! The device-array service layer: one owner for a system's devices.
//!
//! Every storage architecture in the reproduction — I-CASH and the four
//! baselines — is some arrangement of at most one SSD, some HDDs and a RAM
//! buffer. [`DeviceArray`] owns that arrangement and centralises the
//! accounting every end-of-run table reads: per-device operation stats,
//! wear/erase counters, energy totals, and [`SystemReport`] assembly.
//! Systems keep their *policies* (what to cache, where to log, how to
//! stripe); the substrate beneath them is shared.
//!
//! ```
//! use icash_storage::array::DeviceArray;
//! use icash_storage::hdd::{Hdd, HddConfig};
//! use icash_storage::ssd::{Ssd, SsdConfig};
//! use icash_storage::time::Ns;
//!
//! let mut array = DeviceArray::coupled(
//!     Ssd::new(SsdConfig::fusion_io(1 << 20)),
//!     Hdd::new(HddConfig::seagate_sata(1 << 10)),
//! );
//! let t = array.ssd_mut().write(Ns::ZERO, 3)?;
//! array.hdd_mut().write(t, 77, 1)?;
//! let report = array.report("demo", Ns::from_secs(1));
//! assert_eq!(report.ssd.unwrap().writes, 1);
//! assert_eq!(report.hdd.unwrap().writes, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::energy::MicroJoules;
use crate::fault::{FaultInjector, FaultPlan, FaultStats};
use crate::hdd::Hdd;
use crate::request::Request;
use crate::ssd::ftl::GcStats;
use crate::ssd::Ssd;
use crate::stats::DeviceStats;
use crate::system::SystemReport;
use crate::time::Ns;
use crate::trace::{TraceEvent, TraceKind, Tracer};

/// The devices backing one storage architecture: at most one SSD and any
/// number of HDDs. (RAM timing is charged by the CPU model, not here.)
#[derive(Debug)]
pub struct DeviceArray {
    ssd: Option<Ssd>,
    hdds: Vec<Hdd>,
    tracer: Tracer,
}

impl DeviceArray {
    /// An array of one SSD and nothing else (the pure-flash baseline).
    pub fn ssd_only(ssd: Ssd) -> Self {
        DeviceArray {
            ssd: Some(ssd),
            hdds: Vec::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// One SSD coupled with one HDD — the I-CASH shape, also used by the
    /// cache-over-disk baselines.
    pub fn coupled(ssd: Ssd, hdd: Hdd) -> Self {
        DeviceArray {
            ssd: Some(ssd),
            hdds: vec![hdd],
            tracer: Tracer::disabled(),
        }
    }

    /// A striped set of HDDs (the RAID0 baseline).
    ///
    /// # Panics
    ///
    /// Panics if `hdds` is empty.
    pub fn striped(hdds: Vec<Hdd>) -> Self {
        assert!(!hdds.is_empty(), "an array needs at least one device");
        DeviceArray {
            ssd: None,
            hdds,
            tracer: Tracer::disabled(),
        }
    }

    /// Number of HDDs in the array.
    pub fn width(&self) -> usize {
        self.hdds.len()
    }

    /// The SSD.
    ///
    /// # Panics
    ///
    /// Panics if the array has no SSD.
    pub fn ssd(&self) -> &Ssd {
        self.ssd.as_ref().expect("array has no SSD")
    }

    /// The SSD, mutably.
    ///
    /// # Panics
    ///
    /// Panics if the array has no SSD.
    pub fn ssd_mut(&mut self) -> &mut Ssd {
        self.ssd.as_mut().expect("array has no SSD")
    }

    /// The first (or only) HDD.
    ///
    /// # Panics
    ///
    /// Panics if the array has no HDD.
    pub fn hdd(&self) -> &Hdd {
        self.hdds.first().expect("array has no HDD")
    }

    /// The first (or only) HDD, mutably.
    ///
    /// # Panics
    ///
    /// Panics if the array has no HDD.
    pub fn hdd_mut(&mut self) -> &mut Hdd {
        self.hdds.first_mut().expect("array has no HDD")
    }

    /// HDD number `idx` (striped arrays).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn hdd_at_mut(&mut self, idx: usize) -> &mut Hdd {
        &mut self.hdds[idx]
    }

    /// Installs `plan` on every device in the array. A disabled plan (see
    /// [`FaultPlan::is_enabled`]) installs nothing, keeping fault-free runs
    /// bit-identical to builds that never heard of faults. Each device gets
    /// its own salt so a shared plan does not fail devices in lockstep.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        if !plan.is_enabled() {
            return;
        }
        if let Some(ssd) = self.ssd.as_mut() {
            ssd.install_faults(FaultInjector::new(plan.clone(), 1).with_death(plan.ssd_death_op));
        }
        for (i, hdd) in self.hdds.iter_mut().enumerate() {
            hdd.install_faults(
                FaultInjector::new(plan.clone(), 16 + i as u64).with_death(plan.hdd_death_op),
            );
        }
    }

    /// Swaps in a replacement SSD (the `replace_device` maintenance action).
    /// The fresh drive lives under the same plan minus the death trigger
    /// that killed its predecessor, keeps the same injector salt so its
    /// probabilistic draws stay on the plan's stream, and inherits the
    /// array's tracer.
    ///
    /// # Panics
    ///
    /// Panics if the array has no SSD bay.
    pub fn replace_ssd(&mut self, mut ssd: Ssd, plan: &FaultPlan) {
        assert!(self.ssd.is_some(), "array has no SSD");
        let healthy = plan.without_ssd_death();
        if healthy.is_enabled() {
            ssd.install_faults(FaultInjector::new(healthy, 1).with_death(None));
        }
        ssd.set_tracer(self.tracer.clone());
        self.ssd = Some(ssd);
    }

    /// Installs `tracer` on the array and every device it owns (and, via
    /// the devices, any fault injectors already installed). Installing a
    /// disabled tracer is the no-op default state.
    pub fn install_tracer(&mut self, tracer: Tracer) {
        if let Some(ssd) = self.ssd.as_mut() {
            ssd.set_tracer(tracer.clone());
        }
        for (i, hdd) in self.hdds.iter_mut().enumerate() {
            hdd.set_tracer(tracer.clone(), i as u8);
        }
        self.tracer = tracer;
    }

    /// The tracer installed on this array (disabled by default). Systems
    /// borrow it to emit their own controller-level events.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Opens a request span: emits [`TraceKind::RequestStart`] stamped with
    /// the request's arrival time, shape and address.
    pub fn trace_request(&self, req: &Request) {
        self.tracer.emit(|| TraceEvent {
            at: req.at,
            kind: TraceKind::RequestStart {
                op: req.op,
                lba: req.lba.raw(),
                blocks: req.blocks,
            },
        });
    }

    /// Closes the current request span at completion time `finished`.
    pub fn trace_request_end(&self, finished: Ns) {
        self.tracer.emit(|| TraceEvent {
            at: finished,
            kind: TraceKind::RequestEnd,
        });
    }

    /// Fault counters merged over every device (zeros when no injector is
    /// installed).
    pub fn fault_stats(&self) -> FaultStats {
        let mut merged = FaultStats::default();
        if let Some(f) = self.ssd.as_ref().and_then(|s| s.fault_stats()) {
            merged.merge(f);
        }
        for d in &self.hdds {
            if let Some(f) = d.fault_stats() {
                merged.merge(f);
            }
        }
        merged
    }

    /// Host-level SSD operation stats, if the array has an SSD.
    pub fn ssd_stats(&self) -> Option<DeviceStats> {
        self.ssd.as_ref().map(|s| s.stats().clone())
    }

    /// Operation stats aggregated over every HDD, if the array has any.
    pub fn hdd_stats(&self) -> Option<DeviceStats> {
        if self.hdds.is_empty() {
            return None;
        }
        let mut merged = DeviceStats::new();
        for d in &self.hdds {
            merged.merge(d.stats());
        }
        Some(merged)
    }

    /// SSD garbage-collection stats, if the array has an SSD.
    pub fn gc_stats(&self) -> Option<GcStats> {
        self.ssd.as_ref().map(|s| *s.gc_stats())
    }

    /// Fraction of SSD endurance consumed, if the array has an SSD.
    pub fn ssd_life_used(&self) -> Option<f64> {
        self.ssd.as_ref().map(|s| s.wear().life_used())
    }

    /// Total energy drawn by every device over `elapsed`.
    pub fn device_energy(&self, elapsed: Ns) -> MicroJoules {
        let mut total = self
            .ssd
            .as_ref()
            .map_or(MicroJoules::ZERO, |s| s.energy(elapsed));
        for d in &self.hdds {
            total.add(d.energy(elapsed));
        }
        total
    }

    /// Assembles the end-of-run [`SystemReport`]: each section is present
    /// exactly when the corresponding device exists.
    pub fn report(&self, name: &str, elapsed: Ns) -> SystemReport {
        SystemReport {
            name: name.to_string(),
            ssd: self.ssd_stats(),
            hdd: self.hdd_stats(),
            gc: self.gc_stats(),
            ssd_life_used: self.ssd_life_used(),
            device_energy: self.device_energy(elapsed),
            faults: self.fault_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdd::HddConfig;
    use crate::ssd::SsdConfig;

    fn small_ssd() -> Ssd {
        Ssd::new(SsdConfig::fusion_io(1 << 20))
    }

    fn small_hdd() -> Hdd {
        Hdd::new(HddConfig::seagate_sata(1 << 10))
    }

    #[test]
    fn ssd_only_report_has_no_hdd_section() {
        let mut a = DeviceArray::ssd_only(small_ssd());
        a.ssd_mut().write(Ns::ZERO, 0).unwrap();
        let r = a.report("flash", Ns::from_secs(1));
        assert_eq!(r.name, "flash");
        assert_eq!(r.ssd.unwrap().writes, 1);
        assert!(r.hdd.is_none());
        assert!(r.gc.is_some());
        assert!(r.ssd_life_used.is_some());
    }

    #[test]
    fn striped_report_merges_every_disk() {
        let mut a = DeviceArray::striped(vec![small_hdd(), small_hdd(), small_hdd()]);
        for i in 0..3 {
            a.hdd_at_mut(i).write(Ns::ZERO, i as u64, 1).unwrap();
        }
        let r = a.report("raid", Ns::from_secs(1));
        assert!(r.ssd.is_none() && r.gc.is_none() && r.ssd_life_used.is_none());
        assert_eq!(r.hdd.unwrap().writes, 3);
        // Three spindles draw more than one.
        let one = DeviceArray::striped(vec![small_hdd()]).device_energy(Ns::from_secs(1));
        assert!(a.device_energy(Ns::from_secs(1)).as_joules() > 2.0 * one.as_joules());
    }

    #[test]
    fn coupled_energy_sums_both_devices() {
        let a = DeviceArray::coupled(small_ssd(), small_hdd());
        assert_eq!(a.width(), 1);
        let ssd_only = DeviceArray::ssd_only(small_ssd()).device_energy(Ns::from_secs(1));
        let hdd_only = DeviceArray::striped(vec![small_hdd()]).device_energy(Ns::from_secs(1));
        let both = a.device_energy(Ns::from_secs(1));
        let sum = ssd_only.as_joules() + hdd_only.as_joules();
        assert!((both.as_joules() - sum).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "array has no SSD")]
    fn missing_ssd_access_panics() {
        let mut a = DeviceArray::striped(vec![small_hdd()]);
        a.ssd_mut();
    }

    #[test]
    fn disabled_plan_installs_nothing() {
        let mut a = DeviceArray::coupled(small_ssd(), small_hdd());
        a.install_fault_plan(&FaultPlan::none());
        assert!(a.ssd().fault_stats().is_none());
        assert!(a.hdd().fault_stats().is_none());
        assert_eq!(a.fault_stats(), FaultStats::default());
    }

    #[test]
    fn armed_plan_reaches_every_device_and_report() {
        use crate::fault::FaultTrigger;
        let plan = FaultPlan::seeded(3)
            .trigger(FaultTrigger::HddRead { op: 0 })
            .trigger(FaultTrigger::SsdRead { op: 0 });
        let mut a = DeviceArray::coupled(small_ssd(), small_hdd());
        a.install_fault_plan(&plan);
        a.ssd_mut().write(Ns::ZERO, 0).unwrap();
        assert!(a.ssd_mut().read(Ns::from_ms(1), 0).is_err());
        assert!(a.hdd_mut().read(Ns::ZERO, 1, 1).is_err());
        let r = a.report("faulty", Ns::from_secs(1));
        assert_eq!(r.faults.ssd_read_errors, 1);
        assert_eq!(r.faults.hdd_read_errors, 1);
    }
}
