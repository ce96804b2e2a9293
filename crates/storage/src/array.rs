//! The device-array service layer: one owner for a system's devices.
//!
//! Every storage architecture in the reproduction — I-CASH and the four
//! baselines — is some arrangement of at most one SSD, some HDDs and a RAM
//! buffer. [`DeviceArray`] owns that arrangement and centralises the
//! accounting every end-of-run table reads: per-device operation stats,
//! SSD life used, energy totals, and [`SystemReport`] assembly.
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
use crate::fault::{FaultInjector, FaultPlan};
use crate::hdd::Hdd;
use crate::request::Request;
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
        let hdd = (!self.hdds.is_empty()).then(|| {
            let mut merged = DeviceStats::new();
            for d in &self.hdds {
                merged.merge(d.stats());
            }
            merged
        });
        SystemReport {
            name: name.to_string(),
            ssd: self.ssd.as_ref().map(|s| s.stats().clone()),
            hdd,
            ssd_life_used: self.ssd.as_ref().map(|s| s.wear().life_used()),
            device_energy: self.device_energy(elapsed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdd::HddConfig;
    use crate::ssd::SsdConfig;
    use crate::trace::TraceStats;
    use std::sync::{Arc, Mutex};

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
        assert!(r.ssd_life_used.is_some());
    }

    #[test]
    fn striped_report_merges_every_disk() {
        let mut a = DeviceArray::striped(vec![small_hdd(), small_hdd(), small_hdd()]);
        for i in 0..3 {
            a.hdd_at_mut(i).write(Ns::ZERO, i as u64, 1).unwrap();
        }
        let r = a.report("raid", Ns::from_secs(1));
        assert!(r.ssd.is_none() && r.ssd_life_used.is_none());
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

    /// An array with a counting sink on every device.
    fn counted(mut a: DeviceArray) -> (DeviceArray, Arc<Mutex<TraceStats>>) {
        let (tracer, counts) = Tracer::counting();
        a.install_tracer(tracer);
        (a, counts)
    }

    #[test]
    fn disabled_plan_installs_nothing() {
        let (mut a, counts) = counted(DeviceArray::coupled(small_ssd(), small_hdd()));
        a.install_fault_plan(&FaultPlan::none());
        a.ssd_mut().write(Ns::ZERO, 0).unwrap();
        assert!(a.ssd_mut().read(Ns::from_ms(1), 0).is_ok());
        assert!(a.hdd_mut().read(Ns::ZERO, 1, 1).is_ok());
        let counts = counts.lock().unwrap();
        assert_eq!((counts.ssd_reads, counts.hdd_reads), (1, 1));
        assert_eq!(counts.faults_ssd_read + counts.faults_hdd_read, 0);
    }

    #[test]
    fn armed_plan_reaches_every_device() {
        use crate::fault::FaultTrigger;
        let plan = FaultPlan::seeded(3)
            .trigger(FaultTrigger::HddRead { op: 0 })
            .trigger(FaultTrigger::SsdRead { op: 0 });
        let (mut a, counts) = counted(DeviceArray::coupled(small_ssd(), small_hdd()));
        a.install_fault_plan(&plan);
        a.ssd_mut().write(Ns::ZERO, 0).unwrap();
        assert!(a.ssd_mut().read(Ns::from_ms(1), 0).is_err());
        assert!(a.hdd_mut().read(Ns::ZERO, 1, 1).is_err());
        let counts = counts.lock().unwrap();
        assert_eq!(counts.faults_ssd_read, 1);
        assert_eq!(counts.faults_hdd_read, 1);
    }
}
