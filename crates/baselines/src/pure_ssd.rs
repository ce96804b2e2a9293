//! The "Fusion-io" baseline: the entire data set on one SSD (paper §4.4,
//! baseline 1).
//!
//! Every read and write is a flash operation; sustained random writes pay
//! garbage-collection amplification, which is exactly the behaviour I-CASH
//! sidesteps by absorbing writes as HDD-logged deltas.

use icash_storage::array::DeviceArray;
use icash_storage::block::{BlockBuf, Lba};
use icash_storage::fault::{self, FaultPlan};
use icash_storage::hash::AddrMap;
use icash_storage::pipeline::{Ticket, WriteThrough};
use icash_storage::request::{Completion, IoErrorKind, Op, Request};
use icash_storage::ssd::{Ssd, SsdConfig};
use icash_storage::system::{IoCtx, StorageSystem, SystemReport};
use icash_storage::time::Ns;
use icash_storage::trace::Tracer;

/// A storage system holding the whole data set on flash.
///
/// # Examples
///
/// ```
/// use icash_baselines::PureSsd;
/// use icash_storage::cpu::CpuModel;
/// use icash_storage::{BlockBuf, IoCtx, Lba, Ns, Request, StorageSystem, ZeroSource};
///
/// let mut sys = PureSsd::new(8 << 20);
/// let mut cpu = CpuModel::xeon();
/// let backing = ZeroSource;
/// let mut ctx = IoCtx::verifying(&backing, &mut cpu);
/// let w = Request::write(Lba::new(1), Ns::ZERO, BlockBuf::filled(3));
/// let done = sys.submit(&w, &mut ctx).finished;
/// let r = Request::read(Lba::new(1), done);
/// assert_eq!(sys.submit(&r, &mut ctx).data[0], BlockBuf::filled(3));
/// ```
#[derive(Debug)]
pub struct PureSsd {
    array: DeviceArray,
    /// LBA → logical page; assigned on first touch so VM-tagged addresses
    /// coexist.
    pages: AddrMap<Lba, u64>,
    next_page: u64,
    overlay: AddrMap<Lba, BlockBuf>,
    keep_content: bool,
    /// Shared write-through ticket bookkeeping ([`WriteThrough`]): every
    /// accepted write is on stable media when submit returns.
    tickets: WriteThrough,
}

impl PureSsd {
    /// Creates a drive big enough for `data_bytes` of application data.
    pub fn new(data_bytes: u64) -> Self {
        PureSsd {
            array: DeviceArray::ssd_only(Ssd::new(SsdConfig::fusion_io(data_bytes))),
            pages: AddrMap::default(),
            next_page: 0,
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

    /// Arms deterministic fault injection on the drive. A disabled plan
    /// installs nothing, keeping fault-free runs bit-identical.
    pub fn with_fault_plan(mut self, plan: &FaultPlan) -> Self {
        self.array.install_fault_plan(plan);
        self
    }

    /// The underlying SSD (wear and write counts for Tables 5–6).
    pub fn ssd(&self) -> &Ssd {
        self.array.ssd()
    }

    /// The logical page assigned to `lba`, allocating (and factory-filling)
    /// on first touch.
    fn page_of(&mut self, lba: Lba) -> u64 {
        match self.pages.get(&lba) {
            Some(&p) => p,
            None => {
                let p = self.next_page % self.array.ssd().capacity_pages();
                self.next_page += 1;
                self.pages.insert(lba, p);
                p
            }
        }
    }
}

impl StorageSystem for PureSsd {
    fn name(&self) -> &str {
        "FusionIO"
    }

    fn submit(&mut self, req: &Request, ctx: &mut IoCtx<'_>) -> Completion {
        self.array.trace_request(req);
        let mut done = req.at;
        let mut data = Vec::new();
        let mut errors = Vec::new();
        for (i, lba) in req.lbas().enumerate() {
            let page = self.page_of(lba);
            match req.op {
                Op::Write => {
                    self.tickets.accept();
                    // Program failures are handled by the FTL remapping the
                    // page; a bounded retry models the reprogram.
                    let ssd = self.array.ssd_mut();
                    let last = fault::write_with_retry(|| ssd.write(req.at, page));
                    done = done.max(last.unwrap_or(req.at));
                    if self.keep_content {
                        self.overlay.insert(lba, req.payload[i].clone());
                    }
                }
                Op::Read => {
                    // First read of an untouched page hits the factory image.
                    if !self.array.ssd().is_mapped(page)
                        && self.array.ssd_mut().prefill(page).is_err()
                    {
                        fault::report_lost(
                            &mut errors,
                            &mut data,
                            ctx.collect_data,
                            lba,
                            IoErrorKind::SsdSpace,
                        );
                        continue;
                    }
                    let ssd = self.array.ssd_mut();
                    match fault::read_with_retry(|| ssd.read(req.at, page)) {
                        Ok(t) => done = done.max(t),
                        Err(_) => {
                            // Uncorrectable: the page is lost. Reprogram it
                            // so the bad cells are retired, but report the
                            // read failed rather than serve bytes the flash
                            // could not deliver.
                            let _ = self.array.ssd_mut().write(req.at, page);
                            fault::report_lost(
                                &mut errors,
                                &mut data,
                                ctx.collect_data,
                                lba,
                                IoErrorKind::SsdMedia,
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
        // Write-through: the program is on flash when submit returns, so
        // accepted and durable watermarks advance together.
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

#[cfg(test)]
mod tests {
    use super::*;
    use icash_storage::cpu::CpuModel;
    use icash_storage::system::ZeroSource;

    fn ctx_parts() -> (ZeroSource, CpuModel) {
        (ZeroSource, CpuModel::xeon())
    }

    #[test]
    fn reads_are_fast_writes_are_slower() {
        let (backing, mut cpu) = ctx_parts();
        let mut ctx = IoCtx::new(&backing, &mut cpu);
        let mut sys = PureSsd::new(1 << 20);
        let w = Request::write(Lba::new(0), Ns::ZERO, BlockBuf::zeroed());
        let wt = sys.submit(&w, &mut ctx).finished;
        let r = Request::read(Lba::new(0), wt);
        let rt = sys.submit(&r, &mut ctx).finished - wt;
        assert!(rt < wt - Ns::ZERO, "flash reads beat programs");
    }

    #[test]
    fn first_read_of_cold_block_works() {
        let (backing, mut cpu) = ctx_parts();
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);
        let mut sys = PureSsd::new(1 << 20);
        let r = Request::read(Lba::new(77), Ns::ZERO);
        let c = sys.submit(&r, &mut ctx);
        assert_eq!(c.data[0], BlockBuf::zeroed());
        assert_eq!(sys.ssd().stats().writes, 0, "cold reads are not writes");
    }

    #[test]
    fn write_counts_match_requests() {
        let (backing, mut cpu) = ctx_parts();
        let mut ctx = IoCtx::new(&backing, &mut cpu);
        let mut sys = PureSsd::new(1 << 20).timing_only();
        let mut t = Ns::ZERO;
        for i in 0..50u64 {
            let w = Request::write(Lba::new(i % 10), t, BlockBuf::zeroed());
            t = sys.submit(&w, &mut ctx).finished;
        }
        assert_eq!(sys.ssd().stats().writes, 50);
        let rep = sys.report(t);
        assert_eq!(rep.name, "FusionIO");
        assert!(rep.hdd.is_none());
    }

    #[test]
    fn vm_tagged_lbas_get_distinct_pages() {
        let (backing, mut cpu) = ctx_parts();
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);
        let mut sys = PureSsd::new(1 << 20);
        let a = Request::write(Lba::new(5).with_vm(1), Ns::ZERO, BlockBuf::filled(1));
        let b = Request::write(Lba::new(5).with_vm(2), Ns::ZERO, BlockBuf::filled(2));
        let t1 = sys.submit(&a, &mut ctx).finished;
        let t2 = sys.submit(&b, &mut ctx).finished.max(t1);
        let r = Request::read(Lba::new(5).with_vm(1), t2);
        assert_eq!(sys.submit(&r, &mut ctx).data[0], BlockBuf::filled(1));
    }
}
