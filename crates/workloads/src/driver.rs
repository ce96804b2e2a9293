//! The closed-loop benchmark driver.
//!
//! Reproduces the paper's measurement setup: N logical clients issue
//! requests against one storage system, each waiting for its previous
//! request (plus its application compute) before issuing the next. The
//! driver owns the CPU model and the content model, collects latencies
//! into histograms, and emits a [`RunSummary`] with everything the paper's
//! figures and tables report.
//!
//! With `verify` enabled, every read is checked against the content
//! model's oracle — a whole-system data-integrity test running under the
//! exact benchmark access pattern.

use crate::content::ContentModel;
use crate::workload::{Workload, WorkloadOp};
use icash_metrics::histogram::LatencyHistogram;
use icash_metrics::summary::RunSummary;
use icash_storage::block::BlockBuf;
use icash_storage::block::Lba;
use icash_storage::cpu::CpuModel;
use icash_storage::lru::LruMap;
use icash_storage::request::{Op, Request};
use icash_storage::system::{IoCtx, StorageSystem};
use icash_storage::time::Ns;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A drive loop's clients (or service slots), ordered by when each is next
/// free: the earliest first, the lowest index among equals — exactly what
/// a linear first-minimum scan over the clients answers, without touching
/// every client once per operation.
#[derive(Debug)]
pub(crate) struct ReadyClients(BinaryHeap<Reverse<(Ns, usize)>>);

impl ReadyClients {
    /// `clients` clients (at least one), all free at time zero.
    pub(crate) fn new(clients: u32) -> Self {
        ReadyClients(
            (0..clients.max(1) as usize)
                .map(|i| Reverse((Ns::ZERO, i)))
                .collect(),
        )
    }

    /// Takes the client that is free earliest, and that instant. It is out
    /// of the running until [`park`](Self::park) puts it back.
    #[inline]
    pub(crate) fn next(&mut self) -> (Ns, usize) {
        self.0.pop().expect("at least one client").0
    }

    /// `client` is busy until `until`.
    #[inline]
    pub(crate) fn park(&mut self, client: usize, until: Ns) {
        self.0.push(Reverse((until, client)));
    }
}

/// The guest VM's page cache (Table 4's "VM RAM" column).
///
/// Disabled by default: the paper's Table 4 op counts were captured at the
/// virtual-disk level, *below* the guest page cache, so the generators
/// already model post-cache traffic. Enabling it (ablations) filters reads
/// through an extra LRU tier the way an in-guest trace would see them.
#[derive(Debug)]
struct PageCache {
    capacity: usize,
    entries: LruMap<Lba, ()>,
}

impl PageCache {
    fn new(capacity_blocks: usize) -> Self {
        PageCache {
            capacity: capacity_blocks,
            entries: LruMap::new(),
        }
    }

    fn contains(&mut self, lba: Lba) -> bool {
        self.entries.get(&lba).is_some()
    }

    fn insert(&mut self, lba: Lba) {
        if self.capacity == 0 || self.contains(lba) {
            return;
        }
        if self.entries.len() >= self.capacity {
            self.entries.pop_lru();
        }
        self.entries.insert(lba, ());
    }
}

/// Driver parameters.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Concurrent closed-loop clients (the paper uses 16 SysBench threads,
    /// 100 LoadSim users, 300 RUBiS clients...).
    pub clients: u32,
    /// Total operations to issue.
    pub ops: u64,
    /// Operations excluded from latency statistics (cache warmup).
    pub warmup_ops: u64,
    /// Verify every read against the content oracle.
    pub verify: bool,
    /// Model the guest page cache in front of the storage system
    /// (ablation; Table 4 traffic is already post-cache).
    pub guest_cache: bool,
    /// CPU model to run on (None = the paper's host Xeon). The paper's §6
    /// future work is an embedded-processor prototype; pass a slower model
    /// to study it.
    pub cpu: Option<CpuModel>,
}

impl DriverConfig {
    /// A configuration issuing `ops` operations with 16 clients and 10 %
    /// warmup.
    pub fn new(ops: u64) -> Self {
        DriverConfig {
            clients: 16,
            ops,
            warmup_ops: ops / 10,
            verify: false,
            guest_cache: false,
            cpu: None,
        }
    }

    /// Runs the storage layer on a custom CPU model (e.g. an embedded
    /// controller processor instead of the host Xeon).
    pub fn cpu(mut self, cpu: CpuModel) -> Self {
        self.cpu = Some(cpu);
        self
    }

    /// Sets the client count.
    pub fn clients(mut self, clients: u32) -> Self {
        self.clients = clients.max(1);
        self
    }

    /// Enables oracle verification of every read.
    pub fn verify(mut self) -> Self {
        self.verify = true;
        self
    }
}

/// What every drive loop does around its own pacing policy: the offline
/// image preparation, building each request (write payloads come from the
/// content model), the steady-window latency bookkeeping, the shutdown
/// flush and the [`RunSummary`]. The closed loop below and the open-loop
/// dispatcher ([`run_open_loop`](crate::scenario::run_open_loop)) differ
/// only in *when* a request is issued and what its latency is measured
/// from.
pub(crate) struct Session {
    pub(crate) cpu: CpuModel,
    warmup_ops: u64,
    issued: u64,
    read_latency: LatencyHistogram,
    write_latency: LatencyHistogram,
    end: Ns,
    steady_start: Ns,
}

impl Session {
    /// Prepares `system`'s image offline (charges no virtual time) and
    /// opens the books.
    pub(crate) fn open(
        system: &mut dyn StorageSystem,
        workload: &dyn Workload,
        model: &ContentModel,
        mut cpu: CpuModel,
        warmup_ops: u64,
    ) -> Self {
        let universe = workload.address_universe();
        system.preload(&universe, &mut IoCtx::new(model, &mut cpu));
        Session {
            cpu,
            warmup_ops,
            issued: 0,
            read_latency: LatencyHistogram::new(),
            write_latency: LatencyHistogram::new(),
            end: Ns::ZERO,
            steady_start: Ns::ZERO,
        }
    }

    /// The request for `wop` issued at `at`.
    #[inline]
    pub(crate) fn request(model: &mut ContentModel, wop: &WorkloadOp, at: Ns) -> Request {
        match wop.op {
            Op::Read => Request::read_span(wop.lba, wop.blocks, at),
            Op::Write => {
                let payload: Vec<BlockBuf> = (0..wop.blocks as u64)
                    .map(|i| model.write_payload(wop.lba.plus(i)))
                    .collect();
                Request::write_span(wop.lba, at, payload)
            }
        }
    }

    /// Books one finished operation: `from` opens the steady window if this
    /// is the first measured op, `latency` is sampled once warm, and the
    /// run lasts at least `until`.
    #[inline]
    pub(crate) fn record(&mut self, op: Op, from: Ns, latency: Ns, until: Ns) {
        if self.issued == self.warmup_ops {
            self.steady_start = from;
        }
        if self.issued >= self.warmup_ops {
            match op {
                Op::Read => self.read_latency.record(latency),
                Op::Write => self.write_latency.record(latency),
            }
        }
        self.issued += 1;
        self.end = self.end.max(until);
    }

    /// Clean shutdown: flushes buffered state and summarises the run.
    pub(crate) fn close(
        mut self,
        system: &mut dyn StorageSystem,
        workload: &dyn Workload,
        model: &ContentModel,
    ) -> RunSummary {
        let end = system
            .flush(self.end, &mut IoCtx::new(model, &mut self.cpu))
            .max(self.end);
        let report = system.report(end);
        let spec = workload.spec();
        let energy = report.device_energy + self.cpu.energy(end);
        RunSummary {
            system: report.name.clone(),
            workload: spec.name.clone(),
            ops: self.issued,
            transactions: self.issued / spec.ops_per_transaction.max(1),
            elapsed: end,
            steady_ops: self.issued.saturating_sub(self.warmup_ops),
            steady_elapsed: end.saturating_sub(self.steady_start),
            read_latency: self.read_latency,
            write_latency: self.write_latency,
            cpu_utilization: self.cpu.utilization(end),
            storage_cpu_utilization: if end == Ns::ZERO {
                0.0
            } else {
                (self.cpu.storage_busy().as_ns() as f64 / end.as_ns() as f64).min(1.0)
            },
            ssd_writes: report.ssd.as_ref().map(|s| s.writes).unwrap_or(0),
            energy_wh: energy.as_watt_hours(),
            report,
            wall_ns: 0, // filled in by the harness, which times the whole cell
        }
    }
}

/// Runs `workload` against `system` and summarises the result.
///
/// # Panics
///
/// Panics if `verify` is set and the system returns wrong data — that is
/// the point of verification.
pub fn run_benchmark(
    system: &mut dyn StorageSystem,
    workload: &mut dyn Workload,
    model: &mut ContentModel,
    cfg: &DriverConfig,
) -> RunSummary {
    let cpu = cfg.cpu.clone().unwrap_or_else(CpuModel::xeon);
    let mut run = Session::open(system, workload, model, cpu, cfg.warmup_ops);
    let mut ready = ReadyClients::new(cfg.clients);
    let mut page_cache = PageCache::new(if cfg.guest_cache {
        (workload.spec().vm_ram_bytes / 4096) as usize
    } else {
        0
    });

    for n in 0..cfg.ops {
        // Next client to become ready (closed loop).
        let (at, client) = ready.next();
        let wop = workload.next_op();
        let req = Session::request(model, &wop, at);

        // Reads fully covered by the guest page cache never reach the
        // storage system; everything else goes through and fills it.
        let cache_hit =
            cfg.guest_cache && wop.op == Op::Read && req.lbas().all(|l| page_cache.contains(l));
        let completion = if cache_hit {
            let copy = run.cpu.charge(icash_storage::cpu::CpuOp::Memcpy);
            let data = if cfg.verify {
                req.lbas().map(|l| model.current_content(l)).collect()
            } else {
                Vec::new()
            };
            icash_storage::request::Completion::with_data(at + copy, data)
        } else {
            for l in req.lbas() {
                page_cache.insert(l);
            }
            let mut ctx = IoCtx {
                backing: &*model,
                cpu: &mut run.cpu,
                collect_data: cfg.verify,
            };
            system.submit(&req, &mut ctx)
        };

        if cfg.verify && wop.op == Op::Read {
            for (i, lba) in req.lbas().enumerate() {
                // A read the system *reported* failed (media error under
                // fault injection) carries placeholder data; silent wrong
                // data is what verification is hunting.
                if completion.failed(lba) {
                    continue;
                }
                let want = model.current_content(lba);
                assert_eq!(
                    completion.data[i],
                    want,
                    "{}: wrong data at {} (op {n})",
                    system.name(),
                    lba
                );
            }
        }

        run.cpu.charge_app(wop.app_cpu);
        let until = completion.finished + wop.app_cpu + wop.think;
        ready.park(client, until);
        run.record(wop.op, at, completion.latency(&req), until);
    }
    run.close(system, workload, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::ContentProfile;
    use crate::spec::WorkloadSpec;
    use crate::workload::MixedWorkload;
    use icash_storage::request::Completion;
    use icash_storage::system::SystemReport;

    /// A fixed-latency system for driver mechanics.
    #[derive(Debug)]
    struct FixedLatency;

    impl StorageSystem for FixedLatency {
        fn name(&self) -> &str {
            "Fixed"
        }
        fn submit(&mut self, req: &Request, ctx: &mut IoCtx<'_>) -> Completion {
            let data = if ctx.collect_data && req.op == Op::Read {
                req.lbas().map(|l| ctx.backing.initial_content(l)).collect()
            } else {
                Vec::new()
            };
            Completion::with_data(req.at + Ns::from_us(100), data)
        }
        fn report(&self, _elapsed: Ns) -> SystemReport {
            SystemReport {
                name: "Fixed".into(),
                ..SystemReport::default()
            }
        }
    }

    fn tiny_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "tiny".into(),
            data_bytes: 4 << 20,
            table4_reads: 900,
            table4_writes: 100,
            avg_read_bytes: 4096,
            avg_write_bytes: 4096,
            ssd_bytes: 1 << 20,
            vm_ram_bytes: 1 << 20,
            ram_bytes: 1 << 20,
            zipf_exponent: 1.0,
            active_fraction: 1.0,
            sequential_prob: 0.0,
            seq_run_ops: 1,
            ops_per_transaction: 10,
            app_cpu_per_op: Ns::from_us(50),
            think_per_op: Ns::ZERO,
            profile: ContentProfile::database(),
            clients: 4,
            default_ops: 500,
        }
    }

    #[test]
    fn driver_produces_consistent_summary() {
        let mut system = FixedLatency;
        let mut wl = MixedWorkload::new(tiny_spec(), 1);
        let mut model = ContentModel::new(1, ContentProfile::database());
        let cfg = DriverConfig::new(1_000).clients(4);
        let s = run_benchmark(&mut system, &mut wl, &mut model, &cfg);

        assert_eq!(s.ops, 1_000);
        assert_eq!(s.transactions, 100);
        assert!(s.elapsed > Ns::ZERO);
        // Fixed 100 µs service; page-cache hits complete faster.
        assert!(s.read_latency.mean() <= Ns::from_us(100));
        assert!(s.write_latency.mean() == Ns::from_us(100));
        assert!(s.read_latency.count() + s.write_latency.count() <= 1_000);
        assert!(s.transactions_per_sec() > 0.0);
        assert!(s.cpu_utilization > 0.0);
    }

    #[test]
    fn clients_overlap_in_time() {
        // With C clients and fixed service time S plus think T, the run
        // finishes ~C× faster than a single client.
        let run_with = |clients: u32| {
            let mut system = FixedLatency;
            let mut wl = MixedWorkload::new(tiny_spec(), 1);
            let mut model = ContentModel::new(1, ContentProfile::database());
            let cfg = DriverConfig::new(400).clients(clients);
            run_benchmark(&mut system, &mut wl, &mut model, &cfg).elapsed
        };
        let one = run_with(1);
        let eight = run_with(8);
        assert!(
            eight < one / 4,
            "8 clients ({eight}) should be much faster than 1 ({one})"
        );
    }

    #[test]
    fn guest_cache_absorbs_repeat_reads() {
        // With the ablation cache on, re-reads never reach the system.
        #[derive(Debug)]
        struct Counting {
            reads: u64,
        }
        impl StorageSystem for Counting {
            fn name(&self) -> &str {
                "Counting"
            }
            fn submit(&mut self, req: &Request, _ctx: &mut IoCtx<'_>) -> Completion {
                if req.op == Op::Read {
                    self.reads += 1;
                }
                Completion::at(req.at + Ns::from_us(10))
            }
            fn report(&self, _elapsed: Ns) -> SystemReport {
                SystemReport::default()
            }
        }

        let run = |guest_cache: bool| {
            let mut system = Counting { reads: 0 };
            let mut wl = MixedWorkload::new(tiny_spec(), 3);
            let mut model = ContentModel::new(3, ContentProfile::database());
            let cfg = DriverConfig {
                clients: 1,
                ops: 2_000,
                warmup_ops: 0,
                verify: false,
                guest_cache,
                cpu: None,
            };
            let _ = run_benchmark(&mut system, &mut wl, &mut model, &cfg);
            system.reads
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with < without / 2,
            "guest cache must absorb most re-reads: {with} vs {without}"
        );
    }

    /// Recorded with the linear `min_by_key` scan this driver had before
    /// [`ReadyClients`] (seed 7, 2 000 ops, 1 / 4 / 300 clients — at a
    /// fixed latency nearly every pick is a tie): one summary a line.
    #[test]
    fn fixed_latency_summaries_are_the_linear_scans_byte_for_byte() {
        let golden = include_str!("../tests/golden/driver_fixed_latency.jsonl");
        for (clients, want) in [1u32, 4, 300].into_iter().zip(golden.lines()) {
            let mut system = FixedLatency;
            let mut wl = MixedWorkload::new(tiny_spec(), 7);
            let mut model = ContentModel::new(7, ContentProfile::database());
            let cfg = DriverConfig::new(2_000).clients(clients);
            let s = run_benchmark(&mut system, &mut wl, &mut model, &cfg);
            assert_eq!(s.to_json(), want, "{clients} clients");
        }
    }

    /// The scan [`ReadyClients`] replaced, as the oracle.
    struct LinearClients(Vec<Ns>);

    impl LinearClients {
        fn next(&self) -> (Ns, usize) {
            let client = (0..self.0.len())
                .min_by_key(|&i| self.0[i])
                .expect("at least one client");
            (self.0[client], client)
        }
    }

    proptest::proptest! {
        /// Busy times drawn from four values, so most picks are exact
        /// ties: the heap hands out the same (instant, client) sequence as
        /// the scan, for one client, two, and RUBiS's 300.
        #[test]
        fn ready_clients_pick_what_the_linear_scan_picks(
            clients_pick in 0usize..3,
            busy in proptest::collection::vec((0u64..4, 0u64..3), 1..600),
        ) {
            let clients = [1u32, 2, 300][clients_pick];
            let mut heap = ReadyClients::new(clients);
            let mut linear = LinearClients(vec![Ns::ZERO; clients as usize]);
            for (service, think) in busy {
                let (at, client) = heap.next();
                proptest::prop_assert_eq!((at, client), linear.next());
                let until = at + Ns::from_us(100 * service) + Ns::from_us(250 * think);
                heap.park(client, until);
                linear.0[client] = until;
            }
        }
    }

    #[test]
    fn warmup_excludes_early_samples() {
        let mut system = FixedLatency;
        let mut wl = MixedWorkload::new(tiny_spec(), 2);
        let mut model = ContentModel::new(2, ContentProfile::database());
        let cfg = DriverConfig::new(100).clients(1);
        let s = run_benchmark(&mut system, &mut wl, &mut model, &cfg);
        assert_eq!(s.read_latency.count() + s.write_latency.count(), 90);
    }
}
