//! The scenario engine: campaign-level workload drivers.
//!
//! The base benchmarks ([`run_benchmark`](crate::driver::run_benchmark))
//! are stationary and closed-loop. This module layers three scenario
//! drivers on top, all on the same seeded virtual-time contract:
//!
//! * **Block-trace replay** — [`replay`](crate::replay) parses
//!   MSR-Cambridge-style CSV into a workload the closed-loop driver pushes
//!   through with the seeded content overlay.
//! * **Open-loop arrivals** — [`run_open_loop`] dispatches a deterministic
//!   [`ArrivalProcess`] schedule (diurnal sine, flash-crowd bursts);
//!   requests arrive whether or not a client is free, so queueing time
//!   becomes a real, measured quantity
//!   (emitted as `OpenLoopArrival` trace events).
//! * **Tenant-churn storms** — [`ChurnStorm`] scales
//!   [`MultiVm`] fleets with thousands of seeded VM
//!   create/clone/destroy events while the benchmark runs.
//!
//! Everything here is deterministic from `(config, seed)`: no wall clock,
//! no host randomness, byte-identical reports across thread counts.

#![deny(clippy::unwrap_used)]

use crate::arrivals::{ArrivalConfig, ArrivalProcess};
use crate::content::ContentModel;
use crate::driver::{ReadyClients, Session};
use crate::spec::WorkloadSpec;
use crate::vm::MultiVm;
use crate::workload::Workload;
use icash_metrics::summary::RunSummary;
use icash_storage::cpu::CpuModel;
use icash_storage::system::{IoCtx, StorageSystem};
use icash_storage::time::Ns;
use icash_storage::trace::{TraceEvent, TraceKind, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The shape of an open-loop arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalShape {
    /// Constant mean rate with exponential jitter.
    Stationary,
    /// Day/night sine swing over the run.
    Diurnal,
    /// Diurnal swing plus periodic flash-crowd bursts.
    Burst,
}

impl ArrivalShape {
    /// Every shape, in campaign order.
    pub const ALL: [ArrivalShape; 3] = [
        ArrivalShape::Stationary,
        ArrivalShape::Diurnal,
        ArrivalShape::Burst,
    ];

    /// The shape's name, as campaign cells are labelled with it.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalShape::Stationary => "stationary",
            ArrivalShape::Diurnal => "diurnal",
            ArrivalShape::Burst => "burst",
        }
    }

    /// The canonical [`ArrivalConfig`] for this shape around `base_gap`.
    /// Periods are multiples of the gap so a few-hundred-op run still
    /// sweeps full day/night cycles and several burst windows.
    pub fn config(&self, base_gap: Ns) -> ArrivalConfig {
        let cfg = ArrivalConfig::stationary(base_gap);
        match self {
            ArrivalShape::Stationary => cfg,
            ArrivalShape::Diurnal => cfg.with_diurnal(0.9, base_gap * 256),
            ArrivalShape::Burst => cfg.with_diurnal(0.9, base_gap * 256).with_burst(
                base_gap * 512,
                base_gap * 64,
                16.0,
            ),
        }
    }
}

/// Parameters of one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// The arrival process to dispatch.
    pub arrival: ArrivalConfig,
    /// Service slots: how many requests may be in flight at once. Unlike
    /// the closed loop, arrivals do not wait for a slot to *schedule* —
    /// only to start service, and the difference is the queued time.
    pub clients: u32,
    /// Total arrivals to dispatch.
    pub ops: u64,
    /// Arrivals excluded from latency statistics.
    pub warmup_ops: u64,
    /// Seed for the arrival schedule.
    pub seed: u64,
}

impl OpenLoopConfig {
    /// `ops` arrivals over `arrival`, 16 service slots, 10 % warmup.
    pub fn new(arrival: ArrivalConfig, ops: u64, seed: u64) -> Self {
        OpenLoopConfig {
            arrival,
            clients: 16,
            ops,
            warmup_ops: ops / 10,
            seed,
        }
    }
}

/// Runs `workload` open-loop against `system`: the arrival schedule, not
/// request completion, decides when each operation is issued. Think and
/// app-CPU times from the workload are ignored — pacing belongs to the
/// arrival process here. Latency is measured from the *scheduled arrival*
/// (so it includes queued time), which is what makes overload visible.
///
/// Every dispatch emits a [`TraceKind::OpenLoopArrival`] through `tracer`
/// carrying its queued time: a counting sink on `tracer` is where the
/// arrivals, the queued total and the arrivals that waited are read.
pub fn run_open_loop(
    system: &mut dyn StorageSystem,
    workload: &mut dyn Workload,
    model: &mut ContentModel,
    cfg: &OpenLoopConfig,
    tracer: &Tracer,
) -> RunSummary {
    let mut run = Session::open(system, workload, model, CpuModel::xeon(), cfg.warmup_ops);
    let mut free = ReadyClients::new(cfg.clients);

    // Generation order is dispatch order: the schedule comes out sorted by
    // (time, id) — monotone instants, sequential ids, which the arrival
    // proptests pin.
    let mut process = ArrivalProcess::new(cfg.arrival.clone(), cfg.seed);
    for arrival in process.take(cfg.ops) {
        let wop = workload.next_op();
        // Earliest-free service slot; the arrival never waits to be
        // *scheduled*, only to start service.
        let (free_at, client) = free.next();
        let start = arrival.at.max(free_at);
        let queued = start - arrival.at;
        tracer.emit(|| TraceEvent {
            at: arrival.at,
            kind: TraceKind::OpenLoopArrival {
                seq: arrival.id,
                lba: wop.lba.raw(),
                queued: queued.as_ns(),
            },
        });

        let req = Session::request(model, &wop, start);
        let completion = system.submit(&req, &mut IoCtx::new(&*model, &mut run.cpu));
        free.park(client, completion.finished);
        // Response time from the scheduled arrival: queueing included.
        let latency = completion.finished - arrival.at;
        run.record(wop.op, arrival.at, latency, completion.finished);
    }
    run.close(system, workload, model)
}

/// Parameters of a tenant-churn storm.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// VMs booted before the run starts.
    pub initial_vms: u8,
    /// Hard cap on live VMs (≤ 255: the LBA tag is one byte).
    pub max_live: usize,
    /// Total churn events to apply over the run.
    pub events: u64,
    /// Operations between consecutive events.
    pub ops_per_event: u64,
}

/// What a storm actually did, for campaign assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// VMs booted with a fresh spec.
    pub created: u64,
    /// VMs cloned from a live image (shared content lineage).
    pub cloned: u64,
    /// VMs destroyed.
    pub destroyed: u64,
    /// Events applied in total.
    pub applied: u64,
    /// Most VMs ever live at once.
    pub peak_live: usize,
}

/// A [`MultiVm`] fleet under a seeded create/clone/destroy storm: every
/// `ops_per_event` operations one weighted churn event fires, clones
/// favoured (cloud fleets grow by cloning images — the redundancy I-CASH
/// mines), until `events` have been applied. Fully deterministic from the
/// seed; the fleet never drains below one VM or grows past `max_live`.
#[derive(Debug)]
pub struct ChurnStorm {
    fleet: MultiVm,
    template: WorkloadSpec,
    cfg: ChurnConfig,
    rng: StdRng,
    ops_since_event: u64,
    stats: ChurnStats,
}

impl ChurnStorm {
    /// Builds a storm over an initial homogeneous fleet of
    /// `cfg.initial_vms` clones of `template`.
    ///
    /// # Panics
    ///
    /// Panics when the cap is outside `initial_vms..=255` or no events
    /// are requested.
    pub fn new(template: WorkloadSpec, cfg: ChurnConfig, seed: u64) -> Self {
        assert!(
            (cfg.initial_vms as usize..=255).contains(&cfg.max_live),
            "max_live must be in initial_vms..=255"
        );
        assert!(cfg.events > 0, "a storm needs at least one event");
        let t = template.clone();
        let fleet = MultiVm::homogeneous(cfg.initial_vms, seed, move |i| (t.clone(), i as u64));
        let mut storm = ChurnStorm {
            fleet,
            template,
            cfg,
            rng: StdRng::seed_from_u64(seed ^ 0x00C0_FFEE),
            ops_since_event: 0,
            stats: ChurnStats::default(),
        };
        storm.stats.peak_live = storm.fleet.vm_count();
        storm
    }

    /// The storm's tallies so far.
    pub fn stats(&self) -> &ChurnStats {
        &self.stats
    }

    /// Live VMs right now.
    pub fn live(&self) -> usize {
        self.fleet.vm_count()
    }

    /// Applies one weighted churn event: clone (50 %), create (20 %),
    /// destroy (30 %), with the guards that keep the fleet in
    /// `1..=max_live`.
    fn churn_once(&mut self) {
        let roll = self.rng.random_range(0u32..10);
        let seed = self.rng.random::<u64>();
        let live = self.fleet.vm_count();
        if roll < 5 && live < self.cfg.max_live {
            let ids = self.fleet.live_ids();
            let src = ids[self.rng.random_range(0..ids.len())];
            if self.fleet.clone_vm(src, seed).is_some() {
                self.stats.cloned += 1;
            }
        } else if roll < 7 && live < self.cfg.max_live {
            if self.fleet.create_vm(self.template.clone(), seed).is_some() {
                self.stats.created += 1;
            }
        } else if live > 1 {
            let ids = self.fleet.live_ids();
            let victim = ids[self.rng.random_range(0..ids.len())];
            if self.fleet.destroy_vm(victim) {
                self.stats.destroyed += 1;
            }
        }
        self.stats.applied += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.fleet.vm_count());
    }
}

impl Workload for ChurnStorm {
    fn spec(&self) -> &WorkloadSpec {
        self.fleet.spec()
    }

    fn address_universe(&self) -> Vec<(u8, u64)> {
        self.fleet.address_universe()
    }

    fn next_op(&mut self) -> crate::workload::WorkloadOp {
        if self.stats.applied < self.cfg.events {
            self.ops_since_event += 1;
            if self.ops_since_event >= self.cfg.ops_per_event {
                self.ops_since_event = 0;
                self.churn_once();
            }
        }
        self.fleet.next_op()
    }
}

/// The canonical campaign storm: five VMs of a shrunken TPC-C image under
/// thousands of churn events (one per operation, capped at `events`),
/// fleet capped at 64 live VMs.
pub fn churn_storm(seed: u64, events: u64) -> ChurnStorm {
    let mut template = crate::tpcc::spec();
    // Small per-VM images keep the storm fast while the fleet scales; the
    // SSD/RAM budget shrinks with them so caching stays a real contest.
    template.data_bytes = 16 << 20;
    template.ssd_bytes = 8 << 20;
    template.ram_bytes = 8 << 20;
    template.active_fraction = 0.5;
    ChurnStorm::new(
        template,
        ChurnConfig {
            initial_vms: 5,
            max_live: 64,
            events: events.max(1),
            ops_per_event: 1,
        },
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::ContentProfile;
    use crate::workload::MixedWorkload;
    use icash_storage::request::{Completion, Request};
    use icash_storage::system::SystemReport;
    use icash_storage::trace::TraceStats;

    /// A fixed-latency system: service takes 100 µs per request.
    #[derive(Debug)]
    struct Fixed;
    impl StorageSystem for Fixed {
        fn name(&self) -> &str {
            "Fixed"
        }
        fn submit(&mut self, req: &Request, _ctx: &mut IoCtx<'_>) -> Completion {
            Completion::at(req.at + Ns::from_us(100))
        }
        fn report(&self, _elapsed: Ns) -> SystemReport {
            SystemReport {
                name: "Fixed".into(),
                ..SystemReport::default()
            }
        }
    }

    fn small_workload(seed: u64) -> MixedWorkload {
        let mut spec = crate::tpcc::spec();
        spec.data_bytes = 16 << 20;
        MixedWorkload::new(spec, seed)
    }

    /// Runs 200 unjittered arrivals `gap_us` apart against one 100 µs
    /// service slot; returns the counting sink's totals.
    fn open_loop_trace(gap_us: u64) -> TraceStats {
        let mut cfg = OpenLoopConfig::new(
            ArrivalConfig {
                base_gap: Ns::from_us(gap_us),
                diurnal: None,
                burst: None,
                jitter: false,
            },
            200,
            9,
        );
        cfg.clients = 1;
        let mut wl = small_workload(9);
        let mut model = ContentModel::new(9, ContentProfile::database());
        let (tracer, counts) = Tracer::counting();
        let summary = run_open_loop(&mut Fixed, &mut wl, &mut model, &cfg, &tracer);
        let c = counts.lock().expect("sink").clone();
        assert_eq!(summary.ops, 200);
        assert_eq!(c.open_loop_arrivals, 200, "one trace event per arrival");
        c
    }

    #[test]
    fn overload_queues_and_underload_does_not() {
        // Arrivals every 50 µs overload the slot (gaps < service), every
        // 400 µs underload it.
        let overloaded = open_loop_trace(50);
        let underloaded = open_loop_trace(400);
        assert!(overloaded.open_loop_waits > 150, "overload must queue");
        assert!(overloaded.open_loop_queued > Ns::ZERO);
        assert_eq!(
            underloaded.open_loop_queued,
            Ns::ZERO,
            "underload must not queue"
        );
        assert_eq!(underloaded.open_loop_waits, 0);
    }

    #[test]
    fn open_loop_is_deterministic() {
        let run = || {
            let mut wl = small_workload(3);
            let mut model = ContentModel::new(3, ContentProfile::database());
            let cfg = OpenLoopConfig::new(ArrivalShape::Burst.config(Ns::from_us(100)), 300, 3);
            let (tracer, counts) = Tracer::counting();
            let s = run_open_loop(&mut Fixed, &mut wl, &mut model, &cfg, &tracer);
            let c = counts.lock().expect("sink").clone();
            (s.elapsed, s.read_latency, s.write_latency, c)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn storm_applies_thousands_of_events_within_the_cap() {
        let mut storm = churn_storm(11, 2_000);
        for _ in 0..3_000 {
            let op = storm.next_op();
            assert!(op.lba.vm_id() >= 1, "every op carries a live VM tag");
        }
        let s = *storm.stats();
        assert_eq!(s.applied, 2_000, "the storm ran its full event budget");
        assert!(s.cloned > 0 && s.created > 0 && s.destroyed > 0);
        assert!(s.peak_live > 5, "the fleet grew past its initial size");
        assert!(s.peak_live <= 64, "and never past the cap");
        assert!(storm.live() >= 1);
    }

    #[test]
    fn storm_is_deterministic() {
        let run = || {
            let mut storm = churn_storm(4, 500);
            let ops: Vec<_> = (0..800).map(|_| storm.next_op()).collect();
            (ops, *storm.stats())
        };
        assert_eq!(run(), run());
    }
}
