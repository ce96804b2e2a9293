//! Differential guard: arming an *inert* feature must be a perfect no-op.
//! Every architecture's full JSON run report — timings, energy, device
//! counters, controller stats — must be bit-identical
//!
//! * with and without a disabled `FaultPlan::none()` installed, so the
//!   fault subsystem provably costs nothing (and changes nothing) when
//!   switched off, and
//! * with a counting sink attached and with no tracer at all, so
//!   observability provably costs nothing *inside* the simulation. (The
//!   companion guard, `crates/bench/tests/trace_determinism.rs`, holds the
//!   emitted event stream itself stable across worker-thread counts.)

use icash::baselines::{DedupCache, LruCache, PlainHdd, PureSsd, Raid0};
use icash::core::{Icash, IcashConfig};
use icash::storage::fault::FaultPlan;
use icash::storage::system::StorageSystem;
use icash::storage::trace::Tracer;
use icash::workloads::content::ContentModel;
use icash::workloads::driver::{run_benchmark, DriverConfig};
use icash::workloads::MixedWorkload;

const DATA: u64 = 16 << 20;
const SSD: u64 = 2 << 20;
const RAM: u64 = 512 << 10;
const OPS: u64 = 1_500;
const SEED: u64 = 0x1CA5_4001;

type Build = fn() -> Box<dyn StorageSystem>;

fn icash_cfg() -> IcashConfig {
    IcashConfig::builder(SSD, RAM, DATA).build()
}

/// Every architecture: its name, the plain build, and the same build with
/// the disabled fault plan armed.
const SYSTEMS: [(&str, Build, Build); 6] = [
    (
        "FusionIO",
        || Box::new(PureSsd::new(DATA)),
        || Box::new(PureSsd::new(DATA).with_fault_plan(&FaultPlan::none())),
    ),
    (
        "RAID0",
        || Box::new(Raid0::new(DATA, 4)),
        || Box::new(Raid0::new(DATA, 4).with_fault_plan(&FaultPlan::none())),
    ),
    (
        "Dedup",
        || Box::new(DedupCache::new(SSD, DATA)),
        || Box::new(DedupCache::new(SSD, DATA).with_fault_plan(&FaultPlan::none())),
    ),
    (
        "LRU",
        || Box::new(LruCache::new(SSD, DATA)),
        || Box::new(LruCache::new(SSD, DATA).with_fault_plan(&FaultPlan::none())),
    ),
    (
        "HDD",
        || Box::new(PlainHdd::new(DATA)),
        || Box::new(PlainHdd::new(DATA).with_fault_plan(&FaultPlan::none())),
    ),
    (
        "I-CASH",
        || Box::new(Icash::new(icash_cfg())),
        || Box::new(Icash::new(icash_cfg()).with_fault_plan(FaultPlan::none())),
    ),
];

/// The fixed SysBench-shaped run; `traced` attaches a counting sink first.
fn run_one(mut system: Box<dyn StorageSystem>, traced: bool) -> String {
    let counts = traced.then(|| {
        let (tracer, counts) = Tracer::counting();
        system.set_tracer(tracer);
        counts
    });
    let mut spec = icash::workloads::sysbench::spec();
    spec.data_bytes = DATA;
    spec.ssd_bytes = SSD;
    spec.ram_bytes = RAM;
    let mut workload = MixedWorkload::new(spec, SEED);
    let mut model = ContentModel::new(SEED, icash::workloads::sysbench::spec().profile);
    let cfg = DriverConfig::new(OPS).clients(8);
    let json = run_benchmark(system.as_mut(), &mut workload, &mut model, &cfg).to_json();
    if let Some(counts) = counts {
        assert!(
            counts.lock().expect("counting sink").requests > 0,
            "the traced run must actually emit events"
        );
    }
    json
}

#[test]
fn disabled_fault_plan_is_bit_identical_for_every_system() {
    for (name, plain, armed) in SYSTEMS {
        let baseline = run_one(plain(), false);
        assert_eq!(
            baseline,
            run_one(armed(), false),
            "{name}: FaultPlan::none() changed the run report"
        );
        assert!(
            baseline.contains("\"faults\""),
            "{name}: report must expose fault counters"
        );
    }
}

#[test]
fn attached_tracer_is_bit_identical_for_every_system() {
    for (name, plain, _) in SYSTEMS {
        assert_eq!(
            run_one(plain(), false),
            run_one(plain(), true),
            "{name}: attaching a tracer changed the run report"
        );
    }
}
