//! Trace oracle: the structured event stream is not advisory — its totals
//! must **exactly** equal the counters the systems report through
//! [`SystemReport`]/`RunSummary`/`IcashStats`. A counting-only sink
//! ([`TraceStats`]) tallies every event emitted during a full benchmark
//! run, and each total is diffed against the independently maintained
//! statistics: host requests, SSD reads/programs/erases, HDD operations,
//! injected faults, and (for I-CASH) the controller's delta/log/scrub
//! counters. Any drift between instrumentation and accounting fails here.
//!
//! [`SystemReport`]: icash::storage::system::SystemReport
//! [`TraceStats`]: icash::storage::trace::TraceStats

use icash::baselines::{DedupCache, LruCache, PureSsd, Raid0};
use icash::core::{Icash, IcashConfig};
use icash::metrics::RunSummary;
use icash::storage::block::{BlockBuf, Lba};
use icash::storage::cpu::CpuModel;
use icash::storage::fault::{fault_roll, FaultPlan};
use icash::storage::request::Request;
use icash::storage::system::{IoCtx, StorageSystem, ZeroSource};
use icash::storage::time::Ns;
use icash::storage::trace::{TraceStats, Tracer};
use icash::workloads::content::ContentModel;
use icash::workloads::driver::{run_benchmark, DriverConfig};
use icash::workloads::MixedWorkload;

const DATA: u64 = 16 << 20;
const SSD: u64 = 2 << 20;
const RAM: u64 = 512 << 10;
const OPS: u64 = 1_500;
const SEED: u64 = 0x1CA5_4001;

/// The paper's five architectures under the oracle.
fn systems(plan: &FaultPlan) -> Vec<Box<dyn StorageSystem>> {
    vec![
        Box::new(PureSsd::new(DATA).with_fault_plan(plan)),
        Box::new(Raid0::new(DATA, 4).with_fault_plan(plan)),
        Box::new(DedupCache::new(SSD, DATA).with_fault_plan(plan)),
        Box::new(LruCache::new(SSD, DATA).with_fault_plan(plan)),
        Box::new(
            Icash::new(IcashConfig::builder(SSD, RAM, DATA).build()).with_fault_plan(plan.clone()),
        ),
    ]
}

/// Runs the standard mixed benchmark with a counting sink attached and
/// returns the event totals alongside the run's summary.
fn traced_run(mut system: Box<dyn StorageSystem>) -> (TraceStats, RunSummary) {
    let (tracer, counts) = Tracer::counting();
    system.set_tracer(tracer);
    let mut spec = icash::workloads::sysbench::spec();
    spec.data_bytes = DATA;
    spec.ssd_bytes = SSD;
    spec.ram_bytes = RAM;
    let mut workload = MixedWorkload::new(spec, SEED);
    let mut model = ContentModel::new(SEED, icash::workloads::sysbench::spec().profile);
    let cfg = DriverConfig {
        clients: 8,
        ops: OPS,
        warmup_ops: OPS / 10,
        verify: false,
        guest_cache: false,
        cpu: None,
    };
    let summary = run_benchmark(system.as_mut(), &mut workload, &mut model, &cfg);
    drop(system);
    let stats = counts.lock().expect("counting sink").clone();
    (stats, summary)
}

/// Every equality the trace owes the report, for any architecture.
fn check_against_report(t: &TraceStats, s: &RunSummary) {
    let name = &s.system;
    let report = &s.report;
    assert_eq!(t.requests, s.ops, "{name}: request spans vs ops");
    assert_eq!(
        t.read_requests + t.write_requests,
        t.requests,
        "{name}: every span is a read or a write"
    );
    if let Some(ssd) = &report.ssd {
        assert_eq!(t.ssd_reads, ssd.reads, "{name}: ssd reads");
        assert_eq!(t.ssd_programs, ssd.writes, "{name}: ssd programs");
        assert_eq!(t.ssd_programs, s.ssd_writes, "{name}: summary ssd_writes");
    } else {
        assert_eq!(t.ssd_reads + t.ssd_programs, 0, "{name}: no SSD, no events");
    }
    if let Some(gc) = &report.gc {
        assert_eq!(t.ssd_erases, gc.erases, "{name}: flash erases");
        assert_eq!(t.ssd_gc_programs, gc.gc_programs, "{name}: gc programs");
    }
    if let Some(hdd) = &report.hdd {
        assert_eq!(t.hdd_reads, hdd.reads, "{name}: hdd reads");
        assert_eq!(t.hdd_writes, hdd.writes, "{name}: hdd writes");
    } else {
        assert_eq!(t.hdd_reads + t.hdd_writes, 0, "{name}: no HDD, no events");
    }
    let f = &report.faults;
    assert_eq!(t.faults_hdd_read, f.hdd_read_errors, "{name}: hdd faults");
    assert_eq!(
        t.faults_hdd_write, f.hdd_write_errors,
        "{name}: hdd write faults"
    );
    assert_eq!(t.faults_ssd_read, f.ssd_read_errors, "{name}: ssd faults");
    assert_eq!(t.faults_wearout, f.wearout_errors, "{name}: wearout faults");
    assert_eq!(t.faults_remapped, f.sectors_remapped, "{name}: remaps");
}

#[test]
fn totals_match_reports_fault_free() {
    for system in systems(&FaultPlan::none()) {
        let (t, s) = traced_run(system);
        check_against_report(&t, &s);
        assert_eq!(
            t.faults_hdd_read + t.faults_hdd_write + t.faults_ssd_read,
            0,
            "{}: fault-free run emitted fault events",
            s.system
        );
        assert!(t.requests > 0, "{}: no request spans recorded", s.system);
    }
}

#[test]
fn totals_match_reports_under_faults() {
    let plan = FaultPlan::seeded(0xFA11)
        .hdd_read_errors(2e-3)
        .hdd_write_errors(2e-3)
        .ssd_read_errors(2e-3);
    let mut injected = 0u64;
    for system in systems(&plan) {
        let (t, s) = traced_run(system);
        check_against_report(&t, &s);
        injected += t.faults_hdd_read + t.faults_hdd_write + t.faults_ssd_read;
    }
    assert!(injected > 0, "the campaign must actually inject faults");
}

/// The controller-level counters: drive an I-CASH instance directly (no
/// preload, full control of the op stream) under faults aggressive enough
/// to exercise retries, repairs, and the scrub ladder, then require the
/// trace totals to equal [`IcashStats`] field for field. The HDD read rate
/// is ten times the others: packed log fetches serve many reads with one
/// HDD read, and a run must still draw retries.
///
/// [`IcashStats`]: icash::core::IcashStats
#[test]
fn icash_controller_counters_match_trace() {
    let plan = FaultPlan::seeded(0xFA02)
        .hdd_read_errors(1e-2)
        .hdd_write_errors(1e-3)
        .ssd_read_errors(1e-3)
        .scrub_every(97);
    let mut sys = Icash::new(
        IcashConfig::builder(1 << 20, 256 << 10, 8 << 20)
            .scan_interval(50)
            .scan_window(64)
            .flush_interval(20)
            .log_blocks(4096)
            .build(),
    )
    .with_fault_plan(plan);
    let (tracer, counts) = Tracer::counting();
    sys.set_tracer(tracer);

    let backing = ZeroSource;
    let mut cpu = CpuModel::xeon();
    let mut ctx = IoCtx::verifying(&backing, &mut cpu);
    let space = 2048u64;
    let mut t = Ns::ZERO;
    let (mut reads, mut writes) = (0u64, 0u64);
    for op in 0..2_000u64 {
        let roll = fault_roll(0xFA02, 0x5EED, op, 0);
        let lba = roll % space;
        if roll % 5 < 3 {
            let mut v = vec![0xA5u8; 4096];
            v[..8].copy_from_slice(&roll.to_le_bytes());
            let w = Request::write(Lba::new(lba), t, BlockBuf::from_vec(v));
            t = sys.submit(&w, &mut ctx).finished;
            writes += 1;
        } else {
            let r = Request::read(Lba::new(lba), t);
            t = sys.submit(&r, &mut ctx).finished;
            reads += 1;
        }
    }
    t = sys.flush(t, &mut ctx);
    let stats = sys.stats();
    let report = sys.report(t);
    drop(sys);
    let trace = counts.lock().expect("counting sink").clone();

    assert_eq!(trace.read_requests, reads);
    assert_eq!(trace.write_requests, writes);
    assert_eq!(trace.read_requests, stats.reads, "host reads");
    assert_eq!(trace.write_requests, stats.writes, "host writes");
    assert_eq!(trace.ram_hits, stats.ram_hits, "RAM hits");
    assert_eq!(trace.delta_decodes, stats.delta_hits, "delta hits");
    assert_eq!(trace.sig_binds, stats.binds, "signature bindings");
    assert_eq!(trace.log_flushes, stats.flushes, "log flushes");
    assert_eq!(trace.log_blocks, stats.log_blocks_written, "log blocks");
    assert_eq!(trace.log_cleans, stats.log_cleans, "log cleans");
    assert_eq!(trace.scrubs, stats.scrubs, "scrub passes");
    assert_eq!(trace.slot_repairs, stats.slot_repairs, "slot repairs");
    assert_eq!(trace.fault_retries, stats.fault_retries, "fault retries");
    assert_eq!(
        trace.ssd_erases,
        report.gc.as_ref().expect("I-CASH has an SSD").erases,
        "flash erases"
    );

    // The fault rates must actually have exercised the resilience ladder,
    // or the equalities above are vacuous.
    assert!(trace.delta_decodes > 0, "no delta hits exercised");
    assert!(trace.log_flushes > 0, "no flushes exercised");
    assert!(trace.fault_retries > 0, "no retries exercised");
    assert!(trace.scrubs > 0, "no scrubs exercised");
}

/// The queue-event totals: a queued fault-free I-CASH run must emit
/// exactly one `QueueAdmit` per counted admission and agree with the
/// device reports on reorders, coalesces, and peak occupancy.
#[test]
fn icash_queue_counters_match_trace() {
    let mut cfg = IcashConfig::builder(SSD, RAM, 8 << 20)
        .scan_interval(50)
        .scan_window(64)
        .flush_interval(20)
        .build();
    cfg.queue = Some(icash::storage::queue::QueueConfig::depth(8));
    let mut sys = Icash::new(cfg);
    let (tracer, counts) = Tracer::counting();
    sys.set_tracer(tracer);

    let backing = ZeroSource;
    let mut cpu = CpuModel::xeon();
    let mut ctx = IoCtx::verifying(&backing, &mut cpu);
    let space = 2048u64;
    let mut t = Ns::ZERO;
    for op in 0..2_000u64 {
        let roll = fault_roll(SEED, 0x5EED, op, 0);
        let lba = roll % space;
        if roll % 5 < 3 {
            let mut v = vec![0xA5u8; 4096];
            v[..8].copy_from_slice(&roll.to_le_bytes());
            let w = Request::write(Lba::new(lba), t, BlockBuf::from_vec(v));
            t = sys.submit(&w, &mut ctx).finished;
        } else {
            let r = Request::read_span(Lba::new(lba.min(space - 4)), 4, t);
            t = sys.submit(&r, &mut ctx).finished;
        }
    }
    t = sys.flush(t, &mut ctx);
    let report = sys.report(t);
    drop(sys);
    let trace = counts.lock().expect("counting sink").clone();

    let hdd = report.hdd.expect("hdd stats");
    let ssd = report.ssd.expect("ssd stats");
    assert_eq!(
        trace.queue_admits,
        hdd.queue_admits + ssd.queue_admits,
        "queue admissions"
    );
    assert_eq!(
        trace.queue_reorders,
        hdd.queue_reorders + ssd.queue_reorders,
        "queue reorders"
    );
    assert_eq!(
        trace.coalesced_commands,
        hdd.queue_coalesced + ssd.queue_coalesced,
        "coalesced commands"
    );
    assert_eq!(
        trace.queue_depth_max,
        hdd.queue_depth_max.max(ssd.queue_depth_max),
        "peak queue occupancy"
    );
    // The run must actually have exercised the queue machinery, or the
    // equalities above are vacuous.
    assert!(trace.queue_admits > 0, "no admissions exercised");
    assert!(trace.queue_reorders > 0, "no reorders exercised");
    assert!(trace.coalesced_commands > 0, "no coalescing exercised");
}

/// The write-pipeline counters: at `group_commit_depth = 16`, every
/// `StageEnter`/`GroupCommit`/`Barrier` event in the trace must reconcile
/// field for field with [`IcashStats`], the pipeline counters' one copy.
///
/// [`IcashStats`]: icash::core::IcashStats
#[test]
fn icash_pipeline_counters_match_trace() {
    let mut sys = Icash::new(
        IcashConfig::builder(1 << 20, 256 << 10, 8 << 20)
            .scan_interval(50)
            .scan_window(64)
            .flush_interval(20)
            .log_blocks(4096)
            .group_commit_depth(16)
            .build(),
    );
    let (tracer, counts) = Tracer::counting();
    sys.set_tracer(tracer);

    let backing = ZeroSource;
    let mut cpu = CpuModel::xeon();
    let mut ctx = IoCtx::verifying(&backing, &mut cpu);
    let space = 2048u64;
    let mut t = Ns::ZERO;
    for op in 0..4_000u64 {
        let roll = fault_roll(0x6C01, 0x5EED, op, 0);
        let lba = roll % space;
        if roll % 5 < 3 {
            let mut v = vec![0xA5u8; 4096];
            v[..8].copy_from_slice(&roll.to_le_bytes());
            let w = Request::write(Lba::new(lba), t, BlockBuf::from_vec(v));
            t = sys.submit(&w, &mut ctx).finished;
        } else {
            let r = Request::read(Lba::new(lba), t);
            t = sys.submit(&r, &mut ctx).finished;
        }
        if op % 1_000 == 999 {
            // Periodic durability barriers: some wait, some are no-ops.
            t = sys.await_flush(sys.write_ticket(), t, &mut ctx);
            t = sys.sync(t, &mut ctx);
        }
    }
    sys.flush(t, &mut ctx);
    let stats = sys.stats();
    drop(sys);
    let trace = counts.lock().expect("counting sink").clone();

    assert_eq!(trace.stage_enters, stats.staged_entries, "staged entries");
    assert_eq!(trace.group_commits, stats.group_commits, "group commits");
    assert_eq!(
        trace.group_commit_entries, stats.group_commit_entries,
        "entries per commit numerator"
    );
    assert_eq!(
        trace.group_commit_bytes, stats.group_commit_bytes,
        "group-commit payload bytes"
    );
    assert_eq!(trace.barrier_waits, stats.barrier_waits, "barrier waits");
    assert_eq!(trace.barrier_noops, stats.barrier_noops, "barrier no-ops");
    assert_eq!(trace.log_flushes, stats.flushes, "log flushes");
    assert_eq!(trace.log_blocks, stats.log_blocks_written, "log blocks");

    // The scenario must actually exercise the pipeline, or every equality
    // above is vacuous.
    assert!(trace.stage_enters > 0, "nothing staged");
    assert!(trace.group_commits > 0, "nothing group-committed");
    assert!(trace.barrier_waits > 0, "no barrier waited");
    assert!(trace.barrier_noops > 0, "no barrier no-op exercised");
    assert!(
        stats.entries_per_commit() > 1.0,
        "commits carried no batching: {}",
        stats.entries_per_commit()
    );
}
