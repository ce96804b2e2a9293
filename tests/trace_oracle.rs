//! Trace oracle: the structured event stream is not advisory — its totals
//! must **exactly** equal the counters the systems report through
//! [`SystemReport`]/`RunSummary`/`IcashStats`. A counting-only sink
//! ([`TraceStats`]) tallies every event emitted during a full benchmark
//! run, and each total is diffed against the independently maintained
//! statistics: host requests, SSD reads/programs/erases, HDD operations,
//! injected faults, and (for I-CASH) the controller's hit, bind and log
//! append counters. Any drift between instrumentation and accounting fails
//! here. Queue events and the controller's pipeline and resilience events
//! (staging, group commits, barriers, log cleans, scrubs, repairs,
//! retries) have no second count to reconcile: the trace is theirs, and a
//! run must show them at work in it.
//!
//! [`SystemReport`]: icash::storage::system::SystemReport
//! [`TraceStats`]: icash::storage::trace::TraceStats
//! [`TraceProfile`]: icash::metrics::trace::TraceProfile

use icash::baselines::{DedupCache, LruCache, PureSsd, Raid0};
use icash::core::{Icash, IcashConfig};
use icash::metrics::trace::TraceProfile;
use icash::metrics::RunSummary;
use icash::storage::block::{BlockBuf, Lba};
use icash::storage::cpu::CpuModel;
use icash::storage::fault::{fault_roll, FaultPlan};
use icash::storage::request::{Op, Request};
use icash::storage::system::{IoCtx, StorageSystem, ZeroSource};
use icash::storage::time::Ns;
use icash::storage::trace::{TraceStats, Tracer};
use icash::workloads::content::ContentModel;
use icash::workloads::driver::{run_benchmark, DriverConfig};
use icash::workloads::MixedWorkload;
use std::sync::{Arc, Mutex};

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

/// Op `op` of the direct-drive rows' seeded stream over 2 048 blocks: three
/// in five a write of a tagged block, the rest a read of `read_blocks`.
fn seeded_request(seed: u64, op: u64, read_blocks: u32, at: Ns) -> Request {
    const SPACE: u64 = 2048;
    let roll = fault_roll(seed, 0x5EED, op, 0);
    let lba = roll % SPACE;
    if roll % 5 < 3 {
        let mut v = vec![0xA5u8; 4096];
        v[..8].copy_from_slice(&roll.to_le_bytes());
        Request::write(Lba::new(lba), at, BlockBuf::from_vec(v))
    } else {
        let first = lba.min(SPACE - u64::from(read_blocks));
        Request::read_span(Lba::new(first), read_blocks, at)
    }
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
/// trace totals to equal every count [`IcashStats`] also keeps. The HDD
/// read rate is ten times the others: packed log fetches serve many reads
/// with one HDD read, and a run must still draw retries.
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
    let mut t = Ns::ZERO;
    let (mut reads, mut writes) = (0u64, 0u64);
    for op in 0..2_000u64 {
        let req = seeded_request(0xFA02, op, 1, t);
        t = sys.submit(&req, &mut ctx).finished;
        match req.op {
            Op::Read => reads += 1,
            Op::Write => writes += 1,
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

/// A queued fault-free I-CASH run exercises the HDD's queue: its
/// [`TraceProfile`], attached as the live sink and the one count of queue
/// events, sees admissions, reorders and coalesced commands.
#[test]
fn icash_queued_run_exercises_the_hdd_queue() {
    let mut cfg = IcashConfig::builder(SSD, RAM, 8 << 20)
        .scan_interval(50)
        .scan_window(64)
        .flush_interval(20)
        .build();
    cfg.queue = Some(icash::storage::queue::QueueConfig::depth(8));
    let mut sys = Icash::new(cfg);
    let profile = Arc::new(Mutex::new(TraceProfile::default()));
    sys.set_tracer(Tracer::to_sink(profile.clone()));

    let backing = ZeroSource;
    let mut cpu = CpuModel::xeon();
    let mut ctx = IoCtx::verifying(&backing, &mut cpu);
    let mut t = Ns::ZERO;
    for op in 0..2_000u64 {
        t = sys
            .submit(&seeded_request(SEED, op, 4, t), &mut ctx)
            .finished;
    }
    sys.flush(t, &mut ctx);
    drop(sys);
    let hdd = profile.lock().expect("profile sink").hdd_queue.clone();
    assert!(hdd.admits > 0, "no admissions exercised");
    assert!(hdd.reorders > 0, "no reorders exercised");
    assert!(hdd.coalesced_commands > 0, "no coalescing exercised");
}

/// The write pipeline at `group_commit_depth = 16` with periodic barriers:
/// the trace's log flushes and blocks equal [`IcashStats`]' log appends and
/// blocks written, and the trace — the one count of staging, group commits
/// and barriers — shows every stage of the pipeline at work.
///
/// [`IcashStats`]: icash::core::IcashStats
#[test]
fn icash_pipeline_log_counters_match_trace() {
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
    let mut t = Ns::ZERO;
    for op in 0..4_000u64 {
        t = sys
            .submit(&seeded_request(0x6C01, op, 1, t), &mut ctx)
            .finished;
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

    assert_eq!(trace.log_flushes, stats.flushes, "log flushes");
    assert_eq!(trace.log_blocks, stats.log_blocks_written, "log blocks");

    // The scenario must actually exercise the pipeline, or the equalities
    // above say nothing about it.
    assert!(trace.stage_enters > 0, "nothing staged");
    assert!(trace.group_commits > 0, "nothing group-committed");
    assert!(trace.barrier_waits > 0, "no barrier waited");
    assert!(trace.barrier_noops > 0, "no barrier no-op exercised");
    assert!(
        trace.entries_per_commit() > 1.0,
        "commits carried no batching: {}",
        trace.entries_per_commit()
    );
}
