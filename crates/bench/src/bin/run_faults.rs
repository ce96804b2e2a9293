//! The fault-injection campaign: every architecture under seeded media
//! faults, plus I-CASH under crash/torn-write recovery, with an oracle
//! asserting **zero silent corruption** — a read either returns a valid
//! version of the block or reports a media error; it never returns a
//! splice or another block's bytes.
//!
//! Grid (all cells deterministic in their seed):
//!
//! * non-crash: 5 systems x 5 fault rates x 4 seeds = 100 cells
//! * crash:     I-CASH x 5 fault rates x 3 crash points x 4 seeds = 60 cells
//!
//! Exits nonzero (after printing every violation) if any cell observes a
//! mismatch without a reported error. A panic anywhere is also a failure —
//! the whole point of the robustness work is that injected faults degrade
//! service, not crash the stack.

//! With `--trace <path>` (or `ICASH_TRACE`), every cell additionally
//! records its structured event stream; the cells are concatenated into
//! one multi-cell JSONL artifact readable by `trace_profile`.
//!
//! With `ICASH_GROUP_COMMIT=<depth>` the I-CASH cells run the staged
//! write pipeline at that depth, and every I-CASH cell additionally
//! exercises the ticket barrier API (`await_flush`/`sync`) under faults
//! and across crash recovery. Default 1: byte-identical to the classic
//! synchronous campaign.

use icash_baselines::{DedupCache, LruCache, PureSsd, Raid0};
use icash_bench::harness::attach_jsonl;
use icash_bench::RunConfig;
use icash_core::{Icash, IcashConfig};
use icash_storage::block::{BlockBuf, Lba};
use icash_storage::cpu::CpuModel;
use icash_storage::fault::{fault_roll, FaultPlan, FaultStats};
use icash_storage::request::Request;
use icash_storage::system::{IoCtx, StorageSystem, ZeroSource};
use icash_storage::time::Ns;
use std::collections::HashMap;

/// Logical block space each cell works over.
const SPACE: u64 = 2048;
/// Operations per non-crash cell.
const OPS: u64 = 400;
/// Write history length per crash cell (the crash lands mid-history).
const CRASH_OPS: u64 = 300;
/// Data-set / cache sizing shared by every cell.
const DATA_BYTES: u64 = 8 << 20;
const SSD_BYTES: u64 = 1 << 20;
const RAM_BYTES: u64 = 256 << 10;

/// Injected-fault rates swept per device operation.
const RATES: [f64; 5] = [0.0, 1e-4, 5e-4, 1e-3, 1e-2];
/// Campaign seeds.
const SEEDS: [u64; 4] = [0xFA01, 0xFA02, 0xFA03, 0xFA04];
/// Crash points as a fraction of the write history.
const CRASH_AT: [f64; 3] = [0.25, 0.5, 0.75];

/// The content of version `ver` of block `lba`: shares a common base (so
/// I-CASH forms references and deltas) but carries a unique 8-byte tag (so
/// any cross-version or cross-block splice is detectable).
fn version_content(lba: u64, ver: u32) -> BlockBuf {
    let mut v = vec![0xA5u8; 4096];
    let tag = fault_roll(lba, 0x7A6, ver as u64, 0);
    v[..8].copy_from_slice(&tag.to_le_bytes());
    v[100] = (lba % 251) as u8;
    v[2000] = (ver % 251) as u8;
    BlockBuf::from_vec(v)
}

fn plan_for(seed: u64, rate: f64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .hdd_read_errors(rate)
        .hdd_write_errors(rate)
        .ssd_read_errors(rate)
}

fn build_system(kind: usize, plan: &FaultPlan, depth: u64) -> Box<dyn StorageSystem> {
    match kind {
        0 => Box::new(PureSsd::new(DATA_BYTES).with_fault_plan(plan)),
        1 => Box::new(Raid0::new(DATA_BYTES, 4).with_fault_plan(plan)),
        2 => Box::new(DedupCache::new(SSD_BYTES, DATA_BYTES).with_fault_plan(plan)),
        3 => Box::new(LruCache::new(SSD_BYTES, DATA_BYTES).with_fault_plan(plan)),
        _ => Box::new(build_icash(plan.clone(), depth)),
    }
}

fn build_icash(plan: FaultPlan, depth: u64) -> Icash {
    Icash::new(
        IcashConfig::builder(SSD_BYTES, RAM_BYTES, DATA_BYTES)
            .scan_interval(50)
            .scan_window(64)
            .flush_interval(20)
            .log_blocks(4096)
            .group_commit_depth(depth)
            .build(),
    )
    .with_fault_plan(plan.scrub_every(97))
}

/// Outcome of one campaign cell.
#[derive(Debug, Default)]
struct CellResult {
    reads: u64,
    reported_errors: u64,
    violations: Vec<String>,
}

/// Checks one read completion against the acceptable versions. Errored
/// reads are fine (the contract is *no silent* corruption); data reads
/// must match one of the versions the history allows.
fn check_read(
    name: &str,
    lba: u64,
    completion: &icash_storage::request::Completion,
    acceptable: &[BlockBuf],
    out: &mut CellResult,
) {
    out.reads += 1;
    if completion.failed(Lba::new(lba)) {
        out.reported_errors += 1;
        return;
    }
    let got = &completion.data[0];
    if !acceptable.iter().any(|want| want == got) {
        out.violations.push(format!(
            "{name}: lba {lba} returned bytes matching none of the {} acceptable versions",
            acceptable.len()
        ));
    }
}

/// One non-crash cell: mixed traffic, every read checked against the
/// latest version (strict oracle: reads must be current or errored).
fn run_plain_cell(name: &str, sys: &mut dyn StorageSystem, seed: u64, depth: u64) -> CellResult {
    let backing = ZeroSource;
    let mut cpu = CpuModel::xeon();
    let mut ctx = IoCtx::verifying(&backing, &mut cpu);
    let mut latest: HashMap<u64, BlockBuf> = HashMap::new();
    let mut vers: HashMap<u64, u32> = HashMap::new();
    let mut out = CellResult::default();
    let mut t = Ns::ZERO;
    for op in 0..OPS {
        let roll = fault_roll(seed, 0x5EED, op, 0);
        let lba = roll % SPACE;
        if roll % 5 < 3 {
            let ver = vers.entry(lba).or_insert(0);
            *ver += 1;
            let content = version_content(lba, *ver);
            latest.insert(lba, content.clone());
            let w = Request::write(Lba::new(lba), t, content);
            t = sys.submit(&w, &mut ctx).finished;
        } else {
            let r = Request::read(Lba::new(lba), t);
            let c = sys.submit(&r, &mut ctx);
            t = c.finished;
            let want = latest.get(&lba).cloned().unwrap_or_else(BlockBuf::zeroed);
            check_read(name, lba, &c, std::slice::from_ref(&want), &mut out);
        }
    }
    // With the staged pipeline engaged, exercise the ticket barrier under
    // injected faults before the verification sweep: the durability
    // watermark must catch the acceptance watermark even when device ops
    // are erroring. Gated on depth so the default campaign (depth 1) stays
    // byte-identical to the pre-pipeline golden output.
    if depth > 1 {
        let accepted = sys.write_ticket();
        t = sys.await_flush(accepted, t, &mut ctx);
        assert!(
            sys.flushed_ticket() >= accepted,
            "{name}: barrier returned with tickets still in flight"
        );
    }
    t = sys.flush(t, &mut ctx);
    let mut touched: Vec<u64> = latest.keys().copied().collect();
    touched.sort_unstable();
    for lba in touched {
        let r = Request::read(Lba::new(lba), t);
        let c = sys.submit(&r, &mut ctx);
        t = c.finished;
        check_read(name, lba, &c, std::slice::from_ref(&latest[&lba]), &mut out);
    }
    out
}

/// One crash cell: a write history torn at a seeded crash point; after
/// recovery every block must read back as *some* version of its own
/// history (never a splice), and post-recovery writes behave normally.
fn run_crash_cell(
    seed: u64,
    rate: f64,
    crash_frac: f64,
    traced: bool,
    depth: u64,
) -> (CellResult, String) {
    let name = "I-CASH(crash)";
    let plan = plan_for(seed, rate).torn_writes();
    let mut sys = build_icash(plan, depth);
    let sink = traced.then(|| attach_jsonl(&mut sys));
    let backing = ZeroSource;
    let mut cpu = CpuModel::xeon();
    let mut ctx = IoCtx::verifying(&backing, &mut cpu);
    let mut history: HashMap<u64, Vec<BlockBuf>> = HashMap::new();
    let mut vers: HashMap<u64, u32> = HashMap::new();
    let mut out = CellResult::default();
    let mut t = Ns::ZERO;
    let crash_at = (CRASH_OPS as f64 * crash_frac) as u64;
    for op in 0..crash_at {
        let roll = fault_roll(seed, 0xC4A5, op, 0);
        let lba = roll % SPACE;
        let ver = vers.entry(lba).or_insert(0);
        *ver += 1;
        let content = version_content(lba, *ver);
        history
            .entry(lba)
            .or_insert_with(|| vec![BlockBuf::zeroed()])
            .push(content.clone());
        let w = Request::write(Lba::new(lba), t, content);
        t = sys.submit(&w, &mut ctx).finished;
        // Mid-history barrier with tickets in flight: the crash below then
        // lands with the staging buffer partially drained, covering the
        // torn-group-commit recovery path. Depth-gated for byte-identity.
        if depth > 1 && op == crash_at / 2 {
            t = sys.sync(t, &mut ctx);
        }
    }
    let mut sys = sys.crash_and_recover();
    let mut touched: Vec<u64> = history.keys().copied().collect();
    touched.sort_unstable();
    for lba in &touched {
        let r = Request::read(Lba::new(*lba), t);
        let c = sys.submit(&r, &mut ctx);
        t = c.finished;
        check_read(name, *lba, &c, &history[lba], &mut out);
    }
    // Post-recovery service: fresh writes must read back exactly.
    for op in 0..50u64 {
        let roll = fault_roll(seed, 0xAF7E, op, 0);
        let lba = roll % SPACE;
        let ver = vers.entry(lba).or_insert(0);
        *ver += 1;
        let content = version_content(lba, *ver);
        let w = Request::write(Lba::new(lba), t, content.clone());
        t = sys.submit(&w, &mut ctx).finished;
        let r = Request::read(Lba::new(lba), t);
        let c = sys.submit(&r, &mut ctx);
        t = c.finished;
        check_read(name, lba, &c, std::slice::from_ref(&content), &mut out);
    }
    // Post-recovery full barrier: recovery must leave the pipeline in a
    // state where sync still drains cleanly.
    if depth > 1 {
        let _ = sys.sync(t, &mut ctx);
        assert_eq!(
            sys.flushed_ticket(),
            sys.write_ticket(),
            "{name}: sync left tickets in flight after recovery"
        );
    }
    drop(sys);
    let text = sink
        .map(|s| s.lock().expect("trace sink").take_text())
        .unwrap_or_default();
    (out, text)
}

fn main() {
    let names = ["FusionIO", "RAID0", "Dedup", "LRU", "I-CASH"];
    let cfg = RunConfig::from_env();
    let depth = cfg.features.group_commit_depth;
    let traced = cfg.trace.is_some();
    let mut trace_doc = String::new();
    let mut cells = 0u64;
    let mut reads = 0u64;
    let mut reported = 0u64;
    let mut injected = FaultStats::default();
    let mut violations: Vec<String> = Vec::new();

    for (kind, name) in names.iter().enumerate() {
        for &rate in &RATES {
            for &seed in &SEEDS {
                let plan = plan_for(seed, rate);
                let mut sys = build_system(kind, &plan, depth);
                let sink = traced.then(|| attach_jsonl(sys.as_mut()));
                let r = run_plain_cell(name, sys.as_mut(), seed, depth);
                injected.merge(&sys.report(Ns::from_ms(1)).faults);
                drop(sys);
                if let Some(sink) = sink {
                    trace_doc.push_str(&format!(
                        "{{\"cell\":{{\"workload\":\"faults r{rate} s{seed:#x}\",\"system\":\"{name}\"}}}}\n"
                    ));
                    trace_doc.push_str(&sink.lock().expect("trace sink").take_text());
                }
                cells += 1;
                reads += r.reads;
                reported += r.reported_errors;
                violations.extend(r.violations);
            }
        }
    }
    for &rate in &RATES {
        for &frac in &CRASH_AT {
            for &seed in &SEEDS {
                let (r, text) = run_crash_cell(seed, rate, frac, traced, depth);
                if traced {
                    trace_doc.push_str(&format!(
                        "{{\"cell\":{{\"workload\":\"crash r{rate} f{frac} s{seed:#x}\",\"system\":\"I-CASH\"}}}}\n"
                    ));
                    trace_doc.push_str(&text);
                }
                cells += 1;
                reads += r.reads;
                reported += r.reported_errors;
                violations.extend(r.violations);
            }
        }
    }
    if let Some(path) = &cfg.trace {
        match std::fs::write(path, &trace_doc) {
            Ok(()) => eprintln!("trace written to {}", path.display()),
            Err(err) => eprintln!("failed to write trace {}: {err}", path.display()),
        }
    }

    println!(
        "fault campaign: {cells} cells, {reads} verified reads, \
         {reported} reads reported as media errors"
    );
    println!(
        "injected: {} hdd read, {} hdd write, {} ssd read errors; {} sectors remapped",
        injected.hdd_read_errors,
        injected.hdd_write_errors,
        injected.ssd_read_errors,
        injected.sectors_remapped
    );
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("SILENT CORRUPTION: {v}");
        }
        eprintln!("{} violation(s)", violations.len());
        std::process::exit(1);
    }
    assert!(
        injected.hdd_read_errors + injected.ssd_read_errors > 0,
        "the campaign must actually inject faults"
    );
    println!("FAULT CAMPAIGN OK");
}
