//! The fault-injection campaign, row `campaign_faults`: every architecture
//! under seeded media faults, plus I-CASH under crash/torn-write recovery,
//! with an oracle asserting **zero silent corruption** — a read either
//! returns a valid version of the block or reports a media error; it never
//! returns a splice or another block's bytes.
//!
//! Grid (all cells deterministic in their seed):
//!
//! * non-crash: 5 systems x 5 fault rates x 4 seeds = 100 cells
//! * crash:     I-CASH x 5 fault rates x 3 crash points x 4 seeds = 60 cells
//!
//! Fails (after printing every violation) if any cell observes a mismatch
//! without a reported error, or if the campaign injected no read fault. A
//! panic anywhere is also a failure — the whole point of the robustness
//! work is that injected faults degrade service, not crash the stack.
//!
//! With `--trace <path>`, every cell additionally records its structured
//! event stream; the cells are concatenated into one multi-cell JSONL
//! artifact readable by `trace_profile`.
//!
//! With `ICASH_GROUP_COMMIT=<depth>` the I-CASH cells run the staged
//! write pipeline at that depth, and every I-CASH cell additionally
//! exercises the ticket barrier API (`await_flush`/`sync`) under faults
//! and across crash recovery. Default 1: byte-identical to the classic
//! synchronous campaign.

use crate::campaign::{
    build_system, icash_config, media_faults, scrubbing_icash, verdict, Cell, Stamp, Tally,
};
use crate::harness::{attach_jsonl, SystemKind};
use crate::RunConfig;
use icash_core::Icash;
use icash_storage::fault::{fault_roll, FaultStats};
use icash_storage::model::Allow;
use icash_storage::system::StorageSystem;
use icash_storage::time::Ns;

/// Logical block space each cell works over.
const SPACE: u64 = 2048;
/// Operations per non-crash cell.
const OPS: u64 = 400;
/// Write history length per crash cell (the crash lands mid-history).
const CRASH_OPS: u64 = 300;
/// Fresh write + readback pairs after a recovery.
const FRESH_OPS: u64 = 50;

/// Injected-fault rates swept per device operation.
const RATES: [f64; 5] = [0.0, 1e-4, 5e-4, 1e-3, 1e-2];
/// Campaign seeds.
const SEEDS: [u64; 4] = [0xFA01, 0xFA02, 0xFA03, 0xFA04];
/// Crash points as a fraction of the write history.
const CRASH_AT: [f64; 3] = [0.25, 0.5, 0.75];

/// This campaign's content stamp and op-roll salts; the pinned output
/// (`ci/golden/run_faults_depth1.txt`) depends on every one of them.
const STAMP: Stamp = Stamp {
    fill: 0xA5,
    salt: 0x7A6,
};
const MIXED_SALT: u64 = 0x5EED;
const CRASH_SALT: u64 = 0xC4A5;
const FRESH_SALT: u64 = 0xAF7E;

/// One non-crash cell: mixed traffic, every read checked against the
/// latest version (strict oracle: reads must be current or errored).
fn plain_cell<S: StorageSystem>(cell: &mut Cell<S>, seed: u64, depth: u64) {
    for op in 0..OPS {
        cell.mixed(seed, MIXED_SALT, op, Allow::Latest);
    }
    // With the staged pipeline engaged, exercise the ticket barrier under
    // injected faults before the verification sweep: the durability
    // watermark must catch the acceptance watermark even when device ops
    // are erroring. Gated on depth so the default campaign (depth 1) stays
    // byte-identical to the pre-pipeline golden output.
    if depth > 1 {
        cell.io(|sys, ctx, now| {
            let accepted = sys.write_ticket();
            *now = sys.await_flush(accepted, *now, ctx);
            assert!(
                sys.flushed_ticket() >= accepted,
                "{}: barrier returned with tickets still in flight",
                sys.name()
            );
        });
    }
    cell.io(|sys, ctx, now| *now = sys.flush(*now, ctx));
    cell.sweep(Allow::Latest);
}

/// One crash cell: a write history torn at a seeded crash point; after
/// recovery every block must read back as *some* version of its own
/// history (never a splice) and none older than the mid-history `sync`,
/// and post-recovery writes behave normally.
fn crash_cell(sys: Icash, seed: u64, crash_frac: f64, depth: u64) -> Tally {
    let mut cell = Cell::new("I-CASH(crash)", sys, STAMP, SPACE);
    let crash_at = (CRASH_OPS as f64 * crash_frac) as u64;
    for op in 0..crash_at {
        cell.write(fault_roll(seed, CRASH_SALT, op, 0) % SPACE);
        // Mid-history barrier with tickets in flight: the crash below then
        // lands with the staging buffer partially drained, covering the
        // torn-group-commit recovery path. Depth-gated for byte-identity.
        if depth > 1 && op == crash_at / 2 {
            cell.sync();
        }
    }
    let mut cell = cell.with_sys(Icash::crash_and_recover);
    cell.sweep(Allow::Held);
    cell.fresh_service(seed, FRESH_SALT, FRESH_OPS);
    // Post-recovery full barrier: recovery must leave the pipeline in a
    // state where sync still drains cleanly.
    if depth > 1 {
        cell.io(|sys, ctx, now| {
            let _ = sys.sync(*now, ctx);
            assert_eq!(
                sys.flushed_ticket(),
                sys.write_ticket(),
                "I-CASH(crash): sync left tickets in flight after recovery"
            );
        });
    }
    cell.finish()
}

/// Runs one cell's `body` over `sys`; when tracing, the cell's event stream
/// joins `trace` under a `{"cell":…}` header naming `workload` and `system`.
/// `body` consumes the system, so its sink is complete when it returns.
fn run_cell<S: StorageSystem>(
    trace: &mut Option<String>,
    workload: String,
    system: &str,
    mut sys: S,
    body: impl FnOnce(S) -> Tally,
) -> Tally {
    let sink = trace.is_some().then(|| attach_jsonl(&mut sys));
    let tally = body(sys);
    if let (Some(doc), Some(sink)) = (trace, sink) {
        doc.push_str(&format!(
            "{{\"cell\":{{\"workload\":\"{workload}\",\"system\":\"{system}\"}}}}\n"
        ));
        doc.push_str(&sink.lock().expect("trace sink").take_text());
    }
    tally
}

/// Runs the campaign and renders its report.
pub fn render(cfg: &RunConfig) -> String {
    let depth = cfg.features.group_commit_depth;
    let mut trace = cfg.trace.is_some().then(String::new);
    let mut cells = 0u64;
    let mut totals = Tally::default();
    let mut injected = FaultStats::default();

    for kind in SystemKind::ALL {
        for &rate in &RATES {
            for &seed in &SEEDS {
                let icash = icash_config(depth).build();
                let sys = build_system(kind, &media_faults(seed, rate), icash);
                let name = sys.name().to_string();
                let workload = format!("faults r{rate} s{seed:#x}");
                totals.merge(run_cell(&mut trace, workload, &name, sys, |sys| {
                    let mut cell = Cell::new(name.as_str(), sys, STAMP, SPACE);
                    plain_cell(&mut cell, seed, depth);
                    injected.merge(&cell.sys().report(Ns::from_ms(1)).faults);
                    cell.finish()
                }));
                cells += 1;
            }
        }
    }
    for &rate in &RATES {
        for &frac in &CRASH_AT {
            for &seed in &SEEDS {
                let plan = media_faults(seed, rate).torn_writes();
                let sys = scrubbing_icash(icash_config(depth).build(), plan);
                let workload = format!("crash r{rate} f{frac} s{seed:#x}");
                totals.merge(run_cell(&mut trace, workload, "I-CASH", sys, |sys| {
                    crash_cell(sys, seed, frac, depth)
                }));
                cells += 1;
            }
        }
    }
    if let (Some(path), Some(doc)) = (&cfg.trace, &trace) {
        match std::fs::write(path, doc) {
            Ok(()) => eprintln!("trace written to {}", path.display()),
            Err(err) => eprintln!("failed to write trace {}: {err}", path.display()),
        }
    }

    let mut doc = format!(
        "fault campaign: {cells} cells, {} verified reads, \
         {} reads reported as media errors\n",
        totals.reads, totals.reported_errors
    );
    doc.push_str(&format!(
        "injected: {} hdd read, {} hdd write, {} ssd read errors; {} sectors remapped\n",
        injected.hdd_read_errors,
        injected.hdd_write_errors,
        injected.ssd_read_errors,
        injected.sectors_remapped
    ));
    if injected.hdd_read_errors + injected.ssd_read_errors == 0 {
        totals
            .violations
            .push("the campaign injected no read fault".into());
    }
    verdict(
        doc,
        "FAULT VIOLATION",
        &totals.violations,
        "FAULT CAMPAIGN OK\n",
    )
}
