//! The scenario campaign, row `campaign_scenarios`: block-trace replay,
//! open-loop arrivals, and a tenant-churn storm, with the trace stream held
//! to an oracle throughout.
//!
//! Grid (every cell deterministic in its seed; results print in job order,
//! so output is byte-identical across `ICASH_THREADS`):
//!
//! * replay: the in-repo MSR-style fixture through all five architectures
//! * closed baseline: the same spec closed-loop, proving the plain driver
//!   emits **zero** `OpenLoopArrival` events (the differential oracle)
//! * open loop: stationary / diurnal / burst arrivals against I-CASH,
//!   each reconciled event-for-event against a counting trace sink
//! * churn: thousands of seeded VM create/clone/destroy events over a
//!   growing fleet, closed-loop against I-CASH
//!
//! Cross-cell assertions: the burst shape must actually queue (nonzero
//! queued time) and queue at least as much as stationary; the closed loop
//! must not queue at all. `ICASH_OPS` scales every cell. Fails after
//! printing every violation.

use crate::campaign::verdict;
use crate::harness::{cell_driver, run_jobs, SystemKind};
use crate::RunConfig;
use icash_storage::time::Ns;
use icash_storage::trace::Tracer;
use icash_workloads::content::ContentModel;
use icash_workloads::driver::run_benchmark;
use icash_workloads::replay::ReplayWorkload;
use icash_workloads::scenario::{churn_storm, run_open_loop, ArrivalShape, OpenLoopConfig};
use icash_workloads::workload::{MixedWorkload, Workload};
use icash_workloads::WorkloadSpec;

/// Campaign seed.
const SEED: u64 = 0x5CE2_4001;
/// Default arrivals/ops per cell (override with `ICASH_OPS`).
const DEFAULT_OPS: u64 = 400;
/// The churn cell always issues at least this many ops so the storm
/// applies thousands of events regardless of the campaign scale.
const MIN_CHURN_OPS: u64 = 2_048;
/// Mean inter-arrival gap of the open-loop cells. Chosen against the
/// simulated device service times so the stationary shape stays mostly
/// un-queued while the 16× flash-crowd bursts visibly overload the array —
/// the contrast this campaign asserts on.
const OPEN_LOOP_BASE_GAP: Ns = Ns::from_us(200);
/// The in-repo MSR-Cambridge-style fixture the replay cells loop over (also
/// the golden-replay test's input, so the campaign and the test replay the
/// same 64 events).
const MSR_FIXTURE: &str = include_str!("../../workloads/tests/golden/msr_sample.csv");

/// One finished cell: its printed lines (in cell order) plus the numbers
/// the cross-cell assertions compare.
struct CellOut {
    name: String,
    line: String,
    violations: Vec<String>,
    queued: Ns,
    queued_arrivals: u64,
}

impl CellOut {
    fn new(name: String) -> Self {
        CellOut {
            name,
            line: String::new(),
            violations: Vec::new(),
            queued: Ns::ZERO,
            queued_arrivals: 0,
        }
    }
}

/// The spec every replay/open-loop cell runs: SysBench scaled to the
/// campaign op count (the same scaling `run_all` applies).
fn cell_spec(ops: u64) -> WorkloadSpec {
    icash_workloads::sysbench::spec().scaled_to_ops(ops)
}

/// Replay the MSR fixture closed-loop through one architecture.
fn cell_replay(kind: SystemKind, ops: u64) -> CellOut {
    let spec = cell_spec(ops);
    let mut out = CellOut::new(format!("replay/msr/{kind:?}"));
    let mut system = kind.build(&spec, 1);
    let mut wl =
        ReplayWorkload::from_csv(spec.clone(), MSR_FIXTURE).expect("in-repo MSR fixture parses");
    let rows = wl.records().len();
    let mut model = ContentModel::new(SEED, spec.profile.clone());
    let s = run_benchmark(
        system.as_mut(),
        &mut wl,
        &mut model,
        &cell_driver(ops, spec.clients),
    );
    if s.ops != ops {
        out.violations
            .push(format!("{}: issued {} of {ops} ops", out.name, s.ops));
    }
    out.line = format!(
        "cell {}: {} rows looped over {} ops, {} reads / {} writes sampled, elapsed {} ns",
        out.name,
        rows,
        s.ops,
        s.read_latency.count(),
        s.write_latency.count(),
        s.elapsed.as_ns()
    );
    out
}

/// The differential baseline: the same spec closed-loop with a counting
/// sink attached — the plain driver must emit zero open-loop events.
fn cell_closed_baseline(ops: u64) -> CellOut {
    let spec = cell_spec(ops);
    let mut out = CellOut::new("closed/baseline/I-CASH".to_string());
    let mut system = SystemKind::Icash.build(&spec, 1);
    let (tracer, counts) = Tracer::counting();
    system.set_tracer(tracer);
    let mut wl = MixedWorkload::new(spec.clone(), SEED);
    let mut model = ContentModel::new(SEED, spec.profile.clone());
    let s = run_benchmark(
        system.as_mut(),
        &mut wl,
        &mut model,
        &cell_driver(ops, spec.clients),
    );
    let c = counts.lock().expect("counting sink");
    if c.open_loop_arrivals != 0 || c.open_loop_queued != Ns::ZERO {
        out.violations.push(format!(
            "{}: closed loop emitted {} open-loop arrival events ({} ns queued)",
            out.name,
            c.open_loop_arrivals,
            c.open_loop_queued.as_ns()
        ));
    }
    out.line = format!(
        "cell {}: {} ops closed-loop, {} open-loop events (must be 0), elapsed {} ns",
        out.name,
        s.ops,
        c.open_loop_arrivals,
        s.elapsed.as_ns()
    );
    out
}

/// One open-loop shape against I-CASH, reconciled against the trace.
fn cell_open_loop(shape: ArrivalShape, ops: u64) -> CellOut {
    let spec = cell_spec(ops);
    let mut out = CellOut::new(format!("open/{}/I-CASH", shape.name()));
    let mut system = SystemKind::Icash.build(&spec, 1);
    let (tracer, counts) = Tracer::counting();
    let mut wl = MixedWorkload::new(spec.clone(), SEED);
    let mut model = ContentModel::new(SEED, spec.profile.clone());
    // The closed-loop cell's slots, length and measured window, paced by
    // `shape` arrivals instead.
    let driver = cell_driver(ops, spec.clients);
    let cfg = OpenLoopConfig {
        arrival: shape.config(OPEN_LOOP_BASE_GAP),
        clients: driver.clients,
        ops: driver.ops,
        warmup_ops: driver.warmup_ops,
        seed: SEED,
    };
    let (s, stats) = run_open_loop(system.as_mut(), &mut wl, &mut model, &cfg, &tracer);
    // Oracle: the dispatcher and the trace stream must agree event-for-
    // event — same arrival count, same total queued time.
    let c = counts.lock().expect("counting sink");
    if c.open_loop_arrivals != ops {
        out.violations.push(format!(
            "{}: trace saw {} of {ops} arrivals",
            out.name, c.open_loop_arrivals
        ));
    }
    if stats.arrivals != ops {
        out.violations.push(format!(
            "{}: dispatcher issued {} of {ops} arrivals",
            out.name, stats.arrivals
        ));
    }
    if c.open_loop_queued != stats.queued {
        out.violations.push(format!(
            "{}: trace queued total {} ns != dispatcher's {} ns",
            out.name,
            c.open_loop_queued.as_ns(),
            stats.queued.as_ns()
        ));
    }
    out.queued = stats.queued;
    out.queued_arrivals = stats.queued_arrivals;
    out.line = format!(
        "cell {}: {} arrivals, queued {} ns across {} arrivals, elapsed {} ns",
        out.name,
        stats.arrivals,
        stats.queued.as_ns(),
        stats.queued_arrivals,
        s.elapsed.as_ns()
    );
    out
}

/// The tenant-churn storm, closed-loop against I-CASH.
fn cell_churn(ops: u64) -> CellOut {
    let ops = ops.max(MIN_CHURN_OPS);
    let mut out = CellOut::new("churn/storm/I-CASH".to_string());
    let mut storm = churn_storm(SEED, ops);
    let spec = storm.spec().clone();
    let mut system = SystemKind::Icash.build(&spec, 1);
    let mut model = ContentModel::new(SEED, spec.profile.clone());
    let s = run_benchmark(
        system.as_mut(),
        &mut storm,
        &mut model,
        &cell_driver(ops, spec.clients),
    );
    let st = *storm.stats();
    if st.applied < MIN_CHURN_OPS.min(ops) {
        out.violations.push(format!(
            "{}: only {} of {} churn events applied",
            out.name, st.applied, ops
        ));
    }
    if st.cloned == 0 || st.created == 0 || st.destroyed == 0 {
        out.violations.push(format!(
            "{}: storm must exercise all event types (cloned {}, created {}, destroyed {})",
            out.name, st.cloned, st.created, st.destroyed
        ));
    }
    if st.peak_live <= 5 {
        out.violations.push(format!(
            "{}: fleet never grew past its 5 initial VMs",
            out.name
        ));
    }
    if st.peak_live > 64 {
        out.violations.push(format!(
            "{}: fleet grew to {} live VMs past the 64 cap",
            out.name, st.peak_live
        ));
    }
    out.line = format!(
        "cell {}: {} ops, {} events ({} cloned / {} created / {} destroyed), peak {} live, {} live at end, elapsed {} ns",
        out.name,
        s.ops,
        st.applied,
        st.cloned,
        st.created,
        st.destroyed,
        st.peak_live,
        storm.live(),
        s.elapsed.as_ns()
    );
    out
}

/// Runs the campaign and renders its report.
pub fn render(cfg: &RunConfig) -> String {
    let ops = cfg.ops.unwrap_or(DEFAULT_OPS);
    let mut jobs: Vec<Box<dyn FnOnce() -> CellOut + Send>> = Vec::new();
    for kind in SystemKind::ALL {
        jobs.push(Box::new(move || cell_replay(kind, ops)));
    }
    jobs.push(Box::new(move || cell_closed_baseline(ops)));
    for shape in ArrivalShape::ALL {
        jobs.push(Box::new(move || cell_open_loop(shape, ops)));
    }
    jobs.push(Box::new(move || cell_churn(ops)));

    let results = run_jobs(cfg.workers(), jobs);

    let mut doc = String::new();
    let mut violations: Vec<String> = Vec::new();
    for r in &results {
        doc.push_str(&r.line);
        doc.push('\n');
        violations.extend(r.violations.iter().cloned());
    }

    // Cross-cell contrast: bursts must overload the array in a way the
    // stationary shape does not match — that is the whole point of the
    // open-loop engine.
    let queued_of = |name: &str| {
        let r = results.iter().find(|r| r.name.starts_with(name));
        r.map_or((Ns::ZERO, 0), |r| (r.queued, r.queued_arrivals))
    };
    let ((burst, burst_n), (stationary, _)) =
        (queued_of("open/burst/"), queued_of("open/stationary/"));
    if burst == Ns::ZERO || burst_n == 0 {
        violations.push("open/burst: flash crowds never queued a single arrival".into());
    }
    if burst < stationary {
        violations.push(format!(
            "open/burst queued {} ns, less than stationary's {} ns",
            burst.as_ns(),
            stationary.as_ns()
        ));
    }

    doc.push_str(&format!(
        "scenario campaign: {} cells, {} arrivals queued in total\n",
        results.len(),
        results.iter().map(|r| r.queued_arrivals).sum::<u64>()
    ));
    verdict(
        doc,
        "SCENARIO VIOLATION",
        &violations,
        "SCENARIO CAMPAIGN OK\n",
    )
}
